"""Deterministic synthetic models and calibration sets with planted structure.

Generated stacks repeat (rmsnorm -> linear -> act) blocks. Two effects are
planted so that calibration quality is measurable by construction:

* outlier channels: a small channel set gets a large rmsnorm gain while the
  matching weight columns are shrunk by the same factor, producing the
  activation outliers that make smoothing worthwhile in the first place;
* a redundant visual-token subspace: the first linear layer annihilates a
  low-dimensional subspace of the visual channels, and the companion
  calibration set puts its visual tokens (near-duplicates of a per-sample
  template) inside that subspace. Visual tokens then carry large channel
  magnitudes but near-zero gradients, which is exactly the population that
  biases selection-free scale statistics.

A model and a calibration set generated from the same seed and channel
count share one planted profile, so they can be built independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .layers import Activation, LayerStack, Linear, RMSNorm
from .model import CalibrationSet
from .tensor import Rng, rand_normal

# plant strengths; tests pin fixtures through these values
OUTLIER_GAIN = 50.0
VISUAL_AMP = 20.0
VISUAL_NOISE = 1e-8  # off-subspace leak; keeps visual gradients far below text
VISUAL_WEIGHT_GAIN = 1.5  # visual channels carry stronger weight columns
TEXT_VISUAL_SIGMA = 0.3
GEN_EPS = 0.1


@dataclass(frozen=True)
class PlantProfile:
    outlier_channels: np.ndarray  # sorted channel indices with gain outliers
    visual_channels: np.ndarray  # sorted channel indices carrying visual tokens
    null_basis: np.ndarray  # (C, k) orthonormal, annihilated by the first linear


def plant_profile(seed: int, channels: int, outlier_fraction: float = 1 / 16) -> PlantProfile:
    """Channel partition and visual subspace shared by model and data generators."""
    if channels < 16:
        raise ConfigError(f"planted fixtures need at least 16 channels, got {channels}")
    if not 0 < outlier_fraction < 0.5:
        raise ConfigError(f"outlier fraction must be in (0, 0.5), got {outlier_fraction}")
    gen = Rng(seed).split("plant-profile").generator()
    perm = gen.permutation(channels)
    n_vis = (channels // 4) & ~1  # even, so channels pair up
    visual = np.sort(perm[:n_vis])
    n_out = max(1, round(outlier_fraction * channels))
    outlier = np.sort(perm[n_vis : n_vis + n_out])
    # one orthonormal basis vector per disjoint visual channel pair; the
    # complement within each pair stays visible to the first linear layer
    k = n_vis // 2
    basis = np.zeros((channels, k))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for j in range(k):
        basis[visual[2 * j], j] = inv_sqrt2
        basis[visual[2 * j + 1], j] = inv_sqrt2
    return PlantProfile(outlier, visual, basis)


def build_stack(
    seed: int,
    depth: int,
    channels: int,
    outlier_fraction: float = 1 / 16,
    outlier_gain: float = OUTLIER_GAIN,
    visual_weight_gain: float = VISUAL_WEIGHT_GAIN,
    act: str = "silu",
    eps: float = GEN_EPS,
) -> LayerStack:
    """Deterministic stack of `depth` (rmsnorm -> linear -> act) blocks.

    Biases are zero so that tokens annihilated by the first linear stay
    near zero downstream. Visual channels get moderately stronger weight
    columns (they are live pathways), which makes scale statistics biased
    by visual magnitudes genuinely costly.
    """
    if depth < 1:
        raise ConfigError(f"depth must be >= 1, got {depth}")
    if not (0 < outlier_gain < np.inf and 0 < visual_weight_gain < np.inf):  # NaN fails too
        raise ConfigError(f"gains must be finite and > 0, got outlier {outlier_gain}, visual weight {visual_weight_gain}")
    profile = plant_profile(seed, channels, outlier_fraction)
    rng = Rng(seed)
    layers = []
    for d in range(depth):
        gain = np.ones(channels)
        gain[profile.outlier_channels] = outlier_gain
        w = rand_normal(rng.split(f"weight{d}"), (channels, channels)) / np.sqrt(channels)
        w[:, profile.outlier_channels] /= outlier_gain
        w[:, profile.visual_channels] *= visual_weight_gain
        if d == 0:
            # column scaling first, projection second: the planted subspace
            # must stay annihilated by the final weight matrix
            u = profile.null_basis
            w = w - (w @ u) @ u.T
        layers.append(RMSNorm(f"norm{d}", gain, eps))
        layers.append(Linear(f"lin{d}", w, np.zeros(channels)))
        layers.append(Activation(f"act{d}", act))
    return LayerStack(tuple(layers), channels)


def _jitter_radius(redundancy: float) -> float:
    # with jitter orthogonal to the template, pairwise cosine is at least
    # (1 - rho^2) / (1 + rho^2); solve for rho with a safety margin
    if not 0.0 < redundancy < 1.0:
        raise ConfigError(f"redundancy must be in (0, 1), got {redundancy}")
    return 0.9 * np.sqrt((1.0 - redundancy) / (1.0 + redundancy))


def build_calibset(
    seed: int,
    batch: int,
    tokens: int,
    channels: int,
    visual_fraction: float = 0.5,
    redundancy: float = 0.95,
) -> CalibrationSet:
    """Calibration batch whose visual tokens are redundant and gradient-dead.

    The leading round(visual_fraction * tokens) positions of every sample are
    visual: a per-sample template drawn from the planted null subspace plus a
    small in-subspace jitter (pairwise cosine >= redundancy) and a tiny
    generic perturbation. Text tokens are dense gaussians, damped on the
    visual channels so visual magnitudes clearly dominate there.
    """
    if batch < 1 or tokens < 1:
        raise ConfigError(f"calibration set needs batch and tokens >= 1, got batch {batch}, tokens {tokens}")
    if not 0.0 <= visual_fraction <= 1.0:
        raise ConfigError(f"visual fraction must be in [0, 1], got {visual_fraction}")
    profile = plant_profile(seed, channels)
    u = profile.null_basis
    k = u.shape[1]
    n_vis = round(visual_fraction * tokens)
    rho = _jitter_radius(redundancy)
    rng = Rng(seed)

    acts = np.empty((batch, tokens, channels))
    modality = np.zeros((batch, tokens), dtype=np.uint8)
    modality[:, :n_vis] = 1
    for b in range(batch):
        sample_rng = rng.split(f"sample{b}")
        text = rand_normal(sample_rng.split("text"), (tokens, channels))
        text[:, profile.visual_channels] *= TEXT_VISUAL_SIGMA
        acts[b] = text
        if n_vis == 0:
            continue
        gen = sample_rng.split("visual").generator()
        # concentrated template: one basis pair per sample
        coeff = np.zeros(k)
        coeff[gen.integers(k)] = gen.choice((-1.0, 1.0))
        template = u @ coeff
        template /= np.linalg.norm(template)
        jit = gen.standard_normal((n_vis, k))
        jitter = jit @ u.T
        # remove the template component so the redundancy bound is exact
        jitter -= np.outer(jitter @ template, template)
        norms = np.linalg.norm(jitter, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        jitter *= rho / norms
        amp = VISUAL_AMP * (1.0 + 0.1 * gen.uniform(-1.0, 1.0, size=(n_vis, 1)))
        rows = amp * (template + jitter)
        rows += VISUAL_NOISE * gen.standard_normal((n_vis, channels))
        acts[b, :n_vis] = rows
    return CalibrationSet(acts, modality)

