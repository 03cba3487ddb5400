import numpy as np
import pytest

from helpers import min_visual_cosine, modality_gradient_ratio, outlier_absmax_ratio
from tlq.errors import ConfigError
from tlq.fixtures import (
    build_calibset,
    build_stack,
    plant_profile,
)
from tlq.layers import Linear
from tlq.model import backward_token_grads, save_checkpoint


def test_same_seed_gives_identical_stacks():
    a = save_checkpoint(build_stack(9, 2, 32))
    b = save_checkpoint(build_stack(9, 2, 32))
    assert a == b
    assert a != save_checkpoint(build_stack(10, 2, 32))


def test_depth_one_gives_three_layers():
    stack = build_stack(1, 1, 32)
    assert len(stack.layers) == 3


def test_profile_partitions_are_disjoint():
    prof = plant_profile(4, 64)
    assert not set(prof.outlier_channels) & set(prof.visual_channels)
    # basis is orthonormal and supported on visual channels only
    u = prof.null_basis
    assert np.allclose(u.T @ u, np.eye(u.shape[1]))
    support = np.where(np.abs(u).sum(axis=1) > 0)[0]
    assert set(support) <= set(prof.visual_channels)


def test_first_linear_annihilates_planted_subspace():
    prof = plant_profile(2, 64)
    stack = build_stack(2, 2, 64)
    first = next(l for l in stack.layers if isinstance(l, Linear))
    assert np.max(np.abs(first.weight @ prof.null_basis)) < 1e-12


def test_planted_outliers_dominate_first_linear_inputs():
    stack = build_stack(3, 2, 64)
    calib = build_calibset(3, 8, 24, 64, visual_fraction=0.5)
    assert outlier_absmax_ratio(stack, calib, plant_profile(3, 64)) >= 10.0


def test_visual_tokens_have_near_zero_gradients():
    stack = build_stack(6, 2, 64)
    calib = build_calibset(6, 6, 24, 64, visual_fraction=0.8)
    assert modality_gradient_ratio(stack, calib) <= 0.1


def test_modality_gradient_ratio_equals_the_per_sample_reference():
    stack = build_stack(6, 2, 64)
    calib = build_calibset(6, 6, 24, 64, visual_fraction=0.8)
    sums = np.zeros(calib.tokens)
    for b in range(calib.batch):
        sums += np.mean(np.abs(backward_token_grads(stack, calib.activations[b])[1]), axis=1)
    visual = calib.modality[0] == 1
    assert modality_gradient_ratio(stack, calib) == float(sums[visual].mean() / sums[~visual].mean())


def test_visual_tokens_are_near_duplicates():
    calib = build_calibset(7, 6, 24, 64, visual_fraction=0.8)
    assert min_visual_cosine(calib) >= 0.95


def test_zero_visual_fraction_tags_everything_text():
    calib = build_calibset(8, 3, 10, 32, visual_fraction=0.0)
    assert not calib.modality.any()


def test_fixture_validation():
    with pytest.raises(ConfigError):
        build_stack(1, 0, 32)
    with pytest.raises(ConfigError):
        plant_profile(1, 8)
    with pytest.raises(ConfigError, match="at least 16 channels, got 15"):
        plant_profile(1, 15)
    with pytest.raises(ConfigError):
        build_calibset(1, 2, 4, 32, visual_fraction=1.5)


@pytest.mark.parametrize("batch, tokens", [(0, 8), (-1, 8), (2, 0), (2, -3)])
def test_calibset_builder_rejects_empty_batches(batch, tokens):
    with pytest.raises(ConfigError, match="batch and tokens"):
        build_calibset(1, batch, tokens, 16)
