"""Command-line surface for the calibration pipeline.

Subcommands: gen-model, gen-calib, calibrate, dist-calibrate, quantize,
eval, heatmap. Options can also come from a JSON config file (--config);
explicit flags win over config values, which win over preset values.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime or
protocol error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from . import calibration, distcal, fixtures, report
from .calibration import RatioGrid
from .errors import ConfigError, TlqError
from .model import (
    ProxyLossSpec,
    load_calibset,
    load_checkpoint,
    save_calibset,
    save_checkpoint,
)
from .quantizer import QuantConfig

PRESETS = {
    # scale fixed at 1 (ratio 0), no search
    "rtn": {"stat_mode": "max", "grid_start": 0.0, "grid_stop": 0.0, "strategy": "none"},
    # classic sqrt(max|X|/max|W|) smoothing, no search
    "sq": {"stat_mode": "sqrt", "grid_start": 1.0, "grid_stop": 1.0, "strategy": "none"},
    # gradient-guided token selection + quantized activation propagation
    "tlq": {"stat_mode": "topk", "strategy": "passact2", "grid_start": 0.0, "grid_stop": 1.0},
}

# every calibration option: its default and what a config file may hold for
# it, an int, a float (an int is widened, as a float flag would parse it) or
# one of a tuple of names
_CAL_OPTIONS = {
    "bits_w": (4, int),
    "bits_a": (8, int),
    "strategy": ("passact2", calibration.STRATEGIES),
    "stat_mode": ("topk", calibration.STAT_MODES),
    "fraction": (0.5, float),
    "grid_start": (0.0, float),
    "grid_stop": (1.0, float),
    "grid_step": (0.05, float),
    "workers": (3, int),
    "transport": ("in_process", distcal.TRANSPORTS),
    "timeout": (30.0, float),
}


def _config_value(key: str, value):
    kind = _CAL_OPTIONS[key][1]
    if isinstance(kind, tuple):
        if isinstance(value, str) and value in kind:
            return value
        raise ConfigError(f"config key {key!r} must be one of {kind}, got {value!r}")
    numeric, what = ((int,), "an integer") if kind is int else ((int, float), "a number")
    if isinstance(value, bool) or not isinstance(value, numeric):
        raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ConfigError(f"config key {key!r} is out of range: {value!r}") from None


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise _UsageError(message)


def _add_calibration_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="checkpoint file (TLQCKPT1)")
    p.add_argument("--calib", required=True, help="calibration set file (TLQCAL01)")
    p.add_argument("--out", required=True, help="calibration result output path")
    p.add_argument("--config", help="JSON config file; explicit flags win")
    p.add_argument("--preset", choices=sorted(PRESETS), help="rtn, sq or tlq")
    p.add_argument("--bits-w", type=int, dest="bits_w", default=None)
    p.add_argument("--bits-a", type=int, dest="bits_a", default=None)
    p.add_argument("--strategy", choices=calibration.STRATEGIES, default=None)
    p.add_argument("--stat-mode", choices=calibration.STAT_MODES, dest="stat_mode", default=None)
    p.add_argument("--fraction", type=float, default=None, help="top-token fraction for topk")
    p.add_argument("--grid-start", type=float, dest="grid_start", default=None)
    p.add_argument("--grid-stop", type=float, dest="grid_stop", default=None)
    p.add_argument("--grid-step", type=float, dest="grid_step", default=None)


def _build_parser() -> _Parser:
    p = _Parser(prog="tlq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-model", help="generate a deterministic planted-outlier stack")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--depth", type=int, default=2, help="number of (rmsnorm, linear, act) blocks")
    g.add_argument("--channels", type=int, default=64)
    g.add_argument("--outlier-fraction", type=float, dest="outlier_fraction", default=1 / 16)
    g.add_argument("--outlier-gain", type=float, dest="outlier_gain", default=fixtures.OUTLIER_GAIN)
    g.add_argument(
        "--visual-weight-gain",
        type=float,
        dest="visual_weight_gain",
        default=fixtures.VISUAL_WEIGHT_GAIN,
    )
    g.add_argument("--act", choices=("relu", "silu"), default="silu")
    g.add_argument("--eps", type=float, default=fixtures.GEN_EPS)
    g.add_argument("--out", required=True)

    c = sub.add_parser("gen-calib", help="generate a redundant-visual-token calibration set")
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--batch", type=int, default=128)
    c.add_argument("--tokens", type=int, default=64)
    c.add_argument("--channels", type=int, default=64)
    c.add_argument("--visual-fraction", type=float, dest="visual_fraction", default=0.5)
    c.add_argument("--redundancy", type=float, default=0.95)
    c.add_argument("--out", required=True)

    cal = sub.add_parser("calibrate", help="single-context layer-wise calibration")
    _add_calibration_options(cal)

    dist = sub.add_parser("dist-calibrate", help="distributed layer-wise calibration")
    _add_calibration_options(dist)
    dist.add_argument("--workers", type=int, default=None)
    dist.add_argument("--transport", choices=distcal.TRANSPORTS, default=None)
    dist.add_argument("--timeout", type=float, default=None)
    dist.add_argument("--memory-report", dest="memory_report", help="memory report output path")

    q = sub.add_parser("quantize", help="emit the fused, weight-quantized artifact")
    q.add_argument("--model", required=True)
    q.add_argument("--result", required=True)
    q.add_argument("--out", required=True)

    e = sub.add_parser("eval", help="score a result: per-layer losses and loss gaps")
    e.add_argument("--model", required=True)
    e.add_argument("--result", required=True)
    e.add_argument("--calib", help="evaluation calibration set")
    e.add_argument("--fresh-seed", type=int, dest="fresh_seed", help="generate evaluation data instead")
    e.add_argument("--batch", type=int, default=16, help="batch for --fresh-seed data")
    e.add_argument("--tokens", type=int, default=32, help="tokens for --fresh-seed data")
    e.add_argument("--visual-fraction", type=float, dest="visual_fraction", default=0.5)
    e.add_argument("--out", required=True)

    h = sub.add_parser("heatmap", help="export token-gradient CSVs before/after selection")
    h.add_argument("--model", required=True)
    h.add_argument("--calib", required=True)
    h.add_argument("--layer", type=int, required=True)
    h.add_argument("--fraction", type=float, default=0.5)
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--sample", type=int, default=0)
    h.add_argument("--max-tokens", type=int, dest="max_tokens", default=None)
    h.add_argument("--max-channels", type=int, dest="max_channels", default=None)
    h.add_argument("--out-pre", dest="out_pre", required=True)
    h.add_argument("--out-post", dest="out_post", required=True)
    return p


def _resolve_options(args: argparse.Namespace) -> dict:
    """Merge calibration options: flags > config file > preset > defaults."""
    merged = {key: default for key, (default, _) in _CAL_OPTIONS.items()}
    if args.preset:
        merged.update(PRESETS[args.preset])
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file must hold a JSON object, got {type(loaded).__name__}")
        for key, value in loaded.items():
            if key not in _CAL_OPTIONS:
                raise ConfigError(f"unknown config key: {key!r}")
            merged[key] = _config_value(key, value)
    for key in _CAL_OPTIONS:
        explicit = getattr(args, key, None)
        if explicit is not None:
            merged[key] = explicit
    _check_fraction(merged["fraction"])
    return merged


def _check_fraction(fraction: float) -> None:
    if not 0.0 < fraction <= 1.0:  # NaN fails too
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return p


def _prepare_out(path: str) -> Path:
    p = Path(path)
    if p.parent and not p.parent.exists():
        raise ConfigError(f"output directory does not exist: {p.parent}")
    return p


def _cmd_gen_model(args) -> int:
    stack = fixtures.build_stack(
        args.seed,
        args.depth,
        args.channels,
        outlier_fraction=args.outlier_fraction,
        outlier_gain=args.outlier_gain,
        visual_weight_gain=args.visual_weight_gain,
        act=args.act,
        eps=args.eps,
    )
    _prepare_out(args.out).write_bytes(save_checkpoint(stack))
    print(f"wrote {args.out}: {len(stack.layers)} layers, {args.channels} channels")
    return 0


def _cmd_gen_calib(args) -> int:
    calib = fixtures.build_calibset(
        args.seed,
        args.batch,
        args.tokens,
        args.channels,
        visual_fraction=args.visual_fraction,
        redundancy=args.redundancy,
    )
    _prepare_out(args.out).write_bytes(save_calibset(calib))
    print(f"wrote {args.out}: B={calib.batch} N={calib.tokens} C={calib.channels}")
    return 0


def _load_inputs(args):
    stack = load_checkpoint(_require_file(args.model, "model checkpoint").read_bytes())
    calib = load_calibset(_require_file(args.calib, "calibration set").read_bytes())
    return stack, calib


def _calibration_kwargs(opts: dict) -> dict:
    return dict(
        strategy=opts["strategy"],
        stat_mode=opts["stat_mode"],
        grid=RatioGrid(opts["grid_start"], opts["grid_stop"], opts["grid_step"]),
        cfg_w=QuantConfig(opts["bits_w"], "per_channel"),
        cfg_a=QuantConfig(opts["bits_a"], "per_token"),
        fraction=opts["fraction"],
        loss=ProxyLossSpec(),
    )


def _cmd_calibrate(args) -> int:
    opts = _resolve_options(args)
    kwargs = _calibration_kwargs(opts)
    stack, calib = _load_inputs(args)
    out = _prepare_out(args.out)
    result = calibration.calibrate(stack, calib.activations, **kwargs)
    out.write_text(calibration.result_to_text(result))
    print(f"wrote {args.out}: {len(result.layers)} layers ({opts['strategy']}/{opts['stat_mode']})")
    return 0


def _cmd_dist_calibrate(args) -> int:
    opts = _resolve_options(args)
    kwargs = _calibration_kwargs(opts)
    stack, calib = _load_inputs(args)
    out = _prepare_out(args.out)
    mem_path = _prepare_out(args.memory_report) if args.memory_report else None
    result, mem = distcal.run_distributed_calibration(
        stack,
        calib.activations,
        workers=opts["workers"],
        transport=opts["transport"],
        timeout=opts["timeout"],
        **kwargs,
    )
    out.write_text(calibration.result_to_text(result))
    if mem_path is not None:
        mem_path.write_text(mem.to_text())
    print(
        f"wrote {args.out}: {len(result.layers)} layers; "
        f"max worker peak {mem.max_peak()} B vs baseline {mem.baseline_bytes} B"
    )
    return 0


def _cmd_quantize(args) -> int:
    stack = load_checkpoint(_require_file(args.model, "model checkpoint").read_bytes())
    result = calibration.load_result(_require_file(args.result, "calibration result").read_bytes())
    out = _prepare_out(args.out)
    qstack = calibration.quantize_with_result(
        stack,
        result,
        QuantConfig(result.bits_w, "per_channel"),
        QuantConfig(result.bits_a, "per_token"),
    )
    out.write_bytes(calibration.save_quantized(qstack))
    print(f"wrote {args.out}: {len(qstack.layers)} layers at W{result.bits_w}A{result.bits_a}")
    return 0


def _cmd_eval(args) -> int:
    stack = load_checkpoint(_require_file(args.model, "model checkpoint").read_bytes())
    result = calibration.load_result(_require_file(args.result, "calibration result").read_bytes())
    if (args.calib is None) == (args.fresh_seed is None):
        raise ConfigError("eval needs exactly one of --calib or --fresh-seed")
    if args.calib:
        calib = load_calibset(_require_file(args.calib, "calibration set").read_bytes())
    else:
        calib = fixtures.build_calibset(
            args.fresh_seed,
            args.batch,
            args.tokens,
            stack.input_channels,
            visual_fraction=args.visual_fraction,
        )
    out = _prepare_out(args.out)
    rep = report.evaluate(stack, result, calib)
    out.write_text(rep.to_text())
    print(f"wrote {args.out}: end-to-end gap {rep.end_to_end_gap:.6g}")
    return 0


def _cmd_heatmap(args) -> int:
    _check_fraction(args.fraction)
    stack = load_checkpoint(_require_file(args.model, "model checkpoint").read_bytes())
    calib = load_calibset(_require_file(args.calib, "calibration set").read_bytes())
    pre_path = _prepare_out(args.out_pre)
    post_path = _prepare_out(args.out_post)
    pair = report.build_heatmaps(
        stack,
        calib,
        args.layer,
        fraction=args.fraction,
        seed=args.seed,
        sample=args.sample,
        max_tokens=args.max_tokens,
        max_channels=args.max_channels,
    )
    pre_path.write_text(report.heatmap_csv(pair.pre, pair.channel_indices))
    post_path.write_text(report.heatmap_csv(pair.post, pair.channel_indices))
    print(
        f"wrote {args.out_pre} ({len(pair.pre)} tokens) and "
        f"{args.out_post} ({len(pair.post)} tokens)"
    )
    return 0


_COMMANDS = {
    "gen-model": _cmd_gen_model,
    "gen-calib": _cmd_gen_calib,
    "calibrate": _cmd_calibrate,
    "dist-calibrate": _cmd_dist_calibrate,
    "quantize": _cmd_quantize,
    "eval": _cmd_eval,
    "heatmap": _cmd_heatmap,
}


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        with warnings.catch_warnings():  # a library warning is one stderr line, without its source
            warnings.showwarning = _print_warning
            return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TlqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
