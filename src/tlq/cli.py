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

# every calibration option: its default, what a flag or a config file may
# hold for it (an int, a float, which widens an int as the float flag would
# parse it, or one of a tuple of names) and its flag's help
_CAL_OPTIONS = {
    "bits_w": (4, int, "weight bits"),
    "bits_a": (8, int, "activation bits"),
    "strategy": ("passact2", calibration.STRATEGIES, "activation propagation"),
    "stat_mode": ("topk", calibration.STAT_MODES, "per-channel scale statistic"),
    "fraction": (0.5, float, "top-token fraction for topk"),
    "grid_start": (0.0, float, "first smoothing ratio"),
    "grid_stop": (1.0, float, "last smoothing ratio"),
    "grid_step": (0.05, float, "ratio grid step"),
    "workers": (3, int, "2 or 3 workers"),
    "transport": ("in_process", distcal.TRANSPORTS, "worker channels"),
    "timeout": (30.0, float, "seconds a worker waits"),
}
# flags of dist-calibrate only; a calibrate config file may hold them
_DIST_OPTIONS = ("workers", "transport", "timeout")


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


def _add_calibration_options(p: argparse.ArgumentParser, dist: bool) -> None:
    p.add_argument("--model", required=True, help="checkpoint file (TLQCKPT1)")
    p.add_argument("--calib", required=True, help="calibration set file (TLQCAL01)")
    p.add_argument("--out", required=True, help="calibration result output path")
    p.add_argument("--config", help="JSON config file; explicit flags win")
    p.add_argument("--preset", choices=sorted(PRESETS), help="rtn, sq or tlq")
    for key, (_, kind, text) in _CAL_OPTIONS.items():
        if dist or key not in _DIST_OPTIONS:
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            p.add_argument("--" + key.replace("_", "-"), default=None, help=text, **typed)


def _build_parser() -> _Parser:
    p = _Parser(prog="tlq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-model", help="generate a deterministic planted-outlier stack")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--depth", type=int, default=2, help="number of (rmsnorm, linear, act) blocks")
    g.add_argument("--channels", type=int, default=64)
    g.add_argument("--out", required=True)

    c = sub.add_parser("gen-calib", help="generate a redundant-visual-token calibration set")
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--batch", type=int, default=128)
    c.add_argument("--tokens", type=int, default=64)
    c.add_argument("--channels", type=int, default=64)
    c.add_argument("--visual-fraction", type=float, dest="visual_fraction", default=0.5)
    c.add_argument("--out", required=True)

    cal = sub.add_parser("calibrate", help="single-context layer-wise calibration")
    _add_calibration_options(cal, dist=False)

    dist = sub.add_parser("dist-calibrate", help="distributed layer-wise calibration")
    _add_calibration_options(dist, dist=True)
    dist.add_argument("--memory-report", dest="memory_report", help="memory report output path")

    q = sub.add_parser("quantize", help="emit the fused, weight-quantized artifact")
    q.add_argument("--model", required=True)
    q.add_argument("--result", required=True)
    q.add_argument("--out", required=True)

    e = sub.add_parser("eval", help="score a result: per-layer losses and loss gaps")
    e.add_argument("--model", required=True)
    e.add_argument("--result", required=True)
    e.add_argument("--calib", required=True, help="evaluation calibration set")
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
    merged = {key: default for key, (default, _, _) in _CAL_OPTIONS.items()}
    if args.preset:
        merged.update(PRESETS[args.preset])
    if args.config:
        try:
            loaded = json.loads(_read(args.config, "config file").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
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
    return merged


def _read(path: str, what: str) -> bytes:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return p.read_bytes()


def _load_model(path: str):
    return load_checkpoint(_read(path, "model checkpoint"))


def _load_calib(path: str):
    return load_calibset(_read(path, "calibration set"))


def _load_result(path: str):
    return calibration.load_result(_read(path, "calibration result"))


def _prepare_out(path: str) -> Path:
    p = Path(path)
    if p.parent and not p.parent.exists():
        raise ConfigError(f"output directory does not exist: {p.parent}")
    return p


def _cmd_gen_model(args) -> int:
    stack = fixtures.build_stack(args.seed, args.depth, args.channels)
    _prepare_out(args.out).write_bytes(save_checkpoint(stack))
    print(f"wrote {args.out}: {len(stack.layers)} layers, {args.channels} channels")
    return 0


def _cmd_gen_calib(args) -> int:
    calib = fixtures.build_calibset(args.seed, args.batch, args.tokens, args.channels, args.visual_fraction)
    _prepare_out(args.out).write_bytes(save_calibset(calib))
    print(f"wrote {args.out}: B={calib.batch} N={calib.tokens} C={calib.channels}")
    return 0


def _load_inputs(args):
    return _load_model(args.model), _load_calib(args.calib)


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
    stack = _load_model(args.model)
    result = _load_result(args.result)
    out = _prepare_out(args.out)
    qstack = calibration.quantize_with_result(stack, result)
    out.write_bytes(calibration.save_quantized(qstack))
    print(f"wrote {args.out}: {len(qstack.layers)} layers at W{result.bits_w}A{result.bits_a}")
    return 0


def _cmd_eval(args) -> int:
    stack = _load_model(args.model)
    result = _load_result(args.result)
    calib = _load_calib(args.calib)
    out = _prepare_out(args.out)
    rep = report.evaluate(stack, result, calib)
    out.write_text(rep.to_text())
    print(f"wrote {args.out}: end-to-end gap {rep.end_to_end_gap:.6g}")
    return 0


def _cmd_heatmap(args) -> int:
    stack, calib = _load_inputs(args)
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
