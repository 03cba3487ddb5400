import json
import os
import shlex
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import BROKEN_RESULTS, broken_result_text, parse_heatmap_csv
from tlq import fixtures
from tlq.calibration import load_quantized, result_from_text
from tlq.cli import _CAL_OPTIONS, _DIST_OPTIONS, main
from tlq.layers import LayerStack
from tlq.model import CalibrationSet, load_calibset, load_checkpoint, save_calibset, save_checkpoint
from test_model import checkpoint_with_linear_named


def _readme_walkthrough() -> list[list[str]]:
    """Each line of README's fenced bash block under "CLI walkthrough", split into words."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI walkthrough\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.lstrip().startswith("#")]


def test_readme_walkthrough_runs(tmp_path, monkeypatch, capsys):
    commands = _readme_walkthrough()
    assert len(commands) >= 8 and all(words[0] == "tlq" for words in commands)
    monkeypatch.chdir(tmp_path)
    for words in commands:
        assert main(words[1:]) == 0, (words, capsys.readouterr().err)


def _gen_model(tmp_path, seed=1, depth=2, channels=32, name="model.ckpt"):
    path = tmp_path / name
    assert main([
        "gen-model", "--seed", str(seed), "--depth", str(depth),
        "--channels", str(channels), "--out", str(path),
    ]) == 0
    return path


def _gen_calib(tmp_path, seed=1, batch=4, tokens=12, channels=32, name="calib.bin", extra=()):
    path = tmp_path / name
    assert main([
        "gen-calib", "--seed", str(seed), "--batch", str(batch), "--tokens", str(tokens),
        "--channels", str(channels), "--out", str(path), *extra,
    ]) == 0
    return path


def _calibrate(tmp_path, model, calib, name="result.txt", extra=()):
    path = tmp_path / name
    assert main([
        "calibrate", "--model", str(model), "--calib", str(calib),
        "--bits-w", "4", "--bits-a", "6", "--out", str(path), *extra,
    ]) == 0
    return path


def test_gen_model_is_deterministic(tmp_path):
    a = _gen_model(tmp_path, name="a.ckpt").read_bytes()
    b = _gen_model(tmp_path, name="b.ckpt").read_bytes()
    assert a == b


def test_gen_model_depth_one_has_three_layers(tmp_path):
    stack = load_checkpoint(_gen_model(tmp_path, depth=1).read_bytes())
    assert len(stack.layers) == 3


def test_gen_calib_zero_visual_fraction(tmp_path):
    path = _gen_calib(tmp_path, extra=("--visual-fraction", "0"))
    calib = load_calibset(path.read_bytes())
    assert not calib.modality.any()


def test_gen_calib_default_batch_is_128(tmp_path):
    path = tmp_path / "c.bin"
    assert main([
        "gen-calib", "--seed", "2", "--tokens", "4", "--channels", "16", "--out", str(path),
    ]) == 0
    assert load_calibset(path.read_bytes()).batch == 128


def test_calibrate_and_dist_calibrate_agree(tmp_path):
    model = _gen_model(tmp_path)
    calib = _gen_calib(tmp_path)
    single = _calibrate(tmp_path, model, calib, name="single.txt")
    dist = tmp_path / "dist.txt"
    mem = tmp_path / "mem.txt"
    assert main([
        "dist-calibrate", "--model", str(model), "--calib", str(calib),
        "--bits-w", "4", "--bits-a", "6", "--out", str(dist),
        "--memory-report", str(mem), "--workers", "3", "--transport", "sockets",
    ]) == 0
    assert single.read_text() == dist.read_text()
    assert mem.read_text().startswith("tlq-memory-report v1\n")


@pytest.mark.parametrize("command, outs", [
    ("calibrate", {"--out": "r.txt"}),
    ("dist-calibrate", {"--out": "r.txt"}),
    ("heatmap", {"--layer": "1", "--out-pre": "pre.csv", "--out-post": "post.csv"}),
])
def test_library_warning_is_one_stderr_line(tmp_path, command, outs):
    # a subprocess, so that pytest's own warning capture cannot hide the output
    model = _gen_model(tmp_path, depth=1, channels=16)
    calib = _gen_calib(tmp_path, batch=2, tokens=8, channels=16)
    argv = [command, "--model", str(model), "--calib", str(calib), "--fraction", "0.01"]

    def out_flags(folder):
        return [v for flag, name in outs.items() for v in (flag, str(folder / name) if "." in name else name)]

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "tlq.cli", *argv, *out_flags(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "warning: token selection kept only 1 of 8 tokens\n")
    (tmp_path / "in_process").mkdir()
    assert main([*argv, *out_flags(tmp_path / "in_process")]) == 0
    for name in outs.values():
        if "." in name:
            assert (tmp_path / name).read_bytes() == (tmp_path / "in_process" / name).read_bytes()


def test_unknown_config_key_exits_one_naming_it(tmp_path, capsys):
    model = _gen_model(tmp_path)
    calib = _gen_calib(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bits_z": 3}))
    code = main([
        "calibrate", "--model", str(model), "--calib", str(calib),
        "--config", str(cfg), "--out", str(tmp_path / "r.txt"),
    ])
    assert code == 1
    assert "bits_z" in capsys.readouterr().err


def test_config_file_applies_but_flags_win(tmp_path):
    model = _gen_model(tmp_path)
    calib = _gen_calib(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bits_a": 8, "strategy": "none"}))
    out = tmp_path / "r.txt"
    assert main([
        "calibrate", "--model", str(model), "--calib", str(calib),
        "--config", str(cfg), "--bits-a", "6", "--out", str(out),
    ]) == 0
    res = result_from_text(out.read_text())
    assert res.bits_a == 6  # flag beat the config file
    assert res.strategy == "none"  # config beat the default


@pytest.mark.parametrize(
    "content",
    [
        "[1, 2]", '{"fraction": "0.5"}', '{"bits_w": 4.0}', '{"strategy": 3}', '{"grid_step": true}',
        '{"grid_step": Infinity}',
    ],
)
def test_bad_config_value_exits_one(tmp_path, capsys, content):
    model = _gen_model(tmp_path)
    calib = _gen_calib(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code = main([
        "calibrate", "--model", str(model), "--calib", str(calib),
        "--config", str(cfg), "--out", str(tmp_path / "r.txt"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000], ids=["not_utf8", "too_deep"])
def test_unreadable_config_exits_one(tmp_path, capsys, content):
    model = _gen_model(tmp_path, channels=16)
    calib = _gen_calib(tmp_path, batch=2, tokens=4, channels=16)
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    capsys.readouterr()
    code = main([
        "calibrate", "--model", str(model), "--calib", str(calib),
        "--config", str(cfg), "--out", str(tmp_path / "r.txt"),
    ])
    assert code == 1
    _one_error_line(capsys, "config error: config file is not valid JSON: ")
    assert not (tmp_path / "r.txt").exists()


# a value other than the default for every calibration option, as a flag gives it
_OPTION_VALUES = {
    "bits_w": "3", "bits_a": "6", "strategy": "passact1", "stat_mode": "max", "fraction": "0.25",
    "grid_start": "0.1", "grid_stop": "0.9", "grid_step": "0.2",
    "workers": "2", "transport": "sockets", "timeout": "20",
}


def test_option_values_cover_the_option_table():
    assert _OPTION_VALUES.keys() == _CAL_OPTIONS.keys()


@pytest.mark.parametrize("key", list(_OPTION_VALUES))
def test_flag_and_config_key_give_the_same_bytes(tmp_path, key):
    model = _gen_model(tmp_path, channels=16)
    calib = _gen_calib(tmp_path, batch=2, tokens=4, channels=16)
    value = _OPTION_VALUES[key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value if isinstance(_CAL_OPTIONS[key][1], tuple) else json.loads(value)}))
    command = "dist-calibrate" if key in _DIST_OPTIONS else "calibrate"
    outs = {}
    for source, extra in (
        ("flag", ["--" + key.replace("_", "-"), value]), ("config", ["--config", str(cfg)]), ("default", []),
    ):
        out = tmp_path / f"{source}.txt"
        mem = ["--memory-report", str(tmp_path / f"{source}.mem")] if command == "dist-calibrate" else []
        assert main([command, "--model", str(model), "--calib", str(calib), "--out", str(out), *mem, *extra]) == 0
        outs[source] = [p.read_bytes() for p in sorted(tmp_path.glob(f"{source}.*"))]
    assert outs["flag"] == outs["config"]
    if command == "calibrate":
        assert outs["flag"] != outs["default"]


@pytest.mark.parametrize("key", _DIST_OPTIONS)
def test_dist_options_are_not_calibrate_flags(tmp_path, capsys, key):
    argv = ["--model", "m", "--calib", "c", "--out", str(tmp_path / "r.txt"), "--" + key, _OPTION_VALUES[key]]
    assert main(["calibrate", *argv]) == 1
    _one_error_line(capsys, "error: unrecognized arguments: --" + key)


@pytest.mark.parametrize("fraction", ["2", "0", "-0.5", "nan"])
def test_out_of_range_fraction_flag_exits_one(tmp_path, capsys, fraction):
    model = _gen_model(tmp_path)
    calib = _gen_calib(tmp_path)
    for command in ("calibrate", "dist-calibrate"):
        code = main([
            command, "--model", str(model), "--calib", str(calib),
            "--fraction", fraction, "--out", str(tmp_path / "r.txt"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: fraction")
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("content", ['{"fraction": NaN}', '{"fraction": 1.5}', '{"fraction": 0}'])
def test_out_of_range_fraction_config_exits_one(tmp_path, capsys, content):
    model = _gen_model(tmp_path)
    calib = _gen_calib(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code = main([
        "calibrate", "--model", str(model), "--calib", str(calib),
        "--config", str(cfg), "--out", str(tmp_path / "r.txt"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_out_of_range_heatmap_fraction_exits_one(tmp_path, capsys):
    model = _gen_model(tmp_path)
    calib = _gen_calib(tmp_path)
    code = main([
        "heatmap", "--model", str(model), "--calib", str(calib), "--layer", "1",
        "--fraction", "2", "--out-pre", str(tmp_path / "p.csv"), "--out-post", str(tmp_path / "q.csv"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: fraction")


def test_oversized_grid_exits_one_quickly(tmp_path, capsys):
    model = _gen_model(tmp_path, channels=16)
    calib = _gen_calib(tmp_path, batch=2, tokens=4, channels=16)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_step": 1e-7}))
    start = time.perf_counter()
    code = main([
        "calibrate", "--model", str(model), "--calib", str(calib),
        "--config", str(cfg), "--out", str(tmp_path / "r.txt"),
    ])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "points" in capsys.readouterr().err


def test_result_for_another_stack_exits_one(tmp_path, capsys):
    deep = _gen_model(tmp_path, depth=3, name="deep.ckpt")
    wide = _gen_model(tmp_path, depth=2, channels=64, name="wide.ckpt")
    shallow = _gen_model(tmp_path, depth=2, name="shallow.ckpt")
    calib = _gen_calib(tmp_path)
    wide_calib = _gen_calib(tmp_path, channels=64, name="wide.bin")
    for result, layer in (
        (_calibrate(tmp_path, deep, calib, name="deep.txt"), "lin2"),
        (_calibrate(tmp_path, wide, wide_calib, name="wide.txt"), "lin0"),  # scale width 64, not 32
    ):
        for argv, out in (
            (["quantize", "--model", str(shallow), "--result", str(result)], tmp_path / "q"),
            (["eval", "--model", str(shallow), "--result", str(result), "--calib", str(calib)],
             tmp_path / "e.txt"),
        ):
            assert main([*argv, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error:") and layer in err
            assert len(err.splitlines()) == 1
            assert not out.exists()


def test_non_finite_calibration_set_exits_two(tmp_path, capsys):
    model = _gen_model(tmp_path)
    calib = load_calibset(_gen_calib(tmp_path).read_bytes())
    acts = calib.activations.copy()
    acts[2, 5, 7] = np.nan
    bad = tmp_path / "bad.bin"
    bad.write_bytes(save_calibset(CalibrationSet(acts, calib.modality)))
    code = main([
        "calibrate", "--model", str(model), "--calib", str(bad), "--out", str(tmp_path / "r.txt"),
    ])
    assert code == 2
    assert "sample 2, token 5, channel 7" in capsys.readouterr().err


def test_integer_config_value_counts_as_float(tmp_path):
    model = _gen_model(tmp_path)
    calib = _gen_calib(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_start": 0, "grid_stop": 1}))
    from_config = _calibrate(tmp_path, model, calib, name="c.txt", extra=("--config", str(cfg)))
    from_flags = _calibrate(
        tmp_path, model, calib, name="f.txt", extra=("--grid-start", "0", "--grid-stop", "1")
    )
    assert from_config.read_text() == from_flags.read_text()


@pytest.mark.parametrize(
    "old, new",
    [
        ("strategy passact2", "strategy bogus"),
        ("stat_mode topk", "stat_mode bogus"),
        ("bits_w 4", "bits_w four"),
        ("fraction 0.5", "fraction half"),
    ],
)
def test_invalid_result_exits_two(tmp_path, capsys, old, new):
    model = _gen_model(tmp_path)
    calib = _gen_calib(tmp_path)
    result = _calibrate(tmp_path, model, calib)
    text = result.read_text()
    assert old + "\n" in text
    result.write_text(text.replace(old + "\n", new + "\n"))
    for argv in (
        ["quantize", "--model", str(model), "--result", str(result), "--out", str(tmp_path / "q")],
        ["eval", "--model", str(model), "--result", str(result), "--calib", str(calib),
         "--out", str(tmp_path / "e.txt")],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "q").exists()


@pytest.mark.parametrize("how", sorted(BROKEN_RESULTS))
def test_a_result_calibrate_never_writes_exits_two(tmp_path, capsys, how):
    model = _gen_model(tmp_path)
    calib = _gen_calib(tmp_path)
    result = _calibrate(tmp_path, model, calib)
    text, message = broken_result_text(result.read_text(), how)
    result.write_text(text)
    outs = [tmp_path / "q", tmp_path / "e.txt"]
    for argv in (
        ["quantize", "--model", str(model), "--result", str(result), "--out", str(outs[0])],
        ["eval", "--model", str(model), "--result", str(result), "--calib", str(calib), "--out", str(outs[1])],
    ):
        capsys.readouterr()
        assert main(argv) == 2
        _one_error_line(capsys, f"error: {message}")
    assert not any(p.exists() for p in outs)


def test_non_numeric_ratio_exits_two(tmp_path, capsys):
    model = _gen_model(tmp_path)
    calib = _gen_calib(tmp_path)
    result = _calibrate(tmp_path, model, calib)
    lines = result.read_text().splitlines()
    i = next(i for i, l in enumerate(lines) if l.startswith("ratio "))
    lines[i] = "ratio abc"
    result.write_text("\n".join(lines) + "\n")
    code = main(["quantize", "--model", str(model), "--result", str(result), "--out", str(tmp_path / "q")])
    assert code == 2
    assert "ratio" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["calibrate"]) == 1
    assert main(["no-such-command"]) == 1


def test_missing_input_exits_one(tmp_path):
    code = main([
        "calibrate", "--model", str(tmp_path / "nope.ckpt"),
        "--calib", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "r.txt"),
    ])
    assert code == 1


def test_corrupt_model_exits_two(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTAMAGIC" + b"\x00" * 32)
    calib = _gen_calib(tmp_path)
    code = main([
        "calibrate", "--model", str(bad), "--calib", str(calib),
        "--out", str(tmp_path / "r.txt"),
    ])
    assert code == 2


@pytest.mark.parametrize("how", ["non_utf8_name", "nan_eps", "inf_eps"])
def test_corrupt_layer_record_exits_two(tmp_path, capsys, how):
    blob = _gen_model(tmp_path).read_bytes()
    if how == "non_utf8_name":
        # magic | u32 channels | u32 count | u8 kind | u16 name_len | name
        blob = blob[:19] + b"\xff" + blob[20:]
    else:
        eps = load_checkpoint(blob).layers[0].eps
        blob = blob.replace(struct.pack("<d", eps), struct.pack("<d", float(how[:3])), 1)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob)
    calib = _gen_calib(tmp_path)
    code = main([
        "calibrate", "--model", str(bad), "--calib", str(calib), "--out", str(tmp_path / "r.txt"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "r.txt").exists()


def test_non_utf8_result_exits_two(tmp_path, capsys):
    model = _gen_model(tmp_path)
    result = _calibrate(tmp_path, model, _gen_calib(tmp_path))
    result.write_bytes(result.read_bytes().replace(b"lin0", b"lin\xff"))
    code = main(["quantize", "--model", str(model), "--result", str(result), "--out", str(tmp_path / "q")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_presets(tmp_path):
    model = _gen_model(tmp_path)
    calib = _gen_calib(tmp_path)
    tlq_res = result_from_text(
        _calibrate(tmp_path, model, calib, "tlq.txt", ("--preset", "tlq")).read_text()
    )
    assert (tlq_res.strategy, tlq_res.stat_mode) == ("passact2", "topk")

    rtn_res = result_from_text(
        _calibrate(tmp_path, model, calib, "rtn.txt", ("--preset", "rtn")).read_text()
    )
    assert all(row.ratio == 0.0 for row in rtn_res.layers)
    assert all(np.all(row.scale.values == 1.0) for row in rtn_res.layers)

    sq_text = _calibrate(tmp_path, model, calib, "sq.txt", ("--preset", "sq")).read_text()
    assert result_from_text(sq_text).stat_mode == "sqrt"
    origins = [line for line in sq_text.splitlines() if line.startswith("origin ")]
    assert origins == ["origin sqrt_baseline"] * 2


def test_dist_calibrate_supports_presets(tmp_path):
    model = _gen_model(tmp_path)
    calib = _gen_calib(tmp_path)
    single = _calibrate(tmp_path, model, calib, "sq_single.txt", ("--preset", "sq"))
    dist = tmp_path / "sq_dist.txt"
    assert main([
        "dist-calibrate", "--model", str(model), "--calib", str(calib),
        "--preset", "sq", "--bits-w", "4", "--bits-a", "6",
        "--out", str(dist), "--workers", "2",
    ]) == 0
    assert single.read_text() == dist.read_text()


def test_quantize_and_eval_roundtrip(tmp_path, capsys):
    model = _gen_model(tmp_path)
    calib = _gen_calib(tmp_path)
    result = _calibrate(tmp_path, model, calib)
    qfile = tmp_path / "model.quant"
    assert main(["quantize", "--model", str(model), "--result", str(result), "--out", str(qfile)]) == 0
    assert qfile.read_bytes().startswith(b"TLQQNT01")

    report = tmp_path / "eval.txt"
    assert main([
        "eval", "--model", str(model), "--result", str(result),
        "--calib", str(calib), "--out", str(report),
    ]) == 0
    assert report.read_text().startswith("tlq-eval-report v1\n")

    capsys.readouterr()
    no_calib = tmp_path / "no_calib.txt"
    assert main(["eval", "--model", str(model), "--result", str(result), "--out", str(no_calib)]) == 1
    _one_error_line(capsys, "error: the following arguments are required: --calib")
    assert not no_calib.exists()


def test_quantize_keeps_the_scale_of_a_linear_after_an_activation(tmp_path):
    layers = fixtures.build_stack(1, 2, 16).layers
    model = tmp_path / "model.ckpt"  # norm0 -> lin0 -> act0 -> lin1 -> act1
    model.write_bytes(save_checkpoint(LayerStack(layers[:3] + layers[4:], 16)))
    result = _calibrate(tmp_path, model, _gen_calib(tmp_path, batch=2, tokens=4, channels=16))
    qfile = tmp_path / "model.quant"
    assert main(["quantize", "--model", str(model), "--result", str(result), "--out", str(qfile)]) == 0
    lin0, lin1 = (layer for layer in load_quantized(qfile.read_bytes()).layers if layer.name.startswith("lin"))
    assert lin0.input_scale is None  # fused into norm0
    scale = next(row.scale for row in result_from_text(result.read_text()).layers if row.name == "lin1")
    assert np.array_equal(lin1.input_scale, scale.values)


def test_heatmap_command(tmp_path):
    model = _gen_model(tmp_path)
    calib = _gen_calib(tmp_path, tokens=16, extra=("--visual-fraction", "0.8"))
    pre, post = tmp_path / "pre.csv", tmp_path / "post.csv"
    assert main([
        "heatmap", "--model", str(model), "--calib", str(calib), "--layer", "1",
        "--out-pre", str(pre), "--out-post", str(post),
    ]) == 0
    pre_rows = parse_heatmap_csv(pre.read_text())
    post_rows = parse_heatmap_csv(post.read_text())
    assert len(pre_rows) == 16
    assert len(post_rows) == 8
    # exporting twice is byte-identical
    pre2, post2 = tmp_path / "pre2.csv", tmp_path / "post2.csv"
    main([
        "heatmap", "--model", str(model), "--calib", str(calib), "--layer", "1",
        "--out-pre", str(pre2), "--out-post", str(post2),
    ])
    assert pre.read_text() == pre2.read_text()
    assert post.read_text() == post2.read_text()

    assert main([
        "heatmap", "--model", str(model), "--calib", str(calib), "--layer", "42",
        "--out-pre", str(pre), "--out-post", str(post),
    ]) == 1


def test_heatmap_subsample_flags(tmp_path):
    model = _gen_model(tmp_path)
    calib = _gen_calib(tmp_path, tokens=20, extra=("--visual-fraction", "0.5"))
    pre, post = tmp_path / "p.csv", tmp_path / "q.csv"
    assert main([
        "heatmap", "--model", str(model), "--calib", str(calib), "--layer", "1",
        "--max-tokens", "10", "--max-channels", "6", "--seed", "5",
        "--out-pre", str(pre), "--out-post", str(post),
    ]) == 0
    rows = parse_heatmap_csv(pre.read_text())
    assert len(rows) == 10
    assert len(rows[0][3]) == 6


def _one_error_line(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix), err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("timeout, json_value", [("-1", "-1"), ("0", "0"), ("nan", "NaN"), ("inf", "Infinity")])
def test_bad_timeout_exits_one(tmp_path, capsys, source, timeout, json_value):
    model = _gen_model(tmp_path, channels=16)
    calib = _gen_calib(tmp_path, batch=2, tokens=4, channels=16)
    if source == "flag":
        extra = ["--timeout", timeout]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"timeout": {json_value}}}')
        extra = ["--config", str(cfg)]
    out, mem = tmp_path / "r.txt", tmp_path / "mem.txt"
    capsys.readouterr()
    code = main([
        "dist-calibrate", "--model", str(model), "--calib", str(calib),
        "--out", str(out), "--memory-report", str(mem), *extra,
    ])
    assert code == 1
    _one_error_line(capsys, "config error: timeout")
    assert not out.exists() and not mem.exists()


@pytest.mark.parametrize("flags", [("--batch", "0"), ("--batch", "-1"), ("--tokens", "0")])
def test_gen_calib_empty_batch_exits_one(tmp_path, capsys, flags):
    out = tmp_path / "c.bin"
    code = main(["gen-calib", "--seed", "1", "--channels", "16", *flags, "--out", str(out)])
    assert code == 1
    _one_error_line(capsys, "config error: calibration set needs batch and tokens >= 1")
    assert not out.exists()


@pytest.mark.parametrize("b, n", [(0, 4), (2, 0)])
@pytest.mark.parametrize("command", ["calibrate", "dist-calibrate", "heatmap"])
def test_empty_calibration_file_exits_two(tmp_path, capsys, b, n, command):
    model = _gen_model(tmp_path, channels=16)
    calib = tmp_path / "empty.bin"
    calib.write_bytes(b"TLQCAL01" + struct.pack("<III", b, n, 16))
    outs = [tmp_path / "r.csv", tmp_path / "s.csv"]
    if command == "heatmap":
        argv = ["--layer", "1", "--out-pre", str(outs[0]), "--out-post", str(outs[1])]
    else:
        argv = ["--out", str(outs[0])]
    capsys.readouterr()
    assert main([command, "--model", str(model), "--calib", str(calib), *argv]) == 2
    _one_error_line(capsys, "error: ")
    assert not any(p.exists() for p in outs)


@pytest.mark.parametrize("flag", ["--max-tokens", "--max-channels"])
@pytest.mark.parametrize("value", ["-1", "0"])
def test_bad_heatmap_limits_exit_one(tmp_path, capsys, flag, value):
    model = _gen_model(tmp_path)
    calib = _gen_calib(tmp_path)
    pre, post = tmp_path / "p.csv", tmp_path / "q.csv"
    capsys.readouterr()
    code = main([
        "heatmap", "--model", str(model), "--calib", str(calib), "--layer", "1",
        flag, value, "--out-pre", str(pre), "--out-post", str(post),
    ])
    assert code == 1
    _one_error_line(capsys, "config error: max")
    assert not pre.exists() and not post.exists()


@pytest.mark.parametrize("source", ["workers", "overhead_flag", "overhead_config"])
def test_bad_dist_option_exits_one(tmp_path, capsys, source):
    model = _gen_model(tmp_path, channels=16)
    calib = _gen_calib(tmp_path, batch=2, tokens=4, channels=16)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"overhead_coeff": 1.0}')
    extra, prefix = {
        "workers": (["--workers", "4"], "config error: distributed calibration needs 2 or 3 workers"),
        "overhead_flag": (["--overhead-coeff", "1"], "error: unrecognized arguments: --overhead-coeff"),
        "overhead_config": (["--config", str(cfg)], "config error: unknown config key: 'overhead_coeff'"),
    }[source]
    out, mem = tmp_path / "r.txt", tmp_path / "mem.txt"
    capsys.readouterr()
    code = main([
        "dist-calibrate", "--model", str(model), "--calib", str(calib),
        "--out", str(out), "--memory-report", str(mem), *extra,
    ])
    assert code == 1
    _one_error_line(capsys, prefix)
    assert not out.exists() and not mem.exists()


@pytest.mark.parametrize("command, flag", [
    ("gen-model", "--outlier-fraction"), ("gen-model", "--outlier-gain"), ("gen-model", "--visual-weight-gain"),
    ("gen-model", "--act"), ("gen-model", "--eps"), ("gen-calib", "--redundancy"),
])
def test_removed_generator_flags_are_usage_errors(tmp_path, capsys, command, flag):
    out = tmp_path / "fixture.bin"
    code = main([command, "--seed", "1", "--channels", "16", flag, "1", "--out", str(out)])
    assert code == 1
    _one_error_line(capsys, f"error: unrecognized arguments: {flag}")
    assert not out.exists()


def test_an_output_path_that_is_a_directory_exits_two(tmp_path, capsys):
    model = _gen_model(tmp_path, channels=16)
    calib = _gen_calib(tmp_path, batch=2, tokens=4, channels=16)
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert main(["calibrate", "--model", str(model), "--calib", str(calib), "--out", str(out)]) == 2
    _one_error_line(capsys, "io error: [Errno 21] Is a directory")


_OUTPUTS = {  # each command's output flags
    "gen-model": ("--out",), "gen-calib": ("--out",), "calibrate": ("--out",),
    "dist-calibrate": ("--out", "--memory-report"), "quantize": ("--out",), "eval": ("--out",),
    "heatmap": ("--out-pre", "--out-post"),
}


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in _OUTPUTS.items() for f in flags])
def test_a_missing_output_directory_exits_one_and_writes_nothing(tmp_path, capsys, command, flag):
    model = _gen_model(tmp_path, channels=16)
    calib = _gen_calib(tmp_path, batch=2, tokens=4, channels=16)
    inputs = {
        "gen-model": ["--seed", "1", "--channels", "16"], "gen-calib": ["--seed", "1", "--channels", "16"],
        "calibrate": ["--model", str(model), "--calib", str(calib)],
        "quantize": ["--model", str(model), "--result", str(_calibrate(tmp_path, model, calib))],
        "heatmap": ["--model", str(model), "--calib", str(calib), "--layer", "1"],
    }
    inputs["dist-calibrate"] = inputs["calibrate"]
    inputs["eval"] = inputs["quantize"] + ["--calib", str(calib)]
    outs = tmp_path / "outs"
    outs.mkdir()
    missing = tmp_path / "missing" / "out.txt"
    argv = [command, *inputs[command]]
    for f in _OUTPUTS[command]:
        argv += [f, str(missing if f == flag else outs / f.strip("-"))]
    capsys.readouterr()
    assert main(argv) == 1
    _one_error_line(capsys, f"config error: output directory does not exist: {missing.parent}")
    assert not missing.parent.exists() and not any(outs.iterdir())


def test_out_of_memory_exits_two(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(fixtures, "build_stack", out_of_memory)
    out = tmp_path / "m.ckpt"
    code = main(["gen-model", "--seed", "1", "--depth", "1", "--channels", "100000", "--out", str(out)])
    assert code == 2
    _one_error_line(capsys, "error: out of memory: Unable to allocate")
    assert not out.exists()


@pytest.mark.parametrize("brk", ["\n", "\r", "\x85", "\u2028"], ids=repr)
@pytest.mark.parametrize("command", ["calibrate", "dist-calibrate", "heatmap"])
def test_a_layer_name_holding_a_line_break_exits_two(tmp_path, capsys, command, brk):
    """The result file holds one layer name a line, so `calibrate` must not write one that `load_result` refuses."""
    model = tmp_path / "m.ckpt"
    model.write_bytes(checkpoint_with_linear_named(f"lin{brk}0", channels=16))
    calib = _gen_calib(tmp_path, batch=2, tokens=4, channels=16)
    outs = [tmp_path / "r.txt", tmp_path / "s.csv"]
    if command == "heatmap":
        argv = ["--layer", "0", "--out-pre", str(outs[0]), "--out-post", str(outs[1])]
    else:
        argv = ["--out", str(outs[0])]
    capsys.readouterr()
    assert main([command, "--model", str(model), "--calib", str(calib), *argv]) == 2
    _one_error_line(capsys, "error: inconsistent stack: layer names must not hold a line break")
    assert not any(p.exists() for p in outs)
