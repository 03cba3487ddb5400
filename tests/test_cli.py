import json
import struct
import time

import numpy as np
import pytest

from tlq.calibration import result_from_text
from tlq.cli import main
from tlq.model import CalibrationSet, load_calibset, load_checkpoint, save_calibset
from tlq.report import parse_heatmap_csv


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


@pytest.mark.parametrize("how", ["non_utf8_name", "nan_eps"])
def test_corrupt_layer_record_exits_two(tmp_path, capsys, how):
    blob = _gen_model(tmp_path).read_bytes()
    if how == "non_utf8_name":
        # magic | u32 channels | u32 count | u8 kind | u16 name_len | name
        blob = blob[:19] + b"\xff" + blob[20:]
    else:
        eps = load_checkpoint(blob).layers[0].eps
        blob = blob.replace(struct.pack("<d", eps), struct.pack("<d", float("nan")), 1)
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

    sq_res = result_from_text(
        _calibrate(tmp_path, model, calib, "sq.txt", ("--preset", "sq")).read_text()
    )
    assert all(row.scale.origin == "sqrt_baseline" for row in sq_res.layers)


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


def test_quantize_and_eval_roundtrip(tmp_path):
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

    fresh = tmp_path / "eval_fresh.txt"
    assert main([
        "eval", "--model", str(model), "--result", str(result),
        "--fresh-seed", "99", "--batch", "3", "--tokens", "8", "--out", str(fresh),
    ]) == 0
    assert fresh.read_text().startswith("tlq-eval-report v1\n")

    both = main([
        "eval", "--model", str(model), "--result", str(result),
        "--calib", str(calib), "--fresh-seed", "1", "--out", str(tmp_path / "x.txt"),
    ])
    assert both == 1


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
