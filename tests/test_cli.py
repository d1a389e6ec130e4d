import hashlib
import json
import os

import pytest

from sobex.cli import main
from sobex.config import ExperimentConfig, RunManifest


def run(args):
    return main(args)


def test_gen_and_whitney_roundtrip(tmp_path):
    out = str(tmp_path)
    assert run(["--out", out, "gen", "--domain", "ball", "--K", "6"]) == 0
    assert os.path.exists(os.path.join(out, "domain.voxd"))
    assert os.path.exists(os.path.join(out, "preview.ppm"))
    assert os.path.exists(os.path.join(out, "manifest.json"))
    code = run(["--out", out, "whitney",
                "--domain-file", os.path.join(out, "domain.voxd"),
                "--L-max", "7"])
    assert code == 0
    assert os.path.exists(os.path.join(out, "cubes.txt"))


def test_gen_guarded_failure_exit_2(tmp_path, capsys):
    code = run(["--out", str(tmp_path), "gen", "--domain", "cantor_tube",
                "--K", "8", "--depth", "2"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_slit_gen_count(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["--out", out, "gen", "--domain", "slit_square",
                "--K", "9", "--slit-len", "0.5"]) == 0
    msg = capsys.readouterr().out
    expected = 4**9 - int(0.5 * 2**9)
    assert f"cells={expected}" in msg


def test_extend_csv_contract_and_determinism(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    for out in (out1, out2):
        assert run(["--out", out, "gen", "--domain", "ball", "--K", "6",
                    "--margin", "2"]) == 0
        assert run(["--out", out, "extend",
                    "--domain-file", os.path.join(out, "domain.voxd"),
                    "--set", "half", "--p", "1.5", "--refine", "0"]) == 0
    csv1 = open(os.path.join(out1, "inequality.csv")).read()
    csv2 = open(os.path.join(out2, "inequality.csv")).read()
    assert csv1 == csv2  # bit-identical reruns
    header = csv1.splitlines()[0]
    assert header == "K,p,rhs,lhs_ext,lhs_int,lhs_touch,ratio,l31,l32,l33"


def test_extend_seed_only_affects_seeded_sets(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    rows = {}
    for out, seed in ((out1, "1"), (out2, "2")):
        assert run(["--out", out, "gen", "--domain", "ball", "--K", "6",
                    "--margin", "2"]) == 0
        dom = os.path.join(out, "domain.voxd")
        assert run(["--out", out, "--seed", seed, "extend",
                    "--domain-file", dom, "--set", "half",
                    "--p", "1.5"]) == 0
        rows[out] = open(os.path.join(out, "inequality.csv")).read()
    # the half set is deterministic: different seeds, identical rows
    assert rows[out1] == rows[out2]


def test_report_empty_dir_exit_2(tmp_path, capsys):
    empty = tmp_path / "void"
    empty.mkdir()
    assert run(["report", "--run", str(empty)]) == 2
    assert "error:" in capsys.readouterr().err


def test_report_summary(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["--out", out, "gen", "--domain", "ball", "--K", "6",
                "--margin", "2"]) == 0
    assert run(["--out", out, "extend",
                "--domain-file", os.path.join(out, "domain.voxd"),
                "--set", "half", "--p", "1.25", "1.5"]) == 0
    capsys.readouterr()
    assert run(["report", "--run", out]) == 0
    msg = capsys.readouterr().out
    assert "ratio: min=" in msg
    assert os.path.exists(os.path.join(out, "summary.txt"))
    assert os.path.exists(os.path.join(out, "summary.svg"))


def test_geodesic_command(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["--out", out, "gen", "--domain", "ball", "--K", "6",
                "--margin", "1"]) == 0
    code = run(["--out", out, "geodesic",
                "--domain-file", os.path.join(out, "domain.voxd"),
                "--p", "1.5", "--src", "0.1", "1.2", "--dst", "0.9", "-0.2"])
    assert code == 0
    assert "cost=" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "geodesic.svg"))


def test_cantor_command(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["--out", out, "cantor", "--depth", "1"]) == 0
    assert "invariants=ok" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "cantor_spec.txt"))


def test_manifest_accumulates_across_commands(tmp_path):
    out = str(tmp_path)
    dom = os.path.join(out, "domain.voxd")
    assert run(["--out", out, "gen", "--domain", "ball", "--K", "6",
                "--margin", "2"]) == 0
    assert run(["--out", out, "whitney", "--domain-file", dom,
                "--L-max", "6"]) == 0
    assert run(["--out", out, "extend", "--domain-file", dom,
                "--p", "1.5"]) == 0
    assert run(["--out", out, "curvescan", "--domain-file", dom,
                "--p", "1.5", "--pairs", "4", "--no-refine"]) == 0
    assert run(["--out", out, "cantor", "--depth", "1"]) == 0
    with open(os.path.join(out, "manifest.json")) as f:
        payload = json.load(f)
    assert {a["path"] for a in payload["artifacts"]} == {
        "domain.voxd", "preview.ppm", "preview.svg", "cubes.txt",
        "whitney.svg", "inequality.csv", "extension.svg", "curvescan.csv",
        "cantor_spec.txt"}
    for a in payload["artifacts"]:
        with open(os.path.join(out, a["path"]), "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == a["sha256"]
    assert "gen" in payload["timings"]


def test_cantor_oversize_depth_exit_2(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "cantor", "--depth", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "cantor_spec.txt").exists()


def test_unknown_args_quietly_error():
    assert run([]) == 2


def test_config_roundtrip_byte_identical():
    cfg = ExperimentConfig(
        generator="slit_square",
        gen_params={"slit_len": 0.5, "margin": 2},
        K=8, refine=1, p_list=[1.25, 1.5, 1.75],
        set_kind="below_slit", pairs=64, seed=3, out_dir="runs/x",
    )
    text = cfg.emit()
    back = ExperimentConfig.parse(text)
    assert back.emit() == text
    assert back == cfg
    assert ExperimentConfig.parse(back.emit()).sha256() == cfg.sha256()


def test_manifest_lists_artifacts(tmp_path):
    man = RunManifest(config_hash="deadbeef")
    f = tmp_path / "x.csv"
    f.write_text("a,b\n1,2\n")
    man.add_file(str(f), root=str(tmp_path))
    with man.time_block("demo"):
        pass
    out = tmp_path / "manifest.json"
    man.save(str(out))
    import json

    payload = json.loads(out.read_text())
    assert payload["artifacts"][0]["path"] == "x.csv"
    assert len(payload["artifacts"][0]["sha256"]) == 64
    assert "demo" in payload["timings"]
