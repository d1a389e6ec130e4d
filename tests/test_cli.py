import hashlib
import json
import os
from fractions import Fraction

import numpy as np
import pytest

import sobex.cli as cli
import sobex.curves
import sobex.distance
from sobex.cantor import CantorTubeSpec
from sobex.cli import main, make_set
from sobex.config import RunManifest
from sobex.distance import distance_transform
from sobex.domain import VoxelDomain, build_domain
from sobex.extension import ExtensionParams, InequalityReport, extend_set
from sobex.whitney import WhitneyDecomposition, exterior_whitney, whitney_decompose


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


@pytest.mark.parametrize("K, reason", [
    ("13", "needs h <= c_1/4"),
    ("14", "build_domain(..., window=)"),
])
def test_gen_cantor_tube_refused_with_one_line(tmp_path, capsys, K, reason):
    # too coarse for the tubes at K=13, over the cell budget from K=14 on
    code = run(["--out", str(tmp_path), "gen", "--domain", "cantor_tube",
                "--K", K])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err
    assert not (tmp_path / "domain.voxd").exists()


@pytest.mark.parametrize("args, reason", [
    (["--domain", "ball", "--K", "-1"], "resolution K must be >= 0, got -1"),
    (["--domain", "cantor_tube", "--K", "-2"], "resolution K must be >= 0"),
    (["--domain", "ball", "--K", "6", "--dim", "4"],
     "only 2D and 3D grids are supported, got dim=4"),
    (["--domain", "cube", "--K", "6", "--dim", "1"], "got dim=1"),
    (["--domain", "slit_square", "--K", "6", "--dim", "3"],
     "slit_square: only 2D grids are supported, got dim=3"),
])
def test_gen_bad_resolution_or_dim_exit_2_before_any_grid(
        tmp_path, capsys, monkeypatch, args, reason):
    import sobex.domain

    def no_grid(*a, **k):
        raise AssertionError("a grid was built")

    for name in ("_margin_bbox", "_bbox_cells", "_grid_centers"):
        monkeypatch.setattr(sobex.domain, name, no_grid)
    assert run(["--out", str(tmp_path), "gen", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err
    assert not (tmp_path / "domain.voxd").exists()


@pytest.mark.parametrize("args, sha256", [
    (["--domain", "cube", "--K", "5"],
     "f0d96a4d0bdb78ab0b905844e34117c770f41d8c792ded1aae4f01f976504a72"),
    (["--domain", "ball", "--K", "6"],
     "36626a555e2fa0472538686ffe71c12794a435bfb7e4d1ae16e1d80ba9244c1a"),
    (["--domain", "ball", "--K", "4", "--dim", "3"],
     "39c44690e916a4ff3bbd353fe23cd6eedaa7310da676a8aefe04f5f639d29267"),
    (["--domain", "slit_square", "--K", "6"],
     "1097b412da7557b9bd829040256d5fe06e8fa519f51512cba80917344e919d99"),
    (["--domain", "outward_cusp", "--K", "6"],
     "5b2716af2677bb2b5edd2cab962bd718a8d5e42283cdab4492e1718ced36a7ab"),
    (["--domain", "snowflake_approx", "--K", "6"],
     "23634d3f5c3a5705ad00ce03a16f0f3ff97e641cbd918aa308a562e9953bf41e"),
])
def test_gen_domain_file_bytes_are_pinned(tmp_path, args, sha256):
    """The VOXD bytes `gen` writes at default flags are pinned: its
    generator line, which every rebuild reads, holds exactly the parameters
    `gen` passes.  cantor_tube, which `gen` refuses at every K, is pinned
    through a saved window in test_domain."""
    assert run(["--out", str(tmp_path), "gen", *args]) == 0
    blob = (tmp_path / "domain.voxd").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == sha256


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


@pytest.mark.parametrize("kind", ["half", "random"])
def test_extend_rows_match_per_cell_extend_set(tmp_path, kind):
    """`extend` shares one geometry across --p; each row must equal a
    separate extend_set call on freshly built objects."""
    out = str(tmp_path)
    ps = (1.25, 1.5, 1.75)
    assert run(["--out", out, "gen", "--domain", "ball", "--K", "5",
                "--margin", "2"]) == 0
    dom_file = os.path.join(out, "domain.voxd")
    assert run(["--out", out, "--seed", "3", "extend", "--domain-file",
                dom_file, "--set", kind, "--refine", "1",
                "--p", *map(str, ps)]) == 0
    spec = VoxelDomain.load(dom_file).name
    expected = [InequalityReport.CSV_HEADER]
    for K in (5, 6):
        for p in ps:
            dom = build_domain(spec, K)
            dist = distance_transform(dom)
            W = whitney_decompose(dom, K)
            We = exterior_whitney(dom, K)
            A = make_set(dom, kind, seed=3)
            res = extend_set(A, W, We, dist, ExtensionParams(p=p))
            expected.append(res.report.csv_row())
    with open(os.path.join(out, "inequality.csv")) as f:
        assert f.read().splitlines() == expected


# inequality.csv of the README-style run below, as the report summed over
# A~'s own faces wrote it
_GOLDEN_CSV_SHA256 = {
    "half": "94a06072dddc38fb73e34e814817d4fe2148ba625eab1b89cfd1c7909db6fda8",
    "random": "fe25f591bbd487362881b525b07231fb6b247b9c94a312b8e1ff0b3225177f99",
}


@pytest.mark.parametrize("kind", sorted(_GOLDEN_CSV_SHA256))
def test_extend_csv_is_byte_identical_to_golden(tmp_path, kind):
    out = str(tmp_path)
    assert run(["--out", out, "gen", "--domain", "ball", "--K", "6",
                "--r", "0.5", "--margin", "2"]) == 0
    assert run(["--out", out, "extend", "--domain-file",
                os.path.join(out, "domain.voxd"), "--set", kind,
                "--p", "1.25", "1.5", "1.75", "--refine", "1"]) == 0
    with open(os.path.join(out, "inequality.csv"), "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == _GOLDEN_CSV_SHA256[kind]


_BALL = ["--domain", "ball", "--K", "6", "--margin", "2"]
_CUSP = ["--domain", "outward_cusp", "--K", "6"]
# curves CSVs of small runs as written when every dense distance read built
# the whole-grid lattice, and (the focused scan) since the focus anchors are
# drawn one per distance band of the ring: (gen args, command args, file,
# sha256)
_GOLDEN_CURVES = {
    "ball curvescan": (
        _BALL, ["curvescan", "--p", "1.25", "1.5", "--pairs", "16"],
        "curvescan.csv",
        "e2dc7449544c8459ee400cc60bcfe2be0a5d0d773fe55403abece684a3fc5564"),
    "ball geodesic": (
        _BALL, ["geodesic", "--p", "1.5", "--src", "0.1", "1.2",
                "--dst", "0.9", "-0.2"],
        "geodesic.csv",
        "2f38d691bfbe9d01be4ac173cbdcaace7410bd777a601604f1feb32737caeaef"),
    "ball interior geodesic": (
        _BALL, ["geodesic", "--p", "1.5", "--src", "0.2", "0.5",
                "--dst", "0.8", "0.6", "--side", "interior"],
        "geodesic.csv",
        "dbe63c4eee27c4812edfdef0b3778fd83e7a0800b70337bf053b6f1b422fd466"),
    "focused cusp curvescan": (
        _CUSP, ["curvescan", "--p", "1.75", "--pairs", "16", "--focus", "0.5",
                "0.5", "--scales", "0.45", "0.225", "0.1125"],
        "curvescan.csv",
        "a44d4079ed4cbedd218204143f2789e234d0da9fb30140d6fbebfdbb5fac806d"),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_CURVES))
def test_curves_csv_is_byte_identical_to_golden(tmp_path, case):
    gen, command, name, digest = _GOLDEN_CURVES[case]
    out = str(tmp_path)
    assert run(["--out", out, "gen", *gen]) == 0
    assert run(["--out", out, command[0], "--domain-file",
                os.path.join(out, "domain.voxd"), *command[1:]]) == 0
    with open(os.path.join(out, name), "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == digest


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


@pytest.mark.parametrize("bad", [
    ["--p", "0.5"], ["--scales", "-0.1"], ["--scales", "nan"],
    ["--pairs", "0"], ["--pairs", "-5"],
], ids=lambda b: " ".join(b))
def test_curvescan_bad_inputs_exit_2(tmp_path, capsys, bad):
    out = str(tmp_path)
    assert run(["--out", out, "gen", "--domain", "ball", "--K", "5"]) == 0
    capsys.readouterr()
    code = run(["--out", out, "curvescan",
                "--domain-file", os.path.join(out, "domain.voxd"),
                "--no-refine"] + bad)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not os.path.exists(os.path.join(out, "curvescan.csv"))


@pytest.mark.parametrize("bad", [["--p", "1.5", "2.5"], ["--refine", "-1"]],
                         ids=lambda b: " ".join(b))
def test_extend_bad_inputs_exit_2_before_any_build(tmp_path, capsys,
                                                   monkeypatch, bad):
    out = str(tmp_path)
    path = os.path.join(out, "domain.voxd")
    build_domain("ball", 6, r=0.5, margin=2).save(path)

    def refuse(*args, **kwargs):
        raise AssertionError("a domain was built")

    monkeypatch.setattr(cli, "build_domain", refuse)
    code = run(["--out", out, "extend", "--domain-file", path] + bad)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(os.listdir(out)) == ["domain.voxd"]


def test_curvescan_refine_of_custom_domain_exit_2(tmp_path, capsys,
                                                 monkeypatch):
    out = str(tmp_path)
    path = os.path.join(out, "square.voxd")
    VoxelDomain(6, (-8, -8), np.pad(np.ones((64, 64), bool), 8)).save(path)

    def refuse(*args, **kwargs):
        raise AssertionError("the scan started")

    monkeypatch.setattr(cli, "curve_condition_scan", refuse)
    code = run(["--out", out, "curvescan", "--domain-file", path,
                "--p", "1.5", "--pairs", "8"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "refine" in err
    assert not os.path.exists(os.path.join(out, "curvescan.csv"))


def test_curvescan_prints_search_telemetry(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["--out", out, "gen", "--domain", "ball", "--K", "5",
                "--margin", "1"]) == 0
    assert run(["--out", out, "curvescan",
                "--domain-file", os.path.join(out, "domain.voxd"),
                "--p", "1.25", "1.5", "--pairs", "8", "--no-refine"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for p in ("1.25", "1.5"):
        tele = [ln for ln in lines if ln.startswith(f"p={p} searches: ")]
        assert len(tele) == 1 and "settled nodes: " in tele[0]


def test_geodesic_records_artifacts(tmp_path):
    out = str(tmp_path)
    assert run(["--out", out, "gen", "--domain", "ball", "--K", "6",
                "--margin", "1"]) == 0
    assert run(["--out", out, "geodesic",
                "--domain-file", os.path.join(out, "domain.voxd"),
                "--p", "1.5", "--src", "0.1", "1.2",
                "--dst", "0.9", "-0.2"]) == 0
    with open(os.path.join(out, "manifest.json")) as f:
        payload = json.load(f)
    assert {a["path"] for a in payload["artifacts"]} == {
        "domain.voxd", "preview.ppm", "preview.svg", "geodesic.csv",
        "geodesic.svg"}
    for a in payload["artifacts"]:
        with open(os.path.join(out, a["path"]), "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == a["sha256"]


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
    assert run(["--out", out, "geodesic", "--domain-file", dom,
                "--p", "1.5", "--src", "0.1", "1.2",
                "--dst", "0.9", "-0.2"]) == 0
    assert run(["--out", out, "cantor", "--depth", "1"]) == 0
    with open(os.path.join(out, "manifest.json")) as f:
        payload = json.load(f)
    assert {a["path"] for a in payload["artifacts"]} == {
        "domain.voxd", "preview.ppm", "preview.svg", "cubes.txt",
        "whitney.svg", "inequality.csv", "extension.svg", "curvescan.csv",
        "geodesic.csv", "geodesic.svg", "cantor_spec.txt"}
    for a in payload["artifacts"]:
        with open(os.path.join(out, a["path"]), "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == a["sha256"]
    # every command is timed and hashes its own arguments
    commands = {"gen", "whitney", "extend", "curvescan", "geodesic", "cantor"}
    assert set(payload["timings"]) == commands
    assert set(payload["config_hash"]) == commands
    assert len(set(payload["config_hash"].values())) == len(commands)


def test_cantor_oversize_depth_exit_2(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "cantor", "--depth", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "cantor_spec.txt").exists()


def test_cantor_failed_write_leaves_no_spec(tmp_path, monkeypatch, capsys):
    real = CantorTubeSpec.text_chunks

    def broken(spec):
        chunks = real(spec)
        yield next(chunks)
        yield next(chunks)
        raise RuntimeError("write cut short")

    monkeypatch.setattr(CantorTubeSpec, "text_chunks", broken)
    assert run(["--out", str(tmp_path), "cantor", "--depth", "1"]) != 0
    assert "write cut short" in capsys.readouterr().err
    assert not (tmp_path / "cantor_spec.txt").exists()
    assert not (tmp_path / "cantor_spec.txt.partial").exists()


def test_unknown_args_quietly_error():
    assert run([]) == 2


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


def _manifest(out):
    with open(os.path.join(out, "manifest.json")) as f:
        return json.load(f)


def test_rerun_records_same_hash(tmp_path):
    out = str(tmp_path)
    args = ["--out", out, "gen", "--domain", "ball", "--K", "5"]
    assert run(args) == 0
    first = _manifest(out)["config_hash"]
    assert run(args) == 0
    assert _manifest(out)["config_hash"] == first
    assert set(first) == {"gen"} and len(first["gen"]) == 64


def test_changed_arguments_change_only_their_command_hash(tmp_path):
    out = str(tmp_path)
    dom = os.path.join(out, "domain.voxd")
    assert run(["--out", out, "gen", "--domain", "ball", "--K", "5"]) == 0
    assert run(["--out", out, "whitney", "--domain-file", dom,
                "--L-max", "5"]) == 0
    seen = [_manifest(out)["config_hash"]]
    for args in (["--domain", "ball", "--K", "6"],
                 ["--domain", "slit_square", "--K", "6"]):
        assert run(["--out", out, "gen", *args]) == 0
        hashes = _manifest(out)["config_hash"]
        assert hashes["whitney"] == seen[0]["whitney"]
        assert all(hashes["gen"] != h["gen"] for h in seen)
        seen.append(hashes)


def test_old_string_config_hash_is_replaced(tmp_path):
    out = str(tmp_path)
    with open(os.path.join(out, "manifest.json"), "w") as f:
        json.dump({"tool_version": "0.1.0", "config_hash": "7030018c",
                   "artifacts": [], "timings": {"gen": 0.003}}, f)
    assert run(["--out", out, "cantor", "--depth", "1"]) == 0
    payload = _manifest(out)
    assert set(payload["config_hash"]) == {"cantor"}
    assert set(payload["timings"]) == {"cantor"}


def test_oversize_distance_lattice_exit_2(tmp_path, capsys, monkeypatch):
    out = str(tmp_path)
    assert run(["--out", out, "gen", "--domain", "ball", "--K", "5"]) == 0
    monkeypatch.setattr(sobex.distance, "EDT_BUDGET_BYTES", 1024)
    capsys.readouterr()
    code = run(["--out", out, "geodesic",
                "--domain-file", os.path.join(out, "domain.voxd"),
                "--p", "1.5", "--src", "0.1", "0.9", "--dst", "0.9", "0.1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: distance lattice") and "budget" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "geodesic.csv").exists()


def test_refused_curvescan_leaves_no_csv(tmp_path, capsys, monkeypatch):
    out = str(tmp_path)
    assert run(["--out", out, "gen", "--domain", "ball", "--K", "5"]) == 0
    monkeypatch.setattr(sobex.distance, "EDT_BUDGET_BYTES", 1024)
    assert run(["--out", out, "curvescan",
                "--domain-file", os.path.join(out, "domain.voxd"),
                "--p", "1.25", "1.5", "--pairs", "4", "--no-refine"]) == 2
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / "curvescan.csv").exists()


def test_extend_builds_no_distance_lattice(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the distance lattice was built")

    monkeypatch.setattr(sobex.distance, "_build_lattice", refuse)
    for dim, K, refine in ((2, 6, "1"), (3, 4, "0")):
        out = str(tmp_path / f"ball{dim}")
        os.mkdir(out)
        assert run(["--out", out, "gen", "--domain", "ball", "--dim", str(dim),
                    "--K", str(K), "--margin", "0.5"]) == 0
        assert run(["--out", out, "extend", "--domain-file",
                    os.path.join(out, "domain.voxd"), "--p", "1.25", "1.75",
                    "--refine", refine]) == 0


def test_whitney_and_extend_read_no_cube_views(tmp_path, monkeypatch):
    """No command path materialises the DyadicCube views."""

    def refuse(self):
        raise AssertionError("a DyadicCube view was read")

    for name in ("cubes", "collar_cubes"):
        monkeypatch.setattr(WhitneyDecomposition, name, property(refuse))
    out = str(tmp_path)
    dom = os.path.join(out, "domain.voxd")
    assert run(["--out", out, "gen", "--domain", "ball", "--K", "6",
                "--margin", "2"]) == 0
    for extra in ([], ["--exterior"]):
        assert run(["--out", out, "whitney", "--domain-file", dom,
                    "--L-max", "7", *extra]) == 0
    assert run(["--out", out, "extend", "--domain-file", dom,
                "--p", "1.5", "--refine", "1"]) == 0


@pytest.mark.parametrize("refine", [True, False])
def test_curvescan_builds_only_the_refined_domain(tmp_path, monkeypatch,
                                                  refine):
    out = str(tmp_path)
    dom = os.path.join(out, "domain.voxd")
    assert run(["--out", out, "gen", "--domain", "ball", "--K", "5",
                "--margin", "1"]) == 0
    built = []

    def counting(spec, K, **params):
        built.append(K)
        return build_domain(spec, K, **params)

    monkeypatch.setattr(cli, "build_domain", counting)
    monkeypatch.setattr(sobex.curves, "build_domain", counting)
    assert run(["--out", out, "curvescan", "--domain-file", dom, "--p", "1.5",
                "--pairs", "4"] + ([] if refine else ["--no-refine"])) == 0
    assert built == ([6] if refine else [])


@pytest.mark.parametrize("dim", [2, 3])
def test_curvescan_csv_cells_are_numbers(tmp_path, dim):
    out = str(tmp_path)
    assert run(["--out", out, "gen", "--domain", "ball", "--dim", str(dim),
                "--K", "5" if dim == 2 else "4", "--margin", "0.5"]) == 0
    assert run(["--out", out, "curvescan",
                "--domain-file", os.path.join(out, "domain.voxd"),
                "--p", "1.5", "--pairs", "4", "--no-refine"]) == 0
    with open(os.path.join(out, "curvescan.csv")) as f:
        header, *rows = f.read().splitlines()
    axes = "xyz"[:dim]
    assert header.split(",") == ["p", "K", "scale"] + [
        f"z{e}{a}" for e in "12" for a in axes] + [
        "separation", "cost", "ratio"]
    assert rows
    for row in rows:
        cells = row.split(",")
        assert len(cells) == 6 + 2 * dim
        for cell in cells:
            float(cell)


def test_extend_on_saved_cantor_window(tmp_path):
    """A saved window domain rebuilds from its generator line, at its own K
    and at K+1."""
    out = str(tmp_path)
    window = ((Fraction(1, 4), Fraction(1, 4), Fraction(3, 4)),
              (Fraction(3, 4), Fraction(3, 4), Fraction(1)))
    dom = build_domain("cantor_tube", 5, depth=1, window=window,
                       allow_coarse=True, margin=Fraction(1, 8))
    path = os.path.join(out, "window.voxd")
    dom.save(path)
    assert run(["--out", out, "extend", "--domain-file", path,
                "--p", "1.5", "--refine", "1"]) == 0
    with open(os.path.join(out, "inequality.csv")) as f:
        rows = f.read().splitlines()
    res = extend_set(make_set(dom, "half"), whitney_decompose(dom, 5),
                     exterior_whitney(dom, 5), distance_transform(dom),
                     ExtensionParams(p=1.5))
    assert rows[1] == res.report.csv_row()
    assert len(rows) == 3 and rows[2].startswith("6,1.5,")
