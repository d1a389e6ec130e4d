import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from copy_oracles import (
    cantor_occupancy_dense,
    check_level_fraction,
    polyline_length,
    seg_seg_dist2,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from memory import traced_peak

from sobex.cantor import (
    CantorTubeSpec,
    _certify,
    build_cantor_tube,
    cantor_occupancy,
)
import sobex.cantor as cantor
from sobex.cli import main
from sobex.domain import build_domain
from sobex.errors import ConstructionError, PreconditionNotMet


@pytest.fixture(scope="module")
def depth1():
    return build_cantor_tube(1)


@pytest.fixture(scope="module")
def depth2():
    return build_cantor_tube(2)


def test_depth1_constants_closed_form(depth1):
    # l_1 = lambda_1 = e^-1 / 2, e_1 = (1 - e^-1)/3, c_0 = e_1/8, c_1 = c_0/64
    assert float(depth1.l[1]) == pytest.approx(0.5 * math.exp(-1), rel=1e-12)
    assert float(depth1.e[1]) == pytest.approx((1 - math.exp(-1)) / 3, rel=1e-12)
    assert float(depth1.c[0]) == pytest.approx((1 - math.exp(-1)) / 24, rel=1e-12)
    assert float(depth1.c[1]) == pytest.approx((1 - math.exp(-1)) / 24 / 64, rel=1e-12)
    # the spec constants recursion in exact arithmetic
    assert depth1.c[0] == depth1.e[1] / 8
    assert depth1.c[1] == depth1.c[0] / 64


def test_depth2_cantor_measure(depth2):
    # |C_2| = (2 lambda_1 * 2 lambda_2)^3 = (e^-1 e^-1/2)^3 = e^-4.5
    val = float(depth2.cantor_measure(2))
    assert val == pytest.approx(math.exp(-4.5), rel=5e-13)
    # exact identity against the construction constants
    assert depth2.cantor_measure(2) == (
        2 * depth2.lambdas[0] * 2 * depth2.lambdas[1]
    ) ** 3


def test_constants_inequalities(depth2):
    for n in (1, 2):
        assert depth2.c[n] <= depth2.e[n] / 8
        assert depth2.c[n] <= depth2.l[n]


def test_curve_lengths_allow_splitting(depth2):
    for n in (1, 2):
        for verts in depth2.curves[n]:
            assert polyline_length(verts) >= 8 * depth2.c[n]


def test_split_rules(depth2):
    for n in (1, 2):
        cn = depth2.c[n]
        for i, pieces in enumerate(depth2.splits[n]):
            assert len(pieces) % 2 == 0  # (P1)
            for piece in pieces:
                ln = polyline_length(piece)
                assert 2 * cn <= ln <= 6 * cn  # (P2)
            for a, b in zip(pieces, pieces[1:]):
                assert a[-1] == b[0]  # (P3)
            assert pieces[0][0] == depth2.anchors_y[n][i]  # (P4)
            assert pieces[-1][-1] == depth2.anchors_x[n][i]


def test_tube_separation_exact(depth2):
    # (L3) with the tube radius accounted: tubes at the same level stay
    # at least c_n apart, i.e. curves stay >= 2 c_n apart
    for n in (1, 2):
        curves = depth2.curves[n]
        bound = (2 * depth2.c[n]) ** 2
        # same-parent pairs exactly; cross-parent pairs via the cube gap
        for pi in range(len(depth2.cubes[n - 1])):
            for a in range(pi * 8, pi * 8 + 8):
                for b in range(a + 1, pi * 8 + 8):
                    best = min(
                        seg_seg_dist2(p0, p1, q0, q1)
                        for p0, p1 in zip(curves[a], curves[a][1:])
                        for q0, q1 in zip(curves[b], curves[b][1:])
                    )
                    assert best >= bound


def test_anchor_offsets(depth2):
    # (L2): exit points sit within c_{n-1}/2 of the parent's top-face center
    for n in (1, 2):
        for i, y in enumerate(depth2.anchors_y[n]):
            if n == 1:
                xp = (Fraction(1, 2), Fraction(1, 2), Fraction(1))
            else:
                xp = depth2.anchors_x[n - 1][i // 8]
            d2 = sum((a - b) ** 2 for a, b in zip(y, xp))
            assert d2 <= (depth2.c[n - 1] / 2) ** 2


def test_lambda_validation():
    with pytest.raises(ConstructionError):
        build_cantor_tube(2, lambda_override=[Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ConstructionError):
        build_cantor_tube(2, lambda_override=[Fraction(1, 3), Fraction(1, 4)])
    with pytest.raises(ConstructionError):
        build_cantor_tube(0)


def test_infeasible_routing_raises():
    # lambda_2 extremely close to 1/2 starves the level-2 streets
    lam1 = Fraction(2, 5)
    eps = Fraction(1, 100000)
    lam2 = Fraction(1, 2) - eps
    with pytest.raises(ConstructionError) as err:
        build_cantor_tube(2, lambda_override=[lam1, lam2])
    assert err.value.level == 2


def test_serialization_roundtrip(depth2):
    text = depth2.to_text()
    back = CantorTubeSpec.from_text(text)
    assert back.to_text() == text
    assert back.lambdas == depth2.lambdas
    assert back.curves[2][17] == depth2.curves[2][17]
    assert back.splits[1][3] == depth2.splits[1][3]


def test_window_voxelization_tubes(depth1):
    # window around the top-face riser cluster at tube-resolving resolution
    K = 14
    w = Fraction(1, 2**8)
    lo = (Fraction(1, 2) - w, Fraction(1, 2) - w, Fraction(1) - w)
    lo_int = tuple(int(v * 2**K) for v in lo)
    shape = (2 * int(w * 2**K), 2 * int(w * 2**K), int(w * 2**K))
    mask = cantor_occupancy(depth1, K, lo_int, shape)
    removed = ~mask
    from scipy import ndimage

    _, ncomp = ndimage.label(removed)
    assert ncomp == 8


# the riser-cluster window of acceptance criterion 10 (test_acceptance.py)
CANTOR_WINDOW = (
    (Fraction(1, 2) - Fraction(1, 256), Fraction(1, 2) - Fraction(1, 256),
     Fraction(1) - Fraction(1, 512)),
    (Fraction(1, 2) + Fraction(1, 256), Fraction(1, 2) + Fraction(1, 256),
     Fraction(1)),
)
_CELL14 = Fraction(1, 2**14)


def _assert_occupancy_equals_dense(dom):
    spec = dom.cantor_spec
    want = cantor_occupancy_dense(spec, dom.K, dom.lo_int, dom.shape)
    assert dom.mask.tobytes() == want.tobytes()


@pytest.mark.parametrize("depth,K,lam", [
    (1, 6, None), (2, 6, None),
    # thin tubes whose centres fall on cell-centre rows: ties at the radius
    (1, 7, [Fraction(1, 16)]), (2, 7, [Fraction(1, 16), Fraction(1, 8)]),
])
def test_full_cube_occupancy_equals_dense_projection(depth, K, lam):
    dom = build_domain("cantor_tube", K, depth=depth, lambda_override=lam,
                       margin=Fraction(1, 16), allow_coarse=True)
    _assert_occupancy_equals_dense(dom)


@pytest.mark.parametrize("window", [
    CANTOR_WINDOW,
    # the same window moved by (5, -3, -7) cells
    tuple(tuple(v + s * _CELL14 for v, s in zip(corner, (5, -3, -7)))
          for corner in CANTOR_WINDOW),
    # a bend of curve (1, 0), from its x run into its y run at z = 1/2
    ((Fraction(127, 256), Fraction(77, 256), Fraction(127, 256)),
     (Fraction(1, 2), Fraction(78, 256), Fraction(1, 2) + Fraction(1, 256))),
], ids=["criterion10", "shifted", "bend"])
def test_window_occupancy_equals_dense_projection(depth1, window):
    dom = build_domain("cantor_tube", 14, depth=1, window=window,
                       cantor_spec=depth1)
    assert not dom.mask.all()
    _assert_occupancy_equals_dense(dom)


def test_window_at_K15_peak_memory(depth1):
    # the tests run on open grids, so no tube holds an (m, 3) point stack
    dom, peak = traced_peak(lambda: build_domain(
        "cantor_tube", 15, depth=1, window=CANTOR_WINDOW, cantor_spec=depth1))
    assert dom.shape == (256, 256, 64)
    assert peak <= 64 * 2**20


# -- the (P1)-(P4) split against a piece-by-piece Fraction walk --------------


def _cut_chain(chain, seglens, cuts):
    pieces = []
    cur = [chain[0]]
    walked = Fraction(0)
    ci = 0
    for (a, b), ln in zip(zip(chain, chain[1:]), seglens):
        seg_start = walked
        walked += ln
        while ci < len(cuts) and cuts[ci] <= walked:
            t = (cuts[ci] - seg_start) / ln
            pt = tuple(p + t * (q - p) for p, q in zip(a, b))
            if pt != cur[-1]:
                cur.append(pt)
            pieces.append(cur)
            cur = [pt]
            ci += 1
        if b != cur[-1]:
            cur.append(b)
    pieces.append(cur)
    return pieces


def _bisect_piece(piece):
    seglens = [
        sum(abs(p - q) for p, q in zip(a, b)) for a, b in zip(piece, piece[1:])
    ]
    half = sum(seglens) / 2
    return _cut_chain(piece, seglens, [half])


def _oracle_splits(spec, n):
    """Greedy cuts every 4c_n from the parent-boundary end, a short tail
    merged, then the first longest piece bisected, in Fraction arithmetic."""
    cn = spec.c[n]
    out = []
    for verts in spec.curves[n]:
        chain = list(reversed(verts))
        seglens = [
            sum(abs(p - q) for p, q in zip(a, b)) for a, b in zip(chain, chain[1:])
        ]
        total = sum(seglens)
        step = 4 * cn
        m = int(total / step)
        rem = total - m * step
        if rem == 0:
            cuts = [step * q for q in range(1, m)]
        elif rem >= 2 * cn:
            cuts = [step * q for q in range(1, m + 1)]
        else:
            cuts = [step * q for q in range(1, m)]  # merge short tail
        pieces = _cut_chain(chain, seglens, cuts)
        if len(pieces) % 2 == 1:
            lens = [polyline_length(p) for p in pieces]
            j = max(range(len(pieces)), key=lambda m: lens[m])
            left, right = _bisect_piece(pieces[j])
            pieces = pieces[:j] + [left, right] + pieces[j + 1:]
        out.append(pieces)
    return out


def _split_branches(spec, n):
    """Which tail and parity rules the level-n curves take."""
    cn = spec.c[n]
    out = set()
    for verts in spec.curves[n]:
        m, rem = divmod(polyline_length(verts), 4 * cn)
        tail = "exact" if rem == 0 else "kept" if rem >= 2 * cn else "merged"
        out.add(tail)
        if (m + (tail == "kept")) % 2 == 1:
            out.add("bisect last" if tail == "merged" else "bisect first")
    return out


# lambda_1 = (N - 1536) / 2N makes the level-1 curve lengths N/2 or N plus an
# integer, in units of c_1, so integer N reach every tail residue
_lambda_n = st.integers(1538, 3800).map(lambda N: Fraction(N - 1536, 2 * N))
_lambda_any = st.fractions(Fraction(1, 100), Fraction(3, 10), max_denominator=10**6)


def test_split_examples_reach_every_branch():
    assert _split_branches(build_cantor_tube(1, [Fraction(35, 1606)]), 1) == {
        "exact", "kept", "merged", "bisect first", "bisect last"}


@settings(max_examples=20, deadline=None)
@given(lam=st.one_of(_lambda_n, _lambda_any))
@example(lam=Fraction(35, 1606))
@example(lam=Fraction(1, 4))
def test_split_matches_fraction_walk_depth1(lam):
    spec = build_cantor_tube(1, lambda_override=[lam])
    assert spec.splits[1] == _oracle_splits(spec, 1)


def test_split_matches_fraction_walk_depth2(depth2):
    for n in (1, 2):
        assert depth2.splits[n] == _oracle_splits(depth2, n)


def test_from_text_refuses_altered_split_record(depth1):
    lines = depth1.to_text().split("\n")
    k = lines.index("split 1 5 3 2") + 1
    v, x, y, z = lines[k].split()
    num, den = map(int, x.split("/"))
    lines[k] = f"{v} {Fraction(num + 1, den)} {y} {z}"
    with pytest.raises(ValueError, match="differ"):
        CantorTubeSpec.from_text("\n".join(lines))


@pytest.mark.parametrize("cut", [
    lambda t: "",
    lambda t: t[:len(t) // 2],
    lambda t: t[:t.index("anchor 1 7 ")],
    lambda t: t.replace("curve 1 2 ", "bend 1 2 "),
    lambda t: t.replace("cube 1 3 ", "cube 9 3 "),
    lambda t: t.replace("curve 1 4 5", "curve 1 4 2"),
    lambda t: t + "split 1 7 99 2\n",
    lambda t: t.replace("\nc 1", "\nc 2", 1),
], ids=["empty", "half", "truncated-curves", "unknown-record",
        "level-out-of-range", "short-chain-count", "extra-split", "constant"])
def test_from_text_refuses_malformed_text(depth1, cut):
    with pytest.raises(ValueError):
        CantorTubeSpec.from_text(cut(depth1.to_text()))


def test_build_holds_no_pieces():
    # the spec keeps the integer schedule; pieces are cut on access
    spec, peak = traced_peak(build_cantor_tube, 2)
    assert peak <= 8 * 2**20
    assert sum(len(p) for lvl in spec.splits for p in lvl) == 362_168


def test_oversize_depth_refused_before_splitting():
    with pytest.raises(PreconditionNotMet, match="55339960 tube pieces"):
        build_cantor_tube(3)


def _oracle_to_text(spec):
    """The CANTOR1 text built as one list of lines for the whole spec, with
    id-keyed token and vertex-line memos over the whole spec."""
    splits = spec.splits
    out = ["CANTOR1", f"depth {spec.depth}"]
    tokens = {}
    vlines = {}

    def f(x):
        t = tokens.get(id(x))
        if t is None:
            t = tokens[id(x)] = f"{x.numerator}/{x.denominator}"
        return t

    def vline(v):
        t = vlines.get(id(v))
        if t is None:
            t = vlines[id(v)] = "v " + " ".join(map(f, v))
        return t

    out.append("lambda " + " ".join(f(x) for x in spec.lambdas))
    out.append("l " + " ".join(f(x) for x in spec.l))
    out.append("e " + " ".join(f(x) for x in spec.e))
    out.append("c " + " ".join(f(x) for x in spec.c))
    for n in range(spec.depth + 1):
        for i, lo in enumerate(spec.cubes[n]):
            out.append(f"cube {n} {i} " + " ".join(f(v) for v in lo))
    for n in range(1, spec.depth + 1):
        for i in range(len(spec.curves[n])):
            ax = spec.anchors_x[n][i]
            ay = spec.anchors_y[n][i]
            out.append(
                f"anchor {n} {i} "
                + " ".join(f(v) for v in ax)
                + " "
                + " ".join(f(v) for v in ay)
            )
            verts = spec.curves[n][i]
            out.append(f"curve {n} {i} {len(verts)}")
            out.extend(map(vline, verts))
            for j, piece in enumerate(splits[n][i]):
                out.append(f"split {n} {i} {j} {len(piece)}")
                out.extend(map(vline, piece))
    return "\n".join(out) + "\n"


def _check_chunks(spec):
    chunks = list(spec.text_chunks())
    assert len(chunks) == 1 + sum(len(spec.curves[n])
                                  for n in range(1, spec.depth + 1))
    assert chunks[0].startswith("CANTOR1\n")
    assert all(c.startswith("anchor ") for c in chunks[1:])
    assert all(c.endswith("\n") for c in chunks)
    return chunks


def test_text_matches_single_list_oracle_depth1(depth1):
    text = depth1.to_text()
    assert text == _oracle_to_text(depth1)
    assert "".join(_check_chunks(depth1)) == text


def test_text_matches_single_list_oracle_depth2(depth2):
    oracle = _oracle_to_text(depth2)
    assert len(oracle) == 119_047_038
    assert depth2.to_text() == oracle
    assert "".join(_check_chunks(depth2)) == oracle


@settings(max_examples=10, deadline=None)
@given(lam=st.one_of(_lambda_n, _lambda_any))
def test_text_matches_single_list_oracle_drawn_lambdas(lam):
    spec = build_cantor_tube(1, lambda_override=[lam])
    assert spec.to_text() == _oracle_to_text(spec)


def test_text_peak_memory_per_byte(depth1):
    # the chunks and their join, not a line list and a second full copy
    text, peak = traced_peak(depth1.to_text)
    assert peak <= 2.8 * len(text)


def test_cli_writes_the_spec_text(depth1, tmp_path):
    assert main(["--out", str(tmp_path), "cantor", "--depth", "1"]) == 0
    spec_file = tmp_path / "cantor_spec.txt"
    assert spec_file.read_bytes() == depth1.to_text().encode()
    assert not (tmp_path / "cantor_spec.txt.partial").exists()


# -- the integer-grid certificates against the Fraction checker --------------


def _oracle_certify(spec):
    for n in range(1, spec.depth + 1):
        check_level_fraction(spec, n)


def test_built_specs_pass_the_fraction_checker(depth1, depth2):
    for spec in (depth1, depth2):
        _oracle_certify(spec)


@settings(max_examples=10, deadline=None)
@given(lam=st.one_of(_lambda_n, _lambda_any))
def test_drawn_lambdas_pass_both_checkers(lam):
    spec = build_cantor_tube(1, lambda_override=[lam])
    _oracle_certify(spec)


def _with(spec, n, i, verts=None, y=None):
    """A copy of spec, uncertified, with curve (n, i) or its exit anchor
    replaced."""
    curves = [list(lvl) for lvl in spec.curves]
    ys = [list(lvl) for lvl in spec.anchors_y]
    if verts is not None:
        curves[n][i] = verts
    if y is not None:
        ys[n][i] = y
    return dataclasses.replace(spec, curves=curves, anchors_y=ys, schedules=[])


def _vertex_outside_parent(spec, n, i):
    v = list(spec.curves[n][i])
    x, y, z = v[-1]
    v[-1] = (x, y, z + spec.c[n])
    return _with(spec, n, i, verts=v), "(L1) curve leaves parent"


def _segment_into_child(spec, n, i):
    v = list(spec.curves[n][i])
    x, y, z = v[0]
    v[0] = (x, y, z - spec.l[n] / 2)
    return _with(spec, n, i, verts=v), "(L1) curve enters child"


def _oblique_segment(spec, n, i):
    v = list(spec.curves[n][i])
    x, y, z = v[1]
    v[1] = (x + spec.c[n], y, z)
    return _with(spec, n, i, verts=v), "segment not axis-parallel"


def _short_segment(spec, n, i):
    v = list(spec.curves[n][i])
    x, y, z = v[0]
    v.insert(1, (x, y, z + spec.c[n] / 2))
    return _with(spec, n, i, verts=v), "(L4) segment shorter than c_n"


def _horizontal_approach(spec, n, i):
    # a run on the child's top face leads into the top-face centre
    v = list(spec.curves[n][i])
    x, y, z = v[0]
    v.insert(0, (x - 2 * spec.c[n], y, z))
    return _with(spec, n, i, verts=v), "(L5) approach not perpendicular"


def _far_exit_anchor(spec, n, i):
    x, y, z = spec.anchors_y[n][i]
    return (_with(spec, n, i, y=(x + spec.c[n - 1], y, z)),
            "(L2) exit anchor too far")


def _lane_beside_sibling(spec, n, i):
    # curve i (the parent's first child) rises c_n/2 beside the right face
    # of the child above it
    v0, v1 = spec.curves[n][i][:2]
    X = spec.cubes[n - 1][i // 8][0] + spec.e[n] + spec.l[n] + spec.c[n] / 2
    ptop = spec.curves[n][i][-1][2]
    v = [v0, v1, (X, v1[1], v1[2]), (X, v1[1], ptop)]
    return _with(spec, n, i, verts=v), "lane too close to sibling cube"


def _lanes_too_close(spec, n, i):
    # curve i + 1 takes the lane c_n from curve i's
    X = spec.curves[n][i][2][0] + spec.c[n]
    v = [p if k < 2 else (X, *p[1:]) for k, p in enumerate(spec.curves[n][i + 1])]
    return (_with(spec, n, i + 1, verts=v),
            f"(L3) curves {i},{i + 1} closer than 2c_n")


@pytest.mark.parametrize("perturb", [
    _vertex_outside_parent, _segment_into_child, _oblique_segment,
    _short_segment, _horizontal_approach, _far_exit_anchor,
    _lane_beside_sibling, _lanes_too_close,
])
@pytest.mark.parametrize("depth,n,i", [(1, 1, 0), (2, 1, 0), (2, 2, 40)])
def test_perturbed_spec_raises_the_fraction_checkers_error(
        depth1, depth2, perturb, depth, n, i):
    spec, msg = perturb(depth1 if depth == 1 else depth2, n, i)
    with pytest.raises(ConstructionError) as want:
        _oracle_certify(spec)
    with pytest.raises(ConstructionError) as got:
        _certify(spec)
    assert msg in str(want.value)
    assert (str(got.value), got.value.level, got.value.cube) == (
        str(want.value), want.value.level, want.value.cube)


def test_starved_streets_raise_the_fraction_checkers_error(monkeypatch):
    # the constants hold (e_2 is 8.1 c_2), but the outer lanes at 7 c_2
    # from the parent's centre pass within c_2 of the sibling cubes
    with monkeypatch.context() as m:
        m.setattr(cantor, "_certify", lambda spec: None)
        spec = build_cantor_tube(2, [Fraction(2, 5), Fraction(1, 2) - Fraction(62, 10**6)])
    with pytest.raises(ConstructionError) as want:
        _oracle_certify(spec)
    with pytest.raises(ConstructionError) as got:
        _certify(spec)
    assert "lane too close to sibling cube at level 2" in str(want.value)
    assert (str(got.value), got.value.level, got.value.cube) == (
        str(want.value), want.value.level, want.value.cube)


def test_level_checks_make_no_fraction_comparison(depth2, monkeypatch):
    """Each level is certified on its integer grid: no Fraction is compared
    inside `_check_level` (the Fraction checker makes about 100k)."""
    count = {"inside": False, "calls": 0}
    check, richcmp, eq = cantor._check_level, Fraction._richcmp, Fraction.__eq__

    def inside(*args):
        count["inside"] = True
        try:
            return check(*args)
        finally:
            count["inside"] = False

    def counted(fn):
        def wrapped(*args):
            count["calls"] += count["inside"]
            return fn(*args)
        return wrapped

    monkeypatch.setattr(cantor, "_check_level", inside)
    monkeypatch.setattr(Fraction, "_richcmp", counted(richcmp))
    monkeypatch.setattr(Fraction, "__eq__", counted(eq))
    spec = dataclasses.replace(depth2, schedules=[])
    _certify(spec)
    assert count == {"inside": False, "calls": 0}
    assert spec.schedules == depth2.schedules
