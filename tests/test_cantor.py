import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sobex.cantor import (
    CantorTubeSpec,
    build_cantor_tube,
    cantor_occupancy,
    polyline_length,
    seg_seg_dist2,
)
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


def test_from_text_shares_parsed_vertices(depth1):
    back = CantorTubeSpec.from_text(depth1.to_text())
    assert back.splits == depth1.splits
    pieces = back.splits[1][5]
    assert all(p[-1] is q[0] for p, q in zip(pieces, pieces[1:]))


def test_oversize_depth_refused_before_splitting():
    with pytest.raises(PreconditionNotMet, match="55339960 tube pieces"):
        build_cantor_tube(3)
