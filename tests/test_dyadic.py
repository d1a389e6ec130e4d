from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobex.dyadic import DyadicCube, box_box_dist2_int, box_point_d2


def test_side_and_corners_exact():
    q = DyadicCube(3, (5, -2))
    assert q.side == Fraction(1, 8)
    assert q.corner_lo() == (Fraction(5, 8), Fraction(-1, 4))
    assert q.corner_hi() == (Fraction(3, 4), Fraction(-1, 8))
    assert q.center() == (Fraction(11, 16), Fraction(-3, 16))


def test_same_level_distinct_indices_disjoint():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(0, 6))
        a = DyadicCube(k, tuple(int(v) for v in rng.integers(-4, 4, 2)))
        b = DyadicCube(k, tuple(int(v) for v in rng.integers(-4, 4, 2)))
        if a.index == b.index:
            continue
        lo_a, hi_a = a.bounds_int(k)
        lo_b, hi_b = b.bounds_int(k)
        overlap = all(
            min(ha, hb) - max(la, lb) > 0
            for la, ha, lb, hb in zip(lo_a, hi_a, lo_b, hi_b)
        )
        assert not overlap


def test_children_partition_parent():
    q = DyadicCube(2, (1, 3))
    kids = q.children()
    assert len(kids) == 4
    assert all(q.contains_cube(c) for c in kids)
    assert all(c.parent() == q for c in kids)
    # total volume matches
    assert sum(c.side**2 for c in kids) == q.side**2


def test_face_adjacency():
    a = DyadicCube(2, (0, 0))
    assert a.face_adjacent(DyadicCube(2, (1, 0)))
    assert not a.face_adjacent(DyadicCube(2, (1, 1)))  # corner touch only
    assert not a.face_adjacent(DyadicCube(2, (2, 0)))
    # smaller neighbor sharing part of a face
    assert a.face_adjacent(DyadicCube(3, (2, 0)))
    assert a.face_adjacent(DyadicCube(3, (2, 1)))
    assert not a.face_adjacent(DyadicCube(3, (2, 2)))


def test_containment_predicates_exact():
    q = DyadicCube(1, (0, 0))
    assert q.contains_point((Fraction(1, 2), Fraction(1, 2)))
    assert not q.contains_point((Fraction(1, 2), Fraction(1, 2)), strict=True)
    assert q.contains_point((Fraction(1, 4), Fraction(1, 4)), strict=True)


def test_dilate_exact_rational():
    q = DyadicCube(2, (1, 1))
    lo, hi = q.dilate(Fraction(3))
    assert lo == (Fraction(0), Fraction(0))
    assert hi == (Fraction(3, 4), Fraction(3, 4))


def test_box_distances_integer():
    assert box_box_dist2_int((0, 0), (1, 1), (3, 4), (5, 6)) == 4 + 9


def test_invalid_inputs():
    with pytest.raises(ValueError):
        DyadicCube(-1, (0, 0))
    with pytest.raises(ValueError):
        DyadicCube(0, (0,))


_coord = st.integers(-2**20, 2**20)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.lists(
    st.tuples(st.tuples(_coord, st.integers(0, 2**12)), _coord),
    min_size=n, max_size=n)))
def test_box_point_d2_equals_box_box_on_point_boxes(axes):
    """Per axis (box start, box length) and a point coordinate; one point
    and a batch of rows both read box_box_dist2_int with degenerate point
    boxes."""
    lo = [a for (a, _), _ in axes]
    hi = [a + ell for (a, ell), _ in axes]
    x = [p for _, p in axes]
    want = box_box_dist2_int(lo, hi, x, x)
    assert box_point_d2(lo, hi, x) == want
    rows = [np.array([v, v - 1, v + 7], dtype=np.int64) for v in x]
    got = box_point_d2([np.int64(v) for v in lo], [np.int64(v) for v in hi],
                       rows)
    assert got.dtype == np.int64
    for j in range(3):
        pt = [int(r[j]) for r in rows]
        assert got[j] == box_box_dist2_int(lo, hi, pt, pt)
