import math
from fractions import Fraction

import numpy as np
import pytest
from copy_oracles import (
    cells_in_cube,
    face_classes_by_lookup,
    interface_faces_whole_grid,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sobex.distance import distance_transform
from sobex.domain import VoxelDomain, build_domain, interface_faces_doubled
from sobex.dyadic import DyadicCube
from sobex.errors import PreconditionNotMet, UnsupportedExponent
from sobex.extension import select_A0, select_A_prime
from sobex.perimeter import (
    EXTERIOR,
    INTERIOR,
    ON_BOUNDARY,
    VoxelSet,
    boundary_faces,
    density_profile,
    isoperimetric_check,
    jordan_loops,
    perimeter,
    weighted_boundary_integral,
    _centroid_in_open_union,
    _cube_cells,
)
from sobex.whitney import exterior_whitney, whitney_decompose


def half_square_set(dom):
    cen = dom.cell_centers()
    mask = np.broadcast_to(cen[1][None, :] < 0.5, dom.mask.shape)
    return VoxelSet.from_domain(dom, mask & dom.mask)


def test_full_box_surface(unit_square_k6):
    A = VoxelSet.from_domain(unit_square_k6, unit_square_k6.mask)
    assert boundary_faces(A).area() == pytest.approx(4.0)  # 2n with n=2
    dom3 = build_domain("cube", 4, dim=3)
    A3 = VoxelSet.from_domain(dom3, dom3.mask)
    assert boundary_faces(A3).area() == pytest.approx(6.0)


def test_half_square_classification(unit_square_k6):
    A = half_square_set(unit_square_k6)
    faces = boundary_faces(A)
    # interior faces: the segment y = 1/2, total area 1
    assert faces.area(classes=(INTERIOR,)) == pytest.approx(1.0)
    # on-boundary faces cover parts of three box sides (bottom + two halves)
    assert faces.area(classes=(ON_BOUNDARY,)) == pytest.approx(2.0)
    assert faces.area(classes=(EXTERIOR,)) == 0.0
    assert perimeter(A, "omega") == pytest.approx(1.0)
    # rectangle [0,1] x [0,1/2] has total boundary length 3
    assert perimeter(A, "rn") == pytest.approx(3.0)


def test_face_count_matches_neighbor_scan():
    rng = np.random.default_rng(12)
    mask = rng.random((32, 32)) > 0.5
    dom = build_domain("cube", 5, dim=2)
    A = VoxelSet.from_domain(dom, mask)
    faces = boundary_faces(A)
    count = 0
    padded = np.pad(mask, 1)
    for sh in ((1, 0), (0, 1)):
        moved = np.roll(padded, sh, axis=(0, 1))
        count += int(np.sum(padded != moved))
    # each interface counted once per direction pass; roll wraps but the pad
    # ring is empty so wrap contributes nothing
    assert len(faces) == count
    # direct O(N) scan
    scan = 0
    for d in range(2):
        a = np.pad(mask, [(1, 1) if k == d else (0, 0) for k in range(2)])
        lo = tuple(slice(0, -1) if k == d else slice(None) for k in range(2))
        hi = tuple(slice(1, None) if k == d else slice(None) for k in range(2))
        scan += int(np.sum(a[lo] != a[hi]))
    assert len(faces) == scan


@st.composite
def face_masks(draw):
    """(mask, lo_int) in 2D or 3D: random bits in a drawn sub-box (on the
    array edge or off it), a single cell, or an empty or full mask."""
    n = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.integers(1, 12 if n == 2 else 6)) for _ in range(n))
    kind = draw(st.sampled_from(["box", "one cell", "empty", "full"]))
    mask = np.full(shape, kind == "full")
    if kind == "one cell":
        mask[draw(st.tuples(*(st.integers(0, s - 1) for s in shape)))] = True
    elif kind == "box":
        lo = [draw(st.integers(0, s - 1)) for s in shape]
        hi = [draw(st.integers(a + 1, s)) for a, s in zip(lo, shape)]
        size = math.prod(b - a for a, b in zip(lo, hi))
        bits = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        mask[tuple(map(slice, lo, hi))] = np.reshape(
            bits, [b - a for a, b in zip(lo, hi)])
    lo_int = tuple(draw(st.integers(-9, 9)) for _ in range(n))
    return mask, lo_int


@settings(max_examples=40, deadline=None)
@given(face_masks())
@example((np.zeros((5, 4), dtype=bool), (-3, 2)))
@example((np.ones((3, 4, 2), dtype=bool), (-1, -2, 0)))
@example((np.eye(4, dtype=bool), (0, -7)))
@example((np.pad(np.ones((2, 2, 2), dtype=bool), 1), (-5, 3, -2)))
def test_bbox_faces_equal_the_whole_grid_scan(case):
    """Faces cut from the mask's bounding box are the whole grid's, same
    arrays, dtypes and order: empty, full, edge-touching and 3D masks."""
    mask, lo_int = case
    axes, coords = interface_faces_doubled(mask, lo_int)
    want_axes, want_coords = interface_faces_whole_grid(mask, lo_int)
    assert axes.dtype == want_axes.dtype and coords.dtype == want_coords.dtype
    assert coords.shape == want_coords.shape
    assert np.array_equal(axes, want_axes)
    assert np.array_equal(coords, want_coords)


def test_disk_perimeter_anisotropic_limit():
    # the voxel perimeter converges to the l1 perimeter of the disk: 8r
    r = 0.4
    dom = build_domain("ball", 9, r=r)
    A = VoxelSet.from_domain(dom, dom.mask)
    assert perimeter(A, "rn") == pytest.approx(8 * r, rel=0.03)
    dom2 = build_domain("ball", 10, r=r)
    A2 = VoxelSet.from_domain(dom2, dom2.mask)
    assert abs(perimeter(A2, "rn") - 8 * r) <= abs(perimeter(A, "rn") - 8 * r) + 1e-9


def test_ball_region_perimeter(unit_square_k6):
    A = half_square_set(unit_square_k6)
    # ball around the interface midpoint catches interface faces only
    val = perimeter(A, ("ball", (0.5, 0.5), 0.25))
    assert val == pytest.approx(0.5, abs=2 * unit_square_k6.h)


def test_weighted_integral_closed_form():
    # acceptance-grade closed form at K = 10; see test_acceptance for K = 11
    dom = build_domain("cube", 10, dim=2)
    A = half_square_set(dom)
    dist = distance_transform(dom)
    fin, touch = weighted_boundary_integral(A, 1.5, dist, "interior")
    assert fin == pytest.approx(2 * math.sqrt(2), rel=0.05)
    assert touch == pytest.approx(2.0)  # the three clipped box sides


def test_weighted_integral_whitney_cube_interval(square_dec):
    dom = square_dec.domain
    dist = distance_transform(dom)
    n = 2
    p = 1.5
    # a deep cube: every face centroid is between dist(Q) and dist(Q)+diam,
    # and (W3) brackets dist(Q) in [l, 4 sqrt(n) l]
    i = int(np.argwhere(square_dec.levels == 4)[0][0])
    q = square_dec.cubes[i]
    f = 2 ** (dom.K - q.level)
    mask = np.zeros(dom.shape, bool)
    mask[q.index[0] * f:(q.index[0] + 1) * f,
         q.index[1] * f:(q.index[1] + 1) * f] = True
    A = VoxelSet.from_domain(dom, mask)
    fin, _ = weighted_boundary_integral(A, p, dist, "interior")
    ell = float(q.side)
    area = 2 * n * ell ** (n - 1)
    hi = ell ** (1 - p) * area
    lo = ((4 * math.sqrt(n) + math.sqrt(n)) * ell) ** (1 - p) * area
    assert lo <= fin <= hi


def test_weighted_integral_touching_flag(unit_square_k6):
    A = half_square_set(unit_square_k6)
    dist = distance_transform(unit_square_k6)
    _, touch = weighted_boundary_integral(A, 1.5, dist, "interior")
    assert touch > 0  # A's boundary runs along the domain boundary


def test_weighted_integral_monotone_in_p(unit_square_k6):
    dist = distance_transform(unit_square_k6)
    rng = np.random.default_rng(4)
    for _ in range(5):
        mask = rng.random(unit_square_k6.shape) < 0.4
        A = VoxelSet.from_domain(unit_square_k6, mask & unit_square_k6.mask)
        vals = [
            weighted_boundary_integral(A, p, dist, "interior")[0]
            for p in (1.25, 1.5, 1.75)
        ]
        assert vals[0] <= vals[1] <= vals[2]


def test_weighted_integral_rejects_bad_exponent(unit_square_k6):
    A = half_square_set(unit_square_k6)
    dist = distance_transform(unit_square_k6)
    with pytest.raises(UnsupportedExponent):
        weighted_boundary_integral(A, 2.0, dist, "interior")


# -- isoperimetric -----------------------------------------------------------


def test_isoperimetric_equal_cubes(unit_square_k6):
    Q = DyadicCube(2, (0, 0))
    Qp = DyadicCube(2, (1, 0))
    mask = np.zeros(unit_square_k6.shape, bool)
    mask[:16, :16] = True  # A = Q
    A = VoxelSet.from_domain(unit_square_k6, mask)
    ratio = isoperimetric_check(A, ("cube_pair", Q, Qp))
    assert ratio == pytest.approx(1.0)


def test_isoperimetric_tiny_subcube(unit_square_k6):
    Q = DyadicCube(1, (0, 0))
    Qp = DyadicCube(1, (1, 0))
    mask = np.zeros(unit_square_k6.shape, bool)
    mask[8:12, 8:12] = True  # side s = 4h inside Q
    A = VoxelSet.from_domain(unit_square_k6, mask)
    ratio = isoperimetric_check(A, ("cube_pair", Q, Qp))
    assert ratio == pytest.approx(4.0)  # 2n


def test_isoperimetric_preconditions(unit_square_k6):
    A = half_square_set(unit_square_k6)
    with pytest.raises(PreconditionNotMet):
        isoperimetric_check(A, ("cube_pair", DyadicCube(1, (0, 0)),
                                DyadicCube(5, (16, 16))))
    with pytest.raises(PreconditionNotMet):
        isoperimetric_check(A, ("cube_pair", DyadicCube(2, (0, 0)),
                                DyadicCube(2, (2, 0))))


def test_isoperimetric_monte_carlo(unit_square_k6):
    rng = np.random.default_rng(21)
    worst = math.inf
    trials = 0
    for _ in range(500):
        k = int(rng.integers(1, 4))
        jx = int(rng.integers(0, 2**k - 1))
        jy = int(rng.integers(0, 2**k))
        Q = DyadicCube(k, (jx, jy))
        Qp = DyadicCube(k, (jx + 1, jy))
        mask = rng.random(unit_square_k6.shape) < rng.uniform(0.2, 0.8)
        A = VoxelSet.from_domain(unit_square_k6, mask & unit_square_k6.mask)
        ratio = isoperimetric_check(A, ("cube_pair", Q, Qp))
        if math.isfinite(ratio):
            worst = min(worst, ratio)
            trials += 1
    assert trials >= 400
    assert worst > 0  # empirical C(n) floor, reported by the acceptance run


def _cube_pair_by_cell_centres(A, Q, Qp):
    """The cube-pair ratio with |A n U| and |U \\ A| counted over the whole
    grid from the float cell centres (dyadic, so exact): a cell lies in a
    cube iff its centre lies in the open cube."""
    n = A.n
    centres = A.parent.cell_centers()
    union = np.zeros(A.mask.shape, dtype=bool)
    for C in (Q, Qp):
        side = 2.0 ** -C.level
        inside = np.ones(A.mask.shape, dtype=bool)
        for d in range(n):
            lo = C.index[d] * side
            hit = (centres[d] > lo) & (centres[d] < lo + side)
            inside &= hit.reshape(tuple(-1 if a == d else 1 for a in range(n)))
        union |= inside
    inner = float(np.sum(A.mask & union)) * A.h**n
    outer = float(np.sum(~A.mask & union)) * A.h**n
    faces = boundary_faces(A)
    P = float(_centroid_in_open_union(faces.coords, faces.axes, Q, Qp,
                                      A.K).sum()) * faces.face_area
    denom = min(inner, outer) ** (1.0 - 1.0 / n)
    if denom == 0.0:
        return float("nan") if P == 0.0 else float("inf")
    return P / denom


def test_isoperimetric_cube_pair_on_a_margin_grid(ball_k7):
    """Grids not starting at the origin (negative lo_int): exact ratios, and
    random sets and cube pairs, cubes straddling the grid's edge included,
    against a whole-grid count from the cell centres."""
    assert min(ball_k7.lo_int) < 0
    Q, Qp = DyadicCube(3, (3, 3)), DyadicCube(3, (4, 3))
    def cells(C):  # a level-3 cube's 16 x 16 block of K=7 cells
        return tuple(slice(16 * i - o, 16 * i - o + 16)
                     for i, o in zip(C.index, ball_k7.lo_int))
    q = cells(Q)
    mask = np.zeros(ball_k7.shape, bool)
    mask[q] = True  # A = Q
    A = VoxelSet.from_domain(ball_k7, mask)
    assert isoperimetric_check(A, ("cube_pair", Q, Qp)) == pytest.approx(1.0)
    mask[cells(Qp)] = True
    x, y = q[0].start + 6, q[1].start + 6
    mask[x:x + 4, y:y + 4] = False
    A = VoxelSet.from_domain(ball_k7, mask)  # Q u Q' less a 4h square hole
    assert isoperimetric_check(A, ("cube_pair", Q, Qp)) == pytest.approx(4.0)

    rng = np.random.default_rng(29)
    disk = build_domain("ball", 5, r=0.5, margin=Fraction(1, 2))
    for dom in (ball_k7, disk):
        lo = min(dom.lo_int) * dom.h
        hi = lo + dom.shape[0] * dom.h
        for _ in range(40):
            k = int(rng.integers(0, 4))
            j0, j1 = math.floor(lo * 2**k), math.ceil(hi * 2**k)
            jx = int(rng.integers(j0, j1 - 1))
            jy = int(rng.integers(j0, j1))
            Q, Qp = DyadicCube(k, (jx, jy)), DyadicCube(k, (jx + 1, jy))
            mask = rng.random(dom.shape) < rng.uniform(0.2, 0.8)
            A = VoxelSet.from_domain(dom, mask & dom.mask)
            got = isoperimetric_check(A, ("cube_pair", Q, Qp))
            want = _cube_pair_by_cell_centres(A, Q, Qp)
            assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("n, K, margin", [(2, 5, Fraction(1, 2)),
                                           (2, 4, Fraction(3, 2)),
                                           (3, 3, Fraction(1, 4))])
def test_cube_cells_match_the_whole_grid_mask(n, K, margin):
    """The cube-pair check's slices of the grid hold exactly the cells of
    the whole-grid mask, on margin grids (negative lo_int) and for cubes
    inside, across the edge of and off the grid."""
    dom = build_domain("cube", K, dim=n, margin=margin)
    A = VoxelSet.from_domain(dom, dom.mask)
    assert min(dom.lo_int) < 0
    edge = dom.lo_int[0] * dom.h
    for level in range(0, K + 1):
        span = range(math.floor(edge * 2**level) - 1,
                     math.ceil((1 - edge) * 2**level) + 1)
        for i in span:
            Q = DyadicCube(level, (i,) + (0,) * (n - 1))
            got = np.zeros(dom.shape, bool)
            got[_cube_cells(A, Q)] = True
            assert np.array_equal(got, cells_in_cube(A, Q))
    # a unit cube across the grid's low edge
    Q = DyadicCube(0, (math.floor(edge),) + (0,) * (n - 1))
    assert 0 < np.count_nonzero(cells_in_cube(A, Q)) < 2 ** (K * n)
    with pytest.raises(PreconditionNotMet):
        _cube_cells(A, DyadicCube(K + 1, (0,) * n))


def test_isoperimetric_ball_form(ball_k7):
    A = VoxelSet.from_domain(ball_k7, ball_k7.mask.copy())
    cen = ball_k7.cell_centers()
    half = np.broadcast_to(cen[0][:, None] < 0.5, ball_k7.shape)
    A = VoxelSet.from_domain(ball_k7, half & ball_k7.mask)
    ratio = isoperimetric_check(A, ("ball", (0.5, 0.5), 0.25))
    assert math.isfinite(ratio) and ratio > 0


# -- Jordan loops ------------------------------------------------------------


def test_disk_single_loop():
    dom = build_domain("ball", 6, r=0.4)
    A = VoxelSet.from_domain(dom, dom.mask)
    loops = jordan_loops(A)
    assert len(loops) == 1
    assert loops[0].positive
    assert loops[0].length == pytest.approx(perimeter(A, "rn"))


def test_annulus_two_nested_loops(unit_square_k6):
    cen = unit_square_k6.cell_centers()
    x, y = np.meshgrid(cen[0], cen[1], indexing="ij")
    r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2
    ann = (r2 < 0.4**2) & (r2 > 0.2**2)
    A = VoxelSet.from_domain(unit_square_k6, ann)
    loops = jordan_loops(A)
    assert len(loops) == 2
    outer = max(loops, key=lambda l: abs(l.signed_area))
    inner = min(loops, key=lambda l: abs(l.signed_area))
    assert outer.positive and not inner.positive
    outer_idx = next(i for i, l in enumerate(loops) if l is outer)
    assert inner.parent == outer_idx
    assert outer.parent is None


def _ray_parity(loops, px2, py2):
    crossings = 0
    for lp in loops:
        pts = lp._ipath
        x2 = pts[:, 0] * 2
        y2 = pts[:, 1] * 2
        for k in range(len(pts) - 1):
            if x2[k] != x2[k + 1]:
                continue
            ylo, yhi = sorted((y2[k], y2[k + 1]))
            if ylo < py2 < yhi and x2[k] > px2:
                crossings += 1
    return crossings % 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_sets_loops_exhaustive(seed):
    rng = np.random.default_rng(seed)
    dom = build_domain("cube", 6, dim=2)
    mask = rng.random((64, 64)) < 0.5
    A = VoxelSet.from_domain(dom, mask & dom.mask)
    loops = jordan_loops(A)
    total = sum(l.length for l in loops)
    assert total == pytest.approx(perimeter(A, "rn"), abs=1e-12)
    for lp in loops:
        corners = [tuple(v) for v in lp._ipath[:-1]]
        assert len(corners) == len(set(corners))  # simple
    # ray parity: odd from in-cells, even from out-cells
    for _ in range(40):
        i, j = int(rng.integers(64)), int(rng.integers(64))
        parity = _ray_parity(loops, 2 * i + 1, 2 * j + 1)
        assert parity == (1 if mask[i, j] else 0)


def _loop_contains(pts: np.ndarray, px2: int, py2: int) -> bool:
    """Point-in-polygon for a lattice loop; the query point is given in
    doubled coordinates (odd components), so no ray ever hits a vertex."""
    crossings = 0
    x2 = pts[:, 0] * 2
    y2 = pts[:, 1] * 2
    for k in range(len(pts) - 1):
        if x2[k] != x2[k + 1]:
            continue  # horizontal edge, ray is horizontal too
        ylo, yhi = (y2[k], y2[k + 1]) if y2[k] < y2[k + 1] else (y2[k + 1], y2[k])
        if ylo < py2 < yhi and x2[k] > px2:
            crossings += 1
    return crossings % 2 == 1


def _pairwise_parents(loops):
    """O(L^2 m) oracle: the smallest other loop containing each loop's
    representative cell (first edge's midpoint pushed to the enclosed side),
    the first such loop on equal areas."""
    reps = []
    for lp in loops:
        pts = lp._ipath
        a, b = pts[0], pts[1]
        d = (b[0] - a[0], b[1] - a[1])
        enclosed = (-d[1], d[0]) if lp.signed_area > 0 else (d[1], -d[0])
        reps.append((int(a[0] + b[0]) + enclosed[0], int(a[1] + b[1]) + enclosed[1]))
    parents = []
    for i in range(len(loops)):
        best = None
        for j, other in enumerate(loops):
            if i == j:
                continue
            if _loop_contains(other._ipath, reps[i][0], reps[i][1]):
                if best is None or abs(other.signed_area) < abs(loops[best].signed_area):
                    best = j
        parents.append(best)
    return parents


def _assert_parents_match_oracle(mask, lo_int=(0, 0)):
    loops = jordan_loops(VoxelSet(5, lo_int, mask))
    assert [lp.parent for lp in loops] == _pairwise_parents(loops)
    return loops


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(1, 32), ny=st.integers(1, 32),
       density=st.floats(0.1, 0.9), seed=st.integers(0, 2**32 - 1),
       lo=st.tuples(st.integers(-40, 8), st.integers(-40, 8)),
       pad=st.booleans())
def test_nesting_matches_pairwise_oracle(nx, ny, density, seed, lo, pad):
    mask = np.random.default_rng(seed).random((nx, ny)) < density
    if pad:  # keep the set off the bbox; unpadded sets usually touch it
        mask = np.pad(mask, 1)
    _assert_parents_match_oracle(mask, lo)


def _square_ring(n, k):
    """Cells at Chebyshev distance exactly k from the border of an n x n grid."""
    i = np.arange(n)
    depth = np.minimum(np.minimum(i, n - 1 - i)[:, None],
                       np.minimum(i, n - 1 - i)[None, :])
    return depth == k


def test_nesting_fixtures():
    assert jordan_loops(VoxelSet(5, (0, 0), np.zeros((6, 6), bool))) == []
    full = _assert_parents_match_oracle(np.ones((8, 8), bool))
    assert [lp.parent for lp in full] == [None]
    checker = (np.add.outer(np.arange(9), np.arange(9)) % 2).astype(bool)
    loops = _assert_parents_match_oracle(checker)
    assert len(loops) == int(checker.sum())
    assert all(lp.parent is None for lp in loops)
    # three nested rings: six loops, each inside the next larger one
    rings = _square_ring(14, 0) | _square_ring(14, 2) | _square_ring(14, 4)
    loops = _assert_parents_match_oracle(rings)
    by_size = sorted(range(6), key=lambda k: -abs(loops[k].signed_area))
    assert [loops[k].parent for k in by_size] == [None] + by_size[:-1]
    # a ring missing a corner cell touches itself at that corner, which the
    # tracer walks twice (a pinch split); it holds an island with a hole
    pinched = _square_ring(11, 1)
    pinched[9, 9] = False
    island = np.zeros((11, 11), bool)
    island[3:8, 3:8] = _square_ring(5, 0) | _square_ring(5, 2)
    loops = _assert_parents_match_oracle(pinched | island)
    by_size = sorted(range(len(loops)), key=lambda k: -abs(loops[k].signed_area))
    assert len(loops) == 5
    assert [loops[k].parent for k in by_size] == [None] + by_size[:-1]


# -- density profiles --------------------------------------------------------


def test_density_center_and_corner(unit_square_k6):
    A = VoxelSet.from_domain(unit_square_k6, unit_square_k6.mask)
    prof = density_profile(A, (0.5, 0.5), [0.1, 0.2], relative_to="omega")
    assert prof.ratios == [1.0, 1.0]
    prof = density_profile(A, (0.0, 0.0), [0.1, 0.25], relative_to="rn")
    for r in prof.ratios:
        assert r == pytest.approx(0.25, abs=0.02)
    assert all(prof.truncated)


def test_density_flat_boundary_half(unit_square_k6):
    A = VoxelSet.from_domain(unit_square_k6, unit_square_k6.mask)
    h = unit_square_k6.h
    for r in (0.1, 0.2):
        prof = density_profile(A, (0.5, 0.0), [r], relative_to="rn")
        assert abs(prof.ratios[0] - 0.5) <= 2 * h / r


def test_density_radius_guard(unit_square_k6):
    A = VoxelSet.from_domain(unit_square_k6, unit_square_k6.mask)
    with pytest.raises(PreconditionNotMet):
        density_profile(A, (0.5, 0.5), [unit_square_k6.h], relative_to="rn")


def test_boundary_faces_complement_symmetry(unit_square_k6):
    rng = np.random.default_rng(31)
    mask = (rng.random(unit_square_k6.shape) < 0.5) & unit_square_k6.mask
    A = VoxelSet(unit_square_k6.K, unit_square_k6.lo_int, mask)
    B = VoxelSet(unit_square_k6.K, unit_square_k6.lo_int, ~mask)
    def interface_keys(faces, dom):
        lo = np.asarray(dom.lo_int) * 2
        hi = (np.asarray(dom.lo_int) + np.asarray(dom.shape)) * 2
        out = set()
        for a, c in zip(faces.axes, faces.coords):
            if c[a] == lo[a] or c[a] == hi[a]:
                continue  # bbox clipping faces differ between A and ~A
            out.add((int(a), tuple(int(v) for v in c)))
        return out

    fa = interface_keys(boundary_faces(A), unit_square_k6)
    fb = interface_keys(boundary_faces(B), unit_square_k6)
    assert fa == fb


def _classified_sets():
    """(name, set) pairs over A, A', A0 and A~ of random sets and of the
    full domain, on the 2D ball, slit and cusp and the 3D ball."""
    doms = {
        "ball": build_domain("ball", 6, r=0.5, margin=0.5),
        "slit": build_domain("slit_square", 6, margin=0.25),
        "cusp": build_domain("outward_cusp", 6, margin=0.25),
        "ball3": build_domain("ball", 4, dim=3, r=0.5, margin=0.5),
    }
    rng = np.random.default_rng(11)
    for name, dom in doms.items():
        W = whitney_decompose(dom, dom.K)
        We = exterior_whitney(dom, dom.K)
        blocks = rng.random(tuple(-(-s // 4) for s in dom.shape)) < 0.5
        for reps in (1, 4):
            coarse = blocks if reps == 4 else rng.random(dom.shape) < 0.5
            for d in range(dom.n):
                coarse = coarse.repeat(reps, axis=d)
            mask = coarse[tuple(slice(0, s) for s in dom.shape)] & dom.mask
            for kind, A in ((f"random{reps}", VoxelSet.from_domain(dom, mask)),
                            ("full", VoxelSet.from_domain(dom, dom.mask))):
                A_prime, _ = select_A_prime(A, W)
                A0, _, _ = select_A0(A_prime, We)
                A_tilde = VoxelSet.from_domain(dom, A.mask | A0.mask,
                                               require_subset=False)
                for tag, S in (("A", A), ("A'", A_prime), ("A0", A0),
                               ("A~", A_tilde)):
                    yield f"{name} {kind} {tag}", S


def test_face_classes_equal_lattice_lookup():
    """Classes from the two cells beside each face equal those read from
    the lattice grid of the domain's boundary centroids."""
    seen, a0_faces = set(), 0
    for name, S in _classified_sets():
        got = boundary_faces(S).classification
        assert got.dtype == np.int8
        assert np.array_equal(got, face_classes_by_lookup(S)), name
        seen.update(np.unique(got).tolist())
        a0_faces += len(got) if name.endswith("A0") else 0
    assert seen == {INTERIOR, EXTERIOR, ON_BOUNDARY} and a0_faces
