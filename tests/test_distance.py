import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from distance_oracle import brute_force_d2, brute_force_d2_doubled, \
    cell_d2, cell_values, reference_field
from hypothesis import given, settings
from hypothesis import strategies as st
from memory import traced_peak

import sobex.distance as distance
from sobex.distance import (
    DistanceField,
    _peak_bytes_per_node,
    _window,
    distance_transform,
)
from sobex.domain import EXTERIOR, INTERIOR, VoxelDomain, build_domain
from sobex.errors import PreconditionNotMet
from sobex.perimeter import VoxelSet, boundary_faces


def test_unit_square_center_value():
    dom = build_domain("cube", 6, dim=2)
    df = distance_transform(dom)
    v = cell_values(df)
    center = v[31:33, 31:33]
    assert np.all(np.abs(center - 0.5) <= dom.h)


def test_ball_center_value():
    dom = build_domain("ball", 6, r=0.5)
    df = distance_transform(dom)
    i = 32
    assert abs(cell_values(df)[i, i] - 0.5) <= 2 * dom.h


@pytest.mark.parametrize("seed", range(10))
def test_matches_brute_force_exactly(seed):
    rng = np.random.default_rng(seed)
    if seed < 6:
        mask = rng.random((64, 64)) > 0.5
        K = 6
    else:
        mask = rng.random((16, 16, 16)) > 0.5
        K = 4
    if not mask.any():
        mask[0, 0] = True
    dom = VoxelDomain(K, (0,) * mask.ndim, mask)
    df = distance_transform(dom)
    assert np.array_equal(cell_d2(df), brute_force_d2(dom))


def test_lipschitz_across_neighbors():
    dom = build_domain("snowflake_approx", 7, iterations=2)
    v = cell_values(distance_transform(dom))
    n = dom.n
    tol = 1e-12
    for d in range(n):
        lo = tuple(slice(0, -1) if a == d else slice(None) for a in range(n))
        hi = tuple(slice(1, None) if a == d else slice(None) for a in range(n))
        assert np.all(np.abs(v[lo] - v[hi]) <= dom.h * np.sqrt(n) + tol)


def test_positive_at_cell_centers():
    dom = build_domain("ball", 6, r=0.5, margin=0.5)
    df = distance_transform(dom)
    # cell centers are never face centroids, so the minimum is h/2
    assert cell_d2(df).min() == 1


def test_face_centroid_lookup():
    dom = build_domain("cube", 5, dim=2)
    df = distance_transform(dom)
    _, coords = dom.boundary_faces_doubled()
    assert np.all(df.d2_at_doubled(coords) == 0)


def _cantor_window():
    w = Fraction(1, 2**8)
    window = ((Fraction(1, 2) - w, Fraction(1, 2) - w, Fraction(1) - w / 2),
              (Fraction(1, 2) + w, Fraction(1, 2) + w, Fraction(1)))
    return build_domain("cantor_tube", 14, depth=1, window=window)


REFERENCE_DOMAINS = {
    "ball": lambda: build_domain("ball", 8, r=0.5, margin=0.5),
    "slit_square": lambda: build_domain("slit_square", 8, margin=0.25),
    "outward_cusp": lambda: build_domain("outward_cusp", 8, margin=0.25),
    "snowflake": lambda: build_domain("snowflake_approx", 7, iterations=3,
                                      margin=0.25),
    "cantor_window": _cantor_window,
    "ball3": lambda: build_domain("ball", 5, dim=3, r=0.5, margin=0.5),
    "cube3": lambda: build_domain("cube", 5, dim=3, margin=0.25),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_DOMAINS))
def test_field_equals_int64_reference(name):
    dom = REFERENCE_DOMAINS[name]()
    assert name == "cantor_window" or min(dom.lo_int) < 0
    field = distance_transform(dom)
    assert field.d2_doubled.dtype == np.int32
    d2_ref, feature_ref = reference_field(dom)
    assert feature_ref.max() < 2**15
    assert np.array_equal(field.d2_doubled, d2_ref)


def _assert_nodes_exact(dom, field):
    """Every lattice node's d2 is the brute-force minimum, and its reference
    feature names a boundary centroid at exactly that squared distance."""
    d2 = field.d2_doubled
    assert np.array_equal(d2, brute_force_d2_doubled(dom))
    feature = reference_field(dom)[1].astype(np.int64)
    _, coords = dom.boundary_faces_doubled()
    faces = np.ravel_multi_index(
        tuple((coords - 2 * np.asarray(dom.lo_int)).T), d2.shape)
    assert np.isin(np.ravel_multi_index(tuple(feature), d2.shape), faces).all()
    gap2 = sum((np.arange(s).reshape(tuple(-1 if a == d else 1
                                           for a in range(dom.n)))
                - feature[d]) ** 2 for d, s in enumerate(d2.shape))
    assert np.array_equal(gap2, d2)


@st.composite
def random_domains(draw):
    n = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.integers(1, 14 if n == 2 else 6)) for _ in range(n))
    bits = draw(st.lists(st.booleans(), min_size=math.prod(shape),
                         max_size=math.prod(shape)))
    mask = np.array(bits, dtype=bool).reshape(shape)
    if not mask.any():
        mask.flat[0] = True
    lo_int = tuple(draw(st.integers(-9, 9)) for _ in range(n))
    return VoxelDomain(draw(st.integers(0, 6)), lo_int, mask)


@settings(max_examples=60, deadline=None)
@given(random_domains())
def test_every_node_matches_brute_force(dom):
    _assert_nodes_exact(dom, distance_transform(dom))


@settings(max_examples=60, deadline=None)
@given(random_domains(), st.data())
def test_tree_reads_match_brute_force(dom, data):
    """Sparse reads equal the brute-force minimum at every boundary centroid
    and at random lattice nodes, and build no lattice."""
    field = distance_transform(dom)
    ref = brute_force_d2_doubled(dom)
    lo2 = 2 * np.asarray(dom.lo_int, dtype=np.int64)
    nodes = data.draw(st.lists(st.tuples(*(st.integers(0, s - 1)
                                           for s in ref.shape)),
                               min_size=1, max_size=40))
    _, coords = dom.boundary_faces_doubled()
    pts = np.concatenate([coords, np.array(nodes) + lo2])
    assert np.array_equal(field.d2_at_doubled(pts), ref[tuple((pts - lo2).T)])
    assert not field._lattices


@st.composite
def sided_domains(draw):
    """random_domains, or one whose domain or complement is a single cell."""
    dom = draw(random_domains())
    kind = draw(st.sampled_from(["random", "one cell in", "one cell out"]))
    if kind == "random" or (kind == "one cell out" and dom.mask.size == 1):
        return dom
    mask = np.full(dom.shape, kind == "one cell out")
    mask[draw(st.tuples(*(st.integers(0, s - 1) for s in dom.shape)))] = \
        kind == "one cell in"
    return VoxelDomain(dom.K, dom.lo_int, mask)


@settings(max_examples=80, deadline=None)
@given(sided_domains(), st.data())
def test_side_reads_match_brute_force(dom, data):
    """Each side's window read equals the brute-force minimum at all its
    cells and at drawn ones, sides at the array edge and one-cell sides
    included, and each lattice spans only its side's window."""
    field = distance_transform(dom)
    ref = brute_force_d2(dom)
    sides = [s for s in (dom.mask, ~dom.mask) if s.any()]
    for side in sides:
        got = field.side_d2(side)
        assert got.dtype == np.int32
        assert np.array_equal(got, ref[side])
        cells = np.argwhere(side)
        pick = cells[data.draw(st.lists(st.integers(0, len(cells) - 1),
                                        min_size=1, max_size=20))]
        assert np.array_equal(field.side_d2(side, tuple(pick.T)),
                              ref[tuple(pick.T)])
    assert set(field._lattices) == {_window(s) for s in sides}
    assert np.array_equal(cell_d2(field), ref)


def _fresh_field(dom):
    return DistanceField(dom.K, dom.lo_int, dom.shape,
                         dom.boundary_faces_doubled()[1])


def _recording_builds(mp):
    """Patch `_build_lattice` to record the shape of every lattice built
    (not of those it refuses)."""
    shapes = []
    build = distance._build_lattice

    def recording(lo_int, shape, coords):
        lattice = build(lo_int, shape, coords)
        shapes.append(tuple(shape))
        return lattice

    mp.setattr(distance, "_build_lattice", recording)
    return shapes


@settings(max_examples=60, deadline=None)
@given(sided_domains(), st.data())
def test_face_reads_match_brute_force(dom, data):
    """Each side's face reads equal the brute-force minimum at the centroids
    of the set's faces of that side's class, with the lattice rule forced
    each way: a set straddling the boundary or a single cell, on domains at
    the array edge and one-cell sides included.  The forced lattice is that
    side's window, dropped after the read; the forced tree builds none."""
    grid = np.array(data.draw(st.lists(st.booleans(), min_size=dom.mask.size,
                                       max_size=dom.mask.size)), dtype=bool)
    if data.draw(st.booleans()):
        grid[:] = False
        grid[data.draw(st.integers(0, dom.mask.size - 1))] = True
    A = VoxelSet.from_domain(dom, grid.reshape(dom.shape),
                             require_subset=False)
    faces = boundary_faces(A)
    ref = brute_force_d2_doubled(dom)
    lo2 = 2 * np.asarray(dom.lo_int, dtype=np.int64)
    for dense in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distance, "_dense_enough", lambda *args: dense)
            shapes = _recording_builds(mp)
            field = _fresh_field(dom)
            for side, code in ((dom.mask, INTERIOR), (~dom.mask, EXTERIOR)):
                pts = faces.coords[faces.classification == code]
                got = field.d2_at_faces(faces, side)
                assert got.dtype == np.int64
                assert np.array_equal(got, ref[tuple((pts - lo2).T)])
                assert field.d2_at_faces(faces, side) is got
                if dense and len(pts):
                    lo, hi = _window(side)
                    assert shapes.pop() == tuple(np.subtract(hi, lo).tolist())
            assert shapes == [] and not field._lattices


def test_face_read_over_budget_goes_to_the_tree(monkeypatch):
    """A dense face read whose window lattice is over the budget reads the
    tree instead, to the same d2, allocating no lattice; at the budget
    exactly it builds the window."""
    dom = build_domain("ball", 6, r=0.5, margin=0.5)
    rng = np.random.default_rng(3)
    faces = boundary_faces(VoxelSet.from_domain(
        dom, (rng.random(dom.shape) < 0.5) & dom.mask))
    lo, hi = _window(dom.mask)
    need = math.prod(2 * (b - a) + 1 for a, b in zip(lo, hi)) \
        * _peak_bytes_per_node(2)
    pts = faces.coords[faces.classification == INTERIOR]
    ref = brute_force_d2_doubled(dom)[
        tuple((pts - 2 * np.asarray(dom.lo_int)).T)]
    shapes = _recording_builds(monkeypatch)
    monkeypatch.setattr(distance, "EDT_BUDGET_BYTES", need)
    assert np.array_equal(_fresh_field(dom).d2_at_faces(faces, dom.mask), ref)
    assert shapes == [tuple(np.subtract(hi, lo).tolist())]
    monkeypatch.setattr(distance, "EDT_BUDGET_BYTES", need - 1)
    _refuse_scipy(monkeypatch)
    assert np.array_equal(_fresh_field(dom).d2_at_faces(faces, dom.mask), ref)
    assert len(shapes) == 1


@pytest.mark.parametrize("args", [
    ("ball", 8, dict(r=0.5, margin=0.5)),
    ("ball", 5, dict(dim=3, r=0.5, margin=0.5)),
])
def test_dense_face_read_peak_memory(args):
    """A dense face read peaks within the lattice build's per-node model
    over its window, plus arrays of the faces and centroids it reads."""
    dom = build_domain(args[0], args[1], **args[2])
    rng = np.random.default_rng(7)
    faces = boundary_faces(VoxelSet.from_domain(
        dom, (rng.random(dom.shape) < 0.5) & dom.mask))
    field = _fresh_field(dom)
    lo, hi = _window(dom.mask)
    nodes = math.prod(2 * (b - a) + 1 for a, b in zip(lo, hi))
    reads = int((faces.classification == INTERIOR).sum())
    assert distance._dense_enough(nodes, reads, dom.n)
    d2, peak = traced_peak(field.d2_at_faces, faces, dom.mask)
    assert len(d2) == reads and not field._lattices
    # per face or centroid: its coordinates, their offsets, a mask and d2
    extra = (2 * 8 * dom.n + 16) * (len(faces) + len(field.coords))
    assert peak <= _peak_bytes_per_node(dom.n) * nodes + extra


@pytest.mark.parametrize("make", [
    lambda: build_domain("outward_cusp", 7, alpha=2.0, margin=0),
    lambda: build_domain("ball", 5, dim=3, r=0.5, margin=0.5),
])
def test_side_windows_keep_only_their_cell_centres(make):
    """After both sides' reads, each kept lattice is its window's cell
    centres: the window's cell shape, 4 B per cell, owning its buffer.  The
    whole doubled lattice is kept apart, even from a window that spans the
    grid (the ball's complement)."""
    dom = make()
    field = distance_transform(dom)
    sides = (dom.mask, ~dom.mask)
    for side in sides:
        field.side_d2(side)
    windows = {_window(s) for s in sides}
    assert set(field._lattices) == windows
    assert ((0,) * dom.n, dom.shape) in windows or dom.n == 2
    whole = field.d2_doubled
    assert whole.shape == tuple(2 * s + 1 for s in dom.shape)
    for lo, hi in windows:
        kept = field._lattices[lo, hi]
        assert kept.shape == tuple(b - a for a, b in zip(lo, hi))
        assert kept.dtype == np.int32 and kept.base is None
        assert kept.nbytes == 4 * math.prod(kept.shape)
        cells = whole[(slice(1, None, 2),) * dom.n][tuple(map(slice, lo, hi))]
        assert np.array_equal(kept, cells)


def test_side_read_refuses_cells_off_the_side():
    dom = build_domain("outward_cusp", 6)
    field = distance_transform(dom)
    inside = tuple(np.argwhere(dom.mask)[:3].T)
    with pytest.raises(ValueError, match="off the side"):
        field.side_d2(~dom.mask, inside)


def test_budget_applies_to_each_window(monkeypatch):
    # margin 0: the complement is the spike, a window of part of the grid
    dom = build_domain("outward_cusp", 6)
    side = ~dom.mask
    lo, hi = _window(side)
    nodes = math.prod(2 * (b - a) + 1 for a, b in zip(lo, hi))
    assert nodes < math.prod(2 * s + 1 for s in dom.shape)
    need = nodes * _peak_bytes_per_node(2)
    monkeypatch.setattr(distance, "EDT_BUDGET_BYTES", need)
    field = distance_transform(dom)
    assert np.array_equal(field.side_d2(side), brute_force_d2(dom)[side])
    _refuse_scipy(monkeypatch)
    with pytest.raises(PreconditionNotMet, match="budget"):
        field.d2_doubled
    monkeypatch.setattr(distance, "EDT_BUDGET_BYTES", need - 1)
    fresh = distance_transform(VoxelDomain(6, dom.lo_int, dom.mask))
    with pytest.raises(PreconditionNotMet, match="budget"):
        fresh.side_d2(side)
    assert not fresh._lattices


def test_grid_too_long_for_float64_refused(monkeypatch):
    dom = build_domain("ball", 5, r=0.5)
    # the doubled lattice is 65 x 65: squared extent 2 * 64^2
    monkeypatch.setattr(distance, "EXACT_FLOAT_BOUND", 2 * 64**2 + 1)
    assert distance_transform(VoxelDomain(5, dom.lo_int, dom.mask)) is not None
    monkeypatch.setattr(distance, "EXACT_FLOAT_BOUND", 2 * 64**2)
    with pytest.raises(PreconditionNotMet, match="float64"):
        distance_transform(dom)
    assert dom._dist is None


def test_field_holds_no_reference_to_its_domain():
    # a dom -> field -> dom cycle would outlive `del` without the collector
    gc.disable()
    try:
        dom = build_domain("ball", 5, r=0.5, margin=0.5)
        distance_transform(dom).d2_at_doubled(dom.boundary_faces_doubled()[1])
        ref = weakref.ref(dom)
        del dom
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("cells, dtype", [(16383, np.int16),
                                          (16384, np.int32),
                                          (16400, np.int32)])
def test_feature_dtype_follows_the_longest_axis(cells, dtype):
    # two blocks at the far ends, so far-end features pass 2^15 - 1
    mask = np.zeros((cells, 2), dtype=bool)
    mask[:2] = mask[-2:] = True
    dom = VoxelDomain(4, (-3, 5), mask)
    field = distance_transform(dom)
    feature = reference_field(dom)[1]
    # the features fit int16 exactly while every lattice axis is short
    assert (feature.max() <= np.iinfo(np.int16).max) == (dtype == np.int16)
    assert field.d2_doubled.dtype == np.int32
    _assert_nodes_exact(dom, field)
    assert int(feature[0].max()) == 2 * cells


@pytest.mark.parametrize("args, bound", [
    (("ball", 8, dict(r=0.5, margin=0.5)), 17),
    (("ball", 5, dict(dim=3, r=0.5, margin=0.5)), 23),
])
def test_peak_memory_per_node(args, bound):
    dom = build_domain(args[0], args[1], **args[2])
    field = distance_transform(dom)
    d2, peak = traced_peak(getattr, field, "d2_doubled")
    nodes = d2.size
    assert peak <= bound * nodes
    # the budget's per-node model holds, up to the O(faces) centroid arrays
    assert peak <= (_peak_bytes_per_node(dom.n) + 0.25) * nodes
    assert d2.nbytes <= 4 * nodes


def _refuse_scipy(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("scipy was called")
    monkeypatch.setattr(distance.ndimage, "distance_transform_edt", fail)


def test_oversize_lattice_refused_before_allocation(monkeypatch):
    dom = build_domain("ball", 5, r=0.5)
    need = 65**2 * _peak_bytes_per_node(2)
    monkeypatch.setattr(distance, "EDT_BUDGET_BYTES", need)
    fresh = VoxelDomain(5, dom.lo_int, dom.mask)
    assert distance_transform(fresh).d2_doubled is not None
    monkeypatch.setattr(distance, "EDT_BUDGET_BYTES", need - 1)
    _refuse_scipy(monkeypatch)
    with pytest.raises(PreconditionNotMet, match="budget") as e:
        distance_transform(dom).d2_doubled
    assert "\n" not in str(e.value)
    assert not dom._dist._lattices


def test_int32_overflow_refused(monkeypatch):
    _refuse_scipy(monkeypatch)
    # 46401 lattice nodes along x: 46400^2 + 2^2 > 2^31 - 1
    dom = VoxelDomain(4, (0, 0), np.ones((23200, 1), dtype=bool))
    with pytest.raises(PreconditionNotMet, match="int32"):
        distance_transform(dom).d2_doubled
