import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from copy_oracles import full_grid_graph
from distance_oracle import cell_d2, cell_values
from full_scan import bellman_ford_cost, full_scan_once
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from memory import traced_peak
from scipy.sparse.csgraph import dijkstra as cs_dijkstra

import sobex.curves as curves
import sobex.distance as distance
from sobex.curves import (
    GeodesicSolver,
    boundary_probe_points,
    cig_check,
    curve_condition_scan,
    focus_anchors,
    john_check,
    weighted_geodesic,
)
from sobex.distance import DistanceField, distance_transform
from sobex.domain import VoxelDomain, build_domain
from sobex.errors import PreconditionNotMet, Unreachable, UnsupportedExponent


def test_vertical_segment_closed_form(slab_k9, slab_k9_dist):
    # cost of the straight drop from depth a to depth b under dist^(1-p):
    # (b^(2-p) - a^(2-p)) / (2-p); p = 3/2, a = 1/4, b = 1 gives exactly 1
    path = weighted_geodesic(slab_k9, slab_k9_dist, (0.0, -0.25), (0.0, -1.0), 1.5)
    assert path.cost == pytest.approx(1.0, rel=0.05)
    assert path.length == pytest.approx(0.75, rel=0.02)


def test_equal_endpoints_empty_path(slab_k9, slab_k9_dist):
    path = weighted_geodesic(slab_k9, slab_k9_dist, (0.3, -0.4), (0.3, -0.4), 1.5)
    assert path.empty
    assert path.cost == 0.0 and path.length == 0.0


def test_bad_exponent_rejected(slab_k9, slab_k9_dist):
    with pytest.raises(UnsupportedExponent):
        weighted_geodesic(slab_k9, slab_k9_dist, (0, -0.3), (0, -0.6), 2.0)


def test_unreachable_components():
    dom = build_domain("ball", 6, r=0.5)  # complement = 4 corner pockets
    dist = distance_transform(dom)
    with pytest.raises(Unreachable):
        weighted_geodesic(dom, dist, (0.05, 0.05), (0.95, 0.95), 1.5)


@pytest.mark.parametrize("seed", range(6))
def test_dijkstra_equals_bellman_ford(seed):
    rng = np.random.default_rng(seed + 100)
    mask = rng.random((48, 48)) > 0.4
    mask[16:32, 16:32] = True
    dom = VoxelDomain(6, (0, 0), mask)
    dist = distance_transform(dom)
    solver = GeodesicSolver(dom, dist, side="interior", weight=("power", 1.5))
    from scipy import ndimage

    lab, _ = ndimage.label(solver.node_mask)
    sizes = np.bincount(lab.ravel())[1:]
    comp = int(np.argmax(sizes)) + 1
    cells = np.argwhere(lab == comp)
    z1 = (cells[0] + 0.5) * dom.h
    z2 = (cells[-1] + 0.5) * dom.h
    cost = solver.path(z1, z2).cost
    assert cost == bellman_ford_cost(solver, z1, z2)  # exactly


def test_scale_covariance(slab_k9, slab_k9_dist):
    p = 1.5
    c1 = weighted_geodesic(slab_k9, slab_k9_dist, (0.0, -0.25), (0.0, -1.0), p).cost
    c2 = weighted_geodesic(slab_k9, slab_k9_dist, (0.0, -0.125), (0.0, -0.5), p).cost
    assert c2 / c1 == pytest.approx(0.5 ** (2 - p), rel=0.03)


def test_disk_two_scale_selfconsistency():
    p = 1.5
    costs = []
    for r in (0.4, 0.2):
        dom = build_domain("ball", 9, r=r, margin=0.5)
        dist = distance_transform(dom)
        path = weighted_geodesic(dom, dist, (0.5 - r, 0.5), (0.5 + r, 0.5), p)
        costs.append(path.cost)
    assert costs[1] / costs[0] == pytest.approx(0.5 ** (2 - p), rel=0.10)


def test_triangle_inequality_with_waypoint(slab_k9, slab_k9_dist):
    solver = GeodesicSolver(slab_k9, slab_k9_dist, side="complement",
                            weight=("power", 1.5))
    z1, z2, z3 = (-0.8, -0.3), (0.0, -0.6), (0.7, -0.2)
    c13 = solver.path(z1, z3).cost
    c12 = solver.path(z1, z2).cost
    c23 = solver.path(z2, z3).cost
    slack = 2 * max(solver.path(z1, z2).edge_lengths.max(),
                    solver.path(z2, z3).edge_lengths.max()) * 10
    assert c13 <= c12 + c23 + slack


def test_refinement_cost_stable():
    p = 1.5
    costs = []
    for K in (8, 9):
        N = int(2.5 * 2**K)
        lo_int = (-(N // 2), -(N // 2))
        iy = np.arange(N) + lo_int[1]
        mask = np.zeros((N, N), bool)
        mask[:, iy > 0] = True
        dom = VoxelDomain(K, lo_int, mask)
        dist = distance_transform(dom)
        costs.append(
            weighted_geodesic(dom, dist, (0.0, -0.25), (0.0, -1.0), p).cost
        )
    assert costs[1] <= costs[0] * 1.02


def test_p1_unit_mode_avoids_boundary():
    dom = build_domain("slit_square", 7, slit_len=0.5, margin=1)
    dist = distance_transform(dom)
    h = dom.h
    # exterior endpoints on opposite sides of the square
    z1 = (-0.2, 0.3)
    z2 = (1.2, 0.7)
    path = weighted_geodesic(dom, dist, z1, z2, 1.0)
    assert path.cost == pytest.approx(path.length)
    # interior vertices stay off the boundary-hugging cells
    cells = np.floor(path.vertices / h).astype(int) - np.array(dom.lo_int)
    d2 = cell_d2(dist)[tuple(cells[1:-1].T)]
    assert np.all(d2 > 1)
    straight = math.hypot(z2[0] - z1[0], z2[1] - z1[1])
    assert straight <= path.length <= 3.0 * straight


def test_p1_slit_interior_isolated():
    # the one-cell slit is entirely boundary-hugging, so under the p = 1
    # semantics no curve may run along it: bank-to-bank queries that would
    # have to travel inside the slit are unreachable
    dom = build_domain("slit_square", 7, slit_len=0.5)  # no margin
    dist = distance_transform(dom)
    h = dom.h
    with pytest.raises(Unreachable):
        weighted_geodesic(dom, dist, (0.25, 0.5 + h / 2), (0.4, 0.5 + h / 2), 1.0)


def test_slit_through_cost_formula():
    # the one-cell slit carries weight (h/2)^(1-p) per unit length; a path
    # between two points inside it costs ~ separation * (h/2)^(1-p), the
    # discrete counterpart of the infinite continuum cost along a slit
    K = 9
    dom = build_domain("slit_square", K, slit_len=0.5)
    dist = distance_transform(dom)
    h = dom.h
    p = 1.5
    z1 = (0.1, 0.5 + h / 2)
    z2 = (0.4, 0.5 + h / 2)
    path = weighted_geodesic(dom, dist, z1, z2, p)
    model = 0.3 * (h / 2) ** (1 - p)
    assert path.cost == pytest.approx(model, rel=0.05)
    # under refinement the through-slit cost grows like h^(1-p)
    dom2 = build_domain("slit_square", K + 1, slit_len=0.5)
    dist2 = distance_transform(dom2)
    path2 = weighted_geodesic(dom2, dist2, z1, z2, p)
    assert path2.cost / path.cost == pytest.approx(2 ** (p - 1), rel=0.05)


def test_curvescan_disk_uniform_signal():
    dom = build_domain("ball", 8, r=0.5, margin=0.5)
    rep = curve_condition_scan(dom, 1.5, 32, seed=5, refine=False)
    sups = [v for v in rep.sup_ratio if v > 0]
    assert len(sups) >= 3
    assert max(sups) / min(sups) <= 4.0


def test_curvescan_refine_drift_fields():
    dom = build_domain("ball", 7, r=0.5, margin=0.5)
    rep = curve_condition_scan(dom, 1.5, 16, seed=5, refine=True)
    assert rep.sup_ratio_refined is not None
    assert len(rep.drift) == len(rep.scales)
    for v in rep.drift:
        assert math.isfinite(v)


def test_cig_disk_and_degenerate(ball_k7):
    dist = distance_transform(ball_k7)
    rep = cig_check(ball_k7, dist, (0.08, 0.5), (0.92, 0.5))
    assert rep.cig_d <= 2.0
    assert rep.cig_l >= rep.cig_d
    assert rep.cig_l_from_d == pytest.approx(2.0**14 * rep.cig_d**2)
    same = cig_check(ball_k7, dist, (0.3, 0.5), (0.3, 0.5))
    assert same.cig_d == 0.0 and same.cig_l == 0.0


def test_cig_slit_tip_pairs_stay_bounded():
    # pairs straddling the slit near the tip: every connecting curve rounds
    # the tip, but it can bulge away from the slit while doing so, and the
    # slit square is in fact a John domain; the measured cig constants are
    # finite and scale-stable (no blow-up; see the decisions ledger)
    dom = build_domain("slit_square", 8, slit_len=0.5)
    dist = distance_transform(dom)
    h = dom.h
    consts = []
    for s in (0.2, 0.1, 0.05):
        x = (0.5 - s, 0.5 - 2 * h)
        y = (x[0], 0.5 + 2 * h)
        rep = cig_check(dom, dist, x, y)
        assert math.isfinite(rep.cig_l)
        # the curve really rounds the tip
        assert rep.path.length >= 2 * s
        consts.append(rep.cig_l)
    assert max(consts) / min(consts) <= 1.5


def test_john_disk_center(ball_k7):
    dist = distance_transform(ball_k7)
    rep = john_check(ball_k7, dist, (0.5, 0.5), n_samples=48, seed=2)
    assert rep.constant <= 1.5


def test_john_square_corner():
    dom = build_domain("cube", 7, dim=2)
    dist = distance_transform(dom)
    rep = john_check(dom, dist, (0.5, 0.5), n_samples=64, seed=3)
    assert rep.constant <= 3.0


def test_john_cusp_grows_under_refinement():
    vals = []
    for K in (7, 8):
        dom = build_domain("outward_cusp", K, alpha=2.0)
        dist = distance_transform(dom)
        rep = john_check(dom, dist, (0.5, 0.25), n_samples=96, seed=4)
        vals.append(rep.constant)
    assert vals[1] > vals[0]


def test_boundary_probe_points_hug_boundary():
    dom = build_domain("ball", 7, r=0.5, margin=0.5)
    pts = boundary_probe_points(dom)
    r = np.hypot(pts[:, 0] - 0.5, pts[:, 1] - 0.5)
    assert np.all(np.abs(r - 0.5) <= 2 * dom.h)


def _random_custom_domain():
    rng = np.random.default_rng(48)
    return VoxelDomain(6, (0, 0), rng.random((48, 48)) > 0.5)


_CUSP_FOCUS = dict(scales=[0.45, 0.225, 0.1125, 0.05625], focus=(0.5, 0.5))


@pytest.mark.parametrize("case", [
    ("disk K=6", lambda: build_domain("ball", 6, r=0.5, margin=0.5), 1.5, {}),
    ("disk K=7", lambda: build_domain("ball", 7, r=0.5, margin=0.5), 1.5, {}),
    ("focused cusp K=10",
     lambda: build_domain("outward_cusp", 10, alpha=2.0, margin=0), 1.75,
     _CUSP_FOCUS),
    ("4-pocket ball", lambda: build_domain("ball", 6, r=0.5), 1.5, {}),
    ("disk p=1", lambda: build_domain("ball", 6, r=0.5, margin=0.5), 1.0, {}),
    ("random 48x48", _random_custom_domain, 1.5, {}),
], ids=lambda c: c[0])
def test_bounded_scan_equals_full_search(case):
    _, make, p, kw = case
    dom = make()
    rows, sups = full_scan_once(dom, p, 48, 7, **kw)
    rep = curve_condition_scan(dom, p, 48, seed=7, refine=False, **kw)
    assert rows  # the comparison covers real pairs
    assert rep.rows == rows
    assert rep.sup_ratio == sups
    # the searches stop short of the whole graph
    nodes = GeodesicSolver(dom, None, weight=("power", p) if p > 1 else "unit"
                           ).graph.shape[0]
    assert 0 < rep.settled_nodes < rep.searches * nodes


def test_scan_telemetry_counts_both_grids():
    dom = build_domain("ball", 6, r=0.5, margin=0.5)
    coarse = curve_condition_scan(dom, 1.5, 16, seed=5, refine=False)
    both = curve_condition_scan(dom, 1.5, 16, seed=5, refine=True)
    fine = curve_condition_scan(build_domain("ball", 7, r=0.5, margin=0.5),
                                1.5, 16, seed=5, scales=coarse.scales,
                                refine=False)
    assert coarse.searches >= 4  # at least one anchor per scale
    assert both.searches == coarse.searches + fine.searches
    assert both.settled_nodes == coarse.settled_nodes + fine.settled_nodes


@pytest.mark.parametrize("kw, err", [
    (dict(p=0.5), UnsupportedExponent),
    (dict(p=2.0), UnsupportedExponent),
    (dict(n_pairs=0), PreconditionNotMet),
    (dict(n_pairs=-5), PreconditionNotMet),
    (dict(scales=[0.25, -0.1]), PreconditionNotMet),
    (dict(scales=[0.0]), PreconditionNotMet),
    (dict(scales=[math.nan]), PreconditionNotMet),
    (dict(scales=[math.inf]), PreconditionNotMet),
])
def test_scan_refuses_bad_inputs_before_work(kw, err):
    args = dict(p=1.5, n_pairs=8, scales=None) | kw
    # no domain: the refusal comes before any distance or solver work
    with pytest.raises(err):
        curve_condition_scan(None, args["p"], args["n_pairs"], seed=0,
                             scales=args["scales"])


def test_refine_refuses_a_domain_no_generator_rebuilds(monkeypatch):
    dom = VoxelDomain(6, (-8, -8), np.pad(np.ones((64, 64), bool), 8))
    assert dom.name.tag == "custom"

    def refuse(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(curves, "distance_transform", refuse)
    with pytest.raises(PreconditionNotMet, match="refine"):
        curve_condition_scan(dom, 1.5, 8, seed=0)
    monkeypatch.undo()
    rep = curve_condition_scan(dom, 1.5, 8, seed=0, refine=False)
    assert rep.rows and rep.drift is None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 24),
       density=st.floats(0.3, 0.9), p=st.sampled_from([1.0, 1.25, 1.5, 1.75]),
       frac=st.floats(0.0, 1.5))
def test_limited_search_is_exact_within_limit(seed, n, density, p, frac):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    mask[n // 2, n // 2] = True
    dom = VoxelDomain(5, (0, 0), mask)
    dist = distance_transform(dom)
    try:
        solver = GeodesicSolver(dom, dist, side="interior",
                                weight="unit" if p == 1.0 else ("power", p))
    except Unreachable:  # unit weight forbids every cell
        return
    src = int(rng.integers(solver.graph.shape[0]))
    full, _ = solver.distances_from(src)
    limit = frac * float(full[np.isfinite(full)].max())
    part, _ = solver.distances_from(src, limit)
    fin = np.isfinite(part)
    assert np.array_equal(part[fin], full[fin])  # bit-equal where settled
    assert fin[full <= limit].all()
    assert not fin[full > limit].any()


@pytest.mark.parametrize("weight", ["inverse", ("power", 1.5)])
def test_solver_weights_equal_full_grid_distances(weight):
    dom = build_domain("outward_cusp", 6, margin=0.25)
    dist = distance_transform(dom)
    solver = GeodesicSolver(dom, dist, side="complement", weight=weight)
    full = cell_values(dist)[solver.node_mask]
    expect = 1.0 / full if weight == "inverse" else full ** (1.0 - 1.5)
    assert np.array_equal(solver._w, expect)


def test_vertex_distances_equal_full_grid_distances():
    # path vertices are the centres of the side's cells
    dom = build_domain("ball", 6, r=0.5, margin=0.25)
    dist = distance_transform(dom)
    rng = np.random.default_rng(5)
    for side, mask in (("complement", ~dom.mask), ("interior", dom.mask)):
        cells = np.argwhere(mask)
        cells = cells[rng.choice(len(cells), 200)]
        verts = (cells + np.asarray(dom.lo_int) + 0.5) * dom.h
        assert np.array_equal(
            curves._dist_at_vertices(dom, dist, verts, side),
            cell_values(dist)[tuple(cells.T)])


def test_empty_side_unreachable_before_any_lattice(monkeypatch):
    def refuse(*args):
        raise AssertionError("a distance lattice was built")

    monkeypatch.setattr(distance, "_build_lattice", refuse)
    dom = VoxelDomain(5, (0, 0), np.ones((16, 16), dtype=bool))
    for weight in ("unit", "inverse", ("power", 1.5)):
        with pytest.raises(Unreachable, match="complement"):
            GeodesicSolver(dom, None, side="complement", weight=weight)
    assert boundary_probe_points(dom).shape == (0, 2)


def _complement_window(dom):
    """(lo_int, shape) of the complement's bounding box grown by one cell
    and clipped to the grid."""
    cells = np.argwhere(~dom.mask)
    lo = np.maximum(cells.min(axis=0) - 1, 0)
    hi = np.minimum(cells.max(axis=0) + 2, dom.shape)
    return (tuple((lo + dom.lo_int).tolist()), tuple((hi - lo).tolist()))


def test_scan_and_geodesic_build_only_side_windows(monkeypatch):
    """A refined cusp scan and a slab geodesic build one lattice per side
    window, each smaller than the grid."""
    shapes = []
    build = distance._build_lattice

    def recording(lo_int, shape, coords):
        shapes.append((tuple(lo_int), tuple(shape)))
        return build(lo_int, shape, coords)

    monkeypatch.setattr(distance, "_build_lattice", recording)
    dom = build_domain("outward_cusp", 7, alpha=2.0, margin=0)
    curve_condition_scan(dom, 1.75, 8, seed=3, refine=True, **_CUSP_FOCUS)
    fine = build_domain("outward_cusp", 8, alpha=2.0, margin=0)
    K = 7
    N = int(2.5 * 2**K)
    iy = np.arange(N) - N // 2
    slab = VoxelDomain(K, (-(N // 2),) * 2,
                       np.broadcast_to(iy > 0, (N, N)).copy())
    weighted_geodesic(slab, distance_transform(slab), (0.0, -0.25),
                      (0.0, -1.0), 1.5)
    wanted = [_complement_window(d) for d in (dom, fine, slab)]
    assert shapes == wanted
    for (_, shape), d in zip(shapes, (dom, fine, slab)):
        assert math.prod(shape) < math.prod(d.shape)


@pytest.mark.parametrize("side", ["complement", "interior"])
@pytest.mark.parametrize("weight", ["unit", "inverse", ("power", 1.5)],
                         ids=["unit", "inverse", "power"])
@pytest.mark.parametrize("dim", [2, 3])
def test_solver_equals_full_grid_build(dim, weight, side):
    """Per-node weights give the graph and path weights of the full-grid
    weight and id arrays bit for bit; only node_mask is grid-shaped."""
    if dim == 2:
        dom = build_domain("outward_cusp", 6, margin=0.25)
    else:
        dom = build_domain("ball", 4, dim=3, r=0.5, margin=0.5)
    dist = distance_transform(dom)
    solver = GeodesicSolver(dom, dist, side=side, weight=weight)
    graph, w, mask = full_grid_graph(dom, dist, side, weight)
    assert np.array_equal(solver.node_mask, mask)
    for a in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(solver.graph, a), getattr(graph, a))
    assert np.array_equal(solver._w, w[mask])
    grid_shaped = [k for k, v in vars(solver).items()
                   if isinstance(v, np.ndarray) and v.shape == dom.shape]
    assert grid_shaped == ["node_mask"]
    dists, _ = solver.distances_from(0)
    far = int(np.argmax(np.where(np.isfinite(dists), dists, -1.0)))
    path = solver.path(solver._centers[0], solver._centers[far])
    nodes = [solver.snap(v) for v in path.vertices]
    cellw = w[tuple(solver.cells[nodes].T)]
    assert len(nodes) > 2
    assert np.array_equal(path.edge_weights, 0.5 * (cellw[:-1] + cellw[1:]))


@st.composite
def graph_domains(draw):
    """Random 2D and 3D masks with both sides present, often touching the
    array edge; some carry a cell whose neighbours all lie on the other
    side, an isolated node of either side's graph."""
    n = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.integers(1, 12 if n == 2 else 5)) for _ in range(n))
    bits = draw(st.lists(st.booleans(), min_size=math.prod(shape),
                         max_size=math.prod(shape)))
    mask = np.array(bits, dtype=bool).reshape(shape)
    if draw(st.booleans()):
        c = draw(st.tuples(*(st.integers(0, s - 1) for s in shape)))
        inside = draw(st.booleans())
        mask[tuple(slice(max(i - 1, 0), i + 2) for i in c)] = not inside
        mask[c] = inside
    assume(mask.any() and not mask.all())
    lo_int = tuple(draw(st.integers(-9, 9)) for _ in range(n))
    return VoxelDomain(draw(st.integers(2, 6)), lo_int, mask)


@settings(max_examples=120, deadline=None)
@given(graph_domains(), st.sampled_from(["complement", "interior"]),
       st.sampled_from(["unit", "inverse", ("power", 1.5)]), st.data())
def test_direct_build_equals_coo_build(dom, side, weight, data):
    """The CSR arrays written straight from the lattice equal the COO build
    over full-grid arrays, and so do the searches on them."""
    dist = distance_transform(dom)
    graph, _, mask = full_grid_graph(dom, dist, side, weight)
    if not mask.any():
        with pytest.raises(Unreachable):
            GeodesicSolver(dom, dist, side=side, weight=weight)
        return
    solver = GeodesicSolver(dom, dist, side=side, weight=weight)
    for a in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(solver.graph, a), getattr(graph, a))
    src = data.draw(st.integers(0, graph.shape[0] - 1))
    full = cs_dijkstra(graph, directed=False, indices=src)
    limit = data.draw(st.floats(0.0, 1.5)) * float(full[np.isfinite(full)].max())
    for lim in (np.inf, limit):
        dists, pred = solver.distances_from(src, lim)
        want, wpred = cs_dijkstra(graph, directed=False, indices=src,
                                  return_predecessors=True, limit=lim)
        assert np.array_equal(dists, want)
        assert np.array_equal(pred, wpred)


def _count_builds(monkeypatch) -> list:
    """Record every graph build from now on."""
    calls = []
    build = GeodesicSolver._build_graph

    def counting(self, h):
        calls.append(self.node_mask.shape)
        return build(self, h)

    monkeypatch.setattr(GeodesicSolver, "_build_graph", counting)
    return calls


def _assert_same_path(a, b):
    assert a.vertices.tobytes() == b.vertices.tobytes()
    assert a.edge_lengths.tobytes() == b.edge_lengths.tobytes()
    assert a.edge_weights.tobytes() == b.edge_weights.tobytes()
    assert (a.cost, a.length) == (b.cost, b.length)


_DISK_ENDS = [((0.1, 1.2), (0.9, -0.2)), ((0.1, 1.1), (0.8, -0.1))]


def test_single_queries_build_one_solver_per_field(monkeypatch):
    calls = _count_builds(monkeypatch)
    dom = build_domain("ball", 6, r=0.5, margin=0.5)
    dist = distance_transform(dom)
    paths = [weighted_geodesic(dom, dist, z1, z2, 1.5) for z1, z2 in _DISK_ENDS]
    assert len(calls) == 1
    john = john_check(dom, dist, (0.5, 0.5), seed=3)
    cig = cig_check(dom, dist, (0.2, 0.5), (0.8, 0.5))
    assert len(calls) == 2
    assert set(dist._solvers) == {("complement", ("power", 1.5)),
                                  ("interior", "inverse")}
    monkeypatch.undo()
    fresh = GeodesicSolver(dom, dist, side="complement", weight=("power", 1.5))
    for path, (z1, z2) in zip(paths, _DISK_ENDS):
        _assert_same_path(path, fresh.path(z1, z2))
    inner = GeodesicSolver(dom, dist, side="interior", weight="inverse")
    _assert_same_path(cig.path, inner.path((0.2, 0.5), (0.8, 0.5)))
    # a second domain's field builds its own solver, to the same result
    twin = build_domain("ball", 6, r=0.5, margin=0.5)
    again = john_check(twin, distance_transform(twin), (0.5, 0.5), seed=3)
    assert (again.constant, again.per_sample) == (john.constant, john.per_sample)


def test_foreign_field_gets_a_fresh_solver(monkeypatch):
    calls = _count_builds(monkeypatch)
    dom = build_domain("ball", 6, r=0.5, margin=0.5)
    own = distance_transform(dom)
    other = DistanceField(dom.K, dom.lo_int, dom.shape, own.coords.copy())
    (z1, z2), _ = _DISK_ENDS
    first = weighted_geodesic(dom, other, z1, z2, 1.5)
    second = weighted_geodesic(dom, other, z1, z2, 1.5)
    cig_check(dom, other, (0.2, 0.5), (0.8, 0.5))
    assert len(calls) == 3
    assert not other._solvers and not own._solvers
    _assert_same_path(first, second)
    _assert_same_path(first, weighted_geodesic(dom, own, z1, z2, 1.5))
    assert len(calls) == 4 and len(own._solvers) == 1


def test_dropping_the_domain_frees_its_field_and_solvers():
    gc.disable()
    try:
        dom = build_domain("ball", 5, r=0.5, margin=0.5)
        dist = distance_transform(dom)
        weighted_geodesic(dom, dist, (0.1, 1.2), (0.9, -0.2), 1.5)
        cig_check(dom, dist, (0.2, 0.5), (0.8, 0.5))
        refs = [weakref.ref(dist)]
        refs += [weakref.ref(s) for s in dist._solvers.values()]
        assert len(refs) == 3
        del dom, dist
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def test_solver_build_peak_stays_near_what_it_keeps():
    """The CSR arrays are written in place: building the K=8 slab solver
    (the lattice already read) peaks within 1.25x of the bytes the solver
    keeps."""
    K = 8
    N = int(2.5 * 2**K)
    iy = np.arange(N) - N // 2
    slab = VoxelDomain(K, (-(N // 2),) * 2,
                       np.broadcast_to(iy > 0, (N, N)).copy())
    dist = distance_transform(slab)
    dist.side_d2(~slab.mask)
    solver, peak = traced_peak(GeodesicSolver, slab, dist, "complement",
                               ("power", 1.5))
    kept = sum(v.nbytes for v in vars(solver).values()
               if isinstance(v, np.ndarray))
    kept += sum(getattr(solver.graph, a).nbytes
                for a in ("data", "indices", "indptr"))
    kept += solver._tree.indices.nbytes
    assert peak <= 1.25 * kept


def test_slab_solver_keeps_no_cell_list_or_whole_lattice():
    """Building the K=9 slab complement solver from a fresh field keeps its
    graph, weights, centres, node mask and tree, and of the distances only
    the window's cell centres: about 90 B per node.  A kept int64 cell
    list (16 B per node), the window's whole doubled lattice (16 B per
    window cell) or a tree holding its own copy of the centres (16 B per
    node) would break the bound."""
    K = 9
    N = int(2.5 * 2**K)
    iy = np.arange(N) - N // 2
    slab = VoxelDomain(K, (-(N // 2),) * 2,
                       np.broadcast_to(iy > 0, (N, N)).copy())
    dist = distance_transform(slab)
    solver, peak = traced_peak(GeodesicSolver, slab, dist, "complement",
                               ("power", 1.5))
    nodes = solver.graph.shape[0]
    assert peak <= 96 * nodes
    assert np.shares_memory(solver._tree.data, solver._centers)
    assert "cells" not in vars(solver)
    ((lo, hi), kept), = dist._lattices.items()
    assert (lo, hi) == distance._window(~slab.mask)
    assert kept.shape == tuple(b - a for a, b in zip(lo, hi))
    assert kept.nbytes == 4 * kept.size


@pytest.mark.parametrize("dom", [
    build_domain("outward_cusp", 7),
    build_domain("ball", 4, r=0.5, margin=Fraction(1, 2), dim=3),
], ids=["cusp", "ball3"])
def test_kd_trees_share_their_points(dom):
    # C-ordered points: a tree over an F-ordered array keeps its own copy
    solver = GeodesicSolver(dom, None, "complement", ("power", 1.5))
    assert np.shares_memory(solver._tree.data, solver._centers)
    pts = boundary_probe_points(dom)
    assert np.shares_memory(curves.cKDTree(pts).data, pts)


def test_focus_anchors_take_one_per_distance_band():
    rng = np.random.default_rng(0)
    pts = rng.random((400, 2))
    tree = curves.cKDTree(pts)
    focus, s = (0.5, 0.5), 0.2
    r = np.linalg.norm(pts - focus, axis=1)
    ring = np.flatnonzero((r >= 0.5 * s) & (r <= 1.5 * s))
    ring = ring[np.lexsort((ring, r[ring]))]
    for k in (1, 3, 8):
        got = focus_anchors(pts, tree, focus, s, k, rng)
        bands = len(ring) * np.arange(k + 1) // k
        assert len(got) == k
        for j, a in enumerate(got):
            assert a in ring[bands[j]:bands[j + 1]]
    # a ring of fewer points than bands gives each of its points once
    got = focus_anchors(pts, tree, focus, 0.02, 24, rng)
    r_small = r[(r >= 0.01) & (r <= 0.03)]
    assert sorted(r[got]) == sorted(r_small)


def test_focused_cusp_scan_reaches_the_outer_band():
    """Seed 10 of the benchmark's cusp scan: a shuffled ring's first anchors
    missed the outer band, and the growth at the smallest scale read 0.69."""
    cusp = build_domain("outward_cusp", 10, alpha=2.0, margin=0)
    rep = curve_condition_scan(cusp, 1.75, 48, 10, refine=True, **_CUSP_FOCUS)
    growth = [f / c for f, c in zip(rep.sup_ratio_refined[1:], rep.sup_ratio)]
    assert all(g >= 1.2 for g in growth)
