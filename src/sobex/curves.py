"""Singular-weight shortest paths in the complement (or interior) of a voxel
domain, and the curve-condition / John / cig checkers built on them.

Paths live on the cell-center lattice with 8-connectivity in 2D and
26-connectivity in 3D; an edge costs its Euclidean length times the mean of
the endpoint weights.  Cell centers are never closer than h/2 to the
discrete boundary, so the singular weight dist^(1-p) stays finite and the
Riemann sums converge to the continuum line integrals as the grid refines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as cs_dijkstra
from scipy.spatial import cKDTree

from .distance import DistanceField, distance_transform
from .domain import GENERATORS, VoxelDomain, build_domain
from .errors import PreconditionNotMet, Unreachable, UnsupportedExponent

# forward neighbour offsets in lexicographic order: a node's neighbours
# along them come in increasing C order, so each CSR row is born sorted
_OFFSETS_2D = [(0, 1), (1, -1), (1, 0), (1, 1)]
_OFFSETS_3D = [
    (0, 0, 1), (0, 1, -1), (0, 1, 0), (0, 1, 1),
    (1, -1, -1), (1, -1, 0), (1, -1, 1), (1, 0, -1), (1, 0, 0), (1, 0, 1),
    (1, 1, -1), (1, 1, 0), (1, 1, 1),
]
# node-mask cells whose edges `_build_graph` makes at a time
_EDGE_CHUNK = 1 << 16


@dataclass
class GeodesicPath:
    vertices: np.ndarray        # (m, n) cell centers, first/last are endpoints
    edge_lengths: np.ndarray
    edge_weights: np.ndarray
    cost: float
    length: float

    @property
    def empty(self) -> bool:
        return len(self.vertices) <= 1


class GeodesicSolver:
    """Shortest-path engine over one side of the domain with a fixed weight.

    weight: ("power", p) for dist^(1-p) with 1 < p < 2, "unit" for the
    length metric with boundary-adjacent cells forbidden, "inverse" for the
    1/dist John-curve surrogate.  It keeps no reference to the domain, so
    the domain's distance field may keep it (see `_field_solver`).
    """

    def __init__(self, dom: VoxelDomain, dist: DistanceField | None = None,
                 side: str = "complement", weight="unit"):
        dist = dist if dist is not None else distance_transform(dom)
        if weight not in ("unit", "inverse"):
            kind, p = weight
            if kind != "power":
                raise ValueError(f"unknown weight {weight!r}")
            if not (1.0 <= p < 2.0):
                raise UnsupportedExponent(f"p must lie in [1,2), got {p}")
        mask = _side_mask(dom, side)
        d2 = dist.side_d2(mask)
        # one weight per node, in C order of the node mask
        if weight == "unit":
            keep = d2 > 1  # forbid cells hugging the boundary
            mask = mask.copy()
            mask[mask] = keep
            w = np.ones(int(keep.sum()))
        elif weight == "inverse":
            w = 1.0 / _dist_values(d2, dom.h)
        else:
            w = _dist_values(d2, dom.h) ** (1.0 - p)
        del d2
        self.node_mask = mask
        if not mask.any():
            raise Unreachable(f"no cells on the {side} side")
        self._w = w
        self._build_graph(dom.h)
        # the centres are made one axis at a time from int32 grid indices,
        # with no cell list, and C-ordered so that the tree shares them
        centers = np.empty((len(w), mask.ndim))
        for d, lo in enumerate(dom.lo_int):
            col = centers[:, d]
            axis = np.arange(mask.shape[d], dtype=np.int32)
            col[:] = np.broadcast_to(axis.reshape((-1,) + (1,) * (mask.ndim - 1 - d)),
                                     mask.shape)[mask]
            col += lo + 0.5
            col *= dom.h
        self._tree = cKDTree(centers)
        self._centers = centers

    @property
    def cells(self) -> np.ndarray:
        """(m, n) int64 grid indices of the nodes, made on each read."""
        return np.argwhere(self.node_mask)

    def _build_graph(self, h: float):
        """The forward edges as CSR, written straight into its arrays: each
        node's edge count gives `indptr`, then each offset scatters its
        (a, b) pairs to the next free slot of row a.  Within one offset
        every a is distinct, so `pos[a] += 1` advances each row once.  int32
        suffices: the lattice budget bounds the nodes, and so the edges,
        far below 2^31.  Temporaries are dropped as soon as they are spent,
        and each offset's edges are made over blocks of rows of about
        `_EDGE_CHUNK` cells, so the build peaks little above what the
        solver keeps."""
        mask = self.node_mask
        m = len(self._w)
        ids = np.full(mask.shape, -1, dtype=np.int32)
        ids[mask] = np.arange(m, dtype=np.int32)
        w = self._w
        offsets = _OFFSETS_2D if mask.ndim == 2 else _OFFSETS_3D
        pairs = []
        for off in offsets:
            sl_from = tuple(
                slice(max(0, -o), mask.shape[d] - max(0, o)) for d, o in enumerate(off)
            )
            sl_to = tuple(
                slice(max(0, o), mask.shape[d] + min(0, o)) for d, o in enumerate(off)
            )
            pairs.append((off, sl_from, sl_to))
        degree = np.zeros(mask.shape, dtype=np.int8)
        for _, sl_from, sl_to in pairs:
            degree[sl_from] += mask[sl_from] & mask[sl_to]
        indptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(degree[mask], dtype=np.int32, out=indptr[1:])
        del degree
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        data = np.empty(int(indptr[-1]), dtype=np.float64)
        pos = indptr[:-1].copy()
        # a block of rows of the node mask spans about _EDGE_CHUNK cells
        rows = max(1, _EDGE_CHUNK * mask.shape[0] // mask.size)
        for off, sl_from, sl_to in pairs:
            length = math.sqrt(sum(o * o for o in off)) * h
            first, stop = sl_from[0].start, sl_from[0].stop
            for r in range(first, stop, rows):
                rf = slice(r, min(r + rows, stop))
                rt = slice(rf.start + off[0], rf.stop + off[0])
                bf, bt = (rf, *sl_from[1:]), (rt, *sl_to[1:])
                ok = mask[bf] & mask[bt]
                a = ids[bf][ok]
                b = ids[bt][ok]
                del ok
                # length * (0.5 * (w[a] + w[b])), evaluated in place
                cost = w[a]
                cost += w[b]
                cost *= 0.5
                cost *= length
                at = pos[a]
                indices[at] = b
                data[at] = cost
                pos[a] += 1
        self.graph = csr_matrix((data, indices, indptr), shape=(m, m))

    def snap(self, z) -> int:
        """Nearest lattice node to a point."""
        _, i = self._tree.query(np.asarray(z, dtype=float))
        return int(i)

    def distances_from(self, src: int, limit: float = np.inf):
        """Single-source costs and predecessors.  Nodes whose cost exceeds
        `limit` are left at inf; every other node gets exactly the value of
        the unlimited search."""
        dists, pred = cs_dijkstra(
            self.graph, directed=False, indices=src, return_predecessors=True,
            limit=limit,
        )
        return dists, pred

    def path(self, z1, z2) -> GeodesicPath:
        s = self.snap(z1)
        t = self.snap(z2)
        if s == t:
            return GeodesicPath(self._centers[[s]], np.array([]), np.array([]),
                                0.0, 0.0)
        dists, pred = self.distances_from(s)
        if not np.isfinite(dists[t]):
            raise Unreachable("endpoints lie in different components")
        return self._path_from_chain(_tree_chain(pred, s, t)[::-1],
                                     float(dists[t]))

    def _path_from_chain(self, chain, cost) -> GeodesicPath:
        verts = self._centers[chain]
        diffs = np.diff(verts, axis=0)
        lengths = np.sqrt((diffs**2).sum(axis=1))
        cellw = self._w[chain]
        weights = 0.5 * (cellw[:-1] + cellw[1:])
        return GeodesicPath(verts, lengths, weights, cost,
                            float(lengths.sum()))


def _side_mask(dom: VoxelDomain, side: str) -> np.ndarray:
    return (~dom.mask) if side == "complement" else dom.mask


def _dist_values(d2: np.ndarray, h: float) -> np.ndarray:
    """Distances in absolute units from integer squared distances."""
    return np.sqrt(d2.astype(np.float64)) * (h / 2.0)


def _tree_chain(pred, src: int, t: int) -> list[int]:
    """Nodes from t back to src along a shortest-path tree's predecessors;
    a tree path never repeats a node."""
    chain = [t]
    while chain[-1] != src:
        chain.append(int(pred[chain[-1]]))
    return chain


def weighted_geodesic(dom: VoxelDomain, dist: DistanceField, z1, z2, p: float,
                      side: str = "complement") -> GeodesicPath:
    """Least-cost lattice path between two points for the dist^(1-p) metric
    (p = 1 uses unit weight with boundary cells forbidden)."""
    if not (1.0 <= p < 2.0):
        raise UnsupportedExponent(f"p must lie in [1,2), got {p}")
    weight = "unit" if p == 1.0 else ("power", p)
    return _field_solver(dom, dist, side, weight).path(z1, z2)


def _field_solver(dom: VoxelDomain, dist: DistanceField | None, side: str,
                  weight) -> GeodesicSolver:
    """The solver for (side, weight), built once and kept on the domain's
    own field; it holds no reference to the domain, so the field dies with
    it.  Any other field gets a fresh solver that is not kept."""
    if dist is None:
        dist = distance_transform(dom)
    elif dist is not dom._dist:
        return GeodesicSolver(dom, dist, side=side, weight=weight)
    if (side, weight) not in dist._solvers:
        dist._solvers[side, weight] = GeodesicSolver(dom, dist, side=side,
                                                     weight=weight)
    return dist._solvers[side, weight]


# ---------------------------------------------------------------------------
# curve-condition scan
# ---------------------------------------------------------------------------


@dataclass
class CurveConditionReport:
    K: int
    p: float
    scales: list[float]
    sup_ratio: list[float]       # per scale
    rows: list[dict]             # z1, z2, separation, cost, ratio, scale
    drift: list[float] | None = None          # same-scale sup at K+1 over K
    sup_ratio_refined: list[float] | None = None   # per-scale sups at K+1
    searches: int = 0            # Dijkstra runs, retries and K+1 included
    settled_nodes: int = 0       # finite costs summed over those runs


def boundary_probe_points(dom: VoxelDomain, side: str = "complement") -> np.ndarray:
    """Centers of side cells hugging the discrete boundary (dist = h/2)."""
    mask = _side_mask(dom, side)
    cells = np.argwhere(mask)[distance_transform(dom).side_d2(mask) <= 1]
    return (cells + np.asarray(dom.lo_int) + 0.5) * dom.h


def check_scan_inputs(dom: VoxelDomain, p: float, n_pairs: int, scales=None,
                      refine: bool = True) -> None:
    """Refuse a scan that would run under the wrong metric, sample
    meaningless pairs, or refine a domain no generator can rebuild."""
    if not (1.0 <= p < 2.0):
        raise UnsupportedExponent(f"p must lie in [1,2), got {p}")
    if n_pairs < 1:
        raise PreconditionNotMet(f"need at least one pair, got {n_pairs}")
    if scales is not None and not all(math.isfinite(s) and s > 0 for s in scales):
        raise PreconditionNotMet(
            f"scales must be finite and positive, got {list(scales)}")
    if refine and dom.name.tag not in GENERATORS:
        raise PreconditionNotMet(
            f"cannot refine: no generator rebuilds a '{dom.name.tag}' domain "
            "at K+1")


def curve_condition_scan(dom: VoxelDomain, p: float, n_pairs: int, seed: int,
                         scales=None, focus=None, refine: bool = True,
                         ) -> CurveConditionReport:
    """Sampled sup of cost / |z1-z2|^(2-p) over boundary pairs, stratified by
    separation scale.  With `focus` set, half of each scale's pairs anchor
    near that point (needed to see localized degeneracies).  When `refine`
    is on, the domain regenerates at K+1 and the per-scale drift of the sup
    ratio is reported."""
    check_scan_inputs(dom, p, n_pairs, scales, refine)
    report = _scan_once(dom, p, n_pairs, seed, scales, focus)
    if refine:
        dom2 = build_domain(dom.name, dom.K + 1)
        fine = _scan_once(dom2, p, n_pairs, seed, report.scales, focus)
        report.sup_ratio_refined = fine.sup_ratio
        report.drift = [
            f / c if c > 0 else math.nan
            for f, c in zip(fine.sup_ratio, report.sup_ratio)
        ]
        report.searches += fine.searches
        report.settled_nodes += fine.settled_nodes
    return report


def focus_anchors(pts: np.ndarray, tree: cKDTree, focus, s: float, k: int,
                  rng: np.random.Generator) -> list[int]:
    """Up to k probe points in the ring 0.5 s <= |z - focus| <= 1.5 s, as
    indices into `pts` (`tree` is their KD-tree).  Anchored at the pair
    scale away from the focus feature, scale-s pairs probe the geometry at
    depth ~s.  The ring, sorted by distance from the focus (ties by index),
    is cut into k bands of equal count and one anchor is drawn from each,
    so the anchors span the ring's depth; the largest ratios at the
    smallest scale come from its outer band."""
    focus = np.asarray(focus, dtype=float)
    ring = np.asarray(tree.query_ball_point(focus, 1.5 * s), dtype=np.intp)
    r = np.linalg.norm(pts[ring] - focus, axis=1)
    ring, r = ring[r >= 0.5 * s], r[r >= 0.5 * s]
    ring = ring[np.lexsort((ring, r))]
    ends = len(ring) * np.arange(k + 1) // k
    lo, hi = ends[:-1], ends[1:]
    return ring[rng.integers(lo[hi > lo], hi[hi > lo])].tolist()


def _scan_once(dom, p, n_pairs, seed, scales, focus) -> CurveConditionReport:
    rng = np.random.default_rng(seed)
    pts = boundary_probe_points(dom)
    tree = cKDTree(pts)
    if scales is None:
        diam = float(np.ptp(pts, axis=0).max())
        scales = [diam / 2**j for j in range(2, 6)]
    scales = sorted(scales, reverse=True)
    solver = GeodesicSolver(dom, None, side="complement",
                            weight=("power", p) if p > 1 else "unit")
    # a target outside its anchor's component stays at inf for every limit
    _, comp = connected_components(solver.graph, directed=False)
    rows = []
    sups = []
    running = 0.0     # sup ratio over all rows so far; sizes each search
    searches = settled = 0
    for s in scales:
        pair_budget = max(2, n_pairs // len(scales))
        anchors = []
        if focus is not None:
            anchors += focus_anchors(pts, tree, focus, s, pair_budget // 2, rng)
        while len(anchors) < pair_budget:
            anchors.append(int(rng.integers(len(pts))))
        sup = 0.0
        by_anchor: dict[int, list[np.ndarray]] = {}
        max_targets = 128
        for a in anchors:
            cand = np.asarray(tree.query_ball_point(pts[a], 1.5 * s), dtype=np.intp)
            # probe points are dyadic cell centers, so these norms are exact
            far = np.linalg.norm(pts[cand] - pts[a], axis=1) >= 0.75 * s
            cand = cand[(cand != a) & far]
            if not len(cand):
                continue
            if len(cand) > max_targets:
                cand = cand[rng.choice(len(cand), size=max_targets, replace=False)]
            by_anchor.setdefault(a, []).append(cand)
        for a, groups in by_anchor.items():
            src = solver.snap(pts[a])
            _, tgts = solver._tree.query(pts[np.concatenate(groups)])
            reach = tgts[comp[tgts] == comp[src]]
            # targets with ratio <= running sup cost at most this; double it
            # until every reachable target is settled
            seps = np.linalg.norm(solver._centers[tgts] - solver._centers[src], axis=1)
            limit = max(running, 1.0) * float(seps.max()) ** (2.0 - p)
            while True:
                dists, _ = solver.distances_from(src, limit)
                searches += 1
                settled += int(np.isfinite(dists).sum())
                if np.isfinite(dists[reach]).all():
                    break
                limit *= 2.0
            for tgt in tgts.tolist():
                cost = float(dists[tgt])
                if not math.isfinite(cost):
                    continue
                sep = float(np.linalg.norm(
                    solver._centers[tgt] - solver._centers[src]))
                if sep == 0.0:
                    continue
                ratio = cost / sep ** (2.0 - p)
                rows.append({
                    "z1": tuple(solver._centers[src]),
                    "z2": tuple(solver._centers[tgt]),
                    "separation": sep, "cost": cost, "ratio": ratio,
                    "scale": s,
                })
                sup = max(sup, ratio)
                running = max(running, ratio)
        sups.append(sup)
    return CurveConditionReport(dom.K, p, list(scales), sups, rows,
                                searches=searches, settled_nodes=settled)


# ---------------------------------------------------------------------------
# cig and John checkers
# ---------------------------------------------------------------------------


@dataclass
class CigReport:
    cig_d: float
    cig_l: float
    path: GeodesicPath
    # the planar theory ties the two constants via cig_l = 2^14 cig_d^2;
    # recorded for reference, not enforced
    cig_l_from_d: float = 0.0

    def __post_init__(self):
        self.cig_l_from_d = 2.0**14 * self.cig_d**2


def cig_check(dom: VoxelDomain, dist: DistanceField, x, y) -> CigReport:
    """Measured cig constants along a 1/dist-optimal interior curve; these
    are upper bounds for the best-curve constants."""
    path = _field_solver(dom, dist, "interior", "inverse").path(x, y)
    if path.empty:
        return CigReport(0.0, 0.0, path)
    verts = path.vertices
    dvals = _dist_at_vertices(dom, dist, verts, "interior")
    cum = np.concatenate([[0.0], np.cumsum(path.edge_lengths)])
    total = cum[-1]
    m = len(verts)
    diam_pref = np.zeros(m)
    diam_suff = np.zeros(m)
    for j in range(1, m):
        d = np.linalg.norm(verts[: j + 1] - verts[j], axis=1).max()
        diam_pref[j] = max(diam_pref[j - 1], d)
    for j in range(m - 2, -1, -1):
        d = np.linalg.norm(verts[j:] - verts[j], axis=1).max()
        diam_suff[j] = max(diam_suff[j + 1], d)
    with np.errstate(divide="ignore"):
        rd = np.minimum(diam_pref, diam_suff) / dvals
        rl = np.minimum(cum, total - cum) / dvals
    return CigReport(float(rd.max()), float(rl.max()), path)


@dataclass
class JohnReport:
    constant: float          # sup over samples of sup_t t / dist(gamma(t))
    per_sample: list[float]
    x0: tuple[float, ...]


def john_check(dom: VoxelDomain, dist: DistanceField, x0,
               n_samples: int = 64, seed: int = 0) -> JohnReport:
    """John-constant estimate from 1/dist geodesics between boundary samples
    and the center point (an upper bound for these curves only)."""
    rng = np.random.default_rng(seed)
    solver = _field_solver(dom, dist, "interior", "inverse")
    probes = boundary_probe_points(dom, side="interior")
    if len(probes) > n_samples:
        probes = probes[rng.choice(len(probes), n_samples, replace=False)]
    src = solver.snap(x0)
    dists, pred = solver.distances_from(src)
    per = []
    for z in probes:
        t = solver.snap(z)
        if not np.isfinite(dists[t]):
            continue
        path = solver._path_from_chain(_tree_chain(pred, src, t),
                                       float(dists[t]))
        verts = path.vertices
        dvals = _dist_at_vertices(dom, dist, verts, "interior")
        cum = np.concatenate([[0.0], np.cumsum(path.edge_lengths)])
        ratios = cum[1:] / dvals[1:]
        per.append(float(ratios.max()) if len(ratios) else 0.0)
    if not per:
        raise Unreachable("no boundary sample reaches the center")
    return JohnReport(max(per), per, tuple(float(v) for v in x0))


def _dist_at_vertices(dom: VoxelDomain, dist: DistanceField,
                      verts: np.ndarray, side: str) -> np.ndarray:
    """Distances at path vertices, the centres of `side` cells."""
    cells = np.floor(verts / dom.h).astype(np.int64) - np.asarray(dom.lo_int)
    for d in range(dom.n):
        cells[:, d] = np.clip(cells[:, d], 0, dom.mask.shape[d] - 1)
    return _dist_values(dist.side_d2(_side_mask(dom, side), tuple(cells.T)),
                        dom.h)
