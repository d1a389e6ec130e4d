"""Search oracles for `sobex.curves`: the full-search curve-condition scan,
kept as the oracle for the bounded one, and a Bellman-Ford relaxation for
single-pair geodesic costs.

The scan samples anchors and targets exactly as `curves._scan_once` does and
runs one unlimited single-source Dijkstra over the whole graph per anchor, as
the scan did before its searches were bounded by the running sup ratio.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from sobex.curves import GeodesicSolver, boundary_probe_points, focus_anchors


def full_scan_once(dom, p, n_pairs, seed, scales=None, focus=None):
    """(rows, per-scale sups) of one unrefined scan at dom's K."""
    rng = np.random.default_rng(seed)
    pts = boundary_probe_points(dom)
    tree = cKDTree(pts)
    if scales is None:
        diam = float(np.ptp(pts, axis=0).max())
        scales = [diam / 2**j for j in range(2, 6)]
    scales = sorted(scales, reverse=True)
    solver = GeodesicSolver(dom, None, side="complement",
                            weight=("power", p) if p > 1 else "unit")
    rows = []
    sups = []
    for s in scales:
        pair_budget = max(2, n_pairs // len(scales))
        anchors = []
        if focus is not None:
            anchors += focus_anchors(pts, tree, focus, s, pair_budget // 2, rng)
        while len(anchors) < pair_budget:
            anchors.append(int(rng.integers(len(pts))))
        sup = 0.0
        by_anchor: dict[int, list[int]] = {}
        max_targets = 128
        for a in anchors:
            cand = tree.query_ball_point(pts[a], 1.5 * s)
            cand = [c for c in cand
                    if c != a and np.linalg.norm(pts[c] - pts[a]) >= 0.75 * s]
            if not cand:
                continue
            if len(cand) > max_targets:
                pick = rng.choice(len(cand), size=max_targets, replace=False)
                cand = [cand[int(v)] for v in pick]
            by_anchor.setdefault(a, []).extend(cand)
        for a, targets in by_anchor.items():
            src = solver.snap(pts[a])
            dists, _ = solver.distances_from(src)
            for b in targets:
                tgt = solver.snap(pts[b])
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
        sups.append(sup)
    return rows, sups


def bellman_ford_cost(solver: GeodesicSolver, z1, z2) -> float:
    """Independent relaxation oracle (dense iteration to a fixed point)."""
    s = solver.snap(z1)
    t = solver.snap(z2)
    m = solver.graph.shape[0]
    coo = solver.graph.tocoo()
    edges = np.stack([coo.row, coo.col]).T
    w = coo.data
    dist = np.full(m, np.inf)
    dist[s] = 0.0
    for _ in range(m):
        nd = dist.copy()
        np.minimum.at(nd, edges[:, 1], dist[edges[:, 0]] + w)
        np.minimum.at(nd, edges[:, 0], dist[edges[:, 1]] + w)
        if np.array_equal(nd, dist):
            break
        dist = nd
    return float(dist[t])
