"""Correctness checks of the benchmark.

Each check recomputes a quantity apart from the program (faces by differencing
masks, distances by KD-tree or brute force, shortest paths by relaxation,
segment distances in exact rationals) or tests a property the method must
have.  None compares against stored output.  Every function takes plain
records made from the program's results and returns a list of failure
messages, empty when the check passes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

# ---------------------------------------------------------------------------
# faces and distances by differencing masks
# ---------------------------------------------------------------------------


def _face_centroids(diff_sel: np.ndarray, d: int, lo_int, h: float) -> np.ndarray:
    """Centroids of faces perpendicular to axis d, given a selection over the
    face positions of a mask padded by one cell on both sides of axis d."""
    idx = np.argwhere(diff_sel).astype(np.float64)
    out = np.empty_like(idx)
    for a in range(idx.shape[1]):
        if a == d:
            out[:, a] = (idx[:, a] + lo_int[a]) * h
        else:
            out[:, a] = (idx[:, a] + lo_int[a] + 0.5) * h
    return out


def _pad_axis(mask: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Cells on the low and high side of every face perpendicular to axis d
    (outside the array counts as empty)."""
    pad = [(1, 1) if a == d else (0, 0) for a in range(mask.ndim)]
    m = np.pad(mask, pad)
    lo = tuple(slice(0, -1) if a == d else slice(None) for a in range(mask.ndim))
    hi = tuple(slice(1, None) if a == d else slice(None) for a in range(mask.ndim))
    return m[lo], m[hi]


def boundary_centroids(dom_mask: np.ndarray, lo_int, h: float) -> np.ndarray:
    """Centroids of the domain's discrete boundary: in/out faces plus the
    bbox faces of in-cells."""
    parts = []
    for d in range(dom_mask.ndim):
        a, b = _pad_axis(dom_mask, d)
        parts.append(_face_centroids(a != b, d, lo_int, h))
    return np.concatenate(parts)


def interior_weighted_sum(dom_mask, set_mask, lo_int, K: int, p: float,
                          tree: cKDTree) -> float:
    """Sum of dist^(1-p) * face area over the faces of A with the domain on
    both sides, dist measured to the nearest boundary face centroid."""
    h = 2.0**-K
    n = dom_mask.ndim
    total = 0.0
    for d in range(n):
        a_lo, a_hi = _pad_axis(set_mask, d)
        o_lo, o_hi = _pad_axis(dom_mask, d)
        cen = _face_centroids((a_lo != a_hi) & o_lo & o_hi, d, lo_int, h)
        if len(cen):
            dist, _ = tree.query(cen)
            total += float(np.sum(dist ** (1.0 - p)))
    return total * h ** (n - 1)


def voxel_perimeter(mask: np.ndarray, K: int) -> float:
    h = 2.0**-K
    faces = 0
    for d in range(mask.ndim):
        a, b = _pad_axis(mask, d)
        faces += int(np.count_nonzero(a != b))
    return faces * h ** (mask.ndim - 1)


# ---------------------------------------------------------------------------
# extension rows
# ---------------------------------------------------------------------------


def check_extension_row(row: dict, tree: cKDTree) -> list[str]:
    """A~ n Omega = A bitwise, lhs_int == rhs exactly, rhs equal to the
    benchmark's own face sum to 1e-9 relative."""
    tag = f"{row['case']} K={row['K']} p={row['p']}"
    fails = []
    dom, A, tilde = row["dom_mask"], row["A_mask"], row["tilde_mask"]
    if not np.array_equal(tilde & dom, A):
        fails.append(f"{tag}: A~ n Omega != A")
    if row["lhs_int"] != row["rhs"]:
        fails.append(f"{tag}: lhs_int {row['lhs_int']!r} != rhs {row['rhs']!r}")
    own = interior_weighted_sum(dom, A, row["lo_int"], row["K"], row["p"], tree)
    if not abs(row["rhs"] - own) <= 1e-9 * abs(own):
        fails.append(f"{tag}: rhs {row['rhs']!r} vs own sum {own!r}")
    return fails


def check_ratio_stability(rows: list[dict]) -> list[str]:
    """Finite ratio, and at most 20% change from K to K+1 per case and p."""
    fails = []
    by = {(r["case"], r["K"], r["p"]): r["ratio"] for r in rows}
    for (case, K, p), ratio in by.items():
        if not math.isfinite(ratio):
            fails.append(f"{case} K={K} p={p}: ratio {ratio!r} not finite")
            continue
        nxt = by.get((case, K + 1, p))
        if nxt is not None and math.isfinite(nxt) and abs(nxt / ratio - 1.0) > 0.20:
            fails.append(f"{case} p={p}: ratio moves {ratio!r} -> {nxt!r}")
    return fails


# ---------------------------------------------------------------------------
# Whitney volume accounting
# ---------------------------------------------------------------------------


def check_whitney_volume(dec: dict) -> list[str]:
    """Cube volumes plus the collar's region part equal the region measure,
    summed exactly with Fraction; each region cell is covered exactly once
    and no cube reaches outside the region."""
    region = dec["region"]
    K, lo_int, n = dec["K"], dec["lo_int"], region.ndim
    tag = dec["name"]
    levels, index = dec["levels"], dec["index"]
    vol = Fraction(0)
    for k, cnt in zip(*np.unique(levels, return_counts=True)):
        vol += Fraction(int(cnt), 2 ** (int(k) * n))
    S = max([K] + [int(v) for v in levels] + [int(v) for v in dec["collar_levels"]])
    unit = 2 ** ((S - K) * n)               # one cell in units of the finest cube
    cover = np.zeros(region.shape, dtype=np.int64)
    outside = False
    for cubes, is_collar in ((zip(levels, index), False),
                             (zip(dec["collar_levels"], dec["collar_index"]), True)):
        for k, idx in cubes:
            k = int(k)
            if k <= K:
                f = 2 ** (K - k)
                sl = tuple(slice(int(idx[d]) * f - lo_int[d],
                                 (int(idx[d]) + 1) * f - lo_int[d]) for d in range(n))
                if any(s.start < 0 or s.stop > region.shape[d]
                       for d, s in enumerate(sl)):
                    outside = True
                    continue
                if is_collar:
                    part = region[sl]
                    cover[sl] += unit * part
                    vol += Fraction(int(part.sum()), 2 ** (K * n))
                else:
                    if not region[sl].all():
                        outside = True
                    cover[sl] += unit
            else:
                cell = tuple((int(idx[d]) >> (k - K)) - lo_int[d] for d in range(n))
                if not all(0 <= cell[d] < region.shape[d] for d in range(n)) \
                        or not region[cell]:
                    outside = True
                    continue
                cover[cell] += 2 ** ((S - k) * n)
                if is_collar:
                    vol += Fraction(1, 2 ** (k * n))
    fails = []
    if outside:
        fails.append(f"{tag}: a cube reaches outside the region")
    if vol != Fraction(int(region.sum()), 2 ** (K * n)):
        fails.append(f"{tag}: cubes + collar = {vol} != region measure")
    if not (np.all(cover[region] == unit) and not cover[~region].any()):
        fails.append(f"{tag}: region cells not covered exactly once")
    return fails


def check_audit(name: str, audit: dict) -> list[str]:
    bad = [k for k in ("W1", "W2", "W3", "W4") if not audit[k]]
    return [f"{name}: audit fails {bad}"] if bad else []


# ---------------------------------------------------------------------------
# Jordan loops
# ---------------------------------------------------------------------------


def check_jordan(rec: dict) -> list[str]:
    """Loop lengths sum to the perimeter, signed areas sum to |A|, every loop
    is simple, a parent has the opposite orientation and encloses more area,
    and loops without a parent run counterclockwise."""
    mask, K = rec["mask"], rec["K"]
    h = 2.0**-K
    loops = rec["loops"]
    tag = f"jordan set {rec['set']}"
    fails = []
    total_len = sum(lp["length"] for lp in loops)
    if total_len != voxel_perimeter(mask, K):
        fails.append(f"{tag}: loop lengths {total_len!r} != perimeter")
    area = 0.0
    for j, lp in enumerate(loops):
        c = lp["corners"]                      # closed polyline, integer units
        a2 = int(np.sum(c[:-1, 0] * c[1:, 1] - c[1:, 0] * c[:-1, 1]))
        if a2 * h * h / 2.0 != lp["signed_area"]:
            fails.append(f"{tag}: loop {j} signed area disagrees with its corners")
        area += lp["signed_area"]
        if len({tuple(v) for v in c[:-1].tolist()}) != len(c) - 1 \
                or tuple(c[0]) != tuple(c[-1]):
            fails.append(f"{tag}: loop {j} is not a simple closed loop")
        par = lp["parent"]
        if par is None:
            if lp["signed_area"] <= 0:
                fails.append(f"{tag}: outermost loop {j} runs clockwise")
        elif (par == j or (loops[par]["signed_area"] > 0) == (lp["signed_area"] > 0)
              or abs(loops[par]["signed_area"]) <= abs(lp["signed_area"])):
            fails.append(f"{tag}: loop {j} has an inconsistent parent {par}")
    if area != int(mask.sum()) * h * h:
        fails.append(f"{tag}: signed areas {area!r} != |A|")
    return fails


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


def check_slab(c_far: float, c_near: float, p: float) -> list[str]:
    """Vertical drop 0.25 -> 1 below a half-plane costs 2(1 - 1/2) = 1, and
    halving the scale multiplies the cost by (1/2)^(2-p)."""
    fails = []
    if abs(c_far - 1.0) > 0.05:
        fails.append(f"slab: vertical-drop cost {c_far!r} not within 5% of 1")
    cov = c_near / c_far / 0.5 ** (2.0 - p)
    if abs(cov - 1.0) > 0.03:
        fails.append(f"slab: scale covariance {cov!r} not within 3% of 1")
    return fails


def relaxation_costs(mask: np.ndarray, K: int, lo_int, p: float, src: int):
    """Single-source costs over the 8-connected cell lattice of `mask` with
    edge cost length * mean(dist^(1-p)), by repeated relaxation.  Distances
    come from brute force over the boundary face centroids."""
    h = 2.0**-K
    n = mask.ndim
    cells = np.argwhere(mask)
    cen2 = 2 * (cells + np.asarray(lo_int)) + 1          # doubled coordinates
    bc2 = np.rint(boundary_centroids(mask, lo_int, h) / (h / 2)).astype(np.int64)
    d2 = np.full(len(cells), np.iinfo(np.int64).max)
    for b in bc2:
        d2 = np.minimum(d2, ((cen2 - b) ** 2).sum(axis=1))
    w = (np.sqrt(d2.astype(np.float64)) * (h / 2.0)) ** (1.0 - p)
    ids = np.full(mask.shape, -1, dtype=np.int64)
    ids[tuple(cells.T)] = np.arange(len(cells))
    rows, cols, cost = [], [], []
    for off in ((1, 0), (0, 1), (1, 1), (1, -1)):
        for (i, j), m in zip(cells, range(len(cells))):
            a, b = i + off[0], j + off[1]
            if 0 <= a < mask.shape[0] and 0 <= b < mask.shape[1] and mask[a, b]:
                t = ids[a, b]
                rows.append(m)
                cols.append(t)
                cost.append(math.sqrt(off[0] ** 2 + off[1] ** 2) * h
                            * (0.5 * (w[m] + w[t])))
    rows, cols, cost = np.array(rows), np.array(cols), np.array(cost)
    dist = np.full(len(cells), np.inf)
    dist[src] = 0.0
    for _ in range(len(cells)):
        nd = dist.copy()
        np.minimum.at(nd, cols, dist[rows] + cost)
        np.minimum.at(nd, rows, dist[cols] + cost)
        if np.array_equal(nd, dist):
            break
        dist = nd
    return dist


def check_dijkstra_small(rec: dict) -> list[str]:
    """Dijkstra costs from one source equal an independent relaxation."""
    ref = relaxation_costs(rec["mask"], rec["K"], rec["lo_int"], rec["p"], rec["src"])
    got = rec["costs"]
    fin = np.isfinite(ref)
    if not np.array_equal(fin, np.isfinite(got)):
        return ["small grid: reachable sets differ from the relaxation"]
    err = np.abs(got[fin] - ref[fin])
    if np.any(err > 1e-12 * np.maximum(ref[fin], 1.0)):
        return [f"small grid: Dijkstra differs from the relaxation by {err.max():.3e}"]
    return []


def check_path(name: str, rec: dict) -> list[str]:
    """A lattice path of neighbouring cells on the searched side whose cost is
    the sum of its edge costs."""
    v = rec["vertices"]
    h = rec["h"]
    fails = []
    if len(v) < 2:
        return [f"{name}: empty path"]
    steps = np.abs(np.diff(v, axis=0)) / h
    if not np.all(np.isclose(steps, np.rint(steps)) & (np.rint(steps) <= 1)):
        fails.append(f"{name}: consecutive vertices are not lattice neighbours")
    if not rec["on_side"]:
        fails.append(f"{name}: path leaves the searched side")
    total = float(np.sum(rec["edge_lengths"] * rec["edge_weights"]))
    if not abs(total - rec["cost"]) <= 1e-9 * rec["cost"]:
        fails.append(f"{name}: cost {rec['cost']!r} != edge sum {total!r}")
    return fails


def check_disk_scan(sups: list[float]) -> list[str]:
    pos = [s for s in sups if s > 0]
    if len(pos) < 3 or max(pos) / min(pos) > 4.0:
        return [f"disk scan: sup ratios {sups} not within a factor 4"]
    return []


def check_cusp_growth(coarse: list[float], refined: list[float]) -> list[str]:
    growth = [refined[j + 1] / coarse[j] if coarse[j] > 0 else 0.0
              for j in range(len(coarse) - 1)]
    if not all(g >= 1.2 for g in growth[-3:]):
        return [f"cusp scan: refined-over-coarse growth {growth} below 1.2"]
    return []


# ---------------------------------------------------------------------------
# Cantor tubes
# ---------------------------------------------------------------------------


def _harmonic(m: int) -> float:
    return sum(1.0 / i for i in range(1, m + 1))


def check_cantor_constants(rec: dict) -> list[str]:
    """|C_m| = exp(-3 H_m) to 5e-13 relative (e^-4.5 at depth 2), and
    c_0 = e_1/8, c_n = c_{n-1}/64 exactly."""
    m = rec["depth"]
    fails = []
    rel = abs(float(rec["measure"]) / math.exp(-3.0 * _harmonic(m)) - 1.0)
    if not rel < 5e-13:
        fails.append(f"cantor: |C_{m}| relative error {rel:.2e}")
    c, e = rec["c"], rec["e"]
    if c[0] != e[1] / 8 or any(c[k] != c[k - 1] / 64 for k in range(1, m + 1)):
        fails.append("cantor: the c_n recursion does not hold")
    return fails


def _seg_gap2(a, b, c, d) -> Fraction:
    """Squared distance of two axis-parallel segments as boxes, exactly."""
    total = Fraction(0)
    for k in range(3):
        lo1, hi1 = sorted((a[k], b[k]))
        lo2, hi2 = sorted((c[k], d[k]))
        gap = max(lo2 - hi1, lo1 - hi2, Fraction(0))
        total += gap * gap
    return total


def check_tube_separation(curves: list, c1: Fraction) -> list[str]:
    """Level-1 curves keep pairwise distance >= 2 c_1 (exact rationals)."""
    bound = (2 * c1) ** 2
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            for a, b in zip(curves[i], curves[i][1:]):
                for c, d in zip(curves[j], curves[j][1:]):
                    if _seg_gap2(a, b, c, d) < bound:
                        return [f"cantor: level-1 curves {i},{j} closer than 2c_1"]
    return []


def check_window(mask: np.ndarray, K: int, lo_int, c1: float) -> list[str]:
    """The voxelized window holds exactly 8 tube components, pairwise at
    least c_1 apart on the grid."""
    lab, ncomp = ndimage.label(~mask)
    if ncomp != 8:
        return [f"cantor window: {ncomp} tube components, expected 8"]
    h = 2.0**-K
    pts = [(np.argwhere(lab == c) + np.asarray(lo_int) + 0.5) * h
           for c in range(1, 9)]
    sep = math.inf
    for a in range(8):
        tree = cKDTree(pts[a])
        for b in range(a + 1, 8):
            sep = min(sep, float(tree.query(pts[b], k=1)[0].min()))
    if sep < c1:
        return [f"cantor window: grid separation {sep:.3e} < c_1 = {c1:.3e}"]
    return []


def check_spec_text(text_head: str, split_records: int, pieces: int) -> list[str]:
    fails = []
    if not text_head.startswith("CANTOR1\n"):
        fails.append("cantor text: missing CANTOR1 header")
    if split_records != pieces:
        fails.append(f"cantor text: {split_records} split records for {pieces} pieces")
    return fails
