"""Whitney decompositions of voxel domains, the subordinate partition of
unity, and the cube-average smoothing operator.

The decomposition is built top-down: a dyadic cube is accepted as soon as
l(Q) <= dist(Q, boundary) (checked in exact integer arithmetic against the
boundary-face centroid set), subdivided otherwise, and truncated into the
collar at L_max.  The upper bound dist <= 4 sqrt(n) l(Q) then holds
automatically for accepted cubes and is asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .domain import VoxelDomain, root_tiling_level
from .dyadic import DyadicCube, box_point_dist2_int
from .errors import CollarPoint, InvalidDomain, PreconditionNotMet

SUPPORT_SHELL = 16  # support reaches l(Q)/16 beyond the cube


@dataclass
class WhitneyDecomposition:
    domain: VoxelDomain
    side: str                      # "interior" or "exterior"
    cubes: list[DyadicCube]
    d2: np.ndarray                 # exact squared distances, units 2**-scale_level
    scale_level: int
    truncation_level: int
    synthetic: np.ndarray          # cube touches the artificial outer bbox
    collar_cubes: list[DyadicCube] = field(default_factory=list)
    collar_measure: float = 0.0
    _nbrs: list[list[int]] | None = None
    _level_index: dict | None = None
    _arrays: dict = field(default_factory=dict)

    @property
    def levels(self) -> np.ndarray:
        return self._cube_arrays()[0]

    def _cube_arrays(self, collar: bool = False):
        """(levels, indices) int64 arrays of the accepted or collar cubes."""
        if collar not in self._arrays:
            cubes = self.collar_cubes if collar else self.cubes
            n = self.domain.n
            self._arrays[collar] = (
                np.array([q.level for q in cubes], dtype=np.int64),
                np.array([q.index for q in cubes],
                         dtype=np.int64).reshape(-1, n),
            )
        return self._arrays[collar]

    def side_mask(self) -> np.ndarray:
        m = self.domain.mask
        return m if self.side == "interior" else ~m

    def neighbor_graph(self) -> list[list[int]]:
        """Face-adjacency lists N(Q_i) over the accepted cubes."""
        if self._nbrs is None:
            self._nbrs = _build_neighbor_graph(self.cubes, self.scale_level)
        return self._nbrs

    def cube_lookup(self):
        """Per-level map from absolute dyadic index to cube id."""
        if self._level_index is None:
            by_level: dict[int, dict[tuple, int]] = {}
            for i, q in enumerate(self.cubes):
                by_level.setdefault(q.level, {})[q.index] = i
            self._level_index = by_level
        return self._level_index

    def min_side_level(self) -> int:
        return max(q.level for q in self.cubes)

    def to_text(self) -> str:
        lines = []
        for q, s, d2 in zip(self.cubes, self.synthetic, self.d2):
            flags = "s" if s else "-"
            lines.append(
                f"{q.level} {' '.join(str(j) for j in q.index)} {flags}"
            )
        lines.append("neighbors")
        for i, nbrs in enumerate(self.neighbor_graph()):
            for j in nbrs:
                if j > i:
                    lines.append(f"{i} {j}")
        return "\n".join(lines) + "\n"


def _integral_image(mask: np.ndarray) -> np.ndarray:
    P = mask.astype(np.int64)
    for d in range(mask.ndim):
        P = P.cumsum(axis=d)
    P = np.pad(P, [(1, 0)] * mask.ndim)
    return P


def _box_count_batch(P: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sums of the mask over the cell index boxes [lo, hi), one per row,
    clipped to the grid, via the summed table."""
    n = P.ndim
    lo = np.clip(lo, 0, np.array(P.shape) - 1)
    hi = np.clip(hi, 0, np.array(P.shape) - 1)
    total = np.zeros(len(lo), dtype=np.int64)
    for corner in range(2**n):
        sign = 1
        idx = []
        for d in range(n):
            if (corner >> d) & 1:
                idx.append(lo[:, d])
                sign = -sign
            else:
                idx.append(hi[:, d])
        total += sign * P[tuple(idx)]
    return total


def _per_level(dec: WhitneyDecomposition, collar: bool = False):
    """Yield (level, cube ids, (m, n) indices) for each level present."""
    levels, idx = dec._cube_arrays(collar)
    for k in np.unique(levels):
        pos = np.nonzero(levels == k)[0]
        yield int(k), pos, idx[pos]


def _level_counts(region: np.ndarray, P: np.ndarray, dom: VoxelDomain,
                  level: int, idx: np.ndarray) -> np.ndarray:
    """Cells of `region` inside each cube of one level: a box count on its
    summed table P down to the grid level K, and below it the region value
    of the one cell containing the cube (0 outside the grid).

    Cubes at levels <= K lie on that level's block grid inside the bbox,
    which the root tiling level guarantees.
    """
    K = dom.K
    lo_int = np.asarray(dom.lo_int, dtype=np.int64)
    if level <= K:
        f = 2 ** (K - level)
        clo = idx * f - lo_int
        return _box_count_batch(P, clo, clo + f)
    cell = (idx >> (level - K)) - lo_int
    ok = np.all((cell >= 0) & (cell < region.shape), axis=1)
    cnt = np.zeros(len(idx), dtype=np.int64)
    cnt[ok] = region[tuple(cell[ok].T)]
    return cnt


def _paint_level(mask: np.ndarray, dom: VoxelDomain, level: int,
                 idx: np.ndarray) -> None:
    """Mark the cells of the cubes of one level in a domain-grid mask.

    A cube at a level <= K marks its block of cells.  A cube below the grid
    resolution marks its cell iff it contains the cell center.
    """
    n = dom.n
    K = dom.K
    lo_int = np.asarray(dom.lo_int, dtype=np.int64)
    if level <= K:
        f = 2 ** (K - level)
        blocks = mask.reshape([m for s in mask.shape for m in (s // f, f)])
        b = idx - lo_int // f
        blocks[sum(((b[:, d], slice(None)) for d in range(n)), ())] = True
        return
    shift = level - K
    top = idx >> shift
    cell = top - lo_int
    # compare at scale 2^-level: the cell center is (2 top + 1) 2^(shift-1)
    c_scaled = (2 * top + 1) * 2 ** (shift - 1)
    hit = np.all((cell >= 0) & (cell < mask.shape)
                 & (idx <= c_scaled) & (c_scaled <= idx + 1), axis=1)
    mask[tuple(cell[hit].T)] = True


def whitney_decompose(dom: VoxelDomain, L_max: int, side: str = "interior",
                      ) -> WhitneyDecomposition:
    """Whitney decomposition of the domain (or of its complement within the
    bbox, with cubes touching the outer bbox flagged synthetic).

    Levels are processed in vectorized batches; squared distances to the
    boundary centroids are exact integers (k-nearest candidates cover the
    true minimizer whenever the k-th center distance exceeds the certified
    bound, with a per-cube ball query as the fallback).
    """
    if L_max < root_tiling_level(dom):
        raise PreconditionNotMet("L_max coarser than the bbox root tiling")
    n = dom.n
    K = dom.K
    axes_f, coords = dom.boundary_faces_doubled()
    if len(axes_f) == 0:
        raise InvalidDomain("domain has no boundary")
    from .distance import distance_transform

    field = distance_transform(dom)
    S = max(L_max, K + 1)
    shift = S - (K + 1)
    region = dom.mask if side == "interior" else ~dom.mask
    P = _integral_image(region)
    lo_int = np.asarray(dom.lo_int, dtype=np.int64)
    shape = np.asarray(dom.mask.shape, dtype=np.int64)
    bbox_lo_S = lo_int * 2 ** (S - K)
    bbox_hi_S = (lo_int + shape) * 2 ** (S - K)
    subcell_tree = None
    coords_S = coords.astype(np.int64) << shift

    accepted_idx: list[np.ndarray] = []
    accepted_lvl: list[int] = []
    acc_d2: list[np.ndarray] = []
    acc_syn: list[np.ndarray] = []
    collar: list[DyadicCube] = []
    collar_cells = 0.0

    root_level = root_tiling_level(dom)
    t = 2 ** (K - root_level)
    ranges = [
        np.arange(lo_int[d] // t, (lo_int[d] + shape[d]) // t) for d in range(n)
    ]
    cur = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, n)
    level = root_level

    while len(cur) and level <= L_max:
        cnt = _level_counts(region, P, dom, level, cur)
        full = 2 ** (max(K - level, 0) * n)
        keep = cnt > 0
        cur = cur[keep]
        cnt = cnt[keep]
        if len(cur) == 0:
            break
        ell = 2 ** (S - level)
        is_full = cnt == full
        d2 = np.zeros(len(cur), dtype=np.int64)
        if is_full.any():
            fidx = cur[is_full]
            if level <= K:
                d2[is_full] = _surface_gather_d2(fidx, level, dom, field, shift)
            else:
                if subcell_tree is None:
                    subcell_tree = cKDTree(coords_S.astype(np.float64))
                vals = np.empty(len(fidx), dtype=np.int64)
                for m, row in enumerate(fidx):
                    qlo = row * ell
                    vals[m] = _exact_box_dist2(
                        qlo, qlo + ell, subcell_tree, coords_S,
                        ell * math.sqrt(n) / 2.0,
                    )
                d2[is_full] = vals
        accept = is_full & (d2 >= ell * ell)
        if accept.any():
            assert np.all(d2[accept] <= 16 * n * ell * ell), \
                "(W3) upper bound violated"
            sel = cur[accept]
            accepted_idx.append(sel)
            accepted_lvl.append(level)
            acc_d2.append(d2[accept].copy())
            if side == "exterior":
                syn = np.zeros(len(sel), dtype=bool)
                qlo = sel * ell
                for d in range(n):
                    syn |= qlo[:, d] == bbox_lo_S[d]
                    syn |= qlo[:, d] + ell == bbox_hi_S[d]
                acc_syn.append(syn)
            else:
                acc_syn.append(np.zeros(int(accept.sum()), dtype=bool))
        rest = ~accept
        if level == L_max:
            collar = [DyadicCube(level, tuple(int(v) for v in row))
                      for row in cur[rest]]
            collar_cells = float(cnt[rest].sum()) if level <= K \
                else len(collar) * 2.0 ** (-(level - K) * n)
            break
        nxt = cur[rest]
        children = []
        for m in range(2**n):
            off = np.array([(m >> d) & 1 for d in range(n)])
            children.append(2 * nxt + off)
        cur = np.concatenate(children) if children else np.empty((0, n), int)
        level += 1

    cubes = []
    for lvl, arr in zip(accepted_lvl, accepted_idx):
        cubes += [DyadicCube(lvl, tuple(int(v) for v in row)) for row in arr]
    dec = WhitneyDecomposition(
        domain=dom,
        side=side,
        cubes=cubes,
        d2=np.concatenate(acc_d2) if acc_d2 else np.empty(0, dtype=np.int64),
        scale_level=S,
        truncation_level=L_max,
        synthetic=np.concatenate(acc_syn) if acc_syn
        else np.empty(0, dtype=bool),
        collar_cubes=collar,
        collar_measure=float(collar_cells) * dom.h**n,
    )
    return dec


def _surface_gather_d2(idx: np.ndarray, level: int, dom, field,
                       shift: int) -> np.ndarray:
    """Exact squared distances from cell-aligned cubes to the boundary
    centroid set, in units of 2**-S with S = K + 1 + shift.

    The nearest centroid to a box is the feature-transform winner at the
    lattice node where the box clamps it, and that node lies on the box
    surface; minimizing the exact integer box-to-winner distance over the
    surface nodes therefore yields the true minimum.
    """
    n = dom.n
    m = len(idx)
    lo2 = 2 * np.asarray(dom.lo_int, dtype=np.int64)
    side = 2 ** (dom.K + 1 - level)          # cube side in doubled units
    corner_abs = idx.astype(np.int64) * side  # absolute doubled coordinates
    base = corner_abs - lo2                   # lattice array offsets
    out = np.full(m, np.iinfo(np.int64).max, dtype=np.int64)
    rng = np.arange(side + 1, dtype=np.int64)
    grids = np.meshgrid(*[rng] * (n - 1), indexing="ij") if n > 1 else []
    face_pts = np.stack([g.ravel() for g in grids], axis=-1)
    npts = len(face_pts)
    cube_ids = np.repeat(np.arange(m), npts)
    lo_abs = corner_abs[cube_ids]
    hi_abs = lo_abs + side
    for d in range(n):
        others = [a for a in range(n) if a != d]
        for offset in (0, side):
            nodes = np.empty((m * npts, n), dtype=np.int64)
            nodes[:, d] = np.repeat(base[:, d] + offset, npts)
            for j, a in enumerate(others):
                nodes[:, a] = (base[:, a][:, None] + face_pts[:, j]).ravel()
            winners = np.stack(
                [field.feature[a][tuple(nodes.T)].astype(np.int64) + lo2[a]
                 for a in range(n)], axis=-1
            )
            gap = np.maximum(lo_abs - winners, 0) + np.maximum(
                winners - hi_abs, 0
            )
            d2 = (gap * gap).sum(axis=1)
            np.minimum.at(out, cube_ids, d2)
    return out << (2 * shift)


def exterior_whitney(dom: VoxelDomain, L_max: int) -> WhitneyDecomposition:
    """Whitney decomposition of bbox-minus-closure; the margin built into the
    domain bbox should be at least diam(support) for the dilation logic."""
    return whitney_decompose(dom, L_max, side="exterior")


def _exact_box_dist2(qlo, qhi, tree: cKDTree, coords_S: np.ndarray,
                     half_diag: float) -> int:
    """Exact min squared distance from an integer box to the centroid set,
    using the KD-tree only to prune candidates."""
    ctr = [(a + b) / 2.0 for a, b in zip(qlo, qhi)]
    _, j = tree.query(ctr)
    best = box_point_dist2_int(qlo, qhi, coords_S[j].tolist())
    r = math.sqrt(best) + half_diag
    cand = tree.query_ball_point(ctr, r * (1.0 + 1e-12) + 1e-9)
    pts = coords_S[cand]
    d2 = np.zeros(len(pts), dtype=np.int64)
    for d in range(len(qlo)):
        gap = np.maximum(qlo[d] - pts[:, d], 0) + np.maximum(pts[:, d] - qhi[d], 0)
        d2 += gap * gap
    return int(d2.min())


def _build_neighbor_graph(cubes: list[DyadicCube], S: int) -> list[list[int]]:
    """Face adjacency via dyadic containment: two cube faces on a common
    plane overlap iff one cross-section contains the other, so each face
    only needs ancestor lookups on the opposing side."""
    n = cubes[0].n if cubes else 0
    # (axis, plane_at_scale_S, side, level, cross_index) -> cube id
    table: dict[tuple, int] = {}
    for i, q in enumerate(cubes):
        k = q.level
        for d in range(n):
            cross = tuple(q.index[a] for a in range(n) if a != d)
            plane_lo = q.index[d] * 2 ** (S - k)
            plane_hi = (q.index[d] + 1) * 2 ** (S - k)
            table[(d, plane_lo, -1, k, cross)] = i
            table[(d, plane_hi, +1, k, cross)] = i
    nbrs: list[set[int]] = [set() for _ in cubes]
    max_up = 3  # (W4) neighbors differ by <= 2 levels; search one extra
    for i, q in enumerate(cubes):
        k = q.level
        for d in range(n):
            cross = tuple(q.index[a] for a in range(n) if a != d)
            for plane, want_side in (
                (q.index[d] * 2 ** (S - k), +1),
                ((q.index[d] + 1) * 2 ** (S - k), -1),
            ):
                c = cross
                for up in range(0, max_up + 1):
                    kk = k - up
                    if kk < 0:
                        break
                    j = table.get((d, plane, want_side, kk, c))
                    if j is not None and j != i:
                        nbrs[i].add(j)
                        nbrs[j].add(i)
                    c = tuple(v >> 1 for v in c)
    return [sorted(s) for s in nbrs]


def audit_whitney(dec: WhitneyDecomposition) -> dict:
    """Exact audit of (W1)-(W4); returns per-property pass flags and stats."""
    from fractions import Fraction

    dom = dec.domain
    n = dom.n
    S = dec.scale_level
    region = dec.side_mask()
    P = _integral_image(region)
    w1 = w2 = w3 = w4 = True
    # (W1): dyadic by construction; all covered cells in the region and
    # positive distance to the boundary centroids.  (W3) in exact integers.
    vol = Fraction(0)
    for k, pos, idx in _per_level(dec):
        cnt = _level_counts(region, P, dom, k, idx)
        if not np.all(cnt == 2 ** (max(dom.K - k, 0) * n)):
            w1 = False
        ell = 2 ** (S - k)
        dk = dec.d2[pos]
        if np.any(dk <= 0):
            w1 = False
        if not np.all((ell * ell <= dk) & (dk <= 16 * n * ell * ell)):
            w3 = False
        vol += len(pos) * Fraction(1, 2 ** (k * n))
    # (W2): no cube is an ancestor of another, and volumes account for the
    # region up to the collar
    ids = set((q.level, q.index) for q in dec.cubes)
    for q in dec.cubes:
        cur = q
        while cur.level > 0:
            cur = cur.parent()
            if (cur.level, cur.index) in ids:
                w2 = False
                break
    collar_vol = Fraction(0)
    for k, pos, idx in _per_level(dec, collar=True):
        if k <= dom.K:
            cells = int(_level_counts(region, P, dom, k, idx).sum())
            collar_vol += Fraction(cells, 2 ** (dom.K * n))
        else:
            collar_vol += Fraction(len(pos), 2 ** (k * n))
    region_vol = Fraction(int(region.sum()), 2 ** (dom.K * n))
    if vol + collar_vol != region_vol:
        w2 = False
    # (W4) over the face-adjacency graph
    for i, nbrs in enumerate(dec.neighbor_graph()):
        for j in nbrs:
            if abs(dec.cubes[i].level - dec.cubes[j].level) > 2:
                w4 = False
    return {
        "W1": w1,
        "W2": w2,
        "W3": w3,
        "W4": w4,
        "cubes": len(dec.cubes),
        "collar_measure": dec.collar_measure,
        "levels": dict(zip(*np.unique(dec.levels, return_counts=True)))
        if dec.cubes else {},
    }


# ---------------------------------------------------------------------------
# partition of unity
# ---------------------------------------------------------------------------


class PartitionOfUnity:
    """C1 plateau bumps phi_i (1 on the cube, cubic decay over an l/16
    Euclidean shell) renormalized to psi_i = phi_i / sum phi_j."""

    def __init__(self, dec: WhitneyDecomposition):
        self.dec = dec
        self._boxes, self._radii = _cube_boxes(dec)

    def candidates(self, x) -> list[int]:
        """Cube ids whose support can contain the point."""
        lookup = self.dec.cube_lookup()
        n = self.dec.domain.n
        out = []
        for level, idx_map in lookup.items():
            s = 2.0**-level
            base = [int(np.floor(x[d] / s)) for d in range(n)]
            for off in _OFFSETS[n]:
                key = tuple(base[d] + off[d] for d in range(n))
                i = idx_map.get(key)
                if i is not None:
                    out.append(i)
        return out

    def evaluate(self, x) -> list[tuple[int, float]]:
        """Nonzero (cube id, psi_i(x)) pairs; raises CollarPoint when x lies
        in the domain but outside the covered region."""
        x = np.asarray(x, dtype=float)
        cand = self.candidates(x)
        vals = []
        covered = False
        for i in cand:
            phi = float(_bump(self._boxes[i], self._radii[i], x))
            if _point_in_closed_box(x, self._boxes[i], self.dec.domain.n):
                covered = True
            if phi > 0.0:
                vals.append((i, phi))
        if not covered:
            cell = tuple(
                int(np.floor(x[d] / self.dec.domain.h)) - self.dec.domain.lo_int[d]
                for d in range(self.dec.domain.n)
            )
            inside = all(
                0 <= cell[d] < self.dec.domain.mask.shape[d]
                for d in range(self.dec.domain.n)
            ) and bool(self.dec.side_mask()[cell])
            if inside:
                raise CollarPoint(f"point {tuple(x)} lies in the truncation collar")
            raise PreconditionNotMet(f"point {tuple(x)} is outside the region")
        total = sum(v for _, v in vals)
        return [(i, v / total) for i, v in vals]

    def gradient_constant(self, max_cubes: int = 400, seed: int = 0) -> float:
        """Measured sup |grad psi_i| * l(Q_i) over structured probe lines
        crossing each cube face; reported, not asserted."""
        rng = np.random.default_rng(seed)
        ids = np.arange(len(self.dec.cubes))
        if len(ids) > max_cubes:
            ids = rng.choice(ids, size=max_cubes, replace=False)
        n = self.dec.domain.n
        best = 0.0
        for i in ids:
            q = self.dec.cubes[i]
            ell = float(q.side)
            r = ell / SUPPORT_SHELL
            ctr = np.array([float(v) for v in q.center()])
            step = ell / 512.0
            pts = []
            ts = np.linspace(-ell / 3.0, 1.5 * r, 25)
            for d in range(n):
                for sgn in (-1.0, 1.0):
                    line = np.repeat(ctr[None, :], len(ts), axis=0)
                    line[:, d] += sgn * (ell / 2.0 + ts)
                    pts.append(line)
            pts = np.concatenate(pts, axis=0)
            stencil = [pts]
            for d in range(n):
                for sgn in (1.0, -1.0):
                    shifted = pts.copy()
                    shifted[:, d] += sgn * step
                    stencil.append(shifted)
            allpts = np.concatenate(stencil, axis=0)
            psi = self._psi_on_points(i, allpts)
            m = len(pts)
            g2 = np.zeros(m)
            for d in range(n):
                vp = psi[(1 + 2 * d) * m:(2 + 2 * d) * m]
                vm = psi[(2 + 2 * d) * m:(3 + 2 * d) * m]
                g2 += ((vp - vm) / (2 * step)) ** 2
            best = max(best, float(np.sqrt(g2.max())) * ell)
        return best

    def _psi_on_points(self, i: int, pts: np.ndarray) -> np.ndarray:
        """psi_i over an array of points, vectorized over candidate cubes."""
        n = self.dec.domain.n
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        boxes, radii = self._boxes, self._radii
        cand = np.ones(len(boxes), dtype=bool)
        for d in range(n):
            cand &= boxes[:, d] - radii <= hi[d]
            cand &= boxes[:, n + d] + radii >= lo[d]
        total = np.zeros(len(pts))
        mine = np.zeros(len(pts))
        for j in np.nonzero(cand)[0]:
            phi = _bump(boxes[j], radii[j], pts.T)
            total += phi
            if j == i:
                mine = phi
        with np.errstate(invalid="ignore"):
            out = np.where(total > 0, mine / np.where(total > 0, total, 1.0), 0.0)
        return out


def _cube_boxes(dec: WhitneyDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Per cube the float box [lo..., hi...] and the support shell width
    l/16; both are exact dyadic floats."""
    levels, idx = dec._cube_arrays()
    k = -levels[:, None]
    boxes = np.hstack([np.ldexp(idx, k), np.ldexp(idx + 1, k)])
    return boxes, np.ldexp(1.0, -levels) / SUPPORT_SHELL


def _bump(box: np.ndarray, r: float, x) -> np.ndarray:
    """C1 plateau bump of one cube at the points whose per-axis coordinates
    are the (broadcastable) arrays x[0..n-1]: 1 on the box, 1 - t^2 (3 - 2t)
    at t = dist/r < 1 outside it, 0 beyond."""
    n = len(box) // 2
    d2 = 0.0
    for d in range(n):
        gap = (np.maximum(box[d] - x[d], 0.0)
               + np.maximum(x[d] - box[n + d], 0.0))
        d2 = d2 + gap * gap
    t = np.sqrt(d2) / r
    return np.where(t >= 1.0, 0.0, 1.0 - t * t * (3.0 - 2.0 * t))


_OFFSETS = {
    2: [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)],
    3: [(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)],
}


def _point_in_closed_box(x, box, n) -> bool:
    return all(box[d] <= x[d] <= box[n + d] for d in range(n))


# ---------------------------------------------------------------------------
# smoothing operator
# ---------------------------------------------------------------------------


@dataclass
class SmoothedIndicator:
    dec: WhitneyDecomposition
    a: np.ndarray            # cube averages in [0,1]
    h_eval: float
    grid_lo: tuple[float, ...]
    u: np.ndarray
    grad: np.ndarray         # (n, ...) central differences
    covered: np.ndarray      # points inside the cube union
    grad_valid: np.ndarray   # full central-difference stencil covered


def cube_averages(dec: WhitneyDecomposition, F_mask: np.ndarray) -> np.ndarray:
    """a_i = |F n Q_i| / |Q_i| for a set given on the domain grid."""
    dom = dec.domain
    P = _integral_image(F_mask)
    out = np.empty(len(dec.cubes))
    for k, pos, idx in _per_level(dec):
        out[pos] = _level_counts(F_mask, P, dom, k, idx) \
            / 2 ** (max(dom.K - k, 0) * dom.n)
    return out


# num, den and u (8 B each), the gradient (8n B) and the two coverage masks
# (1 B each) per evaluation cell may take at most this many bytes together
SMOOTH_BUDGET_BYTES = 4 * 2**30


def smooth_indicator(dec: WhitneyDecomposition, F_mask: np.ndarray,
                     eval_level: int | None = None) -> SmoothedIndicator:
    """u = sum_i psi_i * a_i sampled on a uniform evaluation grid with
    spacing l(Q_min)/8 (overridable), gradient by central differences.
    Grids over SMOOTH_BUDGET_BYTES are refused before allocation."""
    dom = dec.domain
    n = dom.n
    a = cube_averages(dec, F_mask)
    if eval_level is None:
        eval_level = dec.min_side_level() + 3
    h_eval = 2.0**-eval_level
    boxes, radii = _cube_boxes(dec)
    # the grid only needs to cover the cube union (plus the support shells)
    lo = np.floor(boxes[:, :n].min(axis=0) / h_eval).astype(int) - 2
    hi = np.ceil(boxes[:, n:].max(axis=0) / h_eval).astype(int) + 2
    shape = tuple(int(v) for v in hi - lo)
    need = math.prod(shape) * (8 * (3 + n) + 2)
    if need > SMOOTH_BUDGET_BYTES:
        raise PreconditionNotMet(
            f"smoothing grid {shape} needs {need / 2**30:.1f} GiB, over the "
            f"{SMOOTH_BUDGET_BYTES / 2**30:g} GiB budget")
    axes = [(np.arange(s) + lo[d] + 0.5) * h_eval for d, s in enumerate(shape)]
    num = np.zeros(shape)
    den = np.zeros(shape)
    i0 = [np.searchsorted(axes[d], boxes[:, d] - radii) for d in range(n)]
    i1 = [np.searchsorted(axes[d], boxes[:, n + d] + radii) for d in range(n)]
    for i in range(len(boxes)):
        sel = tuple(slice(i0[d][i], i1[d][i]) for d in range(n))
        sub = [axes[d][sel[d]] for d in range(n)]
        if any(s.size == 0 for s in sub):
            continue
        phi = _bump(boxes[i], radii[i], np.ix_(*sub))
        num[sel] += a[i] * phi
        den[sel] += phi
    covered = den > 0.0
    u = np.where(covered, num / np.where(covered, den, 1.0), 0.0)
    grad = np.stack(np.gradient(u, h_eval), axis=0)
    structure = ndimage.generate_binary_structure(n, 1)
    grad_valid = ndimage.binary_erosion(covered, structure=structure)
    return SmoothedIndicator(dec, a, h_eval,
                             tuple(float(v) * h_eval for v in lo),
                             u, grad, covered, grad_valid)


def gradient_energy(si: SmoothedIndicator, p: float) -> float:
    """Integral of |grad u|^p over the covered region."""
    g2 = np.zeros(si.u.shape)
    for d in range(si.grad.shape[0]):
        g2 += si.grad[d] ** 2
    vals = g2[si.grad_valid] ** (p / 2.0)
    return float(vals.sum()) * si.h_eval ** si.u.ndim


# ---------------------------------------------------------------------------
# capacity-type lower bound checker
# ---------------------------------------------------------------------------


@dataclass
class CapacityReport:
    energy: float
    reference: float
    ratio: float
    floor: float
    passed: bool


def capacity_check(f: np.ndarray, side: float, delta: float, p: float,
                   floor: float = 1e-3) -> CapacityReport:
    """Gradient-energy lower bound for a function crossing levels 0 and 1 on
    a cube: requires both sublevel sets to fill more than delta of the cube,
    then compares the p-energy against delta^((n-p)/n) * side^(n-p)."""
    n = f.ndim
    m = f.shape[0]
    cellvol = (side / m) ** n
    low = float(np.sum(f <= 0.0)) * cellvol
    high = float(np.sum(f >= 1.0)) * cellvol
    if min(low, high) <= delta * side**n:
        raise PreconditionNotMet(
            f"level sets fill min {min(low, high):.3g}, need > {delta * side ** n:.3g}"
        )
    grads = np.gradient(f, side / m)
    g2 = np.zeros(f.shape)
    for g in np.atleast_2d(grads) if n == 1 else grads:
        g2 += g * g
    energy = float(np.sum(g2 ** (p / 2.0))) * cellvol
    reference = delta ** ((n - p) / n) * side ** (n - p)
    ratio = energy / reference
    return CapacityReport(energy, reference, ratio, floor, ratio >= floor)
