"""Whitney decompositions of voxel domains, the subordinate partition of
unity, and the cube-average smoothing operator.

The decomposition is built top-down: a dyadic cube is accepted as soon as
l(Q) <= dist(Q, boundary) (checked in exact integer arithmetic against the
boundary-face centroid set), subdivided otherwise, and truncated into the
collar at L_max.  The upper bound dist <= 4 sqrt(n) l(Q) then holds
automatically for accepted cubes and is asserted.  Both questions asked of
a cube, how many region cells it holds and how far it is from the
boundary, are answered a level at a time over arrays: the first by box
counts on the domain's kept, bounding-box summed-area table, the second
by `DistanceField.box_d2`, whose KD-tree the extension's face reads share.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .distance import distance_transform
from .domain import VoxelDomain, _mask_bounds, root_tiling_level
from .dyadic import DyadicCube, box_point_d2
from .errors import PreconditionNotMet

SUPPORT_SHELL = 16  # support reaches l(Q)/16 beyond the cube
# A summed-area table may take at most this many bytes; its int32 counts
# then stay below 2^31.
TABLE_BUDGET_BYTES = 4 * 2**30


@dataclass
class WhitneyDecomposition:
    """The accepted cubes (and the truncation collar) as int64 arrays: cube
    i is the dyadic cube of level levels[i] and index index[i]."""
    domain: VoxelDomain
    side: str                      # "interior" or "exterior"
    levels: np.ndarray             # (m,) cube levels
    index: np.ndarray              # (m, n) cube indices
    d2: np.ndarray                 # exact squared distances, units 2**-scale_level
    scale_level: int
    truncation_level: int
    synthetic: np.ndarray          # cube touches the artificial outer bbox
    collar_levels: np.ndarray
    collar_index: np.ndarray
    collar_measure: float = 0.0

    @functools.cached_property
    def cubes(self) -> list[DyadicCube]:
        return _cube_views(self.levels, self.index)

    @functools.cached_property
    def collar_cubes(self) -> list[DyadicCube]:
        return _cube_views(self.collar_levels, self.collar_index)

    @functools.cached_property
    def _tables(self) -> dict:
        """Per level: the cube ids sorted by their indices raveled in the
        bounding index box (lo, span) of the level."""
        tables = {}
        for k in np.unique(self.levels).tolist():
            ids = np.nonzero(self.levels == k)[0]
            lo = self.index[ids].min(axis=0)
            span = self.index[ids].max(axis=0) - lo + 1
            keys = np.ravel_multi_index(tuple((self.index[ids] - lo).T), span)
            order = np.argsort(keys)
            tables[k] = (lo, span, keys[order], ids[order])
        return tables

    def _find(self, level: int, idx: np.ndarray) -> np.ndarray:
        """Ids of the cubes of `level` at the (m, n) indices, -1 where the
        decomposition has no such cube."""
        out = np.full(len(idx), -1, dtype=np.int64)
        if level not in self._tables:
            return out
        lo, span, keys, ids = self._tables[level]
        cell = idx - lo
        ok = np.nonzero(np.all((cell >= 0) & (cell < span), axis=1))[0]
        key = np.ravel_multi_index(tuple(cell[ok].T), span)
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        hit = keys[at] == key
        out[ok[hit]] = ids[at[hit]]
        return out

    @functools.cached_property
    def _adjacent(self) -> tuple[np.ndarray, np.ndarray]:
        """Face-adjacent pairs (i, j), i < j, sorted.  A cube Q of level k
        meets a cube of level k' <= k across a face iff that cube contains
        the level-k cell beyond the face and not Q; so each face looks up
        that cell's ancestor on every coarser level."""
        n = self.domain.n
        pairs = [np.empty((0, 2), dtype=np.int64)]
        for k, pos, idx in _per_level(self):
            for d, step in itertools.product(range(n), (-1, 1)):
                beyond = idx + step * np.eye(n, dtype=np.int64)[d]
                for up in range(k + 1):
                    rows = np.nonzero((beyond[:, d] >> up) != (idx[:, d] >> up))[0]
                    j = self._find(k - up, beyond[rows] >> up)
                    pairs.append(np.stack([pos[rows], j], axis=1)[j >= 0])
        # one int64 key i * m + j per pair (i < j < m) sorts as (i, j) does
        pairs = np.concatenate(pairs)
        m = len(self.levels)
        keys = np.unique(pairs.min(axis=1) * m + pairs.max(axis=1))
        return keys // m, keys % m

    def side_mask(self) -> np.ndarray:
        m = self.domain.mask
        return m if self.side == "interior" else ~m

    def neighbor_graph(self) -> list[list[int]]:
        """Face-adjacency lists N(Q_i) over the accepted cubes."""
        i, j = self._adjacent
        a, b = np.concatenate([i, j]), np.concatenate([j, i])
        order = np.lexsort((b, a))
        a, b = a[order], b[order].tolist()
        at = np.searchsorted(a, np.arange(len(self.levels) + 1)).tolist()
        return [b[s:e] for s, e in zip(at[:-1], at[1:])]

    def min_side_level(self) -> int:
        return int(self.levels.max())

    def to_text(self) -> str:
        cubes = zip(self.levels.tolist(), self.index.tolist(), self.synthetic)
        pairs = zip(*(v.tolist() for v in self._adjacent))
        lines = [f"{k} {' '.join(map(str, row))} {'s' if s else '-'}"
                 for k, row, s in cubes]
        lines += ["neighbors"] + [f"{i} {j}" for i, j in pairs]
        return "\n".join(lines) + "\n"


def _cube_views(levels: np.ndarray, index: np.ndarray) -> list[DyadicCube]:
    return [DyadicCube(k, tuple(row))
            for k, row in zip(levels.tolist(), index.tolist())]


def _integral_image(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Summed-area table (int32, a zero row padding the low side of every
    axis) of the mask's bounding box, and the box's first cell; an empty
    mask gets one zero.  Tables over TABLE_BUDGET_BYTES are refused first."""
    lo, hi = _mask_bounds(mask) or ((0,) * mask.ndim,) * 2
    shape = tuple(b - a + 1 for a, b in zip(lo, hi))
    need = 4 * math.prod(shape)
    if need > TABLE_BUDGET_BYTES:
        raise PreconditionNotMet(
            f"summed-area table of {shape} needs {need / 2**30:.1f} GiB, over "
            f"the {TABLE_BUDGET_BYTES / 2**30:g} GiB budget")
    P = np.zeros(shape, dtype=np.int32)
    P[(slice(1, None),) * mask.ndim] = mask[tuple(map(slice, lo, hi))]
    for d in range(mask.ndim):
        np.cumsum(P, axis=d, out=P)
    return P, np.asarray(lo, dtype=np.int64)


def _table(owner) -> tuple[np.ndarray, np.ndarray]:
    """A domain's or set's `_integral_image`, kept (its mask is immutable)."""
    if owner._table is None:
        owner._table = _integral_image(owner.mask)
    return owner._table


def _box_count_batch(table, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sums of the mask over the cell index boxes [lo, hi), one per row,
    via its table (P, first cell): each box is shifted by the first cell
    and clipped to the table's box, off which the mask is empty."""
    P, first = table
    lo = np.clip(lo - first, 0, np.array(P.shape) - 1)
    hi = np.clip(hi - first, 0, np.array(P.shape) - 1)
    total = np.zeros(len(lo), dtype=np.int64)
    # inclusion-exclusion over the 2^n corners: a lo end flips the sign
    for corner in itertools.product((False, True), repeat=P.ndim):
        ends = tuple((lo if c else hi)[:, d] for d, c in enumerate(corner))
        total += (-1) ** sum(corner) * P[ends]
    return total


def _per_level(dec: WhitneyDecomposition, collar: bool = False):
    """Yield (level, cube ids, (m, n) indices) for each level present."""
    levels, idx = (dec.collar_levels, dec.collar_index) if collar \
        else (dec.levels, dec.index)
    for k in np.unique(levels):
        pos = np.nonzero(levels == k)[0]
        yield int(k), pos, idx[pos]


def _level_counts(table, dom: VoxelDomain, level,
                  idx: np.ndarray) -> np.ndarray:
    """Cells counted by the summed table in each cube (levels `level`, one
    for all rows or one per row): a box count over the cube's cell box,
    which is its block of cells down to the grid level K and below it the
    one cell containing it (0 off the table's box).

    Cubes at levels <= K lie on that level's block grid inside the bbox,
    which the root tiling level guarantees.
    """
    K = dom.K
    lo_int = np.asarray(dom.lo_int, dtype=np.int64)
    level = np.asarray(level, dtype=np.int64).reshape(-1, 1)
    f = np.left_shift(1, np.maximum(K - level, 0))
    clo = (idx >> np.maximum(level - K, 0)) * f - lo_int
    return _box_count_batch(table, clo, clo + f)


def _cube_cells(dom: VoxelDomain, level):
    """Grid cells in the cell box of a cube of `level` (scalar or array)."""
    return np.left_shift(1, np.maximum(dom.K - np.asarray(level), 0) * dom.n)


def _side_counts(dom: VoxelDomain, side: str, level, idx: np.ndarray):
    """Region cells per cube: the domain's, or on the exterior the rest."""
    cnt = _level_counts(_table(dom), dom, level, idx)
    return cnt if side == "interior" else _cube_cells(dom, level) - cnt


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

    Levels are processed in vectorized batches.  At every level the full
    cubes take one exact distance path, `DistanceField.box_d2`: squared
    distances to the boundary centroids, exact integers in units of 2**-S
    with S = max(L_max, K + 1).  No distance lattice is built; both sides
    count cells on the domain's kept, bounding-box table (`_side_counts`).
    """
    if L_max < root_tiling_level(dom):
        raise PreconditionNotMet("L_max coarser than the bbox root tiling")
    n = dom.n
    K = dom.K
    field = distance_transform(dom)
    S = max(L_max, K + 1)
    lo_int = np.asarray(dom.lo_int, dtype=np.int64)
    shape = np.asarray(dom.mask.shape, dtype=np.int64)
    bbox_lo_S = lo_int * 2 ** (S - K)
    bbox_hi_S = (lo_int + shape) * 2 ** (S - K)

    # the accepted cubes' arrays, one piece per level
    acc = {"levels": [np.empty(0, dtype=np.int64)],
           "index": [np.empty((0, n), dtype=np.int64)],
           "d2": [np.empty(0, dtype=np.int64)],
           "synthetic": [np.empty(0, dtype=bool)]}
    collar_lvl = np.empty(0, dtype=np.int64)
    collar_idx = np.empty((0, n), dtype=np.int64)
    collar_cells = 0.0

    root_level = root_tiling_level(dom)
    t = 2 ** (K - root_level)
    ranges = [
        np.arange(lo_int[d] // t, (lo_int[d] + shape[d]) // t) for d in range(n)
    ]
    cur = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, n)
    level = root_level

    while len(cur) and level <= L_max:
        cnt = _side_counts(dom, side, level, cur)
        keep = cnt > 0
        cur = cur[keep]
        cnt = cnt[keep]
        if len(cur) == 0:
            break
        ell = 2 ** (S - level)
        is_full = cnt == _cube_cells(dom, level)
        d2 = np.zeros(len(cur), dtype=np.int64)
        if is_full.any():
            d2[is_full] = field.box_d2(cur[is_full] * ell, ell, S - K - 1)
        accept = is_full & (d2 >= ell * ell)
        assert np.all(d2[accept] <= 16 * n * ell * ell), \
            "(W3) upper bound violated"
        sel = cur[accept]
        acc["levels"].append(np.full(len(sel), level, dtype=np.int64))
        acc["index"].append(sel)
        acc["d2"].append(d2[accept])
        acc["synthetic"].append((side == "exterior") & np.any(
            (sel * ell == bbox_lo_S) | (sel * ell + ell == bbox_hi_S), axis=1))
        rest = ~accept
        if level == L_max:
            collar_idx = cur[rest]
            collar_lvl = np.full(len(collar_idx), level, dtype=np.int64)
            collar_cells = float(cnt[rest].sum()) if level <= K \
                else len(collar_idx) * 2.0 ** (-(level - K) * n)
            break
        nxt = cur[rest]
        children = []
        for m in range(2**n):
            off = np.array([(m >> d) & 1 for d in range(n)])
            children.append(2 * nxt + off)
        cur = np.concatenate(children) if children else np.empty((0, n), int)
        level += 1

    return WhitneyDecomposition(
        domain=dom,
        side=side,
        **{key: np.concatenate(parts) for key, parts in acc.items()},
        scale_level=S,
        truncation_level=L_max,
        collar_levels=collar_lvl,
        collar_index=collar_idx,
        collar_measure=float(collar_cells) * dom.h**n,
    )


def exterior_whitney(dom: VoxelDomain, L_max: int) -> WhitneyDecomposition:
    """Whitney decomposition of bbox-minus-closure; the margin built into the
    domain bbox should be at least diam(support) for the dilation logic."""
    return whitney_decompose(dom, L_max, side="exterior")


def audit_whitney(dec: WhitneyDecomposition) -> dict:
    """Exact audit of (W1)-(W4); returns per-property pass flags and stats."""
    from fractions import Fraction

    dom = dec.domain
    n = dom.n
    S = dec.scale_level
    w2 = w4 = True
    # (W1): dyadic by construction; all covered cells in the region and
    # positive distance to the boundary centroids.  (W3) in exact integers.
    levels, d2 = dec.levels, dec.d2
    w1 = bool(np.all(_side_counts(dom, dec.side, levels, dec.index)
                     == _cube_cells(dom, levels)) and np.all(d2 > 0))
    ell2 = np.left_shift(1, 2 * (S - levels))
    w3 = bool(np.all((ell2 <= d2) & (d2 <= 16 * n * ell2)))
    vol = sum((Fraction(int(c), 2 ** (int(k) * n))
               for k, c in zip(*np.unique(levels, return_counts=True))),
              Fraction(0))
    # (W2): no cube is an ancestor of another, and volumes account for the
    # region up to the collar
    for k, pos, idx in _per_level(dec):
        for up in range(1, k + 1):
            if np.any(dec._find(k - up, idx >> up) >= 0):
                w2 = False
    collar_vol = Fraction(0)
    for k, pos, idx in _per_level(dec, collar=True):
        if k <= dom.K:
            cells = int(_side_counts(dom, dec.side, k, idx).sum())
            collar_vol += Fraction(cells, 2 ** (dom.K * n))
        else:
            collar_vol += Fraction(len(pos), 2 ** (k * n))
    cells = int(np.count_nonzero(dom.mask))
    region_vol = Fraction(cells if dec.side == "interior"
                          else dom.mask.size - cells, 2 ** (dom.K * n))
    if vol + collar_vol != region_vol:
        w2 = False
    # (W4) over the face-adjacency graph
    i, j = dec._adjacent
    if np.any(np.abs(dec.levels[i] - dec.levels[j]) > 2):
        w4 = False
    return {
        "W1": w1,
        "W2": w2,
        "W3": w3,
        "W4": w4,
        "cubes": len(dec.levels),
        "collar_measure": dec.collar_measure,
        "levels": dict(zip(*np.unique(dec.levels, return_counts=True)))
        if len(dec.levels) else {},
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

    def evaluate_many(self, pts):
        """psi at an (m, n) array of points: (point, cube id, psi) arrays of
        the nonzero weights and the (m,) covered mask.  The candidates of a
        point are, level by level in the order the cubes list them, the 3^n
        cubes around it; its weights follow that order and are summed in it.
        Points in the truncation collar are not covered and get no weights;
        a point outside the region raises PreconditionNotMet."""
        dom = self.dec.domain
        n = dom.n
        pts = np.asarray(pts, dtype=float).reshape(-1, n)
        m = len(pts)
        offsets = np.array(list(itertools.product((-1, 0, 1), repeat=n)))
        levels = self.dec.levels
        first = np.sort(np.unique(levels, return_index=True)[1])
        hits = []
        for k in levels[first].tolist():
            base = np.floor(pts / 2.0**-k).astype(np.int64)
            # (point, offset) pairs, point-major: each point's candidates
            # of this level in offset order
            found = self.dec._find(k, (base[:, None, :] + offsets).reshape(-1, n))
            at = np.nonzero(found >= 0)[0]
            hits.append((at // len(offsets), found[at]))
        p, i = (np.concatenate(v) for v in zip(*hits))
        order = np.argsort(p, kind="stable")
        p, i = p[order], i[order]
        box = self._boxes[i].T
        phi = _bump(box, self._radii[i], pts[p].T)
        inbox = np.all((box[:n] <= pts[p].T) & (pts[p].T <= box[n:]), axis=0)
        covered = np.bincount(p, weights=inbox, minlength=m) > 0
        lost = np.nonzero(~covered)[0]
        if len(lost):
            cell = np.floor(pts[lost] / dom.h).astype(np.int64) - dom.lo_int
            inside = np.all((cell >= 0) & (cell < dom.mask.shape), axis=1)
            inside[inside] = self.dec.side_mask()[tuple(cell[inside].T)]
            if not inside.all():
                x = pts[lost[~inside][0]]
                raise PreconditionNotMet(
                    f"point {tuple(x)} is outside the region")
        keep = (phi > 0.0) & covered[p]
        p, i, phi = p[keep], i[keep], phi[keep]
        # each point's weights summed in candidate order: round r adds
        # every point's r-th weight
        rank = np.arange(len(p)) - np.searchsorted(p, p)
        total = np.zeros(m)
        for r in range(int(rank.max()) + 1 if len(p) else 0):
            total[p[rank == r]] += phi[rank == r]
        return p, i, phi / total[p], covered

    def gradient_constant(self, max_cubes: int = 400, seed: int = 0) -> float:
        """Measured sup |grad psi_i| * l(Q_i) over structured probe lines
        crossing each cube face; reported, not asserted."""
        rng = np.random.default_rng(seed)
        ids = np.arange(len(self.dec.levels))
        if len(ids) > max_cubes:
            ids = rng.choice(ids, size=max_cubes, replace=False)
        n = self.dec.domain.n
        best = 0.0
        for i in ids:
            box = self._boxes[i]
            r = float(self._radii[i])
            ell = r * SUPPORT_SHELL
            ctr = (box[:n] + box[n:]) / 2
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
    k = -dec.levels[:, None]
    boxes = np.hstack([np.ldexp(dec.index, k), np.ldexp(dec.index + 1, k)])
    return boxes, np.ldexp(1.0, -dec.levels) / SUPPORT_SHELL


def _bump(box: np.ndarray, r: float, x) -> np.ndarray:
    """C1 plateau bump of one cube at the points whose per-axis coordinates
    are the (broadcastable) arrays x[0..n-1]: 1 on the box, 1 - t^2 (3 - 2t)
    at t = dist/r < 1 outside it, 0 beyond."""
    n = len(box) // 2
    t = np.sqrt(box_point_d2(box[:n], box[n:], x)) / r
    return np.where(t >= 1.0, 0.0, 1.0 - t * t * (3.0 - 2.0 * t))


# ---------------------------------------------------------------------------
# smoothing operator
# ---------------------------------------------------------------------------


@dataclass
class SmoothedIndicator:
    """u = sum_i psi_i a_i on the band of a uniform evaluation grid.

    The grid has `shape` cells of side h_eval from `grid_lo`, but only the
    band cells listed in `flat` (sorted C-order indices) are evaluated.  Off
    the band every support that reaches a cell belongs to a cube of the same
    average 0 or 1, so u is exactly 0.0 or 1.0 there (0.0 where uncovered)
    and its central difference on a covered stencil is exactly 0.
    """
    dec: WhitneyDecomposition
    a: np.ndarray            # cube averages in [0,1]
    h_eval: float
    grid_lo: tuple[float, ...]
    shape: tuple[int, ...]   # the evaluation grid, never allocated
    flat: np.ndarray         # (m,) band cells, sorted C-order grid indices
    u: np.ndarray            # (m,) u at the band cells
    grad: np.ndarray         # (n, m) central differences where grad_valid
    covered: np.ndarray      # (m,) cell center inside some support
    grad_valid: np.ndarray   # (m,) full central-difference stencil covered


def cube_averages(dec: WhitneyDecomposition, F_mask: np.ndarray,
                  P=None) -> np.ndarray:
    """a_i = |F n Q_i| / |Q_i| for a set given on the domain grid; P is the
    mask's table (`_integral_image`), built here when not given."""
    dom = dec.domain
    P = _integral_image(F_mask) if P is None else P
    cnt = _level_counts(P, dom, dec.levels, dec.index)
    return cnt / _cube_cells(dom, dec.levels)


# The band's arrays and temporaries may take at most this many bytes.
SMOOTH_BUDGET_BYTES = 4 * 2**30
# band cells evaluated at a time; each chunk holds (cube, cell) pairs
_BAND_CHUNK = 2**16


def _band_bytes(rows: float, cells: float, n: int) -> float:
    """Peak bytes of a band of `cells` cells cut from pieces of `rows` grid
    rows: 48 B per row (interval ends, their sort order and copies); per
    cell the larger of the run expansion (32 B) and what the band keeps
    (flat index, u, the n gradient components and two masks: 18 + 8n B);
    and one chunk of (cube, cell) pairs, at most 8 per cell, each with its
    ids, coordinates, box and bump temporaries (128 + 24n B)."""
    return (48 * rows + max(32, 18 + 8 * n) * cells
            + _BAND_CHUNK * 8 * (128 + 24 * n))


def _refuse_over_budget(rows: float, cells: float, n: int, what: str):
    need = _band_bytes(rows, cells, n)
    if need > SMOOTH_BUDGET_BYTES:
        raise PreconditionNotMet(
            f"smoothing band of {what} needs {need / 2**30:.1f} GiB, over the "
            f"{SMOOTH_BUDGET_BYTES / 2**30:g} GiB budget")


def _expand(lo: np.ndarray, hi: np.ndarray):
    """(range number, member) for every member of the integer ranges
    [lo, hi), ranges in order and members ascending within each."""
    cnt = np.maximum(hi - lo, 0)
    item = np.repeat(np.arange(len(cnt)), cnt)
    start = np.cumsum(cnt) - cnt
    return item, np.arange(len(item)) + np.repeat(lo - start, cnt)


def _near_pairs(s0: np.ndarray, s1: np.ndarray, levels: np.ndarray):
    """Pairs (i, j), i != j, of the nonempty index boxes [s0, s1) whose
    one-cell dilates intersect.  Boxes of one level have nearly one size, so
    a KD-tree query per pair of levels (L-infinity on doubled centers) finds
    the candidates, and an integer test keeps the exact pairs."""
    c = s0 + s1
    w = s1 - s0
    live = np.all(w > 0, axis=1)
    groups = [np.nonzero(live & (levels == k))[0] for k in np.unique(levels)]
    groups = [g for g in groups if len(g)]
    trees = [cKDTree(c[g]) for g in groups]
    pi, pj = [], []
    for x, gx in enumerate(groups):
        for y in range(x, len(groups)):
            gy = groups[y]
            reach = float(w[gx].max() + w[gy].max() + 2)
            hit = trees[x].sparse_distance_matrix(
                trees[y], reach + 0.5, p=np.inf, output_type="ndarray")
            i, j = gx[hit["i"]], gy[hit["j"]]
            if x == y:
                i, j = i[i < j], j[i < j]
            pi.append(i)
            pj.append(j)
    i = np.concatenate(pi) if pi else np.empty(0, dtype=np.int64)
    j = np.concatenate(pj) if pj else np.empty(0, dtype=np.int64)
    near = np.all(np.abs(c[i] - c[j]) <= w[i] + w[j] + 2, axis=1)
    return i[near], j[near]


def _band_flat(s0, s1, a, levels, shape) -> np.ndarray:
    """Sorted C-order indices of the band cells.

    A cell c adds to the energy only if u(c + e) != u(c - e) on some axis.
    Then c + e or c - e lies in a support with a fractional average, or in
    two supports with different averages, or the two lie in such supports
    apart; so c lies in the one-cell dilate of a fractional support or in
    the one-cell dilates of two supports with different averages.  The
    stencil adds one more cell: the band is the two-cell dilates of the
    fractional supports and the intersections of the two-cell dilates of
    every such pair.  Each piece is a box; the pieces are cut into grid rows
    and the row intervals merged.
    """
    n = len(shape)
    i, j = _near_pairs(s0, s1, levels)
    keep = a[i] != a[j]
    i, j = i[keep], j[keep]
    frac = np.nonzero(np.all(s1 > s0, axis=1) & (a > 0.0) & (a < 1.0))[0]
    lo = np.concatenate([np.maximum(s0[i], s0[j]) - 2, s0[frac] - 2])
    hi = np.concatenate([np.minimum(s1[i], s1[j]) + 2, s1[frac] + 2])
    lo = np.clip(lo, 0, shape)
    hi = np.clip(hi, 0, shape)
    ext = hi - lo
    lo, hi, ext = (v[np.all(ext > 0, axis=1)] for v in (lo, hi, ext))
    rows = float(np.prod(ext[:, :-1].astype(np.float64), axis=1).sum())
    _refuse_over_budget(rows, 0, n, f"{rows:.3g} piece rows")
    item = np.arange(len(lo))
    prefix = np.zeros(len(lo), dtype=np.int64)
    for d in range(n - 1):
        it, val = _expand(lo[item, d], hi[item, d])
        item = item[it]
        prefix = prefix[it] * shape[d] + val
    if len(item) == 0:
        return np.empty(0, dtype=np.int64)
    start = prefix * shape[-1] + lo[item, -1]
    end = prefix * shape[-1] + hi[item, -1]
    # union of the flat intervals [start, end): a run starts where an
    # interval begins after every earlier one has ended
    order = np.argsort(start, kind="stable")
    start, end = start[order], np.maximum.accumulate(end[order])
    new = np.ones(len(start), dtype=bool)
    new[1:] = start[1:] > end[:-1]
    last = np.append(np.nonzero(new)[0][1:] - 1, len(start) - 1)
    run_lo, run_hi = start[new], end[last]
    cells = int((run_hi - run_lo).sum())
    _refuse_over_budget(rows, cells, n, f"{cells} cells")
    return _expand(run_lo, run_hi)[1]


def _box_members(flat, shape, s0, s1):
    """(box, position) of every cell of the sorted C-order indices `flat`
    inside each box [s0, s1): boxes in the given order, positions ascending
    within each.  The search descends one axis at a time through the
    distinct prefixes (coordinates 0..d) of the cells, so a box visits only
    the rows of cells it meets."""
    n = len(shape)
    box = np.arange(len(s0))
    base = np.zeros(len(s0), dtype=np.int64)
    for d in range(n):
        ukeys = np.unique(flat // math.prod(shape[d + 1:])) if d < n - 1 \
            else flat
        lo = np.searchsorted(ukeys, base * shape[d] + s0[box, d])
        hi = np.searchsorted(ukeys, base * shape[d] + s1[box, d])
        it, pos = _expand(lo, hi)
        box = box[it]
        base = ukeys[pos]
    return box, pos


def smooth_indicator(dec: WhitneyDecomposition, F_mask: np.ndarray,
                     eval_level: int | None = None,
                     averages: np.ndarray | None = None) -> SmoothedIndicator:
    """u = sum_i psi_i * a_i on a uniform evaluation grid with spacing
    l(Q_min)/8 (overridable), gradient by central differences, evaluated on
    the band where u is not constant (see SmoothedIndicator).

    Every band cell sums its covering cubes in ascending cube id through the
    dense kernel, so its u, coverage and gradient equal those of the full
    grid bit for bit.  Bands over SMOOTH_BUDGET_BYTES are refused before
    allocation.  `averages` are F's `cube_averages`, taken here when not
    given."""
    dom = dec.domain
    n = dom.n
    a = cube_averages(dec, F_mask) if averages is None else averages
    if eval_level is None:
        eval_level = dec.min_side_level() + 3
    h_eval = 2.0**-eval_level
    boxes, radii = _cube_boxes(dec)
    # the grid only needs to cover the cube union (plus the support shells)
    lo = np.floor(boxes[:, :n].min(axis=0) / h_eval).astype(np.int64) - 2
    hi = np.ceil(boxes[:, n:].max(axis=0) / h_eval).astype(np.int64) + 2
    shape = tuple(int(v) for v in hi - lo)
    if math.prod(shape) >= 2**62:
        raise PreconditionNotMet(f"smoothing grid {shape} is over the 2^62-cell "
                                 "index budget")
    # support boxes [s0, s1): the cells whose centers (g + 1/2) h lie in
    # [lo - r, hi + r), clipped to the grid
    s0 = np.clip(np.ceil((boxes[:, :n] - radii[:, None]) / h_eval - 0.5)
                 .astype(np.int64) - lo, 0, shape)
    s1 = np.clip(np.ceil((boxes[:, n:] + radii[:, None]) / h_eval - 0.5)
                 .astype(np.int64) - lo, 0, shape)
    flat = _band_flat(s0, s1, a, dec.levels, shape)
    u, covered = _band_values(flat, shape, lo, h_eval, boxes, radii, s0, s1, a)
    grad, grad_valid = _band_gradient(flat, shape, h_eval, u, covered)
    return SmoothedIndicator(dec, a, h_eval,
                             tuple(float(v) * h_eval for v in lo), shape,
                             flat, u, grad, covered, grad_valid)


def _band_values(flat, shape, lo, h_eval, boxes, radii, s0, s1, a):
    """u and coverage at the band cells, a chunk of cells at a time: the
    (cube, cell) pairs of every support box meeting the chunk, the bump at
    each, and per cell num and den summed in ascending cube id."""
    n = len(shape)
    m = len(flat)
    strides = [math.prod(shape[d + 1:]) for d in range(n)]
    live = np.nonzero(np.all(s1 > s0, axis=1))[0]
    box_first = (s0[live] * strides).sum(axis=1)
    box_last = ((s1[live] - 1) * strides).sum(axis=1)
    u = np.empty(m)
    covered = np.empty(m, dtype=bool)
    for p0 in range(0, m, _BAND_CHUNK):
        p1 = min(p0 + _BAND_CHUNK, m)
        sub = flat[p0:p1]
        ids = live[(box_first <= sub[-1]) & (box_last >= sub[0])]
        box, pos = _box_members(sub, shape, s0[ids], s1[ids])
        ids = ids[box]
        cell = np.unravel_index(sub[pos], shape)
        # the dense grid's coordinates: ((g + lo) + 1/2) h
        x = [(cell[d] + lo[d] + 0.5) * h_eval for d in range(n)]
        phi = _bump(boxes[ids].T, radii[ids], x)
        # bincount adds each cell's weights in input order, which is
        # ascending cube id, starting from 0.0: the dense accumulation
        num = np.bincount(pos, weights=a[ids] * phi, minlength=p1 - p0)
        den = np.bincount(pos, weights=phi, minlength=p1 - p0)
        cov = den > 0.0
        covered[p0:p1] = cov
        u[p0:p1] = np.where(cov, num / np.where(cov, den, 1.0), 0.0)
    return u, covered


def _band_gradient(flat, shape, h_eval, u, covered):
    """Central differences (u[+1] - u[-1]) / 2h, as np.gradient takes them,
    at the band cells; valid where the cell and its 2n neighbours are
    covered band cells."""
    n = len(shape)
    m = len(flat)
    grad = np.zeros((n, m))
    grad_valid = covered.copy()
    for p0 in range(0, m, _BAND_CHUNK):
        p1 = min(p0 + _BAND_CHUNK, m)
        sub = flat[p0:p1]
        cell = np.unravel_index(sub, shape)
        for d in range(n):
            side = []
            for step in (1, -1):
                nb = sub + step * math.prod(shape[d + 1:])
                at = np.minimum(np.searchsorted(flat, nb), m - 1)
                inside = (cell[d] + step >= 0) & (cell[d] + step < shape[d])
                found = inside & (flat[at] == nb)
                side.append(np.where(found, u[at], 0.0))
                grad_valid[p0:p1] &= found & covered[at]
            grad[d, p0:p1] = (side[0] - side[1]) / (2.0 * h_eval)
    return grad, grad_valid


def gradient_energy(si: SmoothedIndicator, p: float) -> float:
    """Integral of |grad u|^p over the covered region.  The cell sum is
    correctly rounded (math.fsum), so it does not depend on cell order and
    the cells off the band, where the gradient is 0, need not be visited;
    the band is evaluated a chunk at a time and fed to one fsum, list by
    list."""
    def chunks():
        for p0 in range(0, len(si.u), _BAND_CHUNK):
            sl = slice(p0, p0 + _BAND_CHUNK)
            g2 = np.zeros(len(si.u[sl]))
            for d in range(len(si.grad)):
                g2 += si.grad[d, sl] ** 2
            vals = g2[si.grad_valid[sl]] ** (p / 2.0)
            yield vals[vals > 0.0].tolist()
    return math.fsum(itertools.chain.from_iterable(chunks())) \
        * si.h_eval ** len(si.grad)


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
