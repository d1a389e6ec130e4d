"""Exact Euclidean distances to the discrete boundary.

Distances are measured to boundary-face centroids.  Cell centers and face
centroids all live on the half-step lattice (units of h/2), so squared
distances are exact integers in (h/2)^2 units.  Reads on one side of the
boundary (the domain's cells or the rest of the grid) use the transform
over the doubled lattice of that side's window (its bounding box grown by
a cell): the geodesics' cell reads build it on the first read of that
window, and the field keeps only the window's cell centres, 4 B per cell.
A face set's reads on one side use it when the window has at most 2^(n+1)
nodes a face and fits the budget, and drop it after; sparser face sets,
and Whitney's boxes, take candidates from one KD-tree of the centroids and
recompute distances in integers.
"""

from __future__ import annotations

import itertools
import math
import weakref

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .domain import EXTERIOR, INTERIOR, VoxelDomain, _mask_bounds
from .dyadic import box_point_d2
from .errors import PreconditionNotMet

# Lattices whose transform would peak above this are refused before any
# allocation (the same 4 GiB as whitney.SMOOTH_BUDGET_BYTES).
EDT_BUDGET_BYTES = 4 * 2**30
# float64 compares integer squared distances exactly only below this
EXACT_FLOAT_BOUND = 2**53
# (box, centroid) pairs the box query holds at a time
_BALL_PAIRS = 2**18


class DistanceField:
    """Exact boundary distances of one domain.  It keeps the domain's grid
    and boundary centroids, not the domain, which caches the field."""

    def __init__(self, K: int, lo_int, shape, coords: np.ndarray):
        self.K = K
        self.lo_int = tuple(lo_int)
        self.shape = tuple(shape)
        self.coords = coords  # (m, n) int64 boundary centroids, units h/2
        self._tree = cKDTree(coords.astype(np.float64))
        # face set -> {class: d2 at its faces of that class}
        self._face_d2 = weakref.WeakKeyDictionary()
        # cell bounds (lo, hi) -> int32 d2 at that window's cell centres;
        # None -> the whole doubled lattice, built only for d2_doubled
        self._lattices = {}
        self._solvers = {}  # (side, weight) -> curves.GeodesicSolver

    @property
    def n(self) -> int:
        return len(self.shape)

    @property
    def h(self) -> float:
        return 2.0**-self.K

    @property
    def d2_doubled(self) -> np.ndarray:
        """int32 squared distances over the (2N+1)^n doubled grid, for tests
        and tracing; no program path reads it."""
        if None not in self._lattices:
            self._lattices[None] = _build_lattice(self.lo_int, self.shape,
                                                  self.coords)
        return self._lattices[None]

    def side_d2(self, side: np.ndarray, cells=None) -> np.ndarray:
        """Exact int32 squared distances, in (h/2)^2 units, at the cells of
        `side` in C order, or at `cells` (an index tuple of side cells).
        `side` is one side of the boundary: the domain's mask or its
        complement.  The lattice covers only the side's window, its bounding
        box grown by one cell and clipped to the grid, and holds only the
        centroids inside it.  The field keeps the window's cell centres
        only, 4 B per cell; the whole doubled lattice lives only while it
        is built.

        This is exact at every point of the closed union U of side cells,
        side cells' centres and side faces' centroids included.  Take a point
        x of U and its nearest centroid f, and let q be the point where the
        segment x -> f leaves U (q = f if it never does).  Every centroid
        lies in the grid's closed box, so just past q the segment runs in a
        non-side cell of the array.  The array cells around q are joined
        through their faces, so one face incident to q lies between a side
        cell and a non-side cell: a boundary face, whose centroid g is within
        h sqrt(n-1)/2 of q.  A centroid outside the window is more than h
        from every point of U.  So if f lay outside it, |x - g| <=
        |x - q| + h sqrt(n-1)/2 < |x - q| + |q - f| = |x - f| for n = 2, 3,
        and f would not be nearest.  Cells off the side are refused: the
        window may be inexact there."""
        if cells is not None and not side[cells].all():
            raise ValueError("cells off the side have no exact read")
        if not side.any():
            return np.empty(0, dtype=np.int32)
        lo, hi = _window(side)
        centres = self._centres(lo, hi)
        if cells is None:
            return centres[side[tuple(map(slice, lo, hi))]]
        return centres[tuple(c - a for c, a in zip(cells, lo))]

    def _centres(self, lo: tuple[int, ...], hi: tuple[int, ...]) -> np.ndarray:
        """int32 squared distances at the centres of cells [lo, hi), shape
        hi - lo, cut from that window's lattice once per bounds."""
        if (lo, hi) not in self._lattices:
            self._lattices[lo, hi] = self._window_lattice(lo, hi)[
                (slice(1, None, 2),) * self.n].copy()
        return self._lattices[lo, hi]

    def _window_lattice(self, lo: tuple[int, ...],
                        hi: tuple[int, ...]) -> np.ndarray:
        """int32 squared distances over the doubled lattice of cells
        [lo, hi), to the centroids in its closed box."""
        base = np.add(self.lo_int, lo)
        ext = np.subtract(hi, lo)
        inside = ((self.coords >= 2 * base)
                  & (self.coords <= 2 * (base + ext))).all(axis=1)
        return _build_lattice(tuple(base.tolist()), tuple(ext.tolist()),
                              self.coords[inside])

    def d2_at_doubled(self, coords: np.ndarray) -> np.ndarray:
        """Exact int64 squared distances at doubled-grid points: float64
        compares integer sums exactly, so the nearest centroid minimises."""
        coords = np.asarray(coords, dtype=np.int64)
        _, j = self._tree.query(coords)
        gap = coords - self.coords[j]
        return (gap * gap).sum(axis=1)

    def d2_at_faces(self, faces, side: np.ndarray) -> np.ndarray:
        """Exact int64 squared distances at the centroids of a face set's
        faces on one side of the boundary, in face order, read once per set
        and side.  The set is classified against this field's domain, and
        `side` is that domain's mask or its complement, as in `side_d2`:
        the faces on it are the INTERIOR ones on the mask and the EXTERIOR
        ones on the complement.  ON_BOUNDARY faces lie on neither and need
        no read: their centroids are boundary centroids.

        The centroids read lie in the closed union of side cells, where the
        side's window lattice is exact (see `side_d2`).  That lattice is
        built, read and dropped when it has at most 2^(n+1) nodes a face
        read and `_build_lattice` takes it (within the budget and short
        enough for int32); other reads go to the tree."""
        code = _side_class(faces, side, self.lo_int)
        reads = self._face_d2.setdefault(faces, {})
        if code not in reads:
            pts = faces.coords[faces.classification == code]
            reads[code] = self._side_points_d2(pts, side)
        return reads[code]

    def _side_points_d2(self, pts: np.ndarray, side: np.ndarray) -> np.ndarray:
        """`d2_at_doubled` at doubled-grid points of the closed union of
        side cells, from the side's window lattice when it is dense enough
        for them (`_dense_enough`) and `_build_lattice` takes it."""
        if not len(pts):
            return np.empty(0, dtype=np.int64)
        lo, hi = _window(side)
        nodes = math.prod(2 * (b - a) + 1 for a, b in zip(lo, hi))
        if _dense_enough(nodes, len(pts), self.n):
            try:
                lattice = self._window_lattice(lo, hi)
            except PreconditionNotMet:  # refused before any allocation
                pass
            else:
                offs = pts - 2 * np.add(self.lo_int, lo)
                return lattice[tuple(offs.T)].astype(np.int64)
        return self.d2_at_doubled(pts)

    def box_d2(self, lo: np.ndarray, ell: int, shift: int) -> np.ndarray:
        """Exact min squared distance from each integer box [lo, lo + ell]
        to the centroids, in units of 2**-(K + 1 + shift); the tree, queried
        at coordinates scaled exactly by 2**-shift, only prunes candidates.

        The centroid nearest a box's centre bounds its distance, and any as
        near lies within that plus the half diagonal of the centre.  The
        centroids lie on a lattice of spacing 2**shift, so a ball of radius
        r holds at most (ceil(2 r / spacing) + 1)^n of them, and a chunk of
        boxes holds at most _BALL_PAIRS by that count (or one box)."""
        spacing = 2**shift
        ctr = lo + ell / 2.0
        _, j = self._tree.query(ctr / spacing)
        best = box_point_d2(lo.T, (lo + ell).T, (self.coords[j] << shift).T)
        r = (np.sqrt(best) + ell * math.sqrt(lo.shape[1]) / 2.0) \
            * (1.0 + 1e-12) + 1e-9
        est = np.minimum((np.ceil(2.0 * r / spacing) + 1.0) ** lo.shape[1],
                         len(self.coords)).astype(np.int64)
        ends = np.cumsum(est)
        out = np.empty(len(lo), dtype=np.int64)
        a = 0
        while a < len(lo):
            b = max(int(np.searchsorted(ends, ends[a] - est[a] + _BALL_PAIRS,
                                        side="right")), a + 1)
            cand = self._tree.query_ball_point(ctr[a:b] / spacing,
                                               r[a:b] / spacing,
                                               return_sorted=False)
            # every box has a candidate: its nearest centroid
            cnt = np.fromiter(map(len, cand), dtype=np.int64, count=b - a)
            which = np.fromiter(itertools.chain.from_iterable(cand),
                                dtype=np.int64, count=int(cnt.sum()))
            box = lo[a:b].repeat(cnt, axis=0)
            d2 = box_point_d2(box.T, (box + ell).T,
                              (self.coords[which] << shift).T)
            out[a:b] = np.minimum.reduceat(d2, np.cumsum(cnt) - cnt)
            a = b
        return out


def _window(side: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cell bounds [lo, hi) of a nonempty mask's bounding box grown by one
    cell and clipped to the grid."""
    lo, hi = _mask_bounds(side)
    return (tuple(max(a - 1, 0) for a in lo),
            tuple(min(b + 1, s) for b, s in zip(hi, side.shape)))


def _side_class(faces, side: np.ndarray, lo_int) -> int:
    """The class of a face set's faces on `side`, the domain's mask or its
    complement: INTERIOR or EXTERIOR faces have both their cells on one
    side, so the grid cell of the first of them tells which (a set with
    neither has no faces on either side)."""
    classified = faces.classification <= EXTERIOR
    if not classified.any():
        return INTERIOR
    i = int(classified.argmax())
    code = int(faces.classification[i])
    # the cell above the face, or the one below it at the grid's top edge
    cell = faces.coords[i] // 2 - np.asarray(lo_int)
    ax = faces.axes[i]
    cell[ax] = min(cell[ax], side.shape[ax] - 1)
    return code if side[tuple(cell)] else INTERIOR + EXTERIOR - code


def _dense_enough(nodes: int, reads: int, n: int) -> bool:
    """Whether a window lattice of `nodes` nodes serves `reads` point reads
    better than the tree: at most 2^(n+1) nodes a read."""
    return nodes <= 2 ** (n + 1) * reads


def _peak_bytes_per_node(n: int) -> int:
    """Peak bytes per lattice node held by `_build_lattice`, the largest
    over its phases."""
    # inside scipy: the site mask, np.where's int64 copy of it and the int8
    # cast of that, then the site mask, the int8 input and the int32 indices
    scipy = max(1 + 8 + 1, 2 + 4 * n)
    # then the int32 indices, summed in place, and the copy of the sum kept
    return max(scipy, 4 * n + 4)


def _check_extent(shape2: tuple[int, ...], bound: int, what: str) -> None:
    # the largest squared distance two lattice nodes can have
    if sum((s - 1) ** 2 for s in shape2) >= bound:
        raise PreconditionNotMet(
            f"distance lattice {shape2} is too long for {what}")


def _build_lattice(lo_int, shape, coords: np.ndarray) -> np.ndarray:
    """int32 squared distances over the doubled lattice.  Lattices over
    EDT_BUDGET_BYTES, or too long for int32 squared distances, raise
    PreconditionNotMet before anything is allocated."""
    n = len(shape)
    shape2 = tuple(2 * s + 1 for s in shape)
    need = math.prod(shape2) * _peak_bytes_per_node(n)
    if need > EDT_BUDGET_BYTES:
        raise PreconditionNotMet(
            f"distance lattice {shape2} needs {need / 2**30:.3g} GiB, over "
            f"the {EDT_BUDGET_BYTES / 2**30:g} GiB budget")
    _check_extent(shape2, 2**31, "int32 squared distances")
    sites = np.ones(shape2, dtype=bool)
    offs = coords - 2 * np.asarray(lo_int, dtype=np.int64)
    sites[tuple(offs[:, d] for d in range(n))] = False
    feature = ndimage.distance_transform_edt(
        sites, return_distances=False, return_indices=True
    )
    del sites
    # square and add into feature[0] in place, about 2^18 nodes at a time
    # (no int64, no full-size temporaries), then keep a copy of the sum only
    d2 = feature[0]
    axes = [np.arange(s, dtype=np.int32).reshape(
        tuple(-1 if a == d else 1 for a in range(n)))
        for d, s in enumerate(shape2)]
    step = max(1, 2**18 * shape2[0] // d2.size)
    for i in range(0, shape2[0], step):
        rows = slice(i, i + step)
        d2[rows] -= axes[0][rows]
        d2[rows] *= d2[rows]
        for d in range(1, n):
            d2[rows] += (axes[d] - feature[d][rows]) ** 2
    return d2.copy()


def distance_transform(dom: VoxelDomain) -> DistanceField:
    """The domain's exact boundary-distance field, made once and cached on
    it.  Grids too long for exact float64 reads raise PreconditionNotMet."""
    if dom._dist is None:
        _check_extent(tuple(2 * s + 1 for s in dom.shape), EXACT_FLOAT_BOUND,
                      "exact float64 reads")
        dom._dist = DistanceField(dom.K, dom.lo_int, dom.shape,
                                  dom.boundary_faces_doubled()[1])
    return dom._dist
