"""Sets of finite perimeter on the voxel grid.

The measure-theoretic boundary of a voxel set is exactly its in/out face
interface, so perimeters are face-area sums and the weighted functionals are
sums over face centroids.  The voxel perimeter is the l1-anisotropic
perimeter; the bounded anisotropy factor is folded into reported constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import VoxelDomain, interface_faces_doubled
from .distance import DistanceField
from .dyadic import DyadicCube
from .errors import PreconditionNotMet, UnsupportedExponent

INTERIOR, EXTERIOR, ON_BOUNDARY, UNCLASSIFIED = 0, 1, 2, 3


class VoxelSet:
    """Measurable set as a sub-grid occupancy mask.

    When `parent` is given the set is classified against that domain; by
    default containment in the domain is enforced (extension sets opt out).
    """

    def __init__(self, K: int, lo_int, mask: np.ndarray,
                 parent: VoxelDomain | None = None, require_subset: bool = True):
        self.K = K
        self.lo_int = tuple(lo_int)
        self.mask = np.asarray(mask, dtype=bool)
        self.parent = parent
        if parent is not None:
            if parent.K != K or parent.lo_int != self.lo_int or \
                    parent.shape != self.mask.shape:
                raise ValueError("set grid must match the parent domain grid")
            if require_subset and np.any(self.mask & ~parent.mask):
                raise ValueError("set occupancy must be contained in the domain")
        self._faces = None

    @classmethod
    def from_domain(cls, dom: VoxelDomain, mask: np.ndarray,
                    require_subset: bool = True) -> "VoxelSet":
        return cls(dom.K, dom.lo_int, mask, parent=dom, require_subset=require_subset)

    @property
    def n(self) -> int:
        return self.mask.ndim

    @property
    def h(self) -> float:
        return 2.0**-self.K

    def measure(self) -> float:
        return float(self.mask.sum()) * self.h**self.n

    def complement_in(self, dom: VoxelDomain) -> "VoxelSet":
        return VoxelSet(self.K, self.lo_int, dom.mask & ~self.mask, parent=dom)


@dataclass
class BoundaryFaceSet:
    K: int
    axes: np.ndarray          # (m,) perpendicular axis per face
    coords: np.ndarray        # (m, n) doubled-grid centroid coordinates
    classification: np.ndarray  # (m,) INTERIOR/EXTERIOR/ON_BOUNDARY/UNCLASSIFIED

    @property
    def n(self) -> int:
        return self.coords.shape[1]

    @property
    def h(self) -> float:
        return 2.0**-self.K

    @property
    def face_area(self) -> float:
        return self.h ** (self.n - 1)

    def __len__(self) -> int:
        return len(self.axes)

    def centroids(self) -> np.ndarray:
        return self.coords * (self.h / 2.0)

    def area(self, classes=None) -> float:
        if classes is None:
            return len(self.axes) * self.face_area
        sel = np.isin(self.classification, list(classes))
        return int(sel.sum()) * self.face_area


def boundary_faces(A: VoxelSet) -> BoundaryFaceSet:
    """Interface face set of A, classified against its parent domain."""
    if A._faces is not None:
        return A._faces
    axes, coords = interface_faces_doubled(A.mask, A.lo_int)
    if A.parent is None:
        cls = np.full(len(axes), UNCLASSIFIED, dtype=np.int8)
    else:
        dom = A.parent
        on_grid = dom.boundary_face_lookup()
        offs = coords - 2 * np.asarray(dom.lo_int, dtype=np.int64)
        on = on_grid[tuple(offs[:, d] for d in range(A.n))]
        # a face not on the domain boundary has both adjacent cells on the
        # same side of the domain
        lo_cells = coords.copy() // 2
        for d in range(A.n):
            sel = axes == d
            lo_cells[sel, d] = coords[sel, d] // 2 - 1
        inside = dom.cell_in_domain(lo_cells)
        cls = np.where(on, ON_BOUNDARY, np.where(inside, INTERIOR, EXTERIOR))
        cls = cls.astype(np.int8)
    out = BoundaryFaceSet(A.K, axes, coords, cls)
    A._faces = out
    return out


def perimeter(A: VoxelSet, region="rn") -> float:
    """Face-area perimeter of A relative to a region.

    region: "rn" (everything), "omega" (faces interior to the parent domain),
    or ("ball", center, r) selecting faces whose centroid is in the open ball.
    """
    faces = boundary_faces(A)
    if region == "rn":
        return faces.area()
    if region == "omega":
        return faces.area(classes=(INTERIOR,))
    kind, x, r = region
    if kind != "ball":
        raise ValueError(f"unknown region {region!r}")
    cen = faces.centroids()
    d2 = ((cen - np.asarray(x, dtype=float)) ** 2).sum(axis=1)
    return float((d2 < r * r).sum()) * faces.face_area


def weighted_boundary_integral(
    A: VoxelSet, p: float, dist: DistanceField, side: str = "interior"
) -> tuple[float, float]:
    """Sum of dist^(1-p) * area over the boundary faces of A on one side of
    the domain.  Faces at (numerically) zero distance carry infinite weight
    in the continuum; their total area is returned separately.

    Returns (finite_part, touching_mass).
    """
    if not (1.0 < p < 2.0):
        raise UnsupportedExponent(f"p must lie in (1,2), got {p}")
    faces = boundary_faces(A)
    if side == "interior":
        sel = np.isin(faces.classification, (INTERIOR, ON_BOUNDARY))
    elif side == "exterior":
        sel = np.isin(faces.classification, (EXTERIOR, ON_BOUNDARY))
    else:
        raise ValueError(f"side must be interior or exterior, got {side!r}")
    coords = faces.coords[sel]
    cls = faces.classification[sel]
    if len(coords) == 0:
        return 0.0, 0.0
    d2 = dist.d2_at_doubled(coords)
    # touching threshold dist <= h/2 is d2 <= 1 in (h/2)^2 units
    touching = (cls == ON_BOUNDARY) | (d2 <= 1)
    dvals = np.sqrt(d2[~touching].astype(np.float64)) * (dist.h / 2.0)
    finite = float(np.sum(dvals ** (1.0 - p))) * faces.face_area
    return finite, float(touching.sum()) * faces.face_area


def isoperimetric_check(A: VoxelSet, context) -> float:
    """Relative isoperimetric ratio P / min(|A n U|, |U \\ A|)^(1-1/n).

    context: ("cube_pair", Q, Qp) with Q, Qp dyadic cubes, or
    ("ball", center, r) measured inside the parent domain.
    """
    n = A.n
    h = A.h
    kind = context[0]
    if kind == "cube_pair":
        _, Q, Qp = context
        if not (Qp.level - 2 <= Q.level <= Qp.level + 2):
            raise PreconditionNotMet("cube sides must be within a factor of 4")
        s_q, s_p = 2.0**-Q.level, 2.0**-Qp.level
        if not (0.25 * s_p <= s_q <= 4 * s_p):
            raise PreconditionNotMet("cube sides must be within a factor of 4")
        if not Q.face_adjacent(Qp):
            raise PreconditionNotMet("int(Q u Q') must be connected")
        in_q = _cells_in_cube(A, Q)
        in_p = _cells_in_cube(A, Qp)
        union = in_q | in_p
        inner = float(np.sum(A.mask & union)) * h**n
        outer = float(np.sum(~A.mask & union)) * h**n
        faces = boundary_faces(A)
        cen = faces.coords  # doubled coords
        keep = _centroid_in_open_union(cen, faces.axes, Q, Qp, A.K)
        P = float(keep.sum()) * faces.face_area
    elif kind == "ball":
        _, x, r = context
        if A.parent is None:
            raise PreconditionNotMet("ball form needs a parent domain")
        cen_cells = _cell_centers(A)
        d2 = sum((cen_cells[d] - x[d]) ** 2 for d in range(n))
        ball = d2 < r * r
        inner = float(np.sum(A.mask & ball)) * h**n
        outer = float(np.sum(A.parent.mask & ~A.mask & ball)) * h**n
        P = perimeter_interior_in_ball(A, x, r)
    else:
        raise ValueError(f"unknown context {kind!r}")
    denom = min(inner, outer) ** (1.0 - 1.0 / n)
    if denom == 0.0:
        return float("nan") if P == 0.0 else float("inf")
    return P / denom


def perimeter_interior_in_ball(A: VoxelSet, x, r) -> float:
    faces = boundary_faces(A)
    cen = faces.centroids()
    d2 = ((cen - np.asarray(x, dtype=float)) ** 2).sum(axis=1)
    sel = (d2 < r * r) & (faces.classification == INTERIOR)
    return float(sel.sum()) * faces.face_area


def _cell_centers(A: VoxelSet):
    h = A.h
    return [
        ((np.arange(s) + A.lo_int[d] + 0.5) * h).reshape(
            tuple(-1 if a == d else 1 for a in range(A.n))
        )
        for d, s in enumerate(A.mask.shape)
    ]


def _cells_in_cube(A: VoxelSet, Q: DyadicCube) -> np.ndarray:
    """Mask of grid cells whose closed cell lies inside the closed cube."""
    if Q.level > A.K:
        raise PreconditionNotMet("cube finer than the grid")
    f = 2 ** (A.K - Q.level)
    out = np.ones(A.mask.shape, dtype=bool)
    for d in range(A.n):
        idx = (np.arange(A.mask.shape[d]) + A.lo_int[d]).reshape(
            tuple(-1 if a == d else 1 for a in range(A.n))
        )
        out &= (idx >= Q.index[d] * f) & (idx < (Q.index[d] + 1) * f)
    return out


def _centroid_in_open_union(coords, axes, Q: DyadicCube, Qp: DyadicCube, K: int):
    """Faces whose centroid lies in int(Q u Q'), in exact integers."""
    scale = K + 1  # doubled coordinates live at level K+1

    def strict_in(cube):
        lo, hi = cube.bounds_int(scale)
        ok = np.ones(len(coords), dtype=bool)
        for d in range(coords.shape[1]):
            ok &= (coords[:, d] > lo[d]) & (coords[:, d] < hi[d])
        return ok

    inside = strict_in(Q) | strict_in(Qp)
    # points on the shared face interior also belong to int(Q u Q')
    s = max(Q.level, Qp.level)
    qlo, qhi = Q.bounds_int(scale)
    plo, phi = Qp.bounds_int(scale)
    for d in range(coords.shape[1]):
        plane = None
        if qhi[d] == plo[d]:
            plane = qhi[d]
        elif phi[d] == qlo[d]:
            plane = phi[d]
        if plane is None:
            continue
        onplane = coords[:, d] == plane
        for a in range(coords.shape[1]):
            if a == d:
                continue
            lo = max(qlo[a], plo[a])
            hi = min(qhi[a], phi[a])
            onplane &= (coords[:, a] > lo) & (coords[:, a] < hi)
        inside |= onplane
    return inside


# ---------------------------------------------------------------------------
# Jordan loop decomposition (2D)
# ---------------------------------------------------------------------------


@dataclass
class JordanLoop:
    corners: np.ndarray       # (m+1, 2) closed polyline in absolute units
    signed_area: float
    length: float
    parent: int | None = None  # index of the immediately enclosing loop

    @property
    def positive(self) -> bool:
        return self.signed_area > 0


def jordan_loops(A: VoxelSet) -> list[JordanLoop]:
    """Decompose the boundary of a 2D voxel set into simple closed loops.

    Edges are directed with the in-cells on the left, so outer loops come out
    counterclockwise and holes clockwise.  At saddle corners the tracer takes
    the left turn, splitting diagonally-touching cells into separate loops.
    """
    if A.n != 2:
        raise PreconditionNotMet("jordan_loops is 2D only")
    h = A.h
    mask = A.mask
    lo = A.lo_int

    def cell_in(ix, iy):
        jx, jy = ix - lo[0], iy - lo[1]
        if 0 <= jx < mask.shape[0] and 0 <= jy < mask.shape[1]:
            return mask[jx, jy]
        return False

    axes, coords = interface_faces_doubled(mask, lo)
    out_edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
    edge_used: dict[tuple[tuple[int, int], tuple[int, int]], bool] = {}

    def add_edge(a, b):
        out_edges.setdefault(a, []).append(b)
        edge_used[(a, b)] = False

    for ax, (cx, cy) in zip(axes, coords):
        if ax == 0:
            i, j = cx // 2, (cy - 1) // 2  # face plane x=i, cell row j
            if cell_in(i - 1, j):
                add_edge((i, j), (i, j + 1))   # in on left, walk up
            else:
                add_edge((i, j + 1), (i, j))
        else:
            i, j = (cx - 1) // 2, cy // 2
            if cell_in(i, j - 1):
                add_edge((i + 1, j), (i, j))   # in below, walk left
            else:
                add_edge((i, j), (i + 1, j))

    raw_paths = []
    for start, targets in out_edges.items():
        for t0 in targets:
            if edge_used[(start, t0)]:
                continue
            path = [start, t0]
            edge_used[(start, t0)] = True
            cur, prev = t0, start
            while cur != start:
                cands = [b for b in out_edges.get(cur, ())
                         if not edge_used[(cur, b)]]
                if len(cands) == 1:
                    nxt = cands[0]
                else:
                    d = (cur[0] - prev[0], cur[1] - prev[1])
                    left = (cur[0] - d[1], cur[1] + d[0])
                    nxt = left
                    if left not in cands:
                        raise RuntimeError("boundary tracing failed at saddle")
                edge_used[(cur, nxt)] = True
                path.append(nxt)
                prev, cur = cur, nxt
            raw_paths.append(path)

    loops: list[JordanLoop] = []
    for path in _split_to_simple(raw_paths):
        pts = np.array(path, dtype=np.int64)
        area2 = int(
            np.sum(pts[:-1, 0] * pts[1:, 1] - pts[1:, 0] * pts[:-1, 1])
        )
        loops.append(
            JordanLoop(
                corners=pts * h,
                signed_area=area2 * h * h / 2.0,
                length=(len(path) - 1) * h,
            )
        )
        loops[-1]._ipath = pts  # integer corners, used for nesting
    _assign_nesting(loops)
    return loops


def _split_to_simple(paths):
    """Split closed paths at revisited vertices until every loop is simple.

    The left-turn tracer can thread one walk through a saddle twice when the
    pinch connects two contours of the same region (e.g. a ring touching
    itself at a corner); re-pairing the saddle splits it into two Jordan
    loops, which is the decomposition the uniqueness statement picks."""
    out = []
    stack = list(paths)
    while stack:
        p = stack.pop()
        seen: dict[tuple[int, int], int] = {}
        dup = None
        for idx, c in enumerate(p[:-1]):
            if c in seen:
                dup = (seen[c], idx)
                break
            seen[c] = idx
        if dup is None:
            out.append(p)
            continue
        i, j = dup
        stack.append(p[i:j + 1])
        stack.append(p[:i + 1] + p[j + 1:])
    return out


def _assign_nesting(loops: list[JordanLoop]) -> None:
    """Set each loop's parent to the innermost other loop enclosing it.

    Loops paint their interiors into one cell map, largest area first, and a
    loop's parent is the last painter of its representative cell: the cell
    beside its first edge on its enclosed side.  Loops are edge-disjoint and
    never cross, so a loop containing that cell also contains the cell across
    the edge and encloses the whole loop; it is strictly larger and was
    painted before."""
    if not loops:
        return
    corners = np.concatenate([lp._ipath for lp in loops])
    lo = corners.min(axis=0)
    owner = np.full(tuple(corners.max(axis=0) - lo), -1, dtype=np.int64)
    order = sorted(range(len(loops)),
                   key=lambda k: (-abs(loops[k].signed_area), k))
    for i in order:
        lp = loops[i]
        pts = lp._ipath - lo
        a, b = pts[0], pts[1]
        d = b - a
        enclosed = (-d[1], d[0]) if lp.signed_area > 0 else (d[1], -d[0])
        # doubled midpoint plus the normal is the doubled rep cell centre
        rx = (a[0] + b[0] + enclosed[0] - 1) // 2
        ry = (a[1] + b[1] + enclosed[1] - 1) // 2
        parent = int(owner[rx, ry])
        lp.parent = None if parent < 0 else parent
        # ray parity over the bbox: a cell is inside iff an odd number of the
        # loop's vertical edges in its row lie on its left side or further
        # left (each row meets an even number, so this is the rightward ray)
        x0, y0 = pts.min(axis=0)
        x1, y1 = pts.max(axis=0)
        x, y = pts[:-1, 0], pts[:-1, 1]
        vert = (x == pts[1:, 0]) & (x < x1)
        toggles = np.zeros((x1 - x0, y1 - y0), dtype=np.uint8)
        toggles[x[vert] - x0, np.minimum(y, pts[1:, 1])[vert] - y0] = 1
        inside = np.bitwise_xor.accumulate(toggles, axis=0).view(bool)
        owner[x0:x1, y0:y1][inside] = i


# ---------------------------------------------------------------------------
# density profiles
# ---------------------------------------------------------------------------


@dataclass
class DensityProfile:
    x: tuple[float, ...]
    radii: list[float]
    ratios: list[float]
    truncated: list[bool]


def density_profile(A: VoxelSet, x, radii, relative_to: str = "omega") -> DensityProfile:
    """Voxel-count density ratios |A n B(x,r)| / |B(x,r) n Omega| (or over
    the full ball for relative_to="rn"; the ball count then extends past the
    bbox on a virtual lattice)."""
    h = A.h
    n = A.n
    x = tuple(float(v) for v in x)
    radii = sorted(float(r) for r in radii)
    if radii and radii[0] < 2 * h:
        raise PreconditionNotMet("radii must be at least 2h")
    cen = _cell_centers(A)
    ratios, trunc = [], []
    lo, hi = (np.asarray(A.lo_int) * h,
              (np.asarray(A.lo_int) + np.asarray(A.mask.shape)) * h)
    d2 = sum((cen[d] - x[d]) ** 2 for d in range(n))
    for r in radii:
        ball = d2 < r * r
        num = int(np.sum(A.mask & ball))
        if relative_to == "omega":
            if A.parent is None:
                raise PreconditionNotMet("relative_to='omega' needs a parent domain")
            den = int(np.sum(A.parent.mask & ball))
        else:
            den = _virtual_ball_count(x, r, A.K)
        ratios.append(num / den if den else float("nan"))
        trunc.append(bool(np.any(np.asarray(x) - r < lo) or
                          np.any(np.asarray(x) + r > hi)))
    return DensityProfile(x, radii, ratios, trunc)


def _virtual_ball_count(x, r, K: int) -> int:
    """Number of lattice cells (anywhere in R^n) with center in the ball."""
    h = 2.0**-K
    n = len(x)
    idx_ranges = [
        np.arange(int(np.floor((x[d] - r) / h)) - 1, int(np.ceil((x[d] + r) / h)) + 1)
        for d in range(n)
    ]
    grids = np.meshgrid(*[(ir + 0.5) * h for ir in idx_ranges], indexing="ij")
    d2 = sum((g - x[d]) ** 2 for d, g in enumerate(grids))
    return int(np.sum(d2 < r * r))
