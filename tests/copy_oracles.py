"""Oracles for the values the package now derives from data it already
keeps, in the forms that held a second copy of that data:

- face classes read from a (2N+1)^n bool grid of the domain's boundary face
  centroids (`face_classes_by_lookup`);
- the geodesic graph built from full-grid weight and id arrays, the weights
  read from the full-grid distance lattice (`full_grid_graph`);
- the A0 test counted against a summed-area table of Omega minus A'
  (`select_A0_omega_minus`);
- the Whitney figure and the gradient constant read from `DyadicCube` views
  (`whitney_svg_from_views`, `gradient_constant_from_views`), and the mask
  figures drawn from a per-cell run loop (`domain_svg_by_runs`,
  `sets_svg_by_runs`);
- exact cube-to-boundary distances from the two paths Whitney took before
  its one batched ball query: the surface gather over the feature field of
  `distance_oracle.reference_field`, for cell-aligned cubes down to level
  K+1 (`surface_gather_d2`), and a KD-tree ball query run one cube at a
  time (`exact_box_dist2`);
- the generators' cell-centre grids as dense coordinate arrays
  (`dense_grid_centers`);
- the inequality report summed over the faces of A~ itself, with touching
  read as `ON_BOUNDARY` or a centroid within h/2 of the boundary
  (`tilde_report`), before the report took A~'s two sums from A and A0 and
  its touching masses from their `ON_BOUNDARY` faces;
- the Cantor-tube occupancy from a general point-to-segment projection
  over the dense meshgrid of each tube's window (`cantor_occupancy_dense`),
  before the tubes were read as segment boxes on open grids;
- the Cantor level certificates (L1)-(L5), lane feasibility and (L3) in
  `Fraction` arithmetic on the spec's own vertices (`check_level_fraction`,
  with `seg_seg_dist2` and `polyline_length`), before each level was
  scaled onto one integer grid;
- the interface faces of a mask from a scan of its whole grid
  (`interface_faces_whole_grid`), before the scan was cut to the mask's
  bounding box;
- the Whitney decomposition and its audit with the region's cells counted
  on a whole-grid table of the region, `~dom.mask` on the exterior
  (`whitney_by_region_table`, `audit_by_region_table`), before an exterior
  cube's count became its cells less the domain's;
- the cells of a dyadic cube as a whole-grid mask (`cells_in_cube`), before
  the cube-pair isoperimetric check counted slices of the set's mask.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from distance_oracle import cell_d2, cell_values
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from sobex.cantor import _seg_box, _seg_meets_open_box
from sobex.curves import _OFFSETS_2D, _OFFSETS_3D
from sobex.dyadic import DyadicCube, box_box_dist2_int
from sobex.errors import ConstructionError, PreconditionNotMet
from sobex.distance import distance_transform
from sobex.domain import interface_faces_doubled, root_tiling_level
from sobex.figio import LEVEL_COLORS, SvgCanvas
from sobex.extension import InequalityReport
from sobex.perimeter import EXTERIOR, INTERIOR, ON_BOUNDARY, VoxelSet
from sobex.whitney import (
    SUPPORT_SHELL,
    WhitneyDecomposition,
    _box_count_batch,
    _integral_image,
    _level_counts,
    _paint_level,
    _per_level,
    gradient_energy,
    smooth_indicator,
)


def face_classes_by_lookup(A: VoxelSet) -> np.ndarray:
    """Classes of A's interface faces: ON_BOUNDARY where the centroid is
    marked in the domain's lattice grid, else by the lower cell."""
    dom = A.parent
    axes, coords = interface_faces_doubled(A.mask, A.lo_int)
    _, bcoords = dom.boundary_faces_doubled()
    lo2 = 2 * np.asarray(dom.lo_int, dtype=np.int64)
    grid = np.zeros(tuple(2 * s + 1 for s in dom.mask.shape), dtype=bool)
    grid[tuple((bcoords - lo2).T)] = True
    on = grid[tuple((coords - lo2).T)]
    lo_cells = coords.copy() // 2
    for d in range(A.n):
        sel = axes == d
        lo_cells[sel, d] = coords[sel, d] // 2 - 1
    inside = dom.cell_in_domain(lo_cells)
    return np.where(on, ON_BOUNDARY,
                    np.where(inside, INTERIOR, EXTERIOR)).astype(np.int8)


def full_grid_graph(dom, dist, side, weight):
    """(graph, weight grid, node mask) with the weights and node ids held
    over the whole cell grid (0 weight and id -1 off the nodes)."""
    mask = (~dom.mask) if side == "complement" else dom.mask
    if weight == "unit":
        mask = mask & (cell_d2(dist) > 1)
        w = np.ones(mask.shape)
    elif weight == "inverse":
        w = np.zeros(mask.shape)
        w[mask] = 1.0 / cell_values(dist)[mask]
    else:
        _, p = weight
        w = np.zeros(mask.shape)
        w[mask] = cell_values(dist)[mask] ** (1.0 - p)
    ids = np.full(mask.shape, -1, dtype=np.int64)
    m = int(mask.sum())
    ids[mask] = np.arange(m)
    rows, cols, data = [], [], []
    for off in _OFFSETS_2D if dom.n == 2 else _OFFSETS_3D:
        sl_from = tuple(slice(max(0, -o), mask.shape[d] - max(0, o))
                        for d, o in enumerate(off))
        sl_to = tuple(slice(max(0, o), mask.shape[d] + min(0, o))
                      for d, o in enumerate(off))
        ok = mask[sl_from] & mask[sl_to]
        rows.append(ids[sl_from][ok])
        cols.append(ids[sl_to][ok])
        wmean = 0.5 * (w[sl_from][ok] + w[sl_to][ok])
        data.append(math.sqrt(sum(o * o for o in off)) * dom.h * wmean)
    graph = csr_matrix((np.concatenate(data),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(m, m))
    return graph, w, mask


def select_A0_omega_minus(A_prime: VoxelSet, We):
    """select_A0 with the dilate test |A' n D| > |(Omega \\ A') n D| counted
    on a table of the mask Omega minus A'."""
    dom = We.domain
    K = dom.K
    c2x = 400 * dom.n
    omega_minus = dom.mask & ~A_prime.mask
    Pa = _integral_image(A_prime.mask)
    Po = _integral_image(omega_minus)
    lo_int = np.asarray(dom.lo_int, dtype=np.int64)
    N = np.asarray(dom.mask.shape, dtype=np.int64)
    picked = np.zeros(len(We.levels), dtype=bool)
    clipped = np.zeros(len(We.levels), dtype=bool)
    mask = np.zeros(dom.mask.shape, dtype=bool)
    for collar in (False, True):
        for k, pos, idx in _per_level(We, collar):
            S = max(k + 1, K + 1)
            u = 2 ** (S - K - 1)
            ell = 2 ** (S - k)
            R = math.isqrt(c2x * (ell // 2) ** 2)
            ctr = (2 * idx + 1) * 2 ** (S - k - 1)
            c0 = -((R - ctr) // u)
            o_lo = c0 + 1 - c0 % 2
            c1 = (ctr + R) // u
            o_hi = c1 - 1 + c1 % 2
            i0 = (o_lo - 1) // 2 - lo_int
            i1 = (o_hi - 1) // 2 - lo_int + 1
            won = _box_count_batch(Pa, i0, i1) > _box_count_batch(Po, i0, i1)
            if not collar:
                won &= ~We.synthetic[pos]
                picked[pos[won]] = True
                out = np.any((i0 < 0) | (i1 > N), axis=1)
                clipped[pos[won & out]] = True
            _paint_level(mask, dom, k, idx[won])
    mask &= ~dom.mask
    return VoxelSet(dom.K, dom.lo_int, mask, parent=dom, require_subset=False), \
        np.nonzero(picked)[0].tolist(), np.nonzero(clipped)[0].tolist()


def _runs(col):
    out = []
    start = None
    for i, v in enumerate(col):
        if v and start is None:
            start = i
        elif not v and start is not None:
            out.append((start, i))
            start = None
    if start is not None:
        out.append((start, len(col)))
    return out


def _canvas(dom, px):
    lo, hi = dom.bbox()
    return SvgCanvas([float(v) for v in lo][:2], [float(v) for v in hi][:2], px)


def domain_svg_by_runs(dom, px: int = 800) -> SvgCanvas:
    cv = _canvas(dom, px)
    if dom.n == 2:
        h = dom.h
        for j in range(dom.mask.shape[1]):
            for a, b in _runs(dom.mask[:, j]):
                x0 = (dom.lo_int[0] + a) * h
                x1 = (dom.lo_int[0] + b) * h
                y0 = (dom.lo_int[1] + j) * h
                cv.rect((x0, y0), (x1, y0 + h), fill="#cfe2f3", stroke="none")
    return cv


def sets_svg_by_runs(dom, layers, px: int = 800) -> SvgCanvas:
    cv = _canvas(dom, px)
    h = dom.h
    for mask, color in [(dom.mask, "#eeeeee")] + layers:
        for j in range(mask.shape[1]):
            for a, b in _runs(mask[:, j]):
                x0 = (dom.lo_int[0] + a) * h
                x1 = (dom.lo_int[0] + b) * h
                y0 = (dom.lo_int[1] + j) * h
                cv.rect((x0, y0), (x1, y0 + h), fill=color, stroke="none",
                        opacity=0.55)
    return cv


def whitney_svg_from_views(dec, px: int = 900) -> SvgCanvas:
    cv = domain_svg_by_runs(dec.domain, px)
    for q in dec.cubes:
        lo = [float(v) for v in q.corner_lo()]
        hi = [float(v) for v in q.corner_hi()]
        cv.rect(lo[:2], hi[:2],
                stroke=LEVEL_COLORS[q.level % len(LEVEL_COLORS)], width=0.6)
    return cv


def gradient_constant_from_views(pu, max_cubes: int = 400, seed: int = 0) -> float:
    """PartitionOfUnity.gradient_constant with each cube's side and centre
    read from its `DyadicCube` view."""
    rng = np.random.default_rng(seed)
    ids = np.arange(len(pu.dec.levels))
    if len(ids) > max_cubes:
        ids = rng.choice(ids, size=max_cubes, replace=False)
    n = pu.dec.domain.n
    best = 0.0
    for i in ids:
        q = pu.dec.cubes[i]
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
        psi = pu._psi_on_points(i, np.concatenate(stencil, axis=0))
        m = len(pts)
        g2 = np.zeros(m)
        for d in range(n):
            vp = psi[(1 + 2 * d) * m:(2 + 2 * d) * m]
            vm = psi[(2 + 2 * d) * m:(3 + 2 * d) * m]
            g2 += ((vp - vm) / (2 * step)) ** 2
        best = max(best, float(np.sqrt(g2.max())) * ell)
    return best


def surface_gather_d2(idx: np.ndarray, level: int, dom, feature: np.ndarray,
                      shift: int) -> np.ndarray:
    """Exact squared distances from cell-aligned cubes (level <= K+1) to the
    boundary centroid set, in units of 2**-S with S = K + 1 + shift.

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
                [feature[a][tuple(nodes.T)].astype(np.int64) + lo2[a]
                 for a in range(n)], axis=-1
            )
            gap = np.maximum(lo_abs - winners, 0) + np.maximum(
                winners - hi_abs, 0
            )
            d2 = (gap * gap).sum(axis=1)
            np.minimum.at(out, cube_ids, d2)
    return out << (2 * shift)


def exact_box_dist2(qlo, qhi, tree: cKDTree, coords_S: np.ndarray,
                    half_diag: float) -> int:
    """Exact min squared distance from one integer box to the centroid set,
    using the KD-tree only to prune candidates."""
    ctr = [(a + b) / 2.0 for a, b in zip(qlo, qhi)]
    _, j = tree.query(ctr)
    best = sum(max(a - x, 0, x - b) ** 2
               for a, b, x in zip(qlo, qhi, coords_S[j].tolist()))
    r = math.sqrt(best) + half_diag
    cand = tree.query_ball_point(ctr, r * (1.0 + 1e-12) + 1e-9)
    pts = coords_S[cand]
    d2 = np.zeros(len(pts), dtype=np.int64)
    for d in range(len(qlo)):
        gap = np.maximum(qlo[d] - pts[:, d], 0) + np.maximum(pts[:, d] - qhi[d], 0)
        d2 += gap * gap
    return int(d2.min())


def dense_grid_centers(K, lo_int, shape):
    """Cell-centre coordinates as n dense arrays over the grid, the form
    `domain._grid_centers` had before it returned open grids."""
    h = 2.0**-K
    axes = [(np.arange(n) + lo_int[d] + 0.5) * h for d, n in enumerate(shape)]
    return np.meshgrid(*axes, indexing="ij")


def _touching_faces(S: VoxelSet, dist):
    """(axes, coords, sides, touching) of S's interface faces, touching as
    `ON_BOUNDARY` or a squared centroid distance <= 1 in (h/2)^2 units."""
    axes, coords = interface_faces_doubled(S.mask, S.lo_int)
    cls = face_classes_by_lookup(S)
    d2 = dist.d2_at_doubled(coords)
    return axes, coords, cls, d2, (cls == ON_BOUNDARY) | (d2 <= 1)


def _weighted_sum(S: VoxelSet, p: float, dist, side: str) -> float:
    _, _, cls, d2, touching = _touching_faces(S, dist)
    sel = np.isin(cls, (INTERIOR if side == "interior" else EXTERIOR,
                        ON_BOUNDARY))
    if not sel.any():
        return 0.0
    keep = ~touching[sel]
    dvals = np.sqrt(d2[sel][keep].astype(np.float64)) * (dist.h / 2.0)
    return float(np.sum(dvals ** (1.0 - p))) * S.h ** (S.n - 1)


def _ratio(num, den, tag):
    if den == 0.0:
        return (math.nan, [f"{tag}:0/0"]) if num == 0.0 \
            else (math.inf, [f"{tag}:violation"])
    return num / den, []


def tilde_report(A: VoxelSet, A_prime: VoxelSet, A0: VoxelSet, clipped,
                 W, dist, p: float, lemma_ratios: bool) -> InequalityReport:
    """The report with lhs_ext and lhs_int summed over a fresh A~ = A u A0,
    and lhs_touch over A~'s touching faces, lhs_touching_new over those
    that A's own touching faces do not carry (both as coordinate sets)."""
    dom = A.parent
    A_tilde = VoxelSet.from_domain(dom, A.mask | A0.mask, require_subset=False)
    rhs = _weighted_sum(A, p, dist, "interior")
    flags = [f"clipped-dilates:{len(clipped)}"] if clipped else []
    l31 = l32 = l33 = math.nan
    if lemma_ratios:
        aprime_int = _weighted_sum(A_prime, p, dist, "interior")
        l31, f31 = _ratio(aprime_int, rhs, "lemma31")
        energy = gradient_energy(smooth_indicator(W, A_prime.mask), p)
        l32, f32 = _ratio(energy, aprime_int, "lemma32")
        a0_ext = _weighted_sum(A0, p, dist, "exterior")
        if energy == 0.0 and a0_ext > 0.0:
            l33, f33 = math.inf, ["lemma33:degenerate"]
        else:
            l33, f33 = _ratio(a0_ext, energy, "lemma33")
        flags += f31 + f32 + f33
    lhs_ext = _weighted_sum(A_tilde, p, dist, "exterior")
    lhs_int = _weighted_sum(A_tilde, p, dist, "interior")
    ratio, rflags = _ratio(lhs_ext + lhs_int, rhs, "ratio")
    touch = []
    for S in (A_tilde, A):
        axes, coords, _, _, touching = _touching_faces(S, dist)
        touch.append({(int(a), tuple(c)) for a, c in
                      zip(axes[touching], coords[touching].tolist())})
    area = A.h ** (A.n - 1)
    return InequalityReport(A.K, p, rhs, lhs_ext, lhs_int,
                            float(len(touch[0])) * area, ratio, l31, l32, l33,
                            len(touch[0] - touch[1]) * area, flags + rflags)


def cantor_occupancy_dense(spec, K: int, lo_int, shape) -> np.ndarray:
    """`cantor.cantor_occupancy` with the point-to-segment projection over a
    dense (m, 3) point stack per tube."""
    h = 2.0**-K
    axes = [(np.arange(s) + lo_int[d] + 0.5) * h for d, s in enumerate(shape)]
    inside = np.ones(shape, dtype=bool)
    for d in range(3):
        sl = [None, None, None]
        sl[d] = slice(None)
        a = axes[d][tuple(sl)]
        inside &= (a > 0.0) & (a < 1.0)
    removed = np.zeros(shape, dtype=bool)
    wlo = [axes[d][0] for d in range(3)]
    whi = [axes[d][-1] for d in range(3)]
    for n, i, verts, radius in spec.all_tubes():
        r = float(radius)
        vf = np.array([[float(x) for x in v] for v in verts])
        tlo = vf.min(axis=0) - r
        thi = vf.max(axis=0) + r
        if any(thi[d] < wlo[d] or tlo[d] > whi[d] for d in range(3)):
            continue
        sel = []
        for d in range(3):
            i0 = int(np.searchsorted(axes[d], tlo[d] - h))
            i1 = int(np.searchsorted(axes[d], thi[d] + h))
            sel.append(slice(i0, i1))
        sub_axes = [axes[d][sel[d]] for d in range(3)]
        if any(a.size == 0 for a in sub_axes):
            continue
        gx, gy, gz = np.meshgrid(*sub_axes, indexing="ij")
        pts = np.stack([gx, gy, gz], axis=-1)
        d2 = np.full(gx.shape, np.inf)
        for a, b in zip(vf, vf[1:]):
            d2 = np.minimum(d2, _point_seg_d2(pts, a, b))
        in_tube = d2 <= r * r
        plo, phi = spec.cube_box(n - 1, i // 8)
        olo, ohi = spec.cube_box(n, i)
        in_parent = np.ones(gx.shape, dtype=bool)
        in_child = np.ones(gx.shape, dtype=bool)
        for d, g in enumerate((gx, gy, gz)):
            in_parent &= (g >= float(plo[d])) & (g <= float(phi[d]))
            in_child &= (g > float(olo[d])) & (g < float(ohi[d]))
        removed[tuple(sel)] |= in_tube & in_parent & ~in_child
    return inside & ~removed


def _point_seg_d2(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        diff = pts - a
        return np.einsum("...d,...d->...", diff, diff)
    t = np.clip(((pts - a) @ ab) / denom, 0.0, 1.0)
    proj = a + t[..., None] * ab
    diff = pts - proj
    return np.einsum("...d,...d->...", diff, diff)


def seg_seg_dist2(a, b, c, d) -> Fraction:
    """Squared distance between two axis-parallel segments (exact)."""
    return box_box_dist2_int(*_seg_box(a, b), *_seg_box(c, d))


def polyline_length(verts) -> Fraction:
    total = Fraction(0)
    for a, b in zip(verts, verts[1:]):
        total += sum(abs(x - y) for x, y in zip(a, b))
    return total


def _curve_dist2_lt(va, vb, bound: Fraction) -> bool:
    for a0, a1 in zip(va, va[1:]):
        for b0, b1 in zip(vb, vb[1:]):
            if seg_seg_dist2(a0, a1, b0, b1) < bound:
                return True
    return False


def check_level_fraction(spec, n: int) -> None:
    """`cantor._check_level` on the spec's `Fraction` vertices: (L1)-(L5),
    lane feasibility and tube separation."""
    c = spec.c
    cn = c[n]
    curves = spec.curves[n]
    for i, verts in enumerate(curves):
        plo, phi = spec.cube_box(n - 1, i // 8)
        olo, ohi = spec.cube_box(n, i)
        for a, b in zip(verts, verts[1:]):
            diffs = [abs(x - y) for x, y in zip(a, b)]
            nz = [d for d in diffs if d != 0]
            if len(nz) != 1:
                raise ConstructionError("segment not axis-parallel", level=n, cube=i)
            if nz[0] < cn:
                raise ConstructionError(
                    f"(L4) segment shorter than c_n at level {n}", level=n, cube=i
                )
            # (L1): inside the closed parent cube
            for p in (a, b):
                if not all(lo <= v <= hi for v, lo, hi in zip(p, plo, phi)):
                    raise ConstructionError("(L1) curve leaves parent", level=n, cube=i)
            # (L1): not through the open child cube
            if _seg_meets_open_box(a, b, olo, ohi):
                raise ConstructionError("(L1) curve enters child", level=n, cube=i)
        # (L5): perpendicular approach, first and last segments vertical
        for a, b in ((verts[0], verts[1]), (verts[-2], verts[-1])):
            if not (a[0] == b[0] and a[1] == b[1]):
                raise ConstructionError("(L5) approach not perpendicular", level=n, cube=i)
        # (L2)
        xp = spec.anchors_x[n - 1][i // 8] if n > 1 else (
            Fraction(1, 2), Fraction(1, 2), Fraction(1))
        yv = spec.anchors_y[n][i]
        d2 = sum((a - b) ** 2 for a, b in zip(yv, xp))
        if d2 > (c[n - 1] / 2) ** 2:
            raise ConstructionError("(L2) exit anchor too far", level=n, cube=i)
        # feasibility for split rules later
        if polyline_length(verts) < 8 * cn:
            raise ConstructionError("curve shorter than 8 c_n", level=n, cube=i)
        # tube must clear the other children of the same parent by c_n
        base = (i // 8) * 8
        for j in range(base, base + 8):
            if j == i:
                continue
            blo, bhi = spec.cube_box(n, j)
            for a, b in zip(verts, verts[1:]):
                if box_box_dist2_int(*_seg_box(a, b), blo, bhi) < cn**2:
                    raise ConstructionError(
                        f"lane too close to sibling cube at level {n}",
                        level=n, cube=i,
                    )
    # (L3) with tube radii: pairwise curve distance >= 2 c_n.
    nparents = len(spec.cubes[n - 1])
    for pi in range(nparents):
        for a_idx in range(pi * 8, pi * 8 + 8):
            for b_idx in range(a_idx + 1, pi * 8 + 8):
                if _curve_dist2_lt(curves[a_idx], curves[b_idx], (2 * cn) ** 2):
                    raise ConstructionError(
                        f"(L3) curves {a_idx},{b_idx} closer than 2c_n at level {n}",
                        level=n, cube=a_idx,
                    )
    bound = (2 * cn) ** 2
    for pi in range(nparents):
        alo, ahi = spec.cube_box(n - 1, pi)
        for pj in range(pi + 1, nparents):
            blo, bhi = spec.cube_box(n - 1, pj)
            if box_box_dist2_int(alo, ahi, blo, bhi) < bound:
                raise ConstructionError(
                    f"parent cubes {pi},{pj} too close for (L3) at level {n}",
                    level=n,
                )


def interface_faces_whole_grid(mask: np.ndarray, lo_int) -> tuple[np.ndarray, np.ndarray]:
    """Interface faces of a mask (in/out plus clipping at the array edge),
    as (axes, doubled centroid coordinates)."""
    axes_list, coords_list = [], []
    n = mask.ndim
    for d in range(n):
        padded = np.zeros(
            tuple(s + 2 if a == d else s for a, s in enumerate(mask.shape)), bool
        )
        sl = tuple(slice(1, -1) if a == d else slice(None) for a in range(n))
        padded[sl] = mask
        lowside = tuple(slice(0, -1) if a == d else slice(None) for a in range(n))
        highside = tuple(slice(1, None) if a == d else slice(None) for a in range(n))
        iface = padded[lowside] != padded[highside]
        idx = np.argwhere(iface)
        coords = np.empty_like(idx)
        for a in range(n):
            if a == d:
                coords[:, a] = 2 * (idx[:, a] + lo_int[a])
            else:
                coords[:, a] = 2 * (idx[:, a] + lo_int[a]) + 1
        axes_list.append(np.full(len(idx), d, dtype=np.int8))
        coords_list.append(coords)
    return np.concatenate(axes_list), np.concatenate(coords_list).astype(np.int64)


def _region_grid_table(dom, side: str):
    """Summed-area table (int64) of the side's region over the whole grid,
    with its first cell 0: the interior counts on the domain's mask, the
    exterior on ~dom.mask."""
    region = dom.mask if side == "interior" else ~dom.mask
    P = np.zeros(tuple(s + 1 for s in region.shape), dtype=np.int64)
    P[(slice(1, None),) * region.ndim] = region
    for d in range(region.ndim):
        np.cumsum(P, axis=d, out=P)
    return P, np.zeros(region.ndim, dtype=np.int64)


def whitney_by_region_table(dom, L_max: int, side: str):
    """whitney_decompose with every cube's region cells counted on a
    whole-grid table of the region (`~dom.mask` on the exterior), before
    the exterior count became the cube's cells less the domain's."""
    n = dom.n
    K = dom.K
    field = distance_transform(dom)
    S = max(L_max, K + 1)
    P = _region_grid_table(dom, side)
    lo_int = np.asarray(dom.lo_int, dtype=np.int64)
    shape = np.asarray(dom.mask.shape, dtype=np.int64)
    bbox_lo_S = lo_int * 2 ** (S - K)
    bbox_hi_S = (lo_int + shape) * 2 ** (S - K)
    acc = {"levels": [np.empty(0, dtype=np.int64)],
           "index": [np.empty((0, n), dtype=np.int64)],
           "d2": [np.empty(0, dtype=np.int64)],
           "synthetic": [np.empty(0, dtype=bool)]}
    collar_lvl = np.empty(0, dtype=np.int64)
    collar_idx = np.empty((0, n), dtype=np.int64)
    collar_cells = 0.0
    root_level = root_tiling_level(dom)
    t = 2 ** (K - root_level)
    ranges = [np.arange(lo_int[d] // t, (lo_int[d] + shape[d]) // t)
              for d in range(n)]
    cur = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, n)
    level = root_level
    while len(cur) and level <= L_max:
        cnt = _level_counts(P, dom, level, cur)
        full = 2 ** (max(K - level, 0) * n)
        keep = cnt > 0
        cur, cnt = cur[keep], cnt[keep]
        if len(cur) == 0:
            break
        ell = 2 ** (S - level)
        is_full = cnt == full
        d2 = np.zeros(len(cur), dtype=np.int64)
        if is_full.any():
            d2[is_full] = field.box_d2(cur[is_full] * ell, ell, S - K - 1)
        accept = is_full & (d2 >= ell * ell)
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
        cur = np.concatenate([2 * nxt + np.array([(m >> d) & 1 for d in range(n)])
                              for m in range(2**n)])
        level += 1
    return WhitneyDecomposition(
        domain=dom, side=side,
        **{key: np.concatenate(parts) for key, parts in acc.items()},
        scale_level=S, truncation_level=L_max,
        collar_levels=collar_lvl, collar_index=collar_idx,
        collar_measure=float(collar_cells) * dom.h**n)


def audit_by_region_table(dec) -> dict:
    """audit_whitney with the (W1) and (W2) counts taken on a whole-grid
    table of the region, and the region's volume from its mask."""
    dom = dec.domain
    n = dom.n
    S = dec.scale_level
    region = dec.side_mask()
    P = _region_grid_table(dom, dec.side)
    w2 = w4 = True
    levels, d2 = dec.levels, dec.d2
    full = np.left_shift(1, np.maximum(dom.K - levels, 0) * n)
    w1 = bool(np.all(_level_counts(P, dom, levels, dec.index) == full)
              and np.all(d2 > 0))
    ell2 = np.left_shift(1, 2 * (S - levels))
    w3 = bool(np.all((ell2 <= d2) & (d2 <= 16 * n * ell2)))
    vol = sum((Fraction(int(c), 2 ** (int(k) * n))
               for k, c in zip(*np.unique(levels, return_counts=True))),
              Fraction(0))
    for k, pos, idx in _per_level(dec):
        for up in range(1, k + 1):
            if np.any(dec._find(k - up, idx >> up) >= 0):
                w2 = False
    collar_vol = Fraction(0)
    for k, pos, idx in _per_level(dec, collar=True):
        if k <= dom.K:
            cells = int(_level_counts(P, dom, k, idx).sum())
            collar_vol += Fraction(cells, 2 ** (dom.K * n))
        else:
            collar_vol += Fraction(len(pos), 2 ** (k * n))
    if vol + collar_vol != Fraction(int(region.sum()), 2 ** (dom.K * n)):
        w2 = False
    i, j = dec._adjacent
    if np.any(np.abs(dec.levels[i] - dec.levels[j]) > 2):
        w4 = False
    return {
        "W1": w1, "W2": w2, "W3": w3, "W4": w4,
        "cubes": len(dec.levels),
        "collar_measure": dec.collar_measure,
        "levels": dict(zip(*np.unique(dec.levels, return_counts=True)))
        if len(dec.levels) else {},
    }


def cells_in_cube(A: VoxelSet, Q: DyadicCube) -> np.ndarray:
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
