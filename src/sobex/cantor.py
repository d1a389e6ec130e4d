"""Exact-rational construction of the Cantor-tube domain.

The construction removes tubular neighbourhoods of axis-parallel curves from
the unit cube; the curves descend toward a Cantor set built from 8 shrinking
sub-cubes per generation.  All cube corners, curve vertices and constants are
Fractions, and every geometric constraint is certified in exact arithmetic.

Curve routing (one admissible scheme; the constraints only assert existence):
from the top-face center of a child cube the curve rises by e_n/2 into the
horizontal "street" between cube layers, runs to a per-child lane near the
parent's top-face center (lane offsets spaced 2*c_n), and rises to the top
face.  Lanes keep distinct curves >= 2*c_n apart, so the closed tubes of
radius c_n/2 stay >= c_n apart.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import ConstructionError, PreconditionNotMet

Vec = tuple[Fraction, Fraction, Fraction]

# Split pieces a build may hold: about 11x depth 2 (366,064); depth 3 needs
# about 55.3M.
_MAX_PIECES = 1 << 22


def default_lambdas(depth: int) -> tuple[Fraction, ...]:
    """Dyadic approximations of (1/2)exp(-1/i), exact to ~2**-52."""
    out = []
    for i in range(1, depth + 1):
        v = 0.5 * math.exp(-1.0 / i)
        out.append(Fraction(round(v * 2**52), 2**52))
    return tuple(out)


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def seg_box_dist2(a: Vec, b: Vec, lo: Vec, hi: Vec) -> Fraction:
    """Squared distance between an axis-parallel segment and a box (exact).

    The segment is treated as a degenerate box, which is valid because all
    curve segments here are axis-parallel.
    """
    d2 = Fraction(0)
    for aa, bb, l, h in zip(a, b, lo, hi):
        slo, shi = min(aa, bb), max(aa, bb)
        if shi < l:
            d2 += (l - shi) ** 2
        elif h < slo:
            d2 += (slo - h) ** 2
    return d2


def seg_seg_dist2(a: Vec, b: Vec, c: Vec, d: Vec) -> Fraction:
    """Squared distance between two axis-parallel segments (exact)."""
    d2 = Fraction(0)
    for a1, b1, c1, d1 in zip(a, b, c, d):
        lo1, hi1 = min(a1, b1), max(a1, b1)
        lo2, hi2 = min(c1, d1), max(c1, d1)
        if hi1 < lo2:
            d2 += (lo2 - hi1) ** 2
        elif hi2 < lo1:
            d2 += (lo1 - hi2) ** 2
    return d2


def polyline_length(verts: list[Vec]) -> Fraction:
    total = Fraction(0)
    for a, b in zip(verts, verts[1:]):
        total += sum(abs(x - y) for x, y in zip(a, b))
    return total


@dataclass
class CantorTubeSpec:
    depth: int
    lambdas: tuple[Fraction, ...]
    l: list[Fraction]                      # side lengths, l[0] = 1
    e: list[Fraction]                      # gaps, e[n] defined for n >= 1
    c: list[Fraction]                      # tube constants, c[0] = e[1]/8
    cubes: list[list[Vec]]                 # cubes[n][i] = lower corner
    anchors_x: list[list[Vec]]             # x_{n,i}, top-face centers
    anchors_y: list[list[Vec]]             # y_{n,i} on the parent top face
    curves: list[list[list[Vec]]]          # curves[n][i], vertex chains
    splits: list[list[list[list[Vec]]]] = field(default_factory=list)

    def cube_box(self, n: int, i: int) -> tuple[Vec, Vec]:
        lo = self.cubes[n][i]
        s = self.l[n]
        return lo, tuple(v + s for v in lo)

    def tube_radius(self, n: int) -> Fraction:
        return self.c[n] / 2

    def cantor_measure(self, n: int) -> Fraction:
        """|C_n| computed from the cube list."""
        return len(self.cubes[n]) * self.l[n] ** 3

    def all_tubes(self):
        """Yield (level, index, polyline, radius) for every tube."""
        for n in range(1, self.depth + 1):
            r = self.tube_radius(n)
            for i, verts in enumerate(self.curves[n]):
                yield n, i, verts, r

    # -- serialization: structured text with exact rationals ---------------

    def to_text(self) -> str:
        out = ["CANTOR1", f"depth {self.depth}"]
        # split pieces share coordinates and their end vertices with their
        # neighbours; the spec keeps those objects alive, so each token and
        # vertex line is formatted once, keyed by the object's id
        tokens: dict[int, str] = {}
        vlines: dict[int, str] = {}

        def f(x: Fraction) -> str:
            t = tokens.get(id(x))
            if t is None:
                t = tokens[id(x)] = f"{x.numerator}/{x.denominator}"
            return t

        def vline(v: Vec) -> str:
            t = vlines.get(id(v))
            if t is None:
                t = vlines[id(v)] = "v " + " ".join(map(f, v))
            return t

        out.append("lambda " + " ".join(f(x) for x in self.lambdas))
        out.append("l " + " ".join(f(x) for x in self.l))
        out.append("e " + " ".join(f(x) for x in self.e))
        out.append("c " + " ".join(f(x) for x in self.c))
        for n in range(self.depth + 1):
            for i, lo in enumerate(self.cubes[n]):
                out.append(f"cube {n} {i} " + " ".join(f(v) for v in lo))
        for n in range(1, self.depth + 1):
            for i in range(len(self.curves[n])):
                ax = self.anchors_x[n][i]
                ay = self.anchors_y[n][i]
                out.append(
                    f"anchor {n} {i} "
                    + " ".join(f(v) for v in ax)
                    + " "
                    + " ".join(f(v) for v in ay)
                )
                verts = self.curves[n][i]
                out.append(f"curve {n} {i} {len(verts)}")
                out.extend(map(vline, verts))
                for j, piece in enumerate(self.splits[n][i]):
                    out.append(f"split {n} {i} {j} {len(piece)}")
                    out.extend(map(vline, piece))
        return "\n".join(out) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CantorTubeSpec":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if lines[0] != "CANTOR1":
            raise ValueError("not a CANTOR1 spec")
        rows = lines[6:]
        # split pieces repeat their neighbours' end vertices and coordinates,
        # so each distinct token and vertex line is parsed once
        fracs: dict[str, Fraction] = {}
        vecs: dict[str, Vec] = {}

        def frac(t: str) -> Fraction:
            x = fracs.get(t)
            if x is None:
                x = fracs[t] = Fraction(t)
            return x

        def vec(toks) -> Vec:
            return tuple(frac(t) for t in toks)

        def vert_rows(k: int, nv: int) -> list[Vec]:
            out = []
            for row in rows[k + 1:k + 1 + nv]:
                v = vecs.get(row)
                if v is None:
                    v = vecs[row] = vec(row.split()[1:4])
                out.append(v)
            return out

        depth = int(lines[1].split()[1])
        lambdas = vec(lines[2].split()[1:])
        l, e, c = (list(vec(ln.split()[1:])) for ln in lines[3:6])
        cubes = [[] for _ in range(depth + 1)]
        ax = [[] for _ in range(depth + 1)]
        ay = [[] for _ in range(depth + 1)]
        curves = [[] for _ in range(depth + 1)]
        splits = [[] for _ in range(depth + 1)]
        k = 0
        while k < len(rows):
            toks = rows[k].split()
            if toks[0] == "cube":
                n = int(toks[1])
                cubes[n].append(vec(toks[3:6]))
                k += 1
            elif toks[0] == "anchor":
                n = int(toks[1])
                ax[n].append(vec(toks[3:6]))
                ay[n].append(vec(toks[6:9]))
                k += 1
            elif toks[0] == "curve":
                n, i, nv = int(toks[1]), int(toks[2]), int(toks[3])
                curves[n].append(vert_rows(k, nv))
                splits[n].append([])
                k += 1 + nv
            elif toks[0] == "split":
                n, i, nv = int(toks[1]), int(toks[2]), int(toks[4])
                splits[n][i].append(vert_rows(k, nv))
                k += 1 + nv
            else:
                raise ValueError(f"bad record: {rows[k]!r}")
        return cls(depth, lambdas, l, e, c, cubes, ax, ay, curves, splits)


def _cantor_constants(depth: int, lambda_override=None):
    """Validated ratios lambda_n with the side lengths l, gaps e and tube
    constants c of a depth-m construction."""
    if depth < 1:
        raise ConstructionError("depth must be >= 1")
    if lambda_override is not None:
        lambdas = tuple(_fr(x) for x in lambda_override)
        if len(lambdas) != depth:
            raise ConstructionError("lambda override length must equal depth")
    else:
        lambdas = default_lambdas(depth)
    half = Fraction(1, 2)
    for i, lam in enumerate(lambdas):
        if not (0 < lam < half):
            raise ConstructionError(f"lambda_{i+1} must lie in (0, 1/2)")
        if i and lambdas[i - 1] >= lam:
            raise ConstructionError("lambda sequence must be strictly increasing")

    l = [Fraction(1)]
    for lam in lambdas:
        l.append(l[-1] * lam)
    e = [Fraction(0)]
    for n in range(1, depth + 1):
        e.append(l[n - 1] * (1 - 2 * lambdas[n - 1]) / 3)
    c = [e[1] / 8]
    for n in range(1, depth + 1):
        c.append(c[-1] / Fraction(64))
    for n in range(1, depth + 1):
        if not (c[n] <= e[n] / 8 and c[n] <= l[n]):
            raise ConstructionError(
                f"constants violate c_n <= e_n/8 and c_n <= l_n at n={n}", level=n
            )
    return lambdas, l, e, c


def build_cantor_tube(depth: int, lambda_override=None) -> CantorTubeSpec:
    """Construct the depth-m spec and certify all invariants exactly."""
    lambdas, l, e, c = _cantor_constants(depth, lambda_override)

    cubes: list[list[Vec]] = [[(Fraction(0),) * 3]]
    for n in range(1, depth + 1):
        lvl = []
        for plo in cubes[n - 1]:
            for k in range(8):
                bits = (k & 1, (k >> 1) & 1, (k >> 2) & 1)
                lo = tuple(
                    plo[d] + e[n] + bits[d] * (l[n] + e[n]) for d in range(3)
                )
                lvl.append(lo)
        cubes.append(lvl)

    spec = CantorTubeSpec(
        depth, lambdas, l, e, c, cubes,
        anchors_x=[[] for _ in range(depth + 1)],
        anchors_y=[[] for _ in range(depth + 1)],
        curves=[[] for _ in range(depth + 1)],
        splits=[[] for _ in range(depth + 1)],
    )
    schedules = []
    pieces = 0
    for n in range(1, depth + 1):
        _route_level(spec, n)
        _check_level(spec, n)
        schedules.append(_split_schedule(spec, n))
        pieces += sum(k for *_, runs in schedules[-1] for _, k in runs)
        if pieces > _MAX_PIECES:
            raise PreconditionNotMet(
                f"Cantor depth {depth} needs {pieces} tube pieces through "
                f"level {n}, over the limit of {_MAX_PIECES}")
    for n, schedule in enumerate(schedules, 1):
        _split_level(spec, n, schedule)
    _check_measures(spec)
    return spec


def _route_level(spec: CantorTubeSpec, n: int) -> None:
    l, e, c = spec.l, spec.e, spec.c
    for i, clo in enumerate(spec.cubes[n]):
        k = i % 8
        plo = spec.cubes[n - 1][i // 8]
        bx, by, bz = k & 1, (k >> 1) & 1, (k >> 2) & 1
        cx = clo[0] + l[n] / 2
        cy = clo[1] + l[n] / 2
        ctop = clo[2] + l[n]
        ptop = plo[2] + l[n - 1]
        street_z = clo[2] + l[n] + e[n] / 2
        lane = (2 * k - 7) * c[n]
        X = plo[0] + l[n - 1] / 2 + lane
        Y = plo[1] + l[n - 1] / 2 + lane
        x_anchor = (cx, cy, ctop)
        verts = [
            x_anchor,
            (cx, cy, street_z),
            (X, cy, street_z),
            (X, Y, street_z),
            (X, Y, ptop),
        ]
        y_anchor = verts[-1]
        spec.anchors_x[n].append(x_anchor)
        spec.anchors_y[n].append(y_anchor)
        spec.curves[n].append(verts)


def _check_level(spec: CantorTubeSpec, n: int) -> None:
    """Certify (L1)-(L5), lane feasibility and tube separation exactly."""
    l, e, c = spec.l, spec.e, spec.c
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
                if seg_box_dist2(a, b, blo, bhi) < cn**2:
                    raise ConstructionError(
                        f"lane too close to sibling cube at level {n}",
                        level=n, cube=i,
                    )
    # (L3) with tube radii: pairwise curve distance >= 2 c_n.
    # Same-parent pairs are checked segment-by-segment; cross-parent pairs
    # reduce to the exact parent cube distance since curves stay inside
    # their parents.
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
            d2 = Fraction(0)
            for a0, a1, b0, b1 in zip(alo, ahi, blo, bhi):
                if a1 < b0:
                    d2 += (b0 - a1) ** 2
                elif b1 < a0:
                    d2 += (a0 - b1) ** 2
            if d2 < bound:
                raise ConstructionError(
                    f"parent cubes {pi},{pj} too close for (L3) at level {n}",
                    level=n,
                )


def _seg_meets_open_box(a: Vec, b: Vec, lo: Vec, hi: Vec) -> bool:
    """Does a closed axis-parallel segment intersect an open box?"""
    for d in range(3):
        slo, shi = min(a[d], b[d]), max(a[d], b[d])
        if shi <= lo[d] or slo >= hi[d]:
            return False
    return True


def _curve_dist2_lt(va: list[Vec], vb: list[Vec], bound: Fraction) -> bool:
    for a0, a1 in zip(va, va[1:]):
        for b0, b1 in zip(vb, vb[1:]):
            if seg_seg_dist2(a0, a1, b0, b1) < bound:
                return True
    return False


def _split_schedule(spec: CantorTubeSpec, n: int) -> list:
    """Integer schedule of the (P1)-(P4) split of every level-n curve.

    Each chain runs from y (parent boundary) to x (child cube) for (P4) and
    is scaled by D = 2 lcm of the denominators of c_n and its vertices, so
    its vertices, c_n and every cut are integers (the 2 keeps the parity
    bisection integral).  (P1) and (P2) are certified here in closed form on
    the piece runs.  Returns (chain, integer chain, D, integer length, runs)
    per curve.
    """
    cn = spec.c[n]
    out = []
    for i, verts in enumerate(spec.curves[n]):
        chain = verts[::-1]
        D = 2 * math.lcm(cn.denominator, *(x.denominator for v in chain for x in v))
        ichain = [tuple(x.numerator * (D // x.denominator) for x in v)
                  for v in chain]
        total = sum(abs(p - q) for a, b in zip(ichain, ichain[1:])
                    for p, q in zip(a, b))
        c = cn.numerator * (D // cn.denominator)
        runs = _piece_runs(total, c)
        if sum(k for _, k in runs) % 2 == 1:
            raise ConstructionError("(P1) could not enforce even piece count",
                                    level=n, cube=i)
        for ln, k in runs:
            if k and not (2 * c <= ln <= 6 * c):
                raise ConstructionError(
                    f"(P2) piece length {float(Fraction(ln, D)):.3e} "
                    "outside [2c_n, 6c_n]",
                    level=n, cube=i,
                )
        out.append((chain, ichain, D, total, runs))
    return out


def _piece_runs(total: int, c: int) -> list[tuple[int, int]]:
    """Piece lengths of a chain of integer length total >= 8c as runs
    (length, count) in chain order: greedy cuts every 4c, a tail of at
    least 2c kept and a shorter one merged into the last piece, then the
    first longest piece bisected if the count is odd."""
    step = 4 * c
    m, rem = divmod(total, step)
    full = m if rem >= 2 * c else m - 1
    tail = total - full * step
    if full % 2 == 1:
        return [(step, full), (tail, 1)]
    if tail > step:
        return [(step, full), (tail // 2, 2)]
    return [(step // 2, 2), (step, full - 1), (tail, 1)]


def _split_level(spec: CantorTubeSpec, n: int, schedule: list) -> None:
    """Partition each curve into an even number of pieces with lengths in
    [2c_n, 6c_n], as scheduled by `_split_schedule`.  Pieces run from the
    parent-boundary end."""
    coords: dict[int, dict[int, Fraction]] = {}
    for i, (chain, ichain, D, total, runs) in enumerate(schedule):
        ends = list(accumulate(ln for ln, k in runs for _ in range(k)))
        # (P3): pieces share their end tuples, so they chain when the
        # integer ends tile the chain exactly
        if ends[-1] != total:
            raise ConstructionError("(P3) pieces not chained", level=n, cube=i)
        pieces = _cut_pieces(chain, ichain, D, ends[:-1],
                             coords.setdefault(D, {}))
        if pieces[0][0] != spec.anchors_y[n][i] or pieces[-1][-1] != spec.anchors_x[n][i]:
            raise ConstructionError("(P4) end pieces misplaced", level=n, cube=i)
        spec.splits[n].append(pieces)


def _cut_pieces(chain: list[Vec], ichain: list[tuple[int, int, int]], D: int,
                cuts: list[int], coords: dict[int, Fraction]) -> list[list[Vec]]:
    """Cut an axis-parallel chain at increasing integer arclengths (units of
    1/D).  A cut point is its segment's start moved along the segment's axis,
    so it shares the start's other two coordinates; its moved coordinate is
    built once per distinct numerator in `coords`.  A piece's end is the next
    piece's start tuple, and a cut on a vertex is that vertex."""
    pieces = []
    cur = [chain[0]]
    walked = k = 0
    for a, b, ia, ib in zip(chain, chain[1:], ichain, ichain[1:]):
        ax = next(d for d in range(3) if ia[d] != ib[d])
        sign = 1 if ib[ax] > ia[ax] else -1
        base = ia[ax] - sign * walked
        walked += abs(ib[ax] - ia[ax])
        j = bisect_right(cuts, walked, k)
        on_b = j > k and cuts[j - 1] == walked
        nums = [base + sign * c for c in cuts[k:j - on_b]]
        for num in nums:
            if num not in coords:
                coords[num] = Fraction(num, D)
        pts = [a[:ax] + (coords[num],) + a[ax + 1:] for num in nums]
        if on_b:
            pts.append(b)
        if pts:
            cur.append(pts[0])
            pieces.append(cur)
            pieces.extend([p, q] for p, q in zip(pts, pts[1:]))
            cur = [pts[-1]]
        if cur[-1] is not b:
            cur.append(b)
        k = j
    pieces.append(cur)
    return pieces


def _check_measures(spec: CantorTubeSpec) -> None:
    prod = Fraction(1)
    for n in range(1, spec.depth + 1):
        prod *= 2 * spec.lambdas[n - 1]
        if spec.cantor_measure(n) != prod**3:
            raise ConstructionError(f"|C_n| identity fails at n={n}", level=n)


# ---------------------------------------------------------------------------
# voxelization support
# ---------------------------------------------------------------------------


def cantor_occupancy(spec: CantorTubeSpec, K: int, lo_int, shape) -> np.ndarray:
    """Occupancy of (0,1)^3 minus the tubes, sampled at cell centers of the
    given window."""
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
