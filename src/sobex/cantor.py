"""Exact-rational construction of the Cantor-tube domain.

The construction removes tubular neighbourhoods of axis-parallel curves from
the unit cube; the curves descend toward a Cantor set built from 8 shrinking
sub-cubes per generation.  All cube corners, curve vertices and constants are
Fractions.  Every geometric constraint is certified exactly in integers: each
level is scaled once onto one grid, D_n times every value its checks read
(`_level_grid`), so squared distances compare with squared bounds and the
(P1)-(P4) split is scheduled on the same grid.  The CANTOR1 writer reduces
each cut point num/D_n from the factorisation D_n = 2^a m.

Curve routing (one admissible scheme; the constraints only assert existence):
from the top-face center of a child cube the curve rises by e_n/2 into the
horizontal "street" between cube layers, runs to a per-child lane near the
parent's top-face center (lane offsets spaced 2*c_n), and rises to the top
face.  Lanes keep distinct curves >= 2*c_n apart, so the closed tubes of
radius c_n/2 stay >= c_n apart.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate, islice, repeat
from operator import and_, floordiv, mul, neg
from typing import NamedTuple

import numpy as np

from .domain import _cube, _grid_centers
from .dyadic import box_box_dist2_int, box_point_d2
from .errors import ConstructionError, PreconditionNotMet, SobexError

Vec = tuple[Fraction, Fraction, Fraction]

# Split pieces a spec may schedule: about 11x depth 2 (362,168); depth 3
# needs about 55.3M.
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


def _seg_box(a: Vec, b: Vec) -> tuple[Vec, Vec]:
    """An axis-parallel segment as the degenerate box it spans."""
    return tuple(map(min, a, b)), tuple(map(max, a, b))


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
    # schedules[n][i] = (chain, ichain, D, runs) of the split, see
    # `_split_schedule`; set by `_certify`
    schedules: list[list[tuple]] = field(default_factory=list)

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

    @property
    def splits(self) -> list[list[list[list[Vec]]]]:
        """splits[n][i]: the (P1)-(P4) pieces of curve (n, i), vertex chains
        from the parent-boundary end, cut from the schedule on each access
        (the spec stores no piece)."""
        out = []
        for level in self.schedules:
            out.append([])
            for chain, ichain, D, runs in level:
                pts, ends = _cut(chain, ichain, runs,
                                 partial(_fraction_points, chain, D))
                out[-1].append([pts[s:t + 1] for s, t in zip(ends, ends[1:])])
        return out

    # -- serialization: structured text with exact rationals ---------------

    def to_text(self) -> str:
        return "".join(self.text_chunks())

    def text_chunks(self):
        """Yield the CANTOR1 text: the header (constants and cubes), then one
        chunk per curve (its anchor, chain and split pieces), each ending
        with a newline, so a writer never holds the whole text."""
        out = ["CANTOR1", f"depth {self.depth}"]
        out.append("lambda " + " ".join(map(_token, self.lambdas)))
        out.append("l " + " ".join(map(_token, self.l)))
        out.append("e " + " ".join(map(_token, self.e)))
        out.append("c " + " ".join(map(_token, self.c)))
        for n in range(self.depth + 1):
            for i, lo in enumerate(self.cubes[n]):
                out.append(f"cube {n} {i} " + " ".join(map(_token, lo)))
        yield "\n".join(out) + "\n"
        for n in range(1, self.depth + 1):
            for i, (chain, ichain, D, runs) in enumerate(self.schedules[n]):
                anchors = self.anchors_x[n][i] + self.anchors_y[n][i]
                toks = [tuple(map(_token, v)) for v in chain]
                vlines = ["v " + " ".join(t) for t in toks]
                out = [f"anchor {n} {i} " + " ".join(map(_token, anchors)),
                       f"curve {n} {i} {len(chain)}"]
                out += reversed(vlines)  # the chain is the curve reversed
                lines, ends = _cut(vlines, ichain, runs,
                                   partial(_line_points, toks, D))
                # one string per split record; most pieces are one segment
                head = f"split {n} {i} "
                out += [f"{head}{j} 2\n{lines[s]}\n{lines[t]}" if t == s + 1
                        else f"{head}{j} {t - s + 1}\n" + "\n".join(lines[s:t + 1])
                        for j, (s, t) in enumerate(zip(ends, ends[1:]))]
                out.append("")  # the closing newline, without a second copy
                yield "\n".join(out)

    @classmethod
    def from_text(cls, text: str) -> "CantorTubeSpec":
        """Read a CANTOR1 text back.  Split records are not parsed: the
        levels are certified again and their schedules rebuilt from the
        curves, and any text that differs, blank lines aside, from what the
        spec it describes writes is refused with ValueError."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "CANTOR1":
            raise ValueError("not a CANTOR1 spec")
        try:
            spec = cls._parse(lines)
            _certify(spec)
        except (IndexError, ZeroDivisionError, SobexError) as err:
            raise ValueError(f"malformed CANTOR1 spec: {err}") from None
        k = 0
        for chunk in spec.text_chunks():
            want = chunk.splitlines()
            if lines[k:k + len(want)] != want:
                raise ValueError(f"CANTOR1 records from record {k + 1} differ "
                                 "from what the spec they describe writes")
            k += len(want)
        if k != len(lines):
            raise ValueError(f"CANTOR1 spec has extra records from record {k + 1}")
        return spec

    @classmethod
    def _parse(cls, lines: list[str]) -> "CantorTubeSpec":
        """The header, cubes, anchors and curves of a CANTOR1 text; the "v"
        rows of split records are skipped."""
        def vec(toks) -> Vec:
            if len(toks) != 3:
                raise ValueError(f"not a 3-vector: {toks}")
            return tuple(map(Fraction, toks))

        depth = int(lines[1].split()[1])
        lambdas = tuple(map(Fraction, lines[2].split()[1:]))
        l, e, c = (list(map(Fraction, ln.split()[1:])) for ln in lines[3:6])
        if (lambdas, l, e, c) != _cantor_constants(depth, lambdas):
            raise ValueError("CANTOR1 constants do not follow from the lambdas")
        cubes, ax, ay, curves = ([[] for _ in range(depth + 1)] for _ in range(4))
        verts = None
        for ln in islice(lines, 6, None):
            if verts is None and ln.startswith("v "):
                continue  # a split record's row, skipped unsplit
            tag, *toks = ln.split()
            if tag == "v":
                if verts is not None:
                    verts.append(vec(toks))
            elif tag == "split":
                verts = None
            elif tag == "curve":
                verts = []
                curves[int(toks[0])].append(verts)
            elif tag == "cube":
                cubes[int(toks[0])].append(vec(toks[2:]))
            elif tag == "anchor":
                ax[int(toks[0])].append(vec(toks[2:5]))
                ay[int(toks[0])].append(vec(toks[5:]))
            else:
                raise ValueError(f"bad record: {ln!r}")
        for n in range(depth + 1):
            if not len(cubes[n]) == 8**n or n and not (
                    len(ax[n]) == len(ay[n]) == len(curves[n]) == 8**n):
                raise ValueError(f"CANTOR1 spec has a truncated level {n}")
        return cls(depth, lambdas, l, e, c, cubes, ax, ay, curves)


def _token(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _fraction_points(chain: list[Vec], D: int, k: int, ax: int,
                     nums: list[int]) -> list[Vec]:
    """The cut points of `_cut` on segment k of chain, as Fraction tuples."""
    a = chain[k]
    return [a[:ax] + (Fraction(num, D),) + a[ax + 1:] for num in nums]


def _line_points(toks: list[tuple[str, str, str]], D: int, k: int, ax: int,
                 nums: list[int]) -> list[str]:
    """The cut points of `_cut` on segment k as "v" lines: each keeps the
    other two tokens of the segment's start, and its moved coordinate is
    written as num/D reduced, the token of Fraction(num, D).

    With D = 2^a m, m odd, gcd(num, D) is gcd(num, m) times the lowest set
    bit of num capped at 2^a (every num is positive: a cut lies inside a
    segment of the closed unit cube), all taken in one pass over the
    segment's cuts."""
    a = toks[k]
    fmt = "v " + "".join(t + " " for t in a[:ax]) + "%d%s"
    tail = "".join(" " + t for t in a[ax + 1:])
    two = D & -D
    gs = list(map(mul, map(math.gcd, nums, repeat(D // two)),
                  map(min, map(and_, nums, map(neg, nums)), repeat(two))))
    dens = {g: f"/{D // g}{tail}" for g in set(gs)}
    return list(map(fmt.__mod__, zip(map(floordiv, nums, gs),
                                     map(dens.__getitem__, gs))))


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
    )
    for n in range(1, depth + 1):
        _route_level(spec, n)
    _certify(spec)
    return spec


def _certify(spec: CantorTubeSpec) -> None:
    """Certify every level and schedule its split, refusing a spec whose
    pieces exceed the limit, then check the measure identity."""
    spec.schedules = [[]]
    pieces = 0
    for n in range(1, spec.depth + 1):
        grid = _level_grid(spec, n)
        _check_level(n, grid)
        spec.schedules.append(_split_schedule(spec, n, grid))
        pieces += sum(k for *_, runs in spec.schedules[n] for _, k in runs)
        if pieces > _MAX_PIECES:
            raise PreconditionNotMet(
                f"Cantor depth {spec.depth} needs {pieces} tube pieces through "
                f"level {n}, over the limit of {_MAX_PIECES}")
    _check_measures(spec)


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


class _Grid(NamedTuple):
    """Level n of a spec on one integer grid: every value its checks read,
    times D.  D is 2 lcm of the denominators of c_n, c_{n-1}, l_n, l_{n-1},
    the cube corners of levels n and n-1, the anchors x_{n-1} (the top-face
    centre (1/2, 1/2, 1) at n = 1) and y_n, and the level-n curve vertices,
    so each of them is an integer (the 2 keeps the parity bisection of
    `_piece_runs` integral)."""
    D: int
    c: int                                  # c_n D
    c_prev: int                             # c_{n-1} D
    l: int                                  # l_n D
    l_prev: int                             # l_{n-1} D
    cubes: list[tuple[int, int, int]]       # level-n lower corners
    parents: list[tuple[int, int, int]]     # level-(n-1) lower corners
    x_prev: list[tuple[int, int, int]]      # x_{n-1}; (1/2, 1/2, 1) at n = 1
    y: list[tuple[int, int, int]]           # y_n
    curves: list[list[tuple[int, int, int]]]


_TOP_CENTRE: Vec = (Fraction(1, 2), Fraction(1, 2), Fraction(1))


def _level_grid(spec: CantorTubeSpec, n: int) -> _Grid:
    """Scale level n of the spec once onto its integer grid."""
    consts = (spec.c[n], spec.c[n - 1], spec.l[n], spec.l[n - 1])
    x_prev = spec.anchors_x[n - 1] if n > 1 else [_TOP_CENTRE]
    vecs = (spec.cubes[n], spec.cubes[n - 1], x_prev, spec.anchors_y[n],
            *spec.curves[n])
    dens = {x.denominator for x in consts}
    dens.update(x.denominator for vs in vecs for v in vs for x in v)
    D = 2 * math.lcm(*dens)
    per = {d: D // d for d in dens}

    def scale(vs):
        return [tuple(x.numerator * per[x.denominator] for x in v) for v in vs]

    return _Grid(D, *(x.numerator * per[x.denominator] for x in consts),
                 *map(scale, vecs[:4]),
                 [scale(vs) for vs in vecs[4:]])


def _check_level(n: int, g: _Grid) -> None:
    """Certify (L1)-(L5), lane feasibility and tube separation exactly, on
    the level's integer grid `g`: squared distances compare with squared
    bounds in units of 1/D^2, and (L2) reads 4 d2 <= c_{n-1}^2."""
    cn = g.c
    curves = g.curves
    segs = [[_seg_box(a, b) for a, b in zip(v, v[1:])] for v in curves]
    for i, verts in enumerate(curves):
        plo = g.parents[i // 8]
        phi = tuple(v + g.l_prev for v in plo)
        olo = g.cubes[i]
        ohi = tuple(v + g.l for v in olo)
        for a, b in zip(verts, verts[1:]):
            nz = [d for d in (abs(x - y) for x, y in zip(a, b)) if d]
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
        # (L2): |y_n - x_{n-1}| <= c_{n-1}/2
        d2 = sum((a - b) ** 2 for a, b in zip(g.y[i], g.x_prev[i // 8]))
        if 4 * d2 > g.c_prev ** 2:
            raise ConstructionError("(L2) exit anchor too far", level=n, cube=i)
        # feasibility for split rules later
        if _length(verts) < 8 * cn:
            raise ConstructionError("curve shorter than 8 c_n", level=n, cube=i)
        # tube must clear the other children of the same parent by c_n
        base = (i // 8) * 8
        for j in range(base, base + 8):
            if j == i:
                continue
            blo = g.cubes[j]
            bhi = tuple(v + g.l for v in blo)
            for box in segs[i]:
                if box_box_dist2_int(*box, blo, bhi) < cn * cn:
                    raise ConstructionError(
                        f"lane too close to sibling cube at level {n}",
                        level=n, cube=i,
                    )
    # (L3) with tube radii: pairwise curve distance >= 2 c_n.
    # Same-parent pairs are checked segment-by-segment; cross-parent pairs
    # reduce to the exact parent cube distance since curves stay inside
    # their parents.
    bound = (2 * cn) ** 2
    nparents = len(g.parents)
    for pi in range(nparents):
        for a_idx in range(pi * 8, pi * 8 + 8):
            for b_idx in range(a_idx + 1, pi * 8 + 8):
                if any(box_box_dist2_int(*sa, *sb) < bound
                       for sa in segs[a_idx] for sb in segs[b_idx]):
                    raise ConstructionError(
                        f"(L3) curves {a_idx},{b_idx} closer than 2c_n at level {n}",
                        level=n, cube=a_idx,
                    )
    boxes = [(lo, tuple(v + g.l_prev for v in lo)) for lo in g.parents]
    for pi in range(nparents):
        for pj in range(pi + 1, nparents):
            if box_box_dist2_int(*boxes[pi], *boxes[pj]) < bound:
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


def _length(verts) -> int:
    """Arclength of an axis-parallel integer chain."""
    return sum(abs(p - q) for a, b in zip(verts, verts[1:]) for p, q in zip(a, b))


def _split_schedule(spec: CantorTubeSpec, n: int, g: _Grid) -> list:
    """Integer schedule of the (P1)-(P4) split of every level-n curve.

    Each chain runs from y (parent boundary) to x (child cube) for (P4),
    with its vertices, c_n and every cut integers on the level's grid `g`.
    (P1)-(P3) are certified here in closed form on the piece runs and (P4)
    on the chain's ends.  Returns (chain, integer chain, D, runs) per
    curve.
    """
    c, D = g.c, g.D
    out = []
    for i, (verts, iverts) in enumerate(zip(spec.curves[n], g.curves)):
        chain, ichain = verts[::-1], iverts[::-1]
        total = _length(ichain)
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
        # (P3): consecutive pieces share their cut point, so they chain when
        # the run ends tile the chain exactly
        if sum(ln * k for ln, k in runs) != total:
            raise ConstructionError("(P3) pieces not chained", level=n, cube=i)
        if chain[0] != spec.anchors_y[n][i] or chain[-1] != spec.anchors_x[n][i]:
            raise ConstructionError("(P4) end pieces misplaced", level=n, cube=i)
        out.append((chain, ichain, D, runs))
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


def _cut(verts: list, ichain: list[tuple[int, int, int]],
         runs: list[tuple[int, int]], cut_points) -> tuple[list, list[int]]:
    """Cut an axis-parallel chain at the ends of its runs, integer
    arclengths in the units of its integer vertices `ichain`.

    `verts` holds the chain's vertices in the caller's form, and
    cut_points(k, ax, nums) gives the cut points on segment k, whose
    coordinate ax is each of nums (integers in the same units) and whose
    others are those of vertex k.  Returns the chain's points in order,
    vertices and cut points, and the indices in them of the piece ends, so
    piece j is points[ends[j]:ends[j + 1] + 1]; a cut on a vertex is that
    vertex."""
    cuts = list(accumulate(ln for ln, k in runs for _ in range(k)))
    pts, ends = [verts[0]], [0]
    walked = j = 0
    for k, (ia, ib) in enumerate(zip(ichain, ichain[1:])):
        ax = next(d for d in range(3) if ia[d] != ib[d])
        sign = 1 if ib[ax] > ia[ax] else -1
        base = ia[ax] - sign * walked
        walked += abs(ib[ax] - ia[ax])
        j1 = bisect_left(cuts, walked, j)
        ends.extend(range(len(pts), len(pts) + j1 - j))
        pts += cut_points(k, ax, [base + sign * cut for cut in cuts[j:j1]])
        pts.append(verts[k + 1])
        if j1 < len(cuts) and cuts[j1] == walked:
            ends.append(len(pts) - 1)
            j1 += 1
        j = j1
    return pts, ends


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
    given window.  A tube is the set of points within its radius of its
    segments' degenerate boxes (`_seg_box`); every test runs on the open
    grid of the window's cell centres."""
    h = 2.0**-K
    grids = _grid_centers(K, lo_int, shape)
    axes = [g.ravel() for g in grids]
    removed = np.zeros(shape, dtype=bool)
    for n, i, verts, radius in spec.all_tubes():
        r = float(radius)
        vf = [tuple(map(float, v)) for v in verts]
        plo, phi = spec.cube_box(n - 1, i // 8)
        olo, ohi = spec.cube_box(n, i)
        for a, b in zip(vf, vf[1:]):
            # the work box: the segment's box grown by r, and by h so that
            # float rounding cannot drop a cell within r of the segment
            slo, shi = _seg_box(a, b)
            sel = tuple(slice(int(np.searchsorted(ax, lo - r - h)),
                              int(np.searchsorted(ax, hi + r + h)))
                        for ax, lo, hi in zip(axes, slo, shi))
            if any(s.start >= s.stop for s in sel):
                continue
            # slice each open-grid axis along its own dimension only
            sub = [g[(slice(None),) * d + (sel[d],)]
                   for d, g in enumerate(grids)]
            in_parent = in_child = True
            for g, p0, p1, c0, c1 in zip(sub, plo, phi, olo, ohi):
                in_parent = in_parent & (g >= float(p0)) & (g <= float(p1))
                in_child = in_child & (g > float(c0)) & (g < float(c1))
            removed[sel] |= ((box_point_d2(slo, shi, sub) <= r * r)
                             & in_parent & ~in_child)
    return _cube(K, lo_int, shape) & ~removed
