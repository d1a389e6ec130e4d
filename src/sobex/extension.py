"""Set extension across the domain boundary and the inequality verifiers.

Given a measurable A inside the domain, the extension selects the interior
Whitney cubes where A holds the strict majority (A'), then the exterior
Whitney cubes whose c-dilate sees more of A' than of its complement in the
domain (A0, c = 20 sqrt(n)), and returns A-tilde = A u A0 together with the
weighted-boundary inequality report and the per-lemma sub-ratios.

All selection tests are exact: cube/cell counts come from summed-area
tables, and the irrational dilate radius only ever enters through its
square, so index windows are integer-exact via isqrt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distance import DistanceField
from .errors import PreconditionNotMet, UnsupportedExponent
from .perimeter import (
    ON_BOUNDARY,
    VoxelSet,
    boundary_faces,
    density_profile,
    weighted_boundary_integral,
)
from .whitney import (
    SmoothedIndicator,
    WhitneyDecomposition,
    _box_count_batch,
    _level_counts,
    _paint_level,
    _per_level,
    _table,
    cube_averages,
    gradient_energy,
    smooth_indicator,
)


@dataclass
class ExtensionParams:
    p: float
    lemma_ratios: bool = True

    def __post_init__(self):
        if not (1.0 < self.p < 2.0):
            raise UnsupportedExponent(f"p must lie in (1,2), got {self.p}")


@dataclass
class InequalityReport:
    K: int
    p: float
    rhs: float
    lhs_exterior: float
    lhs_interior: float
    lhs_touching: float
    ratio: float
    lemma31: float
    lemma32: float
    lemma33: float
    # touching mass the extension adds beyond the boundary mass A itself
    # carries on the domain boundary; this is the part the null-intersection
    # property says must vanish under refinement
    lhs_touching_new: float = 0.0
    flags: list[str] = field(default_factory=list)

    def csv_row(self) -> str:
        cells = [
            self.K, self.p, self.rhs, self.lhs_exterior, self.lhs_interior,
            self.lhs_touching, self.ratio, self.lemma31, self.lemma32,
            self.lemma33,
        ]
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in cells)

    CSV_HEADER = "K,p,rhs,lhs_ext,lhs_int,lhs_touch,ratio,l31,l32,l33"


@dataclass
class ExtensionResult:
    A: VoxelSet
    A_prime: VoxelSet
    A0: VoxelSet
    A_tilde: VoxelSet
    aprime_ids: list[int]
    a0_ids: list[int]
    a0_clipped: list[int]
    report: InequalityReport


def select_A_prime(A: VoxelSet, W: WhitneyDecomposition):
    """Union of Whitney cubes holding a strict majority of A (ties excluded).

    Truncation-collar cubes take the same test relative to their in-domain
    part, so that A = Omega selects all of Omega; the returned ids refer to
    the accepted (non-collar) cubes only; counts read the kept `_table`s.
    """
    dom = W.domain
    P, Pom = _table(A), _table(dom)
    picked = np.zeros(len(W.levels), dtype=bool)
    mask = np.zeros(dom.mask.shape, dtype=bool)
    for collar in (False, True):
        for k, pos, idx in _per_level(W, collar):
            won = 2 * _level_counts(P, dom, k, idx) \
                > _level_counts(Pom, dom, k, idx)
            if k <= dom.K:
                # a sub-cell cube is too small to flip its grid cell
                _paint_level(mask, dom, k, idx[won])
            if not collar:
                picked[pos[won]] = True
    return VoxelSet.from_domain(dom, mask & dom.mask), \
        np.nonzero(picked)[0].tolist()


def select_A0(A_prime: VoxelSet, We: WhitneyDecomposition):
    """Exterior cubes passing the dilated strict-majority test: the dilate
    D sees more of A' than of the rest of the domain.  A' lies in Omega, so
    that is 2 |A' n D| > |Omega n D|, the count select_A_prime uses.

    The dilate factor is c = 20 sqrt(n), entering only through
    c^2 * l^2 = 400 n l^2.  Synthetic cubes (touching the outer
    bbox) are never selected; cubes whose dilate leaves the bbox use the
    clipped dilate and are reported in `clipped`; counts read `_table`s.
    """
    dom = We.domain
    K = dom.K
    c2x = 400 * dom.n
    Pa, Pom = _table(A_prime), _table(dom)
    lo_int = np.asarray(dom.lo_int, dtype=np.int64)
    N = np.asarray(dom.mask.shape, dtype=np.int64)
    picked = np.zeros(len(We.levels), dtype=bool)
    clipped = np.zeros(len(We.levels), dtype=bool)
    mask = np.zeros(dom.mask.shape, dtype=bool)
    # the exterior truncation collar joins the test so the extension has no
    # artificial gap along the domain boundary
    for collar in (False, True):
        for k, pos, idx in _per_level(We, collar):
            S = max(k + 1, K + 1)
            u = 2 ** (S - K - 1)
            ell = 2 ** (S - k)
            # dilate half-width (c l / 2)^2 = c2x l^2 / 4; l is even at
            # scale S.  R is the floor of the irrational radius.
            R = math.isqrt(c2x * (ell // 2) ** 2)
            ctr = (2 * idx + 1) * 2 ** (S - k - 1)
            # cell centers sit at odd multiples of u
            c0 = -((R - ctr) // u)   # ceil((ctr-R)/u)
            o_lo = c0 + 1 - c0 % 2
            c1 = (ctr + R) // u
            o_hi = c1 - 1 + c1 % 2
            i0 = (o_lo - 1) // 2 - lo_int
            i1 = (o_hi - 1) // 2 - lo_int + 1
            won = 2 * _box_count_batch(Pa, i0, i1) > _box_count_batch(Pom, i0, i1)
            if not collar:
                won &= ~We.synthetic[pos]
                picked[pos[won]] = True
                out = np.any((i0 < 0) | (i1 > N), axis=1)
                clipped[pos[won & out]] = True
            _paint_level(mask, dom, k, idx[won])
    mask &= ~dom.mask
    return VoxelSet(dom.K, dom.lo_int, mask, parent=dom, require_subset=False), \
        np.nonzero(picked)[0].tolist(), np.nonzero(clipped)[0].tolist()


@dataclass
class ExtensionGeometry:
    """The p-free part of extending one set A: A', A0, A~, the touching
    masses and, when lemma ratios are on, the smoothed indicator of A'.
    `report(A, p)` adds the dist^(1-p) sums for one exponent.  It holds no
    reference to A, so that A can keep it (see `extend_set`)."""
    A_prime: VoxelSet
    A0: VoxelSet
    A_tilde: VoxelSet
    aprime_ids: list[int]
    a0_ids: list[int]
    a0_clipped: list[int]
    dist: DistanceField
    lhs_touch: float
    lhs_touch_new: float
    flags: list[str]
    smoothed: SmoothedIndicator | None = None

    def report(self, A: VoxelSet, p: float) -> InequalityReport:
        """A~ is A inside the domain and A0 outside it, so A~'s interior
        faces are A's and its exterior faces A0's, in the same order: A~'s
        two sums are rhs and A0's exterior sum, bit for bit."""
        dist = self.dist
        rhs = weighted_boundary_integral(A, p, dist, "interior")[0]
        lhs_ext = weighted_boundary_integral(self.A0, p, dist, "exterior")[0]
        flags = list(self.flags)
        l31 = l32 = l33 = math.nan
        if self.smoothed is not None:
            aprime_int = weighted_boundary_integral(self.A_prime, p, dist,
                                                    "interior")[0]
            l31, f31 = _ratio(aprime_int, rhs, "lemma31")
            energy = gradient_energy(self.smoothed, p)
            l32, f32 = _ratio(energy, aprime_int, "lemma32")
            l33, f33 = _lemma33_ratio(lhs_ext, energy)
            flags += f31 + f32 + f33
        ratio, rflags = _ratio(lhs_ext + rhs, rhs, "ratio")
        return InequalityReport(A.K, p, rhs, lhs_ext, rhs, self.lhs_touch,
                                ratio, l31, l32, l33, self.lhs_touch_new,
                                flags + rflags)

    def result(self, A: VoxelSet, p: float) -> ExtensionResult:
        return ExtensionResult(A, self.A_prime, self.A0, self.A_tilde,
                               self.aprime_ids, self.a0_ids, self.a0_clipped,
                               self.report(A, p))


def extend_set(A: VoxelSet, W: WhitneyDecomposition, We: WhitneyDecomposition,
               dist: DistanceField, params: ExtensionParams) -> ExtensionResult:
    """Extend A across the boundary and report the inequality at params.p.

    The p-free geometry (`extend_geometry`) is kept on A, one entry per set,
    and reused by later calls with the same W, We and dist (compared by
    identity) and the same lemma_ratios; other inputs replace the entry.
    Like the face cache of `boundary_faces`, this treats A, W, We and dist
    as immutable.  Results for different p share their A', A0 and A~ and
    their id lists, which are read-only.
    """
    key = (W, We, dist, bool(params.lemma_ratios))
    entry = A._extension
    if entry is None or any(a is not b for a, b in zip(entry[0], key)):
        entry = A._extension = (key, extend_geometry(A, W, We, dist, key[3]))
    return entry[1].result(A, params.p)


def extend_geometry(A: VoxelSet, W: WhitneyDecomposition,
                    We: WhitneyDecomposition, dist: DistanceField,
                    lemma_ratios: bool = True) -> ExtensionGeometry:
    """A -> A' -> A0 -> A~ and everything else that does not depend on p;
    A' is smoothed here, once, only when lemma ratios are on.  `dist` must
    hold the domain's own boundary centroids: only then are the touching
    faces exactly the faces on the domain boundary.  A' = A shares A's
    kept summed-area table (`_table`)."""
    dom = W.domain
    coords = dom.boundary_faces_doubled()[1]
    if dist.coords is not coords and not np.array_equal(dist.coords, coords):
        raise PreconditionNotMet(
            "the distance field must hold the domain's boundary centroids")
    A_prime, ap_ids = select_A_prime(A, W)
    if np.array_equal(A_prime.mask, A.mask):
        A_prime._table = _table(A)
    A0, a0_ids, clipped = select_A0(A_prime, We)
    flags = [f"clipped-dilates:{len(clipped)}"] if clipped else []
    A_tilde = VoxelSet.from_domain(dom, A.mask | A0.mask, require_subset=False)
    assert np.array_equal(A_tilde.mask & dom.mask, A.mask), \
        "extension altered the set inside the domain"
    smoothed = smooth_indicator(W, A_prime.mask, averages=cube_averages(
        W, A_prime.mask, _table(A_prime))) if lemma_ratios else None
    return ExtensionGeometry(A_prime, A0, A_tilde, ap_ids, a0_ids, clipped,
                             dist, *_touching_masses(A, A0), flags, smoothed)


def _touching_masses(A: VoxelSet, A0: VoxelSet) -> tuple[float, float]:
    """Area of A~'s faces on the domain boundary, and the part of it that
    A's own boundary faces do not carry (a set boundary that runs along the
    domain boundary is carried by every valid extension).

    A domain boundary face has one cell in the domain and one outside, so it
    is a face of A~ iff exactly one of A and A0 has it; both have it iff it
    lies between an A cell and an A0 cell, a step of 2 in A - A0."""
    on_a, on_a0 = (int((boundary_faces(S).classification == ON_BOUNDARY).sum())
                   for S in (A, A0))
    label = np.subtract(A.mask, A0.mask, dtype=np.int8)
    shared = sum(int(np.count_nonzero(np.abs(np.diff(label, axis=d)) == 2))
                 for d in range(A.n))
    area = A.h ** (A.n - 1)
    return float(on_a + on_a0 - 2 * shared) * area, (on_a0 - shared) * area


def _ratio(num: float, den: float, tag: str) -> tuple[float, list[str]]:
    if den == 0.0:
        if num == 0.0:
            return math.nan, [f"{tag}:0/0"]
        return math.inf, [f"{tag}:violation"]
    return num / den, []


def verify_lemma_31(A: VoxelSet, A_prime: VoxelSet, p: float,
                    dist: DistanceField):
    """Ratio of the interior weighted integrals of A' and A."""
    num, _ = weighted_boundary_integral(A_prime, p, dist, "interior")
    den, _ = weighted_boundary_integral(A, p, dist, "interior")
    return _ratio(num, den, "lemma31")


def verify_lemma_32(W: WhitneyDecomposition, F_mask: np.ndarray, p: float,
                    dist: DistanceField, eval_level: int | None = None):
    """Gradient energy of the smoothed indicator against the interior
    weighted integral of F (F should be a union of Whitney cubes)."""
    si = smooth_indicator(W, F_mask, eval_level=eval_level)
    num = gradient_energy(si, p)
    F = VoxelSet.from_domain(W.domain, F_mask & W.domain.mask)
    den, _ = weighted_boundary_integral(F, p, dist, "interior")
    return _ratio(num, den, "lemma32")


def verify_lemma_33(A0: VoxelSet, u_energy: float, p: float,
                    dist: DistanceField):
    """Exterior weighted integral of A0 against the gradient energy of the
    smoothed indicator."""
    return _lemma33_ratio(weighted_boundary_integral(A0, p, dist, "exterior")[0],
                          u_energy)


def _lemma33_ratio(a0_ext: float, u_energy: float):
    if u_energy == 0.0 and a0_ext > 0.0:
        return math.inf, ["lemma33:degenerate"]
    return _ratio(a0_ext, u_energy, "lemma33")


@dataclass
class DensityDichotomyReport:
    radii: list[float]
    bad_fraction: list[float]     # fraction of samples with mid-range density
    samples: list[dict]
    delta: float = 0.1


def verify_lemma_34(result: ExtensionResult, n_samples: int = 200,
                    k_radii=(3, 4, 5, 6), seed: int = 0,
                    delta: float = 0.1) -> DensityDichotomyReport:
    """Density dichotomy at the domain boundary: at almost every boundary
    point the extension should look locally like density 0 or 1; the bad set
    proxy is the sample fraction with smallest-radius density in
    (delta, 1-delta)."""
    dom = result.A.parent
    rng = np.random.default_rng(seed)
    _, coords = dom.boundary_faces_doubled()
    if len(coords) > n_samples:
        pick = rng.choice(len(coords), size=n_samples, replace=False)
        coords = coords[pick]
    # ascending radii; "smallest radius" is index 0 throughout
    radii = sorted(2.0**-k for k in k_radii)
    radii = [r for r in radii if r >= 2 * dom.h]
    samples = []
    omega = VoxelSet.from_domain(dom, dom.mask)
    for row in coords:
        x = tuple(float(v) * dom.h / 2.0 for v in row)
        prof_ap = density_profile(result.A_prime, x, radii, relative_to="omega")
        prof_a = density_profile(result.A, x, radii, relative_to="omega")
        prof_t = density_profile(result.A_tilde, x, radii, relative_to="rn")
        samples.append({
            "x": x,
            "A_prime": prof_ap.ratios,
            "A": prof_a.ratios,
            "A_tilde": prof_t.ratios,
        })
    bad = []
    for j in range(len(radii)):
        cnt = sum(1 for s in samples if delta < s["A_tilde"][j] < 1 - delta)
        bad.append(cnt / len(samples) if samples else math.nan)
    return DensityDichotomyReport(radii, bad, samples, delta)
