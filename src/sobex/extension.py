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
from .errors import UnsupportedExponent
from .perimeter import (
    EXTERIOR,
    INTERIOR,
    ON_BOUNDARY,
    VoxelSet,
    boundary_faces,
    density_profile,
    weighted_boundary_integral,
)
from .whitney import (
    WhitneyDecomposition,
    _box_count_batch,
    _integral_image,
    _level_counts,
    _paint_level,
    _per_level,
    gradient_energy,
    smooth_indicator,
)


@dataclass
class ExtensionParams:
    p: float
    c_squared_times: int | None = None  # (c*l)^2 = c2x * l^2; default 400*n
    eval_level: int | None = None       # smoothing grid level for lemma ratios
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

    @property
    def lhs_finite(self) -> float:
        return self.lhs_exterior + self.lhs_interior

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
    fallback: bool = False


def select_A_prime(A: VoxelSet, W: WhitneyDecomposition):
    """Union of Whitney cubes holding a strict majority of A (ties excluded).

    Truncation-collar cubes take the same test relative to their in-domain
    part, so that A = Omega selects all of Omega; the returned ids refer to
    the accepted (non-collar) cubes only.
    """
    dom = W.domain
    P = _integral_image(A.mask)
    Pom = _integral_image(dom.mask)
    picked = np.zeros(len(W.cubes), dtype=bool)
    mask = np.zeros(dom.mask.shape, dtype=bool)
    for collar in (False, True):
        for k, pos, idx in _per_level(W, collar):
            won = 2 * _level_counts(A.mask, P, dom, k, idx) \
                > _level_counts(dom.mask, Pom, dom, k, idx)
            if k <= dom.K:
                # a sub-cell cube is too small to flip its grid cell
                _paint_level(mask, dom, k, idx[won])
            if not collar:
                picked[pos[won]] = True
    return VoxelSet.from_domain(dom, mask & dom.mask), \
        np.nonzero(picked)[0].tolist()


def select_A0(A_prime: VoxelSet, We: WhitneyDecomposition,
              c_squared_times: int | None = None):
    """Exterior cubes passing the dilated strict-majority test.

    The dilate factor is c = 20 sqrt(n) by default, entering only through
    c^2 * l^2 = c_squared_times * l^2.  Synthetic cubes (touching the outer
    bbox) are never selected; cubes whose dilate leaves the bbox use the
    clipped dilate and are reported in `clipped`.
    """
    dom = We.domain
    K = dom.K
    c2x = 400 * dom.n if c_squared_times is None else c_squared_times
    omega_minus = dom.mask & ~A_prime.mask
    Pa = _integral_image(A_prime.mask)
    Po = _integral_image(omega_minus)
    lo_int = np.asarray(dom.lo_int, dtype=np.int64)
    N = np.asarray(dom.mask.shape, dtype=np.int64)
    picked = np.zeros(len(We.cubes), dtype=bool)
    clipped = np.zeros(len(We.cubes), dtype=bool)
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


def extend_set(A: VoxelSet, W: WhitneyDecomposition, We: WhitneyDecomposition,
               dist: DistanceField, params: ExtensionParams) -> ExtensionResult:
    dom = W.domain
    p = params.p
    rhs, _rhs_touch = weighted_boundary_integral(A, p, dist, "interior")
    flags = []
    # the finiteness hypothesis on the interior integral: interior-classified
    # faces at zero distance would make the continuum integral infinite
    afaces = boundary_faces(A)
    int_sel = afaces.classification == INTERIOR
    proxy = 0.0
    if int_sel.any():
        d2 = dist.d2_at_doubled(afaces.coords[int_sel])
        proxy = float((d2 <= 1).sum()) * afaces.face_area
    if proxy > 0.0:
        flags.append("rhs-touching-fallback")
        empty = VoxelSet(dom.K, dom.lo_int, np.zeros(dom.mask.shape, bool),
                         parent=dom, require_subset=False)
        report = _build_report(A, A, dom, dist, params, rhs, math.nan,
                               math.nan, math.nan, flags)
        return ExtensionResult(A, empty, empty, A, [], [], [], report,
                               fallback=True)

    A_prime, ap_ids = select_A_prime(A, W)
    A0, a0_ids, clipped = select_A0(A_prime, We, params.c_squared_times)
    if clipped:
        flags.append(f"clipped-dilates:{len(clipped)}")
    tilde_mask = A.mask | A0.mask
    A_tilde = VoxelSet(dom.K, dom.lo_int, tilde_mask, parent=dom,
                       require_subset=False)
    assert np.array_equal(A_tilde.mask & dom.mask, A.mask), \
        "extension altered the set inside the domain"

    l31 = l32 = l33 = math.nan
    if params.lemma_ratios:
        l31, f31 = verify_lemma_31(A, A_prime, p, dist)
        flags += f31
        si = smooth_indicator(W, A_prime.mask, eval_level=params.eval_level)
        energy = gradient_energy(si, p)
        l32, f32 = _ratio(energy,
                          weighted_boundary_integral(A_prime, p, dist,
                                                     "interior")[0],
                          "lemma32")
        flags += f32
        l33, f33 = verify_lemma_33(A0, energy, p, dist)
        flags += f33
    report = _build_report(A, A_tilde, dom, dist, params, rhs, l31, l32, l33,
                           flags)
    return ExtensionResult(A, A_prime, A0, A_tilde, ap_ids, a0_ids, clipped,
                           report)


def _build_report(A, A_tilde, dom, dist, params, rhs, l31, l32, l33, flags):
    p = params.p
    faces = boundary_faces(A_tilde)
    d2 = dist.d2_at_doubled(faces.coords)
    area = faces.face_area
    cls = faces.classification
    near = d2 <= 1
    touching = (cls == ON_BOUNDARY) | near
    lhs_touch = float(touching.sum()) * area
    # subtract the touching faces A already owns (e.g. a set boundary that
    # runs along the domain boundary is carried by every valid extension)
    afaces = boundary_faces(A)
    ad2 = dist.d2_at_doubled(afaces.coords)
    a_touch = (afaces.classification == ON_BOUNDARY) | (ad2 <= 1)
    own = {
        (int(ax), tuple(int(v) for v in row))
        for ax, row in zip(afaces.axes[a_touch], afaces.coords[a_touch])
    }
    new = 0
    for ax, row in zip(faces.axes[touching], faces.coords[touching]):
        if (int(ax), tuple(int(v) for v in row)) not in own:
            new += 1
    lhs_touch_new = new * area

    def finite_part(sel):
        sel = sel & ~near & (cls != ON_BOUNDARY)
        if not sel.any():
            return 0.0
        dv = np.sqrt(d2[sel].astype(float)) * (dist.h / 2.0)
        return float(np.sum(dv ** (1.0 - p))) * area

    lhs_ext = finite_part(cls == EXTERIOR)
    lhs_int = finite_part(cls == INTERIOR)
    ratio, rflags = _ratio(lhs_ext + lhs_int, rhs, "ratio")
    return InequalityReport(dom.K, p, rhs, lhs_ext, lhs_int, lhs_touch,
                            ratio, l31, l32, l33, lhs_touch_new,
                            flags + rflags)


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
    faces = boundary_faces(A0)
    sel = faces.classification == EXTERIOR
    num = 0.0
    if sel.any():
        d2 = dist.d2_at_doubled(faces.coords[sel])
        keep = d2 > 1
        dv = np.sqrt(d2[keep].astype(float)) * (dist.h / 2.0)
        num = float(np.sum(dv ** (1.0 - p))) * faces.face_area
    if u_energy == 0.0 and num > 0.0:
        return math.inf, ["lemma33:degenerate"]
    return _ratio(num, u_energy, "lemma33")


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
