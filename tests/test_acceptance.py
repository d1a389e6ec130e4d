"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from copy_oracles import seg_seg_dist2
from distance_oracle import brute_force_d2, cell_d2
from full_scan import bellman_ford_cost
from scipy import ndimage

from sobex.cantor import build_cantor_tube
from sobex.curves import (
    GeodesicSolver,
    curve_condition_scan,
    weighted_geodesic,
)
from sobex.distance import distance_transform
from sobex.domain import VoxelDomain, build_domain
from sobex.extension import ExtensionParams, extend_set, select_A_prime, \
    verify_lemma_31, verify_lemma_33
from sobex.perimeter import (
    VoxelSet,
    boundary_faces,
    density_profile,
    jordan_loops,
    perimeter,
    weighted_boundary_integral,
)
from sobex.whitney import (
    PartitionOfUnity,
    audit_whitney,
    exterior_whitney,
    gradient_energy,
    smooth_indicator,
    whitney_decompose,
)

CANTOR_WINDOW = (
    (Fraction(1, 2) - Fraction(1, 256), Fraction(1, 2) - Fraction(1, 256),
     Fraction(1) - Fraction(1, 512)),
    (Fraction(1, 2) + Fraction(1, 256), Fraction(1, 2) + Fraction(1, 256),
     Fraction(1)),
)


@pytest.fixture(scope="module")
def acceptance_domains():
    """The six generator domains at their audit resolutions."""
    doms = {
        "cube": build_domain("cube", 9, dim=2),
        "ball": build_domain("ball", 9, r=0.5),
        "slit_square": build_domain("slit_square", 9, slit_len=0.5),
        "outward_cusp": build_domain("outward_cusp", 9, alpha=2.0),
        "snowflake": build_domain("snowflake_approx", 9, iterations=3),
        "cantor_tube": build_domain("cantor_tube", 14, depth=1,
                                    window=CANTOR_WINDOW),
    }
    decs = {
        name: whitney_decompose(dom, dom.K + (1 if dom.n == 2 else 0))
        for name, dom in doms.items()
    }
    return doms, decs


def _report(criterion, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} ({time.time() - t0:.1f}s) {detail}")
    assert ok, detail


def test_criterion_1_whitney_audit(acceptance_domains):
    t0 = time.time()
    doms, decs = acceptance_domains
    details = []
    ok = True
    for name, dec in decs.items():
        audit = audit_whitney(dec)
        good = all(audit[k] for k in ("W1", "W2", "W3", "W4"))
        ok &= good
        details.append(f"{name}:{audit['cubes']}cubes"
                       f"{'' if good else ':FAIL'}")
    # the exterior decomposition of the tube window lives inside the tubes,
    # so its non-synthetic cubes stay below the tube diameter scale c_1
    dome = doms["cantor_tube"]
    dece = exterior_whitney(dome, dome.K)
    audit_e = audit_whitney(dece)
    ok &= all(audit_e[k] for k in ("W1", "W2", "W3", "W4"))
    c1 = float(build_cantor_tube(1).c[1])
    sides = [float(q.side) for q, syn in zip(dece.cubes, dece.synthetic)
             if not syn]
    ok &= max(sides) <= c1
    details.append(f"exterior-in-tubes: max_side={max(sides):.2e} <= c1={c1:.2e}")
    _report("1 (Whitney audit, exact W1-W4 on 6 domains)", ok,
            " ".join(details), t0)


def test_criterion_2_partition_of_unity(acceptance_domains):
    t0 = time.time()
    doms, decs = acceptance_domains
    rng = np.random.default_rng(42)
    ok = True
    details = []
    cpu_by_dim = {2: [], 3: []}
    for name, dec in decs.items():
        dom = dec.domain
        pou = PartitionOfUnity(dec)
        region = dec.side_mask()
        cells = np.argwhere(region)
        pick = cells[rng.choice(len(cells), 10_000, replace=True)]
        pts = (pick + np.asarray(dom.lo_int)
               + rng.uniform(0.05, 0.95, pick.shape)) * dom.h
        # collar points are not covered and carry no weights
        point, _, psi, covered = pou.evaluate_many(pts)
        sums = np.bincount(point, weights=psi, minlength=len(pts))
        worst = float(np.abs(sums[covered] - 1.0).max())
        sum_ok = worst <= 1e-9
        # psi_i = 1 exactly at cube centers
        ids = rng.choice(len(dec.cubes), min(len(dec.cubes), 1500),
                         replace=False)
        centers = np.array([[float(v) for v in dec.cubes[int(i)].center()]
                            for i in ids])
        point, cube, psi, covered = pou.evaluate_many(centers)
        center_ok = (bool(covered.all())
                     and np.array_equal(point, np.arange(len(ids)))
                     and np.array_equal(cube, ids) and bool(np.all(psi == 1.0)))
        cpu = pou.gradient_constant(max_cubes=120)
        cpu_by_dim[dom.n].append(cpu)
        ok &= sum_ok and center_ok
        details.append(f"{name}: sum_err={worst:.1e} centers={'ok' if center_ok else 'FAIL'} "
                       f"C_pu={cpu:.4f}")
    # gradient constant: a single value per dimension, stable within 5%
    for n, vals in cpu_by_dim.items():
        if len(vals) >= 2:
            spread = (max(vals) - min(vals)) / max(vals)
            ok &= spread <= 0.05
            details.append(f"C_pu({n}D) spread={spread:.2%}")
    _report("2 (partition of unity)", ok, "; ".join(details), t0)


def test_criterion_3_distance_exact():
    t0 = time.time()
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        if seed < 6:
            mask = rng.random((64, 64)) > 0.5
            K = 6
        else:
            mask = rng.random((16, 16, 16)) > 0.5
            K = 4
        if not mask.any():
            mask.flat[0] = True
        dom = VoxelDomain(K, (0,) * mask.ndim, mask)
        field = distance_transform(dom)
        ref = brute_force_d2(dom)
        for side in (mask, ~mask):  # the reads the geodesics take
            ok &= bool(np.array_equal(field.side_d2(side), ref[side]))
        ok &= bool(np.array_equal(cell_d2(field), ref))
    _report("3 (distance transform equals brute force exactly)", ok,
            "10 seeded instances <= 64^n, both sides and the whole grid", t0)


def test_criterion_4_weighted_integral_closed_form():
    t0 = time.time()
    target = 2 * math.sqrt(2)
    errs = {}
    for K, tol in ((10, 0.05), (11, 0.025)):
        dom = build_domain("cube", K, dim=2)
        cen = dom.cell_centers()
        mask = np.broadcast_to(cen[1][None, :] < 0.5, dom.shape)
        A = VoxelSet.from_domain(dom, mask & dom.mask)
        dist = distance_transform(dom)
        fin, _ = weighted_boundary_integral(A, 1.5, dist, "interior")
        errs[K] = abs(fin / target - 1.0)
    ok = errs[10] <= 0.05 and errs[11] <= 0.025 and errs[11] < errs[10]
    _report("4 (half-square weighted integral -> 2*sqrt(2))", ok,
            f"err(K=10)={errs[10]:.2%} err(K=11)={errs[11]:.2%}", t0)


def test_criterion_5_geodesic_closed_form():
    t0 = time.time()
    # vertical drop in the half-plane complement
    K = 10
    N = int(2.5 * 2**K)
    lo_int = (-(N // 2), -(N // 2))
    iy = np.arange(N) + lo_int[1]
    mask = np.zeros((N, N), bool)
    mask[:, iy > 0] = True
    dom = VoxelDomain(K, lo_int, mask)
    dist = distance_transform(dom)
    cost = weighted_geodesic(dom, dist, (0.0, -0.25), (0.0, -1.0), 1.5).cost
    closed_ok = abs(cost - 1.0) <= 0.05
    # Dijkstra equals Bellman-Ford exactly on <= 64^2 instances
    bf_ok = True
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed + 50)
        m = rng.random((48, 48)) > 0.4
        m[16:32, 16:32] = True
        d = VoxelDomain(6, (0, 0), m)
        df = distance_transform(d)
        solver = GeodesicSolver(d, df, side="interior", weight=("power", 1.5))
        lab, _ = ndimage.label(solver.node_mask)
        comp = int(np.argmax(np.bincount(lab.ravel())[1:])) + 1
        cells = np.argwhere(lab == comp)
        z1 = (cells[0] + 0.5) * d.h
        z2 = (cells[-1] + 0.5) * d.h
        bf_ok &= solver.path(z1, z2).cost == bellman_ford_cost(solver, z1, z2)
    # scale covariance at lambda = 1/2
    c2 = weighted_geodesic(dom, dist, (0.0, -0.125), (0.0, -0.5), 1.5).cost
    cov = c2 / cost / 0.5 ** (2 - 1.5)
    cov_ok = abs(cov - 1.0) <= 0.03
    ok = closed_ok and bf_ok and cov_ok
    _report("5 (geodesic closed form, BF equality, scale covariance)", ok,
            f"cost={cost:.5f} bf={'ok' if bf_ok else 'FAIL'} "
            f"covariance_dev={abs(cov - 1):.2%}", t0)


EXT_CASES = [
    ("ball", {"r": 0.5}, "half"),
    ("cube", {"dim": 2}, "half"),
    ("slit_square", {"slit_len": 0.5}, "below_slit"),
]


def _make_set(dom, kind):
    cen = dom.cell_centers()
    if kind == "half":
        mask = np.broadcast_to(cen[0][:, None] < 0.5, dom.shape)
    else:  # below_slit
        mask = np.broadcast_to(cen[1][None, :] < 0.5, dom.shape)
    return VoxelSet.from_domain(dom, mask & dom.mask)


@pytest.fixture(scope="module")
def extension_runs():
    out = {}
    for tag, params, kind in EXT_CASES:
        for K in (7, 8):
            dom = build_domain(tag, K, margin=Fraction(3, 2), **params)
            dist = distance_transform(dom)
            W = whitney_decompose(dom, K)
            We = exterior_whitney(dom, K)
            # one set per (case, K): its geometry is built once, for all p
            A = _make_set(dom, kind)
            for p in (1.25, 1.5, 1.75):
                out[(tag, K, p)] = extend_set(A, W, We, dist,
                                              ExtensionParams(p=p))
    return out


def test_criterion_6_extension_exactness(extension_runs):
    t0 = time.time()
    ok = True
    for (tag, K, p), res in extension_runs.items():
        dom = res.A.parent
        ok &= bool(np.array_equal(res.A_tilde.mask & dom.mask, res.A.mask))
        faces = boundary_faces(res.A_tilde)
        counts = sum(int((faces.classification == c).sum()) for c in (0, 1, 2))
        ok &= counts == len(faces)
    _report("6 (A~ n Omega = A bitwise; 3-way split partitions)", ok,
            f"{len(extension_runs)} runs", t0)


def test_criterion_7_inequality_stability(extension_runs):
    t0 = time.time()
    ok = True
    details = []
    for tag, params, kind in EXT_CASES:
        for p in (1.25, 1.5, 1.75):
            r7 = extension_runs[(tag, 7, p)].report
            r8 = extension_runs[(tag, 8, p)].report
            finite = math.isfinite(r7.ratio) and math.isfinite(r8.ratio)
            drift = abs(r8.ratio / r7.ratio - 1.0) if finite else math.inf
            good = finite and drift <= 0.20
            ok &= good
            if p == 1.5:
                # decay of the touching mass the extension itself creates
                # (A's own boundary-on-boundary mass, e.g. along the slit,
                # is carried by every valid extension and cannot decay)
                decay = (r7.lhs_touching_new / r8.lhs_touching_new
                         if r8.lhs_touching_new > 0 else math.inf)
                ok &= decay >= 1.5
                details.append(f"{tag}: drift={drift:.1%} touch_decay={decay:.2f}")
    _report("7 (inequality ratio stable <= 20%, touching decay >= 1.5x)", ok,
            "; ".join(details), t0)


def test_criterion_8_lemma_monte_carlo():
    t0 = time.time()
    dom = build_domain("ball", 6, r=0.5, margin=2)
    dist = distance_transform(dom)
    W = whitney_decompose(dom, 6)
    We = exterior_whitney(dom, 6)
    rng = np.random.default_rng(2024)
    from sobex.extension import select_A0

    maxima = {"l31": 0.0, "l32": 0.0, "l33": 0.0}
    ok = True
    for trial in range(50):
        A = VoxelSet.from_domain(
            dom, (rng.random(dom.shape) < rng.uniform(0.3, 0.7)) & dom.mask
        )
        Ap, _ = select_A_prime(A, W)
        si = smooth_indicator(W, Ap.mask, eval_level=9)
        A0, _, _ = select_A0(Ap, We)
        for p in (1.25, 1.5, 1.75):
            r31, f31 = verify_lemma_31(A, Ap, p, dist)
            energy = gradient_energy(si, p)
            jp_ap, _ = weighted_boundary_integral(Ap, p, dist, "interior")
            r32 = energy / jp_ap if jp_ap > 0 else math.nan
            r33, f33 = verify_lemma_33(A0, energy, p, dist)
            for key, val in (("l31", r31), ("l32", r32), ("l33", r33)):
                if math.isnan(val):
                    continue
                ok &= math.isfinite(val)
                maxima[key] = max(maxima[key], val)
    # idempotence: a union of Whitney cubes maps to itself, ratio exactly 1
    mask = np.zeros(dom.shape, bool)
    for i in rng.choice(len(W.cubes), 30, replace=False):
        q = W.cubes[int(i)]
        if q.level <= dom.K:
            f = 2 ** (dom.K - q.level)
            sl = tuple(slice(q.index[d] * f - dom.lo_int[d],
                             (q.index[d] + 1) * f - dom.lo_int[d])
                       for d in range(2))
            mask[sl] = True
    A = VoxelSet.from_domain(dom, mask & dom.mask)
    Ap, _ = select_A_prime(A, W)
    r_idem, _ = verify_lemma_31(A, Ap, 1.5, dist)
    ok &= r_idem == 1.0
    _report("8 (lemma sub-ratio Monte Carlo, idempotence exact)", ok,
            f"max ratios: l31={maxima['l31']:.2f} l32={maxima['l32']:.2f} "
            f"l33={maxima['l33']:.2f}; idempotence={r_idem}", t0)


def test_criterion_9_curve_condition_dichotomy():
    t0 = time.time()
    # disk: uniform-constant signal at K = 9
    disk = build_domain("ball", 9, r=0.5, margin=0.5)
    rep_d = curve_condition_scan(disk, 1.5, 48, seed=7, refine=False)
    sups = [v for v in rep_d.sup_ratio if v > 0]
    disk_ok = len(sups) >= 3 and max(sups) / min(sups) <= 4.0
    # outward cusp, alpha = 2: non-uniformity across scale + resolution.
    # Pairs at scale s/2 on the K+1 grid must beat pairs at scale s on the
    # K grid by >= 1.2x for the three finest scale transitions.
    cusp = build_domain("outward_cusp", 10, alpha=2.0, margin=0)
    scales = [0.45, 0.225, 0.1125, 0.05625]
    rep_c = curve_condition_scan(cusp, 1.75, 48, seed=7, scales=scales,
                                 focus=(0.5, 0.5), refine=True)
    growth = [
        rep_c.sup_ratio_refined[j + 1] / rep_c.sup_ratio[j]
        for j in range(len(scales) - 1)
    ]
    cusp_ok = all(g >= 1.2 for g in growth)
    ok = disk_ok and cusp_ok
    _report("9 (curve-condition dichotomy)", ok,
            f"disk max/min={max(sups) / min(sups):.2f}; cusp growth="
            + " ".join(f"{g:.3f}" for g in growth), t0)


def test_criterion_10_cantor_tube():
    t0 = time.time()
    # depth-2 spec: every exact-rational invariant is certified during the
    # build ((L1)-(L5), (P1)-(P4), the c_n recursion); re-check the measure
    spec = build_cantor_tube(2)
    meas_ok = abs(float(spec.cantor_measure(2)) / math.exp(-4.5) - 1.0) < 5e-13
    rec_ok = spec.c[0] == spec.e[1] / 8 and all(
        spec.c[nn] == spec.c[nn - 1] / 64 for nn in (1, 2)
    )
    # independent re-check of tube separation at level 1 (exact rationals)
    sep_ok = True
    bound = (2 * spec.c[1]) ** 2
    for a in range(8):
        for b in range(a + 1, 8):
            best = min(
                seg_seg_dist2(p0, p1, q0, q1)
                for p0, p1 in zip(spec.curves[1][a], spec.curves[1][a][1:])
                for q0, q1 in zip(spec.curves[1][b], spec.curves[1][b][1:])
            )
            sep_ok &= best >= bound
    # depth-1 voxelization at tube-resolving resolution: exactly 8 tubes
    # with pairwise grid separation >= c_1 (voxel centers inside the tubes)
    dom = build_domain("cantor_tube", 14, depth=1, window=CANTOR_WINDOW)
    removed = ~dom.mask
    lab, ncomp = ndimage.label(removed)
    c1 = float(spec.c[1])
    grid_sep = math.inf
    if ncomp == 8:
        from scipy.spatial import cKDTree

        pts = {
            c: (np.argwhere(lab == c) + np.asarray(dom.lo_int) + 0.5) * dom.h
            for c in range(1, 9)
        }
        for a in range(1, 9):
            tree = cKDTree(pts[a])
            for b in range(a + 1, 9):
                dmin = tree.query(pts[b], k=1)[0].min()
                grid_sep = min(grid_sep, float(dmin))
    vox_ok = ncomp == 8 and grid_sep >= c1
    # measure-density profiles at 20 Cantor sample points stay bounded below
    spec2 = build_cantor_tube(2)
    full = build_domain("cantor_tube", 7, depth=2, allow_coarse=True,
                        cantor_spec=spec2)
    omega = VoxelSet.from_domain(full, full.mask)
    rng = np.random.default_rng(3)
    picks = rng.choice(64, 20, replace=False)
    floor = math.inf
    radii = [4 * full.h, 0.05, 0.1]
    for i in picks:
        lo = spec2.cubes[2][int(i)]
        x = tuple(float(v + spec2.l[2] / 2) for v in lo)
        prof = density_profile(omega, x, radii, relative_to="rn")
        floor = min(floor, min(prof.ratios))
    dens_ok = floor > 0.1
    # at the tube accumulation anchor on the top face the removed tubes are
    # actually resolved; the density stays bounded below there too
    omega_w = VoxelSet.from_domain(dom, dom.mask)
    prof_w = density_profile(omega_w, (0.5, 0.5, 1.0),
                             [4 * dom.h, 16 * dom.h, 64 * dom.h],
                             relative_to="rn")
    dens_ok &= min(prof_w.ratios) > 0.1
    ok = meas_ok and rec_ok and sep_ok and vox_ok and dens_ok
    _report("10 (Cantor-tube construction)", ok,
            f"|C_2| rel err={abs(float(spec.cantor_measure(2)) / math.exp(-4.5) - 1.0):.1e}; "
            f"tubes={ncomp} grid_sep={grid_sep:.2e} (c_1={c1:.2e}); "
            f"density floor={floor:.3f}", t0)


def test_criterion_11_jordan_loops():
    t0 = time.time()
    dom = build_domain("cube", 6, dim=2)
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        mask = rng.random((64, 64)) < rng.uniform(0.25, 0.75)
        A = VoxelSet.from_domain(dom, mask & dom.mask)
        if not A.mask.any():
            continue
        loops = jordan_loops(A)
        total = sum(l.length for l in loops)
        ok &= abs(total - perimeter(A, "rn")) < 1e-12
        for lp in loops:
            corners = [tuple(v) for v in lp._ipath[:-1]]
            ok &= len(corners) == len(set(corners))
    # annulus: exactly two loops, inner nested with opposite orientation
    cen = dom.cell_centers()
    x, y = np.meshgrid(cen[0], cen[1], indexing="ij")
    r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2
    ann = (r2 < 0.4**2) & (r2 > 0.2**2)
    loops = jordan_loops(VoxelSet.from_domain(dom, ann))
    ann_ok = (
        len(loops) == 2
        and sorted(lp.positive for lp in loops) == [False, True]
        and sum(1 for lp in loops if lp.parent is not None) == 1
    )
    ok &= ann_ok
    _report("11 (Jordan loops: exact lengths, simple, nesting)", ok,
            f"100 random sets; annulus={'ok' if ann_ok else 'FAIL'}", t0)