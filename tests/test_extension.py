import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobex.distance import distance_transform
from sobex.domain import build_domain
from sobex.extension import (
    ExtensionParams,
    extend_set,
    select_A0,
    select_A_prime,
    verify_lemma_31,
    verify_lemma_32,
    verify_lemma_33,
    verify_lemma_34,
)
from sobex.perimeter import VoxelSet
from sobex.whitney import cube_averages, exterior_whitney, whitney_decompose


@pytest.fixture(scope="module")
def disk_setup():
    dom = build_domain("ball", 7, r=0.5, margin=2)
    dist = distance_transform(dom)
    W = whitney_decompose(dom, 7)
    We = exterior_whitney(dom, 7)
    return dom, dist, W, We


def left_half(dom):
    cen = dom.cell_centers()
    half = np.broadcast_to(cen[0][:, None] < 0.5, dom.shape)
    return VoxelSet.from_domain(dom, half & dom.mask)


def cube_cells(dom, q):
    f = 2 ** (dom.K - q.level)
    sl = tuple(
        slice(q.index[d] * f - dom.lo_int[d], (q.index[d] + 1) * f - dom.lo_int[d])
        for d in range(dom.n)
    )
    return sl


def test_aprime_full_domain(disk_setup):
    dom, dist, W, We = disk_setup
    A = VoxelSet.from_domain(dom, dom.mask)
    Ap, ids = select_A_prime(A, W)
    assert len(ids) == len(W.cubes)


def test_aprime_exact_half_tie_excluded():
    dom = build_domain("cube", 6, dim=2)
    W = whitney_decompose(dom, 5)  # truncate so every cube spans >= 2 cells
    stripes = np.zeros(dom.shape, bool)
    stripes[::2, :] = True  # half of every cube, exactly
    A = VoxelSet.from_domain(dom, stripes)
    Ap, ids = select_A_prime(A, W)
    assert ids == []
    assert not Ap.mask.any()


def test_aprime_matches_per_cube_oracle(disk_setup):
    dom, dist, W, We = disk_setup
    rng = np.random.default_rng(8)
    A = VoxelSet.from_domain(dom, (rng.random(dom.shape) < 0.5) & dom.mask)
    Ap, ids = select_A_prime(A, W)
    for i, q in enumerate(W.cubes):
        if q.level > dom.K:
            continue
        sl = cube_cells(dom, q)
        frac = A.mask[sl].mean()
        assert (i in ids) == (frac > 0.5)


def test_a0_trivial_cases(disk_setup):
    dom, dist, W, We = disk_setup
    empty = VoxelSet.from_domain(dom, np.zeros(dom.shape, bool))
    A0, ids, _ = select_A0(empty, We)
    assert ids == []
    # A' = all of Omega: every non-synthetic exterior cube whose dilate
    # meets the domain is selected
    omega = VoxelSet.from_domain(dom, dom.mask)
    A0, ids, _ = select_A0(omega, We)
    selected = set(ids)
    c = 20 * math.sqrt(2)
    for i, q in enumerate(We.cubes):
        if We.synthetic[i]:
            assert i not in selected
            continue
        lo, hi = q.dilate(Fraction(29))  # c < 29 covers 20 sqrt(2)
        meets_generous = _box_meets_mask(dom, lo, hi)
        lo2, hi2 = q.dilate(Fraction(28))
        meets_tight = _box_meets_mask(dom, lo2, hi2)
        if meets_tight:
            assert i in selected
        elif not meets_generous:
            assert i not in selected


def _box_meets_mask(dom, lo, hi):
    cen = dom.cell_centers()
    box = np.ones(dom.shape, bool)
    for d in range(dom.n):
        ax = cen[d].reshape(tuple(-1 if a == d else 1 for a in range(dom.n)))
        box &= (ax > float(lo[d])) & (ax < float(hi[d]))
    return bool(np.any(box & dom.mask))


def test_a0_matches_exact_oracle():
    # unit square, A' = left half: selection equals a Fraction-arithmetic
    # reimplementation of the dilated majority test, cube by cube
    dom = build_domain("cube", 5, dim=2, margin=2)
    W = whitney_decompose(dom, 5)
    We = exterior_whitney(dom, 5)
    cen = dom.cell_centers()
    half = np.broadcast_to(cen[0][:, None] < 0.5, dom.shape)
    Ap = VoxelSet.from_domain(dom, half & dom.mask)
    A0, ids, _ = select_A0(Ap, We)
    got = set(ids)
    n = dom.n
    c2 = 400 * n  # (20 sqrt n)^2
    centers = [
        [Fraction(int(v + dom.lo_int[d]) * 2 + 1, 2**(dom.K + 1))
         for v in range(dom.shape[d])]
        for d in range(n)
    ]
    for i, q in enumerate(We.cubes):
        if We.synthetic[i]:
            continue
        ctr = q.center()
        r2 = Fraction(c2, 4**(q.level + 1))  # (c l / 2)^2 with l = 2^-level
        in_dims = []
        for d in range(n):
            in_dims.append(np.array(
                [(x - ctr[d]) ** 2 < r2 for x in centers[d]], dtype=bool
            ))
        box = np.ones(dom.shape, bool)
        box &= in_dims[0][:, None]
        box &= in_dims[1][None, :]
        in_a = int(np.sum(box & Ap.mask))
        in_o = int(np.sum(box & dom.mask & ~Ap.mask))
        assert ((in_a > in_o) == (i in got)), f"cube {i} mismatch"


def test_extend_empty_set(disk_setup):
    dom, dist, W, We = disk_setup
    A = VoxelSet.from_domain(dom, np.zeros(dom.shape, bool))
    res = extend_set(A, W, We, dist, ExtensionParams(p=1.5))
    assert not res.A_tilde.mask.any()
    assert math.isnan(res.report.ratio)
    assert any("0/0" in f for f in res.report.flags)


def test_extend_half_disk(disk_setup):
    dom, dist, W, We = disk_setup
    A = left_half(dom)
    res = extend_set(A, W, We, dist, ExtensionParams(p=1.5))
    assert not res.fallback
    assert np.array_equal(res.A_tilde.mask & dom.mask, A.mask)
    assert np.array_equal(res.A_tilde.mask, A.mask | res.A0.mask)
    assert math.isfinite(res.report.ratio) and res.report.ratio > 0
    # interior part of the extension boundary is exactly that of A
    assert res.report.lhs_interior == pytest.approx(res.report.rhs)
    # A0 is disjoint from the domain
    assert not np.any(res.A0.mask & dom.mask)


def test_three_way_split_partitions(disk_setup):
    from sobex.perimeter import boundary_faces

    dom, dist, W, We = disk_setup
    A = left_half(dom)
    res = extend_set(A, W, We, dist, ExtensionParams(p=1.5))
    faces = boundary_faces(res.A_tilde)
    counts = [int((faces.classification == c).sum()) for c in (0, 1, 2)]
    assert sum(counts) == len(faces)
    assert counts[0] > 0 and counts[1] > 0  # interior and exterior parts


def test_selection_monotone(disk_setup):
    dom, dist, W, We = disk_setup
    rng = np.random.default_rng(13)
    base = rng.random(dom.shape)
    A = VoxelSet.from_domain(dom, (base < 0.4) & dom.mask)
    B = VoxelSet.from_domain(dom, (base < 0.7) & dom.mask)
    Ap, ia = select_A_prime(A, W)
    Bp, ib = select_A_prime(B, W)
    assert set(ia) <= set(ib)
    A0a, ja, _ = select_A0(Ap, We)
    A0b, jb, _ = select_A0(Bp, We)
    assert set(ja) <= set(jb)


def test_complement_duality_tie_free(disk_setup):
    dom, dist, W, We = disk_setup
    rng = np.random.default_rng(17)
    mask = (rng.random(dom.shape) < 0.47) & dom.mask
    A = VoxelSet.from_domain(dom, mask)
    _, ids_a = select_A_prime(A, W)
    ties = []
    for i, q in enumerate(W.cubes):
        if q.level > dom.K:
            continue
        sl = cube_cells(dom, q)
        sub = A.mask[sl]
        if 2 * int(sub.sum()) == sub.size:
            ties.append(i)
    comp = VoxelSet.from_domain(dom, dom.mask & ~mask)
    _, ids_c = select_A_prime(comp, W)
    got = set(ids_a) | set(ids_c) | set(ties)
    assert got == set(range(len(W.cubes)))
    assert not (set(ids_a) & set(ids_c))


def test_lemma31_idempotent_on_cube_unions(disk_setup):
    dom, dist, W, We = disk_setup
    rng = np.random.default_rng(19)
    mask = np.zeros(dom.shape, bool)
    for i in rng.choice(len(W.cubes), 40, replace=False):
        q = W.cubes[i]
        if q.level <= dom.K:
            mask[cube_cells(dom, q)] = True
    A = VoxelSet.from_domain(dom, mask & dom.mask)
    Ap, _ = select_A_prime(A, W)
    assert np.array_equal(Ap.mask, A.mask)
    ratio, flags = verify_lemma_31(A, Ap, 1.5, dist)
    assert ratio == 1.0 and not flags


def test_lemma31_full_domain_degenerate(disk_setup):
    dom, dist, W, We = disk_setup
    A = VoxelSet.from_domain(dom, dom.mask)
    Ap, _ = select_A_prime(A, W)
    ratio, flags = verify_lemma_31(A, Ap, 1.5, dist)
    assert math.isnan(ratio)
    assert any("0/0" in f for f in flags)


def test_lemma32_scaling_across_cube_sizes():
    # both sides scale like l^(n-p): the ratio is cube-size independent when
    # the evaluation grid keeps a fixed resolution relative to the cube
    dom = build_domain("cube", 7, dim=2)
    dist = distance_transform(dom)
    W = whitney_decompose(dom, 7)
    ratios = []
    for lvl in (2, 3, 4):
        i = int(np.argwhere(W.levels == lvl)[0][0])
        q = W.cubes[i]
        mask = np.zeros(dom.shape, bool)
        mask[cube_cells(dom, q)] = True
        r, flags = verify_lemma_32(W, mask, 1.5, dist, eval_level=lvl + 8)
        assert not flags
        ratios.append(r)
    mid = sorted(ratios)[1]
    for r in ratios:
        assert abs(r - mid) / mid <= 0.10


def test_lemma32_full_domain_degenerate(disk_setup):
    dom, dist, W, We = disk_setup
    ratio, flags = verify_lemma_32(W, dom.mask.copy(), 1.5, dist, eval_level=9)
    assert math.isnan(ratio)
    assert any("0/0" in f for f in flags)


def test_lemma33_degenerate_full_selection(disk_setup):
    dom, dist, W, We = disk_setup
    omega = VoxelSet.from_domain(dom, dom.mask)
    A0, ids, _ = select_A0(omega, We)
    ratio, flags = verify_lemma_33(A0, 0.0, 1.5, dist)
    assert math.isinf(ratio)
    assert any("degenerate" in f for f in flags)


def test_lemma33_empty(disk_setup):
    dom, dist, W, We = disk_setup
    empty = VoxelSet.from_domain(dom, np.zeros(dom.shape, bool),
                                 require_subset=False)
    ratio, flags = verify_lemma_33(empty, 0.0, 1.5, dist)
    assert math.isnan(ratio)


def test_lemma34_full_domain_no_bad_set(disk_setup):
    dom, dist, W, We = disk_setup
    A = VoxelSet.from_domain(dom, dom.mask)
    res = extend_set(A, W, We, dist, ExtensionParams(p=1.5, lemma_ratios=False))
    rep = verify_lemma_34(res, n_samples=60, k_radii=(4, 5), seed=0)
    assert all(b == 0.0 for b in rep.bad_fraction)


def test_lemma34_half_disk_bad_set_localized(disk_setup):
    dom, dist, W, We = disk_setup
    A = left_half(dom)
    res = extend_set(A, W, We, dist, ExtensionParams(p=1.5, lemma_ratios=False))
    rep = verify_lemma_34(res, n_samples=150, k_radii=(3, 4, 5), seed=1)
    # the bad set concentrates near the two diameter-boundary crossing
    # points at (1/2, 1/2 +- r): its sampled fraction shrinks ~ linearly
    # with the radius (a 0-dimensional bad set in 2D)
    assert rep.radii[0] < rep.radii[-1]
    assert rep.bad_fraction[0] <= rep.bad_fraction[-1] + 1e-9
    assert rep.bad_fraction[0] <= 0.1
    for s in rep.samples:
        if 0.1 < s["A_tilde"][0] < 0.9:
            assert abs(s["x"][0] - 0.5) < 0.25  # near the cut plane x = 1/2


def test_random_sets_lemma_ratios_finite(disk_setup):
    dom, dist, W, We = disk_setup
    rng = np.random.default_rng(23)
    for _ in range(10):
        A = VoxelSet.from_domain(dom, (rng.random(dom.shape) < 0.5) & dom.mask)
        res = extend_set(A, W, We, dist, ExtensionParams(p=1.5))
        r = res.report
        assert math.isfinite(r.ratio)
        assert math.isfinite(r.lemma31)
        assert math.isfinite(r.lemma32)


# -- differential check of the per-level cube kernels ------------------------

_KERNEL_CASES = {
    "disk": (("ball", 4), dict(r=0.5, margin=Fraction(1, 2))),
    "slit": (("slit_square", 4), dict(slit_len=0.5, margin=Fraction(1, 2))),
    "ball3": (("ball", 3), dict(r=0.5, dim=3, margin=Fraction(1, 2))),
}


@functools.lru_cache(maxsize=None)
def _kernel_setup(case, L_max):
    args, kw = _KERNEL_CASES[case]
    dom = build_domain(*args, **kw)
    return dom, whitney_decompose(dom, L_max), exterior_whitney(dom, L_max)


def _cube_slices(dom, q):
    """Cell slices of a cube at a level <= K."""
    f = 2 ** (dom.K - q.level)
    return tuple(slice(q.index[d] * f - dom.lo_int[d],
                       (q.index[d] + 1) * f - dom.lo_int[d])
                 for d in range(dom.n))


def _cube_cell(dom, q):
    """The grid cell holding a cube below the grid resolution."""
    s = q.level - dom.K
    return tuple((q.index[d] >> s) - dom.lo_int[d] for d in range(dom.n))


def _oracle_window(dom, q, c2x):
    """Per axis the cell range [a, b) whose centers lie in the closed c-dilate
    of q, c^2 = c2x, unclipped; exact integers in units 2^-T."""
    T = max(q.level, dom.K) + 1
    ell = 2 ** (T - q.level)
    reach = (math.isqrt(c2x) + 1) * 2 ** max(dom.K - q.level, 0) + 2
    win = []
    for d in range(dom.n):
        ctr = (2 * q.index[d] + 1) * 2 ** (T - q.level - 1)
        js = np.arange(-reach, dom.shape[d] + reach)
        x = (2 * (js + dom.lo_int[d]) + 1) * 2 ** (T - dom.K - 1)
        inside = js[4 * (x - ctr) ** 2 <= c2x * ell * ell]
        win.append((int(inside.min()), int(inside.max()) + 1) if inside.size
                   else (0, 0))
    return win


def _oracle_selections(dom, W, We, F, c2x):
    """cube_averages, select_A_prime and select_A0 recomputed cube by cube,
    counting cells by slicing the masks."""
    K, n = dom.K, dom.n
    avg = []
    for q in W.cubes:
        if q.level <= K:
            sl = _cube_slices(dom, q)
            avg.append(int(F[sl].sum()) / F[sl].size)
        else:
            avg.append(1.0 if F[_cube_cell(dom, q)] else 0.0)
    ap_mask = np.zeros(dom.shape, bool)
    ap_ids = []
    for i, q in enumerate(W.cubes + W.collar_cubes):
        if q.level <= K:
            sl = _cube_slices(dom, q)
            won = 2 * int(F[sl].sum()) > int(dom.mask[sl].sum())
            if won:
                ap_mask[sl] = True
        else:
            won = bool(F[_cube_cell(dom, q)])
        if won and i < len(W.cubes):
            ap_ids.append(i)
    c2x = 400 * n if c2x is None else c2x
    rest = dom.mask & ~F
    a0_mask = np.zeros(dom.shape, bool)
    a0_ids, clipped = [], []
    for i, q in enumerate(We.cubes + We.collar_cubes):
        accepted = i < len(We.cubes)
        if accepted and We.synthetic[i]:
            continue
        win = _oracle_window(dom, q, c2x)
        sl = tuple(slice(max(a, 0), min(b, dom.shape[d]))
                   for d, (a, b) in enumerate(win))
        if not int(F[sl].sum()) > int(rest[sl].sum()):
            continue
        if accepted:
            a0_ids.append(i)
            if any(a < 0 or b > dom.shape[d] for d, (a, b) in enumerate(win)):
                clipped.append(i)
        if q.level <= K:
            a0_mask[_cube_slices(dom, q)] = True
        else:
            # the cell is marked iff its center lies in the closed cube
            cell = _cube_cell(dom, q)
            T = q.level + 1
            if all(2 * q.index[d]
                   <= (2 * (cell[d] + dom.lo_int[d]) + 1) * 2 ** (T - K - 1)
                   <= 2 * q.index[d] + 2 for d in range(n)):
                a0_mask[cell] = True
    return (np.array(avg), ap_mask & dom.mask, ap_ids,
            a0_mask & ~dom.mask, a0_ids, clipped)


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from([("disk", 4), ("disk", 5), ("disk", 6),
                          ("slit", 5), ("ball3", 3), ("ball3", 4)]),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.05, 0.95),
    c2x=st.sampled_from([None, 9, 36, 100]),
)
def test_cube_kernels_match_slicing_oracle(case, seed, density, c2x):
    dom, W, We = _kernel_setup(*case)
    assert W.collar_cubes and We.collar_cubes
    if case[1] > dom.K:
        assert any(q.level > dom.K for q in W.cubes + We.cubes)
    rng = np.random.default_rng(seed)
    F = VoxelSet.from_domain(dom, (rng.random(dom.shape) < density)
                             & dom.mask)
    avg, ap_mask, ap_ids, a0_mask, a0_ids, clipped = _oracle_selections(
        dom, W, We, F.mask, c2x)
    assert np.array_equal(cube_averages(W, F.mask), avg)
    Ap, ids = select_A_prime(F, W)
    assert np.array_equal(Ap.mask, ap_mask)
    assert ids == ap_ids
    A0, ids0, clip0 = select_A0(F, We, c2x)
    assert np.array_equal(A0.mask, a0_mask)
    assert ids0 == a0_ids
    assert clip0 == clipped
