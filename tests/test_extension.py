import functools
import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from copy_oracles import select_A0_omega_minus, tilde_report
from hypothesis import given, settings
from hypothesis import strategies as st

from sobex import extension
from sobex.distance import distance_transform
from sobex.cli import make_set
from sobex.domain import build_domain
from sobex.errors import PreconditionNotMet
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
from sobex.whitney import (
    cube_averages,
    exterior_whitney,
    smooth_indicator,
    whitney_decompose,
)


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


def test_touching_masses_match_face_set_loop(disk_setup):
    from sobex.perimeter import ON_BOUNDARY, boundary_faces

    dom, dist, W, We = disk_setup
    rng = np.random.default_rng(5)
    A = VoxelSet.from_domain(dom, (rng.random(dom.shape) < 0.5) & dom.mask)

    def touching(S):
        faces = boundary_faces(S)
        d2 = dist.d2_at_doubled(faces.coords)
        sel = (faces.classification == ON_BOUNDARY) | (d2 <= 1)
        return {(int(ax), tuple(int(v) for v in row))
                for ax, row in zip(faces.axes[sel], faces.coords[sel])}

    res = extend_set(A, W, We, dist, ExtensionParams(p=1.5, lemma_ratios=False))
    rep = res.report
    tilde, own = touching(res.A_tilde), touching(A)
    area = dom.h ** (dom.n - 1)
    assert rep.lhs_touching == float(len(tilde)) * area
    assert rep.lhs_touching_new == len(tilde - own) * area
    assert rep.lhs_touching_new > 0


def test_each_face_set_is_read_once(disk_setup, monkeypatch):
    """The distance reads are A's interior, A0's exterior and, with lemma
    ratios, A''s interior face centroids, each once for every p; A~'s are
    never read."""
    from sobex.distance import DistanceField
    from sobex.perimeter import EXTERIOR, INTERIOR, boundary_faces

    dom, dist, W, We = disk_setup
    read = []
    side_read = DistanceField._side_points_d2

    def counted(self, pts, side):
        read.append(pts)
        return side_read(self, pts, side)

    def own(S, code):
        faces = boundary_faces(S)
        return faces.coords[faces.classification == code]

    monkeypatch.setattr(DistanceField, "_side_points_d2", counted)
    for lemma_ratios in (True, False):
        read.clear()
        A = left_half(dom)
        for p in (1.25, 1.5, 1.75):
            res = extend_set(A, W, We, dist,
                             ExtensionParams(p=p, lemma_ratios=lemma_ratios))
        want = [own(A, INTERIOR), own(res.A0, EXTERIOR)]
        if lemma_ratios:
            want.append(own(res.A_prime, INTERIOR))
        assert len(read) == len(want)
        for got, pts in zip(read, want):
            assert np.array_equal(got, pts)


def test_only_dense_face_sets_build_a_lattice(disk_setup, monkeypatch):
    """A random set of density 1/2 has about 5 of its domain's interior
    window nodes per interior face: its extension builds that window's
    lattice once, for A's faces (A''s and A0's are too sparse).  The half
    set's faces are sparse, and its extensions build none."""
    from sobex import distance

    dom, dist, W, We = disk_setup
    shapes = []
    build = distance._build_lattice

    def recording(lo_int, shape, coords):
        shapes.append((tuple(lo_int), tuple(shape)))
        return build(lo_int, shape, coords)

    monkeypatch.setattr(distance, "_build_lattice", recording)
    rng = np.random.default_rng(5)
    A = VoxelSet.from_domain(dom, (rng.random(dom.shape) < 0.5) & dom.mask)
    for p in (1.25, 1.5):
        extend_set(A, W, We, dist, ExtensionParams(p=p))
    lo, hi = distance._window(dom.mask)
    assert shapes == [(tuple(np.add(dom.lo_int, lo).tolist()),
                       tuple(np.subtract(hi, lo).tolist()))]
    shapes.clear()
    for p in (1.25, 1.5, 1.75):
        extend_set(left_half(dom), W, We, dist, ExtensionParams(p=p))
    assert shapes == []


@pytest.mark.parametrize("lemma_ratios", [True, False])
def test_no_face_set_of_the_extension(disk_setup, monkeypatch, lemma_ratios):
    """A~ stays a mask: extend_set asks for the face set of no A~."""
    import sys

    perimeter = sys.modules["sobex.perimeter"]
    dom, dist, W, We = disk_setup
    asked = []
    faces_of = perimeter.boundary_faces

    def counted(S):
        asked.append(S)
        return faces_of(S)

    for mod in (perimeter, extension):
        monkeypatch.setattr(mod, "boundary_faces", counted)
    rng = np.random.default_rng(3)
    for A in (left_half(dom), VoxelSet.from_domain(
            dom, (rng.random(dom.shape) < 0.5) & dom.mask)):
        for p in (1.25, 1.75):
            res = extend_set(A, W, We, dist,
                             ExtensionParams(p=p, lemma_ratios=lemma_ratios))
        assert res.A_tilde._faces is None
        assert all(S is not res.A_tilde for S in asked)
        assert any(S is res.A0 for S in asked)


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(extension, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(extension, name, counted)
    return calls


def test_no_smoothing_without_lemma_ratios(disk_setup, monkeypatch):
    dom, dist, W, We = disk_setup
    calls = _count_calls(monkeypatch, "smooth_indicator")
    res = extend_set(left_half(dom), W, We, dist,
                     ExtensionParams(p=1.5, lemma_ratios=False))
    assert calls == []
    assert math.isnan(res.report.lemma32)


def test_one_smoothing_for_every_p(disk_setup, monkeypatch):
    dom, dist, W, We = disk_setup
    A = left_half(dom)
    calls = {name: _count_calls(monkeypatch, name) for name in
             ("select_A_prime", "select_A0", "smooth_indicator")}
    shared = [extend_set(A, W, We, dist, ExtensionParams(p=p))
              for p in (1.25, 1.5, 1.75)]
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 1)
    assert all(res.A_tilde is shared[0].A_tilde for res in shared)
    # each shared-geometry report is the one extend_set gives on a set of
    # its own, which no earlier call has extended
    monkeypatch.undo()
    for res in shared:
        rep = res.report
        alone = extend_set(left_half(dom), W, We, dist,
                           ExtensionParams(p=rep.p)).report
        assert rep.csv_row() == alone.csv_row()
        assert rep.lhs_touching_new == alone.lhs_touching_new
        assert rep.flags == alone.flags


@pytest.mark.parametrize("lemma_ratios", [True, False])
def test_one_table_per_distinct_mask(monkeypatch, lemma_ratios):
    """Over the whole pipeline on one domain (both decompositions, both
    audits, and two sets extended at three p) `_table` builds every table:
    the domain's once, never one of ~dom.mask, and one per distinct set
    mask, A' taking A's when A' = A."""
    import sys

    from sobex import whitney

    built = []
    build = whitney._integral_image

    def recording(mask):
        built.append((sys._getframe(1).f_code.co_name, mask.tobytes()))
        return build(mask)

    monkeypatch.setattr(whitney, "_integral_image", recording)
    assert not hasattr(extension, "_integral_image")
    dom = build_domain("ball", 6, r=0.5, margin=Fraction(3, 2))
    W, We = whitney_decompose(dom, 6), exterior_whitney(dom, 6)
    assert [whitney.audit_whitney(d)["W2"] for d in (W, We)] == [True, True]
    dist = distance_transform(dom)
    # the half cut runs along a dyadic line, so its A' is A itself
    random, half = make_set(dom, "random", seed=11), left_half(dom)
    primes = []
    for A in (random, half):
        for p in (1.25, 1.5, 1.75):
            res = extend_set(A, W, We, dist,
                             ExtensionParams(p=p, lemma_ratios=lemma_ratios))
        primes.append(res.A_prime)
    assert {caller for caller, _ in built} == {"_table"}
    keys = [mask for _, mask in built]
    assert not np.array_equal(primes[0].mask, random.mask)
    assert np.array_equal(primes[1].mask, half.mask)
    assert primes[1]._table is half._table
    assert keys == [dom.mask.tobytes(), random.mask.tobytes(),
                    primes[0].mask.tobytes(), half.mask.tobytes()]
    assert (~dom.mask).tobytes() not in keys


_SHARED_CASES = {
    "disk": ("ball", 6, dict(r=0.5, margin=Fraction(3, 2))),
    "slit": ("slit_square", 6, dict(slit_len=0.5, margin=Fraction(3, 2))),
    "ball3": ("ball", 4, dict(r=0.5, dim=3, margin=Fraction(1, 2))),
}


def _fresh_inputs(case, kind):
    tag, K, kw = _SHARED_CASES[case]
    dom = build_domain(tag, K, **kw)
    return (make_set(dom, kind, seed=11), whitney_decompose(dom, K),
            exterior_whitney(dom, K), distance_transform(dom))


@pytest.mark.parametrize("lemma_ratios", [True, False])
@pytest.mark.parametrize("kind", ["half", "random"])
@pytest.mark.parametrize("case", list(_SHARED_CASES))
def test_shared_rows_match_fresh_objects(case, kind, lemma_ratios):
    """Three p on one set and its inputs give, byte for byte, the rows and
    sets that three calls on freshly built objects give."""
    A, W, We, dist = _fresh_inputs(case, kind)
    for p in (1.25, 1.5, 1.75):
        params = ExtensionParams(p=p, lemma_ratios=lemma_ratios)
        got = extend_set(A, W, We, dist, params)
        want = extend_set(*_fresh_inputs(case, kind), params)
        assert got.report.csv_row() == want.report.csv_row()
        assert got.report.lhs_touching_new == want.report.lhs_touching_new
        assert got.report.flags == want.report.flags
        for name in ("A_prime", "A0", "A_tilde"):
            assert np.array_equal(getattr(got, name).mask,
                                  getattr(want, name).mask)
        assert (got.aprime_ids, got.a0_ids, got.a0_clipped) \
            == (want.aprime_ids, want.a0_ids, want.a0_clipped)


def test_new_inputs_rebuild_the_geometry(disk_setup, monkeypatch):
    from sobex.distance import DistanceField

    dom, dist, W, We = disk_setup
    W6 = whitney_decompose(dom, 6)
    twin = DistanceField(dist.K, dist.lo_int, dist.shape, dist.coords)
    A = left_half(dom)
    built = _count_calls(monkeypatch, "select_A_prime")
    smoothed = _count_calls(monkeypatch, "smooth_indicator")

    def extend(W_, We_, dist_, lemma_ratios=True, S=A):
        return extend_set(S, W_, We_, dist_,
                          ExtensionParams(p=1.5, lemma_ratios=lemma_ratios))

    extend(W, We, dist)
    extend(W, We, dist)
    assert len(built) == 1
    # each call changes one input of the call before: another W (here at
    # L_max 6), an equal but new W, We or dist, or the lemma setting; each
    # replaces the one entry
    We7 = exterior_whitney(dom, 7)
    results = []
    for args in ((W6, We, dist), (W, We, dist), (W, We7, dist),
                 (W, We7, twin), (W, We7, twin, False), (W, We7, twin, True)):
        before = len(built)
        results.append(extend(*args))
        assert len(built) == before + 1
    assert len(smoothed) == len(built) - 1
    extend(W, We7, twin, S=left_half(dom))
    assert len(built) == 8
    # the W6 call reported W6's extension, the next one W's again
    monkeypatch.undo()
    want = extend(W6, We, dist, S=left_half(dom))
    assert results[0].aprime_ids == want.aprime_ids != results[1].aprime_ids
    assert results[0].report.csv_row() == want.report.csv_row()
    assert math.isnan(results[4].report.lemma32)
    assert results[5].report.csv_row() == results[1].report.csv_row()


def test_cached_geometry_does_not_keep_the_set_alive(disk_setup):
    """The entry on A refers to nothing that refers back to A, so A dies
    with its last reference, without the cyclic collector."""
    dom, dist, W, We = disk_setup
    A = left_half(dom)
    gc.collect()
    gc.disable()
    try:
        res = extend_set(A, W, We, dist, ExtensionParams(p=1.5))
        assert np.array_equal(res.A_tilde.mask & dom.mask, A.mask)
        assert A._extension is not None
        ref = weakref.ref(A)
        del A, res
        assert ref() is None
    finally:
        gc.enable()


def test_field_of_other_centroids_is_refused(disk_setup):
    """A field whose centroids are not the domain's boundary centroids (here
    with one more, on an interior face of A) is refused before any
    selection, and the set keeps no entry."""
    from sobex.distance import DistanceField
    from sobex.perimeter import INTERIOR, boundary_faces

    dom, dist, W, We = disk_setup
    A = left_half(dom)
    faces = boundary_faces(A)
    inner = faces.coords[faces.classification == INTERIOR][:1]
    made_up = DistanceField(dist.K, dist.lo_int, dist.shape,
                            np.concatenate([dist.coords, inner]))
    with pytest.raises(PreconditionNotMet, match="boundary centroids"):
        extend_set(A, W, We, made_up, ExtensionParams(p=1.5))
    assert A._extension is None
    # equal centroids in another array are the domain's own
    copy = DistanceField(dist.K, dist.lo_int, dist.shape, dist.coords.copy())
    got = extend_set(A, W, We, copy, ExtensionParams(p=1.5)).report
    want = extend_set(left_half(dom), W, We, dist,
                      ExtensionParams(p=1.5)).report
    assert got.csv_row() == want.csv_row()


def test_smoothing_budget_refuses_before_allocating(disk_setup):
    dom, dist, W, We = disk_setup
    # a 2^40-per-axis grid over the disk: refused from its shape alone
    with pytest.raises(PreconditionNotMet, match="budget"):
        smooth_indicator(W, dom.mask, eval_level=40)


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


def _oracle_selections(dom, W, We, F):
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
    c2x = 400 * n
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
)
def test_cube_kernels_match_slicing_oracle(case, seed, density):
    dom, W, We = _kernel_setup(*case)
    assert W.collar_cubes and We.collar_cubes
    if case[1] > dom.K:
        assert any(q.level > dom.K for q in W.cubes + We.cubes)
    rng = np.random.default_rng(seed)
    F = VoxelSet.from_domain(dom, (rng.random(dom.shape) < density)
                             & dom.mask)
    avg, ap_mask, ap_ids, a0_mask, a0_ids, clipped = _oracle_selections(
        dom, W, We, F.mask)
    assert np.array_equal(cube_averages(W, F.mask), avg)
    Ap, ids = select_A_prime(F, W)
    assert np.array_equal(Ap.mask, ap_mask)
    assert ids == ap_ids
    A0, ids0, clip0 = select_A0(F, We)
    assert np.array_equal(A0.mask, a0_mask)
    assert ids0 == a0_ids
    assert clip0 == clipped


@pytest.mark.parametrize("name", ["ball", "slit", "ball3"])
def test_select_A0_equals_omega_minus_table(name):
    """2 |A' n D| > |Omega n D| selects, paints and clips exactly what the
    count against the Omega-minus-A' table did."""
    dom = {"ball": lambda: build_domain("ball", 6, r=0.5, margin=1),
           "slit": lambda: build_domain("slit_square", 6, margin=0.25),
           "ball3": lambda: build_domain("ball", 4, dim=3, r=0.5,
                                         margin=0.5)}[name]()
    W = whitney_decompose(dom, dom.K)
    We = exterior_whitney(dom, dom.K)
    cen = dom.cell_centers()
    half = np.broadcast_to(
        cen[0].reshape((-1,) + (1,) * (dom.n - 1)) < 0.5, dom.shape)
    rng = np.random.default_rng(4)
    picked = 0
    for mask in (half, rng.random(dom.shape) < 0.5, dom.mask):
        A_prime, _ = select_A_prime(VoxelSet.from_domain(dom, mask & dom.mask), W)
        A0, ids, clipped = select_A0(A_prime, We)
        ref, ref_ids, ref_clipped = select_A0_omega_minus(A_prime, We)
        assert np.array_equal(A0.mask, ref.mask)
        assert ids == ref_ids and clipped == ref_clipped
        picked += len(ids)
    assert picked


# -- differential check of the report against the sums over A~ ---------------

_REPORT_CASES = {
    "disk": ("ball", 6, dict(r=0.5, margin=Fraction(3, 2))),
    "slit": ("slit_square", 6, dict(slit_len=0.5, margin=Fraction(1, 2))),
    "cusp": ("outward_cusp", 6, dict(margin=Fraction(1, 2))),
    "ball3": ("ball", 4, dict(r=0.5, dim=3, margin=Fraction(1, 2))),
}


@functools.lru_cache(maxsize=None)
def _report_setup(case, extra_level):
    tag, K, kw = _REPORT_CASES[case]
    dom = build_domain(tag, K, **kw)
    L = K + extra_level
    return dom, distance_transform(dom), whitney_decompose(dom, L), \
        exterior_whitney(dom, L)


def _assert_report_matches_tilde_oracle(A, W, We, dist, ps, lemma_ratios):
    for p in ps:
        res = extend_set(A, W, We, dist,
                         ExtensionParams(p=p, lemma_ratios=lemma_ratios))
        want = tilde_report(A, res.A_prime, res.A0, res.a0_clipped, W, dist,
                            p, lemma_ratios)
        got = res.report
        assert got.csv_row() == want.csv_row()
        assert got.lhs_touching_new == want.lhs_touching_new
        assert got.flags == want.flags
    return res


def _assert_touching_is_on_boundary(dist, *sets):
    """For the face sets built so far, a centroid within h/2 of a boundary
    centroid (d2 <= 1) is exactly an ON_BOUNDARY face."""
    from sobex.perimeter import ON_BOUNDARY

    for S in sets:
        faces = S._faces
        assert faces is not None
        assert np.array_equal(dist.d2_at_doubled(faces.coords) <= 1,
                              faces.classification == ON_BOUNDARY)


@pytest.mark.parametrize("extra_level", [0, 1])
@pytest.mark.parametrize("case", list(_REPORT_CASES))
def test_report_matches_sums_over_the_extension(case, extra_level):
    """Rows, the new touching mass and the flags equal, byte for byte, those
    summed over A~'s own faces with touching read from distances, at
    L_max = K and K+1, with lemma ratios on and off."""
    dom, dist, W, We = _report_setup(case, extra_level)
    for kind in ("half", "random"):
        for lemma_ratios in (True, False):
            A = make_set(dom, kind, seed=17)
            res = _assert_report_matches_tilde_oracle(
                A, W, We, dist, (1.25, 1.75), lemma_ratios)
            built = (A, res.A_prime, res.A0) if lemma_ratios else (A, res.A0)
            _assert_touching_is_on_boundary(dist, *built)


@settings(max_examples=25, deadline=None)
@given(
    case=st.sampled_from([("disk", 0), ("slit", 1), ("cusp", 0),
                          ("ball3", 1)]),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.05, 0.95),
    blocks=st.sampled_from([1, 4]),
    lemma_ratios=st.booleans(),
)
def test_report_matches_sums_over_the_extension_on_random_sets(
        case, seed, density, blocks, lemma_ratios):
    from sobex.perimeter import boundary_faces

    dom, dist, W, We = _report_setup(*case)
    rng = np.random.default_rng(seed)
    coarse = rng.random(tuple(-(-s // blocks) for s in dom.shape)) < density
    for d in range(dom.n):
        coarse = coarse.repeat(blocks, axis=d)
    mask = coarse[tuple(slice(0, s) for s in dom.shape)] & dom.mask
    A = VoxelSet.from_domain(dom, mask)
    res = _assert_report_matches_tilde_oracle(A, W, We, dist, (1.5,),
                                              lemma_ratios)
    # A~ itself, built here, obeys the same identity
    tilde = VoxelSet.from_domain(dom, res.A_tilde.mask, require_subset=False)
    boundary_faces(tilde)
    built = (A, res.A_prime, res.A0) if lemma_ratios else (A, res.A0)
    _assert_touching_is_on_boundary(dist, *built, tilde)
