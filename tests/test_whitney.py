import dataclasses
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from copy_oracles import (
    audit_by_region_table,
    domain_svg_by_runs,
    exact_box_dist2,
    gradient_constant_from_views,
    sets_svg_by_runs,
    surface_gather_d2,
    whitney_by_region_table,
    whitney_svg_from_views,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import sobex.cli as cli
import sobex.distance
import sobex.whitney as whitney
from sobex import figio
from sobex.domain import VoxelDomain, _mask_bounds, build_domain
from sobex.dyadic import DyadicCube
from sobex.errors import PreconditionNotMet
from sobex.distance import distance_transform
from sobex.perimeter import VoxelSet, weighted_boundary_integral
from sobex.whitney import (
    PartitionOfUnity,
    WhitneyDecomposition,
    _bump,
    audit_whitney,
    capacity_check,
    cube_averages,
    exterior_whitney,
    gradient_energy,
    smooth_indicator,
    whitney_decompose,
)

from dense_smoothing import assert_band_matches, dense_energy, dense_smooth
from distance_oracle import reference_field


def brute_force_whitney(dom, L_max):
    """Independent reconstruction: enumerate every dyadic cube down to L_max
    and accept a cube iff it passes the (W3) lower-bound test with full
    occupancy while no ancestor does."""
    _, coords = dom.boundary_faces_doubled()
    S = max(L_max, dom.K + 1)
    pts = coords.astype(object) * 2 ** (S - dom.K - 1)
    lo_int = np.asarray(dom.lo_int)

    def passes(q: DyadicCube) -> bool:
        k = q.level
        f = 2 ** (dom.K - k)
        lo = [q.index[d] * f - lo_int[d] for d in range(dom.n)]
        hi = [(q.index[d] + 1) * f - lo_int[d] for d in range(dom.n)]
        sub = dom.mask[tuple(slice(a, b) for a, b in zip(lo, hi))]
        if not sub.all() or sub.size == 0:
            return False
        qlo, qhi = q.bounds_int(S)
        ell = 2 ** (S - k)
        best = None
        for row in pts:
            d2 = 0
            for a, b, x in zip(qlo, qhi, row):
                x = int(x)
                if x < a:
                    d2 += (a - x) ** 2
                elif x > b:
                    d2 += (x - b) ** 2
            best = d2 if best is None else min(best, d2)
        return best >= ell * ell

    accepted = set()
    for k in range(0, L_max + 1):
        f = 2 ** (dom.K - k)
        for jx in range(dom.lo_int[0] // f, (dom.lo_int[0] + dom.shape[0]) // f):
            for jy in range(dom.lo_int[1] // f,
                            (dom.lo_int[1] + dom.shape[1]) // f):
                q = DyadicCube(k, (jx, jy))
                anc = q
                shadowed = False
                while anc.level > 0:
                    anc = anc.parent()
                    if (anc.level, anc.index) in accepted:
                        shadowed = True
                        break
                if not shadowed and passes(q):
                    accepted.add((q.level, q.index))
    return accepted


def test_matches_exhaustive_oracle():
    dom = build_domain("cube", 6, dim=2)
    dec = whitney_decompose(dom, 6)
    got = set((q.level, q.index) for q in dec.cubes)
    assert got == brute_force_whitney(dom, 6)


def test_audit_all_generators(square_dec, ball_k7_dec):
    for dec in (square_dec, ball_k7_dec):
        audit = audit_whitney(dec)
        assert audit["W1"] and audit["W2"] and audit["W3"] and audit["W4"]


def test_slab_translation_periodic():
    # slab {0 < y < 1} in a 2 x 1 box: cube sizes depend only on the distance
    # to the two horizontal planes, away from the clipped ends
    K = 6
    mask = np.ones((2 * 2**K, 2**K), bool)
    dom = VoxelDomain(K, (0, 0), mask)
    dec = whitney_decompose(dom, 7)
    cubes = set((q.level, q.index) for q in dec.cubes)
    for q in dec.cubes:
        lo = q.corner_lo()
        hi = q.corner_hi()
        if float(lo[0]) < 0.5 or float(hi[0]) > 1.5:
            continue
        shifted = (q.level, (q.index[0] + 1, q.index[1]))
        assert shifted in cubes or float(hi[0]) + float(q.side) > 2.0


def test_ball_boundary_dominated_growth(ball_k7_dec):
    levels, counts = np.unique(ball_k7_dec.levels, return_counts=True)
    per_level = dict(zip(levels.tolist(), counts.tolist()))
    ks = sorted(per_level)[-3:]
    # counts should grow like 2^k (n-1 = 1 in 2D); regression within 15%
    xs = np.array(ks, dtype=float)
    ys = np.log2([per_level[k] for k in ks])
    slope = np.polyfit(xs, ys, 1)[0]
    assert abs(slope - 1.0) <= 0.15


def test_exterior_whitney_and_synthetic_flags(ball_k7):
    dec = exterior_whitney(ball_k7, 8)
    audit = audit_whitney(dec)
    assert audit["W1"] and audit["W2"] and audit["W3"] and audit["W4"]
    assert dec.synthetic.any()
    # synthetic cubes all touch the outer bbox
    lo, hi = ball_k7.bbox()
    for q, syn in zip(dec.cubes, dec.synthetic):
        touches = any(
            q.corner_lo()[d] == lo[d] or q.corner_hi()[d] == hi[d]
            for d in range(2)
        )
        assert touches == bool(syn)


def test_exterior_radial_symmetry(ball_k7):
    # level histogram is symmetric under the 4-fold symmetry of the setup
    dec = exterior_whitney(ball_k7, 8)
    ctr = 0.5
    counts = {}
    for q in dec.cubes:
        c = q.center()
        key = (q.level,
               tuple(sorted((abs(float(c[0]) - ctr), abs(float(c[1]) - ctr)))))
        counts[key] = counts.get(key, 0) + 1
    # every symmetry class has multiplicity divisible by its orbit size
    for (lvl, (a, b)), cnt in counts.items():
        orbit = 4 if a == b or a == 0 or b == 0 else 8
        assert cnt % (orbit // (2 if a == b else 1) if a == b else orbit) == 0 \
            or cnt % 4 == 0


_GRAPH_CASES = {
    "ball2": lambda: build_domain("ball", 5, r=0.5, margin=0.5),
    "slit2": lambda: build_domain("slit_square", 5, slit_len=0.5, margin=0.5),
    "ball3": lambda: build_domain("ball", 3, r=0.5, margin=0.5, dim=3),
}


def _brute_force_adjacency(dec):
    """Neighbour lists from all pairs of integer boxes at the scale level:
    the closed boxes meet in a piece of positive (n-1)-measure."""
    f = (2 ** (dec.scale_level - dec.levels))[:, None]
    lo = dec.index * f
    hi = lo + f
    assert np.abs(lo).max() < 2**14 and np.abs(hi).max() < 2**14
    lo, hi = lo.astype(np.int16), hi.astype(np.int16)
    out = []
    for i0 in range(0, len(lo), 256):
        w = (np.minimum(hi[i0:i0 + 256, None], hi)
             - np.maximum(lo[i0:i0 + 256, None], lo))
        # overlapping on every axis but one, where the boxes only touch
        adj = np.all(w >= 0, axis=2) & ((w == 0).sum(axis=2) == 1)
        out += [np.nonzero(row)[0].tolist() for row in adj]
    return out


@pytest.mark.parametrize("side", ["interior", "exterior"])
@pytest.mark.parametrize("case", sorted(_GRAPH_CASES))
def test_neighbor_graph_matches_brute_force(case, side):
    dom = _GRAPH_CASES[case]()
    dec = whitney_decompose(dom, dom.K + 2, side=side)
    assert len(set(dec.levels.tolist())) >= 3
    assert dec.neighbor_graph() == _brute_force_adjacency(dec)


@pytest.mark.parametrize("side", ["interior", "exterior"])
@pytest.mark.parametrize("dim, K", [(2, 6), (3, 4)])
def test_level_k_plus_one_d2_is_exact(dim, K, side):
    # the one distance path equals the surface gather down to level K+1
    # and the per-cube ball query at every level, on accepted cubes and on
    # random full cubes below the grid, accepted or not
    dom = build_domain("ball", K, r=0.5, margin=0.5, dim=dim)
    field = distance_transform(dom)
    feature = reference_field(dom)[1]
    _, coords = dom.boundary_faces_doubled()
    rng = np.random.default_rng(K)
    for L_max in (K + 1, K + 2):
        dec = whitney_decompose(dom, L_max, side=side)
        S = dec.scale_level
        shift = S - (K + 1)
        coords_S = coords.astype(np.int64) << shift
        tree = cKDTree(coords_S.astype(np.float64))

        def per_cube(level, idx):
            ell = 2 ** (S - level)
            return [exact_box_dist2(row * ell, row * ell + ell, tree, coords_S,
                                    ell * math.sqrt(dim) / 2.0)
                    for row in idx]

        assert (dec.levels == L_max).any()
        for k in np.unique(dec.levels).tolist():
            at = np.nonzero(dec.levels == k)[0]
            if k <= K + 1:
                assert np.array_equal(dec.d2[at], surface_gather_d2(
                    dec.index[at], k, dom, feature, shift))
            at = at[rng.choice(len(at), min(len(at), 200), replace=False)]
            assert dec.d2[at].tolist() == per_cube(k, dec.index[at])
        cells = np.argwhere(dec.side_mask()) + np.asarray(dom.lo_int)
        for k in range(K + 1, L_max + 1):
            up = k - K
            sub = np.concatenate([(cells << up) + np.array(off) for off in
                                  itertools.product(range(2**up), repeat=dim)])
            sub = sub[rng.choice(len(sub), 400, replace=False)]
            ell = 2 ** (S - k)
            got = field.box_d2(sub * ell, ell, shift)
            assert got.tolist() == per_cube(k, sub)
            if k == K + 1:
                assert np.array_equal(got, surface_gather_d2(
                    sub, k, dom, feature, shift))


def _brute_force_d2(dec):
    """Min over every boundary centroid of the squared distance to each
    accepted cube, in units of 2**-S."""
    dom = dec.domain
    S = dec.scale_level
    _, coords = dom.boundary_faces_doubled()
    pts = coords.astype(np.int64) << (S - dom.K - 1)
    ell = (2 ** (S - dec.levels))[:, None]
    lo = dec.index * ell
    out = np.empty(len(lo), dtype=np.int64)
    for a in range(0, len(lo), 64):
        gap = (np.maximum(lo[a:a + 64, None] - pts, 0)
               + np.maximum(pts - (lo + ell)[a:a + 64, None], 0))
        out[a:a + 64] = (gap * gap).sum(axis=2).min(axis=1)
    return out


@st.composite
def _random_domains(draw):
    dim = draw(st.sampled_from([2, 3]))
    K = draw(st.integers(2, 4 if dim == 2 else 3))
    shape = tuple(draw(st.integers(1, 2**K + 2)) for _ in range(dim))
    lo_int = tuple(draw(st.integers(-3, 3)) for _ in range(dim))
    density = draw(st.sampled_from([0.3, 0.7, 0.95]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    mask = rng.random(shape) < density
    assume(mask.any())
    return VoxelDomain(K, lo_int, mask), K + draw(st.integers(0, 2))


@settings(max_examples=40, deadline=None)
@given(_random_domains(), st.sampled_from(["interior", "exterior"]))
def test_accepted_d2_is_min_over_all_centroids(case, side):
    dom, L_max = case
    dec = whitney_decompose(dom, L_max, side=side)
    assert np.array_equal(dec.d2, _brute_force_d2(dec))


@pytest.mark.parametrize("pairs", [1, 9, 60])
def test_chunk_edges_leave_arrays_unchanged(monkeypatch, pairs):
    # fresh domains for each run, as the distance field caches its tree
    def doms():
        return [build_domain("ball", 5, r=0.5, margin=0.5),
                build_domain("slit_square", 5, slit_len=0.5, margin=0.5),
                build_domain("ball", 3, r=0.5, margin=0.5, dim=3)]

    ref = [whitney_decompose(dom, dom.K + 2, side=side)
           for dom in doms() for side in ("interior", "exterior")]
    calls = []

    class Recording(cKDTree):
        def query_ball_point(self, x, r, **kwargs):
            cand = super().query_ball_point(x, r, **kwargs)
            calls.append((len(x), sum(map(len, cand))))
            return cand

    monkeypatch.setattr(sobex.distance, "cKDTree", Recording)
    monkeypatch.setattr(sobex.distance, "_BALL_PAIRS", pairs)
    got = [whitney_decompose(dom, dom.K + 2, side=side)
           for dom in doms() for side in ("interior", "exterior")]
    for a, b in zip(ref, got):
        for key in ("levels", "index", "d2", "synthetic", "collar_levels",
                    "collar_index"):
            assert np.array_equal(getattr(a, key), getattr(b, key))
    # chunks of several boxes stay within the bound; single boxes over it
    # go alone
    assert all(held <= pairs for boxes, held in calls if boxes > 1)
    assert any(held > pairs for boxes, held in calls if boxes == 1)
    if pairs > 1:
        assert any(boxes > 1 for boxes, _ in calls)


def test_whitney_builds_no_distance_lattice(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the distance lattice was built")

    monkeypatch.setattr(sobex.distance, "_build_lattice", refuse)
    for dom in (build_domain("ball", 6, r=0.5, margin=0.5),
                build_domain("ball", 4, r=0.5, margin=0.5, dim=3)):
        for side in ("interior", "exterior"):
            audit = audit_whitney(whitney_decompose(dom, dom.K + 2, side=side))
            assert all(audit[w] for w in ("W1", "W2", "W3", "W4"))
    path = str(tmp_path / "domain.voxd")
    build_domain("ball", 6, r=0.5, margin=2).save(path)
    for extra in ([], ["--exterior"]):
        assert cli.main(["--out", str(tmp_path), "whitney", "--domain-file",
                         path, "--L-max", "8", *extra]) == 0


# sha256 of to_text() and the d2, collar level and collar index arrays
# (int64 bytes), taken before the distance paths were merged
_PINNED = {
    ("ball2", 0, "interior"): "d254db6bf75adcef893f4251b0713de9274904a5e971ce69201caae058547c25",
    ("ball2", 0, "exterior"): "c1b94646ec9fa7c339596f5d024f2397977fadf4cad850a06deb7b6cf2c093fd",
    ("ball2", 1, "interior"): "7573b4823ba56fe3c616733e5dae00f2eb97f548e080dfa72623f319325c635f",
    ("ball2", 1, "exterior"): "882c3e636115c56b7abae9b31fb19dccb68abe7a1ca9e98a065eb1a77400fbbe",
    ("ball2", 2, "interior"): "eb5ac77259df3ab4f08a09d4de8da0671aab1e703075af9f8ce80d9945fc3a37",
    ("ball2", 2, "exterior"): "ac222c2d600390fd2c5c9b00d13ad1bb8c2b1281e1a6215db9c811b4fd370ed4",
    ("ball2", 3, "interior"): "bcc17c64cbe1f25063a5d6fd7ea3d196b337617b3df9b592a38e4b433998adb7",
    ("ball2", 3, "exterior"): "e5e4e90c0e91a68c2d3a7989554f70de69a80b8ee7352dc3f1d619672cec1df7",
    ("slit2", 0, "interior"): "c0bc80ea66fbc02071b41b06d7bfc54d5fdac8204d233be214b4a6ab2c76a9ac",
    ("slit2", 0, "exterior"): "fc534b42272ec529704d5493e2f80b17067ec385bd47c3d8bb917a90cbc6ee6d",
    ("slit2", 1, "interior"): "a1f4eb76d954b97fec93f86a103312418f007db826212c34305b8daef2c19d19",
    ("slit2", 1, "exterior"): "7513fd91132dc6342c3d0ddf652265864a21e5253d5c6b120a89682b0fd6aed3",
    ("slit2", 2, "interior"): "850c353d706a2777f8d5e7e3c1fad2dd1752a2bccb82898a855d601fca6ec078",
    ("slit2", 2, "exterior"): "f4710c6523fb17c9bd5d68a71e47bcc7ef5b8636f34df1efa5da5cb9947b7e10",
    ("slit2", 3, "interior"): "b2e41348d036b362d49239b04d079b395e9467978bb8b6e55f0fb778126d8936",
    ("slit2", 3, "exterior"): "2e977964515d651a20856f908987822d5c88fb256f8599a9b3882ffb0ea608e3",
    ("ball3", 2, "interior"): "11308fdadfccb76ff2ec23e8c995dca64d5fffcbaf4a882caa4f6281540ca3d9",
    ("ball3", 2, "exterior"): "4a8b1c8c89c205b4e88886969958f481575cc344b4d7ae03309c254e6db40bac",
}
_PIN_DOMAINS = {
    "ball2": lambda: build_domain("ball", 6, r=0.5, margin=0.5),
    "slit2": lambda: build_domain("slit_square", 6, slit_len=0.5, margin=0.5),
    "ball3": lambda: build_domain("ball", 4, r=0.5, margin=0.5, dim=3),
}


@pytest.mark.parametrize("case", sorted(_PIN_DOMAINS))
def test_decompositions_match_pinned_digests(case):
    dom = _PIN_DOMAINS[case]()
    for (name, below, side), want in _PINNED.items():
        if name != case:
            continue
        dec = whitney_decompose(dom, dom.K + below, side=side)
        h = hashlib.sha256(dec.to_text().encode())
        for a in (dec.d2, dec.collar_levels, dec.collar_index):
            h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
        assert h.hexdigest() == want, (name, below, side)
        if dom.n == 3:
            audit = audit_whitney(dec)
            assert all(audit[w] for w in ("W1", "W2", "W3", "W4"))


@pytest.mark.parametrize("below", [0, 2])
@pytest.mark.parametrize("case", sorted(_PIN_DOMAINS))
def test_side_counts_match_a_whole_grid_region_table(case, below):
    """An exterior cube's region count, its cells less the domain's count,
    gives the decomposition and the audit that counting on a whole-grid
    table of ~dom.mask gives; so does the interior on the domain's own
    table.  At L_max = K + 2 the collar holds sub-cell cubes."""
    dom = _PIN_DOMAINS[case]()
    for side in ("exterior", "interior"):
        got = whitney_decompose(dom, dom.K + below, side=side)
        want = whitney_by_region_table(dom, dom.K + below, side)
        for name in ("levels", "index", "d2", "synthetic", "collar_levels",
                     "collar_index"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (side, name)
        assert got.collar_measure == want.collar_measure
        assert bool(below) == bool((got.collar_levels > dom.K).any())
        assert audit_whitney(got) == audit_by_region_table(got)


def _reference_counts(mask, lo, hi):
    """int64 sums of the mask over the boxes [lo, hi), clipped to the grid."""
    return [int(mask[tuple(slice(max(a, 0), max(min(b, s), 0))
                           for a, b, s in zip(row_lo, row_hi, mask.shape))]
                .sum(dtype=np.int64))
            for row_lo, row_hi in zip(lo.tolist(), hi.tolist())]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=2, max_size=3),
       st.sampled_from([0.0, 0.05, 0.5, 1.0]), st.integers(0, 2**16))
def test_integral_image_equals_int64_construction(shape, density, seed):
    """The table is the int64 cumsum of the mask's bounding box and starts at
    the box's first cell; every box count, whether the box lies inside,
    across or wholly off the mask's box, equals the full-grid count."""
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < density
    n = mask.ndim
    bounds = _mask_bounds(mask) or ((0,) * n, (0,) * n)
    ref = mask[tuple(map(slice, *bounds))].astype(np.int64)
    for d in range(n):
        ref = ref.cumsum(axis=d)
    ref = np.pad(ref, [(1, 0)] * n)
    P, first = whitney._integral_image(mask)
    assert P.dtype == np.int32 and np.array_equal(P, ref)
    assert first.dtype == np.int64 and first.tolist() == list(bounds[0])
    blo, bhi, N = (np.array(v) for v in (*bounds, shape))
    # the mask's box, the grid, a box across each face of the mask's box
    # and one wholly beyond it on either side, then random boxes
    lo = [blo, np.zeros(n, int)]
    hi = [bhi, N]
    for d in range(n):
        for a, b in ((blo[d] - 2, blo[d] + 1), (bhi[d] - 1, bhi[d] + 2),
                     (-3, blo[d]), (bhi[d], N[d] + 3)):
            lo.append(np.where(np.arange(n) == d, a, -1))
            hi.append(np.where(np.arange(n) == d, b, N + 1))
    lo = np.concatenate([np.array(lo), rng.integers(-3, N + 3, size=(40, n))])
    hi = np.concatenate([np.array(hi), lo[len(hi):] + rng.integers(
        1, N.max() + 4, size=(40, n))])
    assert whitney._box_count_batch((P, first), lo, hi).tolist() \
        == _reference_counts(mask, lo, hi)


def test_integral_image_refused_over_budget(monkeypatch):
    """The budget is checked on the bytes of the domain's box, which are
    fewer than the grid's."""
    dom = build_domain("ball", 6, r=0.5, margin=0.5)
    lo, hi = _mask_bounds(dom.mask)
    need = 4 * math.prod(b - a + 1 for a, b in zip(lo, hi))
    assert need < 4 * math.prod(s + 1 for s in dom.shape)
    monkeypatch.setattr(whitney, "TABLE_BUDGET_BYTES", need)
    assert whitney._integral_image(dom.mask)[0].nbytes == need
    monkeypatch.setattr(whitney, "TABLE_BUDGET_BYTES", need - 1)
    with pytest.raises(PreconditionNotMet, match="budget"):
        whitney._integral_image(dom.mask)
    for side in ("interior", "exterior"):
        with pytest.raises(PreconditionNotMet, match="summed-area table"):
            whitney_decompose(dom, 7, side=side)


def _hand_built(dom, cubes):
    """A decomposition of the given (level, index) cubes with no collar;
    every distance is set positive so only the tested property can fail."""
    m = len(cubes)
    return WhitneyDecomposition(
        domain=dom, side="interior",
        levels=np.array([k for k, _ in cubes], dtype=np.int64),
        index=np.array([j for _, j in cubes], dtype=np.int64).reshape(m, 2),
        d2=np.ones(m, dtype=np.int64), scale_level=dom.K + 1,
        truncation_level=dom.K, synthetic=np.zeros(m, dtype=bool),
        collar_levels=np.empty(0, dtype=np.int64),
        collar_index=np.empty((0, 2), dtype=np.int64))


def test_audit_fails_on_cube_next_to_its_ancestor(unit_square_k6):
    dom = unit_square_k6
    quarter = [(2, (a, b)) for a in range(4) for b in range(4)
               if a >= 2 or b >= 2]
    good = _hand_built(dom, [(1, (0, 0))] + quarter)
    assert all(audit_whitney(good)[w] for w in ("W1", "W2", "W4"))
    # the child (2, (0, 0)) of the level-1 cube replaces (2, (3, 3)), so
    # the volumes still add up and only the ancestor test can fail
    bad = _hand_built(dom, [(1, (0, 0)), (2, (0, 0))] + quarter[:-1])
    audit = audit_whitney(bad)
    assert audit["W1"] and not audit["W2"]


def test_audit_fails_on_level_gap_of_four():
    # a level-1 cube meets level-5 cells along two of its faces
    dom = VoxelDomain(5, (0, 0), np.ones((32, 32), bool))
    cells = [(5, (a, b)) for a in range(32) for b in range(32)
             if a >= 16 or b >= 16]
    dec = _hand_built(dom, [(1, (0, 0))] + cells)
    audit = audit_whitney(dec)
    assert audit["W1"] and audit["W2"] and not audit["W4"]
    assert len(dec.neighbor_graph()[0]) == 32



@pytest.mark.parametrize("name", ["square_dec", "ball_k7_dec"])
def test_level_counts_of_all_levels_equal_per_level_calls(name, request):
    dec = request.getfixturevalue(name)
    dom = dec.domain
    F = np.random.default_rng(3).random(dom.shape) < 0.5
    P = whitney._integral_image(F)
    for collar in (False, True):
        levels, index = (dec.collar_levels, dec.collar_index) if collar \
            else (dec.levels, dec.index)
        want = np.empty(len(levels), dtype=np.int64)
        for k, pos, idx in whitney._per_level(dec, collar):
            want[pos] = whitney._level_counts(P, dom, k, idx)
        assert np.array_equal(whitney._level_counts(P, dom, levels, index),
                              want)
    # the averages as each level's counts over its block size
    want = np.empty(len(dec.levels))
    for k, pos, idx in whitney._per_level(dec):
        want[pos] = whitney._level_counts(P, dom, k, idx) \
            / 2 ** (max(dom.K - k, 0) * dom.n)
    assert cube_averages(dec, F).tobytes() == want.tobytes()


def test_audit_flags_one_bad_cube_at_every_level(ball_k7_dec):
    """One cube per level with its distance zeroed fails (W1) and the (W3)
    floor; one with its distance past the (W3) ceiling fails (W3) alone."""
    dec = ball_k7_dec
    n, S = dec.domain.n, dec.scale_level
    for k in np.unique(dec.levels).tolist():
        i = int(np.flatnonzero(dec.levels == k)[-1])
        for value, fails in ((0, ["W1", "W3"]),
                             (16 * n * 4 ** (S - k) + 1, ["W3"])):
            d2 = dec.d2.copy()
            d2[i] = value
            audit = audit_whitney(dataclasses.replace(dec, d2=d2))
            assert [w for w in ("W1", "W2", "W3", "W4") if not audit[w]] \
                == fails, (k, value)


# -- partition of unity -----------------------------------------------------


def _cube_lookup(dec):
    """Per-level map from absolute dyadic index to cube id."""
    lookup = {}
    for i, q in enumerate(dec.cubes):
        lookup.setdefault(q.level, {})[q.index] = i
    return lookup


def _evaluate_point_by_point(pou, lookup, x):
    """The per-point partition-of-unity loop, kept as the reference for the
    batched evaluation: candidates level by level in the order the cubes
    list them, the 3^n neighbouring indices each, weights summed in that
    order.  None for an uncovered point."""
    n = pou.dec.domain.n
    vals = []
    covered = False
    for level, idx_map in lookup.items():
        base = [int(np.floor(x[d] / 2.0**-level)) for d in range(n)]
        for off in itertools.product((-1, 0, 1), repeat=n):
            i = idx_map.get(tuple(base[d] + off[d] for d in range(n)))
            if i is None:
                continue
            box = pou._boxes[i]
            phi = float(_bump(box, pou._radii[i], x))
            covered |= all(box[d] <= x[d] <= box[n + d] for d in range(n))
            if phi > 0.0:
                vals.append((i, phi))
    if not covered:
        return None
    total = sum(v for _, v in vals)
    return [(i, v / total) for i, v in vals]



def _bump_per_axis_gaps(box, r, x):
    """`_bump` with its own per-axis gap loop, as it was written before it
    took the gaps from `dyadic.box_point_d2`."""
    n = len(box) // 2
    d2 = 0.0
    for d in range(n):
        gap = (np.maximum(box[d] - x[d], 0.0)
               + np.maximum(x[d] - box[n + d], 0.0))
        d2 = d2 + gap * gap
    t = np.sqrt(d2) / r
    return np.where(t >= 1.0, 0.0, 1.0 - t * t * (3.0 - 2.0 * t))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 3), m=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_bump_equals_its_per_axis_gap_loop_bit_for_bit(n, m, seed):
    """Boxes of shape (2n,) against a batch of points, and (2n, m) against
    one point per box.  Per axis a point lies below, inside or above its
    box, within half the shell width, so it reads the shell's d2; some lie
    on a face."""
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 12, m)[:, None, None]
    j = rng.integers(-64, 64, (m, 1, n))
    lo, hi = np.ldexp(j, -k), np.ldexp(j + 1, -k)
    radii = np.ldexp(1.0, -k[:, 0, 0]) / 16
    v = rng.random((m, 32, n))
    u = v * radii[:, None, None] / 2
    where = rng.integers(0, 3, (m, 32, n))
    pts = np.choose(where, [lo - u, lo + (hi - lo) * v, hi + u])
    pts[:, ::5, 0] = lo[:, :, 0]
    boxes = np.hstack([lo[:, 0], hi[:, 0]])
    for i in range(m):
        x = pts[i].T
        assert _bump(boxes[i], radii[i], x).tobytes() == \
            _bump_per_axis_gaps(boxes[i], radii[i], x).tobytes()
    x = pts[:, 0].T
    assert _bump(boxes.T, radii, x).tobytes() == \
        _bump_per_axis_gaps(boxes.T, radii, x).tobytes()

class CollarPoint(Exception):
    """A point of the region in the truncation collar, covered by no cube."""


def _evaluate(pou, x):
    """Nonzero (cube id, psi_i(x)) pairs at one point from the batched
    evaluation; raises CollarPoint when x lies in the domain but outside the
    covered region."""
    x = np.asarray(x, dtype=float)
    _, ids, psi, covered = pou.evaluate_many(x[None, :])
    if not covered[0]:
        raise CollarPoint(f"point {tuple(x)} lies in the truncation collar")
    return [(int(i), float(v)) for i, v in zip(ids, psi)]


def test_partition_sums_to_one(square_dec):
    pou = PartitionOfUnity(square_dec)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.02, 0.98, (2000, 2))
    point, _, psi, covered = pou.evaluate_many(pts)
    sums = np.bincount(point, weights=psi, minlength=len(pts))
    assert covered.sum() > 1500
    assert np.abs(sums[covered] - 1.0).max() <= 1e-9


def test_psi_equals_one_at_cube_centers(square_dec):
    pou = PartitionOfUnity(square_dec)
    centers = np.array([[float(v) for v in q.center()]
                        for q in square_dec.cubes])
    point, ids, psi, covered = pou.evaluate_many(centers)
    assert covered.all()
    assert np.array_equal(point, np.arange(len(centers)))
    assert np.array_equal(ids, np.arange(len(centers)))
    assert np.all(psi == 1.0)


def test_shared_face_symmetry(square_dec):
    # midpoint of the face between two equal-size neighbors: both weights 1/2
    pou = PartitionOfUnity(square_dec)
    lookup = _cube_lookup(square_dec)
    for i, q in enumerate(square_dec.cubes):
        j = lookup.get(q.level, {}).get((q.index[0] + 1, q.index[1]))
        if j is None:
            continue
        x = np.array([float(q.corner_hi()[0]),
                      float(q.center()[1])])
        vals = dict(_evaluate(pou, x))
        assert vals.get(i) == pytest.approx(0.5, abs=1e-12)
        assert vals.get(j) == pytest.approx(0.5, abs=1e-12)
        break
    else:
        pytest.skip("no equal-size x-neighbors found")


def test_collar_point_raises():
    dom = build_domain("ball", 6, r=0.5)
    dec = whitney_decompose(dom, 6)
    assert dec.collar_cubes
    q = dec.collar_cubes[0]
    # a point of the region inside a truncated cube is uncovered
    f = 2 ** (dom.K - q.level)
    region = dec.side_mask()
    lo = [q.index[d] * f - dom.lo_int[d] for d in range(2)]
    sub = region[lo[0]:lo[0] + f, lo[1]:lo[1] + f]
    cell = np.argwhere(sub)[0]
    x = ((np.array(lo) + cell + 0.5) + np.array(dom.lo_int)) * dom.h
    pou = PartitionOfUnity(dec)
    with pytest.raises((CollarPoint, PreconditionNotMet)):
        _evaluate(pou, x)


@pytest.mark.parametrize("case", ["square", "ball3"])
def test_batched_partition_matches_point_by_point(case, square_dec):
    if case == "square":
        dec = square_dec
    else:
        dec = whitney_decompose(build_domain("ball", 4, r=0.5, dim=3), 5)
    dom = dec.domain
    pou = PartitionOfUnity(dec)
    rng = np.random.default_rng(11)
    cells = np.argwhere(dec.side_mask())
    pick = cells[rng.choice(len(cells), 1500)]
    pts = (pick + np.asarray(dom.lo_int) + rng.uniform(0, 1, pick.shape)) * dom.h
    # cube centers and corners: points where psi is 1 or on support edges
    pts = np.concatenate([pts] + [
        np.array([[float(v) for v in f(q)] for q in dec.cubes[:300]])
        for f in (lambda q: q.center(), lambda q: q.corner_hi())])
    point, ids, psi, covered = pou.evaluate_many(pts)
    lookup = _cube_lookup(dec)
    collar = 0
    for m, x in enumerate(pts):
        ref = _evaluate_point_by_point(pou, lookup, x)
        mine = [(int(i), float(v))
                for i, v in zip(ids[point == m], psi[point == m])]
        if ref is None:
            collar += 1
            assert not covered[m] and mine == []
        else:
            assert covered[m] and mine == ref
    assert collar > 0
    for m in range(0, len(pts), 97):
        ref = _evaluate_point_by_point(pou, lookup, pts[m])
        if ref is None:
            with pytest.raises(CollarPoint):
                _evaluate(pou, pts[m])
        else:
            assert _evaluate(pou, pts[m]) == ref
    with pytest.raises(PreconditionNotMet, match="outside"):
        pou.evaluate_many(np.concatenate([pts, [[-5.0] * dom.n]]))


def test_gradient_constant_stability(square_dec, ball_k7_dec):
    c1 = PartitionOfUnity(square_dec).gradient_constant(max_cubes=150)
    c2 = PartitionOfUnity(ball_k7_dec).gradient_constant(max_cubes=150)
    assert abs(c1 - c2) / max(c1, c2) <= 0.05


# -- smoothing operator -----------------------------------------------------


def test_smooth_indicator_trivial_cases(square_dec):
    dom = square_dec.domain
    full = smooth_indicator(square_dec, dom.mask, eval_level=8)
    dense = dense_smooth(square_dec, dom.mask, eval_level=8)
    assert np.all(dense.u[dense.covered] == 1.0)
    assert_band_matches(full, dense)
    assert np.all(full.u[full.covered] == 1.0)
    zeros = np.zeros(dom.shape, bool)
    empty = smooth_indicator(square_dec, zeros, eval_level=8)
    dense = dense_smooth(square_dec, zeros, eval_level=8)
    assert np.all(dense.u == 0.0)
    assert_band_matches(empty, dense)
    assert np.all(empty.u == 0.0)


def _cube_mask(dom, q):
    f = 2 ** (dom.K - q.level)
    m = np.zeros(dom.shape, bool)
    sl = tuple(
        slice(q.index[d] * f - dom.lo_int[d], (q.index[d] + 1) * f - dom.lo_int[d])
        for d in range(dom.n)
    )
    m[sl] = True
    return m


def test_smooth_single_cube(square_dec):
    dom = square_dec.domain
    levels = square_dec.levels
    i = int(np.argwhere(levels == 4)[0][0])
    q = square_dec.cubes[i]
    F = _cube_mask(dom, q)
    si = smooth_indicator(square_dec, F, eval_level=9)
    dense = dense_smooth(square_dec, F, eval_level=9)
    assert_band_matches(si, dense)
    assert np.all(si.a[i] == 1.0)
    assert np.all((dense.u >= 0.0) & (dense.u <= 1.0))
    assert np.all((si.u >= 0.0) & (si.u <= 1.0))
    # u = 1 at the cube center, 0 outside the support shell
    gx = int((float(q.center()[0])) / si.h_eval - si.grid_lo[0] / si.h_eval)
    gy = int((float(q.center()[1])) / si.h_eval - si.grid_lo[1] / si.h_eval)
    assert dense.u[gx, gy] == pytest.approx(1.0)
    # probe three cube sides away, stepping toward the domain center
    ctr = np.array([float(v) for v in q.center()])
    step = 3 * float(q.side) * np.sign(0.5 - ctr)
    far = ctr + step
    fx = int(far[0] / si.h_eval - si.grid_lo[0] / si.h_eval)
    fy = int(far[1] / si.h_eval - si.grid_lo[1] / si.h_eval)
    assert dense.u[fx, fy] == 0.0
    # gradient energy against the interior weighted integral (the smoothing
    # estimate): finite, and controlled by the cube's own boundary weight
    p = 1.5
    dist = distance_transform(dom)
    energy = gradient_energy(si, p)
    assert energy == dense_energy(dense, p)
    A = VoxelSet.from_domain(dom, F)
    jp, _ = weighted_boundary_integral(A, p, dist, "interior")
    assert energy > 0 and jp > 0
    assert energy <= 10.0 * jp


def test_smoothing_linearity(square_dec):
    dom = square_dec.domain
    rng = np.random.default_rng(5)
    F1 = rng.random(dom.shape) < 0.3
    F2 = (rng.random(dom.shape) < 0.3) & ~F1
    s1, s2, s12 = (dense_smooth(square_dec, F, eval_level=8)
                   for F in (F1, F2, F1 | F2))
    assert np.max(np.abs(s12.u - (s1.u + s2.u))) <= 1e-12
    for F, dense in ((F1, s1), (F2, s2), (F1 | F2, s12)):
        assert_band_matches(smooth_indicator(square_dec, F, eval_level=8),
                            dense)


def test_cube_average_indicator_values(square_dec):
    dom = square_dec.domain
    rng = np.random.default_rng(9)
    F = rng.random(dom.shape) < 0.4
    a = cube_averages(square_dec, F)
    assert np.all((a >= 0) & (a <= 1))
    si = smooth_indicator(square_dec, F, eval_level=8)
    dense = dense_smooth(square_dec, F, eval_level=8)
    assert_band_matches(si, dense)
    # u equals a_i at cube centers (psi_i = 1 there)
    for i in rng.choice(len(square_dec.cubes), 25, replace=False):
        q = square_dec.cubes[i]
        gx = int(float(q.center()[0]) / si.h_eval - si.grid_lo[0] / si.h_eval)
        gy = int(float(q.center()[1]) / si.h_eval - si.grid_lo[1] / si.h_eval)
        assert dense.u[gx, gy] == pytest.approx(a[i], abs=1e-12)


# -- capacity checker --------------------------------------------------------


def test_capacity_ramp_closed_form():
    # ramp over the middle half of the cube: slope 2/l on half the area,
    # integral = (2/l)^p * l^n / 2; precondition needs delta < 1/4
    m = 256
    x = (np.arange(m) + 0.5) / m
    X, _ = np.meshgrid(x, x, indexing="ij")
    f = np.clip((X - 0.25) * 2.0, 0.0, 1.0)
    p = 1.5
    rep = capacity_check(f, 1.0, 0.2, p)
    closed = 2.0**p / 2.0
    assert rep.energy == pytest.approx(closed, rel=0.02)
    assert rep.ratio == pytest.approx(closed / 0.2 ** ((2 - p) / 2), rel=0.02)
    assert rep.passed


def test_capacity_precondition():
    f = np.zeros((32, 32))
    with pytest.raises(PreconditionNotMet):
        capacity_check(f, 1.0, 0.25, 1.5)


def test_capacity_monte_carlo_floor():
    rng = np.random.default_rng(11)
    m = 64
    x = (np.arange(m) + 0.5) / m
    X, Y = np.meshgrid(x, x, indexing="ij")
    worst = math.inf
    trials = 0
    for _ in range(100):
        a, b = rng.uniform(1.0, 3.0, 2)
        phix, phiy = rng.uniform(0, 2 * np.pi, 2)
        g = np.sin(a * np.pi * X + phix) * np.sin(b * np.pi * Y + phiy)
        f = 0.5 + g  # crosses 0 and 1 on sizable sets
        low = np.mean(f <= 0)
        high = np.mean(f >= 1)
        delta = 0.9 * min(low, high)
        if delta <= 0.01:
            continue
        rep = capacity_check(f, 1.0, float(delta), 1.5)
        worst = min(worst, rep.ratio)
        trials += 1
    assert trials >= 50
    assert worst > 0.05


def test_figures_equal_view_and_run_loop_forms(ball_k7, ball_k7_dec):
    """whitney_svg from the cube boxes, and the mask figures from run edges,
    are byte-identical to the DyadicCube-view and per-cell-run forms."""
    slit = build_domain("slit_square", 6, margin=0.25)
    for dec in (ball_k7_dec, exterior_whitney(ball_k7, 8),
                whitney_decompose(slit, 7)):
        assert any(dec.levels > dec.domain.K)
        assert figio.whitney_svg(dec).tostring() == \
            whitney_svg_from_views(dec).tostring()
    rng = np.random.default_rng(2)
    for dom in (ball_k7, slit, build_domain("snowflake_approx", 6, margin=0.25)):
        assert figio.domain_svg(dom).tostring() == \
            domain_svg_by_runs(dom).tostring()
        layers = [(rng.random(dom.shape) < 0.5, "#1f77b4"),
                  (np.ones(dom.shape, bool), "#2ca02c"),
                  (np.zeros(dom.shape, bool), "#ff7f0e")]
        assert figio.sets_svg(dom, layers).tostring() == \
            sets_svg_by_runs(dom, layers).tostring()


def test_gradient_constant_equals_view_form(square_dec, ball_k7_dec):
    for dec in (square_dec, ball_k7_dec):
        pu = PartitionOfUnity(dec)
        got = pu.gradient_constant(max_cubes=80, seed=3)
        assert type(got) is float and got > 0.0
        assert got == gradient_constant_from_views(pu, max_cubes=80, seed=3)
