"""The narrow-band smoothing against the dense oracle, and its budget."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobex import whitney
from sobex.domain import build_domain
from sobex.errors import PreconditionNotMet
from sobex.whitney import (
    SMOOTH_BUDGET_BYTES,
    _paint_level,
    _per_level,
    gradient_energy,
    smooth_indicator,
    whitney_decompose,
)

from dense_smoothing import assert_band_matches, dense_smooth, generator_energy

_CASES = {
    "disk": (("ball", 4), dict(r=0.5, margin=Fraction(1, 2)), 5),
    "slit": (("slit_square", 4), dict(slit_len=0.5), 5),
    "ball3": (("ball", 4), dict(r=0.5, dim=3), 4),
}


@functools.lru_cache(maxsize=None)
def _decomposition(case):
    args, kw, L_max = _CASES[case]
    return whitney_decompose(build_domain(*args, **kw), L_max)


def _random_set(dec, seed, density, cube_union):
    """Random cells (fractional cube averages), or a union of randomly
    chosen cubes (averages 0 or 1, as for A')."""
    dom = dec.domain
    rng = np.random.default_rng(seed)
    if not cube_union:
        return rng.random(dom.shape) < density
    F = np.zeros(dom.shape, bool)
    for k, pos, idx in _per_level(dec):
        _paint_level(F, dom, k, idx[rng.random(len(pos)) < density])
    return F


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(["disk", "slit"]),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.0, 1.0),
    cube_union=st.booleans(),
    # the default evaluation level is finest + 3; coarser grids leave
    # adjacent supports without a common cell
    offset=st.integers(-1, 3),
)
def test_band_matches_dense_2d(case, seed, density, cube_union, offset):
    dec = _decomposition(case)
    F = _random_set(dec, seed, density, cube_union)
    level = dec.min_side_level() + offset
    assert_band_matches(smooth_indicator(dec, F, eval_level=level),
                        dense_smooth(dec, F, eval_level=level))


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.0, 1.0),
    cube_union=st.booleans(),
    offset=st.integers(0, 2),
)
def test_band_matches_dense_3d(seed, density, cube_union, offset):
    dec = _decomposition("ball3")
    F = _random_set(dec, seed, density, cube_union)
    level = dec.min_side_level() + offset
    assert_band_matches(smooth_indicator(dec, F, eval_level=level),
                        dense_smooth(dec, F, eval_level=level))


def _left_half(dom):
    x = dom.cell_centers()[0].reshape((-1,) + (1,) * (dom.n - 1))
    return np.broadcast_to(x < 0.5, dom.shape) & dom.mask


def test_band_matches_dense_at_default_level():
    dec = _decomposition("ball3")
    F = _left_half(dec.domain)
    si = smooth_indicator(dec, F)
    assert si.h_eval == 2.0 ** -(dec.min_side_level() + 3)
    assert_band_matches(si, dense_smooth(dec, F))
    assert 0 < len(si.u) < math.prod(si.shape) / 4


@pytest.mark.parametrize("chunk", [1, 7, 1000, 2**16])
def test_energy_chunks_match_one_generator_fsum(monkeypatch, chunk):
    """The list-per-chunk fsum is the cell-by-cell fsum, bit for bit, for
    any chunk size, including chunks that split the band unevenly."""
    dec = _decomposition("ball3")
    si = smooth_indicator(dec, _left_half(dec.domain))
    monkeypatch.setattr(whitney, "_BAND_CHUNK", chunk)
    for p in (1.25, 1.5, 1.75):
        assert gradient_energy(si, p) == generator_energy(si, p)


def test_band_runs_where_the_dense_grid_is_over_budget():
    dom = build_domain("ball", 7, r=0.5, margin=2)
    W = whitney_decompose(dom, 7)
    F = _left_half(dom)
    si = smooth_indicator(W, F, eval_level=14)
    # the dense grid's num, den, u, gradient and masks would not fit
    assert math.prod(si.shape) * (8 * (3 + dom.n) + 2) > SMOOTH_BUDGET_BYTES
    assert len(si.u) < math.prod(si.shape) / 50
    assert np.all((si.u >= 0.0) & (si.u <= 1.0))
    # the energy converges as the evaluation grid refines
    e14 = gradient_energy(si, 1.5)
    e13 = gradient_energy(smooth_indicator(W, F, eval_level=13), 1.5)
    assert 0.0 < e13 < e14 < 1.01 * e13


def test_band_budget_refuses_before_allocating():
    dom = build_domain("ball", 7, r=0.5, margin=2)
    W = whitney_decompose(dom, 7)
    F = _left_half(dom)
    # a 2^30-per-axis grid can be indexed, but its band rows cannot be held
    with pytest.raises(PreconditionNotMet, match="band .* budget"):
        smooth_indicator(W, F, eval_level=30)
