"""The dense smoothing evaluator, kept as the oracle for the band.

It evaluates u = sum_i psi_i a_i on every cell of the bounding evaluation
grid, cube by cube in ascending id, exactly as `smooth_indicator` did before
it was restricted to the band, and sums the gradient energy with math.fsum.
`generator_energy` is the band energy as `gradient_energy` summed it before
it fed fsum a list per chunk: one generator step per band cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from sobex.whitney import _bump, _cube_boxes, cube_averages, gradient_energy


@dataclass
class DenseSmoothing:
    a: np.ndarray
    h_eval: float
    grid_lo: tuple[float, ...]
    u: np.ndarray            # the full grid
    grad: np.ndarray         # (n, ...) np.gradient of u
    covered: np.ndarray
    grad_valid: np.ndarray   # covered, eroded by the axis stencil


def dense_smooth(dec, F_mask, eval_level=None) -> DenseSmoothing:
    n = dec.domain.n
    a = cube_averages(dec, F_mask)
    if eval_level is None:
        eval_level = dec.min_side_level() + 3
    h_eval = 2.0**-eval_level
    boxes, radii = _cube_boxes(dec)
    lo = np.floor(boxes[:, :n].min(axis=0) / h_eval).astype(int) - 2
    hi = np.ceil(boxes[:, n:].max(axis=0) / h_eval).astype(int) + 2
    shape = tuple(int(v) for v in hi - lo)
    axes = [(np.arange(s) + lo[d] + 0.5) * h_eval for d, s in enumerate(shape)]
    num = np.zeros(shape)
    den = np.zeros(shape)
    i0 = [np.searchsorted(axes[d], boxes[:, d] - radii) for d in range(n)]
    i1 = [np.searchsorted(axes[d], boxes[:, n + d] + radii) for d in range(n)]
    for i in range(len(boxes)):
        sel = tuple(slice(i0[d][i], i1[d][i]) for d in range(n))
        sub = [axes[d][sel[d]] for d in range(n)]
        if any(s.size == 0 for s in sub):
            continue
        phi = _bump(boxes[i], radii[i], np.ix_(*sub))
        num[sel] += a[i] * phi
        den[sel] += phi
    covered = den > 0.0
    u = np.where(covered, num / np.where(covered, den, 1.0), 0.0)
    grad = np.stack(np.gradient(u, h_eval), axis=0)
    structure = ndimage.generate_binary_structure(n, 1)
    grad_valid = ndimage.binary_erosion(covered, structure=structure)
    return DenseSmoothing(a, h_eval, tuple(float(v) * h_eval for v in lo),
                          u, grad, covered, grad_valid)


def dense_energy(ds: DenseSmoothing, p: float) -> float:
    g2 = np.zeros(ds.u.shape)
    for d in range(ds.grad.shape[0]):
        g2 += ds.grad[d] ** 2
    vals = g2[ds.grad_valid] ** (p / 2.0)
    return math.fsum(vals.tolist()) * ds.h_eval ** ds.u.ndim


def generator_energy(si, p: float, chunk: int = 2**16) -> float:
    def terms():
        for p0 in range(0, len(si.u), chunk):
            sl = slice(p0, p0 + chunk)
            g2 = np.zeros(len(si.u[sl]))
            for d in range(len(si.grad)):
                g2 += si.grad[d, sl] ** 2
            vals = g2[si.grad_valid[sl]] ** (p / 2.0)
            yield from vals[vals > 0.0].tolist()
    return math.fsum(terms()) * si.h_eval ** len(si.grad)


def assert_band_matches(si, ds: DenseSmoothing, ps=(1.25, 1.5, 1.75)):
    """The band equals the dense grid bit for bit on its cells, u is exactly
    0.0 or 1.0 off it with a zero gradient on every valid stencil there, and
    the fsum energies are equal."""
    assert si.shape == ds.u.shape
    assert si.grid_lo == ds.grid_lo and si.h_eval == ds.h_eval
    assert np.array_equal(si.a, ds.a)
    assert np.all(np.diff(si.flat) > 0)
    at = np.unravel_index(si.flat, si.shape)
    assert np.array_equal(si.u.view(np.uint64), ds.u[at].view(np.uint64))
    assert np.array_equal(si.covered, ds.covered[at])
    # valid on the band wherever its stencil lies in the band
    assert not np.any(si.grad_valid & ~ds.grad_valid[at])
    for d in range(len(si.grad)):
        band = si.grad[d][si.grad_valid]
        dense = ds.grad[d][at][si.grad_valid]
        assert np.array_equal(band.view(np.uint64), dense.view(np.uint64))
    off = np.ones(si.shape, dtype=bool)
    off[at] = False
    assert np.all((ds.u[off] == 0.0) | (ds.u[off] == 1.0))
    assert np.all(ds.grad[:, off & ds.grad_valid] == 0.0)
    for p in ps:
        assert gradient_energy(si, p) == dense_energy(ds, p)
