"""Distance oracles, kept as references for `sobex.distance`.

`brute_force_d2` and `brute_force_d2_doubled` minimize over every boundary
face centroid; `reference_field` is the int64/int32 construction the field
was built with before it moved to int32 distances and int16 features.
`cell_d2` and `cell_values` read a field's full-grid lattice at every cell
centre, as the field's dense reads did before they moved to side windows.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage


def _min_d2(grids, coords) -> np.ndarray:
    best = None
    for row in coords:
        d2 = sum((g - int(c)) ** 2 for g, c in zip(grids, row))
        best = d2 if best is None else np.minimum(best, d2)
    return best.astype(np.int64)


def cell_d2(field) -> np.ndarray:
    """int32 squared distances at every cell centre, (h/2)^2 units."""
    return field.d2_doubled[tuple(slice(1, None, 2) for _ in range(field.n))]


def cell_values(field) -> np.ndarray:
    """Distances in absolute units at every cell centre, square root first."""
    return np.sqrt(cell_d2(field).astype(np.float64)) * (field.h / 2.0)


def brute_force_d2(dom) -> np.ndarray:
    """O(cells * faces) oracle for cell-center squared distances."""
    _, coords = dom.boundary_faces_doubled()
    axes = [
        2 * (np.arange(s) + dom.lo_int[d]) + 1 for d, s in enumerate(dom.mask.shape)
    ]
    return _min_d2(np.meshgrid(*axes, indexing="ij"), coords)


def brute_force_d2_doubled(dom) -> np.ndarray:
    """O(nodes * faces) oracle for the squared distance at every node of
    the doubled lattice, centroids and cell corners included."""
    _, coords = dom.boundary_faces_doubled()
    axes = [
        np.arange(2 * s + 1) + 2 * dom.lo_int[d]
        for d, s in enumerate(dom.mask.shape)
    ]
    return _min_d2(np.meshgrid(*axes, indexing="ij"), coords)


def reference_field(dom) -> tuple[np.ndarray, np.ndarray]:
    """(int64 d2_doubled, int32 feature) by the int64 construction."""
    _, coords = dom.boundary_faces_doubled()
    n = dom.n
    shape2 = tuple(2 * s + 1 for s in dom.mask.shape)
    sites = np.ones(shape2, dtype=bool)
    offs = coords - 2 * np.asarray(dom.lo_int, dtype=np.int64)
    sites[tuple(offs[:, d] for d in range(n))] = False
    nearest = ndimage.distance_transform_edt(
        sites, return_distances=False, return_indices=True
    )
    d2 = np.zeros(shape2, dtype=np.int64)
    for d in range(n):
        ax = np.arange(shape2[d], dtype=np.int64).reshape(
            tuple(-1 if a == d else 1 for a in range(n))
        )
        diff = ax - nearest[d].astype(np.int64)
        d2 += diff * diff
    return d2, nearest.astype(np.int32, copy=False)
