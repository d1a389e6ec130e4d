"""Exact Euclidean distance transform to the discrete boundary.

Distances are measured to boundary-face centroids.  Cell centers and face
centroids all live on the half-step lattice (units of h/2), so the transform
runs once on that doubled grid; squared distances are exact integers in
(h/2)^2 units and are kept for both cell centers and arbitrary face queries.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .domain import VoxelDomain


class DistanceField:
    def __init__(self, K: int, lo_int, d2_doubled: np.ndarray,
                 feature: np.ndarray | None = None):
        self.K = K
        self.lo_int = tuple(lo_int)
        self.d2_doubled = d2_doubled  # int64, over the (2N+1)^n doubled grid
        # feature[d] holds the d-coordinate (grid offset) of the nearest
        # boundary centroid per doubled-grid node
        self.feature = feature

    @property
    def n(self) -> int:
        return self.d2_doubled.ndim

    @property
    def h(self) -> float:
        return 2.0**-self.K

    @property
    def d2_int(self) -> np.ndarray:
        """Squared distances at cell centers, integer (h/2)^2 units."""
        centers = tuple(slice(1, None, 2) for _ in range(self.n))
        return self.d2_doubled[centers]

    @property
    def values(self) -> np.ndarray:
        """Distances at cell centers in absolute units."""
        return np.sqrt(self.d2_int.astype(np.float64)) * (self.h / 2.0)

    def d2_at_doubled(self, coords: np.ndarray) -> np.ndarray:
        """Exact squared distances at doubled-grid points (e.g. centroids)."""
        offs = np.asarray(coords, dtype=np.int64) - 2 * np.asarray(
            self.lo_int, dtype=np.int64
        )
        return self.d2_doubled[tuple(offs[:, d] for d in range(self.n))]


def distance_transform(dom: VoxelDomain) -> DistanceField:
    """Exact squared-distance field of a domain's discrete boundary."""
    if dom._dist is not None:
        return dom._dist
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
    field = DistanceField(dom.K, dom.lo_int, d2,
                          feature=nearest.astype(np.int32, copy=False))
    dom._dist = field
    return field


def brute_force_d2(dom: VoxelDomain) -> np.ndarray:
    """O(cells * faces) oracle for cell-center squared distances."""
    _, coords = dom.boundary_faces_doubled()
    n = dom.n
    axes = [
        2 * (np.arange(s) + dom.lo_int[d]) + 1 for d, s in enumerate(dom.mask.shape)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    best = None
    for row in coords:
        d2 = sum((g - int(c)) ** 2 for g, c in zip(grids, row))
        best = d2 if best is None else np.minimum(best, d2)
    return best.astype(np.int64)
