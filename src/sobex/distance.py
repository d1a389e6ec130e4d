"""Exact Euclidean distance transform to the discrete boundary.

Distances are measured to boundary-face centroids.  Cell centers and face
centroids all live on the half-step lattice (units of h/2), so the transform
runs once on that doubled grid; squared distances are exact integers in
(h/2)^2 units and are kept for both cell centers and arbitrary face queries.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from .domain import VoxelDomain
from .errors import PreconditionNotMet

# Lattices whose transform would peak above this are refused before any
# allocation (the same 4 GiB as whitney.SMOOTH_BUDGET_BYTES).
EDT_BUDGET_BYTES = 4 * 2**30


class DistanceField:
    def __init__(self, K: int, lo_int, d2_doubled: np.ndarray,
                 feature: np.ndarray):
        self.K = K
        self.lo_int = tuple(lo_int)
        self.d2_doubled = d2_doubled  # int32, over the (2N+1)^n doubled grid
        # feature[d] holds the d-coordinate (grid offset) of the nearest
        # boundary centroid per doubled-grid node: int16 when every lattice
        # axis has fewer than 2^15 nodes, int32 otherwise
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
        return self.values_at(...)

    def values_at(self, index) -> np.ndarray:
        """Distances in absolute units at the cell centers that `index` (a
        bool mask or index arrays into the cell grid) selects; equal to
        `values[index]` bit for bit, without the full-grid square root."""
        return np.sqrt(self.d2_int[index].astype(np.float64)) * (self.h / 2.0)

    def d2_at_doubled(self, coords: np.ndarray) -> np.ndarray:
        """Exact squared distances at doubled-grid points (e.g. centroids)."""
        offs = np.asarray(coords, dtype=np.int64) - 2 * np.asarray(
            self.lo_int, dtype=np.int64
        )
        return self.d2_doubled[tuple(offs[:, d] for d in range(self.n))]


def _peak_bytes_per_node(n: int, narrow: bool) -> int:
    """Peak bytes per lattice node held by `distance_transform`, the
    largest over its phases; `narrow` means int16 features."""
    # inside scipy: the site mask, np.where's int64 copy of it and the int8
    # cast of that, then the site mask, the int8 input and the int32 indices
    scipy = max(1 + 8 + 1, 2 + 4 * n)
    # then the int32 indices and their int16 cast (narrow), or the int32
    # indices kept as features, d2 and at most 4 B of slab temporaries
    return max(scipy, 6 * n if narrow else 4 * n + 8)


def _check_lattice(shape2: tuple[int, ...], narrow: bool) -> None:
    need = math.prod(shape2) * _peak_bytes_per_node(len(shape2), narrow)
    if need > EDT_BUDGET_BYTES:
        raise PreconditionNotMet(
            f"distance lattice {shape2} needs {need / 2**30:.3g} GiB, over "
            f"the {EDT_BUDGET_BYTES / 2**30:g} GiB budget")
    # the largest squared distance two lattice nodes can have
    if sum((s - 1) ** 2 for s in shape2) >= 2**31:
        raise PreconditionNotMet(
            f"distance lattice {shape2} is too long for int32 squared "
            "distances")


def distance_transform(dom: VoxelDomain) -> DistanceField:
    """Exact squared-distance field of a domain's discrete boundary.

    Lattices over EDT_BUDGET_BYTES, or too long for int32 squared
    distances, raise PreconditionNotMet before anything is allocated."""
    if dom._dist is not None:
        return dom._dist
    n = dom.n
    shape2 = tuple(2 * s + 1 for s in dom.mask.shape)
    narrow = max(shape2) < 2**15
    _check_lattice(shape2, narrow)
    _, coords = dom.boundary_faces_doubled()
    sites = np.ones(shape2, dtype=bool)
    offs = coords - 2 * np.asarray(dom.lo_int, dtype=np.int64)
    sites[tuple(offs[:, d] for d in range(n))] = False
    feature = ndimage.distance_transform_edt(
        sites, return_distances=False, return_indices=True
    )
    del sites
    if narrow:
        feature = feature.astype(np.int16)
    # square and add per axis a slab of about 2^18 nodes at a time: no int64
    # and no full-size temporaries
    d2 = np.empty(shape2, dtype=np.int32)
    axes = [np.arange(s, dtype=np.int32).reshape(
        tuple(-1 if a == d else 1 for a in range(n)))
        for d, s in enumerate(shape2)]
    step = max(1, 2**18 * shape2[0] // d2.size)
    for i in range(0, shape2[0], step):
        rows = slice(i, i + step)
        gap = axes[0][rows] - feature[0][rows]
        np.multiply(gap, gap, out=d2[rows])
        for d in range(1, n):
            gap = axes[d] - feature[d][rows]
            d2[rows] += gap * gap
    field = DistanceField(dom.K, dom.lo_int, d2, feature)
    dom._dist = field
    return field
