"""Voxel-grid experiments for extension-domain geometry."""

from .config import __version__
from .domain import GeneratorSpec, VoxelDomain, build_domain
from .distance import DistanceField, distance_transform
from .dyadic import DyadicCube
from .cantor import CantorTubeSpec, build_cantor_tube
from .whitney import (
    PartitionOfUnity,
    WhitneyDecomposition,
    audit_whitney,
    capacity_check,
    exterior_whitney,
    smooth_indicator,
    whitney_decompose,
)
from .perimeter import (
    BoundaryFaceSet,
    VoxelSet,
    boundary_faces,
    density_profile,
    isoperimetric_check,
    jordan_loops,
    perimeter,
    weighted_boundary_integral,
)
from .extension import (
    ExtensionParams,
    ExtensionResult,
    InequalityReport,
    extend_set,
    select_A0,
    select_A_prime,
    verify_lemma_31,
    verify_lemma_32,
    verify_lemma_33,
    verify_lemma_34,
)
from .curves import (
    CurveConditionReport,
    GeodesicPath,
    GeodesicSolver,
    cig_check,
    curve_condition_scan,
    john_check,
    weighted_geodesic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
