"""Exact intersection-theory calculator for determinantal hypersurfaces.

Given an ambient projective space (or product of projective spaces), two
split vector bundles of equal rank, and optionally a polarization, the
package computes the invariants of the hypersurface where a generic
morphism between the bundles drops rank: the degree of its singular locus,
the count of its ordinary double points, its intersection-homology Euler
characteristic, the Euler characteristic of its small resolution, and
intersection numbers on that resolution.  All arithmetic is exact.
"""

from .bundles import BundleSpec, VirtualPair
from .chow import (
    AmbientSpace,
    ChowClass,
    product_of_projective_spaces,
    proj_bundle,
    projective_space,
)
from .invariants import (
    C2Pairings,
    ConsistencyError,
    EulerNumbers,
    GuardError,
    Instance,
    InvariantReport,
    build_report,
    c2_numbers,
    euler_numbers,
    euler_smooth_hypersurface,
    ih_milnor_number_small_dim,
    intersection_numbers,
    porteous_class,
    porteous_degree,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientSpace",
    "BundleSpec",
    "C2Pairings",
    "ChowClass",
    "ConsistencyError",
    "EulerNumbers",
    "GuardError",
    "Instance",
    "InvariantReport",
    "VirtualPair",
    "build_report",
    "c2_numbers",
    "euler_numbers",
    "euler_smooth_hypersurface",
    "ih_milnor_number_small_dim",
    "intersection_numbers",
    "porteous_class",
    "porteous_degree",
    "product_of_projective_spaces",
    "proj_bundle",
    "projective_space",
]
