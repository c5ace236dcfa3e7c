"""Exact intersection-theory calculator for determinantal hypersurfaces.

Given an ambient projective space (or product of projective spaces), two split
vector bundles of equal rank, and optionally a polarization, the package
computes the invariants of the hypersurface where a generic morphism between
the bundles drops rank: on fourfold ambients the degree of its singular locus
and the count of its ordinary double points, its intersection-homology Euler
characteristic, the Euler characteristic of its small resolution, and
intersection numbers on that resolution.  All arithmetic is exact.
"""

from .bundles import BundleSpec, VirtualPair
from .chow import product_of_projective_spaces, projective_space
from .invariants import (
    ConsistencyError,
    GuardError,
    Instance,
    InvariantReport,
    build_report,
)

__version__ = "0.1.0"

__all__ = [
    "BundleSpec",
    "ConsistencyError",
    "GuardError",
    "Instance",
    "InvariantReport",
    "VirtualPair",
    "build_report",
    "product_of_projective_spaces",
    "projective_space",
]
