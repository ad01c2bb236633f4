"""Exact-arithmetic toolkit for optimal quaternary (r, delta)-LRC codes.

Construction, verification and classification of the quaternary locally
recoverable codes that meet the Singleton-like bound
d = n - k + 1 - (ceil(k/r) - 1)(delta - 1) with equality, plus a local
erasure-repair simulator.  Everything is exact over GF(4); there are no
tolerances anywhere.
"""

from .code import CodeParams, LinearCode, hexacode, mds_feasible_q4, mds_weight_distribution
from .constructions import (
    BuiltCode,
    FamilySpec,
    blockwise_min_distance,
    build,
    catalog,
    family,
    verify_c17g_properties,
)
from .classify import enumerate_optimal_params
from .lrc import (
    LocalityProfile,
    LocalitySearch,
    OptimalityReport,
    check_structure,
    extract_profile,
    group_count_range,
    is_r_optimal,
    singleton_like_bound,
    verify_locality,
)
from .mat4 import Mat4
from .repair import ErasurePattern, encode, local_repair

__version__ = "0.1.0"

__all__ = [
    "BuiltCode",
    "CodeParams",
    "ErasurePattern",
    "FamilySpec",
    "LinearCode",
    "LocalityProfile",
    "LocalitySearch",
    "Mat4",
    "OptimalityReport",
    "blockwise_min_distance",
    "build",
    "catalog",
    "check_structure",
    "encode",
    "enumerate_optimal_params",
    "extract_profile",
    "family",
    "group_count_range",
    "hexacode",
    "is_r_optimal",
    "local_repair",
    "mds_feasible_q4",
    "mds_weight_distribution",
    "singleton_like_bound",
    "verify_c17g_properties",
    "verify_locality",
]
