"""Exact-arithmetic engine for toric Mori dream spaces.

Cone calculus on simplicial projective toric varieties, the Mori chamber
atlas with all small modifications, Mori programs for arbitrary divisors,
rational contraction and non-movable divisor classification, and bound
audits on smooth toric Fano 4-folds.
"""

from .catalog import CATALOG, get, names, parse_fan_text, write_fan_text
from .errors import (
    CapOverflowError,
    FalsificationAlarm,
    InternalError,
    ToricError,
    UsageError,
    ValidationError,
)
from .fan import (
    ExtremalRay,
    Fan,
    Wall,
    build_fan,
    extremal_rays,
    product,
    star_subdivision,
    walls,
)
from .fano import (
    BoundsReport,
    ClassificationResult,
    DivisorProfile,
    ExceptionalLocusReport,
    audit_bounds,
    c_invariant,
    classify_nonmovable_divisor,
    detect_exceptional_loci,
    divisor_profiles,
    n1_dimension,
)
from .mdscones import (
    ChamberAtlas,
    ConeInventory,
    QuasiElementaryResult,
    RationalContractionDescriptor,
    chamber_atlas,
    cone_inventory,
    compose_quasi_elementary,
    is_quasi_elementary,
    nonmovable_prime_divisors,
    rational_contractions,
    target_model,
)
from .mmp import (
    MoriResult,
    MoriStep,
    run_mori_program,
    trace_text,
)

__all__ = [
    "CATALOG",
    "CapOverflowError",
    "ChamberAtlas",
    "ClassificationResult",
    "BoundsReport",
    "ConeInventory",
    "DivisorProfile",
    "ExceptionalLocusReport",
    "ExtremalRay",
    "FalsificationAlarm",
    "Fan",
    "InternalError",
    "MoriResult",
    "MoriStep",
    "QuasiElementaryResult",
    "RationalContractionDescriptor",
    "ToricError",
    "UsageError",
    "ValidationError",
    "Wall",
    "audit_bounds",
    "build_fan",
    "c_invariant",
    "chamber_atlas",
    "classify_nonmovable_divisor",
    "compose_quasi_elementary",
    "cone_inventory",
    "detect_exceptional_loci",
    "divisor_profiles",
    "extremal_rays",
    "get",
    "is_quasi_elementary",
    "n1_dimension",
    "names",
    "nonmovable_prime_divisors",
    "parse_fan_text",
    "product",
    "rational_contractions",
    "run_mori_program",
    "star_subdivision",
    "target_model",
    "trace_text",
    "walls",
    "write_fan_text",
]
