"""limprof: exact accumulation-point profiles of step sequences.

Bounded sequences that take finitely many values on an infinite partition of
the indices have a finite set of accumulation points; rational combinations of
such sequences do too. This package computes, constructs, refutes, and
certifies the achievable accumulation-point counts — exactly, over Fraction
arithmetic — and ships a numeric lab for the concrete index-set realizations.
"""

__version__ = "0.1.0"

from .builders import (
    GenericVectorFamily,
    IndependentFamily,
    PolygonSpace,
    SpaceableFamily,
    generic_vectors,
    independent_family,
    interval_space,
    nonconvergent_span,
    odd_space,
    polygon_space,
    spaceable_rows,
    value_ladder,
)
from .certificates import (
    Certificate,
    build_escape_certificate,
    build_independent_certificate,
    build_interval_certificate,
    build_odd_certificate,
    build_polygon_certificate,
    build_refute_certificate,
    build_spaceable_certificate,
    canonical_json,
    verify_certificate,
)
from .engine import (
    MultiplicityProfile,
    NestingVerdict,
    RefutationWitness,
    collapse,
    matrix_from_json,
    matrix_to_json,
    merge_columns,
    multiplicity,
    nesting_check,
    profile,
    refute_interval,
    sample_profile,
    separation_radius,
)
from .errors import (
    BadRelationError,
    CollinearError,
    DegenerateError,
    DuplicateColumnsError,
    EmptyInputError,
    InternalError,
    LimprofError,
    RangeError,
    ShapeError,
    TooFewRowsError,
    TooLargeError,
    UnavoidableError,
    ZeroDirectionError,
)
from .geometry import (
    Direction,
    EscapeWitness,
    PointConfig,
    approx_direction_census,
    approx_regular_polygon,
    collinear,
    direction_classes,
    escape,
    pair_directions,
    pinchasi_search,
)
from .kernel import (
    AffineSubspace,
    RatMatrix,
    generic_point,
    integer_tuples,
    normalize_primitive,
    nullspace,
    rat,
    rat_str,
    solve_affine,
    vec,
)
from .lab import (
    AtomRealization,
    ClusterEstimate,
    HSequenceReport,
    PrefixSequence,
    cantor_unpair,
    combo_values,
    estimate_clusters,
    gen_combo,
    gen_fq,
    gen_rich,
    gen_spaceable,
    h_sequence,
    realize_atoms,
)
from .rationals import calkin_wilf, first_unit_rationals, unit_rationals
from .sequences import (
    Atom,
    InfinitudeRelation,
    StepSequence,
    SymbolicPartition,
    canonicalize,
    combine,
    step_sequence,
)

__all__ = [
    "__version__",
    # kernel
    "AffineSubspace", "RatMatrix", "generic_point", "integer_tuples",
    "normalize_primitive", "nullspace", "rat", "rat_str", "solve_affine", "vec",
    # sequences
    "Atom", "InfinitudeRelation", "StepSequence", "SymbolicPartition",
    "canonicalize", "combine", "step_sequence",
    # engine
    "MultiplicityProfile", "NestingVerdict", "RefutationWitness", "collapse",
    "matrix_from_json", "matrix_to_json", "merge_columns", "multiplicity",
    "nesting_check", "profile", "refute_interval", "sample_profile",
    "separation_radius",
    # geometry
    "Direction", "EscapeWitness", "PointConfig", "approx_direction_census",
    "approx_regular_polygon", "collinear", "direction_classes", "escape",
    "pair_directions", "pinchasi_search",
    # rationals
    "calkin_wilf", "first_unit_rationals", "unit_rationals",
    # builders
    "GenericVectorFamily", "IndependentFamily", "PolygonSpace",
    "SpaceableFamily", "generic_vectors", "independent_family",
    "interval_space", "nonconvergent_span", "odd_space", "polygon_space",
    "spaceable_rows", "value_ladder",
    # lab
    "AtomRealization", "ClusterEstimate", "HSequenceReport", "PrefixSequence",
    "cantor_unpair", "combo_values", "estimate_clusters", "gen_combo",
    "gen_fq", "gen_rich", "gen_spaceable", "h_sequence", "realize_atoms",
    # certificates
    "Certificate", "build_escape_certificate", "build_independent_certificate",
    "build_interval_certificate", "build_odd_certificate",
    "build_polygon_certificate", "build_refute_certificate",
    "build_spaceable_certificate", "canonical_json", "verify_certificate",
    # errors
    "BadRelationError", "CollinearError", "DegenerateError",
    "DuplicateColumnsError", "EmptyInputError", "InternalError", "LimprofError",
    "RangeError", "ShapeError", "TooFewRowsError", "TooLargeError",
    "UnavoidableError", "ZeroDirectionError",
]
