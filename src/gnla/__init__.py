"""Tanaka prolongation type of graded nilpotent Lie algebras.

Exact rational tools for deciding finite versus infinite type: the
prolongation iteration, rank 1 witness certificates with their minor
ideal Groebner backstop, special extensions and their degree 0
cohomology, and metabelian algebras built from skew matrix pencils.
"""

from .algebra import (
    GNLA,
    AdMatrix,
    ValidationReport,
    ad_matrix,
    bracket,
    center,
    change_basis,
    layer,
    quotient,
    validate,
)
from .certifier import (
    DecompositionResult,
    TypeVerdict,
    WitnessInvalid,
    classify,
    decompose_special_extension,
    minor_ideal,
    rank1_derivation_from_witness,
    rank1_in_span,
    rank1_witness,
    spencer_subspace_check,
)
from .cli import VERSION as __version__
from .cli import (
    DocumentError,
    DuplicateBracket,
    GradingViolation,
    Report,
    UnknownLabel,
    emit_report,
    parse_algebra,
    parse_cocycle,
    run,
    serialize_algebra,
    serialize_cocycle,
)
from .constructions import (
    CATALOG_NAMES,
    Cochain2,
    DegreeViolation,
    ElementaryH0,
    ExtensionData,
    JacobiViolation,
    NotGenerated,
    NotSkew,
    PencilForm,
    PencilSpec,
    algebra_from_pencil_spec,
    assemble_pencil,
    catalog,
    coboundary,
    det_pencil,
    h0_elementary,
    h2_0,
    metabelian_from_pencil,
    p_y_subspace,
    pencil_block,
    pfaffian,
    special_extension,
)
from .groebner import (
    CapExceeded,
    Polynomial,
    PolynomialIdeal,
    buchberger,
    grevlex_key,
    normal_form,
    only_trivial_zero,
)
from .linalg import (
    Matrix,
    MatrixSubspace,
    Subspace,
    frac,
    kernel_basis,
    solve,
    vector,
)
from .prolongation import (
    GradedMap,
    IterationVerdict,
    ProlongationLayer,
    classify_by_iteration,
    der0,
    h0,
    h0_as_graded_map,
    leibniz_failures,
    prolong_layer,
)

__all__ = [
    "GNLA", "AdMatrix", "ValidationReport", "ad_matrix", "bracket",
    "center", "change_basis", "layer", "quotient", "validate",
    "DecompositionResult", "TypeVerdict", "WitnessInvalid", "classify",
    "decompose_special_extension", "minor_ideal",
    "rank1_derivation_from_witness", "rank1_in_span", "rank1_witness",
    "spencer_subspace_check",
    "DocumentError", "DuplicateBracket", "GradingViolation", "Report",
    "UnknownLabel", "emit_report", "parse_algebra", "parse_cocycle", "run",
    "serialize_algebra", "serialize_cocycle",
    "CATALOG_NAMES", "Cochain2", "DegreeViolation", "ElementaryH0",
    "ExtensionData", "JacobiViolation", "NotGenerated", "NotSkew",
    "PencilForm", "PencilSpec", "algebra_from_pencil_spec",
    "assemble_pencil", "catalog", "coboundary", "det_pencil",
    "h0_elementary", "h2_0", "metabelian_from_pencil", "p_y_subspace",
    "pencil_block", "pfaffian", "special_extension",
    "CapExceeded", "Polynomial", "PolynomialIdeal", "buchberger",
    "grevlex_key", "normal_form", "only_trivial_zero",
    "Matrix", "MatrixSubspace", "Subspace", "frac", "kernel_basis", "solve",
    "vector",
    "GradedMap", "IterationVerdict", "ProlongationLayer",
    "classify_by_iteration", "der0", "h0",
    "h0_as_graded_map", "leibniz_failures", "prolong_layer",
    "__version__",
]
