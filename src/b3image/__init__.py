"""Exact finiteness classification for images of 3-strand braid group
representations of dimension 2 to 5, from the eigenvalues of one generator."""

from .errors import B3ImageError
from .exactfield import CycNumber, RootOfUnity
from .cyclolinalg import CycMatrix
from .repforms import (
    EigenSpec,
    ValidationReport,
    block_spec,
    build,
    build_d3,
    build_d4_block,
    validate_spec,
)
from .verdict import (
    FINITE,
    INFINITE,
    NOT_IRREDUCIBLE,
    UNDECIDABLE,
    ImprimitivePattern,
    Verdict,
    classify,
    classify_block_case,
    match_imprimitive_pattern,
    projective_order_of_spec,
)
from .grouporacle import (
    COMPLETED,
    EXCEEDED,
    ClosureResult,
    Word,
    check_relation,
    element_projective_order,
    projective_closure,
)
from .qgallery import (
    FAMILIES,
    ReproductionReport,
    build_so7,
    build_so9,
    expectation,
    qg_spec,
    reproduce,
)

__version__ = "0.1.0"

__all__ = [
    "B3ImageError",
    "CycNumber",
    "RootOfUnity",
    "CycMatrix",
    "EigenSpec",
    "ValidationReport",
    "block_spec",
    "build",
    "build_d3",
    "build_d4_block",
    "build_so7",
    "build_so9",
    "validate_spec",
    "FINITE",
    "INFINITE",
    "NOT_IRREDUCIBLE",
    "UNDECIDABLE",
    "ImprimitivePattern",
    "Verdict",
    "classify",
    "classify_block_case",
    "match_imprimitive_pattern",
    "projective_order_of_spec",
    "COMPLETED",
    "EXCEEDED",
    "ClosureResult",
    "Word",
    "check_relation",
    "element_projective_order",
    "projective_closure",
    "FAMILIES",
    "ReproductionReport",
    "expectation",
    "qg_spec",
    "reproduce",
    "__version__",
]
