"""Exact computation engine for the free boson on the sphere.

Correlators of derivative-field words, the reflection inner product with
Gram positivity checks, the occupation-basis dictionary, multi-disc
transition amplitudes, and truncated Hilbert-Schmidt sums with their
closed-form bound.  Everything runs on an exact scalar backend (Gaussian
rationals extended by square roots) or on floats.
"""
from . import scalars
from .algebra import (
    Insertion,
    LinearCombination,
    WickGroup,
    WickWord,
    d_coeff,
    d_table,
    rescale,
    theta,
    wick_expand,
)
from .amplitude import (
    Disc,
    DiscConfiguration,
    HSPartial,
    amplitude_entry,
    hs_bound,
    hs_truncated,
)
from .correlator import (
    KernelTable,
    expect_combo,
    mobius_check,
)
from .errors import (
    ConfigurationError,
    DomainError,
    EngineError,
    PoleError,
    RegimeError,
    ResourceError,
    SchemaError,
    StructuralError,
)
from .fock import (
    FockIndex,
    FockVector,
    fock_inner,
    ladder,
    wick_origin_to_fock,
)
from .hilbert import (
    GramReport,
    StateExpression,
    as_state,
    gram,
    inner,
    psd_check,
)
from .scalars import Exact, Scalar, as_scalar, rational, root
from .verify import SuiteResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "Disc",
    "DiscConfiguration",
    "DomainError",
    "EngineError",
    "Exact",
    "FockIndex",
    "FockVector",
    "GramReport",
    "HSPartial",
    "Insertion",
    "KernelTable",
    "LinearCombination",
    "PoleError",
    "RegimeError",
    "ResourceError",
    "Scalar",
    "SchemaError",
    "StateExpression",
    "StructuralError",
    "SuiteResult",
    "WickGroup",
    "WickWord",
    "amplitude_entry",
    "as_scalar",
    "as_state",
    "d_coeff",
    "d_table",
    "expect_combo",
    "fock_inner",
    "gram",
    "hs_bound",
    "hs_truncated",
    "inner",
    "ladder",
    "mobius_check",
    "psd_check",
    "rational",
    "rescale",
    "root",
    "run_suites",
    "scalars",
    "theta",
    "wick_expand",
    "wick_origin_to_fock",
]
