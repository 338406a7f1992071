"""Exact hypergraph / CW-hypergraph Laplacians and walk counting.

Everything here is exact integer work and needs only the standard library.
numpy is loaded only by `hyperlap.evolve`, and that module is imported on
the first access to one of its three functions, `evolution_operator`,
`evolve_state` and `partition_trace`.
"""

from .model import (
    CWHypergraph,
    Hypergraph,
    HyperlapError,
    ValidationReport,
    project_hypergraph,
    validate,
)
from .laplacian import (
    ExactMatrix,
    cw_laplacian,
    d_incidence,
    hypergraph_laplacian,
    incidence,
    susy_laplacian,
)
from .walkcount import CountResult, WalkQuery, count_walks, matrix_power, signed_count
from .enumeration import (
    BudgetExceededError,
    CrossCheckReport,
    Walk,
    cross_check,
    enum_signed_walks,
    enum_walks,
    walk_sign,
)
from .formats import ParseError, builtin_fixture, parse_cw, parse_hg, serialize

__all__ = [
    "BudgetExceededError",
    "CountResult",
    "CrossCheckReport",
    "CWHypergraph",
    "ExactMatrix",
    "Hypergraph",
    "HyperlapError",
    "ParseError",
    "ValidationReport",
    "Walk",
    "WalkQuery",
    "builtin_fixture",
    "count_walks",
    "cross_check",
    "cw_laplacian",
    "d_incidence",
    "enum_signed_walks",
    "enum_walks",
    "evolution_operator",
    "evolve_state",
    "hypergraph_laplacian",
    "incidence",
    "matrix_power",
    "parse_cw",
    "parse_hg",
    "partition_trace",
    "project_hypergraph",
    "serialize",
    "signed_count",
    "susy_laplacian",
    "validate",
    "walk_sign",
]

_EVOLVE = ("evolution_operator", "evolve_state", "partition_trace")


def __getattr__(name):
    if name in _EVOLVE:
        from . import evolve

        return getattr(evolve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
