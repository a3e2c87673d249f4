"""Exact certificates for rank-one transformations, of finite or infinite measure."""

from rankone.core import (
    Budget,
    BudgetExceeded,
    CapsMakeConstructionUnfaithful,
    NotStronglyArithmetic,
    PreconditionError,
    RankOneError,
    RankOneSpec,
    StageSpec,
    descendant_set,
    explicit_spec,
    sum_is_direct,
    sum_set,
)

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "BudgetExceeded",
    "CapsMakeConstructionUnfaithful",
    "NotStronglyArithmetic",
    "PreconditionError",
    "RankOneError",
    "RankOneSpec",
    "StageSpec",
    "descendant_set",
    "explicit_spec",
    "sum_is_direct",
    "sum_set",
    "__version__",
]
