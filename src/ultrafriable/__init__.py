"""Exact counting and saddle-point estimation of ultrafriable integers.

An integer is y-ultrafriable when no prime power in its factorisation
exceeds y; such integers coprime to q are exactly the divisors of the
product of maximal prime powers p^nu_p <= y over p ∤ q.  The package
counts them exactly (globally, coprime to q, per residue class, twisted
by Dirichlet characters), solves the associated saddle-point equations,
and evaluates the asymptotic main terms with structured error budgets so
the two can be compared at desk scale.
"""

from .primes import (
    PrimePowerTable,
    ModulusContext,
    RegimeTag,
    build_table,
    modulus_context,
    classify_regime,
    tau_N,
    N_q,
    psi_q,
)
from .counting import (
    ResidueCounts,
    count_ultrafriable,
    count_ultrafriable_below,
    count_ultrafriable_residues,
    count_ultrafriable_progression,
    count_friable,
    count_friable_progression,
    character_sum,
    naive_oracle,
)
from .saddle import (
    SaddleResult,
    ArithmeticFactors,
    xi,
    solve_beta,
    solve_alpha,
    phi1,
    phi_j_q,
    log_Z_q,
    arithmetic_factors,
    gaussian_G,
)
from .characters import (
    DirichletCharacter,
    enumerate_characters,
    w_q,
    d_sum,
    s_sum,
    reconstruct_progression,
)
from .estimators import (
    ErrorBudget,
    EstimateBreakdown,
    ComparisonRecord,
    T3Diagnostic,
    error_budget,
    estimate_upsilon,
    estimate_upsilon_q,
    estimate_t2,
    estimate_progression,
    estimate_noncoprime,
    estimate,
    exact_count,
    t3_bound,
    compare,
)
from .errors import (
    UltrafriableError,
    DomainError,
    ResourceError,
    PreconditionError,
    RegimeError,
    NonCoprimeError,
    UnsupportedCaseError,
)

__version__ = "0.1.0"

__all__ = [
    "PrimePowerTable", "ModulusContext", "RegimeTag", "build_table",
    "modulus_context", "classify_regime", "tau_N", "N_q", "psi_q",
    "ResidueCounts", "count_ultrafriable", "count_ultrafriable_below",
    "count_ultrafriable_residues", "count_ultrafriable_progression", "count_friable",
    "count_friable_progression",
    "character_sum", "naive_oracle",
    "SaddleResult", "ArithmeticFactors", "xi", "solve_beta", "solve_alpha",
    "phi1", "phi_j_q", "log_Z_q", "arithmetic_factors", "gaussian_G",
    "DirichletCharacter", "enumerate_characters", "w_q", "d_sum", "s_sum",
    "reconstruct_progression",
    "ErrorBudget", "EstimateBreakdown", "ComparisonRecord", "T3Diagnostic",
    "error_budget", "estimate_upsilon", "estimate_upsilon_q", "estimate_t2",
    "estimate_progression", "estimate_noncoprime", "estimate", "exact_count", "t3_bound",
    "compare",
    "UltrafriableError", "DomainError", "ResourceError", "PreconditionError",
    "RegimeError", "NonCoprimeError", "UnsupportedCaseError",
]
