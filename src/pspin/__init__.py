"""Exact TAP thermodynamics of spherical pure p-spin glasses plus a finite-N
Monte Carlo cross-check of the underlying Gaussian field."""

from .critical import (
    CriticalPoint,
    ResidualTriple,
    aux_a,
    p2_betac_residual,
    residuals_prop,
    solve_critical,
    solve_qc,
)
from .free_energy import (
    TapFunctionalSample,
    TapSolution,
    free_energy,
    lemma_bound_check,
    overlap_polynomial,
    solve_q_beta,
    sweep,
    t_pm,
    tap_functional,
    tap_value,
)
from .mixtures import e_infinity, eval_nu_derivs, shifted_total

__version__ = "0.1.0"

__all__ = [
    "CriticalPoint",
    "ResidualTriple",
    "TapFunctionalSample",
    "TapSolution",
    "aux_a",
    "e_infinity",
    "eval_nu_derivs",
    "free_energy",
    "lemma_bound_check",
    "overlap_polynomial",
    "p2_betac_residual",
    "residuals_prop",
    "shifted_total",
    "solve_critical",
    "solve_q_beta",
    "solve_qc",
    "sweep",
    "t_pm",
    "tap_functional",
    "tap_value",
    "__version__",
]
