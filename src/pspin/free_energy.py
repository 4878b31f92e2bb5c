"""Free energy of the pure p-spin model at every inverse temperature.

Below the critical temperature the free energy is the replica-symmetric value
beta^2 nu(1)/2.  Above it, the dominant overlap q_beta is the larger root of
beta q^(p/2-1)(1-q) = t_minus in (ell, 1) with ell = (p-2)/p, where t_minus is
the smaller root of the quadratic p(p-1)t^2 - p e_star t + 1 = 0, and the free
energy follows from the TAP value at q_beta.  The 2-spin model has closed
forms for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .critical import Q_CAP, solve_critical
from .mixtures import e_infinity, eval_nu_derivs, shifted_total
from .roots import bisect_root

# branch labels recorded by free_energy()/sweep()
BRANCH_RS = "rs"            # replica-symmetric value, beta < beta_c
BRANCH_CRITICAL = "critical"  # exactly at beta_c (q_beta = q_c tie-break)
BRANCH_TAP = "tap"          # TAP value at q_beta, beta > beta_c


@dataclass(frozen=True)
class TapSolution:
    p: int
    beta: float
    q_beta: float
    t_minus: float
    free_energy: float
    branch: str


@dataclass(frozen=True)
class TapFunctionalSample:
    q: float
    g_value: float
    g_derivative: float


def t_pm(p: int, e_star: float) -> tuple[float, float]:
    """Both roots of p(p-1)t^2 - p e_star t + 1 = 0, ascending.

    The larger root is computed by the standard stable formula and the smaller
    recovered from the product identity t_minus t_plus = 1/(p(p-1)), so neither
    suffers cancellation.  A discriminant within 1e-14 of zero collapses to the
    double root 1/sqrt(p(p-1)).
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    e_inf = e_infinity(p)
    ratio = e_star / e_inf
    disc = ratio * ratio - 1.0
    if disc < 0.0:
        if disc < -1e-14:
            raise ValueError(
                f"e_star={e_star} below the threshold e_inf={e_inf}: no real roots"
            )
        disc = 0.0
    scale = 1.0 / math.sqrt(p * (p - 1))
    t_plus = scale * (ratio + math.sqrt(disc))
    t_minus = 1.0 / (p * (p - 1) * t_plus)
    return t_minus, t_plus


def overlap_polynomial(p: int, q: float) -> float:
    """f(q) = q^(p/2-1)(1-q): zero at both endpoints, peaked at ell=(p-2)/p."""
    return q ** (p / 2.0 - 1.0) * (1.0 - q)


def solve_q_beta(p: int, beta: float) -> float:
    """Larger root of f(q) = t_minus/beta on [ell, 1), for beta >= beta_c.

    t_minus and beta_c follow from ``solve_critical(p)``.  f falls from its
    peak f(ell) to f(1) = 0 there, so bisection from ell is safe at every p;
    at p = 2, ell = 0 and f(0) = 1.  A target above the peak, as rounding
    gives at p = 2 and beta_c (t_minus/beta_c = 1 + 2^-52), is clamped to
    it, and the root is ell.
    """
    cp = solve_critical(p)
    if beta < cp.beta_c:
        raise ValueError(f"beta={beta} below beta_c={cp.beta_c}; no shifted overlap")
    ell = (p - 2) / p
    target = min(t_pm(p, cp.e_star)[0] / beta, overlap_polynomial(p, ell))
    return bisect_root(lambda q: overlap_polynomial(p, q) - target, ell, Q_CAP)


def tap_value(p: int, beta: float, e_star: float, q: float) -> float:
    """beta e_star q^(p/2) + log(1-q)/2 + Onsager value at q."""
    return (beta * e_star * q ** (p / 2.0)
            + 0.5 * math.log1p(-q)
            + 0.5 * beta * beta * shifted_total(p, q))


def free_energy(p: int, beta: float) -> TapSolution:
    """Free energy and dominant overlap at inverse temperature beta.

    Above beta_c every p >= 2 takes the same path: q_beta from
    ``solve_q_beta``, then F from ``tap_value``.  The critical temperature
    itself is reported on its own branch with q_beta = q_c (the largest
    overlap consistent with the critical value), at which the TAP value
    coincides with beta^2 nu(1)/2 anyway.
    """
    if not math.isfinite(beta) or beta < 0.0:
        raise ValueError(f"beta must be finite and nonnegative, got {beta}")
    cp = solve_critical(p)
    t_minus, _ = t_pm(p, cp.e_star)

    if beta < cp.beta_c:
        f = 0.5 * beta * beta
        return TapSolution(p, beta, 0.0, t_minus, f, BRANCH_RS)
    if beta == cp.beta_c:
        f = 0.5 * beta * beta
        return TapSolution(p, beta, cp.q_c, t_minus, f, BRANCH_CRITICAL)

    q = solve_q_beta(p, beta)
    f = tap_value(p, beta, cp.e_star, q)
    return TapSolution(p, beta, q, t_minus, f, BRANCH_TAP)


def tap_functional(p: int, beta: float, e_star: float, q: float) -> TapFunctionalSample:
    """Diagnostic TAP functional g(beta, q) and its analytic q-derivative.

    dg/dq = beta e_star (p/2) q^(p/2-1) - 1/(2(1-q)) - beta^2 (1-q) nu''(q)/2;
    it vanishes at q_beta and equals -1/2 from the right at q=0 (p >= 3).
    """
    if beta < 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0, 1), got {q}")
    _, _, nu2 = eval_nu_derivs(p, q)
    g = tap_value(p, beta, e_star, q)
    dg = (beta * e_star * (p / 2.0) * q ** (p / 2.0 - 1.0)
          - 0.5 / (1.0 - q)
          - 0.5 * beta * beta * (1.0 - q) * nu2)
    return TapFunctionalSample(q=q, g_value=g, g_derivative=dg)


def lemma_bound_check(p: int, beta: float, q_beta: float) -> bool:
    """True iff beta q^(p/2-1)(1-q) <= 1/sqrt(p(p-1)) with slack >= -1e-12."""
    if p < 3:
        raise ValueError(f"bound applies to p >= 3, got {p}")
    slack = 1.0 / math.sqrt(p * (p - 1)) - beta * overlap_polynomial(p, q_beta)
    return slack >= -1e-12


def sweep(p: int, betas: Iterable[float]) -> list[TapSolution]:
    """free_energy at each beta of a strictly increasing nonnegative grid."""
    grid = list(betas)
    if any(b < 0.0 for b in grid):
        raise ValueError("beta grid must be nonnegative")
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("beta grid must be strictly increasing")
    out = []
    for beta in grid:
        try:
            out.append(free_energy(p, beta))
        except Exception as exc:
            raise RuntimeError(f"sweep failed at beta={beta}: {exc}") from exc
    return out
