"""Critical point of the spherical pure p-spin model.

For p >= 3 the critical overlap q_c is the unique interior root of

    a(q) = p(1-q)log(1-q) + pq - (p-1)q^2,

from which the critical inverse temperature and the ground-state energy per
spin follow in closed form.  For p = 2 the model is replica symmetric at all
temperatures: q_c = 0, and the same closed forms give (beta_c, e_star) =
(1/sqrt(2), sqrt(2)).

``residuals_prop`` evaluates the stationarity system the solved triple must satisfy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .mixtures import e_infinity, eval_nu_derivs
from .roots import bisect_root

Q_CAP = 1.0 - 1e-12  # keep log(1-q) finite: clamp solver domain away from q=1
QC_RESIDUAL_MAX = 1e-13  # largest |a(q_c)| / p accepted from the root


@dataclass(frozen=True)
class CriticalPoint:
    p: int
    q_c: float
    beta_c: float
    e_star: float
    e_inf: float


@dataclass(frozen=True)
class ResidualTriple:
    """Signed left-minus-right residuals of the three critical-point equations."""

    r_I: float
    r_IIa: float
    r_IIb: float


def aux_a(p: int, q: float) -> float:
    """The overlap equation a(q) whose interior root is q_c (p >= 3)."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0, 1), got {q}")
    return p * (1.0 - q) * math.log1p(-q) + p * q - (p - 1) * q * q


def solve_qc(p: int) -> float:
    """Interior root q_c of a(q) for p >= 3.

    a(1/2) = 1/4 - p(ln(2)/2 - 1/4) < 0 for every p >= 3, since ln(2)/2 > 1/4,
    and a decreases from a(0) = 0 to its minimum and then increases to 1 as
    q -> 1, so [1/2, Q_CAP] brackets the single sign change.  (a(Q_CAP) is
    about 1 - 2.7e-11 p, positive for p below about 3.7e10.)
    One bisection finds the root to floating-point resolution, not to a
    tolerance.  The root must give |a(q_c)| <= QC_RESIDUAL_MAX * p: a's terms
    are of size p, so the bound passes a root found to rounding at every p
    and fails a wrong one.
    """
    if p < 3:
        raise ValueError(f"interior root exists only for p >= 3, got {p}")
    q_c = bisect_root(lambda q: aux_a(p, q), 0.5, Q_CAP)
    if abs(aux_a(p, q_c)) > QC_RESIDUAL_MAX * p:
        raise RuntimeError(f"root polish failed for p={p}: |a(q_c)|={abs(aux_a(p, q_c))}")
    return q_c


@functools.lru_cache(maxsize=None)
def solve_critical(p: int) -> CriticalPoint:
    """Critical triple (q_c, beta_c, e_star) plus the threshold energy e_inf.

    At p = 2, q_c = 0 and the closed forms below give 1/sqrt(2) and sqrt(2) to the bit.
    """
    e_inf = e_infinity(p)  # rejects p < 2
    q_c = solve_qc(p) if p > 2 else 0.0
    beta_c = q_c ** (1.0 - p / 2.0) / math.sqrt(p * (1.0 - q_c))
    root = math.sqrt((p - 1) * (1.0 - q_c))
    e_star = 0.5 * e_inf * (1.0 / root + root)
    return CriticalPoint(p=p, q_c=q_c, beta_c=beta_c, e_star=e_star, e_inf=e_inf)


def residuals_prop(p: int, beta: float, q: float, E: float) -> ResidualTriple:
    """Residuals of the three equations the solved triple must satisfy.

    q lies in (0, 1), or is 0 at p = 2, where q_c = 0.

    r_I   : 1/(1-q) + beta^2 (1-q) nu''(q) - beta p q^(p/2-1) E
    r_IIa : beta^2 (nu(q) + (1-q) nu'(q)) - beta q^(p/2) E
    r_IIb : beta q^(p/2) E + log(1-q)
    """
    if not (0.0 < q < 1.0 or (q == 0.0 and p == 2)):
        raise ValueError(f"q must lie in (0, 1), or be 0 at p = 2; got {q}")
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    nu, nu1, nu2 = eval_nu_derivs(p, q)
    q_half = q ** (p / 2.0)
    r_I = 1.0 / (1.0 - q) + beta * beta * (1.0 - q) * nu2 - beta * p * q ** (p / 2.0 - 1.0) * E
    r_IIa = beta * beta * (nu + (1.0 - q) * nu1) - beta * q_half * E
    r_IIb = beta * q_half * E + math.log1p(-q)
    return ResidualTriple(r_I=r_I, r_IIa=r_IIa, r_IIb=r_IIb)


def p2_betac_residual(beta: float) -> float:
    """Matching condition for the 2-spin critical temperature.

    Left minus right of  beta^2/2 = sqrt(2) beta - log(beta)/2 - log(2)/4 - 3/4,
    strictly monotone in beta with its unique zero at 1/sqrt(2).
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    return (0.5 * beta * beta
            - math.sqrt(2.0) * beta
            + 0.5 * math.log(beta)
            + 0.25 * math.log(2.0)
            + 0.75)
