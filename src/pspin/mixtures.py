"""The covariance polynomial nu(x) = x^p of the spherical pure p-spin model.

Conditioning on an overlap q leaves the variance nu(1) - nu(q) - nu'(q)(1-q),
the shifted total that enters the Onsager reaction term.
"""

from __future__ import annotations

import math


def eval_nu_derivs(p: int, q: float) -> tuple[float, float, float]:
    """(nu, nu', nu'') of nu(x) = x^p at x = q."""
    return q**p, p * q ** (p - 1), p * (p - 1) * q ** (p - 2)


def shifted_total(p: int, q: float) -> float:
    """nu(1) - nu(q) - nu'(q)(1-q) of nu(x) = x^p.

    Uses the factored form (1-q) * sum_{j<p-1} (q^j - q^(p-1)) with each term
    written as -q^j expm1((p-1-j) log q), which avoids the cancellation of
    both the naive expression and the differences q^j - q^(p-1) as q -> 1.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"overlap q must lie in [0, 1), got {q}")
    if q == 0.0:
        return 1.0  # log q is -inf: only nu(1) = 1 is left
    log_q = math.log(q)
    return (1.0 - q) * math.fsum(-(q**j) * math.expm1((p - 1 - j) * log_q) for j in range(p - 1))


def e_infinity(p: int) -> float:
    """Energy threshold 2*sqrt((p-1)/p) of the pure p-spin model."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    return 2.0 * math.sqrt((p - 1) / p)
