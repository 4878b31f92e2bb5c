"""Bracketed scalar root finding: bisection with safeguarded secant polish."""

from __future__ import annotations

from typing import Callable


class BracketError(RuntimeError):
    """The supplied interval does not bracket a sign change."""


def bisect_secant(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    bracket_tol: float = 1e-13,
) -> float:
    """Root of f on [lo, hi] where f(lo) and f(hi) have opposite signs.

    Bisects until the bracket is narrower than ``bracket_tol`` (or f hits
    exactly zero), then polishes with up to 8 secant steps that are
    rejected whenever they leave the current bracket.  Returns the iterate
    with the smallest |f| seen.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}"
        )

    while hi - lo > bracket_tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket at floating-point resolution
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid

    best, fbest = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    a, fa, b, fb = lo, flo, hi, fhi
    for _ in range(8):
        if fb == fa:
            break
        x = b - fb * (b - a) / (fb - fa)
        if not lo <= x <= hi:
            break
        fx = f(x)
        if abs(fx) < abs(fbest):
            best, fbest = x, fx
        if fx == 0.0:
            break
        a, fa, b, fb = b, fb, x, fx
    return best
