"""Bracketed scalar root finding by bisection to floating-point resolution.

There is no tolerance to tune: bisection halves the bracket until no double
lies strictly between its ends, so the root is found as closely as the
doubles allow, whatever the scale of f or of its argument.  The overlap
equations of ``pspin.critical`` and ``pspin.free_energy`` each come with a
bracket that holds a single sign change.  For q_c it is [1/2, Q_CAP] at every
p >= 3: a(1/2) = 1/4 - p(ln(2)/2 - 1/4) < 0 < a(Q_CAP) (see ``solve_qc``).
"""

from __future__ import annotations

from typing import Callable


class BracketError(RuntimeError):
    """The supplied interval does not bracket a sign change."""


def bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f on [lo, hi] where f(lo) and f(hi) have opposite signs.

    Returns an exact zero as soon as one is evaluated.  Otherwise bisects
    until lo and hi are neighbouring doubles, so f changes sign between the
    returned point and one of its neighbours, and returns the end with the
    smaller |f|.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}"
        )

    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # no double strictly between the ends
            return lo if abs(flo) <= abs(fhi) else hi
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) != (flo < 0.0):
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
