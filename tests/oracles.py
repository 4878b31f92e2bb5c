"""Independent oracles for expected values.

Everything here is deliberately written from scratch against the defining
formulas (finite differences, grid scans, quadrature, power iteration,
high-precision arithmetic) and never calls the code paths it is used to
check.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp, mpf


def central_difference(f, x: float, step: float = 1e-5) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def second_difference(f, x: float, step: float = 1e-4) -> float:
    return (f(x + step) - 2.0 * f(x) + f(x - step)) / (step * step)


def sign_change_intervals(f, grid: np.ndarray) -> list[tuple[float, float]]:
    """All adjacent grid intervals on which f changes sign."""
    vals = np.array([f(x) for x in grid])
    out = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0:
            out.append((float(grid[i]), float(grid[i + 1])))
    return out


def bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection; assumes a sign change on [lo, hi]."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def qc_highprec(p: int, dps: int = 40):
    """Root of a(q) = p(1-q)log(1-q) + pq - (p-1)q^2 on (1/2, 1), as an mpf at ``dps`` digits.

    Plain bisection at ``dps`` digits from a(1/2) < 0 and a(1 - 10^-20) > 0
    (true for p below about 10^18), until the bracket is narrower than 10^(2-dps).
    """
    mp.dps = dps

    def a(q):
        return p * (1 - q) * mp.log(1 - q) + p * q - (p - 1) * q * q

    lo, hi = mpf(1) / 2, 1 - mpf(10) ** -20
    assert a(lo) < 0 < a(hi)
    while hi - lo > mpf(10) ** (2 - dps):
        mid = (lo + hi) / 2
        if a(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def shifted_total_highprec(p: int, q: float, dps: int = 50) -> float:
    """nu(1) - nu(q) - nu'(q)(1-q) for the pure model, at high precision."""
    mp.dps = dps
    qq = mpf(q)
    return float(1 - qq**p - p * qq ** (p - 1) * (1 - qq))


def p2_matching_residual_highprec(beta: float, dps: int = 50) -> float:
    """beta^2/2 - (sqrt(2) beta - log(beta)/2 - log(2)/4 - 3/4) at high precision."""
    mp.dps = dps
    b = mpf(beta)
    return float(b * b / 2 - (mp.sqrt(2) * b - mp.log(b) / 2 - mp.log(2) / 4 - mpf(3) / 4))


def p2_closed_forms_highprec(beta: float, dps: int = 50) -> tuple[float, float]:
    """(q_beta, F) of the 2-spin model above beta_c at high precision:
    q_beta = 1 - 1/(sqrt(2) beta) and F = sqrt(2) beta - log(2 beta^2)/4 - 3/4."""
    mp.dps = dps
    b = mpf(beta)
    return (float(1 - 1 / (mp.sqrt(2) * b)),
            float(mp.sqrt(2) * b - mp.log(2 * b * b) / 4 - mpf(3) / 4))


def abc_complexity(p: int, u: float, dps: int = 40) -> float:
    """Complexity Theta_p(u) of the local maxima of the pure p-spin model at energy u <= -E_inf.

    Auffinger, Ben Arous and Cerny (Commun. Pure Appl. Math. 66, 2013):
    Theta_p(u) = log(p-1)/2 - (p-2) u^2 / (4(p-1)) - I_1(u), with
    I_1(u) = -(u/E_inf^2) sqrt(u^2 - E_inf^2) - log(-u + sqrt(u^2 - E_inf^2)) + log E_inf
    and E_inf = 2 sqrt((p-1)/p).  Its zero below -E_inf is minus the ground-state energy.
    """
    mp.dps = dps
    e_inf = 2 * mp.sqrt(mpf(p - 1) / p)
    u = mpf(u)
    if u > -e_inf:
        raise ValueError(f"u={u} above -E_inf={-e_inf}")
    root = mp.sqrt(u * u - e_inf * e_inf)
    i_1 = -(u / e_inf**2) * root - mp.log(-u + root) + mp.log(e_inf)
    return float(mp.log(p - 1) / 2 - (p - 2) * u * u / (4 * (p - 1)) - i_1)


def top_eigenvalue_power(M: np.ndarray, iters: int = 500_000, tol: float = 1e-13, seed: int = 1) -> float:
    """Largest-algebraic eigenvalue by power iteration on a shifted matrix.

    The shift (a Gershgorin bound) makes the target eigenvalue dominant in
    modulus, which plain power iteration requires.
    """
    shift = float(np.abs(M).sum(axis=1).max()) + 1.0
    A = M + shift * np.eye(M.shape[0])
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(M.shape[0])
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = A @ x
        x = y / np.linalg.norm(y)
        lam = float(x @ (A @ x))
        if np.linalg.norm(A @ x - lam * x) < tol * abs(lam):
            break
    return lam - shift


def circle_log_partition(M: np.ndarray, beta: float, points: int = 400_000) -> float:
    """(1/2) log of the normalized partition integral for n=2, p=2.

    Parametrizes the radius-sqrt(2) circle and integrates the smooth periodic
    integrand by the trapezoid rule (spectrally accurate here).
    """
    theta = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    sigma = np.sqrt(2.0) * np.stack([np.cos(theta), np.sin(theta)])
    energy = np.einsum("it,ij,jt->t", sigma, M, sigma)
    peak = energy.max()
    return 0.5 * (beta * peak + np.log(np.mean(np.exp(beta * (energy - peak)))))


def sphere_p2_log_partition(T: np.ndarray, beta: float, dps: int = 15) -> float:
    """(1/n) log of the normalized partition integral for p=2, any n, from the spectrum.

    With M = (T + T^T)/(2 sqrt(n)) the energy is s.M.s, whose eigenvalues l_i
    come from ``eigvalsh``.  Integrating exp(-t |x|^2 + beta x.M.x) over R^n in
    polar coordinates gives, for t > beta max(l) (Kosterlitz, Thouless and
    Jones, PRL 36, 1976),
        int_0^inf e^(-t r) r^(n/2-1) Z(r) / Gamma(n/2) dr = prod_i (t - beta l_i)^(-1/2),
    where Z(r) is the mean of exp(beta s.M.s) over the sphere |s|^2 = r.
    mpmath's Talbot inversion recovers Z(n) from the right side, shifted by
    c = beta max(l) so that every branch point lies at or left of 0.  The
    right side is summed in double precision, 20 to 40 times faster than in
    mpmath; the inversion amplifies its rounding to about 1e-11 in the result.
    """
    n = T.shape[0]
    lam = np.linalg.eigvalsh((T + T.T) / (2.0 * np.sqrt(n)))
    mp.dps = dps
    c = mpf(beta) * mpf(lam[-1])
    shifts = beta * (lam[-1] - lam)

    def transform(u):  # the right side at t = u + c, as one sum of principal logs
        return mp.exp(-mp.mpc(np.sum(np.log(complex(u) + shifts))) / 2)

    g = mp.invertlaplace(transform, n, method="talbot")  # e^(-c n) n^(n/2-1) Z(n) / Gamma(n/2)
    half = mpf(n) / 2
    return float((mp.log(g) + c * n + mp.loggamma(half) - (half - 1) * mp.log(n)) / n)


def sphere3_log_partition(T: np.ndarray, beta: float, nodes: int = 48) -> float:
    """(1/3) log of the normalized partition integral for n=3, p=2, by quadrature.

    Gauss-Legendre in the polar angle (weight sin(theta)/2) times the uniform
    rule in the azimuth on the radius-sqrt(3) sphere; the integrand is smooth
    and periodic in both angles.  The energies s.T.s/sqrt(3) come from einsum.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * np.pi * (x + 1.0)
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * nodes, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    sigma = np.sqrt(3.0) * np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], -1)
    energy = np.einsum("abi,ij,abj->ab", sigma, T, sigma) / np.sqrt(3.0)
    weight = (0.25 * np.pi * w * np.sin(theta))[:, None] / phi.size  # sums to 1
    peak = energy.max()
    return (beta * peak + np.log(np.sum(weight * np.exp(beta * (energy - peak))))) / 3.0


def cs_1rsb(p: int, beta: float, dps: int = 40) -> tuple[float, float]:
    """(F, q) at the 1RSB stationary point of the Crisanti-Sommers functional.

    For x = m on [0, q) and 1 on [q, 1] (Crisanti and Sommers, Z. Phys. B 87,
    1992), F = P(q, m) with 2 P = beta^2 (1 - (1 - m) q^p)
    + log(1 - q + m q) / m + (1 - 1/m) log(1 - q).  The minimum of P on a grid
    of (q, m) in (0, 1)^2 seeds mpmath's ``findroot`` on dP/dq / (1 - m) = 0
    and dP/dm = 0 (the factor 1 - m removes the line m = 1, where dP/dq
    vanishes for every q).  The q grid is uniform in log(1 - q) to reach the
    overlaps near 1 of large beta.
    """
    q = 1.0 - np.logspace(-0.02, -5.0, 60)[:, None]
    m = np.linspace(0.01, 0.99, 50)[None, :]
    grid = beta**2 * (1 - (1 - m) * q**p) + np.log(1 - q + m * q) / m + (1 - 1 / m) * np.log(1 - q)
    i, j = np.unravel_index(np.argmin(grid), grid.shape)

    mp.dps = dps
    b2 = mpf(beta) ** 2

    def stationarity(q, m):
        r = 1 - q + m * q
        return (q / ((1 - q) * r) - b2 * p * q ** (p - 1),
                b2 * q**p + q / (m * r) + (mp.log(1 - q) - mp.log(r)) / m**2)

    qs, ms = mp.findroot(stationarity, (mpf(q[i, 0]), mpf(m[0, j])))
    f = (b2 * (1 - (1 - ms) * qs**p) + mp.log(1 - qs + ms * qs) / ms
         + (1 - 1 / ms) * mp.log(1 - qs)) / 2
    return float(f), float(qs)
