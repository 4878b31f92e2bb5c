"""Oracles and estimators the benchmark checks pspin's outputs with.

Everything here is written against the defining formulas on the full
coupling tensor and never calls pspin's kernels, so a faster kernel is
checked against arithmetic it does not share.
"""

from __future__ import annotations

import numpy as np


def _norm(n: int, p: int) -> float:
    return float(n) ** (-(p - 1) / 2.0)


def _contract(tensor: np.ndarray, sigma: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Contract every axis of ``tensor`` not in ``keep`` with ``sigma``."""
    p = tensor.ndim
    operands = [tensor, list(range(p))]
    for axis in range(p):
        if axis not in keep:
            operands += [sigma, [axis]]
    return np.einsum(*operands, list(keep))


def naive_energy(tensor: np.ndarray, sigma: np.ndarray) -> float:
    """H(sigma) = n^(-(p-1)/2) sum_t J_t sigma_{t_1} ... sigma_{t_p}."""
    n, p = sigma.shape[0], tensor.ndim
    return _norm(n, p) * float(_contract(tensor, sigma, ()))


def naive_gradient(tensor: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Euclidean gradient: one term per tensor slot."""
    n, p = sigma.shape[0], tensor.ndim
    return _norm(n, p) * sum(_contract(tensor, sigma, (a,)) for a in range(p))


def naive_hessian(tensor: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Euclidean Hessian: one term per ordered pair of distinct slots."""
    n, p = sigma.shape[0], tensor.ndim
    total = np.zeros((n, n))
    for a in range(p):
        for b in range(p):
            if a == b:
                continue
            block = _contract(tensor, sigma, (min(a, b), max(a, b)))
            total += block if a < b else block.T
    return _norm(n, p) * total


def tangential_gradient(tensor: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Gradient minus its radial part on the sphere |sigma|^2 = n."""
    g = naive_gradient(tensor, sigma)
    return g - (g @ sigma / (sigma @ sigma)) * sigma


def riemannian_hessian_top(tensor: np.ndarray, sigma: np.ndarray) -> tuple[float, float]:
    """Largest eigenvalue of the Riemannian Hessian and the spectrum's scale.

    On the sphere of squared radius n the Hessian acting on tangent vectors
    is P (grad^2 H - (sigma . grad H / n) I) P.  Its eigenvalues are taken on
    an orthonormal basis of the tangent space, so the zero mode along sigma
    does not enter.
    """
    n = sigma.shape[0]
    radial = naive_gradient(tensor, sigma) @ sigma / (sigma @ sigma)
    shifted = naive_hessian(tensor, sigma) - radial * np.eye(n)
    # the right singular vectors of the row sigma beyond the first span its complement
    basis = np.linalg.svd(sigma[None, :])[2][1:].T
    eig = np.linalg.eigvalsh(basis.T @ shifted @ basis)
    return float(eig[-1]), float(np.max(np.abs(eig)))


def is_local_maximum(tensor: np.ndarray, sigma: np.ndarray, rtol: float = 1e-6) -> bool:
    """Riemannian Hessian negative semidefinite, up to ``rtol`` of its scale."""
    top, scale = riemannian_hessian_top(tensor, sigma)
    return top <= rtol * scale


def integrated_autocorr_time(series, c: float = 5.0) -> float:
    """Integrated autocorrelation time with Sokal's automatic window.

    tau(M) = 1 + 2 sum_{t=1..M} rho(t), with M the smallest lag such that
    M >= c tau(M) (Sokal, 1997 Cargese lecture notes).  The normalized
    autocorrelation rho comes from a zero-padded FFT.
    """
    x = np.asarray(series, dtype=float)
    size = x.size
    if size < 4:
        raise ValueError(f"need at least 4 samples, got {size}")
    x = x - x.mean()
    spectrum = np.fft.rfft(x, 2 * size)
    acov = np.fft.irfft(spectrum * np.conj(spectrum))[:size]
    if acov[0] <= 0.0:
        raise ValueError("series is constant")
    rho = acov / acov[0]
    taus = 2.0 * np.cumsum(rho) - 1.0
    lags = np.arange(size)
    window = np.flatnonzero(lags >= c * taus)
    m = int(window[0]) if window.size else size - 1
    return float(taus[m])


def trapezoid_weights(grid) -> np.ndarray:
    """Weights w with sum_i w_i f(x_i) the trapezoid integral over ``grid``."""
    x = np.asarray(grid, dtype=float)
    steps = np.diff(x)
    w = np.zeros(x.size)
    w[:-1] += 0.5 * steps
    w[1:] += 0.5 * steps
    return w
