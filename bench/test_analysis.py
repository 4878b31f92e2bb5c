"""Known-answer tests of the benchmark's oracles and estimators.

Run with ``python -m pytest bench``.
"""

import math

import numpy as np
import pytest

from analysis import (
    integrated_autocorr_time,
    is_local_maximum,
    naive_energy,
    naive_gradient,
    tangential_gradient,
    trapezoid_weights,
)


def _sphere_point(n, rng):
    x = rng.standard_normal(n)
    return x * math.sqrt(n) / np.linalg.norm(x)


def test_naive_energy_is_quadratic_form_at_p2():
    rng = np.random.default_rng(1)
    n = 9
    J = rng.standard_normal((n, n))
    sigma = _sphere_point(n, rng)
    assert naive_energy(J, sigma) == pytest.approx(sigma @ J @ sigma / math.sqrt(n), rel=1e-13)


def test_naive_gradient_matches_central_differences_at_p3():
    rng = np.random.default_rng(2)
    n = 5
    T = rng.standard_normal((n, n, n))
    sigma = _sphere_point(n, rng)
    fd = np.array([
        (naive_energy(T, sigma + h) - naive_energy(T, sigma - h)) / 2e-6
        for h in 1e-6 * np.eye(n)
    ])
    assert np.allclose(naive_gradient(T, sigma), fd, rtol=1e-7, atol=1e-8)


def _eigvecs_p2(n, seed):
    J = np.random.default_rng(seed).standard_normal((n, n))
    vals, vecs = np.linalg.eigh(J + J.T)
    return J, vals, vecs * math.sqrt(n)


def test_hessian_check_accepts_top_eigenvector_at_p2():
    J, _, vecs = _eigvecs_p2(12, 3)
    top = vecs[:, -1]
    assert np.linalg.norm(tangential_gradient(J, top)) < 1e-10
    assert is_local_maximum(J, top)


def test_hessian_check_rejects_a_saddle_at_p2():
    J, _, vecs = _eigvecs_p2(12, 3)
    saddle = vecs[:, -2]
    assert np.linalg.norm(tangential_gradient(J, saddle)) < 1e-10
    assert not is_local_maximum(J, saddle)


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.8])
def test_autocorr_time_recovers_ar1(rho):
    rng = np.random.default_rng(4)
    size = 400_000
    noise = rng.standard_normal(size)
    x = np.empty(size)
    x[0] = noise[0] / math.sqrt(1.0 - rho * rho)
    for t in range(1, size):
        x[t] = rho * x[t - 1] + noise[t]
    expected = (1.0 + rho) / (1.0 - rho)
    # the estimate's relative sd is about sqrt(2 (2 c tau + 1) / size): 2% at rho=0.8
    assert integrated_autocorr_time(x) == pytest.approx(expected, rel=0.08)


def test_autocorr_time_rejects_a_constant_series():
    with pytest.raises(ValueError):
        integrated_autocorr_time(np.ones(100))


def test_trapezoid_weights_integrate_linear_functions_exactly():
    grid = np.array([0.0, 0.1, 0.35, 0.5, 1.0])
    w = trapezoid_weights(grid)
    assert w.sum() == pytest.approx(1.0, rel=1e-15)
    assert w @ (3.0 * grid + 2.0) == pytest.approx(3.5, rel=1e-14)
