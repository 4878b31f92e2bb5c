"""The x^p covariance layer: derivatives, the overlap-shifted total, e_inf."""

import math

import numpy as np
import pytest

from pspin.free_energy import tap_value
from pspin.mixtures import e_infinity, eval_nu_derivs, shifted_total

from oracles import central_difference, shifted_total_highprec


class TestEvaluation:
    def test_pure_p3_values(self):
        assert eval_nu_derivs(3, 1.0) == (1.0, 3.0, 6.0)
        assert eval_nu_derivs(3, 0.5)[0] == 0.125

    def test_pure_p2_even(self):
        assert eval_nu_derivs(2, -1.0) == (1.0, -2.0, 2.0)

    def test_derivative_triple_p3(self):
        assert eval_nu_derivs(3, 0.5) == (0.125, 0.75, 3.0)

    def test_derivative_triple_p2_at_zero(self):
        assert eval_nu_derivs(2, 0.0) == (0.0, 0.0, 2.0)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(7)
        for p in (2, 3, 5, 11):
            for x in rng.uniform(0.05, 0.95, size=5):
                nu, nu1, nu2 = eval_nu_derivs(p, x)
                assert nu == pytest.approx(x**p, rel=1e-15)
                fd1 = central_difference(lambda t: t**p, x)
                fd2 = central_difference(lambda t: eval_nu_derivs(p, t)[1], x)
                assert nu1 == pytest.approx(fd1, rel=1e-6)
                assert nu2 == pytest.approx(fd2, rel=1e-6)


class TestShift:
    def test_identity_shift_at_zero(self):
        # nothing is conditioned at q = 0: the total is nu(1) = 1
        for p in (2, 3, 7, 16):
            assert shifted_total(p, 0.0) == 1.0

    def test_p3_half_total(self):
        assert shifted_total(3, 0.5) == pytest.approx(1 - 0.125 - 0.75 * 0.5, rel=1e-14)

    def test_rejects_bad_overlap(self):
        with pytest.raises(ValueError):
            shifted_total(3, 1.0)
        with pytest.raises(ValueError):
            shifted_total(3, -0.01)

    def test_weight_sum_identity_on_grid(self):
        """sum alpha_k^2 = nu(1) - nu(q) - nu'(q)(1-q), rel 1e-12, p in [2,16]."""
        grid = np.arange(0.0, 1.0, 1e-3)
        for p in range(2, 17):
            for q in grid:
                weights = [math.comb(p, k) * (1 - q) ** k * q ** (p - k) for k in range(2, p + 1)]
                assert shifted_total(p, q) == pytest.approx(math.fsum(weights), rel=1e-12, abs=1e-300)

    def test_shifted_total_against_highprec(self):
        """rel 1e-13 against mpmath, p in [2,16], q on a 1e-3 grid and up to 1 - 1e-6."""
        grid = np.concatenate([
            np.arange(0.0, 1.0, 1e-3), [0.0, 0.1, 0.5, 0.9, 0.999, 0.9999, 0.99999, 0.999999],
        ])
        for p in range(2, 17):
            for q in grid:
                ref = shifted_total_highprec(p, q)
                assert shifted_total(p, q) == pytest.approx(ref, rel=1e-13, abs=1e-300)

    def test_nonnegative_weights_everywhere(self):
        # a sum of nonnegative binomial weights C(p,k)(1-q)^k q^(p-k), k >= 2
        grid = np.arange(0.0, 1.0, 1e-3)
        for p in (2, 3, 7, 16):
            assert all(shifted_total(p, q) >= 0.0 for q in grid)

    def test_total_decreases_in_q(self):
        # near q=0 the drop is O(q^(p-1)), below double resolution for large p,
        # so adjacent grid values may tie or wobble by an ulp
        grid = np.arange(0.0, 1.0, 1e-3)
        for p in (2, 3, 9, 16):
            vals = [shifted_total(p, q) for q in grid]
            assert all(b <= a + 4e-16 for a, b in zip(vals, vals[1:]))
            assert vals[-1] < vals[0]


class TestScalars:
    def test_e_infinity_values(self):
        assert e_infinity(2) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert e_infinity(3) == pytest.approx(1.632993161855452, rel=1e-12)

    def test_e_infinity_monotone_toward_two(self):
        vals = [e_infinity(p) for p in range(2, 200)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 2.0

    def test_onsager_values(self):
        # at e_star = 0 the TAP value is log(1-q)/2 + beta^2/2 * shifted total
        assert tap_value(3, 2.0, 0.0, 0.0) == pytest.approx(2.0, rel=1e-15)  # beta^2/2 * nu(1)
        half_log = 0.5 * math.log(0.5)
        assert tap_value(3, 1.0, 0.0, 0.5) == pytest.approx(half_log + 0.25, rel=1e-14)
        assert tap_value(3, 0.0, 0.0, 0.5) == half_log

    def test_onsager_rejects_q_at_one(self):
        with pytest.raises(ValueError):
            shifted_total(3, 1.0)
