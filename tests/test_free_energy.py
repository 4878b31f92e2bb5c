"""Free-energy layer: quadratic roots, dominant overlap, branch structure."""

import math

import numpy as np
import pytest

from pspin.critical import solve_critical
from pspin.free_energy import (
    free_energy,
    lemma_bound_check,
    overlap_polynomial,
    solve_q_beta,
    sweep,
    t_pm,
    tap_functional,
    tap_value,
)
from pspin.critical import e_infinity

from oracles import bisect, cs_1rsb, p2_closed_forms_highprec

SQRT2 = math.sqrt(2.0)


class TestQuadraticRoots:
    def test_degenerate_discriminant(self):
        p = 5
        t_minus, t_plus = t_pm(p, e_infinity(p))
        assert t_minus == t_plus == pytest.approx(1.0 / math.sqrt(p * (p - 1)), rel=1e-14)

    def test_p3_values(self):
        cp = solve_critical(3)
        t_minus, t_plus = t_pm(3, cp.e_star)
        assert t_minus == pytest.approx(0.3439925138, abs=1e-9)
        assert t_plus == pytest.approx(0.4845066680, abs=1e-9)
        assert t_minus * t_plus == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_roots_satisfy_quadratic(self):
        for p in (3, 4, 10, 16):
            e_star = solve_critical(p).e_star
            for t in t_pm(p, e_star):
                assert abs(p * (p - 1) * t * t - p * e_star * t + 1.0) <= 1e-12

    def test_vieta_identities(self):
        for p in range(3, 17):
            e_star = solve_critical(p).e_star
            t_minus, t_plus = t_pm(p, e_star)
            assert t_minus * t_plus == pytest.approx(1.0 / (p * (p - 1)), rel=1e-12)
            assert t_minus + t_plus == pytest.approx(e_star / (p - 1), rel=1e-12)
            assert t_minus <= 1.0 / math.sqrt(p * (p - 1)) <= t_plus

    def test_rejects_subthreshold_energy(self):
        with pytest.raises(ValueError):
            t_pm(3, e_infinity(3) - 1e-6)


class TestDominantOverlap:
    def test_at_critical_temperature_returns_qc(self):
        # at p = 2 rounding puts t_minus/beta_c one ulp above the peak f(0) = 1; it is clamped
        for p in (2, 3, 4, 5, 10):
            cp = solve_critical(p)
            assert solve_q_beta(p, cp.beta_c) == pytest.approx(cp.q_c, abs=1e-10)

    def test_double_beta_c_against_oracle(self):
        cp = solve_critical(3)
        beta = 2.0 * cp.beta_c
        t_minus, _ = t_pm(3, cp.e_star)
        q_ref = bisect(lambda q: math.sqrt(q) * (1 - q) - t_minus / beta, 1 / 3, 1 - 1e-12)
        q = solve_q_beta(3, beta)
        assert q == pytest.approx(q_ref, abs=1e-12)
        assert q == pytest.approx(0.8449168468, abs=1e-9)
        assert q == pytest.approx(0.8447, abs=1e-3)  # coarse literature rounding

    def test_near_saturation_asymptotics(self):
        cp = solve_critical(3)
        t_minus, _ = t_pm(3, cp.e_star)
        q = solve_q_beta(3, 1e4)
        assert q == pytest.approx(0.9999656001569398, abs=1e-12)
        assert 1.0 - q == pytest.approx(t_minus / 1e4, rel=0.01)

    def test_root_identity_along_grid(self):
        cp = solve_critical(3)
        t_minus, _ = t_pm(3, cp.e_star)
        for beta in np.linspace(cp.beta_c + 1e-6, 10.0, 50):
            q = solve_q_beta(3, beta)
            assert beta * overlap_polynomial(3, q) == pytest.approx(t_minus, abs=1e-10)

    def test_rejects_high_temperature(self):
        cp = solve_critical(3)
        with pytest.raises(ValueError):
            solve_q_beta(3, 0.5 * cp.beta_c)


class TestFreeEnergy:
    def test_high_temperature_branch(self):
        cp = solve_critical(3)
        beta = 0.5 * cp.beta_c
        sol = free_energy(3, beta)
        assert sol.free_energy == pytest.approx(0.5 * beta * beta, rel=1e-15)
        assert sol.q_beta == 0.0
        assert sol.branch == "rs"

    def test_critical_point_continuity(self):
        cp = solve_critical(3)
        sol = free_energy(3, cp.beta_c)
        assert sol.branch == "critical"
        assert sol.q_beta == cp.q_c
        assert sol.free_energy == pytest.approx(0.7278883703, abs=1e-9)
        above = free_energy(3, cp.beta_c + 1e-9)
        assert abs(above.free_energy - 0.5 * cp.beta_c**2) <= 1e-6

    def test_double_beta_c_value(self):
        cp = solve_critical(3)
        sol = free_energy(3, 2.0 * cp.beta_c)
        assert sol.free_energy == pytest.approx(2.3618795926, abs=1e-9)

    def test_branch_continuity_p3_to_p10(self):
        for p in range(3, 11):
            cp = solve_critical(p)
            above = free_energy(p, cp.beta_c + 1e-9).free_energy
            assert abs(above - 0.5 * cp.beta_c**2) <= 1e-6, f"p={p}"

    def test_branch_continuity_p2(self):
        bc = 1.0 / SQRT2
        above = free_energy(2, bc + 1e-9).free_energy
        assert abs(above - 0.5 * bc * bc) <= 1e-6

    def test_p2_closed_form(self):
        sol = free_energy(2, 1.0)
        assert sol.q_beta == pytest.approx(1.0 - 1.0 / SQRT2, rel=1e-14)
        assert sol.free_energy == pytest.approx(
            SQRT2 - 0.25 * math.log(2.0) - 0.75, rel=1e-14
        )

    def test_p2_general_path_within_4_ulps_of_the_closed_forms(self):
        # q_beta is solved as 1 - q = 1/(sqrt(2) beta), so its ulps are those of 1
        for beta in np.linspace(0.71, 6.2, 400):
            sol = free_energy(2, float(beta))
            q, f = p2_closed_forms_highprec(float(beta))
            assert sol.branch == "tap"
            assert abs(sol.q_beta - q) <= 4 * math.ulp(1.0), beta
            assert abs(sol.free_energy - f) <= 4 * math.ulp(f), beta

    def test_ground_state_limit(self):
        cp = solve_critical(3)
        assert abs(free_energy(3, 1e4).free_energy / 1e4 - cp.e_star) <= 5e-3

    def test_monotone_and_convex_on_grid(self):
        """F nondecreasing; discrete second differences >= -1e-8 on [0, 10]."""
        grid = np.arange(0.0, 10.0 + 1e-9, 1e-2)
        f = np.array([free_energy(3, b).free_energy for b in grid])
        assert np.all(np.diff(f) >= -1e-12)
        assert np.all(np.diff(f, 2) >= -1e-8)

    def test_q_beta_nondecreasing_toward_one(self):
        cp = solve_critical(3)
        grid = np.concatenate([np.linspace(0, 3, 100), [10.0, 100.0, 1e4]])
        q = [free_energy(3, b).q_beta for b in grid]
        assert all(b >= a for a, b in zip(q, q[1:]))
        assert q[-1] > 0.9999

    def test_p2_overlap_continuous_in_beta(self):
        grid = np.arange(0.0, 3.0, 1e-3)
        q = np.array([free_energy(2, b).q_beta for b in grid])
        expected = np.maximum(0.0, 1.0 - 1.0 / (SQRT2 * grid.clip(min=1e-300)))
        np.testing.assert_allclose(q, expected, atol=1e-12)
        assert np.max(np.abs(np.diff(q))) < 2e-3  # no jump at the seam


class TestCrisantiSommers:
    @pytest.mark.parametrize("p", range(3, 9))
    def test_tap_value_is_the_1rsb_stationary_point(self, p):
        # the paper's free energy, obtained without the Parisi formula, is the
        # Crisanti-Sommers 1RSB value, and q_beta its overlap
        beta_c = solve_critical(p).beta_c
        for ratio in (1.05, 1.5, 2.0, 4.0, 10.0):
            sol = free_energy(p, ratio * beta_c)
            f, q = cs_1rsb(p, ratio * beta_c)
            assert sol.free_energy == pytest.approx(f, rel=1e-12, abs=0.0)
            assert abs(sol.q_beta - q) <= 1e-10


class TestTapFunctional:
    def test_origin_values(self):
        cp = solve_critical(3)
        s = tap_functional(3, 1.7, cp.e_star, 0.0)
        assert s.g_value == pytest.approx(0.5 * 1.7**2, rel=1e-14)
        assert s.g_derivative == pytest.approx(-0.5, abs=1e-15)

    def test_stationary_at_critical_overlap(self):
        cp = solve_critical(3)
        s = tap_functional(3, cp.beta_c, cp.e_star, cp.q_c)
        assert abs(s.g_derivative) <= 1e-8
        assert s.g_value == pytest.approx(free_energy(3, cp.beta_c).free_energy, abs=1e-8)

    def test_stationary_at_q_beta(self):
        cp = solve_critical(3)
        beta = 2.0 * cp.beta_c
        q = solve_q_beta(3, beta)
        s = tap_functional(3, beta, cp.e_star, q)
        assert abs(s.g_derivative) <= 1e-8
        assert s.g_value == pytest.approx(tap_value(3, beta, cp.e_star, q), rel=1e-14)

    def test_derivative_matches_finite_difference(self):
        cp = solve_critical(3)
        for q in (0.1, 0.4, 0.8):
            s = tap_functional(3, 2.0, cp.e_star, q)
            h = 1e-6
            fd = (
                tap_functional(3, 2.0, cp.e_star, q + h).g_value
                - tap_functional(3, 2.0, cp.e_star, q - h).g_value
            ) / (2 * h)
            assert s.g_derivative == pytest.approx(fd, rel=1e-6)

    def test_strict_decrease_before_small_root(self):
        """g decreases on (0, q^-): sample points stay below g at the ends."""
        cp = solve_critical(3)
        beta = 2.0 * cp.beta_c
        t_minus, _ = t_pm(3, cp.e_star)
        q_minus = bisect(
            lambda q: overlap_polynomial(3, q) - t_minus / beta, 1e-12, 1 / 3
        )
        qs = np.linspace(1e-4, q_minus * 0.999, 50)
        g = [tap_functional(3, beta, cp.e_star, q).g_value for q in qs]
        assert all(b < a for a, b in zip(g, g[1:]))

    def test_rejects_q_at_one(self):
        with pytest.raises(ValueError):
            tap_functional(3, 1.0, 1.7, 1.0)


class TestLemmaBound:
    def test_holds_at_solved_overlap(self):
        cp = solve_critical(3)
        beta = 2.0 * cp.beta_c
        q = solve_q_beta(3, beta)
        assert lemma_bound_check(3, beta, q)

    def test_holds_trivially_at_zero(self):
        assert lemma_bound_check(3, 0.5, 0.0)

    def test_detects_synthetic_violation(self):
        ell = 1.0 / 3.0
        beta = (1.0 / math.sqrt(6.0)) / overlap_polynomial(3, ell) * 1.01
        assert not lemma_bound_check(3, beta, ell)


class TestSweep:
    def test_single_zero_beta(self):
        (sol,) = sweep(3, [0.0])
        assert sol.free_energy == 0.0
        assert sol.q_beta == 0.0

    def test_overlap_jump_but_free_energy_continuous(self):
        cp = solve_critical(3)
        lo, hi = sweep(3, [cp.beta_c - 1e-6, cp.beta_c + 1e-6])
        assert lo.q_beta == 0.0
        assert hi.q_beta == pytest.approx(cp.q_c, abs=1e-4)
        assert abs(hi.free_energy - lo.free_energy) <= 1e-5

    def test_p2_sweep_overlap_formula(self):
        sols = sweep(2, [0.2, 0.9, 1.7])
        for s in sols:
            assert s.q_beta == pytest.approx(max(0.0, 1.0 - 1.0 / (SQRT2 * s.beta)), abs=1e-14)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            sweep(3, [0.5, 0.5])
        with pytest.raises(ValueError):
            sweep(3, [-0.1, 0.5])

    def test_failure_carries_offending_beta(self):
        with pytest.raises(RuntimeError, match="beta=nan") :
            sweep(3, [0.1, float("nan")])
