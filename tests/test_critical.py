"""Critical-point solver: the overlap equation, the solved triple, residuals."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from mpmath import mp, mpf

from pspin import critical
from pspin.critical import (
    BracketError,
    aux_a,
    bisect_root,
    p2_betac_residual,
    residuals_prop,
    solve_critical,
    solve_qc,
)
from pspin.free_energy import overlap_polynomial, t_pm

from oracles import (
    abc_complexity,
    bisect,
    p2_matching_residual_highprec,
    qc_highprec,
    sign_change_intervals,
)

SQRT2 = math.sqrt(2.0)


class TestOverlapEquation:
    def test_origin_is_exact_zero(self):
        for p in (2, 3, 7, 16):
            assert aux_a(p, 0.0) == 0.0

    def test_known_values_p3(self):
        # direct evaluation: 1.5 ln(1/2) + 1.5 - 0.5 and 0.9 ln(0.3) + 2.1 - 0.98
        assert aux_a(3, 0.5) == pytest.approx(-0.039720770839917874, rel=1e-12)
        assert aux_a(3, 0.7) == pytest.approx(0.036424476106657666, rel=1e-12)
        assert aux_a(3, 0.5) < 0.0 < aux_a(3, 0.7)

    def test_limit_at_one(self):
        for p in (3, 9, 16):
            assert aux_a(p, 1.0 - 1e-12) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_q_at_one(self):
        with pytest.raises(ValueError):
            aux_a(3, 1.0)


class TestSolveQc:
    def test_p3_against_scan_oracle(self):
        """Bisection oracle on a sign scan at 1e-6 resolution."""
        grid = np.linspace(1e-6, 1.0 - 1e-9, 1_000_001)
        intervals = sign_change_intervals(lambda q: aux_a(3, q), grid)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        q_ref = bisect(lambda q: aux_a(3, q), lo, hi)
        assert solve_qc(3) == pytest.approx(q_ref, abs=1e-10)
        assert solve_qc(3) == pytest.approx(0.6450074513, abs=1e-8)

    def test_unique_interior_root_all_p(self):
        """Exactly one sign change of a(q) on a 1e-5 grid, p = 3..16."""
        grid = np.arange(1e-5, 1.0 - 1e-9, 1e-5)
        for p in range(3, 17):
            vals = p * (1.0 - grid) * np.log1p(-grid) + p * grid - (p - 1) * grid * grid
            changes = np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
            assert changes == 1, f"p={p}"
            q_c = solve_qc(p)
            assert abs(aux_a(p, q_c)) <= 1e-13

    def test_within_2_ulps_of_the_40_digit_root(self):
        errors = {}
        for p in (*range(3, 41), 1000, 100000):
            q_c, root = solve_qc(p), qc_highprec(p)
            with mp.workdps(40):
                errors[p] = float(abs(mpf(q_c) - root)) / math.ulp(q_c)
        assert max(errors.values()) <= 2.0, errors

    def test_bracket_ends_where_a_at_q_cap_turns_negative(self):
        # a(Q_CAP) is about 1 - 2.7e-11 p: positive at 1e10, negative at 4e10
        p = 10**10
        assert abs(aux_a(p, solve_qc(p))) <= 1e-13 * p
        with pytest.raises(BracketError):
            solve_qc(4 * 10**10)

    def test_rejects_p2(self):
        with pytest.raises(ValueError):
            solve_qc(2)

    @pytest.mark.parametrize("p", [3, 16, 1000, 100000])
    def test_root_off_by_1e6_fails_the_polish_check(self, p, monkeypatch):
        # the bound on |a(q_c)| grows with p, but a root 1e-6 away still fails it
        solve = critical.bisect_root
        monkeypatch.setattr(critical, "bisect_root", lambda f, lo, hi: solve(f, lo, hi) - 1e-6)
        with pytest.raises(RuntimeError, match="root polish failed"):
            solve_qc(p)


class TestBisectSecant:
    def test_rejects_interval_without_sign_change(self):
        with pytest.raises(BracketError):
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_exact_zero_endpoint_returned_as_is(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.25

        assert bisect_root(f, 0.25, 1.0) == 0.25
        assert bisect_root(f, -1.0, 0.25) == 0.25
        assert calls == [0.25, 1.0, -1.0, 0.25]  # endpoints only, no bisection

    def test_root_at_floating_point_resolution(self):
        # f(x) is zero, or changes sign between x and one of its neighbouring doubles
        def at_resolution(f, x):
            fx = f(x)
            return fx == 0.0 or any((f(np.nextafter(x, side)) < 0.0) != (fx < 0.0)
                                    for side in (-np.inf, np.inf))

        def cube(t):
            return t**3 - 2.0

        assert at_resolution(cube, bisect_root(cube, 0.0, 3.0))
        for p in (*range(3, 17), 1000, 5000, 100000):
            assert at_resolution(lambda q: aux_a(p, q), solve_qc(p)), f"p={p}"


class TestSolveCritical:
    def test_p2_closed_forms(self):
        cp = solve_critical(2)
        assert cp.q_c == 0.0
        assert cp.beta_c == pytest.approx(1.0 / SQRT2, abs=1e-15)
        assert cp.e_star == pytest.approx(SQRT2, abs=1e-15)
        assert cp.e_inf == pytest.approx(SQRT2, abs=1e-15)

    def test_p3_values(self):
        cp = solve_critical(3)
        assert cp.beta_c == pytest.approx(1.2065557346, abs=1e-9)
        assert cp.e_star == pytest.approx(1.6569983635, abs=1e-9)

    def test_formula_consistency(self):
        """beta_c and e_star follow from q_c by their closed forms."""
        for p in range(3, 17):
            cp = solve_critical(p)
            assert cp.beta_c == pytest.approx(
                cp.q_c ** (1 - p / 2) / math.sqrt(p * (1 - cp.q_c)), rel=1e-14
            )
            root = math.sqrt((p - 1) * (1 - cp.q_c))
            assert cp.e_star == pytest.approx(0.5 * cp.e_inf * (1 / root + root), rel=1e-14)

    def test_ground_state_above_threshold(self):
        for p in range(2, 17):
            cp = solve_critical(p)
            assert cp.e_star >= cp.e_inf

    def test_residuals_small_for_all_p(self):
        for p in range(3, 17):
            cp = solve_critical(p)
            res = residuals_prop(p, cp.beta_c, cp.q_c, cp.e_star)
            assert max(map(abs, astuple(res))) <= 1e-9, f"p={p}: {res}"

    def test_cross_identity_with_t_minus(self):
        """beta_c q_c^(p/2-1)(1-q_c) equals the smaller quadratic root."""
        for p in range(3, 17):
            cp = solve_critical(p)
            t_minus, _ = t_pm(p, cp.e_star)
            assert cp.beta_c * overlap_polynomial(p, cp.q_c) == pytest.approx(
                t_minus, abs=1e-9
            )


class TestAbcComplexity:
    """e_star against the complexity of local maxima (Auffinger, Ben Arous and Cerny)."""

    def test_zero_is_the_ground_state_energy(self):
        for p in range(3, 17):
            e_inf = 2.0 * math.sqrt((p - 1) / p)
            zero = bisect(lambda u: abc_complexity(p, u), -2.0 * e_inf, -e_inf * (1.0 + 1e-12))
            assert abs(zero + solve_critical(p).e_star) <= 1e-12, f"p={p}"

    def test_positive_just_below_threshold(self):
        for p in range(3, 17):
            e_inf = 2.0 * math.sqrt((p - 1) / p)
            assert abc_complexity(p, -e_inf * (1.0 + 1e-9)) > 0.0, f"p={p}"
        assert abc_complexity(3, -2.0 * math.sqrt(2.0 / 3.0) * (1.0 + 1e-9)) == pytest.approx(
            0.5 * math.log(2.0) - 1.0 / 3.0, abs=1e-6)


class TestResiduals:
    def test_sensitivity_to_perturbation(self):
        cp = solve_critical(3)
        res = residuals_prop(3, cp.beta_c, cp.q_c + 0.01, cp.e_star)
        assert abs(res.r_I) > 1e-3

    def test_p2_family_solves_first_equation(self):
        """(beta, 1 - 1/(sqrt(2) beta), sqrt(2)) zeroes the first equation."""
        for beta in (0.8, 1.0, 2.5, 10.0):
            q = 1.0 - 1.0 / (SQRT2 * beta)
            res = residuals_prop(2, beta, q, SQRT2)
            assert abs(res.r_I) <= 1e-12

    def test_p2_critical_point_is_accepted(self):
        """q = 0 at p = 2 gives the closed-form residuals the CLI reported."""
        cp = solve_critical(2)
        assert (cp.beta_c, cp.e_star) == (1.0 / math.sqrt(2.0), math.sqrt(2.0))  # to the bit
        res = residuals_prop(2, cp.beta_c, 0.0, cp.e_star)
        assert res.r_I == 1.0 + 2.0 * cp.beta_c**2 - 2.0 * math.sqrt(2.0) * cp.beta_c
        assert (res.r_IIa, res.r_IIb) == (0.0, 0.0)
        assert max(map(abs, astuple(res))) <= 1e-15

    def test_rejects_boundary_q(self):
        with pytest.raises(ValueError):
            residuals_prop(3, 1.0, 0.0, 1.6)
        with pytest.raises(ValueError):
            residuals_prop(3, 1.0, 1.0, 1.6)


class TestP2MatchingResidual:
    def test_zero_at_critical_point(self):
        assert abs(p2_betac_residual(1.0 / SQRT2)) <= 1e-12

    def test_nonzero_away_from_root(self):
        # high-precision oracle value of (1/2 - sqrt(2) + 3/4 + log(2)/4)
        assert p2_betac_residual(1.0) == pytest.approx(0.009073232766891278, rel=1e-10)
        assert p2_betac_residual(1.0) == pytest.approx(
            p2_matching_residual_highprec(1.0), rel=1e-10
        )

    def test_strictly_monotone_on_grid(self):
        grid = np.arange(0.01, 4.0, 0.01)
        vals = [p2_betac_residual(b) for b in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_unique_zero(self):
        grid = np.arange(0.01, 4.0, 0.0005)
        vals = np.array([p2_betac_residual(b) for b in grid])
        assert np.sum(np.sign(vals[:-1]) != np.sign(vals[1:])) == 1

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            p2_betac_residual(0.0)
