"""Ground-state search against spectral and trivial oracles."""

import tracemalloc

import numpy as np
import pytest

from pspin.simulator import (
    DisorderTensor,
    gradient,
    ground_state_search,
    hamiltonian,
    random_configuration,
    sample_disorder,
)
from pspin.simulator import disorder, ground_state

from oracles import top_eigenvalue_power


class TestTrivialCases:
    def test_zero_disorder(self):
        J = DisorderTensor(6, 3, np.zeros(216))
        res = ground_state_search(J, restarts=2, max_iters=50)
        assert res.energy_per_spin == 0.0
        assert res.converged
        assert res.restart_stop_reasons == ("tol", "tol")
        assert res.restart_iterations == (0, 0)

    def test_stays_on_sphere(self):
        J = sample_disorder(12, 3, seed=4)
        res = ground_state_search(J, restarts=3, max_iters=500, seed=1)
        assert res.sigma @ res.sigma == pytest.approx(12.0, rel=1e-10)

    def test_builds_no_sym(self):
        # the search reads the raw couplings; sym is the tempering chains'
        J = sample_disorder(10, 3, seed=8)
        ground_state_search(J, restarts=2, max_iters=50, seed=2)
        assert "sym" not in vars(J)

    def test_reported_energy_matches_configuration(self):
        J = sample_disorder(10, 3, seed=8)
        res = ground_state_search(J, restarts=3, max_iters=500, seed=2)
        assert res.energy_per_spin == pytest.approx(hamiltonian(J, res.sigma) / 10, rel=1e-12)

    def test_restart_bookkeeping(self):
        J = sample_disorder(10, 3, seed=8)
        res = ground_state_search(J, restarts=5, max_iters=500, seed=2)
        assert len(res.restart_energies) == 5
        assert res.energy_per_spin == max(res.restart_energies)
        for field in ("restart_converged", "restart_iterations", "restart_stop_reasons",
                      "restart_gradient_norms", "restart_newton_steps"):
            assert len(getattr(res, field)) == 5
        for ok, reason, gnorm in zip(res.restart_converged, res.restart_stop_reasons,
                                     res.restart_gradient_norms):
            assert ok == (reason == "tol") and (gnorm <= 1e-7) == ok

    def test_iteration_cap_is_not_convergence(self):
        J = sample_disorder(10, 3, seed=8)
        res = ground_state_search(J, restarts=3, max_iters=1, seed=2)
        assert res.restart_stop_reasons == ("max_iters",) * 3
        assert res.restart_iterations == (1, 1, 1)
        assert not res.converged and not any(res.restart_converged)
        assert min(res.restart_gradient_norms) > 1e-7

    def test_rejects_no_restarts(self):
        J = sample_disorder(6, 2, seed=0)
        with pytest.raises(ValueError):
            ground_state_search(J, restarts=0)

    def test_rejects_negative_max_iters(self):
        # -1 would leave every restart unset; 0 takes one gradient and stops
        J = sample_disorder(6, 2, seed=0)
        with pytest.raises(ValueError, match="max_iters"):
            ground_state_search(J, restarts=3, max_iters=-1)
        res = ground_state_search(J, restarts=3, max_iters=0)
        assert res.restart_iterations == (0, 0, 0)
        assert set(res.restart_stop_reasons) <= {"tol", "max_iters"}

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-7])
    def test_rejects_tol_not_finite_and_positive(self, tol):
        # nan never stops a restart early; inf stops every one before it moves
        J = sample_disorder(6, 2, seed=0)
        with pytest.raises(ValueError, match="tol"):
            ground_state_search(J, restarts=2, tol=tol)


class TestLineSearch:
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_circle_coefficients_match_energies(self, p):
        n = {2: 9, 3: 7, 4: 6, 5: 5, 6: 4}[p]
        J = sample_disorder(n, p, seed=40 + p)
        rng = np.random.default_rng(p)
        sigma = np.stack([random_configuration(n, rng) for _ in range(3)])
        v = rng.standard_normal(sigma.shape)
        v -= ((v * sigma).sum(axis=1) / n)[:, None] * sigma
        v *= (np.sqrt(n) / np.linalg.norm(v, axis=1))[:, None]
        T = J.entries.reshape(n, -1)
        a = J.norm_factor * ground_state._circle_coefficients(sigma @ T, v @ T, sigma, v)
        assert a.shape == (3, p + 1)
        angles = np.linspace(0.3, 6.0, 7)
        on_circle = ground_state._basis(angles, p) @ a.T  # (angles, rows)
        for i, t in enumerate(angles):
            exact = hamiltonian(J, np.cos(t) * sigma + np.sin(t) * v)
            assert np.all(np.abs(on_circle[i] - exact) <= 1e-12 * np.abs(a).sum(axis=1))

    def test_carried_prefix_stays_exact(self):
        # the prefix follows the moves without a fresh read; the reported energy
        # and the stopping gradient must still be those of the final configuration
        n, tol = 16, 1e-9
        J = sample_disorder(n, 4, seed=12)
        res = ground_state_search(J, restarts=4, max_iters=4000, tol=tol, seed=5)
        assert res.converged
        assert abs(res.energy_per_spin - hamiltonian(J, res.sigma) / n) <= 1e-12
        g = gradient(J, res.sigma)
        tangent = g - (g @ res.sigma / n) * res.sigma
        assert np.linalg.norm(tangent) / np.sqrt(n) <= 1.01 * tol

    def test_chunks_match_one_chunk_and_bound_memory(self, monkeypatch):
        n, p = 8, 3
        J = sample_disorder(n, p, seed=5)
        whole = ground_state_search(J, restarts=7, tol=1e-9, seed=3)
        block = 3 * n ** (p - 1)  # three rows of prefix per chunk
        monkeypatch.setattr(disorder, "_BLOCK_ENTRIES", block)
        chunks, ascend = [], ground_state._ascend

        def counted(J, sigma, *args):
            chunks.append(len(sigma))
            return ascend(J, sigma, *args)

        monkeypatch.setattr(ground_state, "_ascend", counted)
        tracemalloc.start()
        try:
            split = ground_state_search(J, restarts=7, tol=1e-9, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunks == [3, 3, 1]
        assert split.restart_stop_reasons == whole.restart_stop_reasons
        np.testing.assert_allclose(split.restart_energies, whole.restart_energies,
                                   rtol=0, atol=1e-12)
        # a few blocks of intermediates over a fixed cost; the one-chunk run peaks near 30 KB
        assert peak <= 16 * 1024 + 4 * 8 * block


class TestNewton:
    @pytest.mark.parametrize("p, n", [(3, 7), (4, 6), (5, 5), (3, 2)])
    def test_hessian_matches_einsum_oracle(self, p, n):
        # the defining sum over ordered pairs of distinct slots, the others against sigma
        J = sample_disorder(n, p, seed=60 + p)
        rng = np.random.default_rng(p + n)
        sigma = np.stack([random_configuration(n, rng) for _ in range(3)])
        axes = "abcde"[:p]
        oracle = np.zeros((3, n, n))
        for a in axes:
            for b in axes:
                if a != b:
                    others = [c for c in axes if c not in (a, b)]
                    subscripts = ",".join([axes] + ["r" + c for c in others]) + "->r" + a + b
                    oracle += np.einsum(subscripts, J.tensor(), *[sigma] * len(others))
        T = J.entries.reshape(n, -1)
        hess = ground_state._hessian(J, sigma, sigma @ T, sigma @ T.reshape(-1, n).T)
        np.testing.assert_allclose(hess, J.norm_factor * oracle, rtol=1e-12)

    @pytest.mark.parametrize("top, newton_steps", [(True, 1), (False, 0)])
    def test_newton_only_where_the_tangent_hessian_is_negative_definite(
            self, monkeypatch, top, newton_steps):
        # at odd p the energy is odd, so -sigma is a local minimum wherever sigma is a local
        # maximum, with the same tangent gradient; a nudge puts its norm between tol and 1e-3
        n, tol = 12, 1e-7
        J = sample_disorder(n, 3, seed=21)
        peak = ground_state_search(J, restarts=1, tol=1e-12, seed=0).sigma
        x = (1 if top else -1) * peak + 1e-5 * np.random.default_rng(3).standard_normal(n)
        sigma = (x * np.sqrt(n) / np.linalg.norm(x))[None]
        g = gradient(J, sigma[0])
        assert tol < np.linalg.norm(g - (g @ sigma[0] / n) * sigma[0]) / np.sqrt(n) < 1e-3
        final, _, gnorm, _, _, newton = ground_state._ascend(J, sigma, 1, tol)
        monkeypatch.setattr(ground_state, "_NEWTON_GNORM", 0.0)
        cg_final, _, cg_gnorm, _, _, cg_newton = ground_state._ascend(J, sigma, 1, tol)
        assert list(newton) == [newton_steps] and list(cg_newton) == [0]
        if top:  # quadratic convergence where CG gains a factor of a few
            assert gnorm[0] < 1e-8 < 1e-6 < cg_gnorm[0]
        else:  # the PR+ step, to the bit
            assert np.array_equal(final, cg_final) and np.array_equal(gnorm, cg_gnorm)

    @staticmethod
    def _nudged_peak(n, sign, nudge=3):
        J = sample_disorder(n, 3, seed=21)
        peak = ground_state_search(J, restarts=1, tol=1e-12, seed=0).sigma
        x = sign * peak + 1e-5 * np.random.default_rng(nudge).standard_normal(n)
        return J, x * np.sqrt(n) / np.linalg.norm(x)

    def test_one_factorization_sorts_a_mixed_stack(self):
        # the nudged peak and its mirror in one stack: each row's own Cholesky test gives
        # the peak its Newton step and leaves the mirror on CG
        n = 12
        J, top = self._nudged_peak(n, 1)
        _, bottom = self._nudged_peak(n, -1)
        *_, newton = ground_state._ascend(J, np.stack([top, bottom]), 1, 1e-7)
        assert list(newton) == [1, 0]

    def test_each_trying_row_is_factored_once(self, monkeypatch):
        # two nudged peaks around a nudged mirror: each row is tested by its own Cholesky
        # factorization, against the eigenvalues of the negated tangent Hessian
        n, p = 12, 3
        J, top = self._nudged_peak(n, 1)
        _, bottom = self._nudged_peak(n, -1)
        _, other = self._nudged_peak(n, 1, nudge=4)
        T = J.entries.reshape(n, -1)
        cholesky = np.linalg.cholesky

        def directions(x):
            g = gradient(J, x)
            h = (g * x).sum(axis=1) / p
            tangent = g - (p * h / n)[:, None] * x
            B = ground_state._hessian(J, x, x @ T, x @ T.reshape(-1, n).T)
            P = np.eye(n) - x[:, :, None] * x[:, None, :] / n
            negated = x[:, :, None] * x[:, None, :] / n - P @ (
                B - (p * h / n)[:, None, None] * np.eye(n)) @ P
            definite = np.linalg.eigvalsh(negated).min(axis=1) > 0
            calls = []
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
                eta, ok = ground_state._newton_directions(J, x, B, h, tangent)
            assert calls == [(n, n)] * len(x)
            return eta, ok, definite, negated, tangent

        eta, ok, definite, negated, tangent = directions(np.stack([top, bottom, other]))
        assert list(definite) == [True, False, True] and np.array_equal(ok, definite)
        assert eta.shape == (2, n)
        residual = (negated[ok] @ eta[:, :, None])[:, :, 0] - tangent[ok]
        assert np.all(np.linalg.norm(residual, axis=1)
                      <= 1e-10 * np.linalg.norm(tangent[ok], axis=1))

        eta, ok, definite, *_ = directions(bottom[None])
        assert not definite.any() and not ok.any()
        assert eta.shape == (0, n)

    def test_failed_newton_try_waits_for_the_gradient_norm_to_halve(self, monkeypatch):
        # a start whose ascent fails the Cholesky test twice under the threshold; after each
        # failure the row is passed to _newton_directions again only once its norm has halved
        n = 12
        J = sample_disorder(n, 3, seed=23)
        sigma = random_configuration(n, np.random.default_rng(1))[None]
        norms, tries = [], []
        directions, grad = ground_state._newton_directions, ground_state.gradient

        def counted(J, x, B, h, tangent):
            eta, ok = directions(J, x, B, h, tangent)
            tries.extend(zip(np.linalg.norm(tangent, axis=1) / np.sqrt(n), ok))
            return eta, ok

        def traced(J, x, **kwargs):
            g = grad(J, x, **kwargs)
            norms.append(np.linalg.norm(g - (g @ x[0] / n) * x) / np.sqrt(n))
            return g

        monkeypatch.setattr(ground_state, "_newton_directions", counted)
        monkeypatch.setattr(ground_state, "gradient", traced)
        *_, reasons, newton = ground_state._ascend(J, sigma, 2000, 1e-7)
        assert reasons == ["tol"] and [ok for _, ok in tries][:3] == [False, False, True]
        assert newton[0] == sum(ok for _, ok in tries)
        expected, retry = [], ground_state._NEWTON_GNORM
        for gnorm in norms[:-1]:  # the last gradient stops the row
            if gnorm <= retry:
                expected.append(gnorm)
                if not tries[len(expected) - 1][1]:
                    retry = gnorm / 2
        np.testing.assert_allclose([gnorm for gnorm, _ in tries], expected, rtol=1e-12)
        assert len(tries) < sum(gnorm <= ground_state._NEWTON_GNORM for gnorm in norms[:-1])

    def test_p2_takes_no_newton_step_and_bounds_memory(self, monkeypatch):
        # a p = 2 iteration costs n^2 per row, so CG finishes: an n x n Hessian per row
        # would cost more than the iterations it saves and outgrow the chunk's prefixes
        n = 40
        J = sample_disorder(n, 2, seed=5)
        whole = ground_state_search(J, restarts=7, tol=1e-9, seed=3)
        block = 3 * n  # three rows of prefix per chunk
        monkeypatch.setattr(disorder, "_BLOCK_ENTRIES", block)
        tracemalloc.start()
        try:
            split = ground_state_search(J, restarts=7, tol=1e-9, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(split.restart_stop_reasons) == {"tol"}
        assert whole.restart_newton_steps == split.restart_newton_steps == (0,) * 7
        np.testing.assert_allclose(split.restart_energies, whole.restart_energies,
                                   rtol=0, atol=1e-12)
        # rows of n (the chunk's working arrays, the restarts' starts and ends) over a fixed
        # cost, near 28 KB; three Hessians would add 38 KB
        assert peak <= 16 * 1024 + 32 * 8 * block

    def test_quadratic_finish(self):
        # the gstate-p3-n64 configuration: each restart ends on a few Newton steps
        J = sample_disorder(64, 3, seed=9000)
        res = ground_state_search(J, restarts=50, seed=17)
        assert set(res.restart_stop_reasons) == {"tol"}
        assert 2 <= min(res.restart_newton_steps) and max(res.restart_newton_steps) <= 6
        assert res.energy_per_spin == pytest.approx(1.616109962646, rel=1e-12)

    def test_no_newton_step_above_its_threshold(self):
        # a tol above the threshold stops every restart before it could try one
        J = sample_disorder(64, 3, seed=9000)
        res = ground_state_search(J, restarts=50, tol=0.2, seed=17)
        assert 0.2 > ground_state._NEWTON_GNORM
        assert res.restart_newton_steps == (0,) * 50


class TestSpectralReduction:
    def test_p2_matches_power_iteration(self):
        """For p=2 the maximum is the top eigenvalue of (J + J^T)/(2 sqrt(n))."""
        for s in range(4):
            J = sample_disorder(32, 2, seed=100 + s)
            M = (J.tensor() + J.tensor().T) / (2.0 * np.sqrt(32))
            lam = top_eigenvalue_power(M)
            res = ground_state_search(J, restarts=4, max_iters=6000, tol=1e-9, seed=7)
            assert res.energy_per_spin == pytest.approx(lam, rel=1e-8)

    def test_determinism(self):
        J = sample_disorder(16, 3, seed=3)
        a = ground_state_search(J, restarts=3, max_iters=300, seed=11)
        b = ground_state_search(J, restarts=3, max_iters=300, seed=11)
        assert a.restart_energies == b.restart_energies
        assert np.array_equal(a.sigma, b.sigma)
