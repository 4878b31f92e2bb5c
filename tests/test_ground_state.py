"""Ground-state search against spectral and trivial oracles."""

import numpy as np
import pytest

from pspin.simulator import DisorderTensor, ground_state_search, hamiltonian, sample_disorder

from oracles import top_eigenvalue_power


class TestTrivialCases:
    def test_zero_disorder(self):
        J = DisorderTensor(6, 3, np.zeros(216), seed=None)
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
                      "restart_gradient_norms"):
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
