"""Geodesic HMC/replica-exchange sampler, thermodynamic integration, probe."""

import numpy as np
import pytest

from pspin import free_energy, solve_critical
from pspin.simulator import (
    TemperingEnsemble,
    batch_means_stderr,
    default_ladder,
    hamiltonian,
    overlap_probe,
    sample_disorder,
    split_rhat,
    tempering_sweep,
    thermo_integration,
)
from pspin.simulator.mcmc import ADAPT_WINDOW, _energy_gradient, _leapfrog

from oracles import circle_log_partition


def make_ensemble(n=10, p=3, betas=(0.0, 0.4, 0.8), seed=5):
    J = sample_disorder(n, p, seed=123)
    return TemperingEnsemble(J, np.array(betas), seed=seed)


class TestEnsembleBasics:
    def test_ladder_validation(self):
        J = sample_disorder(6, 3, seed=1)
        with pytest.raises(ValueError):
            TemperingEnsemble(J, [0.4, 0.4], seed=0)
        with pytest.raises(ValueError):
            TemperingEnsemble(J, [-0.1, 0.5], seed=0)
        # a NaN rung once ran with a NaN step size and never moved
        for betas in ([0.0, np.nan], [np.nan], [0.0, np.inf], [-np.inf, 0.0]):
            with pytest.raises(ValueError, match="finite"):
                TemperingEnsemble(J, betas, seed=0)

    def test_rejects_an_empty_seed_list(self):
        # it once reached the first draw and failed there reshaping an empty array
        J = sample_disorder(6, 3, seed=1)
        for seed in ([], ()):
            with pytest.raises(ValueError, match="seed list"):
                TemperingEnsemble(J, [0.0, 0.5], seed=seed)

    def test_initial_configurations_on_sphere(self):
        ens = make_ensemble()
        norms = np.sum(ens.configs**2, axis=1)
        np.testing.assert_allclose(norms, 10.0, rtol=1e-10)

    def test_energies_cached_consistently(self):
        ens = make_ensemble()
        tempering_sweep(ens, 5, record=False)
        np.testing.assert_allclose(
            ens.energies, hamiltonian(ens.disorder, ens.configs), rtol=1e-10
        )

    def test_replica_axis_shapes(self):
        J = sample_disorder(10, 3, seed=123)
        ens = TemperingEnsemble(J, [0.0, 0.4, 0.8], seed=[1, 2])
        tempering_sweep(ens, 3)
        assert ens.configs.shape == (2, 3, 10)
        assert ens.energies.shape == ens.deltas.shape == ens.acceptance_rates().shape == (2, 3)
        assert ens.swap_rates().shape == (2, 2)
        assert np.array(ens.history).shape == (2, 3, 3)
        np.testing.assert_allclose(np.sum(ens.configs**2, axis=-1), 10.0, rtol=1e-10)

    def test_replica_matches_lone_ladder(self):
        # same draws as a lone ladder with the replica's seed; only the GEMM's
        # last bits depend on how many rows share the energy call
        J = sample_disorder(10, 3, seed=123)
        seeds = [np.random.SeedSequence((8, i)) for i in range(3)]
        stacked = TemperingEnsemble(J, [0.0, 0.4, 0.8], seed=seeds)
        tempering_sweep(stacked, 5)
        for i, s in enumerate(seeds):
            lone = TemperingEnsemble(J, [0.0, 0.4, 0.8], seed=s)
            tempering_sweep(lone, 5)
            np.testing.assert_allclose(stacked.configs[i], lone.configs, rtol=1e-10)
            np.testing.assert_allclose(stacked.history[i], lone.history, rtol=1e-10)
            assert stacked._steps == lone._steps
            assert np.array_equal(stacked._accepts[i], lone._accepts)
            assert np.array_equal(stacked._swap_accepts[i], lone._swap_accepts)


class TestMetropolisStep:
    def test_beta_zero_always_accepts(self):
        ens = make_ensemble(betas=(0.0, 0.5))
        for _ in range(200):
            ens._step()
        assert ens._steps == 200 and ens._accepts[0] == 200

    def test_sphere_preserved_each_step(self):
        ens = make_ensemble(seed=[5, 6])
        for _ in range(100):
            ens._step()
            np.testing.assert_allclose(np.sum(ens.configs**2, axis=-1), 10.0, rtol=1e-12)
        exact = hamiltonian(ens.disorder, ens.configs.reshape(-1, 10)).reshape(2, 3)
        np.testing.assert_allclose(ens.energies, exact, rtol=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_leapfrog_reverses_with_negated_momentum(self, p):
        # kick, rotate, kick from (sigma', -v') lands on (sigma, -v): the map is
        # its own inverse up to the momentum's sign, which detailed balance needs
        J = sample_disorder(9, p, seed=p)
        rng = np.random.default_rng(p)
        sigma = rng.standard_normal((4, 9))
        sigma *= 3.0 / np.linalg.norm(sigma, axis=-1, keepdims=True)
        v = rng.standard_normal((4, 9))
        v -= np.sum(v * sigma, axis=-1, keepdims=True) / 9.0 * sigma
        betas, eps = np.array([0.0, 0.5, 1.0, 2.0]), np.array([0.3, 1.0, 0.7, 2.5])
        _, g = _energy_gradient(J, sigma)
        moved, w, _, g_moved = _leapfrog(J, sigma, v, g, betas, eps)
        assert np.max(np.abs(moved - sigma)) > 0.1
        back, u, h_back, _ = _leapfrog(J, moved, -w, g_moved, betas, eps)
        np.testing.assert_allclose(back, sigma, rtol=0, atol=1e-12)
        np.testing.assert_allclose(u, -v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(h_back, hamiltonian(J, sigma), rtol=1e-12)

    def test_fixed_seed_reproduces_trajectory(self):
        a = make_ensemble(seed=77)
        b = make_ensemble(seed=77)
        for _ in range(120):  # through two adaptation windows
            a._step()
            b._step()
        assert np.array_equal(a.configs, b.configs)
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.deltas, b.deltas)

    def test_window_rescales_every_chain(self):
        # every move accepts at beta 0, so a full window scales its step up
        ens = make_ensemble(betas=(0.0,))
        for _ in range(ADAPT_WINDOW - 1):
            ens._step()
        assert ens.deltas.tolist() == [1.0]
        ens._step()
        assert ens.deltas.tolist() == [1.25]

    def test_step_draws_one_block_per_replica(self):
        # each replica's generator gives one (rungs, n) block of momenta, then
        # one (rungs,) block of uniforms, as calls with a size would
        ens = make_ensemble(seed=[7, 8])
        ens._step()
        for seed, rng, noise in zip((7, 8), ens.rngs, ens._noise):
            ref = np.random.default_rng(seed)
            ref.standard_normal((3, 10))  # the starting points
            assert np.array_equal(ref.standard_normal((3, 10)), noise)
            ref.random(3)
            assert ref.bit_generator.state == rng.bit_generator.state


class TestTemperingSweep:
    def test_single_rung_is_plain_metropolis(self):
        ens = make_ensemble(betas=(0.7,))
        tempering_sweep(ens, 10)
        assert ens._swap_attempts[0] == 0
        assert len(ens.history[0]) == 10

    @pytest.mark.parametrize("seed", [5, [5, 6]])
    def test_one_rung_swap_phase_changes_nothing(self, seed):
        # no adjacent pair: zero uniforms drawn, no row moved, no counter touched
        ens = make_ensemble(betas=(0.7,), seed=seed)
        tempering_sweep(ens, 2)

        def snapshot():
            return ([rng.bit_generator.state for rng in ens.rngs],
                    [a.copy() for a in (ens.configs, ens.grads, ens.energies,
                                        ens._swap_attempts, ens._swap_accepts)])

        before = snapshot()
        for parity in (0, 1):
            ens._swap_phase(parity)
        np.testing.assert_equal(snapshot(), before)

    def test_equal_beta_swap_always_accepted(self):
        # a two-rung ladder cannot have equal betas, so drive the swap phase
        # directly on a cloned state: exponent (b_i - b_j)(H_j - H_i) = 0
        ens = make_ensemble(betas=(0.3, 0.5))
        ens.betas = np.array([0.4, 0.4])
        before = ens._swap_accepts.copy()
        for _ in range(20):
            ens._swap_phase(0)
        assert ens._swap_accepts[0] - before[0] == 20

    def test_swaps_trade_rows_in_place(self):
        ens = make_ensemble(betas=(0.3, 0.5, 0.7), seed=[5, 6])
        state = ens.configs, ens.grads, ens.energies
        tempering_sweep(ens, 3)
        assert all(a is b for a, b in zip(state, (ens.configs, ens.grads, ens.energies)))
        ens.betas = np.array([0.4, 0.4, 0.7])  # the pair (0, 1) always swaps
        before = [a.copy() for a in state]
        ens._swap_phase(0)
        for a, b in zip(state, before):
            assert np.array_equal(a, b[:, [1, 0, 2]])

    def test_acceptance_rates_in_unit_interval(self):
        ens = make_ensemble()
        tempering_sweep(ens, 30)
        rates = ens.acceptance_rates()
        assert np.all(rates >= 0.0) and np.all(rates <= 1.0)
        swaps = ens.swap_rates()
        assert np.all(swaps[~np.isnan(swaps)] >= 0.0)

    def test_sweep_determinism_bit_identical(self):
        a = make_ensemble(seed=31)
        b = make_ensemble(seed=31)
        tempering_sweep(a, 25)
        tempering_sweep(b, 25)
        assert np.array_equal(a.configs, b.configs)
        assert np.array_equal(a.history, b.history)

    def test_adaptation_freezes(self):
        ens = make_ensemble()
        tempering_sweep(ens, 20, record=False)
        ens.freeze()
        deltas = ens.deltas.copy()
        tempering_sweep(ens, 20, record=False)
        assert np.array_equal(ens.deltas, deltas)


class TestHistory:
    def test_lone_ladder_is_rungs_by_sweeps(self):
        ens = make_ensemble()
        assert isinstance(ens.history, np.ndarray) and ens.history.shape == (ens.n_rungs, 0)
        tempering_sweep(ens, 4, record=False)
        assert ens.history.shape == (ens.n_rungs, 0)
        tempering_sweep(ens, 3)
        assert ens.history.shape == (ens.n_rungs, 3)
        np.testing.assert_array_equal(ens.history[:, -1], ens.energies / ens.disorder.n)

    def test_replica_ladders_lead_with_the_replica_axis(self):
        J = sample_disorder(10, 3, seed=123)
        ens = TemperingEnsemble(J, [0.0, 0.4, 0.8], seed=[1, 2])
        assert isinstance(ens.history, np.ndarray) and ens.history.shape == (2, 3, 0)
        tempering_sweep(ens, 2)
        assert ens.history.shape == (2, 3, 2)
        assert ens.history.flags.c_contiguous
        np.testing.assert_array_equal(ens.history[..., -1], ens.energies / 10)


def per_rung_thermo_loop(ensemble):
    """``thermo_integration``'s earlier per-rung loop over list histories, the bit-level oracle."""
    history = np.moveaxis(np.reshape(ensemble._records, (-1, ensemble.n_rungs)), 0, -1).tolist()
    betas = ensemble.betas
    means = np.array([np.mean(h) for h in history])
    errs = np.array([batch_means_stderr(h) for h in history])
    rates = ensemble.acceptance_rates()
    points, f, var = [], 0.0, 0.0
    for i, beta in enumerate(betas):
        if i > 0:
            db = betas[i] - betas[i - 1]
            f += 0.5 * db * (means[i - 1] + means[i])
            var += (0.5 * db) ** 2 * (errs[i - 1] ** 2 + errs[i] ** 2)
        points.append((float(beta), f if i > 0 else 0.0, float(np.sqrt(var)), float(means[i]),
                       float(rates[i]), bool(rates[i] >= 0.01)))
    return points


class TestThermoIntegration:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_matches_the_per_rung_loop_bit_for_bit(self, seed):
        J = sample_disorder(12, 3, seed=seed)
        ens = TemperingEnsemble(J, default_ladder(1.5, 9, beta_c=1.2), seed=seed)
        tempering_sweep(ens, 20, record=False)
        ens.freeze()
        tempering_sweep(ens, 60)
        got = [(pt.beta, pt.f_estimate, pt.stderr, pt.mean_energy, pt.acceptance,
                pt.equilibrated) for pt in thermo_integration(ens)]
        assert got == per_rung_thermo_loop(ens)

    def test_zero_beta_is_exact_zero(self):
        ens = make_ensemble()
        tempering_sweep(ens, 50)
        pts = thermo_integration(ens)
        assert pts[0].f_estimate == 0.0
        assert pts[0].beta == 0.0

    def test_requires_zero_start(self):
        ens = make_ensemble(betas=(0.1, 0.5))
        tempering_sweep(ens, 10)
        with pytest.raises(ValueError):
            thermo_integration(ens)

    def test_rejects_replica_ladders(self):
        J = sample_disorder(10, 3, seed=123)
        ens = TemperingEnsemble(J, [0.0, 0.4], seed=[1, 2])
        tempering_sweep(ens, 10)
        with pytest.raises(ValueError):
            thermo_integration(ens)

    def test_requires_recorded_history(self):
        ens = make_ensemble()
        with pytest.raises(ValueError):
            thermo_integration(ens)

    def test_matches_circle_quadrature_n2(self):
        """n=2, p=2: the estimate agrees with exact angular quadrature."""
        J = sample_disorder(2, 2, seed=5)
        M = (J.tensor() + J.tensor().T) / (2.0 * np.sqrt(2.0))
        ladder = np.linspace(0.0, 1.0, 11)
        ens = TemperingEnsemble(J, ladder, seed=17)
        tempering_sweep(ens, 300, record=False)
        ens.freeze()
        tempering_sweep(ens, 3000, record=True)
        pts = thermo_integration(ens)
        for i in (5, 10):
            exact = circle_log_partition(M, ladder[i])
            assert abs(pts[i].f_estimate - exact) <= 3.0 * pts[i].stderr

    @pytest.mark.parametrize("eps", [0.5, 1.0, 3.0])
    def test_frozen_step_matches_circle_quadrature(self, eps):
        """n=2, p=2, one rung at beta=1: any frozen step size samples the exact mean energy."""
        J = sample_disorder(2, 2, seed=5)
        M = (J.tensor() + J.tensor().T) / (2.0 * np.sqrt(2.0))
        ens = TemperingEnsemble(J, [1.0], seed=21)
        ens.freeze()
        ens.deltas[...] = eps
        tempering_sweep(ens, 200, record=False)
        tempering_sweep(ens, 8000, record=True)
        step = 1e-4  # the mean of H/n is d/dbeta of the (1/n) log partition function
        upper, lower = (circle_log_partition(M, 1.0 + s) for s in (step, -step))
        exact = (upper - lower) / (2 * step)
        history = ens.history[0]
        assert abs(np.mean(history) - exact) <= 3.0 * batch_means_stderr(history)

    def test_high_temperature_value(self):
        """n=32, p=3 at beta=0.6: within 0.05 of the replica-symmetric value."""
        J = sample_disorder(32, 3, seed=123)
        ens = TemperingEnsemble(J, default_ladder(0.6, 13), seed=99)
        tempering_sweep(ens, 300, record=False)
        ens.freeze()
        tempering_sweep(ens, 900, record=True)
        last = thermo_integration(ens)[-1]
        assert abs(last.f_estimate - 0.5 * 0.6**2) <= 0.05
        assert last.stderr <= 0.02
        assert last.equilibrated

    def test_detailed_balance_smoke(self):
        """Two frozen step sizes sample the same mean energy (beta=1, n=8, p=2)."""
        J = sample_disorder(8, 2, seed=55)
        means, errs = [], []
        for scale in (0.3, 1.0):
            ens = TemperingEnsemble(J, [0.0, 1.0], seed=7)
            ens.adapting = False  # keep the kernel fixed throughout
            ens.deltas[...] = scale
            tempering_sweep(ens, 500, record=False)
            tempering_sweep(ens, 4000, record=True)
            means.append(np.mean(ens.history[1]))
            errs.append(batch_means_stderr(ens.history[1]))
        combined = np.hypot(errs[0], errs[1])
        assert abs(means[0] - means[1]) <= 3.0 * combined


class TestBatchMeans:
    def test_iid_series_matches_naive_stderr(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4000)
        naive = x.std(ddof=1) / np.sqrt(x.size)
        assert batch_means_stderr(x) == pytest.approx(naive, rel=0.5)

    def test_short_series_is_nan(self):
        assert np.isnan(batch_means_stderr([1.0, 2.0]))


class TestLadder:
    def test_inclusive_endpoints(self):
        grid = default_ladder(1.0, 11)
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_critical_point_is_one_rung(self):
        # beta_c off the backbone is added; on it, it takes the backbone point's place
        for beta_max, rungs, beta_c, size in [(2.0, 5, 1.2, 6), (2.0, 5, 1.0, 5), (2.0, 5, 0.1, 6)]:
            grid = default_ladder(beta_max, rungs, beta_c=beta_c)
            backbone = np.linspace(0.0, beta_max, rungs)
            assert np.count_nonzero(grid == beta_c) == 1
            assert len(grid) == size
            assert np.all(np.isin(backbone, grid))
            assert np.all(np.diff(grid) > 0)

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_critical_point_within_rounding_replaces_backbone_point(self, p):
        # at 1.5 beta_c and 13 rungs the 9th backbone point is beta_c up to
        # rounding (2.2e-16 off at p = 4); adding a rung there gave a pair
        # that always swapped
        beta_c = solve_critical(p).beta_c
        grid = default_ladder(1.5 * beta_c, 13, beta_c=beta_c)
        spacing = 1.5 * beta_c / 12
        assert len(grid) == 13
        assert np.count_nonzero(grid == beta_c) == 1
        assert grid[0] == 0.0 and grid[-1] == 1.5 * beta_c
        assert np.diff(grid).min() > 0.99 * spacing

    def test_critical_point_at_beta_max_up_to_rounding_takes_the_top_rung(self):
        beta_c = 2.0 * (1.0 - 1e-16)
        grid = default_ladder(2.0, 5, beta_c=beta_c)
        assert grid.tolist() == [0.0, 0.5, 1.0, 1.5, beta_c]

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_trapezoid_bias_at_infinite_n(self, p):
        """The N -> oo quadrature bias of the ladder is below the chains' stderr (0.0011 or more)."""

        def bias(ladder, h=1e-5):
            def energy(beta):  # dF/dbeta; F = beta^2 / 2 near 0, so a one-sided step there
                lo = max(beta - h, 0.0)
                return (free_energy(p, beta + h).free_energy
                        - free_energy(p, lo).free_energy) / (beta + h - lo)

            return (np.trapezoid([energy(b) for b in ladder], ladder)
                    - free_energy(p, ladder[-1]).free_energy)

        beta_c = solve_critical(p).beta_c
        with_rung = bias(default_ladder(2.0 * beta_c, 14, beta_c=beta_c))
        assert abs(with_rung) <= 1e-3
        assert abs(bias(default_ladder(1.5 * beta_c, 13, beta_c=beta_c))) <= 1e-3
        # the kink at beta_c sits mid-interval of this backbone: the rung cuts the bias 4x to 8x
        assert abs(bias(np.linspace(0.0, 2.0 * beta_c, 14))) >= 3.0 * abs(with_rung)

    def test_no_refinement_outside_range(self):
        grid = default_ladder(0.6, 13, beta_c=1.2)
        assert len(grid) == 13

    @pytest.mark.parametrize("beta_max", [float("inf"), float("nan"), 0.0])
    def test_rejects_beta_max_not_finite_and_positive(self, beta_max):
        with pytest.raises(ValueError, match="beta_max"):
            default_ladder(beta_max, 5, beta_c=0.7)


class TestSplitRhat:
    def test_hand_computed(self):
        # halves [0, 2], [4, 6], [1, 3], [5, 7]: W = 2, B/l = var(1, 5, 2, 6) = 17/3, l = 2
        assert split_rhat([[0, 2, 1, 3], [4, 6, 5, 7]]) == pytest.approx(np.sqrt(10 / 3))

    def test_odd_length_drops_middle(self):
        assert split_rhat([[0, 2, 9, 1, 3], [4, 6, -9, 5, 7]]) == pytest.approx(np.sqrt(10 / 3))

    def test_iid_chains_near_one(self):
        chains = np.random.default_rng(0).standard_normal((4, 2000))
        assert abs(split_rhat(chains) - 1.0) < 0.01

    def test_undefined_is_nan(self):
        assert np.isnan(split_rhat([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))  # halves of one
        assert np.isnan(split_rhat(np.ones((3, 10))))  # no variance


class TestOverlapProbe:
    def test_independent_chains_at_beta_zero(self):
        """Free measure: overlaps concentrate near zero."""
        J = sample_disorder(48, 3, seed=200)
        tmpl = TemperingEnsemble(J, [0.0], seed=1)
        hist = overlap_probe(tmpl, k=3, beta_index=0, sweeps=150, burn_in=20, bins=40)
        assert hist.pair_count == 150 * 3
        assert hist.counts.sum() == hist.pair_count
        assert abs(hist.modal_overlap()) <= 0.1
        # overlap std at n=48 is ~0.144, so the Gaussian tail beyond 0.3 is ~4%
        centers = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
        assert hist.counts[np.abs(centers) > 0.3].sum() / hist.pair_count < 0.05
        assert hist.counts[np.abs(centers) > 0.5].sum() / hist.pair_count < 0.01
        assert hist.diagnostics["replica_energy_rhat"] <= 1.05
        assert hist.diagnostics["equilibrated"]

    def test_short_probe_without_burn_in_flagged(self):
        # the cold rung still descends from its random start: every replica
        # accepts enough, but the halves of its energy series disagree
        cp = solve_critical(3)
        J = sample_disorder(24, 3, seed=1)
        ladder = default_ladder(2.0 * cp.beta_c, 4, beta_c=cp.beta_c)
        hist = overlap_probe(TemperingEnsemble(J, ladder, seed=1), k=3,
                             beta_index=len(ladder) - 1, sweeps=20, burn_in=0)
        diagnostics = hist.diagnostics
        assert min(diagnostics["replica_acceptance"]) >= 0.01
        assert diagnostics["replica_energy_rhat"] > 1.05
        assert not diagnostics["equilibrated"]

    def test_identical_seeds_flagged_degenerate(self):
        J = sample_disorder(12, 3, seed=9)
        tmpl = TemperingEnsemble(J, [0.0, 0.5], seed=2)
        seeds = [np.random.SeedSequence(42), np.random.SeedSequence(42)]
        hist = overlap_probe(
            tmpl, k=2, beta_index=1, sweeps=40, burn_in=10, replica_seeds=seeds
        )
        assert hist.diagnostics["degenerate"]
        top = hist.counts[-1]
        assert top == hist.pair_count  # every overlap in the last bin (R=1)

    def test_bins_cover_unit_interval(self):
        J = sample_disorder(8, 3, seed=3)
        tmpl = TemperingEnsemble(J, [0.0], seed=4)
        hist = overlap_probe(tmpl, k=2, beta_index=0, sweeps=20, burn_in=5, bins=16)
        assert hist.bin_edges[0] == -1.0 and hist.bin_edges[-1] == 1.0
        assert len(hist.bin_edges) == 17

    def test_reads_only_disorder_betas_and_seed(self):
        # a template swept 50 times has adapted scales and moved configurations;
        # the probe's replicas start afresh all the same
        J = sample_disorder(12, 3, seed=9)
        swept = TemperingEnsemble(J, [0.0, 0.5, 1.0], seed=2)
        tempering_sweep(swept, 50)
        fresh = TemperingEnsemble(J, [0.0, 0.5, 1.0], seed=2)
        assert np.all(swept.deltas != 1.0)
        assert not np.array_equal(swept.configs, fresh.configs)
        a, b = (overlap_probe(t, k=2, beta_index=2, sweeps=30, burn_in=10) for t in (swept, fresh))
        assert np.array_equal(a.counts, b.counts)
        assert np.isfinite(a.diagnostics["replica_energy_rhat"])
        assert a.diagnostics == b.diagnostics

    def test_spawned_template_seeds_give_distinct_probes(self):
        # spawned seeds share their entropy and differ in spawn_key, which the replicas keep;
        # an int seed derives the same replicas as its SeedSequence
        J = sample_disorder(12, 3, seed=9)
        a, b, c, d = (overlap_probe(TemperingEnsemble(J, [0.0, 0.5, 1.0], seed=s), k=2,
                                    beta_index=2, sweeps=30, burn_in=10)
                      for s in [*np.random.SeedSequence(5).spawn(2), 5, np.random.SeedSequence(5)])
        assert a.diagnostics["replica_mean_energy"] != b.diagnostics["replica_mean_energy"]
        assert not np.array_equal(a.counts, b.counts)
        assert np.array_equal(c.counts, d.counts) and c.diagnostics == d.diagnostics

    def test_list_seeded_template_probes_from_its_first_seed(self):
        # the replicas derive from the first generator's seed sequence, so a list of
        # spawned seeds probes as its first element does
        J = sample_disorder(8, 3, seed=3)
        first, second = np.random.SeedSequence(5).spawn(2)
        a, b = (overlap_probe(TemperingEnsemble(J, [0.0, 0.5], seed=s), k=2, beta_index=1,
                              sweeps=5, burn_in=10)
                for s in ([first, second], first))
        assert a.pair_count == 5
        assert np.array_equal(a.counts, b.counts)
        np.testing.assert_equal(a.diagnostics, b.diagnostics)

    def test_rejects_single_replica(self):
        J = sample_disorder(8, 3, seed=3)
        tmpl = TemperingEnsemble(J, [0.0], seed=4)
        with pytest.raises(ValueError):
            overlap_probe(tmpl, k=1, beta_index=0, sweeps=10)

    def test_rejects_no_bins_and_negative_burn_in(self):
        J = sample_disorder(8, 3, seed=3)
        tmpl = TemperingEnsemble(J, [0.0], seed=4)
        with pytest.raises(ValueError, match="bins"):
            overlap_probe(tmpl, k=2, beta_index=0, sweeps=10, bins=0)
        with pytest.raises(ValueError, match="burn_in"):
            overlap_probe(tmpl, k=2, beta_index=0, sweeps=10, burn_in=-5)
