"""The four benchmark workloads and the checks on their outputs.

Each workload makes the calls of the pspin command it is named after, with
that command's seed derivation, through the library's public functions:

  gstate-p3-n64  pspin gstate --p 3 --n 64 --restarts 50 --seed 17
                 --disorder-file <sample_disorder(64, 3, 9000)>
  gstate-p4-n48  pspin gstate --p 4 --n 48 --restarts 1 --seed 1
  thermo-p3-n32  pspin thermo --p 3 --n 32 --seed 123
  probe-p3-n48   pspin probe --p 3 --n 48 --k 4 --rungs 14 --sweeps 150
                 --burn-in 150 --seed 4800

Each runs one fixed configuration, whatever ``--seed`` says; README.md
explains why.

A workload splits into ``inputs`` (draw the disorder), ``prepare`` (the
first kernel call on it, which fills lazy per-tensor caches, or the initial
ensemble) and ``round`` (the command's work, its output written with
``pspin.cli.emit``, read back and checked).  Functions are looked up on the
module objects in ``lib`` at call time, so a tracer's patches take effect.
"""

from __future__ import annotations

import copy
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from analysis import (
    integrated_autocorr_time,
    is_local_maximum,
    naive_energy,
    tangential_gradient,
    trapezoid_weights,
)

# exact TAP q_beta of the p=3 model at beta = 2 beta_c
Q_BETA_P3_AT_2BETA_C = 0.845


@dataclass
class RoundResult:
    attempted: int
    failed: int
    checks: dict[str, bool]
    core_s: float                   # the timed library work of the round
    metrics: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)


def _emit_and_read(lib, rows: list[dict], meta: dict, path: str) -> dict:
    lib.cli.emit(rows, meta, "json", path)
    with open(path) as fh:
        return json.load(fh)


def _meta(command: str, p: int, n: int, seed: int, **options) -> dict:
    return {"command": command, "p": p, "n": n, "seed": seed, "format": "json",
            "options": options}


class GroundState:
    """Best of ``restarts`` projected-gradient ascents on one instance."""

    max_iters = 2000
    tol = 1e-7

    def __init__(self, name, p, n, restarts, seed, disorder_seed=None, band=None):
        self.name, self.p, self.n, self.restarts = name, p, n, restarts
        self.seed = seed
        self.disorder_seed = seed if disorder_seed is None else disorder_seed
        self.band = band

    def inputs(self, lib) -> dict:
        return {"J": lib.sim.sample_disorder(self.n, self.p, seed=self.disorder_seed)}

    def prepare(self, lib, state: dict) -> None:
        lib.sim.hamiltonian(state["J"], np.ones(self.n))

    def round(self, lib, state: dict, path: str) -> RoundResult:
        J = state["J"]
        start = time.perf_counter()
        res = lib.sim.ground_state_search(
            J, restarts=self.restarts, max_iters=self.max_iters, tol=self.tol,
            seed=self.seed,
        )
        solve_s = time.perf_counter() - start

        best = int(np.argmax(res.restart_energies))
        rows = [
            {"restart": i, "energy_per_spin": e, "converged": ok, "is_best": i == best}
            for i, (e, ok) in enumerate(zip(res.restart_energies, res.restart_converged))
        ]
        meta = _meta("gstate", self.p, self.n, self.seed, restarts=self.restarts,
                     max_iters=self.max_iters)
        meta.update(best_energy_per_spin=res.energy_per_spin, all_converged=res.converged)
        doc = _emit_and_read(lib, rows, meta, path)

        read_rows = doc["rows"]
        energy = doc["meta"]["best_energy_per_spin"]
        sigma = res.sigma
        tensor = J.entries.reshape((self.n,) * self.p)
        n = self.n
        checks = {
            "rows_round_trip": [r["energy_per_spin"] for r in read_rows]
            == list(res.restart_energies),
            "best_row_is_best": read_rows[best]["is_best"]
            and read_rows[best]["energy_per_spin"] == energy,
            "on_sphere": abs(float(sigma @ sigma) / n - 1.0) <= 1e-9,
            "energy_matches_oracle": abs(naive_energy(tensor, sigma) / n - energy)
            <= 1e-10 * abs(energy),
            "stationary": float(np.linalg.norm(tangential_gradient(tensor, sigma)))
            <= 10.0 * self.tol * math.sqrt(n),
            "local_maximum": is_local_maximum(tensor, sigma),
        }
        if self.band is not None:
            checks["energy_in_band"] = self.band[0] <= energy <= self.band[1]
        converged = sum(bool(r["converged"]) for r in read_rows)
        return RoundResult(
            attempted=self.restarts,
            failed=self.restarts - converged,
            checks=checks,
            core_s=solve_s,
            # restarts start independently: each converged one is one sample
            metrics={"solve_s": solve_s, "ess_per_s": converged / solve_s},
            layer={"ground_state.converged_restarts": converged},
        )


class Thermo:
    """Tempering ladder on [0, beta_max], then thermodynamic integration."""

    name = "thermo-p3-n32"
    p, n, seed = 3, 32, 123
    beta_max, rungs, sweeps, burn_in = 1.0, 13, 1500, 500

    def inputs(self, lib) -> dict:
        return {"J": lib.sim.sample_disorder(self.n, self.p, seed=self.seed)}

    def prepare(self, lib, state: dict) -> None:
        beta_c = lib.pspin.solve_critical(self.p).beta_c
        ladder = lib.sim.default_ladder(self.beta_max, self.rungs, beta_c=beta_c)
        state["ensemble"] = lib.sim.TemperingEnsemble(
            state["J"], ladder, seed=np.random.SeedSequence((self.seed, 201))
        )

    def round(self, lib, state: dict, path: str) -> RoundResult:
        ens = copy.deepcopy(state["ensemble"])
        start = time.perf_counter()
        lib.sim.tempering_sweep(ens, self.burn_in, record=False)
        ens.freeze()
        lib.sim.tempering_sweep(ens, self.sweeps, record=True)
        sample_s = time.perf_counter() - start
        points = lib.sim.thermo_integration(ens)

        rows = [
            {
                "beta": pt.beta,
                "f_estimate": pt.f_estimate,
                "stderr": pt.stderr,
                "f_theory": lib.pspin.free_energy(self.p, pt.beta).free_energy,
                "mean_energy": pt.mean_energy,
                "acceptance": pt.acceptance,
                "equilibrated": pt.equilibrated,
            }
            for pt in points
        ]
        meta = _meta("thermo", self.p, self.n, self.seed, beta_max=self.beta_max,
                     rungs=self.rungs, sweeps=self.sweeps, burn_in=self.burn_in)
        read = _emit_and_read(lib, rows, meta, path)["rows"]

        history = np.array(ens.history)  # (rungs, sweeps) of H/n
        energy_err = [lib.sim.batch_means_stderr(h) for h in history]
        failed = 0
        for i, row in enumerate(read):
            ok = abs(row["f_estimate"] - 0.5 * row["beta"] ** 2) <= 0.05
            if i == 0:
                ok = ok and row["beta"] == 0.0 and row["f_estimate"] == 0.0
            else:
                drop = read[i - 1]["mean_energy"] - row["mean_energy"]
                ok = ok and drop <= energy_err[i - 1] + energy_err[i]
            failed += not ok

        # f_t = sum_i w_i E_i(t): its mean is the F_N(beta_max) estimate
        f_series = trapezoid_weights(ens.betas) @ history
        f_last = read[-1]["f_estimate"]
        checks = {
            "rows_round_trip": [r["f_estimate"] for r in read] == [r["f_estimate"] for r in rows],
            "f_series_mean_is_estimate": abs(f_series.mean() - f_last) <= 1e-12 * max(1.0, abs(f_last)),
        }
        tau = integrated_autocorr_time(f_series)
        return RoundResult(
            attempted=len(read),
            failed=failed,
            checks=checks,
            core_s=sample_s,
            metrics={"solve_s": sample_s, "ess_per_s": f_series.size / tau / sample_s},
            layer={
                "mcmc.tau_f": tau,
                "mcmc.acceptance_cold": float(ens.acceptance_rates()[-1]),
                "mcmc.swap_rate_min": float(np.nanmin(ens.swap_rates())),
            },
        )


class Probe:
    """Pairwise overlaps of k tempering replicas at the ladder's cold end."""

    name = "probe-p3-n48"
    p, n, seed = 3, 48, 4800
    k, rungs, sweeps, burn_in, bins = 4, 14, 150, 150, 80

    def inputs(self, lib) -> dict:
        return {"J": lib.sim.sample_disorder(self.n, self.p, seed=self.seed)}

    def prepare(self, lib, state: dict) -> None:
        cp = lib.pspin.solve_critical(self.p)
        state["beta"] = beta = 2.0 * cp.beta_c
        ladder = lib.sim.default_ladder(beta, self.rungs, beta_c=cp.beta_c)
        state["template"] = lib.sim.TemperingEnsemble(
            state["J"], ladder, seed=np.random.SeedSequence((self.seed, 202))
        )

    def round(self, lib, state: dict, path: str) -> RoundResult:
        template = state["template"]
        start = time.perf_counter()
        hist = lib.sim.overlap_probe(
            template, k=self.k, beta_index=template.n_rungs - 1, sweeps=self.sweeps,
            burn_in=self.burn_in, bins=self.bins,
        )
        solve_s = time.perf_counter() - start
        sol = lib.pspin.free_energy(self.p, state["beta"])

        rows = [
            {"bin_lo": float(lo), "bin_hi": float(hi), "count": int(c)}
            for lo, hi, c in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts)
        ]
        meta = _meta("probe", self.p, self.n, self.seed, beta=state["beta"], k=self.k,
                     rungs=self.rungs, sweeps=self.sweeps, burn_in=self.burn_in, bins=self.bins)
        meta.update(
            modal_overlap=hist.modal_overlap(),
            q_beta_theory=sol.q_beta,
            pair_count=hist.pair_count,
            k=hist.k,
            diagnostics=hist.diagnostics,
        )
        doc = _emit_and_read(lib, rows, meta, path)
        read_meta = doc["meta"]
        pairs = self.sweeps * self.k * (self.k - 1) // 2
        acceptance = read_meta["diagnostics"]["replica_acceptance"]
        unequilibrated = sum(a < 0.01 for a in acceptance)
        checks = {
            "counts_sum_to_pairs": sum(r["count"] for r in doc["rows"])
            == read_meta["pair_count"] == pairs,
            "q_beta_is_tap_value": abs(read_meta["q_beta_theory"] - Q_BETA_P3_AT_2BETA_C) <= 5e-4,
            "modal_overlap_near_q_beta": abs(abs(read_meta["modal_overlap"])
                                             - read_meta["q_beta_theory"]) <= 0.15,
            "not_degenerate": not read_meta["diagnostics"]["degenerate"],
        }
        return RoundResult(
            attempted=self.k,
            failed=unequilibrated,
            checks=checks,
            core_s=solve_s,
            # the probe returns no series to estimate tau from: each pair counts once
            metrics={"solve_s": solve_s, "ess_per_s": read_meta["pair_count"] / solve_s},
            layer={"mcmc.acceptance_cold": float(np.mean(acceptance))},
        )


WORKLOADS = {
    w.name: w
    for w in (
        GroundState("gstate-p3-n64", p=3, n=64, restarts=50, seed=17, disorder_seed=9000,
                    band=(1.50, 1.70)),
        GroundState("gstate-p4-n48", p=4, n=48, restarts=1, seed=1),
        Thermo(),
        Probe(),
    )
}
