"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to see them as they complete).

Criteria marked as statistical run at fixed seeds, so outcomes are
reproducible; the overlap-probe criterion is a soft diagnostic whose
contract is "modal overlap in band OR flagged unequilibrated, with full
diagnostics emitted".
"""

import math
import subprocess
import sys
import time
from dataclasses import astuple

import numpy as np
import pytest

from pspin import (
    free_energy,
    lemma_bound_check,
    overlap_polynomial,
    p2_betac_residual,
    residuals_prop,
    solve_critical,
    solve_q_beta,
    t_pm,
)
from pspin.critical import aux_a
from pspin.simulator import (
    TemperingEnsemble,
    covariance_check,
    default_ladder,
    gradient,
    ground_state_search,
    hamiltonian,
    overlap_probe,
    random_configuration,
    sample_disorder,
    tempering_sweep,
    thermo_integration,
)

from oracles import circle_log_partition, top_eigenvalue_power

SQRT2 = math.sqrt(2.0)


def report(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {title}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number}: {title} {detail}"


class TestAcceptance:
    def test_01_p2_closed_forms(self):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, "-m", "pspin.cli", "critical", "--p", "2"],
            capture_output=True, text=True,
        )
        row = proc.stdout.strip().split("\n")[-1].split(",")
        beta_c, e_star = float(row[2]), float(row[3])
        ok = (
            proc.returncode == 0
            and abs(beta_c - 1.0 / SQRT2) <= 1e-12
            and abs(e_star - SQRT2) <= 1e-12
            and abs(p2_betac_residual(1.0 / SQRT2)) <= 1e-12
            and time.time() - start < 1.0
        )
        report(1, "p=2 closed forms via CLI", ok,
               f"beta_c={beta_c!r}, e_star={e_star!r}")

    def test_02_critical_consistency_p3_to_16(self):
        start = time.time()
        worst = 0.0
        ok = True
        grid = np.arange(1e-5, 1.0 - 1e-9, 1e-5)
        for p in range(3, 17):
            cp = solve_critical(p)
            res = residuals_prop(p, cp.beta_c, cp.q_c, cp.e_star)
            worst = max(worst, max(map(abs, astuple(res))))
            vals = p * (1.0 - grid) * np.log1p(-grid) + p * grid - (p - 1) * grid**2
            changes = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
            ok = ok and max(map(abs, astuple(res))) <= 1e-9 and changes == 1
        elapsed = time.time() - start
        ok = ok and elapsed < 5.0
        report(2, "solved triples satisfy the stationarity system, unique root",
               ok, f"max residual {worst:.2e}, {elapsed:.2f}s")

    def test_03_branch_continuity(self):
        start = time.time()
        worst = 0.0
        for p in list(range(3, 11)) + [2]:
            cp = solve_critical(p)
            gap = abs(free_energy(p, cp.beta_c + 1e-9).free_energy - 0.5 * cp.beta_c**2)
            worst = max(worst, gap)
        ok = worst <= 1e-6 and time.time() - start < 1.0
        report(3, "free energy continuous at beta_c (p=2..10)", ok, f"max gap {worst:.2e}")

    def test_04_root_and_quadratic_identities(self):
        start = time.time()
        cp = solve_critical(3)
        t_minus, t_plus = t_pm(3, cp.e_star)
        ok = (
            abs(t_minus * t_plus - 1.0 / 6.0) <= 1e-12 / 6.0
            and abs(t_minus + t_plus - cp.e_star / 2.0) <= 1e-12 * cp.e_star
        )
        worst = 0.0
        betas = np.linspace(cp.beta_c + 1e-9, 10.0, 200)
        for beta in betas:
            q = solve_q_beta(3, beta)
            worst = max(worst, abs(beta * overlap_polynomial(3, q) - t_minus))
            ok = ok and lemma_bound_check(3, beta, q)
        elapsed = time.time() - start
        ok = ok and worst <= 1e-10 and elapsed < 2.0
        report(4, "root identity, Vieta, overlap bound on a 200-point grid",
               ok, f"max |beta f(q) - t_minus| = {worst:.2e}")

    def test_05_ground_state_limit(self):
        start = time.time()
        cp = solve_critical(3)
        dev = abs(free_energy(3, 1e4).free_energy / 1e4 - cp.e_star)
        ok = dev <= 5e-3 and time.time() - start < 1.0
        report(5, "F(beta)/beta approaches e_star (p=3, beta=1e4)", ok, f"|dev|={dev:.2e}")

    def test_06_covariance_identity(self):
        start = time.time()
        n = 16
        root = math.sqrt(float(n))
        e1 = np.zeros(n); e1[0] = root
        e2 = np.zeros(n); e2[1] = root
        half = np.zeros(n); half[0] = 0.5 * root; half[1] = math.sqrt(0.75) * root
        rows = covariance_check(n, 3, [(e1, e2), (e1, half), (e1, e1)],
                                draws=100_000, seed=606)
        elapsed = time.time() - start
        ok = all(abs(r.z) <= 4.0 for r in rows) and elapsed < 60.0
        detail = ", ".join(f"R={r.r_overlap:g}: z={r.z:+.2f}" for r in rows)
        report(6, "energy covariance matches n R^p (1e5 draws)", ok,
               f"{detail}, {elapsed:.1f}s")

    def test_07_gradient_correctness(self):
        start = time.time()
        rng = np.random.default_rng(707)
        worst = 0.0
        for trial in range(20):
            p = (2, 3, 4)[trial % 3]
            n = int(rng.integers(4, 17))
            J = sample_disorder(n, p, seed=int(rng.integers(2**31)))
            s = random_configuration(n, rng)
            g = gradient(J, s)
            fd = np.empty(n)
            for i in range(n):
                e = np.zeros(n); e[i] = 1e-5
                fd[i] = (hamiltonian(J, s + e) - hamiltonian(J, s - e)) / 2e-5
            worst = max(worst, float(np.max(np.abs(g - fd)) / np.max(np.abs(g))))
        elapsed = time.time() - start
        ok = worst <= 1e-6 and elapsed < 10.0
        report(7, "gradient matches central differences (20 instances)",
               ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")

    def test_08_p2_spectral_cross_check(self):
        start = time.time()
        worst = 0.0
        for s in range(10):
            J = sample_disorder(64, 2, seed=1000 + s)
            M = (J.tensor() + J.tensor().T) / (2.0 * math.sqrt(64))
            lam = top_eigenvalue_power(M)
            res = ground_state_search(J, restarts=4, max_iters=6000, tol=1e-9, seed=5)
            worst = max(worst, abs(res.energy_per_spin - lam) / abs(lam))
        J = sample_disorder(500, 2, seed=7)
        res = ground_state_search(J, restarts=3, max_iters=6000, tol=1e-9, seed=5)
        edge_dev = abs(res.energy_per_spin - SQRT2)
        elapsed = time.time() - start
        ok = worst <= 1e-8 and edge_dev <= 0.08 and elapsed < 120.0
        report(8, "p=2 search matches the dominant-eigenvalue oracle",
               ok, f"worst rel {worst:.1e}, N=500 edge dev {edge_dev:.3f}, {elapsed:.0f}s")

    def test_09_p3_ground_state_band(self):
        start = time.time()
        energies = []
        for s in range(10):
            J = sample_disorder(64, 3, seed=9000 + s)
            res = ground_state_search(J, restarts=50, max_iters=2000, tol=1e-7, seed=17)
            energies.append(res.energy_per_spin)
        in_band = sum(1.50 <= e <= 1.70 for e in energies)
        elapsed = time.time() - start
        ok = in_band >= 9 and elapsed < 600.0
        report(9, "p=3, N=64 best energies inside the finite-size band",
               ok, f"{in_band}/10 in [1.50, 1.70], {elapsed:.0f}s")

    def test_10_thermo_integration(self):
        start = time.time()
        J = sample_disorder(32, 3, seed=123)
        ens = TemperingEnsemble(J, default_ladder(0.6, 13), seed=99)
        tempering_sweep(ens, 300, record=False)
        ens.freeze()
        tempering_sweep(ens, 900, record=True)
        last = thermo_integration(ens)[-1]
        dev = abs(last.f_estimate - 0.5 * 0.6**2)
        ok = dev <= 0.05 and last.stderr <= 0.02

        J2 = sample_disorder(2, 2, seed=5)
        M = (J2.tensor() + J2.tensor().T) / (2.0 * SQRT2)
        ladder = np.linspace(0.0, 1.0, 11)
        ens2 = TemperingEnsemble(J2, ladder, seed=17)
        tempering_sweep(ens2, 300, record=False)
        ens2.freeze()
        tempering_sweep(ens2, 3000, record=True)
        pts = thermo_integration(ens2)
        exact = circle_log_partition(M, 1.0)
        z = abs(pts[-1].f_estimate - exact) / pts[-1].stderr
        elapsed = time.time() - start
        ok = ok and z <= 3.0 and elapsed < 600.0
        report(10, "thermodynamic integration: high-T band and n=2 quadrature",
               ok, f"dev={dev:.3f}, stderr={last.stderr:.4f}, quad z={z:.2f}, {elapsed:.0f}s")

    def test_11_overlap_probe_diagnostic(self):
        start = time.time()
        cp = solve_critical(3)
        beta = 2.0 * cp.beta_c
        J = sample_disorder(48, 3, seed=4800)
        ladder = default_ladder(beta, 14, beta_c=cp.beta_c)
        template = TemperingEnsemble(J, ladder, seed=np.random.SeedSequence((4800, 202)))
        hist = overlap_probe(template, k=4, beta_index=len(ladder) - 1,
                             sweeps=1500, burn_in=800, bins=80)
        q_theory = free_energy(3, beta).q_beta
        modal = abs(hist.modal_overlap())
        in_band = abs(modal - q_theory) <= 0.15
        flagged = not hist.diagnostics["equilibrated"]
        diagnostics_complete = all(
            key in hist.diagnostics
            for key in ("replica_acceptance", "replica_mean_energy", "equilibrated", "degenerate")
        )
        elapsed = time.time() - start
        ok = (in_band or flagged) and diagnostics_complete and elapsed < 1200.0
        report(11, "overlap probe: modal |R| in band or flagged, diagnostics emitted",
               ok, f"|modal|={modal:.3f}, q_beta={q_theory:.3f}, flagged={flagged}, {elapsed:.0f}s")

    def test_12_reproducibility(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [sys.executable, "-m", "pspin.cli", "thermo", "--p", "3", "--n", "12",
                "--beta-max", "0.8", "--rungs", "5", "--sweeps", "60", "--burn-in", "30",
                "--seed", "31"]
        r1 = subprocess.run(args + ["-o", str(a)], capture_output=True)
        r2 = subprocess.run(args + ["-o", str(b)], capture_output=True)
        ok = r1.returncode == 0 and r2.returncode == 0 and a.read_bytes() == b.read_bytes()
        report(12, "identical config+seed give bit-identical output files", ok)
