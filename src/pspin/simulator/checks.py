"""Statistical checks of the disorder kernels against their exact laws.

The energy field has covariance E H(s) H(s') = n R(s, s')^p over disorder;
``covariance_check`` measures it by Monte Carlo over fresh couplings and
reports z-scores.  ``gradient_fd_check`` compares the analytic gradient with
central finite differences on random instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import (
    _entry_count,
    _kr_power,
    _row_blocks,
    gradient,
    hamiltonian,
    overlap,
    random_configuration,
    sample_disorder,
)

_FD_DEGREES = (2, 3, 4)  # p of the gradient trials, in turn
_FD_LARGEST_N = 16  # each trial draws n uniformly from 4 to this
_FD_STEP = 1e-5  # central-difference step


@dataclass(frozen=True)
class CovarianceRow:
    r_overlap: float
    target: float       # n R^p
    estimate: float     # empirical mean of H(s) H(s')
    stderr: float
    z: float
    draws: int


def covariance_check(
    n: int,
    p: int,
    pairs: list[tuple[np.ndarray, np.ndarray]],
    draws: int = 100_000,
    seed: int = 0,
) -> list[CovarianceRow]:
    """z-scores of the empirical energy covariance against n R^p.

    One stream of disorder draws is shared by all pairs: each block of
    couplings is contracted against every configuration at once, which keeps
    the per-pair estimates exact while doing a single pass over the
    randomness.  Draws come in the kernels' row blocks, n^p couplings a draw;
    the block size changes the estimates only by summation rounding.  n^p
    past ``DEFAULT_ENTRY_BUDGET`` raises ``DisorderSizeError`` before
    anything is allocated.
    """
    if draws < 1000:
        raise ValueError(f"draws must be >= 1000, got {draws}")
    if not pairs:
        raise ValueError("need at least one configuration pair")
    count = _entry_count(n, p)  # before anything of size n^p is built
    norm = float(n) ** (-(p - 1) / 2.0)

    configs = [s for pair in pairs for s in pair]
    for s in configs:
        if s.shape != (n,):
            raise ValueError(f"configuration shape {s.shape} does not match n={n}")
    u = np.ascontiguousarray(_kr_power(np.stack(configs), p).T)  # (n^p, 2 * npairs)

    gen = np.random.Generator(np.random.Philox(key=seed))
    m = len(pairs)
    sums = np.zeros(m)
    sq_sums = np.zeros(m)
    for block in _row_blocks(draws, count):
        z = gen.standard_normal((block.stop - block.start, count))
        h = norm * (z @ u)  # (draws in the block, 2m)
        prod = h[:, 0::2] * h[:, 1::2]
        sums += prod.sum(axis=0)
        sq_sums += (prod * prod).sum(axis=0)

    rows = []
    for i, (s1, s2) in enumerate(pairs):
        mean = sums[i] / draws
        var = sq_sums[i] / draws - mean * mean
        stderr = float(np.sqrt(max(var, 0.0) / draws))
        r = overlap(s1, s2)
        target = n * r**p
        z_score = (mean - target) / stderr if stderr > 0 else float("inf")
        rows.append(CovarianceRow(r_overlap=r, target=target, estimate=float(mean),
                                  stderr=stderr, z=float(z_score), draws=draws))
    return rows


@dataclass(frozen=True)
class GradientCheckRow:
    trial: int
    n: int
    p: int
    rel_error: float


def gradient_fd_check(trials: int = 20, seed: int = 0) -> list[GradientCheckRow]:
    """Relative error of the analytic gradient against central differences."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xFD)))
    rows = []
    for t in range(trials):
        p = _FD_DEGREES[t % len(_FD_DEGREES)]
        n = int(rng.integers(4, _FD_LARGEST_N + 1))
        J = sample_disorder(n, p, seed=int(rng.integers(0, 2**31)))
        sigma = random_configuration(n, rng)
        g = gradient(J, sigma)
        fd = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = _FD_STEP
            fd[i] = (hamiltonian(J, sigma + e) - hamiltonian(J, sigma - e)) / (2 * _FD_STEP)
        scale = max(float(np.max(np.abs(g))), 1e-30)
        rows.append(GradientCheckRow(trial=t, n=n, p=p,
                                     rel_error=float(np.max(np.abs(g - fd)) / scale)))
    return rows
