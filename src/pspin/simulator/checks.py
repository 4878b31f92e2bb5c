"""Statistical checks of the disorder kernels against their exact laws.

The energy field has covariance E H(s) H(s') = n R(s, s')^p over disorder;
``covariance_check`` measures it by Monte Carlo over fresh couplings and
reports z-scores.  ``gradient_fd_check`` compares the analytic gradient with
central finite differences on random instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import gradient, hamiltonian, overlap, random_configuration, sample_disorder

_BLOCK_ENTRIES = 2**22  # couplings drawn per block, unless one draw alone is larger


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
    block: int = 2000,
) -> list[CovarianceRow]:
    """z-scores of the empirical energy covariance against n R^p.

    One stream of disorder draws is shared by all pairs: each block of
    couplings is contracted against every configuration at once, which keeps
    the per-pair estimates exact while doing a single pass over the
    randomness.  A block holds at most ``block`` draws and at most 2^22
    couplings (one draw if n^p is larger); its size changes the estimates
    only by summation rounding.
    """
    if draws < 1000:
        raise ValueError(f"draws must be >= 1000, got {draws}")
    if not pairs:
        raise ValueError("need at least one configuration pair")
    count = n**p
    norm = float(n) ** (-(p - 1) / 2.0)

    cols = []
    for s1, s2 in pairs:
        for s in (s1, s2):
            if s.shape != (n,):
                raise ValueError(f"configuration shape {s.shape} does not match n={n}")
            v = s
            for _ in range(p - 1):
                v = np.outer(v, s).ravel()
            cols.append(v)
    u = np.stack(cols, axis=1)  # (n^p, 2 * npairs)

    gen = np.random.Generator(np.random.Philox(key=seed))
    m = len(pairs)
    sums = np.zeros(m)
    sq_sums = np.zeros(m)
    done = 0
    rows = max(1, min(block, _BLOCK_ENTRIES // count))  # bounds the memory of a block
    while done < draws:
        b = min(rows, draws - done)
        z = gen.standard_normal((b, count))
        h = norm * (z @ u)  # (b, 2m)
        prod = h[:, 0::2] * h[:, 1::2]
        sums += prod.sum(axis=0)
        sq_sums += (prod * prod).sum(axis=0)
        done += b

    rows = []
    for i, (s1, s2) in enumerate(pairs):
        mean = sums[i] / draws
        var = sq_sums[i] / draws - mean * mean
        stderr = float(np.sqrt(max(var, 0.0) / draws))
        r = overlap(s1, s2)
        target = n * r**p
        z_score = (mean - target) / stderr if stderr > 0 else float("inf")
        rows.append(
            CovarianceRow(
                r_overlap=r, target=target, estimate=float(mean),
                stderr=stderr, z=float(z_score), draws=draws,
            )
        )
    return rows


@dataclass(frozen=True)
class GradientCheckRow:
    trial: int
    n: int
    p: int
    rel_error: float


def gradient_fd_check(
    trials: int = 20,
    n_max: int = 16,
    ps: tuple[int, ...] = (2, 3, 4),
    seed: int = 0,
    step: float = 1e-5,
) -> list[GradientCheckRow]:
    """Relative error of the analytic gradient against central differences."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xFD)))
    rows = []
    for t in range(trials):
        p = ps[t % len(ps)]
        n = int(rng.integers(4, n_max + 1))
        J = sample_disorder(n, p, seed=int(rng.integers(0, 2**31)))
        sigma = random_configuration(n, rng)
        g = gradient(J, sigma)
        fd = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            fd[i] = (hamiltonian(J, sigma + e) - hamiltonian(J, sigma - e)) / (2 * step)
        scale = max(float(np.max(np.abs(g))), 1e-30)
        rows.append(
            GradientCheckRow(
                trial=t, n=n, p=p,
                rel_error=float(np.max(np.abs(g - fd)) / scale),
            )
        )
    return rows
