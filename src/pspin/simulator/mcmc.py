"""Replica-exchange geodesic Hamiltonian Monte Carlo on the sphere.

Targets the Gibbs density proportional to exp(beta H(sigma)) on the sphere of
squared norm n.  A move is one geodesic leapfrog step (Byrne and Girolami,
Scand. J. Stat. 2013): a tangent momentum v is drawn and kicked by half a step
of beta times the tangent gradient of H, (sigma, v) rotate exactly along their
great circle for a time epsilon, and v is kicked again.  The map keeps volume
and is reversible under v -> -v, so the move is accepted with probability
min(1, exp of the change in beta H - |v|^2 / 2).  A ladder of rungs at
increasing beta alternates within-rung moves with adjacent-rung swaps.  An
ensemble is one ladder, or k independent replica ladders on one disorder
realization stacked along a leading axis; a move takes one ``sym_gradient``
call for every replica and rung, and each energy follows as sigma . g / p.

Step sizes start at 1 / (1 + beta) and adapt toward 60-85% acceptance during
burn-in; they must be frozen before measurement so the kernels stay
stationary.  Each replica draws all its randomness from one generator of its
own seed, in blocks of a whole ladder: starting points, momenta, accept
uniforms and swap uniforms.  A replica therefore follows the draws of a lone
ladder with that seed, and trajectories are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .disorder import DisorderTensor, sym_gradient

ADAPT_WINDOW = 50
ADAPT_LOW, ADAPT_HIGH = 0.60, 0.85
SPINS_PER_MOVE, MIN_MOVES = 4, 2  # a sweep is max(MIN_MOVES, n // SPINS_PER_MOVE) moves
UNEQUILIBRATED_ACCEPTANCE = 0.01
STDERR_BATCHES = 20  # batch means per standard error
RHAT_MAX = 1.05  # split-R-hat above this flags replicas that disagree


def _energy_gradient(J: DisorderTensor, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energies and tangent gradients of configurations (..., n); sigma . g = p H."""
    g = sym_gradient(J, sigma.reshape(-1, J.n)).reshape(sigma.shape)
    h = np.vecdot(sigma, g) / J.p
    return h, g - (h * (J.p / J.n))[..., None] * sigma


def _leapfrog(J: DisorderTensor, sigma, v, grad, betas, eps):
    """One geodesic leapfrog step of time ``eps`` for exp(beta H) from (sigma, v).

    ``grad`` is the tangent gradient of H at sigma; returns sigma', v' and the
    energies and tangent gradients at sigma'.
    """
    radius = np.sqrt(J.n)
    kick = (0.5 * betas * eps)[..., None]
    v = v + kick * grad
    speed = np.sqrt(np.vecdot(v, v))[..., None]
    angle = eps[..., None] * speed / radius
    cos, sin = np.cos(angle), np.sin(angle)
    moved = sigma * cos + v * (radius * sin / np.maximum(speed, 1e-300))  # v = 0 stays put
    v = v * cos - sigma * (speed / radius * sin)
    moved *= radius / np.sqrt(np.vecdot(moved, moved))[..., None]  # rounding compounds at large eps
    h, g = _energy_gradient(J, moved)
    return moved, v + kick * g, h, g


class TemperingEnsemble:
    """Ladders of geodesic HMC chains sharing one disorder realization.

    ``seed`` is one seed for a single ladder, whose configs and tangent
    gradients are (rungs, n) and whose energies, step sizes and counters are
    (rungs,); or a list of k seeds for k replica ladders, which gives every
    array a leading axis of length k.  The seeds are not stored: each lives
    on as its generator's ``bit_generator.seed_seq``, which ``overlap_probe``
    reads from ``rngs[0]``.  Every chain starts at a uniform point of the
    sphere with step size 1 / (1 + beta), and takes every move.
    """

    def __init__(self, disorder: DisorderTensor, betas, seed: int | np.random.SeedSequence | list):
        betas = np.asarray(betas, dtype=float)
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError("beta ladder must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(betas)):
            raise ValueError("beta ladder must be finite")
        if np.any(betas < 0.0):
            raise ValueError("beta ladder must be nonnegative")
        if betas.size > 1 and np.any(np.diff(betas) <= 0.0):
            raise ValueError("beta ladder must be strictly increasing")

        self.disorder = disorder
        self.betas = betas
        seeds = list(seed) if isinstance(seed, (list, tuple)) else [seed]
        if not seeds:
            raise ValueError("seed list must name at least one replica, got an empty list")
        self.rngs = [np.random.default_rng(s) for s in seeds]  # one per replica
        self._replica_shape = (len(seeds),) if isinstance(seed, (list, tuple)) else ()
        n, shape = disorder.n, self._replica_shape + betas.shape

        configs = self._draw("standard_normal", np.empty((len(seeds), betas.size, n)))
        self.configs = configs * (np.sqrt(n) / np.linalg.norm(configs, axis=-1, keepdims=True))
        self.energies, self.grads = _energy_gradient(disorder, self.configs)
        self.deltas = np.broadcast_to(1.0 / (1.0 + betas), shape).copy()  # step sizes
        self.adapting = True
        self.moves_per_sweep = max(MIN_MOVES, n // SPINS_PER_MOVE)

        self._steps = 0  # moves, the same for every chain
        self._accepts = np.zeros(shape, dtype=np.int64)
        self._window_accepts = np.zeros(shape, dtype=np.int64)
        self._noise = np.empty((len(seeds), betas.size, n))  # one move's momenta, per replica
        self._uniforms = np.empty((len(seeds), betas.size))
        pairs = self._replica_shape + (max(betas.size - 1, 1),)
        self._swap_attempts = np.zeros(pairs, dtype=np.int64)
        self._swap_accepts = np.zeros_like(self._swap_attempts)
        self._sweep_index = 0
        self._records: list[np.ndarray] = []  # H/n of every chain after each recorded sweep

    @property
    def n_rungs(self) -> int:
        return self.betas.size

    @property
    def history(self) -> np.ndarray:
        """Recorded H/n, (rungs, sweeps) or (k, rungs, sweeps); the sweep axis is empty until a record."""
        records = np.reshape(self._records, (-1,) + self.energies.shape)
        return np.moveaxis(records, 0, -1).copy()  # C order: a series sums as a 1-d array does

    def freeze(self) -> None:
        """Stop step-size adaptation (call before measuring)."""
        self.adapting = False

    def acceptance_rates(self) -> np.ndarray:
        if self._steps == 0:
            return np.full(self._accepts.shape, np.nan)
        return self._accepts / self._steps

    def swap_rates(self) -> np.ndarray:
        attempts = self._swap_attempts
        return np.where(attempts > 0, self._swap_accepts / np.maximum(attempts, 1), np.nan)

    def sampler_meta(self) -> dict:
        """How the chains ran: moves per sweep, each chain's step size and acceptance."""
        return {"moves_per_sweep": self.moves_per_sweep, "step_size": self.deltas.tolist(),
                "acceptance": self.acceptance_rates().tolist()}

    def _draw(self, method: str, out: np.ndarray) -> np.ndarray:
        """One ``method`` call per replica generator into ``out[i]``; ``out`` under the replica axis.

        ``out`` has a leading axis of one entry per replica, also for a single ladder.
        """
        for rng, block in zip(self.rngs, out):
            getattr(rng, method)(out=block)
        return out.reshape(self._replica_shape + out.shape[1:])

    def _step(self) -> None:
        """One geodesic HMC move on every replica and rung.

        Counts the accepts, and while adapting rescales every chain's step
        size at the end of each window of ``ADAPT_WINDOW`` moves.
        """
        sigma, noise = self.configs, self._draw("standard_normal", self._noise)
        v = noise - (np.vecdot(sigma, noise) / self.disorder.n)[..., None] * sigma  # tangent
        cand, w, h, g = _leapfrog(self.disorder, sigma, v, self.grads, self.betas, self.deltas)
        logu = np.log(self._draw("random", self._uniforms))
        kinetic = 0.5 * (np.vecdot(w, w) - np.vecdot(v, v))
        accepted = logu < self.betas * (h - self.energies) - kinetic
        np.copyto(self.configs, cand, where=accepted[..., None])
        np.copyto(self.grads, g, where=accepted[..., None])
        np.copyto(self.energies, h, where=accepted)

        self._steps += 1
        self._accepts += accepted
        self._window_accepts += accepted
        if self._steps % ADAPT_WINDOW == 0:
            if self.adapting:
                rates = self._window_accepts / ADAPT_WINDOW
                self.deltas[rates < ADAPT_LOW] *= 0.8
                self.deltas[rates > ADAPT_HIGH] *= 1.25
                np.clip(self.deltas, 1e-8, 1e2, out=self.deltas)
            self._window_accepts[...] = 0

    def _swap_phase(self, parity: int) -> None:
        """Swap proposals on the adjacent pairs (i, i + 1), i = parity, parity + 2, ...

        Accepted pairs trade rows in place, so the state arrays keep their identity.
        """
        i = np.arange(parity, self.n_rungs - 1, 2)
        e = self.energies
        logu = np.log(self._draw("random", np.empty((len(self.rngs), i.size))))
        accepted = logu < (self.betas[i] - self.betas[i + 1]) * (e[..., i + 1] - e[..., i])
        self._swap_attempts[..., i] += 1
        self._swap_accepts[..., i] += accepted
        *replica, pair = np.nonzero(accepted)
        lo = np.ravel_multi_index((*replica, i[pair]), e.shape)  # replica * rungs + rung
        for state in (self.configs, self.grads, e):
            rows = state.reshape((e.size,) + state.shape[e.ndim:], copy=False)  # raises, never copies
            rows[[lo, lo + 1]] = rows[[lo + 1, lo]]


def tempering_sweep(ensemble: TemperingEnsemble, sweeps: int, record: bool = True) -> None:
    """Alternate within-rung moves with adjacent-rung swap proposals.

    A sweep is ``moves_per_sweep`` geodesic HMC moves, each on every replica
    and rung at once, followed by one swap phase over adjacent pairs of
    alternating parity.  When ``record`` is set, every sweep adds one entry
    along the last axis of the ensemble's ``history``: each chain's H/n.
    """
    if sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    for _ in range(sweeps):
        for _ in range(ensemble.moves_per_sweep):
            ensemble._step()
        ensemble._swap_phase(ensemble._sweep_index % 2)  # one rung: no pair, no draw
        ensemble._sweep_index += 1
        if record:
            ensemble._records.append(ensemble.energies / ensemble.disorder.n)


def batch_means_stderr(series) -> float:
    """Standard error of the mean from ``STDERR_BATCHES`` batch means (autocorrelation-tolerant)."""
    x = np.asarray(series, dtype=float)
    if x.size < 4:
        return float("nan")
    nb = min(STDERR_BATCHES, x.size // 2)
    usable = (x.size // nb) * nb
    batches = x[:usable].reshape(nb, -1).mean(axis=1)
    return float(batches.std(ddof=1) / np.sqrt(nb))


def split_rhat(chains) -> float:
    """Split-R-hat of m series of equal length (Vehtari et al., Bayesian Analysis 2021).

    Each series is split into its first and last halves (the middle draw of an
    odd length is dropped), and the 2m halves give the potential scale
    reduction sqrt(((l - 1)/l W + B/l) / W) from the within-half variance W and
    the variance B/l of the half means, l the half length.  Near 1 when every
    half samples the same distribution; NaN with halves shorter than 2 or no
    within-half variance.
    """
    x = np.asarray(chains, dtype=float)
    half = x.shape[-1] // 2
    if half < 2:
        return float("nan")
    halves = np.concatenate([x[:, :half], x[:, -half:]])
    within = halves.var(axis=1, ddof=1).mean()
    if not within > 0.0:
        return float("nan")
    between = halves.mean(axis=1).var(ddof=1)  # B / l
    return float(np.sqrt(((half - 1) / half * within + between) / within))


@dataclass(frozen=True)
class ThermoPoint:
    beta: float
    f_estimate: float
    stderr: float
    mean_energy: float
    acceptance: float
    equilibrated: bool


def thermo_integration(ensemble: TemperingEnsemble) -> list[ThermoPoint]:
    """Free-energy curve from the recorded energies by trapezoidal integration.

    F_n(beta) = integral from 0 to beta of the mean energy per spin, so the
    ladder must start at beta = 0 where the normalized uniform measure gives
    F_n = 0 exactly.  Per-rung standard errors propagate through the
    trapezoid weights treating rungs as independent (swaps make this an
    approximation).  Rungs accepting below 1% are flagged unequilibrated.
    """
    if ensemble.energies.ndim != 1:
        raise ValueError("thermodynamic integration needs a single ladder, not replica ladders")
    if ensemble.betas[0] != 0.0:
        raise ValueError("thermodynamic integration needs a ladder starting at beta=0")
    history = ensemble.history
    if history.shape[-1] == 0:
        raise ValueError("no recorded sweeps; run tempering_sweep(record=True) first")

    betas = ensemble.betas
    means = history.mean(axis=1)
    errs = np.array([batch_means_stderr(h) for h in history])
    rates = ensemble.acceptance_rates()
    # cumsum adds left to right; float_power squares with libm's pow, as a scalar ** 2 does
    half = 0.5 * np.diff(betas)
    sq = np.float_power(errs, 2)
    f = np.cumsum(np.concatenate(([0.0], half * (means[:-1] + means[1:]))))
    var = np.cumsum(np.concatenate(([0.0], np.float_power(half, 2) * (sq[:-1] + sq[1:]))))
    return [
        ThermoPoint(beta=float(betas[i]), f_estimate=float(f[i]), stderr=float(np.sqrt(var[i])),
                    mean_energy=float(means[i]), acceptance=float(rates[i]),
                    equilibrated=bool(rates[i] >= UNEQUILIBRATED_ACCEPTANCE))
        for i in range(betas.size)
    ]


@dataclass(frozen=True)
class OverlapHistogram:
    """Pairwise-overlap histogram of k replica chains at one rung."""

    bin_edges: np.ndarray
    counts: np.ndarray
    k: int
    pair_count: int
    diagnostics: dict = field(default_factory=dict)
    sampler: dict = field(default_factory=dict)  # the replicas' ``sampler_meta()``

    def modal_overlap(self) -> float:
        """Center of the most populated bin."""
        i = int(np.argmax(self.counts))
        return float(0.5 * (self.bin_edges[i] + self.bin_edges[i + 1]))

    def mass_near(self, q: float, eps: float) -> float:
        """Fraction of recorded pairs with |overlap - q| < eps (bin-resolved)."""
        centers = 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])
        mask = np.abs(centers - q) < eps
        return float(self.counts[mask].sum() / max(self.pair_count, 1))


def overlap_probe(
    ensemble: TemperingEnsemble,
    k: int,
    beta_index: int,
    sweeps: int,
    burn_in: int = 500,
    bins: int = 80,
) -> OverlapHistogram:
    """Distribution of pairwise overlaps between k independent replicas.

    Only the ensemble's ``disorder``, ``betas`` and first generator's seed
    sequence, ``rngs[0].bit_generator.seed_seq``, are read: its
    configurations, step sizes and counters play no part.  Each replica is a
    fresh ladder on that disorder and those betas, with its own seed derived
    from that sequence's entropy and spawn key; all k advance together on one
    replica-axis ensemble.  After burn-in they advance one sweep at a time
    and the overlaps of all pairs of configurations at rung ``beta_index``
    are recorded.  Tempering within
    each replica is what gives the cold rung a chance to equilibrate.

    The run counts as equilibrated when every replica accepts at least 1% of
    its moves at the probed rung and the split-R-hat of the rung's
    recorded energies across the k replicas is at most 1.05.
    """
    if k < 2:
        raise ValueError(f"need at least two replicas, got {k}")
    if not 0 <= beta_index < ensemble.n_rungs:
        raise ValueError(f"beta_index {beta_index} out of range")
    if sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")

    base = ensemble.rngs[0].bit_generator.seed_seq
    replica_seeds = [np.random.SeedSequence((base.entropy, 7001 + i), spawn_key=base.spawn_key)
                     for i in range(k)]
    replicas = TemperingEnsemble(ensemble.disorder, ensemble.betas, seed=replica_seeds)
    if burn_in > 0:
        tempering_sweep(replicas, burn_in, record=False)
    replicas.freeze()

    n = ensemble.disorder.n
    pairs = np.triu_indices(k, 1)
    vals = np.empty((sweeps, pairs[0].size))
    for s in range(sweeps):
        tempering_sweep(replicas, 1, record=True)
        snap = replicas.configs[:, beta_index]  # the probed rung of every replica
        vals[s] = (snap @ snap.T)[pairs] / n
    np.clip(vals, -1.0, 1.0, out=vals)
    idx = np.minimum(np.floor((vals + 1.0) / 2.0 * bins).astype(int), bins - 1)
    counts = np.bincount(idx.ravel(), minlength=bins)

    history = replicas.history[:, beta_index]  # (k, sweeps)
    rates = replicas.acceptance_rates()[:, beta_index]
    rhat = split_rhat(history)
    diagnostics = {
        "beta": float(ensemble.betas[beta_index]),
        "replica_acceptance": rates.tolist(),
        "replica_mean_energy": history.mean(axis=1).tolist(),
        "replica_energy_stderr": [batch_means_stderr(h) for h in history],
        "replica_top_swap_rate": replicas.swap_rates()[:, -1].tolist()
        if ensemble.n_rungs > 1 else [],
        "replica_energy_rhat": rhat,
        "equilibrated": bool(np.all(rates >= UNEQUILIBRATED_ACCEPTANCE) and rhat <= RHAT_MAX),
        "degenerate": bool(np.all(vals >= 1.0 - 1e-9)),
    }
    return OverlapHistogram(
        bin_edges=np.linspace(-1.0, 1.0, bins + 1), counts=counts, k=k, pair_count=vals.size,
        diagnostics=diagnostics, sampler=replicas.sampler_meta(),
    )


def default_ladder(beta_max: float, rungs: int, beta_c: float | None = None) -> np.ndarray:
    """Measurement ladder on [0, beta_max]: linear backbone plus beta_c as one rung.

    E(beta) bends at beta_c (slope 1 to 0.426 at p = 3), so a rung there anchors the
    trapezoid of ``thermo_integration``; a backbone point at beta_c up to rounding gives way.
    """
    if not (np.isfinite(beta_max) and beta_max > 0.0):
        raise ValueError(f"beta_max must be finite and positive, got {beta_max}")
    if rungs < 2:
        raise ValueError(f"need at least two rungs, got {rungs}")
    grid = np.linspace(0.0, beta_max, rungs)
    if beta_c is not None and 0.0 < beta_c < beta_max:
        grid = np.sort(np.append(grid[~np.isclose(grid, beta_c, rtol=1e-9, atol=0.0)], beta_c))
    return grid
