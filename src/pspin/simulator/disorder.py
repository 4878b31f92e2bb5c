"""Finite-N disorder realizations of the pure p-spin Gaussian field.

A realization is a flat array of n^p i.i.d. standard normal couplings in
row-major index order, drawn from a counter-based generator so that any
(n, p, seed) triple regenerates bit-identically.  The energy of a
configuration sigma on the sphere ||sigma||^2 = n is the full tensor
contraction scaled by n^(-(p-1)/2); no symmetrization is applied, the sum
runs over all index tuples.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

DEFAULT_ENTRY_BUDGET = 2**31
_BLOCK_ENTRIES = 2**20  # Khatri-Rao entries per block of gradient rows

MAGIC = b"PSPN"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIH4x")  # magic, version u16, N u32, p u16, padding


class DisorderSizeError(ValueError):
    """Requested tensor exceeds the configured entry budget."""


@dataclass(frozen=True)
class DisorderTensor:
    n: int
    p: int
    entries: np.ndarray  # flat, length n**p, row-major over (i_1, ..., i_p)
    seed: int | None     # None when loaded from a file

    def tensor(self) -> np.ndarray:
        """Multi-index view of the flat entries."""
        return self.entries.reshape((self.n,) * self.p)

    @property
    def norm_factor(self) -> float:
        return float(self.n) ** (-(self.p - 1) / 2.0)


def sample_disorder(
    n: int, p: int, seed: int, max_entries: int = DEFAULT_ENTRY_BUDGET
) -> DisorderTensor:
    """Draw one disorder realization, deterministic in (n, p, seed)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    count = n**p
    if count > max_entries:
        raise DisorderSizeError(
            f"n^p = {count} entries ({8 * count} bytes) exceeds the budget of "
            f"{max_entries} entries"
        )
    gen = np.random.Generator(np.random.Philox(key=seed))
    entries = gen.standard_normal(count)
    return DisorderTensor(n=n, p=p, entries=entries, seed=seed)


def random_configuration(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the sphere of squared norm n."""
    return project_to_sphere(rng.standard_normal(n), n)


def project_to_sphere(x: np.ndarray, n: int) -> np.ndarray:
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise ValueError("cannot project the zero vector onto the sphere")
    return x * (np.sqrt(n) / norm)


def overlap(s1: np.ndarray, s2: np.ndarray) -> float:
    """Normalized inner product (1/n) s1.s2."""
    return float(s1 @ s2) / s1.shape[0]


def _rows(J: DisorderTensor, sigma: np.ndarray) -> np.ndarray:
    if sigma.ndim not in (1, 2) or sigma.shape[-1] != J.n:
        raise ValueError(f"configuration shape {sigma.shape} does not match n={J.n}")
    return sigma.reshape(-1, J.n)


def _kr_powers(X: np.ndarray, order: int) -> list[np.ndarray]:
    """Row-wise Khatri-Rao powers KR_0(X), ..., KR_order(X); KR_k is (r, n^k)."""
    powers = [np.ones((X.shape[0], 1))]
    for _ in range(order):
        powers.append((powers[-1][:, :, None] * X[:, None, :]).reshape(X.shape[0], -1))
    return powers


def hamiltonian(J: DisorderTensor, sigma: np.ndarray) -> float | np.ndarray:
    """Energy n^(-(p-1)/2) sum_t J_t sigma_{t_1} ... sigma_{t_p}: a float for (n,), (r,) for (r, n).

    KR_m(X), m = p - p // 2, takes the first m slots in one matmul, the rest go row by row.
    """
    n, p, m = J.n, J.p, J.p - J.p // 2
    kr = _kr_powers(_rows(J, sigma), m)
    h = J.norm_factor * ((kr[m] @ J.entries.reshape(n**m, -1)) * kr[p - m]).sum(axis=1)
    return float(h[0]) if sigma.ndim == 1 else h


def hamiltonian_batch(J: DisorderTensor, configs: np.ndarray) -> np.ndarray:
    """Energies of a stack of configurations, shape (r, n) -> (r,).

    Contracts one tensor axis at a time against all rows at once; the first
    contraction is a single matmul over the full tensor, which dominates the
    cost and is far cheaper than r separate contractions.
    """
    configs = np.atleast_2d(configs)
    if configs.shape[1] != J.n:
        raise ValueError(f"configuration shape {configs.shape} does not match n={J.n}")
    n, p = J.n, J.p
    t = J.entries.reshape(n ** (p - 1), n) @ configs.T  # (n^(p-1), r)
    for m in range(p - 1, 0, -1):
        t = np.einsum("anr,rn->ar", t.reshape(n ** (m - 1), n, -1), configs)
    return J.norm_factor * t.ravel()


def gradient(J: DisorderTensor, sigma: np.ndarray) -> np.ndarray:
    """Euclidean gradient of the energy at one configuration (n,) or a stack (r, n).

    For slot m, KR_m(X) times the (n^m, n^(p-m)) view of the couplings takes
    slots 0..m-1 and the slots after m go row by row; slots 0 and p-1 go first
    so that KR_(p-1)(X) is freed early.  Each slot reads the tensor once per
    block of rows and copies none of it.  g . sigma = p H.
    """
    n, p, T, X = J.n, J.p, J.entries, _rows(J, sigma)
    rows = max(1, _BLOCK_ENTRIES // n ** (p - 1))
    blocks = []
    for kr in (_kr_powers(X[lo:lo + rows], p - 1) for lo in range(0, len(X), rows)):
        g = (T.reshape(n, -1) @ kr[p - 1].T).T + kr.pop() @ T.reshape(-1, n)
        for m in range(1, p - 1):
            head = (kr[m] @ T.reshape(n**m, -1)).reshape(len(g), n, -1)
            g += (head @ kr[p - 1 - m][:, :, None])[:, :, 0]
        blocks.append(g)
    return J.norm_factor * np.concatenate(blocks).reshape(sigma.shape)


def save_disorder(J: DisorderTensor, path: str) -> None:
    """Write the binary tensor file: 16-byte header then little-endian f64."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, J.n, J.p))
        fh.write(J.entries.astype("<f8", copy=False).tobytes())


def load_disorder(path: str) -> DisorderTensor:
    """Read a tensor written by ``save_disorder``."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, n, p = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        found = (os.fstat(fh.fileno()).st_size - _HEADER.size) / 8
        if found != n**p:  # checked before reading, so a bad header allocates nothing
            raise ValueError(f"{path}: expected {n**p} entries for n={n}, p={p}, found {found:g}")
        entries = np.frombuffer(fh.read(), dtype="<f8")
    return DisorderTensor(n=n, p=p, entries=entries.astype(np.float64), seed=None)
