"""Finite-N disorder realizations of the pure p-spin Gaussian field.

A realization is a flat array of n^p i.i.d. standard normal couplings in
row-major index order, drawn from a counter-based generator so that any
(n, p, seed) triple regenerates bit-identically.  The energy of a
configuration sigma on the sphere ||sigma||^2 = n is the full tensor
contraction scaled by n^(-(p-1)/2); no symmetrization is applied, the sum
runs over all index tuples.

``hamiltonian`` and ``gradient`` read the raw couplings and copy none of
them: ``hamiltonian`` once per block of rows, ``gradient`` twice per call, or
once when the caller passes the rows' prefix, their contraction with slot 0.
Every row loop of the simulator takes its blocks from ``_row_blocks``.  The
ground-state search takes its gradients from ``gradient`` and stays on the raw
couplings, because its line search depends on every bit.  The tempering chains
take gradients from ``sym_gradient``, through the tensor's ``sym``: the
couplings averaged over the p places of the slot that p - 1 contractions leave
free, so that they give the whole gradient; ``sym`` is not symmetric in the
contracted slots.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..atomic import atomic_write

DEFAULT_ENTRY_BUDGET = 2**31
_BLOCK_ENTRIES = 2**20  # entries per block of rows, in the block's widest array

MAGIC = b"PSPN"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIH4x")  # magic, version u16, N u32, p u16, padding


class DisorderSizeError(ValueError):
    """Requested tensor exceeds ``DEFAULT_ENTRY_BUDGET`` entries."""


@dataclass(frozen=True, eq=False)
class DisorderTensor:
    n: int
    p: int
    entries: np.ndarray  # flat, length n**p, row-major over (i_1, ..., i_p)
    sha256: str | None = None  # of the file's bytes, if loaded

    def tensor(self) -> np.ndarray:
        """Multi-index view of the flat entries."""
        return self.entries.reshape((self.n,) * self.p)

    @property
    def norm_factor(self) -> float:
        return float(self.n) ** (-(self.p - 1) / 2.0)

    @cached_property
    def sym(self) -> np.ndarray:
        """The couplings averaged over the p places of slot 1, built on first use.

        Slot 1 is the one ``sym_gradient`` leaves free; the others all take the same row, so
        their order does not matter.  The p views are summed into one buffer, the only n^p
        entries the build allocates.  Kept in the instance's ``__dict__``: not a field, so
        not in the repr, not saved, and carried by ``copy.deepcopy``.
        """
        T = self.tensor()
        out = np.zeros_like(T)
        for m in range(self.p):
            out += np.moveaxis(T, m, 1)
        out /= self.p
        return out


def _entry_count(n: int, p: int, where: str = "") -> int:
    """n^p, or ``DisorderSizeError`` (prefixed by ``where``) past ``DEFAULT_ENTRY_BUDGET``."""
    count = n**p if p * n.bit_length() <= 64 else None  # else over 2^32, and maybe huge
    if count is None or count > DEFAULT_ENTRY_BUDGET:
        size = "" if count is None else f" = {count} entries ({8 * count} bytes)"
        raise DisorderSizeError(f"{where}n={n}, p={p}: n^p{size} exceeds the budget of "
                                f"{DEFAULT_ENTRY_BUDGET} entries")
    return count


def sample_disorder(n: int, p: int, seed: int) -> DisorderTensor:
    """Draw one disorder realization, deterministic in (n, p, seed)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    count = _entry_count(n, p)
    gen = np.random.Generator(np.random.Philox(key=seed))
    entries = gen.standard_normal(count)
    return DisorderTensor(n=n, p=p, entries=entries)


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


def _row_blocks(rows: int, width: int):
    """Slices of ``rows`` rows, at most max(1, ``_BLOCK_ENTRIES`` // ``width``) each, where
    ``width`` is the entries a row takes in the block's widest array."""
    step = max(1, _BLOCK_ENTRIES // width)
    for lo in range(0, rows, step):
        yield slice(lo, min(lo + step, rows))


def _kr_power(X: np.ndarray, order: int) -> np.ndarray:
    """Row-wise Khatri-Rao power KR_order(X), (r, n^order); KR_1(X) = X."""
    power = X
    for _ in range(order - 1):
        power = (power[:, :, None] * X[:, None, :]).reshape(X.shape[0], -1)
    return power


def _contract_tail(t: np.ndarray, x: np.ndarray, slots: int) -> np.ndarray:
    """Each row of ``t`` with its last ``slots`` slots against that row of x, last first."""
    for _ in range(slots):
        t = t.reshape(len(x), -1, x.shape[1]) @ x[:, :, None]
    return t.reshape(len(x), -1)


def _contract(J: DisorderTensor, T: np.ndarray, sigma: np.ndarray, slots: int) -> np.ndarray:
    """``slots`` slots of the (n,) * p tensor ``T`` against each row of ``sigma``.

    For each block of rows, one matmul takes slot 0 and batched mat-vecs then
    take the last remaining slot; the tensor is never copied.  Returns
    (r, n^(p - slots)); blocks are n^(p-1) wide after their matmul.
    """
    n, p, X = J.n, J.p, _rows(J, sigma)
    out = np.empty((len(X), n ** (p - slots)))
    for block in _row_blocks(len(X), n ** (p - 1)):
        x = X[block]
        out[block] = _contract_tail(x @ T.reshape(n, -1), x, slots - 1)
    return out


def hamiltonian(J: DisorderTensor, sigma: np.ndarray) -> float | np.ndarray:
    """Energy n^(-(p-1)/2) sum_t J_t sigma_{t_1} ... sigma_{t_p}: a float for (n,), (r,) for (r, n)."""
    h = _contract(J, J.tensor(), sigma, J.p)[:, 0]
    h *= J.norm_factor
    return float(h[0]) if sigma.ndim == 1 else h


def sym_gradient(J: DisorderTensor, sigma: np.ndarray) -> np.ndarray:
    """The energy gradient through ``J.sym``, equal to ``gradient``'s up to rounding.

    p n^(-(p-1)/2) times ``J.sym`` against every slot but one: one matmul and
    p - 2 batched mat-vecs, where ``gradient`` needs two matmuls over the raw
    tensor to get every slot's term.
    """
    g = _contract(J, J.sym, sigma, J.p - 1)
    g *= J.p * J.norm_factor
    return g.reshape(sigma.shape)


def gradient(J: DisorderTensor, sigma: np.ndarray, prefix: np.ndarray | None = None,
             last: np.ndarray | None = None) -> np.ndarray:
    """Euclidean gradient of the energy at one configuration (n,) or a stack (r, n); g . sigma = p H.

    X reads the couplings twice: on their last slot, for slot 0's term, and on slot 0, for the
    prefix t; batched mat-vecs take the other slots out of both.  A caller that holds the
    prefix, ``X @ J.entries.reshape(n, -1)`` with n^(p-1) entries per row, passes it as
    ``prefix`` and saves the second read; it is not modified.  A caller that wants the
    last-slot product ``X @ J.entries.reshape(-1, n).T`` passes an array of that shape as
    ``last`` to receive it.  All rows go in one pass, n^(p-1) entries each: a caller with many
    rows bounds them by ``_row_blocks``, as the ground-state search does.
    """
    n, p, T, X = J.n, J.p, J.entries.reshape(J.n, -1), _rows(J, sigma)
    if prefix is not None and prefix.size != len(X) * n ** (p - 1):
        raise ValueError(f"prefix of {prefix.size} entries does not match {len(X)} rows")
    u = np.matmul(X, T.reshape(-1, n).T, out=last)
    g = _contract_tail(u, X, p - 2).copy()  # at p = 2 a view of u, which may be ``last``
    del u
    t = (X @ T if prefix is None else prefix).reshape(len(X), n, -1)
    for m in range(1, p - 1):
        g += _contract_tail(t, X, p - 1 - m)
        t = (X[:, None, :] @ t).reshape(len(X), n, -1)
    g += t[:, :, 0]
    return J.norm_factor * g.reshape(sigma.shape)


def save_disorder(J: DisorderTensor, path: str) -> None:
    """Write the binary tensor file, 16-byte header then little-endian f64, atomically."""
    with atomic_write(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, J.n, J.p))
        fh.write(np.ascontiguousarray(J.entries, dtype="<f8"))  # the buffer, not a copy


def load_disorder(path: str) -> DisorderTensor:
    """Read a tensor written by ``save_disorder``, into its one copy of the couplings."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, n, p = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if n < 2 or p < 2:
            raise ValueError(f"{path}: header holds n={n}, p={p}; both must be >= 2")
        count = _entry_count(n, p, f"{path}: ")
        found = (os.fstat(fh.fileno()).st_size - _HEADER.size) / 8
        if found != count:  # checked before reading, so a bad header allocates nothing
            raise ValueError(f"{path}: expected {count} entries for n={n}, p={p}, found {found:g}")
        entries = np.empty(count, dtype="<f8")
        if fh.readinto(entries) != entries.nbytes:
            raise ValueError(f"{path}: truncated while reading")
    digest = hashlib.sha256(header)
    digest.update(entries)  # the array's buffer: the file's body bytes
    entries = entries.astype(np.float64, copy=False)  # no copy on a little-endian host
    return DisorderTensor(n=n, p=p, entries=entries, sha256=digest.hexdigest())
