"""Finite-N disorder realizations of the pure p-spin Gaussian field.

A realization is a flat array of n^p i.i.d. standard normal couplings in
row-major index order, drawn from a counter-based generator so that any
(n, p, seed) triple regenerates bit-identically.  The energy of a
configuration sigma on the sphere ||sigma||^2 = n is the full tensor
contraction scaled by n^(-(p-1)/2); no symmetrization is applied, the sum
runs over all index tuples.

``hamiltonian`` and ``gradient`` read the raw couplings.  The tempering
chains take their energies from ``folded_hamiltonian`` instead, through the
tensor's ``fold``: the couplings of every index tuple added up with those of
its reorderings that keep the order within each half of the indices, which is
(p+1)/2^p of the n^p entries at p >= 3.  Both run the same contraction chain,
on the raw tensor or on the fold's pieces.  Folded energies differ from
``hamiltonian`` only in the last bits (summation order); the ground-state
search, whose line search depends on every bit, never builds or uses the fold.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product

import numpy as np

from ..atomic import atomic_write

DEFAULT_ENTRY_BUDGET = 2**31
_BLOCK_ENTRIES = 2**20  # intermediate entries per block of energy or gradient rows

MAGIC = b"PSPN"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIH4x")  # magic, version u16, N u32, p u16, padding


class DisorderSizeError(ValueError):
    """Requested tensor exceeds the configured entry budget."""


@dataclass(frozen=True, eq=False)
class DisorderTensor:
    n: int
    p: int
    entries: np.ndarray  # flat, length n**p, row-major over (i_1, ..., i_p)
    seed: int | None     # None when loaded from a file
    sha256: str | None = None  # of the file's bytes, if loaded

    def __eq__(self, other):
        """Same n, p, seed and entries; the file hash and the fold do not count."""
        if not isinstance(other, DisorderTensor):
            return NotImplemented
        return ((self.n, self.p, self.seed) == (other.n, other.p, other.seed)
                and np.array_equal(self.entries, other.entries))

    def tensor(self) -> np.ndarray:
        """Multi-index view of the flat entries."""
        return self.entries.reshape((self.n,) * self.p)

    @property
    def norm_factor(self) -> float:
        return float(self.n) ** (-(self.p - 1) / 2.0)

    @cached_property
    def fold(self) -> tuple[tuple[str, np.ndarray], ...]:
        """The couplings summed into floor(p/2) + 1 dense pieces, built on first use.

        The indices split into P = [0, h), h = ceil(n/2), and Q = [h, n).  A
        piece's layout names the range of each slot: P, Q, or N for all n.
        Layout P^a N Q^b holds the tuples with b or b + 1 indices in Q, their
        slots stably reordered so that the P slots come first; for even p the
        tuples with all p indices in Q have a piece Q^p of their own.  The
        pieces hold (p+1)/2^p of the n^p entries, so a tempering run at p >= 3
        holds (1 + (p+1)/2^p) 8 n^p bytes of couplings.  At p = 2 a fold would
        keep 3/4 of the entries in two pieces, and a Metropolis step on it was
        slower than on the raw couplings, so the fold is the one raw piece N^2.
        Kept in the instance's ``__dict__``: not a field, so not compared, not
        saved, and carried along by ``copy.deepcopy``.
        """
        n, p, h = self.n, self.p, (self.n + 1) // 2
        if p == 2:
            return (("NN", self.tensor()),)
        layouts = ["P" * (p - 1 - b) + "N" + "Q" * b for b in range(0, p, 2)]
        if p % 2 == 0:
            layouts.append("Q" * p)
        span = {"P": h, "Q": n - h, "N": n}
        pieces = [np.zeros([span[c] for c in layout]) for layout in layouts]
        T = self.tensor()
        for in_q in product((False, True), repeat=p):
            block = T[tuple(slice(h, None) if q else slice(h) for q in in_q)]
            j = sum(in_q)
            order = sorted(range(p), key=lambda slot: in_q[slot])  # P slots first, stably
            region = ()  # all of the piece Q^p
            if j < p or p % 2:  # the P or the Q part of the N slot, slot p - 1 - 2 (j // 2)
                half = slice(h, None) if j % 2 else slice(h)
                region = (slice(None),) * (p - 1 - j + j % 2) + (half,)
            pieces[j // 2][region] += block.transpose(order)
        return tuple(zip(layouts, pieces))


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


def _contract(J: DisorderTensor, sigma: np.ndarray, pieces) -> float | np.ndarray:
    """The energies of ``sigma`` from ``pieces``, (layout, array) pairs as in ``fold``.

    For each block of rows, each piece takes one matmul on its first slot and
    then batched mat-vecs on the others, last slot first, each slot against the
    P part, the Q part or all of the rows; the pieces' results are then added.
    No piece is wider than n^(p-1) after its matmul, which sizes the blocks.
    """
    n, p, X = J.n, J.p, _rows(J, sigma)
    half = (n + 1) // 2
    rows = max(1, _BLOCK_ENTRIES // n ** (p - 1))
    h = np.empty(len(X))
    for lo in range(0, len(X), rows):
        x = X[lo:lo + rows]
        parts = {"P": x[:, :half], "Q": x[:, half:], "N": x}
        terms = []
        for layout, piece in pieces:
            t = parts[layout[0]] @ piece.reshape(len(piece), -1)
            for slot in layout[:0:-1]:
                t = t.reshape(len(x), -1, parts[slot].shape[1]) @ parts[slot][:, :, None]
            terms.append(t.ravel())
        h[lo:lo + rows] = reduce(np.add, terms)
    h *= J.norm_factor
    return float(h[0]) if sigma.ndim == 1 else h


def hamiltonian(J: DisorderTensor, sigma: np.ndarray) -> float | np.ndarray:
    """Energy n^(-(p-1)/2) sum_t J_t sigma_{t_1} ... sigma_{t_p}: a float for (n,), (r,) for (r, n).

    One matmul takes slot 1 for a block of rows, then p - 1 batched mat-vecs
    take the last remaining slot row by row; the tensor is never copied.
    """
    return _contract(J, sigma, (("N" * J.p, J.tensor()),))


def folded_hamiltonian(J: DisorderTensor, sigma: np.ndarray) -> float | np.ndarray:
    """The energy of ``hamiltonian`` through ``J.fold``, equal to it up to rounding.

    The same chain as ``hamiltonian``, run on each piece of the fold, which it
    builds on first use.
    """
    return _contract(J, sigma, J.fold)


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
    """Write the binary tensor file, 16-byte header then little-endian f64, atomically."""
    with atomic_write(path, "wb") as fh:
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
        body = fh.read()
    entries = np.frombuffer(body, dtype="<f8").astype(np.float64)
    digest = hashlib.sha256(header + body).hexdigest()
    return DisorderTensor(n=n, p=p, entries=entries, seed=None, sha256=digest)
