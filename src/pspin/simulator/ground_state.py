"""Ground-state search by Riemannian conjugate gradient on the sphere, with a Newton finish.

Restarts ascend together as one (R, n) array per row block of the kernels,
n^(p-1) prefix entries a row; a row leaves it when it stops.  Each step
follows a Polak-Ribiere+ direction (the previous one is projected onto the new
tangent space; Absil, Mahony & Sepulchre, 2008) to the exact maximum on the
great circle cos(t) sigma + sin(t) v, |v|^2 = n, where
H = sum_k a_k cos^(p-k) sin^k: a_0 = H(sigma) and a_1 = g.v come from the
gradient, a_2..a_p from the prefixes sigma.T and v.T, the couplings against
slot 0, by batched mat-vecs over the other slots (Kolda & Bader, 2009, 2.5).
Each row carries sigma.T from step to step, since it is linear in sigma, so an
iteration reads the couplings twice: once in the gradient, once for v.T.

CG converges linearly.  At p >= 3, a row whose gradient norm per sqrt(n) is
at most 0.1 tries the Riemannian Newton direction (Absil et al., ch. 6): it
takes it, along the same line search, where its tangent Hessian is negative
definite, and converges quadratically; elsewhere it keeps its CG direction and
tries again once its gradient norm has halved.  The Hessian reuses the
gradient's product of the couplings with sigma on their last slot, and the
prefix, so a try reads the couplings once more; a Cholesky test of each
trying row on its own and the n x n solves add about n^3 flops a row, as much
as one read at p = 3 and less above.  At p = 2 an iteration costs only n^2 per
row, far less than the solve, so CG finishes there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderTensor, _kr_power, _row_blocks, gradient, random_configuration

_NEWTON_GNORM = 0.1  # gradient norm per sqrt(n) at or below which a row tries a Newton step


@dataclass(frozen=True)
class GroundStateResult:
    sigma: np.ndarray
    energy_per_spin: float
    converged: bool           # all restarts met the gradient tolerance
    restart_energies: tuple[float, ...]
    restart_converged: tuple[bool, ...]
    restart_iterations: tuple[int, ...]
    restart_stop_reasons: tuple[str, ...]    # "tol", "stalled" or "max_iters"
    restart_gradient_norms: tuple[float, ...]  # final |tangential gradient| / sqrt(n)
    restart_newton_steps: tuple[int, ...]      # iterations that took a Newton direction


def _basis(t: np.ndarray, p: int) -> np.ndarray:
    """cos^(p-k)(t) sin^k(t) for k = 0..p, along a new last axis."""
    k = np.arange(p + 1)
    return np.cos(t)[..., None] ** (p - k) * np.sin(t)[..., None] ** k


def _circle(p: int):
    """The derivative map and the search grid on the circle."""
    # f' = sum_k b_k cos^(p-k) sin^k with b = deriv @ a
    deriv = np.diag(np.arange(1.0, p + 1), 1) - np.diag(np.arange(float(p), 0, -1), -1)
    grid = np.linspace(0.0, 2.0 * np.pi, 16 * p, endpoint=False)
    return deriv, grid, _basis(grid, p)


def _circle_coefficients(ts: np.ndarray, tv: np.ndarray, sigma: np.ndarray, v: np.ndarray):
    """Per row, b_0..b_p with T(x, ..., x) = sum_k b_k cos^(p-k) sin^k, x = cos t sigma + sin t v.

    ``ts`` and ``tv`` are sigma and v against slot 0, (r, n^(p-1)).  Entry k of
    ``terms`` sums the slot choices with k of them v so far; each further slot
    takes sigma and v out of every term by batched mat-vecs.
    """
    r, n = sigma.shape
    w = np.stack([sigma, v], axis=1)
    terms = [ts, tv]
    while terms[0].shape[1] > 1:
        out = [w @ term.reshape(r, n, -1) for term in terms]  # (r, 2, width / n)
        terms = [out[0][:, 0], *(out[k][:, 0] + out[k - 1][:, 1] for k in range(1, len(out))),
                 out[-1][:, 1]]
    return np.concatenate(terms, axis=1)


def _circle_argmax(a: np.ndarray, p: int, deriv, grid, at_grid) -> np.ndarray:
    """Per row, the angle maximizing sum_k a_k cos^(p-k)(t) sin^k(t): from the best
    grid point, Newton steps (uphill steps where the curvature is not negative)
    held to a trust radius that shrinks whenever a step loses more than rounding.
    """
    t = grid[np.argmax(a @ at_grid.T, axis=1)]
    coef = np.stack([a, a @ deriv.T, a @ deriv.T @ deriv.T], axis=1)  # f, f', f''
    f, f1, f2 = np.einsum("rk,rjk->jr", _basis(t, p), coef)
    slack = 8 * np.finfo(float).eps * np.abs(a).sum(axis=1)
    radius = np.full(len(a), grid[1])
    for _ in range(40):
        newton = np.where(f2 < 0, f1 / np.where(f2 < 0, -f2, 1.0), np.sign(f1) * radius)
        step = np.clip(newton, -radius, radius)
        cand = np.einsum("rk,rjk->jr", _basis(t + step, p), coef)
        ok = cand[0] >= f - slack
        t, f, f1, f2, radius = np.where(ok, (t + step, *cand, radius), (t, f, f1, f2, radius / 4))
        if np.all(np.abs(step) <= 1e-13):
            break
    return t


def _pair_blocks(A: np.ndarray, x: np.ndarray, q: int, pairs):
    """Per pair (a, b), A with every slot but a and b against the row x, as (r, n, n).

    ``A`` is (r, n^q), one q-slot tensor per row; slot a indexes the rows of
    each block and slot b its columns.  Slots are taken out last first, so the
    earlier ones keep their places.
    """
    r, n = x.shape
    for a, b in pairs:
        block = A
        for s in reversed(range(q)):
            if s not in (a, b):
                block = np.einsum("rknm,rn->rkm", block.reshape(r, n ** s, n, -1), x)
        yield block.reshape(r, n, n)


def _hessian(J: DisorderTensor, x: np.ndarray, ts: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Euclidean Hessian of the energy at each row of x, (r, n, n), given the couplings against
    x on slot 0, the prefixes ts, and on slot p-1, the products ``last``.

    It sums, over the slot pairs s < t, the couplings with every other slot
    against x, and their transposes.  Pair (0, p-1) comes from KR_(p-2)(x)
    against the middle slots, the one read of the couplings; pairs (0, s < p-1)
    come from ``last`` and pairs among slots 1..p-1 from ts.  Needs p >= 3.
    """
    n, p, T = J.n, J.p, J.entries.reshape(J.n, -1)
    q = p - 1
    hess = np.empty((len(x), n, n))  # contiguous, so that the in-place sums need no buffers
    np.matmul(_kr_power(x, p - 2), T.reshape(n, -1, n), out=hess.transpose(1, 0, 2))
    for block in _pair_blocks(last, x, q, [(0, b) for b in range(1, q)]):
        hess += block
    for block in _pair_blocks(ts, x, q, [(a, b) for b in range(q) for a in range(b)]):
        hess += block
    hess += hess.transpose(0, 2, 1).copy()  # numpy's own copy for the overlap buffers more
    hess *= J.norm_factor
    return hess


def _newton_directions(J: DisorderTensor, x: np.ndarray, B: np.ndarray, h: np.ndarray,
                       tangent: np.ndarray):
    """Riemannian Newton directions at the rows of x that have one, and those rows as a mask.

    ``B`` holds the rows' Euclidean Hessians and is overwritten.  The tangent Hessian
    B = P (Hessian - (p H / n) I) P - x x^T / n, with P the projection off x, sends x to
    -x; where it is negative definite the direction solves B eta = -tangent, so it is
    tangent and points uphill.
    """
    n = J.n
    B.reshape(len(x), -1)[:, ::n + 1] -= (J.p * h / n)[:, None]  # the diagonals
    Bx = (B @ x[:, :, None])[:, :, 0] / n  # B is symmetric, so also x^T B / n
    # P (.) P - x x^T / n as one rank-2 update, B - x y^T - y x^T; then the sign flips
    y = Bx - (((Bx * x).sum(axis=1) - 1) / (2 * n))[:, None] * x
    np.subtract(np.stack([x, y], axis=2) @ np.stack([y, x], axis=1), B, out=B)
    # now B holds -B, positive definite at the rows near a maximum; one Cholesky test a row
    ok = np.ones(len(x), dtype=bool)
    for row in range(len(x)):
        try:
            np.linalg.cholesky(B[row])
        except np.linalg.LinAlgError:  # the row is not near a maximum: it keeps its CG direction
            ok[row] = False
    eta = np.linalg.solve(B if ok.all() else B[ok], tangent[ok][:, :, None])[:, :, 0]
    return eta, ok


def _ascend(J: DisorderTensor, sigma: np.ndarray, max_iters: int, tol: float):
    """Ascend the rows of ``sigma`` together until each stops.

    Returns each row's final configuration, energy, gradient norm per sqrt(n),
    iteration count, stop reason and Newton step count.  Each row carries its
    prefix ``ts``, sigma against slot 0: the gradient takes it in place of its
    second read of the couplings, and the line search reads them once more, for v.
    The gradient's other product, ``last``, is kept for the rows that try Newton.
    """
    n, p, T = J.n, J.p, J.entries.reshape(J.n, -1)
    search_grid = _circle(p)
    r = len(sigma)
    final, energy, grad_norm = np.empty_like(sigma), np.empty(r), np.empty(r)
    iterations, reasons, newton = [0] * r, [""] * r, np.zeros(r, dtype=int)
    ts = sigma @ T
    live = np.arange(r)  # index of each row still ascending
    stuck = np.zeros(r, dtype=bool)  # the last line search left the row in place
    retry = np.full(r, _NEWTON_GNORM)  # gradient norm at or below which a row tries Newton
    prev_dir, prev_tangent, prev_gg = np.zeros_like(sigma), np.zeros_like(sigma), np.ones(r)

    for it in range(max_iters + 1):
        last = np.empty_like(ts) if p > 2 else None  # slot p-1's product, for the Hessian
        g = gradient(J, sigma, prefix=ts, last=last)
        h = (g * sigma).sum(axis=1) / p  # g . sigma = p H
        tangent = g - (p * h / n)[:, None] * sigma
        gg = (tangent * tangent).sum(axis=1)
        gnorm = np.sqrt(gg / n)
        why = np.where(gnorm <= tol, "tol",
                       np.where(stuck, "stalled", "max_iters" if it == max_iters else ""))
        for row in np.flatnonzero(why != ""):
            i = live[row]
            final[i], energy[i], grad_norm[i] = sigma[row], h[row], gnorm[row]
            iterations[i], reasons[i] = it, str(why[row])
        keep = why == ""
        if not keep.any():
            break
        # a Newton try where the gradient is small enough; at p = 2 an iteration costs n^2
        # per row against n^3 for a solve, so CG finishes the ascent there
        near = keep & (gnorm <= retry) & (p > 2)
        last = last[near] if near.any() else None
        if not keep.all():
            # compress, not a mask index, which buffers a few KB per call
            sigma, ts, h, tangent, gg, gnorm, near, retry, live, prev_dir, prev_tangent, prev_gg = (
                x.compress(keep, axis=0) for x in (sigma, ts, h, tangent, gg, gnorm, near, retry,
                                                   live, prev_dir, prev_tangent, prev_gg))

        # Polak-Ribiere+ direction, the previous one projected onto this tangent space
        beta = np.maximum(0.0, (gg - (tangent * prev_tangent).sum(axis=1)) / prev_gg)
        carried = prev_dir - ((prev_dir * sigma).sum(axis=1) / n)[:, None] * sigma
        direction = tangent + beta[:, None] * carried
        direction = np.where(((direction * tangent).sum(axis=1) > 0)[:, None], direction, tangent)
        # a Newton direction where the tangent Hessian is negative definite; where it is
        # not, the row tries again once its gradient norm has halved
        near = np.flatnonzero(near)
        if len(near):
            x = sigma[near]
            B = _hessian(J, x, ts[near], last)
            del last  # before the factorizations, to bound the peak memory
            eta, ok = _newton_directions(J, x, B, h[near], tangent[near])
            del B  # held through the line search, it would raise the peak memory
            direction[near[ok]] = eta
            newton[live[near[ok]]] += 1
            retry[near[~ok]] = gnorm[near[~ok]] / 2
        v = direction * (np.sqrt(n) / np.linalg.norm(direction, axis=1))[:, None]

        # energy on the great circle: a_0, a_1 from the gradient, the rest from the prefixes
        tv = v @ T
        a = J.norm_factor * _circle_coefficients(ts, tv, sigma, v)
        a[:, 0], a[:, 1] = h, (tangent * v).sum(axis=1)
        t = _circle_argmax(a, p, *search_grid)
        cos, sin = np.cos(t)[:, None], np.sin(t)[:, None]
        moved = cos * sigma + sin * v
        scale = (np.sqrt(n) / np.linalg.norm(moved, axis=1))[:, None]
        moved *= scale
        # the prefix is linear in sigma, so it follows the move without a read
        tv *= sin
        ts *= cos
        ts += tv
        ts *= scale
        del tv  # held through the next gradient, it would raise the peak memory
        stuck = (t == 0.0) | np.all(moved == sigma, axis=1)
        sigma, prev_dir, prev_tangent, prev_gg = moved, direction, tangent, gg

    return final, energy, grad_norm, iterations, reasons, newton


def ground_state_search(
    J: DisorderTensor,
    restarts: int = 10,
    max_iters: int = 2000,
    tol: float = 1e-7,
    seed: int = 0,
) -> GroundStateResult:
    """Best local maximum of the energy over ``restarts`` random starts.

    A restart stops with reason "tol" once its tangential gradient norm per
    sqrt(n) is at most ``tol``, "stalled" once a line search leaves it where
    it is, and "max_iters" after ``max_iters`` line searches, contributing its
    last iterate; only "tol" counts as converged.  Restarts ascend in the
    kernels' row blocks, n^(p-1) prefix entries a row, which also bound the
    gradient's.  Runs are bit-reproducible.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    n, p = J.n, J.p
    rng = np.random.default_rng(np.random.SeedSequence((seed, n, p)))
    sigma = np.stack([random_configuration(n, rng) for _ in range(restarts)])
    parts = [_ascend(J, sigma[block], max_iters, tol)
             for block in _row_blocks(restarts, n ** (p - 1))]
    final, energy, grad_norm, iterations, reasons, newton = (
        np.concatenate(x) for x in zip(*parts))

    best = int(np.argmax(energy))
    return GroundStateResult(
        sigma=final[best].copy(),
        energy_per_spin=float(energy[best] / n),
        converged=all(r == "tol" for r in reasons),
        restart_energies=tuple(float(e / n) for e in energy),
        restart_converged=tuple(r == "tol" for r in reasons),
        restart_iterations=tuple(int(i) for i in iterations),
        restart_stop_reasons=tuple(str(r) for r in reasons),
        restart_gradient_norms=tuple(float(x) for x in grad_norm),
        restart_newton_steps=tuple(int(k) for k in newton),
    )
