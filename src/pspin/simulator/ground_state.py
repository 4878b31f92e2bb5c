"""Ground-state search by Riemannian conjugate gradient on the sphere.

All restarts ascend together as one (R, n) array; a row leaves it when it
stops.  Each step follows a Polak-Ribiere+ direction (the previous one is
projected onto the new tangent space; Absil, Mahony & Sepulchre, 2008) to the
exact maximum on the great circle cos(t) sigma + sin(t) v, |v|^2 = n, where
H = sum_k a_k cos^(p-k) sin^k: a_0 = H(sigma) and a_1 = g.v come from the
gradient, a_2..a_p from energies at p-1 fixed angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import DisorderTensor, gradient, hamiltonian, random_configuration


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


def _basis(t: np.ndarray, p: int) -> np.ndarray:
    """cos^(p-k)(t) sin^k(t) for k = 0..p, along a new last axis."""
    k = np.arange(p + 1)
    return np.cos(t)[..., None] ** (p - k) * np.sin(t)[..., None] ** k


def _circle(p: int):
    """Fixed angles, the solve for a_2..a_p, the derivative map and the grid."""
    angles = np.arange(1, p) * np.pi / p
    at_angles = _basis(angles, p)
    # f' = sum_k b_k cos^(p-k) sin^k with b = deriv @ a
    deriv = np.diag(np.arange(1.0, p + 1), 1) - np.diag(np.arange(float(p), 0, -1), -1)
    grid = np.linspace(0.0, 2.0 * np.pi, 16 * p, endpoint=False)
    return angles, at_angles[:, :2], np.linalg.inv(at_angles[:, 2:]), deriv, grid, _basis(grid, p)


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
    last iterate; only "tol" counts as converged.  Runs are bit-reproducible.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    n, p = J.n, J.p
    angles, hermite, solve, *search_grid = _circle(p)
    rng = np.random.default_rng(np.random.SeedSequence((seed, n, p)))
    sigma = np.stack([random_configuration(n, rng) for _ in range(restarts)])

    final, energy, grad_norm = np.empty_like(sigma), np.empty(restarts), np.empty(restarts)
    iterations, reasons = [0] * restarts, [""] * restarts
    live = np.arange(restarts)  # restart index of each row still ascending
    stuck = np.zeros(restarts, dtype=bool)  # the last line search left the row in place
    prev_dir, prev_tangent, prev_gg = np.zeros_like(sigma), np.zeros_like(sigma), np.ones(restarts)

    for it in range(max_iters + 1):
        g = gradient(J, sigma)
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
        sigma, h, tangent, gg, live, prev_dir, prev_tangent, prev_gg = (
            x[keep] for x in (sigma, h, tangent, gg, live, prev_dir, prev_tangent, prev_gg))

        # Polak-Ribiere+ direction, the previous one projected onto this tangent space
        beta = np.maximum(0.0, (gg - (tangent * prev_tangent).sum(axis=1)) / prev_gg)
        carried = prev_dir - ((prev_dir * sigma).sum(axis=1) / n)[:, None] * sigma
        direction = tangent + beta[:, None] * carried
        direction = np.where(((direction * tangent).sum(axis=1) > 0)[:, None], direction, tangent)
        v = direction * (np.sqrt(n) / np.linalg.norm(direction, axis=1))[:, None]

        # energy on the great circle: a_0, a_1 from the gradient, the rest from p-1 angles
        points = np.cos(angles)[:, None] * sigma[:, None] + np.sin(angles)[:, None] * v[:, None]
        on_circle = hamiltonian(J, points.reshape(-1, n)).reshape(len(sigma), p - 1)
        a01 = np.stack([h, (tangent * v).sum(axis=1)], axis=1)
        a = np.concatenate([a01, (on_circle - a01 @ hermite.T) @ solve.T], axis=1)
        t = _circle_argmax(a, p, *search_grid)
        moved = np.cos(t)[:, None] * sigma + np.sin(t)[:, None] * v
        moved *= (np.sqrt(n) / np.linalg.norm(moved, axis=1))[:, None]
        stuck = (t == 0.0) | np.all(moved == sigma, axis=1)
        sigma, prev_dir, prev_tangent, prev_gg = moved, direction, tangent, gg

    best = int(np.argmax(energy))
    return GroundStateResult(
        sigma=final[best].copy(),
        energy_per_spin=float(energy[best] / n),
        converged=all(r == "tol" for r in reasons),
        restart_energies=tuple(float(e / n) for e in energy),
        restart_converged=tuple(r == "tol" for r in reasons),
        restart_iterations=tuple(iterations),
        restart_stop_reasons=tuple(reasons),
        restart_gradient_norms=tuple(float(x) for x in grad_norm),
    )
