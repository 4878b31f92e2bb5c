"""Command-line front end.

Subcommands
  critical   solved critical triple (q_c, beta_c, e_star) with residuals
  sweep      per-beta overlap and free-energy curve
  gstate     ground-state search on one disorder realization
  mc-verify  covariance z-scores and gradient finite-difference checks
  thermo     thermodynamic-integration free energy vs the exact curve
  probe      pairwise-overlap histogram of independent replica chains

Outputs are CSV (default, gnuplot-ready: comment line with the full config,
then a header row) or JSON ({meta, rows}).  Exit codes: 0 success, 1
numerical failure, 2 usage error.  PSPIN_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .atomic import atomic_write
from .critical import p2_betac_residual, residuals_prop, solve_critical
from .free_energy import free_energy, sweep as fe_sweep
from .simulator import (
    DisorderTensor,
    TemperingEnsemble,
    covariance_check,
    default_ladder,
    gradient_fd_check,
    ground_state_search,
    load_disorder,
    overlap_probe,
    sample_disorder,
    save_disorder,
    tempering_sweep,
    thermo_integration,
)

FORMATS = ("csv", "json")
MAX_GRID_POINTS = 100_000  # in a 'min:max:step' grid spec
# [least, limit) of each integer option; the seed keys a Philox generator
INT_BOUNDS = {"p": (2, math.inf), "n": (2, math.inf), "seed": (0, 2**128),
              "max_iters": (0, math.inf), "burn_in": (0, math.inf), "bins": (1, math.inf),
              "rungs": (2, math.inf), "k": (2, math.inf), "sweeps": (1, math.inf),
              "restarts": (1, math.inf), "trials": (0, math.inf), "draws": (1000, math.inf)}


def parse_beta_grid(spec: str) -> list[float]:
    """Grid spec: 'min:max:step' (inclusive endpoints, at most MAX_GRID_POINTS), comma list,
    or scalar; all finite."""
    not_finite = ValueError(f"grid spec {spec!r}: values and point count must be finite")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be min:max:step, got {spec!r}")
        lo, hi, step = (float(x) for x in parts)
        if step <= 0.0 or hi < lo:
            raise ValueError(f"bad grid spec {spec!r}")
        span = (hi - lo) / step
        if not all(map(math.isfinite, (lo, hi, step, span))):  # span counts the points
            raise not_finite
        if span > MAX_GRID_POINTS - 1:  # checked before any list is built
            raise ValueError(f"grid spec {spec!r} holds more than {MAX_GRID_POINTS} points")
        count = int(math.floor(span + 1e-9)) + 1
        grid = [lo + i * step for i in range(count)]
        if grid[-1] < hi - 1e-9 * max(1.0, abs(hi)):
            grid.append(hi)
        return grid
    grid = [float(x) for x in spec.split(",") if x.strip()]
    if not grid:
        raise ValueError(f"empty grid spec {spec!r}")
    if not all(map(math.isfinite, grid)):
        raise not_finite
    return grid


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser, and its subparser for each command."""
    parser = argparse.ArgumentParser(
        prog="pspin",
        description="TAP thermodynamics of spherical pure p-spin models and a finite-N Monte Carlo cross-check.",
    )
    parser.add_argument("--config", help="JSON file of default option values (flags override)")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add_command(name, help, *, needs_n=False):
        sp = commands[name] = sub.add_parser(name, help=help)
        sp.add_argument("--p", type=int, required=True, help="interaction degree, p >= 2")
        sp.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: PSPIN_SEED or 0)")
        sp.add_argument("--output", "-o", default=None, help="output path (default: stdout)")
        sp.add_argument("--format", choices=FORMATS, default="csv")
        if needs_n:
            sp.add_argument("--n", type=int, required=True, help="system dimension N")
            sp.add_argument("--disorder-file", default=None,
                            help="binary tensor file: loaded if present, else sampled and saved")
        return sp

    add_command("critical", "solved critical triple with residuals")

    sp = add_command("sweep", "overlap and free energy on a beta grid")
    sp.add_argument("--beta", default="0:5:0.01",
                    help="grid: min:max:step (inclusive) or comma list")

    sp = add_command("gstate", "ground-state search", needs_n=True)
    sp.add_argument("--restarts", type=int, default=50)
    sp.add_argument("--max-iters", type=int, default=2000)
    sp.add_argument("--tol", type=float, default=1e-7, help="tangential gradient tolerance")

    sp = add_command("mc-verify", "covariance and gradient checks", needs_n=True)
    sp.add_argument("--draws", type=int, default=100_000, help="disorder draws per covariance pair")
    sp.add_argument("--trials", type=int, default=20, help="gradient finite-difference trials")

    sp = add_command("thermo", "thermodynamic-integration free energy", needs_n=True)
    sp.add_argument("--beta-max", type=float, default=1.0)
    sp.add_argument("--rungs", type=int, default=13)
    sp.add_argument("--sweeps", type=int, default=1500, help="recorded measurement sweeps")
    sp.add_argument("--burn-in", type=int, default=500)

    sp = add_command("probe", "replica pairwise-overlap histogram", needs_n=True)
    sp.add_argument("--beta", type=float, default=None,
                    help="probed inverse temperature (default: 2 beta_c)")
    sp.add_argument("--k", type=int, default=4, help="number of independent replicas")
    sp.add_argument("--rungs", type=int, default=12)
    sp.add_argument("--sweeps", type=int, default=1000, help="recorded measurement sweeps")
    sp.add_argument("--burn-in", type=int, default=500)
    sp.add_argument("--bins", type=int, default=80)
    return parser, commands


def parse_config(argv: list[str]) -> argparse.Namespace:
    """Parse flags into the run's namespace, with ``seed`` resolved and ``beta_grid`` set.

    A ``--config`` JSON file's keys become defaults of the chosen command; flags still win.
    """
    parser, commands = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config is not None:
        try:
            with open(ns.config) as fh:
                values = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config file {ns.config}: {exc}")
        if not isinstance(values, dict):
            parser.error(f"config file {ns.config} must hold a JSON object")
        known = set(vars(ns)) - {"command", "config"}  # the chosen command's options
        for key, value in values.items():
            if key.replace("-", "_") not in known:
                parser.error(f"unknown config key {key!r} for command {ns.command!r}")
            if isinstance(value, (bool, list, dict)):
                parser.error(f"config key {key!r} must hold a string, a number or null")
        # argparse runs string defaults through each option's type, as it does a flag's value
        commands[ns.command].set_defaults(
            **{k.replace("-", "_"): v if v is None else str(v) for k, v in values.items()})
        ns = parser.parse_args(argv)
        if ns.format not in FORMATS:  # argparse checks choices, --format's only, on flags alone
            parser.error(f"argument --format: invalid choice: {ns.format!r} (choose from {FORMATS})")

    if ns.seed is None:  # PSPIN_SEED is checked here, the value of any source by the table
        env = os.environ.get("PSPIN_SEED", "0")
        try:
            ns.seed = int(env)
        except ValueError:
            parser.error(f"PSPIN_SEED must hold an integer seed, got {env!r}")
    for dest, (least, limit) in INT_BOUNDS.items():
        value = getattr(ns, dest, None)  # None: not an option of this command
        if value is not None and not least <= value < limit:
            bound = f">= {least}" if value < least else f"< 2**{limit.bit_length() - 1}"
            parser.error(f"--{dest.replace('_', '-')} must be {bound}, got {value}")
    dest = {"gstate": "tol", "thermo": "beta_max", "probe": "beta"}.get(ns.command)
    value = getattr(ns, dest) if dest is not None else None
    if value is not None and not (math.isfinite(value) and value > 0):
        parser.error(f"--{dest.replace('_', '-')} must be finite and positive, got {value}")

    ns.beta_grid = None
    if ns.command == "sweep":
        try:
            ns.beta_grid = parse_beta_grid(str(ns.beta))
        except ValueError as exc:
            parser.error(str(exc))
        if any(b < 0 for b in ns.beta_grid):
            parser.error("--beta grid must be nonnegative")
        if any(b2 <= b1 for b1, b2 in zip(ns.beta_grid, ns.beta_grid[1:])):
            parser.error("--beta grid must be strictly increasing")
    return ns


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _to_plain(value):
    """Recursively strip numpy types for serialization; a float that is not finite becomes None."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        return [_to_plain(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _to_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_plain(v) for v in value]
    return value


def emit(records: list[dict], meta: dict, fmt: str, path: str | None) -> None:
    """Write records as CSV (comment + header + rows) or JSON ({meta, rows}).

    Floats are serialized with shortest round-trip representation.  A file is
    written to a temporary name and renamed over ``path``, so a failed write
    leaves any earlier file at ``path`` as it was.
    """
    if not records:
        raise ValueError("nothing to emit")
    records = [_to_plain(rec) for rec in records]
    meta = _to_plain(meta)
    if fmt == "csv":
        keys = list(records[0].keys())
        lines = ["# pspin v%s %s" % (__version__, json.dumps(meta, sort_keys=True, allow_nan=False))]
        lines.append(",".join(keys))
        for rec in records:
            lines.append(",".join(_fmt_cell(rec[k]) for k in keys))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps({"meta": meta, "rows": records}, indent=2, allow_nan=False) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")

    if path is None:
        sys.stdout.write(text)
        return
    try:
        with atomic_write(path) as fh:
            fh.write(text)
    except OSError as exc:
        raise RuntimeError(f"failed to write {path}: {exc}") from exc


# namespace entries the meta block reports outside "options"
_NOT_OPTIONS = {"command", "config", "p", "seed", "output", "format", "n", "beta", "beta_grid"}


def _meta(config: argparse.Namespace) -> dict:
    options = {k: v for k, v in vars(config).items() if k not in _NOT_OPTIONS}
    if config.command == "probe":
        options["beta"] = config.beta  # last, after the command's own options
    return {
        "version": __version__,
        "command": config.command,
        "p": config.p,
        "n": getattr(config, "n", None),
        "seed": config.seed,
        "beta_grid": config.beta_grid,
        "format": config.format,
        "options": {k: v for k, v in options.items() if v is not None},
    }


def _get_disorder(config: argparse.Namespace) -> tuple[DisorderTensor, dict]:
    """The coupling tensor and where it came from, for ``meta["disorder"]``."""
    path = config.disorder_file
    if path and os.path.exists(path):
        J = load_disorder(path)
        if J.n != config.n or J.p != config.p:
            raise ValueError(
                f"{path} holds n={J.n}, p={J.p}; requested n={config.n}, p={config.p}"
            )
        return J, {"source": "file", "path": path, "sha256": J.sha256}
    J = sample_disorder(config.n, config.p, seed=config.seed)
    if path:
        save_disorder(J, path)
    return J, {"source": "seed", "seed": config.seed}


def _run_critical(config: argparse.Namespace) -> tuple[list[dict], dict]:
    cp = solve_critical(config.p)
    res = residuals_prop(cp.p, cp.beta_c, cp.q_c, cp.e_star)
    return [{"p": cp.p, "q_c": cp.q_c, "beta_c": cp.beta_c, "e_star": cp.e_star, "e_inf": cp.e_inf,
             "r_I": res.r_I, "r_IIa": res.r_IIa, "r_IIb": res.r_IIb,
             "residual_p2": p2_betac_residual(cp.beta_c) if cp.p == 2 else None}], {}


def _run_sweep(config: argparse.Namespace) -> tuple[list[dict], dict]:
    grid = config.beta_grid
    beta_c = solve_critical(config.p).beta_c
    if grid[0] < beta_c < grid[-1] and beta_c not in grid:
        grid = sorted(grid + [beta_c])
    return [{"beta": s.beta, "q_beta": s.q_beta, "t_minus": s.t_minus, "free_energy": s.free_energy,
             "branch": s.branch} for s in fe_sweep(config.p, grid)], {}


def _run_gstate(config: argparse.Namespace) -> tuple[list[dict], dict]:
    J, source = _get_disorder(config)
    result = ground_state_search(
        J,
        restarts=config.restarts,
        max_iters=config.max_iters,
        tol=config.tol,
        seed=config.seed,
    )
    best = int(np.argmax(result.restart_energies))
    rows = [
        {
            "restart": i,
            "energy_per_spin": e,
            "converged": ok,
            "is_best": i == best,
            "iterations": iters,
            "stop_reason": reason,
            "gradient_norm": gnorm,
            "newton_steps": newton,
        }
        for i, (e, ok, iters, reason, gnorm, newton) in enumerate(zip(
            result.restart_energies, result.restart_converged, result.restart_iterations,
            result.restart_stop_reasons, result.restart_gradient_norms,
            result.restart_newton_steps,
        ))
    ]
    extra = {
        "disorder": source,
        "best_energy_per_spin": result.energy_per_spin,
        "all_converged": result.converged,
    }
    return rows, extra


def _run_mc_verify(config: argparse.Namespace) -> tuple[list[dict], dict]:
    n, p = config.n, config.p
    root = np.sqrt(float(n))
    e1 = np.zeros(n)
    e2 = np.zeros(n)
    e1[0] = root
    e2[1] = root
    half = root * np.concatenate(([0.5, np.sqrt(0.75)], np.zeros(n - 2)))
    pairs = [(e1, e2), (e1, half), (e1, e1)]
    rows = [{"check": "covariance", "label": f"R={row.r_overlap:.6g}", "expected": row.target,
             "observed": row.estimate, "stderr": row.stderr, "z": row.z}
            for row in covariance_check(n, p, pairs, draws=config.draws, seed=config.seed)]
    rows += [{"check": "gradient_fd", "label": f"trial={row.trial} n={row.n} p={row.p}",
              "expected": 0.0, "observed": row.rel_error, "stderr": None, "z": None}
             for row in gradient_fd_check(trials=config.trials, seed=config.seed)]
    return rows, {}


def _run_thermo(config: argparse.Namespace) -> tuple[list[dict], dict]:
    J, source = _get_disorder(config)
    beta_c = solve_critical(config.p).beta_c
    ladder = default_ladder(config.beta_max, config.rungs, beta_c=beta_c)
    ens = TemperingEnsemble(J, ladder, seed=np.random.SeedSequence((config.seed, 201)))
    if config.burn_in > 0:
        tempering_sweep(ens, config.burn_in, record=False)
    ens.freeze()
    tempering_sweep(ens, config.sweeps, record=True)
    rows = [{"beta": pt.beta, "f_estimate": pt.f_estimate, "stderr": pt.stderr,
             "f_theory": free_energy(config.p, pt.beta).free_energy, "mean_energy": pt.mean_energy,
             "acceptance": pt.acceptance, "equilibrated": pt.equilibrated}
            for pt in thermo_integration(ens)]
    return rows, {"disorder": source, "ladder": ladder, "sampler": ens.sampler_meta()}


def _run_probe(config: argparse.Namespace) -> tuple[list[dict], dict]:
    J, source = _get_disorder(config)
    cp = solve_critical(config.p)
    beta = 2.0 * cp.beta_c if config.beta is None else config.beta
    ladder = default_ladder(beta, config.rungs, beta_c=cp.beta_c)
    template = TemperingEnsemble(J, ladder, seed=np.random.SeedSequence((config.seed, 202)))
    hist = overlap_probe(
        template,
        k=config.k,
        beta_index=len(ladder) - 1,
        sweeps=config.sweeps,
        burn_in=config.burn_in,
        bins=config.bins,
    )
    sol = free_energy(config.p, beta)
    rows = [
        {"bin_lo": float(lo), "bin_hi": float(hi), "count": int(c)}
        for lo, hi, c in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts)
    ]
    extra = {
        "disorder": source,
        "ladder": ladder,
        "modal_overlap": hist.modal_overlap(),
        "q_beta_theory": sol.q_beta,
        "mass_near_q_beta": hist.mass_near(sol.q_beta, 0.15),
        "pair_count": hist.pair_count,
        "k": hist.k,
        "diagnostics": hist.diagnostics,
        "sampler": hist.sampler,
    }
    return rows, extra


# each runner returns its rows and the entries it adds to the meta block
RUNNERS = {
    "critical": _run_critical,
    "sweep": _run_sweep,
    "gstate": _run_gstate,
    "mc-verify": _run_mc_verify,
    "thermo": _run_thermo,
    "probe": _run_probe,
}


def run(config: argparse.Namespace) -> int:
    """Execute a namespace from ``parse_config``; returns the process exit code."""
    meta = _meta(config)
    try:
        records, extra = RUNNERS[config.command](config)
        meta.update(extra)
        emit(records, meta, config.format, config.output)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"pspin {config.command}: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    config = parse_config(sys.argv[1:] if argv is None else argv)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
