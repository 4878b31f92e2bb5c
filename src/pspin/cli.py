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
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .critical import p2_betac_residual, residuals_prop, solve_critical
from .free_energy import free_energy, sweep as fe_sweep
from .simulator import (
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

COMMANDS = ("critical", "sweep", "gstate", "mc-verify", "probe", "thermo")


@dataclass
class RunConfig:
    command: str
    p: int
    beta_grid: list[float] | None = None
    n: int | None = None
    seed: int = 0
    tolerances: dict[str, float] = field(default_factory=dict)
    output_path: str | None = None
    format: str = "csv"
    options: dict = field(default_factory=dict)


def parse_beta_grid(spec: str) -> list[float]:
    """Grid spec: 'min:max:step' (inclusive endpoints), comma list, or scalar."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be min:max:step, got {spec!r}")
        lo, hi, step = (float(x) for x in parts)
        if step <= 0.0 or hi < lo:
            raise ValueError(f"bad grid spec {spec!r}")
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        grid = [lo + i * step for i in range(count)]
        if grid[-1] < hi - 1e-9 * max(1.0, abs(hi)):
            grid.append(hi)
        return grid
    grid = [float(x) for x in spec.split(",") if x.strip()]
    if not grid:
        raise ValueError(f"empty grid spec {spec!r}")
    return grid


def _default_seed() -> int:
    return int(os.environ.get("PSPIN_SEED", "0"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pspin",
        description="TAP thermodynamics of spherical pure p-spin models and a finite-N Monte Carlo cross-check.",
    )
    parser.add_argument("--config", help="JSON file of default option values (flags override)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, *, needs_n=False):
        sp.add_argument("--p", type=int, required=True, help="interaction degree, p >= 2")
        sp.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: PSPIN_SEED or 0)")
        sp.add_argument("--output", "-o", default=None, help="output path (default: stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if needs_n:
            sp.add_argument("--n", type=int, required=True, help="system dimension N")
            sp.add_argument("--disorder-file", default=None,
                            help="binary tensor file: loaded if present, else sampled and saved")

    sp = sub.add_parser("critical", help="solved critical triple with residuals")
    add_common(sp)
    sp.add_argument("--tol", type=float, default=1e-13, help="|a(q_c)| tolerance")

    sp = sub.add_parser("sweep", help="overlap and free energy on a beta grid")
    add_common(sp)
    sp.add_argument("--beta", default="0:5:0.01",
                    help="grid: min:max:step (inclusive) or comma list")

    sp = sub.add_parser("gstate", help="ground-state search")
    add_common(sp, needs_n=True)
    sp.add_argument("--restarts", type=int, default=50)
    sp.add_argument("--max-iters", type=int, default=2000)
    sp.add_argument("--tol", type=float, default=1e-7, help="tangential gradient tolerance")

    sp = sub.add_parser("mc-verify", help="covariance and gradient checks")
    add_common(sp, needs_n=True)
    sp.add_argument("--draws", type=int, default=100_000, help="disorder draws per covariance pair")
    sp.add_argument("--trials", type=int, default=20, help="gradient finite-difference trials")

    sp = sub.add_parser("thermo", help="thermodynamic-integration free energy")
    add_common(sp, needs_n=True)
    sp.add_argument("--beta-max", type=float, default=1.0)
    sp.add_argument("--rungs", type=int, default=13)
    sp.add_argument("--sweeps", type=int, default=1500, help="recorded measurement sweeps")
    sp.add_argument("--burn-in", type=int, default=500)

    sp = sub.add_parser("probe", help="replica pairwise-overlap histogram")
    add_common(sp, needs_n=True)
    sp.add_argument("--beta", type=float, default=None,
                    help="probed inverse temperature (default: 2 beta_c)")
    sp.add_argument("--k", type=int, default=4, help="number of independent replicas")
    sp.add_argument("--rungs", type=int, default=12)
    sp.add_argument("--sweeps", type=int, default=1000, help="recorded measurement sweeps")
    sp.add_argument("--burn-in", type=int, default=500)
    sp.add_argument("--bins", type=int, default=80)
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Load --config defaults into the matching subparser; flags still win."""
    path = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif arg.startswith("--config="):
            path = arg.split("=", 1)[1]
    if path is None:
        return argv
    with open(path) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        parser.error(f"config file {path} must hold a JSON object")
    command = next((a for a in argv if a in COMMANDS), None)
    if command is None:
        parser.error("config file given but no command named on the command line")
    sub_actions = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    sp = sub_actions.choices[command]
    known = {a.dest for a in sp._actions}
    defaults = {}
    for key, value in values.items():
        dest = key.replace("-", "_")
        if dest not in known:
            parser.error(f"unknown config key {key!r} for command {command!r}")
        defaults[dest] = value
    sp.set_defaults(**defaults)
    return argv


def parse_config(argv: list[str]) -> RunConfig:
    """Parse flags (and an optional JSON config file) into a RunConfig."""
    parser = _build_parser()
    argv = _apply_config_file(parser, argv)
    ns = parser.parse_args(argv)

    if ns.p < 2:
        parser.error(f"--p must be >= 2, got {ns.p}")
    seed = ns.seed if ns.seed is not None else _default_seed()

    beta_grid = None
    if ns.command == "sweep":
        try:
            beta_grid = parse_beta_grid(str(ns.beta))
        except ValueError as exc:
            parser.error(str(exc))
        if any(b < 0 for b in beta_grid):
            parser.error("--beta grid must be nonnegative")
        if any(b2 <= b1 for b1, b2 in zip(beta_grid, beta_grid[1:])):
            parser.error("--beta grid must be strictly increasing")

    n = getattr(ns, "n", None)
    if n is not None and n < 2:
        parser.error(f"--n must be >= 2, got {n}")

    tolerances = {}
    if getattr(ns, "tol", None) is not None:
        if ns.tol <= 0:
            parser.error("--tol must be positive")
        tolerances["tol"] = ns.tol

    skip = {"command", "config", "p", "seed", "output", "format", "n", "tol", "beta"}
    options = {k: v for k, v in vars(ns).items() if k not in skip}
    if ns.command == "probe":
        options["beta"] = ns.beta

    return RunConfig(
        command=ns.command,
        p=ns.p,
        beta_grid=beta_grid,
        n=n,
        seed=seed,
        tolerances=tolerances,
        output_path=ns.output,
        format=ns.format,
        options=options,
    )


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _to_plain(value):
    """Recursively strip numpy scalar/array types for serialization."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_to_plain(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _to_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_plain(v) for v in value]
    return value


def emit(records: list[dict], meta: dict, fmt: str, path: str | None) -> None:
    """Write records as CSV (comment + header + rows) or JSON ({meta, rows}).

    Floats are serialized with shortest round-trip representation; a partially
    written file is removed if the write fails.
    """
    if not records:
        raise ValueError("nothing to emit")
    records = [_to_plain(rec) for rec in records]
    meta = _to_plain(meta)
    if fmt == "csv":
        keys = list(records[0].keys())
        lines = ["# pspin v%s %s" % (__version__, json.dumps(meta, sort_keys=True))]
        lines.append(",".join(keys))
        for rec in records:
            lines.append(",".join(_fmt_cell(rec[k]) for k in keys))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps({"meta": meta, "rows": records}, indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")

    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        if os.path.exists(path):
            os.remove(path)
        raise RuntimeError(f"failed to write {path}: {exc}") from exc


def _meta(config: RunConfig) -> dict:
    return {
        "version": __version__,
        "command": config.command,
        "p": config.p,
        "n": config.n,
        "seed": config.seed,
        "beta_grid": config.beta_grid,
        "tolerances": config.tolerances,
        "format": config.format,
        "options": {k: v for k, v in config.options.items() if v is not None},
    }


def _get_disorder(config: RunConfig):
    path = config.options.get("disorder_file")
    if path and os.path.exists(path):
        J = load_disorder(path)
        if J.n != config.n or J.p != config.p:
            raise ValueError(
                f"{path} holds n={J.n}, p={J.p}; requested n={config.n}, p={config.p}"
            )
        return J
    J = sample_disorder(config.n, config.p, seed=config.seed)
    if path:
        save_disorder(J, path)
    return J


def _run_critical(config: RunConfig) -> list[dict]:
    cp = solve_critical(config.p)
    if config.p >= 3:
        res = residuals_prop(config.p, cp.beta_c, cp.q_c, cp.e_star)
        r_i, r_iia, r_iib = res.r_I, res.r_IIa, res.r_IIb
        residual_p2 = None
    else:
        # closed-form point: the stationarity system evaluated at q=0
        r_i = 1.0 + 2.0 * cp.beta_c**2 - 2.0 * math.sqrt(2.0) * cp.beta_c
        r_iia = 0.0
        r_iib = 0.0
        residual_p2 = p2_betac_residual(cp.beta_c)
    return [
        {
            "p": cp.p,
            "q_c": cp.q_c,
            "beta_c": cp.beta_c,
            "e_star": cp.e_star,
            "e_inf": cp.e_inf,
            "r_I": r_i,
            "r_IIa": r_iia,
            "r_IIb": r_iib,
            "residual_p2": residual_p2,
        }
    ]


def _run_sweep(config: RunConfig) -> list[dict]:
    grid = list(config.beta_grid)
    beta_c = solve_critical(config.p).beta_c
    if grid[0] < beta_c < grid[-1] and beta_c not in grid:
        grid = sorted(grid + [beta_c])
    return [
        {
            "beta": s.beta,
            "q_beta": s.q_beta,
            "t_minus": s.t_minus,
            "free_energy": s.free_energy,
            "branch": s.branch,
        }
        for s in fe_sweep(config.p, grid)
    ]


def _run_gstate(config: RunConfig) -> tuple[list[dict], dict]:
    J = _get_disorder(config)
    result = ground_state_search(
        J,
        restarts=config.options["restarts"],
        max_iters=config.options["max_iters"],
        tol=config.tolerances.get("tol", 1e-7),
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
        }
        for i, (e, ok, iters, reason, gnorm) in enumerate(zip(
            result.restart_energies, result.restart_converged, result.restart_iterations,
            result.restart_stop_reasons, result.restart_gradient_norms,
        ))
    ]
    extra = {"best_energy_per_spin": result.energy_per_spin, "all_converged": result.converged}
    return rows, extra


def _run_mc_verify(config: RunConfig) -> list[dict]:
    n, p = config.n, config.p
    root = np.sqrt(float(n))
    e1 = np.zeros(n)
    e2 = np.zeros(n)
    e1[0] = root
    e2[1] = root
    half = root * np.concatenate(([0.5, np.sqrt(0.75)], np.zeros(n - 2)))
    pairs = [(e1, e2), (e1, half), (e1, e1)]
    rows = []
    for row in covariance_check(n, p, pairs, draws=config.options["draws"], seed=config.seed):
        rows.append(
            {
                "check": "covariance",
                "label": f"R={row.r_overlap:.6g}",
                "expected": row.target,
                "observed": row.estimate,
                "stderr": row.stderr,
                "z": row.z,
            }
        )
    for row in gradient_fd_check(trials=config.options["trials"], seed=config.seed):
        rows.append(
            {
                "check": "gradient_fd",
                "label": f"trial={row.trial} n={row.n} p={row.p}",
                "expected": 0.0,
                "observed": row.rel_error,
                "stderr": None,
                "z": None,
            }
        )
    return rows


def _run_thermo(config: RunConfig) -> list[dict]:
    J = _get_disorder(config)
    beta_c = solve_critical(config.p).beta_c
    ladder = default_ladder(config.options["beta_max"], config.options["rungs"], beta_c=beta_c)
    ens = TemperingEnsemble(J, ladder, seed=np.random.SeedSequence((config.seed, 201)))
    if config.options["burn_in"] > 0:
        tempering_sweep(ens, config.options["burn_in"], record=False)
    ens.freeze()
    tempering_sweep(ens, config.options["sweeps"], record=True)
    rows = []
    for pt in thermo_integration(ens):
        rows.append(
            {
                "beta": pt.beta,
                "f_estimate": pt.f_estimate,
                "stderr": pt.stderr,
                "f_theory": free_energy(config.p, pt.beta).free_energy,
                "mean_energy": pt.mean_energy,
                "acceptance": pt.acceptance,
                "equilibrated": pt.equilibrated,
            }
        )
    return rows


def _run_probe(config: RunConfig) -> tuple[list[dict], dict]:
    J = _get_disorder(config)
    cp = solve_critical(config.p)
    beta = config.options.get("beta")
    if beta is None:
        beta = 2.0 * cp.beta_c
    if beta <= 0:
        raise ValueError(f"probe beta must be positive, got {beta}")
    ladder = default_ladder(beta, config.options["rungs"], beta_c=cp.beta_c)
    template = TemperingEnsemble(J, ladder, seed=np.random.SeedSequence((config.seed, 202)))
    hist = overlap_probe(
        template,
        k=config.options["k"],
        beta_index=len(ladder) - 1,
        sweeps=config.options["sweeps"],
        burn_in=config.options["burn_in"],
        bins=config.options["bins"],
    )
    sol = free_energy(config.p, beta)
    rows = [
        {"bin_lo": float(lo), "bin_hi": float(hi), "count": int(c)}
        for lo, hi, c in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts)
    ]
    extra = {
        "modal_overlap": hist.modal_overlap(),
        "q_beta_theory": sol.q_beta,
        "mass_near_q_beta": hist.mass_near(sol.q_beta, 0.15),
        "pair_count": hist.pair_count,
        "k": hist.k,
        "diagnostics": hist.diagnostics,
    }
    return rows, extra


def run(config: RunConfig) -> int:
    """Execute a parsed configuration; returns the process exit code."""
    meta = _meta(config)
    try:
        if config.command == "critical":
            records = _run_critical(config)
        elif config.command == "sweep":
            records = _run_sweep(config)
        elif config.command == "gstate":
            records, extra = _run_gstate(config)
            meta.update(extra)
        elif config.command == "mc-verify":
            records = _run_mc_verify(config)
        elif config.command == "thermo":
            records = _run_thermo(config)
        elif config.command == "probe":
            records, extra = _run_probe(config)
            meta.update(extra)
        else:
            raise ValueError(f"unknown command {config.command!r}")
        emit(records, meta, config.format, config.output_path)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"pspin {config.command}: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    config = parse_config(sys.argv[1:] if argv is None else argv)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
