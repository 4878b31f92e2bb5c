"""Benchmark of pspin's simulator: ground-state, tempering and probe workloads.

Usage, from the root of a source checkout:

  python3 bench/run.py --workload gstate-p3-n64 --seed 0 --seconds 30 --trace 0
  python3 bench/run.py                  # every workload, untraced, one table
  python3 bench/run.py --trace 1        # every workload, per-layer metrics

One workload per process.  BLAS and OpenMP are pinned to one thread before
numpy loads.  A run sets up the workload at least 15 times and for at least
2 s, reporting the median as ``setup_s``.  It then repeats whole rounds of
its work while another round of the longest length seen still fits in
``--seconds`` (at least one round).
The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.  The line before it and
``bench/out/`` record the environment and every round.

With ``--trace 1`` the metrics are per layer.  One untraced round runs
first; the setup and the remaining rounds then run with spans installed
around the layer functions (see tracing.py), and ``trace.overhead_pct``
compares the traced rounds with the untraced one.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 15    # at least this many setups,
SETUP_SECONDS = 2.0   # and at least this long in all

sys.path.insert(0, str(BENCH_DIR))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(ROOT / "BENCHMARK.json") as _fh:
    _SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}
END_TO_END = [m["name"] for m in _SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in _SPEC["per_layer"]]
DEFAULT_SECONDS = _SPEC["run_seconds"]


def import_pspin() -> types.SimpleNamespace:
    """Import pspin from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "pspin" or m.startswith("pspin.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pspin = importlib.import_module("pspin")
    if Path(pspin.__file__).resolve().parent != SRC / "pspin":
        raise ImportError(f"pspin imported from {pspin.__file__}, not {SRC}")
    return types.SimpleNamespace(
        pspin=pspin,
        sim=importlib.import_module("pspin.simulator"),
        cli=importlib.import_module("pspin.cli"),
    )


def resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "pspin").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
    }


def run_rounds(fn, seconds: float) -> list:
    """Whole rounds while another one of the longest length seen still fits."""
    results, lengths = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(fn())
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - start + max(lengths) > seconds:
            return results


def _setup(wl, lib) -> tuple[dict, float]:
    """Inputs, then the first kernel call; returns the state and resident growth."""
    state = wl.inputs(lib)
    before = resident_bytes()
    wl.prepare(lib, state)
    return state, resident_bytes() - before


def measure(wl, seconds: float, path: str) -> tuple[dict, list]:
    """Untraced run: the end-to-end metrics."""
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        state = lib = None
        gc.collect()
        start = time.perf_counter()
        lib = import_pspin()
        state, _ = _setup(wl, lib)
        setup_times.append(time.perf_counter() - start)
    rounds = run_rounds(lambda: wl.round(lib, state, path), seconds)
    metrics = {"setup_s": statistics.median(setup_times)}
    for key in rounds[0].metrics:
        metrics[key] = statistics.median(r.metrics[key] for r in rounds)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, rounds


def measure_layers(wl, seconds: float, path: str) -> tuple[dict, list]:
    """Traced run: per-layer metrics and the tracing overhead."""
    lib = import_pspin()
    state, cache_bytes = _setup(wl, lib)  # the process's first kernel call
    reference = wl.round(lib, state, path)

    state = None
    gc.collect()
    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        state, _ = _setup(wl, lib)
    finally:
        setup_tracer.uninstall()
    tracer = Tracer()
    installed = tracer.install()
    try:
        traced = run_rounds(lambda: wl.round(lib, state, path), seconds)
    finally:
        tracer.uninstall()

    metrics = layer_metrics(wl, setup_tracer, tracer, installed, traced)
    metrics["disorder.cache_mb"] = cache_bytes / 2**20
    traced_core = statistics.median(r.core_s for r in traced)
    metrics["trace.overhead_pct"] = 100.0 * (traced_core / reference.core_s - 1.0)
    return metrics, [reference] + traced


def layer_metrics(wl, setup: Tracer, tracer: Tracer, installed: list, rounds: list) -> dict:
    """Per-layer figures for one run of the command: its setup plus one round."""
    count = len(rounds)

    def calls(name):
        return setup.calls.get(name, 0) + tracer.calls.get(name, 0) / count

    def seconds(name, table="total"):
        return getattr(setup, table).get(name, 0.0) + getattr(tracer, table).get(name, 0.0) / count

    def units(name):
        return setup.units.get(name, 0) + tracer.units.get(name, 0) / count

    out = {}
    flops = 2.0 * float(wl.n) ** wl.p  # useful flops per configuration
    if setup.calls.get("disorder.sample"):
        out["disorder.sample_ms"] = 1e3 * setup.total["disorder.sample"] / setup.calls["disorder.sample"]
    for kernel in ("gradient", "hamiltonian", "hamiltonian_batch"):
        name = f"disorder.{kernel}"
        if name not in installed:
            continue
        out[f"{name}_calls"] = calls(name)
        if calls(name):
            out[f"{name}_us"] = 1e6 * seconds(name) / calls(name)
    if calls("disorder.gradient"):
        out["disorder.gradient_gflop_s"] = flops * calls("disorder.gradient") / seconds("disorder.gradient") / 1e9
    if calls("disorder.hamiltonian_batch"):
        rows = units("disorder.hamiltonian_batch")
        out["disorder.hamiltonian_batch_gflop_s"] = flops * rows / seconds("disorder.hamiltonian_batch") / 1e9
        out["disorder.batch_rows"] = rows / calls("disorder.hamiltonian_batch")
    kernels = [k for k in ("disorder.gradient", "disorder.hamiltonian", "disorder.hamiltonian_batch")
               if k in installed]
    kernel_s = sum(seconds(k) for k in kernels)
    out["disorder.kernel_s"] = kernel_s

    if calls("ground_state.search"):
        search_s = seconds("ground_state.search")
        restarts = wl.restarts
        out["ground_state.search_s"] = search_s
        out["ground_state.restart_ms"] = 1e3 * search_s / restarts
        if "disorder.gradient" in installed:
            gradients = calls("disorder.gradient")
            out["ground_state.iterations_per_restart"] = gradients / restarts
            if gradients and "disorder.hamiltonian" in installed:
                out["ground_state.energy_evals_per_iteration"] = calls("disorder.hamiltonian") / gradients
        out["ground_state.kernel_share"] = kernel_s / search_s

    if calls("mcmc.sweep"):
        sweeps = units("mcmc.sweep")
        sweep_s = seconds("mcmc.sweep")
        out["mcmc.sweeps"] = sweeps
        out["mcmc.sweep_ms"] = 1e3 * sweep_s / sweeps
        if "disorder.hamiltonian_batch" in installed:
            out["mcmc.kernel_share"] = seconds("disorder.hamiltonian_batch") / sweep_s
    if calls("mcmc.probe"):
        replicas = tracer.calls.get("mcmc.ensemble", 0)
        if replicas:
            out["mcmc.replica_setup_ms"] = 1e3 * tracer.total["mcmc.ensemble"] / replicas
        out["mcmc.probe_self_ms"] = 1e3 * seconds("mcmc.probe", "self_time")
        swaps = [np.nanmin(e.swap_rates()) for e in tracer.ensembles if e.n_rungs > 1]
        if swaps:
            out["mcmc.swap_rate_min"] = float(np.min(swaps))
    if calls("mcmc.integration"):
        out["mcmc.integration_ms"] = 1e3 * seconds("mcmc.integration")
    for name, key in (("critical", "critical.ms"), ("free_energy", "free_energy.ms"),
                      ("cli.emit", "cli.emit_ms")):
        if calls(name):
            out[key] = 1e3 * seconds(name)

    for key in rounds[0].layer:
        out[key] = statistics.median(r.layer[key] for r in rounds)
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    path = str(OUT / f"{stem}-rows.json")
    start = time.perf_counter()
    if trace:
        metrics, rounds = measure_layers(wl, seconds, path)
        # a layer the workload does not reach, or whose function is gone, reads 0
        metrics = {k: metrics.get(k, 0.0) for k in PER_LAYER}
    else:
        metrics, rounds = measure(wl, seconds, path)
        missing = [k for k in END_TO_END if k not in metrics]
        if missing:
            raise RuntimeError(f"{name} measured no {', '.join(missing)}")
        metrics = {k: metrics[k] for k in END_TO_END}
    failed_checks = sorted({k for r in rounds for k, ok in r.checks.items() if not ok})
    result = {
        "correct": not failed_checks,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": float(v), "unit": UNITS[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "wall_s": time.perf_counter() - start,
        "rounds": [{"core_s": r.core_s, "attempted": r.attempted, "failed": r.failed,
                    **r.metrics, **r.layer} for r in rounds],
        "failed_checks": failed_checks,
        "environment": environment(),
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({**record, "result": result}, fh, indent=2)
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; a table of the metrics."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"  {key:44s} {metric['value']:14.6g} {metric['unit']}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all of them, one process each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded with the run; each workload's inputs are fixed (README.md)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pspin" / "__init__.py").is_file():
        print(f"no pspin sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
