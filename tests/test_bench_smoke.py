"""The benchmark harness runs end to end on its quickest workload, untraced and traced,
and every workload kind drives the library through the calls the benchmark makes."""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import pspin
import pspin.cli
import pspin.simulator

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_gstate_workload_reports_every_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "gstate-p3-n64",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    missing = {m["name"] for m in SPEC[kind]} - set(result["metrics"])
    assert not missing


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    return workloads


def small_workloads(wl):
    """One shrunken instance of each workload class: same calls, a fraction of the work."""

    class Thermo(wl.Thermo):
        n, rungs, sweeps, burn_in = 8, 4, 12, 4

    class Probe(wl.Probe):
        n, k, rungs, sweeps, burn_in, bins = 8, 2, 3, 6, 2, 20

    return [wl.GroundState("gstate-small", p=3, n=8, restarts=2, seed=1), Thermo(), Probe()]


def test_every_workload_kind_runs_a_round(workloads, tmp_path):
    # checks are sized for the real configurations, so only the call surface is asserted
    lib = types.SimpleNamespace(pspin=pspin, sim=pspin.simulator, cli=pspin.cli)
    for wl in small_workloads(workloads):
        state = wl.inputs(lib)
        wl.prepare(lib, state)
        result = wl.round(lib, state, str(tmp_path / "round.json"))
        assert isinstance(result, workloads.RoundResult), wl.name
        assert result.attempted >= 1 and {"solve_s", "ess_per_s"} <= set(result.metrics)
