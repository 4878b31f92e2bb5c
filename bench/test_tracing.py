"""The tracer counts library-internal calls and leaves the program as it was."""

import numpy as np

import pspin.simulator as sim
import pspin.simulator.disorder as disorder
import pspin.simulator.ground_state as ground_state
from tracing import Tracer


def test_spans_cover_calls_made_inside_the_library():
    J = sim.sample_disorder(6, 3, seed=1)
    tracer = Tracer()
    installed = tracer.install()
    try:
        sim.ground_state_search(J, restarts=2, seed=0)
    finally:
        tracer.uninstall()
    assert {"disorder.gradient", "ground_state.search"} <= set(installed)
    assert tracer.calls["ground_state.search"] == 1
    assert tracer.calls["disorder.gradient"] >= 2
    # the kernels run inside the search, so its self time excludes them
    inner = tracer.total["disorder.gradient"] + tracer.total["disorder.hamiltonian"]
    assert np.isclose(tracer.self_time["ground_state.search"],
                      tracer.total["ground_state.search"] - inner)
    assert ground_state.gradient is disorder.gradient
    assert sim.ground_state_search is ground_state.ground_state_search


def test_missing_function_is_skipped(monkeypatch):
    monkeypatch.delattr(disorder, "gradient")
    tracer = Tracer()
    installed = tracer.install()
    tracer.uninstall()
    assert "disorder.gradient" not in installed
    assert "disorder.hamiltonian" in installed
