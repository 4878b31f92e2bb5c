"""Spans around pspin's layer functions, installed from outside the program.

``Tracer.install`` replaces each traced function at every name a loaded
pspin module binds it to, so calls made inside the library (the ground-state
search calling ``gradient``, the overlap probe calling ``tempering_sweep``)
are timed as well as the benchmark's own calls.  A function that no longer
exists is skipped, and run.py then reports its metrics as zero.

Each span adds its duration to its name's total and to its parent's child
time, which gives self time without keeping every span.
"""

from __future__ import annotations

import functools
import sys
import time

# (defining module, attribute, span name)
TRACE_POINTS = (
    ("pspin.simulator.disorder", "sample_disorder", "disorder.sample"),
    ("pspin.simulator.disorder", "gradient", "disorder.gradient"),
    ("pspin.simulator.disorder", "hamiltonian", "disorder.hamiltonian"),
    ("pspin.simulator.disorder", "hamiltonian_batch", "disorder.hamiltonian_batch"),
    ("pspin.simulator.ground_state", "ground_state_search", "ground_state.search"),
    ("pspin.simulator.mcmc", "TemperingEnsemble", "mcmc.ensemble"),
    ("pspin.simulator.mcmc", "tempering_sweep", "mcmc.sweep"),
    ("pspin.simulator.mcmc", "thermo_integration", "mcmc.integration"),
    ("pspin.simulator.mcmc", "overlap_probe", "mcmc.probe"),
    ("pspin.critical", "solve_critical", "critical"),
    ("pspin.free_energy", "free_energy", "free_energy"),
    ("pspin.cli", "emit", "cli.emit"),
)


def _batch_rows(args, kwargs) -> int:
    configs = kwargs.get("configs", args[1] if len(args) > 1 else None)
    return 1 if configs is None or getattr(configs, "ndim", 1) == 1 else len(configs)


def _sweep_count(args, kwargs) -> int:
    return int(kwargs.get("sweeps", args[1] if len(args) > 1 else 0))


# extra counts recorded per call, keyed by span name
UNITS = {
    "disorder.hamiltonian_batch": _batch_rows,
    "mcmc.sweep": _sweep_count,
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.units: dict[str, int] = {}
        self.ensembles: list = []  # every TemperingEnsemble built while installed
        self._stack: list[list] = []  # [name, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> None:
        self._stack.append([name, 0.0])

    def _exit(self, elapsed: float) -> None:
        name, child = self._stack.pop()
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + elapsed
        self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - child
        if self._stack:
            self._stack[-1][1] += elapsed

    def _wrap(self, original, name: str):
        tracer = self
        count = UNITS.get(name)
        if isinstance(original, type):
            class Traced(original):
                def __init__(self, *args, **kwargs):
                    tracer._enter(name)
                    start = time.perf_counter()
                    try:
                        super().__init__(*args, **kwargs)
                    finally:
                        tracer._exit(time.perf_counter() - start)
                    tracer.ensembles.append(self)

            Traced.__name__ = Traced.__qualname__ = original.__name__
            return Traced

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if count is not None:
                tracer.units[name] = tracer.units.get(name, 0) + count(args, kwargs)
            tracer._enter(name)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._exit(time.perf_counter() - start)

        return traced

    def install(self) -> list[str]:
        """Patch every binding of each trace point; returns the span names set."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "pspin" or key.startswith("pspin."))]
        installed = []
        for module_name, attr, name in TRACE_POINTS:
            owner = sys.modules.get(module_name)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name)
            for module in modules:
                if vars(module).get(attr) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))
            installed.append(name)
        return installed

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
