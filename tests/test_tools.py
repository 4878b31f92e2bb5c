"""The scripts under tools/: the listing of statements no digest run reaches."""

import inspect
import os
import subprocess
import sys

from pspin.critical import solve_critical
from pspin.free_energy import tap_functional

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _listed_lines(path_suffix, listing):
    """Line numbers the listing names in the file ending in path_suffix."""
    out = set()
    for entry in listing.splitlines():
        path, _, rest = entry.partition(":")
        if path.endswith(path_suffix):
            out.add(int(rest.split(":", 1)[0]))
    return out


def _span(func):
    lines, start = inspect.getsourcelines(func)
    return range(start, start + len(lines))


def test_traffic_lines_lists_what_critical_p3_never_runs():
    proc = subprocess.run([sys.executable, os.path.join(TOOLS, "traffic_lines.py"), "critical --p 3"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].endswith("statements in function bodies never ran")

    listed = _listed_lines(os.path.join("pspin", "free_energy.py"), proc.stdout)
    body = [line for line in _span(tap_functional) if line in listed]
    assert len(body) == 8  # two checks and their raises, nu'', g, dg and the return

    listed = _listed_lines(os.path.join("pspin", "critical.py"), proc.stdout)
    assert not listed & set(_span(solve_critical))
