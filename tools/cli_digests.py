"""Print the sha256 of the ``--format json`` output of a fixed list of CLI runs.

Run it from any directory: it runs the ``pspin`` package of the checkout it
sits in (``src/`` beside ``tools/``), one run at a time, with one BLAS thread
and without ``PSPIN_SEED``. Two checkouts write the same outputs when the
script prints the same lines in each.

    python3 tools/cli_digests.py
    python3 tools/cli_digests.py --against DIR

With ``--against DIR`` every run also goes through the checkout at DIR, and
under each run whose output differs the script lists every JSON path whose
value changed, DIR's value -> this checkout's. It exits 1 when a run fails or
differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

RUNS = [
    "gstate --p 2 --n 48 --restarts 8 --seed 3",
    "gstate --p 3 --n 32 --restarts 8 --seed 3",
    "gstate --p 4 --n 20 --restarts 4 --seed 3",
    "gstate --p 5 --n 10 --restarts 4 --seed 3",
    "gstate --p 4 --n 40 --restarts 20 --seed 3",  # two search chunks, 16 + 4
    "gstate --p 3 --n 64 --restarts 50 --seed 17",  # 38 Newton tries: 15 mixed, 1 taking no row
    "thermo --p 3 --n 32 --seed 5",
    "thermo --p 4 --n 14 --seed 5 --sweeps 600 --burn-in 200",
    "thermo --p 3 --n 16 --beta-max 2.5 --rungs 9 --sweeps 200 --burn-in 100 --seed 5",
    "probe --p 3 --n 24 --k 4 --sweeps 300 --burn-in 100 --seed 7",
    "probe --p 4 --n 24 --k 8 --rungs 10 --sweeps 40 --burn-in 20 --seed 7",  # 88 rows, two blocks
    "mc-verify --p 3 --n 8 --draws 2000 --trials 3 --seed 2",
    "mc-verify --p 3 --n 16 --draws 3000 --trials 2 --seed 2",  # several covariance blocks
    "critical --p 2",
    "critical --p 3",
    "critical --p 5",
    "critical --p 16",
    "critical --p 1000",
    "critical --p 100000",
    "sweep --p 2 --beta 0:3:0.25",
    "sweep --p 3 --beta 0:3:0.25",
    "sweep --p 5 --beta 1:4:0.5",
    "sweep --p 1000 --beta 3:8:1",
]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ABSENT = object()  # a key that one side's output does not have


def _run(root: str, run: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PSPIN_SEED"}
    env.update(PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "pspin.cli", *run.split(), "--format", "json"],
                          capture_output=True, env=env)


def _show(value) -> str:
    return "absent" if value is ABSENT else json.dumps(value)


def _changes(old, new, path: str = ""):
    """(path, old, new) for every value that differs between two JSON documents.

    Objects are compared key by key and lists of equal length item by item;
    anything else, a list whose length changed included, is compared whole.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(k for k in new if k not in old)]:
            yield from _changes(old.get(key, ABSENT), new.get(key, ABSENT),
                                f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _changes(a, b, f"{path}[{i}]")
    elif _show(old) != _show(new):
        yield path, old, new


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="DIR",
                        help="another checkout whose outputs to compare, value by value")
    args = parser.parse_args()
    if args.against and not os.path.isdir(os.path.join(args.against, "src", "pspin")):
        parser.error(f"{args.against} holds no src/pspin")

    status, differ = 0, 0
    for run in RUNS:
        proc = _run(ROOT, run)
        if proc.returncode != 0:
            print(f"exit {proc.returncode}  {run}: {proc.stderr.decode().strip()}")
            status = 1
            continue
        print(f"{hashlib.sha256(proc.stdout).hexdigest()}  {run}")
        if not args.against:
            continue
        other = _run(args.against, run)
        if other.returncode != 0:
            print(f"  {args.against}: exit {other.returncode}: {other.stderr.decode().strip()}")
            status = 1
        elif other.stdout != proc.stdout:
            differ += 1
            status = 1
            lines = [f"  {path}: {_show(old)} -> {_show(new)}" for path, old, new
                     in _changes(json.loads(other.stdout), json.loads(proc.stdout))]
            print("\n".join(lines) or "  the same values in different bytes")
    if args.against:
        print(f"{differ} of {len(RUNS)} runs differ from {args.against}")
    return status


if __name__ == "__main__":
    sys.exit(main())
