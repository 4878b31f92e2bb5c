"""List the statements of ``src/pspin`` that none of the digest runs executes.

Every run of ``cli_digests.RUNS`` (or each run given on the command line)
goes through ``pspin.cli.main`` in this process, with the arguments that
``cli_digests`` gives it, under the standard library's ``trace`` module,
and writes its standard output to a temporary file. The
script then prints ``file:line: statement`` for each statement inside a
function body that no run reached, and their count. Module-level code runs
at import, so it is not listed.

    python3 tools/traffic_lines.py
    python3 tools/traffic_lines.py "critical --p 3"

A statement counts as reached when a line of it ran: for a compound
statement (``if``, ``for``, ``with``, ...) a line of its header.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import tempfile
import trace

TOOLS = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(TOOLS)
PACKAGE = os.path.join(ROOT, "src", "pspin")
sys.path[:0] = [TOOLS, os.path.join(ROOT, "src")]

from cli_digests import RUNS, cli_args  # noqa: E402
from pspin.cli import main as cli_main  # noqa: E402


def _header_end(stmt: ast.stmt) -> int:
    """Last line of a statement's own text: its header for a compound one."""
    body = getattr(stmt, "body", None)
    return max(stmt.lineno, body[0].lineno - 1) if body else stmt.end_lineno


def _body_statements(tree: ast.Module) -> list[ast.stmt]:
    """The first statement on each line inside a function body, docstrings and declarations aside."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, defs) and ast.get_docstring(node, clean=False) is not None}
    found = {}
    for func in ast.walk(tree):
        if isinstance(func, defs[:2]):
            for node in ast.walk(func):
                if node is not func and isinstance(node, ast.stmt) and id(node) not in docstrings \
                        and not isinstance(node, (ast.Global, ast.Nonlocal)):
                    found.setdefault(node.lineno, node)
    return [found[line] for line in sorted(found)]


def unreached(counts: dict) -> list[tuple[str, int, str]]:
    """(path, line, text) of each function-body statement in the package with no line run."""
    ran = {(os.path.realpath(f), line) for f, line in counts}
    out = []
    for folder, _, names in sorted(os.walk(PACKAGE)):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.realpath(os.path.join(folder, name))
            with open(path) as fh:
                source = fh.read()
            lines = source.splitlines()
            for stmt in _body_statements(ast.parse(source, path)):
                if not any((path, i) in ran for i in range(stmt.lineno, _header_end(stmt) + 1)):
                    out.append((os.path.relpath(path, ROOT), stmt.lineno, lines[stmt.lineno - 1].strip()))
    return out


def main(argv: list[str]) -> int:
    os.environ.pop("PSPIN_SEED", None)
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    for run in argv or RUNS:
        with tempfile.TemporaryFile("w+") as out, contextlib.redirect_stdout(out):
            status = tracer.runfunc(cli_main, cli_args(run))
        if status != 0:
            print(f"exit {status}  {run}", file=sys.stderr)
            return 1
    hits = unreached(tracer.results().counts)
    for path, line, text in hits:
        print(f"{path}:{line}: {text}")
    print(f"{len(hits)} statements in function bodies never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
