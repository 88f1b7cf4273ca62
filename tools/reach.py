"""Reach gate: every statement of ``src/kplsvm/`` runs under tier-1.

Runs the tier-1 suite in this process under a line tracer limited to
frames whose code lives in ``src/kplsvm/``, then compares the lines it
saw with the package's statements, counted from each module's AST.  A
docstring and a ``global`` statement compile to no instruction, so a
line tracer never reports them, and they are not counted.

Exits 1 when a statement ran nowhere and is not in ``ALLOWED``, when an
``ALLOWED`` entry matches no unexecuted statement (it is stale), or when
a module records no executed line at all; exits with pytest's code if
the suite itself fails.  Run it from the repository root:

    python tools/reach.py            # extra arguments go to pytest

It needs only the standard library and pytest (plus the suite's own
requirements).  The hypothesis seed is fixed, so two runs trace the
same examples.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kplsvm")

#: Statements that run only in a child process, which the tracer does
#: not follow: (module, the statement's first source line, stripped) ->
#: the test that runs it.
ALLOWED = {
    ("cli.py", "argv = sys.argv[1:]"):
        "tests/test_cli.py::TestEntryPoint::test_module_invocation",
    ("cli.py", "sys.exit(main())"):
        "tests/test_cli.py::TestEntryPoint::test_module_invocation",
}

PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
               "--continue-on-collection-errors"]


def statements(source: str) -> set[int]:
    """First lines of the statements in ``source`` that a line tracer
    reports: every statement but docstrings and ``global``."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first)
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and node not in docstrings
            and not isinstance(node, ast.Global)}


def trace(args) -> tuple[int, dict[str, set[int]]]:
    """(pytest's exit code, module file name -> executed lines)."""
    prefix = PACKAGE + os.sep
    seen: dict[str, set[int]] = {}
    ours: dict[object, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        mine = ours.get(code)
        if mine is None:
            mine = ours[code] = os.path.realpath(
                code.co_filename).startswith(prefix)
            if mine:
                seen.setdefault(code.co_filename, set())
        if not mine:
            return None
        seen[code.co_filename].add(frame.f_lineno)
        return local

    # as the tier-1 command does, so that child processes import it too
    src = os.path.join(ROOT, "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, src)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(PYTEST_ARGS + list(args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    executed: dict[str, set[int]] = {}
    for filename, lines in seen.items():
        name = os.path.basename(filename)
        executed.setdefault(name, set()).update(lines)
    return int(code), executed


def main(argv=None) -> int:
    os.chdir(ROOT)
    code, executed = trace(sys.argv[1:] if argv is None else argv)
    if code != 0:
        print(f"reach: the suite failed (pytest exit {code})")
        return code
    failures, total, missed_total = [], 0, 0
    allowed_hit = set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        stmts = statements(source)
        ran = executed.get(name, set())
        total += len(stmts)
        if not ran:
            failures.append(f"{name}: no executed line")
            continue
        for lineno in sorted(stmts - ran):
            missed_total += 1
            key = (name, lines[lineno - 1].strip())
            if key in ALLOWED:
                allowed_hit.add(key)
            else:
                failures.append(f"{name}:{lineno}: never ran: {key[1]}")
    for key in sorted(set(ALLOWED) - allowed_hit):
        failures.append(f"{key[0]}: stale allow-list entry {key[1]!r}")
    print(f"reach: {total - missed_total} of {total} statements ran; "
          f"{len(allowed_hit)} allowed (child process only)")
    for line in failures:
        print(f"reach: {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
