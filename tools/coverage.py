"""Print each statement of ``src/tvrates`` that the tier-1 tests and the
demos never execute.

    PYTHONPATH=src python tools/coverage.py

Stdlib only: no coverage package is needed.  A ``sys.settrace`` hook
records the lines run in the package's files while pytest runs the tier-1
suite in this process and each demo runs, from a copy in a temporary
directory so that demo 05 writes its reports there.  Code run in a subprocess that a test starts is
not seen.  A statement counts as executed when any line of its own (for a
compound statement, its header) ran; statements the compiler emits no code
for, such as docstrings, are not listed.  Each unexecuted statement prints
as ``path:line: source``, followed by a count; the exit code is pytest's.
"""

import ast
import glob
import io
import os
import runpy
import shutil
import sys
import tempfile
import threading
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tvrates")
SOURCES = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))

_ours = {}  # co_filename -> real path of a package file, or None
executed = set()  # (real path, line)


def _local(frame, event, arg):
    if event == "line":
        executed.add((_ours[frame.f_code.co_filename], frame.f_lineno))
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _ours:
        path = os.path.realpath(name)
        _ours[name] = path if path in SOURCES else None
    return None if _ours[name] is None else _local


def _code_lines(code) -> set:
    """Every line the code object and its nested code objects run."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _own_lines(node) -> range:
    """The lines of a statement outside its nested statements' bodies."""
    decorators = getattr(node, "decorator_list", [])
    first = min([node.lineno] + [d.lineno for d in decorators])
    body = [child for field in ("body", "orelse", "finalbody", "handlers")
            for child in getattr(node, field, [])]
    if not body:
        return range(first, node.end_lineno + 1)
    return range(first, min(child.lineno for child in body))


def unexecuted(path) -> list:
    """(line, source) of each statement of ``path`` that has code and never ran."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    runnable = _code_lines(compile(text, path, "exec"))
    source = text.splitlines()
    missed = []
    for node in ast.walk(ast.parse(text, path)):
        if not isinstance(node, ast.stmt):
            continue
        own = [line for line in _own_lines(node) if line in runnable]
        if own and not any((path, line) in executed for line in own):
            missed.append((node.lineno, source[node.lineno - 1].strip()))
    return sorted(missed)


def run_demos():
    """Run every demo from a copy in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        for demo in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
            copy = shutil.copy(demo, tmp)
            with redirect_stdout(io.StringIO()):
                runpy.run_path(copy, run_name="__main__")


def pytest_configure(config):
    """Tracing slows every example; a deadline would turn that into failures."""
    from hypothesis import settings

    settings.register_profile("traced", deadline=None)
    settings.load_profile("traced")


def main() -> int:
    import pytest

    threading.settrace(_global)
    sys.settrace(_global)
    try:
        tests = os.path.join(ROOT, "tests")
        code = pytest.main(["-q", "-p", "no:cacheprovider", tests],
                           plugins=[sys.modules[__name__]])
        run_demos()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in SOURCES:
        for line, text in unexecuted(path):
            print(f"{os.path.relpath(path, ROOT)}:{line}: {text}")
            total += 1
    print(f"{total} statements never executed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
