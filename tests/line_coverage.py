"""Line coverage of src/sgblow under the tier-1 tests, with the stdlib only.

Run from the repository root:

    python tests/line_coverage.py

A sys.settrace tracer is installed before sgblow is first imported, so
module-level lines count too; the tier-1 tests then run in this process.
Every executable line of src/sgblow that never ran is printed, and the
script exits 1 if a test failed, if an unreached line is not in ALLOWED,
or if an ALLOWED line ran or no longer exists.  Tracing makes the tests
several times slower, so this is a separate step, not part of tier-1.
"""

from __future__ import annotations

import dis
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sgblow"

# the one test left out: its RecursionError is raised inside the trace
# function, and CPython then drops the tracer for good
DESELECTED = ("tests/test_report.py::test_a_cyclic_value_is_not_a_document",)

# (file, stripped source line) -> why no traced test can reach it
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "runs only under `python -m sgblow.cli`; tests/test_cli.py runs that in a "
        "subprocess, which this tracer does not follow",
}


def executable_lines(path: Path) -> set[int]:
    """The lines that start a bytecode run in any code object of the file."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def traced_run(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with argv under the tracer; its exit code and the lines
    run in each file of the package."""
    files = {str(p): set() for p in PACKAGE.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        hits = files.get(frame.f_code.co_filename)
        if hits is None:
            return None
        hits.add(frame.f_lineno)
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    assert "sgblow" not in sys.modules, "sgblow was imported before the tracer"
    sys.settrace(call)
    try:
        import pytest

        code = pytest.main(argv)
    finally:
        sys.settrace(None)
    return int(code), files


def main() -> int:
    os.chdir(ROOT)
    argv = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "tests"]
    for test in DESELECTED:
        argv += ["--deselect", test]
    code, files = traced_run(argv)

    unreached = []
    for name in sorted(files):
        path = Path(name)
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - files[name]):
            unreached.append((path.name, line, source[line - 1].strip()))
    print(f"\n{len(unreached)} executable lines of src/sgblow never ran:")
    bad = 0
    for fname, line, text in unreached:
        reason = ALLOWED.get((fname, text))
        if reason is None:
            bad += 1
        print(f"  {fname}:{line}: {text}" + (f"  (allowed: {reason})" if reason else ""))
    stale = set(ALLOWED) - {(fname, text) for fname, _, text in unreached}
    for fname, text in sorted(stale):
        print(f"  allowed but run or gone: {fname}: {text}")
    if code:
        print(f"the tests failed (pytest exit {code})")
    if bad:
        print(f"{bad} unreached lines are not allowed")
    return 1 if code or bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
