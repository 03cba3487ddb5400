#!/usr/bin/env python3
"""Which `raise` in src/tlq does no test run?

Runs pytest in this process under a line tracer (`sys.settrace` and
`threading.settrace`, standard library only) that records the lines of
src/tlq that execute, then prints every `raise` statement that never ran,
one `path:line: text` row each.

Tracing starts before pytest, and so before `tlq`, is imported: a module
imported earlier would have its module-level lines read as unrun. Code that
only subprocesses run (the script smoke tests, perfbench's test) is not
traced. Tracing slows the suite about twofold.

Exit status: pytest's, when a test fails; else 1 when some raise never ran,
and 0 when every raise ran.

Usage: python scripts/line_trace.py [PYTEST_ARG ...]
(paths relative to the repository root; no argument runs all of tier-1)
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tlq"


def raise_lines(path: Path) -> dict[int, str]:
    """Line number -> stripped source text of each `raise` statement in `path`."""
    text = path.read_text()
    lines = text.splitlines()
    return {n.lineno: lines[n.lineno - 1].strip() for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Raise)}


def start_tracing() -> dict[str, set[int]]:
    """Record every line that runs in a src/tlq file, in this thread and every thread started later."""
    ran: dict[str, set[int]] = {str(p): set() for p in SRC.glob("*.py")}

    def on_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename in ran else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    return ran


def main(argv: list[str]) -> int:
    ran = start_tracing()
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # after the tracer: pytest's plugins may import tlq

    status = pytest.main(["-q", *argv])
    sys.settrace(None)
    threading.settrace(None)
    unrun = [
        f"{path.relative_to(ROOT)}:{line}: {text}"
        for path in sorted(SRC.glob("*.py"))
        for line, text in sorted(raise_lines(path).items())
        if line not in ran[str(path)]
    ]
    print(f"\n{len(unrun)} raise statement(s) in src/tlq that no test ran:", *unrun, sep="\n")
    return status if status else int(bool(unrun))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
