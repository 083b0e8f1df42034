"""Run the tier-1 tests under a line probe and list the package lines they never run.

    PYTHONPATH=src python tools/line_probe.py [--src DIR] [PYTEST_ARGS ...]

The executable lines of each ``*.py`` file under DIR (default
``src/permutons``) are the lines that ``co_lines()`` names in the code
objects compiled from it, nested ones included.  A ``sys.settrace`` hook,
installed for new threads too by ``threading.settrace``, records the lines
that run; it gives frames of other files no local tracer, so only DIR's
code is slowed.  pytest then runs in this process with PYTEST_ARGS (by
default ``-q --continue-on-collection-errors``, as the tier-1 command in
ROADMAP.md has it), after the parent of DIR is put first on ``sys.path``.

Lines reached only in a child process do not count: the CLI tests that
start ``permutons`` or ``python -m permutons`` in a subprocess run code
this probe cannot see, so a line only they reach is reported as unrun.

Each unrun line is printed as ``path:line: source``.  The exit status is
pytest's when the tests fail, else 1 when a line is unrun, else 0.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src" / "permutons"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every instruction compiled from ``path``."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    src = DEFAULT_SRC
    if argv[:1] == ["--src"]:
        src, argv = Path(argv[1]).resolve(), argv[2:]
    files = sorted(src.rglob("*.py"))
    hits = {os.path.realpath(p): set() for p in files}
    by_name: dict[str, set | None] = {}

    def local(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def probe(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = hits.get(os.path.realpath(name))
        return local if by_name[name] is not None else None

    import pytest

    sys.path.insert(0, str(src.parent))
    threading.settrace(probe)
    sys.settrace(probe)
    try:
        status = pytest.main(argv or TIER1_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = total = 0
    for path in files:
        lines, text = executable_lines(path), path.read_text().splitlines()
        for line in sorted(lines - hits[os.path.realpath(path)]):
            print(f"{path}:{line}: {text[line - 1].strip()}")
            unrun += 1
        total += len(lines)
    print(f"line probe: {unrun} of {total} executable lines under {src} unrun")
    return int(status) or (1 if unrun else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
