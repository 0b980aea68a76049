"""Fail on any line of ``src/latticewave`` that the tier-1 suite never runs.

Usage, from the repository root:

    PYTHONPATH=src python tools/unreached.py

The whole tier-1 suite runs in this process (``pytest -q -p no:cacheprovider tests``) under a
``sys.settrace`` line recorder that looks only at the package's files; a subset of the tests
would leave every line it skips unreached, so the script takes no arguments. A file's executable
lines are the lines its compiled code objects name in ``co_lines``. The script exits 1 when the
suite fails, when an executable line is unreached and not on the allowlist, or when the
allowlist names a line that is reached or not executable; it exits 0 otherwise. The allowlist,
``tools/unreached_allowlist.txt``, holds one ``file:line reason`` entry per line; ``#`` starts a
comment line. The subprocess tests' lines count as unreached, since the recorder sees only this
process. Only the standard library and pytest are used.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latticewave"
ALLOWLIST = Path(__file__).resolve().parent / "unreached_allowlist.txt"


def executable_lines(path: Path) -> set[int]:
    """Every line that some code object compiled from ``path`` attributes an instruction to."""
    lines, todo = set(), [compile(path.read_bytes(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def read_allowlist(path: Path) -> dict[tuple[str, int], str]:
    """``{(file, line): reason}``; an entry without a reason is an error."""
    entries = {}
    for number, text in enumerate(path.read_text().splitlines(), 1):
        text = text.strip()
        if not text or text.startswith("#"):
            continue
        where, _, reason = text.partition(" ")
        name, _, line = where.partition(":")
        if not (line.isdigit() and reason.strip()):
            raise SystemExit(f"{path.name}:{number}: expected 'file:line reason', got {text!r}")
        entries[name, int(line)] = reason.strip()
    return entries


class Recorder:
    """The (file name, line) pairs run in the package, from 'call' and 'line' trace events."""

    def __init__(self, package: Path):
        self.package = str(package.resolve()) + os.sep
        self.names: dict[str, str | None] = {}  # co_filename -> the package file's name, or None
        self.reached: set[tuple[str, int]] = set()

    def _name(self, filename: str) -> str | None:
        if filename not in self.names:
            real = os.path.realpath(filename)
            self.names[filename] = real[len(self.package):] if real.startswith(self.package) else None
        return self.names[filename]

    def __call__(self, frame, event, arg):
        name = self._name(frame.f_code.co_filename)
        if name is None:
            return None
        reached = self.reached

        def local(frame, event, arg):
            reached.add((name, frame.f_lineno))
            return local

        reached.add((name, frame.f_lineno))
        return local

    def __enter__(self):
        sys.settrace(self)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def main() -> int:
    import pytest

    allowed = read_allowlist(ALLOWLIST)
    with Recorder(PACKAGE) as recorder:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if status != 0:
        print(f"unreached: the suite failed (pytest exit status {int(status)})")
        return 1
    executable = {(path.name, line) for path in sorted(PACKAGE.glob("*.py")) for line in executable_lines(path)}
    unreached = sorted(executable - recorder.reached)
    faults = [f"{name}:{line} is reached by no test and is not on the allowlist"
              for name, line in unreached if (name, line) not in allowed]
    faults += [f"{name}:{line} is on the allowlist but {'reached' if (name, line) in executable else 'not executable'}"
               for name, line in sorted(allowed) if (name, line) not in unreached]
    print(f"unreached: {len(unreached)} of {len(executable)} executable lines, {len(allowed)} allowlisted")
    for fault in faults:
        print(f"  {fault}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
