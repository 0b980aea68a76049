"""Fail on any line of ``src/latticewave`` that the tier-1 suite never runs.

Usage, from the repository root:

    PYTHONPATH=src python tools/unreached.py

The whole tier-1 suite runs in this process (``pytest -q -p no:cacheprovider tests``) under a
``sys.settrace`` line recorder that looks only at the package's files; a subset of the tests
would leave every line it skips unreached, so the script takes no arguments. A file's executable
lines are the lines its compiled code objects name in ``co_lines``.

A line that no test can reach by design is excused in the source: a comment line
``# unreached: <reason>`` directly above the statement excuses every executable line of the
statement that starts on the next line (a statement spanning several lines needs one marker).
The script exits 1 when the suite fails, when an executable line is unreached and unmarked, or
when a marker has no reason, stands above a line that starts no statement with an executable
line, or marks a statement that a test reaches; it exits 0 otherwise. A marker after code on the
same line is no marker. The subprocess tests' lines count as unreached, since the recorder sees
only this process. Only the standard library and pytest are used.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latticewave"
MARKER = "# unreached:"


def executable_lines(source: str, filename: str) -> set[int]:
    """Every line that some code object compiled from ``source`` attributes an instruction to."""
    lines, todo = set(), [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def read_markers(source: str) -> dict[int, tuple[str, range]]:
    """``{marker line: (reason, the lines of the statements that start on the next line)}``.

    A marker is a comment line that starts with ``MARKER``; the range is empty when no
    statement starts on the next line.
    """
    spans: dict[int, int] = {}  # first line of a statement -> last line of the statements starting there
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            spans[node.lineno] = max(spans.get(node.lineno, 0), node.end_lineno)
    markers = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        (line, column), text = token.start, token.string
        if token.type == tokenize.COMMENT and text.startswith(MARKER) and not token.line[:column].strip():
            markers[line] = text[len(MARKER):].strip(), range(line + 1, spans.get(line + 1, line) + 1)
    return markers


def audit(package: Path, reached: set[tuple[str, int]]) -> tuple[str, list[str]]:
    """The summary line and the faults of ``package/*.py``, given the (file name, line) pairs a run reached."""
    total = unreached_total = marker_total = 0
    faults = []
    for path in sorted(package.glob("*.py")):
        name, source = path.name, path.read_text()
        executable = executable_lines(source, str(path))
        unreached = {line for line in executable if (name, line) not in reached}
        markers = read_markers(source)
        total += len(executable)
        unreached_total += len(unreached)
        marker_total += len(markers)
        found, excused = [], set()
        for line, (reason, statement) in markers.items():
            covered = executable.intersection(statement)
            excused |= covered
            if not reason:
                found.append((line, "is a marker without a reason"))
            elif not covered:
                found.append((line, f"is a marker, but line {line + 1} starts no statement with an executable line"))
            elif covered - unreached:
                found.append((line, f"is a marker, but a test reaches line {min(covered - unreached)}"))
        found += [(line, "is reached by no test and has no marker") for line in unreached - excused]
        faults += [f"{name}:{line} {fault}" for line, fault in sorted(found)]
    return f"unreached: {unreached_total} of {total} executable lines, excused by {marker_total} markers", faults


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

    with Recorder(PACKAGE) as recorder:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if status != 0:
        print(f"unreached: the suite failed (pytest exit status {int(status)})")
        return 1
    summary, faults = audit(PACKAGE, recorder.reached)
    print(summary)
    for fault in faults:
        print(f"  {fault}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
