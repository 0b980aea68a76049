"""The recorded pins of tests/pins.txt: every output digest and exit code, run in-process through the CLI."""

import contextlib
import dataclasses
import hashlib
import io
import re
from collections import Counter
from pathlib import Path

import pytest

from latticewave.cli import main

TESTS = Path(__file__).resolve().parent
PINS = TESTS / "pins.txt"
_RANGE = re.compile(r"\{([0-9]+)\.\.([0-9]+)\}")


@dataclasses.dataclass(frozen=True)
class Pin:
    line: int
    code: int
    digest: str | None  # None: the row pins the exit code alone
    argv: tuple[str, ...]

    def __str__(self):
        return f"{PINS.name}:{self.line}: {' '.join(self.argv)}"


def load_pins(text: str) -> list[Pin]:
    """The rows of a pin table; blank and ``#`` lines are skipped, a malformed row is a ValueError naming its line."""
    pins = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split()
        code, digest, argv = parts[0], parts[1] if len(parts) > 1 else "", tuple(parts[2:])
        if not re.fullmatch(r"[0-9]+", code):
            problem = f"the exit code {code!r} is not an integer"
        elif not re.fullmatch(r"-|[0-9a-f]{64}", digest):
            problem = f"the digest {digest!r} is neither '-' nor 64 lowercase hex digits"
        elif not argv:
            problem = "the argv is empty"
        else:
            pins.append(Pin(number, int(code), None if digest == "-" else digest, argv))
            continue
        raise ValueError(f"{PINS.name}:{number}: {problem}; a row is <exit code> <sha256 or -> <argv...>, got {line!r}")
    return pins


def _runs(argv: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The argv of each run of a row: one per integer of its ``{a..b}`` term, else the row's own."""
    for k, arg in enumerate(argv):
        if match := _RANGE.fullmatch(arg):
            first, last = int(match[1]), int(match[2])
            return [(*argv[:k], str(value), *argv[k + 1:]) for value in range(first, last + 1)]
    return [argv]


def mismatch(pin: Pin, tmp_path: Path) -> str | None:
    """How the row's runs differ from what it pins, naming the row; None when they match.

    An experiment runs with ``--output`` added and its file is hashed; verify-all's stdout is hashed.
    """
    digest, output = hashlib.sha256(), tmp_path / "pinned.out"
    for argv in _runs(pin.argv):
        if argv[0] != "verify-all":
            argv = (*argv, "--output", str(output))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        if code != pin.code:
            return f"{pin}: exit code {code}, expected {pin.code}"
        if pin.digest is not None:
            digest.update(stdout.getvalue().encode() if argv[0] == "verify-all" else output.read_bytes())
    if pin.digest is not None and digest.hexdigest() != pin.digest:
        return f"{pin}: sha256 {digest.hexdigest()}, expected {pin.digest}"
    return None


PIN_ROWS = load_pins(PINS.read_text())


@pytest.mark.parametrize("pin", PIN_ROWS, ids=lambda pin: " ".join(pin.argv))
def test_pin(pin, tmp_path):
    assert mismatch(pin, tmp_path) is None


def test_the_table_holds_every_kind_of_pin():
    """19 experiment files, 30 verify-all reports and the seeds 0-99 digest, and 11 exit codes alone."""
    kinds = Counter("exit code" if pin.digest is None else
                    "seed range" if any(map(_RANGE.fullmatch, pin.argv)) else
                    "report" if pin.argv[0] == "verify-all" else "file" for pin in PIN_ROWS)
    assert kinds == {"file": 19, "report": 30, "seed range": 1, "exit code": 11}


def test_every_digest_is_written_once_in_the_pin_table():
    """No 64-hex literal outside the table, in the tests or the workflow, and no argv in two rows."""
    hex64 = re.compile(r"(?<![0-9A-Fa-f])[0-9A-Fa-f]{64}(?![0-9A-Fa-f])")
    sources = [*sorted(TESTS.glob("*.py")), TESTS.parent / ".github" / "workflows" / "tests.yml"]
    found = [f"{path.name}:{number}" for path in sources
             for number, line in enumerate(path.read_text().splitlines(), 1) if hex64.search(line)]
    assert found == []
    assert [argv for argv, rows in Counter(pin.argv for pin in PIN_ROWS).items() if rows > 1] == []


def test_the_loader_skips_blank_and_comment_lines():
    pins = load_pins("# a comment\n\n   \n  # indented\n0 - verify-all --seed 3\n")
    assert pins == [Pin(5, 0, None, ("verify-all", "--seed", "3"))]


@pytest.mark.parametrize("row, problem", [
    ("x - verify-all", "the exit code 'x' is not an integer"),
    ("1.0 - verify-all", "the exit code '1.0' is not an integer"),
    ("-1 - verify-all", "the exit code '-1' is not an integer"),
    ("0 abc verify-all", "the digest 'abc' is neither"),
    ("0 " + "ab" * 31 + " verify-all", "the digest '" + "ab" * 31 + "' is neither"),
    ("0 " + "AB" * 32 + " verify-all", "the digest '" + "AB" * 32 + "' is neither"),
    ("0 " + "ab" * 32, "the argv is empty"),
    ("0 -", "the argv is empty"),
    ("0", "the digest '' is neither"),
], ids=["letter", "float", "negative", "short-hex", "63-hex", "uppercase", "no-argv", "dash-no-argv", "code-only"])
def test_the_loader_refuses_a_malformed_row_by_its_line_number(row, problem):
    with pytest.raises(ValueError) as raised:
        load_pins(f"# a comment\n\n{row}\n0 - verify-all\n")
    assert str(raised.value).startswith(f"pins.txt:3: {problem}")


@pytest.mark.parametrize("command", ["kg-residual", "verify-all"])
def test_a_changed_digit_or_exit_code_is_a_mismatch_that_names_the_row(tmp_path, command):
    """A real row matches; with one hex digit changed, or the wrong exit code, it is reported by its line and argv."""
    pin = next(pin for pin in PIN_ROWS if pin.argv[0] == command and pin.digest is not None)
    assert mismatch(pin, tmp_path) is None
    digit = "0" if pin.digest[-1] != "0" else "1"
    changed = dataclasses.replace(pin, digest=pin.digest[:-1] + digit)
    assert mismatch(changed, tmp_path) == f"{pin}: sha256 {pin.digest}, expected {changed.digest}"
    wrong_code = dataclasses.replace(pin, code=pin.code + 2)
    assert mismatch(wrong_code, tmp_path) == f"{pin}: exit code {pin.code}, expected {pin.code + 2}"
