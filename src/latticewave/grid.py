"""Lattice geometry: fundamental constants, field storage and slab serialization.

Conventions used throughout the package: physical time is t = n*tau and
position is x = j*eps with integer indices n (time) and j (space). Fields
live on a rectangular slab psi[n][j] of complex doubles. The default
constants tau = eps = c = hbar = 1 put the lattice on the light cone
(c*tau = eps).
"""

from __future__ import annotations

import math
import os
import re
import struct
import sys
import threading
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from .errors import DomainError, SizeLimitError


class Infinite:
    """Symbolic infinity: zero-wavenumber modes, rest-frame phase velocity.

    A deliberate first-class tag, not an IEEE overflow value; the only instance is ``INFINITE``.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE"

    def __reduce__(self) -> str:
        # pickled and copied by name, so every protocol and copy hands back the one object: `is` compares it
        return "INFINITE"


INFINITE = Infinite()

MaybeInfinite = Union[int, Infinite]

#: The most cells one call may allocate: slab sites (nt * nx) in sample_wave,
#: the beat functions and evolve, and scanned modes ((n_max - 1) * m_max) in
#: solve_modes. 2^22 is 16 times the largest run of the benchmark (256 x 1024
#: sites, 511 x 512 modes) and a 64 MiB complex slab.
MAX_CELLS = 1 << 22

#: The published-table variants that ``verify-all --as-printed`` substitutes, each
#: expected to fail its criterion: the printed S4 matrix (criterion 8) and the
#: printed tan dispersion relation (criterion 6).
AS_PRINTED_CHOICES = ("s4", "tan-dispersion")


def check_size(count: int, what: str) -> None:
    """Raise SizeLimitError, before any allocation, if count exceeds MAX_CELLS."""
    if count > MAX_CELLS:
        raise SizeLimitError(f"{what}: {count} exceeds the size cap of {MAX_CELLS}")


def check_extent(shape: tuple[int, ...]) -> None:
    """Raise DomainError unless every extent of a slab of ``shape`` is an integer >= 1."""
    if not all(is_integer(n) and n >= 1 for n in shape):
        raise DomainError(f"slab extents must be integers >= 1, got shape {shape}")


def is_integer(value) -> bool:
    """An int, never a bool: the package's one test of an integer argument."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_mode(N: int, M: MaybeInfinite) -> None:
    """Raise DomainError unless N is an integer >= 2 and M an integer >= 2 or INFINITE."""
    if not (is_integer(N) and N >= 2):
        raise DomainError(f"N must be an integer >= 2, got {N!r}")
    if not isinstance(M, Infinite) and not (is_integer(M) and M >= 2):
        raise DomainError(f"M must be an integer >= 2 or INFINITE, got {M!r}")


@dataclass(frozen=True)
class GridSpec:
    """The four lattice constants; owns all unit conventions.

    Extents belong to the sampled field (a slab's shape is its array's
    shape). ``h`` (the unreduced quantum of action, 2*pi*hbar) is always
    derived, never stored.
    """

    # each constant's doc is the help of its command-line flag
    tau: float = field(default=1.0, metadata={"doc": "fundamental time step"})
    eps: float = field(default=1.0, metadata={"doc": "fundamental length"})
    c: float = field(default=1.0, metadata={"doc": "speed of light"})
    hbar: float = field(default=1.0, metadata={"doc": "reduced quantum of action"})

    def __post_init__(self):
        for name in GRID_KEYS:
            value = getattr(self, name)
            # compared, not converted: an int past the float range must not raise OverflowError,
            # nor be printed in full (repr refuses ints of more than 4300 digits)
            if isinstance(value, bool) or not (isinstance(value, (int, float)) and 0 < value <= sys.float_info.max):
                too_long = isinstance(value, int) and value.bit_length() > 1024
                shown = f"an int of {value.bit_length()} bits" if too_long else repr(value)
                raise DomainError(f"GridSpec.{name} must be a finite positive number, got {shown}")

    @property
    def h(self) -> float:
        return 2.0 * math.pi * self.hbar

    def wave_coefficients(self, m0: float, quantum: float | None = None) -> tuple[float, float, float]:
        """(1/(c tau)^2, 1/eps^2, (m0 c/quantum)^2): how the constants enter the lattice wave equation.

        ``quantum`` is hbar unless given; the cayley relation passes h. A
        bool m0, or a coefficient that leaves the float range (a square
        that overflows, or one that underflows so that its reciprocal is
        not finite), is a DomainError.
        """
        if isinstance(m0, (bool, np.bool_)):
            raise DomainError(f"m0 must be a number, got {m0!r}")
        quantum = self.hbar if quantum is None else quantum
        try:
            coefficients = 1.0 / (self.c * self.tau) ** 2, 1.0 / self.eps**2, (m0 * self.c / quantum) ** 2
            in_range = all(map(math.isfinite, coefficients))
        except (OverflowError, ZeroDivisionError):
            in_range = False
        if not in_range:
            raise DomainError(f"the wave equation's coefficients leave the float range for m0={m0!r}, "
                              f"tau={self.tau!r}, eps={self.eps!r}, c={self.c!r}, hbar={self.hbar!r}")
        return coefficients


# the constants' names: the keys of a config's "grid" object and the command line's grid flags
GRID_KEYS = tuple(constant.name for constant in fields(GridSpec))


@dataclass
class FieldSlab:
    """Complex field psi[n][j] over time index n and space index j; a slab is its array and nothing else."""

    psi: np.ndarray

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=np.complex128)
        if self.psi.ndim != 2:
            raise DomainError(f"FieldSlab.psi must be 2-D (time, space), got shape {self.psi.shape}")
        check_extent(self.psi.shape)

    @property
    def nt(self) -> int:
        return self.psi.shape[0]

    @property
    def nx(self) -> int:
        return self.psi.shape[1]


# --- slab serialization -----------------------------------------------------
#
# CSV layout: optional leading '#' comment lines, a header row
# "n,j,re,im", then one row per site in row-major order whose float cells
# are Python reprs; every line ends in '\n'. The loader reads UTF-8 lines
# ending in '\n' or '\r\n' (any other '\r' is an error), skips empty
# lines and lines whose first non-blank character is '#' wherever they
# are, requires the header exactly, and parses each data row with numpy's
# tokenizer as two int64 and two float cells: ASCII digits, an optional
# sign, whitespace around a cell allowed, no quotes, no '_' digit groups.
#
# Two readers run that grammar. A file that starts the way slab_to_csv
# writes it ('#' lines, the header, then a byte that is not '\n'), holds
# no '\r', has no suffix numpy would decompress and is a regular file goes
# to numpy's chunked file reader, which makes no Python string per line. Every other file,
# and every file that reader refuses, goes to the line path, which owns
# the grammar's other cases and each error message.
#
# Binary layout: 16-byte header (magic b"KGL1", u32 Nt, u32 Nx,
# u32 reserved = 0, all little-endian) followed by row-major complex
# doubles (re, im interleaved, little-endian).

SLAB_MAGIC = b"KGL1"
_HEADER = struct.Struct("<4sIII")

_CSV_ROW = np.dtype([("n", "<i8"), ("j", "<i8"), ("re", "<f8"), ("im", "<f8")])
SLAB_CSV_COLUMNS = _CSV_ROW.names
SLAB_CSV_HEADER = ",".join(SLAB_CSV_COLUMNS)

#: The fewest sites (nt * nx) for which slab_to_csv forks a child to format half the rows: about where the
#: fork, the pipe and the reap cost as much as the float reprs the child takes over
SPLIT_CELLS = 1 << 12


def _csv_rows(psi: np.ndarray, lo: int, hi: int) -> bytes:
    """Rows ``lo`` to ``hi - 1`` of ``psi`` in the CSV layout above, encoded."""
    # each row of the slab is one join over its 8 * nx cells, "n" "," "j" "," re "," im "\n" per site, which is
    # the layout above byte for byte. The j, comma and newline cells are the same in every row, so they are
    # filled once; a row's tolist() yields Python floats, whose repr the re and im cells use. Each row is
    # encoded as it is built, so the rendered text is held once, as bytes, before the join
    nx = psi.shape[1]
    cells = [","] * (8 * nx)
    cells[2::8] = map(str, range(nx))
    cells[7::8] = ["\n"] * nx
    rows = []
    for n in range(lo, hi):
        cells[0::8] = [str(n)] * nx
        cells[4::8] = map(repr, psi[n].real.tolist())
        cells[6::8] = map(repr, psi[n].imag.tolist())
        rows.append("".join(cells).encode())
    return b"".join(rows)


def _may_fork(cells: int) -> bool:
    """Whether slab_to_csv splits a slab of ``cells`` sites with a forked child.

    Only a process with one Python thread forks (a child of a threaded
    process may inherit a lock another thread held), and only where a
    second CPU can run the child. Threads that numpy's BLAS starts are not
    Python threads; the child runs no BLAS code.
    """
    return (cells >= SPLIT_CELLS and hasattr(os, "fork") and threading.active_count() == 1
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2)


def _split_rows(psi: np.ndarray) -> tuple[bytes, bytes]:
    """The CSV rows of ``psi`` in two pieces, rows ``0 .. nt//2 - 1`` and the rest; a forked child formats the first.

    This process formats the second meanwhile. A pipe or fork that fails,
    or a child that exits with a nonzero status, leaves the first piece to
    this process too.
    """
    nt = psi.shape[0]
    half = nt // 2
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return _csv_rows(psi, 0, half), _csv_rows(psi, half, nt)
    pid, status = None, -1  # status -1: no child wrote the first piece
    with open(read_end, "rb", buffering=0) as reader, open(write_end, "wb") as writer:
        # the fork runs inside the try, so the finally reaps every child whose pid this process holds; the read end
        # closes before the reap on every path, so a child blocked on a full pipe fails and exits
        try:
            try:
                pid = os.fork()
            except OSError:
                pass
            if pid == 0:
                # the child drops its read end, so a write to a pipe the parent has closed fails instead of
                # blocking, and it leaves through _exit on every path: status 0 only once every byte is written
                # unreached: only the forked child runs it, and the line recorder sees its own process alone
                try:
                    reader.close()
                    writer.write(_csv_rows(psi, 0, half))
                    writer.close()
                    os._exit(0)
                finally:
                    os._exit(1)
            writer.close()
            second = _csv_rows(psi, half, nt)
            first = reader.read()
        finally:
            reader.close()
            if pid is not None:
                try:
                    status = os.waitpid(pid, 0)[1]
                except ChildProcessError:  # reaped without us, as where SIGCHLD is ignored: its status is unknown
                    status = -1
    return (first if status == 0 else _csv_rows(psi, 0, half)), second


def slab_to_csv(slab: FieldSlab, header_lines: Iterable[str] = ()) -> bytes:
    """The slab in the CSV layout above; from SPLIT_CELLS sites a forked child formats the first half of the rows.

    The bytes never depend on the split (see _split_rows).
    """
    head = b"".join([*(f"# {line}\n".encode() for line in header_lines), f"{SLAB_CSV_HEADER}\n".encode()])
    psi, nt = slab.psi, slab.nt
    # a one-row slab has no first half to hand over
    rows = _split_rows(psi) if nt > 1 and _may_fork(psi.size) else (_csv_rows(psi, 0, nt),)
    return b"".join((head, *rows))


def save_slab_csv(slab: FieldSlab, path: str | Path, header_lines: Iterable[str] = ()) -> None:
    Path(path).write_bytes(slab_to_csv(slab, header_lines))


def _parse_rows(source, **file_options) -> np.ndarray:
    """The data rows of ``source`` by numpy's tokenizer: a list of rows, or a path with its encoding and skiprows."""
    return np.loadtxt(source, dtype=_CSV_ROW, delimiter=",", comments=None, quotechar=None, ndmin=1, **file_options)


def _first_bad_row(text: str, lines: list[str]) -> tuple[int, str]:
    """(1-based line number in the file, text) of the first data row the parser rejects.

    ``lines`` are the header and data rows of ``text``, which failed to
    parse as a whole. Rows parse independently, so a prefix of them fails
    exactly when it holds a bad row; bisection over prefix lengths finds
    the first one.
    """
    good, bad = 1, len(lines)  # lines[1:good] parse, lines[1:bad] fail
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _parse_rows(lines[1:mid])
            good = mid
        except ValueError:
            bad = mid
    # skipped lines (empty or '#') never equal a header or data row, so each
    # kept line is the next line of the file equal to it
    all_lines = text.split("\n")
    index = -1
    for line in lines[:bad]:
        index = all_lines.index(line, index + 1)
    return index + 1, lines[bad - 1]


def _read_lines(path: Path, raw: bytes) -> np.ndarray:
    """The line path: the rows of ``raw`` under the whole grammar, or the DomainError that names its fault."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not a slab CSV ({exc})") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            raise DomainError(f"{path}: not a slab CSV (a carriage return outside a '\\r\\n' line ending)")
    # a line without '#' cannot start with one, so most lines skip the lstrip
    lines = [line for line in text.split("\n") if line and ("#" not in line or not line.lstrip().startswith("#"))]
    if not lines or lines[0] != SLAB_CSV_HEADER:
        raise DomainError(f"{path}: not a slab CSV (missing '{SLAB_CSV_HEADER}' header row)")
    if len(lines) < 2:
        raise DomainError(f"{path}: slab CSV has no data rows")
    try:
        return _parse_rows(lines[1:])
    except ValueError:
        lineno, line = _first_bad_row(text, lines)
        raise DomainError(f"{path}: line {lineno}: slab CSV data rows must be two integers and two floats, "
                          f"got {line[:80]!r}") from None


# the start of a file that numpy's reader may take: '#' lines and the header (group 1), then a byte that is not
# '\n', so numpy never sees a file with no data row (its "input contained no data" warning)
_WRITTEN_HEAD = re.compile(rb"((?:#[^\n]*\n)*" + SLAB_CSV_HEADER.encode() + rb"\n)\n*[^\n]")
# numpy opens a path with these suffixes through a decompressor
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def load_slab_csv(path: str | Path) -> FieldSlab:
    """Read back exactly the layout slab_to_csv writes; anything else is a DomainError.

    The file is read twice: once as bytes, to choose the reader (see the
    CSV layout above), and once by numpy when its chunked reader is
    chosen. Whatever that reader refuses (a ValueError, bad UTF-8
    included) or cannot open (an OSError, such as a removed working
    directory) is read again by the line path from the same bytes.
    """
    path = Path(path)
    raw = path.read_bytes()
    head = _WRITTEN_HEAD.match(raw)
    rows = None
    # numpy reads the file again, so only a regular file: a second read of a pipe finds it empty
    if head and b"\r" not in raw and path.suffix not in _COMPRESSED_SUFFIXES and path.is_file():
        try:
            rows = _parse_rows(path, encoding="utf-8", skiprows=head.group(1).count(b"\n"))
        except (ValueError, OSError):
            pass
    if rows is None:
        rows = _read_lines(path, raw)
    # row k must be site (k // nx, k % nx) of a full rectangle
    nx = 1 + int(rows["j"].max())
    k = np.arange(len(rows))
    if nx < 1 or len(rows) % nx or (rows["n"] != k // nx).any() or (rows["j"] != k % nx).any():
        raise DomainError(f"{path}: slab CSV rows are not the sites of a full rectangle in row-major order")
    # complex(re, im) per site: re + 1j*im would differ for inf, NaN and -0.0
    psi = np.empty(len(rows), dtype=np.complex128)
    psi.real, psi.imag = rows["re"], rows["im"]
    return FieldSlab(psi=psi.reshape(-1, nx))


def slab_to_bytes(slab: FieldSlab) -> bytes:
    # the join reads the array's buffer in place: the output is the one copy of the field
    return b"".join((_HEADER.pack(SLAB_MAGIC, slab.nt, slab.nx, 0), np.ascontiguousarray(slab.psi, dtype="<c16")))


def save_slab_binary(slab: FieldSlab, path: str | Path) -> None:
    Path(path).write_bytes(slab_to_bytes(slab))


def load_slab_binary(path: str | Path) -> FieldSlab:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise DomainError(f"{path}: truncated slab file")
    magic, nt, nx, _reserved = _HEADER.unpack_from(raw)
    if magic != SLAB_MAGIC:
        raise DomainError(f"{path}: bad magic {magic!r}, expected {SLAB_MAGIC!r}")
    expected = _HEADER.size + 16 * nt * nx
    if len(raw) != expected:
        raise DomainError(f"{path}: expected {expected} bytes for a {nt}x{nx} slab, got {len(raw)}")
    psi = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).reshape(nt, nx).astype(np.complex128)
    try:
        return FieldSlab(psi=psi)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None
