"""Lattice geometry: fundamental constants, field storage and slab serialization.

Conventions used throughout the package: physical time is t = n*tau and
position is x = j*eps with integer indices n (time) and j (space). Fields
live on a rectangular slab psi[n][j] of complex doubles. The default
constants tau = eps = c = hbar = 1 put the lattice on the light cone
(c*tau = eps).
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from .errors import DomainError


class Infinite:
    """Symbolic infinity: zero-wavenumber modes, rest-frame phase velocity.

    A deliberate first-class tag, not an IEEE overflow value. Compares
    greater than every real number; the only instance is ``INFINITE``.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE"

    def __eq__(self, other) -> bool:
        return isinstance(other, Infinite)

    def __hash__(self) -> int:
        return hash("latticewave.INFINITE")

    def __gt__(self, other) -> bool:
        if isinstance(other, Infinite):
            return False
        return True

    def __lt__(self, other) -> bool:
        return False

    def __ge__(self, other) -> bool:
        return True

    def __le__(self, other) -> bool:
        return isinstance(other, Infinite)


INFINITE = Infinite()

MaybeInfinite = Union[int, Infinite]


class Boundary(Enum):
    """How difference operators treat sequence ends."""

    PERIODIC = "periodic"
    SHRINKING = "shrinking"


class Axis(Enum):
    """The two slab directions: time index n, space index j."""

    TIME_N = "time_n"
    SPACE_J = "space_j"


@dataclass(frozen=True)
class GridSpec:
    """Fundamental constants plus lattice extents; owns all unit conventions.

    ``h`` (the unreduced quantum of action, 2*pi*hbar) is always derived,
    never stored.
    """

    tau: float = 1.0
    eps: float = 1.0
    c: float = 1.0
    hbar: float = 1.0
    Nt: int = 64
    Nx: int = 64
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        for name in ("tau", "eps", "c", "hbar"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and value > 0 and math.isfinite(value)):
                raise DomainError(f"GridSpec.{name} must be a finite positive number, got {value!r}")
        for name in ("Nt", "Nx"):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= 1):
                raise DomainError(f"GridSpec.{name} must be a positive integer, got {value!r}")
        if not isinstance(self.boundary, Boundary):
            raise DomainError(f"GridSpec.boundary must be a Boundary, got {self.boundary!r}")

    @property
    def h(self) -> float:
        return 2.0 * math.pi * self.hbar


@dataclass
class FieldSlab:
    """Complex field psi[n][j] over time index n and space index j."""

    psi: np.ndarray
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=np.complex128)
        if self.psi.ndim != 2:
            raise DomainError(f"FieldSlab.psi must be 2-D (time, space), got shape {self.psi.shape}")

    @property
    def nt(self) -> int:
        return self.psi.shape[0]

    @property
    def nx(self) -> int:
        return self.psi.shape[1]

    def with_values(self, psi: np.ndarray) -> "FieldSlab":
        return FieldSlab(psi=psi, grid=self.grid)


# --- slab serialization -----------------------------------------------------
#
# CSV layout: optional leading '#' comment lines, a header row
# "n,j,re,im", then one row per site in row-major order whose float cells
# are Python reprs; every line ends in '\n'.
#
# Binary layout: 16-byte header (magic b"KGL1", u32 Nt, u32 Nx,
# u32 reserved = 0, all little-endian) followed by row-major complex
# doubles (re, im interleaved, little-endian).

SLAB_MAGIC = b"KGL1"
_HEADER = struct.Struct("<4sIII")

SLAB_CSV_COLUMNS = ("n", "j", "re", "im")


def slab_to_csv(slab: FieldSlab, header_lines: Iterable[str] = ()) -> bytes:
    lines = [f"# {line}\n" for line in header_lines]
    lines.append(",".join(SLAB_CSV_COLUMNS) + "\n")
    # tolist() yields Python floats, whose repr the cells use
    for n, (re_row, im_row) in enumerate(zip(slab.psi.real, slab.psi.imag)):
        cells = zip(re_row.tolist(), im_row.tolist())
        lines.extend(f"{n},{j},{re!r},{im!r}\n" for j, (re, im) in enumerate(cells))
    return "".join(lines).encode()


def save_slab_csv(slab: FieldSlab, path: str | Path, header_lines: Iterable[str] = ()) -> None:
    Path(path).write_bytes(slab_to_csv(slab, header_lines))


def load_slab_csv(path: str | Path, grid: GridSpec | None = None) -> FieldSlab:
    path = Path(path)
    entries: dict[tuple[int, int], complex] = {}
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DomainError(f"{path}: not a slab CSV ({exc})") from None
    if not rows or tuple(rows[0]) != SLAB_CSV_COLUMNS:
        raise DomainError(f"{path}: not a slab CSV (missing 'n,j,re,im' header row)")
    if len(rows) < 2:
        raise DomainError(f"{path}: slab CSV has no data rows")
    for row in rows[1:]:
        if len(row) != len(SLAB_CSV_COLUMNS):
            raise DomainError(f"{path}: slab CSV row {row!r} does not have {len(SLAB_CSV_COLUMNS)} cells")
        try:
            n, j = int(row[0]), int(row[1])
            entries[(n, j)] = complex(float(row[2]), float(row[3]))
        except ValueError:
            raise DomainError(f"{path}: slab CSV row {row!r} has a non-numeric cell") from None
    if len(entries) != len(rows) - 1:
        raise DomainError(f"{path}: slab CSV lists a site (n, j) more than once")
    if min(map(min, entries)) < 0:
        raise DomainError(f"{path}: slab CSV has a negative index")
    nt = 1 + max(k[0] for k in entries)
    nx = 1 + max(k[1] for k in entries)
    if len(entries) != nt * nx:
        raise DomainError(f"{path}: slab CSV does not cover a full {nt}x{nx} rectangle")
    psi = np.zeros((nt, nx), dtype=np.complex128)
    for (n, j), value in entries.items():
        psi[n, j] = value
    return FieldSlab(psi=psi, grid=grid if grid is not None else GridSpec(Nt=nt, Nx=nx))


def slab_to_bytes(slab: FieldSlab) -> bytes:
    return _HEADER.pack(SLAB_MAGIC, slab.nt, slab.nx, 0) + np.ascontiguousarray(
        slab.psi, dtype="<c16"
    ).tobytes()


def save_slab_binary(slab: FieldSlab, path: str | Path) -> None:
    Path(path).write_bytes(slab_to_bytes(slab))


def load_slab_binary(path: str | Path, grid: GridSpec | None = None) -> FieldSlab:
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
    psi = np.frombuffer(raw[_HEADER.size:], dtype="<c16").reshape(nt, nx).astype(np.complex128)
    return FieldSlab(psi=psi, grid=grid if grid is not None else GridSpec(Nt=nt, Nx=nx))
