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

from .errors import DomainError, SizeLimitError


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

#: The most cells one call may allocate: slab sites (nt * nx) in sample_wave,
#: the beat functions and evolve, and scanned modes ((n_max - 1) * m_max) in
#: solve_modes. 2^22 is 16 times the largest run of the benchmark (256 x 1024
#: sites, 511 x 512 modes) and a 64 MiB complex slab.
MAX_CELLS = 1 << 22


def check_size(count: int, what: str) -> None:
    """Raise SizeLimitError, before any allocation, if count exceeds MAX_CELLS."""
    if count > MAX_CELLS:
        raise SizeLimitError(f"{what}: {count} exceeds the size cap of {MAX_CELLS}")


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
    """The four lattice constants; owns all unit conventions.

    Extents belong to the sampled field (a slab's shape is its array's
    shape). ``h`` (the unreduced quantum of action, 2*pi*hbar) is always
    derived, never stored.
    """

    tau: float = 1.0
    eps: float = 1.0
    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("tau", "eps", "c", "hbar"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and value > 0 and math.isfinite(value)):
                raise DomainError(f"GridSpec.{name} must be a finite positive number, got {value!r}")

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
        if 0 in self.psi.shape:
            raise DomainError(f"FieldSlab.psi must cover at least one site per axis, got shape {self.psi.shape}")

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


def load_slab_csv(path: str | Path, grid: GridSpec = GridSpec()) -> FieldSlab:
    """Read back exactly the layout slab_to_csv writes; anything else is a DomainError."""
    path = Path(path)
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DomainError(f"{path}: not a slab CSV ({exc})") from None
    if not rows or tuple(rows[0]) != SLAB_CSV_COLUMNS:
        raise DomainError(f"{path}: not a slab CSV (missing 'n,j,re,im' header row)")
    if len(rows) < 2:
        raise DomainError(f"{path}: slab CSV has no data rows")
    sites, values = [], []
    for row in rows[1:]:
        if len(row) != len(SLAB_CSV_COLUMNS):
            raise DomainError(f"{path}: slab CSV row {row!r} does not have {len(SLAB_CSV_COLUMNS)} cells")
        try:
            sites.append((int(row[0]), int(row[1])))
            values.append(complex(float(row[2]), float(row[3])))
        except ValueError:
            raise DomainError(f"{path}: slab CSV row {row!r} has a non-numeric cell") from None
    # row k must be site (k // nx, k % nx) of a full rectangle
    nx = 1 + max(j for _, j in sites)
    if nx < 1 or len(sites) % nx or any(site != divmod(k, nx) for k, site in enumerate(sites)):
        raise DomainError(f"{path}: slab CSV rows are not the sites of a full rectangle in row-major order")
    return FieldSlab(psi=np.array(values, dtype=np.complex128).reshape(-1, nx), grid=grid)


def slab_to_bytes(slab: FieldSlab) -> bytes:
    return _HEADER.pack(SLAB_MAGIC, slab.nt, slab.nx, 0) + np.ascontiguousarray(
        slab.psi, dtype="<c16"
    ).tobytes()


def save_slab_binary(slab: FieldSlab, path: str | Path) -> None:
    Path(path).write_bytes(slab_to_bytes(slab))


def load_slab_binary(path: str | Path, grid: GridSpec = GridSpec()) -> FieldSlab:
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
    try:
        return FieldSlab(psi=psi, grid=grid)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None
