"""Dispersion relations tying lattice modes (N, M) to the rest mass.

Three relations are evaluated as signed residuals (zero means the mode
solves the corresponding wave equation). Each is one factored form,

  residual = inv_ct2 Q(N) - inv_eps2 Q(M) - mu2,

where (inv_ct2, inv_eps2, mu2) = (1/(c tau)^2, 1/eps^2, (m0 c/quantum)^2)
are the coefficients of ``GridSpec.wave_coefficients`` (quantum is h for
cayley, hbar otherwise), and Q is one dimensionless square per form:

  cayley      Q(n) = (1/n)^2
  exponential Q(n) = 4 tan^2(pi/n)
  continuum   Q(n) = (2 pi/n)^2

M = INFINITE means zero wavenumber throughout: Q(INFINITE) = 0.

n = 2 is the pole of the exponential Q. The lattice operator has none:
its second averages send the sawtooth mode (-1)^n to 0 (Trefethen,
Group Velocity in Finite Difference Schemes, 1982). So the checkerboard
mode (2, 2), where both averages vanish, solves it at every mass and
reads residual 0.0; (2, M > 2) and (N > 2, 2), where only one does,
solve nothing, and their residual is a DomainError that names the pole.

The exponential relation ships with the symmetric factor 4 on the time
term: that is what the lattice operator actually certifies (see
kg_lattice.calibrate_time_coefficient, whose stencil ratio is exactly
4 tan^2(pi/N)). The asymmetric variant with coefficient 1 on the time
term, Q(N)/4, is available behind ``as_printed=True`` and is expected to
fail residual tests; it is retained to document the discrepancy.
Acceptance criterion 6 is its caller: it takes its exponential masses
from this relation at m0 = 0, as printed under its ``tan-dispersion``
variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .grid import GridSpec, Infinite, INFINITE, MaybeInfinite, check_mode, check_size, is_integer

if TYPE_CHECKING:
    # unreached: read by static type checkers only
    from .kinematics import LatticeStep


class DispersionForm(Enum):
    EXPONENTIAL = "exponential"
    CAYLEY = "cayley"
    CONTINUUM = "continuum"


@dataclass(frozen=True)
class DispersionSolution:
    """An (N, M) mode whose residual vanishes within tolerance for mass m0."""

    form: DispersionForm
    N: int
    M: MaybeInfinite
    m0: float
    residual: float


def mass_from_rest_period(N: int, grid: GridSpec) -> float:
    """Rest mass of the mode with time period N and zero wavenumber: h/(c^2 N tau)."""
    if not (is_integer(N) and N >= 1):
        raise DomainError(f"rest period N must be an integer >= 1, got {N!r}")
    try:
        m0 = grid.h / (grid.c**2 * N * grid.tau)
    except (OverflowError, ZeroDivisionError):
        m0 = math.inf
    if not (math.isfinite(m0) and m0 > 0):
        raise DomainError(f"the rest mass h/(c^2 N tau) leaves the float range for N={N!r}, "
                          f"tau={grid.tau!r}, c={grid.c!r}, h={grid.h!r}")
    return m0


def _square(form: DispersionForm, n: MaybeInfinite) -> float:
    """Q(n), the dimensionless square that a mode number contributes to its relation."""
    if isinstance(n, Infinite):
        return 0.0
    if form is DispersionForm.CAYLEY:
        return (1.0 / n) ** 2
    if form is DispersionForm.EXPONENTIAL:
        return 4.0 * math.tan(math.pi / n) ** 2
    if form is DispersionForm.CONTINUUM:
        return (2.0 * math.pi / n) ** 2
    raise DomainError(f"unknown dispersion form {form!r}")


def _has_pole(form: DispersionForm) -> bool:
    """Whether n = 2 is the pole of the form's Q (see the module docstring)."""
    return form is DispersionForm.EXPONENTIAL


def _non_finite(N: int, M: MaybeInfinite, residual: float) -> DomainError:
    return DomainError(f"the residual of mode (N={N}, M={M}) is {residual!r}: its terms leave the float range")


def _coefficients(form: DispersionForm, m0: float, grid: GridSpec) -> tuple[float, float, float]:
    return grid.wave_coefficients(m0, grid.h if form is DispersionForm.CAYLEY else None)


def _check_tol(tol: float) -> None:
    """Raise DomainError unless tol is a number >= 0; NaN is not, and a bool is refused as every m0 refuses it."""
    if isinstance(tol, (bool, np.bool_)) or not (tol >= 0):
        raise DomainError(f"tol must be >= 0, got {tol!r}")


def dispersion_residual(
    form: DispersionForm,
    N: int,
    M: MaybeInfinite,
    m0: float,
    grid: GridSpec,
    as_printed: bool = False,
) -> float:
    """Signed residual of the applicable relation; reported as-is, and a DomainError if not finite."""
    check_mode(N, M)
    if not (m0 >= 0):
        raise DomainError(f"m0 must be >= 0, got {m0!r}")
    inv_ct2, inv_eps2, mu2 = _coefficients(form, m0, grid)
    if _has_pole(form) and 2 in (N, M):
        if N == M:
            return 0.0
        raise DomainError(f"mode (N={N}, M={M}) is on the pole of the {form.value} relation at n = 2: only one of "
                          f"the lattice operator's averages vanishes, so the mode solves nothing")
    time_square = _square(form, N)
    if as_printed and form is DispersionForm.EXPONENTIAL:
        time_square /= 4.0
    residual = (inv_ct2 * time_square - inv_eps2 * _square(form, M)) - mu2
    if not math.isfinite(residual):
        raise _non_finite(N, M, residual)
    return residual


# values of N per block of a mode scan: a block's temporaries are 64 rows of m_max floats (256 KiB at 512)
_SCAN_BLOCK = 64


def solve_modes(
    m0: float,
    form: DispersionForm,
    n_max: int,
    m_max: int,
    tol: float,
    grid: GridSpec,
) -> list[DispersionSolution]:
    """Exhaustive integer-mode scan: all (N, M) with |residual| <= tol.

    Scans 2 <= N <= n_max and M in {2..m_max} plus INFINITE, sorted by
    (N, M) with INFINITE ordered after every finite M. Deterministic; an
    empty list is a valid result. On the exponential pole the scan lists
    (2, 2), residual 0.0, and skips the rest of row N = 2 and column
    M = 2. Each residual is bit-identical to
    ``dispersion_residual``: the time and space terms inv_ct2 Q(N) and
    inv_eps2 Q(M) are computed once per N and per M with the same scalar
    expressions, then one numpy block of _SCAN_BLOCK values of N at a time
    does the two float64 subtractions in the same order. A residual that
    is not finite is a DomainError naming the first such (N, M).
    """
    if not (m0 >= 0):
        raise DomainError(f"m0 must be >= 0, got {m0!r}")
    if not (is_integer(n_max) and is_integer(m_max)) or n_max < 2 or m_max < 2:
        raise DomainError(f"mode bounds must be >= 2 and integers, got n_max={n_max!r}, m_max={m_max!r}")
    _check_tol(tol)
    check_size((n_max - 1) * m_max, "dispersion scan modes")
    inv_ct2, inv_eps2, mu2 = _coefficients(form, m0, grid)
    lowest = 3 if _has_pole(form) else 2
    wavelengths: list[MaybeInfinite] = list(range(lowest, m_max + 1)) + [INFINITE]
    space = np.array([inv_eps2 * _square(form, M) for M in wavelengths])
    found = [DispersionSolution(form=form, N=2, M=2, m0=m0, residual=0.0)] if _has_pole(form) else []
    # rows N ascending, columns M ascending with INFINITE last: np.nonzero's C order is sorted
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(lowest, n_max + 1, _SCAN_BLOCK):
            periods = range(start, min(start + _SCAN_BLOCK, n_max + 1))
            block = (np.array([inv_ct2 * _square(form, N) for N in periods])[:, None] - space) - mu2
            if not np.isfinite(block).all():
                r, k = divmod(int(np.argmin(np.isfinite(block))), len(wavelengths))
                raise _non_finite(periods[r], wavelengths[k], block[r, k].item())
            rows, cols = np.nonzero(np.abs(block) <= tol)
            for r, k, residual in zip(rows.tolist(), cols.tolist(), block[rows, cols].tolist()):
                found.append(DispersionSolution(form=form, N=periods[r], M=wavelengths[k], m0=m0, residual=residual))
    return found


@dataclass(frozen=True)
class QuantizationResult:
    """Real-valued mode numbers for a lattice step, and nearest integers if close."""

    N_real: float
    M_real: float | Infinite
    N: int | None
    M: int | None


def quantization_check(step: LatticeStep, m0: float, grid: GridSpec, tol: float) -> QuantizationResult:
    """N_real = h/(tau E), M_real = h/(eps |p|) for the step's energy-momentum.

    Returns the nearest integer mode numbers when within ``tol``, else
    None for that slot. A zero momentum yields the INFINITE wavelength tag.
    """
    from .kinematics import discrete_energy_momentum

    _check_tol(tol)
    state = discrete_energy_momentum(m0, step, grid)
    p_mag = state.momentum_magnitude()
    try:
        n_real = grid.h / (grid.tau * state.E)
        m_real: float | Infinite = INFINITE if p_mag == 0.0 else grid.h / (grid.eps * p_mag)
        in_range = math.isfinite(n_real) and (isinstance(m_real, Infinite) or math.isfinite(m_real))
    except ZeroDivisionError:
        in_range = False
    if not in_range:
        raise DomainError(f"mode numbers h/(tau E), h/(eps |p|) leave the float range for m0 = {m0!r}")
    n_int = int(round(n_real)) if abs(n_real - round(n_real)) <= tol and round(n_real) >= 1 else None
    if isinstance(m_real, Infinite):
        m_int = None
    else:
        m_int = int(round(m_real)) if abs(m_real - round(m_real)) <= tol and round(m_real) >= 1 else None
    return QuantizationResult(N_real=n_real, M_real=m_real, N=n_int, M=m_int)
