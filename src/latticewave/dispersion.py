"""Dispersion relations tying lattice modes (N, M) to the rest mass.

Three relations are evaluated as signed residuals (zero means the mode
solves the corresponding wave equation):

  cayley      (1/c^2)(1/(N tau))^2 - (1/(M eps))^2 - m0^2 c^2 / h^2
  exponential (4/(c^2 tau^2)) tan^2(pi/N) - (4/eps^2) tan^2(pi/M) - m0^2 c^2 / hbar^2
  continuum   (w/c)^2 - k^2 - (m0 c / hbar)^2,  w = 2 pi/(N tau), k = 2 pi/(M eps)

The exponential relation ships with the symmetric factor 4 on the time
term: that is what the lattice operator actually certifies (see
kg_lattice.calibrate_time_coefficient, whose stencil ratio is exactly
4 tan^2(pi/N)). The asymmetric variant with coefficient 1 on the time
term is available behind ``as_printed=True`` and is expected to fail
residual tests; it is retained to document the discrepancy.

M = INFINITE means zero wavenumber throughout (1/(M eps) = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .grid import GridSpec, Infinite, INFINITE, MaybeInfinite, check_size
from .kinematics import LatticeStep, discrete_energy_momentum


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
    if not (isinstance(N, int) and N >= 1):
        raise DomainError(f"rest period N must be an integer >= 1, got {N!r}")
    return grid.h / (grid.c**2 * N * grid.tau)


def _validate_mode(N: int, M: MaybeInfinite) -> None:
    if not (isinstance(N, int) and N >= 2):
        raise DomainError(f"N must be an integer >= 2, got {N!r}")
    if not isinstance(M, Infinite) and not (isinstance(M, int) and M >= 2):
        raise DomainError(f"M must be an integer >= 2 or INFINITE, got {M!r}")


def mode_frequency(N: int, grid: GridSpec) -> float:
    return 2.0 * math.pi / (N * grid.tau)


def mode_wavenumber(M: MaybeInfinite, grid: GridSpec) -> float:
    if isinstance(M, Infinite):
        return 0.0
    return 2.0 * math.pi / (M * grid.eps)


# Every relation is separable: residual = (time_term(N) - space_term(M)) - mass_term(m0).


def _time_term(form: DispersionForm, N: int, grid: GridSpec, time_coeff: float = 4.0) -> float:
    c, tau = grid.c, grid.tau
    if form is DispersionForm.CAYLEY:
        return (1.0 / c**2) * (1.0 / (N * tau)) ** 2
    if form is DispersionForm.EXPONENTIAL:
        return (time_coeff / (c**2 * tau**2)) * math.tan(math.pi / N) ** 2
    if form is DispersionForm.CONTINUUM:
        return (mode_frequency(N, grid) / c) ** 2
    raise DomainError(f"unknown dispersion form {form!r}")


def _space_term(form: DispersionForm, M: MaybeInfinite, grid: GridSpec) -> float:
    eps = grid.eps
    if form is DispersionForm.CAYLEY:
        inv_wavelength = 0.0 if isinstance(M, Infinite) else 1.0 / (M * eps)
        return inv_wavelength**2
    if form is DispersionForm.EXPONENTIAL:
        tan_m = 0.0 if isinstance(M, Infinite) else math.tan(math.pi / M)
        return (4.0 / eps**2) * tan_m**2
    if form is DispersionForm.CONTINUUM:
        return mode_wavenumber(M, grid) ** 2
    raise DomainError(f"unknown dispersion form {form!r}")


def _mass_term(form: DispersionForm, m0: float, grid: GridSpec) -> float:
    quantum = grid.h if form is DispersionForm.CAYLEY else grid.hbar
    return (m0 * grid.c / quantum) ** 2


def _out_of_range(exc: ArithmeticError) -> DomainError:
    return DomainError(f"dispersion terms leave the float range for these grid constants ({exc})")


def dispersion_residual(
    form: DispersionForm,
    N: int,
    M: MaybeInfinite,
    m0: float,
    grid: GridSpec,
    as_printed: bool = False,
) -> float:
    """Signed residual of the applicable relation; reported as-is."""
    _validate_mode(N, M)
    if m0 < 0:
        raise DomainError("m0 must be >= 0")
    time_coeff = 1.0 if as_printed else 4.0
    try:
        return _time_term(form, N, grid, time_coeff) - _space_term(form, M, grid) - _mass_term(form, m0, grid)
    except (OverflowError, ZeroDivisionError) as exc:
        raise _out_of_range(exc) from None


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
    empty list is a valid result. Each residual is bit-identical to
    ``dispersion_residual``: the space terms are computed once per M with
    the same scalar expressions, then one numpy row per N does the two
    float64 subtractions in the same order.
    """
    if not (m0 >= 0):
        raise DomainError(f"m0 must be >= 0, got {m0!r}")
    if n_max < 2 or m_max < 2:
        raise DomainError("mode bounds must be >= 2")
    if not (tol >= 0):
        raise DomainError(f"tol must be >= 0, got {tol!r}")
    check_size((n_max - 1) * m_max, "dispersion scan modes")
    wavelengths: list[MaybeInfinite] = list(range(2, m_max + 1)) + [INFINITE]
    found = []
    try:
        space = np.array([_space_term(form, M, grid) for M in wavelengths])
        mass = _mass_term(form, m0, grid)
        # one row per N, over M ascending with INFINITE last: already sorted
        with np.errstate(over="ignore", invalid="ignore"):
            for N in range(2, n_max + 1):
                row = (_time_term(form, N, grid) - space) - mass
                hits = np.flatnonzero(np.abs(row) <= tol)
                for k, residual in zip(hits.tolist(), row[hits].tolist()):
                    found.append(DispersionSolution(form=form, N=N, M=wavelengths[k], m0=m0, residual=residual))
    except (OverflowError, ZeroDivisionError) as exc:
        raise _out_of_range(exc) from None
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
    if tol < 0:
        raise DomainError("tol must be >= 0")
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
