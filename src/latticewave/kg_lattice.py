"""The lattice Klein-Gordon operator and its implicit time evolution.

The wave operator combines second differences and second averages along
each axis (writing f+ , f, f- for the three-point stencil values):

    D2 f = f+ - 2 f + f-          second difference
    A2 f = (f+ + 2 f + f-) / 4    second average

and reads, with mu^2 = (m0 c / hbar)^2,

    L[psi] = -(1/(c tau)^2) D2_n A2_j psi + (1/eps^2) D2_j A2_n psi
             - mu^2 A2_j A2_n psi.

Exponential modes solve L[psi] = 0 exactly when the symmetric tan
relation (4/(c tau)^2) tan^2(pi/N) - (4/eps^2) tan^2(pi/M) = mu^2 holds;
cayley modes when the linear relation (1/c^2)(1/(N tau))^2 -
(1/(M eps))^2 = m0^2 c^2/h^2 holds. ``calibrate_time_coefficient``
recovers the factor 4 on the time term directly from the stencil.

Space is periodic (j wraps mod Nx); time is open. The residual evaluator
returns interior time slices only: output row i is input time i+1.

Stepping is implicit: every term of the operator touches the n+1 slice,
and the spatial averaging couples its neighbors, so each step inverts a
symmetric tridiagonal circulant. That matrix is strictly diagonally
dominant, so its inverse kernel is known in closed form and decays
geometrically; the step applies the band of the kernel above 2^-60 of its
peak as a fixed-order sum, which keeps the update exactly
translation-equivariant and bit-for-bit deterministic. With m0 = 0 in
natural units the band is a single site and the march is explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularSystemError
from .grid import FieldSlab, GridSpec, Infinite, INFINITE, check_size
from .waves import WaveForm, WaveSpec, sample_wave


@dataclass(frozen=True)
class KGParams:
    """Mass and grid constants entering the lattice wave operator."""

    m0: float
    grid: GridSpec

    def __post_init__(self):
        if not (self.m0 >= 0 and math.isfinite(self.m0)):
            raise DomainError(f"m0 must be finite and >= 0, got {self.m0!r}")

    @property
    def mass_term(self) -> float:
        """mu^2 = (m0 c / hbar)^2."""
        return (self.m0 * self.grid.c / self.grid.hbar) ** 2


def _operator_coefficients(p: KGParams) -> tuple[float, float, float]:
    """(1/(c tau)^2, 1/eps^2, mu^2): the coefficients of L, for the residual and the march.

    When a square leaves the float range all three are inf; callers reject
    non-finite coefficients.
    """
    grid = p.grid
    try:
        return 1.0 / (grid.c * grid.tau) ** 2, 1.0 / grid.eps**2, p.mass_term
    except (OverflowError, ZeroDivisionError):
        return math.inf, math.inf, math.inf


def _constants_text(p: KGParams) -> str:
    grid = p.grid
    return f"m0={p.m0!r}, tau={grid.tau!r}, eps={grid.eps!r}, c={grid.c!r}, hbar={grid.hbar!r}"


def _second_diff_space(a: np.ndarray) -> np.ndarray:
    return np.roll(a, -1, axis=1) - 2.0 * a + np.roll(a, 1, axis=1)


def _second_avg_space(a: np.ndarray) -> np.ndarray:
    return (np.roll(a, -1, axis=1) + 2.0 * a + np.roll(a, 1, axis=1)) / 4.0


def _second_diff_time(a: np.ndarray) -> np.ndarray:
    return a[2:] - 2.0 * a[1:-1] + a[:-2]


def _second_avg_time(a: np.ndarray) -> np.ndarray:
    return (a[2:] + 2.0 * a[1:-1] + a[:-2]) / 4.0


def apply_kg_operator(f: FieldSlab, p: KGParams) -> FieldSlab:
    """Residual field L[psi] on interior time slices, periodic in space.

    Output shape is (Nt - 2, Nx); output row i corresponds to input time
    index i + 1.
    """
    psi = f.psi
    if psi.shape[0] < 3 or psi.shape[1] < 3:
        raise DomainError(f"operator needs extents >= 3 in both axes, got {psi.shape}")
    inv_ct2, inv_eps2, mu2 = coefficients = _operator_coefficients(p)
    if not all(map(math.isfinite, coefficients)):
        raise DomainError(f"the operator's coefficients leave the float range for {_constants_text(p)}")
    residual = (
        -inv_ct2 * _second_diff_time(_second_avg_space(psi))
        + inv_eps2 * _second_avg_time(_second_diff_space(psi))
        - mu2 * _second_avg_time(_second_avg_space(psi))
    )
    return FieldSlab(psi=residual, grid=p.grid)


def plane_wave_residual(spec: WaveSpec, p: KGParams, extent: tuple[int, int] = (16, 16)) -> float:
    """Max |L[psi]| over interior sites for a sampled plane-wave mode.

    Interior means time rows 1..Nt-2 and space columns 1..Nx-2: the wrap
    columns are excluded so the check is honest for modes that are not
    grid-periodic (every cayley mode, and exponential modes whose M does
    not divide Nx).
    """
    nt, nx = extent
    if nt < 8 or nx < 8:
        raise DomainError(f"plane-wave certification needs extent >= 8x8, got {extent}")
    slab = sample_wave(spec, nt, nx, grid=p.grid)
    residual = apply_kg_operator(slab, p)
    return float(np.max(np.abs(residual.psi[:, 1:-1])))


def calibrate_time_coefficient(N: int) -> float | Infinite:
    """Stencil ratio -(D2_n psi)/(A2_n psi) for a pure time mode of period N.

    Analytically equal to 4 tan^2(pi/N); this is the oracle fixing the
    coefficient of the tan^2 time term in the exponential dispersion
    relation. At N = 2 the second average annihilates the alternating
    mode and the ratio is reported as symbolic INFINITE.
    """
    if not (isinstance(N, int) and N >= 2):
        raise DomainError(f"N must be an integer >= 2, got {N!r}")
    spec = WaveSpec(form=WaveForm.EXPONENTIAL, N=N, M=INFINITE)
    # the operator's own time stencils at n = 4, from slices 3..5
    window = sample_wave(spec, 8, 1).psi[3:6, 0]
    num = -_second_diff_time(window)[0]
    den = _second_avg_time(window)[0]
    if den == 0.0:
        return INFINITE
    return float((num / den).real)


# --- implicit evolution --------------------------------------------------------


def _stencil_constants(p: KGParams) -> tuple[float, float, float, float]:
    """(off_A, diag_A, off_B, diag_B) for the n+1 and n slice operators.

    Collecting the psi[n+1] terms of L[psi] = 0 gives A = alpha A2_j +
    beta D2_j with alpha = -1/(c tau)^2 - mu^2/4, beta = 1/(4 eps^2); the
    psi[n] operator is B = 2 (g A2_j + beta D2_j) with g = 1/(c tau)^2 -
    mu^2/4, and the psi[n-1] operator equals A.
    """
    inv_ct2, inv_eps2, mu2 = _operator_coefficients(p)
    beta = inv_eps2 / 4.0
    alpha = -inv_ct2 - mu2 / 4.0
    g = inv_ct2 - mu2 / 4.0
    off_a = alpha / 4.0 + beta
    diag_a = alpha / 2.0 - 2.0 * beta
    off_b = g / 2.0 + 2.0 * beta
    diag_b = g - 4.0 * beta
    # checked before numpy sees them: constants that overflowed count as singular
    if not all(map(math.isfinite, (off_a, diag_a, off_b, diag_b))):
        raise SingularSystemError(f"implicit step constants leave the float range for {_constants_text(p)}")
    return off_a, diag_a, off_b, diag_b


def _apply_symmetric_circulant(off: float, diag: float, f: np.ndarray) -> np.ndarray:
    return off * (np.roll(f, -1) + np.roll(f, 1)) + diag * f


def _circulant_eigenvalues(off: float, diag: float, n: int) -> np.ndarray:
    q = np.arange(n)
    return diag + 2.0 * off * np.cos(2.0 * np.pi * q / n)


def _inverse_kernel(off: float, diag: float, n: int, p: KGParams) -> np.ndarray:
    """Band k[0..w] of the inverse of the circulant off*(S + S^-1) + diag.

    The inverse is the symmetric circulant with first column
    k[m] = c0 (r^m + r^(n-m)) / (1 - r^n), where r is the root of
    off r^2 + diag r + off = 0 inside the unit circle and c0 = r/(off (r^2 - 1)),
    which simplifies to sign(diag)/disc and so also holds at off = 0,
    where the kernel is [1/diag]. The step matrix is strictly
    diagonally dominant, so |r| < 1 and k decays geometrically; offsets
    with |k[m]| <= 2^-60 |k[0]| are dropped. When the band reaches n/2
    every offset is kept; for even n the entry at n/2 is halved, because
    ``_apply_kernel`` adds it for both neighbors f[j - n/2] = f[j + n/2].
    """
    eigs = _circulant_eigenvalues(off, diag, n)
    scale = abs(off) * 2.0 + abs(diag)
    # written so that a NaN from overflowing constants counts as singular
    if not float(np.min(np.abs(eigs))) > 1e-14 * max(scale, 1.0):
        raise SingularSystemError(f"implicit step matrix is singular for {_constants_text(p)}, Nx={n}")
    # diag^2 - 4 off^2 > 0 by dominance; factored so that it cannot overflow
    disc = math.sqrt(abs(diag - 2.0 * off)) * math.sqrt(abs(diag + 2.0 * off))
    # the root inside the unit circle, in the form that does not cancel
    r = -2.0 * off / (diag + math.copysign(disc, diag))
    m = np.arange(n // 2 + 1)
    kernel = math.copysign(1.0 / disc, diag) * (np.power(r, m) + np.power(r, n - m)) / (1.0 - r**n)
    # |k[m]| falls monotonically up to n/2, so the kept offsets are a prefix
    kernel = kernel[: np.count_nonzero(np.abs(kernel) > 2.0**-60 * abs(kernel[0]))]
    if 2 * (len(kernel) - 1) == n:
        kernel[-1] /= 2.0
    return kernel


def _apply_kernel(kernel: np.ndarray, f: np.ndarray) -> np.ndarray:
    """x[j] = k[0] f[j] + sum_m k[m] (f[j - m] + f[j + m]), m = 1..w, indices mod n.

    The sum runs in the same order at every site, which keeps the result
    exactly equivariant under cyclic shifts of f.
    """
    n, w = len(f), len(kernel) - 1
    padded = np.concatenate((f[n - w:], f, f[:w]))
    out = kernel[0] * f
    for m in range(1, w + 1):
        out += kernel[m] * (padded[w - m : w - m + n] + padded[w + m : w + m + n])
    return out


def evolve(initial: np.ndarray, steps: int, p: KGParams) -> FieldSlab:
    """March the lattice wave equation from two consecutive time slices.

    ``initial`` has shape (2, Nx); the returned slab has shape
    (steps + 2, Nx) and starts with the two given slices. Space is
    periodic; each step applies the banded inverse kernel of the
    constant-coefficient tridiagonal circulant to the right-hand side.
    A march that leaves the float range raises ``DomainError``.
    """
    initial = np.asarray(initial, dtype=np.complex128)
    if initial.ndim != 2 or initial.shape[0] != 2:
        raise DomainError(f"initial data must have shape (2, Nx), got {initial.shape}")
    if not np.all(np.isfinite(initial)):
        raise DomainError("initial data must be finite")
    nx = initial.shape[1]
    if nx < 3:
        raise DomainError("evolution needs Nx >= 3")
    if not (isinstance(steps, int) and steps >= 0):
        raise DomainError("steps must be a non-negative integer")
    check_size((steps + 2) * nx, "slab sites")
    off_a, diag_a, off_b, diag_b = _stencil_constants(p)
    kernel = _inverse_kernel(off_a, diag_a, nx, p)
    slab = np.empty((steps + 2, nx), dtype=np.complex128)
    slab[0] = initial[0]
    slab[1] = initial[1]
    # an overflow turns into inf/NaN and is caught once, after the march
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, steps + 1):
            rhs = -(
                _apply_symmetric_circulant(off_b, diag_b, slab[n])
                + _apply_symmetric_circulant(off_a, diag_a, slab[n - 1])
            )
            slab[n + 1] = _apply_kernel(kernel, rhs)
    if not np.all(np.isfinite(slab)):
        raise DomainError("the march overflowed the float range for these grid constants")
    return FieldSlab(psi=slab, grid=p.grid)
