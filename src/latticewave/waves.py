"""Lattice plane waves and two-mode beats.

Two unimodular wave forms live on the integer lattice, both built from a
time period of N steps and a wavelength of M sites (M may be INFINITE for
a pure time mode):

  exponential   psi(n, j) = exp{2 pi i (n/N - j/M)}
                exactly periodic: psi(n+N, j) = psi(n, j+M) = psi(n, j).

  cayley        psi(n, j) = [(1+i pi/N)/(1-i pi/N)]^n [(1-i pi/M)/(1+i pi/M)]^j
                quasi-periodic: |psi| = 1 with phase exactly linear,
                2 atan(pi/N) per time step and -2 atan(pi/M) per site.

Angular frequency and wavenumber are w = 2 pi/(N tau), k = 2 pi/(M eps).
The beat of two modes uses the real cosine superposition exactly as the
trigonometric product identity wants it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, MeasurementError
from .grid import (FieldSlab, GridSpec, Infinite, INFINITE, MaybeInfinite, check_extent, check_mode, check_size,
                   is_integer)


class WaveForm(Enum):
    EXPONENTIAL = "exponential"
    CAYLEY = "cayley"


@dataclass(frozen=True)
class WaveSpec:
    """A single lattice mode: form, period N, wavelength M.

    M = INFINITE encodes a zero wavenumber (spatially constant mode).
    """

    form: WaveForm
    N: int
    M: MaybeInfinite

    def __post_init__(self):
        if not isinstance(self.form, WaveForm):
            raise DomainError(f"form must be a WaveForm, got {self.form!r}")
        check_mode(self.N, self.M)


def _unimodular_power(z: complex, exponent: int) -> complex:
    """z**exponent by repeated squaring for |z| = 1.

    The base is renormalized to the unit circle after every squaring:
    squaring doubles any modulus error, so a lazier policy would let the
    error grow exponentially with the squaring count. The accumulated
    result drifts only linearly and is renormalized every 64
    multiplications. Negative exponents use the conjugate (the exact
    inverse on the circle).
    """
    if exponent < 0:
        z = z.conjugate()
        exponent = -exponent
    result = 1.0 + 0.0j
    base = z
    mults = 0
    while exponent:
        if exponent & 1:
            result *= base
            mults += 1
            if mults % 64 == 0:
                result /= abs(result)
        exponent >>= 1
        if exponent:
            base *= base
            base /= abs(base)
    return result


# -i as complex(0.0, -1.0): the literal -1.0j is -(1.0j), whose real part is -0.0
_QUARTER_TURNS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, complex(0.0, -1.0))


def _exponential_phase(spec: WaveSpec, n: int, j: int) -> tuple[int, int]:
    """The phase n/N - j/M as an exact fraction num/den of a turn, 0 <= num < den."""
    N = spec.N
    if isinstance(spec.M, Infinite):
        return n % N, N
    M = spec.M
    return (n * M - j * N) % (N * M), N * M


def _exponential_value(num: int, den: int) -> complex:
    if (4 * num) % den == 0:
        return _QUARTER_TURNS[(4 * num) // den]
    return cmath.rect(1.0, 2.0 * math.pi * (num / den))


def _check_site(n: int, j: int) -> None:
    if not (is_integer(n) and is_integer(j)):
        raise DomainError(f"site indices must be integers, got n={n!r}, j={j!r}")


def eval_exponential(spec: WaveSpec, n: int, j: int) -> complex:
    """exp{2 pi i (n/N - j/M)} with the phase reduced in exact integers.

    The integer reduction makes periodicity bit-exact: equal phases modulo
    one full turn produce identical complex values, and quarter turns are
    the exact constants 1, i, -1, -i.
    """
    if spec.form is not WaveForm.EXPONENTIAL:
        raise DomainError("eval_exponential needs an exponential WaveSpec")
    _check_site(n, j)
    return _exponential_value(*_exponential_phase(spec, n, j))


def _cayley_bases(spec: WaveSpec) -> tuple[complex, complex | None]:
    """The per-step and per-site factors; no per-site factor for M = INFINITE."""
    theta_t = math.pi / spec.N
    base_t = (1.0 + 1j * theta_t) / (1.0 - 1j * theta_t)
    if isinstance(spec.M, Infinite):
        return base_t, None
    theta_x = math.pi / spec.M
    return base_t, (1.0 - 1j * theta_x) / (1.0 + 1j * theta_x)


def eval_cayley(spec: WaveSpec, n: int, j: int) -> complex:
    """The quasi-periodic Cayley-transform wave, by renormalized powering."""
    if spec.form is not WaveForm.CAYLEY:
        raise DomainError("eval_cayley needs a cayley WaveSpec")
    _check_site(n, j)
    base_t, base_x = _cayley_bases(spec)
    value = _unimodular_power(base_t, n)
    if base_x is not None:
        value *= _unimodular_power(base_x, j)
    return value


def eval_wave(spec: WaveSpec, n: int, j: int) -> complex:
    if spec.form is WaveForm.EXPONENTIAL:
        return eval_exponential(spec, n, j)
    return eval_cayley(spec, n, j)


def _exponential_slab(spec: WaveSpec, nt: int, nx: int) -> np.ndarray:
    # the value at (n, j) depends only on (n mod N, j mod M), and within that
    # tile only on the phase residue: evaluate each residue once, then gather
    tn = min(nt, spec.N)
    tx = 1 if isinstance(spec.M, Infinite) else min(nx, spec.M)
    values: dict[int, complex] = {}
    tile = np.empty((tn, tx), dtype=np.complex128)
    for n in range(tn):
        for j in range(tx):
            num, den = _exponential_phase(spec, n, j)
            if num not in values:
                values[num] = _exponential_value(num, den)
            tile[n, j] = values[num]
    return tile[np.ix_(np.arange(nt) % tn, np.arange(nx) % tx)]


def _complex_product(a, b, c, d):
    """(a + ib)(c + id) in the operation order of Python's complex multiply.

    numpy's complex multiply may round differently in the last bit, so the
    vectorized sampler spells the product out to match eval_cayley exactly.
    """
    return a * c - b * d, a * d + b * c


def _cayley_slab(spec: WaveSpec, nt: int, nx: int) -> np.ndarray:
    # separable: psi[n, j] = T[n] * X[j] with the factors of eval_cayley
    base_t, base_x = _cayley_bases(spec)
    t = np.array([_unimodular_power(base_t, n) for n in range(nt)])[:, None]
    re, im = t.real, t.imag
    if base_x is not None:
        x = np.array([_unimodular_power(base_x, j) for j in range(nx)])[None, :]
        re, im = _complex_product(re, im, x.real, x.imag)
    psi = np.empty((nt, nx), dtype=np.complex128)
    psi.real, psi.imag = re, im
    return psi


def sample_wave(spec: WaveSpec, nt: int, nx: int) -> FieldSlab:
    """Evaluate a mode on an nt x nx slab, bit-identical to eval_wave at every site."""
    check_extent((nt, nx))
    check_size(nt * nx, "slab sites")
    if spec.form is WaveForm.EXPONENTIAL:
        psi = _exponential_slab(spec, nt, nx)
    else:
        psi = _cayley_slab(spec, nt, nx)
    return FieldSlab(psi=psi)


def continuum_limit_error(form: WaveForm, N: int, M: MaybeInfinite, n: int, j: int) -> float:
    """|psi_form(n, j) - exp{2 pi i (n/N - j/M)}|.

    Zero identically for the exponential form. For the cayley form the
    phase mismatch is n*(2 atan(pi/N) - 2 pi/N) minus the analogous j
    term, i.e. O(n/N^3 + j/M^3): second order per unit n/N.
    """
    spec = WaveSpec(form=form, N=N, M=M)
    reference = eval_exponential(WaveSpec(form=WaveForm.EXPONENTIAL, N=N, M=M), n, j)
    return abs(eval_wave(spec, n, j) - reference)


# --- two-mode beats ----------------------------------------------------------


@dataclass(frozen=True)
class BeatSpec:
    """Two superposed cosine modes with periods T1, T2 and wavelengths lam1, lam2.

    Signs encode propagation direction; every entry must be nonzero.
    """

    T1: float
    T2: float
    lam1: float
    lam2: float

    def __post_init__(self):
        for name in ("T1", "T2", "lam1", "lam2"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not (math.isfinite(value) and value != 0.0):
                raise DomainError(f"BeatSpec.{name} must be a finite nonzero number, got {value!r}")
        for name in ("freq_diff", "freq_sum", "wavenum_diff", "wavenum_sum"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"BeatSpec.{name} leaves the float range for {self}")

    @property
    def freq_diff(self) -> float:
        return 1.0 / self.T1 - 1.0 / self.T2

    @property
    def freq_sum(self) -> float:
        return 1.0 / self.T1 + 1.0 / self.T2

    @property
    def wavenum_diff(self) -> float:
        return 1.0 / self.lam1 - 1.0 / self.lam2

    @property
    def wavenum_sum(self) -> float:
        return 1.0 / self.lam1 + 1.0 / self.lam2


def _beat_phases(b: BeatSpec, grid: GridSpec, nt: int, nx: int):
    check_extent((nt, nx))
    check_size(nt * nx, "slab sites")
    # every mode, envelope and carrier phase is at most 2 pi * cycles; 4 pi * cycles leaves a margin for rounding
    cycles = (nt - 1) * grid.tau / min(abs(b.T1), abs(b.T2)) + (nx - 1) * grid.eps / min(abs(b.lam1), abs(b.lam2))
    if not math.isfinite(4.0 * math.pi * cycles):
        raise DomainError(f"beat phases over a {nt}x{nx} slab leave the float range for {b} on {grid}")
    t = np.arange(nt) * grid.tau
    x = np.arange(nx) * grid.eps
    return t[:, None], x[None, :]


def _require_envelope_coverage(b: BeatSpec, grid: GridSpec, nt: int, nx: int) -> None:
    # envelope 2 cos(pi(t a - x b)) has full period 2/|a| in t, 2/|b| in x; two of them must fit
    periods = 2.0
    a, bk = b.freq_diff, b.wavenum_diff
    if a != 0.0 and nt * grid.tau < periods * 2.0 / abs(a):
        raise DomainError(
            f"time extent {nt * grid.tau} covers fewer than {periods} envelope periods ({2.0 / abs(a)} each)"
        )
    if bk != 0.0 and nx * grid.eps < periods * 2.0 / abs(bk):
        raise DomainError(
            f"space extent {nx * grid.eps} covers fewer than {periods} envelope periods ({2.0 / abs(bk)} each)"
        )


def beat_field(b: BeatSpec, grid: GridSpec, nt: int, nx: int) -> FieldSlab:
    """cos 2pi(t/T1 - x/lam1) + cos 2pi(t/T2 - x/lam2) on an nt x nx slab.

    Real-valued by construction (stored in the complex slab); equals the
    product of the slow and fast cosine factors at every site.
    """
    _require_envelope_coverage(b, grid, nt, nx)
    t, x = _beat_phases(b, grid, nt, nx)
    psi = np.cos(2.0 * np.pi * (t / b.T1 - x / b.lam1)) + np.cos(2.0 * np.pi * (t / b.T2 - x / b.lam2))
    return FieldSlab(psi=psi.astype(np.complex128))


def _envelope(ta: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """The slow factor 2 cos pi(ta - xb), from ta = t(1/T1 - 1/T2) and xb = x(1/lam1 - 1/lam2)."""
    return 2.0 * np.cos(np.pi * (ta - xb))


def beat_envelope(b: BeatSpec, grid: GridSpec, nt: int, nx: int) -> np.ndarray:
    """The slow factor 2 cos pi{t(1/T1 - 1/T2) - x(1/lam1 - 1/lam2)}."""
    t, x = _beat_phases(b, grid, nt, nx)
    return _envelope(t * b.freq_diff, x * b.wavenum_diff)


def beat_carrier(b: BeatSpec, grid: GridSpec, nt: int, nx: int) -> np.ndarray:
    """The fast factor cos pi{t(1/T1 + 1/T2) - x(1/lam1 + 1/lam2)}."""
    t, x = _beat_phases(b, grid, nt, nx)
    return np.cos(np.pi * (t * b.freq_sum - x * b.wavenum_sum))


def beat_product_form(b: BeatSpec, grid: GridSpec, nt: int, nx: int) -> FieldSlab:
    """The factored side of the beat identity: envelope times carrier."""
    psi = beat_envelope(b, grid, nt, nx) * beat_carrier(b, grid, nt, nx)
    return FieldSlab(psi=psi.astype(np.complex128))


def beat_phase_velocity(b: BeatSpec) -> float:
    """(1/T1 + 1/T2)/(1/lam1 + 1/lam2): average frequency over average wavenumber."""
    if b.wavenum_sum == 0.0:
        raise DomainError("phase velocity undefined: wavenumber sum vanishes")
    return b.freq_sum / b.wavenum_sum


def beat_group_velocity(b: BeatSpec) -> float:
    """(1/T1 - 1/T2)/(1/lam1 - 1/lam2): frequency difference over wavenumber difference."""
    if b.wavenum_diff == 0.0:
        raise DomainError("group velocity undefined: the two modes share a wavenumber")
    return b.freq_diff / b.wavenum_diff


def beat_velocities(b: BeatSpec) -> tuple[float, float]:
    return beat_phase_velocity(b), beat_group_velocity(b)


# --- envelope tracking --------------------------------------------------------


def _refine_peak(row: list[float], k: int, lo: int) -> float:
    """Quadratic sub-site refinement of a discrete peak at interior index k of ``row``,
    which holds the slab's sites from ``lo`` on: the site ``lo + k`` plus its sub-site offset."""
    ym, y0, yp = row[k - 1], row[k], row[k + 1]
    denom = ym - 2.0 * y0 + yp
    if denom == 0.0:
        return float(lo + k)
    delta = 0.5 * (ym - yp) / denom
    return (lo + k) + float(min(max(delta, -0.5), 0.5))


def measure_beat_velocity(b: BeatSpec, grid: GridSpec, nt: int, nx: int) -> float:
    """The envelope-tracked group velocity of ``b`` on an nt x nx slab of ``grid``.

    Refuses what ``beat_field`` refuses, with its errors in its order, but
    samples no field: the analytically known slow factor supplies the
    envelope, evaluated only at the sites the tracker reads. A slab that
    aliases it (crests under 2 sites apart, or a crest moving half the crest
    spacing or more per step) is a MeasurementError.
    """
    _require_envelope_coverage(b, grid, nt, nx)
    t, x = _beat_phases(b, grid, nt, nx)
    if nt < 4:
        raise DomainError("group-velocity measurement needs at least 4 time slices")
    if b.wavenum_diff == 0.0:
        raise MeasurementError(
            "envelope has no spatial structure (equal mode wavenumbers); nothing to track"
        )
    crest_sites = (2.0 / abs(b.wavenum_diff)) / grid.eps / 2.0
    if nx * grid.eps < 3.0 * (2.0 / abs(b.wavenum_diff)):
        raise DomainError("fewer than 3 envelope periods resolved across the slab")
    # a slab coarser than the envelope aliases it: the tracked crests are not the envelope's
    if crest_sites < 2.0:
        raise MeasurementError(
            f"envelope crests {crest_sites!r} sites apart are under-resolved; at least 2 sites are needed"
        )
    step_sites = abs(beat_group_velocity(b)) * grid.tau / grid.eps
    if step_sites >= crest_sites / 2.0:
        raise MeasurementError(
            f"envelope crest moves {step_sites!r} sites per step, at least half its "
            f"{crest_sites!r}-site spacing; its motion is aliased"
        )
    # beat_envelope(...) ** 2, evaluated at the sites the tracker reads
    ta, xb = t[:, 0] * b.freq_diff, x[0] * b.wavenum_diff
    return _track_crests(lambda n, lo, hi: _envelope(ta[n], xb[lo:hi]) ** 2, len(ta), len(xb), crest_sites, grid)


def _track_crests(env_sq, nt: int, nx: int, crest_sites: float, grid: GridSpec) -> float:
    """The fitted velocity of a crest of an nt x nx squared envelope, crests ``crest_sites`` apart.

    ``env_sq(n, lo, hi)`` returns the squared envelope of slice n at sites
    lo..hi-1; the tracker reads the middle half of slice 0 and, in every
    later slice, a window of 2 * radius + 3 sites around the predicted crest.

    Crest positions are refined by quadratic interpolation around the
    discrete argmax, followed from slice to slice by nearest-candidate
    continuity, and fitted against the step index by least squares.
    """
    # The slab is not periodic in general (the envelope period need not
    # divide the extent), so tracking stays away from the edges: start on
    # a crest near the center and, when the followed crest drifts toward
    # an edge, hop to the equivalent crest one exact spacing away. Crest
    # positions form an exact arithmetic lattice with spacing
    # 2 * crest_sites, so the hop keeps the unwrapped positions on the
    # same straight line.
    period_sites = 2.0 * crest_sites
    radius = max(2, int(round(crest_sites / 2.0)))

    def measure_slice(n: int, predicted: float) -> float:
        """Refined crest position near the prediction, re-centered if needed."""
        hops = round((predicted - nx / 2.0) / period_sites)
        local = predicted - hops * period_sites
        center = int(round(local))
        lo = max(1, center - radius)
        hi = min(nx - 2, center + radius)
        # the candidates lo..hi and the neighbour on each side that the refinement reads
        window = env_sq(n, lo - 1, hi + 2)
        k = 1 + int(window[1 : hi - lo + 2].argmax())
        return _refine_peak(window.tolist(), k, lo - 1) + hops * period_sites

    # measure_beat_velocity requires nx >= 6 crest_sites >= 12, so 2 <= lo0 and hi0 <= nx - 2:
    # the start needs no clamp
    lo0, hi0 = nx // 4, max(nx // 4 + 1, (3 * nx) // 4)
    row = env_sq(0, lo0 - 1, hi0 + 1)
    # Python floats: the same IEEE double arithmetic as numpy's float64 scalars, at less cost per operation
    positions = [_refine_peak(row.tolist(), 1 + int(row[1:-1].argmax()), lo0 - 1)]
    velocity_guess = 0.0
    for n in range(1, nt):
        positions.append(measure_slice(n, positions[-1] + velocity_guess))
        velocity_guess = positions[-1] - positions[-2]

    # fit in sites per step, then scale: fitting in physical units squares
    # abscissae like n * tau inside polyfit, which overflows for large tau
    velocity = float(np.polyfit(np.arange(nt), positions, 1)[0]) * grid.eps / grid.tau
    if not math.isfinite(velocity):
        raise DomainError(
            f"group velocity {velocity!r} leaves the float range at eps = {grid.eps!r}, tau = {grid.tau!r}"
        )
    return velocity
