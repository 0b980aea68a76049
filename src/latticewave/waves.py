"""Lattice plane waves and two-mode beats.

Two unimodular wave forms live on the integer lattice, both built from a
time period of N steps and a wavelength of M sites (M may be INFINITE for
a pure time mode):

  exponential   psi(n, j) = A exp{2 pi i (n/N - j/M)}
                exactly periodic: psi(n+N, j) = psi(n, j+M) = psi(n, j).

  cayley        psi(n, j) = A [(1+i pi/N)/(1-i pi/N)]^n [(1-i pi/M)/(1+i pi/M)]^j
                quasi-periodic: |psi| = |A| with phase exactly linear,
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
from .grid import FieldSlab, GridSpec, Infinite, INFINITE, MaybeInfinite, check_size


class WaveForm(Enum):
    EXPONENTIAL = "exponential"
    CAYLEY = "cayley"


@dataclass(frozen=True)
class WaveSpec:
    """A single lattice mode: form, period N, wavelength M, amplitude.

    M = INFINITE encodes a zero wavenumber (spatially constant mode).
    """

    form: WaveForm
    N: int
    M: MaybeInfinite
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not isinstance(self.form, WaveForm):
            raise DomainError(f"form must be a WaveForm, got {self.form!r}")
        if not (isinstance(self.N, int) and self.N >= 2):
            raise DomainError(f"N must be an integer >= 2, got {self.N!r}")
        if not isinstance(self.M, Infinite) and not (isinstance(self.M, int) and self.M >= 2):
            raise DomainError(f"M must be an integer >= 2 or INFINITE, got {self.M!r}")


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


_QUARTER_TURNS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _exponential_phase(spec: WaveSpec, n: int, j: int) -> tuple[int, int]:
    """The phase n/N - j/M as an exact fraction num/den of a turn, 0 <= num < den."""
    N = spec.N
    if isinstance(spec.M, Infinite):
        return n % N, N
    M = spec.M
    return (n * M - j * N) % (N * M), N * M


def _exponential_value(amplitude: complex, num: int, den: int) -> complex:
    if (4 * num) % den == 0:
        return amplitude * _QUARTER_TURNS[(4 * num) // den]
    return amplitude * cmath.rect(1.0, 2.0 * math.pi * (num / den))


def eval_exponential(spec: WaveSpec, n: int, j: int) -> complex:
    """A exp{2 pi i (n/N - j/M)} with the phase reduced in exact integers.

    The integer reduction makes periodicity bit-exact: equal phases modulo
    one full turn produce identical complex values, and quarter turns are
    the exact constants 1, i, -1, -i.
    """
    if spec.form is not WaveForm.EXPONENTIAL:
        raise DomainError("eval_exponential needs an exponential WaveSpec")
    return _exponential_value(spec.amplitude, *_exponential_phase(spec, n, j))


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
    base_t, base_x = _cayley_bases(spec)
    value = _unimodular_power(base_t, n)
    if base_x is not None:
        value *= _unimodular_power(base_x, j)
    return spec.amplitude * value


def eval_wave(spec: WaveSpec, n: int, j: int) -> complex:
    if spec.form is WaveForm.EXPONENTIAL:
        return eval_exponential(spec, n, j)
    return eval_cayley(spec, n, j)


def cayley_phase_increments(spec: WaveSpec) -> tuple[float, float]:
    """Exact phase advance per time step and per site: (2 atan(pi/N), -2 atan(pi/M))."""
    per_step = 2.0 * math.atan(math.pi / spec.N)
    per_site = 0.0 if isinstance(spec.M, Infinite) else -2.0 * math.atan(math.pi / spec.M)
    return per_step, per_site


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
                values[num] = _exponential_value(spec.amplitude, num, den)
            tile[n, j] = values[num]
    return tile[np.ix_(np.arange(nt) % tn, np.arange(nx) % tx)]


def _complex_product(a, b, c, d):
    """(a + ib)(c + id) in the operation order of Python's complex multiply.

    numpy's complex multiply may round differently in the last bit, so the
    vectorized sampler spells the product out to match eval_cayley exactly.
    """
    return a * c - b * d, a * d + b * c


def _cayley_slab(spec: WaveSpec, nt: int, nx: int) -> np.ndarray:
    # separable: psi[n, j] = A * (T[n] * X[j]) with the factors of eval_cayley
    base_t, base_x = _cayley_bases(spec)
    t = np.array([_unimodular_power(base_t, n) for n in range(nt)])[:, None]
    re, im = t.real, t.imag
    if base_x is not None:
        x = np.array([_unimodular_power(base_x, j) for j in range(nx)])[None, :]
        re, im = _complex_product(re, im, x.real, x.imag)
    amplitude = complex(spec.amplitude)
    psi = np.empty((nt, nx), dtype=np.complex128)
    psi.real, psi.imag = _complex_product(amplitude.real, amplitude.imag, re, im)
    return psi


def sample_wave(spec: WaveSpec, nt: int, nx: int, grid: GridSpec = GridSpec()) -> FieldSlab:
    """Evaluate a mode on an nt x nx slab, bit-identical to eval_wave at every site."""
    if nt < 1 or nx < 1:
        raise DomainError("slab extents must be positive")
    check_size(nt * nx, "slab sites")
    if spec.form is WaveForm.EXPONENTIAL:
        psi = _exponential_slab(spec, nt, nx)
    else:
        psi = _cayley_slab(spec, nt, nx)
    return FieldSlab(psi=psi, grid=grid)


def continuum_limit_error(form: WaveForm, N: int, M: MaybeInfinite, n: int, j: int) -> float:
    """|psi_form(n, j) - exp{2 pi i (n/N - j/M)}| for unit amplitude.

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
            if not (math.isfinite(value) and value != 0.0):
                raise DomainError(f"BeatSpec.{name} must be finite and nonzero, got {value!r}")
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


def _beat_phases(grid: GridSpec, nt: int, nx: int):
    check_size(nt * nx, "slab sites")
    t = np.arange(nt) * grid.tau
    x = np.arange(nx) * grid.eps
    return t[:, None], x[None, :]


def _require_envelope_coverage(b: BeatSpec, grid: GridSpec, nt: int, nx: int, periods: float) -> None:
    # envelope 2 cos(pi(t a - x b)) has full period 2/|a| in t, 2/|b| in x
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
    _require_envelope_coverage(b, grid, nt, nx, periods=2.0)
    t, x = _beat_phases(grid, nt, nx)
    psi = np.cos(2.0 * np.pi * (t / b.T1 - x / b.lam1)) + np.cos(2.0 * np.pi * (t / b.T2 - x / b.lam2))
    return FieldSlab(psi=psi.astype(np.complex128), grid=grid)


def beat_envelope(b: BeatSpec, grid: GridSpec, nt: int, nx: int) -> np.ndarray:
    """The slow factor 2 cos pi{t(1/T1 - 1/T2) - x(1/lam1 - 1/lam2)}."""
    t, x = _beat_phases(grid, nt, nx)
    return 2.0 * np.cos(np.pi * (t * b.freq_diff - x * b.wavenum_diff))


def beat_carrier(b: BeatSpec, grid: GridSpec, nt: int, nx: int) -> np.ndarray:
    """The fast factor cos pi{t(1/T1 + 1/T2) - x(1/lam1 + 1/lam2)}."""
    t, x = _beat_phases(grid, nt, nx)
    return np.cos(np.pi * (t * b.freq_sum - x * b.wavenum_sum))


def beat_product_form(b: BeatSpec, grid: GridSpec, nt: int, nx: int) -> FieldSlab:
    """The factored side of the beat identity: envelope times carrier."""
    psi = beat_envelope(b, grid, nt, nx) * beat_carrier(b, grid, nt, nx)
    return FieldSlab(psi=psi.astype(np.complex128), grid=grid)


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


def _refine_peak(row: np.ndarray, j: int) -> float:
    """Quadratic sub-site refinement of a discrete peak at interior index j."""
    ym, y0, yp = row[j - 1], row[j], row[j + 1]
    denom = ym - 2.0 * y0 + yp
    if denom == 0.0:
        return float(j)
    delta = 0.5 * (ym - yp) / denom
    return j + float(np.clip(delta, -0.5, 0.5))


def _coarse_envelope_sq(psi: np.ndarray, window: int) -> np.ndarray:
    """Per-slice circular moving average of |psi|^2 over one carrier period."""
    power = np.abs(psi) ** 2
    kernel = np.ones(window) / window
    nt, nx = power.shape
    out = np.empty_like(power)
    for n in range(nt):
        padded = np.concatenate([power[n], power[n][: window - 1]])
        smoothed = np.convolve(padded, kernel, mode="valid")
        # center the window on each site
        out[n] = np.roll(smoothed, window // 2)
    return out


def _crest_spacing_sites(env_sq_row: np.ndarray) -> float:
    """Dominant spatial period of the squared envelope via circular autocorrelation."""
    centered = env_sq_row - env_sq_row.mean()
    nx = len(centered)
    spectrum = np.abs(np.fft.rfft(centered)) ** 2
    spectrum[0] = 0.0
    mode = int(np.argmax(spectrum))
    if mode == 0:
        raise MeasurementError("envelope is flat; no crest spacing to resolve")
    return nx / mode


def measure_group_velocity(
    field: FieldSlab,
    beat: BeatSpec | None = None,
    carrier_window: int | None = None,
) -> float:
    """Track the envelope crest across time slices; return its fitted velocity.

    With ``beat`` given, the analytically known slow factor supplies the
    envelope; otherwise |psi|^2 is coarse-grained over ``carrier_window``
    sites (one fast period). Crest positions are refined by quadratic
    interpolation around the discrete argmax, followed from slice to slice
    by nearest-candidate continuity, unwrapped, and fitted against time by
    least squares.
    """
    nt, nx = field.nt, field.nx
    grid = field.grid
    if nt < 4:
        raise DomainError("group-velocity measurement needs at least 4 time slices")
    if beat is not None:
        if beat.wavenum_diff == 0.0:
            raise MeasurementError(
                "envelope has no spatial structure (equal mode wavenumbers); nothing to track"
            )
        env_sq = beat_envelope(beat, grid, nt, nx) ** 2
        crest_sites = (2.0 / abs(beat.wavenum_diff)) / grid.eps / 2.0
        if nx * grid.eps < 3.0 * (2.0 / abs(beat.wavenum_diff)):
            raise DomainError("fewer than 3 envelope periods resolved across the slab")
    else:
        if carrier_window is None or carrier_window < 1:
            raise DomainError("coarse-grained tracking needs carrier_window >= 1 (sites per fast period)")
        env_sq = _coarse_envelope_sq(field.psi, carrier_window)
        contrast = env_sq.max() - env_sq.min()
        if contrast <= 1e-9 * max(env_sq.max(), 1e-300):
            raise MeasurementError("envelope is flat; group velocity is not measurable")
        crest_sites = _crest_spacing_sites(env_sq[0])

    # The slab is not periodic in general (the envelope period need not
    # divide the extent), so tracking stays away from the edges: start on
    # a crest near the center and, when the followed crest drifts toward
    # an edge, hop to the equivalent crest one exact spacing away. Crest
    # positions form an exact arithmetic lattice with spacing
    # 2 * crest_sites, so the hop keeps the unwrapped positions on the
    # same straight line.
    period_sites = 2.0 * crest_sites
    radius = max(2, int(round(crest_sites / 2.0)))
    margin = radius + 2
    if nx < 2 * margin + 3:
        raise DomainError("slab too narrow to track the envelope away from its edges")

    def measure_slice(row: np.ndarray, predicted: float) -> float:
        """Refined crest position near the prediction, re-centered if needed."""
        hops = round((predicted - nx / 2.0) / period_sites)
        local = predicted - hops * period_sites
        center = int(round(local))
        lo = max(1, center - radius)
        hi = min(nx - 2, center + radius)
        j_best = lo + int(np.argmax(row[lo : hi + 1]))
        return _refine_peak(row, j_best) + hops * period_sites

    lo0, hi0 = nx // 4, max(nx // 4 + 1, (3 * nx) // 4)
    start = lo0 + int(np.argmax(env_sq[0][lo0:hi0]))
    positions = np.empty(nt)
    positions[0] = _refine_peak(env_sq[0], min(max(start, 1), nx - 2))
    velocity_guess = 0.0
    for n in range(1, nt):
        predicted = positions[n - 1] + velocity_guess
        positions[n] = measure_slice(env_sq[n], predicted)
        velocity_guess = positions[n] - positions[n - 1]

    times = np.arange(nt) * grid.tau
    slope = np.polyfit(times, positions * grid.eps, 1)[0]
    return float(slope)
