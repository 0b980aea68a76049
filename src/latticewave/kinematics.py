"""Relativistic kinematics of plane waves and particles, continuum and lattice.

A plane wave (w, k) and a particle state (E, p) are boosted by stacking
them into the arrays (w/c, k) and (E/c, p) and applying the same
metric-preserving boost matrix, which is the implementation. The printed
scalar transform laws (first lines of the textbook formulas) and the
printed magnitude formulas are provided separately as cross-checks, not
as the transform.

The lattice side: a particle advancing dn time steps and dj space steps
between consecutive events has

    E = m0 c^2 (c dt) / sqrt((c dt)^2 - |dx|^2),
    p = m0 c  dx     / sqrt((c dt)^2 - |dx|^2),

with dt = dn*tau, dx = dj*eps, so p c^2 / E = dx/dt = u holds exactly in
rational arithmetic whenever the inputs do.

The boosts, the printed scalar transforms and the continuum states also
take stacks: E, w, m0 of shape (...) and 3-vectors of shape (..., 3). One
state is the shape-() case, and each row of a stack gets the bits of its
one-row call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import DomainError
from .grid import GridSpec, Infinite, INFINITE


def _vec3(v: Sequence[float]) -> np.ndarray:
    """One 3-vector, shape (3,), or a stack of them, shape (..., 3)."""
    a = np.asarray(v, dtype=float)
    if a.shape[-1:] != (3,):
        raise DomainError(f"expected a 3-vector or a stack of them, got shape {a.shape}")
    return a


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b row by row; stacked @ gives the bits of the 1-D a @ b on every row."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _square(x):
    """x**2 by libm pow, as Python's ** takes it, for a float and a stack alike.

    numpy's ** on an array is x*x, which differs in the last bit for about one value in a thousand.
    """
    return np.float_power(np.asarray(x, dtype=float), 2)


def boost_matrix(v: Sequence[float], c: float) -> np.ndarray:
    """Boost to a frame moving with velocity v; acts on (q0, q1, q2, q3).

    Satisfies L^T eta L = eta. Requires |v| < c.
    """
    v = _vec3(v)
    if c <= 0:
        raise DomainError("c must be positive")
    beta = v / c
    b2 = _dot(beta, beta)
    if np.any(b2 >= 1.0):
        raise DomainError(f"boost velocity |v| = {float(np.sqrt(np.nanmax(b2)) * c)!r} must be < c = {c!r}")
    g = 1.0 / np.sqrt(1.0 - b2)
    L = np.empty(b2.shape + (4, 4))
    L[..., 0, 0] = g
    L[..., 0, 1:] = L[..., 1:, 0] = -g[..., None] * beta
    with np.errstate(divide="ignore", invalid="ignore"):
        spatial = ((g - 1.0) / b2)[..., None, None] * (beta[..., :, None] * beta[..., None, :])
    L[..., 1:, 1:] = np.eye(3) + np.where((b2 > 0.0)[..., None, None], spatial, 0.0)
    return L


def phase_velocity(w: float, k: Sequence[float]) -> Union[float, Infinite]:
    """w/|k| for one wave; INFINITE for a zero wavenumber (rest-frame wave)."""
    k = _vec3(k)
    k_mag = float(np.sqrt(_dot(k, k)))
    if k_mag == 0.0:
        return INFINITE
    return w / k_mag


def transform_wave(w: float, k: Sequence[float], v: Sequence[float], c: float) -> tuple[float, np.ndarray]:
    """Boost a plane wave (w, k) via the four-vector (w/c, k)."""
    q = np.concatenate((np.expand_dims(np.divide(w, c), -1), _vec3(k)), axis=-1)
    qp = (boost_matrix(v, c) @ q[..., None])[..., 0]
    return qp[..., 0] * c, qp[..., 1:]


def _gamma(v: np.ndarray, c: float) -> np.ndarray:
    """1/sqrt(1 - |v|^2/c^2) for the printed scalar laws, which do not use boost_matrix."""
    b2 = _dot(v, v) / c**2
    if np.any(b2 >= 1.0):
        raise DomainError("boost velocity must satisfy |v| < c")
    return 1.0 / np.sqrt(1.0 - b2)


def transform_wave_scalar(w: float, k: Sequence[float], v: Sequence[float], c: float) -> float:
    """The printed scalar frequency transform w' = gamma w (1 - v.n / v_phi).

    Needs a finite phase velocity: a zero wavenumber with w != 0 is a
    domain error here (the four-vector route handles it fine).
    """
    k = _vec3(k)
    k_mag = np.sqrt(_dot(k, k))
    if np.any((k_mag == 0.0) & (np.asarray(w) != 0.0)):
        raise DomainError("scalar frequency transform needs finite v_phi; k = 0 with w != 0")
    v = _vec3(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        wp = _gamma(v, c) * w * (1.0 - _dot(v, k / k_mag[..., None]) / (w / k_mag))
    return np.where(k_mag == 0.0, 0.0, wp)[()]


def printed_wave_number_magnitude(w: float, k: Sequence[float], v: Sequence[float], c: float) -> float:
    """The printed closed-form |k'| expression, evaluated verbatim.

    Reproduces the boost result for v parallel or perpendicular to k; kept
    as a recorded cross-check because the general oblique case is suspect
    in print.
    """
    k = _vec3(k)
    v = _vec3(v)
    k_mag = float(np.linalg.norm(k))
    if k_mag == 0.0:
        raise DomainError("printed wave-number magnitude needs k != 0")
    vphi = w / k_mag
    n = k / k_mag
    v2 = float(v @ v)
    vn = float(v @ n)
    if v2 >= c**2:
        raise DomainError("boost velocity must satisfy |v| < c")
    inner = 1.0 - v2 / c**2 + v2 * vphi**2 / c**4 + vn**2 / c**2 - 2.0 * vn * vphi / c**2
    return k_mag * math.sqrt(inner) / math.sqrt(1.0 - v2 / c**2)


@dataclass
class ParticleState:
    """On-shell kinematic state (E, p, m0, u) with u = p c^2 / E; a stack of them, or one."""

    E: float
    p: np.ndarray
    m0: float
    u: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.p = _vec3(self.p)
        if self.u is None:
            raise DomainError("ParticleState.u is required; use from_momentum to derive it")
        self.u = _vec3(self.u)

    @classmethod
    def from_momentum(cls, p: Sequence[float], m0: float, c: float) -> "ParticleState":
        if np.any(m0 < 0):
            raise DomainError("rest mass must be >= 0")
        p = _vec3(p)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                E = np.sqrt(_dot(p, p) * c**2 + _square(m0) * c**4)
        except OverflowError:
            E = math.inf
        if not np.all(np.isfinite(E)):
            raise DomainError(f"E^2 = |p|^2 c^2 + m0^2 c^4 leaves the float range for m0 = {m0!r}, c = {c!r}")
        if np.any(E == 0.0):
            raise DomainError("massless state needs nonzero momentum")
        return cls(E=E, p=p, m0=m0, u=p * c**2 / np.expand_dims(E, -1))

    @classmethod
    def at_rest(cls, m0: float, c: float) -> "ParticleState":
        if m0 <= 0:
            raise DomainError("a rest state needs m0 > 0")
        return cls(E=m0 * c**2, p=np.zeros(3), m0=m0, u=np.zeros(3))

    def momentum_magnitude(self) -> float:
        return float(np.sqrt(_dot(self.p, self.p)))  # one state only: float() rejects a stack

    def speed(self) -> float:
        return float(np.sqrt(_dot(self.u, self.u)))

    def mass_shell_residual(self, c: float) -> float:
        """Relative residual of E^2 - |p|^2 c^2 = m0^2 c^4."""
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                e2, p2c2, rhs = _square(self.E), _dot(self.p, self.p) * c**2, _square(self.m0) * c**4
            except OverflowError:
                e2 = rhs = math.inf
            if not np.isfinite(np.maximum(e2, rhs)).all():
                raise DomainError(f"E^2 or m0^2 c^4 leaves the float range for {self} at c = {c!r}")
            scale = e2 + p2c2 + rhs  # three squares, so no abs() is needed
            return abs(e2 - p2c2 - rhs) / np.where(scale > 0, scale, 1.0)

    def validate(self, c: float, rtol: float = 1e-10) -> None:
        if np.any(self.m0 < 0):
            raise DomainError("rest mass must be >= 0")
        if np.any(self.E <= 0):
            raise DomainError("energy must be positive")
        residual = self.mass_shell_residual(c)
        if not np.all(residual <= rtol):  # a NaN residual (|p|^2 past the float range) is off shell too
            raise DomainError(f"state off mass shell: relative residual {np.max(residual):.3e} > {rtol:.1e}")
        speed = np.sqrt(_dot(self.u, self.u))
        expected_u = self.p * c**2 / np.expand_dims(self.E, -1)
        if np.any(np.max(np.abs(self.u - expected_u), axis=-1) > rtol * np.fmax(c, speed)):
            raise DomainError("velocity inconsistent with p c^2 / E")
        if np.any((self.m0 > 0) & (speed >= c * (1 + rtol))):
            raise DomainError("massive state must move slower than light")


def transform_particle(s: ParticleState, v: Sequence[float], c: float) -> ParticleState:
    """Boost a particle state via the four-vector (E/c, p); mass shell is preserved."""
    s.validate(c)
    E_new, p_new = transform_wave(s.E, s.p, v, c)
    if np.any(E_new <= 0):
        raise DomainError("boost produced non-positive energy; input state was invalid")
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(E_new * E_new)):
            raise DomainError("boosted energy squared leaves the float range")
    return ParticleState(E=E_new, p=p_new, m0=s.m0, u=p_new * c**2 / np.expand_dims(E_new, -1))


def transform_particle_scalar(s: ParticleState, v: Sequence[float], c: float) -> float:
    """The printed scalar energy transform E' = gamma E (1 - v.u / c^2)."""
    v = _vec3(v)
    return _gamma(v, c) * s.E * (1.0 - _dot(v, s.u) / c**2)


def printed_momentum_magnitude(s: ParticleState, v: Sequence[float], c: float) -> float:
    """The printed closed-form |p'| expression, evaluated verbatim (u != 0).

    Matches the boost result for v parallel or perpendicular to p; recorded,
    not trusted, for oblique configurations.
    """
    v = _vec3(v)
    p_mag = s.momentum_magnitude()
    u_mag = s.speed()
    if u_mag == 0.0:
        raise DomainError("printed momentum magnitude needs a moving state (u != 0)")
    v2 = float(v @ v)
    if v2 >= c**2:
        raise DomainError("boost velocity must satisfy |v| < c")
    vp = float(v @ s.p)
    inner = (
        p_mag**2 * (1.0 - v2 / c**2)
        + p_mag**2 * v2 / u_mag**2
        + vp**2 / c**2
        - 2.0 * p_mag * vp / u_mag
    )
    return math.sqrt(inner) / math.sqrt(1.0 - v2 / c**2)


def debroglie_map(s: ParticleState, hbar: float) -> tuple[float, np.ndarray]:
    """The wave associated to a particle: w = E/hbar, k = p/hbar."""
    if hbar <= 0:
        raise DomainError("hbar must be positive")
    return s.E / hbar, s.p / hbar


# --- lattice steps -----------------------------------------------------------


@dataclass(frozen=True)
class LatticeStep:
    """Integer displacement between consecutive lattice events."""

    dn: int
    dj: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        if not (_is_integer(self.dn) and self.dn >= 1):
            raise DomainError(f"dn must be a positive integer, got {self.dn!r}")
        if len(self.dj) != 3 or not all(_is_integer(d) for d in self.dj):
            raise DomainError(f"dj must be three integers, got {self.dj!r}")
        object.__setattr__(self, "dj", tuple(self.dj))


def _is_integer(value) -> bool:
    """An int, never a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _mass_ratio(m0, what: str) -> tuple[int, int]:
    """m0 as (numerator, denominator); a NaN or infinite m0 is a DomainError."""
    try:
        m = Fraction(m0)
    except (ValueError, OverflowError):
        raise DomainError(f"{what} needs a finite m0, got {m0!r}") from None
    return m.numerator, m.denominator


def _exact_interval(step: LatticeStep, grid: GridSpec) -> tuple:
    """c, c dt, eps, |dj|^2 and s = (c dt)^2 - |dx|^2 in exact integer arithmetic.

    Each rational is a pair (num, den) with den > 0; |dx|^2 = |dj|^2 eps^2.
    """
    cn, cd = grid.c.as_integer_ratio()
    tn, td = grid.tau.as_integer_ratio()
    en, ed = grid.eps.as_integer_ratio()
    a, b = cn * step.dn * tn, cd * td
    d2 = sum(d * d for d in step.dj)
    s_num = (a * ed) ** 2 - d2 * (en * b) ** 2
    return (cn, cd), (a, b), (en, ed), d2, (s_num, (b * ed) ** 2)


def step_velocity(step: LatticeStep, grid: GridSpec) -> tuple[Fraction, Fraction, Fraction]:
    """u = dx/dt componentwise, exact whenever tau and eps are exact."""
    tn, td = grid.tau.as_integer_ratio()
    en, ed = grid.eps.as_integer_ratio()
    den = ed * step.dn * tn
    return tuple(Fraction(d * en * td, den) for d in step.dj)  # type: ignore[return-value]


def discrete_energy_momentum(m0: float, step: LatticeStep, grid: GridSpec) -> ParticleState:
    """Energy and momentum of a massive particle hopping dn, dj per event.

    Requires a strictly timelike step. E, p and the velocity u = dx/dt are
    exact rationals rounded once (an int / int true division is correctly
    rounded); E and p spend the single square root on the interval.
    """
    if m0 <= 0:
        raise DomainError("discrete energy-momentum needs m0 > 0 (the map degenerates at m0 = 0)")
    mn, md = _mass_ratio(m0, "discrete energy-momentum")
    (cn, cd), (a, b), (en, ed), _, (s_num, s_den) = _exact_interval(step, grid)
    if s_num <= 0:
        kind = "lightlike" if s_num == 0 else "spacelike"
        raise DomainError(f"step {step} is {kind} on this grid; a massive state needs (c dt)^2 > |dx|^2")
    try:
        root = math.sqrt(s_num / s_den)
        E = mn * cn * cn * a / (md * cd * cd * b) / root
        pn, pd = mn * cn * en, md * cd * ed
        p = np.array([pn * d / pd / root for d in step.dj])
        with np.errstate(over="ignore"):
            in_range = E > 0.0 and math.isfinite(E * E) and math.isfinite(p @ p)
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise DomainError(f"step {step} at m0 = {m0!r}: E^2 or |p|^2 leaves the float range, or E underflows to 0")
    # u = c dx / (c dt)
    un, ud = cn * en * b, cd * ed * a
    u = np.array([un * d / ud for d in step.dj])
    return ParticleState(E=E, p=p, m0=m0, u=u)


def energy_momentum_squared_exact(
    m0: float | Fraction, step: LatticeStep, grid: GridSpec
) -> tuple[Fraction, Fraction, Fraction]:
    """(E^2, |p|^2, |u|^2) as exact rationals; the square root cancels in all three."""
    mn, md = _mass_ratio(m0, "exact squares")
    (cn, cd), (a, b), (en, ed), d2, (s_num, _) = _exact_interval(step, grid)
    if s_num <= 0:
        raise DomainError("exact squares need a strictly timelike step")
    # s = s_num / (b ed)^2, so E^2 = m^2 c^4 (c dt)^2 / s and |p|^2 = m^2 c^2 |dx|^2 / s
    m2c2_num, m2c2_den = (mn * cn) ** 2, (md * cd) ** 2
    E2 = Fraction(m2c2_num * cn * cn * (a * ed) ** 2, m2c2_den * cd * cd * s_num)
    p2 = Fraction(m2c2_num * d2 * (en * b) ** 2, m2c2_den * s_num)
    u2 = Fraction(d2 * (cn * en * b) ** 2, (cd * ed * a) ** 2)
    return E2, p2, u2


# --- the total-difference mass-shell argument --------------------------------


def total_difference_mass_shell(
    s: ParticleState, s_next: ParticleState, c: float, rtol: float = 1e-10
) -> tuple[float, float]:
    """Residuals of the discrete mass-shell difference identities.

    residual23 = {2 E dE + dE^2}/c^2 - 2 p.dp - |dp|^2, the total
    difference of E^2/c^2 - |p|^2 between the two states (vanishes when
    both share a mass shell).

    residual24 = dE - u_avg . dp with the average-operator velocity
    u_avg = c^2 (p + p')/(E + E'); the exact discrete counterpart of
    dE = u dp.
    """
    s.validate(c, rtol)
    s_next.validate(c, rtol)
    scale = np.maximum(np.maximum(abs(s.m0), abs(s_next.m0)), 1.0)
    if np.any(abs(s.m0 - s_next.m0) > rtol * scale):
        raise DomainError(
            f"states lie on different mass shells: m0 = {s.m0!r} vs {s_next.m0!r}"
        )
    dE = s_next.E - s.E
    dp = s_next.p - s.p
    residual23 = (2.0 * s.E * dE + _square(dE)) / c**2 - 2.0 * _dot(s.p, dp) - _dot(dp, dp)
    u_avg = c**2 * (s.p + s_next.p) / np.expand_dims(s.E + s_next.E, -1)
    residual24 = dE - _dot(u_avg, dp)
    return residual23, residual24


def four_difference_invariant(s: ParticleState, s_next: ParticleState, c: float) -> float:
    """Minkowski square (dE)^2/c^2 - |dp|^2 of the four-vector difference.

    Zero exactly when the two states are the same free-particle state at
    consecutive events (dp = 0); strictly negative for distinct momenta on
    a common massive shell.
    """
    dE = s_next.E - s.E
    dp = s_next.p - s.p
    return _square(dE) / c**2 - _dot(dp, dp)
