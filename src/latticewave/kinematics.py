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
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.shape != (3,):
        raise DomainError(f"expected a 3-vector, got shape {a.shape}")
    return a


def boost_matrix(v: Sequence[float], c: float) -> np.ndarray:
    """Boost to a frame moving with velocity v; acts on (q0, q1, q2, q3).

    Satisfies L^T eta L = eta. Requires |v| < c.
    """
    v = _vec3(v)
    if c <= 0:
        raise DomainError("c must be positive")
    beta = v / c
    b2 = float(beta @ beta)
    if b2 >= 1.0:
        raise DomainError(f"boost velocity |v| = {math.sqrt(b2) * c!r} must be < c = {c!r}")
    g = 1.0 / math.sqrt(1.0 - b2)
    L = np.eye(4)
    L[0, 0] = g
    L[0, 1:] = -g * beta
    L[1:, 0] = -g * beta
    if b2 > 0.0:
        L[1:, 1:] += (g - 1.0) / b2 * np.outer(beta, beta)
    return L


def phase_velocity(w: float, k: Sequence[float]) -> Union[float, Infinite]:
    """w/|k|; INFINITE for a zero wavenumber (rest-frame wave)."""
    k = _vec3(k)
    k_mag = float(np.linalg.norm(k))
    if k_mag == 0.0:
        return INFINITE
    return w / k_mag


def transform_wave(w: float, k: Sequence[float], v: Sequence[float], c: float) -> tuple[float, np.ndarray]:
    """Boost a plane wave (w, k) via the four-vector (w/c, k)."""
    k = _vec3(k)
    L = boost_matrix(v, c)
    q = np.concatenate(([w / c], k))
    qp = L @ q
    return float(qp[0] * c), qp[1:].copy()


def transform_wave_scalar(w: float, k: Sequence[float], v: Sequence[float], c: float) -> float:
    """The printed scalar frequency transform w' = gamma w (1 - v.n / v_phi).

    Needs a finite phase velocity: a zero wavenumber with w != 0 is a
    domain error here (the four-vector route handles it fine).
    """
    k = _vec3(k)
    v = _vec3(v)
    k_mag = float(np.linalg.norm(k))
    if k_mag == 0.0:
        if w == 0.0:
            return 0.0
        raise DomainError("scalar frequency transform needs finite v_phi; k = 0 with w != 0")
    vphi = w / k_mag
    n = k / k_mag
    b2 = float(v @ v) / c**2
    if b2 >= 1.0:
        raise DomainError("boost velocity must satisfy |v| < c")
    g = 1.0 / math.sqrt(1.0 - b2)
    return g * w * (1.0 - float(v @ n) / vphi)


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
    """On-shell kinematic state (E, p, m0, u) with u = p c^2 / E."""

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
        if m0 < 0:
            raise DomainError("rest mass must be >= 0")
        p = _vec3(p)
        try:
            with np.errstate(over="ignore"):
                E = math.sqrt(float(p @ p) * c**2 + m0**2 * c**4)
        except OverflowError:
            E = math.inf
        if not math.isfinite(E):
            raise DomainError(f"E^2 = |p|^2 c^2 + m0^2 c^4 leaves the float range for m0 = {m0!r}, c = {c!r}")
        if E == 0.0:
            raise DomainError("massless state needs nonzero momentum")
        return cls(E=E, p=p, m0=m0, u=p * c**2 / E)

    @classmethod
    def at_rest(cls, m0: float, c: float) -> "ParticleState":
        if m0 <= 0:
            raise DomainError("a rest state needs m0 > 0")
        return cls(E=m0 * c**2, p=np.zeros(3), m0=m0, u=np.zeros(3))

    def momentum_magnitude(self) -> float:
        return float(np.linalg.norm(self.p))

    def speed(self) -> float:
        return float(np.linalg.norm(self.u))

    def mass_shell_residual(self, c: float) -> float:
        """Relative residual of E^2 - |p|^2 c^2 = m0^2 c^4."""
        lhs = self.E**2 - float(self.p @ self.p) * c**2
        rhs = self.m0**2 * c**4
        scale = abs(self.E**2) + abs(float(self.p @ self.p)) * c**2 + abs(rhs)
        return abs(lhs - rhs) / scale if scale > 0 else abs(lhs - rhs)

    def validate(self, c: float, rtol: float = 1e-10) -> None:
        if self.m0 < 0:
            raise DomainError("rest mass must be >= 0")
        if self.E <= 0:
            raise DomainError("energy must be positive")
        if self.mass_shell_residual(c) > rtol:
            raise DomainError(
                f"state off mass shell: relative residual {self.mass_shell_residual(c):.3e} > {rtol:.1e}"
            )
        expected_u = self.p * c**2 / self.E
        if float(np.max(np.abs(self.u - expected_u))) > rtol * max(c, self.speed()):
            raise DomainError("velocity inconsistent with p c^2 / E")
        speed = self.speed()
        if self.m0 > 0 and speed >= c * (1 + rtol):
            raise DomainError("massive state must move slower than light")


def transform_particle(s: ParticleState, v: Sequence[float], c: float) -> ParticleState:
    """Boost a particle state via the four-vector (E/c, p); mass shell is preserved."""
    s.validate(c)
    L = boost_matrix(v, c)
    q = np.concatenate(([s.E / c], s.p))
    qp = L @ q
    E_new = float(qp[0] * c)
    p_new = qp[1:].copy()
    if E_new <= 0:
        raise DomainError("boost produced non-positive energy; input state was invalid")
    if not math.isfinite(E_new * E_new):
        raise DomainError(f"boosted energy {E_new!r} squared leaves the float range")
    return ParticleState(E=E_new, p=p_new, m0=s.m0, u=p_new * c**2 / E_new)


def transform_particle_scalar(s: ParticleState, v: Sequence[float], c: float) -> float:
    """The printed scalar energy transform E' = gamma E (1 - v.u / c^2)."""
    v = _vec3(v)
    b2 = float(v @ v) / c**2
    if b2 >= 1.0:
        raise DomainError("boost velocity must satisfy |v| < c")
    g = 1.0 / math.sqrt(1.0 - b2)
    return g * s.E * (1.0 - float(v @ s.u) / c**2)


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
        if not (isinstance(self.dn, int) and self.dn >= 1):
            raise DomainError(f"dn must be a positive integer, got {self.dn!r}")
        if len(self.dj) != 3 or not all(isinstance(d, int) for d in self.dj):
            raise DomainError(f"dj must be three integers, got {self.dj!r}")
        object.__setattr__(self, "dj", tuple(self.dj))


def _exact_interval(step: LatticeStep, grid: GridSpec) -> tuple[Fraction, tuple[Fraction, ...], Fraction]:
    """(c*dt, dx vector, s = (c dt)^2 - |dx|^2) in exact rational arithmetic."""
    tau = Fraction(grid.tau)
    eps = Fraction(grid.eps)
    c = Fraction(grid.c)
    cdt = c * step.dn * tau
    dx = tuple(Fraction(d) * eps for d in step.dj)
    s = cdt * cdt - sum(x * x for x in dx)
    return cdt, dx, s


def step_velocity(step: LatticeStep, grid: GridSpec) -> tuple[Fraction, Fraction, Fraction]:
    """u = dx/dt componentwise, exact whenever tau and eps are exact."""
    tau = Fraction(grid.tau)
    eps = Fraction(grid.eps)
    dt = step.dn * tau
    return tuple(Fraction(d) * eps / dt for d in step.dj)  # type: ignore[return-value]


def discrete_energy_momentum(m0: float, step: LatticeStep, grid: GridSpec) -> ParticleState:
    """Energy and momentum of a massive particle hopping dn, dj per event.

    Requires a strictly timelike step. The velocity u = dx/dt is computed
    as an exact rational before conversion; E and p spend the single
    square root on the interval.
    """
    if m0 <= 0:
        raise DomainError("discrete energy-momentum needs m0 > 0 (the map degenerates at m0 = 0)")
    cdt, dx, s = _exact_interval(step, grid)
    if s <= 0:
        kind = "lightlike" if s == 0 else "spacelike"
        raise DomainError(f"step {step} is {kind} on this grid; a massive state needs (c dt)^2 > |dx|^2")
    m0_f = Fraction(m0)
    c = Fraction(grid.c)
    try:
        root = math.sqrt(float(s))
        E = float(m0_f * c * c * cdt) / root
        p = np.array([float(m0_f * c * x) / root for x in dx])
        with np.errstate(over="ignore"):
            in_range = E > 0.0 and math.isfinite(E * E) and math.isfinite(p @ p)
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise DomainError(f"step {step} at m0 = {m0!r}: E^2 or |p|^2 leaves the float range, or E underflows to 0")
    u = np.array([float(ui) for ui in step_velocity(step, grid)])
    return ParticleState(E=E, p=p, m0=m0, u=u)


def energy_momentum_squared_exact(
    m0: float | Fraction, step: LatticeStep, grid: GridSpec
) -> tuple[Fraction, Fraction, Fraction]:
    """(E^2, |p|^2, |u|^2) as exact rationals; the square root cancels in all three."""
    cdt, dx, s = _exact_interval(step, grid)
    if s <= 0:
        raise DomainError("exact squares need a strictly timelike step")
    m = Fraction(m0)
    c = Fraction(grid.c)
    dx2 = sum(x * x for x in dx)
    E2 = m * m * c**4 * cdt * cdt / s
    p2 = m * m * c * c * dx2 / s
    u2 = dx2 * c * c / (cdt * cdt)
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
    scale = max(abs(s.m0), abs(s_next.m0), 1.0)
    if abs(s.m0 - s_next.m0) > rtol * scale:
        raise DomainError(
            f"states lie on different mass shells: m0 = {s.m0!r} vs {s_next.m0!r}"
        )
    dE = s_next.E - s.E
    dp = s_next.p - s.p
    residual23 = (2.0 * s.E * dE + dE**2) / c**2 - 2.0 * float(s.p @ dp) - float(dp @ dp)
    u_avg = c**2 * (s.p + s_next.p) / (s.E + s_next.E)
    residual24 = dE - float(u_avg @ dp)
    return residual23, residual24


def four_difference_invariant(s: ParticleState, s_next: ParticleState, c: float) -> float:
    """Minkowski square (dE)^2/c^2 - |dp|^2 of the four-vector difference.

    Zero exactly when the two states are the same free-particle state at
    consecutive events (dp = 0); strictly negative for distinct momenta on
    a common massive shell.
    """
    dE = s_next.E - s.E
    dp = s_next.p - s.p
    return dE**2 / c**2 - float(dp @ dp)
