"""The toolkit's exit criteria, runnable as one report.

Each criterion bundles the numerical checks that certify one family of
identities, with tolerances pinned here. ``run_acceptance`` executes all
of them (deterministically for a given seed) and reports measured values
next to their bounds; the ``as_printed`` switches substitute the two
published-table variants that are expected to fail, demonstrating the
documented corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .diffcalc import DiffOp, apply_1d
from .dispersion import DispersionForm, dispersion_residual, mass_from_rest_period, quantization_check, solve_modes
from .grid import Axis, Boundary, FieldSlab, GridSpec, INFINITE
from .kg_lattice import KGParams, evolve, plane_wave_residual
from .kinematics import (
    LatticeStep,
    ParticleState,
    _exact_squares,
    _velocity_ratio,
    boost_matrix,
    debroglie_map,
    discrete_energy_momentum,
    four_difference_invariant,
    total_difference_mass_shell,
    transform_particle,
    transform_particle_scalar,
    transform_wave,
    transform_wave_scalar,
)
from .lorentz_int import (
    enumerate_ball,
    eval_word,
    factorize,
    generator,
    metric_gram_defect,
    preserves_metric,
    printed_s4,
)
from .waves import (
    BeatSpec,
    WaveForm,
    WaveSpec,
    beat_field,
    beat_velocities,
    measure_group_velocity,
    sample_wave,
)

AS_PRINTED_CHOICES = ("s4", "tan-dispersion")


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    details: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid}: {self.title}"


class _Checker:
    def __init__(self):
        self.passed = True
        self.details: list[str] = []

    def check(self, label: str, measured: float, bound: float) -> None:
        ok = bool(measured <= bound)
        self.passed &= ok
        self.details.append(f"{label}: {measured:.3e} (bound {bound:.1e}) {'ok' if ok else 'FAILED'}")

    def require(self, label: str, ok: bool, note: str = "") -> None:
        self.passed &= ok
        suffix = f" [{note}]" if note else ""
        self.details.append(f"{label}: {'ok' if ok else 'FAILED'}{suffix}")

    def note(self, text: str) -> None:
        self.details.append(text)


GRID = GridSpec()


def _uniform(r: np.ndarray, low: float, high: float) -> np.ndarray:
    """rng.uniform(low, high) from rng.random() draws r, bit for bit."""
    return low + (high - low) * r


def _along_x(x: np.ndarray) -> np.ndarray:
    """Stacked 3-vectors (x, 0, 0)."""
    return np.stack([x, np.zeros_like(x), np.zeros_like(x)], axis=-1)


def _criterion_1_transform_equivalence(rng: np.random.Generator, as_printed: frozenset) -> _Checker:
    c = _Checker()
    r = rng.random((1000, 3))  # per state p, m0, v: the draw order of one rng.uniform call each
    s = ParticleState.from_momentum(_along_x(_uniform(r[:, 0], -3, 3)), _uniform(r[:, 1], 0.05, 5.0), 1.0)
    v = _along_x(_uniform(r[:, 2], -0.9, 0.9))
    wp, kp = transform_wave(*debroglie_map(s, 1.0), v, 1.0)
    sp = transform_particle(s, v, 1.0)
    scale = np.maximum(np.abs(sp.E), np.max(np.abs(sp.p), axis=-1))
    worst = max(np.max(np.abs(wp - sp.E) / scale), np.max(np.max(np.abs(kp - sp.p), axis=-1) / scale))
    c.check("wave/particle boost agreement over 1000 states, relative", worst, 1e-12)
    # at c = 2 and hbar = 0.3, with oblique momenta and boosts (|v| <= 1.1 sqrt(3) < c)
    cc, hbar = 2.0, 0.3
    s = ParticleState.from_momentum(rng.uniform(-3, 3, (1000, 3)), rng.uniform(0.05, 5.0, 1000), cc)
    v = rng.uniform(-1.1, 1.1, (1000, 3))
    w, k = debroglie_map(s, hbar)
    wp, kp = transform_wave(w, k, v, cc)
    sp = transform_particle(s, v, cc)
    printed = np.maximum(np.abs(transform_wave_scalar(w, k, v, cc) - wp) / wp,
                         np.abs(transform_particle_scalar(s, v, cc) - sp.E) / sp.E)
    c.check("printed scalar w' and E' laws vs the four-vector boost at c = 2, oblique, relative",
            np.max(printed), 1e-12)
    L, eta = boost_matrix(v, cc), np.diag([1.0, -1.0, -1.0, -1.0])
    c.check("L^T eta L = eta for each of those boosts, largest entry deviation",
            np.max(np.abs(np.swapaxes(L, -1, -2) @ eta @ L - eta)), 1e-12)
    scale = np.maximum(sp.E, np.max(np.abs(sp.p), axis=-1))
    debroglie = np.maximum(np.abs(hbar * wp - sp.E), np.max(np.abs(hbar * kp - sp.p), axis=-1)) / scale
    c.check("hbar w' = E' and hbar k' = p' for the boosted pairs at hbar = 0.3, relative", np.max(debroglie), 1e-12)
    return c


def _criterion_2_discrete_mass_shell(rng: np.random.Generator, as_printed: frozenset) -> _Checker:
    c = _Checker()
    grid = GridSpec(tau=0.625, eps=0.25, c=2.0)
    rows = []
    while len(rows) < 1000:  # integers and uniforms interleave, so the steps are drawn one at a time
        dn = int(rng.integers(1, 40))
        dj = tuple(int(x) for x in rng.integers(-12, 13, 3))
        if (grid.c * dn * grid.tau) ** 2 <= sum((d * grid.eps) ** 2 for d in dj):
            continue
        rows.append((dn, dj, float(rng.uniform(0.05, 5.0))))
    dn, dj, m0 = map(np.array, zip(*rows))
    step = LatticeStep(dn=dn, dj=dj)
    stack = discrete_energy_momentum(m0, step, grid)
    c.check("mass-shell relative residual over 1000 timelike steps", np.max(stack.mass_shell_residual(grid.c)), 1e-12)
    # the exact identities, cross-multiplied over integer ratios whose denominators are all > 0
    (E2, E2_den), (p2, p2_den), (u2, u2_den) = _exact_squares(m0, step, grid)
    mn, md = (np.array(x, dtype=object) for x in zip(*(m.as_integer_ratio() for m in m0.tolist())))
    cn, cd = grid.c.as_integer_ratio()
    tn, td = grid.tau.as_integer_ratio()
    en, ed = grid.eps.as_integer_ratio()
    # E^2 - p^2 c^2 = m^2 c^4
    shell = (E2 * p2_den * cd**2 - p2 * cn**2 * E2_den) * cd**2 * md**2 == mn**2 * cn**4 * E2_den * p2_den
    # u dt = dx, with u = u_num dj / u_den: u_num dj dn tau = dj eps u_den
    u_num, u_den = _velocity_ratio(step, grid)
    velocity = (u_num * step.dn * tn * ed)[:, None] * step.dj == step.dj * (en * td * u_den)[:, None]
    # u^2 = p^2 c^4 / E^2, with E^2 > 0 on a timelike step
    square = u2 * p2_den * cd**4 * E2 == p2 * cn**4 * u2_den * E2_den
    exact_ok = bool(np.all(shell) and np.all(velocity) and np.all(square))
    c.require("u = dx/dt and the shell identity, exact in rational arithmetic", exact_ok)
    return c


def _criterion_3_product_identity(rng: np.random.Generator, as_printed: frozenset) -> _Checker:
    c = _Checker()
    by_length: dict[int, list] = {}
    for _ in range(1000):  # n decides how many normals follow, so each sequence is drawn on its own
        n = int(rng.integers(2, 64))
        by_length.setdefault(n, []).append(rng.normal(size=(4, n)))  # re f, im f, re g, im g

    def rows(a: np.ndarray, op: DiffOp) -> np.ndarray:
        return apply_1d(FieldSlab(psi=a), Axis.SPACE_J, op, Boundary.SHRINKING).psi

    d, a = DiffOp.FORWARD_DIFF, DiffOp.FORWARD_AVG
    worst = 0.0
    for draws in by_length.values():
        x = np.array(draws)
        f, g = x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3]
        residual = rows(f * g, d) - (rows(f, d) * rows(g, a) + rows(f, a) * rows(g, d))
        scale = np.maximum(1.0, np.max(np.abs(f) * np.abs(g), axis=1))
        worst = max(worst, np.max(np.max(np.abs(residual), axis=1) / scale))
    c.check("discrete product rule, elementwise over 1000 sequences", worst, 1e-12)
    return c


def _criterion_4_total_difference(rng: np.random.Generator, as_printed: frozenset) -> _Checker:
    c = _Checker()
    r = rng.random((1000, 3))  # per pair m0, p_a, p_b: the draw order of one rng.uniform call each
    m0 = _uniform(r[:, 0], 0.1, 3.0)
    a = ParticleState.from_momentum(_along_x(_uniform(r[:, 1], -3, 3)), m0, 1.0)
    b = ParticleState.from_momentum(_along_x(_uniform(r[:, 2], -3, 3)), m0, 1.0)
    r23, r24 = total_difference_mass_shell(a, b, 1.0)
    scale = np.maximum(a.E, b.E)
    c.check("total-difference shell residual over 1000 pairs", np.max(np.abs(r23) / scale**2), 1e-10)
    c.check("dE = u_avg dp with the average-velocity convention", np.max(np.abs(r24) / scale), 1e-10)
    rows = []
    for _ in range(200):
        dn = int(rng.integers(2, 20))
        rows.append((dn, (int(rng.integers(-dn + 1, dn)), 0, 0), float(rng.uniform(0.2, 4.0))))
    dn, dj, m0 = map(np.array, zip(*rows))
    step = LatticeStep(dn=dn, dj=dj)
    s1 = discrete_energy_momentum(m0, step, GRID)
    s2 = discrete_energy_momentum(m0, step, GRID)  # next event of the same free motion
    c.check("difference four-vector invariant across consecutive free events",
            np.max(np.abs(four_difference_invariant(s1, s2, GRID.c))), 1e-10)
    a = ParticleState.from_momentum([0.75, 0, 0], 1.0, 1.0)
    b = ParticleState.from_momentum([1.0, 0, 0], 1.0, 1.0)
    c.note(
        "distinct-momentum pair (p = 0.75, 1.0): invariant = "
        f"{four_difference_invariant(a, b, 1.0):.6f} (spacelike, nonzero by construction; documented)"
    )
    # at c = 2: 1000 pairs with distinct oblique momenta on one massive shell each, and a boost per pair
    cc = 2.0
    m0 = rng.uniform(0.1, 3.0, 1000)
    a = ParticleState.from_momentum(rng.uniform(-3, 3, (1000, 3)), m0, cc)
    b = ParticleState.from_momentum(rng.uniform(-3, 3, (1000, 3)), m0, cc)
    v = rng.uniform(-1.1, 1.1, (1000, 3))
    invariant = four_difference_invariant(a, b, cc)
    boosted = four_difference_invariant(transform_particle(a, v, cc), transform_particle(b, v, cc), cc)
    scale = np.maximum(a.E, b.E) ** 2 / cc**2
    c.check("difference invariant unchanged by a boost at c = 2, relative to (E/c)^2",
            np.max(np.abs(boosted - invariant) / scale), 1e-10)
    c.require("difference invariant < 0 for distinct momenta on a common massive shell", bool(np.all(invariant < 0)),
              f"largest {np.max(invariant):.3e}")
    _, r24 = total_difference_mass_shell(a, b, cc)
    c.check("dE = u_avg dp at c = 2 with oblique momenta", np.max(np.abs(r24) / np.maximum(a.E, b.E)), 1e-10)
    return c


def _criterion_5_beat_velocities(rng: np.random.Generator, as_printed: frozenset) -> _Checker:
    c = _Checker()
    b = BeatSpec(T1=4.0, T2=6.0, lam1=3.0, lam2=5.0)
    v_phase, v_group = beat_velocities(b)
    vg_exact = (Fraction(1, 4) - Fraction(1, 6)) / (Fraction(1, 3) - Fraction(1, 5))
    vp_exact = (Fraction(1, 4) + Fraction(1, 6)) / (Fraction(1, 3) + Fraction(1, 5))
    c.check("printed group-velocity formula vs exact fraction 5/8", abs(v_group - float(vg_exact)), 1e-15)
    c.check("printed phase-velocity formula vs exact fraction 25/32", abs(v_phase - float(vp_exact)), 1e-15)
    worst = 0.0
    for _ in range(200):
        cc = rng.uniform(0.5, 3.0)
        m0 = rng.uniform(0.0, 2.0)
        k1, k2 = rng.uniform(0.2, 4.0, 2)
        if abs(k1 - k2) < 1e-3:
            continue
        w1 = math.sqrt(cc**2 * k1**2 + (m0 * cc**2) ** 2)
        w2 = math.sqrt(cc**2 * k2**2 + (m0 * cc**2) ** 2)
        bb = BeatSpec(T1=2 * math.pi / w1, T2=2 * math.pi / w2, lam1=2 * math.pi / k1, lam2=2 * math.pi / k2)
        vp, vg = beat_velocities(bb)
        worst = max(worst, abs(vp * vg - cc**2) / cc**2)
    c.check("v_phase * v_group = c^2 on mass-shell mode pairs, relative", worst, 1e-10)
    measured = measure_group_velocity(beat_field(b, GRID, 256, 1024), beat=b)
    c.check("envelope-tracked group velocity vs dw/dk, relative (256x1024)", abs(measured - 0.625) / 0.625, 0.02)
    return c


def _criterion_6_plane_wave_certification(rng: np.random.Generator, as_printed: frozenset) -> _Checker:
    c = _Checker()
    printed = "tan-dispersion" in as_printed
    grid = GRID
    cayley_m0 = 2 * math.pi / math.sqrt(12)
    c.check(
        "cayley (N=3, M=6) wave-operator residual on 32x32",
        plane_wave_residual(WaveSpec(form=WaveForm.CAYLEY, N=3, M=6), KGParams(m0=cayley_m0, grid=grid), (32, 32)),
        1e-12,
    )
    if printed:
        # the published asymmetric time coefficient: mass from tan^2(pi/N) = mu^2
        m0_rest = math.tan(math.pi / 4)
        m0_48 = math.sqrt(math.tan(math.pi / 4) ** 2 - 4 * math.tan(math.pi / 8) ** 2)
        c.note("running with the as-printed asymmetric tan coefficient; failure expected")
    else:
        m0_rest = 2.0 * math.tan(math.pi / 4)
        m0_48 = math.sqrt(4 * math.tan(math.pi / 4) ** 2 - 4 * math.tan(math.pi / 8) ** 2)
    c.check(
        "exponential rest mode (N=4, M=inf) residual on 32x32",
        plane_wave_residual(
            WaveSpec(form=WaveForm.EXPONENTIAL, N=4, M=INFINITE), KGParams(m0=m0_rest, grid=grid), (32, 32)
        ),
        1e-12,
    )
    c.check(
        "exponential traveling mode (N=4, M=8) residual on 32x32",
        plane_wave_residual(WaveSpec(form=WaveForm.EXPONENTIAL, N=4, M=8), KGParams(m0=m0_48, grid=grid), (32, 32)),
        1e-12,
    )
    if not printed:
        off_shell = plane_wave_residual(
            WaveSpec(form=WaveForm.EXPONENTIAL, N=4, M=INFINITE), KGParams(m0=1.0, grid=grid), (32, 32)
        )
        c.require(
            "as-printed asymmetric coefficient leaves residual > 1e-3 (documented deviation)",
            off_shell > 1e-3,
            f"measured {off_shell:.3e}",
        )
    return c


def _criterion_7_mass_spectrum(rng: np.random.Generator, as_printed: frozenset) -> _Checker:
    c = _Checker()
    grid = GRID
    ratios_exact = all(
        mass_from_rest_period(n, grid) / mass_from_rest_period(2 * n, grid) == 2.0 for n in range(1, 65)
    )
    c.require("m0(N) / m0(2N) == 2 exactly for N = 1..64", ratios_exact)
    c.check(
        "m0(1) equals 2 pi hbar / (c^2 tau) in natural units",
        abs(mass_from_rest_period(1, grid) - 2 * math.pi),
        1e-15,
    )
    result = quantization_check(LatticeStep(dn=1), 2 * math.pi, grid, tol=1e-12)
    c.require(
        "rest step with m0 = 2 pi recovers N = 1 exactly",
        result.N_real == 1.0 and result.N == 1 and result.M_real is INFINITE,
        f"N_real = {result.N_real!r}",
    )
    consistent = True
    for n in (3, 5, 11):
        m0 = mass_from_rest_period(n, grid)
        rest = [s for s in solve_modes(m0, DispersionForm.CAYLEY, 16, 16, 1e-12, grid) if s.M is INFINITE]
        consistent &= len(rest) == 1 and rest[0].N == n
    c.require("rest dispersion solutions reproduce the mass spectrum", consistent)
    return c


def _criterion_8_integral_lorentz(rng: np.random.Generator, as_printed: frozenset) -> _Checker:
    c = _Checker()
    if "s4" in as_printed:
        c.note("running with the as-printed S4 table entry; failure expected")
        c.require(
            "printed S4 satisfies the metric invariant",
            preserves_metric(printed_s4()),
            f"columns 0,3 Gram defect = {metric_gram_defect(printed_s4(), 0, 3)}",
        )
        return c
    for name in ("S1", "S2", "S3", "S4"):
        c.require(f"{name} preserves the Minkowski form exactly", preserves_metric(generator(name)))
    c.require(
        "printed S4 fails with Gram defect 2 (documented deviation)",
        (not preserves_metric(printed_s4())) and metric_gram_defect(printed_s4(), 0, 3) == 2,
    )
    ball = enumerate_ball(6)
    entries = {m.entries for m in ball}
    c.require(f"ball(6) of {len(ball)} elements is metric-clean", all(preserves_metric(m) for m in ball))
    c.require("ball(6) closed under inverses", all(m.inverse().entries in entries for m in ball))
    c.require(
        "eval_word(factorize(L)) = L exactly for every ball(6) element",
        all(eval_word(factorize(m)).entries == m.entries for m in ball),
    )
    c.require("determinants all +/-1", all(m.determinant() in (-1, 1) for m in ball))
    return c


def _criterion_9_evolution_fidelity(rng: np.random.Generator, as_printed: frozenset) -> _Checker:
    c = _Checker()
    grid = GRID

    m0_exp = math.sqrt(4 - 4 * math.tan(math.pi / 8) ** 2)
    exact = sample_wave(WaveSpec(form=WaveForm.EXPONENTIAL, N=4, M=8), 18, 16).psi
    out = evolve(exact[:2], 16, KGParams(m0=m0_exp, grid=grid))
    c.check("exponential solution reproduced over 16 steps", float(np.max(np.abs(out.psi - exact))), 1e-10)

    m0_rest = mass_from_rest_period(5, grid)
    exact = sample_wave(WaveSpec(form=WaveForm.CAYLEY, N=5, M=INFINITE), 18, 12).psi
    out = evolve(exact[:2], 16, KGParams(m0=m0_rest, grid=grid))
    c.check("rest cayley solution reproduced over 16 steps", float(np.max(np.abs(out.psi - exact))), 1e-10)

    m0_cayley = 2 * math.pi / math.sqrt(12)
    nx = 112
    exact = sample_wave(WaveSpec(form=WaveForm.CAYLEY, N=3, M=6), 18, nx).psi
    out = evolve(exact[:2], 16, KGParams(m0=m0_cayley, grid=grid))
    window = slice(40, nx - 40)
    c.check(
        "traveling cayley solution reproduced away from the wrap seam",
        float(np.max(np.abs(out.psi[:, window] - exact[:, window]))),
        1e-10,
    )

    a = rng.normal(size=(2, 20)) + 1j * rng.normal(size=(2, 20))
    b2 = rng.normal(size=(2, 20)) + 1j * rng.normal(size=(2, 20))
    p = KGParams(m0=1.7, grid=grid)
    alpha, beta = 0.8 - 0.4j, -1.3 + 0.2j
    dev = np.max(np.abs(evolve(alpha * a + beta * b2, 14, p).psi - alpha * evolve(a, 14, p).psi - beta * evolve(b2, 14, p).psi))
    c.check("linearity of the march", float(dev), 1e-11)

    initial = rng.normal(size=(2, 24)) + 1j * rng.normal(size=(2, 24))
    equivariant = np.array_equal(
        evolve(np.roll(initial, 3, axis=1), 10, p).psi, np.roll(evolve(initial, 10, p).psi, 3, axis=1)
    )
    c.require("translation equivariance is exact (bit-for-bit)", equivariant)
    return c


def _criterion_10_continuum_limits(rng: np.random.Generator, as_printed: frozenset) -> _Checker:
    c = _Checker()
    from .waves import continuum_limit_error

    sizes = [50, 100, 200]
    errors = [continuum_limit_error(WaveForm.CAYLEY, n, INFINITE, n, 0) for n in sizes]
    slope = float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
    c.require(
        "cayley phase error convergence order 2 (log-log slope within -2 +/- 0.1)",
        -2.1 <= slope <= -1.9,
        f"slope {slope:.4f}",
    )
    scales = [4, 8, 16, 32]
    gaps = []
    for s in scales:
        exp_res = dispersion_residual(DispersionForm.EXPONENTIAL, 3 * s, 6 * s, 1.0, GRID)
        cont_res = dispersion_residual(DispersionForm.CONTINUUM, 3 * s, 6 * s, 1.0, GRID)
        w = 2 * math.pi / (3 * s)
        k = 2 * math.pi / (6 * s)
        gaps.append(abs(exp_res - cont_res) / (w**2 + k**2))
    slope2 = float(np.polyfit(np.log(scales), np.log(gaps), 1)[0])
    c.require(
        "tan dispersion approaches the continuum relation at order 2",
        -2.1 <= slope2 <= -1.9,
        f"slope {slope2:.4f}",
    )
    return c


_CRITERIA: list[tuple[int, str, Callable]] = [
    (1, "wave and particle quantities transform identically under boosts", _criterion_1_transform_equivalence),
    (2, "discrete energy-momentum sits on the mass shell, exactly rational velocity", _criterion_2_discrete_mass_shell),
    (3, "exact discrete product rule for differences and averages", _criterion_3_product_identity),
    (4, "total-difference mass-shell argument and average-velocity relation", _criterion_4_total_difference),
    (5, "beat phase/group velocities: formulas, c^2 product, envelope tracking", _criterion_5_beat_velocities),
    (6, "lattice plane waves certified against both dispersion relations", _criterion_6_plane_wave_certification),
    (7, "discrete mass spectrum and mode-number quantization", _criterion_7_mass_spectrum),
    (8, "integral Lorentz group: generators, ball(6), factorization round-trip", _criterion_8_integral_lorentz),
    (9, "implicit evolution reproduces exact solutions, linear and equivariant", _criterion_9_evolution_fidelity),
    (10, "continuum limits approached at second order", _criterion_10_continuum_limits),
]


def criterion_ids() -> list[int]:
    return [cid for cid, _, _ in _CRITERIA]


def run_criterion(cid: int, seed: int = 0, as_printed: Iterable[str] = ()) -> CriterionResult:
    printed = frozenset(as_printed)
    unknown = printed - set(AS_PRINTED_CHOICES)
    if unknown:
        raise ValueError(f"unknown as-printed selector(s): {sorted(unknown)}")
    for num, title, fn in _CRITERIA:
        if num == cid:
            rng = np.random.default_rng(seed + cid)
            checker = fn(rng, printed)
            return CriterionResult(cid=cid, title=title, passed=checker.passed, details=checker.details)
    raise ValueError(f"no criterion {cid}")


def run_acceptance(seed: int = 0, as_printed: Iterable[str] = ()) -> list[CriterionResult]:
    return [run_criterion(cid, seed=seed, as_printed=as_printed) for cid in criterion_ids()]


def format_report(results: list[CriterionResult], verbose: bool = True) -> str:
    lines = []
    for r in results:
        lines.append(r.line())
        if verbose:
            lines.extend(f"    {d}" for d in r.details)
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} criteria passed")
    return "\n".join(lines)
