"""Boosts, the de Broglie map, lattice energy-momentum, total differences."""

import inspect
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from latticewave import (
    DomainError,
    GridSpec,
    INFINITE,
    LatticeStep,
    ParticleState,
    boost_matrix,
    debroglie_map,
    discrete_energy_momentum,
    energy_momentum_squared_exact,
    four_difference_invariant,
    phase_velocity,
    step_velocity,
    total_difference_mass_shell,
    transform_particle,
    transform_particle_scalar,
    transform_wave,
    transform_wave_scalar,
)
from latticewave.kinematics import _dot, _exact_interval, _exact_squares

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


class TestBoostMatrix:
    def test_zero_velocity_is_identity(self):
        np.testing.assert_array_equal(boost_matrix([0, 0, 0], 1.0), np.eye(4))

    def test_standard_entries_at_0p6c(self):
        # gamma = (1 - 0.36)^(-1/2) = 1.25 by hand
        L = boost_matrix([0.6, 0, 0], 1.0)
        assert L[0, 0] == pytest.approx(1.25, abs=1e-15)
        assert L[0, 1] == pytest.approx(-0.75, abs=1e-15)

    def test_metric_preservation(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.uniform(-0.5, 0.5, 3)
            L = boost_matrix(v, 1.0)
            np.testing.assert_allclose(L.T @ ETA @ L, ETA, rtol=0, atol=1e-13)

    def test_inverse_boost(self):
        v = np.array([0.3, -0.4, 0.5])
        L = boost_matrix(v, 1.0) @ boost_matrix(-v, 1.0)
        np.testing.assert_allclose(L, np.eye(4), rtol=0, atol=1e-12)

    def test_superluminal_rejected(self):
        with pytest.raises(DomainError):
            boost_matrix([1.0, 0, 0], 1.0)
        with pytest.raises(DomainError):
            boost_matrix([2.0, 1.0, 0], 2.0)


class TestTransformWave:
    def test_zero_boost_identity(self):
        w, k = transform_wave(1.7, [0.3, 0.2, -0.1], [0, 0, 0], 1.0)
        assert w == pytest.approx(1.7)
        np.testing.assert_allclose(k, [0.3, 0.2, -0.1])

    def test_light_wave_doppler(self):
        # gamma (w - v k) = 1.25 * 0.4 = 0.5
        w, k = transform_wave(1.0, [1.0, 0, 0], [0.6, 0, 0], 1.0)
        assert w == pytest.approx(0.5, abs=1e-14)
        np.testing.assert_allclose(k, [0.5, 0, 0], atol=1e-14)

    def test_boost_into_matching_rest_frame(self):
        w, k = transform_wave(1.25, [0.75, 0, 0], [0.6, 0, 0], 1.0)
        assert w == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(k, [0, 0, 0], atol=1e-14)

    def test_scalar_form_matches_matrix(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = rng.uniform(-2, 2, 3)
            if np.linalg.norm(k) < 1e-3:
                continue
            w = rng.uniform(0.5, 3.0)
            v = rng.uniform(-0.55, 0.55, 3)
            w_matrix, _ = transform_wave(w, k, v, 1.0)
            w_scalar = transform_wave_scalar(w, k, v, 1.0)
            assert w_matrix == pytest.approx(w_scalar, rel=1e-12, abs=1e-12)

    def test_zero_wavenumber_scalar_form_rejected(self):
        with pytest.raises(DomainError):
            transform_wave_scalar(1.0, [0, 0, 0], [0.5, 0, 0], 1.0)

    @pytest.mark.parametrize("w, k", [(5e-324, [0.0, 0.0, 0.0]), ([1.0, 5e-324], [[0.5, 0, 0], [0.0, 0, 0]])],
                             ids=["one", "in-a-stack"])
    def test_a_nonzero_w_boosted_to_0_is_a_domain_error(self, w, k):
        # w / c rounds to 0 at c = 2, so the boost would return w' = 0 for a nonzero w
        with pytest.raises(DomainError, match=re.escape("a nonzero w is boosted to w' = 0 at c = 2.0")):
            transform_wave(w, k, [0.5, 0, 0], 2.0)

    def test_a_zero_w_and_the_smallest_w_that_survives_c_are_boosted(self):
        assert transform_wave(0.0, [0.0, 0, 0], [0.5, 0, 0], 2.0)[0] == 0.0
        assert transform_wave(1e-323, [0.0, 0, 0], [0.5, 0, 0], 2.0)[0] > 0.0


class TestTransformParticle:
    def test_zero_boost_identity(self):
        s = ParticleState.from_momentum([0.4, -0.2, 0.1], 1.5, 1.0)
        out = transform_particle(s, [0, 0, 0], 1.0)
        assert out.E == pytest.approx(s.E)
        np.testing.assert_allclose(out.p, s.p)

    def test_boost_to_rest_frame(self):
        # E = sqrt(1 + 0.75^2) = 1.25, u = 0.6; boosting by u lands at rest
        s = ParticleState.from_momentum([0.75, 0, 0], 1.0, 1.0)
        out = transform_particle(s, [0.6, 0, 0], 1.0)
        assert out.E == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(out.p, [0, 0, 0], atol=1e-14)

    def test_massless_stays_lightlike(self):
        rng = np.random.default_rng(5)
        s = ParticleState.from_momentum([1.0, 0.5, -0.3], 0.0, 1.0)
        for _ in range(10):
            s = transform_particle(s, rng.uniform(-0.5, 0.5, 3), 1.0)
            assert s.E == pytest.approx(s.momentum_magnitude(), rel=1e-12)

    def test_scalar_form_matches_matrix(self):
        s = ParticleState.from_momentum([0.3, 0.4, 0.0], 1.2, 1.0)
        v = [0.2, -0.3, 0.4]
        out = transform_particle(s, v, 1.0)
        assert out.E == pytest.approx(transform_particle_scalar(s, v, 1.0), rel=1e-13)

    def test_mass_shell_preserved_under_boost_chains(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = ParticleState.from_momentum(rng.uniform(-2, 2, 3), rng.uniform(0.1, 3.0), 1.0)
            for _ in range(5):
                v = rng.uniform(-0.55, 0.55, 3)
                s = transform_particle(s, v, 1.0)
            assert s.mass_shell_residual(1.0) <= 1e-10

    def test_mass_shell_residual_is_the_relative_formula(self):
        # every term below is exact in binary, so the comparison can be ==
        s = ParticleState(E=2.0, p=[0.5, -1.0, 0.25], m0=1.5, u=[0.0, 0.0, 0.0])
        e2, p2c2, m2c4 = 4.0, 1.3125 * 1.5**2, 1.5**2 * 1.5**4
        assert s.mass_shell_residual(1.5) == abs(e2 - p2c2 - m2c4) / (e2 + p2c2 + m2c4)

    def test_invalid_state_rejected(self):
        bad = ParticleState(E=1.0, p=np.array([5.0, 0, 0]), m0=1.0, u=np.array([0.1, 0, 0]))
        with pytest.raises(DomainError):
            transform_particle(bad, [0.1, 0, 0], 1.0)

    def test_the_velocity_is_required_and_the_shell_tolerance_fixed(self):
        with pytest.raises(TypeError):
            ParticleState(E=1.0, p=[0.0, 0.0, 0.0], m0=1.0)  # type: ignore[call-arg]
        assert list(inspect.signature(ParticleState.validate).parameters) == ["self", "c"]
        assert list(inspect.signature(total_difference_mass_shell).parameters) == ["s", "s_next", "c"]
        # a shell residual of 5e-11 is inside SHELL_RTOL, one of 3e-10 outside it
        ParticleState(E=1.0 + 5e-11, p=[0.0, 0.0, 0.0], m0=1.0, u=[0.0, 0.0, 0.0]).validate(1.0)
        with pytest.raises(DomainError, match=r"> 1\.0e-10"):
            ParticleState(E=1.0 + 3e-10, p=[0.0, 0.0, 0.0], m0=1.0, u=[0.0, 0.0, 0.0]).validate(1.0)


class TestDeBroglie:
    def test_map_and_velocity_product(self):
        s = ParticleState.from_momentum([0.75, 0, 0], 1.0, 1.0)
        w, k = debroglie_map(s, 1.0)
        assert w == pytest.approx(1.25)
        np.testing.assert_allclose(k, [0.75, 0, 0])
        vphi = phase_velocity(w, k)
        assert vphi == pytest.approx(5.0 / 3.0)
        speed = float(np.linalg.norm(s.u))
        assert speed == pytest.approx(0.6)
        assert vphi * speed == pytest.approx(1.0, rel=1e-14)  # v_phi u = c^2

    def test_rest_state_has_symbolic_infinite_phase_velocity(self):
        s = ParticleState.from_momentum([0, 0, 0], 2.0, 1.0)
        w, k = debroglie_map(s, 1.0)
        assert phase_velocity(w, k) is INFINITE

    def test_photon_phase_velocity_is_c(self):
        s = ParticleState.from_momentum([2.0, 0, 0], 0.0, 1.0)
        w, k = debroglie_map(s, 1.0)
        assert phase_velocity(w, k) == pytest.approx(1.0)

    def test_group_velocity_is_particle_speed(self):
        """dE/dp by central finite differences equals |u| on the shell."""
        for p, m0 in [(0.75, 1.0), (2.0, 0.5), (0.1, 3.0)]:
            s = ParticleState.from_momentum([p, 0, 0], m0, 1.0)
            h = 1e-6
            e_plus = ParticleState.from_momentum([p + h, 0, 0], m0, 1.0).E
            e_minus = ParticleState.from_momentum([p - h, 0, 0], m0, 1.0).E
            assert (e_plus - e_minus) / (2 * h) == pytest.approx(float(np.linalg.norm(s.u)), rel=1e-8)


class TestFloatRange:
    """States whose energy or momentum squares leave the float range are domain errors."""

    @pytest.mark.parametrize("p, m0, c", [
        ([1e160, 0.0, 0.0], 1.0, 1.0),
        ([0.75, 0.0, 0.0], 1e160, 1.0),
        ([0.75, 0.0, 0.0], 1.0, 1e160),
        ([math.inf, 0.0, 0.0], 1.0, 1.0),
        ([math.nan, 0.0, 0.0], 1.0, 1.0),
    ])
    def test_from_momentum(self, p, m0, c):
        with pytest.raises(DomainError, match="float range"):
            ParticleState.from_momentum(p, m0, c)

    @pytest.mark.parametrize("m0, step, grid", [
        (1e160, LatticeStep(dn=2, dj=(1, 0, 0)), GridSpec()),
        (1e308, LatticeStep(dn=2, dj=(1, 0, 0)), GridSpec()),
        (1.0, LatticeStep(dn=2, dj=(1, 0, 0)), GridSpec(tau=1e160, eps=1e160)),
        (1e-200, LatticeStep(dn=1), GridSpec(tau=1e-200)),
        (5e-324, LatticeStep(dn=1), GridSpec(c=0.5)),
    ], ids=["E-squared", "E-itself", "interval", "interval-underflows", "E-underflows"])
    def test_discrete_energy_momentum(self, m0, step, grid):
        with pytest.raises(DomainError, match="float range"):
            discrete_energy_momentum(m0, step, grid)

    @pytest.mark.parametrize("p, m0, c, message", [
        ([1.0, 0.0, 0.0], 1.0, 1e-200, "underflows to 0 for m0 = 1.0, c = 1e-200"),
        ([0.0, 0.0, 0.0], 0.0, 1.0, "massless state needs nonzero momentum"),
    ], ids=["energy-underflows", "massless-at-rest"])
    def test_zero_energy(self, p, m0, c, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            ParticleState.from_momentum(p, m0, c)

    @pytest.mark.parametrize("p, m0, hbar", [([1.0, 0.0, 0.0], 1.0, 1e-320), ([1.0, 0.0, 0.0], 1.0, 5e-309),
                                             ([1e-20, 0.0, 0.0], 1e-20, 1e308)],
                             ids=["hbar-tiny", "hbar-subnormal", "w-underflows"])
    def test_de_broglie_map(self, p, m0, hbar):
        state = ParticleState.from_momentum(p, m0, 1.0)
        with pytest.raises(DomainError, match="float range"):
            debroglie_map(state, hbar)

    @pytest.mark.parametrize("k", [[1e160, 0.0, 0.0], [0.0, 7.5e-301, 0.0], [7.5e-161, 0.0, 0.0]],
                             ids=["overflows", "underflows", "subnormal-square"])
    def test_phase_velocity(self, k):
        with pytest.raises(DomainError, match="float range"):
            phase_velocity(1.0, k)

    @pytest.mark.parametrize("k", [1.5e-154, 7.5e-151, 1.0])
    def test_phase_velocity_on_a_normal_square_is_the_formula(self, k):
        assert k * k >= sys.float_info.min
        assert phase_velocity(1.25, [k, 0.0, 0.0]) == 1.25 / math.sqrt(k * k)

    def test_boosted_energy(self):
        state = ParticleState.from_momentum([1.2e154, 0.0, 0.0], 1.0, 1.0)
        with pytest.raises(DomainError, match="float range"):
            transform_particle(state, [-0.5, 0.0, 0.0], 1.0)

    def test_directly_built_state(self):
        state = ParticleState(E=1e200, p=[0.0, 0.0, 0.0], m0=1e200, u=[0.0, 0.0, 0.0])
        with pytest.raises(DomainError, match="float range"):
            transform_particle(state, [0.5, 0.0, 0.0], 1.0)

    def test_nan_mass_shell_residual_is_off_shell(self):
        # |p|^2 overflows, so the residual is inf/inf = NaN, which no bound admits
        state = ParticleState(E=1.0, p=[1e160, 0.0, 0.0], m0=0.0, u=[1e160, 0.0, 0.0])
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="off mass shell"):
            state.validate(1.0)

    @pytest.mark.parametrize("p, m0, c", [([0.75, 0.0, 0.0], 1.0, 1.0), ([3e153, 1e-200, 0.0], 1e150, 1.0),
                                          ([0.0, 0.0, 1e-150], 1e-100, 1e20)])
    def test_in_range_states_are_the_formulas(self, p, m0, c):
        state = ParticleState.from_momentum(p, m0, c)
        p = np.asarray(p)
        assert state.E == math.sqrt(float(p @ p) * c**2 + m0**2 * c**4)
        assert state.u.tobytes() == (p * c**2 / state.E).tobytes()


class TestDiscreteEnergyMomentum:
    def test_rest_step(self):
        s = discrete_energy_momentum(1.5, LatticeStep(dn=3), GridSpec())
        assert s.E == pytest.approx(1.5)
        np.testing.assert_array_equal(s.p, [0, 0, 0])

    def test_hand_example_5_3(self):
        # sqrt(25 - 9) = 4, so E = 5/4, p = 3/4, u = 3/5
        s = discrete_energy_momentum(1.0, LatticeStep(dn=5, dj=(3, 0, 0)), GridSpec())
        assert s.E == pytest.approx(1.25, abs=1e-15)
        assert s.p[0] == pytest.approx(0.75, abs=1e-15)
        assert s.u[0] == pytest.approx(0.6, abs=1e-15)

    def test_mass_shell_on_random_timelike_steps(self):
        rng = np.random.default_rng(8)
        grid = GridSpec(tau=0.7, eps=0.3, c=1.9)
        checked = 0
        while checked < 300:
            dn = int(rng.integers(1, 40))
            dj = tuple(int(x) for x in rng.integers(-15, 16, 3))
            cdt2 = (grid.c * dn * grid.tau) ** 2
            dx2 = sum((d * grid.eps) ** 2 for d in dj)
            if cdt2 <= dx2:
                continue
            m0 = float(rng.uniform(0.05, 5.0))
            s = discrete_energy_momentum(m0, LatticeStep(dn=dn, dj=dj), grid)
            assert s.mass_shell_residual(grid.c) <= 1e-12
            checked += 1

    def test_spacelike_and_lightlike_rejected(self):
        with pytest.raises(DomainError):
            discrete_energy_momentum(1.0, LatticeStep(dn=1, dj=(2, 0, 0)), GridSpec())
        with pytest.raises(DomainError):
            discrete_energy_momentum(1.0, LatticeStep(dn=1, dj=(1, 0, 0)), GridSpec())

    def test_velocity_exact_in_rational_arithmetic(self):
        """u from the step ratio equals |p| c^2 / E exactly, Fractions throughout."""
        rng = np.random.default_rng(9)
        grid = GridSpec(tau=0.625, eps=0.25, c=3.0)  # exact binary floats
        checked = 0
        while checked < 200:
            dn = int(rng.integers(1, 30))
            dj = tuple(int(x) for x in rng.integers(-8, 9, 3))
            if (Fraction(grid.c) * dn * Fraction(grid.tau)) ** 2 <= sum(
                (Fraction(d) * Fraction(grid.eps)) ** 2 for d in dj
            ):
                continue
            step = LatticeStep(dn=dn, dj=dj)
            m0 = Fraction(7, 3)
            E2, p2, u2 = energy_momentum_squared_exact(m0, step, grid)
            c = Fraction(grid.c)
            assert E2 - p2 * c * c == m0 * m0 * c**4
            if p2 > 0:
                assert u2 == p2 * c**4 / E2
            u = step_velocity(step, grid)
            expected = tuple(Fraction(d) * Fraction(grid.eps) / (dn * Fraction(grid.tau)) for d in dj)
            assert u == expected
            checked += 1


class TestLatticeStep:
    @pytest.mark.parametrize("dn, dj", [
        (True, (0, 0, 0)),
        (1, (True, 0, 0)),
        (0, (0, 0, 0)),
        (2.0, (0, 0, 0)),
        (1, (0, 0.0, 0)),
        (1, (0, 0)),
    ], ids=["bool-dn", "bool-dj", "zero-dn", "float-dn", "float-dj", "two-dj"])
    def test_rejected(self, dn, dj):
        with pytest.raises(DomainError):
            LatticeStep(dn=dn, dj=dj)


@pytest.mark.parametrize("m0", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("function", [discrete_energy_momentum, energy_momentum_squared_exact])
def test_non_finite_mass_is_a_domain_error(function, m0):
    with pytest.raises(DomainError, match="m0"):
        function(m0, LatticeStep(dn=2, dj=(1, 0, 0)), GridSpec())


# --- the exact kinematics, differentially against Fractions throughout -------
#
# The oracle is the straightforward Fraction formulation of the lattice
# kinematics: every intermediate is a Fraction and each float is
# float(Fraction) / sqrt(float(s)).


def oracle_exact_interval(step, grid):
    tau, eps, c = Fraction(grid.tau), Fraction(grid.eps), Fraction(grid.c)
    cdt = c * step.dn * tau
    dx = tuple(Fraction(d) * eps for d in step.dj)
    return cdt, dx, cdt * cdt - sum(x * x for x in dx)


def oracle_step_velocity(step, grid):
    dt = step.dn * Fraction(grid.tau)
    return tuple(Fraction(d) * Fraction(grid.eps) / dt for d in step.dj)


def oracle_discrete_energy_momentum(m0, step, grid):
    if m0 <= 0:
        raise DomainError("m0 <= 0")
    cdt, dx, s = oracle_exact_interval(step, grid)
    if s <= 0:
        raise DomainError("not timelike")
    m, c = Fraction(m0), Fraction(grid.c)
    try:
        root = math.sqrt(float(s))
        E = float(m * c * c * cdt) / root
        p = np.array([float(m * c * x) / root for x in dx])
        with np.errstate(over="ignore"):
            in_range = E > 0.0 and math.isfinite(E * E) and math.isfinite(p @ p)
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise DomainError("float range")
    u = np.array([float(ui) for ui in oracle_step_velocity(step, grid)])
    return E, p, u


def oracle_energy_momentum_squared_exact(m0, step, grid):
    cdt, dx, s = oracle_exact_interval(step, grid)
    if s <= 0:
        raise DomainError("not timelike")
    m, c = Fraction(m0), Fraction(grid.c)
    dx2 = sum(x * x for x in dx)
    return m * m * c**4 * cdt * cdt / s, m * m * c * c * dx2 / s, dx2 * c * c / (cdt * cdt)


def outcome(function, *args):
    """The function's result, or the type of the exception it raised."""
    try:
        return function(*args)
    except Exception as exc:  # the type is compared against the oracle's
        return type(exc)


MODERATE_CONSTANTS = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3),
    st.integers(min_value=1, max_value=10**6),
    st.sampled_from([0.1, 0.3, 1 / 3, 0.7, 1.9, 2.0]),
)
GRID_CONSTANTS = st.one_of(
    MODERATE_CONSTANTS,
    st.floats(min_value=1e-300, max_value=1e-290),
    st.floats(min_value=1e290, max_value=1e300),
    st.sampled_from([5e-324, 1.7976931348623157e308]),
)
GRIDS = st.one_of(
    st.builds(GridSpec, tau=MODERATE_CONSTANTS, eps=MODERATE_CONSTANTS, c=MODERATE_CONSTANTS),
    st.builds(GridSpec, tau=GRID_CONSTANTS, eps=GRID_CONSTANTS, c=GRID_CONSTANTS),
)
STEPS = st.builds(
    LatticeStep,
    dn=st.one_of(st.integers(1, 40), st.integers(1, 10**6)),
    dj=st.tuples(*[st.integers(-(10**6), 10**6) | st.integers(-12, 12)] * 3),
)
MASSES = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(min_value=0, max_value=10**9),
)


@settings(max_examples=600, deadline=None)
@given(m0=MASSES, step=STEPS, grid=GRIDS)
def test_integer_kinematics_match_the_fraction_oracle(m0, step, grid):
    (cn, cd), (a, b), (en, ed), d2, (s_num, s_den), (un, ud) = _exact_interval(step, grid)
    cdt, dx, s = oracle_exact_interval(step, grid)
    assert Fraction(cn, cd) == Fraction(grid.c)
    assert (Fraction(a, b), Fraction(en, ed) ** 2 * d2, Fraction(s_num, s_den)) == (cdt, sum(x * x for x in dx), s)
    assert Fraction(un, ud) == Fraction(grid.eps) / (step.dn * Fraction(grid.tau))  # u = (un / ud) dj

    assert step_velocity(step, grid) == oracle_step_velocity(step, grid)

    # the Fraction oracle squares any mass; the library needs m0 > 0, like discrete_energy_momentum
    expected = outcome(oracle_energy_momentum_squared_exact, m0, step, grid) if m0 > 0 else DomainError
    assert outcome(energy_momentum_squared_exact, m0, step, grid) == expected

    expected = outcome(oracle_discrete_energy_momentum, m0, step, grid)
    state = outcome(discrete_energy_momentum, m0, step, grid)
    if isinstance(expected, type):
        assert state is expected
    else:
        E, p, u = expected
        assert (state.E.hex(), state.p.tobytes(), state.u.tobytes()) == (E.hex(), p.tobytes(), u.tobytes())
        assert state.m0 == m0


@pytest.mark.parametrize("m0", [0.0, -0.0, -2.0, 0, Fraction(-1, 3)])
@pytest.mark.parametrize("entry", [_exact_squares, energy_momentum_squared_exact, discrete_energy_momentum])
def test_every_exact_entry_point_needs_a_positive_mass(entry, m0):
    # a negative mass breaks grid.check_mass, the one mass rule; a zero one the lattice map's own rule
    message = "needs m0 > 0" if m0 == 0 else f"m0 must be a finite number >= 0, got {m0!r}"
    with pytest.raises(DomainError, match=re.escape(message)):
        entry(m0, LatticeStep(3, (1, 0, 0)), GridSpec())


@pytest.mark.parametrize("m0, shown", [
    (True, "True"), (np.True_, "np.True_"), (np.array([True, True]), "True (row 0)"),
], ids=["True", "np.True_", "bool-array"])
@pytest.mark.parametrize("entry", [
    _exact_squares, energy_momentum_squared_exact, discrete_energy_momentum,
    lambda m0, step, grid: ParticleState.from_momentum([1.0, 0.0, 0.0], m0, grid.c),
], ids=["squares", "squared-exact", "energy-momentum", "from-momentum"])
def test_a_bool_is_no_rest_mass(entry, m0, shown):
    # as KGParams and dispersion rule: True would run as m0 = 1
    with pytest.raises(DomainError, match=f"^{re.escape(f'm0 must be a finite number >= 0, got {shown}')}$"):
        entry(m0, LatticeStep(2, (0, 0, 0)), GridSpec())


@pytest.mark.parametrize("dj, kind", [((1, 0, 0), "lightlike"), ((1, 1, 0), "spacelike")])
@pytest.mark.parametrize("entry", [_exact_squares, energy_momentum_squared_exact, discrete_energy_momentum])
def test_every_exact_entry_point_refuses_a_step_that_is_not_timelike_in_one_message(entry, dj, kind):
    with pytest.raises(DomainError) as one:
        entry(1.0, LatticeStep(1, dj), GridSpec())
    assert str(one.value) == (
        f"step LatticeStep(dn=1, dj={dj!r}) is {kind} on this grid; a massive state needs (c dt)^2 > |dx|^2")
    # rows 1 and 2 both fail; the message names the first
    stack = LatticeStep(dn=np.array([3, 1, 1]), dj=np.array([(1, 0, 0), dj, (5, 0, 0)]))
    with pytest.raises(DomainError) as stacked:
        entry(np.array([1.0, 1.0, 1.0]), stack, GridSpec())
    assert str(stacked.value) == f"{one.value} (row 1)"


ONE_STEP = (1.5, LatticeStep(3, (1, -2, 0)))
TWO_STEPS = (np.array([1.5, 0.25]), LatticeStep(dn=np.array([3, 7]), dj=np.array([(1, -2, 0), (0, 5, 2)])))


@pytest.mark.parametrize("entry, m0, step", [
    (_exact_squares, *ONE_STEP), (_exact_squares, *TWO_STEPS), (energy_momentum_squared_exact, *ONE_STEP),
    (discrete_energy_momentum, *ONE_STEP), (discrete_energy_momentum, *TWO_STEPS),
], ids=["squares", "squares-stacked", "squared-exact", "energy-momentum", "energy-momentum-stacked"])
def test_every_exact_entry_point_derives_the_mass_ratio_and_the_interval_once(exact_derivations, entry, m0, step):
    entry(m0, step, GridSpec(tau=0.7, eps=0.3, c=1.9))
    assert exact_derivations == {"_mass_ratio": 1, "_exact_interval": 1}


# --- a stacked step is its rows, bit for bit --------------------------------

# the checks of discrete_energy_momentum, in the order it runs them, by a phrase of each message
CHECK_ORDER = ("m0 must be a finite number >= 0", "needs m0 > 0", "on this grid", "float range")


def check_of(message):
    return next(check for check in CHECK_ORDER if check in message)


def outcome_or_message(function, *args):
    """The function's result, or the message of the DomainError it raised."""
    try:
        return function(*args)
    except DomainError as exc:
        return str(exc)


# c tau > 12 sqrt(3) eps: every step of TIMELIKE_LEANING_STEPS is timelike on these grids
NON_DYADIC_GRIDS = st.sampled_from([GridSpec(tau=0.1, eps=0.1, c=100 / 3), GridSpec(tau=0.7, eps=0.03, c=1.9)])
STACK_GRIDS = st.one_of(GRIDS, NON_DYADIC_GRIDS, NON_DYADIC_GRIDS)
TIMELIKE_LEANING_STEPS = st.builds(LatticeStep, dn=st.integers(1, 10**6), dj=st.tuples(*[st.integers(-12, 12)] * 3))
STACK_STEPS = st.one_of(STEPS, *[TIMELIKE_LEANING_STEPS] * 4)
MODERATE_MASSES = st.floats(min_value=1e-3, max_value=1e3)
# mostly moderate masses, some near either end of the float range (E^2 overflows past about 1e154)
STACK_MASSES = st.one_of(
    MODERATE_MASSES, MODERATE_MASSES, MODERATE_MASSES, MODERATE_MASSES,
    st.floats(min_value=5e-324, max_value=1e-290),
    st.floats(min_value=1e140, max_value=1e160),
)
BAD_MASSES = st.sampled_from([0.0, -1.0, math.nan, math.inf])


@settings(max_examples=400, deadline=None)
@given(rows=st.lists(st.tuples(STACK_STEPS, STACK_MASSES), min_size=1, max_size=6), grid=STACK_GRIDS,
       bad_mass=st.none() | st.tuples(st.integers(0, 17), BAD_MASSES))  # a row past the end: no bad mass
@example(rows=[(LatticeStep(dn=7, dj=(-3, 2, 0)), 0.3), (LatticeStep(dn=5, dj=(1, -1, 1)), 1e-300),
               (LatticeStep(dn=40, dj=(-12, 12, -12)), 1e150)], grid=GridSpec(tau=0.1, eps=0.3, c=1 / 3),
         bad_mass=None)
@example(rows=[(LatticeStep(dn=3, dj=(1, 0, 0)), 1.0), (LatticeStep(dn=1, dj=(-1, 0, 0)), 1.0),
               (LatticeStep(dn=1, dj=(2, 0, 0)), 1.0)], grid=GridSpec(), bad_mass=None)
def test_stacked_lattice_state_is_its_rows(rows, grid, bad_mass):
    if bad_mass and bad_mass[0] < len(rows):
        rows[bad_mass[0]] = (rows[bad_mass[0]][0], bad_mass[1])
    steps, masses = zip(*rows)
    stack = LatticeStep(dn=np.array([s.dn for s in steps]), dj=np.array([s.dj for s in steps]))
    one_row = [outcome_or_message(discrete_energy_momentum, m0, step, grid) for step, m0 in rows]
    errors = [(CHECK_ORDER.index(check_of(r)), i) for i, r in enumerate(one_row) if isinstance(r, str)]
    if errors:
        # the stack runs each check over all rows, in order, and names the first row that fails it
        _, i = min(errors)
        with pytest.raises(DomainError) as exc:
            discrete_energy_momentum(np.array(masses), stack, grid)
        assert str(exc.value) == f"{one_row[i]} (row {i})"
        return
    state = discrete_energy_momentum(np.array(masses), stack, grid)
    for i, one in enumerate(one_row):
        assert (one.E.hex(), one.p.tobytes(), one.u.tobytes()) == (
            state.E[i].hex(), state.p[i].tobytes(), state.u[i].tobytes())


@pytest.mark.parametrize("dn, dj, message", [
    ([1, 2, 0], [(0, 0, 0)] * 3, r"dn must be a positive integer, got 0 \(row 2\)"),
    ([1, True], [(0, 0, 0)] * 2, r"dn must be a positive integer, got True \(row 1\)"),
    ([1, 2], [(0, 0, 0), (0, False, 0)], r"dj must be three integers, got \(0, False, 0\) \(row 1\)"),
    ([1, 2], [(0, 0, 0)], "dj must be three integers"),
])
def test_stacked_step_rejections_name_the_first_bad_row(dn, dj, message):
    with pytest.raises(DomainError, match=message):
        LatticeStep(dn=dn, dj=dj)


class TestTotalDifference:
    def test_equal_states_give_exact_zeros(self):
        s = ParticleState.from_momentum([0.75, 0, 0], 1.0, 1.0)
        r23, r24 = total_difference_mass_shell(s, s, 1.0)
        assert r23 == 0.0
        assert r24 == 0.0
        assert four_difference_invariant(s, s, 1.0) == 0.0

    def test_hand_pair_residuals(self):
        # E(0.75) = 1.25, E(1.0) = sqrt(2); both on the m0 = 1 shell
        a = ParticleState.from_momentum([0.75, 0, 0], 1.0, 1.0)
        b = ParticleState.from_momentum([1.0, 0, 0], 1.0, 1.0)
        r23, r24 = total_difference_mass_shell(a, b, 1.0)
        assert abs(r23) <= 1e-12
        assert abs(r24) <= 1e-12

    def test_invariant_vanishes_for_consecutive_free_particle_events(self):
        """A free particle carries one momentum through consecutive events, so the
        difference four-vector is zero and its Minkowski square vanishes exactly."""
        grid = GridSpec()
        step = LatticeStep(dn=5, dj=(3, 0, 0))
        s_event1 = discrete_energy_momentum(1.0, step, grid)
        s_event2 = discrete_energy_momentum(1.0, step, grid)
        assert four_difference_invariant(s_event1, s_event2, grid.c) == 0.0

    def test_invariant_for_distinct_momenta_is_negative_documented(self):
        """For distinct on-shell momenta the difference four-vector is spacelike:
        the invariant equals 3.5 - 2.5 sqrt(2) (about -0.0355) for the hand pair,
        not zero. Documented deviation from the idealized frame argument, which
        applies only when the momentum is unchanged between events."""
        a = ParticleState.from_momentum([0.75, 0, 0], 1.0, 1.0)
        b = ParticleState.from_momentum([1.0, 0, 0], 1.0, 1.0)
        value = four_difference_invariant(a, b, 1.0)
        assert value == pytest.approx(3.5 - 2.5 * math.sqrt(2.0), rel=1e-12)
        assert value < -1e-3

    def test_average_velocity_relation_on_random_pairs(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            m0 = rng.uniform(0.1, 3.0)
            a = ParticleState.from_momentum([rng.uniform(-3, 3), 0, 0], m0, 1.0)
            b = ParticleState.from_momentum([rng.uniform(-3, 3), 0, 0], m0, 1.0)
            r23, r24 = total_difference_mass_shell(a, b, 1.0)
            assert abs(r23) <= 1e-10 * max(a.E, b.E) ** 2
            assert abs(r24) <= 1e-10 * max(a.E, b.E)

    def test_residuals_vanish_at_c_2_with_oblique_momenta(self):
        # u_avg = c^2 (p + p')/(E + E'): without its c^2 the dE residual is of order dE itself
        rng = np.random.default_rng(13)
        c = 2.0
        for _ in range(200):
            m0 = rng.uniform(0.1, 3.0)
            a = ParticleState.from_momentum(rng.uniform(-3, 3, 3), m0, c)
            b = ParticleState.from_momentum(rng.uniform(-3, 3, 3), m0, c)
            r23, r24 = total_difference_mass_shell(a, b, c)
            scale = max(a.E, b.E)
            assert abs(r23) <= 1e-12 * scale**2 / c**2
            assert abs(r24) <= 1e-12 * scale

    def test_different_shells_rejected(self):
        a = ParticleState.from_momentum([0.5, 0, 0], 1.0, 1.0)
        b = ParticleState.from_momentum([0.5, 0, 0], 2.0, 1.0)
        with pytest.raises(DomainError):
            total_difference_mass_shell(a, b, 1.0)


def test_transform_equivalence_of_wave_and_particle_pairs():
    """Boosting (E, p)/hbar as a wave or boosting the particle then dividing by
    hbar gives the same numbers: the two four-vectors are proportional."""
    rng = np.random.default_rng(12)
    hbar = 1.0
    for _ in range(500):
        s = ParticleState.from_momentum([rng.uniform(-3, 3), 0, 0], rng.uniform(0.05, 5.0), 1.0)
        w, k = debroglie_map(s, hbar)
        v = [rng.uniform(-0.9, 0.9), 0, 0]
        wp, kp = transform_wave(w, k, v, 1.0)
        sp = transform_particle(s, v, 1.0)
        scale = max(abs(sp.E), float(np.max(np.abs(sp.p))))
        assert abs(wp - sp.E / hbar) <= 1e-12 * scale
        assert float(np.max(np.abs(kp - sp.p / hbar))) <= 1e-12 * scale


# --- stacks: every row of a batched call is the one-row call -------------------

ROW_FLOATS = st.floats(min_value=-100, max_value=100).map(lambda x: 0.0 if abs(x) < 1e-100 else x)
ROWS = st.lists(st.tuples(st.tuples(ROW_FLOATS, ROW_FLOATS, ROW_FLOATS), st.floats(min_value=1e-3, max_value=100),
                          st.tuples(*[st.floats(min_value=-0.57, max_value=0.57)] * 3)), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(rows=ROWS, c=st.sampled_from([1.0, 2.0, 0.3]) | st.floats(min_value=0.1, max_value=10))
# at these masses libm pow(m0, 2) and m0 * m0 give E one ulp apart
@example(rows=[((1.0, 0.0, 0.0), 10.557927, (0.5, 0.0, 0.0)), ((1.0, 0.0, 0.0), 6.751627, (0.0, 0.25, 0.0))], c=1.0)
def test_stacked_rows_are_the_one_row_calls(rows, c):
    """Oblique momenta and boosts (|v| < c); a stack must carry each row's bits exactly."""
    assume(all(any(row[0]) for row in rows))  # the printed w' law needs k != 0
    p, m0, v = (np.array(column) for column in zip(*rows))
    v = v * c
    L = boost_matrix(v, c)
    s = ParticleState.from_momentum(p, m0, c)
    wp, kp = transform_wave(s.E, s.p, v, c)
    sp = transform_particle(s, v, c)
    w_printed, e_printed = transform_wave_scalar(s.E, s.p, v, c), transform_particle_scalar(s, v, c)
    r23, r24 = total_difference_mass_shell(s, sp, c)
    invariant = four_difference_invariant(s, sp, c)
    for i, (p_i, m0_i, v_i) in enumerate(rows):
        v_i = list(np.array(v_i) * c)
        assert L[i].tobytes() == boost_matrix(v_i, c).tobytes()
        one = ParticleState.from_momentum(list(p_i), m0_i, c)
        assert (s.E[i], s.p[i].tobytes(), s.u[i].tobytes()) == (one.E, one.p.tobytes(), one.u.tobytes())
        w_i, k_i = transform_wave(one.E, one.p, v_i, c)
        assert (wp[i], kp[i].tobytes()) == (w_i, k_i.tobytes())
        one_p = transform_particle(one, v_i, c)
        assert (sp.E[i], sp.p[i].tobytes(), sp.u[i].tobytes()) == (one_p.E, one_p.p.tobytes(), one_p.u.tobytes())
        assert (w_printed[i], e_printed[i]) == (transform_wave_scalar(one.E, one.p, v_i, c),
                                                transform_particle_scalar(one, v_i, c))
        assert (r23[i], r24[i]) == total_difference_mass_shell(one, one_p, c)
        assert invariant[i] == four_difference_invariant(one, one_p, c)


def stack_major_boost_matrix(v, c):
    """boost_matrix as it was before it was built component-major: every entry indexed as L[..., i, j]."""
    beta = np.asarray(v, dtype=float) / c
    b2 = _dot(beta, beta)
    g = 1.0 / np.sqrt(1.0 - b2)
    L = np.empty(b2.shape + (4, 4))
    L[..., 0, 0] = g
    L[..., 0, 1:] = L[..., 1:, 0] = -g[..., None] * beta
    with np.errstate(divide="ignore", invalid="ignore"):
        spatial = ((g - 1.0) / b2)[..., None, None] * (beta[..., :, None] * beta[..., None, :])
    L[..., 1:, 1:] = np.eye(3) + np.where((b2 > 0.0)[..., None, None], spatial, 0.0)
    return L


def boost_stacks():
    """Velocities as one vector and as (n, 3) and (k, n, 3) stacks, with zero rows, signed zeros and speeds
    from near c down to 1e-170 of it."""
    rng = np.random.default_rng(11)
    for c in (2.0, 3.0, 3e8):
        yield np.array([0.3, -0.2, 0.1]) * c, c
        yield np.array([0.0, -0.0, 0.0]), c
        for shape in ((50, 3), (4, 7, 3)):
            v = rng.uniform(-0.57, 0.57, shape) * c
            v *= 10.0 ** -rng.integers(0, 171, shape[:-1])[..., None]
            v[..., 0][rng.random(shape[:-1]) < 0.2] = -0.0
            v.reshape(-1, 3)[::5] = 0.0
            yield v, c


@pytest.mark.parametrize("v, c", boost_stacks())
def test_boost_matrix_is_the_stack_major_build_bit_for_bit(v, c):
    L = boost_matrix(v, c)
    assert L.flags.c_contiguous and L.shape == v.shape[:-1] + (4, 4)
    assert L.tobytes() == stack_major_boost_matrix(v, c).tobytes()


# --- library guards: every refusal, through the call that reaches it -------------------------------------------

STATE = ParticleState.from_momentum([1.0, 0, 0], 1.0, 1.0)
# on the massless shell to 1e-11, inside SHELL_RTOL, and just outside the light cone: validate checks the
# shell to SHELL_RTOL, not |p| c <= E, so it accepts this state, and a boost with |v| < c then gives E' <= 0.
# The boosted-energy row reaches transform_particle's non-positive-energy guard this way
SPACELIKE_BY_ROUNDING = ParticleState(E=1.0, p=[1 + 1e-11, 0, 0], m0=0.0, u=[1 + 1e-11, 0, 0])
# a NaN velocity gives a NaN deviation from p c^2 / E, which no tolerance comparison refuses on its own
NAN_VELOCITY = ParticleState.from_momentum([0.75, 0, 0], 1.0, 1.0)
NAN_VELOCITY.u = np.array([np.nan, 0.0, 0.0])
NAN_VELOCITY_ROW = ParticleState.from_momentum([[0.75, 0, 0], [0, 0.5, 0], [0, 0, -1.0]], 1.0, 1.0)
NAN_VELOCITY_ROW.u[1, 2] = np.nan
# a massless state at an infinite speed is within its own tolerance SHELL_RTOL * |u| = inf
INFINITE_VELOCITY = ParticleState(E=1.0, p=[1.0, 0, 0], m0=0.0, u=[np.inf, 0, 0])


@pytest.mark.parametrize("call, message", [
    (lambda: boost_matrix([0.1, 0.2], 1.0), "expected a 3-vector"),
    (lambda: boost_matrix([0.1, 0, 0], 0.0), "^c must be a finite positive number, got 0.0$"),
    (lambda: transform_particle_scalar(STATE, [1.0, 0, 0], 1.0), r"\|v\| < c"),
    (lambda: ParticleState.from_momentum([1.0, 0, 0], -1.0, 1.0), "^m0 must be a finite number >= 0, got -1.0$"),
    (lambda: STATE.mass_shell_residual(1e100), "leaves the float range"),  # c**4 raises OverflowError
    # the state's m0 is shown by its size: repr refuses an int of more than 4300 digits
    (lambda: ParticleState(E=1.0, p=[0, 0, 0], m0=10**5000, u=[0, 0, 0]).validate(1.0),
     r"^E\^2 or m0\^2 c\^4 leaves the float range for E = 1.0, m0 = an int of 16610 bits at c = 1.0$"),
    (lambda: transform_particle(ParticleState(E=1.0, p=[0, 0, 0], m0=-1.0, u=[0, 0, 0]), [0, 0, 0], 1.0),
     "^m0 must be a finite number >= 0, got -1.0$"),
    (lambda: transform_particle(ParticleState(E=-1.0, p=[0, 0, 0], m0=1.0, u=[0, 0, 0]), [0, 0, 0], 1.0),
     "energy must be positive"),
    (lambda: transform_particle(ParticleState(E=1.0, p=[0, 0, 0], m0=1.0, u=[0.5, 0, 0]), [0, 0, 0], 1.0),
     "velocity inconsistent"),
    (lambda: transform_particle(NAN_VELOCITY, [0.5, 0, 0], 1.0), "^velocity inconsistent with p c\\^2 / E$"),
    (lambda: transform_particle(NAN_VELOCITY_ROW, [0.5, 0, 0], 1.0), "^velocity inconsistent with p c\\^2 / E$"),
    (lambda: INFINITE_VELOCITY.validate(1.0), "^velocity inconsistent with p c\\^2 / E$"),
    (lambda: transform_particle(SPACELIKE_BY_ROUNDING, [1 - 1e-12, 0, 0], 1.0),
     r"non-positive energy: the state lies outside the light cone within SHELL_RTOL = 1e-10, "
     r"\|p\| c = 1\.00000000001 against E = 1\.0$"),
    (lambda: debroglie_map(STATE, 0.0), "^hbar must be a finite positive number, got 0.0$"),
    # c and hbar are read through grid.check_constant: a NaN c gave a NaN boost and NaN scalar laws, an infinite
    # one the identity, and from_momentum took a negative c
    *[(lambda c=c, call=call: call(c), f"^c must be a finite positive number, got {shown}$")
      for call in (lambda c: boost_matrix([0.1, 0, 0], c), lambda c: ParticleState.from_momentum([1.0, 0, 0], 1.0, c))
      for c, shown in ((math.nan, "nan"), (math.inf, "inf"), (-1.0, "-1.0"), (True, "True"))],
    (lambda: transform_wave_scalar(1.0, [1.0, 0, 0], [0.1, 0, 0], math.nan), "^c must be a finite positive number"),
    (lambda: transform_particle_scalar(STATE, [0.1, 0, 0], math.nan), "^c must be a finite positive number"),
    (lambda: debroglie_map(STATE, math.nan), "^hbar must be a finite positive number, got nan$"),
], ids=["vec3-shape", "boost-c", "gamma-speed", "from-momentum-mass", "shell-residual-overflow",
        "shell-residual-int-past-the-float-range", "validate-mass",
        "validate-energy", "validate-velocity", "validate-velocity-nan", "validate-velocity-nan-row",
        "validate-velocity-inf", "boosted-energy", "debroglie-hbar",
        *[f"{call}-c-{c}" for call in ("boost", "from-momentum") for c in ("nan", "inf", "negative", "bool")],
        "wave-scalar-c-nan", "particle-scalar-c-nan", "debroglie-hbar-nan"])
def test_every_kinematics_guard_refuses_its_input(call, message):
    with pytest.raises(DomainError, match=message):
        call()
