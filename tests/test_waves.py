"""Lattice plane waves, beats, and envelope velocity measurement."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latticewave import (
    BeatSpec,
    DomainError,
    FieldSlab,
    GridSpec,
    INFINITE,
    MeasurementError,
    SizeLimitError,
    WaveForm,
    WaveSpec,
    beat_field,
    beat_group_velocity,
    beat_phase_velocity,
    beat_product_form,
    beat_velocities,
    continuum_limit_error,
    eval_cayley,
    eval_exponential,
    eval_wave,
    measure_beat_velocity,
    sample_wave,
)
from latticewave import waves
from latticewave.waves import _refine_peak, _track_crests, _unimodular_power, beat_envelope


def reader(env_sq):
    """The squared-envelope reader of ``_track_crests`` over a whole nt x nx array."""
    return lambda n, lo, hi: env_sq[n, lo:hi]


class TestExponentialWave:
    def test_full_period_returns_one_exactly(self):
        spec = WaveSpec(form=WaveForm.EXPONENTIAL, N=7, M=5)
        assert eval_exponential(spec, 7, 0) == 1.0
        assert eval_exponential(spec, 0, 5) == 1.0

    def test_quarter_turn_is_exact_i(self):
        spec = WaveSpec(form=WaveForm.EXPONENTIAL, N=4, M=4)
        assert eval_exponential(spec, 1, 0) == 1j

    def test_quarter_turns_have_no_negative_zero(self):
        # a slab CSV writes repr() of each part, so a -0.0 would print as "-0.0"
        spec = WaveSpec(form=WaveForm.EXPONENTIAL, N=4, M=INFINITE)
        parts = [(z.real, z.imag) for z in (eval_exponential(spec, n, 0) for n in range(4))]
        assert [tuple(map(repr, p)) for p in parts] == [
            ("1.0", "0.0"), ("0.0", "1.0"), ("-1.0", "0.0"), ("0.0", "-1.0")]

    @given(st.integers(-200, 200), st.integers(-200, 200))
    def test_periodicity_is_bitwise(self, n, j):
        spec = WaveSpec(form=WaveForm.EXPONENTIAL, N=6, M=9)
        base = eval_exponential(spec, n, j)
        assert eval_exponential(spec, n + 6, j) == base
        assert eval_exponential(spec, n, j + 9) == base

    def test_pure_time_mode_ignores_space(self):
        spec = WaveSpec(form=WaveForm.EXPONENTIAL, N=5, M=INFINITE)
        assert eval_exponential(spec, 3, 0) == eval_exponential(spec, 3, 17)


class TestCayleyWave:
    def test_origin_returns_one(self):
        spec = WaveSpec(form=WaveForm.CAYLEY, N=4, M=6)
        assert eval_cayley(spec, 0, 0) == 1.0

    def test_unimodular_everywhere(self):
        rng = np.random.default_rng(0)
        spec = WaveSpec(form=WaveForm.CAYLEY, N=5, M=7)
        for _ in range(100):
            n, j = int(rng.integers(-500, 500)), int(rng.integers(-500, 500))
            assert abs(abs(eval_cayley(spec, n, j)) - 1.0) <= 1e-13

    def test_single_step_phase_against_closed_form(self):
        """arg of one time step equals arg((1 + i pi/4)/(1 - i pi/4)) = 2 atan(pi/4)."""
        spec = WaveSpec(form=WaveForm.CAYLEY, N=4, M=4)
        oracle = cmath.phase((1 + 1j * math.pi / 4) / (1 - 1j * math.pi / 4))
        assert oracle == pytest.approx(2 * math.atan(math.pi / 4), abs=1e-15)
        assert cmath.phase(eval_cayley(spec, 1, 0)) == pytest.approx(oracle, abs=1e-14)

    def test_phase_linear_in_both_indices(self):
        """Unwrapped phases fit straight lines with the advertised slopes."""
        spec = WaveSpec(form=WaveForm.CAYLEY, N=9, M=6)
        per_step, per_site = 2 * math.atan(math.pi / 9), -2 * math.atan(math.pi / 6)
        ns = np.arange(0, 120)
        phases_t = np.unwrap([cmath.phase(eval_cayley(spec, int(n), 0)) for n in ns])
        fit_t = np.polyfit(ns, phases_t, 1)
        assert fit_t[0] == pytest.approx(per_step, abs=1e-13)
        assert float(np.max(np.abs(np.polyval(fit_t, ns) - phases_t))) <= 1e-12
        js = np.arange(0, 120)
        phases_x = np.unwrap([cmath.phase(eval_cayley(spec, 0, int(j))) for j in js])
        fit_x = np.polyfit(js, phases_x, 1)
        assert fit_x[0] == pytest.approx(per_site, abs=1e-13)
        assert float(np.max(np.abs(np.polyval(fit_x, js) - phases_x))) <= 1e-12

    def test_power_helper_against_builtin(self):
        z = cmath.rect(1.0, 0.7321)
        for k in (0, 1, 2, 5, 17, -3, -40):
            assert _unimodular_power(z, k) == pytest.approx(z**k, rel=1e-12)

    def test_power_helper_stays_unimodular_for_huge_exponents(self):
        z = (1 + 1j * math.pi / 3) / (1 - 1j * math.pi / 3)
        assert abs(abs(_unimodular_power(z, 10**9)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("exponent", [2**64 - 1, 2**200 - 1, -(2**200 - 1)])
    def test_power_helper_renormalizes_its_result_every_64_multiplications(self, exponent):
        """Each set bit is one multiplication into the result. Unrenormalized, these drift by 1.1e-15 and
        1.3e-15; renormalized after every 64th, they stay within one ulp of the circle."""
        z = (1 + 1j * math.pi / 3) / (1 - 1j * math.pi / 3)
        assert abs(abs(_unimodular_power(z, exponent)) - 1.0) <= 2**-52



class TestSampleWave:
    @pytest.mark.parametrize("spec", [
        WaveSpec(form=WaveForm.EXPONENTIAL, N=6, M=9),
        WaveSpec(form=WaveForm.EXPONENTIAL, N=4, M=8),
        WaveSpec(form=WaveForm.EXPONENTIAL, N=5, M=INFINITE),
        WaveSpec(form=WaveForm.EXPONENTIAL, N=10**30, M=12),
        WaveSpec(form=WaveForm.CAYLEY, N=5, M=7),
        WaveSpec(form=WaveForm.CAYLEY, N=3, M=INFINITE),
        WaveSpec(form=WaveForm.CAYLEY, N=37, M=11),
    ])
    def test_every_site_is_bit_identical_to_eval_wave(self, spec):
        for nt, nx in ((1, 1), (40, 70), (13, 3)):
            psi = sample_wave(spec, nt, nx).psi
            reference = np.array([[eval_wave(spec, n, j) for j in range(nx)] for n in range(nt)])
            assert psi.shape == (nt, nx)
            assert np.array_equal(psi.view(np.float64), reference.view(np.float64))
            assert np.array_equal(np.signbit(psi.view(np.float64)), np.signbit(reference.view(np.float64)))

    def test_empty_extent_rejected(self):
        with pytest.raises(DomainError):
            sample_wave(WaveSpec(form=WaveForm.CAYLEY, N=3, M=4), 0, 4)


class TestContinuumLimit:
    def test_exponential_error_is_exactly_zero(self):
        for n, j in [(0, 0), (3, 5), (-7, 11), (100, -40)]:
            assert continuum_limit_error(WaveForm.EXPONENTIAL, 6, 8, n, j) == 0.0

    def test_symmetric_cancellation_on_diagonal(self):
        # n/N phase equals j/M phase, so both forms sit at 1
        assert continuum_limit_error(WaveForm.CAYLEY, 12, 12, 5, 5) <= 1e-13

    def test_cayley_error_never_exceeds_the_phase_bound(self):
        """|psi_cayley - psi_exp| <= |n| |2 atan(pi/N) - 2 pi/N| + |j| (analogue in M)."""
        rng = np.random.default_rng(33)
        for _ in range(50):
            N = int(rng.integers(2, 40))
            M = int(rng.integers(2, 40))
            n = int(rng.integers(-300, 300))
            j = int(rng.integers(-300, 300))
            bound = abs(n) * abs(2 * math.atan(math.pi / N) - 2 * math.pi / N) + abs(j) * abs(
                2 * math.atan(math.pi / M) - 2 * math.pi / M
            )
            assert continuum_limit_error(WaveForm.CAYLEY, N, M, n, j) <= bound + 1e-12

    def test_second_order_convergence_along_the_ray(self):
        """With n = N fixed on the ray n/N = 1, the error falls as 1/N^2."""
        errors = {N: continuum_limit_error(WaveForm.CAYLEY, N, INFINITE, N, 0) for N in (50, 100, 200)}
        ratio_1 = errors[50] / errors[100]
        ratio_2 = errors[100] / errors[200]
        assert ratio_1 == pytest.approx(4.0, rel=0.05)
        assert ratio_2 == pytest.approx(4.0, rel=0.05)
        slope = np.polyfit(np.log([50, 100, 200]), np.log([errors[50], errors[100], errors[200]]), 1)[0]
        assert -2.1 <= slope <= -1.9


class TestBeatField:
    def test_identical_modes_collapse_to_single_cosine(self):
        b = BeatSpec(T1=4.0, T2=4.0, lam1=3.0, lam2=3.0)
        slab = beat_field(b, GridSpec(), 16, 16)
        t = np.arange(16)[:, None]
        x = np.arange(16)[None, :]
        expected = 2.0 * np.cos(2 * np.pi * (t / 4.0 - x / 3.0))
        np.testing.assert_allclose(slab.psi.real, expected, rtol=0, atol=1e-14)

    def test_origin_value_is_exactly_two(self):
        b = BeatSpec(T1=4.0, T2=6.0, lam1=3.0, lam2=5.0)
        slab = beat_field(b, GridSpec(), 64, 64)
        assert slab.psi[0, 0] == 2.0 + 0.0j

    def test_product_identity_on_random_spec(self):
        """Superposed cosines equal the slow-times-fast factored form sitewise."""
        rng = np.random.default_rng(21)
        grid = GridSpec()
        for _ in range(5):
            while True:
                T1, T2 = rng.uniform(2.0, 6.0, 2)
                lam1, lam2 = rng.uniform(2.0, 6.0, 2)
                a = abs(1 / T1 - 1 / T2)
                bk = abs(1 / lam1 - 1 / lam2)
                if a >= 4.0 / 64 and bk >= 4.0 / 256:
                    break
            b = BeatSpec(T1=T1, T2=T2, lam1=lam1, lam2=lam2)
            direct = beat_field(b, grid, 64, 256).psi
            factored = beat_product_form(b, grid, 64, 256).psi
            assert direct.shape == factored.shape == (64, 256)
            assert float(np.max(np.abs(direct - factored))) <= 1e-12

    def test_grid_too_small_rejected(self):
        b = BeatSpec(T1=4.0, T2=6.0, lam1=3.0, lam2=5.0)
        with pytest.raises(DomainError):
            beat_field(b, GridSpec(), 8, 8)
        with pytest.raises(DomainError):
            beat_field(BeatSpec(T1=4.0, T2=4.0, lam1=3.0, lam2=3.0), GridSpec(), 0, 8)


class TestBeatVelocities:
    def test_hand_example_exact_fractions(self):
        from fractions import Fraction

        b = BeatSpec(T1=4.0, T2=6.0, lam1=3.0, lam2=5.0)
        v_phase, v_group = beat_velocities(b)
        vg_exact = (Fraction(1, 4) - Fraction(1, 6)) / (Fraction(1, 3) - Fraction(1, 5))
        vp_exact = (Fraction(1, 4) + Fraction(1, 6)) / (Fraction(1, 3) + Fraction(1, 5))
        assert vg_exact == Fraction(5, 8)
        assert vp_exact == Fraction(25, 32)
        assert v_group == pytest.approx(float(vg_exact), rel=1e-15)
        assert v_phase == pytest.approx(float(vp_exact), rel=1e-15)

    def test_degenerate_pair_phase_ok_group_undefined(self):
        b = BeatSpec(T1=3.0, T2=3.0, lam1=3.0, lam2=3.0)
        assert beat_phase_velocity(b) == pytest.approx(1.0)
        with pytest.raises(DomainError):
            beat_group_velocity(b)

    def test_light_cone_modes(self):
        b = BeatSpec(T1=3.0, T2=5.0, lam1=3.0, lam2=5.0)
        v_phase, v_group = beat_velocities(b)
        assert v_phase == pytest.approx(1.0, rel=1e-14)
        assert v_group == pytest.approx(1.0, rel=1e-14)

    def test_swap_invariance(self):
        b = BeatSpec(T1=4.0, T2=6.0, lam1=3.0, lam2=5.0)
        swapped = BeatSpec(T1=6.0, T2=4.0, lam1=5.0, lam2=3.0)
        assert beat_velocities(b) == pytest.approx(beat_velocities(swapped))

    def test_mass_shell_pairs_have_velocity_product_c_squared(self):
        """Modes pulled off w^2 = c^2 k^2 + (m0 c^2/hbar)^2 multiply to c^2."""
        rng = np.random.default_rng(22)
        for _ in range(200):
            c = rng.uniform(0.5, 3.0)
            m0 = rng.uniform(0.0, 2.0)
            hbar = rng.uniform(0.5, 2.0)
            k1, k2 = rng.uniform(0.2, 4.0, 2)
            if abs(k1 - k2) < 1e-3:
                continue
            w1 = math.sqrt(c**2 * k1**2 + (m0 * c**2 / hbar) ** 2)
            w2 = math.sqrt(c**2 * k2**2 + (m0 * c**2 / hbar) ** 2)
            b = BeatSpec(T1=2 * math.pi / w1, T2=2 * math.pi / w2, lam1=2 * math.pi / k1, lam2=2 * math.pi / k2)
            v_phase, v_group = beat_velocities(b)
            assert v_phase * v_group == pytest.approx(c**2, rel=1e-10)


class TestMeasureGroupVelocity:
    BEAT = BeatSpec(T1=4.0, T2=6.0, lam1=3.0, lam2=5.0)
    # (beat, grid, message) measured on 64 x 512 slabs whose envelope the sampling aliases
    ALIASED = [
        (BEAT, GridSpec(tau=1e160), "aliased"),
        (BEAT, GridSpec(tau=6.1), "aliased"),
        (BEAT, GridSpec(eps=1e304), "under-resolved"),
        (BEAT, GridSpec(eps=3.8), "under-resolved"),
        (BeatSpec(T1=4.0, T2=4.0, lam1=3.0, lam2=-3.0), GridSpec(), "under-resolved"),
    ]
    ALIASED_IDS = ["tau-huge", "half-spacing-per-step", "eps-huge", "under-two-sites", "standing-1.5-sites"]
    # (beat, nt, nx) the measurement refuses on the default grid: too few envelope periods, a flat envelope
    UNCOVERED = [(BEAT, 64, 32), (BeatSpec(T1=4.0, T2=4.0, lam1=3.0, lam2=3.0), 32, 32)]
    # (beat, nt, nx) with an extent that is no integer >= 1
    MISSHAPEN = [(BEAT, 256.5, 1024), (BEAT, 256, 1024.0), (BEAT, True, 1024), (BEAT, -256, 1024)]

    def test_measured_matches_analytic_within_two_percent(self):
        measured = measure_beat_velocity(self.BEAT, GridSpec(), 128, 512)
        assert measured == pytest.approx(0.625, rel=0.02)

    def test_standing_beat_measures_zero(self):
        b = BeatSpec(T1=4.0, T2=4.0, lam1=15.0, lam2=-15.0)
        measured = measure_beat_velocity(b, GridSpec(), 64, 64)
        assert abs(measured) <= 0.01

    @pytest.mark.parametrize("beat, grid, match", ALIASED, ids=ALIASED_IDS)
    def test_aliased_envelope_is_measurement_error(self, beat, grid, match):
        # crests 7.5 sites apart moving 0.625 sites per step at tau = eps = 1
        with pytest.raises(MeasurementError, match=match):
            measure_beat_velocity(beat, grid, 64, 512)

    @pytest.mark.parametrize("grid", [GridSpec(tau=5.9), GridSpec(eps=3.75)], ids=["under-half-spacing", "two-sites"])
    def test_envelope_just_inside_the_resolution_limits_is_measured(self, grid):
        measured = measure_beat_velocity(self.BEAT, grid, 64, 512)
        assert math.isfinite(measured)

    def test_error_halves_or_better_with_doubled_resolution(self):
        errors = []
        for scale in (1, 2):
            grid = GridSpec(tau=1.0 / scale, eps=1.0 / scale)
            measured = measure_beat_velocity(self.BEAT, grid, 128 * scale, 256 * scale)
            errors.append(abs(measured - 0.625))
        assert errors[1] <= 0.5 * errors[0]

    @pytest.mark.parametrize("tau, eps", [(1e160, 1.0), (1.0, 1e304), (0.5, 3.0)])
    def test_fitted_in_sites_per_step_then_scaled(self, tau, eps):
        # the grid only scales the fit: the squared envelope fixes the crest sites
        env_sq = reader(beat_envelope(self.BEAT, GridSpec(), 128, 512) ** 2)
        sites_per_step = _track_crests(env_sq, 128, 512, 7.5, GridSpec())
        assert _track_crests(env_sq, 128, 512, 7.5, GridSpec(tau=tau, eps=eps)) == sites_per_step * eps / tau != 0.0

    def test_velocity_past_the_float_range_is_domain_error(self):
        env_sq = reader(beat_envelope(self.BEAT, GridSpec(), 128, 512) ** 2)
        with pytest.raises(DomainError, match="float range"):
            _track_crests(env_sq, 128, 512, 7.5, GridSpec(tau=1e-10, eps=1e308))

    def test_flat_envelope_is_measurement_error(self):
        b, nt, nx = self.UNCOVERED[1]
        with pytest.raises(MeasurementError):
            measure_beat_velocity(b, GridSpec(), nt, nx)

    def test_too_few_envelope_periods_rejected(self):
        b, nt, nx = self.UNCOVERED[0]
        with pytest.raises(DomainError):
            measure_beat_velocity(b, GridSpec(), nt, nx)

    @pytest.mark.parametrize("beat", [
        BEAT, BeatSpec(T1=4.0, T2=4.0, lam1=15.0, lam2=-15.0), BeatSpec(T1=5.0, T2=7.0, lam1=4.0, lam2=9.0),
    ], ids=["traveling", "standing", "slower"])
    @pytest.mark.parametrize("grid", [GridSpec(), GridSpec(tau=0.5, eps=0.5)], ids=["unit", "half"])
    def test_beat_tracking_needs_no_field(self, beat, grid, sampled_beat_measurement):
        measured = measure_beat_velocity(beat, grid, 256, 512)
        assert measured == sampled_beat_measurement(beat, grid, 256, 512)
        assert measured == pytest.approx(beat_group_velocity(beat), abs=0.02)

    @pytest.mark.parametrize("beat, grid, nt, nx", [
        *((beat, grid, 64, 512) for beat, grid, _ in ALIASED),
        *((beat, GridSpec(), nt, nx) for beat, nt, nx in UNCOVERED),
        *((beat, GridSpec(), nt, nx) for beat, nt, nx in MISSHAPEN),
    ], ids=[*ALIASED_IDS, "too-few-periods", "flat-envelope", "half-row", "float-columns", "bool-rows",
            "negative-rows"])
    def test_beat_tracking_refuses_what_the_field_measurement_refuses(self, beat, grid, nt, nx,
                                                                      sampled_beat_measurement):
        with pytest.raises((DomainError, MeasurementError)) as from_field:
            sampled_beat_measurement(beat, grid, nt, nx)
        with pytest.raises((DomainError, MeasurementError)) as from_beat:
            measure_beat_velocity(beat, grid, nt, nx)
        assert type(from_beat.value) is type(from_field.value)
        assert str(from_beat.value) == str(from_field.value)


@pytest.mark.parametrize("fields", [
    {"T1": 1e-320}, {"lam1": 1e-320}, {"T1": 1e-308, "T2": 1e-308}, {"lam1": -1e-308, "lam2": 1e-308},
], ids=["reciprocal-T1", "reciprocal-lam1", "frequency-sum", "wavenumber-difference"])
def test_beat_spec_reciprocals_must_be_finite(fields):
    with pytest.raises(DomainError, match="float range"):
        BeatSpec(**{"T1": 4.0, "T2": 6.0, "lam1": 3.0, "lam2": 5.0, **fields})


def test_wavespec_validation():
    with pytest.raises(DomainError):
        WaveSpec(form=WaveForm.CAYLEY, N=1, M=4)
    with pytest.raises(DomainError):
        WaveSpec(form=WaveForm.CAYLEY, N=4, M=1)
    with pytest.raises(DomainError):
        BeatSpec(T1=0.0, T2=1.0, lam1=1.0, lam2=2.0)


def outcome(call):
    """The value of call(), or the type and message of what it raised."""
    try:
        return ("value", call())
    except Exception as exc:
        return (type(exc), str(exc))


DEFAULT_BEAT = BeatSpec(T1=4.0, T2=6.0, lam1=3.0, lam2=5.0)
BEAT_SLABS = [
    (DEFAULT_BEAT, GridSpec(), 256, 1024),
    (DEFAULT_BEAT, GridSpec(), 64, 128),
    *((DEFAULT_BEAT, GridSpec(), nt, 1024) for nt in (-3, 0, 1, 3, 4, 5)),
    *((DEFAULT_BEAT, GridSpec(), 256, nx) for nx in (-1, 0, 1, 7, 20)),
    (DEFAULT_BEAT, GridSpec(), 100_000, 100_000),
    *((BeatSpec(T1=4.0, T2=4.0, lam1=3.0, lam2=5.0), GridSpec(), nt, 1024) for nt in (-2, 0, 3, 64)),
    *((BeatSpec(T1=4.0, T2=6.0, lam1=3.0, lam2=3.0), GridSpec(), 64, nx) for nx in (0, 5, 128)),
    (BeatSpec(T1=1e-307, T2=6.0, lam1=3.0, lam2=5.0), GridSpec(), 256, 1024),
    (DEFAULT_BEAT, GridSpec(tau=1e307), 256, 1024),
    (DEFAULT_BEAT, GridSpec(tau=1e160), 256, 1024),
    (DEFAULT_BEAT, GridSpec(eps=1e304), 256, 1024),
    (BeatSpec(T1=-4.0, T2=6.0, lam1=3.0, lam2=-5.0), GridSpec(tau=0.5, eps=0.25), 128, 2048),
    # crests whose windowed refinement must read (lo + k) + delta: k + delta + lo rounds differently here
    (BeatSpec(T1=4.0, T2=11.0, lam1=3.0, lam2=13.0), GridSpec(), 256, 1024),
    (BeatSpec(T1=5.0, T2=9.0, lam1=7.0, lam2=13.0), GridSpec(), 256, 512),
]


def parent_track_crests(env_sq, crest_sites, grid):
    """_track_crests as it was before it read windows: the whole squared envelope, indexed by site."""
    nt, nx = env_sq.shape
    period_sites = 2.0 * crest_sites
    radius = max(2, int(round(crest_sites / 2.0)))
    if nx < 2 * (radius + 2) + 3:
        raise DomainError("slab too narrow to track the envelope away from its edges")

    def refine(row, j):
        ym, y0, yp = row[j - 1], row[j], row[j + 1]
        denom = ym - 2.0 * y0 + yp
        if denom == 0.0:
            return float(j)
        return j + float(min(max(0.5 * (ym - yp) / denom, -0.5), 0.5))

    lo0, hi0 = nx // 4, max(nx // 4 + 1, (3 * nx) // 4)
    positions = np.empty(nt)
    positions[0] = refine(env_sq[0], min(max(lo0 + int(np.argmax(env_sq[0][lo0:hi0])), 1), nx - 2))
    velocity_guess = 0.0
    for n in range(1, nt):
        predicted = positions[n - 1] + velocity_guess
        hops = round((predicted - nx / 2.0) / period_sites)
        center = int(round(predicted - hops * period_sites))
        lo, hi = max(1, center - radius), min(nx - 2, center + radius)
        positions[n] = refine(env_sq[n], lo + int(np.argmax(env_sq[n][lo : hi + 1]))) + hops * period_sites
        velocity_guess = positions[n] - positions[n - 1]
    return float(np.polyfit(np.arange(nt), positions, 1)[0]) * grid.eps / grid.tau


def numpy_scalar_track_crests(env_sq, nt, nx, crest_sites, grid):
    """_track_crests as it was before it refined on Python floats: numpy float64 scalars read from
    each window, and the positions in a float64 array."""
    period_sites = 2.0 * crest_sites
    radius = max(2, int(round(crest_sites / 2.0)))

    def refine(row, k, lo):
        ym, y0, yp = row[k - 1], row[k], row[k + 1]
        denom = ym - 2.0 * y0 + yp
        if denom == 0.0:
            return float(lo + k)
        delta = 0.5 * (ym - yp) / denom
        return (lo + k) + float(min(max(delta, -0.5), 0.5))

    def measure_slice(n, predicted):
        hops = round((predicted - nx / 2.0) / period_sites)
        center = int(round(predicted - hops * period_sites))
        lo, hi = max(1, center - radius), min(nx - 2, center + radius)
        window = env_sq(n, lo - 1, hi + 2)
        return refine(window, 1 + int(np.argmax(window[1 : hi - lo + 2])), lo - 1) + hops * period_sites

    lo0, hi0 = nx // 4, max(nx // 4 + 1, (3 * nx) // 4)
    row = env_sq(0, lo0 - 1, hi0 + 1)
    positions = np.empty(nt)
    positions[0] = refine(row, 1 + int(np.argmax(row[1:-1])), lo0 - 1)
    velocity_guess = 0.0
    for n in range(1, nt):
        positions[n] = measure_slice(n, positions[n - 1] + velocity_guess)
        velocity_guess = positions[n] - positions[n - 1]
    return float(np.polyfit(np.arange(nt), positions, 1)[0]) * grid.eps / grid.tau


MEASURED_SLABS = [case for case in BEAT_SLABS if outcome(lambda: measure_beat_velocity(*case))[0] == "value"]


@pytest.mark.parametrize("beat, grid, nt, nx", MEASURED_SLABS)
def test_the_windowed_tracker_is_the_whole_row_tracker_bit_for_bit(beat, grid, nt, nx):
    env_sq = beat_envelope(beat, grid, nt, nx) ** 2
    crest_sites = (2.0 / abs(beat.wavenum_diff)) / grid.eps / 2.0
    want = parent_track_crests(env_sq, crest_sites, grid)
    assert numpy_scalar_track_crests(reader(env_sq), nt, nx, crest_sites, grid).hex() == want.hex()
    assert _track_crests(reader(env_sq), nt, nx, crest_sites, grid).hex() == want.hex()
    assert measure_beat_velocity(beat, grid, nt, nx).hex() == want.hex()


@pytest.mark.parametrize("beat, grid, nt, nx", BEAT_SLABS)
def test_measure_beat_velocity_is_the_measurement_of_the_sampled_field(beat, grid, nt, nx, sampled_beat_measurement):
    """The same value, or the same error type and message in the same order, without the field."""
    want = outcome(lambda: sampled_beat_measurement(beat, grid, nt, nx))
    assert outcome(lambda: measure_beat_velocity(beat, grid, nt, nx)) == want


def test_the_beat_slab_cases_reach_every_outcome():
    kinds = {outcome(lambda: measure_beat_velocity(*case))[0] for case in BEAT_SLABS}
    assert kinds == {"value", DomainError, MeasurementError, SizeLimitError}


def exact_outcome(call):
    """outcome(call) with a value compared by its bits."""
    kind, value = outcome(call)
    return (kind, value.hex()) if kind == "value" else (kind, value)


@st.composite
def beat_slabs(draw):
    """A beat, a grid and extents, many of them near the limits the measurement checks.

    The crest spacing is drawn first, so that it lands near the 2-site
    aliasing limit, and the crest motion per step near half that spacing;
    the extents land near 3 envelope periods in space (the narrow-slab
    limit that the measurement checks first) and 2 in time.
    """
    tau, eps = draw(st.floats(0.1, 4.0)), draw(st.floats(0.1, 4.0))
    crest_sites = draw(st.one_of(st.floats(1.9, 2.1), st.floats(2.1, 12.0)))
    step_sites = crest_sites * draw(st.one_of(st.floats(0.45, 0.55), st.floats(0.02, 0.45), st.just(0.0)))
    sign = st.sampled_from([-1.0, 1.0])
    f1 = draw(sign) / draw(st.floats(1.5, 40.0))
    k1 = draw(sign) / draw(st.floats(1.5, 40.0))
    kd = draw(sign) / (crest_sites * eps)
    fd = draw(sign) * step_sites * abs(kd) * eps / tau
    try:
        beat = BeatSpec(T1=1.0 / f1, T2=1.0 / (f1 - fd), lam1=1.0 / k1, lam2=1.0 / (k1 - kd))
    except (DomainError, ZeroDivisionError):
        beat = DEFAULT_BEAT
    x_periods = 3.0 * 2.0 / abs(beat.wavenum_diff) / eps if beat.wavenum_diff else 64.0
    nx = int(x_periods) + draw(st.one_of(st.integers(-3, 3), st.integers(0, 1000)))
    t_periods = min(2.0 * 2.0 / abs(beat.freq_diff) / tau, 1e4) if beat.freq_diff else 4.0
    nt = int(t_periods) + draw(st.one_of(st.integers(-3, 3), st.integers(0, 200)))
    shrink = draw(st.integers(0, 9))  # one case in five has a tiny extent
    if shrink == 0:
        nx = draw(st.integers(-2, 40))
    elif shrink == 1:
        nt = draw(st.integers(-2, 8))
    # the reference samples the whole field: keep it under 400,000 sites
    return beat, GridSpec(tau=tau, eps=eps), min(nt, 400_000 // max(nx, 1)), nx


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=beat_slabs())
def test_measure_beat_velocity_is_the_sampled_measurement_bit_for_bit(case, sampled_beat_measurement):
    """The same float bits as tracking the whole sampled envelope, or the same error and message."""
    assert exact_outcome(lambda: measure_beat_velocity(*case)) == exact_outcome(
        lambda: sampled_beat_measurement(*case))


def test_the_beat_is_measured_without_beat_envelope(monkeypatch, sampled_beat_measurement):
    want = sampled_beat_measurement(DEFAULT_BEAT, GridSpec(), 256, 1024)

    def refuse(*args):
        raise AssertionError("the measurement evaluated the whole envelope")

    monkeypatch.setattr(waves, "beat_envelope", refuse)
    assert measure_beat_velocity(DEFAULT_BEAT, GridSpec(), 256, 1024) == want


def test_the_tracker_reads_the_middle_half_of_slice_0_and_a_window_per_slice():
    env_sq = beat_envelope(DEFAULT_BEAT, GridSpec(), 256, 1024) ** 2
    reads = []

    def counting(n, lo, hi):
        reads.append((n, lo, hi))
        return env_sq[n, lo:hi]

    crest_sites = (2.0 / abs(DEFAULT_BEAT.wavenum_diff)) / 2.0  # 7.500000000000002 sites, as measured
    measured = _track_crests(counting, 256, 1024, crest_sites, GridSpec())
    assert measured == measure_beat_velocity(DEFAULT_BEAT, GridSpec(), 256, 1024)
    # sites 256..767 and their two neighbours, then 2 * radius + 3 = 11 sites (radius 4) in each later slice
    assert reads[0] == (0, 255, 769)
    assert [n for n, _, _ in reads] == list(range(256))
    assert {hi - lo for _, lo, hi in reads[1:]} == {11}


@pytest.mark.parametrize("call, message", [
    (lambda: WaveSpec(form="cayley", N=3, M=4), "form must be a WaveForm"),
    (lambda: eval_exponential(WaveSpec(form=WaveForm.CAYLEY, N=3, M=4), 0, 0), "needs an exponential WaveSpec"),
    (lambda: eval_cayley(WaveSpec(form=WaveForm.EXPONENTIAL, N=3, M=4), 0, 0), "needs a cayley WaveSpec"),
    (lambda: beat_phase_velocity(BeatSpec(T1=4.0, T2=6.0, lam1=3.0, lam2=-3.0)), "wavenumber sum vanishes"),
    # an off-lattice site: 0.5 gave exp(i pi/4), True read as 1, and the cayley powering raised TypeError
    (lambda: eval_exponential(WaveSpec(form=WaveForm.EXPONENTIAL, N=4, M=8), 0.5, 0), "site indices must be integers"),
    (lambda: eval_exponential(WaveSpec(form=WaveForm.EXPONENTIAL, N=4, M=8), True, 0), "site indices must be integers"),
    (lambda: eval_cayley(WaveSpec(form=WaveForm.CAYLEY, N=4, M=8), 0.5, 0), "site indices must be integers"),
    (lambda: eval_wave(WaveSpec(form=WaveForm.CAYLEY, N=4, M=8), 0, 2.0), "site indices must be integers"),
    (lambda: continuum_limit_error(WaveForm.CAYLEY, 4, INFINITE, 1.5, 0), "site indices must be integers"),
    # a fractional, zero or negative extent: 101 rows sampled, a velocity measured, an empty envelope, TypeError
    (lambda: beat_field(BeatSpec(4, 6, 3, 5), GridSpec(), 100.5, 64), "slab extents must be integers >= 1"),
    (lambda: measure_beat_velocity(BeatSpec(4, 6, 3, 5), GridSpec(), 256.5, 1024), "slab extents must be integers"),
    (lambda: beat_envelope(BeatSpec(4, 6, 3, 5), GridSpec(), 0, 64), "slab extents must be integers >= 1"),
    (lambda: beat_envelope(BeatSpec(4, 6, 3, 5), GridSpec(), -3, 64), "slab extents must be integers >= 1"),
    (lambda: sample_wave(WaveSpec(form=WaveForm.CAYLEY, N=4, M=8), 2.5, 4), "slab extents must be integers >= 1"),
    (lambda: sample_wave(WaveSpec(form=WaveForm.CAYLEY, N=4, M=8), 4, True), "slab extents must be integers >= 1"),
], ids=["spec-form", "exponential-form", "cayley-form", "phase-velocity", "exponential-half-site",
        "exponential-bool-site", "cayley-half-site", "wave-float-site", "continuum-half-site", "beat-field-half-row",
        "measure-half-row", "envelope-no-rows", "envelope-negative-rows", "sample-half-row", "sample-bool-column"])
def test_every_wave_guard_refuses_its_input(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_a_flat_peak_is_refined_to_its_own_site():
    """Three equal samples have no curvature to fit: the peak stays at site lo + k, with no 0/0."""
    assert _refine_peak(np.array([0.5, 2.0, 2.0, 2.0]), 2, 5) == 7.0
