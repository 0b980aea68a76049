"""Lattice plane waves, beats, and envelope velocity measurement."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticewave import (
    BeatSpec,
    DomainError,
    GridSpec,
    INFINITE,
    MeasurementError,
    WaveForm,
    WaveSpec,
    beat_field,
    beat_group_velocity,
    beat_phase_velocity,
    beat_product_form,
    beat_velocities,
    cayley_phase_increments,
    continuum_limit_error,
    eval_cayley,
    eval_exponential,
    eval_wave,
    measure_group_velocity,
    sample_wave,
)
from latticewave.waves import _unimodular_power


class TestExponentialWave:
    def test_full_period_returns_amplitude_exactly(self):
        spec = WaveSpec(form=WaveForm.EXPONENTIAL, N=7, M=5, amplitude=0.5 - 0.25j)
        assert eval_exponential(spec, 7, 0) == spec.amplitude
        assert eval_exponential(spec, 0, 5) == spec.amplitude

    def test_quarter_turn_is_exact_i(self):
        spec = WaveSpec(form=WaveForm.EXPONENTIAL, N=4, M=4)
        assert eval_exponential(spec, 1, 0) == 1j

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
    def test_origin_returns_amplitude(self):
        spec = WaveSpec(form=WaveForm.CAYLEY, N=4, M=6, amplitude=2.0 + 1.0j)
        assert eval_cayley(spec, 0, 0) == spec.amplitude

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
        per_step, per_site = cayley_phase_increments(spec)
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



class TestSampleWave:
    @pytest.mark.parametrize("spec", [
        WaveSpec(form=WaveForm.EXPONENTIAL, N=6, M=9, amplitude=0.5 - 0.25j),
        WaveSpec(form=WaveForm.EXPONENTIAL, N=4, M=8),
        WaveSpec(form=WaveForm.EXPONENTIAL, N=5, M=INFINITE, amplitude=-1.1 + 0.4j),
        WaveSpec(form=WaveForm.EXPONENTIAL, N=10**30, M=12),
        WaveSpec(form=WaveForm.CAYLEY, N=5, M=7),
        WaveSpec(form=WaveForm.CAYLEY, N=3, M=INFINITE, amplitude=0.3 - 1.7j),
        WaveSpec(form=WaveForm.CAYLEY, N=37, M=11, amplitude=2.0 + 1.0j),
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
        # n/N phase equals j/M phase, so both forms sit at the amplitude
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

    def test_measured_matches_analytic_within_two_percent(self):
        measured = measure_group_velocity(beat_field(self.BEAT, GridSpec(), 128, 512), beat=self.BEAT)
        assert measured == pytest.approx(0.625, rel=0.02)

    def test_standing_beat_measures_zero(self):
        b = BeatSpec(T1=4.0, T2=4.0, lam1=3.0, lam2=-3.0)
        measured = measure_group_velocity(beat_field(b, GridSpec(), 64, 64), beat=b)
        assert abs(measured) <= 0.01

    def test_error_halves_or_better_with_doubled_resolution(self):
        errors = []
        for scale in (1, 2):
            grid = GridSpec(tau=1.0 / scale, eps=1.0 / scale)
            measured = measure_group_velocity(beat_field(self.BEAT, grid, 128 * scale, 256 * scale), beat=self.BEAT)
            errors.append(abs(measured - 0.625))
        assert errors[1] <= 0.5 * errors[0]

    def test_coarse_grained_fallback_tracks_without_the_analytic_envelope(self):
        grid = GridSpec()
        slab = beat_field(self.BEAT, grid, 128, 512)
        window = max(1, round((2.0 / abs(self.BEAT.wavenum_sum)) / grid.eps))
        measured = measure_group_velocity(slab, carrier_window=window)
        assert measured == pytest.approx(0.625, rel=0.02)

    def test_flat_envelope_is_measurement_error(self):
        b = BeatSpec(T1=4.0, T2=4.0, lam1=3.0, lam2=3.0)
        slab = beat_field(b, GridSpec(), 32, 32)
        with pytest.raises(MeasurementError):
            measure_group_velocity(slab, beat=b)

    def test_too_few_envelope_periods_rejected(self):
        slab = beat_field(self.BEAT, GridSpec(), 64, 32)
        with pytest.raises(DomainError):
            measure_group_velocity(slab, beat=self.BEAT)


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
