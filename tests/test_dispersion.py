"""Dispersion relations, the discrete mass spectrum, and mode quantization."""

import math

import numpy as np
import pytest

from latticewave import (
    DispersionForm,
    DomainError,
    GridSpec,
    INFINITE,
    KGParams,
    LatticeStep,
    WaveForm,
    WaveSpec,
    dispersion_residual,
    mass_from_rest_period,
    plane_wave_residual,
    quantization_check,
    solve_modes,
)

GRID = GridSpec()


class TestMassSpectrum:
    def test_unit_rest_period_in_natural_units(self):
        assert mass_from_rest_period(1, GRID) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_spectrum_scales_as_one_over_n(self):
        for n in (1, 2, 5, 9, 40):
            assert mass_from_rest_period(n, GRID) / mass_from_rest_period(2 * n, GRID) == pytest.approx(
                2.0, rel=1e-14
            )

    def test_scaled_constants(self):
        # 2 pi / (c^2 N tau) = 2 pi / (9 * 6 * 2) = pi / 54
        grid = GridSpec(tau=2.0, c=3.0)
        assert mass_from_rest_period(6, grid) == pytest.approx(math.pi / 54, rel=1e-14)

    def test_invalid_period(self):
        with pytest.raises(DomainError):
            mass_from_rest_period(0, GRID)


class TestDispersionResidual:
    def test_massless_diagonal_vanishes_for_all_forms(self):
        for form in DispersionForm:
            for n in (2, 3, 8, 21):
                assert dispersion_residual(form, n, n, 0.0, GRID) == 0.0

    def test_cayley_hand_solution(self):
        # 1/9 - 1/36 = 1/12, so m0 = h sqrt(1/12) = 2 pi / sqrt(12)
        m0 = GRID.h * math.sqrt(1.0 / 9.0 - 1.0 / 36.0)
        assert m0 == pytest.approx(2 * math.pi / math.sqrt(12), rel=1e-15)
        assert abs(dispersion_residual(DispersionForm.CAYLEY, 3, 6, m0, GRID)) <= 1e-15

    def test_exponential_rest_mode(self):
        # 4 tan^2(pi/4) = m0^2 at M = INFINITE, so m0 = 2 tan(pi/4) = 2
        assert abs(dispersion_residual(DispersionForm.EXPONENTIAL, 4, INFINITE, 2.0, GRID)) <= 1e-12

    def test_printed_asymmetric_coefficient_fails_where_symmetric_succeeds(self):
        """The as-printed time coefficient (1 instead of 4) misses the rest mode
        that the lattice operator certifies; documented discrepancy."""
        symmetric = dispersion_residual(DispersionForm.EXPONENTIAL, 4, INFINITE, 2.0, GRID)
        printed = dispersion_residual(DispersionForm.EXPONENTIAL, 4, INFINITE, 2.0, GRID, as_printed=True)
        assert abs(symmetric) <= 1e-12
        assert printed == pytest.approx(-3.0, rel=1e-12)  # tan^2(pi/4) - 4

    def test_continuum_matches_mass_shell(self):
        # w^2/c^2 - k^2 = (m0 c/hbar)^2 with w = 2 pi/N, k = 2 pi/M
        n_steps, m_sites = 3, 7
        w = 2 * math.pi / n_steps
        k = 2 * math.pi / m_sites
        m0 = math.sqrt(w**2 - k**2)
        assert abs(dispersion_residual(DispersionForm.CONTINUUM, n_steps, m_sites, m0, GRID)) <= 1e-14

    def test_mode_validation(self):
        with pytest.raises(DomainError):
            dispersion_residual(DispersionForm.CAYLEY, 1, 4, 1.0, GRID)
        with pytest.raises(DomainError):
            dispersion_residual(DispersionForm.CAYLEY, 4, 0, 1.0, GRID)
        with pytest.raises(DomainError):
            dispersion_residual(DispersionForm.CAYLEY, 4, 4, -1.0, GRID)


class TestSolveModes:
    def test_massless_scan_returns_exactly_the_diagonal(self):
        solutions = solve_modes(0.0, DispersionForm.CAYLEY, 12, 12, 1e-12, GRID)
        assert [(s.N, s.M) for s in solutions] == [(n, n) for n in range(2, 13)]

    def test_cayley_hand_mass_contains_3_6(self):
        m0 = 2 * math.pi / math.sqrt(12)
        solutions = solve_modes(m0, DispersionForm.CAYLEY, 64, 64, 1e-9, GRID)
        assert (3, 6) in [(s.N, s.M) for s in solutions]

    def test_enlarging_bounds_is_monotone(self):
        m0 = 2 * math.pi / math.sqrt(12)
        small = solve_modes(m0, DispersionForm.CAYLEY, 16, 16, 1e-9, GRID)
        large = solve_modes(m0, DispersionForm.CAYLEY, 64, 64, 1e-9, GRID)
        assert set((s.N, s.M) for s in small) <= set((s.N, s.M) for s in large)

    def test_deterministic(self):
        m0 = 1.234
        a = solve_modes(m0, DispersionForm.EXPONENTIAL, 32, 32, 1e-6, GRID)
        b = solve_modes(m0, DispersionForm.EXPONENTIAL, 32, 32, 1e-6, GRID)
        assert a == b

    @pytest.mark.parametrize("m0, tol", [(math.nan, 1e-9), (1.0, math.nan), (-1.0, 1e-9), (1.0, -1e-9)])
    def test_nan_or_negative_mass_and_tolerance_rejected(self, m0, tol):
        with pytest.raises(DomainError):
            solve_modes(m0, DispersionForm.CAYLEY, 8, 8, tol, GRID)

    def test_rest_solutions_match_the_mass_spectrum(self):
        """Every cayley solution with M = INFINITE has m0 = h/(c^2 N tau) exactly."""
        for n in (3, 5, 11):
            m0 = mass_from_rest_period(n, GRID)
            solutions = solve_modes(m0, DispersionForm.CAYLEY, 16, 16, 1e-12, GRID)
            rest = [s for s in solutions if s.M is INFINITE]
            assert [s.N for s in rest] == [n]
            assert abs(rest[0].m0 - mass_from_rest_period(n, GRID)) <= 1e-13 * rest[0].m0

    def test_every_solution_certifies_against_the_lattice_operator(self):
        """Cross-module contract: returned modes solve the wave equation."""
        cases = [
            (DispersionForm.CAYLEY, WaveForm.CAYLEY, 2 * math.pi / math.sqrt(12)),
            (DispersionForm.EXPONENTIAL, WaveForm.EXPONENTIAL, 2.0),
            (DispersionForm.EXPONENTIAL, WaveForm.EXPONENTIAL, math.sqrt(4 - 4 * math.tan(math.pi / 8) ** 2)),
        ]
        for dform, wform, m0 in cases:
            solutions = solve_modes(m0, dform, 16, 16, 1e-9, GRID)
            assert solutions, f"no modes found for {dform} m0={m0}"
            for s in solutions:
                spec = WaveSpec(form=wform, N=s.N, M=s.M)
                residual = plane_wave_residual(spec, KGParams(m0=m0, grid=GRID), extent=(12, 12))
                assert residual <= 1e-10


class TestExponentialToContinuumConvergence:
    def test_normalized_gap_shrinks_quadratically(self):
        """Scaling (N, M) -> (sN, sM) closes the tan-vs-continuum gap as 1/s^2
        relative to the size of the dispersion terms."""
        n0, m0_mode = 3, 6
        mass = 1.0
        gaps = []
        scales = [4, 8, 16, 32]
        for s in scales:
            exp_res = dispersion_residual(DispersionForm.EXPONENTIAL, s * n0, s * m0_mode, mass, GRID)
            cont_res = dispersion_residual(DispersionForm.CONTINUUM, s * n0, s * m0_mode, mass, GRID)
            w = 2 * math.pi / (s * n0)
            k = 2 * math.pi / (s * m0_mode)
            gaps.append(abs(exp_res - cont_res) / (w**2 + k**2))
        slope = np.polyfit(np.log(scales), np.log(gaps), 1)[0]
        assert -2.1 <= slope <= -1.9


class TestQuantizationCheck:
    def test_rest_step_with_spectrum_mass_recovers_n_exactly(self):
        result = quantization_check(LatticeStep(dn=1), 2 * math.pi, GRID, tol=1e-9)
        assert result.N_real == 1.0
        assert result.N == 1
        assert result.M_real is INFINITE
        assert result.M is None

    def test_moving_step_recovers_both_integers(self):
        """Pick the (3, 6) cayley mode state: E = h/(3 tau), p = h/(6 eps)."""
        grid = GRID
        # u = p c^2 / E = 1/2, so dj/dn = 1/2: take dn = 2, dj = 1
        step = LatticeStep(dn=2, dj=(1, 0, 0))
        # mass that puts this step's state on E = h/3: E = m0 (c dt)/sqrt(s)
        # with dt = 2, |dx| = 1: sqrt(3) => m0 = h sqrt(3)/6
        m0 = GRID.h * math.sqrt(3) / 6
        result = quantization_check(step, m0, grid, tol=1e-9)
        assert result.N == 3
        assert result.M == 6

    def test_incommensurate_mass_has_no_integer_modes(self):
        result = quantization_check(LatticeStep(dn=1), math.sqrt(2) * 2 * math.pi, GRID, tol=1e-6)
        assert result.N is None
        assert result.N_real == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_spacelike_step_rejected(self):
        with pytest.raises(DomainError):
            quantization_check(LatticeStep(dn=1, dj=(3, 0, 0)), 1.0, GRID, tol=1e-6)


def test_grid_spec_h_is_derived():
    grid = GridSpec(hbar=3.0)
    assert grid.h == pytest.approx(6 * math.pi, rel=1e-15)
