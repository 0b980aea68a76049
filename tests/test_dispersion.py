"""Dispersion relations, the discrete mass spectrum, and mode quantization."""

import math

import numpy as np
import pytest

from latticewave import (
    DispersionForm,
    DispersionSolution,
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
GRIDS = [GRID, GridSpec(tau=0.625, eps=0.25, c=2.0, hbar=1.3)]


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

    @pytest.mark.parametrize("m0, step, grid", [
        (1e-320, LatticeStep(dn=2, dj=(1, 0, 0)), GRID),
        (1e-280, LatticeStep(dn=1), GridSpec(tau=1e-250, c=1e100)),
    ], ids=["N-real-overflows", "tau-E-underflows"])
    def test_mode_numbers_out_of_the_float_range_rejected(self, m0, step, grid):
        with pytest.raises(DomainError, match="float range"):
            quantization_check(step, m0, grid, tol=1e-9)


def test_grid_spec_h_is_derived():
    grid = GridSpec(hbar=3.0)
    assert grid.h == pytest.approx(6 * math.pi, rel=1e-15)


# --- differential tests: the separable scan against the scalar residual ----------


def inline_residual(form, N, M, m0, grid, as_printed=False):
    """Each relation written out as one expression, as in its docstring."""
    c, tau, eps, hbar, h = grid.c, grid.tau, grid.eps, grid.hbar, grid.h
    if form is DispersionForm.CAYLEY:
        inv_wavelength = 0.0 if M is INFINITE else 1.0 / (M * eps)
        return (1.0 / c**2) * (1.0 / (N * tau)) ** 2 - inv_wavelength**2 - (m0 * c / h) ** 2
    if form is DispersionForm.EXPONENTIAL:
        tan_m = 0.0 if M is INFINITE else math.tan(math.pi / M)
        time_coeff = 1.0 if as_printed else 4.0
        return (
            (time_coeff / (c**2 * tau**2)) * math.tan(math.pi / N) ** 2
            - (4.0 / eps**2) * tan_m**2
            - (m0 * c / hbar) ** 2
        )
    k = 0.0 if M is INFINITE else 2.0 * math.pi / (M * eps)
    return (2.0 * math.pi / (N * tau) / c) ** 2 - k**2 - (m0 * c / hbar) ** 2


def oracle_scan(m0, form, n_max, m_max, tol, grid):
    """A loop over dispersion_residual, sorted by (N, M) with INFINITE last."""
    found = []
    for N in range(2, n_max + 1):
        for M in [*range(2, m_max + 1), INFINITE]:
            residual = dispersion_residual(form, N, M, m0, grid)
            if abs(residual) <= tol:
                found.append(DispersionSolution(form=form, N=N, M=M, m0=m0, residual=residual))
    found.sort(key=lambda s: (s.N, s.M is INFINITE, 0 if s.M is INFINITE else s.M))
    return found


@pytest.mark.parametrize("form", list(DispersionForm))
@pytest.mark.parametrize("grid", GRIDS, ids=["natural", "scaled"])
@pytest.mark.parametrize("as_printed", [False, True])
def test_dispersion_residual_matches_the_inline_relations_bit_for_bit(form, grid, as_printed):
    for m0 in (0.0, mass_from_rest_period(7, grid), 1.234):
        for N in range(2, 14):
            for M in [*range(2, 14), INFINITE]:
                got = dispersion_residual(form, N, M, m0, grid, as_printed=as_printed)
                want = inline_residual(form, N, M, m0, grid, as_printed=as_printed and form is DispersionForm.EXPONENTIAL)
                assert repr(got) == repr(want)


@pytest.mark.parametrize("form", list(DispersionForm))
@pytest.mark.parametrize("grid", GRIDS, ids=["natural", "scaled"])
@pytest.mark.parametrize("m0_kind", ["zero", "spectrum", "generic"])
@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.5])
def test_solve_modes_matches_a_loop_over_dispersion_residual(form, grid, m0_kind, tol):
    m0 = {"zero": 0.0, "spectrum": mass_from_rest_period(7, grid), "generic": 1.234}[m0_kind]
    got = solve_modes(m0, form, 40, 33, tol, grid)
    want = oracle_scan(m0, form, 40, 33, tol, grid)
    assert got == want
    # == takes -0.0 for 0.0; the CSV cells are reprs, so compare those too
    assert [repr(s.residual) for s in got] == [repr(s.residual) for s in want]
    assert all(type(s.residual) is float and type(s.N) is int for s in got)


@pytest.mark.parametrize("form", list(DispersionForm))
@pytest.mark.parametrize("grid", GRIDS, ids=["natural", "scaled"])
def test_an_infinite_tolerance_scan_returns_every_residual_bit_for_bit(form, grid):
    """Every mode of the table, out to M = 730: numpy's tan differs from math.tan
    in the last bit at M = 408 and 726, so the space terms must stay scalar."""
    got = solve_modes(1.234, form, 5, 730, math.inf, grid)
    want = oracle_scan(1.234, form, 5, 730, math.inf, grid)
    assert len(got) == 4 * 730
    assert [repr(s.residual) for s in got] == [repr(s.residual) for s in want]
    assert got == want


@pytest.mark.parametrize("form", list(DispersionForm))
def test_a_massless_scan_at_zero_tolerance_is_exactly_the_diagonal(form):
    """Time and space terms cancel exactly at N = M in natural units, out to 730
    (past M = 408 and 726, where numpy's tan is one ulp off math.tan)."""
    solutions = solve_modes(0.0, form, 730, 730, 0.0, GRID)
    assert [(s.N, s.M, s.residual) for s in solutions] == [(n, n, 0.0) for n in range(2, 731)]


def test_the_differential_scans_find_modes():
    """The cases above are not vacuous: exact, spectrum and wide-tolerance scans hit."""
    massless = solve_modes(0.0, DispersionForm.CAYLEY, 40, 33, 0.0, GRID)
    assert [(s.N, s.M) for s in massless] == [(n, n) for n in range(2, 34)]
    rest = solve_modes(mass_from_rest_period(7, GRID), DispersionForm.CAYLEY, 40, 33, 1e-9, GRID)
    assert [(s.N, s.M) for s in rest] == [(7, INFINITE)]
    assert len(solve_modes(1.234, DispersionForm.EXPONENTIAL, 40, 33, 0.5, GRID)) == 39


@pytest.mark.parametrize("form", list(DispersionForm))
@pytest.mark.parametrize("grid", [GridSpec(c=1e200), GridSpec(eps=1e-200), GridSpec(tau=1e-200)],
                         ids=["c-squared-overflows", "eps-squared-underflows", "tau-squared-underflows"])
def test_terms_out_of_the_float_range_are_domain_errors(form, grid):
    with pytest.raises(DomainError):
        solve_modes(1.0, form, 4, 4, 1e-9, grid)
    with pytest.raises(DomainError):
        dispersion_residual(form, 2, 2, 1.0, grid)
