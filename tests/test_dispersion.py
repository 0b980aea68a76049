"""Dispersion relations, the discrete mass spectrum, and mode quantization."""

import math
import re

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
    ParticleState,
    WaveForm,
    WaveSpec,
    discrete_energy_momentum,
    dispersion_residual,
    mass_from_rest_period,
    plane_wave_residual,
    quantization_check,
    solve_modes,
)
from latticewave import dispersion

GRID = GridSpec()
GRIDS = [GRID, GridSpec(tau=0.625, eps=0.25, c=2.0, hbar=1.3)]
# (c tau)^2 or eps^2 is subnormal, so its reciprocal overflows to inf without raising
SUBNORMAL_SQUARES = [GridSpec(tau=1e-160), GridSpec(eps=1e-160), GridSpec(c=1e-160)]
SUBNORMAL_SQUARE_IDS = ["tau-squared-subnormal", "eps-squared-subnormal", "c-squared-subnormal"]


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
        # a bool is no period: True would be N = 1
        with pytest.raises(DomainError, match="rest period N must be an integer"):
            mass_from_rest_period(True, GRID)

    @pytest.mark.parametrize("grid", [GridSpec(tau=1e-320), GridSpec(c=1e-200), GridSpec(c=1e200)],
                             ids=["quotient-overflows", "c-squared-underflows", "c-squared-overflows"])
    def test_a_mass_out_of_the_float_range_is_a_domain_error(self, grid):
        # inf, ZeroDivisionError and OverflowError before the check
        with pytest.raises(DomainError, match=r"the rest mass h/\(c\^2 N tau\) leaves the float range"):
            mass_from_rest_period(1, grid)


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

    @pytest.mark.parametrize("grid", GRIDS, ids=["natural", "scaled"])
    def test_exponential_rest_mode(self, grid):
        # (4/(c tau)^2) tan^2(pi/4) = (m0 c/hbar)^2 at M = INFINITE, so m0 = 2 hbar tan(pi/4)/(c^2 tau), 2 on GRID
        m0 = 2.0 * grid.hbar * math.tan(math.pi / 4) / (grid.c**2 * grid.tau)
        assert abs(dispersion_residual(DispersionForm.EXPONENTIAL, 4, INFINITE, m0, grid)) <= 1e-12

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
        # a bool is no mass, as KGParams rules: True would be m0 = 1
        for flag in (True, np.True_):
            with pytest.raises(DomainError, match="m0 must be"):
                dispersion_residual(DispersionForm.CAYLEY, 4, 4, flag, GRID)


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

    @pytest.mark.parametrize("m0, tol", [(math.nan, 1e-9), (1.0, math.nan), (-1.0, 1e-9), (1.0, -1e-9),
                                         (True, 1e-9), (np.True_, 1e-9)])
    def test_nan_or_negative_mass_and_tolerance_rejected(self, m0, tol):
        with pytest.raises(DomainError):
            solve_modes(m0, DispersionForm.CAYLEY, 8, 8, tol, GRID)

    @pytest.mark.parametrize("grid", GRIDS, ids=["natural", "scaled"])
    def test_rest_solutions_match_the_mass_spectrum(self, grid):
        """The scan on the rest mass h/(c^2 N tau) finds exactly (N, INFINITE): criterion 7's
        identity, through a path to the mass that does not share the relation's coefficients."""
        for n in (3, 5, 11):
            m0 = mass_from_rest_period(n, grid)
            solutions = solve_modes(m0, DispersionForm.CAYLEY, 16, 16, 1e-12, grid)
            assert [(s.N, s.M) for s in solutions] == [(n, INFINITE)]
            assert abs(solutions[0].m0 - mass_from_rest_period(n, grid)) <= 1e-13 * solutions[0].m0

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


# --- the exponential pole at n = 2, pinned against the lattice operator -----------

POLE_GRIDS = [GRID, GridSpec(tau=0.7, eps=1.3, c=2.0, hbar=0.3)]


@pytest.mark.parametrize("grid", POLE_GRIDS, ids=["natural", "scaled"])
@pytest.mark.parametrize("m0", [0.0, 1.0, 3.7])
def test_the_checkerboard_mode_solves_the_operator_and_the_relation_at_every_mass(grid, m0):
    # both second averages send (-1)^(n+j) to 0, so every term of the operator vanishes
    checkerboard = WaveSpec(form=WaveForm.EXPONENTIAL, N=2, M=2)
    assert plane_wave_residual(checkerboard, KGParams(m0=m0, grid=grid), (16, 16)) == 0.0
    for as_printed in (False, True):
        assert dispersion_residual(DispersionForm.EXPONENTIAL, 2, 2, m0, grid, as_printed=as_printed) == 0.0
    solutions = solve_modes(m0, DispersionForm.EXPONENTIAL, 6, 6, 1e-9, grid)
    assert solutions[0] == DispersionSolution(form=DispersionForm.EXPONENTIAL, N=2, M=2, m0=m0, residual=0.0)


@pytest.mark.parametrize("grid", POLE_GRIDS, ids=["natural", "scaled"])
@pytest.mark.parametrize("m0", [0.0, 1.0, 3.7])
@pytest.mark.parametrize("N, M", [(2, 3), (2, 8), (2, INFINITE), (3, 2), (9, 2)])
def test_a_mode_with_one_pole_solves_nothing(grid, m0, N, M):
    # one average is 0 and the other is not: the operator leaves a residual of order 1/(c tau)^2 or 1/eps^2
    spec = WaveSpec(form=WaveForm.EXPONENTIAL, N=N, M=M)
    assert plane_wave_residual(spec, KGParams(m0=m0, grid=grid), (16, 16)) > 0.1
    with pytest.raises(DomainError, match=rf"mode \(N={N}, M={M}\) is on the pole of the exponential relation"):
        dispersion_residual(DispersionForm.EXPONENTIAL, N, M, m0, grid)
    # a scan wide enough to list every finite residual lists no pole mode but (2, 2)
    listed = {(s.N, s.M) for s in solve_modes(m0, DispersionForm.EXPONENTIAL, 10, 10, 1e300, grid)}
    assert (N, M) not in listed and (2, 2) in listed


def test_no_relation_evaluates_the_pole(monkeypatch):
    """The exponential Q is never taken at n = 2, where tan(pi/2) is 1.6e16 and not a pole."""
    square = dispersion._square
    calls = []
    monkeypatch.setattr(dispersion, "_square", lambda form, n: calls.append((form, n)) or square(form, n))
    for form in DispersionForm:
        solve_modes(1.0, form, 130, 9, 1e300, GRID)
        for N, M in [(2, 2), (3, 2), (2, INFINITE)]:
            try:
                dispersion_residual(form, N, M, 1.0, GRID, as_printed=True)
            except DomainError:
                pass
    assert (DispersionForm.CAYLEY, 2) in calls and (DispersionForm.EXPONENTIAL, 3) in calls
    assert (DispersionForm.EXPONENTIAL, 2) not in calls


def test_grid_spec_h_is_derived():
    grid = GridSpec(hbar=3.0)
    assert grid.h == pytest.approx(6 * math.pi, rel=1e-15)


def test_the_continuum_terms_have_no_public_helpers():
    # w = 2 pi/(N tau) and k = 2 pi/(M eps) are written out in the continuum terms; inline_residual pins their bits
    assert not hasattr(dispersion, "mode_frequency") and not hasattr(dispersion, "mode_wavenumber")


# --- differential tests: the separable scan against the scalar residual ----------


def pole_mode(form, N, M):
    """A mode on the exponential pole n = 2 other than (2, 2): it solves nothing, and its residual is a DomainError."""
    return form is DispersionForm.EXPONENTIAL and 2 in (N, M) and N != M


def inline_residual(form, N, M, m0, grid, as_printed=False):
    """Each relation written out in the factored form of the module docstring:
    inv_ct2 Q(N) - inv_eps2 Q(M) - mu2, with Q(INFINITE) = 0, and 0.0 at the
    exponential (2, 2)."""
    if form is DispersionForm.EXPONENTIAL and (N, M) == (2, 2):
        return 0.0
    c, tau, eps = grid.c, grid.tau, grid.eps
    quantum = grid.h if form is DispersionForm.CAYLEY else grid.hbar
    inv_ct2, inv_eps2, mu2 = 1.0 / (c * tau) ** 2, 1.0 / eps**2, (m0 * c / quantum) ** 2
    if form is DispersionForm.CAYLEY:
        q_n = (1.0 / N) ** 2
        q_m = 0.0 if M is INFINITE else (1.0 / M) ** 2
    elif form is DispersionForm.EXPONENTIAL:
        # the as-printed time coefficient is 1: Q(N)/4, exact
        q_n = 4.0 * math.tan(math.pi / N) ** 2 / (4.0 if as_printed else 1.0)
        q_m = 0.0 if M is INFINITE else 4.0 * math.tan(math.pi / M) ** 2
    else:
        q_n = (2.0 * math.pi / N) ** 2
        q_m = 0.0 if M is INFINITE else (2.0 * math.pi / M) ** 2
    return (inv_ct2 * q_n - inv_eps2 * q_m) - mu2


def oracle_scan(m0, form, n_max, m_max, tol, grid):
    """A loop over dispersion_residual, sorted by (N, M) with INFINITE last; pole modes are no solutions."""
    found = []
    for N in range(2, n_max + 1):
        for M in [*range(2, m_max + 1), INFINITE]:
            if pole_mode(form, N, M):
                continue
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
                if pole_mode(form, N, M):
                    with pytest.raises(DomainError, match=r"is on the pole of the exponential relation at n = 2"):
                        dispersion_residual(form, N, M, m0, grid, as_printed=as_printed)
                    continue
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
    # on the exponential pole, row N = 2 holds (2, 2) only and column M = 2 nothing else
    assert len(got) == (1 + 3 * 729 if form is DispersionForm.EXPONENTIAL else 4 * 730)
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
    # 39 off the pole, and the checkerboard (2, 2), which solves the relation at every mass
    assert len(solve_modes(1.234, DispersionForm.EXPONENTIAL, 40, 33, 0.5, GRID)) == 40


@pytest.mark.parametrize("form", list(DispersionForm))
@pytest.mark.parametrize("grid", [GridSpec(c=1e200), GridSpec(eps=1e-200), GridSpec(tau=1e-200), *SUBNORMAL_SQUARES],
                         ids=["c-squared-overflows", "eps-squared-underflows", "tau-squared-underflows",
                              *SUBNORMAL_SQUARE_IDS])
def test_terms_out_of_the_float_range_are_domain_errors(form, grid):
    with pytest.raises(DomainError):
        solve_modes(1.0, form, 4, 4, 1e-9, grid)
    with pytest.raises(DomainError):
        dispersion_residual(form, 2, 2, 1.0, grid)


# the coefficients are in range on these grids, but a residual is not
@pytest.mark.parametrize("form, m0, grid", [
    # 4 tan^2(pi/3) / (c tau)^2 and 4 tan^2(pi/3) / eps^2 are both inf: their difference is nan
    (DispersionForm.EXPONENTIAL, 1.0, GridSpec(eps=1e-154, tau=1e-154)),
    # only the space term 4 tan^2(pi/3) / eps^2 is inf: the residual is -inf
    (DispersionForm.EXPONENTIAL, 1.0, GridSpec(eps=1e-154)),
    # every term is finite, and (time - space) - mu2 overflows first at N = 89, in the scan's second block
    (DispersionForm.CAYLEY, 8.19e154, GridSpec(tau=1e-154, eps=1.591e-154)),
], ids=["exponential-nan", "exponential-minus-inf", "cayley-difference-overflows"])
def test_a_residual_out_of_the_float_range_is_a_domain_error_naming_the_first_mode(form, m0, grid):
    errors = []
    for N in range(2, 200):
        for M in [*range(2, 6), INFINITE]:
            if pole_mode(form, N, M):
                continue
            try:
                dispersion_residual(form, N, M, m0, grid)
            except DomainError as exc:
                errors.append(str(exc))
    with pytest.raises(DomainError) as scan:
        solve_modes(m0, form, 199, 5, 1e300, grid)
    assert errors and str(scan.value) == errors[0]
    assert errors[0].endswith(": its terms leave the float range")


def test_the_cayley_residuals_stay_finite_where_the_exponential_ones_do_not():
    grid = GridSpec(eps=1e-154, tau=1e-154)
    with pytest.raises(DomainError, match=r"the residual of mode \(N=3, M=3\) is nan"):
        dispersion_residual(DispersionForm.EXPONENTIAL, 3, 3, 1.0, grid)
    assert math.isfinite(dispersion_residual(DispersionForm.CAYLEY, 3, 3, 1.0, grid))
    assert [(s.N, s.M) for s in solve_modes(1.0, DispersionForm.CAYLEY, 8, 8, 1e300, grid)] == [
        (n, n) for n in range(2, 9)]


def parent_solve_modes(m0, form, n_max, m_max, tol, grid):
    """solve_modes as it was before the block scan: one numpy row per N (argument checks left out), with the
    exponential pole's (2, 2) first and the rest of its row and column skipped."""
    inv_ct2, inv_eps2, mu2 = dispersion._coefficients(form, m0, grid)
    lowest = 3 if form is DispersionForm.EXPONENTIAL else 2
    wavelengths = list(range(lowest, m_max + 1)) + [INFINITE]
    space = np.array([inv_eps2 * dispersion._square(form, M) for M in wavelengths])
    found = [DispersionSolution(form=form, N=2, M=2, m0=m0, residual=0.0)] if lowest == 3 else []
    with np.errstate(over="ignore", invalid="ignore"):
        for N in range(lowest, n_max + 1):
            row = (inv_ct2 * dispersion._square(form, N) - space) - mu2
            hits = np.flatnonzero(np.abs(row) <= tol)
            for k, residual in zip(hits.tolist(), row[hits].tolist()):
                found.append(DispersionSolution(form=form, N=N, M=wavelengths[k], m0=m0, residual=residual))
    return found


@pytest.mark.parametrize("form", list(DispersionForm))
@pytest.mark.parametrize("grid", GRIDS, ids=["natural", "scaled"])
def test_the_block_scan_is_the_per_row_scan_bit_for_bit(form, grid):
    block = dispersion._SCAN_BLOCK
    n_max = 1 + 3 * block + 5  # N runs over three full blocks and part of a fourth
    got = solve_modes(0.05, form, n_max, 37, 0.1, grid)
    want = parent_solve_modes(0.05, form, n_max, 37, 0.1, grid)
    assert [repr(s.residual) for s in got] == [repr(s.residual) for s in want]
    assert got == want
    # hits on both sides of every block edge, and in every row INFINITE comes last
    edges = range(2 + block, n_max + 1, block)
    assert {s.N for s in got} >= {N for edge in edges for N in (edge - 1, edge)}
    for N in {s.N for s in got}:
        row = [s.M for s in got if s.N == N]
        finite = [M for M in row if M is not INFINITE]
        assert finite == sorted(finite) and row[: len(finite)] == finite


@pytest.mark.parametrize("form", list(DispersionForm))
@pytest.mark.parametrize("grid", [GridSpec(c=1e200), GridSpec(c=1e-200), GridSpec(eps=1e-200), GridSpec(tau=1e-200),
                                  *SUBNORMAL_SQUARES],
                         ids=["c-squared-overflows", "c-squared-underflows", "eps-squared-underflows",
                              "tau-squared-underflows", *SUBNORMAL_SQUARE_IDS])
def test_the_block_scan_raises_the_per_row_scans_domain_error(form, grid):
    with pytest.raises(DomainError) as want:
        parent_solve_modes(1.0, form, 200, 4, 1e-9, grid)
    with pytest.raises(DomainError) as got:
        solve_modes(1.0, form, 200, 4, 1e-9, grid)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("call, message", [
    (lambda: dispersion_residual("cayley", 3, 4, 1.0, GRID), "unknown dispersion form 'cayley'"),
    (lambda: solve_modes(1.0, DispersionForm.CAYLEY, 1, 8, 1e-9, GRID), "mode bounds must be >= 2"),
    (lambda: solve_modes(1.0, DispersionForm.CAYLEY, 8, 1, 1e-9, GRID), "mode bounds must be >= 2"),
    (lambda: quantization_check(LatticeStep(dn=1, dj=(0, 0, 0)), 1.0, GRID, -1.0), "tol must be >= 0"),
    # a NaN passed both guards: the check returned N = M = None, and the residual blamed the float range
    (lambda: quantization_check(LatticeStep(dn=1), 2 * math.pi, GRID, math.nan), "tol must be >= 0, got nan"),
    (lambda: dispersion_residual(DispersionForm.CAYLEY, 3, 6, math.nan, GRID),
     "m0 must be a finite number >= 0, got nan"),
    # a bound that is no integer ended in range()'s TypeError, and a bool tol was read as 1.0
    (lambda: solve_modes(1.0, DispersionForm.CAYLEY, 8.5, 8, 1e-9, GRID),
     r"mode bounds must be >= 2 and integers, got n_max=8\.5, m_max=8"),
    (lambda: solve_modes(1.0, DispersionForm.CAYLEY, 8, True, 1e-9, GRID),
     "mode bounds must be >= 2 and integers, got n_max=8, m_max=True"),
    (lambda: solve_modes(1.0, DispersionForm.CAYLEY, "8", 8, 1e-9, GRID),
     "mode bounds must be >= 2 and integers, got n_max='8', m_max=8"),
    (lambda: solve_modes(1.0, DispersionForm.CAYLEY, 8, 8, True, GRID), "tol must be >= 0, got True"),
    (lambda: quantization_check(LatticeStep(dn=1), 2 * math.pi, GRID, True), "tol must be >= 0, got True"),
    (lambda: quantization_check(LatticeStep(dn=1), 2 * math.pi, GRID, np.True_), "tol must be >= 0, got np.True_"),
], ids=["form-type", "n-bound", "m-bound", "quantization-tol", "quantization-nan-tol", "residual-nan-m0",
        "fractional-bound", "bool-bound", "str-bound", "scan-bool-tol", "quantization-bool-tol",
        "quantization-numpy-bool-tol"])
def test_every_dispersion_guard_refuses_its_input(call, message):
    with pytest.raises(DomainError, match=message):
        call()


# every entry point that takes a rest mass reads it through grid.check_mass, the one check of m0. Past it, the
# readers of GridSpec.wave_coefficients share its float-range message; the kinematics name their own, and the
# lattice map also needs m0 > 0. Every message shows an int past the float range by its size
MASS_READERS = {
    "wave-coefficients": lambda m0: GRID.wave_coefficients(m0),
    "kg-params": lambda m0: KGParams(m0=m0, grid=GRID),
    "dispersion-residual": lambda m0: dispersion_residual(DispersionForm.CAYLEY, 3, 6, m0, GRID),
    "solve-modes": lambda m0: solve_modes(m0, DispersionForm.CAYLEY, 8, 8, 1e-9, GRID),
    "from-momentum": lambda m0: ParticleState.from_momentum([1.0, 0.0, 0.0], m0, 1.0),
    "discrete-energy-momentum": lambda m0: discrete_energy_momentum(m0, LatticeStep(3, (1, 0, 0)), GRID),
}
ZERO_MASS = {"*": None, "discrete-energy-momentum": "discrete energy-momentum needs m0 > 0"}


@pytest.mark.parametrize("reader", MASS_READERS)
@pytest.mark.parametrize("m0, message", [
    (True, "m0 must be a finite number >= 0, got True"),
    (np.True_, "m0 must be a finite number >= 0, got np.True_"),
    (-1.0, "m0 must be a finite number >= 0, got -1.0"),
    (math.nan, "m0 must be a finite number >= 0, got nan"),
    (math.inf, "m0 must be a finite number >= 0, got inf"),
    (1e200, {"*": "coefficients leave the float range for m0=1e+200",
             "from-momentum": "E^2 = |p|^2 c^2 + m0^2 c^4 leaves the float range for m0 = 1e+200, c = 1.0",
             "discrete-energy-momentum": "at m0 = 1e+200: E^2 or |p|^2 leaves the float range"}),
    (10**5000, {"*": "coefficients leave the float range for m0=an int of 16610 bits,",
                "from-momentum": "leaves the float range for m0 = an int of 16610 bits, c = 1.0",
                "discrete-energy-momentum": "at m0 = an int of 16610 bits: E^2 or |p|^2 leaves the float range"}),
    (0.0, ZERO_MASS),
    (-0.0, ZERO_MASS),
], ids=["bool", "numpy-bool", "negative", "nan", "inf", "mu2-overflows", "int-past-the-float-range", "zero",
        "negative-zero"])
def test_every_mass_reader_keeps_the_one_rule(reader, m0, message):
    if isinstance(message, dict):
        message = message.get(reader, message["*"])
    if message is None:
        MASS_READERS[reader](m0)
        return
    with pytest.raises(DomainError, match=re.escape(message)):
        MASS_READERS[reader](m0)
