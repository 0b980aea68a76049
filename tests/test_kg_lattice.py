"""The lattice wave operator, its plane-wave certification, and evolution."""

import math

import numpy as np
import pytest

from latticewave import (
    DomainError,
    FieldSlab,
    GridSpec,
    INFINITE,
    KGParams,
    SingularSystemError,
    WaveForm,
    WaveSpec,
    apply_kg_operator,
    calibrate_time_coefficient,
    evolve,
    plane_wave_residual,
    sample_wave,
)
from latticewave.kg_lattice import _apply_kernel, _inverse_kernel, _stencil_constants

GRID = GridSpec()

# the running desk cases: a cayley mode and two exponential modes on shell
CAYLEY_36 = (WaveSpec(form=WaveForm.CAYLEY, N=3, M=6), 2 * math.pi / math.sqrt(12))
EXP_REST = (WaveSpec(form=WaveForm.EXPONENTIAL, N=4, M=INFINITE), 2.0)
EXP_48 = (
    WaveSpec(form=WaveForm.EXPONENTIAL, N=4, M=8),
    math.sqrt(4.0 - 4.0 * math.tan(math.pi / 8) ** 2),
)


def exact_slab(spec: WaveSpec, nt: int, nx: int) -> np.ndarray:
    from latticewave import eval_wave

    return np.array([[eval_wave(spec, n, j) for j in range(nx)] for n in range(nt)])


class TestApplyOperator:
    def test_zero_field_zero_residual(self):
        slab = FieldSlab(psi=np.zeros((6, 6)), grid=GRID)
        out = apply_kg_operator(slab, KGParams(m0=1.0, grid=GRID))
        assert out.psi.shape == (4, 6)
        np.testing.assert_array_equal(out.psi, 0)

    def test_constant_field_massless(self):
        slab = FieldSlab(psi=np.full((5, 7), 2.3 + 1.1j), grid=GRID)
        out = apply_kg_operator(slab, KGParams(m0=0.0, grid=GRID))
        np.testing.assert_allclose(out.psi, 0, atol=1e-15)

    def test_massless_symmetric_exponential_mode(self):
        spec = WaveSpec(form=WaveForm.EXPONENTIAL, N=8, M=8)
        slab = sample_wave(spec, 16, 16, grid=GRID)
        out = apply_kg_operator(slab, KGParams(m0=0.0, grid=GRID))
        assert float(np.max(np.abs(out.psi[:, 1:-1]))) <= 1e-12

    def test_small_extent_rejected(self):
        with pytest.raises(DomainError):
            apply_kg_operator(FieldSlab(psi=np.zeros((2, 8)), grid=GRID), KGParams(m0=0.0, grid=GRID))


class TestPlaneWaveResidual:
    def test_cayley_mode_on_shell(self):
        spec, m0 = CAYLEY_36
        assert plane_wave_residual(spec, KGParams(m0=m0, grid=GRID), extent=(16, 16)) <= 1e-12

    def test_exponential_rest_mode_on_shell(self):
        spec, m0 = EXP_REST
        assert plane_wave_residual(spec, KGParams(m0=m0, grid=GRID), extent=(16, 16)) <= 1e-12

    def test_exponential_traveling_mode_on_shell(self):
        spec, m0 = EXP_48
        assert plane_wave_residual(spec, KGParams(m0=m0, grid=GRID), extent=(16, 16)) <= 1e-12

    def test_printed_asymmetric_mass_misses_by_a_lot(self):
        """Mass from the as-printed tan relation (m0 = tan(pi/4) = 1 at rest)
        leaves residual 1.5 against the actual operator; documents the typo."""
        spec = WaveSpec(form=WaveForm.EXPONENTIAL, N=4, M=INFINITE)
        residual = plane_wave_residual(spec, KGParams(m0=1.0, grid=GRID), extent=(16, 16))
        assert residual > 1e-3
        assert residual == pytest.approx(1.5, rel=1e-12)

    def test_extent_precondition(self):
        spec, m0 = EXP_REST
        with pytest.raises(DomainError):
            plane_wave_residual(spec, KGParams(m0=m0, grid=GRID), extent=(4, 16))


class TestCalibration:
    def test_is_the_inline_stencil_ratio_bit_for_bit(self):
        for n in range(3, 400):
            values = sample_wave(WaveSpec(form=WaveForm.EXPONENTIAL, N=n, M=INFINITE), 8, 1).psi[:, 0]
            num = -(values[5] - 2.0 * values[4] + values[3])
            den = (values[5] + 2.0 * values[4] + values[3]) / 4.0
            assert calibrate_time_coefficient(n) == float((num / den).real)

    def test_n4_gives_exactly_four(self):
        assert calibrate_time_coefficient(4) == pytest.approx(4.0, abs=1e-12)

    def test_alternating_mode_reports_symbolic_infinity(self):
        assert calibrate_time_coefficient(2) is INFINITE

    def test_matches_four_tan_squared(self):
        for n in (3, 5, 8, 12):
            assert calibrate_time_coefficient(n) == pytest.approx(
                4.0 * math.tan(math.pi / n) ** 2, rel=1e-12
            )

    def test_large_n_limit(self):
        """ratio(N) * (N / 2 pi)^2 -> 1, approaching from above like 1 + O(1/N^2)."""
        previous = None
        for n in (16, 64, 256):
            scaled = calibrate_time_coefficient(n) * (n / (2 * math.pi)) ** 2
            assert abs(scaled - 1.0) <= (math.pi / n) ** 2
            if previous is not None:
                assert abs(scaled - 1.0) < abs(previous - 1.0)
            previous = scaled


def dense_circulant(off: float, diag: float, n: int) -> np.ndarray:
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] += diag
        a[i, (i + 1) % n] += off
        a[i, (i - 1) % n] += off
    return a


class TestInverseKernel:
    """The banded closed-form kernel against numpy.linalg.inv of the dense circulant."""

    def kernel_and_dense_inverse(self, p: KGParams, n: int):
        off, diag, _, _ = _stencil_constants(p)
        return _inverse_kernel(off, diag, n, p), np.linalg.inv(dense_circulant(off, diag, n))

    def test_narrow_band_matches_dense_inverse(self):
        p = KGParams(m0=1.7, grid=GRID)
        kernel, inverse = self.kernel_and_dense_inverse(p, 96)
        w = len(kernel) - 1
        assert 2 <= w < 96 // 2
        column = inverse[:, 0]
        np.testing.assert_allclose(kernel, column[: w + 1], rtol=0, atol=1e-15 * abs(column[0]))
        # the offsets left out of the band change no result beyond rounding
        rng = np.random.default_rng(30)
        f = rng.normal(size=96) + 1j * rng.normal(size=96)
        expected = inverse @ f
        assert float(np.max(np.abs(_apply_kernel(kernel, f) - expected))) <= 1e-14 * float(np.max(np.abs(expected)))

    def test_full_width_band_matches_dense_inverse(self):
        """eps = 0.01 makes the kernel decay slowly, so every offset is kept."""
        p = KGParams(m0=1.0, grid=GridSpec(eps=0.01))
        rng = np.random.default_rng(31)
        for n in (3, 4, 33, 64):
            kernel, inverse = self.kernel_and_dense_inverse(p, n)
            assert len(kernel) == n // 2 + 1
            f = rng.normal(size=n) + 1j * rng.normal(size=n)
            expected = inverse @ f
            got = _apply_kernel(kernel, f)
            # the dense inverse itself is accurate only to about cond * eps, here 1.8e-12
            bound = np.linalg.cond(inverse) * np.finfo(float).eps
            assert float(np.max(np.abs(got - expected))) <= bound * float(np.max(np.abs(expected)))

    def test_massless_natural_units_kernel_is_a_single_site(self):
        p = KGParams(m0=0.0, grid=GRID)
        off, diag, _, _ = _stencil_constants(p)
        assert off == 0.0
        kernel = _inverse_kernel(off, diag, 16, p)
        assert kernel.tolist() == [1.0 / diag]

    def test_singular_system_raises(self):
        # circulant with eigenvalue 0 for the constant mode: diag = -2*off
        with pytest.raises(SingularSystemError):
            _inverse_kernel(1.0, -2.0, 4, KGParams(m0=0.0, grid=GRID))

    def test_extreme_grid_constants_are_singular_or_finite(self):
        # beta = 1/(4 eps^2) overflows to inf, so the eigenvalues are NaN
        with pytest.raises(SingularSystemError):
            evolve(np.ones((2, 8)), 2, KGParams(m0=1.0, grid=GridSpec(eps=1e-160)))
        # diag^2 - 4 off^2 would overflow, though diag and off are finite
        out = evolve(np.ones((2, 8)), 2, KGParams(m0=1.0, grid=GridSpec(eps=1e-100, tau=1e-100)))
        assert np.all(np.isfinite(out.psi))

    def test_evolve_at_1024_sites_matches_a_dense_march(self):
        p = KGParams(m0=3.4, grid=GRID)
        n, steps = 1024, 16
        off_a, diag_a, off_b, diag_b = _stencil_constants(p)
        a, b = dense_circulant(off_a, diag_a, n), dense_circulant(off_b, diag_b, n)
        a_inv = np.linalg.inv(a)
        rng = np.random.default_rng(32)
        reference = np.empty((steps + 2, n), dtype=complex)
        reference[:2] = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        for k in range(1, steps + 1):
            reference[k + 1] = a_inv @ -(b @ reference[k] + a @ reference[k - 1])
        out = evolve(reference[:2], steps, p).psi
        assert float(np.max(np.abs(out - reference))) <= 1e-12 * float(np.max(np.abs(reference)))


class TestEvolve:
    def test_zero_initial_data_stays_zero(self):
        out = evolve(np.zeros((2, 8)), 12, KGParams(m0=1.0, grid=GRID))
        assert out.psi.shape == (14, 8)
        np.testing.assert_array_equal(out.psi, 0)

    def test_exponential_solution_reproduced_globally(self):
        """M = 8 divides Nx = 16, so the sampled mode is grid-periodic and the
        march must match the closed form everywhere."""
        spec, m0 = EXP_48
        exact = exact_slab(spec, 18, 16)
        out = evolve(exact[:2], 16, KGParams(m0=m0, grid=GRID))
        assert float(np.max(np.abs(out.psi - exact))) <= 1e-10

    def test_rest_cayley_solution_reproduced_globally(self):
        from latticewave import mass_from_rest_period

        m0 = mass_from_rest_period(5, GRID)
        spec = WaveSpec(form=WaveForm.CAYLEY, N=5, M=INFINITE)
        exact = exact_slab(spec, 18, 12)
        out = evolve(exact[:2], 16, KGParams(m0=m0, grid=GRID))
        assert float(np.max(np.abs(out.psi - exact))) <= 1e-10

    def test_traveling_cayley_solution_reproduced_away_from_the_seam(self):
        """A finite-M cayley mode is not spatially periodic, so the wrap seam
        injects an O(1) mismatch that propagates inward a few sites per step;
        at distance >= 40 after 16 steps the march sits on the closed form."""
        spec, m0 = CAYLEY_36
        nx = 112
        exact = exact_slab(spec, 18, nx)
        out = evolve(exact[:2], 16, KGParams(m0=m0, grid=GRID))
        window = slice(40, nx - 40)
        assert float(np.max(np.abs(out.psi[:, window] - exact[:, window]))) <= 1e-10
        # and the seam mismatch is real: globally the deviation is large
        assert float(np.max(np.abs(out.psi - exact))) > 1e-2

    def test_linearity(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=(2, 20)) + 1j * rng.normal(size=(2, 20))
        b = rng.normal(size=(2, 20)) + 1j * rng.normal(size=(2, 20))
        alpha, beta = 0.8 - 0.4j, -1.3 + 0.2j
        p = KGParams(m0=1.7, grid=GRID)
        combined = evolve(alpha * a + beta * b, 14, p).psi
        separate = alpha * evolve(a, 14, p).psi + beta * evolve(b, 14, p).psi
        assert float(np.max(np.abs(combined - separate))) <= 1e-11

    def test_translation_equivariance_is_bitwise(self):
        rng = np.random.default_rng(42)
        initial = rng.normal(size=(2, 24)) + 1j * rng.normal(size=(2, 24))
        p = KGParams(m0=0.9, grid=GRID)
        direct = evolve(np.roll(initial, 5, axis=1), 10, p).psi
        shifted = np.roll(evolve(initial, 10, p).psi, 5, axis=1)
        assert np.array_equal(direct, shifted)

    def test_unimodularity_transport_on_rest_cayley(self):
        """|psi| = 1 at every site over 64 steps for the exactly-solved mode."""
        from latticewave import mass_from_rest_period

        m0 = mass_from_rest_period(7, GRID)
        spec = WaveSpec(form=WaveForm.CAYLEY, N=7, M=INFINITE)
        exact = exact_slab(spec, 2, 16)
        out = evolve(exact, 64, KGParams(m0=m0, grid=GRID))
        assert float(np.max(np.abs(np.abs(out.psi) - 1.0))) <= 1e-9

    def test_evolved_slices_satisfy_the_operator(self):
        rng = np.random.default_rng(43)
        initial = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
        p = KGParams(m0=1.1, grid=GRID)
        out = evolve(initial, 12, p)
        residual = apply_kg_operator(out, p)
        assert float(np.max(np.abs(residual.psi))) <= 1e-11

    def test_bad_initial_shape(self):
        with pytest.raises(DomainError):
            evolve(np.zeros((3, 8)), 4, KGParams(m0=1.0, grid=GRID))
        with pytest.raises(DomainError):
            evolve(np.zeros((2, 2)), 4, KGParams(m0=1.0, grid=GRID))
        with pytest.raises(DomainError, match="finite"):
            evolve(np.full((2, 8), np.nan), 4, KGParams(m0=1.0, grid=GRID))

    def test_march_that_leaves_the_float_range_is_a_domain_error(self):
        """Finite stencil constants near 1e308 overflow during the march; the
        suite's RuntimeWarning filter also pins that no numpy warning leaks."""
        spec, _ = EXP_48
        p = KGParams(m0=1.0, grid=GridSpec(eps=1e-154, tau=1e-150))
        with pytest.raises(DomainError, match="overflowed the float range"):
            evolve(sample_wave(spec, 2, 16).psi, 16, p)


def test_kg_params_validation():
    with pytest.raises(DomainError):
        KGParams(m0=-1.0, grid=GRID)
