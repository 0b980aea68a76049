"""Difference-calculus operators and the algebraic identities built on them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticewave import (
    Axis,
    Boundary,
    DiffOp,
    DomainError,
    FieldSlab,
    GridSpec,
    apply_1d,
)

D, B, A, V = DiffOp.FORWARD_DIFF, DiffOp.BACKWARD_DIFF, DiffOp.FORWARD_AVG, DiffOp.BACKWARD_AVG


def seq(values, op, boundary=Boundary.SHRINKING):
    """One operator on a sequence, applied by apply_1d to a one-row slab; the row comes back."""
    row = FieldSlab(psi=np.asarray(values, dtype=complex)[None, :])
    return apply_1d(row, Axis.SPACE_J, op, boundary).psi[0]


finite_complex = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
complex_lists = st.lists(finite_complex, min_size=2, max_size=40)


def test_forward_diff_by_hand():
    np.testing.assert_array_equal(seq([1, 3, 6], D), [2, 3])


def test_forward_diff_of_constant_is_zero():
    np.testing.assert_array_equal(seq([5 + 2j] * 3, D), [0, 0])


def test_forward_diff_periodic_complex():
    """Wrapping forward difference of [1, i, -1, -i] against a direct loop."""
    f = [1, 1j, -1, -1j]
    expected = [f[(i + 1) % 4] - f[i] for i in range(4)]
    result = seq(f, D, Boundary.PERIODIC)
    np.testing.assert_array_equal(result, expected)
    np.testing.assert_array_equal(result, [-1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])


def test_backward_diff_by_hand():
    np.testing.assert_array_equal(seq([1, 3, 6], B), [2, 3])


def test_backward_diff_periodic():
    np.testing.assert_array_equal(seq([0, 1, 0, -1], B, Boundary.PERIODIC), [1, 1, -1, -1])


@given(complex_lists.filter(lambda v: len(v) >= 3))
def test_backward_of_forward_is_centered_second_difference(values):
    f = np.asarray(values)
    second = seq(seq(f, D), B)
    centered = f[2:] - 2 * f[1:-1] + f[:-2]
    np.testing.assert_allclose(second, centered, rtol=0, atol=1e-9 * max(1.0, np.abs(f).max()))


def test_forward_avg_by_hand():
    np.testing.assert_array_equal(seq([2, 4], A), [3])


def test_forward_avg_of_constant():
    np.testing.assert_array_equal(seq([7 - 1j] * 4, A), [7 - 1j] * 3)


def test_avg_composition_is_three_point_smoother():
    """A(V f) == (f[i+1] + 2 f[i] + f[i-1]) / 4 on random data."""
    rng = np.random.default_rng(11)
    f = rng.normal(size=12) + 1j * rng.normal(size=12)
    composed = seq(seq(f, V), A)
    direct = (f[2:] + 2 * f[1:-1] + f[:-2]) / 4
    np.testing.assert_allclose(composed, direct, rtol=0, atol=1e-15)


def test_shrinking_length_drops_by_one_per_application():
    f = np.arange(6.0)
    for op in DiffOp:
        assert len(seq(f, op)) == 5
    assert len(seq(seq(f, D), D)) == 4


def test_periodic_length_preserved():
    assert len(seq(np.arange(6.0), D, Boundary.PERIODIC)) == 6


def test_too_short_raises():
    with pytest.raises(DomainError):
        seq([1.0], D)


@given(complex_lists)
@settings(max_examples=200)
def test_product_identity(values):
    """D(f g) = Df Ag + Af Dg elementwise, the exact discrete product rule."""
    rng = np.random.default_rng(len(values))
    f = np.asarray(values)
    g = rng.normal(size=len(f)) + 1j * rng.normal(size=len(f))
    lhs = seq(f * g, D)
    rhs = seq(f, D) * seq(g, A) + seq(f, A) * seq(g, D)
    scale = max(1.0, float((np.abs(f) * np.abs(g)).max()))
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * scale)


@given(
    st.integers(min_value=2, max_value=30),
    finite_complex,
    finite_complex,
    st.sampled_from(list(DiffOp)),
)
def test_linearity(n, alpha, beta, op):
    rng = np.random.default_rng(n)
    f = rng.normal(size=n) + 1j * rng.normal(size=n)
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    lhs = seq(alpha * f + beta * g, op)
    rhs = alpha * seq(f, op) + beta * seq(g, op)
    scale = max(1.0, (abs(alpha) + abs(beta)) * 3.0)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-9 * scale)


def test_telescoping_periodic_sum_vanishes():
    rng = np.random.default_rng(3)
    f = rng.normal(size=17) + 1j * rng.normal(size=17)
    total = seq(f, D, Boundary.PERIODIC).sum()
    assert abs(total) <= 1e-13 * np.abs(f).sum()


# --- 2-D lifts ----------------------------------------------------------------


SHRINK = Boundary.SHRINKING


def make_slab(psi):
    return FieldSlab(psi=np.asarray(psi, dtype=complex))


def test_apply_1d_time_diff_of_time_constant_field():
    slab = make_slab(np.tile(np.arange(5.0), (4, 1)))
    out = apply_1d(slab, Axis.TIME_N, DiffOp.FORWARD_DIFF, SHRINK)
    assert out.psi.shape == (3, 5)
    np.testing.assert_array_equal(out.psi, 0)


def test_apply_1d_space_avg_of_linear_field():
    """Forward space average of psi[n][j] = j is j + 1/2 (shrinking)."""
    psi = np.tile(np.arange(6.0), (3, 1))
    out = apply_1d(make_slab(psi), Axis.SPACE_J, DiffOp.FORWARD_AVG, SHRINK)
    np.testing.assert_array_equal(out.psi, np.tile(np.arange(5.0) + 0.5, (3, 1)))


def test_apply_1d_separable_product_factorizes():
    """Time and space stencils act independently on a separable field a[n] b[j]."""
    rng = np.random.default_rng(23)
    a = rng.normal(size=9) + 1j * rng.normal(size=9)
    b = rng.normal(size=7) + 1j * rng.normal(size=7)
    slab = make_slab(np.outer(a, b))

    def d2(v):  # backward of forward, shrinking
        return v[2:] - 2 * v[1:-1] + v[:-2]

    def a2(v):  # forward avg of backward avg, shrinking
        return (v[2:] + 2 * v[1:-1] + v[:-2]) / 4

    stepped = slab
    for axis, op in ((Axis.TIME_N, DiffOp.FORWARD_DIFF), (Axis.TIME_N, DiffOp.BACKWARD_DIFF),
                     (Axis.SPACE_J, DiffOp.FORWARD_AVG), (Axis.SPACE_J, DiffOp.BACKWARD_AVG)):
        stepped = apply_1d(stepped, axis, op, SHRINK)
    factored = np.outer(d2(a), a2(b))
    np.testing.assert_allclose(stepped.psi, factored, rtol=0, atol=1e-13)


def test_time_and_space_operators_commute():
    rng = np.random.default_rng(5)
    slab = make_slab(rng.normal(size=(8, 9)) + 1j * rng.normal(size=(8, 9)))
    ab = apply_1d(apply_1d(slab, Axis.TIME_N, DiffOp.FORWARD_DIFF, SHRINK), Axis.SPACE_J, DiffOp.FORWARD_AVG, SHRINK)
    ba = apply_1d(apply_1d(slab, Axis.SPACE_J, DiffOp.FORWARD_AVG, SHRINK), Axis.TIME_N, DiffOp.FORWARD_DIFF, SHRINK)
    assert float(np.max(np.abs(ab.psi - ba.psi))) <= 1e-13


def test_apply_1d_boundary_is_an_argument():
    """The same slab keeps its shape under periodic ends and loses a slice under shrinking ones."""
    rng = np.random.default_rng(8)
    slab = make_slab(rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6)))
    periodic = apply_1d(slab, Axis.SPACE_J, DiffOp.FORWARD_DIFF, Boundary.PERIODIC)
    np.testing.assert_array_equal(periodic.psi, np.roll(slab.psi, -1, axis=1) - slab.psi)
    shrinking = apply_1d(slab, Axis.SPACE_J, DiffOp.FORWARD_DIFF, SHRINK)
    np.testing.assert_array_equal(shrinking.psi, periodic.psi[:, :-1])


def test_apply_1d_extent_too_small():
    slab = make_slab(np.ones((1, 5)))
    with pytest.raises(DomainError):
        apply_1d(slab, Axis.TIME_N, DiffOp.FORWARD_DIFF, SHRINK)
