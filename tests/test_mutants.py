"""A table of hand-written faults, each of which its named acceptance criterion must catch.

Each fault replaces one library function with a broken copy (through
pytest's ``monkeypatch``, in every module that imported the name) and runs
only the criterion that must fail. The unpatched row shows that the same
criterion passes without the fault.
"""

import numpy as np
import pytest

from latticewave import acceptance, kg_lattice, kinematics
from latticewave.acceptance import run_criterion

ORIGINAL = {
    name: getattr(kinematics, name)
    for name in ("boost_matrix", "four_difference_invariant", "transform_wave", "discrete_energy_momentum",
                 "_exact_squares", "_velocity_ratio")
}
ORIGINAL_KERNEL, ORIGINAL_CONSTANTS = kg_lattice._inverse_kernel, kg_lattice._stencil_constants


def gamma_squared_time_entry(v, c):
    L = ORIGINAL["boost_matrix"](v, c)
    L[..., 0, 0] **= 2
    return L


def boost_by_minus_v(v, c):
    return ORIGINAL["boost_matrix"](-np.asarray(v, dtype=float), c)


def flipped_time_column(v, c):
    L = ORIGINAL["boost_matrix"](v, c)
    L[..., 1:, 0] *= -1
    return L


def u_avg_without_c2(s, s_next, c, rtol=1e-10):
    s.validate(c, rtol)
    s_next.validate(c, rtol)
    dE, dp = s_next.E - s.E, s_next.p - s.p
    residual23 = (2.0 * s.E * dE + dE * dE) / c**2 - 2.0 * np.sum(s.p * dp, axis=-1) - np.sum(dp * dp, axis=-1)
    u_avg = (s.p + s_next.p) / np.expand_dims(s.E + s_next.E, -1)
    return residual23, dE - np.sum(u_avg * dp, axis=-1)


def invariant_sign_flipped(s, s_next, c):
    return -ORIGINAL["four_difference_invariant"](s, s_next, c)


def invariant_without_inverse_c2(s, s_next, c):
    dE, dp = s_next.E - s.E, s_next.p - s.p
    return dE * dE - np.sum(dp * dp, axis=-1)


def debroglie_w_times_hbar(s, hbar):
    return s.E * hbar, s.p / hbar


def transform_wave_without_c_on_w(w, k, v, c):
    wp, kp = ORIGINAL["transform_wave"](w, k, v, c)
    return wp / c, kp


def energy_with_one_c_too_few(m0, step, grid):
    s = ORIGINAL["discrete_energy_momentum"](m0, step, grid)
    return kinematics.ParticleState(E=s.E / grid.c, p=s.p, m0=s.m0, u=s.u)


def exact_energy_with_one_c_too_few(m0, step, grid):
    (E2, E2_den), p2, u2 = ORIGINAL["_exact_squares"](m0, step, grid)
    cn, cd = grid.c.as_integer_ratio()
    return (E2 * cd * cd, E2_den * cn * cn), p2, u2


def velocity_with_tau_for_eps(step, grid):
    num, den = ORIGINAL["_velocity_ratio"](step, grid)
    (tn, td), (en, ed) = grid.tau.as_integer_ratio(), grid.eps.as_integer_ratio()
    return num * tn * ed, den * en * td


def p_squared_without_dj_squared(m0, step, grid):
    E2, _, u2 = ORIGINAL["_exact_squares"](m0, step, grid)
    mn, md = kinematics._mass_ratio(m0, "exact squares")
    (cn, cd), (a, b), (en, ed), _, (s_num, _) = kinematics._exact_interval(step, grid)
    return E2, ((mn * cn * en * b) ** 2, (md * cd) ** 2 * s_num), u2


def kernel_cut_at_2_pow_minus_24(off, diag, n, p):
    kernel = ORIGINAL_KERNEL(off, diag, n, p)
    return kernel[: np.count_nonzero(np.abs(kernel) > 2.0**-24 * abs(kernel[0]))]


def mass_term_of_b_with_wrong_sign(p):
    off_a, diag_a, off_b, diag_b = ORIGINAL_CONSTANTS(p)
    # g = 1/(c tau)^2 + mu^2/4 instead of - mu^2/4 shifts off_b by mu^2/4 and diag_b by mu^2/2
    mu2 = p.mass_term
    return off_a, diag_a, off_b + mu2 / 4.0, diag_b + mu2 / 2.0


FAULTS = [
    # (id, module, function name, faulty replacement, criterion that must fail)
    ("boost-gamma-squared", kinematics, "boost_matrix", gamma_squared_time_entry, 1),
    ("boost-by-minus-v", kinematics, "boost_matrix", boost_by_minus_v, 1),
    ("boost-time-column-flipped", kinematics, "boost_matrix", flipped_time_column, 1),
    ("u-avg-without-c2", kinematics, "total_difference_mass_shell", u_avg_without_c2, 4),
    ("invariant-sign-flipped", kinematics, "four_difference_invariant", invariant_sign_flipped, 4),
    ("invariant-without-1/c2", kinematics, "four_difference_invariant", invariant_without_inverse_c2, 4),
    ("debroglie-w-times-hbar", kinematics, "debroglie_map", debroglie_w_times_hbar, 1),
    ("transform-wave-without-c", kinematics, "transform_wave", transform_wave_without_c_on_w, 1),
    ("energy-one-c-too-few", kinematics, "discrete_energy_momentum", energy_with_one_c_too_few, 2),
    ("exact-energy-one-c-too-few", kinematics, "_exact_squares", exact_energy_with_one_c_too_few, 2),
    ("velocity-tau-for-eps", kinematics, "_velocity_ratio", velocity_with_tau_for_eps, 2),
    ("p-squared-without-dj-squared", kinematics, "_exact_squares", p_squared_without_dj_squared, 2),
    ("evolve-kernel-cut-2^-24", kg_lattice, "_inverse_kernel", kernel_cut_at_2_pow_minus_24, 9),
    ("evolve-b-mass-sign", kg_lattice, "_stencil_constants", mass_term_of_b_with_wrong_sign, 9),
]


@pytest.mark.parametrize("module, name, fault, cid", [row[1:] for row in FAULTS], ids=[row[0] for row in FAULTS])
def test_fault_fails_its_criterion(monkeypatch, module, name, fault, cid):
    for namespace in (module, acceptance):
        if hasattr(namespace, name):
            monkeypatch.setattr(namespace, name, fault)
    result = run_criterion(cid, seed=0)
    assert not result.passed, "\n".join([result.line(), *result.details])


@pytest.mark.parametrize("cid", sorted({row[-1] for row in FAULTS}))
def test_unpatched_criterion_passes(cid):
    assert run_criterion(cid, seed=0).passed
