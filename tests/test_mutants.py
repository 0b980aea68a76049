"""A table of hand-written faults, each of which its named acceptance criterion must catch.

Each fault replaces one library function or table with a broken copy
(through pytest's ``monkeypatch``, in every module that imported the name) and runs
only the criterion that must fail. The unpatched row shows that the same
criterion passes without the fault.
"""

import numpy as np
import pytest

from latticewave import acceptance, dispersion, kg_lattice, kinematics, lorentz_int
from latticewave.acceptance import run_criterion

ORIGINAL = {
    name: getattr(kinematics, name)
    for name in ("boost_matrix", "four_difference_invariant", "transform_wave", "_state_of", "_squares_of",
                 "_exact_interval", "_mass_ratio")
}
ORIGINAL_KERNEL, ORIGINAL_CONSTANTS = kg_lattice._inverse_kernel, kg_lattice._stencil_constants
ORIGINAL_SQUARE = dispersion._square


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


def u_avg_without_c2(s, s_next, c):
    s.validate(c)
    s_next.validate(c)
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


# derived is _timelike_step's tuple: (m0's ratio, c's ratio, c dt, eps, |dj|^2, s, the velocity's ratio)
def energy_with_one_c_too_few(m0, step, derived):
    s = ORIGINAL["_state_of"](m0, step, derived)
    cn, cd = derived[1]
    return kinematics.ParticleState(E=s.E / (cn / cd), p=s.p, m0=s.m0, u=s.u)


def exact_energy_with_one_c_too_few(derived):
    (E2, E2_den), p2, u2 = ORIGINAL["_squares_of"](derived)
    cn, cd = derived[1]
    return (E2 * cd * cd, E2_den * cn * cn), p2, u2


def velocity_with_tau_for_eps(step, grid):
    *interval, (num, den) = ORIGINAL["_exact_interval"](step, grid)
    (tn, td), (en, ed) = grid.tau.as_integer_ratio(), grid.eps.as_integer_ratio()
    return (*interval, (num * tn * ed, den * en * td))


def mass_ratio_inverted(m0, what):
    mn, md = ORIGINAL["_mass_ratio"](m0, what)
    return md, mn


def p_squared_without_dj_squared(derived):
    E2, _, u2 = ORIGINAL["_squares_of"](derived)
    (mn, md), (cn, cd), (a, b), (en, ed), _, (s_num, _), _ = derived
    return E2, ((mn * cn * en * b) ** 2, (md * cd) ** 2 * s_num), u2


def kernel_cut_at_2_pow_minus_24(off, diag, n, p):
    kernel = ORIGINAL_KERNEL(off, diag, n, p)
    return kernel[: np.count_nonzero(np.abs(kernel) > 2.0**-24 * abs(kernel[0]))]


def mass_term_of_b_with_wrong_sign(p):
    off_a, diag_a, off_b, diag_b = ORIGINAL_CONSTANTS(p)
    # g = 1/(c tau)^2 + mu^2/4 instead of - mu^2/4 shifts off_b by mu^2/4 and diag_b by mu^2/2
    mu2 = p.grid.wave_coefficients(p.m0)[2]
    return off_a, diag_a, off_b + mu2 / 4.0, diag_b + mu2 / 2.0


def exponential_square_coefficient_2(form, n):
    # the exponential Q(n) = 4 tan^2(pi/n) becomes 2 tan^2(pi/n), so the symmetric time coefficient 4 becomes 2
    square = ORIGINAL_SQUARE(form, n)
    return square / 2.0 if form is dispersion.DispersionForm.EXPONENTIAL else square


# S1 acts on a row (a, b, c, d) as (a, c, b, d); this swap of x and z keeps every product in the group,
# so eval_word raises nothing and only the round trip eval_word(factorize(L)) = L can catch it
S1_ACTION_SWAPS_COLUMNS_1_AND_3 = {**lorentz_int._LETTER_ACTIONS, "S1": lambda a, b, c, d: (a, d, c, b)}


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
    ("energy-one-c-too-few", kinematics, "_state_of", energy_with_one_c_too_few, 2),
    ("exact-energy-one-c-too-few", kinematics, "_squares_of", exact_energy_with_one_c_too_few, 2),
    ("velocity-tau-for-eps", kinematics, "_exact_interval", velocity_with_tau_for_eps, 2),
    # criterion 2 reads the masses through as_integer_ratio() itself, so a fault in _mass_ratio cannot hide
    ("mass-ratio-inverted", kinematics, "_mass_ratio", mass_ratio_inverted, 2),
    ("p-squared-without-dj-squared", kinematics, "_squares_of", p_squared_without_dj_squared, 2),
    ("evolve-kernel-cut-2^-24", kg_lattice, "_inverse_kernel", kernel_cut_at_2_pow_minus_24, 9),
    ("evolve-b-mass-sign", kg_lattice, "_stencil_constants", mass_term_of_b_with_wrong_sign, 9),
    ("dispersion-time-coefficient-2", dispersion, "_square", exponential_square_coefficient_2, 6),
    ("s1-action-swaps-columns-1-and-3", lorentz_int, "_LETTER_ACTIONS", S1_ACTION_SWAPS_COLUMNS_1_AND_3, 8),
]


# every sample of a criterion changes with its seed, so no fault's detection may rest on one seed's draws
SEEDS = range(5)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("module, name, fault, cid", [row[1:] for row in FAULTS], ids=[row[0] for row in FAULTS])
def test_fault_fails_its_criterion(monkeypatch, module, name, fault, cid, seed):
    for namespace in (module, acceptance):
        if hasattr(namespace, name):
            monkeypatch.setattr(namespace, name, fault)
    result = run_criterion(cid, seed=seed)
    assert not result.passed, "\n".join([result.line(), *result.details])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cid", sorted({row[-1] for row in FAULTS}))
def test_unpatched_criterion_passes(cid, seed):
    assert run_criterion(cid, seed=seed).passed
