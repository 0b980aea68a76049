"""The toolkit's exit criteria, one test per criterion.

Each test runs a criterion from the acceptance registry at its pinned
tolerances and prints the pass/fail line with the measured values, so a
plain ``pytest tests/test_acceptance.py -s`` doubles as the certification
report.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from latticewave import (
    Axis,
    BeatSpec,
    Boundary,
    ConfigError,
    DiffOp,
    FieldSlab,
    ParticleState,
    apply_1d,
    beat_velocities,
    debroglie_map,
    discrete_energy_momentum,
    energy_momentum_squared_exact,
    four_difference_invariant,
    measure_beat_velocity,
    step_velocity,
    total_difference_mass_shell,
    transform_particle,
    transform_wave,
)
from latticewave import acceptance
from latticewave.acceptance import (
    GRID,
    CriterionResult,
    _along_x,
    _uniform,
    criterion_ids,
    format_report,
    run_acceptance,
    run_criterion,
)
from latticewave.grid import GridSpec
from latticewave.kinematics import LatticeStep, _exact_squares, _squares_of, _state_of, _timelike_step

SEED = 0


@pytest.mark.parametrize("cid", criterion_ids())
def test_criterion(cid):
    result = run_criterion(cid, seed=SEED)
    print()
    print(result.line())
    for detail in result.details:
        print(f"    {detail}")
    assert result.passed, "\n".join([result.line(), *result.details])


def test_report_summarizes_all_criteria():
    results = run_acceptance(seed=SEED)
    report = format_report(results)
    assert "10/10 criteria passed" in report
    for cid in criterion_ids():
        assert f"criterion {cid}:" in report


def test_as_printed_s4_fails_with_documented_defect():
    result = run_criterion(8, seed=SEED, as_printed={"s4"})
    assert not result.passed
    assert any("Gram defect = 2" in d for d in result.details)


def test_as_printed_tan_dispersion_fails_the_residual_check():
    result = run_criterion(6, seed=SEED, as_printed={"tan-dispersion"})
    assert not result.passed
    assert any("FAILED" in d for d in result.details)


def test_unknown_as_printed_selector_rejected():
    # a ConfigError, in the package's error hierarchy, and still the ValueError it was
    with pytest.raises(ConfigError, match=r"unknown as-printed selector\(s\): \['mystery'\]"):
        run_criterion(8, seed=SEED, as_printed={"mystery"})
    assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize("seed", [-1, -2, True, 1.0, "0"])
def test_a_seed_that_is_not_an_integer_at_least_0_is_a_config_error(seed):
    # -1 would otherwise seed criterion 1 with 0, and -2 reach numpy's own ValueError
    with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
        run_criterion(1, seed=seed)
    with pytest.raises(ConfigError):
        run_acceptance(seed=seed)


@pytest.mark.parametrize("cid", [0, 11, True])
def test_a_criterion_id_outside_the_registry_is_a_config_error(cid):
    # True == 1, but a bool is no criterion id
    with pytest.raises(ConfigError, match=f"no criterion {cid!r}"):
        run_criterion(cid, seed=SEED)


# --- criteria 1 to 4 one sample at a time, as the oracle of the batched criteria -------------
#
# These draw the criteria's samples with the same numpy calls, or with scalar
# calls that give the same bits, and evaluate them one sample at a time
# through the one-row case of the same library functions, so every line they
# print must reappear at the head of the criterion's details.

C2_GRID = GridSpec(tau=0.625, eps=0.25, c=2.0)


def numpys_timelike_steps(rng, count=1000):
    """Criterion 2's rows: blocks of candidate steps, each as many as are still missing, whose timelike steps
    are kept in order, then a mass for each; as arrays dn, dj, m0."""
    cc, tau, eps = C2_GRID.c, C2_GRID.tau, C2_GRID.eps
    kept = []
    while left := count - len(kept):
        candidates = zip(rng.integers(1, 40, left).tolist(), rng.integers(-12, 13, (left, 3)).tolist())
        kept += [(dn, dj) for dn, dj in candidates if (cc * dn * tau) ** 2 > sum((x * eps) ** 2 for x in dj)]
    dn, dj = map(np.array, zip(*kept))
    return dn, dj, rng.uniform(0.05, 5.0, count)


def criterion_3_sequences(rng):
    """Criterion 3's 1000 sequences in order, each its (4, n) normals re f, im f, re g, im g: the lengths of
    10 blocks of 100 come first, then each block's normals in one draw, its sequences end to end."""
    for lengths in rng.integers(2, 64, (10, 100)):
        yield from np.split(rng.normal(size=(4, lengths.sum())), np.cumsum(lengths)[:-1], axis=1)


def criterion_4_rows(rng):
    """Criterion 4's 200 rows (dn, dj, m0) of free motion along x."""
    dn = rng.integers(2, 20, 200)
    x = rng.integers(-dn + 1, dn)
    return zip(dn.tolist(), [(xi, 0, 0) for xi in x.tolist()], rng.uniform(0.2, 4.0, 200).tolist())


def oracle_criterion_1(rng):
    c = CriterionResult(1, "oracle")
    worst = 0.0
    for _ in range(1000):
        s = ParticleState.from_momentum([rng.uniform(-3, 3), 0, 0], rng.uniform(0.05, 5.0), 1.0)
        w, k = debroglie_map(s, 1.0)
        v = [rng.uniform(-0.9, 0.9), 0, 0]
        wp, kp = transform_wave(w, k, v, 1.0)
        sp = transform_particle(s, v, 1.0)
        scale = max(abs(sp.E), float(np.max(np.abs(sp.p))))
        worst = max(worst, abs(wp - sp.E) / scale, float(np.max(np.abs(kp - sp.p))) / scale)
    c.check("wave/particle boost agreement over 1000 states, relative", worst, 1e-12)
    return c


def oracle_criterion_2(rng):
    c = CriterionResult(2, "oracle")
    grid = C2_GRID
    c2 = Fraction(grid.c) ** 2
    c4 = c2 * c2
    tau_num, tau_den = grid.tau.as_integer_ratio()
    eps_num, eps_den = grid.eps.as_integer_ratio()
    states = []
    exact_ok = True
    dn_all, dj_all, m0_all = numpys_timelike_steps(rng)
    for dn, dj, m0 in zip(dn_all.tolist(), dj_all.tolist(), m0_all.tolist()):
        step = LatticeStep(dn=dn, dj=tuple(dj))
        states.append(discrete_energy_momentum(m0, step, grid))
        m = Fraction(m0)
        E2, p2, u2 = energy_momentum_squared_exact(m, step, grid)
        exact_ok &= E2 - p2 * c2 == m * m * c4
        # u dt = dx, cross-multiplied: u_num dn tau = d eps u_den
        u = step_velocity(step, grid)
        exact_ok &= len(u) == 3 and all(
            ui.numerator * dn * tau_num * eps_den == d * eps_num * tau_den * ui.denominator
            for ui, d in zip(u, dj)
        )
        # u^2 = p^2 c^4 / E^2, with E^2 > 0 on a timelike step
        exact_ok &= u2 * E2 == p2 * c4
    stack = ParticleState(*map(np.array, zip(*((s.E, s.p, s.m0, s.u) for s in states))))
    c.check("mass-shell relative residual over 1000 timelike steps", np.max(stack.mass_shell_residual(grid.c)), 1e-12)
    c.require("u = dx/dt and the shell identity, exact in rational arithmetic", exact_ok)
    return c


def one_row(values, op):
    """One operator on one sequence, as a one-row slab."""
    return apply_1d(FieldSlab(psi=values[None, :]), Axis.SPACE_J, op, Boundary.SHRINKING).psi[0]


def oracle_criterion_3(rng):
    c = CriterionResult(3, "oracle")
    worst = 0.0
    for x in criterion_3_sequences(rng):
        f, g = x[0] + 1j * x[1], x[2] + 1j * x[3]
        lhs = one_row(f * g, DiffOp.FORWARD_DIFF)
        rhs = (one_row(f, DiffOp.FORWARD_DIFF) * one_row(g, DiffOp.FORWARD_AVG)
               + one_row(f, DiffOp.FORWARD_AVG) * one_row(g, DiffOp.FORWARD_DIFF))
        scale = max(1.0, float((np.abs(f) * np.abs(g)).max()))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    c.check("discrete product rule, elementwise over 1000 sequences", worst, 1e-12)
    return c


def oracle_criterion_4(rng):
    c = CriterionResult(4, "oracle")
    worst23 = worst24 = 0.0
    for _ in range(1000):
        m0 = rng.uniform(0.1, 3.0)
        a = ParticleState.from_momentum([rng.uniform(-3, 3), 0, 0], m0, 1.0)
        b = ParticleState.from_momentum([rng.uniform(-3, 3), 0, 0], m0, 1.0)
        r23, r24 = total_difference_mass_shell(a, b, 1.0)
        scale = max(a.E, b.E)
        worst23 = max(worst23, abs(r23) / scale**2)
        worst24 = max(worst24, abs(r24) / scale)
    c.check("total-difference shell residual over 1000 pairs", worst23, 1e-10)
    c.check("dE = u_avg dp with the average-velocity convention", worst24, 1e-10)
    worst_inv = 0.0
    for dn, dj, m0 in criterion_4_rows(rng):
        grid = GRID
        step = LatticeStep(dn=dn, dj=dj)
        s1 = discrete_energy_momentum(m0, step, grid)
        s2 = discrete_energy_momentum(m0, step, grid)  # next event of the same free motion
        worst_inv = max(worst_inv, abs(four_difference_invariant(s1, s2, grid.c)))
    c.check("difference four-vector invariant across consecutive free events", worst_inv, 1e-10)
    a = ParticleState.from_momentum([0.75, 0, 0], 1.0, 1.0)
    b = ParticleState.from_momentum([1.0, 0, 0], 1.0, 1.0)
    c.note(
        "distinct-momentum pair (p = 0.75, 1.0): invariant = "
        f"{four_difference_invariant(a, b, 1.0):.6f} (spacelike, nonzero by construction; documented)"
    )
    return c


ORACLES = {1: oracle_criterion_1, 2: oracle_criterion_2, 3: oracle_criterion_3, 4: oracle_criterion_4}


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("cid", sorted(ORACLES))
def test_batched_criteria_print_the_per_sample_lines(cid, seed):
    expected = ORACLES[cid](np.random.default_rng(seed + cid))
    result = run_criterion(cid, seed=seed)
    assert result.details[: len(expected.details)] == expected.details
    if cid == 2:  # the oracle is the whole of criterion 2
        assert len(result.details) == len(expected.details)
    assert result.passed and expected.passed


# Each criterion's arithmetic as it stood before it became one pass: criterion 2 through the public
# discrete_energy_momentum, criterion 3 grouped by length rather than end to end, criterion 4 over rows
# and criterion 5 over one scalar draw loop. They are kept as oracles, as tests/test_dispersion.py keeps
# parent_solve_modes, and draw with the criteria's own numpy calls.


def parent_criterion_2(rng):
    c = CriterionResult(2, "parent")
    dn, dj, m0 = numpys_timelike_steps(rng)
    stack = discrete_energy_momentum(m0, LatticeStep(dn=dn, dj=dj), C2_GRID)
    c.check("mass-shell relative residual over 1000 timelike steps", np.max(stack.mass_shell_residual(C2_GRID.c)),
            1e-12)
    return c


def parent_criterion_3(rng):
    c = CriterionResult(3, "parent")
    by_length: dict[int, list] = {}
    for x in criterion_3_sequences(rng):
        by_length.setdefault(x.shape[1], []).append(x)

    def rows(a, op):
        return apply_1d(FieldSlab(psi=a), Axis.SPACE_J, op, Boundary.SHRINKING).psi

    d, a = DiffOp.FORWARD_DIFF, DiffOp.FORWARD_AVG
    worst = 0.0
    for draws in by_length.values():
        x = np.array(draws)
        f, g = x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3]
        residual = rows(f * g, d) - (rows(f, d) * rows(g, a) + rows(f, a) * rows(g, d))
        scale = np.maximum(1.0, np.max(np.abs(f) * np.abs(g), axis=1))
        worst = max(worst, np.max(np.max(np.abs(residual), axis=1) / scale))
    c.check("discrete product rule, elementwise over 1000 sequences", worst, 1e-12)
    return c


def parent_criterion_5(rng):
    c = CriterionResult(5, "parent")
    b = BeatSpec(T1=4.0, T2=6.0, lam1=3.0, lam2=5.0)
    v_phase, v_group = beat_velocities(b)
    vg_exact = (Fraction(1, 4) - Fraction(1, 6)) / (Fraction(1, 3) - Fraction(1, 5))
    vp_exact = (Fraction(1, 4) + Fraction(1, 6)) / (Fraction(1, 3) + Fraction(1, 5))
    c.check("printed group-velocity formula vs exact fraction 5/8", abs(v_group - float(vg_exact)), 1e-15)
    c.check("printed phase-velocity formula vs exact fraction 25/32", abs(v_phase - float(vp_exact)), 1e-15)
    worst = 0.0
    for _ in range(200):
        cc = rng.uniform(0.5, 3.0)
        m0 = rng.uniform(0.0, 2.0)
        k1, k2 = rng.uniform(0.2, 4.0, 2)
        if abs(k1 - k2) < 1e-3:
            continue
        w1 = math.sqrt(cc**2 * k1**2 + (m0 * cc**2) ** 2)
        w2 = math.sqrt(cc**2 * k2**2 + (m0 * cc**2) ** 2)
        bb = BeatSpec(T1=2 * math.pi / w1, T2=2 * math.pi / w2, lam1=2 * math.pi / k1, lam2=2 * math.pi / k2)
        vp, vg = beat_velocities(bb)
        worst = max(worst, abs(vp * vg - cc**2) / cc**2)
    c.check("v_phase * v_group = c^2 on mass-shell mode pairs, relative", worst, 1e-10)
    measured = measure_beat_velocity(b, GRID, 256, 1024)
    c.check("envelope-tracked group velocity vs dw/dk, relative (256x1024)", abs(measured - 0.625) / 0.625, 0.02)
    return c


def parent_criterion_4(rng):
    c = CriterionResult(4, "parent")
    r = rng.random((1000, 3))
    m0 = _uniform(r[:, 0], 0.1, 3.0)
    a = ParticleState.from_momentum(_along_x(_uniform(r[:, 1], -3, 3)), m0, 1.0)
    b = ParticleState.from_momentum(_along_x(_uniform(r[:, 2], -3, 3)), m0, 1.0)
    r23, r24 = total_difference_mass_shell(a, b, 1.0)
    scale = np.maximum(a.E, b.E)
    c.check("total-difference shell residual over 1000 pairs", np.max(np.abs(r23) / scale**2), 1e-10)
    c.check("dE = u_avg dp with the average-velocity convention", np.max(np.abs(r24) / scale), 1e-10)
    dn, dj, m0 = map(np.array, zip(*criterion_4_rows(rng)))
    step = LatticeStep(dn=dn, dj=dj)
    s1 = discrete_energy_momentum(m0, step, GRID)
    s2 = discrete_energy_momentum(m0, step, GRID)
    c.check("difference four-vector invariant across consecutive free events",
            np.max(np.abs(four_difference_invariant(s1, s2, GRID.c))), 1e-10)
    cc = 2.0
    m0 = rng.uniform(0.1, 3.0, 1000)
    a = ParticleState.from_momentum(rng.uniform(-3, 3, (1000, 3)), m0, cc)
    b = ParticleState.from_momentum(rng.uniform(-3, 3, (1000, 3)), m0, cc)
    v = rng.uniform(-1.1, 1.1, (1000, 3))
    invariant = four_difference_invariant(a, b, cc)
    boosted = four_difference_invariant(transform_particle(a, v, cc), transform_particle(b, v, cc), cc)
    scale = np.maximum(a.E, b.E) ** 2 / cc**2
    c.check("difference invariant unchanged by a boost at c = 2, relative to (E/c)^2",
            np.max(np.abs(boosted - invariant) / scale), 1e-10)
    _, r24 = total_difference_mass_shell(a, b, cc)
    c.check("dE = u_avg dp at c = 2 with oblique momenta", np.max(np.abs(r24) / np.maximum(a.E, b.E)), 1e-10)
    return c


PARENT_LOOPS = {2: parent_criterion_2, 3: parent_criterion_3, 4: parent_criterion_4, 5: parent_criterion_5}


@pytest.mark.parametrize("cid", sorted(PARENT_LOOPS))
def test_one_pass_criteria_measure_the_parent_loops_values_bit_for_bit(monkeypatch, cid):
    records = []
    check = CriterionResult.check

    def recording_check(self, label, measured, bound):
        records.append((label, float(measured).hex(), bound))
        check(self, label, measured, bound)

    monkeypatch.setattr(CriterionResult, "check", recording_check)
    for seed in range(50):
        run_criterion(cid, seed=seed)
        got = records[:]
        records.clear()
        PARENT_LOOPS[cid](np.random.default_rng(seed + cid))
        assert got == records, f"seed {seed}"
        records.clear()


def test_criterion_2_derives_each_exact_quantity_once_per_use(exact_derivations):
    """The 1000 steps' masses and interval are derived once, by one _timelike_step call whose tuple feeds the
    float state, the exact squares and the criterion's velocity check."""
    assert run_criterion(2, seed=3).passed
    assert exact_derivations == {"_mass_ratio": 1, "_exact_interval": 1}


@pytest.mark.parametrize("seed", range(5))
def test_the_exact_entry_points_return_the_bits_of_the_halves_criterion_2_certifies(seed):
    """discrete_energy_momentum and _exact_squares on criterion 2's rows give what _state_of and _squares_of
    give from the criterion's one _timelike_step, so the criterion certifies the public entry points."""
    dn, dj, m0 = numpys_timelike_steps(np.random.default_rng(seed + 2))
    step = LatticeStep(dn=dn, dj=dj)
    derived = _timelike_step(m0, step, C2_GRID, "discrete energy-momentum")
    state, want = discrete_energy_momentum(m0, step, C2_GRID), _state_of(m0, step, derived)
    assert [x.tobytes() for x in (state.E, state.p, state.u)] == [x.tobytes() for x in (want.E, want.p, want.u)]
    assert state.m0 is want.m0 is m0
    squares = [np.asarray(x).tolist() for ratio in _exact_squares(m0, step, C2_GRID) for x in ratio]
    assert squares == [np.asarray(x).tolist() for ratio in _squares_of(derived) for x in ratio]


def test_criterion_5_tracks_the_beat_without_sampling_its_field():
    """Criterion 5 samples no 256 x 1024 beat field, which alone is 4 MiB of complex values, and builds
    no squared envelope, 2 MiB of floats: the tracker evaluates the envelope only at the sites it reads."""
    tracemalloc.start()
    try:
        result = run_criterion(5, seed=SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    # the draws and the tracker's windows: 74 KiB warm, 1 MiB in a fresh process
    assert peak < 2 * 2**20


@pytest.mark.parametrize("cid", [cid for cid in criterion_ids() if cid != 5])
def test_every_criterion_certifies_in_2_mib_of_scratch(cid):
    """Measured warm, so that no first-call import counts. The largest is criterion 2 at about 1 MiB;
    criterion 3 checks its 1000 sequences in blocks of 100, about 0.7 MiB. Criterion 5's 2 MiB bound is
    the test above, measured cold, so that its first call's imports count too."""
    run_criterion(cid, seed=SEED)
    tracemalloc.start()
    try:
        result = run_criterion(cid, seed=SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("block", [0, 4, 9])
def test_criterion_3_fails_on_a_nan_in_any_block(monkeypatch, block):
    """A NaN in one block's first difference reaches the product-rule check and fails it."""
    calls = 0

    def nan_in_one_block(slab, *args):
        nonlocal calls
        out = apply_1d(slab, *args)
        calls += 1
        if calls == 5 * block + 1:  # the first of the block's five rows: D(fg)
            out.psi[..., 0] = np.nan
        return out

    monkeypatch.setattr(acceptance, "apply_1d", nan_in_one_block)
    result = run_criterion(3, seed=SEED)
    assert calls == 50
    assert not result.passed
    assert result.details[0].startswith("discrete product rule") and result.details[0].endswith("FAILED")

