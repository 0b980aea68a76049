"""The toolkit's exit criteria, one test per criterion.

Each test runs a criterion from the acceptance registry at its pinned
tolerances and prints the pass/fail line with the measured values, so a
plain ``pytest tests/test_acceptance.py -s`` doubles as the certification
report.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from latticewave import (
    ParticleState,
    SampledSequence,
    debroglie_map,
    discrete_energy_momentum,
    energy_momentum_squared_exact,
    forward_avg,
    forward_diff,
    four_difference_invariant,
    step_velocity,
    total_difference_mass_shell,
    transform_particle,
    transform_wave,
)
from latticewave.acceptance import GRID, _Checker, criterion_ids, format_report, run_acceptance, run_criterion
from latticewave.grid import GridSpec
from latticewave.kinematics import LatticeStep

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
    with pytest.raises(ValueError):
        run_criterion(8, seed=SEED, as_printed={"mystery"})


# --- criteria 1 to 4 one sample at a time, as the oracle of the batched criteria -------------
#
# These are the per-sample loops the criteria ran before they drew once and
# evaluated whole arrays. They call the one-row case of the same library
# functions, so every line they print must reappear at the head of the
# criterion's details.


def oracle_criterion_1(rng):
    c = _Checker()
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
    c = _Checker()
    grid = GridSpec(tau=0.625, eps=0.25, c=2.0)
    c2 = Fraction(grid.c) ** 2
    c4 = c2 * c2
    tau_num, tau_den = grid.tau.as_integer_ratio()
    eps_num, eps_den = grid.eps.as_integer_ratio()
    states = []
    exact_ok = True
    while len(states) < 1000:
        dn = int(rng.integers(1, 40))
        dj = tuple(int(x) for x in rng.integers(-12, 13, 3))
        if (grid.c * dn * grid.tau) ** 2 <= sum((d * grid.eps) ** 2 for d in dj):
            continue
        m0 = float(rng.uniform(0.05, 5.0))
        step = LatticeStep(dn=dn, dj=dj)
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


def oracle_criterion_3(rng):
    c = _Checker()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 64))
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        sf, sg, sfg = SampledSequence(f), SampledSequence(g), SampledSequence(f * g)
        lhs = forward_diff(sfg).values
        rhs = forward_diff(sf).values * forward_avg(sg).values + forward_avg(sf).values * forward_diff(sg).values
        scale = max(1.0, float((np.abs(f) * np.abs(g)).max()))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    c.check("discrete product rule, elementwise over 1000 sequences", worst, 1e-12)
    return c


def oracle_criterion_4(rng):
    c = _Checker()
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
    for _ in range(200):
        grid = GRID
        dn = int(rng.integers(2, 20))
        dj = (int(rng.integers(-dn + 1, dn)), 0, 0)
        step = LatticeStep(dn=dn, dj=dj)
        m0 = float(rng.uniform(0.2, 4.0))
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


# SHA-256 of the verbose report that `latticewave verify-all --seed S [--as-printed V]` prints
REPORT_DIGESTS = {
    (0, "none"): "4398b79291a93c1da60877a2259ba543aef62a051453cb05a507821a3810cda2",
    (0, "s4"): "40a058367e012d2fbb7eadc0e2de35ceb0813ab9d300d9192fe90fc9cb013384",
    (0, "tan-dispersion"): "650b2544b66607882e14bdae806dc9f25edfd4a3bf3d8c7a4252016e684f8e1f",
    (1, "none"): "e72ea736fd969d5b8ebbff5a09f6a3302a6bf0e801adfe18cd6bed7089fd8d21",
    (1, "s4"): "d31f0dac246c0ad4877cd230a07871c81ac3670089968d85e924c6123684f5ce",
    (1, "tan-dispersion"): "fa2ba67c90d2ea2904e136af8d30cca62a4ee67be22164fa3bac25e838a049fa",
    (2, "none"): "81c3fe8c3011011749cc73c931aaf32548c2eab20dd705488107f33754dbbd1d",
    (2, "s4"): "a9ccbdff141abb7449c76e06852aba91763839351eee02eadda6e19223766cc3",
    (2, "tan-dispersion"): "f76d3694ebd1f7e182fb0124c56cd12dbfe64a044df390f3ab37f8a5c0912278",
    (3, "none"): "edd5efb6a3656d3db00a93a2a3b90d26150ac33be664c12533ff40429b5b7fa5",
    (3, "s4"): "10246001c87b2aabd4787bd4f7c9bb345319ea8b70371c7bfa925c3d1d18bd4a",
    (3, "tan-dispersion"): "8ccb729fa5ba16e5245a32d2faa7d453e9eb53639d80bf57a0794df406cc23fd",
    (4, "none"): "3ab3a2bbb50015d32473205357d3db7ba5204994cdd70f057ae80576ebd8f14b",
    (4, "s4"): "64082cbe6dcd984eb17dfc44f5f7e62b895b5d57363075d2151d7effdb99f4fd",
    (4, "tan-dispersion"): "f877a8bcfccce3f43c9b0698fa794e607ccfff9291a0c6525179acc132cc6aa5",
    (5, "none"): "11a9bdd0ec42b0be63bdaf74fcb2a1238cb549a458a90e0ed558f10d3d141c20",
    (5, "s4"): "8d8373573beb83227b2e06a6f17a57f456119ab499d45c366cdbd4051118e73a",
    (5, "tan-dispersion"): "85885d6a3d115c5c41f0a0c7debbfd62c4f06978a3565ce86cc4c7dae1e7de22",
    (6, "none"): "6217d90cd2236b5ed5b26db9941ce8f8c416677549f5d9d4422dd65dd01740eb",
    (6, "s4"): "58d63ed50d100c0fe2f91760255709513f30abf1a3602327db5d8f7145b8ba1a",
    (6, "tan-dispersion"): "f4e56af241a41437c0167c5351b78f62fd4c72343c0bf003cbdcffbfaeb2e605",
    (7, "none"): "9bd1287d0ca57a17881d0e11bcaa738ed07e9dfa88f2ae0d5d3dab6db1df3d8c",
    (7, "s4"): "decb7b7e28e5d1724287da23123aaa4585cb135f931146c844a1dd41c7721fb8",
    (7, "tan-dispersion"): "324023c03b9dbc4b5b3d15a391c04c94579eeac50fc3c91ec2775b73cbd18cce",
    (8, "none"): "a4c61f14e69233769d3875b64f2db70b78d773887fa9a89e447c4e60acd4db19",
    (8, "s4"): "25cb8bd812be22076fdb4c6f4da176eeab680c4e9e380adbb929ac8f2e720a1c",
    (8, "tan-dispersion"): "a0b3aa96bb09e860d0957c6fa6164c29fb5cfd45cf835d0a5ef5a3d17e3ac146",
    (9, "none"): "d678cca3e8254fabc6e4496067cb43c67e1f7dbdde90a04e5f3f4fdb8d89e26e",
    (9, "s4"): "04157e4d0aebde3a9f4a9cef586bce134a48cefc00ed4da2606c2f6f9107852f",
    (9, "tan-dispersion"): "eab4fabde1e344c58b2366755101214d54252318f82a68fcc05d761fcbaafede",
}


@pytest.mark.parametrize("seed, variant", sorted(REPORT_DIGESTS))
def test_verbose_report_is_pinned(seed, variant):
    as_printed = () if variant == "none" else (variant,)
    report = format_report(run_acceptance(seed=seed, as_printed=as_printed)) + "\n"
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_DIGESTS[seed, variant]
