"""The toolkit's exit criteria, one test per criterion.

Each test runs a criterion from the acceptance registry at its pinned
tolerances and prints the pass/fail line with the measured values, so a
plain ``pytest tests/test_acceptance.py -s`` doubles as the certification
report.
"""

import numpy as np
import pytest

from latticewave import (
    ParticleState,
    SampledSequence,
    debroglie_map,
    discrete_energy_momentum,
    forward_avg,
    forward_diff,
    four_difference_invariant,
    total_difference_mass_shell,
    transform_particle,
    transform_wave,
)
from latticewave.acceptance import GRID, _Checker, criterion_ids, format_report, run_acceptance, run_criterion
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


# --- criteria 1, 3 and 4 one sample at a time, as the oracle of the batched criteria ---------
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


ORACLES = {1: oracle_criterion_1, 3: oracle_criterion_3, 4: oracle_criterion_4}


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("cid", sorted(ORACLES))
def test_batched_criteria_print_the_per_sample_lines(cid, seed):
    expected = ORACLES[cid](np.random.default_rng(seed + cid))
    result = run_criterion(cid, seed=seed)
    assert result.details[: len(expected.details)] == expected.details
    assert result.passed and expected.passed
