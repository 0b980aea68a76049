"""Self-tests of the benchmark's own code.

    python3 -m pytest bench -q

Each output check must reject a perturbed output, the reference
normalization and the statistics must compute what they claim, and the
tracer's wrappers must be gone whenever a timed run measures.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import FAILED, OK, WRONG, CliResult, Outcome  # noqa: E402

import latticewave  # noqa: E402
from latticewave import cli, grid, kinematics, waves  # noqa: E402
from latticewave.errors import DomainError  # noqa: E402


def played(name, tmp_path, seed=3):
    workload = workloads.WORKLOADS[name](seed, tmp_path)
    workload.reference()
    outcomes = workload.run_round(1)
    return workload, outcomes


def statuses(verdicts):
    return [status for _, status, _ in verdicts]


# --- output checks ---------------------------------------------------------------


def test_certify_check_rejects_perturbed_reports(tmp_path):
    workload, outcomes = played("certify", tmp_path)
    assert statuses(workload.check(1, outcomes)) == [OK]
    report = outcomes[0].value
    flipped = report.stdout.replace("[PASS] criterion 3:", "[FAIL] criterion 3:")
    for value in (CliResult(0, flipped, 0), CliResult(1, report.stdout, 0),
                  CliResult(0, report.stdout.replace("10/10", "9/10"), 0)):
        assert statuses(workload.check(1, [Outcome("verify-all", value)])) == [WRONG]
    assert statuses(workload.check(1, [Outcome("verify-all", error=RuntimeError())])) == [FAILED]
    # a clean report is not what an as-printed variant must produce
    assert workload._check_report(Outcome("as-printed", CliResult(1, report.stdout, 0)), (8,))[1] == WRONG


def test_certify_as_printed_variants_fail_their_criteria(tmp_path):
    assert statuses(workloads.Certify(0, tmp_path).once_per_run()) == [OK, OK]


def test_march_check_rejects_perturbed_slab(tmp_path):
    workload, outcomes = played("march", tmp_path)
    assert statuses(workload.check(1, outcomes)) == [OK]
    raw = bytearray(workload.path.read_bytes())
    value = np.frombuffer(bytes(raw[16 + 16 * 5000: 16 + 16 * 5001]), dtype="<c16")[0]
    raw[16 + 16 * 5000: 16 + 16 * 5001] = np.array([value + 1e-8], dtype="<c16").tobytes()
    workload.path.write_bytes(bytes(raw))
    assert statuses(workload.check(1, outcomes)) == [WRONG]
    raw[4:8] = (7).to_bytes(4, "little")
    workload.path.write_bytes(bytes(raw))
    assert statuses(workload.check(1, outcomes)) == [WRONG]


def test_slabs_checks_reject_perturbed_outputs(tmp_path):
    workload, outcomes = played("slabs", tmp_path)
    assert statuses(workload.check(1, outcomes)) == [OK] * 5 + [FAILED] * 3

    loaded = outcomes[2].value
    nudged = grid.FieldSlab(psi=loaded.psi.copy())
    nudged.psi[3, 4] += 1e-15
    perturbed = list(outcomes)
    perturbed[2] = Outcome(outcomes[2].op, nudged)
    assert statuses(workload.check(1, perturbed))[2] == WRONG

    good_bin = workload.wave_bin.read_bytes()
    workload.wave_bin.write_bytes(good_bin[:-1] + bytes([good_bin[-1] ^ 1]))
    assert statuses(workload.check(1, outcomes))[4] == WRONG
    workload.wave_bin.write_bytes(good_bin)

    text = workload.beat_csv.read_text()
    measured = next(line for line in text.splitlines() if line.startswith("# measured_v_group: "))
    workload.beat_csv.write_text(text.replace(measured, "# measured_v_group: 0.7"))
    assert statuses(workload.check(1, outcomes))[1] == WRONG

    lines = workload.wave_csv.read_text().splitlines()
    n, j, re, im = lines[-1].split(",")
    lines[-1] = ",".join([n, j, repr(float(re) + 1e-9), im])
    workload.wave_csv.write_text("\n".join(lines) + "\n")
    assert statuses(workload.check(1, outcomes))[0] == WRONG

    raised = [Outcome("bad", error=DomainError("x"))]
    assert statuses(workload.check(1, list(outcomes[:5]) + raised * 3))[5:] == [OK] * 3


def test_exact_checks_reject_perturbed_outputs(tmp_path):
    workload, outcomes = played("exact", tmp_path)
    assert statuses(workload.check(1, outcomes)) == [OK, OK, OK, FAILED]

    words = list(outcomes[1].value)
    words[7], words[8] = words[8], words[7]
    perturbed = list(outcomes)
    perturbed[1] = Outcome(outcomes[1].op, words)
    assert statuses(workload.check(1, perturbed))[1] == WRONG

    lines = workload.scan_csv.read_text().splitlines()
    workload.scan_csv.write_text("\n".join(lines[:-1]) + "\n")
    assert statuses(workload.check(1, outcomes))[2] == WRONG

    text = workload.ball_json.read_text()
    workload.ball_json.write_text(text.replace('"count": 2053', '"count": 2052'))
    assert statuses(workload.check(1, outcomes))[0] == WRONG

    fixed = list(outcomes)
    fixed[3] = Outcome(outcomes[3].op, CliResult(2, "", 0))
    assert statuses(workload.check(1, fixed))[3] == OK


def test_exact_reference_matches_known_ball_sizes():
    # ball(6) is the acceptance suite's ball; its size is fixed by the group
    assert len(workloads.ball(6)) == len(latticewave.enumerate_ball(6))
    assert all(workloads.metric_clean(m) for m in workloads.ball(4))
    assert (12, "inf") in workloads.cayley_scan(2 * np.pi / 12, 16, 16, 1e-9)


# --- normalization and statistics ----------------------------------------------------


def test_rounds_are_divided_by_the_mean_of_adjacent_references():
    assert harness.normalized_rounds([2.0, 4.0, 9.0], [1.0, 3.0, 1.0, 2.0]) == [1.0, 2.0, 6.0]
    with pytest.raises(ValueError):
        harness.normalized_rounds([1.0, 2.0], [1.0, 1.0])


def test_quartile_spread_is_the_interquartile_distance_over_the_median():
    assert harness.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
    assert harness.quartile_spread([10.0] * 6) == 0.0


def test_ledger_counts_failed_and_wrong_operations():
    ledger = harness.Ledger()
    ledger.add([("a", OK, ""), ("b", FAILED, "x")])
    assert (ledger.attempted, ledger.failed, ledger.correct) == (2, 1, True)
    ledger.add([("c", WRONG, "y")])
    assert (ledger.attempted, ledger.failed, ledger.correct) == (3, 1, False)


class _Counting(workloads.Workload):
    name = "counting"

    def run_round(self, k):
        return [Outcome(f"round {k}", sum(range(20000)))]

    def check(self, k, outcomes):
        return [(o.op, OK, "") for o in outcomes]


def test_measure_brackets_every_round_with_reference_timings(tmp_path):
    ledger = harness.Ledger()
    rounds, refs = harness.measure(_Counting(0, tmp_path), 0.0, ledger, first_round=1)
    assert len(rounds) == harness.MIN_ROUNDS and len(refs) == len(rounds) + 1
    assert ledger.attempted == harness.MIN_ROUNDS
    ratios = harness.normalized_rounds(rounds, refs)
    assert statistics.median(ratios) == statistics.median(
        r / ((a + b) / 2) for r, a, b in zip(rounds, refs, refs[1:]))


# --- tracing --------------------------------------------------------------------------


def test_tracer_wraps_across_modules_and_restores_every_original():
    before = (grid.load_slab_csv, latticewave.load_slab_csv, cli.solve_modes,
              kinematics.ParticleState.__dict__["from_momentum"], waves.eval_wave)
    with tracing.Tracer():
        assert hasattr(latticewave.load_slab_csv, "__bench_traced__")
        assert hasattr(cli.solve_modes, "__bench_traced__")
        assert hasattr(kinematics.ParticleState.__dict__["from_momentum"].__func__, "__bench_traced__")
        with pytest.raises(RuntimeError):
            tracing.assert_untraced()
    after = (grid.load_slab_csv, latticewave.load_slab_csv, cli.solve_modes,
             kinematics.ParticleState.__dict__["from_momentum"], waves.eval_wave)
    assert all(a is b for a, b in zip(before, after))
    tracing.assert_untraced()


def test_tracer_counts_calls_entering_each_group():
    spec = waves.WaveSpec(form=waves.WaveForm.CAYLEY, N=5, M=7)
    with tracing.Tracer() as tracer:
        waves.sample_wave(spec, 3, 4)
        latticewave.solve_modes(1.0, latticewave.DispersionForm.CAYLEY, 5, 6, 1e-9, latticewave.GridSpec())
        kinematics.ParticleState.from_momentum([0.5, 0, 0], 1.0, 1.0)
        values = tracer.snapshot()
    assert values["waves.eval_calls"] == 12
    assert values["dispersion.residual_calls"] == 4 * 6
    assert values["kinematics.calls"] == 1
    assert values["waves.sample_s"] > 0 and values["dispersion.scan_s"] > 0
    assert set(values) == set(tracing.METRIC_NAMES)


def test_timed_runs_refuse_to_measure_while_traced(tmp_path):
    args = argparse.Namespace(seconds=0.0)
    with tracing.Tracer():
        with pytest.raises(RuntimeError):
            run.end_to_end(_Counting(0, tmp_path), args, harness.Ledger(), lambda: 0.1)
    values, units = run.end_to_end(_Counting(0, tmp_path), args, harness.Ledger(), lambda: 0.1)
    assert set(values) == {"round_ref", "setup_s", "peak_rss_mb"} and units["round_ref"] == "ref"


def test_reported_metrics_match_the_benchmark_definition(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    args = argparse.Namespace(seconds=0.0)
    values, units = run.end_to_end(_Counting(0, tmp_path), args, harness.Ledger(), lambda: 0.1)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(units.items())
    values, units = run.per_layer(_Counting(0, tmp_path), args, harness.Ledger())
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == set(units.items())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
