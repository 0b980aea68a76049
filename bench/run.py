#!/usr/bin/env python3
"""Run one benchmark workload of latticewave in this process and print its metrics.

    python3 bench/run.py --workload {certify,march,slabs,exact} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: the program is imported from ``src/``
next to this directory. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
readable summary goes to standard error. ``--trace 0`` reports the
end-to-end metrics (``round_ref``, ``setup_s``, ``peak_rss_mb``),
``--trace 1`` the per-layer ones. See README.md in this directory.
"""

import os

# one thread per process: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"

WORKLOAD_NAMES = ("certify", "march", "slabs", "exact")
SETUP_PROBES = 9
KG_PROBE_STEPS = 8
KG_PROBE_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="makes the workload's inputs")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import latticewave from this checkout's src/, refusing any other copy."""
    if not (SRC / "latticewave" / "__init__.py").is_file():
        raise SystemExit(f"bench: no latticewave sources in {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import latticewave

    if not Path(latticewave.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: imported latticewave from {latticewave.__file__}, not from {SRC}")
    return latticewave


def make_workdir(label: str) -> Path:
    path = WORK_DIR / f"{label}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_probe(args) -> None:
    """Child process: time importing the program and building the workload's inputs."""
    start = time.perf_counter()
    import_program()
    from workloads import WORKLOADS

    workdir = make_workdir(f"probe-{args.workload}")
    try:
        WORKLOADS[args.workload](args.seed, workdir)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def time_setup(args) -> float:
    """Set-up seconds of one fresh process, which this one waits for."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def kg_probes(workload) -> tuple[float, float]:
    """(kernel_ms, step_ms): evolve with 0 steps, and the added cost per step, at the workload's Nx."""
    if workload.kg_probe is None:
        return 0.0, 0.0
    import numpy as np
    from latticewave import GridSpec, KGParams, evolve

    nx, m0 = workload.kg_probe
    rng = np.random.default_rng(workload.seed)
    initial = rng.normal(size=(2, nx)) + 1j * rng.normal(size=(2, nx))
    params = KGParams(m0=m0, grid=GridSpec())

    def seconds(steps: int) -> float:
        times = []
        for _ in range(KG_PROBE_REPEATS):
            start = time.perf_counter()
            evolve(initial, steps, params)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    zero = seconds(0)
    return zero * 1e3, (seconds(KG_PROBE_STEPS) - zero) / KG_PROBE_STEPS * 1e3


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if "bytes" in metric:
        return "bytes"
    return "count"


def end_to_end(workload, args, ledger, probe_setup) -> tuple[dict, dict]:
    """round_ref, setup_s and peak_rss_mb; ``probe_setup()`` times one set-up in a fresh process.

    The set-up probes run between rounds, up to ``SETUP_PROBES`` of them, so
    their median samples the host's speed across the whole run.
    """
    import harness
    import tracing

    tracing.assert_untraced()
    setup_times = [probe_setup()]

    def between():
        if len(setup_times) < SETUP_PROBES:
            setup_times.append(probe_setup())

    rounds, refs = harness.measure(workload, args.seconds, ledger, first_round=1, between=between)
    ratios = harness.normalized_rounds(rounds, refs)
    print(f"rounds: {len(rounds)}, raw median {statistics.median(rounds):.4f} s, "
          f"reference median {statistics.median(refs) * 1e3:.2f} ms, set-up probes {len(setup_times)}, "
          f"ratio spread {harness.quartile_spread(ratios) if len(ratios) > 1 else 0.0:.3%}", file=sys.stderr)
    return {
        "round_ref": statistics.median(ratios),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"round_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer(workload, args, ledger) -> tuple[dict, dict]:
    import harness
    import tracing
    from workloads import CliResult

    half = args.seconds / 2.0
    rounds, refs = harness.measure(workload, half, ledger, first_round=1)
    kernel_ms, step_ms = kg_probes(workload)
    snapshots = []
    with tracing.Tracer() as tracer:
        def record(outcomes):
            snapshot = tracer.snapshot()
            snapshot["cli.output_bytes"] = float(sum(o.value.output_bytes for o in outcomes
                                                     if isinstance(o.value, CliResult)))
            snapshots.append(snapshot)

        traced, _ = harness.measure(workload, half, ledger, first_round=len(rounds) + 1,
                                    on_start=tracer.reset, on_end=record)
    tracing.assert_untraced()
    values = {name: statistics.median(s[name] for s in snapshots) for name in snapshots[0]}
    values["kg_lattice.kernel_ms"] = kernel_ms
    values["kg_lattice.step_ms"] = step_ms
    values["bench.round_s"] = statistics.median(rounds)
    values["bench.ref_s"] = statistics.median(refs)
    values["bench.trace_overhead_s"] = statistics.median(traced) - statistics.median(rounds)
    return values, {name: unit_of(name) for name in values}


def run(args) -> int:
    import_program()
    import harness
    from workloads import WORKLOADS

    workdir = make_workdir(args.workload)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.reference()
        ledger = harness.Ledger()
        ledger.add(workload.once_per_run())
        harness.play_round(workload, 0, ledger)  # warm-up: caches and lazy tables fill here
        if args.trace:
            values, units = per_layer(workload, args, ledger)
        else:
            values, units = end_to_end(workload, args, ledger, lambda: time_setup(args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    for problem, count in ledger.problems.items():
        print(f"  {count} x {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: correct {ledger.correct}, "
          f"attempted {ledger.attempted}, failed {ledger.failed}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}", file=sys.stderr)
    RESULTS_DIR.mkdir(exist_ok=True)
    line = json.dumps(result)
    (RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if ledger.correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
