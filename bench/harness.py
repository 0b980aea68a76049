"""Timing loop, reference kernel and statistics shared by the benchmark's workloads.

Round times are divided by the time of a fixed reference kernel measured
just before and just after the round in the same process. The shared host's
speed drifts by tens of percent between processes, and the drift moves the
round and the kernel together, so the ratio repeats where raw seconds do not.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

MIN_ROUNDS = 3
REFERENCE_REPEATS = 8

_S4 = ((2, 1, 1, 1), (-1, 0, -1, -1), (-1, -1, 0, -1), (-1, -1, -1, 0))
_S1 = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))


def reference_kernel() -> float:
    """A fixed mix of interpreter-bound and numpy work; returns a checksum.

    600 exact integer 4x4 matrix products (bytecode-bound, like the Lorentz
    group and the per-site loops) and 150 smoothing passes of np.roll over
    1024 complex sites (like an evolve step). Measured in separate
    processes, the ratio of a round to this mix moved less than its ratio
    to either half alone.
    """
    total = 0
    m = _S1
    for step in range(600):
        g = _S4 if step % 2 else _S1
        m = tuple(tuple(sum(m[i][k] * g[k][j] for k in range(4)) for j in range(4)) for i in range(4))
        if step % 16 == 15:
            total += m[0][0]
            m = _S1
    f = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 1024))
    for _ in range(150):
        f = 0.25 * (np.roll(f, 1) + np.roll(f, -1)) + 0.5 * f
    return total + float(np.abs(f).sum())


def time_reference() -> float:
    """Mean seconds of ``REFERENCE_REPEATS`` back-to-back runs of the reference kernel.

    The host alternates between fast and slow spells of a fraction of a
    second; a round's seconds include its slow spells in proportion, so the
    reference takes the mean over a window of comparable length, not the
    median or the minimum.
    """
    start = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        reference_kernel()
    return (time.perf_counter() - start) / REFERENCE_REPEATS


def normalized_rounds(rounds: list[float], refs: list[float]) -> list[float]:
    """Each round's seconds over the mean of the reference timings on either side of it."""
    if len(refs) != len(rounds) + 1:
        raise ValueError(f"need one more reference timing than rounds, got {len(refs)} and {len(rounds)}")
    return [r / ((before + after) / 2.0) for r, before, after in zip(rounds, refs, refs[1:])]


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartiles as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


@dataclass
class Ledger:
    """Operations attempted and failed, and whether every completed one was right."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: Counter = field(default_factory=Counter)

    def add(self, verdicts) -> None:
        for op, status, message in verdicts:
            self.attempted += 1
            if status == "failed":
                self.failed += 1
            elif status == "wrong":
                self.correct = False
            if status != "ok":
                self.problems[f"{op}: {status}: {message}"] += 1


def play_round(workload, k: int, ledger: Ledger, on_start=None, on_end=None) -> float:
    """Run round ``k``, check it into ``ledger`` and return its seconds (the check is not timed).

    ``on_start()`` runs just before the timed calls and ``on_end(outcomes)``
    just after them, before the check.
    """
    gc.collect()
    if on_start is not None:
        on_start()
    start = time.perf_counter()
    outcomes = workload.run_round(k)
    elapsed = time.perf_counter() - start
    if on_end is not None:
        on_end(outcomes)
    ledger.add(workload.check(k, outcomes))
    return elapsed


def measure(workload, seconds: float, ledger: Ledger, first_round: int, on_start=None, on_end=None,
            between=None):
    """Rounds until ``seconds`` have passed (at least ``MIN_ROUNDS``), a reference timing around each.

    ``between()`` runs after each round's check, before the reference
    timing that follows it; its time does not count toward ``seconds``.
    Returns (round seconds, reference seconds); there is one more
    reference timing than rounds.
    """
    refs = [time_reference()]
    rounds = []
    begin = time.perf_counter()
    paused = 0.0
    k = first_round
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - begin - paused < seconds:
        rounds.append(play_round(workload, k, ledger, on_start, on_end))
        if between is not None:
            start = time.perf_counter()
            between()
            paused += time.perf_counter() - start
        refs.append(time_reference())
        k += 1
    return rounds, refs
