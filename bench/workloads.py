"""The benchmark's four workloads.

Each workload builds its inputs from the seed (``__init__``), computes what
the program must return without calling it (``reference``), runs one round
of program calls through latticewave's public entry points (``run_round``,
the only timed code), and checks a round's outcomes against the reference
(``check``). A check returns one verdict per operation: ``ok``, ``failed``
(the call raised, or ended with another exit code than a working program
gives) or ``wrong`` (it ran, but its output disagrees with the reference).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# program functions are looked up on their modules at call time, so a tracer
# installed on those modules sees the calls
from latticewave import cli, grid, lorentz_int
from latticewave.errors import DomainError

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class CliResult:
    code: int
    stdout: str
    output_bytes: int


@dataclass
class Outcome:
    op: str
    value: object = None
    error: Exception | None = None


def call_cli(argv: list[str], output: Path | None = None) -> CliResult:
    """Run ``latticewave.cli.main`` in-process with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects malformed flags this way
            code = exc.code if isinstance(exc.code, int) else 2
    text = out.getvalue()
    size = len(text.encode())
    if output is not None and output.exists():
        size += output.stat().st_size
    return CliResult(code=code, stdout=text, output_bytes=size)


def attempt(op: str, fn, *args) -> Outcome:
    try:
        return Outcome(op, value=fn(*args))
    except Exception as exc:  # a failing operation is counted, never fatal to the run
        return Outcome(op, error=exc)


def expect_cli(outcome: Outcome, code: int = 0):
    """(verdict, message) for a CLI outcome that must end with ``code``, or None if it did."""
    if outcome.error is not None:
        return (outcome.op, FAILED, f"raised {outcome.error!r}")
    if outcome.value.code != code:
        return (outcome.op, FAILED, f"exit code {outcome.value.code}, expected {code}")
    return None


def verdict(op: str, ok: bool, message: str = "") -> tuple[str, str, str]:
    return (op, OK if ok else WRONG, "" if ok else message)


def read_table(path: Path, columns: tuple[str, ...]) -> list[list[str]]:
    """Rows of a CSV written by the program: '#' lines skipped, header row checked."""
    lines = [line for line in path.read_text().splitlines() if line and not line.startswith("#")]
    if not lines or tuple(lines[0].split(",")) != columns:
        raise ValueError(f"{path.name}: header is not {','.join(columns)}")
    return [line.split(",") for line in lines[1:]]


def parse_slab_csv(path: Path, nt: int, nx: int) -> np.ndarray:
    """The benchmark's own reading of an n,j,re,im slab CSV in row-major order."""
    with path.open() as fh:
        lines = [line for line in fh if not line.startswith("#")]
    if not lines or lines[0].strip() != "n,j,re,im":
        raise ValueError(f"{path.name}: header is not n,j,re,im")
    table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if table.shape != (nt * nx, 4):
        raise ValueError(f"{path.name}: table of shape {table.shape}, expected {(nt * nx, 4)}")
    n, j = np.divmod(np.arange(nt * nx), nx)
    if not (np.array_equal(table[:, 0], n) and np.array_equal(table[:, 1], j)):
        raise ValueError(f"{path.name}: rows are not in row-major (n, j) order")
    values = np.empty(nt * nx, dtype=complex)
    values.real, values.imag = table[:, 2], table[:, 3]
    return values.reshape(nt, nx)


def header_line(text: str, prefix: str) -> str:
    """The rest of the first line of ``text`` that starts with ``prefix``, or 'nan'."""
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return "nan"


def header_values(path: Path) -> dict[str, str]:
    values = {}
    with path.open() as fh:
        for line in fh:
            if not line.startswith("# "):
                break
            key, _, value = line[2:].rstrip("\n").partition(": ")
            values[key] = value
    return values


class Workload:
    name = ""
    #: (Nx, m0) at which the traced run probes evolve's kernel build and step, or None
    kg_probe: tuple[int, float] | None = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def reference(self) -> None:
        pass

    def run_round(self, k: int) -> list[Outcome]:
        raise NotImplementedError

    def check(self, k: int, outcomes: list[Outcome]) -> list[tuple[str, str, str]]:
        raise NotImplementedError

    def once_per_run(self) -> list[tuple[str, str, str]]:
        return []


# --- certify -------------------------------------------------------------------


class Certify(Workload):
    """``verify-all --quiet``, with a fresh acceptance seed in every round."""

    name = "certify"
    kg_probe = (112, 2 * math.pi / math.sqrt(12))  # the widest march in criterion 9

    def round_seed(self, k: int) -> int:
        return (self.seed * 1000 + k) % 2**31

    def run_round(self, k):
        return [attempt("verify-all", call_cli, ["verify-all", "--quiet", "--seed", str(self.round_seed(k))])]

    def check(self, k, outcomes):
        return [self._check_report(outcomes[0], failing=())]

    def once_per_run(self):
        verdicts = []
        for variant, cid in (("s4", 8), ("tan-dispersion", 6)):
            argv = ["verify-all", "--quiet", "--as-printed", variant, "--seed", str(self.round_seed(0))]
            verdicts.append(self._check_report(attempt(f"verify-all --as-printed {variant}", call_cli, argv),
                                               failing=(cid,)))
        return verdicts

    @staticmethod
    def _check_report(outcome: Outcome, failing: tuple[int, ...]):
        """Exit 0 with every criterion passing, or exit 1 with exactly the ``failing`` ones failing."""
        if outcome.error is not None:
            return (outcome.op, FAILED, f"raised {outcome.error!r}")
        lines = outcome.value.stdout.strip().splitlines()
        expected = [f"[{'FAIL' if cid in failing else 'PASS'}] criterion {cid}:" for cid in range(1, 11)]
        ok = (outcome.value.code == (1 if failing else 0) and len(lines) == 11
              and all(line.startswith(e) for line, e in zip(lines, expected))
              and lines[-1] == f"{10 - len(failing)}/10 criteria passed")
        return verdict(outcome.op, ok, f"exit code {outcome.value.code}, report ends {lines[-1:]!r}")


# --- march ---------------------------------------------------------------------


MARCH_NX = 1024
MARCH_STEPS = 48
# spatially periodic exponential modes: M divides Nx, and N <= M keeps the mass real
MARCH_MODES = tuple((n, m) for n in (3, 4, 5, 6, 8) for m in (8, 16, 32, 64) if n <= m)


class March(Workload):
    """``kg-evolve --nx 1024 --verify --format binary`` on an exactly periodic mode."""

    name = "march"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.N, self.M = random.Random(seed).choice(MARCH_MODES)
        self.m0 = math.sqrt(4 * math.tan(math.pi / self.N) ** 2 - 4 * math.tan(math.pi / self.M) ** 2)
        self.kg_probe = (MARCH_NX, self.m0)
        self.path = workdir / "march.bin"
        self.argv = ["kg-evolve", "--form", "exponential", "--wave-n", str(self.N), "--wave-m", str(self.M),
                     "--m0", repr(self.m0), "--steps", str(MARCH_STEPS), "--nx", str(MARCH_NX),
                     "--verify", "--format", "binary", "--output", str(self.path)]

    def reference(self):
        # exp(2 pi i (n/N - j/M)) with the phase reduced in integers
        n = np.arange(MARCH_STEPS + 2)[:, None]
        j = np.arange(MARCH_NX)[None, :]
        turns = ((n * self.M - j * self.N) % (self.N * self.M)) / (self.N * self.M)
        self.expected = np.exp(2j * np.pi * turns)

    def run_round(self, k):
        return [attempt("kg-evolve", call_cli, self.argv, self.path)]

    def check(self, k, outcomes):
        outcome = outcomes[0]
        bad = expect_cli(outcome)
        if bad:
            return [bad]
        raw = self.path.read_bytes()
        magic, nt, nx, reserved = struct.unpack_from("<4sIII", raw)
        header_ok = (magic, nt, nx, reserved) == (b"KGL1", MARCH_STEPS + 2, MARCH_NX, 0)
        if not header_ok or len(raw) != 16 + 16 * nt * nx:
            return [verdict(outcome.op, False, f"bad header {(magic, nt, nx, reserved)} or size {len(raw)}")]
        psi = np.frombuffer(raw, dtype="<c16", offset=16).reshape(nt, nx)
        deviation = float(np.max(np.abs(psi - self.expected)))
        reported = float(header_line(outcome.value.stdout, "max deviation from closed form: "))
        return [verdict(outcome.op, deviation <= 1e-9 and reported <= 1e-9,
                        f"deviation {deviation:.3e}, reported {reported!r}")]


# --- slabs ---------------------------------------------------------------------


WAVE_EXTENT = 256
BEAT = {"t1": 4.0, "t2": 6.0, "lam1": 3.0, "lam2": 5.0}
BEAT_NT, BEAT_NX = 128, 512
MALFORMED_CSV = {
    "header-only": "n,j,re,im\n",
    "short-row": "n,j,re,im\n0,0,1.0\n",
    "non-numeric": "n,j,re,im\n0,0,abc,0.0\n",
}


class Slabs(Workload):
    """CSV slab writes from two experiments, read back through grid, plus a binary round trip."""

    name = "slabs"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.N, self.M = rng.randrange(3, 65), rng.randrange(3, 65)
        self.wave_csv = workdir / "wave.csv"
        self.beat_csv = workdir / "beat.csv"
        self.wave_bin = workdir / "wave.bin"
        self.wave_argv = ["wave-sample", "--form", "cayley", "--wave-n", str(self.N), "--wave-m", str(self.M),
                          "--nt", str(WAVE_EXTENT), "--nx", str(WAVE_EXTENT), "--output", str(self.wave_csv)]
        self.beat_argv = ["beat-measure"] + [x for key, value in BEAT.items() for x in (f"--{key}", repr(value))]
        self.beat_argv += ["--nt", str(BEAT_NT), "--nx", str(BEAT_NX), "--format", "csv",
                           "--output", str(self.beat_csv)]
        self.malformed = {}
        for label, text in MALFORMED_CSV.items():
            path = workdir / f"{label}.csv"
            path.write_text(text)
            self.malformed[label] = path

    def reference(self):
        n = np.arange(WAVE_EXTENT)[:, None]
        j = np.arange(WAVE_EXTENT)[None, :]
        # the Cayley phase is exactly linear: 2 atan(pi/N) per step, -2 atan(pi/M) per site
        self.wave = np.exp(1j * (n * 2 * math.atan(math.pi / self.N) - j * 2 * math.atan(math.pi / self.M)))
        t = np.arange(BEAT_NT)[:, None]
        x = np.arange(BEAT_NX)[None, :]
        b = BEAT
        self.beat = (np.cos(2 * np.pi * (t / b["t1"] - x / b["lam1"]))
                     + np.cos(2 * np.pi * (t / b["t2"] - x / b["lam2"]))).astype(complex)

    def _binary_round_trip(self, loaded):
        grid.save_slab_binary(loaded, self.wave_bin)
        return loaded, grid.load_slab_binary(self.wave_bin)

    def run_round(self, k):
        outcomes = [attempt("wave-sample", call_cli, self.wave_argv, self.wave_csv),
                    attempt("beat-measure", call_cli, self.beat_argv, self.beat_csv),
                    attempt("load wave csv", grid.load_slab_csv, self.wave_csv),
                    attempt("load beat csv", grid.load_slab_csv, self.beat_csv)]
        outcomes.append(attempt("binary round trip", self._binary_round_trip, outcomes[2].value))
        outcomes += [attempt(f"load {label} csv", grid.load_slab_csv, path) for label, path in self.malformed.items()]
        return outcomes

    def check(self, k, outcomes):
        sample, beat, load_wave, load_beat, binary = outcomes[:5]
        verdicts = []
        written = {}
        for outcome, path, shape, expected in (
            (sample, self.wave_csv, (WAVE_EXTENT, WAVE_EXTENT), self.wave),
            (beat, self.beat_csv, (BEAT_NT, BEAT_NX), self.beat),
        ):
            bad = expect_cli(outcome)
            if bad:
                verdicts.append(bad)
                continue
            psi = parse_slab_csv(path, *shape)
            written[path] = psi
            deviation = float(np.max(np.abs(psi - expected)))
            ok, message = deviation <= 1e-12, f"deviation from the closed form {deviation:.3e}"
            if outcome is beat:
                head = header_values(path)
                measured = float(head.get("measured_v_group", "nan"))
                ok &= abs(measured - 0.625) <= 0.02 * 0.625 and abs(float(head.get("v_group", "nan")) - 0.625) <= 1e-15
                message += f", measured group velocity {measured!r} vs 5/8"
            verdicts.append(verdict(outcome.op, ok, message))
        for outcome, path in ((load_wave, self.wave_csv), (load_beat, self.beat_csv)):
            if outcome.error is not None:
                verdicts.append((outcome.op, FAILED, f"raised {outcome.error!r}"))
            else:
                same = path in written and np.array_equal(outcome.value.psi, written[path])
                verdicts.append(verdict(outcome.op, same, "slab read back differs from the file"))
        if binary.error is not None:
            verdicts.append((binary.op, FAILED, f"raised {binary.error!r}"))
        else:
            saved, loaded = binary.value
            raw = self.wave_bin.read_bytes()
            own = np.frombuffer(raw, dtype="<c16", offset=16).reshape(saved.psi.shape)
            same = (np.array_equal(loaded.psi, saved.psi) and np.array_equal(own, saved.psi)
                    and struct.unpack_from("<4sIII", raw) == (b"KGL1", *saved.psi.shape, 0))
            verdicts.append(verdict(binary.op, same, "binary round trip is not bit-for-bit"))
        for outcome in outcomes[5:]:
            ok = isinstance(outcome.error, DomainError)
            verdicts.append((outcome.op, OK if ok else FAILED,
                             "" if ok else f"expected DomainError, got {outcome.error!r}"))
        return verdicts


# --- exact ---------------------------------------------------------------------


BALL_WORD_LEN = 12
SCAN_MAX = 512
_S = {
    "S1": ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)),
    "S2": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
    "S3": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)),
    # the published S4 with its row-2, column-3 sign corrected
    "S4": ((2, 1, 1, 1), (-1, 0, -1, -1), (-1, -1, 0, -1), (-1, -1, -1, 0)),
}
_ETA = (1, -1, -1, -1)
_I4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)) for i in range(4))


def word_product(letters, table) -> tuple:
    m = _I4
    for letter in letters:
        m = mat_mul(m, table[letter])
    return m


LETTERS = dict(_S)
LETTERS["P1"] = word_product(("S1", "S2", "S3", "S2", "S1"), _S)
LETTERS["P2"] = word_product(("S2", "S3", "S2"), _S)
LETTERS["P3"] = _S["S3"]


def metric_clean(m) -> bool:
    return all(sum(_ETA[r] * m[r][i] * m[r][j] for r in range(4)) == (_ETA[i] if i == j else 0)
               for i in range(4) for j in range(4))


def ball(max_len: int) -> set:
    seen, frontier = {_I4}, [_I4]
    for _ in range(max_len):
        frontier = [q for q in {mat_mul(m, g) for m in frontier for g in _S.values()} if q not in seen]
        seen.update(frontier)
    return seen


def cayley_scan(m0: float, n_max: int, m_max: int, tol: float) -> set:
    """(N, M) of the Cayley relation's solutions in natural units, M = 'inf' for zero wavenumber."""
    n = np.arange(2, n_max + 1, dtype=float)[:, None]
    inv_wavelength = np.concatenate([1.0 / np.arange(2, m_max + 1, dtype=float), [0.0]])[None, :]
    residual = (1.0 / n) ** 2 - inv_wavelength**2 - (m0 / (2.0 * math.pi)) ** 2
    labels = [str(m) for m in range(2, m_max + 1)] + ["inf"]
    return {(int(n[a, 0]), labels[b]) for a, b in zip(*np.nonzero(np.abs(residual) <= tol))}


class Exact(Workload):
    """Integer Lorentz-group enumeration and factorization, and a 512x512 dispersion scan."""

    name = "exact"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.rest_period = random.Random(seed).randrange(3, 65)
        self.m0 = 2 * math.pi / self.rest_period  # the spectrum m0 = h / (c^2 N tau) in natural units
        self.ball_json = workdir / "ball.json"
        self.scan_csv = workdir / "scan.csv"
        self.nan_csv = workdir / "scan-nan.csv"
        self.enumerate_argv = ["lorentz-enumerate", "--max-word-len", str(BALL_WORD_LEN),
                               "--output", str(self.ball_json)]
        self.scan_argv = ["dispersion-scan", "--form", "cayley", "--m0", repr(self.m0), "--n-max", str(SCAN_MAX),
                          "--m-max", str(SCAN_MAX), "--tol", "1e-9", "--output", str(self.scan_csv)]
        self.nan_argv = ["dispersion-scan", "--form", "cayley", "--m0", "nan", "--output", str(self.nan_csv)]

    def reference(self):
        self.ball = ball(BALL_WORD_LEN)
        self.elements = sorted(self.ball, key=lambda m: tuple(x for row in m for x in row))
        self.modes = cayley_scan(self.m0, SCAN_MAX, SCAN_MAX, 1e-9)

    def _factorize_all(self):
        return [lorentz_int.factorize(lorentz_int.matrix_from_json([x for row in m for x in row]))
                for m in self.elements]

    def run_round(self, k):
        return [attempt("lorentz-enumerate", call_cli, self.enumerate_argv, self.ball_json),
                attempt("factorize ball", self._factorize_all),
                attempt("dispersion-scan", call_cli, self.scan_argv, self.scan_csv),
                attempt("dispersion-scan --m0 nan", call_cli, self.nan_argv, self.nan_csv)]

    def check(self, k, outcomes):
        enumerate_, factor, scan, nan_scan = outcomes
        verdicts = []
        bad = expect_cli(enumerate_)
        if bad:
            verdicts.append(bad)
        else:
            result = json.loads(self.ball_json.read_text())["result"]
            matrices = [tuple(tuple(flat[4 * i: 4 * i + 4]) for i in range(4)) for flat in result["matrices"]]
            ok = (result["ball_word_length"] == BALL_WORD_LEN and result["count"] == len(self.ball)
                  and len(matrices) == len(self.ball) and set(matrices) == self.ball
                  and all(metric_clean(m) for m in matrices))
            verdicts.append(verdict(enumerate_.op, ok, f"ball of {result['count']}, expected {len(self.ball)}"))
        if factor.error is not None:
            verdicts.append((factor.op, FAILED, f"raised {factor.error!r}"))
        else:
            wrong = [m for m, word in zip(self.elements, factor.value)
                     if word_product(word.letters, LETTERS) != m]
            ok = len(factor.value) == len(self.elements) and not wrong
            verdicts.append(verdict(factor.op, ok, f"{len(wrong)} words do not multiply back"))
        bad = expect_cli(scan)
        if bad:
            verdicts.append(bad)
        else:
            rows = read_table(self.scan_csv, ("form", "N", "M", "m0", "residual"))
            found = {(int(r[1]), r[2]) for r in rows}
            ok = found == self.modes and len(rows) == len(found) and (self.rest_period, "inf") in found
            verdicts.append(verdict(scan.op, ok, f"modes {sorted(found)} vs {sorted(self.modes)}"))
        bad = expect_cli(nan_scan, 2)
        verdicts.append(bad or (nan_scan.op, OK, ""))
        return verdicts


WORKLOADS = {cls.name: cls for cls in (Certify, March, Slabs, Exact)}
