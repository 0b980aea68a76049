"""Shared lattice types and slab serialization round trips."""

import copy
import csv
import dataclasses
import math
import os
import pickle
import signal
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from latticewave import (
    MAX_CELLS,
    BeatSpec,
    DispersionForm,
    DomainError,
    FieldSlab,
    GridSpec,
    INFINITE,
    KGParams,
    SizeLimitError,
    WaveForm,
    WaveSpec,
    beat_field,
    evolve,
    load_slab_binary,
    load_slab_csv,
    save_slab_binary,
    sample_wave,
    save_slab_csv,
    solve_modes,
)
from latticewave import grid
from latticewave.grid import SPLIT_CELLS, check_size, slab_to_bytes, slab_to_csv
from latticewave.waves import beat_envelope


def random_slab(nt=5, nx=7, seed=0):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(nt, nx)) + 1j * rng.normal(size=(nt, nx))
    return FieldSlab(psi=psi)


def test_csv_round_trip_is_exact(tmp_path):
    slab = random_slab()
    path = tmp_path / "slab.csv"
    save_slab_csv(slab, path, header_lines=["test slab"])
    assert path.read_bytes() == slab_to_csv(slab, ["test slab"])
    assert b"\r" not in path.read_bytes()
    loaded = load_slab_csv(path)
    np.testing.assert_array_equal(loaded.psi, slab.psi)


def test_binary_round_trip_is_exact(tmp_path):
    slab = random_slab(nt=3, nx=4, seed=1)
    path = tmp_path / "slab.bin"
    save_slab_binary(slab, path)
    loaded = load_slab_binary(path)
    np.testing.assert_array_equal(loaded.psi, slab.psi)


def test_binary_header_layout(tmp_path):
    slab = random_slab(nt=3, nx=4, seed=2)
    path = tmp_path / "slab.bin"
    save_slab_binary(slab, path)
    raw = path.read_bytes()
    assert raw[:4] == b"KGL1"
    assert int.from_bytes(raw[4:8], "little") == 3
    assert int.from_bytes(raw[8:12], "little") == 4
    assert int.from_bytes(raw[12:16], "little") == 0
    assert len(raw) == 16 + 16 * 3 * 4


def test_binary_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 28)
    with pytest.raises(DomainError):
        load_slab_binary(path)


@pytest.mark.parametrize("nt, nx", [(0, 5), (5, 0), (0, 0)])
def test_binary_zero_extent_rejected(tmp_path, nt, nx):
    path = tmp_path / "empty.bin"
    path.write_bytes(struct.pack("<4sIII", b"KGL1", nt, nx, 0))
    with pytest.raises(DomainError) as excinfo:
        load_slab_binary(path)
    # like every other rejection by the loaders, the message names the file
    assert str(excinfo.value).startswith(f"{path}: ")


def test_binary_truncated_rejected(tmp_path):
    slab = random_slab(nt=2, nx=3, seed=3)
    path = tmp_path / "slab.bin"
    save_slab_binary(slab, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DomainError):
        load_slab_binary(path)


def test_csv_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DomainError):
        load_slab_csv(path)


SITE_ORDER_PROBLEMS = {
    "duplicate-site": b"n,j,re,im\n0,0,1.0,0.0\n0,0,2.0,0.0\n0,1,1,1\n",
    "negative-index": b"n,j,re,im\n0,0,1,0\n0,1,1,0\n1,0,1,0\n-1,1,1,0\n",
    "out-of-order": b"n,j,re,im\n0,0,1,0\n1,0,1,0\n0,1,1,0\n1,1,1,0\n",
    "missing-site": b"n,j,re,im\n0,0,1,0\n0,1,1,0\n1,0,1,0\n",
    "no-site-with-j-0": b"n,j,re,im\n0,-1,1,0\n",
}


@pytest.mark.parametrize("raw", [
    b"n,j,re,im\n",
    b"# comment\nn,j,re,im\n0,0,1.0\n",
    b"n,j,re,im\n0,0,abc,0.0\n",
    SITE_ORDER_PROBLEMS["duplicate-site"],
    SITE_ORDER_PROBLEMS["negative-index"],
    b"n,j,re,im\n0,0,1.0,\xff\n",
    SITE_ORDER_PROBLEMS["out-of-order"],
    # csv.reader and float()/int() read the next four; slab_to_csv never writes them
    b'n,j,re,im\n"0",0,1.0,0.0\n',
    b"n,j,re,im\n0,0,1_0,0.0\n",
    "n,j,re,im\n0,0,\u0661.5,0.0\n".encode(),
    b"n,j,re,im\n0,0,1.0,0.0\r",
    # only a whole line can be a comment
    b"n,j,re,im\n0,0,1.0,0.0 # a comment after the cells\n",
], ids=["header-only", "short-row", "non-numeric", "duplicate-site", "negative-index", "non-utf8", "out-of-order",
        "quoted-cell", "underscore-digits", "non-ascii-digit", "lone-cr-line-end", "comment-after-cells"])
def test_csv_malformed_body_rejected(tmp_path, raw):
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    with pytest.raises(DomainError) as excinfo:
        load_slab_csv(path)
    assert str(excinfo.value).startswith(f"{path}: ")


@pytest.mark.parametrize("raw, lineno, row", [
    (b"# provenance\n# more\nn,j,re,im\n0,0,1.0\n", 4, "0,0,1.0"),
    (b"# provenance\r\n\r\nn,j,re,im\r\n0,0,1,0\r\n# note\r\n0,1,1_0,0\r\n0,2,x,0\r\n", 6, "0,1,1_0,0"),
    (b"#\nn,j,re,im\n" + b"".join(b"0,%d,1,0\n" % j for j in range(100)) + b"  # aside\n0,100,1,0,0\n", 104, "0,100,1,0,0"),
], ids=["short-row", "crlf-bad-cell", "long-row"])
def test_csv_row_errors_name_the_line_of_the_file(tmp_path, raw, lineno, row):
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    with pytest.raises(DomainError) as excinfo:
        load_slab_csv(path)
    assert str(excinfo.value).startswith(f"{path}: line {lineno}: ")
    assert str(excinfo.value).endswith(f"got {row!r}")


def test_crlf_file_with_a_comment_between_rows_loads_bit_for_bit(tmp_path):
    slab = slab_from_parts(2, 2, [1.5, -0.0, math.inf, math.nan, -2.0, 0.0, 1e-300, -math.inf])
    lines = slab_to_csv(slab, ["provenance"]).decode().splitlines()
    lines.insert(4, "# a comment between data rows")
    path = tmp_path / "crlf.csv"
    path.write_bytes("".join(line + "\r\n" for line in lines).encode())
    assert load_slab_csv(path).psi.tobytes() == slab.psi.tobytes()


@pytest.fixture
def loadtxt_sources(monkeypatch):
    """What np.loadtxt receives on each call: "path" for a file name, "lines" for the line path's list."""
    sources = []
    loadtxt = np.loadtxt

    def recording(fname, *args, **kwargs):
        sources.append("lines" if isinstance(fname, list) else "path")
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording)
    return sources


@pytest.mark.parametrize("argv", [
    ["wave-sample", "--form", "cayley", "--wave-n", "7", "--wave-m", "11", "--nt", "24", "--nx", "16"],
    ["beat-measure", "--t1", "4", "--t2", "6", "--lam1", "3", "--lam2", "5", "--nt", "64", "--nx", "256",
     "--format", "csv"],
], ids=["wave-sample", "beat-measure"])
def test_written_csvs_take_numpy_s_file_reader_and_their_variants_load_the_same(tmp_path, loadtxt_sources, argv):
    from latticewave.cli import main

    path = tmp_path / "slab.csv"
    assert main([*argv, "--output", str(path)]) == 0
    want = load_slab_csv(path).psi.tobytes()
    assert loadtxt_sources == ["path"]
    lines = path.read_bytes().split(b"\n")
    head = next(k for k, line in enumerate(lines) if not line.startswith(b"#")) + 1
    # each copy with the readers it goes through: numpy's reader skips an empty line, as the line path does, and
    # refuses a comment between rows; a '\r' or a suffix numpy would decompress goes straight to the line path
    variants = {
        "crlf.csv": (b"\r\n".join(lines), ["lines"]),
        "interior-comment.csv": (b"\n".join([*lines[:head + 2], b"# between rows", *lines[head + 2:]]),
                                 ["path", "lines"]),
        "blank-line.csv": (b"\n".join([*lines[:head + 2], b"", *lines[head + 2:]]), ["path"]),
        "plain.csv.gz": (b"\n".join(lines), ["lines"]),
    }
    for name, (raw, readers) in variants.items():
        loadtxt_sources.clear()
        (tmp_path / name).write_bytes(raw)
        assert load_slab_csv(tmp_path / name).psi.tobytes() == want, name
        assert loadtxt_sources == readers, name


def test_a_file_whose_suffix_numpy_would_decompress_is_read_as_written(tmp_path, loadtxt_sources):
    slab = random_slab()
    for suffix in (".gz", ".bz2", ".xz", ".lzma"):
        path = tmp_path / f"slab.csv{suffix}"
        save_slab_csv(slab, path)
        assert load_slab_csv(path).psi.tobytes() == slab.psi.tobytes()
    assert loadtxt_sources == ["lines"] * 4


def test_an_absolute_path_loads_from_a_removed_working_directory(tmp_path, monkeypatch, loadtxt_sources):
    # numpy resolves a file name against the working directory and raises FileNotFoundError when it is gone
    slab = random_slab()
    path = tmp_path / "slab.csv"
    save_slab_csv(slab, path)
    gone = tmp_path / "gone"
    gone.mkdir()
    monkeypatch.chdir(gone)
    gone.rmdir()
    assert load_slab_csv(path).psi.tobytes() == slab.psi.tobytes()
    assert loadtxt_sources == ["path", "lines"]


def test_a_pipe_is_read_once(loadtxt_sources):
    # numpy's reader would open the pipe again and find it empty
    slab = random_slab()
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, slab_to_csv(slab))
        os.close(write_end)
        assert load_slab_csv(f"/dev/fd/{read_end}").psi.tobytes() == slab.psi.tobytes()
    finally:
        os.close(read_end)
    assert loadtxt_sources == ["lines"]


@pytest.mark.parametrize("raw", [b"n,j,re,im\n\n", b"# a\nn,j,re,im\n\n\n\n"], ids=["one-blank-line", "blank-lines"])
def test_a_header_followed_only_by_blank_lines_never_reaches_numpy_s_file_reader(tmp_path, loadtxt_sources, raw):
    # numpy would warn "input contained no data", which the test settings turn into an error
    path = tmp_path / "slab.csv"
    path.write_bytes(raw)
    with pytest.raises(DomainError, match="slab CSV has no data rows"):
        load_slab_csv(path)
    assert loadtxt_sources == []


def test_every_site_order_problem_gets_one_message(tmp_path):
    messages = set()
    for label, raw in SITE_ORDER_PROBLEMS.items():
        path = tmp_path / f"{label}.csv"
        path.write_bytes(raw)
        with pytest.raises(DomainError) as excinfo:
            load_slab_csv(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}: ")
        messages.add(message[len(f"{path}: "):])
    assert len(messages) == 1


def oracle_load_slab_csv(path):
    """A permissive reference loader: rows in any order, keyed by site, then three separate checks."""
    path = Path(path)
    entries = {}
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DomainError(f"{path}: not a slab CSV ({exc})") from None
    if not rows or tuple(rows[0]) != ("n", "j", "re", "im"):
        raise DomainError(f"{path}: not a slab CSV (missing 'n,j,re,im' header row)")
    if len(rows) < 2:
        raise DomainError(f"{path}: slab CSV has no data rows")
    for row in rows[1:]:
        if len(row) != 4:
            raise DomainError(f"{path}: slab CSV row {row!r} does not have 4 cells")
        try:
            n, j = int(row[0]), int(row[1])
            entries[(n, j)] = complex(float(row[2]), float(row[3]))
        except ValueError:
            raise DomainError(f"{path}: slab CSV row {row!r} has a non-numeric cell") from None
    if len(entries) != len(rows) - 1:
        raise DomainError(f"{path}: slab CSV lists a site (n, j) more than once")
    if min(map(min, entries)) < 0:
        raise DomainError(f"{path}: slab CSV has a negative index")
    nt = 1 + max(k[0] for k in entries)
    nx = 1 + max(k[1] for k in entries)
    if len(entries) != nt * nx:
        raise DomainError(f"{path}: slab CSV does not cover a full {nt}x{nx} rectangle")
    psi = np.zeros((nt, nx), dtype=np.complex128)
    for (n, j), value in entries.items():
        psi[n, j] = value
    return FieldSlab(psi=psi)


# repr() writes every NaN as 'nan', which reads back as the one quiet NaN
FLOATS = (st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])).map(
    lambda x: math.nan if math.isnan(x) else x)
JUNK_CELLS = st.sampled_from(["", "abc", "1.5", " 1", "1e999", "nan", "-0", "+2"])


def slab_from_parts(nt, nx, parts):
    psi = np.empty((nt, nx), dtype=np.complex128)
    psi.real = np.reshape(parts[0::2], (nt, nx))
    psi.imag = np.reshape(parts[1::2], (nt, nx))
    return FieldSlab(psi=psi)


@st.composite
def written_slabs(draw):
    nt, nx = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return slab_from_parts(nt, nx, draw(st.lists(FLOATS, min_size=2 * nt * nx, max_size=2 * nt * nx)))


@st.composite
def slab_csv_variants(draw):
    """A file slab_to_csv wrote, then up to three edits of its data rows."""
    lines = slab_to_csv(draw(written_slabs()), draw(st.lists(st.sampled_from(["a", "b"]), max_size=2))).decode()
    lines = lines.splitlines(keepends=True)
    head = next(k for k, line in enumerate(lines) if not line.startswith("#")) + 1
    rows = [line.rstrip("\n").split(",") for line in lines[head:]]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["permute", "repeat", "gap", "negative", "junk", "swap-two"]))
        k = draw(st.integers(0, len(rows) - 1))
        if edit == "permute":
            rows = draw(st.permutations(rows))
        elif edit == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[k]))
        elif edit == "gap" and len(rows) > 1:
            del rows[k]
        elif edit == "negative":
            rows[k] = list(rows[k])
            rows[k][draw(st.integers(0, 1))] = str(-draw(st.integers(1, 3)))
        elif edit == "junk":
            rows[k] = list(rows[k])
            rows[k][draw(st.integers(0, 3))] = draw(JUNK_CELLS)
        elif edit == "swap-two":
            other = draw(st.integers(0, len(rows) - 1))
            rows[k], rows[other] = rows[other], rows[k]
    return ("".join(lines[:head]) + "".join(",".join(row) + "\n" for row in rows)).encode()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=slab_csv_variants())
def test_loader_agrees_with_the_permissive_oracle(tmp_path, raw):
    path = tmp_path / "slab.csv"
    path.write_bytes(raw)
    try:
        expected = oracle_load_slab_csv(path)
    except DomainError:
        expected = None
    try:
        loaded = load_slab_csv(path)
    except DomainError:
        loaded = None
    if loaded is not None:
        # whatever the loader accepts, the oracle accepts with the same bytes
        assert expected is not None
        assert loaded.psi.tobytes() == expected.psi.tobytes()
    elif expected is not None:
        # the oracle also accepts rows out of row-major order; the loader refuses only those
        data_rows = [line.split(",") for line in raw.decode().splitlines() if not line.startswith("#")][1:]
        sites = [(int(n), int(j)) for n, j, _, _ in data_rows]
        assert sites != sorted(sites)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(slab=written_slabs())
@example(slab=slab_from_parts(2, 2, [math.nan, -0.0, math.inf, -math.inf, -0.0, math.nan, 0.0, -0.0]))
def test_every_written_slab_loads_back_bit_for_bit(tmp_path, slab):
    path = tmp_path / "slab.csv"
    save_slab_csv(slab, path, header_lines=["provenance"])
    loaded = load_slab_csv(path)
    assert loaded.psi.tobytes() == slab.psi.tobytes()
    assert slab_to_csv(loaded, ["provenance"]) == path.read_bytes()


def oracle_slab_to_csv(slab, header_lines=()):
    """The per-cell writer: one f-string per site."""
    lines = [f"# {line}\n" for line in header_lines]
    lines.append("n,j,re,im\n")
    for n, (re_row, im_row) in enumerate(zip(slab.psi.real, slab.psi.imag)):
        cells = zip(re_row.tolist(), im_row.tolist())
        lines.extend(f"{n},{j},{re!r},{im!r}\n" for j, (re, im) in enumerate(cells))
    return "".join(lines).encode()


# both sides of repr's switches to exponent form (at 1e16 and below 1e-4), subnormals and the float extremes
REPR_EDGE_VALUES = [
    1e16, 9999999999999998.0, 1.0000000000000002e16, 1e-4, 9.999999999999999e-05, 1.0000000000000003e-4,
    5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, sys.float_info.max, 1e-5, 123456.789,
]
REPR_EDGES = st.sampled_from(REPR_EDGE_VALUES).flatmap(lambda x: st.sampled_from([x, -x]))
WRITER_FLOATS = FLOATS | REPR_EDGES
HEADER_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@st.composite
def writer_slabs(draw):
    nt, nx = draw(st.sampled_from([(1, 1), (1, 7), (7, 1)]) | st.tuples(st.integers(1, 12), st.integers(1, 12)))
    return slab_from_parts(nt, nx, draw(st.lists(WRITER_FLOATS, min_size=2 * nt * nx, max_size=2 * nt * nx)))


@settings(max_examples=300, deadline=None)
@given(slab=writer_slabs(), header_lines=st.lists(HEADER_TEXT, max_size=3))
@example(slab=slab_from_parts(1, 1, [-0.0, math.nan]), header_lines=[])
@example(slab=slab_from_parts(257, 3, [float(k) * 1e-5 for k in range(2 * 257 * 3)]), header_lines=["a", "b"])
def test_writer_matches_the_per_cell_oracle_byte_for_byte(slab, header_lines):
    assert slab_to_csv(slab, header_lines) == oracle_slab_to_csv(slab, header_lines)


@pytest.mark.parametrize("render, ratio, split", [
    (slab_to_csv, 2.5, False),  # the encoded rows and their join, about 2.0; a text join encoded afterwards is 3.0
    (slab_to_csv, 2.5, True),  # the parent's half, the child's half read from the pipe, and their join: about 2.0
    (slab_to_bytes, 1.2, False),  # the output alone; a copy of the array's bytes beside it is 2.0
], ids=["csv", "csv-split", "binary"])
def test_a_slab_render_peaks_within_a_small_multiple_of_its_output(forks, monkeypatch, render, ratio, split):
    if not split:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    slab = random_slab(nt=256, nx=256)
    tracemalloc.start()
    try:
        out = render(slab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ratio * len(out)
    # on the split path this is the parent's peak, not the child's
    assert len(forks) == split


# --- the split writer: from SPLIT_CELLS sites, one forked child formats the first half of the rows ----------------


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked while the test runs, on a process that may use two CPUs.

    The affinity is patched so the split path runs on any machine; after
    the test this process has no child left, neither running nor unreaped.
    """
    pids = []

    def fork(_fork=os.fork):
        pid = _fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def split_slab(nt, nx):
    """A slab that tiles repr's edge cases, their negatives, NaN, the infinities and -0.0 over random values."""
    specials = [*REPR_EDGE_VALUES, *(-x for x in REPR_EDGE_VALUES), math.nan, math.inf, -math.inf, -0.0, 0.0]
    parts = np.random.default_rng(nt * nx).normal(size=2 * nt * nx)
    parts[::3] = np.resize(specials, len(parts[::3]))
    return slab_from_parts(nt, nx, parts)


def lowest_free_fds(pipe=os.pipe):
    """The two descriptors a new pipe gets: a descriptor leaked since the last call shows as a change."""
    read_end, write_end = pipe()
    os.close(read_end)
    os.close(write_end)
    return read_end, write_end


SPLIT_HEADER = ["provenance", "\u00fc", ""]


@pytest.mark.parametrize("nt, nx, forked", [
    (64, SPLIT_CELLS // 64, True),  # the cutoff exactly
    (63, SPLIT_CELLS // 64, False),  # one row short of it
    (65, SPLIT_CELLS // 64, True),  # odd nt: the parent formats the longer half
    (2, SPLIT_CELLS, True),
    (SPLIT_CELLS, 1, True),
    (1, 2 * SPLIT_CELLS, False),  # one row: no first half to hand over
], ids=["at-cutoff", "below-cutoff", "odd-nt", "nt-2", "nx-1", "nt-1"])
def test_the_split_writer_writes_the_oracle_s_bytes(forks, nt, nx, forked):
    slab = split_slab(nt, nx)
    assert slab_to_csv(slab, SPLIT_HEADER) == oracle_slab_to_csv(slab, SPLIT_HEADER)
    assert len(forks) == forked


@pytest.mark.parametrize("missing", ["second-cpu", "affinity-call", "fork-call", "single-thread"])
def test_the_writer_forks_only_when_every_precondition_holds(forks, monkeypatch, missing):
    slab = split_slab(64, SPLIT_CELLS // 64)
    if missing == "second-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif missing != "single-thread":
        monkeypatch.delattr(os, {"affinity-call": "sched_getaffinity", "fork-call": "fork"}[missing])
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if missing == "single-thread":
        thread.start()
    try:
        assert slab_to_csv(slab) == oracle_slab_to_csv(slab)
    finally:
        release.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


@pytest.mark.parametrize("failing", ["pipe", "fork"])
def test_a_pipe_or_fork_that_fails_leaves_the_rows_to_this_process(forks, monkeypatch, failing):
    def fail(*args):
        raise OSError(24, "Too many open files")

    slab = split_slab(64, SPLIT_CELLS // 64)
    expected = oracle_slab_to_csv(slab, SPLIT_HEADER)
    free = lowest_free_fds()
    monkeypatch.setattr(os, failing, fail)
    assert slab_to_csv(slab, SPLIT_HEADER) == expected
    assert lowest_free_fds() == free


@pytest.mark.parametrize("how", ["raises", "is-killed"])
def test_a_child_that_fails_leaves_its_rows_to_the_parent(forks, monkeypatch, how):
    parent, csv_rows = os.getpid(), grid._csv_rows

    def rows(psi, lo, hi):
        if os.getpid() != parent:
            if how == "raises":
                raise MemoryError
            os.kill(os.getpid(), signal.SIGKILL)
        return csv_rows(psi, lo, hi)

    slab = split_slab(65, SPLIT_CELLS // 64)
    free = lowest_free_fds()
    monkeypatch.setattr(grid, "_csv_rows", rows)
    assert slab_to_csv(slab, SPLIT_HEADER) == oracle_slab_to_csv(slab, SPLIT_HEADER)
    assert len(forks) == 1
    assert lowest_free_fds() == free


def test_a_child_reaped_without_the_writer_counts_as_failed(forks):
    # where SIGCHLD is ignored, the kernel reaps the child and waitpid waits for it, then finds no child
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        slab = split_slab(64, SPLIT_CELLS // 64)
        assert slab_to_csv(slab, SPLIT_HEADER) == oracle_slab_to_csv(slab, SPLIT_HEADER)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(forks) == 1


# the interrupt lands either in the parent's half or as the parent reaches the last line of grid._split_rows that
# reads argv[1]; the child blocks writing its 128 rows into the pipe, which holds far fewer bytes, until the parent
# closes it
INTERRUPTED_WRITE = """
import inspect, os, sys
import numpy as np
from latticewave import grid
os.sched_getaffinity = lambda pid: {0, 1}
parent, csv_rows, where = os.getpid(), grid._csv_rows, sys.argv[1]
def rows(psi, lo, hi):
    if os.getpid() == parent and where == "the parent's half":
        raise KeyboardInterrupt
    return csv_rows(psi, lo, hi)
grid._csv_rows = rows
lines, first = inspect.getsourcelines(grid._split_rows)
target = first + max((k for k, line in enumerate(lines) if line.strip() == where), default=-1)
def line(frame, event, arg):
    if event == "line" and frame.f_lineno == target and os.getpid() == parent:
        raise KeyboardInterrupt
    return line
sys.settrace(lambda frame, event, arg: line if frame.f_code is grid._split_rows.__code__ else None)
slab = grid.FieldSlab(psi=np.random.default_rng(0).normal(size=(256, 256)))
try:
    grid.slab_to_csv(slab)
    sys.exit("no KeyboardInterrupt")
except KeyboardInterrupt:
    sys.settrace(None)
try:
    os.waitpid(-1, os.WNOHANG)
    sys.exit("a child is left")
except ChildProcessError:
    print("interrupted, no child left")
"""


@pytest.mark.parametrize("where", [
    "the parent's half",
    "if pid == 0:",  # the first line after the fork returns in the parent
    "writer.close()",
    "first = reader.read()",
], ids=["parent-s-half", "after-fork", "write-end-close", "pipe-read"])
def test_an_interrupt_in_the_parent_propagates_and_leaves_no_child(where):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # a parent that reaps before it closes the read end waits on a child blocked on a full pipe: the timeout fails
    # the test, and the session's processes are killed, the child's included
    proc = subprocess.Popen([sys.executable, "-c", INTERRUPTED_WRITE, where], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"the writer hung after an interrupt at {where!r}")
    assert (proc.returncode, stdout, stderr) == (0, "interrupted, no child left\n", "")


@pytest.mark.parametrize("middle, lineno", [
    ("   ", 3),
    (" \t# note", None),
    ("\u3000# x", None),
    ("0,1,1.0,2.0#x", 3),
], ids=["blank-only-line", "indented-comment", "ideographic-space-comment", "hash-after-the-cells"])
def test_loader_verdicts_on_blank_and_hash_lines(tmp_path, middle, lineno):
    # a line is skipped when empty or when its first non-blank character is '#'; everything else is data
    path = tmp_path / "slab.csv"
    path.write_bytes(f"n,j,re,im\n0,0,1.0,2.0\n{middle}\n0,1,1.0,2.0\n".encode())
    if lineno is None:
        assert load_slab_csv(path).psi.tolist() == [[1 + 2j, 1 + 2j]]
    else:
        with pytest.raises(DomainError) as excinfo:
            load_slab_csv(path)
        assert str(excinfo.value).startswith(f"{path}: line {lineno}: ")
        assert str(excinfo.value).endswith(f"got {middle!r}")


CSV_CELLS = st.sampled_from(["0", "1", "2", "-1", "1.5", "nan", "1e999", "abc", "", " 1"])
CSV_LIKE = st.lists(st.lists(CSV_CELLS, max_size=5).map(",".join), max_size=8).map(
    lambda rows: ("n,j,re,im\n" + "\n".join(rows)).encode())
BINARY_LIKE = st.tuples(st.integers(0, 3), st.integers(0, 3), st.binary(max_size=160)).map(
    lambda t: struct.pack("<4sIII", b"KGL1", t[0], t[1], 0) + t[2])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.binary(max_size=200) | CSV_LIKE | BINARY_LIKE)
def test_slab_loaders_give_a_slab_or_a_domain_error(tmp_path, raw):
    path = tmp_path / "slab"
    path.write_bytes(raw)
    for load in (load_slab_csv, load_slab_binary):
        try:
            slab = load(path)
        except DomainError:
            continue
        assert slab.nt >= 1 and slab.nx >= 1


# lines that one reader or the other treats specially: empty, blank, comments, line separators numpy might split on
ODD_LINES = st.sampled_from(["", " ", "#", "# note", " \t# x", "\u3000# x", "\x0c", "\x85", "\u2028", "0,0,1,2",
                             "0,0", "n,j,re,im", "1_0,0,0,0", "0,0,1,2\x00", "\r\r"])


@st.composite
def edited_csv_files(draw):
    """A slab_csv_variants file with up to three odd lines inserted anywhere, its lines ending in '\\n' or '\\r\\n'."""
    lines = draw(slab_csv_variants()).decode().split("\n")
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(ODD_LINES))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=edited_csv_files() | CSV_LIKE)
# a lone '\r' that numpy's newline translation would read as a line end, an empty line it skips, a line separator
# it does not split on
@example(raw=b"n,j,re,im\n0,0,1,2\n\r\r\n0,1,1,2\n")
@example(raw=b"#\nn,j,re,im\n0,0,1,2\n\n0,1,1,2")
@example(raw="n,j,re,im\n0,0,1,2\u20280,1,1,2\n".encode())
def test_numpy_s_file_reader_agrees_with_the_line_path(tmp_path, raw):
    path = tmp_path / "slab.csv"
    path.write_bytes(raw)

    def outcome():
        try:
            return load_slab_csv(path).psi.tobytes()
        except DomainError as exc:
            return str(exc)

    loadtxt = np.loadtxt

    def lines_only(fname, *args, **kwargs):
        if not isinstance(fname, list):
            raise ValueError("numpy's file reader is switched off")
        return loadtxt(fname, *args, **kwargs)

    either = outcome()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "loadtxt", lines_only)
        assert outcome() == either


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        GridSpec(tau=0.0)
    # an int past the float range once raised OverflowError from math.isfinite;
    # a bool is no number, as LatticeStep and KGParams rule
    for value in (10**400, -(10**400), 2**1024, 10**5000, float("nan"), float("inf"), True):
        with pytest.raises(DomainError, match="finite positive number"):
            GridSpec(tau=value)
    assert GridSpec(eps=10**300).eps == 10**300
    # the grid holds the lattice constants only; extents are the slab's shape
    assert [f.name for f in dataclasses.fields(GridSpec)] == ["tau", "eps", "c", "hbar"]
    with pytest.raises(TypeError):
        GridSpec(Nt=4)


def test_infinite_is_a_singleton_tag():
    from latticewave import Infinite

    assert Infinite() is INFINITE
    assert INFINITE == Infinite()
    with pytest.raises(TypeError):
        INFINITE > 1  # a tag, not a number: nothing orders it
    assert INFINITE != float("inf")  # deliberately not a float
    assert repr(INFINITE) == "INFINITE"


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_infinite_survives_pickling(protocol):
    # pickled by name: every protocol, 0 and 1 among them, and both copies hand back the one object
    assert pickle.loads(pickle.dumps(INFINITE, protocol)) is INFINITE
    assert copy.copy(INFINITE) is INFINITE and copy.deepcopy(INFINITE) is INFINITE


def test_field_slab_must_be_2d():
    with pytest.raises(DomainError):
        FieldSlab(psi=np.zeros(5))
    with pytest.raises(DomainError):
        FieldSlab(psi=np.zeros((0, 3)))
    with pytest.raises(DomainError):
        FieldSlab(psi=np.zeros((3, 0)))
    slab = FieldSlab(psi=np.zeros((2, 3)))
    assert (slab.nt, slab.nx) == (2, 3)


def test_a_slab_is_its_array(tmp_path):
    assert [f.name for f in dataclasses.fields(FieldSlab)] == ["psi"]
    assert not hasattr(FieldSlab, "with_values")
    path = tmp_path / "slab.bin"
    save_slab_binary(random_slab(), path)
    for call in (lambda: sample_wave(WaveSpec(form=WaveForm.CAYLEY, N=4, M=8), 2, 3, grid=GridSpec()),
                 lambda: load_slab_csv(path, grid=GridSpec()), lambda: load_slab_binary(path, grid=GridSpec())):
        with pytest.raises(TypeError):
            call()


class TestSizeCap:
    """Oversized requests are refused by value, before anything is allocated."""

    def test_cap_admits_exactly_max_cells(self):
        check_size(MAX_CELLS, "cells")
        with pytest.raises(SizeLimitError):
            check_size(MAX_CELLS + 1, "cells")
        assert issubclass(SizeLimitError, DomainError)

    @pytest.mark.parametrize("nt, nx", [(MAX_CELLS + 1, 1), (1, MAX_CELLS + 1), (2049, 2048), (10**9, 10**9)])
    @pytest.mark.parametrize("form", [WaveForm.CAYLEY, WaveForm.EXPONENTIAL])
    def test_sample_wave(self, form, nt, nx):
        with pytest.raises(SizeLimitError):
            sample_wave(WaveSpec(form=form, N=4, M=8), nt, nx)

    @pytest.mark.parametrize("beat_function", [beat_field, beat_envelope])
    def test_beat_functions(self, beat_function):
        with pytest.raises(SizeLimitError):
            beat_function(BeatSpec(T1=4, T2=6, lam1=3, lam2=5), GridSpec(), 2049, 2048)

    @pytest.mark.parametrize("steps, nx", [(MAX_CELLS // 3 - 1, 3), (2047, 2048)])
    def test_evolve_counts_the_two_initial_slices(self, steps, nx):
        initial = np.zeros((2, nx), dtype=np.complex128)
        with pytest.raises(SizeLimitError):
            evolve(initial, steps, KGParams(m0=1.0, grid=GridSpec()))

    @pytest.mark.parametrize("n_max, m_max", [(2049, 2049), (MAX_CELLS + 2, 2), (10**8, 10**8)])
    def test_solve_modes_counts_scanned_modes(self, n_max, m_max):
        with pytest.raises(SizeLimitError):
            solve_modes(1.0, DispersionForm.CAYLEY, n_max, m_max, 1e-9, GridSpec())
