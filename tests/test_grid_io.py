"""Shared lattice types and slab serialization round trips."""

import csv
import dataclasses
import math
import struct
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
from latticewave.grid import check_size, slab_to_csv
from latticewave.waves import beat_envelope


def random_slab(nt=5, nx=7, seed=0):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(nt, nx)) + 1j * rng.normal(size=(nt, nx))
    return FieldSlab(psi=psi, grid=GridSpec())


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
@pytest.mark.parametrize("grid", [None, GridSpec()], ids=["default-grid", "explicit-grid"])
def test_binary_zero_extent_rejected(tmp_path, nt, nx, grid):
    path = tmp_path / "empty.bin"
    path.write_bytes(struct.pack("<4sIII", b"KGL1", nt, nx, 0))
    kwargs = {} if grid is None else {"grid": grid}
    with pytest.raises(DomainError) as excinfo:
        load_slab_binary(path, **kwargs)
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
], ids=["header-only", "short-row", "non-numeric", "duplicate-site", "negative-index", "non-utf8", "out-of-order"])
def test_csv_malformed_body_rejected(tmp_path, raw):
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    with pytest.raises(DomainError) as excinfo:
        load_slab_csv(path)
    assert str(excinfo.value).startswith(f"{path}: ")


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


def oracle_load_slab_csv(path, grid=GridSpec()):
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
    return FieldSlab(psi=psi, grid=grid)


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


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        GridSpec(tau=0.0)
    # the grid holds the lattice constants only; extents are the slab's shape
    assert [f.name for f in dataclasses.fields(GridSpec)] == ["tau", "eps", "c", "hbar"]
    with pytest.raises(TypeError):
        GridSpec(Nt=4)


def test_infinite_is_a_singleton_tag():
    from latticewave import Infinite

    assert Infinite() is INFINITE
    assert INFINITE == Infinite()
    assert INFINITE > 10**100
    assert not INFINITE < 5
    assert INFINITE != float("inf")  # deliberately not a float
    assert repr(INFINITE) == "INFINITE"


def test_field_slab_must_be_2d():
    with pytest.raises(DomainError):
        FieldSlab(psi=np.zeros(5), grid=GridSpec())
    with pytest.raises(DomainError):
        FieldSlab(psi=np.zeros((0, 3)), grid=GridSpec())
    with pytest.raises(DomainError):
        FieldSlab(psi=np.zeros((3, 0)))
    slab = FieldSlab(psi=np.zeros((2, 3)))
    assert (slab.nt, slab.nx) == (2, 3)


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
