"""Shared lattice types and slab serialization round trips."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from latticewave import (
    Boundary,
    DomainError,
    FieldSlab,
    GridSpec,
    INFINITE,
    load_slab_binary,
    load_slab_csv,
    save_slab_binary,
    save_slab_csv,
)
from latticewave.grid import slab_to_csv


def random_slab(nt=5, nx=7, seed=0):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(nt, nx)) + 1j * rng.normal(size=(nt, nx))
    return FieldSlab(psi=psi, grid=GridSpec(Nt=nt, Nx=nx))


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


@pytest.mark.parametrize("raw", [
    b"n,j,re,im\n",
    b"# comment\nn,j,re,im\n0,0,1.0\n",
    b"n,j,re,im\n0,0,abc,0.0\n",
    b"n,j,re,im\n0,0,1.0,0.0\n0,0,2.0,0.0\n0,1,1,1\n",
    b"n,j,re,im\n0,0,1,0\n0,1,1,0\n1,0,1,0\n-1,1,1,0\n",
    b"n,j,re,im\n0,0,1.0,\xff\n",
], ids=["header-only", "short-row", "non-numeric", "duplicate-site", "negative-index", "non-utf8"])
def test_csv_malformed_body_rejected(tmp_path, raw):
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    with pytest.raises(DomainError):
        load_slab_csv(path)


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
    with pytest.raises(DomainError):
        GridSpec(Nt=0)
    with pytest.raises(DomainError):
        GridSpec(boundary="periodic")  # must be the enum, not a bare string
    assert GridSpec(boundary=Boundary.SHRINKING).boundary is Boundary.SHRINKING


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
