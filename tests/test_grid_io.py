"""Shared lattice types and slab serialization round trips."""

import numpy as np
import pytest

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


def random_slab(nt=5, nx=7, seed=0):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(nt, nx)) + 1j * rng.normal(size=(nt, nx))
    return FieldSlab(psi=psi, grid=GridSpec(Nt=nt, Nx=nx))


def test_csv_round_trip_is_exact(tmp_path):
    slab = random_slab()
    path = tmp_path / "slab.csv"
    save_slab_csv(slab, path, header_lines=["test slab"])
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


@pytest.mark.parametrize("text", [
    "n,j,re,im\n",
    "# comment\nn,j,re,im\n0,0,1.0\n",
    "n,j,re,im\n0,0,abc,0.0\n",
], ids=["header-only", "short-row", "non-numeric"])
def test_csv_malformed_body_rejected(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DomainError):
        load_slab_csv(path)


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
