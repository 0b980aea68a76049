"""Command-line front end: configs, outputs, provenance, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from latticewave import (
    INFINITE,
    BeatSpec,
    ConfigError,
    DomainError,
    GridSpec,
    KGParams,
    MeasurementError,
    SizeLimitError,
    WaveForm,
    WaveSpec,
    beat_field,
    beat_velocities,
    eval_wave,
    evolve,
    load_slab_binary,
    load_slab_csv,
    mass_from_rest_period,
    preserves_metric,
    sample_wave,
)
from latticewave.cli import EXPERIMENTS, GRID_KEYS, RunConfig, _json_text, build_config, build_parser, load_config, main

CAYLEY_M0 = repr(2 * math.pi / math.sqrt(12))
REST5_M0 = repr(mass_from_rest_period(5, GridSpec()))


def read_json(path):
    return json.loads(path.read_text())


class TestExperiments:
    def test_dispersion_scan_finds_the_3_6_mode(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main([
            "dispersion-scan", "--form", "cayley", "--m0", CAYLEY_M0,
            "--n-max", "64", "--m-max", "64", "--tol", "1e-9", "--output", str(out),
        ])
        assert code == 0
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert rows[0] == "form,N,M,m0,residual"
        assert any(r.startswith("cayley,3,6,") for r in rows[1:])

    def test_lorentz_enumerate_word_length_one(self, tmp_path):
        out = tmp_path / "ball.json"
        assert main(["lorentz-enumerate", "--max-word-len", "1", "--output", str(out)]) == 0
        data = read_json(out)
        matrices = data["result"]["matrices"]
        assert len(matrices) == 5
        for flat in matrices:
            entries = [flat[4 * i : 4 * i + 4] for i in range(4)]
            assert preserves_metric(entries)

    def test_lorentz_factorize_round_trip(self, tmp_path):
        out = tmp_path / "word.json"
        matrix = "2,1,1,1,-1,0,-1,-1,-1,-1,0,-1,-1,-1,-1,0"
        assert main(["lorentz-factorize", "--matrix", matrix, "--output", str(out)]) == 0
        result = read_json(out)["result"]
        assert result["round_trip_exact"] is True
        assert result["word"] == ["S4"]

    def test_lorentz_factorize_allows_spaces_around_an_entry(self, tmp_path):
        out = tmp_path / "word.json"
        assert main(["lorentz-factorize", "--matrix", "2, 1, 1, 1, -1, 0, -1, -1, -1, -1, 0, -1, -1, -1, -1, 0",
                     "--output", str(out)]) == 0
        assert read_json(out)["result"]["word"] == ["S4"]

    # an entry is read by int() as it stands: a space inside one, or an empty field, is no integer
    @pytest.mark.parametrize("matrix, message", [
        ("2,1,x", "be 16 comma-separated integers, got '2,1,x'"),
        ("1,0,0,1", "have 16 entries, got 4"),
        ("1,0,0,0,0,1,0,0,0,0,1,0,0,0,0 0,1",
         "be 16 comma-separated integers, got '1,0,0,0,0,1,0,0,0,0,1,0,0,0,0 0,1'"),
        ("2,1,1,1,,-1,0,-1,-1,-1,-1,0,-1,-1,-1,-1,0",
         "be 16 comma-separated integers, got '2,1,1,1,,-1,0,-1,-1,-1,-1,0,-1,-1,-1,-1,0'"),
        ("1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1,",
         "be 16 comma-separated integers, got '1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1,'"),
    ], ids=["not-an-integer", "four", "space-inside-an-entry", "empty-field", "trailing-comma"])
    def test_lorentz_factorize_of_a_matrix_that_is_not_16_integers_is_a_config_error(self, tmp_path, capsys,
                                                                                      matrix, message):
        assert main(["lorentz-factorize", "--matrix", matrix, "--output", str(tmp_path / "word.json")]) == 2
        assert capsys.readouterr().err == f"config error: matrix must {message}\n"

    def test_kg_residual_json_writes_the_same_bytes_to_stdout_and_to_a_file(self, tmp_path, capsysbinary):
        """Without --output the bytes of the file go to stdout; tests/pins.txt pins the file's digest."""
        argv = ["kg-residual", "--form", "cayley", "--wave-n", "7", "--wave-m", "11", "--m0", "0.5", "--format", "json"]
        out = tmp_path / "residual.json"
        assert main([*argv, "--output", str(out)]) == 0
        capsysbinary.readouterr()
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    def test_kg_evolve_verify_reports_tiny_deviation(self, tmp_path):
        out = tmp_path / "slab.csv"
        code = main([
            "kg-evolve", "--form", "cayley", "--wave-n", "5", "--wave-m", "inf",
            "--m0", REST5_M0, "--steps", "16", "--nx", "12", "--verify",
            "--output", str(out),
        ])
        assert code == 0
        header = [line for line in out.read_text().splitlines() if line.startswith("#")]
        deviation_lines = [line for line in header if "max-deviation-from-closed-form" in line]
        assert len(deviation_lines) == 1
        assert float(deviation_lines[0].split(":")[1]) <= 1e-10

    def test_kg_evolve_binary_round_trips(self, tmp_path):
        out = tmp_path / "slab.bin"
        code = main([
            "kg-evolve", "--form", "cayley", "--wave-n", "5", "--wave-m", "inf",
            "--m0", REST5_M0, "--steps", "4", "--nx", "8",
            "--format", "binary", "--output", str(out),
        ])
        assert code == 0
        slab = load_slab_binary(out)
        assert slab.psi.shape == (6, 8)
        assert out.read_bytes()[:4] == b"KGL1"

    def test_wave_sample_matches_direct_evaluation(self, tmp_path):
        from latticewave import WaveForm, WaveSpec, eval_wave

        out = tmp_path / "wave.csv"
        assert main([
            "wave-sample", "--form", "exponential", "--wave-n", "4", "--wave-m", "8",
            "--nt", "4", "--nx", "4", "--output", str(out),
        ]) == 0
        spec = WaveSpec(form=WaveForm.EXPONENTIAL, N=4, M=8)
        rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")]
        assert rows[0] == ["n", "j", "re", "im"]
        for n_str, j_str, re_str, im_str in rows[1:]:
            value = eval_wave(spec, int(n_str), int(j_str))
            assert complex(float(re_str), float(im_str)) == pytest.approx(value, abs=1e-15)

    def test_wave_sample_cells_are_the_reprs_of_eval_wave(self, tmp_path):
        from latticewave import WaveForm, WaveSpec, eval_wave

        out = tmp_path / "wave.csv"
        assert main([
            "wave-sample", "--form", "cayley", "--wave-n", "5", "--wave-m", "7",
            "--nt", "6", "--nx", "9", "--output", str(out),
        ]) == 0
        spec = WaveSpec(form=WaveForm.CAYLEY, N=5, M=7)
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]
        expected = []
        for n in range(6):
            for j in range(9):
                value = eval_wave(spec, n, j)
                expected.append(f"{n},{j},{value.real!r},{value.imag!r}")
        assert rows == expected

    def test_wave_sample_empty_extent_is_a_domain_error(self, tmp_path):
        assert main([
            "wave-sample", "--form", "cayley", "--wave-n", "3", "--wave-m", "4",
            "--nt", "0", "--output", str(tmp_path / "wave.csv"),
        ]) == 3

    def test_quantization_check_rest_step(self, tmp_path):
        out = tmp_path / "q.json"
        assert main([
            "quantization-check", "--m0", repr(2 * math.pi), "--dn", "1",
            "--dj", "0", "0", "0", "--output", str(out),
        ]) == 0
        result = read_json(out)["result"]
        assert result["N_real"] == 1.0
        assert result["N"] == 1
        assert result["M_real"] == "inf"

    def test_kinematics_boost_to_rest(self, tmp_path):
        out = tmp_path / "boost.json"
        assert main([
            "kinematics-boost", "--m0", "1", "--p", "0.75", "0", "0",
            "--v", "0.6", "0", "0", "--output", str(out),
        ]) == 0
        result = read_json(out)["result"]
        assert result["boosted"]["E"] == pytest.approx(1.0, abs=1e-14)
        assert result["checks"]["wave_particle_equivalence_residual"] <= 1e-12

    @pytest.mark.parametrize("hbar", ["1e-20", "0.3", "1e20", "1e150"])
    def test_kinematics_boost_equivalence_is_relative(self, tmp_path, hbar):
        # w' and k' scale with 1/hbar; their agreement with E'/hbar and p'/hbar, relative to the wave, does not
        out = tmp_path / "boost.json"
        assert main(["kinematics-boost", "--m0", "1", "--p", "0.75", "0", "0", "--v", "0.5", "0", "0",
                     "--hbar", hbar, "--output", str(out)]) == 0
        result = read_json(out)["result"]
        assert result["checks"]["wave_particle_equivalence_residual"] <= 1e-15
        # |k|^2 = 5.6e-301 at hbar = 1e150 is still a normal float, so the phase velocity keeps its digits
        assert result["wave"]["phase_velocity"] == pytest.approx(5 / 3, rel=1e-15)

    def test_kinematics_boost_of_a_wave_boosted_to_0_is_a_domain_error(self, tmp_path, capsys):
        # w = E/hbar = 5e-324, and w/c rounds to 0 at c = 2: w' would read 0 beside a boosted E of 4.1e-16
        out = tmp_path / "boost.json"
        assert main(["kinematics-boost", "--m0", "1e-16", "--p", "0", "0", "0", "--v", "0.5", "0", "0",
                     "--c", "2", "--hbar", "8e307", "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "domain error: a nonzero w is boosted to w' = 0 at c = 2.0: w/c or w' underflows\n"
        assert not out.exists()

    def test_kinematics_boost_of_the_smallest_wave_that_survives_c(self, tmp_path):
        # w = 1e-323 halves to a nonzero subnormal at c = 2, so the boost runs and writes a nonzero w'
        out = tmp_path / "boost.json"
        assert main(["kinematics-boost", "--m0", "2e-16", "--p", "0", "0", "0", "--v", "0.5", "0", "0",
                     "--c", "2", "--hbar", "8e307", "--output", str(out)]) == 0
        result = read_json(out)["result"]
        assert result["wave"]["w_boosted"] > 0.0

    def test_beat_measure(self, tmp_path):
        out = tmp_path / "beat.json"
        assert main([
            "beat-measure", "--t1", "4", "--t2", "6", "--lam1", "3", "--lam2", "5",
            "--nt", "128", "--nx", "512", "--output", str(out),
        ]) == 0
        result = read_json(out)["result"]
        assert result["v_group"] == pytest.approx(0.625, rel=1e-12)
        assert result["relative_error"] <= 0.02


class TestSlabOutputs:
    """Every slab the CLI writes reads back as exactly the library's field."""

    @pytest.mark.parametrize("form, wave_m", [("cayley", 7), ("exponential", INFINITE)])
    def test_wave_sample_csv_loads_back_as_sample_wave(self, tmp_path, form, wave_m):
        out = tmp_path / "wave.csv"
        assert main(["wave-sample", "--form", form, "--wave-n", "5", "--wave-m", str(wave_m).lower(),
                     "--nt", "6", "--nx", "9", "--output", str(out)]) == 0
        expected = sample_wave(WaveSpec(form=WaveForm(form), N=5, M=wave_m), 6, 9).psi
        assert load_slab_csv(out).psi.tobytes() == expected.tobytes()

    def test_kg_evolve_csv_loads_back_as_evolve(self, tmp_path):
        out = tmp_path / "slab.csv"
        assert main(["kg-evolve", "--form", "exponential", "--wave-n", "4", "--wave-m", "8", "--m0", "1",
                     "--steps", "12", "--nx", "10", "--output", str(out)]) == 0
        initial = sample_wave(WaveSpec(form=WaveForm.EXPONENTIAL, N=4, M=8), 2, 10).psi
        expected = evolve(initial, 12, KGParams(m0=1.0, grid=GridSpec())).psi
        assert load_slab_csv(out).psi.tobytes() == expected.tobytes()

    def test_beat_measure_csv_loads_back_as_beat_field(self, tmp_path):
        out = tmp_path / "beat.csv"
        assert main(["beat-measure", "--t1", "4", "--t2", "6", "--lam1", "3", "--lam2", "5",
                     "--nt", "64", "--nx", "128", "--format", "csv", "--output", str(out)]) == 0
        expected = beat_field(BeatSpec(T1=4.0, T2=6.0, lam1=3.0, lam2=5.0), GridSpec(), 64, 128).psi
        assert load_slab_csv(out).psi.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("form, wave_m", [("cayley", 7), ("exponential", INFINITE)])
    def test_wave_sample_json_rows_are_eval_wave(self, tmp_path, form, wave_m):
        out = tmp_path / "wave.json"
        assert main(["wave-sample", "--form", form, "--wave-n", "5", "--wave-m", str(wave_m).lower(),
                     "--nt", "6", "--nx", "9", "--format", "json", "--output", str(out)]) == 0
        data = read_json(out)
        spec = WaveSpec(form=WaveForm(form), N=5, M=wave_m)
        assert data["columns"] == ["n", "j", "re", "im"]
        assert data["rows"] == [[n, j, eval_wave(spec, n, j).real, eval_wave(spec, n, j).imag]
                                for n in range(6) for j in range(9)]


class TestUnwritableOutput:
    """An output path that cannot be written is a config error (exit 2), never a traceback."""

    WAVE = ["wave-sample", "--form", "cayley", "--wave-n", "5", "--wave-m", "7", "--nt", "4", "--nx", "4"]

    def test_output_is_a_directory(self, tmp_path, capsys):
        assert main([*self.WAVE, "--output", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot write output {tmp_path}")

    def test_output_under_a_regular_file(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        assert main([*self.WAVE, "--output", str(blocker / "wave.csv")]) == 2
        assert blocker.read_text() == "kept\n"

    def test_empty_output_path_in_a_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("LATTICEWAVE_OUTPUT_DIR", raising=False)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": "lorentz-enumerate", "params": {"max_word_len": 1},
                                    "format": "json", "output_path": ""}))
        assert main(["run", "--config", str(path)]) == 2

    def test_verify_all_output_is_a_directory(self, tmp_path, capsys):
        assert main(["verify-all", "--quiet", "--output", str(tmp_path)]) == 2
        assert "config error: cannot write output" in capsys.readouterr().err


DECADES = ("1e-320", "1e-300", "1e-160", "1e-20", "1", "1e20", "1e160", "1e300", "1e308")
SWEEP = {
    "quantization-m0": ["quantization-check", "--m0", "{x}", "--dn", "2", "--dj", "1", "0", "0"],
    "quantization-tau": ["quantization-check", "--m0", "1", "--dn", "2", "--dj", "1", "0", "0", "--tau", "{x}"],
    "boost-m0": ["kinematics-boost", "--m0", "{x}", "--p", "0.75", "0", "0", "--v", "0.5", "0", "0"],
    "boost-p": ["kinematics-boost", "--m0", "1", "--p", "{x}", "0", "0", "--v", "0.5", "0", "0"],
    "boost-c": ["kinematics-boost", "--m0", "1", "--p", "0.75", "0", "0", "--v", "0.5", "0", "0", "--c", "{x}"],
    "boost-hbar": ["kinematics-boost", "--m0", "1", "--p", "0.75", "0", "0", "--v", "0.5", "0", "0", "--hbar", "{x}"],
    "beat-t1": ["beat-measure", "--t1", "{x}", "--t2", "6", "--lam1", "3", "--lam2", "5"],
    "beat-lam1": ["beat-measure", "--t1", "4", "--t2", "6", "--lam1", "{x}", "--lam2", "5"],
}


@pytest.mark.parametrize("x", DECADES)
@pytest.mark.parametrize("argv", list(SWEEP.values()), ids=list(SWEEP))
def test_parameters_across_the_float_range_exit_cleanly(tmp_path, capsys, argv, x):
    out = tmp_path / "out"
    assert main([arg.format(x=x) for arg in argv] + ["--output", str(out)]) in (0, 2, 3)
    text = capsys.readouterr().out + (out.read_text() if out.exists() else "")
    assert "NaN" not in text and "Infinity" not in text


@pytest.mark.parametrize("argv", [
    ["quantization-check", "--m0", "1e-320", "--dn", "2", "--dj", "1", "0", "0"],
    ["quantization-check", "--m0", "1e308", "--dn", "2", "--dj", "1", "0", "0"],
    ["quantization-check", "--m0", "1", "--tau", "1e160", "--dn", "2", "--dj", "1", "0", "0"],
    ["quantization-check", "--m0", "1e160", "--dn", "2", "--dj", "1", "0", "0"],
    ["beat-measure", "--t1", "1e-320", "--t2", "6", "--lam1", "3", "--lam2", "5"],
    ["beat-measure", "--t1", "4", "--t2", "6", "--lam1", "1e-320", "--lam2", "5"],
    ["kinematics-boost", "--m0", "1e160", "--p", "0.75", "0", "0", "--v", "0.5", "0", "0"],
    ["kinematics-boost", "--m0", "1", "--c", "1e160", "--p", "0.75", "0", "0", "--v", "0.5", "0", "0"],
    ["kinematics-boost", "--m0", "1", "--p", "1e160", "0", "0", "--v", "0.5", "0", "0"],
    ["kinematics-boost", "--m0", "1", "--p", "1.2e154", "0", "0", "--v", "-0.5", "0", "0"],
    ["kinematics-boost", "--m0", "1", "--p", "1", "0", "0", "--v", "0.5", "0", "0", "--hbar", "1e-320"],
    ["kinematics-boost", "--m0", "1", "--p", "1", "0", "0", "--v", "0.5", "0", "0", "--hbar", "1e-300"],
    ["kinematics-boost", "--m0", "1", "--p", "0.75", "0", "0", "--v", "0.5", "0", "0", "--hbar", "1e160"],
    ["beat-measure", "--t1", "1e-307", "--t2", "6", "--lam1", "3", "--lam2", "5"],
    ["beat-measure", "--t1", "4", "--t2", "6", "--lam1", "3", "--lam2", "5", "--tau", "1e307"],
    ["beat-measure", "--t1", "4", "--t2", "6", "--lam1", "3", "--lam2", "5", "--eps", "1e306"],
    # (c tau)^2 = 1e-320 is subnormal, so 1/(c tau)^2 is inf
    ["dispersion-scan", "--form", "exponential", "--m0", "1", "--tau", "1e-160"],
    # every coefficient is finite, but 4 tan^2(pi/M) / eps^2 is inf at M = 3, so the residual of (3, 3) is -inf
    ["dispersion-scan", "--form", "exponential", "--m0", "1", "--eps", "1e-154", "--tol", "1e300"],
], ids=["quantization-m0-tiny", "quantization-m0-huge", "quantization-tau-huge", "quantization-p-squared",
        "beat-t1-tiny", "beat-lam1-tiny", "boost-m0-huge", "boost-c-huge", "boost-p-huge", "boosted-energy-squared",
        "boost-hbar-tiny", "boost-wavenumber-squared", "boost-wavenumber-subnormal-square", "beat-phases-t1",
        "beat-phases-tau", "beat-phases-eps", "scan-time-coefficient-overflows",
        "scan-residual-overflows"])
def test_derived_values_out_of_the_float_range_are_domain_errors(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and "the float range" in err
    assert not out.exists()


@pytest.mark.parametrize("m0, p, c, message", [
    ("1", "1", "1e-200", "E = sqrt(|p|^2 c^2 + m0^2 c^4) underflows to 0 for m0 = 1.0, c = 1e-200"),
    ("0", "0", "1", "massless state needs nonzero momentum"),
], ids=["energy-underflows", "massless-at-rest"])
def test_a_zero_energy_says_why(tmp_path, capsys, m0, p, c, message):
    out = tmp_path / "out.json"
    argv = ["kinematics-boost", "--m0", m0, "--p", p, "0", "0", "--v", "0.5", "0", "0", "--c", c]
    assert main([*argv, "--output", str(out)]) == 3
    assert capsys.readouterr().err == f"domain error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (["quantization-check", "--m0", "1", "--dn", "9007199254740993", "--dj", "1", "0", "0"], "dn"),
    (["quantization-check", "--m0", "1", "--dn", "3", "--dj", "9007199254740993", "0", "0"], "dj"),
    (["wave-sample", "--form", "cayley", "--wave-n", "1" * 401, "--wave-m", "5"], "wave_n"),
    (["quantization-check", "--m0", "1", "--dn", "2", "--dj", "1.5", "0", "0"], "dj"),
    (["kinematics-boost", "--m0", "1", "--p", "abc", "0", "0", "--v", "0", "0", "0"], "p"),
    (["quantization-check", "--m0", "1", "--dn", "2", "--dj", "1", "0", "0", "--tau", "abc"], "tau"),
    (["dispersion-scan", "--form", "cayley", "--m0", "1", "--seed", "abc"], "seed"),
    (["verify-all", "--seed", "abc"], "seed"),
], ids=["dn-2-53-plus-1", "dj-2-53-plus-1", "wave-n-401-digits", "fractional-vec3i", "vec3f-word",
        "grid-constant-word", "experiment-seed-word", "verify-all-seed-word"])
def test_a_flag_value_that_cannot_be_read_is_a_config_error_naming_its_parameter(tmp_path, capsys, argv, name):
    out = tmp_path / "out"
    assert main([*argv, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: parameter {name!r}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("params", [
    {"m0": 1, "dn": 9007199254740993, "dj": [1, 0, 0]},
    {"m0": 1, "dn": "9007199254740993", "dj": [1, 0, 0]},
    {"m0": 1, "dn": 3, "dj": [9007199254740993, 0, 0]},
], ids=["int", "int-string", "vec3i-entry"])
def test_config_integers_a_float_cannot_hold_are_config_errors(tmp_path, params):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "quantization-check", "params": params, "format": "json"}))
    assert main(["run", "--config", str(path)]) == 2


@pytest.mark.parametrize("dn, expected", [
    (5, 5), ("5", 5), ("5.0", 5), (5.0, 5), ("1e3", 1000),
    (2**53, 2**53), (str(2**53), 2**53), (2**60 + 2**8, 2**60 + 2**8), (str(2**60 + 2**8), 2**60 + 2**8),
], ids=["int", "int-string", "float-string", "float", "exponent-string", "2-53", "2-53-string", "2-60-plus-2-8",
        "2-60-plus-2-8-string"])
def test_integer_parameters_are_read_exactly(dn, expected):
    cfg = build_config("quantization-check", {"m0": 1.0, "dn": dn, "dj": [dn, 0, 0]}, fmt="json")
    assert (cfg.params["dn"], cfg.params["dj"][0]) == (expected, expected)
    assert type(cfg.params["dn"]) is int and type(cfg.params["dj"][0]) is int


def test_a_vector_flag_is_read_as_its_config_value(tmp_path):
    # one reader for flags and configs: an integral 1.0 is the integer 1 on the command line too
    outputs = []
    for dj in (["1.0", "0", "0"], ["1", "0", "0"]):
        out = tmp_path / f"flags-{len(outputs)}.json"
        assert main(["quantization-check", "--m0", "1", "--dn", "2", "--dj", *dj, "--format", "json",
                     "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    out = tmp_path / "config-out.json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "quantization-check", "params": {"m0": 1, "dn": 2, "dj": [1.0, 0, 0]},
                                  "format": "json", "output_path": str(out)}))
    assert main(["run", "--config", str(config)]) == 0
    assert outputs == [out.read_bytes()] * 2


@pytest.mark.parametrize("config_seed, flag_seed, code", [
    (3.0, "3", 0), ("3", "3", 0), (3, "3.0", 0), (9007199254740993, "9007199254740993", 2), ("abc", "abc", 2),
], ids=["integral-float", "string", "flag-float", "2-53-plus-1", "word"])
def test_a_config_seed_is_read_as_the_seed_flag_is(tmp_path, capsys, config_seed, flag_seed, code):
    # a config's "seed": 3.0 once exited 2 where --seed 3.0 ran, and 2^53 + 1 ran where the flag exited 2
    argv = ["quantization-check", "--m0", "1", "--dn", "2", "--dj", "1", "0", "0", "--format", "json"]
    flag_out, config_out = tmp_path / "flag.json", tmp_path / "config-out.json"
    assert main([*argv, "--seed", flag_seed, "--output", str(flag_out)]) == code
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "quantization-check", "params": {"m0": 1, "dn": 2, "dj": [1, 0, 0]},
                                  "format": "json", "output_path": str(config_out), "seed": config_seed}))
    assert main(["run", "--config", str(config)]) == code
    if code:
        flag_err, config_err = capsys.readouterr().err.splitlines()
        assert flag_err.startswith("config error: parameter 'seed': ")
        assert config_err.startswith("config error: parameter 'seed': ")
        assert not flag_out.exists() and not config_out.exists()
    else:
        assert config_out.read_bytes() == flag_out.read_bytes()
        assert json.loads(flag_out.read_bytes())["meta"]["config"]["seed"] == 3


@pytest.mark.parametrize("argv", [
    ["--t1", "4", "--t2", "6", "--lam1", "3", "--lam2", "5"],
    ["--t1", "-4", "--t2", "6", "--lam1", "3", "--lam2", "-5", "--nt", "128", "--nx", "2048", "--tau", "0.5",
     "--eps", "0.25"],
    ["--t1", "4", "--t2", "4", "--lam1", "3", "--lam2", "5", "--nt", "0"],
    ["--t1", "4", "--t2", "4", "--lam1", "3", "--lam2", "5", "--nt", "3"],
    ["--t1", "4", "--t2", "6", "--lam1", "3", "--lam2", "5", "--nt", "4"],
    ["--t1", "4", "--t2", "6", "--lam1", "3", "--lam2", "5", "--nx", "-1"],
    ["--t1", "4", "--t2", "6", "--lam1", "3", "--lam2", "5", "--nt", "100000", "--nx", "100000"],
    ["--t1", "4", "--t2", "6", "--lam1", "3", "--lam2", "5", "--tau", "1e160"],
    ["--t1", "1e-307", "--t2", "6", "--lam1", "3", "--lam2", "5"],
], ids=["default", "scaled", "empty-slab", "three-slices", "short-slab", "negative-nx", "too-large", "aliased",
        "phases-out-of-range"])
def test_beat_measure_json_is_the_measurement_of_the_sampled_field(tmp_path, capsys, argv, sampled_beat_measurement):
    """The JSON result, or the exit code and message, of measuring the sampled beat_field."""
    out = tmp_path / "beat.json"
    code = main(["beat-measure", *argv, "--format", "json", "--output", str(out)])
    flags = dict(zip(argv[::2], argv[1::2]))
    beat = BeatSpec(*(float(flags[f]) for f in ("--t1", "--t2", "--lam1", "--lam2")))
    grid = GridSpec(tau=float(flags.get("--tau", 1.0)), eps=float(flags.get("--eps", 1.0)))
    v_phase, v_group = beat_velocities(beat)
    try:
        measured = sampled_beat_measurement(beat, grid, int(flags.get("--nt", 256)), int(flags.get("--nx", 1024)))
    except SizeLimitError as exc:
        assert (code, capsys.readouterr().err, out.exists()) == (2, f"config error: {exc}\n", False)
        return
    except (DomainError, MeasurementError) as exc:
        assert (code, capsys.readouterr().err, out.exists()) == (3, f"domain error: {exc}\n", False)
        return
    assert code == 0
    # "result" is the last key of the payload, so the file ends with its text
    assert out.read_text().endswith(json.dumps({"result": {
        "v_phase": v_phase, "v_group": v_group, "measured_v_group": measured,
        "relative_error": abs(measured - v_group) / abs(v_group)}}, sort_keys=True, indent=2)[1:] + "\n")


@pytest.mark.parametrize("argv, reason", [
    (["--t1", "4", "--t2", "6", "--lam1", "3", "--lam2", "5", "--tau", "1e160"], "aliased"),
    (["--t1", "4", "--t2", "6", "--lam1", "3", "--lam2", "5", "--eps", "1e304"], "under-resolved"),
    (["--t1", "1.6", "--t2", "8", "--lam1", "4", "--lam2", "8", "--nt", "64", "--nx", "256"],
     "4.0 sites per step, at least half its 8.0-site spacing"),
], ids=["tau-huge", "eps-huge", "half-spacing"])
def test_beat_measure_on_an_aliasing_grid_is_a_measurement_error(tmp_path, capsys, argv, reason):
    # the envelope moves ~6e159 sites per step, or its crests are ~7.5e-304 sites apart: tracking it
    # once reported a finite velocity with relative error 1.0; or crests 8 sites apart move 4 sites
    # per step, where the tracker once read a v_group of 4.0 as -4.0
    out = tmp_path / "out.json"
    assert main(["beat-measure", *argv, "--format", "json", "--output", str(out)]) == 3
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_beat_measure_of_a_crest_moving_just_under_half_its_spacing_is_measured(tmp_path):
    # at tau = 0.99 the crests 8 sites apart move 3.96 sites per step
    out = tmp_path / "beat.json"
    assert main(["beat-measure", "--t1", "1.6", "--t2", "8", "--lam1", "4", "--lam2", "8", "--nt", "64", "--nx", "256",
                 "--tau", "0.99", "--format", "json", "--output", str(out)]) == 0
    result = read_json(out)["result"]
    assert result["v_group"] == 4.0
    assert result["relative_error"] < 1e-4


class TestRunConfigs:
    def config(self, tmp_path, **overrides):
        cfg = {
            "experiment": "dispersion-scan",
            "grid": {"tau": 1.0, "eps": 1.0, "c": 1.0, "hbar": 1.0},
            "params": {"form": "cayley", "m0": 2 * math.pi / math.sqrt(12),
                       "n_max": 16, "m_max": 16, "tol": 1e-9},
            "output_path": str(tmp_path / "out.csv"),
            "format": "csv",
        }
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_run_from_config_file(self, tmp_path):
        assert main(["run", "--config", str(self.config(tmp_path))]) == 0
        body = (tmp_path / "out.csv").read_text()
        assert "cayley,3,6," in body

    def test_byte_identical_reruns(self, tmp_path):
        path = self.config(tmp_path)
        assert main(["run", "--config", str(path)]) == 0
        first = (tmp_path / "out.csv").read_bytes()
        assert main(["run", "--config", str(path)]) == 0
        assert (tmp_path / "out.csv").read_bytes() == first

    def test_unknown_top_level_key_rejected(self, tmp_path):
        assert main(["run", "--config", str(self.config(tmp_path, extra_key=1))]) == 2

    def test_unknown_param_rejected(self, tmp_path):
        path = self.config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["params"]["mystery"] = 3
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2

    def test_numeric_validation_happens_before_execution(self, tmp_path):
        path = self.config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["params"]["m0"] = "not-a-number"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("flags", [
        ["--m0", "1", "--n-max", "1e400"],
        ["--m0", "nan"],
        ["--m0", "1", "--tol", "nan"],
        ["--m0", "inf"],
    ], ids=["overflowing-int", "nan-mass", "nan-tolerance", "infinite-mass"])
    def test_non_finite_numbers_are_config_errors(self, tmp_path, flags):
        argv = ["dispersion-scan", "--form", "cayley", *flags, "--output", str(tmp_path / "scan.csv")]
        assert main(argv) == 2
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("overrides", [
        {"experiment": ["x"]},
        {"grid": "abc"},
        {"grid": {"tau": "abc"}},
        {"grid": {"tau": None}},
        {"params": ["form"]},
        {"output_path": 5},
        {"experiment": "quantization-check", "format": "json", "params": {"m0": 1.0, "dn": 1, "dj": [0.5, 0, 0]}},
        {"params": {"form": "cayley", "m0": True}},
        {"params": {"form": "sine", "m0": 1.0}},
        {"grid": {"c": True}},
        {"experiment": "kinematics-boost", "format": "json", "params": {"m0": 1.0, "p": 3, "v": [0, 0, 0]}},
        {"experiment": "kinematics-boost", "format": "json", "params": {"m0": 1.0, "p": [0, 0, 0]}},
        {"experiment": "no-such-experiment"},
        {"format": "xml"},
        {"grid": {"tau": -1.0}},
        {"grid": {"tau": 1.0, "mass": 1.0}},
        {"seed": True},
        {"seed": 3.5},
        {"seed": None},
    ], ids=["experiment-list", "grid-string", "tau-string", "tau-null", "params-list", "output-path-int",
            "fractional-vec3i", "m0-bool", "form-not-a-choice", "grid-c-bool", "vec3-scalar", "missing-parameter", "unknown-experiment",
            "unknown-format", "negative-tau", "unknown-grid-key", "seed-bool", "seed-fraction", "seed-null"])
    def test_malformed_structure_is_a_config_error(self, tmp_path, overrides):
        assert main(["run", "--config", str(self.config(tmp_path, **overrides))]) == 2
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("raw, message", [(b"[]", "config root must be a JSON object"),
                                              (b"{}", "config needs an 'experiment' key")],
                             ids=["root-list", "no-experiment"])
    def test_a_config_that_names_no_experiment_is_a_config_error(self, tmp_path, capsys, raw, message):
        path = tmp_path / "config.json"
        path.write_bytes(raw)
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("raw", [b'{"experiment": "\xff"}', b"[" * 100000 + b"]" * 100000],
                             ids=["non-utf8", "nested-too-deep"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_bytes(raw)
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("value, verify", [("yes", True), ("1", True), ("TRUE", True),
                                               ("no", False), ("0", False), ("false", False), ("maybe", None)])
    def test_a_string_bool_in_a_config_reads_as_its_word(self, tmp_path, value, verify):
        out = tmp_path / "out.csv"
        path = tmp_path / "config.json"
        params = {"form": "exponential", "wave_n": 4, "wave_m": 8, "m0": 1, "steps": 2, "nx": 8, "verify": value}
        path.write_text(json.dumps({"experiment": "kg-evolve", "params": params, "output_path": str(out)}))
        if verify is None:
            assert main(["run", "--config", str(path)]) == 2
            assert not out.exists()
            return
        assert main(["run", "--config", str(path)]) == 0
        comments = [line for line in out.read_text().splitlines() if line.startswith("#")]
        assert f'"verify":{json.dumps(verify)}' in comments[2]
        assert any(line.startswith("# max-deviation-from-closed-form: ") for line in comments) is verify

    @pytest.mark.parametrize("experiment", ["kg-evolve", "kg-residual"])
    @pytest.mark.parametrize("grid_flags", [["--eps", "1e-300"], ["--tau", "1e300"], ["--eps", "1e160"]],
                             ids=["eps-squared-underflows", "tau-squared-overflows", "eps-squared-overflows"])
    def test_extreme_grid_constants_are_domain_errors(self, tmp_path, experiment, grid_flags):
        out = tmp_path / "out"
        assert main([experiment, "--form", "exponential", "--wave-n", "4", "--wave-m", "8", "--m0", "1",
                     *grid_flags, "--output", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("form", ["exponential", "cayley", "continuum"])
    @pytest.mark.parametrize("grid_flags", [["--c", "1e200"], ["--eps", "1e-200"], ["--tau", "1e-200"]],
                             ids=["c-squared-overflows", "eps-squared-underflows", "tau-squared-underflows"])
    def test_extreme_grid_constants_in_a_scan_are_domain_errors(self, tmp_path, form, grid_flags):
        out = tmp_path / "scan.csv"
        assert main(["dispersion-scan", "--form", form, "--m0", "1", "--n-max", "4", "--m-max", "4",
                     *grid_flags, "--output", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["dispersion-scan", "--form", "cayley", "--m0", "1", "--n-max", "100000000", "--m-max", "100000000"],
        ["dispersion-scan", "--form", "cayley", "--m0", "1", "--n-max", "2049", "--m-max", "2049"],
        ["wave-sample", "--form", "cayley", "--wave-n", "3", "--wave-m", "4", "--nt", "100000000", "--nx", "100000000"],
        ["kg-evolve", "--form", "exponential", "--wave-n", "4", "--wave-m", "8", "--m0", "1",
         "--steps", "100000000", "--nx", "1024"],
        ["kg-evolve", "--form", "exponential", "--wave-n", "4", "--wave-m", "8", "--m0", "1",
         "--steps", "16", "--nx", "100000000"],
        ["kg-residual", "--form", "cayley", "--wave-n", "3", "--wave-m", "4", "--m0", "1",
         "--nt", "100000", "--nx", "100000"],
        ["beat-measure", "--t1", "4", "--t2", "6", "--lam1", "3", "--lam2", "5", "--nt", "100000", "--nx", "100000"],
    ], ids=["scan-1e8-squared", "scan-just-over", "wave-sample", "kg-evolve-steps", "kg-evolve-nx",
            "kg-residual", "beat-measure"])
    def test_sizes_over_the_cap_are_config_errors(self, tmp_path, argv):
        out = tmp_path / "out"
        assert main([*argv, "--output", str(out)]) == 2
        assert not out.exists()

    def test_config_size_over_the_cap_is_a_config_error(self, tmp_path):
        path = self.config(tmp_path, params={"form": "cayley", "m0": 1.0, "n_max": 10**6, "m_max": 10**6})
        assert main(["run", "--config", str(path)]) == 2
        assert not (tmp_path / "out.csv").exists()

    def test_domain_error_exits_3(self, tmp_path):
        # spacelike step: dj too large for dn
        code = main([
            "quantization-check", "--m0", "1.0", "--dn", "1", "--dj", "3", "0", "0",
            "--output", str(tmp_path / "q.json"),
        ])
        assert code == 3

    def test_config_hash_ignores_output_path(self, tmp_path):
        a = build_config("dispersion-scan", {"form": "cayley", "m0": 1.0},
                         output_path="a.csv")
        b = build_config("dispersion-scan", {"form": "cayley", "m0": 1.0},
                         output_path="b.csv")
        assert a.config_hash() == b.config_hash()

    def test_binary_format_only_where_supported(self, tmp_path):
        with pytest.raises(Exception):
            build_config("dispersion-scan", {"form": "cayley", "m0": 1.0}, fmt="binary")

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LATTICEWAVE_OUTPUT_DIR", str(tmp_path / "outputs"))
        assert main(["lorentz-enumerate", "--max-word-len", "0", "--output", "ball.json"]) == 0
        assert (tmp_path / "outputs" / "ball.json").exists()


class TestHelpDocumentsColumns:
    def test_dispersion_scan_columns_in_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dispersion-scan", "--help"])
        assert excinfo.value.code == 0
        assert "form,N,M,m0,residual" in capsys.readouterr().out

    def test_wave_sample_columns_in_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["wave-sample", "--help"])
        assert excinfo.value.code == 0
        assert "n,j,re,im" in capsys.readouterr().out


class TestVerifyAll:
    def test_default_run_passes(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = main(["verify-all", "--seed", "0", "--quiet", "--output", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "10/10 criteria passed" in stdout
        assert out.read_text().count("[PASS]") == 10

    def test_verbose_report_reruns_are_byte_identical(self, tmp_path):
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        assert main(["verify-all", "--seed", "3", "--output", str(first)]) == 0
        assert main(["verify-all", "--seed", "3", "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_as_printed_s4_reports_documented_failure(self, capsys):
        code = main(["verify-all", "--seed", "0", "--as-printed", "s4"])
        assert code == 1
        stdout = capsys.readouterr().out
        assert "[FAIL] criterion 8" in stdout
        assert "Gram defect = 2" in stdout

    @pytest.mark.parametrize("seed", ["-1", "-2"])
    def test_a_negative_seed_is_a_config_error(self, tmp_path, capsys, seed):
        out = tmp_path / "report.txt"
        assert main(["verify-all", "--seed", seed, "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: seed must be an integer >= 0, got {seed}\n"
        assert captured.out == "" and not out.exists()

    def test_as_printed_tan_dispersion_reports_documented_failure(self, capsys):
        code = main(["verify-all", "--seed", "0", "--as-printed", "tan-dispersion"])
        assert code == 1
        assert "[FAIL] criterion 6" in capsys.readouterr().out

    def test_the_shared_parser_carries_nothing_between_calls(self, tmp_path, capsys):
        # main parses with one parser per process; an --as-printed value or the --quiet flag
        # must not leak into the next call, nor an appended variant into the append default
        assert build_parser() is build_parser()
        assert main(["verify-all", "--quiet", "--as-printed", "s4"]) == 1
        assert main(["verify-all", "--output", str(tmp_path / "report.txt")]) == 0
        assert build_parser().parse_args(["verify-all"]).as_printed == []
        quiet, verbose = capsys.readouterr().out.split("9/10 criteria passed\n")
        assert "[FAIL] criterion 8" in quiet and "\n    " not in quiet
        assert verbose.endswith("10/10 criteria passed\n") and verbose.count("[PASS]") == 10
        assert "\n    " in verbose and "[FAIL]" not in verbose
        assert "# as-printed: none" in (tmp_path / "report.txt").read_text()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([1, 2.5, "3", "inf", [0, 1, 0], [1.5, 0.0, 2.0]]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
VALID_BY_KIND = {"int": 3, "float": 0.5, "str": "1", "mode_m": "inf", "bool": True,
                 "vec3f": [0.1, 0.0, 0.0], "vec3i": [1, 0, 0]}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_json_in_config_slots_gives_a_config_or_a_config_error(tmp_path, data):
    name = data.draw(st.sampled_from(sorted(EXPERIMENTS)))
    spec = EXPERIMENTS[name]
    params = {p.name: p.choices[0] if p.choices else VALID_BY_KIND[p.kind] for p in spec.schema}
    cfg = {"experiment": name, "grid": dict.fromkeys(GRID_KEYS, 1.0), "params": params,
           "output_path": "out.txt", "format": spec.formats[0], "seed": 0}
    slots = [(cfg, key) for key in cfg] + [(cfg["grid"], key) for key in GRID_KEYS] + [(params, key) for key in params]
    for index in data.draw(st.sets(st.sampled_from(range(len(slots))), max_size=3)):
        table, key = slots[index]
        table[key] = data.draw(JSON_VALUES)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    try:
        run_config = load_config(path)
    except ConfigError:
        return
    assert isinstance(run_config, RunConfig)
    assert len(run_config.config_hash()) == 64


# --- the JSON renderer against the stdlib encoder -----------------------------------


def oracle_json_safe(value):
    """The normalization the CLI applied before handing a payload to json.dumps."""
    if value is INFINITE:
        return "inf"
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {k: oracle_json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [oracle_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [oracle_json_safe(v) for v in value.tolist()]
    return value


def oracle_render(value) -> str:
    return json.dumps(oracle_json_safe(value), sort_keys=True, indent=2)


RENDER_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16])
    | st.text(max_size=6) | st.sampled_from(["\u00e9\u2603\U0001f600", "\"\\\n\t\x00\x7f", ""])
    | st.just(INFINITE)
    | st.floats(width=64).map(np.float64) | st.floats(width=32).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64) | st.integers(-128, 127).map(np.int8)
    | st.integers(0, 2**64 - 1).map(np.uint64)
)
RENDER_VALUES = st.recursive(
    RENDER_LEAVES,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)
                   | st.lists(st.integers() | st.booleans(), max_size=6)
                   | st.lists(st.floats(), max_size=6).map(np.array)
                   | st.lists(st.lists(st.integers(-99, 99), min_size=2, max_size=2), max_size=3).map(
                       lambda rows: np.array(rows, dtype=np.int64).reshape(-1, 2))),
    max_leaves=20,
)


@settings(max_examples=600, deadline=None)
@given(RENDER_VALUES)
@example({"count": 2, "matrices": [[1, 0, 0, 0] * 4, [2, 1, 1, 1] * 4], "empty": [], "nothing": {}})
@example({"flags": [1, True, 0, False], "mixed": (1, 2.5, "inf", None)})
@example({"rows": [(0, 1, 0.5, -0.0), (1, 0, math.nan, math.inf)], "z\u00e9": {"b": 1, "a": [INFINITE]}})
@example([-math.inf])  # -Infinity, which a random draw alone may miss
def test_the_json_renderer_writes_the_stdlib_text(value):
    assert _json_text(value) == oracle_render(value)


@pytest.mark.parametrize("value", [np.bool_(True), object(), {1, 2}, b"bytes", 1j, {1: "int key"}],
                         ids=["numpy-bool", "object", "set", "bytes", "complex", "int-key"])
def test_the_json_renderer_rejects_values_without_a_json_form(value):
    with pytest.raises(TypeError):
        _json_text({"result": [value]})



@pytest.mark.parametrize("argv, code", [
    (["verify-all", "--quiet", "--output", "{tmp}/report.txt"], 0),
    (["verify-all", "--as-printed", "s4", "--output", "{tmp}/report.txt"], 1),
    (["lorentz-enumerate", "--max-word-len", "3"], 0),
], ids=["verify-all", "verify-all-failing", "json-to-stdout"])
def test_a_reader_that_closed_stdout_ends_the_run_quietly(tmp_path, argv, code):
    read_end, write_end = os.pipe()
    os.close(read_end)  # gone before the first byte is written, as `| head` is after its lines
    try:
        proc = subprocess.run([sys.executable, "-m", "latticewave.cli", *(a.format(tmp=tmp_path) for a in argv)],
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, b"")
    if "--output" in argv:  # the report file is written all the same
        assert "criteria passed" in (tmp_path / "report.txt").read_text()


INTEGER_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


@settings(max_examples=400, deadline=None)
@given(hnp.arrays(st.sampled_from(INTEGER_DTYPES), hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4)))
@example(np.zeros((0, 3), dtype=np.int64))
@example(np.zeros((3, 0), dtype=np.uint8))
@example(np.array(-(2**63), dtype=np.int64))
@example(np.array([[2**64 - 1, 0]], dtype=np.uint64))
def test_an_integer_array_renders_as_the_stdlib_text_of_its_list(a):
    for value in (a, a.T, {"result": {"matrices": a}}):
        plain = {"result": {"matrices": a.tolist()}} if isinstance(value, dict) else value.tolist()
        assert _json_text(value) == json.dumps(plain, sort_keys=True, indent=2)


@pytest.mark.parametrize("a", [np.array([[True, False], [False, True]]), np.array(True), np.array([0.5, -0.0, math.nan])],
                         ids=["bool", "bool-0d", "float"])
def test_bool_and_float_arrays_render_through_their_lists(a):
    assert _json_text({"a": a}) == json.dumps({"a": a.tolist()}, sort_keys=True, indent=2)
    if a.dtype == bool:
        assert "true" in _json_text(a) and "1" not in _json_text(a)
