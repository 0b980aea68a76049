"""Command-line front end: configs, outputs, provenance, exit codes."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from latticewave import (
    INFINITE,
    BeatSpec,
    ConfigError,
    GridSpec,
    KGParams,
    WaveForm,
    WaveSpec,
    beat_field,
    eval_wave,
    evolve,
    load_slab_binary,
    load_slab_csv,
    mass_from_rest_period,
    preserves_metric,
    sample_wave,
)
from latticewave.cli import EXPERIMENTS, GRID_KEYS, RunConfig, build_config, load_config, main

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
], ids=["quantization-m0-tiny", "quantization-m0-huge", "quantization-tau-huge", "quantization-p-squared",
        "beat-t1-tiny", "beat-lam1-tiny", "boost-m0-huge", "boost-c-huge", "boost-p-huge", "boosted-energy-squared"])
def test_derived_values_out_of_the_float_range_are_domain_errors(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--output", str(out)]) == 3
    assert "the float range" in capsys.readouterr().err
    assert not out.exists()


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
        {"grid": {"c": True}},
    ], ids=["experiment-list", "grid-string", "tau-string", "tau-null", "params-list", "output-path-int",
            "fractional-vec3i", "m0-bool", "grid-c-bool"])
    def test_malformed_structure_is_a_config_error(self, tmp_path, overrides):
        assert main(["run", "--config", str(self.config(tmp_path, **overrides))]) == 2
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("raw", [b'{"experiment": "\xff"}', b"[" * 100000 + b"]" * 100000],
                             ids=["non-utf8", "nested-too-deep"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_bytes(raw)
        assert main(["run", "--config", str(path)]) == 2

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

    def test_as_printed_tan_dispersion_reports_documented_failure(self, capsys):
        code = main(["verify-all", "--seed", "0", "--as-printed", "tan-dispersion"])
        assert code == 1
        assert "[FAIL] criterion 6" in capsys.readouterr().out


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
