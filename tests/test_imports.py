"""What importing the package and running a command load, and the package's table of public names."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticewave
from latticewave import dispersion

SRC = str(Path(latticewave.__file__).resolve().parent.parent)

# the modules `import latticewave.cli` loads, whatever the command
CLI_MODULES = {"cli", "dispersion", "errors", "grid"}
ALL_MODULES = CLI_MODULES | {"acceptance", "diffcalc", "kg_lattice", "kinematics", "lorentz_int", "waves"}

# the public names, by the module that defines them, as `import latticewave` offered them eagerly
EXPORTS = {
    "errors": ["ConfigError", "DomainError", "InternalInvariantError", "LatticeWaveError",
               "MeasurementError", "SingularSystemError", "SizeLimitError"],
    "grid": ["FieldSlab", "GridSpec", "INFINITE", "Infinite", "MAX_CELLS",
             "load_slab_binary", "load_slab_csv", "save_slab_binary", "save_slab_csv"],
    "diffcalc": ["Axis", "Boundary", "DiffOp", "apply_1d"],
    "kinematics": ["LatticeStep", "ParticleState", "boost_matrix", "debroglie_map", "discrete_energy_momentum",
                   "energy_momentum_squared_exact", "four_difference_invariant", "phase_velocity",
                   "step_velocity", "total_difference_mass_shell", "transform_particle",
                   "transform_particle_scalar", "transform_wave", "transform_wave_scalar"],
    "waves": ["BeatSpec", "WaveForm", "WaveSpec", "beat_field", "beat_group_velocity", "beat_phase_velocity",
              "beat_product_form", "beat_velocities", "continuum_limit_error", "eval_cayley",
              "eval_exponential", "eval_wave", "measure_beat_velocity", "sample_wave"],
    "dispersion": ["DispersionForm", "DispersionSolution", "QuantizationResult", "dispersion_residual",
                   "mass_from_rest_period", "quantization_check", "solve_modes"],
    "lorentz_int": ["GeneratorWord", "IDENTITY", "IntLorentzMatrix", "ball_stack", "enumerate_ball",
                    "eval_word", "factorize", "generator", "matrix_from_json", "matrix_to_json",
                    "metric_gram_defect", "parity_products", "preserves_metric", "printed_s4", "word_to_json"],
    "kg_lattice": ["KGParams", "apply_kg_operator", "calibrate_time_coefficient", "evolve",
                   "plane_wave_residual"],
}


def loaded_after(code: str, cwd: Path | None = None) -> set[str]:
    """The latticewave modules a fresh interpreter holds after running ``code``."""
    report = "import sys, json; print(json.dumps(sorted(m for m in sys.modules if m.startswith('latticewave.'))))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {name.removeprefix("latticewave.") for name in json.loads(proc.stdout.splitlines()[-1])}


# --- what a process loads ---------------------------------------------------------------


def test_importing_the_package_loads_no_module():
    assert loaded_after("import latticewave") == set()


def test_importing_the_cli_loads_its_four_modules():
    assert loaded_after("import latticewave.cli") == CLI_MODULES


def test_the_eight_modules_resolve_after_a_bare_import():
    code = "import latticewave\n" + "".join(f"assert latticewave.{m}.__name__ == 'latticewave.{m}'\n" for m in EXPORTS)
    assert loaded_after(code) == set(EXPORTS)


COMMANDS = [
    (["kg-evolve", "--form", "exponential", "--wave-n", "4", "--wave-m", "8", "--m0", "1", "--verify"],
     {"waves", "kg_lattice"}),
    (["kg-residual", "--form", "cayley", "--wave-n", "7", "--wave-m", "11", "--m0", "0.5"], {"waves", "kg_lattice"}),
    (["wave-sample", "--form", "cayley", "--wave-n", "7", "--wave-m", "11"], {"waves"}),
    (["beat-measure", "--t1", "4", "--t2", "6", "--lam1", "3", "--lam2", "5", "--nt", "64", "--nx", "256"],
     {"waves"}),
    (["lorentz-enumerate", "--max-word-len", "2"], {"lorentz_int"}),
    (["lorentz-factorize", "--matrix", "1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"], {"lorentz_int"}),
    (["quantization-check", "--m0", "0.37", "--dn", "7", "--dj", "3", "-2", "1"], {"kinematics"}),
    (["kinematics-boost", "--m0", "1", "--p", "0.75", "0", "0", "--v", "0.5", "0", "0"], {"kinematics"}),
    (["dispersion-scan", "--form", "cayley", "--m0", "0.8975979010256552"], set()),
    (["verify-all", "--quiet"], ALL_MODULES - CLI_MODULES),
]


@pytest.mark.parametrize("argv, extra", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_each_command_loads_only_its_modules(tmp_path, argv, extra):
    code = f"from latticewave.cli import main\nassert main({argv + ['--output', 'out']!r}) == 0"
    assert loaded_after(code, cwd=tmp_path) == CLI_MODULES | extra
    assert (tmp_path / "out").stat().st_size > 0


def test_a_config_run_loads_only_its_experiments_modules(tmp_path):
    config = {"experiment": "wave-sample", "params": {"form": "cayley", "wave_n": 7, "wave_m": 11},
              "output_path": "out"}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code = "from latticewave.cli import main\nassert main(['run', '--config', 'cfg.json']) == 0"
    assert loaded_after(code, cwd=tmp_path) == CLI_MODULES | {"waves"}


# --- the table of public names -----------------------------------------------------------


def test_all_is_the_pinned_list_and_each_name_is_its_modules_object():
    pinned = [name for names in EXPORTS.values() for name in names]
    assert len(pinned) == 75
    assert latticewave.__all__ == pinned
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"latticewave.{module}")
        for name in names:
            assert getattr(latticewave, name) is getattr(owner, name), name
    assert set(latticewave.__all__) <= set(dir(latticewave))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'latticewave' has no attribute 'no_such_name'"):
        latticewave.no_such_name  # noqa: B018
    assert not hasattr(latticewave, "acceptance_criteria")
    with pytest.raises(ImportError):
        from latticewave import no_such_name  # noqa: F401


def test_a_patched_module_function_shows_through_and_leaves_nothing_behind(monkeypatch):
    original = dispersion.solve_modes

    def patched(*args):
        return original(*args)

    monkeypatch.setattr(dispersion, "solve_modes", patched)
    assert latticewave.solve_modes is patched
    monkeypatch.undo()
    assert latticewave.solve_modes is original
    assert "solve_modes" not in vars(latticewave)


def test_a_module_read_through_the_package_is_its_imported_module(monkeypatch):
    """The import system binds a submodule on the package once it is imported; before that, the read imports it."""
    monkeypatch.delattr(latticewave, "waves", raising=False)
    assert latticewave.waves is importlib.import_module("latticewave.waves")


def test_a_name_the_package_does_not_export_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(latticewave, "no_such_name")
    assert not hasattr(latticewave, "no_such_name")
