"""latticewave: verification toolkit for wave mechanics on a space-time lattice.

Difference calculus, lattice plane waves and their dispersion relations,
the lattice Klein-Gordon operator with implicit evolution, relativistic
kinematics of waves and particles, and the integral Lorentz group with
its generator factorization. Every identity the toolkit implements is
certified numerically by the test suite and the ``verify-all`` command.

Importing the package loads none of its modules: each public name is
looked up in the module that defines it when it is read (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys((
        "ConfigError", "DomainError", "InternalInvariantError", "LatticeWaveError",
        "MeasurementError", "SingularSystemError", "SizeLimitError",
    ), "errors"),
    **dict.fromkeys((
        "FieldSlab", "GridSpec", "INFINITE", "Infinite", "MAX_CELLS",
        "load_slab_binary", "load_slab_csv", "save_slab_binary", "save_slab_csv",
    ), "grid"),
    **dict.fromkeys(("Axis", "Boundary", "DiffOp", "apply_1d"), "diffcalc"),
    **dict.fromkeys((
        "LatticeStep", "ParticleState", "boost_matrix", "debroglie_map", "discrete_energy_momentum",
        "energy_momentum_squared_exact", "four_difference_invariant", "phase_velocity", "step_velocity",
        "total_difference_mass_shell", "transform_particle", "transform_particle_scalar",
        "transform_wave", "transform_wave_scalar",
    ), "kinematics"),
    **dict.fromkeys((
        "BeatSpec", "WaveForm", "WaveSpec", "beat_field", "beat_group_velocity", "beat_phase_velocity",
        "beat_product_form", "beat_velocities", "continuum_limit_error", "eval_cayley",
        "eval_exponential", "eval_wave", "measure_beat_velocity", "sample_wave",
    ), "waves"),
    **dict.fromkeys((
        "DispersionForm", "DispersionSolution", "QuantizationResult", "dispersion_residual",
        "mass_from_rest_period", "quantization_check", "solve_modes",
    ), "dispersion"),
    **dict.fromkeys((
        "GeneratorWord", "IDENTITY", "IntLorentzMatrix", "ball_stack", "enumerate_ball", "eval_word",
        "factorize", "generator", "matrix_from_json", "matrix_to_json", "metric_gram_defect",
        "parity_products", "preserves_metric", "printed_s4", "word_to_json",
    ), "lorentz_int"),
    **dict.fromkeys((
        "KGParams", "apply_kg_operator", "calibrate_time_coefficient", "evolve", "plane_wave_residual",
    ), "kg_lattice"),
}
_MODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # looked up on every read, never stored here: a rebound module attribute shows through
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
