"""latticewave: verification toolkit for wave mechanics on a space-time lattice.

Difference calculus, lattice plane waves and their dispersion relations,
the lattice Klein-Gordon operator with implicit evolution, relativistic
kinematics of waves and particles, and the integral Lorentz group with
its generator factorization. Every identity the toolkit implements is
certified numerically by the test suite and the ``verify-all`` command.
"""

from .errors import (
    ConfigError,
    DomainError,
    InternalInvariantError,
    LatticeWaveError,
    MeasurementError,
    SingularSystemError,
    SizeLimitError,
)
from .grid import (
    Axis,
    Boundary,
    FieldSlab,
    GridSpec,
    INFINITE,
    Infinite,
    MAX_CELLS,
    load_slab_binary,
    load_slab_csv,
    save_slab_binary,
    save_slab_csv,
)
from .diffcalc import DiffOp, apply_1d
from .kinematics import (
    LatticeStep,
    ParticleState,
    boost_matrix,
    debroglie_map,
    discrete_energy_momentum,
    energy_momentum_squared_exact,
    four_difference_invariant,
    phase_velocity,
    step_velocity,
    total_difference_mass_shell,
    transform_particle,
    transform_particle_scalar,
    transform_wave,
    transform_wave_scalar,
)
from .waves import (
    BeatSpec,
    WaveForm,
    WaveSpec,
    beat_field,
    beat_group_velocity,
    beat_phase_velocity,
    beat_product_form,
    beat_velocities,
    continuum_limit_error,
    eval_cayley,
    eval_exponential,
    eval_wave,
    measure_beat_velocity,
    sample_wave,
)
from .dispersion import (
    DispersionForm,
    DispersionSolution,
    QuantizationResult,
    dispersion_residual,
    mass_from_rest_period,
    quantization_check,
    solve_modes,
)
from .lorentz_int import (
    GeneratorWord,
    IDENTITY,
    IntLorentzMatrix,
    ball_stack,
    enumerate_ball,
    eval_word,
    factorize,
    generator,
    matrix_from_json,
    matrix_to_json,
    metric_gram_defect,
    parity_products,
    preserves_metric,
    printed_s4,
    word_to_json,
)
from .kg_lattice import (
    KGParams,
    apply_kg_operator,
    calibrate_time_coefficient,
    evolve,
    plane_wave_residual,
)

__version__ = "0.1.0"
