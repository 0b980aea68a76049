"""Batch command line: run experiments from flags or JSON configs.

Every output file starts with a provenance block (tool version, a hash of
the fully-resolved config, the config itself, and the names of the checks
the experiment exercises), so identical configs produce byte-identical
files. Formats: CSV for tables, JSON for structured results, and the
compact binary slab layout behind an explicit flag.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration
(including extents or mode bounds whose cell count exceeds grid.MAX_CELLS,
and an output path that cannot be written), 3 domain error (the message
names the violated precondition, e.g. a derived value out of the float range).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .acceptance import AS_PRINTED_CHOICES, format_report, run_acceptance
from .dispersion import DispersionForm, quantization_check, solve_modes
from .errors import ConfigError, DomainError, MeasurementError, SingularSystemError, SizeLimitError
from .grid import SLAB_CSV_COLUMNS, FieldSlab, GridSpec, Infinite, INFINITE, slab_to_bytes, slab_to_csv
from .kg_lattice import KGParams, evolve, plane_wave_residual
from .kinematics import (
    LatticeStep,
    ParticleState,
    debroglie_map,
    phase_velocity,
    transform_particle,
    transform_wave,
)
from .lorentz_int import (
    enumerate_ball,
    eval_word,
    factorize,
    matrix_from_json,
    matrix_to_json,
    word_to_json,
)
from .waves import BeatSpec, WaveForm, WaveSpec, beat_field, beat_velocities, measure_group_velocity, sample_wave

OUTPUT_DIR_ENV = "LATTICEWAVE_OUTPUT_DIR"
_SLAB_CSV_HEADER = ",".join(SLAB_CSV_COLUMNS)


# --- parameter schema ---------------------------------------------------------


@dataclass(frozen=True)
class Param:
    name: str
    kind: str  # int | float | str | mode_m | vec3f | vec3i | bool
    doc: str
    required: bool = True
    default: Any = None
    choices: tuple | None = None


def _finite_float(value) -> float:
    """A finite number, or a string of one; never a bool."""
    if isinstance(value, bool):
        raise ValueError
    as_float = float(value)
    if not math.isfinite(as_float):
        raise ValueError
    return as_float


def _integer(value) -> int:
    """A number, or a string of one, with a finite integral value."""
    if not isinstance(value, (int, float, str)):
        raise ValueError
    as_float = _finite_float(value)
    if as_float != int(as_float):
        raise ValueError
    return int(as_float)


def _coerce(param: Param, value):
    try:
        if param.kind == "int":
            return _integer(value)
        if param.kind == "float":
            return _finite_float(value)
        if param.kind == "str":
            value = str(value)
            if param.choices and value not in param.choices:
                raise ValueError
            return value
        if param.kind == "bool":
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                if value.lower() in ("true", "1", "yes"):
                    return True
                if value.lower() in ("false", "0", "no"):
                    return False
            raise ValueError
        if param.kind == "mode_m":
            if isinstance(value, Infinite) or (isinstance(value, str) and value.lower() in ("inf", "infinite")):
                return INFINITE
            return _integer(value)
        if param.kind in ("vec3f", "vec3i"):
            if not isinstance(value, (list, tuple)) or len(value) != 3:
                raise ValueError
            return [_integer(x) if param.kind == "vec3i" else _finite_float(x) for x in value]
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"parameter {param.name!r}: cannot interpret {value!r} as {param.kind}") from None
    raise ConfigError(f"parameter {param.name!r} has unknown kind {param.kind}")


def _resolve_params(schema: list[Param], raw: dict) -> dict:
    unknown = set(raw) - {p.name for p in schema}
    if unknown:
        raise ConfigError(f"unknown parameter key(s): {sorted(unknown)}")
    resolved = {}
    for param in schema:
        if param.name in raw:
            resolved[param.name] = _coerce(param, raw[param.name])
        elif param.required:
            raise ConfigError(f"missing required parameter {param.name!r}")
        else:
            resolved[param.name] = param.default
    return resolved


# --- run configuration ----------------------------------------------------------


GRID_KEYS = ("tau", "eps", "c", "hbar")
FORMATS = ("csv", "json", "binary")
# the JSON type each config key must have
_CONFIG_KEYS = {"experiment": str, "grid": (dict, type(None)), "params": dict,
               "output_path": (str, type(None)), "format": str, "seed": int}


@dataclass
class RunConfig:
    experiment: str
    grid: GridSpec
    params: dict
    output_path: str | None
    format: str
    seed: int

    def canonical_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "grid": asdict(self.grid),
            "params": _json_safe(self.params),
            "format": self.format,
            "seed": self.seed,
        }

    def config_hash(self) -> str:
        canon = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def build_config(experiment: str, raw_params: dict, grid_fields: dict | None = None,
                 output_path: str | None = None, fmt: str = "csv", seed: int = 0) -> RunConfig:
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {sorted(EXPERIMENTS)}")
    spec = EXPERIMENTS[experiment]
    if fmt not in FORMATS:
        raise ConfigError(f"unknown format {fmt!r}; choose from {FORMATS}")
    if fmt not in spec.formats:
        raise ConfigError(f"experiment {experiment!r} supports formats {spec.formats}, not {fmt!r}")
    grid_fields = dict(grid_fields or {})
    unknown = set(grid_fields) - set(GRID_KEYS)
    if unknown:
        raise ConfigError(f"unknown grid key(s): {sorted(unknown)}")
    try:
        grid = GridSpec(**{k: _coerce(Param(k, "float", "grid constant"), v) for k, v in grid_fields.items()})
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    params = _resolve_params(spec.schema, raw_params)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    return RunConfig(experiment=experiment, grid=grid, params=params,
                     output_path=output_path, format=fmt, seed=seed)


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    if "experiment" not in raw:
        raise ConfigError("config needs an 'experiment' key")
    for key, value in raw.items():
        if not isinstance(value, _CONFIG_KEYS[key]):
            raise ConfigError(f"config key {key!r} has the wrong JSON type: {value!r}")
    return build_config(
        experiment=raw["experiment"],
        raw_params=raw.get("params", {}),
        grid_fields=raw.get("grid", {}),
        output_path=raw.get("output_path"),
        fmt=raw.get("format", "csv"),
        seed=raw.get("seed", 0),
    )


# --- output rendering -----------------------------------------------------------


@dataclass
class TableOutput:
    columns: tuple[str, ...]
    rows: list[tuple]
    column_doc: str


@dataclass
class JsonOutput:
    payload: dict


@dataclass
class SlabOutput:
    slab: FieldSlab
    extra_meta: dict


def _fmt_cell(value) -> str:
    if isinstance(value, Infinite):
        return "inf"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_safe(value):
    if isinstance(value, Infinite):
        return "inf"
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    return value


def _provenance_lines(cfg: RunConfig, checks: tuple[str, ...], extra: dict | None = None) -> list[str]:
    lines = [
        f"latticewave {__version__}",
        f"config-hash: {cfg.config_hash()}",
        f"config: {json.dumps(cfg.canonical_dict(), sort_keys=True, separators=(',', ':'))}",
        f"checks: {', '.join(checks)}",
    ]
    lines.extend(f"{key}: {_fmt_cell(value)}" for key, value in (extra or {}).items())
    return lines


def _render(cfg: RunConfig, result, checks: tuple[str, ...]) -> bytes:
    if cfg.format == "binary":
        # the binary layout carries its own 16-byte header; provenance
        # lives in the config that produced it
        return slab_to_bytes(result.slab)
    if cfg.format == "json":
        payload = {
            "meta": {
                "tool": "latticewave",
                "version": __version__,
                "config_hash": cfg.config_hash(),
                "config": cfg.canonical_dict(),
                "checks": list(checks),
            },
        }
        if isinstance(result, TableOutput):
            payload["columns"] = list(result.columns)
            payload["rows"] = [[_json_safe(v) for v in row] for row in result.rows]
        else:
            payload["result"] = _json_safe(result.payload)
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    if isinstance(result, SlabOutput):
        return slab_to_csv(result.slab, _provenance_lines(cfg, checks, result.extra_meta))
    lines = [f"# {line}" for line in _provenance_lines(cfg, checks, {"columns": result.column_doc})]
    lines.append(",".join(result.columns))
    lines.extend(",".join(_fmt_cell(v) for v in row) for row in result.rows)
    return ("\n".join(lines) + "\n").encode()


# --- experiments ------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    name: str
    help: str
    schema: list[Param]
    runner: Callable[[RunConfig], Any]
    checks: tuple[str, ...]
    formats: tuple[str, ...] = ("csv", "json")


def _wave_spec_from(params: dict) -> WaveSpec:
    form = WaveForm(params["form"])
    return WaveSpec(form=form, N=params["wave_n"], M=params["wave_m"])


def _run_dispersion_scan(cfg: RunConfig):
    p = cfg.params
    form = DispersionForm(p["form"])
    solutions = solve_modes(p["m0"], form, p["n_max"], p["m_max"], p["tol"], cfg.grid)
    rows = [(s.form.value, s.N, s.M, s.m0, s.residual) for s in solutions]
    return TableOutput(
        columns=("form", "N", "M", "m0", "residual"),
        rows=rows,
        column_doc="form = dispersion relation; N = time period (steps); M = wavelength (sites, "
        "'inf' for zero wavenumber); m0 = rest mass scanned; residual = signed relation residual",
    )


def _run_lorentz_enumerate(cfg: RunConfig):
    ball = enumerate_ball(cfg.params["max_word_len"])
    return JsonOutput(payload={"ball_word_length": cfg.params["max_word_len"],
                               "count": len(ball),
                               "matrices": [matrix_to_json(m) for m in ball]})


def _run_lorentz_factorize(cfg: RunConfig):
    raw = cfg.params["matrix"]
    try:
        values = [int(x) for x in str(raw).replace(" ", "").split(",") if x != ""]
    except ValueError:
        raise ConfigError(f"matrix must be 16 comma-separated integers, got {raw!r}") from None
    if len(values) != 16:
        raise ConfigError(f"matrix must have 16 entries, got {len(values)}")
    matrix = matrix_from_json(values)
    word = factorize(matrix)
    round_trip = eval_word(word).entries == matrix.entries
    return JsonOutput(payload={"matrix": matrix_to_json(matrix),
                               "word": word_to_json(word),
                               "word_length": len(word),
                               "round_trip_exact": round_trip})


def _run_wave_sample(cfg: RunConfig):
    p = cfg.params
    slab = sample_wave(_wave_spec_from(p), p["nt"], p["nx"])
    column_doc = "n = time index; j = space index; re, im = field value at (n, j)"
    if cfg.format == "csv":
        return SlabOutput(slab=slab, extra_meta={"columns": column_doc})
    rows = [(n, j, z.real, z.imag) for n, row in enumerate(slab.psi.tolist()) for j, z in enumerate(row)]
    return TableOutput(columns=SLAB_CSV_COLUMNS, rows=rows, column_doc=column_doc)


def _run_beat_measure(cfg: RunConfig):
    p = cfg.params
    beat = BeatSpec(T1=p["t1"], T2=p["t2"], lam1=p["lam1"], lam2=p["lam2"])
    v_phase, v_group = beat_velocities(beat)
    slab = beat_field(beat, cfg.grid, p["nt"], p["nx"])
    measured = measure_group_velocity(slab, beat=beat)
    results = {
        "v_phase": v_phase,
        "v_group": v_group,
        "measured_v_group": measured,
        "relative_error": abs(measured - v_group) / abs(v_group) if v_group != 0 else abs(measured),
    }
    if cfg.format == "csv":
        # export the beat field itself, measurements in the header
        return SlabOutput(slab=slab, extra_meta=results)
    return JsonOutput(payload=results)


def _run_kg_residual(cfg: RunConfig):
    p = cfg.params
    spec = _wave_spec_from(p)
    residual = plane_wave_residual(spec, KGParams(m0=p["m0"], grid=cfg.grid), (p["nt"], p["nx"]))
    return JsonOutput(payload={"form": p["form"], "N": p["wave_n"], "M": p["wave_m"],
                               "m0": p["m0"], "extent": [p["nt"], p["nx"]],
                               "max_interior_residual": residual})


def _run_kg_evolve(cfg: RunConfig):
    p = cfg.params
    spec = _wave_spec_from(p)
    nx, steps = p["nx"], p["steps"]
    initial = sample_wave(spec, 2, nx).psi
    slab = evolve(initial, steps, KGParams(m0=p["m0"], grid=cfg.grid))
    extra = {}
    if p["verify"]:
        exact = sample_wave(spec, steps + 2, nx).psi
        extra["max-deviation-from-closed-form"] = float(np.max(np.abs(slab.psi - exact)))
    return SlabOutput(slab=slab, extra_meta=extra)


def _run_kinematics_boost(cfg: RunConfig):
    p = cfg.params
    c, hbar = cfg.grid.c, cfg.grid.hbar
    state = ParticleState.from_momentum(p["p"], p["m0"], c)
    boosted = transform_particle(state, p["v"], c)
    w, k = debroglie_map(state, hbar)
    wp, kp = transform_wave(w, list(k), p["v"], c)
    equivalence = max(abs(wp - boosted.E / hbar), float(np.max(np.abs(kp - boosted.p / hbar))))
    return JsonOutput(payload={
        "input": {"E": state.E, "p": list(state.p), "u": list(state.u), "m0": state.m0},
        "boosted": {"E": boosted.E, "p": list(boosted.p), "u": list(boosted.u)},
        "wave": {"w": w, "k": list(k), "w_boosted": wp, "k_boosted": list(kp),
                 "phase_velocity": phase_velocity(w, k)},
        "checks": {"mass_shell_residual": boosted.mass_shell_residual(c),
                   "wave_particle_equivalence_residual": equivalence},
    })


def _run_quantization_check(cfg: RunConfig):
    p = cfg.params
    step = LatticeStep(dn=p["dn"], dj=tuple(p["dj"]))
    result = quantization_check(step, p["m0"], cfg.grid, p["tol"])
    return JsonOutput(payload={"N_real": result.N_real, "M_real": result.M_real,
                               "N": result.N, "M": result.M})


EXPERIMENTS: dict[str, Experiment] = {}


def _register(exp: Experiment) -> None:
    EXPERIMENTS[exp.name] = exp


_register(Experiment(
    name="dispersion-scan",
    help="Scan integer modes (N, M) whose dispersion residual vanishes for a rest mass. "
    "CSV columns: form,N,M,m0,residual (M = 'inf' for zero wavenumber).",
    schema=[
        Param("form", "str", "dispersion relation", choices=("exponential", "cayley", "continuum")),
        Param("m0", "float", "rest mass to scan"),
        Param("n_max", "int", "largest time period scanned", required=False, default=64),
        Param("m_max", "int", "largest wavelength scanned", required=False, default=64),
        Param("tol", "float", "residual tolerance", required=False, default=1e-9),
    ],
    runner=_run_dispersion_scan,
    checks=("integer-mode-dispersion-scan",),
))

_register(Experiment(
    name="lorentz-enumerate",
    help="Enumerate the generator ball of the integral Lorentz group; JSON matrices "
    "are row-major arrays of 16 integers.",
    schema=[Param("max_word_len", "int", "maximum generator word length")],
    runner=_run_lorentz_enumerate,
    checks=("minkowski-metric-preservation", "generator-ball-enumeration"),
    formats=("json",),
))

_register(Experiment(
    name="lorentz-factorize",
    help="Factor an integral Lorentz matrix (16 row-major integers) into a generator "
    "word in normal form, verifying the exact round trip.",
    schema=[Param("matrix", "str", "comma-separated 16 integers, row-major")],
    runner=_run_lorentz_factorize,
    checks=("generator-word-factorization-round-trip",),
    formats=("json",),
))

_register(Experiment(
    name="wave-sample",
    help=f"Sample a lattice plane wave over an Nt x Nx slab. CSV columns: {_SLAB_CSV_HEADER}.",
    schema=[
        Param("form", "str", "wave form", choices=("exponential", "cayley")),
        Param("wave_n", "int", "time period N (steps)"),
        Param("wave_m", "mode_m", "wavelength M (sites) or 'inf'"),
        Param("nt", "int", "time extent", required=False, default=16),
        Param("nx", "int", "space extent", required=False, default=16),
    ],
    runner=_run_wave_sample,
    checks=("lattice-plane-wave-sampling",),
))

_register(Experiment(
    name="beat-measure",
    help="Build a two-mode beat, report analytic phase/group velocities and the "
    "envelope-tracked group velocity; csv format exports the field itself "
    f"(columns {_SLAB_CSV_HEADER}) with the measurements in the header.",
    schema=[
        Param("t1", "float", "first mode period"),
        Param("t2", "float", "second mode period"),
        Param("lam1", "float", "first mode wavelength"),
        Param("lam2", "float", "second mode wavelength"),
        Param("nt", "int", "time extent", required=False, default=256),
        Param("nx", "int", "space extent", required=False, default=1024),
    ],
    runner=_run_beat_measure,
    checks=("beat-velocity-formulas", "envelope-group-velocity-tracking"),
    formats=("json", "csv"),
))

_register(Experiment(
    name="kg-residual",
    help="Max interior residual of the lattice wave operator on a sampled plane wave.",
    schema=[
        Param("form", "str", "wave form", choices=("exponential", "cayley")),
        Param("wave_n", "int", "time period N"),
        Param("wave_m", "mode_m", "wavelength M or 'inf'"),
        Param("m0", "float", "rest mass in the operator"),
        Param("nt", "int", "time extent", required=False, default=32),
        Param("nx", "int", "space extent", required=False, default=32),
    ],
    runner=_run_kg_residual,
    checks=("lattice-wave-operator-residual",),
    formats=("json",),
))

_register(Experiment(
    name="kg-evolve",
    help="March the lattice wave equation from the first two closed-form slices of a "
    f"mode. Slab CSV columns: {_SLAB_CSV_HEADER}; --verify adds the max deviation from the "
    "closed form to the header (global comparison: exact only for spatially "
    "periodic modes, e.g. M dividing Nx or M = inf).",
    schema=[
        Param("form", "str", "wave form", choices=("exponential", "cayley")),
        Param("wave_n", "int", "time period N"),
        Param("wave_m", "mode_m", "wavelength M or 'inf'"),
        Param("m0", "float", "rest mass in the operator"),
        Param("steps", "int", "number of time steps", required=False, default=16),
        Param("nx", "int", "space extent", required=False, default=16),
        Param("verify", "bool", "compare against the closed form", required=False, default=False),
    ],
    runner=_run_kg_evolve,
    checks=("implicit-lattice-wave-evolution",),
    formats=("csv", "binary"),
))

_register(Experiment(
    name="kinematics-boost",
    help="Boost a particle state and its associated wave; report both plus the "
    "transform-equivalence and mass-shell residuals.",
    schema=[
        Param("m0", "float", "rest mass"),
        Param("p", "vec3f", "momentum 3-vector"),
        Param("v", "vec3f", "boost velocity 3-vector"),
    ],
    runner=_run_kinematics_boost,
    checks=("boost-metric-preservation", "wave-particle-transform-equivalence"),
    formats=("json",),
))

_register(Experiment(
    name="quantization-check",
    help="Mode numbers N_real = h/(tau E), M_real = h/(eps p) for a lattice step, "
    "with nearest integers when within tolerance.",
    schema=[
        Param("m0", "float", "rest mass"),
        Param("dn", "int", "time steps per event"),
        Param("dj", "vec3i", "space steps per event"),
        Param("tol", "float", "integer-closeness tolerance", required=False, default=1e-9),
    ],
    runner=_run_quantization_check,
    checks=("mode-number-quantization",),
    formats=("json",),
))


# --- execution --------------------------------------------------------------------


def _write_output(path: str, data: bytes) -> Path:
    """Write data to path (relative paths honor $LATTICEWAVE_OUTPUT_DIR), creating its directory.

    A path that cannot be written is a ConfigError.
    """
    target = Path(path)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not target.is_absolute():
        target = Path(base) / target
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
    except OSError as exc:
        raise ConfigError(f"cannot write output {target}: {exc}") from None
    return target


def run(cfg: RunConfig) -> int:
    """Execute one experiment and write its output; returns the exit code."""
    spec = EXPERIMENTS[cfg.experiment]
    result = spec.runner(cfg)
    rendered = _render(cfg, result, spec.checks)
    if cfg.output_path is None:
        sys.stdout.buffer.write(rendered)
    else:
        target = _write_output(cfg.output_path, rendered)
        print(f"wrote {target} ({len(rendered)} bytes, config {cfg.config_hash()[:12]})")
    if isinstance(result, SlabOutput) and "max-deviation-from-closed-form" in result.extra_meta:
        print(f"max deviation from closed form: {result.extra_meta['max-deviation-from-closed-form']:.6e}")
    return 0


# --- argument parsing ----------------------------------------------------------


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("grid constants (defaults: the natural-unit lattice)")
    for key, doc in (("tau", "fundamental time step"), ("eps", "fundamental length"),
                     ("c", "speed of light"), ("hbar", "reduced quantum of action")):
        group.add_argument(f"--{key}", type=float, default=1.0, help=f"{doc} (default 1.0)")


def _flag_name(param: Param) -> str:
    return "--" + param.name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticewave",
        description="Numerical certification toolkit for wave mechanics on a space-time lattice.",
    )
    parser.add_argument("--version", action="version", version=f"latticewave {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, spec in sorted(EXPERIMENTS.items()):
        p = sub.add_parser(name, help=spec.help, description=spec.help,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for param in spec.schema:
            flag = _flag_name(param)
            if param.kind in ("vec3f", "vec3i"):
                p.add_argument(flag, nargs=3, type=float if param.kind == "vec3f" else int,
                               required=param.required, default=param.default, help=param.doc)
            elif param.kind == "bool":
                p.add_argument(flag, action="store_true", help=param.doc)
            else:
                p.add_argument(flag, type=str, required=param.required,
                               default=param.default, help=param.doc,
                               choices=param.choices)
        p.add_argument("--output", help="output file (default: stdout); relative paths honor "
                       f"${OUTPUT_DIR_ENV}")
        p.add_argument("--format", default=spec.formats[0], choices=spec.formats,
                       help="output format")
        p.add_argument("--seed", type=int, default=0, help="recorded in provenance")
        _add_grid_arguments(p)

    run_p = sub.add_parser("run", help="execute an experiment described by a JSON config file")
    run_p.add_argument("--config", required=True, help="path to the RunConfig JSON")

    verify = sub.add_parser(
        "verify-all",
        help="run the full acceptance suite; nonzero exit iff any criterion fails",
    )
    verify.add_argument("--seed", type=int, default=0, help="seed for the randomized property runs")
    verify.add_argument("--as-printed", action="append", default=[], choices=list(AS_PRINTED_CHOICES),
                        help="substitute a published-table variant expected to fail (repeatable)")
    verify.add_argument("--output", help="also write the report to this file")
    verify.add_argument("--quiet", action="store_true", help="print only the summary lines")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    spec = EXPERIMENTS[args.command]
    raw_params = {}
    for param in spec.schema:
        value = getattr(args, param.name)
        if value is None:
            continue
        raw_params[param.name] = value
    grid_fields = {k: getattr(args, k) for k in GRID_KEYS}
    return build_config(args.command, raw_params, grid_fields,
                        output_path=args.output, fmt=args.format, seed=args.seed)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config)
            return run(cfg)
        if args.command == "verify-all":
            results = run_acceptance(seed=args.seed, as_printed=args.as_printed)
            report = format_report(results, verbose=not args.quiet)
            print(report)
            if args.output:
                header = [
                    f"latticewave {__version__}",
                    f"seed: {args.seed}",
                    f"as-printed: {sorted(args.as_printed) or 'none'}",
                ]
                _write_output(args.output, ("\n".join(f"# {h}" for h in header) + "\n" + report + "\n").encode())
            return 0 if all(r.passed for r in results) else 1
        cfg = _config_from_args(args)
        return run(cfg)
    except (ConfigError, SizeLimitError) as exc:
        # every extent and mode bound the CLI passes on is a flag or config value
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, MeasurementError, SingularSystemError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
