"""Per-layer tracing of latticewave, installed from outside the package.

``Tracer`` replaces every public function of each latticewave module (and
the public methods of the classes a module defines) with a timing wrapper,
rebinding every name in the package that points at the original, so calls
between modules go through the wrappers too. Leaving the ``with`` block
puts every original back; ``assert_untraced`` proves that for the timed
runs.

A layer is a module. Each wrapped call is a span; a layer's self time is
the duration of its spans minus the part covered by their child spans.
The named metric groups below count the calls and time that enter a set
of functions from outside that set, so a function calling a sibling in
the same set is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from enum import Enum

LAYERS = ("acceptance", "cli", "diffcalc", "dispersion", "grid", "kg_lattice", "kinematics", "lorentz_int", "waves")

_MARK = "__bench_traced__"

SAMPLERS = ("sample_wave", "eval_wave", "eval_exponential", "eval_cayley")
EVALUATORS = ("eval_wave", "eval_exponential", "eval_cayley")
BEAT_FUNCTIONS = ("beat_field", "beat_envelope", "beat_carrier", "beat_product_form",
                  "beat_velocities", "beat_phase_velocity", "beat_group_velocity")
SLAB_WRITERS = ("save_slab_csv", "save_slab_binary", "slab_to_bytes")
SLAB_READERS = ("load_slab_csv", "load_slab_binary")

# metric -> (layer, functions, what each call entering that set from outside it adds):
# "time" its seconds, "count" one, or amount(function name, args, result)
GROUPS = {
    "waves.sample_s": ("waves", SAMPLERS, "time"),
    "waves.beat_s": ("waves", BEAT_FUNCTIONS, "time"),
    "waves.envelope_s": ("waves", ("measure_group_velocity",), "time"),
    "waves.eval_calls": ("waves", EVALUATORS, "count"),
    "kg_lattice.evolve_s": ("kg_lattice", ("evolve",), "time"),
    "kg_lattice.operator_s": ("kg_lattice", ("apply_kg_operator",), "time"),
    "kg_lattice.tridiag_calls": ("kg_lattice", ("solve_cyclic_tridiagonal",), "count"),
    "dispersion.scan_s": ("dispersion", ("solve_modes",), "time"),
    "dispersion.residual_calls": ("dispersion", ("dispersion_residual",), "count"),
    "lorentz_int.enumerate_s": ("lorentz_int", ("enumerate_ball",), "time"),
    "lorentz_int.factorize_s": ("lorentz_int", ("factorize",), "time"),
    "lorentz_int.eval_word_s": ("lorentz_int", ("eval_word",), "time"),
    "lorentz_int.elements": ("lorentz_int", ("enumerate_ball",), lambda name, args, result: len(result)),
    "grid.write_s": ("grid", SLAB_WRITERS, "time"),
    "grid.read_s": ("grid", SLAB_READERS, "time"),
    "grid.bytes_written": ("grid", SLAB_WRITERS, lambda name, args, result:
                           len(result) if name == "slab_to_bytes" else os.path.getsize(args[1])),
    "grid.bytes_read": ("grid", SLAB_READERS, lambda name, args, result: os.path.getsize(args[0])),
}

SELF_LAYERS = ("cli", "kinematics", "diffcalc")
CALL_LAYERS = ("kinematics", "diffcalc")
CRITERIA = tuple(range(1, 11))

METRIC_NAMES = (
    tuple(f"acceptance.c{cid}_s" for cid in CRITERIA)
    + tuple(f"{layer}.self_s" for layer in SELF_LAYERS)
    + tuple(f"{layer}.calls" for layer in CALL_LAYERS)
    + tuple(GROUPS)
)


def _modules():
    return [importlib.import_module(f"latticewave.{layer}") for layer in LAYERS]


def _public_callables(module):
    """(owner, attribute, raw object, function) for each public function and method defined in module."""
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((module, name, obj, obj))
        elif inspect.isclass(obj) and not issubclass(obj, Enum):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if inspect.isfunction(fn):
                    found.append((obj, attr, raw, fn))
    return found


def assert_untraced() -> None:
    """Raise if any latticewave function is still wrapped by a tracer."""
    for module in [importlib.import_module("latticewave")] + _modules():
        for owner, attr, raw, fn in _public_callables(module):
            if hasattr(fn, _MARK):
                raise RuntimeError(f"{module.__name__}.{attr} is traced during an untimed-only run")
        for name, obj in vars(module).items():
            if hasattr(obj, _MARK):
                raise RuntimeError(f"{module.__name__}.{name} is bound to a tracing wrapper")


class Tracer:
    """Context manager that wraps the package's public functions and collects per-layer figures."""

    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = defaultdict(float)

    def snapshot(self) -> dict[str, float]:
        return {name: float(self.values.get(name, 0.0)) for name in METRIC_NAMES}

    # --- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = _modules()
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for owner, attr, raw, fn in _public_callables(module):
                wrapper = self._wrap(fn, layer, attr)
                if owner is module:
                    wrappers[fn] = wrapper
                elif isinstance(raw, (classmethod, staticmethod)):
                    self._rebind(owner, attr, raw, type(raw)(wrapper))
                else:
                    self._rebind(owner, attr, raw, wrapper)
        # every module, and the package, that imported a function gets the wrapper too
        for namespace in [importlib.import_module("latticewave")] + modules:
            for name, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(namespace, name, obj, wrappers[obj])
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, name, raw = self._restore.pop()
            setattr(owner, name, raw)

    def _rebind(self, owner, name, raw, replacement) -> None:
        self._restore.append((owner, name, raw))
        setattr(owner, name, replacement)

    def _wrap(self, fn, layer: str, name: str):
        groups = [(metric, add) for metric, (g_layer, names, add) in GROUPS.items()
                  if g_layer == layer and name in names]
        criterion = layer == "acceptance" and name == "run_criterion"
        layer_key = f"layer:{layer}"
        self_key = f"{layer}.self_s"
        calls_key = f"{layer}.calls"
        perf_counter = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = tracer.depth
            entered = [(metric, add) for metric, add in groups if depth[metric] == 0]
            for metric, _ in groups:
                depth[metric] += 1
            if depth[layer_key] == 0:
                tracer.values[calls_key] += 1
            depth[layer_key] += 1
            frame = [0.0]
            stack = tracer.stack
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                values = tracer.values
                values[self_key] += elapsed - frame[0]
                depth[layer_key] -= 1
                for metric, _ in groups:
                    depth[metric] -= 1
            for metric, add in entered:
                if add == "time":
                    values[metric] += elapsed
                elif add == "count":
                    values[metric] += 1
                else:
                    values[metric] += add(name, args, result)
            if criterion:
                cid = args[0] if args else kwargs["cid"]
                values[f"acceptance.c{cid}_s"] += elapsed
            return result

        setattr(wrapper, _MARK, True)
        return wrapper
