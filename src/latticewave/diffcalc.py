"""Calculus of finite differences on sampled sequences and 2-D slabs.

Four index-space operators, all dimensionless (division by tau or eps is
the caller's business):

    forward_diff   D f[i] = f[i+1] - f[i]
    backward_diff  B f[i] = f[i]   - f[i-1]
    forward_avg    A f[i] = (f[i+1] + f[i]) / 2
    backward_avg   V f[i] = (f[i]   + f[i-1]) / 2

In ``periodic`` mode indices wrap and length is preserved; in
``shrinking`` mode each application drops exactly one sample. The exact
discrete product rule D(f*g) = Df*Ag + Af*Dg holds elementwise for any
pair of equal-length sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .grid import Axis, Boundary, FieldSlab


class DiffOp(Enum):
    FORWARD_DIFF = "forward_diff"
    BACKWARD_DIFF = "backward_diff"
    FORWARD_AVG = "forward_avg"
    BACKWARD_AVG = "backward_avg"


@dataclass
class SampledSequence:
    """An ordered list of complex samples with an end-handling mode."""

    values: np.ndarray
    boundary: Boundary = Boundary.SHRINKING

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 1:
            raise DomainError("SampledSequence.values must be one-dimensional")

    def __len__(self) -> int:
        return len(self.values)

    def with_values(self, values: np.ndarray) -> "SampledSequence":
        return SampledSequence(values=values, boundary=self.boundary)


def _apply_axis(a: np.ndarray, op: DiffOp, boundary: Boundary, axis: int) -> np.ndarray:
    if a.shape[axis] < 2:
        raise DomainError(f"difference operators need extent >= 2 along axis {axis}, got {a.shape[axis]}")
    # every operator reads a (lower, upper) neighbour pair: (f[i], f[i+1])
    # for forward ops, (f[i-1], f[i]) for backward ops; dropping one sample
    # makes the two pairs the same index windows
    if boundary is Boundary.PERIODIC:
        if op in (DiffOp.FORWARD_DIFF, DiffOp.FORWARD_AVG):
            lower, upper = a, np.roll(a, -1, axis=axis)
        else:
            lower, upper = np.roll(a, 1, axis=axis), a
    else:
        lead = (slice(None),) * axis
        lower, upper = a[lead + (slice(None, -1),)], a[lead + (slice(1, None),)]
    if op in (DiffOp.FORWARD_DIFF, DiffOp.BACKWARD_DIFF):
        return upper - lower
    return (upper + lower) / 2.0


def _apply_seq(f: SampledSequence, op: DiffOp) -> SampledSequence:
    return f.with_values(_apply_axis(f.values, op, f.boundary, axis=0))


def forward_diff(f: SampledSequence) -> SampledSequence:
    return _apply_seq(f, DiffOp.FORWARD_DIFF)


def backward_diff(f: SampledSequence) -> SampledSequence:
    return _apply_seq(f, DiffOp.BACKWARD_DIFF)


def forward_avg(f: SampledSequence) -> SampledSequence:
    return _apply_seq(f, DiffOp.FORWARD_AVG)


def backward_avg(f: SampledSequence) -> SampledSequence:
    return _apply_seq(f, DiffOp.BACKWARD_AVG)


def apply_1d(field: FieldSlab, axis: Axis, op: DiffOp, boundary: Boundary) -> FieldSlab:
    """Lift one of the four operators to a 2-D slab along one axis.

    In shrinking mode the slab loses one slice along ``axis``.
    """
    ax = 0 if axis is Axis.TIME_N else 1
    return field.with_values(_apply_axis(field.psi, op, boundary, axis=ax))
