"""Calculus of finite differences along one axis of a 2-D slab.

Four index-space operators, all dimensionless (division by tau or eps is
the caller's business):

    FORWARD_DIFF   D f[i] = f[i+1] - f[i]
    BACKWARD_DIFF  B f[i] = f[i]   - f[i-1]
    FORWARD_AVG    A f[i] = (f[i+1] + f[i]) / 2
    BACKWARD_AVG   V f[i] = (f[i]   + f[i-1]) / 2

In ``periodic`` mode indices wrap and length is preserved; in
``shrinking`` mode each application drops exactly one sample. The exact
discrete product rule D(f*g) = Df*Ag + Af*Dg holds elementwise for any
pair of equal-length sequences.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DomainError
from .grid import FieldSlab


class Axis(Enum):
    """The two slab directions: time index n, space index j."""

    TIME_N = "time_n"
    SPACE_J = "space_j"


class Boundary(Enum):
    """How difference operators treat sequence ends."""

    PERIODIC = "periodic"
    SHRINKING = "shrinking"


class DiffOp(Enum):
    FORWARD_DIFF = "forward_diff"
    BACKWARD_DIFF = "backward_diff"
    FORWARD_AVG = "forward_avg"
    BACKWARD_AVG = "backward_avg"


def apply_1d(field: FieldSlab, axis: Axis, op: DiffOp, boundary: Boundary) -> FieldSlab:
    """Apply one of the four operators to a 2-D slab along one axis.

    In shrinking mode the slab loses one slice along ``axis``.
    """
    a, ax = field.psi, 0 if axis is Axis.TIME_N else 1
    if a.shape[ax] < 2:
        raise DomainError(f"difference operators need extent >= 2 along axis {ax}, got {a.shape[ax]}")
    # every operator reads a (lower, upper) neighbour pair: (f[i], f[i+1])
    # for forward ops, (f[i-1], f[i]) for backward ops; dropping one sample
    # makes the two pairs the same index windows
    if boundary is Boundary.PERIODIC:
        if op in (DiffOp.FORWARD_DIFF, DiffOp.FORWARD_AVG):
            lower, upper = a, np.roll(a, -1, axis=ax)
        else:
            lower, upper = np.roll(a, 1, axis=ax), a
    else:
        lead = (slice(None),) * ax
        lower, upper = a[lead + (slice(None, -1),)], a[lead + (slice(1, None),)]
    if op in (DiffOp.FORWARD_DIFF, DiffOp.BACKWARD_DIFF):
        return FieldSlab(psi=upper - lower)
    return FieldSlab(psi=(upper + lower) / 2.0)
