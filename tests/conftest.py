"""Shared test fixtures."""

import pytest

from latticewave import DomainError, MeasurementError, acceptance, beat_field, beat_group_velocity, kinematics
from latticewave.waves import _track_crests, beat_envelope


def _sampled_beat_measurement(beat, grid, nt, nx):
    """The reference for measure_beat_velocity: sample the whole beat_field, then track its beat.

    Every check and message, in order, of the measurement that read the
    sampled slab's shape; the tracking itself is ``_track_crests``, which
    reads the whole ``beat_envelope(...) ** 2`` through a full-array reader.
    """
    slab = beat_field(beat, grid, nt, nx)
    nt, nx = slab.nt, slab.nx
    if nt < 4:
        raise DomainError("group-velocity measurement needs at least 4 time slices")
    if beat.wavenum_diff == 0.0:
        raise MeasurementError("envelope has no spatial structure (equal mode wavenumbers); nothing to track")
    env_sq = beat_envelope(beat, grid, nt, nx) ** 2
    crest_sites = (2.0 / abs(beat.wavenum_diff)) / grid.eps / 2.0
    if nx * grid.eps < 3.0 * (2.0 / abs(beat.wavenum_diff)):
        raise DomainError("fewer than 3 envelope periods resolved across the slab")
    if crest_sites < 2.0:
        raise MeasurementError(
            f"envelope crests {crest_sites!r} sites apart are under-resolved; at least 2 sites are needed"
        )
    step_sites = abs(beat_group_velocity(beat)) * grid.tau / grid.eps
    if step_sites >= crest_sites / 2.0:
        raise MeasurementError(
            f"envelope crest moves {step_sites!r} sites per step, at least half its "
            f"{crest_sites!r}-site spacing; its motion is aliased"
        )
    return _track_crests(lambda n, lo, hi: env_sq[n, lo:hi], nt, nx, crest_sites, grid)


@pytest.fixture
def sampled_beat_measurement():
    return _sampled_beat_measurement


@pytest.fixture
def exact_derivations(monkeypatch):
    """Counts of the calls to kinematics' _mass_ratio and _exact_interval, wherever they are called from."""
    calls = dict.fromkeys(("_mass_ratio", "_exact_interval"), 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(kinematics, name)):
            calls[_name] += 1
            return _original(*args)
        for module in (kinematics, acceptance):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls
