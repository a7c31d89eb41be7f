"""Performance metrics extracted from simulation traces.

The maneuver metrics (velocity tracking error, settling time) characterize
reference changes; the rest-pose metrics quantify how far noise pushes a
platoon that is commanded to sit still at the origin.
"""

import numpy as np
from dataclasses import dataclass

from .errors import EmptyTrace, InvalidConfig

SETTLING_BAND = 0.05


@dataclass(frozen=True)
class MetricsReport:
    """Trace summary; fields that need a rest-pose scenario are None for
    maneuver runs."""

    mse_velocity: float
    settling_time: float = None
    mse_pos: float = None
    mean_pos: float = None
    mse_dist: float = None
    max_dist: float = None
    collided: bool = False

    def as_dict(self):
        return {
            "mse_velocity": self.mse_velocity,
            "settling_time": self.settling_time,
            "mse_pos": self.mse_pos,
            "mean_pos": self.mean_pos,
            "mse_dist": self.mse_dist,
            "max_dist": self.max_dist,
            "collided": bool(self.collided),
        }


def _require_samples(trace):
    if len(trace.t) == 0:
        raise EmptyTrace("trace has no samples")


def mse_velocity(trace, v_ref):
    """Mean squared velocity error against the constant ``v_ref``,
    averaged over vehicles and samples."""
    _require_samples(trace)
    return float(((trace.velocities - float(v_ref)) ** 2).mean())


def settling_time(trace, v_ref, band=SETTLING_BAND):
    """First time after which every vehicle's velocity stays within
    ``band`` of v_ref for the rest of the trace; None when that never
    happens."""
    _require_samples(trace)
    if v_ref == 0:
        raise InvalidConfig("settling needs a nonzero velocity reference")
    tol = band * abs(v_ref)
    inside = np.all(np.abs(trace.velocities - v_ref) <= tol, axis=1)
    if not inside[-1]:
        return None
    bad = np.nonzero(~inside)[0]
    if len(bad) == 0:
        return float(trace.t[0])
    return float(trace.t[bad[-1] + 1])


def collided(trace):
    """True when any gap goes negative, meaning an overtake happened."""
    _require_samples(trace)
    return bool(np.any(trace.distances < 0.0))


def maneuver_metrics(trace, v_ref):
    """Metrics for a velocity maneuver against a final reference."""
    return MetricsReport(
        mse_velocity=mse_velocity(trace, v_ref),
        settling_time=settling_time(trace, v_ref),
        collided=collided(trace),
    )


def noise_metrics(trace):
    """Metrics for the rest-pose noise scenario (zero velocity and spacing
    references): position and gap deviations from the origin pose, and the
    largest head-to-tail spread."""
    _require_samples(trace)
    x = trace.positions
    d = trace.distances
    return MetricsReport(
        mse_velocity=mse_velocity(trace, 0.0),
        settling_time=None,
        mse_pos=float((x**2).mean()),
        mean_pos=float(x.mean()),
        mse_dist=float((d**2).mean()),
        max_dist=float(np.abs(x[:, 0] - x[:, -1]).max()),
        collided=collided(trace),
    )
