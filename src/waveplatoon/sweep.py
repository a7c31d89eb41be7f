"""Scaling studies: run the same maneuver across platoon sizes and end
strategies, collect metrics, and fit growth exponents.

Cells run one after another, each with its own simulation state; the
result lists them by variant name, then size.
"""

import numpy as np
from dataclasses import dataclass

from .errors import InvalidConfig, WavePlatoonError
from .metrics import maneuver_metrics
from .sim import VARIANTS, PlatoonConfig, ScenarioSpec, run_scenario
from .wave import DEFAULT_FIR_SPAN, coupling_from_gains, wave_fir, wave_tf_approx

# settling stretches quadratically with size without absorbers and about
# linearly with them; sweep durations are sized from these envelopes
SETTLING_ENVELOPE = {
    "none": lambda n: 3.5 * n * n,
    "front": lambda n: 2.5 * n,
    "rear": lambda n: 2.5 * n,
    "two_sided": lambda n: 1.7 * n,
}
DURATION_MARGIN = 1.3
DURATION_FLOOR = 60.0


@dataclass(frozen=True)
class SweepCell:
    n_vehicles: int
    variant: str
    duration: float
    metrics: object = None
    error: str = None


@dataclass(frozen=True)
class SweepResult:
    cells: tuple
    slopes: dict

    def cell(self, n, variant):
        for c in self.cells:
            if c.n_vehicles == n and c.variant == variant:
                return c
        raise KeyError((n, variant))


def acceleration_scenario(duration, v_ref=1.0, variant="none", out_every=10):
    """From rest, command cruising at ``v_ref`` starting at t = 0."""
    return ScenarioSpec(
        duration=duration,
        events=((0.0, "set_v_ref", v_ref),),
        variant=variant,
        out_every=out_every,
    )


def sweep_duration(variant, n_max):
    """Run length covering the slowest cell of a variant; constant across a
    variant's cells so time-averaged errors stay comparable."""
    return DURATION_MARGIN * SETTLING_ENVELOPE[variant](n_max) + DURATION_FLOOR


def sweep(
    n_list,
    variants=VARIANTS,
    kp=4.0,
    ki=4.0,
    xi=4.0,
    v_ref=1.0,
    dt=0.01,
    fs_ctrl=100.0,
    durations=None,
    out_every=10,
):
    """Run the acceleration maneuver over every (size, variant) pair and fit
    each variant's log-log growth of velocity MSE with size."""
    n_list = list(n_list)
    if not n_list:
        raise InvalidConfig("need at least one platoon size")
    unknown = [v for v in variants if v not in VARIANTS]
    if unknown:
        raise InvalidConfig(f"unknown variant(s): {', '.join(map(str, unknown))}")
    n_max = max(n_list)
    fir = None
    if any(v != "none" for v in variants):
        fir = wave_fir(
            wave_tf_approx(coupling_from_gains(kp, ki, xi)), fs_ctrl, DEFAULT_FIR_SPAN
        )

    def run_cell(n, variant):
        if durations:
            duration = durations[variant]
        else:
            # on the control grid, so the cell records the length it simulates
            duration = round(sweep_duration(variant, n_max) * fs_ctrl) / fs_ctrl
        try:
            config = PlatoonConfig(
                n_vehicles=n, kp=kp, ki=ki, xi=xi, dt=dt, fs_ctrl=fs_ctrl,
            )
            scenario = acceleration_scenario(duration, v_ref, variant, out_every)
            trace = run_scenario(config, scenario, fir=fir)
            return SweepCell(n, variant, duration, maneuver_metrics(trace, v_ref))
        except (WavePlatoonError, FloatingPointError) as exc:
            return SweepCell(n, variant, duration, error=f"{type(exc).__name__}: {exc}")

    cells = sorted(
        (run_cell(n, v) for v in variants for n in n_list),
        key=lambda c: (c.variant, c.n_vehicles),
    )

    slopes = {}
    for variant in variants:
        pts = [
            (c.n_vehicles, c.metrics.mse_velocity)
            for c in cells
            if c.variant == variant and c.metrics and c.metrics.mse_velocity > 0
        ]
        if len(pts) < 2:
            slopes[variant] = None
            continue
        ns, mses = zip(*pts)
        slopes[variant] = float(
            np.polyfit(np.log(ns), np.log(mses), 1)[0]
        )
    return SweepResult(cells=tuple(cells), slopes=slopes)
