"""The benchmark's three workloads, run through waveplatoon's public API.

Each workload turns the workload seed into its inputs once, then runs
"passes": one pass performs every op of the workload once, back to back
in this process (a closed loop with one caller). An op is the unit that
is counted, timed and checked:

- ``scaling_sweep``: one (size, variant) cell of ``sweep``. The seed is
  ignored; the sweep is the paper's deterministic settling study.
- ``noise_grid``: one rest-pose noise run; noise seeds come from the seed.
- ``gain_design``: the design stack for one gain triple drawn from the seed.
"""

import inspect
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    """Import waveplatoon from this checkout's ``src`` tree and nowhere else."""
    pkg_dir = SRC / "waveplatoon"
    if not (pkg_dir / "__init__.py").is_file():
        raise RuntimeError(f"no waveplatoon sources in {pkg_dir}")
    sys.path.insert(0, str(SRC))
    import waveplatoon

    if Path(waveplatoon.__file__).resolve().parent != pkg_dir.resolve():
        raise RuntimeError(f"waveplatoon was imported from {waveplatoon.__file__}")
    return waveplatoon


wp = _import_package()
# ``waveplatoon.sweep`` and ``waveplatoon.verify`` name the re-exported
# functions, so the submodules are reached through sys.modules
SWEEP_MODULE = sys.modules["waveplatoon.sweep"]
SIM_MODULE = sys.modules["waveplatoon.sim"]
ERRORS = sys.modules["waveplatoon.errors"]

VARIANTS = ("none", "front", "rear", "two_sided")
FS_CTRL = 100.0  # package default control rate, used by every workload

SWEEP_SIZES = (5, 10, 20)

NOISE_VEHICLES = 20
NOISE_DURATION = 500.0
NOISE_SEEDS_PER_PASS = 2
NOISE_OUT_EVERY = 10

DESIGN_DRAWS = 100
DESIGN_DEPTHS = (5, 10, 15, 20)
DESIGN_CHAIN = 10
DESIGN_GRID = np.logspace(-2, 2, 200)
KP_RANGE = XI_RANGE = (2.0, 8.0)
KI_RANGE = (1.0, 9.0)
ROUTH_MARGIN = 2.0


def gain_draws(seed, count=DESIGN_DRAWS):
    """Gain triples (kp, ki, xi) drawn from ``seed``, keeping only draws
    with xi*kp >= ROUTH_MARGIN*ki (Routh: xi*kp > ki for every chain mode)."""
    rng = np.random.default_rng([seed, 1])
    draws = []
    while len(draws) < count:
        kp, xi = rng.uniform(*KP_RANGE), rng.uniform(*XI_RANGE)
        ki = rng.uniform(*KI_RANGE)
        if xi * kp >= ROUTH_MARGIN * ki:
            draws.append((float(kp), float(ki), float(xi)))
    return draws


def noise_seeds(seed, count=NOISE_SEEDS_PER_PASS):
    """Noise seeds for the rest-pose runs, derived from ``seed``."""
    rng = np.random.default_rng([seed, 2])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


@dataclass
class Op:
    key: str
    outputs: dict = None
    latency_s: float = None
    refused: bool = False
    error: str = None


@dataclass
class PassResult:
    ops: list
    ticks: int = 0
    summary: dict = field(default_factory=dict)


def _no_op(key):
    pass


class _CellClock:
    """Latency of each sweep cell: from its ``run_scenario`` call to the
    ``maneuver_metrics`` return that completes it, on the pool thread that
    runs the cell, which also reports the cell to ``on_op``. Patches the
    two names where ``sweep`` looks them up."""

    def __init__(self, on_op):
        self.latency = {}
        self._local = threading.local()
        self._on_op = on_op

    def __enter__(self):
        run, metrics = self._saved = (
            SWEEP_MODULE.run_scenario, SWEEP_MODULE.maneuver_metrics,
        )
        local = self._local

        def run_scenario(config, scenario, *args, **kwargs):
            self._on_op(f"{config.n_vehicles}/{scenario.variant}")
            local.start = time.perf_counter()
            return run(config, scenario, *args, **kwargs)

        def maneuver_metrics(trace, *args, **kwargs):
            out = metrics(trace, *args, **kwargs)
            key = f"{trace.n_vehicles}/{trace.variant}"
            self.latency[key] = time.perf_counter() - local.start
            return out

        SWEEP_MODULE.run_scenario = run_scenario
        SWEEP_MODULE.maneuver_metrics = maneuver_metrics
        return self

    def __exit__(self, *exc):
        SWEEP_MODULE.run_scenario, SWEEP_MODULE.maneuver_metrics = self._saved


class ScalingSweep:
    """``sweep`` over sizes 5, 10, 20 and all variants with nominal gains
    and the package's own horizons; ignores the workload seed."""

    name = "scaling_sweep"
    seeded = False

    def __init__(self, seed, workers):
        # one pool thread per core while sweep still takes a pool size
        self.options = (
            {"max_workers": workers}
            if "max_workers" in inspect.signature(wp.sweep).parameters else {}
        )

    def run_pass(self, on_op=_no_op):
        with _CellClock(on_op) as clock:
            result = wp.sweep(SWEEP_SIZES, **self.options)
        ops, ticks = [], 0
        for cell in result.cells:
            key = f"{cell.n_vehicles}/{cell.variant}"
            ticks += int(round(cell.duration * FS_CTRL))
            op = Op(key, latency_s=clock.latency.get(key))
            if cell.error:
                op.error = cell.error
            else:
                m = cell.metrics
                op.outputs = {
                    "settling_time": m.settling_time,
                    "mse_velocity": m.mse_velocity,
                    "collided": bool(m.collided),
                }
            ops.append(op)
        return PassResult(ops, ticks, {"slopes": dict(result.slopes)})


class NoiseGrid:
    """Rest-pose runs with unit-variance distance noise: 20 vehicles at
    spacing reference 0, every variant, seeds derived from the workload seed."""

    name = "noise_grid"
    seeded = True

    def __init__(self, seed, workers):
        self.seeds = noise_seeds(seed)

    def run_pass(self, on_op=_no_op):
        config = SIM_MODULE.PlatoonConfig(n_vehicles=NOISE_VEHICLES, d_ref0=0.0)
        fir = wp.wave_fir(wp.wave_tf_approx(config.coupling()), config.fs_ctrl)
        ops, ticks = [], 0
        for noise_seed in self.seeds:
            for variant in VARIANTS:
                spec = SIM_MODULE.ScenarioSpec(
                    duration=NOISE_DURATION,
                    noise=SIM_MODULE.NoiseSpec(variance=1.0, seed=noise_seed),
                    variant=variant,
                    out_every=NOISE_OUT_EVERY,
                )
                op = Op(f"{variant}/{noise_seed}")
                on_op(op.key)
                start = time.perf_counter()
                try:
                    trace = wp.run_scenario(config, spec, fir=fir)
                    op.outputs = wp.noise_metrics(trace).as_dict()
                except Exception as exc:  # a failed op is counted, not fatal
                    op.error = f"{type(exc).__name__}: {exc}"
                op.latency_s = time.perf_counter() - start
                ticks += int(round(spec.duration * config.fs_ctrl))
                ops.append(op)
        return PassResult(ops, ticks)


def design_outputs(kp, ki, xi):
    """One gain_design op. Returns (outputs, refused): ``refused`` is True
    when ``squared_fir`` rejects the FIR's truncation at the default span;
    the remaining stages do not depend on it and still run."""
    coupling = wp.coupling_from_gains(kp, ki, xi)
    approxes = [wp.wave_tf_approx(coupling, depth) for depth in DESIGN_DEPTHS]
    fir = wp.wave_fir(approxes[-1])
    out = {
        "approx_gain_at_1j": [abs(complex(a(1j))) for a in approxes],
        "tap_sum": float(np.sum(fir.taps)),
    }
    refused = False
    try:
        out["squared_tap_sum"] = float(np.sum(wp.squared_fir(fir).taps))
    except ERRORS.InvalidConfig:
        out["squared_tap_sum"] = None
        refused = True
    out["kappa_front"] = float(wp.kappa_front(coupling))
    out["kappa_rear"] = float(wp.kappa_rear(coupling))
    model = wp.ChainModel(coupling, DESIGN_CHAIN)
    out["vehicle1_peak"] = {
        v: float(np.max(np.abs(
            wp.chain_tf_prediction(model, v, 1).from_front
            .freq_response(DESIGN_GRID).values
        )))
        for v in VARIANTS
    }
    ss = wp.chain_state_space(kp, ki, xi, DESIGN_CHAIN)
    out["tail_peak"] = float(np.max(np.abs(ss.freq_response(DESIGN_GRID).values)))
    out["verify"] = [c.passed for c in wp.verify(kp=kp, ki=ki, xi=xi).checks]
    return out, refused


class GainDesign:
    """The lti/wave/boundary design stack over gain triples drawn from the
    workload seed; no simulation."""

    name = "gain_design"
    seeded = True

    def __init__(self, seed, workers):
        self.draws = gain_draws(seed)

    def run_pass(self, on_op=_no_op):
        ops = []
        for i, (kp, ki, xi) in enumerate(self.draws):
            op = Op(f"{i:03d}")
            on_op(op.key)
            start = time.perf_counter()
            try:
                outputs, op.refused = design_outputs(kp, ki, xi)
                op.outputs = {"gains": [kp, ki, xi], **outputs}
            except Exception as exc:  # a failed op is counted, not fatal
                op.error = f"{type(exc).__name__}: {exc}"
            op.latency_s = time.perf_counter() - start
            ops.append(op)
        return PassResult(ops)


WORKLOADS = {w.name: w for w in (ScalingSweep, NoiseGrid, GainDesign)}
