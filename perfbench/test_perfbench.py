"""Self-tests of the benchmark: the oracle can fail, inputs follow the seed,
and the tracer wraps and restores the package's functions.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import copy
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, wp  # noqa: E402

WORKLOADS = ("scaling_sweep", "noise_grid", "gain_design")


def _float_paths(obj, path=()):
    """Paths to every float leaf of a nested output."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _float_paths(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _float_paths(v, path + (i,))
    elif isinstance(obj, float):
        yield path


def _scaled(outputs, path, factor):
    out = copy.deepcopy(outputs)
    *parents, leaf = path
    node = out
    for p in parents:
        node = node[p]
    node[leaf] *= factor
    return out


def _op(workload, key, outputs):
    refused = workload == "gain_design" and outputs["squared_tap_sum"] is None
    return Op(key, outputs=outputs, refused=refused)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracle_accepts_reference_outputs(workload):
    ref = oracle.load_reference(workload)
    for key, outputs in ref["ops"].items():
        assert oracle.judge(workload, _op(workload, key, outputs), ref) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracle_rejects_every_output_perturbed_by_1e_6(workload):
    ref = oracle.load_reference(workload)
    key, outputs = next(iter(ref["ops"].items()))
    paths = list(_float_paths(outputs))
    assert paths
    for path in paths:
        op = _op(workload, key, _scaled(outputs, path, 1.0 + 1e-6))
        problems = oracle.judge(workload, op, ref)
        assert any("differs from reference" in p for p in problems), path


def test_seed_independent_checks_can_fail():
    sweep_ref = oracle.load_reference("scaling_sweep")["ops"]["20/none"]
    assert oracle.check_sweep_cell("20/none", sweep_ref) == []
    late = dict(sweep_ref, settling_time=sweep_ref["settling_time"] * 1.3)
    assert oracle.check_sweep_cell("20/none", late)
    assert oracle.check_sweep_cell("20/none", dict(sweep_ref, collided=True))

    noise_ref = next(iter(oracle.load_reference("noise_grid")["ops"].values()))
    assert oracle.check_noise_run(dict(noise_ref, mse_dist=math.nan))

    design = next(
        v for v in oracle.load_reference("gain_design")["ops"].values()
        if v["squared_tap_sum"] is not None
    )
    assert oracle.check_design(design, refused=False) == []
    assert oracle.check_design(dict(design, kappa_front=design["kappa_front"] + 0.01), False)
    assert oracle.check_design(dict(design, tap_sum=1.03), False)
    peaks = dict(design["vehicle1_peak"], two_sided=1.001)
    assert oracle.check_design(dict(design, vehicle1_peak=peaks), False)


def test_inputs_repeat_for_a_seed_and_change_with_it():
    assert workloads.gain_draws(7) == workloads.gain_draws(7)
    assert workloads.gain_draws(7) != workloads.gain_draws(8)
    assert workloads.noise_seeds(7) == workloads.noise_seeds(7)
    assert workloads.noise_seeds(7) != workloads.noise_seeds(8)


@pytest.mark.parametrize("seed", range(10))
def test_gain_draws_keep_the_routh_margin(seed):
    draws = workloads.gain_draws(seed)
    assert len(draws) == workloads.DESIGN_DRAWS
    for kp, ki, xi in draws:
        assert xi * kp >= 2.0 * ki
        assert 2.0 <= kp <= 8.0 and 2.0 <= xi <= 8.0 and 1.0 <= ki <= 9.0


def test_tracer_wraps_where_callers_look_and_restores():
    sim = sys.modules["waveplatoon.sim"]
    sweep_module = sys.modules["waveplatoon.sweep"]
    originals = (sim.absorber_front_step, sweep_module.run_scenario, wp.wave_tf_approx)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert sim.absorber_front_step is not originals[0]
        assert sweep_module.run_scenario is not originals[1]
        wp.wave_tf_approx(wp.coupling_from_gains(4.0, 4.0, 4.0), 5)
    assert (sim.absorber_front_step, sweep_module.run_scenario, wp.wave_tf_approx) == originals
    metrics = tracer.layer_metrics()
    assert metrics["wave.wave_tf_approx.calls"] == 1
    assert metrics["lti.tf_algebra.calls"] > 0
    assert metrics["wave.wave_tf_approx.s"] > 0.0
