"""Output oracle: reference comparison plus checks that hold for any seed.

``reference.json`` holds the outputs of one pass of each workload at
DEFAULT_SEED, recorded with ``run.py --record-reference``. For that seed
(and for ``scaling_sweep``, which ignores the seed) every op must match its
recorded outputs to REFERENCE_RTOL, the gate a replacement stepper has to
meet. The seed-independent checks below apply to every seed.
"""

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_RTOL = 1e-8
DEFAULT_SEED = 0

# acceptance settling targets (s) for the swept sizes, and the tolerance
# the acceptance table allows around them
SETTLING_TARGETS = {
    "none": {5: 70.0, 10: 322.0, 20: 1365.0},
    "front": {5: 12.0, 10: 24.0, 20: 46.0},
    "rear": {5: 11.0, 10: 23.0, 20: 45.0},
    "two_sided": {5: 7.5, 10: 14.0, 20: 26.0},
}
SETTLING_TOLERANCE = 0.20

HEAD_GAIN_TOLERANCE = 1e-3
TAP_SUM_TOLERANCE = 0.02
WAVE_GAIN_SLACK = 1e-9


def load_reference(workload):
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[workload]


def mismatches(got, ref, rtol=REFERENCE_RTOL, path=""):
    """Paths at which ``got`` differs from ``ref``: numbers by more than
    ``rtol`` relative, anything else by value or shape."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or got.keys() != ref.keys():
            return [path or "."]
        out = []
        for k in ref:
            out += mismatches(got[k], ref[k], rtol, f"{path}/{k}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [path or "."]
        out = []
        for i, (g, r) in enumerate(zip(got, ref)):
            out += mismatches(g, r, rtol, f"{path}[{i}]")
        return out
    if isinstance(ref, bool) or ref is None or isinstance(got, bool) or got is None:
        return [] if got == ref else [path or "."]
    if abs(got - ref) <= rtol * max(abs(got), abs(ref)):
        return []
    return [path or "."]


def check_sweep_cell(key, out):
    """A cell settles within SETTLING_TOLERANCE of its target, uncollided."""
    n, variant = key.split("/")
    target = SETTLING_TARGETS[variant][int(n)]
    problems = []
    t = out["settling_time"]
    if t is None or abs(t / target - 1.0) > SETTLING_TOLERANCE:
        problems.append(f"settling time {t} vs target {target} s")
    if out["collided"]:
        problems.append("collision")
    if not math.isfinite(out["mse_velocity"]):
        problems.append("non-finite velocity MSE")
    return problems


def check_noise_run(out):
    """Every rest-pose metric is finite."""
    return [
        f"non-finite {k}" for k, v in out.items()
        if isinstance(v, float) and not math.isfinite(v)
    ]


def check_design(out, refused):
    """Head gain matches -sqrt(ki/xi), |G1| <= 1 on the grid, and the FIR
    taps sum to about 1. The tap-sum check is skipped for a refused op:
    the refusal is the package reporting that the default span truncates
    this gain set's response."""
    kp, ki, xi = out["gains"]
    problems = []
    if not abs(out["kappa_front"] + math.sqrt(ki / xi)) < HEAD_GAIN_TOLERANCE:
        problems.append(f"head gain {out['kappa_front']} vs -sqrt(ki/xi)")
    # with absorbing ends the vehicle-1 response from the head is G1 itself
    for variant in ("rear", "two_sided"):
        if not out["vehicle1_peak"][variant] <= 1.0 + WAVE_GAIN_SLACK:
            problems.append(f"|G1| peak {out['vehicle1_peak'][variant]} > 1")
    if not refused and not abs(out["tap_sum"] - 1.0) <= TAP_SUM_TOLERANCE:
        problems.append(f"FIR tap sum {out['tap_sum']}")
    return problems


_SEED_CHECKS = {
    "scaling_sweep": lambda op: check_sweep_cell(op.key, op.outputs),
    "noise_grid": lambda op: check_noise_run(op.outputs),
    "gain_design": lambda op: check_design(op.outputs, op.refused),
}


def judge(workload, op, reference=None):
    """Problems with one op: its error, its differences from ``reference``
    (a workload's recorded section, or None), and failed seed-independent
    checks. An empty list accepts the op."""
    if op.error:
        return [op.error]
    problems = []
    if reference is not None:
        ref = reference["ops"].get(op.key)
        if ref is None:
            problems.append("no reference output")
        else:
            problems += [
                f"differs from reference at {p}"
                for p in mismatches(op.outputs, ref)
            ]
    return problems + _SEED_CHECKS[workload](op)
