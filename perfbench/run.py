"""Layered benchmark for waveplatoon.

Run from the repository root (the package is imported from ``src``):

    python3 perfbench/run.py --workload gain_design --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py): ``scaling_sweep``, ``noise_grid`` and
``gain_design``. One run measures ``--seconds`` of back-to-back passes of
the workload in this process, checks every op's outputs against the oracle
(oracle.py), prints every metric with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``. It exits 1 when an output
is wrong and 2 when the package cannot be loaded.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
passes (tracing.py) plus the tracing overhead; traced outputs must equal
untraced ones. Each run writes a record with its metadata, and a traced
run its spans, under ``perfbench/out/``.

``--record-reference`` runs one pass of every workload at the oracle's
default seed and rewrites ``reference.json``.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

END_TO_END = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# fresh-process set-up: import the package and build the nominal design
SETUP_CODE = """
import time
t0 = time.perf_counter()
import waveplatoon as wp
coupling = wp.coupling_from_gains(4.0, 4.0, 4.0)
fir = wp.wave_fir(wp.wave_tf_approx(coupling, 20))
wp.squared_fir(fir)
print(time.perf_counter() - t0, wp.__file__)
"""
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def percentile(values, q):
    """Nearest-rank percentile; a failed op is ``inf`` and sorts last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(src_dir):
    """Median set-up seconds over SETUP_REPEATS fresh interpreters, after
    one untimed start that fills the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        elapsed, origin = proc.stdout.split()
        if Path(origin).resolve().parent != (src_dir / "waveplatoon").resolve():
            raise RuntimeError(f"set-up imported waveplatoon from {origin}")
        if i:
            times.append(float(elapsed))
    return statistics.median(times)


def git_sha():
    """Commit of the checkout, read from .git without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(workers):
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_passes(workload, seconds, traced):
    """Back-to-back passes until the next one would overrun ``seconds``.
    With ``traced`` each untraced pass is followed by a traced one.
    Returns a list of (kind, wall seconds, PassResult, Tracer or None)."""
    from tracing import Tracer

    runs = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        result = workload.run_pass()
        runs.append(("untraced", time.perf_counter() - start, result, None))
        if traced:
            tracer = Tracer()
            with tracer.installed():
                start = time.perf_counter()
                result = workload.run_pass(on_op=tracer.begin_op)
                runs.append(("traced", time.perf_counter() - start, result, tracer))
        per_round = sum(
            statistics.median(r[1] for r in runs if r[0] == kind)
            for kind in {r[0] for r in runs}
        )
        if time.perf_counter() + per_round > deadline:
            return runs


def judge_runs(name, runs, reference):
    """Judge every op: oracle problems, and any difference from the same
    op in the first pass. Returns (attempted, failed, refused, problems)."""
    import oracle

    first = {op.key: op.outputs for op in runs[0][2].ops}
    attempted = failed = refused = 0
    problems = []
    for index, (kind, _, result, _) in enumerate(runs):
        for op in result.ops:
            attempted += 1
            refused += op.refused
            found = oracle.judge(name, op, reference)
            if not op.error and op.outputs != first.get(op.key):
                found.append(f"{kind} pass {index} differs from pass 0")
            if not op.error and op.latency_s is None:
                found.append("latency not observed")
            if found:
                failed += 1
                problems.append(f"{kind} pass {index} op {op.key}: {'; '.join(found)}")
        summary_ref = (reference or {}).get("summary")
        if summary_ref is not None:
            for path in oracle.mismatches(result.summary, summary_ref):
                problems.append(f"{kind} pass {index}: summary differs at {path}")
    return attempted, failed, refused, problems


def end_to_end_metrics(runs, setup_s):
    untraced = [r for r in runs if r[0] == "untraced"]
    latencies = [
        math.inf if op.error or op.latency_s is None else op.latency_s
        for r in untraced for op in r[2].ops
    ]
    return {
        "wall_s": statistics.median(r[1] for r in untraced),
        "op_p50_s": percentile(latencies, 0.5),
        "op_p90_s": percentile(latencies, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(runs):
    traced = [r for r in runs if r[0] == "traced"]
    untraced_wall = statistics.median(r[1] for r in runs if r[0] == "untraced")
    per_pass = [r[3].layer_metrics() for r in traced]
    for m, r in zip(per_pass, traced):
        m["boundary.squared_fir_refusals"] = sum(op.refused for op in r[2].ops)
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(r[1] for r in traced) / untraced_wall - 1.0
    )
    return metrics


def layer_unit(name):
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith((".calls", "_ticks", "_rows", "_samples", "_failed", "_refusals")):
        return "count"
    if name == "wave.approx_degree":
        return "degree"
    if name == "sim.step_vec_per_tick":
        return "calls/tick"
    return "ratio"


def record_reference(workloads):
    import oracle

    workers = len(os.sched_getaffinity(0))
    reference = {"meta": run_metadata(workers), "seed": oracle.DEFAULT_SEED}
    for name, cls in workloads.WORKLOADS.items():
        result = cls(oracle.DEFAULT_SEED, workers).run_pass()
        bad = [op.key for op in result.ops if op.error]
        if bad:
            raise RuntimeError(f"{name}: ops {bad} raised; nothing recorded")
        reference[name] = {
            "ops": {op.key: op.outputs for op in result.ops},
            "summary": result.summary or None,
        }
        print(f"recorded {len(result.ops)} {name} ops")
    with open(oracle.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("scaling_sweep", "noise_grid", "gain_design"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        import workloads
    except (ImportError, RuntimeError) as exc:
        print(f"perfbench: cannot load waveplatoon: {exc}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference(workloads)
        return 0

    import oracle

    workers = len(os.sched_getaffinity(0))
    meta = run_metadata(workers)
    setup_s = None if args.trace else measure_setup(workloads.SRC)
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, workers)
    use_reference = not cls.seeded or args.seed == oracle.DEFAULT_SEED
    reference = oracle.load_reference(args.workload) if use_reference else None

    runs = run_passes(workload, args.seconds, traced=bool(args.trace))
    attempted, failed, refused, problems = judge_runs(args.workload, runs, reference)
    correct = failed == 0 and not problems

    if args.trace:
        metrics = layer_metrics(runs)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = end_to_end_metrics(runs, setup_s)
        units = END_TO_END
    untraced = [r for r in runs if r[0] == "untraced"]
    ticks = untraced[0][2].ticks
    extra = {
        "passes": len(runs),
        "ops_per_pass": len(untraced[0][2].ops),
        "ops_failed_frac": failed / attempted,
        "ops_refused_frac": refused / attempted,
        "ticks_per_s": ticks / statistics.median(r[1] for r in untraced) if ticks else None,
        "reference_checked": reference is not None,
    }

    print(f"workload {args.workload}  seed {args.seed}  "
          f"({'ignored' if not cls.seeded else 'used'})  workers {workers}")
    print(f"passes {extra['passes']}  ops {attempted}  failed {failed}  "
          f"refused {refused}  reference {'checked' if reference else 'not recorded for this seed'}")
    for key, value in extra.items():
        if key.endswith(("_frac", "_per_s")) and value is not None:
            print(f"  {key:<34} {value:.6g}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g} {units[name]}")
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        for i, r in enumerate(x for x in runs if x[0] == "traced"):
            r[3].write_spans(OUT_DIR / f"{stem}-spans{i}.json")
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "meta": meta, "correct": correct,
            "attempted": attempted, "failed": failed, "refused": refused,
            "pass_walls_s": [[r[0], r[1]] for r in runs],
            "metrics": metrics, "extra": extra, "problems": problems,
        }, fh, indent=1)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
