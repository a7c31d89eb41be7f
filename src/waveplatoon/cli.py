"""Command-line front end.

Subcommands: ``approx`` (FIR taps and frequency-response tables),
``simulate`` (scenario run to trace CSV plus metrics JSON), ``sweep``
(scaling table plus growth exponents), ``noise`` (rest-pose noise
experiment), ``verify`` (self-check suites). Values come from built-in
defaults, overridden by an INI-style config file, overridden by flags.
"""

import argparse
import configparser
import json
import sys
from pathlib import Path

import numpy as np

from .errors import WavePlatoonError
from .lti import freq_response
from .metrics import maneuver_metrics, noise_metrics
from .sim import (
    NoiseSpec,
    PlatoonConfig,
    ScenarioSpec,
    run_scenario,
    trace_to_csv,
)
from .sweep import sweep
from .verify import SUITES, verify
from .wave import coupling_from_gains, wave_fir, wave_tf_approx

DEFAULTS = {
    "kp": 4.0,
    "ki": 4.0,
    "xi": 4.0,
    "n": 10,
    "l": 20,
    "fs": 100.0,
    "truncate": 15.0,
    "dt": 0.01,
    "seed": 0,
    "variant": "none",
    "duration": 100.0,
    "v_ref": 1.0,
    "sigma2": 0.0,
    "n_list": "5,10,20,40",
    "variants": "none,front,rear,two_sided",
    "out_every": 1,
}

_SECTION_KEYS = {
    "plant": ("xi",),
    "controller": ("kp", "ki"),
    "wave": ("l", "fs", "truncate"),
    "scenario": (
        "n", "variant", "duration", "v_ref", "sigma2", "seed",
        "dt", "out_every",
    ),
    "sweep": ("n_list", "variants"),
}

_HELP = {
    "kp": "proportional gain",
    "ki": "integral gain",
    "xi": "friction coefficient",
    "n": "number of vehicles",
    "l": "approximant iteration depth",
    "fs": "controller sample rate, Hz",
    "truncate": "FIR span, seconds",
    "dt": "integration step, seconds",
    "seed": "noise seed",
    "variant": "end strategy: none front rear two_sided",
    "duration": "run length, seconds",
    "v_ref": "velocity reference",
    "sigma2": "noise variance",
    "n_list": "comma-separated platoon sizes",
    "variants": "comma-separated end strategies",
    "out_every": "trace decimation, control ticks",
}


def load_config(path):
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise WavePlatoonError(f"config file not found: {path}")
    values = {}
    for section, keys in _SECTION_KEYS.items():
        if not parser.has_section(section):
            continue
        unknown = sorted(set(parser.options(section)) - set(keys))
        if unknown:
            raise WavePlatoonError(
                f"unknown option(s) in [{section}] of {path}: {', '.join(unknown)}"
            )
        for key in keys:
            if parser.has_option(section, key):
                values[key] = type(DEFAULTS[key])(parser.get(section, key))
    return values


def _resolve(args, keys, overrides=None):
    """defaults < subcommand overrides < config file < explicit flags"""
    values = dict(DEFAULTS)
    if overrides:
        values.update(overrides)
    if getattr(args, "config", None):
        values.update(load_config(args.config))
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _add_common(p, keys):
    p.add_argument("--config", type=str, help="INI config file")
    for key in keys:
        p.add_argument(
            f"--{key.replace('_', '-')}", dest=key, type=type(DEFAULTS[key]),
            help=_HELP[key],
        )
    p.add_argument("--out", type=str, help="output path")


def _emit(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_approx(args):
    v = _resolve(args, ("kp", "ki", "xi", "l", "fs", "truncate"))
    coup = coupling_from_gains(v["kp"], v["ki"], v["xi"])
    ap = wave_tf_approx(coup, v["l"])
    fir = wave_fir(ap, v["fs"], v["truncate"])
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    k = np.arange(len(fir.taps))
    np.savetxt(
        out_dir / "wave_taps.csv",
        np.column_stack([k, k / fir.fs, fir.taps]),
        delimiter=",",
        header="k,t,tap",
        comments="",
    )
    omegas = np.logspace(-2, 2, 400)
    resp = freq_response(ap.approx, omegas)
    np.savetxt(
        out_dir / "wave_bode.csv",
        np.column_stack([omegas, np.abs(resp.values), np.angle(resp.values)]),
        delimiter=",",
        header="omega,mag,phase_rad",
        comments="",
    )
    _emit({
        "iterations": v["l"],
        "taps": len(fir.taps),
        "tap_sum": fir.dc,
        "files": ["wave_taps.csv", "wave_bode.csv"],
    })
    return 0


def _scenario_events(v):
    events = []
    if v["v_ref"] != 0.0:
        events.append((0.0, "set_v_ref", v["v_ref"]))
    return tuple(events)


def _cmd_simulate(args):
    keys = ("kp", "ki", "xi", "n", "variant", "dt", "fs", "duration",
            "v_ref", "seed", "sigma2", "out_every")
    v = _resolve(args, keys)
    config = PlatoonConfig(
        n_vehicles=v["n"], kp=v["kp"], ki=v["ki"], xi=v["xi"],
        dt=v["dt"], fs_ctrl=v["fs"],
    )
    noise = NoiseSpec(v["sigma2"], v["seed"]) if v["sigma2"] > 0 else None
    scenario = ScenarioSpec(
        duration=v["duration"],
        events=_scenario_events(v),
        noise=noise,
        variant=v["variant"],
        out_every=v["out_every"],
    )
    trace = run_scenario(config, scenario)
    out = args.out or "trace.csv"
    trace_to_csv(trace, out)
    if v["v_ref"] != 0.0:
        report = maneuver_metrics(trace, v["v_ref"])
    else:
        report = noise_metrics(trace)
    _emit({"trace": str(out), **report.as_dict()})
    return 0


def _cmd_sweep(args):
    keys = ("kp", "ki", "xi", "dt", "fs", "v_ref", "n_list", "variants",
            "out_every")
    v = _resolve(args, keys, overrides={"out_every": 10})
    n_list = [int(tok) for tok in v["n_list"].split(",") if tok]
    variants = tuple(tok for tok in v["variants"].split(",") if tok)
    result = sweep(
        n_list, variants, kp=v["kp"], ki=v["ki"], xi=v["xi"],
        v_ref=v["v_ref"], dt=v["dt"], fs_ctrl=v["fs"],
        out_every=v["out_every"],
    )
    rows = []
    for c in result.cells:
        m = c.metrics
        rows.append(
            (
                c.n_vehicles,
                c.variant,
                c.duration,
                m.mse_velocity if m else float("nan"),
                m.settling_time if m and m.settling_time is not None
                else float("nan"),
                c.error or "",
            )
        )
    out = args.out or "sweep.csv"
    with open(out, "w") as fh:
        fh.write("n,variant,duration,mse_velocity,settling_time,error\n")
        for row in rows:
            fh.write(
                f"{row[0]},{row[1]},{row[2]:.6g},{row[3]:.12e},"
                f"{row[4]:.6g},{row[5]}\n"
            )
    _emit({"table": str(out), "slopes": result.slopes})
    return 1 if any(c.error for c in result.cells) else 0


def _cmd_noise(args):
    keys = ("kp", "ki", "xi", "n", "variant", "dt", "fs", "duration",
            "seed", "sigma2", "out_every")
    v = _resolve(args, keys, overrides={"sigma2": 1.0, "duration": 2000.0})
    config = PlatoonConfig(
        n_vehicles=v["n"], kp=v["kp"], ki=v["ki"], xi=v["xi"],
        dt=v["dt"], fs_ctrl=v["fs"], d_ref0=0.0,
    )
    scenario = ScenarioSpec(
        duration=v["duration"],
        noise=NoiseSpec(v["sigma2"], v["seed"]),
        variant=v["variant"],
        out_every=v["out_every"],
    )
    trace = run_scenario(config, scenario)
    if args.out:
        trace_to_csv(trace, args.out)
    report = noise_metrics(trace)
    payload = report.as_dict()
    if args.out:
        payload["trace"] = str(args.out)
    _emit(payload)
    return 0


def _cmd_verify(args):
    v = _resolve(args, ("kp", "ki", "xi", "l", "fs", "truncate"))
    suites = tuple(args.suite) if args.suite else None
    report = verify(
        suites, kp=v["kp"], ki=v["ki"], xi=v["xi"], iterations=v["l"],
        fs=v["fs"], span=v["truncate"],
    )
    for line in report.lines():
        print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(report.as_dict(), indent=2))
    print("all checks passed" if report.passed else "some checks FAILED")
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="waveplatoon",
        description="wave-based analysis and control of vehicle platoons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approx", help="emit FIR taps and frequency response")
    _add_common(p, ("kp", "ki", "xi", "l", "fs", "truncate"))
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("simulate", help="run one scenario")
    _add_common(p, ("kp", "ki", "xi", "n", "variant", "dt", "fs",
                    "duration", "v_ref", "seed", "sigma2", "out_every"))
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sweep", help="scaling study over platoon sizes")
    _add_common(p, ("kp", "ki", "xi", "dt", "fs", "v_ref", "n_list",
                    "variants", "out_every"))
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("noise", help="rest-pose noise experiment")
    _add_common(p, ("kp", "ki", "xi", "n", "variant", "dt", "fs",
                    "duration", "seed", "sigma2", "out_every"))
    p.set_defaults(fn=_cmd_noise)

    p = sub.add_parser("verify", help="run self-check suites")
    _add_common(p, ("kp", "ki", "xi", "l", "fs", "truncate"))
    p.add_argument(
        "--suite", action="append", choices=SUITES,
        help="restrict to one suite (repeatable)",
    )
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except WavePlatoonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
