"""Command-line front end.

Subcommands: ``approx`` (FIR taps and frequency-response tables),
``simulate`` (scenario run to trace CSV plus metrics JSON), ``sweep``
(scaling table plus growth exponents), ``noise`` (``simulate`` at rest
under unit-variance noise), ``verify`` (self-check suites). Values come
from built-in defaults, overridden by the subcommand's own defaults, by an
INI-style config file, then by flags. A config key that the subcommand does
not use is an error.
"""

import argparse
import configparser
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import WavePlatoonError
from .lti import freq_response
from .metrics import maneuver_metrics, noise_metrics
from .sim import NoiseSpec, PlatoonConfig, ScenarioSpec, run_scenario, trace_to_csv
from .sweep import sweep
from .verify import SUITES, verify
from .wave import coupling_from_gains, wave_fir, wave_tf_approx

# every option once: default (its type is the flag's type), config section, help
OPTIONS = {
    "kp": (4.0, "controller", "proportional gain"),
    "ki": (4.0, "controller", "integral gain"),
    "xi": (4.0, "plant", "friction coefficient"),
    "n": (10, "scenario", "number of vehicles"),
    "l": (20, "wave", "approximant iteration depth"),
    "fs": (100.0, "wave", "controller sample rate, Hz"),
    "truncate": (15.0, "wave", "FIR span, seconds"),
    "dt": (0.01, "scenario", "integration step, seconds"),
    "seed": (0, "scenario", "noise seed"),
    "variant": ("none", "scenario", "end strategy: none front rear two_sided"),
    "duration": (100.0, "scenario", "run length, seconds"),
    "v_ref": (1.0, "scenario", "velocity reference"),
    "sigma2": (0.0, "scenario", "noise variance"),
    "n_list": ("5,10,20,40", "sweep", "comma-separated platoon sizes"),
    "variants": (
        "none,front,rear,two_sided", "sweep", "comma-separated end strategies",
    ),
    "out_every": (1, "scenario", "trace decimation, control ticks"),
}
DEFAULTS = {key: default for key, (default, _, _) in OPTIONS.items()}


def load_config(path):
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise WavePlatoonError(f"config file not found: {path}")
    values = {}
    for section in parser.sections():
        keys = [key for key, (_, sec, _) in OPTIONS.items() if sec == section]
        if not keys:
            continue
        unknown = sorted(set(parser.options(section)) - set(keys))
        if unknown:
            raise WavePlatoonError(
                f"unknown option(s) in [{section}] of {path}: {', '.join(unknown)}"
            )
        for key in keys:
            if parser.has_option(section, key):
                text = parser.get(section, key)
                try:
                    values[key] = type(DEFAULTS[key])(text)
                except ValueError:
                    raise WavePlatoonError(
                        f"[{section}] {key} = {text!r} in {path} is not "
                        f"a valid {type(DEFAULTS[key]).__name__}"
                    ) from None
    return values


def _resolve(args):
    """defaults < subcommand overrides < config file < explicit flags"""
    command = COMMANDS[args.command]
    values = {**DEFAULTS, **command.overrides}
    if args.config:
        config = load_config(args.config)
        unused = [key for key in config if key not in command.keys]
        if unused:
            raise WavePlatoonError(
                f"{args.command} does not use {', '.join(unused)} "
                f"(set in {args.config})"
            )
        values.update(config)
    for key in command.keys:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    return values


def _emit(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_approx(v, args):
    coup = coupling_from_gains(v["kp"], v["ki"], v["xi"])
    ap = wave_tf_approx(coup, v["l"])
    fir = wave_fir(ap, v["fs"], v["truncate"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    k = np.arange(len(fir.taps))
    np.savetxt(
        out_dir / "wave_taps.csv", np.column_stack([k, k / fir.fs, fir.taps]),
        delimiter=",", header="k,t,tap", comments="",
    )
    omegas = np.logspace(-2, 2, 400)
    resp = freq_response(ap.approx, omegas).values
    np.savetxt(
        out_dir / "wave_bode.csv",
        np.column_stack([omegas, np.abs(resp), np.angle(resp)]),
        delimiter=",", header="omega,mag,phase_rad", comments="",
    )
    _emit({
        "iterations": v["l"],
        "taps": len(fir.taps),
        "tap_sum": fir.dc,
        "files": ["wave_taps.csv", "wave_bode.csv"],
    })
    return 0


def _cmd_simulate(v, args):
    """A velocity manoeuvre from 1 m spacing, or, at ``v_ref == 0``, the
    rest pose from zero spacing with noise metrics."""
    rest = v["v_ref"] == 0.0
    config = PlatoonConfig(
        n_vehicles=v["n"], kp=v["kp"], ki=v["ki"], xi=v["xi"],
        dt=v["dt"], fs_ctrl=v["fs"], **({"d_ref0": 0.0} if rest else {}),
    )
    scenario = ScenarioSpec(
        duration=v["duration"],
        events=() if rest else ((0.0, "set_v_ref", v["v_ref"]),),
        noise=NoiseSpec(v["sigma2"], v["seed"]) if v["sigma2"] != 0.0 else None,
        variant=v["variant"],
        out_every=v["out_every"],
    )
    trace = run_scenario(config, scenario)
    report = noise_metrics(trace) if rest else maneuver_metrics(trace, v["v_ref"])
    payload = report.as_dict()
    if args.out:
        trace_to_csv(trace, args.out)
        payload["trace"] = str(args.out)
    _emit(payload)
    return 0


def _cmd_sweep(v, args):
    try:
        n_list = [int(tok) for tok in v["n_list"].split(",") if tok]
    except ValueError:
        raise WavePlatoonError(
            f"n_list must be comma-separated integers, got {v['n_list']!r}"
        ) from None
    variants = tuple(tok for tok in v["variants"].split(",") if tok)
    result = sweep(
        n_list, variants, kp=v["kp"], ki=v["ki"], xi=v["xi"],
        v_ref=v["v_ref"], dt=v["dt"], fs_ctrl=v["fs"],
        out_every=v["out_every"],
    )
    with open(args.out, "w") as fh:
        fh.write("n,variant,duration,mse_velocity,settling_time,error\n")
        for c in result.cells:
            m = c.metrics
            mse = m.mse_velocity if m else float("nan")
            settle = m.settling_time if m else None
            settle = float("nan") if settle is None else settle
            fh.write(
                f"{c.n_vehicles},{c.variant},{c.duration:.6g},{mse:.12e},"
                f"{settle:.6g},{c.error or ''}\n"
            )
    _emit({"table": str(args.out), "slopes": result.slopes})
    return 1 if any(c.error for c in result.cells) else 0


def _cmd_verify(v, args):
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


class Command(NamedTuple):
    fn: Callable
    help: str
    keys: tuple
    overrides: dict = {}
    out: str = None


_DESIGN_KEYS = ("kp", "ki", "xi", "l", "fs", "truncate")
_RUN_KEYS = ("kp", "ki", "xi", "n", "variant", "dt", "fs", "duration",
             "seed", "sigma2", "out_every")

# every subcommand once: handler, help, the keys it reads, its own defaults
# and its default output path
COMMANDS = {
    "approx": Command(
        _cmd_approx, "emit FIR taps and frequency response", _DESIGN_KEYS,
        out=".",
    ),
    "simulate": Command(
        _cmd_simulate, "run one scenario", _RUN_KEYS + ("v_ref",),
        out="trace.csv",
    ),
    "sweep": Command(
        _cmd_sweep, "scaling study over platoon sizes",
        ("kp", "ki", "xi", "dt", "fs", "v_ref", "n_list", "variants", "out_every"),
        overrides={"out_every": 10}, out="sweep.csv",
    ),
    "noise": Command(
        _cmd_simulate, "rest-pose noise experiment", _RUN_KEYS,
        overrides={"v_ref": 0.0, "sigma2": 1.0, "duration": 2000.0},
    ),
    "verify": Command(_cmd_verify, "run self-check suites", _DESIGN_KEYS),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="waveplatoon",
        description="wave-based analysis and control of vehicle platoons",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", type=str, help="INI config file")
        for key in command.keys:
            default, _, text = OPTIONS[key]
            p.add_argument(
                f"--{key.replace('_', '-')}", dest=key, type=type(default),
                help=text,
            )
        p.add_argument("--out", type=str, default=command.out, help="output path")
        if name == "verify":
            p.add_argument(
                "--suite", action="append", choices=SUITES,
                help="restrict to one suite (repeatable)",
            )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].fn(_resolve(args), args)
    except WavePlatoonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
