import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from waveplatoon import cli
from waveplatoon.cli import DEFAULTS, build_parser, load_config, main
from waveplatoon.errors import WavePlatoonError
from waveplatoon.sweep import SweepResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_approx_writes_tables(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "approx", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["iterations"] == DEFAULTS["l"]
    assert payload["taps"] == 1501
    assert abs(payload["tap_sum"] - 1.0) < 0.01

    taps = np.loadtxt(tmp_path / "wave_taps.csv", delimiter=",", skiprows=1)
    assert taps.shape == (1501, 3)
    bode = np.loadtxt(tmp_path / "wave_bode.csv", delimiter=",", skiprows=1)
    assert bode.shape == (400, 3)
    assert np.all(np.isfinite(bode))
    # above 1 rad/s the approximant is converged and respects the unit bound
    fast = bode[:, 0] >= 1.0
    assert np.all(bode[fast, 1] <= 1.0 + 1e-3)


def test_simulate_reports_metrics(tmp_path, capsys):
    trace = tmp_path / "run.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "3", "--duration", "40",
        "--out", str(trace),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"] == str(trace)
    assert payload["settling_time"] is not None
    assert payload["mse_velocity"] > 0.0
    header = trace.read_text().splitlines()[0]
    assert header == "t,x0,x1,x2,v0,v1,v2,d0,d1"


def test_simulate_seeded_runs_identical(tmp_path, capsys):
    argv = [
        "simulate", "--n", "3", "--duration", "10", "--sigma2", "0.2",
        "--seed", "11",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *argv, "--out", str(a))[0] == 0
    assert run_cli(capsys, *argv, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_noise_defaults_and_trace(tmp_path, capsys):
    trace = tmp_path / "noise.csv"
    code, out, _ = run_cli(
        capsys, "noise", "--n", "3", "--duration", "5", "--seed", "2",
        "--out", str(trace),
    )
    assert code == 0
    payload = json.loads(out)
    # the noise experiment forces unit variance unless overridden
    assert payload["mse_pos"] > 0.0
    assert payload["trace"] == str(trace)
    assert trace.exists()


def test_sweep_table_and_slopes(tmp_path, capsys):
    table = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--n-list", "3,4", "--variants", "front",
        "--out", str(table),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["table"] == str(table)
    assert "front" in payload["slopes"]
    lines = table.read_text().splitlines()
    assert lines[0] == "n,variant,duration,mse_velocity,settling_time,error"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "argv,expected", [([], 10), (["--out-every", "3"], 3)], ids=["default", "flag"]
)
def test_sweep_passes_out_every_as_resolved(tmp_path, capsys, monkeypatch, argv, expected):
    seen = {}

    def spy(n_list, variants, **kwargs):
        seen.update(kwargs)
        return SweepResult(cells=(), slopes={})

    monkeypatch.setattr(cli, "sweep", spy)
    code, _, _ = run_cli(
        capsys, "sweep", "--n-list", "3", "--out", str(tmp_path / "s.csv"), *argv
    )
    assert code == 0
    assert seen["out_every"] == expected


def test_verify_exit_codes(tmp_path, capsys):
    report = tmp_path / "verify.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "quadratic", "--suite", "fir",
        "--out", str(report),
    )
    assert code == 0
    assert "all checks passed" in out
    assert json.loads(report.read_text())["passed"] is True

    code, out, _ = run_cli(
        capsys, "verify", "--suite", "end_gains", "--ki", "-4",
    )
    assert code == 1
    assert "some checks FAILED" in out


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[wave]\nl = 2\n\n[controller]\nkp = 5.0\n")
    values = load_config(cfg)
    assert values == {"l": 2, "kp": 5.0}

    code, out, _ = run_cli(
        capsys, "approx", "--config", str(cfg), "--out", str(tmp_path),
    )
    assert code == 0
    assert json.loads(out)["iterations"] == 2

    code, out, _ = run_cli(
        capsys, "approx", "--config", str(cfg), "--l", "3",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert json.loads(out)["iterations"] == 3


def test_unknown_config_option_is_an_error(tmp_path, capsys):
    # a key that would be read and then ignored must not pass silently
    cfg = tmp_path / "run.ini"
    cfg.write_text("[scenario]\nn = 4\nd_ref = 2.0\n")
    with pytest.raises(WavePlatoonError, match="d_ref"):
        load_config(cfg)
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 1
    assert "d_ref" in err
    # sections the CLI does not know are left alone
    cfg.write_text("[scenario]\nn = 4\n\n[notes]\nd_ref = 2.0\n")
    assert load_config(cfg) == {"n": 4}


@pytest.mark.parametrize(
    "ini,section,key,value",
    [
        ("[scenario]\nn = 4.5\n", "scenario", "n", "4.5"),
        ("[controller]\nkp = abc\n", "controller", "kp", "abc"),
    ],
    ids=["int", "float"],
)
def test_config_value_of_the_wrong_type_is_an_error(
    tmp_path, capsys, ini, section, key, value
):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    with pytest.raises(WavePlatoonError, match=rf"\[{section}\] {key} = '{value}'"):
        load_config(cfg)
    code, _, err = run_cli(
        capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv"),
    )
    assert code == 1
    assert err.startswith("error: ") and f"'{value}'" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--n-list", "3,x"], "n_list"),
        (["--n-list", ","], "at least one platoon size"),
        (["--n-list", "3", "--variants", "none,sideways"], "sideways"),
    ],
    ids=["non-integer-size", "no-size", "unknown-variant"],
)
def test_bad_sweep_inputs_are_errors(tmp_path, capsys, argv, message):
    code, _, err = run_cli(
        capsys, "sweep", *argv, "--out", str(tmp_path / "s.csv"),
    )
    assert code == 1
    assert err.startswith("error: ") and message in err


def test_missing_config_is_an_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--config", str(tmp_path / "absent.ini"),
    )
    assert code == 1
    assert "error:" in err
    with pytest.raises(WavePlatoonError):
        load_config(tmp_path / "absent.ini")


def test_parser_rejects_unknown_variant_value(capsys):
    # bad variant names surface as scenario validation errors, exit 1
    code, _, err = run_cli(
        capsys, "simulate", "--n", "3", "--duration", "5",
        "--variant", "sideways",
    )
    assert code == 1
    assert "error:" in err


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize(
    "command,ini,key",
    [
        ("simulate", "[wave]\nl = 2\ntruncate = 3\n", "l, truncate"),
        ("noise", "[scenario]\nv_ref = 1.0\n", "v_ref"),
        ("approx", "[scenario]\nn = 4\n", "n"),
    ],
    ids=["simulate-wave", "noise-v_ref", "approx-scenario"],
)
def test_config_key_the_subcommand_does_not_use_is_an_error(
    tmp_path, capsys, command, ini, key
):
    # a key the subcommand would read and then drop must not pass silently
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    code, _, err = run_cli(
        capsys, command, "--config", str(cfg), "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert f"{command} does not use {key} " in err


def test_simulate_at_rest_is_the_noise_experiment(tmp_path, capsys):
    run = ["--n", "5", "--duration", "50", "--seed", "3"]
    code, out, _ = run_cli(capsys, "noise", *run)
    assert code == 0
    noise = json.loads(out)
    code, out, _ = run_cli(
        capsys, "simulate", "--v-ref", "0", "--sigma2", "1", *run,
        "--out", str(tmp_path / "rest.csv"),
    )
    assert code == 0
    rest = json.loads(out)
    for key in ("mse_dist", "mse_pos", "mean_pos", "max_dist"):
        assert rest[key] == noise[key]


@pytest.mark.parametrize("sigma2", ["-1", "nan"])
def test_bad_noise_variance_is_an_error(tmp_path, capsys, sigma2):
    code, _, err = run_cli(
        capsys, "simulate", "--n", "3", "--duration", "1", "--sigma2", sigma2,
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 1
    assert "variance" in err


def _readme_blocks(language):
    """Fenced ``language`` blocks of README's "Command line" section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", section, re.S)


def test_readme_command_lines_parse_and_its_config_runs(tmp_path, capsys):
    lines = [
        line for line in _readme_blocks("sh")[0].splitlines()
        if line.startswith("waveplatoon ")
    ]
    assert len(lines) >= 5
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])

    (ini,) = _readme_blocks("ini")
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    code, out, err = run_cli(
        capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv"),
    )
    assert code == 0, err
    assert json.loads(out)["settling_time"] is not None
