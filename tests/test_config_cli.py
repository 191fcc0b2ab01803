import math
import subprocess
import sys

import numpy as np
import pytest

from edbeam import InvalidConfigurationError
from edbeam.cli import _RUNNERS, _start, list_experiments, main, run
from edbeam.config import (
    DAMPING_LAWS,
    EXPERIMENT_OPTIONS,
    SOURCE_LAWS,
    build_objects,
    emit_config,
    parse_config,
)
from edbeam.experiments import DRIVER_DESCRIPTIONS, exp_two_trajectory


def test_parse_minimal_defaults():
    cfg = parse_config("")
    assert cfg.model.n_modes == 16
    assert cfg.model.length == pytest.approx(math.pi, rel=1e-15)
    assert cfg.model.quad_points is None  # resolved to 8 N at build time
    model, damping, source, forcing = build_objects(cfg)
    assert model.quad_points == 8 * 16
    assert forcing.effective_norm == 0.0


def test_parse_rejects_small_q():
    text = "[damping]\nvariant = k1\nq = 0.3\n"
    with pytest.raises(InvalidConfigurationError, match="q >= 1/2"):
        parse_config(text)


def test_parse_rejects_bad_lambda():
    with pytest.raises(InvalidConfigurationError, match=r"lambda in \[0, 1\]"):
        parse_config("[forcing]\nlambda = 1.5\n")


def test_parse_rejects_unknown_key_and_section():
    with pytest.raises(InvalidConfigurationError, match="unknown key"):
        parse_config("[model]\nmodes = 4\n")
    with pytest.raises(InvalidConfigurationError, match="unknown section"):
        parse_config("[beam]\nx = 1\n")
    with pytest.raises(InvalidConfigurationError, match="unknown key"):
        parse_config("[experiment]\nid = exp_k1_decay\nbogus = 3\n")


def test_parse_syntax_error_carries_line():
    bad = "[model]\nn_modes = 4\nthis is not a pair\n"
    with pytest.raises(InvalidConfigurationError, match="line"):
        parse_config(bad)


def test_parse_forcing_specs():
    cfg = parse_config("[forcing]\nlambda = 0.5\nh = mode:2:1.5\n")
    _, _, _, forcing = build_objects(cfg)
    assert forcing.h_coeffs[1] == 1.5
    assert forcing.effective_norm == pytest.approx(0.75)
    cfg2 = parse_config(
        "[model]\nn_modes = 3\n[forcing]\nh = 1.0, 0.0, -2.0\n"
    )
    _, _, _, f2 = build_objects(cfg2)
    assert np.all(f2.h_coeffs == [1.0, 0.0, -2.0])
    with pytest.raises(InvalidConfigurationError, match="mode 9"):
        parse_config("[model]\nn_modes = 4\n[forcing]\nh = mode:9:1.0\n")
    with pytest.raises(InvalidConfigurationError, match="entries"):
        parse_config("[model]\nn_modes = 4\n[forcing]\nh = 1.0, 2.0\n")


def test_round_trip():
    text = """
[model]
n_modes = 12
length = 2.5
kappa = 0.25

[damping]
variant = k2_rational
gamma = 0.75

[source]
variant = double_power
delta = 2.0
r = 1.0
sigma = 4.0

[forcing]
lambda = 0.25
h = mode:1:2.0

[integrator]
dt = 0.005
horizon = 12.0
scheme = rk4
alpha = 0.5
sample_stride = 4

[experiment]
id = exp_k2_exponential
r2_min = 0.99

[run]
seed = 77
output_dir = out
"""
    cfg = parse_config(text)
    assert parse_config(emit_config(cfg)) == cfg


@pytest.mark.parametrize("source", sorted(SOURCE_LAWS))
@pytest.mark.parametrize("damping", sorted(DAMPING_LAWS))
def test_round_trip_every_law(damping, source):
    # values off the defaults, so the emitted file has to carry them
    text = f"[damping]\nvariant = {damping}\ngamma = 0.75\n"
    if damping == "k1":
        text += "q = 1.5\n"
    text += f"[source]\nvariant = {source}\n"
    if source == "double_power":
        text += "delta = 3.0\nr = 0.5\nsigma = 0.125\n"
    cfg = parse_config(text)
    assert type(cfg.damping) is DAMPING_LAWS[damping][0]
    assert type(cfg.source) is SOURCE_LAWS[source][0]
    assert cfg.damping.gamma == 0.75
    assert parse_config(emit_config(cfg)) == cfg
    _, damping_law, source_law, _ = build_objects(cfg)
    assert damping_law is cfg.damping and source_law is cfg.source


def test_list_experiments_catalog(capsys):
    ids = list_experiments()
    out = capsys.readouterr().out
    assert "exp_k3_ball" in out
    assert "nakao_suite" in out
    assert set(_RUNNERS) == set(ids)
    # catalog covers every registered driver description
    assert set(DRIVER_DESCRIPTIONS) <= set(ids)
    assert set(EXPERIMENT_OPTIONS) == set(_RUNNERS)


def test_run_simulate_zero_initial(tmp_path):
    text = (
        "[model]\nn_modes = 4\n"
        "[integrator]\ndt = 0.01\nhorizon = 0.5\n"
        "[experiment]\nid = simulate\nenergy2 = 0.0\n"
        f"[run]\nseed = 3\noutput_dir = {tmp_path}\n"
    )
    cfg = parse_config(text)
    assert run(cfg, quiet=True) == 0
    csv = (tmp_path / "simulate-seed3" / "trajectory.csv").read_text().splitlines()
    data = np.loadtxt(csv[1:], delimiter=",")
    assert np.all(data[:, 1:] == 0.0)  # all-zero trajectory
    manifest = (tmp_path / "simulate-seed3" / "manifest.ini").read_text()
    assert "edbeam" in manifest and "seed = 3" in manifest


def test_run_determinism_byte_identical(tmp_path):
    base = (
        "[model]\nn_modes = 6\n"
        "[damping]\nvariant = k1\ngamma = 1.0\nq = 1.0\n"
        "[integrator]\ndt = 0.01\nhorizon = 2.0\nsample_stride = 5\nalpha = 0.5\n"
        "[experiment]\nid = simulate\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(parse_config(base + f"[run]\nseed = 9\noutput_dir = {out1}\n"), quiet=True)
    run(parse_config(base + f"[run]\nseed = 9\noutput_dir = {out2}\n"), quiet=True)
    c1 = (out1 / "simulate-seed9" / "trajectory.csv").read_bytes()
    c2 = (out2 / "simulate-seed9" / "trajectory.csv").read_bytes()
    assert c1 == c2


def test_runs_do_not_share_directories(tmp_path):
    base = (
        "[model]\nn_modes = 4\n"
        "[integrator]\ndt = 0.01\nhorizon = 0.2\n"
        "[experiment]\nid = simulate\n"
    )
    run(parse_config(base + f"[run]\nseed = 1\noutput_dir = {tmp_path}\n"), quiet=True)
    run(parse_config(base + f"[run]\nseed = 2\noutput_dir = {tmp_path}\n"), quiet=True)
    d1 = sorted(p.name for p in (tmp_path / "simulate-seed1").iterdir())
    d2 = sorted(p.name for p in (tmp_path / "simulate-seed2").iterdir())
    assert d1 == d2 == ["manifest.ini", "report.txt", "trajectory.csv"]


def test_cli_list_and_exit_codes(tmp_path):
    assert main(["list"]) == 0
    cfg_file = tmp_path / "bad.ini"
    cfg_file.write_text("[damping]\nvariant = k1\nq = 0.1\n")
    assert main(["simulate", "--config", str(cfg_file)]) == 2


def test_cli_nakao_suite_small(tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text("[experiment]\nid = nakao_suite\ntrials = 20\n")
    code = main(
        ["nakao-suite", "--config", str(cfg_file), "--seed", "5", "--out", str(tmp_path), "--quiet"]
    )
    assert code == 0
    report = (tmp_path / "nakao_suite-seed5" / "report.txt").read_text()
    assert "PASS" in report


def test_cli_exp_k1_small(tmp_path):
    cfg_file = tmp_path / "run.ini"
    # the slope targets need an asymptotic window, so the smoke run is long
    # but coarse (the exact rotation tolerates dt * omega_max >> 1)
    cfg_file.write_text(
        "[model]\nn_modes = 8\n"
        "[damping]\nvariant = k1\ngamma = 1.0\nq = 1.0\n"
        "[integrator]\ndt = 0.01\nhorizon = 2000.0\nalpha = 0.5\nsample_stride = 20\n"
        "[experiment]\nid = exp_k1_decay\nfit_lo = 100.0\nfit_hi = 2000.0\n"
    )
    code = main(
        ["exp", "exp_k1_decay", "--config", str(cfg_file), "--out", str(tmp_path), "--quiet"]
    )
    assert code == 0
    run_dir = tmp_path / "exp_k1_decay-seed0"
    assert (run_dir / "envelope.csv").exists()
    assert (run_dir / "trajectory.csv").exists()
    assert "PASS" in (run_dir / "report.txt").read_text()


def test_cli_stationary_small(tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(
        "[model]\nn_modes = 8\n"
        "[source]\nvariant = double_power\ndelta = 2.0\nr = 1.0\nsigma = 10.0\n"
        "[experiment]\nid = stationary\nn_starts = 4\n"
    )
    code = main(["stationary", "--config", str(cfg_file), "--out", str(tmp_path), "--quiet"])
    assert code == 0
    csv = (tmp_path / "stationary-seed0" / "stationary.csv").read_text().splitlines()
    assert csv[0].startswith("lambda,functional_value,residual,c_1")
    assert len(csv) >= 2


def test_cli_two_trajectory_takes_p_from_the_source(tmp_path):
    # the run-file option fixed p = 2 whatever the source's delta
    text = (
        "[model]\nn_modes = 8\n"
        "[damping]\nvariant = k1\ngamma = 1.0\nq = 1.0\n"
        "[source]\nvariant = double_power\ndelta = 3.0\nr = 1.0\n"
        "[integrator]\ndt = 0.01\nhorizon = 2.0\nalpha = 0.5\nsample_stride = 5\n"
        "[experiment]\nid = exp_two_trajectory\n"
    )
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(text)
    out = tmp_path / "cli"
    code = main(
        ["exp", "exp_two_trajectory", "--config", str(cfg_file), "--out", str(out), "--quiet"]
    )
    assert code == 0
    cfg = parse_config(text)
    model, damping, source, _, _, (u1, u2) = _start(cfg, 2)
    assert source.p == 3.0
    direct = tmp_path / "direct"
    direct.mkdir()
    exp_two_trajectory(
        model, damping, u1, u2, cfg.integrator, source=source, seed=0, out_dir=str(direct)
    )
    got = (out / "exp_two_trajectory-seed0" / "difference.csv").read_bytes()
    assert got == (direct / "difference.csv").read_bytes()


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "edbeam.cli", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "exp_k3_ball" in proc.stdout


def test_cli_missing_config_is_clean_error(capsys):
    assert main(["simulate", "--config", "no/such/file.ini"]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_parse_rejects_dt_not_dividing_horizon():
    with pytest.raises(InvalidConfigurationError, match=r"^\[integrator\] dt = 0.3 does not divide"):
        parse_config("[integrator]\ndt = 0.3\nhorizon = 1.0\n")


def test_parse_law_errors_name_the_section():
    with pytest.raises(InvalidConfigurationError, match=r"^\[damping\] gamma must be > 0"):
        parse_config("[damping]\nvariant = k3_rational\ngamma = 0.0\n")
    with pytest.raises(InvalidConfigurationError, match=r"^\[damping\] q does not apply"):
        parse_config("[damping]\nvariant = k2_constant\nq = 1.0\n")
    with pytest.raises(InvalidConfigurationError, match=r"^\[source\] need 0 < r < delta"):
        parse_config("[source]\nvariant = double_power\ndelta = 1.0\nr = 2.0\n")
    with pytest.raises(InvalidConfigurationError, match=r"^\[source\] double_power requires r$"):
        parse_config("[source]\nvariant = double_power\ndelta = 1.0\n")




@pytest.mark.parametrize(
    "exp_id, sections, options, message",
    [
        (
            "exp_decomposition",
            "[damping]\nvariant = k2_constant\n",
            "probe_modes = 2,x\n",
            "error: [experiment] probe_modes = '2,x'",
        ),
        # p comes from the source; the option that overrode it is gone
        (
            "exp_two_trajectory",
            "",
            "p_exponent = 2.0\n",
            "error: [experiment] unknown key 'p_exponent'",
        ),
        # each run below used to go ahead without the input and exit 0
        (
            "exp_k3_ball",
            "[damping]\nvariant = k3_rational\n"
            "[source]\nvariant = double_power\ndelta = 2.0\nr = 1.0\n",
            "n_inside = 1\nn_outside = 1\n",
            "error: exp_k3_ball requires the zero source",
        ),
        (
            "exp_two_trajectory",
            "[forcing]\nlambda = 0.5\nh = mode:1:5.0\n",
            "",
            "error: exp_two_trajectory requires zero forcing",
        ),
        (
            "exp_decomposition",
            # a leading key lands in the [integrator] section
            "scheme = rk4\n[damping]\nvariant = k2_constant\n",
            "probe_modes = 2,4\n",
            "error: exp_decomposition requires scheme = strang",
        ),
        # horizon_outside = 0 crashed, and 60.005 was stepped as 60.0
        (
            "exp_k3_ball",
            "[damping]\nvariant = k3_rational\n",
            "horizon_outside = 0\n",
            "error: [experiment] horizon_outside = 0.0: horizon must be > 0",
        ),
        (
            "exp_k3_ball",
            "[damping]\nvariant = k3_rational\n",
            "horizon_outside = 60.005\n",
            "error: [experiment] horizon_outside = 60.005: dt = 0.01 does not divide",
        ),
    ],
    ids=[
        "probe_modes_not_integers",
        "two_trajectory_p_exponent",
        "k3_source",
        "two_trajectory_forcing",
        "decomposition_rk4",
        "k3_horizon_outside_zero",
        "k3_horizon_outside_off_grid",
    ],
)
def test_cli_rejects_input_it_would_drop(tmp_path, capsys, exp_id, sections, options, message):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(
        "[model]\nn_modes = 8\n[integrator]\ndt = 0.01\nhorizon = 1.0\n"
        f"{sections}[experiment]\nid = {exp_id}\n{options}"
    )
    code = main(["exp", exp_id, "--config", str(cfg_file), "--out", str(tmp_path), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / f"{exp_id}-seed0" / "report.txt").exists()


@pytest.mark.parametrize(
    "exp_id, option",
    [
        ("nakao_suite", "trials = -5"),  # passed on 0 violations in 0 trials
        ("haraux_suite", "trials = 0"),
        ("exp_k3_ball", "n_outside = -3"),  # dropped the outside criteria
        ("exp_k3_ball", "n_inside = 0"),
        ("stationary", "n_starts = 0"),  # ran one start
        ("exp_entropy", "n_points = 0"),  # traceback
        ("exp_k1_decay", "energy2 = -1.0"),  # traceback
    ],
)
def test_cli_rejects_bad_counts(tmp_path, capsys, exp_id, option):
    key, value = option.split(" = ")
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(f"[experiment]\nid = {exp_id}\n{option}\n")
    code = main(["exp", exp_id, "--config", str(cfg_file), "--out", str(tmp_path), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: [experiment] {key} = {value}: {key} >= {0.0 if key == 'energy2' else 1} "
        "required\n"
    )
    assert not (tmp_path / f"{exp_id}-seed0").exists()


@pytest.mark.parametrize(
    "command, text, code, expected",
    [
        # the experiment's options were swapped in after the checks, so the
        # inside runs went ahead and the outside horizon failed unnamed
        (
            ["exp", "exp_k3_ball"],
            "[model]\nn_modes = 8\n[damping]\nvariant = k3_rational\n"
            "[integrator]\ndt = 0.3\nhorizon = 0.9\n",
            2,
            "error: [experiment] horizon_outside = 1000.0: dt = 0.3 does not divide",
        ),
        # the other experiment's options were dropped without a word
        (
            ["exp", "exp_two_trajectory"],
            "[model]\nn_modes = 8\n[integrator]\ndt = 0.01\nhorizon = 1.0\n"
            "[experiment]\nid = exp_k1_decay\nslack = 0.5\n",
            2,
            "error: [experiment] id = exp_k1_decay: the command runs exp_two_trajectory\n",
        ),
        # the options were checked against those of simulate
        (["nakao-suite"], "[experiment]\ntrials = 20\n", 0, "0 violations in 80 trials"),
        # the section was named twice
        (["simulate"], "[integrator]\ndt = x\n", 2, "error: [integrator] dt = 'x': expected float\n"),
    ],
    ids=["k3_no_id_bad_horizon_outside", "other_id", "suite_no_id", "integrator_type"],
)
def test_cli_resolves_the_command_experiment_at_parse_time(
    tmp_path, capsys, command, text, code, expected
):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(text)
    out = tmp_path / "out"
    assert main([*command, "--config", str(cfg_file), "--out", str(out), "--quiet"]) == code
    if code == 2:
        assert capsys.readouterr().err.startswith(expected)
        assert not out.exists()
    else:
        (report,) = out.glob("*-seed0/report.txt")
        assert expected in report.read_text()
