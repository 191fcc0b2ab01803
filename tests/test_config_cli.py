import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edbeam import (
    DoublePower,
    Forcing,
    IntegratorConfig,
    InvalidConfigurationError,
    K1Monomial,
    K2Constant,
    K3Rational,
    ZeroSource,
    build_model,
    experiments,
)
from edbeam.cli import _start, list_experiments, main, run
from edbeam.config import (
    DAMPING_LAWS,
    SOURCE_LAWS,
    RunConfig,
    build_objects,
    emit_config,
    parse_config,
)
from edbeam.experiments import (
    EXPERIMENTS,
    ExperimentReport,
    _states,
    exp_decomposition,
    exp_entropy,
    exp_k1_decay,
    exp_k2_exponential,
    exp_k3_ball,
    exp_lambda_lipschitz,
    exp_stationary,
    exp_two_trajectory,
    haraux_suite,
    make_initial_state,
    nakao_suite,
)

GOLDEN_RUNS = Path(__file__).parent / "golden" / "runs"


def _unforced(model):
    """The zero source and the zero forcing of ``model``."""
    return ZeroSource(), Forcing.zero(model.n_modes)


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
    assert ids == sorted(EXPERIMENTS)


# `edbeam list` as it read when the descriptions had a table of their own
LIST_OUTPUT = """\
exp_decomposition      contracting + smoothing splitting of the constant-damping flow
exp_entropy            covering-number dimension estimates on synthetic manifolds
exp_k1_decay           two-sided polynomial energy envelope and 1/q rate fit for the monomial damping
exp_k2_exponential     exponential decay fit, floored fit under forcing, absorbing-ball entry
exp_k3_ball            conservation inside and attraction to the unit energy sphere for the threshold damping
exp_lambda_lipschitz   Lipschitz sensitivity of trajectories to the forcing intensity
exp_two_trajectory     feasibility of the two-trajectory difference envelope
haraux_suite           randomized soundness of the norm power-difference bound
nakao_suite            randomized soundness of the window decay lemma
simulate               plain trajectory integration with CSV export
stationary             variational stationary solver with a-priori bound check
"""


def test_list_output_is_pinned(capsys):
    assert main(["list"]) == 0
    assert capsys.readouterr().out == LIST_OUTPUT


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_runner_calls_the_driver_bound_in_experiments(exp_id, tmp_path, monkeypatch):
    # a tracer wraps a driver by rebinding its name in experiments, so the
    # runner must look the name up when it runs
    calls = []

    def fake(*args, **kwargs):
        calls.append(exp_id)
        return ExperimentReport(exp_id)

    monkeypatch.setattr(experiments, {"stationary": "exp_stationary"}.get(exp_id, exp_id), fake)
    cfg = parse_config((GOLDEN_RUNS / f"{exp_id}.ini").read_text(encoding="utf-8"))
    assert run(dataclasses.replace(cfg, output_dir=str(tmp_path)), quiet=True) == 0
    assert calls == [exp_id]


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


def test_run_of_a_directly_built_config(tmp_path):
    # options defaulted to {}, so the run made its directory and then died
    # with KeyError: 'energy2'
    cfg = RunConfig(output_dir=str(tmp_path))
    assert cfg.options == EXPERIMENTS["simulate"].options
    assert run(cfg, quiet=True) == 0
    assert (tmp_path / "simulate-seed0" / "report.txt").is_file()
    assert parse_config(emit_config(cfg)) == cfg
    k1 = RunConfig(experiment_id="exp_k1_decay", options={"fit_lo": 1.0})
    assert k1.options == EXPERIMENTS["exp_k1_decay"].options | {"fit_lo": 1.0}
    assert parse_config(emit_config(k1)) == k1
    with pytest.raises(InvalidConfigurationError, match="experiment_id = 'exp_bogus'"):
        RunConfig(experiment_id="exp_bogus")


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
    inp = _start(parse_config(text))
    assert inp.source.p == 3.0
    direct = tmp_path / "direct"
    direct.mkdir()
    exp_two_trajectory(*inp[:4], *_states(inp, 2), inp.icfg, seed=0, out_dir=str(direct))
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


# (id, key, value): settings that are constants of the driver, so a run file
# that sets one is rejected like any unknown key
REMOVED_KEYS = [
    *[
        (exp_id, "decay", "2.0")
        for exp_id in (
            "simulate", "exp_k1_decay", "exp_k2_exponential", "exp_k3_ball",
            "exp_two_trajectory", "exp_lambda_lipschitz", "exp_decomposition",
        )
    ],
    ("exp_k1_decay", "slack", "0.05"),
    ("exp_k1_decay", "rate_tol", "0.1"),
    ("exp_k3_ball", "outside_lo", "1.5"),
    ("exp_k3_ball", "outside_hi", "4.0"),
    ("exp_decomposition", "probe_eps", "1e-4"),
    ("stationary", "start_scale", "2.0"),
]


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
            "exp_k3_ball",
            "[damping]\nvariant = k3_rational\n[forcing]\nlambda = 0.5\nh = mode:1:5.0\n",
            "",
            "error: exp_k3_ball requires zero forcing",
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
        (
            "exp_decomposition",
            "[damping]\nvariant = k2_constant\n",
            "probe_modes = 2,9\n",
            "error: exp_decomposition requires probe_modes in [1, n_modes]",
        ),
        (
            "exp_decomposition",
            "[damping]\nvariant = k2_constant\n",
            "probe_modes = 0,2\n",
            "error: exp_decomposition requires probe_modes in [1, n_modes]",
        ),
        (
            "exp_k1_decay",
            "[damping]\nvariant = k2_constant\n",
            "",
            "error: exp_k1_decay requires the monomial law",
        ),
        (
            "exp_k3_ball",
            "",
            "",
            "error: exp_k3_ball requires a threshold law",
        ),
        (
            "exp_decomposition",
            "",
            "probe_modes = 2,4\n",
            "error: exp_decomposition requires a constant damping coefficient",
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
        # s = 3 exited 2 after the run directory was made; the lambda options
        # failed with a traceback, and t_probe with an unnamed message
        (
            "exp_decomposition",
            "[damping]\nvariant = k2_constant\n",
            "probe_modes = 2,4\ns = 3.0\n",
            "error: exp_decomposition requires s in (0, 2)",
        ),
        (
            "exp_lambda_lipschitz",
            "",
            "lambda0 = 1.5\n",
            "error: exp_lambda_lipschitz requires lambda0 in [0, 1]",
        ),
        (
            "exp_lambda_lipschitz",
            "",
            "grid_step = 0.0\n",
            "error: [experiment] grid_step = 0.0: grid_step > 0 required",
        ),
        (
            "exp_lambda_lipschitz",
            "",
            "grid_step = 2.0\n",
            "error: exp_lambda_lipschitz requires two grid intensities besides lambda0",
        ),
        (
            "exp_lambda_lipschitz",
            "",
            "lambda0 = 1.0\ngrid_step = 1.0\n",
            "error: exp_lambda_lipschitz requires two grid intensities besides lambda0",
        ),
        (
            "exp_lambda_lipschitz",
            "",
            "t_probe = 0.105\n",
            "error: [experiment] t_probe = 0.105: dt = 0.01 does not divide the horizon 0.105",
        ),
        # a non-finite profile exited 1 with a traceback, or (mode:1:nan)
        # with the message of a malformed profile
        (
            "exp_k2_exponential",
            "[forcing]\nlambda = 0.5\nh = nan,0,0,0,0,0,0,0\n",
            "",
            "error: [forcing] h_coeffs must be finite",
        ),
        (
            "exp_k2_exponential",
            "[forcing]\nlambda = 0.5\nh = mode:1:nan\n",
            "",
            "error: [forcing] h_coeffs must be finite",
        ),
        # ran and exited 1 after making the run directory: tol = -1.0 reported
        # "0/1 converged" and r2_min = nan failed its fit; a fit window that
        # is not finite or lies past the horizon ran the whole integration
        # and then died with "no samples in window"
        (
            "stationary",
            "",
            "tol = -1.0\n",
            "error: [experiment] tol = -1.0: tol > 0 and finite required",
        ),
        (
            "exp_k2_exponential",
            "",
            "r2_min = nan\n",
            "error: [experiment] r2_min = nan: r2_min in (0, 1] required",
        ),
        (
            "exp_k1_decay",
            "",
            "fit_lo = nan\nfit_hi = 0.5\n",
            "error: [experiment] fit_lo = nan: fit_lo >= 0 and finite required",
        ),
        (
            "exp_k1_decay",
            "",
            "fit_lo = 5.0\nfit_hi = 9.0\n",
            "error: [experiment] fit_lo = 5.0: fit_lo < horizon 1.0 required",
        ),
        # a window that starts just before the horizon holds 6 samples; the
        # fit then died after the run with "need >= 10 points in window"
        (
            "exp_k1_decay",
            "",
            "fit_lo = 0.95\nfit_hi = 5.0\n",
            "error: [experiment] fit_lo = 0.95: fit_lo with >= 10 samples in [fit_lo, 5.0] "
            "(6 at dt 0.01, sample_stride 1) required",
        ),
        # a power fit over a window from t = 0 died after the run with
        # "power fit requires positive times"
        (
            "exp_k1_decay",
            "",
            "fit_lo = 0.0\nfit_hi = 0.5\n",
            "error: exp_k1_decay requires fit_lo > 0",
        ),
        # an empty window took its default after parsing, and the run died
        # naming a fit_lo = 0.1 the run file never set
        (
            "exp_k1_decay",
            "sample_stride = 50\n",
            "",
            "error: [experiment] fit_lo = 0.0, fit_hi = 0.0: an empty window takes the "
            "default [horizon/10, horizon] = [0.1, 1.0], with >= 10 samples (2 at dt 0.01, "
            "sample_stride 50) required",
        ),
        *[
            (
                exp_id,
                "",
                f"{key} = {value}\n",
                f"error: [experiment] unknown key '{key}' for {exp_id}",
            )
            for exp_id, key, value in REMOVED_KEYS
        ],
    ],
    ids=[
        "probe_modes_not_integers",
        "two_trajectory_p_exponent",
        "k3_source",
        "k3_forcing",
        "two_trajectory_forcing",
        "decomposition_rk4",
        "probe_mode_above_n_modes",
        "probe_mode_below_one",
        "k1_law",
        "k3_law",
        "decomposition_law",
        "k3_horizon_outside_zero",
        "k3_horizon_outside_off_grid",
        "decomposition_s",
        "lambda0_outside_unit_interval",
        "grid_step_zero",
        "grid_step_above_one",
        "grid_one_point_besides_lambda0",
        "t_probe_off_grid",
        "forcing_list_not_finite",
        "forcing_mode_not_finite",
        "tol_negative",
        "r2_min_not_finite",
        "fit_lo_not_finite",
        "fit_window_past_horizon",
        "fit_window_too_few_samples",
        "k1_fit_window_from_zero",
        "default_fit_window_too_few_samples",
        *[f"removed_{exp_id}_{key}" for exp_id, key, _ in REMOVED_KEYS],
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
    # rejected while parsing, before the run directory is made
    assert not (tmp_path / f"{exp_id}-seed0").exists()


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
    "exp_id, option, call",
    [
        # the suites passed on 0 violations in 0 trials, and stationary ran one start
        ("nakao_suite", "trials = 0", lambda m: nakao_suite(0, 0)),
        ("haraux_suite", "trials = 0", lambda m: haraux_suite(0, 0)),
        # a direct call raised from numpy or from the covering count
        ("exp_entropy", "n_points = 0", lambda m: exp_entropy(0, 0)),
        (
            "stationary",
            "n_starts = 0",
            lambda m: exp_stationary(m, ZeroSource(), Forcing.zero(4), 0),
        ),
        (
            "exp_k1_decay",
            "energy2 = -1.0",
            lambda m: make_initial_state(m, np.random.default_rng(0), -1.0),
        ),
        # the ball run passed on a drift of 0 over 0 runs
        (
            "exp_k3_ball",
            "n_inside = 0",
            lambda m: exp_k3_ball(
                m, K3Rational(1.0), *_unforced(m), [], [], IntegratorConfig(1e-2, 1.0)
            ),
        ),
        # these ran, and failed or died after the integration
        (
            "stationary",
            "tol = -1.0",
            lambda m: exp_stationary(m, ZeroSource(), Forcing.zero(4), 1, tol=-1.0),
        ),
        (
            "exp_k2_exponential",
            "r2_min = 1.5",
            lambda m: exp_k2_exponential(
                m,
                K2Constant(1.0),
                *_unforced(m),
                make_initial_state(m, np.random.default_rng(0)),
                IntegratorConfig(1e-2, 10.0),
                r2_min=1.5,
            ),
        ),
        (
            "exp_k1_decay",
            "fit_lo = nan\nfit_hi = 0.5",
            lambda m: exp_k1_decay(
                m,
                K1Monomial(1.0, 1.0),
                *_unforced(m),
                make_initial_state(m, np.random.default_rng(0)),
                IntegratorConfig(1e-2, 10.0),
                fit_window=(math.nan, 0.5),
            ),
        ),
        # the run file's default horizon is 10
        (
            "exp_k2_exponential",
            "fit_lo = 20.0\nfit_hi = 30.0",
            lambda m: exp_k2_exponential(
                m,
                K2Constant(1.0),
                *_unforced(m),
                make_initial_state(m, np.random.default_rng(0)),
                IntegratorConfig(1e-2, 10.0),
                fit_window=(20.0, 30.0),
            ),
        ),
        # the run file's default dt is 1e-3: six samples from 9.995 to 10
        (
            "exp_k1_decay",
            "fit_lo = 9.995\nfit_hi = 20.0",
            lambda m: exp_k1_decay(
                m,
                K1Monomial(1.0, 1.0),
                *_unforced(m),
                make_initial_state(m, np.random.default_rng(0)),
                IntegratorConfig(1e-3, 10.0),
                fit_window=(9.995, 20.0),
            ),
        ),
        (
            "exp_k2_exponential",
            "fit_lo = 9.995\nfit_hi = 20.0",
            lambda m: exp_k2_exponential(
                m,
                K2Constant(1.0),
                *_unforced(m),
                make_initial_state(m, np.random.default_rng(0)),
                IntegratorConfig(1e-3, 10.0),
                fit_window=(9.995, 20.0),
            ),
        ),
    ],
    ids=[
        "nakao_suite",
        "haraux_suite",
        "exp_entropy",
        "stationary",
        "initial_state",
        "k3_ball",
        "stationary_tol",
        "k2_r2_min",
        "k1_fit_lo",
        "k2_fit_window_past_horizon",
        "k1_fit_window_too_few_samples",
        "k2_fit_window_too_few_samples",
    ],
)
def test_direct_calls_bound_options_as_a_run_file_does(exp_id, option, call):
    with pytest.raises(InvalidConfigurationError) as direct:
        call(build_model(4, math.pi, 0.0, 32))
    with pytest.raises(InvalidConfigurationError) as run_file:
        parse_config(f"[experiment]\nid = {exp_id}\n{option}\n")
    key, value = option.split("\n")[0].split(" = ")
    assert str(direct.value).startswith(f"{key} = {value}: {key} ")
    assert str(direct.value).endswith(" required")
    assert str(run_file.value) == f"[experiment] {direct.value}"


@pytest.mark.parametrize(
    "exp_id, call",
    [
        (
            "exp_k1_decay",
            lambda m, u, icfg: exp_k1_decay(
                m, K1Monomial(1.0, 1.0), *_unforced(m), u, icfg, fit_window=(0.0, 0.0)
            ),
        ),
        (
            "exp_k2_exponential",
            lambda m, u, icfg: exp_k2_exponential(m, K2Constant(1.0), *_unforced(m), u, icfg),
        ),
    ],
    ids=["k1_empty_window", "k2_no_window"],
)
def test_the_default_fit_window_is_resolved_and_checked_once(exp_id, call):
    # one rule makes the default window, for the run file and the direct
    # call alike, and both check it before the run
    model = build_model(8, math.pi, 0.0, 64)
    start = make_initial_state(model, np.random.default_rng(0))
    with pytest.raises(InvalidConfigurationError) as direct:
        call(model, start, IntegratorConfig(dt=0.01, horizon=1.0, sample_stride=50))
    with pytest.raises(InvalidConfigurationError) as run_file:
        parse_config(
            "[model]\nn_modes = 8\n[integrator]\ndt = 0.01\nhorizon = 1.0\n"
            f"sample_stride = 50\n[experiment]\nid = {exp_id}\n"
        )
    assert "[0.1, 1.0]" in str(direct.value)
    assert str(run_file.value) == f"[experiment] {direct.value}"


# (id, requirement) -> the run file's sections and [experiment] options that
# break it, and a direct call of the driver that breaks it.
REQUIREMENT_CASES = {
    ("exp_k1_decay", "the monomial law"): (
        "[damping]\nvariant = k2_constant\n",
        "",
        lambda m, u, icfg: exp_k1_decay(m, K2Constant(1.0), *_unforced(m), u, icfg),
    ),
    ("exp_k1_decay", "fit_lo > 0"): (
        "",
        "fit_lo = 0.0\nfit_hi = 0.5\n",
        lambda m, u, icfg: exp_k1_decay(
            m, K1Monomial(1.0, 1.0), *_unforced(m), u, icfg, fit_window=(0.0, 0.5)
        ),
    ),
    ("exp_k3_ball", "a threshold law"): (
        "",
        "",
        lambda m, u, icfg: exp_k3_ball(m, K1Monomial(1.0, 1.0), *_unforced(m), [], [], icfg),
    ),
    ("exp_k3_ball", "zero forcing"): (
        "[damping]\nvariant = k3_rational\n[forcing]\nlambda = 0.5\nh = mode:1:5.0\n",
        "",
        lambda m, u, icfg: exp_k3_ball(
            m, K3Rational(1.0), ZeroSource(), Forcing.single_mode(8, 1, 5.0, 0.5), [], [], icfg
        ),
    ),
    ("exp_k3_ball", "the zero source"): (
        "[damping]\nvariant = k3_rational\n"
        "[source]\nvariant = double_power\ndelta = 2.0\nr = 1.0\n",
        "",
        lambda m, u, icfg: exp_k3_ball(
            m, K3Rational(1.0), DoublePower(2.0, 1.0), Forcing.zero(8), [], [], icfg
        ),
    ),
    ("exp_two_trajectory", "the monomial law"): (
        "[damping]\nvariant = k2_constant\n",
        "",
        lambda m, u, icfg: exp_two_trajectory(m, K2Constant(1.0), *_unforced(m), u, u, icfg),
    ),
    ("exp_two_trajectory", "zero forcing"): (
        "[forcing]\nlambda = 0.5\nh = mode:1:5.0\n",
        "",
        lambda m, u, icfg: exp_two_trajectory(
            m, K1Monomial(1.0, 1.0), ZeroSource(), Forcing.single_mode(8, 1, 5.0, 0.5), u, u,
            icfg,
        ),
    ),
    ("exp_decomposition", "a constant damping coefficient"): (
        "",
        "probe_modes = 2,4\n",
        lambda m, u, icfg: exp_decomposition(
            m, K1Monomial(1.0, 1.0), ZeroSource(), Forcing.zero(8), u, u, icfg,
            probe_modes=(2, 4),
        ),
    ),
    ("exp_decomposition", "scheme = strang"): (
        # a leading key lands in the [integrator] section
        "scheme = rk4\n[damping]\nvariant = k2_constant\n",
        "probe_modes = 2,4\n",
        lambda m, u, icfg: exp_decomposition(
            m, K2Constant(1.0), ZeroSource(), Forcing.zero(8), u, u,
            dataclasses.replace(icfg, scheme="rk4"), probe_modes=(2, 4),
        ),
    ),
    ("exp_decomposition", "s in (0, 2)"): (
        "[damping]\nvariant = k2_constant\n",
        "probe_modes = 2,4\ns = 3.0\n",
        lambda m, u, icfg: exp_decomposition(
            m, K2Constant(1.0), ZeroSource(), Forcing.zero(8), u, u, icfg,
            s=3.0, probe_modes=(2, 4),
        ),
    ),
    ("exp_decomposition", "probe_modes in [1, n_modes]"): (
        "[damping]\nvariant = k2_constant\n",
        "probe_modes = 2,9\n",
        lambda m, u, icfg: exp_decomposition(
            m, K2Constant(1.0), ZeroSource(), Forcing.zero(8), u, u, icfg,
            probe_modes=(2, 9),
        ),
    ),
    ("exp_lambda_lipschitz", "lambda0 in [0, 1]"): (
        "",
        "lambda0 = 1.5\n",
        lambda m, u, icfg: exp_lambda_lipschitz(
            m, K1Monomial(1.0, 1.0), *_unforced(m), u, icfg,
            lambdas=[0.0, 0.1], lambda0=1.5, t_probe=1.0,
        ),
    ),
    ("exp_lambda_lipschitz", "two grid intensities besides lambda0"): (
        "",
        "grid_step = 2.0\n",
        lambda m, u, icfg: exp_lambda_lipschitz(
            m, K1Monomial(1.0, 1.0), *_unforced(m), u, icfg,
            lambdas=[0.0], lambda0=0.5, t_probe=1.0,
        ),
    ),
}


@pytest.mark.parametrize(
    "exp_id, need",
    [(exp_id, need) for exp_id, row in EXPERIMENTS.items() for need in row.requires],
)
def test_run_file_and_direct_call_break_a_requirement_alike(exp_id, need):
    sections, options, call = REQUIREMENT_CASES[exp_id, need]
    with pytest.raises(InvalidConfigurationError) as run_file:
        parse_config(
            "[model]\nn_modes = 8\n[integrator]\ndt = 0.01\nhorizon = 1.0\n"
            f"{sections}[experiment]\nid = {exp_id}\n{options}"
        )
    assert str(run_file.value) == f"{exp_id} requires {need}"
    model = build_model(8, math.pi, 0.0, 64)
    start = make_initial_state(model, np.random.default_rng(0))
    with pytest.raises(InvalidConfigurationError) as direct:
        call(model, start, IntegratorConfig(dt=0.01, horizon=1.0))
    assert str(direct.value) == str(run_file.value)


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
        (["simulate"], "[run]\nseed = -1\n", 2, "error: [run] seed = -1: 64-bit value required\n"),
        # --seed skipped the [run] check: numpy raised from default_rng and
        # left an empty run directory, or the run wrote a manifest that
        # parse_config rejects
        (
            ["simulate", "--seed", "-1"],
            "",
            2,
            "error: [run] seed = -1: 64-bit value required\n",
        ),
        (
            ["simulate", "--seed", str(2**64)],
            "",
            2,
            f"error: [run] seed = {2**64}: 64-bit value required\n",
        ),
    ],
    ids=[
        "k3_no_id_bad_horizon_outside",
        "other_id",
        "suite_no_id",
        "integrator_type",
        "seed_negative_in_file",
        "seed_negative_override",
        "seed_above_64_bits_override",
    ],
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
