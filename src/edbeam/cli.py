"""Command-line front end.

Subcommands::

    edbeam simulate      --config run.ini [--seed N] [--out DIR] [--quiet]
    edbeam exp <id>      --config run.ini [--seed N] [--out DIR] [--quiet]
    edbeam nakao-suite   [--config run.ini] [--seed N] [--out DIR]
    edbeam haraux-suite  [--config run.ini] [--seed N] [--out DIR]
    edbeam stationary    --config run.ini [--seed N] [--out DIR]
    edbeam list

Every run writes its artifacts into ``<output_dir>/<experiment>-seed<seed>/``:
a ``report.txt`` with one pass/fail line per criterion, a ``manifest.ini``
echoing the resolved configuration and software version, and CSV series.
Exit status is 0 iff every criterion passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import build_objects, emit_config, lambda_grid, parse_config
from .errors import InvalidConfigurationError
from .experiments import (
    DRIVER_DESCRIPTIONS,
    DecompositionConfig,
    ExperimentReport,
    box_count_entropy,
    exp_decomposition,
    exp_k1_decay,
    exp_k2_exponential,
    exp_k3_ball,
    exp_lambda_lipschitz,
    exp_two_trajectory,
    haraux_suite,
    make_initial_state,
    nakao_suite,
    synthetic_circle,
    synthetic_torus,
)
from .integrate import integrate
from .laws import assumption_constants
from .series import write_csv
from .stationary import multi_start, stationary_bound_check


def _default_window(opts, horizon):
    lo, hi = opts.get("fit_lo", 0.0), opts.get("fit_hi", 0.0)
    if hi <= lo:
        return (horizon / 10.0, horizon)
    return (lo, hi)


def _start(cfg, n_states=0):
    """(model, damping, source, forcing, rng, states) for one run.

    ``states`` holds ``n_states`` random initial states drawn from the run's
    seeded generator with the ``energy2`` and ``decay`` options.
    """
    model, damping, source, forcing = build_objects(cfg)
    rng = np.random.default_rng(cfg.seed)
    states = [
        make_initial_state(model, rng, cfg.options["energy2"], cfg.options["decay"])
        for _ in range(n_states)
    ]
    return model, damping, source, forcing, rng, states


def _run_simulate(cfg, run_dir):
    model, damping, source, forcing, _, (initial,) = _start(cfg, 1)
    traj = integrate(model, source, damping, forcing, initial, cfg.integrator)
    traj.write_csv(run_dir / "trajectory.csv")
    report = ExperimentReport("simulate", seed=cfg.seed)
    report.add("completed", True, f"{traj.n_samples} samples over [0, {traj.t[-1]:g}]")
    report.artifacts.append("trajectory.csv")
    return report


def _run_exp_k1(cfg, run_dir):
    model, damping, source, forcing, _, (initial,) = _start(cfg, 1)
    window = _default_window(cfg.options, cfg.integrator.horizon)
    return exp_k1_decay(
        model,
        damping,
        initial,
        cfg.integrator,
        source=source,
        forcing=forcing,
        slack=cfg.options["slack"],
        fit_window=window,
        rate_tol=cfg.options["rate_tol"],
        seed=cfg.seed,
        out_dir=str(run_dir),
    )


def _run_exp_k2(cfg, run_dir):
    model, damping, source, forcing, _, (initial,) = _start(cfg, 1)
    window = _default_window(cfg.options, cfg.integrator.horizon)
    return exp_k2_exponential(
        model,
        damping,
        initial,
        cfg.integrator,
        source=source,
        forcing=forcing,
        fit_window=window,
        r2_min=cfg.options["r2_min"],
        seed=cfg.seed,
        out_dir=str(run_dir),
    )


def _run_exp_k3(cfg, run_dir):
    model, damping, _, _, rng, _ = _start(cfg)
    opts = cfg.options
    inside = [
        make_initial_state(model, rng, rng.uniform(0.05, 0.95), opts["decay"])
        for _ in range(int(opts["n_inside"]))
    ]
    outside = [
        make_initial_state(
            model, rng, rng.uniform(opts["outside_lo"], opts["outside_hi"]), opts["decay"]
        )
        for _ in range(int(opts["n_outside"]))
    ]
    return exp_k3_ball(
        model,
        damping,
        inside,
        outside,
        cfg.integrator,
        horizon_outside=opts["horizon_outside"],
        seed=cfg.seed,
        out_dir=str(run_dir),
    )


def _run_exp_two(cfg, run_dir):
    model, damping, source, _, _, (u1, u2) = _start(cfg, 2)
    return exp_two_trajectory(
        model,
        damping,
        u1,
        u2,
        cfg.integrator,
        source=source,
        seed=cfg.seed,
        out_dir=str(run_dir),
    )


def _run_exp_lambda(cfg, run_dir):
    model, damping, source, forcing, _, (initial,) = _start(cfg, 1)
    return exp_lambda_lipschitz(
        model,
        damping,
        source,
        forcing.h_coeffs,
        lambda_grid(cfg.options),
        cfg.options["lambda0"],
        cfg.options["t_probe"],
        initial,
        cfg.integrator,
        seed=cfg.seed,
        out_dir=str(run_dir),
    )


def _run_exp_decomposition(cfg, run_dir):
    model, damping, source, forcing, _, (u1, u2) = _start(cfg, 2)
    opts = cfg.options
    dcfg = DecompositionConfig(s=opts["s"], probe_modes=opts["probe_modes"])
    return exp_decomposition(
        model,
        damping,
        source,
        forcing,
        u1,
        u2,
        dcfg,
        cfg.integrator,
        probe_eps=opts["probe_eps"],
        seed=cfg.seed,
        out_dir=str(run_dir),
    )


def _run_exp_entropy(cfg, run_dir):
    rng = np.random.default_rng(cfg.seed)
    n = int(cfg.options["n_points"])
    report = ExperimentReport("exp_entropy", seed=cfg.seed)
    circle = box_count_entropy(
        synthetic_circle(n, rng), np.geomspace(0.5, 0.02, 8)
    )
    report.add(
        "circle_dimension",
        abs(circle.dimension - 1.0) <= 0.2,
        f"estimated {circle.dimension:.4f}",
    )
    torus = box_count_entropy(
        synthetic_torus(n, rng), np.geomspace(1.2, 0.18, 6)
    )
    report.add(
        "torus_dimension",
        abs(torus.dimension - 2.0) <= 0.3,
        f"estimated {torus.dimension:.4f}",
    )
    report.metrics["circle_dimension"] = circle.dimension
    report.metrics["torus_dimension"] = torus.dimension
    return report


def _run_suite(cfg, run_dir):
    suite = nakao_suite if cfg.experiment_id == "nakao_suite" else haraux_suite
    return suite(seed=cfg.seed, trials=int(cfg.options["trials"]))


def _run_stationary(cfg, run_dir):
    model, _, source, forcing, rng, _ = _start(cfg)
    opts = cfg.options
    starts = [np.zeros(model.n_modes)]
    j = np.arange(1, model.n_modes + 1, dtype=float)
    for _ in range(int(opts["n_starts"]) - 1):
        starts.append(opts["start_scale"] * rng.standard_normal(model.n_modes) * j**-2.0)
    results = multi_start(model, source, forcing, starts, tol=opts["tol"])
    constants = assumption_constants(source, model=model)
    report = ExperimentReport("stationary", seed=cfg.seed)
    report.add(
        "all_converged",
        all(r.converged for r in results),
        f"{sum(r.converged for r in results)}/{len(results)} converged "
        f"({len(starts)} starts, {len(results)} distinct)",
    )
    checks = [stationary_bound_check(model, constants, forcing, r) for r in results]
    report.add(
        "bound_check",
        all(c.ok for c in checks),
        "; ".join(f"lhs {c.lhs:.4g} <= rhs {c.rhs:.4g}" for c in checks[:4]),
    )
    report.metrics["n_distinct"] = len(results)
    report.metrics["best_value"] = min(r.functional_value for r in results)
    header = ["lambda", "functional_value", "residual"]
    header += [f"c_{k}" for k in range(1, model.n_modes + 1)]
    rows = [[forcing.lam, r.functional_value, r.residual, *r.coeffs] for r in results]
    write_csv(run_dir / "stationary.csv", header, [rows])
    report.artifacts.append("stationary.csv")
    return report


_RUNNERS = {
    "simulate": _run_simulate,
    "exp_k1_decay": _run_exp_k1,
    "exp_k2_exponential": _run_exp_k2,
    "exp_k3_ball": _run_exp_k3,
    "exp_two_trajectory": _run_exp_two,
    "exp_lambda_lipschitz": _run_exp_lambda,
    "exp_decomposition": _run_exp_decomposition,
    "exp_entropy": _run_exp_entropy,
    "nakao_suite": _run_suite,
    "haraux_suite": _run_suite,
    "stationary": _run_stationary,
}


def run(cfg, quiet=False):
    """Dispatch a parsed RunConfig; returns the process exit status."""
    run_dir = Path(cfg.output_dir) / f"{cfg.experiment_id}-seed{cfg.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    report = _RUNNERS[cfg.experiment_id](cfg, run_dir)
    text = report.to_text()
    (run_dir / "report.txt").write_text(text, encoding="utf-8")
    manifest = f"# edbeam {__version__}\n" + emit_config(cfg)
    (run_dir / "manifest.ini").write_text(manifest, encoding="utf-8")
    if not quiet:
        sys.stdout.write(text)
    return 0 if report.passed else 1


def list_experiments(stream=None):
    """Print the experiment catalog."""
    stream = stream or sys.stdout
    ids = sorted(DRIVER_DESCRIPTIONS)
    for name in ids:
        stream.write(f"{name:22s} {DRIVER_DESCRIPTIONS[name]}\n")
    return ids


def _load_config(args, experiment_id):
    text = ""
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise InvalidConfigurationError(f"cannot read config: {exc}") from None
    cfg = parse_config(text, experiment_id)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["output_dir"] = args.out
    return dataclasses.replace(cfg, **updates)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="edbeam",
        description="Spectral simulator and verification lab for nonlocally damped beams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="run file (INI sections of key = value)")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        p.add_argument("--out", default=None, help="override [run] output_dir")
        p.add_argument("--quiet", action="store_true", help="suppress report echo")

    add_common(sub.add_parser("simulate", help="integrate and export a trajectory"))
    p_exp = sub.add_parser("exp", help="run a named experiment")
    p_exp.add_argument("id", choices=sorted(_RUNNERS))
    add_common(p_exp)
    add_common(sub.add_parser("nakao-suite", help="randomized decay-lemma sweep"))
    add_common(sub.add_parser("haraux-suite", help="randomized power-bound sweep"))
    add_common(sub.add_parser("stationary", help="variational stationary solver"))
    sub.add_parser("list", help="list experiments")

    args = parser.parse_args(argv)
    if args.command == "list":
        list_experiments()
        return 0

    exp_id = args.id if args.command == "exp" else args.command.replace("-", "_")
    try:
        cfg = _load_config(args, exp_id)
        return run(cfg, quiet=args.quiet)
    except InvalidConfigurationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
