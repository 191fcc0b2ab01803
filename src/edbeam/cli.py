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
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__
from .config import build_objects, emit_config, lambda_grid, parse_config
from .errors import InvalidConfigurationError
from .experiments import (
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
    simulate,
)

_Start = namedtuple("_Start", "model damping source forcing icfg opts rng")


def _start(cfg):
    """A run's inputs: the run file's model, damping, source, forcing,
    integrator settings ``icfg`` and experiment options ``opts``, and the
    run's seeded generator ``rng``."""
    return _Start(*build_objects(cfg), cfg.integrator, cfg.options, np.random.default_rng(cfg.seed))


def _states(inp, n):
    """``n`` initial states drawn in turn from the run's generator with the
    ``energy2`` option."""
    return [make_initial_state(inp.model, inp.rng, inp.opts["energy2"]) for _ in range(n)]


def _ball_starts(inp):
    """exp_k3_ball's inside and outside starts, drawn in turn from the run's
    generator: 2E uniform in (0.05, 0.95) inside the unit ball, and uniform
    in (2, 8) outside it."""
    model, opts, rng = inp.model, inp.opts, inp.rng
    inside = [
        make_initial_state(model, rng, rng.uniform(0.05, 0.95)) for _ in range(opts["n_inside"])
    ]
    outside = [
        make_initial_state(model, rng, rng.uniform(2.0, 8.0)) for _ in range(opts["n_outside"])
    ]
    return inside, outside


# experiment id -> (runner, `edbeam list` description).  A runner takes the
# _start inputs and the driver's seed= and out_dir=.  It looks its driver up
# in this module when it runs, so a driver rebound here (as a tracer does)
# is the one that runs.
_RUNNERS = {
    "simulate": (
        lambda inp, **out: simulate(
            inp.model, inp.damping, inp.source, inp.forcing, *_states(inp, 1), inp.icfg, **out
        ),
        "plain trajectory integration with CSV export",
    ),
    "exp_k1_decay": (
        lambda inp, **out: exp_k1_decay(
            inp.model,
            inp.damping,
            *_states(inp, 1),
            inp.icfg,
            source=inp.source,
            forcing=inp.forcing,
            fit_window=(inp.opts["fit_lo"], inp.opts["fit_hi"]),
            **out,
        ),
        "two-sided polynomial energy envelope and 1/q rate fit for the monomial damping",
    ),
    "exp_k2_exponential": (
        lambda inp, **out: exp_k2_exponential(
            inp.model,
            inp.damping,
            *_states(inp, 1),
            inp.icfg,
            source=inp.source,
            forcing=inp.forcing,
            fit_window=(inp.opts["fit_lo"], inp.opts["fit_hi"]),
            r2_min=inp.opts["r2_min"],
            **out,
        ),
        "exponential decay fit, floored fit under forcing, absorbing-ball entry",
    ),
    "exp_k3_ball": (
        lambda inp, **out: exp_k3_ball(
            inp.model,
            inp.damping,
            *_ball_starts(inp),
            inp.icfg,
            horizon_outside=inp.opts["horizon_outside"],
            **out,
        ),
        "conservation inside and attraction to the unit energy sphere for the threshold damping",
    ),
    "exp_two_trajectory": (
        lambda inp, **out: exp_two_trajectory(
            inp.model, inp.damping, *_states(inp, 2), inp.icfg, source=inp.source, **out
        ),
        "feasibility of the two-trajectory difference envelope",
    ),
    "exp_lambda_lipschitz": (
        lambda inp, **out: exp_lambda_lipschitz(
            inp.model,
            inp.damping,
            inp.source,
            inp.forcing.h_coeffs,
            lambda_grid(inp.opts),
            inp.opts["lambda0"],
            inp.opts["t_probe"],
            *_states(inp, 1),
            inp.icfg,
            **out,
        ),
        "Lipschitz sensitivity of trajectories to the forcing intensity",
    ),
    "exp_decomposition": (
        lambda inp, **out: exp_decomposition(
            inp.model,
            inp.damping,
            inp.source,
            inp.forcing,
            *_states(inp, 2),
            inp.icfg,
            s=inp.opts["s"],
            probe_modes=inp.opts["probe_modes"],
            **out,
        ),
        "contracting + smoothing splitting of the constant-damping flow",
    ),
    "exp_entropy": (
        lambda inp, seed, out_dir: exp_entropy(seed, inp.opts["n_points"]),
        "covering-number dimension estimates on synthetic manifolds",
    ),
    "nakao_suite": (
        lambda inp, seed, out_dir: nakao_suite(seed, inp.opts["trials"]),
        "randomized soundness of the window decay lemma",
    ),
    "haraux_suite": (
        lambda inp, seed, out_dir: haraux_suite(seed, inp.opts["trials"]),
        "randomized soundness of the norm power-difference bound",
    ),
    "stationary": (
        lambda inp, **out: exp_stationary(
            inp.model, inp.source, inp.forcing, inp.opts["n_starts"], tol=inp.opts["tol"], **out
        ),
        "variational stationary solver with a-priori bound check",
    ),
}


def run(cfg, quiet=False):
    """Dispatch a parsed RunConfig; returns the process exit status."""
    run_dir = Path(cfg.output_dir) / f"{cfg.experiment_id}-seed{cfg.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    runner, _ = _RUNNERS[cfg.experiment_id]
    report = runner(_start(cfg), seed=cfg.seed, out_dir=str(run_dir))
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
    ids = sorted(_RUNNERS)
    for name in ids:
        stream.write(f"{name:22s} {_RUNNERS[name][1]}\n")
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
    # RunConfig checks the overrides as it checks the [run] section
    try:
        return dataclasses.replace(cfg, **updates)
    except InvalidConfigurationError as exc:
        raise InvalidConfigurationError(f"[run] {exc}") from None


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
