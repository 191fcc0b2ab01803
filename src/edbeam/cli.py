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
from .config import build_objects, emit_config, parse_config
from .errors import InvalidConfigurationError
from .experiments import EXPERIMENTS

_Start = namedtuple("_Start", "model damping source forcing icfg opts rng")


def _start(cfg):
    """A run's inputs: the run file's model, damping, source, forcing,
    integrator settings ``icfg`` and experiment options ``opts``, and the
    run's seeded generator ``rng``."""
    return _Start(*build_objects(cfg), cfg.integrator, cfg.options, np.random.default_rng(cfg.seed))


def run(cfg, quiet=False):
    """Dispatch a parsed RunConfig; returns the process exit status."""
    run_dir = Path(cfg.output_dir) / f"{cfg.experiment_id}-seed{cfg.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    report = EXPERIMENTS[cfg.experiment_id].run(_start(cfg), seed=cfg.seed, out_dir=str(run_dir))
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
    ids = sorted(EXPERIMENTS)
    for name in ids:
        stream.write(f"{name:22s} {EXPERIMENTS[name].about}\n")
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
    p_exp.add_argument("id", choices=sorted(EXPERIMENTS))
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
