"""The benchmark's workloads: run files, step counts and reference checks.

A part is a list of run files with the report metrics that check them; a
workload is one or more parts whose run files one fresh process hands, in
order, to ``parse_config`` and ``cli.run``.  The benchmark seed picks one of
``INPUT_SETS`` input sets; the chosen input seed is written into every run
file's ``[run] seed``, so it drives the initial data, the random start
points and the randomized suites.  ``reference.json`` holds the report
metrics of every input set, captured with ``run.py --capture-reference``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

INPUT_SETS = 32
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def input_seed(seed):
    """Map a benchmark seed onto one of the captured input sets."""
    return seed % INPUT_SETS


@dataclass(frozen=True)
class Check:
    """One report metric compared against its captured reference value.

    ``kind`` is ``rel`` (|x - ref| <= tol |ref|), ``abs`` (|x - ref| <= tol)
    or ``rounding`` (x <= tol * ref + 1e-14, for metrics that sit at
    rounding level, where only the order of magnitude is meaningful).
    """

    experiment: str
    metric: str
    kind: str
    tol: float


@dataclass(frozen=True)
class Part:
    name: str
    why: str
    bypasses: str
    # (experiment id, run-file template); the template is formatted with
    # the input seed and the size parameters below.
    runs: tuple
    full: dict
    tiny: dict
    checks: tuple

    def run_files(self, seed, output_dir, tiny=False):
        params = dict(self.tiny if tiny else self.full)
        params.update(seed=input_seed(seed), output_dir=output_dir)
        return [(exp_id, template.format(**params)) for exp_id, template in self.runs]


_DECAY = """\
[model]
n_modes = 32
[damping]
variant = k1
gamma = 1.0
q = 1.0
[integrator]
dt = 0.01
horizon = {horizon}
alpha = 0.5
sample_stride = 100
[experiment]
id = exp_k1_decay
[run]
seed = {seed}
output_dir = {output_dir}
"""

_BALL = """\
[model]
n_modes = 16
[damping]
variant = k3_rational
gamma = 1.0
[integrator]
dt = 0.01
horizon = {horizon}
alpha = 1.0
sample_stride = 10
[experiment]
id = exp_k3_ball
n_inside = {n_inside}
n_outside = {n_outside}
horizon_outside = 1000.0
[run]
seed = {seed}
output_dir = {output_dir}
"""

_FORCED = """\
[model]
n_modes = 128
[damping]
variant = k2_constant
gamma = 1.0
[source]
variant = double_power
delta = 2.0
r = 1.0
sigma = 0.0
[forcing]
lambda = 1.0
h = mode:1:1.0
[integrator]
dt = 0.001
horizon = {horizon}
sample_stride = 10
[experiment]
id = exp_k2_exponential
energy2 = {energy2}
[run]
seed = {seed}
output_dir = {output_dir}
"""

_NAKAO = """\
[experiment]
id = nakao_suite
trials = {nakao_trials}
[run]
seed = {seed}
output_dir = {output_dir}
"""

_HARAUX = """\
[experiment]
id = haraux_suite
trials = {haraux_trials}
[run]
seed = {seed}
output_dir = {output_dir}
"""

# tol = 1e-6: at 1e-8 the Newton polish stalls near a gradient norm of
# 1e-7 on some start sets (values near -1.7e3), so the run would fail.
_STATIONARY = """\
[model]
n_modes = 32
[source]
variant = double_power
delta = 2.0
r = 1.0
sigma = 10.0
[forcing]
lambda = 0.5
h = mode:1:1.0
[experiment]
id = stationary
n_starts = {n_starts}
tol = 1e-6
[run]
seed = {seed}
output_dir = {output_dir}
"""

PARTS = {
    p.name: p
    for p in (
        Part(
            name="decay_single",
            why="one long monomial-decay trajectory bound by the interpreter; "
            "integrate takes about 90% of the time",
            bypasses="source projection (zero source) and most output; a "
            "batching change should leave it unchanged (B = 1)",
            runs=(("exp_k1_decay", _DECAY),),
            full={"horizon": 800.0},
            tiny={"horizon": 50.0},
            checks=(
                Check("exp_k1_decay", "slope_energy", "rel", 1e-6),
                Check("exp_k1_decay", "identity_residual", "rel", 1e-4),
            ),
        ),
        Part(
            name="ball_ensemble",
            why="20 independent threshold-law runs with per-sample energies "
            "and a chunked driver loop; the target of batching across runs",
            bypasses="source projection (zero source, zero forcing)",
            runs=(("exp_k3_ball", _BALL),),
            full={"horizon": 40.0, "n_inside": 10, "n_outside": 10},
            tiny={"horizon": 1.0, "n_inside": 2, "n_outside": 2},
            checks=(
                Check("exp_k3_ball", "inside_drift", "rounding", 100.0),
                # one sample spacing (stride 10 x dt 0.01)
                Check("exp_k3_ball", "latest_hit_time", "abs", 0.1),
            ),
        ),
        Part(
            name="forced_source",
            why="double-power source at N = 128 under forcing: two dense "
            "N x M projections per half-kick and a wide CSV dominate",
            bypasses="the randomized suites and the stationary solver",
            runs=(("exp_k2_exponential", _FORCED),),
            full={"horizon": 8.0, "energy2": 100.0},
            tiny={"horizon": 0.2, "energy2": 1.0},
            checks=(
                Check("exp_k2_exponential", "C_fit", "rel", 1e-6),
                Check("exp_k2_exponential", "c_fit", "rel", 1e-6),
                Check("exp_k2_exponential", "identity_residual", "rel", 1e-4),
            ),
        ),
        Part(
            name="verify_suites",
            why="Nakao and Haraux suites plus the stationary solver, which "
            "reach spectral and laws through the checked public calls at N = 32",
            bypasses="integrate entirely (no time stepping, no trajectory CSV)",
            runs=(
                ("nakao_suite", _NAKAO),
                ("haraux_suite", _HARAUX),
                ("stationary", _STATIONARY),
            ),
            full={"nakao_trials": 400, "haraux_trials": 40000, "n_starts": 20},
            tiny={"nakao_trials": 5, "haraux_trials": 200, "n_starts": 2},
            checks=(
                Check("nakao_suite", "violations", "abs", 0.0),
                Check("haraux_suite", "violations", "abs", 0.0),
                Check("stationary", "best_value", "rel", 1e-8),
            ),
        ),
    )
}


@dataclass(frozen=True)
class Workload:
    """A benchmark workload: its parts run one after another in each repetition."""

    name: str
    why: str
    parts: tuple


# Two workloads, so that a run can measure for long enough: the host's speed
# drifts over tens of seconds, and the benchmark's time budget is shared by
# every workload.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="trajectories",
            why="the three time-stepping parts: one long B = 1 decay, a 20-run "
            "ensemble, and a projection- and CSV-bound forced run",
            parts=("decay_single", "ball_ensemble", "forced_source"),
        ),
        Workload(
            name="verify_suites",
            why="the randomized suites and the stationary solver; bypasses integrate",
            parts=("verify_suites",),
        ),
    )
}

EXPERIMENT_IDS = tuple(exp_id for p in PARTS.values() for exp_id, _ in p.runs)

_METRIC_LINE = re.compile(r"^  metric (\S+) = (\S+)$")
_VIOLATIONS = re.compile(r"(\d+) violations in (\d+) trials")


def parse_report(text):
    """Return (passed, metrics) from a ``report.txt``.

    Besides the ``metric`` lines, a suite's ``soundness`` criterion yields
    ``violations`` and ``trials`` read from its detail text.
    """
    passed = "result: PASS" in text.splitlines()
    metrics = {}
    for line in text.splitlines():
        m = _METRIC_LINE.match(line)
        if m:
            metrics[m.group(1)] = float(m.group(2))
        elif "] soundness:" in line:
            v = _VIOLATIONS.search(line)
            if v:
                metrics["violations"] = float(v.group(1))
                metrics["trials"] = float(v.group(2))
    return passed, metrics


def check_metrics(part, metrics_by_exp, reference):
    """Compare report metrics with a reference; returns a list of problems.

    ``metrics_by_exp`` and ``reference`` map experiment id to a metric dict.
    An empty list means the run matches.
    """
    problems = []
    for c in part.checks:
        got = metrics_by_exp.get(c.experiment, {}).get(c.metric)
        ref = reference.get(c.experiment, {}).get(c.metric)
        if got is None or ref is None:
            problems.append(f"{c.experiment}.{c.metric}: missing (got {got}, ref {ref})")
            continue
        if c.kind == "rel":
            ok = abs(got - ref) <= c.tol * abs(ref)
        elif c.kind == "abs":
            ok = abs(got - ref) <= c.tol
        elif c.kind == "rounding":
            ok = got <= c.tol * ref + 1e-14
        else:
            raise ValueError(f"unknown check kind {c.kind!r}")
        if not (ok and math.isfinite(got)):
            problems.append(
                f"{c.experiment}.{c.metric} = {got!r}, reference {ref!r} "
                f"({c.kind} tol {c.tol:g})"
            )
    return problems


def load_reference():
    """Captured reference: {part: {input seed: {"steps", "metrics"}}}."""
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
