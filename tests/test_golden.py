"""Every CLI artifact matches the values and hashes pinned in tests/golden.

One small run file per experiment id lives in ``tests/golden/runs``; each is
run once per session.  Its values (each CSV column's first, last, min and
max, and each report metric) are compared with ``tests/golden/values.json``
on every build, at the relative tolerance ``RTOL``.  The pinned SHA-256 of
each file a run writes are in ``tests/golden/hashes.json``; byte identity of
floating-point output holds for one numpy/BLAS build, so the hash comparison
is skipped on a different build, as is the check that the pinned values
are exactly the artifacts' own.  See ``tests/golden/capture.py`` for how to
re-pin both.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

from edbeam.config import emit_config, parse_config
from edbeam.experiments import EXPERIMENTS

sys.path.insert(0, str(Path(__file__).parent / "golden"))
from capture import (  # noqa: E402
    HASHES,
    RUNS,
    VALUES,
    artifact_hashes,
    artifact_values,
    build_info,
    run_artifacts,
)

PINNED = json.loads(HASHES.read_text(encoding="utf-8"))
PINNED_VALUES = json.loads(VALUES.read_text(encoding="utf-8"))

# A value matches when |got - pinned| <= RTOL * max(scale, 1): scale is the
# largest pinned magnitude of a CSV column, or the pinned metric itself.  The
# unit floor compares residual-type entries (split gaps, drifts, margins at
# rounding level) absolutely.  Measured on numpy 2.4.6 / scipy-openblas
# 0.3.31: 1 and 2 BLAS threads give identical values, and perturbing every
# initial state by a relative eps moves the values by at most 50 eps (eps =
# 1e-15 .. 1e-9; the worst is exp_k2_exponential's C_fit).  Another build
# rounds each operation differently by at most an ulp, which over the
# longest golden run (2 * 10^4 steps) is an input change of eps <= 2e-12, so
# <= 1e-10 in the values; RTOL leaves a factor 100 above that.  Dropping one
# half kick moves D and the energies at order one.
RTOL = 1e-8


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """exp_id -> the directory of its golden run, run once per module."""
    made = {}

    def get(exp_id):
        if exp_id not in made:
            workdir = tmp_path_factory.mktemp(exp_id)
            made[exp_id] = run_artifacts(RUNS / f"{exp_id}.ini", workdir)
        return made[exp_id]

    return get


def _mismatches(got, pinned):
    """(artifact, key, got, pinned) for every value outside RTOL."""
    bad = []
    for art, entries in pinned.items():
        for key, want in entries.items():
            have = got[art][key]
            if art == "report.txt":
                have, want, scale = [have], [want], abs(want)
            else:
                scale = max(abs(x) for x in want)
            tol = RTOL * max(scale, 1.0)
            for g, w in zip(have, want):
                # a non-finite pin (an infinite rate) must come back exactly
                if not (g == w or (math.isfinite(w) and abs(g - w) <= tol)):
                    bad.append((art, key, g, w))
    return bad


def test_every_runner_has_a_golden_run():
    assert sorted(p.stem for p in RUNS.glob("*.ini")) == sorted(EXPERIMENTS)
    assert sorted(PINNED["runs"]) == sorted(EXPERIMENTS)
    assert sorted(PINNED_VALUES["runs"]) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_artifacts_match_pinned_values(exp_id, run_dir):
    got = artifact_values(run_dir(exp_id))
    pinned = PINNED_VALUES["runs"][exp_id]
    assert {art: sorted(v) for art, v in got.items()} == {
        art: sorted(v) for art, v in pinned.items()
    }
    assert _mismatches(got, pinned) == []


def _skip_off_the_pinned_build():
    if PINNED["build"] != build_info():
        pytest.skip(f"pinned on {PINNED['build']}, running on {build_info()}")


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_artifacts_match_pinned_hashes(exp_id, run_dir):
    _skip_off_the_pinned_build()
    assert artifact_hashes(run_dir(exp_id)) == PINNED["runs"][exp_id]


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_pinned_values_are_the_pinned_artifacts_own(exp_id, run_dir):
    # on the build that pinned the hashes, values.json is exactly what
    # capture.py reads from the same artifacts, so it cannot go stale
    # inside RTOL while the hashes hold
    _skip_off_the_pinned_build()
    assert artifact_values(run_dir(exp_id)) == PINNED_VALUES["runs"][exp_id]


# The ids whose drivers integrate, and the CSV columns that are fits over the
# whole run rather than per-sample values.
INTEGRATING = (
    "simulate",
    "exp_k1_decay",
    "exp_k2_exponential",
    "exp_k3_ball",
    "exp_two_trajectory",
    "exp_lambda_lipschitz",
    "exp_decomposition",
)
WHOLE_RUN_FITS = {"poly_bound"}


def _per_sample_lines(path):
    """The CSV's lines with the whole-run fit columns left out."""
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in WHOLE_RUN_FITS]
    return [",".join(row[i] for i in keep) for row in rows]


@pytest.mark.parametrize("exp_id", INTEGRATING)
def test_a_longer_horizon_keeps_the_first_rows(exp_id, run_dir, tmp_path):
    # a sample's value must not depend on how many samples follow it, so a
    # run to 2T starts with the bytes of the run to T
    cfg = parse_config((RUNS / f"{exp_id}.ini").read_text(encoding="utf-8"))
    icfg = dataclasses.replace(cfg.integrator, horizon=2.0 * cfg.integrator.horizon)
    run_file = tmp_path / f"{exp_id}.ini"
    run_file.write_text(emit_config(dataclasses.replace(cfg, integrator=icfg)), encoding="utf-8")
    longer = run_artifacts(run_file, tmp_path)
    shorter = run_dir(exp_id)
    csvs = sorted(p.name for p in shorter.glob("*.csv"))
    assert csvs == sorted(p.name for p in longer.glob("*.csv")) and csvs
    for name in csvs:
        first = _per_sample_lines(shorter / name)
        assert _per_sample_lines(longer / name)[: len(first)] == first, name


def test_value_check_resolves_rtol():
    pinned = PINNED_VALUES["runs"]["exp_k1_decay"]
    for factor, caught in ((0.1, False), (10.0, True)):
        got = json.loads(json.dumps(pinned))
        energy = got["trajectory.csv"]["E"]
        energy[-1] += factor * RTOL * max(max(map(abs, energy)), 1.0)
        assert bool(_mismatches(got, pinned)) == caught
