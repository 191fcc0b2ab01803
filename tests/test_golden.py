"""Every CLI artifact is byte-identical to hashes pinned in tests/golden.

One small run file per experiment id lives in ``tests/golden/runs``; the
pinned SHA-256 of each file a run writes are in ``tests/golden/hashes.json``
(see ``tests/golden/capture.py`` for how to re-pin them).  Byte identity of
floating-point output holds for one numpy/BLAS build, so the comparison is
skipped on a different build.
"""

import json
import sys
from pathlib import Path

import pytest

from edbeam.cli import _RUNNERS

sys.path.insert(0, str(Path(__file__).parent / "golden"))
from capture import HASHES, RUNS, artifact_hashes, build_info  # noqa: E402

PINNED = json.loads(HASHES.read_text(encoding="utf-8"))


def test_every_runner_has_a_golden_run():
    assert sorted(p.stem for p in RUNS.glob("*.ini")) == sorted(_RUNNERS)
    assert sorted(PINNED["runs"]) == sorted(_RUNNERS)


@pytest.mark.parametrize("exp_id", sorted(_RUNNERS))
def test_artifacts_match_pinned_hashes(exp_id, tmp_path):
    if PINNED["build"] != build_info():
        pytest.skip(f"hashes pinned on {PINNED['build']}, running on {build_info()}")
    assert artifact_hashes(RUNS / f"{exp_id}.ini", tmp_path) == PINNED["runs"][exp_id]
