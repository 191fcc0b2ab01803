"""Fast tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
The end-to-end tests use ``--tiny`` horizons, so each run takes seconds.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import Tracer  # noqa: E402
from workloads import INPUT_SETS, PARTS, WORKLOADS, check_metrics, load_reference  # noqa: E402


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec


def _run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = _run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        # the span self times cover the traced solve time up to the cost of
        # the outermost wrapper call
        assert 0.0 <= metrics["trace.unaccounted_s"] < 1e-3
        assert metrics["trace.accounted_s"] > 0.0
    else:
        for name in ("solve_s", "setup_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0.0
        for line in ("solve_s", "setup_s", "steps_per_s", "peak_rss_mb", "failed_ratio"):
            assert f"   {line} " in proc.stdout


def test_benchmark_without_the_program_fails_cleanly(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("verify_suites", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("part", sorted(PARTS))
def test_check_accepts_reference_and_rejects_each_corruption(part):
    wl = PARTS[part]
    reference = load_reference()[part]["0"]["metrics"]
    assert check_metrics(wl, reference, reference) == []
    for c in wl.checks:
        corrupted = json.loads(json.dumps(reference))
        ref = corrupted[c.experiment][c.metric]
        if c.kind == "rounding":
            corrupted[c.experiment][c.metric] = ref * 1e-4
        elif c.kind == "abs":
            corrupted[c.experiment][c.metric] = ref + 2.0 * c.tol + 1.0
        else:
            corrupted[c.experiment][c.metric] = ref * (1.0 + 100.0 * c.tol)
        problems = check_metrics(wl, reference, corrupted)
        assert len(problems) == 1 and f"{c.experiment}.{c.metric}" in problems[0]


def test_reference_covers_every_input_set():
    reference = load_reference()
    for name, wl in PARTS.items():
        assert sorted(reference[name], key=int) == [str(s) for s in range(INPUT_SETS)]
        for entry in reference[name].values():
            for c in wl.checks:
                assert c.metric in entry["metrics"][c.experiment]


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_span_self_times_add_up_to_their_parent():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: _busy(0.002))

    def middle_body():
        _busy(0.001)
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle_body)

    def root_body():
        middle()
        _busy(0.001)
        leaf()

    tracer.wrap("root", root_body)()
    spans = tracer.spans
    self_times = tracer.self_times()
    for i, (_, start, end, _) in enumerate(spans):
        children = [j for j, s in enumerate(spans) if s[3] == i]
        child_total = sum(spans[j][2] - spans[j][1] for j in children)
        assert self_times[i] == pytest.approx((end - start) - child_total, abs=1e-12)
        assert self_times[i] >= 0.0
    (root,) = tracer.roots("root")
    assert len(tracer.subtree(root)) == len(spans) == 5
    assert sum(self_times) == pytest.approx(spans[root][2] - spans[root][1], abs=1e-12)
    summary = tracer.summary()
    assert summary["leaf"]["calls"] == 3
    assert 0.001 <= summary["middle"]["self_s"] < 0.1
