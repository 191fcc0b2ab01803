"""edbeam benchmark: end-to-end run metrics and traced per-layer timings.

Run from the repository root::

    python3 bench/run.py --workload trajectories --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50     # every workload
    python3 bench/run.py --capture-reference                      # rewrite reference.json

Each repetition of a workload is a fresh ``python3 bench/child.py`` process
with ``PYTHONPATH=src`` and one BLAS thread, which drives the public path
``parse_config`` -> ``cli.run``.  Repetitions run one at a time (a closed
loop with one client) until ``--seconds`` have passed; every metric is the
median over the repetitions.  Every repetition is checked: each run must
exit 0 and its key report metrics must match ``reference.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions, runs the kernel sweep once, and prints the
per-layer metrics, the tracing overhead (traced minus untraced solve time)
and the part of the traced solve time the span self times leave
unaccounted.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A JSON record with the machine, the software and every
sample is written under ``.bench_work/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS
from sweep import CASES, metric_name
from workloads import (
    EXPERIMENT_IDS,
    INPUT_SETS,
    PARTS,
    REFERENCE_PATH,
    WORKLOADS,
    check_metrics,
    input_seed,
    load_reference,
    parse_report,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BUDGET_S = 160.0  # stop starting repetitions once this much wall time is used
MIN_SAMPLES = 3

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_METRICS = {
    "trace.solve_s": "s",
    "trace.untraced_solve_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_s": "s",
    "trace.unaccounted_s": "s",
}
SWEEP_METRICS = {metric_name(*case): "us" for case in CASES}
# untraced solve time of each run file; 0 for run files of other workloads
RUN_METRICS = {f"solve.{exp_id}_s": "s" for exp_id in EXPERIMENT_IDS}
PER_LAYER = {
    **{name: unit for name, (unit, _) in LAYER_METRICS.items()},
    **TRACE_METRICS,
    **RUN_METRICS,
    **SWEEP_METRICS,
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_python(args, deadline):
    """Run ``python3 args`` with the child environment; None on timeout."""
    try:
        return subprocess.run(
            [sys.executable, *args],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None


def machine_info(seed):
    import numpy as np

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "seed": seed,
        "input_seed": input_seed(seed),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return info


class Repetitions:
    """Runs and checks repetitions of a list of parts at one seed.

    ``references`` maps part name to its captured reference (or None).
    """

    def __init__(self, parts, seed, tiny, references, workdir, deadline, compare=True):
        self.parts = parts
        self.seed = seed
        self.tiny = tiny
        self.references = references
        # tiny runs have no reference; a capture run makes the reference
        self.compare = compare and not tiny
        self.workdir = workdir
        self.deadline = deadline
        self.samples = []  # child result dicts, with "traced" and "problems"
        self.last_metrics = {}
        self.count = 0

    def run(self, trace):
        out_dir = self.workdir / f"out{self.count}"
        result_path = self.workdir / f"result{self.count}.json"
        self.count += 1
        files = []
        exp_ids = []
        runs = [r for part in self.parts for r in part.run_files(self.seed, out_dir, self.tiny)]
        for i, (exp_id, text) in enumerate(runs):
            path = self.workdir / f"run{i}.ini"
            path.write_text(text, encoding="utf-8")
            files.append(str(path))
            exp_ids.append(exp_id)
        args = [str(BENCH / "child.py"), "--result", str(result_path)]
        args += ["--trace"] * trace
        spawned = time.monotonic()
        proc = run_python(args + ["--spawned", repr(spawned), *files], self.deadline)
        problems = []
        result = None
        if proc is None:
            problems.append("timed out")
        elif proc.returncode != 0 or not result_path.exists():
            problems.append(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        else:
            result = json.loads(result_path.read_text(encoding="utf-8"))
            problems += self.check(result, exp_ids, out_dir)
            if proc.stderr.strip():
                sys.stderr.write(proc.stderr)
        shutil.rmtree(out_dir, ignore_errors=True)
        sample = dict(result or {}, traced=bool(trace), problems=problems)
        self.samples.append(sample)
        return sample

    def check(self, result, exp_ids, out_dir):
        problems = []
        metrics = {}
        for exp_id, status in zip(exp_ids, result["statuses"]):
            report = out_dir / f"{exp_id}-seed{input_seed(self.seed)}" / "report.txt"
            try:
                passed, metrics[exp_id] = parse_report(report.read_text(encoding="utf-8"))
            except OSError as exc:
                problems.append(f"{exp_id}: no report ({exc})")
                continue
            if status != 0 or not passed:
                problems.append(f"{exp_id}: exit status {status}, report not PASS")
        for part in self.parts if self.compare else ():
            reference = self.references.get(part.name)
            if reference is None:
                problems.append(f"{part.name}: no reference captured for this input seed")
            else:
                problems += check_metrics(part, metrics, reference["metrics"])
        self.last_metrics = metrics
        return problems

    def time_left(self):
        """True while another repetition fits twice before the deadline."""
        last = self.samples[-1] if self.samples else {}
        need = last.get("setup_s", 0.0) + last.get("solve_s", 0.0)
        return self.deadline - time.monotonic() > 2.0 * need + 5.0


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(workload, seed, seconds, trace, tiny):
    """Run one workload at one seed; returns its record."""
    start = time.monotonic()
    deadline = start + BUDGET_S
    workdir = WORK / f"{workload.name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    parts = [PARTS[name] for name in workload.parts]
    captured = load_reference()
    references = {p.name: captured.get(p.name, {}).get(str(input_seed(seed))) for p in parts}

    # untimed warm-up: byte-compiles the package and fills the page cache
    run_python(["-c", "import edbeam"], deadline)
    reps = Repetitions(parts, seed, tiny, references, workdir, deadline)
    sweep = {}
    if trace:
        sweep_path = workdir / "sweep.json"
        steps = ["--steps", "50", "--repeats", "1"] if tiny else []
        proc = run_python([str(BENCH / "sweep.py"), "--result", str(sweep_path), *steps], deadline)
        if proc is None or proc.returncode != 0:
            raise RuntimeError(f"kernel sweep failed: {proc and proc.stderr}")
        sweep = json.loads(sweep_path.read_text(encoding="utf-8"))
    measure_start = time.monotonic()
    while True:
        reps.run(trace=bool(trace) and reps.count % 2 == 1)
        done = time.monotonic() - measure_start >= seconds
        # a traced run needs enough samples of both kinds
        enough = min(
            sum(1 for s in reps.samples if s["traced"] == kind) for kind in {False, bool(trace)}
        ) >= (1 if tiny else MIN_SAMPLES)
        if (done and enough) or not reps.time_left():
            break
    shutil.rmtree(workdir, ignore_errors=True)

    good = [s for s in reps.samples if not s["problems"]]
    untraced = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    series = {
        "solve_s": [s["solve_s"] for s in untraced],
        "setup_s": [s["setup_s"] for s in untraced],
        "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
    }
    exp_ids = [exp_id for p in parts for exp_id, _ in p.runs]
    for i, exp_id in enumerate(exp_ids):
        series[f"solve.{exp_id}_s"] = [s["solve_each_s"][i] for s in untraced]
    steps = sum(r["steps"] for r in references.values()) if all(references.values()) else 0
    if trace:
        metrics = {m: median([s["layers"][m] for s in traced]) for m in LAYER_METRICS}
        metrics.update(sweep)
        metrics.update({m: median(series.get(m, [])) for m in RUN_METRICS})
        traced_solve = median([s["solve_s"] for s in traced])
        metrics["trace.solve_s"] = traced_solve
        metrics["trace.untraced_solve_s"] = median(series["solve_s"])
        # each traced repetition against the untraced one just before it, so
        # that drift in machine speed between the two cancels
        metrics["trace.overhead_s"] = median(
            [
                t["solve_s"] - u["solve_s"]
                for u, t in zip(reps.samples[::2], reps.samples[1::2])
                if not (u["problems"] or t["problems"])
            ]
        )
        metrics["trace.accounted_s"] = median([s["accounted_s"] for s in traced])
        metrics["trace.unaccounted_s"] = median(
            [s["solve_s"] - s["accounted_s"] for s in traced]
        )
        units = PER_LAYER
    else:
        metrics = {m: median(series[m]) for m in END_TO_END}
        units = END_TO_END
    record = {
        "workload": workload.name,
        "why": workload.why,
        "parts": [{"name": p.name, "why": p.why, "bypasses": p.bypasses} for p in parts],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "machine": machine_info(seed),
        "elapsed_s": time.monotonic() - start,
        "attempted": len(reps.samples),
        "failed": len(reps.samples) - len(good),
        "steps": steps,
        "series": series,
        "problems": [p for s in reps.samples for p in s["problems"]],
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    return record


def summarize(record, out):
    """Human-readable lines: every end-to-end metric with unit and count."""
    n = len(record["series"]["solve_s"])
    w = f"{record['workload']} (seed {record['seed']}, trace {record['trace']})"
    out.write(f"== {w}: {record['why']}\n")
    for part in record["parts"]:
        out.write(f"   part {part['name']}: {part['why']}; bypasses {part['bypasses']}\n")
    for name, unit in END_TO_END.items():
        values = record["series"][name]
        q1, q3 = quartiles(values)
        out.write(
            f"   {name:14s} {median(values):12.6g} {unit:5s} median of {n}, "
            f"quartiles {q1:.6g} .. {q3:.6g}\n"
        )
    solve = median(record["series"]["solve_s"])
    if record["steps"] and solve > 0:
        out.write(
            f"   {'steps_per_s':14s} {record['steps'] / solve:12.6g} {'1/s':5s} "
            f"{record['steps']} steps / median solve_s, n = {n}\n"
        )
    else:
        out.write(f"   {'steps_per_s':14s} {'n/a':>12s}       (no time stepping)\n")
    for name in sorted(record["series"]):
        if name.startswith("solve."):
            values = record["series"][name]
            out.write(f"   {name:34s} {median(values):12.6g} s     median of {n}\n")
    att, fail = record["attempted"], record["failed"]
    out.write(f"   {'failed_ratio':14s} {fail / att:12.6g} {'1':5s} {fail} of {att} repetitions\n")
    if record["trace"]:
        for name in sorted(set(PER_LAYER) - set(LAYER_METRICS) - set(RUN_METRICS)):
            m = record["metrics"][name]
            out.write(f"   {name:34s} {m['value']:12.6g} {m['unit']}\n")
    for p in record["problems"][:10]:
        out.write(f"   FAILED: {p}\n")


def write_record(record):
    path = WORK / "records" / (
        f"BENCH_{record['workload']}_seed{record['seed']}_trace{record['trace']}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")


def capture_reference():
    """Run every part once per input set and store its report metrics."""
    reference = {}
    for part in PARTS.values():
        reference[part.name] = {}
        for s in range(INPUT_SETS):
            workdir = WORK / f"capture-{part.name}-{s}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            reps = Repetitions(
                [part], s, False, {}, workdir, time.monotonic() + 600.0, compare=False
            )
            sample = reps.run(trace=True)
            shutil.rmtree(workdir, ignore_errors=True)
            if sample["problems"]:
                raise RuntimeError(f"{part.name} seed {s}: {sample['problems']}")
            reference[part.name][str(s)] = {
                "steps": int(sample["layers"]["integrate.steps"]),
                "metrics": reps.last_metrics,
            }
            print(
                f"{part.name} seed {s}: solve {sample['solve_s']:.3f} s traced, "
                f"{reference[part.name][str(s)]}",
                flush=True,
            )
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny horizons, no reference check")
    p.add_argument("--capture-reference", action="store_true")
    args = p.parse_args(argv)

    if not (SRC / "edbeam" / "__init__.py").is_file():
        sys.stderr.write(f"error: no edbeam package under {SRC}\n")
        return 2
    if args.capture_reference:
        capture_reference()
        return 0
    if args.workload is None:
        p.error("--workload is required")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics = {}
    attempted = failed = 0
    for name in names:
        record = measure(WORKLOADS[name], args.seed, args.seconds, args.trace, args.tiny)
        write_record(record)
        summarize(record, sys.stdout)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + m: v for m, v in record["metrics"].items()})
        attempted += record["attempted"]
        failed += record["failed"]
    print(json.dumps({"machine": record["machine"]}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
