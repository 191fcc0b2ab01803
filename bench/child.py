"""One timed repetition of a workload, in a fresh interpreter.

Run by ``run.py`` with ``PYTHONPATH=src``::

    python3 bench/child.py --spawned T --result out.json [--trace] run1.ini ...

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start, ``import edbeam``,
``parse_config`` and ``build_objects`` for every run file.  Solve time is
the wall time of ``cli.run`` (dispatch to artifacts written), per run
file and summed.  With ``--trace`` the public names are wrapped first and the
per-layer metrics of this process are written too.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("run_files", nargs="+")
    args = p.parse_args(argv)

    from edbeam import cli, config  # import cost is part of set-up

    tracer = None
    if args.trace:
        from spans import Tracer, instrument, layer_metrics

        tracer = Tracer()
        missing = instrument(tracer)
        if missing:
            sys.stderr.write(f"trace: not found, left unwrapped: {missing}\n")

    cfgs = [config.parse_config(Path(f).read_text(encoding="utf-8")) for f in args.run_files]
    for cfg in cfgs:
        config.build_objects(cfg)
    setup_s = time.monotonic() - args.spawned

    statuses = []
    solve_each_s = []
    for cfg in cfgs:
        start = time.perf_counter()
        statuses.append(cli.run(cfg, quiet=True))
        solve_each_s.append(time.perf_counter() - start)

    result = {
        "setup_s": setup_s,
        "solve_s": sum(solve_each_s),
        "solve_each_s": solve_each_s,
        "statuses": statuses,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        self_times = tracer.self_times()
        roots = tracer.roots("cli.run")
        result["layers"] = layer_metrics(tracer)
        result["accounted_s"] = sum(
            self_times[i] for r in roots for i in tracer.subtree(r)
        )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
