"""Kernel sweep: microseconds per step of public ``integrate()``.

Run by ``run.py`` in its own process with ``PYTHONPATH=src``::

    python3 bench/sweep.py --result sweep.json [--steps 1000] [--repeats 3]

Each case integrates a fixed number of steps with the monomial law
(q = 1, alpha = 0.5), no forcing and a stride equal to the step count, so
almost all of the time is the stepping loop.  Structural constants are
computed before timing.  The value is the median over the repeats, after
one short warm-up call.
"""

import argparse
import json
import math
import statistics
import time
from pathlib import Path

CASES = [("zero", "strang", n) for n in (16, 32, 64, 128, 256)]
CASES += [("double_power", "strang", n) for n in (16, 32, 64, 128, 256)]
CASES += [("zero", "rk4", 32)]


def metric_name(source, scheme, n):
    kind = "rk4" if scheme == "rk4" else source
    return f"integrate.us_per_step.{kind}.N{n}"


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--result", required=True)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args(argv)

    import numpy as np

    from edbeam import (
        DoublePower,
        Forcing,
        IntegratorConfig,
        K1Monomial,
        ZeroSource,
        assumption_constants,
        build_model,
        integrate,
    )
    from edbeam.experiments import make_initial_state

    dt = 1e-3  # inside the RK4 stability limit at N = 32
    out = {}
    for source_kind, scheme, n in CASES:
        model = build_model(n, math.pi)
        source = ZeroSource() if source_kind == "zero" else DoublePower(2.0, 1.0, 0.0)
        constants = assumption_constants(source, model=model)
        damping = K1Monomial(1.0, 1.0)
        forcing = Forcing.zero(n)
        initial = make_initial_state(model, np.random.default_rng(n), 1.0)

        def run(steps):
            cfg = IntegratorConfig(
                dt=dt, horizon=steps * dt, scheme=scheme, alpha=0.5, sample_stride=steps
            )
            start = time.perf_counter()
            integrate(model, source, damping, forcing, initial, cfg, constants)
            return time.perf_counter() - start

        run(10)
        times = [run(args.steps) for _ in range(args.repeats)]
        out[metric_name(source_kind, scheme, n)] = 1e6 * statistics.median(times) / args.steps
    Path(args.result).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
