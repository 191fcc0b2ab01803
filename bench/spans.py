"""In-process span tracer that wraps edbeam's public names from outside.

A span records (name, start, end, parent index).  Spans nest strictly,
because the traced code is single threaded, so a span's self time is its
duration minus the durations of its direct children, and the self times of
a tree add up to its root's duration.  Counters are recorded at the same
boundaries from the wrapped call's arguments and result.

``instrument`` replaces each traced name in every namespace that binds it,
because callers look names up in their own module: ``experiments.integrate``
and ``cli.integrate`` are bound separately from ``integrate.integrate``,
and ``stationary`` imports ``synthesize`` and ``project_source`` by name.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.counts = defaultdict(float)
        self._stack = []

    def wrap(self, name, fn, on_exit=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec = spans[idx]
                rec[1] = start
                rec[2] = end
            if on_exit is not None:
                on_exit(counts, args, kwargs, result)
            return result

        return traced

    def self_times(self):
        """Per-span self time: duration minus its direct children's."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def roots(self, name):
        return [i for i, s in enumerate(self.spans) if s[3] < 0 and s[0] == name]

    def subtree(self, root):
        """Indices of the spans under ``root`` (spans are stored in call order)."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] in inside:
                inside.add(i)
        return inside

    def summary(self):
        """{span name: {"calls", "total_s", "self_s"}} over all spans."""
        out = {}
        for s, self_s in zip(self.spans, self.self_times()):
            agg = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += s[2] - s[1]
            agg["self_s"] += self_s
        return out


# --- counters recorded at the wrapped boundaries -------------------------


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_integrate(counts, args, kwargs, result):
    cfg = _arg(args, kwargs, 5, "cfg")
    counts["integrate.steps"] += int(round(cfg.horizon / cfg.dt))
    counts["integrate.samples"] += result.n_samples


def _count_csv(counts, args, kwargs, result):
    counts["integrate.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_projection(counts, model):
    nm = model.n_modes * model.quad_points
    counts["laws.project_flops_computed"] += 4 * nm
    counts["laws.project_bytes_computed"] += 16 * nm


def _count_public_projection(counts, args, kwargs, result):
    # the zero source returns zeros without projecting
    if type(_arg(args, kwargs, 1, "law")).__name__ != "ZeroSource":
        _count_projection(counts, _arg(args, kwargs, 0, "model"))


def _count_stepper_projection(counts, args, kwargs, result):
    _count_projection(counts, args[0].model)


def _count_nakao(counts, args, kwargs, result):
    counts["nakao.hypothesis_ok"] += bool(result.hypothesis_ok)


def _count_minimize(counts, args, kwargs, result):
    counts["stationary.iterations"] += result.iterations
    counts["stationary.converged"] += bool(result.converged)


_DRIVERS = (
    "exp_k1_decay",
    "exp_k2_exponential",
    "exp_k3_ball",
    "exp_two_trajectory",
    "exp_lambda_lipschitz",
    "exp_decomposition",
    "nakao_suite",
    "haraux_suite",
)

# span name -> (("module[:Class]", attribute), ...), counter hook
TRACED = {
    "cli.run": ((("edbeam.cli", "run"),), None),
    "config.parse_config": ((("edbeam.config", "parse_config"),), None),
    "config.build_objects": (
        (("edbeam.config", "build_objects"), ("edbeam.cli", "build_objects")),
        None,
    ),
    "spectral.build_model": (
        (("edbeam.spectral", "build_model"), ("edbeam.config", "build_model")),
        None,
    ),
    "experiments.driver": (tuple(("edbeam.cli", d) for d in _DRIVERS), None),
    "integrate": (
        (
            ("edbeam.integrate", "integrate"),
            ("edbeam.experiments", "integrate"),
            ("edbeam.cli", "integrate"),
        ),
        _count_integrate,
    ),
    "integrate.total_energy": ((("edbeam.integrate", "total_energy"),), None),
    "integrate.write_csv": ((("edbeam.integrate:Trajectory", "write_csv"),), _count_csv),
    "laws.project_source": (
        (("edbeam.laws", "project_source"), ("edbeam.stationary", "project_source")),
        _count_public_projection,
    ),
    # the integrator's own projection, the same computation as project_source
    "laws.project_source#stepper": (
        (("edbeam.integrate:_Stepper", "project"),),
        _count_stepper_projection,
    ),
    "laws.assumption_constants": (
        tuple(
            (m, "assumption_constants")
            for m in (
                "edbeam.laws",
                "edbeam.integrate",
                "edbeam.energy",
                "edbeam.experiments",
                "edbeam.cli",
            )
        ),
        None,
    ),
    "spectral.synthesize": (
        tuple((m, "synthesize") for m in ("edbeam.spectral", "edbeam.laws", "edbeam.stationary")),
        None,
    ),
    "energy.fit": (
        (("edbeam.experiments", "fit_power_rate"), ("edbeam.experiments", "fit_exp_rate")),
        None,
    ),
    "energy.envelope_constants": ((("edbeam.experiments", "envelope_constants"),), None),
    "nakao.verify": ((("edbeam.experiments", "nakao_verify"),), _count_nakao),
    "nakao.haraux": ((("edbeam.experiments", "haraux_check"),), None),
    "stationary.multi_start": ((("edbeam.cli", "multi_start"),), None),
    "stationary.minimize": (
        (("edbeam.stationary", "minimize_functional"),),
        _count_minimize,
    ),
    "stationary.functional_eval": ((("edbeam.stationary", "euler_lagrange_value"),), None),
    "stationary.gradient_eval": ((("edbeam.stationary", "el_gradient"),), None),
}


def _owner(target):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def instrument(tracer):
    """Wrap every traced name; returns the targets that could not be found.

    One wrapper is made per function object, so a function bound in several
    namespaces records one span per call whichever name the caller used.
    """
    missing = []
    wrappers = {}
    for name, (targets, hook) in TRACED.items():
        for target, attr in targets:
            try:
                owner = _owner(target)
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{target}.{attr}")
                continue
            key = id(fn)
            if key not in wrappers:
                wrappers[key] = tracer.wrap(name.split("#")[0], fn, hook)
            setattr(owner, attr, wrappers[key])
    return missing


# --- per-layer metrics of one traced process -----------------------------

# name -> (unit, span whose self time it is, or None)
LAYER_METRICS = {
    "integrate.calls": ("count", None),
    "integrate.steps": ("count", None),
    "integrate.self_s": ("s", "integrate"),
    "integrate.us_per_step": ("us", None),
    "integrate.total_energy_s": ("s", "integrate.total_energy"),
    "integrate.samples": ("count", None),
    "integrate.write_csv_s": ("s", "integrate.write_csv"),
    "integrate.csv_bytes": ("bytes", None),
    "experiments.driver_self_s": ("s", "experiments.driver"),
    "laws.project_source_calls": ("count", None),
    "laws.project_source_us": ("us", None),
    "laws.project_source_s": ("s", "laws.project_source"),
    "laws.project_flops_computed": ("flop", None),
    "laws.project_bytes_computed": ("bytes", None),
    "laws.assumption_constants_calls": ("count", None),
    "laws.assumption_constants_s": ("s", "laws.assumption_constants"),
    "spectral.synthesize_calls": ("count", None),
    "spectral.synthesize_us": ("us", None),
    "spectral.synthesize_s": ("s", "spectral.synthesize"),
    "spectral.build_model_s": ("s", "spectral.build_model"),
    "energy.fit_s": ("s", "energy.fit"),
    "energy.envelope_constants_s": ("s", "energy.envelope_constants"),
    "nakao.verify_calls": ("count", None),
    "nakao.verify_us": ("us", None),
    "nakao.verify_s": ("s", "nakao.verify"),
    "nakao.hypothesis_ok_ratio": ("ratio", None),
    "nakao.haraux_calls": ("count", None),
    "nakao.haraux_us": ("us", None),
    "nakao.haraux_s": ("s", "nakao.haraux"),
    "stationary.multi_start_s": ("s", "stationary.multi_start"),
    "stationary.minimize_calls": ("count", None),
    "stationary.iterations": ("count", None),
    "stationary.functional_evals": ("count", None),
    "stationary.gradient_evals": ("count", None),
    "stationary.accept_ratio": ("ratio", None),
    "stationary.converged_ratio": ("ratio", None),
    "stationary.minimize_s": ("s", "stationary.minimize"),
    "stationary.functional_eval_s": ("s", "stationary.functional_eval"),
    "stationary.gradient_eval_s": ("s", "stationary.gradient_eval"),
    "config.parse_s": ("s", "config.parse_config"),
    "config.build_objects_s": ("s", "config.build_objects"),
    "cli.overhead_s": ("s", "cli.run"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of one traced process; ``_s`` metrics are self times."""
    summ = tracer.summary()
    counts = tracer.counts

    def calls(span):
        return summ.get(span, {}).get("calls", 0)

    def total(span):
        return summ.get(span, {}).get("total_s", 0.0)

    out = {}
    for metric, (_, span) in LAYER_METRICS.items():
        if span is not None:
            out[metric] = summ.get(span, {}).get("self_s", 0.0)
    steps = counts["integrate.steps"]
    out.update(
        {
            "integrate.calls": calls("integrate"),
            "integrate.steps": steps,
            "integrate.us_per_step": 1e6 * _ratio(out["integrate.self_s"], steps),
            "integrate.samples": counts["integrate.samples"],
            "integrate.csv_bytes": counts["integrate.csv_bytes"],
            "laws.project_source_calls": calls("laws.project_source"),
            "laws.project_source_us": 1e6
            * _ratio(total("laws.project_source"), calls("laws.project_source")),
            "laws.project_flops_computed": counts["laws.project_flops_computed"],
            "laws.project_bytes_computed": counts["laws.project_bytes_computed"],
            "laws.assumption_constants_calls": calls("laws.assumption_constants"),
            "spectral.synthesize_calls": calls("spectral.synthesize"),
            "spectral.synthesize_us": 1e6
            * _ratio(total("spectral.synthesize"), calls("spectral.synthesize")),
            "nakao.verify_calls": calls("nakao.verify"),
            "nakao.verify_us": 1e6 * _ratio(total("nakao.verify"), calls("nakao.verify")),
            "nakao.hypothesis_ok_ratio": _ratio(
                counts["nakao.hypothesis_ok"], calls("nakao.verify")
            ),
            "nakao.haraux_calls": calls("nakao.haraux"),
            "nakao.haraux_us": 1e6 * _ratio(total("nakao.haraux"), calls("nakao.haraux")),
            "stationary.minimize_calls": calls("stationary.minimize"),
            "stationary.iterations": counts["stationary.iterations"],
            "stationary.functional_evals": calls("stationary.functional_eval"),
            "stationary.gradient_evals": calls("stationary.gradient_eval"),
            "stationary.accept_ratio": _ratio(
                counts["stationary.iterations"], calls("stationary.functional_eval")
            ),
            "stationary.converged_ratio": _ratio(
                counts["stationary.converged"], calls("stationary.minimize")
            ),
        }
    )
    unknown = set(summ) - {span for _, span in LAYER_METRICS.values()}
    if unknown:
        raise ValueError(f"spans without a self-time metric: {sorted(unknown)}")
    return out
