"""Run configuration: INI-style parsing, validation, and round-trip emit.

A run file is flat sections of ``key = value`` pairs::

    [model]
    n_modes = 32
    kappa = 0.0

    [damping]
    variant = k1
    gamma = 1.0
    q = 1.0

    [experiment]
    id = exp_k1_decay

Unknown sections or keys are rejected; every module-level precondition is
re-validated at parse time with the failed invariant named.  Omitted keys
take the documented defaults (length pi, zero source, zero forcing, and the
quadrature ``build_model`` sizes for the source: 2 n_modes for the cubic
source, 8 n_modes for a source that is no polynomial).

The ``[experiment]`` keys an id takes, their defaults and which of them are
run horizons are read from the id's row of ``experiments.EXPERIMENTS``;
``experiments.check_run`` then checks the row's requirements, so this module
spells no option and no requirement of its own.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import InvalidConfigurationError
from .experiments import EXPERIMENTS, check_option, check_run
from .integrate import IntegratorConfig
from .laws import (
    DampingLaw,
    DoublePower,
    Forcing,
    K1Monomial,
    K2Constant,
    K2ExpDecay,
    K2Rational,
    K3Rational,
    K3ShiftedExp,
    SourceLaw,
    ZeroSource,
)
from .spectral import build_model

__all__ = ["RunConfig", "parse_config", "emit_config"]

# variant -> (law class, {key: default}); keys are listed in the order of
# the constructor's positional arguments, and a default of None marks a
# required key.  The law constructor is the only place that validates them.
DAMPING_LAWS = {
    "k1": (K1Monomial, {"gamma": 1.0, "q": 1.0}),
    "k2_constant": (K2Constant, {"gamma": 1.0}),
    "k2_exp_decay": (K2ExpDecay, {"gamma": 1.0}),
    "k2_rational": (K2Rational, {"gamma": 1.0}),
    "k3_rational": (K3Rational, {"gamma": 1.0}),
    "k3_shifted_exp": (K3ShiftedExp, {"gamma": 1.0}),
}
SOURCE_LAWS = {
    "zero": (ZeroSource, {}),
    "double_power": (DoublePower, {"delta": None, "r": None, "sigma": 0.0}),
}


@dataclass(frozen=True)
class ModelConfig:
    n_modes: int = 16
    length: float = math.pi
    kappa: float = 0.0
    quad_points: int | None = None


@dataclass(frozen=True)
class ForcingConfig:
    lam: float = 0.0
    h: str = "zero"


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = ModelConfig()
    damping: DampingLaw = K1Monomial(gamma=1.0, q=1.0)
    source: SourceLaw = ZeroSource()
    forcing: ForcingConfig = ForcingConfig()
    integrator: IntegratorConfig = IntegratorConfig(dt=1e-3, horizon=10.0)
    experiment_id: str = "simulate"
    options: dict = field(default_factory=dict)
    seed: int = 0
    output_dir: str = "runs"

    def __post_init__(self):
        # here rather than in parse_config, so that replace() checks it too
        if not 0 <= self.seed < 2**64:
            raise InvalidConfigurationError(f"seed = {self.seed}: 64-bit value required")
        # RK4 is a test reference, so no run file names a scheme
        if self.integrator.scheme != "strang":
            raise InvalidConfigurationError(
                f"integrator scheme = {self.integrator.scheme!r}: a run takes the Strang scheme"
            )
        if self.experiment_id not in EXPERIMENTS:
            raise InvalidConfigurationError(
                f"experiment_id = {self.experiment_id!r} (allowed: {sorted(EXPERIMENTS)})"
            )
        # a directly built config runs with its row's defaults, as a run file does
        options = EXPERIMENTS[self.experiment_id].options | self.options
        object.__setattr__(self, "options", options)


# The keys of the plain sections and their types, in emit order; their
# defaults are the fields of RunConfig().
MODEL_KEYS = {"n_modes": int, "length": float, "kappa": float, "quad_points": int}
INTEGRATOR_KEYS = {"dt": float, "horizon": float, "alpha": float, "sample_stride": int}
RUN_KEYS = {"seed": int, "output_dir": str}


def _typed(section, key, raw, kind):
    """``kind(raw)`` for kind int, float, str or tuple, naming the key on
    failure; a tuple reads a comma list of ints."""
    try:
        if kind is tuple:
            return tuple(int(x) for x in raw.split(","))
        return kind(raw)
    except ValueError:
        expected = "a comma list of modes" if kind is tuple else kind.__name__
        raise InvalidConfigurationError(
            f"[{section}] {key} = {raw!r}: expected {expected}"
        ) from None


def _fmt(value):
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return repr(value) if isinstance(value, float) else str(value)


def _consume(parser, section, known):
    """Pull a section dict, rejecting unknown keys."""
    if not parser.has_section(section):
        return {}
    got = dict(parser.items(section))
    for key in got:
        if key not in known:
            raise InvalidConfigurationError(
                f"[{section}] unknown key {key!r} (allowed: {sorted(known)})"
            )
    return got


def _parse_section(parser, section, keys, default):
    """``default`` with the section's values, typed by ``keys``; the
    dataclass's own checks name the section on failure."""
    got = _consume(parser, section, keys)
    values = {key: _typed(section, key, raw, keys[key]) for key, raw in got.items()}
    try:
        return replace(default, **values)
    except InvalidConfigurationError as exc:
        raise InvalidConfigurationError(f"[{section}] {exc}") from None


def _emit_fields(obj, keys):
    values = {key: getattr(obj, key) for key in keys}
    return {key: _fmt(value) for key, value in values.items() if value is not None}


def _variant(law, laws):
    return next(variant for variant, (cls, _) in laws.items() if type(law) is cls)


def _parse_law(parser, section, laws, default):
    """Read a law section and build the law, which validates its values; an
    omitted variant is that of the ``default`` law."""
    family = {key for _, keys in laws.values() for key in keys}
    got = _consume(parser, section, family | {"variant"})
    variant = got.pop("variant", _variant(default, laws))
    if variant not in laws:
        raise InvalidConfigurationError(
            f"[{section}] variant = {variant!r} (allowed: {tuple(laws)})"
        )
    cls, keys = laws[variant]
    params = dict(keys)
    for key, raw in got.items():
        if key not in keys:
            raise InvalidConfigurationError(
                f"[{section}] {key} does not apply to variant {variant}"
            )
        params[key] = _typed(section, key, raw, float)
    missing = [key for key, value in params.items() if value is None]
    if missing:
        raise InvalidConfigurationError(
            f"[{section}] {variant} requires {' and '.join(missing)}"
        )
    try:
        return cls(*params.values())
    except InvalidConfigurationError as exc:
        raise InvalidConfigurationError(f"[{section}] {exc}") from None


def _emit_law(law, laws):
    # a law's fields are its table keys, in order (sigma is DoublePower.sigma_c)
    variant = _variant(law, laws)
    keys = laws[variant][1]
    values = (getattr(law, f.name) for f in fields(law))
    return {"variant": variant} | {key: _fmt(v) for key, v in zip(keys, values)}


def parse_config(text, experiment_id=None):
    """Parse and validate a run file; returns a :class:`RunConfig`.

    ``experiment_id`` is the experiment a command runs: a run file without
    ``[experiment] id`` runs it, and one that names another id is rejected.
    Syntax errors carry the offending line number; semantic violations name
    the invariant that failed.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise InvalidConfigurationError(f"config syntax error: {exc}") from None

    known_sections = {
        "model",
        "damping",
        "source",
        "forcing",
        "integrator",
        "experiment",
        "run",
    }
    for sec in parser.sections():
        if sec not in known_sections:
            raise InvalidConfigurationError(
                f"unknown section [{sec}] (allowed: {sorted(known_sections)})"
            )

    base = RunConfig()
    model = _parse_section(parser, "model", MODEL_KEYS, base.model)
    damping = _parse_law(parser, "damping", DAMPING_LAWS, base.damping)
    source = _parse_law(parser, "source", SOURCE_LAWS, base.source)

    f = _consume(parser, "forcing", {"lambda", "h"})
    lam = _typed("forcing", "lambda", f.get("lambda", "0.0"), float)
    h_spec = f.get("h", "zero").strip()
    applied = _forcing(lam, h_spec, model.n_modes)
    forcing = ForcingConfig(lam=lam, h=h_spec)

    integrator = _parse_section(parser, "integrator", INTEGRATOR_KEYS, base.integrator)

    e = dict(parser.items("experiment")) if parser.has_section("experiment") else {}
    exp_id = e.pop("id", experiment_id or base.experiment_id)
    if exp_id not in EXPERIMENTS:
        raise InvalidConfigurationError(
            f"[experiment] id = {exp_id!r} (allowed: {sorted(EXPERIMENTS)})"
        )
    if experiment_id is not None and exp_id != experiment_id:
        raise InvalidConfigurationError(
            f"[experiment] id = {exp_id}: the command runs {experiment_id}"
        )
    row = EXPERIMENTS[exp_id]
    options = dict(row.options)
    for key, raw in e.items():
        if key not in row.options:
            raise InvalidConfigurationError(
                f"[experiment] unknown key {key!r} for {exp_id} "
                f"(allowed: {sorted(row.options)})"
            )
        value = _typed("experiment", key, raw, type(row.options[key]))
        try:
            check_option(key, value)
        except InvalidConfigurationError as exc:
            raise InvalidConfigurationError(f"[experiment] {exc}") from None
        options[key] = value
    for key in row.horizons:
        try:
            replace(integrator, horizon=options[key])
        except InvalidConfigurationError as exc:
            raise InvalidConfigurationError(
                f"[experiment] {key} = {options[key]}: {exc}"
            ) from None

    cfg = RunConfig(
        model=model,
        damping=damping,
        source=source,
        forcing=forcing,
        integrator=integrator,
        experiment_id=exp_id,
        options=options,
    )
    cfg = _parse_section(parser, "run", RUN_KEYS, cfg)
    # the drivers check the same requirements on the window and grid they use
    check_run(
        exp_id,
        options,
        damping=damping,
        source=source,
        forcing=applied,
        icfg=integrator,
        n_modes=model.n_modes,
    )

    # Model-level invariants are re-checked by actually building the model.
    try:
        build_model(model.n_modes, model.length, model.kappa, model.quad_points, source)
    except InvalidConfigurationError as exc:
        raise InvalidConfigurationError(f"[model] {exc}") from None
    return cfg


def _forcing(lam, spec, n_modes):
    """Forcing of intensity lam and profile spec: 'zero', 'mode:<j>:<amplitude>',
    or a comma list of n_modes coefficients."""
    try:
        if spec.startswith("mode:"):
            _, j, amp = spec.split(":")
            return Forcing.single_mode(n_modes, int(j), float(amp), lam)
        if spec == "zero":
            h = np.zeros(n_modes)
        else:
            h = np.array([float(x) for x in spec.split(",")])
    except InvalidConfigurationError as exc:
        raise InvalidConfigurationError(f"[forcing] {exc}") from None
    except ValueError:
        raise InvalidConfigurationError(
            f"[forcing] h = {spec!r}: expected 'zero', 'mode:<j>:<amplitude>', "
            "or a comma list"
        ) from None
    if h.size != n_modes:
        raise InvalidConfigurationError(
            f"[forcing] h list has {h.size} entries, model has {n_modes} modes"
        )
    try:
        return Forcing(lam, h)
    except InvalidConfigurationError as exc:
        raise InvalidConfigurationError(f"[forcing] {exc}") from None


def build_objects(cfg):
    """Instantiate (model, damping, source, forcing) from a RunConfig."""
    mc = cfg.model
    model = build_model(mc.n_modes, mc.length, mc.kappa, mc.quad_points, cfg.source)
    forcing = _forcing(cfg.forcing.lam, cfg.forcing.h, model.n_modes)
    return model, cfg.damping, cfg.source, forcing


def emit_config(cfg):
    """Serialize a RunConfig back to run-file text; parse(emit(c)) == c."""
    parser = configparser.ConfigParser(interpolation=None)
    parser["model"] = _emit_fields(cfg.model, MODEL_KEYS)
    parser["damping"] = _emit_law(cfg.damping, DAMPING_LAWS)
    parser["source"] = _emit_law(cfg.source, SOURCE_LAWS)
    parser["forcing"] = {"lambda": _fmt(cfg.forcing.lam), "h": cfg.forcing.h}
    parser["integrator"] = _emit_fields(cfg.integrator, INTEGRATOR_KEYS)
    parser["experiment"] = {"id": cfg.experiment_id} | {
        key: _fmt(cfg.options[key]) for key in sorted(cfg.options)
    }
    parser["run"] = _emit_fields(cfg, RUN_KEYS)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
