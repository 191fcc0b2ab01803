"""Scripted numerical experiments, one driver per quantitative claim.

Each driver integrates the modal system under a specific damping family and
confronts the sampled series with the corresponding closed-form envelope,
fit, or feasibility statement.  Drivers are deterministic given a seed and
configuration; independent runs inside one driver share the immutable
spectral model.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .energy import (
    FIT_MIN_POINTS,
    decay_envelopes,
    envelope_constants,
    fit_exp_rate,
    fit_power_rate,
)
from .errors import InvalidConfigurationError
from .integrate import (
    _integrate_driven,
    _mu2alpha,
    coercivity_offset,
    energy_identity_residual,
    integrate,
    integrate_batch,
    total_energy,
)
from .laws import (
    Forcing,
    K1Monomial,
    K2Constant,
    K3Rational,
    K3ShiftedExp,
    ZeroSource,
    assumption_constants,
)
from .nakao import CONCLUSION_TOL, _draw_rows, _verify_draws, haraux_check
from .series import SampledSeries, write_csv
from .spectral import (
    ModalState,
    _quadrature,
    _synthesize,
    _weighted_squares,
    phase_norm,
    phase_norms,
)
from .stationary import multi_start, stationary_bound_check

__all__ = [
    "Criterion",
    "ExperimentReport",
    "EntropyEstimate",
    "make_initial_state",
    "exp_k1_decay",
    "exp_k2_exponential",
    "exp_k3_ball",
    "exp_two_trajectory",
    "exp_lambda_lipschitz",
    "exp_decomposition",
    "box_count_entropy",
    "synthetic_circle",
    "synthetic_torus",
    "nakao_suite",
    "haraux_suite",
    "simulate",
    "exp_entropy",
    "exp_stationary",
]


# What an experiment needs, checked alike by parse_config and the driver.
# Each requirement is named as it completes "<id> requires ...", and its
# predicate reads the driver's arguments by keyword.
REQUIREMENTS = {
    "the monomial law": lambda damping, **_: isinstance(damping, K1Monomial),
    "a threshold law": lambda damping, **_: isinstance(damping, (K3Rational, K3ShiftedExp)),
    "a constant damping coefficient": lambda damping, **_: isinstance(damping, K2Constant),
    "zero forcing": lambda forcing, **_: forcing.effective_norm == 0.0,
    "the zero source": lambda source, **_: isinstance(source, ZeroSource),
    "s in (0, 2)": lambda s, **_: 0.0 < s < 2.0,
    "probe_modes in [1, n_modes]": lambda probe_modes, n_modes, **_: (
        len(probe_modes) > 0 and 1 <= min(probe_modes) <= max(probe_modes) <= n_modes
    ),
    "lambda0 in [0, 1]": lambda lambda0, **_: 0.0 <= lambda0 <= 1.0,
    # a power fit takes logarithms of the sample times
    "fit_lo > 0": lambda fit_window, **_: fit_window is None or fit_window[0] > 0.0,
    "two grid intensities besides lambda0": lambda lambdas, lambda0, **_: (
        len(lambdas) >= 2 and lambda0 not in lambdas
    ),
}


def check_requirements(exp_id, **given):
    """Raise naming the first requirement of ``exp_id`` that ``given`` breaks."""
    for need in EXPERIMENTS[exp_id].requires:
        if not REQUIREMENTS[need](**given):
            raise InvalidConfigurationError(f"{exp_id} requires {need}")


# Every int option is a count, at least 1; these float options are bounded.
# Each bound is named as it completes "<key> ... required".
OPTION_BOUNDS = {
    "energy2": (">= 0 and finite", lambda v: 0.0 <= v < math.inf),
    "grid_step": ("> 0 and finite", lambda v: 0.0 < v < math.inf),
    "tol": ("> 0 and finite", lambda v: 0.0 < v < math.inf),
    "r2_min": ("in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "fit_lo": (">= 0 and finite", lambda v: 0.0 <= v < math.inf),
    "fit_hi": (">= 0 and finite", lambda v: 0.0 <= v < math.inf),
}


def check_option(key, value):
    """Raise unless ``value`` meets the bound of the option ``key``."""
    bound = (">= 1", lambda v: v >= 1) if type(value) is int else OPTION_BOUNDS.get(key)
    if bound is not None and not bound[1](value):
        raise InvalidConfigurationError(f"{key} = {value}: {key} {bound[0]} required")


def resolve_fit_window(fit_lo, fit_hi, icfg, t0=0.0):
    """The window a rate fit of a run of ``icfg`` from ``t0`` uses:
    [fit_lo, fit_hi], or, when both are 0, the default last nine tenths of
    the run, [end / 10, end] with end = t0 + horizon.

    Raises unless fit_lo and fit_hi meet their options' bounds, fit_lo <
    min(fit_hi, horizon) unless both are 0, and the window holds at least
    ``FIT_MIN_POINTS`` of the samples the run records.
    """
    check_option("fit_lo", fit_lo)
    check_option("fit_hi", fit_hi)
    end = t0 + icfg.horizon
    if fit_lo or fit_hi:
        if not fit_lo < fit_hi:
            raise InvalidConfigurationError(
                f"fit_lo = {fit_lo}: fit_lo < fit_hi = {fit_hi}, or both 0 for the default "
                "window, required"
            )
        if not fit_lo < end:
            raise InvalidConfigurationError(f"fit_lo = {fit_lo}: fit_lo < horizon {end} required")
        lo, hi = fit_lo, fit_hi
        needs = f"fit_lo = {fit_lo}: fit_lo with >= {FIT_MIN_POINTS} samples in [fit_lo, {hi}]"
    else:
        lo, hi = end / 10.0, end
        needs = (
            f"fit_lo = {fit_lo}, fit_hi = {fit_hi}: an empty window takes the default "
            f"[horizon/10, horizon] = [{lo}, {hi}], with >= {FIT_MIN_POINTS} samples"
        )
    t = icfg.sample_times(t0)
    count = int(np.count_nonzero((t >= lo) & (t <= hi)))
    if count < FIT_MIN_POINTS:
        raise InvalidConfigurationError(
            f"{needs} ({count} at dt {icfg.dt}, sample_stride {icfg.sample_stride}) required"
        )
    return lo, hi


def lambda_grid(options):
    """The intensities exp_lambda_lipschitz compares with ``lambda0``: the
    multiples of ``grid_step`` in [0, 1], ``lambda0`` left out."""
    lam0, step = options["lambda0"], options["grid_step"]
    return [
        round(k * step, 12)
        for k in range(int(math.floor(1.0 / step)) + 1)
        if abs(k * step - lam0) > 1e-12
    ]


def check_run(exp_id, options, **given):
    """Raise unless a run of ``exp_id`` with the run file's ``options`` and
    the inputs ``given`` (damping, source, forcing, icfg and n_modes) meets
    its requirements, on the fit window and intensity grid its driver uses;
    a fit window that breaks its bounds is named as an [experiment] option.
    """
    fit_window = lambdas = None
    if "fit_lo" in options:
        try:
            fit_window = resolve_fit_window(options["fit_lo"], options["fit_hi"], given["icfg"])
        except InvalidConfigurationError as exc:
            raise InvalidConfigurationError(f"[experiment] {exc}") from None
    if "grid_step" in options:
        lambdas = lambda_grid(options)
    check_requirements(exp_id, **options, **given, fit_window=fit_window, lambdas=lambdas)


def make_initial_state(model, rng, energy2=1.0):
    """Random state: Gaussian modal coefficients with j**-2 falloff.

    The state is rescaled so the quadratic part of twice the energy,
    sum (sigma_j + kappa mu_j) a_j^2 + sum b_j^2, equals ``energy2``.
    """
    check_option("energy2", energy2)
    j = np.arange(1, model.n_modes + 1, dtype=float)
    a = rng.standard_normal(model.n_modes) * j**-2.0
    b = rng.standard_normal(model.n_modes) * j**-2.0
    if energy2 == 0.0:
        return ModalState(np.zeros(model.n_modes), np.zeros(model.n_modes), 0.0)
    quad = float(
        np.sum((model.sigma + model.kappa * model.mu) * a**2) + float(b @ b)
    )
    scale = math.sqrt(energy2 / quad)
    return ModalState(a * scale, b * scale, 0.0)


def _states(inp, n):
    """``n`` initial states drawn in turn from the run's generator with the
    ``energy2`` option."""
    return [make_initial_state(inp.model, inp.rng, inp.opts["energy2"]) for _ in range(n)]


def _ball_starts(inp):
    """exp_k3_ball's inside and outside starts, drawn in turn from the run's
    generator: 2E uniform in (0.05, 0.95) inside the unit ball, and uniform
    in (2, 8) outside it."""
    model, opts, rng = inp.model, inp.opts, inp.rng
    inside = [
        make_initial_state(model, rng, rng.uniform(0.05, 0.95)) for _ in range(opts["n_inside"])
    ]
    outside = [
        make_initial_state(model, rng, rng.uniform(2.0, 8.0)) for _ in range(opts["n_outside"])
    ]
    return inside, outside


@dataclass(frozen=True)
class Criterion:
    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentReport:
    experiment_id: str
    seed: int | None = None
    criteria: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    end_states: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def add(self, name, passed, detail=""):
        self.criteria.append(Criterion(name, bool(passed), detail))

    def to_text(self) -> str:
        lines = [f"experiment: {self.experiment_id}"]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        for c in self.criteria:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}: {c.detail}")
        for k in sorted(self.metrics):
            lines.append(f"  metric {k} = {self.metrics[k]:.10g}")
        for a in self.artifacts:
            lines.append(f"  artifact: {a}")
        return "\n".join(lines) + "\n"


def _monotone_slack(traj):
    # Integration error budget for monotonicity checks: ten times the
    # energy-identity residual, plus a rounding floor.
    return 10.0 * energy_identity_residual(traj) * max(
        abs(float(traj.energy[0])), 1.0
    ) + 1e-13 * max(1.0, abs(float(traj.energy_mod[0])))


def _common_checks(report, traj, omega):
    """Lyapunov monotonicity, coercivity, and global boundedness."""
    slack = _monotone_slack(traj)
    rises = np.diff(traj.energy_mod)
    worst = float(np.max(rises)) if rises.size else 0.0
    report.add(
        "lyapunov_nonincreasing",
        worst <= slack,
        f"max rise {worst:.3g} vs slack {slack:.3g}",
    )
    coer = 0.25 * omega * traj.phase**2 - traj.energy_mod
    worst_c = float(np.max(coer))
    report.add(
        "coercivity",
        worst_c <= 1e-9 * max(1.0, abs(float(traj.energy_mod[0]))),
        f"max of omega/4*phase^2 - Etilde = {worst_c:.3g}",
    )
    c_b = math.sqrt(4.0 * max(float(traj.energy_mod[0]), 0.0) / omega)
    worst_p = float(np.max(traj.phase))
    report.add(
        "global_bound",
        worst_p <= c_b * (1.0 + 1e-9) + 1e-12,
        f"max phase norm {worst_p:.6g} vs bound {c_b:.6g}",
    )


def _write_artifact(report, out_dir, name, *table, write=write_csv):
    """Write the CSV ``name`` into ``out_dir`` and list it in the report;
    nothing without ``out_dir``.  ``table`` is the header and the columns
    of ``write_csv``; a trajectory passes its own ``write_csv`` instead."""
    if out_dir is not None:
        write(f"{out_dir}/{name}", *table)
        report.artifacts.append(name)


def simulate(model, damping, source, forcing, initial, icfg, *, seed=None, out_dir=None):
    """Plain integration; the report records the samples and
    ``trajectory.csv`` holds the trajectory."""
    traj = integrate(model, source, damping, forcing, initial, icfg)
    report = ExperimentReport("simulate", seed=seed)
    report.add("completed", True, f"{traj.n_samples} samples over [0, {traj.t[-1]:g}]")
    _write_artifact(report, out_dir, "trajectory.csv", write=traj.write_csv)
    return report


def exp_k1_decay(
    model, damping, source, forcing, initial, icfg, *, fit_window=None, seed=None, out_dir=None
):
    """Two-sided polynomial envelope and optimal-rate fit for the monomial law.

    Checks that the modified energy stays between the closed-form envelopes
    (with 2% relative slack) at every sample, and, when ``fit_window`` is
    given, that the log-log slopes of energy and phase norm match -1/q and
    -1/(2q) within 15% over the window ``resolve_fit_window`` makes of it
    (fit_lo = fit_hi = 0 takes the last nine tenths of the run).
    """
    if fit_window is not None:
        fit_window = resolve_fit_window(*fit_window, icfg, initial.t)
    check_requirements("exp_k1_decay", damping=damping, fit_window=fit_window)
    slack, rate_tol = 0.02, 0.15
    constants = assumption_constants(source)

    traj = integrate(model, source, damping, forcing, initial, icfg, constants)
    report = ExperimentReport("exp_k1_decay", seed=seed)
    report.metrics["identity_residual"] = energy_identity_residual(traj)

    e0 = float(traj.energy_mod[0])
    params = envelope_constants(
        damping.q, damping.gamma, icfg.alpha, model, constants, forcing, e0
    )
    lower, upper = decay_envelopes(params, traj.t)
    lo_margin = float(np.min(traj.energy_mod - (1.0 - slack) * lower))
    hi_margin = float(np.min((1.0 + slack) * upper - traj.energy_mod))
    report.add(
        "envelope_lower",
        lo_margin >= 0.0,
        f"min(Etilde - (1-{slack})*lower) = {lo_margin:.3g}",
    )
    report.add(
        "envelope_upper",
        hi_margin >= 0.0,
        f"min((1+{slack})*upper - Etilde) = {hi_margin:.3g}",
    )
    report.metrics["C_lower"] = params.C_lower
    report.metrics["C_upper"] = params.C_upper

    if fit_window is not None:
        fit_e = fit_power_rate(SampledSeries(traj.t, traj.energy_mod), fit_window)
        fit_p = fit_power_rate(SampledSeries(traj.t, traj.phase), fit_window)
        target_e = -1.0 / damping.q
        target_p = -1.0 / (2.0 * damping.q)
        report.add(
            "slope_energy",
            abs(fit_e.slope - target_e) <= rate_tol * abs(target_e),
            f"slope {fit_e.slope:.4f} vs {target_e:.4f} (r2 {fit_e.r2:.5f})",
        )
        report.add(
            "slope_phase",
            abs(fit_p.slope - target_p) <= rate_tol * abs(target_p),
            f"slope {fit_p.slope:.4f} vs {target_p:.4f} (r2 {fit_p.r2:.5f})",
        )
        report.metrics["slope_energy"] = fit_e.slope
        report.metrics["slope_phase"] = fit_p.slope

    _common_checks(report, traj, params.omega)
    _write_artifact(report, out_dir, "trajectory.csv", write=traj.write_csv)
    _write_artifact(
        report,
        out_dir,
        "envelope.csv",
        ["t", "Etilde", "lower", "upper"],
        [traj.t, traj.energy_mod, lower, upper],
    )
    return report


def exp_k2_exponential(
    model,
    damping,
    source,
    forcing,
    initial,
    icfg,
    *,
    fit_window=None,
    r2_min=0.999,
    seed=None,
    out_dir=None,
):
    """Exponential decay fit (homogeneous) or floored exponential fit (forced).

    Homogeneous runs must fit a clean positive rate with r^2 >= ``r2_min``
    over ``fit_window``, which ``resolve_fit_window`` resolves (None is the
    window (0, 0), so the last nine tenths of the run).  Forced runs fit
    constants (C, c) such that
    Etilde(t) <= C Etilde(0) exp(-c t) + 8 K_lambda holds at every sample,
    and must eventually enter the absorbing ball 64 K_lambda / omega.
    """
    check_option("r2_min", r2_min)
    fit_window = resolve_fit_window(*(fit_window or (0.0, 0.0)), icfg, initial.t)
    constants = assumption_constants(source)

    traj = integrate(model, source, damping, forcing, initial, icfg, constants)
    report = ExperimentReport("exp_k2_exponential", seed=seed)
    report.metrics["identity_residual"] = energy_identity_residual(traj)
    omega, k_lam = coercivity_offset(model, constants, forcing)

    forced = forcing.effective_norm > 0.0
    if not forced:
        fit = fit_exp_rate(SampledSeries(traj.t, traj.energy_mod), fit_window)
        report.add("rate_positive", fit.rate > 0.0, f"rate {fit.rate:.6g}")
        report.add("fit_quality", fit.r2 >= r2_min, f"r2 {fit.r2:.6f} >= {r2_min}")
        report.metrics["rate"] = fit.rate
        report.metrics["r2"] = fit.r2
    else:
        floor = 8.0 * k_lam
        e0 = float(traj.energy_mod[0])
        excess = traj.energy_mod - floor
        mask = excess > 1e-12 * max(1.0, e0)
        if int(np.count_nonzero(mask)) >= 10:
            fit = fit_exp_rate(
                SampledSeries(traj.t[mask], excess[mask]),
                (float(traj.t[mask][0]), float(traj.t[mask][-1])),
            )
            c_rate = max(fit.rate, 1e-12)
        else:
            c_rate = 1.0
        big_c = float(np.max(excess / (e0 * np.exp(-c_rate * traj.t))))
        big_c = max(big_c, 1e-12)
        resid = traj.energy_mod - (big_c * e0 * np.exp(-c_rate * traj.t) + floor)
        worst = float(np.max(resid))
        report.add("rate_positive", c_rate > 0.0, f"c = {c_rate:.6g}")
        report.add(
            "floored_fit_feasible",
            worst <= 1e-9 * max(1.0, e0),
            f"C = {big_c:.6g}, max residual {worst:.3g}",
        )
        report.add(
            "terminal_below_floor",
            float(traj.energy_mod[-1]) <= floor + 1e-3 * max(1.0, k_lam),
            f"Etilde(T) = {traj.energy_mod[-1]:.6g} vs 8 K_lambda = {floor:.6g}",
        )
        ball = 64.0 * k_lam / omega
        inside = traj.phase**2 <= ball * (1.0 + 1e-6)
        # stays_inside[i] = all(inside[i:])
        stays_inside = np.logical_and.accumulate(inside[::-1])[::-1]
        entry = float(traj.t[np.argmax(stays_inside)]) if stays_inside[-1] else None
        report.add(
            "absorbing_entry",
            entry is not None,
            f"enters 64 K_lambda/omega = {ball:.6g} at t = {entry}",
        )
        report.metrics["C_fit"] = big_c
        report.metrics["c_fit"] = c_rate

    _common_checks(report, traj, omega)
    _write_artifact(report, out_dir, "trajectory.csv", write=traj.write_csv)
    return report


def exp_k3_ball(
    model,
    damping,
    source,
    forcing,
    initials_inside,
    initials_outside,
    icfg,
    *,
    horizon_outside=1000.0,
    seed=None,
    out_dir=None,
):
    """Noncompact ball attractor for the threshold law with f = h = 0.

    Inside the unit energy ball the coefficient vanishes identically, so the
    flow is an exact rotation and the energy must be conserved to a relative
    drift of 1e-10.  Outside starts must decay monotonically to the ball
    surface 2E = 1.  They run as one batch over at most ``horizon_outside``,
    which stops at the first 128-step check where every run has
    |2E - 1| <= 1e-3; ``outside_0.csv`` is the first run from t = 0 to that
    stop.
    """
    drift_tol, target_tol = 1e-10, 1e-3
    check_requirements("exp_k3_ball", damping=damping, source=source, forcing=forcing)
    check_option("n_inside", len(initials_inside))
    report = ExperimentReport("exp_k3_ball", seed=seed)

    worst_drift = 0.0
    inside = integrate_batch(
        model, source, damping, [forcing] * len(initials_inside), initials_inside, icfg
    )
    for idx, traj in enumerate(inside):
        e0 = float(traj.energy[0])
        drift = float(np.max(np.abs(traj.energy - e0))) / max(abs(e0), 1e-300)
        worst_drift = max(worst_drift, drift)
        if idx == 0:
            _write_artifact(report, out_dir, "inside_0.csv", write=traj.write_csv)
    inside = traj = None  # free the inside runs before the outside batch
    report.add(
        "inside_conserved",
        worst_drift <= drift_tol,
        f"max relative energy drift {worst_drift:.3g} over {len(initials_inside)} runs",
    )
    report.metrics["inside_drift"] = worst_drift

    lh = forcing.effective

    def on_sphere(a, b):
        return abs(2.0 * total_energy(model, source, lh, a, b) - 1.0) <= target_tol

    outside = integrate_batch(
        model,
        source,
        damping,
        [forcing] * len(initials_outside),
        initials_outside,
        replace(icfg, horizon=horizon_outside),
        until=on_sphere,
    )
    worst_hit = worst_gap = 0.0
    worst_rise = worst_dist_violation = -math.inf
    for idx, traj in enumerate(outside):
        e2 = 2.0 * traj.energy
        hit = np.nonzero(np.abs(e2 - 1.0) <= target_tol)[0]
        worst_hit = max(worst_hit, float(traj.t[hit[0]]) if hit.size else math.inf)
        worst_gap = max(worst_gap, abs(float(e2[-1]) - 1.0))
        rise = float(np.max(np.diff(e2))) - 2.0 * _monotone_slack(traj)
        worst_rise = max(worst_rise, rise)
        dist = np.maximum(traj.phase - 1.0, 0.0)
        viol = float(np.max(dist - (np.sqrt(e2) - 1.0)))
        worst_dist_violation = max(worst_dist_violation, viol)
        if idx == 0:
            _write_artifact(report, out_dir, "outside_0.csv", write=traj.write_csv)

    if initials_outside:
        report.add(
            "outside_monotone",
            worst_rise <= 0.0,
            f"max 2E rise beyond slack {worst_rise:.3g}",
        )
        report.add(
            "outside_reaches_sphere",
            worst_hit <= horizon_outside and worst_gap <= target_tol,
            f"latest hit t = {worst_hit:.6g}, max final |2E-1| = {worst_gap:.3g}",
        )
        report.add(
            "distance_estimate",
            worst_dist_violation <= 1e-9,
            f"max (dist - (sqrt(2E)-1)) = {worst_dist_violation:.3g}",
        )
        report.metrics["latest_hit_time"] = worst_hit
        report.metrics["max_final_gap"] = worst_gap
    report.end_states = [traj.final_state for traj in outside]
    return report


def exp_two_trajectory(
    model, damping, source, forcing, initial_1, initial_2, icfg, *, seed=None, out_dir=None
):
    """Feasibility fit of the two-trajectory difference envelope.

    The squared phase-space gap d(t) must fit under a polynomial decay term
    plus a multiple of the lower-order series built from the weaker norms of
    the difference; its L^(p+2) part takes p from the source (2 for the zero
    source).  Constants are fitted from the data; the experiment passes when
    the fit leaves no positive residual.
    """
    check_requirements("exp_two_trajectory", damping=damping, forcing=forcing)
    p_exponent, q = source.p, damping.q

    # the lower-order sup looks ahead one unit
    run_cfg = replace(icfg, horizon=icfg.horizon + 1.0)
    t1, t2 = integrate_batch(
        model, source, damping, [forcing] * 2, [initial_1, initial_2], run_cfg
    )

    da = t1.a - t2.a
    db = t1.b - t2.b
    d = _weighted_squares(da, model.sigma) + np.sum(db**2, axis=1)
    times = t1.t

    a_alpha = np.sqrt(_weighted_squares(da, _mu2alpha(model, icfg.alpha)))
    lp = _quadrature(model, np.abs(_synthesize(model, da)) ** (p_exponent + 2.0))
    lp **= 2.0 / (p_exponent + 2.0)
    lower_raw = a_alpha ** (2.0 * (q + 1.0) / (2.0 * q + 1.0)) + lp
    prefix_max = np.maximum.accumulate(lower_raw)

    mask = times <= icfg.horizon + 1e-9
    idx_plus1 = np.searchsorted(times, times[mask] + 1.0, side="right") - 1
    g = prefix_max[idx_plus1] ** (1.0 / (q + 1.0))
    d_obs = d[mask]
    t_obs = times[mask]

    report = ExperimentReport("exp_two_trajectory", seed=seed)
    d0 = float(np.max(d_obs[t_obs <= 1.0 + 1e-9]))
    if d0 == 0.0:
        report.add("feasible", True, "identical trajectories, d == 0")
        report.metrics.update(C1=0.0, C2=0.0, max_residual=0.0)
        return report

    tail = (t_obs > 1.0) & (d_obs < d0) & (d_obs > 0.0)
    if np.any(tail):
        c1 = float(
            np.max(
                q * (t_obs[tail] - 1.0) / (d_obs[tail] ** (-q) - d0 ** (-q))
            )
        )
    else:
        c1 = 1.0
    poly = (q * np.maximum(t_obs - 1.0, 0.0) / c1 + d0 ** (-q)) ** (-1.0 / q)
    over = d_obs - poly
    pos = over > 0.0
    c2 = float(np.max(over[pos] / g[pos])) if np.any(pos) else 0.0
    resid = d_obs - poly - c2 * g
    worst = float(np.max(resid))
    tight_end = float(d_obs[-1] / poly[-1]) if poly[-1] > 0.0 else math.inf

    report.add(
        "feasible",
        worst <= 1e-9 * max(1.0, d0) and c1 >= 0.0 and c2 >= 0.0,
        f"C1 = {c1:.6g}, C2 = {c2:.6g}, max residual {worst:.3g}",
    )
    report.metrics.update(
        C1=c1, C2=c2, max_residual=worst, tightness_end=tight_end, d0=d0
    )
    _write_artifact(
        report,
        out_dir,
        "difference.csv",
        ["t", "d", "poly_bound", "lower_order"],
        [t_obs, d_obs, poly, g],
    )
    return report


def exp_lambda_lipschitz(
    model,
    damping,
    source,
    forcing,
    initial,
    icfg,
    *,
    lambdas,
    lambda0,
    t_probe,
    seed=None,
    out_dir=None,
):
    """Trajectory sensitivity to the forcing intensity.

    Runs the same initial state under the profile of ``forcing`` at every
    intensity in ``lambdas`` plus the reference ``lambda0`` (the intensity
    of ``forcing`` itself is not used) and reports the difference-to-gap
    ratios at ``t_probe``.  Passes when all ratios are finite and the two
    smallest gaps give ratios within a factor of two of each other.
    """
    lams = [float(x) for x in lambdas]
    check_requirements("exp_lambda_lipschitz", lambdas=lams, lambda0=lambda0)

    run_cfg = replace(
        icfg, horizon=t_probe, sample_stride=max(1, int(round(t_probe / icfg.dt)))
    )

    runs = [float(lambda0)] + lams
    trajs = integrate_batch(
        model,
        source,
        damping,
        [Forcing(lam, forcing.h_coeffs) for lam in runs],
        [initial] * len(runs),
        run_cfg,
    )
    ref, *finals = [traj.final_state for traj in trajs]
    ratios = {}
    for lam, st in zip(lams, finals):
        diff = phase_norm(model, ModalState(st.a - ref.a, st.b - ref.b))
        ratios[lam] = diff / abs(lam - lambda0)

    report = ExperimentReport("exp_lambda_lipschitz", seed=seed)
    vals = np.array([ratios[lam] for lam in lams])
    report.add(
        "ratios_finite",
        bool(np.all(np.isfinite(vals))),
        f"max ratio {float(np.max(vals)):.6g}",
    )
    by_gap = sorted(lams, key=lambda x: abs(x - lambda0))
    r_small = sorted([ratios[by_gap[0]], ratios[by_gap[1]]])
    consistent = r_small[1] <= 2.0 * max(r_small[0], 1e-300)
    report.add(
        "local_linearity",
        consistent,
        f"smallest-gap ratios {r_small[0]:.6g}, {r_small[1]:.6g}",
    )
    report.metrics["max_ratio"] = float(np.max(vals))
    report.metrics["ratio_spread"] = (
        float(np.max(vals) / np.min(vals)) if np.min(vals) > 0 else math.inf
    )
    _write_artifact(report, out_dir, "ratios.csv", ["lambda", "ratio"], [lams, vals])
    return report


def _integrate_decomposed(model, source, damping, forcing, initials, cfg):
    """Advance the full solution u and its smoothing part z from each start
    in ``initials``, as one coupled Strang batch sampled from t = 0.

    The rows are [u_0, z_0, u_1, z_1, ...]; z_i starts at rest, carries no
    force and is driven by -f(u_i), the source projection of the row before
    it.  With v_i the linear forced run from the same start (a ZeroSource
    run), u_i = v_i + z_i holds to rounding by linearity.  Returns the
    sample times and the u and z stacks au, bu, az, bz, each of shape
    (samples, len(initials), N).
    """
    zero = np.zeros(model.n_modes)
    a = np.stack([r for s in initials for r in (s.a, zero)])
    b = np.stack([r for s in initials for r in (s.b, zero)])
    lh = np.stack([forcing.effective, zero] * len(initials))
    drive = np.arange(len(a)) // 2 * 2
    rec = _integrate_driven(model, source, damping, lh, drive, a, b, cfg)
    u, z = slice(0, None, 2), slice(1, None, 2)
    return rec.times, rec.amat[:, u], rec.bmat[:, u], rec.amat[:, z], rec.bmat[:, z]


def exp_decomposition(
    model,
    damping,
    source,
    forcing,
    initial_1,
    initial_2,
    icfg,
    *,
    s=1.0,
    probe_modes=(4, 8, 16, 32),
    seed=None,
    out_dir=None,
):
    """Splitting into an exponentially contracting part plus a smoothing part.

    Checks (i) the split reassembles the full solution, (ii) the linear part
    contracts pairs of initial states exponentially, and (iii) the smoothing
    part is controlled by the weak-space norm of single-mode perturbations
    uniformly over the probe modes, where the probe of mode j has weak norm
    probe_eps * sigma_j**(s/4), 0 < s < 2, with probe_eps = 1e-3.  Its runs
    are batches, so an RK4 config raises.
    """
    check_requirements(
        "exp_decomposition", damping=damping, s=s, probe_modes=probe_modes, n_modes=model.n_modes
    )
    probe_eps = 1e-3

    report = ExperimentReport("exp_decomposition", seed=seed)
    # u and z for initial_1 (row 0) and each single-mode probe perturbation
    probes = []
    for j in probe_modes:
        a_pert = initial_1.a.copy()
        a_pert[j - 1] += probe_eps
        probes.append(ModalState(a_pert, initial_1.b.copy(), 0.0))
    times, au, bu, az, bz = _integrate_decomposed(
        model, source, damping, forcing, [initial_1, *probes], icfg
    )
    # v, the linear forced part, for the pair of initial states
    v1, v2 = integrate_batch(
        model, ZeroSource(), damping, [forcing] * 2, [initial_1, initial_2], icfg
    )
    gap = phase_norms(
        model, au[:, 0] - (v1.a + az[:, 0]), bu[:, 0] - (v1.b + bz[:, 0])
    )
    worst_gap = float(np.max(gap))
    report.add(
        "split_consistent",
        worst_gap <= 1e-9,
        f"max ||u - (v+z)||_H = {worst_gap:.3g}",
    )
    report.metrics["split_gap"] = worst_gap

    # Contraction of the linear component for a pair of initial states.
    gap_v = phase_norms(model, v1.a - v2.a, v1.b - v2.b)
    denom = float(gap_v[0])
    pos = gap_v > 0.0
    if denom > 0.0 and int(np.count_nonzero(pos)) >= 10:
        fit = fit_exp_rate(
            SampledSeries(times[pos], gap_v[pos] / denom),
            (0.0, icfg.horizon),
        )
        report.add(
            "linear_contraction",
            fit.rate > 0.0,
            f"rate {fit.rate:.6g} (r2 {fit.r2:.5f})",
        )
        report.metrics["contraction_rate"] = fit.rate
    else:
        report.add(
            "linear_contraction",
            True,
            "initial states coincide; contraction is vacuous",
        )
        report.metrics["contraction_rate"] = math.inf

    # Smoothing: weak-norm control of the z-difference, uniform over modes.
    ratios = []
    for p, j in enumerate(probe_modes, start=1):
        znorm = phase_norms(model, az[:, 0] - az[:, p], bz[:, 0] - bz[:, p])
        w_norm = probe_eps * float(model.sigma[j - 1]) ** (s / 4.0)
        ratios.append(float(np.max(znorm)) / w_norm)
    spread = max(ratios) / min(ratios) if min(ratios) > 0.0 else math.inf
    report.add(
        "smoothing_uniform",
        spread <= 10.0,
        f"ratios {['%.4g' % r for r in ratios]}, max/min = {spread:.4g}",
    )
    report.metrics["smoothing_spread"] = spread
    _write_artifact(
        report,
        out_dir,
        "decomposition.csv",
        ["t", "split_gap", "linear_gap"],
        [times, gap, gap_v],
    )
    return report


@dataclass(frozen=True)
class EntropyEstimate:
    eps: tuple
    counts: tuple
    entropy: tuple
    dimension: float


def box_count_entropy(points, eps_list):
    """Greedy covering-number estimate of the cloud's fractal dimension.

    Covers the cloud by balls of each radius eps (decreasing list) in the
    Euclidean metric; the dimension is the fitted slope of
    ln N(eps) against ln(1/eps).  Greedy covering upper-bounds the minimal
    covering number, which suffices for a dimension estimate.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("points must be a non-empty (n, d) array")
    eps = [float(e) for e in eps_list]
    if not eps:
        raise ValueError("eps list must hold at least one radius")
    if any(e <= 0.0 for e in eps):
        raise ValueError("eps values must be positive")
    if any(eps[i] <= eps[i + 1] for i in range(len(eps) - 1)):
        raise ValueError("eps list must be strictly decreasing")

    counts = []
    for e in eps:
        uncovered = np.ones(pts.shape[0], dtype=bool)
        n = 0
        while np.any(uncovered):
            center = pts[np.argmax(uncovered)]
            d2 = np.sum((pts[uncovered] - center) ** 2, axis=1)
            keep = d2 > e * e
            idx = np.nonzero(uncovered)[0]
            uncovered[idx] = keep
            n += 1
        counts.append(n)
    h = [math.log(c) for c in counts]
    x = np.log(1.0 / np.array(eps))
    if np.ptp(x) == 0.0:
        dim = 0.0
    else:
        A = np.vstack([x, np.ones_like(x)]).T
        coef, *_ = np.linalg.lstsq(A, np.array(h), rcond=None)
        dim = float(coef[0])
    return EntropyEstimate(tuple(eps), tuple(counts), tuple(h), dim)


def synthetic_circle(n_points, rng):
    """Unit circle embedded in the first two coefficients."""
    theta = rng.uniform(0.0, 2.0 * math.pi, n_points)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def synthetic_torus(n_points, rng):
    """Flat 2-torus embedded in four coordinates."""
    th = rng.uniform(0.0, 2.0 * math.pi, n_points)
    ph = rng.uniform(0.0, 2.0 * math.pi, n_points)
    return np.column_stack([np.cos(th), np.sin(th), np.cos(ph), np.sin(ph)])


def exp_entropy(seed=0, n_points=10000):
    """Covering-number dimension of ``n_points`` samples of a circle (1
    within 0.2) and then of a flat 2-torus (2 within 0.3), drawn in turn
    from one generator."""
    check_option("n_points", n_points)
    rng = np.random.default_rng(seed)
    report = ExperimentReport("exp_entropy", seed=seed)
    for name, sample, eps, target, tol in (
        ("circle", synthetic_circle, np.geomspace(0.5, 0.02, 8), 1.0, 0.2),
        ("torus", synthetic_torus, np.geomspace(1.2, 0.18, 6), 2.0, 0.3),
    ):
        dim = box_count_entropy(sample(n_points, rng), eps).dimension
        report.add(f"{name}_dimension", abs(dim - target) <= tol, f"estimated {dim:.4f}")
        report.metrics[f"{name}_dimension"] = dim
    return report


# Each candidate problem's variates are drawn in turn and the accepted
# problems keep stream order, so the block size leaves the sample unchanged;
# it bounds the padded arrays (rows of at most 61 samples).
NAKAO_BLOCK = 64
NAKAO_RHOS = (0.0, 0.5, 1.0, 2.0)


def nakao_suite(seed=0, trials=1000):
    """Randomized soundness sweep of the window decay lemma.

    Each rho of ``NAKAO_RHOS`` draws ``trials`` problems ``NAKAO_BLOCK`` at
    a time: the generator draws one candidate after another, and the block
    builds, filters and verifies them as padded rows.  The problems are the
    feasible candidates in stream order, the sample of drawing and
    verifying one problem at a time.
    """
    check_option("trials", trials)
    rng = np.random.default_rng(seed)
    report = ExperimentReport("nakao_suite", seed=seed)
    worst = -math.inf
    violations = 0
    total = 0
    for rho in NAKAO_RHOS:
        for start in range(0, trials, NAKAO_BLOCK):
            rows = _draw_rows(rng, rho, min(NAKAO_BLOCK, trials - start))
            residual, margin = _verify_draws(rows, rho)
            # a failed hypothesis is a violation with no margin
            margin = margin[residual <= 0.0]
            total += len(residual)
            violations += len(residual) - len(margin)
            violations += int(np.count_nonzero(~(margin <= CONCLUSION_TOL)))
            worst = max([worst, *margin.tolist()])
    report.add(
        "soundness",
        violations == 0,
        f"{violations} violations in {total} trials, worst margin {worst:.3g}",
    )
    report.metrics["worst_margin"] = worst
    report.metrics["trials"] = total
    return report


HARAUX_BLOCK = 1024
HARAUX_MAX_DIM = 8


def haraux_suite(seed=0, trials=100000):
    """Randomized sweep of the norm power-difference bound, dims 1..8, r in [1, 6).

    Trials are drawn and checked ``HARAUX_BLOCK`` at a time, one generator
    call per variate and block; each trial's vectors are zero-padded rows
    of length ``HARAUX_MAX_DIM``.  The block size is part of the sample
    stream, so changing it changes the sample (and the pinned report).
    """
    check_option("trials", trials)
    rng = np.random.default_rng(seed)
    report = ExperimentReport("haraux_suite", seed=seed)
    violations = 0
    worst = -math.inf
    for start in range(0, trials, HARAUX_BLOCK):
        n = min(HARAUX_BLOCK, trials - start)
        dims = rng.integers(1, HARAUX_MAX_DIM + 1, size=n)
        live = np.arange(HARAUX_MAX_DIM) < dims[:, None]
        u = np.where(live, rng.standard_normal((n, HARAUX_MAX_DIM)), 0.0)
        v = np.where(live, rng.standard_normal((n, HARAUX_MAX_DIM)), 0.0)
        u *= 10.0 ** rng.uniform(-3, 2, size=(n, 1))
        v *= 10.0 ** rng.uniform(-3, 2, size=(n, 1))
        r = rng.uniform(1.0, 6.0, size=n)
        lhs, rhs, ok = haraux_check(u, v, r)
        worst = max(worst, float(np.max(lhs - rhs)))
        violations += int(np.count_nonzero(~ok))
    report.add(
        "soundness",
        violations == 0,
        f"{violations} violations in {trials} trials, worst lhs-rhs {worst:.3g}",
    )
    report.metrics["trials"] = trials
    return report


def exp_stationary(model, source, forcing, n_starts, *, tol=1e-8, seed=0, out_dir=None):
    """Multi-start stationary solve with the a-priori bound check.

    The starts are the origin and ``n_starts - 1`` Gaussian draws with
    j**-2 falloff; every distinct stationary point must converge at ``tol``
    and satisfy the bound.  ``stationary.csv`` holds one row of coefficients
    per distinct point.
    """
    check_option("n_starts", n_starts)
    check_option("tol", tol)
    rng = np.random.default_rng(seed)
    starts = [np.zeros(model.n_modes)]
    j = np.arange(1, model.n_modes + 1, dtype=float)
    for _ in range(n_starts - 1):
        starts.append(rng.standard_normal(model.n_modes) * j**-2.0)
    results = multi_start(model, source, forcing, starts, tol=tol)
    constants = assumption_constants(source)
    report = ExperimentReport("stationary", seed=seed)
    report.add(
        "all_converged",
        all(r.converged for r in results),
        f"{sum(r.converged for r in results)}/{len(results)} converged "
        f"({len(starts)} starts, {len(results)} distinct)",
    )
    checks = [stationary_bound_check(model, constants, forcing, r) for r in results]
    report.add(
        "bound_check",
        all(c.ok for c in checks),
        "; ".join(f"lhs {c.lhs:.4g} <= rhs {c.rhs:.4g}" for c in checks[:4]),
    )
    report.metrics["n_distinct"] = len(results)
    report.metrics["best_value"] = min(r.functional_value for r in results)
    header = ["lambda", "functional_value", "residual"]
    header += [f"c_{k}" for k in range(1, model.n_modes + 1)]
    rows = [[forcing.lam, r.functional_value, r.residual, *r.coeffs] for r in results]
    _write_artifact(report, out_dir, "stationary.csv", header, [rows])
    return report


# experiment id -> its row: the keys its run file's [experiment] section
# takes, with their defaults (``options``); ``run(inp, seed=, out_dir=)``,
# which draws the driver's inputs from a run's inputs ``inp`` (cli's
# ``_start``, whose first four, ``inp[:4]``, are the model, damping, source
# and forcing every integrating driver takes first) and calls the driver; its
# ``edbeam list`` line (``about``); the options that are run ``horizons``,
# stepped with the [integrator] dt; and the names of the REQUIREMENTS it
# ``requires``.  A runner looks its driver up in this module when it runs, so
# a driver rebound in experiments (as a tracer does) is the one that runs.
Experiment = namedtuple("Experiment", "options run about horizons requires", defaults=((), ()))
EXPERIMENTS = {
    "simulate": Experiment(
        options={"energy2": 1.0},
        run=lambda inp, **out: simulate(*inp[:4], *_states(inp, 1), inp.icfg, **out),
        about="plain trajectory integration with CSV export",
    ),
    "exp_k1_decay": Experiment(
        options={"energy2": 1.0, "fit_lo": 0.0, "fit_hi": 0.0},
        requires=("the monomial law", "fit_lo > 0"),
        run=lambda inp, **out: exp_k1_decay(
            *inp[:4],
            *_states(inp, 1),
            inp.icfg,
            fit_window=(inp.opts["fit_lo"], inp.opts["fit_hi"]),
            **out,
        ),
        about="two-sided polynomial energy envelope and 1/q rate fit for the monomial damping",
    ),
    "exp_k2_exponential": Experiment(
        options={"energy2": 1.0, "fit_lo": 0.0, "fit_hi": 0.0, "r2_min": 0.999},
        run=lambda inp, **out: exp_k2_exponential(
            *inp[:4],
            *_states(inp, 1),
            inp.icfg,
            fit_window=(inp.opts["fit_lo"], inp.opts["fit_hi"]),
            r2_min=inp.opts["r2_min"],
            **out,
        ),
        about="exponential decay fit, floored fit under forcing, absorbing-ball entry",
    ),
    "exp_k3_ball": Experiment(
        options={"n_inside": 10, "n_outside": 10, "horizon_outside": 1000.0},
        horizons=("horizon_outside",),
        requires=("a threshold law", "zero forcing", "the zero source"),
        run=lambda inp, **out: exp_k3_ball(
            *inp[:4],
            *_ball_starts(inp),
            inp.icfg,
            horizon_outside=inp.opts["horizon_outside"],
            **out,
        ),
        about="conservation inside and attraction to the unit energy sphere for the threshold "
        "damping",
    ),
    "exp_two_trajectory": Experiment(
        options={"energy2": 1.0},
        requires=("the monomial law", "zero forcing"),
        run=lambda inp, **out: exp_two_trajectory(*inp[:4], *_states(inp, 2), inp.icfg, **out),
        about="feasibility of the two-trajectory difference envelope",
    ),
    "exp_lambda_lipschitz": Experiment(
        options={"lambda0": 0.5, "t_probe": 10.0, "grid_step": 0.1, "energy2": 1.0},
        horizons=("t_probe",),
        requires=("lambda0 in [0, 1]", "two grid intensities besides lambda0"),
        run=lambda inp, **out: exp_lambda_lipschitz(
            *inp[:4],
            *_states(inp, 1),
            inp.icfg,
            lambdas=lambda_grid(inp.opts),
            lambda0=inp.opts["lambda0"],
            t_probe=inp.opts["t_probe"],
            **out,
        ),
        about="Lipschitz sensitivity of trajectories to the forcing intensity",
    ),
    "exp_decomposition": Experiment(
        options={"s": 1.0, "probe_modes": (4, 8, 16, 32), "energy2": 1.0},
        requires=("a constant damping coefficient", "s in (0, 2)", "probe_modes in [1, n_modes]"),
        run=lambda inp, **out: exp_decomposition(
            *inp[:4],
            *_states(inp, 2),
            inp.icfg,
            s=inp.opts["s"],
            probe_modes=inp.opts["probe_modes"],
            **out,
        ),
        about="contracting + smoothing splitting of the constant-damping flow",
    ),
    "exp_entropy": Experiment(
        options={"n_points": 10000},
        run=lambda inp, seed, out_dir: exp_entropy(seed, inp.opts["n_points"]),
        about="covering-number dimension estimates on synthetic manifolds",
    ),
    "nakao_suite": Experiment(
        options={"trials": 1000},
        run=lambda inp, seed, out_dir: nakao_suite(seed, inp.opts["trials"]),
        about="randomized soundness of the window decay lemma",
    ),
    "haraux_suite": Experiment(
        options={"trials": 100000},
        run=lambda inp, seed, out_dir: haraux_suite(seed, inp.opts["trials"]),
        about="randomized soundness of the norm power-difference bound",
    ),
    "stationary": Experiment(
        options={"n_starts": 20, "tol": 1e-8},
        run=lambda inp, **out: exp_stationary(
            inp.model, inp.source, inp.forcing, inp.opts["n_starts"], tol=inp.opts["tol"], **out
        ),
        about="variational stationary solver with a-priori bound check",
    ),
}
