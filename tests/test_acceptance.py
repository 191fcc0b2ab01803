"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
pass lines.  The long polynomial-decay runs (criteria 2 and 3) integrate a
million steps each and dominate the ~2 minute wall time; every run is
deterministic for its fixed seed.
"""

import math

import numpy as np
import pytest

from edbeam import (
    Forcing,
    IntegratorConfig,
    K1Monomial,
    K2Constant,
    K3Rational,
    SampledSeries,
    ZeroSource,
    assumption_constants,
    build_model,
    decay_envelopes,
    energy_identity_residual,
    envelope_constants,
    fit_power_rate,
    integrate,
    minimize_functional,
    stationary_bound_check,
)
from edbeam.experiments import (
    box_count_entropy,
    exp_decomposition,
    exp_k2_exponential,
    exp_k3_ball,
    exp_lambda_lipschitz,
    haraux_suite,
    make_initial_state,
    nakao_suite,
    synthetic_circle,
    synthetic_torus,
)
from edbeam.stationary import multi_start

ZERO_SRC = ZeroSource()


def _ok(criterion, detail):
    print(f"[ACCEPTANCE {criterion}] PASS: {detail}")


@pytest.fixture(scope="module")
def model32():
    return build_model(32, math.pi, 0.0, 256)


@pytest.fixture(scope="module")
def k1_reference_initial(model32):
    rng = np.random.default_rng(1)
    return make_initial_state(model32, rng, 1.0)


@pytest.fixture(scope="module")
def k1_run_T50_dt1e3(model32, k1_reference_initial):
    cfg = IntegratorConfig(dt=1e-3, horizon=50.0, alpha=0.5, sample_stride=100)
    return integrate(
        model32, ZERO_SRC, K1Monomial(1.0, 1.0), Forcing.zero(32), k1_reference_initial, cfg
    )


def _long_run(model32, initial, q):
    cfg = IntegratorConfig(dt=1e-2, horizon=1e4, alpha=0.5, sample_stride=10)
    return integrate(
        model32, ZERO_SRC, K1Monomial(1.0, q), Forcing.zero(32), initial, cfg
    )


@pytest.fixture(scope="module")
def k1_long_runs(model32, k1_reference_initial):
    return {q: _long_run(model32, k1_reference_initial, q) for q in (0.5, 1.0, 2.0)}


@pytest.fixture(scope="module")
def k2_runs():
    m = build_model(16, math.pi, 0.0, 128)
    rng = np.random.default_rng(7)
    homogeneous = exp_k2_exponential(
        m,
        K2Constant(1.0),
        ZERO_SRC,
        Forcing.zero(16),
        make_initial_state(m, rng, 1.0),
        IntegratorConfig(dt=1e-3, horizon=30.0, alpha=1.0, sample_stride=10),
        seed=7,
    )
    forced = exp_k2_exponential(
        m,
        K2Constant(1.0),
        ZERO_SRC,
        Forcing.single_mode(16, 1, 1.0, 1.0),
        make_initial_state(m, rng, 100.0),
        IntegratorConfig(dt=1e-3, horizon=40.0, alpha=1.0, sample_stride=10),
        seed=7,
    )
    return homogeneous, forced


def test_criterion_1_energy_identity(model32, k1_reference_initial, k1_run_T50_dt1e3):
    res_coarse = energy_identity_residual(k1_run_T50_dt1e3)
    assert res_coarse <= 1e-5

    cfg_half = IntegratorConfig(dt=5e-4, horizon=50.0, alpha=0.5, sample_stride=200)
    traj_half = integrate(
        model32, ZERO_SRC, K1Monomial(1.0, 1.0), Forcing.zero(32), k1_reference_initial, cfg_half
    )
    ratio = res_coarse / energy_identity_residual(traj_half)
    assert ratio == pytest.approx(4.0, abs=1.0)
    _ok(1, f"residual {res_coarse:.3g} <= 1e-5, halving ratio {ratio:.2f} in [3, 5]")


def test_criterion_2_envelopes_exact_constants(
    model32, k1_reference_initial, k1_run_T50_dt1e3, k1_long_runs
):
    # step-size validation on [0, 50]: the dt = 1e-2 energy tracks the
    # dt = 1e-3 energy within 5% through the transient and 1% after it
    cfg = IntegratorConfig(dt=1e-2, horizon=50.0, alpha=0.5, sample_stride=10)
    coarse = integrate(
        model32, ZERO_SRC, K1Monomial(1.0, 1.0), Forcing.zero(32), k1_reference_initial, cfg
    )
    fine = k1_run_T50_dt1e3
    assert np.max(np.abs(fine.t - coarse.t)) == 0.0
    rel = np.abs(fine.energy - coarse.energy) / fine.energy
    assert np.max(rel) <= 0.05
    assert np.max(rel[fine.t >= 10.0]) <= 0.01

    traj = k1_long_runs[1.0]
    consts = assumption_constants(ZERO_SRC, model=model32)
    params = envelope_constants(
        1.0, 1.0, 0.5, model32, consts, Forcing.zero(32), float(traj.energy_mod[0])
    )
    assert params.C_lower == pytest.approx(0.125, abs=1e-15)
    assert params.K_lambda == 0.0
    e0 = float(traj.energy_mod[0])
    c_bar_ref = 1.5 + 128.0 + 32.0 * e0**2
    assert params.C_bar == pytest.approx(c_bar_ref, rel=1e-13)
    assert params.C_upper == pytest.approx(
        4.0 * (2.0**1.5 * e0**0.5 + 4.0 * c_bar_ref) ** 2, rel=1e-13
    )

    lower, upper = decay_envelopes(params, traj.t)
    lo_margin = float(np.min(traj.energy_mod - 0.98 * lower))
    hi_margin = float(np.min(1.02 * upper - traj.energy_mod))
    assert lo_margin >= 0.0
    assert hi_margin >= 0.0
    _ok(2, f"envelope margins lower {lo_margin:.3g}, upper {hi_margin:.3g} (2% slack)")


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_criterion_3_optimal_rates(k1_long_runs, q):
    traj = k1_long_runs[q]
    window = (1e2, 1e4)
    fit_e = fit_power_rate(SampledSeries(traj.t, traj.energy_mod), window)
    fit_p = fit_power_rate(SampledSeries(traj.t, traj.phase), window)
    target_e = -1.0 / q
    target_p = -1.0 / (2.0 * q)
    assert abs(fit_e.slope - target_e) <= 0.15 * abs(target_e)
    assert abs(fit_p.slope - target_p) <= 0.15 * abs(target_p)
    _ok(
        3,
        f"q={q}: energy slope {fit_e.slope:.4f} (target {target_e:.3f}), "
        f"phase slope {fit_p.slope:.4f} (target {target_p:.3f})",
    )


def test_criterion_4_nakao_and_haraux_suites():
    nak = nakao_suite(seed=2024, trials=1000)
    assert nak.passed, nak.to_text()
    assert nak.metrics["worst_margin"] <= 1e-12
    har = haraux_suite(seed=2024, trials=100000)
    assert har.passed, har.to_text()
    _ok(
        4,
        f"decay lemma {nak.metrics['trials']:.0f} trials, worst margin "
        f"{nak.metrics['worst_margin']:.2g}; power bound {har.metrics['trials']:.0f} trials clean",
    )


def test_criterion_5_k2_exponential(k2_runs):
    homogeneous, forced = k2_runs
    assert homogeneous.passed, homogeneous.to_text()
    assert homogeneous.metrics["rate"] > 0.0
    assert homogeneous.metrics["r2"] >= 0.999
    assert forced.passed, forced.to_text()
    assert forced.metrics["c_fit"] > 0.0
    _ok(
        5,
        f"homogeneous rate {homogeneous.metrics['rate']:.4f} "
        f"(r2 {homogeneous.metrics['r2']:.5f}); forced fit C {forced.metrics['C_fit']:.3f}, "
        f"c {forced.metrics['c_fit']:.3f} with floor 8 K_lambda",
    )


@pytest.fixture(scope="module")
def k3_report():
    m = build_model(16, math.pi, 0.0, 128)
    rng = np.random.default_rng(11)
    inside = [make_initial_state(m, rng, rng.uniform(0.05, 0.95)) for _ in range(10)]
    outside = [make_initial_state(m, rng, rng.uniform(2.0, 8.0)) for _ in range(10)]
    cfg = IntegratorConfig(dt=1e-2, horizon=100.0, alpha=1.0, sample_stride=10)
    return exp_k3_ball(
        m, K3Rational(1.0), ZERO_SRC, Forcing.zero(16), inside, outside, cfg,
        horizon_outside=1000.0, seed=11,
    )


def test_criterion_6_k3_ball_attractor(k3_report):
    rep = k3_report
    assert rep.passed, rep.to_text()
    assert rep.metrics["inside_drift"] <= 1e-10
    assert rep.metrics["latest_hit_time"] <= 1e3
    assert rep.metrics["max_final_gap"] <= 1e-3
    _ok(
        6,
        f"inside drift {rep.metrics['inside_drift']:.2g}, outside hits sphere by "
        f"t = {rep.metrics['latest_hit_time']:.1f}, final gap {rep.metrics['max_final_gap']:.2g}",
    )


def test_criterion_7_lambda_lipschitz():
    m = build_model(16, math.pi, 0.0, 128)
    rng = np.random.default_rng(3)
    initial = make_initial_state(m, rng, 1.0)
    grid = [round(0.1 * k, 10) for k in range(11) if k != 5]
    cfg = IntegratorConfig(dt=1e-3, horizon=10.0, alpha=1.0, sample_stride=100)
    rep = exp_lambda_lipschitz(
        m,
        K2Constant(1.0),
        ZERO_SRC,
        Forcing(0.5, np.eye(16)[0]),
        initial,
        cfg,
        lambdas=grid,
        lambda0=0.5,
        t_probe=10.0,
        seed=3,
    )
    assert rep.passed, rep.to_text()
    _ok(
        7,
        f"max difference ratio {rep.metrics['max_ratio']:.4f}, spread over grid "
        f"{rep.metrics['ratio_spread']:.4f}",
    )


def test_criterion_8_stationary_solver():
    from edbeam import DoublePower

    # N = 16 nontrivial minimizer
    m16 = build_model(16, math.pi, 0.0, 128)
    law = DoublePower(2.0, 1.0, 10.0)
    zero16 = Forcing.zero(16)
    rng = np.random.default_rng(8)
    res = minimize_functional(m16, law, zero16, rng.standard_normal(16))
    assert res.converged
    assert res.residual <= 1e-8
    assert res.functional_value < 0.0

    # N = 1 against the independent scan + derivative-bisection oracle
    sigma = 10.0
    c4 = 3.0 / (8.0 * math.pi)
    c3 = (sigma / 3.0) * (2.0 / math.pi) ** 1.5 * (4.0 / 3.0)

    def val(c):
        return 0.5 * c**2 + c4 * c**4 - c3 * np.abs(c) ** 3

    def deriv(c):
        return c + 4.0 * c4 * c**3 - 3.0 * c3 * c * abs(c)

    cs = np.linspace(-30.0, 30.0, 1000001)
    i = int(np.argmin(val(cs)))
    lo, hi = cs[i - 1], cs[i + 1]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if deriv(mid) * deriv(lo) <= 0.0:
            hi = mid
        else:
            lo = mid
    c_star = 0.5 * (lo + hi)
    m1 = build_model(1, math.pi, 0.0, 256)  # denser grid: the odd cubic term is not quadrature-exact
    res1 = minimize_functional(m1, law, Forcing.zero(1), np.array([1.0]))
    assert res1.converged
    assert abs(abs(res1.coeffs[0]) - abs(c_star)) <= 1e-6

    # bound check with the scanned constants
    consts = assumption_constants(law, model=m16)
    chk = stationary_bound_check(m16, consts, zero16, res)
    assert chk.ok

    # sigma = 0 multi-start recovers only the origin
    pure = DoublePower(2.0, 1.0, 0.0)
    j = np.arange(1.0, 17.0)
    starts = [np.zeros(16)] + [rng.standard_normal(16) * j**-2.0 for _ in range(19)]
    results = multi_start(m16, pure, zero16, starts)
    assert len(results) == 1
    assert np.max(np.abs(results[0].coeffs)) < 1e-5
    _ok(
        8,
        f"I(u*) = {res.functional_value:.2f} < 0 at residual {res.residual:.2g}; "
        f"1-D match |c - c*| = {abs(abs(res1.coeffs[0]) - abs(c_star)):.2g}; "
        f"bound {chk.lhs:.3g} <= {chk.rhs:.3g}; pure-power starts collapse to 0",
    )


def test_criterion_9_decomposition():
    from edbeam import DoublePower

    m = build_model(32, math.pi, 0.0, 256)
    rng = np.random.default_rng(5)
    u1 = make_initial_state(m, rng, 1.0)
    u2 = make_initial_state(m, rng, 1.0)
    icfg = IntegratorConfig(dt=1e-3, horizon=20.0, alpha=1.0, sample_stride=10)
    rep = exp_decomposition(
        m,
        K2Constant(1.0),
        DoublePower(2.0, 1.0, 0.0),
        Forcing.zero(32),
        u1,
        u2,
        icfg,
        s=1.0,
        probe_modes=(4, 8, 16, 32),
        seed=5,
    )
    assert rep.passed, rep.to_text()
    assert rep.metrics["split_gap"] <= 1e-9
    assert rep.metrics["contraction_rate"] > 0.0
    assert rep.metrics["smoothing_spread"] <= 10.0
    _ok(
        9,
        f"split gap {rep.metrics['split_gap']:.2g}, contraction rate "
        f"{rep.metrics['contraction_rate']:.3f}, smoothing spread "
        f"{rep.metrics['smoothing_spread']:.2f} <= 10",
    )


def test_criterion_10_entropy_estimator():
    rng = np.random.default_rng(10)
    circle = box_count_entropy(synthetic_circle(10000, rng), np.geomspace(0.5, 0.02, 8))
    assert circle.dimension == pytest.approx(1.0, abs=0.2)
    torus = box_count_entropy(synthetic_torus(10000, rng), np.geomspace(1.2, 0.18, 6))
    assert torus.dimension == pytest.approx(2.0, abs=0.3)
    _ok(
        10,
        f"circle dimension {circle.dimension:.3f} (1 +/- 0.2), torus "
        f"{torus.dimension:.3f} (2 +/- 0.3)",
    )


def test_criterion_11_gradient_and_coercivity(
    k1_run_T50_dt1e3, k1_long_runs, k2_runs, k3_report
):
    # pointwise Lyapunov monotonicity and coercivity on every acceptance
    # trajectory; the other drivers assert the same internally and their
    # reports are re-checked here
    trajectories = [k1_run_T50_dt1e3] + list(k1_long_runs.values())
    checked = 0
    for traj in trajectories:
        slack = 10.0 * energy_identity_residual(traj) * max(
            abs(float(traj.energy[0])), 1.0
        ) + 1e-13
        rises = np.diff(traj.energy_mod)
        assert float(np.max(rises)) <= slack
        omega = 1.0  # zero source throughout the acceptance runs
        coer = 0.25 * omega * traj.phase**2 - traj.energy_mod
        assert float(np.max(coer)) <= 1e-9 * max(1.0, abs(float(traj.energy_mod[0])))
        checked += 1
    for rep in list(k2_runs) + [k3_report]:
        for crit in rep.criteria:
            if crit.name.endswith(("lyapunov_nonincreasing", "coercivity")):
                assert crit.passed, crit.detail
                checked += 1
    _ok(11, f"monotone modified energy and coercivity verified on {checked} series")
