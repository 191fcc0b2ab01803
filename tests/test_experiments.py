import math

import numpy as np
import pytest

from edbeam import (
    DoublePower,
    Forcing,
    IntegratorConfig,
    InvalidConfigurationError,
    K1Monomial,
    K2Constant,
    K3Rational,
    ModalState,
    ZeroSource,
    build_model,
    integrate,
)
from edbeam.experiments import (
    box_count_entropy,
    exp_decomposition,
    exp_k1_decay,
    exp_k2_exponential,
    exp_k3_ball,
    exp_lambda_lipschitz,
    exp_two_trajectory,
    make_initial_state,
    synthetic_circle,
    synthetic_torus,
)


def test_make_initial_state_scaling():
    m = build_model(8, math.pi, 0.3, 64)
    rng = np.random.default_rng(0)
    st = make_initial_state(m, rng, 2.5)
    quad = float(
        np.sum((m.sigma + m.kappa * m.mu) * st.a**2) + np.sum(st.b**2)
    )
    assert quad == pytest.approx(2.5, rel=1e-12)
    zero = make_initial_state(m, rng, 0.0)
    assert np.all(zero.a == 0.0) and np.all(zero.b == 0.0)


def test_exp_k1_short_run_passes():
    m = build_model(8, math.pi, 0.0, 64)
    rng = np.random.default_rng(1)
    init = make_initial_state(m, rng, 1.0)
    cfg = IntegratorConfig(dt=1e-3, horizon=20.0, alpha=0.5, sample_stride=10)
    rep = exp_k1_decay(m, K1Monomial(1.0, 1.0), init, cfg, seed=1)
    assert rep.passed, rep.to_text()
    assert rep.metrics["C_lower"] == pytest.approx(0.125)


def test_exp_k1_requires_monomial_law():
    m = build_model(4, math.pi, 0.0, 32)
    init = make_initial_state(m, np.random.default_rng(0), 1.0)
    cfg = IntegratorConfig(dt=1e-2, horizon=1.0)
    with pytest.raises(InvalidConfigurationError):
        exp_k1_decay(m, K2Constant(1.0), init, cfg)


def test_exp_k2_rational_variant_positive_rate():
    m = build_model(8, math.pi, 0.0, 64)
    rng = np.random.default_rng(2)
    init = make_initial_state(m, rng, 1.0)
    from edbeam import K2Rational

    cfg = IntegratorConfig(dt=1e-3, horizon=25.0, alpha=1.0, sample_stride=10)
    rep = exp_k2_exponential(m, K2Rational(1.0), init, cfg, r2_min=0.99, seed=2)
    assert rep.metrics["rate"] > 0.0
    assert rep.passed, rep.to_text()


def test_exp_k3_boundary_start_conserved():
    m = build_model(8, math.pi, 0.0, 64)
    rng = np.random.default_rng(3)
    boundary = make_initial_state(m, rng, 1.0)  # 2E = 1 exactly, k(1) = 0
    cfg = IntegratorConfig(dt=1e-2, horizon=50.0, alpha=1.0, sample_stride=10)
    rep = exp_k3_ball(m, K3Rational(1.0), [boundary], [], cfg, seed=3)
    inside = [c for c in rep.criteria if c.name == "inside_conserved"][0]
    assert inside.passed, inside.detail


def test_exp_two_trajectory_degenerate_and_symmetry():
    m = build_model(6, math.pi, 0.0, 48)
    rng = np.random.default_rng(4)
    u1 = make_initial_state(m, rng, 1.0)
    u2 = make_initial_state(m, rng, 1.0)
    cfg = IntegratorConfig(dt=1e-2, horizon=5.0, alpha=0.5, sample_stride=5)
    law = K1Monomial(1.0, 1.0)

    same = exp_two_trajectory(m, law, u1, u1, cfg, seed=4)
    assert same.passed
    assert same.metrics["C2"] == 0.0

    ab = exp_two_trajectory(m, law, u1, u2, cfg, seed=4)
    ba = exp_two_trajectory(m, law, u2, u1, cfg, seed=4)
    assert ab.metrics["d0"] == pytest.approx(ba.metrics["d0"], rel=1e-14)
    assert ab.metrics["C1"] == pytest.approx(ba.metrics["C1"], rel=1e-12)


def test_exp_lambda_zero_profile_gives_zero_differences():
    m = build_model(4, math.pi, 0.0, 32)
    rng = np.random.default_rng(5)
    init = make_initial_state(m, rng, 1.0)
    cfg = IntegratorConfig(dt=1e-2, horizon=2.0, alpha=1.0)
    rep = exp_lambda_lipschitz(
        m,
        K2Constant(1.0),
        ZeroSource(),
        np.zeros(4),
        [0.0, 0.2, 0.8],
        0.5,
        2.0,
        init,
        cfg,
        seed=5,
    )
    assert rep.metrics["max_ratio"] == 0.0


def test_exp_lambda_rejects_bad_grid():
    m = build_model(4, math.pi, 0.0, 32)
    init = make_initial_state(m, np.random.default_rng(0), 1.0)
    cfg = IntegratorConfig(dt=1e-2, horizon=1.0)
    # one intensity or none used to fail with an IndexError or numpy's
    # empty-reduction error; the Forcing rejects an intensity outside [0, 1]
    besides = "requires two grid intensities besides lambda0"
    for grid, message in [
        ([0.5, 0.7], besides),
        ([1.2], besides),
        ([0.2], besides),
        ([], besides),
        ([0.2, 1.2], r"lambda = 1.2: lambda in \[0, 1\] required"),
    ]:
        with pytest.raises(ValueError, match=message):
            exp_lambda_lipschitz(
                m, K2Constant(1.0), ZeroSource(), np.zeros(4), grid, 0.5, 1.0, init, cfg
            )


def test_exp_decomposition_zero_source_gives_u_equals_v():
    m = build_model(8, math.pi, 0.0, 64)
    rng = np.random.default_rng(6)
    u1 = make_initial_state(m, rng, 1.0)
    u2 = make_initial_state(m, rng, 1.0)
    icfg = IntegratorConfig(dt=1e-3, horizon=5.0, alpha=1.0, sample_stride=10)
    from edbeam.experiments import _integrate_decomposed

    times, au, bu, az, bz = _integrate_decomposed(
        m, ZeroSource(), K2Constant(1.0), Forcing.zero(8), [u1], icfg
    )
    v = integrate(m, ZeroSource(), K2Constant(1.0), Forcing.zero(8), u1, icfg)
    assert np.max(np.abs(az)) == 0.0
    assert np.max(np.abs(bz)) == 0.0
    assert np.max(np.abs(au[:, 0] - v.a)) == 0.0


def test_exp_decomposition_requires_constant_damping():
    m = build_model(4, math.pi, 0.0, 32)
    rng = np.random.default_rng(7)
    u1 = make_initial_state(m, rng, 1.0)
    u2 = make_initial_state(m, rng, 1.0)
    icfg = IntegratorConfig(dt=1e-2, horizon=1.0)
    with pytest.raises(InvalidConfigurationError):
        exp_decomposition(
            m, K1Monomial(1.0, 1.0), ZeroSource(), Forcing.zero(4), u1, u2, icfg,
            probe_modes=(2,),
        )


def test_decomposition_rejects_probe_modes_below_one():
    # probe mode 0 used to perturb a[-1], the last mode, and so reported the
    # ratios of probe mode N under the name 0
    m = build_model(4, math.pi, 0.0, 32)
    u1 = make_initial_state(m, np.random.default_rng(7), 1.0)
    icfg = IntegratorConfig(dt=1e-2, horizon=1.0)
    for modes in [(0, 2), (2, -1), ()]:
        with pytest.raises(InvalidConfigurationError, match="probe_modes"):
            exp_decomposition(
                m, K2Constant(1.0), ZeroSource(), Forcing.zero(4), u1, u1, icfg,
                probe_modes=modes,
            )


def test_exp_decomposition_equal_initials():
    m = build_model(8, math.pi, 0.0, 64)
    rng = np.random.default_rng(8)
    u1 = make_initial_state(m, rng, 1.0)
    icfg = IntegratorConfig(dt=1e-3, horizon=3.0, alpha=1.0, sample_stride=10)
    src = DoublePower(2.0, 1.0, 0.0)
    rep = exp_decomposition(
        m, K2Constant(1.0), src, Forcing.zero(8), u1, ModalState(u1.a.copy(), u1.b.copy()), icfg,
        probe_modes=(2, 4),
    )
    # identical pair: contraction gap is zero, which the fit reports as a
    # degenerate posit; the split and smoothing criteria still run
    split = [c for c in rep.criteria if c.name == "split_consistent"][0]
    assert split.passed


def test_box_count_single_point_and_validation():
    est = box_count_entropy(np.zeros((1, 3)), [1.0, 0.5, 0.25])
    assert est.counts == (1, 1, 1)
    assert est.entropy == (0.0, 0.0, 0.0)
    assert est.dimension == 0.0
    with pytest.raises(ValueError):
        box_count_entropy(np.zeros((3, 2)), [0.5, 1.0])  # not decreasing
    with pytest.raises(ValueError):
        box_count_entropy(np.zeros((3, 2)), [1.0, -0.5])
    with pytest.raises(ValueError, match="at least one radius"):
        box_count_entropy(np.zeros((3, 2)), [])


def test_box_count_circle_dimension():
    rng = np.random.default_rng(9)
    pts = synthetic_circle(4000, rng)
    est = box_count_entropy(pts, np.geomspace(0.5, 0.03, 7))
    assert est.dimension == pytest.approx(1.0, abs=0.2)


def test_box_count_torus_dimension():
    rng = np.random.default_rng(10)
    pts = synthetic_torus(8000, rng)
    est = box_count_entropy(pts, np.geomspace(1.2, 0.2, 6))
    assert est.dimension == pytest.approx(2.0, abs=0.3)


def test_box_count_weighted_metric():
    # anisotropic weights stretch one axis; dimension is metric-invariant
    rng = np.random.default_rng(11)
    pts = synthetic_circle(4000, rng)
    est = box_count_entropy(pts, np.geomspace(0.8, 0.05, 7), weights=[4.0, 1.0])
    assert est.dimension == pytest.approx(1.0, abs=0.25)


def test_k3_end_state_cloud_sits_on_unit_sphere():
    # end states of outside-ball runs pile up within 1e-3 of 2E = 1, so the
    # cloud's weighted norms certify the attractor surface
    m = build_model(8, math.pi, 0.0, 64)
    rng = np.random.default_rng(12)
    outside = [make_initial_state(m, rng, rng.uniform(2.0, 6.0)) for _ in range(5)]
    inside = [make_initial_state(m, np.random.default_rng(0), 0.5)]  # one is required
    cfg = IntegratorConfig(dt=1e-2, horizon=50.0, alpha=1.0, sample_stride=10)
    rep = exp_k3_ball(m, K3Rational(1.0), inside, outside, cfg, horizon_outside=500.0)
    pts = np.array([np.concatenate([s.a, s.b]) for s in rep.end_states])
    weights = np.concatenate([m.sigma, np.ones(8)])
    norms2 = pts**2 @ weights  # = 2E for kappa = 0
    assert np.max(np.abs(norms2 - 1.0)) <= 1e-3


def test_k3_outside_runs_that_miss_the_sphere_fail(tmp_path):
    # 2.0 time units are too short for starts at 2E in [2, 6] to decay to
    # 2E = 1: the batch runs to the horizon and the report says so
    m = build_model(8, math.pi, 0.0, 64)
    rng = np.random.default_rng(12)
    outside = [make_initial_state(m, rng, rng.uniform(2.0, 6.0)) for _ in range(3)]
    inside = [make_initial_state(m, np.random.default_rng(0), 0.5)]  # one is required
    cfg = IntegratorConfig(dt=1e-2, horizon=1.0, alpha=1.0, sample_stride=10)
    rep = exp_k3_ball(
        m, K3Rational(1.0), inside, outside, cfg, horizon_outside=2.0, out_dir=str(tmp_path)
    )
    verdicts = {c.name: c.passed for c in rep.criteria}
    assert verdicts["outside_reaches_sphere"] is False
    assert verdicts["outside_monotone"] and verdicts["distance_estimate"]
    assert not rep.passed
    assert rep.metrics["latest_hit_time"] == math.inf
    assert rep.metrics["max_final_gap"] > 1e-3
    assert "latest hit t = inf" in rep.to_text()
    assert [s.t for s in rep.end_states] == [2.0] * 3
    csv = np.loadtxt(tmp_path / "outside_0.csv", delimiter=",", skiprows=1)
    assert csv[0, 0] == 0.0 and csv[-1, 0] == 2.0


def test_determinism_same_seed_same_report():
    m = build_model(6, math.pi, 0.0, 48)
    cfg = IntegratorConfig(dt=1e-2, horizon=5.0, alpha=0.5, sample_stride=5)

    def run():
        rng = np.random.default_rng(42)
        init = make_initial_state(m, rng, 1.0)
        return exp_k1_decay(m, K1Monomial(1.0, 1.0), init, cfg, seed=42).to_text()

    assert run() == run()


def test_exp_k3_requires_threshold_law():
    m = build_model(4, math.pi, 0.0, 32)
    cfg = IntegratorConfig(dt=1e-2, horizon=1.0)
    with pytest.raises(InvalidConfigurationError):
        exp_k3_ball(m, K1Monomial(1.0, 1.0), [], [], cfg)
