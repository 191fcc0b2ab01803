import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from edbeam import (
    BlowUpError,
    DoublePower,
    Forcing,
    IntegratorConfig,
    InvalidConfigurationError,
    K1Monomial,
    K2Constant,
    K2ExpDecay,
    K2Rational,
    K3Rational,
    K3ShiftedExp,
    ModalState,
    ZeroSource,
    build_model,
    convergence_order,
    energy_identity_residual,
    integrate,
    phase_norm,
    step,
)
from edbeam.integrate import _Stepper
from edbeam.series import write_csv

# Inside the unit energy ball the threshold law evaluates to exactly zero,
# which is the only way the law families express an undamped linear flow.
UNDAMPED = K3Rational(1.0)


def _zero_forcing(n):
    return Forcing.zero(n)


def test_step_matches_harmonic_oscillator():
    m = build_model(1, math.pi, 0.0, 8)
    cfg = IntegratorConfig(dt=0.1, horizon=0.1)
    state = ModalState(np.array([1.0]), np.array([0.0]))
    out = step(m, ZeroSource(), UNDAMPED, _zero_forcing(1), state, cfg)
    assert out.a[0] == pytest.approx(math.cos(0.1), abs=1e-15)
    assert out.b[0] == pytest.approx(-math.sin(0.1), abs=1e-15)


def test_phase_norm_conserved_over_many_steps():
    m = build_model(4, math.pi, 0.0, 32)
    a0 = np.array([0.3, 0.1, -0.05, 0.02])
    b0 = np.array([0.1, -0.2, 0.0, 0.04])
    init = ModalState(a0, b0)
    cfg = IntegratorConfig(dt=1e-3, horizon=1000.0, sample_stride=100000)
    traj = integrate(m, ZeroSource(), UNDAMPED, _zero_forcing(4), init, cfg)
    p0 = phase_norm(m, init)
    assert abs(traj.phase[-1] - p0) <= 1e-10 * p0
    assert traj.dissipation[-1] == 0.0


def test_strang_local_order_against_substep_reference():
    # one macro step against the same scheme with many substeps: the local
    # error contracts by ~8 when dt halves (third-order local truncation)
    m = build_model(1, math.pi, 0.0, 8)
    law = K1Monomial(1.0, 1.0)
    init = ModalState(np.array([1.0]), np.array([0.2]))

    def local_error(dt):
        one = step(m, ZeroSource(), law, _zero_forcing(1), init, IntegratorConfig(dt=dt, horizon=dt))
        fine = integrate(
            m,
            ZeroSource(),
            law,
            _zero_forcing(1),
            init,
            IntegratorConfig(dt=dt / 10000.0, horizon=dt, sample_stride=10000),
        ).final_state
        return math.hypot(one.a[0] - fine.a[0], one.b[0] - fine.b[0])

    e1, e2 = local_error(0.02), local_error(0.01)
    assert e1 / e2 == pytest.approx(8.0, rel=0.25)


def test_integrate_zero_state_stays_zero():
    from edbeam import DoublePower

    m = build_model(4, math.pi, 0.0, 32)
    init = ModalState(np.zeros(4), np.zeros(4))
    cfg = IntegratorConfig(dt=1e-2, horizon=5.0, sample_stride=10)
    cubic = DoublePower(2.0, 1.0, 0.0)
    traj = integrate(m, cubic, K1Monomial(1.0, 1.0), _zero_forcing(4), init, cfg)
    assert np.all(traj.a == 0.0)
    assert np.all(traj.b == 0.0)
    assert np.all(traj.energy == 0.0)


def test_single_mode_cosine_trajectory():
    m = build_model(1, math.pi, 0.0, 8)
    init = ModalState(np.array([0.5]), np.array([0.0]))
    cfg = IntegratorConfig(dt=1e-3, horizon=10.0, sample_stride=100)
    traj = integrate(m, ZeroSource(), UNDAMPED, _zero_forcing(1), init, cfg)
    ref = 0.5 * np.cos(traj.t)
    assert np.max(np.abs(traj.a[:, 0] - ref)) < 1e-10


def test_monomial_run_energy_monotone():
    m = build_model(8, math.pi, 0.0, 64)
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(8) * 0.2, rng.standard_normal(8) * 0.2
    init = ModalState(a, b)
    cfg = IntegratorConfig(dt=1e-3, horizon=10.0, alpha=1.0, sample_stride=10)
    traj = integrate(m, ZeroSource(), K1Monomial(1.0, 1.0), _zero_forcing(8), init, cfg)
    slack = 10.0 * energy_identity_residual(traj) * max(abs(traj.energy[0]), 1.0) + 1e-13
    assert np.all(np.diff(traj.energy_mod) <= slack)
    assert np.all(np.diff(traj.dissipation) >= 0.0)


def test_identity_residual_undamped():
    m = build_model(4, math.pi, 0.0, 32)
    init = ModalState(np.array([0.3, 0.1, 0.0, 0.0]), np.zeros(4))
    cfg = IntegratorConfig(dt=1e-2, horizon=20.0, sample_stride=10)
    traj = integrate(m, ZeroSource(), UNDAMPED, _zero_forcing(4), init, cfg)
    assert energy_identity_residual(traj) <= 1e-12


@pytest.mark.parametrize(
    "law, energy2",
    [
        (K1Monomial(1.0, 1.0), 1.0),
        (K2Constant(1.0), 1.0),
        (K2ExpDecay(1.0), 1.0),
        (K2Rational(1.0), 1.0),
        # the threshold laws damp only outside the unit energy ball
        (K3Rational(1.0), 4.0),
        (K3ShiftedExp(1.0), 4.0),
    ],
    ids=lambda x: type(x).__name__ if not isinstance(x, float) else None,
)
@settings(max_examples=2, deadline=None)
@given(seed=hs.integers(1, 39))
def test_identity_residual_second_order_in_dt(law, energy2, seed):
    from edbeam.experiments import make_initial_state

    m = build_model(8, math.pi, 0.0, 64)
    rng = np.random.default_rng(seed)
    init = make_initial_state(m, rng, energy2)

    def residual(dt):
        cfg = IntegratorConfig(dt=dt, horizon=5.0, alpha=0.5, sample_stride=10)
        return energy_identity_residual(
            integrate(m, ZeroSource(), law, _zero_forcing(8), init, cfg)
        )

    r1, r2 = residual(1e-3), residual(5e-4)
    assert r1 <= 1e-5
    assert r1 / r2 == pytest.approx(4.0, abs=1.0)


def test_k3_inside_ball_residual_exact():
    m = build_model(4, math.pi, 0.0, 32)
    a = np.zeros(4)
    a[0] = 0.5  # 2E = 0.25 inside the dead zone
    init = ModalState(a, np.zeros(4))
    cfg = IntegratorConfig(dt=1e-2, horizon=50.0, alpha=1.0, sample_stride=50)
    traj = integrate(m, ZeroSource(), K3Rational(1.0), _zero_forcing(4), init, cfg)
    assert energy_identity_residual(traj) <= 1e-12
    assert traj.dissipation[-1] == 0.0


def test_config_validation():
    with pytest.raises(InvalidConfigurationError):
        IntegratorConfig(dt=-0.25, horizon=1.0)
    with pytest.raises(InvalidConfigurationError):
        IntegratorConfig(dt=0.1, horizon=0.0)
    with pytest.raises(InvalidConfigurationError):
        IntegratorConfig(dt=0.1, horizon=1.0, scheme="euler")
    with pytest.raises(InvalidConfigurationError):
        IntegratorConfig(dt=0.1, horizon=1.0, alpha=1.5)


def test_linear_time_reversal():
    # rotate forward then backward by composing with the reflected velocity;
    # the state must stay inside the dead zone so the flow is purely linear
    from edbeam.experiments import make_initial_state

    m = build_model(6, math.pi, 0.0, 48)
    rng = np.random.default_rng(2)
    init = make_initial_state(m, rng, 0.25)
    cfg = IntegratorConfig(dt=0.25, horizon=0.25)
    fwd = step(m, ZeroSource(), UNDAMPED, _zero_forcing(6), init, cfg)
    flipped = ModalState(fwd.a, -fwd.b)
    back = step(m, ZeroSource(), UNDAMPED, _zero_forcing(6), flipped, cfg)
    assert np.max(np.abs(back.a - init.a)) < 1e-13
    assert np.max(np.abs(back.b + init.b)) < 1e-13


def test_strang_stable_beyond_explicit_ceiling():
    # dt * omega_max >> 1: the rotation is exact, so the norm is preserved
    m = build_model(32, math.pi, 0.0, 256)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(32) * np.arange(1.0, 33.0) ** -4
    a *= 0.5 / phase_norm(m, ModalState(a, np.zeros(32)))  # keep k identically 0
    init = ModalState(a, np.zeros(32))
    p0 = phase_norm(m, init)
    assert 0.5 * m.sigma[-1] ** 0.5 > 100.0  # genuinely stiff
    cfg = IntegratorConfig(dt=0.5, horizon=100.0, sample_stride=100)
    traj = integrate(m, ZeroSource(), UNDAMPED, _zero_forcing(32), init, cfg)
    assert abs(traj.phase[-1] - p0) <= 1e-11 * p0


def test_rk4_stability_guard():
    m = build_model(32, math.pi, 0.0, 256)
    init = ModalState(np.zeros(32), np.zeros(32))
    cfg = IntegratorConfig(dt=0.5, horizon=1.0, scheme="rk4")
    with pytest.raises(InvalidConfigurationError):
        integrate(m, ZeroSource(), UNDAMPED, _zero_forcing(32), init, cfg)


def test_blow_up_detection():
    # an absurd monomial coefficient with a large step defeats the explicit
    # kick and must surface as a blow-up, not as silent NaNs
    m = build_model(2, math.pi, 0.0, 16)
    init = ModalState(np.array([1.0, 0.5]), np.array([1.0, -0.5]))
    law = K1Monomial(1e8, 2.0)
    cfg = IntegratorConfig(dt=0.5, horizon=400.0, alpha=1.0, sample_stride=1)
    with pytest.raises(BlowUpError) as info:
        integrate(m, ZeroSource(), law, _zero_forcing(2), init, cfg)
    assert info.value.time > 0.0


def test_rk4_blow_up_is_reported_at_the_next_check():
    # a constant coefficient far outside RK4's stability region for the
    # damping term grows the state by orders of magnitude a step, with no
    # overflow in the law; the state turns non-finite between two checks
    # and the run reports the first check after that, at t0 + step * dt
    m = build_model(2, math.pi, 0.0, 16)
    t0 = 1.5
    init = ModalState(np.array([1.0, 0.5]), np.array([1.0, -0.5]), t0)
    law = K2Constant(300.0)
    cfg = IntegratorConfig(dt=0.1, horizon=100.0, scheme="rk4")
    st = _Stepper(m, ZeroSource(), law, np.zeros(2), cfg)
    a, b, first = init.a, init.b, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.isfinite(a).all() and np.isfinite(b).all():
            a, b = st.step_rk4(a, b)
            first += 1
    assert 1 < first < 128
    with pytest.raises(BlowUpError) as info:
        integrate(m, ZeroSource(), law, _zero_forcing(2), init, cfg)
    assert info.value.step == 128
    assert info.value.time == t0 + info.value.step * cfg.dt
    assert info.value.row is None


def test_convergence_order_linear_sentinel():
    m = build_model(4, math.pi, 0.0, 32)
    a = np.zeros(4)
    a[0] = 0.4
    init = ModalState(a, np.zeros(4))
    cfg = IntegratorConfig(dt=1e-2, horizon=2.0)
    res = convergence_order(
        m, ZeroSource(), UNDAMPED, _zero_forcing(4), init, cfg, [4e-3, 2e-3, 1e-3]
    )
    assert res.order == math.inf


def test_convergence_order_strang_second():
    m = build_model(8, math.pi, 0.0, 64)
    rng = np.random.default_rng(4)
    init = ModalState(rng.standard_normal(8) * 0.3, rng.standard_normal(8) * 0.3)
    cfg = IntegratorConfig(dt=1e-2, horizon=2.0, alpha=0.5)
    res = convergence_order(
        m,
        ZeroSource(),
        K1Monomial(1.0, 1.0),
        _zero_forcing(8),
        init,
        cfg,
        [4e-3, 2e-3, 1e-3, 5e-4],
    )
    assert res.order == pytest.approx(2.0, abs=0.3)


def test_convergence_order_rk4_fourth():
    m = build_model(4, math.pi, 0.0, 32)
    rng = np.random.default_rng(5)
    init = ModalState(rng.standard_normal(4) * 0.3, rng.standard_normal(4) * 0.3)
    cfg = IntegratorConfig(dt=1e-2, horizon=2.0, alpha=0.5, scheme="rk4")
    res = convergence_order(
        m,
        ZeroSource(),
        K1Monomial(1.0, 1.0),
        _zero_forcing(4),
        init,
        cfg,
        [4e-3, 2e-3, 1e-3, 5e-4],
    )
    assert res.order == pytest.approx(4.0, abs=0.5)


def test_convergence_order_validation():
    m = build_model(2, math.pi, 0.0, 16)
    init = ModalState(np.zeros(2), np.zeros(2))
    cfg = IntegratorConfig(dt=1e-2, horizon=1.0)
    with pytest.raises(ValueError):
        convergence_order(m, ZeroSource(), UNDAMPED, _zero_forcing(2), init, cfg, [1e-2, 5e-3])
    with pytest.raises(ValueError):
        convergence_order(
            m, ZeroSource(), UNDAMPED, _zero_forcing(2), init, cfg, [1e-2, 5e-3, 3e-3]
        )


def test_trajectory_csv_format(tmp_path):
    m = build_model(2, math.pi, 0.0, 16)
    init = ModalState(np.array([0.3, 0.1]), np.array([0.0, 0.2]))
    cfg = IntegratorConfig(dt=1e-2, horizon=0.1, sample_stride=2)
    traj = integrate(m, ZeroSource(), UNDAMPED, _zero_forcing(2), init, cfg)
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,E,Etilde,D,phase_norm,a_1,a_2,b_1,b_2"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (traj.n_samples, 9)
    assert np.allclose(data[:, 0], traj.t, atol=0.0)
    assert np.allclose(data[:, 5], traj.a[:, 0], atol=0.0)


def _write_csv_per_value(path, header, columns):
    """The CSV writer as it was before rows were formatted a block per call,
    kept verbatim as the reference."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), 4):
            block = np.column_stack([c[start : start + 4] for c in columns])
            for row in block.tolist():
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


@pytest.mark.parametrize("rows", [0, 1, 15, 16, 17, 40])
def test_write_csv_matches_the_per_value_writer(tmp_path, rows):
    # a 1-d column, a 2-d column of three and another 1-d column
    rng = np.random.default_rng(rows)
    values = rng.standard_normal(5 * rows) * 10.0 ** rng.uniform(-300.0, 300.0, 5 * rows)
    special = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1e308, 0.1, 1 / 3]
    values[: len(special)] = special[: values.size]
    values = rng.permutation(values).reshape(rows, 5)
    columns = [values[:, 0], values[:, 1:4], values[:, 4]]
    header = ["t", "a_1", "a_2", "a_3", "E"]
    write_csv(tmp_path / "block.csv", header, columns)
    _write_csv_per_value(tmp_path / "value.csv", header, columns)
    text = (tmp_path / "block.csv").read_bytes()
    assert text == (tmp_path / "value.csv").read_bytes()
    assert text.count(b"\n") == rows + 1
    if rows >= 15:
        cells = set(text.replace(b"\n", b",").split(b","))
        assert {b"-0", b"inf", b"-inf", b"nan", b"4.9406564584124654e-324", b"-1e+308"} <= cells


def test_sampling_stride_and_final_state():
    m = build_model(2, math.pi, 0.0, 16)
    init = ModalState(np.array([0.3, 0.1]), np.zeros(2))
    cfg = IntegratorConfig(dt=1e-2, horizon=0.55, sample_stride=10)
    traj = integrate(m, ZeroSource(), UNDAMPED, _zero_forcing(2), init, cfg)
    # records at steps 0,10,...,50 plus the forced final step 55
    assert traj.t[0] == 0.0
    assert traj.t[-1] == pytest.approx(0.55, abs=1e-12)
    assert np.all(np.diff(traj.t) > 0.0)


_ALL_DAMPING = [
    K1Monomial(1.0, 1.0),
    K2Constant(0.7),
    K2ExpDecay(1.3),
    K2Rational(0.9),
    K3Rational(1.0),
    K3ShiftedExp(1.2),
]


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("source", [ZeroSource(), DoublePower(2.0, 1.0, 0.5)], ids=["zero", "dp"])
@pytest.mark.parametrize("damping", _ALL_DAMPING, ids=lambda law: type(law).__name__)
def test_step_reproduces_integrate_bitwise(damping, source, forced, alpha):
    # step() and integrate() run the same Strang code, so n single steps
    # must land on integrate's final state exactly, not just closely
    from edbeam.experiments import make_initial_state

    m = build_model(4, math.pi, 0.0, 32)
    forcing = Forcing.single_mode(4, 1, 1.0, 0.5) if forced else _zero_forcing(4)
    # 2E = 2.5 starts outside the threshold laws' dead zone
    state = make_initial_state(m, np.random.default_rng(1), 2.5)
    n = 20
    cfg = IntegratorConfig(dt=0.05, horizon=n * 0.05, alpha=alpha, sample_stride=n)
    traj = integrate(m, source, damping, forcing, state, cfg)
    for _ in range(n):
        state = step(m, source, damping, forcing, state, cfg)
    assert np.array_equal(state.a, traj.a[-1])
    assert np.array_equal(state.b, traj.b[-1])


def test_dt_must_divide_horizon():
    # horizon 1.0 at dt 0.3 would otherwise stop at 0.9 without a word
    with pytest.raises(InvalidConfigurationError, match="does not divide"):
        IntegratorConfig(dt=0.3, horizon=1.0)
    with pytest.raises(InvalidConfigurationError, match="does not divide"):
        IntegratorConfig(dt=1.0, horizon=0.4)
    # rounding in horizon / dt is not a mismatch
    assert IntegratorConfig(dt=0.1, horizon=0.3).horizon == 0.3
