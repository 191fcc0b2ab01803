import math
from dataclasses import replace

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
    energy_identity_residual,
    integrate,
    integrate_batch,
    phase_norm,
)
from edbeam.experiments import exp_decomposition
from edbeam.integrate import _integrate_driven, _Stepper
from edbeam.series import _BLOCK_VALUES, write_csv

# Inside the unit energy ball the threshold law evaluates to exactly zero,
# which is the only way the law families express an undamped linear flow.
UNDAMPED = K3Rational(1.0)


def _zero_forcing(n):
    return Forcing.zero(n)


def test_step_matches_harmonic_oscillator():
    m = build_model(1, math.pi, 0.0, 8)
    cfg = IntegratorConfig(dt=0.1, horizon=0.1)
    state = ModalState(np.array([1.0]), np.array([0.0]))
    out = integrate(m, ZeroSource(), UNDAMPED, _zero_forcing(1), state, cfg).final_state
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
        one_cfg = IntegratorConfig(dt=dt, horizon=dt)
        one = integrate(m, ZeroSource(), law, _zero_forcing(1), init, one_cfg).final_state
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
    # dt = inf ran for 0 steps; an infinite horizon or a step count past
    # float range raised OverflowError
    for dt, horizon, message in [
        (math.inf, 1.0, "dt must be > 0 and finite, got inf"),
        (math.nan, 1.0, "dt must be > 0 and finite, got nan"),
        (0.1, math.inf, "horizon must be > 0 and finite, got inf"),
        (1e-300, 1e10, "horizon 10000000000.0 / dt 1e-300: a finite step count required"),
    ]:
        with pytest.raises(InvalidConfigurationError) as info:
            IntegratorConfig(dt=dt, horizon=horizon)
        assert str(info.value) == message


def test_linear_time_reversal():
    # rotate forward then backward by composing with the reflected velocity;
    # the state must stay inside the dead zone so the flow is purely linear
    from edbeam.experiments import make_initial_state

    m = build_model(6, math.pi, 0.0, 48)
    rng = np.random.default_rng(2)
    init = make_initial_state(m, rng, 0.25)
    cfg = IntegratorConfig(dt=0.25, horizon=0.25)
    fwd = integrate(m, ZeroSource(), UNDAMPED, _zero_forcing(6), init, cfg).final_state
    flipped = ModalState(fwd.a, -fwd.b)
    back = integrate(m, ZeroSource(), UNDAMPED, _zero_forcing(6), flipped, cfg).final_state
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


def test_rk4_steps_one_run_to_its_horizon():
    # a batch, a driven batch (as exp_decomposition's) and an ``until`` all
    # meet the one guard of the RK4 loop
    m = build_model(4, math.pi, 0.0, 32)
    u = ModalState(np.full(4, 0.1), np.zeros(4))
    v = ModalState(np.zeros(4), np.full(4, 0.1))
    cfg = IntegratorConfig(dt=1e-3, horizon=0.1, scheme="rk4")
    src, law, zero = ZeroSource(), K2Constant(1.0), _zero_forcing(4)
    a, b = np.stack([u.a, v.a]), np.stack([u.b, v.b])
    calls = [
        lambda: integrate_batch(m, src, law, [zero, zero], [u, v], cfg),
        lambda: _integrate_driven(m, src, law, np.zeros((2, 4)), [0, 0], a, b, cfg),
        lambda: exp_decomposition(m, law, src, zero, u, v, cfg, probe_modes=(2, 4)),
        lambda: integrate(m, src, law, zero, u, cfg, until=lambda a, b: False),
    ]
    for call in calls:
        with pytest.raises(InvalidConfigurationError) as info:
            call()
        assert str(info.value) == "rk4 steps one run to its horizon: no batch, no until"
    assert integrate(m, src, law, zero, u, cfg).t[-1] == pytest.approx(0.1)


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


def _final_states(model, source, damping, forcing, initial, cfg, dts):
    """The final state of one run of ``cfg`` per step size in ``dts``."""
    return [
        integrate(
            model,
            source,
            damping,
            forcing,
            initial,
            replace(cfg, dt=dt, sample_stride=round(cfg.horizon / dt)),
        ).final_state
        for dt in dts
    ]


def _orders(model, finals, ref):
    """The observed order across each halving of dt: log2 of the ratio of
    successive phase-space distances of ``finals`` from the state ``ref``."""
    errors = [phase_norm(model, ModalState(s.a - ref.a, s.b - ref.b)) for s in finals]
    return [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]


def test_convergence_order_strang_second():
    m = build_model(8, math.pi, 0.0, 64)
    rng = np.random.default_rng(4)
    init = ModalState(rng.standard_normal(8) * 0.3, rng.standard_normal(8) * 0.3)
    cfg = IntegratorConfig(dt=1e-2, horizon=2.0, alpha=0.5)
    finals = _final_states(
        m,
        ZeroSource(),
        K1Monomial(1.0, 1.0),
        _zero_forcing(8),
        init,
        cfg,
        [4e-3, 2e-3, 1e-3, 5e-4],
    )
    assert np.mean(_orders(m, finals[:-1], finals[-1])) == pytest.approx(2.0, abs=0.3)


def test_convergence_order_rk4_fourth():
    m = build_model(4, math.pi, 0.0, 32)
    rng = np.random.default_rng(5)
    init = ModalState(rng.standard_normal(4) * 0.3, rng.standard_normal(4) * 0.3)
    cfg = IntegratorConfig(dt=1e-2, horizon=2.0, alpha=0.5, scheme="rk4")
    finals = _final_states(
        m,
        ZeroSource(),
        K1Monomial(1.0, 1.0),
        _zero_forcing(4),
        init,
        cfg,
        [4e-3, 2e-3, 1e-3, 5e-4],
    )
    assert np.mean(_orders(m, finals[:-1], finals[-1])) == pytest.approx(4.0, abs=0.5)


@pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
@pytest.mark.parametrize(
    "law",
    [
        K1Monomial(1.0, 1.0),
        K2Constant(1.0),
        K2ExpDecay(1.0),
        K2Rational(1.0),
        K3Rational(1.0),
        K3ShiftedExp(1.0),
    ],
    ids=lambda law: type(law).__name__,
)
def test_strang_converges_to_the_rk4_reference(law, forced):
    # RK4 at dt = 1e-3 is the reference: its error there is orders below
    # Strang's at the step sizes compared, so each halving reads Strang's
    # own order.  N = 4 keeps omega_max dt <= 0.64, in the asymptotic range.
    if forced:
        source, forcing = DoublePower(2.0, 1.0, 0.5), Forcing.single_mode(4, 1, 1.0, 0.7)
    else:
        source, forcing = ZeroSource(), _zero_forcing(4)
    m = build_model(4, math.pi, source=source)
    j = np.arange(1.0, 5.0)
    init = ModalState((-1.0) ** j * j**-3, 1.2 * j**-2)  # E_alpha = 2.63
    cfg = IntegratorConfig(dt=1e-3, horizon=1.0, alpha=0.5, scheme="rk4")
    ref = integrate(m, source, law, forcing, init, cfg)
    if isinstance(law, (K3Rational, K3ShiftedExp)):
        # a threshold law has a kink at E_alpha = 1, where the error ratios
        # turn irregular; the reference stays outside the unit ball
        e_alpha = np.sum(m.mu ** (2 * cfg.alpha) * ref.a**2, axis=1) + np.sum(ref.b**2, axis=1)
        assert e_alpha.min() > 1.0
    strang = replace(cfg, scheme="strang")
    finals = _final_states(m, source, law, forcing, init, strang, [0.04, 0.02, 0.01])
    orders = _orders(m, finals, ref.final_state)
    assert all(1.8 <= order <= 2.2 for order in orders), orders


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


def _rows_and_widths():
    # around the writer's block for two widths that do not divide it; the
    # ids of the width-5 cases are their row counts
    cases = [pytest.param(r, 5, id=str(r)) for r in (0, 1, 15, 16, 17, 40)]
    for width in (5, 261):
        rows = _BLOCK_VALUES // width
        assert _BLOCK_VALUES % width != 0
        cases += [pytest.param(r, width, id=f"{r}x{width}") for r in (rows - 1, rows, rows + 1)]
    return cases


@pytest.mark.parametrize("rows, width", _rows_and_widths())
def test_write_csv_matches_the_per_value_writer(tmp_path, rows, width):
    # a 1-d column, a 2-d column of width - 2 and another 1-d column
    rng = np.random.default_rng(rows)
    values = rng.standard_normal(width * rows) * 10.0 ** rng.uniform(-300.0, 300.0, width * rows)
    special = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1e308, 0.1, 1 / 3]
    values[: len(special)] = special[: values.size]
    values = rng.permutation(values).reshape(rows, width)
    columns = [values[:, 0], values[:, 1:-1], values[:, -1]]
    header = ["t"] + [f"a_{j}" for j in range(1, width - 1)] + ["E"]
    write_csv(tmp_path / "block.csv", header, columns)
    _write_csv_per_value(tmp_path / "value.csv", header, columns)
    text = (tmp_path / "block.csv").read_bytes()
    assert text == (tmp_path / "value.csv").read_bytes()
    assert text.count(b"\n") == rows + 1
    if values.size >= len(special):
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


@pytest.mark.parametrize("stride", [1, 7, 55])
def test_sample_times_are_the_recorded_times(stride):
    # the fit-window check counts samples from IntegratorConfig.sample_times
    m = build_model(2, math.pi, 0.0, 16)
    init = ModalState(np.array([0.3, 0.1]), np.zeros(2), 0.25)
    cfg = IntegratorConfig(dt=1e-2, horizon=0.55, sample_stride=stride)
    traj = integrate(m, ZeroSource(), UNDAMPED, _zero_forcing(2), init, cfg)
    assert np.array_equal(cfg.sample_times(0.25), traj.t)
    assert cfg.n_steps == 55


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
    # restarting from each step's final state: the loop fuses the second
    # half kick of each step with the first half kick of the next and
    # carries the pending kick, while each one-step run applies it, so n
    # restarts land on one n-step run's final state to the fused kick's
    # 1e-12 of the state's scale
    from edbeam.experiments import make_initial_state

    m = build_model(4, math.pi, 0.0, 32)
    forcing = Forcing.single_mode(4, 1, 1.0, 0.5) if forced else _zero_forcing(4)
    # 2E = 2.5 starts outside the threshold laws' dead zone
    state = make_initial_state(m, np.random.default_rng(1), 2.5)
    n = 20
    cfg = IntegratorConfig(dt=0.05, horizon=n * 0.05, alpha=alpha, sample_stride=n)
    traj = integrate(m, source, damping, forcing, state, cfg)
    one_cfg = replace(cfg, horizon=cfg.dt)
    for _ in range(n):
        state = integrate(m, source, damping, forcing, state, one_cfg).final_state
    for got, want in ((state.a, traj.a[-1]), (state.b, traj.b[-1])):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("source", [ZeroSource(), DoublePower(2.0, 1.0, 0.5)], ids=["zero", "dp"])
@pytest.mark.parametrize("damping", _ALL_DAMPING, ids=lambda law: type(law).__name__)
def test_step_is_integrate_over_one_step_bitwise(damping, source, forced, alpha):
    # a one-step run's final state is the first sample of a longer run: the
    # sample applies the pending half kick the same way the run's end does
    from edbeam.experiments import make_initial_state

    m = build_model(4, math.pi, 0.0, 32)
    forcing = Forcing.single_mode(4, 1, 1.0, 0.5) if forced else _zero_forcing(4)
    state = make_initial_state(m, np.random.default_rng(1), 2.5)
    cfg = IntegratorConfig(dt=0.05, horizon=1.0, alpha=alpha)
    traj = integrate(m, source, damping, forcing, state, cfg)
    out = integrate(m, source, damping, forcing, state, replace(cfg, horizon=cfg.dt)).final_state
    assert np.array_equal(out.a, traj.a[1])
    assert np.array_equal(out.b, traj.b[1])
    assert out.t == traj.t[1]


def test_sample_stride_must_be_an_integer():
    # 2.5 used to sample every 2 steps without a word
    with pytest.raises(InvalidConfigurationError, match="sample_stride must be an integer"):
        IntegratorConfig(dt=0.1, horizon=1.0, sample_stride=2.5)
    for stride in (2, 2.0, np.int64(2)):
        cfg = IntegratorConfig(dt=0.1, horizon=1.0, sample_stride=stride)
        assert np.array_equal(cfg.sample_times(), np.arange(0, 11, 2) * 0.1)


def test_dt_must_divide_horizon():
    # horizon 1.0 at dt 0.3 would otherwise stop at 0.9 without a word
    with pytest.raises(InvalidConfigurationError, match="does not divide"):
        IntegratorConfig(dt=0.3, horizon=1.0)
    with pytest.raises(InvalidConfigurationError, match="does not divide"):
        IntegratorConfig(dt=1.0, horizon=0.4)
    # rounding in horizon / dt is not a mismatch
    assert IntegratorConfig(dt=0.1, horizon=0.3).horizon == 0.3
