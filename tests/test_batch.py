"""integrate_batch: each row is bitwise its own integrate() run, blow-up names
the row, and the batched Strang flow keeps the exact structure of the scheme
(time reversal without damping, conservation inside the threshold ball)."""

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
    K1Monomial,
    K2Constant,
    K2ExpDecay,
    K2Rational,
    K3Rational,
    K3ShiftedExp,
    ModalState,
    ZeroSource,
    build_model,
    integrate,
    integrate_batch,
)
from edbeam.experiments import make_initial_state
from edbeam.integrate import _advance, _integrate_driven, _Stepper, total_energy

_ALL_DAMPING = [
    K1Monomial(1.0, 1.0),
    K2Constant(0.7),
    K2ExpDecay(1.3),
    K2Rational(0.9),
    K3Rational(1.0),
    K3ShiftedExp(1.2),
]

_FIELDS = ("t", "a", "b", "energy", "energy_mod", "dissipation", "phase")


def _assert_rows_match_single_runs(m, source, damping, forcings, states, cfg):
    batch = integrate_batch(m, source, damping, forcings, states, cfg)
    assert len(batch) == len(states)
    for row, forcing, state in zip(batch, forcings, states):
        single = integrate(m, source, damping, forcing, state, cfg)
        for name in _FIELDS:
            assert np.array_equal(getattr(row, name), getattr(single, name)), name
        assert row.K_lambda == single.K_lambda


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("source", [ZeroSource(), DoublePower(2.0, 1.0, 0.5)], ids=["zero", "dp"])
@pytest.mark.parametrize("damping", _ALL_DAMPING, ids=lambda law: type(law).__name__)
def test_batch_rows_match_integrate_bitwise(damping, source, forced, alpha):
    n = 16
    m = build_model(n, math.pi, 0.0, 8 * n)
    rng = np.random.default_rng(7)
    # 2E = 0.5 sits inside the threshold laws' dead zone, the others outside
    states = [make_initial_state(m, rng, e2) for e2 in (0.5, 2.5, 6.0)]
    if forced:
        forcings = [Forcing.single_mode(n, 1, 1.0, lam) for lam in (0.2, 0.5, 0.9)]
    else:
        forcings = [Forcing.zero(n)] * 3
    # 40 steps at stride 7: samples at 0, 7, ..., 35 plus the final step
    cfg = IntegratorConfig(dt=0.05, horizon=2.0, alpha=alpha, sample_stride=7)
    _assert_rows_match_single_runs(m, source, damping, forcings, states, cfg)


@pytest.mark.parametrize("damping", _ALL_DAMPING, ids=lambda law: type(law).__name__)
def test_batch_of_one_row_matches_integrate_bitwise(damping):
    n = 32
    m = build_model(n, math.pi, 0.0, 8 * n)
    state = make_initial_state(m, np.random.default_rng(3), 3.0)
    cfg = IntegratorConfig(dt=0.02, horizon=1.0, alpha=0.5, sample_stride=5)
    forcing = Forcing.single_mode(n, 2, 1.0, 0.4)
    _assert_rows_match_single_runs(
        m, DoublePower(2.0, 1.0, 0.5), damping, [forcing], [state], cfg
    )


def test_batch_rk4_runs_rows_through_integrate():
    m = build_model(4, math.pi, 0.0, 32)
    rng = np.random.default_rng(2)
    states = [make_initial_state(m, rng, e2) for e2 in (1.0, 3.0)]
    cfg = IntegratorConfig(dt=1e-3, horizon=0.1, scheme="rk4", sample_stride=10)
    _assert_rows_match_single_runs(
        m, ZeroSource(), K1Monomial(1.0, 1.0), [Forcing.zero(4)] * 2, states, cfg
    )


def test_batch_rejects_mismatched_rows():
    m = build_model(4, math.pi, 0.0, 32)
    cfg = IntegratorConfig(dt=0.01, horizon=0.1)
    law = K2Constant(1.0)
    s0 = ModalState(np.full(4, 0.1), np.zeros(4), 0.0)
    s_late = ModalState(np.full(4, 0.1), np.zeros(4), 1.0)
    s_short = ModalState(np.full(3, 0.1), np.zeros(3), 0.0)
    zero = Forcing.zero(4)
    with pytest.raises(ValueError, match="start time"):
        integrate_batch(m, ZeroSource(), law, [zero, zero], [s0, s_late], cfg)
    with pytest.raises(ValueError, match="dimension"):
        integrate_batch(m, ZeroSource(), law, [zero, zero], [s0, s_short], cfg)
    with pytest.raises(ValueError, match="forcings"):
        integrate_batch(m, ZeroSource(), law, [zero], [s0, s0], cfg)
    assert integrate_batch(m, ZeroSource(), law, [], [], cfg) == []


def test_batch_blow_up_names_the_row():
    # the state, law and config of test_blow_up_detection, behind a zero row
    m = build_model(2, math.pi, 0.0, 16)
    bad = ModalState(np.array([1.0, 0.5]), np.array([1.0, -0.5]))
    calm = ModalState(np.zeros(2), np.zeros(2))
    law = K1Monomial(1e8, 2.0)
    cfg = IntegratorConfig(dt=0.5, horizon=400.0, alpha=1.0, sample_stride=1)
    zero = Forcing.zero(2)
    with pytest.raises(BlowUpError) as single:
        integrate(m, ZeroSource(), law, zero, bad, cfg)
    with pytest.raises(BlowUpError) as batch:
        integrate_batch(m, ZeroSource(), law, [zero, zero], [calm, bad], cfg)
    assert single.value.row is None
    assert batch.value.row == 1
    assert batch.value.time == single.value.time
    assert batch.value.step == single.value.step
    assert batch.value.time == pytest.approx(batch.value.step * cfg.dt)


def _assert_prefix(short, full):
    n = short.n_samples
    for name in _FIELDS:
        assert np.array_equal(getattr(short, name), getattr(full, name)[:n]), name


def test_until_that_never_holds_changes_nothing():
    n = 8
    m = build_model(n, math.pi, 0.5, 8 * n)
    rng = np.random.default_rng(4)
    states = [make_initial_state(m, rng, e2) for e2 in (1.0, 3.0, 6.0)]
    forcings = [Forcing.single_mode(n, 1, 1.0, lam) for lam in (0.2, 0.5, 0.9)]
    src, law = DoublePower(2.0, 1.0, 0.5), K1Monomial(0.8, 1.5)
    # 300 steps: two checks, at steps 128 and 256, then 44 more steps
    cfg = IntegratorConfig(dt=0.01, horizon=3.0, alpha=0.5, sample_stride=7)
    calls = []

    def never(a, b):
        calls.append(a.shape)
        return False

    single = integrate(m, src, law, forcings[0], states[0], cfg, until=never)
    assert calls == [(n,)] * 2
    _assert_prefix(single, integrate(m, src, law, forcings[0], states[0], cfg))
    assert single.n_samples == 44

    calls.clear()
    batch = integrate_batch(m, src, law, forcings, states, cfg, until=never)
    assert calls == [(n,)] * 2  # each check ends at the first row that fails
    for row, full in zip(batch, integrate_batch(m, src, law, forcings, states, cfg)):
        _assert_prefix(row, full)
        assert row.n_samples == full.n_samples

    # a driven batch: row 1 feels the source projection of row 0
    a = np.stack([states[0].a, np.zeros(n)])
    b = np.stack([states[0].b, np.zeros(n)])
    lh = np.stack([forcings[0].effective, np.zeros(n)])
    drive = np.array([0, 0])
    full = _integrate_driven(m, src, law, lh, drive, a, b, cfg)
    st = _Stepper(m, src, law, lh, cfg, drive)
    got = _advance(st, a, b, 0.0, until=never)
    assert got.count == full.count == got.times.shape[0]
    for field in ("times", "amat", "bmat", "dvec"):
        assert np.array_equal(getattr(got, field), getattr(full, field)), field


def test_stopped_batch_is_a_prefix_of_its_full_run():
    n = 8
    m = build_model(n, math.pi, 0.0, 8 * n)
    rng = np.random.default_rng(8)
    states = [make_initial_state(m, rng, e2) for e2 in (2.0, 4.0, 8.0)]
    zero, src, law = Forcing.zero(n), ZeroSource(), K3Rational(1.0)
    # the stride divides the 128-step check interval, so the stop is a sample
    cfg = IntegratorConfig(dt=0.01, horizon=40.0, sample_stride=4)

    def near_sphere(a, b):
        return abs(2.0 * total_energy(m, src, zero.effective, a, b) - 1.0) <= 1e-2

    full = integrate_batch(m, src, law, [zero] * 3, states, cfg)
    stopped = integrate_batch(m, src, law, [zero] * 3, states, cfg, until=near_sphere)
    steps = round(stopped[0].t[-1] / cfg.dt)
    assert steps % 128 == 0 and 0 < steps < 4000
    for short, traj in zip(stopped, full):
        _assert_prefix(short, traj)
        assert short.t[-1] == stopped[0].t[-1]
        assert near_sphere(short.a[-1], short.b[-1])
    # the check before the stop found a row still off the sphere
    before = (steps - 128) // cfg.sample_stride
    assert not all(near_sphere(traj.a[before], traj.b[before]) for traj in full)


def test_blow_up_is_found_before_the_stop_test():
    # the batch of test_batch_blow_up_names_the_row blows up at step 128, the
    # first check; a stop test that always holds must not hide it
    m = build_model(2, math.pi, 0.0, 16)
    bad = ModalState(np.array([1.0, 0.5]), np.array([1.0, -0.5]))
    calm = ModalState(np.zeros(2), np.zeros(2))
    law = K1Monomial(1e8, 2.0)
    cfg = IntegratorConfig(dt=0.5, horizon=400.0, alpha=1.0, sample_stride=1)
    zero = Forcing.zero(2)
    with pytest.raises(BlowUpError) as info:
        integrate_batch(
            m, ZeroSource(), law, [zero, zero], [calm, bad], cfg, until=lambda a, b: True
        )
    assert info.value.step == 128
    assert info.value.row == 1
    assert info.value.time == 128 * cfg.dt


def test_rk4_batch_stops_row_by_row():
    n = 4
    m = build_model(n, math.pi, 0.0, 8 * n)
    rng = np.random.default_rng(2)
    states = [make_initial_state(m, rng, e2) for e2 in (1.0, 3.0)]
    zero, src, law = Forcing.zero(n), ZeroSource(), K2Constant(1.0)
    cfg = IntegratorConfig(dt=1e-3, horizon=5.0, scheme="rk4", sample_stride=8)

    def below_half(a, b):
        return 2.0 * total_energy(m, src, zero.effective, a, b) <= 0.5

    full = integrate_batch(m, src, law, [zero] * 2, states, cfg)
    stopped = integrate_batch(m, src, law, [zero] * 2, states, cfg, until=below_half)
    steps = [round(traj.t[-1] / cfg.dt) for traj in stopped]
    assert steps[0] < steps[1] < 5000
    for k, short, traj in zip(steps, stopped, full):
        assert k % 128 == 0
        _assert_prefix(short, traj)
        assert below_half(short.a[-1], short.b[-1])
        assert not below_half(traj.a[(k - 128) // 8], traj.b[(k - 128) // 8])


def test_power_law_overflow_is_a_blow_up():
    # with q = 3 the monomial g * s**q overflows a Python float while the
    # state is still finite; that must surface as BlowUpError, not as a
    # bare OverflowError, in a single run and in a batch
    m = build_model(2, math.pi, 0.0, 16)
    bad = ModalState(np.array([1.0, 0.5]), np.array([1.0, -0.5]))
    calm = ModalState(np.zeros(2), np.zeros(2))
    law = K1Monomial(1e8, 3.0)
    cfg = IntegratorConfig(dt=0.5, horizon=400.0, alpha=1.0, sample_stride=1)
    zero = Forcing.zero(2)
    with pytest.raises(BlowUpError) as single:
        integrate(m, ZeroSource(), law, zero, bad, cfg)
    with pytest.raises(BlowUpError) as batch:
        integrate_batch(m, ZeroSource(), law, [zero, zero], [calm, bad], cfg)
    assert isinstance(single.value.__cause__, OverflowError)
    assert single.value.row is None
    assert batch.value.row == 1
    assert batch.value.step == single.value.step
    assert batch.value.time == single.value.time
    assert 0 < single.value.step < 128
    assert single.value.time == pytest.approx(single.value.step * cfg.dt)


def test_power_law_overflow_on_the_initial_state_is_a_blow_up():
    # a huge but finite start overflows g * s**q in the damping evaluation
    # before the first step; that is a blow-up at step 0, time t0
    m = build_model(2, math.pi, 0.0, 16)
    t0 = 1.5
    bad = ModalState(np.array([1e60, 0.5]), np.array([1e60, -0.5]), t0)
    calm = ModalState(np.zeros(2), np.zeros(2), t0)
    law = K1Monomial(1.0, 3.0)
    cfg = IntegratorConfig(dt=0.5, horizon=4.0, alpha=1.0)
    zero = Forcing.zero(2)
    with pytest.raises(BlowUpError) as single:
        integrate(m, ZeroSource(), law, zero, bad, cfg)
    with pytest.raises(BlowUpError) as batch:
        integrate_batch(m, ZeroSource(), law, [zero, zero], [calm, bad], cfg)
    # RK4 evaluates k through the same scalar_k and reports the same way
    with pytest.raises(BlowUpError) as rk4:
        integrate(m, ZeroSource(), law, zero, bad, replace(cfg, scheme="rk4"))
    for info, row in ((single, None), (batch, 1), (rk4, None)):
        assert isinstance(info.value.__cause__, OverflowError)
        assert info.value.step == 0
        assert info.value.time == t0
        assert info.value.row == row


def _ball_states(m, rng, rows):
    """Random states inside the unit energy ball, 2E = E_1 < 1.

    The undamped flow conserves E_1, and E_alpha <= E_1 when every mu_j >= 1,
    so the threshold laws stay zero along the whole run.
    """
    states = []
    for _ in range(rows):
        a = rng.standard_normal(m.n_modes) / m.mu**2
        b = rng.standard_normal(m.n_modes) / m.mu
        e_one = float(m.sigma @ a**2 + b @ b)
        scale = math.sqrt(rng.uniform(0.05, 0.95) / e_one)
        states.append(ModalState(scale * a, scale * b, 0.0))
    return states


@settings(max_examples=25, deadline=None)
@given(
    seed=hs.integers(0, 2**32 - 1),
    rows=hs.integers(1, 5),
    n_modes=hs.sampled_from([4, 8, 16]),
    steps=hs.integers(1, 200),
    dt=hs.sampled_from([0.001, 0.01, 0.05]),
)
def test_batch_time_reversal_of_undamped_flow(seed, rows, n_modes, steps, dt):
    # without damping, source or force each step is an exact rotation, so
    # n steps, a sign flip of b and n more steps return to (a, -b)
    m = build_model(n_modes, math.pi, 0.0, 8 * n_modes)
    states = _ball_states(m, np.random.default_rng(seed), rows)
    cfg = IntegratorConfig(dt=dt, horizon=steps * dt, sample_stride=steps)
    zero = [Forcing.zero(n_modes)] * rows
    law = K3Rational(1.0)
    fwd = integrate_batch(m, ZeroSource(), law, zero, states, cfg)
    turned = [ModalState(t.a[-1], -t.b[-1], 0.0) for t in fwd]
    back = integrate_batch(m, ZeroSource(), law, zero, turned, cfg)
    for state, traj in zip(states, back):
        end = traj.final_state
        gap = math.sqrt(
            float(m.sigma @ (end.a - state.a) ** 2) + float(np.sum((end.b + state.b) ** 2))
        )
        size = math.sqrt(float(m.sigma @ state.a**2) + float(state.b @ state.b))
        assert gap <= 1e-10 * size


@settings(max_examples=25, deadline=None)
@given(
    seed=hs.integers(0, 2**32 - 1),
    rows=hs.integers(1, 5),
    alpha=hs.sampled_from([0.5, 1.0]),
    law=hs.sampled_from([K3Rational(1.0), K3ShiftedExp(1.2)]),
)
def test_batch_rows_inside_the_ball_conserve_energy(seed, rows, alpha, law):
    # 1e-10 is exp_k3_ball's bound on the relative energy drift inside the ball
    m = build_model(16, math.pi, 0.0, 128)
    states = _ball_states(m, np.random.default_rng(seed), rows)
    cfg = IntegratorConfig(dt=0.01, horizon=5.0, alpha=alpha, sample_stride=10)
    trajs = integrate_batch(m, ZeroSource(), law, [Forcing.zero(16)] * rows, states, cfg)
    for traj in trajs:
        e0 = float(traj.energy[0])
        assert float(np.max(np.abs(traj.energy - e0))) <= 1e-10 * e0
        assert traj.dissipation[-1] == 0.0
