"""A free Strang run (zero source, zero force) carries z = omega a + i b and
fuses the second half kick of each step with the first half kick of the
next.  Samples read a and b as temporaries, so the carried state does not
depend on the sampling stride, and blow-up is reported at the same step and
row as the real loop reported it."""

import math

import numpy as np
import pytest

from edbeam import (
    BlowUpError,
    Forcing,
    IntegratorConfig,
    K1Monomial,
    K3Rational,
    ModalState,
    ZeroSource,
    build_model,
    integrate,
    integrate_batch,
)
from edbeam.experiments import make_initial_state

_FIELDS = ("a", "b", "dissipation")


@pytest.mark.parametrize("rows", [None, 3], ids=["single", "batch3"])
@pytest.mark.parametrize("law", [K1Monomial(1.0, 1.5), K3Rational(1.0)], ids=["K1", "K3"])
def test_free_final_state_does_not_depend_on_the_stride(law, rows):
    n = 8
    m = build_model(n, math.pi, 0.5, 8 * n)
    rng = np.random.default_rng(6)
    states = [make_initial_state(m, rng, 2.5 + r) for r in range(rows or 1)]
    zero = [Forcing.zero(n)] * len(states)
    n_steps = 700
    finals = []
    for stride in (1, 7, n_steps):
        cfg = IntegratorConfig(dt=1e-2, horizon=7.0, alpha=0.5, sample_stride=stride)
        if rows is None:
            trajs = [integrate(m, ZeroSource(), law, zero[0], states[0], cfg)]
        else:
            trajs = integrate_batch(m, ZeroSource(), law, zero, states, cfg)
        finals.append([[getattr(t, f)[-1] for f in _FIELDS] for t in trajs])
    for other in finals[1:]:
        for got, want in zip(other, finals[0]):
            for g, w, field in zip(got, want, _FIELDS):
                assert np.array_equal(g, w), field
    assert all(t.dissipation[-1] > 1e-3 for t in trajs)


def _overflow_batch(seed, c, q):
    # three unit-scale rows under a monomial law set so that the largest
    # row's half kick overshoots c times the stable step: the kick grows b
    # until the law overflows a Python float
    m = build_model(3, math.pi, 0.3, 24)
    rng = np.random.default_rng(seed)
    states = [ModalState(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(3)]
    s = max(float(m.sigma @ st.a**2 + st.b @ st.b) for st in states)
    return m, states, K1Monomial(c / (0.05 * s**q), q)


# (seed, c, q) -> (step, row) as the real free loop reported them
@pytest.mark.parametrize(
    "seed, c, q, step, row",
    [(1, 3.0, 2.0, 3, 0), (5, 2.2, 2.0, 3, 1), (0, 2.2, 3.0, 3, 2)],
)
@pytest.mark.parametrize("stride", [1, 3])
def test_free_batch_overflow_names_the_same_step_and_row(seed, c, q, step, row, stride):
    m, states, law = _overflow_batch(seed, c, q)
    cfg = IntegratorConfig(dt=0.1, horizon=40.0, alpha=1.0, sample_stride=stride)
    with pytest.raises(BlowUpError) as batch:
        integrate_batch(m, ZeroSource(), law, [Forcing.zero(3)] * 3, states, cfg)
    assert isinstance(batch.value.__cause__, OverflowError)
    assert (batch.value.step, batch.value.row) == (step, row)
    assert batch.value.time == pytest.approx(step * cfg.dt)


@pytest.mark.parametrize(
    "order, row", [((1, 0, 0), 0), ((0, 0, 1), 2), ((0, 2, 1), 1), ((2, 0, 1), 0)]
)
def test_free_batch_going_non_finite_names_the_same_step_and_row(order, row):
    # the state of test_batch_blow_up_names_the_row: non-finite by the first
    # 128-step check, with no overflow of the law on the way
    m = build_model(2, math.pi, 0.0, 16)
    starts = [
        ModalState(np.zeros(2), np.zeros(2)),
        ModalState(np.array([1.0, 0.5]), np.array([1.0, -0.5])),
        ModalState(np.array([0.8, 0.5]), np.array([1.0, -0.4])),
    ]
    cfg = IntegratorConfig(dt=0.5, horizon=400.0, alpha=1.0, sample_stride=7)
    with pytest.raises(BlowUpError) as info:
        integrate_batch(
            m, ZeroSource(), K1Monomial(1e8, 2.0), [Forcing.zero(2)] * 3,
            [starts[i] for i in order], cfg,
        )
    assert info.value.__cause__ is None
    assert (info.value.step, info.value.row) == (128, row)
    assert info.value.time == 64.0
