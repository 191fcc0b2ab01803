"""The decomposition u = v + z runs through the one Strang kernel as coupled
rows; its u and z rows, and its v as the ZeroSource batch run, agree with
the lockstep loop it replaced to 1e-12 (the kernel fuses the two half kicks
that meet between steps), and a blow-up raises instead of filling the
samples with NaN."""

import math
from dataclasses import replace

import numpy as np
import pytest

from edbeam import (
    BlowUpError,
    DoublePower,
    Forcing,
    IntegratorConfig,
    K2Constant,
    ModalState,
    ZeroSource,
    build_model,
    integrate_batch,
)
from edbeam.experiments import (
    _integrate_decomposed,
    exp_decomposition,
    make_initial_state,
)
from edbeam.integrate import _Stepper


def _lockstep_reference(model, source, gamma, forcing, initial, icfg, horizon):
    """The private lockstep loop the coupled batch replaced, kept verbatim
    as the reference: u (full), v (linear, forced) and z (driven by -f(u))
    advance together through one hand-written kick and rotation.  A free
    run (zero source, zero force) takes the kernel's scalar kick, verbatim."""
    damping = K2Constant(gamma)
    cfg = replace(icfg, horizon=horizon, scheme="strang")
    st = _Stepper(model, source, damping, forcing.effective, cfg)
    dt = cfg.dt
    hdt = 0.5 * dt
    lh = forcing.effective
    n_steps = int(round(horizon / dt))
    stride = cfg.sample_stride

    au, bu = initial.a.copy(), initial.b.copy()
    av, bv = initial.a.copy(), initial.b.copy()
    az, bz = np.zeros(model.n_modes), np.zeros(model.n_modes)

    def kick_const(b, base, free):
        # explicit-midpoint kick for constant-coefficient damping
        if free:
            p = 1.0 - (0.5 * hdt) * gamma
            return (1.0 - hdt * gamma * p) * b
        g0 = base - gamma * b
        bm = b + (0.5 * hdt) * g0
        return b + hdt * (base - gamma * bm)

    def kick_all():
        nonlocal bu, bv, bz
        fv = st.project(au)
        neg_f = -fv if fv is not None else 0.0
        # u and z run as one batch, free when it has no source and no force
        free_v = not lh.any()
        bu = kick_const(bu, lh + neg_f, free_v and st.zero_source)
        bv = kick_const(bv, lh, free_v)
        bz = kick_const(bz, neg_f, free_v and st.zero_source)

    def rotate(a, b):
        return st.cos * a + (st.sin / st.om) * b, -(st.om * st.sin) * a + st.cos * b

    records = []

    def record(n):
        records.append(
            (n * dt, au.copy(), bu.copy(), av.copy(), bv.copy(), az.copy(), bz.copy())
        )

    for n in range(n_steps):
        if n % stride == 0:
            record(n)
        kick_all()
        au, bu = rotate(au, bu)
        av, bv = rotate(av, bv)
        az, bz = rotate(az, bz)
        kick_all()
    record(n_steps)

    times = np.array([r[0] for r in records])
    stacks = [np.array([r[i] for r in records]) for i in range(1, 7)]
    return (times, *stacks)


_SOURCES = {"zero": ZeroSource(), "double_power": DoublePower(2.0, 1.0, 0.0)}


@pytest.mark.parametrize("n_probes", [1, 2, 3, 4])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("source", sorted(_SOURCES))
def test_coupled_rows_match_the_lockstep_loop_bitwise(source, forced, n_probes):
    m = build_model(8, math.pi, 0.5, 64)
    rng = np.random.default_rng(11)
    start = make_initial_state(m, rng, 1.0)
    other = make_initial_state(m, rng, 1.0)
    starts = [start]
    for j in (2, 4, 6, 8)[:n_probes]:
        a = start.a.copy()
        a[j - 1] += 1e-3
        starts.append(ModalState(a, start.b.copy(), 0.0))
    h = rng.standard_normal(8) / np.arange(1, 9) ** 2 if forced else np.zeros(8)
    forcing = Forcing(0.7, h)
    law = K2Constant(0.8)
    cfg = IntegratorConfig(dt=1e-2, horizon=2.0, alpha=1.0, sample_stride=3)

    times, au, bu, az, bz = _integrate_decomposed(
        m, _SOURCES[source], law, forcing, starts, cfg
    )
    for p, s in enumerate(starts):
        ref = _lockstep_reference(m, _SOURCES[source], 0.8, forcing, s, cfg, 2.0)
        assert np.array_equal(times, ref[0])
        for got, want in zip((au, bu, az, bz), ref[1:3] + ref[5:7]):
            _assert_same_rows(got[:, p], want)

    # the old v is the ZeroSource batch row of the same start
    v, _ = integrate_batch(m, ZeroSource(), law, [forcing] * 2, [start, other], cfg)
    ref = _lockstep_reference(m, _SOURCES[source], 0.8, forcing, start, cfg, 2.0)
    _assert_same_rows(v.a, ref[3])
    _assert_same_rows(v.b, ref[4])


def _assert_same_rows(got, want):
    # the kernel fuses the two half kicks that meet between steps into one
    # update of b, so it agrees with the kick-by-kick loop to the fused
    # kick's 1e-12 of the largest entry (an all-zero row exactly)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_decomposition_blow_up_raises():
    # a step far beyond the kick's range under a strong cubic source: the
    # lockstep loop filled most samples with NaN and raised nothing
    m = build_model(4, math.pi, 0.0, 32)
    law = K2Constant(1.0)
    src = DoublePower(2.0, 1.0, 0.0)
    zero = Forcing.zero(4)
    start = ModalState(10.0 * np.array([1.0, 0.5, 0.2, 0.1]), np.zeros(4))
    cfg = IntegratorConfig(dt=0.5, horizon=50.0, alpha=1.0)

    with np.errstate(all="ignore"):
        ref = _lockstep_reference(m, src, 1.0, zero, start, cfg, 50.0)
    assert not np.all(np.isfinite(ref[1]))

    with pytest.raises(BlowUpError) as info:
        exp_decomposition(m, law, src, zero, start, start, cfg, probe_modes=(1, 2, 3, 4))
    assert info.value.step == 100
    assert info.value.time == pytest.approx(50.0)
