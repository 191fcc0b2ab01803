"""The Strang loop evaluates the source projection once per step and carries
it into the next step's first half kick.  Its recorded a, b and D agree with
the loop that projected at the top of every step to 1e-12 (the kernel also
fuses the two half kicks that meet between steps), for one run, a batch and
a driven batch, and it projects exactly n_steps + 1 times per run."""

import math
from dataclasses import replace

import numpy as np
import pytest

from edbeam import (
    BlowUpError,
    DoublePower,
    Forcing,
    IntegratorConfig,
    K1Monomial,
    ModalState,
    ZeroSource,
    build_model,
    integrate,
    integrate_batch,
    project_source,
)
from edbeam.experiments import make_initial_state
from edbeam.integrate import (
    _advance,
    _integrate_driven,
    _raise_unless_finite,
    _Recorder,
    _Stepper,
)


def _dot(x, y):
    # the same BLAS ddot as x @ y, without the matmul ufunc's dispatch cost
    return float(np.dot(x, y))


def _dot_rows(x, y):
    # one BLAS ddot per row, bitwise the float(x @ y) of a single run
    return np.vecdot(x, y)[:, None]


def _k_rows(kf):
    # the law's one scalar evaluator, row by row; a vectorised numpy form
    # would be 1 ulp off it on some arguments for powers, exp and expm1
    def k(s):
        return np.array(list(map(kf, s[:, 0].tolist())))[:, None]

    return k


def _two_projection_reference(st, a, b, n_steps, stride, t0, rec):
    """The loop before the projection was carried across steps, kept
    verbatim as the reference: it projects a at the top of every step and
    again after the rotation, two projections per step.  A free run (zero
    source, zero force) takes the kernel's scalar kick, verbatim."""
    dt = st.cfg.dt
    hdt = 0.5 * dt
    qdt = 0.25 * dt
    cos, sin_over, omsin = st.cos, st.sin / st.om, st.om * st.sin
    mu2a, lh = st.mu2a, st.lh
    kf = st.kf  # the law's scalar_k(), which the stepper now holds
    dot = _dot
    if a.ndim == 2:
        dot, kf = _dot_rows, _k_rows(kf)
    zero_source = st.zero_source
    free = zero_source and not lh.any()
    project = st.project
    if st.drive is not None:
        drive, project_rows = st.drive, project

        def project(a):
            return project_rows(a[drive])

    sa = dot(a * a, mu2a)
    bb = dot(b, b)
    kv = kf(sa + bb)
    ell_prev = kv * bb
    dcum = 0.0
    check_every = 128

    try:
        for n in range(n_steps):
            if n % stride == 0:
                rec.push(t0 + n * dt, a, b, dcum)
            # first half kick (a frozen; sa, kv valid for the incoming state)
            base = lh if zero_source else lh - project(a)
            if free:
                p = 1.0 - qdt * kv
                b = (1.0 - hdt * kf(sa + p * p * bb) * p) * b
            else:
                bm = b + qdt * (base - kv * b)
                b = b + hdt * (base - kf(sa + dot(bm, bm)) * bm)
            # exact rotation over dt
            a, b = cos * a + sin_over * b, omsin * (-a) + cos * b
            # second half kick
            base = lh if zero_source else lh - project(a)
            sa = dot(a * a, mu2a)
            bb = dot(b, b)
            if free:
                p = 1.0 - qdt * kf(sa + bb)
                b = (1.0 - hdt * kf(sa + p * p * bb) * p) * b
            else:
                g0 = base - kf(sa + bb) * b
                bm = b + qdt * g0
                b = b + hdt * (base - kf(sa + dot(bm, bm)) * bm)
            # trapezoid dissipation increment to the new state
            bb = dot(b, b)
            kv = kf(sa + bb)
            ell = kv * bb
            dcum += hdt * (ell_prev + ell)
            ell_prev = ell
            if n % check_every == check_every - 1:
                _raise_unless_finite(np.isfinite(ell + sa), t0 + (n + 1) * dt, n + 1)
    except OverflowError as exc:
        row = None
        if a.ndim == 2:
            # name the row furthest out; argmax counts a NaN as furthest
            row = int(np.argmax(np.maximum(np.abs(a).max(1), np.abs(b).max(1))))
        raise BlowUpError(t0 + (n + 1) * dt, step=n + 1, row=row) from exc
    _raise_unless_finite(
        np.isfinite(a).all(-1) & np.isfinite(b).all(-1), t0 + n_steps * dt, n_steps
    )
    rec.push(t0 + n_steps * dt, a, b, dcum)


_N = 8
_SOURCES = {"zero": ZeroSource(), "double_power": DoublePower(2.0, 1.0, 0.0)}
_LAW = K1Monomial(0.8, 1.5)


def _problem(shape, forced, seed=3):
    """(model, lh, drive, a, b) for one run, a B = 3 batch, or a driven batch of
    two (u, z) pairs whose z rows feel the projection of their u row."""
    m = build_model(_N, math.pi, 0.5, 64)
    rng = np.random.default_rng(seed)
    states = [make_initial_state(m, rng, 1.0) for _ in range(3)]
    h = rng.standard_normal(_N) / np.arange(1, _N + 1) ** 2
    lams = [0.7, 0.3, 1.0] if forced else [0.0, 0.0, 0.0]
    lhs = [Forcing(lam, h).effective for lam in lams]
    if shape == "single":
        return m, lhs[0], None, states[0].a.copy(), states[0].b.copy()
    if shape == "batch":
        a = np.stack([s.a for s in states])
        b = np.stack([s.b for s in states])
        return m, np.stack(lhs), None, a, b
    zero = np.zeros(_N)
    a = np.stack([states[0].a, zero, states[1].a, zero])
    b = np.stack([states[0].b, zero, states[1].b, zero])
    lh = np.stack([lhs[0], zero, lhs[1], zero])
    return m, lh, np.array([0, 0, 2, 2]), a, b


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("source", sorted(_SOURCES))
@pytest.mark.parametrize("shape", ["single", "batch", "driven"])
def test_carried_projection_matches_the_two_projection_loop_bitwise(
    shape, source, forced, stride, alpha
):
    m, lh, drive, a, b = _problem(shape, forced)
    cfg = IntegratorConfig(dt=1e-2, horizon=3.0, alpha=alpha, sample_stride=stride)
    st = _Stepper(m, _SOURCES[source], _LAW, lh, cfg, drive)
    got = _advance(st, a.copy(), b.copy(), 0.25)

    n_steps = int(round(cfg.horizon / cfg.dt))
    want = _Recorder((n_steps - 1) // stride + 2, a.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        _two_projection_reference(st, a.copy(), b.copy(), n_steps, stride, 0.25, want)

    assert got.count == want.count == want.times.shape[0]
    assert np.array_equal(got.times, want.times)
    for field in ("amat", "bmat", "dvec"):
        g, w = getattr(got, field), getattr(want, field)
        # the kernel fuses the two half kicks that meet between steps into
        # one update of b; it agrees with the kick-by-kick loop to the fused
        # kick's bound
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), field


@pytest.fixture
def projection_calls(monkeypatch):
    calls = []
    project = _Stepper.project

    def counted(self, a):
        calls.append(a.shape)
        return project(self, a)

    monkeypatch.setattr(_Stepper, "project", counted)
    return calls


def test_one_projection_per_step_plus_one(projection_calls):
    m = build_model(_N, math.pi, 0.5, 64)
    rng = np.random.default_rng(5)
    starts = [make_initial_state(m, rng, 1.0) for _ in range(3)]
    src = _SOURCES["double_power"]
    zero = Forcing.zero(_N)
    cfg = IntegratorConfig(dt=1e-2, horizon=0.5, alpha=0.5, sample_stride=4)
    n_steps = 50

    integrate(m, src, _LAW, zero, starts[0], cfg)
    assert projection_calls == [(_N,)] * (n_steps + 1)

    projection_calls.clear()
    integrate_batch(m, src, _LAW, [zero] * 3, starts, cfg)
    assert projection_calls == [(3, _N)] * (n_steps + 1)

    projection_calls.clear()
    a = np.stack([starts[0].a, np.zeros(_N)])
    b = np.stack([starts[0].b, np.zeros(_N)])
    lh = np.zeros((2, _N))
    _integrate_driven(m, src, _LAW, lh, np.array([0, 0]), a, b, cfg)
    assert projection_calls == [(2, _N)] * (n_steps + 1)

    projection_calls.clear()
    integrate(m, src, _LAW, zero, starts[0], replace(cfg, horizon=cfg.dt))
    assert projection_calls == [(_N,)] * 2


def test_zero_source_never_projects(projection_calls):
    m = build_model(_N, math.pi, 0.5, 64)
    start = make_initial_state(m, np.random.default_rng(6), 1.0)
    cfg = IntegratorConfig(dt=1e-2, horizon=0.5, alpha=0.5)
    integrate(m, ZeroSource(), _LAW, Forcing.zero(_N), start, cfg)
    assert projection_calls == []


def test_project_source_is_the_stepper_projection_bitwise():
    # one projection kernel serves the public project_source and the
    # integrator's single-run projection
    m = build_model(16, math.pi, 0.0, 128)
    src = DoublePower(2.0, 1.0, 3.0)
    cfg = IntegratorConfig(dt=1e-2, horizon=0.5)
    st = _Stepper(m, src, K1Monomial(1.0, 1.0), np.zeros(16), cfg)
    rng = np.random.default_rng(11)
    for energy2 in (0.1, 1.0, 4.0, 25.0):
        a = make_initial_state(m, rng, energy2).a
        assert np.array_equal(project_source(m, src, a), st.project(a))
