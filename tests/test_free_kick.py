"""A free Strang run, zero source and zero forcing, takes the scalar kick: each
half kick scales b by one number.  It agrees with the general kick, kept
verbatim below, to 1e-12 relative in a, b and D over 10^4 steps for every
damping family, and a zero-source run under forcing still takes the general
kick bitwise."""

import math

import numpy as np
import pytest

from edbeam import (
    BlowUpError,
    Forcing,
    IntegratorConfig,
    K1Monomial,
    K2Constant,
    K2ExpDecay,
    K2Rational,
    K3Rational,
    K3ShiftedExp,
    ZeroSource,
    build_model,
)
from edbeam.experiments import make_initial_state
from edbeam.integrate import (
    _CHECK_EVERY,
    _advance,
    _dot,
    _dot_rows,
    _k_rows,
    _raise_unless_finite,
    _Recorder,
    _Stepper,
)

_ALL_DAMPING = [
    K1Monomial(1.0, 1.0),
    K2Constant(0.7),
    K2ExpDecay(1.3),
    K2Rational(0.9),
    K3Rational(1.0),
    K3ShiftedExp(1.2),
]


def _general_kick_reference(st, a, b, n_steps, stride, t0, rec):
    """The Strang loop before free runs took the scalar kick, kept verbatim as
    the reference: every run, free or not, forms the midpoint vector bm."""
    dt = st.cfg.dt
    hdt = 0.5 * dt
    qdt = 0.25 * dt
    cos, sin_over, nomsin = st.cos, st.sin_over, -st.omsin
    mu2a, lh = st.mu2a, st.lh
    kf = st.kf
    dot = _dot
    if a.ndim == 2:
        dot, kf = _dot_rows, _k_rows(kf)
    zero_source = st.zero_source
    project = st.project
    if st.drive is not None:
        drive, project_rows = st.drive, project

        def project(a):
            return project_rows(a[drive])

    dcum = 0.0
    n = -1  # the last completed step is n + 1

    try:
        sa = dot(a * a, mu2a)
        bb = dot(b, b)
        kv = kf(sa + bb)
        ell_prev = kv * bb
        base = lh if zero_source else lh - project(a)
        for n in range(n_steps):
            if n % stride == 0:
                rec.push(t0 + n * dt, a, b, dcum)
            # first half kick (a frozen; sa, kv, base valid for the incoming state)
            bm = b + qdt * (base - kv * b)
            b = b + hdt * (base - kf(sa + dot(bm, bm)) * bm)
            # exact rotation over dt
            a, b = cos * a + sin_over * b, nomsin * a + cos * b
            # second half kick; base also serves the next step's first kick
            if not zero_source:
                base = lh - project(a)
            sa = dot(a * a, mu2a)
            bb = dot(b, b)
            g0 = base - kf(sa + bb) * b
            bm = b + qdt * g0
            b = b + hdt * (base - kf(sa + dot(bm, bm)) * bm)
            # trapezoid dissipation increment to the new state
            bb = dot(b, b)
            kv = kf(sa + bb)
            ell = kv * bb
            dcum += hdt * (ell_prev + ell)
            ell_prev = ell
            if n % _CHECK_EVERY == _CHECK_EVERY - 1:
                _raise_unless_finite(np.isfinite(ell + sa), t0 + (n + 1) * dt, n + 1)
    except OverflowError as exc:
        raise BlowUpError(t0 + (n + 1) * dt, step=n + 1) from exc
    _raise_unless_finite(
        np.isfinite(a).all(-1) & np.isfinite(b).all(-1), t0 + n_steps * dt, n_steps
    )
    rec.push(t0 + n_steps * dt, a, b, dcum)


def _runs(lh, damping, a, b, cfg):
    """(kernel, reference) recorders of one run or batch from (a, b)."""
    m = build_model(a.shape[-1], math.pi, 0.5, 64)
    st = _Stepper(m, ZeroSource(), damping, lh, cfg)
    got = _advance(st, a.copy(), b.copy(), 0.0)
    n_steps, stride = int(round(cfg.horizon / cfg.dt)), cfg.sample_stride
    want = _Recorder((n_steps - 1) // stride + 2, a.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        _general_kick_reference(st, a.copy(), b.copy(), n_steps, stride, 0.0, want)
    assert got.count == want.count == want.times.shape[0]
    return got, want


def _starts(n_modes, rows, seed):
    m = build_model(n_modes, math.pi, 0.5, 64)
    rng = np.random.default_rng(seed)
    # 2E = 2.5 and up starts outside the threshold laws' dead zone
    states = [make_initial_state(m, rng, 2.5 + r) for r in range(rows)]
    return np.stack([s.a for s in states]), np.stack([s.b for s in states])


@pytest.mark.parametrize("rows", [None, 3], ids=["single", "batch3"])
@pytest.mark.parametrize("damping", _ALL_DAMPING, ids=lambda law: type(law).__name__)
def test_free_kick_matches_the_general_kick(damping, rows):
    n = 8
    a, b = _starts(n, rows or 1, seed=21)
    if rows is None:
        a, b = a[0], b[0]
    lh = np.zeros(a.shape)
    cfg = IntegratorConfig(dt=1e-2, horizon=100.0, alpha=0.5, sample_stride=250)
    got, want = _runs(lh, damping, a, b, cfg)

    assert np.array_equal(got.times, want.times)
    for field in ("amat", "bmat"):
        g, w = getattr(got, field), getattr(want, field)
        # per run, relative to that run's largest entry; one state is no
        # scale of its own once the strong laws have decayed it by 1e-20
        err = np.abs(g - w).max(axis=(0, -1))
        assert np.all(err <= 1e-12 * np.abs(w).max(axis=(0, -1))), field
    assert np.all(np.abs(got.dvec - want.dvec) <= 1e-12 * np.abs(want.dvec))
    # the run really dissipated, so D is compared on a nonzero value
    assert np.all(want.dvec[-1] > 1e-3)


@pytest.mark.parametrize(
    "rows, forced_rows",
    [(None, [0]), (3, [0, 1, 2]), (3, [1])],
    ids=["single", "batch3", "batch3_one_forced"],
)
def test_forced_zero_source_takes_the_general_kick_bitwise(rows, forced_rows):
    # the decomposition's v rows: no source, a nonzero lam*h; one forced row
    # makes the whole batch non-free
    n = 8
    a, b = _starts(n, rows or 1, seed=22)
    h = np.random.default_rng(23).standard_normal(n) / np.arange(1, n + 1) ** 2
    lh = np.zeros(a.shape)
    for r in forced_rows:
        lh[r] = Forcing(0.7, h).effective
    if rows is None:
        a, b, lh = a[0], b[0], lh[0]
    cfg = IntegratorConfig(dt=1e-2, horizon=20.0, alpha=1.0, sample_stride=50)
    got, want = _runs(lh, K1Monomial(0.8, 1.5), a, b, cfg)
    for field in ("times", "amat", "bmat", "dvec"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
