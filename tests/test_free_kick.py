"""The Strang kernel fuses the second half kick of each step with the first
half kick of the next into one update ``b <- c1 b + c2 base``, from scalars
it carries instead of forming the midpoint vector; a free run (zero source,
zero forcing) has ``base = 0`` and only scales b.  Free, sourced and forced
runs agree with the general kick, kept verbatim below, to 1e-12 relative in
a, b and D over 10^4 steps for every damping family; the final state does
not depend on the sampling stride; a midpoint that cancels never reaches
the law as a negative argument; and a forced batch that overflows names the
step and row the kick-by-kick loop named."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

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
from edbeam.integrate import (
    _CHECK_EVERY,
    _advance,
    _dot,
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


def _dot_rows(x, y):
    # one BLAS ddot per row, bitwise the float(x @ y) of a single run
    return np.vecdot(x, y)[:, None]


def _k_rows(kf):
    # the law's one scalar evaluator, row by row, on (B, 1) columns
    def k(s):
        return np.fromiter(map(kf, s[:, 0].tolist()), float, len(s))[:, None]

    return k


def _general_kick_reference(st, a, b, n_steps, stride, t0, rec):
    """The Strang loop before free runs took the scalar kick, kept verbatim as
    the reference: every run, free or not, forms the midpoint vector bm."""
    dt = st.cfg.dt
    hdt = 0.5 * dt
    qdt = 0.25 * dt
    cos, sin_over, nomsin = st.cos, st.sin / st.om, -(st.om * st.sin)
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


def _runs(lh, damping, a, b, cfg, source=ZeroSource()):
    """(kernel, reference) recorders of one run or batch from (a, b)."""
    m = build_model(a.shape[-1], math.pi, 0.5, 64)
    st = _Stepper(m, source, damping, lh, cfg)
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


def _assert_close(got, want):
    """The kernel's samples against the reference's: times exactly; a, b and
    D to 1e-12 relative, per run."""
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


@pytest.mark.parametrize("rows", [None, 3], ids=["single", "batch3"])
@pytest.mark.parametrize("damping", _ALL_DAMPING, ids=lambda law: type(law).__name__)
def test_free_kick_matches_the_general_kick(damping, rows):
    n = 8
    a, b = _starts(n, rows or 1, seed=21)
    if rows is None:
        a, b = a[0], b[0]
    lh = np.zeros(a.shape)
    cfg = IntegratorConfig(dt=1e-2, horizon=100.0, alpha=0.5, sample_stride=250)
    _assert_close(*_runs(lh, damping, a, b, cfg))


def _lam_h(n):
    return Forcing(0.7, np.random.default_rng(23).standard_normal(n) / np.arange(1, n + 1) ** 2)


@pytest.mark.parametrize("kind", ["sourced", "forced", "batch3"])
@pytest.mark.parametrize("damping", _ALL_DAMPING, ids=lambda law: type(law).__name__)
def test_fused_kick_matches_the_general_kick(damping, kind):
    # one sourced run, one forced run, and a sourced B = 3 batch whose rows
    # 1 and 2 are also forced
    n = 8
    a, b = _starts(n, 3 if kind == "batch3" else 1, seed=24)
    lh = np.zeros(a.shape)
    if kind == "batch3":
        lh[1:] = _lam_h(n).effective
    else:
        a, b, lh = a[0], b[0], lh[0] + (kind == "forced") * _lam_h(n).effective
    source = ZeroSource() if kind == "forced" else DoublePower(2.0, 1.0, 0.5)
    cfg = IntegratorConfig(dt=1e-2, horizon=100.0, alpha=0.5, sample_stride=250)
    _assert_close(*_runs(lh, damping, a, b, cfg, source))


@pytest.mark.parametrize(
    "rows, forced_rows",
    [(None, [0]), (3, [0, 1, 2]), (3, [1])],
    ids=["single", "batch3", "batch3_one_forced"],
)
def test_forced_zero_source_takes_the_general_kick_bitwise(rows, forced_rows):
    # the decomposition's v rows: no source, a nonzero lam*h; one forced row
    # makes the whole batch non-free.  The fused kick agrees with the
    # general kick to 1e-12, as a sourced or forced run does
    n = 8
    a, b = _starts(n, rows or 1, seed=22)
    lh = np.zeros(a.shape)
    for r in forced_rows:
        lh[r] = _lam_h(n).effective
    if rows is None:
        a, b, lh = a[0], b[0], lh[0]
    cfg = IntegratorConfig(dt=1e-2, horizon=20.0, alpha=1.0, sample_stride=50)
    _assert_close(*_runs(lh, K1Monomial(0.8, 1.5), a, b, cfg))


@pytest.mark.parametrize("kind", ["sourced", "forced"])
@pytest.mark.parametrize("rows", [None, 3], ids=["single", "batch3"])
def test_fused_final_state_does_not_depend_on_the_stride(rows, kind):
    # samples read the pending kick as a temporary; the carried state never
    # takes it in, so a, b and D at the end are bitwise the same
    n = 8
    m = build_model(n, math.pi, 0.5, 8 * n)
    rng = np.random.default_rng(25)
    states = [make_initial_state(m, rng, 2.5 + r) for r in range(rows or 1)]
    forcing = _lam_h(n) if kind == "forced" else Forcing.zero(n)
    source = ZeroSource() if kind == "forced" else DoublePower(2.0, 1.0, 0.5)
    law = K1Monomial(1.0, 1.5)
    finals = []
    for stride in (1, 7, 700):
        cfg = IntegratorConfig(dt=1e-2, horizon=7.0, alpha=0.5, sample_stride=stride)
        if rows is None:
            trajs = [integrate(m, source, law, forcing, states[0], cfg)]
        else:
            trajs = integrate_batch(m, source, law, [forcing] * rows, states, cfg)
        finals.append([(t.a[-1], t.b[-1], t.dissipation[-1]) for t in trajs])
    for other in finals[1:]:
        for got, want in zip(other, finals[0]):
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


@dataclass(frozen=True)
class _ArgumentsSeen(K1Monomial):
    """K1Monomial that records every argument its scalar evaluator gets."""

    seen: list = field(default_factory=list)

    def scalar_k(self):
        k, seen = super().scalar_k(), self.seen

        def recorded(s):
            seen.append(s)
            return k(s)

        return recorded


def test_a_cancelling_midpoint_never_reaches_the_law_negative():
    # a = 0 and b = -(qdt/p) base, base = lam*h, make the first kick's
    # midpoint bm = p b + qdt base vanish.  Its expanded square
    # p^2 b.b + 2 p qdt b.base + qdt^2 base.base rounds to about +-3e-20,
    # and K1Monomial(1, 1.5) of a negative float is a complex number
    n = 8
    m = build_model(n, math.pi, 0.5, 64)
    kf = K1Monomial(1.0, 1.5).scalar_k()
    cfg = IntegratorConfig(dt=0.1, horizon=0.5)
    qdt = 0.25 * cfg.dt
    negative = 0
    for lam in np.linspace(0.05, 1.0, 20):
        forcing = Forcing(lam, _lam_h(n).h_coeffs)
        base = forcing.effective
        b = -qdt * base
        for _ in range(60):  # p depends on |b|^2; iterate to its fixed point
            p = 1.0 - qdt * kf(float(b @ b))
            b = -(qdt / p) * base
        p = 1.0 - qdt * kf(float(b @ b))
        bb, bg, gg = float(b @ b), float(b @ base), float(base @ base)
        negative += p * p * bb + 2.0 * p * qdt * bg + qdt * qdt * gg < 0.0
        law = _ArgumentsSeen(1.0, 1.5)
        traj = integrate(m, ZeroSource(), law, forcing, ModalState(np.zeros(n), b), cfg)
        assert all(type(s) is float and s >= 0.0 for s in law.seen)
        for series in (traj.a, traj.b, traj.dissipation, traj.energy):
            assert series.dtype == float and np.all(np.isfinite(series))
    # the expansion did round below zero on some of these states
    assert negative > 0


def _forced_overflow_batch(seed, c, q):
    # the rows of test_free_phase's overflow batch, each forced in one mode
    m = build_model(3, math.pi, 0.3, 24)
    rng = np.random.default_rng(seed)
    states = [ModalState(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(3)]
    s = max(float(m.sigma @ st.a**2 + st.b @ st.b) for st in states)
    forcings = [Forcing(0.7, np.eye(3)[r]) for r in range(3)]
    return m, states, forcings, K1Monomial(c / (0.05 * s**q), q)


# (seed, c, q) -> (step, row, cause) as the kick-by-kick loop reported them
@pytest.mark.parametrize(
    "seed, c, q, step, row, cause",
    [
        (0, 2.2, 2.0, 3, 2, OverflowError),
        (5, 2.2, 2.0, 3, 1, OverflowError),
        (1, 2.2, 3.0, 3, 0, OverflowError),
        (0, 3.0, 3.0, 2, 2, OverflowError),
        (7, 2.2, 2.0, 128, 1, None),
        (0, 2.2, 3.0, 128, 2, None),
    ],
)
@pytest.mark.parametrize("stride", [1, 3])
def test_forced_batch_blow_up_names_the_same_step_and_row(seed, c, q, step, row, cause, stride):
    m, states, forcings, law = _forced_overflow_batch(seed, c, q)
    cfg = IntegratorConfig(dt=0.1, horizon=40.0, alpha=1.0, sample_stride=stride)
    with pytest.raises(BlowUpError) as info:
        integrate_batch(m, ZeroSource(), law, forcings, states, cfg)
    assert type(info.value.__cause__) is (cause or type(None))
    assert (info.value.step, info.value.row) == (step, row)
    assert info.value.time == pytest.approx(step * cfg.dt)
