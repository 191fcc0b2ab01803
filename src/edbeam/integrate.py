"""Time integration of the modal beam system.

The Galerkin system is

    a_j'' + (sigma_j + kappa*mu_j) a_j + <f(u), w_j> + k(E_alpha) b_j = lam*h_j,

with E_alpha = sum_j mu_j**(2*alpha) a_j^2 + sum_j b_j^2.  The stiffness of
the linear part (sigma_j grows like j**4) is handled by a Strang splitting
whose linear half is an exact per-mode rotation, so the scheme has no
explicit stability ceiling and conserves the quadratic energy to rounding
when the damping and source vanish.  The nonlocal damping makes the kick
substep nonlinear in b; one explicit-midpoint sub-evaluation keeps the step
formally second order without an implicit solve.  A classical RK4 step on
the first-order system, guarded by the usual dt * omega_max <= 2.8
stability bound, is reached only as ``IntegratorConfig(scheme="rk4")`` from
Python, and steps one run to its horizon: it is the reference the Strang
scheme is tested against.

Each half kick is affine in the velocity, b <- s b + t (lam*h - projected
source), so the two half kicks that meet between steps are applied as one
update, from per-run scalars kept in Python floats; this agrees with the
kick-by-kick loop to rounding.  Every run carries the complex phase
variable z = omega a + i b, on which the rotation is one complex product;
a free run (zero source, zero force) skips the base terms, so its kick
only scales Im z.

The dissipation integral D(t) = int k(E_alpha) ||u_t||^2 is accumulated by
the trapezoid rule at every micro step, independent of the sampling stride,
so the energy-identity residual E(t) + D(t) - E(0) reflects scheme error
only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, InvalidConfigurationError, integral
from .laws import ZeroSource, assumption_constants
from .series import write_csv
from .spectral import ModalState, _project, _quadrature, _synthesize, phase_norms

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "integrate_batch",
    "energy_identity_residual",
    "coercivity_offset",
    "RK4_STABILITY_LIMIT",
]

RK4_STABILITY_LIMIT = 2.8

_CHECK_EVERY = 128  # steps between blow-up checks, which also test ``until``

_SCHEMES = ("strang", "rk4")


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    horizon: float
    scheme: str = "strang"
    alpha: float = 1.0
    sample_stride: int = 1

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise InvalidConfigurationError(f"dt must be > 0 and finite, got {self.dt}")
        if not 0.0 < self.horizon < np.inf:
            raise InvalidConfigurationError(
                f"horizon must be > 0 and finite, got {self.horizon}"
            )
        if not self.horizon / self.dt < np.inf:
            raise InvalidConfigurationError(
                f"horizon {self.horizon} / dt {self.dt}: a finite step count required"
            )
        if self.scheme not in _SCHEMES:
            raise InvalidConfigurationError(
                f"scheme must be one of {_SCHEMES}, got {self.scheme!r}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidConfigurationError(f"alpha must be in [0, 1], got {self.alpha}")
        if integral("sample_stride", self.sample_stride) < 1:
            raise InvalidConfigurationError("sample_stride must be >= 1")
        if abs(round(self.horizon / self.dt) * self.dt - self.horizon) > 1e-9 * self.horizon:
            raise InvalidConfigurationError(
                f"dt = {self.dt} does not divide the horizon {self.horizon}"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def sample_times(self, t0=0.0):
        """The times a full run from ``t0`` records: every ``sample_stride``
        steps plus the last, each computed as the loops compute it."""
        n = self.n_steps
        return t0 + np.append(np.arange(0, n, int(self.sample_stride)), n) * self.dt


@dataclass(frozen=True)
class Trajectory:
    """Sampled states with energy, modified energy, and dissipation series."""

    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    energy: np.ndarray
    energy_mod: np.ndarray
    dissipation: np.ndarray
    phase: np.ndarray
    K_lambda: float

    @property
    def n_samples(self) -> int:
        return self.t.shape[0]

    @property
    def n_modes(self) -> int:
        return self.a.shape[1]

    @property
    def final_state(self) -> ModalState:
        return ModalState(self.a[-1].copy(), self.b[-1].copy(), float(self.t[-1]))

    def write_csv(self, path):
        """Write t, E, Etilde, D, phase_norm, a_1..a_N, b_1..b_N rows.

        Full double precision (17 significant digits) for reproducibility.
        """
        n = self.n_modes
        header = (
            ["t", "E", "Etilde", "D", "phase_norm"]
            + [f"a_{j}" for j in range(1, n + 1)]
            + [f"b_{j}" for j in range(1, n + 1)]
        )
        columns = [self.t, self.energy, self.energy_mod, self.dissipation, self.phase]
        write_csv(path, header, columns + [self.a, self.b])


def _mu2alpha(model, alpha):
    # alpha = 1 must reproduce sigma bitwise (the two routes to E_1 agree).
    if alpha == 1.0:
        return model.sigma
    if alpha == 0.0:
        return np.ones_like(model.mu)
    return model.mu ** (2.0 * alpha)


_ENERGY_BLOCK = 64  # rows per block, so the (rows, M) source temporaries stay small


def total_energies(model, source, lh, a, b):
    """``total_energy`` of each row of stacked states a, b of shape (S, N).

    Each row is reduced on its own (row dot products and the row-wise
    quadrature of ``spectral``), so a row's energy is bitwise
    ``total_energy`` of that row wherever it sits.
    """
    out = np.empty(a.shape[0])
    for i in range(0, a.shape[0], _ENERGY_BLOCK):
        ai, bi = a[i : i + _ENERGY_BLOCK], b[i : i + _ENERGY_BLOCK]
        sq = ai * ai
        e = 0.5 * (
            np.vecdot(bi, bi)
            + np.sum(model.sigma * sq, axis=-1)
            + model.kappa * np.sum(model.mu * sq, axis=-1)
        )
        if not isinstance(source, ZeroSource):
            e += _quadrature(model, source.f_primitive(_synthesize(model, ai)))
        out[i : i + _ENERGY_BLOCK] = e - np.vecdot(ai, lh)
    return out


def total_energy(model, source, lh, a, b):
    """E = kinetic + bending + membrane + source integral - forcing work.

    ``lh`` is the applied force lam*h, ``Forcing.effective``.
    """
    return float(total_energies(model, source, lh, a[None], b[None])[0])


def coercivity_offset(model, constants, forcing):
    """(omega, K_lambda) with omega = 1 - c_f/sigma_1 and
    K_lambda = C_f |Omega| + ||lam h||^2 / (sigma_1 * omega).

    Raises when omega <= 0: the modified energy is then not coercive.
    """
    sigma1 = float(model.sigma[0])
    omega = 1.0 - constants.c_f / sigma1
    if not omega > 0.0:
        raise InvalidConfigurationError(
            f"c_f = {constants.c_f} >= sigma_1 = {sigma1}: omega <= 0"
        )
    return omega, constants.C_f * model.domain_measure + forcing.effective_norm**2 / (
        sigma1 * omega
    )


class _Stepper:
    """Precomputed tables shared by every step of one integration.

    ``lh`` is the applied force lam*h: one row (N,) for a single run, or one
    row per run (B, N) for a batch.  ``drive`` couples the rows of a batch:
    row r feels the source projection of row ``drive[r]``; None drives each
    row by itself.  ``kf`` is the damping law's scalar evaluator, which
    both schemes use for k(E_alpha).
    """

    def __init__(self, model, source, damping, lh, cfg, drive=None):
        self.model = model
        self.source = source
        self.kf = damping.scalar_k()
        self.cfg = cfg
        self.drive = drive
        self.zero_source = isinstance(source, ZeroSource)
        self.mu2a = _mu2alpha(model, cfg.alpha)
        self.lam2 = model.sigma + model.kappa * model.mu
        self.lh = np.array(lh, dtype=float)
        self.om = om = np.sqrt(self.lam2)
        self.omega_max = float(om[-1])
        self.cos = np.cos(om * cfg.dt)
        self.sin = np.sin(om * cfg.dt)
        if cfg.scheme == "rk4" and cfg.dt * self.omega_max > RK4_STABILITY_LIMIT:
            raise InvalidConfigurationError(
                f"rk4 unstable: dt*omega_max = {cfg.dt * self.omega_max:.3g} "
                f"> {RK4_STABILITY_LIMIT}"
            )

    def project(self, a):
        """Galerkin projection of f(u) for one row (N,) or each row of (B, N);
        a batch row rounds as its single run."""
        if self.zero_source:
            return None
        return _project(self.model, self.source.f, a)

    def dissipation_rate(self, a, b):
        """k(E_alpha(a, b)) * ||b||^2, the integrand of D."""
        bb = _dot(b, b)
        return self.kf(_dot(a * a, self.mu2a) + bb) * bb

    def _rhs(self, a, b):
        fv = self.project(a)
        acc = -self.lam2 * a + self.lh
        if fv is not None:
            acc = acc - fv
        acc = acc - self.kf(_dot(a * a, self.mu2a) + _dot(b, b)) * b
        return b, acc

    def step_rk4(self, a, b):
        dt = self.cfg.dt
        k1a, k1b = self._rhs(a, b)
        k2a, k2b = self._rhs(a + 0.5 * dt * k1a, b + 0.5 * dt * k1b)
        k3a, k3b = self._rhs(a + 0.5 * dt * k2a, b + 0.5 * dt * k2b)
        k4a, k4b = self._rhs(a + dt * k3a, b + dt * k3b)
        a = a + (dt / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        b = b + (dt / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        return a, b


class _Recorder:
    """Preallocated sample arrays for states of ``shape``, (N,) or (B, N),
    filled one sample at a time."""

    __slots__ = ("times", "amat", "bmat", "dvec", "count")

    def __init__(self, n_rec, shape):
        self.times = np.empty(n_rec)
        self.amat = np.empty((n_rec, *shape))
        self.bmat = np.empty((n_rec, *shape))
        # D is one scalar per run; a batch keeps it as a (B, 1) column
        self.dvec = np.empty((n_rec,) if len(shape) == 1 else (n_rec, shape[0], 1))
        self.count = 0

    def push(self, t, a, b, dcum):
        i = self.count
        self.times[i] = t
        self.amat[i] = a
        self.bmat[i] = b
        self.dvec[i] = dcum
        self.count = i + 1


def _dot(x, y):
    # the same BLAS ddot as x @ y, without the matmul ufunc's or np.dot's
    # dispatch cost
    return float(x.dot(y))


_OVERFLOW = "the damping law left float range"


def _raise_unless_finite(ok, t, step):
    """Raise BlowUpError at (t, step) unless every per-run flag in ``ok`` holds."""
    if not np.all(ok):
        row = None if np.ndim(ok) == 0 else int(np.argmin(np.ravel(ok)))
        raise BlowUpError(t, step=step, row=row)


def _run_strang(st, a, b, n_steps, stride, t0, rec, until=None):
    """The Strang splitting loop: half kick, exact rotation, half kick.

    a is frozen through each kick, so its source projection and the
    displacement part of E_alpha are evaluated once per kick; each kick is
    one explicit-midpoint sub-evaluation of the nonlocal damping.  With
    ``base = lh - project(a)`` and ``p = 1 - (dt/4) k(sa + |b|^2)``, the
    midpoint is ``bm = p b + (dt/4) base`` and the kick is the affine map
    ``b <- s b + t base``, ``s = 1 - (dt/2) km p``, ``t = (dt/2)(1 - (dt/4)
    km)``, ``km = k(sa + |bm|^2)``.  Its scalars need only ``bb = b.b``,
    ``bg = b.base`` and ``gg = base.base``: ``|bm|^2 = p^2 bb + 2 p (dt/4)
    bg + (dt/4)^2 gg``, and the b it leaves has ``s^2 bb + 2 s t bg + t^2
    gg`` and ``s bg + t gg``.  Nothing moves a, and so base, between the
    second half kick of one step and the first of the next: base is
    projected once after each rotation (one projection per step plus one
    before the loop), and the second kick stays pending as ``(s2, t2)`` to
    be applied with the next first kick as one ``b <- c1 b + c2 base``.

    Every run carries the complex phase variable ``z = omega a + i b``,
    omega = sqrt(sigma + kappa mu), on which the exact rotation is the one
    product ``z *= exp(-i omega dt)`` and the fused kick acts on ``Im z``.
    The projection reads ``a = Re z / omega`` as a contiguous temporary,
    ``sa = dot((Re z)^2, mu^2alpha / omega^2)``, and ``bb`` and ``bg`` read
    the strided imaginary view.  A step is a fixed handful of array
    operations (the fused kick, the rotation, the projection, up to four
    row dot products) plus one call of ``row_step``, the run's scalar
    arithmetic in Python floats.  A free run, zero source and zero force in
    every row, has ``base = 0``: it skips the base terms, so its kick only
    scales ``Im z``.  Checks for blow-up every 128 steps to keep the
    per-step cost down; the same check ends the run early once
    ``until(a_row, b_row)`` holds for every row.

    The state is one run, a and b of shape (N,), or a batch of runs, shape
    (B, N).  A batch maps ``row_step`` over lists of its rows' scalars, from
    one BLAS ddot per row, and applies the fused kick as (B, 1) columns;
    IEEE operations round the same in Python as in numpy, so each batched
    row is bitwise the single run.

    A sample, a check or the ``until`` test reads ``a = Re z / omega`` and
    ``b = s2 Im z + t2 base`` (``s2 Im z`` for a free run) as temporaries,
    so the carried state does not depend on the sampling stride; the
    pending kick is applied once after the loop.

    A power law can overflow on large finite states before the 128-step
    check sees a non-finite one, even on the initial state; that overflow is
    reported as the same BlowUpError, at the step and row the kick-by-kick
    loop reported: at step 0 when no step has completed, and from the state
    of the kick that overflowed.
    """
    dt = st.cfg.dt
    hdt = 0.5 * dt
    qdt = 0.25 * dt
    lh, kf = st.lh, st.kf
    zero_source = st.zero_source
    free = zero_source and not lh.any()

    # A run's scalars, as Python floats.  sa is the displacement part of
    # E_alpha, and bb = b.b, bg = b.base and gg = base.base describe the b
    # that a half kick starts from; the kick moves b to s b + t base.
    def row_step(sa, bb, bg, gg, ell_prev, dcum, kick=True):
        """(s2, t2, ell, dcum, c1, c2) of one run after a rotation: its
        second half kick (s2, t2) unless ``kick`` is false, the trapezoid
        step of D to the state that leaves, and the next step's first half
        kick fused with (s2, t2) into one (c1, c2).  A law call that
        overflows in D or in the next kick comes back as None, which the
        loop raises where the kick-by-kick loop raised it: at once for D,
        and at the next step, if the run reaches it, for the next kick."""
        # base = 0 (gg = 0) leaves every t unused, so it is not computed
        s2, t2 = 1.0, 0.0
        if kick:
            p = 1.0 - qdt * kf(sa + bb)
            mm = p * p * bb  # |bm|^2 of the midpoint bm = p b + qdt base
            if gg:
                # the expansion can round below zero, where a power law turns complex
                mm = max(mm + 2.0 * p * qdt * bg + qdt * qdt * gg, 0.0)
            km = kf(sa + mm)
            s2 = 1.0 - hdt * km * p
            if gg:
                t2 = hdt * (1.0 - qdt * km)
                bb, bg = (
                    max(s2 * s2 * bb + 2.0 * s2 * t2 * bg + t2 * t2 * gg, 0.0),
                    s2 * bg + t2 * gg,
                )
            else:
                bb = s2 * s2 * bb
        try:
            kv = kf(sa + bb)
        except OverflowError:
            return s2, t2, None, dcum, None, None
        ell = kv * bb
        dcum = dcum + hdt * (ell_prev + ell)
        p = 1.0 - qdt * kv
        mm = p * p * bb
        if gg:
            mm = max(mm + 2.0 * p * qdt * bg + qdt * qdt * gg, 0.0)
        try:
            km = kf(sa + mm)
        except OverflowError:
            return s2, t2, ell, dcum, None, None
        s = 1.0 - hdt * km * p
        return s2, t2, ell, dcum, s * s2, s * t2 + hdt * (1.0 - qdt * km) if gg else 0.0

    if a.ndim == 1:
        dot, col = _dot, float
        step = row_step
        zero, one = 0.0, 1.0
    else:
        # each row's scalars are lists of floats, mapped row by row; the
        # law's Python evaluator would be 1 ulp off a numpy form on some
        # arguments for powers, exp and expm1
        def dot(x, y):
            # one BLAS ddot per row, bitwise the float(x @ y) of a single run
            return np.vecdot(x, y).tolist()

        def col(x):
            return np.array(x)[:, None]

        c1_col, c2_col = np.zeros((2, len(a), 1))

        def step(*args):
            # row_step row by row; ell and c1 are None when any row's is,
            # and the fused kick (c1, c2) is written into two (B, 1)
            # columns, which the loop uses before the next step rewrites them
            s2, t2, ell, dcum, c1, c2 = zip(*map(row_step, *args))
            if None in ell:
                ell = None
            if None in c1:
                return s2, t2, ell, dcum, None, None
            c1_col[:, 0] = c1
            if not free:  # a free run's c2 multiplies base = 0 and is never applied
                c2_col[:, 0] = c2
            return s2, t2, ell, dcum, c1_col, c2_col

        zero, one = [0.0] * len(a), [1.0] * len(a)

    project = st.project
    if st.drive is not None:
        drive, project_rows = st.drive, project

        def project(a):
            return project_rows(a[drive])

    om = st.om
    rot = st.cos - 1j * st.sin
    w = st.mu2a / st.lam2  # sa = dot((Re z)^2, w)
    z = np.empty(a.shape, complex)
    zr, zi = z.real, z.imag
    zr[...], zi[...] = om * a, b
    base = lh if zero_source else lh - project(a)
    gg = dot(base, base)

    def pending(s2, t2, base):
        # b with the pending second half kick applied, as a temporary; a
        # free run leaves out t2 base = 0, which would turn -0.0 into 0.0
        return zi * col(s2) if free else col(s2) * zi + col(t2) * base

    # the last second half kick, pending: the state's b is s2 Im z + t2 base
    s2, t2 = one, zero
    n = -1  # the last completed step is n + 1

    try:
        sa = dot(zr * zr, w)
        bg = zero if free else dot(zi, base)
        # no second half kick before the first step (kick = 0.0)
        _, _, ell, _, c1, c2 = step(sa, dot(zi, zi), bg, gg, zero, zero, zero)
        if ell is None:
            raise OverflowError(_OVERFLOW)
        dcum = zero
        for n in range(n_steps):
            if n % stride == 0:
                rec.push(t0 + n * dt, zr / om, pending(s2, t2, base), col(dcum))
            if c1 is None:
                raise OverflowError(_OVERFLOW)
            # the pending second half kick and this step's first, fused
            zi *= c1
            if not free:
                zi += c2 * base
            s2, t2 = one, zero  # nothing pending, should the next law call overflow
            z *= rot
            # base serves this step's second half kick and the next step's first
            if not zero_source:
                base = lh - project(zr / om)
                gg = dot(base, base)
            sa = dot(zr * zr, w)
            bg = zero if free else dot(zi, base)
            s2, t2, ell, dcum, c1, c2 = step(sa, dot(zi, zi), bg, gg, ell, dcum)
            if ell is None:
                raise OverflowError(_OVERFLOW)
            if n % _CHECK_EVERY == _CHECK_EVERY - 1:
                _raise_unless_finite(
                    np.isfinite(np.add(ell, sa)), t0 + (n + 1) * dt, n + 1
                )
                # atleast_2d makes a single run a batch of one row
                if until is not None and all(
                    map(until, *np.atleast_2d(zr / om, pending(s2, t2, base)))
                ):
                    n_steps = n + 1
                    break
    except OverflowError as exc:
        a, b = zr / om, pending(s2, t2, base)
        row = None
        if a.ndim == 2:
            # name the row furthest out; argmax counts a NaN as furthest
            row = int(np.argmax(np.maximum(np.abs(a).max(1), np.abs(b).max(1))))
        raise BlowUpError(t0 + (n + 1) * dt, step=n + 1, row=row) from exc
    a, b = zr / om, pending(s2, t2, base)
    _raise_unless_finite(
        np.isfinite(a).all(-1) & np.isfinite(b).all(-1), t0 + n_steps * dt, n_steps
    )
    rec.push(t0 + n_steps * dt, a, b, col(dcum))


def _run_rk4(st, a, b, n_steps, stride, t0, rec, until=None):
    """Classical RK4 on the first-order system: one run, shape (N,), to its
    horizon; a batch or an ``until`` raises.

    Checks for blow-up every 128 steps and after the loop, as _run_strang
    does, and reports an overflow the same way.
    """
    if a.ndim != 1 or until is not None:
        raise InvalidConfigurationError("rk4 steps one run to its horizon: no batch, no until")
    dt = st.cfg.dt
    dcum = 0.0
    n = -1  # as in _run_strang, an overflow is reported at step n + 1
    try:
        ell_prev = st.dissipation_rate(a, b)
        for n in range(n_steps):
            if n % stride == 0:
                rec.push(t0 + n * dt, a, b, dcum)
            a, b = st.step_rk4(a, b)
            ell = st.dissipation_rate(a, b)
            dcum += 0.5 * dt * (ell_prev + ell)
            ell_prev = ell
            if n % _CHECK_EVERY == _CHECK_EVERY - 1:
                _raise_unless_finite(
                    np.isfinite(a).all() & np.isfinite(b).all(), t0 + (n + 1) * dt, n + 1
                )
    except OverflowError as exc:
        raise BlowUpError(t0 + (n + 1) * dt, step=n + 1) from exc
    _raise_unless_finite(
        np.isfinite(a).all() & np.isfinite(b).all(), t0 + n_steps * dt, n_steps
    )
    rec.push(t0 + n_steps * dt, a, b, dcum)


def _trajectory(model, source, forcing, k_lam, t, a, b, d):
    """One run's Trajectory from its recorded samples."""
    energy = total_energies(model, source, forcing.effective, a, b)
    return Trajectory(
        t=t,
        a=a,
        b=b,
        energy=energy,
        energy_mod=energy + k_lam,
        dissipation=d,
        phase=phase_norms(model, a, b),
        K_lambda=k_lam,
    )


def _advance(st, a, b, t0, until=None):
    """Run the configured scheme from (a, b) at t0; return the _Recorder."""
    cfg = st.cfg
    n_steps = cfg.n_steps
    stride = int(cfg.sample_stride)
    # one sample at each n < n_steps with n % stride == 0, plus the final one
    rec = _Recorder((n_steps - 1) // stride + 2, a.shape)

    # overflow inside the loop is exactly the blow-up condition, which the
    # loop detects and raises; the transient float warnings say nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        run = _run_strang if cfg.scheme == "strang" else _run_rk4
        run(st, a, b, n_steps, stride, t0, rec, until)
    # a run that ``until`` stopped fills fewer samples than were allocated
    n = rec.count
    rec.times, rec.amat, rec.bmat, rec.dvec = (
        x[:n] for x in (rec.times, rec.amat, rec.bmat, rec.dvec)
    )
    return rec


def _integrate_driven(model, source, damping, lh, drive, a, b, cfg):
    """Advance a Strang batch (B, N) from t = 0, row r forced by lh[r] and
    driven by the source projection of row drive[r]; return the _Recorder,
    with no energy post-processing and no coercivity check."""
    return _advance(_Stepper(model, source, damping, lh, cfg, drive), a, b, 0.0)


def _integrate_rows(model, source, damping, forcings, a, b, t0, cfg, constants, until):
    """Integrate from (a, b), one run (N,) or a batch (B, N) with one
    forcing per row, and return one Trajectory per run."""
    batched = a.ndim == 2
    lh = np.stack([f.effective for f in forcings]) if batched else forcings[0].effective
    st = _Stepper(model, source, damping, lh, cfg)
    if constants is None:
        constants = assumption_constants(source)
    k_lams = [coercivity_offset(model, constants, f)[1] for f in forcings]
    rec = _advance(st, a, b, t0, until)

    if not batched:
        rows = [(rec.times, rec.amat, rec.bmat, rec.dvec)]
    else:
        # contiguous per-run copies, so post-processing sees the same
        # memory layout (and so the same BLAS paths) as a single run
        rows = [
            (
                rec.times.copy(),
                rec.amat[:, r].copy(),
                rec.bmat[:, r].copy(),
                rec.dvec[:, r, 0].copy(),
            )
            for r in range(len(forcings))
        ]
    return [
        _trajectory(model, source, f, k_lam, *row)
        for f, k_lam, row in zip(forcings, k_lams, rows)
    ]


def integrate(model, source, damping, forcing, initial, cfg, constants=None, until=None):
    """Integrate over [t0, t0 + horizon] and record sampled series.

    States are recorded every ``sample_stride`` steps plus the final step;
    the dissipation integral is accumulated at every step regardless of the
    stride.  Raises :class:`BlowUpError` if the state leaves float range.
    The run ends early at the first 128-step blow-up check where
    ``until(a, b)``, if given, holds; an RK4 config takes no ``until``.
    """
    if initial.n_modes != model.n_modes:
        raise ValueError("initial state dimension does not match model")
    a, b = initial.a.copy(), initial.b.copy()
    t0 = float(initial.t)
    return _integrate_rows(
        model, source, damping, [forcing], a, b, t0, cfg, constants, until
    )[0]


def integrate_batch(
    model, source, damping, forcings, initials, cfg, constants=None, until=None
):
    """Integrate independent runs that share one law, one config and one
    start time; row i starts from ``initials[i]`` under ``forcings[i]``.

    All rows advance in one Strang loop, and every returned Trajectory is
    bitwise the one ``integrate`` returns for that row alone.  A batch with
    ``until`` ends when ``until`` holds for every row; an RK4 config raises.
    On blow-up, :class:`BlowUpError` names the first non-finite row in
    ``row``.
    """
    initials, forcings = list(initials), list(forcings)
    if len(forcings) != len(initials):
        raise ValueError(f"{len(forcings)} forcings for {len(initials)} initial states")
    if any(s.n_modes != model.n_modes for s in initials):
        raise ValueError("initial state dimension does not match model")
    if len({float(s.t) for s in initials}) > 1:
        raise ValueError("the initial states of one batch must share their start time")
    if not initials:
        return []
    a = np.stack([s.a for s in initials])
    b = np.stack([s.b for s in initials])
    t0 = float(initials[0].t)
    return _integrate_rows(
        model, source, damping, forcings, a, b, t0, cfg, constants, until
    )


def energy_identity_residual(traj):
    """max_i |E(t_i) + D(t_i) - E(t_0)| / max(|E(t_0)|, 1)."""
    e0 = float(traj.energy[0])
    drift = np.abs(traj.energy + traj.dissipation - e0)
    return float(np.max(drift) / max(abs(e0), 1.0))
