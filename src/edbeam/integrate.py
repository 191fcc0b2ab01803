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
the first-order system is available for cross-checks, guarded by the usual
dt * omega_max <= 2.8 stability bound.

The dissipation integral D(t) = int k(E_alpha) ||u_t||^2 is accumulated by
the trapezoid rule at every micro step, independent of the sampling stride,
so the energy-identity residual E(t) + D(t) - E(0) reflects scheme error
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BlowUpError, InvalidConfigurationError
from .laws import ZeroSource, assumption_constants
from .series import write_csv
from .spectral import ModalState, phase_norms

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "ConvergenceResult",
    "step",
    "integrate",
    "energy_identity_residual",
    "convergence_order",
    "coercivity_offset",
    "RK4_STABILITY_LIMIT",
]

RK4_STABILITY_LIMIT = 2.8

_SCHEMES = ("strang", "rk4")


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    horizon: float
    scheme: str = "strang"
    alpha: float = 1.0
    sample_stride: int = 1

    def __post_init__(self):
        if not self.dt > 0.0:
            raise InvalidConfigurationError(f"dt must be > 0, got {self.dt}")
        if not self.horizon > 0.0:
            raise InvalidConfigurationError(f"horizon must be > 0, got {self.horizon}")
        if self.scheme not in _SCHEMES:
            raise InvalidConfigurationError(
                f"scheme must be one of {_SCHEMES}, got {self.scheme!r}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidConfigurationError(f"alpha must be in [0, 1], got {self.alpha}")
        if int(self.sample_stride) < 1:
            raise InvalidConfigurationError("sample_stride must be >= 1")
        if abs(round(self.horizon / self.dt) * self.dt - self.horizon) > 1e-9 * self.horizon:
            raise InvalidConfigurationError(
                f"dt = {self.dt} does not divide the horizon {self.horizon}"
            )


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
    alpha: float
    K_lambda: float

    @property
    def n_samples(self) -> int:
        return self.t.shape[0]

    @property
    def n_modes(self) -> int:
        return self.a.shape[1]

    def state(self, i) -> ModalState:
        return ModalState(self.a[i].copy(), self.b[i].copy(), float(self.t[i]))

    @property
    def final_state(self) -> ModalState:
        return self.state(-1)

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


def _source_integral(model, source, a):
    if isinstance(source, ZeroSource):
        return 0.0
    u = a @ model.basis_table
    return float(model.quad_weight * np.sum(source.f_primitive(u)))


def total_energy(model, source, forcing, a, b):
    """E = kinetic + bending + membrane + source integral - forcing work."""
    quad = 0.5 * (
        float(b @ b)
        + float(np.sum(model.sigma * a**2))
        + model.kappa * float(np.sum(model.mu * a**2))
    )
    work = float(forcing.effective @ a)
    return quad + _source_integral(model, source, a) - work


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
    """Precomputed tables shared by every step of one integration."""

    def __init__(self, model, source, damping, forcing, cfg):
        self.model = model
        self.source = source
        self.damping = damping
        self.cfg = cfg
        self.zero_source = isinstance(source, ZeroSource)
        self.mu2a = _mu2alpha(model, cfg.alpha)
        self.lam2 = model.sigma + model.kappa * model.mu
        self.lh = forcing.effective.copy()
        om = np.sqrt(self.lam2)
        self.omega_max = float(om[-1])
        self.cos = np.cos(om * cfg.dt)
        self.sin_over = np.sin(om * cfg.dt) / om
        self.omsin = om * np.sin(om * cfg.dt)
        if cfg.scheme == "rk4" and cfg.dt * self.omega_max > RK4_STABILITY_LIMIT:
            raise InvalidConfigurationError(
                f"rk4 unstable: dt*omega_max = {cfg.dt * self.omega_max:.3g} "
                f"> {RK4_STABILITY_LIMIT}"
            )

    def project(self, a):
        if self.zero_source:
            return None
        m = self.model
        return m.quad_weight * (m.basis_table @ self.source.f(a @ m.basis_table))

    def dissipation_rate(self, a, b):
        """k(E_alpha(a, b)) * ||b||^2, the integrand of D."""
        bb = float(b @ b)
        e = float(self.mu2a @ (a * a)) + bb
        return self.damping.k(e) * bb

    def _rhs(self, a, b):
        fv = self.project(a)
        acc = -self.lam2 * a + self.lh
        if fv is not None:
            acc = acc - fv
        e = float(self.mu2a @ (a * a)) + float(b @ b)
        acc = acc - self.damping.k(e) * b
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
    """Fills preallocated sample arrays row by row."""

    __slots__ = ("times", "amat", "bmat", "dvec", "count")

    def __init__(self, times, amat, bmat, dvec):
        self.times = times
        self.amat = amat
        self.bmat = bmat
        self.dvec = dvec
        self.count = 0

    def push(self, t, a, b, dcum):
        i = self.count
        self.times[i] = t
        self.amat[i] = a
        self.bmat[i] = b
        self.dvec[i] = dcum
        self.count = i + 1


def _run_strang(st, a, b, n_steps, stride, t0, rec):
    """The Strang splitting loop: half kick, exact rotation, half kick.

    a is frozen through each kick, so its source projection and the
    displacement part of E_alpha are evaluated once per kick; each kick is
    one explicit-midpoint sub-evaluation of the nonlocal damping.  Caches
    the scalar pieces of the damping argument across substeps and checks
    for blow-up in batches to keep the per-step cost down.
    """
    dt = st.cfg.dt
    hdt = 0.5 * dt
    qdt = 0.25 * dt
    cos, sin_over, omsin = st.cos, st.sin_over, st.omsin
    mu2a, lh = st.mu2a, st.lh
    kf = st.damping.scalar_k()
    zero_source = st.zero_source
    project = st.project

    sa = float(mu2a @ (a * a))
    bb = float(b @ b)
    kv = kf(sa + bb)
    ell_prev = kv * bb
    dcum = 0.0
    check_every = 128

    for n in range(n_steps):
        if n % stride == 0:
            rec.push(t0 + n * dt, a, b, dcum)
        # first half kick (a frozen; sa, kv valid for the incoming state)
        base = lh if zero_source else lh - project(a)
        bm = b + qdt * (base - kv * b)
        b = b + hdt * (base - kf(sa + float(bm @ bm)) * bm)
        # exact rotation over dt
        a, b = cos * a + sin_over * b, omsin * (-a) + cos * b
        # second half kick
        base = lh if zero_source else lh - project(a)
        sa = float(mu2a @ (a * a))
        bb = float(b @ b)
        g0 = base - kf(sa + bb) * b
        bm = b + qdt * g0
        b = b + hdt * (base - kf(sa + float(bm @ bm)) * bm)
        # trapezoid dissipation increment to the new state
        bb = float(b @ b)
        kv = kf(sa + bb)
        ell = kv * bb
        dcum += hdt * (ell_prev + ell)
        ell_prev = ell
        if n % check_every == check_every - 1 and not math.isfinite(ell + sa):
            raise BlowUpError(t0 + (n + 1) * dt)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise BlowUpError(t0 + n_steps * dt)
    rec.push(t0 + n_steps * dt, a, b, dcum)


def step(model, source, damping, forcing, state, cfg):
    """Advance one step of the selected scheme; pure and re-entrant."""
    st = _Stepper(model, source, damping, forcing, cfg)
    t = state.t + cfg.dt
    if cfg.scheme == "strang":
        n = state.n_modes
        rec = _Recorder(np.empty(2), np.empty((2, n)), np.empty((2, n)), np.empty(2))
        _run_strang(st, state.a, state.b, 1, 1, state.t, rec)
        return ModalState(rec.amat[1], rec.bmat[1], t)
    a, b = st.step_rk4(state.a, state.b)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise BlowUpError(t)
    return ModalState(a, b, t)


def integrate(model, source, damping, forcing, initial, cfg, constants=None):
    """Integrate over [t0, t0 + horizon] and record sampled series.

    States are recorded every ``sample_stride`` steps plus the final step;
    the dissipation integral is accumulated at every step regardless of the
    stride.  Raises :class:`BlowUpError` if the state leaves float range.
    """
    if initial.n_modes != model.n_modes:
        raise ValueError("initial state dimension does not match model")
    st = _Stepper(model, source, damping, forcing, cfg)
    if constants is None:
        constants = assumption_constants(source)
    _, k_lam = coercivity_offset(model, constants, forcing)

    n_steps = int(round(cfg.horizon / cfg.dt))
    stride = int(cfg.sample_stride)
    t0 = float(initial.t)
    dt = cfg.dt

    a = initial.a.copy()
    b = initial.b.copy()

    # one sample at each n < n_steps with n % stride == 0, plus the final one
    n_rec = (n_steps - 1) // stride + 2
    times = np.empty(n_rec)
    amat = np.empty((n_rec, model.n_modes))
    bmat = np.empty((n_rec, model.n_modes))
    dvec = np.empty(n_rec)
    rec = _Recorder(times, amat, bmat, dvec)

    # overflow inside the loop is exactly the blow-up condition, which the
    # loop detects and raises; the transient float warnings say nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.scheme == "strang":
            _run_strang(st, a, b, n_steps, stride, t0, rec)
        else:
            dcum = 0.0
            ell_prev = st.dissipation_rate(a, b)
            for n in range(n_steps):
                if n % stride == 0:
                    rec.push(t0 + n * dt, a, b, dcum)
                a, b = st.step_rk4(a, b)
                if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
                    raise BlowUpError(t0 + (n + 1) * dt)
                ell = st.dissipation_rate(a, b)
                dcum += 0.5 * dt * (ell_prev + ell)
                ell_prev = ell
            rec.push(t0 + n_steps * dt, a, b, dcum)

    energy = np.array(
        [total_energy(model, source, forcing, amat[i], bmat[i]) for i in range(n_rec)]
    )
    phase = phase_norms(model, amat, bmat)
    return Trajectory(
        t=times,
        a=amat,
        b=bmat,
        energy=energy,
        energy_mod=energy + k_lam,
        dissipation=dvec,
        phase=phase,
        alpha=cfg.alpha,
        K_lambda=k_lam,
    )


def energy_identity_residual(traj):
    """max_i |E(t_i) + D(t_i) - E(t_0)| / max(|E(t_0)|, 1)."""
    e0 = float(traj.energy[0])
    drift = np.abs(traj.energy + traj.dissipation - e0)
    return float(np.max(drift) / max(abs(e0), 1.0))


@dataclass(frozen=True)
class ConvergenceResult:
    order: float | None
    dts: tuple
    errors: tuple
    diagnostic: str | None = None


def convergence_order(model, source, damping, forcing, initial, cfg, dt_list):
    """Fit the convergence order against the finest run in ``dt_list``.

    Requires at least three step sizes in geometric progression.  Errors at
    rounding level yield the ``inf`` sentinel; non-monotone errors yield a
    diagnostic instead of a fit.
    """
    dts = sorted(float(d) for d in dt_list)[::-1]
    if len(dts) < 3:
        raise ValueError("need at least 3 step sizes")
    ratios = [dts[i] / dts[i + 1] for i in range(len(dts) - 1)]
    if any(abs(r - ratios[0]) > 1e-9 * ratios[0] for r in ratios):
        raise ValueError("step sizes must form a geometric progression")
    # every config is built (and so checked) before any run starts
    run_cfgs = [
        replace(cfg, dt=d, sample_stride=max(1, int(round(cfg.horizon / d))))
        for d in dts
    ]

    finals = []
    for run_cfg in run_cfgs:
        traj = integrate(model, source, damping, forcing, initial, run_cfg)
        finals.append(np.concatenate([traj.a[-1], traj.b[-1]]))

    weights = np.concatenate([model.sigma, np.ones(model.n_modes)])
    ref = finals[-1]
    scale = max(1.0, math.sqrt(float(weights @ ref**2)))
    errors = [
        math.sqrt(float(weights @ (f - ref) ** 2)) / scale for f in finals[:-1]
    ]

    if max(errors) <= 1e-12:
        return ConvergenceResult(math.inf, tuple(dts), tuple(errors))
    if any(errors[i] <= errors[i + 1] for i in range(len(errors) - 1)):
        return ConvergenceResult(
            None,
            tuple(dts),
            tuple(errors),
            diagnostic="errors not monotone in dt; no reliable fit "
            f"(errors = {errors})",
        )
    orders = [
        math.log(errors[i] / errors[i + 1]) / math.log(dts[i] / dts[i + 1])
        for i in range(len(errors) - 1)
    ]
    return ConvergenceResult(float(np.mean(orders)), tuple(dts), tuple(errors))
