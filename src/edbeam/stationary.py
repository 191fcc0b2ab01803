"""Stationary states by minimizing the variational functional.

Stationary solutions solve the elliptic system

    kappa A u + A_1 u + f(u) = lam * h,

which is the Euler-Lagrange equation of

    I(u) = 1/2 ||A_1^(1/2) u||^2 + kappa/2 ||A^(1/2) u||^2
           + ||u||_{d+2}^{d+2}/(d+2) - sig ||u||_{r+2}^{r+2}/(r+2) - (lam h, u).

The forcing potential -(lam h, u) extends the homogeneous functional so one
solver serves the whole forcing family.  For the double-power source with
0 < r < d the functional is coercive, so a descent method converges; the
solver runs Armijo-backtracked gradient descent to sqrt(tol) and then a
Newton polish (finite-difference Hessian products, conjugate-gradient inner
solve) to tol.  The reported residual is the final gradient norm, which is
exactly the modal residual of the elliptic system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigurationError
from .laws import DoublePower, ZeroSource, project_source
from .spectral import synthesize

__all__ = [
    "StationaryResult",
    "BoundCheck",
    "euler_lagrange_value",
    "el_gradient",
    "minimize_functional",
    "multi_start",
    "stationary_bound_check",
]


@dataclass(frozen=True)
class StationaryResult:
    coeffs: np.ndarray
    functional_value: float
    residual: float
    iterations: int
    converged: bool


def euler_lagrange_value(model, source, forcing, coeffs):
    """Value of the variational functional at the given modal coefficients."""
    c = np.asarray(coeffs, dtype=float)
    quad = 0.5 * float(np.sum((model.sigma + model.kappa * model.mu) * c**2))
    value = quad - float(forcing.effective @ c)
    if isinstance(source, ZeroSource):
        return value
    if not isinstance(source, DoublePower):
        raise InvalidConfigurationError(
            f"unsupported source law {type(source).__name__}"
        )
    u = synthesize(model, c)
    w = model.quad_weight
    ab = np.abs(u)
    value += w * float(np.sum(ab ** (source.delta + 2.0))) / (source.delta + 2.0)
    value -= (
        source.sigma_c * w * float(np.sum(ab ** (source.r + 2.0))) / (source.r + 2.0)
    )
    return value


def el_gradient(model, source, forcing, coeffs):
    """Modal gradient: (sigma_j + kappa mu_j) c_j + <f(u), w_j> - lam h_j."""
    c = np.asarray(coeffs, dtype=float)
    return (
        (model.sigma + model.kappa * model.mu) * c
        + project_source(model, source, c)
        - forcing.effective
    )


def _cg(hess_vec, rhs, tol, max_iter):
    """Conjugate gradients for the Newton system; truncates on negative
    curvature and returns the best iterate so far."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = float(r @ r)
    if math.sqrt(rs) <= tol:
        return x
    for _ in range(max_iter):
        hp = hess_vec(p)
        curv = float(p @ hp)
        if curv <= 1e-14 * float(p @ p):
            return x if np.any(x) else rhs
        alpha = rs / curv
        x = x + alpha * p
        r = r - alpha * hp
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= tol:
            return x
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def minimize_functional(model, source, forcing, start, tol=1e-8, max_iter=10000):
    """Descend the functional from ``start`` until the gradient norm <= tol.

    Phase 1 is gradient descent with an Armijo backtracking line search down
    to sqrt(tol); phase 2 polishes with inexact Newton steps.  The returned
    ``residual`` is the final gradient norm; ``converged`` is False when the
    iteration budget runs out, in which case the best iterate is returned.
    A source law other than zero or double power is rejected by the first
    functional evaluation.
    """
    c = np.asarray(start, dtype=float).copy()
    if c.shape != (model.n_modes,):
        raise ValueError(f"start must have {model.n_modes} coefficients")

    value = euler_lagrange_value(model, source, forcing, c)
    grad = el_gradient(model, source, forcing, c)
    gnorm = float(np.linalg.norm(grad))
    iters = 0
    step_size = 1.0 / max(1.0, float(model.sigma[-1]))
    coarse_tol = math.sqrt(tol)
    # The stiff linear part makes plain descent crawl, so phase 1 only
    # globalizes; the Newton polish does the real convergence work.
    phase1_budget = min(max_iter // 2, 200)

    # Phase 1: Armijo gradient descent.
    while gnorm > coarse_tol and iters < phase1_budget:
        step_size *= 2.0
        while True:
            trial = c - step_size * grad
            trial_value = euler_lagrange_value(model, source, forcing, trial)
            if trial_value <= value - 1e-4 * step_size * gnorm**2:
                break
            step_size *= 0.5
            if step_size < 1e-18:
                break
        if step_size < 1e-18:
            break
        c, value = trial, trial_value
        grad = el_gradient(model, source, forcing, c)
        gnorm = float(np.linalg.norm(grad))
        iters += 1

    # Phase 2: Newton polish with finite-difference Hessian products.
    def hess_vec(v):
        vn = float(np.linalg.norm(v))
        if vn == 0.0:
            return np.zeros_like(v)
        eps = 1e-7 * (1.0 + float(np.linalg.norm(c))) / vn
        gp = el_gradient(model, source, forcing, c + eps * v)
        gm = el_gradient(model, source, forcing, c - eps * v)
        return (gp - gm) / (2.0 * eps)

    # Near the optimum the predicted Armijo decrease falls below the float
    # resolution of the value, so the test carries a rounding allowance and
    # a stagnation guard ends the loop once progress stops.
    value_ulp = 4.0 * np.finfo(float).eps * max(1.0, abs(value))
    stall = 0
    while gnorm > tol and iters < max_iter:
        direction = _cg(hess_vec, -grad, tol=0.1 * gnorm, max_iter=2 * model.n_modes)
        if float(direction @ grad) >= 0.0:
            direction = -grad
        t = 1.0
        slope = float(grad @ direction)
        accepted = False
        for _ in range(60):
            trial = c + t * direction
            trial_value = euler_lagrange_value(model, source, forcing, trial)
            if trial_value <= value + 1e-4 * t * slope + value_ulp:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        new_grad = el_gradient(model, source, forcing, trial)
        new_gnorm = float(np.linalg.norm(new_grad))
        if new_gnorm >= 0.9 * gnorm and trial_value >= value - value_ulp:
            stall += 1
        else:
            stall = 0
        if new_gnorm < gnorm or trial_value < value:
            c, value, grad, gnorm = trial, trial_value, new_grad, new_gnorm
            value_ulp = 4.0 * np.finfo(float).eps * max(1.0, abs(value))
        iters += 1
        if stall >= 5:
            break

    return StationaryResult(
        coeffs=c,
        functional_value=value,
        residual=gnorm,
        iterations=iters,
        converged=gnorm <= tol,
    )


def multi_start(model, source, forcing, starts, tol=1e-8, max_iter=10000):
    """Minimize from each start and de-duplicate the converged endpoints.

    Branches are independent; endpoints closer than 1e-4 in phase norm are
    merged, keeping the one with the lower functional value.
    """
    results = []
    for s in starts:
        res = minimize_functional(model, source, forcing, s, tol, max_iter)
        merged = False
        for i, other in enumerate(results):
            diff = res.coeffs - other.coeffs
            dist = math.sqrt(float(np.sum(model.sigma * diff**2)))
            if dist <= 1e-4:
                if res.functional_value < other.functional_value:
                    results[i] = res
                merged = True
                break
        if not merged:
            results.append(res)
    return results


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    ok: bool


def stationary_bound_check(model, source_constants, forcing, result):
    """A-priori bound every stationary solution obeys.

    lhs = omega/2 ||A_1^(1/2) u||^2 + kappa ||A^(1/2) u||^2,
    rhs = C_f |Omega| + 2 ||lam h||^2 / (sigma_1 omega).

    The inequality is only informative when the coercivity factor
    omega = 1 - c_f/sigma_1 is positive; the formulas are evaluated as
    stated either way.
    """
    c = result.coeffs
    sigma1 = float(model.sigma[0])
    omega = 1.0 - source_constants.c_f / sigma1
    lhs = 0.5 * omega * float(np.sum(model.sigma * c**2)) + model.kappa * float(
        np.sum(model.mu * c**2)
    )
    force_term = forcing.effective_norm**2
    if force_term == 0.0:
        rhs = source_constants.C_f * model.domain_measure
    else:
        rhs = source_constants.C_f * model.domain_measure + 2.0 * force_term / (
            sigma1 * omega
        )
    return BoundCheck(lhs=lhs, rhs=rhs, ok=lhs <= rhs + 1e-9)
