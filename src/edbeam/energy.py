"""Closed-form decay envelope constants and rate fitting.

For a valid source (structural constant c_f below the first eigenvalue) the
modified energy Etilde = E + K_lambda is non-negative, non-increasing, and
squeezed between two explicit polynomial envelopes.  Every constant of those
envelopes is evaluated in closed form on the truncated spectral space, where
the embedding constant C_alpha is a finite maximum over modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigurationError
from .integrate import _mu2alpha, coercivity_offset
from .laws import K1Monomial

__all__ = [
    "EnvelopeParams",
    "envelope_constants",
    "decay_envelopes",
    "fit_power_rate",
    "fit_exp_rate",
    "FitResult",
]

FIT_MIN_POINTS = 10  # the fewest samples a rate fit takes


@dataclass(frozen=True)
class EnvelopeParams:
    """Closed-form constants of the two-sided polynomial decay envelope."""

    omega: float
    K_lambda: float
    C_alpha: float
    C_lower: float
    C_bar: float
    C_upper: float
    E0: float
    q: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.omega <= 1.0:
            raise InvalidConfigurationError(f"omega must be in (0, 1], got {self.omega}")
        if not self.C_lower <= self.C_upper:
            raise InvalidConfigurationError(
                f"envelope constants out of order: {self.C_lower} > {self.C_upper}"
            )
        for name in ("C_alpha", "C_lower", "C_bar", "C_upper"):
            if not getattr(self, name) > 0.0:
                raise InvalidConfigurationError(f"{name} must be positive")


def embedding_constant(model, alpha):
    """Smallest C with ||(u, v)||_{H_alpha}^2 <= C ||(u, v)||_H^2 on the truncation.

    Equals max(1, max_j mu_j**(2*alpha)/sigma_j); it is 1 whenever mu_1 >= 1,
    in particular for the default domain length pi.
    """
    return float(max(1.0, np.max(_mu2alpha(model, alpha) / model.sigma)))


def envelope_constants(q, gamma, alpha, model, source_constants, forcing, E0):
    """Evaluate every envelope constant in closed form.

    ``E0`` is the initial modified energy.  Raises when the source constant
    c_f reaches sigma_1 (the coercivity factor omega would vanish).
    """
    q = float(q)
    gamma = float(gamma)
    K1Monomial(gamma, q)  # the law's own checks: q >= 1/2, gamma > 0
    omega, k_lam = coercivity_offset(model, source_constants, forcing)
    sigma1 = float(model.sigma[0])
    c_alpha = embedding_constant(model, alpha)
    c_lower = omega**q / (2.0 ** (2.0 * q + 1.0) * c_alpha**q * gamma)
    c_bar = (
        3.0 / (2.0 * gamma ** (1.0 / (q + 1.0)))
        + 128.0 / (omega * sigma1 * gamma ** (1.0 / (q + 1.0)))
        + 2.0 ** (2.0 * q + 3.0)
        * gamma ** ((2.0 * q + 1.0) / (q + 1.0))
        * c_alpha ** (2.0 * q)
        / (omega ** (2.0 * q + 1.0) * sigma1)
        * E0 ** (2.0 * q)
    )
    c_upper = 2.0 ** (q + 1.0) * (
        2.0 ** ((2.0 * q + 1.0) / (q + 1.0)) * E0 ** (q / (q + 1.0)) + 4.0 * c_bar
    ) ** (q + 1.0)
    return EnvelopeParams(
        omega=omega,
        K_lambda=k_lam,
        C_alpha=c_alpha,
        C_lower=c_lower,
        C_bar=c_bar,
        C_upper=c_upper,
        E0=float(E0),
        q=q,
        gamma=gamma,
    )


def decay_envelopes(params, t):
    """Two-sided envelope at time t >= 0 (scalar or array).

    lower(t) = [q t / C_lower + E0^-q]^(-1/q)
    upper(t) = [q (t-1)^+ / C_upper + E0^-q]^(-1/q) + 8 K_lambda
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be >= 0")
    q = params.q
    e0q = params.E0 ** (-q)
    lower = (q * t / params.C_lower + e0q) ** (-1.0 / q)
    tplus = np.maximum(t - 1.0, 0.0)
    upper = (q * tplus / params.C_upper + e0q) ** (-1.0 / q) + 8.0 * params.K_lambda
    if lower.ndim == 0:
        return float(lower), float(upper)
    return lower, upper


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float

    @property
    def rate(self) -> float:
        """Decay rate of an exponential fit y = amplitude * exp(-rate t)."""
        return -self.slope

    @property
    def amplitude(self) -> float:
        return math.exp(self.intercept)


def _linear_fit(x, y):
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    yhat = A @ coef
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(coef[0]), float(coef[1]), r2


def _fit_window(series, window):
    sub = series.window(window[0], window[1])
    if len(sub) < FIT_MIN_POINTS:
        raise ValueError(f"need >= {FIT_MIN_POINTS} points in window, got {len(sub)}")
    if np.any(sub.y <= 0.0):
        raise ValueError("fit requires positive values in the window")
    return sub


def fit_power_rate(series, window):
    """Least-squares line on (ln t, ln y); slope is the power-law exponent."""
    sub = _fit_window(series, window)
    if np.any(sub.t <= 0.0):
        raise ValueError("power fit requires positive times")
    slope, intercept, r2 = _linear_fit(np.log(sub.t), np.log(sub.y))
    return FitResult(slope, intercept, r2)


def fit_exp_rate(series, window):
    """Least-squares line on (t, ln y); ``rate`` is the positive decay rate."""
    sub = _fit_window(series, window)
    slope, intercept, r2 = _linear_fit(sub.t, np.log(sub.y))
    return FitResult(slope, intercept, r2)
