"""Constitutive closures: damping coefficient families, sources, forcing.

Three damping families are implemented.  The first is the monomial
k(s) = gamma*s**q (degenerate at 0), the second collects strictly positive
C1 coefficients, and the third vanishes identically on [0, 1] and increases
for s > 1.  Sources are the double-power family f(s) = |s|^d s - sig |s|^r s
with closed-form primitive; the forcing is a fixed modal profile scaled by
an intensity in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigurationError
from .spectral import _check_coeffs, _project

__all__ = [
    "DampingLaw",
    "K1Monomial",
    "K2Constant",
    "K2ExpDecay",
    "K2Rational",
    "K3Rational",
    "K3ShiftedExp",
    "SourceLaw",
    "ZeroSource",
    "DoublePower",
    "Forcing",
    "AssumptionConstants",
    "project_source",
    "assumption_constants",
]


class DampingLaw:
    """Base class; subclasses store ``gamma`` > 0 and implement ``scalar_k``,
    the law's one formula, on Python floats."""

    def __post_init__(self):
        if not 0.0 < self.gamma < math.inf:
            raise InvalidConfigurationError(f"gamma must be > 0 and finite, got {self.gamma}")

    def scalar_k(self):
        """Unchecked scalar evaluator s -> k(s), s >= 0, for integrator hot loops;
        a power law whose value leaves float range raises OverflowError."""
        raise NotImplementedError


@dataclass(frozen=True)
class K1Monomial(DampingLaw):
    """k(s) = gamma * s**q; vanishes exactly at s = 0."""

    gamma: float
    q: float

    def __post_init__(self):
        super().__post_init__()
        if not 0.5 <= self.q < math.inf:
            raise InvalidConfigurationError(f"q >= 1/2 and finite required, got {self.q}")

    def scalar_k(self):
        g, q = self.gamma, self.q
        return lambda s: g * s**q


@dataclass(frozen=True)
class K2Constant(DampingLaw):
    """k(s) = gamma."""

    gamma: float

    def scalar_k(self):
        g = self.gamma
        return lambda s: g


@dataclass(frozen=True)
class K2ExpDecay(DampingLaw):
    """k(s) = gamma * exp(-s); positive and C1 on [0, inf)."""

    gamma: float

    def scalar_k(self):
        g = self.gamma
        return lambda s: g * math.exp(-s)


@dataclass(frozen=True)
class K2Rational(DampingLaw):
    """k(s) = gamma / (1 + s)."""

    gamma: float

    def scalar_k(self):
        g = self.gamma
        return lambda s: g / (1.0 + s)


@dataclass(frozen=True)
class K3Rational(DampingLaw):
    """k = 0 on [0, 1], gamma*(1 - 1/s) for s > 1; continuous at the kink."""

    gamma: float

    def scalar_k(self):
        g = self.gamma
        return lambda s: g * (1.0 - 1.0 / s) if s > 1.0 else 0.0


@dataclass(frozen=True)
class K3ShiftedExp(DampingLaw):
    """k = 0 on [0, 1], gamma*(1 - exp(-(s-1))) for s > 1.

    The exponent is shifted so the law is continuous (hence Lipschitz) at
    s = 1, which the threshold family requires.
    """

    gamma: float

    def scalar_k(self):
        g = self.gamma
        return lambda s: g * -math.expm1(-(s - 1.0)) if s > 1.0 else 0.0


class SourceLaw:
    """Base class for source nonlinearities.

    ``degree`` is the degree of f when f is a polynomial, else None; the
    default quadrature of ``spectral.build_model`` is sized by it.
    """

    degree = None

    def f(self, s):
        raise NotImplementedError

    def f_primitive(self, s):
        raise NotImplementedError

    def f_derivative(self, s):
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroSource(SourceLaw):
    """No source: f = 0."""

    # exp_two_trajectory's L^(p+2) norm uses p = 2 for f = 0
    p = 2.0

    def f(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        return float(out) if out.ndim == 0 else out

    def f_primitive(self, s):
        return self.f(s)

    def f_derivative(self, s):
        return self.f(s)


@dataclass(frozen=True)
class DoublePower(SourceLaw):
    """f(s) = |s|**delta * s - sigma_c * |s|**r * s with 0 < r < delta.

    The primitive F(s) = |s|**(delta+2)/(delta+2) - sigma_c*|s|**(r+2)/(r+2)
    satisfies F(0) = 0 and F' = f.  The growth exponent of f' is delta.
    """

    delta: float
    r: float
    sigma_c: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.r < self.delta < math.inf:
            raise InvalidConfigurationError(
                f"need 0 < r < delta < inf, got r={self.r}, delta={self.delta}"
            )
        if not 0.0 <= self.sigma_c < math.inf:
            raise InvalidConfigurationError(
                f"sigma_c must be >= 0 and finite, got {self.sigma_c}"
            )

    @property
    def p(self) -> float:
        """Growth exponent of the derivative bound."""
        return self.delta

    @property
    def degree(self):
        """delta + 1 when f is a polynomial (delta an even integer, and
        sigma_c = 0 or r an even integer), else None."""
        if self.delta % 2 == 0 and (self.sigma_c == 0.0 or self.r % 2 == 0):
            return int(self.delta) + 1
        return None

    def f(self, s):
        s = np.asarray(s, dtype=float)
        ab = np.abs(s)
        out = ab**self.delta * s - self.sigma_c * ab**self.r * s
        return float(out) if out.ndim == 0 else out

    def f_primitive(self, s):
        s = np.asarray(s, dtype=float)
        ab = np.abs(s)
        out = ab ** (self.delta + 2.0) / (self.delta + 2.0) - self.sigma_c * ab ** (
            self.r + 2.0
        ) / (self.r + 2.0)
        return float(out) if out.ndim == 0 else out

    def f_derivative(self, s):
        s = np.asarray(s, dtype=float)
        ab = np.abs(s)
        out = (self.delta + 1.0) * ab**self.delta - self.sigma_c * (
            self.r + 1.0
        ) * ab**self.r
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Forcing:
    """External force: intensity lam in [0, 1] times a fixed modal profile."""

    lam: float
    h_coeffs: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise InvalidConfigurationError(f"lambda = {self.lam}: lambda in [0, 1] required")
        h = np.asarray(self.h_coeffs, dtype=float)
        if h.ndim != 1:
            raise InvalidConfigurationError("h_coeffs must be a 1-d array")
        if not np.all(np.isfinite(h)):
            raise InvalidConfigurationError("h_coeffs must be finite")
        object.__setattr__(self, "h_coeffs", h)

    @property
    def effective(self) -> np.ndarray:
        """Modal coefficients of the applied force lam * h."""
        return self.lam * self.h_coeffs

    @property
    def h_norm(self) -> float:
        """L2 norm of the profile h (Parseval on the orthonormal basis)."""
        return float(np.linalg.norm(self.h_coeffs))

    @property
    def effective_norm(self) -> float:
        return self.lam * self.h_norm

    @staticmethod
    def zero(n_modes: int) -> "Forcing":
        return Forcing(0.0, np.zeros(n_modes))

    @staticmethod
    def single_mode(n_modes: int, mode: int, amplitude: float, lam: float = 1.0) -> "Forcing":
        if not 1 <= mode <= n_modes:
            raise InvalidConfigurationError(
                f"forcing mode {mode} outside 1..{n_modes}"
            )
        h = np.zeros(n_modes)
        h[mode - 1] = amplitude
        return Forcing(lam, h)


def project_source(model, law, a):
    """Galerkin projection of f(u): g_j = quad_weight * sum_m f(u(x_m)) w_j(x_m)."""
    a = _check_coeffs(model, a)
    if isinstance(law, ZeroSource):
        return np.zeros(model.n_modes)
    return _project(model, law.f, a)


@dataclass(frozen=True)
class AssumptionConstants:
    """Sampled structural constants of the source law.

    ``c_f`` is the smallest sampled constant closing the upper primitive
    inequality F(u) <= f(u)u + c_f/2 |u|^2; ``C_f`` then closes the lower
    one -C_f - c_f/2 |u|^2 <= F(u); ``C_fprime`` bounds |f'| against
    1 + |u|**p.  ``coercivity_offset`` raises when c_f >= sigma_1.
    """

    C_fprime: float
    c_f: float
    C_f: float


def assumption_constants(law, sample_range=10.0, samples=20001, model=None):
    """Scan [-R, R], R = ``sample_range``, for the smallest constants
    satisfying both inequalities.

    The scan is a sampled feasibility search, not a symbolic proof; the
    scanned constants are exact for the zero source and for the pure-power
    source (sigma_c = 0), where both inequalities hold with c_f = C_f = 0.
    ``model`` is unused; the bench's kernel sweep still passes it.
    """
    r_max = float(sample_range)
    if not r_max > 0.0:
        raise ValueError("sample_range must be positive")

    if isinstance(law, ZeroSource):
        c_f, big_c, c_fp = 0.0, 0.0, 0.0
    elif isinstance(law, DoublePower):
        u = np.linspace(-r_max, r_max, int(samples))
        u = u[u != 0.0]
        fu = law.f(u)
        fhat = law.f_primitive(u)
        # Lower inequality, closed without help from the quadratic term, so
        # the returned C_f is valid together with any admissible c_f:
        # C_f = -min F over the range.
        big_c = float(max(0.0, -np.min(fhat)))
        if not math.isfinite(big_c):
            raise ValueError(
                "lower primitive inequality unsatisfiable on range: "
                f"diverges near u = {u[int(np.argmin(fhat))]:.6g}"
            )
        # Upper inequality: F - f*u <= c_f/2 u^2 pins the smallest c_f.
        gap_upper = 2.0 * (fhat - fu * u) / u**2
        c_f = float(max(0.0, np.max(gap_upper)))
        if not math.isfinite(c_f):
            raise ValueError(
                "upper primitive inequality unsatisfiable on range: "
                f"diverges near u = {u[int(np.argmax(gap_upper))]:.6g}"
            )
        c_fp = float(np.max(np.abs(law.f_derivative(u)) / (1.0 + np.abs(u) ** law.p)))
    else:
        raise InvalidConfigurationError(f"unsupported source law {type(law).__name__}")

    return AssumptionConstants(C_fprime=c_fp, c_f=c_f, C_f=big_c)
