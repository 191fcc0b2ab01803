"""Sine eigenbasis of the hinged beam, its quadrature and phase norms.

On the interval (0, L) with hinged ends, the second-order operator and the
fourth-order operator share the eigenfunctions

    w_j(x) = sqrt(2/L) * sin(j*pi*x/L),   j = 1..N,

with eigenvalues mu_j = (j*pi/L)**2 and sigma_j = mu_j**2.  Every fractional
power therefore acts diagonally on coefficients, and the fourth-order
operator is exactly the square of the second-order one (the commutative
case).  Quadrature uses M uniform interior nodes x_m = m*L/(M+1) with weight
L/(M+1); on that grid the basis is discretely orthonormal for all modes up
to M, and a product of an even number of basis modes whose frequencies sum
to less than 2(M+1) is integrated exactly.  For a polynomial source f of
degree d, f(u) w_j and F(u) are such products of frequency at most (d+1)N,
so the default M is the exact size (d+1)N/2 (2N for the cubic), capped at
8N; any other source, or none, gets M = 8N.  This module alone holds the
rule: synthesis on the grid, projection, integrals over (0, L) and Gram
matrices all go through its helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigurationError, integral

__all__ = [
    "SpectralModel",
    "ModalState",
    "build_model",
    "synthesize",
    "phase_norm",
    "phase_norms",
]


@dataclass(frozen=True)
class SpectralModel:
    """Truncated hinged-beam eigenbasis with quadrature tables.

    Immutable after construction and safe to share across workers.
    ``basis_table[j, m]`` holds w_{j+1}(x_m).
    """

    n_modes: int
    length: float
    kappa: float
    quad_points: int
    mu: np.ndarray
    sigma: np.ndarray
    quad_nodes: np.ndarray
    quad_weight: float
    basis_table: np.ndarray

    @property
    def domain_measure(self) -> float:
        """|Omega| = L for the interval (0, L)."""
        return self.length


@dataclass(frozen=True)
class ModalState:
    """Displacement/velocity coefficient pair (a, b) at time t."""

    a: np.ndarray
    b: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
            raise ValueError("a and b must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("state coefficients must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n_modes(self) -> int:
        return self.a.shape[0]


def _default_quad_points(n_modes, source):
    # the exact size for a polynomial f (its degree d is odd, so d + 1 is
    # even), at most 8N; 8N for any other source
    degree = getattr(source, "degree", None)
    full = 8 * n_modes
    return full if degree is None else min((degree + 1) * n_modes // 2, full)


def build_model(n_modes, length, kappa=0.0, quad_points=None, source=None):
    """Build the truncated spectral model.

    ``quad_points`` defaults to the size the source law ``source`` needs: for
    a polynomial f of degree d (``source.degree``), (d+1)*n_modes/2, the
    fewest nodes that integrate f(u) w_j and F(u) exactly on the truncated
    space, capped at 8*n_modes; 8*n_modes for any other source or for none.
    An explicit ``quad_points`` wins.  Requires quad_points >= 2*n_modes.
    """
    n_modes = integral("n_modes", n_modes)
    if n_modes < 1:
        raise InvalidConfigurationError(f"n_modes must be >= 1, got {n_modes}")
    length = float(length)
    if not (length > 0.0 and math.isfinite(length)):
        raise InvalidConfigurationError(f"length must be positive, got {length}")
    kappa = float(kappa)
    if not 0.0 <= kappa < math.inf:
        raise InvalidConfigurationError(f"kappa must be >= 0 and finite, got {kappa}")
    if quad_points is None:
        quad_points = _default_quad_points(n_modes, source)
    quad_points = integral("quad_points", quad_points)
    if quad_points < 2 * n_modes:
        raise InvalidConfigurationError(
            f"quad_points = {quad_points} too small, need >= 2*n_modes = {2 * n_modes}"
        )

    j = np.arange(1, n_modes + 1, dtype=float)
    mu = (j * math.pi / length) ** 2
    sigma = mu**2
    m = np.arange(1, quad_points + 1, dtype=float)
    nodes = m * length / (quad_points + 1)
    weight = length / (quad_points + 1)
    # basis_table[j, m] = sqrt(2/L) sin((j+1) pi x_m / L)
    table = math.sqrt(2.0 / length) * np.sin(np.outer(j, nodes) * math.pi / length)
    mu.setflags(write=False)
    sigma.setflags(write=False)
    nodes.setflags(write=False)
    table.setflags(write=False)
    return SpectralModel(
        n_modes=n_modes,
        length=length,
        kappa=kappa,
        quad_points=quad_points,
        mu=mu,
        sigma=sigma,
        quad_nodes=nodes,
        quad_weight=weight,
        basis_table=table,
    )


def _check_coeffs(model, coeffs):
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (model.n_modes,):
        raise ValueError(
            f"expected {model.n_modes} coefficients, got shape {c.shape}"
        )
    return c


def synthesize(model, coeffs):
    """Evaluate the modal expansion on the quadrature grid."""
    return _synthesize(model, _check_coeffs(model, coeffs))


# The quadrature helpers take one row (N,) or a stack (..., N), unchecked.  A
# stack takes one matrix-vector product and one sum per row, so each row rounds
# as it would alone; one matrix product over the rows would round by position.


def _synthesize(model, a):
    # the grid values u(x_m) of each row
    return (a[..., None, :] @ model.basis_table)[..., 0, :]


def _quadrature(model, values):
    # the integral of each row of grid values
    return model.quad_weight * np.sum(values, axis=-1)


def _gram(model, values):
    # <g w_i, w_j> for one row g of grid values
    bt = model.basis_table
    return model.quad_weight * ((bt * values) @ bt.T)


def _project(model, f, a):
    # <f(u), w_j> of each row: synthesize, apply f on the grid, analyze; one
    # row synthesizes inline, as a single run projects at every step
    bt = model.basis_table
    if a.ndim == 1:
        return model.quad_weight * np.dot(bt, f(np.dot(a, bt)))
    return model.quad_weight * (bt @ f(_synthesize(model, a))[..., None])[..., 0]


def _weighted_squares(x, w):
    # sum_j w_j x_j**2 of each row, one (rows, N) temporary at a time
    sq = x * x
    sq *= w
    return np.sum(sq, axis=-1)


def phase_norm(model, state):
    """Finite-energy phase-space norm (sum sigma_j a_j^2 + sum b_j^2)**0.5."""
    a = _check_coeffs(model, state.a)
    b = _check_coeffs(model, state.b)
    return float(phase_norms(model, a, b))


def phase_norms(model, a, b):
    """Phase-space norm of each row of stacked coefficient arrays a, b.

    Each row is reduced on its own, so a row's norm is bitwise its
    ``phase_norm`` wherever the row sits; one matrix-vector product over
    the rows would round a row by its position in the stack.
    """
    return np.sqrt(_weighted_squares(a, model.sigma) + np.sum(b * b, axis=-1))
