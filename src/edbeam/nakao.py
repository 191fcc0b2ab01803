"""Window-inequality toolkit: generalized discrete decay lemma, power bound.

The decay lemma converts a per-window bound

    sup_{t <= s <= t+1} phi(s)^(1+rho) <= C0 (phi(t) - phi(t+1)) + K(t)

into an explicit polynomial (rho > 0) or geometric (rho = 0) envelope for
phi.  Everything here is grid-based: suprema become maxima over sample
points, and the grid spacing must divide 1 so that window endpoints are
themselves grid points and the hypothesis/conclusion are decidable.

The power-difference bound states

    | ||u||^r - ||v||^r | <= r max(||u||, ||v||)^(r-1) ||u - v||

for r >= 1 in any normed space; it is checked here with Euclidean norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import SampledSeries

__all__ = [
    "NakaoProblem",
    "NakaoVerdict",
    "HarauxResult",
    "nakao_hypothesis_residual",
    "nakao_bound",
    "nakao_verify",
    "haraux_check",
    "random_nakao_problem",
    "minimal_C0",
]

CONCLUSION_TOL = 1e-12


@dataclass(frozen=True)
class NakaoProblem:
    """Sampled decay-lemma instance on a uniform unit-commensurate grid."""

    phi: SampledSeries
    C0: float
    rho: float
    K: SampledSeries

    def __post_init__(self):
        if not self.C0 > 0.0:
            raise ValueError(f"C0 must be > 0, got {self.C0}")
        if self.rho < 0.0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")
        t = self.phi.t
        if abs(t[0]) > 1e-12:
            raise ValueError("grid must start at t = 0")
        if self.K.t.shape != t.shape or np.max(np.abs(self.K.t - t)) > 1e-12:
            raise ValueError("phi and K must share one grid")
        if np.any(self.phi.y < 0.0) or np.any(self.K.y < 0.0):
            raise ValueError("phi and K must be non-negative")
        if np.any(np.diff(self.K.y) < -1e-15):
            raise ValueError("K must be non-decreasing")
        dt = np.diff(t)
        if np.max(np.abs(dt - dt[0])) > 1e-12:
            raise ValueError("grid must be uniform")
        m = round(1.0 / dt[0])
        if m < 1 or abs(m * dt[0] - 1.0) > 1e-9:
            raise ValueError(f"grid spacing {dt[0]} must divide 1")
        object.__setattr__(self, "_steps_per_unit", int(m))

    @property
    def steps_per_unit(self) -> int:
        return self._steps_per_unit

    @property
    def horizon(self) -> float:
        return float(self.phi.t[-1] - self.phi.t[0])


@dataclass(frozen=True)
class NakaoVerdict:
    hypothesis_ok: bool
    worst_hypothesis_residual: float
    conclusion_ok: bool
    worst_conclusion_margin: float
    degenerate_sup: bool = False


def _windows(phi, m, rho):
    """(sup phi^(1+rho), phi(t) - phi(t+1)) over each unit window of m + 1
    samples, [i, i+m]."""
    n = len(phi) - m
    if n < 1:
        raise ValueError(f"{len(phi)} samples hold no window of {m + 1}")
    sup = phi[:n]
    for k in range(1, m + 1):
        sup = np.maximum(sup, phi[k : k + n])
    return sup ** (1.0 + rho), phi[:n] - phi[m:]


def nakao_hypothesis_residual(p):
    """Largest violation of the per-window hypothesis over the grid.

    Returns max over window starts t in [0, T-1] of
    sup_window phi^(1+rho) - [C0 (phi(t) - phi(t+1)) + K(t)]; a value <= 0
    means the hypothesis holds everywhere.
    """
    if p.horizon < 1.0:
        raise ValueError("grid must span at least one unit window")
    sup, drop = _windows(p.phi.y, p.steps_per_unit, p.rho)
    rhs = p.C0 * drop + p.K.y[: len(drop)]
    return float(np.max(sup - rhs))


def _pow(base, exponent):
    """Python's float ``**`` mapped over an array.

    numpy's vector power differs from the scalar ``**`` in the last bit on a
    few percent of arguments; mapping the scalar keeps array results
    bitwise equal to one-at-a-time evaluation.
    """
    base, exponent = np.broadcast_arrays(
        np.asarray(base, dtype=float), np.asarray(exponent, dtype=float)
    )
    powers = map(pow, base.ravel().tolist(), exponent.ravel().tolist())
    return np.array(list(powers), dtype=float).reshape(base.shape)


def nakao_bound(p, t):
    """Explicit envelope at time t in [0, T], or at each time of an array.

    For rho > 0 the bound is
    (rho/C0 (t-1)^+ + (sup_[0,1] phi)^-rho)^(-1/rho) + K(t)^(1/(rho+1));
    for rho = 0 it is sup_[0,1] phi * (C0/(1+C0))^floor(t) + K(t).  When the
    early sup vanishes with rho > 0 the polynomial term is taken as its
    limit 0 and the bound degenerates to the K term alone.  A scalar t
    gives a float; an array gives the bound at each time, bitwise equal to
    the scalar calls.
    """
    times = np.asarray(t, dtype=float)
    inside = (times >= 0.0) & (times <= p.phi.t[-1] + 1e-12)
    if not np.all(inside):
        raise ValueError(f"t = {times[~inside].flat[0]} outside grid range")
    m = p.steps_per_unit
    sup01 = float(np.max(p.phi.y[: m + 1]))
    kt = np.interp(times, p.K.t, p.K.y)
    if p.rho == 0.0:
        bound = sup01 * _pow(p.C0 / (1.0 + p.C0), np.floor(times)) + kt
    else:
        k_term = _pow(kt, 1.0 / (p.rho + 1.0))
        if sup01 == 0.0:
            bound = k_term
        else:
            tplus = np.maximum(times - 1.0, 0.0)
            base = p.rho / p.C0 * tplus + sup01 ** (-p.rho)
            bound = _pow(base, -1.0 / p.rho) + k_term
    return float(bound) if times.ndim == 0 else bound


def nakao_verify(p):
    """Check the hypothesis, then the conclusion at every grid point."""
    res = nakao_hypothesis_residual(p)
    hyp_ok = res <= 0.0
    m = p.steps_per_unit
    degenerate = p.rho > 0.0 and float(np.max(p.phi.y[: m + 1])) == 0.0
    if not hyp_ok:
        return NakaoVerdict(False, res, False, math.inf, degenerate)
    margins = p.phi.y - nakao_bound(p, p.phi.t)
    worst = float(np.max(margins))
    return NakaoVerdict(True, res, worst <= CONCLUSION_TOL, worst, degenerate)


@dataclass(frozen=True)
class HarauxResult:
    """Per-row sides of the power-difference bound; floats for one vector
    pair, arrays for rows."""

    lhs: float | np.ndarray
    rhs: float | np.ndarray
    ok: bool | np.ndarray


def _row_norms(x):
    return np.sqrt(np.vecdot(x, x))


def haraux_check(u, v, r):
    """Power-difference bound on Euclidean norms; requires r >= 1.

    ``u`` and ``v`` are one vector each, or rows ``(T, d)`` with one ``r``
    per row.  Zero-padding a row leaves its norms, and so the result,
    unchanged, so rows of different lengths can share one array.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    if u.shape != v.shape:
        raise ValueError("u and v must have equal shapes")
    if u.ndim > 2 or r.shape != u.shape[:-1]:
        raise ValueError(
            f"need one vector pair with one r or rows (T, d) with one r per row;"
            f" got u {u.shape} and r {r.shape}"
        )
    if not np.all(r >= 1.0):
        raise ValueError(f"r >= 1 required, got {np.min(r)}")
    one = u.ndim < 2
    u, v, r = np.atleast_2d(u), np.atleast_2d(v), np.atleast_1d(r)
    nu = _row_norms(u)
    nv = _row_norms(v)
    lhs = np.abs(_pow(nu, r) - _pow(nv, r))
    rhs = r * _pow(np.maximum(nu, nv), r - 1.0) * _row_norms(u - v)
    ok = lhs <= rhs + CONCLUSION_TOL
    if one:
        return HarauxResult(float(lhs[0]), float(rhs[0]), bool(ok[0]))
    return HarauxResult(lhs, rhs, ok)


def minimal_C0(phi, K, rho, steps_per_unit):
    """Smallest C0 validating the hypothesis for given samples.

    Returns None when some window has a flat phi but a supremum exceeding
    K(t); no finite constant can close such a window.
    """
    sup, drop = _windows(phi, int(steps_per_unit), rho)
    need = sup - K[: len(drop)]
    active = need > 0.0
    if np.any(active & (drop <= 0.0)):
        return None
    if not np.any(active):
        return 1.0
    return float(np.max(need[active] / drop[active]))


def random_nakao_problem(rng, rho, max_resample=200):
    """Draw a random instance whose hypothesis holds with its minimal C0.

    phi is a non-increasing non-negative sample path, K a non-decreasing
    one (zero half the time); the returned problem carries the smallest
    feasible C0 inflated by a one-ulp-scale margin.  Instances admitting no
    finite constant are resampled.
    """
    for _ in range(max_resample):
        m = int(rng.choice([1, 2, 4, 5, 10]))
        units = int(rng.integers(2, 7))
        n = units * m + 1
        t = np.arange(n) / m

        kind = rng.integers(0, 3)
        if kind == 0:
            decays = rng.uniform(0.5, 1.0, size=n - 1)
            phi = np.concatenate([[1.0], np.cumprod(decays)])
        elif kind == 1:
            drops = rng.exponential(1.0, size=n - 1)
            phi = np.concatenate([[0.0], np.cumsum(drops)])[::-1].copy()
            phi /= max(phi[0], 1e-12)
        else:
            phi = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1].copy()
            tail = int(rng.integers(0, n // 2))
            if tail:
                phi[-tail:] = 0.0
        phi *= rng.uniform(0.5, 2.0)

        if rng.random() < 0.5:
            K = np.zeros(n)
        else:
            K = np.cumsum(rng.exponential(0.05, size=n) * (rng.random(n) < 0.3))

        c0 = minimal_C0(phi, K, rho, m)
        if c0 is None:
            continue
        c0 *= 1.0 + 1e-9
        prob = NakaoProblem(
            phi=SampledSeries(t, phi), C0=c0, rho=float(rho), K=SampledSeries(t, K)
        )
        if nakao_hypothesis_residual(prob) <= 0.0:
            return prob
    raise RuntimeError("could not draw a feasible instance")
