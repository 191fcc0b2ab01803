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
        t = self.phi.t
        if self.K.t.shape != t.shape or np.max(np.abs(self.K.t - t)) > 1e-12:
            raise ValueError("phi and K must share one grid")
        row = np.ones((1, len(t)), dtype=bool)
        (m,) = _check_rows(t[None], self.phi.y[None], self.K.y[None], self.C0, self.rho, row)
        object.__setattr__(self, "_steps_per_unit", int(m))

    @property
    def steps_per_unit(self) -> int:
        return self._steps_per_unit

    @property
    def horizon(self) -> float:
        return float(self.phi.t[-1] - self.phi.t[0])


def _check_rows(t, phi, K, C0, rho, live):
    """Check the sample and problem invariants of rows ``(B, L)`` sharing one
    ``rho``, with the messages of SampledSeries and NakaoProblem; returns each
    row's steps per unit.

    ``C0`` is one constant per row.  Only ``live`` samples are problem data:
    K is checked non-decreasing between them, and every other check holds
    on the whole row, so padding must be a finite, non-negative
    continuation of the row's uniform grid.
    """
    if np.any(np.count_nonzero(live, axis=1) < 2):
        raise ValueError("grid must have at least two samples")
    if not np.all(np.diff(t, axis=1) > 0.0):
        raise ValueError("times must be strictly increasing")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(phi)) and np.all(np.isfinite(K))):
        raise ValueError("series values must be finite")
    C0 = np.asarray(C0, dtype=float)
    bad = ~(C0 > 0.0)
    if np.any(bad):
        raise ValueError(f"C0 must be > 0, got {float(C0[bad][0])}")
    if rho < 0.0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    if np.max(np.abs(t[:, 0])) > 1e-12:
        raise ValueError("grid must start at t = 0")
    if np.any(phi < 0.0) or np.any(K < 0.0):
        raise ValueError("phi and K must be non-negative")
    if np.any((np.diff(K, axis=1) < -1e-15) & live[:, 1:]):
        raise ValueError("K must be non-decreasing")
    dt = np.diff(t, axis=1)
    if np.max(np.abs(dt - dt[:, :1])) > 1e-12:
        raise ValueError("grid must be uniform")
    m = np.rint(1.0 / dt[:, 0])
    bad = (m < 1) | (np.abs(m * dt[:, 0] - 1.0) > 1e-9)
    if np.any(bad):
        raise ValueError(f"grid spacing {float(dt[bad, 0][0])} must divide 1")
    return m.astype(int)


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


def _residual(sup, drop, C0, K):
    """Largest violation of the hypothesis over the windows ``(sup, drop)``."""
    return float(np.max(sup - (C0 * drop + K[: len(drop)])))


def nakao_hypothesis_residual(p):
    """Largest violation of the per-window hypothesis over the grid.

    Returns max over window starts t in [0, T-1] of
    sup_window phi^(1+rho) - [C0 (phi(t) - phi(t+1)) + K(t)]; a value <= 0
    means the hypothesis holds everywhere.
    """
    if p.horizon < 1.0:
        raise ValueError("grid must span at least one unit window")
    sup, drop = _windows(p.phi.y, p.steps_per_unit, p.rho)
    return _residual(sup, drop, p.C0, p.K.y)


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


def _envelope(times, kt, sup01, C0, rho):
    """The envelope of :func:`nakao_bound` at ``times``, with ``kt`` = K(times).

    ``sup01`` and ``C0`` are floats for one problem or ``(B, 1)`` columns for
    rows of times ``(B, L)`` sharing one ``rho``.
    """
    if rho == 0.0:
        return sup01 * _pow(C0 / (1.0 + C0), np.floor(times)) + kt
    k_term = _pow(kt, 1.0 / (rho + 1.0))
    # a vanishing sup takes the polynomial term's limit 0; pow(0.0, -rho) raises
    live = sup01 > 0.0
    tplus = np.maximum(times - 1.0, 0.0)
    base = rho / C0 * tplus + _pow(np.where(live, sup01, 1.0), -rho)
    return np.where(live, _pow(base, -1.0 / rho) + k_term, k_term)


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
    sup01 = float(np.max(p.phi.y[: p.steps_per_unit + 1]))
    kt = np.interp(times, p.K.t, p.K.y)
    bound = _envelope(times, kt, sup01, p.C0, p.rho)
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


def _c0_from_windows(sup, drop, K):
    """Smallest C0 closing every window ``(sup, drop)``, or None."""
    need = sup - K[: len(drop)]
    active = need > 0.0
    if np.any(active & (drop <= 0.0)):
        return None
    if not np.any(active):
        return 1.0
    return float(np.max(need[active] / drop[active]))


def minimal_C0(phi, K, rho, steps_per_unit):
    """Smallest C0 validating the hypothesis for given samples.

    Returns None when some window has a flat phi but a supremum exceeding
    K(t); no finite constant can close such a window.
    """
    return _c0_from_windows(*_windows(phi, int(steps_per_unit), rho), K)


def _draw(rng, rho, max_resample=200):
    """The instance of :func:`random_nakao_problem` as ``(m, phi, K, C0,
    residual)``, on the grid ``arange(len(phi)) / m``; ``residual`` <= 0 is
    its hypothesis residual."""
    for _ in range(max_resample):
        m = int(rng.choice([1, 2, 4, 5, 10]))
        units = int(rng.integers(2, 7))
        n = units * m + 1

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

        sup, drop = _windows(phi, m, rho)
        c0 = _c0_from_windows(sup, drop, K)
        if c0 is None:
            continue
        c0 *= 1.0 + 1e-9
        residual = _residual(sup, drop, c0, K)
        if residual <= 0.0:
            return m, phi, K, c0, residual
    raise RuntimeError("could not draw a feasible instance")


def random_nakao_problem(rng, rho, max_resample=200):
    """Draw a random instance whose hypothesis holds with its minimal C0.

    phi is a non-increasing non-negative sample path, K a non-decreasing
    one (zero half the time); the returned problem carries the smallest
    feasible C0 inflated by a one-ulp-scale margin.  Instances admitting no
    finite constant are resampled.
    """
    m, phi, K, c0, _ = _draw(rng, rho, max_resample)
    t = np.arange(len(phi)) / m
    return NakaoProblem(
        phi=SampledSeries(t, phi), C0=c0, rho=float(rho), K=SampledSeries(t, K)
    )


def _verify_draws(draws, rho):
    """Hypothesis residual and worst conclusion margin of each ``_draw``,
    bitwise those of :func:`nakao_verify` on its problem.

    The draws are zero-padded into rows ``(len(draws), longest)`` on grids
    continued past their ends, checked against every problem invariant at
    once, and bounded at their grid points, where K needs no interpolation.
    Margins are -inf on the padding.
    """
    steps, phis, Ks, C0, residual = zip(*draws)
    n = np.array([len(y) for y in phis])
    cols = np.arange(n.max())
    live = cols < n[:, None]
    phi = np.zeros(live.shape)
    K = np.zeros(live.shape)
    phi[live] = np.concatenate(phis)
    K[live] = np.concatenate(Ks)
    C0 = np.array(C0, dtype=float)
    t = cols / np.array(steps)[:, None]
    m = _check_rows(t, phi, K, C0, rho, live)
    sup01 = np.max(np.where(cols <= m[:, None], phi, 0.0), axis=1, keepdims=True)
    margins = np.where(live, phi - _envelope(t, K, sup01, C0[:, None], rho), -np.inf)
    return np.array(residual, dtype=float), np.max(margins, axis=1)
