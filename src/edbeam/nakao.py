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
from typing import NamedTuple

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


def _windows(phi, m, n, rho):
    """(sup phi^(1+rho), phi(t) - phi(t+1), valid) over the unit windows
    [i, i+m] of padded rows ``(B, L)``: row b has ``m[b]`` steps per unit and
    ``n[b]`` samples, and ``valid`` marks its ``n[b] - m[b]`` windows."""
    short = n - m < 1
    if np.any(short):
        b = int(np.argmax(short))
        raise ValueError(f"{n[b]} samples hold no window of {m[b] + 1}")
    width = phi.shape[1]
    cols = np.arange(width)
    sup = phi.copy()
    for k in range(1, int(np.max(m)) + 1):
        head = sup[:, : width - k]
        np.maximum(head, phi[:, k:], out=head, where=(k <= m)[:, None])
    rows = np.arange(len(m))[:, None]
    drop = phi - phi[rows, np.minimum(cols + m[:, None], width - 1)]
    return sup ** (1.0 + rho), drop, cols < (n - m)[:, None]


def _residuals(sup, drop, C0, K, valid):
    """Largest violation of the hypothesis over each row's valid windows,
    with one ``C0`` per row."""
    return np.max(np.where(valid, sup - (C0[:, None] * drop + K), -np.inf), axis=1)


def _one_row(phi, m, rho):
    """:func:`_windows` of one sample path."""
    return _windows(np.asarray(phi, dtype=float)[None], np.array([m]), np.array([len(phi)]), rho)


def nakao_hypothesis_residual(p):
    """Largest violation of the per-window hypothesis over the grid.

    Returns max over window starts t in [0, T-1] of
    sup_window phi^(1+rho) - [C0 (phi(t) - phi(t+1)) + K(t)]; a value <= 0
    means the hypothesis holds everywhere.
    """
    if p.horizon < 1.0:
        raise ValueError("grid must span at least one unit window")
    sup, drop, valid = _one_row(p.phi.y, p.steps_per_unit, p.rho)
    return float(_residuals(sup, drop, np.array([p.C0]), p.K.y[None], valid)[0])


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
    return np.fromiter(powers, float, base.size).reshape(base.shape)


def _envelope(times, kt, sup01, C0, rho):
    """The envelope of :func:`nakao_bound` at ``times``, with ``kt`` = K(times).

    ``sup01`` and ``C0`` are floats for one problem, or arrays shaped like
    ``times`` that give each time its problem's values, for problems sharing
    one ``rho``.
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


def _c0s(sup, drop, K, valid):
    """Smallest C0 closing every valid window ``(sup, drop)`` of each row;
    nan where some window has a flat phi but a supremum above K."""
    need = sup - K
    active = valid & (need > 0.0)
    ratio = np.divide(need, drop, out=np.full(need.shape, -np.inf), where=active & (drop > 0.0))
    c0 = np.where(np.any(active, axis=1), np.max(ratio, axis=1), 1.0)
    return np.where(np.any(active & (drop <= 0.0), axis=1), np.nan, c0)


def minimal_C0(phi, K, rho, steps_per_unit):
    """Smallest C0 validating the hypothesis for given samples.

    Returns None when some window has a flat phi but a supremum exceeding
    K(t); no finite constant can close such a window.
    """
    sup, drop, valid = _one_row(phi, int(steps_per_unit), rho)
    c0 = float(_c0s(sup, drop, np.asarray(K, dtype=float)[None], valid)[0])
    return None if math.isnan(c0) else c0


def _candidates(rng, count):
    """The raw variates of ``count`` candidate instances.

    This is the only function that draws from the generator: each
    candidate's variates are drawn in turn, so the stream does not depend
    on how many candidates one call draws.  A candidate is
    ``(m, n, kind, variates, tail, scale, jumps, uniforms)``: ``n`` samples at
    ``m`` per unit; phi is the cumulative product of decays from 1 (kind 0),
    the reversed cumulative sum of drops from 0 over its total (kind 1) or
    the reversed sorted uniforms with the last ``tail`` zeroed (kind 2),
    times ``scale``; K is zero, or the cumulative sum of the exponential
    ``jumps`` kept where ``uniforms`` < 0.3.
    """
    drawn = []
    for _ in range(count):
        m = (1, 2, 4, 5, 10)[rng.integers(0, 5)]
        n = int(rng.integers(2, 7)) * m + 1
        kind = int(rng.integers(0, 3))
        tail = 0
        if kind == 0:
            variates = rng.uniform(0.5, 1.0, size=n - 1)
        elif kind == 1:
            variates = rng.exponential(1.0, size=n - 1)
        else:
            variates = rng.uniform(0.0, 1.0, size=n)
            tail = int(rng.integers(0, n // 2))
        scale = rng.uniform(0.5, 2.0)
        if rng.random() < 0.5:
            jumps = uniforms = ()
        else:
            jumps, uniforms = rng.exponential(0.05, size=n), rng.random(n)
        drawn.append((m, n, kind, variates, tail, scale, jumps, uniforms))
    return drawn


class _Rows(NamedTuple):
    """Instances as zero-padded rows ``(B, L)`` on grids ``arange(L) / m``;
    ``live`` marks each row's samples, and ``residual`` <= 0 is a row's
    hypothesis residual with its ``C0`` (nan where no finite C0 exists)."""

    m: np.ndarray
    live: np.ndarray
    phi: np.ndarray
    K: np.ndarray
    C0: np.ndarray
    residual: np.ndarray


def _candidate_rows(candidates, rho):
    """Build the candidates of :func:`_candidates` as rows with their minimal
    C0, inflated by a one-ulp-scale margin, and its residual.

    Each row is accumulated, sorted and reduced on its own, so every value
    is bitwise the one a candidate built alone would get.
    """
    m, n, kind, variates, tail, scale, jumps, uniforms = zip(*candidates)
    m, n, kind, tail, scale = map(np.array, (m, n, kind, tail, scale))
    cols = np.arange(np.max(n))
    live = cols < n[:, None]
    # kinds 0 and 1 lead with a fixed sample, 1.0 or 0.0; padding stays 1.0,
    # above every uniform, so sorting leaves it at the end
    values = np.ones(live.shape)
    values[:, 0] = np.where(kind == 1, 0.0, 1.0)
    values[live & (cols >= (kind < 2)[:, None])] = np.concatenate(variates)
    paths = np.empty(live.shape)
    for k in set(kind.tolist()):
        paths[kind == k] = (np.cumprod, np.cumsum, np.sort)[k](values[kind == k], axis=1)
    reverse = np.maximum(n[:, None] - 1 - cols, 0)
    phi = paths[np.arange(len(n))[:, None], np.where((kind > 0)[:, None], reverse, cols)]
    phi /= np.where(kind == 1, np.maximum(phi[:, 0], 1e-12), 1.0)[:, None]
    phi = np.where(cols < (n - tail)[:, None], phi, 0.0)
    phi *= scale[:, None]
    steps = np.zeros(live.shape)
    with_k = cols < np.array([len(j) for j in jumps])[:, None]
    steps[with_k] = np.concatenate(jumps) * (np.concatenate(uniforms) < 0.3)
    K = np.cumsum(steps, axis=1)
    sup, drop, valid = _windows(phi, m, n, rho)
    c0 = _c0s(sup, drop, K, valid) * (1.0 + 1e-9)
    return _Rows(m, live, phi, K, c0, _residuals(sup, drop, c0, K, valid))


def _draw_rows(rng, rho, count, max_resample=200):
    """``count`` instances of :func:`random_nakao_problem` as :class:`_Rows`.

    The instances are the candidates whose hypothesis holds with their
    minimal C0, in stream order.  Each round draws only as many candidates
    as instances are missing, so the generator stops where drawing
    instances one at a time would.
    """
    accepted = []
    run = 0
    while len(accepted) < count:
        candidates = _candidates(rng, count - len(accepted))
        rows = _candidate_rows(candidates, rho)
        for candidate, ok in zip(candidates, (rows.residual <= 0.0).tolist()):
            run = 0 if ok else run + 1
            if run >= max_resample:
                raise RuntimeError("could not draw a feasible instance")
            if ok:
                accepted.append(candidate)
    # the last round alone holds every instance unless a candidate was rejected
    return rows if len(candidates) == len(accepted) else _candidate_rows(accepted, rho)


def random_nakao_problem(rng, rho, max_resample=200):
    """Draw a random instance whose hypothesis holds with its minimal C0.

    phi is a non-increasing non-negative sample path, K a non-decreasing
    one (zero half the time); the returned problem carries the smallest
    feasible C0 inflated by a one-ulp-scale margin.  Instances admitting no
    finite constant are resampled; ``max_resample`` of them in a row raise
    RuntimeError.
    """
    rows = _draw_rows(rng, rho, 1, max_resample)
    t = np.arange(rows.phi.shape[1]) / rows.m[0]
    return NakaoProblem(
        phi=SampledSeries(t, rows.phi[0]),
        C0=float(rows.C0[0]),
        rho=float(rho),
        K=SampledSeries(t, rows.K[0]),
    )


def _verify_draws(rows, rho):
    """Hypothesis residual and worst conclusion margin of each of
    :class:`_Rows`, bitwise those of :func:`nakao_verify` on its problem.

    The rows are checked against every problem invariant at once (padding
    must continue a row's grid with finite, non-negative values) and
    bounded at their live grid points, where K needs no interpolation.
    """
    cols = np.arange(rows.phi.shape[1])
    t = cols / rows.m[:, None]
    live = rows.live
    m = _check_rows(t, rows.phi, rows.K, rows.C0, rho, live)
    sup01 = np.max(np.where(cols <= m[:, None], rows.phi, 0.0), axis=1)
    per_row = np.count_nonzero(live, axis=1)
    bound = _envelope(
        t[live], rows.K[live], np.repeat(sup01, per_row), np.repeat(rows.C0, per_row), rho
    )
    margins = np.full(live.shape, -np.inf)
    margins[live] = rows.phi[live] - bound
    return rows.residual, np.max(margins, axis=1)
