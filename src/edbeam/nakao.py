"""Window-inequality toolkit: generalized discrete decay lemma, power bound.

The decay lemma converts a per-window bound

    sup_{t <= s <= t+1} phi(s)^(1+rho) <= C0 (phi(t) - phi(t+1)) + K(t)

into an explicit polynomial (rho > 0) or geometric (rho = 0) envelope for
phi.  Everything here is grid-based: suprema become maxima over sample
points, and the grid spacing must divide 1 so that window endpoints are
themselves grid points and the hypothesis/conclusion are decidable.
Instances are checked as zero-padded rows ``(B, L)``, a block at a time.

The power-difference bound states

    | ||u||^r - ||v||^r | <= r max(||u||, ||v||)^(r-1) ||u - v||

for r >= 1 in any normed space; it is checked here with Euclidean norms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["haraux_check"]

CONCLUSION_TOL = 1e-12


def _check_rows(t, phi, K, C0, rho, live):
    """Check the sample and problem invariants of rows ``(B, L)`` sharing one
    ``rho``; returns each row's steps per unit.

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
    with one ``C0`` per row: the max over window starts t of
    sup_window phi^(1+rho) - [C0 (phi(t) - phi(t+1)) + K(t)], <= 0 where the
    hypothesis holds everywhere."""
    return np.max(np.where(valid, sup - (C0[:, None] * drop + K), -np.inf), axis=1)


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
    """The explicit envelope at ``times``, with ``kt`` = K(times), for
    problems sharing one ``rho``; ``sup01`` (the sup of phi over [0, 1]) and
    ``C0`` give each time its problem's values.

    For rho > 0 the bound is
    (rho/C0 (t-1)^+ + (sup_[0,1] phi)^-rho)^(-1/rho) + K(t)^(1/(rho+1));
    for rho = 0 it is sup_[0,1] phi * (C0/(1+C0))^floor(t) + K(t).  When the
    early sup vanishes with rho > 0 the polynomial term is taken as its
    limit 0 and the bound degenerates to the K term alone.
    """
    if rho == 0.0:
        return sup01 * _pow(C0 / (1.0 + C0), np.floor(times)) + kt
    k_term = _pow(kt, 1.0 / (rho + 1.0))
    # a vanishing sup takes the polynomial term's limit 0; pow(0.0, -rho) raises
    live = sup01 > 0.0
    tplus = np.maximum(times - 1.0, 0.0)
    base = rho / C0 * tplus + _pow(np.where(live, sup01, 1.0), -rho)
    return np.where(live, _pow(base, -1.0 / rho) + k_term, k_term)


def _row_norms(x):
    return np.sqrt(np.vecdot(x, x))


def haraux_check(u, v, r):
    """Power-difference bound on Euclidean norms of rows ``(T, d)``, with one
    ``r`` >= 1 per row; returns each row's ``(lhs, rhs, ok)``.

    Zero-padding a row leaves its norms, and so the result, unchanged, so
    rows of different lengths can share one array.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    if u.shape != v.shape:
        raise ValueError("u and v must have equal shapes")
    if u.ndim != 2 or r.shape != u.shape[:1]:
        raise ValueError(
            f"need rows (T, d) with one r per row; got u {u.shape} and r {r.shape}"
        )
    if not np.all(r >= 1.0):
        raise ValueError(f"r >= 1 required, got {np.min(r)}")
    nu = _row_norms(u)
    nv = _row_norms(v)
    lhs = np.abs(_pow(nu, r) - _pow(nv, r))
    rhs = r * _pow(np.maximum(nu, nv), r - 1.0) * _row_norms(u - v)
    return lhs, rhs, lhs <= rhs + CONCLUSION_TOL


def _c0s(sup, drop, K, valid):
    """Smallest C0 closing every valid window ``(sup, drop)`` of each row;
    nan where some window has a flat phi but a supremum above K."""
    need = sup - K
    active = valid & (need > 0.0)
    ratio = np.divide(need, drop, out=np.full(need.shape, -np.inf), where=active & (drop > 0.0))
    c0 = np.where(np.any(active, axis=1), np.max(ratio, axis=1), 1.0)
    return np.where(np.any(active & (drop <= 0.0), axis=1), np.nan, c0)


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
    """``count`` random instances as :class:`_Rows`, each with its smallest
    feasible C0 inflated by a one-ulp-scale margin.

    phi is a non-increasing non-negative sample path, K a non-decreasing
    one (zero half the time).  The instances are the candidates whose
    hypothesis holds with their minimal C0, in stream order; ``max_resample``
    rejected candidates in a row raise RuntimeError.  Each round draws only
    as many candidates as instances are missing, so the generator stops
    where drawing instances one at a time would.
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


def _verify_draws(rows, rho):
    """Hypothesis residual and worst conclusion margin of each of
    :class:`_Rows`.

    The rows are checked against every problem invariant at once (padding
    must continue a row's grid with finite, non-negative values) and
    bounded at their live grid points.
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
