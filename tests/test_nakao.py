import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edbeam import (
    NakaoProblem,
    SampledSeries,
    haraux_check,
    nakao_bound,
    nakao_hypothesis_residual,
    nakao_verify,
)
from edbeam import experiments
from edbeam.experiments import haraux_suite
from edbeam.nakao import _windows, minimal_C0, random_nakao_problem


def _grid(values, m=1):
    values = np.asarray(values, dtype=float)
    t = np.arange(values.size) / m
    return SampledSeries(t, values)


def _problem(phi, C0, rho, K=None, m=1):
    phi = np.asarray(phi, dtype=float)
    K = np.zeros_like(phi) if K is None else np.asarray(K, dtype=float)
    return NakaoProblem(phi=_grid(phi, m), C0=C0, rho=rho, K=_grid(K, m))


def test_zero_phi_boundary_case():
    p = _problem(np.zeros(6), C0=1.0, rho=0.0)
    assert nakao_hypothesis_residual(p) == 0.0
    v = nakao_verify(p)
    assert v.hypothesis_ok and v.conclusion_ok


def test_geometric_sequence_minimal_constant():
    # phi(t) = 2^-floor(t): C0 = 1 fails by phi(t)/2, C0 = 2 is exact
    phi = 2.0 ** -np.arange(6.0)
    p1 = _problem(phi, C0=1.0, rho=0.0)
    assert nakao_hypothesis_residual(p1) == pytest.approx(0.5, abs=1e-15)
    v1 = nakao_verify(p1)
    assert not v1.hypothesis_ok
    assert not v1.conclusion_ok

    p2 = _problem(phi, C0=2.0, rho=0.0)
    assert nakao_hypothesis_residual(p2) == pytest.approx(0.0, abs=1e-15)
    v2 = nakao_verify(p2)
    assert v2.hypothesis_ok and v2.conclusion_ok


def test_constant_phi_with_matching_offset():
    c = 0.8
    rho = 0.5
    phi = np.full(5, c)
    K = np.full(5, c ** (1.0 + rho))
    p = _problem(phi, C0=3.0, rho=rho, K=K)
    assert nakao_hypothesis_residual(p) == pytest.approx(0.0, abs=1e-15)
    assert nakao_verify(p).conclusion_ok


def test_bound_reference_values():
    phi = np.ones(10)
    p0 = _problem(phi, C0=1.0, rho=0.0)
    assert nakao_bound(p0, 3.0) == pytest.approx(0.125, abs=1e-15)

    p1 = _problem(phi, C0=5.0, rho=1.0)
    assert nakao_bound(p1, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert nakao_bound(p1, 0.7) == pytest.approx(1.0, abs=1e-15)  # (t-1)+ = 0

    p8 = _problem(phi, C0=8.0, rho=1.0)
    # (rho/C0 * (9-1) + 1)^-1 = 1/2
    assert nakao_bound(p8, 9.0) == pytest.approx(0.5, abs=1e-15)


def test_bound_is_geometric_for_rho_zero():
    phi = np.linspace(1.0, 0.2, 9)
    p = _problem(phi, C0=3.0, rho=0.0)
    ratio = p.C0 / (1.0 + p.C0)
    for t in (0.0, 1.0, 2.0, 5.0):
        assert nakao_bound(p, t + 1.0) / nakao_bound(p, t) == pytest.approx(
            ratio, rel=1e-14
        )


def test_bound_monotone_for_constant_K():
    phi = np.linspace(2.0, 0.1, 13)
    K = np.full(13, 0.3)
    for rho in (0.0, 0.5, 2.0):
        p = _problem(phi, C0=4.0, rho=rho, K=K)
        vals = [nakao_bound(p, float(t)) for t in np.linspace(0.0, 12.0, 49)]
        assert all(b - a <= 1e-14 for a, b in zip(vals, vals[1:]))


def test_degenerate_sup_convention():
    phi = np.zeros(8)
    K = np.linspace(0.0, 0.5, 8)
    p = _problem(phi, C0=1.0, rho=1.0, K=K)
    assert nakao_bound(p, 7.0) == pytest.approx(0.5**0.5, rel=1e-14)
    v = nakao_verify(p)
    assert v.degenerate_sup
    assert v.conclusion_ok


def test_grid_validation():
    # spacing that does not divide 1
    t = np.arange(6) * 0.3
    with pytest.raises(ValueError):
        NakaoProblem(
            phi=SampledSeries(t, np.ones(6)),
            C0=1.0,
            rho=0.0,
            K=SampledSeries(t, np.zeros(6)),
        )
    # decreasing K is rejected
    with pytest.raises(ValueError):
        _problem(np.ones(4), C0=1.0, rho=0.0, K=np.array([1.0, 0.5, 0.4, 0.3]))
    # grid must start at zero
    t0 = 1.0 + np.arange(4)
    with pytest.raises(ValueError):
        NakaoProblem(
            phi=SampledSeries(t0, np.ones(4)),
            C0=1.0,
            rho=0.0,
            K=SampledSeries(t0, np.zeros(4)),
        )
    # short grid: residual needs at least one unit window
    p = _problem(np.ones(3), C0=1.0, rho=0.0, m=4)
    with pytest.raises(ValueError):
        nakao_hypothesis_residual(p)


def test_minimal_c0_infeasible_window():
    # flat phi with sup above K admits no finite constant
    phi = np.array([1.0, 1.0, 1.0])
    assert minimal_C0(phi, np.zeros(3), 0.0, 1) is None


def test_generator_soundness_small_batch():
    rng = np.random.default_rng(123)
    for rho in (0.0, 0.5, 1.0, 2.0):
        for _ in range(50):
            p = random_nakao_problem(rng, rho)
            v = nakao_verify(p)
            assert v.hypothesis_ok
            assert v.conclusion_ok, (rho, v.worst_conclusion_margin)


def test_haraux_examples():
    same = haraux_check(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 3.0)
    assert same.lhs == 0.0 and same.ok
    scalar = haraux_check(np.array([2.0]), np.array([1.0]), 2.0)
    assert scalar.lhs == pytest.approx(3.0)
    assert scalar.rhs == pytest.approx(4.0)
    assert scalar.ok
    with pytest.raises(ValueError):
        haraux_check(np.array([1.0]), np.array([1.0]), 0.5)


def test_haraux_tight_for_parallel_r1():
    u = np.array([1.0, 2.0, -1.0])
    res = haraux_check(u, 2.5 * u, 1.0)
    assert abs(res.lhs - res.rhs) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    r=st.floats(min_value=1.0, max_value=6.0),
    dim=st.integers(min_value=1, max_value=6),
)
def test_haraux_property(seed, r, dim):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dim) * 10.0 ** rng.uniform(-2, 2)
    v = rng.standard_normal(dim) * 10.0 ** rng.uniform(-2, 2)
    assert haraux_check(u, v, r).ok


def _scalar_bound(p, t):
    """One-time-at-a-time envelope in Python floats, the reference for the
    array form of nakao_bound."""
    m = p.steps_per_unit
    sup01 = float(np.max(p.phi.y[: m + 1]))
    kt = float(np.interp(t, p.K.t, p.K.y))
    if p.rho == 0.0:
        return sup01 * (p.C0 / (1.0 + p.C0)) ** math.floor(t) + kt
    k_term = kt ** (1.0 / (p.rho + 1.0))
    if sup01 == 0.0:
        return k_term
    tplus = max(t - 1.0, 0.0)
    return (p.rho / p.C0 * tplus + sup01 ** (-p.rho)) ** (-1.0 / p.rho) + k_term


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0, 2.0])
def test_bound_array_matches_scalar_calls(rho):
    rng = np.random.default_rng(77)
    for _ in range(100):
        p = random_nakao_problem(rng, rho)
        t = p.phi.t
        bounds = nakao_bound(p, t)
        assert bounds.shape == t.shape
        scalar = np.array([nakao_bound(p, ti) for ti in t])
        reference = np.array([_scalar_bound(p, float(ti)) for ti in t])
        assert bounds.tobytes() == scalar.tobytes()
        assert bounds.tobytes() == reference.tobytes()
        assert isinstance(nakao_bound(p, t[-1]), float)
        with pytest.raises(ValueError):
            nakao_bound(p, np.append(t, t[-1] + 0.5))
        with pytest.raises(ValueError):
            nakao_bound(p, -0.25)


@pytest.mark.parametrize("m", [1, 2, 4, 5, 10])
def test_windows_match_sliding_window_maxima(m):
    rng = np.random.default_rng(m)
    for n in (m + 1, m + 2, 6 * m + 1):
        phi = rng.uniform(0.0, 2.0, size=n)  # not monotone
        phi[rng.random(n) < 0.2] = 0.0
        for rho in (0.0, 0.5, 2.0):
            sup, drop = _windows(phi, m, rho)
            ref = np.max(np.lib.stride_tricks.sliding_window_view(phi, m + 1), axis=1)
            assert sup.tobytes() == (ref ** (1.0 + rho)).tobytes()
            assert drop.tobytes() == (phi[: len(ref)] - phi[m:]).tobytes()
    with pytest.raises(ValueError):
        _windows(np.ones(m), m, 0.0)


def _one_trial_haraux(u, v, r):
    """The power-difference check of one vector pair in Python floats."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    lhs = abs(nu**r - nv**r)
    rhs = r * max(nu, nv) ** (r - 1.0) * float(np.linalg.norm(u - v))
    return lhs, rhs, lhs <= rhs + 1e-12


def test_haraux_rows_match_one_trial_formula():
    rng = np.random.default_rng(5)
    n, width = 12000, 8
    dims = rng.integers(1, width + 1, size=n)
    live = np.arange(width) < dims[:, None]
    u = np.where(live, rng.standard_normal((n, width)), 0.0)
    v = np.where(live, rng.standard_normal((n, width)), 0.0)
    u *= 10.0 ** rng.uniform(-3, 2, size=(n, 1))
    v *= 10.0 ** rng.uniform(-3, 2, size=(n, 1))
    v[::97] = u[::97]  # equal pairs: lhs = 0
    r = rng.uniform(1.0, 6.0, size=n)
    r[::89] = 1.0
    rows = haraux_check(u, v, r)
    ref = [_one_trial_haraux(u[i, : dims[i]], v[i, : dims[i]], float(r[i])) for i in range(n)]
    lhs, rhs, ok = (np.array(col) for col in zip(*ref))
    assert rows.lhs.tobytes() == lhs.tobytes()
    assert rows.rhs.tobytes() == rhs.tobytes()
    assert np.array_equal(rows.ok, ok)
    for i in range(0, n, 1000):
        one = haraux_check(u[i, : dims[i]], v[i, : dims[i]], r[i])
        assert type(one.lhs) is float and type(one.rhs) is float and type(one.ok) is bool
        assert (one.lhs, one.rhs, one.ok) == ref[i]


def test_haraux_rows_reject_bad_input():
    u = np.ones((3, 4))
    with pytest.raises(ValueError):
        haraux_check(u, u, np.array([1.0, 0.5, 2.0]))  # one row with r < 1
    with pytest.raises(ValueError):
        haraux_check(u, np.ones((3, 5)), np.full(3, 2.0))
    with pytest.raises(ValueError):
        haraux_check(u, u, np.full(2, 2.0))  # r per row, wrong count
    with pytest.raises(ValueError):
        haraux_check(u, u, 2.0)  # rows need one r each
    with pytest.raises(ValueError):
        haraux_check(np.ones(3), np.ones(3), np.full(3, 2.0))


@pytest.mark.parametrize("trials", [1, 1023, 1024, 1025])
def test_haraux_suite_block_boundaries(trials, monkeypatch):
    rows = []

    def counting(u, v, r):
        rows.append(len(u))
        return haraux_check(u, v, r)

    monkeypatch.setattr(experiments, "haraux_check", counting)
    first = haraux_suite(seed=9, trials=trials)
    assert sum(rows) == trials
    assert len(rows) == -(-trials // experiments.HARAUX_BLOCK)
    assert first.passed
    assert first.metrics["trials"] == trials
    assert f"0 violations in {trials} trials" in first.to_text()
    assert haraux_suite(seed=9, trials=trials).to_text() == first.to_text()
