import math

import numpy as np
import pytest

from edbeam import (
    AssumptionConstants,
    DoublePower,
    Forcing,
    ZeroSource,
    assumption_constants,
    build_model,
    el_gradient,
    euler_lagrange_value,
    minimize_functional,
    stationary_bound_check,
)
from edbeam.integrate import coercivity_offset
from edbeam.stationary import _el_hessian, multi_start


def _zero(n):
    return Forcing.zero(n)


def test_value_at_zero():
    m = build_model(4, math.pi, 0.0, 32)
    assert euler_lagrange_value(m, DoublePower(2.0, 1.0, 0.0), _zero(4), np.zeros(4)) == 0.0


def test_single_mode_closed_form():
    # u = c w_1 on (0, pi) with the cubic source: I(c) = c^2/2 + 3 c^4/(8 pi)
    m = build_model(1, math.pi, 0.0, 64)
    law = DoublePower(2.0, 1.0, 0.0)
    for c in (-1.5, 0.3, 2.0):
        got = euler_lagrange_value(m, law, _zero(1), np.array([c]))
        want = 0.5 * c**2 + 3.0 * c**4 / (8.0 * math.pi)
        assert got == pytest.approx(want, rel=1e-12)


def test_quadratic_part_matches_phase_energy():
    m = build_model(5, math.pi, 0.7, 40)
    rng = np.random.default_rng(0)
    c = rng.standard_normal(5)
    got = euler_lagrange_value(m, ZeroSource(), _zero(5), c)
    want = 0.5 * float(np.sum(m.sigma * c**2)) + 0.35 * float(np.sum(m.mu * c**2))
    assert got == pytest.approx(want, rel=1e-13)


def test_gradient_zero_at_origin():
    m = build_model(4, math.pi, 0.0, 32)
    g = el_gradient(m, DoublePower(2.0, 1.0, 5.0), _zero(4), np.zeros(4))
    assert np.all(g == 0.0)


def test_gradient_matches_directional_difference():
    m = build_model(6, math.pi, 0.2, 48)
    law = DoublePower(2.0, 1.0, 3.0)
    forcing = Forcing.single_mode(6, 2, 0.7, 1.0)
    rng = np.random.default_rng(1)
    c = rng.standard_normal(6) * 0.5
    g = el_gradient(m, law, forcing, c)
    eps = 1e-5
    for _ in range(4):
        d = rng.standard_normal(6)
        d /= np.linalg.norm(d)
        plus = euler_lagrange_value(m, law, forcing, c + eps * d)
        minus = euler_lagrange_value(m, law, forcing, c - eps * d)
        assert (plus - minus) / (2.0 * eps) == pytest.approx(float(g @ d), abs=1e-6)


def test_hessian_matches_gradient_difference():
    m = build_model(6, math.pi, 0.2, 48)
    law = DoublePower(2.0, 1.0, 3.0)
    forcing = Forcing.single_mode(6, 2, 0.7, 1.0)
    rng = np.random.default_rng(1)
    c = rng.standard_normal(6) * 0.5
    h = _el_hessian(m, law, c)
    eps = 1e-5
    for _ in range(4):
        d = rng.standard_normal(6)
        d /= np.linalg.norm(d)
        plus = el_gradient(m, law, forcing, c + eps * d)
        minus = el_gradient(m, law, forcing, c - eps * d)
        np.testing.assert_allclose((plus - minus) / (2.0 * eps), h @ d, rtol=0.0, atol=1e-6)


def test_hessian_of_zero_source_is_the_linear_part():
    m = build_model(5, math.pi, 0.7, 40)
    c = np.random.default_rng(0).standard_normal(5)
    h = _el_hessian(m, ZeroSource(), c)
    assert np.array_equal(h, np.diag(m.sigma + m.kappa * m.mu))


def test_gradient_single_mode_symbolic():
    # d/dc of the closed-form I(c) above: c + 3 c^3 / (2 pi)
    m = build_model(1, math.pi, 0.0, 64)
    law = DoublePower(2.0, 1.0, 0.0)
    for c in (-1.0, 0.4, 1.7):
        g = el_gradient(m, law, _zero(1), np.array([c]))
        assert g[0] == pytest.approx(c + 3.0 * c**3 / (2.0 * math.pi), rel=1e-12)


def test_pure_power_minimizer_is_zero():
    m = build_model(8, math.pi, 0.0, 64)
    law = DoublePower(2.0, 1.0, 0.0)
    rng = np.random.default_rng(2)
    for _ in range(3):
        start = rng.standard_normal(8)
        res = minimize_functional(m, law, _zero(8), start)
        assert res.converged
        assert res.functional_value == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(res.coeffs)) < 1e-5


def test_descent_endpoint_never_above_start():
    m = build_model(8, math.pi, 0.0, 64)
    law = DoublePower(2.0, 1.0, 10.0)
    rng = np.random.default_rng(3)
    for _ in range(3):
        start = rng.standard_normal(8)
        i0 = euler_lagrange_value(m, law, _zero(8), start)
        res = minimize_functional(m, law, _zero(8), start)
        assert res.functional_value <= i0 + 1e-10 * max(1.0, abs(i0))


def test_one_dim_matches_scan_oracle():
    # independent oracle: brute-force scan of the closed-form value, then
    # bisection on the closed-form derivative inside the bracket
    sigma = 10.0
    c4 = 3.0 / (8.0 * math.pi)
    c3 = (sigma / 3.0) * (2.0 / math.pi) ** 1.5 * (4.0 / 3.0)

    def val(c):
        return 0.5 * c**2 + c4 * c**4 - c3 * np.abs(c) ** 3

    def deriv(c):
        return c + 4.0 * c4 * c**3 - 3.0 * c3 * c * abs(c)

    cs = np.linspace(-30.0, 30.0, 1000001)
    i = int(np.argmin(val(cs)))
    lo, hi = cs[i - 1], cs[i + 1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if deriv(mid) * deriv(lo) <= 0.0:
            hi = mid
        else:
            lo = mid
    c_star = 0.5 * (lo + hi)

    m1 = build_model(1, math.pi, 0.0, 256)  # denser grid: the odd cubic term is not quadrature-exact
    res = minimize_functional(m1, DoublePower(2.0, 1.0, sigma), _zero(1), np.array([1.0]))
    assert res.converged
    assert abs(abs(res.coeffs[0]) - abs(c_star)) < 1e-6
    assert res.functional_value < 0.0


def test_multi_start_trivial_set_for_pure_power():
    m = build_model(16, math.pi, 0.0, 128)
    law = DoublePower(2.0, 1.0, 0.0)
    rng = np.random.default_rng(4)
    j = np.arange(1.0, 17.0)
    starts = [np.zeros(16)] + [rng.standard_normal(16) * j**-2 for _ in range(19)]
    results = multi_start(m, law, _zero(16), starts)
    assert len(results) == 1
    assert np.max(np.abs(results[0].coeffs)) < 1e-5


def test_two_equilibria_for_large_sigma():
    m = build_model(16, math.pi, 0.0, 128)
    law = DoublePower(2.0, 1.0, 10.0)
    rng = np.random.default_rng(5)
    j = np.arange(1.0, 17.0)
    starts = [np.zeros(16), 1e-3 * np.ones(16)] + [
        5.0 * rng.standard_normal(16) * j**-2 for _ in range(6)
    ]
    results = multi_start(m, law, _zero(16), starts)
    assert all(r.converged for r in results)
    assert len(results) >= 2
    values = sorted(r.functional_value for r in results)
    assert values[0] < 0.0  # a nontrivial negative-value critical point
    assert any(abs(r.functional_value) < 1e-12 for r in results)  # and zero


def test_every_start_converges_at_default_tol():
    # the stationary run's input set for seed 1 (N = 32, sigma 10, lambda
    # 0.5, 20 starts drawn as the CLI draws them) used to stall near a
    # gradient norm of 4e-7 on one start
    n = 32
    m = build_model(n, math.pi, 0.0)
    law = DoublePower(2.0, 1.0, 10.0)
    forcing = Forcing.single_mode(n, 1, 1.0, 0.5)
    rng = np.random.default_rng(1)
    j = np.arange(1, n + 1, dtype=float)
    starts = [np.zeros(n)] + [rng.standard_normal(n) * j**-2.0 for _ in range(19)]
    results = multi_start(m, law, forcing, starts, tol=1e-8)
    assert all(r.converged for r in results)


def test_bound_check_trivial_case():
    m = build_model(4, math.pi, 0.0, 32)
    res = minimize_functional(m, DoublePower(2.0, 1.0, 0.0), _zero(4), np.zeros(4))
    consts = AssumptionConstants(0.0, 0.0, 0.0)
    chk = stationary_bound_check(m, consts, _zero(4), res)
    assert chk.lhs == 0.0
    assert chk.rhs == 0.0
    assert chk.ok


def test_bound_check_rhs_grows_quadratically_in_lambda():
    m = build_model(4, math.pi, 0.0, 32)
    law = DoublePower(2.0, 1.0, 1.0)  # small sigma keeps omega positive
    consts = assumption_constants(law)
    assert coercivity_offset(m, consts, Forcing.zero(4))[0] > 0.0
    res = minimize_functional(m, law, _zero(4), np.zeros(4))
    h = np.array([1.0, 0.0, 0.0, 0.0])
    rhs = {}
    for lam in (0.0, 0.5, 1.0):
        rhs[lam] = stationary_bound_check(m, consts, Forcing(lam, h), res).rhs
    assert rhs[0.5] - rhs[0.0] == pytest.approx(0.25 * (rhs[1.0] - rhs[0.0]), rel=1e-12)
    assert rhs[1.0] > rhs[0.5] > rhs[0.0]
