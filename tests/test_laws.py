import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edbeam import (
    DoublePower,
    Forcing,
    InvalidConfigurationError,
    K1Monomial,
    K2Constant,
    K2ExpDecay,
    K2Rational,
    K3Rational,
    K3ShiftedExp,
    ZeroSource,
    assumption_constants,
    build_model,
    project_source,
)


def _k(law, s):
    """The law's ``scalar_k`` at each sample of ``s``."""
    return np.array([law.scalar_k()(x) for x in np.ravel(s).tolist()])


def test_k_eval_examples():
    assert K1Monomial(2.0, 1.0).scalar_k()(3.0) == pytest.approx(6.0, abs=1e-15)
    k3 = K3Rational(1.0).scalar_k()
    assert k3(0.5) == 0.0
    assert k3(2.0) == pytest.approx(0.5, abs=1e-15)
    assert K2Rational(3.0).scalar_k()(0.0) == pytest.approx(3.0, abs=1e-15)


def test_power_law_k_overflow_raises():
    with pytest.raises(OverflowError):
        _k(K1Monomial(1.0, 3.0), [1.0, 1e200])


def test_k1_degenerate_at_origin_and_monotone():
    law = K1Monomial(1.5, 0.5)
    assert law.scalar_k()(0.0) == 0.0
    s = np.linspace(0.0, 5.0, 200)
    vals = _k(law, s)
    assert np.all(np.diff(vals) >= 0.0)


def test_k1_parameter_validation():
    with pytest.raises(InvalidConfigurationError):
        K1Monomial(0.0, 1.0)
    with pytest.raises(InvalidConfigurationError):
        K1Monomial(1.0, 0.3)


def test_k2_positive_and_c1_on_samples():
    s = np.linspace(0.0, 20.0, 4001)
    for law in (K2Constant(0.7), K2ExpDecay(2.0), K2Rational(1.3)):
        vals = _k(law, s)
        assert np.all(vals > 0.0)
        # sampled difference quotients stay bounded (C1 regularity proxy)
        quotients = np.abs(np.diff(vals) / np.diff(s))
        assert np.max(quotients) < 10.0


@pytest.mark.parametrize("law", [K3Rational(2.0), K3ShiftedExp(2.0)])
def test_k3_threshold_shape(law):
    s = np.linspace(0.0, 1.0, 101)
    assert np.all(_k(law, s) == 0.0)
    s_up = np.linspace(1.0 + 1e-9, 30.0, 2001)
    vals = _k(law, s_up)
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(vals <= law.gamma)
    # global Lipschitz proxy: bounded sampled difference quotients
    grid = np.linspace(0.0, 30.0, 6001)
    quot = np.abs(np.diff(_k(law, grid)) / np.diff(grid))
    assert np.max(quot) <= law.gamma * 1.5 + 1e-12


def test_k3_kink_continuity():
    gamma = 1.0
    k = K3Rational(gamma).scalar_k()
    below = k(1.0 - 1e-9)
    above = k(1.0 + 1e-9)
    assert abs(above - below) <= gamma * 1e-8


def test_f_eval_examples():
    cubic = DoublePower(2.0, 1.0, 0.0)
    assert cubic.f(2.0) == pytest.approx(8.0, abs=1e-13)
    assert cubic.f_primitive(2.0) == pytest.approx(4.0, abs=1e-13)
    zero = ZeroSource()
    assert zero.f(1.7) == 0.0
    assert zero.f_primitive(-2.0) == 0.0
    assert zero.f_derivative(3.1) == 0.0
    balanced = DoublePower(2.0, 1.0, 1.0)
    assert balanced.f(1.0) == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(s=st.floats(min_value=-50.0, max_value=50.0))
def test_double_power_odd_symmetry(s):
    law = DoublePower(2.5, 1.0, 0.7)
    assert law.f(-s) == pytest.approx(-law.f(s), rel=1e-12, abs=1e-12)
    assert law.f_primitive(-s) == pytest.approx(law.f_primitive(s), rel=1e-12, abs=1e-12)


def test_primitive_matches_numeric_integral():
    law = DoublePower(2.0, 1.0, 3.0)
    for s in (-2.0, -0.5, 0.3, 1.0, 2.5):
        grid = np.linspace(0.0, s, 20001)
        numeric = np.trapezoid(law.f(grid), grid)
        assert law.f_primitive(s) == pytest.approx(numeric, abs=1e-8)
    assert law.f_primitive(0.0) == 0.0


def test_double_power_validation():
    with pytest.raises(InvalidConfigurationError):
        DoublePower(1.0, 1.0, 0.0)  # r == delta
    with pytest.raises(InvalidConfigurationError):
        DoublePower(1.0, 2.0, 0.0)  # r > delta
    with pytest.raises(InvalidConfigurationError):
        DoublePower(2.0, 1.0, -1.0)


def test_project_source_zero_law():
    m = build_model(4, math.pi, 0.0, 32)
    out = project_source(m, ZeroSource(), np.ones(4))
    assert np.all(out == 0.0)
    with pytest.raises(ValueError):
        project_source(m, ZeroSource(), np.ones(5))


def test_project_source_cubic_single_mode():
    # u = w_1 gives f(u) = (2/pi)^(3/2) sin^3 x whose projections are
    # 3/(2 pi) on mode 1 and -1/(2 pi) on mode 3.
    m = build_model(8, math.pi, 0.0, 64)
    cubic = DoublePower(2.0, 1.0, 0.0)
    a = np.zeros(8)
    a[0] = 1.0
    g = project_source(m, cubic, a)
    assert g[0] == pytest.approx(3.0 / (2.0 * math.pi), abs=1e-10)
    assert g[2] == pytest.approx(-1.0 / (2.0 * math.pi), abs=1e-10)
    others = np.delete(g, [0, 2])
    assert np.max(np.abs(others)) < 1e-10


def test_project_source_sigma_linearity():
    m = build_model(6, math.pi, 0.0, 48)
    rng = np.random.default_rng(8)
    a = rng.standard_normal(6) * 0.5
    base = project_source(m, DoublePower(2.0, 1.0, 0.0), a)
    mixed = project_source(m, DoublePower(2.0, 1.0, 1.0), a)
    # the sigma component is the pure r-power projection
    u = a @ m.basis_table
    r_term = m.quad_weight * (m.basis_table @ (np.abs(u) ** 1.0 * u))
    assert np.max(np.abs(mixed - (base - r_term))) < 1e-12


def test_assumption_constants_zero_and_pure_power():
    z = assumption_constants(ZeroSource())
    assert (z.C_fprime, z.c_f, z.C_f) == (0.0, 0.0, 0.0)
    pure = assumption_constants(DoublePower(2.0, 1.0, 0.0))
    assert pure.c_f == 0.0
    assert pure.C_f == 0.0


def test_assumption_constants_sigma10():
    m = build_model(4, math.pi, 0.0, 32)
    law = DoublePower(2.0, 1.0, 10.0)
    c = assumption_constants(law, sample_range=10.0, samples=2000001, model=m)
    # minimum of the primitive on [-10, 10] sits at the boundary: -833.33
    assert c.C_f == pytest.approx(10.0**4 / 3.0 - 10.0**4 / 4.0, rel=1e-6)
    assert c.C_f > 0.0
    # smallest c for the upper primitive inequality is 8 sigma^2 / 27
    assert c.c_f == pytest.approx(8.0 * 100.0 / 27.0, rel=1e-6)
    assert c.cf_below_sigma1 is False


def test_assumption_constants_flag_ok_for_small_sigma():
    m = build_model(4, math.pi, 0.0, 32)
    c = assumption_constants(DoublePower(2.0, 1.0, 1.0), model=m)
    assert c.c_f == pytest.approx(8.0 / 27.0, rel=1e-5)
    assert c.cf_below_sigma1 is True


def test_forcing_validation_and_presets():
    with pytest.raises(InvalidConfigurationError) as bad:
        Forcing(1.5, np.zeros(3))
    assert str(bad.value) == "lambda = 1.5: lambda in [0, 1] required"
    with pytest.raises(InvalidConfigurationError):
        Forcing(-0.1, np.zeros(3))
    f = Forcing.single_mode(4, 1, 2.0, 0.5)
    assert f.effective_norm == pytest.approx(1.0, abs=1e-15)
    assert np.all(f.effective == np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(InvalidConfigurationError):
        Forcing.single_mode(4, 5, 1.0)
