import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edbeam import (
    AssumptionConstants,
    DoublePower,
    Forcing,
    IntegratorConfig,
    InvalidConfigurationError,
    K1Monomial,
    SampledSeries,
    ZeroSource,
    assumption_constants,
    build_model,
    decay_envelopes,
    envelope_constants,
    fit_exp_rate,
    fit_power_rate,
    integrate,
)
from edbeam.energy import embedding_constant
from edbeam.experiments import make_initial_state
from edbeam.integrate import (
    _mu2alpha,
    coercivity_offset,
    total_energies,
    total_energy,
)
from edbeam.spectral import _quadrature, _synthesize


def _zero(n):
    return Forcing.zero(n)


def test_energy_single_mode():
    m = build_model(4, math.pi, 0.0, 32)
    e1 = np.eye(4)[0]
    assert total_energy(m, ZeroSource(), np.zeros(4), e1, np.zeros(4)) == pytest.approx(
        0.5, abs=1e-15
    )


def _per_sample_energy_reference(model, source, lh, a, b):
    """total_energy as it was before samples were reduced together, kept
    verbatim as the reference: one Python call per sample."""
    quad = 0.5 * (
        float(b @ b)
        + float((model.sigma * a**2).sum())
        + model.kappa * float((model.mu * a**2).sum())
    )
    work = float(lh @ a)
    if isinstance(source, ZeroSource):
        integral = 0.0
    else:
        integral = float(model.quad_weight * source.f_primitive(a @ model.basis_table).sum())
    return quad + integral - work


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("source", [ZeroSource(), DoublePower(2.0, 1.0, 0.5)], ids=["zero", "dp"])
def test_trajectory_energies_match_the_per_sample_reference_bitwise(source, alpha):
    # 150 samples: two full 64-row blocks and a partial one
    m = build_model(8, math.pi, 0.7, 64)
    forcing = Forcing(0.6, np.random.default_rng(4).standard_normal(8) / np.arange(1, 9) ** 2)
    start = make_initial_state(m, np.random.default_rng(5), 3.0)
    cfg = IntegratorConfig(dt=1e-2, horizon=1.49, alpha=alpha)
    traj = integrate(m, source, K1Monomial(1.0, 1.5), forcing, start, cfg)
    lh = forcing.effective
    assert traj.n_samples == 150
    want = [_per_sample_energy_reference(m, source, lh, a, b) for a, b in zip(traj.a, traj.b)]
    assert np.array_equal(traj.energy, want)
    assert np.array_equal(total_energies(m, source, lh, traj.a, traj.b), want)
    assert [total_energy(m, source, lh, a, b) for a, b in zip(traj.a, traj.b)] == want


def test_modified_energy_reduces_without_data():
    m = build_model(4, math.pi, 0.0, 32)
    constants = assumption_constants(ZeroSource(), model=m)
    assert coercivity_offset(m, constants, _zero(4)) == (1.0, 0.0)


def test_source_term_matches_fine_quadrature():
    # reference integral of the primitive on a 10^4-node grid; the odd
    # |u|^3 power is not a quadrature-exact product, so this needs the
    # denser grid (error falls like M^-4 here)
    m = build_model(6, math.pi, 0.0, 256)
    law = DoublePower(2.0, 1.0, 1.0)
    a = np.zeros(6)
    a[0] = 0.7
    x = np.linspace(0.0, math.pi, 10001)
    u = 0.7 * math.sqrt(2.0 / math.pi) * np.sin(x)
    ref = np.trapezoid(law.f_primitive(u), x)
    assert _quadrature(m, law.f_primitive(_synthesize(m, a))) == pytest.approx(ref, abs=1e-9)


def test_e_alpha_consistency_at_one():
    # E_1 through the second-order route mu**2 is the fourth-order sigma itself
    m = build_model(5, 2.0, 0.3, 40)
    assert _mu2alpha(m, 1.0) is m.sigma


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
def test_e_alpha_weights_single_mode(alpha):
    # e1 has E_alpha weight mu_1**(2 alpha) = sigma_1**alpha = 1 on the unit domain
    m = build_model(3, math.pi, 0.0, 24)
    assert _mu2alpha(m, alpha)[0] == pytest.approx(m.sigma[0] ** alpha, rel=1e-14)
    assert _mu2alpha(m, alpha)[0] == pytest.approx(1.0, rel=1e-14)


@settings(max_examples=100, deadline=None)
@given(alpha=st.floats(min_value=0.0, max_value=1.0))
def test_e_alpha_weights_are_sigma_powers(alpha):
    # the second-order route mu**(2 alpha) commutes with the fourth-order sigma**alpha
    m = build_model(6, 2.2, 0.0, 12)
    w = _mu2alpha(m, alpha)
    assert w.shape == m.sigma.shape
    assert np.max(np.abs(w / m.sigma**alpha - 1.0)) <= 1e-12


def test_envelope_constants_reference_point():
    m = build_model(4, math.pi, 0.0, 32)
    consts = AssumptionConstants(0.0, 0.0, 0.0)
    p = envelope_constants(1.0, 1.0, 0.5, m, consts, _zero(4), 1.0)
    assert p.omega == 1.0
    assert p.C_alpha == 1.0
    assert p.C_lower == pytest.approx(0.125, abs=1e-15)
    # C_bar = 3/2 + 128 + 32 and C_upper = 4 (2^(3/2) + 4 C_bar)^2
    assert p.C_bar == pytest.approx(161.5, abs=1e-12)
    assert p.C_upper == pytest.approx(4.0 * (2.0**1.5 + 646.0) ** 2, rel=1e-13)


def test_embedding_constant_is_one_on_pi():
    m = build_model(8, math.pi, 0.0, 64)
    for alpha in np.linspace(0.0, 1.0, 11):
        assert embedding_constant(m, float(alpha)) == 1.0
    # longer domains push mu_1 below 1 and the constant above 1
    m2 = build_model(8, 2.0 * math.pi, 0.0, 64)
    assert embedding_constant(m2, 0.0) > 1.0


def test_envelope_constants_reject_large_cf():
    m = build_model(4, math.pi, 0.0, 32)
    bad = AssumptionConstants(0.0, 2.0, 0.0)  # c_f >= sigma_1 = 1
    with pytest.raises(InvalidConfigurationError):
        envelope_constants(1.0, 1.0, 0.5, m, bad, _zero(4), 1.0)
    with pytest.raises(InvalidConfigurationError):
        envelope_constants(0.3, 1.0, 0.5, m, AssumptionConstants(0, 0, 0), _zero(4), 1.0)


def _params(q=1.0, gamma=1.0, E0=1.0, k_lambda=0.0):
    m = build_model(4, math.pi, 0.0, 32)
    lam = 1.0 if k_lambda > 0 else 0.0
    h = np.zeros(4)
    if k_lambda > 0:
        h[0] = math.sqrt(k_lambda)  # sigma_1 = omega = 1 makes K_lambda = |h|^2
    forcing = Forcing(lam, h)
    return envelope_constants(
        q, gamma, 0.5, m, AssumptionConstants(0.0, 0.0, 0.0), forcing, E0
    )


def test_decay_envelopes_at_zero_and_clamp():
    p = _params(q=1.0, E0=2.0, k_lambda=0.5)
    lo0, up0 = decay_envelopes(p, 0.0)
    assert lo0 == pytest.approx(2.0, rel=1e-14)
    assert up0 == pytest.approx(2.0 + 8.0 * p.K_lambda, rel=1e-14)
    # the upper envelope is flat on [0, 1]
    for t in (0.0, 0.4, 1.0):
        _, up = decay_envelopes(p, t)
        assert up == pytest.approx(up0, rel=1e-14)
    _, up_after = decay_envelopes(p, 1.5)
    assert up_after < up0


def test_decay_envelope_lower_reference_value():
    p = _params(q=1.0, gamma=1.0, E0=1.0)
    assert p.C_lower == pytest.approx(0.125, abs=1e-15)
    lo, _ = decay_envelopes(p, 1.0)
    assert lo == pytest.approx(1.0 / 9.0, rel=1e-14)


@settings(max_examples=150, deadline=None)
@given(
    q=st.floats(min_value=0.5, max_value=3.0),
    gamma=st.floats(min_value=0.1, max_value=10.0),
    e0=st.floats(min_value=1e-3, max_value=1e3),
    t=st.floats(min_value=0.0, max_value=1e6),
)
def test_envelope_ordering_property(q, gamma, e0, t):
    p = _params(q=q, gamma=gamma, E0=e0)
    assert p.C_lower <= p.C_upper
    lo, up = decay_envelopes(p, t)
    assert lo <= up * (1.0 + 1e-12)


def test_envelope_monotone_in_time():
    p = _params(q=1.0, E0=3.0, k_lambda=0.2)
    t = np.linspace(0.0, 50.0, 501)
    lo, up = decay_envelopes(p, t)
    assert np.all(np.diff(lo) <= 1e-15)
    assert np.all(np.diff(up) <= 1e-15)


def test_fit_power_rate_exact_laws():
    t = np.linspace(1.0, 100.0, 300)
    fit = fit_power_rate(SampledSeries(t, t**-1.0), (1.0, 100.0))
    assert fit.slope == pytest.approx(-1.0, abs=1e-10)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    fit2 = fit_power_rate(SampledSeries(t, 5.0 * t**-0.5), (1.0, 100.0))
    assert fit2.slope == pytest.approx(-0.5, abs=1e-10)
    assert fit2.intercept == pytest.approx(math.log(5.0), abs=1e-10)


def test_fit_exp_rate_exact_laws():
    t = np.linspace(0.0, 10.0, 200)
    fit = fit_exp_rate(SampledSeries(t, np.exp(-2.0 * t)), (0.0, 10.0))
    assert fit.rate == pytest.approx(2.0, abs=1e-10)
    fit2 = fit_exp_rate(SampledSeries(t, 3.0 * np.exp(-0.5 * t)), (0.0, 10.0))
    assert fit2.rate == pytest.approx(0.5, abs=1e-10)
    assert fit2.amplitude == pytest.approx(3.0, rel=1e-10)


def test_fit_domain_errors():
    t = np.linspace(1.0, 10.0, 50)
    with pytest.raises(ValueError):
        fit_power_rate(SampledSeries(t, t - 5.0), (1.0, 10.0))  # non-positive values
    with pytest.raises(ValueError):
        fit_power_rate(SampledSeries(t, t**-1.0), (9.5, 10.0))  # < 10 points


def test_sampled_series_validation():
    with pytest.raises(ValueError):
        SampledSeries(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        SampledSeries(np.array([0.0, 1.0]), np.array([1.0, np.nan]))
