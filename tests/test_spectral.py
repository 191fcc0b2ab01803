import math

import numpy as np
import pytest

from edbeam import (
    InvalidConfigurationError,
    ModalState,
    build_model,
    phase_norm,
    synthesize,
)
from edbeam.spectral import (
    _gram,
    _project,
    _quadrature,
    _synthesize,
    _weighted_squares,
    phase_norms,
)


def test_eigenvalues_unit_domain():
    m = build_model(4, math.pi, 0.0, 64)
    assert np.allclose(m.mu, [1.0, 4.0, 9.0, 16.0], atol=1e-14)
    assert np.allclose(m.sigma, [1.0, 16.0, 81.0, 256.0], atol=1e-12)


def test_single_mode_embedding_constant():
    m = build_model(1, math.pi, 0.0, 8)
    assert m.sigma[0] == pytest.approx(1.0, abs=1e-15)


def test_eigenvalues_high_precision_cross_check():
    # independent evaluation of (j pi / L)^2 at 50 digits
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    m = build_model(8, 2.0, 0.5, 32)
    for j in range(1, 9):
        ref = float((j * mpmath.pi / 2) ** 2)
        assert m.mu[j - 1] == pytest.approx(ref, rel=1e-15)
        assert m.sigma[j - 1] == pytest.approx(ref**2, rel=1e-14)
    assert m.mu[0] == pytest.approx(2.4674011002723395, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_modes=0, length=1.0),
        dict(n_modes=4, length=0.0),
        dict(n_modes=4, length=-2.0),
        dict(n_modes=4, length=1.0, kappa=-0.1),
        dict(n_modes=4, length=1.0, quad_points=7),
    ],
)
def test_invalid_configuration(kwargs):
    with pytest.raises(InvalidConfigurationError):
        build_model(**kwargs)


def test_n_modes_must_be_an_integer():
    # 4.7 used to build 4 modes without a word
    with pytest.raises(InvalidConfigurationError, match="n_modes must be an integer"):
        build_model(4.7, 1.0)
    for n in (4, 4.0, np.int64(4)):
        assert build_model(n, 1.0).n_modes == 4


def test_quad_points_must_be_an_integer():
    # 9.9 used to give 9 nodes without a word
    with pytest.raises(InvalidConfigurationError, match="quad_points must be an integer"):
        build_model(4, 1.0, quad_points=9.9)
    for m in (9, 9.0, np.int64(9)):
        assert build_model(4, 1.0, quad_points=m).quad_points == 9


def test_discrete_orthonormality():
    m = build_model(6, 2.5, 0.0, 12)
    gram = m.quad_weight * (m.basis_table @ m.basis_table.T)
    assert np.max(np.abs(gram - np.eye(6))) < 1e-12
    # the weighted Gram matrix of the weight 1 is the same matrix
    assert np.array_equal(_gram(m, np.ones(m.quad_points)), gram)


def test_synthesize_zero_and_basis():
    m = build_model(5, math.pi, 0.0, 40)
    assert np.all(synthesize(m, np.zeros(5)) == 0.0)
    e1 = np.eye(5)[0]
    field = synthesize(m, e1)
    ref = math.sqrt(2.0 / math.pi) * np.sin(m.quad_nodes)
    assert np.max(np.abs(field - ref)) < 1e-14


def test_project_zero_and_basis_row():
    # _project analyzes the grid field f(u); a field that ignores u is analyzed as is
    m = build_model(5, math.pi, 0.0, 40)
    a = np.zeros(5)
    assert np.all(_project(m, np.zeros_like, a) == 0.0)
    c = _project(m, lambda u: m.basis_table[1], a)
    assert np.max(np.abs(c - np.eye(5)[1])) < 1e-12


def test_project_cubed_sine_closed_form():
    # sin^3 x = (3 sin x - sin 3x) / 4, so the modal content is exactly
    # two coefficients after undoing the sqrt(2/pi) normalization.
    m = build_model(4, math.pi, 0.0, 64)
    c = _project(m, lambda u: np.sin(m.quad_nodes) ** 3, np.zeros(4))
    scale = math.sqrt(math.pi / 2.0)
    expect = np.array([0.75 * scale, 0.0, -0.25 * scale, 0.0])
    assert np.max(np.abs(c - expect)) < 1e-12


def test_project_identity_round_trip_random_coefficients():
    # with f the identity, _project is analysis after synthesis
    m = build_model(8, 1.7, 0.0, 16)
    rng = np.random.default_rng(0)
    for _ in range(5):
        c = rng.standard_normal(8)
        assert np.max(np.abs(_project(m, lambda u: u, c) - c)) < 1e-12


def test_length_mismatch_errors():
    m = build_model(4, 1.0, 0.0, 16)
    with pytest.raises(ValueError):
        synthesize(m, np.zeros(5))


def test_embedding_chain_constant_attained_at_first_mode():
    m = build_model(10, 3.0, 0.0, 40)
    ratios = np.sqrt(m.mu) / np.sqrt(m.sigma)
    assert int(np.argmax(ratios)) == 0
    const = float(ratios[0])
    assert const == pytest.approx(m.mu[0] ** -0.5, rel=1e-14)
    rng = np.random.default_rng(1)
    for _ in range(10):
        c = rng.standard_normal(10)
        # ||A^(1/2) c|| <= const * ||A1^(1/2) c||, both powers diagonal
        assert math.sqrt(m.mu @ c**2) <= const * math.sqrt(m.sigma @ c**2) * (1.0 + 1e-12)


def test_discrete_parseval():
    m = build_model(7, math.pi, 0.0, 14)
    rng = np.random.default_rng(2)
    c = rng.standard_normal(7)
    field = synthesize(m, c)
    quad_norm = math.sqrt(m.quad_weight * float(field @ field))
    assert quad_norm == pytest.approx(np.linalg.norm(c), abs=1e-12)


def test_phase_norm_examples():
    m = build_model(4, math.pi, 0.0, 32)
    e1 = np.eye(4)[0]
    assert phase_norm(m, ModalState(e1, np.zeros(4))) == pytest.approx(1.0, abs=1e-15)
    assert phase_norm(m, ModalState(np.zeros(4), e1)) == pytest.approx(1.0, abs=1e-15)
    rng = np.random.default_rng(3)
    st_ = ModalState(rng.standard_normal(4), rng.standard_normal(4))
    recomputed = math.sqrt(m.sigma @ st_.a**2 + st_.b @ st_.b)
    assert phase_norm(m, st_) == pytest.approx(recomputed, rel=1e-13)


def test_phase_norms_rows_match_phase_norm():
    m = build_model(5, 2.0, 0.3, 40)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((3, 5))
    rows = phase_norms(m, a, b)
    assert rows.shape == (3,)
    for k in range(3):
        assert rows[k] == pytest.approx(phase_norm(m, ModalState(a[k], b[k])), rel=1e-14)
    assert np.all(phase_norms(m, np.zeros((2, 5)), np.zeros((2, 5))) == 0.0)


@pytest.mark.parametrize("n_modes", [3, 8, 17])
def test_phase_norms_rows_do_not_depend_on_their_position(n_modes):
    # a gemv over all samples rounded a row by where it sat in the stack, so a
    # stopped run's phase column was not a prefix of its full run's; the
    # quadrature helpers take stacks of rows under the same rule
    m = build_model(n_modes, math.pi, 0.5, 8 * n_modes)
    rng = np.random.default_rng(n_modes)
    a = rng.standard_normal((4001, n_modes))
    b = rng.standard_normal((4001, n_modes))
    grid = rng.standard_normal((4001, m.quad_points))
    full = phase_norms(m, a, b)
    for k in range(0, 4001, 37):
        assert full[k] == phase_norm(m, ModalState(a[k], b[k]))
    for n in range(1, 4001, 19):
        assert np.array_equal(phase_norms(m, a[:n], b[:n]), full[:n])

    rows = {
        "synthesize": (lambda x: _synthesize(m, x), a),
        "quadrature": (lambda v: _quadrature(m, v), grid),
        "project": (lambda x: _project(m, lambda u: u * u * u, x), a),
        "weighted_squares": (lambda x: _weighted_squares(x, m.sigma), a),
    }
    for name, (helper, stack) in rows.items():
        full = helper(stack)
        for k in range(0, 4001, 37):
            assert np.array_equal(full[k], helper(stack[k])), (name, k)
        for n in range(1, 4001, 19):
            assert np.array_equal(helper(stack[:n]), full[:n]), (name, n)


def test_modal_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        ModalState(np.array([1.0, np.nan]), np.zeros(2))
    with pytest.raises(ValueError):
        ModalState(np.array([1.0, np.inf]), np.zeros(2))
