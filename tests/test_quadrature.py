"""The default quadrature follows the source: the exact size for a polynomial
f, 8 nodes per mode for any other source, and a run file's own size wins.

A polynomial f of degree d = delta + 1 makes f(u) w_j and F(u) sine/cosine
sums of frequency at most (delta + 2) N, which the interior-node rule
integrates exactly once M >= (delta/2 + 1) N.  So at that size the
projection and the source integral are those of M = 8N up to rounding, and
one node fewer is visibly not.
"""

import math

import numpy as np
import pytest

from edbeam import (
    DoublePower,
    InvalidConfigurationError,
    ZeroSource,
    build_model,
    project_source,
)
from edbeam.config import build_objects, parse_config
from edbeam.spectral import _quadrature, _synthesize

POLYNOMIAL = [(2.0, 1.0, 0.0), (4.0, 1.0, 0.0), (4.0, 2.0, 0.5)]


def _coeffs(rng, n):
    # O(1) magnitudes with random signs, so the top mode cannot be small
    return rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)


@pytest.mark.parametrize("n", [4, 32, 128])
@pytest.mark.parametrize("delta, r, sigma", POLYNOMIAL)
def test_exact_size_matches_eight_nodes_per_mode(delta, r, sigma, n):
    law = DoublePower(delta, r, sigma)
    exact = build_model(n, math.pi, source=law)
    full = build_model(n, math.pi, 0.0, 8 * n)
    assert exact.quad_points == int(delta / 2 + 1) * n
    rng = np.random.default_rng(n)
    for _ in range(5):
        a = _coeffs(rng, n)
        want = project_source(full, law, a)
        got = project_source(exact, law, a)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        want = _quadrature(full, law.f_primitive(_synthesize(full, a)))
        got = _quadrature(exact, law.f_primitive(_synthesize(exact, a)))
        assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("n", [4, 32])
def test_one_node_fewer_aliases(n):
    # the rule is tight: at 3N - 1 nodes the quintic source's top frequency
    # 6N aliases onto the constant, so this test can fail
    law = DoublePower(4.0, 1.0, 0.0)
    short = build_model(n, math.pi, 0.0, 3 * n - 1)
    full = build_model(n, math.pi, 0.0, 8 * n)
    rng = np.random.default_rng(n)
    for _ in range(5):
        a = _coeffs(rng, n)
        want = project_source(full, law, a)
        got = project_source(short, law, a)
        assert np.max(np.abs(got - want)) > 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "source",
    [DoublePower(1.5, 1.0, 0.0), DoublePower(2.0, 1.0, 0.5), ZeroSource(), None],
    ids=["delta_not_even", "odd_r_term", "zero", "no_source"],
)
def test_other_sources_keep_eight_nodes_per_mode(source):
    assert build_model(16, math.pi, source=source).quad_points == 128


def test_cap_at_eight_nodes_per_mode():
    # delta = 16 would need 9N
    assert build_model(4, math.pi, source=DoublePower(16.0, 1.0, 0.0)).quad_points == 32


def test_run_file_sets_the_size():
    source = "[source]\nvariant = double_power\ndelta = 2.0\nr = 1.0\n"
    cfg = parse_config(f"[model]\nn_modes = 8\n{source}")
    assert cfg.model.quad_points is None
    assert build_objects(cfg)[0].quad_points == 16
    cfg = parse_config(f"[model]\nn_modes = 8\nquad_points = 40\n{source}")
    assert build_objects(cfg)[0].quad_points == 40
    # the explicit size is checked against the same floor as before
    with pytest.raises(InvalidConfigurationError, match="quad_points = 10 too small"):
        parse_config(f"[model]\nn_modes = 8\nquad_points = 10\n{source}")
