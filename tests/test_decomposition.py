"""The decomposition u = v + z runs through the one Strang kernel as coupled
rows; its u and z rows, and its v as the ZeroSource batch run, agree with
the textbook loop of ``oracle`` to 1e-12 (the kernel fuses the two half
kicks that meet between steps), and a blow-up raises instead of filling the
samples with NaN."""

import math

import numpy as np
import pytest

from edbeam import (
    BlowUpError,
    DoublePower,
    Forcing,
    IntegratorConfig,
    K2Constant,
    ModalState,
    ZeroSource,
    build_model,
    integrate_batch,
)
from edbeam.experiments import (
    _integrate_decomposed,
    exp_decomposition,
    make_initial_state,
)
from oracle import strang


def _oracle_rows(model, source, law, forcing, start, cfg):
    """The oracle's u and z rows from ``start``: a (u, z) pair whose z row
    starts at rest, carries no force and feels the projection of the u row."""
    zero = np.zeros(model.n_modes)
    a, b = np.stack([start.a, zero]), np.stack([start.b, zero])
    lh = np.stack([forcing.effective, zero])
    return strang(model, source, law, lh, cfg, a, b, drive=[0, 0])


_SOURCES = {"zero": ZeroSource(), "double_power": DoublePower(2.0, 1.0, 0.0)}


@pytest.mark.parametrize("n_probes", [1, 2, 3, 4])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("source", sorted(_SOURCES))
def test_coupled_rows_match_the_oracle(source, forced, n_probes):
    m = build_model(8, math.pi, 0.5, 64)
    rng = np.random.default_rng(11)
    start = make_initial_state(m, rng, 1.0)
    other = make_initial_state(m, rng, 1.0)
    starts = [start]
    for j in (2, 4, 6, 8)[:n_probes]:
        a = start.a.copy()
        a[j - 1] += 1e-3
        starts.append(ModalState(a, start.b.copy(), 0.0))
    h = rng.standard_normal(8) / np.arange(1, 9) ** 2 if forced else np.zeros(8)
    forcing = Forcing(0.7, h)
    law = K2Constant(0.8)
    cfg = IntegratorConfig(dt=1e-2, horizon=2.0, alpha=1.0, sample_stride=3)

    times, au, bu, az, bz = _integrate_decomposed(
        m, _SOURCES[source], law, forcing, starts, cfg
    )
    for p, s in enumerate(starts):
        ref = _oracle_rows(m, _SOURCES[source], law, forcing, s, cfg)
        assert np.array_equal(times, ref.times)
        # the oracle's row 0 is u, row 1 is z
        wants = (ref.amat[:, 0], ref.bmat[:, 0], ref.amat[:, 1], ref.bmat[:, 1])
        for got, want in zip((au, bu, az, bz), wants):
            _assert_same_rows(got[:, p], want)

    # v, the linear forced run, is the ZeroSource batch row of the same start
    v, _ = integrate_batch(m, ZeroSource(), law, [forcing] * 2, [start, other], cfg)
    ref = strang(m, ZeroSource(), law, forcing.effective, cfg, start.a, start.b)
    _assert_same_rows(v.a, ref.amat)
    _assert_same_rows(v.b, ref.bmat)


def _assert_same_rows(got, want):
    # the kernel fuses the two half kicks that meet between steps into one
    # update of b, so it agrees with the kick-by-kick loop to the fused
    # kick's 1e-12 of the largest entry (an all-zero row exactly)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_decomposition_blow_up_raises():
    # a step far beyond the kick's range under a strong cubic source: a loop
    # with no checks, as the oracle is, fills most samples with NaN
    m = build_model(4, math.pi, 0.0, 32)
    law = K2Constant(1.0)
    src = DoublePower(2.0, 1.0, 0.0)
    zero = Forcing.zero(4)
    start = ModalState(10.0 * np.array([1.0, 0.5, 0.2, 0.1]), np.zeros(4))
    cfg = IntegratorConfig(dt=0.5, horizon=50.0, alpha=1.0)

    with np.errstate(all="ignore"):
        ref = _oracle_rows(m, src, law, zero, start, cfg)
    assert not np.all(np.isfinite(ref.amat[:, 0]))

    with pytest.raises(BlowUpError) as info:
        exp_decomposition(m, law, src, zero, start, start, cfg, probe_modes=(1, 2, 3, 4))
    assert info.value.step == 100
    assert info.value.time == pytest.approx(50.0)
