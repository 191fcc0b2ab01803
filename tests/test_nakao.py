import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edbeam import experiments, haraux_check, nakao
from edbeam.experiments import ExperimentReport, haraux_suite, nakao_suite
from edbeam.nakao import (
    CONCLUSION_TOL,
    _c0s,
    _check_rows,
    _draw_rows,
    _envelope,
    _residuals,
    _Rows,
    _verify_draws,
)
from edbeam.nakao import _windows as _window_rows


# The problem generator as it was before candidates were filtered a block at
# a time, kept verbatim as the reference for the block path.


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


def _c0_from_windows(sup, drop, K):
    """Smallest C0 closing every window ``(sup, drop)``, or None."""
    need = sup - K[: len(drop)]
    active = need > 0.0
    if np.any(active & (drop <= 0.0)):
        return None
    if not np.any(active):
        return 1.0
    return float(np.max(need[active] / drop[active]))


def _draw(rng, rho, max_resample=200):
    """One random instance as ``(m, phi, K, C0, residual)``, on the grid
    ``arange(len(phi)) / m``; ``residual`` <= 0 is its hypothesis residual."""
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


def _pad(draws):
    """Draws of :func:`_draw` as the zero-padded rows of one block."""
    steps, phis, Ks, C0, residual = zip(*draws)
    n = np.array([len(y) for y in phis])
    live = np.arange(n.max()) < n[:, None]
    phi = np.zeros(live.shape)
    K = np.zeros(live.shape)
    phi[live] = np.concatenate(phis)
    K[live] = np.concatenate(Ks)
    return _Rows(np.array(steps), live, phi, K, np.array(C0, float), np.array(residual, float))


def _assert_rows_are(rows, draws):
    """``rows`` hold ``draws`` bitwise, with zero phi on the padding; K is
    compared on live samples, since a block continues it past a row's end."""
    expected = _pad(draws)
    assert rows.m.tolist() == expected.m.tolist()
    assert np.array_equal(rows.live, expected.live)
    assert rows.phi.tobytes() == expected.phi.tobytes()
    assert rows.K[rows.live].tobytes() == expected.K[expected.live].tobytes()
    assert rows.C0.tobytes() == expected.C0.tobytes()
    assert rows.residual.tobytes() == expected.residual.tobytes()


def _row(phi, C0, K=None, m=1):
    """One instance as a padded block of one row, its residual left nan."""
    phi = np.asarray(phi, dtype=float)
    K = np.zeros_like(phi) if K is None else np.asarray(K, dtype=float)
    return _pad([(m, phi, K, C0, np.nan)])


def _row_windows(rows, rho):
    """The windows of :func:`_window_rows` over each row's live samples."""
    return _window_rows(rows.phi, rows.m, np.count_nonzero(rows.live, axis=1), rho)


def _verify(phi, C0, rho, K=None, m=1):
    """Hypothesis residual and worst conclusion margin of one instance,
    through the row functions."""
    rows = _row(phi, C0, K, m)
    sup, drop, valid = _row_windows(rows, rho)
    rows = rows._replace(residual=_residuals(sup, drop, rows.C0, rows.K, valid))
    residual, worst = _verify_draws(rows, rho)
    return float(residual[0]), float(worst[0])


def _bounds(phi, C0, rho, K=None, m=1):
    """The envelope at each grid point of one instance."""
    phi = np.asarray(phi, dtype=float)
    K = np.zeros_like(phi) if K is None else np.asarray(K, dtype=float)
    t = np.arange(len(phi)) / m
    sup01 = np.full(t.shape, np.max(phi[: m + 1]))
    return _envelope(t, K, sup01, np.full(t.shape, float(C0)), rho)


def test_zero_phi_boundary_case():
    residual, worst = _verify(np.zeros(6), C0=1.0, rho=0.0)
    assert residual == 0.0
    assert worst <= CONCLUSION_TOL


def test_geometric_sequence_minimal_constant():
    # phi(t) = 2^-floor(t): C0 = 1 fails by phi(t)/2, C0 = 2 is exact
    phi = 2.0 ** -np.arange(6.0)
    residual, _ = _verify(phi, C0=1.0, rho=0.0)
    assert residual == pytest.approx(0.5, abs=1e-15)

    residual, worst = _verify(phi, C0=2.0, rho=0.0)
    assert residual == pytest.approx(0.0, abs=1e-15)
    assert worst <= CONCLUSION_TOL
    rows = _row(phi, C0=1.0)
    sup, drop, valid = _row_windows(rows, 0.0)
    assert _c0s(sup, drop, rows.K, valid).tolist() == [2.0]


def test_constant_phi_with_matching_offset():
    c = 0.8
    rho = 0.5
    phi = np.full(5, c)
    K = np.full(5, c ** (1.0 + rho))
    residual, worst = _verify(phi, C0=3.0, rho=rho, K=K)
    assert residual == pytest.approx(0.0, abs=1e-15)
    assert worst <= CONCLUSION_TOL


def test_bound_reference_values():
    assert _bounds(np.ones(10), C0=1.0, rho=0.0)[3] == pytest.approx(0.125, abs=1e-15)

    bound = _bounds(np.ones(91), C0=5.0, rho=1.0, m=10)
    assert bound[0] == pytest.approx(1.0, abs=1e-15)
    assert bound[7] == pytest.approx(1.0, abs=1e-15)  # t = 0.7, (t-1)+ = 0

    # (rho/C0 * (9-1) + 1)^-1 = 1/2
    assert _bounds(np.ones(10), C0=8.0, rho=1.0)[9] == pytest.approx(0.5, abs=1e-15)


def test_bound_is_geometric_for_rho_zero():
    bound = _bounds(np.linspace(1.0, 0.2, 9), C0=3.0, rho=0.0)
    ratio = 3.0 / (1.0 + 3.0)
    for t in (0, 1, 2, 5):
        assert bound[t + 1] / bound[t] == pytest.approx(ratio, rel=1e-14)


def test_bound_monotone_for_constant_K():
    phi = np.linspace(2.0, 0.1, 49)
    K = np.full(49, 0.3)
    for rho in (0.0, 0.5, 2.0):
        vals = _bounds(phi, C0=4.0, rho=rho, K=K, m=4).tolist()
        assert all(b - a <= 1e-14 for a, b in zip(vals, vals[1:]))


def test_degenerate_sup_convention():
    phi = np.zeros(8)
    K = np.linspace(0.0, 0.5, 8)
    assert _bounds(phi, C0=1.0, rho=1.0, K=K)[7] == pytest.approx(0.5**0.5, rel=1e-14)
    residual, worst = _verify(phi, C0=1.0, rho=1.0, K=K)
    assert residual <= 0.0
    assert worst <= CONCLUSION_TOL


def test_grid_validation():
    live = np.ones((1, 6), dtype=bool)
    ones, zeros = np.ones((1, 6)), np.zeros((1, 6))
    # spacing that does not divide 1
    with pytest.raises(ValueError, match="grid spacing 0.3 must divide 1"):
        _check_rows(np.arange(6)[None] * 0.3, ones, zeros, [1.0], 0.0, live)
    # decreasing K is rejected
    K = np.array([[1.0, 0.5, 0.4, 0.3, 0.3, 0.3]])
    with pytest.raises(ValueError, match="K must be non-decreasing"):
        _check_rows(np.arange(6.0)[None], ones, K, [1.0], 0.0, live)
    # grid must start at zero
    with pytest.raises(ValueError, match="grid must start at t = 0"):
        _check_rows(1.0 + np.arange(6.0)[None], ones, zeros, [1.0], 0.0, live)
    # short grid: the residual needs at least one unit window
    with pytest.raises(ValueError, match="3 samples hold no window of 5"):
        _row_windows(_row(np.ones(3), C0=1.0, m=4), 0.0)


def test_minimal_c0_infeasible_window():
    # flat phi with sup above K admits no finite constant
    rows = _row(np.array([1.0, 1.0, 1.0]), C0=1.0)
    sup, drop, valid = _row_windows(rows, 0.0)
    assert np.isnan(_c0s(sup, drop, rows.K, valid)[0])


def test_generator_soundness_small_batch():
    rng = np.random.default_rng(123)
    for rho in (0.0, 0.5, 1.0, 2.0):
        for _ in range(50):
            residual, worst = _verify_draws(_draw_rows(rng, rho, 1), rho)
            assert residual[0] <= 0.0
            assert worst[0] <= CONCLUSION_TOL, (rho, worst[0])


def test_haraux_examples():
    lhs, _, ok = haraux_check([[1.0, 2.0]], [[1.0, 2.0]], [3.0])
    assert lhs[0] == 0.0 and ok[0]
    lhs, rhs, ok = haraux_check([[2.0]], [[1.0]], [2.0])
    assert lhs[0] == pytest.approx(3.0)
    assert rhs[0] == pytest.approx(4.0)
    assert ok[0]
    with pytest.raises(ValueError):
        haraux_check([[1.0]], [[1.0]], [0.5])


def test_haraux_tight_for_parallel_r1():
    u = np.array([[1.0, 2.0, -1.0]])
    lhs, rhs, _ = haraux_check(u, 2.5 * u, [1.0])
    assert abs(lhs[0] - rhs[0]) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    r=st.floats(min_value=1.0, max_value=6.0),
    dim=st.integers(min_value=1, max_value=6),
)
def test_haraux_property(seed, r, dim):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((1, dim)) * 10.0 ** rng.uniform(-2, 2)
    v = rng.standard_normal((1, dim)) * 10.0 ** rng.uniform(-2, 2)
    assert haraux_check(u, v, [r])[2][0]


def _scalar_bound(draw, rho, i):
    """The envelope at grid point ``i`` of a draw in Python floats, the
    reference for the row envelope."""
    m, phi, K, C0, _ = draw
    t = i / m
    sup01 = float(np.max(phi[: m + 1]))
    kt = float(K[i])
    if rho == 0.0:
        return sup01 * (C0 / (1.0 + C0)) ** math.floor(t) + kt
    k_term = kt ** (1.0 / (rho + 1.0))
    if sup01 == 0.0:
        return k_term
    tplus = max(t - 1.0, 0.0)
    return (rho / C0 * tplus + sup01 ** (-rho)) ** (-1.0 / rho) + k_term


@pytest.mark.parametrize("m", [1, 2, 4, 5, 10])
def test_windows_match_sliding_window_maxima(m):
    # rows of m steps per unit share a padded block with rows of another m
    rng = np.random.default_rng(m)
    other = 10 if m < 10 else 4
    steps = [m, m, m, other, other]
    sizes = [m + 1, m + 2, 6 * m + 1, other + 1, 3 * other + 1]
    paths = []
    for n in sizes:
        phi = rng.uniform(0.0, 2.0, size=n)  # not monotone
        phi[rng.random(n) < 0.2] = 0.0
        paths.append(phi)
    live = np.arange(max(sizes)) < np.array(sizes)[:, None]
    block = np.zeros(live.shape)
    block[live] = np.concatenate(paths)
    for rho in (0.0, 0.5, 2.0):
        sup, drop, valid = _window_rows(block, np.array(steps), np.array(sizes), rho)
        for b, (phi, k) in enumerate(zip(paths, steps)):
            ref = np.max(np.lib.stride_tricks.sliding_window_view(phi, k + 1), axis=1)
            assert valid[b].tolist() == (np.arange(block.shape[1]) < len(ref)).tolist()
            assert sup[b, valid[b]].tobytes() == (ref ** (1.0 + rho)).tobytes()
            assert drop[b, valid[b]].tobytes() == (phi[: len(ref)] - phi[k:]).tobytes()
            assert sup[b, valid[b]].tobytes() == _windows(phi, k, rho)[0].tobytes()
    # a row of m samples holds no window of m + 1, beside rows that do
    with pytest.raises(ValueError) as short:
        _window_rows(block, np.array(steps), np.array([*sizes[:4], other]), 0.0)
    assert str(short.value) == f"{other} samples hold no window of {other + 1}"
    with pytest.raises(ValueError):
        _window_rows(np.ones((1, m)), np.array([m]), np.array([m]), 0.0)


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
    assert rows[0].tobytes() == lhs.tobytes()
    assert rows[1].tobytes() == rhs.tobytes()
    assert np.array_equal(rows[2], ok)


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
    with pytest.raises(ValueError):
        haraux_check(np.ones(3), np.ones(3), 2.0)  # one vector pair is not a row


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


def _hand_draws(rho):
    """Short rows the generator never makes: phi zero on the first window
    with K(0) > 0, and a first-window maximum at the window's last sample
    or just past it."""
    rows = [
        (1, np.zeros(4), np.array([0.2, 0.2, 0.3, 0.5])),
        (2, np.zeros(7), np.linspace(0.1, 0.4, 7)),
        (2, np.array([0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0]), np.ones(7)),
        (2, np.array([0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0]), np.ones(7)),
    ]
    return [(m, phi, K, 1.0, _residual(*_windows(phi, m, rho), 1.0, K)) for m, phi, K in rows]


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0, 2.0])
def test_block_verdicts_match_the_scalar_formula(rho):
    for seed in (0, 1, 2):
        rng_rows, rng_block = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = [_draw(rng_rows, rho) for _ in range(100)] + _hand_draws(rho)
        assert all(d[4] <= 0.0 for d in draws)
        # three hand rows have a vanishing early sup
        degenerate = [np.max(phi[: m + 1]) == 0.0 for m, phi, *_ in draws]
        assert sum(degenerate) == 3
        block = _pad(draws)
        # the row functions give the reference's hypothesis residuals
        sup, drop, valid = _row_windows(block, rho)
        rows_residual = _residuals(sup, drop, block.C0, block.K, valid)
        assert rows_residual.tobytes() == block.residual.tobytes()
        residual, worst = _verify_draws(block, rho)
        assert residual.tobytes() == block.residual.tobytes()
        # the scalar formula shares no code with the rows
        scalar = [max(d[1][i] - _scalar_bound(d, rho, i) for i in range(len(d[1]))) for d in draws]
        assert worst.tobytes() == np.array(scalar).tobytes()
        # the block path draws the reference's instances, leaves the
        # generator where it does, and verifies them the same way
        rows = _draw_rows(rng_block, rho, 100)
        assert rng_block.random() == rng_rows.random()
        _assert_rows_are(rows, draws[:100])
        block_residual, block_worst = _verify_draws(rows, rho)
        assert block_residual.tobytes() == residual[:100].tobytes()
        assert block_worst.tobytes() == worst[:100].tobytes()


def _per_problem_suite(seed, trials, rhos=(0.0, 0.5, 1.0, 2.0)):
    """nakao_suite one reference draw at a time, bounded by the scalar formula."""
    rng = np.random.default_rng(seed)
    report = ExperimentReport("nakao_suite", seed=seed)
    worst = -math.inf
    violations = 0
    total = 0
    for rho in rhos:
        for _ in range(trials):
            draw = _draw(rng, rho)
            total += 1
            if not draw[4] <= 0.0:
                violations += 1
                continue
            phi = draw[1]
            margin = max(phi[i] - _scalar_bound(draw, rho, i) for i in range(len(phi)))
            worst = max(worst, margin)
            if not margin <= CONCLUSION_TOL:
                violations += 1
    report.add(
        "soundness",
        violations == 0,
        f"{violations} violations in {total} trials, worst margin {worst:.3g}",
    )
    report.metrics["worst_margin"] = worst
    report.metrics["trials"] = total
    return report


@pytest.mark.parametrize("trials", [1, 63, 64, 65, 129])
def test_nakao_suite_blocks_match_the_per_problem_loop(trials, monkeypatch):
    blocks = []

    def counting(rows, rho):
        blocks.append(len(rows.m))
        return _verify_draws(rows, rho)

    monkeypatch.setattr(experiments, "_verify_draws", counting)
    report = nakao_suite(seed=5, trials=trials)
    assert sum(blocks) == 4 * trials
    assert len(blocks) == 4 * -(-trials // experiments.NAKAO_BLOCK)
    reference = _per_problem_suite(5, trials)
    assert report.to_text() == reference.to_text()
    assert report.metrics == reference.metrics
    assert report.passed and report.metrics["worst_margin"] <= CONCLUSION_TOL


def test_step_pick_draws_the_stream_of_choice():
    # the candidates index a tuple where the reference called rng.choice
    for seed in (0, 1, 2):
        by_choice, by_index = np.random.default_rng(seed), np.random.default_rng(seed)
        picks = [int(by_choice.choice([1, 2, 4, 5, 10])) for _ in range(1000)]
        assert picks == [(1, 2, 4, 5, 10)[by_index.integers(0, 5)] for _ in range(1000)]
        assert by_choice.random() == by_index.random()


_CANDIDATES = nakao._candidates


def _reject(monkeypatch, positions):
    """Make the candidates at ``positions`` of the stream infeasible, phi
    flat at its scale over K = 0, without changing the generator calls;
    returns the size of each round of candidates."""
    rounds = []

    def rejecting(rng, count):
        candidates = _CANDIDATES(rng, count)
        for i, (m, n, *_, scale, _jumps, _uniforms) in enumerate(candidates):
            if sum(rounds) + i in positions:
                candidates[i] = (m, n, 0, np.ones(n - 1), 0, scale, (), ())
        rounds.append(count)
        return candidates

    monkeypatch.setattr(nakao, "_candidates", rejecting)
    return rounds


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_rejected_candidates_are_skipped_in_stream_order(rho, monkeypatch):
    rejected = {0, 3, 4, 11}
    rounds = _reject(monkeypatch, rejected)
    rng_rows, rng_ref = np.random.default_rng(8), np.random.default_rng(8)
    rows = _draw_rows(rng_rows, rho, 10)
    # the reference rejects none of the first 14 candidates; drop the four
    draws = [_draw(rng_ref, rho) for _ in range(14)]
    _assert_rows_are(rows, [d for i, d in enumerate(draws) if i not in rejected])
    assert rounds == [10, 3, 1]
    assert rng_rows.random() == rng_ref.random()
    # one instance at a time skips the same candidates
    rounds.clear()
    rng_one = np.random.default_rng(8)
    ones = [_draw_rows(rng_one, rho, 1) for _ in range(10)]
    kept = [d for i, d in enumerate(draws) if i not in rejected]
    for one, d in zip(ones, kept):
        _assert_rows_are(one, [d])


def test_resample_limit_counts_consecutive_rejections(monkeypatch):
    with pytest.raises(RuntimeError) as reference:
        _draw(np.random.default_rng(3), 0.5, max_resample=0)
    _reject(monkeypatch, set(range(199)))
    rows = _draw_rows(np.random.default_rng(3), 0.5, 1)
    assert rows.residual[0] <= 0.0
    # an accepted candidate restarts the count
    _reject(monkeypatch, set(range(150)) | set(range(151, 301)))
    rows = _draw_rows(np.random.default_rng(3), 0.5, 2)
    assert len(rows.m) == 2 and np.all(rows.residual <= 0.0)
    for count in (1, 3):
        _reject(monkeypatch, set(range(200)))
        with pytest.raises(RuntimeError) as block:
            _draw_rows(np.random.default_rng(3), 0.5, count)
        assert str(block.value) == str(reference.value)


def _broken(draw, name, index, value):
    m, phi, K, C0, residual = draw
    phi, K = phi.copy(), K.copy()
    (phi if name == "phi" else K)[index] = value
    return m, phi, K, C0, residual


@pytest.mark.parametrize(
    "break_row, rho, message",
    [
        (lambda d: _broken(d, "phi", 3, np.nan), 0.5, "series values must be finite"),
        (lambda d: _broken(d, "phi", 3, -0.25), 0.5, "phi and K must be non-negative"),
        (lambda d: _broken(d, "K", 2, -0.25), 0.5, "phi and K must be non-negative"),
        (lambda d: _broken(d, "K", 1, d[2][2] + 0.5), 0.5, "K must be non-decreasing"),
        (lambda d: (*d[:3], 0.0, d[4]), 0.5, "C0 must be > 0, got 0.0"),
        (lambda d: (*d[:3], np.nan, d[4]), 0.5, "C0 must be > 0, got nan"),
        (lambda d: d, -0.5, "rho must be >= 0, got -0.5"),
        (lambda d: (1 / 0.3, *d[1:]), 0.5, "grid spacing 0.3 must divide 1"),
        # failed in numpy's reduction over the empty spacing
        (
            lambda d: (d[0], d[1][:1], d[2][:1], *d[3:]),
            0.5,
            "grid must have at least two samples",
        ),
    ],
    ids=[
        "phi_nan",
        "phi_negative",
        "K_negative",
        "K_decreasing",
        "C0_zero",
        "C0_nan",
        "rho_negative",
        "spacing",
        "one_sample",
    ],
)
def test_block_rejects_each_broken_invariant(break_row, rho, message):
    rng = np.random.default_rng(4)
    draws = [_draw(rng, 0.5) for _ in range(12)]
    draws[7] = break_row(draws[7])
    with pytest.raises(ValueError) as block:
        _verify_draws(_pad(draws), rho)
    assert str(block.value) == message
    # the rows before the broken one pass
    assert _verify_draws(_pad(draws[:7]), 0.5)[0].shape == (7,)


def test_row_checks_reject_a_shifted_or_uneven_grid():
    rng = np.random.default_rng(6)
    phi = rng.uniform(0.0, 1.0, size=(3, 9))
    K = np.zeros((3, 9))
    live = np.ones((3, 9), dtype=bool)
    t = np.tile(np.arange(9) / 2, (3, 1))
    assert _check_rows(t, phi, K, np.ones(3), 0.0, live).tolist() == [2, 2, 2]
    for row, message in (
        (t[1] + 0.5, "grid must start at t = 0"),
        (t[1] + np.where(np.arange(9) > 4, 0.01, 0.0), "grid must be uniform"),
    ):
        bad = t.copy()
        bad[1] = row
        with pytest.raises(ValueError) as block:
            _check_rows(bad, phi, K, np.ones(3), 0.0, live)
        assert str(block.value) == message
