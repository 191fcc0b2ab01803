"""The CSV writer formats values in numpy; its text must be the bytes of
``"%.17g" % v`` for every double, including the ones it hands back to
CPython (0, inf, nan, the values outside its power-of-ten table and exact
ties)."""

import numpy as np

from edbeam.series import _X_MAX, _X_MIN, write_csv

WIDTH = 8  # values per CSV row: both separators occur


def _mismatches(tmp_path, values):
    """The values whose written text differs from ``"%.17g" % v``."""
    values = np.asarray(values, dtype=np.float64)
    values = np.append(values, np.zeros(-values.size % WIDTH)).reshape(-1, WIDTH)
    row = ",".join(["%.17g"] * WIDTH) + "\n"
    path = tmp_path / "values.csv"
    bad = []
    for start in range(0, len(values), 2**14):
        block = values[start : start + 2**14]
        write_csv(path, ["x"] * WIDTH, [block])
        written = path.read_bytes().split(b"\n", 1)[1]
        if written != (row * len(block) % tuple(block.ravel().tolist())).encode():
            cells = written.replace(b"\n", b",").split(b",")[:-1]
            bad += [(v, c) for v, c in zip(block.ravel().tolist(), cells) if c != b"%.17g" % v]
    return bad


def _with_neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    near = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
    return np.concatenate([near, -near])


def test_random_bit_patterns(tmp_path):
    # every exponent, subnormals, both signs, infs and nans with payloads
    bits = np.random.default_rng(28).integers(0, 2**64, size=10**6, dtype=np.uint64)
    assert _mismatches(tmp_path, bits.view(np.float64)) == []


def test_special_values(tmp_path):
    biggest = np.finfo(np.float64).max
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, biggest, -biggest]
    assert _mismatches(tmp_path, values) == []


def test_powers_of_two_and_ten_and_their_neighbours(tmp_path):
    twos = 2.0 ** np.arange(-1074, 1024)
    tens = np.array([float(f"1e{q}") for q in range(-323, 309)])
    assert _mismatches(tmp_path, _with_neighbours(np.concatenate([twos, tens]))) == []


def test_edges_of_the_table(tmp_path):
    edges = _with_neighbours([_X_MIN, _X_MAX, _X_MIN / 10, _X_MAX / 10, _X_MIN * 10, _X_MAX * 10])
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2 * edges)])
    assert _mismatches(tmp_path, near) == []


def test_exact_ties_round_half_even(tmp_path):
    # n + 1/4 and n + 3/4 have 18 significant digits for n in [1e15, 2**51)
    # and are exact doubles, so the 17th digit is a tie that goes to even
    n = np.random.default_rng(5).integers(10**15, 2**51, size=20000)
    n = np.concatenate([[10**15, 2**51 - 1], n]).astype(np.float64)
    ties = np.concatenate([n + 0.25, n + 0.75])
    assert np.all(ties - np.concatenate([n, n]) == np.repeat([0.25, 0.75], n.size))
    assert "%.17g" % ties[0] == "1000000000000000.2"
    assert _mismatches(tmp_path, np.concatenate([ties, -ties])) == []


def test_decimal_grids(tmp_path):
    # short decimals such as sample times, whose 17-digit text ends in zeros
    k = np.arange(1, 50001)
    assert _mismatches(tmp_path, np.concatenate([k * 0.01, k * 0.001, k * 1.0, k * 1e-5])) == []
