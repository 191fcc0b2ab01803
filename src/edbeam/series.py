"""Time-sampled scalar series and their CSV export."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["SampledSeries", "write_csv"]


# Rows are formatted a block of about this many values at a time, so the
# temporaries stay small.  On a 2-vCPU Xeon, 2048 wrote the trajectory
# tables faster than 1024, 4096 or 8192.
_BLOCK_VALUES = 2048

# Values with 1e-280 <= |x| < 1e281 are formatted by array arithmetic.  The
# scale factors 10**q, q = 16 - K, that this needs (with a decade of margin
# either side for an estimate of K that is off by one) stay normal, and
# Dekker's split of them cannot overflow.
_X_MIN, _X_MAX = 1e-280, 1e281
_Q_MIN, _Q_MAX = 16 - 282, 16 + 282
_K_MAX = 300  # exponents -300..300 have a row in the exponent table

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for doubles
_D_MIN, _D_MAX = 10**16, 10**17  # the range of a 17-digit integer

# A value's text is laid out in a row of 14 little-endian uint32 words; the
# columns (bytes) its layout does not use are dropped.
#   1      "-"
#   2..6   "0.000", the start of the fixed form below 1 ("0." and up to
#          three zeros)
#   7..23  the 17 digits, of which the integer part (or the one digit before
#          the point of the exponent form) is kept
#   27     "."
#   28..43 the last 16 digits again, of which the fraction is kept
#   48..52 "e", the exponent's sign and three exponent digits
#   53     the separator, "," or a newline
# Columns 0, 24..26, 44..47 and 54..55 are never kept.
_WORDS = 14
_WIDTH = 4 * _WORDS
_SIGN_POINT = int.from_bytes(b"\0-0.", "little")
_POINT = int.from_bytes(b"\0\0\0.", "little")
# The forms are 0..20, fixed with exponent K = form - 4, and 21 and 22, the
# exponent form with two and with three exponent digits.  A layout is a
# (sign, form, number of significant digits nsig) and has the code
# (sign * _FORMS + form) * 17 + nsig - 1.
_FORMS = 23


@functools.cache
def _tables():
    """The formatter's lookup tables, built on first use:

    - 10**q for q = _Q_MIN.._Q_MAX as four rows (hi, hi's Dekker halves,
      lo), hi and lo each correctly rounded, so that hi + lo carries 106 bits;
    - the ASCII digits of 0..9999, four to a uint32;
    - for 0..9999, the place 1..4 of the last nonzero of its four digits
      (-99 for 0);
    - "e", the sign and the three digits of each exponent -_K_MAX.._K_MAX,
      padded to a uint64;
    - the kept columns of each layout, one _WIDTH-byte row per code.
    """
    pairs = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        hi = num / den  # int / int is correctly rounded
        m, e = hi.as_integer_ratio()
        pairs.append((hi, (num * e - m * den) / (den * e)))
    hi, lo = np.array(pairs).T
    pow10 = np.stack([hi, *_split(hi), lo])

    n = np.arange(10000, dtype=np.int16)
    quads = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    quads = (quads + ord("0")).astype(np.uint8)
    last = np.where(n > 0, np.int16(1) + (n % 10 > 0) + (n % 100 > 0) + (n % 1000 > 0), -99)
    k = np.arange(-_K_MAX, _K_MAX + 1)
    exponents = np.zeros((k.size, 8), dtype=np.uint8)
    exponents[:, 0] = ord("e")
    exponents[:, 1] = np.where(k < 0, ord("-"), ord("+"))
    exponents[:, 2:5] = quads[np.abs(k), 1:]

    sign, form, nsig = np.unravel_index(np.arange(2 * _FORMS * 17), (2, _FORMS, 17))
    nsig = nsig + 1
    k, expo = form - 4, form >= 21
    # the digits kept before the point: one in the exponent form, all of a
    # fixed form below 1, and the K + 1 of the integer part otherwise
    whole = np.where(expo, 1, np.where(k < 0, nsig, k + 1))[:, None]
    layouts = np.zeros((sign.size, _WIDTH), dtype=bool)
    layouts[:, 1] = sign
    layouts[:, 2:7] = np.arange(5) < np.where(expo | (k >= 0), 0, 1 - k)[:, None]
    layouts[:, 7:24] = np.arange(17) < whole
    layouts[:, 27] = nsig > whole[:, 0]
    layouts[:, 28:44] = (np.arange(1, 17) >= whole) & (np.arange(1, 17) < nsig[:, None])
    layouts[:, 48:53] = expo[:, None] & [True, True, False, True, True]
    layouts[:, 50] = form == 22
    layouts[:, 53] = True

    tables = (
        pow10,
        quads.view("<u4").ravel(),
        last,
        exponents.view("<u8").ravel(),
        layouts.view(f"V{_WIDTH}").ravel(),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _split(x):
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _scaled(a, k):
    """floor(a * 10**(16 - k)) as int64 and its fraction, from the
    double-double product of a and the table's 10**(16 - k)."""
    i = (16 - _Q_MIN) - k
    ph, ph_hi, ph_lo, pl = (row[i] for row in _tables()[0])
    prod = a * ph
    a_hi, a_lo = _split(a)
    err = ((a_hi * ph_hi - prod) + a_hi * ph_lo + a_lo * ph_hi) + a_lo * ph_lo
    whole = np.floor(prod)
    rest = (prod - whole) + (err + a * pl)
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _format(x, sep):
    """The ``"%.17g"`` text of each value of the 1-d float64 array ``x``,
    followed by the matching byte of ``sep``, as one uint8 array.

    K = floor(log10|x|) is estimated, |x| * 10**(16 - K) is formed as a
    double-double and rounded to the 17-digit integer D, and the digits of D
    fill a row of the layout above; one boolean compaction keeps the columns
    that %g's layout for (sign, K, significant digits) uses.
    """
    _, quads, last, exponents, layouts = _tables()
    a = np.abs(x)
    zero = a == 0.0
    # inf, nan and the values outside the table fall back to "%.17g" % v
    ok = (a >= _X_MIN) & (a < _X_MAX)
    a = np.where(ok, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _scaled(a, k)
    off = (d >= _D_MAX).astype(np.int64) - (d < _D_MIN)
    if off.any():  # log10 missed a power of ten: rescale by the next decade
        i = np.flatnonzero(off)
        k[i] += off[i]
        d[i], frac[i] = _scaled(a[i], k[i])
        ok[i] &= (d[i] >= _D_MIN) & (d[i] < _D_MAX)
    # a fraction this close to 1/2 may be an exact tie, which "%.17g" breaks
    # to even; it falls back too
    ok &= np.abs(frac - 0.5) >= 2.0**-30
    d += frac > 0.5
    top = d == _D_MAX
    k += top
    d[top] = _D_MIN
    k[~ok] = 0
    d[~ok] = _D_MIN
    d[zero] = 0  # "0" is the fixed form K = 0 with the one digit 0

    # the 17 digits as five 4-digit groups, the first of them "000" + d0
    n = len(x)
    groups = np.empty((5, n), dtype=np.int64)
    for j, p in enumerate((10**16, 10**12, 10**8, 10**4)):
        groups[j] = d // p
        d = d - groups[j] * p
    groups[4] = d
    nsig = np.maximum.reduce(last[groups] + np.array([[-3], [1], [5], [9], [13]], np.int16))
    nsig[zero] = 1

    # %g's layout: the exponent form below 1e-4 and from 1e17 on, trailing
    # fractional zeros stripped, and at least two exponent digits
    expo = (k < -4) | (k >= 17)
    form = np.where(expo, 21 + (np.abs(k) >= 100), k + 4)
    code = (np.signbit(x) * _FORMS + form) * 17 + nsig - 1
    digits = quads[groups].T
    words = np.empty((n, _WORDS), dtype="<u4")
    words[:, 0] = _SIGN_POINT
    words[:, 1:6] = digits
    words[:, 6] = _POINT
    words[:, 7:11] = digits[:, 1:]
    words.view("<u8")[:, 6] = exponents[k + _K_MAX]
    text = words.view(np.uint8)
    text[:, 53] = sep
    keep = layouts[code].view(bool).reshape(n, _WIDTH)
    back = np.flatnonzero(~(ok | zero))
    if back.size:  # at most 24 bytes each, padded with spaces
        fallback = b"".join(b"%-24.17g" % v for v in x[back].tolist())
        fallback = np.frombuffer(fallback, dtype=np.uint8).reshape(-1, 24)
        text[back, 1:25] = fallback
        keep[back, 1:25] = fallback != ord(" ")
        keep[back, 25:53] = False
    return text[keep]


def write_csv(path, header, columns):
    """Write columns side by side as CSV rows at full double precision.

    Each entry of ``columns`` is a 1-d array (one column) or a 2-d array
    (one column per entry of a row), all with one row per line.  Each value
    is written as ``"%.17g" % v`` writes it: 17 significant digits, so it
    reads back bitwise.
    """
    columns = [np.asarray(c) for c in columns]
    width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    rows = max(1, _BLOCK_VALUES // width)
    sep = np.full((rows, width), ord(","), dtype=np.uint8)
    sep[:, -1] = ord("\n")
    sep = sep.ravel()
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, len(columns[0]), rows):
            block = np.column_stack([c[start : start + rows] for c in columns])
            x = block.astype(np.float64).ravel()
            fh.write(_format(x, sep[: x.size]))


@dataclass(frozen=True)
class SampledSeries:
    """(t_i, y_i) pairs with strictly increasing times and finite values."""

    t: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if t.ndim != 1 or y.ndim != 1 or t.shape != y.shape:
            raise ValueError("t and y must be 1-d arrays of equal length")
        if t.size == 0:
            raise ValueError("series must be non-empty")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise ValueError("series values must be finite")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)

    def __len__(self):
        return self.t.shape[0]

    def window(self, t_lo, t_hi) -> "SampledSeries":
        """Restrict to samples with t_lo <= t <= t_hi."""
        mask = (self.t >= t_lo) & (self.t <= t_hi)
        if not np.any(mask):
            raise ValueError(f"no samples in window [{t_lo}, {t_hi}]")
        return SampledSeries(self.t[mask], self.y[mask])
