"""Float arrays as the text ``"%.17g"`` writes, in one vectorised pass.

:func:`fields` turns a float array into the bytes ``"%.17g"`` gives for
each value, as a fixed-width uint8 layout with NUL bytes where a character
is absent; :func:`text` drops the NULs.  ``analysis.landscape_csv`` and
``ioutil.dumps`` lay the fields out in row blocks of about ``BLOCK_CELLS``
values, so their scratch memory is one block's, whatever the grid.  This
module is imported only where a float array is rendered, after numpy.
"""

from __future__ import annotations

import numpy as np

# Values rendered per block: a block's scratch arrays stay in cache and under
# the allocator's threshold for fresh pages.
BLOCK_CELLS = 8192

# 10^m, exact as a double for m <= 22, with its Veltkamp halves (high, low)
# for Dekker's exact product: _SPLIT * x, rounded, splits x into two 26-bit halves.
_SPLIT = 134217729.0  # 2^27 + 1
_POW10 = tuple(float(10 ** m) for m in range(22))
_POW10_HI = tuple(_SPLIT * p - (_SPLIT * p - p) for p in _POW10)
_POW10_LO = tuple(p - h for p, h in zip(_POW10, _POW10_HI))


def _scaled(a, k):
    """round-half-even(a 10^(16 - k)) as int64, exactly: Dekker's TwoProduct
    gives the product as p + e with no rounding, one rounding per ufunc, and
    p >= 2^53 is an even integer, so p + rint(e) rounds the sum correctly."""
    scale, hi, lo = np.array((_POW10, _POW10_HI, _POW10_LO)).take(16 - k, axis=1)
    p = a * scale
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    e = ((ah * hi - p) + ah * lo + al * hi) + al * lo
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def fields(values):
    """``"%.17g" % x`` for each x of a 1-D float array, as the columns of a
    (width, n) uint8 array, NUL where a character is absent.

    For 1e-4 <= |x| < 1e16, where ``%.17g`` is positional, the 17 digits are
    D = round-half-even(|x| 10^(16 - k)) for the decade k of |x|: k comes
    from log10 and is corrected once where D falls outside [10^16, 10^17).
    Trailing fraction zeros are dropped, and the point when no fraction is
    left.  Every other finite value (0, -0, exponent form, subnormals) is
    formatted by ``"%.17g"`` one value at a time; a non-finite value renders
    as ``%.17g`` does, and the callers refuse it first.
    """
    values = values.astype(np.float64, copy=False)
    n = values.size
    if not n:
        return np.zeros((0, 0), np.uint8)
    a = np.abs(values)
    other = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)))  # NaN too, though callers refuse it first
    a[other] = 1.0  # any positional value, so that log10 sees no zero or non-finite value
    k = np.floor(np.log10(a)).astype(np.intp)
    D = _scaled(a, k)
    wrong = np.flatnonzero((D - 10 ** 16).view(np.uint64) >= 9 * 10 ** 16)  # D outside [10^16, 10^17)
    if wrong.size:  # log10 rounded across a power of ten
        k[wrong] += np.where(D[wrong] < 10 ** 16, -1, 1)
        D[wrong] = _scaled(a[wrong], k[wrong])
    # the 17 digits: D = lead 10^16 + rest, and rest splits into two 8-digit
    # halves, four 4-digit quarters and eight 2-digit pairs
    lead = D // 10 ** 16
    rest = D - lead * 10 ** 16
    halves = np.empty((2, n), np.int32)
    halves[0] = rest // 10 ** 8
    halves[1] = rest - halves[0].astype(np.int64) * 10 ** 8  # the product overflows int32
    quarters = np.empty((4, n), np.int32)
    quarters[0::2] = halves // 10 ** 4
    quarters[1::2] = halves - quarters[0::2] * 10 ** 4
    pairs = np.empty((8, n), np.uint8)
    np.floor_divide(quarters, 100, out=pairs[0::2], casting="unsafe")
    np.subtract(quarters, pairs[0::2] * np.int32(100), out=pairs[1::2], casting="unsafe")
    digits = np.empty((17, n), np.uint8)
    np.add(lead, 48, out=digits[0], casting="unsafe")
    tens = pairs // 10
    np.add(tens, 48, out=digits[1::2])
    np.subtract(pairs + 48, tens * 10, out=digits[2::2])
    # digit j is kept up to the last nonzero digit, and always in the integer part
    j = np.arange(17, dtype=np.int8)[:, None]
    last = ((digits != 48) * j).max(axis=0)
    digits *= j <= np.maximum(k.astype(np.int8), last)
    # Layout: the sign; "0." and the zeros of the decades below 1; the digits,
    # with a slot for the point after digit j for each j >= 0 among the decades
    lo, hi = int(k.min()), int(k.max())
    negative = values < 0
    sign = int(negative.any())
    zeros = max(0, 1 - lo)
    slots = range(max(lo, 0), min(hi, 15) + 1)
    width = sign + zeros + 17 + len(slots)
    if other.size:
        formatted = np.array(["%.17g" % x for x in values[other].tolist()], dtype="S")
        width = max(width, formatted.itemsize)
    cols = np.zeros((width, n), np.uint8)
    if sign:
        np.multiply(negative, 45, out=cols[0], casting="unsafe")
    for i in range(zeros):
        below = k < (0 if i < 2 else 1 - i)
        np.multiply(below, 46 if i == 1 else 48, out=cols[sign + i], casting="unsafe")
    row, done = sign + zeros, 0
    point = last > k
    for slot in slots:
        cols[row:row + slot + 1 - done] = digits[done:slot + 1]
        row += slot + 1 - done
        np.multiply((k == slot) & point, 46, out=cols[row], casting="unsafe")
        row, done = row + 1, slot + 1
    cols[row:row + 17 - done] = digits[done:]
    if other.size:
        cols[:, other] = 0
        cols[:formatted.itemsize, other] = formatted.view(np.uint8).reshape(other.size, -1).T
    return cols


def text(layout) -> str:
    """The text of a uint8 layout, its NUL bytes dropped."""
    return layout.tobytes().translate(None, b"\0").decode("ascii")


def row_blocks(rows: int, cols: int) -> list:
    """Bounds of consecutive row blocks of about ``BLOCK_CELLS`` values,
    as even as whole rows allow."""
    count = max(1, min(rows, -(-rows * cols // BLOCK_CELLS)))
    return [rows * i // count for i in range(count + 1)]


def json_rows(rows, level: int) -> str:
    """JSON text of a non-empty 1-D or 2-D float array, as ``ioutil.dumps``
    writes the lists ``rows.tolist()`` gives at nesting ``level``.  Each row
    is one line of a fixed-width layout, the cells of which are a value and
    ", ".  A row is never split, so a 1-D array is one block.  The blocks'
    text is joined once, and no other copy of it is made."""
    flat = rows.ndim == 1
    rows = rows.reshape(1, -1) if flat else rows
    prefix, suffix = (b"[", b"]") if flat else (b"  " * (level + 1) + b"[", b"],\n")
    count = rows.shape[1]
    bounds = row_blocks(*rows.shape)
    blocks = []
    for lo, hi in zip(bounds, bounds[1:]):
        cols = fields(rows[lo:hi].ravel())
        width = len(cols)
        end = len(prefix) + count * (width + 2)
        layout = np.empty((hi - lo, end + len(suffix)), np.uint8)
        layout[:, :len(prefix)] = np.frombuffer(prefix, np.uint8)
        cells = layout[:, len(prefix):end].reshape(hi - lo, count, width + 2)
        cells[:, :, :width] = cols.T.reshape(hi - lo, count, width)
        cells[:, :, width:] = np.frombuffer(b", ", np.uint8)
        layout[:, end - 2:end] = 0  # no ", " after a row's last value
        layout[:, end:] = np.frombuffer(suffix, np.uint8)
        if hi == len(rows):
            layout[-1, end + 1:] = 0  # nor ",\n" after the last row's "]"
        blocks.append(text(layout))
    return "".join(blocks) if flat else "".join(["[\n", *blocks, "\n", "  " * level, "]"])
