"""Exact decimal arithmetic for the CSV float kernels of ``formats``.

Powers of ten that are exact doubles, the exact product of a double and one
of them (``_times_power``, which the ``%.17g`` writer uses to find a
value's 17 digits), and the reader of dataset body blocks (``_read_block``),
which reads rows from a binary file and gives every cell the double
``float()`` gives its text.  The module is compiled apart from ``formats``,
the package's largest: a module is compiled whole and the memory its
compile touches stays with the process, so code added to the largest
module raises the process's peak.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np


@functools.cache
def _powers() -> SimpleNamespace:
    """Built on first use: 10**k for k = 0..22 (exact doubles) with their
    Veltkamp halves, and the masks of a word's top c bytes, c = 0..8."""
    powers = np.array([float(10**k) for k in range(23)])
    split = 134217729.0 * powers  # 2**27 + 1
    high = split - (split - powers)
    top = np.array([(1 << 64) - (1 << (64 - 8 * c)) for c in range(9)], np.uint64)
    return SimpleNamespace(powers=powers, high=high, low=powers - high, top=top)


def _times_power(a, k):
    """hi + lo = a * 10**k exactly: Dekker's product of Veltkamp halves,
    its sums taken in place."""
    tables = _powers()
    p_high, p_low = tables.high[k], tables.low[k]
    hi = a * tables.powers[k]
    a_high = 134217729.0 * a
    a_high -= a_high - a
    a_low = a - a_high
    lo = a_high * p_high
    lo -= hi
    a_high *= p_low
    lo += a_high
    p_high *= a_low
    lo += p_high
    a_low *= p_low
    lo += a_low
    return hi, lo


_PAD = 32  # zero bytes before a block's rows, so each cell's last 28 bytes can be loaded
# Byte-wise word constants.  They are uint64 scalars, not products of one
# and a Python int, which numpy 1.x promotes to float64.
_ZEROS = np.uint64(0x3030303030303030)  # "0" in every byte
_NINES = np.uint64(0x7676767676767676)  # 0x80 - 10 in every byte: a byte over 9 then tops 0x7F
_TOPS = np.uint64(0x8080808080808080)  # every byte's top bit
_SUMS = (  # after the digit pairs: masks, factors and shifts that sum fours, then eights
    (np.uint64(0x00FF00FF00FF00FF), np.uint64(6553601), np.uint64(16)),
    (np.uint64(0x0000FFFF0000FFFF), np.uint64(42949672960001), np.uint64(32)),
)


def _read_block(raw, size: int, width: int):
    """The values of the cells of the next rows of ``raw``, a binary file at
    the start of a row of ``width`` cells: ``size`` bytes and on to the end
    of a row.  None where the row walk that reads a body cell by cell,
    ``formats._parse_body``, could read them otherwise: a ragged row, a
    carriage return not before a newline (text mode breaks the line there),
    or a cell that ``float()`` refuses or reads as a non-finite value.

    A cell ``-?digits[.digits][e±dd]`` of value +-D / 10**k, its mantissa
    at most 24 bytes, D < 1.16 * 10**18 and 0 <= k <= 22, is read by an
    exact vectorized kernel.  The mantissa's last 24 bytes are loaded as
    three words, and each word in turn has its bytes made digit values, the
    bytes before the mantissa made 0 and those before the point moved one
    place on over it, is checked to hold digits only and has its eight
    digits summed by three multiplies.  D = D_hi + D_lo with D_hi a double;
    q1 = D_hi / 10**k and q1 * 10**k = hi + lo exactly (``_times_power``),
    so q2 = (D_hi - hi - lo + D_lo) / 10**k is q1's remainder to about
    2**-100 * |q1|.  A cell is kept only where rounding q1 + q2 +- 2**-90 *
    |q1| gives one double (Ziv's test), which is then the correctly rounded
    value; ``%.17g`` text lies about 2**-57 * |q1| or more from the
    midpoint of two doubles, so it always passes.  Every other cell is read
    as the cell-by-cell reader reads it: ``float()`` of its UTF-8 text.
    """
    data = bytearray(_PAD)
    data += raw.read(size)
    data += raw.readline()
    if not data.endswith(b"\n"):
        data += b"\n"
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None
    a = np.frombuffer(data, np.uint8)
    ends = a == 10
    rows = np.count_nonzero(ends)
    ends |= a == 44
    ends = np.flatnonzero(ends)  # the comma or newline after each cell
    if ends.size != rows * width or (a[ends[width - 1 :: width]] != 10).any():
        return None
    starts = np.concatenate(([_PAD], ends[:-1] + 1))
    neg = a[starts] == 45
    n = ends - starts - neg  # mantissa bytes, the point included
    del starts
    me = ends - 24  # where the mantissa's last 24 bytes start
    # An exponent "e±dd" ends the cell; its digits are checked as bytes.
    k = np.zeros(ends.size, np.intp)  # minus the exponent, then the power of ten to divide by
    cells = np.flatnonzero(a[ends - 4] == 101)
    if cells.size:
        n[cells] -= 4
        me[cells] -= 4
        sign = a[ends[cells] - 3].astype(np.intp)
        tens, ones = (a[ends[cells] - d] - np.uint8(48) for d in (2, 1))
        k[cells] = (10 * tens.astype(np.intp) + ones) * (sign - 44)
        k[cells[((sign != 43) & (sign != 45)) | (tens > 9) | (ones > 9)]] = -99
    # The digits after a point, counted from the mantissa's end; 24 for none.
    after = np.full(ends.size, 24)
    points = np.flatnonzero(a == 46)
    cells = np.searchsorted(ends, points)
    after[cells] = me[cells] + 23 - points
    has_point = after < 24
    del points, cells
    k += after * has_point
    ok = (n > has_point) & (n <= 24) & (k >= 0) & (k <= 22)
    del has_point
    # Word by word in address order, each taken in place: its bytes become
    # digit values, those before the mantissa 0, those before the point move
    # one place on (the first from the word before), it is checked for
    # digits, and D gathers the sum of its eight digits.
    top = _powers().top
    loads = np.ndarray(a.size - 23, "V24", data, 0, (1,))  # the 24 bytes from each offset
    words = np.ascontiguousarray(loads[me].view("<u8").reshape(-1, 3).T)
    del me
    index = np.empty_like(n)
    for word, offset in zip(words, (16, 8, 0)):  # bytes from the word to the mantissa's end
        word ^= _ZEROS
        word &= top[np.subtract(n, offset, out=index).clip(0, 8, out=index)]
        moved = word << np.uint64(8)
        if offset < 16:
            moved |= carry
        carry = word >> np.uint64(56)
        word ^= moved
        word &= top[np.subtract(after, offset, out=index).clip(0, 8, out=index)]
        word ^= moved
        np.add(word, _NINES, out=moved)
        moved |= word
        moved &= _TOPS
        ok &= moved == 0
        word *= np.uint64(2561)  # the digits summed in pairs, fours, then eights
        word >>= np.uint64(8)
        for keep, factor, shift in _SUMS:
            word &= keep
            word *= factor
            word >>= shift
        if offset == 16:
            ok &= word < 116
            mantissa = word
        else:
            mantissa *= np.uint64(10**8)
            mantissa += word
    del words, word, moved, carry, index, after, n
    mantissa *= ok
    k *= ok
    q2 = mantissa.astype(np.float64)  # D_hi, then the remainder, then q2
    mantissa -= q2.astype(np.uint64)
    d_lo = mantissa.view(np.int64).astype(np.float64)
    del mantissa
    power = _powers().powers[k]
    q1 = q2 / power
    hi, lo = _times_power(q1, k)
    q2 -= hi
    q2 -= lo
    q2 += d_lo
    q2 /= power
    del lo, d_lo, power
    eps = np.abs(q1, out=hi)
    eps *= 2.0**-90
    values = q2 + eps
    values += q1
    q2 -= eps
    q2 += q1
    ok &= values == q2
    del q1, q2, eps, hi
    bits = values.view(np.uint64)
    bits |= neg.astype(np.uint64) << np.uint64(63)  # the sign
    for i in np.flatnonzero(~ok).tolist():
        value = _cell_value(data[ends[i - 1] + 1 if i else _PAD : ends[i]])
        if value is None:
            return None
        values[i] = value
    return values


def _cell_value(cell: bytes):
    """``float()`` of the UTF-8 text of a cell the kernel refuses, as the
    cell-by-cell reader reads it, or None when that is no finite number."""
    try:
        value = float(cell.decode())
    except (UnicodeDecodeError, ValueError):
        return None
    return value if math.isfinite(value) else None
