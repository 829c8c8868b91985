"""Shortest round-trip text of float64 arrays, computed in numpy, as ASCII bytes.

``format_bytes(a)`` returns the text of ``[repr(x) for x in a.tolist()]``:
for each float the shortest decimal that reads back to it, the one closest
to it when several are that short, laid out as Python lays out ``repr``.
The text comes as a (len(a), 25) uint8 array, each row NUL padded to its
end, so a caller can gather it into a larger buffer without a Python
string per value; no text fills its row, so a caller may write into the
last byte of each.  The digits come from Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020), which finds them with three
products of the scaled significand and a 126-bit power of ten rounded to
odd; numpy has no 128-bit integers, so the products run on 32-bit limbs
in uint64.  The text is gathered from a table of character layouts keyed
by sign, digit count and decimal-point position, so no per-value Python
code runs.

A call runs about a hundred numpy operations per block of 4096 values, so
on a few hundred values it costs more than ``repr``.  The tables are built
on the first call, not at import, and are the only state shared between
calls.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_U64 = np.uint64
_M32 = _U64(0xFFFF_FFFF)
_S32 = _U64(32)
# decimal exponents k of Schubfach's scaled significands for float64
_K_MIN, _K_MAX = -324, 292
# values formatted per block: a block's temporaries stay in cache
_BLOCK = 4096

# The text of one value is gathered from 36 source characters: 9 groups of
# 4 taken from a table of groups, "000" and the first of 17 significand
# digits, the other 16, "0" and 3 digits of |exponent|, then 3 groups of
# constant characters.  A layout names source characters: A..Q are the
# significand digits, X, Y, Z the exponent digits, the rest themselves.
_SOURCE = "___A" "BCDE" "FGHI" "JKLM" "NOPQ" "_XYZ" "-.0e" "+inf" "a\0\0\0"
_GROUPS = len(_SOURCE) // 4
_CONSTANT_GROUPS = ("-.0e", "+inf", "a\0\0\0")
_DIGITS = "ABCDEFGHIJKLMNOPQ"
# characters of a value's text and at least one \0 after them: the longest
# repr of a float64, -1.2345678901234567e-308, has 24
_WIDTH = 25
# repr writes 0.ddd 10**decpt positionally for -4 < decpt <= 16
_DECPT_MIN, _DECPT_MAX = -3, 16
_EXP_FORMS = 4  # exponent sign, and 2 or 3 exponent digits
_POSITIONS = _DECPT_MAX - _DECPT_MIN + 1 + _EXP_FORMS
# covers every decpt of a float64: 5e-324 has -323, 1.8e308 has 309
_DECPT_LOW, _DECPT_HIGH = -330, 330
# layout keys: (negative * 18 + digit count) * _POSITIONS + position, then
# the fixed strings
_SIGN_KEYS = (len(_DIGITS) + 1) * _POSITIONS
_FIXED = ("0.0", "-0.0", "inf", "-inf", "nan")

_ABS = _U64(0x7FFF_FFFF_FFFF_FFFF)
_INF = _U64(0x7FF0_0000_0000_0000)
_ONE = _U64(0x3FF0_0000_0000_0000)
_FRACTION = _U64((1 << 52) - 1)


class _Tables(NamedTuple):
    g: np.ndarray  # (4, 617) uint64: 32-bit limbs of g(k), least significant first
    # by biased exponent, + 2048 where the fraction bits are 0:
    row: np.ndarray  # (4096,) intp: k - _K_MIN
    shift: np.ndarray  # (4096,) uint64: h
    hidden: np.ndarray  # (4096,) uint64: the hidden significand bit
    gap_below: np.ndarray  # (4096,) uint64: 4 (v - lower end of its rounding interval) / 2**q
    pow10: np.ndarray  # (18,) uint64: 10**0 .. 10**17
    # (10003,) uint32: f"{i:04d}", then _CONSTANT_GROUPS, as 4 ASCII bytes
    groups: np.ndarray
    position: np.ndarray  # (661,) intp: layout position by decpt - _DECPT_LOW
    layout: np.ndarray  # (keys, _WIDTH) intp: _SOURCE index of each character


def _layout(n_digits: int, position: int) -> str:
    digits = _DIGITS[len(_DIGITS) - n_digits :]
    if position < _POSITIONS - _EXP_FORMS:
        decpt = position + _DECPT_MIN
        if decpt <= 0:
            return "0." + "0" * -decpt + digits
        if decpt < n_digits:
            return digits[:decpt] + "." + digits[decpt:]
        return digits + "0" * (decpt - n_digits) + ".0"
    form = position - (_POSITIONS - _EXP_FORMS)  # 2 * (exponent >= 0) + (|exponent| >= 100)
    mantissa = digits[0] + ("." + digits[1:] if n_digits > 1 else "")
    return mantissa + "e" + "-+"[form >> 1] + "XYZ"[1 - (form & 1) :]


@functools.cache
def _tables() -> _Tables:
    # 10**-k = beta 2**r with 2**125 <= beta < 2**126, and g = floor(beta) + 1
    g, r = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            shift = (10**-k).bit_length() - 126
            beta = 10**-k >> shift if shift >= 0 else 10**-k << -shift
        else:
            shift = -125 - (10**k).bit_length()
            beta = (1 << -shift) // 10**k
        g.append(beta + 1)
        r.append(shift)
    limbs = [[(x >> (32 * i)) & 0xFFFF_FFFF for x in g] for i in range(4)]

    biased = np.arange(4096, dtype=np.int64) % 2048
    # value = c 2**q; subnormals share q with biased exponent 1
    q = np.maximum(biased, 1) - 1075
    # at a power of two the gap below is half the gap above, except next to the subnormals
    irregular = (np.arange(4096, dtype=np.int64) >= 2048) & (biased > 1)
    # floor(log10(2**q)), or floor(log10(3/4 2**q)) where irregular
    k = (q * 661_971_961_083 - np.where(irregular, 274_743_187_321, 0)) >> 41
    row = k - _K_MIN

    decpt = np.arange(_DECPT_LOW, _DECPT_HIGH + 1, dtype=np.intp)
    exponent = decpt - 1
    position = np.where(
        (decpt >= _DECPT_MIN) & (decpt <= _DECPT_MAX),
        decpt - _DECPT_MIN,
        _POSITIONS - _EXP_FORMS + 2 * (exponent >= 0) + (np.abs(exponent) >= 100),
    )
    texts = [
        "-" * negative + _layout(n_digits, position) if n_digits else ""
        for negative in (0, 1)
        for n_digits in range(len(_DIGITS) + 1)
        for position in range(_POSITIONS)
    ]
    texts += _FIXED
    source = np.zeros(128, dtype=np.intp)
    for i, ch in reversed(list(enumerate(_SOURCE))):
        source[ord(ch)] = i
    layout = "".join(text.ljust(_WIDTH, "\0") for text in texts).encode("ascii")
    groups = "".join(f"{i:04d}" for i in range(10_000)) + "".join(_CONSTANT_GROUPS)
    tables = _Tables(
        g=np.array(limbs, dtype=np.uint64),
        row=row.astype(np.intp),
        # h = q + floor(log2(10**-k)) + 2
        shift=(q + np.array(r, dtype=np.int64)[row] + 127).astype(np.uint64),
        hidden=np.where(biased > 0, 1 << 52, 0).astype(np.uint64),
        gap_below=np.where(irregular, 1, 2).astype(np.uint64),
        pow10=np.array([10**i for i in range(18)], dtype=np.uint64),
        groups=np.frombuffer(groups.encode("ascii"), dtype=np.uint32).copy(),
        position=position.astype(np.intp),
        layout=source[np.frombuffer(layout, dtype=np.uint8)].reshape(-1, _WIDTH),
    )
    for table in tables:  # shared by every caller
        table.flags.writeable = False
    return tables


def _round_to_odd(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """floor(g cp / 2**127), its last bit set when bits 64..126 of g cp are not all 0.

    This is Schubfach's rop(g, cp); the bits below 2**64 are left out, as
    its error analysis allows.  ``g`` holds four 32-bit limbs of a 126-bit
    g, least significant first, and ``cp`` < 2**62.  Products of 32-bit
    limbs fit in 64 bits, and a column of them sums below 2**35.
    """
    a0, a1 = cp & _M32, cp >> _S32
    b0, b1, b2, b3 = g
    low = np.empty_like(cp)
    col = a0 * b0
    col >>= _S32  # the sum of column n holds bits 32n.. of g cp
    # the products a_i b_j of columns 1 to 4: i + j = n
    columns = (((a0, b1), (a1, b0)), ((a0, b2), (a1, b1)), ((a0, b3), (a1, b2)), ((a1, b3),))
    for n, pairs in enumerate(columns, start=1):
        products = [a * b for a, b in pairs]
        for product in products:
            col += np.bitwise_and(product, _M32, out=low)
        if n == 2:  # bits 64..95
            sticky = col & _M32
        elif n == 3:  # bits 96..127
            sticky |= col & _U64(0x7FFF_FFFF)
            bit127 = (col >> _U64(31)) & _U64(1)
        if n == 4:  # col holds bits 128..
            col += np.bitwise_and(products[0], ~_M32, out=low)
        else:
            col >>= _S32
            for product in products:
                product >>= _S32
                col += product
    return (col << _U64(1)) | bit127 | (sticky != 0)


def _shortest(
    biased: np.ndarray, fraction: np.ndarray, tables: _Tables
) -> tuple[np.ndarray, np.ndarray]:
    """Shortest digits f and exponent e (value f 10**e) of positive finite floats."""
    index = np.where(fraction == 0, biased + 2048, biased)
    row = tables.row.take(index)
    cb = (fraction | tables.hidden.take(index)) << _U64(2)
    cp = np.empty((3, len(cb)), dtype=np.uint64)
    np.subtract(cb, tables.gap_below.take(index), out=cp[0])
    cp[1] = cb
    np.add(cb, _U64(2), out=cp[2])
    cp <<= tables.shift.take(index)
    vbl, vb, vbr = _round_to_odd(tables.g.take(row, axis=1), cp)
    # an odd significand's interval leaves its ends out
    odd = fraction & _U64(1)
    vbl += odd
    vbr -= odd
    s = vb >> _U64(2)
    # one digit shorter: 10 sp or 10 (sp + 1), when exactly one is in the interval
    sp = s // _U64(10)
    up_in = vbl <= sp * _U64(40)
    wp_in = sp * _U64(40) + _U64(40) <= vbr
    shorter = (s >= _U64(10)) & (up_in != wp_in)
    # else s or s + 1: the one in the interval, or the closer, ties to even
    u_in = vbl <= s << _U64(2)
    w_in = (s << _U64(2)) + _U64(4) <= vbr
    mid = (s << _U64(2)) + _U64(2)
    closer_up = (vb > mid) | ((vb == mid) & (s & _U64(1) == _U64(1)))
    up = np.where(u_in != w_in, w_in, closer_up)
    f = np.where(shorter, sp + wp_in, s + up)
    return f, row + (_K_MIN + shorter)


def format_bytes(a: np.ndarray) -> np.ndarray:
    """The ASCII text of ``repr`` of each float of a one-dimensional float64 array.

    Returns a (len(a), 25) uint8 array whose row i holds the characters of
    value i, then NUL bytes to the end of the row, at least one.
    """
    bits = np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)
    if bits.ndim != 1:
        raise ValueError(f"format_bytes takes a one-dimensional array, got shape {bits.shape}")
    tables = _tables()
    text = np.empty((len(bits), _WIDTH), dtype=np.uint8)
    for start in range(0, len(bits), _BLOCK):
        rows = slice(start, start + _BLOCK)
        _float_block(bits[rows], tables, text[rows])
    return text


def _float_block(bits: np.ndarray, tables: _Tables, text: np.ndarray) -> None:
    magnitude = bits & _ABS
    # 0, inf and nan; magnitude - 1 takes 0 to the top
    special = np.flatnonzero(magnitude - _U64(1) >= _INF - _U64(1))
    # 1.0 stands in for them until the layout step
    magnitude[special] = _ONE
    f, e = _shortest(magnitude.view(np.int64) >> 52, magnitude & _FRACTION, tables)

    # strip trailing zeros, at most 16
    zeros = np.flatnonzero(f % _U64(10) == _U64(0))
    if zeros.size:
        fz, ez = f[zeros], e[zeros]
        for n in (16, 8, 4, 2, 1):
            quotient = fz // tables.pow10[n]
            exact = quotient * tables.pow10[n] == fz
            fz = np.where(exact, quotient, fz)
            ez += exact * n
        f[zeros], e[zeros] = fz, ez
    n_digits = np.searchsorted(tables.pow10, f, side="right")
    decpt = n_digits + e

    key = n_digits * _POSITIONS + tables.position.take(decpt - _DECPT_LOW)
    key += (bits >> _U64(63)).view(np.int64) * _SIGN_KEYS
    if special.size:
        magnitude, negative = bits[special] & _ABS, (bits[special] >> _U64(63)).astype(np.intp)
        fixed = np.where(magnitude > _INF, 4, np.where(magnitude == _INF, 2, 0) + negative)
        key[special] = 2 * _SIGN_KEYS + fixed
    _render(f, np.abs(decpt - 1), key, tables, text)


def _render(f: np.ndarray, exponent: np.ndarray, key: np.ndarray, tables: _Tables, text: np.ndarray) -> None:
    """Write layout ``key`` of digits ``f`` < 10**17 and exponent digits ``exponent`` < 1000 to ``text``.

    The group numbers are written, through a uint64 view, into the columns
    of the contiguous (n, 9) intp array that the group gather takes as its
    index as it is.  ``f`` is overwritten.
    """
    # the 17 digits, right aligned, and the 3 digits of |exponent|, in groups of 4
    n = len(f)
    groups = np.empty((n, _GROUPS), dtype=np.intp)
    groups[:, _GROUPS - len(_CONSTANT_GROUPS) :] = np.arange(10_000, 10_000 + len(_CONSTANT_GROUPS))
    digits = groups.view(np.uint64)
    np.floor_divide(f, tables.pow10[16], out=digits[:, 0])
    f -= digits[:, 0] * tables.pow10[16]
    high = f // tables.pow10[8]
    f -= high * tables.pow10[8]
    for column, half in ((1, high), (3, f)):
        np.floor_divide(half, _U64(10_000), out=digits[:, column])
        np.subtract(half, digits[:, column] * _U64(10_000), out=digits[:, column + 1])
    digits[:, 5] = exponent
    # every index below is in range by construction, so take may clip
    source = tables.groups.take(groups, mode="clip")
    index = tables.layout.take(key, axis=0, mode="clip")
    index += np.arange(0, n * len(_SOURCE), len(_SOURCE))[:, None]
    source.view(np.uint8).reshape(-1).take(index, out=text, mode="clip")
