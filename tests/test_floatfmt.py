"""``format_bytes`` against ``repr``, float by float.

The families cover what a shortest-digit algorithm gets wrong first: random
bit patterns, the powers of two (whose rounding interval is lopsided), the
powers of ten and their neighbours (where the digit count changes), the
subnormals, the fixed strings, and the values where ``repr`` switches
between positional and exponent layout.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlink import floatfmt
from photonlink.floatfmt import format_bytes


def assert_text(text, want):
    """``format_bytes``' layout: row i is want[i] in ASCII, then NUL to the end of the row, the last byte included."""
    assert text.dtype == np.uint8 and text.shape == (len(want), floatfmt._WIDTH)
    assert text.tobytes() == b"".join(w.encode("ascii").ljust(floatfmt._WIDTH, b"\0") for w in want)
    assert not text[:, -1].any()


def decoded(text):
    """The rows of a ``format_bytes`` array as a list of ``str``, the NUL padding dropped."""
    return text.view(f"S{floatfmt._WIDTH}").reshape(-1).astype(f"U{floatfmt._WIDTH}").tolist()


def assert_repr(a):
    a = np.asarray(a, dtype=np.float64)
    text = format_bytes(a)
    got = decoded(text)
    want = [repr(x) for x in a.tolist()]
    assert len(got) == len(want)
    wrong = [(x, g, w) for x, g, w in zip(a.tolist(), got, want) if g != w]
    assert not wrong, f"{len(wrong)} of {len(want)} differ, first: {wrong[:5]}"
    assert_text(text, want)


def with_negatives(a):
    a = np.asarray(a, dtype=np.float64)
    return np.concatenate([a, -a])


def test_random_bit_patterns():
    bits = np.random.default_rng(20201).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    assert_repr(bits.view(np.float64))


def test_every_power_of_two():
    assert_repr(with_negatives(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{n}") for n in range(-323, 309)])
    assert_repr(with_negatives(np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf),
    ])))


def test_smallest_subnormals():
    assert_repr(with_negatives(np.arange(1, 2**16 + 1, dtype=np.uint64).view(np.float64)))


def test_largest_subnormals_and_smallest_normals():
    edge = np.arange(2**52 - 2**12, 2**52 + 2**12, dtype=np.uint64)
    assert_repr(edge.view(np.float64))


def test_short_decimals():
    values = [float(f"{m}e{e}") for m in (1, 2, 5, 9, 12, 25, 99, 123, 4321, 99999) for e in range(-320, 305)]
    assert_repr(with_negatives(values))


def test_integers():
    assert_repr(with_negatives(np.arange(0, 2**16, dtype=np.float64) * 37.0))
    assert_repr(with_negatives([2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**63, 2.0**64]))


def test_zeros_infinities_and_nans():
    payloads = np.array(
        [0x7FF8_0000_0000_0000, 0xFFF8_0000_0000_0000, 0x7FF0_0000_0000_0001,
         0xFFF0_0000_0000_0001, 0x7FFF_FFFF_FFFF_FFFF, 0xFFFF_FFFF_FFFF_FFFF,
         0x7FF4_0000_0000_0000],
        dtype=np.uint64,
    ).view(np.float64)
    values = np.concatenate([[0.0, -0.0, math.inf, -math.inf, 1.0], payloads])
    assert decoded(format_bytes(values)) == ["0.0", "-0.0", "inf", "-inf", "1.0"] + ["nan"] * len(payloads)


def test_layout_switch_points():
    # repr writes 0.ddd 10**decpt positionally for -4 < decpt <= 16
    points = np.array([1e-5, 1e-4, 1e16, 1e17, 9999999999999998.0, 0.0001234, 1234567890123456.7,
                       12345678901234567.0, 0.00009999999999999999, 0.001, 123.0, 1e22, 1e100, 1.5e-100])
    assert_repr(with_negatives(np.concatenate([
        points, np.nextafter(points, 0.0), np.nextafter(points, math.inf),
    ])))


def test_extremes():
    assert_repr(with_negatives([5e-324, 1e-323, 2.2250738585072014e-308, 1.7976931348623157e308]))


def test_empty_and_block_edges():
    assert_text(format_bytes(np.array([], dtype=np.float64)), [])
    values = np.random.default_rng(7).standard_normal(2 * floatfmt._BLOCK + 1)
    for n in (1, floatfmt._BLOCK - 1, floatfmt._BLOCK, floatfmt._BLOCK + 1, len(values)):
        assert_repr(values[:n])


def test_non_contiguous_and_other_float_input():
    values = np.random.default_rng(8).standard_normal(100)
    assert_repr(values[::3])
    assert decoded(format_bytes(np.float32([0.1, 2.5]))) == [repr(x) for x in np.float32([0.1, 2.5]).tolist()]


def test_two_dimensional_input_is_refused():
    with pytest.raises(ValueError):
        format_bytes(np.zeros((2, 2)))


def test_threads_get_their_own_buffers():
    # numpy lets go of the interpreter lock inside a block's gathers, so
    # threads that shared the block buffers would mix up their texts; tasks
    # alternate between two sets of floats, of near and of extreme scales
    rng = np.random.default_rng(11)
    scales = ((-30, 30), (-320, 300))
    floats = [rng.standard_normal(floatfmt._BLOCK + 100) * 10.0 ** rng.integers(*scales[i % 2]) for i in range(12)]
    want = [[repr(x) for x in a.tolist()] for a in floats]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(format_bytes, floats[i % 12]) for i in range(24)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, result in enumerate(results):
        assert_text(result, want[i % 12])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
def test_hypothesis_floats(values):
    assert decoded(format_bytes(np.array(values, dtype=np.float64))) == [repr(x) for x in values]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
def test_hypothesis_bit_patterns_leave_the_last_byte_nul(bits):
    # the CSV writer puts each cell's separator into that byte
    assert_repr(np.array(bits, dtype=np.uint64).view(np.float64))


def floor_log10(x: Fraction) -> int:
    k = len(str(x.numerator)) - len(str(x.denominator))
    while Fraction(10) ** k > x:
        k -= 1
    while Fraction(10) ** (k + 1) <= x:
        k += 1
    return k


def floor_log2_pow10(e: int) -> int:
    return (10**e).bit_length() - 1 if e >= 0 else -(10**-e).bit_length()


def test_exponent_table_is_exact():
    # k = floor(log10(2**q)), or floor(log10(3/4 2**q)) at a power of two
    # above the smallest normal, comes from integer constants; checked here
    # with exact rationals
    tables = floatfmt._tables()
    for index in range(4096):
        biased = index % 2048
        q = max(biased, 1) - 1075
        scale = Fraction(3, 4) if index >= 2048 and biased > 1 else 1
        k = floor_log10(Fraction(2) ** q * scale)
        assert tables.row[index] + floatfmt._K_MIN == k, index
        assert tables.shift[index] == q + floor_log2_pow10(-k) + 2, index


def test_power_table_is_exact():
    # g(k) = floor(beta) + 1 for 10**-k = beta 2**r, 2**125 <= beta < 2**126
    tables = floatfmt._tables()
    for row, k in enumerate(range(floatfmt._K_MIN, floatfmt._K_MAX + 1)):
        beta = Fraction(10) ** -k / Fraction(2) ** (floor_log2_pow10(-k) - 125)
        assert 2**125 <= beta < 2**126
        g = sum(int(limb) << (32 * i) for i, limb in enumerate(tables.g[:, row]))
        assert g == math.floor(beta) + 1, k
