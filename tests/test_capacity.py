"""Tests for the capacity formulas and the photon-information-efficiency views."""

import math
import re
import sys

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlink.capacity import (
    LOG2_E,
    g,
    holevo_capacity,
    holevo_pie_asymptote,
    pie,
    shannon_capacity,
    shannon_pie_asymptote,
)

# reference values evaluated independently at 50-digit precision,
# rounded to the nearest float64
G_OF_003 = 0.19569047820235555
LOG2_11 = 3.4594316186372973
LOG2_101 = 6.658211482751795
LOG2E_OVER_11_10 = 1.311540946262694

# quoted regime figures the per-bin capacities must reproduce (rounded
# sources, hence the loose 5% window); photon numbers are (n_a, n_b)
RF_BANDWIDTH_HZ = 0.5e9
RF_PHOTONS = (1.08, 66.68)
OPTICAL_BANDWIDTH_HZ = 2e9
OPTICAL_PHOTONS = (0.03, 0.03)

finite_photon_numbers = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


@pytest.mark.parametrize("capacity", [shannon_capacity, holevo_capacity])
class TestPhotonNumberChecks:
    """Both capacities check their (n_a, n_b) arguments."""

    def test_accepts_zero(self, capacity):
        assert capacity(0.0, 0.0) == 0.0

    @pytest.mark.parametrize("bad", [-1e-9, float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["n_a", "n_b"])
    def test_rejects_invalid(self, capacity, field, bad):
        kwargs = {"n_a": 0.1, "n_b": 0.1, field: bad}
        with pytest.raises(ValueError, match=re.escape(f"{field} must be finite and >= 0, got {bad!r}")):
            capacity(**kwargs)


class TestG:
    """The thermal-state entropy function g."""

    def test_zero(self):
        assert g(0.0) == 0.0

    def test_one(self):
        # (1+1) log2 2 - 1 log2 1 = 2
        assert g(1.0) == 2.0

    def test_small_argument(self):
        assert math.isclose(g(0.03), G_OF_003, rel_tol=5e-14)

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            g(bad)

    def test_monotone_increasing(self):
        xs = [0.0, 1e-6, 1e-3, 0.03, 0.5, 1.0, 3.0, 10.0, 100.0]
        values = [g(x) for x in xs]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_concave(self):
        # discrete second difference stays negative across the range
        for x in [1e-3, 0.01, 0.1, 1.0, 10.0, 100.0]:
            step = x / 8.0
            second = g(x + step) - 2.0 * g(x) + g(x - step)
            assert second < 0.0


def g_reference(x):
    """(x + 1) ln(x + 1) - x ln(x) in bits at 400 digits: the difference
    gives up about 310 of them at x = 1.7e308, and 1 + x keeps a subnormal
    x with about 75 to spare."""
    with mp.workdps(400):
        x = mp.mpf(x)
        return ((x + 1) * mp.log(x + 1) - x * mp.log(x)) / mp.log(2)


def assert_g_matches_reference(x):
    # budget 1e-12 relative; below 2.2e-308 the result is subnormal, where
    # floats are spaced 5e-324 apart whatever the value, hence the few
    # units of math.ulp(0.0) on top
    got = g(x)
    want = g_reference(x)
    assert abs(got - want) <= 1e-12 * want + 4 * math.ulp(0.0), (x, got, float(want))


class TestGAgainstMpmath:
    """Over x from 0 to 1.7e308, where (x + 1) log2(x + 1) - x log2(x)
    gave 41.3047 at 1e12 (41.30583), 128.0 at 1e16 (54.59), 0.0 at 1e300
    (998.02) and nan at 1.7e308."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        x=st.one_of(
            st.floats(min_value=-323.0, max_value=308.2).map(lambda e: 10.0**e),
            st.floats(min_value=5e-324, max_value=1.7e308),
        )
    )
    def test_random_points(self, x):
        assert_g_matches_reference(x)

    @pytest.mark.parametrize(
        "x",
        [5e-324, 1e-310, 2.2250738585072014e-308, 1e-12, 0.03, 1.0, 1e12, 1e16,
         1e300, 1.7e308],
    )
    def test_points_across_the_range(self, x):
        assert_g_matches_reference(x)


class TestShannonCapacity:
    def test_zero_signal(self):
        assert shannon_capacity(0.0, 5.0) == 0.0

    def test_closed_form(self):
        assert math.isclose(
            shannon_capacity(0.2, 0.3), math.log2(1.0 + 0.2 / 1.3), rel_tol=1e-14
        )

    def test_rf_regime_rate(self):
        rate = shannon_capacity(*RF_PHOTONS) * RF_BANDWIDTH_HZ
        assert abs(rate - 11.4e6) / 11.4e6 < 0.05

    def test_optical_regime_rate(self):
        rate = shannon_capacity(*OPTICAL_PHOTONS) * OPTICAL_BANDWIDTH_HZ
        assert abs(rate - 87e6) / 87e6 < 0.05

    def test_decreasing_in_background(self):
        values = [shannon_capacity(0.5, n_b) for n_b in (0.0, 0.1, 1.0, 10.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestHolevoCapacity:
    def test_zero_signal(self):
        assert holevo_capacity(0.0, 0.1) == 0.0

    def test_optical_regime_rate(self):
        rate = holevo_capacity(*OPTICAL_PHOTONS) * OPTICAL_BANDWIDTH_HZ
        assert abs(rate - 273e6) / 273e6 < 0.05

    def test_rf_regime_rate(self):
        rate = holevo_capacity(*RF_PHOTONS) * RF_BANDWIDTH_HZ
        assert abs(rate - 11.5e6) / 11.5e6 < 0.05

    @given(n_a=finite_photon_numbers, n_b=finite_photon_numbers)
    def test_dominates_shannon(self, n_a, n_b):
        assert holevo_capacity(n_a, n_b) >= shannon_capacity(n_a, n_b) - 1e-12


def holevo_reference(n_a, n_b):
    """g(n_a + n_b) - g(n_b) in bits at 400 + log10(n_a + n_b) digits.  Each
    entropy is at most about 710 (n_a + n_b) and the difference at least
    5e-324, so at least 70 digits remain; n_a + n_b is formed exactly, also
    where it overflows in floats."""
    total = n_a + n_b if math.isfinite(n_a + n_b) else sys.float_info.max
    with mp.workdps(400 + max(0, int(math.log10(total + 1.0)))):
        a, b = mp.mpf(n_a), mp.mpf(n_b)

        def g_mp(x):
            return (x + 1) * mp.log(x + 1) - (x * mp.log(x) if x > 0 else 0)

        return (g_mp(a + b) - g_mp(b)) / mp.log(2)


def assert_holevo_matches_reference(n_a, n_b):
    # budget 1e-12 relative; the formula's own rounding stays near 1e-14.  A
    # subnormal result is spaced 2**-1074 apart whatever its value, so it
    # may be one such step off on top.  The Holevo capacity bounds the
    # Shannon capacity from above also in floats.
    got = holevo_capacity(n_a, n_b)
    want = holevo_reference(n_a, n_b)
    step = math.ulp(0.0) if want < sys.float_info.min else 0.0
    assert abs(got - want) <= 1e-12 * want + step, (n_a, n_b, got, float(want))
    assert got >= shannon_capacity(n_a, n_b) >= 0.0, (n_a, n_b)


class TestHolevoAgainstMpmath:
    """Over n_a in [1e-10, 1.7e308] and n_b in {0} u [1e-10, 1e2], where the
    difference of two entropies lost up to 3e-2 of its value at n_a << n_b,
    and the h-form all of it as n_a nears the float maximum."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        log_n_a=st.floats(min_value=-10.0, max_value=308.23),
        n_b=st.one_of(st.just(0.0), st.floats(min_value=-10.0, max_value=2.0).map(lambda x: 10.0**x)),
    )
    def test_random_points(self, log_n_a, n_b):
        assert_holevo_matches_reference(10.0**log_n_a, n_b)

    @pytest.mark.parametrize(
        "n_a, n_b",
        [(1e-10, 1e2), (1e-10, 1.0), (1e-8, 1e-2), (1e-6, 66.68), (1.0, 1e2),
         (1e-10, 1e-10), (1.0, 1e-10), (1e-10, 0.0), (1.0, 0.0)],
    )
    def test_points_of_former_cancellation(self, n_a, n_b):
        assert_holevo_matches_reference(n_a, n_b)

    @pytest.mark.parametrize(
        "n_a, n_b",
        [(1e6, 1e-2), (1e8, 1e-2), (1e12, 1.0), (5.2e4, 87.0), (1e5, 1e2), (1e20, 0.0),
         (1.7976931348623157e308, 0.0), (1.7976931348623157e308, 1e2), (1e300, 1e-300)],
    )
    def test_large_signal_keeps_its_digits(self, n_a, n_b):
        # where n_a >> n_b + 1, each n_b term of the h-form is n_a to
        # leading order, and their difference lost up to all of its digits
        assert_holevo_matches_reference(n_a, n_b)

    @pytest.mark.parametrize("n_b", [0.0, 5e-324, 1e-2, 1.0, 99.0, 1e2])
    def test_both_forms_agree_where_they_meet(self, n_b):
        # the large-signal form takes over at n_a = max(1e3, 10 (n_b + 1))
        edge = max(1e3, 10.0 * (n_b + 1.0))
        for n_a in (math.nextafter(edge, 0.0), edge, 2.0 * edge):
            assert_holevo_matches_reference(n_a, n_b)

    @pytest.mark.parametrize("n_b", [5e-324, 1e-310, 2.2250738585072014e-308])
    def test_tiny_background_keeps_its_digits(self, n_b):
        # n_a / n_b overflows at the subnormal n_b; the capacity is then
        # g(n_a) to rounding
        for n_a in (1e-10, 1e-3, 1.0):
            assert_holevo_matches_reference(n_a, n_b)

    @pytest.mark.parametrize("n_b", [0.0, 5e-324, 1e-300, 1.0, 1e300, 1.7976931348623157e308])
    def test_finite_for_every_accepted_background(self, n_b):
        for n_a in (1e-10, 1.0, 1e10):
            value = holevo_capacity(n_a, n_b)
            assert math.isfinite(value) and value >= 0.0



class TestHolevoAtLargeBackgrounds:
    """Over n_b in (1e2, 1e300] and n_a + n_b up to the float maximum, where
    the forms above subtract two terms of order n_b: (n_a, n_b) = (1e16, 1e16)
    gave 0.721 bit for 1.0, (3e22, 1e22) 0.0 for 2.0, (3e22, 1e21) -69.8
    for 4.954 and (1.7e308, 1e307) -1021.3 for 4.170."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        log_n_a=st.floats(min_value=-10.0, max_value=308.25),
        log_n_b=st.floats(min_value=2.0, max_value=300.0),
    )
    def test_random_points(self, log_n_a, log_n_b):
        assert_holevo_matches_reference(10.0**log_n_a, 10.0**log_n_b)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        log_n_b=st.floats(min_value=2.0, max_value=300.0),
        ratio=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_signal_near_the_background(self, log_n_b, ratio):
        # n_a ~ n_b is where the two terms of order n_b cancelled most
        n_b = 10.0**log_n_b
        assert_holevo_matches_reference(ratio * n_b, n_b)

    @pytest.mark.parametrize(
        "n_a, n_b",
        [(1e16, 1e16), (3e22, 1e22), (3e22, 1e21), (1.7e308, 1e307),
         (1.7976931348623157e308, 1.7976931348623157e308), (1.7976931348623157e308, 1e300),
         (1e-10, 1e300), (5e-324, 1e300), (1e-10, 1e8), (1e4, 1e4), (1.0, 1e2 * (1 + 2**-52))],
    )
    def test_points_of_former_cancellation(self, n_a, n_b):
        assert_holevo_matches_reference(n_a, n_b)

    @pytest.mark.parametrize("n_b", [101.0, 1e8, 2.0**53, 1e17, 1e300])
    def test_across_the_switches(self, n_b):
        # n_a = 1e-17 n_b starts the full form, n_a + n_b = 2**53 ends the
        # log1p of the first term, and r / (n_b + 1) = 1e-16 the log1p of the last
        edges = [1e-17 * n_b, 2.0**53 - n_b, 1e-16 * (n_b + 1.0) * n_b]
        for edge in (e for e in edges if 0.0 < e < sys.float_info.max):
            for n_a in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf), 2.0 * edge):
                assert_holevo_matches_reference(n_a, n_b)


class TestHolevoAtSubnormalTotals:
    """Where 1/(n_a + n_b) overflowed, the capacity was inf, and where it is
    subnormal it is good to one step of 2**-1074."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n_a=st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),
        n_b=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.2250738585072014e-308)),
    )
    def test_random_points(self, n_a, n_b):
        assert_holevo_matches_reference(n_a, n_b)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        log_n_a=st.floats(min_value=-323.3, max_value=-290.0),
        log_n_b=st.one_of(st.just(-math.inf), st.floats(min_value=-323.3, max_value=300.0)),
    )
    def test_tiny_signal(self, log_n_a, log_n_b):
        n_a = 10.0**log_n_a
        if n_a > 0.0:
            assert_holevo_matches_reference(n_a, 10.0**log_n_b)

    @pytest.mark.parametrize(
        "n_a, n_b", [(1e-310, 0.0), (5e-324, 0.0), (1e-309, 1e-310), (5e-324, 5e-324), (1e-320, 1.0)]
    )
    def test_points(self, n_a, n_b):
        assert_holevo_matches_reference(n_a, n_b)


class TestPie:
    def test_arithmetic(self):
        assert pie(0.2, 0.1) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_signal(self, bad):
        with pytest.raises(ValueError):
            pie(0.2, bad)

    def test_holevo_pie_near_asymptote(self):
        n_a = 1e-6
        value = pie(holevo_capacity(n_a, 0.01), n_a)
        assert abs(value - LOG2_101) / LOG2_101 < 1e-3

    def test_shannon_pie_noiseless(self):
        n_a = 1e-6
        value = pie(shannon_capacity(n_a, 0.0), n_a)
        assert abs(value - LOG2_E) / LOG2_E < 1e-3


class TestAsymptotes:
    def test_holevo_unit_background(self):
        assert holevo_pie_asymptote(1.0) == 1.0

    def test_holevo_values(self):
        assert math.isclose(holevo_pie_asymptote(0.1), LOG2_11, rel_tol=5e-14)
        assert math.isclose(holevo_pie_asymptote(0.01), LOG2_101, rel_tol=5e-14)

    @pytest.mark.parametrize("bad", [0.0, -0.5, float("inf")])
    def test_holevo_domain(self, bad):
        with pytest.raises(ValueError):
            holevo_pie_asymptote(bad)

    def test_shannon_values(self):
        assert shannon_pie_asymptote(0.0) == LOG2_E
        assert math.isclose(shannon_pie_asymptote(1.0), LOG2_E / 2.0, rel_tol=1e-15)
        assert math.isclose(shannon_pie_asymptote(0.1), LOG2E_OVER_11_10, rel_tol=5e-14)

    def test_shannon_domain(self):
        with pytest.raises(ValueError):
            shannon_pie_asymptote(-0.1)

    @pytest.mark.parametrize("n_b", [0.1, 0.01])
    def test_holevo_asymptote_matches_capacity_limit(self, n_b):
        # at n_a = 1e-8 the exact PIE sits within O(n_a / n_b) of the limit
        n_a = 1e-8
        exact = pie(holevo_capacity(n_a, n_b), n_a)
        assert abs(exact - holevo_pie_asymptote(n_b)) / exact < 1e-5

    @pytest.mark.parametrize("n_b", [0.0, 0.1])
    def test_shannon_asymptote_matches_capacity_limit(self, n_b):
        n_a = 1e-8
        exact = pie(shannon_capacity(n_a, n_b), n_a)
        assert abs(exact - shannon_pie_asymptote(n_b)) / exact < 1e-6


class TestLowSignalBehaviour:
    """Limiting behaviour of both efficiencies as the signal vanishes."""

    @pytest.mark.parametrize("n_b", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_asymptotes_reached_at_micro_photon_level(self, n_b):
        n_a = 1e-6
        hol = pie(holevo_capacity(n_a, n_b), n_a)
        sh = pie(shannon_capacity(n_a, n_b), n_a)
        assert abs(hol - holevo_pie_asymptote(n_b)) / holevo_pie_asymptote(n_b) < 0.01
        assert abs(sh - shannon_pie_asymptote(n_b)) / shannon_pie_asymptote(n_b) < 0.01

    def test_shannon_pie_insensitive_to_weak_background(self):
        n_a = 1e-4
        clean = pie(shannon_capacity(n_a, 0.0), n_a)
        noisy = pie(shannon_capacity(n_a, 0.01), n_a)
        assert abs(noisy - clean) / clean < 0.02

    def test_shannon_pie_decreasing_in_background(self):
        n_a = 1e-4
        values = [
            pie(shannon_capacity(n_a, n_b), n_a)
            for n_b in (0.0, 0.01, 0.1, 1.0, 10.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("capacity", [holevo_capacity, shannon_capacity])
    @pytest.mark.parametrize("n_b", [1e-1, 1e-2])
    def test_pie_flattens_to_a_constant(self, capacity, n_b):
        a = pie(capacity(1e-6, n_b), 1e-6)
        b = pie(capacity(1e-7, n_b), 1e-7)
        assert abs(a - b) / b < 0.005
