"""Tests for PPM and OOK mutual information against independent oracles.

The closed forms are checked two ways: frozen high-precision literals for
single points, and exhaustive enumeration over all click patterns (PPM) or
the exact 2x2 joint distribution (OOK) across a grid of operating points.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mp_reference
from enumeration_oracle import ppm_mi_enumeration_oracle
from photonlink.capacity import pie
from photonlink.modulation import _ook_mi, _ppm_mi, ook_mi_per_bin, ppm_mi_per_bin
from photonlink.noise import (
    GAUSS,
    MODEL_KINDS,
    NoiseModel,
    _click_params,
    click_probs,
    gaussian,
    poissonian,
)

# 50-digit evaluations rounded to float64
PPM_BIN_M2_NA05_CLEAN = 0.31606027941427883   # (1 - 1/e) / 2
PPM_FRAME_M2_NA05_CLEAN = 0.6321205588285577  # 1 - 1/e
OOK_BIN_M2_NA05_CLEAN = 0.42553061920345037
PPM_FRAME_M8_NA005_G001 = 0.7516214093826792

ORACLE_GRID_N_A = (0.01, 0.1, 0.5)
ORACLE_GRID_N_B = (0.0, 1e-3, 1e-1)

# Error budget of the kernels against 50-digit closed forms.  Every term
# the kernels sum is >= 0, so rounding never cancels: a term loses < 4e-15
# to its truncated series, or about 1e-15 / t (t >= 0.005) to the rounding
# of log1p(t), and the PPM factor exp((M - 1) log(1 - p_b)) loses up to
# 745 ulps of its argument before it underflows, 8e-14.  Measured worst
# case over 18,000 random points: 9.2e-14.  Below 1e-300 bit the factors
# of a product can leave the normal float range (2.2e-308), where float64
# keeps fewer digits, hence the absolute floor.
KERNEL_RTOL = 1e-12
KERNEL_ATOL = 1e-300
KERNELS = {"ppm": _ppm_mi, "ook": _ook_mi}


def ook_joint_mi_oracle(m, n_a, model):
    """OOK mutual information from the explicit (symbol, click) joint table."""
    p_b, p_p = click_probs(model, m * n_a)
    p_on = 1.0 / m
    joint = [
        [p_on * p_p, p_on * (1.0 - p_p)],
        [(1.0 - p_on) * p_b, (1.0 - p_on) * (1.0 - p_b)],
    ]
    p_x = [sum(row) for row in joint]
    p_y = [sum(col) for col in zip(*joint)]
    mi = 0.0
    for i in range(2):
        for j in range(2):
            if joint[i][j] > 0.0:
                mi += joint[i][j] * math.log2(joint[i][j] / (p_x[i] * p_y[j]))
    return mi


class TestPpmClosedForm:
    def test_noiseless_binary_frame(self):
        # q_w vanishes, so the frame carries (1 - e^-1) log2(2) bits
        mi = ppm_mi_per_bin(2, 0.5, poissonian(0.0))
        assert math.isclose(mi, PPM_BIN_M2_NA05_CLEAN, rel_tol=5e-14)
        assert math.isclose(2 * mi, PPM_FRAME_M2_NA05_CLEAN, rel_tol=5e-14)

    @pytest.mark.parametrize("m", [2, 5.5, 12])
    @pytest.mark.parametrize("make", [poissonian, gaussian])
    def test_zero_signal_carries_nothing(self, m, make):
        assert ppm_mi_per_bin(m, 0.0, make(0.2)) == 0.0

    def test_pie_is_information_per_photon(self):
        mi = ppm_mi_per_bin(16, 0.03, gaussian(1e-3))
        assert isinstance(mi, float)
        assert pie(mi, 0.03) == pytest.approx(mi / 0.03, rel=1e-15)

    def test_continuous_frame_length(self):
        # M is a real parameter; values interpolate smoothly between integers
        lo = ppm_mi_per_bin(8, 0.05, poissonian(1e-2))
        mid = ppm_mi_per_bin(8.5, 0.05, poissonian(1e-2))
        hi = ppm_mi_per_bin(9, 0.05, poissonian(1e-2))
        assert min(lo, hi) <= mid <= max(lo, hi)

    @pytest.mark.parametrize("bad_m", [1.999, 1, 0, -3, float("nan")])
    def test_frame_length_domain(self, bad_m):
        with pytest.raises(ValueError):
            ppm_mi_per_bin(bad_m, 0.1, poissonian(0.0))

    def test_signal_domain(self):
        with pytest.raises(ValueError):
            ppm_mi_per_bin(4, -0.1, poissonian(0.0))


class TestEnumerationOracle:
    def test_noiseless_binary_frame(self):
        value = ppm_mi_enumeration_oracle(2, 0.5, poissonian(0.0))
        assert math.isclose(value, PPM_FRAME_M2_NA05_CLEAN, rel_tol=5e-14)

    @pytest.mark.parametrize("make", [poissonian, gaussian])
    def test_zero_signal(self, make):
        # indistinguishable inputs; the enumeration route only reaches zero
        # up to float accumulation noise in the joint-distribution sums
        assert ppm_mi_enumeration_oracle(4, 0.0, make(0.1)) <= 1e-12

    def test_agrees_with_closed_form_single_point(self):
        closed = 4 * ppm_mi_per_bin(4, 0.25, poissonian(1e-2))
        oracle = ppm_mi_enumeration_oracle(4, 0.25, poissonian(1e-2))
        assert abs(closed - oracle) <= 1e-10

    @pytest.mark.parametrize("bad_m", [1, 13, 2.5, float("inf"), float("nan")])
    def test_frame_length_guard(self, bad_m):
        with pytest.raises(ValueError):
            ppm_mi_enumeration_oracle(bad_m, 0.1, poissonian(0.0))


class TestOracleEquivalence:
    """Closed form versus exhaustive enumeration across the operating grid."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("m", range(2, 13))
    def test_frame_information_matches(self, m, kind):
        for n_a in ORACLE_GRID_N_A:
            for n_b in ORACLE_GRID_N_B:
                model = NoiseModel(kind, n_b)
                closed = m * ppm_mi_per_bin(m, n_a, model)
                oracle = ppm_mi_enumeration_oracle(m, n_a, model)
                assert abs(closed - oracle) <= 1e-10, (m, n_a, n_b, kind)


class TestGaussianFramePoint:
    def test_frozen_value(self):
        closed = 8 * ppm_mi_per_bin(8, 0.05, gaussian(0.01))
        assert math.isclose(closed, PPM_FRAME_M8_NA005_G001, rel_tol=5e-14)
        oracle = ppm_mi_enumeration_oracle(8, 0.05, gaussian(0.01))
        assert abs(closed - oracle) <= 1e-10


class TestOok:
    @pytest.mark.parametrize("n_a", [0.0, 0.1, 2.0])
    @pytest.mark.parametrize("make", [poissonian, gaussian])
    def test_single_symbol_alphabet(self, n_a, make):
        # M = 1 means the pulse is always on: nothing to distinguish
        assert ook_mi_per_bin(1, n_a, make(0.1)) == 0.0

    def test_balanced_noiseless_point(self):
        assert math.isclose(ook_mi_per_bin(2, 0.5, poissonian(0.0)), OOK_BIN_M2_NA05_CLEAN, rel_tol=5e-14)

    def test_zero_signal(self):
        assert ook_mi_per_bin(8, 0.0, gaussian(0.3)) == 0.0

    @pytest.mark.parametrize("m", [1.5, 2, 8, 150.0])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_matches_joint_distribution_oracle(self, m, kind):
        for n_a, n_b in [(0.01, 0.0), (0.1, 1e-3), (0.5, 1e-1), (1e-4, 1e-2)]:
            model = NoiseModel(kind, n_b)
            closed = ook_mi_per_bin(m, n_a, model)
            oracle = ook_joint_mi_oracle(m, n_a, model)
            assert abs(closed - oracle) <= 1e-12, (m, n_a, n_b, kind)

    @pytest.mark.parametrize("bad_m", [0.999, 0, -1, float("inf")])
    def test_duty_cycle_domain(self, bad_m):
        with pytest.raises(ValueError):
            ook_mi_per_bin(bad_m, 0.1, poissonian(0.0))


class TestProperties:
    @given(
        m=st.floats(min_value=2.0, max_value=500.0),
        n_a=st.floats(min_value=0.0, max_value=1.0),
        n_b=st.floats(min_value=0.0, max_value=1.0),
        kind=st.sampled_from(MODEL_KINDS),
    )
    @settings(max_examples=200)
    def test_information_is_nonnegative(self, m, n_a, n_b, kind):
        model = NoiseModel(kind, n_b)
        assert ppm_mi_per_bin(m, n_a, model) >= 0.0
        assert ook_mi_per_bin(m, n_a, model) >= 0.0

    @given(
        m=st.floats(min_value=2.0, max_value=200.0),
        n_a=st.floats(min_value=1e-6, max_value=0.5),
        n_b=st.floats(min_value=0.0, max_value=0.5),
        kind=st.sampled_from(MODEL_KINDS),
    )
    @settings(max_examples=200)
    def test_distinguishable_symbols_carry_information(self, m, n_a, n_b, kind):
        # p_p > p_b whenever the pulse carries energy, so the information
        # is strictly positive, vanishing only with the signal itself
        model = NoiseModel(kind, n_b)
        assert ppm_mi_per_bin(m, n_a, model) > 0.0
        assert ook_mi_per_bin(m, n_a, model) > 0.0

    @given(
        m=st.floats(min_value=2.0, max_value=100.0),
        n_a=st.floats(min_value=1e-6, max_value=0.5),
        n_b=st.floats(min_value=0.0, max_value=0.2),
        kind=st.sampled_from(MODEL_KINDS),
    )
    @settings(max_examples=200)
    def test_ook_dominates_simple_decoded_ppm(self, m, n_a, n_b, kind):
        # the erasure decoder throws away multi-click patterns, so PPM can
        # never beat the full binary channel at the same operating point
        model = NoiseModel(kind, n_b)
        ook = ook_mi_per_bin(m, n_a, model)
        ppm = ppm_mi_per_bin(m, n_a, model)
        assert ook >= ppm - 1e-12


def assert_kernel_matches_closed_form(scheme, kind, m, n_a, n_b):
    got = KERNELS[scheme](np.array([m]), np.array([n_a]), _click_params(kind, np.array([n_b])))[0]
    want = mp_reference.mi_per_bin(scheme, kind, m, n_a, n_b)
    assert abs(mp.mpf(got) - want) <= KERNEL_ATOL + KERNEL_RTOL * want, (
        scheme, kind, m, n_a, n_b, got, mp.nstr(want, 17)
    )


class TestKernelsAgainstMpmath:
    """The float kernels against closed forms at 50 digits, over the whole
    range the CLI accepts: n_a in [1e-10, 1], n_b in [0, 1e2], M up to 1e9."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(
        scheme=st.sampled_from(sorted(KERNELS)),
        kind=st.sampled_from(MODEL_KINDS),
        log_m=st.floats(min_value=0.0, max_value=1.0),
        log_n_a=st.floats(min_value=-10.0, max_value=0.0),
        n_b=st.one_of(st.just(0.0), st.floats(min_value=-10.0, max_value=2.0).map(lambda x: 10.0**x)),
    )
    def test_random_points(self, scheme, kind, log_m, log_n_a, n_b):
        m_min = mp_reference.M_MIN[scheme]
        m = min(m_min * (1e9 / m_min) ** log_m, 1e9)
        assert_kernel_matches_closed_form(scheme, kind, m, 10.0**log_n_a, n_b)

    # (n_b, n_a) where the entropy-difference kernels lost most of their
    # digits: PPM erred by up to 250x at n_b = 1, n_a = 1e-10, and at
    # Poisson n_b = 1e2 p_b rounded to 1 and both kernels returned 0
    @pytest.mark.parametrize(
        "n_b, n_a",
        [(0.0, 1e-10), (1e-6, 1e-10), (1e-2, 1e-8), (1e-2, 1e-10),
         (1.0, 1e-6), (1.0, 1e-8), (1.0, 1e-10), (1e2, 1e-6), (1e2, 1.0)],
    )
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("scheme", sorted(KERNELS))
    def test_points_of_former_cancellation(self, scheme, kind, n_b, n_a):
        m_min = mp_reference.M_MIN[scheme]
        for m in [m_min, 2.5, 30.0, 101.0, 1e3, 1e5, 1e7, 1e9]:
            if m >= m_min:
                assert_kernel_matches_closed_form(scheme, kind, m, n_a, n_b)

    @pytest.mark.parametrize("make", [poissonian, gaussian])
    def test_overflowing_background_term_gives_zero_without_a_warning(self, make):
        # (M - 1) log(1 - p_b) overflows to -inf, the right limit, at a
        # Poisson n_b above about 1.8e299; RuntimeWarning is an error here
        for function in (ppm_mi_per_bin, ook_mi_per_bin):
            assert function(1e9, 1e-3, make(1e308)) == 0.0

    def test_large_background_keeps_its_information(self):
        # Poisson p_b = 1 - e^-100 rounds to 1; the information does not vanish
        for kernel in KERNELS.values():
            clicks = _click_params("poisson", np.array([1e2]))
            assert kernel(np.array([2.0]), np.array([1e-6]), clicks)[0] > 0.0
