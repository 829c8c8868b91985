"""Tests for the detector click statistics under both background models."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from photonlink.noise import (
    GAUSS,
    MODEL_KINDS,
    POISSON,
    NoiseModel,
    click_probs,
    gaussian,
    poissonian,
)

# 50-digit evaluations of the closed forms, rounded to float64
P_PB_AT_01 = 0.09516258196404043       # 1 - exp(-0.1)
P_PP_AT_01_EP1 = 0.6671289163019204    # 1 - exp(-1.1)
G_PB_AT_01 = 0.09090909090909091       # 0.1 / 1.1
G_PP_AT_01_EP1 = 0.6337360713371518    # 1 - exp(-1/1.1)/1.1
ONE_MINUS_EXP_M25 = 0.9179150013761012

small_energies = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
backgrounds = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


class TestNoiseModel:
    def test_kinds(self):
        assert MODEL_KINDS == (POISSON, GAUSS)
        assert poissonian(0.5) == NoiseModel(POISSON, 0.5)
        assert gaussian(0.5) == NoiseModel(GAUSS, 0.5)

    @pytest.mark.parametrize("bad", [-1e-12, float("nan"), float("inf")])
    def test_rejects_bad_background(self, bad):
        with pytest.raises(ValueError):
            NoiseModel(POISSON, bad)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseModel("thermal", 0.1)


class TestClickProbs:
    def test_dark_and_silent(self):
        assert click_probs(poissonian(0.0), 0.0) == (0.0, 0.0)

    def test_gaussian_noiseless_pulse(self):
        p_b, p_p = click_probs(gaussian(0.0), 2.5)
        assert p_b == 0.0
        assert math.isclose(p_p, ONE_MINUS_EXP_M25, rel_tol=5e-14)

    def test_poisson_values(self):
        p_b, p_p = click_probs(poissonian(0.1), 1.0)
        assert math.isclose(p_b, P_PB_AT_01, rel_tol=5e-14)
        assert math.isclose(p_p, P_PP_AT_01_EP1, rel_tol=5e-14)

    def test_gaussian_values(self):
        p_b, p_p = click_probs(gaussian(0.1), 1.0)
        assert math.isclose(p_b, G_PB_AT_01, rel_tol=5e-14)
        assert math.isclose(p_p, G_PP_AT_01_EP1, rel_tol=5e-14)

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_rejects_bad_pulse_energy(self, bad):
        with pytest.raises(ValueError):
            click_probs(poissonian(0.1), bad)

    @pytest.mark.parametrize("shape", [(4,), (2, 2)])
    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_rejects_an_array_naming_its_first_bad_energy(self, bad, shape):
        energies = np.array([0.0, 1.0, bad, -7.0]).reshape(shape)
        with pytest.raises(ValueError) as excinfo:
            click_probs(poissonian(0.1), energies)
        assert str(excinfo.value) == f"pulse_energy must be finite and >= 0, got {bad!r}"

    def test_tiny_background_keeps_precision(self):
        # p_b at n_b = 1e-4 must carry full relative precision, which a
        # naive 1 - exp(-n_b) would lose to cancellation
        p_b, _ = click_probs(poissonian(1e-4), 0.0)
        assert math.isclose(p_b, 9.99950001666625e-05, rel_tol=5e-14)


class TestModelAgreement:
    @given(e_p=small_energies)
    def test_identical_without_background(self, e_p):
        p_b, p_p = click_probs(poissonian(0.0), e_p)
        q_b, q_p = click_probs(gaussian(0.0), e_p)
        assert p_b == q_b == 0.0
        assert p_p == q_p  # bit-for-bit, not merely close

    def test_first_order_agreement(self):
        # the gap between the models must shrink faster than the scale itself
        previous = None
        for eps in (1e-2, 1e-3, 1e-4, 1e-5):
            p_b, p_p = click_probs(poissonian(eps), eps)
            q_b, q_p = click_probs(gaussian(eps), eps)
            gap = max(abs(p_b - q_b), abs(p_p - q_p)) / eps
            if previous is not None:
                assert gap < previous / 5.0
            previous = gap
        assert previous < 1e-4


class TestMonotonicity:
    @pytest.mark.parametrize("make", [poissonian, gaussian])
    def test_pulse_probability_increases_with_energy(self, make):
        model = make(0.05)
        values = [click_probs(model, e)[1] for e in (0.0, 0.1, 0.5, 1.0, 5.0, 20.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_background_probability_increases_with_noise(self, kind):
        values = [
            click_probs(NoiseModel(kind, n_b), 0.0)[0]
            for n_b in (0.0, 1e-4, 1e-2, 0.1, 1.0, 10.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n_b", [0.0, 0.3, 2.0])
    def test_gaussian_pulse_probability_saturates_at_one(self, n_b):
        # the exponential term dies off; the 1/(n_b+1) prefactor does not cap p_p
        assert click_probs(gaussian(n_b), 1e4)[1] == pytest.approx(1.0, abs=1e-12)

    @given(
        kind=st.sampled_from(MODEL_KINDS),
        n_b=backgrounds,
        e_p=small_energies,
    )
    def test_probabilities_well_formed(self, kind, n_b, e_p):
        p_b, p_p = click_probs(NoiseModel(kind, n_b), e_p)
        assert 0.0 <= p_b <= p_p <= 1.0
