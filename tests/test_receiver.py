"""Tests for the structured-receiver simulation and its pattern codebook."""

import math
import re
import sys

import mpmath as mp
import numpy as np
import pytest

from photonlink.noise import click_probs, poissonian
from photonlink.receiver import (
    H,
    V,
    PatternFormatError,
    _module,
    apply_receiver,
    concentration_efficiency,
    load_pattern,
    make_pattern,
    save_pattern,
)

SQRT_HALF = math.sqrt(0.5)
ONE_MINUS_INV_E = 0.6321205588285577      # 1 - exp(-1)
P_B_NB_01 = 0.09516258196404043           # 1 - exp(-0.1)
SIXTEENTH_PHOTON_CLICK = 0.06058693718652421  # 1 - exp(-1/16)


def random_pattern(k, seed):
    # complex normal amplitudes drawn bin by bin, as rows H and V
    rng = np.random.default_rng(seed)
    n = 1 << k
    amps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return np.ascontiguousarray(amps.T)


def energy(field):
    return float(np.sum(np.abs(field) ** 2))


def bin_energies(field):
    # both polarizations of each bin
    return np.abs(field[H]) ** 2 + np.abs(field[V]) ** 2


def one_module(field, delay, phase=0.0, loss=1.0):
    # one module on a copy of the field
    out = np.array(field, dtype=np.complex128)
    _module(out, np.empty(out.shape[1], dtype=np.complex128), delay, phase, loss)
    return out


def check_by_apply_receiver(field, tmp_path):
    apply_receiver(field)


def check_by_save_pattern(field, tmp_path):
    save_pattern(str(tmp_path / "pattern.txt"), field)


class TestFieldChecks:
    # apply_receiver and save_pattern take a field only as a finite
    # complex (2, 2**k) array with 1 <= k <= MAX_K
    CHECKERS = [check_by_apply_receiver, check_by_save_pattern]

    @pytest.mark.parametrize("check", CHECKERS)
    @pytest.mark.parametrize(
        "shape", [(2, 3), (2, 6), (2, 0), (3, 2), (4, 2), (1, 2), (2,), (2, 2, 1), (), (2, 1), (2, 2**17)]
    )
    def test_rejects_a_wrong_shape(self, check, shape, tmp_path):
        with pytest.raises(ValueError, match=re.escape(f"shape (2, 2**k), got {shape}")):
            check(np.zeros(shape, dtype=complex), tmp_path)

    @pytest.mark.parametrize("check", CHECKERS)
    @pytest.mark.parametrize("cell", [complex(np.nan, 0.0), complex(0.0, np.inf), complex(-np.inf, 1.0)])
    def test_rejects_non_finite(self, check, cell, tmp_path):
        field = np.zeros((2, 2), dtype=complex)
        field[V, 1] = cell
        with pytest.raises(ValueError, match="finite"):
            check(field, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_apply_receiver_leaves_its_input(self):
        field = signed_zero_pattern(4, seed=1)
        before = field.copy()
        out = apply_receiver(field, per_module_loss=0.9, phase_error_sigma=0.3)
        assert same_bits(field, before)
        assert not np.shares_memory(out, field)
        assert out.flags.c_contiguous and out.flags.writeable

    def test_apply_receiver_takes_any_layout(self):
        # a Fortran-ordered array or a list runs as the C-ordered array it
        # equals: the transpose of a bin-by-bin table is one
        field = random_pattern(3, seed=8)
        want = apply_receiver(field, 1.0, 0.2, 9)
        assert same_bits(apply_receiver(np.asfortranarray(field), 1.0, 0.2, 9), want)
        assert same_bits(apply_receiver(field.tolist(), 1.0, 0.2, 9), want)


class TestArguments:
    # the checks of make_pattern, apply_receiver and concentration_efficiency
    def test_apply_receiver_defaults_to_the_ideal_cascade(self):
        field = random_pattern(3, seed=3)
        want = apply_receiver(field, per_module_loss=1.0, phase_error_sigma=0.0, rng_seed=0)
        assert same_bits(apply_receiver(field), want)

    @pytest.mark.parametrize("k, whole", [(3.0, 3), (np.float64(3.0), 3), (np.int64(3), 3), (True, 1)])
    def test_a_whole_k_runs_as_the_int_it_equals(self, k, whole):
        # a whole float or a bool is the int it equals
        assert concentration_efficiency(k, 0.1) == concentration_efficiency(whole, 0.1)
        assert same_bits(make_pattern(k, 1), make_pattern(whole, 1))

    @pytest.mark.parametrize("k", [0, 2.5, -1, math.inf, math.nan, 17, 1000, 1e308, "3", None])
    def test_rejects_a_bad_k_by_name(self, k):
        # the message names k's one bound, MAX_K = 16.  int() raised
        # OverflowError for inf and its own message for nan, and at k = 1000
        # numpy refused the (2, 2**1000) array
        message = re.escape(f"k must be an integer >= 1 and <= 16, got {k!r}")
        with pytest.raises(ValueError, match=message):
            make_pattern(k, 0, 1e308)
        with pytest.raises(ValueError, match=message):
            concentration_efficiency(k, 0.1)

    @pytest.mark.parametrize("loss", [0.0, 1.2, -0.5, math.nan])
    def test_rejects_a_bad_loss_by_name(self, loss):
        with pytest.raises(ValueError, match=re.escape(f"per_module_loss must be in (0, 1], got {loss!r}")):
            apply_receiver(make_pattern(3, 0), per_module_loss=loss)

    @pytest.mark.parametrize("sigma", [-0.1, math.inf, math.nan])
    def test_rejects_a_bad_sigma_by_name(self, sigma):
        message = re.escape(f"phase_error_sigma must be finite and >= 0, got {sigma!r}")
        with pytest.raises(ValueError, match=message):
            apply_receiver(make_pattern(3, 0), phase_error_sigma=sigma)
        with pytest.raises(ValueError, match=message):
            concentration_efficiency(3, sigma)

    @pytest.mark.parametrize("seed", [-1, 2.0, "7", None])
    def test_rejects_bad_seed_by_name(self, seed):
        with pytest.raises(ValueError, match="rng_seed must be an integer >= 0"):
            apply_receiver(make_pattern(3, 0), rng_seed=seed)


class TestModule:
    def test_zero_field_stays_zero(self):
        out = one_module(np.zeros((2, 4), dtype=complex), 2)
        assert np.all(out == 0.0)

    def test_two_bin_concentration_by_hand(self):
        # V pulse in bin 0 delayed onto the H pulse in bin 1, then the
        # half-wave plate adds them: everything lands in (bin 1, H)
        field = np.zeros((2, 2), dtype=complex)
        field[V, 0] = SQRT_HALF
        field[H, 1] = SQRT_HALF
        out = one_module(field, 1)
        assert abs(out[H, 1] - 1.0) < 1e-12
        assert abs(out[H, 0]) < 1e-15
        assert abs(out[V, 0]) < 1e-15
        assert abs(out[V, 1]) < 1e-15

    @pytest.mark.parametrize("k", range(1, 7))
    def test_ideal_module_is_unitary(self, k):
        field = random_pattern(k, seed=k)
        out = one_module(field, (1 << k) // 2)
        assert energy(out) == pytest.approx(energy(field), rel=1e-12)

    def test_loss_scales_energy(self):
        field = random_pattern(3, seed=1)
        out = one_module(field, 4, loss=0.8)
        assert energy(out) == pytest.approx(0.8 * energy(field), rel=1e-12)

    def test_phase_error_preserves_energy(self):
        field = random_pattern(3, seed=2)
        out = one_module(field, 4, phase=0.7)
        assert energy(out) == pytest.approx(energy(field), rel=1e-12)


class TestMakePattern:
    def test_single_module_codebook_entry(self):
        field = make_pattern(1, 1, 1.0)
        expected = np.array([[0.0, SQRT_HALF], [SQRT_HALF, 0.0]], dtype=complex)
        assert np.allclose(field, expected, atol=1e-15)

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_is_a_writeable_c_ordered_field(self, k):
        field = make_pattern(k, 0)
        assert field.shape == (2, 1 << k) and field.dtype == np.complex128
        assert field.flags.c_contiguous and field.flags.writeable

    def test_two_module_codebook_entry(self):
        # four pulses of amplitude 1/2: V-polarized halves first with a
        # sign flip on bin 0, H-polarized halves last
        field = make_pattern(2, 3, 1.0)
        expected = np.zeros((2, 4), dtype=complex)
        expected[V, 0] = -0.5
        expected[V, 1] = 0.5
        expected[H, 2] = 0.5
        expected[H, 3] = 0.5
        assert np.array_equal(field, expected)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_uniform_bin_energy(self, k):
        bins = bin_energies(make_pattern(k, 0, 3.7))
        assert np.all(bins == bins[0])  # bit-identical across bins
        assert bins[0] == pytest.approx(3.7 / (1 << k), rel=1e-12)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_binary_amplitudes_single_polarization(self, k):
        scale = math.sqrt(1.0 / (1 << k))
        for target in range(1 << k):
            field = make_pattern(k, target, 1.0)
            occupied = np.abs(field) > 0.0
            assert np.all(occupied.sum(axis=0) == 1)  # one polarization per bin
            values = field[occupied]
            assert np.all(values.imag == 0.0)
            assert np.all(np.abs(np.abs(values.real) - scale) < 1e-15)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_codebook_is_orthogonal(self, k):
        n = 1 << k
        flat = np.array([make_pattern(k, j, 1.0).ravel() for j in range(n)])
        gram = flat @ flat.conj().T
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-12

    @pytest.mark.parametrize("target", [-1, 4, 1.5, float("inf"), float("-inf"), float("nan")])
    def test_rejects_bad_target(self, target):
        with pytest.raises(ValueError, match=re.escape(f"target_bin must be an integer in [0, 4), got {target!r}")):
            make_pattern(2, target)

    def test_rejects_bad_energy(self):
        with pytest.raises(ValueError):
            make_pattern(2, 0, 0.0)

    @pytest.mark.parametrize(
        "k, total_energy", [(16, 1e-320), (16, 1e-303), (1, 4e-308), (3, 5e-324)]
    )
    def test_rejects_an_underflowing_bin_energy_by_name(self, k, total_energy):
        # below the smallest normal float per bin, the amplitudes lose
        # their digits or read 0
        message = f"total_energy = {total_energy!r} is too small for k = {k}"
        with pytest.raises(ValueError, match=re.escape(message)):
            make_pattern(k, 0, total_energy)

    @pytest.mark.parametrize("k", [1, 16])
    def test_smallest_normal_bin_energy_is_kept(self, k):
        field = make_pattern(k, 0, sys.float_info.min * (1 << k))
        assert np.all(np.abs(field.real).max(axis=0) == math.sqrt(sys.float_info.min))


class TestApplyReceiver:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_concentrates_every_codebook_entry(self, k):
        for target in range(1 << k):
            out = apply_receiver(make_pattern(k, target, 2.0))
            fraction = abs(out[H, target]) ** 2 / energy(out)
            assert fraction >= 1.0 - 1e-12

    def test_ideal_cascade_preserves_energy(self):
        field = random_pattern(5, seed=9)
        out = apply_receiver(field)
        assert energy(out) == pytest.approx(energy(field), rel=1e-12)

    def test_loss_composes_multiplicatively(self):
        out = apply_receiver(make_pattern(4, 2, 1.0), per_module_loss=0.99)
        assert energy(out) == pytest.approx(0.99**4, rel=1e-12)

    def test_seeded_runs_reproduce(self):
        field = random_pattern(4, seed=21)
        assert np.array_equal(apply_receiver(field, 1.0, 0.3, 5), apply_receiver(field, 1.0, 0.3, 5))

    def test_overflowing_phase_draw_is_refused_by_name(self):
        # sigma * N(0, 1) overflows to inf for a draw above 1 at sigma 1.7e308;
        # the cascade would turn it into nan amplitudes
        with pytest.raises(ValueError, match="phase_error_sigma = 1.7e[+]?308 is too large"):
            apply_receiver(make_pattern(16, 0), phase_error_sigma=1.7e308)

    def test_finite_phase_draws_are_unchanged(self):
        # the phases are the first k draws of one seeded normal stream
        k, sigma, seed = 5, 1e300, 4
        phases = np.random.default_rng(seed).normal(0.0, sigma, k)
        field = make_pattern(k, 3)
        for i in range(1, k + 1):
            field = one_module(field, (1 << k) >> i, phases[i - 1], 0.9)
        out = apply_receiver(make_pattern(k, 3), 0.9, sigma, seed)
        assert np.array_equal(out, field)

    def test_linearity_including_imperfections(self):
        imperfections = (0.9, 0.2, 3)
        p = random_pattern(3, seed=31)
        q = random_pattern(3, seed=32)
        alpha, beta = 0.8 - 0.3j, -1.1 + 0.7j
        left = apply_receiver(alpha * p + beta * q, *imperfections)
        right = alpha * apply_receiver(p, *imperfections) + beta * apply_receiver(q, *imperfections)
        assert np.max(np.abs(left - right)) <= 1e-12


def roll_module(field, delay, phase, loss):
    # the module step written with np.roll and np.stack, each a copy of
    # the whole field
    h = field[H]
    v = np.roll(field[V], delay) * np.exp(1j * phase)
    scale = SQRT_HALF * math.sqrt(loss)
    return np.stack(((h + v) * scale, (h - v) * scale))


def roll_receiver(field, loss, sigma, seed):
    k = field.shape[1].bit_length() - 1
    phases = np.random.default_rng(seed).normal(0.0, sigma, k)
    for i in range(1, k + 1):
        field = roll_module(field, field.shape[1] >> i, phases[i - 1], loss)
    return field


def roll_pattern(k, target_bin, total_energy=1.0):
    # the inverse cascade written with np.roll
    n = 1 << k
    h = np.zeros(n)
    v = np.zeros(n)
    h[target_bin] = 1.0
    for stage in range(k, 0, -1):
        h, v = h + v, h - v
        v = np.roll(v, -(n >> stage))
    field = np.empty((2, n), dtype=np.complex128)
    amp_scale = math.sqrt(total_energy / n)
    field[H] = h * amp_scale
    field[V] = v * amp_scale
    return field


def signed_zero_pattern(k, seed):
    # random amplitudes with a share of +0.0 and -0.0 parts, where a
    # reordered sum or product would flip the sign of a zero
    rng = np.random.default_rng(seed)
    parts = rng.normal(size=(1 << k, 4))
    parts[rng.random(parts.shape) < 0.3] = 0.0
    parts[rng.random(parts.shape) < 0.15] = -0.0
    return np.ascontiguousarray(parts.view(np.complex128).T)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestRollOracle:
    # the in-place cascade against the np.roll / np.column_stack one, bit
    # for bit, signed zeros included
    @pytest.mark.parametrize("k", range(1, 15))
    def test_make_pattern(self, k):
        n = 1 << k
        for target in sorted({0, 1, 5 % n, n // 3, n - 1}):
            for energy in (1.0, 7.5, 1e-300):
                assert same_bits(make_pattern(k, target, energy), roll_pattern(k, target, energy))

    @pytest.mark.parametrize("k", range(1, 15))
    def test_apply_receiver(self, k):
        n = 1 << k
        for sigma in (0.0, 0.05, 1e3):
            for loss in (1.0, 0.9):
                for seed in (0, 7, 90210):
                    args = (loss, sigma, seed)
                    for target in sorted({0, 5 % n, n - 1}):
                        field = make_pattern(k, target, 2.0)
                        assert same_bits(apply_receiver(field, *args), roll_receiver(field, *args))
                    field = signed_zero_pattern(k, seed)
                    assert same_bits(apply_receiver(field, *args), roll_receiver(field, *args))

    @pytest.mark.parametrize("k", range(0, 11))
    def test_module(self, k):
        # every delay that divides n_bins, n_bins itself too, and one bin
        for seed in (0, 7, 90210):
            field = signed_zero_pattern(k, seed)
            for delay in (1 << j for j in range(k + 1)):
                for phase in (0.0, -0.0, 0.05, 1e3):
                    for loss in (1.0, 0.9):
                        out = field.copy()
                        _module(out, np.empty(1 << k, dtype=np.complex128), delay, phase, loss)
                        assert same_bits(out, roll_module(field, delay, phase, loss))


def detector_clicks(field, model):
    # a single-photon detector per bin sees both polarizations' energy
    return np.array([click_probs(model, e)[1] for e in bin_energies(field).tolist()])


class TestDetectorClicks:
    def test_concentrated_output_clicks_only_at_target(self):
        out = apply_receiver(make_pattern(3, 5, 1.0))
        probs = detector_clicks(out, poissonian(0.0))
        assert probs[5] == pytest.approx(ONE_MINUS_INV_E, rel=1e-12)
        others = np.delete(probs, 5)
        assert np.all(others < 1e-12)

    def test_zero_field_clicks_at_background_rate(self):
        probs = detector_clicks(np.zeros((2, 4), dtype=complex), poissonian(0.1))
        assert probs == pytest.approx(np.full(4, P_B_NB_01), rel=1e-12)

    def test_unconcentrated_pattern_spreads_the_energy(self):
        # detector placed before the receiver sees 1/16 photon per bin
        probs = detector_clicks(make_pattern(4, 0, 1.0), poissonian(0.0))
        assert probs == pytest.approx(np.full(16, SIXTEENTH_PHOTON_CLICK), rel=1e-12)


# the variance m4**k - m2**(2k) is about k sigma**4 / 8 for small sigma while
# both terms are near 1, so at this many digits it keeps 14 digits for every
# std above 1e-300, and a smaller std is off by far less than 1e-300
MP_DIGITS = 700
# sigma of the grid: zero, the smallest subnormal, one whose sigma**2 is
# subnormal, small ones where a naive form cancels, and ones whose sigma**2
# overflows
SIGMA_GRID = [0.0, 5e-324, 1e-160, 1e-12, 1e-9, 1e-6, 0.05, 0.2, 1.0, 10.0, 1e300, 1.7e308]


def factor_moment(j, sigma):
    """E cos^(2j)(phi / 2) over phi ~ N(0, sigma**2), in mpmath.

    cos^(2j)(x) = 4**-j (C(2j, j) + 2 sum_r C(2j, j - r) cos(2 r x)), r = 1 .. j,
    and E cos(r phi) = e**(r**2) with e = exp(-sigma**2 / 2).
    """
    e = mp.exp(-(mp.mpf(sigma) ** 2) / 2)
    terms = [mp.binomial(2 * j, j - r) * e ** (r * r) for r in range(1, j + 1)]
    return (mp.binomial(2 * j, j) + 2 * mp.fsum(terms)) / 4**j


def assert_exact_statistics(sigma):
    # the raw moments of a product of k independent factors are the k-th
    # powers of the factor's; the variance is formed by plain subtraction
    with mp.workdps(MP_DIGITS):
        m2, m4 = factor_moment(1, sigma), factor_moment(2, sigma)
        for k in range(1, 17):
            want_mean = m2**k
            want_std = mp.sqrt(max(m4**k - m2 ** (2 * k), 0))
            mean, std = concentration_efficiency(k, sigma)
            assert abs(mean - want_mean) <= 1e-14 * want_mean, (k, sigma, mean)
            assert abs(std - want_std) <= max(1e-14 * want_std, 1e-300), (k, sigma, std)


class TestConcentrationEfficiency:
    @pytest.mark.parametrize("k", range(1, 17))
    def test_ideal_receiver_is_lossless_and_deterministic(self, k):
        assert concentration_efficiency(k, 0.0) == (1.0, 0.0)

    @pytest.mark.parametrize("sigma", SIGMA_GRID)
    def test_matches_mpmath_on_the_grid(self, sigma):
        assert_exact_statistics(sigma)

    def test_matches_mpmath_at_random_sigma(self):
        # log-uniform up to 1e20: beyond it mpmath's exp(-sigma**2 / 2)
        # slows down, and the grid holds 1e300 and 1.7e308
        for sigma in 10.0 ** np.random.default_rng(2718).uniform(-323.0, 20.0, 100):
            assert_exact_statistics(float(sigma))

    @pytest.mark.parametrize("seed", [0, 90210])
    @pytest.mark.parametrize("sigma", [0.0, 0.05, 1.0, 10.0])
    @pytest.mark.parametrize("loss", [1.0, 0.9])
    @pytest.mark.parametrize("k", [1, 3, 6, 10])
    def test_matches_jones_oracle_trial_by_trial(self, k, loss, sigma, seed):
        # trial t chains the k modules with row t of one (trials, k) draw
        # seeded with rng_seed; its target-port fraction is
        # prod_i cos^2(phi_i / 2) whatever the codebook entry, energy and
        # loss, and trial 0 is apply_receiver's field exactly
        trials = 4
        n = 1 << k
        phases = np.random.default_rng(seed).normal(0.0, sigma, (trials, k))
        products = np.prod(np.cos(phases / 2.0) ** 2, axis=1)
        for target, total_energy in ((0, 1.0), (n - 1, 1e-2), (n // 3, 7.5)):
            field = make_pattern(k, target, total_energy)
            for t in range(trials):
                out = field
                for i in range(1, k + 1):
                    out = one_module(out, n >> i, phases[t, i - 1], loss)
                if t == 0:
                    assert np.array_equal(out, apply_receiver(field, loss, sigma, seed))
                fraction = abs(out[H, target]) ** 2 / energy(out)
                assert fraction == pytest.approx(products[t], rel=0.0, abs=1e-12)

    def test_one_generator_per_run(self, monkeypatch):
        made = []
        default_rng = np.random.default_rng

        def counting_default_rng(*args, **kwargs):
            made.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        concentration_efficiency(6, 0.3)
        assert made == []
        apply_receiver(make_pattern(6, 0), phase_error_sigma=0.3, rng_seed=5)
        assert made == [(5,)]

    @pytest.mark.parametrize("sigma", [0.05, 0.5, 2.0])
    @pytest.mark.parametrize("k", [1, 3, 10, 16])
    def test_sampled_statistics_within_six_standard_errors(self, k, sigma):
        # the Monte Carlo that the closed form replaced, as an oracle: one
        # seeded (trials, k) draw of phase errors
        trials = 20000
        phases = np.random.default_rng(1000 + k).normal(0.0, sigma, (trials, k))
        fractions = np.prod(np.cos(phases / 2.0) ** 2, axis=1)
        with mp.workdps(50):
            raw = [factor_moment(j, sigma) ** k for j in range(1, 5)]
            mu = raw[0]
            var = raw[1] - mu**2
            mu4 = raw[3] - 4 * raw[2] * mu + 6 * raw[1] * mu**2 - 3 * mu**4
            std_err_mean = float(mp.sqrt(var / trials))
            # delta method: the sample variance has variance (mu4 - var**2) / trials
            std_err_std = float(mp.sqrt((mu4 - var**2) / trials) / (2 * mp.sqrt(var)))
        mean, std = concentration_efficiency(k, sigma)
        assert abs(fractions.mean() - mean) <= 6.0 * std_err_mean
        assert abs(fractions.std() - std) <= 6.0 * std_err_std

    def test_strong_phase_noise_scrambles_uniformly(self):
        # sigma >> 2 pi: the target bin keeps only its 1/2**k share
        mean, std = concentration_efficiency(3, 10.0)
        assert 0.8 / 8.0 <= mean <= 1.2 / 8.0
        assert std > 0.0

    def test_small_phase_noise_costs_quadratically(self):
        defects = {}
        for sigma in (0.01, 0.02, 0.05):
            mean, _ = concentration_efficiency(3, sigma)
            defects[sigma] = 1.0 - mean
        assert defects[0.02] / defects[0.01] == pytest.approx(4.0, rel=0.12)
        assert defects[0.05] / defects[0.01] == pytest.approx(25.0, rel=0.12)
        # per-module phase variance splits evenly: defect ~ (k/4) sigma^2
        assert defects[0.01] / 0.01**2 == pytest.approx(3.0 / 4.0, rel=0.1)


# save_pattern's text of random_pattern(4, seed=404)
RANDOM_K4_TEXT = (
    "# k = 4 energy = 5.91780481522939610e+01\n"
    "# bin_index re_H im_H re_V im_V\n"
    "0 3.96329660469410816e-01 5.94526411603173877e-01 -6.16061480319285426e-01 1.52689624025382331e-01\n"
    "1 4.56879415657290788e-01 -4.13312573371715564e-01 8.92954923533900158e-01 1.02650357425357469e-01\n"
    "2 2.99434897896218521e-01 2.96312344126189176e-02 -2.53435368269853377e-02 -3.10973240720523192e+00\n"
    "3 2.96910235907816289e-01 7.69144073827982111e-01 1.36446625802959143e+00 1.11649113752570806e+00\n"
    "4 -1.46063280870440804e+00 -2.59629973830725336e-01 1.65247463888868862e+00 -3.88389649353744829e-02\n"
    "5 -5.02165856682774137e-01 2.43868787304399470e+00 -2.67481364918582154e-01 -1.03785650248563188e+00\n"
    "6 -4.99008013095813496e-01 -7.89947419721234501e-01 -7.20169494302376645e-01 -6.47836223429483077e-02\n"
    "7 -2.38332930216076794e-01 3.24043014564326512e-03 4.47709241052495655e-01 3.87292013808065216e-01\n"
    "8 3.84122518518243472e-01 2.11843935771225705e-01 3.72375815301984159e-01 1.12800432480043700e+00\n"
    "9 -1.67485642133137741e-01 -1.31439963897407558e-01 8.29604929518940160e-01 -6.27662921252796990e-01\n"
    "10 -1.06266952092615585e+00 1.32635821297050405e+00 4.25734639608915610e-01 4.52977892130658810e-01\n"
    "11 2.59763206161453430e-01 -7.69725482762418589e-01 7.58313558264277598e-01 8.52739508989021733e-01\n"
    "12 1.14293600928369354e+00 5.35994232278189431e-01 -2.21186699107914864e+00 3.96506528208579789e-01\n"
    "13 -1.35998528729919715e-01 -8.57118649519665876e-01 -2.39503139127756365e-01 -5.99398733298153297e-01\n"
    "14 -8.78785506934863125e-01 -2.83952211961768453e-01 -1.94744060378033335e+00 1.34756213957757121e+00\n"
    "15 9.06322751731469256e-01 -2.16792486132718887e+00 1.05261511066905644e+00 7.56027076132828046e-01\n"
)


class TestPatternIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        path = str(tmp_path / "pattern.txt")
        field = make_pattern(3, 5, 2.25)
        save_pattern(path, field)
        loaded = load_pattern(path)
        assert same_bits(loaded, field)
        assert loaded.flags.c_contiguous

    def test_round_trip_complex_amplitudes(self, tmp_path):
        path = str(tmp_path / "pattern.txt")
        field = apply_receiver(random_pattern(2, seed=40), phase_error_sigma=0.5, rng_seed=2)
        save_pattern(path, field)
        assert same_bits(load_pattern(path), field)

    def test_file_text_is_pinned(self, tmp_path):
        # exact bytes, so a change of number format cannot pass unnoticed;
        # the cells hold a negative zero and the smallest subnormal
        path = tmp_path / "pattern.txt"
        field = np.array([[complex(-0.0, 5e-324), complex(1.0, -0.0)], [0.5 - 0.25j, 3j]])
        save_pattern(str(path), field)
        assert path.read_text(encoding="utf-8") == (
            "# k = 1 energy = 1.03125000000000000e+01\n"
            "# bin_index re_H im_H re_V im_V\n"
            "0 -0.00000000000000000e+00 4.94065645841246544e-324 "
            "5.00000000000000000e-01 -2.50000000000000000e-01\n"
            "1 1.00000000000000000e+00 -0.00000000000000000e+00 "
            "0.00000000000000000e+00 3.00000000000000000e+00\n"
        )
        assert same_bits(load_pattern(str(path)), field)

    def test_random_field_text_is_pinned(self, tmp_path):
        # sixteen bins of complex normals: the header energy is summed bin
        # by bin (H, then V), and a sum over the rows H and V in turn
        # differs in its last digits here (...939610e+01 against ...939681e+01)
        path = tmp_path / "pattern.txt"
        save_pattern(str(path), random_pattern(4, seed=404))
        assert path.read_text(encoding="utf-8") == RANDOM_K4_TEXT
        assert same_bits(load_pattern(str(path)), random_pattern(4, seed=404))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 0 0 0\n1 0 0 0 0\n", encoding="utf-8")
        with pytest.raises(PatternFormatError, match="header"):
            load_pattern(str(path))

    # each header matches the header pattern, but a number in it does not parse
    @pytest.mark.parametrize(
        "header",
        ["# k = 2 energy = 1e", "# k = 2 energy = -.", f"# k = {'1' * 5000} energy = 1.0"],
        ids=["bare-exponent", "bare-point", "5000-digit-k"],
    )
    def test_unparsable_header_number_rejected_with_its_line(self, tmp_path, header):
        path = tmp_path / "header.txt"
        path.write_text(f"{header}\n0 1 0 0 0\n", encoding="utf-8")
        with pytest.raises(PatternFormatError, match=re.escape(f"{path}:1:")):
            load_pattern(str(path))

    def test_wrong_row_count_rejected(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("# k = 2 energy = 1.0\n0 1 0 0 0\n", encoding="utf-8")
        with pytest.raises(PatternFormatError, match="rows"):
            load_pattern(str(path))

    @pytest.mark.parametrize("k, n_rows", [(62, 2), (100, 2), (1, 3), (3, 0)])
    def test_header_k_must_match_row_count(self, tmp_path, k, n_rows):
        path = tmp_path / "count.txt"
        rows = "".join(f"{i} 1 0 0 0\n" for i in range(n_rows))
        path.write_text(f"# k = {k} energy = {float(n_rows)!r}\n{rows}", encoding="utf-8")
        with pytest.raises(PatternFormatError, match="rows"):
            load_pattern(str(path))

    @pytest.mark.parametrize("k", [0, 17])
    def test_header_k_outside_the_bound_rejected(self, tmp_path, k):
        # no receiver function takes such a field; save_pattern wrote a
        # (2, 1) one with k = 0
        path = tmp_path / "k.txt"
        rows = "".join(f"{i} 1 0 0 0\n" for i in range(1 << k))
        path.write_text(f"# k = {k} energy = {float(1 << k)!r}\n{rows}", encoding="utf-8")
        message = f"{path}:1: k must be an integer >= 1 and <= 16, got {k}"
        with pytest.raises(PatternFormatError, match=re.escape(message)):
            load_pattern(str(path))

    def test_out_of_order_rows_rejected(self, tmp_path):
        path = tmp_path / "order.txt"
        path.write_text(
            "# k = 1 energy = 1.0\n1 1 0 0 0\n0 0 0 0 0\n", encoding="utf-8"
        )
        with pytest.raises(PatternFormatError, match="bin_index"):
            load_pattern(str(path))

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "cols.txt"
        path.write_text("# k = 1 energy = 1.0\n0 1 0\n", encoding="utf-8")
        with pytest.raises(PatternFormatError, match="columns"):
            load_pattern(str(path))

    def test_header_energy_must_match_rows(self, tmp_path):
        path = tmp_path / "energy.txt"
        path.write_text(
            "# k = 1 energy = 5.0\n0 1 0 0 0\n1 0 0 0 0\n", encoding="utf-8"
        )
        with pytest.raises(PatternFormatError, match="energy"):
            load_pattern(str(path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected_with_its_line(self, tmp_path, cell):
        path = tmp_path / "finite.txt"
        path.write_text(
            f"# k = 1 energy = 1.0\n0 1 0 0 0\n1 0 0 {cell} 0\n", encoding="utf-8"
        )
        with pytest.raises(PatternFormatError, match=re.escape(f"{path}:3:") + ".*finite"):
            load_pattern(str(path))
