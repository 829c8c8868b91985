"""Tests for the structured-receiver simulation and its pattern codebook."""

import math
import re

import mpmath as mp
import numpy as np
import pytest

from photonlink.noise import poissonian
from photonlink.receiver import (
    H,
    V,
    FieldPattern,
    PatternFormatError,
    ReceiverConfig,
    apply_module,
    apply_receiver,
    concentration_efficiency,
    detect_pattern,
    load_pattern,
    make_pattern,
    save_pattern,
)

SQRT_HALF = math.sqrt(0.5)
ONE_MINUS_INV_E = 0.6321205588285577      # 1 - exp(-1)
P_B_NB_01 = 0.09516258196404043           # 1 - exp(-0.1)
SIXTEENTH_PHOTON_CLICK = 0.06058693718652421  # 1 - exp(-1/16)


def random_pattern(k, seed):
    rng = np.random.default_rng(seed)
    n = 1 << k
    amps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return FieldPattern(amps)


class TestFieldPattern:
    def test_basic_accessors(self):
        pattern = FieldPattern(np.array([[1.0, 0.0], [0.0, 1j]]))
        assert pattern.n_bins == 2
        assert pattern.energy() == pytest.approx(2.0, rel=1e-15)
        assert pattern.bin_energies() == pytest.approx([1.0, 1.0])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            FieldPattern(np.zeros((3, 2), dtype=complex))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            FieldPattern(np.zeros((4, 3), dtype=complex))

    def test_rejects_non_finite(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = np.nan
        with pytest.raises(ValueError):
            FieldPattern(amps)

    def test_amplitudes_are_read_only(self):
        pattern = FieldPattern(np.zeros((2, 2), dtype=complex))
        with pytest.raises(ValueError):
            pattern.amps[0, 0] = 1.0

    def test_detached_from_source_array(self):
        source = np.zeros((2, 2), dtype=complex)
        pattern = FieldPattern(source)
        source[0, 0] = 5.0
        assert pattern.amps[0, 0] == 0.0


class TestReceiverConfig:
    def test_defaults(self):
        cfg = ReceiverConfig(k=3)
        assert cfg.per_module_loss == 1.0
        assert cfg.phase_error_sigma == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"k": 2.5},
            {"k": 3, "per_module_loss": 0.0},
            {"k": 3, "per_module_loss": 1.2},
            {"k": 3, "phase_error_sigma": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ReceiverConfig(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 2.0, "7", None])
    def test_rejects_bad_seed_by_name(self, seed):
        with pytest.raises(ValueError, match="rng_seed"):
            ReceiverConfig(k=3, rng_seed=seed)


class TestApplyModule:
    def test_zero_field_stays_zero(self):
        out = apply_module(FieldPattern(np.zeros((4, 2), dtype=complex)), 2)
        assert np.all(out.amps == 0.0)

    def test_two_bin_concentration_by_hand(self):
        # V pulse in bin 0 delayed onto the H pulse in bin 1, then the
        # half-wave plate adds them: everything lands in (bin 1, H)
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, V] = SQRT_HALF
        amps[1, H] = SQRT_HALF
        out = apply_module(FieldPattern(amps), 1)
        assert abs(out.amps[1, H] - 1.0) < 1e-12
        assert abs(out.amps[0, H]) < 1e-15
        assert abs(out.amps[0, V]) < 1e-15
        assert abs(out.amps[1, V]) < 1e-15

    @pytest.mark.parametrize("k", range(1, 7))
    def test_ideal_module_is_unitary(self, k):
        pattern = random_pattern(k, seed=k)
        out = apply_module(pattern, (1 << k) // 2)
        assert out.energy() == pytest.approx(pattern.energy(), rel=1e-12)

    def test_loss_scales_energy(self):
        pattern = random_pattern(3, seed=1)
        out = apply_module(pattern, 4, loss=0.8)
        assert out.energy() == pytest.approx(0.8 * pattern.energy(), rel=1e-12)

    def test_phase_error_preserves_energy(self):
        pattern = random_pattern(3, seed=2)
        out = apply_module(pattern, 4, phase_error=0.7)
        assert out.energy() == pytest.approx(pattern.energy(), rel=1e-12)

    @pytest.mark.parametrize("delay", [0, -1, 3, 8, 2.5])
    def test_rejects_bad_delay(self, delay):
        with pytest.raises(ValueError):
            apply_module(random_pattern(2, seed=3), delay)

    def test_rejects_bad_loss(self):
        with pytest.raises(ValueError):
            apply_module(random_pattern(2, seed=3), 2, loss=0.0)


class TestMakePattern:
    def test_single_module_codebook_entry(self):
        pattern = make_pattern(1, 1, 1.0)
        expected = np.array([[0.0, SQRT_HALF], [SQRT_HALF, 0.0]], dtype=complex)
        assert np.allclose(pattern.amps, expected, atol=1e-15)

    def test_two_module_codebook_entry(self):
        # four pulses of amplitude 1/2: V-polarized halves first with a
        # sign flip on bin 0, H-polarized halves last
        pattern = make_pattern(2, 3, 1.0)
        expected = np.zeros((4, 2), dtype=complex)
        expected[0, V] = -0.5
        expected[1, V] = 0.5
        expected[2, H] = 0.5
        expected[3, H] = 0.5
        assert np.array_equal(pattern.amps, expected)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_uniform_bin_energy(self, k):
        energy = 3.7
        pattern = make_pattern(k, 0, energy)
        bins = pattern.bin_energies()
        assert np.all(bins == bins[0])  # bit-identical across bins
        assert bins[0] == pytest.approx(energy / (1 << k), rel=1e-12)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_binary_amplitudes_single_polarization(self, k):
        scale = math.sqrt(1.0 / (1 << k))
        for target in range(1 << k):
            amps = make_pattern(k, target, 1.0).amps
            occupied = np.abs(amps) > 0.0
            assert np.all(occupied.sum(axis=1) == 1)  # one polarization per bin
            values = amps[occupied]
            assert np.all(values.imag == 0.0)
            assert np.all(np.abs(np.abs(values.real) - scale) < 1e-15)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_codebook_is_orthogonal(self, k):
        n = 1 << k
        flat = np.array([make_pattern(k, j, 1.0).amps.ravel() for j in range(n)])
        gram = flat @ flat.conj().T
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-12

    @pytest.mark.parametrize("target", [-1, 4, 1.5])
    def test_rejects_bad_target(self, target):
        with pytest.raises(ValueError):
            make_pattern(2, target)

    def test_rejects_bad_energy(self):
        with pytest.raises(ValueError):
            make_pattern(2, 0, 0.0)


class TestApplyReceiver:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_concentrates_every_codebook_entry(self, k):
        cfg = ReceiverConfig(k=k)
        for target in range(1 << k):
            out = apply_receiver(make_pattern(k, target, 2.0), cfg)
            fraction = abs(out.amps[target, H]) ** 2 / out.energy()
            assert fraction >= 1.0 - 1e-12

    def test_ideal_cascade_preserves_energy(self):
        pattern = random_pattern(5, seed=9)
        out = apply_receiver(pattern, ReceiverConfig(k=5))
        assert out.energy() == pytest.approx(pattern.energy(), rel=1e-12)

    def test_loss_composes_multiplicatively(self):
        pattern = make_pattern(4, 2, 1.0)
        out = apply_receiver(pattern, ReceiverConfig(k=4, per_module_loss=0.99))
        assert out.energy() == pytest.approx(0.99**4, rel=1e-12)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_receiver(make_pattern(3, 0), ReceiverConfig(k=4))

    def test_seeded_runs_reproduce(self):
        pattern = random_pattern(4, seed=21)
        cfg = ReceiverConfig(k=4, phase_error_sigma=0.3, rng_seed=5)
        a = apply_receiver(pattern, cfg)
        b = apply_receiver(pattern, cfg)
        assert np.array_equal(a.amps, b.amps)

    def test_builds_one_pattern(self, monkeypatch):
        # the k modules act on the raw array; only the result is validated
        pattern = make_pattern(6, 5)
        built = []
        post_init = FieldPattern.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(FieldPattern, "__post_init__", counting_post_init)
        out = apply_receiver(pattern, ReceiverConfig(k=6, phase_error_sigma=0.1))
        assert built == [out]

    def test_overflowing_phase_draw_is_refused_by_name(self):
        # sigma * N(0, 1) overflows to inf for a draw above 1 at sigma 1.7e308;
        # the cascade would turn it into nan amplitudes
        cfg = ReceiverConfig(k=16, phase_error_sigma=1.7e308)
        with pytest.raises(ValueError, match="phase_error_sigma"):
            apply_receiver(make_pattern(16, 0), cfg)

    def test_finite_phase_draws_are_unchanged(self):
        # the phases are the first k draws of one seeded normal stream
        k, sigma, seed = 5, 1e300, 4
        phases = np.random.default_rng(seed).normal(0.0, sigma, k)
        field = make_pattern(k, 3)
        for i in range(1, k + 1):
            field = apply_module(field, (1 << k) >> i, phases[i - 1], 0.9)
        out = apply_receiver(make_pattern(k, 3), ReceiverConfig(k, 0.9, sigma, seed))
        assert np.array_equal(out.amps, field.amps)

    def test_linearity_including_imperfections(self):
        cfg = ReceiverConfig(k=3, per_module_loss=0.9, phase_error_sigma=0.2, rng_seed=3)
        p = random_pattern(3, seed=31)
        q = random_pattern(3, seed=32)
        alpha, beta = 0.8 - 0.3j, -1.1 + 0.7j
        combined = FieldPattern(alpha * p.amps + beta * q.amps)
        left = apply_receiver(combined, cfg).amps
        right = alpha * apply_receiver(p, cfg).amps + beta * apply_receiver(q, cfg).amps
        assert np.max(np.abs(left - right)) <= 1e-12


class TestDetectPattern:
    def test_concentrated_output_clicks_only_at_target(self):
        out = apply_receiver(make_pattern(3, 5, 1.0), ReceiverConfig(k=3))
        probs = detect_pattern(out, poissonian(0.0))
        assert probs[5] == pytest.approx(ONE_MINUS_INV_E, rel=1e-12)
        others = np.delete(probs, 5)
        assert np.all(others < 1e-12)

    def test_zero_field_clicks_at_background_rate(self):
        probs = detect_pattern(
            FieldPattern(np.zeros((4, 2), dtype=complex)), poissonian(0.1)
        )
        assert probs == pytest.approx(np.full(4, P_B_NB_01), rel=1e-12)

    def test_unconcentrated_pattern_spreads_the_energy(self):
        # detector placed before the receiver sees 1/16 photon per bin
        probs = detect_pattern(make_pattern(4, 0, 1.0), poissonian(0.0))
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
            mean, std = concentration_efficiency(ReceiverConfig(k=k, phase_error_sigma=sigma))
            assert abs(mean - want_mean) <= 1e-14 * want_mean, (k, sigma, mean)
            assert abs(std - want_std) <= max(1e-14 * want_std, 1e-300), (k, sigma, std)


class TestConcentrationEfficiency:
    @pytest.mark.parametrize("loss", [1.0, 0.9])
    @pytest.mark.parametrize("k", range(1, 17))
    def test_ideal_receiver_is_lossless_and_deterministic(self, k, loss):
        cfg = ReceiverConfig(k=k, per_module_loss=loss)
        assert concentration_efficiency(cfg) == (1.0, 0.0)

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
        # prod_i cos^2(phi_i / 2) whatever the codebook entry and energy,
        # and trial 0 is apply_receiver's field exactly
        trials = 4
        n = 1 << k
        cfg = ReceiverConfig(k=k, per_module_loss=loss, phase_error_sigma=sigma, rng_seed=seed)
        phases = np.random.default_rng(seed).normal(0.0, sigma, (trials, k))
        products = np.prod(np.cos(phases / 2.0) ** 2, axis=1)
        for target, energy in ((0, 1.0), (n - 1, 1e-2), (n // 3, 7.5)):
            pattern = make_pattern(k, target, energy)
            for t in range(trials):
                out = pattern
                for i in range(1, k + 1):
                    out = apply_module(out, n >> i, phases[t, i - 1], loss)
                if t == 0:
                    assert np.array_equal(out.amps, apply_receiver(pattern, cfg).amps)
                fraction = abs(out.amps[target, H]) ** 2 / out.energy()
                assert fraction == pytest.approx(products[t], rel=0.0, abs=1e-12)

    def test_one_generator_per_run(self, monkeypatch):
        made = []
        default_rng = np.random.default_rng

        def counting_default_rng(*args, **kwargs):
            made.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        cfg = ReceiverConfig(k=6, phase_error_sigma=0.3, rng_seed=5)
        concentration_efficiency(cfg)
        assert made == []
        apply_receiver(make_pattern(6, 0), cfg)
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
        mean, std = concentration_efficiency(ReceiverConfig(k=k, phase_error_sigma=sigma))
        assert abs(fractions.mean() - mean) <= 6.0 * std_err_mean
        assert abs(fractions.std() - std) <= 6.0 * std_err_std

    def test_does_not_depend_on_the_seed(self):
        a = ReceiverConfig(k=3, phase_error_sigma=0.4, rng_seed=17)
        b = ReceiverConfig(k=3, phase_error_sigma=0.4, rng_seed=18)
        assert concentration_efficiency(a) == concentration_efficiency(b)

    def test_strong_phase_noise_scrambles_uniformly(self):
        # sigma >> 2 pi: the target bin keeps only its 1/2**k share
        cfg = ReceiverConfig(k=3, phase_error_sigma=10.0, rng_seed=7)
        mean, std = concentration_efficiency(cfg)
        assert 0.8 / 8.0 <= mean <= 1.2 / 8.0
        assert std > 0.0

    def test_small_phase_noise_costs_quadratically(self):
        defects = {}
        for sigma in (0.01, 0.02, 0.05):
            cfg = ReceiverConfig(k=3, phase_error_sigma=sigma, rng_seed=11)
            mean, _ = concentration_efficiency(cfg)
            defects[sigma] = 1.0 - mean
        assert defects[0.02] / defects[0.01] == pytest.approx(4.0, rel=0.12)
        assert defects[0.05] / defects[0.01] == pytest.approx(25.0, rel=0.12)
        # per-module phase variance splits evenly: defect ~ (k/4) sigma^2
        assert defects[0.01] / 0.01**2 == pytest.approx(3.0 / 4.0, rel=0.1)


class TestPatternIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        path = str(tmp_path / "pattern.txt")
        pattern = make_pattern(3, 5, 2.25)
        save_pattern(path, pattern)
        loaded = load_pattern(path)
        assert np.array_equal(loaded.amps, pattern.amps)

    def test_round_trip_complex_amplitudes(self, tmp_path):
        path = str(tmp_path / "pattern.txt")
        pattern = apply_receiver(
            random_pattern(2, seed=40),
            ReceiverConfig(k=2, phase_error_sigma=0.5, rng_seed=2),
        )
        save_pattern(path, pattern)
        assert np.array_equal(load_pattern(path).amps, pattern.amps)

    def test_file_text_is_pinned(self, tmp_path):
        # exact bytes, so a change of number format cannot pass unnoticed;
        # the cells hold a negative zero and the smallest subnormal
        path = tmp_path / "pattern.txt"
        amps = np.array([[complex(-0.0, 5e-324), 0.5 - 0.25j], [complex(1.0, -0.0), 3j]])
        save_pattern(str(path), FieldPattern(amps))
        assert path.read_text(encoding="utf-8") == (
            "# k = 1 energy = 1.03125000000000000e+01\n"
            "# bin_index re_H im_H re_V im_V\n"
            "0 -0.00000000000000000e+00 4.94065645841246544e-324 "
            "5.00000000000000000e-01 -2.50000000000000000e-01\n"
            "1 1.00000000000000000e+00 -0.00000000000000000e+00 "
            "0.00000000000000000e+00 3.00000000000000000e+00\n"
        )
        assert np.array_equal(load_pattern(str(path)).amps, amps)

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
