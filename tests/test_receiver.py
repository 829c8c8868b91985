"""Tests for the structured-receiver simulation and its pattern codebook."""

import math
import re

import numpy as np
import pytest

from photonlink import receiver
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


class TestConcentrationEfficiency:
    def test_ideal_receiver_is_lossless_and_deterministic(self):
        mean, std = concentration_efficiency(ReceiverConfig(k=4), trials=8)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert std == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("seed", [0, 90210])
    @pytest.mark.parametrize("sigma", [0.0, 0.05, 1.0, 10.0])
    @pytest.mark.parametrize("loss", [1.0, 0.9])
    @pytest.mark.parametrize("k", [1, 3, 6, 10])
    def test_matches_jones_oracle_trial_by_trial(self, k, loss, sigma, seed):
        # trial t chains the modules with row t of one (trials, k) draw
        # seeded with rng_seed, whatever the codebook entry and energy sent
        # through it; trial 0 is apply_receiver's field exactly.  Rows do
        # not depend on the trial count, so the statistics of the first
        # t + 1 trials pin trial t
        trials = 4
        n = 1 << k
        cfg = ReceiverConfig(k=k, per_module_loss=loss, phase_error_sigma=sigma, rng_seed=seed)
        phases = np.random.default_rng(seed).normal(0.0, sigma, (trials, k))
        closed = [concentration_efficiency(cfg, t + 1) for t in range(trials)]
        for target, energy in ((0, 1.0), (n - 1, 1e-2), (n // 3, 7.5)):
            pattern = make_pattern(k, target, energy)
            jones = []
            for t in range(trials):
                out = pattern
                for i in range(1, k + 1):
                    out = apply_module(out, n >> i, phases[t, i - 1], loss)
                if t == 0:
                    assert np.array_equal(out.amps, apply_receiver(pattern, cfg).amps)
                jones.append(abs(out.amps[target, H]) ** 2 / out.energy())
            for t, (mean, std) in enumerate(closed):
                assert mean == pytest.approx(np.mean(jones[: t + 1]), rel=0.0, abs=1e-12)
                assert std == pytest.approx(np.std(jones[: t + 1]), rel=0.0, abs=1e-12)
        if sigma == 0.0:
            assert closed[-1] == (1.0, 0.0)

    def test_one_generator_per_run(self, monkeypatch):
        made = []
        default_rng = np.random.default_rng

        def counting_default_rng(*args, **kwargs):
            made.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        concentration_efficiency(ReceiverConfig(k=6, phase_error_sigma=0.3, rng_seed=5), 2048)
        assert made == [(5,)]

    @pytest.mark.parametrize("chunk", [1, 7, 64, 99])
    def test_chunked_draws_equal_one_draw(self, monkeypatch, chunk):
        # a run longer than one chunk draws its rows chunk by chunk from
        # the same stream and merges the statistics; a small chunk size
        # stands in for the 2**17 rows of a real run
        trials, k, sigma, seed = 100, 5, 0.7, 23
        phases = np.random.default_rng(seed).normal(0.0, sigma, (trials, k))
        fractions = np.prod(np.cos(phases / 2.0) ** 2, axis=1)
        monkeypatch.setattr(receiver, "_TRIAL_CHUNK", chunk)
        cfg = ReceiverConfig(k=k, phase_error_sigma=sigma, rng_seed=seed)
        chunks = list(receiver._phase_errors(cfg, trials))
        assert [len(c) for c in chunks[:-1]] == [chunk] * (len(chunks) - 1)
        assert np.array_equal(np.concatenate(chunks), phases)
        mean, std = concentration_efficiency(cfg, trials)
        assert mean == pytest.approx(fractions.mean(), rel=1e-14)
        assert std == pytest.approx(fractions.std(), rel=1e-13)

    @pytest.mark.parametrize("sigma", [0.05, 0.5, 2.0])
    @pytest.mark.parametrize("k", [1, 3, 10, 16])
    def test_mean_within_six_standard_errors_of_exact(self, k, sigma):
        # each trial is a product of k independent cos^2(phi/2), phi ~ N(0,
        # sigma^2), whose mean m2 and second moment m4 are exact
        trials = 20000
        m2 = (1.0 + math.exp(-sigma**2 / 2.0)) / 2.0
        m4 = (1.5 + 2.0 * math.exp(-sigma**2 / 2.0) + math.exp(-2.0 * sigma**2) / 2.0) / 4.0
        std_err = math.sqrt((m4**k - m2 ** (2 * k)) / trials)
        cfg = ReceiverConfig(k=k, phase_error_sigma=sigma, rng_seed=1000 + k)
        mean, _ = concentration_efficiency(cfg, trials)
        assert abs(mean - m2**k) <= 6.0 * std_err

    def test_repeatable_for_fixed_seed(self):
        cfg = ReceiverConfig(k=3, phase_error_sigma=0.4, rng_seed=17)
        assert concentration_efficiency(cfg, 100) == concentration_efficiency(cfg, 100)

    def test_strong_phase_noise_scrambles_uniformly(self):
        # sigma >> 2 pi: the target bin keeps only its 1/2**k share
        cfg = ReceiverConfig(k=3, phase_error_sigma=10.0, rng_seed=7)
        mean, std = concentration_efficiency(cfg, 10000)
        assert 0.8 / 8.0 <= mean <= 1.2 / 8.0
        assert std > 0.0

    def test_small_phase_noise_costs_quadratically(self):
        defects = {}
        for sigma in (0.01, 0.02, 0.05):
            cfg = ReceiverConfig(k=3, phase_error_sigma=sigma, rng_seed=11)
            mean, _ = concentration_efficiency(cfg, 4000)
            defects[sigma] = 1.0 - mean
        assert defects[0.02] / defects[0.01] == pytest.approx(4.0, rel=0.12)
        assert defects[0.05] / defects[0.01] == pytest.approx(25.0, rel=0.12)
        # per-module phase variance splits evenly: defect ~ (k/4) sigma^2
        assert defects[0.01] / 0.01**2 == pytest.approx(3.0 / 4.0, rel=0.1)

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            concentration_efficiency(ReceiverConfig(k=2), trials=0)


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
