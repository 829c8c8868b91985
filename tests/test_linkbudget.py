"""Tests for the link budget: transmission, photon numbers, rates, peak power."""

import dataclasses
import math
from importlib import resources

import numpy as np
import pytest

from photonlink.capacity import holevo_capacity, shannon_capacity
from photonlink.linkbudget import (
    CONFIG_KEYS,
    AU_M,
    LinkConfigError,
    LinkParams,
    REFERENCE_REGIMES,
    _distance_sweep,
    channel_transmission,
    load_link_params,
    noise_power_watts,
    rate_vs_distance,
    received_photon_number,
    regime_summary,
    transmitter_peak_power,
)
from photonlink.noise import gaussian, poissonian
from photonlink.optimize import FLAG_BOUNDARY, FLAG_FAILED, FLAG_OK, OOK, PPM

RF_CONFIG = str(resources.files("photonlink").joinpath("configs/table1_rf.cfg"))
OPTICAL_CONFIG = str(resources.files("photonlink").joinpath("configs/table1_optical.cfg"))

# 50-digit evaluations of the closed-form chain, rounded to float64
ETA_CH_RF = 3.2890086573136123e-15
ETA_CH_OPTICAL = 8.322122113304684e-11
N_A_RF = 1.0858180301446896
N_A_OPTICAL = 0.03139916241795555
NOISE_POWER_NB01 = 2.65042806e-12

# regression values from this implementation's own distance table: the
# log-log peak-power slope of PPM over 30..100 astronomical units.  The
# formula peak = m_star n_a h f_c B / (eta_det eta_ch) has the R dependence
# of n_a and eta_ch cancel exactly, leaving only the residual growth of
# m_star, so the curve is nearly flat out here.
PPM_PEAK_SLOPE_30_100_AU = 0.06504033700016
# OOK/PPM rate ratio at 10 astronomical units, bundled optical link,
# Poissonian n_b = 1e-2, the budget's constants.  Not only this program's own
# output: both optima re-derived at 50 digits with mpmath, as stationary
# points of the closed forms (M*_OOK = 2014.5047, M*_PPM = 69.2843), give
# 6.96593432218636, within 1.1e-13 relative; a dense 200 001-point log scan
# of M finds the same optima.  The acceptance window [7, 13] that this value
# misses is held by criterion c05 in test_acceptance.py.
OOK_TO_PPM_RATE_RATIO_10AU = 6.965934322187115
# the same ratio with the exact c and astronomical unit, under either noise
# model; only CODATA with thermal noise clears the window's 7
C_CODATA = 299792458.0
AU_CODATA_M = 1.495978707e11
OOK_TO_PPM_RATIO_10AU_CODATA_POISSON = 6.997100480868868
OOK_TO_PPM_RATIO_10AU_CODATA_THERMAL = 7.0070613617739


@pytest.fixture
def optical_lp():
    return load_link_params(OPTICAL_CONFIG)


@pytest.fixture
def rf_lp():
    return load_link_params(RF_CONFIG)


def write_config(path, overrides=None, drop=(), extra=()):
    base = {
        "f_c_hz": "2e14",
        "d_t_m": "0.22",
        "d_r_m": "11.8",
        "eta_det": "0.025",
        "bandwidth_hz": "2e9",
        "power_w": "4",
        "distance_m": "1.49e11",
    }
    base.update(overrides or {})
    lines = ["# test configuration", ""]
    lines += [f"{key} = {value}" for key, value in base.items() if key not in drop]
    lines += list(extra)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestConfigLoading:
    def test_reads_the_bundled_optical_column(self, optical_lp):
        assert optical_lp.f_c_hz == 2e14
        assert optical_lp.eta_det == 0.025
        assert optical_lp.distance_m == AU_M

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = write_config(tmp_path / "ok.cfg", extra=["", "# trailing comment"])
        lp = load_link_params(path)
        assert lp.power_w == 4.0

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "extra.cfg", extra=["pointing_loss = 0.5"])
        with pytest.raises(LinkConfigError, match="pointing_loss"):
            load_link_params(path)

    def test_missing_key_named_in_message(self, tmp_path):
        path = write_config(tmp_path / "missing.cfg", drop=("bandwidth_hz",))
        with pytest.raises(LinkConfigError, match="bandwidth_hz"):
            load_link_params(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "dup.cfg", extra=["power_w = 5"])
        with pytest.raises(LinkConfigError, match="duplicate"):
            load_link_params(path)

    def test_bad_number_rejected_with_line(self, tmp_path):
        path = write_config(tmp_path / "bad.cfg", overrides={"power_w": "four"})
        with pytest.raises(LinkConfigError, match=r":\d+"):
            load_link_params(path)

    def test_shapeless_line_rejected(self, tmp_path):
        path = write_config(tmp_path / "shapeless.cfg", extra=["just some words"])
        with pytest.raises(LinkConfigError, match="key = value"):
            load_link_params(path)

    def test_out_of_range_value_rejected(self, tmp_path):
        path = write_config(tmp_path / "eta.cfg", overrides={"eta_det": "1.5"})
        with pytest.raises(LinkConfigError, match="eta_det"):
            load_link_params(path)

    def test_params_validated_directly(self):
        with pytest.raises(ValueError):
            LinkParams(
                f_c_hz=2e14, d_t_m=0.22, d_r_m=11.8, eta_det=0.025,
                bandwidth_hz=2e9, power_w=-4.0, distance_m=1.49e11,
            )
        assert len(CONFIG_KEYS) == 7


class TestChannelTransmission:
    def test_rf_column(self, rf_lp):
        eta = channel_transmission(rf_lp)
        assert math.isclose(eta, ETA_CH_RF, rel_tol=5e-14)
        assert abs(eta - 3.29e-15) / 3.29e-15 < 0.01

    def test_optical_column(self, optical_lp):
        eta = channel_transmission(optical_lp)
        assert math.isclose(eta, ETA_CH_OPTICAL, rel_tol=5e-14)
        assert abs(eta - 8.32e-11) / 8.32e-11 < 0.01

    def test_inverse_square_in_distance(self, optical_lp):
        near = channel_transmission(optical_lp)
        far = channel_transmission(
            dataclasses.replace(optical_lp, distance_m=2.0 * optical_lp.distance_m)
        )
        assert far == pytest.approx(near / 4.0, rel=1e-12)


class TestReceivedPhotonNumber:
    def test_rf_column(self, rf_lp):
        n_a = received_photon_number(rf_lp)
        assert math.isclose(n_a, N_A_RF, rel_tol=5e-14)
        assert abs(n_a - 1.08) / 1.08 < 0.03

    def test_optical_column(self, optical_lp):
        n_a = received_photon_number(optical_lp)
        assert math.isclose(n_a, N_A_OPTICAL, rel_tol=5e-14)
        assert abs(n_a - 0.03) / 0.03 < 0.05

    def test_scales_linearly_with_power(self, optical_lp):
        doubled = dataclasses.replace(optical_lp, power_w=2.0 * optical_lp.power_w)
        assert received_photon_number(doubled) == pytest.approx(
            2.0 * received_photon_number(optical_lp), rel=1e-12
        )


class TestNoisePower:
    def test_reference_point(self):
        power = noise_power_watts(1e-2, 2e14, 2e9)
        assert math.isclose(power, NOISE_POWER_NB01, rel_tol=5e-14)
        assert abs(power - 2.65e-12) / 2.65e-12 < 0.01

    def test_scales_with_background(self):
        assert noise_power_watts(1e-1, 2e14, 2e9) == pytest.approx(
            10.0 * noise_power_watts(1e-2, 2e14, 2e9), rel=1e-12
        )
        assert abs(noise_power_watts(1e-1, 2e14, 2e9) - 26.5e-12) / 26.5e-12 < 0.01

    def test_zero_background(self):
        assert noise_power_watts(0.0, 2e14, 2e9) == 0.0

    def test_rejects_negative_background(self):
        with pytest.raises(ValueError):
            noise_power_watts(-1e-3, 2e14, 2e9)


    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_background(self, bad):
        with pytest.raises(ValueError, match="n_b must be finite and >= 0"):
            noise_power_watts(bad, 2e14, 2e9)

    def test_checks_the_frequency_before_the_bandwidth(self):
        with pytest.raises(ValueError, match=r"^f_c_hz must be finite and > 0, got -1.0$"):
            noise_power_watts(1e-2, -1.0, math.nan)


class TestPeakPower:
    def test_unit_duty_cycle_recovers_average_power(self, optical_lp):
        n_a = received_photon_number(optical_lp)
        peak = transmitter_peak_power(1.0, n_a, optical_lp)
        assert peak == pytest.approx(optical_lp.power_w, rel=1e-12)

    def test_peak_is_m_star_times_average(self, optical_lp):
        n_a = received_photon_number(optical_lp)
        peak = transmitter_peak_power(250.0, n_a, optical_lp)
        assert peak == pytest.approx(250.0 * optical_lp.power_w, rel=1e-12)


def loglog_slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def distance_table(lp, model, scheme, r_au):
    return rate_vs_distance(lp, model, scheme, [r * AU_M for r in r_au])


class TestRateVsDistance:
    far_grid = list(np.geomspace(30.0, 100.0, 13))

    def test_ook_rate_falls_inverse_square(self, optical_lp):
        rows = distance_table(optical_lp, poissonian(1e-2), OOK, self.far_grid)
        slope = loglog_slope([r.distance_m for r in rows], [r.rate_bps for r in rows])
        assert abs(slope - (-2.0)) < 0.1

    def test_ppm_rate_falls_inverse_fourth_power(self, optical_lp):
        rows = distance_table(optical_lp, poissonian(1e-2), PPM, self.far_grid)
        slope = loglog_slope([r.distance_m for r in rows], [r.rate_bps for r in rows])
        assert abs(slope - (-4.0)) < 0.1

    def test_ook_peak_power_grows_inverse_square(self, optical_lp):
        rows = distance_table(optical_lp, poissonian(1e-2), OOK, self.far_grid)
        slope = loglog_slope([r.distance_m for r in rows], [r.peak_power_w for r in rows])
        assert abs(slope - 2.0) < 0.1

    def test_ppm_peak_power_is_nearly_flat(self, optical_lp):
        rows = distance_table(optical_lp, poissonian(1e-2), PPM, self.far_grid)
        slope = loglog_slope([r.distance_m for r in rows], [r.peak_power_w for r in rows])
        assert slope == pytest.approx(PPM_PEAK_SLOPE_30_100_AU, abs=1e-3)
        assert 0.0 < slope < 0.5

    def test_ook_to_ppm_ratio_near_tenfold_at_ten_au(self, optical_lp):
        """Regression pin of the OOK/PPM rate ratio at 10 au.

        The [7, 13] "about tenfold" window on the same ratio is acceptance
        criterion c05 (test_acceptance.py), which the faithful value misses.
        """
        rows = {
            scheme: distance_table(optical_lp, poissonian(1e-2), scheme, [10.0])[0]
            for scheme in (OOK, PPM)
        }
        ratio = rows[OOK].rate_bps / rows[PPM].rate_bps
        assert ratio == pytest.approx(OOK_TO_PPM_RATE_RATIO_10AU, rel=1e-9)

    @pytest.mark.parametrize("model, expected", [
        (poissonian(1e-2), OOK_TO_PPM_RATIO_10AU_CODATA_POISSON),
        (gaussian(1e-2), OOK_TO_PPM_RATIO_10AU_CODATA_THERMAL),
    ])
    def test_ook_to_ppm_ratio_at_ten_au_with_codata_constants(self, optical_lp, model, expected):
        """The ratio under the exact c and astronomical unit, which the
        budget does not use: n_a scales as 1 / c**2, so power_w times
        (3e8 / c)**2 stands in for the exact c, and the distance is 10
        exact astronomical units."""
        lp = dataclasses.replace(optical_lp, power_w=optical_lp.power_w * (3e8 / C_CODATA) ** 2)
        rows = {
            scheme: rate_vs_distance(lp, model, scheme, [10.0 * AU_CODATA_M])[0]
            for scheme in (OOK, PPM)
        }
        ratio = rows[OOK].rate_bps / rows[PPM].rate_bps
        assert ratio == pytest.approx(expected, rel=1e-12)

    def test_ook_beats_ppm_at_every_distance(self, optical_lp):
        grid = list(np.geomspace(0.1, 1000.0, 9))
        ook = distance_table(optical_lp, poissonian(1e-2), OOK, grid)
        ppm = distance_table(optical_lp, poissonian(1e-2), PPM, grid)
        for a, b in zip(ook, ppm):
            assert a.rate_bps >= b.rate_bps

    @pytest.mark.parametrize("scheme", [OOK, PPM])
    def test_rates_stay_below_the_holevo_ceiling(self, optical_lp, scheme):
        grid = list(np.geomspace(0.1, 1000.0, 9))
        for row in distance_table(optical_lp, gaussian(1e-2), scheme, grid):
            assert row.rate_bps <= row.holevo_rate_bps * (1.0 + 1e-12)

    @pytest.mark.parametrize("scheme", [OOK, PPM])
    def test_all_rates_strictly_decrease_with_distance(self, optical_lp, scheme):
        grid = list(np.geomspace(0.1, 1000.0, 9))
        rows = distance_table(optical_lp, poissonian(1e-2), scheme, grid)
        for field in ("rate_bps", "shannon_rate_bps", "holevo_rate_bps"):
            values = [getattr(row, field) for row in rows]
            assert all(a > b for a, b in zip(values, values[1:])), field

    def test_flags_propagate_per_row(self, optical_lp):
        # far enough out, noiseless PPM wants a longer frame than the
        # search range allows, which must flag the row rather than abort
        rows = rate_vs_distance(optical_lp, poissonian(0.0), PPM, [AU_M, 3e4 * AU_M])
        assert rows[0].flag == FLAG_OK
        assert rows[1].flag == FLAG_BOUNDARY

    # eta_ch overflows to inf at this distance, so n_a * m_max is not finite
    @pytest.mark.filterwarnings("error")
    def test_overflowing_photon_number_names_the_distance(self, optical_lp):
        with pytest.raises(ValueError, match=r"^no optimum at distance_m = 1e-190: pulse energy n_a \* m_max overflows at n_a = inf$"):
            rate_vs_distance(optical_lp, poissonian(1e-2), PPM, [1e-190])

    def test_rejects_unknown_scheme(self, optical_lp):
        with pytest.raises(ValueError):
            rate_vs_distance(optical_lp, poissonian(1e-2), "psk", [1.49e11])

    @pytest.mark.filterwarnings("error")
    def test_underflowing_information_names_the_distance(self, optical_lp):
        with pytest.raises(ValueError, match=r"^no optimum at distance_m = 1\.49e\+151: "
                           r"the information per bin underflows at n_a = 3\.139916241795556e-282$"):
            rate_vs_distance(optical_lp, poissonian(1e-2), OOK, [1e140 * AU_M])

    @pytest.mark.filterwarnings("error")
    def test_reference_rates_follow_n_a_not_the_flags(self, optical_lp):
        # at 1e140 AU the information per bin underflows, so both searches
        # fail, but n_a > 0 still has its capacities; where n_a is 0 or
        # n_a * m_max overflows they are NaN
        r_m = [1e-190, 1e140 * AU_M, 1e200 * AU_M]
        columns = _distance_sweep(optical_lp, ["poisson", "gauss"], 1e-2, [PPM, OOK], r_m)
        for scheme in (PPM, OOK):
            assert columns[f"flag_{scheme}"].tolist() == [FLAG_FAILED] * 6
        n_a = columns["n_a"][1].item()
        assert n_a > 0.0
        bandwidth = optical_lp.bandwidth_hz
        for name, capacity in (("shannon_rate_bps", shannon_capacity), ("holevo_rate_bps", holevo_capacity)):
            values = columns[name].tolist()
            assert values[1] == values[4] == capacity(n_a, 1e-2) * bandwidth
            assert all(math.isnan(values[i]) for i in (0, 2, 3, 5))

    @pytest.mark.parametrize("bad", [math.nan, -1.0, 0.0, math.inf])
    def test_bad_distance_in_an_array_is_named_as_a_float(self, optical_lp, bad):
        # the grid's own element type must not leak into the message
        with pytest.raises(ValueError, match=rf"^distance_m must be finite and > 0, got {bad!r}$"):
            rate_vs_distance(optical_lp, poissonian(1e-2), PPM, np.array([1e11, bad, 2e11]))


class TestRegimeSummaries:
    """End-to-end reproduction of both published operating regimes."""

    def test_rf_regime(self, rf_lp):
        ref = REFERENCE_REGIMES["rf"]
        summary = regime_summary(rf_lp, ref.n_b)
        assert abs(summary["eta_ch"] - ref.eta_ch) / ref.eta_ch < 0.01
        assert abs(summary["n_a"] - ref.n_a) / ref.n_a < 0.03
        assert abs(summary["shannon_rate_bps"] - ref.shannon_rate_bps) / ref.shannon_rate_bps < 0.05
        assert abs(summary["holevo_rate_bps"] - ref.holevo_rate_bps) / ref.holevo_rate_bps < 0.05

    def test_optical_regime(self, optical_lp):
        ref = REFERENCE_REGIMES["optical"]
        summary = regime_summary(optical_lp, ref.n_b)
        assert abs(summary["eta_ch"] - ref.eta_ch) / ref.eta_ch < 0.01
        assert abs(summary["n_a"] - ref.n_a) / ref.n_a < 0.05
        assert abs(summary["shannon_rate_bps"] - ref.shannon_rate_bps) / ref.shannon_rate_bps < 0.05
        assert abs(summary["holevo_rate_bps"] - ref.holevo_rate_bps) / ref.holevo_rate_bps < 0.05

    def test_regime_summary_regression(self, optical_lp):
        summary = regime_summary(optical_lp, 0.03)
        assert summary["shannon_rate_bps"] == pytest.approx(86645955.9600307, rel=1e-12)
        assert summary["holevo_rate_bps"] == pytest.approx(285451823.0543816, rel=1e-12)
