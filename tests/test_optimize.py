"""Tests for the frame-length optimizer and the efficiency sweep driver."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mp_reference
import photonlink
from photonlink.capacity import holevo_pie_asymptote
from photonlink.modulation import _ook_mi, _ppm_mi, ook_mi_per_bin, ppm_mi_per_bin
from photonlink.noise import MODEL_KINDS, NoiseModel, gaussian, poissonian
from photonlink.optimize import (
    FLAG_BOUNDARY,
    FLAG_FAILED,
    FLAG_OK,
    OOK,
    PPM,
    SCHEMES,
    optimize_M,
    sweep_pie,
)
from test_batched_search import reference_optimize

# Independent optima of PPM, Poisson n_b = 1e-2, at the float n_a given:
# the closed form q_c log(q_c M / s) + (M - 1) q_w log(q_w M / s) over M,
# evaluated in mpmath at 60 digits with every probability and complement
# formed directly, scanned at 400 log-spaced M in [2, 1e9] (one peak, at
# the same scan cell for all three) and refined by golden section on log M
# to a bracket of 1e-25; a root of d MI / d log M at 80 digits
# (mpmath.findroot on mpmath.diff) agrees to 1e-17.  The objective is flat
# near the optimum, so the argument gets a looser window than the attained
# efficiency.
PPM_M_STAR_NB01 = {1e-5: 97.94806287451038, 1e-6: 100.66831535777058, 1e-7: 100.96653328904776}
# regression values produced by this optimizer (deterministic search)
OOK_GAUSS_PIE_NA1E6_NB01 = 3.389777579285158
OOK_GAUSS_M_STAR_NA1E6_NB01 = 634357.1093109619
PPM_M_STAR_NA1E3_NB01 = 54.96964168230766


class TestOptimizeDomain:
    @pytest.mark.parametrize("bad", [0.0, -1e-6, float("nan")])
    def test_rejects_nonpositive_signal(self, bad):
        with pytest.raises(ValueError):
            optimize_M(bad, poissonian(1e-2), PPM)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            optimize_M(1e-4, poissonian(1e-2), "qam")

    def test_rejects_degenerate_range(self):
        with pytest.raises(ValueError):
            optimize_M(1e-4, poissonian(1e-2), PPM, m_max=1.5)

    def test_rejects_sparse_coarse_grid(self):
        with pytest.raises(ValueError):
            optimize_M(1e-4, poissonian(1e-2), PPM, coarse_points=50)

    @pytest.mark.parametrize("bad", [240.5, float("nan"), float("inf")])
    def test_rejects_fractional_coarse_grid(self, bad):
        with pytest.raises(ValueError, match="coarse_points"):
            optimize_M(1e-12, poissonian(0.0), PPM, m_max=1e6, coarse_points=bad)

    def test_whole_float_coarse_grid_is_its_integer(self):
        model = poissonian(1e-2)
        assert optimize_M(1e-4, model, OOK, coarse_points=240.0) == optimize_M(1e-4, model, OOK)


class TestOptimizeM:
    def test_result_identities(self):
        n_a = 3e-4
        opt = optimize_M(n_a, poissonian(1e-2), OOK)
        assert opt.pie_star == pytest.approx(opt.mi_per_bin / n_a, rel=1e-15)
        assert opt.pulse_energy == pytest.approx(opt.m_star * n_a, rel=1e-15)

    def test_determinism(self):
        a = optimize_M(1e-5, gaussian(1e-3), PPM)
        b = optimize_M(1e-5, gaussian(1e-3), PPM)
        assert a == b

    def test_ppm_frame_length_saturates(self):
        # the optimal frame length settles to a constant as the signal
        # vanishes; successive decades pull closer together
        stars = {
            n_a: optimize_M(n_a, poissonian(1e-2), PPM).m_star
            for n_a in PPM_M_STAR_NB01
        }
        for n_a, expected in PPM_M_STAR_NB01.items():
            assert stars[n_a] == pytest.approx(expected, rel=1e-5)
        step_a = abs(stars[1e-5] - stars[1e-6]) / stars[1e-6]
        step_b = abs(stars[1e-6] - stars[1e-7]) / stars[1e-7]
        assert step_b < 0.02
        assert step_b < step_a

    def test_ook_pulse_energy_stays_order_one(self):
        opt = optimize_M(1e-5, poissonian(1e-2), OOK)
        assert 0.1 <= opt.pulse_energy <= 10.0

    @pytest.mark.parametrize("make", [poissonian, gaussian])
    def test_ppm_pulse_energy_vanishes_with_signal(self, make):
        strong = optimize_M(1e-5, make(1e-2), PPM).pulse_energy
        weak = optimize_M(1e-6, make(1e-2), PPM).pulse_energy
        assert weak < strong

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("n_a", [1e-5, 1e-3])
    def test_local_maximum_certificate(self, scheme, kind, n_a):
        model = NoiseModel(kind, 1e-2)
        mi = ppm_mi_per_bin if scheme == PPM else ook_mi_per_bin
        opt = optimize_M(n_a, model, scheme)
        for factor in (0.99, 1.01):
            nearby = mi(opt.m_star * factor, n_a, model).mi_per_bin
            assert opt.mi_per_bin >= nearby

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_never_beaten_by_a_dense_scan(self, scheme):
        n_a, model = 3e-4, poissonian(1e-2)
        mi = ppm_mi_per_bin if scheme == PPM else ook_mi_per_bin
        opt = optimize_M(n_a, model, scheme)
        m_min = 2.0 if scheme == PPM else 1.0
        for m in np.geomspace(m_min, 1e9, 1000):
            assert opt.mi_per_bin >= mi(float(m), n_a, model).mi_per_bin

    def test_interior_optimum_is_not_flagged(self):
        opt = optimize_M(1e-3, poissonian(1e-2), PPM)
        assert not opt.at_boundary
        assert opt.m_star == pytest.approx(PPM_M_STAR_NA1E3_NB01, rel=1e-5)

    def test_cramped_range_sets_the_flag(self):
        opt = optimize_M(1e-3, poissonian(1e-2), PPM, m_max=50.0)
        assert opt.at_boundary
        assert opt.m_star == pytest.approx(50.0, rel=1e-3)

    def test_noiseless_ppm_runs_to_the_bound(self):
        # without background the frame benefit keeps growing while
        # pulse energy M n_a stays small, so the optimum escapes upward
        opt = optimize_M(1e-12, poissonian(0.0), PPM)
        assert opt.at_boundary
        assert opt.m_star == pytest.approx(1e9, rel=1e-6)

    def test_tolerance_below_float_resolution_terminates(self):
        # M* is near 1e9, where one ulp of log M (3.6e-15) exceeds rel_tol;
        # a child process turns a search that never ends into a failure
        code = (
            "from photonlink.noise import poissonian\n"
            "from photonlink.optimize import optimize_M\n"
            "for n_b in (0.0, 1e-6):\n"
            "    print(repr(optimize_M(1e-10, poissonian(n_b), 'ook', rel_tol=1e-15).mi_per_bin))\n"
        )
        path = os.pathsep.join(
            filter(None, [str(Path(photonlink.__file__).parents[1]), os.environ.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        fine = [float(value) for value in result.stdout.split()]
        default = [optimize_M(1e-10, poissonian(n_b), OOK).mi_per_bin for n_b in (0.0, 1e-6)]
        assert fine == pytest.approx(default, rel=1e-9)


class TestOptimizeAgainstMpmath:
    """The search on the float kernels against an independent maximization
    of the 50-digit closed form (see mp_reference.optimum)."""

    @pytest.mark.parametrize(
        "scheme, kind, n_b, n_a",
        [
            (PPM, "poisson", 1e-2, 1e-7),
            (PPM, "gauss", 1e-2, 1e-10),
            (PPM, "gauss", 1e-1, 1e-3),
            (OOK, "poisson", 1e-2, 1e-9),
            (OOK, "gauss", 1e-6, 1e-9),
            (OOK, "poisson", 1.0, 1e-3),
            # the entropy-difference kernels put this optimum at M = 2.80,
            # on a value of 2.5e-17 bit where the truth is 3.4e-21
            (PPM, "poisson", 1.0, 1e-10),
        ],
    )
    def test_lands_on_the_closed_form_optimum(self, scheme, kind, n_b, n_a):
        m_star, mi_star = mp_reference.optimum(scheme, kind, n_b, n_a)
        opt = optimize_M(n_a, NoiseModel(kind, n_b), scheme)
        assert not opt.at_boundary
        assert abs(opt.m_star - m_star) <= 1e-5 * m_star
        # the benchmark oracle's relative bits budget, without its 1e-12
        # absolute part, which would pass any of these small values
        assert abs(mp.mpf(opt.mi_per_bin) - mi_star) <= 1e-9 * mi_star

    def test_finds_a_peak_inside_the_first_scan_cell(self):
        # the peak sits 0.0044 above log m_min, inside the first scanned
        # cell (0.25 wide), and m_min beats the next scanned point, so the
        # first round packs its probes against m_min and misses the peak;
        # the search must recover through the bracket that round leaves
        n_b, n_a, m_peak = 0.9912598116686517, 6.773283029565834e-08, 2.0088171472877536
        lo, hi = math.log(2.0), math.log(1e9)
        first_scanned = np.array([2.0, math.exp(lo + 3 * (hi - lo) / 239)])
        values = _ppm_mi(first_scanned, np.array([n_a]), "poisson", np.array([n_b]))
        assert values[0] > values[1]
        _, mi_star = mp_reference.optimum(PPM, "poisson", n_b, n_a)
        opt = optimize_M(n_a, poissonian(n_b), PPM)
        assert not opt.at_boundary
        assert opt.m_star == pytest.approx(m_peak, rel=1e-6)
        assert abs(mp.mpf(opt.mi_per_bin) - mi_star) <= 1e-9 * mi_star


# the CLI range, log-uniform so that every decade is drawn
N_A = st.floats(min_value=-10.0, max_value=0.0).map(lambda e: 10.0**e)
N_B = st.one_of(st.just(0.0), st.floats(min_value=-10.0, max_value=2.0).map(lambda e: 10.0**e))


class TestOneLocalMaximum:
    # the search assumes one peak in log M, or a monotone run to an end of
    # the range; with the entropy-difference kernels, rounding noise gave 26
    # of 364 such scans extra local maxima (n_b >= 1, small n_a)
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_dense_scan_has_at_most_one_peak(self, scheme, kind):
        kernel, m_min = (_ppm_mi, 2.0) if scheme == PPM else (_ook_mi, 1.0)
        m = np.geomspace(m_min, 1e9, 40001)
        n_as = np.geomspace(1e-10, 1.0, 21)
        for n_b in (0.0, 1e-10, 1e-6, 1e-4, 1e-2, 1e-1, 1.0, 10.0, 30.0, 100.0):
            values = kernel(m[:, None], n_as, kind, np.array([n_b]))
            for n_a, column in zip(n_as, values.T):
                steps = np.diff(column)
                rises = steps[steps != 0.0] > 0.0
                if rises.size:
                    peaks = np.sum(rises[:-1] & ~rises[1:]) + (not rises[0]) + rises[-1]
                    assert peaks == 1, (n_b, n_a, peaks)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.sampled_from(SCHEMES),
        st.sampled_from(MODEL_KINDS),
        N_A,
        N_B,
        st.sampled_from([200, 240, 241, 500]),
        st.sampled_from([50.0, 1e6, 1e9]),
    )
    def test_boundary_flag_is_the_full_grid_argmax_at_m_max(
        self, scheme, kind, n_a, n_b, coarse_points, m_max
    ):
        # the search scans part of the coarse grid; with one peak, its flag
        # is the one a scan of the whole grid gives
        kernel, m_min = (_ppm_mi, 2.0) if scheme == PPM else (_ook_mi, 1.0)
        lo, hi = math.log(m_min), math.log(m_max)
        grid = np.exp(lo + (hi - lo) * np.arange(coarse_points) / (coarse_points - 1))
        values = kernel(grid, np.array([n_a]), kind, np.array([n_b]))
        opt = optimize_M(n_a, NoiseModel(kind, n_b), scheme, m_max, coarse_points)
        assert opt.at_boundary == (values.argmax() == coarse_points - 1)


class TestSearchCost:
    """Timing-free guard on the cost of the search at default arguments:
    array calls of the objective, and M values it evaluates."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        sizes = []
        for scheme, kernel in photonlink.optimize._MI.items():

            def counted(*args, _kernel=kernel):
                values = _kernel(*args)
                sizes.append(values.size)
                return values

            monkeypatch.setitem(photonlink.optimize._MI, scheme, counted)
        return sizes

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_one_optimum(self, evaluations, scheme):
        # the scan, then two vertex rounds
        optimize_M(1e-4, poissonian(1e-2), scheme)
        assert evaluations == [63, 57, 57]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_a_48_point_sweep(self, evaluations, scheme):
        rows = sweep_pie(np.geomspace(1e-10, 1.0, 12), [0.0, 1e-6, 1e-2, 1e2], "gauss", scheme)
        assert len(rows) == 48
        assert len(evaluations) <= 4
        assert sum(evaluations) <= (63 + 3 * 57) * 48

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.sampled_from(SCHEMES), st.sampled_from(MODEL_KINDS), N_A, N_B)
    def test_never_more_than_four_calls(self, evaluations, scheme, kind, n_a, n_b):
        evaluations.clear()
        optimize_M(n_a, NoiseModel(kind, n_b), scheme)
        assert 2 <= len(evaluations) <= 4


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(SCHEMES), st.sampled_from(MODEL_KINDS), N_A, N_B)
def test_never_worse_than_the_scalar_search_anywhere(scheme, kind, n_a, n_b):
    model = NoiseModel(kind, n_b)
    _, ref_mi, ref_boundary = reference_optimize(n_a, model, scheme)
    opt = optimize_M(n_a, model, scheme)
    assert opt.mi_per_bin >= ref_mi - (1e-12 + 1e-9 * abs(ref_mi))
    assert opt.at_boundary == ref_boundary


class TestOokLowSignalRegression:
    def test_efficiency_bracketed_and_frozen(self):
        opt = optimize_M(1e-6, gaussian(1e-2), OOK)
        # strictly between 1 bit/photon and the ultimate limit log2(101)
        assert 1.0 < opt.pie_star < holevo_pie_asymptote(1e-2)
        assert opt.pie_star == pytest.approx(OOK_GAUSS_PIE_NA1E6_NB01, rel=1e-10)
        assert opt.m_star == pytest.approx(OOK_GAUSS_M_STAR_NA1E6_NB01, rel=1e-4)


class TestSweep:
    def test_rows_ordered_by_background_then_signal(self):
        rows = sweep_pie([1e-3, 1e-5, 1e-4], [1e-2, 1e-4], "poisson", OOK)
        key = [(row.n_b, row.n_a) for row in rows]
        assert key == sorted(key)
        assert all(row.flag == FLAG_OK for row in rows)

    def test_ppm_efficiency_peaks_near_the_background_level(self):
        n_b = 1e-2
        grid = np.geomspace(1e-6, 1e-1, 26)
        rows = sweep_pie(grid, [n_b], "poisson", PPM)
        best = max(range(len(rows)), key=lambda i: rows[i].pie_star)
        assert 0 < best < len(rows) - 1  # interior maximum
        assert n_b / 10.0 <= rows[best].n_a <= n_b * 10.0

    def test_failed_point_is_marked_not_fatal(self):
        rows = sweep_pie([1e-4, 0.0], [1e-2], "poisson", OOK)
        by_signal = {row.n_a: row for row in rows}
        assert by_signal[0.0].flag == FLAG_FAILED
        assert math.isnan(by_signal[0.0].pie_star)
        assert by_signal[1e-4].flag == FLAG_OK
        assert by_signal[1e-4].pie_star > 0.0

    def test_boundary_point_is_flagged(self):
        rows = sweep_pie([1e-3], [1e-2], "poisson", PPM, m_max=50.0)
        assert rows[0].flag == FLAG_BOUNDARY

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_background_noise_only_hurts(self, scheme, kind):
        for n_a in (1e-5, 1e-3):
            rows = sweep_pie([n_a], [1e-4, 1e-3, 1e-2, 1e-1], kind, scheme)
            pies = [row.pie_star for row in rows]
            assert all(a >= b for a, b in zip(pies, pies[1:]))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_ook_outperforms_ppm_everywhere_sampled(self, kind):
        grid = [1e-6, 1e-4, 1e-2]
        backgrounds = [1e-3, 1e-1]
        ook_rows = sweep_pie(grid, backgrounds, kind, OOK)
        ppm_rows = sweep_pie(grid, backgrounds, kind, PPM)
        for a, b in zip(ook_rows, ppm_rows):
            assert a.pie_star >= b.pie_star

    def test_ook_stays_below_the_holevo_limit(self):
        rows = sweep_pie([1e-6], [1e-1, 1e-2, 1e-3, 1e-4], "gauss", OOK)
        for row in rows:
            assert row.pie_star < holevo_pie_asymptote(row.n_b)
