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
from photonlink.linkbudget import load_link_params, rate_vs_distance
from photonlink.modulation import _ook_mi, _ppm_mi, ook_mi_per_bin, ppm_mi_per_bin
from photonlink.noise import (
    MODEL_KINDS,
    NoiseModel,
    _click_params,
    click_probs,
    gaussian,
    poissonian,
)
from photonlink.optimize import (
    FLAG_BOUNDARY,
    FLAG_FAILED,
    FLAG_OK,
    OOK,
    PPM,
    SCHEMES,
    _MI_FLOOR,
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

    @pytest.mark.parametrize("scheme, m_min", [(PPM, 2.0), (OOK, 1.0)])
    def test_rejects_range_ending_at_m_min(self, scheme, m_min):
        with pytest.raises(ValueError, match="m_max must exceed"):
            optimize_M(1e-4, poissonian(1e-2), scheme, m_max=m_min)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_range(self, scheme, bad):
        with pytest.raises(ValueError, match="m_max must exceed"):
            optimize_M(1e-12, poissonian(0.0), scheme, m_max=bad)

    def test_sweep_rejects_unknown_kind(self):
        with pytest.raises(ValueError) as excinfo:
            sweep_pie([1e-3], [0.1], ["thermal"], PPM)
        assert str(excinfo.value) == "kind must be one of ('poisson', 'gauss'), got 'thermal'"

    @pytest.mark.parametrize(
        "kinds, message",
        [
            ("poisson", "model_kinds must be a sequence of kinds, not the str 'poisson'"),
            ([], "model_kinds must hold at least one kind, got none"),
            ((), "model_kinds must hold at least one kind, got none"),
        ],
    )
    def test_sweep_refuses_a_bare_kind_or_none_by_name(self, kinds, message):
        with pytest.raises(ValueError) as excinfo:
            sweep_pie([1e-3], [0.1], kinds, PPM)
        assert str(excinfo.value) == message

    def test_sweep_checks_background_before_scheme(self):
        with pytest.raises(ValueError) as excinfo:
            sweep_pie([1e-3], [-1.0], ["poisson"], "psk")
        assert str(excinfo.value) == "n_b must be finite and >= 0, got -1.0"


class TestNegativeZeroBackground:
    # -0.0 passes every n_b >= 0 check; repr tells it, and -inf, from the
    # 0.0 results it must give bit for bit
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_gives_the_bits_of_positive_zero(self, kind, scheme):
        neg, pos = NoiseModel(kind, -0.0), NoiseModel(kind, 0.0)
        assert repr(neg) == repr(pos)
        mi_per_bin = {PPM: ppm_mi_per_bin, OOK: ook_mi_per_bin}[scheme]
        lp = load_link_params(
            str(Path(photonlink.__file__).parent / "configs" / "table1_optical.cfg")
        )
        r_grid = np.geomspace(1e10, 1e14, 5)
        for model in (neg, pos):
            assert repr(click_probs(model, 0.0)) == repr(click_probs(pos, 0.0))
            assert repr(click_probs(model, 1.0)) == repr(click_probs(pos, 1.0))
            assert repr(mi_per_bin(10.0, 1e-3, model)) == repr(mi_per_bin(10.0, 1e-3, pos))
            assert repr(optimize_M(1e-3, model, scheme)) == repr(optimize_M(1e-3, pos, scheme))
            assert repr(rate_vs_distance(lp, model, scheme, r_grid)) == repr(
                rate_vs_distance(lp, pos, scheme, r_grid)
            )
        grid = [1e-5, 1e-3, 1e-1]
        # numpy's array repr rounds, so the columns are compared as floats
        neg_sweep, pos_sweep = (
            {name: column.tolist() for name, column in sweep_pie(grid, [1e-2, n_b], [kind], scheme).items()}
            for n_b in (-0.0, 0.0)
        )
        assert repr(neg_sweep) == repr(pos_sweep)


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
            nearby = mi(opt.m_star * factor, n_a, model)
            assert opt.mi_per_bin >= nearby

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_never_beaten_by_a_dense_scan(self, scheme):
        n_a, model = 3e-4, poissonian(1e-2)
        mi = ppm_mi_per_bin if scheme == PPM else ook_mi_per_bin
        opt = optimize_M(n_a, model, scheme)
        m_min = 2.0 if scheme == PPM else 1.0
        for m in np.geomspace(m_min, 1e9, 1000):
            assert opt.mi_per_bin >= mi(float(m), n_a, model)

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

    def test_search_terminates_at_the_largest_finite_range(self):
        # M* is near 1e299, where one ulp of log M (1.1e-13) is still far
        # below the search tolerance; a child process turns a search that
        # never ends into a failure.  The low-signal OOK optimum depends on
        # n_b alone, so two signals a hundred decades apart agree
        code = (
            "import sys\n"
            "from photonlink.noise import poissonian\n"
            "from photonlink.optimize import optimize_M\n"
            "for n_a in (1e-300, 1e-200):\n"
            "    opt = optimize_M(n_a, poissonian(1e-6), 'ook', sys.float_info.max)\n"
            "    print(repr(opt.pie_star), repr(opt.pulse_energy), opt.at_boundary)\n"
        )
        path = os.pathsep.join(
            filter(None, [str(Path(photonlink.__file__).parents[1]), os.environ.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        (pie_a, energy_a, edge_a), (pie_b, energy_b, edge_b) = (
            line.split() for line in result.stdout.splitlines()
        )
        assert edge_a == edge_b == "False"
        assert 0.1 <= float(energy_a) <= 10.0
        assert float(pie_a) == pytest.approx(float(pie_b), rel=1e-9)
        assert float(energy_a) == pytest.approx(float(energy_b), rel=1e-6)


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
        values = _ppm_mi(first_scanned, np.array([n_a]), _click_params("poisson", np.array([n_b])))
        assert values[0] > values[1]
        _, mi_star = mp_reference.optimum(PPM, "poisson", n_b, n_a)
        opt = optimize_M(n_a, poissonian(n_b), PPM)
        assert not opt.at_boundary
        assert opt.m_star == pytest.approx(m_peak, rel=1e-6)
        assert abs(mp.mpf(opt.mi_per_bin) - mi_star) <= 1e-9 * mi_star


class TestInformationFloor:
    """An optimum whose information per bin is below _MI_FLOOR is failed:
    there the value has underflowed, or (OOK at n_b = 0) lost its digits,
    and every M scored the same."""

    def test_optimize_M_names_the_underflow(self):
        with pytest.raises(ValueError, match=r"^the information per bin underflows at n_a = 1e-200$"):
            optimize_M(1e-200, NoiseModel("poisson", 1e-2), PPM)

    def test_optimize_M_names_the_overflow(self):
        with pytest.raises(ValueError, match=r"^pulse energy n_a \* m_max overflows at n_a = 1e\+300$"):
            optimize_M(1e300, NoiseModel("poisson", 1e-2), PPM)

    # n_a whose optimum lies just above the floor; the information goes as
    # n_a at n_b = 0 and as n_a**2 at n_b = 1e-2 (Gauss at n_b = 0 is Poisson)
    @pytest.mark.parametrize(
        "scheme, kind, n_b, n_a",
        [
            (PPM, "poisson", 0.0, 4.1e-302),
            (OOK, "poisson", 0.0, 4.1e-302),
            (PPM, "poisson", 1e-2, 2.2e-152),
            (PPM, "gauss", 1e-2, 2.2e-152),
            (OOK, "poisson", 1e-2, 4.1e-156),
            (OOK, "gauss", 1e-2, 4.2e-156),
        ],
    )
    def test_just_above_the_floor_matches_mpmath(self, scheme, kind, n_b, n_a):
        model = NoiseModel(kind, n_b)
        opt = optimize_M(n_a, model, scheme)
        assert _MI_FLOOR < opt.mi_per_bin < 1.3 * _MI_FLOOR
        m_star, mi_star = mp_reference.optimum(scheme, kind, n_b, n_a)
        assert abs(opt.m_star - m_star) <= 1e-5 * m_star
        # the kernels' own budget (test_modulation.KERNEL_RTOL)
        assert abs(mp.mpf(opt.mi_per_bin) - mi_star) <= 1e-12 * mi_star
        with pytest.raises(ValueError, match="the information per bin underflows"):
            optimize_M(0.49 * n_a, model, scheme)


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
            values = kernel(m[:, None], n_as, _click_params(kind, np.array([n_b])))
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
        st.sampled_from([50.0, 1e6, 1e9]),
    )
    def test_boundary_flag_is_the_full_grid_argmax_at_m_max(self, scheme, kind, n_a, n_b, m_max):
        # the search scans part of its 240-point coarse grid; with one
        # peak, its flag is the one a scan of the whole grid gives
        coarse_points = 240
        kernel, m_min = (_ppm_mi, 2.0) if scheme == PPM else (_ook_mi, 1.0)
        lo, hi = math.log(m_min), math.log(m_max)
        grid = np.exp(lo + (hi - lo) * np.arange(coarse_points) / (coarse_points - 1))
        values = kernel(grid, np.array([n_a]), _click_params(kind, np.array([n_b])))
        opt = optimize_M(n_a, NoiseModel(kind, n_b), scheme, m_max)
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
        sweep = sweep_pie(np.geomspace(1e-10, 1.0, 12), [0.0, 1e-6, 1e-2, 1e2], ["gauss"], scheme)
        assert [len(column) for column in sweep.values()] == [48] * 7
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
    def test_columns_and_their_order(self):
        sweep = sweep_pie([1e-3, 1e-5, 1e-4], [1e-2, 1e-4], ["poisson"], OOK)
        assert list(sweep) == ["n_a", "n_b", "model", "m_star", "pie", "pulse_energy", "flag"]
        assert all(sweep[name].dtype == np.float64 for name in ("n_a", "n_b", "m_star", "pie", "pulse_energy"))
        assert sweep["model"].dtype.kind == sweep["flag"].dtype.kind == "U"
        assert sweep["model"].tolist() == ["poisson"] * 6

    def test_rows_ordered_by_background_then_signal(self):
        sweep = sweep_pie([1e-3, 1e-5, 1e-4], [1e-2, 1e-4], ["poisson"], OOK)
        key = list(zip(sweep["n_b"].tolist(), sweep["n_a"].tolist()))
        assert key == sorted(key)
        assert all(flag == FLAG_OK for flag in sweep["flag"])

    def test_ppm_efficiency_peaks_near_the_background_level(self):
        n_b = 1e-2
        grid = np.geomspace(1e-6, 1e-1, 26)
        sweep = sweep_pie(grid, [n_b], ["poisson"], PPM)
        best = sweep["pie"].argmax()
        assert 0 < best < len(grid) - 1  # interior maximum
        assert n_b / 10.0 <= sweep["n_a"][best] <= n_b * 10.0

    def test_failed_point_is_marked_not_fatal(self):
        sweep = sweep_pie([1e-4, 0.0], [1e-2], ["poisson"], OOK)
        # rows in n_a order: 0.0 first
        assert sweep["n_a"].tolist() == [0.0, 1e-4]
        assert sweep["flag"].tolist() == [FLAG_FAILED, FLAG_OK]
        assert all(math.isnan(sweep[name][0]) for name in ("m_star", "pie", "pulse_energy"))
        assert sweep["pie"][1] > 0.0

    def test_boundary_point_is_flagged(self):
        sweep = sweep_pie([1e-3], [1e-2], ["poisson"], PPM, m_max=50.0)
        assert sweep["flag"][0] == FLAG_BOUNDARY

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_background_noise_only_hurts(self, scheme, kind):
        for n_a in (1e-5, 1e-3):
            pies = sweep_pie([n_a], [1e-4, 1e-3, 1e-2, 1e-1], [kind], scheme)["pie"].tolist()
            assert all(a >= b for a, b in zip(pies, pies[1:]))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_ook_outperforms_ppm_everywhere_sampled(self, kind):
        grid = [1e-6, 1e-4, 1e-2]
        backgrounds = [1e-3, 1e-1]
        ook_pies = sweep_pie(grid, backgrounds, [kind], OOK)["pie"]
        ppm_pies = sweep_pie(grid, backgrounds, [kind], PPM)["pie"]
        assert len(ook_pies) == len(ppm_pies) == 6
        assert all(ook_pies >= ppm_pies)

    def test_ook_stays_below_the_holevo_limit(self):
        sweep = sweep_pie([1e-6], [1e-1, 1e-2, 1e-3, 1e-4], ["gauss"], OOK)
        for pie, n_b in zip(sweep["pie"].tolist(), sweep["n_b"].tolist()):
            assert pie < holevo_pie_asymptote(n_b)
