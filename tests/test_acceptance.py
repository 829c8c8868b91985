"""Acceptance suite: one test per top-level requirement.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the failure output) before asserting, so a red criterion still reports
what was measured.
"""

import math
from importlib import resources

import numpy as np
import pytest

from photonlink.capacity import holevo_pie_asymptote, shannon_pie_asymptote
from photonlink.linkbudget import (
    AU_M,
    load_link_params,
    noise_power_watts,
    rate_vs_distance,
    regime_summary,
)
from photonlink.modulation import ppm_mi_per_bin, ppm_mi_enumeration_oracle
from photonlink.noise import (
    GAUSS,
    POISSON,
    NoiseModel,
    click_probs,
    gaussian,
    poissonian,
)
from photonlink.optimize import OOK, PPM, optimize_M
from photonlink.receiver import (
    H,
    apply_receiver,
    concentration_efficiency,
    make_pattern,
)

N_B_TEST_POINTS = (1e-1, 1e-2, 1e-3, 1e-4)


def report(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {label}: {status} ({detail})")


def optical_config_path():
    return str(resources.files("photonlink").joinpath("configs/table1_optical.cfg"))


def rf_config_path():
    return str(resources.files("photonlink").joinpath("configs/table1_rf.cfg"))


def loglog_slope(x, y):
    return float(np.polyfit(np.log(np.asarray(x)), np.log(np.asarray(y)), 1)[0])


def test_c01_reference_link_budgets_reproduced():
    references = {
        "rf": {
            "path": rf_config_path(),
            "n_b": 66.68,
            "eta_ch": 3.29e-15,
            "n_a": 1.08,
            "shannon_rate_bps": 11.4e6,
            "holevo_rate_bps": 11.5e6,
        },
        "optical": {
            "path": optical_config_path(),
            "n_b": 0.03,
            "eta_ch": 8.32e-11,
            "n_a": 0.03,
            "shannon_rate_bps": 87e6,
            "holevo_rate_bps": 273e6,
        },
    }
    tolerances = {
        "eta_ch": 0.01,
        "n_a": 0.05,
        "shannon_rate_bps": 0.05,
        "holevo_rate_bps": 0.05,
    }
    worst = 0.0
    failures = []
    for regime, ref in references.items():
        summary = regime_summary(load_link_params(ref["path"]), ref["n_b"])
        for quantity, tol in tolerances.items():
            rel = abs(summary[quantity] - ref[quantity]) / ref[quantity]
            worst = max(worst, rel / tol)
            if rel > tol:
                failures.append(f"{regime} {quantity} rel {rel:.4f} > {tol}")
    ok = not failures
    report(1, "reference link budgets", ok, f"worst rel-error/tolerance {worst:.3f}")
    assert ok, failures


def test_c02_pie_asymptotes_at_vanishing_signal():
    n_a = 1e-6
    worst = 0.0
    for n_b in N_B_TEST_POINTS:
        from photonlink.capacity import holevo_capacity, shannon_capacity, pie

        pairs = (
            (pie(holevo_capacity(n_a, n_b), n_a), holevo_pie_asymptote(n_b)),
            (pie(shannon_capacity(n_a, n_b), n_a), shannon_pie_asymptote(n_b)),
        )
        for value, asym in pairs:
            worst = max(worst, abs(value - asym) / asym)
    ok = worst <= 0.01
    report(2, "low-signal efficiency asymptotes", ok, f"worst rel gap {worst:.2e}")
    assert ok


def test_c03_closed_form_matches_enumeration_oracle():
    worst = 0.0
    for kind in (POISSON, GAUSS):
        for n_b in (0.0, 1e-3, 1e-1):
            model = NoiseModel(kind, n_b)
            for m in range(2, 13):
                for n_a in (0.01, 0.1, 0.5):
                    closed = ppm_mi_per_bin(m, n_a, model) * m
                    oracle = ppm_mi_enumeration_oracle(m, n_a, model)
                    worst = max(worst, abs(closed - oracle))
    ok = worst <= 1e-10
    report(3, "enumeration oracle equivalence", ok, f"max |closed - oracle| {worst:.2e}")
    assert ok


def test_c04_scaling_laws():
    details = []
    failures = []

    # (a) low-signal PPM efficiency grows one decade per decade of n_a
    model = poissonian(1e-2)
    grid = np.geomspace(1e-6, 1e-5, 9)
    slope_a = loglog_slope(grid, [optimize_M(x, model, PPM).pie_star for x in grid])
    details.append(f"ppm pie slope {slope_a:.3f}")
    if not 0.9 <= slope_a <= 1.1:
        failures.append(f"ppm pie slope {slope_a}")

    # (b) OOK efficiency has saturated by n_a = 1e-6
    hi = optimize_M(1e-6, model, OOK).pie_star
    lo = optimize_M(1e-7, model, OOK).pie_star
    change = abs(hi - lo) / lo
    details.append(f"ook pie change {change:.2e}")
    if change >= 0.01:
        failures.append(f"ook pie change {change}")

    # (c) rate falls as R^-2 for OOK and R^-4 for PPM in the far zone
    lp = load_link_params(optical_config_path())
    r_grid = np.geomspace(30.0, 100.0, 13) * AU_M
    expected = {OOK: -2.0, PPM: -4.0}
    for scheme, target in expected.items():
        rows = rate_vs_distance(lp, model, scheme, r_grid)
        slope = loglog_slope(r_grid, [row.rate_bps for row in rows])
        details.append(f"{scheme} rate slope {slope:.3f}")
        if not target - 0.1 <= slope <= target + 0.1:
            failures.append(f"{scheme} rate slope {slope}")

    ok = not failures
    report(4, "scaling laws", ok, "; ".join(details))
    assert ok, failures


def test_c05_ook_rate_gain_over_ppm_near_tenfold():
    lp = load_link_params(optical_config_path())
    noise = poissonian(1e-2)
    r = np.array([10.0 * AU_M])
    rate = {
        scheme: rate_vs_distance(lp, noise, scheme, r)[0].rate_bps
        for scheme in (OOK, PPM)
    }
    ratio = rate[OOK] / rate[PPM]
    ok = 7.0 <= ratio <= 13.0
    report(5, "tenfold-gain check", ok, f"ook/ppm rate ratio {ratio:.4f}")
    assert ok


def test_c06_ook_pulse_energy_plateau():
    lo, hi = math.inf, -math.inf
    for kind in (POISSON, GAUSS):
        for n_b in N_B_TEST_POINTS:
            model = NoiseModel(kind, n_b)
            for n_a in np.geomspace(1e-6, 1e-2, 9):
                energy = optimize_M(float(n_a), model, OOK).pulse_energy
                lo, hi = min(lo, energy), max(hi, energy)
    ok = 0.1 <= lo and hi <= 10.0
    report(6, "ook pulse-energy plateau", ok, f"range [{lo:.3f}, {hi:.3f}] photons")
    assert ok


def test_c07_ook_efficiency_stays_below_holevo_limit():
    margins = []
    for n_b in N_B_TEST_POINTS:
        pie_star = optimize_M(1e-6, gaussian(n_b), OOK).pie_star
        margins.append(holevo_pie_asymptote(n_b) - pie_star)
    ok = all(margin > 0.0 for margin in margins)
    report(7, "gap to the quantum limit", ok, f"min margin {min(margins):.3f} bits/photon")
    assert ok


def test_c08_noise_models_agree_where_they_must():
    # exact agreement with zero background
    exact = True
    for energy in np.geomspace(1e-8, 10.0, 17):
        p_b, p_p = click_probs(poissonian(0.0), float(energy))
        q_b, q_p = click_probs(gaussian(0.0), float(energy))
        exact = exact and p_p == q_p and p_b == 0.0 and q_b == 0.0

    # first-order coincidence: the gap shrinks quadratically
    gaps = []
    for eps in (1e-2, 1e-4, 1e-6):
        p_b, p_p = click_probs(poissonian(eps), eps)
        q_b, q_p = click_probs(gaussian(eps), eps)
        gaps.append(max(abs(p_p - q_p), abs(p_b - q_b)) / eps)
    shrinking = gaps[1] < gaps[0] / 10 and gaps[2] < gaps[1] / 10 and gaps[2] < 1e-5

    ok = exact and shrinking
    report(
        8,
        "noise-model consistency",
        ok,
        f"zero-background exact {exact}, first-order gap ratios {gaps[2]:.2e}",
    )
    assert ok


def test_c09_receiver_suite():
    failures = []

    def energy(field):
        return float(np.sum(np.abs(field) ** 2))

    # unitarity of the ideal cascade on random inputs, drawn bin by bin
    rng = np.random.default_rng(902)
    worst_energy = 0.0
    for k in range(1, 7):
        n = 1 << k
        for _ in range(100):
            amps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
            field = amps.T
            out = apply_receiver(field)
            worst_energy = max(
                worst_energy, abs(energy(out) - energy(field)) / energy(field)
            )
    if worst_energy > 1e-12:
        failures.append(f"unitarity defect {worst_energy:.2e}")

    # perfect concentration of every codebook entry
    worst_fraction = 1.0
    for k in range(1, 7):
        for target in range(1 << k):
            out = apply_receiver(make_pattern(k, target, 1.0))
            worst_fraction = min(
                worst_fraction, abs(out[H, target]) ** 2 / energy(out)
            )
    if worst_fraction < 1.0 - 1e-12:
        failures.append(f"concentration fraction {worst_fraction}")

    # codebook orthogonality and exact per-bin energy uniformity
    k = 6
    n = 1 << k
    flat = np.array([make_pattern(k, j, 1.0).ravel() for j in range(n)])
    gram_defect = float(np.max(np.abs(flat @ flat.conj().T - np.eye(n))))
    if gram_defect > 1e-12:
        failures.append(f"gram defect {gram_defect:.2e}")
    for j in range(n):
        bins = np.sum(np.abs(make_pattern(k, j, 1.0)) ** 2, axis=0)
        if not np.all(bins == bins[0]):
            failures.append(f"bin energies not uniform for target {j}")
            break

    # per-module loss composes as a plain power
    for k in range(1, 7):
        out = apply_receiver(make_pattern(k, 0, 1.0), per_module_loss=0.99)
        if abs(energy(out) - 0.99**k) > 1e-12:
            failures.append(f"loss composition at k={k}: {energy(out)}")

    # strong phase noise scrambles the pattern across all 2^k bins
    mean, _ = concentration_efficiency(3, 10.0)
    if not 0.8 / 8.0 <= mean <= 1.2 / 8.0:
        failures.append(f"scrambled efficiency {mean}")

    ok = not failures
    report(
        9,
        "receiver suite",
        ok,
        f"unitarity {worst_energy:.1e}, gram {gram_defect:.1e}, scrambled mean {mean:.4f}",
    )
    assert ok, failures


def test_c10_noise_power_conversion():
    lp = load_link_params(optical_config_path())
    rel_errors = []
    for n_b, expected in ((1e-2, 2.65e-12), (1e-1, 2.65e-11)):
        power = noise_power_watts(n_b, lp.f_c_hz, lp.bandwidth_hz)
        rel_errors.append(abs(power - expected) / expected)
    ok = max(rel_errors) <= 0.01
    report(10, "noise-power conversion", ok, f"worst rel error {max(rel_errors):.2e}")
    assert ok
