"""Every number the library takes goes through ``noise._checked``.

One table names each public numeric parameter with its bound.  A value
that is not finite, or falls below (or on, where the bound is strict) the
bound, is refused with the one message ``"{name} must be finite and {op}
{low}, got {value}"``, the value echoed as a float.  A value of -0.0 is
read as the 0.0 it equals: every result has the bits of +0.0's.
"""

import dataclasses
import math

import numpy as np
import pytest

from photonlink.capacity import (
    g,
    holevo_capacity,
    holevo_pie_asymptote,
    pie,
    shannon_capacity,
    shannon_pie_asymptote,
)
from photonlink.linkbudget import LinkParams, noise_power_watts, transmitter_peak_power
from photonlink.modulation import ook_mi_per_bin, ppm_mi_per_bin
from photonlink.noise import NoiseModel, _checked, click_probs, gaussian, poissonian
from photonlink.optimize import OOK, PPM, optimize_M, sweep_pie
from photonlink.receiver import apply_receiver, concentration_efficiency, make_pattern

LINK = dict(
    f_c_hz=2e14, d_t_m=0.22, d_r_m=11.8, eta_det=0.025, bandwidth_hz=2e9, power_w=4.0, distance_m=1.49e11
)


def link(**changes):
    return LinkParams(**{**LINK, **changes})


# (name, low, strict, call): call(value) passes value as the parameter
PARAMETERS = {
    "shannon_capacity n_a": ("n_a", 0, False, lambda v: shannon_capacity(v, 0.1)),
    "shannon_capacity n_b": ("n_b", 0, False, lambda v: shannon_capacity(0.1, v)),
    "holevo_capacity n_a": ("n_a", 0, False, lambda v: holevo_capacity(v, 0.1)),
    "holevo_capacity n_b": ("n_b", 0, False, lambda v: holevo_capacity(0.1, v)),
    "g x": ("x", 0, False, g),
    "pie n_a": ("n_a", 0, True, lambda v: pie(1.0, v)),
    "holevo_pie_asymptote n_b": ("n_b", 0, True, holevo_pie_asymptote),
    "shannon_pie_asymptote n_b": ("n_b", 0, False, shannon_pie_asymptote),
    **{
        f"LinkParams {key}": (key, 0, True, lambda v, key=key: link(**{key: v}))
        for key in LINK
    },
    "noise_power_watts n_b": ("n_b", 0, False, lambda v: noise_power_watts(v, 2e14, 2e9)),
    "noise_power_watts f_c_hz": ("f_c_hz", 0, True, lambda v: noise_power_watts(1e-2, v, 2e9)),
    "noise_power_watts bandwidth_hz": ("bandwidth_hz", 0, True, lambda v: noise_power_watts(1e-2, 2e14, v)),
    "transmitter_peak_power m_star": ("m_star", 1.0, False, lambda v: transmitter_peak_power(v, 1e-3, link())),
    "transmitter_peak_power n_a": ("n_a", 0, False, lambda v: transmitter_peak_power(10.0, v, link())),
    "NoiseModel n_b": ("n_b", 0, False, lambda v: NoiseModel("poisson", v)),
    "gaussian n_b": ("n_b", 0, False, gaussian),
    "click_probs pulse_energy": ("pulse_energy", 0, False, lambda v: click_probs(poissonian(0.1), v)),
    "ppm_mi_per_bin M": ("M", 2.0, False, lambda v: ppm_mi_per_bin(v, 1e-3, poissonian(0.1))),
    "ppm_mi_per_bin n_a": ("n_a", 0, False, lambda v: ppm_mi_per_bin(16.0, v, poissonian(0.1))),
    "ook_mi_per_bin M": ("M", 1.0, False, lambda v: ook_mi_per_bin(v, 1e-3, poissonian(0.1))),
    "optimize_M n_a": ("n_a", 0, True, lambda v: optimize_M(v, poissonian(0.1), PPM)),
    "optimize_M m_max ppm": ("m_max", 2.0, True, lambda v: optimize_M(1e-3, poissonian(0.1), PPM, v)),
    "optimize_M m_max ook": ("m_max", 1.0, True, lambda v: optimize_M(1e-3, poissonian(0.1), OOK, v)),
    "sweep_pie n_a_grid": ("n_a", 0, False, lambda v: sweep_pie([1e-3, v], [0.1], ["poisson"], PPM)),
    "sweep_pie n_b_list": ("n_b", 0, False, lambda v: sweep_pie([1e-3], [0.1, v], ["poisson"], PPM)),
    "sweep_pie m_max": ("m_max", 2.0, True, lambda v: sweep_pie([1e-3], [0.1], ["poisson"], PPM, v)),
    "apply_receiver phase_error_sigma": (
        "phase_error_sigma", 0, False, lambda v: apply_receiver(make_pattern(3, 1), 1.0, v)
    ),
    "concentration_efficiency phase_error_sigma": (
        "phase_error_sigma", 0, False, lambda v: concentration_efficiency(3, v)
    ),
    "make_pattern total_energy": ("total_energy", 0, True, lambda v: make_pattern(3, 1, v)),
}


def bad_values(low, strict):
    yield from (-1.0, math.inf, math.nan)
    if strict:
        yield float(low)


@pytest.mark.parametrize(
    "parameter, value",
    [(key, value) for key, (_, low, strict, _) in PARAMETERS.items() for value in bad_values(low, strict)],
)
def test_a_bad_number_is_refused_with_the_one_message(parameter, value):
    name, low, strict, call = PARAMETERS[parameter]
    message = f"{name} must be finite and {'>' if strict else '>='} {low}, got {value!r}"
    with pytest.raises(ValueError) as excinfo:
        call(value)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("value, text", [(-1, "-1.0"), (np.int64(-3), "-3.0"), (np.float32(-0.5), "-0.5")])
def test_an_int_or_a_numpy_scalar_is_echoed_as_a_float(value, text):
    with pytest.raises(ValueError) as excinfo:
        g(value)
    assert str(excinfo.value) == f"x must be finite and >= 0, got {text}"


def bits(result):
    """The result with every float written exactly, -0.0 apart from 0.0."""
    if dataclasses.is_dataclass(result):
        return bits(dataclasses.astuple(result))
    if isinstance(result, dict):
        return {key: bits(value) for key, value in result.items()}
    if isinstance(result, (tuple, list)):
        return [bits(value) for value in result]
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, float):
        return result.hex()
    return result


@pytest.mark.parametrize(
    "parameter", [key for key, (_, low, strict, _) in PARAMETERS.items() if low == 0 and not strict]
)
def test_negative_zero_gives_the_bits_of_zero(parameter):
    call = PARAMETERS[parameter][3]
    assert bits(call(-0.0)) == bits(call(0.0))


def test_negative_zero_energy_clicks_as_zero():
    # p_p = -expm1(-e_p - n_b) is -0.0 at e_p = -0.0, n_b = 0
    assert bits(click_probs(poissonian(0.0), -0.0)) == bits((0.0, 0.0))
    assert bits(click_probs(poissonian(0.0), np.array([-0.0, 0.0]))[1]) == bits(np.zeros(2))


@pytest.mark.parametrize(
    "values, low, strict, expected",
    [
        (2, 0, False, 2.0),
        (np.float32(0.5), 0, False, 0.5),
        (-0.0, 0, False, 0.0),
        ([3.0, -0.0], 0, False, np.array([3.0, 0.0])),
        (np.array([[1.0], [2.0]]), 1.0, False, np.array([[1.0], [2.0]])),
    ],
)
def test_checked_returns_a_float_for_a_scalar_and_an_array_otherwise(values, low, strict, expected):
    result = _checked("v", values, low, strict)
    assert type(result) is type(expected)
    assert bits(result) == bits(expected)
