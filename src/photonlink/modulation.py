"""Mutual information of direct-detected binary modulation formats.

Both formats place pulses of mean detected photon number e_p = M * n_a on a
grid of time bins so that the average detected photon number per bin stays
n_a.  ``M`` is the frame length (PPM) or the inverse duty cycle (OOK) and is
treated as a continuous parameter; it does not have to be an integer.

PPM is evaluated for the simplest receiver: a frame is decoded only when
exactly one bin clicked, anything else is an erasure.  OOK is the
generalized on-off keying channel with on-probability 1/M and soft
(per-bin) decoding.

``ppm_mi_per_bin`` and ``ook_mi_per_bin`` take M and n_a as floats or
arrays that broadcast together and return the mutual information per bin in
bits, a float for a point; the efficiency in bits per photon is
``capacity.pie(mi, n_a)``.
"""

from __future__ import annotations

import math

import numpy as np

from .noise import NoiseModel, _checked, _click_params

# smallest positive float: max(q, _TINY) is q for every q > 0
_TINY = math.ulp(0.0)
_LOG2_E = 1.0 / math.log(2.0)
# Below _SERIES_T a term comes from 6 terms of the series of phi(t) / t^2 or
# g(t) / t^2 (see _information), < 4e-15 relative off; above it log1p(t)
# costs about 1e-15 / t.  Highest power first, shaped for (2, h, points).
_SERIES_T = 0.005
_SERIES = np.array([[(-1) ** j / (j + 2) / (j + 1), (-1) ** j / (j + 2)] for j in range(5, -1, -1)])
_SERIES = _SERIES.reshape(-1, 2, 1, 1)


def _information(base: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Mutual information in nats from the cells of a joint distribution.

    Joint cells differ from the products of their marginals by +-k >= 0.
    ``base`` (shape (2, h) + k.shape, overwritten) holds in base[0] the
    products q of h cells whose joint is q + k, in base[1] the joints p of h
    cells whose product is p + k.  With t = k / base the information is the
    sum of q phi(t) and p g(t), phi(t) = (1 + t) log1p(t) - t, g(t) = t -
    log1p(t): no term is negative, so none cancels another.
    """
    shape, k, base = k.shape, k.reshape(-1), base.reshape(2, len(base[0]), -1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # 0 / 0 is a cell with no mass; log1p is slow at the float maximum,
        # and a base below 1e-300 k leaves its term k to the last digit
        t = np.fmin(k / base, 1e300)
        series = _SERIES[0] * t
        for c in _SERIES[1:]:
            series += c
            series *= t
        series *= k
    small = t < _SERIES_T
    log1p_t = np.log1p(t, out=t)
    np.subtract((base[0] + k) * log1p_t[0], k, out=base[0])
    np.subtract(k, base[1] * log1p_t[1], out=base[1])
    np.copyto(base, series, where=small)
    return base.sum(axis=(0, 1)).reshape(shape)


def _ppm_mi(m: np.ndarray, n_a: np.ndarray, clicks) -> np.ndarray:
    """PPM mutual information per bin, broadcast over m, n_a and the click
    parameters ``clicks`` of noise._click_params; no validation.

    Per frame and in units of q_c, the right decision (1) and the wrong ones
    (w = (m - 1) q_w / q_c) exceed and fall short of their marginal products
    s / m and (m - 1) s / m, s = 1 + w, by k = (m - 1)(1 - q_w / q_c) / m,
    where 1 - q_w / q_c = -expm1(log w) / p_p exactly (noise._click_params).
    """
    p_b, c_b, log_c_b, d = clicks
    log_w = m * n_a / d
    w_1 = np.expm1(log_w)
    p_p = p_b - c_b * w_1
    p_p_safe = np.maximum(p_p, _TINY)  # p_p = 0 only where k = 0
    m_1 = m - 1.0
    k = w_1 * (-m_1 / m) / p_p_safe
    base = np.empty((2, 1) + k.shape)
    wrong = np.divide(m_1 * np.exp(log_w) * p_b, p_p_safe, out=base[1, 0])
    np.divide(1.0 + wrong, m, out=base[0, 0])
    return p_p * np.exp(m_1 * log_c_b) * _information(base, k) * (_LOG2_E / m)


def _ook_mi(m: np.ndarray, n_a: np.ndarray, clicks) -> np.ndarray:
    """OOK mutual information per bin, broadcast over m, n_a and the click
    parameters ``clicks`` of noise._click_params; no validation.

    The (pulse, click) cells p_on p_p and p_off (1 - p_b) exceed the
    products of their marginals by k = p_on p_off (p_p - p_b), and the cells
    p_on (1 - p_p) and p_off p_b fall short of them by k.
    """
    p_b, c_b, _, d = clicks
    log_w = m * n_a / d
    p_on, p_off = 1.0 / m, (m - 1.0) / m
    on_gap = c_b * np.expm1(log_w) * -p_on  # p_on (p_p - p_b)
    k = p_off * on_gap
    base = np.empty((2, 2) + k.shape)
    on_dark, off_click = base[1]
    np.multiply(p_on * c_b, np.exp(log_w), out=on_dark)
    np.multiply(p_off, p_b, out=off_click)
    np.multiply(p_on, p_b + on_gap, out=base[0, 0])
    np.multiply(p_off, on_dark + p_off * c_b, out=base[0, 1])
    return _information(base, k) * _LOG2_E


def _mi_per_bin(kernel, m_min: float, m, n_a, model: NoiseModel):
    m, n_a = _checked("M", m, m_min), _checked("n_a", n_a)
    # the click parameters stay one-element arrays, as in a search, so a
    # point and a grid run the same numpy loops and give the same bits
    clicks = _click_params(model.kind, np.array([model.n_b]))
    # the errstate of optimize._maximize: (M - 1) log(1 - p_b) overflows to
    # -inf, the right limit, where a Poisson n_b is above about 1.8e299
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mi = kernel(m, n_a, clicks)
    return mi.item() if np.ndim(m) == np.ndim(n_a) == 0 else mi


def ppm_mi_per_bin(m, n_a, model: NoiseModel):
    """Mutual information of simple-decoded PPM with frame length ``m``, in
    bits per bin of the frame; m >= 2 (continuous), n_a >= 0.

    A frame of m bins carries one pulse of energy e_p = m * n_a.  The
    decoder outputs the pulse position when exactly one bin clicked and an
    erasure otherwise.

    ``m`` and ``n_a`` are floats, giving a float, or arrays that broadcast
    together; a ValueError names the first value out of range, as a float.
    """
    return _mi_per_bin(_ppm_mi, 2.0, m, n_a, model)


def ook_mi_per_bin(m, n_a, model: NoiseModel):
    """Mutual information of generalized OOK with on-probability 1/``m``, in
    bits per bin; m >= 1 (continuous), n_a >= 0.

    Each bin independently carries a pulse of energy e_p = m * n_a with
    probability 1/m.  This is the full binary asymmetric channel between
    the pulse bit and the click bit, with no erasure post-processing.
    ``m``, ``n_a`` and the result are as for ``ppm_mi_per_bin``.
    """
    return _mi_per_bin(_ook_mi, 1.0, m, n_a, model)
