"""Mutual information of direct-detected binary modulation formats.

Both formats place pulses of mean detected photon number e_p = M * n_a on a
grid of time bins so that the average detected photon number per bin stays
n_a.  ``M`` is the frame length (PPM) or the inverse duty cycle (OOK) and is
treated as a continuous parameter; it does not have to be an integer.

PPM is evaluated for the simplest receiver: a frame is decoded only when
exactly one bin clicked, anything else is an erasure.  OOK is the
generalized on-off keying channel with on-probability 1/M and soft
(per-bin) decoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import NoiseModel, _click_split, _one, click_probs


@dataclass(frozen=True)
class MutualInfoResult:
    """Mutual information per bin (bits) and per detected photon (bits)."""

    mi_per_bin: float
    pie: float


# smallest positive float: max(q, _TINY) is q for every q > 0
_TINY = math.ulp(0.0)
_LOG2_E = 1.0 / math.log(2.0)
# Below _SERIES_T a term comes from 6 terms of the series of phi(t) / t^2 or
# g(t) / t^2 (see _information), < 4e-15 relative off; above it log1p(t)
# costs about 1e-15 / t.  Highest power first, shaped for (2, h, points).
_SERIES_T = 0.005
_SERIES = np.array([[(-1) ** j / (j + 2) / (j + 1), (-1) ** j / (j + 2)] for j in range(5, -1, -1)])
_SERIES = _SERIES.reshape(-1, 2, 1, 1)


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    # a q log2(q) term is 0 at q = 0, as 0 * log2(_TINY)
    y = 1.0 - x
    return 0.0 - x * np.log2(np.maximum(x, _TINY)) - y * np.log2(np.maximum(y, _TINY))


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


def _ppm_mi(m: np.ndarray, n_a: np.ndarray, kind: str, n_b: np.ndarray) -> np.ndarray:
    """PPM mutual information per bin, broadcast over m, n_a and n_b; no validation.

    Per frame and in units of q_c, the right decision (1) and the wrong ones
    (w = (m - 1) q_w / q_c) exceed and fall short of their marginal products
    s / m and (m - 1) s / m, s = 1 + w, by k = (m - 1)(1 - q_w / q_c) / m,
    where 1 - q_w / q_c = -expm1(log w) / p_p exactly (noise._click_split).
    """
    p_b, c_b, log_c_b, log_w = _click_split(kind, n_b, m * n_a)
    w_1 = np.expm1(log_w)
    p_p = p_b - c_b * w_1
    p_p_safe = np.maximum(p_p, _TINY)  # p_p = 0 only where k = 0
    m_1 = m - 1.0
    k = w_1 * (-m_1 / m) / p_p_safe
    base = np.empty((2, 1) + k.shape)
    wrong = np.divide(m_1 * np.exp(log_w) * p_b, p_p_safe, out=base[1, 0])
    np.divide(1.0 + wrong, m, out=base[0, 0])
    return p_p * np.exp(m_1 * log_c_b) * _information(base, k) * (_LOG2_E / m)


def _ook_mi(m: np.ndarray, n_a: np.ndarray, kind: str, n_b: np.ndarray) -> np.ndarray:
    """OOK mutual information per bin, broadcast over m, n_a and n_b; no validation.

    The (pulse, click) cells p_on p_p and p_off (1 - p_b) exceed the
    products of their marginals by k = p_on p_off (p_p - p_b), and the cells
    p_on (1 - p_p) and p_off p_b fall short of them by k.
    """
    p_b, c_b, _, log_w = _click_split(kind, n_b, m * n_a)
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


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2(1-x), with H2(0) = H2(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy requires 0 <= x <= 1, got {x!r}")
    return float(_binary_entropy(_one(x))[0])


def _check_m(m: float, m_min: float) -> None:
    if not math.isfinite(m) or m < m_min:
        raise ValueError(f"M must be finite and >= {m_min}, got {m!r}")


def _check_n_a(n_a: float) -> None:
    if not math.isfinite(n_a) or n_a < 0.0:
        raise ValueError(f"n_a must be finite and >= 0, got {n_a!r}")


def _at_point(kernel, m: float, n_a: float, model: NoiseModel) -> MutualInfoResult:
    # the errstate of optimize._maximize: (M - 1) log(1 - p_b) overflows to
    # -inf, the right limit, where a Poisson n_b is above about 1.8e299
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mi = float(kernel(_one(m), _one(n_a), model.kind, _one(model.n_b))[0])
    return MutualInfoResult(mi_per_bin=mi, pie=mi / n_a if n_a > 0.0 else 0.0)


def ppm_mi_per_bin(m: float, n_a: float, model: NoiseModel) -> MutualInfoResult:
    """Mutual information of simple-decoded PPM with frame length ``m``.

    A frame of m bins carries one pulse of energy e_p = m * n_a.  The
    decoder outputs the pulse position when exactly one bin clicked and an
    erasure otherwise.

    Args:
        m: frame length, >= 2 (continuous).
        n_a: average detected signal photons per bin, >= 0.
        model: background noise model.

    Returns:
        MutualInfoResult per bin of the frame.
    """
    _check_m(m, 2.0)
    _check_n_a(n_a)
    return _at_point(_ppm_mi, m, n_a, model)


def ook_mi_per_bin(m: float, n_a: float, model: NoiseModel) -> MutualInfoResult:
    """Mutual information of generalized OOK with on-probability 1/``m``.

    Each bin independently carries a pulse of energy e_p = m * n_a with
    probability 1/m.  This is the full binary asymmetric channel between
    the pulse bit and the click bit, with no erasure post-processing.

    Args:
        m: inverse duty cycle, >= 1 (continuous).
        n_a: average detected signal photons per bin, >= 0.
        model: background noise model.

    Returns:
        MutualInfoResult per bin.
    """
    _check_m(m, 1.0)
    _check_n_a(n_a)
    return _at_point(_ook_mi, m, n_a, model)


def ppm_mi_enumeration_oracle(m: int, n_a: float, model: NoiseModel) -> float:
    """Simple-decoded PPM mutual information by exhaustive enumeration.

    Walks all 2**m click patterns for every pulse position, applies the
    single-click decoding rule and evaluates the mutual information of the
    resulting (position, decision) joint distribution.  Exponential in m,
    intended as an independent cross-check of ``ppm_mi_per_bin``.

    Args:
        m: integer frame length, 2 <= m <= 12.
        n_a: average detected signal photons per bin, >= 0.
        model: background noise model.

    Returns:
        Mutual information in bits per frame.
    """
    if int(m) != m or not 2 <= m <= 12:
        raise ValueError(f"enumeration oracle requires integer 2 <= m <= 12, got {m!r}")
    m = int(m)
    _check_n_a(n_a)
    probs = click_probs(model, m * n_a)

    clicks = ((np.arange(2**m)[:, None] >> np.arange(m)[None, :]) & 1).astype(bool)
    n_clicks = clicks.sum(axis=1)
    single = n_clicks == 1
    click_pos = np.argmax(clicks, axis=1)

    # joint distribution over (pulse position, decoder output); column m is erasure
    joint = np.zeros((m, m + 1))
    for i in range(m):
        per_bin = np.full(m, probs.p_b)
        per_bin[i] = probs.p_p
        pattern_prob = np.prod(np.where(clicks, per_bin, 1.0 - per_bin), axis=1)
        for y in range(m):
            joint[i, y] = pattern_prob[single & (click_pos == y)].sum()
        joint[i, m] = pattern_prob[~single].sum()
    joint /= m

    p_x = joint.sum(axis=1)
    p_y = joint.sum(axis=0)
    mi = 0.0
    for i in range(m):
        for y in range(m + 1):
            p_xy = joint[i, y]
            if p_xy > 0.0:
                mi += p_xy * math.log2(p_xy / (p_x[i] * p_y[y]))
    return max(mi, 0.0)
