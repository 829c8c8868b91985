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

from .noise import NoiseModel, _click_probs, _one, click_probs


@dataclass(frozen=True)
class MutualInfoResult:
    """Mutual information per bin (bits) and per detected photon (bits)."""

    mi_per_bin: float
    pie: float


# smallest positive float: max(q, _TINY) is q for every q > 0
_TINY = math.ulp(0.0)


def _xlog2x(q: np.ndarray) -> np.ndarray:
    # q * log2(q), which is 0 at q = 0 (as 0 * log2(_TINY))
    return q * np.log2(np.maximum(q, _TINY))


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    return 0.0 - _xlog2x(x) - _xlog2x(1.0 - x)


def _ppm_mi(m: np.ndarray, n_a: np.ndarray, kind: str, n_b: np.ndarray) -> np.ndarray:
    """PPM mutual information per bin, broadcast over m, n_a and n_b; no validation."""
    p_b, p_p = _click_probs(kind, n_b, m * n_a)
    no_click = 1.0 - p_b
    m_1 = m - 1.0
    q_c = p_p * np.power(no_click, m_1)
    q_w = (1.0 - p_p) * p_b * np.power(no_click, m - 2.0)
    wrong = m_1 * q_w
    s = q_c + wrong
    s_safe = np.where(s == 0.0, 1.0, s)  # s == 0 leaves both terms 0
    i_frame = q_c * np.log2(np.maximum(q_c * m / s_safe, _TINY)) + wrong * np.log2(
        np.maximum(q_w * m / s_safe, _TINY)
    )
    return np.maximum(np.where(p_p == p_b, 0.0, i_frame / m), 0.0)


def _ook_mi(m: np.ndarray, n_a: np.ndarray, kind: str, n_b: np.ndarray) -> np.ndarray:
    """OOK mutual information per bin, broadcast over m, n_a and n_b; no validation."""
    p_b, p_p = _click_probs(kind, n_b, m * n_a)
    p_on = 1.0 / m
    p_click = p_on * p_p + (1.0 - p_on) * p_b
    mi = (
        _binary_entropy(p_click)
        - p_on * _binary_entropy(p_p)
        - (1.0 - p_on) * _binary_entropy(p_b)
    )
    return np.maximum(np.where(p_p == p_b, 0.0, mi), 0.0)


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
