"""Single-photon-detector click statistics under background noise.

Two noise models are supported for a bin of mean background photon number
``n_b``:

* ``poisson``: Poissonian background, e.g. stray light without excess
  fluctuations.  p_b = 1 - exp(-n_b), p_p = 1 - exp(-e_p - n_b).
* ``gauss``: thermal (Bose-Einstein) background.  p_b = n_b / (n_b + 1),
  p_p = 1 - exp(-e_p / (n_b + 1)) / (n_b + 1).

``e_p`` is the mean detected photon number of a pulse occupying the bin.
The two models coincide exactly at n_b = 0 and to first order in small
n_b and e_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

POISSON = "poisson"
GAUSS = "gauss"
MODEL_KINDS = (POISSON, GAUSS)


@dataclass(frozen=True)
class NoiseModel:
    """Background statistics: ``kind`` in {"poisson", "gauss"} and ``n_b`` >= 0."""

    kind: str
    n_b: float

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        if not math.isfinite(self.n_b) or self.n_b < 0.0:
            raise ValueError(f"n_b must be finite and >= 0, got {self.n_b!r}")


def poissonian(n_b: float) -> NoiseModel:
    return NoiseModel(POISSON, n_b)


def gaussian(n_b: float) -> NoiseModel:
    return NoiseModel(GAUSS, n_b)


@dataclass(frozen=True)
class ClickProbabilities:
    """Per-bin click probabilities: ``p_b`` empty bin, ``p_p`` pulsed bin."""

    p_b: float
    p_p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_b <= 1.0 or not 0.0 <= self.p_p <= 1.0:
            raise ValueError(f"probabilities out of [0, 1]: {self}")
        if self.p_b > self.p_p:
            raise ValueError(f"p_b must not exceed p_p: {self}")


def _click_probs(kind: str, n_b: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p_b, p_p) broadcast over ``n_b`` and pulse energies ``e``; no validation."""
    if kind == POISSON:
        return -np.expm1(-n_b), -np.expm1(-e - n_b)
    # algebraically 1 - exp(-e_p/(n_b+1))/(n_b+1), arranged so that
    # n_b = 0 reproduces the Poissonian expressions bit for bit
    t = n_b + 1.0
    return n_b / t, (n_b - np.expm1(-e / t)) / t


def _click_split(kind: str, n_b: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, ...]:
    """(p_b, 1 - p_b, log(1 - p_b), log w) broadcast over ``n_b`` and ``e``.

    A pulsed bin stays dark with probability (1 - p_b) w, log w = -e (poisson)
    or -e / (n_b + 1) (gauss), so 1 - p_p and p_p - p_b = -(1 - p_b)
    expm1(log w) follow without rounding to 1."""
    if kind == POISSON:
        return -np.expm1(-n_b), np.exp(-n_b), -n_b, -e
    t = n_b + 1.0
    return n_b / t, 1.0 / t, -np.log1p(n_b), e / -t


def _one(x: float) -> np.ndarray:
    # scalars go through the array kernels as one-element arrays, so a point
    # and a grid run the same numpy loops and give the same bits
    return np.array([x], dtype=float)


def click_probs(model: NoiseModel, pulse_energy: float) -> ClickProbabilities:
    """Click probabilities for an empty bin and for a bin carrying a pulse.

    Args:
        model: background noise model.
        pulse_energy: mean detected photon number e_p of the pulse, >= 0.

    Returns:
        ClickProbabilities with p_b <= p_p.
    """
    if not math.isfinite(pulse_energy) or pulse_energy < 0.0:
        raise ValueError(f"pulse_energy must be finite and >= 0, got {pulse_energy!r}")
    p_b, p_p = _click_probs(model.kind, _one(model.n_b), _one(pulse_energy))
    return ClickProbabilities(p_b=float(p_b[0]), p_p=float(p_p[0]))
