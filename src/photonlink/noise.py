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

``click_probs`` checks a pulse energy, or an array of them, and returns
the pair (p_b, p_p): p_b a float, p_p a float or an array shaped like the
energies.  ``_checked`` is the one check of every array input: finite, at
least (or above) a bound, else a ValueError naming the first bad value.
The mutual-information kernels take the model as data: ``_click_params``
computes each point's click parameters once, so one M search holds points
of both models.
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
        # -0.0 passes, but its click probabilities are -0.0 and the kernels divide by them
        object.__setattr__(self, "n_b", self.n_b + 0.0)


def poissonian(n_b: float) -> NoiseModel:
    return NoiseModel(POISSON, n_b)


def gaussian(n_b: float) -> NoiseModel:
    return NoiseModel(GAUSS, n_b)


def _click_params(kind: str, n_b: np.ndarray) -> tuple[np.ndarray, ...]:
    """(p_b, 1 - p_b, log(1 - p_b), d) at each background in the array ``n_b``.

    A bin carrying a pulse of energy e stays dark with probability
    (1 - p_b) w, log w = e / d: d = -1 (poisson), so e / d is exactly -e, or
    d = -(n_b + 1) (gauss).  So 1 - p_p and p_p - p_b = -(1 - p_b)
    expm1(log w) follow without rounding to 1."""
    if kind == POISSON:
        log_c_b = -n_b
        return -np.expm1(log_c_b), np.exp(log_c_b), log_c_b, np.full_like(n_b, -1.0)
    t = n_b + 1.0
    return n_b / t, 1.0 / t, -np.log1p(n_b), -t


def _checked(name: str, values, low: float = 0, strict: bool = False) -> np.ndarray:
    """``values`` as a float64 array, or a ValueError naming, as a float, the
    first that is not finite and >= ``low`` (> ``low`` where ``strict``)."""
    values = np.asarray(values, dtype=float)
    ok = np.isfinite(values) & ((values > low) if strict else (values >= low))
    if not ok.all():
        op = ">" if strict else ">="
        raise ValueError(f"{name} must be finite and {op} {low}, got {values.flat[ok.argmin()].item()!r}")
    return values


def click_probs(model: NoiseModel, pulse_energy):
    """Click probabilities (p_b, p_p) of an empty bin and of a bin carrying
    a pulse of mean detected photon number ``pulse_energy``.

    ``pulse_energy`` is a float or an array of floats, each finite and
    >= 0; a ValueError names the first that is not, as a float.  p_b is a
    float; p_p is a float for a float and an array shaped like the input
    for an array.  The formulas give 0 <= p_b <= p_p <= 1.
    """
    e = _checked("pulse_energy", pulse_energy)
    # a float goes through the formulas as a one-element array, so a point
    # and an array run the same numpy loops and give the same bits
    n_b, e_p = np.array([model.n_b]), np.atleast_1d(e)
    if model.kind == POISSON:
        p_b, p_p = -np.expm1(-n_b), -np.expm1(-e_p - n_b)
    else:
        # algebraically 1 - exp(-e_p/(n_b+1))/(n_b+1), arranged so that
        # n_b = 0 reproduces the Poissonian expressions bit for bit
        t = n_b + 1.0
        p_b, p_p = n_b / t, (n_b - np.expm1(-e_p / t)) / t
    return float(p_b[0]), (float(p_p[0]) if e.ndim == 0 else p_p)
