"""Free-space link budget: from hardware parameters to photons per bin.

The transmission of a diffraction-limited link with circular apertures is

    eta_ch = [pi * d_t * d_r * f_c / (4 c R)]**2

and the detected signal photon number per bin of duration 1/B is

    n_a = eta_det * eta_ch * P / (h f_c B).

``DEFAULT_CONSTANTS`` uses the rounded c and astronomical unit that
published link tables for the reference regimes below are based on;
``CODATA_CONSTANTS`` switches to the exact defined values.

The distances of a table, under every noise model it lists, share one
batched M search per scheme (optimize._maximize).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .capacity import PhotonNumbers, holevo_capacity, shannon_capacity
from .noise import NoiseModel
from .optimize import FLAG_FAILED, _maximize


@dataclass(frozen=True)
class Constants:
    """Physical constants used in the budget (SI units)."""

    h: float = 6.62607015e-34
    c: float = 3e8
    au_m: float = 1.49e11


DEFAULT_CONSTANTS = Constants()
CODATA_CONSTANTS = Constants(c=299792458.0, au_m=1.495978707e11)

CONFIG_KEYS = (
    "f_c_hz",
    "d_t_m",
    "d_r_m",
    "eta_det",
    "bandwidth_hz",
    "power_w",
    "distance_m",
)


class LinkConfigError(ValueError):
    """Raised on malformed or incomplete link configuration files."""


@dataclass(frozen=True)
class LinkParams:
    """Hardware and geometry of one link (SI units)."""

    f_c_hz: float
    d_t_m: float
    d_r_m: float
    eta_det: float
    bandwidth_hz: float
    power_w: float
    distance_m: float

    def __post_init__(self) -> None:
        for name in CONFIG_KEYS:
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.eta_det > 1.0:
            raise ValueError(f"eta_det must be <= 1, got {self.eta_det!r}")


def load_link_params(path: str) -> LinkParams:
    """Parse a key-value link configuration file.

    Lines are ``key = value``; blank lines and ``#`` comments are ignored.
    Exactly the keys in CONFIG_KEYS are accepted, each once.
    """
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, text = line.partition("=")
            if not eq:
                raise LinkConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise LinkConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise LinkConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = float(text.strip())
            except ValueError:
                raise LinkConfigError(
                    f"{path}:{lineno}: value for {key!r} is not a number: {text.strip()!r}"
                ) from None
    missing = [key for key in CONFIG_KEYS if key not in values]
    if missing:
        raise LinkConfigError(f"{path}: missing key(s): {', '.join(missing)}")
    try:
        return LinkParams(**values)
    except ValueError as exc:
        raise LinkConfigError(f"{path}: {exc}") from None


def _transmission(lp: LinkParams, distance_m, constants: Constants):
    # eta_ch at ``distance_m``, a float or an array of distances
    amplitude = math.pi * lp.d_t_m * lp.d_r_m * lp.f_c_hz / (4.0 * constants.c * distance_m)
    return amplitude * amplitude


def _photon_number(lp: LinkParams, eta_ch, constants: Constants):
    return lp.eta_det * eta_ch * lp.power_w / (constants.h * lp.f_c_hz * lp.bandwidth_hz)


def _peak_power(m_star, n_a, lp: LinkParams, eta_ch, constants: Constants):
    return m_star * n_a * constants.h * lp.f_c_hz * lp.bandwidth_hz / (lp.eta_det * eta_ch)


def channel_transmission(lp: LinkParams, constants: Constants = DEFAULT_CONSTANTS) -> float:
    """Power transmission eta_ch of the diffraction-limited channel."""
    return _transmission(lp, lp.distance_m, constants)


def received_photon_number(lp: LinkParams, constants: Constants = DEFAULT_CONSTANTS) -> float:
    """Detected signal photons per bin, n_a = eta_det eta_ch P / (h f_c B)."""
    return _photon_number(lp, channel_transmission(lp, constants), constants)


def noise_power_watts(
    n_b: float,
    f_c_hz: float,
    bandwidth_hz: float,
    constants: Constants = DEFAULT_CONSTANTS,
) -> float:
    """Detected background power corresponding to n_b photons per bin."""
    if not math.isfinite(n_b) or n_b < 0.0:
        raise ValueError(f"n_b must be finite and >= 0, got {n_b!r}")
    # + 0.0 turns a background of -0.0 into 0.0
    return (n_b + 0.0) * constants.h * f_c_hz * bandwidth_hz


def transmitter_peak_power(
    m_star: float,
    n_a: float,
    lp: LinkParams,
    constants: Constants = DEFAULT_CONSTANTS,
) -> float:
    """Transmitter peak power that delivers pulses of energy m_star * n_a.

    Equals m_star * P_avg for a transmitter of average power P_avg, since
    the duty cycle is 1 / m_star.
    """
    return _peak_power(m_star, n_a, lp, channel_transmission(lp, constants), constants)


@dataclass(frozen=True)
class DistanceRow:
    """Optimized link performance at one distance.

    The Shannon and Holevo reference rates at the same (n_a, n_b) are
    computed when first read, so a table that shows them once for several
    schemes computes them once.
    """

    distance_m: float
    n_a: float
    m_star: float
    rate_bps: float
    peak_power_w: float
    flag: str
    n_b: float
    bandwidth_hz: float

    @cached_property
    def shannon_rate_bps(self) -> float:
        return shannon_capacity(PhotonNumbers(self.n_a, self.n_b)) * self.bandwidth_hz

    @cached_property
    def holevo_rate_bps(self) -> float:
        return holevo_capacity(PhotonNumbers(self.n_a, self.n_b)) * self.bandwidth_hz


def _distance_sweep(
    lp_template: LinkParams,
    kinds: Sequence[str],
    n_b: float,
    scheme: str,
    r_grid_m: Sequence[float],
    constants: Constants = DEFAULT_CONSTANTS,
) -> dict[str, np.ndarray]:
    """Optimized data rate and peak power over a (kind, distance) grid,
    searched in one batch by optimize._maximize, which checks the kinds,
    the background ``n_b`` and the scheme.

    Returns columns keyed by name, one entry per point with the kinds, then
    the distances, in the given order: float64 arrays ``distance_m``,
    ``n_a`` and ``n_b``, the str array ``model``, float64 arrays
    ``m_star``, ``rate_bps`` and ``peak_power_w``, then the str array
    ``flag``, "boundary" where the optimum sits on the search bound,
    "failed" where n_a has no optimum (n_a <= 0, or n_a * m_max not
    finite; m_star, rate and peak power are NaN there) and "ok" elsewhere.
    A distance that is not finite and > 0 raises ValueError naming it as a
    float.
    """
    r_grid_m = list(r_grid_m)
    points = len(r_grid_m)
    # the columns hold every kind's points in turn; the search takes one kind's
    r_m = np.array(r_grid_m * len(kinds), dtype=float)
    bad = ~(np.isfinite(r_m) & (r_m > 0.0))
    if bad.any():
        raise ValueError(f"distance_m must be finite and > 0, got {r_m[bad.argmax()].item()!r}")
    # eta_ch and n_a overflow to inf at a tiny distance; the search then
    # fails that point
    with np.errstate(over="ignore"):
        eta_ch = _transmission(lp_template, r_m, constants)
        n_a = _photon_number(lp_template, eta_ch, constants)
    # + 0.0 gives a background of -0.0 as the 0.0 it is searched at
    n_b = np.full_like(n_a, n_b + 0.0)
    m_star, mi, flag = _maximize(n_a[:points], n_b[:points], kinds, scheme)
    return {
        "distance_m": r_m,
        "n_a": n_a,
        "n_b": n_b,
        "model": np.repeat(kinds, points),
        "m_star": m_star,
        "rate_bps": mi * lp_template.bandwidth_hz,
        "peak_power_w": _peak_power(m_star, n_a, lp_template, eta_ch, constants),
        "flag": flag,
    }


def rate_vs_distance(
    lp_template: LinkParams,
    noise: NoiseModel,
    scheme: str,
    r_grid_m: Sequence[float],
    constants: Constants = DEFAULT_CONSTANTS,
) -> list[DistanceRow]:
    """Optimized data rate and peak power across a grid of link distances.

    Every row also carries the Shannon and Holevo reference rates at the
    same (n_a, n_b) for comparison.  All distances are optimized in one
    batched search; rows keep the given order, and a boundary-pinned
    optimum flags its row instead of aborting.  A distance whose n_a has no
    optimum raises ValueError naming it in metres.
    """
    columns = _distance_sweep(lp_template, [noise.kind], noise.n_b, scheme, r_grid_m, constants)
    failed = columns["flag"] == FLAG_FAILED
    if failed.any():
        i = failed.argmax()
        raise ValueError(
            f"no optimum at distance_m = {columns['distance_m'][i].item()!r}: n_a = {columns['n_a'][i].item()!r}"
        )
    fields = ("distance_m", "n_a", "m_star", "rate_bps", "peak_power_w", "flag", "n_b")
    return [
        DistanceRow(*row, bandwidth_hz=lp_template.bandwidth_hz)
        for row in zip(*(columns[name].tolist() for name in fields))
    ]


@dataclass(frozen=True)
class RegimeReference:
    """Published reference values for one operating regime (for regression)."""

    name: str
    n_b: float
    eta_ch: float
    n_a: float
    shannon_rate_bps: float
    holevo_rate_bps: float


REFERENCE_REGIMES = {
    "rf": RegimeReference(
        name="rf",
        n_b=66.68,
        eta_ch=3.29e-15,
        n_a=1.08,
        shannon_rate_bps=11.4e6,
        holevo_rate_bps=11.5e6,
    ),
    "optical": RegimeReference(
        name="optical",
        n_b=0.03,
        eta_ch=8.32e-11,
        n_a=0.03,
        shannon_rate_bps=87e6,
        holevo_rate_bps=273e6,
    ),
}


def regime_summary(
    lp: LinkParams, n_b: float, constants: Constants = DEFAULT_CONSTANTS
) -> dict[str, float]:
    """Derived quantities for one regime: eta_ch, n_a and the two capacities."""
    eta_ch = channel_transmission(lp, constants)
    n_a = received_photon_number(lp, constants)
    pn = PhotonNumbers(n_a, n_b)
    return {
        "eta_ch": eta_ch,
        "n_a": n_a,
        "shannon_rate_bps": shannon_capacity(pn) * lp.bandwidth_hz,
        "holevo_rate_bps": holevo_capacity(pn) * lp.bandwidth_hz,
    }
