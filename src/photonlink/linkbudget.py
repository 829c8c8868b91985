"""Free-space link budget: from hardware parameters to photons per bin.

The transmission of a diffraction-limited link with circular apertures is

    eta_ch = [pi * d_t * d_r * f_c / (4 c R)]**2

and the detected signal photon number per bin of duration 1/B is

    n_a = eta_det * eta_ch * P / (h f_c B).

The budget uses one set of constants: the rounded c = 3e8 m/s and
astronomical unit ``AU_M`` = 1.49e11 m that the published link tables for
the reference regimes below are based on, and the exact h.

One call of ``_distance_sweep`` lays out a whole table: the distances,
under every noise model it lists, share one batched M search per scheme
(optimize._maximize), and the Shannon and Holevo reference rates are
computed once per distance, whatever the schemes and models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .capacity import holevo_capacity, shannon_capacity
from .noise import NoiseModel, _checked
from .optimize import FLAG_FAILED, _maximize, _no_optimum, _searchable


# Planck's constant (J s) and the speed of light (m/s)
_H = 6.62607015e-34
_C = 3e8
# the astronomical unit in metres
AU_M = 1.49e11

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


def _transmission(lp: LinkParams, distance_m):
    # eta_ch at ``distance_m``, a float or an array of distances
    amplitude = math.pi * lp.d_t_m * lp.d_r_m * lp.f_c_hz / (4.0 * _C * distance_m)
    return amplitude * amplitude


def _photon_number(lp: LinkParams, eta_ch):
    return lp.eta_det * eta_ch * lp.power_w / (_H * lp.f_c_hz * lp.bandwidth_hz)


def _peak_power(m_star, n_a, lp: LinkParams, eta_ch):
    return m_star * n_a * _H * lp.f_c_hz * lp.bandwidth_hz / (lp.eta_det * eta_ch)


def channel_transmission(lp: LinkParams) -> float:
    """Power transmission eta_ch of the diffraction-limited channel."""
    return _transmission(lp, lp.distance_m)


def received_photon_number(lp: LinkParams) -> float:
    """Detected signal photons per bin, n_a = eta_det eta_ch P / (h f_c B)."""
    return _photon_number(lp, channel_transmission(lp))


def noise_power_watts(n_b: float, f_c_hz: float, bandwidth_hz: float) -> float:
    """Detected background power corresponding to n_b photons per bin."""
    if not math.isfinite(n_b) or n_b < 0.0:
        raise ValueError(f"n_b must be finite and >= 0, got {n_b!r}")
    # + 0.0 turns a background of -0.0 into 0.0
    return (n_b + 0.0) * _H * f_c_hz * bandwidth_hz


def transmitter_peak_power(m_star: float, n_a: float, lp: LinkParams) -> float:
    """Transmitter peak power that delivers pulses of energy m_star * n_a.

    Equals m_star * P_avg for a transmitter of average power P_avg, since
    the duty cycle is 1 / m_star.
    """
    return _peak_power(m_star, n_a, lp, channel_transmission(lp))


@dataclass(frozen=True)
class DistanceRow:
    """Optimized link performance at one distance, with the Shannon and
    Holevo reference rates at the same (n_a, n_b)."""

    distance_m: float
    n_a: float
    m_star: float
    rate_bps: float
    peak_power_w: float
    flag: str
    n_b: float
    shannon_rate_bps: float
    holevo_rate_bps: float


def _distance_sweep(
    lp_template: LinkParams,
    kinds: Sequence[str],
    n_b: float,
    schemes: Sequence[str],
    r_grid_m: Sequence[float],
) -> dict[str, np.ndarray]:
    """Optimized data rate and peak power of each scheme over a (kind,
    distance) grid, searched in one batch per scheme by optimize._maximize,
    which checks the kinds, the background ``n_b`` and the scheme.

    Returns columns keyed by name, one entry per point with the kinds, then
    the distances, in the given order: float64 arrays ``distance_m``,
    ``n_a`` and ``n_b`` and the str array ``model``; for each scheme s,
    float64 arrays ``m_star_<s>``, ``rate_<s>_bps`` and
    ``peak_power_<s>_w`` and the str array ``flag_<s>``, "boundary" where
    the optimum sits on the search bound, "failed" where the point has no
    optimum (n_a <= 0, n_a * m_max not finite, or an information per bin
    that underflows; m_star, rate and peak power are NaN there) and "ok"
    elsewhere; then float64 arrays ``shannon_rate_bps`` and
    ``holevo_rate_bps``, NaN where n_a <= 0 or n_a * m_max is not finite.
    A distance that is not finite and > 0 raises ValueError naming it as a
    float.
    """
    r_grid_m = list(r_grid_m)
    points = len(r_grid_m)
    # the columns hold every kind's points in turn; a search takes one kind's
    r_m = _checked("distance_m", r_grid_m * len(kinds), strict=True)
    # eta_ch and n_a overflow to inf at a tiny distance; the search then
    # fails that point
    with np.errstate(over="ignore"):
        eta_ch = _transmission(lp_template, r_m)
        n_a = _photon_number(lp_template, eta_ch)
    # + 0.0 gives a background of -0.0 as the 0.0 it is searched at
    n_b += 0.0
    columns = {"distance_m": r_m, "n_a": n_a, "n_b": np.full_like(n_a, n_b), "model": np.repeat(kinds, points)}
    for scheme in schemes:
        m_star, mi, flag = _maximize(n_a[:points], columns["n_b"][:points], kinds, scheme)
        columns[f"m_star_{scheme}"] = m_star
        columns[f"rate_{scheme}_bps"] = mi * lp_template.bandwidth_hz
        columns[f"peak_power_{scheme}_w"] = _peak_power(m_star, n_a, lp_template, eta_ch)
        columns[f"flag_{scheme}"] = flag
    # the reference rates depend on (n_a, n_b) alone, which every kind
    # shares; NaN where n_a is not searchable
    bandwidth = lp_template.bandwidth_hz
    shannon, holevo = [math.nan] * points, [math.nan] * points
    for i, (n_a_i, searchable) in enumerate(zip(n_a[:points].tolist(), _searchable(n_a[:points]).tolist())):
        if searchable:
            shannon[i] = shannon_capacity(n_a_i, n_b) * bandwidth
            holevo[i] = holevo_capacity(n_a_i, n_b) * bandwidth
    columns["shannon_rate_bps"] = np.array(shannon * len(kinds))
    columns["holevo_rate_bps"] = np.array(holevo * len(kinds))
    return columns


def rate_vs_distance(
    lp_template: LinkParams,
    noise: NoiseModel,
    scheme: str,
    r_grid_m: Sequence[float],
) -> list[DistanceRow]:
    """Optimized data rate and peak power across a grid of link distances.

    Every row also carries the Shannon and Holevo reference rates at the
    same (n_a, n_b) for comparison.  All distances are optimized in one
    batched search; rows keep the given order, and a boundary-pinned
    optimum flags its row instead of aborting.  A distance whose n_a has no
    optimum raises ValueError naming it in metres, and why.
    """
    columns = _distance_sweep(lp_template, [noise.kind], noise.n_b, [scheme], r_grid_m)
    failed = columns[f"flag_{scheme}"] == FLAG_FAILED
    if failed.any():
        i = failed.argmax()
        cause = _no_optimum(columns["n_a"][i].item())[1]
        raise ValueError(f"no optimum at distance_m = {columns['distance_m'][i].item()!r}: {cause}")
    fields = (
        "distance_m", "n_a", f"m_star_{scheme}", f"rate_{scheme}_bps", f"peak_power_{scheme}_w",
        f"flag_{scheme}", "n_b", "shannon_rate_bps", "holevo_rate_bps",
    )
    return [DistanceRow(*row) for row in zip(*(columns[name].tolist() for name in fields))]


@dataclass(frozen=True)
class RegimeReference:
    """Published reference values for one operating regime (for regression)."""

    n_b: float
    eta_ch: float
    n_a: float
    shannon_rate_bps: float
    holevo_rate_bps: float


REFERENCE_REGIMES = {
    "rf": RegimeReference(
        n_b=66.68,
        eta_ch=3.29e-15,
        n_a=1.08,
        shannon_rate_bps=11.4e6,
        holevo_rate_bps=11.5e6,
    ),
    "optical": RegimeReference(
        n_b=0.03,
        eta_ch=8.32e-11,
        n_a=0.03,
        shannon_rate_bps=87e6,
        holevo_rate_bps=273e6,
    ),
}


def regime_summary(lp: LinkParams, n_b: float) -> dict[str, float]:
    """Derived quantities for one regime: eta_ch, n_a and the two capacities."""
    eta_ch = channel_transmission(lp)
    n_a = _photon_number(lp, eta_ch)
    return {
        "eta_ch": eta_ch,
        "n_a": n_a,
        "shannon_rate_bps": shannon_capacity(n_a, n_b) * lp.bandwidth_hz,
        "holevo_rate_bps": holevo_capacity(n_a, n_b) * lp.bandwidth_hz,
    }
