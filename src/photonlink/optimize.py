"""Optimization of the modulation parameter M for PPM and OOK.

The photon information efficiency is maximized over the continuous frame
length / inverse duty cycle M at fixed n_a.  Since pie = mi_per_bin / n_a at
fixed n_a, maximizing efficiency and maximizing mutual information per bin
are the same problem.

The search is deterministic: a coarse scan on a logarithmic grid locates the
basin, zoom rounds of log-spaced probes refine it.  Every point of a grid
is searched in lockstep by one array search, so a single point and a whole
sweep take the same code path and give the same bits.  An optimum pinned at
the upper search bound is reported with ``at_boundary`` set instead of
raising, so sweeps can flag rather than abort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .modulation import _ook_mi, _ppm_mi
from .noise import NoiseModel

PPM = "ppm"
OOK = "ook"
SCHEMES = (PPM, OOK)

_M_MIN = {PPM: 2.0, OOK: 1.0}
_MI = {PPM: _ppm_mi, OOK: _ook_mi}
# probes per zoom round; each round narrows a bracket (_ZOOM + 1) / 2 times
_ZOOM = 41
_ZOOM_STEPS = np.arange(1, _ZOOM + 1)
# points searched together; bounds the (points x grid) temporaries
_BLOCK_POINTS = 64

FLAG_OK = "ok"
FLAG_BOUNDARY = "boundary"
FLAG_FAILED = "failed"


@dataclass(frozen=True)
class ModulationOptimum:
    """Result of maximizing efficiency over M at fixed n_a."""

    m_star: float
    pie_star: float
    mi_per_bin: float
    pulse_energy: float
    at_boundary: bool = False


@dataclass(frozen=True)
class SweepRow:
    """One (n_b, n_a) point of an efficiency sweep."""

    n_a: float
    n_b: float
    m_star: float
    pie_star: float
    pulse_energy: float
    flag: str


def _check_range(scheme: str, m_max: float) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if not math.isfinite(m_max) or m_max <= _M_MIN[scheme]:
        raise ValueError(f"m_max must exceed {_M_MIN[scheme]}, got {m_max!r}")


def _maximize(n_a, n_b, kind: str, scheme: str, m_max=1e9, coarse_points=240, rel_tol=1e-6):
    """Maximize mutual information per bin over M at every (n_a[i], n_b[i]).

    Points are searched in lockstep, ``_BLOCK_POINTS`` at a time: M = m_min
    and the coarse log grid in one evaluation, then zoom rounds.  A round
    puts ``_ZOOM`` log-spaced probes inside the two cells around a point's
    argmax and keeps the two cells around the best of them, until the
    bracket is narrower than ``rel_tol``.  The best value probed wins, ties
    going to the first probed.  Arguments are checked by callers.

    Returns:
        (m_star, mi_per_bin, at_boundary, failed) arrays.  ``at_boundary``
        means the coarse argmax is the last grid cell; ``failed`` marks a
        point whose n_a is not > 0 or whose n_a * m_max is not finite, and
        its other entries are meaningless.
    """
    mi, m_min = _MI[scheme], _M_MIN[scheme]
    lo, hi = math.log(m_min), math.log(m_max)
    log_grid = lo + (hi - lo) * np.arange(coarse_points) / (coarse_points - 1)
    m_first = np.concatenate(([m_min], np.exp(log_grid)))
    # a bracket on the log axis stops shrinking at about one ulp of log M
    tol = max(math.log1p(rel_tol), 4.0 * math.ulp(hi))
    n_a, n_b = np.asarray(n_a, dtype=float), np.asarray(n_b, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        failed = ~((n_a > 0.0) & np.isfinite(n_a * m_max))
    n_a = np.where(failed, 1.0, n_a)
    m_star, mi_star, at_boundary = np.empty_like(n_a), np.empty_like(n_a), np.empty(n_a.shape, bool)

    for start in range(0, n_a.size, _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        n_a_col, n_b_col = n_a[block, None], n_b[block, None]
        values = mi(m_first, n_a_col, kind, n_b_col)
        # every probe's M and value in probe order (-inf once a point is done)
        ms, vs = [np.broadcast_to(m_first, values.shape)], [values]
        i = values[:, 1:].argmax(axis=1)
        at_boundary[block] = i == coarse_points - 1
        a, b = log_grid[np.maximum(i - 1, 0)], log_grid[np.minimum(i + 1, coarse_points - 1)]
        wide = b - a > tol
        while wide.any():
            step = (b - a) / (_ZOOM + 1)
            m = np.exp(a[:, None] + step[:, None] * _ZOOM_STEPS)
            values = np.where(wide[:, None], mi(m, n_a_col, kind, n_b_col), -np.inf)
            ms.append(m)
            vs.append(values)
            # the probes either side of the best one, counting a and b as probes 0 and Z + 1
            j = values.argmax(axis=1)
            a, b = np.where(wide, a + step * j, a), np.where(wide, a + step * (j + 2), b)
            wide = b - a > tol
        m, values = np.concatenate(ms, axis=1), np.concatenate(vs, axis=1)
        i = values.argmax(axis=1)
        rows = np.arange(len(i))
        m_star[block], mi_star[block] = m[rows, i], values[rows, i]
    return m_star, mi_star, at_boundary, failed


def optimize_M(
    n_a: float,
    model: NoiseModel,
    scheme: str,
    m_max: float = 1e9,
    coarse_points: int = 240,
    rel_tol: float = 1e-6,
) -> ModulationOptimum:
    """Maximize mutual information per bin over the modulation parameter M.

    Args:
        n_a: average detected signal photons per bin, > 0.
        model: background noise model.
        scheme: "ppm" or "ook".
        m_max: upper end of the search range.
        coarse_points: size of the initial logarithmic grid, >= 200.
        rel_tol: relative width of the final zoom bracket, > 0;
            a value below the float resolution of log M (4 ulps of
            log(m_max), about 1.4e-14 at the default m_max) searches to
            that resolution instead.

    Returns:
        ModulationOptimum; ``at_boundary`` is set when the coarse scan puts
        the maximum on the m_max end, meaning the range should be widened.
    """
    if not math.isfinite(n_a) or n_a <= 0.0:
        raise ValueError(f"optimize_M requires n_a > 0, got {n_a!r}")
    _check_range(scheme, m_max)
    if coarse_points < 200:
        raise ValueError(f"coarse_points must be >= 200, got {coarse_points!r}")
    if not rel_tol > 0.0:
        raise ValueError(f"rel_tol must be > 0, got {rel_tol!r}")
    m_star, mi, at_boundary, failed = _maximize(
        [n_a], [model.n_b], model.kind, scheme, m_max, coarse_points, rel_tol
    )
    if failed[0]:
        raise ValueError(f"pulse energy n_a * m_max overflows at n_a = {n_a!r}")
    m, value = float(m_star[0]), float(mi[0])
    return ModulationOptimum(m, value / n_a, value, m * n_a, bool(at_boundary[0]))


def sweep_pie(
    n_a_grid: Sequence[float],
    n_b_list: Sequence[float],
    model_kind: str,
    scheme: str,
    m_max: float = 1e9,
) -> list[SweepRow]:
    """Optimized efficiency over an (n_b, n_a) grid, searched in one batch.

    Rows are ordered by (n_b, n_a) ascending.  A point whose optimization
    fails is kept in the table with NaN values and flag "failed"; a point
    whose optimum sits on the m_max bound is flagged "boundary".
    """
    n_bs = sorted(n_b_list)
    for n_b in n_bs:
        NoiseModel(model_kind, n_b)  # rejects a bad model kind or background
    _check_range(scheme, m_max)
    points = [(n_a, n_b) for n_b in n_bs for n_a in sorted(n_a_grid)]
    m_star, mi, at_boundary, failed = _maximize(
        [n_a for n_a, _ in points], [n_b for _, n_b in points], model_kind, scheme, m_max
    )
    return [
        SweepRow(n_a, n_b, math.nan, math.nan, math.nan, FLAG_FAILED)
        if bad
        else SweepRow(n_a, n_b, m, value / n_a, m * n_a, FLAG_BOUNDARY if edge else FLAG_OK)
        for (n_a, n_b), m, value, edge, bad in zip(
            points, m_star.tolist(), mi.tolist(), at_boundary.tolist(), failed.tolist()
        )
    ]
