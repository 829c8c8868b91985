"""Optimization of the modulation parameter M for PPM and OOK.

The photon information efficiency is maximized over the continuous frame
length / inverse duty cycle M at fixed n_a.  Since pie = mi_per_bin / n_a at
fixed n_a, maximizing efficiency and maximizing mutual information per bin
are the same problem.

The search is deterministic.  The objective has one smooth peak in log M,
so a scan of every 4th point of a coarse logarithmic grid brackets it.  Two
vertex rounds then usually finish the search: each centres a cluster of
log-spaced probes on the vertex of the parabola through the best point and
its two neighbours, which converges superlinearly on a smooth peak (Brent,
Algorithms for Minimization without Derivatives, 1973, ch. 5).  Every point
of a grid is searched in lockstep by one array search, so a single point and
a whole sweep take the same code path and give the same bits.  An optimum
pinned at the upper search bound is reported with ``at_boundary`` set
instead of raising, so sweeps can flag rather than abort.
"""

from __future__ import annotations

import functools
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
# the first evaluation scans every _STRIDE-th point of the coarse grid, so a
# starting bracket spans up to 2 * _STRIDE grid cells (0.694 in log M for OOK
# at the default grid)
_STRIDE = 4
# probes per vertex round, at -28 .. 28 spacings from the round's centre
_ZOOM = 57
_MID = (_ZOOM + 1) // 2
_OFFSETS = np.arange(1, _ZOOM + 1, dtype=float) - _MID
# the centre lies in [a + _MID * spacing, b - _MID * spacing], which keeps
# every probe inside (a, b)
_INSET = np.array([_MID, -_MID], dtype=float)
# probe j of a round sits in column j + 1, so it and its two neighbours
# are columns j + _NEIGHBOURS
_NEIGHBOURS = np.arange(3)
# probe spacing around a vertex, per h**2 (h: the wider side of the triple
# in log M).  At 72,294 interior optima over the CLI range the scan's vertex
# missed the peak by at most 0.22 h**2, and 57 probes span +-0.84 h**2
_CURVE = 0.03
# the finest spacing, as a share of the final bracket: a best probe with a
# probe either side leaves a bracket of 0.98 tol
_FINE = 0.49
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


@functools.lru_cache(maxsize=32)
def _scan(scheme: str, m_max: float, coarse_points: int) -> tuple[np.ndarray, ...]:
    """The first evaluation's points, and each scanned point's triple.

    Returns:
        (m_first, near_x, near_col): M = m_min followed by the scanned
        coarse-grid points, whose values equal the full grid's bit for bit;
        then for scanned point i, log M of point i between its scanned
        neighbours (an end of the range standing in for its missing one),
        and their columns in m_first.
    """
    m_min = _M_MIN[scheme]
    lo, hi = math.log(m_min), math.log(m_max)
    cells = np.array(sorted({0, coarse_points - 2, *range(coarse_points - 1, -1, -_STRIDE)}))
    log_grid = lo + (hi - lo) * cells / (coarse_points - 1)
    m_first = np.concatenate(([m_min], np.exp(log_grid)))
    near = np.clip(np.arange(len(cells))[:, None] + [-1, 0, 1], 0, len(cells) - 1)
    tables = m_first, log_grid[near], near + 1
    for table in tables:
        table.flags.writeable = False
    return tables


def _vertex(tri, span, fine):
    """Vertex of the parabola through each row's triple, and the spacing of
    the probes around it.

    ``tri[0]`` holds (a, x, b) in log M and ``tri[1]`` their values (fa,
    fx, fb); span = b - a.  The spacing is _CURVE * h**2, h = max(x - a,
    b - x), held within [fine, span / (_ZOOM + 1)].  A triple whose
    parabola has no maximum (flat, or bent upward, which takes a sentinel
    above x) gets the widest spacing, which spreads the probes evenly over
    (a, b); its vertex may then be NaN or infinite.
    """
    steps = tri[:, :, 1:] - tri[:, :, :-1]  # (x - a, b - x), (fx - fa, fb - fx)
    # (x - a)(fb - fx) <= 0 and (b - x)(fx - fa) >= 0 where x is the best of three
    down, up = (steps[0] * steps[1, :, ::-1]).T
    q = up - down
    h = np.maximum(steps[0, :, 0], steps[0, :, 1])
    curve = _CURVE * h * h
    curve[q <= 0.0] = np.inf
    spacing = np.minimum(np.maximum(curve, fine), span / (_ZOOM + 1))
    # x - ((x - a)**2 (fx - fb) - (b - x)**2 (fx - fa)) / 2q, rearranged
    return 0.5 * (tri[0, :, 1] + tri[0, :, 2] + span * down / q), spacing


def _maximize(n_a, n_b, kind: str, scheme: str, m_max=1e9, coarse_points=240, rel_tol=1e-6):
    """Maximize mutual information per bin over M at every (n_a[i], n_b[i]).

    Points are searched in lockstep, ``_BLOCK_POINTS`` at a time.  The first
    evaluation takes M = m_min and a subset of the coarse log grid: its first
    point, every ``_STRIDE``-th point counted down from m_max, and its last
    two points.  The objective has one peak in log M, so the two scanned
    neighbours a < b of the best scanned point x bracket it.

    Each vertex round then puts ``_ZOOM`` probes, evenly spaced in log M,
    around the vertex of the parabola through the triple (a, x, b), clipped
    so that every probe lies inside (a, b) (see ``_vertex`` for the
    spacing).  Where x is an end of the range, the probes are packed at the
    finest spacing against that end.  The new triple is the round's best
    probe and its two neighbours, a and b standing in for the probes beyond
    the ends.  Under one peak that triple brackets the peak even when an
    earlier probe beats every probe of the round: the peak lies in (a, b),
    and wherever it lies in there, no probe on the far side of the best one
    can be higher.  So the bracket needs no memory of earlier rounds.
    Rounds end when b - a <= log1p(rel_tol).  The best value probed wins,
    ties going to the first probed; a point whose bracket is done stays
    frozen while the rest of its block goes on.  Arguments are checked by
    callers.

    Returns:
        (m_star, mi_per_bin, at_boundary, failed) arrays.  ``at_boundary``
        means the objective rises from the next-to-last grid point to the
        last; ``failed`` marks a point whose n_a is not > 0 or whose
        n_a * m_max is not finite, and its other entries are meaningless.
    """
    mi = _MI[scheme]
    m_first, near_x, near_col = _scan(scheme, m_max, coarse_points)
    last = len(near_x) - 1
    # a bracket on the log axis stops shrinking at about one ulp of log M
    tol = max(math.log1p(rel_tol), 4.0 * math.ulp(math.log(m_max)))
    fine = _FINE * tol
    n_a, n_b = np.asarray(n_a, dtype=float), np.asarray(n_b, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        failed = ~((n_a > 0.0) & np.isfinite(n_a * m_max))
    n_a = np.where(failed, 1.0, n_a)
    m_star, mi_star, at_boundary = np.empty_like(n_a), np.empty_like(n_a), np.empty(n_a.shape, bool)

    for start in range(0, n_a.size, _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        n_a_col, n_b_col = n_a[block, None], n_b[block, None]
        values = mi(m_first, n_a_col, kind, n_b_col)
        rows = np.arange(len(values))
        col = rows[:, None]
        best = values.argmax(axis=1)
        m_best, mi_best = m_first[best], values[rows, best]
        # the last two columns are the last two grid points
        at_boundary[block] = values[:, -1] > values[:, -2]
        # the best scanned point between its scanned neighbours
        i = values[:, 1:].argmax(axis=1)
        tri = np.empty((2, len(values), 3))
        tri[0], tri[1] = near_x[i], values[col, near_col[i]]
        span = tri[0, :, 2] - tri[0, :, 0]
        wide = span > tol
        # a round's probes 1 .. _ZOOM, with a and b as probes 0 and _ZOOM + 1:
        # log M in probes[0], values in probes[1]
        probes = np.empty((2, len(values), _ZOOM + 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex, spacing = _vertex(tri, span, fine)
            # a best point at an end of the range has no vertex: pack the
            # probes at the finest spacing against that end
            end = (i == 0) | (i == last)
            if end.any():
                vertex[end] = tri[0, end, 1]
                spacing[end] = np.minimum(fine, span[end] / (_ZOOM + 1))
            while wide.any():
                probes[:, :, ::_ZOOM + 1] = tri[:, :, ::2]
                # the centre nearest the vertex that keeps every probe inside (a, b)
                inner = tri[0, :, ::2] + spacing[:, None] * _INSET
                centre = np.fmin(np.fmax(vertex, inner[:, 0]), inner[:, 1])
                np.add(centre[:, None], spacing[:, None] * _OFFSETS, out=probes[0, :, 1:-1])
                m = np.exp(probes[0, :, 1:-1])
                probes[1, :, 1:-1] = mi(m, n_a_col, kind, n_b_col)
                j = probes[1, :, 1:-1].argmax(axis=1)
                tri = probes[:, col, j[:, None] + _NEIGHBOURS]
                # only a strict improvement moves the best, so the first probe to reach it stays
                better = wide & (tri[1, :, 1] > mi_best)
                np.copyto(m_best, m[rows, j], where=better)
                np.copyto(mi_best, tri[1, :, 1], where=better)
                span = tri[0, :, 2] - tri[0, :, 0]
                wide &= span > tol
                if not wide.any():
                    break  # no round follows, so no vertex is needed
                vertex, spacing = _vertex(tri, span, fine)
        m_star[block], mi_star[block] = m_best, mi_best
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
        coarse_points: size of the coarse logarithmic grid, an integer
            >= 200.  The first evaluation scans every 4th of its points
            (counted down from m_max), its first point and its last two.
        rel_tol: relative width of the final bracket of the vertex rounds,
            > 0: the search stops once the peak lies between two probed M
            whose ratio is at most 1 + rel_tol.  A value below the float
            resolution of log M (4 ulps of log(m_max), about 1.4e-14 at
            the default m_max) searches to that resolution instead.

    Returns:
        ModulationOptimum; ``at_boundary`` is set when the objective rises
        from the next-to-last coarse grid point to the last, m_max, meaning
        the range should be widened.
    """
    if not math.isfinite(n_a) or n_a <= 0.0:
        raise ValueError(f"optimize_M requires n_a > 0, got {n_a!r}")
    _check_range(scheme, m_max)
    whole = math.isfinite(coarse_points) and coarse_points == int(coarse_points)
    if not whole or coarse_points < 200:
        raise ValueError(f"coarse_points must be an integer >= 200, got {coarse_points!r}")
    if not rel_tol > 0.0:
        raise ValueError(f"rel_tol must be > 0, got {rel_tol!r}")
    m_star, mi, at_boundary, failed = _maximize(
        [n_a], [model.n_b], model.kind, scheme, m_max, int(coarse_points), rel_tol
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
