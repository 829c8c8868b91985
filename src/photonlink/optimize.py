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
Algorithms for Minimization without Derivatives, 1973, ch. 5).  Every
optimum goes through ``_maximize``, which checks its input, searches every
point of a grid under each noise kind in lockstep, and flags each optimum,
so a single point (``optimize_M``) and a whole sweep (``sweep_pie``, over
any number of noise kinds) take the same code path and give the same
bits.  An optimum pinned at the upper search bound is flagged
"boundary" instead of raising, so sweeps can flag rather than abort.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .capacity import pie
from .modulation import _ook_mi, _ppm_mi
from .noise import MODEL_KINDS, NoiseModel, _checked, _click_params

PPM = "ppm"
OOK = "ook"
SCHEMES = (PPM, OOK)

_M_MIN = {PPM: 2.0, OOK: 1.0}
_MI = {PPM: _ppm_mi, OOK: _ook_mi}
# points of the coarse logarithmic grid over [m_min, m_max]
_COARSE_POINTS = 240
# the vertex rounds stop once the peak lies between two probed M whose
# ratio is at most 1 + 1e-6
_TOL = math.log1p(1e-6)
# the first evaluation scans every _STRIDE-th point of the coarse grid, so a
# starting bracket spans up to 2 * _STRIDE grid cells (0.694 in log M for OOK
# at m_max = 1e9)
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
# the finest spacing: a best probe with a probe either side leaves a
# bracket of 0.98 _TOL
_FINE = 0.49 * _TOL
# points searched together; bounds the (points x grid) temporaries
_BLOCK_POINTS = 64
# the upper end of the M search where a caller sets none
_M_MAX = 1e9
# below this information per bin an optimum is failed: the value has
# underflowed or lost its digits, so every M scores alike.  Against
# 900-digit mpmath, OOK at n_b = 0 errs by 5.5e-8 relative just above the
# smallest normal float 2.2e-308, 9.6e-12 at 2.2e-304 and 7.5e-16 at
# 2.2e-300; PPM, and OOK at n_b > 0, keep 1e-15 down to 2.2e-308
_MI_FLOOR = 1e-300

FLAG_OK = "ok"
FLAG_BOUNDARY = "boundary"
FLAG_FAILED = "failed"
_FLAG_TEXT = np.array([FLAG_OK, FLAG_BOUNDARY, FLAG_FAILED])


@dataclass(frozen=True)
class ModulationOptimum:
    """Result of maximizing efficiency over M at fixed n_a."""

    m_star: float
    pie_star: float
    mi_per_bin: float
    pulse_energy: float
    at_boundary: bool = False


@functools.lru_cache(maxsize=32)
def _scan(scheme: str, m_max: float) -> tuple[np.ndarray, ...]:
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
    last = _COARSE_POINTS - 1
    cells = np.array(sorted({0, last - 1, *range(last, -1, -_STRIDE)}))
    log_grid = lo + (hi - lo) * cells / last
    m_first = np.concatenate(([m_min], np.exp(log_grid)))
    near = np.clip(np.arange(len(cells))[:, None] + [-1, 0, 1], 0, len(cells) - 1)
    tables = m_first, log_grid[near], near + 1
    for table in tables:
        table.flags.writeable = False
    return tables


def _searchable(n_a, m_max=_M_MAX):
    """Where n_a, a float or an array, is > 0 and the pulse energy
    n_a * m_max is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (n_a > 0.0) & np.isfinite(n_a * m_max)


def _no_optimum(n_a: float, m_max: float = _M_MAX) -> tuple[bool, str]:
    """Why ``n_a``, a point that ``_maximize`` failed, has no optimum.

    Returns (too_large, cause): ``too_large`` where n_a * m_max overflows,
    which on a link is a distance too near; otherwise n_a is 0 or its
    information per bin underflows, a distance too far.
    """
    if n_a == 0.0:
        return False, "n_a underflows to 0"
    if not _searchable(n_a, m_max):
        return True, f"pulse energy n_a * m_max overflows at n_a = {n_a!r}"
    return False, f"the information per bin underflows at n_a = {n_a!r}"


def _vertex(tri, span):
    """Vertex of the parabola through each row's triple, and the spacing of
    the probes around it.

    ``tri[0]`` holds (a, x, b) in log M and ``tri[1]`` their values (fa,
    fx, fb); span = b - a.  The spacing is _CURVE * h**2, h = max(x - a,
    b - x), held within [_FINE, span / (_ZOOM + 1)].  A triple whose
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
    spacing = np.minimum(np.maximum(curve, _FINE), span / (_ZOOM + 1))
    # x - ((x - a)**2 (fx - fb) - (b - x)**2 (fx - fa)) / 2q, rearranged
    return 0.5 * (tri[0, :, 1] + tri[0, :, 2] + span * down / q), spacing


def _maximize(n_a, n_b, kinds: Sequence[str], scheme: str, m_max=_M_MAX):
    """Maximize mutual information per bin over M at every point of a grid
    (n_a[i], n_b[i]) under each noise kind of ``kinds`` in turn.

    Checks every kind, then every n_b, then ``scheme`` and ``m_max``, and
    raises ValueError on the first bad one; an n_b of -0.0 is read as 0.0.
    The noise kind is data (noise._click_params), so the points of every
    kind share one search.

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
    Rounds end when b - a <= ``_TOL``.  The best value probed wins,
    ties going to the first probed; a point whose bracket is done stays
    frozen while the rest of its block goes on.  It is still probed, which
    costs less than taking it out: on a seed-1 perfbench ``sweep`` (30
    cycles) frozen rows were 4.3% of all evaluations, and probing only
    unfinished points, same bits, left ``sweep`` op time unchanged and made
    ``optimize_M`` (229/233 -> 248/253 us, PPM/OOK) and ``rate_vs_distance``
    (272 -> 294 us) 8% slower on a 2-core host.

    Returns:
        (m_star, mi_per_bin, flag) arrays, one entry per point under each
        kind in turn.  ``flag`` is "failed" where n_a is not > 0 or
        n_a * m_max is not finite (``_searchable``), or where the best
        information per bin is below ``_MI_FLOOR`` while p_b < 1 (where
        p_b rounds to 1, 0 is the right limit); m_star and mi_per_bin are
        NaN there.  Else it is "boundary" where the objective rises from the
        next-to-last grid point to the last; else "ok".
    """
    for kind in kinds:
        if kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}, got {kind!r}")
    # -0.0 passes, but its click probabilities are -0.0 and the kernels divide by them
    n_b = _checked("n_b", n_b) + 0.0
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if not math.isfinite(m_max) or m_max <= _M_MIN[scheme]:
        raise ValueError(f"m_max must exceed {_M_MIN[scheme]}, got {m_max!r}")
    n_a = np.concatenate([np.asarray(n_a, dtype=float)] * len(kinds))
    clicks = np.concatenate([_click_params(kind, n_b) for kind in kinds], axis=1)
    mi = _MI[scheme]
    m_first, near_x, near_col = _scan(scheme, m_max)
    last = len(near_x) - 1
    failed = ~_searchable(n_a, m_max)
    n_a = np.where(failed, 1.0, n_a)
    m_star, mi_star, at_boundary = np.empty_like(n_a), np.empty_like(n_a), np.empty(n_a.shape, bool)

    for start in range(0, n_a.size, _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        n_a_col, clicks_col = n_a[block, None], clicks[:, block, None]
        # (M - 1) log(1 - p_b) overflows to -inf, the right limit, where a
        # Poisson n_b is above about 1.8e299
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            values = mi(m_first, n_a_col, clicks_col)
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
            wide = span > _TOL
            # a round's probes 1 .. _ZOOM, with a and b as probes 0 and _ZOOM + 1:
            # log M in probes[0], values in probes[1]
            probes = np.empty((2, len(values), _ZOOM + 2))
            vertex, spacing = _vertex(tri, span)
            # a best point at an end of the range has no vertex: pack the
            # probes at the finest spacing against that end
            end = (i == 0) | (i == last)
            if end.any():
                vertex[end] = tri[0, end, 1]
                spacing[end] = np.minimum(_FINE, span[end] / (_ZOOM + 1))
            while wide.any():
                probes[:, :, ::_ZOOM + 1] = tri[:, :, ::2]
                # the centre nearest the vertex that keeps every probe inside (a, b)
                inner = tri[0, :, ::2] + spacing[:, None] * _INSET
                centre = np.fmin(np.fmax(vertex, inner[:, 0]), inner[:, 1])
                np.add(centre[:, None], spacing[:, None] * _OFFSETS, out=probes[0, :, 1:-1])
                m = np.exp(probes[0, :, 1:-1])
                probes[1, :, 1:-1] = mi(m, n_a_col, clicks_col)
                j = probes[1, :, 1:-1].argmax(axis=1)
                tri = probes[:, col, j[:, None] + _NEIGHBOURS]
                # only a strict improvement moves the best, so the first probe to reach it stays
                better = wide & (tri[1, :, 1] > mi_best)
                np.copyto(m_best, m[rows, j], where=better)
                np.copyto(mi_best, tri[1, :, 1], where=better)
                span = tri[0, :, 2] - tri[0, :, 0]
                wide &= span > _TOL
                if not wide.any():
                    break  # no round follows, so no vertex is needed
                vertex, spacing = _vertex(tri, span)
        m_star[block], mi_star[block] = m_best, mi_best
    failed |= (mi_star < _MI_FLOOR) & (clicks[0] < 1.0)
    m_star[failed] = mi_star[failed] = np.nan
    return m_star, mi_star, _FLAG_TEXT[np.where(failed, 2, at_boundary)]


def optimize_M(n_a: float, model: NoiseModel, scheme: str, m_max: float = _M_MAX) -> ModulationOptimum:
    """Maximize mutual information per bin over the modulation parameter M.

    The first evaluation scans M = m_min and part of a 240-point
    logarithmic grid over [m_min, m_max]: every 4th point counted down from
    m_max, the first point and the last two.  Vertex rounds then narrow the
    bracket until the peak lies between two probed M whose ratio is at most
    1 + 1e-6.

    Args:
        n_a: average detected signal photons per bin, > 0.
        model: background noise model.
        scheme: "ppm" or "ook".
        m_max: upper end of the search range.

    Returns:
        ModulationOptimum; ``at_boundary`` is set when the objective rises
        from the next-to-last coarse grid point to the last, m_max, meaning
        the range should be widened.

    Raises:
        ValueError: where n_a has no optimum, since n_a * m_max overflows
            or the information per bin underflows (see ``_maximize``).
    """
    if not math.isfinite(n_a) or n_a <= 0.0:
        raise ValueError(f"optimize_M requires n_a > 0, got {n_a!r}")
    m_star, mi, flag = _maximize(np.array([n_a]), np.array([model.n_b]), (model.kind,), scheme, m_max)
    if flag[0] == FLAG_FAILED:
        raise ValueError(_no_optimum(n_a, m_max)[1])
    m, value = float(m_star[0]), float(mi[0])
    return ModulationOptimum(m, pie(value, n_a), value, m * n_a, flag[0] == FLAG_BOUNDARY)


def sweep_pie(
    n_a_grid: Sequence[float],
    n_b_list: Sequence[float],
    model_kinds: Sequence[str],
    scheme: str,
    m_max: float = _M_MAX,
) -> dict[str, np.ndarray]:
    """Optimized efficiency over a (kind, n_b, n_a) grid, searched in one
    batch by ``_maximize``, which checks the kinds, the backgrounds, the
    scheme and m_max.

    ``model_kinds`` is a sequence of noise kinds, such as ["poisson"] or
    ["poisson", "gauss"]; a bare str or an empty sequence is refused.

    Returns columns keyed by name, one entry per point with the kinds in
    the given order and n_b, then n_a, ascending: float64 arrays ``n_a``
    and ``n_b``, the str array ``model``, float64 arrays ``m_star``,
    ``pie`` and ``pulse_energy``, then the str array ``flag``.  A point
    whose optimization fails keeps NaN values and flag "failed"; a point
    whose optimum sits on the m_max bound is flagged "boundary".
    """
    if isinstance(model_kinds, str):
        raise ValueError(f"model_kinds must be a sequence of kinds, not the str {model_kinds!r}")
    if len(model_kinds) == 0:
        raise ValueError("model_kinds must hold at least one kind, got none")
    n_as = np.array(sorted(n_a_grid), dtype=float)
    # + 0.0 writes a background of -0.0 as the 0.0 it is searched at
    n_bs = np.array(sorted(n_b_list), dtype=float) + 0.0
    points = len(n_as) * len(n_bs)
    # the columns hold every kind's points in turn; the search takes one kind's
    n_a = np.tile(n_as, len(n_bs) * len(model_kinds))
    n_b = np.tile(np.repeat(n_bs, len(n_as)), len(model_kinds))
    m_star, mi, flag = _maximize(n_a[:points], n_b[:points], model_kinds, scheme, m_max)
    return {
        "n_a": n_a,
        "n_b": n_b,
        "model": np.repeat(model_kinds, points),
        "m_star": m_star,
        "pie": mi / n_a,
        "pulse_energy": m_star * n_a,
        "flag": flag,
    }
