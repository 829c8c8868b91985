"""Optimization of the modulation parameter M for PPM and OOK.

The photon information efficiency is maximized over the continuous frame
length / inverse duty cycle M at fixed n_a.  Since pie = mi_per_bin / n_a at
fixed n_a, maximizing efficiency and maximizing mutual information per bin
are the same problem.

The search is deterministic: a coarse scan on a logarithmic grid locates the
basin, golden-section iterations refine it.  Every point of a grid is
searched in lockstep by one array search, so a single point and a whole
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

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_M_MIN = {PPM: 2.0, OOK: 1.0}
_MI = {PPM: _ppm_mi, OOK: _ook_mi}
# golden-section steps whose probes, over all branches, share one evaluation
_LOOKAHEAD = 5
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


def _golden_tree(depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of every branch of ``depth`` golden-section steps.

    A step keeps [a, d] and probes a new c when f_c >= f_d, else keeps
    [c, b] and probes a new d.  Node 0 is the current bracket, node n has
    the children 2n + 1 (kept [a, d]) and 2n + 2 (kept [c, b]).  Log M
    positions are the columns [a, b, c, d, x_1, ..., x_N] of one array, x_n
    the probe reaching node n, and values the columns [f_c, f_d, v_1, ...].
    Per node: the columns of its (a, b, c, d), of its (f_c, f_d), and the
    (base, other) of its probe x_n = base + (other - base) * _INV_PHI.
    """
    n_nodes = 2 ** (depth + 1) - 1
    pos, val, ends = (np.zeros((n_nodes, k), dtype=np.intp) for k in (4, 2, 2))
    pos[0], val[0] = (0, 1, 2, 3), (0, 1)
    for n in range(1, n_nodes):
        (a, b, c, d), (f_c, f_d) = pos[(n - 1) // 2], val[(n - 1) // 2]
        if n % 2:
            pos[n], val[n], ends[n] = (a, d, 3 + n, c), (1 + n, f_c), (d, a)
        else:
            pos[n], val[n], ends[n] = (c, b, d, 3 + n), (f_d, 1 + n), (c, b)
    return pos, val, ends


_TREE_POS, _TREE_VAL, _TREE_ENDS = _golden_tree(_LOOKAHEAD)
_TREE_LEFT = 2 * np.arange(len(_TREE_POS)) + 1
_TREE_LEVELS = [  # (probe columns, base columns, other columns) per level
    (slice(2**k + 2, 2 ** (k + 1) + 2), *_TREE_ENDS[2**k - 1 : 2 ** (k + 1) - 1].T)
    for k in range(1, _LOOKAHEAD + 1)
]


def _golden_steps(probe, abcd: np.ndarray, f: np.ndarray | None, tol: float):
    """The next ``_LOOKAHEAD`` golden-section steps of every point.

    ``abcd`` holds each bracket (a, b) and its interior points (c, d) on the
    log M axis, ``f`` the values at c and d, or None to probe them here.
    The probes of every branch are evaluated in one call, then each point
    follows the branches it takes, so its path is that of one step at a
    time.  A point stops once b - a <= tol.  Returns the new (abcd, f) and
    the M and value of each probe in order, -inf for the ones not taken.
    """
    rows = np.arange(len(abcd))
    rows_col = rows[:, None]
    pos = np.empty((len(abcd), len(_TREE_POS) + 3))
    pos[:, :4] = abcd
    for cols, base, other in _TREE_LEVELS:
        pos[:, cols] = pos[:, base] + (pos[:, other] - pos[:, base]) * _INV_PHI
    m = np.exp(pos[:, 2:] if f is None else pos[:, 4:])
    values = probe(m)
    if f is None:
        f = values[:, :2]
    ext = np.concatenate((f, values[:, -len(_TREE_POS) + 1 :]), axis=1)
    child = _TREE_LEFT + (ext[:, _TREE_VAL[:, 0]] < ext[:, _TREE_VAL[:, 1]])
    wide = pos[:, _TREE_POS[:, 1]] - pos[:, _TREE_POS[:, 0]] > tol
    path = np.zeros((len(abcd), _LOOKAHEAD + 1), dtype=np.intp)
    for k in range(_LOOKAHEAD):
        path[:, k + 1] = child[rows, path[:, k]]
    # a step is taken while every bracket before it is still wide
    stepping = np.logical_and.accumulate(wide[rows_col, path], axis=1)[:, :-1]
    probed = m.shape[1] - len(_TREE_POS) + path[:, 1:]
    m = np.concatenate((m[:, :-len(_TREE_POS) + 1], m[rows_col, probed]), axis=1)
    taken = np.where(stepping, values[rows_col, probed], -np.inf)
    values = np.concatenate((values[:, : -len(_TREE_POS) + 1], taken), axis=1)
    last = path[rows, stepping.sum(axis=1)]
    return pos[rows_col, _TREE_POS[last]], ext[rows_col, _TREE_VAL[last]], m, values


def _maximize(n_a, n_b, kind: str, scheme: str, m_max=1e9, coarse_points=240, rel_tol=1e-6):
    """Maximize mutual information per bin over M at every (n_a[i], n_b[i]).

    Points are searched in lockstep, ``_BLOCK_POINTS`` at a time: M = m_min
    and the coarse log grid in one evaluation, then golden-section steps on
    the log axis around each coarse argmax until the bracket is narrower
    than ``rel_tol``, then the bracket midpoint.  The best value probed
    wins, ties going to the first probed.  Arguments are checked by callers.

    Returns:
        (m_star, mi_per_bin, at_boundary, failed) arrays.  ``at_boundary``
        means the coarse argmax is the last grid cell; ``failed`` marks a
        point whose n_a is not > 0 or whose n_a * m_max is not finite, and
        its other entries are meaningless.
    """
    mi = _MI[scheme]
    m_min = _M_MIN[scheme]
    lo, hi = math.log(m_min), math.log(m_max)
    m_grid = np.exp(lo + (hi - lo) * np.arange(coarse_points) / (coarse_points - 1))
    m_first = np.concatenate(([m_min], m_grid))
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

        def probe(m: np.ndarray) -> np.ndarray:
            return mi(m, n_a_col, kind, n_b_col)

        values = probe(m_first)
        # every probe's M and value in probe order (-inf if not taken)
        ms, vs = [np.broadcast_to(m_first, values.shape)], [values]
        i = values[:, 1:].argmax(axis=1)
        at_boundary[block] = i == coarse_points - 1
        a = np.log(m_grid[np.maximum(i - 1, 0)])
        b = np.log(m_grid[np.minimum(i + 1, coarse_points - 1)])
        abcd = np.stack((a, b, b - (b - a) * _INV_PHI, a + (b - a) * _INV_PHI), axis=1)
        f = None
        while f is None or (abcd[:, 1] - abcd[:, 0] > tol).any():
            abcd, f, m, values = _golden_steps(probe, abcd, f, tol)
            ms.append(m)
            vs.append(values)
        m = np.exp((abcd[:, 0] + abcd[:, 1]) / 2.0)[:, None]
        ms.append(m)
        vs.append(probe(m))
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
        rel_tol: relative width of the final golden-section bracket, > 0;
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
