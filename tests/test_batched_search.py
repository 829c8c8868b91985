"""The batched optimizer against the scalar search it replaced, and the
one-path property: array kernels, scalar functions, single optimizations,
sweeps and link rows give the same bits."""

import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlink.linkbudget import AU_M, load_link_params, rate_vs_distance
from photonlink.modulation import _ook_mi, _ppm_mi, ook_mi_per_bin, ppm_mi_per_bin
from photonlink.noise import MODEL_KINDS, NoiseModel, _click_params, _click_probs, click_probs
from photonlink.optimize import OOK, PPM, SCHEMES, _sweep, optimize_M, sweep_pie

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
M_MIN = {PPM: 2.0, OOK: 1.0}
M_MAX = 1e9


def reference_optimize(n_a, model, scheme, m_max=M_MAX, coarse_points=240, rel_tol=1e-6):
    """The scalar search: coarse log scan, then golden section on the log
    axis over the cells around the coarse argmax, one probe at a time.

    Returns (m_star, mi_per_bin, at_boundary).
    """
    mi = ppm_mi_per_bin if scheme == PPM else ook_mi_per_bin

    def f(m):
        return mi(m, n_a, model).mi_per_bin

    m_min = M_MIN[scheme]
    best_m, best_val = m_min, f(m_min)

    def probe(m):
        nonlocal best_m, best_val
        val = f(m)
        if val > best_val:
            best_m, best_val = m, val
        return val

    lo, hi = math.log(m_min), math.log(m_max)
    grid = [math.exp(lo + (hi - lo) * i / (coarse_points - 1)) for i in range(coarse_points)]
    values = [probe(m) for m in grid]
    i_best = max(range(coarse_points), key=values.__getitem__)
    at_boundary = i_best == coarse_points - 1

    a = math.log(grid[max(i_best - 1, 0)])
    b = math.log(grid[min(i_best + 1, coarse_points - 1)])
    tol = math.log1p(rel_tol)
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    f_c = probe(math.exp(c))
    f_d = probe(math.exp(d))
    while b - a > tol:
        if f_c >= f_d:
            b, d, f_d = d, c, f_c
            c = b - (b - a) * _INV_PHI
            f_c = probe(math.exp(c))
        else:
            a, c, f_c = c, d, f_d
            d = a + (b - a) * _INV_PHI
            f_d = probe(math.exp(d))
    probe(math.exp((a + b) / 2.0))
    return best_m, best_val, at_boundary


@pytest.mark.parametrize("n_a", [1e-10, 1e-6, 1e-3, 1.0])
@pytest.mark.parametrize("n_b", [0.0, 1e-6, 1e-2, 1e2])
@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_never_worse_than_the_scalar_search(scheme, kind, n_b, n_a):
    model = NoiseModel(kind, n_b)
    _, ref_mi, ref_boundary = reference_optimize(n_a, model, scheme)
    opt = optimize_M(n_a, model, scheme)
    assert opt.mi_per_bin >= ref_mi - (1e-12 + 1e-9 * abs(ref_mi))
    assert opt.at_boundary == ref_boundary


N_A = st.floats(min_value=1e-10, max_value=1.0)
N_B = st.floats(min_value=0.0, max_value=1e2)


def _m(scheme):
    return st.floats(min_value=M_MIN[scheme], max_value=M_MAX)


@st.composite
def kernel_grids(draw):
    scheme = draw(st.sampled_from(SCHEMES))
    ms = draw(st.lists(_m(scheme), min_size=1, max_size=5))
    n_as = draw(st.lists(N_A, min_size=1, max_size=4))
    n_bs = draw(st.lists(N_B, min_size=1, max_size=3))
    return scheme, draw(st.sampled_from(MODEL_KINDS)), ms, n_as, n_bs


@settings(max_examples=150, deadline=None)
@given(kernel_grids())
def test_broadcast_kernels_equal_the_scalar_functions(case):
    scheme, kind, ms, n_as, n_bs = case
    kernel, scalar = (_ppm_mi, ppm_mi_per_bin) if scheme == PPM else (_ook_mi, ook_mi_per_bin)
    grid = kernel(
        np.array(ms)[:, None, None],
        np.array(n_as)[None, :, None],
        _click_params(kind, np.array(n_bs)[None, None, :]),
    )
    assert grid.shape == (len(ms), len(n_as), len(n_bs))
    for (i, j, k), value in np.ndenumerate(grid):
        assert value == scalar(ms[i], n_as[j], NoiseModel(kind, n_bs[k])).mi_per_bin


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(MODEL_KINDS),
    st.lists(N_B, min_size=1, max_size=4),
    st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=6),
)
def test_broadcast_click_kernel_equals_click_probs(kind, n_bs, energies):
    p_b, p_p = _click_probs(kind, np.array(n_bs)[:, None], np.array(energies)[None, :])
    for i, n_b in enumerate(n_bs):
        for j, e in enumerate(energies):
            probs = click_probs(NoiseModel(kind, n_b), e)
            assert (p_b[i, 0], p_p[i, j]) == (probs.p_b, probs.p_p)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(SCHEMES),
    st.sampled_from(MODEL_KINDS),
    st.lists(N_A, min_size=1, max_size=4),
    st.lists(N_B, min_size=1, max_size=2),
)
def test_sweep_rows_equal_single_optimizations(scheme, kind, n_as, n_bs):
    sweep = {name: column.tolist() for name, column in sweep_pie(n_as, n_bs, kind, scheme).items()}
    assert len(sweep["flag"]) == len(n_as) * len(n_bs)
    for n_a, n_b, m_star, pie, pulse_energy, flag in zip(*sweep.values()):
        opt = optimize_M(n_a, NoiseModel(kind, n_b), scheme)
        assert (m_star, pie, pulse_energy) == (opt.m_star, opt.pie_star, opt.pulse_energy)
        assert flag == ("boundary" if opt.at_boundary else "ok")


CONFIGS = [
    str(resources.files("photonlink").joinpath(f"configs/table1_{name}.cfg")) for name in ("rf", "optical")
]


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(SCHEMES),
    st.sampled_from(MODEL_KINDS),
    st.sampled_from(CONFIGS),
    N_B,
    st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=4),
)
def test_link_rows_equal_single_optimizations(scheme, kind, config, n_b, r_au):
    lp = load_link_params(config)
    model = NoiseModel(kind, n_b)
    rows = rate_vs_distance(lp, model, scheme, [r * AU_M for r in r_au])
    assert len(rows) == len(r_au)
    for row in rows:
        opt = optimize_M(row.n_a, model, scheme)
        assert (row.m_star, row.rate_bps) == (opt.m_star, opt.mi_per_bin * lp.bandwidth_hz)
        assert row.flag == ("boundary" if opt.at_boundary else "ok")


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(SCHEMES),
    st.lists(N_A, min_size=1, max_size=4),
    st.lists(N_B, min_size=1, max_size=3),
)
def test_one_search_over_both_models_equals_one_per_model(scheme, n_as, n_bs):
    # the noise kind is per-point data, so points of both kinds can share
    # a block of the lockstep search and still give each kind's own bits
    both = _sweep(n_as, n_bs, MODEL_KINDS, scheme)
    per_kind = [sweep_pie(n_as, n_bs, kind, scheme) for kind in MODEL_KINDS]
    assert both["model"].tolist() == [kind for kind in MODEL_KINDS for _ in range(len(n_as) * len(n_bs))]
    for name, column in per_kind[0].items():
        assert both[name].tolist() == [x for sweep in per_kind for x in sweep[name].tolist()], name
