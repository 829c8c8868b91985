"""The batched optimizer against the scalar search it replaced, and the
one-path property: array kernels, scalar functions, single optimizations,
sweeps and link rows give the same bits."""

import math
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlink.linkbudget import AU_M, load_link_params, rate_vs_distance
from photonlink.modulation import _ook_mi, _ppm_mi, ook_mi_per_bin, ppm_mi_per_bin
from photonlink.noise import MODEL_KINDS, NoiseModel, _click_params, click_probs
from photonlink.optimize import OOK, PPM, SCHEMES, optimize_M, sweep_pie

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
        return mi(m, n_a, model)

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
        assert value == scalar(ms[i], n_as[j], NoiseModel(kind, n_bs[k]))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(MODEL_KINDS),
    st.lists(N_B, min_size=1, max_size=4),
    st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=6),
)
def test_click_probs_of_an_array_equals_the_float_calls(kind, n_bs, energies):
    for n_b in n_bs:
        model = NoiseModel(kind, n_b)
        p_b, p_p = click_probs(model, np.array(energies))
        assert [(p_b, p) for p in p_p.tolist()] == [click_probs(model, e) for e in energies]


EDGE_ENERGIES = [0.0, 5e-324, 1e-300, 1.0, 1e300]


@pytest.mark.parametrize("n_b", [0.0, 5e-324, 1e-2, 37.0, 1e300])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_click_probs_of_1d_and_2d_arrays_keep_the_float_bits(kind, n_b):
    model = NoiseModel(kind, n_b)
    row = np.array(EDGE_ENERGIES)
    for energies in (row, np.stack([row, row[::-1]])):
        p_b, p_p = click_probs(model, energies)
        assert type(p_b) is float and p_p.shape == energies.shape
        pairs = [click_probs(model, e) for e in energies.ravel().tolist()]
        assert all(type(q_b) is float and type(q_p) is float for q_b, q_p in pairs)
        assert (np.array([q_b for q_b, _ in pairs]).view(np.int64) == np.array(p_b).view(np.int64)).all()
        assert (np.array([q_p for _, q_p in pairs]).view(np.int64) == p_p.ravel().view(np.int64)).all()


MI_FUNCTIONS = {PPM: ppm_mi_per_bin, OOK: ook_mi_per_bin}
EDGE_BACKGROUNDS = [0.0, 5e-324, 1e-2, 37.0, 1e2, 1e300]
GRID_M = {PPM: [2.0, 3.5, 101.0, 1e9], OOK: [1.0, 1.5, 101.0, 1e9]}
GRID_N_A = [0.0, 5e-324, 1e-10, 1e-3, 1.0]


@pytest.mark.parametrize("n_b", EDGE_BACKGROUNDS)
@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_mi_of_1d_and_2d_grids_keeps_the_float_bits(scheme, kind, n_b):
    mi, model = MI_FUNCTIONS[scheme], NoiseModel(kind, n_b)
    ms, n_as = np.array(GRID_M[scheme]), np.array(GRID_N_A)
    grids = [(ms, n_as[3]), (ms[0], n_as), (ms, n_as[1:]), (ms[:, None], n_as), (ms.reshape(2, 2), n_as[1:3])]
    for m, n_a in grids:
        values = mi(m, n_a, model)
        assert values.shape == np.broadcast_shapes(np.shape(m), np.shape(n_a))
        points = zip(*(a.ravel().tolist() for a in np.broadcast_arrays(m, n_a)))
        floats = [mi(m_i, n_a_i, model) for m_i, n_a_i in points]
        assert all(type(value) is float for value in floats)
        assert (np.array(floats).view(np.int64) == values.ravel().view(np.int64)).all()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_mi_of_a_float_is_a_float_and_of_an_empty_array_is_empty(scheme):
    mi, model = MI_FUNCTIONS[scheme], NoiseModel("gauss", 1e-2)
    assert type(mi(3.0, 1e-3, model)) is float
    assert type(mi(np.float64(3.0), np.array(1e-3), model)) is float
    assert mi(np.array([]), 1e-3, model).shape == (0,)
    assert mi(3.0, np.array([]), model).shape == (0,)


@pytest.mark.parametrize(
    "m, n_a, message",
    [
        ([3.0, math.nan], 0.1, "M must be finite and >= {m_min}, got nan"),
        ([3.0, math.inf], 0.1, "M must be finite and >= {m_min}, got inf"),
        (-1, 0.1, "M must be finite and >= {m_min}, got -1.0"),
        ([[3.0, 4.0], [0.5, -2.0]], 0.1, "M must be finite and >= {m_min}, got 0.5"),
        (3.0, [0.1, -0.5], "n_a must be finite and >= 0, got -0.5"),
        (3.0, [[0.1], [math.nan]], "n_a must be finite and >= 0, got nan"),
        ([3.0], -math.inf, "n_a must be finite and >= 0, got -inf"),
    ],
)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_mi_names_the_first_bad_entry_as_a_float(scheme, m, n_a, message):
    with pytest.raises(ValueError) as excinfo:
        MI_FUNCTIONS[scheme](np.array(m), np.array(n_a), NoiseModel("poisson", 0.0))
    assert str(excinfo.value) == message.format(m_min=M_MIN[scheme])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_mi_below_the_least_m_names_it(scheme):
    below = math.nextafter(M_MIN[scheme], 0.0)
    with pytest.raises(ValueError) as excinfo:
        MI_FUNCTIONS[scheme]([M_MIN[scheme], below], 1e-3, NoiseModel("gauss", 1.0))
    assert str(excinfo.value) == f"M must be finite and >= {M_MIN[scheme]}, got {below!r}"


@pytest.mark.parametrize("scheme", SCHEMES)
def test_mi_at_the_largest_poisson_background_raises_no_warning(scheme):
    # (M - 1) log(1 - p_b) overflows to -inf there, which is the right limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = MI_FUNCTIONS[scheme](np.array(GRID_M[scheme])[:, None], GRID_N_A, NoiseModel("poisson", 1e300))
    assert (values == 0.0).all()


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(SCHEMES),
    st.sampled_from(MODEL_KINDS),
    st.lists(N_A, min_size=1, max_size=4),
    st.lists(N_B, min_size=1, max_size=2),
)
def test_sweep_rows_equal_single_optimizations(scheme, kind, n_as, n_bs):
    sweep = {name: column.tolist() for name, column in sweep_pie(n_as, n_bs, [kind], scheme).items()}
    assert len(sweep["flag"]) == len(n_as) * len(n_bs)
    for n_a, n_b, model, m_star, pie, pulse_energy, flag in zip(*sweep.values()):
        assert model == kind
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
    both = sweep_pie(n_as, n_bs, MODEL_KINDS, scheme)
    per_kind = [sweep_pie(n_as, n_bs, [kind], scheme) for kind in MODEL_KINDS]
    assert list(both) == list(per_kind[0])
    for name, column in both.items():
        assert column.tolist() == [x for sweep in per_kind for x in sweep[name].tolist()], name
