"""Independent oracles for every output the benchmark checks.

Nothing here calls into ``photonlink``.  The formulas are re-implemented
from the package documentation:

* click probabilities (``noise`` docstring), evaluated with mpmath at 50
  digits for the optimizer checks and in numpy ``longdouble`` for the 2**k
  receiver click columns;
* simple-decoded PPM and generalized OOK mutual information per bin
  (``modulation`` docstrings), at 50 digits, with every probability and its
  complement computed directly so the oracle itself loses no digits;
* the diffraction-limited link budget and the Shannon/Holevo capacities
  (``linkbudget`` and ``capacity`` docstrings), at 50 digits;
* the structured receiver: energy bookkeeping, the ideal concentration at
  zero phase error, and the closed-form mean ((1 + exp(-s^2/2)) / 2)**k of
  the target-port fraction, with its exact variance for a z-test.

Error budget.  Quantities in bits (mutual information per bin, capacity per
mode) are compared as |got - want| <= BITS_ATOL + BITS_RTOL * |want|: the
float64 formulas subtract entropy terms of order one bit, so below about
1e-12 bit the program cannot resolve a value and only the absolute budget
applies.  Every other quantity must match to EXACT_RTOL.  No comparison
asks for more than float64 can hold: below about 2.2e-308 a float64 is a
multiple of FLOAT64_TINY (2**-1074), so a correctly rounded value there can
be off by half of it, far more than EXACT_RTOL of a value such as a PIE of
1e-317 bit per photon.  FLOAT64_TINY is therefore added to every absolute
budget.  The relative error of every checked value is still recorded, so
precision loss at small n_a or large n_b shows in ``max_rel_err`` even
where it passes the budget.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 50

BITS_ATOL = 1e-12
BITS_RTOL = 1e-9
EXACT_RTOL = 1e-12
PROBE_EPS = 1e-3
STAT_Z = 8.0
FLOAT64_TINY = math.ulp(0.0)

# search range and coarse grid of the optimizer, as documented in optimize_M
M_MAX = 1e9
M_MIN = {"ppm": 2.0, "ook": 1.0}
COARSE_POINTS = 240

# DEFAULT_CONSTANTS of the link budget, which the CLI uses
H_PLANCK = mp.mpf("6.62607015e-34")
C_LIGHT = mp.mpf(3e8)
AU_M = 1.49e11


class Checker:
    """Collects the worst relative error and the misses of one run."""

    def __init__(self) -> None:
        self.max_rel_err = 0.0
        self.worst = ""
        self.values = 0

    def value(self, label, got, want, rtol, atol=0.0) -> str | None:
        """Compare one value; return a miss message or None."""
        self.values += 1
        err = abs(mp.mpf(got) - mp.mpf(want))
        if want != 0:
            rel = float(err / abs(mp.mpf(want)))
            if rel > self.max_rel_err:
                self.max_rel_err = rel
                self.worst = label() if callable(label) else label
        if err <= atol + FLOAT64_TINY + rtol * abs(mp.mpf(want)):
            return None
        name = label() if callable(label) else label
        return f"{name}: got {float(got)!r}, oracle {mp.nstr(want, 17)}"


def _mpf(x) -> mp.mpf:
    return mp.mpf(float(x))


def clicks(kind: str, n_b, e) -> tuple:
    """(p_b, 1 - p_b, p_p, 1 - p_p) at 50 digits."""
    n_b, e = _mpf(n_b), _mpf(e)
    if kind == "poisson":
        return -mp.expm1(-n_b), mp.exp(-n_b), -mp.expm1(-e - n_b), mp.exp(-e - n_b)
    t = n_b + 1
    return n_b / t, 1 / t, (n_b - mp.expm1(-e / t)) / t, mp.exp(-e / t) / t


def _h2(p, q) -> mp.mpf:
    # binary entropy in bits of (p, q), q = 1 - p given to full precision
    if p > q:
        p, q = q, p
    out = mp.mpf(0)
    if p > 0:
        out -= p * mp.log(p) + q * mp.log1p(-p)
    return out / mp.log(2)


def mi_per_bin(scheme: str, kind: str, n_b, m, n_a) -> mp.mpf:
    """Mutual information per bin in bits for PPM or OOK, at 50 digits."""
    m, n_a = _mpf(m), _mpf(n_a)
    p_b, q_b, p_p, q_p = clicks(kind, n_b, m * n_a)
    if scheme == "ook":
        p_on, p_off = 1 / m, (m - 1) / m
        mi = (
            _h2(p_on * p_p + p_off * p_b, p_on * q_p + p_off * q_b)
            - p_on * _h2(p_p, q_p)
            - p_off * _h2(p_b, q_b)
        )
        return max(mi, mp.mpf(0))
    q_c = p_p * q_b ** (m - 1)
    q_w = q_p * p_b * q_b ** (m - 2)
    s = q_c + (m - 1) * q_w
    if s == 0:
        return mp.mpf(0)
    i_frame = mp.mpf(0)
    if q_c > 0:
        i_frame += q_c * mp.log(q_c * m / s, 2)
    if q_w > 0:
        i_frame += (m - 1) * q_w * mp.log(q_w * m / s, 2)
    return max(i_frame / m, mp.mpf(0))


def _boundary_m_floor(scheme: str) -> float:
    # an optimum flagged at the bound was refined inside the last coarse cell
    m_min = M_MIN[scheme]
    return M_MAX * (m_min / M_MAX) ** (1.0 / (COARSE_POINTS - 1)) * (1.0 - 1e-9)


def check_optimum(chk: Checker, scheme, kind, n_b, n_a, m_star, mi_got, boundary) -> list[str]:
    """M* must give the reported MI, and no probe at M*(1 +- eps) may beat it."""
    tag = lambda: f"{scheme}/{kind} n_b={n_b!r} n_a={n_a!r} M*={m_star!r}"  # noqa: E731
    misses = []
    # an M* recovered from the link table's peak power may sit an ulp
    # outside the search range
    if not (math.isfinite(m_star) and M_MIN[scheme] * (1 - 1e-12) <= m_star <= M_MAX * (1 + 1e-12)):
        return [f"{tag()}: M* outside the search range"]
    m_star = min(max(m_star, M_MIN[scheme]), M_MAX)
    want = mi_per_bin(scheme, kind, n_b, m_star, n_a)
    miss = chk.value(lambda: f"mi_per_bin {tag()}", mi_got, want, BITS_RTOL, BITS_ATOL)
    if miss:
        misses.append(miss)
    for m in (m_star * (1.0 + PROBE_EPS), m_star / (1.0 + PROBE_EPS)):
        m = min(max(m, M_MIN[scheme]), M_MAX)
        if m == m_star:
            continue
        probe = mi_per_bin(scheme, kind, n_b, m, n_a)
        if probe - want > BITS_ATOL + BITS_RTOL * want:
            misses.append(f"{tag()}: probe at M={m!r} beats M* by {mp.nstr(probe - want, 5)} bit")
    if boundary and m_star < _boundary_m_floor(scheme):
        misses.append(f"{tag()}: flagged boundary but M* is not in the last coarse cell")
    return misses


def check_modulation_optimum(chk: Checker, scheme, kind, n_b, n_a, opt) -> list[str]:
    """A ModulationOptimum returned by optimize_M."""
    misses = []
    for label, got, want in (
        ("pie_star", opt.pie_star, _mpf(opt.mi_per_bin) / _mpf(n_a)),
        ("pulse_energy", opt.pulse_energy, _mpf(opt.m_star) * _mpf(n_a)),
    ):
        miss = chk.value(label, got, want, EXACT_RTOL)
        if miss:
            misses.append(miss)
    return misses + check_optimum(
        chk, scheme, kind, n_b, n_a, opt.m_star, opt.mi_per_bin, opt.at_boundary
    )


# ---------------------------------------------------------------- link budget


def read_config(path: str) -> dict[str, float]:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, _, text = line.partition("=")
                values[key.strip()] = float(text)
    return values


def eta_ch(cfg: dict, r_m) -> mp.mpf:
    amp = mp.pi * _mpf(cfg["d_t_m"]) * _mpf(cfg["d_r_m"]) * _mpf(cfg["f_c_hz"])
    return (amp / (4 * C_LIGHT * _mpf(r_m))) ** 2


def n_a_budget(cfg: dict, r_m) -> mp.mpf:
    photon = H_PLANCK * _mpf(cfg["f_c_hz"]) * _mpf(cfg["bandwidth_hz"])
    return _mpf(cfg["eta_det"]) * eta_ch(cfg, r_m) * _mpf(cfg["power_w"]) / photon


def _g(x) -> mp.mpf:
    return (x + 1) * mp.log(x + 1, 2) - (x * mp.log(x, 2) if x > 0 else 0)


def shannon_bits(n_a, n_b) -> mp.mpf:
    return mp.log(1 + _mpf(n_a) / (_mpf(n_b) + 1), 2)


def holevo_bits(n_a, n_b) -> mp.mpf:
    return _g(_mpf(n_a) + _mpf(n_b)) - _g(_mpf(n_b))


def check_capacities(chk: Checker, tag, n_a, n_b, bandwidth, shannon_bps, holevo_bps) -> list[str]:
    misses = []
    for name, got, want in (
        ("shannon", shannon_bps, shannon_bits(n_a, n_b)),
        ("holevo", holevo_bps, holevo_bits(n_a, n_b)),
    ):
        miss = chk.value(
            lambda name=name: f"{name} {tag}", _mpf(got) / _mpf(bandwidth), want, BITS_RTOL, BITS_ATOL
        )
        if miss:
            misses.append(miss)
    return misses


def check_distance_row(chk, cfg, kind, scheme, n_b, r_m, n_a, m_star, rate_bps, peak_w, flag) -> list[str]:
    """One optimized link row: budget, optimum and peak power."""
    tag = f"{scheme}/{kind} n_b={n_b!r} r_m={r_m!r}"
    misses = []
    miss = chk.value(f"n_a {tag}", n_a, n_a_budget(cfg, r_m), EXACT_RTOL)
    if miss:
        misses.append(miss)
    bandwidth = _mpf(cfg["bandwidth_hz"])
    # peak power = M* n_a h f B / (eta_det eta_ch)
    watts_per_m = _mpf(n_a) * H_PLANCK * _mpf(cfg["f_c_hz"]) * bandwidth / (
        _mpf(cfg["eta_det"]) * eta_ch(cfg, r_m)
    )
    if m_star is None:
        # the link CSV has no M* column; recover it from the peak power
        m_star = float(_mpf(peak_w) / watts_per_m)
    else:
        miss = chk.value(f"peak_power {tag}", peak_w, _mpf(m_star) * watts_per_m, EXACT_RTOL)
        if miss:
            misses.append(miss)
    if flag not in ("ok", "boundary"):
        return misses + [f"{tag}: flag {flag!r}"]
    misses += check_optimum(
        chk, scheme, kind, n_b, n_a, m_star, _mpf(rate_bps) / bandwidth, flag == "boundary"
    )
    return misses


# ------------------------------------------------------------------ CLI tables


def parse_table(text: str):
    """Split CLI CSV output into (params, columns, data lines)."""
    lines = text.splitlines()
    params = {}
    i = 1  # line 0 names the program, version and command
    while lines[i].startswith("#"):
        key, _, value = lines[i][1:].partition("=")
        params[key.strip()] = value.strip()
        i += 1
    return params, lines[i].split(","), lines[i + 1 :]


def _grid(spec: str) -> list[mp.mpf]:
    start, stop, points = (float(v) for v in spec.split())
    n = int(points)
    if n == 1:
        return [_mpf(start)]
    ratio = _mpf(stop) / _mpf(start)
    return [_mpf(start) * ratio ** (mp.mpf(i) / (n - 1)) for i in range(n)]


def _kinds(choice: str) -> list[str]:
    return ["poisson", "gauss"] if choice == "both" else [choice]


def _exit_code_misses(rc: int, flags: list[str]) -> list[str]:
    want = 1 if any(f != "ok" for f in flags) else 0
    return [] if rc == want else [f"exit code {rc}, expected {want} from the row flags"]


def check_pie_sweep(chk: Checker, tables: list[str], rc: int) -> tuple[list[str], int, int]:
    """Returns (misses, optimized rows, ok rows)."""
    misses, flags = [], []
    for text in tables:
        params, columns, data = parse_table(text)
        scheme = params["scheme"]
        n_b_list = sorted(float(v) for v in params["n_b"].split())
        grid = _grid(params["na_grid"])
        expected = [(k, nb, na) for k in _kinds(params["model"]) for nb in n_b_list for na in grid]
        if len(data) != len(expected):
            misses.append(f"pie-sweep {scheme}: {len(data)} rows, expected {len(expected)}")
            continue
        for line, (kind, n_b, n_a_want) in zip(data, expected):
            cells = dict(zip(columns, line.split(",")))
            n_a, m_star = float(cells["n_a"]), float(cells["m_star"])
            flags.append(cells["flag"])
            if cells["model"] != kind or float(cells["n_b"]) != n_b:
                misses.append(f"pie-sweep {scheme}: row order, got {line!r}")
                continue
            for label, got, want in (
                ("n_a grid", n_a, n_a_want),
                ("pulse_energy", float(cells["pulse_energy"]), _mpf(m_star) * _mpf(n_a)),
            ):
                miss = chk.value(f"{label} {scheme}/{kind}", got, want, EXACT_RTOL)
                if miss:
                    misses.append(miss)
            if cells["flag"] not in ("ok", "boundary"):
                misses.append(f"pie-sweep {scheme}/{kind} n_b={n_b!r} n_a={n_a!r}: flag {cells['flag']!r}")
                continue
            mi_got = _mpf(cells["pie"]) * _mpf(n_a)
            misses += check_optimum(
                chk, scheme, kind, n_b, n_a, m_star, mi_got, cells["flag"] == "boundary"
            )
    return misses + _exit_code_misses(rc, flags), len(flags), flags.count("ok")


def check_link(chk: Checker, text: str, rc: int) -> tuple[list[str], int, int]:
    params, columns, data = parse_table(text)
    cfg = read_config(params["config"])
    n_b = float(params["n_b"])
    schemes = params["schemes"].split()
    grid = _grid(params["r_au_grid"])
    expected = [(k, r) for k in _kinds(params["model"]) for r in grid]
    if len(data) != len(expected):
        return [f"link: {len(data)} rows, expected {len(expected)}"], 0, 0
    misses, flags = [], []
    for line, (kind, r_au_want) in zip(data, expected):
        cells = dict(zip(columns, line.split(",")))
        r_au, n_a = float(cells["r_au"]), float(cells["n_a"])
        if cells["model"] != kind:
            misses.append(f"link: row order, got {line!r}")
            continue
        miss = chk.value("link r_au grid", r_au, r_au_want, EXACT_RTOL)
        if miss:
            misses.append(miss)
        r_m = r_au * AU_M
        for scheme in schemes:
            flags.append(cells[f"flag_{scheme}"])
            misses += check_distance_row(
                chk, cfg, kind, scheme, n_b, r_m, n_a, None,
                float(cells[f"rate_{scheme}_bps"]), float(cells[f"peak_power_{scheme}_w"]),
                cells[f"flag_{scheme}"],
            )
        misses += check_capacities(
            chk, f"link {kind} r_au={r_au!r}", n_a, n_b, cfg["bandwidth_hz"],
            cells["rate_shannon_bps"], cells["rate_holevo_bps"],
        )
    return misses + _exit_code_misses(rc, flags), len(flags), flags.count("ok")


def check_table1(chk: Checker, text: str, rc: int) -> list[str]:
    params, columns, data = parse_table(text)
    misses = [] if rc == 0 else [f"table1 exit code {rc}"]
    configs = {"rf": read_config(params["rf_config"]), "optical": read_config(params["optical_config"])}
    n_b = {"rf": float(params["n_b_rf"]), "optical": float(params["n_b_optical"])}
    if len(data) != 8:
        return misses + [f"table1: {len(data)} rows, expected 8"]
    for line in data:
        cells = dict(zip(columns, line.split(",")))
        regime, quantity = cells["regime"], cells["quantity"]
        cfg = configs[regime]
        computed, reference = float(cells["computed"]), float(cells["reference"])
        n_a = n_a_budget(cfg, cfg["distance_m"])
        tag = f"table1 {quantity} {regime}"
        if quantity == "eta_ch":
            miss = chk.value(tag, computed, eta_ch(cfg, cfg["distance_m"]), EXACT_RTOL)
        elif quantity == "n_a":
            miss = chk.value(tag, computed, n_a, EXACT_RTOL)
        else:
            bits = shannon_bits if quantity.startswith("shannon") else holevo_bits
            miss = chk.value(
                tag, _mpf(computed) / _mpf(cfg["bandwidth_hz"]), bits(n_a, n_b[regime]),
                BITS_RTOL, BITS_ATOL,
            )
        if miss:
            misses.append(miss)
        rel_want = abs(_mpf(computed) - _mpf(reference)) / _mpf(reference)
        miss = chk.value(f"{tag} rel_error", float(cells["rel_error"]), rel_want, EXACT_RTOL)
        if miss:
            misses.append(miss)
    return misses


# -------------------------------------------------------------------- receiver


def _click_p_p(kind: str, n_b: float, energy: np.ndarray) -> np.ndarray:
    # pulsed-bin click probability in 80-bit precision, written as a sum of
    # non-negative terms so that no cancellation occurs
    e = energy.astype(np.longdouble)
    nb = np.longdouble(n_b)
    if kind == "poisson":
        return -np.expm1(-(e + nb))
    t = nb + 1
    return nb / t + (-np.expm1(-e / t)) / t


def _rel_check(chk: Checker, label: str, got: np.ndarray, want: np.ndarray, rtol: float) -> list[str]:
    got = np.asarray(got, dtype=np.longdouble)
    want = np.asarray(want, dtype=np.longdouble)
    err = np.abs(got - want)
    chk.values += got.size
    nz = want != 0
    if np.any(nz):
        rel = err[nz] / np.abs(want[nz])
        worst = float(rel.max())
        if worst > chk.max_rel_err:
            chk.max_rel_err, chk.worst = worst, label
    bad = err > FLOAT64_TINY + rtol * np.abs(want)
    if np.any(bad):
        i = int(np.argmax(bad))
        return [f"{label}: {int(bad.sum())} values off, first at index {i}: got {float(got[i])!r}, want {float(want[i])!r}"]
    return []


def receiver_expectation(k: int, sigma: float) -> tuple[mp.mpf, mp.mpf]:
    """Mean and variance of the target-port fraction prod_i cos^2(phi_i / 2)."""
    s2 = _mpf(sigma) ** 2
    m2 = (1 + mp.exp(-s2 / 2)) / 2
    m4 = (mp.mpf(3) / 2 + 2 * mp.exp(-s2 / 2) + mp.exp(-2 * s2) / 2) / 4
    return m2**k, m4**k - m2 ** (2 * k)


def check_receiver(chk: Checker, text: str, rc: int) -> tuple[list[str], list[str]]:
    """Returns (value misses, statistical misses)."""
    params, columns, data = parse_table(text)
    k, energy = int(params["k"]), float(params["energy"])
    loss, sigma = float(params["loss"]), float(params["phase_sigma"])
    n_b, trials = float(params["n_b"]), int(params["trials"])
    target = int(params["target_bin"])
    mean, std = float(params["concentration_mean"]), float(params["concentration_std"])
    n = 1 << k
    misses = [] if rc == 0 else [f"receiver exit code {rc}"]
    if len(data) != n:
        return misses + [f"receiver: {len(data)} rows, expected {n}"], []
    # numpy's C parser: the same float64 values as float(), without a Python
    # string per cell, so the check does not raise the runner's peak memory
    # above the program's own
    table = np.loadtxt(data, delimiter=",", dtype=np.float64, ndmin=2)
    if table.shape != (n, len(columns)):
        return misses + [f"receiver: table of shape {table.shape}, expected {(n, len(columns))}"], []
    col = {name: table[:, j] for j, name in enumerate(columns)}
    tag = f"receiver k={k} sigma={sigma!r} loss={loss!r}"
    if not np.array_equal(col["bin"], np.arange(n)):
        misses.append(f"{tag}: bin column is not 0..{n - 1}")
    # codebook pattern: one real amplitude of magnitude sqrt(E / 2**k) per bin
    in_e = col["in_re_h"] ** 2 + col["in_re_v"] ** 2
    one_pol = (col["in_re_h"] == 0) != (col["in_re_v"] == 0)
    if not one_pol.all() or col["in_im_h"].any() or col["in_im_v"].any():
        misses.append(f"{tag}: input pattern is not one real amplitude per bin")
    misses += _rel_check(chk, f"in_bin_energy {tag}", in_e, np.full(n, energy / n), EXACT_RTOL)
    out_e = (
        col["out_re_h"].astype(np.longdouble) ** 2 + col["out_im_h"].astype(np.longdouble) ** 2
        + col["out_re_v"].astype(np.longdouble) ** 2 + col["out_im_v"].astype(np.longdouble) ** 2
    )
    misses += _rel_check(chk, f"out_bin_energy {tag}", col["out_bin_energy"], out_e, EXACT_RTOL)
    misses += _rel_check(
        chk, f"out_energy_total {tag}", np.array([out_e.sum()]),
        np.array([np.longdouble(energy) * np.longdouble(loss) ** k]), 1e-9,
    )
    for kind in _kinds(params["model"]):
        misses += _rel_check(
            chk, f"click_prob_{kind} {tag} n_b={n_b!r}", col[f"click_prob_{kind}"],
            _click_p_p(kind, n_b, col["out_bin_energy"]), EXACT_RTOL,
        )
    stat = []
    if sigma == 0.0:
        misses += _rel_check(chk, f"concentration_mean {tag}", np.array([mean]), np.array([1.0]), EXACT_RTOL)
        target_e = np.array([col["out_re_h"][target] ** 2 + col["out_im_h"][target] ** 2])
        misses += _rel_check(
            chk, f"target energy {tag}", target_e, np.array([energy * loss**k]), 1e-9
        )
        if std > 1e-12:
            misses.append(f"{tag}: concentration_std {std!r} at zero phase error")
    else:
        mu, var = receiver_expectation(k, sigma)
        stderr = mp.sqrt(var / trials)
        if abs(mean - mu) > STAT_Z * stderr + 1e-12:
            stat.append(
                f"{tag} trials={trials}: concentration_mean {mean!r} is "
                f"{mp.nstr(abs(mean - mu) / stderr, 3)} standard errors from {mp.nstr(mu, 17)}"
            )
    return misses, stat
