"""PPM and OOK mutual information from their closed forms in mpmath.

An oracle for the float kernels that shares none of their algebra: the
textbook expressions (a difference of entropies for OOK, q log(q M / s)
terms for PPM), with every click probability and its complement formed
directly, evaluated at rising precision until two precisions agree to 50
digits.  ``optimum`` maximizes that closed form over M on its own.
"""

import mpmath as mp

M_MIN = {"ppm": 2.0, "ook": 1.0}
DIGITS = 50
PRECISIONS = (60, 120, 240, 480, 960)


def _xlogx(x):
    return x * mp.log(x) if x > 0 else mp.mpf(0)


def _closed_form(scheme, kind, m, n_a, n_b):
    # at the current working precision, in bits per bin
    m, n_a, n_b = mp.mpf(m), mp.mpf(n_a), mp.mpf(n_b)
    e = m * n_a
    if kind == "poisson":
        p_b, c_b = -mp.expm1(-n_b), mp.exp(-n_b)
        p_p, c_p = -mp.expm1(-e - n_b), mp.exp(-e - n_b)
    else:
        t = n_b + 1
        p_b, c_b = n_b / t, 1 / t
        p_p, c_p = 1 - mp.exp(-e / t) / t, mp.exp(-e / t) / t
    if scheme == "ook":
        p_on, p_off = 1 / m, (m - 1) / m
        click, dark = p_on * p_p + p_off * p_b, p_on * c_p + p_off * c_b
        h_y = -_xlogx(click) - _xlogx(dark)
        h_y_x = -p_on * (_xlogx(p_p) + _xlogx(c_p)) - p_off * (_xlogx(p_b) + _xlogx(c_b))
        return (h_y - h_y_x) / mp.log(2)
    q_c = p_p * c_b ** (m - 1)
    q_w = c_p * p_b * c_b ** (m - 2)
    s = q_c + (m - 1) * q_w
    if s == 0:
        return mp.mpf(0)
    frame = _xlogx(q_c) + (m - 1) * _xlogx(q_w) - s * mp.log(s / m)
    return frame / m / mp.log(2)


def mi_per_bin(scheme, kind, m, n_a, n_b):
    """Mutual information per bin in bits, correct to ``DIGITS`` digits.

    Below about 1e-60 the closed form cancels to 0 until the precision
    covers its value, so a 0 is only taken from the last two precisions."""
    previous = None
    for dps in PRECISIONS:
        with mp.workdps(dps):
            value = _closed_form(scheme, kind, m, n_a, n_b)
            if previous is not None and abs(value - previous) <= abs(value) * mp.mpf(10) ** -DIGITS:
                if value != 0 or dps == PRECISIONS[-1]:
                    return +value
            previous = value
    raise ArithmeticError(f"no {DIGITS}-digit value for {(scheme, kind, m, n_a, n_b)}")


def optimum(scheme, kind, n_b, n_a, m_max=1e9, scan=31, rel_tol=1e-10):
    """(M*, MI*) by a log-spaced scan of [m_min, m_max] and golden section
    over log M in the two scan cells around the best point.

    Assumes one peak (or a monotone fall from m_min), as the callers'
    points have; M* comes back as an mpf to ``rel_tol``.
    """
    lo, hi = mp.log(M_MIN[scheme]), mp.log(m_max)

    def f(x):
        return mi_per_bin(scheme, kind, mp.exp(x), n_a, n_b)

    xs = [lo + (hi - lo) * i / (scan - 1) for i in range(scan)]
    values = [f(x) for x in xs]
    best = max(range(scan), key=values.__getitem__)
    a, b = xs[max(best - 1, 0)], xs[min(best + 1, scan - 1)]
    inv_phi = (mp.sqrt(5) - 1) / 2
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    f_c, f_d = f(c), f(d)
    while b - a > rel_tol:
        if f_c >= f_d:
            b, d, f_d = d, c, f_c
            c = b - inv_phi * (b - a)
            f_c = f(c)
        else:
            a, c, f_c = c, d, f_d
            d = a + inv_phi * (b - a)
            f_d = f(d)
    x = max((xs[best], (a + b) / 2), key=f)
    return mp.exp(x), f(x)
