"""Channel capacities per temporal mode and photon information efficiency.

Everything here is expressed in terms of the mean detected signal photon
number per mode ``n_a`` and the mean background photon number per mode
``n_b``.  Capacities are in bits per mode, efficiencies in bits per photon.
``pie`` is the package's one definition of the efficiency; the modulation
functions return bits per bin and leave the division to it.
"""

from __future__ import annotations

import math
import sys

from .noise import _checked

LOG2_E = math.log2(math.e)
# subnormal floats keep fewer digits: a term proportional to a photon number
# that small is formed from the number times 2**_SCALE, then scaled back
_SCALE = 600


def g(x: float) -> float:
    """Entropy of a thermal state with mean photon number ``x``, in bits.

    g(x) = (x + 1) log2(x + 1) - x log2(x); g(0) = 0.  Formed as
    log1p(x) + x log1p(1/x) in nats, a sum of two non-negative terms, so
    that large x does not cancel the two logarithms against each other.
    """
    x = _checked("x", x)
    if x == 0.0:
        return 0.0
    inv = 1.0 / x
    # where 1/x overflows (subnormal x), log1p(1/x) = -log(x) to rounding
    tail = -x * math.log(x) if math.isinf(inv) else x * math.log1p(inv)
    return (math.log1p(x) + tail) * LOG2_E


def _shannon(n_a: float, n_b: float) -> float:
    q = n_a / (n_b + 1.0)
    if q >= sys.float_info.min:
        return math.log1p(q) * LOG2_E
    # log1p(q) = q, and a subnormal q has lost digits
    return math.ldexp(math.ldexp(n_a, _SCALE) / (n_b + 1.0) * LOG2_E, -_SCALE)


def shannon_capacity(n_a: float, n_b: float) -> float:
    """Shannon capacity log2(1 + n_a / (n_b + 1)) of the quadrature channel."""
    return _shannon(_checked("n_a", n_a), _checked("n_b", n_b))


def _scaled_h(x: float, a: float) -> float:
    # x * h(a / x) in nats, h(t) = t - log1p(t); tends to a as x -> 0, and
    # is a where a / x overflows, as x * log1p(a / x) is then below a's ulp
    t = a / x if x > 0.0 else math.inf
    return a if math.isinf(t) else x * (t - math.log1p(t))


def holevo_capacity(n_a: float, n_b: float) -> float:
    """Holevo capacity g(n_a + n_b) - g(n_b), the quantum limit per mode.

    Formed without subtracting the two entropies, which cancel when
    n_a << n_b: in nats the difference is
    n_a log1p(1/(n_a + n_b)) + n_b h(n_a/n_b) - (n_b + 1) h(n_a/(n_b + 1))
    with h(t) = t - log1p(t), whose terms are then a small correction.

    That form cancels in turn at n_a >> n_b + 1, where each x h(n_a/x) is
    about n_a.  From n_a >= 1e3 and n_a >= 10 (n_b + 1) on, each
    log1p(n_a/x) is written log n_a - log x + log1p(x/n_a) instead, and
    the x log x terms make g(n_b) in its own cancellation-free form.

    Both forms subtract terms of order n_b: above n_b = 1e2 ``_wide`` takes
    over.  Below n_a = 1e-300 the terms go about as n_a, times 2**_SCALE.
    """
    n_a, n_b = _checked("n_a", n_a), _checked("n_b", n_b)
    if n_a == 0.0:
        return 0.0
    if n_b > 1e2:
        return _wide(n_a, n_b)
    inv = 1.0 / (n_a + n_b)
    # 1/(n_a + n_b) overflows at subnormal totals, where log1p of it is -log(n_a + n_b)
    log1p_inv = -math.log(n_a + n_b) if math.isinf(inv) else math.log1p(inv)
    above = n_b + 1.0
    if n_a >= 1e3 and n_a >= 10.0 * above:
        nats = n_a * log1p_inv
        nats += math.log(n_a) + above * math.log1p(above / n_a) - n_b * math.log1p(n_b / n_a)
        return nats * LOG2_E - g(n_b)
    k = _SCALE if n_a < 1e-300 else 0
    a, b, c = math.ldexp(n_a, k), math.ldexp(n_b, k), math.ldexp(above, k)
    return math.ldexp((a * log1p_inv + _scaled_h(b, a) - _scaled_h(c, a)) * LOG2_E, -k)


def _wide(n_a: float, n_b: float) -> float:
    """Holevo capacity in bits at n_b > 1e2, where n_b + 1 may round to n_b.

    (x + 1) log1p(a/(x + 1)) - x log1p(a/x) = log1p(a/(x + 1)) +
    x log1p(-a/((x + 1)(x + a))), so in nats the capacity is the Shannon
    capacity log1p(n_a/(n_b + 1)) plus the gap n_a log1p(1/(n_a + n_b)) +
    n_b log1p(-r/(n_b + 1)) >= 0, r = n_a/(n_a + n_b), terms about r and -r.
    """
    shannon = _shannon(n_a, n_b)
    if n_a < 1e-17 * n_b:
        # C = n_a log1p(1/n_b) to relative n_a / (2 n_b), one rounding; it
        # and the Shannon capacity agree to rounding from n_b = 2**53 on
        return max(n_a * (math.log1p(1.0 / n_b) * LOG2_E), shannon)
    above = n_b + 1.0
    total = n_a + n_b
    # n_a + n_b may overflow
    r = n_a / total if math.isfinite(total) else 1.0 / (1.0 + n_b / n_a)
    # x log1p(1/x) = 1 - 1/(2x) to rounding from x = 2**53 on
    first = n_a * math.log1p(1.0 / total) if total < 2.0**53 else r
    y = r / above
    # log1p(-y) = -y to rounding below y = 1e-16
    last = n_b * math.log1p(-y) if y > 1e-16 else -r * (n_b / above)
    return shannon + max(first + last, 0.0) * LOG2_E


def pie(capacity_bits: float, n_a: float) -> float:
    """Photon information efficiency: bits per detected signal photon."""
    return capacity_bits / _checked("n_a", n_a, strict=True)


def holevo_pie_asymptote(n_b: float) -> float:
    """n_a -> 0 limit of the Holevo efficiency: log2(1 + 1/n_b).

    Diverges as the background vanishes; requires n_b > 0.
    """
    n_b = _checked("n_b", n_b, strict=True)
    # where 1/n_b overflows (subnormal n_b), log1p(1/n_b) = -log(n_b) to rounding
    return (-math.log(n_b) if math.isinf(1.0 / n_b) else math.log1p(1.0 / n_b)) * LOG2_E


def shannon_pie_asymptote(n_b: float) -> float:
    """n_a -> 0 limit of the Shannon efficiency: log2(e) / (1 + n_b)."""
    return LOG2_E / (1.0 + _checked("n_b", n_b))
