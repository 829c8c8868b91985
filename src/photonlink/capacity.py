"""Channel capacities per temporal mode and photon information efficiency.

Everything here is expressed in terms of the mean detected signal photon
number per mode ``n_a`` and the mean background photon number per mode
``n_b``.  Capacities are in bits per mode, efficiencies in bits per photon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LOG2_E = math.log2(math.e)


def _log2_1p(u: float) -> float:
    # log2(1 + u) without cancellation for u near 0
    return math.log1p(u) * LOG2_E


@dataclass(frozen=True)
class PhotonNumbers:
    """Mean detected photon numbers per mode: ``n_a`` signal, ``n_b`` background."""

    n_a: float
    n_b: float

    def __post_init__(self) -> None:
        for name in ("n_a", "n_b"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def g(x: float) -> float:
    """Entropy of a thermal state with mean photon number ``x``, in bits.

    g(x) = (x + 1) log2(x + 1) - x log2(x); g(0) = 0.  Formed as
    log1p(x) + x log1p(1/x) in nats, a sum of two non-negative terms, so
    that large x does not cancel the two logarithms against each other.
    """
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"g requires x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    inv = 1.0 / x
    # where 1/x overflows (subnormal x), log1p(1/x) = -log(x) to rounding
    tail = -x * math.log(x) if math.isinf(inv) else x * math.log1p(inv)
    return (math.log1p(x) + tail) * LOG2_E


def shannon_capacity(pn: PhotonNumbers) -> float:
    """Shannon capacity log2(1 + n_a / (n_b + 1)) of the quadrature channel."""
    return _log2_1p(pn.n_a / (pn.n_b + 1.0))


def _scaled_h(x: float, a: float) -> float:
    # x * h(a / x) in nats, h(t) = t - log1p(t); tends to a as x -> 0, and
    # is a where a / x overflows, as x * log1p(a / x) is then below a's ulp
    t = a / x if x > 0.0 else math.inf
    return a if math.isinf(t) else x * (t - math.log1p(t))


def holevo_capacity(pn: PhotonNumbers) -> float:
    """Holevo capacity g(n_a + n_b) - g(n_b), the quantum limit per mode.

    Formed without subtracting the two entropies, which cancel when
    n_a << n_b: in nats the difference is
    n_a log1p(1/(n_a + n_b)) + n_b h(n_a/n_b) - (n_b + 1) h(n_a/(n_b + 1))
    with h(t) = t - log1p(t), whose terms are then a small correction.

    That form cancels in turn at n_a >> n_b + 1, where each x h(n_a/x) is
    about n_a.  From n_a >= 1e3 and n_a >= 10 (n_b + 1) on, each
    log1p(n_a/x) is written log n_a - log x + log1p(x/n_a) instead, and
    the x log x terms make g(n_b) in its own cancellation-free form.
    """
    n_a, n_b = pn.n_a, pn.n_b
    if n_a == 0.0:
        return 0.0
    nats = n_a * math.log1p(1.0 / (n_a + n_b))
    above = n_b + 1.0
    if n_a >= 1e3 and n_a >= 10.0 * above:
        nats += math.log(n_a) + above * math.log1p(above / n_a) - n_b * math.log1p(n_b / n_a)
        return nats * LOG2_E - g(n_b)
    return (nats + _scaled_h(n_b, n_a) - _scaled_h(above, n_a)) * LOG2_E


def pie(capacity_bits: float, n_a: float) -> float:
    """Photon information efficiency: bits per detected signal photon."""
    if not math.isfinite(n_a) or n_a <= 0.0:
        raise ValueError(f"pie requires n_a > 0, got {n_a!r}")
    return capacity_bits / n_a


def holevo_pie_asymptote(n_b: float) -> float:
    """n_a -> 0 limit of the Holevo efficiency: log2(1 + 1/n_b).

    Diverges as the background vanishes; requires n_b > 0.
    """
    if not math.isfinite(n_b) or n_b <= 0.0:
        raise ValueError(f"holevo_pie_asymptote requires n_b > 0, got {n_b!r}")
    return _log2_1p(1.0 / n_b)


def shannon_pie_asymptote(n_b: float) -> float:
    """n_a -> 0 limit of the Shannon efficiency: log2(e) / (1 + n_b)."""
    if not math.isfinite(n_b) or n_b < 0.0:
        raise ValueError(f"shannon_pie_asymptote requires n_b >= 0, got {n_b!r}")
    return LOG2_E / (1.0 + n_b)
