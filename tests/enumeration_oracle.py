"""Simple-decoded PPM mutual information by exhaustive enumeration.

An oracle for ``modulation.ppm_mi_per_bin`` that shares none of its
algebra: it walks every click pattern of a frame, so it is exponential in
the frame length and kept here, beside ``mp_reference``, for the tests.
"""

import numpy as np

from photonlink.noise import NoiseModel, click_probs


def ppm_mi_enumeration_oracle(m: int, n_a: float, model: NoiseModel) -> float:
    """Simple-decoded PPM mutual information in bits per frame, by
    exhaustive enumeration; m an integer in [2, 12], n_a >= 0.

    Walks all 2**m click patterns for every pulse position, applies the
    single-click decoding rule and evaluates the mutual information of the
    resulting (position, decision) joint distribution.  Exponential in m,
    intended as an independent cross-check of ``ppm_mi_per_bin``.
    """
    # the range first: int() raises its own errors for inf and nan
    if not 2 <= m <= 12 or int(m) != m:
        raise ValueError(f"enumeration oracle requires integer 2 <= m <= 12, got {m!r}")
    m = int(m)
    # click_probs refuses an n_a that is not finite and >= 0
    p_b, p_p = click_probs(model, m * n_a)

    clicks = ((np.arange(2**m)[:, None] >> np.arange(m)[None, :]) & 1).astype(bool)
    single = clicks.sum(axis=1) == 1
    click_pos = np.argmax(clicks, axis=1)

    # joint distribution over (pulse position, decoder output); column m is erasure
    joint = np.zeros((m, m + 1))
    for i in range(m):
        per_bin = np.full(m, p_b)
        per_bin[i] = p_p
        pattern_prob = np.prod(np.where(clicks, per_bin, 1.0 - per_bin), axis=1)
        for y in range(m):
            joint[i, y] = pattern_prob[single & (click_pos == y)].sum()
        joint[i, m] = pattern_prob[~single].sum()
    joint /= m

    product = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    mass = joint > 0.0
    return max(float(np.sum(joint[mass] * np.log2(joint[mass] / product[mass]))), 0.0)
