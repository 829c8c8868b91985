"""Jones-calculus simulation of a structured pulse-concentration receiver.

A receiver of ``k`` cascaded modules acts on classical field patterns that
occupy 2**k time bins in two polarizations; a field is a complex (2, 2**k)
ndarray whose rows ``field[H]`` and ``field[V]`` are the two polarizations.
Module ``i`` delays the V component by 2**(k-i) bins (cyclically, with an
optional phase error on the delayed arm), then mixes the polarizations on a
half-wave plate:

    (H, V) -> ((H + V)/sqrt(2), (H - V)/sqrt(2))

and finally scales the field by sqrt(loss).  For each target bin there is a
binary-phase input pattern of uniform per-bin energy that the lossless,
error-free cascade concentrates into a single bin in the H polarization;
those patterns form an orthogonal codebook.

Consecutive patterns on a real transmitter must be separated by at least
the pattern length (the cyclic delays otherwise wrap one pattern into the
next); that scheduling constraint is not modelled here.
"""

from __future__ import annotations

import math
import re
import sys

import numpy as np

from .noise import _checked

H = 0
V = 1

# the most modules, the range the tests cover; a field holds 2**k bins, so
# the bound turns a mistyped k into a ValueError before numpy allocates one
MAX_K = 16

_SQRT_HALF = math.sqrt(0.5)


class PatternFormatError(ValueError):
    """Raised on malformed field-pattern files."""


def _checked_k(k) -> int:
    # a whole float or a bool is returned as the int it equals, which shifts
    # and ranges need; the bound comes first, so inf and nan never reach %
    if not (isinstance(k, (int, float, np.integer, np.floating)) and 1 <= k <= MAX_K and k % 1 == 0):
        raise ValueError(f"k must be an integer >= 1 and <= {MAX_K}, got {k!r}")
    return int(k)


def _module(field: np.ndarray, spare: np.ndarray, delay: int, phase: float, loss: float) -> None:
    """One module in place on a field, arguments unchecked: the V arm's
    cyclic delay by ``delay`` bins with phase error ``phase`` (rad), the
    half-wave plate, then the power transmission ``loss``.

    ``field[H]`` and ``field[V]`` are each contiguous, and ``spare`` is a
    complex (n_bins,) work array.  The delayed, phase-shifted V arm goes
    into ``spare`` by two slice products, then the half-wave plate and the
    loss overwrite H and V; no array is allocated.
    Each product and sum is the one that a step written with ``np.roll``
    and ``np.column_stack`` makes, in the same order, so the bits, signed
    zeros too, are the same: keep the product by ``exp(1j * phase)`` even
    at phase 0, where it turns some -0.0 parts into +0.0.
    """
    h, v = field
    rotation = np.exp(1j * phase)
    np.multiply(v[-delay:], rotation, out=spare[:delay])
    np.multiply(v[:-delay], rotation, out=spare[delay:])
    np.subtract(h, spare, out=v)
    h += spare
    scale = _SQRT_HALF * math.sqrt(loss)
    h *= scale
    v *= scale


def _field_k(field: np.ndarray) -> int:
    """k of a finite field of shape (2, 2**k), 1 <= k <= MAX_K; ValueError for any other."""
    n = field.shape[-1] if field.ndim else 0
    if field.shape != (2, n) or n < 1 or n & (n - 1):
        raise ValueError(f"field must have shape (2, 2**k), got {field.shape}")
    try:
        k = _checked_k(n.bit_length() - 1)
    except ValueError as exc:
        raise ValueError(f"field must have shape (2, 2**k), got {field.shape}: {exc}") from None
    if not np.isfinite(field).all():
        raise ValueError("amplitudes must be finite")
    return k


def apply_receiver(
    field: np.ndarray, per_module_loss: float = 1.0, phase_error_sigma: float = 0.0, rng_seed: int = 0
) -> np.ndarray:
    """Run a field through a cascade of k modules, k read from its width.

    ``field`` must be finite with shape (2, 2**k); it is copied once and
    left as it is.  Every argument is checked before the cascade runs.
    Module ``i`` (1-based) uses delay 2**k / 2**i, so the last module has
    delay 1, and transmits ``per_module_loss`` of the power.  Its phase
    error is draw ``i - 1`` of one normal stream of spread
    ``phase_error_sigma`` seeded with ``rng_seed``; sigma = 0 gives the
    ideal phases exactly.
    """
    field = np.array(field, dtype=np.complex128, order="C")
    k = _field_k(field)
    if not 0.0 < per_module_loss <= 1.0:
        raise ValueError(f"per_module_loss must be in (0, 1], got {per_module_loss!r}")
    phase_error_sigma = _checked("phase_error_sigma", phase_error_sigma)
    if not isinstance(rng_seed, (int, np.integer)) or rng_seed < 0:
        raise ValueError(f"rng_seed must be an integer >= 0, got {rng_seed!r}")
    phases = np.random.default_rng(rng_seed).normal(0.0, phase_error_sigma, k)
    if not np.all(np.isfinite(phases)):
        raise ValueError(
            f"phase_error_sigma = {phase_error_sigma!r} is too large: a phase draw overflowed"
        )
    n = 1 << k
    spare = np.empty(n, dtype=np.complex128)
    for i in range(1, k + 1):
        _module(field, spare, n >> i, phases[i - 1], per_module_loss)
    return field


def make_pattern(k: int, target_bin: int, total_energy: float = 1.0) -> np.ndarray:
    """Codebook field, complex (2, 2**k), that the ideal ``k``-module
    cascade concentrates into (``target_bin``, H).

    Built by pushing a single H-polarized pulse backwards through the exact
    inverse cascade, in place on two real arrays and one spare: each stage
    is the half-wave plate, then the V arm's cyclic advance as two slice
    copies.  The result has one occupied polarization per bin with
    amplitude +-sqrt(total_energy / 2**k); a per-bin energy below the
    smallest normal float is refused, since its amplitudes would lose their
    digits or read 0.
    """
    k = _checked_k(k)
    n = 1 << k
    # the range first: int() raises its own errors for inf and nan
    if not 0 <= target_bin < n or int(target_bin) != target_bin:
        raise ValueError(f"target_bin must be an integer in [0, {n}), got {target_bin!r}")
    total_energy = _checked("total_energy", total_energy, strict=True)
    per_bin = total_energy / n
    if per_bin < sys.float_info.min:
        raise ValueError(
            f"total_energy = {total_energy!r} is too small for k = {k}: "
            "the energy per bin underflows"
        )

    # run the inverse cascade on integer signs; every intermediate state
    # keeps exactly one occupied polarization per bin, so the common factor
    # (1/sqrt(2))**k can be applied once at the end
    h, v = np.zeros((2, n))
    spare = np.empty(n)
    h[int(target_bin)] = 1.0
    for stage in range(k, 0, -1):
        # the half-wave plate is its own inverse
        np.subtract(h, v, out=spare)
        h += v
        advance = n >> stage
        v[:-advance] = spare[advance:]
        v[-advance:] = spare[:advance]
    field = np.zeros((2, n), dtype=np.complex128)
    amp_scale = math.sqrt(per_bin)
    np.multiply(h, amp_scale, out=field[H].real)
    np.multiply(v, amp_scale, out=field[V].real)
    return field


def concentration_efficiency(k: int, phase_error_sigma: float) -> tuple[float, float]:
    """Exact (mean, std) of the energy fraction reaching the target port of
    ``k`` modules with phase errors of spread ``phase_error_sigma``.

    In one realization module ``i``'s two arms interfere with relative
    phase error phi_i ~ N(0, sigma**2), so a codebook pattern sends exactly
    prod_i cos^2(phi_i / 2) of the output energy into its designed port
    (target bin, H), whatever the target bin, total energy and uniform
    per-module loss.  The k factors are independent, and E cos(j phi) =
    e**(j**2) with e = exp(-sigma**2 / 2) gives each the mean m2 = (1 + e) / 2
    and second moment m4 = (3 + 4e + e**4) / 8, so the fraction has mean
    m2**k and variance m4**k - m2**(2k).  With g = m2 - 1 = expm1(-sigma**2
    / 2) / 2 and u**2 = m4 / m2**2 - 1 = expm1(-sigma**2)**2 / (8 m2**2),
    both are formed without cancellation: mean = exp(k log1p(g)) and
    std = mean u sqrt(expm1(k log1p(u**2)) / u**2).  u**2 is held at or
    above the smallest normal float, where that root is already sqrt(k) to
    the last digit, so a tiny u cannot underflow to a wrong std.
    """
    k = _checked_k(k)
    phase_error_sigma = _checked("phase_error_sigma", phase_error_sigma)
    # sigma ** 2 would raise OverflowError above 1.3e154
    s2 = phase_error_sigma * phase_error_sigma
    g = math.expm1(-s2 / 2.0) / 2.0
    mean = math.exp(k * math.log1p(g))
    u = -math.expm1(-s2) / (math.sqrt(8.0) * (1.0 + g))
    u2 = max(u * u, sys.float_info.min)
    return mean, mean * u * math.sqrt(math.expm1(k * math.log1p(u2)) / u2)


_HEADER_RE = re.compile(
    r"#\s*k\s*=\s*(\d+)\s+energy\s*=\s*([0-9.eE+-]+)\s*$"
)


def _energy(bins: np.ndarray) -> float:
    """sum(|amp|**2) of a C-ordered complex (n_bins, 2) array, summed bin by
    bin (H, then V) as the file's rows run; a sum over the (2, n_bins) field
    adds in another order and can differ in the last bits."""
    return float(np.sum(np.abs(bins) ** 2))


def save_pattern(path: str, field: np.ndarray) -> None:
    """Write a finite complex (2, 2**k) field as a plain-text table, one row per bin."""
    field = np.asarray(field, dtype=np.complex128)
    k = _field_k(field)
    bins = np.ascontiguousarray(field.T)
    n = len(bins)
    header = f"k = {k} energy = {_energy(bins):.17e}\nbin_index re_H im_H re_V im_V"
    columns = np.column_stack((np.arange(n), bins.view(float)))
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, columns, fmt=["%d"] + ["%.17e"] * 4, header=header, comments="# ")


def load_pattern(path: str) -> np.ndarray:
    """Read a field written by ``save_pattern``, as a complex (2, 2**k) array."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    header = lines[0].strip() if lines else ""
    match = _HEADER_RE.match(header)
    if not match:
        raise PatternFormatError(f"{path}:1: expected '# k = <int> energy = <float>' header")
    try:
        k, energy = int(match.group(1)), float(match.group(2))
    except ValueError:
        raise PatternFormatError(f"{path}:1: header k or energy is not a number: {header!r}") from None
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 5:
            raise PatternFormatError(f"{path}:{lineno}: expected 5 columns, got {len(fields)}")
        try:
            i = int(fields[0])
            re_h, im_h, re_v, im_v = (float(x) for x in fields[1:])
        except ValueError:
            raise PatternFormatError(f"{path}:{lineno}: malformed row") from None
        if not all(map(math.isfinite, (re_h, im_h, re_v, im_v))):
            raise PatternFormatError(f"{path}:{lineno}: amplitudes must be finite")
        if i != len(rows):
            raise PatternFormatError(f"{path}:{lineno}: expected bin_index {len(rows)}, got {i}")
        rows.append((complex(re_h, im_h), complex(re_v, im_v)))
    n = len(rows)
    # n == 2**k, tested without forming 2**k from the unchecked header
    if n & (n - 1) or n.bit_length() - 1 != k:
        raise PatternFormatError(f"{path}: expected 2**{k} rows for k = {k}, got {n}")
    try:
        _checked_k(k)
    except ValueError as exc:
        raise PatternFormatError(f"{path}:1: {exc}") from None
    bins = np.array(rows, dtype=np.complex128)
    if not math.isclose(_energy(bins), energy, rel_tol=1e-9, abs_tol=0.0):
        raise PatternFormatError(
            f"{path}: header energy {energy!r} does not match row data ({_energy(bins)!r})"
        )
    return bins.T.copy()
