"""Jones-calculus simulation of a structured pulse-concentration receiver.

A receiver of ``k`` cascaded modules acts on classical field patterns that
occupy 2**k time bins in two polarizations.  Module ``i`` delays the V
component by 2**(k-i) bins (cyclically, with an optional phase error on the
delayed arm), then mixes the polarizations on a half-wave plate:

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
from dataclasses import dataclass

import numpy as np

from .noise import NoiseModel, _click_probs

H = 0
V = 1

_SQRT_HALF = math.sqrt(0.5)


class PatternFormatError(ValueError):
    """Raised on malformed field-pattern files."""


@dataclass(frozen=True, eq=False)
class FieldPattern:
    """Complex field amplitudes on a grid of time bins, shape (n_bins, 2).

    Column 0 is the H polarization, column 1 the V polarization.  The
    number of bins must be a power of two.  Amplitudes are stored read-only;
    operations return new patterns.
    """

    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.ndim != 2 or amps.shape[1] != 2 or amps.shape[0] < 1:
            raise ValueError(f"amps must have shape (n_bins, 2), got {amps.shape}")
        n = amps.shape[0]
        if n & (n - 1):
            raise ValueError(f"n_bins must be a power of two, got {n}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def n_bins(self) -> int:
        return self.amps.shape[0]

    def energy(self) -> float:
        """Total energy sum(|amp|^2) over all bins and polarizations."""
        return float(np.sum(np.abs(self.amps) ** 2))

    def bin_energies(self) -> np.ndarray:
        """Energy per time bin, both polarizations combined."""
        return np.sum(np.abs(self.amps) ** 2, axis=1)


@dataclass(frozen=True)
class ReceiverConfig:
    """Cascade of ``k`` modules with per-module loss and phase-error spread."""

    k: int
    per_module_loss: float = 1.0
    phase_error_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if int(self.k) != self.k or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        if not 0.0 < self.per_module_loss <= 1.0:
            raise ValueError(f"per_module_loss must be in (0, 1], got {self.per_module_loss!r}")
        if not math.isfinite(self.phase_error_sigma) or self.phase_error_sigma < 0.0:
            raise ValueError(f"phase_error_sigma must be >= 0, got {self.phase_error_sigma!r}")
        if not isinstance(self.rng_seed, (int, np.integer)) or self.rng_seed < 0:
            raise ValueError(f"rng_seed must be an integer >= 0, got {self.rng_seed!r}")


def apply_module(
    pattern: FieldPattern,
    delay_bins: int,
    phase_error: float = 0.0,
    loss: float = 1.0,
) -> FieldPattern:
    """One module: cyclic V delay with phase error, half-wave plate, loss.

    Args:
        pattern: input field.
        delay_bins: delay of the V component in bins; must divide n_bins.
        phase_error: extra phase (rad) picked up on the delayed arm.
        loss: power transmission of the module, in (0, 1].

    Returns:
        The output field pattern.
    """
    n = pattern.n_bins
    if int(delay_bins) != delay_bins or delay_bins < 1 or n % int(delay_bins):
        raise ValueError(f"delay_bins must be a positive divisor of {n}, got {delay_bins!r}")
    if not 0.0 < loss <= 1.0:
        raise ValueError(f"loss must be in (0, 1], got {loss!r}")
    if not math.isfinite(phase_error):
        raise ValueError(f"phase_error must be finite, got {phase_error!r}")
    return FieldPattern(_module(pattern.amps, int(delay_bins), phase_error, loss))


def _module(amps: np.ndarray, delay: int, phase: float, loss: float) -> np.ndarray:
    """``apply_module`` on a complex (n_bins, 2) array, arguments unchecked."""
    h = amps[:, H]
    v = np.roll(amps[:, V], delay) * np.exp(1j * phase)
    scale = _SQRT_HALF * math.sqrt(loss)
    return np.column_stack(((h + v) * scale, (h - v) * scale))


def apply_receiver(pattern: FieldPattern, cfg: ReceiverConfig) -> FieldPattern:
    """Run a field pattern through the full cascade described by ``cfg``.

    Module ``i`` (1-based) uses delay n_bins / 2**i, so the last module has
    delay 1.  Its phase error is draw ``i - 1`` of one normal stream seeded
    with ``cfg.rng_seed``; sigma = 0 gives the ideal phases exactly.
    """
    if pattern.n_bins != 1 << cfg.k:
        raise ValueError(
            f"pattern has {pattern.n_bins} bins, config expects {1 << cfg.k}"
        )
    phases = np.random.default_rng(cfg.rng_seed).normal(0.0, cfg.phase_error_sigma, cfg.k)
    if not np.all(np.isfinite(phases)):
        raise ValueError(
            f"phase_error_sigma = {cfg.phase_error_sigma!r} is too large: a phase draw overflowed"
        )
    amps = pattern.amps
    for i in range(1, cfg.k + 1):
        amps = _module(amps, pattern.n_bins >> i, phases[i - 1], cfg.per_module_loss)
    return FieldPattern(amps)


def make_pattern(k: int, target_bin: int, total_energy: float = 1.0) -> FieldPattern:
    """Codebook pattern that the ideal ``k``-module cascade concentrates
    into (``target_bin``, H).

    Built by pushing a single H-polarized pulse backwards through the exact
    inverse cascade.  The result has one occupied polarization per bin with
    amplitude +-sqrt(total_energy / 2**k).
    """
    if int(k) != k or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    n = 1 << int(k)
    if int(target_bin) != target_bin or not 0 <= target_bin < n:
        raise ValueError(f"target_bin must be an integer in [0, {n}), got {target_bin!r}")
    if not math.isfinite(total_energy) or total_energy <= 0.0:
        raise ValueError(f"total_energy must be > 0, got {total_energy!r}")

    # run the inverse cascade on integer signs; every intermediate state
    # keeps exactly one occupied polarization per bin, so the common factor
    # (1/sqrt(2))**k can be applied once at the end
    h = np.zeros(n)
    v = np.zeros(n)
    h[int(target_bin)] = 1.0
    for stage in range(int(k), 0, -1):
        h, v = h + v, h - v  # half-wave plate is its own inverse
        v = np.roll(v, -(n >> stage))
    amps = np.empty((n, 2), dtype=np.complex128)
    amp_scale = math.sqrt(total_energy / n)
    amps[:, H] = h * amp_scale
    amps[:, V] = v * amp_scale
    return FieldPattern(amps)


def detect_pattern(pattern: FieldPattern, model: NoiseModel) -> np.ndarray:
    """Per-bin click probability for a single-photon detector array.

    Each bin sees the combined energy of both polarizations as its pulse
    energy on top of the model background.
    """
    return _click_probs(model.kind, model.n_b, pattern.bin_energies())[1]


def concentration_efficiency(cfg: ReceiverConfig) -> tuple[float, float]:
    """Exact (mean, std) of the energy fraction reaching the target port.

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
    # sigma ** 2 would raise OverflowError above 1.3e154
    s2 = cfg.phase_error_sigma * cfg.phase_error_sigma
    g = math.expm1(-s2 / 2.0) / 2.0
    mean = math.exp(cfg.k * math.log1p(g))
    u = -math.expm1(-s2) / (math.sqrt(8.0) * (1.0 + g))
    u2 = max(u * u, sys.float_info.min)
    return mean, mean * u * math.sqrt(math.expm1(cfg.k * math.log1p(u2)) / u2)


_HEADER_RE = re.compile(
    r"#\s*k\s*=\s*(\d+)\s+energy\s*=\s*([0-9.eE+-]+)\s*$"
)


def save_pattern(path: str, pattern: FieldPattern) -> None:
    """Write a pattern as a plain-text table, one row per bin."""
    k = pattern.n_bins.bit_length() - 1
    header = f"k = {k} energy = {pattern.energy():.17e}\nbin_index re_H im_H re_V im_V"
    columns = np.column_stack((np.arange(pattern.n_bins), pattern.amps.view(float)))
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, columns, fmt=["%d"] + ["%.17e"] * 4, header=header, comments="# ")


def load_pattern(path: str) -> FieldPattern:
    """Read a pattern written by ``save_pattern``."""
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
    pattern = FieldPattern(np.array(rows, dtype=np.complex128))
    if not math.isclose(pattern.energy(), energy, rel_tol=1e-9, abs_tol=0.0):
        raise PatternFormatError(
            f"{path}: header energy {energy!r} does not match row data ({pattern.energy()!r})"
        )
    return pattern
