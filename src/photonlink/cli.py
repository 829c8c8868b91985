"""Command line interface.

Four subcommands:

* ``table1``     reproduce the reference-regime link budgets and rates
* ``pie-sweep``  optimized photon information efficiency over an (n_a, n_b) grid
* ``link``       optimized data rate and peak power versus link distance
* ``receiver``   structured-receiver demo: codebook pattern, output field,
                 click probabilities, exact concentration-efficiency statistics

``pie-sweep`` and ``link`` run one M search per scheme, holding the points
of every noise model given.

Output is CSV with a '#'-prefixed metadata header that echoes the command
and every parameter; given the same arguments the data section is
byte-identical between runs.  Exit codes: 0 success, 1 a computational flag
was raised (optimizer hit the search bound), 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .capacity import PhotonNumbers, holevo_capacity, shannon_capacity
from .floatfmt import format_bytes, format_ints
from .linkbudget import (
    DEFAULT_CONSTANTS,
    LinkConfigError,
    REFERENCE_REGIMES,
    _distance_sweep,
    load_link_params,
    noise_power_watts,
    regime_summary,
)
from .noise import GAUSS, POISSON, NoiseModel
from .optimize import FLAG_FAILED, FLAG_OK, OOK, PPM, _sweep
from .receiver import (
    PatternFormatError,
    ReceiverConfig,
    apply_receiver,
    concentration_efficiency,
    detect_pattern,
    make_pattern,
    save_pattern,
)

MAX_RECEIVER_K = 16
# points of a --na-grid or --r-au-grid.  Each point costs one optimization
# per scheme, model and background, so a million points already run for
# minutes; the bound turns a mistyped count into a usage error before numpy
# allocates the grid
MAX_GRID_POINTS = 10**6

# rows the table writer formats at a time
_BLOCK_ROWS = 8192
# distinct floats of a block from which the byte path beats str
_VECTOR_MIN = 1000

SEPARATION_NOTE = (
    "note: consecutive codebook patterns must be separated by at least one "
    "pattern length at the transmitter; this demo simulates a single pattern"
)


def _block_bytes(columns: list[Sequence[object]], rows: slice) -> bytes:
    """UTF-8 CSV lines of ``rows``, a cell per column as ``str`` of its value.

    The float64 array columns are formatted together, once per distinct bit
    pattern of each column: the bits keep -0.0 apart from 0.0, which compare
    and hash equal as floats.  From ``_VECTOR_MIN`` distinct floats on, the
    block is built as bytes: the floats by ``format_bytes``, a ``range``
    column by ``format_ints``, each other cell by ``str``.  Every text is a
    NUL-padded row of one pool with its comma or newline after it; one
    gather lays each table row's cells side by side, and one boolean
    compress keeps the text and separators.  Below that, ``repr`` of the
    distinct floats and ``str`` of the other cells are joined as ``str``,
    which costs less there.
    """
    parts = [column[rows] for column in columns]
    floats = [i for i, part in enumerate(parts) if isinstance(part, np.ndarray) and part.dtype == np.float64]
    found = [np.unique(parts[i].view(np.int64), return_inverse=True) for i in floats]
    distinct = np.concatenate([np.empty(0, dtype=np.int64), *(bits for bits, _ in found)]).view(np.float64)
    if len(distinct) < _VECTOR_MIN:
        cells: list[Iterable[str]] = [map(str, part) for part in parts]
        text = np.array([repr(x) for x in distinct.tolist()], dtype=object)
        start = 0
        for i, (bits, inverse) in zip(floats, found):
            cells[i] = text[start : start + len(bits)][inverse].tolist()
            start += len(bits)
        return ("\n".join(map(",".join, zip(*cells))) + "\n").encode()

    # the pool's rows: the distinct floats of each float64 column, then a
    # row per cell of each other column
    n_rows = len(parts[0])
    text, length = format_bytes(distinct)
    texts, lengths = [text], [length]
    cell = np.empty((n_rows, len(parts)), dtype=np.intp)
    size = 0
    for i, (bits, inverse) in zip(floats, found):
        cell[:, i] = inverse + size
        size += len(bits)
    # str cells may hold NUL themselves
    str_lengths = {}
    for i, part in enumerate(parts):
        if i in floats:
            continue
        if isinstance(part, range):
            text, length = format_ints(np.arange(part.start, part.stop, part.step))
        else:
            encoded = [str(value).encode() for value in part]
            length = str_lengths[i] = np.fromiter(map(len, encoded), dtype=np.intp, count=n_rows)
            text = np.array(encoded, dtype=f"S{length.max() + 1}").view(np.uint8).reshape(n_rows, -1)
        texts.append(text)
        lengths.append(length)
        cell[:, i] = np.arange(size, size + n_rows)
        size += n_rows
    # every text row ends in NUL, where its separator goes
    width = max(text.shape[1] for text in texts)
    pool = np.zeros((size, width), dtype=np.uint8)
    start = 0
    for text in texts:
        pool[start : start + len(text), : text.shape[1]] = text
        start += len(text)
    separator = np.full(size, ord(","), dtype=np.uint8)
    separator[cell[:, -1]] = ord("\n")
    pool[np.arange(size), np.concatenate(lengths)] = separator
    grid = pool.take(cell, axis=0)
    # the text of a number holds no NUL, so what is not 0 is text or separator
    keep = grid != 0
    for i, length in str_lengths.items():
        np.less_equal(np.arange(width), length[:, None], out=keep[:, i])
    return grid[keep].tobytes()


def _write_table(
    out_path: str | None,
    command: str,
    params: dict[str, object],
    table: dict[str, Sequence[object]],
) -> None:
    """Write ``table`` (column name -> cells, all of one length) as UTF-8 CSV.

    A cell is written as ``str`` of its value; a float64 array column, as
    ``repr`` of each float, which is the same text.  The rows are built
    ``_BLOCK_ROWS`` at a time as bytes by ``_block_bytes``, and each block
    is written to ``out_path`` or to standard output's binary buffer; a
    text-only standard output (``io.StringIO``) gets each block decoded.
    """
    columns = list(table.values())
    n_rows = len(columns[0]) if columns else 0
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"table columns differ in length: {sorted(lengths)}")
    lines = [f"# photonlink {__version__} {command}"]
    lines += [f"# {key} = {value}" for key, value in params.items()]
    lines.append(",".join(table))
    with contextlib.ExitStack() as stack:
        if out_path is not None:
            write = stack.enter_context(open(out_path, "wb")).write
        elif hasattr(sys.stdout, "buffer"):
            # what was written as text goes first
            sys.stdout.flush()
            write = sys.stdout.buffer.write
        else:
            def write(chunk: bytes) -> None:
                sys.stdout.write(chunk.decode())
        write(("\n".join(lines) + "\n").encode())
        for start in range(0, n_rows, _BLOCK_ROWS):
            write(_block_bytes(columns, slice(start, start + _BLOCK_ROWS)))


def _bundled_config(name: str) -> str:
    return str(resources.files("photonlink").joinpath(f"configs/{name}"))


def _log_grid(start: float, stop: float, points: float) -> np.ndarray:
    count = int(points) if math.isfinite(points) else 0
    if not (0.0 < start <= stop < math.inf) or count < 1 or count != points:
        raise ValueError(f"bad grid: start {start!r}, stop {stop!r}, points {points!r}")
    if count > MAX_GRID_POINTS:
        raise ValueError(f"grid of {count} points refused, at most {MAX_GRID_POINTS} are supported")
    return np.geomspace(start, stop, count)


def _model_kinds(choice: str) -> list[str]:
    return [POISSON, GAUSS] if choice == "both" else [choice]


def _scheme_list(choice: str) -> list[str]:
    return [PPM, OOK] if choice == "both" else [choice]


def cmd_table1(args: argparse.Namespace) -> int:
    quantities = ("eta_ch", "n_a", "shannon_rate_bps", "holevo_rate_bps")
    regimes = ("rf", "optical")
    computed, reference = [], []
    for regime, config_path in zip(regimes, (args.rf_config, args.optical_config)):
        ref = REFERENCE_REGIMES[regime]
        summary = regime_summary(load_link_params(config_path), ref.n_b)
        computed += [summary[quantity] for quantity in quantities]
        reference += [getattr(ref, quantity) for quantity in quantities]
    table = {
        "quantity": quantities * len(regimes),
        "regime": [regime for regime in regimes for _ in quantities],
        "computed": computed,
        "reference": reference,
        "rel_error": [abs(c - r) / r for c, r in zip(computed, reference)],
    }
    params = {
        "rf_config": args.rf_config,
        "optical_config": args.optical_config,
        "n_b_rf": REFERENCE_REGIMES["rf"].n_b,
        "n_b_optical": REFERENCE_REGIMES["optical"].n_b,
    }
    _write_table(args.out, "table1", params, table)
    return 0


def cmd_pie_sweep(args: argparse.Namespace) -> int:
    n_a_grid = _log_grid(*args.na_grid)
    schemes = _scheme_list(args.scheme)
    kinds = _model_kinds(args.model)
    exit_code = 0
    for scheme in schemes:
        # one search over every model; lists, not float64 arrays: on tables
        # this small, the writer's search for each array column's distinct
        # floats costs more than it saves
        sweep = _sweep(n_a_grid, args.n_b, kinds, scheme)
        table = {name: column.tolist() for name, column in sweep.items()}
        if any(flag != FLAG_OK for flag in table["flag"]):
            exit_code = 1
        params = {
            "scheme": scheme,
            "model": args.model,
            "n_b": " ".join(repr(v) for v in args.n_b),
            "na_grid": " ".join(repr(v) for v in args.na_grid),
        }
        out = args.out
        if out is not None and len(schemes) > 1:
            path = Path(out)
            out = str(path.with_name(f"{path.stem}_{scheme}{path.suffix}"))
        _write_table(out, "pie-sweep", params, table)
    return exit_code


def cmd_link(args: argparse.Namespace) -> int:
    lp = load_link_params(args.config)
    r_grid_au = _log_grid(*args.r_au_grid)
    with np.errstate(over="ignore"):
        r_grid_m = r_grid_au * DEFAULT_CONSTANTS.au_m
    far = np.isinf(r_grid_m)
    if far.any():
        raise ValueError(f"distance {r_grid_au[far.argmax()].item()!r} AU overflows in metres")
    schemes = args.schemes
    repeated = [scheme for i, scheme in enumerate(schemes) if scheme in schemes[:i]]
    if repeated:
        raise ValueError(f"scheme {repeated[0]!r} given more than once in --schemes")
    kinds = _model_kinds(args.model)

    # one search per scheme over every model
    runs = {scheme: _distance_sweep(lp, kinds, args.n_b, scheme, r_grid_m) for scheme in schemes}
    first = runs[schemes[0]]
    # whether n_a has an optimum depends on n_a alone, not on scheme or model
    failed = first["flag"] == FLAG_FAILED
    if failed.any():
        i = failed.argmax()
        n_a = first["n_a"][i].item()
        reason = (
            "too far: n_a underflows to 0" if n_a == 0.0
            else f"too near: pulse energy n_a * m_max overflows at n_a = {n_a!r}"
        )
        raise ValueError(f"distance {r_grid_au[i % len(r_grid_au)].item()!r} AU is {reason}")
    table = {
        "model": first["model"].tolist(),
        "r_au": np.tile(r_grid_au, len(kinds)),
        "n_a": first["n_a"].tolist(),
    }
    exit_code = 0
    for scheme, columns in runs.items():
        table[f"rate_{scheme}_bps"] = columns["rate_bps"].tolist()
        table[f"peak_power_{scheme}_w"] = columns["peak_power_w"].tolist()
        table[f"flag_{scheme}"] = columns["flag"].tolist()
        if any(flag != FLAG_OK for flag in table[f"flag_{scheme}"]):
            exit_code = 1
    # the reference rates depend on (n_a, n_b) only, so once per row
    points = [PhotonNumbers(*point) for point in zip(table["n_a"], first["n_b"].tolist())]
    table["rate_shannon_bps"] = [shannon_capacity(point) * lp.bandwidth_hz for point in points]
    table["rate_holevo_bps"] = [holevo_capacity(point) * lp.bandwidth_hz for point in points]

    params = {
        "config": args.config,
        "n_b": args.n_b,
        "model": args.model,
        "schemes": " ".join(schemes),
        "r_au_grid": " ".join(repr(v) for v in args.r_au_grid),
        "noise_power_w": noise_power_watts(args.n_b, lp.f_c_hz, lp.bandwidth_hz),
    }
    _write_table(args.out, "link", params, table)
    return exit_code


def cmd_receiver(args: argparse.Namespace) -> int:
    if args.k > MAX_RECEIVER_K:
        raise ValueError(f"k = {args.k} refused, the demo supports k <= {MAX_RECEIVER_K}")
    cfg = ReceiverConfig(
        k=args.k,
        per_module_loss=args.loss,
        phase_error_sigma=args.phase_sigma,
        rng_seed=args.seed,
    )
    pattern = make_pattern(args.k, args.target_bin, args.energy)
    out_field = apply_receiver(pattern, cfg)
    # --trials changes no output; it stays checked and echoed for the scripts that pass it
    if args.trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {args.trials!r}")
    mean, std = concentration_efficiency(cfg)

    kinds = _model_kinds(args.model)
    # complex (n_bins, 2) amplitudes viewed as float columns re_h, im_h, re_v, im_v
    columns = (
        [*pattern.amps.view(float).T, *out_field.amps.view(float).T, out_field.bin_energies()]
        + [detect_pattern(out_field, NoiseModel(kind, args.n_b)) for kind in kinds]
    )
    names = (
        ["in_re_h", "in_im_h", "in_re_v", "in_im_v"]
        + ["out_re_h", "out_im_h", "out_re_v", "out_im_v", "out_bin_energy"]
        + [f"click_prob_{kind}" for kind in kinds]
    )
    table = {"bin": range(pattern.n_bins), **dict(zip(names, columns))}

    params = {
        "k": args.k,
        "target_bin": args.target_bin,
        "energy": args.energy,
        "loss": args.loss,
        "phase_sigma": args.phase_sigma,
        "seed": args.seed,
        "trials": args.trials,
        "n_b": args.n_b,
        "model": args.model,
        "concentration_mean": repr(mean),
        "concentration_std": repr(std),
    }
    if args.pattern_out is not None:
        save_pattern(args.pattern_out, pattern)
        params["pattern_out"] = args.pattern_out
    print(SEPARATION_NOTE, file=sys.stderr)
    _write_table(args.out, "receiver", params, table)
    return 0


# one parser per process: building it costs about 1 ms, more than a table1
# job's own work.  Every call shares its defaults, so those are tuples
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonlink",
        description="Efficiency limits and receiver modelling for photon-starved optical links.",
    )
    parser.add_argument("--version", action="version", version=f"photonlink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table1 = sub.add_parser("table1", help="reproduce the reference link budgets")
    p_table1.add_argument("--rf-config", default=_bundled_config("table1_rf.cfg"))
    p_table1.add_argument("--optical-config", default=_bundled_config("table1_optical.cfg"))
    p_table1.add_argument("--out", default=None)
    p_table1.set_defaults(func=cmd_table1)

    p_sweep = sub.add_parser("pie-sweep", help="optimized efficiency over an (n_a, n_b) grid")
    p_sweep.add_argument("--scheme", choices=[PPM, OOK, "both"], default="both")
    p_sweep.add_argument("--model", choices=[POISSON, GAUSS, "both"], default="both")
    p_sweep.add_argument("--n-b", type=float, nargs="+", default=(1e-1, 1e-2, 1e-3, 1e-4))
    p_sweep.add_argument(
        "--na-grid",
        type=float,
        nargs=3,
        metavar=("START", "STOP", "POINTS"),
        default=(1e-6, 1e-1, 26),
        help="log-spaced n_a grid",
    )
    p_sweep.add_argument("--out", default=None, help="with --scheme both, one file per scheme")
    p_sweep.set_defaults(func=cmd_pie_sweep)

    p_link = sub.add_parser("link", help="rate and peak power versus distance")
    p_link.add_argument("--config", default=_bundled_config("table1_optical.cfg"))
    p_link.add_argument("--n-b", type=float, default=1e-2)
    p_link.add_argument("--model", choices=[POISSON, GAUSS, "both"], default=POISSON)
    p_link.add_argument("--schemes", choices=[PPM, OOK], nargs="+", default=(PPM, OOK))
    p_link.add_argument(
        "--r-au-grid",
        type=float,
        nargs=3,
        metavar=("START", "STOP", "POINTS"),
        default=(1e-1, 1e3, 29),
        help="log-spaced distance grid in astronomical units",
    )
    p_link.add_argument("--out", default=None)
    p_link.set_defaults(func=cmd_link)

    p_rx = sub.add_parser("receiver", help="structured-receiver demo")
    p_rx.add_argument("--k", type=int, default=3, help=f"number of modules, <= {MAX_RECEIVER_K}")
    p_rx.add_argument("--target-bin", type=int, default=0)
    p_rx.add_argument("--energy", type=float, default=1.0)
    p_rx.add_argument("--loss", type=float, default=1.0, help="per-module power transmission")
    p_rx.add_argument("--phase-sigma", type=float, default=0.0, help="phase error spread, rad")
    p_rx.add_argument("--trials", type=int, default=1000, help=">= 1; changes no output")
    p_rx.add_argument("--n-b", type=float, default=0.0)
    p_rx.add_argument("--model", choices=[POISSON, GAUSS, "both"], default=POISSON)
    p_rx.add_argument("--seed", type=int, default=0)
    p_rx.add_argument("--out", default=None)
    p_rx.add_argument("--pattern-out", default=None, help="write the codebook pattern file")
    p_rx.set_defaults(func=cmd_receiver)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LinkConfigError, PatternFormatError, ValueError, OSError, MemoryError) as exc:
        print(f"photonlink {args.command}: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
