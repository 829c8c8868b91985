"""Command line interface.

Four subcommands:

* ``table1``     reproduce the reference-regime link budgets and rates
* ``pie-sweep``  optimized photon information efficiency over an (n_a, n_b) grid
* ``link``       optimized data rate and peak power versus link distance
* ``receiver``   structured-receiver demo: codebook pattern, output field,
                 click probabilities, exact concentration-efficiency statistics

``pie-sweep`` and ``link`` run one M search per scheme, holding the points
of every noise model given.  The tables come from the library's public
functions: ``pie-sweep`` from ``optimize.sweep_pie``, and ``receiver``'s
click columns from ``noise.click_probs`` on the bin energies.

Each subcommand computes its columns and hands them to one output step.
Output is CSV with a '#'-prefixed metadata header that echoes the command,
every option except ``--out`` in parser order, then derived values; given
the same arguments the data section is byte-identical between runs.  The
column types alone pick the writer's path, once per table and whatever its
size: a table whose columns are all float64 arrays or a ``range`` is built
as bytes; any other is joined as ``str``.  Exit codes: 0 success, 1 a
computational flag was raised (optimizer hit the search bound), 2 usage or
config errors, among them an option whose text holds a line break and an
output that is an input file or another output of the run; every output
is opened before any is written, and a run that exits 2 removes every
file it created.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .floatfmt import format_bytes
from .linkbudget import (
    AU_M,
    REFERENCE_REGIMES,
    _distance_sweep,
    load_link_params,
    noise_power_watts,
    regime_summary,
)
from .noise import GAUSS, POISSON, NoiseModel, click_probs
from .optimize import FLAG_FAILED, FLAG_OK, OOK, PPM, _no_optimum, sweep_pie
from .receiver import (
    H,
    MAX_K,
    V,
    apply_receiver,
    concentration_efficiency,
    make_pattern,
    save_pattern,
)

# points of a --na-grid or --r-au-grid.  Each point costs one optimization
# per scheme, model and background, so a million points already run for
# minutes; the bound turns a mistyped count into a usage error before numpy
# allocates the grid
MAX_GRID_POINTS = 10**6

# rows the table writer formats at a time
_BLOCK_ROWS = 8192

# the files the running command created; main removes them if it fails
_created: list[str] = []

SEPARATION_NOTE = (
    "note: consecutive codebook patterns must be separated by at least one "
    "pattern length at the transmitter; this demo simulates a single pattern"
)


def _block_bytes(columns: list[np.ndarray | range], rows: slice) -> np.ndarray:
    """UTF-8 CSV lines of ``rows`` of float64 array and ``range`` columns.

    A cell's text is ``str`` of its value: the floats of every column come
    from one ``format_bytes`` call, a ``range`` from numpy's cast of its
    integers to bytes of the same width.  Each float column's distinct bit
    patterns come from one ``np.sort`` and a compare of neighbours: the bits
    keep -0.0 apart from 0.0, which compare and hash equal as floats.  A
    column that repeats, with at most half its cells distinct, is formatted
    once per distinct value and its cells found by ``np.searchsorted``; any
    other column is formatted cell by cell.  Every text is a NUL-padded row
    of one pool; one gather lays each table row's cells side by side, each
    cell's comma or newline goes into its last byte, and one boolean
    compress keeps the text and separators, which are returned as that
    uint8 array, not copied into ``bytes``.
    """
    parts = [column[rows] for column in columns]
    n_rows = len(parts[0])
    # the pool's rows: the floats to format of each float64 column, then a
    # row per cell of each range column
    cell = np.empty((n_rows, len(parts)), dtype=np.intp)
    floats = [np.empty(0, dtype=np.int64)]
    size = 0
    for i, part in enumerate(parts):
        if isinstance(part, range):
            continue
        bits = part.view(np.int64)
        ordered = np.sort(bits)
        first = np.empty(n_rows, dtype=bool)
        first[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        distinct = ordered[first]
        if 2 * len(distinct) <= n_rows:
            floats.append(distinct)
            cell[:, i] = np.searchsorted(distinct, bits) + size
        else:
            floats.append(bits)
            cell[:, i] = np.arange(size, size + n_rows)
        size += len(floats[-1])
    pool = [format_bytes(np.concatenate(floats).view(np.float64))]
    width = pool[0].shape[1]
    for i, part in enumerate(parts):
        if isinstance(part, range):
            text = np.arange(part.start, part.stop, part.step).astype(f"S{width}")
            pool.append(text.view(np.uint8).reshape(n_rows, width))
            cell[:, i] = np.arange(size, size + n_rows)
            size += n_rows
    grid = np.concatenate(pool).take(cell, axis=0)
    # no text of a float or an int64 fills its row, so each ends in NUL
    grid[:, :-1, -1] = ord(",")
    grid[:, -1, -1] = ord("\n")
    # the text of a number holds no NUL, so what is not 0 is text or separator
    return grid[grid != 0]


def _write_table(
    out_path: str | None,
    command: str,
    params: dict[str, object],
    table: dict[str, Sequence[object]],
) -> None:
    """Write ``table`` (column name -> cells, all of one length) as UTF-8 CSV.

    A cell is written as ``str`` of its value; a float64 array column, as
    ``repr`` of each float, which is the same text.  A table whose every
    column is a float64 array or a ``range`` of int64 values is built as
    bytes by ``_block_bytes``; any other is joined as ``str``, an array
    column by ``tolist()``.  The rows are built ``_BLOCK_ROWS`` at a time,
    and each block is written to ``out_path`` or to standard output's
    binary buffer as it is; a text-only standard output (``io.StringIO``)
    gets each block decoded.
    """
    columns = list(table.values())
    n_rows = len(columns[0]) if columns else 0
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"table columns differ in length: {sorted(lengths)}")
    numeric = all(
        isinstance(column, range) or (isinstance(column, np.ndarray) and column.dtype == np.float64)
        for column in columns
    )
    if not numeric:
        columns = [column.tolist() if isinstance(column, np.ndarray) else column for column in columns]
    lines = [f"# photonlink {__version__} {command}"]
    lines += [f"# {key} = {value}" for key, value in params.items()]
    lines.append(",".join(table))
    with contextlib.ExitStack() as stack:
        if out_path is not None:
            write = stack.enter_context(open(_create(out_path), "wb")).write
        elif hasattr(sys.stdout, "buffer"):
            # what was written as text goes first
            sys.stdout.flush()
            write = sys.stdout.buffer.write
        else:
            def write(chunk: bytes | np.ndarray) -> None:
                sys.stdout.write(str(chunk, "utf-8"))
        write(("\n".join(lines) + "\n").encode())
        for start in range(0, n_rows, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            if numeric:
                write(_block_bytes(columns, rows))
            else:
                cells = zip(*(map(str, column[rows]) for column in columns))
                write(("\n".join(map(",".join, cells)) + "\n").encode())


def _refuse_clashes(outputs: dict[str, str | None], inputs: dict[str, str] | None = None) -> None:
    """Refuse an output (option -> path, None if not given) whose real path
    is that of an input file or of another output, before either is written.

    Where two or more outputs are given, then open each for appending,
    which changes no byte of a file that is there, and remove a file that
    this open created, so a path that cannot be written fails the run
    before another output is written; a lone output's own write is the
    run's first.  A FIFO or a character device is left to be opened once,
    when it is written.
    """
    seen = {os.path.realpath(path): option for option, path in (inputs or {}).items()}
    for option, path in outputs.items():
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"{option} {path!r} is the same file as {seen[real]}")
        seen[real] = option
    given = [path for path in outputs.values() if path is not None]
    if len(given) < 2:
        return
    for path in given:
        if Path(path).is_fifo() or Path(path).is_char_device():
            continue
        there = os.path.exists(path)
        open(path, "ab").close()
        if not there:
            # left for the writer to create: ext4 starts writing back a file
            # that was truncated on open as soon as it is closed
            os.remove(os.path.realpath(path))


def _create(path: str) -> str:
    """``path``, noted among the files this run created unless a file is there already.

    A dangling symbolic link names no file, so the file it names is noted.
    """
    if not os.path.exists(path):
        _created.append(path)
    return path


def _echo(args: argparse.Namespace, **derived: object) -> dict[str, str]:
    """The '#' header's parameters: ``args``'s options, then ``derived``.

    Every option is echoed in parser order, except ``--out`` and any left at
    None; a list or tuple as its items' ``str`` joined by spaces.  A derived
    name already among them keeps its place.  A value whose text holds a
    line break is refused, since it would end its header line early.
    """
    params = {key: value for key, value in vars(args).items() if value is not None}
    for key in ("command", "func", "out"):
        params.pop(key, None)
    params.update(derived)
    header = {}
    for key, value in params.items():
        text = " ".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value)
        # splitlines drops every line break, a trailing one too
        if "".join(text.splitlines()) != text:
            raise ValueError(f"--{key.replace('_', '-')} {text!r} holds a line break, which the header cannot echo")
        header[key] = text
    return header


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
    _refuse_clashes({"--out": args.out}, {"--rf-config": args.rf_config, "--optical-config": args.optical_config})
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
    params = _echo(args, n_b_rf=REFERENCE_REGIMES["rf"].n_b, n_b_optical=REFERENCE_REGIMES["optical"].n_b)
    _write_table(args.out, "table1", params, table)
    return 0


def cmd_pie_sweep(args: argparse.Namespace) -> int:
    n_a_grid = _log_grid(*args.na_grid)
    schemes = _scheme_list(args.scheme)
    kinds = _model_kinds(args.model)
    outs = {scheme: args.out for scheme in schemes}
    if args.out is not None and len(schemes) > 1:
        path = Path(args.out)
        outs = {scheme: str(path.with_name(f"{path.stem}_{scheme}{path.suffix}")) for scheme in schemes}
    _refuse_clashes({f"--out of {scheme}": out for scheme, out in outs.items()})
    exit_code = 0
    for scheme in schemes:
        # one search over every model
        table = sweep_pie(n_a_grid, args.n_b, kinds, scheme)
        if (table["flag"] != FLAG_OK).any():
            exit_code = 1
        _write_table(outs[scheme], "pie-sweep", _echo(args, scheme=scheme), table)
    return exit_code


def cmd_link(args: argparse.Namespace) -> int:
    _refuse_clashes({"--out": args.out}, {"--config": args.config})
    lp = load_link_params(args.config)
    r_grid_au = _log_grid(*args.r_au_grid)
    with np.errstate(over="ignore"):
        r_grid_m = r_grid_au * AU_M
    far = np.isinf(r_grid_m)
    if far.any():
        raise ValueError(f"distance {r_grid_au[far.argmax()].item()!r} AU overflows in metres")
    schemes = args.schemes
    repeated = [scheme for i, scheme in enumerate(schemes) if scheme in schemes[:i]]
    if repeated:
        raise ValueError(f"scheme {repeated[0]!r} given more than once in --schemes")
    kinds = _model_kinds(args.model)

    # one search per scheme over every model
    columns = _distance_sweep(lp, kinds, args.n_b, schemes, r_grid_m)
    # a distance fails if any scheme or model does: where the information
    # per bin underflows depends on both
    flags = np.array([columns[f"flag_{scheme}"] for scheme in schemes])
    failed = (flags.reshape(-1, len(r_grid_au)) == FLAG_FAILED).any(axis=0)
    if failed.any():
        i = failed.argmax()
        too_near, cause = _no_optimum(columns["n_a"][i].item())
        raise ValueError(f"distance {r_grid_au[i].item()!r} AU is too {'near' if too_near else 'far'}: {cause}")
    table = {"model": columns["model"], "r_au": np.tile(r_grid_au, len(kinds)), "n_a": columns["n_a"]}
    exit_code = 0
    for scheme in schemes:
        for name in (f"rate_{scheme}_bps", f"peak_power_{scheme}_w", f"flag_{scheme}"):
            table[name] = columns[name]
        if (columns[f"flag_{scheme}"] != FLAG_OK).any():
            exit_code = 1
    table["rate_shannon_bps"] = columns["shannon_rate_bps"]
    table["rate_holevo_bps"] = columns["holevo_rate_bps"]
    params = _echo(args, noise_power_w=noise_power_watts(args.n_b, lp.f_c_hz, lp.bandwidth_hz))
    _write_table(args.out, "link", params, table)
    return exit_code


def cmd_receiver(args: argparse.Namespace) -> int:
    # --trials changes no output; it stays checked and echoed for the scripts that pass it
    if args.trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {args.trials!r}")
    _refuse_clashes({"--out": args.out, "--pattern-out": args.pattern_out})
    # checked before the receiver functions, which check their own arguments
    kinds = _model_kinds(args.model)
    models = [NoiseModel(kind, args.n_b) for kind in kinds]
    pattern = make_pattern(args.k, args.target_bin, args.energy)
    out_field = apply_receiver(pattern, args.loss, args.phase_sigma, args.seed)
    mean, std = concentration_efficiency(args.k, args.phase_sigma)

    # each bin's detector sees the energy of both polarizations; a sum
    # within a few ulps of the float maximum can overflow
    with np.errstate(over="ignore"):
        energies = np.abs(out_field[H]) ** 2 + np.abs(out_field[V]) ** 2
    if not np.isfinite(energies).all():
        raise ValueError(f"--energy {args.energy!r} overflows the output bin energies")
    # the rows H and V of each field as float columns re_h, im_h, re_v, im_v
    columns = (
        [part for field in (pattern, out_field) for row in field for part in (row.real, row.imag)]
        + [energies]
        + [click_probs(model, energies)[1] for model in models]
    )
    names = (
        ["in_re_h", "in_im_h", "in_re_v", "in_im_v"]
        + ["out_re_h", "out_im_h", "out_re_v", "out_im_v", "out_bin_energy"]
        + [f"click_prob_{kind}" for kind in kinds]
    )
    table = {"bin": range(pattern.shape[1]), **dict(zip(names, columns))}
    params = _echo(args, concentration_mean=mean, concentration_std=std)
    print(SEPARATION_NOTE, file=sys.stderr)
    _write_table(args.out, "receiver", params, table)
    if args.pattern_out is not None:
        save_pattern(_create(args.pattern_out), pattern)
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
    p_rx.add_argument("--k", type=int, default=3, help=f"number of modules, <= {MAX_K}")
    p_rx.add_argument("--target-bin", type=int, default=0)
    p_rx.add_argument("--energy", type=float, default=1.0)
    p_rx.add_argument("--loss", type=float, default=1.0, help="per-module power transmission")
    p_rx.add_argument("--phase-sigma", type=float, default=0.0, help="phase error spread, rad")
    p_rx.add_argument("--seed", type=int, default=0)
    p_rx.add_argument("--trials", type=int, default=1000, help=">= 1; changes no output")
    p_rx.add_argument("--n-b", type=float, default=0.0)
    p_rx.add_argument("--model", choices=[POISSON, GAUSS, "both"], default=POISSON)
    p_rx.add_argument("--out", default=None)
    p_rx.add_argument("--pattern-out", default=None, help="write the codebook pattern file")
    p_rx.set_defaults(func=cmd_receiver)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _created.clear()
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # a failed run leaves none of the files it created, those named by a link included
        for path in _created:
            with contextlib.suppress(OSError):
                os.remove(os.path.realpath(path))
        print(f"photonlink {args.command}: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
