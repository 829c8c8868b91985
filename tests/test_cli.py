"""End-to-end tests for the command line interface.

Each test drives ``photonlink.cli.main`` directly with an argv list and
inspects exit codes, files written to ``tmp_path``, or captured output.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
import threading
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from photonlink import __version__, capacity, cli, optimize
from photonlink.linkbudget import AU_M, load_link_params, rate_vs_distance
from photonlink.noise import NoiseModel, click_probs, poissonian
from photonlink.optimize import OOK, PPM
from photonlink.receiver import (
    apply_receiver,
    concentration_efficiency,
    load_pattern,
    make_pattern,
)

RF_CONFIG = str(resources.files("photonlink").joinpath("configs/table1_rf.cfg"))

OPTICAL_VALUES = {
    "f_c_hz": "2e14",
    "d_t_m": "0.22",
    "d_r_m": "11.8",
    "eta_det": "0.025",
    "bandwidth_hz": "2e9",
    "power_w": "4",
    "distance_m": "1.49e11",
}


def write_config(path, overrides=None, drop=(), extra=None):
    values = dict(OPTICAL_VALUES)
    values.update(overrides or {})
    for key in drop:
        values.pop(key)
    values.update(extra or {})
    lines = [f"{key} = {value}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def parse_table(text):
    meta = {}
    data_lines = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            key, sep, value = body.partition("=")
            if sep:
                meta[key.strip()] = value.strip()
        else:
            data_lines.append(line)
    return meta, list(csv.DictReader(data_lines))


def run_to_file(argv, path):
    code = cli.main(argv + ["--out", str(path)])
    meta, rows = parse_table(path.read_text(encoding="utf-8"))
    return code, meta, rows


@pytest.fixture
def format_bytes_calls(monkeypatch):
    # the values of each format_bytes call: one call per block built as bytes
    calls = []
    format_bytes = cli.format_bytes

    def counting_format_bytes(a):
        calls.append(len(a))
        return format_bytes(a)

    monkeypatch.setattr(cli, "format_bytes", counting_format_bytes)
    return calls


def n_blocks(rows):
    return -(-rows // cli._BLOCK_ROWS)


class TestWriteTable:
    def test_cells_are_written_with_str(self, tmp_path):
        out = tmp_path / "t.csv"
        table = {
            "a": np.array([0.1, -0.0]),
            "b": [0.1, 2.5e-310],
            "c": np.array([5e-324, 1e16]),
            "d": [1e16, 1e-5],
            "e": [7, -3],
            "f": ["ok", "boundary"],
        }
        cli._write_table(str(out), "demo", {"n_b": 0.01}, table)
        assert out.read_text(encoding="utf-8") == (
            f"# photonlink {__version__} demo\n"
            "# n_b = 0.01\n"
            "a,b,c,d,e,f\n"
            "0.1,0.1,5e-324,1e+16,7,ok\n"
            "-0.0,2.5e-310,1e+16,1e-05,-3,boundary\n"
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_columns_give_the_text_of_str_per_row(self, tmp_path, seed):
        # the row-wise writer, ",".join(map(str, row)) over the rows of
        # Python floats that ndarray.tolist() gives, is the reference; the
        # pool mixes 0.0 with -0.0, nan with other nan bit patterns, and
        # subnormals with values whose repr needs all 17 digits
        rng = np.random.default_rng(seed)
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
                        dtype=np.uint64).view(np.float64)
        pool = np.concatenate([
            [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e16, -1e16, 1e-5, 0.1, math.inf, -math.inf],
            nans,
            rng.standard_normal(6) * 10.0 ** rng.integers(-300, 300, 6),
        ])
        n = 300
        table = {f"x{i}": rng.choice(pool, n) for i in range(4)}
        table["unique"] = rng.standard_normal(n)
        table["scalars"] = list(rng.choice(pool, n))  # np.float64 cells
        table["ints"] = rng.integers(-5, 5, n).tolist()
        table["text"] = rng.choice(["ok", "boundary", "failed"], n).tolist()
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()))
        want = [",".join(map(str, row)) for row in rows]
        out = tmp_path / "t.csv"
        cli._write_table(str(out), "demo", {}, table)
        assert out.read_text(encoding="utf-8").splitlines()[2:] == want

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        # before the file is opened
        out = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            cli._write_table(str(out), "demo", {}, {"a": [1, 2], "b": [1]})
        assert not out.exists()

    @staticmethod
    def block_table(rows, seed, numeric):
        # distinct floats per block: about 3 per row, plus a pool of 20; only
        # a numeric table, without the flag column, is built as bytes
        rng = np.random.default_rng(seed)
        pool = np.concatenate([[0.0, -0.0, 5e-324, 1e16, 1e-5, math.inf, -math.inf, math.nan],
                               rng.standard_normal(12) * 10.0 ** rng.integers(-300, 300, 12)])
        table = {
            "bin": range(rows),
            "unique": rng.standard_normal(rows),
            "scaled": rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows),
            "pooled": rng.choice(pool, rows),
            "energy": np.abs(rng.standard_normal(rows)),
            "flag": rng.choice(["ok", "boundary"], rows).tolist(),
        }
        if numeric:
            del table["flag"]
        return table

    @pytest.mark.parametrize("numeric", [False, True])
    @pytest.mark.parametrize("rows", [0, 1, 8191, 8192, 8193])
    def test_blocks_give_the_text_of_str_per_row(self, tmp_path, format_bytes_calls, rows, numeric):
        # a full block of 8192 rows and a 1-row tail block
        table = self.block_table(rows, seed=rows, numeric=numeric)
        rows_text = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()))
        want = [",".join(map(str, row)) for row in rows_text]
        out = tmp_path / "t.csv"
        cli._write_table(str(out), "demo", {}, table)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1] == ",".join(table)
        assert lines[2:] == want
        assert len(format_bytes_calls) == (n_blocks(rows) if numeric else 0)

    @pytest.mark.parametrize("rows", [1, 300, 8193])
    def test_bytes_and_str_paths_write_the_same_bytes(self, tmp_path, format_bytes_calls, rows):
        # the same numeric table with array columns, built as bytes, and
        # with list columns, joined as str
        table = self.block_table(rows, seed=5, numeric=True)
        lists = {
            name: column.tolist() if isinstance(column, np.ndarray) else column for name, column in table.items()
        }
        reference = tmp_path / "reference.csv"
        cli._write_table(str(reference), "demo", {}, lists)
        assert format_bytes_calls == []
        out = tmp_path / "t.csv"
        cli._write_table(str(out), "demo", {}, table)
        assert out.read_bytes() == reference.read_bytes()
        assert len(format_bytes_calls) == n_blocks(rows)

    @pytest.mark.parametrize("numeric", [False, True])
    @pytest.mark.parametrize("rows", [0, 1, 8193])
    def test_byte_path_writes_an_empty_table_and_a_one_row_tail_block(
        self, tmp_path, format_bytes_calls, rows, numeric
    ):
        table = self.block_table(rows, seed=rows, numeric=numeric)
        rows_text = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()))
        want = [",".join(map(str, row)) for row in rows_text]
        out = tmp_path / "t.csv"
        cli._write_table(str(out), "demo", {}, table)
        assert out.read_text(encoding="utf-8").splitlines()[2:] == want
        assert len(format_bytes_calls) == (n_blocks(rows) if numeric else 0)

    def test_byte_path_keeps_nul_and_non_ascii_in_str_cells(self, tmp_path):
        # a number's text never holds NUL, a str cell may
        table = {"x": np.array([0.0, -1.5, 2e-300]), "s": ["a\0b", "\0", "\u00e9\u20ac"], "n": [None, 7, 0.1]}
        out = tmp_path / "t.csv"
        cli._write_table(str(out), "demo", {}, table)
        assert out.read_bytes().split(b"\n")[2:] == [
            b"0.0,a\0b,None", b"-1.5,\0,7", "2e-300,\u00e9\u20ac,0.1".encode(), b"",
        ]

    def test_range_columns_across_digit_boundaries(self, tmp_path, format_bytes_calls):
        # bin 0, 9, 10, 99, 100, 9999, 10000 and 65535 change digit count or
        # end the range; the stepped range reaches 17 digits and negatives
        table = {
            "bin": range(65536),
            "wide": range(-10**16, 10**16, 305_175_781_250),
            "x": np.zeros(65536),
        }
        out = tmp_path / "t.csv"
        cli._write_table(str(out), "demo", {}, table)
        lines = out.read_text(encoding="utf-8").splitlines()[2:]
        assert lines == [f"{b},{w},0.0" for b, w in zip(table["bin"], table["wide"])]
        for b in (0, 9, 10, 99, 100, 9999, 10000, 65535):
            assert lines[b].startswith(f"{b},")
        assert len(format_bytes_calls) == n_blocks(65536)

    @pytest.mark.parametrize(
        "column",
        [range(10**n - 2, 10**n + 2) for n in range(18)]
        + [range(5, -6, -1), range(-7, 50, 3), range(-3, cli._BLOCK_ROWS + 5)],
        ids=str,
    )
    def test_range_cells_are_str_of_each_value(self, tmp_path, format_bytes_calls, column):
        # ranges at digit boundaries, down through 0, with a step above 1 and
        # longer than a block, in the first and the last column
        table = {"bin": column, "x": np.zeros(len(column)), "again": column}
        reference = tmp_path / "reference.csv"
        cli._write_table(str(reference), "demo", {}, {"bin": list(column), "x": [0.0] * len(column), "again": list(column)})
        assert format_bytes_calls == []
        out = tmp_path / "t.csv"
        cli._write_table(str(out), "demo", {}, table)
        assert out.read_bytes() == reference.read_bytes()
        assert out.read_text(encoding="utf-8").splitlines()[2:] == [f"{i},0.0,{i}" for i in column]
        assert len(format_bytes_calls) == n_blocks(len(column))

    @staticmethod
    def row_wise(table):
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()))
        return [",".join(map(str, row)) for row in rows]

    @staticmethod
    def repeating(rng, rows, n_distinct, pool):
        # a column of exactly n_distinct values of pool, in random order
        cells = np.concatenate([pool[:n_distinct], rng.choice(pool[:n_distinct], rows - n_distinct)])
        return rng.permutation(cells)

    @pytest.mark.parametrize("numeric", [False, True])
    @pytest.mark.parametrize("rows", [1, 2, 400, 8192, 8193])
    def test_dedupe_gives_the_text_of_str_per_row(self, tmp_path, format_bytes_calls, rows, numeric):
        # distinct shares below, at and just above one half, and 1: a column
        # is formatted per distinct value only up to one half; the pools mix
        # 0.0 with -0.0, nan bit patterns and subnormals
        rng = np.random.default_rng(rows)
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
                        dtype=np.uint64).view(np.float64)
        subnormals = np.array([5e-324, -5e-324, 2.5e-310, -1e-320, 2.2250738585072009e-308])
        special = np.concatenate([[0.0, -0.0], nans, subnormals, [math.inf, -math.inf, 1e16, 1e-5]])
        pool = np.concatenate([special, rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)])
        half = rows // 2
        table = {
            "bin": range(rows),
            "quarter": self.repeating(rng, rows, max(rows // 4, 1), pool),
            "half": self.repeating(rng, rows, max(half, 1), pool),
            "above_half": self.repeating(rng, rows, half + 1, pool),
            "all_distinct": rng.permutation(pool[:rows]),
            "all_equal": np.full(rows, -0.0),
            "zeros": rng.choice([0.0, -0.0], rows),
            "nans": rng.choice(nans, rows),
            "subnormals": rng.choice(subnormals, rows),
            "flag": rng.choice(["ok", "boundary"], rows).tolist(),
        }
        if numeric:
            del table["flag"]
        out = tmp_path / "t.csv"
        cli._write_table(str(out), "demo", {}, table)
        assert out.read_text(encoding="utf-8").splitlines()[2:] == self.row_wise(table)
        assert len(format_bytes_calls) == (n_blocks(rows) if numeric else 0)

    def test_empty_table_writes_the_header_alone(self, tmp_path):
        table = {"bin": range(0), "x": np.empty(0), "flag": []}
        out = tmp_path / "t.csv"
        cli._write_table(str(out), "demo", {}, table)
        assert out.read_text(encoding="utf-8") == f"# photonlink {__version__} demo\nbin,x,flag\n"

    @pytest.mark.parametrize("flag", [False, True])
    @pytest.mark.parametrize("rows", [1, 1500])
    def test_column_types_alone_pick_the_path(self, tmp_path, format_bytes_calls, rows, flag):
        # one float or 1500 of 999 distinct: a numeric table is built as
        # bytes whatever its size, and a list column keeps it on str
        rng = np.random.default_rng(rows)
        pool = np.concatenate([[0.0, -0.0, 5e-324], rng.standard_normal(996)])
        table = {"x": self.repeating(rng, rows, min(rows, 999), pool)}
        if flag:
            table["flag"] = rng.choice(["ok", "boundary"], rows).tolist()
        out = tmp_path / "t.csv"
        cli._write_table(str(out), "demo", {}, table)
        assert out.read_text(encoding="utf-8").splitlines()[2:] == self.row_wise(table)
        assert format_bytes_calls == ([] if flag else [rows])

    @pytest.mark.parametrize(
        "argv, blocks",
        [
            (["receiver", "--k", "1"], 1),
            (["receiver", "--k", "10"], 1),
            (["receiver", "--k", "10", "--phase-sigma", "0.1", "--model", "both"], 1),
            (["receiver", "--k", "14", "--model", "both"], 2),
            (["table1"], 0),
            (["pie-sweep", "--scheme", "both", "--model", "both"], 0),
            (["link", "--model", "both"], 0),
        ],
    )
    def test_each_subcommand_takes_the_path_of_its_column_types(self, tmp_path, format_bytes_calls, argv, blocks):
        # receiver's table is floats and a range column; the others carry str columns
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv + ["--out", str(tmp_path / "t.csv")]) == 0
        assert len(format_bytes_calls) == blocks

    @pytest.mark.parametrize(
        "argv",
        [["table1"], ["receiver", "--k", "10", "--phase-sigma", "0.1", "--n-b", "1e-3", "--model", "both"]],
    )
    def test_text_only_stdout_gets_the_bytes_of_out(self, tmp_path, argv):
        # table1 is joined as str, the k = 10 receiver table built as bytes
        out = tmp_path / "t.csv"
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv + ["--out", str(out)]) == 0
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                assert cli.main(argv) == 0
        assert sink.getvalue().encode("utf-8") == out.read_bytes()

    @pytest.mark.parametrize("numeric", [False, True])
    def test_binary_stdout_gets_earlier_text_then_the_header_then_the_rows(
        self, tmp_path, monkeypatch, format_bytes_calls, numeric
    ):
        table = self.block_table(8193, seed=3, numeric=numeric)
        reference = tmp_path / "t.csv"
        cli._write_table(str(reference), "demo", {"n_b": 0.01}, table)
        raw = io.BytesIO()
        stdout = io.TextIOWrapper(raw, encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", stdout)
        # held in the text layer until the writer flushes it
        stdout.write("earlier text\n")
        cli._write_table(None, "demo", {"n_b": 0.01}, table)
        stdout.flush()
        assert raw.getvalue() == b"earlier text\n" + reference.read_bytes()
        # each write builds both of its blocks as bytes
        assert len(format_bytes_calls) == (2 * n_blocks(8193) if numeric else 0)


# sha256 of the data section (the lines after the '#' header, which echoes
# absolute config paths) of fixed runs, from the row-wise repr writer; a
# pie-sweep writes one file per scheme
PINNED_RUNS = {
    "table1": ["table1"],
    "pie-sweep": ["pie-sweep"],
    "link": ["link"],
    "receiver": ["receiver"],
    "pie-sweep-boundary": ["pie-sweep", "--n-b", "0", "1e-3", "--na-grid", "1e-12", "1e-2", "11"],
    **{
        f"receiver-k{k}-nb{n_b}": [
            "receiver", "--k", str(k), "--target-bin", "5", "--loss", "0.97", "--phase-sigma", "0.05",
            "--model", "both", "--n-b", n_b, "--seed", "7",
        ]
        for k in (6, 10, 12, 16)
        for n_b in ("0", "30")
    },
    # runs whose points of both noise models share one search, or Gauss
    # points at n_b = 0, where the two models' click statistics coincide;
    # pinned from the code that searched each model on its own
    "link-model-both": ["link", "--model", "both"],
    "link-gauss-ook-nb0": [
        "link", "--model", "gauss", "--schemes", "ook", "--n-b", "0", "--r-au-grid", "0.01", "1e4", "40",
    ],
    "pie-sweep-gauss": ["pie-sweep", "--model", "gauss", "--n-b", "0", "1e-3", "50"],
    # zero phase error over two blocks, and one noise model's table.  Pinned
    # from the np.unique writer and the np.roll cascade
    "receiver-k14-sigma0": [
        "receiver", "--k", "14", "--target-bin", "5", "--loss", "0.97", "--model", "both", "--n-b", "30",
        "--seed", "7",
    ],
    "receiver-k13-gauss": ["receiver", "--k", "13", "--phase-sigma", "0.05", "--model", "gauss", "--seed", "7"],
}
PINNED_SHA256 = {
    "table1.csv": "78283115a0bd124072202d44bec660f3950ce446ade5c920d812c5a0ce558872",
    "pie-sweep_ook.csv": "3cf953ece976aa92c6879cadd7ba45fabab62bc1e71c8458b84f31c53dfd6f03",
    "pie-sweep_ppm.csv": "20784aea23d18283d1b5f6abd32b7e2069d3b8ee9aa3b4eab5b6a352372d9a4c",
    "link.csv": "2ce635f3c28a2a520445cd51db7b1517594d0a80273b2feeab4ca128df0cf898",
    "receiver.csv": "c374c9d15aa54f4aea5f7a796ebd4a5b43eae95a2edd794884e49fab8551ea84",
    "pie-sweep-boundary_ook.csv": "9f12148365e2e7ff77e13403d30ac2bce59f345121687a6c35377b0defb71658",
    "pie-sweep-boundary_ppm.csv": "5ef21d625adccc23f1761a655c02e1215bd7d5e4722b086a54758b9dbca9ad6d",
    "receiver-k6-nb0.csv": "2bd0235c3b37ce394495d89e749e28b502f5c51b6c6b2a68fb42d1876478c2d9",
    "receiver-k6-nb30.csv": "ffcd42453816c6027fb94f86c1e0257ca32f220409f0d8aa65e3f13441e8a745",
    "receiver-k10-nb0.csv": "bebd56e48a7ee20318e944e65e43ba5016fbb116c372227134b477669196dead",
    "receiver-k10-nb30.csv": "17c8a5672807ba76cfb4d58eed10d8a6ed49cc3529c355cb3d79dddf66c8fe52",
    "receiver-k12-nb0.csv": "260d982d90a7780b7f1cc308829d8276107bb8616c9a973d84b340b1b8f2272d",
    "receiver-k12-nb30.csv": "0f45a60f30c4089871fc10f9b500980781b16ca80279c28d23d7e882ca7f033a",
    "receiver-k16-nb0.csv": "827ef0db3be81583a66f7880c54afbaa440bc9a5e10ebfc80f528855c6e46b56",
    "receiver-k16-nb30.csv": "deed4d22ac4314fc70d3c5f9a0be957cc0f9915e54e91cc058b87180f83119b0",
    "link-model-both.csv": "8c7087364f0ff1aba837429b356b4dd0db818d4a20b336e7670e75cea0da1575",
    "link-gauss-ook-nb0.csv": "a5218dc6f93ce02427b993305917ddabac1326864599a56527835591f7dc91ac",
    "pie-sweep-gauss_ook.csv": "6903167fe0b8e9da94c672fbf5382f8f9368b9b249f7300f0c93b9d4d54891f2",
    "pie-sweep-gauss_ppm.csv": "a6dc9f1d41a704ccda03264d88426ff9fa96be25afb28f098f0ab2658154b50d",
    "receiver-k14-sigma0.csv": "79cb1c3291ef25c61b4dcf16e59346d00fdf5f547e5fcb206a2ed5e76239d6ae",
    "receiver-k13-gauss.csv": "fd306ead32b7c117cb856062a0c45dbe4e53be7d38f98fe0f1f040231ce18599",
}


class TestPinnedOutput:
    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_data_section_is_byte_identical(self, tmp_path, name):
        code = cli.main(PINNED_RUNS[name] + ["--out", str(tmp_path / f"{name}.csv")])
        assert code == (1 if name == "pie-sweep-boundary" else 0)
        files = sorted(path.name for path in tmp_path.iterdir())
        assert files == sorted({f"{name}.csv", f"{name}_ook.csv", f"{name}_ppm.csv"} & set(PINNED_SHA256))
        for file in files:
            data = "".join(
                line for line in (tmp_path / file).read_text(encoding="utf-8").splitlines(keepends=True)
                if not line.startswith("#")
            )
            assert hashlib.sha256(data.encode("utf-8")).hexdigest() == PINNED_SHA256[file], file

    def test_boundary_run_has_boundary_rows(self, tmp_path):
        assert cli.main(PINNED_RUNS["pie-sweep-boundary"] + ["--out", str(tmp_path / "b.csv")]) == 1
        rows = parse_table((tmp_path / "b_ppm.csv").read_text(encoding="utf-8"))[1]
        assert any(row["flag"] == "boundary" for row in rows)


# the full '#' header of fixed runs, from the hand-written header dicts that
# the parser echo replaced; CONFIGS stands for the bundled config directory.
# With --pattern-out, its line now comes before the derived
# concentration_* lines, in parser order
HEADER_RUNS = {
    "table1": ["table1"],
    "pie-sweep": ["pie-sweep", "--scheme", "both"],
    "link-model-both": ["link", "--model", "both"],
    "receiver": ["receiver"],
    "receiver-pattern-out": ["receiver", "--pattern-out", "pattern.txt"],
}
RECEIVER_HEADER = (
    "# k = 3\n# target_bin = 0\n# energy = 1.0\n# loss = 1.0\n# phase_sigma = 0.0\n# seed = 0\n"
    "# trials = 1000\n# n_b = 0.0\n# model = poisson\n"
)
PINNED_HEADERS = {
    "table1.csv": (
        "# rf_config = CONFIGS/table1_rf.cfg\n# optical_config = CONFIGS/table1_optical.cfg\n"
        "# n_b_rf = 66.68\n# n_b_optical = 0.03\n"
    ),
    **{
        f"pie-sweep_{scheme}.csv": (
            f"# scheme = {scheme}\n# model = both\n# n_b = 0.1 0.01 0.001 0.0001\n# na_grid = 1e-06 0.1 26\n"
        )
        for scheme in (PPM, OOK)
    },
    "link-model-both.csv": (
        "# config = CONFIGS/table1_optical.cfg\n# n_b = 0.01\n# model = both\n# schemes = ppm ook\n"
        "# r_au_grid = 0.1 1000.0 29\n# noise_power_w = 2.6504280600000002e-12\n"
    ),
    "receiver.csv": RECEIVER_HEADER + "# concentration_mean = 1.0\n# concentration_std = 0.0\n",
    "receiver-pattern-out.csv": (
        RECEIVER_HEADER + "# pattern_out = pattern.txt\n# concentration_mean = 1.0\n# concentration_std = 0.0\n"
    ),
}


def header_text(path):
    return "".join(line for line in path.read_text(encoding="utf-8").splitlines(keepends=True) if line.startswith("#"))


class TestHeader:
    """The '#' header echoes every option but --out, then derived values."""

    @pytest.mark.parametrize("name", sorted(HEADER_RUNS))
    def test_header_is_pinned(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(HEADER_RUNS[name] + ["--out", f"{name}.csv"]) == 0
        configs = str(resources.files("photonlink").joinpath("configs"))
        files = sorted({f"{name}.csv", f"{name}_ook.csv", f"{name}_ppm.csv"} & set(PINNED_HEADERS))
        assert files
        for file in files:
            want = f"# photonlink {__version__} {HEADER_RUNS[name][0]}\n" + PINNED_HEADERS[file]
            assert header_text(tmp_path / file).replace(configs, "CONFIGS") == want, file

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1"],
            ["pie-sweep", "--scheme", "ppm", "--na-grid", "1e-3", "1e-3", "1"],
            ["link", "--r-au-grid", "1", "1", "1"],
            ["receiver", "--pattern-out", "pattern.txt"],
        ],
    )
    def test_every_option_but_out_is_echoed_in_parser_order(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = [a.dest for a in subparsers.choices[argv[0]]._actions if a.dest not in ("help", "out")]
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv + ["--out", "t.csv"]) == 0
        meta, _ = parse_table((tmp_path / "t.csv").read_text(encoding="utf-8"))
        assert list(meta)[: len(options)] == options

    @pytest.mark.parametrize("name", ["opt\nical.cfg", "optical.cfg\n", "opt\rical.cfg", "opt\u2028ical.cfg"])
    @pytest.mark.parametrize("command, flag", [("link", "--config"), ("table1", "--optical-config")])
    def test_config_path_with_a_line_break_is_refused(self, tmp_path, capsys, command, flag, name):
        config = tmp_path / name
        shutil.copy(cli._bundled_config("table1_optical.cfg"), config)
        argv = [command, flag, str(config), "--out", str(tmp_path / "t.csv")]
        if command == "link":
            argv += ["--r-au-grid", "1", "1", "1", "--schemes", "ppm"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"photonlink {command}: error: {flag} {str(config)!r} holds a line break, which the header cannot echo\n"
        )
        assert sorted(path.name for path in tmp_path.iterdir()) == [name]

    @pytest.mark.parametrize("name", ["pat\ntern.txt", "pattern.txt\n"])
    def test_pattern_out_with_a_line_break_is_refused(self, tmp_path, capsys, name):
        argv = ["receiver", "--pattern-out", str(tmp_path / name), "--out", str(tmp_path / "rx.csv")]
        assert cli.main(argv) == 2
        assert "--pattern-out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestOutputClashes:
    """An output that is an input file or another output of the run is
    refused before any file is written, and the file there stays as it was."""

    @pytest.mark.parametrize("spelling", ["same", "dot", "symlink"])
    @pytest.mark.parametrize(
        "command, flag", [("link", "--config"), ("table1", "--optical-config"), ("table1", "--rf-config")]
    )
    def test_output_over_the_config_is_refused(self, tmp_path, monkeypatch, capsys, command, flag, spelling):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "c.cfg"
        shutil.copy(cli._bundled_config("table1_optical.cfg"), config)
        before = config.read_bytes()
        out = {"same": str(config), "dot": "./c.cfg", "symlink": "link.cfg"}[spelling]
        if spelling == "symlink":
            os.symlink(config, tmp_path / out)
        assert cli.main([command, flag, str(config), "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"photonlink {command}: error: --out {out!r} is the same file as {flag}\n"
        )
        assert config.read_bytes() == before
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.cfg"] + (spelling == "symlink") * ["link.cfg"]

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("out", ["p.txt", "./p.txt"])
    def test_table_over_the_pattern_file_is_refused(self, tmp_path, monkeypatch, capsys, out, existing):
        monkeypatch.chdir(tmp_path)
        if existing:
            (tmp_path / "p.txt").write_text("old\n", encoding="utf-8")
        assert cli.main(["receiver", "--pattern-out", "p.txt", "--out", out]) == 2
        assert capsys.readouterr().err == (
            "photonlink receiver: error: --pattern-out 'p.txt' is the same file as --out\n"
        )
        if existing:
            assert (tmp_path / "p.txt").read_bytes() == b"old\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == (["p.txt"] if existing else [])

    def test_unwritable_second_scheme_file_keeps_the_first(self, tmp_path, capsys):
        # the ook path is a directory: the run fails before the ppm table is written
        (tmp_path / "x_ppm.csv").write_text("old\n", encoding="utf-8")
        (tmp_path / "x_ook.csv").mkdir()
        argv = ["pie-sweep", "--scheme", "both", "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv + ["--na-grid", "1e-3", "1e-2", "2", "--n-b", "0.01"]) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert (tmp_path / "x_ppm.csv").read_bytes() == b"old\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["x_ook.csv", "x_ppm.csv"]

    def test_scheme_files_that_are_one_file_are_refused(self, tmp_path, capsys):
        # the ook file links to the ppm file, which the ook table would replace
        (tmp_path / "sweep_ppm.csv").write_text("old\n", encoding="utf-8")
        os.symlink(tmp_path / "sweep_ppm.csv", tmp_path / "sweep_ook.csv")
        argv = ["pie-sweep", "--na-grid", "1e-3", "1e-3", "1", "--out", str(tmp_path / "sweep.csv")]
        assert cli.main(argv) == 2
        assert "is the same file as --out of ppm" in capsys.readouterr().err
        assert (tmp_path / "sweep_ppm.csv").read_bytes() == b"old\n"


def data_lines(path):
    return [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]


class TestOneSearchPerScheme:
    """Every noise model of an invocation shares its scheme's one search."""

    @pytest.fixture
    def searches(self, monkeypatch):
        # points per call, wherever the package looks the search up
        sizes = []
        original = optimize._maximize

        def counted(n_a, n_b, kinds, *args, **kwargs):
            sizes.append(len(n_a) * len(kinds))
            return original(n_a, n_b, kinds, *args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("photonlink") and vars(module).get("_maximize") is original:
                monkeypatch.setattr(module, "_maximize", counted)
        return sizes

    @pytest.mark.parametrize(
        "argv, sizes",
        [
            (["pie-sweep", "--scheme", "both", "--model", "both", "--n-b", "1e-2", "0"], [104, 104]),
            (["pie-sweep", "--scheme", "both", "--model", "gauss", "--n-b", "1e-2", "0"], [52, 52]),
            (["pie-sweep", "--scheme", "ook", "--model", "poisson"], [104]),
            (["link", "--model", "both", "--schemes", "ppm", "ook"], [58, 58]),
            (["link", "--model", "both", "--schemes", "ook"], [58]),
            (["link", "--model", "gauss", "--schemes", "ppm", "ook"], [29, 29]),
        ],
    )
    def test_searches_per_invocation(self, searches, tmp_path, argv, sizes):
        assert cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
        assert searches == sizes

    def test_optimize_m_searches_one_point(self, searches):
        optimize.optimize_M(1e-4, poissonian(1e-2), PPM)
        assert searches == [1]

    def test_sweep_pie_searches_its_grid_at_once(self, searches):
        optimize.sweep_pie([1e-6, 1e-4, 1e-3, 1e-2], [1e-2, 0.0], ["gauss"], OOK)
        assert searches == [8]

    def test_rate_vs_distance_searches_its_grid_at_once(self, searches):
        lp = load_link_params(RF_CONFIG)
        r_grid_m = np.geomspace(0.1, 1e4, 5) * AU_M
        assert len(rate_vs_distance(lp, poissonian(66.68), PPM, r_grid_m)) == 5
        assert searches == [5]

    @pytest.mark.parametrize(
        "argv",
        [
            ["pie-sweep", "--scheme", "ppm", "--n-b", "0", "1e-3", "1e2", "--na-grid", "1e-10", "1", "9"],
            ["pie-sweep", "--scheme", "ook", "--n-b", "1e-6", "30", "--na-grid", "1e-12", "1e-1", "7"],
            ["link", "--n-b", "0.3", "--r-au-grid", "0.01", "1e4", "11"],
            [
                "link", "--config", RF_CONFIG, "--n-b", "66.68", "--schemes", "ook",
                "--r-au-grid", "1e-3", "1e3", "6",
            ],
        ],
    )
    def test_model_both_rows_are_the_single_model_rows(self, tmp_path, argv):
        codes, rows = [], []
        for model in ("both", "poisson", "gauss"):
            path = tmp_path / f"{model}.csv"
            codes.append(cli.main(argv + ["--model", model, "--out", str(path)]))
            rows.append(data_lines(path))
        both, poisson, gauss = rows
        assert both[0] == poisson[0] == gauss[0]  # the column names
        assert both[1:] == poisson[1:] + gauss[1:]
        assert codes[0] == max(codes[1:])


def test_small_tables_do_not_build_the_format_tables(tmp_path):
    # table1 and a default pie-sweep format every float with repr; the
    # tables of the vectorized formatter are built by its first call only
    code = f"""
from photonlink import cli, floatfmt
out = {str(tmp_path)!r}
cli.main(["table1", "--out", out + "/t1.csv"])
cli.main(["pie-sweep", "--out", out + "/sweep.csv"])
print(floatfmt._tables.cache_info().currsize)
cli.main(["receiver", "--k", "8", "--phase-sigma", "0.1", "--out", out + "/rx.csv"])
print(floatfmt._tables.cache_info().currsize)
"""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, timeout=120, check=True, capture_output=True, text=True,
    )
    assert done.stdout.split() == ["0", "1"]


class TestRepeatedCalls:
    """``main`` runs many times in one process on one parser."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_defaults_survive_an_earlier_call(self, tmp_path):
        grid = ["--na-grid", "1e-3", "1e-3", "1", "--scheme", "ppm", "--model", "poisson"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["pie-sweep", "--n-b", "0.5", *grid, "--out", str(first)]) == 0
        assert cli.main(["pie-sweep", *grid, "--out", str(second)]) == 0
        meta, rows = parse_table(second.read_text(encoding="utf-8"))
        assert meta["n_b"] == "0.1 0.01 0.001 0.0001"
        assert [row["n_b"] for row in rows] == ["0.0001", "0.001", "0.01", "0.1"]
        assert cli.main(["link", "--r-au-grid", "1", "1", "1", "--out", str(first)]) == 0
        meta, _ = parse_table(first.read_text(encoding="utf-8"))
        assert meta["schemes"] == "ppm ook"
        assert meta["r_au_grid"] == "1.0 1.0 1.0"
        assert cli.main(["link", "--out", str(second)]) == 0
        meta, _ = parse_table(second.read_text(encoding="utf-8"))
        assert meta["r_au_grid"] == "0.1 1000.0 29"

    def test_version_exit_leaves_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"photonlink {__version__}\n"
        assert cli.main(["table1"]) == 0
        assert capsys.readouterr().out.startswith(f"# photonlink {__version__} table1\n")

    def test_fresh_process_writes_what_main_writes(self, capsys):
        package_root = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "photonlink.cli", "table1"],
            capture_output=True, env=env, timeout=60, check=True,
        )
        assert cli.main(["table1"]) == 0
        assert done.stdout.decode("utf-8") == capsys.readouterr().out


class TestTable1:
    def test_reproduces_both_regimes(self, tmp_path):
        code, _, rows = run_to_file(["table1"], tmp_path / "t1.csv")
        assert code == 0
        assert len(rows) == 8
        for row in rows:
            assert float(row["rel_error"]) <= 0.05, row

    def test_writes_to_stdout_by_default(self, capsys):
        assert cli.main(["table1"]) == 0
        meta, rows = parse_table(capsys.readouterr().out)
        assert len(rows) == 8
        assert "rf_config" in meta

    def test_missing_config_key_is_named(self, tmp_path, capsys):
        bad = write_config(tmp_path / "bad.cfg", drop=("power_w",))
        assert cli.main(["table1", "--rf-config", bad]) == 2
        err = capsys.readouterr().err
        assert "power_w" in err
        assert err.startswith("photonlink table1: error:")

    def test_unknown_config_key_is_named(self, tmp_path, capsys):
        bad = write_config(tmp_path / "bad.cfg", extra={"pointing_loss": "0.5"})
        assert cli.main(["table1", "--optical-config", bad]) == 2
        assert "pointing_loss" in capsys.readouterr().err

    def test_nonexistent_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        assert cli.main(["table1", "--rf-config", missing]) == 2
        assert "error" in capsys.readouterr().err


class TestPieSweep:
    def test_single_point_grid_gives_single_row(self, tmp_path):
        code, _, rows = run_to_file(
            [
                "pie-sweep",
                "--scheme", "ppm",
                "--model", "poisson",
                "--n-b", "1e-2",
                "--na-grid", "1e-3", "1e-3", "1",
            ],
            tmp_path / "sweep.csv",
        )
        assert code == 0
        assert len(rows) == 1
        row = rows[0]
        assert row["flag"] == "ok"
        assert float(row["m_star"]) > 2.0
        assert float(row["pie"]) > 0.0

    def test_both_models_are_tagged(self, tmp_path):
        code, _, rows = run_to_file(
            [
                "pie-sweep",
                "--scheme", "ook",
                "--model", "both",
                "--n-b", "1e-3",
                "--na-grid", "1e-4", "1e-4", "1",
            ],
            tmp_path / "sweep.csv",
        )
        assert code == 0
        assert {row["model"] for row in rows} == {"poisson", "gauss"}

    def test_scheme_both_writes_one_file_per_scheme(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.main(
            [
                "pie-sweep",
                "--n-b", "1e-2",
                "--na-grid", "1e-3", "1e-3", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert not out.exists()
        for scheme in ("ppm", "ook"):
            meta, rows = parse_table(
                (tmp_path / f"sweep_{scheme}.csv").read_text(encoding="utf-8")
            )
            assert meta["scheme"] == scheme
            assert len(rows) == 2  # both models by default

    def test_unwritable_second_file_removes_the_first(self, tmp_path, capsys):
        # the ook file cannot be opened, after the ppm file was written
        (tmp_path / "sweep_ook.csv").mkdir()
        argv = ["pie-sweep", "--na-grid", "1e-3", "1e-3", "1", "--out", str(tmp_path / "sweep.csv")]
        assert cli.main(argv) == 2
        assert "sweep_ook.csv" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["sweep_ook.csv"]

    def test_search_bound_hit_sets_exit_code(self, tmp_path):
        # noiseless vanishing signal pushes m_star to the search bound
        code, _, rows = run_to_file(
            [
                "pie-sweep",
                "--scheme", "ppm",
                "--model", "poisson",
                "--n-b", "0",
                "--na-grid", "1e-12", "1e-12", "1",
            ],
            tmp_path / "sweep.csv",
        )
        assert code == 1
        assert rows[0]["flag"] == "boundary"

    def test_overflowing_pulse_energy_gives_failed_rows(self, tmp_path):
        # n_a * m_max overflows above about 1.8e299: a computational flag
        code, _, rows = run_to_file(
            [
                "pie-sweep",
                "--scheme", "ppm",
                "--model", "poisson",
                "--n-b", "1e-2",
                "--na-grid", "1e295", "1e305", "3",
            ],
            tmp_path / "sweep.csv",
        )
        assert code == 1
        assert [row["flag"] for row in rows] == ["ok", "failed", "failed"]
        assert math.isnan(float(rows[1]["pie"]))

    def test_underflowing_information_gives_failed_rows(self, tmp_path):
        # PPM's information per bin goes as n_a**2 at n_b = 1e-2, so at
        # n_a = 1e-175 it underflows and every M scores 0; those rows read
        # m_star = m_min, pie 0.0 and "ok" before they were flagged
        argv = ["pie-sweep", "--scheme", "both", "--model", "poisson", "--n-b", "1e-2",
                "--na-grid", "1e-200", "1e-100", "5"]
        assert cli.main(argv + ["--out", str(tmp_path / "sweep.csv")]) == 1
        for scheme in (PPM, OOK):
            _, rows = parse_table((tmp_path / f"sweep_{scheme}.csv").read_text(encoding="utf-8"))
            for row in rows[:2]:
                assert row["flag"] == "failed"
                assert all(math.isnan(float(row[name])) for name in ("m_star", "pie", "pulse_energy"))
            assert all(row["flag"] != "failed" for row in rows[2:])
        _, rows = parse_table((tmp_path / "sweep_ppm.csv").read_text(encoding="utf-8"))
        assert (rows[2]["pie"], rows[2]["flag"]) == ("2.666979787290808e-147", "ok")

    def test_subnormal_signal_gives_failed_rows(self, tmp_path):
        # the information per bin is subnormal here: pie read 30.0 at
        # n_a = 5e-324, and 29.897 flagged "boundary" at the next two points
        code, _, rows = run_to_file(
            ["pie-sweep", "--scheme", "ppm", "--model", "poisson", "--n-b", "0",
             "--na-grid", "5e-324", "1e-310", "3"],
            tmp_path / "sweep.csv",
        )
        assert code == 1
        assert [row["flag"] for row in rows] == ["failed"] * 3
        assert all(math.isnan(float(row["pie"])) for row in rows)

    def test_reruns_are_byte_identical(self, tmp_path):
        argv = [
            "pie-sweep",
            "--scheme", "ppm",
            "--model", "both",
            "--n-b", "1e-2", "1e-3",
            "--na-grid", "1e-5", "1e-2", "7",
        ]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(argv + ["--out", str(first)]) == 0
        assert cli.main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestGridArguments:
    # exit 1 is kept for computational flags, so a grid that cannot be built
    # is a usage error.  1e17 points ask for 711 PiB, beyond any address
    # space, so that allocation fails even where memory is overcommitted
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["pie-sweep", "--na-grid", "nan", "1e-1", "3"],
            ["pie-sweep", "--na-grid", "1e-6", "inf", "3"],
            ["pie-sweep", "--na-grid", "1e-6", "1e-1", "inf"],
            ["pie-sweep", "--na-grid", "1e-6", "1e-1", "nan"],
            ["pie-sweep", "--na-grid", "1e-6", "1e-1", "1e17"],
            ["link", "--r-au-grid", "1", "10", "inf"],
            ["link", "--r-au-grid", "1", "nan", "3"],
            ["link", "--r-au-grid", "1e300", "1e308", "3"],
        ],
    )
    def test_unusable_grid_is_a_usage_error(self, argv, tmp_path, capsys):
        assert cli.main(argv + ["--out", str(tmp_path / "table.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"photonlink {argv[0]}: error: ")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    # the grid is typed in AU, so a distance that overflows in metres is
    # named in AU, before any search
    @pytest.mark.filterwarnings("error")
    def test_distance_overflowing_in_metres_is_named_in_au(self, tmp_path, capsys):
        argv = ["link", "--r-au-grid", "1e300", "1e308", "3", "--out", str(tmp_path / "table.csv")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "photonlink link: error: distance 1e+300 AU overflows in metres\n"
        assert list(tmp_path.iterdir()) == []


class TestGridBound:
    # a grid past MAX_GRID_POINTS is refused before numpy builds it, so no
    # grid here is ever allocated
    @pytest.mark.parametrize("points", ["1e12", str(cli.MAX_GRID_POINTS + 1)])
    @pytest.mark.parametrize("command, flag", [("pie-sweep", "--na-grid"), ("link", "--r-au-grid")])
    def test_oversized_grid_is_a_usage_error(
        self, command, flag, points, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(cli.np, "geomspace", refuse)
        argv = [command, flag, "1", "10", points, "--out", str(tmp_path / "table.csv")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"photonlink {command}: error: ")
        assert str(cli.MAX_GRID_POINTS) in err
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


class TestBackgroundEdges:
    # -0.0 passes every n_b >= 0 check and must act as the 0.0 it equals
    @pytest.mark.parametrize(
        "argv",
        [
            ["pie-sweep", "--scheme", "ppm", "--na-grid", "1e-5", "1e-1", "5"],
            ["pie-sweep", "--scheme", "ook", "--na-grid", "1e-5", "1e-1", "5"],
            ["link", "--r-au-grid", "0.1", "1000", "5"],
            ["receiver", "--k", "4", "--phase-sigma", "0.2", "--seed", "3"],
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_negative_zero_writes_the_data_of_positive_zero(self, argv, tmp_path):
        texts = []
        for n_b in ("-0.0", "0.0"):
            path = tmp_path / f"{n_b}.csv"
            assert cli.main(argv + ["--model", "both", "--n-b", n_b, "--out", str(path)]) == 0
            texts.append(path.read_text(encoding="utf-8"))
        assert parse_table(texts[0])[1] == parse_table(texts[1])[1]
        if argv[0] == "link":
            assert parse_table(texts[0])[0]["noise_power_w"] == "0.0"

    # every background is checked before anything is built, and the first
    # bad one in the given order is named as a float
    @pytest.mark.parametrize(
        "argv, value",
        [
            (["pie-sweep", "--n-b", "0.1", "-1"], "-1.0"),
            (["pie-sweep", "--n-b", "nan"], "nan"),
            (["pie-sweep", "--model", "gauss", "--n-b", "inf", "0.1"], "inf"),
            (["link", "--n-b", "-1"], "-1.0"),
            (["link", "--model", "both", "--n-b", "nan"], "nan"),
        ],
    )
    def test_bad_background_is_a_usage_error(self, argv, value, tmp_path, capsys):
        assert cli.main(argv + ["--out", str(tmp_path / "table.csv")]) == 2
        assert capsys.readouterr().err == (
            f"photonlink {argv[0]}: error: n_b must be finite and >= 0, got {value}\n"
        )
        assert list(tmp_path.iterdir()) == []

    # (M - 1) log(1 - p_b) overflows to -inf above a Poisson n_b of about
    # 1.8e299, which is the right limit and must not warn
    @pytest.mark.parametrize(
        "argv",
        [
            ["pie-sweep", "--na-grid", "1e-6", "1e-1", "4"],
            ["link", "--schemes", "ppm", "ook", "--r-au-grid", "0.1", "1000", "4"],
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_largest_backgrounds_run_without_warnings(self, argv, tmp_path):
        for n_b in ("1e300", "1e308"):
            out = tmp_path / "table.csv"
            assert cli.main(argv + ["--model", "both", "--n-b", n_b, "--out", str(out)]) == 0
            for path in tmp_path.iterdir():
                _, rows = parse_table(path.read_text(encoding="utf-8"))
                for column in ("pie", "rate_ppm_bps", "rate_ook_bps"):
                    assert all(float(row[column]) == 0.0 for row in rows if column in row)


class TestLink:
    def test_rates_at_the_reference_distance(self, tmp_path):
        code, _, rows = run_to_file(
            ["link", "--n-b", "0.03", "--r-au-grid", "1", "1", "1"],
            tmp_path / "link.csv",
        )
        assert code == 0
        row = rows[0]
        assert float(row["rate_shannon_bps"]) == pytest.approx(87e6, rel=0.05)
        assert float(row["rate_holevo_bps"]) == pytest.approx(273e6, rel=0.05)

    def test_metadata_reports_noise_power(self, tmp_path):
        _, meta, _ = run_to_file(
            ["link", "--n-b", "1e-2", "--r-au-grid", "1", "1", "1"],
            tmp_path / "link.csv",
        )
        assert float(meta["noise_power_w"]) == pytest.approx(2.65e-12, rel=0.01)

    def test_ook_to_ppm_rate_ratio_near_ten(self, tmp_path):
        """The link table carries the library's rates at 10 au unchanged.

        The ratio is pinned as in test_linkbudget.py; its [7, 13] "about
        tenfold" window is acceptance criterion c05.
        """
        code, _, rows = run_to_file(
            ["link", "--n-b", "1e-2", "--r-au-grid", "10", "10", "1"],
            tmp_path / "link.csv",
        )
        assert code == 0
        row = rows[0]
        assert row["model"] == "poisson"
        assert float(row["r_au"]) == 10.0
        # the CLI writes floats with repr, so the round trip is exact
        config = str(resources.files("photonlink").joinpath("configs/table1_optical.cfg"))
        lp = load_link_params(config)
        r_m = [10.0 * AU_M]
        for scheme in (OOK, PPM):
            expected = rate_vs_distance(lp, poissonian(1e-2), scheme, r_m)[0].rate_bps
            assert float(row[f"rate_{scheme}_bps"]) == expected
        ratio = float(row["rate_ook_bps"]) / float(row["rate_ppm_bps"])
        assert ratio == pytest.approx(6.965934322187115, rel=1e-9)

    def test_default_grid_stays_in_bounds(self, tmp_path):
        code, _, rows = run_to_file(["link"], tmp_path / "link.csv")
        assert code == 0
        assert len(rows) == 29
        assert all(row["flag_ppm"] == "ok" and row["flag_ook"] == "ok" for row in rows)

    def test_reference_rates_computed_once_per_row(self, tmp_path, monkeypatch):
        # count every evaluation, wherever the package looks the functions up
        calls = {"shannon_capacity": 0, "holevo_capacity": 0}
        for name in calls:
            original = getattr(capacity, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            for module in list(sys.modules.values()):
                if module.__name__.startswith("photonlink") and vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, counted)
        code, _, rows = run_to_file(["link"], tmp_path / "link.csv")
        assert code == 0
        assert len(rows) == 29
        assert calls == {"shannon_capacity": 29, "holevo_capacity": 29}

    def test_rate_falls_with_distance(self, tmp_path):
        _, _, rows = run_to_file(
            ["link", "--schemes", "ppm", "--r-au-grid", "1", "100", "5"],
            tmp_path / "link.csv",
        )
        rates = [float(row["rate_ppm_bps"]) for row in rows]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_schemes_flag_requires_a_value(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["link", "--schemes"])
        assert excinfo.value.code == 2

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["link", "--schemes", "qam"])
        assert excinfo.value.code == 2

    # the grid is typed in AU, so a distance whose n_a has no optimum is
    # named in AU, with the reason
    @pytest.mark.filterwarnings("error")
    def test_overflowing_distance_is_named_as_a_float(self, tmp_path, capsys):
        out = tmp_path / "link.csv"
        assert cli.main(["link", "--r-au-grid", "1e-160", "1", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "photonlink link: error: distance 1e-160 AU is too near: "
            "pulse energy n_a * m_max overflows at n_a = inf\n"
        )
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_distance_is_named_as_a_float_under_both_models(self, tmp_path, capsys):
        out = tmp_path / "link.csv"
        argv = ["link", "--model", "both", "--r-au-grid", "1e-160", "1", "3", "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "photonlink link: error: distance 1e-160 AU is too near: "
            "pulse energy n_a * m_max overflows at n_a = inf\n"
        )
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "grid, message",
        [
            (["1e-300", "1e-290", "3"], "1e-300 AU is too near: pulse energy n_a * m_max overflows at n_a = inf"),
            # n_a is finite here, n_a * 1e9 is not
            (["1e-151", "1e-151", "1"],
             "1e-151 AU is too near: pulse energy n_a * m_max overflows at n_a = 3.139916241795556e+300"),
            (["1e200", "1e201", "2"], "1e+200 AU is too far: n_a underflows to 0"),
            # n_a is positive, but the information per bin underflows: the
            # rates read 0.0 and "ok", and at 1e145 AU the peak power 0.0 W
            (["1e140", "1e150", "3"],
             "1e+140 AU is too far: the information per bin underflows at n_a = 3.139916241795556e-282"),
            (["1e60", "1e150", "4"],
             "1e+90 AU is too far: the information per bin underflows at n_a = 3.139916241795557e-182"),
        ],
    )
    def test_distance_without_optimum_is_named_in_au(self, grid, message, tmp_path, capsys):
        out = tmp_path / "link.csv"
        assert cli.main(["link", "--model", "both", "--r-au-grid", *grid, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"photonlink link: error: distance {message}\n"
        assert not out.exists()

    def test_every_scheme_is_checked(self, tmp_path, capsys):
        # OOK still has an optimum at this n_a, PPM none: the run was
        # judged by the first scheme's flags and wrote the table
        argv = ["link", "--r-au-grid", "5e75", "5e75", "1", "--out", str(tmp_path / "link.csv")]
        assert cli.main(argv + ["--schemes", "ook", "ppm"]) == 2
        assert capsys.readouterr().err == (
            "photonlink link: error: distance 5e+75 AU is too far: "
            "the information per bin underflows at n_a = 1.255966496718222e-153\n"
        )
        assert list(tmp_path.iterdir()) == []
        assert cli.main(argv + ["--schemes", "ook"]) == 1

    def test_table_is_rate_vs_distance_field_by_field(self, tmp_path):
        # one sweep lays out the table, row by row what rate_vs_distance
        # gives for each model and scheme; the reference rates are the
        # capacities' own, scaled by the bandwidth
        code, _, rows = run_to_file(
            ["link", "--model", "both", "--schemes", "ppm", "ook", "--r-au-grid", "0.1", "1e3", "9"],
            tmp_path / "link.csv",
        )
        assert code == 0
        lp = load_link_params(str(resources.files("photonlink").joinpath("configs/table1_optical.cfg")))
        r_m = np.geomspace(0.1, 1e3, 9) * AU_M
        assert len(rows) == 18
        for k, kind in enumerate(("poisson", "gauss")):
            table = rows[9 * k : 9 * (k + 1)]
            assert [row["model"] for row in table] == [kind] * 9
            for scheme in (PPM, OOK):
                expected = rate_vs_distance(lp, NoiseModel(kind, 1e-2), scheme, r_m)
                for row, want in zip(table, expected):
                    assert float(row["r_au"]) * AU_M == want.distance_m
                    assert float(row["n_a"]) == want.n_a
                    assert float(row[f"rate_{scheme}_bps"]) == want.rate_bps
                    assert float(row[f"peak_power_{scheme}_w"]) == want.peak_power_w
                    assert row[f"flag_{scheme}"] == want.flag
                    assert float(row["rate_shannon_bps"]) == want.shannon_rate_bps
                    assert float(row["rate_holevo_bps"]) == want.holevo_rate_bps
                    assert want.shannon_rate_bps == capacity.shannon_capacity(want.n_a, want.n_b) * lp.bandwidth_hz
                    assert want.holevo_rate_bps == capacity.holevo_capacity(want.n_a, want.n_b) * lp.bandwidth_hz

    @pytest.mark.parametrize("n_b", ["0", "1e-2"])
    @pytest.mark.parametrize("config", ["table1_optical.cfg", "table1_rf.cfg"])
    def test_holevo_rate_is_never_below_shannon(self, tmp_path, config, n_b):
        # the grid runs from n_a far above n_b + 1, where the h-form of the
        # Holevo capacity lost its digits, to n_a far below n_b
        path = str(resources.files("photonlink").joinpath(f"configs/{config}"))
        _, _, rows = run_to_file(
            ["link", "--config", path, "--n-b", n_b, "--r-au-grid", "1e-20", "1e4", "40"],
            tmp_path / "link.csv",
        )
        assert len(rows) == 40
        for row in rows:
            holevo, shannon = float(row["rate_holevo_bps"]), float(row["rate_shannon_bps"])
            assert holevo >= shannon > 0.0, row

    def test_holevo_rate_is_not_below_shannon_at_a_huge_background(self, tmp_path):
        # n_b + 1 rounds to n_b at 1e22: the Holevo rate read 0.0 there,
        # next to a Shannon rate of 4.1e9 bit/s
        _, _, rows = run_to_file(
            ["link", "--n-b", "1e22", "--r-au-grid", "1e-12", "1e-12", "1"], tmp_path / "link.csv"
        )
        assert len(rows) == 1
        holevo, shannon = float(rows[0]["rate_holevo_bps"]), float(rows[0]["rate_shannon_bps"])
        assert holevo >= shannon > 4e9, rows[0]

    def test_rejects_repeated_scheme(self, tmp_path, capsys):
        out = tmp_path / "link.csv"
        assert cli.main(["link", "--schemes", "ook", "ppm", "ppm", "--out", str(out)]) == 2
        assert "'ppm' given more than once" in capsys.readouterr().err
        assert not out.exists()


class TestReceiverCommand:
    def test_ideal_run_concentrates_on_the_target(self, tmp_path):
        code, meta, rows = run_to_file(
            ["receiver", "--k", "3", "--target-bin", "5", "--n-b", "0"],
            tmp_path / "rx.csv",
        )
        assert code == 0
        assert meta["concentration_mean"] == "1.0"
        assert meta["concentration_std"] == "0.0"
        for row in rows:
            prob = float(row["click_prob_poisson"])
            if row["bin"] == "5":
                assert prob == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
                assert float(row["out_bin_energy"]) == pytest.approx(1.0, rel=1e-12)
            else:
                assert prob < 1e-12

    def test_click_columns_are_the_click_probabilities(self, tmp_path):
        argv = ["--k", "5", "--target-bin", "7", "--energy", "2.5", "--loss", "0.93"]
        argv += ["--phase-sigma", "0.1", "--seed", "3", "--n-b", "0.02", "--model", "both"]
        code, _, rows = run_to_file(["receiver"] + argv, tmp_path / "rx.csv")
        assert code == 0
        out_field = apply_receiver(make_pattern(5, 7, 2.5), 0.93, 0.1, 3)
        # the CLI writes floats with repr, so the round trip is exact
        energies = [float(row["out_bin_energy"]) for row in rows]
        assert energies == np.sum(np.abs(out_field) ** 2, axis=0).tolist()
        for kind in ("poisson", "gauss"):
            column = [float(row[f"click_prob_{kind}"]) for row in rows]
            assert column == [click_probs(NoiseModel(kind, 0.02), e)[1] for e in energies]

    def test_amplitude_columns_are_the_field_rows(self, tmp_path):
        argv = ["receiver", "--k", "4", "--target-bin", "9", "--energy", "0.3", "--loss", "0.95"]
        code, _, rows = run_to_file(argv + ["--phase-sigma", "0.2", "--seed", "6"], tmp_path / "rx.csv")
        assert code == 0
        pattern = make_pattern(4, 9, 0.3)
        for side, field in (("in", pattern), ("out", apply_receiver(pattern, 0.95, 0.2, 6))):
            for pol, row in (("h", field[0]), ("v", field[1])):
                written = [complex(float(r[f"{side}_re_{pol}"]), float(r[f"{side}_im_{pol}"])) for r in rows]
                assert written == row.tolist(), (side, pol)

    def test_scheduling_note_goes_to_stderr(self, capsys):
        assert cli.main(["receiver", "--k", "1"]) == 0
        assert cli.SEPARATION_NOTE in capsys.readouterr().err

    def test_phase_noise_lowers_the_mean(self, tmp_path):
        code, meta, _ = run_to_file(
            ["receiver", "--k", "4", "--phase-sigma", "0.05", "--trials", "1000"],
            tmp_path / "rx.csv",
        )
        assert code == 0
        mean = float(meta["concentration_mean"])
        assert 0.9 < mean < 1.0
        assert float(meta["concentration_std"]) > 0.0

    def test_negative_zero_phase_spread_writes_the_data_of_zero(self, tmp_path):
        paths = [tmp_path / "negative.csv", tmp_path / "zero.csv"]
        for sigma, path in zip(("-0.0", "0"), paths):
            argv = ["receiver", "--k", "8", "--phase-sigma", sigma, "--loss", "0.9", "--out", str(path)]
            assert cli.main(argv) == 0
        assert data_lines(paths[0]) == data_lines(paths[1])

    def test_trials_change_no_output(self, tmp_path):
        # the statistics are exact; --trials is parsed, checked and echoed
        argv = ["receiver", "--k", "3", "--phase-sigma", "0.1", "--seed", "4"]
        texts = {}
        for trials in ("1", "1000000000"):
            path = tmp_path / f"{trials}.csv"
            assert cli.main(argv + ["--trials", trials, "--out", str(path)]) == 0
            texts[trials] = path.read_text(encoding="utf-8")
        meta, _ = parse_table(texts["1000000000"])
        assert meta["trials"] == "1000000000"
        assert texts["1"] == texts["1000000000"].replace("# trials = 1000000000", "# trials = 1")
        exact = concentration_efficiency(3, 0.1)
        assert (meta["concentration_mean"], meta["concentration_std"]) == tuple(map(repr, exact))
        assert float(meta["concentration_mean"]) == pytest.approx(0.9925373598, rel=1e-10)

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--trials", "0", "trials must be an integer >= 1, got 0"),
            ("--seed", "-1", "rng_seed must be an integer >= 0, got -1"),
        ],
    )
    def test_bad_trials_or_seed_is_a_usage_error(self, flag, value, message, tmp_path, capsys):
        out = tmp_path / "rx.csv"
        assert cli.main(["receiver", flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"photonlink receiver: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n-b", "-1", "n_b must be finite and >= 0, got -1.0"),
            ("--n-b", "nan", "n_b must be finite and >= 0, got nan"),
            ("--trials", "0", "trials must be an integer >= 1, got 0"),
        ],
    )
    @pytest.mark.parametrize("model", ["poisson", "both"])
    def test_bad_arguments_stop_before_the_cascade(self, flag, value, message, model, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the cascade ran on bad arguments")

        monkeypatch.setattr(cli, "make_pattern", refuse)
        monkeypatch.setattr(cli, "apply_receiver", refuse)
        out = tmp_path / "rx.csv"
        argv = ["receiver", "--k", "16", "--model", model, flag, value, "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"photonlink receiver: error: {message}\n"
        assert not out.exists()

    def test_pattern_out_matches_the_codebook(self, tmp_path):
        pattern_path = tmp_path / "pattern.txt"
        code = cli.main(
            [
                "receiver",
                "--k", "2",
                "--target-bin", "3",
                "--out", str(tmp_path / "rx.csv"),
                "--pattern-out", str(pattern_path),
            ]
        )
        assert code == 0
        assert np.array_equal(load_pattern(str(pattern_path)), make_pattern(2, 3, 1.0))

    def test_unwritable_table_removes_the_pattern_file(self, tmp_path, capsys):
        argv = ["receiver", "--pattern-out", str(tmp_path / "p.txt"), "--out", str(tmp_path / "nodir" / "rx.csv")]
        assert cli.main(argv) == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_keeps_a_file_it_did_not_create(self, tmp_path, capsys):
        # the file that was there keeps its bytes
        pattern_path = tmp_path / "p.txt"
        pattern_path.write_text("old\n", encoding="utf-8")
        argv = ["receiver", "--pattern-out", str(pattern_path), "--out", str(tmp_path / "nodir" / "rx.csv")]
        assert cli.main(argv) == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["p.txt"]
        assert pattern_path.read_bytes() == b"old\n"

    def test_unwritable_pattern_keeps_the_table_that_was_there(self, tmp_path, capsys):
        table_path = tmp_path / "rx.csv"
        table_path.write_text("old\n", encoding="utf-8")
        argv = ["receiver", "--pattern-out", str(tmp_path / "nodir" / "p.txt"), "--out", str(table_path)]
        assert cli.main(argv) == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["rx.csv"]
        assert table_path.read_bytes() == b"old\n"

    def test_write_that_fails_partway_removes_the_file_it_created(self, tmp_path, monkeypatch, capsys):
        # k = 14 writes two blocks; the second fails as a full disk would
        block_bytes, calls = cli._block_bytes, []

        def full_disk(columns, rows):
            calls.append(rows)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return block_bytes(columns, rows)

        monkeypatch.setattr(cli, "_block_bytes", full_disk)
        assert cli.main(["receiver", "--k", "14", "--out", str(tmp_path / "new.csv")]) == 2
        assert len(calls) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_removes_the_file_a_dangling_link_named(self, tmp_path, capsys):
        (tmp_path / "rx.csv").symlink_to("target.csv")
        argv = ["receiver", "--out", str(tmp_path / "rx.csv"), "--pattern-out", str(tmp_path / "nodir" / "p.txt")]
        assert cli.main(argv) == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["rx.csv"]
        assert not (tmp_path / "rx.csv").exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes need os.mkfifo")
    def test_named_pipe_as_out_receives_the_whole_table(self, tmp_path):
        # with a second output the run opens its outputs before it writes;
        # the pipe is opened once, by the writer: an earlier open and close
        # would end the reader's stream and leave the writer waiting for another
        pattern = tmp_path / "p.txt"
        argv = ["receiver", "--k", "5", "--phase-sigma", "0.1", "--pattern-out", str(pattern)]
        reference = tmp_path / "rx.csv"
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv + ["--out", str(reference)]) == 0
        want_pattern = pattern.read_bytes()
        pattern.unlink()
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        package_root = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "photonlink.cli", *argv, "--out", str(fifo)],
                env=env, timeout=60, capture_output=True,
            )
        finally:
            # a reader still waiting for a writer gets an empty stream
            with contextlib.suppress(OSError):
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=60)
        assert not reader.is_alive()
        assert done.returncode == 0, done.stderr
        assert received == [reference.read_bytes()]
        assert pattern.read_bytes() == want_pattern

    def test_oversized_k_is_refused(self, tmp_path, capsys):
        code = cli.main(["receiver", "--k", "17", "--out", str(tmp_path / "rx.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "16" in err
        assert not (tmp_path / "rx.csv").exists()

    @pytest.mark.parametrize("k, energy", [("16", "1e-320"), ("1", "1e-308")])
    def test_underflowing_bin_energy_is_refused(self, k, energy, tmp_path, capsys):
        # it wrote every amplitude as 0.0 and exited 0
        argv = ["receiver", "--k", k, "--energy", energy]
        argv += ["--out", str(tmp_path / "rx.csv"), "--pattern-out", str(tmp_path / "p.txt")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"photonlink receiver: error: total_energy = {float(energy)!r} is too small for k = {k}: "
            "the energy per bin underflows\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("k", ["1", "10", "16"])
    def test_overflowing_bin_energy_is_refused_by_option(self, k, tmp_path, capsys):
        # it warned "overflow encountered in square" (an error under this
        # suite's filterwarnings) and named pulse_energy, which is no option
        argv = ["receiver", "--k", k, "--energy", "1.7976931348623157e308"]
        argv += ["--out", str(tmp_path / "rx.csv"), "--pattern-out", str(tmp_path / "p.txt")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "photonlink receiver: error: --energy 1.7976931348623157e+308 overflows the output bin energies\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_largest_energy_that_fits_still_runs(self, tmp_path):
        path = tmp_path / "rx.csv"
        assert cli.main(["receiver", "--k", "3", "--energy", "1.7e308", "--out", str(path)]) == 0
        _, rows = parse_table(path.read_text(encoding="utf-8"))
        assert float(rows[0]["out_bin_energy"]) == pytest.approx(1.7e308, rel=1e-14)
        assert [float(row["click_prob_poisson"]) for row in rows] == [1.0] + [0.0] * 7

    def test_bad_loss_is_a_usage_error(self, capsys):
        assert cli.main(["receiver", "--loss", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_noisy_reruns_are_byte_identical(self, tmp_path):
        argv = [
            "receiver",
            "--k", "3",
            "--phase-sigma", "0.2",
            "--trials", "200",
            "--seed", "11",
            "--model", "both",
            "--n-b", "0.05",
        ]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(argv + ["--out", str(first)]) == 0
        assert cli.main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
