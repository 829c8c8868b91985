"""photonlink benchmark: one closed-loop client, oracle-checked outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

``--workload`` is ``sweep``, ``receiver`` or ``point-queries`` (see
perfbench/README.md).  The runner imports ``photonlink`` from ``src/`` of
the checkout and drives it only through ``photonlink.cli.main(argv)``
(output to a file in a scratch directory) and the public library functions.
Every output is checked against the oracles in ``oracle.py``.

``--trace 0`` measures for ``--seconds`` (finishing the cycle of jobs under
way) and prints the end-to-end metrics, with every time scaled to the
reference speed of ``calibrate.py``.  ``--trace 1`` runs a fixed number
of cycles twice, untraced and then traced, and prints the per-layer
metrics.  ``--seconds 0`` runs a single cycle: a quick, untimed correctness
pass.  The last line of standard output is the result object; the line
before it holds the details and the environment record.
"""

from __future__ import annotations

import os

# one thread per BLAS/OpenMP pool, set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG_DIR = SRC / "photonlink" / "configs"
WORK_DIR = ROOT / ".perfbench_work"

sys.path.insert(0, str(BENCH_DIR))
import calibrate  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 21
TAIL_BEYOND = 10
# op_tail_ms percentile per workload.  It is fixed, so that runs with more
# or fewer ops report the same percentile, and each leaves at least
# TAIL_BEYOND samples beyond it in a 30 s run of the seed code (about 300,
# 140 and 11000 ops).  Each sits inside a block of similar jobs, not on the
# edge between two: the pie-sweep and link jobs of sweep, the three k = 15
# jobs of a receiver cycle, the rate_vs_distance calls of point-queries
# (there p99 and above measure preemption on a shared machine).
TAIL_PERCENTILE = {"sweep": 90.0, "receiver": 92.0, "point-queries": 90.0}
# cycles per traced run, sized so that both passes fit in about --seconds
TRACE_CYCLES_PER_S = {"sweep": 0.15, "receiver": 0.03, "point-queries": 12.0}

# each fresh process times the reference block after the import, which it
# must not precede: the block loads numpy, the bulk of the import
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import photonlink.cli\n"
    "photonlink.cli.build_parser()\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import calibrate\n"
    "ref = [calibrate.time_block() for _ in range(5)]\n"
    "print(repr(t1 - t0), repr(calibrate.median(ref)), photonlink.__file__)\n"
)

PER_LAYER = {
    "noise.click_probs.calls": "count",
    "noise.click_probs.self_s": "s",
    "modulation.ppm_mi_per_bin.calls": "count",
    "modulation.ppm_mi_per_bin.self_s": "s",
    "modulation.ook_mi_per_bin.calls": "count",
    "modulation.ook_mi_per_bin.self_s": "s",
    "optimize.optimize_M.calls": "count",
    "optimize.optimize_M.self_s": "s",
    "optimize.sweep_pie.self_s": "s",
    "optimize.evals_per_opt": "evals/opt",
    "optimize.ok_frac": "ratio",
    "capacity.calls": "count",
    "capacity.self_s": "s",
    "linkbudget.rate_vs_distance.self_s": "s",
    "linkbudget.rows": "count",
    "receiver.apply_module.calls": "count",
    "receiver.apply_module.self_s": "s",
    "receiver.concentration_efficiency.self_s": "s",
    "receiver.make_pattern.self_s": "s",
    "receiver.detect_pattern.calls": "count",
    "receiver.detect_pattern.self_s": "s",
    "receiver.bytes_moved_computed": "bytes",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
    "points_per_s": "1/s",
    "trials_per_s": "1/s",
    "max_rel_err": "ratio",
    "error_rate": "ratio",
}


class Runner:
    """Runs jobs one after another, times each op and checks its output."""

    def __init__(self, workdir: Path, track: calibrate.SpeedTrack | None = None):
        import photonlink
        import photonlink.cli

        self.pl = photonlink
        self.cli = photonlink.cli
        self.chk = oracle.Checker()
        self.workdir = workdir
        self.links = {
            name: photonlink.load_link_params(str(CONFIG_DIR / fname))
            for name, fname in workloads.CONFIG_FILES.items()
        }
        self.configs = {
            name: oracle.read_config(str(CONFIG_DIR / fname))
            for name, fname in workloads.CONFIG_FILES.items()
        }
        self.track = track
        self.op_times: list[float] = []
        self.op_bounds: list[tuple[float, float]] = []
        self.op_labels: list[str] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.stat_failures: list[str] = []
        self.points = 0
        self.ok_points = 0
        self.trials = 0
        self.bytes_written = 0

    def work(self) -> int:
        """Work done so far: Monte Carlo trials plus optimized points."""
        return self.trials + self.points

    def _timed(self, t0: float) -> None:
        t1 = time.perf_counter()
        self.op_times.append(t1 - t0)
        self.op_bounds.append((t0, t1))
        if self.track is not None:
            # right after a long op, before its output is checked
            self.track.sample()

    def scaled_times(self) -> list[float]:
        """Op times at the reference speed (raw times without a track)."""
        if self.track is None:
            return list(self.op_times)
        return [t * self.track.scale(*b) for t, b in zip(self.op_times, self.op_bounds)]

    def run(self, job) -> None:
        if self.track is not None:
            self.track.sample()
        self.attempted += 1
        timed = len(self.op_times)
        try:
            misses = self._cli(job) if job.is_cli else self._library(job)
        except Exception as exc:  # one failed op must not end the run
            misses = [f"{job.kind}: {type(exc).__name__}: {exc}"]
        self.op_labels += [job.label] * (len(self.op_times) - timed)
        if misses:
            self.failures.append(f"{' '.join(job.argv) or job.kind} {job.params}: {misses[0]}")

    def _cli(self, job) -> list[str]:
        out = self.workdir / "job.csv"
        argv = [*job.argv, "--out", str(out)]
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(sink):
                rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        self._timed(t0)
        texts = []
        for path in sorted(self.workdir.glob("job*.csv")):
            texts.append(path.read_text(encoding="utf-8"))
            self.bytes_written += path.stat().st_size
            path.unlink()
        if rc not in (0, 1) or not texts:
            return [f"exit code {rc}: {sink.getvalue().strip()[-300:]}"]
        if job.kind == "pie-sweep":
            misses, rows, ok = oracle.check_pie_sweep(self.chk, texts, rc)
        elif job.kind == "link":
            misses, rows, ok = oracle.check_link(self.chk, texts[0], rc)
        elif job.kind == "table1":
            misses, rows, ok = oracle.check_table1(self.chk, texts[0], rc), 0, 0
        else:
            misses, stat = oracle.check_receiver(self.chk, texts[0], rc)
            self.stat_failures += stat
            misses += stat
            rows = ok = 0
            self.trials += job.params["trials"]
        self.points += rows
        self.ok_points += ok
        return misses

    def _library(self, job) -> list[str]:
        p = job.params
        pl = self.pl
        if job.kind == "optimize_M":
            t0 = time.perf_counter()
            opt = pl.optimize_M(p["n_a"], pl.NoiseModel(p["model"], p["n_b"]), p["scheme"])
            self._timed(t0)
            self.points += 1
            self.ok_points += not opt.at_boundary
            return oracle.check_modulation_optimum(
                self.chk, p["scheme"], p["model"], p["n_b"], p["n_a"], opt
            )
        r_m = p["r_au"] * oracle.AU_M
        lp = self.links[p["config"]]
        t0 = time.perf_counter()
        rows = pl.rate_vs_distance(lp, pl.NoiseModel(p["model"], p["n_b"]), p["scheme"], [r_m])
        self._timed(t0)
        if len(rows) != 1:
            return [f"rate_vs_distance returned {len(rows)} rows for one distance"]
        row = rows[0]
        self.points += 1
        self.ok_points += row.flag == "ok"
        cfg = self.configs[p["config"]]
        misses = oracle.check_distance_row(
            self.chk, cfg, p["model"], p["scheme"], p["n_b"], r_m, row.n_a, row.m_star,
            row.rate_bps, row.peak_power_w, row.flag,
        )
        return misses + oracle.check_capacities(
            self.chk, f"rate_vs_distance r_m={r_m!r}", row.n_a, p["n_b"], cfg["bandwidth_hz"],
            row.shannon_rate_bps, row.holevo_rate_bps,
        )


def run_cycles(runner: Runner, stream, seconds: float | None, cycles: int | None) -> int:
    """Closed loop over whole cycles, for ``seconds`` or for ``cycles``."""
    t_end = time.perf_counter() + (seconds or 0.0)
    if runner.track is not None:
        runner.track.sample(force=True)
    done = 0
    while True:
        for job in stream.next_cycle():
            runner.run(job)
        done += 1
        if (cycles is not None and done >= cycles) or (cycles is None and time.perf_counter() >= t_end):
            break
    if runner.track is not None:
        runner.track.sample(force=True)
    return done


def measure_setup() -> tuple[float, list[float], list[float]]:
    """Median fresh-process time to import photonlink and build the CLI
    parser, at the reference speed; also the raw times and block times."""
    scaled, raw, ref = [], [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR)],
            capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
        )
        value, block, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"set-up imported photonlink from {path}, not from {SRC}")
        raw.append(float(value))
        ref.append(float(block))
        scaled.append(raw[-1] * calibrate.REF_NOMINAL_S / ref[-1])
    return statistics.median(scaled), raw, ref


def environment(seed: int) -> dict:
    import mpmath
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "photonlink").rglob("*")):
        if path.suffix in (".py", ".cfg"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def by_label(labels: list[str], op_times: list[float]) -> dict:
    groups: dict[str, list[float]] = {}
    for label, t in zip(labels, op_times):
        groups.setdefault(label, []).append(t)
    return {
        label: {"n": len(ts), "median_ms": statistics.median(ts) * 1e3, "max_ms": max(ts) * 1e3}
        for label, ts in sorted(groups.items())
    }


def op_stats(op_times: list[float], tail_percentile: float) -> dict:
    ordered = sorted(op_times)
    n = len(ordered)
    tail_ix = min(max(math.ceil(tail_percentile / 100.0 * n) - 1, 0), n - 1)
    # the highest percentile with TAIL_BEYOND samples beyond it, in this run
    own_ix = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {
        "samples": n,
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_percentile": tail_percentile,
        "tail_ms": ordered[tail_ix] * 1e3,
        "samples_beyond_tail": n - 1 - tail_ix,
        "highest_percentile_with_10_beyond": 100.0 * (own_ix + 1) / n,
        "value_at_that_percentile_ms": ordered[own_ix] * 1e3,
    }


def reference_summary(track: calibrate.SpeedTrack | None, setup_ref: list[float]) -> dict:
    """Block times of the speed reference: how far the host drifted."""
    out = {"nominal_ms": calibrate.REF_NOMINAL_S * 1e3, "setup_block_ms": [t * 1e3 for t in setup_ref]}
    if track is not None and track.durs:
        quartiles = statistics.quantiles(track.durs, n=4) if len(track.durs) > 1 else track.durs * 3
        out.update(
            samples=len(track.durs),
            block_ms_quartiles=[q * 1e3 for q in quartiles],
            block_ms_min_max=[min(track.durs) * 1e3, max(track.durs) * 1e3],
        )
    return out


def check_summary(runner: Runner) -> dict:
    return {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:10],
        "statistical_misses": len(runner.stat_failures),
        "values_checked": runner.chk.values,
        "max_rel_err": runner.chk.max_rel_err,
        "max_rel_err_at": runner.chk.worst,
    }


def per_layer_metrics(summary: dict, tracer, untraced: Runner, traced: Runner) -> dict:
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    opt_calls = calls("optimize.optimize_M")
    evals = calls("modulation.ppm_mi_per_bin") + calls("modulation.ook_mi_per_bin")
    op_time = sum(untraced.op_times)
    values = {
        "optimize.evals_per_opt": evals / opt_calls if opt_calls else 0.0,
        "optimize.ok_frac": traced.ok_points / traced.points if traced.points else 0.0,
        "capacity.calls": calls("capacity.shannon_capacity") + calls("capacity.holevo_capacity"),
        "capacity.self_s": self_s("capacity.shannon_capacity") + self_s("capacity.holevo_capacity"),
        "linkbudget.rows": tracer.linkbudget_rows,
        "receiver.bytes_moved_computed": tracer.bytes_moved,
        "cli.self_s": self_s("cli.main"),
        "cli.bytes_written": traced.bytes_written,
        "trace.overhead_frac": sum(traced.op_times) / op_time - 1.0,
        "points_per_s": untraced.points / op_time,
        "trials_per_s": untraced.trials / op_time,
        "max_rel_err": max(untraced.chk.max_rel_err, traced.chk.max_rel_err),
        "error_rate": (len(untraced.failures) + len(traced.failures))
        / (untraced.attempted + traced.attempted),
    }
    for name in PER_LAYER:
        if name in values:
            continue
        span, _, field = name.rpartition(".")
        values[name] = calls(span) if field == "calls" else self_s(span)
    return {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full result as JSON here")
    args = parser.parse_args(argv)

    if not (SRC / "photonlink" / "__init__.py").is_file():
        print(f"perfbench: no photonlink package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    started = time.time()
    setup_s, setup_raw, setup_ref = measure_setup()

    import photonlink

    if not Path(photonlink.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported photonlink from {photonlink.__file__}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(WORK_DIR / f"run-{os.getpid()}")
    workdir.mkdir()
    try:
        warm = Runner(workdir)
        for job in workloads.warmup_jobs(args.workload, str(CONFIG_DIR)):
            warm.run(job)

        def stream():
            return workloads.JobStream(args.workload, args.seed, str(CONFIG_DIR))

        runner = Runner(workdir, None if args.trace else calibrate.SpeedTrack())
        tracer = None
        if args.trace:
            cycles = max(1, round(args.seconds * TRACE_CYCLES_PER_S[args.workload]))
            run_cycles(runner, stream(), None, cycles)
            traced = Runner(workdir)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                run_cycles(traced, stream(), None, cycles)
            finally:
                tracer.uninstall()
        else:
            cycles = run_cycles(runner, stream(), args.seconds, 1 if args.seconds <= 0 else None)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    scaled = runner.scaled_times()
    stats = op_stats(scaled, TAIL_PERCENTILE[args.workload])
    raw_stats = op_stats(runner.op_times, TAIL_PERCENTILE[args.workload])
    op_time = sum(runner.op_times)
    work = runner.work()
    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "cycles": cycles,
        "ops": stats,
        "ops_by_kind": by_label(runner.op_labels, scaled),
        "op_time_s": op_time,
        "work_unit": "trials" if args.workload == "receiver" else "optimized points",
        "work": work,
        "setup_s_all": setup_raw,
        "wall": {
            "ops": raw_stats,
            "work_per_s": work / op_time,
            "setup_s": statistics.median(setup_raw),
        },
        "reference": reference_summary(runner.track, setup_ref),
        "warmup_failures": warm.failures,
        "checks": check_summary(runner),
        "env": environment(args.seed),
    }
    attempted = runner.attempted + warm.attempted
    failed = len(runner.failures) + len(warm.failures)
    if tracer is not None:
        summary = tracer.summary()
        metrics = per_layer_metrics(summary, tracer, runner, traced)
        detail["trace_summary"] = summary
        detail["absent"] = tracer.absent
        detail["traced_checks"] = check_summary(traced)
        attempted += traced.attempted
        failed += len(traced.failures)
        if args.out:
            tracer.write_spans(args.out + ".spans.tsv")
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "op_p50_ms": metric(stats["p50_ms"], "ms"),
            "op_tail_ms": metric(stats["tail_ms"], "ms"),
            "work_per_s": metric(work / sum(scaled), "1/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.out:
        Path(args.out).write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
