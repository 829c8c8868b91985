"""Seeded job generators for the three benchmark workloads.

Every workload is a closed loop with one client: the runner sends the next
job only after the previous one has returned.  Jobs come in cycles.  The
shape of a cycle (how many jobs of each kind, and how much work each job
does) is fixed per workload, so that every seed puts the same mix of work
on the program; the seed picks every parameter value inside that shape.
That keeps medians and tails comparable between seeds while the values
still sweep the whole range the CLI accepts.

A job is either a CLI job, whose ``argv`` is handed to
``photonlink.cli.main`` (the runner appends ``--out``), or a library call
named by ``kind`` with keyword ``params``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("sweep", "receiver", "point-queries")

# optimizations per sweep-workload job: schemes x models x n_b values x points
OPTS_PER_JOB = 48
# receiver jobs keep trials * 2**k at or below this many bin-trials
RECEIVER_BIN_TRIALS = 1 << 17
# one job for every k from 6 to 16, plus 11 more each of k = 10 and 11, the
# cheapest jobs, and 2 more of k = 15, the second dearest.  Of the 35 jobs,
# the median falls inside the block of 24 cheap jobs and p92 inside the
# block of 3 k = 15 jobs, not on the edge between two k values of different
# cost, where seed and host speed would move them
RECEIVER_K = tuple(range(6, 17)) + (10, 11) * 11 + (15, 15)

CONFIG_FILES = {"optical": "table1_optical.cfg", "rf": "table1_rf.cfg"}


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)

    @property
    def is_cli(self) -> bool:
        return bool(self.argv)

    @property
    def label(self) -> str:
        """Kind of work, for per-kind op-time statistics."""
        if "k" in self.params:
            return f"{self.kind} k={self.params['k']:02d}"
        if "scheme" in self.params:
            return f"{self.kind} {self.params['scheme']}"
        return self.kind


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _n_b(rng: random.Random) -> float:
    # a fifth of the background values are exactly 0, the rest span 1e-6..1e2
    return 0.0 if rng.random() < 0.2 else _log_uniform(rng, -6.0, 2.0)


def _split(rng: random.Random, total: int, max_first: int) -> tuple[int, int]:
    """Pick (a, b) with a * b == total and 1 <= a <= max_first."""
    a = rng.choice([d for d in range(1, max_first + 1) if total % d == 0])
    return a, total // a


def _pie_sweep(rng: random.Random, boundary: bool) -> Job:
    scheme = rng.choice(["ppm", "ook", "both"])
    model = rng.choice(["poisson", "gauss", "both"])
    per_grid = OPTS_PER_JOB // ((2 if scheme == "both" else 1) * (2 if model == "both" else 1))
    n_nb, points = _split(rng, per_grid, 4)
    n_b = [_n_b(rng) for _ in range(n_nb)]
    lo_exp = rng.uniform(-10.0, -1.0)
    start, stop = 10.0**lo_exp, _log_uniform(rng, lo_exp, 0.0)
    if boundary:
        # n_b = 0 with the smallest n_a pins the PPM/OOK optimum at the M
        # bound, so every cycle has flagged rows and an exit code of 1
        n_b[0], start = 0.0, 1e-10
    argv = ["pie-sweep", "--scheme", scheme, "--model", model, "--n-b"]
    argv += [repr(v) for v in n_b]
    argv += ["--na-grid", repr(start), repr(stop), str(points)]
    return Job("pie-sweep", tuple(argv))


def _link(rng: random.Random, config_dir: str) -> Job:
    config = rng.choice(sorted(CONFIG_FILES))
    schemes = rng.choice([["ppm"], ["ook"], ["ppm", "ook"]])
    model = rng.choice(["poisson", "gauss", "both"])
    points = OPTS_PER_JOB // (len(schemes) * (2 if model == "both" else 1))
    start = _log_uniform(rng, -1.0, 4.0)
    stop = _log_uniform(rng, -1.0, 4.0)
    start, stop = min(start, stop), max(start, stop)
    argv = ["link", "--config", f"{config_dir}/{CONFIG_FILES[config]}"]
    argv += ["--n-b", repr(_n_b(rng)), "--model", model, "--schemes", *schemes]
    argv += ["--r-au-grid", repr(start), repr(stop), str(points)]
    return Job("link", tuple(argv))


def _receiver(rng: random.Random, k: int, slot: int) -> Job:
    # which jobs get zero phase error, lossless modules or zero background
    # follows the job's slot in the stream, not the seed: those jobs write
    # many exact zeros, which are cheaper to format, and a seed-dependent
    # share of them would move the median between seeds
    sigma = 0.0 if slot % 5 == 0 else rng.uniform(0.0, 0.2)
    loss = 1.0 if slot % 5 == 1 else rng.uniform(0.9, 1.0)
    n_b = 0.0 if slot % 5 == 2 else _log_uniform(rng, -6.0, 2.0)
    trials = max(1, RECEIVER_BIN_TRIALS >> k)
    argv = [
        "receiver",
        "--k", str(k),
        "--target-bin", str(rng.randrange(1 << k)),
        "--energy", repr(_log_uniform(rng, -2.0, 1.0)),
        "--loss", repr(loss),
        "--phase-sigma", repr(sigma),
        "--trials", str(trials),
        "--n-b", repr(n_b),
        # both click columns in every job: the model choice changes the
        # cost of a 2**k-row job, which would make runs depend on the seed
        "--model", "both",
        "--seed", str(rng.randrange(1 << 31)),
    ]
    return Job("receiver", tuple(argv), {"trials": trials, "k": k})


def _point(rng: random.Random, kind: str) -> Job:
    params = {
        "n_b": _n_b(rng),
        "model": rng.choice(["poisson", "gauss"]),
        "scheme": rng.choice(["ppm", "ook"]),
    }
    if kind == "optimize_M":
        params["n_a"] = _log_uniform(rng, -10.0, 0.0)
    else:
        params["config"] = rng.choice(sorted(CONFIG_FILES))
        params["r_au"] = _log_uniform(rng, -1.0, 4.0)
    return Job(kind, (), params)


def warmup_jobs(workload: str, config_dir: str) -> list[Job]:
    """Small fixed jobs run before timing, so first-call costs are not timed."""
    if workload == "sweep":
        return [
            Job("pie-sweep", ("pie-sweep", "--n-b", "0.01", "--na-grid", "1e-6", "1e-1", "2")),
            Job("link", ("link", "--config", f"{config_dir}/{CONFIG_FILES['optical']}",
                         "--r-au-grid", "1", "10", "2")),
            Job("table1", ("table1",)),
        ]
    if workload == "receiver":
        return [Job("receiver", ("receiver", "--k", "6", "--trials", "10", "--phase-sigma", "0.1"),
                    {"trials": 10, "k": 6})]
    rng = random.Random("photonlink-bench:warmup")
    return [_point(rng, "optimize_M") for _ in range(4)] + [_point(rng, "rate_vs_distance")]


class JobStream:
    """Deterministic cycles of jobs for one workload and seed."""

    def __init__(self, workload: str, seed: int, config_dir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
        self.workload = workload
        self.config_dir = config_dir
        self._rng = random.Random(f"photonlink-bench:{workload}:{seed}")
        self._cycle = 0

    def next_cycle(self) -> list[Job]:
        rng = self._rng
        if self.workload == "sweep":
            # 5 pie-sweep : 3 link : 1 table1 puts the median inside the
            # pie-sweep cluster and the tail inside the slower link cluster
            jobs = [_pie_sweep(rng, boundary=i == 0) for i in range(5)]
            jobs += [_link(rng, self.config_dir) for _ in range(3)]
            jobs.append(Job("table1", ("table1",)))
        elif self.workload == "receiver":
            first = self._cycle * len(RECEIVER_K)
            jobs = [_receiver(rng, k, first + j) for j, k in enumerate(RECEIVER_K)]
        else:
            jobs = [_point(rng, "optimize_M") for _ in range(8)]
            jobs += [_point(rng, "rate_vs_distance") for _ in range(2)]
        rng.shuffle(jobs)
        self._cycle += 1
        return jobs
