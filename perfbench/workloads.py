"""The benchmark's workloads: fixed lists of `cpm` jobs.

A job is one `cpm` command line plus what its checker needs to know about
it.  Job lists depend only on the workload name, the benchmark seed (which
reaches `graphsim --seed` and nothing else) and the directory the tables go
to, so every run of a workload does the same work.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

X_EXACT = "7/2"

# One untraced pass of each job list at the commit that introduced the
# benchmark, in seconds, on a 2-core x86-64 host (Python 3.11, numpy 2.4).
# Only the number of rounds is derived from them, never a time window.
NOMINAL_PASS_S = {"exact_tables": 3.6, "asymptotic_ladder": 5.4, "graph_mc": 1.75}
MIN_ROUNDS = 3

# (weights, K, format): exact tables at x = 7/2; CSV and JSON alternate.
EXACT_TABLES = (
    ("unit", 80, "csv"),
    ("gaussian:1", 80, "json"),
    ("gamma:2,1/2", 60, "csv"),
    ("bernoulli", 80, "json"),
    ("exponential", 60, "csv"),
    ("logfact", 60, "json"),
)
FINITE_N = ("exponential", 20, 1000)  # weights, K, n
BELL_K = 300

# (weights, chi, k_max, format)
COMPARES = (
    ("unit", "1", 200, "csv"),
    ("gamma:2,1/2", "1", 200, "csv"),
    ("exponential", "2", 200, "json"),
    ("bernoulli", "0.5", 200, "csv"),
)
RATE_MODELS = ("unit", "gaussian:1", "gamma:2,1/2", "bernoulli", "exponential", "logfact")
RATE_CHIS = ("0.25", "1", "4")
AUX_MODELS = ("unit", "gamma:2,1/2")
AUX_CHI, AUX_K = "1", 400
LOG_MODELS = ("unit", "gamma:2,1/2")
LOG_K = 1000

# (n, weights, s grid, trials); kappa = 4 throughout.
GRAPH_KAPPA = "4"
GRAPH_SHAPES = (
    (2000, "exponential", "1.0,1.5,2.0,2.5", 200),
    (20000, "gamma:2,1/2", "0.5,1.0,1.5,2.0", 10),
    (200, "bernoulli", "0.5,1.0,1.5,2.0", 3000),
)

WORKLOADS = tuple(NOMINAL_PASS_S)


@dataclass(frozen=True)
class Job:
    """One `cpm` invocation; ``kind`` selects its checker, ``params`` feed it."""

    name: str
    argv: tuple[str, ...]
    kind: str
    out: str | None = None
    params: dict = field(default_factory=dict)


def graph_seed(seed: int, shape: int) -> int:
    """The `graphsim --seed` of a graph shape: benchmark seed * 1000 + shape index."""
    return seed * 1000 + shape


def rounds_for(workload: str, seconds: int) -> int:
    """Rounds of the job list that fill about ``seconds`` at the nominal pass cost."""
    return max(MIN_ROUNDS, round(seconds / NOMINAL_PASS_S[workload]))


def _table(name: str, argv: list[str], kind: str, out_dir: str, fmt: str, **params) -> Job:
    out = os.path.join(out_dir, re.sub(r"[^A-Za-z0-9.-]+", "_", name) + "." + fmt)
    argv = argv + ["--out", out, "--format", fmt]
    return Job(name, tuple(argv), kind, out, dict(params, fmt=fmt))


def _exact_tables(out_dir: str) -> list[Job]:
    jobs = [
        _table(f"moments-{spec}", ["moments", "--weights", spec, "--k", str(k), "--x", X_EXACT],
               "exact_table", out_dir, fmt, spec=spec, k=k, x=X_EXACT)
        for spec, k, fmt in EXACT_TABLES
    ]
    spec, k, n = FINITE_N
    jobs.append(_table(
        f"moments-finite-n-{spec}",
        ["moments", "--weights", spec, "--k", str(k), "--x", X_EXACT, "--finite-n", str(n)],
        "exact_table", out_dir, "csv", spec=spec, k=k, x=X_EXACT, finite_n=n,
    ))
    jobs.append(Job("bell", ("bell", "--k", str(BELL_K)), "bell", params={"k": BELL_K}))
    jobs.append(Job("identities", ("identities",), "identities"))
    return jobs


def _asymptotic_ladder(out_dir: str) -> list[Job]:
    jobs = [
        _table(f"compare-{spec}", ["compare", "--weights", spec, "--chi", chi, "--k-max", str(k)],
               "compare", out_dir, fmt, spec=spec, chi=chi, k_max=k)
        for spec, chi, k, fmt in COMPARES
    ]
    jobs += [
        Job(f"rate-{spec}-{chi}", ("rate", "--weights", spec, "--chi", chi), "rate",
            params={"spec": spec, "chi": chi})
        for spec in RATE_MODELS
        for chi in RATE_CHIS
    ]
    jobs += [
        _table(f"aux-{spec}", ["aux", "--weights", spec, "--llt-chi", AUX_CHI, "--k", str(AUX_K)],
               "aux", out_dir, "csv", spec=spec, chi=AUX_CHI, k=AUX_K)
        for spec in AUX_MODELS
    ]
    jobs += [
        _table(f"log-moments-{spec}",
               ["moments", "--weights", spec, "--k", str(LOG_K), "--x", X_EXACT, "--log"],
               "log_table", out_dir, "csv", spec=spec, k=LOG_K, x=X_EXACT)
        for spec in LOG_MODELS
    ]
    return jobs


def _graph_mc(out_dir: str, seed: int) -> list[Job]:
    jobs = []
    for shape, (n, spec, s_grid, trials) in enumerate(GRAPH_SHAPES):
        argv = ["graphsim", "--n", str(n), "--kappa", GRAPH_KAPPA, "--weights", spec,
                "--s", s_grid, "--trials", str(trials), "--seed", str(graph_seed(seed, shape))]
        jobs.append(_table(f"graphsim-n{n}", argv, "graphsim", out_dir, "csv",
                           n=n, spec=spec, kappa=GRAPH_KAPPA, s=s_grid, trials=trials))
    return jobs


def build_jobs(workload: str, seed: int, out_dir: str) -> list[Job]:
    """The job list of ``workload``; tables are written under ``out_dir``."""
    if workload == "exact_tables":
        return _exact_tables(out_dir)
    if workload == "asymptotic_ladder":
        return _asymptotic_ladder(out_dir)
    if workload == "graph_mc":
        return _graph_mc(out_dir, seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
