"""Fixed-work benchmark of the `cpm` subcommands.

    python3 perfbench/run.py --workload exact_tables --seed 1 --seconds 30 --trace 0

Runs the workload's job list (see workloads.py) in rounds, one job at a
time, in-process through ``cpmoments.cli.main``; the number of rounds is
derived from ``--seconds``, never from a clock.  Each job's wall time is
corrected for host speed (hostspeed.py); each job's median corrected time
over the rounds is kept and ``pass_s`` is their sum.  Every job's output is
then checked against the oracles in oracles.py.  ``--trace 1`` adds one
traced pass and reports the per-layer metrics instead of the end-to-end
ones.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# One thread: the host has two cores and the benchmark times one job at a time.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_STARTS = 7  # fresh interpreters timed for setup_s, after one discarded start


class JobFailed(Exception):
    """A job ended with an exception or a non-zero exit code."""


def run_job(main, job) -> tuple[float, str, bytes | None]:
    """Run one job in-process; (wall seconds, stdout, table bytes)."""
    buf = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            main(list(job.argv), standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise JobFailed(f"{job.name}: exit code {exc.code}") from None
    except Exception as exc:
        raise JobFailed(f"{job.name}: {type(exc).__name__}: {exc}") from exc
    elapsed = perf_counter() - start
    data = None
    if job.out is not None:
        with open(job.out, "rb") as fh:
            data = fh.read()
    return elapsed, buf.getvalue(), data


def measure_setup(workload: str, seed: int, out_dir: str) -> tuple[float, float]:
    """(corrected, measured) median set-up seconds over fresh interpreters; the
    first start is discarded."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), out_dir]
    measured, corrected = [], []
    for _ in range(SETUP_STARTS + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        elapsed, ref = (float(v) for v in done.stdout.split())
        measured.append(elapsed)
        corrected.append(elapsed * hostspeed.REFERENCE_S / ref)
    return statistics.median(corrected[1:]), statistics.median(measured[1:])


def timed_rounds(main, jobs, rounds: int, log) -> tuple[dict, dict, dict, int, list[str]]:
    """Round-robin repetitions.

    Returns per-job measured times, per-job host-speed scales (see
    hostspeed.Brackets), per-job first output, the number of failures, and
    the jobs whose output was not byte-identical across repetitions.
    """
    times = {job.name: [] for job in jobs}
    scales = {job.name: [] for job in jobs}
    outputs: dict[str, tuple[str, bytes | None]] = {}
    digests: dict[str, set[str]] = {job.name: set() for job in jobs}
    failed = 0
    brackets = hostspeed.Brackets()
    for _ in range(rounds):
        for job in jobs:
            gc.collect()
            try:
                elapsed, stdout, data = run_job(main, job)
            except JobFailed as exc:
                failed += 1
                log(f"FAILED {exc}")
                continue
            finally:
                scale = brackets.scale()
            times[job.name].append(elapsed)
            scales[job.name].append(scale)
            outputs.setdefault(job.name, (stdout, data))
            digests[job.name].add(hashlib.sha256(stdout.encode() + b"\0" + (data or b"")).hexdigest())
    unsteady = [name for name, seen in digests.items() if len(seen) > 1]
    return times, scales, outputs, failed, unsteady


def check_outputs(jobs, outputs, log) -> bool:
    import checks

    ok = True
    for job in jobs:
        if job.name not in outputs:
            continue
        start = perf_counter()
        try:
            checks.check(job, *outputs[job.name])
        except checks.CheckError as exc:
            ok = False
            log(f"CHECK FAILED {job.name}: {exc}")
        log(f"{job.name:32s} checked in {perf_counter() - start:.2f} s")
    return ok


def traced_pass(main, jobs, pass_s: float, trace_path: str, log) -> tuple[dict, int]:
    """One pass with every layer wrapped; (per-layer metrics, failures)."""
    tracer = tracing.Tracer()
    tracer.install()
    failed = 0
    traced_pass_s = 0.0
    try:
        brackets = hostspeed.Brackets()
        for job in jobs:
            gc.collect()
            try:
                elapsed = tracer.job_span(job.name, run_job)(main, job)[0]
            except JobFailed as exc:
                failed += 1
                log(f"FAILED (traced) {exc}")
                continue
            finally:
                scale = brackets.scale()
            traced_pass_s += elapsed * scale
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    return tracer.layer_metrics(traced_pass_s, pass_s), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    def log(msg: str) -> None:
        print(msg, file=sys.stderr, flush=True)

    src = os.path.join(ROOT, "src")
    try:
        from cpmoments import cli
    except ImportError as exc:
        log(f"cannot import cpmoments from {src}: {exc}")
        return 2
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        log(f"cpmoments was imported from {cli.__file__}, not from the checkout's {src}")
        return 2

    out_dir = os.path.join(RUN_DIR, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    jobs = workloads.build_jobs(args.workload, args.seed, out_dir)
    rounds = workloads.rounds_for(args.workload, args.seconds)

    setup_s, setup_measured_s = (None, None) if args.trace else measure_setup(
        args.workload, args.seed, out_dir)
    times, scales, outputs, failed, unsteady = timed_rounds(cli.main, jobs, rounds, log)
    for name in unsteady:
        log(f"CHECK FAILED {name}: output differs between repetitions")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured = {name: statistics.median(ts) for name, ts in times.items() if ts}
    corrected = {name: statistics.median(t * s for t, s in zip(ts, scales[name]))
                 for name, ts in times.items() if ts}
    pass_s, measured_pass_s = sum(corrected.values()), sum(measured.values())
    attempted = rounds * len(jobs)
    for name, med in corrected.items():
        log(f"{name:32s} median {med * 1e3:10.2f} ms corrected, {measured[name] * 1e3:10.2f} ms"
            f" measured, over {len(times[name])}")
    log(f"pass_s {pass_s:.4f} corrected, {measured_pass_s:.4f} measured;"
        f" setup_s {setup_s} corrected, {setup_measured_s} measured")

    correct = check_outputs(jobs, outputs, log) and not unsteady

    if args.trace:
        metrics, traced_failed = traced_pass(cli.main, jobs, pass_s,
                                             os.path.join(out_dir, "spans.csv"), log)
        attempted += len(jobs)
        failed += traced_failed
        units = dict(tracing.LAYER_METRICS)
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        result_metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump({"seed": args.seed, "rounds": rounds, "measured_pass_s": measured_pass_s,
                   "measured_setup_s": setup_measured_s, "job_times_s": times,
                   "job_scales": scales, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
