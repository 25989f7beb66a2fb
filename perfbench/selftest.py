"""Self-test of the benchmark: its checks must bite and its trace must be complete.

    python3 perfbench/selftest.py

For every workload it runs the job list once with the layer trace on and
asserts that every span the workload should reach was recorded, that the
clean outputs pass their checks, and that a changed digit, a shifted row and
a reordered table are each rejected.  Exits 1 on the first missing span or
accepted corruption.  It is not part of the package's test suite.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import sys

import run  # sets sys.path and the thread limits
import checks
import tracing
import workloads


def _table(data: bytes, fmt: str) -> tuple[list[str] | None, list[dict]]:
    text = data.decode()
    if fmt == "json":
        return None, json.loads(text)
    reader = csv.DictReader(io.StringIO(text))
    return reader.fieldnames, list(reader)


def _dump(fields: list[str] | None, rows: list[dict]) -> bytes:
    if fields is None:
        return (json.dumps(rows, indent=2) + "\n").encode()
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().encode()


def bump_digit(fmt: str, row: int, column: str, nth: int = 8):
    """Change the ``nth`` digit of one cell by one."""
    def corrupt(data: bytes) -> bytes:
        fields, rows = _table(data, fmt)
        cell = str(rows[row][column])
        digits = [i for i, ch in enumerate(cell) if ch.isdigit()]
        i = digits[min(nth, len(digits) - 1)]
        rows[row][column] = cell[:i] + str((int(cell[i]) + 1) % 10) + cell[i + 1:]
        return _dump(fields, rows)
    return corrupt


def shift_rows(fmt: str, key: str):
    """Move every row's values one row down, keeping the ``key`` column in place."""
    def corrupt(data: bytes) -> bytes:
        fields, rows = _table(data, fmt)
        shifted = [rows[0]] + [dict(prev, **{key: cur[key]}) for prev, cur in zip(rows, rows[1:])]
        return _dump(fields, shifted)
    return corrupt


def reorder_rows(fmt: str, i: int, j: int):
    """Swap two whole rows."""
    def corrupt(data: bytes) -> bytes:
        fields, rows = _table(data, fmt)
        rows[i], rows[j] = rows[j], rows[i]
        return _dump(fields, rows)
    return corrupt


def bump_stdout(line: int, nth: int = 8):
    """Change the ``nth`` digit of one stdout line."""
    def corrupt(stdout: str) -> str:
        lines = stdout.splitlines()
        digits = [i for i, ch in enumerate(lines[line]) if ch.isdigit()]
        i = digits[nth]
        lines[line] = lines[line][:i] + str((int(lines[line][i]) + 1) % 10) + lines[line][i + 1:]
        return "\n".join(lines) + "\n"
    return corrupt


# workload -> [(description, job name, table corruption or None, stdout corruption or None)]
CORRUPTIONS = {
    "exact_tables": [
        ("changed digit", "moments-unit", bump_digit("csv", 40, "value", 12), None),
        ("changed digit in value_ratio", "moments-logfact", bump_digit("json", 30, "value_ratio"),
         None),
        ("shifted row", "moments-gaussian:1", shift_rows("json", "k"), None),
        ("reordered CSV", "moments-gamma:2,1/2", reorder_rows("csv", 10, 11), None),
        ("changed digit", "bell", None, bump_stdout(1, 200)),
    ],
    "asymptotic_ladder": [
        ("changed digit", "compare-unit", bump_digit("csv", 39, "log_exact"), None),
        ("changed digit", "rate-gamma:2,1/2-1", None, bump_stdout(1, 12)),
        ("shifted row", "aux-gamma:2,1/2", shift_rows("csv", "j"), None),
        ("reordered CSV", "log-moments-gamma:2,1/2", reorder_rows("csv", 500, 501), None),
    ],
    "graph_mc": [
        ("changed digit", "graphsim-n2000", bump_digit("csv", 2, "bound"), None),
        ("shifted row", "graphsim-n20000", shift_rows("csv", "s"), None),
        ("reordered CSV", "graphsim-n200", reorder_rows("csv", 0, 2), None),
    ],
}


def selftest(workload: str) -> list[str]:
    """Problems found for one workload; empty when it passes."""
    from cpmoments import cli

    out_dir = os.path.join(run.RUN_DIR, "selftest", workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    jobs = {job.name: job for job in workloads.build_jobs(workload, 1, out_dir)}
    tracer = tracing.Tracer()
    tracer.install()
    outputs = {}
    try:
        for job in jobs.values():
            outputs[job.name] = tracer.job_span(job.name, run.run_job)(cli.main, job)[1:]
    finally:
        tracer.uninstall()

    problems = [f"span {name} never recorded"
                for name in tracing.EXPECTED_SPANS[workload] if name not in tracer.span_names()]
    for name, (stdout, data) in outputs.items():
        try:
            checks.check(jobs[name], stdout, data)
        except checks.CheckError as exc:
            problems.append(f"clean output of {name} rejected: {exc}")
    for what, name, corrupt_table, corrupt_stdout in CORRUPTIONS[workload]:
        stdout, data = outputs[name]
        if corrupt_table:
            data = corrupt_table(data)
        if corrupt_stdout:
            stdout = corrupt_stdout(stdout)
        try:
            checks.check(jobs[name], stdout, data)
        except checks.CheckError as exc:
            print(f"{workload}: {what} in {name} rejected ({exc})")
        else:
            problems.append(f"{what} in {name} was accepted")
    return problems


def main() -> int:
    problems = []
    for workload in workloads.WORKLOADS:
        problems += selftest(workload)
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    if not problems:
        print("selftest passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
