"""Output checkers: each job's table and stdout against the oracles.

A checker gets the job, its captured stdout and the bytes of its table and
raises ``CheckError`` on the first disagreement.  Checkers run after the
timed rounds and never call cpmoments.
"""

from __future__ import annotations

import csv
import io
import json
import math
from decimal import Decimal
from fractions import Fraction

import oracles

IDENTITY_ROWS = (
    "composition multinomial sum = C(k-1, p-1), p <= 8",
    "k! S_k(x) = exponential-weight moment, k <= 12",
    "k! T_k(x) = factorial-weight moment, k <= 12",
    "even-order recurrence reproduces its reference values",
)


class CheckError(Exception):
    """A job's output disagrees with its oracle."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(got: float, want: float, tol: float, what: str, rel: bool = False) -> None:
    """|got - want| <= tol, or <= tol |want| when ``rel``."""
    scale = abs(want) if rel else 1.0
    _require(math.isfinite(got) and abs(got - want) <= tol * scale,
             f"{what}: got {got!r}, expected {want!r} (tol {tol:g}{' rel' if rel else ''})")


def _strict_json(line: str):
    """Parse one JSON value, rejecting the non-standard tokens NaN and Infinity."""
    def bad(token):
        raise CheckError(f"non-standard JSON token {token!r}")
    return json.loads(line, parse_constant=bad)


def _lines(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    _require(bool(lines), "no output on stdout")
    header = _strict_json(lines[0])
    _require(isinstance(header, dict) and header.get("tool") == "cpm", "missing JSON header line")
    return lines


def _rows(data: bytes, fmt: str, fields: list[str]) -> list[dict]:
    text = data.decode()
    if fmt == "json":
        rows = _strict_json(text)
        _require(isinstance(rows, list), "JSON table is not a list")
        return rows
    reader = csv.DictReader(io.StringIO(text))
    _require(reader.fieldnames == fields, f"CSV columns {reader.fieldnames} != {fields}")
    return list(reader)


def sample_orders(k_lo: int, k_hi: int, step: int, head: int = 10, stride: int = 20) -> list[int]:
    """Orders checked against the slow oracles: the first ``head`` orders, every
    ``stride``-th order and the last one, all on the table's k grid."""
    grid = range(k_lo, k_hi + 1, step)
    return [k for i, k in enumerate(grid) if i < head or k % stride == 0 or k == k_hi]


# ---------------------------------------------------------------------- exact


def check_exact_table(job, stdout: str, data: bytes) -> None:
    p = job.params
    x = Fraction(p["x"])
    if "finite_n" in p:
        ref, method = oracles.finite_n_moments(p["spec"], p["k"], p["finite_n"], x), "finite_n"
    else:
        ref, method = oracles.exact_moments(p["spec"], p["k"], x), "recurrence"
    _lines(stdout)
    rows = _rows(data, p["fmt"], ["k", "x", "method", "value", "log_value"])
    _require(len(rows) == p["k"] + 1, f"{len(rows)} rows, expected {p['k'] + 1}")
    for k, (row, want) in enumerate(zip(rows, ref)):
        where = f"row {k}"
        _require(int(row["k"]) == k, f"{where}: k = {row['k']}")
        _require(Fraction(row["x"]) == x and row["method"] == method, f"{where}: x/method {row}")
        got = Fraction(Decimal(row["value"]))
        _require(abs(got - want) <= abs(want) * Fraction(1, 10**29),
                 f"{where}: value {row['value']} differs from {float(want)!r} beyond 1e-29")
        if p["fmt"] == "json":
            _require(row["value_ratio"] == str(want), f"{where}: value_ratio {row['value_ratio']}")
        if want > 0:
            _close(float(row["log_value"]), oracles.log_fraction(want), 1e-11, f"{where}: log_value")
        else:
            _require(row["log_value"] == ("-inf" if want == 0 else ""), f"{where}: log_value")


def check_bell(job, stdout: str, data: bytes) -> None:
    lines = _lines(stdout)
    _require(len(lines) == 2, "bell prints a header and one number")
    _require(int(lines[1]) == oracles.bell_number(job.params["k"]), "Bell number differs")


def check_identities(job, stdout: str, data: bytes) -> None:
    lines = _lines(stdout)[1:]
    _require(len(lines) == len(IDENTITY_ROWS), f"{len(lines)} identity rows")
    for line, name in zip(lines, IDENTITY_ROWS):
        _require(line.split() == name.split() + ["PASS"], f"identity row {line!r}")


# ----------------------------------------------------------------- asymptotic


def check_compare(job, stdout: str, data: bytes) -> None:
    p = job.params
    spec, chi, k_max = p["spec"], float(p["chi"]), p["k_max"]
    step = 2 if oracles.parse_spec(spec)[0] in ("gaussian", "bernoulli") else 1
    rv = oracles.rate(spec, chi)
    _lines(stdout)
    rows = _rows(data, p["fmt"], ["k", "log_exact", "log_predicted", "rate_gap"])
    ks = list(range(step, k_max + 1, step))
    _require([int(r["k"]) for r in rows] == ks, "k column differs from the order grid")
    sampled = set(sample_orders(step, k_max, step))
    for k, row in zip(ks, rows):
        where = f"k={k}"
        x = chi * k
        log_exact = float(row["log_exact"])
        if k in sampled:
            _close(log_exact, oracles.log_moment(spec, k, Fraction(x)), 1e-9, f"{where}: log_exact")
        _close(float(row["log_predicted"]), oracles.refined_prediction(spec, k, chi, rv), 1e-9,
               f"{where}: log_predicted", rel=True)
        gap = abs((log_exact - k * math.log(x)) / k - float(rv["psi"]))
        _close(float(row["rate_gap"]), gap, 1e-9, f"{where}: rate_gap")


def check_rate(job, stdout: str, data: bytes) -> None:
    spec, chi = job.params["spec"], float(job.params["chi"])
    lines = _lines(stdout)
    _require(len(lines) == 2, "rate prints a header and one JSON line")
    got = _strict_json(lines[1])
    rv = oracles.rate(spec, chi)
    _require(got["chi"] == chi, "chi echoed wrongly")
    for key in ("u", "psi", "prefactor"):
        _close(got[key], float(rv[key]), 1e-10, f"rate {key}")
    _require(0 <= got["residual"] <= 1e-12 * max(1.0, 1 / chi), f"residual {got['residual']}")


def check_aux(job, stdout: str, data: bytes) -> None:
    p = job.params
    spec, chi, k = p["spec"], float(p["chi"]), p["k"]
    lines = _lines(stdout)
    _require(len(lines) == 2, "aux prints a header and one summary line")
    config = _strict_json(lines[0])["config"]
    summary = _strict_json(lines[1])
    x, u = config["x"], config["u"]
    _require(x == chi * k, f"x = {x}, expected chi k = {chi * k}")
    _close(u, float(oracles.solve_tilt(spec, chi)), 1e-10, "tilt u")
    rows = _rows(data, "csv", ["j", "p_j"])
    js = [int(r["j"]) for r in rows]
    pj = [float(r["p_j"]) for r in rows]
    _require(js == list(range(len(js))), "j column is not 0, 1, 2, ...")
    _require(js[-1] == summary["support_cap"], "support_cap differs from the last row")
    mass = math.fsum(pj)
    _require(1 - 1e-11 <= mass <= 1 + 1e-10, f"pmf mass {mass!r}")
    _close(summary["mean"], math.fsum(j * q for j, q in zip(js, pj)), 1e-9, "mean vs sum j p_j",
           rel=True)
    h, h1, h2, _ = oracles.egf(spec)
    um = oracles.mpmath.mpf(u)
    _close(summary["mean"], float(x * um * h1(um)), 1e-10, "analytic mean", rel=True)
    _close(summary["variance"], float(x * (um * h1(um) + um * um * h2(um))), 1e-10, "variance",
           rel=True)
    log_g = float(x * (h(um) - 1))
    _close(summary["log_G"], log_g, 1e-10, "log_G", rel=True)
    # inversion identity: M_k(x) = k! G u^-k P(Z = k)
    ln_mk = oracles.log_moment(spec, k, Fraction(x))
    want = ln_mk + k * math.log(u) - math.lgamma(k + 1.0) - log_g
    _close(math.log(pj[k]), want, 1e-9, "inversion identity at k")
    r_k = pj[k] * math.sqrt(2 * math.pi * summary["variance"])
    _close(summary["r_k"], r_k, 1e-9, "r_k", rel=True)
    _require(abs(summary["r_k"] - 1) < 0.02, f"r_k = {summary['r_k']}")


def check_log_table(job, stdout: str, data: bytes) -> None:
    p = job.params
    x = Fraction(p["x"])
    _lines(stdout)
    rows = _rows(data, p["fmt"], ["k", "x", "method", "value", "log_value"])
    _require([int(r["k"]) for r in rows] == list(range(p["k"] + 1)), "k column")
    _require(all(Fraction(r["x"]) == x and r["value"] == "" for r in rows), "x or value column")
    for k in sample_orders(0, p["k"], 1, stride=50):
        _close(float(rows[k]["log_value"]), oracles.log_moment(p["spec"], k, x), 1e-9,
               f"k={k}: log_value")


# ---------------------------------------------------------------------- graph


def check_graphsim(job, stdout: str, data: bytes) -> None:
    p = job.params
    n, spec, kappa, trials = p["n"], p["spec"], float(p["kappa"]), p["trials"]
    s_grid = [float(s) for s in p["s"].split(",")]
    _lines(stdout)
    rows = _rows(data, "csv", ["n", "kappa", "s", "p_hat", "ci", "bound", "threshold",
                               "vacuous_flag"])
    _require([float(r["s"]) for r in rows] == s_grid, "s column differs from the grid")
    threshold = oracles.graph_threshold(spec, kappa)
    prev = 1.0
    for s, row in zip(s_grid, rows):
        where = f"s={s}"
        _require(int(row["n"]) == n and float(row["kappa"]) == kappa, f"{where}: n/kappa")
        p_hat = float(row["p_hat"])
        hits = p_hat * trials
        _require(0 <= p_hat <= prev and abs(hits - round(hits)) < 1e-6,
                 f"{where}: p_hat {p_hat} not a non-increasing count share")
        prev = p_hat
        pt = min(max(p_hat, 0.5 / trials), 1 - 0.5 / trials)
        _close(float(row["ci"]), 1.96 * math.sqrt(pt * (1 - pt) / trials), 1e-12, f"{where}: ci",
               rel=True)
        _close(float(row["threshold"]), threshold, 1e-9, f"{where}: threshold", rel=True)
        bound, vacuous = oracles.graph_bound(spec, n, kappa, s)
        _close(float(row["bound"]), bound, 1e-9, f"{where}: bound", rel=True)
        _require(int(row["vacuous_flag"]) == int(vacuous), f"{where}: vacuous_flag")


CHECKERS = {
    "exact_table": check_exact_table,
    "bell": check_bell,
    "identities": check_identities,
    "compare": check_compare,
    "rate": check_rate,
    "aux": check_aux,
    "log_table": check_log_table,
    "graphsim": check_graphsim,
}


def check(job, stdout: str, data: bytes | None) -> None:
    """Run the checker of ``job``'s kind; raises CheckError on a mismatch."""
    CHECKERS[job.kind](job, stdout, data)
