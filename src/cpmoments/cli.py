"""Command-line front end.

Subcommands: moments, rate, compare, aux, graphsim, bell, identities.
Every run first echoes one JSON header line with the tool version and the
resolved configuration: every option under its long name (``--k-max`` as
``k_max``), with aux's effective x and u and compare's method.  Tabular
output goes to ``--out`` as CSV or JSON, written atomically: a new table
gets mode 0666 under the umask, and an overwritten one keeps its mode.
Exit codes: 0 success, 2 usage error, 3 numeric or domain error, 4 I/O
error; one boundary, the command group, maps the last two for every
command.
"""

from __future__ import annotations

import decimal
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

import click

from . import __version__
from ._numpy import lazy_module
from .errors import CpmError

# each executes on the first attribute read, so a command runs only the
# modules it calls (see _numpy.py)
wts = lazy_module("cpmoments.weights")
mom = lazy_module("cpmoments.moments")
asym = lazy_module("cpmoments.asymptotics")
auxdist = lazy_module("cpmoments.auxdist")
graphsim = lazy_module("cpmoments.graphsim")

EXIT_NUMERIC = 3
EXIT_IO = 4

HEADER_SCHEMA: dict[str, type] = {
    "tool": str,
    "version": str,
    "command": str,
    "config": dict,
}


def validate_header(obj: object) -> dict:
    """Check a parsed header line against the embedded schema."""
    if not isinstance(obj, dict):
        raise ValueError("header must be a JSON object")
    for key, typ in HEADER_SCHEMA.items():
        if key not in obj:
            raise ValueError(f"header missing key {key!r}")
        if not isinstance(obj[key], typ):
            raise ValueError(f"header key {key!r} must be {typ.__name__}")
    return obj


class _Parsed(click.ParamType):
    """Option type from a parse function; its ValueError, ZeroDivisionError
    or OverflowError is a usage error."""

    def __init__(self, name: str, parse, expected: str) -> None:
        self.name, self._parse, self._expected = name, parse, expected

    def convert(self, value, param, ctx):
        try:
            return self._parse(value)
        except (ValueError, ZeroDivisionError):
            self.fail(f"{value!r} is not {self._expected}", param, ctx)
        except OverflowError as exc:
            self.fail(str(exc), param, ctx)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


# refusing nan and +-inf keeps every header and result line standard JSON
FINITE_FLOAT = _Parsed("float", _finite_float, "a finite number")
RATIONAL = _Parsed("rational", lambda text: wts.parse_rational(text),
                   "an integer, decimal or ratio")
FINITE_FLOAT_LIST = _Parsed("list", lambda text: tuple(map(_finite_float, text.split(","))),
                            "a comma-separated list of finite numbers")

WEIGHTS_OPTION = click.option("--weights", "weights_spec", required=True, help=(
    "unit | gaussian[:V2] | gamma:m,theta | bernoulli | exponential | logfact | custom:path.json"
    ' holding {"moments": [1, v1, ...]}; parameters are integers, decimals or ratios such as'
    " 1/2.  graphsim cannot sample logfact or custom."))


def TABLE_OPTIONS(fn):
    """--out and --format, the options of every command that writes a table."""
    fn = click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")(fn)
    return click.option("--out", "out_path", required=True, type=click.Path())(fn)


def _echo_header(**effective) -> None:
    """The header line of the running command: its config keys every option's
    parsed value by the option's long name (a Fraction as its ratio string),
    then takes ``effective``, values a command derives or adds."""
    ctx = click.get_current_context()
    config = {}
    for param in ctx.command.params:
        value = ctx.params[param.name]
        config[max(param.opts, key=len).lstrip("-").replace("-", "_")] = (
            str(value) if isinstance(value, Fraction) else value)
    click.echo(json.dumps(
        {"tool": "cpm", "version": __version__, "command": ctx.command.name,
         "config": {**config, **effective}},
        sort_keys=True,
    ))


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cpm-tmp-")
    try:
        # mkstemp makes the file 0600: give it the mode of the table it
        # replaces, or that of a new file, 0666 under the umask
        try:
            mode = os.stat(path).st_mode & 0o7777
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# a cell's conversion by its type; "%.17g" gives the text f"{v:.17g}" gives
# (``format_log``'s), which JSON quotes, and a JSON str cell is encoded first
_CSV_CONVERSIONS = {int: "%d", float: "%.17g", str: "%s"}
_JSON_CONVERSIONS = {int: "%d", float: '"%.17g"', str: "%s"}


def _write_table(path: str, columns: list[str], rows: list[tuple], fmt: str) -> None:
    """Rows in the order of ``columns``: a CSV table under one header line,
    or a JSON list of one object per row, byte for byte as ``csv.writer``
    and ``json.dumps(indent=2)`` write the same rows with each float cell
    ``format_log``'d.

    Every row has the first row's cell types, each int, float or str, and
    the table is one %-format: the row template, repeated once per row,
    over the flattened cells.  A CSV str cell that csv would quote (one
    holding a comma, a quote, CR or LF) is refused with ValueError."""
    types = [type(cell) for cell in rows[0]] if rows else []
    cells, width = list(chain.from_iterable(rows)), len(types)
    if fmt == "json":
        for i, kind in enumerate(types):
            if kind is str:
                cells[i::width] = map(encode_basestring_ascii, cells[i::width])
        members = ",\n".join(
            f"    {encode_basestring_ascii(column).replace('%', '%%')}: {_JSON_CONVERSIONS[kind]}"
            for column, kind in zip(columns, types))
        objects = ",\n".join(["  {\n" + members + "\n  }"] * len(rows)) % tuple(cells)
        _atomic_write(path, f"[\n{objects}\n]\n" if rows else "[]\n")
        return
    row = ",".join(_CSV_CONVERSIONS[kind] for kind in types) + "\n"
    text = ",".join(columns) + "\n" + row * len(rows) % tuple(cells)
    if (text.count(",") != (len(columns) - 1) * (len(rows) + 1)
            or text.count("\n") != len(rows) + 1 or '"' in text or "\r" in text):
        raise ValueError("a table cell holds a comma, a quote or a line break")
    _atomic_write(path, text)


_DIGITS_30 = decimal.Context(prec=30)


def format_exact(value: Fraction) -> str:
    """Ratio rendered as a 30-significant-digit decimal string.

    The string of Decimal(n) / Decimal(d) at precision 30, without turning
    n and d into Decimals: one integer division gives the quotient to 31 or
    more digits, as Decimal's own division does, and Decimal rounds only
    that.  An inexact quotient is marked by its last digit (never 0 or 5),
    and an exact one sheds trailing zeros down to exponent 0."""
    n, d = value.numerator, value.denominator
    if not n:
        return "0"
    # |n|/d > 2^(bits(n) - 1 - bits(d)), so 10^shift |n|/d >= 10^31
    shift = 32 + math.ceil((d.bit_length() - abs(n).bit_length() + 1) * math.log10(2))
    coeff, rest = divmod(abs(n) * 10 ** max(shift, 0), d * 10 ** max(-shift, 0))
    if rest:
        coeff += coeff % 5 == 0
    else:
        while shift > 0 and coeff % 10 == 0:
            coeff, shift = coeff // 10, shift - 1
    return str(decimal.Decimal(-coeff if n < 0 else coeff).scaleb(-shift, _DIGITS_30))


def format_ratio(value: Fraction | int) -> str:
    """``str(value)``, n/d or n, through Decimal, which has no digit limit."""
    numerator = str(decimal.Decimal(value.numerator))
    if value.denominator == 1:
        return numerator
    return f"{numerator}/{decimal.Decimal(value.denominator)}"


def format_log(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


class _ErrorBoundary(click.Group):
    """The one error boundary of every command: a CpmError exits 3 and an
    OSError exits 4, each as one stderr line; click's own exceptions pass."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except CpmError as exc:
            click.echo(f"cpm: error: {exc}", err=True)
            sys.exit(EXIT_NUMERIC)
        except OSError as exc:
            click.echo(f"cpm: i/o error: {exc}", err=True)
            sys.exit(EXIT_IO)


@click.group(cls=_ErrorBoundary, context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="cpm")
def main() -> None:
    """Compound Poisson moment calculator and experiment driver."""


@main.command()
@WEIGHTS_OPTION
@click.option("--k", "k_max", type=int, required=True, help="Largest moment order.")
@click.option("--x", type=RATIONAL, required=True, help="Poisson intensity (integer, decimal or ratio).")
@click.option("--exact/--log", "exact", default=True,
              help="Exact rational recurrence (default) or log-space values.")
@click.option("--finite-n", "finite_n", type=int, default=None,
              help="Use the exact finite-population moment for this n instead.")
@TABLE_OPTIONS
def moments(weights_spec, k_max, x, exact, finite_n, out_path, fmt):
    """Tabulate M_0(x) .. M_k(x)."""
    if finite_n is not None and not exact:
        raise click.UsageError("--finite-n needs the exact path; drop --log")
    model = wts.from_spec(weights_spec)
    _echo_header()
    columns, x_text = ["k", "x", "method", "value", "log_value"], str(x)
    if exact:
        method = "recurrence" if finite_n is None else "finite_n"
        seq = mom.moment_sequence(model, k_max, x, finite_n)
        rows = [
            (k, x_text, method, format_exact(value),
             format_log(wts.log_rational(value) if value.numerator >= 0 else None))
            for k, value in enumerate(seq)
        ]
        if fmt == "json":
            # JSON carries the ratio alongside the 30-digit decimal
            columns.append("value_ratio")
            rows = [row + (format_ratio(value),) for row, value in zip(rows, seq)]
    else:
        seq = mom.log_moment_sequence(model, k_max, x)
        rows = [(k, x_text, "recurrence", "", value) for k, value in enumerate(seq.tolist())]
    _write_table(out_path, columns, rows, fmt)


@main.command()
@WEIGHTS_OPTION
@click.option("--chi", type=FINITE_FLOAT, required=True, help="Intensity-to-order ratio x/k.")
def rate(weights_spec, chi):
    """Print the limiting rate: chi, tilt u, psi, fluctuation prefactor."""
    model = wts.from_spec(weights_spec)
    _echo_header()
    rv = asym.rate_function(model, chi)
    click.echo(json.dumps({
        "chi": chi, "u": rv.saddle.u, "psi": rv.psi, "prefactor": rv.prefactor,
        "residual": rv.saddle.residual,
    }, sort_keys=True))


@main.command()
@WEIGHTS_OPTION
@click.option("--chi", type=FINITE_FLOAT, required=True)
@click.option("--k-max", "k_max", type=int, required=True)
@TABLE_OPTIONS
def compare(weights_spec, chi, k_max, out_path, fmt):
    """Exact log-moments against the refined prediction along k, x = chi k."""
    model = wts.from_spec(weights_spec)
    _echo_header(method="saddle_dft")
    mom.check_nonnegative_order(k_max)
    rv = asym.rate_function(model, chi)
    orders = range(model.span, k_max + 1, model.span)
    log_exacts = auxdist.log_moments_on_ray(model, rv.saddle, orders)
    rows = [
        (k, log_exact, rv.log_refined(k), abs((log_exact - k * math.log(chi * k)) / k - rv.psi))
        for k, log_exact in zip(orders, log_exacts.tolist())
    ]
    _write_table(out_path, ["k", "log_exact", "log_predicted", "rate_gap"], rows, fmt)


@main.command()
@WEIGHTS_OPTION
@click.option("--x", "x_val", type=FINITE_FLOAT, default=None, help="Intensity (direct tilt mode).")
@click.option("--u", "u_val", type=FINITE_FLOAT, default=None, help="Tilt parameter (direct mode).")
@click.option("--llt-chi", "llt_chi", type=FINITE_FLOAT, default=None,
              help="Ratio x/k for the local-limit mode; supply --k too.")
@click.option("--k", "k_val", type=int, default=None, help="Order for the local-limit mode.")
@TABLE_OPTIONS
def aux(weights_spec, x_val, u_val, llt_chi, k_val, out_path, fmt):
    """Emit the tilted law's pmf and a summary line (mean, variance, r_k)."""
    model = wts.from_spec(weights_spec)
    if llt_chi is not None:
        if k_val is None:
            raise click.UsageError("--llt-chi requires --k")
        if x_val is not None or u_val is not None:
            raise click.UsageError("--llt-chi with --k sets x and u; drop --x and --u")
        x_eff, u_eff = auxdist.ray_tilt(model, llt_chi, k_val)
    else:
        if x_val is None or u_val is None or k_val is not None:
            raise click.UsageError("either give --x and --u, or --llt-chi with --k")
        x_eff, u_eff = x_val, u_val
    _echo_header(x=x_eff, u=u_eff)
    dist = auxdist.build_aux(model, x_eff, u_eff)
    summary = {
        "mean": dist.mean, "variance": dist.variance, "log_G": dist.log_G,
        "support_cap": dist.support_cap,
    }
    if llt_chi is not None:
        summary["r_k"] = dist.local_limit_ratio(k_val)
    rows = [(j, math.exp(lp)) for j, lp in enumerate(dist.log_pmf.tolist()) if lp > -math.inf]
    _write_table(out_path, ["j", "p_j"], rows, fmt)
    click.echo(json.dumps(summary, sort_keys=True))


@main.command(name="graphsim")
@click.option("--n", type=int, required=True, help="Vertex count.")
@click.option("--kappa", type=FINITE_FLOAT, required=True, help="Edge intensity: rho = kappa ln n.")
@WEIGHTS_OPTION
@click.option("--s", "s_values", type=FINITE_FLOAT_LIST, required=True,
              help="Deviation levels, comma separated.")
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=int, envvar="CPM_SEED", default=0, show_default=True)
@TABLE_OPTIONS
def graphsim_cmd(n, kappa, weights_spec, s_values, trials, seed, out_path, fmt):
    """Monte Carlo deviation probabilities of the maximal weighted degree."""
    graphsim.weight_sampler(weights_spec)  # a bad spec fails before the header
    config = graphsim.GraphSimConfig(n, kappa, weights_spec, s_values, trials, seed)
    _echo_header()
    result = graphsim.deviation_experiment(config)
    kappa_text, threshold = format_log(kappa), format_log(result.threshold_s)
    levels = zip(config.s_values, result.p_hat, result.ci_half_width, result.bound, result.vacuous)
    rows = [(n, kappa_text, *map(format_log, (s, p, ci, bound)), threshold, int(vac))
            for s, p, ci, bound, vac in levels]
    _write_table(out_path, ["n", "kappa", "s", "p_hat", "ci", "bound", "threshold", "vacuous_flag"],
                 rows, fmt)


@main.command()
@click.option("--k", type=int, required=True)
def bell(k):
    """Print the k-th Bell number."""
    _echo_header()
    click.echo(format_ratio(mom.bell_number(k)))


@main.command()
def identities() -> None:
    """Run the exact combinatorial identity suites and print a pass/fail table."""
    _echo_header()
    checks: list[tuple[str, bool]] = []

    counts = mom.composition_counts(12)
    ok = all(counts[k][p] == math.comb(k - 1, p - 1) for p in range(1, 9) for k in range(p, 13))
    checks.append(("composition multinomial sum = C(k-1, p-1), p <= 8", ok))

    def matches_moments(model: wts.WeightModel, closed_form) -> bool:
        # one exact sequence per intensity, orders 1..12 read off it, by the
        # convolution on a custom list of the same V_j: the family's own
        # route (logfact's M_(k+1) = (x + k) M_k) would restate the closed form
        model = wts.custom_model([model.moment(j) for j in range(13)])
        for x in (1, 3, Fraction(7, 2)):
            seq = mom.moment_sequence(model, 12, x)
            if any(math.factorial(k) * closed_form(k, x) != seq[k] for k in range(1, 13)):
                return False
        return True

    checks.append(("k! S_k(x) = exponential-weight moment, k <= 12",
                   matches_moments(wts.exponential(), mom.exp_identity_sum)))
    checks.append(("k! T_k(x) = factorial-weight moment, k <= 12",
                   matches_moments(wts.log_factorial(), mom.factorial_identity_rising)))

    known = {0: 1, 2: 1, 4: 4, 6: 25, 8: 262, 10: 3991}
    ok = all(mom.even_partition_number(t) == v for t, v in known.items())
    checks.append(("even-order recurrence reproduces its reference values", ok))

    width = max(len(name) for name, _ in checks)
    failed = False
    for name, passed in checks:
        click.echo(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}")
        failed = failed or not passed
    if failed:
        sys.exit(EXIT_NUMERIC)


if __name__ == "__main__":
    main()
