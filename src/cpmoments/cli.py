"""Command-line front end.

Subcommands: moments, rate, compare, aux, graphsim, bell, identities.
Every run first echoes one JSON header line with the tool version and the
resolved configuration: every option under its long name (``--k-max`` as
``k_max``), with aux's effective x and u and compare's method.  Tabular
output goes to ``--out`` as CSV or JSON, written atomically: a new table
gets mode 0666 under the umask, and an overwritten one keeps its mode.
Exit codes: 0 success, 2 usage error, 3 numeric or domain error, 4 I/O
error; one boundary, ``_run``, maps the last two for every command.

Each command declares its options as one table of ``Option`` rows, which
one scanner, ``_scan``, and one converter, ``_values``, fill: the syntax,
the help layout and the wording of every usage error are those of the click
front end this module replaced.
"""

from __future__ import annotations

import decimal
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

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

EXIT_USAGE = 2
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


class UsageError(Exception):
    """A malformed command line: ``main`` prints it under the usage line and
    exits 2."""


class Kind(NamedTuple):
    """How an option's text becomes its value.  ``parse`` raising ValueError
    or ZeroDivisionError is the usage error "'text' is not ``expected``"; its
    OverflowError's message is the error itself."""

    metavar: str
    parse: Callable[[str], object]
    expected: str = ""


class Option(NamedTuple):
    """One row of a command's option table.  ``name`` is the long flag, or
    for a switch (``kind`` None) its on and off flags, ``--exact/--log``;
    ``dest`` is the keyword of the command's function, by default the flag
    without its dashes (``--k-max`` as ``k_max``), which is also the header's
    key.  An option not given takes ``envvar``'s value where that is set and
    not empty, and else ``default``, unless it is ``required``."""

    name: str
    kind: Kind | None
    dest: str | None = None
    required: bool = False
    default: object = None
    help: str = ""
    envvar: str | None = None

    @property
    def key(self) -> str:
        return self.name.split("/")[0][2:].replace("-", "_")


class Command(NamedTuple):
    """A subcommand: its function, its option table, and each long flag it
    reads to its option, ``--help`` included."""

    name: str
    run: Callable[..., None]
    options: tuple[Option, ...]
    flags: dict[str, Option]


HELP = Option("--help", None, help="Show this message and exit.")
VERSION = Option("--version", None, help="Show the version and exit.")
COMMANDS: dict[str, Command] = {}


def command(*options: Option, name: str | None = None):
    """Register the decorated function as the subcommand ``name`` (by default
    the function's) with the option table ``options``.  It takes its header
    writer, then each option's value under the option's ``dest``; the first
    paragraph of its docstring is its help."""
    def register(run):
        flags = {"--help": HELP}
        for opt in options:
            flags.update(dict.fromkeys(opt.name.split("/"), opt))
        COMMANDS[name or run.__name__] = Command(name or run.__name__, run, options, flags)
        return run

    return register


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _table_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError(text)
    return text


INTEGER = Kind("INTEGER", int, "a valid integer.")
TEXT = Kind("TEXT", str)
PATH = Kind("PATH", str)
TABLE_FORMAT = Kind("[csv|json]", _table_format, "one of 'csv', 'json'.")
# refusing nan and +-inf keeps every header and result line standard JSON
FINITE_FLOAT = Kind("FLOAT", _finite_float, "a finite number")
RATIONAL = Kind("RATIONAL", lambda text: wts.parse_rational(text), "an integer, decimal or ratio")
FINITE_FLOAT_LIST = Kind("LIST", lambda text: tuple(map(_finite_float, text.split(","))),
                         "a comma-separated list of finite numbers")

WEIGHTS = Option("--weights", TEXT, "weights_spec", required=True, help=(
    "unit | gaussian[:V2] | gamma:m,theta | bernoulli | exponential | logfact | custom:path.json"
    ' holding {"moments": [1, v1, ...]}; parameters are integers, decimals or ratios such as'
    " 1/2.  graphsim cannot sample logfact or custom."))
# --out and --format, the options of every command that writes a table
TABLE_OPTIONS = (Option("--out", PATH, "out_path", required=True),
                 Option("--format", TABLE_FORMAT, "fmt", default="csv"))


def _no_such(what: str, name: str, known) -> UsageError:
    """The error for an unknown option or command ``name``, naming the near
    ones among ``known``."""
    from difflib import get_close_matches  # only an unknown name needs it

    message, near = f"No such {what} {name!r}.", sorted(get_close_matches(name, known))
    if len(near) > 1:
        return UsageError(f"{message} (Did you mean one of: {', '.join(map(repr, near))}?)")
    return UsageError(f"{message} Did you mean {near[0]!r}?" if near else message)


def _convert(opt: Option, text: str) -> object:
    try:
        return opt.kind.parse(text)
    except (ValueError, ZeroDivisionError):
        problem = f"{text!r} is not {opt.kind.expected}"
    except OverflowError as exc:
        problem = str(exc)
    raise UsageError(f"Invalid value for {opt.name!r}: {problem}")


def _scan(args: list[str], flags: dict[str, Option],
          interspersed: bool = True) -> tuple[dict[Option, object], list[str]]:
    """The options ``args`` give, each to its text (a switch to True or
    False, ``-h`` to HELP), in the order they first appear, and the other
    arguments.  ``--name value`` and ``--name=value`` both give a value, the
    last of a repeated option wins, and ``--`` ends the options, as does the
    first other argument unless ``interspersed``.  A flag not in ``flags``
    and a missing value are usage errors."""
    given: dict[Option, object] = {}
    positional: list[str] = []
    rest = iter(args)
    for arg in rest:
        if arg == "--":
            positional += rest
        elif arg[:2] == "--":
            flag, eq, text = arg.partition("=")
            if flag not in flags:
                raise _no_such("option", flag, flags)
            opt = flags[flag]
            if opt.kind is None:
                if eq:
                    raise UsageError(f"Option {flag!r} does not take a value.")
                given[opt] = flag == opt.name.split("/")[0]
                continue
            if not eq:
                text = next(rest, None)
                if text is None:
                    raise UsageError(f"Option {flag!r} requires an argument.")
            given[opt] = text
        elif arg[:1] == "-" and arg != "-":
            unknown = arg[1:].replace("h", "")
            if unknown:
                raise UsageError(f"No such option '-{unknown[0]}'.")
            given[HELP] = True
        elif interspersed:
            positional.append(arg)
        else:
            positional += [arg, *rest]
    return given, positional


def _values(cmd: Command, given: dict[Option, object], extra: list[str]) -> dict[Option, object]:
    """Every option's value: converted in the order the options first appear,
    then the rest in the table's order, so that the first bad or missing
    option is the one reported; other arguments are refused last."""
    values = {}
    for opt in [*given, *(opt for opt in cmd.options if opt not in given)]:
        if opt in given:
            values[opt] = given[opt] if opt.kind is None else _convert(opt, given[opt])
        elif opt.envvar and os.environ.get(opt.envvar):
            values[opt] = _convert(opt, os.environ[opt.envvar])
        elif opt.required:
            raise UsageError(f"Missing option {opt.name!r}.")
        else:
            values[opt] = opt.default
    if extra:
        raise UsageError(f"Got unexpected extra argument{'s' * (len(extra) > 1)}"
                         f" ({' '.join(extra)})")
    return values


_HELP_WIDTH = 78  # click's width on a terminal of 80 columns or more


def _help(usage: str, doc: str, sections: dict[str, list[tuple[str, str]]]) -> str:
    """Help as click lays it out: the usage line, the first paragraph of
    ``doc``, and each section's rows with their terms in one column and
    each text wrapped beside it."""
    import textwrap  # only help needs it

    lines = [f"Usage: {usage}", "", *textwrap.wrap(
        " ".join(doc.split("\n\n")[0].split()), _HELP_WIDTH, initial_indent="  ",
        subsequent_indent="  ")]
    for title, rows in sections.items():
        column = max(len(term) for term, _ in rows) + 4
        lines += ["", f"{title}:"]
        for term, text in rows:
            wrapped = textwrap.wrap(text, _HELP_WIDTH - column) or [""]
            lines.append(f"  {term:<{column - 2}}{wrapped[0]}".rstrip())
            lines += [" " * column + line for line in wrapped[1:]]
    return "\n".join(lines)


def _command_help(cmd: Command, path: str) -> str:
    rows = [(opt.name.replace("/", " / ") + (f" {opt.kind.metavar}" if opt.kind else ""),
             "  ".join(filter(None, (opt.help, "[required]" * opt.required))))
            for opt in cmd.options]
    return _help(f"{path} [OPTIONS]", cmd.run.__doc__,
                 {"Options": [*rows, ("-h, --help", HELP.help)]})


def _group_help(path: str) -> str:
    """The group's help: each command with its docstring's first line, cut
    at a word to fit one line of the listing, marked "...", as click cut it."""
    names = sorted(COMMANDS)
    limit = _HELP_WIDTH - 6 - max(map(len, names))
    rows = []
    for name in names:
        words = COMMANDS[name].run.__doc__.split("\n")[0].split()
        summary = " ".join(words)
        while len(summary) > limit:
            words.pop()
            summary = " ".join(words) + "..."
        rows.append((name, summary))
    return _help(f"{path} [OPTIONS] COMMAND [ARGS]...", main.__doc__, {
        "Options": [("--version", VERSION.help), ("-h, --help", HELP.help)], "Commands": rows})


def _echo(text: str, err: bool = False) -> None:
    """``text`` and a newline on stdout, or stderr, flushed at once."""
    stream = sys.stderr if err else sys.stdout
    stream.write(text + "\n")
    stream.flush()


def _echo_header(command: str, config: dict, **effective) -> None:
    """The header line of ``command``: ``config`` keys every option's parsed
    value by the option's long name, and ``effective`` adds the values a
    command derives or adds."""
    _echo(json.dumps(
        {"tool": "cpm", "version": __version__, "command": command,
         "config": {**config, **effective}},
        sort_keys=True,
    ))


def _run(cmd: Command, values: dict[Option, object]) -> None:
    """The one error boundary of every command: a CpmError exits 3 and an
    OSError exits 4, each as one stderr line; a UsageError passes to main.
    The command's first argument writes its header (``_echo_header``), each
    option's value keyed by its long name, a Fraction as its ratio string."""
    config = {opt.key: str(value) if isinstance(value, Fraction) else value
              for opt, value in values.items()}
    try:
        cmd.run(partial(_echo_header, cmd.name, config),
                **{opt.dest or opt.key: value for opt, value in values.items()})
    except CpmError as exc:
        _echo(f"cpm: error: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)
    except OSError as exc:
        _echo(f"cpm: i/o error: {exc}", err=True)
        sys.exit(EXIT_IO)


def main(args: list[str] | None = None, prog_name: str | None = None,
         standalone_mode: bool = True) -> None:
    """Compound Poisson moment calculator and experiment driver.

    Runs ``cpm`` on ``args`` (``sys.argv[1:]`` by default) under the program
    name ``prog_name`` (by default that of ``sys.argv[0]``), and exits 0 when
    the command returns, unless ``standalone_mode`` is false, when it
    returns.  ``-h``/``--help`` and ``--version`` print and exit 0; a usage
    error prints the usage line and ``Error: ...`` to stderr and exits 2.
    ``main.main`` and ``main.name`` are the entry point and name that
    ``click.testing.CliRunner`` calls and reads."""
    args = list(sys.argv[1:] if args is None else args)
    path = prog_name or os.path.basename(sys.argv[0])
    usage = f"{path} [OPTIONS] COMMAND [ARGS]..."
    try:
        given, positional = _scan(args, {"--version": VERSION, "--help": HELP}, interspersed=False)
        eager = next(iter(given), None)  # the first of --version and --help
        if eager is VERSION:
            _echo(f"cpm, version {__version__}")
        elif eager is HELP:
            _echo(_group_help(path))
        elif not args:
            _echo(_group_help(path), err=True)
            sys.exit(EXIT_USAGE)
        elif not positional:
            raise UsageError("Missing command.")
        elif positional[0] not in COMMANDS:
            raise _no_such("command", positional[0], COMMANDS)
        else:
            cmd = COMMANDS[positional[0]]
            path = f"{path} {cmd.name}"
            usage = f"{path} [OPTIONS]"
            given, extra = _scan(positional[1:], cmd.flags)
            if HELP in given:  # before any value is converted
                _echo(_command_help(cmd, path))
            else:
                _run(cmd, _values(cmd, given, extra))
    except UsageError as exc:
        _echo(f"Usage: {usage}\nTry '{path} --help' for help.\n\nError: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    except KeyboardInterrupt:
        _echo("\nAborted!", err=True)
        sys.exit(1)
    if standalone_mode:
        sys.exit(0)


main.main, main.name = main, "cpm"


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


@command(
    WEIGHTS,
    Option("--k", INTEGER, "k_max", required=True, help="Largest moment order."),
    Option("--x", RATIONAL, required=True, help="Poisson intensity (integer, decimal or ratio)."),
    Option("--exact/--log", None, default=True,
           help="Exact rational recurrence (default) or log-space values."),
    Option("--finite-n", INTEGER,
           help="Use the exact finite-population moment for this n instead."),
    *TABLE_OPTIONS,
)
def moments(header, weights_spec, k_max, x, exact, finite_n, out_path, fmt):
    """Tabulate M_0(x) .. M_k(x)."""
    if finite_n is not None and not exact:
        raise UsageError("--finite-n needs the exact path; drop --log")
    model = wts.from_spec(weights_spec)
    header()
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


@command(WEIGHTS, Option("--chi", FINITE_FLOAT, required=True, help="Intensity-to-order ratio x/k."))
def rate(header, weights_spec, chi):
    """Print the limiting rate: chi, tilt u, psi, fluctuation prefactor."""
    model = wts.from_spec(weights_spec)
    header()
    rv = asym.rate_function(model, chi)
    _echo(json.dumps({
        "chi": chi, "u": rv.saddle.u, "psi": rv.psi, "prefactor": rv.prefactor,
        "residual": rv.saddle.residual,
    }, sort_keys=True))


@command(WEIGHTS, Option("--chi", FINITE_FLOAT, required=True),
         Option("--k-max", INTEGER, required=True), *TABLE_OPTIONS)
def compare(header, weights_spec, chi, k_max, out_path, fmt):
    """Exact log-moments against the refined prediction along k, x = chi k."""
    model = wts.from_spec(weights_spec)
    header(method="saddle_dft")
    mom.check_nonnegative_order(k_max)
    rv = asym.rate_function(model, chi)
    orders = range(model.span, k_max + 1, model.span)
    log_exacts = auxdist.log_moments_on_ray(model, rv.saddle, orders)
    rows = [
        (k, log_exact, rv.log_refined(k), abs((log_exact - k * math.log(chi * k)) / k - rv.psi))
        for k, log_exact in zip(orders, log_exacts.tolist())
    ]
    _write_table(out_path, ["k", "log_exact", "log_predicted", "rate_gap"], rows, fmt)


@command(
    WEIGHTS,
    Option("--x", FINITE_FLOAT, "x_val", help="Intensity (direct tilt mode)."),
    Option("--u", FINITE_FLOAT, "u_val", help="Tilt parameter (direct mode)."),
    Option("--llt-chi", FINITE_FLOAT, help="Ratio x/k for the local-limit mode; supply --k too."),
    Option("--k", INTEGER, "k_val", help="Order for the local-limit mode."),
    *TABLE_OPTIONS,
)
def aux(header, weights_spec, x_val, u_val, llt_chi, k_val, out_path, fmt):
    """Emit the tilted law's pmf and a summary line (mean, variance, r_k)."""
    model = wts.from_spec(weights_spec)
    if llt_chi is not None:
        if k_val is None:
            raise UsageError("--llt-chi requires --k")
        if x_val is not None or u_val is not None:
            raise UsageError("--llt-chi with --k sets x and u; drop --x and --u")
        x_eff, u_eff = auxdist.ray_tilt(model, llt_chi, k_val)
    else:
        if x_val is None or u_val is None or k_val is not None:
            raise UsageError("either give --x and --u, or --llt-chi with --k")
        x_eff, u_eff = x_val, u_val
    header(x=x_eff, u=u_eff)
    dist = auxdist.build_aux(model, x_eff, u_eff)
    summary = {
        "mean": dist.mean, "variance": dist.variance, "log_G": dist.log_G,
        "support_cap": dist.support_cap,
    }
    if llt_chi is not None:
        summary["r_k"] = dist.local_limit_ratio(k_val)
    rows = [(j, math.exp(lp)) for j, lp in enumerate(dist.log_pmf.tolist()) if lp > -math.inf]
    _write_table(out_path, ["j", "p_j"], rows, fmt)
    _echo(json.dumps(summary, sort_keys=True))


@command(
    Option("--n", INTEGER, required=True, help="Vertex count."),
    Option("--kappa", FINITE_FLOAT, required=True, help="Edge intensity: rho = kappa ln n."),
    WEIGHTS,
    Option("--s", FINITE_FLOAT_LIST, "s_values", required=True,
           help="Deviation levels, comma separated."),
    Option("--trials", INTEGER, required=True),
    Option("--seed", INTEGER, default=0, help="[default: 0]", envvar="CPM_SEED"),
    *TABLE_OPTIONS,
    name="graphsim",
)
def graphsim_cmd(header, n, kappa, weights_spec, s_values, trials, seed, out_path, fmt):
    """Monte Carlo deviation probabilities of the maximal weighted degree."""
    graphsim.weight_sampler(weights_spec)  # a bad spec fails before the header
    config = graphsim.GraphSimConfig(n, kappa, weights_spec, s_values, trials, seed)
    header()
    result = graphsim.deviation_experiment(config)
    kappa_text, threshold = format_log(kappa), format_log(result.threshold_s)
    levels = zip(config.s_values, result.p_hat, result.ci_half_width, result.bound, result.vacuous)
    rows = [(n, kappa_text, *map(format_log, (s, p, ci, bound)), threshold, int(vac))
            for s, p, ci, bound, vac in levels]
    _write_table(out_path, ["n", "kappa", "s", "p_hat", "ci", "bound", "threshold", "vacuous_flag"],
                 rows, fmt)


@command(Option("--k", INTEGER, required=True))
def bell(header, k):
    """Print the k-th Bell number."""
    header()
    _echo(format_ratio(mom.bell_number(k)))


@command()
def identities(header) -> None:
    """Run the exact combinatorial identity suites and print a pass/fail table."""
    header()
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
        _echo(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}")
        failed = failed or not passed
    if failed:
        sys.exit(EXIT_NUMERIC)


if __name__ == "__main__":
    main(prog_name="python -m cpmoments.cli")
