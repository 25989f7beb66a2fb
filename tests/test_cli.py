import csv
import decimal
import hashlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from conftest import prime_power_moments, read_table
from cpmoments import asymptotics as asym
from cpmoments import auxdist, cli, graphsim, moments, weights
from cpmoments.errors import DomainError


@pytest.fixture
def runner():
    return CliRunner()


def header_of(output: str) -> dict:
    return cli.validate_header(json.loads(output.splitlines()[0]))


class TestHeader:
    def test_every_command_echoes_valid_header(self, runner, tmp_path):
        # the config holds every option under its long name, and compare adds
        # its method
        out = ["--out", str(tmp_path / "t.csv")]
        invocations = {
            "bell": ["--k", "5"],
            "rate": ["--weights", "unit", "--chi", "1"],
            "identities": [],
            "moments": ["--weights", "unit", "--k", "3", "--x", "1", *out],
            "compare": ["--weights", "unit", "--chi", "1", "--k-max", "3", *out],
            "aux": ["--weights", "unit", "--llt-chi", "1", "--k", "20", *out],
            "graphsim": ["--n", "50", "--kappa", "1", "--weights", "unit", "--s", "1.0",
                         "--trials", "2", *out],
        }
        assert set(invocations) == set(cli.COMMANDS)
        for name, command in cli.COMMANDS.items():
            result = runner.invoke(cli.main, [name, *invocations[name]])
            assert result.exit_code == 0, result.output
            header = header_of(result.output)
            assert header["command"] == name
            # a switch's key is its on flag's: --exact/--log as exact
            keys = {opt.name.split("/")[0][2:].replace("-", "_") for opt in command.options}
            assert set(header["config"]) == keys | ({"method"} if name == "compare" else set())
            if name == "aux":  # the effective x and u replace the unset --x and --u
                x, u = auxdist.ray_tilt(weights.unit(), 1.0, 20)
                assert (header["config"]["x"], header["config"]["u"]) == (x, u)

    def test_schema_rejects_malformed(self):
        with pytest.raises(ValueError):
            cli.validate_header({"tool": "cpm"})
        with pytest.raises(ValueError):
            cli.validate_header([1, 2])

    @pytest.mark.parametrize("key, value", [
        ("tool", 1), ("version", None), ("command", ["moments"]), ("config", "{}"),
    ])
    def test_schema_rejects_a_key_of_the_wrong_type(self, key, value):
        header = {"tool": "cpm", "version": "0.1.0", "command": "bell", "config": {}}
        assert cli.validate_header(dict(header)) == header
        header[key] = value
        with pytest.raises(ValueError, match=f"^header key {key!r} must be "):
            cli.validate_header(header)


@pytest.fixture
def int_str_limit_640():
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(previous)


class TestBell:
    def test_known_value(self, runner):
        result = runner.invoke(cli.main, ["bell", "--k", "10"])
        assert result.exit_code == 0
        assert result.output.strip().splitlines()[-1] == "115975"

    def test_past_the_integer_string_limit(self, runner, int_str_limit_640):
        # B_500 has 844 digits, beyond str(int)'s limit, lowered here to 640
        result = runner.invoke(cli.main, ["bell", "--k", "500"])
        assert result.exit_code == 0, result.output
        printed = result.output.strip().splitlines()[-1]
        row = [1]  # the Bell triangle: B_k starts row k
        for _ in range(500):
            nxt = [row[-1]]
            for value in row:
                nxt.append(nxt[-1] + value)
            row = nxt
        assert len(printed) == 844
        assert Decimal(printed) == Decimal(row[0])


class TestIdentities:
    def test_all_pass_without_profile_enumeration(self, runner, monkeypatch):
        def refuse(k):
            raise AssertionError("partition_profiles called")

        monkeypatch.setattr(moments, "partition_profiles", refuse)
        result = runner.invoke(cli.main, ["identities"])
        assert result.exit_code == 0, result.output
        checks = result.output.strip().splitlines()[1:]
        assert len(checks) == 4
        assert all(line.endswith("  PASS") for line in checks), result.output

    def test_failing_identity_exits_3_with_a_fail_row(self, runner, monkeypatch):
        monkeypatch.setattr(moments, "even_partition_number", lambda two_k: 0)
        result = runner.invoke(cli.main, ["identities"])
        assert result.exit_code == 3, result.output
        checks = result.output.strip().splitlines()[1:]
        assert checks[-1] == "even-order recurrence reproduces its reference values  FAIL"
        assert all(line.endswith("  PASS") for line in checks[:-1])

    def test_closed_form_mismatch_exits_3_with_a_fail_row(self, runner, monkeypatch):
        monkeypatch.setattr(moments, "exp_identity_sum", lambda k, x: Fraction(0))
        result = runner.invoke(cli.main, ["identities"])
        assert result.exit_code == 3, result.output
        checks = result.output.strip().splitlines()[1:]
        assert checks[1] == "k! S_k(x) = exponential-weight moment, k <= 12         FAIL"
        assert all(line.endswith("  PASS") for line in checks[:1] + checks[2:])

    def test_one_exact_sequence_for_the_composition_grid(self, runner, monkeypatch):
        # one M_k(2^b) sequence for the 68 (k, p) pairs, then one per intensity
        # and model; the output is the one the per-pair calls wrote
        calls = []
        sequence = moments.moment_sequence

        def counted(*args):
            calls.append(args)
            return sequence(*args)

        monkeypatch.setattr(moments, "moment_sequence", counted)
        result = runner.invoke(cli.main, ["identities"])
        assert result.exit_code == 0, result.output
        assert result.output == (
            '{"command": "identities", "config": {}, "tool": "cpm", "version": "0.1.0"}\n'
            "composition multinomial sum = C(k-1, p-1), p <= 8      PASS\n"
            "k! S_k(x) = exponential-weight moment, k <= 12         PASS\n"
            "k! T_k(x) = factorial-weight moment, k <= 12           PASS\n"
            "even-order recurrence reproduces its reference values  PASS\n"
        )
        assert len(calls) <= 7


# sha256 of the `cpm moments --k 40 --x 7/2` tables that the Fraction form of
# the recurrence writes; the integer engine reproduces them byte for byte
MOMENT_TABLE_DIGESTS = [
    ("unit", "csv", [],
     "7a68c39a524dcf761e885ac15619b0e9adc4fccf91d67af5c1576d31832e59b8"),
    ("unit", "json", [],
     "efcc955e10d8be308c2e2a9d21efa5a470b43ac88b68ad72a6334bbf78038ce8"),
    ("unit", "csv", ["--finite-n", "50"],
     "c2f44f0e2eef2d08f27b9c82e674050acc2fa1af6c798339afcf2319cc44dccf"),
    ("gaussian", "csv", [],
     "2e11a3cba6ba83de9e338c6c1a72ef1dec88f70316a9fdc1e2f3fa15d8d4a600"),
    ("gaussian", "json", [],
     "f2d1f5c91c99487650d9a24b13d6ba5251f09c7044651000050340838a30e915"),
    ("gaussian", "csv", ["--finite-n", "50"],
     "a3a74aa5f5cd17861e720a78a4d76a86b7cf27d39c62eda6ff23ed0ef9dd8599"),
    ("gamma:2,1/2", "csv", [],
     "be32e9c289bc56a865493047a1197283d3d7358b6301f20681442f5984dd2084"),
    ("gamma:2,1/2", "json", [],
     "b246dca30fd5160093a31b31c5f2f58be6f6f66da7440e36a467382e1bc1ab7f"),
    ("gamma:2,1/2", "csv", ["--finite-n", "50"],
     "17bfbb8599c33e2fd41a1417dc84935654d596f4e9cb3938ea04d43e73b2e6a2"),
    ("bernoulli", "csv", [],
     "22bee024c7c59bc4e060641de866b0d3415269525238ad9d155d83587b931ee3"),
    ("bernoulli", "json", [],
     "3eea2741cbc2a0bf0998a03e68a6b8a3b50d490e73dd71973bc1917311d3e5da"),
    ("bernoulli", "csv", ["--finite-n", "50"],
     "f0072a361982c97adff901ec11bc5ac794ddfee043911ccc229b7dfce68d6b77"),
    ("exponential", "csv", [],
     "5cfee1a038badb718a45ab80b815dceb005fcd29740395c38ccb70bf47f02277"),
    ("exponential", "json", [],
     "7daf3bd30169763947d72ec7265c233898da1771c6c26b13e02219baed541ff4"),
    ("exponential", "csv", ["--finite-n", "50"],
     "e14b4e0f9e88463f0d144baee9337c153d4244baed4ac16ac677eb009c76527e"),
    ("logfact", "csv", [],
     "f93300c04e5f8b523e2889edbf09ca818de4ee436db73a284337776bf3d08327"),
    ("logfact", "json", [],
     "ce7a4e09f6acbd1d747eecea8bee40c8218c82f5fd2bfb4f45b24514e6427cef"),
    ("logfact", "csv", ["--finite-n", "50"],
     "d128d1137607d92e4fb251b082c918945303f1d62c2aeeb466133f8e64554292"),
]


class TestMoments:
    @pytest.mark.parametrize("spec, fmt, extra, digest", MOMENT_TABLE_DIGESTS)
    def test_tables_are_byte_identical(self, runner, tmp_path, spec, fmt, extra, digest):
        out = tmp_path / f"m.{fmt}"
        result = runner.invoke(cli.main, [
            "moments", "--weights", spec, "--k", "40", "--x", "7/2", "--out", str(out),
            "--format", fmt, *extra,
        ])
        assert result.exit_code == 0, result.output
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("k, x", [("400", "1e-300"), ("150", f"1/{7**4000}")],
                             ids=["1e-300", "1/7^4000"])
    def test_long_rational_refused_in_under_a_second(self, runner, tmp_path, k, x):
        start = time.monotonic()
        result = runner.invoke(cli.main, [
            "moments", "--weights", "unit", "--k", k, "--x", x, "--out", str(tmp_path / "m.csv"),
        ])
        assert time.monotonic() - start < 1.0
        assert result.exit_code == 3, result.output
        assert result.stderr.endswith(f"bit products, more than {moments.MAX_EXACT_BITS}\n")

    def test_custom_moments_past_float_range(self, runner, tmp_path):
        # the exact and the log tables read the exact V_j, never their floats
        spec_file = tmp_path / "w.json"
        spec_file.write_text('{"moments": [1, "1e400", "1e400"]}')
        for extra in ([], ["--log"]):
            out = tmp_path / "m.csv"
            result = runner.invoke(cli.main, [
                "moments", "--weights", f"custom:{spec_file}", "--k", "2", "--x", "1",
                "--out", str(out), *extra,
            ])
            assert result.exit_code == 0, result.output
            rows = read_table(str(out))
            # M_1 = V_1 = 1e400, M_2 = V_2 + V_1^2 = 1e800 + 1e400
            assert float(rows[1]["log_value"]) == pytest.approx(400 * math.log(10))
            assert float(rows[2]["log_value"]) == pytest.approx(800 * math.log(10))
            assert rows[1]["value"] == ("" if extra else "1.00000000000000000000000000000E+400")

    @pytest.mark.parametrize("spec", ["gaussian:1e400", "gamma:1e400,1", "gamma:1,1e400"])
    def test_laws_past_float_range(self, runner, tmp_path, spec):
        # the exact table reads the exact parameters, and the log table their logs
        tables = []
        for extra in ([], ["--log"]):
            out = tmp_path / "m.csv"
            result = runner.invoke(cli.main, [
                "moments", "--weights", spec, "--k", "40", "--x", "1", "--out", str(out), *extra,
            ])
            assert result.exit_code == 0, result.output
            tables.append([float(row["log_value"]) for row in read_table(str(out))])
        assert tables[0][2] > 900
        assert tables[1] == pytest.approx(tables[0], rel=1e-12)

    @pytest.mark.parametrize("spec", [f"gamma:{m},{theta}" for m in ("1", "2", "1/2", "1e400")
                                      for theta in ("1e-320", "1e-400")])
    def test_gamma_scale_below_float_range(self, runner, tmp_path, spec):
        # the radius 1/theta is past float range or inf; no table reads it
        tables = []
        for extra in ([], ["--log"]):
            out = tmp_path / "m.csv"
            result = runner.invoke(cli.main, [
                "moments", "--weights", spec, "--k", "40", "--x", "7/2", "--out", str(out), *extra,
            ])
            assert result.exit_code == 0, result.output
            tables.append([float(row["log_value"]) for row in read_table(str(out))])
        assert tables[1] == pytest.approx(tables[0], rel=1e-12)

    def test_exact_table_round_trips(self, runner, tmp_path):
        out = tmp_path / "m.csv"
        result = runner.invoke(cli.main, [
            "moments", "--weights", "exponential", "--k", "6", "--x", "7/2",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        rows = read_table(str(out))
        assert [row["k"] for row in rows] == [str(k) for k in range(7)]
        assert rows[0]["value"] == "1"
        expected = moments.moment_recurrence(weights.exponential(), 6, Fraction(7, 2))
        assert float(rows[6]["value"]) == pytest.approx(float(expected.value_exact))
        assert float(rows[6]["log_value"]) == pytest.approx(expected.value_log)

    def test_thirty_significant_digits(self, runner, tmp_path):
        out = tmp_path / "m.csv"
        runner.invoke(cli.main, [
            "moments", "--weights", "exponential", "--k", "12", "--x", "1/3",
            "--out", str(out),
        ])
        rows = read_table(str(out))
        digits = rows[12]["value"].replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) >= 28

    def test_log_mode(self, runner, tmp_path):
        out = tmp_path / "m.csv"
        result = runner.invoke(cli.main, [
            "moments", "--weights", "unit", "--k", "10", "--x", "1", "--log",
            "--out", str(out),
        ])
        assert result.exit_code == 0
        rows = read_table(str(out))
        assert rows[10]["value"] == ""
        assert float(rows[10]["log_value"]) == pytest.approx(math.log(115975), rel=1e-12)

    @pytest.mark.parametrize("x", ["1e400", "1e-400"])
    def test_log_mode_past_float_range(self, runner, tmp_path, x):
        # ln x comes from the exact x: float(x) overflowed at 1e400 and was 0
        # at 1e-400
        out = tmp_path / "m.csv"
        result = runner.invoke(cli.main, [
            "moments", "--weights", "unit", "--k", "5", "--x", x, "--log", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        want = moments.moment_sequence(weights.unit(), 5, weights.parse_rational(x))
        for row, value in zip(read_table(str(out)), want, strict=True):
            assert float(row["log_value"]) == pytest.approx(weights.log_rational(value), rel=1e-13)

    def test_negative_moment_has_no_log_value(self, runner, tmp_path):
        # custom weights V_1 = -2: M_1(1) = -2 has no logarithm, M_2(1) = 1 + 4
        out, spec = tmp_path / "m.csv", tmp_path / "w.json"
        spec.write_text('{"moments": [1, -2, 1]}')
        result = runner.invoke(cli.main, [
            "moments", "--weights", f"custom:{spec}", "--k", "2", "--x", "1",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        rows = read_table(str(out))
        assert [(row["value"], row["log_value"]) for row in rows] == [
            ("1", "0"), ("-2", ""), ("5", cli.format_log(math.log(5)))]

    def test_finite_n_mode(self, runner, tmp_path):
        out = tmp_path / "m.csv"
        result = runner.invoke(cli.main, [
            "moments", "--weights", "unit", "--k", "3", "--x", "1",
            "--finite-n", "1000", "--out", str(out),
        ])
        assert result.exit_code == 0
        rows = read_table(str(out))
        assert rows[3]["method"] == "finite_n"
        assert float(rows[3]["value"]) == pytest.approx(5.0, rel=0.01)

    def test_json_format_carries_ratio_and_decimal(self, runner, tmp_path):
        out = tmp_path / "m.json"
        result = runner.invoke(cli.main, [
            "moments", "--weights", "exponential", "--k", "3", "--x", "7/2",
            "--out", str(out), "--format", "json",
        ])
        assert result.exit_code == 0
        rows = read_table(str(out))
        assert rows[3]["value_ratio"] == "1099/8"
        assert rows[3]["value"] == "137.375"

    def test_json_ratio_past_the_integer_string_limit(self, runner, tmp_path):
        # M_20(1e300) has 6001 digits, beyond str(int)'s default limit of 4300
        out = tmp_path / "m.json"
        result = runner.invoke(cli.main, [
            "moments", "--weights", "unit", "--k", "20", "--x", "1e300",
            "--out", str(out), "--format", "json",
        ])
        assert result.exit_code == 0, result.output
        expected = moments.moment_sequence(weights.unit(), 20, Fraction(10**300))
        for row, value in zip(read_table(str(out)), expected, strict=True):
            numerator, _, denominator = row["value_ratio"].partition("/")
            parsed = Fraction(int(Decimal(numerator)), int(Decimal(denominator or "1")))
            assert parsed == value, row["k"]


def decimal_quotient(value):
    """The 30-digit Decimal division ``cli.format_exact`` replaces: its oracle."""
    with decimal.localcontext() as ctx:
        ctx.prec = 30
        return str(Decimal(value.numerator) / Decimal(value.denominator))


LONG_INTEGERS = st.integers(-(10**80), 10**80) | st.integers(0, 400).map(lambda e: 7 * 10**e)


class TestFormatExact:
    @pytest.mark.parametrize("value, text", [
        (Fraction(7, 2), "3.5"), (Fraction(1, 8), "0.125"), (Fraction(0), "0"),
        (Fraction(-7, 2), "-3.5"), (Fraction(10**40), "1.00000000000000000000000000000E+40"),
        (Fraction(123), "123"), (Fraction(-1, 3), "-0.333333333333333333333333333333"),
        (Fraction(1, 10**400), "1E-400"), (Fraction(2, 3**1000), None),
        (Fraction(10**29 * 3 + 5, 10), None), (Fraction(5 * 10**35), None),
        # a 31st digit of exactly 5: halfway rounds to even, past it rounds up
        (Fraction(4 * 10**29 + 1, 2), "200000000000000000000000000000"),
        (Fraction(4 * 10**29 + 1, 2) + Fraction(1, 10**60), "200000000000000000000000000001"),
        (Fraction(4 * 10**29 + 1, 2) - Fraction(1, 10**60), "200000000000000000000000000000"),
    ])
    def test_cases(self, value, text):
        assert cli.format_exact(value) == decimal_quotient(value)
        assert text is None or cli.format_exact(value) == text

    @given(LONG_INTEGERS, st.integers(1, 10**80) | st.integers(0, 300).map(lambda e: 2**e * 5**e))
    def test_matches_decimal_division(self, numerator, denominator):
        value = Fraction(numerator, denominator)
        assert cli.format_exact(value) == decimal_quotient(value)

    def test_decimal_gets_only_the_rounded_quotient(self, monkeypatch):
        # gaussian:1e-300 to k = 200 has denominators of up to 30000 digits,
        # whose conversion to Decimal took 0.64 s against 0.055 s in the engine
        seq = moments.moment_sequence(weights.gaussian_centered(Fraction(1, 10**300)), 200, 1)
        rows = seq[::10] + seq[-1:]
        want = [decimal_quotient(value) for value in rows]

        def short(value):
            assert abs(value) < 10**40
            return Decimal(value)

        monkeypatch.setattr(decimal, "Decimal", short)
        assert [cli.format_exact(value) for value in rows] == want


class TestRate:
    def test_prints_rate_quadruple(self, runner):
        result = runner.invoke(cli.main, ["rate", "--weights", "unit", "--chi", "1"])
        assert result.exit_code == 0
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["u"] == pytest.approx(0.5671432904097838, abs=1e-12)
        assert payload["psi"] == pytest.approx(0.3303661247616807, abs=1e-12)
        assert 0 < payload["prefactor"] <= 1


class TestCompare:
    def test_rate_gap_decreases(self, runner, tmp_path):
        out = tmp_path / "c.csv"
        result = runner.invoke(cli.main, [
            "compare", "--weights", "unit", "--chi", "1", "--k-max", "200",
            "--out", str(out),
        ])
        assert result.exit_code == 0
        rows = {int(r["k"]): r for r in read_table(str(out))}
        gaps = [float(rows[k]["rate_gap"]) for k in (25, 50, 100, 200)]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]

    def test_parity_model_emits_even_orders(self, runner, tmp_path):
        out = tmp_path / "c.csv"
        runner.invoke(cli.main, [
            "compare", "--weights", "bernoulli", "--chi", "1", "--k-max", "20",
            "--out", str(out),
        ])
        ks = [int(r["k"]) for r in read_table(str(out))]
        assert ks == list(range(2, 21, 2))

    def test_no_log_recurrence_per_row(self, runner, tmp_path, monkeypatch):
        # the table reads every order off one saddle; a recurrence per row
        # would make the command cubic in --k-max
        calls = []
        original = moments.log_moment_sequence

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(moments, "log_moment_sequence", counted)
        out = tmp_path / "c.csv"
        result = runner.invoke(cli.main, [
            "compare", "--weights", "unit", "--chi", "1", "--k-max", "200", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert header_of(result.output)["config"]["method"] == "saddle_dft"
        assert len(read_table(str(out))) == 200
        assert calls == []

    def test_one_saddle_per_table(self, runner, tmp_path, monkeypatch):
        # every row's prediction comes from the rate the command solved once
        calls = []
        original = asym.solve_saddle

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(asym, "solve_saddle", counted)
        out = tmp_path / "c.csv"
        result = runner.invoke(cli.main, [
            "compare", "--weights", "exponential", "--chi", "1.5", "--k-max", "200",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1
        monkeypatch.undo()
        model = weights.exponential()
        for row in read_table(str(out)):
            expected = asym.refined_prediction(model, int(row["k"]), 1.5)
            assert row["log_predicted"] == cli.format_log(expected)

    def test_rate_gap_at_large_chi(self, runner, tmp_path):
        # H(u) - 1 ~ 1e-10 here; formed from H it put 8.3e-8 into every row.
        # For unit weights M_k = x^k (1 + C(k, 2)/x + ...) and psi = 1/(2 chi)
        # + O(chi^-2), so the true gap is 1/(2 chi k) to ~1e-18: 5e-11 at
        # k = 1, 2.5e-13 at k = 200
        chi = 1e10
        out = tmp_path / "c.csv"
        result = runner.invoke(cli.main, [
            "compare", "--weights", "unit", "--chi", str(chi), "--k-max", "200", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        for row in read_table(str(out)):
            k = int(row["k"])
            assert abs(float(row["rate_gap"]) - 1.0 / (2.0 * chi * k)) <= 1e-13, k

    def test_zero_k_max_writes_empty_table(self, runner, tmp_path):
        out = tmp_path / "c.csv"
        result = runner.invoke(cli.main, [
            "compare", "--weights", "unit", "--chi", "1", "--k-max", "0", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert out.read_text() == "k,log_exact,log_predicted,rate_gap\n"


class TestAux:
    def test_direct_mode_emits_pmf(self, runner, tmp_path):
        out = tmp_path / "a.csv"
        result = runner.invoke(cli.main, [
            "aux", "--weights", "unit", "--x", "1", "--u", "0.5", "--out", str(out),
        ])
        assert result.exit_code == 0
        rows = read_table(str(out))
        total = sum(float(r["p_j"]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-10)
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert summary["mean"] == pytest.approx(0.5 * math.exp(0.5))

    def test_scale_below_float_range_is_a_point_mass(self, runner, tmp_path):
        # theta is 0 in the floats, so H - 1 is 0 and the tilted law sits at 0
        out = tmp_path / "a.csv"
        result = runner.invoke(cli.main, [
            "aux", "--weights", "gamma:1,1e-400", "--x", "1", "--u", "0.5", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert read_table(str(out)) == [{"j": "0", "p_j": "1"}]
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert (summary["mean"], summary["variance"], summary["support_cap"]) == (0.0, 0.0, 0)

    def test_local_limit_mode(self, runner, tmp_path):
        out = tmp_path / "a.csv"
        result = runner.invoke(cli.main, [
            "aux", "--weights", "unit", "--llt-chi", "1", "--k", "100",
            "--out", str(out),
        ])
        assert result.exit_code == 0
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert summary["r_k"] == pytest.approx(1.0, abs=0.01)

    def test_large_order_stays_within_the_work_bound(self, runner, tmp_path):
        # the support reaches past order 10000, far inside the transform's
        # 2^18 points; that bound refuses runaway supports, not this one
        out = tmp_path / "a.csv"
        result = runner.invoke(cli.main, [
            "aux", "--weights", "unit", "--llt-chi", "1", "--k", "9000",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert summary["r_k"] == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("weights_spec, chi, k, cap", [
        ("unit", "1e4", "10", 39), ("unit", "1e6", "10", 39), ("unit", "1e10", "10", 39),
        ("unit", "3", "400", None), ("gamma:2,1/2", "3", "400", None),
        ("exponential", "3", "1000", None),
    ])
    def test_first_support_suffices(self, runner, tmp_path, weights_spec, chi, k, cap):
        # these runs used to double the support until the work bound refused
        # them (3 to 194 s): large chi formed G from H - 1.0, and at chi = 3
        # the mass missed 1 - 1e-12 by rounding alone
        out = tmp_path / "a.csv"
        start = time.perf_counter()
        result = runner.invoke(cli.main, [
            "aux", "--weights", weights_spec, "--llt-chi", chi, "--k", k, "--out", str(out),
        ])
        assert time.perf_counter() - start < 2.0
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output.strip().splitlines()[-1])
        assert abs(sum(float(r["p_j"]) for r in read_table(str(out))) - 1.0) <= 1e-9
        if cap is not None:  # k = 10 is too low an order for the local limit
            assert summary["support_cap"] == cap
        else:
            assert abs(summary["r_k"] - 1.0) < 0.02

    def test_large_intensity_reads_in_bands(self, runner, tmp_path):
        # x = 1e5: about 85000 orders, which the log recurrence's work bound
        # refused; the banded transforms read them in well under a second
        x, u = 100000.0, 0.5
        out = tmp_path / "a.csv"
        start = time.perf_counter()
        result = runner.invoke(cli.main, [
            "aux", "--weights", "unit", "--x", "100000", "--u", "0.5", "--out", str(out),
        ])
        assert time.perf_counter() - start < 2.0
        assert result.exit_code == 0, result.output
        rows = read_table(str(out))
        ps = [float(r["p_j"]) for r in rows]
        assert abs(math.fsum(ps) - 1.0) <= 1e-10
        mean = math.fsum(int(r["j"]) * p for r, p in zip(rows, ps))
        assert mean == pytest.approx(x * u * math.exp(u), rel=1e-9)

    def test_long_geometric_tail_reads_in_longer_bands(self, runner, tmp_path):
        # logfact at chi = 1e-3 reaches order 25654 with P(Z = j) ~ x u^j / j:
        # no band of 2^18 points reads its top orders, a longer one does
        out = tmp_path / "a.csv"
        result = runner.invoke(cli.main, [
            "aux", "--weights", "logfact", "--llt-chi", "0.001", "--k", "10", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        ps = [float(r["p_j"]) for r in read_table(str(out))]
        assert len(ps) > 20000
        assert abs(math.fsum(ps) - 1.0) <= 1e-10

    @pytest.mark.parametrize("weights_spec", ["unit", "gamma:2,1/2"])
    def test_local_limit_mode_is_the_law_at_the_ray_tilt(self, runner, tmp_path, weights_spec):
        out = tmp_path / "a.csv"
        result = runner.invoke(cli.main, [
            "aux", "--weights", weights_spec, "--llt-chi", "1", "--k", "400", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        model = weights.from_spec(weights_spec)
        dist = auxdist.build_aux(model, *auxdist.ray_tilt(model, 1.0, 400))
        assert out.read_text() == "j,p_j\n" + "".join(
            f"{j},{math.exp(lp):.17g}\n" for j, lp in enumerate(dist.log_pmf) if lp > -math.inf
        )
        assert json.loads(result.output.splitlines()[-1]) == {
            "mean": dist.mean, "variance": dist.variance, "log_G": dist.log_G,
            "support_cap": dist.support_cap, "r_k": dist.local_limit_ratio(400),
        }

    @pytest.mark.parametrize("x, u, code", [("1e-320", "1e-10", 0), ("1e308", "0.5", 3)],
                             ids=["intensity-underflow", "reach-past-float-range"])
    def test_extreme_intensity_ends_cleanly(self, runner, tmp_path, x, u, code):
        # x (H(u) - 1) underflows to 0, so the law is the point mass at 0; at
        # x = 1e308 the Chernoff orders pass float range and the reach is refused
        out = tmp_path / "a.csv"
        result = runner.invoke(cli.main, [
            "aux", "--weights", "unit", "--x", x, "--u", u, "--out", str(out),
        ])
        assert result.exit_code == code, result.output
        header_of(result.stdout)
        if code:
            assert len(result.stderr.splitlines()) == 1
            assert result.stderr.startswith("cpm: error: tilted law of model 'unit' at x = 1e+308")
            assert result.stderr.endswith(f" past {2**18} transform points\n")
            assert not out.exists()
        else:
            assert result.stderr == ""
            assert out.read_text() == "j,p_j\n0,1\n"
            assert json.loads(result.stdout.splitlines()[-1])["support_cap"] == 0

    def test_usage_error_when_modes_mixed(self, runner, tmp_path):
        result = runner.invoke(cli.main, [
            "aux", "--weights", "unit", "--llt-chi", "1",
            "--out", str(tmp_path / "a.csv"),
        ])
        assert result.exit_code == 2


# sha256 of `cpm graphsim` tables as numpy's geometric sampler and one row
# lookup per edge wrote them: the dense search sampler (n = 5), the
# inversion at small and large n, and a heavy-tailed weight at small kappa
GRAPHSIM_TABLE_DIGESTS = [
    ("5", "1.5", "unit", "0.25,0.5,1.0", "400", "11",
     "0656c5ad6aa751827459317c9e1b3f2fe3fef1b33c4a6845ff30583c9556f4db"),
    ("200", "4", "bernoulli", "0.5,0.6,0.7,0.8,1.5", "300", "12",
     "26f2ea980410abb85c45d1e7922cc4654769e4dbc0ea26a972ad4bd13e19e9e2"),
    ("2000", "4", "exponential", "0.9,1.0,1.1,1.2,1.5", "20", "13",
     "614ad0b2c23125579357e94703e20bf74a8e81a89540acb2249dc62b698246b7"),
    ("300", "0.3", "gamma:1/2,1", "3.0,4.0,5.0,6.0", "200", "14",
     "7b57c42a503531fb6c0d3b3b4076cdcbec933d29141667309b945ef2a5042e12"),
]


def graphsim_args(n, kappa, spec, s, trials, seed, out):
    return ["graphsim", "--n", n, "--kappa", kappa, "--weights", spec, "--s", s,
            "--trials", trials, "--seed", seed, "--out", str(out)]


class TestGraphsim:
    @pytest.mark.parametrize("n, kappa, spec, s, trials, seed, digest", GRAPHSIM_TABLE_DIGESTS)
    def test_tables_are_byte_identical(self, runner, tmp_path, n, kappa, spec, s, trials, seed,
                                       digest):
        out = tmp_path / "g.csv"
        result = runner.invoke(cli.main, graphsim_args(n, kappa, spec, s, trials, seed, out))
        assert result.exit_code == 0, result.output
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("n, kappa, spec, trials, seed", [
        *[(int(n), float(kappa), spec, int(trials), int(seed))
          for n, kappa, spec, _, trials, seed, _ in GRAPHSIM_TABLE_DIGESTS],
        (20000, 4.0, "gamma:2,1/2", 3, 15),
    ])
    def test_dmax_samples_same_for_every_worker_count(self, monkeypatch, n, kappa, spec,
                                                      trials, seed):
        config = graphsim.GraphSimConfig(n, kappa, spec, (1.0,), trials, seed)
        samples = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(graphsim, "trial_workers", lambda work, trials: workers)
            samples.append(graphsim.deviation_experiment(config).dmax_samples.tobytes())
        assert samples[0] == samples[1] == samples[2]

    def test_tiny_edge_probability_ends(self, runner, tmp_path):
        out = tmp_path / "g.csv"
        result = runner.invoke(
            cli.main, graphsim_args("2000", "1e-20", "exponential", "1", "1", "0", out))
        assert result.exit_code == 0, result.output
        assert float(read_table(str(out))[0]["p_hat"]) == 0.0

    def test_overflowing_union_bound_is_vacuous(self, runner, tmp_path):
        # (s*/s')^(2 ln n) with s* about 7e149 is past float range
        out = tmp_path / "g.csv"
        result = runner.invoke(
            cli.main, graphsim_args("2000", "4", "gaussian:1e300", "1", "20", "0", out))
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        row = read_table(str(out))[0]
        assert float(row["bound"]) == 1.0 and int(row["vacuous_flag"]) == 1

    @pytest.mark.parametrize("kappa, spec, message", [
        ("0", "exponential", "cpm: error: kappa must be positive"),
        ("4", "gamma:1e-300,1", "cpm: error: chi = 2.0 out of reach: the smallest chi model"
                                " 'tilde(gamma(1e-300,1))' reaches is"
                                " 1/(u H'(u)) = 9.999778782818786e+287 at u = 0.999999999999"),
        ("1e-320", "unit", "cpm: error: chi = 5e-321 out of reach: 1/chi overflows"),
    ])
    def test_refusal_comes_before_any_trial(self, runner, tmp_path, monkeypatch, kappa, spec,
                                            message):
        # every trial keys its stream through trial_generator, in any block
        def refuse(*args):
            raise AssertionError("trial_generator called")

        monkeypatch.setattr(graphsim, "trial_generator", refuse)
        out = tmp_path / "g.csv"
        result = runner.invoke(cli.main, graphsim_args("2000", kappa, spec, "1", "2000", "0", out))
        assert result.exit_code == 3, result.output
        assert result.stderr == message + "\n"
        assert not out.exists()
        # the same run at an admitted kappa reaches the patched draw
        result = runner.invoke(cli.main, graphsim_args("2000", "4", "exponential", "1", "2000",
                                                       "0", out))
        assert isinstance(result.exception, AssertionError)

    def test_csv_columns_and_reproducibility(self, runner, tmp_path):
        args = [
            "graphsim", "--n", "150", "--kappa", "2", "--weights", "exponential",
            "--s", "1.0,2.0", "--trials", "40", "--seed", "99",
        ]
        out1, out2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        assert runner.invoke(cli.main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(cli.main, args + ["--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = read_table(str(out1))
        assert list(rows[0]) == ["n", "kappa", "s", "p_hat", "ci", "bound",
                                 "threshold", "vacuous_flag"]

    def test_seed_env_fallback(self, runner, tmp_path):
        out = tmp_path / "g.csv"
        result = runner.invoke(cli.main, [
            "graphsim", "--n", "50", "--kappa", "1", "--weights", "unit",
            "--s", "1.0", "--trials", "5", "--out", str(out),
        ], env={"CPM_SEED": "424242"})
        assert result.exit_code == 0
        header = header_of(result.output)
        assert header["config"]["seed"] == 424242


@pytest.fixture
def throwaway_command():
    """Register a command ``throwaway`` that raises the exception it is
    given on the cpm group, and remove it afterwards."""
    def register(exc):
        @cli.command(name="throwaway")
        def throwaway(header):
            raise exc

    yield register
    cli.COMMANDS.pop("throwaway", None)


class TestExitCodes:
    @pytest.mark.parametrize("exc, code, line", [
        (DomainError("no such law"), 3, "cpm: error: no such law"),
        (OSError(28, "No space left on device"), 4,
         "cpm: i/o error: [Errno 28] No space left on device"),
    ], ids=["domain", "io"])
    def test_the_group_maps_every_command(self, runner, throwaway_command, exc, code, line):
        # a command carries no error handling of its own
        throwaway_command(exc)
        result = runner.invoke(cli.main, ["throwaway"])
        assert result.exit_code == code, result.output
        assert result.stderr == line + "\n"

    def test_usage_error_is_two(self, runner):
        assert runner.invoke(cli.main, ["rate", "--weights", "unit"]).exit_code == 2
        assert runner.invoke(cli.main, ["frobnicate"]).exit_code == 2

    # recorded with the click front end: the exit code, the last stderr line
    # (None for none) and stdout: empty, the option list of a command's help
    # (each row's first column), or the config of the header line
    @pytest.mark.parametrize("args, code, stdout, last_err", [
        pytest.param([], 2, "",
                     "  rate        Print the limiting rate: chi, tilt u, psi, fluctuation...",
                     id="no-subcommand"),
        pytest.param(["frobnicate"], 2, "", "Error: No such command 'frobnicate'.",
                     id="unknown-command"),
        pytest.param(["rate", "--weights", "unit", "--chi", "1", "--frob"], 2, "",
                     "Error: No such option '--frob'.", id="unknown-option"),
        pytest.param(["rate", "--wieghts", "unit", "--chi", "1"], 2, "",
                     "Error: No such option '--wieghts'. Did you mean '--weights'?",
                     id="misspelt-option"),
        pytest.param(["bell", "--k"], 2, "", "Error: Option '--k' requires an argument.",
                     id="option-without-value"),
        pytest.param(["moments", "--weights", "unit", "--k", "3", "--x", "1", "--out", "t.csv",
                      "--format", "xml"], 2, "",
                     "Error: Invalid value for '--format': 'xml' is not one of 'csv', 'json'.",
                     id="format-xml"),
        pytest.param(["bell", "--k", "abc"], 2, "",
                     "Error: Invalid value for '--k': 'abc' is not a valid integer.", id="k-abc"),
        pytest.param(["rate", "--weights", "unit"], 2, "", "Error: Missing option '--chi'.",
                     id="missing-option"),
        pytest.param(["bell", "--k", "3", "a", "b"], 2, "",
                     "Error: Got unexpected extra arguments (a b)", id="extra-arguments"),
        pytest.param(["moments", "-h"], 0, [
            "--weights TEXT", "--k INTEGER", "--x RATIONAL", "--exact / --log",
            "--finite-n INTEGER", "--out PATH", "--format [csv|json]", "-h, --help"], None,
            id="moments-help"),
        pytest.param(["rate", "-h"], 0, ["--weights TEXT", "--chi FLOAT", "-h, --help"], None,
                     id="rate-help"),
        pytest.param(["compare", "-h"], 0, [
            "--weights TEXT", "--chi FLOAT", "--k-max INTEGER", "--out PATH",
            "--format [csv|json]", "-h, --help"], None, id="compare-help"),
        pytest.param(["aux", "-h"], 0, [
            "--weights TEXT", "--x FLOAT", "--u FLOAT", "--llt-chi FLOAT", "--k INTEGER",
            "--out PATH", "--format [csv|json]", "-h, --help"], None, id="aux-help"),
        pytest.param(["graphsim", "-h"], 0, [
            "--n INTEGER", "--kappa FLOAT", "--weights TEXT", "--s LIST", "--trials INTEGER",
            "--seed INTEGER", "--out PATH", "--format [csv|json]", "-h, --help"], None,
            id="graphsim-help"),
        pytest.param(["bell", "-h"], 0, ["--k INTEGER", "-h, --help"], None, id="bell-help"),
        pytest.param(["identities", "-h"], 0, ["-h, --help"], None, id="identities-help"),
        pytest.param(["bell", "--k=5"], 0, {"k": 5}, None, id="equals-value"),
        pytest.param(["rate", "--chi", "1", "--weights", "unit", "--chi", "2"], 0,
                     {"chi": 2.0, "weights": "unit"}, None, id="repeated-option-keeps-last"),
    ])
    def test_parser_edge_cases(self, runner, args, code, stdout, last_err):
        result = runner.invoke(cli.main, args)
        assert result.exit_code == code, result.output
        assert (result.stderr.splitlines() or [None])[-1] == last_err
        if isinstance(stdout, list):
            assert [line.split("  ")[1] for line in result.stdout.splitlines()
                    if line.startswith("  -")] == stdout
        elif isinstance(stdout, dict):
            assert header_of(result.stdout)["config"] == stdout
        else:
            assert result.stdout == stdout

    def test_domain_error_is_three(self, runner):
        result = runner.invoke(cli.main, ["rate", "--weights", "unit", "--chi", "-1"])
        assert result.exit_code == 3
        result = runner.invoke(cli.main, ["bell", "--k", "-2"])
        assert result.exit_code == 3

    def test_io_error_is_four(self, runner, tmp_path):
        result = runner.invoke(cli.main, [
            "moments", "--weights", "unit", "--k", "2", "--x", "1",
            "--out", str(tmp_path / "missing-dir" / "t.csv"),
        ])
        assert result.exit_code == 4

    def test_failed_write_leaves_no_temporary_file(self, runner, tmp_path, monkeypatch):
        # the table goes to a .cpm-tmp- file that is renamed over --out
        out = tmp_path / "t.csv"
        out.write_text("old\n")
        with pytest.raises(TypeError):
            cli._atomic_write(str(out), None)  # the write itself fails

        def broken(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", broken)  # the rename fails
        result = runner.invoke(cli.main, [
            "moments", "--weights", "unit", "--k", "2", "--x", "1", "--out", str(out),
        ])
        assert result.exit_code == 4
        assert result.stderr == "cpm: i/o error: [Errno 28] No space left on device\n"
        assert [path.name for path in tmp_path.iterdir()] == ["t.csv"]
        assert out.read_text() == "old\n"

    def test_new_table_takes_a_new_files_mode(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        args = ["moments", "--weights", "unit", "--k", "3", "--x", "1", "--out", str(out)]
        umask = os.umask(0o027)
        try:
            assert runner.invoke(cli.main, args).exit_code == 0
        finally:
            os.umask(umask)
        assert out.stat().st_mode & 0o7777 == 0o640

    def test_overwritten_table_keeps_its_mode(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        out.write_text("old\n")
        out.chmod(0o604)
        args = ["moments", "--weights", "unit", "--k", "3", "--x", "1", "--out", str(out)]
        umask = os.umask(0o027)
        try:
            assert runner.invoke(cli.main, args).exit_code == 0
        finally:
            os.umask(umask)
        assert out.read_text() != "old\n"
        assert out.stat().st_mode & 0o7777 == 0o604

    def test_truncated_model_rate_is_three(self, runner, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"moments": [1, 1, 2]}')
        result = runner.invoke(cli.main, [
            "rate", "--weights", f"custom:{path}", "--chi", "1",
        ])
        assert result.exit_code == 3


TABLE_COMMANDS = pytest.mark.parametrize("args", [
    ["moments", "--weights", "gamma:2,1/2", "--k", "30", "--x", "7/2"],
    ["moments", "--weights", "gaussian", "--k", "30", "--x", "1e300", "--log"],
    ["compare", "--weights", "bernoulli", "--chi", "0.5", "--k-max", "40"],
    ["aux", "--weights", "unit", "--x", "5", "--u", "0.5"],
    ["graphsim", "--n", "50", "--kappa", "1", "--weights", "unit", "--s", "1.0,2.0",
     "--trials", "5"],
], ids=["moments", "moments-log", "compare", "aux", "graphsim"])


class TestCsvTables:
    @TABLE_COMMANDS
    def test_the_bytes_csv_dictwriter_writes(self, runner, tmp_path, args):
        # every command gives every row every column, so the rows it writes
        # are those DictWriter writes from the table it reads back
        out = tmp_path / "t.csv"
        result = runner.invoke(cli.main, [*args, "--out", str(out)])
        assert result.exit_code == 0, result.output
        text = out.read_text()
        reader = csv.DictReader(io.StringIO(text))
        rows = list(reader)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=reader.fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        assert len(rows) > 1
        assert buf.getvalue() == text

    @TABLE_COMMANDS
    def test_json_keys_are_the_csv_header(self, runner, tmp_path, args):
        tables = {}
        for fmt in ("csv", "json"):
            out = tmp_path / f"t.{fmt}"
            result = runner.invoke(cli.main, [*args, "--out", str(out), "--format", fmt])
            assert result.exit_code == 0, result.output
            tables[fmt] = out.read_text()
        header = tables["csv"].splitlines()[0].split(",")
        # exact moments carry the ratio in JSON alone
        if args[0] == "moments" and "--log" not in args:
            header.append("value_ratio")
        objects = json.loads(tables["json"])
        assert len(objects) == len(tables["csv"].splitlines()) - 1
        assert all(list(row) == header for row in objects)

    def test_write_table_writes_the_bytes_of_the_stdlib(self, tmp_path):
        # one %-format per table gives the bytes csv.writer and
        # json.dumps(indent=2) give over the format_log'd cells, on every
        # platform: floats from random bit patterns, the specials and the
        # subnormals included
        rng = random.Random(45)
        floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, 0.1,
                  2.0**-1022, sys.float_info.max, 1.0, -2.5]
        floats += [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
                   for _ in range(2000)]
        labels = ["", "recurrence", "7/2", "-inf", "tab\there", "back\\slash", "100%"]
        columns = ["k", "label", "value", "note"]
        rows = [(k - 7, labels[k % len(labels)], v, labels[-1 - k % len(labels)])
                for k, v in enumerate(floats)]
        rows[0] = (10**40, *rows[0][1:])
        cells = [(k, label, cli.format_log(v), note) for k, label, v, note in rows]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([columns, *cells])
        objects = [dict(zip(columns, row)) for row in cells]
        expected = {"csv": buf.getvalue(), "json": json.dumps(objects, indent=2) + "\n"}
        empty = {"csv": "k,label,value,note\n", "json": json.dumps([], indent=2) + "\n"}
        for fmt in ("csv", "json"):
            out = tmp_path / f"t.{fmt}"
            cli._write_table(str(out), columns, rows, fmt)
            assert out.read_bytes() == expected[fmt].encode()
            cli._write_table(str(out), columns, [], fmt)
            assert out.read_bytes() == empty[fmt].encode()

    @pytest.mark.parametrize("cell", ["a,b", 'say "x"', "cr\r", "lf\n", ","])
    def test_write_table_refuses_a_cell_csv_would_quote(self, tmp_path, cell):
        columns, rows = ["k", "label", "value"], [(1, "ok", 0.5), (2, cell, 1.5)]
        with pytest.raises(ValueError, match="comma, a quote or a line break"):
            cli._write_table(str(tmp_path / "t.csv"), columns, rows, "csv")
        assert not (tmp_path / "t.csv").exists()
        # JSON escapes every string: the cell is written as json.dumps writes it
        out = tmp_path / "t.json"
        cli._write_table(str(out), columns, rows, "json")
        objects = [dict(zip(columns, (k, label, cli.format_log(v)))) for k, label, v in rows]
        assert out.read_text() == json.dumps(objects, indent=2) + "\n"


def run_fresh(code, *argv):
    """stdout of ``code`` run in a fresh interpreter on this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    return result.stdout


NUMERIC_MODULES = ("weights", "moments", "asymptotics", "auxdist", "graphsim")

# runs cli.main on each argument list of argv[1] (JSON) with click's runner
# and prints whether any of numpy's own modules were loaded, and which of
# cli's lazily bound submodules had executed, before and after: LazyLoader
# gives a module back its plain type when it executes it
RUN_COMMANDS = """
import json, sys, types
from click.testing import CliRunner
import cpmoments.cli as cli

def numpy_loaded():
    return any(name.startswith("numpy.") for name in sys.modules)

def executed():
    names = ("weights", "moments", "asymptotics", "auxdist", "graphsim")
    return sorted(n for n in names if type(sys.modules["cpmoments." + n]) is types.ModuleType)

before, executed_before = numpy_loaded(), executed()
for args in json.loads(sys.argv[1]):
    result = CliRunner().invoke(cli.main, args)
    assert result.exit_code == 0, (args, result.output)
print(json.dumps({"before": before, "after": numpy_loaded(),
                  "executed_before": executed_before, "executed": executed(),
                  "modules": sorted(name for name in sys.modules if name.startswith("cpmoments."))}))
"""


def run_commands(*commands):
    return json.loads(run_fresh(RUN_COMMANDS, json.dumps(commands)))


class TestImport:
    def test_import_leaves_numpy_fft_unloaded(self):
        # only the tilted law's bands use numpy.fft, so they load it on first
        # use: the exact tables and the graph draws never pay for it
        code = "import sys, cpmoments.cli; print('numpy.fft' in sys.modules)"
        assert run_fresh(code) == "False\n"

    def test_import_leaves_click_unloaded(self):
        # the front end is cli's own option tables: click is a test dependency
        code = "import sys, cpmoments.cli; print('click' in sys.modules)"
        assert run_fresh(code) == "False\n"

    def test_version_line(self):
        from cpmoments import __version__

        code = "from cpmoments.cli import main; main()"
        assert run_fresh(code, "--version") == f"cpm, version {__version__}\n"

    def test_help_lists_every_command(self):
        text = run_fresh("from cpmoments.cli import main; main()", "--help")
        for command in ("aux", "bell", "compare", "graphsim", "identities", "moments", "rate"):
            assert any(line.startswith(f"  {command} ") for line in text.splitlines()), command

    def test_exact_commands_never_load_numpy(self, tmp_path):
        moments_args = ["moments", "--weights", "gamma:2,1/2", "--k", "30", "--x", "7/2"]
        commands = [
            ["bell", "--k", "300"],
            [*moments_args, "--out", str(tmp_path / "t.csv")],
            [*moments_args, "--format", "json", "--out", str(tmp_path / "t.json")],
            [*moments_args, "--finite-n", "1000", "--out", str(tmp_path / "f.csv")],
            ["identities"],
        ]
        seen = run_commands(*commands)
        assert not seen["before"] and not seen["after"]
        assert seen["executed"] == ["moments", "weights"]
        # the benchmark's tracer wraps every numeric submodule it finds in sys.modules
        for name in NUMERIC_MODULES:
            assert f"cpmoments.{name}" in seen["modules"]

    def test_import_version_and_help_execute_no_numeric_module(self):
        seen = run_commands(["--version"], ["--help"])
        assert seen["executed_before"] == seen["executed"] == []
        for name in NUMERIC_MODULES:
            assert f"cpmoments.{name}" in seen["modules"]

    def test_rate_executes_weights_and_asymptotics_only(self):
        seen = run_commands(["rate", "--weights", "exponential", "--chi", "0.5"])
        assert seen["executed"] == ["asymptotics", "weights"]

    def test_lazy_numpy_graph_table_is_byte_identical(self, tmp_path):
        n, kappa, spec, s, trials, seed, digest = GRAPHSIM_TABLE_DIGESTS[0]
        out = tmp_path / "g.csv"
        seen = run_commands(graphsim_args(n, kappa, spec, s, trials, seed, out))
        assert not seen["before"] and seen["after"]
        assert "moments" not in seen["executed"] and "auxdist" not in seen["executed"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_threaded_graph_run_right_after_import_is_byte_identical(self, tmp_path):
        # three workers, in a process where graphsim, asymptotics, weights
        # and numpy are all still lazy when the command starts: the run
        # executes them before it starts any worker
        n, kappa, spec, s, trials, seed, digest = GRAPHSIM_TABLE_DIGESTS[1]
        out = tmp_path / "g.csv"
        code = """
import json, sys, types
from click.testing import CliRunner
import cpmoments.cli as cli

graphsim = sys.modules["cpmoments.graphsim"]
assert type(graphsim) is not types.ModuleType
# an attribute set on a lazy module before it executes is kept when it does
graphsim.trial_workers = lambda work, trials: 3
result = CliRunner().invoke(cli.main, json.loads(sys.argv[1]))
assert result.exit_code == 0, result.output
assert graphsim.trial_workers(1.0, 1) == 3
"""
        run_fresh(code, json.dumps(graphsim_args(n, kappa, spec, s, trials, seed, out)))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_lazy_submodule_is_an_attribute_of_its_package(self):
        # as after a plain import: ``import cpmoments.weights`` then
        # ``cpmoments.weights.from_spec`` works after cli bound it lazily
        code = "import cpmoments.cli, cpmoments.weights; print(cpmoments.weights.from_spec.__name__)"
        assert run_fresh(code) == "from_spec\n"

    def test_lazy_module_refuses_a_missing_module(self):
        from cpmoments import _numpy

        name = "cpmoments_no_such_module"
        with pytest.raises(ModuleNotFoundError, match=f"No module named {name!r}"):
            _numpy.lazy_module(name)
        assert name not in sys.modules

    def test_numpy_imported_first_is_the_bound_module(self):
        import numpy

        from cpmoments import _numpy

        assert _numpy.lazy_module("numpy") is numpy
        assert _numpy.np is numpy and graphsim.np is numpy and moments.np is numpy


def bad_input(case_id, args, code, message, *, header=False, weights_json=None):
    """One row: ``{out}`` and ``{w}`` in args and message name the output
    file and a weights file holding ``weights_json``."""
    return pytest.param(args, code, message, header, weights_json, id=case_id)


GRAPHSIM = ["graphsim", "--n", "50", "--kappa", "1", "--s", "1.0", "--trials", "2",
            "--out", "{out}"]
MOMENTS = ["moments", "--k", "3", "--x", "1", "--out", "{out}"]
# V_j = 1/p_j^j to order 300, p_j the j-th prime: the exact scale l = p_1 .. p_j
PRIME_POWER_JSON = json.dumps({"moments": [str(v) for v in prime_power_moments(300)]})
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
# gamma:2,1e-300 at chi = 1: u^2 overflows while H''(u) underflows to 0
NOT_FINITE = (
    "cpm: error: model 'gamma(2,1e-300)' at chi = 1.0: psi = -689.980562029241 and"
    " prefactor = nan at u = 6.249999999999414e+298; chi u^2 H''(u) or psi is not finite"
)


# a law whose parameter passes float range: H'(0) is inf, or its disc is empty
NAN_SLOPE = "cpm: error: model '%s' has u H'(u) = nan at u = 0.0; H'(u) overflows"
ZERO_SLOPE = ("cpm: error: model '%s' has u H'(u) = 0.0 at u = 1.0; it underflows, or every"
              " weight moment vanishes")
# gamma:1,1e-400, whose theta is 0 in the floats, printed as its exact ratio
GAMMA_TINY_SCALE = "gamma(1,1/1" + "0" * 400 + ")"
# a literal one digit past the int-string limit in each form parse_rational reads
LONG_LITERALS = [
    ("integer", "7" * (LIMIT + 1)),
    ("decimal", "0." + "7" * LIMIT),
    ("numerator", "7" * (LIMIT + 1) + "/3"),
    ("denominator", "3/" + "7" * (LIMIT + 1)),
    ("exponent", "1e" + "9" * (LIMIT + 1)),  # too long for int() itself
]


def brief(text):
    """A text past the digit limit as an error line quotes it: its first 20
    characters and its count of digits."""
    return f"'{text[:20]}...' ({sum(c.isdigit() for c in text)} digits)"
OUTSIDE_NO_DISC = "cpm: error: u = 0.0 outside the convergence interval [0, 0.0) of '%s'"


class TestBadInputs:
    @pytest.mark.parametrize("args, code, message, header, weights_json", [
        bad_input("finite-n-with-log",
                  ["moments", "--weights", "unit", "--k", "5", "--x", "1", "--finite-n", "10",
                   "--log", "--out", "{out}"],
                  2, "Error: --finite-n needs the exact path; drop --log"),
        bad_input("log-x-zero",
                  ["moments", "--weights", "unit", "--k", "5", "--x", "0", "--log",
                   "--out", "{out}"],
                  3, "cpm: error: log-space moments need x > 0", header=True),
        bad_input("negative-order",
                  ["moments", "--weights", "unit", "--k", "-1", "--x", "1", "--out", "{out}"],
                  3, "cpm: error: order must be >= 0", header=True),
        bad_input("chi-inf", ["rate", "--weights", "unit", "--chi", "inf"],
                  2, "Error: Invalid value for '--chi': 'inf' is not a finite number"),
        bad_input("chi-nan", ["rate", "--weights", "unit", "--chi", "nan"],
                  2, "Error: Invalid value for '--chi': 'nan' is not a finite number"),
        bad_input("kappa-inf",
                  ["graphsim", "--n", "50", "--kappa", "inf", "--weights", "unit", "--s", "1.0",
                   "--trials", "5", "--out", "{out}"],
                  2, "Error: Invalid value for '--kappa': 'inf' is not a finite number"),
        bad_input("llt-odd-order",
                  ["aux", "--weights", "bernoulli", "--llt-chi", "1", "--k", "41",
                   "--out", "{out}"],
                  3, "cpm: error: model 'bernoulli' lives on even orders; 41 is odd"),
        bad_input("param-to-exponential", GRAPHSIM + ["--weights", "exponential:5"],
                  3, "cpm: error: weight spec 'exponential:5': exponential takes 0 parameters,"
                     " got 1"),
        bad_input("param-to-unit", MOMENTS + ["--weights", "unit:5"],
                  3, "cpm: error: weight spec 'unit:5': unit takes 0 parameters, got 1"),
        bad_input("param-to-bernoulli", ["rate", "--weights", "bernoulli:0.3", "--chi", "1"],
                  3, "cpm: error: weight spec 'bernoulli:0.3': bernoulli takes 0 parameters,"
                     " got 1"),
        bad_input("param-to-logfact",
                  ["compare", "--weights", "logfact:2", "--chi", "1", "--k-max", "5",
                   "--out", "{out}"],
                  3, "cpm: error: weight spec 'logfact:2': logfact takes 0 parameters, got 1"),
        bad_input("gamma-one-param",
                  ["aux", "--weights", "gamma:1", "--x", "1", "--u", "0.5", "--out", "{out}"],
                  3, "cpm: error: weight spec 'gamma:1': gamma takes 2 parameters, got 1"),
        bad_input("gaussian-not-a-number", MOMENTS + ["--weights", "gaussian:abc"],
                  3, "cpm: error: weight spec 'gaussian:abc': 'abc' is not a number"),
        bad_input("gamma-not-a-number", GRAPHSIM + ["--weights", "gamma:1,x"],
                  3, "cpm: error: weight spec 'gamma:1,x': 'x' is not a number"),
        bad_input("custom-invalid-json", MOMENTS + ["--weights", "custom:{w}"],
                  3, "cpm: error: weight spec 'custom:{w}': not a JSON file"
                     " (Expecting value: line 1 column 1 (char 0))",
                  weights_json="moments: 1, 2"),
        bad_input("custom-top-level-list", MOMENTS + ["--weights", "custom:{w}"],
                  3, "cpm: error: weight spec 'custom:{w}': expected"
                     ' {{"moments": [1, v1, ...]}}',
                  weights_json="[1, 2]"),
        bad_input("custom-missing-moments", MOMENTS + ["--weights", "custom:{w}"],
                  3, "cpm: error: weight spec 'custom:{w}': expected"
                     ' {{"moments": [1, v1, ...]}}',
                  weights_json='{"moment": [1, 2]}'),
        bad_input("custom-moments-not-list", MOMENTS + ["--weights", "custom:{w}"],
                  3, "cpm: error: weight spec 'custom:{w}': expected"
                     ' {{"moments": [1, v1, ...]}}',
                  weights_json='{"moments": 5}'),
        bad_input("custom-non-numeric", MOMENTS + ["--weights", "custom:{w}"],
                  3, "cpm: error: weight spec 'custom:{w}': 'x' is not a number",
                  weights_json='{"moments": [1, "x"]}'),
        bad_input("custom-missing-file", MOMENTS + ["--weights", "custom:{w}"],
                  4, "cpm: i/o error: [Errno 2] No such file or directory: '{w}'"),
        bad_input("gaussian-tiny-exponent", MOMENTS + ["--weights", "gaussian:1e-5000"],
                  3, "cpm: error: weight spec 'gaussian:1e-5000': '1e-5000' needs integers of"
                     f" more than {LIMIT} digits"),
        *(bad_input(f"weights-long-{form}", MOMENTS + ["--weights", f"gamma:{text},1"],
                    3, f"cpm: error: weight spec {brief(f'gamma:{text},1')}: {brief(text)} needs"
                       f" integers of more than {LIMIT} digits")
          for form, text in LONG_LITERALS),
        # the file's path is quoted whole, its literal by a prefix
        bad_input("custom-long-literal", MOMENTS + ["--weights", "custom:{w}"],
                  3, f"cpm: error: weight spec 'custom:{{w}}': {brief('7' * (LIMIT + 1))} needs"
                     f" integers of more than {LIMIT} digits",
                  weights_json='{"moments": [1, "%s"]}' % ("7" * (LIMIT + 1))),
        # a V_j past float range is +-inf in the EGF only: the exact and log
        # tables run (TestMoments), the rest refuse as before
        bad_input("custom-overflow",
                  ["aux", "--weights", "custom:{w}", "--x", "1", "--u", "0.5", "--out", "{out}"],
                  3, "cpm: error: tilted law of model 'custom[1]' at x = 1.0, u = 0.5 overflows:"
                     " mean inf, variance inf",
                  header=True, weights_json='{"moments": [1, "1e400"]}'),
        bad_input("custom-overflow-llt",
                  ["aux", "--weights", "custom:{w}", "--llt-chi", "1", "--k", "2",
                   "--out", "{out}"],
                  3, "cpm: error: model 'custom[1]' has u H'(u) = nan at u = 0.0; H'(u) overflows",
                  weights_json='{"moments": [1, "1e400"]}'),
        bad_input("custom-overflow-rate", ["rate", "--weights", "custom:{w}", "--chi", "1"],
                  3, "cpm: error: model 'custom[1]' only knows a finite moment prefix; the"
                     " limiting rate needs the full series",
                  header=True, weights_json='{"moments": [1, "1e400"]}'),
        bad_input("custom-overflow-compare",
                  ["compare", "--weights", "custom:{w}", "--chi", "1", "--k-max", "3",
                   "--out", "{out}"],
                  3, "cpm: error: model 'custom[1]' only knows a finite moment prefix; the"
                     " limiting rate needs the full series",
                  header=True, weights_json='{"moments": [1, "1e400"]}'),
        # a law's parameter past float range is inf in its floats only: the
        # exact and log tables run (TestMoments), every float route refuses
        bad_input("gaussian-overflow", ["rate", "--weights", "gaussian:1e400", "--chi", "1"],
                  3, NAN_SLOPE % "gaussian(inf)", header=True),
        bad_input("gaussian-overflow-compare",
                  ["compare", "--weights", "gaussian:1e400", "--chi", "1", "--k-max", "3",
                   "--out", "{out}"],
                  3, NAN_SLOPE % "gaussian(inf)", header=True),
        bad_input("gaussian-overflow-aux",
                  ["aux", "--weights", "gaussian:1e400", "--x", "1", "--u", "0.5", "--out", "{out}"],
                  3, "cpm: error: tilted law of model 'gaussian(inf)' at x = 1.0, u = 0.5"
                     " overflows: mean inf, variance inf", header=True),
        bad_input("gaussian-overflow-llt",
                  ["aux", "--weights", "gaussian:1e400", "--llt-chi", "1", "--k", "4",
                   "--out", "{out}"],
                  3, NAN_SLOPE % "gaussian(inf)"),
        bad_input("gaussian-overflow-graphsim", GRAPHSIM + ["--weights", "gaussian:1e400"],
                  3, NAN_SLOPE % "gaussian(inf)", header=True),
        bad_input("gamma-shape-overflow-rate", ["rate", "--weights", "gamma:1e400,1", "--chi", "1"],
                  3, NAN_SLOPE % "gamma(inf,1)", header=True),
        bad_input("gamma-shape-overflow-compare",
                  ["compare", "--weights", "gamma:1e400,1", "--chi", "1", "--k-max", "3",
                   "--out", "{out}"],
                  3, NAN_SLOPE % "gamma(inf,1)", header=True),
        bad_input("gamma-shape-overflow-aux",
                  ["aux", "--weights", "gamma:1e400,1", "--x", "1", "--u", "0.5", "--out", "{out}"],
                  3, "cpm: error: tilted law of model 'gamma(inf,1)' at x = 1.0, u = 0.5"
                     " overflows: mean inf, variance inf", header=True),
        bad_input("gamma-shape-overflow-llt",
                  ["aux", "--weights", "gamma:1e400,1", "--llt-chi", "1", "--k", "4",
                   "--out", "{out}"],
                  3, NAN_SLOPE % "gamma(inf,1)"),
        bad_input("gamma-shape-overflow-graphsim", GRAPHSIM + ["--weights", "gamma:1e400,1"],
                  3, "cpm: error: weight model 'gamma:1e400,1' has a mean V_1 past float range"),
        # its radius 1/theta underflows to 0
        bad_input("gamma-scale-overflow-rate", ["rate", "--weights", "gamma:1,1e400", "--chi", "1"],
                  3, OUTSIDE_NO_DISC % "gamma(1,inf)", header=True),
        bad_input("gamma-scale-overflow-compare",
                  ["compare", "--weights", "gamma:1,1e400", "--chi", "1", "--k-max", "3",
                   "--out", "{out}"],
                  3, OUTSIDE_NO_DISC % "gamma(1,inf)", header=True),
        bad_input("gamma-scale-overflow-aux",
                  ["aux", "--weights", "gamma:1,1e400", "--x", "1", "--u", "0.5", "--out", "{out}"],
                  3, "cpm: error: tilt u must lie in (0, 0.0), got 0.5", header=True),
        bad_input("gamma-scale-overflow-llt",
                  ["aux", "--weights", "gamma:1,1e400", "--llt-chi", "1", "--k", "4",
                   "--out", "{out}"],
                  3, OUTSIDE_NO_DISC % "gamma(1,inf)"),
        bad_input("gamma-scale-overflow-graphsim", GRAPHSIM + ["--weights", "gamma:1,1e400"],
                  3, "cpm: error: weight model 'gamma:1,1e400' has a mean V_1 past float range"),
        # theta is 0 in the floats, so H' is 0 and no saddle exists; the exact
        # and log tables run (TestMoments)
        bad_input("gamma-scale-underflow", ["rate", "--weights", "gamma:1,1e-400", "--chi", "1"],
                  3, ZERO_SLOPE % GAMMA_TINY_SCALE, header=True),
        bad_input("gamma-scale-underflow-compare",
                  ["compare", "--weights", "gamma:1,1e-400", "--chi", "1", "--k-max", "3",
                   "--out", "{out}"],
                  3, ZERO_SLOPE % GAMMA_TINY_SCALE, header=True),
        bad_input("gamma-scale-underflow-llt",
                  ["aux", "--weights", "gamma:1,1e-400", "--llt-chi", "1", "--k", "4",
                   "--out", "{out}"],
                  3, ZERO_SLOPE % GAMMA_TINY_SCALE),
        bad_input("gamma-scale-underflow-graphsim", GRAPHSIM + ["--weights", "gamma:1,1e-400"],
                  3, ZERO_SLOPE % f"tilde({GAMMA_TINY_SCALE})", header=True),
        bad_input("x-huge-exponent",
                  ["moments", "--weights", "unit", "--k", "2", "--x", "1e5000", "--out", "{out}"],
                  2, "Error: Invalid value for '--x': '1e5000' needs integers of more than"
                     f" {LIMIT} digits"),
        bad_input("x-tiny-exponent",
                  ["moments", "--weights", "unit", "--k", "2", "--x", "1e-5000", "--out", "{out}"],
                  2, "Error: Invalid value for '--x': '1e-5000' needs integers of more than"
                     f" {LIMIT} digits"),
        *(bad_input(f"x-long-{form}",
                    ["moments", "--weights", "unit", "--k", "2", "--x", text, "--out", "{out}"],
                    2, f"Error: Invalid value for '--x': {brief(text)} needs integers of more"
                       f" than {LIMIT} digits")
          for form, text in LONG_LITERALS),
        bad_input("chi-below-reach", ["rate", "--weights", "logfact", "--chi", "1e-13"],
                  3, "cpm: error: chi = 1e-13 out of reach: the smallest chi model 'logfact'"
                     " reaches is 1/(u H'(u)) = 9.999778782808785e-13 at u = 0.999999999999",
                  header=True),
        bad_input("rate-product-underflows",
                  ["rate", "--weights", "gamma:1,1e-300", "--chi", "1e-300"],
                  3, "cpm: error: chi = 1e-300 out of reach: the smallest chi model"
                     " 'gamma(1,1e-300)' reaches is 1/(u H'(u)) = 9.999557570501276e-25 at"
                     " u = 9.99999999999e+299",
                  header=True),
        bad_input("rate-inverse-chi-overflows", ["rate", "--weights", "unit", "--chi", "1e-320"],
                  3, "cpm: error: chi = 1e-320 out of reach: 1/chi overflows", header=True),
        bad_input("compare-inverse-chi-overflows",
                  ["compare", "--weights", "unit", "--chi", "1e-320", "--k-max", "5",
                   "--out", "{out}"],
                  3, "cpm: error: chi = 1e-320 out of reach: 1/chi overflows", header=True),
        bad_input("llt-negative-moment",
                  ["aux", "--weights", "custom:{w}", "--llt-chi", "1", "--k", "10",
                   "--out", "{out}"],
                  3, "cpm: error: model 'custom[2]' has u H'(u) = -1.0 at u = 1.0; the saddle"
                     " needs it positive, as nonnegative weight moments make it",
                  weights_json='{"moments": [1, -2, 1]}'),
        bad_input("saddle-target-unreachable",
                  ["aux", "--weights", "custom:{w}", "--llt-chi", "0.0333", "--k", "30",
                   "--out", "{out}"],
                  3, "cpm: error: target 30.030030030030026 unreachable for model 'custom[2]' in"
                     " 4 evaluations (u H'(u) too small, or u H'(u) or H''(u) overflowing)",
                  weights_json='{"moments": [1, 1, -0.01]}'),
        bad_input("rate-derivative-overflows",
                  ["rate", "--weights", "gamma:1e300,1e300", "--chi", "1"],
                  3, "cpm: error: model 'gamma(1e+300,1e+300)' has u H'(u) = nan at u = 0.0;"
                     " H'(u) overflows",
                  header=True),
        bad_input("graph-tilde-moments-underflow",
                  ["graphsim", "--n", "10", "--kappa", "1", "--weights", "gamma:1e-300,1e-300",
                   "--s", "1", "--trials", "1", "--out", "{out}"],
                  3, "cpm: error: model 'tilde(gamma(1e-300,1e-300))' has u H'(u) = 0.0 at"
                     " u = 1.0; it underflows, or every weight moment vanishes",
                  header=True),
        bad_input("llt-zero-moments",
                  ["aux", "--weights", "custom:{w}", "--llt-chi", "1", "--k", "4",
                   "--out", "{out}"],
                  3, "cpm: error: model 'custom[2]' has u H'(u) = 0.0 at u = 1.0; it underflows,"
                     " or every weight moment vanishes",
                  weights_json='{"moments": [1, 0, 0]}'),
        bad_input("compare-negative-k-max",
                  ["compare", "--weights", "unit", "--chi", "1", "--k-max", "-5",
                   "--out", "{out}"],
                  3, "cpm: error: order must be >= 0", header=True),
        bad_input("x-not-a-number",
                  ["moments", "--weights", "unit", "--k", "3", "--x", "abc", "--out", "{out}"],
                  2, "Error: Invalid value for '--x': 'abc' is not an integer, decimal or ratio"),
        bad_input("s-empty-item",
                  ["graphsim", "--n", "50", "--kappa", "1", "--weights", "unit", "--s", "1,,2",
                   "--trials", "2", "--out", "{out}"],
                  2, "Error: Invalid value for '--s': '1,,2' is not a comma-separated list of"
                     " finite numbers"),
        bad_input("one-vertex",
                  ["graphsim", "--n", "1", "--kappa", "1", "--weights", "unit", "--s", "1.0",
                   "--trials", "2", "--out", "{out}"],
                  3, "cpm: error: need n >= 2 vertices"),
        bad_input("seed-past-64-bits",
                  ["graphsim", "--n", "50", "--kappa", "1", "--weights", "unit", "--s", "1.0",
                   "--trials", "2", "--seed", "18446744073709551616", "--out", "{out}"],
                  3, "cpm: error: seed must fit in 64 bits"),
        bad_input("seed-negative",
                  ["graphsim", "--n", "50", "--kappa", "1", "--weights", "unit", "--s", "1.0",
                   "--trials", "2", "--seed", "-1", "--out", "{out}"],
                  3, "cpm: error: seed must fit in 64 bits"),
        bad_input("no-vertices",
                  ["graphsim", "--n", "0", "--kappa", "1", "--weights", "unit", "--s", "1.0",
                   "--trials", "2", "--out", "{out}"],
                  3, "cpm: error: need n >= 2 vertices"),
        bad_input("graph-too-large",
                  ["graphsim", "--n", "10000000000000", "--kappa", "1", "--weights", "unit",
                   "--s", "1.0", "--trials", "2", "--out", "{out}"],
                  3, "cpm: error: one graph of 10000000000000 vertices and 1.5e+14 expected edges"
                     " is more than 30000000 vertices and edges"),
        bad_input("graph-past-float-range",
                  ["graphsim", "--n", str(10**400), "--kappa", "1", "--weights", "unit",
                   "--s", "1.0", "--trials", "2", "--out", "{out}"],
                  3, f"cpm: error: one graph of {10**400} vertices is more than 30000000"
                     " vertices and edges"),
        bad_input("graph-trials-too-many",
                  ["graphsim", "--n", "50", "--kappa", "1", "--weights", "unit", "--s", "1.0",
                   "--trials", "10000000000000", "--out", "{out}"],
                  3, "cpm: error: 10000000000000 trials of 146 vertices and edges, plus 1000 per"
                     " trial, are more than 1000000000 in all"),
        bad_input("unsampleable-model", GRAPHSIM + ["--weights", "logfact"],
                  3, "cpm: error: weight model 'logfact' cannot be sampled"),
        bad_input("sampler-mean-past-float-range",
                  ["graphsim", "--n", "200", "--kappa", "1", "--weights", "gamma:1e300,1e10",
                   "--s", "0.5", "--trials", "2", "--out", "{out}"],
                  3, "cpm: error: weight model 'gamma:1e300,1e10' has a mean V_1 past float"
                     " range"),
        bad_input("aux-llt-with-x-and-u",
                  ["aux", "--weights", "unit", "--x", "5", "--u", "0.5", "--llt-chi", "1",
                   "--k", "10", "--out", "{out}"],
                  2, "Error: --llt-chi with --k sets x and u; drop --x and --u"),
        bad_input("aux-llt-k-past-float-range",
                  ["aux", "--weights", "unit", "--llt-chi", "1", "--k", str(10**400),
                   "--out", "{out}"],
                  3, f"cpm: error: intensity chi k = 1.0 * {10**400} overflows"),
        bad_input("aux-k-without-llt",
                  ["aux", "--weights", "unit", "--x", "5", "--u", "0.5", "--k", "10",
                   "--out", "{out}"],
                  2, "Error: either give --x and --u, or --llt-chi with --k"),
        bad_input("aux-beyond-transform-points",
                  ["aux", "--weights", "unit", "--x", "1e6", "--u", "0.5", "--out", "{out}"],
                  3, "cpm: error: tilted law of model 'unit' at x = 1000000.0, u = 0.5 reaches"
                     " order 832645, past 262144 transform points",
                  header=True),
        bad_input("aux-reach-past-float-digits",
                  ["aux", "--weights", "unit", "--x", "1e308", "--u", "0.5", "--out", "{out}"],
                  3, "cpm: error: tilted law of model 'unit' at x = 1e+308, u = 0.5 reaches"
                     " order 8.2435914783060481e+307, past 262144 transform points",
                  header=True),
        bad_input("aux-custom-negative-moment",
                  ["aux", "--weights", "custom:{w}", "--x", "1", "--u", "0.5", "--out", "{out}"],
                  3, "cpm: error: model 'custom[2]' has negative weight moment V_1 = -2; use the"
                     " exact path",
                  header=True, weights_json='{"moments": [1, -2, 1]}'),
        bad_input("aux-custom-beyond-horizon",
                  ["aux", "--weights", "custom:{w}", "--x", "1", "--u", "0.5", "--out", "{out}"],
                  3, "cpm: error: model 'custom[2]' declares moments only up to order 2, got"
                     " request for order 3",
                  header=True, weights_json='{"moments": [1, 1, 1]}'),
        bad_input("moments-log-unbounded",
                  ["moments", "--weights", "unit", "--k", "100000000", "--x", "1", "--log",
                   "--out", "{out}"],
                  3, "cpm: error: log-space recurrence needs 10000000000000000 terms (k^2 summed"
                     " over its runs to order k), more than 2000000000",
                  header=True),
        bad_input("moments-exact-unbounded",
                  ["moments", "--weights", "unit", "--k", "100000000", "--x", "1",
                   "--out", "{out}"],
                  3, "cpm: error: exact recurrence to order 100000000 at a scale of 1 numerator"
                     " and 1 denominator bits needs about 241666671500000000000000000000000 bit"
                     " products, more than 20000000000000",
                  header=True),
        bad_input("moments-exact-tiny-x",
                  ["moments", "--weights", "unit", "--k", "400", "--x", "1e-300",
                   "--out", "{out}"],
                  3, "cpm: error: exact recurrence to order 400 at a scale of 1 numerator and 997"
                     " denominator bits needs about 1071995808000000 bit products, more than"
                     " 20000000000000",
                  header=True),
        bad_input("moments-exact-long-denominator",
                  ["moments", "--weights", "unit", "--k", "150", "--x", f"1/{7**4000}",
                   "--out", "{out}"],
                  3, "cpm: error: exact recurrence to order 150 at a scale of 1 numerator and"
                     " 11230 denominator bits needs about 2662569324281250 bit products, more"
                     " than 20000000000000",
                  header=True),
        bad_input("moments-exact-weight-denominator",
                  ["moments", "--weights", "gaussian:1e-300", "--k", "2000", "--x", "1",
                   "--out", "{out}"],
                  3, "cpm: error: exact recurrence to order 2000 at a scale of 1 numerator and 499"
                     " denominator bits needs about 170334014666666666 bit products, more than"
                     " 20000000000000",
                  header=True),
        bad_input("moments-exact-gamma-denominator",
                  ["moments", "--weights", "gamma:1/3,1e-300", "--k", "2000", "--x", "1",
                   "--out", "{out}"],
                  3, "cpm: error: exact recurrence to order 2000 at a scale of 1 numerator and 999"
                     " denominator bits needs about 674001348000000000 bit products, more than"
                     " 20000000000000",
                  header=True),
        bad_input("moments-exact-prime-power-denominators",
                  ["moments", "--weights", "custom:{w}", "--k", "300", "--x", "1",
                   "--out", "{out}"],
                  3, "cpm: error: exact recurrence to order 300 at a scale of 1 numerator and 242"
                     " denominator bits needs about 20668284000000 bit products, more than"
                     " 20000000000000",
                  header=True, weights_json=PRIME_POWER_JSON),
        bad_input("bell-unbounded", ["bell", "--k", "100000000"],
                  3, "cpm: error: exact recurrence to order 100000000 at a scale of 1 numerator"
                     " and 1 denominator bits needs about 241666671500000000000000000000000 bit"
                     " products, more than 20000000000000",
                  header=True),
        bad_input("compare-fallback-unbounded",
                  ["compare", "--weights", "logfact", "--chi", "1e-4", "--k-max", "5000",
                   "--out", "{out}"],
                  3, "cpm: error: log-space recurrence needs 41679167500 terms (k^2 summed over"
                     " its runs to order k), more than 2000000000",
                  header=True),
        bad_input("compare-huge-k-max",
                  ["compare", "--weights", "unit", "--chi", "1", "--k-max", "10000000000000",
                   "--out", "{out}"],
                  3, "cpm: error: log-space recurrence needs"
                     " 333333333333383333333333335000000000000 terms (k^2 summed over its runs to"
                     " order k), more than 2000000000",
                  header=True),
        bad_input("compare-intensity-overflow",
                  ["compare", "--weights", "unit", "--chi", "1e308", "--k-max", "5",
                   "--out", "{out}"],
                  3, "cpm: error: intensity chi k = 1e+308 * 5 overflows", header=True),
        bad_input("rate-curvature-not-finite",
                  ["rate", "--weights", "gamma:2,1e-300", "--chi", "1"],
                  3, NOT_FINITE, header=True),
        bad_input("compare-curvature-not-finite",
                  ["compare", "--weights", "gamma:2,1e-300", "--chi", "1", "--k-max", "5",
                   "--out", "{out}"],
                  3, NOT_FINITE, header=True),
        bad_input("aux-mean-overflow",
                  ["aux", "--weights", "unit", "--x", "1e308", "--u", "1", "--out", "{out}"],
                  3, "cpm: error: tilted law of model 'unit' at x = 1e+308, u = 1.0 overflows:"
                     " mean inf, variance inf",
                  header=True),
        bad_input("aux-egf-overflow",
                  ["aux", "--weights", "unit", "--x", "1", "--u", "800", "--out", "{out}"],
                  3, "cpm: error: tilted law of model 'unit' at x = 1.0, u = 800.0 overflows:"
                     " mean inf, variance inf",
                  header=True),
    ])
    def test_exit_code_and_one_error_line(
        self, runner, tmp_path, args, code, message, header, weights_json
    ):
        out, spec_file = tmp_path / "t.csv", tmp_path / "w.json"
        if weights_json is not None:
            spec_file.write_text(weights_json)
        paths = {"out": str(out), "w": str(spec_file)}
        message = message.format(**paths)
        result = runner.invoke(cli.main, [a.format(**paths) for a in args])
        assert result.exit_code == code, result.output
        # click puts the command synopsis above a usage error; the error
        # itself is one line, and a domain or i/o error is all of stderr
        assert result.stderr.splitlines()[-1] == message
        if code != 2:
            assert result.stderr == message + "\n"
        # only checks on the model's numbers (order, saddle, work, overflow)
        # run after the header
        if header:
            header_of(result.stdout)
        else:
            assert result.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["moments", "--weights", "gaussian:1e-300", "--k", "2000", "--x", "1"],
        ["moments", "--weights", "gamma:1/3,1e-300", "--k", "2000", "--x", "1"],
        ["moments", "--weights", "custom:{w}", "--k", "300", "--x", "1"],
        ["compare", "--weights", "unit", "--chi", "1", "--k-max", "10000000000000"],
        ["compare", "--weights", "unit", "--chi", "1", "--k-max", "3000000"],
        ["graphsim", "--n", "10000000000000", "--kappa", "1", "--weights", "unit", "--s", "1.0",
         "--trials", "2"],
        ["graphsim", "--n", "50", "--kappa", "1", "--weights", "unit", "--s", "1.0",
         "--trials", "10000000000000"],
    ], ids=["gaussian-denominator", "gamma-denominator", "prime-power-denominators",
            "compare-k-max-1e13", "compare-k-max-3e6", "graphsim-n-1e13", "graphsim-trials-1e13"])
    def test_unbounded_runs_refused_in_under_a_second(self, runner, tmp_path, args):
        spec_file = tmp_path / "w.json"
        spec_file.write_text(PRIME_POWER_JSON)
        start = time.monotonic()
        result = runner.invoke(cli.main, [*(a.format(w=spec_file) for a in args),
                                          "--out", str(tmp_path / "t.csv")])
        assert time.monotonic() - start < 1.0
        assert result.exit_code == 3, result.output
        assert len(result.stderr.splitlines()) == 1
