import dataclasses
import math
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from conftest import (
    brute_force_finite_n, brute_force_moment, first_primes, prime_power_moments, set_partitions,
)
from cpmoments import moments, weights
from cpmoments.errors import DomainError

MODELS = {
    "unit": weights.unit(),
    "gaussian": weights.gaussian_centered(1),
    "gamma": weights.gamma(2, Fraction(1, 2)),
    "bernoulli": weights.bernoulli_centered(),
    "exponential": weights.exponential(),
    "logfact": weights.log_factorial(),
}

RATIONALS = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8)


class TestProfiles:
    def test_counts_match_partition_function(self):
        # p(k) for k = 0..10
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for k, count in enumerate(expected):
            assert sum(1 for _ in moments.partition_profiles(k)) == count

    def test_lexicographic_order(self):
        profs = list(moments.partition_profiles(6))
        assert profs == sorted(profs)

    def test_profile_constraint_and_weight_counts(self):
        # a profile (l_1..l_k) is realized by k! / prod((i!)^{l_i} l_i!) set
        # partitions, and these counts sum to the Bell number
        for k in (4, 7):
            total = 0
            for prof in moments.partition_profiles(k):
                assert sum(i * li for i, li in enumerate(prof, start=1)) == k
                den = math.prod(math.factorial(i) ** li * math.factorial(li)
                                for i, li in enumerate(prof, start=1))
                count, rem = divmod(math.factorial(k), den)
                assert rem == 0
                total += count
            assert total == moments.bell_number(k)


class TestRecurrenceAgainstOracles:
    def test_matches_set_partition_brute_force(self):
        for model in (MODELS["unit"], MODELS["exponential"], MODELS["bernoulli"]):
            for k in range(7):
                got = moments.moment_recurrence(model, k, Fraction(3, 2)).value_exact
                assert got == brute_force_moment(model, k, Fraction(3, 2)), (model.name, k)

    @given(RATIONALS)
    def test_second_moment_closed_form(self, x):
        for model in MODELS.values():
            v1, v2 = model.moment(1), model.moment(2)
            got = moments.moment_recurrence(model, 2, x).value_exact
            assert got == x * v2 + x**2 * v1**2

    def test_oracle_cap(self):
        with pytest.raises(DomainError):
            moments.moment_partition_oracle(MODELS["unit"], 26, 1)


class TestIntegerEngine:
    """``moment_sequence``'s scale, work bound and tables past float range;
    the exact atlas (``test_exact_atlas.py``) checks its values."""

    def test_custom_moments_past_float_range(self):
        # the exact and the log tables read the exact V_j, never their floats
        big = Fraction(10**400)
        model = weights.custom_model([1, big, -big])
        for n in (None, 1, 2, 1000):
            got = moments.moment_sequence(model, 2, 3, n)
            assert got == reference.exact_moments([1, big, -big], 3, 2, n)
        logs = moments.log_moment_sequence(weights.custom_model([1, big, big]), 2, 1)
        assert logs[2] == pytest.approx(weights.log_rational(big + big**2))

    @pytest.mark.parametrize("spec", ["gaussian:1e400", "gamma:1e400,1", "gamma:1,1e400"] + [
        f"gamma:{m},{theta}" for m in ("1", "2", "1/2", "1e400") for theta in ("1e-320", "1e-400")])
    def test_log_tables_past_float_range(self, spec):
        # a parameter past float range is inf in the floats only, and theta
        # below it is subnormal or 0 with a radius large or inf: the log table
        # reads the exact parameter, and agrees with the exact table, whose
        # value the exact atlas checks on these laws
        model = weights.from_spec(spec)
        for x in (1, Fraction(7, 2)):
            want = np.array([weights.log_rational(m) for m in moments.moment_sequence(model, 40, x)])
            assert_logs_agree(moments.log_moment_sequence(model, 40, x), want, 1e-12)

    def test_scale_stays_small_for_geometric_denominators(self):
        # V_j = (2j-1)!!/2^j needs l = 2, where the lcm of the denominators is 2^j;
        # den(V_2) = 10^300 needs l = 10^150, and V_j = 1/p_j^j needs l = p_1 .. p_j
        laws = [(weights.from_spec(spec), ell) for spec, ell in (
            ("gamma:1/2,1", 2), ("gaussian:1/3", 3), ("gamma:2/3,5/7", 21), ("gaussian:1/4", 2),
            ("gaussian:1/100", 10), ("gaussian:1e-300", 10**150))]
        for model, ell in ((MODELS["unit"], 1), (MODELS["exponential"], 1), (MODELS["logfact"], 1),
                           (MODELS["bernoulli"], 1), (MODELS["gaussian"], 1), (MODELS["gamma"], 2),
                           *laws, (weights.custom_model(prime_power_moments(60)),
                                   math.prod(first_primes(60)))):
            vs = [model.moment(j) for j in range(1, 61)]
            got = moments._scale(enumerate(vs, start=1), 60, 1, 1)
            assert got == ell, model.name
            assert all((ell**j * v).denominator == 1 for j, v in enumerate(vs, start=1))

    def test_work_bound_refuses_before_any_work(self, monkeypatch):
        # unbounded, k_max = 1e8 would build 1e8 Fractions before its first term
        def refuse(self, j):
            raise AssertionError("weight moments evaluated")

        monkeypatch.setattr(weights.WeightModel, "moment", refuse)
        # the first order the bit bound refuses at x = 1: bell --k 2000 runs
        k_max = 2001
        while moments.exact_bit_work(k_max, 1, 1) <= moments.MAX_EXACT_BITS:
            k_max += 1
        assert k_max == 2048
        for k, n in ((k_max, None), (10**8, None), (10**8, 1000)):
            with pytest.raises(DomainError, match=f"bit products, more than {moments.MAX_EXACT_BITS}$"):
                moments.moment_sequence(MODELS["unit"], k, 1, n)
        with pytest.raises(DomainError, match="more than"):
            moments.bell_number(10**8)

    def test_dfinite_coefficients_built_after_the_check_at_q(self):
        # Q is cut at degree k, so a huge shape at k = 1e8 would build 1e8
        # coefficients before a refusal that needs none of them
        def refuse(n):
            raise AssertionError("D-finite coefficients built")

        model = dataclasses.replace(weights.from_spec("gamma:1e18,1"), d1_ratio=refuse)
        with pytest.raises(DomainError, match=f"bit products, more than {moments.MAX_EXACT_BITS}$"):
            moments.moment_sequence(model, 10**8, 1)
        with pytest.raises(AssertionError, match="coefficients built"):
            moments.moment_sequence(model, 20, 1)

    @pytest.mark.parametrize("model, k, read, bits", [
        # the Touchard route reads a = 10^-300 at weight 2, no V_j: l = 10^150
        (weights.from_spec("gaussian:1e-300"), 2000, 0, 499),
        (weights.from_spec("gamma:1/3,1e-300"), 2000, 1, 999),  # l = den(V_1) = 3 10^300
        (weights.from_spec("gaussian:1e-300"), 240, 0, 499),  # 3.5e13; 10.4 s unbounded at 10^300
        # refused at l = p_1 .. p_42; the greedy l = p_1^1 .. p_j^j read all 300 V_j and ran on
        (weights.custom_model(prime_power_moments(300)), 300, 42, 242),
    ], ids=["gaussian:1e-300-2000-0-499", "gamma:1/3,1e-300-2000-1-999",
            "gaussian:1e-300-240-0-499", "prime-powers-300-42-242"])
    def test_weight_denominators_refused_as_read(self, monkeypatch, model, k, read, bits):
        seen = []
        moment = weights.WeightModel.moment

        def counted(self, j):
            seen.append(j)
            return moment(self, j)

        def refuse(*args):
            raise AssertionError("a recurrence term ran")

        monkeypatch.setattr(weights.WeightModel, "moment", counted)
        monkeypatch.setattr(moments, "operator", SimpleNamespace(mul=refuse, add=refuse))
        with pytest.raises(DomainError, match=(
                f"1 numerator and {bits} denominator bits"
                f" needs about {moments.exact_bit_work(k, 1, bits)} bit products")):
            moments.moment_sequence(model, k, 1)
        assert seen == list(range(1, read + 1))

    def test_weight_denominators_admit_order_200(self):
        # gaussian:1e-300 at k = 200 runs at l = 10^150 (estimate 1.7e13, 0.07 s);
        # at l = 10^300 it took 5 s.  Its moments are 10^-300m those of gaussian:1
        assert moments.exact_bit_work(200, 1, 499) <= moments.MAX_EXACT_BITS
        got = moments.moment_sequence(weights.from_spec("gaussian:1e-300"), 200, 1)
        unit_variance = moments.moment_sequence(MODELS["gaussian"], 200, 1)
        assert got[1::2] == [0] * 100
        assert all(got[2 * m] == unit_variance[2 * m] / 10 ** (300 * m) for m in range(101))
        # V_j = 1/p_j^j to k = 60: 0.1 s at l = p_1 .. p_60, 38 s at p_1^1 .. p_60^60
        got = moments.moment_sequence(weights.custom_model(prime_power_moments(60)), 60, 1)
        assert got[2] == Fraction(1, 4) + Fraction(1, 9)

    @pytest.mark.parametrize("k, x, n", [
        (400, Fraction(1, 10**300), None),  # 1e-300: k = 400 did not finish in 300 s
        (150, Fraction(1, 7**4000), None),  # a 3381-digit denominator
        (1000, 10**300, None),
        (400, Fraction(7, 2), 10**300),  # x/n has the long denominator
    ])
    def test_bit_work_bound_refuses_before_any_work(self, monkeypatch, k, x, n):
        def refuse(self, j):
            raise AssertionError("weight moments evaluated")

        monkeypatch.setattr(weights.WeightModel, "moment", refuse)
        with pytest.raises(DomainError, match=f"bit products, more than {moments.MAX_EXACT_BITS}$"):
            moments.moment_sequence(MODELS["unit"], k, x, n)

    def test_bit_work_bound_admits_bell_2000(self):
        # moments --weights bernoulli --k 2000 --x 1 runs (3.9-6.0 s), and so
        # does bell --k 2000; the bound is calibrated just above them
        work = moments.exact_bit_work(2000, 1, 1)
        assert work <= moments.MAX_EXACT_BITS < 1.2 * work
        assert moments.exact_bit_work(0, 997, 11230) == 0


class TestBell:
    def test_known_values(self):
        # brute force for small orders, classic values beyond
        for k in range(7):
            assert moments.bell_number(k) == sum(1 for _ in set_partitions(range(k)))
        assert moments.bell_number(4) == 15
        assert moments.bell_number(5) == 52
        assert moments.bell_number(10) == 115975

    def test_refused_by_the_engine_bound_before_any_row(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a row of the array was built")

        monkeypatch.setattr(moments, "accumulate", refuse)
        with pytest.raises(DomainError, match=(
                "^exact recurrence to order 2048 at a scale of 1 numerator and 1 denominator"
                " bits needs about 20544260232533 bit products, more than 20000000000000$")):
            moments.bell_number(2048)
        with pytest.raises(AssertionError, match="row"):  # the last order admitted
            moments.bell_number(2047)

    def test_polynomial_values(self):
        # B_3(x) = x^3 + 3x^2 + x, the unit-weight moments
        for x in (1, 2, Fraction(5, 3)):
            expected = Fraction(x) ** 3 + 3 * Fraction(x) ** 2 + Fraction(x)
            assert moments.moment_sequence(weights.unit(), 3, x)[3] == expected
        assert moments.moment_sequence(weights.unit(), 3, 2)[3] == 22
        assert moments.moment_sequence(weights.unit(), 0, 5)[0] == 1


class TestRoutes:
    """The coefficients each route of ``moment_sequence`` reads, and the
    scale it runs at; the exact atlas checks which route runs and its table."""

    def test_structured_routes_read_no_weight_moment(self, monkeypatch):
        # each route's scale grows over the coefficients it reads, so a law
        # whose l is above 1 (gaussian:1/3, gamma:2,1/2) reads no V_j either
        models = [weights.from_spec(spec) for spec in (
            "unit", "gaussian:1", "gaussian:1/3", "gaussian:1e-300", "gamma:2,1/2", "gamma:3,2/3",
            "exponential", "logfact")]

        def refuse(self, j):
            raise AssertionError("weight moments evaluated")

        monkeypatch.setattr(weights.WeightModel, "moment", refuse)
        for model in models:
            for x in (Fraction(7, 2), Fraction(-5, 3)):
                assert len(moments.moment_sequence(model, 200, x)) == 201, model.name
        assert moments.bell_number(300) == moments.moment_sequence(MODELS["unit"], 300, 1)[300]

    def test_route_scale_is_the_convolution_scale(self):
        # a route is admitted at the D it runs at; for these laws that D is the
        # one the convolution on their V_j would run at, refusals included
        def outcome(terms):
            try:
                return moments._scale(terms, 120, 1, 1)
            except DomainError as exc:
                return str(exc)

        values = ["1", "2", "1/2", "1/3", "2/3", "3/4", "5/7", "7/2", "1/8", "3/5", "1/100", "9/10",
                  "10/3", "1/6", "12/5", "6/7", "1e-300"]
        laws = [(f"gaussian:{v}", None) for v in values]
        laws += [(f"gamma:{m},{v}", m) for m in range(1, 65) for v in values]
        for spec, shape in laws:
            model = weights.from_spec(spec)
            if shape is None:
                a, deg = model.touchard
                route = outcome([(deg, a)])
            else:
                route = outcome(moments._ratio_terms(model.d1_ratio, 120, []))
            vs = [model.moment(j) for j in range(1, 121)]
            assert route == outcome(enumerate(vs, start=1)), spec
        # gaussian:1e-300 at x = 1: the first order refused, by its route and
        # by the convolution on a custom list of its V_j (l = 10^150 either way)
        model = weights.from_spec("gaussian:1e-300")
        k = 200
        while moments.exact_bit_work(k, 1, 499) <= moments.MAX_EXACT_BITS:
            k += 1
        custom = weights.custom_model([model.moment(j) for j in range(k + 1)])
        assert moments.moment_sequence(model, k - 1, 1) == moments.moment_sequence(custom, k - 1, 1)
        for law in (model, custom):
            with pytest.raises(DomainError, match="1 numerator and 499 denominator bits"):
                moments.moment_sequence(law, k, 1)
        # the one known move: Q_1 = -4097/2 runs the route at D = 2, where the
        # V_j are integers to this order, so it is refused from 1839, not 2048
        assert moments.exact_bit_work(1838, 1, 2) <= moments.MAX_EXACT_BITS
        assert moments.exact_bit_work(1839, 1, 2) > moments.MAX_EXACT_BITS
        with pytest.raises(DomainError, match="^exact recurrence to order 1900 at a scale of 1"
                           " numerator and 2 denominator bits"):
            moments.moment_sequence(weights.from_spec("gamma:4096,1/2"), 1900, 1)


class TestEvenPartitionNumbers:
    def test_odd_order_rejected(self):
        with pytest.raises(DomainError):
            moments.even_partition_number(5)

    def test_dominated_by_bell_numbers(self):
        for k in range(11):
            assert moments.even_partition_number(2 * k) <= moments.bell_number(2 * k)

    def test_true_even_block_counts_are_the_bernoulli_moments(self):
        # The direct count of even-block set partitions equals M_{2k}(1) for
        # symmetric +-1 weights; the pinned recurrence values drift from it
        # at order 6 (25 vs 31), which this test documents.
        bern = MODELS["bernoulli"]
        for two_k in (2, 4, 6, 8):
            count = sum(
                1
                for part in set_partitions(range(two_k))
                if all(len(block) % 2 == 0 for block in part)
            )
            assert moments.moment_recurrence(bern, two_k, 1).value_exact == count
        assert moments.even_partition_number(6) == 25
        assert moments.moment_recurrence(bern, 6, 1).value_exact == 31


class TestFiniteN:
    def test_matches_direct_expectation(self):
        for model in (MODELS["unit"], MODELS["exponential"]):
            for n, k in ((2, 3), (3, 3), (4, 2)):
                got = moments.finite_n_moment(model, k, n, Fraction(1, 2)).value_exact
                assert got == brute_force_finite_n(model, k, n, Fraction(1, 2))

    def test_zero_population_rejected(self):
        with pytest.raises(DomainError):
            moments.finite_n_moment(MODELS["unit"], 2, 0, 1)


class TestCenteredMoments:
    """The moments of Y - x V_1 are those of the mean-shift model
    ``tilde_transform(model)``."""

    @staticmethod
    def centered(model, k_max, x):
        return moments.moment_sequence(weights.tilde_transform(model), k_max, x)

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(7, 2), 100.0], ids=str)
    def test_binomial_expansion_of_raw_moments(self, name, x):
        # E(Y - x V_1)^k = sum_i C(k, i) M_i(x) (-x V_1)^(k-i), exactly; a
        # float x is the binary rational it stands for, and at x = 100.0 the
        # expansion cancels heavily
        model = MODELS[name]
        raw = moments.moment_sequence(model, 16, x)
        shift = -Fraction(x) * model.moment(1)
        got = self.centered(model, 16, x)
        for k in range(17):
            want = sum(math.comb(k, i) * raw[i] * shift ** (k - i) for i in range(k + 1))
            assert got[k] == want, k


def per_order_log_moments(model, k_max, x):
    """ln M_0(x) .. ln M_kmax(x) by the recurrence in log-sum-exp form, one
    order at a time: the reference of ``moments.log_moment_sequence``.

    Divided by (k-1)!, the recurrence is a plain convolution, M_k/(k-1)! =
    sum_j a_j b_{k-j}, of a_j = x V_j/(j-1)! with b_i = M_i/i!; each order
    is one add of the logs into a buffer, its max, an in-place shift and
    exp, and a sum."""
    x = float(x)
    lgf = np.array([math.lgamma(i + 1.0) for i in range(k_max + 1)])
    lgv = np.array([weights.log_rational(model.moment(j)) for j in range(1, k_max + 1)])
    a = math.log(x) + lgv - lgf[:-1]  # ln a_j, j = 1 .. k_max; b holds ln b_i
    b = np.empty(k_max + 1)
    b[0] = 0.0
    buf = np.empty(k_max)
    for k in range(1, k_max + 1):
        terms = np.add(a[:k], b[k - 1 :: -1], out=buf[:k])
        peak = terms.max()
        if peak == -math.inf:
            b[k] = -math.inf
            continue
        terms -= peak
        np.exp(terms, out=terms)
        b[k] = peak + math.log(terms.sum()) + lgf[k - 1] - lgf[k]
    return b + lgf


def assert_logs_agree(got, want, rel):
    """The same -inf orders, and elsewhere |got - want| <= rel (|want| +
    ln k! + 1): ln M_k is ln(M_k/k!) + ln k!, and each carries rounding of
    its own size, so a log near 0 between two large ones is held to their
    scale, and one near 0 at a low order to 1.  Where |ln M_k| >= ln k!,
    and so for every log from k = 1 at x >= 1, the bound is the plain
    relative rel |want|."""
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    lgf = np.array([math.lgamma(k + 1.0) for k in range(len(want))])
    live = np.isfinite(want)
    err = np.abs(got[live] - want[live])
    assert np.all(err <= rel * (np.abs(want[live]) + lgf[live] + 1.0))
    large = np.abs(want[live]) >= np.maximum(lgf[live], 1.0)
    assert np.all(err[large] <= rel * np.abs(want[live][large]))


class TestLogMoments:
    @pytest.mark.parametrize("k_max", [200, 2000])
    @pytest.mark.parametrize("x", ["1e-300", "1e-6", "1", "7/2", "1e6", "1e300"])
    @pytest.mark.parametrize("name", list(MODELS))
    def test_matches_per_order_loop(self, name, x, k_max, monkeypatch):
        # past the first orders, every order is a tilted dot product
        model, guarded = MODELS[name], []
        log_order = moments._log_order
        monkeypatch.setattr(moments, "_log_order", lambda la, c, k: (
            guarded.append(k), log_order(la, c, k))[1])
        got = moments.log_moment_sequence(model, k_max, Fraction(x))
        assert_logs_agree(got, per_order_log_moments(model, k_max, Fraction(x)), 1e-13)
        # the tilt needs two orders with b > 0 two or more steps apart
        assert guarded == list(range(model.span, 2 * model.span + 2, model.span))

    @pytest.mark.parametrize("model, x", [
        (weights.custom_model([1, 0, 0, 1, 0, 0, 2, 0, 0, 5] + [0] * 100), Fraction(1, 10**300)),
        (weights.tilde_transform(weights.unit()), Fraction(10**300)),
    ], ids=["lattice-of-3-at-1e-300", "tilde-unit-at-1e300"])
    def test_guard_orders_match_per_order_loop(self, model, x, monkeypatch):
        # a lattice the span does not know, where one jump and two differ by
        # 1e-300, and odd orders 1e-150 below the even ones: no tilt spans
        # the entries, or an order's sum leaves the range under a new tilt,
        # and those orders take the log-sum-exp pass.  Neither reads a tilt
        # per order: after a guarded order the next is read 1/8 later, and
        # one is still read near k_max
        guarded, tilts = [], []
        log_order, retilt = moments._log_order, moments._retilt
        monkeypatch.setattr(moments, "_log_order", lambda la, c, k: (
            guarded.append(k), log_order(la, c, k))[1])
        monkeypatch.setattr(moments, "_retilt", lambda *args: (
            tilts.append(args[2]), retilt(*args))[1])
        k_max = min(model.horizon or 400, 400)
        got = moments.log_moment_sequence(model, k_max, x)
        assert_logs_agree(got, per_order_log_moments(model, k_max, x), 1e-13)
        assert len(guarded) > k_max // 4
        want = [1]
        while want[-1] + max(1, want[-1] // 8) <= k_max:
            want.append(want[-1] + max(1, want[-1] // 8))
        assert tilts == want

    @pytest.mark.parametrize("x", ["1e400", "1e300", "1e-300", "1e-400"])
    @pytest.mark.parametrize("name", ["unit", "exponential", "bernoulli", "gamma"])
    def test_intensity_past_float_range(self, name, x):
        # ln x comes from the exact x, so 1e400 and 1e-400 need no float
        model = MODELS[name]
        got = moments.log_moment_sequence(model, 20, weights.parse_rational(x))
        want = [weights.log_rational(m) for m in
                moments.moment_sequence(model, 20, weights.parse_rational(x))]
        assert_logs_agree(got, np.array(want), 1e-13)

    def test_matches_exact_up_to_30(self):
        for model in MODELS.values():
            seq = moments.log_moment_sequence(model, 30, 2.0)
            exact = moments.moment_sequence(model, 30, Fraction(2))
            for k in range(31):
                if exact[k] == 0:
                    assert seq[k] == -math.inf
                    continue
                ref = math.log(exact[k].numerator) - math.log(exact[k].denominator)
                assert math.exp(seq[k] - ref) == pytest.approx(1.0, rel=1e-9), (model.name, k)

    def test_large_order_runs(self):
        seq = moments.log_moment_sequence(MODELS["exponential"], 1000, 0.5)
        assert math.isfinite(seq[1000])
        assert seq[1000] > seq[999]

    def test_exponential_closed_form_at_large_order(self):
        s = moments.exp_identity_sum(10, 2)
        expected = math.log(math.factorial(10) * s.numerator / s.denominator)
        assert moments.log_moment(MODELS["exponential"], 10, 2.0) == pytest.approx(expected)

    def test_rejects_nonpositive_intensity(self):
        with pytest.raises(DomainError):
            moments.log_moment(MODELS["unit"], 3, 0.0)

    def test_work_bound_refuses_before_any_work(self, monkeypatch):
        # unbounded, k_max = 1e8 would allocate gigabytes before its first term
        def refuse(self, j):
            raise AssertionError("weight moments evaluated")

        monkeypatch.setattr(weights.WeightModel, "log_weight_moment", refuse)
        k_max = math.isqrt(moments.MAX_LOG_WORK) + 1
        for k in (k_max, 10**8):
            with pytest.raises(DomainError, match="more than 2000000000"):
                moments.log_moment_sequence(MODELS["unit"], k, 1.0)
        moments.check_log_work(moments.MAX_LOG_WORK)

    @pytest.mark.parametrize("name", list(MODELS))
    @pytest.mark.parametrize("chi", [1e-4, 0.5, 30.0])
    def test_runs_on_a_ray_equal_log_moment(self, name, chi):
        # the shared tables' prefixes change no bit of any order
        model = MODELS[name]
        orders = list(range(model.span, 121, model.span))
        assert (moments.log_moments_by_recurrence(model, chi, orders)
                == [moments.log_moment(model, k, chi * k) for k in orders])

    def test_runs_on_a_ray_refused_before_any_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("log tables built")

        monkeypatch.setattr(moments, "_log_tables", refuse)
        # each order alone is admitted, their sum of k^2 is not
        with pytest.raises(DomainError, match="^log-space recurrence needs 2000057841 terms"):
            moments.log_moments_by_recurrence(MODELS["unit"], 1.0, [300, 44721])
        with pytest.raises(DomainError, match="^chi must be positive, got 0.0$"):
            moments.log_moments_by_recurrence(MODELS["unit"], 0.0, [1])
        assert moments.log_moments_by_recurrence(MODELS["unit"], 1.0, []) == []

    def test_runs_on_a_long_range_refused_at_once(self):
        # 10^13 orders: summed one by one, their k^2 alone would take hours
        start = time.monotonic()
        with pytest.raises(DomainError, match="^log-space recurrence needs"
                                              " 333333333333383333333333335000000000000 terms"):
            moments.log_moments_by_recurrence(MODELS["unit"], 1.0, range(1, 10**13 + 1))
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("orders", [range(1, 5001), range(2, 301, 2), range(7, 8),
                                        range(3, 100, 7)])
    def test_square_sum_of_a_range_in_closed_form(self, orders):
        assert moments._square_sum(orders) == sum(k * k for k in list(orders))

    def test_rejects_negative_weight_moments(self):
        model = weights.custom_model([1, 2, 3, -4, 5, 6])
        with pytest.raises(DomainError, match="negative weight moment V_3 = -4"):
            moments.log_moment_sequence(model, 5, 1.0)


class TestClosedFormIdentities:
    def test_exp_identity_examples(self):
        assert moments.exp_identity_sum(1, Fraction(7, 2)) == Fraction(7, 2)
        assert moments.exp_identity_sum(2, 1) == Fraction(3, 2)
        assert moments.exp_identity_sum(3, 2) == Fraction(22, 3)

    def test_factorial_identity_examples(self):
        assert moments.factorial_identity_rising(1, 5) == 5
        assert moments.factorial_identity_rising(2, 3) == 6
        assert moments.factorial_identity_rising(4, 1) == 1

    @pytest.mark.parametrize("x", [0, 1, 3, Fraction(7, 2), Fraction(-5, 3),
                                   Fraction(1, 10**30), 0.1])
    def test_integer_closed_forms_equal_the_fraction_loops(self, x):
        # the Fraction loops the integer sums replaced, kept as the reference
        def exp_sum(k, x):
            xe = Fraction(x)
            return sum((xe**p / math.factorial(p)) * math.comb(k - 1, p - 1)
                       for p in range(1, k + 1))

        def rising(k, x):
            out = Fraction(1)
            for i in range(k):
                out *= Fraction(x) + i
            return out / math.factorial(k)

        for k in range(1, 41):
            assert moments.exp_identity_sum(k, x) == exp_sum(k, x), k
            assert moments.factorial_identity_rising(k, x) == rising(k, x), k

    def test_composition_identity_without_profile_enumeration(self, monkeypatch):
        # the exact engine, not partition_profiles, carries the identity
        def refuse(k):
            raise AssertionError("partition_profiles called")

        monkeypatch.setattr(moments, "partition_profiles", refuse)
        for k in range(1, 31):
            for p in range(1, k + 1):
                assert moments.composition_identity_lhs(k, p) == math.comb(k - 1, p - 1), (k, p)

    @given(st.integers(1, 10), RATIONALS)
    def test_exp_identity_is_the_partition_sum(self, k, x):
        lhs = math.factorial(k) * moments.exp_identity_sum(k, x)
        assert lhs == moments.moment_partition_oracle(MODELS["exponential"], k, x).value_exact


class TestOrderRefusals:
    def test_negative_order_profiles(self):
        with pytest.raises(DomainError, match="^order must be >= 0$"):
            next(moments.partition_profiles(-1))

    def test_negative_order_bell(self):
        with pytest.raises(DomainError, match="^order must be >= 0$"):
            moments.bell_number(-1)

    def test_negative_order_log_sequence(self):
        with pytest.raises(DomainError, match="^order must be >= 0$"):
            moments.log_moment_sequence(MODELS["unit"], -1, 1.0)

    @pytest.mark.parametrize("identity", [moments.exp_identity_sum,
                                          moments.factorial_identity_rising])
    @pytest.mark.parametrize("k", [0, -3])
    def test_identities_need_a_positive_order(self, identity, k):
        with pytest.raises(DomainError, match="^identity defined for k >= 1$"):
            identity(k, 2)

    @pytest.mark.parametrize("k, p", [(3, 0), (3, 4), (0, 0), (5, -1)])
    def test_composition_parts_outside_one_to_k(self, k, p):
        with pytest.raises(DomainError, match="^need 1 <= p <= k$"):
            moments.composition_identity_lhs(k, p)


class TestMomentValue:
    def test_log_consistency(self):
        mv = moments.moment_recurrence(MODELS["exponential"], 7, Fraction(3, 2))
        assert mv.value_log == pytest.approx(math.log(float(mv.value_exact)), rel=1e-12)

    def test_zero_moment_log(self):
        mv = moments.moment_recurrence(MODELS["bernoulli"], 3, 1)
        assert mv.value_exact == 0
        assert mv.value_log == -math.inf
