import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def fraction_moment_sequence(model, k_max, x, n=None):
    """The convolution recurrence in Fractions, term by term: the reference
    of the scaled integer engine ``moments.moment_sequence``."""
    if k_max < 0:
        raise DomainError("order must be >= 0")
    if n is not None and n <= 0:
        raise DomainError("population size n must be positive")
    xe = Fraction(x)
    scale = xe if n is None else xe / n
    vs = [model.moment(j) for j in range(k_max + 1)]
    ms = [Fraction(1)]
    for k in range(1, k_max + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            if vs[j]:
                coef = math.comb(k - 1, j - 1)
                if n is not None:
                    coef = n * coef - math.comb(k - 1, j)
                acc += coef * vs[j] * ms[k - j]
        ms.append(scale * acc)
    return ms


def compositions(k, p):
    """Every ordered tuple of p positive parts summing to k; no partial sum
    ever exceeds k."""
    if p == 0:
        if k == 0:
            yield ()
        return
    for first in range(1, k - p + 2):
        for rest in compositions(k - first, p - 1):
            yield (first,) + rest


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
    def test_matches_partition_oracle_small_grid(self):
        for model in MODELS.values():
            for k in range(9):
                for x in (Fraction(1, 2), 3):
                    a = moments.moment_recurrence(model, k, x).value_exact
                    b = moments.moment_partition_oracle(model, k, x).value_exact
                    assert a == b, (model.name, k, x)

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

    def test_first_moment(self):
        assert moments.moment_recurrence(MODELS["unit"], 1, 1).value_exact == 1

    def test_parity_models_have_zero_odd_moments(self):
        for name in ("gaussian", "bernoulli"):
            for k in (1, 3, 5, 7, 9):
                assert moments.moment_recurrence(MODELS[name], k, 3).value_exact == 0

    def test_oracle_cap(self):
        with pytest.raises(DomainError):
            moments.moment_partition_oracle(MODELS["unit"], 26, 1)


def central_model(model, horizon=60):
    """Custom model of the central moments E(W - V_1)^l, l <= horizon: V_1 = 0
    and, unlike ``tilde_transform``, every higher moment is shifted too."""
    v1 = model.moment(1)
    return weights.custom_model([
        sum(math.comb(order, j) * model.moment(j) * (-v1) ** (order - j)
            for j in range(order + 1))
        for order in range(horizon + 1)
    ])


MODEL_ZOO = {
    **MODELS,
    "gamma(1/2,1)": weights.gamma(Fraction(1, 2), 1),
    "gamma(2/3,5/7)": weights.gamma(Fraction(2, 3), Fraction(5, 7)),
    "gaussian(1/3)": weights.gaussian_centered(Fraction(1, 3)),
    "gaussian(1/4)": weights.gaussian_centered(Fraction(1, 4)),
    "gaussian(1/100)": weights.gaussian_centered(Fraction(1, 100)),
    **{f"tilde({name})": weights.tilde_transform(MODELS[name])
       for name in ("unit", "exponential", "gamma", "logfact")},
    # the random-order test samples to k = 60, the horizon of these
    **{f"central({name})": central_model(MODELS[name])
       for name in ("unit", "exponential", "gamma", "logfact")},
}
# custom models stop at their last moment, so this one stays out of MODEL_ZOO,
# which the random-order test samples to k = 60
PRIME_POWERS = weights.custom_model(prime_power_moments(16))
INTENSITIES = (0, Fraction(1, 3), Fraction(7, 2), 10**300, Fraction(0.7373))
POPULATIONS = (None, 1, 2, 1000)
CUSTOM_MOMENTS = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=12), min_size=1, max_size=14
)


class TestIntegerEngine:
    """``moment_sequence`` equals the Fraction recurrence term by term."""

    @pytest.mark.parametrize("name", [*MODEL_ZOO, "custom(1/p_j^j)"])
    def test_matches_fraction_recurrence(self, name):
        model = MODEL_ZOO.get(name, PRIME_POWERS)
        for x in INTENSITIES:
            for n in POPULATIONS:
                got = moments.moment_sequence(model, 16, x, n)
                assert got == fraction_moment_sequence(model, 16, x, n), (x, n)
                assert all(type(v) is Fraction for v in got)

    @given(CUSTOM_MOMENTS, st.sampled_from(INTENSITIES), st.sampled_from(POPULATIONS),
           st.integers(0, 14), st.booleans())
    def test_custom_models_match_fraction_recurrence(self, tail, x, n, k_max, tilde):
        model = weights.custom_model([1, *tail])
        if tilde:
            model = weights.tilde_transform(model)
        k_max = min(k_max, len(tail))
        got = moments.moment_sequence(model, k_max, x, n)
        assert got == fraction_moment_sequence(model, k_max, x, n)

    @given(st.sampled_from(sorted(MODEL_ZOO)), st.integers(0, 60),
           st.fractions(min_value=-3, max_value=3, max_denominator=50), st.sampled_from(POPULATIONS))
    def test_random_orders_and_intensities(self, name, k_max, x, n):
        model = MODEL_ZOO[name]
        got = moments.moment_sequence(model, k_max, x, n)
        assert got == fraction_moment_sequence(model, k_max, x, n)

    def test_scale_stays_small_for_geometric_denominators(self):
        # V_j = (2j-1)!!/2^j needs l = 2, where the lcm of the denominators is 2^j;
        # den(V_2) = 10^300 needs l = 10^150, and V_j = 1/p_j^j needs l = p_1 .. p_j
        for model, ell in ((MODELS["unit"], 1), (MODELS["exponential"], 1), (MODELS["logfact"], 1),
                           (MODELS["bernoulli"], 1), (MODELS["gaussian"], 1), (MODELS["gamma"], 2),
                           (MODEL_ZOO["gamma(1/2,1)"], 2), (MODEL_ZOO["gaussian(1/3)"], 3),
                           (MODEL_ZOO["gamma(2/3,5/7)"], 21), (MODEL_ZOO["gaussian(1/4)"], 2),
                           (MODEL_ZOO["gaussian(1/100)"], 10),
                           (weights.from_spec("gaussian:1e-300"), 10**150),
                           (weights.custom_model(prime_power_moments(60)),
                            math.prod(first_primes(60)))):
            vs, got = moments._weight_moments(model, 60, 1, 1)
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

    @pytest.mark.parametrize("model, k, read, bits", [
        (weights.from_spec("gaussian:1e-300"), 2000, 2, 499),  # den(V_2) = 10^300: l = 10^150
        (weights.from_spec("gamma:1/3,1e-300"), 2000, 1, 999),  # l = den(V_1) = 3 10^300
        (weights.from_spec("gaussian:1e-300"), 240, 2, 499),  # 3.5e13; 10.4 s unbounded at 10^300
        # refused at l = p_1 .. p_42; the greedy l = p_1^1 .. p_j^j read all 300 V_j and ran on
        (weights.custom_model(prime_power_moments(300)), 300, 42, 242),
    ], ids=["gaussian:1e-300-2000-2-499", "gamma:1/3,1e-300-2000-1-999",
            "gaussian:1e-300-240-2-499", "prime-powers-300-42-242"])
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
        # bell --k 2000 runs (16-20 s); the bound is calibrated just above it
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

    def test_polynomial_values(self):
        # B_3(x) = x^3 + 3x^2 + x, the unit-weight moments
        for x in (1, 2, Fraction(5, 3)):
            expected = Fraction(x) ** 3 + 3 * Fraction(x) ** 2 + Fraction(x)
            assert moments.moment_sequence(weights.unit(), 3, x)[3] == expected
        assert moments.moment_sequence(weights.unit(), 3, 2)[3] == 22
        assert moments.moment_sequence(weights.unit(), 0, 5)[0] == 1


class TestEvenPartitionNumbers:
    def test_reference_values(self):
        got = [moments.even_partition_number(t) for t in range(0, 12, 2)]
        assert got == [1, 1, 4, 25, 262, 3991]

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
    def test_first_order(self):
        for model in MODELS.values():
            got = moments.finite_n_moment(model, 1, 50, Fraction(2, 3)).value_exact
            assert got == Fraction(2, 3) * model.moment(1)

    def test_second_order_two_sites(self):
        lam = Fraction(1, 2)
        for model in (MODELS["exponential"], MODELS["gamma"]):
            got = moments.finite_n_moment(model, 2, 2, lam).value_exact
            v1, v2 = model.moment(1), model.moment(2)
            assert got == lam * v2 + lam**2 * v1**2 / 2

    def test_matches_direct_expectation(self):
        for model in (MODELS["unit"], MODELS["exponential"]):
            for n, k in ((2, 3), (3, 3), (4, 2)):
                got = moments.finite_n_moment(model, k, n, Fraction(1, 2)).value_exact
                assert got == brute_force_finite_n(model, k, n, Fraction(1, 2))

    def test_converges_to_compound_poisson_moment(self):
        unit = MODELS["unit"]
        k = 3
        target = moments.moment_recurrence(unit, k, 1).value_exact
        got = moments.finite_n_moment(unit, k, 10**6, 1).value_exact
        assert abs(got / target - 1) <= 10 * k**2 / 10**6

    def test_beyond_profile_enumeration_range(self):
        # unit weights: E Bin(n, lam/n)^k = sum_p S(k, p) (n)_p (lam/n)^p
        k, lam = 40, Fraction(7, 2)
        stirling = [[1]]
        for row in range(1, k + 1):
            prev = stirling[-1] + [0]
            stirling.append([0] + [p * prev[p] + prev[p - 1] for p in range(1, row + 1)])
        for n in (7, 1000):
            expected = sum(
                stirling[k][p] * math.perm(n, p) * (lam / n) ** p for p in range(k + 1)
            )
            assert moments.finite_n_moment(MODELS["unit"], k, n, lam).value_exact == expected

    def test_small_population_allowed_zero_rejected(self):
        assert moments.finite_n_moment(MODELS["unit"], 3, 2, 1).value_exact > 0
        with pytest.raises(DomainError):
            moments.finite_n_moment(MODELS["unit"], 2, 0, 1)


class TestCenteredMoments:
    """The moments of Y - x V_1 are those of the mean-shift model
    ``tilde_transform(model)``."""

    @staticmethod
    def centered(model, k_max, x):
        return moments.moment_sequence(weights.tilde_transform(model), k_max, x)

    def test_low_orders(self):
        for model in MODELS.values():
            assert self.centered(model, 1, 2) == [1, 0]
            got = self.centered(model, 2, Fraction(5, 2))[2]
            assert got == Fraction(5, 2) * model.moment(2)

    def test_third_cumulant_identity(self):
        assert self.centered(MODELS["unit"], 3, 1)[3] == 1  # lam * V_3 at lam = V_3 = 1

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


class TestLogMoments:
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

    def test_bell_number_value(self):
        assert moments.log_moment(MODELS["unit"], 10, 1.0) == pytest.approx(
            math.log(115975), rel=1e-12
        )

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

    def test_identities_equal_moments(self):
        for k in range(1, 13):
            for x in (1, 3, Fraction(7, 2)):
                lhs = math.factorial(k) * moments.exp_identity_sum(k, x)
                assert lhs == moments.moment_recurrence(MODELS["exponential"], k, x).value_exact
                lhs = math.factorial(k) * moments.factorial_identity_rising(k, x)
                assert lhs == moments.moment_recurrence(MODELS["logfact"], k, x).value_exact

    def test_composition_identity_brute_force(self):
        for k in range(1, 10):
            for p in range(1, min(k, 8) + 1):
                direct = sum(1 for _ in compositions(k, p))
                assert moments.composition_identity_lhs(k, p) == direct
                assert direct == math.comb(k - 1, p - 1)

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
