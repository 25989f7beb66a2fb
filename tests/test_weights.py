import math
import sys
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cpmoments import weights
from cpmoments.errors import DomainError, HorizonError


BUILTIN_SPECS = ["unit", "gaussian:1", "gamma:2,1/2", "bernoulli", "exponential", "logfact"]


def builtin_models():
    return [weights.from_spec(spec) for spec in BUILTIN_SPECS]


# (spec, last order): gamma's parameters with ~1000-bit parts stop at 300,
# because their exact moments grow by about 1000 bits an order (orders up to
# 2000 of gamma(1e-400, 1) take 30 s)
CLOSED_FORM_CASES = [
    *((spec, 2000) for spec in ("unit", "gaussian:1", "gaussian:3/4", "gaussian:1e-300",
                                "bernoulli", "exponential", "logfact", "gamma:2,1/2",
                                "gamma:1e-3,1/2", "gamma:1e8,1/2", "gamma:15.999,1",
                                "gamma:16,1/3")),
    *((f"gamma:{m},{theta}", 300) for m in ("1e-400", "1e-3", "1e8", "1e300")
      for theta in ("1e-300", "1/2") if (m, theta) not in (("1e-3", "1/2"), ("1e8", "1/2"))),
    # a parameter past float range: the floats are inf, the logs come from the exact parameter
    *((spec, 300) for spec in ("gaussian:1e400", "gamma:1e400,1", "gamma:1,1e400")),
]


class TestLogWeightMoments:
    @pytest.mark.parametrize("spec, last", CLOSED_FORM_CASES,
                             ids=[spec for spec, _ in CLOSED_FORM_CASES])
    def test_closed_form_matches_exact_log(self, spec, last):
        # held to 1e-13 of the logs the exact path subtracts, ln num and ln den
        # (at least 1): gamma(1e300, 1e-300) has V_j within 1e-290 of 1, and
        # both paths lose digits to its j ln m - j ln(1/theta)
        model = weights.from_spec(spec)
        for j in range(last + 1):
            v = model.moment(j)
            if v == 0:
                assert model.log_weight_moment(j) == -math.inf, j
                continue
            scale = max(1.0, abs(math.log(v.numerator)) + abs(math.log(v.denominator)))
            assert abs(model.log_weight_moment(j) - weights.log_rational(v)) <= 1e-13 * scale, j

    def test_pseudo_models_take_the_exact_log(self):
        # no closed form for tilde and custom models: the log of the exact moment
        for model in (weights.tilde_transform(weights.gamma(2, Fraction(1, 2))),
                      weights.custom_model([1, Fraction(1, 3), 0, 7])):
            for j in range(4):
                assert model.log_weight_moment(j) == weights.log_rational(model.moment(j))


class TestBuiltins:
    def test_normalization(self):
        for model in builtin_models():
            assert model.moment(0) == 1
            assert model.egf(0.0) == pytest.approx(1.0)

    def test_moments_are_series_derivatives_at_zero(self):
        # V_j to order 300 equal to the reference's exact closed form, and the
        # reference's H - 1 against the series of those V_j to order 12; the
        # edge atlas checks H against the reference
        for spec in [*BUILTIN_SPECS, "gaussian:3/4"]:
            model, law = weights.from_spec(spec), reference.Law(spec)
            assert [model.moment(j) for j in range(301)] == reference.exact_v(spec, 300), spec
            with mpmath.workdps(60):
                series = mpmath.taylor(law.excess, 0, 12)
                for order in range(1, 13):
                    assert mpmath.almosteq(
                        series[order] * mpmath.factorial(order), law.v(order), 1e-40)

    def test_gamma_high_order_on_fresh_model(self):
        m, theta = Fraction(3, 2), Fraction(1, 3)
        direct = theta**1000 * math.prod(m + i for i in range(1000))
        assert weights.gamma(m, theta).moment(1000) == direct

    def test_factorial_type_moments_match_closed_forms(self):
        # the running products reproduce k!, (k-1)! and v2^k (2k-1)!! exactly,
        # asked for out of order on fresh models
        orders = (700, 0, 1, 2, 3, 9, 500, 1001)
        exp, logf = weights.exponential(), weights.log_factorial()
        gauss = weights.gaussian_centered(Fraction(3, 4))
        for k in orders:
            assert exp.moment(k) == math.factorial(k)
            assert logf.moment(k) == (1 if k == 0 else math.factorial(k - 1))
            double = math.factorial(k) // (2 ** (k // 2) * math.factorial(k // 2))
            assert gauss.moment(k) == (0 if k % 2 else Fraction(3, 4) ** (k // 2) * double)

    def test_fresh_moment_prefix_costs_no_more_than_gamma(self):
        # orders 0..K of a fresh model cost K products in all, as gamma's do;
        # the best of three runs keeps a stray pause out of the comparison
        def cost(constructor):
            runs = []
            for _ in range(3):
                start = time.perf_counter()
                model = constructor()
                for order in range(3001):
                    model.moment(order)
                runs.append(time.perf_counter() - start)
            return min(runs)

        gamma_cost = cost(lambda: weights.gamma(2, Fraction(1, 2)))
        for constructor in (weights.exponential, weights.log_factorial,
                            weights.gaussian_centered):
            assert cost(constructor) <= 2.0 * gamma_cost, constructor.__name__

    @pytest.mark.parametrize("constructor", [lambda: weights.gamma(Fraction(1, 1000), 1),
                                             weights.exponential, weights.log_factorial],
                             ids=["gamma(1/1000,1)", "exponential", "logfact"])
    def test_moment_prefix_keeps_one_product(self, constructor):
        # orders 0..K asked in ascending order keep only the last product; all
        # K of them would hold O(K^2) bits, 2.4 MiB for K! at K = 2000 and
        # 7.5 MiB for gamma(1/1000,1)
        model = constructor()
        tracemalloc.start()
        try:
            for order in range(2001):
                model.moment(order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_domain_checks(self):
        model = weights.exponential()
        with pytest.raises(DomainError):
            model.egf(1.0)
        with pytest.raises(DomainError):
            model.egf(-0.1)
        with pytest.raises(DomainError):
            model.moment(-1)

    @pytest.mark.parametrize("k", [0, -1, -2])
    def test_check_order_refuses_non_positive_orders(self, k):
        for model in builtin_models():
            with pytest.raises(DomainError, match="^order must be positive$"):
                model.check_order(k)

    @pytest.mark.parametrize("build, message", [
        (lambda: weights.gaussian_centered(0), "gaussian_centered needs v2 > 0"),
        (lambda: weights.gaussian_centered(Fraction(-1, 3)), "gaussian_centered needs v2 > 0"),
        (lambda: weights.gamma(0, 1), "gamma needs m > 0 and theta > 0"),
        (lambda: weights.gamma(2, 0), "gamma needs m > 0 and theta > 0"),
        (lambda: weights.gamma(-1, Fraction(1, 2)), "gamma needs m > 0 and theta > 0"),
    ])
    def test_bad_parameters_refused(self, build, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            build()

    def test_bernoulli_sampler_values_on_a_seeded_stream(self):
        # the sampler scales the integer draws without a cast copy first
        ours, ref = (np.random.Generator(np.random.Philox(key=7)) for _ in range(2))
        got = weights.bernoulli_centered().sample(ours, 10_000)
        want = ref.integers(0, 2, 10_000).astype(np.float64) * 2.0 - 1.0
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
        assert ours.random() == ref.random()

    @pytest.mark.parametrize("spec", ["unit", "exponential", "gamma:2,1/2", "gamma:1/2,1",
                                      "gaussian:1", "bernoulli"])
    @pytest.mark.parametrize("a, b", [(0, 5), (5, 0), (1, 1), (3, 4), (7, 1000), (999, 2)])
    def test_sampler_draws_the_same_bits_in_pieces(self, spec, a, b):
        # graph sampling splits one stream's weights across blocks of edges;
        # odd sizes leave bernoulli's 32-bit half buffered between the pieces
        draw = weights.from_spec(spec).sample
        pieces, whole = (np.random.Generator(np.random.Philox(key=11)) for _ in range(2))
        got = np.concatenate([draw(pieces, a), draw(pieces, b)])
        assert np.array_equal(got, draw(whole, a + b))
        assert repr(pieces.bit_generator.state) == repr(whole.bit_generator.state)

    def test_exponential_sampler_draws_gamma_bits(self):
        # exponential keeps standard_exponential only for speed: gamma(1, 1)
        # draws the same bits, in one call and in pieces
        draws = [weights.exponential().sample, weights.gamma(1, 1).sample]
        for sizes in ((1000,), (1, 499, 500), (7, 0, 993)):
            streams = [np.random.Generator(np.random.Philox(key=5)) for _ in draws]
            got = [np.concatenate([draw(rng, size) for size in sizes])
                   for draw, rng in zip(draws, streams)]
            assert np.array_equal(got[0], got[1])
            assert repr(streams[0].bit_generator.state) == repr(streams[1].bit_generator.state)

    def test_exponential_is_gamma_one_one(self):
        # the exact side, ln V_j and the radius are gamma(1, 1)'s, bit for bit
        exp, gam = weights.exponential(), weights.gamma(1, 1)
        assert exp.radius == gam.radius == 1.0
        assert exp.d1_ratio(30) == gam.d1_ratio(30)
        for j in range(151):
            assert exp.moment(j) == gam.moment(j) == math.factorial(j)
            assert exp.log_weight_moment(j) == gam.log_weight_moment(j) == math.lgamma(j + 1.0)

    @pytest.mark.parametrize("spec, name, touchard", [
        ("unit", "unit", (1, 1)),
        ("gaussian:1/3", "gaussian(1/3)", (Fraction(1, 3), 2)),
        ("gaussian:1e400", "gaussian(inf)", (Fraction(10**400), 2)),
    ])
    def test_touchard_laws(self, spec, name, touchard):
        # V_dj = (a/d!)^j (dj)!/j! on the lattice of step d, and zero off it
        model = weights.from_spec(spec)
        a, d = touchard
        assert (model.name, model.touchard, model.span) == (name, touchard, d)
        step = Fraction(a, math.factorial(d))
        for order in range(41):
            j, off = divmod(order, d)
            want = 0 if off else step**j * math.factorial(order) / math.factorial(j)
            assert model.moment(order) == want

    @pytest.mark.parametrize("spec, name, v2", [
        ("gamma:1e400,1", "gamma(inf,1)", 10**400 * (10**400 + 1)),
        ("gamma:1,1e400", "gamma(1,inf)", 2 * 10**800),
    ])
    def test_gamma_parameters_past_float_range(self, spec, name, v2):
        # the exact side is built from the exact parameters; the floats are inf
        model = weights.from_spec(spec)
        assert (model.name, model.moment(2)) == (name, v2)
        assert model.d1_ratio(3)[0] == (10**400,)

    def test_radius_values(self):
        assert weights.unit().radius == math.inf
        assert weights.gamma(2, Fraction(1, 2)).radius == pytest.approx(2.0)
        assert weights.exponential().radius == 1.0


class TestCustom:
    def test_matches_prefix_and_errors_beyond_horizon(self):
        exp = weights.exponential()
        custom = weights.custom_model([1, 1, 2, 6, 24])
        for j in range(5):
            assert custom.moment(j) == exp.moment(j)
        with pytest.raises(HorizonError):
            custom.moment(5)
        assert custom.truncated

    def test_truncated_egf_is_partial_sum(self):
        custom = weights.custom_model([1, 1, 2])
        u = 0.3
        assert custom.egf(u) == pytest.approx(1 + u + u**2)
        assert custom.egf_d1(u) == pytest.approx(1 + 2 * u)
        assert custom.egf_d2(u) == pytest.approx(2.0)

    def test_moments_past_float_range(self):
        # kept exact, and +-inf with their sign in the EGF's floats
        big = Fraction(10**400)
        for sign in (1, -1):
            custom = weights.custom_model([1, sign * big, 2])
            assert custom.moment(1) == sign * big
            assert custom.egf_d1(0.0) == sign * math.inf

    def test_zero_power_of_an_infinite_moment_adds_nothing(self):
        # V_2 = +-1e400 is +-inf in the floats, and u^2 = 0 at u = 0
        for sign in (1, -1):
            custom = weights.custom_model([1, 2, sign * Fraction(10**400)])
            assert custom.egf_d1(0.0) == 2.0
            assert custom.egf(0.0) == 1.0
            assert float(custom.egf_m1(0.0)) == 0.0
            assert custom.egf_d1(1e-3) == sign * math.inf
            assert custom.egf_d2(0.0) == sign * math.inf
            # element by element on arrays
            got = custom.egf_m1(np.array([0.0, 1e-3]))
            assert np.array_equal(got, [0.0, sign * math.inf])

    def test_requires_unit_zeroth_moment(self):
        with pytest.raises(DomainError):
            weights.custom_model([2, 1])


class TestTildeTransform:
    def test_unit_shape(self):
        tilde = weights.tilde_transform(weights.unit())
        for u in (0.2, 0.7, 1.5):
            assert tilde.egf(u) == pytest.approx(math.exp(u) - u)
        assert tilde.sample is None

    def test_identity_when_already_centered(self):
        g = weights.gaussian_centered(1)
        assert weights.tilde_transform(g) is g

    def test_exponential_pointwise(self):
        tilde = weights.tilde_transform(weights.exponential())
        assert tilde.egf(0.5) == pytest.approx(1.5)

    def test_moment_list(self):
        tilde = weights.tilde_transform(weights.exponential())
        assert tilde.moment(1) == 0
        assert tilde.moment(2) == 2
        assert tilde.moment(3) == 6

    def test_mean_past_float_range_builds(self):
        # the mean is inf in the shift's floats (or_inf), as every float of
        # a law is; its exact side is the base law's but for V_1
        base = weights.from_spec("gamma:1e400,1")
        tilde = weights.tilde_transform(base)
        assert tilde.name == "tilde(gamma(inf,1))"
        assert tilde.moment(1) == 0
        assert [tilde.moment(j) for j in range(2, 6)] == [base.moment(j) for j in range(2, 6)]

    @given(st.integers(1, 15))
    def test_shift_identity_on_grid(self, tenths):
        for model in (weights.exponential(), weights.gamma(3, Fraction(1, 4)), weights.unit()):
            u = min(tenths / 10.0, model.radius * 0.9 if math.isfinite(model.radius) else tenths / 10.0)
            if u <= 0 or u >= model.radius:
                continue
            tilde = weights.tilde_transform(model)
            v1 = float(model.moment(1))
            assert tilde.egf(u) + u * v1 == pytest.approx(model.egf(u), rel=1e-12)


class TestComplexEgf:
    @given(spec=st.sampled_from(BUILTIN_SPECS), frac=st.floats(0.0, 0.999))
    def test_real_axis_matches_egf(self, spec, frac):
        # exact reference; the range stops at 10, where rounding u^2 costs the
        # gaussian form exp(u^2/2) at most u^2 eps / 2 < 1e-14 relative.
        # Below the normal range only an absolute bound is possible.
        model, law = weights.from_spec(spec), reference.Law(spec)
        u = frac * min(model.radius, 10.0)
        exact = law.h(law.point(u=u))[0]
        for value in (model.egf_m1(u), model.egf_m1(np.array([complex(u, 0.0)]))[0]):
            assert value.imag == 0.0
            error = abs(mpmath.mpf(float(value.real)) - exact)
            assert error <= 1e-14 * abs(exact) + sys.float_info.min, (model.name, u)

    @given(model=st.sampled_from(builtin_models()), frac=st.floats(0.0, 0.999),
           angle=st.floats(-math.pi, math.pi))
    def test_conjugate_symmetry(self, model, frac, angle):
        z = np.array([frac * min(model.radius, 5.0) * complex(math.cos(angle), math.sin(angle))])
        value = model.egf_m1(z)[0]
        mirrored = model.egf_m1(z.conj())[0]
        assert abs(mirrored - value.conjugate()) <= 1e-14 * abs(value), model.name

    @given(model=st.sampled_from(builtin_models()), exponent=st.floats(-100.0, -5.0),
           angle=st.floats(-math.pi, math.pi))
    def test_no_cancellation_near_zero(self, model, exponent, angle):
        # H(z) - 1 = sum_j V_j z^j / j!; through j = 4 the series is exact to
        # |z|^3 relative, below 1e-15 here, where 1 + (H(z) - 1) would keep
        # none of the digits of H(z) - 1
        z = 10.0**exponent * complex(math.cos(angle), math.sin(angle))
        series = sum(float(model.moment(j)) * z**j / math.factorial(j) for j in range(1, 5))
        value = model.egf_m1(np.array([z]))[0]
        assert abs(value - series) <= 1e-14 * abs(series), model.name



# custom and tilde models beside the complex H - 1 their definitions give
COMPOSED = [
    (weights.custom_model([1, 1, 2, 6]), lambda z: z + z**2 + z**3),
    (weights.custom_model([1, "1/2", 0, 3]), lambda z: z / 2 + z**3 / 2),
    (weights.tilde_transform(weights.exponential()), lambda z: 1 / (1 - z) - 1 - z),
    (weights.tilde_transform(weights.unit()), lambda z: np.exp(z) - 1 - z),
    (weights.tilde_transform(weights.custom_model([1, 1, 2])), lambda z: z**2),
    (weights.tilde_transform(weights.custom_model([1, "1/2", 0, 3])), lambda z: z**3 / 2),
    (weights.tilde_transform(weights.gamma(2, Fraction(1, 2))),
     lambda z: (1 - z / 2) ** -2 - 1 - z),
    (weights.tilde_transform(weights.gamma(Fraction(1, 2), 1)),
     lambda z: (1 - z) ** -0.5 - 1 - z / 2),
]


class TestComposedEgf:
    @pytest.mark.parametrize("model, definition", COMPOSED, ids=lambda v: getattr(v, "name", ""))
    @given(frac=st.floats(0.05, 0.95), angle=st.floats(-math.pi, math.pi))
    def test_matches_definition(self, model, definition, frac, angle):
        r = frac * min(model.radius, 3.0)
        for z in (r, r * complex(math.cos(angle), math.sin(angle))):
            value, expected = model.egf_m1(np.array([z]))[0], definition(z)
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected)), (model.name, z)
        assert model.egf_m1(r) == pytest.approx(definition(r), rel=1e-12), model.name

    @pytest.mark.parametrize("model, definition", COMPOSED, ids=lambda v: getattr(v, "name", ""))
    @given(frac=st.floats(0.0, 0.95), angle=st.floats(-math.pi, math.pi))
    def test_conjugate_symmetry(self, model, definition, frac, angle):
        z = np.array([frac * min(model.radius, 3.0) * complex(math.cos(angle), math.sin(angle))])
        value, mirrored = model.egf_m1(z)[0], model.egf_m1(z.conj())[0]
        assert abs(mirrored - value.conjugate()) <= 1e-14 * abs(value), model.name


# every family name and alias but custom: (name, constructor, parameter count)
SPEC_FAMILIES = [
    ("unit", weights.unit, 0),
    ("gaussian", weights.gaussian_centered, 1),
    ("normal", weights.gaussian_centered, 1),
    ("gamma", weights.gamma, 2),
    ("bernoulli", weights.bernoulli_centered, 0),
    ("pm1", weights.bernoulli_centered, 0),
    ("exponential", weights.exponential, 0),
    ("logfact", weights.log_factorial, 0),
    ("log_factorial", weights.log_factorial, 0),
]
POSITIVE = st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6)
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
# literals about float range and the int-string limit: decimal exponents,
# long integers (leading zeros included) and ratios of them
LONG_INTEGERS = st.builds(lambda sign, digit, n: sign + digit * n, st.sampled_from(["", "-"]),
                          st.sampled_from("0123456789"), st.integers(1, 6000))
EDGE_EXPONENTS = st.one_of(st.integers(-6000, 6000), st.sampled_from(
    [-LIMIT - 1, -LIMIT, -400, -324, -320, -308, 308, 309, 400, LIMIT - 1, LIMIT]))
EDGE_LITERALS = st.one_of(
    st.builds("{}e{}".format, st.sampled_from(["1", "2.5", "0.3", "7_0", "-1"]), EDGE_EXPONENTS),
    LONG_INTEGERS,
    st.builds("{}/{}".format, LONG_INTEGERS, LONG_INTEGERS.map(lambda text: text.lstrip("-"))),
)


class TestSpecParsing:
    def test_round_trip_names(self):
        assert weights.from_spec("unit").name == "unit"
        assert weights.from_spec("gaussian:1").parity_even_only
        assert weights.from_spec("gaussian:").name == "gaussian(1)"
        assert weights.from_spec("gamma:2,1/2").name == "gamma(2,1/2)"
        assert weights.from_spec("bernoulli").name == "bernoulli"
        assert weights.from_spec("exponential").name == "exponential"
        assert weights.from_spec("logfact").name == "logfact"

    @pytest.mark.parametrize("spec, name", [
        ("gamma:2,1e-300", "gamma(2,1e-300)"),
        ("gamma:1e-300,1", "gamma(1e-300,1)"),
        ("gaussian:0.12345678901234567890123", "gaussian(0.12345678901234568)"),
        ("gaussian:1/3", "gaussian(1/3)"),  # 20 characters or fewer stay exact
        ("gamma:2/3,5/7", "gamma(2/3,5/7)"),
        ("gamma:1234567891/123456789,1", "gamma(1234567891/123456789,1)"),
        ("gamma:12345678911/123456789,1", f"gamma({12345678911 / 123456789!r},1)"),
        ("gamma:1e-400,1", "gamma(1/1" + "0" * 400 + ",1)"),  # no float but 0 is near
    ])
    def test_long_parameters_print_as_floats(self, spec, name):
        assert weights.from_spec(spec).name == name

    def test_custom_from_json(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"moments": [1, "1/2", 1]}')
        model = weights.from_spec(f"custom:{path}")
        assert model.moment(1) == Fraction(1, 2)
        assert model.horizon == 2

    def test_unknown_rejected(self):
        with pytest.raises(DomainError):
            weights.from_spec("cauchy")

    @pytest.mark.parametrize("family, constructor, arity", SPEC_FAMILIES,
                             ids=[f[0] for f in SPEC_FAMILIES])
    @given(params=st.lists(POSITIVE, min_size=2, max_size=2))
    def test_formatted_spec_matches_constructor(self, family, constructor, arity, params):
        params = params[:arity]
        spec = family + (":" + ",".join(map(str, params)) if params else "")
        parsed, direct = weights.from_spec(spec), constructor(*params)
        assert parsed.name == direct.name
        assert [parsed.moment(j) for j in range(9)] == [direct.moment(j) for j in range(9)]

    @pytest.mark.parametrize("family, arity", [(f[0], f[2]) for f in SPEC_FAMILIES if f[2]],
                             ids=[f[0] for f in SPEC_FAMILIES if f[2]])
    @settings(max_examples=200)
    @given(params=st.lists(EDGE_LITERALS, min_size=2, max_size=2))
    def test_edge_parameters_raise_only_spec_errors(self, family, arity, params):
        # a parameter past float range is inf in the floats (or_inf), and a
        # literal past the digit limit a DomainError: no OverflowError escapes
        try:
            weights.from_spec(f"{family}:{','.join(params[:arity])}")
        except DomainError:
            pass

    @settings(max_examples=200)
    @given(values=st.lists(EDGE_LITERALS, max_size=3), quoted=st.booleans())
    def test_edge_custom_moments_raise_only_spec_errors(self, tmp_path_factory, values, quoted):
        path = tmp_path_factory.getbasetemp() / "edge.json"
        path.write_text('{"moments": [1, %s]}' % ", ".join(
            f'"{v}"' if quoted else v for v in values))
        try:
            weights.from_spec(f"custom:{path}")
        except (DomainError, OSError):
            pass

    @pytest.mark.parametrize("text", [
        "7" * LIMIT, "0." + "7" * (LIMIT - 1), f"1e{LIMIT - 1}", f"1e-{LIMIT - 1}",
        "7" * LIMIT + "/" + "3" * LIMIT,
    ], ids=["integer", "decimal", "exponent", "negative-exponent", "ratio"])
    def test_literals_at_the_digit_limit_parse(self, text):
        # one digit more is refused (TestBadInputs' x-long-* rows)
        assert weights.parse_rational(text) == Fraction(text)

    @given(st.one_of(
        st.text(),
        st.builds("{}:{}".format, st.sampled_from([f[0] for f in SPEC_FAMILIES]), st.text()),
    ))
    def test_arbitrary_text_raises_only_spec_errors(self, text):
        try:
            weights.from_spec(text)
        except (DomainError, OSError):
            pass
