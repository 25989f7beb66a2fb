import math
import sys
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from cpmoments import weights
from cpmoments.errors import DomainError, HorizonError


def builtin_models():
    return [
        weights.unit(),
        weights.gaussian_centered(1),
        weights.gamma(2, Fraction(1, 2)),
        weights.bernoulli_centered(),
        weights.exponential(),
        weights.log_factorial(),
    ]


def u_grid(model, points=4):
    top = min(model.radius, 3.0) * 0.9
    return [top * (i + 1) / points for i in range(points)]


SYMBOLIC_EGF = {
    "unit": sympy.exp(sympy.Symbol("u")),
    "gaussian(1)": sympy.exp(sympy.Symbol("u") ** 2 / 2),
    "gamma(2,1/2)": (1 - sympy.Symbol("u") / 2) ** -2,
    "bernoulli": sympy.cosh(sympy.Symbol("u")),
    "exponential": 1 / (1 - sympy.Symbol("u")),
    "logfact": 1 - sympy.log(1 - sympy.Symbol("u")),
}


class TestBuiltins:
    def test_normalization(self):
        for model in builtin_models():
            assert model.moment(0) == 1
            assert model.egf(0.0) == pytest.approx(1.0)

    def test_moments_are_series_derivatives_at_zero(self):
        u = sympy.Symbol("u")
        for model in builtin_models():
            expr = SYMBOLIC_EGF[model.name]
            for order in range(13):
                symbolic = sympy.diff(expr, u, order).subs(u, 0)
                assert model.moment(order) == Fraction(
                    int(sympy.numer(symbolic)), int(sympy.denom(symbolic))
                ), (model.name, order)

    def test_truncated_series_converges_to_closed_form(self):
        for model in builtin_models():
            top = Fraction(9, 10) * min(Fraction(model.radius) if math.isfinite(model.radius) else 3, 3)
            for frac in (Fraction(1, 3), Fraction(2, 3), 1):
                u = top * frac
                series = sum(
                    model.moment(j) * u**j / math.factorial(j) for j in range(300)
                )
                assert float(series) == pytest.approx(model.egf(float(u)), rel=2e-9), model.name

    def test_derivatives_match_finite_differences(self):
        for model in builtin_models():
            for u in u_grid(model, points=3):
                h = 1e-5 * max(1.0, u)
                if u + h >= model.radius:
                    continue
                d1 = (model.egf(u + h) - model.egf(u - h)) / (2 * h)
                assert d1 == pytest.approx(model.egf_d1(u), rel=1e-6), model.name
                d2 = (model.egf_d1(u + h) - model.egf_d1(u - h)) / (2 * h)
                assert d2 == pytest.approx(model.egf_d2(u), rel=1e-6), model.name

    def test_gaussian_double_factorial_moments(self):
        for v2 in (1, Fraction(3, 4)):
            model = weights.gaussian_centered(v2)
            for k in range(1, 9):
                dfact = math.factorial(2 * k) // (2**k * math.factorial(k))
                assert model.moment(2 * k) == Fraction(v2) ** k * dfact
                assert model.moment(2 * k - 1) == 0

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

    @given(st.integers(1, 15))
    def test_shift_identity_on_grid(self, tenths):
        for model in (weights.exponential(), weights.gamma(3, Fraction(1, 4)), weights.unit()):
            u = min(tenths / 10.0, model.radius * 0.9 if math.isfinite(model.radius) else tenths / 10.0)
            if u <= 0 or u >= model.radius:
                continue
            tilde = weights.tilde_transform(model)
            v1 = float(model.moment(1))
            assert tilde.egf(u) + u * v1 == pytest.approx(model.egf(u), rel=1e-12)


SYMBOLIC_EGF_M1 = {
    name: sympy.lambdify(sympy.Symbol("u"), expr - 1, "mpmath")
    for name, expr in SYMBOLIC_EGF.items()
}


def exact_egf_m1(name, u):
    """H(u) - 1 from the sympy closed form to 30 digits: the working precision
    grows with the digits that H(u) - 1 ~ u or u^2 cancels near u = 0."""
    lost = 2 * max(0, -math.floor(math.log10(u))) if u else 0
    with mpmath.workdps(30 + 10 + lost):
        return SYMBOLIC_EGF_M1[name](mpmath.mpf(u))


class TestComplexEgf:
    @given(model=st.sampled_from(builtin_models()), frac=st.floats(0.0, 0.999))
    def test_real_axis_matches_egf(self, model, frac):
        # exact reference; the range stops at 10, where rounding u^2 costs the
        # gaussian form exp(u^2/2) at most u^2 eps / 2 < 1e-14 relative.
        # Below the normal range only an absolute bound is possible.
        u = frac * min(model.radius, 10.0)
        exact = exact_egf_m1(model.name, u)
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

    @given(st.one_of(
        st.text(),
        st.builds("{}:{}".format, st.sampled_from([f[0] for f in SPEC_FAMILIES]), st.text()),
    ))
    def test_arbitrary_text_raises_only_spec_errors(self, text):
        try:
            weights.from_spec(text)
        except (DomainError, OSError):
            pass
