import dataclasses
import math
import sys
from fractions import Fraction

import mpmath
import pytest

from cpmoments import asymptotics as asym
from cpmoments import moments, weights
from cpmoments.errors import DomainError, SaddleError, TruncatedModelError

UNIT = weights.unit()
GAUSS = weights.gaussian_centered(1)
GAMMA = weights.gamma(2, Fraction(1, 2))
BERN = weights.bernoulli_centered()
EXP = weights.exponential()
LOGF = weights.log_factorial()

ALL = [UNIT, GAUSS, GAMMA, BERN, EXP, LOGF]

OMEGA = 0.5671432904097838  # solution of u e^u = 1


def fixed_point_unit_tilt(chi, iterations=200):
    # u <- ln(1 / (chi u)) converges for the unit model when 1/chi > e^-1
    u = 0.5
    for _ in range(iterations):
        u = 0.5 * (u + math.log(1.0 / (chi * u)))
    return u


# H and H' of the six built-ins, for the mpmath reference of the rate
CLOSED_FORMS = {
    "unit": (mpmath.exp, mpmath.exp),
    "gaussian(1)": (lambda u: mpmath.exp(u * u / 2), lambda u: u * mpmath.exp(u * u / 2)),
    "gamma(2,1/2)": (lambda u: (1 - u / 2) ** -2, lambda u: (1 - u / 2) ** -3),
    "bernoulli": (mpmath.cosh, mpmath.sinh),
    "exponential": (lambda u: 1 / (1 - u), lambda u: (1 - u) ** -2),
    "logfact": (lambda u: 1 - mpmath.log(1 - u), lambda u: 1 / (1 - u)),
}


def exact_psi(model, chi):
    """Psi(chi) at 60 digits: the tilt by findroot from the float one, then
    (H - 1)/(u H') - 1 + ln H' with H - 1 keeping 45 digits down to 1e-15."""
    h, h1 = CLOSED_FORMS[model.name]
    with mpmath.workdps(60):
        target = 1 / mpmath.mpf(chi)
        start = mpmath.mpf(asym.solve_saddle(model, chi).u)
        u = mpmath.findroot(lambda v: v * h1(v) - target, start)
        return float((h(u) - 1) / (u * h1(u)) - 1 + mpmath.log(h1(u)))


class TestSolveSaddle:
    def test_unit_matches_fixed_point(self):
        sol = asym.solve_saddle(UNIT, 1.0)
        assert sol.u == pytest.approx(OMEGA, abs=1e-13)
        assert sol.u == pytest.approx(fixed_point_unit_tilt(1.0), abs=1e-10)

    def test_gamma11_closed_form(self):
        for chi in (0.3, 1.0, 4.0):
            sol = asym.solve_saddle(weights.gamma(1, 1), chi)
            closed = (2.0 + chi - math.sqrt(chi * (4.0 + chi))) / 2.0
            assert sol.u == pytest.approx(closed, rel=1e-12)

    def test_residual_bound_over_grid(self):
        for model in ALL:
            for exp10 in range(-3, 7):
                chi = 10.0**exp10
                sol = asym.solve_saddle(model, chi)
                assert sol.residual <= 1e-12 * max(1.0, 1.0 / chi), (model.name, chi)
                assert 0.0 < sol.u < model.radius

    @pytest.mark.parametrize("model", ALL, ids=lambda m: m.name)
    @pytest.mark.parametrize("chi", [1e6, 1e10, 1e14, 1e120, 1e300, 1.7e308])
    def test_relative_residual_at_large_chi(self, model, chi):
        # 1/chi < 1 here: an absolute stop at 1e-15 would leave the tilt of
        # gaussian weights 6.4e-3 off at chi = 1e14
        assert asym.solve_saddle(model, chi).residual <= 1e-15 / chi

    @pytest.mark.parametrize("model, v2", [
        (GAUSS, 1), (weights.gaussian_centered(Fraction(1, 2)), Fraction(1, 2)), (BERN, 1),
    ], ids=["gaussian(1)", "gaussian(1/2)", "bernoulli"])
    @pytest.mark.parametrize("chi", [1e120, 1e300, 1.7e308])
    def test_even_only_tilt_at_huge_chi(self, model, v2, chi):
        # u H'(u) = V_2 u^2 (1 + O(u^2)), so u = (V_2 chi)^(-1/2) to far below eps
        with mpmath.workdps(30):
            expected = float(1 / mpmath.sqrt(mpmath.mpf(v2.numerator) / v2.denominator * chi))
        assert asym.solve_saddle(model, chi).u == pytest.approx(expected, rel=1e-15, abs=0)

    def test_evaluations_bounded_over_chi(self):
        # refusals count too: below chi = 10^(-1226/4) u H''(u) of gaussian(1)
        # overflows left of the root, and the solve took 68 to 72 evaluations
        for model in ALL:
            calls = []
            counted = dataclasses.replace(
                model, _egf_d1=lambda u, d1=model._egf_d1: calls.append(u) or d1(u))
            for quarter in range(-1232, 1233):
                chi = 10.0 ** (quarter / 4)
                calls.clear()
                try:
                    asym.solve_saddle(counted, chi)
                except SaddleError:
                    assert quarter < -24, (model.name, chi)
                assert len(calls) <= 32, (model.name, chi)

    @pytest.mark.parametrize("chi", [1e-308, 10.0 ** (-1227 / 4)])
    def test_curvature_overflow_left_of_root_refused_at_once(self, chi):
        with pytest.raises(SaddleError, match=r"u H''\(u\) of model 'gaussian\(1\)' overflows"):
            asym.solve_saddle(GAUSS, chi)

    @pytest.mark.parametrize("v2", [1e250, 1e300, 1e305])
    def test_bracket_backs_off_in_log_u_past_overflow(self, v2):
        # u H'(u) = v2 u^2 e^(v2 u^2 / 2) overflows at the first guesses;
        # at chi = 1 the root is v2 u^2 = 2 W(1/2)
        with mpmath.workdps(30):
            expected = float(mpmath.sqrt(2 * mpmath.lambertw(mpmath.mpf(1) / 2).real))
        sol = asym.solve_saddle(weights.gaussian_centered(v2), 1.0)
        assert sol.u * math.sqrt(v2) == pytest.approx(expected, rel=1e-14, abs=0)
        assert len(sol.trace) <= 40

    def test_nonpositive_slope_rejected(self):
        # H'(u) = u - 2 vanishes at u = 2, where the Newton iteration lands
        with pytest.raises(SaddleError, match="custom"):
            asym.solve_saddle(weights.custom_model([1, -2, 1]), 1.0)

    def test_large_chi_tilt_scales_like_inverse_first_moment(self):
        chi = 1e6
        for model in (UNIT, GAMMA, EXP, LOGF):
            v1 = float(model.moment(1))
            sol = asym.solve_saddle(model, chi)
            assert sol.u == pytest.approx(1.0 / (chi * v1), rel=1e-3), model.name

    def test_monotone_along_trace(self):
        for model in ALL:
            sol = asym.solve_saddle(model, 0.7)
            seen = sorted(set(sol.trace))
            gs = [g for _, g in seen if math.isfinite(g)]
            assert all(a < b for a, b in zip(gs, gs[1:])), model.name

    def test_rejects_bad_chi(self):
        for chi in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                asym.solve_saddle(UNIT, chi)

    def test_rejects_chi_whose_inverse_overflows(self):
        # 1/chi = inf would pass the stop test inf <= inf at the first point
        for chi in (1e-320, 5e-324, 0.99 / sys.float_info.max):
            with pytest.raises(DomainError, match="out of reach: 1/chi overflows$"):
                asym.solve_saddle(UNIT, chi)
        assert asym.solve_saddle(UNIT, 1.01 / sys.float_info.max).residual < math.inf


class TestRateFunction:
    def test_unit_alternative_expression(self):
        # (H-1)/(uH') - 1 + ln H' with H = e^u collapses to u - 1 + 1/u - 1/(u e^u)
        for chi in (0.5, 1.0, 2.0):
            rv = asym.rate_function(UNIT, chi)
            u = rv.saddle.u
            alt = u - 1.0 + 1.0 / u - 1.0 / (u * math.exp(u))
            assert rv.psi == pytest.approx(alt, abs=1e-12)

    def test_large_chi_limit_is_log_first_moment(self):
        for model in (UNIT, GAMMA, EXP, LOGF):
            rv = asym.rate_function(model, 1e6)
            assert rv.psi == pytest.approx(math.log(float(model.moment(1))), abs=1e-4)

    def test_prefactor_in_unit_interval(self):
        for model in ALL:
            for chi in (1e-3, 0.1, 1.0, 10.0, 1e3, 1e6):
                rv = asym.rate_function(model, chi)
                assert 0.0 < rv.prefactor <= 1.0

    def test_prefactor_limits_at_large_chi(self):
        # -> 1 when V_1 > 0; -> 1/sqrt(2) for centered (even-only) sequences
        for model in (UNIT, GAMMA, EXP, LOGF):
            assert asym.rate_function(model, 1e6).prefactor == pytest.approx(1.0, abs=1e-3)
        for model in (GAUSS, BERN):
            assert asym.rate_function(model, 1e6).prefactor == pytest.approx(
                1.0 / math.sqrt(2.0), abs=1e-3
            )

    @pytest.mark.parametrize("model", ALL, ids=lambda m: m.name)
    @pytest.mark.parametrize("chi", [0.25, 1.0, 4.0, 1e6, 1e10, 1e14])
    def test_psi_matches_mpmath(self, model, chi):
        # at large chi, H(u) - 1 ~ 1/chi; formed as H(u) - 1.0 it would carry
        # chi eps of error into psi (-8e-4 for unit weights at 1e14, not 5e-15)
        assert abs(asym.rate_function(model, chi).psi - exact_psi(model, chi)) <= 2e-15

    def test_rejects_truncated_models(self):
        with pytest.raises(TruncatedModelError):
            asym.rate_function(weights.custom_model([1, 1, 2, 6]), 1.0)

    def test_gamma_exponent_equals_closed_form_at_matched_tilt(self):
        # (H-1)/(uH') for gamma weights collapses to (1-tu)(1-(1-tu)^m)/(m t u)
        m, theta = 2.0, 0.5
        for chi in (0.4, 1.3, 5.0):
            rv = asym.rate_function(GAMMA, chi)
            u = rv.saddle.u
            tu = 1.0 - theta * u
            closed = tu * (1.0 - tu**m) / (m * theta * u)
            generic = rv.saddle.excess / (u * rv.saddle.H1_u)
            assert generic == pytest.approx(closed, abs=1e-10)


class TestRateConvergence:
    def test_normalized_log_moments_approach_psi(self):
        ladders = {False: [25, 50, 100, 200], True: [26, 50, 100, 200]}
        for model in (UNIT, GAMMA, EXP, LOGF, GAUSS, BERN):
            for chi in (0.5, 1.0, 2.0):
                rv = asym.rate_function(model, chi)
                gaps = []
                for k in ladders[model.parity_even_only]:
                    x = chi * k
                    lg = moments.log_moment(model, k, x)
                    gaps.append(abs(lg / k - math.log(x) - rv.psi))
                assert all(a > b for a, b in zip(gaps, gaps[1:])), (model.name, chi, gaps)
                assert gaps[-1] < 0.05


class TestRefinedPrediction:
    def test_unit_and_gamma11_within_five_percent_at_200(self):
        for model in (UNIT, weights.gamma(1, 1)):
            exact = moments.log_moment(model, 200, 200.0)
            pred = asym.refined_prediction(model, 200, 1.0)
            assert abs(math.expm1(exact - pred)) < 0.05, model.name

    def test_bernoulli_within_ten_percent_at_200(self):
        exact = moments.log_moment(BERN, 200, 200.0)
        pred = asym.refined_prediction(BERN, 200, 1.0)
        assert abs(math.expm1(exact - pred)) < 0.10

    def test_log_prediction_normalizes_to_rate(self):
        chi = 1.5
        rv = asym.rate_function(EXP, chi)
        for k in (100, 400):
            pred = asym.refined_prediction(EXP, k, chi)
            assert pred / k - math.log(chi * k) == pytest.approx(rv.psi, abs=0.01)

    def test_parity_rejects_odd_orders(self):
        with pytest.raises(DomainError):
            asym.refined_prediction(BERN, 101, 1.0)

    def test_tracks_exact_moments_at_large_intensity(self):
        # V_1 > 0 and V_1 = 0 limits of the saddle, at chi = 1e2 .. 1e4
        k = 20
        for model in (EXP, BERN):
            for x in (1e2 * k, 1e3 * k, 1e4 * k):
                exact = moments.log_moment(model, k, x)
                pred = asym.refined_prediction(model, k, x / k)
                assert abs(math.expm1(exact - pred)) < 0.01, (model.name, x)

    def test_bernoulli_error_falls_with_order_at_unit_intensity(self):
        # x = 1 fixed, so chi = 1/k -> 0: the small-intensity end of the saddle
        errors = []
        for k in (40, 80, 160, 320):
            exact = moments.log_moment(BERN, k, 1.0)
            errors.append(abs(exact - asym.refined_prediction(BERN, k, 1.0 / k)))
        assert errors[0] < 0.01
        assert all(a > b for a, b in zip(errors, errors[1:])), errors

    def test_rate_value_carries_the_prediction(self):
        for model, chi in ((EXP, 1.5), (BERN, 0.7), (GAMMA, 1e6)):
            rv = asym.rate_function(model, chi)
            for k in (2, 40, 400):
                assert rv.log_refined(k) == asym.refined_prediction(model, k, chi)


class TestLargeIntensityLimit:
    """As chi -> inf, Psi(chi) tends to ln V_1 when V_1 > 0 (M_k ~ (x V_1)^k)
    and to (1/2) ln(V_2 / (e chi)) when V_1 = 0 (M_k ~ (x k V_2 / e)^(k/2)),
    with a gap of c / chi."""

    @pytest.mark.parametrize("model", ALL, ids=lambda m: m.name)
    def test_gap_falls_as_one_over_chi(self, model):
        v1, v2, v4 = (float(model.moment(j)) for j in (1, 2, 4))
        scaled = []
        for chi in (1e2, 1e4, 1e6):
            psi = asym.rate_function(model, chi).psi
            limit = math.log(v1) if v1 > 0 else 0.5 * math.log(v2 / (math.e * chi))
            scaled.append(chi * (psi - limit))
        assert all(abs(c / scaled[0] - 1.0) < 0.01 for c in scaled), scaled
        # the expansion in u at the small tilt: c = V_2 / (2 V_1^2) when
        # V_1 > 0, else V_4 / (24 V_2^2)
        c = v2 / (2.0 * v1 * v1) if v1 > 0 else v4 / (24.0 * v2 * v2)
        assert scaled[-1] == pytest.approx(c, rel=1e-5)


class TestSpecialCaseAgreement:
    def test_closed_forms_match_generic_saddle(self):
        cases = [
            ("gamma", GAMMA, 200, 200.0, {"m": 2, "theta": 0.5}),
            ("gamma", weights.gamma(1, 1), 150, 300.0, {"m": 1, "theta": 1}),
            ("bernoulli", BERN, 200, 200.0, {}),
            ("exponential", EXP, 200, 200.0, {}),
            ("exponential", EXP, 300, 120.0, {}),
            ("logfact", LOGF, 200, 500.0, {}),
        ]
        for case, model, k, x, params in cases:
            generic = asym.refined_prediction(model, k, x / k)
            special = asym.special_case_prediction(case, k, x, **params)
            assert abs(special - generic) <= 1e-8, (case, k, x)

    def test_gaussian_closed_form_prefactor_discrepancy(self):
        # The classical normal-weight prefactor carries an extra sqrt(x)
        # relative to the generic one; the k-th power part agrees.  Document
        # the exact offset so any transcription change is caught.
        for k, x in ((200, 200.0), (400, 100.0)):
            generic = asym.refined_prediction(GAUSS, k, x / k)
            special = asym.gaussian_moment_prediction(k, x, 1.0)
            assert special - generic == pytest.approx(0.5 * math.log(x), abs=1e-8)

    def test_gaussian_beta_solves_lambert_equation(self):
        # x = khalf means beta e^beta = 1, same tilt as the unit model at chi 1
        beta = asym.solve_saddle(UNIT, 1.0).u
        assert beta == pytest.approx(OMEGA, abs=1e-12)

    def test_exponential_sum_prediction_tracks_exact(self):
        k, x = 300, 300.0
        s_exact = moments.exp_identity_sum(k, Fraction(300))
        log_exact = math.log(s_exact.numerator) - math.log(s_exact.denominator)
        pred = asym.exponential_sum_prediction(k, x)
        assert abs(math.expm1(log_exact - pred)) < 0.02

    def test_logfact_sum_prediction_tracks_exact(self):
        k, x = 500, 500.0
        t_exact = moments.factorial_identity_rising(k, Fraction(500))
        log_exact = math.log(t_exact.numerator) - math.log(t_exact.denominator)
        pred = asym.logfact_sum_prediction(k, x)
        assert abs(math.expm1(log_exact - pred)) < 0.01

    def test_unknown_case_rejected(self):
        with pytest.raises(DomainError):
            asym.special_case_prediction("uniform", 10, 10.0)


# closed form at order k -> whether its family lives on even orders; each
# refuses the orders its family's model refuses, through its check_order
CLOSED_FORM_ORDERS = {
    "gaussian": (lambda k: asym.gaussian_moment_prediction(k, 10.0), True),
    "gamma": (lambda k: asym.gamma_moment_prediction(k, 10.0, 2, 0.5), False),
    "bernoulli": (lambda k: asym.bernoulli_moment_prediction(k, 10.0), True),
    "exponential_sum": (lambda k: asym.exponential_sum_prediction(k, 10.0), False),
    "logfact_sum": (lambda k: asym.logfact_sum_prediction(k, 10.0), False),
    "exponential": (lambda k: asym.exponential_moment_prediction(k, 10.0), False),
    "logfact": (lambda k: asym.logfact_moment_prediction(k, 10.0), False),
}


class TestClosedFormOrders:
    @pytest.mark.parametrize("name", CLOSED_FORM_ORDERS)
    @pytest.mark.parametrize("k", [0, -2])
    def test_non_positive_order_refused(self, name, k):
        form, _ = CLOSED_FORM_ORDERS[name]
        with pytest.raises(DomainError, match="^order must be positive$"):
            form(k)

    @pytest.mark.parametrize("name", CLOSED_FORM_ORDERS)
    def test_odd_order_refused_on_even_only_families(self, name):
        form, even_only = CLOSED_FORM_ORDERS[name]
        if even_only:
            with pytest.raises(DomainError, match="lives on even orders; 11 is odd$"):
                form(11)
        else:
            assert math.isfinite(form(11))
        assert math.isfinite(form(12))

    def test_gaussian_variance_checked_by_its_model(self):
        for v2 in (0, -1.0):
            with pytest.raises(DomainError, match="gaussian_centered needs v2 > 0"):
                asym.gaussian_moment_prediction(10, 5.0, v2)

    def test_gamma_parameters_checked_by_its_model(self):
        with pytest.raises(DomainError, match="gamma needs m > 0 and theta > 0"):
            asym.gamma_moment_prediction(10, 5.0, 2, 0)

    def test_gaussian_special_case_dispatch(self):
        for v2 in (1.0, 2.5):
            assert asym.special_case_prediction("gaussian", 40, 30.0, v2=v2) == (
                asym.gaussian_moment_prediction(40, 30.0, v2=v2)
            )
        assert asym.special_case_prediction("gaussian", 40, 30.0) == (
            asym.gaussian_moment_prediction(40, 30.0)
        )
