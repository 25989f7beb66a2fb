import dataclasses
import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cpmoments import auxdist, moments, weights
from cpmoments.asymptotics import refined_prediction, solve_saddle
from cpmoments.errors import DomainError

UNIT = weights.unit()
GAUSS = weights.gaussian_centered(1)
GAMMA = weights.gamma(2, Fraction(1, 2))
BERN = weights.bernoulli_centered()
EXP = weights.exponential()
LOGF = weights.log_factorial()


def grid():
    for model in (UNIT, GAUSS, GAMMA, BERN, EXP, LOGF):
        top = min(model.radius, 2.5)
        for u in (0.3 * top, 0.6 * top):
            for x in (1.0, 10.0):
                yield model, x, u


class TestConstruction:
    def test_mass_mean_variance_invariants(self):
        for model, x, u in grid():
            aux = auxdist.build_aux(model, x, u)
            js = np.arange(aux.support_cap + 1)
            p = np.exp(aux.log_pmf)
            mass = p.sum()
            assert 1.0 - 1e-10 <= mass <= 1.0 + 1e-12, (model.name, x, u)
            emp_mean = float((js * p).sum() / mass)
            assert emp_mean == pytest.approx(aux.mean, rel=1e-9), (model.name, x, u)
            emp_var = float(((js - aux.mean) ** 2 * p).sum() / mass)
            assert emp_var == pytest.approx(aux.variance, rel=1e-8), (model.name, x, u)

    def test_normalizer_closed_form(self):
        aux = auxdist.build_aux(UNIT, 2.0, 0.5)
        assert aux.log_G == pytest.approx(2.0 * (math.exp(0.5) - 1.0))

    def test_mean_at_matched_tilt_is_one(self):
        u = solve_saddle(UNIT, 1.0).u
        aux = auxdist.build_aux(UNIT, 1.0, u)
        assert aux.mean == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_mean_formula(self):
        x, u = 5.0, 0.8
        aux = auxdist.build_aux(GAUSS, x, u)
        assert aux.mean == pytest.approx(x * u * u * math.exp(u * u / 2.0))

    def test_parity_support_is_even(self):
        aux = auxdist.build_aux(BERN, 4.0, 1.0)
        assert aux.model.span == 2
        for j, lp in enumerate(aux.log_pmf):
            assert (lp == -math.inf) == bool(j % 2), j
        support = [j for j, lp in enumerate(aux.log_pmf) if lp > -math.inf]
        assert support == list(range(0, aux.support_cap + 1, 2))

    def test_pmf_accessors(self):
        aux = auxdist.build_aux(UNIT, 1.0, 0.5)
        assert aux.pmf(0) == pytest.approx(math.exp(aux.log_pmf[0]))
        assert aux.pmf(aux.support_cap + 5) == 0.0
        assert sum(map(aux.pmf, range(aux.support_cap + 1))) == pytest.approx(1.0, abs=1e-10)

    def test_local_limit_ratio_past_the_support(self):
        aux = auxdist.build_aux(UNIT, 1.0, 0.5)
        with pytest.raises(DomainError, match="saddle order fell outside the retained support"):
            aux.local_limit_ratio(aux.support_cap + 1)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            auxdist.build_aux(UNIT, -1.0, 0.5)
        with pytest.raises(DomainError):
            auxdist.build_aux(EXP, 1.0, 1.0)
        with pytest.raises(DomainError):
            auxdist.build_aux(EXP, 1.0, 0.0)


# the chi = 3 saddles, whose summed mass rounding leaves short of 1 - 1e-12,
# and the geometric tails at chi = 1e-2, far beyond 12 sigma of the mean
SADDLE_CASES = [(UNIT, 3.0, 400), (GAMMA, 3.0, 400), (EXP, 3.0, 1000), (GAMMA, 3.0, 9000),
                (EXP, 1e-2, 10), (LOGF, 1e-2, 10)]
LN_TOL = math.log(1e-12)


def mass_cases():
    cases = [pytest.param(model, x, u, id=f"{model.name}-{x}-{u:.3g}") for model, x, u in grid()]
    for model, chi, k in SADDLE_CASES:
        u = solve_saddle(model, chi).u
        cases.append(pytest.param(model, chi * k, u, id=f"{model.name}-chi{chi}-k{k}"))
    return cases


def recurrence_log_pmf(model, x, u, n):
    """ln P(Z = j), j = 0 .. n, of the tilted law by one log recurrence."""
    js = np.arange(n + 1)
    lgf = np.array([math.lgamma(j + 1.0) for j in js])
    log_g = x * float(model.egf_m1(u))
    return moments.log_moment_sequence(model, n, x) + js * math.log(u) - lgf - log_g


@functools.lru_cache(maxsize=None)
def tail_masses(model, x, u):
    """Mass of the tilted law beyond each j = 0 .. 2 reach, summed from the far
    end of one log recurrence run to twice build_aux's reach, so no rounding
    of the bulk enters it; by the Chernoff bound at the reach, the mass
    beyond 2 reach is below 1e-12 e^(-t reach) for some t > 0."""
    p = np.exp(recurrence_log_pmf(model, x, u, 2 * auxdist.tail_reach(model, x, u, LN_TOL)))
    return np.append(np.cumsum(p[::-1])[::-1][1:], 0.0)


class TestSupportRounding:
    @pytest.mark.parametrize("model, k", [(UNIT, 400), (GAMMA, 400), (EXP, 1000)],
                             ids=["unit", "gamma", "exponential"])
    def test_first_support_holds_the_mass(self, model, k):
        # rounding leaves the summed mass short of 1 - 1e-12; the support used
        # to double until the work bound refused the run
        chi = 3.0
        u = solve_saddle(model, chi).u
        aux = auxdist.build_aux(model, chi * k, u)
        assert aux.support_cap <= auxdist.tail_reach(model, chi * k, u, LN_TOL)
        assert abs(np.exp(aux.log_pmf).sum() - 1.0) <= 1e-9
        assert abs(aux.local_limit_ratio(k) - 1.0) < 0.02
        if model is EXP:
            # the exact path at k = 1000 takes 20 s; M_k = k! L_k^(-1)(-x) instead
            with mpmath.workdps(30):
                ref = mpmath.log(mpmath.factorial(k) * mpmath.laguerre(k, -1, -chi * k))
            delta = (math.lgamma(k + 1.0) + aux.log_G - k * math.log(u) + aux.log_pmf[k]
                     - float(ref))
            assert abs(math.expm1(delta)) <= 1e-9
        else:
            assert auxdist.inversion_check(aux, k) <= 1e-9

    def test_high_order_support_holds_the_mass(self):
        # at k = 9000 the recurrence's rounding moves the summed mass by 2.7e-9
        k, chi = 9000, 3.0
        u = solve_saddle(GAMMA, chi).u
        aux = auxdist.build_aux(GAMMA, chi * k, u)
        assert aux.support_cap <= auxdist.tail_reach(GAMMA, chi * k, u, LN_TOL)
        assert abs(np.exp(aux.log_pmf).sum() - 1.0) <= 1e-8

    @pytest.mark.parametrize("model", [EXP, LOGF], ids=lambda m: m.name)
    def test_geometric_tail_reached_in_one_run(self, model):
        # chi = 1e-2, k = 10: the tail is geometric, (u/u0)^j, and the mass
        # reaches 1 - 1e-12 far beyond mean + 12 sigma
        u = solve_saddle(model, 1e-2).u
        aux = auxdist.build_aux(model, 0.1, u)
        assert aux.support_cap > aux.mean + 12.0 * aux.sigma + 64
        assert np.exp(aux.log_pmf).sum() >= 1.0 - 1e-12

    @pytest.mark.parametrize("model, x, u", mass_cases())
    def test_mass_beyond_support_cap_is_below_tolerance(self, model, x, u):
        aux = auxdist.build_aux(model, x, u)
        assert tail_masses(model, x, u)[aux.support_cap] <= 1e-12

    @pytest.mark.parametrize("model, x, u", mass_cases())
    def test_reach_is_close_to_the_support_needed(self, model, x, u):
        # the smallest support holding 1 - 1e-12 of the mass, from the tail sums
        needed = int(np.argmax(tail_masses(model, x, u) <= 1e-12))
        assert auxdist.tail_reach(model, x, u, LN_TOL) <= 1.4 * needed + 16

    @pytest.mark.parametrize("model, x, u", mass_cases())
    def test_no_log_recurrence_per_build(self, model, x, u, monkeypatch):
        calls = []
        original = moments.log_moment_sequence

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(moments, "log_moment_sequence", counted)
        auxdist.build_aux(model, x, u)
        assert calls == []


POISSON = weights.custom_model([1, 1])  # H(u) = 1 + u: Z is Poisson(x u)
# every Chernoff bound nan: no tilt bounds the reach
BLIND = dataclasses.replace(EXP, egf_m1=lambda z: np.full(np.shape(z), np.nan))


class TestTailReach:
    @pytest.mark.parametrize("lam", [1e-3, 0.5, 30.0, 2000.0])
    @pytest.mark.parametrize("log_tol", [LN_TOL, -40.0])
    def test_poisson_tail_bounded_and_close(self, lam, log_tol):
        reach = auxdist.tail_reach(POISSON, lam, 1.0, log_tol)
        js = np.arange(4 * reach + 64)
        log_pmf = js * math.log(lam) - lam - np.array([math.lgamma(j + 1.0) for j in js])
        tail = np.cumsum(np.exp(log_pmf)[::-1])[::-1]  # tail[c] = P(Z >= c)
        assert tail[reach] <= math.exp(log_tol)
        needed = int(np.argmax(tail <= math.exp(log_tol)))
        assert reach <= 1.4 * needed + 16

    @pytest.mark.parametrize("model, x, u", [(EXP, 1e-300, 1 - 1e-12), (LOGF, 1e-20, 1 - 1e-8)],
                             ids=["exponential", "logfact"])
    def test_mass_at_zero_leaves_the_bound(self, model, x, u):
        # P(Z >= 1) = 1 - exp(-x (H(u) - 1)) is far below 1e-12, but e^-t
        # stays above 1 - 1e-12 for every tilt short of the radius: with the
        # mass at zero in the bound, the reach would be 27.6 / ln(u0/u)
        assert auxdist.tail_reach(model, x, u, LN_TOL) == 1
        assert auxdist.build_aux(model, x, u).support_cap == 0

    def test_reach_exceeds_the_mean(self):
        for model, x, u in grid():
            mean = x * u * model.egf_d1(u)
            assert auxdist.tail_reach(model, x, u, -40.0) > mean, (model.name, x, u)

    def test_no_finite_tilt_is_refused_by_the_bounds(self):
        # every bound nan: the reach is unbounded, and both of its users refuse
        # it through the node bound
        assert auxdist.tail_reach(BLIND, 1.0, 0.5, LN_TOL) == math.inf
        with pytest.raises(DomainError, match="reaches order inf, past 262144 transform points"):
            auxdist.build_aux(BLIND, 1.0, 0.5)
        saddle = solve_saddle(EXP, 1.0)
        assert auxdist.ray_nodes(BLIND, saddle, 10) > auxdist._MAX_NODES

    def test_unbounded_window_fits_no_band(self):
        # an infinite window moves the band's target to 0 in one step, below
        # the first order, and the band reader is told that no window fits
        table = auxdist._chernoff(BLIND, 1.0, 0.5)
        assert auxdist._window(BLIND, 1.0, 0.5, table, 0.5, 3.0, 3, auxdist._MAX_NODES) is None

    @pytest.mark.parametrize("lam", [1e-3, 0.5, 30.0, 2000.0])
    @pytest.mark.parametrize("log_tol", [LN_TOL, -50.0])
    def test_poisson_floor_bounded_and_close(self, lam, log_tol):
        floor = auxdist._reaches(auxdist._chernoff(POISSON, lam, 1.0), log_tol)[0]
        js = np.arange(1, int(lam + 20 * math.sqrt(lam)) + 64)
        log_pmf = js * math.log(lam) - lam - np.array([math.lgamma(j + 1.0) for j in js])
        head = np.cumsum(np.exp(log_pmf))  # head[c - 1] = P(1 <= Z <= c)
        assert floor == 0 or head[floor - 1] <= math.exp(log_tol)
        # the largest c the exact law allows, from below
        allowed = int(np.argmax(head > math.exp(log_tol)))
        assert floor >= 0.9 * allowed - 16


class TestBands:
    """The banded transforms against the log recurrence, at every order whose
    point mass is above 1e-300."""

    @staticmethod
    def cases():
        for model, x, u in grid():
            yield pytest.param(model, x, u, id=f"{model.name}-{x}-{u:.3g}")
        for model in (UNIT, GAUSS, GAMMA, BERN, EXP, LOGF):
            for chi in (1e-3, 1e-2, 0.5, 1.0, 3.0, 1e4, 1e6):
                u = solve_saddle(model, chi).u
                for k in (10, 100, 1000):
                    yield pytest.param(model, chi * k, u, id=f"{model.name}-chi{chi}-k{k}")

    @pytest.mark.parametrize("model, x, u", cases())
    def test_matches_log_recurrence(self, model, x, u):
        aux = auxdist.build_aux(model, x, u)
        n = min(aux.support_cap, 4000)  # the recurrence is quadratic in n
        ref = recurrence_log_pmf(model, x, u, n)
        assert np.array_equal(ref == -math.inf, aux.log_pmf[: n + 1] == -math.inf)
        held = ref > math.log(1e-300)
        assert np.abs(np.expm1(aux.log_pmf[: n + 1][held] - ref[held])).max() <= 1e-9

    def test_long_geometric_tail_matches_log_recurrence(self):
        # logfact at chi = 1e-3, k = 10: P(Z = j) ~ x u^j / j out to order 20036;
        # a band of 2^18 points that holds the top orders must tilt so low that
        # they fall below its rounding, so they are read by a longer band
        u = solve_saddle(LOGF, 1e-3).u
        aux = auxdist.build_aux(LOGF, 0.01, u)
        assert aux.support_cap > 20000
        ref = recurrence_log_pmf(LOGF, 0.01, u, aux.support_cap)
        assert np.abs(np.expm1(aux.log_pmf - ref)).max() <= 1e-9

    def test_tail_past_every_band_is_refused(self):
        # logfact at chi = 1e-4, k = 1 reaches order 211945; no band of up to
        # 2^21 points reads its top orders, and the law is refused in one line
        u = solve_saddle(LOGF, 1e-4).u
        with pytest.raises(DomainError, match=r"P\(Z = \d+\) is lost to rounding in every band"
                           r" of up to 2097152 points"):
            auxdist.build_aux(LOGF, 1e-4, u)

    @pytest.mark.parametrize("x, u", [(400.0, solve_saddle(UNIT, 1.0).u), (1e5, 0.5)],
                             ids=["ray-k400", "x1e5"])
    def test_one_chernoff_table_at_u_per_law(self, x, u, monkeypatch):
        # the reach and every band's centre tilt are read off one table at u;
        # each band's own tilt v != u has a table of its own
        tilts = []
        original = auxdist._chernoff

        def counted(model, x, v):
            tilts.append(v)
            return original(model, x, v)

        monkeypatch.setattr(auxdist, "_chernoff", counted)
        auxdist.build_aux(UNIT, x, u)
        assert tilts.count(u) == 1

    def test_negative_point_mass_is_refused(self):
        # H(u) - 1 = u - u^2/2, a signed moment sequence: at x = 1/2 the pgf
        # exp(x (H(us) - H(u))) has s^2 coefficient x (x - 1) u^2 / 2 < 0
        signed = dataclasses.replace(UNIT, name="signed", egf_m1=lambda z: z - z * z / 2.0,
                                     _egf_d1=lambda u: 1.0 - u, _egf_d2=lambda u: -1.0)
        with pytest.raises(DomainError, match=r"has P\(Z = 2\) = -.*below minus its rounding"):
            auxdist.build_aux(signed, 0.5, 0.5)


class TestInversionIdentity:
    def test_spot_examples(self):
        assert auxdist.inversion_check(auxdist.build_aux(UNIT, 1.0, 0.5), 5) <= 1e-9
        aux = auxdist.build_aux(GAMMA, 10.0, 0.9)
        assert auxdist.inversion_check(aux, 12) <= 1e-9

    def test_twenty_point_grid(self):
        for model, x, u in grid():
            aux = auxdist.build_aux(model, x, u)
            for k in (4, 12):
                if model.parity_even_only and k % 2:
                    k += 1
                if aux.log_pmf[k] == -math.inf:
                    continue
                assert auxdist.inversion_check(aux, k) <= 1e-9, (model.name, x, u, k)

    def test_out_of_support_rejected(self):
        aux = auxdist.build_aux(BERN, 4.0, 1.0)
        with pytest.raises(DomainError):
            auxdist.inversion_check(aux, 3)  # odd order has no mass


class TestLocalLimit:
    def test_unit_ladder_approaches_one(self):
        rs = [auxdist.local_limit_check(UNIT, 1.0, k) for k in (50, 100, 200, 400)]
        gaps = [abs(r - 1.0) for r in rs]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.02

    def test_bernoulli_even_ladder(self):
        rs = [auxdist.local_limit_check(BERN, 1.0, k) for k in (50, 100, 200)]
        gaps = [abs(r - 1.0) for r in rs]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_bernoulli_small_intensity_regime(self):
        # unit intensity far below the order: convergence is slow, so only
        # the monotone trend is asserted
        gaps = []
        for order in (20, 40, 80):
            r = auxdist.local_limit_check(BERN, 1.0 / order, order)
            gaps.append(abs(r - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_order_past_float_range_refused(self):
        # x = chi k comes from ray_tilt, as for aux --llt-chi
        for reject in (auxdist.local_limit_check, auxdist.ray_tilt):
            with pytest.raises(DomainError) as err:
                reject(UNIT, 1.0, 10**400)
            assert str(err.value) == f"intensity chi k = 1.0 * {10**400} overflows"

    def test_ray_tilt_is_the_saddle_at_chi_k(self):
        assert auxdist.ray_tilt(GAMMA, 3.0, 400) == (1200.0, solve_saddle(GAMMA, 3.0).u)
        # the order and chi k are checked before the saddle, which chi = 1e-320
        # does not have
        for k, message in ((0, "order must be positive"),
                           (10**400, f"intensity chi k = 1e-320 * {10**400} overflows")):
            with pytest.raises(DomainError) as err:
                auxdist.ray_tilt(UNIT, 1e-320, k)
            assert str(err.value) == message

    def test_odd_order_rejected_for_parity_models(self):
        # every entry point of the asymptotics applies the model's one lattice rule
        aux = auxdist.build_aux(BERN, 41.0, solve_saddle(BERN, 1.0).u)
        for reject in (lambda: refined_prediction(BERN, 41, 1.0),
                       lambda: auxdist.local_limit_check(BERN, 1.0, 41),
                       lambda: auxdist.ray_tilt(BERN, 1.0, 41),
                       lambda: aux.local_limit_ratio(41)):
            with pytest.raises(DomainError) as err:
                reject()
            assert str(err.value) == "model 'bernoulli' lives on even orders; 41 is odd"

    def test_window_matches_normal_density(self):
        # +-3 sigma window at order 200: sup |pmf - normal| stays within 10%
        # of the density peak
        k = 200
        u = solve_saddle(UNIT, 1.0).u
        aux = auxdist.build_aux(UNIT, float(k), u)
        js = np.arange(aux.support_cap + 1)
        window = (js >= aux.mean - 3 * aux.sigma) & (js <= aux.mean + 3 * aux.sigma)
        p = np.exp(aux.log_pmf[window])
        z = (js[window] - aux.mean) / aux.sigma
        normal = np.exp(-0.5 * z * z) / (math.sqrt(2 * math.pi) * aux.sigma)
        assert np.max(np.abs(p - normal)) / normal.max() <= 0.10


class TestAgainstExactMoments:
    def test_pmf_reproduces_exact_ratios(self):
        # p_j / p_0 = M_j(x) u^j / j!, checked against exact rationals
        model, x, u = EXP, 2.0, 0.4
        aux = auxdist.build_aux(model, x, u)
        ms = moments.moment_sequence(model, 10, Fraction(2))
        for j in range(1, 11):
            expected = float(ms[j]) * u**j / math.factorial(j)
            got = math.exp(aux.log_pmf[j] - aux.log_pmf[0])
            assert got == pytest.approx(expected, rel=1e-9)


BUILTINS = (UNIT, GAUSS, GAMMA, BERN, EXP, LOGF)


def ray_orders(model):
    """Orders 1..10 and every 50th up to 200, on the model's lattice."""
    return [k for k in [*range(1, 11), 50, 100, 150, 200] if k % model.span == 0]


class TestLogMomentsOnRay:
    @pytest.mark.parametrize("model", BUILTINS, ids=lambda m: m.name)
    @pytest.mark.parametrize("chi", [0.25, 1.0, 4.0, 1e6, 1e10, 1e14])
    def test_matches_exact_rationals(self, model, chi):
        # at large chi, H(u) - 1 ~ 1/chi: a node value formed as H - 1 would
        # cost ln M_k about chi k eps; the bound is absolute, widened only to
        # the few ulps a float holds of ln M_200 ~ 7500 at chi = 1e14
        orders = ray_orders(model)
        got = auxdist.log_moments_on_ray(model, solve_saddle(model, chi), orders)
        for k, value in zip(orders, got):
            exact = weights.log_rational(moments.moment_sequence(model, k, Fraction(chi * k))[k])
            assert abs(value - exact) <= max(1e-12, 4 * math.ulp(exact)), (k, value)

    @pytest.mark.parametrize("model", BUILTINS, ids=lambda m: m.name)
    def test_order_2000_against_log_recurrence(self, model):
        chi, k = 1.0, 2000
        got = auxdist.log_moments_on_ray(model, solve_saddle(model, chi), [k])[0]
        ref = moments.log_moment_sequence(model, k, chi * k)[k]
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("model, chi", [
        (EXP, 1e-3), (EXP, 1e-6), (GAMMA, 1e-3), (GAMMA, 1e-6), (LOGF, 1e-3),
    ], ids=lambda v: getattr(v, "name", v))
    @pytest.mark.parametrize("k", [1, 10, 200])
    def test_doubling_nodes_moves_nothing(self, model, chi, k):
        # near a finite radius the geometric tail (u/u0)^j, not sigma, sets N
        saddle = solve_saddle(model, chi)
        nodes = auxdist.ray_nodes(model, saddle, k)
        once, twice = (auxdist.log_point_masses(model, saddle, [k], n)[0]
                       for n in (nodes, 2 * nodes))
        assert abs(once - twice) < 1e-12

    @pytest.mark.parametrize("model", [EXP, GAMMA], ids=lambda m: m.name)
    def test_first_order_at_small_chi(self, model):
        # M_1 = x V_1, and P(Z_1 = 1) is about 1e-6 of the mass at zero; left
        # in the sum, that mass costs ln M_1 an error of 2e-11 or more
        chi = 1e-6
        got = auxdist.log_moments_on_ray(model, solve_saddle(model, chi), [1])[0]
        assert abs(got - math.log(chi * float(model.moment(1)))) <= 1e-11

    @pytest.mark.parametrize("model, chi", [(LOGF, 1e-6), (UNIT, 1e-307), (UNIT, 1e-30)],
                             ids=["beyond-node-bound", "sigma-overflow", "lost-to-rounding"])
    def test_unresolved_orders_use_recurrence(self, model, chi):
        # logfact at chi = 1e-6 sits 1e-6 below its radius, so N would be 2^26;
        # unit weights at chi = 1e-307 (where u^2 H''(u) overflows) and at
        # chi = 1e-30 put Z_k near multiples of u = 700 or 64, not at k <= 4
        saddle, orders = solve_saddle(model, chi), [1, 2, 3, 4]
        nodes = auxdist.ray_nodes(model, saddle, orders[-1])
        assert (nodes > auxdist._MAX_NODES
                or np.isnan(auxdist.log_point_masses(model, saddle, orders, nodes)).all())
        got = auxdist.log_moments_on_ray(model, saddle, orders)
        assert got.tolist() == [moments.log_moment(model, k, chi * k) for k in orders]

    def test_nodes_from_the_tail_reach(self):
        # Z_200 at chi = 1 reaches e^-40 by 384; 40 sigma + 64 made it 1024
        assert auxdist.ray_nodes(UNIT, solve_saddle(UNIT, 1.0), 200) == 512

    def test_no_orders(self):
        assert auxdist.log_moments_on_ray(UNIT, solve_saddle(UNIT, 1.0), []).size == 0

    def test_fallback_work_is_refused_before_any_order_runs(self, monkeypatch):
        # logfact at chi = 1e-4 needs N > 2^18, so every order takes the
        # recurrence: sum k^2 = 4.2e10 for k <= 5000, cubic in k_max
        def refuse(*args):
            raise AssertionError("log recurrence ran")

        monkeypatch.setattr(moments, "_log_tables", refuse)
        monkeypatch.setattr(moments, "_log_recurrence", refuse)
        saddle = solve_saddle(LOGF, 1e-4)
        assert auxdist.ray_nodes(LOGF, saddle, 5000) > auxdist._MAX_NODES
        with pytest.raises(DomainError, match="41679167500 terms"):
            auxdist.log_moments_on_ray(LOGF, saddle, range(1, 5001))

    def test_all_fallback_work_is_refused_before_any_array(self):
        # 1e13 orders: one float per order would be 80 TB
        with pytest.raises(DomainError, match="333333333333383333333333335000000000000 terms"):
            auxdist.log_moments_on_ray(UNIT, solve_saddle(UNIT, 1.0), range(1, 10**13 + 1))

    def test_all_fallback_builds_the_tables_once(self, monkeypatch):
        # one recurrence call for every order: ln j! and ln V_j to k_max once
        built, log_tables = [], moments._log_tables

        def counted(model, k_max):
            built.append(k_max)
            return log_tables(model, k_max)

        monkeypatch.setattr(moments, "_log_tables", counted)
        saddle, orders = solve_saddle(LOGF, 1e-4), range(1, 31)
        assert auxdist.ray_nodes(LOGF, saddle, orders[-1]) > auxdist._MAX_NODES
        got = auxdist.log_moments_on_ray(LOGF, saddle, orders)
        assert built == [30]
        assert got.tolist() == [moments.log_moment(LOGF, k, 1e-4 * k) for k in orders]
