"""The edge atlas: the public float routes over the built-in weight families at
parameters spread over float range, every value they return checked against
the package-free 60-digit mpmath reference of ``reference.py``.

A row is a route and a weight spec; ``~s`` is the mean shift of ``s``.  At
every point of its grid a route returns or raises CpmError, never another
exception or a warning.  A value it returns lies within the route's
tolerance, except at the points of a known defect (DEFECTS), each a strict
xfail that names its ROADMAP item.  A refusal whose reference is finite
enters the ledger under the item that should end it (``ledger_item``), and
the ledger may not grow past its length when the atlas came in
(LEDGER_AT_PARENT).
"""

import functools
import math
import sys
import warnings
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import reference
from cpmoments import asymptotics, auxdist, graphsim, moments, weights
from cpmoments.errors import CpmError

EPS, TINY, BIG = sys.float_info.epsilon, sys.float_info.min, sys.float_info.max
CORNERS = ["1e-300", "1", "1e300"]
PLAIN = ["unit", "bernoulli", "exponential", "logfact"]
GAUSSIAN = [f"gaussian:{v}" for v in
            ["1", "1e-300", "1e-20", "1/1000", "1/2", "2", "1e8", "1e20", "1e300"]]
GAMMA = [f"gamma:{m},{t}" for m in CORNERS for t in CORNERS] + [f"gamma:{m},1" for m in [
    "1e-20", "1/1000", "1/2", "2", "1e8", "1e13", "1e18", "1e20"]] + [f"gamma:1,{t}" for t in [
    "1e-20", "1/1000", "2", "1e8", "1e20"]] + ["gamma:2,1/2", "gamma:1e20,1e-20"]
# the mean shift of every law whose V_1 is positive and finite
TILDE = [f"~{s}" for s in ["unit", "exponential", "logfact", "gamma:2,1/2"]] + [
    f"~gamma:{m},{t}" for m in CORNERS for t in CORNERS if (m, t) != ("1e300", "1e300")]
SPARSE = PLAIN + GAUSSIAN[1::2] + GAMMA[:9] + [
    "gamma:2,1", "gamma:1e20,1", "gamma:1,1e20", "gamma:1e20,1e-20"]


@functools.cache
def model_of(spec):
    model = weights.from_spec(spec.lstrip("~"))
    return weights.tilde_transform(model) if spec.startswith("~") else model


law_of = functools.cache(reference.Law)


def within(got, want, rel, floor=0.0):
    """|got - want| <= rel |want| + floor; exactly inf where want is past float range."""
    return got == math.copysign(math.inf, want) if abs(want) > BIG else abs(
        mpmath.mpf(got) - want) <= rel * abs(want) + floor


# gamma's derivative grid, folded into the atlas: theta u is exact at every u of it
EGF_FOLDED = [f"gamma:{m},{t}" for m in ["1e-300", "1/2", "2", "1e8", "1e13", "1e20"]
              for t in ["1/2", "1"]]


def egf_grid(spec):
    """u = 1e-320; u = 10^e r, e = -320 .. -1 (every ninth e outside the
    folded grid) and r the radius or 1; 0.3, 0.6 and 0.9 of min(radius, 3);
    and near a finite radius where theta u is exact."""
    u0 = model_of(spec).radius
    near = [u0 * f for f in (0.5, 0.999, 1 - 1e-9)] if math.frexp(u0)[0] == 0.5 else []
    r = u0 if u0 < math.inf else 1.0
    return [1e-320] + [10.0**e * r for e in range(-320, 0, 1 if spec in EGF_FOLDED else 9)] + [
        min(u0, 3.0) * 0.9 * i / 3 for i in (1, 2, 3)] + near


def egf_call(spec, u):
    model = model_of(spec)
    with np.errstate(over="ignore"):  # H - 1 is inf past float range, as H' and H'' are
        return float(model.egf_m1(u)), model.egf_d1(u), model.egf_d2(u)


def egf_ok(spec, u, got, want):
    # 1e-13, and for gamma (16 + |a ln(1 - theta u)|) eps where that is less:
    # exp amplifies the rounding of its exponent, a = m, m + 1 and m + 2
    tolerances = [1e-13] * 3
    if spec.startswith("gamma"):
        m = float(Fraction(spec[6:].split(",")[0]))
        log_base = abs(math.log1p(-u / model_of(spec).radius))
        tolerances = [min(1e-13, (16 + a * log_base) * EPS) for a in (m, m + 1, m + 2)]
    return all(within(g, w, t, 5e-324) for g, w, t in zip(got, want, tolerances))


def chi_grid(step, dense=False):
    """10^q for every step-th q from -323 to 308 (and every q from -306 to -26
    where dense), and the chis of the small grids folded into the atlas."""
    return sorted({float(f"1e{q}") for q in [*range(-323, 309, step), *range(
        -306, -25 if dense else -306)]} | {
        1e-3, 0.1, 0.25, 0.3, 0.5, 1.0, 2.0, 4.0, 1e3, 5e3, 1e6, 1e14, 1e300})


# every third order of magnitude for the laws of the chi grid that folded into
# the atlas, dense for those of gaussian's scale grid, every 27th for the others
CHIS, GAUSS_CHIS, SPARSE_CHIS = chi_grid(3), chi_grid(3, dense=True), chi_grid(27)
FOLDED = PLAIN + GAUSSIAN[-1:] + GAMMA[:9] + TILDE
# laws whose psi holds 2e-15 absolute from chi = 1/4 to 1e14
PSI_BAND = ["unit", "gaussian:1", "gamma:2,1/2", "bernoulli", "exponential", "logfact"]


def rate_call(spec, chi):
    rv = asymptotics.rate_function(model_of(spec), chi)
    got = (rv.psi, rv.saddle.u, rv.prefactor)
    # graphsim's threshold is exp(psi + 1/2) of the mean shift at chi = kappa/2
    if spec.startswith("~") or not model_of(spec).moment(1):
        got += (graphsim.critical_deviation_threshold(model_of(spec.lstrip("~")), 2 * chi),)
    return got


def rate_ok(spec, chi, got, want):
    psi, u, prefactor = want
    tol = 2e-15 if spec in PSI_BAND and 0.25 <= chi <= 1e14 else 1e-13 * max(1, abs(psi))
    # a subnormal u holds only the digits of its ulp
    return (within(got[0], psi, 0, tol) and within(got[1], u, 1e-13, 1e-13 * TINY)
            and within(got[2], prefactor, 1e-13) and all(
                within(s, mpmath.exp(psi + 0.5), tol + 4 * EPS * abs(psi)) for s in got[3:]))


ORDERS = 12


def aux_grid(spec):
    u0 = model_of(spec).radius
    us = [1e-300, 1e-10, 0.5, 0.999999999, 0.3 * min(u0, 2.5), 0.6 * min(u0, 2.5)]
    xs = [1e-320, 1e-300, 1e-10, 1.0, 10.0, 1e10, 1e200, 1e307, 1e308, 1.7e308]
    return [(x, u) for x, u in [(x, u) for x in xs for u in us] + [
        (2.0, 0.4), (2.0, 0.5), (5.0, 0.8), (10.0, 0.9)] if u < u0]


def aux_call(spec, point):
    aux = auxdist.build_aux(model_of(spec), *point)
    p, js = np.exp(aux.log_pmf), np.arange(aux.support_cap + 1)
    return (aux.log_G, aux.mean, aux.variance, aux.log_pmf[:ORDERS + 1], p.sum(),
            float(js @ p), float((js - aux.mean) ** 2 @ p))


def aux_want(law, grid):
    for x, u in grid:
        excess, h1, h2 = law.h(law.point(u=u))
        yield x * excess, x * u * h1, x * (u * h1 + u * u * h2)


def aux_ok(spec, point, got, want):
    (x, u), (_, mean, variance, log_pmf, mass, pmf_mean, pmf_variance) = point, got
    if not all(within(g, w, 1e-13, 5e-324) for g, w in zip(got, want)):
        return False
    # each point mass, ln(M_j(x) u^j / j!) - x (H(u) - 1), within 1e-9 where
    # it is in float range
    masses = (log_m + j * mpmath.log(u) - mpmath.log(mpmath.factorial(j)) - want[0] for j, log_m
              in enumerate(reference.log_moments(law_of(spec), x, len(log_pmf) - 1)))
    for g, w in zip(log_pmf, masses):
        if (g == -math.inf) != (w == -mpmath.inf) or w >= -690 and abs(math.expm1(g - w)) > 1e-9:
            return False
    if len(log_pmf) == 1:
        # a point mass at 0 only where it holds all but 1e-12 of the mass, to rounding
        return want[0] <= 1.001e-12
    # the cut of the pmf leaves out a share of the mean that matters only
    # below a mean of 1/10
    if not 1 - 1e-10 <= mass <= 1 + 1e-12:
        return False
    return mean < 0.1 or within(pmf_mean, mean, 1e-9) and within(pmf_variance, variance, 1e-8)


def ray_call(spec, chi):
    model = model_of(spec)
    return auxdist.log_moments_on_ray(model, asymptotics.solve_saddle(model, chi),
                                      range(model.span, ORDERS + 1, model.span))


def ray_want(law, grid):
    for chi in grid:
        yield [v for v in (reference.log_moments(law, chi * k, k)[k]
                           for k in range(1, ORDERS + 1)) if v > -mpmath.inf]


def ray_ok(spec, chi, got, want):
    return len(got) == len(want) and all(
        within(g, w, 0, max(1e-12, 4 * math.ulp(float(w)))) for g, w in zip(got, want))


def sequence_ok(spec, x, got, want):
    # each log held to 1e-13 of the logs it sums: its own size, ln k!, k |ln x| and 1
    return all(g == w == -math.inf or within(g, w, 0, 1e-13 * (
        abs(w) + math.lgamma(k + 1) + k * abs(math.log(x)) + 1))
        for k, (g, w) in enumerate(zip(got, want)))


def egf_want(law, grid):
    return (law.h(law.point(u=u)) for u in grid)


def rate_grid(spec):
    if spec in GAUSSIAN[:2]:
        return GAUSS_CHIS
    return CHIS if spec in FOLDED + PSI_BAND else SPARSE_CHIS


def sequence_call(spec, x):
    return moments.log_moment_sequence(model_of(spec), ORDERS, x)


def sequence_want(law, grid):
    return (reference.log_moments(law, x, ORDERS) for x in grid)


LOG_GRID = [10.0**q for q in range(-300, 301, 150)]
# route -> (rows, grid, call, reference, check of a value)
ROUTES = {
    # gamma:1e300,1e10 forms m theta z as (m z) theta at u = 1e-320, where m theta overflows
    "egf": (PLAIN + GAUSSIAN[:1] + GAMMA + [s for s in EGF_FOLDED if s not in GAMMA]
            + ["gamma:1e300,1e10"], egf_grid, egf_call, egf_want, egf_ok),
    "rate": (PLAIN + GAUSSIAN + GAMMA + TILDE, rate_grid, rate_call, reference.rates, rate_ok),
    "aux": (PLAIN + ["gaussian:1", "gaussian:1e-300", "gamma:2,1/2", "gamma:1/1000,1",
                     "gamma:1e300,1e-300"], aux_grid, aux_call, aux_want, aux_ok),
    "ray": (SPARSE, lambda spec: LOG_GRID, ray_call, ray_want, ray_ok),
    "sequence": (SPARSE, lambda spec: LOG_GRID, sequence_call, sequence_want, sequence_ok),
}
ROWS = [(route, spec) for route, table in ROUTES.items() for spec in table[0]]


def ledger_item(route, spec, point, want):
    """None where the reference of a refused call is not finite (a rate's u
    and prefactor must be normal floats; every ln M_k is finite), else the
    ROADMAP item that should end the refusal: none yet where 1/chi
    overflows; 7 for a saddle past the bracket cap near a finite radius, the
    mean shift's cancellation and gamma's m (m + 1) past float range; 17 for
    a family scale 1e20 or more from 1; else none yet."""
    if route == "rate" and not (
            abs(want[0]) <= BIG and all(TINY <= abs(v) <= BIG for v in want[1:])):
        return None
    if route == "aux" and not all(abs(v) <= BIG for v in want):
        return None
    if route in ("rate", "ray") and 1 / point == math.inf:
        return "none yet"
    params = [float(Fraction(p)) for p in spec.lstrip("~").partition(":")[2].split(",") if p]
    if spec.startswith("~") or spec.startswith("gamma") and params[0] > 1e154:
        return "7"
    cap = model_of(spec).radius * (1 - 1e-12)
    if route == "rate" and want[1] > cap:
        return "7"
    if route == "ray" and cap < math.inf:
        h1_at_cap = law_of(spec).h(law_of(spec).point(u=cap), excess=False)[0]
        if point * cap * h1_at_cap < 1:  # chi u H'(u) < 1 at the cap
            return "7"
    return "17" if params and abs(math.log10(params[-1])) >= 20 else "none yet"


@functools.cache
def survey(route, spec):
    """(points out of tolerance, items of the refusals whose reference is finite)."""
    _, grid_of, call, want_of, ok = ROUTES[route]
    grid, bad, refused = grid_of(spec), [], Counter()
    for point, want in zip(grid, want_of(law_of(spec), grid)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = call(spec, point)
            except CpmError:
                refused.update(filter(None, [ledger_item(route, spec, point, want)]))
                continue
        if not ok(spec, point, got, want):
            bad.append((point, got, want))
    return bad, refused


def decades(first, last):
    """10^q for every third q from first to last, as the chi grid has them."""
    return {float(f"1e{q}") for q in range(first, last + 1, 3)}


def listed(route_of, rows):
    """A defect made of the listed points of each row, the points out of
    tolerance when the atlas came in; its other points stay checked."""
    return lambda route, spec, point, got, want: route == route_of and point in rows.get(spec, ())


# a known defect -> (its ROADMAP item, whether a point out of tolerance is one of its points)
DEFECTS = {
    # a double u holds 1 - u/u0 only to eps / (1 - u/u0), which psi and the prefactor carry
    "the saddle's residual near a finite radius": ("7", listed("rate", {
        "exponential": decades(-23, -8), "gamma:1,1": decades(-23, -8),
        "~exponential": decades(-23, -11), "~gamma:1,1": decades(-23, -11),
        "logfact": decades(-11, -5), "~logfact": decades(-11, -5),
        "gamma:1e-300,1": decades(289, 295), "~gamma:1e-300,1": decades(289, 295),
        "gamma:2,1/2": decades(-35, -11), "~gamma:2,1/2": decades(-35, -11),
        "gamma:2,1": {1e-26}, "gamma:1e-20,1": {1e14}, "gamma:1/1000,1": {1e-3, 0.1, 0.25, 0.5}})),
    "the mean shift's cancellation at large chi": ("7", listed("rate", {
        "~unit": decades(7, 31) | {1e14}, "~gamma:1,1": decades(7, 31) | {1e14},
        "~exponential": decades(10, 31) | {1e14}, "~logfact": decades(10, 31) | {1e14},
        "~gamma:2,1/2": decades(10, 31) | {1e14}})),
    # H - 1 and H' of the row stay checked at every point
    "gamma's m (m + 1) past float range in H''": ("7", lambda route, spec, point, got, want:
        route == "egf" and spec == "gamma:1e300,1e-300" and egf_ok(spec, point, got[:2], want[:2])),
    "H(u) - 1 below the normal range before x multiplies it": ("17", listed("aux", {
        "bernoulli": {(x, 1e-300) for x in (1e307, 1e308, 1.7e308)},
        "gaussian:1": {(x, 1e-300) for x in (1e307, 1e308, 1.7e308)},
        "gaussian:1e-300": {(x, 1e-10) for x in (1e10, 1e200, 1e307, 1e308, 1.7e308)}})),
    "a subnormal saddle where theta u is normal": ("17", listed("ray", {"gamma:1,1e20": {1e300}})),
}


def defect_of(route, spec, point, got, want):
    return next((name for name, (_, is_of) in DEFECTS.items()
                 if is_of(route, spec, point, got, want)), None)


@pytest.mark.parametrize("route, spec", ROWS, ids=[f"{r}-{s}" for r, s in ROWS])
def test_row_returns_or_refuses_within_tolerance(route, spec):
    assert [p for p, got, want in survey(route, spec)[0]
            if not defect_of(route, spec, p, got, want)] == []


@pytest.mark.parametrize("defect", [pytest.param(name, marks=pytest.mark.xfail(
    strict=True, reason=f"ROADMAP item {item}")) for name, (item, _) in DEFECTS.items()])
def test_known_defect(defect):
    assert [(route, spec, p) for route, spec in ROWS for p, got, want in survey(route, spec)[0]
            if defect_of(route, spec, p, got, want) == defect] == []


# the ledger's length by route and item when the atlas came in
LEDGER_AT_PARENT = {("rate", "7"): 3816, ("rate", "17"): 251, ("rate", "none yet"): 147,
                    ("aux", "7"): 57, ("aux", "17"): 11, ("aux", "none yet"): 142,
                    ("ray", "7"): 40, ("ray", "17"): 6, ("ray", "none yet"): 1}


def test_ledger_does_not_grow():
    ledger = sum((Counter({(route, item): n for item, n in survey(route, spec)[1].items()})
                  for route, spec in ROWS), Counter())
    assert all(n <= LEDGER_AT_PARENT.get(key, 0) for key, n in ledger.items())
