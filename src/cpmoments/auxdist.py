"""The tilted integer law behind the moment asymptotics, materialized.

For a weight model with EGF H, intensity x and tilt u in (0, u0) define

    P(Z = j) = M_j(x) u^j / ( j! G(x,u) ),      G(x,u) = exp( x (H(u) - 1) ),

so that the moments invert as M_k(x) = k! G(x,u) u^{-k} P(Z = k).  Z has
mean x u H'(u) and variance x (u H'(u) + u^2 H''(u)); choosing u so that
the mean equals k and letting k grow makes Z asymptotically normal, and the
value P(Z = k) approaches the normal density at its center.  This module
builds the law numerically from log-space moments and checks both facts:
the inversion identity (a pure floating-point identity) and the local
limit ratio p_k * sqrt(2 pi) * sigma / span -> 1, where span is the lattice
spacing of the support, ``WeightModel.span``.

The inversion identity also serves ``cpm compare``: along the ray
x = chi k one saddle u H'(u) = 1/chi centres every Z_k at k, and
``log_moments_on_ray`` reads ln M_k from P(Z_k = k), one inverse DFT
coefficient of the pgf exp(chi k (H(us) - H(u))) on the circle |s| = u.
That costs O(k_max N) for the whole table, N from ``ray_nodes``, where a
fresh log recurrence per order costs O(k_max^3).

``tail_reach`` alone decides how far Z reaches, by the Chernoff bound
P(Z >= c) <= exp(x (H(v) - H(u))) (u/v)^c, v in (u, u0), with the mass at
zero taken out: ``build_aux`` takes the reach of mass 1e-12 and
``ray_nodes`` that of e^-40.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .asymptotics import SaddleSolution, _or_inf, solve_saddle
from .errors import DomainError
from .moments import check_log_work, log_moment, log_moment_sequence, moment_sequence
from .weights import WeightModel, log_rational

_MAX_NODES = 2**18  # transform points of log_moments_on_ray, ~1 ms per order
_MAX_ROUNDING = 1e-9  # relative rounding bound of a point mass read off the transform
_EPS = sys.float_info.epsilon
_MASS_TOLERANCE = 1e-12
# t / ln(u0/u) of tail_reach's tilts u e^t, 8 per octave of the distance to 0 and to 1
_REACH_GRID = 1.0 / (1.0 + 2.0 ** np.arange(-40.0, 40.0, 0.125))
_REACH_TOP = 64.0  # ln(u0/u) for tail_reach below an infinite radius


@dataclass(frozen=True)
class AuxiliaryDistribution:
    """Truncated pmf of the tilted law with its analytic summaries.

    ``log_pmf[j]`` is ln P(Z = j) for j = 0 .. support_cap (-inf off the
    lattice); mass beyond support_cap is below the construction tolerance.
    """

    model: WeightModel
    x: float
    u: float
    log_G: float
    support_cap: int
    log_pmf: np.ndarray
    mean: float
    variance: float
    sigma: float

    def pmf(self, j: int) -> float:
        if not 0 <= j <= self.support_cap:
            return 0.0
        return float(math.exp(self.log_pmf[j]))

    def local_limit_ratio(self, k: int) -> float:
        """r_k = P(Z = k) sqrt(2 pi) sigma / span, the local-limit ratio at k.

        It tends to 1 as k grows at fixed chi when the law is tilted so that
        E Z = k, as ``local_limit_check`` does.
        """
        self.model.check_order(k)
        if k > self.support_cap:
            raise DomainError("saddle order fell outside the retained support")
        return self.pmf(k) * math.sqrt(2.0 * math.pi) * self.sigma / self.model.span


def tail_reach(model: WeightModel, x: float, u: float, log_tol: float) -> int | float:
    """The smallest c >= 1 at which the Chernoff bound on the mass away from 0,

        P(Z >= c) <= exp(x (H(v) - H(u))) (1 - exp(-x (H(v) - 1))) (u/v)^c,

    that is (E (v/u)^Z - P(Z = 0)) (u/v)^c, falls to e^log_tol at a tilt
    v = u e^t of _REACH_GRID in (u, u0); c exceeds the mean x u H'(u)
    unless P(Z >= 1) < e^log_tol.  Tilts whose bound is nan or inf are
    skipped; with none left the reach is math.inf, which the work bound of
    the log recurrence and the node bound refuse.
    """
    t = _REACH_GRID * (math.log(model.radius / u) if math.isfinite(model.radius) else _REACH_TOP)
    with np.errstate(all="ignore"):
        ev = model.egf_m1(u * np.exp(t))
        c = (x * (ev - model.egf_m1(u)) + np.log(-np.expm1(-x * ev)) - log_tol) / t
    c = c[np.isfinite(c)]
    return max(1, math.ceil(c.min())) if c.size else math.inf


def build_aux(model: WeightModel, x: float, u: float) -> AuxiliaryDistribution:
    """Materialize the tilted law by one log recurrence, run to the reach of
    mass _MASS_TOLERANCE (bounded by ``moments.MAX_LOG_WORK``) and cut where
    the summed mass first reaches 1 - _MASS_TOLERANCE, else at the reach."""
    x = float(x)
    if x <= 0:
        raise DomainError("intensity x must be positive")
    if not 0.0 < u < model.radius:
        raise DomainError(f"tilt u must lie in (0, {model.radius}), got {u}")
    h1, h2 = _or_inf(model.egf_d1, u), _or_inf(model.egf_d2, u)
    mean = x * u * h1
    variance = x * (u * h1 + u * u * h2)
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise DomainError(
            f"tilted law of model {model.name!r} at x = {x}, u = {u} overflows: mean {mean},"
            f" variance {variance}"
        )
    log_g = x * float(model.egf_m1(u))
    ln_m = log_moment_sequence(model, tail_reach(model, x, u, math.log(_MASS_TOLERANCE)), x)
    lgf = np.array([math.lgamma(j + 1.0) for j in range(ln_m.size)])
    log_pmf = ln_m + np.arange(ln_m.size) * math.log(u) - lgf - log_g
    cap = int(np.searchsorted(np.cumsum(np.exp(log_pmf)), 1.0 - _MASS_TOLERANCE))
    cap = min(cap, ln_m.size - 1)
    return AuxiliaryDistribution(
        model=model,
        x=x,
        u=u,
        log_G=log_g,
        support_cap=cap,
        log_pmf=log_pmf[: cap + 1],
        mean=mean,
        variance=variance,
        sigma=math.sqrt(variance),
    )


def inversion_check(aux: AuxiliaryDistribution, k: int) -> float:
    """Relative defect of M_k(x) = k! G u^{-k} P(Z = k).

    The identity is algebraic, so the returned value measures floating-point
    error only.  The reference ln M_k(x) is the exact rational M_k at the
    binary rational x, O(k^2) big-integer products: 2.3 s at k = 400 for
    exponential weights at x = 294.92 (denominator 2^43) on a 2-core Xeon.
    """
    if not 0 <= k <= aux.support_cap or aux.log_pmf[k] == -math.inf:
        raise DomainError(f"order {k} is outside the retained support")
    ref = log_rational(moment_sequence(aux.model, k, Fraction(aux.x))[k])
    delta = math.lgamma(k + 1.0) + aux.log_G - k * math.log(aux.u) + float(aux.log_pmf[k]) - ref
    return abs(math.expm1(delta))


def local_limit_check(model: WeightModel, chi: float, k: int) -> float:
    """Ratio of P(Z = k) to the normal density prediction at the mean.

    The tilt is chosen so that E Z = k exactly (u H'(u) = 1/chi with
    x = chi k).  Returns r_k = p_k * sqrt(2 pi) * sigma / span, which tends
    to 1 as k grows at fixed chi.
    """
    model.check_order(k)
    sol = solve_saddle(model, chi)
    return build_aux(model, chi * k, sol.u).local_limit_ratio(k)


def ray_nodes(model: WeightModel, saddle: SaddleSolution, k_max: int) -> int | float:
    """Transform length for the orders k <= k_max on the ray x = chi k: the
    power of two at or above the reach of Z_kmax at e^-40, so the aliased
    mass P(Z_k >= k + N) is below e^-40.  The reach exceeds E Z_kmax = k_max
    unless P(Z_kmax >= 1) < e^-40, so no mass but the known one at zero
    aliases from below.  An unbounded reach gives math.inf."""
    reach = tail_reach(model, saddle.chi * k_max, saddle.u, -40.0)
    return reach if reach == math.inf else 1 << (reach - 1).bit_length()


def log_point_masses(
    model: WeightModel, saddle: SaddleSolution, orders: Sequence[int], nodes: int
) -> np.ndarray:
    """ln P(Z_k = k) for ascending positive ``orders``, Z_k the law tilted at
    the saddle u with x = chi k, from ``nodes`` points of the circle |s| = u.

    With g_m = exp(chi (H(u w^m) - H(u))) w^-m, w = exp(2 pi i / N),
    P(Z_k = k) = Re sum_m (g_m^k - P(Z_k = 0) w^-km) / N up to the aliased
    mass P(Z_k = k + jN), j >= 1: the second sum is zero, and removing the
    known mass at zero, exp(-chi k (H(u) - 1)), keeps the terms from
    cancelling down from ~1 at small chi.  H(u w^m) - H(u) is taken as a
    difference of ``egf_m1`` values: at large chi both H values are 1 + O(1/chi),
    and their difference would keep only ~chi eps of its digits.  g_{N-m} is
    the conjugate of g_m, so half the circle is evaluated; g^k and w^-km are
    running products across the orders, each term accurate to ~k eps.  An
    order whose rounding bound, k eps (sum_m |g_m^k| / N + P(Z_k = 0)),
    exceeds _MAX_ROUNDING of its point mass reads nan.
    """
    roots = np.exp((2j * math.pi / nodes) * np.arange(nodes // 2 + 1))
    turns = roots.conj()
    excess = model.egf_m1(saddle.u * roots)  # roots[0] = 1: excess[0] = H(u) - 1
    g = np.exp(saddle.chi * (excess - excess[0].real)) * turns
    weights = np.full(roots.size, 2.0 / nodes)
    weights[0] = weights[-1] = 1.0 / nodes
    log_p0 = -saddle.chi * excess[0].real  # ln P(Z_1 = 0)
    power, turn = np.ones_like(g), np.ones_like(g)
    steps: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    out = np.empty(len(orders))
    for i, (k, step) in enumerate(zip(orders, np.diff(orders, prepend=0).tolist())):
        if step not in steps:
            steps[step] = g**step, turns**step
        power *= steps[step][0]
        turn *= steps[step][1]
        p0 = math.exp(k * log_p0)
        mass = float(weights @ (power.real - p0 * turn.real))
        bound = k * _EPS * (float(weights @ np.abs(power)) + p0)
        out[i] = math.log(mass) if mass * _MAX_ROUNDING > bound else math.nan
    return out


def log_moments_on_ray(
    model: WeightModel, saddle: SaddleSolution, orders: Sequence[int]
) -> np.ndarray:
    """ln M_k(chi k) for ascending positive ``orders`` through the inversion
    identity at the one tilt ``saddle`` = solve_saddle(model, chi):

        ln M_k = ln k! + chi k (H(u) - 1) - k ln u + ln P(Z_k = k).

    Every Z_k has mean k, so each order reads the point mass at the centre
    of its own law.  Orders the transform cannot resolve take the log
    recurrence: all of them when the saddle is so close to a finite radius
    that N would pass _MAX_NODES, and single orders whose point mass is lost
    to rounding (at tiny chi the law of Z_k clusters away from k).  Their
    k^2, summed, is held to ``moments.MAX_LOG_WORK`` before any runs.
    """
    ks = np.asarray(orders, dtype=float)
    if not ks.size:
        return ks
    if not math.isfinite(saddle.chi * orders[-1]):
        raise DomainError(f"intensity chi k = {saddle.chi} * {orders[-1]} overflows")
    nodes = ray_nodes(model, saddle, orders[-1])
    if nodes > _MAX_NODES:
        log_p = np.full(ks.size, math.nan)
    else:
        log_p = log_point_masses(model, saddle, orders, nodes)
    lgf = np.array([math.lgamma(k + 1.0) for k in orders])
    out = lgf + ks * (saddle.chi * saddle.excess - math.log(saddle.u)) + log_p
    fallback = np.flatnonzero(np.isnan(log_p)).tolist()
    check_log_work(sum(orders[i] ** 2 for i in fallback))
    for i in fallback:
        out[i] = log_moment(model, orders[i], saddle.chi * orders[i])
    return out
