"""The tilted integer law behind the moment asymptotics, materialized.

For a weight model with EGF H, intensity x and tilt u in (0, u0) define

    P(Z = j) = M_j(x) u^j / ( j! G(x,u) ),      G(x,u) = exp( x (H(u) - 1) ),

so that the moments invert as M_k(x) = k! G(x,u) u^{-k} P(Z = k).  Z has
mean x u H'(u) and variance x (u H'(u) + u^2 H''(u)); choosing u so that
the mean equals k and letting k grow makes Z asymptotically normal, and the
value P(Z = k) approaches the normal density at its center.  The pgf of
Z is exp(x (H(us) - H(u))), so every point mass is an inverse DFT
coefficient of a closed form: ``build_aux`` reads the law in bands, one
real inverse FFT of the pgf tilted to v per band, O(N log N) where the log
recurrence for M_0 .. M_N costs O(N^2).  The module checks both facts: the
inversion identity (a pure floating-point identity) and the local limit
ratio p_k * sqrt(2 pi) * sigma / span -> 1, where span is the lattice
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
``ray_nodes`` that of e^-40.  ``floor_reach`` is the same bound from below,
v < u; with ``tail_reach`` it sets the window of each band, outside which
the band's tilted law keeps at most e^-50 on either side.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._numpy import np
from .asymptotics import SaddleSolution, _or_inf, solve_saddle
from .errors import DomainError
from .moments import check_log_work, log_moment, moment_sequence
from .weights import WeightModel, log_rational

_MAX_NODES = 2**18  # reach of build_aux, and transform points of log_moments_on_ray
# points of build_aux's longest band: its bands pass _MAX_NODES only where
# one of _MAX_NODES points cannot read an order (a geometric tail)
_MAX_BAND = 8 * _MAX_NODES
_MAX_ROUNDING = 1e-9  # relative rounding bound of a point mass read off the transform
_EPS = sys.float_info.epsilon
_MASS_TOLERANCE = 1e-12
_ALIAS_LOG = -50.0  # ln of the mass a band may alias onto its window from either side
_SAFETY = 4.0  # a band's rounding bound over its estimate of the rounding
_REACH_TOP = 64.0  # ln(u0/u) for tail_reach below an infinite radius


@functools.cache
def _reach_grid() -> np.ndarray:
    """t / ln(u0/u) of tail_reach's tilts u e^t and -t / _REACH_TOP of
    floor_reach's, 8 per octave of the distance to 0 and to 1; read-only,
    as every caller shares it."""
    grid = 1.0 / (1.0 + 2.0 ** np.arange(-40.0, 40.0, 0.125))
    grid.flags.writeable = False
    return grid


@functools.cache
def _tilts_down() -> np.ndarray:
    """t of floor_reach's tilts u e^t, read-only."""
    t = -_REACH_TOP * _reach_grid()
    t.flags.writeable = False
    return t


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


def _log_mgf(model: WeightModel, x: float, u: float, t: np.ndarray) -> np.ndarray:
    """ln E(e^(tZ); Z >= 1) = x (H(v) - H(u)) + ln(1 - exp(-x (H(v) - 1))),
    v = u e^t, elementwise; nan or inf where it cannot be evaluated."""
    with np.errstate(all="ignore"):
        ev = model.egf_m1(u * np.exp(t))
        return x * (ev - model.egf_m1(u)) + np.log(-np.expm1(-x * ev))


def _tilts_up(model: WeightModel, u: float) -> np.ndarray:
    """t of the tilts u e^t in (u, u0) on the reach grid."""
    top = math.log(model.radius / u) if math.isfinite(model.radius) else _REACH_TOP
    return _reach_grid() * top


def tail_reach(model: WeightModel, x: float, u: float, log_tol: float) -> int | float:
    """The smallest c >= 1 at which the Chernoff bound on the mass away from 0,

        P(Z >= c) <= exp(x (H(v) - H(u))) (1 - exp(-x (H(v) - 1))) (u/v)^c,

    that is (E (v/u)^Z - P(Z = 0)) (u/v)^c, falls to e^log_tol at a tilt
    v = u e^t of the reach grid in (u, u0); c exceeds the mean x u H'(u)
    unless P(Z >= 1) < e^log_tol.  Tilts whose bound is nan or inf are
    skipped; with none left the reach is math.inf, which ``build_aux`` and
    the node bound of ``log_moments_on_ray`` refuse.
    """
    t = _tilts_up(model, u)
    c = (_log_mgf(model, x, u, t) - log_tol) / t
    c = c[np.isfinite(c)]
    return max(1, math.ceil(c.min())) if c.size else math.inf


def floor_reach(model: WeightModel, x: float, u: float, log_tol: float) -> int:
    """The largest c >= 0 at which the same bound at a tilt v = u e^t below u,

        P(1 <= Z <= c) <= (E (v/u)^Z - P(Z = 0)) (u/v)^c,

    stays at e^log_tol or below, t running over ``_tilts_down()``."""
    t = _tilts_down()
    c = (_log_mgf(model, x, u, t) - log_tol) / t
    c = c[np.isfinite(c)]
    return max(0, math.floor(c.max())) if c.size else 0


def _centre_tilt(model: WeightModel, x: float, u: float, centre: float) -> float:
    """The tilt v = u e^t, t on the grids of ``floor_reach`` and ``tail_reach``,
    that minimizes ln E(e^(tZ); Z >= 1) - centre t, the exponent of both
    bounds at c = centre: there the mean of Z_v away from zero,
    x v H'(v) / (1 - P(Z_v = 0)), sits at the centre, and P(Z_v = c) /
    P(Z_v >= 1) is largest.  Where P(Z_v = 0) is negligible this is the
    saddle x v H'(v) = centre.  The grid tilt is refined by a parabola: a
    band at large x reads only about 2.6 sigma either side of its centre,
    and the grid alone puts the centre of the unit law at x = 1e5 that far
    from the order it is after."""
    t = np.concatenate((_tilts_down(), _tilts_up(model, u)[::-1]))
    phi = _log_mgf(model, x, u, t) - centre * t
    phi[~np.isfinite(phi)] = math.inf
    i = int(np.argmin(phi))
    if 0 < i < t.size - 1 and phi[i - 1] < math.inf and phi[i + 1] < math.inf:
        # the vertex of the parabola through the grid's three lowest points
        (a, b, c), (fa, fb, fc) = t[i - 1 : i + 2], phi[i - 1 : i + 2]
        num = (b - a) ** 2 * (fb - fc) - (b - c) ** 2 * (fb - fa)
        den = (b - a) * (fb - fc) - (b - c) * (fb - fa)
        if den < 0.0:
            return u * math.exp(b - 0.5 * num / den)
    return u * math.exp(t[i])


def _half_circle(model: WeightModel, x: float, v: float, nodes: int):
    """The transform nodes w^m, m = 0 .. N/2, w = exp(2 pi i / N), with
    H(v w^m) - 1 and the pgf values exp(x (H(v w^m) - H(v))) of the law
    tilted at v; the pgf at w^-m is the conjugate of that at w^m.

    H(v w^m) - H(v) is a difference of ``egf_m1`` values: at large x both H
    values are 1 + O(1/x), and their difference would keep only ~x eps of
    its digits.
    """
    roots = np.exp((2j * math.pi / nodes) * np.arange(nodes // 2 + 1))
    excess = model.egf_m1(v * roots)  # roots[0] = 1: excess[0] = H(v) - 1
    return roots, excess, np.exp(x * (excess - excess[0].real))


def _band(model: WeightModel, x: float, v: float, start: int, nodes: int):
    """P(Z_v = j), j = start .. start + N - 1, of the law tilted at v, with
    the absolute rounding bound of every entry and H(v) - 1.

    One real inverse FFT of the pgf on the unit circle less the known mass
    at zero, p0 = exp(-x (H(v) - 1)), rotated by ``start``: entry i reads the
    sum of P(Z_v = j) over j = start + i mod N, j >= 1.  Where p0 is near 1
    the difference is taken as p0 expm1(x (H(v w) - 1)), so that its digits
    are not lost to cancellation.  The bound is _SAFETY eps times the root
    sum of squares over the circle of the node errors, over N, plus the
    transform's own rounding, eps (sum_j P(Z_v = j)^2)^(1/2) (its errors
    gather on a few entries, so they are not divided by N^(1/2)), plus the
    mass the window the caller takes may alias, e^_ALIAS_LOG (1 - p0) from
    either side.  A node g of the pgf errs by eps times |g| x (2 |H(v w) - 1|
    + (1 + theta) |dH(v e^(i theta)) / d theta|) from its exponent and the
    rounding of w = e^(i theta), |g| (2 x |H(v w) - H(v)| + 1) more in the
    form g - p0, and 2 |g - p0|.
    """
    excess, g = _half_circle(model, x, v, nodes)[1:]
    e0 = float(excess[0].real)
    p0 = math.exp(-x * e0)
    step = 2.0 * math.pi / nodes
    err = np.abs(np.gradient(excess, step))
    err *= 1.0 + step * np.arange(err.size)
    err += 2.0 * np.abs(excess)
    err *= x
    if x * e0 <= 1.0:
        err *= np.abs(g)
        diff = np.expm1(x * excess)
        diff *= p0
    else:
        err += 2.0 * x * np.abs(excess - e0) + 1.0
        err *= np.abs(g)
        diff = g
        diff -= p0
    del excess, g
    err += 2.0 * np.abs(diff)
    # sums over the whole circle; that of |diff|^2 is N sum_j P(Z_v = j)^2
    node_sq, diff_sq = (2.0 * float(a @ a) - a[0] ** 2 - a[-1] ** 2 for a in (err, np.abs(diff)))
    rounding = math.sqrt(node_sq) / nodes + math.sqrt(diff_sq / nodes)
    bound = _SAFETY * _EPS * rounding - 2.0 * math.exp(_ALIAS_LOG) * math.expm1(-x * e0)
    np.conj(diff, out=diff)
    return np.roll(np.fft.irfft(diff, nodes), -start), bound, e0


def _window(
    model: WeightModel, x: float, u: float, v: float, target: float, order: int, limit: int
):
    """The tilt, first order and length of a band through ``order``, from the
    tilt v of mean ``target`` away from zero: the orders where Z_v keeps all
    but e^_ALIAS_LOG of its mass away from zero on either side.  Where they
    pass ``limit`` (a geometric tail at a finite radius) the target moves
    down until they fit; None where no target of 1 or more fits."""
    while True:
        alias = _ALIAS_LOG + math.log(-math.expm1(-x * float(model.egf_m1(v))))
        width = tail_reach(model, x, v, alias)
        start = min(floor_reach(model, x, v, alias), order)
        if width - start <= limit:
            return v, start, 1 << (max(width, order + 1) - start - 1).bit_length()
        target *= limit / (width - start)
        if not target >= 1.0:
            return None
        v = _centre_tilt(model, x, u, target)


def _read_bands(
    model: WeightModel, x: float, u: float, excess: float, mean: float, reach: int, law: str
) -> np.ndarray:
    """ln P(Z = j), j = 1 .. reach, of the law tilted at u, with H(u) - 1 =
    ``excess`` and mean ``mean``, read in bands; -inf off the lattice."""
    span = model.span
    log_pmf = np.full(reach + 1, -math.inf)
    unread = np.zeros(reach + 1, dtype=bool)
    unread[span::span] = True
    target, v = mean / -math.expm1(-x * excess), u  # the mean of Z away from zero
    order = min(max(span, span * round(target / span)), reach - reach % span)
    limit = _MAX_NODES
    while order:
        window = _window(model, x, u, v, target, order, limit)
        if window:
            v_band, start, nodes = window
            q, bound, e_v = _band(model, x, v_band, start, nodes)
            q = q[: reach + 1 - start]
            if start == 0:
                q[0] = 0.0  # the aliases alone; P(Z = 0) is closed-form
            negative = np.flatnonzero(q < -bound)
            if negative.size:
                j = start + int(negative[0])
                raise DomainError(
                    f"{law} has P(Z = {j}) = {q[j - start]}, below minus its rounding bound"
                )
            ok = np.zeros(reach + 1, dtype=bool)
            ok[start : start + q.size] = q * _MAX_ROUNDING > bound
            ok &= unread
        if not (window and ok[order]):
            if limit == _MAX_BAND:
                raise DomainError(
                    f"{law}: P(Z = {order}) is lost to rounding in every band of up to"
                    f" {_MAX_BAND} points"
                )
            limit *= 2  # a longer band may tilt nearer to the order
            continue
        js = np.flatnonzero(ok)
        log_pmf[js] = np.log(q[js - start]) + js * math.log(u / v_band) + x * (e_v - excess)
        unread[js] = False
        order = int(np.flatnonzero(unread)[-1]) if unread.any() else 0
        if order:
            target, limit = float(order), _MAX_NODES
            v = _centre_tilt(model, x, u, target)
    return log_pmf


def build_aux(model: WeightModel, x: float, u: float) -> AuxiliaryDistribution:
    """Materialize the tilted law on 0 .. ``tail_reach`` at mass _MASS_TOLERANCE,
    cut where the summed mass first reaches 1 - _MASS_TOLERANCE.

    P(Z = 0) = exp(-x (H(u) - 1)) is closed-form; where it alone holds all
    but _MASS_TOLERANCE of the mass, the support is {0}.  The other orders
    are read in bands, each one inverse FFT (``_band``) of the pgf of the
    law tilted to v:

        ln P(Z = j) = ln P(Z_v = j) + j ln(u/v) + x (H(v) - H(u)).

    The first band is the law itself, v = u, so the bulk of the mass is read
    where it is largest.  Each later one takes the highest order j not yet
    read and the tilt at which the mean of Z_v away from zero sits at j
    (``_centre_tilt``): the saddle x v H'(v) = j wherever P(Z_v = 0) is
    negligible, and the tilt that maximizes P(Z_v = j) / P(Z_v >= 1).  A
    band keeps every unread order whose P(Z_v = i) clears the band's
    rounding bound by 1/_MAX_ROUNDING.  Its window is
    where Z_v keeps all but e^_ALIAS_LOG of its mass on either side (by
    ``floor_reach`` and ``tail_reach``); where that passes _MAX_NODES (a
    geometric tail at a finite radius), the band's centre moves down until
    the window fits.  Where such a band cannot read its order, the window
    may double, up to _MAX_BAND points, so that the band tilts nearer to
    it: logfact's tail P(Z = j) ~ x u^j / j at 44721 orders, the most the
    log recurrence's work bound allowed, takes bands of 2^21 points, about
    1 s and 150 MB.

    Refused with a DomainError before any transform runs: a reach of
    _MAX_NODES or more, or an infinite one, and a custom model with a
    negative weight moment or one it does not declare, up to the reach.
    Refused as they are read: a point mass below minus its rounding bound,
    and an order no band of up to _MAX_BAND points can read.
    """
    x = float(x)
    if x <= 0:
        raise DomainError("intensity x must be positive")
    if not 0.0 < u < model.radius:
        raise DomainError(f"tilt u must lie in (0, {model.radius}), got {u}")
    h1, h2 = _or_inf(model.egf_d1, u), _or_inf(model.egf_d2, u)
    mean = x * u * h1
    variance = x * (u * h1 + u * u * h2)
    law = f"tilted law of model {model.name!r} at x = {x}, u = {u}"
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise DomainError(f"{law} overflows: mean {mean}, variance {variance}")
    excess = float(model.egf_m1(u))
    log_g = x * excess
    reach = tail_reach(model, x, u, math.log(_MASS_TOLERANCE))
    if model.truncated:
        for j in range(1, min(reach, model.horizon + 1) + 1):
            model.log_weight_moment(j)
    if reach >= _MAX_NODES:
        raise DomainError(f"{law} reaches order {reach}, past {_MAX_NODES} transform points")
    if -log_g >= math.log1p(-_MASS_TOLERANCE):
        reach = 0
    log_pmf = _read_bands(model, x, u, excess, mean, reach, law)
    log_pmf[0] = -log_g
    cap = min(int(np.searchsorted(np.cumsum(np.exp(log_pmf)), 1.0 - _MASS_TOLERANCE)), reach)
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
    cancelling down from ~1 at small chi.  The nodes are ``_half_circle``'s;
    g_{N-m} is the conjugate of g_m.  g^k and w^-km are
    running products across the orders, each term accurate to ~k eps.  An
    order whose rounding bound, k eps (sum_m |g_m^k| / N + P(Z_k = 0)),
    exceeds _MAX_ROUNDING of its point mass reads nan.
    """
    roots, excess, g = _half_circle(model, saddle.chi, saddle.u, nodes)
    turns = roots.conj()
    g *= turns
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
