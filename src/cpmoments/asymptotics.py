"""Saddle-point asymptotics for high compound Poisson moments.

For x = chi * k with fixed chi > 0 the normalized log-moment converges,

    (1/k) ln( M_k(x) / x^k )  ->  Psi(chi) = (H(u)-1)/(u H'(u)) - 1 + ln H'(u),

where the tilt u > 0 solves the Lambert-type equation u H'(u) = 1/chi.
The refined version carries the Gaussian fluctuation prefactor:

    M_k(x) ~ (1 + chi u^2 H''(u))^{-1/2} * ( x H'(u) e^{(H(u)-1)/(uH'(u)) - 1} )^k.

For nonnegative weight moments g(u) = u H'(u) is a sum of exponentials in
t = ln u with nonnegative coefficients, so ln(chi g) is increasing and
convex in t: a bracket finds a point right of the root and Newton in t
falls monotonically onto it, in a handful of steps from chi = 1e-6 to the
float maximum.  The solve stops on a relative residual, so the tilt keeps
its digits at large chi, where 1/chi is small.  Below a finite radius u0
the bracket stops at u0 (1 - 1e-12), so small chi is out of reach there
(below about 1e-24 for exponential weights, 1e-12 for factorial ones).
H(u) - 1 comes from the model's closed form (``WeightModel.egf_m1``): at
large chi it is O(1/chi), and forming it from H(u) would leave chi eps of
error in it.  As chi -> infinity Psi(chi) tends to ln V_1 when V_1 > 0 and
to (1/2) ln(V_2 / (e chi)) when V_1 = 0, the large-intensity limits
M_k ~ (x V_1)^k and M_k ~ (x k V_2 / e)^{k/2}; the gap is O(1/chi).

The per-family closed forms (normal, gamma, symmetric Bernoulli,
exponential and factorial weight sequences) are implemented in their
classical shapes so they can be cross-checked against the generic formula;
they solve the same saddle equation, so agreement is algebraic up to float
rounding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import weights as _weights
from .errors import DomainError, SaddleError, TruncatedModelError
from .weights import WeightModel, or_inf

_UNIT = _weights.unit()
_BERNOULLI = _weights.bernoulli_centered()


@dataclass(frozen=True)
class SaddleSolution:
    """Solution of u H'(u) = 1/chi with the generating function values at u:
    ``excess`` = H(u) - 1, ``H1_u`` = H'(u), ``H2_u`` = H''(u).

    ``trace`` records every (u, g(u)) evaluation of the solver in order; the
    monotonicity of g along it is asserted in tests.
    """

    chi: float
    u: float
    residual: float
    excess: float
    H1_u: float
    H2_u: float
    trace: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class RateValue:
    """Psi(chi), its saddle and fluctuation prefactor, and the lattice span
    of the model's orders."""

    psi: float
    saddle: SaddleSolution
    prefactor: float
    span: int

    def log_refined(self, k: int) -> float:
        """ln of the refined value of M_k(chi k), for k on the model's lattice:
        ln(span * prefactor) + k (ln(chi k) + psi)."""
        return math.log(self.span * self.prefactor) + k * (math.log(self.saddle.chi * k) + self.psi)


def solve_saddle(model: WeightModel, chi: float) -> SaddleSolution:
    """Solve u H'(u) = 1/chi on (0, u0).

    Premise: the weight moments are nonnegative.  Then g(u) = u H'(u) =
    sum_k V_k u^k / (k-1)! is a sum of exponentials in t = ln u with
    nonnegative coefficients, so F(t) = ln(chi g) is increasing and convex.

    One Newton iteration on F in t, u <- u exp(-F/F') with F' = 1 + u H''/H',
    from u = min(1, u0/2).  By convexity a step from left of the root lands
    right of it, and from there the iterates fall monotonically onto the
    root, in one step for a power law g = c u^j.  Steps are only clipped: at
    u0 (1 - 1e-12) below a finite radius (else at the float maximum), and
    below the first point where g or u H'' overflowed: to the zero of F's
    chord to it where g is finite there (left of the root, by convexity),
    else to the midpoint in t; before any point is finite, u is divided by
    2, 4, 16, 256, ...  The solve stops at |g - 1/chi| <= 1e-15 / chi, or
    when a step is below rounding or no longer shrinks |g - 1/chi| (any
    rise of g, until g passes 1/chi).

    Deterministic.  Raises DomainError where 1/chi overflows, and
    SaddleError, naming the smallest chi reached, when 1/chi exceeds
    u H'(u) at the cap: for small chi at any finite radius (about 1e-24
    for exponential weights, 1e-12 for factorial ones).  Also raises it at
    a point left of the root where u H''(u) overflows, as it then does at
    the root; after 100 evaluations left of the root; and, naming the
    model, at a point where u H'(u) is not positive: nan where H'(u)
    overflows (down to u = 0, where 0 * inf is nan), 0 where it underflows
    or every weight moment is 0, and negative only where a moment is.
    """
    chi = float(chi)
    if not (math.isfinite(chi) and chi > 0):
        raise DomainError(f"chi must be positive and finite, got {chi}")
    target = 1.0 / chi
    if target == math.inf:
        raise DomainError(f"chi = {chi} out of reach: 1/chi overflows")
    trace: list[tuple[float, float]] = []
    u0 = model.radius
    cap = u0 * (1.0 - 1e-12) if math.isfinite(u0) else sys.float_info.max
    hi = hi_f = math.inf  # the smallest u where g or u H'' overflowed, and F there
    best = None  # the last accepted point: u, g, H', H'', |g - 1/chi|
    above = False  # until a point right of the root, g - 1/chi may round to -1/chi
    u = min(1.0, u0 / 2.0)
    for _ in range(100):
        d1 = model.egf_d1(u)
        gu, d2 = u * d1, model.egf_d2(u)
        trace.append((u, gu))
        res = abs(gu - target)
        if math.inf in (gu, u * d2):
            if gu < target:  # the root lies right of u, where u H'' overflows too
                raise SaddleError(
                    f"chi = {chi} out of reach: u H''(u) of model {model.name!r} overflows at"
                    f" u = {u}, where u H'(u) = {gu} is still below 1/chi"
                )
            hi, hi_f = u, math.log(gu) + math.log(chi)
        elif not gu > 0.0:
            raise SaddleError(f"model {model.name!r} has u H'(u) = {gu} at u = {u}; " + (
                "the saddle needs it positive, as nonnegative weight moments make it" if gu < 0.0
                else "H'(u) overflows" if math.isnan(gu)
                else "it underflows, or every weight moment vanishes"
            ))
        elif best is None or res < best[4] or (gu > best[1] and not above):
            above = above or gu >= target
            best = (u, gu, d1, d2, res)
            if res <= 1e-15 * target:
                break
        else:
            break
        if best is None:
            u = math.ldexp(hi, -(1 << (len(trace) - 1)))
            continue
        bu, bg, bd1, bd2, _ = best
        if bg < target and bu >= cap:
            raise SaddleError(
                f"chi = {chi} out of reach: the smallest chi model {model.name!r} reaches"
                f" is 1/(u H'(u)) = {1.0 / bg} at u = {bu}"
            )
        # chi g overflows only far right of the root and underflows only far
        # left of it, where F's digits do not matter
        scaled = chi * bg
        f = math.log(scaled) if 0.0 < scaled < math.inf else math.log(bg) + math.log(chi)
        u = min(bu * or_inf(math.exp, -f / (1.0 + bu * bd2 / bd1)), cap)
        if u >= hi:  # F's chord to hi, or the midpoint in t where g overflowed there
            if hi_f < math.inf:
                u = bu * math.exp(f / (f - hi_f) * (math.log(hi) - math.log(bu)))
            else:
                u = math.sqrt(bu) * math.sqrt(hi)
        if u in (bu, hi):  # the step is below rounding
            break
    if best is None or not (above or best[4] <= 1e-15 * target):
        raise SaddleError(
            f"target {target} unreachable for model {model.name!r} in {len(trace)} evaluations"
            " (u H'(u) too small, or u H'(u) or H''(u) overflowing)"
        )
    u, _, d1, d2, residual = best
    return SaddleSolution(
        chi=chi,
        u=u,
        residual=residual,
        excess=float(model.egf_m1(u)),
        H1_u=d1,
        H2_u=d2,
        trace=tuple(trace),
    )


def _reject_truncated(model: WeightModel) -> None:
    if model.truncated:
        raise TruncatedModelError(
            f"model {model.name!r} only knows a finite moment prefix; the limiting"
            " rate needs the full series"
        )


def rate_function(model: WeightModel, chi: float) -> RateValue:
    """Psi(chi) with its saddle point and fluctuation prefactor; raises
    SaddleError where psi or chi u^2 H''(u) is not finite."""
    _reject_truncated(model)
    s = solve_saddle(model, chi)
    psi = s.excess / (s.u * s.H1_u) - 1.0 + math.log(s.H1_u)
    prefactor = 1.0 / math.sqrt(1.0 + chi * s.u * s.u * s.H2_u)
    # chi u^2 H''(u) in this order: u^2 H''(u) alone overflows for unit weights
    # at chi = 1e-307, where the prefactor is 0.038
    if not (math.isfinite(psi) and 0.0 < prefactor < math.inf):
        raise SaddleError(
            f"model {model.name!r} at chi = {chi}: psi = {psi} and prefactor = {prefactor}"
            f" at u = {s.u}; chi u^2 H''(u) or psi is not finite"
        )
    return RateValue(psi=psi, saddle=s, prefactor=prefactor, span=model.span)


def refined_prediction(model: WeightModel, k: int, chi: float) -> float:
    """ln of the refined asymptotic value of M_k(chi * k), prefactor included.

    For even-only weight sequences the asymptotics hold along even orders,
    so odd k is rejected rather than silently adjusted.
    """
    model.check_order(k)
    return rate_function(model, chi).log_refined(k)


def _stirling_log_factorial(k: int) -> float:
    return 0.5 * math.log(2.0 * math.pi * k) + k * (math.log(k) - 1.0)


def gaussian_moment_prediction(k: int, x: float, v2: float = 1.0) -> float:
    """ln of the normal-weight closed form for M_k(x), k even.

    Written with beta solving beta e^beta = k_half / x, the generic formula
    with its prefactor (1 + chi u^2 H''(u))^(-1/2) = (2 (1 + beta))^(-1/2)
    at u^2 = 2 beta / v2.  k and v2 are checked by ``gaussian_centered(v2)``
    and its ``check_order``.
    """
    _weights.gaussian_centered(v2).check_order(k)
    half = k // 2
    beta = solve_saddle(_UNIT, x / half).u
    log_a = math.expm1(beta) / (beta * math.exp(beta)) - 2.0
    # ln 2 is the lattice-span factor of the even-support tilted law.
    return math.log(2.0) - 0.5 * math.log(2.0 * (1.0 + beta)) + half * (
        math.log(2.0 * v2 / beta) + 2.0 * math.log(half) + log_a
    )


def gamma_moment_prediction(k: int, x: float, m: float, theta: float) -> float:
    """ln of the gamma-weight closed form for M_k(x); k, m and theta are
    checked by ``gamma(m, theta)`` and its ``check_order``."""
    model = _weights.gamma(m, theta)
    model.check_order(k)
    u = solve_saddle(model, x / k).u
    tu = 1.0 - theta * u
    exponent = math.log(k / (math.e * u)) + tu * (1.0 - tu**m) / (m * theta * u)
    return 0.5 * math.log(tu / (1.0 + m * theta * u)) + k * exponent


def bernoulli_moment_prediction(k: int, x: float) -> float:
    """ln of the symmetric +-1 closed form for M_k(x), k positive and even
    (``check_order`` of the +-1 model)."""
    _BERNOULLI.check_order(k)
    half = k // 2
    chi_half = x / half
    u = solve_saddle(_BERNOULLI, x / k).u  # u sinh u = k / x
    log_a = 2.0 * math.sinh(u / 2.0) ** 2 / (u * math.sinh(u)) - 1.0
    pref = 0.5 * (math.log(2.0) - math.log(2.0 + chi_half * u * u * math.cosh(u)))
    # ln 2 is the lattice-span factor of the even-support tilted law.
    return math.log(2.0) + pref + k * (math.log(2.0 * half) + log_a - math.log(u))


def exponential_sum_prediction(k: int, x: float) -> float:
    """ln of the asymptotic value of S_k(x) = M_k(x)/k! for factorial moments
    V_j = j!, k positive (``check_order`` of the exponential model)."""
    _weights.exponential().check_order(k)
    chi = x / k
    u = (2.0 + chi - math.sqrt(chi * (4.0 + chi))) / 2.0
    return (
        -0.5 * math.log(2.0 * math.pi * k)
        + 0.5 * math.log((1.0 - u) / (1.0 + u))
        + k * (1.0 - math.log(u) - u)
    )


def exponential_moment_prediction(k: int, x: float) -> float:
    """ln of the exponential-weight closed form for M_k(x) = k! S_k(x).

    Uses the same Stirling replacement of k! under which the closed form was
    derived, so the comparison with the generic formula is algebraically
    tight.  The sum is taken first so that its ``check_order`` refuses
    k <= 0 before Stirling's ln k.
    """
    log_sum = exponential_sum_prediction(k, x)
    return _stirling_log_factorial(k) + log_sum


def logfact_sum_prediction(k: int, x: float) -> float:
    """ln of the asymptotic value of T_k(x) = M_k(x)/k! for weights
    V_j = (j-1)!, k positive (``check_order`` of the factorial model)."""
    _weights.log_factorial().check_order(k)
    return (
        0.5 * (math.log(x) - math.log(2.0 * math.pi * k) - math.log(x + k))
        + k * math.log1p(x / k)
        + x * math.log1p(k / x)
    )


def logfact_moment_prediction(k: int, x: float) -> float:
    """ln of the factorial-weight closed form for M_k(x) = k! T_k(x) (Stirling
    k!); the sum is taken first, as in ``exponential_moment_prediction``."""
    log_sum = logfact_sum_prediction(k, x)
    return _stirling_log_factorial(k) + log_sum


def special_case_prediction(case: str, k: int, x: float, **params: float) -> float:
    """Dispatch to a per-family closed form; returns ln of the predicted M_k(x)."""
    if case == "gaussian":
        return gaussian_moment_prediction(k, x, v2=params.get("v2", 1.0))
    if case == "gamma":
        return gamma_moment_prediction(k, x, m=params["m"], theta=params["theta"])
    if case == "bernoulli":
        return bernoulli_moment_prediction(k, x)
    if case == "exponential":
        return exponential_moment_prediction(k, x)
    if case == "logfact":
        return logfact_moment_prediction(k, x)
    raise DomainError(f"unknown special case {case!r}")
