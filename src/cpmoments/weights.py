"""Weight-distribution models: moment sequences plus generating functions.

A weight model bundles the raw moments V_0 = 1, V_1, V_2, ... of a weight
variable W with the exponential generating function

    H(u) = sum_{k>=0} V_k u^k / k!  ( = E exp(uW) for genuine weight laws ).

The package only ever needs H as H - 1 (the rate's (H(u) - 1)/(u H'(u)),
the tilted law's normaliser exp(x (H(u) - 1)), the transform nodes), so a
model carries H - 1, H' and H''.  H - 1 is evaluated on the complex disc
|z| < u0 in a closed form free of the cancellation of 1 + small - 1; H' and
H'' on the real interval [0, u0), from the same closed form, and as inf
past float range.  Moments are exact fractions for every
built-in model so that combinatorial identities downstream can be checked
with exact arithmetic, while the generating functions use closed forms
rather than partial series sums, which keeps them accurate near a finite
radius u0.  Only this module turns H into H - 1 or back.

Families that share a structure of H share its declaration: unit and
centered gaussian weights are the one Touchard law ln H = a u^d / d!
(``_touchard``, d = 1 and 2), and exponential weights are gamma(1, 1) with
rational closures of their own.  A parameter or moment past float range is
+-inf in the floats (``or_inf``) and exact everywhere else, so the exact
and log tables run on it and the float routes refuse it.

One transform recurs throughout the package: ``tilde_transform``, the
mean-shift pseudo-model with EGF H(u) - u V_1, whose "moment" sequence is
V with V_1 zeroed.  That sequence generates the moments of the
mean-centered compound Poisson variable (the centered moments, and the
rate of graphsim's degree threshold) but is not the moment sequence of any
weight distribution.

Pseudo-models are the models without a sampler: only the built-in weight
laws carry one, so a transformed, factorial or custom model is never sampled.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence, Union

from ._numpy import np
from .errors import DomainError, HorizonError

NumberLike = Union[int, float, str, Fraction]
# draw(rng, size): size i.i.d. weights from rng.  Drawing a, then b, gives
# bit for bit the a + b weights of one call and leaves rng at the same next
# draw, so a caller may split one stream's draws into pieces.
WeightDraw = Callable[["np.random.Generator", int], "np.ndarray"]
Complexish = Union[float, complex, "np.ndarray"]
# n -> (P, Q) with H' = P/Q, each cut after degree n
D1Ratio = Callable[[int], tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]


def log_rational(v: Fraction) -> float:
    """ln v of an exact v >= 0 (-inf at 0), from the integer parts so that no float overflows."""
    if v == 0:
        return -math.inf
    return math.log(v.numerator) - math.log(v.denominator)


# Fraction's forms: integer digits, fraction digits, exponent, denominator digits
_RATIONAL = re.compile(r"[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?(?:\s*/\s*([\d_]+))?")


def _digit_limit() -> int:
    """The integer-to-string limit: CPython's default 4300 where it is unset
    or unknown."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _brief(text: str) -> str:
    """``repr(text)``, or for a text longer than the digit limit the repr of
    its first 20 characters and its count of digits, so that an error
    quoting it stays one short line."""
    if len(text) <= _digit_limit():
        return repr(text)
    return f"{text[:20] + '...'!r} ({sum(map(str.isdigit, text))} digits)"


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, but a literal whose numerator or denominator would
    be longer than the integer-to-string limit (``_digit_limit``) raises
    OverflowError before ``Fraction`` builds it: a long integer, a long
    decimal, either side of a ratio, an exponent that would build
    10**exponent, or an exponent itself past the limit.  The message quotes
    the literal through ``_brief``.  Malformed text raises ValueError or
    ZeroDivisionError."""
    match = _RATIONAL.fullmatch(text.strip())
    if match:
        limit = _digit_limit()
        whole, frac, exponent, den = match[1], match[2] or "", match[3] or "0", match[4] or ""
        # an exponent of more digits than the limit is too long for int() itself
        e = int(exponent) if sum(map(str.isdigit, exponent)) <= limit else math.inf
        if max(len(whole) + max(len(frac), e), len(frac) - e + 1, len(den)) > limit:
            raise OverflowError(f"{_brief(text)} needs integers of more than {limit} digits")
    return Fraction(text)


@dataclasses.dataclass(frozen=True, eq=False)
class WeightModel:
    """Immutable moment sequence + generating function of a weight variable.

    ``parity_even_only`` marks weights whose odd moments all vanish;
    ``horizon`` is the last known moment order of a custom model that only
    knows a finite prefix of the series.  ``sample(rng, size)`` draws i.i.d.
    weights, the same bits in pieces as in one call (``WeightDraw``); only
    built-in weight laws have one, and only they carry ``_log_moment_fn``,
    ln V_order in closed form.

    ``egf_m1(z)`` is the one value closure, H(z) - 1 for |z| < radius: real
    in, real out, complex in, complex out, elementwise on numpy arrays.  It
    is not range-checked: the caller keeps z inside the disc.  Each closed
    form avoids the cancellation of H(z) - 1 near z = 0, so the value
    carries relative error ~eps however small |z| is.  H itself is ``egf``.

    A built-in law may declare the structure of H, which picks its exact
    moment route (``moments.moment_sequence``): ``touchard = (a, d)``, the
    Touchard law's parameters, where ln H(u) = a u^d / d! (unit weights at
    (1, 1), centered gaussians of variance v at (v, 2)), and
    ``d1_ratio(n) = (P, Q)`` where H' = P/Q with Q(0) = 1, each cut after
    degree n (exponential, logfact, gamma of integer shape).  Derived
    models declare neither.
    """

    name: str
    radius: float
    _moment_fn: Callable[[int], Fraction]
    egf_m1: Callable[[Complexish], Complexish]
    _egf_d1: Callable[[float], float]
    _egf_d2: Callable[[float], float]
    parity_even_only: bool = False
    horizon: int | None = None
    sample: WeightDraw | None = None
    _log_moment_fn: Callable[[int], float] | None = None
    touchard: tuple[Fraction, int] | None = None
    d1_ratio: D1Ratio | None = None

    @property
    def truncated(self) -> bool:
        return self.horizon is not None

    @property
    def span(self) -> int:
        """Lattice span of the tilted law and of the orders with M_k != 0."""
        return 2 if self.parity_even_only else 1

    def check_order(self, k: int) -> None:
        """Raise DomainError unless k is a positive multiple of the span."""
        if k <= 0:
            raise DomainError("order must be positive")
        if k % self.span:
            raise DomainError(f"model {self.name!r} lives on even orders; {k} is odd")

    def moment(self, order: int) -> Fraction:
        """Raw moment V_order, exact; V_0 = 1 always."""
        if order < 0:
            raise DomainError("moment order must be >= 0")
        if self.horizon is not None and order > self.horizon:
            raise HorizonError(
                f"model {self.name!r} declares moments only up to order {self.horizon},"
                f" got request for order {order}"
            )
        return self._moment_fn(order)

    def log_weight_moment(self, order: int) -> float:
        """ln V_order; -inf when the moment vanishes.

        A built-in law evaluates its closed form in floats; other models take
        the log of the exact moment.  Raises for negative moments: the
        log-space pipeline requires a nonnegative weight sequence.
        """
        if self._log_moment_fn is not None and order >= 0:
            return self._log_moment_fn(order)
        v = self.moment(order)
        if v < 0:
            raise DomainError(
                f"model {self.name!r} has negative weight moment V_{order} = {v};"
                " use the exact path"
            )
        return log_rational(v)

    def _check_u(self, u: float) -> None:
        if not 0.0 <= u < self.radius:
            raise DomainError(
                f"u = {u} outside the convergence interval [0, {self.radius}) of {self.name!r}"
            )

    def egf(self, u: float) -> float:
        """H(u) = 1 + (H(u) - 1); prefer ``egf_m1`` wherever H - 1 is meant."""
        self._check_u(u)
        return 1.0 + float(self.egf_m1(u))

    def egf_d1(self, u: float) -> float:
        """H'(u), or inf where it overflows."""
        self._check_u(u)
        return or_inf(self._egf_d1, u)

    def egf_d2(self, u: float) -> float:
        """H''(u), or inf where it overflows."""
        self._check_u(u)
        return or_inf(self._egf_d2, u)


def or_inf(f: Callable[[float], float], u: float) -> float:
    """f(u), or inf where it overflows."""
    try:
        return f(u)
    except OverflowError:
        return math.inf


def _log1p(z: Complexish) -> Complexish:
    """ln(1 + z) for |z| < 1 without cancellation near z = 0; real in, real out.

    numpy's complex log1p takes ln |1 + z| as ln hypot(1 + a, b), which loses
    the digits of a small z; ln |1 + z| = log1p(t) / 2, t = |1 + z|^2 - 1 =
    a (2 + a) + b^2, keeps them.  Where |1 + z| is far from 1 the hypot form
    is the accurate one, and log1p(t) would lose t's digits as t nears -1.
    """
    if np.isrealobj(z):
        return np.log1p(z)
    a, b = z.real, z.imag
    t = a * (2.0 + a) + b * b
    modulus = np.where(np.abs(t) < 0.5, 0.5 * np.log1p(t), np.log(np.hypot(1.0 + a, b)))
    return modulus + 1j * np.arctan2(b, 1.0 + a)


def _running_product(step: Callable[[int], Fraction]) -> Callable[[int], Fraction]:
    """l -> P_l = step(1) step(2) ... step(l), P_0 = 1, each product extending
    the last one asked for, so that orders 0..K asked in ascending order cost
    K multiplications in all.  Only that last product is kept, not all K of
    them, whose bits grow as K^2; a lower order starts again from P_0."""
    last = [0, Fraction(1)]

    def product(order: int) -> Fraction:
        if order < last[0]:
            last[:] = 0, Fraction(1)
        for l in range(last[0] + 1, order + 1):
            last[:] = l, last[1] * step(l)
        return last[1]

    return product


def _log_rising(m: Fraction) -> Callable[[int], float]:
    """j -> ln m(m+1)...(m+j-1), the rising factorial of an exact m > 0, in
    floats.  Below m = 16 it is ln m + lgamma(m + j) - lgamma(m + 1), with
    ln m from the exact m, which may lie below float range.  From 16 up,
    lgamma(m + j) - lgamma(m) would cancel about m ln m, so Stirling's series
    gives the difference: j ln m + (m + j - 1/2) log1p(j/m) - j + R(m + j) -
    R(m), with R cut after its z^-7 term (the next is below 1.2e-14 at 16)."""
    fm, lm = or_inf(float, m), log_rational(m)
    if fm == math.inf:  # the rest, about j^2 / 2m, is below 1e-300
        return lambda j: j * lm
    if fm < 16.0:
        base = math.lgamma(fm + 1.0)
        return lambda j: lm + math.lgamma(fm + j) - base if j else 0.0

    def tail(z: float) -> float:
        w = 1.0 / (z * z)
        return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w / 1680))) / z

    log_m = math.log(fm)
    return lambda j: j * log_m + (fm + j - 0.5) * math.log1p(j / fm) - j + tail(fm + j) - tail(fm)


def _power_ratio(alpha: Fraction, theta: Fraction, s: int) -> D1Ratio:
    """n -> (P, Q) of H'(t) = alpha (1 - theta t)^-s: P = (alpha,) and Q the
    binomial (1 - theta t)^s, cut after degree n so that a huge s costs n terms."""
    return lambda n: ((alpha,), tuple(math.comb(s, i) * (-theta) ** i for i in range(min(s, n) + 1)))


def _param_name(value: Fraction) -> str:
    """The exact ratio, or past 20 characters its float unless that is 0."""
    text, near = str(value), or_inf(float, value)
    return repr(near) if len(text) > 20 and near else text


def _touchard(name: str, a: Fraction, d: int, sample: WeightDraw) -> WeightModel:
    """The Touchard law ln H(u) = a u^d / d! for d in {1, 2}: V_dj = prod_{i<=j}
    a C(di - 1, d - 1) = (a/d!)^j (dj)!/j!, zero off the lattice of step d,
    H' = a u^(d-1) H and H'' = (a (d - 1) + (a u^(d-1))^2) H.  Each float is
    formed in one order for every (a, d): a z^d / d! as ((a z) z) / 2 at
    d = 2, and as z itself at a = d = 1; a past float range is inf
    (``or_inf``).  At d = 1, ln V_j is j ln a, with no lgamma."""
    fa, log_step = or_inf(float, a), log_rational(a / math.factorial(d))
    lattice = _running_product(lambda i: a * math.comb(d * i - 1, d - 1))  # j -> V_dj
    if d == 2:  # a u^(d-1), a z^d / d! and ln V_order
        slope, exponent = (lambda u: fa * u), (lambda z: fa * z * z / 2.0)
        log_moment = lambda order: -math.inf if order % 2 else (
            order // 2 * log_step + math.lgamma(order + 1.0) - math.lgamma(order // 2 + 1.0))
    else:
        slope, exponent = (lambda u: fa), (lambda z: z) if a == 1 else (lambda z: fa * z)
        log_moment = lambda order: order * log_step

    return WeightModel(
        name=name,
        radius=math.inf,
        parity_even_only=d == 2,
        _moment_fn=lambda order: Fraction(0) if order % d else lattice(order // d),
        _log_moment_fn=log_moment,
        egf_m1=lambda z: np.expm1(exponent(z)),
        _egf_d1=lambda u: slope(u) * math.exp(exponent(u)),
        _egf_d2=lambda u: (fa * (d - 1) + slope(u) ** 2) * math.exp(exponent(u)),
        sample=sample,
        touchard=(a, d),
    )


def unit() -> WeightModel:
    """All weight moments equal to one: the plain Bell-polynomial case, H(u) =
    e^u, the Touchard law at a = d = 1."""
    return _touchard("unit", Fraction(1), 1, lambda rng, size: np.ones(size))


def gaussian_centered(v2: NumberLike = 1) -> WeightModel:
    """Centered normal weights of variance v2: V_{2k} = v2^k (2k-1)!!, odd
    moments zero, H(u) = e^(v2 u^2 / 2), the Touchard law at a = v2, d = 2."""
    v2f = Fraction(v2)
    if v2f <= 0:
        raise DomainError("gaussian_centered needs v2 > 0")
    scale = math.sqrt(or_inf(float, v2f))
    return _touchard(f"gaussian({_param_name(v2f)})", v2f, 2,
                     lambda rng, size: rng.normal(0.0, scale, size))


def gamma(m: NumberLike, theta: NumberLike) -> WeightModel:
    """Gamma(shape m, scale theta) weights: V_l = theta^l m(m+1)...(m+l-1).
    An m, a theta or a radius 1/theta past float range is inf in the floats
    (``or_inf``), so the exact and log tables run at any m and theta."""
    mf, tf = Fraction(m), Fraction(theta)
    if mf <= 0 or tf <= 0:
        raise DomainError("gamma needs m > 0 and theta > 0")
    fm, ft = or_inf(float, mf), or_inf(float, tf)
    (mn, md), (tn, td) = mf.as_integer_ratio(), tf.as_integer_ratio()
    log_theta, log_rising = log_rational(tf), _log_rising(mf)
    fmt = fm * ft
    # m theta z, without the subnormal theta z: as (m theta) z, or as (m z) theta
    # where m theta is not a normal float
    scaled = (lambda z: fmt * z) if sys.float_info.min <= fmt <= sys.float_info.max else (
        lambda z: fm * z * ft)

    def excess(z: Complexish) -> Complexish:
        t = ft * z
        exponent, small = -fm * _log1p(-t), np.abs(t) < sys.float_info.min
        if small.any():
            # -m log1p(-theta z) = m theta z where theta z is subnormal and
            # keeps a few bits, or 0
            exponent = np.where(small, scaled(z), exponent)
        return np.expm1(exponent)

    return WeightModel(
        name=f"gamma({_param_name(mf)},{_param_name(tf)})",
        radius=or_inf(float, 1 / tf),
        # theta (m + l - 1) from the integer parts: one Fraction a step, not three
        _moment_fn=_running_product(lambda l: Fraction(tn * (mn + (l - 1) * md), td * md)),
        _log_moment_fn=lambda order: order * log_theta + log_rising(order),
        egf_m1=excess,
        _egf_d1=lambda u: fm * ft * math.exp(-(fm + 1.0) * math.log1p(-ft * u)),
        _egf_d2=lambda u: fm * (fm + 1.0) * ft * ft * math.exp(-(fm + 2.0) * math.log1p(-ft * u)),
        sample=lambda rng, size: rng.gamma(fm, ft, size),
        d1_ratio=_power_ratio(mf * tf, tf, int(mf) + 1) if mf.denominator == 1 else None,
    )


def bernoulli_centered() -> WeightModel:
    """Symmetric +-1 weights: V_{2j} = 1, odd moments zero, H(u) = cosh u."""
    return WeightModel(
        name="bernoulli",
        radius=math.inf,
        parity_even_only=True,
        _moment_fn=lambda order: Fraction(1 - order % 2),
        _log_moment_fn=lambda order: -math.inf if order % 2 else 0.0,
        egf_m1=lambda z: 2.0 * np.sinh(z / 2.0) ** 2,
        _egf_d1=math.sinh,
        _egf_d2=math.cosh,
        sample=lambda rng, size: rng.integers(0, 2, size) * 2.0 - 1.0,
    )


def exponential() -> WeightModel:
    """Exponential(1) weights: V_k = k!, H(u) = 1/(1-u) on [0, 1).  The law
    is gamma(1, 1) (its radius, V_k, ln V_k and declared H' = P/Q) with its
    own rational closures z/(1-z), (1-u)^-2 and 2 (1-u)^-3 and its own
    sampler, which draws gamma(1, 1)'s bits faster."""
    return dataclasses.replace(
        gamma(1, 1),
        name="exponential",
        egf_m1=lambda z: z / (1.0 - z),
        _egf_d1=lambda u: (1.0 - u) ** -2.0,
        _egf_d2=lambda u: 2.0 * (1.0 - u) ** -3.0,
        sample=lambda rng, size: rng.standard_exponential(size),
    )


def log_factorial() -> WeightModel:
    """Factorial weights V_k = (k-1)! (V_0 = 1), H(u) = 1 - ln(1-u) on [0, 1)."""
    return WeightModel(
        name="logfact",
        radius=1.0,
        _moment_fn=_running_product(lambda l: max(l - 1, 1)),
        _log_moment_fn=lambda order: math.lgamma(max(order, 1)),
        egf_m1=lambda z: -_log1p(-z),
        _egf_d1=lambda u: 1.0 / (1.0 - u),
        _egf_d2=lambda u: (1.0 - u) ** -2.0,
        d1_ratio=_power_ratio(Fraction(1), Fraction(1), 1),
    )


def custom_model(moments: Sequence[NumberLike]) -> WeightModel:
    """Model from a finite moment prefix [1, V_1, ..., V_L].

    The EGF is the truncated series, a polynomial, so the radius is
    infinite; the model is flagged ``truncated`` so that operations needing
    the full tail refuse it instead of silently truncating.
    """
    vals = [Fraction(v) for v in moments]
    if not vals or vals[0] != 1:
        raise DomainError("custom moment list must start with V_0 = 1")
    horizon = len(vals) - 1
    # a V_j past float range is +-inf in the floats; the exact V_j stay in vals
    fvals = [or_inf(float, v) if v >= 0 else -or_inf(float, -v) for v in vals]

    def series(z: Complexish, shift: int, start: int = 0) -> Complexish:
        # shift-th derivative of the truncated series at z, from its z^start term
        total, term = 0.0, 1.0
        for j, v in enumerate(fvals[shift:]):
            if j >= start:
                if not math.isfinite(v):  # +-inf times a power of z that is 0 adds 0, not nan
                    v = np.where(term == 0, 0.0, v) if np.ndim(term) else v if term else 0.0
                total = total + v * term
            term = term * (z / (j + 1))
        return total

    return WeightModel(
        name=f"custom[{horizon}]",
        radius=math.inf,
        horizon=horizon,
        _moment_fn=lambda order: vals[order],
        egf_m1=lambda z: series(z, 0, start=1),
        _egf_d1=lambda u: series(u, 1),
        _egf_d2=lambda u: series(u, 2),
    )


def tilde_transform(model: WeightModel) -> WeightModel:
    """Mean-shift pseudo-model: EGF H(u) - u V_1, moment list V with V_1 zeroed.

    The transformed sequence generates the moments of the mean-centered
    compound Poisson variable; it has no sampler because it is not the
    moment sequence of a weight distribution.  Its H' and H'' are built on
    the base law's closures, not on its ``egf_d1``/``egf_d2``, so the
    shift's own methods apply the range check and the overflow rule once.
    A mean past float range is inf in the shift's floats (``or_inf``).
    Identity when V_1 = 0 already.
    """
    v1 = model.moment(1)
    if v1 == 0:
        return model
    fv1 = or_inf(float, v1)

    def mom(order: int) -> Fraction:
        return Fraction(0) if order == 1 else model.moment(order)

    return WeightModel(
        name=f"tilde({model.name})",
        radius=model.radius,
        horizon=model.horizon,
        _moment_fn=mom,
        egf_m1=lambda z: model.egf_m1(z) - fv1 * z,
        _egf_d1=lambda u: model._egf_d1(u) - fv1,
        _egf_d2=model._egf_d2,
    )


# family -> (constructor, allowed numbers of parameters)
_FAMILIES: dict[str, tuple[Callable[..., WeightModel], tuple[int, ...]]] = {
    "unit": (unit, (0,)),
    "gaussian": (gaussian_centered, (0, 1)),
    "normal": (gaussian_centered, (0, 1)),
    "gamma": (gamma, (2,)),
    "bernoulli": (bernoulli_centered, (0,)),
    "pm1": (bernoulli_centered, (0,)),
    "exponential": (exponential, (0,)),
    "logfact": (log_factorial, (0,)),
    "log_factorial": (log_factorial, (0,)),
}


def _number(text: str, spec: str) -> Fraction:
    """``parse_rational(text)``; malformed text and a literal past the digit
    limit are a ``DomainError`` that names the spec (the latter through
    ``_brief``, as the spec holds the literal)."""
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"weight spec {spec!r}: {text!r} is not a number") from None
    except OverflowError as exc:
        raise DomainError(f"weight spec {_brief(spec)}: {exc}") from None


def from_spec(text: str) -> WeightModel:
    """Parse a weight spec, the one grammar of every subcommand's ``--weights``.

    Grammar: ``unit | gaussian[:V2] | gamma:m,theta | bernoulli | exponential
    | logfact | custom:path.json`` where custom JSON is
    ``{"moments": [1, v1, v2, ...]}``.  Numeric parameters accept integers,
    decimals and ratios like ``1/2``.  Malformed specs, and literals past
    ``parse_rational``'s digit limit, raise ``DomainError``; a parameter past
    float range is no error, as every constructor takes its floats through
    ``or_inf``.
    """
    head, _, arg = text.partition(":")
    key = head.strip().lower()
    if key == "custom":
        try:
            data = json.loads(Path(arg).read_text())
        except ValueError as exc:  # undecodable bytes or invalid JSON
            raise DomainError(f"weight spec {text!r}: not a JSON file ({exc})") from None
        moments = data.get("moments") if isinstance(data, dict) else None
        if not isinstance(moments, list):
            raise DomainError(f'weight spec {text!r}: expected {{"moments": [1, v1, ...]}}')
        return custom_model([_number(str(v), text) for v in moments])
    if key not in _FAMILIES:
        raise DomainError(f"unknown weight model: {text!r}")
    constructor, counts = _FAMILIES[key]
    params = [_number(part, text) for part in arg.split(",")] if arg else []
    if len(params) not in counts:
        allowed = " or ".join(map(str, counts)) + " parameters"
        raise DomainError(f"weight spec {text!r}: {key} takes {allowed}, got {len(params)}")
    return constructor(*params)
