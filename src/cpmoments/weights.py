"""Weight-distribution models: moment sequences plus generating functions.

A weight model bundles the raw moments V_0 = 1, V_1, V_2, ... of a weight
variable W with the exponential generating function

    H(u) = sum_{k>=0} V_k u^k / k!  ( = E exp(uW) for genuine weight laws ).

The package only ever needs H as H - 1 (the rate's (H(u) - 1)/(u H'(u)),
the tilted law's normaliser exp(x (H(u) - 1)), the transform nodes), so a
model carries H - 1, H' and H''.  H - 1 is evaluated on the complex disc
|z| < u0 in a closed form free of the cancellation of 1 + small - 1; H' and
H'' on the real interval [0, u0).  Moments are exact fractions for every
built-in model so that combinatorial identities downstream can be checked
with exact arithmetic, while the generating functions use closed forms
rather than partial series sums, which keeps them accurate near a finite
radius u0.  Only this module turns H into H - 1 or back.

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

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence, Union

from ._numpy import np
from .errors import DomainError, HorizonError

NumberLike = Union[int, float, str, Fraction]
WeightDraw = Callable[["np.random.Generator", int], "np.ndarray"]
Complexish = Union[float, complex, "np.ndarray"]


def log_rational(v: Fraction) -> float:
    """ln v of an exact v >= 0 (-inf at 0), from the integer parts so that no float overflows."""
    if v == 0:
        return -math.inf
    return math.log(v.numerator) - math.log(v.denominator)


# Fraction's decimal form: integer digits, fraction digits, exponent
_DECIMAL_EXPONENT = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?[eE]([-+]?[\d_]+)\s*")


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, but an exponent that would make the numerator or the
    denominator longer than the integer-to-string limit (CPython's default
    4300 where it is unset or unknown) raises OverflowError before
    ``Fraction`` builds 10**exponent; malformed text raises ValueError or
    ZeroDivisionError."""
    match = _DECIMAL_EXPONENT.fullmatch(text)
    if match:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        whole, frac, exponent = match[1], match[2] or "", int(match[3])
        if len(whole) + len(frac) + abs(exponent - len(frac)) > limit:
            raise OverflowError(f"{text!r} needs integers of more than {limit} digits")
    return Fraction(text)


@dataclass(frozen=True, eq=False)
class WeightModel:
    """Immutable moment sequence + generating function of a weight variable.

    ``parity_even_only`` marks weights whose odd moments all vanish;
    ``horizon`` is the last known moment order of a custom model that only
    knows a finite prefix of the series.  ``sample(rng, size)`` draws i.i.d.
    weights; only built-in weight laws have one, and only they carry
    ``_log_moment_fn``, ln V_order in closed form.

    ``egf_m1(z)`` is the one value closure, H(z) - 1 for |z| < radius: real
    in, real out, complex in, complex out, elementwise on numpy arrays.  It
    is not range-checked: the caller keeps z inside the disc.  Each closed
    form avoids the cancellation of H(z) - 1 near z = 0, so the value
    carries relative error ~eps however small |z| is.  H itself is ``egf``.
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
        self._check_u(u)
        return self._egf_d1(u)

    def egf_d2(self, u: float) -> float:
        self._check_u(u)
        return self._egf_d2(u)


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
    fm, lm = float(m), log_rational(m)
    if fm < 16.0:
        base = math.lgamma(fm + 1.0)
        return lambda j: lm + math.lgamma(fm + j) - base if j else 0.0

    def tail(z: float) -> float:
        w = 1.0 / (z * z)
        return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w / 1680))) / z

    log_m = math.log(fm)
    return lambda j: j * log_m + (fm + j - 0.5) * math.log1p(j / fm) - j + tail(fm + j) - tail(fm)


def _param_name(value: Fraction) -> str:
    """The exact ratio, or past 20 characters its float unless that is 0."""
    text, near = str(value), float(value)
    return repr(near) if len(text) > 20 and near else text


def unit() -> WeightModel:
    """All weight moments equal to one: the plain Bell-polynomial case, H(u) = e^u."""
    return WeightModel(
        name="unit",
        radius=math.inf,
        _moment_fn=lambda order: Fraction(1),
        _log_moment_fn=lambda order: 0.0,
        egf_m1=lambda z: np.expm1(z),
        _egf_d1=math.exp,
        _egf_d2=math.exp,
        sample=lambda rng, size: np.ones(size),
    )


def gaussian_centered(v2: NumberLike = 1) -> WeightModel:
    """Centered normal weights of variance v2: V_{2k} = v2^k (2k-1)!!, odd moments zero."""
    v2f = Fraction(v2)
    if v2f <= 0:
        raise DomainError("gaussian_centered needs v2 > 0")
    fv2 = float(v2f)
    even = _running_product(lambda k: v2f * (2 * k - 1))  # k -> V_{2k}
    log_half_v2 = log_rational(v2f / 2)

    def h(u: float) -> float:
        return math.exp(fv2 * u * u / 2.0)

    return WeightModel(
        name=f"gaussian({_param_name(v2f)})",
        radius=math.inf,
        parity_even_only=True,
        _moment_fn=lambda order: Fraction(0) if order % 2 else even(order // 2),
        # V_2k = v2^k (2k)! / (2^k k!)
        _log_moment_fn=lambda order: -math.inf if order % 2 else (
            order // 2 * log_half_v2 + math.lgamma(order + 1.0) - math.lgamma(order // 2 + 1.0)),
        egf_m1=lambda z: np.expm1(fv2 * z * z / 2.0),
        _egf_d1=lambda u: fv2 * u * h(u),
        _egf_d2=lambda u: (fv2 + (fv2 * u) ** 2) * h(u),
        sample=lambda rng, size: rng.normal(0.0, math.sqrt(fv2), size),
    )


def gamma(m: NumberLike, theta: NumberLike) -> WeightModel:
    """Gamma(shape m, scale theta) weights: V_l = theta^l m(m+1)...(m+l-1)."""
    mf, tf = Fraction(m), Fraction(theta)
    if mf <= 0 or tf <= 0:
        raise DomainError("gamma needs m > 0 and theta > 0")
    fm, ft = float(mf), float(tf)
    log_theta, log_rising = log_rational(tf), _log_rising(mf)
    return WeightModel(
        name=f"gamma({_param_name(mf)},{_param_name(tf)})",
        radius=float(1 / tf),
        _moment_fn=_running_product(lambda l: tf * (mf + l - 1)),
        _log_moment_fn=lambda order: order * log_theta + log_rising(order),
        egf_m1=lambda z: np.expm1(-fm * _log1p(-ft * z)),
        _egf_d1=lambda u: fm * ft * (1.0 - ft * u) ** (-fm - 1.0),
        _egf_d2=lambda u: fm * (fm + 1.0) * ft * ft * (1.0 - ft * u) ** (-fm - 2.0),
        sample=lambda rng, size: rng.gamma(fm, ft, size),
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
    """Exponential(1) weights: V_k = k!, H(u) = 1/(1-u) on [0, 1)."""
    return WeightModel(
        name="exponential",
        radius=1.0,
        _moment_fn=_running_product(lambda l: l),
        _log_moment_fn=lambda order: math.lgamma(order + 1.0),
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
    fvals = [float(v) for v in vals]

    def series(z: Complexish, shift: int, start: int = 0) -> Complexish:
        # shift-th derivative of the truncated series at z, from its z^start term
        total, term = 0.0, 1.0
        for j, v in enumerate(fvals[shift:]):
            if j >= start:
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
    moment sequence of a weight distribution.
    Identity when V_1 = 0 already.
    """
    v1 = model.moment(1)
    if v1 == 0:
        return model
    fv1 = float(v1)

    def mom(order: int) -> Fraction:
        return Fraction(0) if order == 1 else model.moment(order)

    return WeightModel(
        name=f"tilde({model.name})",
        radius=model.radius,
        horizon=model.horizon,
        _moment_fn=mom,
        egf_m1=lambda z: model.egf_m1(z) - fv1 * z,
        _egf_d1=lambda u: model.egf_d1(u) - fv1,
        _egf_d2=model.egf_d2,
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
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"weight spec {spec!r}: {text!r} is not a number") from None


def from_spec(text: str) -> WeightModel:
    """Parse a weight spec, the one grammar of every subcommand's ``--weights``.

    Grammar: ``unit | gaussian[:V2] | gamma:m,theta | bernoulli | exponential
    | logfact | custom:path.json`` where custom JSON is
    ``{"moments": [1, v1, v2, ...]}``.  Numeric parameters accept integers,
    decimals and ratios like ``1/2``.  Malformed specs raise ``DomainError``.
    """
    head, _, arg = text.partition(":")
    key = head.strip().lower()
    try:
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
    except OverflowError:  # every parameter ends up as a float
        raise DomainError(f"weight spec {text!r}: parameter out of float range") from None
