"""Reference values for the benchmark's output checks, computed apart from cpmoments.

Nothing here imports the package under test.  Exact moments use finite
closed forms in rational arithmetic (Newton series of E[S_n^k] over the
Poisson count n); log-moments at large orders and every saddle-point
quantity use mpmath at 40 digits.  Weight models are named by the same
spec strings the CLI takes, restricted to the built-in families the
workloads use.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

mpmath.mp.dps = 40

MODELS = ("unit", "gaussian", "gamma", "bernoulli", "exponential", "logfact")


def _mpf(v: Fraction) -> mpmath.mpf:
    return mpmath.mpf(v.numerator) / v.denominator


def parse_spec(spec: str) -> tuple[str, tuple[Fraction, ...]]:
    """Split ``gamma:2,1/2`` into ("gamma", (2, 1/2)); parameters default as in the CLI."""
    head, _, arg = spec.partition(":")
    params = tuple(Fraction(p) for p in arg.split(",")) if arg else ()
    if head == "gaussian" and not params:
        params = (Fraction(1),)
    if head not in MODELS:
        raise ValueError(f"no oracle for weight model {spec!r}")
    return head, params


# ---------------------------------------------------------------- exact moments


def stirling2(k_max: int) -> list[list[int]]:
    """Triangle S(k, p), 0 <= p <= k <= k_max, by S(k,p) = p S(k-1,p) + S(k-1,p-1)."""
    rows = [[1]]
    for k in range(1, k_max + 1):
        prev = rows[-1]
        row = [0] * (k + 1)
        for p in range(1, k + 1):
            row[p] = (p * prev[p] if p < k else 0) + prev[p - 1]
        rows.append(row)
    return rows


def touchard(k_max: int, x: Fraction) -> list[Fraction]:
    """Unit-weight moments sum_p S(k,p) x^p for k = 0..k_max."""
    rows = stirling2(k_max)
    powers = [x**p for p in range(k_max + 1)]
    return [sum((s * powers[p] for p, s in enumerate(row)), Fraction(0)) for row in rows]


def _rising(a: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def _newton_series(values: list[Fraction], x: Fraction) -> Fraction:
    """sum_p x^p/p! Delta^p f(0) for f given at 0..len-1 (f a polynomial of lower degree).

    With f(n) = E[S_n^k], the k-th moment of a sum of n weights, this is
    sum_n e^-x x^n/n! f(n) = M_k(x).  For gamma(m, theta) weights
    f(n) = theta^k (m n)^(k), the rising factorial."""
    total = Fraction(0)
    diffs = list(values)
    term = Fraction(1)
    for p in range(len(values)):
        total += term * diffs[0]
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        term = term * x / (p + 1)
    return total


def bernoulli_moment(k: int, x: Fraction) -> Fraction:
    """sum_p x^p/(p! 2^p) sum_i C(2p,i) (-1)^i (p-i)^k for symmetric +-1 weights."""
    total = Fraction(0)
    for p in range(k + 1):
        inner = sum((-1) ** i * math.comb(2 * p, i) * (p - i) ** k for i in range(2 * p + 1))
        if inner:
            total += x**p / (math.factorial(p) * 2**p) * inner
    return total


def exponential_moment(k: int, x: Fraction) -> Fraction:
    """k! sum_p x^p/p! C(k-1, p-1) for Exp(1) weights."""
    if k == 0:
        return Fraction(1)
    return math.factorial(k) * sum(
        (x**p / math.factorial(p) * math.comb(k - 1, p - 1) for p in range(1, k + 1)), Fraction(0)
    )


def exact_moment(spec: str, k: int, x: Fraction) -> Fraction:
    """M_k(x) for a built-in model, exactly."""
    name, params = parse_spec(spec)
    if name == "unit":
        return touchard(k, x)[k]
    if name == "gaussian":
        if k % 2:
            return Fraction(0)
        return math.prod(range(1, k, 2)) * params[0] ** (k // 2) * touchard(k // 2, x)[k // 2]
    if name == "gamma":
        m, theta = params
        return _newton_series([theta**k * _rising(m * i, k) for i in range(k + 1)], x)
    if name == "bernoulli":
        return bernoulli_moment(k, x)
    if name == "exponential":
        return exponential_moment(k, x)
    return _rising(x, k)  # logfact: x (x+1) ... (x+k-1)


def exact_moments(spec: str, k_max: int, x: Fraction) -> list[Fraction]:
    """M_0(x) .. M_kmax(x) for a built-in model, exactly."""
    if parse_spec(spec)[0] == "unit":
        return touchard(k_max, x)
    return [exact_moment(spec, k, x) for k in range(k_max + 1)]


def weight_moments(spec: str, k_max: int) -> list[Fraction]:
    """Raw weight moments V_0 .. V_kmax from the textbook formulas."""
    name, params = parse_spec(spec)
    out = []
    for j in range(k_max + 1):
        if name == "unit":
            v = Fraction(1)
        elif name == "gaussian":
            v = Fraction(0) if j % 2 else params[0] ** (j // 2) * math.prod(range(1, j, 2))
        elif name == "gamma":
            v = params[1] ** j * _rising(params[0], j)
        elif name == "bernoulli":
            v = Fraction(1 - j % 2)
        elif name == "exponential":
            v = Fraction(math.factorial(j))
        else:
            v = Fraction(math.factorial(j - 1)) if j else Fraction(1)
        out.append(v)
    return out


def finite_n_moments(spec: str, k_max: int, n: int, lam: Fraction) -> list[Fraction]:
    """E (sum_{j<=n} a_j W_j)^k, P(a_j = 1) = lam/n, for k = 0..k_max.

    The one-term ordinary generating polynomial A(u) = 1 + sum_m (lam/n) V_m u^m/m!
    is raised to the n-th power by J.C.P. Miller's recurrence
    m b_m = sum_{i=1..m} ((n+1) i - m) a_i b_{m-i}; then E S^k = k! b_k.
    """
    vs = weight_moments(spec, k_max)
    p = lam / n
    a = [Fraction(1)] + [p * vs[i] / math.factorial(i) for i in range(1, k_max + 1)]
    b = [Fraction(1)]
    for m in range(1, k_max + 1):
        b.append(sum(((n + 1) * i - m) * a[i] * b[m - i] for i in range(1, m + 1)) / m)
    return [math.factorial(k) * b[k] for k in range(k_max + 1)]


def bell_number(k: int) -> int:
    """B_k by the Bell (Aitken) triangle."""
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def log_fraction(v: Fraction) -> float:
    return math.log(v.numerator) - math.log(v.denominator)


# ------------------------------------------------------------- log moments (mpmath)


def _log_sum_moment(name: str, params: tuple[Fraction, ...], n: int, k: int) -> mpmath.mpf:
    """ln E[S_n^k] for the sum of n i.i.d. weights, where a closed form exists."""
    if name == "unit":
        return k * mpmath.log(n)
    if name == "exponential":
        m, theta = mpmath.mpf(1), mpmath.mpf(1)
    elif name == "gamma":
        m, theta = _mpf(params[0]), _mpf(params[1])
    else:
        raise ValueError(f"no Poisson-mixture oracle for {name!r}")
    return k * mpmath.log(theta) + mpmath.loggamma(m * n + k) - mpmath.loggamma(m * n)


def log_moment(spec: str, k: int, x: Fraction) -> float:
    """ln M_k(x) as sum_n e^-x x^n/n! E[S_n^k], summed in mpmath until the
    log-concave terms fall 120 nats below their peak.  Unit, gamma and
    exponential weights take this route; the others use the exact forms."""
    name, params = parse_spec(spec)
    if k == 0:
        return 0.0
    if name not in ("unit", "gamma", "exponential"):
        return log_fraction(exact_moment(spec, k, x))
    xm = _mpf(x)
    lnx = mpmath.log(xm)
    logs = []
    peak = -mpmath.inf
    n = 1
    while True:
        t = n * lnx - mpmath.loggamma(n + 1) + _log_sum_moment(name, params, n, k) - xm
        logs.append(t)
        if t > peak:
            peak = t
        elif t < peak - 120:
            break
        n += 1
    return float(peak + mpmath.log(mpmath.fsum(mpmath.exp(t - peak) for t in logs)))


# ---------------------------------------------------------------- saddle point


def egf(spec: str, centered: bool = False):
    """(H, H', H'', radius) as mpmath callables; ``centered`` subtracts u V_1 (the
    mean-shift transform used by the random-graph bound)."""
    name, params = parse_spec(spec)
    mpf = mpmath.mpf
    if name == "unit":
        fns = (mpmath.exp, mpmath.exp, mpmath.exp, mpmath.inf)
    elif name == "gaussian":
        v2 = _mpf(params[0])
        h = lambda u: mpmath.exp(v2 * u * u / 2)  # noqa: E731
        fns = (h, lambda u: v2 * u * h(u), lambda u: (v2 + (v2 * u) ** 2) * h(u), mpmath.inf)
    elif name == "gamma":
        m, t = _mpf(params[0]), _mpf(params[1])
        fns = (
            lambda u: (1 - t * u) ** -m,
            lambda u: m * t * (1 - t * u) ** (-m - 1),
            lambda u: m * (m + 1) * t * t * (1 - t * u) ** (-m - 2),
            1 / t,
        )
    elif name == "bernoulli":
        fns = (mpmath.cosh, mpmath.sinh, mpmath.cosh, mpmath.inf)
    elif name == "exponential":
        fns = (lambda u: 1 / (1 - u), lambda u: (1 - u) ** -2, lambda u: 2 * (1 - u) ** -3, mpf(1))
    else:
        fns = (lambda u: 1 - mpmath.log(1 - u), lambda u: 1 / (1 - u), lambda u: (1 - u) ** -2, mpf(1))
    if not centered:
        return fns
    v1 = _mpf(weight_moments(spec, 1)[1])
    h, h1, h2, radius = fns
    return (lambda u: h(u) - u * v1, lambda u: h1(u) - v1, h2, radius)


def solve_tilt(spec: str, chi: float, centered: bool = False) -> mpmath.mpf:
    """Root of u H'(u) = 1/chi on (0, radius) by bisection at 40 digits."""
    _, h1, _, radius = egf(spec, centered)
    target = 1 / mpmath.mpf(chi)
    g = lambda u: u * h1(u) - target  # noqa: E731
    lo = mpmath.mpf(0)
    if mpmath.isinf(radius):
        hi = mpmath.mpf(1)
        while g(hi) < 0:
            hi *= 2
    else:
        hi = radius * (1 - mpmath.mpf(10) ** -30)
    for _ in range(200):
        mid = (lo + hi) / 2
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def rate(spec: str, chi: float) -> dict[str, mpmath.mpf]:
    """Tilt u, Psi(chi) = (H-1)/(u H') - 1 + ln H' and the prefactor (1 + chi u^2 H'')^-1/2."""
    h, h1, h2, _ = egf(spec)
    u = solve_tilt(spec, chi)
    return {
        "u": u,
        "psi": (h(u) - 1) / (u * h1(u)) - 1 + mpmath.log(h1(u)),
        "prefactor": 1 / mpmath.sqrt(1 + mpmath.mpf(chi) * u * u * h2(u)),
    }


def refined_prediction(spec: str, k: int, chi: float, rv: dict | None = None) -> float:
    """ln of span * prefactor * (x H'(u) e^{(H-1)/(uH') - 1})^k at x = chi k; span 2 for
    even-only weight laws."""
    rv = rv or rate(spec, chi)
    span = 2 if parse_spec(spec)[0] in ("gaussian", "bernoulli") else 1
    x = mpmath.mpf(chi) * k
    return float(mpmath.log(span * rv["prefactor"]) + k * (mpmath.log(x) + rv["psi"]))


def graph_threshold(spec: str, kappa: float) -> float:
    """Critical deviation s* = Ht'(u) exp((Ht(u)-1)/(u Ht'(u)) - 1/2), u Ht'(u) = 2/kappa."""
    h, h1, _, _ = egf(spec, centered=True)
    u = solve_tilt(spec, kappa / 2, centered=True)
    return float(h1(u) * mpmath.exp((h(u) - 1) / (u * h1(u)) - mpmath.mpf(1) / 2))


def graph_bound(spec: str, n: int, kappa: float, s: float) -> tuple[float, bool]:
    """Union bound min(1, exp(2 ln n (1/2 - ln s' + ln Ht'(u) + (Ht-1)/(u Ht') - 1))) with
    s' = s - V_1/n, and whether it is vacuous (value >= 1)."""
    v1 = weight_moments(spec, 1)[1]
    s_prime = mpmath.mpf(s) - _mpf(v1) / n
    if s_prime <= 0:
        return 1.0, True
    h, h1, _, _ = egf(spec, centered=True)
    u = solve_tilt(spec, kappa / 2, centered=True)
    bracket = mpmath.mpf(1) / 2 - mpmath.log(s_prime) + mpmath.log(h1(u)) + (h(u) - 1) / (u * h1(u)) - 1
    value = mpmath.exp(2 * mpmath.log(n) * bracket)
    return float(min(value, 1)), bool(value >= 1)
