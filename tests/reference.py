"""The package-free reference of the exact atlas (``test_exact_atlas.py``) and
of the edge atlas (``test_atlas.py``).  Nothing here comes from ``cpmoments``:
a spec is parsed here, the V_j come from their textbook formulas, and the
saddle is a bracketed root of its own.

A law is a spec (``unit``, ``gaussian[:v]``, ``gamma:m,theta``,
``bernoulli``, ``exponential``, ``logfact``), ``~spec`` its mean shift H(u) -
u V_1, whose V_1 is zeroed, or a list [1, V_1, ..]  of a custom law.

The exact side reads the V_j as Fractions at the exact parameters and runs
one convolution, M_k = x sum_j C(k-1, j-1) V_j M_(k-j), or J.C.P. Miller's
power recurrence at a finite population n.

The 60-digit mpmath side holds each family's H - 1, H' and H'' in closed
form, and the same V_j, at the family's parameters rounded to doubles as the
package holds them.  The saddle of the rate and the rate itself are built on
that table, and ln M_k(x) is the log of the exact convolution at those
parameters.

A point is held as (u, L), L = ln(1 - u/u0) below a finite radius u0 (0
below an infinite one), so that H keeps its digits near 0 and near u0.  The
saddle is solved in y = ln u below an infinite radius and y = ln(u/(u0 - u))
below a finite one, where L = -log1p(e^y) is exact however near u0 lies.
"""

import math
from fractions import Fraction

import mpmath
from mpmath import mpf

DIGITS = 60
NEWTON_STOP = mpf(1e-8)
# family -> V_j at its parameters, exact for exact parameters
MOMENTS = {
    "unit": lambda j: 1,
    "gaussian": lambda j, v=1: 0 if j % 2 else v ** (j // 2) * math.prod(range(1, j, 2)),
    "gamma": lambda j, m, t: t**j * math.prod(m + i for i in range(j)),
    "bernoulli": lambda j: 1 - j % 2,
    "exponential": math.factorial,
    "logfact": lambda j: math.factorial(max(j - 1, 0)),
}
# family -> its parameters -> (u0, H - 1, H', H'') with the H's at (u, L)
FAMILIES = {
    "unit": lambda: (mpmath.inf, lambda u, L: mpmath.expm1(u),
                     lambda u, L: mpmath.exp(u), lambda u, L: mpmath.exp(u)),
    "gaussian": lambda v=1: (
        mpmath.inf, lambda u, L: mpmath.expm1(v * u * u / 2),
        lambda u, L: v * u * mpmath.exp(v * u * u / 2),
        lambda u, L: (v + (v * u) ** 2) * mpmath.exp(v * u * u / 2)),
    "gamma": lambda m, t: (
        1 / t, lambda u, L: mpmath.expm1(-m * L), lambda u, L: m * t * mpmath.exp(-(m + 1) * L),
        lambda u, L: m * (m + 1) * t * t * mpmath.exp(-(m + 2) * L)),
    "bernoulli": lambda: (mpmath.inf, lambda u, L: 2 * mpmath.sinh(u / 2)**2,
                          lambda u, L: mpmath.sinh(u), lambda u, L: mpmath.cosh(u)),
    "exponential": lambda: (1, lambda u, L: u * mpmath.exp(-L),
                            lambda u, L: mpmath.exp(-2 * L), lambda u, L: 2 * mpmath.exp(-3 * L)),
    "logfact": lambda: (1, lambda u, L: -L,
                        lambda u, L: mpmath.exp(-L), lambda u, L: mpmath.exp(-2 * L)),
}


def parse(spec):
    """(family, exact parameters, whether ``~`` asks for the mean shift)."""
    head, _, arg = spec.lstrip("~").partition(":")
    return head, [Fraction(a) for a in arg.split(",")] if arg else [], spec.startswith("~")


def exact_v(law, k_max):
    """V_0 .. V_kmax of a law as Fractions."""
    if not isinstance(law, str):
        return [Fraction(v) for v in law[: k_max + 1]]
    head, params, tilde = parse(law)
    return [Fraction(0 if tilde and j == 1 else MOMENTS[head](j, *params))
            for j in range(k_max + 1)]


def convolution(v, x, k_max, n=None):
    """M_0(x) .. M_kmax(x) from the exact V_j in ``v`` and an exact x, by
    M_k = x sum_j C(k-1, j-1) V_j M_(k-j), or at a population n by Miller's
    M_k = (x/n) sum_j (n C(k-1, j-1) - C(k-1, j)) V_j M_(k-j).  Each order
    sums its terms as integers over the lcm of their denominators and
    reduces the sum once."""
    scale, m = Fraction(x) / (n or 1), [Fraction(1)]
    for k in range(1, k_max + 1):
        terms = [((math.comb(k - 1, j - 1) if n is None else n * math.comb(k - 1, j - 1)
                   - math.comb(k - 1, j)) * v[j].numerator * m[k - j].numerator,
                  v[j].denominator * m[k - j].denominator) for j in range(1, k + 1) if v[j]]
        den = math.lcm(*(d for _, d in terms))
        m.append(scale * Fraction(sum(t * (den // d) for t, d in terms), den))
    return m


def exact_moments(law, x, k_max, n=None):
    """M_0(x) .. M_kmax(x) of a law, at a population n if one is given, as Fractions."""
    return convolution(exact_v(law, k_max), x, k_max, n)


def to_mpf(value):
    """A Fraction at the working precision."""
    return mpf(value.numerator) / value.denominator


class Law:
    """The mpmath reference of one weight spec, or of its mean shift H(u) - u V_1
    for ``~spec``; ``exact(j)`` is the family's V_j as a Fraction and ``v(j)``
    the same at the working precision.  The mean shift cancels about
    log10(2 V_1 / (V_2 u)) digits near u = 0, so each point of a mean shift
    carries that many more."""

    def __init__(self, spec):
        head, params, tilde = parse(spec)
        params = [Fraction(float(p)) for p in params]  # as the package's floats hold them
        self.exact = lambda j: Fraction(MOMENTS[head](j, *params))
        self.v = lambda j: to_mpf(self.exact(j))
        with mpmath.workdps(DIGITS):
            self.u0, self._m1, self._d1, self._d2 = FAMILIES[head](*map(to_mpf, params))
            self.u0, self._log_u0 = mpf(self.u0), float(mpmath.log(self.u0))
            self.tilde = tilde and self.v(1) > 0
            self._spread = float(mpmath.log10(2 * self.v(1) / self.v(2))) if self.tilde else 0

    def point(self, u=None, y=None):
        """(u, L, digits) at u, or at the y of the saddle's coordinate."""
        digits = DIGITS
        if self.tilde:
            digits += max(0, int(self._spread - self._log_u(u, y) / math.log(10)) + 10)
        with mpmath.workdps(digits):
            if y is None:
                u = mpf(u)
                return u, mpmath.log1p(-u / self.u0), digits  # L = 0 below an infinite radius
            e = mpmath.exp(y)
            if self.u0 == mpmath.inf:
                return e, 0, digits
            return self.u0 * e / (1 + e), -mpmath.log1p(e), digits

    def _log_u(self, u, y):
        """ln u as a float, from u or from y: y is ln u below an infinite
        radius and ln u0 - ln(1 + e^-y) below a finite one."""
        if y is None:
            return math.log(u) if u else -math.inf
        y = float(y)
        if self.u0 == mpmath.inf:
            return y
        return self._log_u0 + min(y, 0) - math.log1p(math.exp(-abs(y)))

    def excess(self, u):
        """H(u) - 1 of the family (never of its mean shift) at the working
        precision, for u an mpf or an mpc."""
        return self._m1(u, mpmath.log1p(-u / self.u0))

    def h(self, p, excess=True):
        """(H(u) - 1, H'(u), H''(u)) at a point, or H' and H'' alone."""
        u, L, digits = p
        with mpmath.workdps(digits):
            v1 = self.v(1) if self.tilde else 0  # at the digits of the point
            values = ((self._m1(u, L) - v1 * u,) if excess else ()) + (
                self._d1(u, L) - v1, self._d2(u, L))
        return tuple(+v for v in values)


def rates(law, chis):
    """(psi, u, prefactor) at each of the ascending ``chis``.

    F(y) = ln(chi u H'(u)) rises in y.  Each solve starts one Newton step
    from the last root, where F has moved by the step in ln chi, and takes
    Newton steps while they halve the last one and stay inside the bracket.
    Otherwise the step doubles, up to 1 + |y|, until the root is bracketed,
    and halves the bracket after that.  It stops after a step where
    |F| < 1e-8, which leaves |F| about 1e-16."""

    def at(y, excess=False):  # F(y), F'(y), u and H's at y
        u, L, _ = p = law.point(y=y)
        *h, h1, h2 = law.h(p, excess)
        slope = (1 + u * h2 / h1) * (1 if law.u0 == mpmath.inf else mpmath.exp(L))
        return log_chi + mpmath.log(u * h1), slope, u, *h, h1, h2

    y, slope, log_chi = mpf(0), None, None
    with mpmath.workdps(DIGITS):
        for chi in chis:
            log_chi, last_log_chi = mpmath.log(mpf(chi)), log_chi
            y -= 0 if slope is None else (log_chi - last_log_chi) / slope
            lo, hi, last, step_was = -mpmath.inf, mpmath.inf, mpmath.inf, 0
            for _ in range(400):
                f, slope, *_ = at(y)
                lo, hi = (y, hi) if f < 0 else (lo, y)
                newton = step = f / slope
                if abs(f) < NEWTON_STOP:
                    break
                if not (abs(newton) <= abs(last) / 2 and lo < y - newton < hi):
                    step = y - (lo + hi) / 2 if hi - lo < mpmath.inf else mpmath.sign(
                        newton) * min(max(abs(newton), 2 * abs(step_was)), 1 + abs(y))
                y, last, step_was = y - step, newton, step
            else:
                raise ArithmeticError(f"no saddle at chi = {chi}")
            y -= newton
            _, slope, u, excess, h1, h2 = at(y, excess=True)
            yield excess / (u * h1) - 1 + mpmath.log(h1), u, 1 / mpmath.sqrt(
                1 + mpf(chi) * u * u * h2)


def log_moments(law, x, k_max):
    """ln M_0(x) .. ln M_kmax(x) (-inf where M_k = 0) of the exact moments at
    the exact x a float stands for."""
    v = [0 if j == 1 and law.tilde else law.exact(j) for j in range(k_max + 1)]
    with mpmath.workdps(DIGITS):
        return [mpmath.log(to_mpf(m)) if m else -mpmath.inf for m in convolution(v, x, k_max)]
