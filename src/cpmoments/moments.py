"""Exact and log-space moments of compound Poisson distributions.

The k-th moment of Y = W_1 + ... + W_N with N ~ Poisson(x), independent of
the i.i.d. weights W_j, is a weighted Bell polynomial:

    M_k(x) = k! * sum over profiles (l_1..l_k), sum i*l_i = k, of
             prod_i (x V_i)^{l_i} / ( (i!)^{l_i} l_i! )

Two independent evaluation routes are provided.  The production path is an
O(k^2) convolution recurrence

    M_k = sum_{j=1..k} C(k-1, j-1) x V_j M_{k-j}

obtained by differentiating the generating function
G(x,u) = sum M_k u^k/k! = exp(x (H(u) - 1)).  It runs on Python integers:
scaled by D^k, with D the denominator of x times an integer that clears
the weight moments' denominators, every M_k is an integer combination of
the lower ones, and each is divided by D^k once.  The oracle path
enumerates partition profiles directly (exponential cost, capped at
k <= 25) in Fractions.  Both are exact.  A float variant of the
recurrence, one dot product per order at a running tilt, gives a whole
table ln M_0(x) .. ln M_k(x) at one intensity without overflow, in O(k^2);
along a ray x = chi k, where each order has its own intensity,
``auxdist.log_moments_on_ray`` reads every ln M_k off one saddle instead.

The same recurrence gives two more moment families.  The finite-population
pre-limit moment has EGF (1 + x (H(u) - 1)/n)^n; J.C.P. Miller's power
recurrence F'f = n f'F for F = f^n turns each coefficient C(k-1, j-1) into
C(k-1, j-1) - C(k-1, j)/n and scales x by 1/n.  The centered moment of
Y - x V_1 is the plain recurrence on the mean-shift model H(u) - u V_1:
``moment_sequence(tilde_transform(model), k, x)``.

Also here: Bell numbers B_k = B_k(1) by Aitken's array, in O(k^2)
additions where the recurrence on unit weights at x = 1 multiplies (the
Bell polynomial B_k(x) is ``moment_sequence(unit(), k, x)``), the even-block
set-partition counts, and the closed-form polynomial identities used as
oracles for exponential and factorial weight sequences; the composition
identity is a partial Bell polynomial, read off one exact sequence of
exponential-weight moments.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Sequence

from . import weights as _weights
from ._numpy import np
from .errors import DomainError
from .weights import NumberLike, WeightModel, log_rational

ORACLE_CAP = 25  # profile enumeration beyond this is pointless, cost is exponential
MAX_LOG_WORK = 2 * 10**9  # k^2 summed over log recurrences to orders k
MAX_EXACT_BITS = 2 * 10**13  # bit products of one exact recurrence, by exact_bit_work;
# just above moments --weights unit --k 2000 --x 1 (1.7e13, 13-20 s)

_EXPONENTIAL = _weights.exponential()


@dataclass(frozen=True)
class MomentValue:
    """A single moment M_k(x) with provenance.

    ``value_exact`` is set on the rational paths; ``value_log`` is ln of the
    value whenever it is positive (-inf for a zero moment, None for a
    negative one).
    """

    k: int
    x: Fraction | float
    value_exact: Fraction | None
    value_log: float | None
    method: str

    @classmethod
    def from_exact(cls, k: int, x: Fraction | float, value: Fraction, method: str) -> "MomentValue":
        lg = log_rational(value) if value >= 0 else None
        return cls(k=k, x=x, value_exact=value, value_log=lg, method=method)


def check_nonnegative_order(k: int) -> None:
    """Raise DomainError for a negative moment order k."""
    if k < 0:
        raise DomainError("order must be >= 0")


def partition_profiles(k: int) -> Iterator[tuple[int, ...]]:
    """Yield every (l_1, ..., l_k) with sum i*l_i = k, ascending lexicographically."""
    check_nonnegative_order(k)
    if k == 0:
        yield ()
        return
    prof = [0] * k

    def rec(size: int, rem: int) -> Iterator[tuple[int, ...]]:
        if size > k:
            if rem == 0:
                yield tuple(prof)
            return
        for count in range(rem // size + 1):
            prof[size - 1] = count
            yield from rec(size + 1, rem - size * count)
        prof[size - 1] = 0

    yield from rec(1, k)


def _root_or_self(f: int, j: int) -> int:
    """r = the j-th root of f when f is a perfect j-th power, else r = f:
    either way f divides r^j.

    The root candidate is floor(f^(1/j)) by Newton's method on r^j = f,
    seeded by the float root.  From any r >= 1 one step lands at or above
    it, since the mean of j - 1 copies of r and f/r^(j-1) is at least their
    geometric mean f^(1/j), and from there the steps fall to it.
    """
    shift = max(f.bit_length() // j - 60, 0)
    r = int(2 ** (math.log2(f) / j - shift)) << shift
    r = ((j - 1) * r + f // r ** (j - 1)) // j
    while (s := ((j - 1) * r + f // r ** (j - 1)) // j) < r:
        r = s
    return r if r**j == f else f


def _weight_moments(model: WeightModel, k_max: int, bp: int, q: int) -> tuple[list[Fraction], int]:
    """V_1 .. V_kmax and the scale l of ``moment_sequence``: l^j V_j is an
    integer for every j, and the recurrence runs at D = q l.

    l starts at 1 and grows as each V_j is read.  If den(V_j) does not
    divide l^j, the missing factor is f = den(V_j) / gcd(den(V_j), l^j),
    and l grows by a factor r with f dividing r^j: the j-th root of f when
    f is a perfect j-th power, f otherwise.  So gaussian:1e-300,
    den(V_2) = 10^300, runs at l = 10^150, and V_j = 1/p^j at l = p.  The
    lcm of the denominators would also clear them, but for V_j =
    (2j-1)!!/2^j it is 2^j, not 2, and the recurrence's integers would grow
    by k^2 bits.  ``exact_bit_work`` is held to MAX_EXACT_BITS at D = q
    before any V_j is evaluated and again at D = q l each time l grows, so
    the last check is at the D that runs.
    """
    _check_bit_work(k_max, bp, q.bit_length())
    vs, ell, power = [], 1, 1  # power = l^j
    for j in range(1, k_max + 1):
        vs.append(v := model.moment(j))
        power *= ell
        if (f := v.denominator // math.gcd(v.denominator, power)) > 1:
            ell *= _root_or_self(f, j)
            power = ell**j
            _check_bit_work(k_max, bp, (q * ell).bit_length())
    return vs, ell


def moment_sequence(
    model: WeightModel, k_max: int, x: NumberLike, n: int | None = None
) -> list[Fraction]:
    """Exact M_0(x) .. M_kmax(x) by the convolution recurrence.

    With a population size ``n`` the sequence is instead the pre-limit
    moment E (sum_{i<=n} a_i W_i)^k, P(a_i = 1) = x/n, by the power
    recurrence M_k = (x/n) sum_j (n C(k-1, j-1) - C(k-1, j)) V_j M_{k-j};
    ``None`` is its n -> infinity limit.

    The recurrence runs on integers.  With scale x (or x/n) = p/q and
    ``_weight_moments``'s l, D = q l, the scaled moments N_k = D^k M_k obey
    N_k = sum_j a_k(j) c_j N_{k-j}, c_j = p q^(j-1) l^j V_j, and each order
    is reduced once, as Fraction(N_k, D^k).  Refuses an ``exact_bit_work``
    above MAX_EXACT_BITS: at D = q before any V_j is evaluated, then at the
    new D each time reading a V_j grows l.
    """
    check_nonnegative_order(k_max)
    if n is not None and n <= 0:
        raise DomainError("population size n must be positive")
    p, q = (Fraction(x) / (n or 1)).as_integer_ratio()
    vs, ell = _weight_moments(model, k_max, p.bit_length(), q)
    d = q * ell
    cs, step = [], p * ell  # step = p q^(j-1) l^j
    for v in vs:
        cs.append(step * v.numerator // v.denominator)
        step *= d
    # a_k(j) = C(k-1, j-1), or n C(k-1, j-1) - C(k-1, j): either obeys
    # Pascal's rule a_{k+1}(j) = a_k(j) + a_k(j-1), with a_k(0) = 0 or -1
    row, edge = ([1], 0) if n is None else ([n], -1)
    ns = [1]
    for _ in range(k_max):
        ns.append(sum(map(operator.mul, map(operator.mul, row, cs), reversed(ns))))
        row = [row[0] + edge, *map(operator.add, row[1:], row), row[-1]]
    out, power = [], 1
    for value in ns:
        out.append(Fraction(value, power))
        power *= d
    return out


def moment_recurrence(model: WeightModel, k: int, x: NumberLike) -> MomentValue:
    """M_k(x) via the O(k^2) recurrence; exact for rational inputs."""
    xe = Fraction(x)
    value = moment_sequence(model, k, xe)[k]
    return MomentValue.from_exact(k, xe, value, "recurrence")


def moment_partition_oracle(model: WeightModel, k: int, x: NumberLike) -> MomentValue:
    """M_k(x) by direct enumeration of partition profiles (oracle, k <= 25)."""
    if k > ORACLE_CAP:
        raise DomainError(f"partition enumeration capped at k <= {ORACLE_CAP}, got {k}")
    xe = Fraction(x)
    total = Fraction(0)
    for prof in partition_profiles(k):
        term = Fraction(1)
        for i, li in enumerate(prof, start=1):
            if li:
                term *= (xe * model.moment(i)) ** li
                term /= Fraction(math.factorial(i) ** li * math.factorial(li))
        total += term
    total *= math.factorial(k)
    return MomentValue.from_exact(k, xe, total, "partition_oracle")


def bell_number(k: int) -> int:
    """Number of set partitions of a k-set, B_k(1), by Aitken's array: each
    row opens with the last entry of the row above, every next entry adds
    the entry above its predecessor, and B_k opens row k.  That is O(k^2)
    additions, about k^3 log k bit work where ``moment_sequence`` on unit
    weights multiplies.  Admitted by the recurrence's own bound,
    ``exact_bit_work(k, 1, 1)``, which overstates this work about k-fold:
    k = 2047 takes about 1 s."""
    check_nonnegative_order(k)
    _check_bit_work(k, 1, 1)
    row = [1]
    for _ in range(k):
        row = list(accumulate(row, initial=row[-1]))
    return row[0]


def even_partition_number(two_k: int) -> int:
    """Modified Bell numbers from the even-order recurrence

        E(2k+2) = 1 + E(2k) + sum_{l=1..k} C(2k, 2l-1) E(2k+2-2l),

    seeded with E(0) = E(2) = 1, giving 4, 25, 262, 3991 at orders 4..10.
    These are the pinned reference values for the even-partition sequence.
    Note that the plain count of set partitions of a 2k-set into even-size
    blocks is the symmetric +-1 moment M_{2k}(1) (31, 379, 6556, ... from
    order 6 on), which this recurrence deliberately is not changed to match.
    """
    if two_k < 0 or two_k % 2:
        raise DomainError("even_partition_number needs an even order >= 0")
    seq = [1, 1]
    while len(seq) <= two_k // 2:
        kk = len(seq) - 1
        nxt = 1 + seq[kk] + sum(
            math.comb(2 * kk, 2 * l - 1) * seq[kk + 1 - l] for l in range(1, kk + 1)
        )
        seq.append(nxt)
    return seq[two_k // 2]


def finite_n_moment(model: WeightModel, k: int, n: int, lam: NumberLike) -> MomentValue:
    """Exact pre-limit moment of sum_{j<=n} a_j W_j with P(a_j = 1) = lam/n.

    One term of ``moment_sequence`` with population size n.  Converges to
    M_k(lam) with relative error O(k^2/n).
    """
    lame = Fraction(lam)
    return MomentValue.from_exact(k, lame, moment_sequence(model, k, lame, n)[k], "finite_n")


def exact_bit_work(k_max: int, bp: int, bq: int) -> int:
    """Estimated bit products of ``moment_sequence`` to order k, with b_p
    bits in x's (or x/n's) numerator p and b_q in D = q l, l the scale
    ``_weight_moments`` has grown to: N_m carries about m (b_p + b_q +
    log2 m) bits and the j-th coefficient b_p + j (b_q + 1), and their
    schoolbook products over all terms come to
    k^3 (b_p + b_q + log2 k) (4 b_p + k (b_q + 1)) / 24.  It counts every
    coefficient at j (b_q + 1) bits, even where l^j cancels den(V_j), so it
    overstates weights with long denominators.  MAX_EXACT_BITS sits just
    above the 1.7e13 of ``moments --weights unit --k 2000 --x 1`` (13-20 s);
    20 runs of that recurrence took 0.45 to 1.9 ps per estimated product
    (2-core x86-64)."""
    return k_max**3 * (bp + bq + k_max.bit_length()) * (4 * bp + k_max * (bq + 1)) // 24


def _check_bit_work(k_max: int, bp: int, bq: int) -> None:
    work = exact_bit_work(k_max, bp, bq)
    if work > MAX_EXACT_BITS:
        raise DomainError(
            f"exact recurrence to order {k_max} at a scale of {bp} numerator and {bq} denominator"
            f" bits needs about {work} bit products, more than {MAX_EXACT_BITS}"
        )


def check_log_work(terms: int) -> None:
    """Refuse log recurrences whose k^2, summed over the orders k they run
    to, exceeds MAX_LOG_WORK: about 0.4 s for one run to k = 44721, 5.5 s
    for ``compare``'s per-order runs to k = 1816 (2-core Xeon).  Every log
    recurrence, ``moments --log``'s and ``compare``'s fallback, is bounded
    by this one check, and this module alone measures the work it admits:
    ``log_moment_sequence`` for one run, ``log_moments_by_recurrence`` for
    per-order runs.  ``auxdist.build_aux`` runs none, and its transforms
    are bounded by ``auxdist._MAX_NODES`` instead."""
    if terms > MAX_LOG_WORK:
        raise DomainError(
            f"log-space recurrence needs {terms} terms (k^2 summed over its runs to order k),"
            f" more than {MAX_LOG_WORK}"
        )


def _square_sum(orders: Sequence[int]) -> int:
    """The sum of k^2 over ``orders``; over a range, however long, in closed form."""
    if not isinstance(orders, range):
        return sum(k * k for k in orders)
    a, d = orders.start, orders.step
    n = (orders[-1] - a) // d + 1  # len() stops at sys.maxsize
    return n * a * a + a * d * n * (n - 1) + d * d * ((n - 1) * n * (2 * n - 1) // 6)


_LOG_SPAN = 460.0  # ln of the largest A_j times the largest C_i one tilt may hold
_LOG_DROP = -115.0  # an entry is flushed where its terms all stay below e^-115
_SUM_LOW, _SUM_HIGH = 1e-20, 1e20  # the range each tilted order's sum must fall in
_LOG_SUM_HIGH = math.log(_SUM_HIGH)


def log_moment_sequence(model: WeightModel, k_max: int, x: NumberLike) -> np.ndarray:
    """ln M_0(x) .. ln M_kmax(x) by the recurrence as tilted dot products.

    Divided by (k-1)!, the recurrence is a plain convolution, k b_k =
    sum_j a_j b_{k-j}, of a_j = x V_j/(j-1)! with b_i = M_i/i!.  It keeps
    that form at any tilt rho and level L: with A_j = a_j rho^j and C_i =
    b_i rho^i e^-L, k C_k = sum_j A_j C_{k-j}, every term >= 0, so each order
    is one dot product of floats and one log.  The tilt is read off the
    logs c_i = ln b_i at the last order q with b_q > 0 and the last such
    p <= q - 2 (two steps, so that a sequence alternating in parity gives
    its trend): ln rho = (c_p - c_q)/(q - p), and L puts C_q at 1.  The
    j = k term a_k b_0 is added as one exp, because C_0 = e^-L alone can
    pass float range at tiny x.

    The tilt is read again once the orders reach twice the one it was read
    at, or when an order's sum leaves [1e-20, 1e20].  An order takes one
    log-sum-exp pass over its terms instead when no tilt can be read yet
    (the first orders), when the largest A_j or C_i, or their product,
    would pass e^460, or when its sum leaves the range under a new tilt (an
    order off a lattice the span does not know, or parities 1e-150 apart).
    Such an order drops the tilt, and the orders up to 1/8 past it take
    that pass too before a tilt is read again, so that an input no tilt
    carries costs about one log-sum-exp pass per order, not a tilt each.
    An entry is flushed to zero where, times the largest entry the other
    side can hold (a new C_k is below 1e20), it stays below e^-115: the
    terms dropped are negligible against any sum accepted, and no product
    of the entries kept is subnormal.  Orders off the model's lattice are
    -inf.

    ln x is taken from the exact x, so x may lie outside float range.
    Requires x > 0 and a nonnegative weight sequence (all partial sums are
    then positive and representable in log space).  Refuses k_max^2 above
    MAX_LOG_WORK before any weight moment is read.  To k = 1000 it takes
    about 3 ms, to k = 44721, the most that bound allows, about 0.4 s
    (2-core Xeon).
    """
    x = Fraction(x)
    if x <= 0:
        raise DomainError("log-space moments need x > 0")
    check_nonnegative_order(k_max)
    check_log_work(k_max * k_max)
    return _log_recurrence(model.span, log_rational(x), *_log_tables(model, k_max))


def _log_tables(model: WeightModel, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """ln j! for j = 0..k_max and ln V_j for j = 1..k_max: the tables of
    ``_log_recurrence``, whose prefixes serve every lower order."""
    lgf = np.array([math.lgamma(i + 1.0) for i in range(k_max + 1)])
    return lgf, np.array([model.log_weight_moment(j) for j in range(1, k_max + 1)])


def _log_recurrence(span: int, log_x: float, lgf: np.ndarray, log_v: np.ndarray) -> np.ndarray:
    """The body of ``log_moment_sequence`` to order k_max = lgf.size - 1, on
    the lattice of step ``span``, from ``_log_tables`` (or their prefixes)."""
    k_max = lgf.size - 1
    la = np.full(k_max + 1, -math.inf)  # ln a_j
    la[1:] = log_x + log_v - lgf[:-1]
    c = np.full(k_max + 1, -math.inf)  # c_i = ln b_i
    c[0] = 0.0
    tilted_a = np.zeros(k_max + 1)
    tilted_c = np.zeros(k_max + 1)  # C_i at k_max - i, so that each dot reads both ascending
    log_a = la.tolist()
    end, log_rho, level = 0, 0.0, 0.0  # orders below end run at this tilt
    retry = 0  # after a guarded order, the order at which a tilt is read again

    def tilted_sum(k: int) -> float:
        # an exponent past ln _SUM_HIGH puts the sum out of range either way
        head = math.exp(min(log_a[k] + k * log_rho - level, 50.0))
        # A_j pairs with C_(k-j), stored at k_max - k + j
        return head + tilted_a[1:k].dot(tilted_c[k_max - k + 1 : k_max])

    for k in range(span, k_max + 1, span):
        total = tilted_sum(k) if k < end else math.nan
        if not _SUM_LOW <= total <= _SUM_HIGH and k >= retry:
            end, log_rho, level = _retilt(la, c, k, tilted_a, tilted_c)
            total = tilted_sum(k) if end else math.nan
        if _SUM_LOW <= total <= _SUM_HIGH:
            tilted_c[k_max - k] = total / k
            c[k] = math.log(total / k) + level - k * log_rho
        else:
            c[k] = _log_order(la, c, k)
            end = 0
            if k >= retry:  # a tilt was read for this order: the next comes 1/8 later
                retry = k + k // 8
    return c + lgf


def _retilt(
    la: np.ndarray, c: np.ndarray, k: int, tilted_a: np.ndarray, tilted_c: np.ndarray
) -> tuple[int, float, float]:
    """(end, ln rho, L): a tilt read below order k, with A_j for j < end =
    min(2k, k_max + 1) and C_i for 0 < i < k written to ``tilted_a`` and
    ``tilted_c``; end = 0 where no tilt can be read or the largest entries,
    or their product, would pass e^_LOG_SPAN."""
    positive = np.flatnonzero(c[1:k] > -math.inf) + 1
    q = int(positive[-1]) if positive.size else 0
    before = positive[positive <= q - 2]
    if not before.size:
        return 0, 0.0, 0.0
    p = int(before[-1])
    log_rho = float(c[p] - c[q]) / (q - p)
    level = float(c[q]) + q * log_rho
    end = min(2 * k, la.size)
    ea = la[1:end] + np.arange(1, end) * log_rho
    ec = c[k - 1 : 0 : -1] + np.arange(k - 1, 0, -1) * log_rho - level
    top_a, top_c = ea.max(), max(ec.max(), _LOG_SUM_HIGH)  # C_k < _SUM_HIGH to come
    if max(top_a, top_c, top_a + top_c) > _LOG_SPAN:
        return 0, 0.0, 0.0
    ea[ea < _LOG_DROP - top_c] = -math.inf
    ec[ec < _LOG_DROP - top_a] = -math.inf
    np.exp(ea, out=tilted_a[1:end])
    np.exp(ec, out=tilted_c[la.size - k : la.size - 1])
    return end, log_rho, level


def _log_order(la: np.ndarray, c: np.ndarray, k: int) -> float:
    """c_k = ln(sum_j a_j b_{k-j} / k) by one log-sum-exp over its terms."""
    terms = la[1 : k + 1] + c[k - 1 :: -1]
    peak = terms.max()
    if peak == -math.inf:
        return -math.inf
    return peak + math.log(np.exp(terms - peak).sum() / k)


def log_moment(model: WeightModel, k: int, x: float) -> float:
    """ln M_k(x) without overflow, by the O(k^2) log recurrence (about 12 ms
    at k = 2000, 2-core Xeon); the oracle of ``auxdist.log_moments_on_ray``."""
    return float(log_moment_sequence(model, k, x)[k])


def log_moments_by_recurrence(model: WeightModel, chi: float, orders: Sequence[int]) -> list[float]:
    """ln M_k(chi k) for each of the ascending positive ``orders``, one log
    recurrence per order, each equal bit for bit to ``log_moment(model, k,
    chi * k)``: the route of ``auxdist.log_moments_on_ray`` for orders its
    transform cannot resolve.  The ln j! and ln V_j tables are built once,
    to the largest order, and each run reads a prefix.  Refuses k^2 summed
    over ``orders`` above MAX_LOG_WORK before any table is built; over a
    range, that sum takes constant time however many orders it holds."""
    if not chi > 0:
        raise DomainError(f"chi must be positive, got {chi}")
    if not orders:
        return []
    check_log_work(_square_sum(orders))
    lgf, log_v = _log_tables(model, orders[-1])
    return [float(_log_recurrence(model.span, log_rational(Fraction(chi * k)),
                                  lgf[: k + 1], log_v[:k])[k]) for k in orders]


def exp_identity_sum(k: int, x: NumberLike) -> Fraction:
    """S_k(x) = sum_{p=1..k} x^p / p! * C(k-1, p-1).

    Closed form for the exponential-weight moments: M_k(x) = k! S_k(x).
    With x = a/b, k! S_k(x) = sum_p a^p b^(k-p) (k!/p!) C(k-1, p-1) / b^k,
    summed in integers and reduced once.
    """
    if k < 1:
        raise DomainError("identity defined for k >= 1")
    a, b = Fraction(x).as_integer_ratio()
    total, ratio = 0, 1  # ratio = k!/p!
    for p in range(k, 0, -1):
        total += a**p * b ** (k - p) * ratio * math.comb(k - 1, p - 1)
        ratio *= p
    return Fraction(total, b**k * ratio)


def factorial_identity_rising(k: int, x: NumberLike) -> Fraction:
    """T_k(x) = x (x+1) ... (x+k-1) / k!.

    Closed form for the factorial-weight moments: M_k(x) = k! T_k(x).
    With x = a/b, T_k(x) = prod_{i<k} (a + i b) / (b^k k!), reduced once.
    """
    if k < 1:
        raise DomainError("identity defined for k >= 1")
    a, b = Fraction(x).as_integer_ratio()
    return Fraction(math.prod(range(a, a + k * b, b)), b**k * math.factorial(k))


def composition_counts(k_max: int) -> list[list[int]]:
    """counts[k][p] for 1 <= p <= k <= k_max: the sum of multinomials
    p!/prod(l_i!) over the profiles of k with p blocks, which counts ordered
    compositions of k into p positive parts, so it must equal C(k-1, p-1).

    Evaluated as p! B_{k,p}(1!, 2!, ...) / k!, since the partial Bell
    polynomial B_{k,p}(v) sums k! prod_i v_i^{l_i} / ((i!)^{l_i} l_i!) over
    those profiles.  Exponential weights have V_j = j! and M_k(x) =
    sum_r x^r B_{k,r}(1!, 2!, ...), and every B_{k,r} = C(k-1, r-1) k!/r! is
    below 2^k k! < 2^b for k <= k_max, so B_{k,p} is the p-th base-2^b digit
    of M_k(2^b): one exact sequence holds the triangle, no profile enumerated.
    """
    b = (math.factorial(k_max) << k_max).bit_length()
    mask = (1 << b) - 1
    ms = moment_sequence(_EXPONENTIAL, k_max, 1 << b)
    return [[math.factorial(p) * ((m.numerator >> b * p) & mask) // math.factorial(k)
             for p in range(k + 1)] for k, m in enumerate(ms)]


def composition_identity_lhs(k: int, p: int) -> int:
    """``composition_counts(k)[k][p]``, the compositions of k into p parts."""
    if not 1 <= p <= k:
        raise DomainError("need 1 <= p <= k")
    return composition_counts(k)[k][p]
