import csv
import io
import json
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci", max_examples=40, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


def set_partitions(items):
    """Every partition of ``items`` into nonempty blocks (exponential cost)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def brute_force_moment(model, k, x):
    """M_k(x) summed directly over set partitions: each partition contributes
    prod over blocks of (x * V_{block size}).  Independent of both package
    evaluation routes."""
    xe = Fraction(x)
    total = Fraction(0)
    for part in set_partitions(range(k)):
        term = Fraction(1)
        for block in part:
            term *= xe * model.moment(len(block))
        total += term
    return total


def first_primes(count):
    """The first ``count`` primes, by trial division."""
    primes, candidate = [], 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def prime_power_moments(count):
    """[1, V_1, .., V_count] with V_j = 1/p_j^j, p_j the j-th prime: a custom
    weight list whose least scale l, with every l^j V_j integral, is
    p_1 .. p_count, where the greedy l that takes each whole missing
    factor is p_1^1 .. p_count^count."""
    return [Fraction(1), *(Fraction(1, p**j) for j, p in enumerate(first_primes(count), start=1))]


def read_table(path):
    """Rows of a table written by ``cpm`` (CSV or JSON)."""
    text = Path(path).read_text()
    if text.lstrip().startswith("["):
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


def brute_force_finite_n(model, k, n, lam):
    """Pre-limit moment E (sum_j a_j W_j)^k by expanding over index tuples."""
    from itertools import product

    lame = Fraction(lam)
    total = Fraction(0)
    for tup in product(range(n), repeat=k):
        distinct = set(tup)
        prob = (lame / n) ** len(distinct)
        weight = Fraction(1)
        for j in distinct:
            weight *= model.moment(tup.count(j))
        total += prob * weight
    return total
