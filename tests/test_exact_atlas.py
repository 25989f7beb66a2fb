"""The exact atlas: ``moments.moment_sequence`` on every exact route, each
table equal, as Fractions, to the package-free reference of ``reference.py``.

A cell is a law, an intensity x, a population n (None for the Poisson limit)
and an order k_max, one for each law, x and n that BLOCKS names.  A law is a
spec, ``~spec`` its mean shift, or the name of a custom list in LISTS.  Each cell also asserts the route that ran, from
its law's family alone (``route_of``): the q-Aitken array at d = 1 (unit)
and d = 2 (gaussian), the recurrence on a declared P/Q (exponential,
logfact, gamma of integer shape), the recurrence on the V_j at Q = 1 (every
other law), and at a finite n the recurrence on the V_j with Miller's row.
A route on the V_j must read the reference's V_j.
"""

import ast
import functools
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from conftest import prime_power_moments
from cpmoments import moments, weights

ROUTES = ("array d=1", "array d=2", "P/Q", "V_j", "Miller")


def central(spec, horizon=60):
    """The central moments E(W - V_1)^l, l <= horizon, of a spec: V_1 = 0
    and, unlike the mean shift ``~spec``, every higher moment shifted too."""
    v = reference.exact_v(spec, horizon)
    return tuple(sum(math.comb(order, j) * v[j] * (-v[1]) ** (order - j) for j in range(order + 1))
                 for order in range(horizon + 1))


LISTS = {
    **{f"central({spec})": central(spec) for spec in ("unit", "exponential", "gamma:2,1/2", "logfact")},
    # l = p_1 .. p_16, where the greedy l that takes each whole missing factor is p_1^1 .. p_16^16
    "1/p_j^j": tuple(prime_power_moments(16)),
    "ones": (1,) * 301,  # unit weights off the array
    # negative V_j, and V_5 past float range, which the floats hold as inf
    "signed": (1, -2, Fraction(1, 3), 0, Fraction(-5, 7), 10**400, Fraction(-1, 12), 5,
               Fraction(7, 11), -3, 0, Fraction(-4, 9), 1, Fraction(2, 5), -1),
}
X_ROUTE = (Fraction(-5, 3), 0, Fraction(1, 3), 1, Fraction(7, 2))
X_ALL = (*X_ROUTE, 10**300, Fraction(0.7373))
N_ALL = (None, 1, 2, 3, 1000)
ZOO = ["unit", "bernoulli", "exponential", "logfact", "gamma:2,1/2", "gamma:1/2,1",
       "gamma:2/3,5/7", *(f"gaussian:{v}" for v in ("1", "1/3", "1/4", "1/100", "3/5")),
       *(f"~{spec}" for spec in ("unit", "exponential", "gamma:2,1/2", "logfact")), *LISTS]
PAST_FLOAT = ["gaussian:1e400", "gamma:1e400,1", "gamma:1,1e400",
              *(f"gamma:{m},{t}" for m in ("1", "2", "1/2", "1e400") for t in ("1e-320", "1e-400"))]
# (laws, intensities, populations, k_max); a cell in several blocks runs to the largest k_max
BLOCKS = [
    (ZOO, X_ALL, N_ALL, 20),  # every law at every intensity and population
    # the array at d = 1 and 2, a declared P/Q and the V_j to order 300
    (["unit", "ones", "exponential", "logfact", *(f"gaussian:{v}" for v in ("1", "1/3", "1/8", "3/5"))],
     X_ROUTE, [None], 300),
    # every route at every population to 120, and Miller's row to 300
    (["unit", "gaussian:1/3", "exponential", "bernoulli", "~exponential"], X_ROUTE, N_ALL, 120),
    (["bernoulli"], [Fraction(7, 2)], [1000], 300),
    # gamma's declared P/Q of order m + 1, cut at the orders read at m = 1e18
    ([f"gamma:{m},{t}" for m in (1, 2, 3, 5) for t in ("1", "1/2", "2/3", "5/7")] + ["gamma:1e18,1"],
     X_ROUTE, [None], 60),
    # a parameter or a radius past float range is inf in the floats only
    (PAST_FLOAT, [1, Fraction(7, 2)], [None], 40),
    (PAST_FLOAT, [Fraction(7, 2)], [3], 20),
    # odd orders of the even laws, the first orders at small n, n below k, and n = 10^6
    (["gaussian:1", "bernoulli"], [3], [None], 9),
    (["unit", "gaussian:1", "gamma:2,1/2", "bernoulli", "exponential", "logfact"],
     [Fraction(2, 3)], [50], 1),
    (["exponential", "gamma:2,1/2"], [Fraction(1, 2)], [2], 2),
    (["unit"], [Fraction(7, 2)], [7], 40),
    (["unit"], [1], [10**6], 3),
    # the mean shifts' first orders (a law of mean 0 is its own shift)
    (["~unit", "~exponential", "~gamma:2,1/2", "~logfact", "gaussian:1", "bernoulli"],
     [2, Fraction(5, 2)], [None], 2),
]


def merged(blocks):
    """One (law, x, n, k_max) cell per law, x and n, with k_max cut at a custom list's end."""
    top = {}
    for laws, xs, ns, k_max in blocks:
        for law, x, n in itertools.product(laws, xs, ns):
            k = min(k_max, len(LISTS[law]) - 1) if law in LISTS else k_max
            top[law, x, n] = max(top.get((law, x, n), 0), k)
    return [(*cell, k_max) for cell, k_max in top.items()]


CELLS = merged(BLOCKS)
SHORT = {10**300: "1e300", Fraction(0.7373): "0.7373"}


@functools.cache
def model_of(law):
    if law in LISTS:
        return weights.custom_model(list(LISTS[law]))
    model = weights.from_spec(law.lstrip("~"))
    return weights.tilde_transform(model) if law.startswith("~") else model


def route_of(law, n):
    """The route of a cell, from its law's family: a derived law declares no structure."""
    if n is not None:
        return "Miller"
    if law in LISTS or law.startswith("~"):
        return "V_j"
    head, params, _ = reference.parse(law)
    if head == "gamma" and params[0].denominator == 1:
        return "P/Q"
    return {"unit": "array d=1", "gaussian": "array d=2", "exponential": "P/Q",
            "logfact": "P/Q"}.get(head, "V_j")


def traced(monkeypatch):
    """The (route, V_j read) of each table ``moment_sequence`` builds from here on."""
    taken = []
    array, recurrence = moments._touchard_table, moments._recurrence_table
    monkeypatch.setattr(moments, "_touchard_table", lambda a, deg, *args: (
        taken.append((f"array d={deg}", None)), array(a, deg, *args))[1])
    monkeypatch.setattr(moments, "_recurrence_table", lambda ps, qs, n, *args: (taken.append(
        ("P/Q", None) if qs is not None else ("V_j" if n is None else "Miller", ps)),
        recurrence(ps, qs, n, *args))[1])
    return taken


@pytest.mark.parametrize("law, x, n, k_max", CELLS,
                         ids=[f"{law}-{SHORT.get(x, x)}-{n}-{k}" for law, x, n, k in CELLS])
def test_cell_matches_the_reference_on_its_route(law, x, n, k_max, monkeypatch):
    taken = traced(monkeypatch)
    got = moments.moment_sequence(model_of(law), k_max, x, n)
    v = reference.exact_v(LISTS.get(law, law), k_max)
    assert got == reference.convolution(v, x, k_max, n)
    assert all(type(m) is Fraction for m in got)
    route = route_of(law, n)
    assert taken == [(route, v[1:] if route in ("V_j", "Miller") else None)]


def test_every_route_reaches_order_300():
    top = {}
    for law, _, n, k_max in CELLS:
        top[route_of(law, n)] = max(top.get(route_of(law, n), 0), k_max)
    assert sorted(top) == sorted(ROUTES) and min(top.values()) >= 300, top


def test_reference_imports_nothing_from_the_package():
    tree = ast.parse(Path(reference.__file__).read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module or "." for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert names and [name for name in names if "cpmoments" in name or name.startswith(".")] == []


@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=12), min_size=1, max_size=14),
       st.sampled_from(X_ALL), st.sampled_from(N_ALL), st.integers(0, 14), st.booleans())
def test_custom_lists_match_the_reference(tail, x, n, k_max, tilde):
    model = weights.custom_model([1, *tail])
    if tilde:
        model = weights.tilde_transform(model)
    k_max = min(k_max, len(tail))
    want = reference.exact_moments([1, 0 if tilde else tail[0], *tail[1:]], x, k_max, n)
    assert moments.moment_sequence(model, k_max, x, n) == want


@given(st.sampled_from([law for law in ZOO if len(LISTS.get(law, range(61))) > 60]),
       st.integers(0, 60), st.fractions(min_value=-3, max_value=3, max_denominator=50),
       st.sampled_from(N_ALL))
def test_random_orders_and_intensities(law, k_max, x, n):
    want = reference.exact_moments(LISTS.get(law, law), x, k_max, n)
    assert moments.moment_sequence(model_of(law), k_max, x, n) == want
