"""Monte Carlo study of the maximal weighted degree of sparse random graphs.

Each of the n(n-1)/2 vertex pairs carries an edge independently with
probability rho/n (zero diagonal, symmetric), and every present edge
receives an i.i.d. weight with moment sequence V.  The weighted degree of a
vertex is the sum of weights over its incident edges; D_max is the maximum
over the n vertices.  This module samples D_max, estimates the two-sided
deviation probability P(|D_max/rho - V_1| > s), and evaluates the analytic
quantities it is compared against at rho = kappa ln n:

* the critical threshold  s* = exp( Psit(kappa/2) + 1/2 ),
* the union bound         (s*/s')^(2 ln n),

where Psit is the rate function (``asymptotics.rate_function``) of the
mean-shift transform Ht(u) = H(u) - u V_1 and s' = s - V_1/n.  Both come
from a Markov bound on the centered degree's moment of even order 2 ln n at
intensity rho, whose order-to-intensity ratio (2 ln n)/rho = 2/kappa puts
the rate at chi = kappa/2.

Edge sets are generated as a Bernoulli process over the flattened
upper-triangle index space using geometric gap skipping; this reproduces the
row-by-row "binomial count + uniform partners" construction exactly, in
O(E) expected time and vectorized form.  Below p = 1/3 each gap is the
inversion ceil(E / -ln(1 - p)) of an Exp(1) draw E (Devroye 1986, ch. X),
done in place on the stream's exponentials, which is the draw numpy's
geometric sampler makes there; at and above 1/3 numpy's search sampler
draws the gaps.  The row of each edge comes from per-row edge counts, n
lookups into the sorted positions rather than one lookup per edge.  Every
trial draws from its own counter-based Philox stream keyed by (seed, trial
index), so results do not depend on trial execution order and are
bit-reproducible for a given seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ._numpy import np
from .asymptotics import rate_function
from .errors import DomainError
from .weights import WeightDraw, WeightModel, from_spec, tilde_transform


@dataclass(frozen=True)
class GraphSimConfig:
    """One simulation setup; rho/n is the edge probability."""

    n: int
    rho: float
    weight_name: str
    s_values: tuple[float, ...]
    trials: int
    seed: int
    kappa: float | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DomainError("need n >= 2 vertices")
        if not 0.0 <= self.rho / self.n <= 1.0:
            raise DomainError("edge probability rho/n must lie in [0, 1]")
        if self.trials < 1:
            raise DomainError("need at least one trial")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 bits")


def config_from_kappa(
    n: int,
    kappa: float,
    weight_name: str,
    s_values: tuple[float, ...],
    trials: int,
    seed: int,
) -> GraphSimConfig:
    """Convenience constructor with rho = kappa * ln n."""
    return GraphSimConfig(
        n=n,
        rho=kappa * math.log(max(n, 1)),  # GraphSimConfig rejects n < 2
        weight_name=weight_name,
        s_values=tuple(s_values),
        trials=trials,
        seed=seed,
        kappa=kappa,
    )


@dataclass(frozen=True)
class GraphTrialResult:
    """Per-s deviation estimates from a shared set of D_max draws."""

    config: GraphSimConfig
    dmax_samples: np.ndarray
    s_values: tuple[float, ...]
    p_hat: tuple[float, ...]
    ci_half_width: tuple[float, ...]
    bound: tuple[float, ...]
    vacuous: tuple[bool, ...]
    threshold_s: float


def weight_sampler(name: str) -> tuple[WeightDraw, WeightModel]:
    """(draw function, model) for a ``weights.from_spec`` spec whose model has a sampler."""
    model = from_spec(name)
    if model.sample is None:
        raise DomainError(f"weight model {name!r} cannot be sampled")
    return model.sample, model


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream for one trial; independent of execution order."""
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _geometric_gaps(
    rng: np.random.Generator, p: float, size: int, cap: int
) -> np.ndarray:
    """``rng.geometric(p, size)`` with every gap above ``cap`` cut to ``cap``.

    Below p = 1/3 numpy's sampler is ceil(-E / ln(1 - p)) for one Exp(1)
    draw E per gap; the same division, done in place on the stream's
    exponentials, gives the same gaps from the same draws.  At and above 1/3
    numpy searches instead, and its gaps stay small.
    """
    if p >= 1.0 / 3.0:
        return np.minimum(rng.geometric(p, size=size), cap)
    gaps = rng.standard_exponential(size)
    gaps /= -math.log1p(-p)
    np.ceil(gaps, out=gaps)
    # cut before the cast: a gap past INT64_MAX has no int64 value, and
    # numpy's saturated INT64_MAX gaps make the gap sum wrap
    np.minimum(gaps, cap, out=gaps)
    return gaps.astype(np.int64)


@functools.lru_cache(maxsize=8)
def _row_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (row i, flat index of slot (i, i + 1), that index - i - 1) for i < n."""
    idx = np.arange(n, dtype=np.int64)
    row_start = idx * n - idx * (idx + 1) // 2
    tables = (idx, row_start, row_start - idx - 1)
    for table in tables:
        table.flags.writeable = False
    return tables


def sample_degrees(
    n: int, edge_p: float, draw: WeightDraw, rng: np.random.Generator
) -> np.ndarray:
    """All n weighted degrees of one graph draw.

    The upper-triangle slots are visited as a Bernoulli(edge_p) process via
    cumulative geometric gaps (``_geometric_gaps``).  The sorted flat slot
    indices are split into rows by counting, for each row, the indices
    before its row start; slot (i, j) sits at row_start[i] + j - i - 1.
    """
    deg = np.zeros(n)
    npairs = n * (n - 1) // 2
    if npairs == 0 or edge_p <= 0.0:
        return deg
    if edge_p > 1.0:
        raise DomainError("edge probability must be <= 1")

    expected = npairs * edge_p
    batch = int(expected + 8.0 * math.sqrt(expected + 1.0)) + 16
    chunks = []
    total = 0
    while total <= npairs:
        # a gap of npairs + 1 already ends the process: cutting longer ones
        # moves no kept slot
        gaps = _geometric_gaps(rng, edge_p, batch, npairs + 1)
        chunks.append(gaps)
        total += int(gaps.sum())
        batch = max(16, int((npairs - total) * edge_p) + 16)
    pos = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    pos[0] -= 1  # slot index = cumulative gap - 1
    np.cumsum(pos, out=pos)
    pos = pos[: np.searchsorted(pos, npairs)]
    if pos.size == 0:
        return deg

    idx, row_start, offset = _row_tables(n)
    counts = np.diff(np.searchsorted(pos, row_start), append=pos.size)
    i = np.repeat(idx, counts)
    j = pos - np.repeat(offset, counts)
    w = draw(rng, pos.size)
    return np.bincount(i, weights=w, minlength=n) + np.bincount(j, weights=w, minlength=n)


def critical_deviation_threshold(model: WeightModel, kappa: float) -> float:
    """Critical s above which P(|D_max/rho - V_1| > s) -> 0 at rho = kappa ln n.

    Evaluates s* = exp( Psit(kappa/2) + 1/2 ), Psit the rate function of the
    mean-shift model ``tilde_transform(model)``.
    """
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    return math.exp(rate_function(tilde_transform(model), kappa / 2.0).psi + 0.5)


def moment_union_bound(
    model: WeightModel, n: int, kappa: float, s_prime: float
) -> tuple[float, bool]:
    """Union-of-vertices Markov bound on P(|D_max - rho V_1| >= s' rho).

    Uses the centered degree's moment of even order 2 ln n; returns
    (min(value, 1), vacuous flag) for value = (s*/s')^(2 ln n), s* the
    ``critical_deviation_threshold``, so the bound is vacuous iff s' <= s*.
    """
    if s_prime <= 0:
        raise DomainError("s' must be positive")
    if n < 2:
        raise DomainError("need n >= 2")
    return _union_bound(critical_deviation_threshold(model, kappa), n, s_prime)


def _union_bound(threshold: float, n: int, s_prime: float) -> tuple[float, bool]:
    """``moment_union_bound`` from its threshold s*; a value past float range is vacuous."""
    try:
        value = (threshold / s_prime) ** (2.0 * math.log(n))
    except OverflowError:
        return 1.0, True
    return min(value, 1.0), value >= 1.0


def deviation_experiment(config: GraphSimConfig) -> GraphTrialResult:
    """Estimate P(|D_max/rho - V_1| > s) over the configured s grid.

    All s values share the same D_max draws, so the estimated probability is
    non-increasing in s by construction.
    """
    draw, model = weight_sampler(config.weight_name)
    v1 = float(model.moment(1))
    kappa = config.kappa if config.kappa is not None else config.rho / math.log(config.n)
    # the one saddle solve of the run; a kappa or model out of its reach
    # refuses here, before any trial is drawn
    threshold = critical_deviation_threshold(model, kappa)
    edge_p = config.rho / config.n
    dmax = np.empty(config.trials)
    for t in range(config.trials):
        rng = trial_generator(config.seed, t)
        dmax[t] = sample_degrees(config.n, edge_p, draw, rng).max()

    deviations = np.abs(dmax / config.rho - v1)

    trials = config.trials
    p_hat, ci, bounds, vacuous = [], [], [], []
    for s in config.s_values:
        p = float(np.mean(deviations > s))
        p_hat.append(p)
        # continuity guard: at p in {0, 1} use half an observation
        p_tilde = min(max(p, 0.5 / trials), 1.0 - 0.5 / trials)
        ci.append(1.96 * math.sqrt(p_tilde * (1.0 - p_tilde) / trials))
        s_prime = s - v1 / config.n
        if s_prime <= 0:
            bounds.append(1.0)
            vacuous.append(True)
        else:
            b, vac = _union_bound(threshold, config.n, s_prime)
            bounds.append(b)
            vacuous.append(vac)

    return GraphTrialResult(
        config=config,
        dmax_samples=dmax,
        s_values=tuple(config.s_values),
        p_hat=tuple(p_hat),
        ci_half_width=tuple(ci),
        bound=tuple(bounds),
        vacuous=tuple(vacuous),
        threshold_s=threshold,
    )
