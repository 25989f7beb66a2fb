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

Trials run in blocks of about BLOCK_WORK vertices and expected edges, one
trial a block for larger graphs (``_block_trials``), on threads, one per
usable CPU and block (``trial_workers``), since numpy releases the GIL in
the draws and in most array passes (``np.add.at`` keeps it).  Each thread
keeps one Philox generator per trial of a block and re-keys each to its
trial's stream, which draws the same bits as a new generator.  A block
draws each graph's first batch of exponentials from its own stream and
turns all of them into slot indices in one pass, so a trial of a small
graph makes about five numpy calls of its own, each releasing and retaking
the GIL, where it made about twelve.  On a shared 2-core x86-64 host, 3000
graphs of n = 200 (blocks of 21) took a median 433 ms on one thread and
387 ms on two, against 520 and 469 ms with a gap pass per graph (21
alternating in-process runs each); the other core was partly busy there,
so two single-threaded processes ran 1.6 times slower each than one.  A
block then draws the weights and sums the degrees of all its graphs
together, one stretch of whole rows of about EDGE_BLOCK edges at a time,
each graph's weights from its own stream.  Trial t writes
D_max[t] from stream (seed, t), so the samples are the same bits for any
number of threads and any block size.  The blocks in flight hold at most
MAX_TRIAL_WORK vertices and edges together, as one graph of the largest
admitted size does, and a block keeps one array of its edge count: the
slot indices, overwritten by column indices.  Two trials of n = 10^6 at
kappa = 4 (2.8e7 edges each, one thread) peaked at 302 MB of resident
memory, against 512 MB when each graph also kept an array of its weights.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
from dataclasses import dataclass

from ._numpy import np
from .asymptotics import rate_function
from .errors import DomainError
from .weights import WeightDraw, WeightModel, from_spec, tilde_transform

# a graph's work is its vertices and expected edges: one trial's arrays take
# 52-62 bytes for each vertex and 8 for each edge (tracemalloc peaks from
# n = 1e4 to 2e6), and a run 40-85 ns for each (2-core x86-64)
MAX_TRIAL_WORK = 3 * 10**7  # work of one graph, at most about 1.8 GB of arrays
TRIAL_COST = 1000  # a trial's fixed cost as work; its stream and calls take 9-17 us in blocks
MAX_GRAPH_WORK = 10**9  # work and TRIAL_COST summed over the trials, about a minute
# graphs drawn together as one block of trials hold about this much work
BLOCK_WORK = 5 * 10**4
# edges per block of a trial's weights, row sums and column indices: each
# block holds a few temporaries of its length, so the n = 20000 benchmark
# graph peaks at 4.7, 4.2 and 3.9 MiB under tracemalloc at 2^16, 2^15 and
# 2^14; 2^14 makes twice the blocks and ran graph_mc about 4% slower
EDGE_BLOCK = 2**15


@dataclass(frozen=True)
class GraphSimConfig:
    """One simulation setup at intensity rho = kappa ln n; rho/n is the edge
    probability.  kappa is the one intensity field: the graphs are drawn at
    ``rho`` and the bound is computed at kappa, so the two cannot disagree.
    ``s_values`` is kept as a tuple.  Refuses a graph above MAX_TRIAL_WORK
    and a run above MAX_GRAPH_WORK."""

    n: int
    kappa: float
    weight_name: str
    s_values: tuple[float, ...]
    trials: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_values", tuple(self.s_values))
        if self.n < 2:
            raise DomainError("need n >= 2 vertices")
        if self.n > sys.float_info.max:  # rho / n is no float
            raise DomainError(f"one graph of {self.n} vertices is more than {MAX_TRIAL_WORK}"
                              " vertices and edges")
        if not 0.0 <= self.rho / self.n <= 1.0:
            raise DomainError("edge probability rho/n must lie in [0, 1]")
        if self.trials < 1:
            raise DomainError("need at least one trial")
        work = self.trial_work
        if work > MAX_TRIAL_WORK:
            raise DomainError(f"one graph of {self.n} vertices and {work - self.n:.3g} expected"
                              f" edges is more than {MAX_TRIAL_WORK} vertices and edges")
        if self.trials > MAX_GRAPH_WORK / (work + TRIAL_COST):
            raise DomainError(f"{self.trials} trials of {work:.3g} vertices and edges, plus"
                              f" {TRIAL_COST} per trial, are more than {MAX_GRAPH_WORK} in all")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 bits")

    @property
    def rho(self) -> float:
        return self.kappa * math.log(self.n)

    @property
    def trial_work(self) -> float:
        """One graph's vertices and expected edges."""
        return self.n + (self.n - 1) / 2 * self.rho


config_from_kappa = GraphSimConfig  # the constructor's name from when configs held rho


@dataclass(frozen=True)
class GraphTrialResult:
    """Per-s deviation estimates, in the order of ``config.s_values``, from a
    shared set of D_max draws."""

    config: GraphSimConfig
    dmax_samples: np.ndarray
    p_hat: tuple[float, ...]
    ci_half_width: tuple[float, ...]
    bound: tuple[float, ...]
    vacuous: tuple[bool, ...]
    threshold_s: float


def weight_sampler(name: str) -> tuple[WeightDraw, WeightModel]:
    """(draw function, model) for a ``weights.from_spec`` spec whose model has
    a sampler and a mean V_1 in float range."""
    model = from_spec(name)
    if model.sample is None:
        raise DomainError(f"weight model {name!r} cannot be sampled")
    if model.moment(1) > sys.float_info.max:
        raise DomainError(f"weight model {name!r} has a mean V_1 past float range")
    return model.sample, model


def trial_generator(
    seed: int, trial: int, rng: np.random.Generator | None = None
) -> np.random.Generator:
    """Counter-based stream for one trial; independent of execution order.

    Given a Philox ``rng``, re-keys it to the stream and returns it: its
    counter, buffer and buffered 32-bit half are set as a new generator's,
    so it draws the same bits without a new generator's entropy setup
    (about 1.5 us against 16 us, with the GIL held).  The re-keyed stream
    is the same object, so a block of graphs, which ``sample_degrees``
    draws from all at once, re-keys one generator per graph.
    """
    if rng is None:
        return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))
    zero = (0, 0, 0, 0)
    rng.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": zero, "key": (seed, trial)},
                               "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def _geometric_gaps(
    rngs: list[np.random.Generator], p: float, size: int, cap: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``rng.geometric(p, size)`` of each generator of ``rngs``, one row each,
    with every gap above ``cap`` cut to ``cap``: an int64 (len(rngs), size)
    array, the float64 C-contiguous ``out`` of that shape viewed as int64,
    where given.

    Below p = 1/3 numpy's sampler is ceil(-E / ln(1 - p)) for one Exp(1)
    draw E per gap.  Each generator draws its exponentials into its row, and
    the same division, done once in place over all rows, gives the same gaps
    from the same draws.  At and above 1/3 numpy searches instead, and its
    gaps stay small.
    """
    gaps = np.empty((len(rngs), size)) if out is None else out
    cast = gaps.view(np.int64)
    if p >= 1.0 / 3.0:
        for row, rng in zip(cast, rngs):
            row[...] = rng.geometric(p, size=size)
        return np.minimum(cast, cap, out=cast)
    for row, rng in zip(gaps, rngs):
        rng.standard_exponential(size, out=row)
    gaps /= -math.log1p(-p)
    np.ceil(gaps, out=gaps)
    # cut before the cast: a gap past INT64_MAX has no int64 value, and
    # numpy's saturated INT64_MAX gaps make the gap sum wrap
    np.minimum(gaps, cap, out=gaps)
    # cast in place: numpy assigns a 1-d array onto its own buffer element by
    # element, where a 2-d one would go through a temporary copy
    cast.reshape(-1)[...] = gaps.reshape(-1)
    return cast


@functools.lru_cache(maxsize=8)
def _row_tables(n: int, graphs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (bin, flat index of slot (i, i + 1), that index - bin - 1)
    for row i of graph t, at bin t n + i, over ``graphs`` graphs whose slots
    follow one another, n(n - 1)/2 each; the flat indices go on to bin
    graphs n, where the last triangle ends."""
    idx = np.arange(graphs * n + 1, dtype=np.int64)
    graph, row = np.divmod(idx, n)
    row_start = graph * (n * (n - 1) // 2) + row * n - row * (row + 1) // 2
    tables = (idx[:-1], row_start, (row_start - idx - 1)[:-1])
    for table in tables:
        table.flags.writeable = False
    return tables


def _gap_batch(expected: float) -> int:
    """Gaps drawn at once for a process of ``expected`` edges: 8 standard
    deviations past the mean, so a second batch is rare."""
    return int(expected + 8.0 * math.sqrt(expected + 1.0)) + 16


def sample_degrees(
    n: int, edge_p: float, draw: WeightDraw, rngs, gaps: np.ndarray | None = None
) -> np.ndarray:
    """All n weighted degrees of one graph drawn from each generator of
    ``rngs``, as a (graphs, n) array; one graph is a block of one.  The
    generators must be distinct objects, since all of them are drawn from
    at once: a generator given twice, as by an iterable that re-keys one
    generator (``trial_generator``), is refused.  Graph t draws its first
    ``_gap_batch`` gaps into row t of ``gaps``, where given: a caller that
    passes one array to every call allocates it once, where a new array of
    some megabytes per graph is mapped and faulted in again each time (1650
    page faults, 10-15% of an n = 20000 graph's time).  Refuses an
    ``edge_p`` outside [0, 1], NaN included.

    The upper-triangle slots of each graph are visited as a Bernoulli(edge_p)
    process via cumulative geometric gaps (``_geometric_gaps``).  Every graph
    draws its first batch of exponentials from its own stream, and the gap
    transform and cumulative sum then run once over the block; graph t's
    slots are shifted by t n(n - 1)/2.  Each graph then draws any second
    batch.  At a subnormal edge_p a gap E / -ln(1 - p) overflows to inf,
    which the cut to the gap cap handles, so the draws run with overflow
    warnings off.  The slot indices of all graphs form one sorted array,
    split into rows by counting, for each row, the indices before its row
    start; slot (i, j) of graph t sits at row_start[t n + i] + j - i - 1.

    The slot indices are the only array of one graph's size.  The weights
    are drawn over blocks of whole rows of about EDGE_BLOCK edges, in edge
    order, each graph's from its own stream: a stream draws all its gaps,
    then its edge count of weights in one or more pieces, which a
    ``WeightDraw`` draws as the same bits as one call, so a graph gets the
    weights it would get drawn alone.  Each block takes its rows' sums with
    one ``bincount`` and turns its slots into column indices in place;
    ``np.add.at`` adds its weights onto one array of column sums, and so
    adds each column in edge order across the blocks, as one ``bincount``
    over all edges would (a ``bincount`` per block, summed, would change the
    last bits).  Every sum thus adds its weights in edge order whatever the
    blocks and however many graphs are drawn together.
    """
    if not 0.0 <= edge_p <= 1.0:
        raise DomainError("edge probability must lie in [0, 1]")
    rngs = list(rngs)
    graphs = len(rngs)
    if len(set(map(id, rngs))) < graphs:
        raise ValueError("one generator is given for two graphs; each graph needs its own")
    npairs = n * (n - 1) // 2
    if npairs == 0 or edge_p <= 0.0 or graphs == 0:
        return np.zeros((graphs, n))
    parts = []
    with np.errstate(over="ignore"):
        # a gap of npairs + 1 already ends the process: cutting longer ones
        # moves no kept slot
        pos = _geometric_gaps(rngs, edge_p, _gap_batch(npairs * edge_p), npairs + 1,
                              None if gaps is None else gaps[:graphs])
        pos[:, 0] += np.arange(-1, graphs * npairs - 1, npairs)  # slot = cumulative gap - 1
        np.cumsum(pos, axis=1, out=pos)
        for graph, (stream, row) in enumerate(zip(rngs, pos)):
            end = (graph + 1) * npairs  # this graph's slots end here
            while row[-1] < end:
                more = _geometric_gaps([stream], edge_p,
                                       max(16, int((end - 1 - row[-1]) * edge_p) + 16),
                                       npairs + 1)[0]
                more[0] += row[-1]
                row = np.concatenate([row, np.cumsum(more, out=more)])
            parts.append(row[: row.searchsorted(end)])
    pos = parts[0] if graphs == 1 else np.concatenate(parts)
    del parts  # concatenated parts are freed here, not at return
    idx, row_start, offset = _row_tables(n, graphs)
    first = np.searchsorted(pos, row_start)  # each row's first edge, then the end
    counts = first[1:] - first[:-1]
    graph_first = first[::n].tolist()  # each graph's first edge, then the end
    rows, cols = np.zeros(idx.size), np.zeros(idx.size)
    cuts = np.searchsorted(first, range(EDGE_BLOCK, pos.size, EDGE_BLOCK)).tolist()
    for r0, r1 in zip([0, *cuts], [*cuts, idx.size]):
        e0, e1 = int(first[r0]), int(first[r1])
        if e0 == e1:  # no edge, or one row of more than EDGE_BLOCK edges
            continue
        # the block's weights in edge order, each graph's from its own stream
        draws = []
        for g in range(r0 // n, (r1 - 1) // n + 1):
            size = min(e1, graph_first[g + 1]) - max(e0, graph_first[g])
            if size:
                draws.append(draw(rngs[g], size))
        w = draws[0] if len(draws) == 1 else np.concatenate(draws)
        rows[r0:r1] = np.bincount(np.repeat(idx[: r1 - r0], counts[r0:r1]),
                                  weights=w, minlength=r1 - r0)
        block = pos[e0:e1]
        block -= np.repeat(offset[r0:r1], counts[r0:r1])  # slots to columns
        np.add.at(cols, block, w)  # each column in edge order, as one bincount adds
    rows += cols
    return rows.reshape(graphs, n)


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
    """``moment_union_bound`` from its threshold s*: (min(value, 1), value >= 1)
    for value = (s*/s')^(2 ln n).  Vacuous, (1.0, True), where s' <= 0, as a
    deviation at or below the mean bounds nothing, and where the value
    passes float range."""
    if s_prime <= 0:
        return 1.0, True
    try:
        value = (threshold / s_prime) ** (2.0 * math.log(n))
    except OverflowError:
        return 1.0, True
    return min(value, 1.0), value >= 1.0


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_trials(work: float) -> int:
    """Trials per block for graphs of ``work`` vertices and expected edges:
    as many as fit in BLOCK_WORK, and at least one."""
    return max(1, int(BLOCK_WORK // work))


def trial_workers(work: float, trials: int) -> int:
    """Threads for ``trials`` graphs of ``work`` vertices and expected edges
    each: one per usable CPU and block of trials (``_block_trials``), with
    the blocks in flight held to MAX_TRIAL_WORK."""
    size = _block_trials(work)
    return max(1, min(_usable_cpus(), -(-trials // size), int(MAX_TRIAL_WORK // (work * size))))


def _dmax_samples(config: GraphSimConfig, draw: WeightDraw) -> np.ndarray:
    """D_max of every trial of ``config``, drawn in blocks of trials on
    ``trial_workers`` threads.

    Trial t draws from its own stream and writes dmax[t], so the samples are
    the same for any number of threads and any block size.  Each thread keeps
    one generator per trial of a block and re-keys each to its trial's stream
    for every block, as ``sample_degrees`` draws from all of a block's
    streams at once.  The calling thread is one of them; the first exception
    of any stops the others after their current block, and is raised once
    all have ended.
    """
    n, trials, seed = config.n, config.trials, config.seed
    edge_p = config.rho / n
    size = _block_trials(config.trial_work)
    dmax = np.empty(trials)
    unclaimed, claim = iter(range(0, trials, size)), threading.Lock()
    failed: list[BaseException] = []

    def run() -> None:
        # this thread's generators and gap rows, one of each per trial of a
        # block, used by every block; a generator is made by its first trial
        rngs: list = [None] * size
        try:
            gaps = np.empty((size, _gap_batch(n * (n - 1) // 2 * edge_p)))
            while not failed:
                with claim:
                    start = next(unclaimed, None)
                if start is None:
                    return
                block = range(start, min(start + size, trials))
                for slot, t in enumerate(block):
                    rngs[slot] = trial_generator(seed, t, rngs[slot])
                dmax[block.start:block.stop] = sample_degrees(n, edge_p, draw, rngs[: len(block)],
                                                              gaps).max(axis=1)
        except BaseException as exc:  # raised by the calling thread once all have ended
            failed.append(exc)

    threads = [threading.Thread(target=run, daemon=True)
               for _ in range(trial_workers(config.trial_work, trials) - 1)]
    for thread in threads:
        thread.start()
    try:
        run()
    finally:
        for thread in threads:
            thread.join()
    if failed:
        raise failed[0]
    return dmax


def deviation_experiment(config: GraphSimConfig) -> GraphTrialResult:
    """Estimate P(|D_max/rho - V_1| > s) over the configured s grid.

    All s values share the same D_max draws, so the estimated probability is
    non-increasing in s by construction.
    """
    draw, model = weight_sampler(config.weight_name)
    v1 = float(model.moment(1))
    # the one saddle solve of the run; a kappa or model out of its reach
    # refuses here, before any trial is drawn
    threshold = critical_deviation_threshold(model, config.kappa)
    n, rho, trials = config.n, config.rho, config.trials
    dmax = _dmax_samples(config, draw)
    deviations = np.abs(dmax / rho - v1)

    p_hat, ci, bounds = [], [], []
    for s in config.s_values:
        p = float(np.mean(deviations > s))
        p_hat.append(p)
        # continuity guard: at p in {0, 1} use half an observation
        p_tilde = min(max(p, 0.5 / trials), 1.0 - 0.5 / trials)
        ci.append(1.96 * math.sqrt(p_tilde * (1.0 - p_tilde) / trials))
        bounds.append(_union_bound(threshold, n, s - v1 / n))

    return GraphTrialResult(
        config=config,
        dmax_samples=dmax,
        p_hat=tuple(p_hat),
        ci_half_width=tuple(ci),
        bound=tuple(b for b, _ in bounds),
        vacuous=tuple(vac for _, vac in bounds),
        threshold_s=threshold,
    )
