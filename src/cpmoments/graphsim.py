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
together, one block of whole rows of about EDGE_BLOCK edges at a time,
each graph's weights from its own stream.  Trial t writes
D_max[t] from stream (seed, t), so the samples are the same bits for any
number of threads and any block size.  The blocks in flight hold at most
MAX_TRIAL_WORK vertices and edges together, as one graph of the largest
admitted size does.

Memory is linear in n, not in the edge count.  A block of several graphs,
or of one graph of at most BLOCK_WORK expected edges, holds its slot
indices in one array of its edge count, at most about BLOCK_WORK.  A
larger graph never holds its slots: it draws its gaps twice from the same
bits, in stretches of BLOCK_WORK, and keeps one stretch and at most one
partial row of slots at a time, so only graphs past one stretch draw their
gaps twice.  Its arrays then take about 50-60 bytes a vertex, its row
tables and degree sums, and a fixed 1.5 MiB.  Two trials of n = 10^6 at
kappa = 4 (2.8e7 edges each, one thread) peaked at 78 MB of resident
memory, against 302 MB when each graph kept its slot indices; the second
gap pass makes an n = 20000 graph (4e5 edges) about 4 ms slower on one
thread, 32 ms against 28.
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

# a graph's work is its vertices and expected edges: a run takes 40-85 ns
# for each (2-core x86-64), so the caps bound time; one trial's arrays take
# about 50-60 bytes for each vertex and none for each edge past a stretch
# of BLOCK_WORK (tracemalloc peaks from n = 1e5 to 2e6)
MAX_TRIAL_WORK = 3 * 10**7  # work of one graph, a few seconds and at most about 1.8 GB
TRIAL_COST = 1000  # a trial's fixed cost as work; its stream and calls take 9-17 us in blocks
MAX_GRAPH_WORK = 10**9  # work and TRIAL_COST summed over the trials, about a minute
# graphs drawn together as one block of trials hold about this much work,
# and one graph of more expected edges streams its gaps this many at a time
BLOCK_WORK = 5 * 10**4
# edges per block of a trial's weights, row sums and column indices: each
# block holds a few temporaries of its length, so the n = 20000 benchmark
# graph peaks at 1.7, 1.5 and 1.2 MiB under tracemalloc at 2^16, 2^15 and
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
    gaps stay small.  Either way each gap takes its own draws in turn, so
    gaps drawn in pieces are the bits of one call.
    """
    gaps = np.empty((len(rngs), size)) if out is None else out
    cast = gaps.view(np.int64)
    if p >= 1.0 / 3.0:
        for row, rng in zip(cast, rngs):
            row[...] = rng.geometric(p, size=size)
        return np.minimum(cast, cap, out=cast)
    for row, rng in zip(gaps, rngs):
        rng.standard_exponential(size, out=row)
    # at a subnormal p a gap E / -ln(1 - p) overflows to inf, which the cut
    # to cap handles
    with np.errstate(over="ignore"):
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


def _more_gaps(left: int, p: float) -> int:
    """Gaps of the next batch, where ``left`` slots are still to be visited."""
    return max(16, int(left * p) + 16)


def _streams(n: int, edge_p: float, graphs: int) -> bool:
    """Whether a block of ``graphs`` graphs streams its gaps
    (``_streamed_slots``): one graph of more than BLOCK_WORK expected
    edges.  ``_block_trials`` puts such a graph in a block of its own."""
    return graphs == 1 and n * (n - 1) // 2 * edge_p > BLOCK_WORK


def _gap_width(n: int, edge_p: float, graphs: int) -> int:
    """Gaps a block of ``graphs`` graphs draws into its buffer's rows, one
    row each: the first ``_gap_batch``, or, where the block streams, a
    stretch of BLOCK_WORK and one row's slots."""
    if _streams(n, edge_p, graphs):
        return int(BLOCK_WORK) + n
    return _gap_batch(n * (n - 1) // 2 * edge_p)


def _block_slots(n: int, edge_p: float, rngs: list, gaps: np.ndarray) -> np.ndarray:
    """The sorted slots of the edges of every graph of a block, drawn in one
    gap pass: graph t draws its first batch into row t of ``gaps``, then
    any more batches, and its slots are shifted by t n(n - 1)/2.

    The gap transform and cumulative sum run once over the block's rows.  A
    gap of n(n - 1)/2 + 1 already ends a graph, so the gaps are cut there,
    which moves no kept slot.  Where no graph drew a second batch, the
    slots move to the front of ``gaps``, each graph's to or before its own
    row, so the block allocates no new array of its edge count.  Made and
    freed once a block, where the allocator returns such arrays to the
    system, they cost 3000 graphs of n = 200 39000 page faults and about
    15% of their time."""
    graphs, npairs = len(rngs), n * (n - 1) // 2
    pos = _geometric_gaps(rngs, edge_p, gaps.shape[1], npairs + 1, gaps)
    pos[:, 0] += np.arange(-1, graphs * npairs - 1, npairs)  # slot = cumulative gap - 1
    np.cumsum(pos, axis=1, out=pos)
    parts, drew_more = [], False
    for graph, (stream, row) in enumerate(zip(rngs, pos)):
        end = (graph + 1) * npairs  # this graph's slots end here
        while row[-1] < end:
            more = _geometric_gaps([stream], edge_p, _more_gaps(end - 1 - row[-1], edge_p),
                                   npairs + 1)[0]
            more[0] += row[-1]
            row, drew_more = np.concatenate([row, np.cumsum(more, out=more)]), True
        parts.append(row[: row.searchsorted(end)])
    if graphs == 1 or drew_more:
        return parts[0] if graphs == 1 else np.concatenate(parts)
    flat, size = pos.reshape(-1), 0
    for part in parts:
        flat[size : size + part.size] = part
        size += part.size
    return flat[:size]


def _streamed_slots(n: int, edge_p: float, rng: np.random.Generator, buf: np.ndarray,
                    scratch: np.random.Generator, row_start: np.ndarray):
    """Yield (sorted slots, first row, end row) for one graph's edges, a
    stretch of whole rows at a time, from two passes over the gaps of
    ``rng``, BLOCK_WORK gaps at a time in the float64 ``buf`` of
    BLOCK_WORK + n.

    The first pass draws the gaps from ``rng`` in the batches
    ``_block_slots`` draws, and keeps only their running sum, so ``rng``
    ends where the gaps end and the graph's weights start.  The second
    pass sets ``scratch`` to ``rng``'s start state, redraws the same gaps
    and sums them into slots, carrying each stretch's last, partial row,
    of fewer than n slots, on to the next.  A caller may overwrite the
    slots of a yielded stretch."""
    npairs, stretch = n * (n - 1) // 2, int(BLOCK_WORK)
    start = rng.bit_generator.state
    last, size = -1, _gap_batch(npairs * edge_p)  # last: the slot of the last gap
    while last < npairs:
        for done in range(0, size, stretch):
            part = min(stretch, size - done)
            last += int(_geometric_gaps([rng], edge_p, part, npairs + 1, buf[None, :part]).sum())
        size = _more_gaps(npairs - 1 - last, edge_p)
    scratch.bit_generator.state = start
    slots = buf.view(np.int64)
    carry, last, r0 = 0, -1, 0
    while r0 < n:
        gaps = _geometric_gaps([scratch], edge_p, stretch, npairs + 1,
                               buf[None, carry : carry + stretch])[0]
        gaps[0] += last
        np.cumsum(gaps, out=gaps)
        last = int(gaps[-1])
        # rows before r1 end at or before the last slot; r1 = n once all do
        r1 = int(np.searchsorted(row_start, last + 1, side="right")) - 1
        cut = int(np.searchsorted(slots[: carry + stretch], row_start[r1]))
        yield slots[:cut], r0, r1
        carry += stretch - cut
        slots[:carry] = slots[cut : cut + carry]
        r0 = r1


def sample_degrees(
    n: int, edge_p: float, draw: WeightDraw, rngs, gaps: np.ndarray | None = None,
    scratch: np.random.Generator | None = None,
) -> np.ndarray:
    """All n weighted degrees of one graph drawn from each generator of
    ``rngs``, as a (graphs, n) array; one graph is a block of one.  The
    generators must be distinct objects, since all of them are drawn from
    at once: a generator given twice, as by an iterable that re-keys one
    generator (``trial_generator``), is refused.  Refuses an ``edge_p``
    outside [0, 1], NaN included.

    The upper-triangle slots of each graph are visited as a Bernoulli(edge_p)
    process via cumulative geometric gaps (``_geometric_gaps``).  A stream
    draws all its gaps, then its edge count of weights.  The gaps go into
    the rows of ``gaps``, a float64 array of ``_gap_width`` columns, where
    given: a caller that passes one array to every call allocates it once,
    where a new array of some megabytes per graph is mapped and faulted in
    again each time (1650 page faults, 10-15% of an n = 20000 graph's time).

    A block of several graphs, or of one graph of at most BLOCK_WORK
    expected edges, draws its gaps once (``_block_slots``), and holds all
    its slots in one sorted array.  A larger graph never holds all its
    slots (``_streamed_slots``): it draws its gaps twice from the same
    bits, in stretches of BLOCK_WORK, the second time from ``scratch``
    (a new generator where none is given) rewound to the start of its
    stream, and its slots arrive a stretch of whole rows at a time.  Its
    memory is then O(n + BLOCK_WORK + EDGE_BLOCK), not O(edges).

    Within each stretch, the weights are drawn over blocks of whole rows of
    about EDGE_BLOCK edges, in edge order, each graph's from its own
    stream, in one or more pieces, which a ``WeightDraw`` draws as the same
    bits as one call, so a graph gets the weights it would get drawn alone.
    Each block takes its rows' sums with one ``bincount`` and turns its
    slots into column indices in place (slot (i, j) of graph t sits at
    row_start[t n + i] + j - i - 1); ``np.add.at`` adds its weights onto
    one array of column sums, and so adds each column in edge order across
    the blocks, as one ``bincount`` over all edges would (a ``bincount`` per
    block, summed, would change the last bits).  Every sum thus adds its
    weights in edge order whatever the stretches and blocks and however
    many graphs are drawn together.
    """
    if not 0.0 <= edge_p <= 1.0:
        raise DomainError("edge probability must lie in [0, 1]")
    rngs = list(rngs)
    graphs = len(rngs)
    if len(set(map(id, rngs))) < graphs:
        raise ValueError("one generator is given for two graphs; each graph needs its own")
    if n * (n - 1) // 2 == 0 or edge_p <= 0.0 or graphs == 0:
        return np.zeros((graphs, n))
    if gaps is None:
        gaps = np.empty((graphs, _gap_width(n, edge_p, graphs)))
    idx, row_start, offset = _row_tables(n, graphs)
    if _streams(n, edge_p, graphs):
        scratch = np.random.Generator(np.random.Philox()) if scratch is None else scratch
        stretches = _streamed_slots(n, edge_p, rngs[0], gaps[0], scratch, row_start)
    else:
        stretches = [(_block_slots(n, edge_p, rngs, gaps[:graphs]), 0, idx.size)]
    rows, cols = np.zeros(idx.size), np.zeros(idx.size)
    for pos, r0, r1 in stretches:
        first = np.searchsorted(pos, row_start[r0 : r1 + 1])  # row r's first edge at r - r0
        counts = first[1:] - first[:-1]
        # each graph's first edge, then the end: a stretch holds whole graphs
        # or lies within its block's one graph
        graph_first = [*first[:-1:n].tolist(), pos.size]
        cuts = (r0 + np.searchsorted(first, range(EDGE_BLOCK, pos.size, EDGE_BLOCK))).tolist()
        for b0, b1 in zip([r0, *cuts], [*cuts, r1]):
            e0, e1 = int(first[b0 - r0]), int(first[b1 - r0])
            if e0 == e1:  # no edge, or one row of more than EDGE_BLOCK edges
                continue
            # the block's weights in edge order, each graph's from its own stream
            draws = []
            for g in range(b0 // n, (b1 - 1) // n + 1):
                size = min(e1, graph_first[g + 1]) - max(e0, graph_first[g])
                if size:
                    draws.append(draw(rngs[g], size))
            w = draws[0] if len(draws) == 1 else np.concatenate(draws)
            bins = np.repeat(idx[: b1 - b0], counts[b0 - r0 : b1 - r0])
            rows[b0:b1] = np.bincount(bins, weights=w, minlength=b1 - b0)
            block = pos[e0:e1]
            block -= np.take(offset[b0:b1], bins, out=bins, mode="clip")  # slots to columns
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
    streams at once; its gap array and scratch generator serve every block
    too.  The calling thread is one of them; the first exception
    of any stops the others after their current block, and is raised once
    all have ended.  Their end also empties the ``_row_tables`` cache, so a
    finished run keeps none of its tables.

    The threads start after ``deviation_experiment``'s saddle solve and the
    allocation of ``dmax``, so ``graphsim``, ``asymptotics``, ``weights`` and
    numpy, each of which ``cpmoments.cli`` may hold as a lazy module, have
    executed: ``LazyLoader`` takes no lock on Python 3.10 and 3.11, so no
    worker may make a module's first access.
    """
    n, trials, seed = config.n, config.trials, config.seed
    edge_p = config.rho / n
    size = _block_trials(config.trial_work)
    dmax = np.empty(trials)
    unclaimed, claim = iter(range(0, trials, size)), threading.Lock()
    failed: list[BaseException] = []

    def run() -> None:
        # this thread's generators and gap rows, one of each per trial of a
        # block, and its scratch generator for a second gap pass, used by
        # every block; a generator is made by its first trial
        rngs: list = [None] * size
        try:
            gaps = np.empty((size, _gap_width(n, edge_p, size)))
            scratch = np.random.Generator(np.random.Philox())
            while not failed:
                with claim:
                    start = next(unclaimed, None)
                if start is None:
                    return
                block = range(start, min(start + size, trials))
                for slot, t in enumerate(block):
                    rngs[slot] = trial_generator(seed, t, rngs[slot])
                dmax[block.start:block.stop] = sample_degrees(n, edge_p, draw, rngs[: len(block)],
                                                              gaps, scratch).max(axis=1)
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
        _row_tables.cache_clear()
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
