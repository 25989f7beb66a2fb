import dataclasses
import hashlib
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from cpmoments import asymptotics, graphsim, weights
from cpmoments.errors import DomainError


def dmax(cfg, trial=0):
    """One D_max draw of ``cfg`` from the trial's own stream, as the experiment draws it."""
    draw, _ = graphsim.weight_sampler(cfg.weight_name)
    rng = graphsim.trial_generator(cfg.seed, trial)
    return float(graphsim.sample_degrees(cfg.n, cfg.rho / cfg.n, draw, [rng])[0].max())


def reference_degrees(n, edge_p, draw, rng, batch=None):
    """Weighted degrees by numpy's geometric gaps and one row lookup per edge;
    ``batch`` gaps are drawn first, by default 8 standard deviations past the
    mean edge count."""
    npairs = n * (n - 1) // 2
    expected = npairs * edge_p
    if batch is None:
        batch = int(expected + 8.0 * math.sqrt(expected + 1.0)) + 16
    chunks, total = [], 0
    while total <= npairs:
        gaps = rng.geometric(edge_p, size=batch)
        chunks.append(gaps)
        total += int(gaps.sum())
        batch = max(16, int((npairs - total) * edge_p) + 16)
    pos = np.concatenate(chunks).cumsum() - 1
    pos = pos[pos < npairs]
    idx = np.arange(n, dtype=np.int64)
    row_start = idx * n - idx * (idx + 1) // 2
    i = np.searchsorted(row_start, pos, side="right") - 1
    j = pos - row_start[i] + i + 1
    w = draw(rng, pos.size)
    return np.bincount(i, weights=w, minlength=n) + np.bincount(j, weights=w, minlength=n)


# numpy inverts an exponential below p = 1/3 and searches at and above it
GAP_PROBABILITIES = [1e-300, 1e-30, 1e-12, 1e-6, 1.98e-3, 0.0152, 0.106, 0.2, 0.3333,
                     math.nextafter(1 / 3, 0), 1 / 3, 0.5, 1.0]


class TestSampling:
    @pytest.mark.parametrize("p", GAP_PROBABILITIES)
    def test_gaps_and_next_draw_match_numpy_geometric(self, p):
        # a block of two generators, one row of gaps each
        cap = 2**62
        ours = [graphsim.trial_generator(3, t) for t in (1, 2)]
        numpys = [graphsim.trial_generator(3, t) for t in (1, 2)]
        gaps = graphsim._geometric_gaps(ours, p, 5000, cap)
        assert gaps.dtype == np.int64 and gaps.shape == (2, 5000)
        for row, rng, numpy_rng in zip(gaps, ours, numpys):
            assert np.array_equal(row, np.minimum(numpy_rng.geometric(p, size=5000), cap))
            assert rng.random() == numpy_rng.random()

    @pytest.mark.parametrize("n, edge_p, name", [
        (2, 1.0, "unit"),
        (3, 0.5, "unit"),
        (10, 0.5, "exponential"),
        (300, 0.3 * math.log(300) / 300, "gamma:1/2,1"),
        (2000, 4 * math.log(2000) / 2000, "exponential"),
        (200, 4 * math.log(200) / 200, "bernoulli"),
    ])
    def test_degrees_bit_identical_to_reference(self, n, edge_p, name):
        draw, _ = graphsim.weight_sampler(name)
        for trial in range(5):
            ours, ref = graphsim.trial_generator(8, trial), graphsim.trial_generator(8, trial)
            got = graphsim.sample_degrees(n, edge_p, draw, [ours])[0]
            assert np.array_equal(got, reference_degrees(n, edge_p, draw, ref))
            assert ours.random() == ref.random()

    @pytest.mark.parametrize("n, edge_p, name", [
        (10, 0.5, "exponential"),
        (300, 0.3 * math.log(300) / 300, "gamma:1/2,1"),
        (200, 4 * math.log(200) / 200, "bernoulli"),
    ])
    def test_second_gap_batch_drawn_before_the_weights(self, monkeypatch, n, edge_p, name):
        # a first batch of 5 gaps ends short of the triangle, so every graph
        # draws more gaps from its own stream before its weights
        monkeypatch.setattr(graphsim, "_gap_batch", lambda expected: 5)
        batches = []
        original = graphsim._geometric_gaps

        def counted(rngs, p, size, cap, out=None):
            batches.append(size)
            return original(rngs, p, size, cap, out)

        monkeypatch.setattr(graphsim, "_geometric_gaps", counted)
        draw, _ = graphsim.weight_sampler(name)
        ours, ref = graphsim.trial_generator(8, 0), graphsim.trial_generator(8, 0)
        got = graphsim.sample_degrees(n, edge_p, draw, [ours])[0]
        assert np.array_equal(got, reference_degrees(n, edge_p, draw, ref, batch=5))
        assert ours.random() == ref.random()
        assert len(batches) > 1

        rngs = [graphsim.trial_generator(8, t) for t in range(3)]
        got = graphsim.sample_degrees(n, edge_p, draw, rngs)
        assert got.shape == (3, n)
        for trial in range(3):
            ref = graphsim.trial_generator(8, trial)
            assert np.array_equal(got[trial], reference_degrees(n, edge_p, draw, ref, batch=5))
            assert rngs[trial].random() == ref.random()

    def test_block_mixes_graphs_with_and_without_a_second_gap_batch(self, monkeypatch):
        # a first batch of about the expected edge count ends short of the
        # triangle in some graphs of the block and past it in others
        n, name = 200, "bernoulli"
        edge_p = 4 * math.log(n) / n
        batch = int(n * (n - 1) // 2 * edge_p)
        monkeypatch.setattr(graphsim, "_gap_batch", lambda expected: batch)
        calls = []
        original = graphsim._geometric_gaps

        def recorded(rngs, p, size, cap, out=None):
            calls.append(list(rngs))
            return original(rngs, p, size, cap, out)

        monkeypatch.setattr(graphsim, "_geometric_gaps", recorded)
        draw, _ = graphsim.weight_sampler(name)
        rngs = [graphsim.trial_generator(21, t) for t in range(12)]
        got = graphsim.sample_degrees(n, edge_p, draw, rngs)
        assert calls[0] == rngs
        second = {id(rng) for later in calls[1:] for rng in later}
        assert all(len(later) == 1 for later in calls[1:])
        assert 0 < len(second) < len(rngs)
        for trial, rng in enumerate(rngs):
            ref = graphsim.trial_generator(21, trial)
            assert np.array_equal(got[trial], reference_degrees(n, edge_p, draw, ref, batch=batch))
            assert rng.random() == ref.random()

    def test_generator_given_twice_is_refused(self):
        draw, _ = graphsim.weight_sampler("unit")
        rng = graphsim.trial_generator(0, 0)
        with pytest.raises(ValueError, match="^one generator is given for two graphs"):
            graphsim.sample_degrees(10, 0.5, draw, [rng, rng])
        # an iterable that re-keys one generator would draw every graph from
        # the last stream
        with pytest.raises(ValueError, match="^one generator is given for two graphs"):
            graphsim.sample_degrees(10, 0.5, draw,
                                    (graphsim.trial_generator(8, t, rng) for t in range(3)))

    def test_gaps_cast_in_place_match_numpy_geometric(self):
        size = 300_005
        ours, numpys = graphsim.trial_generator(3, 2), graphsim.trial_generator(3, 2)
        gaps = graphsim._geometric_gaps([ours], 0.01, size, 2**62)[0]
        assert np.array_equal(gaps, numpys.geometric(0.01, size=size))
        assert ours.random() == numpys.random()

    @pytest.mark.parametrize("block", [8, 1000])
    @pytest.mark.parametrize("n, edge_p, name", [
        (300, 0.5, "exponential"),
        (2000, 4 * math.log(2000) / 2000, "gamma:2,1/2"),
    ])
    def test_degrees_in_blocks_bit_identical_to_reference(self, monkeypatch, block, n, edge_p,
                                                          name):
        # blocks of 8 edges are shorter than most rows here
        monkeypatch.setattr(graphsim, "EDGE_BLOCK", block)
        draw, _ = graphsim.weight_sampler(name)
        for trial in range(3):
            ours, ref = graphsim.trial_generator(8, trial), graphsim.trial_generator(8, trial)
            got = graphsim.sample_degrees(n, edge_p, draw, [ours])[0]
            assert np.array_equal(got, reference_degrees(n, edge_p, draw, ref))

    @pytest.mark.parametrize("block", [8, 1000])
    @pytest.mark.parametrize("name", ["bernoulli", "gamma:1/2,1"])
    def test_many_graph_blocks_bit_identical_to_reference(self, monkeypatch, block, name):
        # about 3 edges a graph: some graphs draw no edge, and an edge block
        # ends inside some graph, whose weights come in two draws
        n, edge_p, graphs = 30, 0.007, 400
        monkeypatch.setattr(graphsim, "EDGE_BLOCK", block)
        sampler, _ = graphsim.weight_sampler(name)
        calls = []

        def draw(rng, size):
            calls.append((id(rng), size))
            return sampler(rng, size)

        rngs = [graphsim.trial_generator(8, t) for t in range(graphs)]
        got = graphsim.sample_degrees(n, edge_p, draw, rngs)
        sizes = {}
        for key, size in calls:
            assert size > 0
            sizes.setdefault(key, []).append(size)
        assert any(len(drawn) > 1 for drawn in sizes.values())
        assert len(sizes) < graphs
        for trial, rng in enumerate(rngs):
            ref = graphsim.trial_generator(8, trial)
            assert np.array_equal(got[trial], reference_degrees(n, edge_p, sampler, ref))
            assert rng.random() == ref.random()
        # a block of rows with no edge draws nothing
        calls.clear()
        rngs = [graphsim.trial_generator(8, t) for t in range(3)]
        assert np.array_equal(graphsim.sample_degrees(n, 1e-9, draw, rngs), np.zeros((3, n)))
        assert calls == []

    def test_block_of_one_graph_holds_one_array_of_its_size(self):
        # a block of one trial, as the experiment draws graphs of this size,
        # keeps its slot indices without copying them, 3.2 MB for about 4e5
        # edges, and draws its weights a block of edges at a time; the row
        # tables are cached by the first draw
        n = 20000
        edge_p = 4 * math.log(n) / n
        draw, _ = graphsim.weight_sampler("gamma:2,1/2")
        graphsim.sample_degrees(n, edge_p, draw, iter([graphsim.trial_generator(1, 0)]))
        tracemalloc.start()
        try:
            graphsim.sample_degrees(n, edge_p, draw, iter([graphsim.trial_generator(1, 1)]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20

    def test_experiment_draws_gaps_into_one_array_per_thread(self, monkeypatch):
        # a new array of gaps per graph would be mapped and faulted in again
        bases = []
        original = graphsim._geometric_gaps

        def recorded(rngs, p, size, cap, out=None):
            bases.append(None if out is None else out.base)
            return original(rngs, p, size, cap, out)

        monkeypatch.setattr(graphsim, "_geometric_gaps", recorded)
        monkeypatch.setattr(graphsim, "trial_workers", lambda work, trials: 1)
        cfg = graphsim.GraphSimConfig(2000, 4.0, "exponential", (1.0,), 3, 0)
        graphsim._dmax_samples(cfg, graphsim.weight_sampler("exponential")[0])
        assert len(bases) == 3
        assert bases[0] is not None and all(base is bases[0] for base in bases)

    def test_tiny_edge_probability_gives_no_edges(self):
        # numpy's gaps saturate at INT64_MAX here, where their sum wraps
        draw, _ = graphsim.weight_sampler("exponential")
        deg = graphsim.sample_degrees(2000, 1e-25, draw, [graphsim.trial_generator(0, 0)])[0]
        assert np.array_equal(deg, np.zeros(2000))

    def test_subnormal_edge_probability_warns_nothing(self, monkeypatch):
        # p = rho/n is about 6.9e-310, so most gaps E / -ln(1 - p) overflow to
        # inf before the cut to cap; each of the two threads, given a block
        # of two trials, ignores that
        cfg = graphsim.GraphSimConfig(1000, 1e-307, "unit", (1.0,), 4, 0)
        monkeypatch.setattr(graphsim, "trial_workers", lambda work, trials: 2)
        monkeypatch.setattr(graphsim, "BLOCK_WORK", 2.5 * cfg.trial_work)
        assert 0.0 < cfg.rho / cfg.n < sys.float_info.min
        draw, _ = graphsim.weight_sampler("unit")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = graphsim._dmax_samples(cfg, draw)
        assert np.array_equal(samples, np.zeros(4))

    def test_subnormal_edge_probability_warns_nothing_in_a_direct_call(self):
        # the sampler itself ignores the overflow of E / -ln(1 - p) to inf
        draw, _ = graphsim.weight_sampler("unit")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            deg = graphsim.sample_degrees(1000, 6.9e-310, draw, [graphsim.trial_generator(0, 0)])
        assert np.array_equal(deg, np.zeros((1, 1000)))

    @pytest.mark.parametrize("edge_p", [1.5, -0.5, math.nan])
    def test_edge_probability_outside_unit_interval_refused(self, edge_p):
        draw, _ = graphsim.weight_sampler("unit")
        with pytest.raises(DomainError, match=r"^edge probability must lie in \[0, 1\]$"):
            graphsim.sample_degrees(10, edge_p, draw, [graphsim.trial_generator(0, 0)])

    def test_no_edges_at_zero_intensity(self):
        cfg = graphsim.GraphSimConfig(
            n=50, kappa=0.0, weight_name="unit", s_values=(0.5,), trials=3, seed=1
        )
        assert dmax(cfg) == 0.0

    def test_forced_single_edge(self):
        cfg = graphsim.GraphSimConfig(
            n=2, kappa=2.0 / math.log(2), weight_name="unit", s_values=(0.5,), trials=1, seed=1
        )
        assert dmax(cfg) == 1.0

    def test_degrees_symmetric_accumulation(self):
        # every edge contributes the same weight to both endpoints: total
        # degree mass is twice the sum of edge weights, so with unit weights
        # the degree sum is even
        rng = graphsim.trial_generator(9, 0)
        deg = graphsim.sample_degrees(40, 0.5, lambda r, size: np.ones(size), [rng])[0]
        assert deg.sum() % 2 == 0

    def test_mean_degree_matches_formula(self):
        n, rho, trials = 300, 8.0, 400
        draw, model = graphsim.weight_sampler("exponential")
        per_trial_means = np.empty(trials)
        for t in range(trials):
            rng = graphsim.trial_generator(2024, t)
            per_trial_means[t] = graphsim.sample_degrees(n, rho / n, draw, [rng])[0].mean()
        expected = rho * float(model.moment(1)) * (n - 1) / n
        se = per_trial_means.std(ddof=1) / math.sqrt(trials)
        assert abs(per_trial_means.mean() - expected) <= 3 * se

    def test_edge_count_distribution_mean(self):
        # number of edges is Binomial(n(n-1)/2, p); check its mean via degrees
        n, p, trials = 60, 0.1, 300
        npairs = n * (n - 1) // 2
        counts = np.empty(trials)
        for t in range(trials):
            rng = graphsim.trial_generator(5, t)
            deg = graphsim.sample_degrees(n, p, lambda r, size: np.ones(size), [rng])[0]
            counts[t] = deg.sum() / 2
        se = counts.std(ddof=1) / math.sqrt(trials)
        assert abs(counts.mean() - npairs * p) <= 4 * se


class TestWeightSamplers:
    @pytest.mark.parametrize(
        "name", ["exponential", "normal:1", "gamma:2,1/2", "bernoulli", "unit"]
    )
    def test_sample_moments_match_model(self, name):
        draw, model = graphsim.weight_sampler(name)
        rng = graphsim.trial_generator(77, 0)
        sample = draw(rng, 10**6)
        v1, v2, v4 = (float(model.moment(j)) for j in (1, 2, 4))
        se1 = math.sqrt(max(v2 - v1 * v1, 0.0) / sample.size) or 1e-12
        assert abs(sample.mean() - v1) <= 4 * se1
        se2 = math.sqrt(max(v4 - v2 * v2, 0.0) / sample.size) or 1e-12
        assert abs((sample**2).mean() - v2) <= 4 * se2

    def test_unknown_sampler_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"moments": [1, 1, 2]}')
        for name in ("pareto", "logfact", f"custom:{path}"):
            with pytest.raises(DomainError):
                graphsim.weight_sampler(name)


class TestReproducibility:
    def test_trials_bit_identical_for_same_seed(self):
        cfg = graphsim.config_from_kappa(200, 2.0, "exponential", (1.0,), 50, seed=31)
        a = graphsim.deviation_experiment(cfg)
        b = graphsim.deviation_experiment(cfg)
        assert np.array_equal(a.dmax_samples, b.dmax_samples)
        assert a.p_hat == b.p_hat

    def test_seed_changes_samples(self):
        cfg1 = graphsim.config_from_kappa(200, 2.0, "exponential", (1.0,), 20, seed=31)
        cfg2 = graphsim.config_from_kappa(200, 2.0, "exponential", (1.0,), 20, seed=32)
        a = graphsim.deviation_experiment(cfg1)
        b = graphsim.deviation_experiment(cfg2)
        assert not np.array_equal(a.dmax_samples, b.dmax_samples)

    def test_worker_failure_reaches_caller(self, monkeypatch):
        original = graphsim.trial_generator

        def fail_on_trial_5(seed, trial, rng=None):
            if trial == 5:
                raise RuntimeError("trial 5 failed")
            return original(seed, trial, rng)

        cfg = graphsim.config_from_kappa(200, 2.0, "exponential", (1.0,), 40, seed=31)
        # trial 5 is the second of the second block of four
        monkeypatch.setattr(graphsim, "trial_generator", fail_on_trial_5)
        monkeypatch.setattr(graphsim, "trial_workers", lambda work, trials: 3)
        monkeypatch.setattr(graphsim, "BLOCK_WORK", 4.5 * cfg.trial_work)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^trial 5 failed$"):
            graphsim.deviation_experiment(cfg)
        assert threading.active_count() == before
        assert graphsim._row_tables.cache_info().currsize == 0

    def test_each_trial_drawn_once_under_fast_switching(self, monkeypatch):
        # more threads than cores, switching every microsecond: a trial
        # claimed twice or never shows in the draws or in dmax_samples
        cfg = graphsim.config_from_kappa(5, 1.5, "unit", (0.5,), 400, seed=11)
        alone = graphsim.deviation_experiment(cfg).dmax_samples
        drawn = []
        original = graphsim.trial_generator

        def recorded(seed, trial, rng=None):
            drawn.append(trial)
            return original(seed, trial, rng)

        monkeypatch.setattr(graphsim, "trial_generator", recorded)
        monkeypatch.setattr(graphsim, "trial_workers", lambda work, trials: 8)
        monkeypatch.setattr(graphsim, "BLOCK_WORK", 3.5 * cfg.trial_work)  # 134 blocks
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            shared = graphsim.deviation_experiment(cfg).dmax_samples
        finally:
            sys.setswitchinterval(interval)
        assert sorted(drawn) == list(range(400))
        assert np.array_equal(shared, alone)

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(graphsim, "_usable_cpus", lambda: 64)
        half = graphsim.MAX_TRIAL_WORK / 2
        assert graphsim.trial_workers(half, 100) == 2
        assert graphsim.trial_workers(half + 1, 100) == 1
        assert graphsim.trial_workers(graphsim.MAX_TRIAL_WORK, 100) == 1
        assert graphsim.trial_workers(10**5, 100) == 64
        assert graphsim.trial_workers(10**5, 3) == 3
        # the benchmark's n = 200 graphs run in blocks of trials on every
        # thread, its n = 2000 ones one trial a block; a run within one
        # block runs on one thread
        small = graphsim.GraphSimConfig(200, 4.0, "bernoulli", (1.0,), 3000, 0)
        large = graphsim.GraphSimConfig(2000, 4.0, "exponential", (1.0,), 200, 0)
        assert graphsim._block_trials(small.trial_work) > 1
        assert graphsim.trial_workers(small.trial_work, small.trials) == 64
        assert graphsim.trial_workers(small.trial_work, 3) == 1
        assert graphsim._block_trials(large.trial_work) == 1
        assert graphsim.trial_workers(large.trial_work, large.trials) == 64

    def test_usable_cpus_read_the_affinity_set(self, monkeypatch):
        # pinned to one CPU, every run takes one worker: the calling thread
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
        assert graphsim._usable_cpus() == graphsim.trial_workers(10**5, 100) == 1

    def test_usable_cpus_fall_back_to_the_cpu_count(self, monkeypatch):
        # a platform without sched_getaffinity
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 5)
        assert graphsim._usable_cpus() == 5

    @pytest.mark.parametrize("n, kappa, spec", [
        (5, 1.5, "unit"),  # p >= 1/3: numpy's search sampler draws the gaps
        (2000, 1e-25 * 2000 / math.log(2000), "exponential"),  # no edges
        (200, 4.0, "bernoulli"),
        (300, 0.3, "gamma:1/2,1"),
    ])
    def test_blocks_of_trials_match_single_trials(self, monkeypatch, n, kappa, spec):
        cfg = graphsim.GraphSimConfig(n, kappa, spec, (1.0,), 7, 17)
        single = [dmax(cfg, trial=t) for t in range(7)]
        for size in (1, 2, 3):
            monkeypatch.setattr(graphsim, "BLOCK_WORK", (size + 0.5) * cfg.trial_work)
            assert graphsim._block_trials(cfg.trial_work) == size
            for workers in (1, 2, 3):
                monkeypatch.setattr(graphsim, "trial_workers", lambda work, trials: workers)
                draw, _ = graphsim.weight_sampler(spec)
                assert graphsim._dmax_samples(cfg, draw).tolist() == single

    def test_benchmark_shapes_dmax_bits_pinned(self):
        # the tables pin only counts of D_max, so these pin its bits: sha256
        # of dmax_samples.tobytes() for the three benchmark graph shapes at
        # kappa = 4 and benchmark seed 1
        shapes = [
            (2000, "exponential", 200, 1000,
             "049653c7d7a6dd5b7d1fff4020209694ef0e03f2018a36f6614148905857c377"),
            (20000, "gamma:2,1/2", 10, 1001,
             "4e5a6126a0252db7bb44fcf48d80846335cac64de76be538bc40e6b11542cdac"),
            (200, "bernoulli", 3000, 1002,
             "a50479ccd2bd06b9656d10e9cbe8220c1c809a9df52c03697cde4283d3e32f5b"),
        ]
        for n, spec, trials, seed, digest in shapes:
            cfg = graphsim.GraphSimConfig(n, 4.0, spec, (1.0,), trials, seed)
            samples = graphsim._dmax_samples(cfg, graphsim.weight_sampler(spec)[0])
            assert hashlib.sha256(samples.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("seed", [0, 12, 2**63 + 5])
    @pytest.mark.parametrize("trial", [0, 1, 2999, 2**40])
    def test_rekeyed_generator_draws_as_a_new_one(self, seed, trial):
        samplers = [
            lambda r: r.standard_exponential(100),
            lambda r: r.integers(0, 2, 101),
            lambda r: r.gamma(2.0, 1.0, 50),
            lambda r: r.gamma(0.5, 1.0, 50),
            lambda r: r.normal(0.0, 1.0, 51),
            lambda r: r.geometric(0.5, 50),
            lambda r: r.random(5),
            *[lambda r, draw=graphsim.weight_sampler(name)[0]: draw(r, 99)
              for name in ("exponential", "normal:1", "gamma:2,1/2", "gamma:1/2,1",
                           "bernoulli", "unit")],
        ]
        for sample in samplers:
            used = graphsim.trial_generator(3, 4)
            used.integers(0, 2, 3, dtype=np.uint32)  # leaves a 32-bit half buffered
            assert used.bit_generator.state["has_uint32"] == 1
            rekeyed = graphsim.trial_generator(seed, trial, used)
            assert rekeyed is used
            new = graphsim.trial_generator(seed, trial)
            assert repr(rekeyed.bit_generator.state) == repr(new.bit_generator.state)
            assert np.array_equal(sample(rekeyed), sample(new))
            assert rekeyed.random() == new.random()

    def test_trial_streams_are_order_independent(self):
        cfg = graphsim.config_from_kappa(100, 2.0, "normal:1", (0.5,), 8, seed=5)
        direct = [dmax(cfg, trial=t) for t in range(8)]
        reverse = [dmax(cfg, trial=t) for t in reversed(range(8))]
        assert direct == list(reversed(reverse))
        assert direct == graphsim.deviation_experiment(cfg).dmax_samples.tolist()


class TestThresholdAndBound:
    def test_bound_is_one_at_threshold(self):
        model = weights.exponential()
        for kappa in (2.0, 4.0):
            thr = graphsim.critical_deviation_threshold(model, kappa)
            bound, vacuous = graphsim.moment_union_bound(model, 2000, kappa, thr)
            assert bound == pytest.approx(1.0, rel=1e-9)
            assert vacuous

    def test_bound_decays_beyond_threshold_and_in_n(self):
        model = weights.exponential()
        thr = graphsim.critical_deviation_threshold(model, 4.0)
        b_small, _ = graphsim.moment_union_bound(model, 2000, 4.0, 1.5 * thr)
        b_big, _ = graphsim.moment_union_bound(model, 10**6, 4.0, 1.5 * thr)
        assert 0 < b_big < b_small < 1

    def test_bound_reproduced_by_hand_evaluation(self):
        # n = 1e6, exponential weights, kappa = 4, s' = 2 * threshold
        model = weights.exponential()
        kappa, n = 4.0, 10**6
        thr = graphsim.critical_deviation_threshold(model, kappa)
        s_prime = 2.0 * thr
        # independent solve of the tilt and direct transcription of the bound
        ht = lambda u: 1.0 / (1.0 - u) - u
        ht1 = lambda u: (1.0 - u) ** -2 - 1.0
        lo, hi = 1e-12, 1 - 1e-9
        for _ in range(300):
            mid = 0.5 * (lo + hi)
            if mid * ht1(mid) < 2.0 / kappa:
                lo = mid
            else:
                hi = mid
        u = 0.5 * (lo + hi)
        bracket = 0.5 - math.log(s_prime) + math.log(ht1(u)) + (ht(u) - 1.0) / (u * ht1(u)) - 1.0
        expected = math.exp(2.0 * math.log(n) * bracket)
        got, _ = graphsim.moment_union_bound(model, n, kappa, s_prime)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_rejects_nonpositive_deviation(self):
        with pytest.raises(DomainError):
            graphsim.moment_union_bound(weights.exponential(), 100, 2.0, 0.0)

    @pytest.mark.parametrize("n", [1, 0, -5])
    def test_rejects_fewer_than_two_vertices(self, n):
        with pytest.raises(DomainError, match="^need n >= 2$"):
            graphsim.moment_union_bound(weights.exponential(), n, 2.0, 1.0)

    @pytest.mark.parametrize("s_prime", [0.0, -1e-9, -3.0])
    def test_vacuous_at_or_below_the_mean(self, s_prime):
        assert graphsim._union_bound(0.5, 100, s_prime) == (1.0, True)


class TestDeviationExperiment:
    def test_p_hat_monotone_in_s(self):
        thr = graphsim.critical_deviation_threshold(weights.exponential(), 2.0)
        cfg = graphsim.config_from_kappa(
            400, 2.0, "exponential", (0.5 * thr, thr, 1.5 * thr, 2.0 * thr), 400, seed=11
        )
        res = graphsim.deviation_experiment(cfg)
        assert all(a >= b for a, b in zip(res.p_hat, res.p_hat[1:]))

    def test_tiny_deviation_always_exceeded(self):
        cfg = graphsim.config_from_kappa(50, 1.0, "exponential", (1e-6,), 100, seed=3)
        res = graphsim.deviation_experiment(cfg)
        assert res.p_hat[0] > 0.9

    def test_bound_dominates_over_grid(self):
        # acceptance criterion 10 checks n = 2000 at kappa = 4
        for n, kappa in ((500, 2.0), (500, 4.0), (2000, 2.0)):
            model = weights.exponential()
            thr = graphsim.critical_deviation_threshold(model, kappa)
            cfg = graphsim.config_from_kappa(
                n, kappa, "exponential",
                tuple(m * thr for m in (1.2, 1.5, 2.0)), 10_000, seed=20240808,
            )
            res = graphsim.deviation_experiment(cfg)
            for s, p, ci, bound, vac in zip(
                res.config.s_values, res.p_hat, res.ci_half_width, res.bound, res.vacuous
            ):
                if not vac:
                    assert p <= bound + ci, (n, kappa, s, p, bound, ci)

    def test_one_saddle_per_experiment(self, monkeypatch):
        calls = []
        original = asymptotics.solve_saddle

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(asymptotics, "solve_saddle", counted)
        cfg = graphsim.config_from_kappa(100, 2.0, "exponential", (0.5, 1.0, 1.5, 2.0), 3, seed=4)
        graphsim.deviation_experiment(cfg)
        assert len(calls) == 1

    def test_finished_run_keeps_no_row_tables(self, monkeypatch):
        # 10 trials in blocks of 4 on two threads: tables of two block
        # shapes, dropped once both threads have ended
        cfg = graphsim.config_from_kappa(200, 2.0, "exponential", (1.0,), 10, seed=5)
        monkeypatch.setattr(graphsim, "trial_workers", lambda work, trials: 2)
        monkeypatch.setattr(graphsim, "BLOCK_WORK", 4.5 * cfg.trial_work)
        graphsim.deviation_experiment(cfg)
        assert graphsim._row_tables.cache_info().currsize == 0

    def test_small_s_bound_vacuous(self):
        cfg = graphsim.config_from_kappa(100, 2.0, "exponential", (1e-9,), 5, seed=2)
        res = graphsim.deviation_experiment(cfg)
        assert res.vacuous[0] and res.bound[0] == 1.0

    def test_config_derives_rho_from_kappa(self):
        cfg = graphsim.GraphSimConfig(200, 2.5, "unit", [0.5, 1.0], 3, 7)
        assert cfg.rho == 2.5 * math.log(200)
        assert cfg.s_values == (0.5, 1.0)
        assert graphsim.config_from_kappa is graphsim.GraphSimConfig
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "n", "kappa", "weight_name", "s_values", "trials", "seed"
        ]

    def test_work_caps(self):
        # criterion 10 and the README example (n = 2000, 10^4 trials, 3.3e8)
        # and the benchmark's three shapes run
        for n, trials in ((2000, 10_000), (20000, 10), (200, 3000)):
            graphsim.GraphSimConfig(n, 4.0, "exponential", (1.0,), trials, 0)
        with pytest.raises(DomainError, match="expected edges is more than 30000000"):
            graphsim.GraphSimConfig(2 * 10**6, 4.0, "exponential", (1.0,), 1, 0)
        # two vertices a trial: a million trials are refused for their fixed
        # part, though a block of them runs in about 9 us a trial
        with pytest.raises(DomainError, match="plus 1000 per trial, are more than 1000000000"):
            graphsim.GraphSimConfig(2, 1.0, "exponential", (1.0,), 10**6, 0)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            graphsim.GraphSimConfig(n=10, kappa=10.0, weight_name="unit",
                                    s_values=(1.0,), trials=1, seed=0)
        with pytest.raises(DomainError):
            graphsim.GraphSimConfig(n=10, kappa=1.0, weight_name="unit",
                                    s_values=(1.0,), trials=0, seed=0)
