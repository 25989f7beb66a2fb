"""Outside-in layer trace of cpmoments for the benchmark's traced pass.

``Tracer.install`` replaces the public functions of each module with
wrappers that record a span (name, start, end, parent span, job) and a few
counters, keeping them in memory.  A function is replaced under every name
the package binds it to, so names imported with ``from ... import`` (for
example ``solve_saddle`` in ``auxdist`` and ``graphsim``) are traced where
they are looked up; ``WeightModel`` methods are replaced on the class.
``uninstall`` restores every original.

All ``*_s`` metrics are self times: a span's duration minus the time its
direct child spans cover, summed over the spans of that name.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) -> span name; several functions may share a name.
FUNCTIONS = {
    ("weights", "from_spec"): "weights.from_spec",
    ("moments", "moment_sequence"): "moments.moment_sequence",
    ("moments", "finite_n_moment"): "moments.finite_n_moment",
    ("moments", "log_moment_sequence"): "moments.log_moment_sequence",
    ("asymptotics", "solve_saddle"): "asymptotics.solve_saddle",
    ("asymptotics", "rate_function"): "asymptotics.rate_function",
    ("asymptotics", "refined_prediction"): "asymptotics.refined_prediction",
    ("auxdist", "build_aux"): "auxdist.build_aux",
    ("auxdist", "local_limit_check"): "auxdist.local_limit_check",
    ("graphsim", "deviation_experiment"): "graphsim.deviation_experiment",
    ("graphsim", "sample_degrees"): "graphsim.sample_degrees",
    ("graphsim", "trial_generator"): "graphsim.trial_generator",
    ("graphsim", "critical_deviation_threshold"): "graphsim.bound",
    ("graphsim", "moment_union_bound"): "graphsim.bound",
}
METHODS = {
    "moment": "weights.moment",
    "log_weight_moment": "weights.log_weight_moment",
    "egf": "weights.egf",
    "egf_d1": "weights.egf",
    "egf_d2": "weights.egf",
}
JOB_SPAN = "cli"
DRAW_SPAN = "graphsim.weight_draw"

# Span names each workload's traced pass must produce at least once.
EXPECTED_SPANS = {
    "exact_tables": (JOB_SPAN, "weights.from_spec", "weights.moment", "moments.moment_sequence",
                     "moments.finite_n_moment"),
    "asymptotic_ladder": (JOB_SPAN, "weights.from_spec", "weights.moment",
                          "weights.log_weight_moment", "weights.egf",
                          "moments.log_moment_sequence", "asymptotics.solve_saddle",
                          "asymptotics.rate_function", "asymptotics.refined_prediction",
                          "auxdist.build_aux", "auxdist.local_limit_check"),
    "graph_mc": (JOB_SPAN, "weights.egf", "asymptotics.solve_saddle",
                 "graphsim.deviation_experiment", "graphsim.sample_degrees",
                 "graphsim.trial_generator", DRAW_SPAN, "graphsim.bound"),
}

# Per-layer metrics reported by every traced run, in BENCHMARK.json order.
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("weights.from_spec_s", "s"),
    ("weights.moment_s", "s"),
    ("weights.moment_calls", "count"),
    ("weights.log_weight_moment_s", "s"),
    ("weights.log_weight_moment_calls", "count"),
    ("weights.egf_s", "s"),
    ("weights.egf_calls", "count"),
    ("moments.moment_sequence_s", "s"),
    ("moments.moment_sequence_calls", "count"),
    ("moments.recurrence_terms", "count"),
    ("moments.max_bits", "bits"),
    ("moments.finite_n_moment_s", "s"),
    ("moments.log_moment_sequence_s", "s"),
    ("moments.log_moment_sequence_calls", "count"),
    ("moments.log_recurrence_terms", "count"),
    ("asymptotics.solve_saddle_s", "s"),
    ("asymptotics.saddle_evals", "count"),
    ("asymptotics.saddle_residual_max", "1"),
    ("asymptotics.rate_function_s", "s"),
    ("asymptotics.refined_prediction_s", "s"),
    ("auxdist.build_aux_s", "s"),
    ("auxdist.build_aux_calls", "count"),
    ("auxdist.support_cap_max", "count"),
    ("auxdist.local_limit_check_s", "s"),
    ("graphsim.deviation_experiment_s", "s"),
    ("graphsim.sample_degrees_s", "s"),
    ("graphsim.trial_generator_s", "s"),
    ("graphsim.weight_draw_s", "s"),
    ("graphsim.bound_s", "s"),
    ("graphsim.trials", "count"),
    ("graphsim.edges", "count"),
    ("graphsim.edges_per_s", "1/s"),
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
)


def _triangle(k_max: int) -> int:
    return (k_max * (k_max + 1)) // 2


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self._stack: list[int] = []
        self.job: str | None = None
        self.counters: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def job_span(self, job: str, fn):
        """``fn`` wrapped as the root span of ``job``."""
        self.job = job
        return self._wrap(JOB_SPAN, fn)

    def _observers(self):
        c = self.counters

        def moment_sequence(args, kwargs, result):
            c["moments.recurrence_terms"] += _triangle(len(result) - 1)
            bits = max(v.numerator.bit_length() + v.denominator.bit_length() for v in result)
            c["moments.max_bits"] = max(c["moments.max_bits"], bits)

        def log_moment_sequence(args, kwargs, result):
            c["moments.log_recurrence_terms"] += _triangle(len(result) - 1)

        def solve_saddle(args, kwargs, result):
            c["asymptotics.saddle_evals"] += len(result.trace)
            c["asymptotics.saddle_residual_max"] = max(c["asymptotics.saddle_residual_max"],
                                                       result.residual)

        def build_aux(args, kwargs, result):
            c["auxdist.support_cap_max"] = max(c["auxdist.support_cap_max"], result.support_cap)

        def trial_generator(args, kwargs, result):
            c["graphsim.trials"] += 1

        return {
            "moments.moment_sequence": moment_sequence,
            "moments.log_moment_sequence": log_moment_sequence,
            "asymptotics.solve_saddle": solve_saddle,
            "auxdist.build_aux": build_aux,
            "graphsim.trial_generator": trial_generator,
        }

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function of the imported cpmoments package."""
        from cpmoments import graphsim, weights

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "cpmoments"]
        observers = self._observers()
        for (mod_name, fn_name), span in FUNCTIONS.items():
            original = getattr(sys.modules[f"cpmoments.{mod_name}"], fn_name)
            wrapped = self._wrap(span, original, observers.get(span))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapped)
        for method, span in METHODS.items():
            self._replace(weights.WeightModel, method,
                          self._wrap(span, getattr(weights.WeightModel, method)))

        sampler = graphsim.weight_sampler
        counters = self.counters

        def count_edges(args, kwargs, result):
            counters["graphsim.edges"] += args[1]

        @functools.wraps(sampler)
        def traced_sampler(name):
            draw, model = sampler(name)
            return self._wrap(DRAW_SPAN, draw, count_edges), model

        self._replace(graphsim, "weight_sampler", traced_sampler)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reporting ---------------------------------------------------------

    def span_names(self) -> set[str]:
        return {s[0] for s in self.spans}

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """(self time, inclusive time, call count) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            self_s[name] += end - start - covered
            incl_s[name] += end - start
            calls[name] += 1
        return self_s, incl_s, calls

    def layer_metrics(self, traced_pass_s: float, pass_s: float) -> dict[str, float]:
        """Every per-layer metric; layers the workload does not reach read 0.

        Layer times are as measured; ``traced_pass_s`` and the untraced
        ``pass_s`` are host-speed corrected (hostspeed.py), and so are the
        trace.pass_s and trace.overhead_s derived from them.
        """
        self_s, incl_s, calls = self.totals()
        values: dict[str, float] = {}
        for metric, unit in LAYER_METRICS:
            if metric in self.counters:
                values[metric] = self.counters[metric]
            elif metric.endswith("_calls"):
                values[metric] = calls[metric.removesuffix("_calls")]
            elif unit == "s":
                values[metric] = self_s[metric.removesuffix("_s")]
            else:
                values[metric] = 0
        values["cli.self_s"] = self_s[JOB_SPAN]
        sample_s = incl_s["graphsim.sample_degrees"]
        values["graphsim.edges_per_s"] = values["graphsim.edges"] / sample_s if sample_s else 0.0
        values["trace.pass_s"] = traced_pass_s
        values["trace.overhead_s"] = traced_pass_s - pass_s
        return values

    def write(self, path: str) -> None:
        """Spans as CSV: id, parent, job, name, start, end (seconds, perf_counter clock)."""
        with open(path, "w") as fh:
            fh.write("id,parent,job,name,start,end\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i},{parent},{job},{name},{start:.9f},{end:.9f}\n")
