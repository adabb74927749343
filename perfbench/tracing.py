"""Per-layer spans for the traced run, recorded from outside the program.

The tracer replaces public functions at the module attributes their
callers look up (``maxrand.cli.expected_max_accuracy``,
``maxrand.audit.baseline_report``, ``maxrand.orderstat.count_distribution``
and so on) with wrappers that record a span: layer, name, start, end
and the id of the enclosing span.  Spans stay in memory and are written
out when the run ends.  A layer's self time is the duration of its spans
minus the time covered by their direct children; the program is single
threaded, so children never overlap.

Every target must exist: ``install`` raises ``MissingTargets`` naming the
ones a later version of the program no longer has, rather than letting
the metrics that depend on them read 0.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import weakref
from collections import Counter, defaultdict

import numpy

# (module, attribute, layer).  Each attribute is the name a caller looks up:
# cli imports the orderstat functions into its own namespace and reaches
# audit through ``audit_mod``; orderstat calls its own functions and
# ``count_distribution`` through module globals; dist.count_distribution
# calls binomial_distribution and poisson_binomial_distribution through
# dist's globals.
TARGETS = (
    ("audit", "read_records", "ingest"),
    ("audit", "classify", "audit"),
    ("audit", "aggregate", "audit"),
    ("audit", "evaluate_prediction", "audit"),
    ("audit", "empirical_expected_max", "audit"),
    ("audit", "baseline_report", "orderstat"),
    ("cli", "expected_standard_accuracy", "orderstat"),
    ("cli", "expected_max_accuracy", "orderstat"),
    ("cli", "min_accuracy_at_significance", "orderstat"),
    ("cli", "min_accuracy_beating_max", "orderstat"),
    ("cli", "p_value_max", "orderstat"),
    ("cli", "p_value_standard", "orderstat"),
    ("cli", "tail_probability_max", "orderstat"),
    ("cli", "tail_probability_standard", "orderstat"),
    ("cli", "simulate_expected_max", "oracle"),
    ("orderstat", "expected_standard_accuracy", "orderstat"),
    ("orderstat", "expected_max_accuracy", "orderstat"),
    ("orderstat", "max_order_distribution", "orderstat"),
    ("orderstat", "tail_sums", "orderstat"),
    ("orderstat", "count_distribution", "dist"),
    ("oracle", "count_distribution", "dist"),
    ("dist", "binomial_distribution", "dist"),
    ("dist", "poisson_binomial_distribution", "dist"),
)


class MissingTargets(Exception):
    """Names the tracer must wrap but the program does not have."""


class ArrayBytes:
    """Bytes of the arrays that frames of one source file bind while a call runs.

    While the call runs, a trace function looks at the locals of every
    frame whose code comes from ``filename`` at each line, and adds the
    ``nbytes`` of each array that owns its data the first time it sees it.
    Views and arrays of other modules' frames are not counted.
    """

    def __init__(self, filename: str):
        self.filename = filename
        self.total = 0
        self._seen: dict[int, weakref.ref] = {}

    def _forget(self, key: int) -> None:
        self._seen.pop(key, None)

    def _local(self, frame, event, arg):
        for value in frame.f_locals.values():
            if (isinstance(value, numpy.ndarray) and value.flags.owndata
                    and id(value) not in self._seen):
                key = id(value)
                # Drop the id when the array dies, so a new array that
                # reuses the address is counted.
                self._seen[key] = weakref.ref(value, lambda _, key=key: self._forget(key))
                self.total += value.nbytes
        return self._local

    def _call(self, frame, event, arg):
        return self._local if frame.f_code.co_filename == self.filename else None

    def run(self, fn, *args, **kwargs):
        previous = sys.gettrace()
        sys.settrace(self._call)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.settrace(previous)


class Tracer:
    """Spans as ``[id, parent, layer, name, start_ns, end_ns]`` plus exact counters."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.specs: set = set()
        self.tasks: set = set()
        self._restore: list[tuple] = []
        self.oracle_arrays = ArrayBytes(modules["oracle"].__file__)

    # -- recording ---------------------------------------------------------

    def open(self, layer: str, name: str) -> list:
        span = [len(self.spans), self.stack[-1] if self.stack else None, layer, name, 0, 0]
        self.spans.append(span)
        self.stack.append(span[0])
        span[4] = time.perf_counter_ns()
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter_ns()
        self.stack.pop()

    def parent_layer(self, span: list) -> str | None:
        return None if span[1] is None else self.spans[span[1]][2]

    def _wrap(self, layer: str, name: str, fn, after, run=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(layer, name)
            try:
                result = fn(*args, **kwargs) if run is None else run(fn, *args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper

    # -- counters at the layer boundaries ----------------------------------

    def _after_read(self, span, args, kwargs, result):
        self.counts["ingest.records"] += len(result.records)
        self.counts["ingest.rows_rejected"] += len(result.errors)
        source = args[0] if args else kwargs.get("source")
        if isinstance(source, (str, os.PathLike)):
            self.counts["ingest.bytes"] += os.path.getsize(source)

    def _after_build(self, span, args, kwargs, result):
        name = span[3]
        self.counts["dist.elements"] += result.pmf.size
        self.counts["dist.bytes_computed"] += sum(
            getattr(result, attr).nbytes for attr in ("pmf", "cdf", "log_pmf")
            if hasattr(result, attr))
        if name == "binomial_distribution":
            self.counts["dist.binomial_builds"] += 1
        else:
            self.counts["dist.poisson_binomial_builds"] += 1

    def _after_simulate(self, span, args, kwargs, result):
        config = args[0] if args else kwargs["config"]
        self.counts["oracle.draws"] += config.trials * config.spec.t

    def _after_tail(self, span, args, kwargs, result):
        self.counts["orderstat.tail_calls"] += 1

    def _count_specs(self, fn):
        @functools.wraps(fn)
        def wrapper(spec):
            self.specs.add(spec)
            self.tasks.add((spec.n, spec.labels))
            return fn(spec)

        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attribute, replacement) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        after = {
            "read_records": self._after_read,
            "binomial_distribution": self._after_build,
            "poisson_binomial_distribution": self._after_build,
            "simulate_expected_max": self._after_simulate,
            "tail_sums": self._after_tail,
        }
        distribution = getattr(self.modules["dist"], "CountDistribution", None)
        orderstat = self.modules["orderstat"]
        self.base = getattr(orderstat, "_base_distribution", None)
        missing = [f"maxrand.{module}.{attribute}" for module, attribute, _ in TARGETS
                   if not hasattr(self.modules[module], attribute)]
        if distribution is None or "tail" not in vars(distribution):
            missing.append("maxrand.dist.CountDistribution.tail")
        if not callable(getattr(self.base, "cache_info", None)):
            missing.append("maxrand.orderstat._base_distribution.cache_info")
        if missing:
            raise MissingTargets(", ".join(missing))
        for module_name, attribute, layer in TARGETS:
            module = self.modules[module_name]
            fn = getattr(module, attribute)
            run = self.oracle_arrays.run if layer == "oracle" else None
            self._patch(module, attribute,
                        self._wrap(layer, attribute, fn, after.get(attribute), run))
        # CountDistribution.tail is a method, looked up on the class.
        self._patch(distribution, "tail",
                    self._wrap("orderstat", "tail", distribution.tail, self._after_tail))
        self._patch(orderstat, "_base_distribution", self._count_specs(self.base))
        self.cache_before = self.base.cache_info()

    def uninstall(self) -> None:
        self.cache_after = self.base.cache_info()
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        self_ns: dict[str, int] = defaultdict(int)
        entries: Counter = Counter()
        names: Counter = Counter()
        baseline_reports_from_audit = 0
        dist_calls_via_orderstat = 0
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[1] is not None:
                child_ns[span[1]] += span[5] - span[4]
        for span in self.spans:
            _, parent, layer, name, start, end = span
            self_ns[layer] += end - start - child_ns[span[0]]
            names[name] += 1
            if self.parent_layer(span) != layer:
                entries[layer] += 1
            if name == "baseline_report" and self.parent_layer(span) == "audit":
                baseline_reports_from_audit += 1
            if name == "count_distribution" and self.parent_layer(span) == "orderstat":
                dist_calls_via_orderstat += 1
        counts = self.counts
        hits = self.cache_after.hits - self.cache_before.hits
        misses = self.cache_after.misses - self.cache_before.misses
        oracle_s = self_ns["oracle"] / 1e9
        metrics = {
            "ingest.calls": entries["ingest"],
            "ingest.self_s": self_ns["ingest"] / 1e9,
            "ingest.records": counts["ingest.records"],
            "ingest.rows_rejected": counts["ingest.rows_rejected"],
            "ingest.bytes": counts["ingest.bytes"],
            "audit.self_s": self_ns["audit"] / 1e9,
            "audit.classify_calls": names["classify"],
            "audit.baseline_reports_per_record": (
                baseline_reports_from_audit / names["classify"] if names["classify"] else 0.0),
            "orderstat.calls": entries["orderstat"],
            "orderstat.self_s": self_ns["orderstat"] / 1e9,
            "orderstat.tail_calls": counts["orderstat.tail_calls"],
            "orderstat.max_order_builds": names["max_order_distribution"],
            "orderstat.base_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "orderstat.base_cache_misses": misses,
            "orderstat.distinct_specs": len(self.specs),
            "orderstat.distinct_tasks": len(self.tasks),
            "dist.calls": entries["dist"],
            "dist.self_s": self_ns["dist"] / 1e9,
            "dist.binomial_builds": counts["dist.binomial_builds"],
            "dist.poisson_binomial_builds": counts["dist.poisson_binomial_builds"],
            "dist.elements": counts["dist.elements"],
            "dist.bytes_computed": counts["dist.bytes_computed"],
            "oracle.calls": entries["oracle"],
            "oracle.self_s": oracle_s,
            "oracle.draws": counts["oracle.draws"],
            "oracle.draws_per_s": counts["oracle.draws"] / oracle_s if oracle_s else 0.0,
            "oracle.bytes_computed": self.oracle_arrays.total,
            "cli.calls": entries["cli"],
            "cli.self_s": self_ns["cli"] / 1e9,
        }
        consistency = {
            "dist_calls_via_orderstat": dist_calls_via_orderstat,
            "base_cache_misses": misses,
        }
        return metrics, consistency

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, layer, name, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "layer": layer,
                                         "name": name, "start_ns": start, "end_ns": end}) + "\n")
