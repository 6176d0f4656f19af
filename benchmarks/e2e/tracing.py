"""Spans recorded from outside the program, and the per-layer metrics
derived from them.

The traced replay wraps the public callables in :data:`TARGETS` at
class or module level — never on instances, because systems and
engines are pickled by checkpoints and by shard start.  Each span is
``[name, start, end, parent, count]``; spans stay in memory until the
replay ends.  A layer's self time is its span minus its children, so
the self times plus ``system.pipeline.self_s`` (the self time of the
``system.run`` span the harness opens around ``run()``) add up to the
traced wall by construction.

A target that no longer exists is recorded in ``Tracer.missing`` and
its metrics come out as ``None`` with a warning: a later refactor can
land without editing this directory, because the end-to-end metrics
depend only on ``run()`` and its ``SystemReport``.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

#: Every definition the default (adaptive, crowd-variant) rule set
#: evaluates; each gets a ``core.rtec.def.<name>.cpu_s`` metric.
DEFINITIONS = (
    "agree",
    "busCongestion",
    "congestionInTheMake",
    "delayIncrease",
    "densityTrend",
    "disagree",
    "flowTrend",
    "noisy",
    "scatsCongestion",
    "scatsIntCongestion",
    "sourceDisagreement",
    "trafficRegime",
)

#: The garbage collector's spans, by generation.  It stays on, as it is
#: for users, and it is the one "layer" that runs inside all the others.
GC_SPANS = ("runtime.gc.gen0", "runtime.gc.gen1", "runtime.gc.gen2")

#: ``system.pipeline.self_share`` above this means a span is missing.
MAX_PIPELINE_SELF_SHARE = 0.15


def _count_sdes(data) -> int:
    return len(data.events) + len(data.facts)


def _count_rows(batch) -> int:
    return batch.n


#: ``(span name, module, class or None, attribute, result counter)``.
#: Module-level functions are wrapped where the run path looks them up
#: (``inject_scenario`` is bound by name in ``repro.system.pipeline``,
#: ``compile_scenario`` in this benchmark's ``workloads``).
TARGETS: tuple[tuple[str, str, Optional[str], str, Optional[Callable]], ...] = (
    ("scenarios.compile", "workloads", None, "compile_scenario", None),
    ("dublin.generate", "repro.dublin.scenario", "DublinScenario", "generate", _count_sdes),
    ("dublin.split", "repro.dublin.scenario", "DublinScenario", "split_by_region", None),
    ("faults.inject", "repro.system.pipeline", None, "inject_scenario", None),
    ("core.columns.from_sdes", "repro.core.columns", "SDEColumns", "from_sdes", _count_rows),
    ("core.rtec.feed_columns", "repro.core.rtec", "RTEC", "feed_columns", None),
    ("core.rtec.crowd_feed", "repro.core.rtec", "RTEC", "feed", None),
    ("core.rtec.query", "repro.core.rtec", "RTEC", "query", None),
    ("system.console.notify", "repro.system.console", "OperatorConsole", "notify", None),
    ("system.degradation.observe", "repro.system.degradation", "DegradationManager", "observe", None),
    ("crowd.handle_disagreement", "repro.crowd.component", "CrowdsourcingComponent", "handle_disagreement", None),
    ("crowd.engine.execute", "repro.crowd.engine", "QueryExecutionEngine", "execute", None),
    ("crowd.online_em.process", "repro.crowd.online_em", "OnlineEM", "process", None),
    ("traffic_model.observe", "repro.traffic_model.rolling", "RollingFlowEstimator", "observe", None),
    ("traffic_model.estimate", "repro.traffic_model.rolling", "RollingFlowEstimator", "estimate", None),
    ("recovery.on_run_start", "repro.recovery.coordinator", "CheckpointCoordinator", "on_run_start", None),
    ("recovery.begin_step", "repro.recovery.coordinator", "CheckpointCoordinator", "begin_step", None),
    ("recovery.commit_step", "repro.recovery.coordinator", "CheckpointCoordinator", "commit_step", None),
    ("recovery.after_step", "repro.recovery.coordinator", "CheckpointCoordinator", "after_step", None),
    ("recovery.on_run_complete", "repro.recovery.coordinator", "CheckpointCoordinator", "on_run_complete", None),
    ("shard.start", "repro.shard.runtime", "ShardedRuntime", "start", None),
    ("shard.query_step", "repro.shard.runtime", "ShardedRuntime", "query_step", None),
    ("shard.publish_feed", "repro.shard.runtime", "ShardedRuntime", "publish_feed", None),
    ("shard.shutdown", "repro.shard.runtime", "ShardedRuntime", "shutdown", None),
)


class Tracer:
    """In-memory span recorder for one single-threaded driver."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        #: Span names whose target could not be wrapped.
        self.missing: list[str] = []
        self._stack: list[int] = []
        # Shard workers are forked from the traced process and inherit
        # the wrappers; only the driver process records.
        self._pid = os.getpid()
        self._gc_span: Optional[int] = None

    def begin(self, name: str) -> int:
        # Creating the span list may start a collection, whose callback
        # records a complete span of its own; nothing after this line
        # allocates a collectable object, so the bookkeeping below
        # cannot be interleaved with it.
        span = [name, 0.0, None, -1, 0]
        stack = self._stack
        if stack:
            span[3] = stack[-1]
        index = len(self.spans)
        self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        return index

    def end(self, index: int, count: int = 0) -> None:
        now = time.perf_counter()
        span = self.spans[index]
        span[2] = now
        span[4] = count
        self._stack.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: a collection is a span inside
        whichever layer's allocation set it off."""
        if not self.enabled or os.getpid() != self._pid:
            return
        if phase == "start":
            self._gc_span = self.begin(GC_SPANS[info["generation"]])
        elif self._gc_span is not None:
            self.end(self._gc_span, info["collected"])
            self._gc_span = None

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        raw = vars(owner).get(attr)
        if raw is None:
            self.missing.append(name)
            return
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            n = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(result)
                return result
            finally:
                tracer.end(index, n)

        setattr(owner, attr, kind(traced) if kind else traced)

    def install(self) -> None:
        """Wrap every target that still exists."""
        for name, module_name, class_name, attr, count in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            self.wrap(owner, attr, name, count)
        gc.callbacks.append(self._on_gc)
        for name in self.missing:
            print(
                f"warning: trace target {name!r} no longer exists; its "
                "metrics are null",
                file=sys.stderr,
            )

    def span_cost_s(self, calls: int = 20000) -> float:
        """Calibrated cost of recording one span: a wrapped no-op
        against the bare no-op, best of three rounds."""

        class Probe:
            def bare(self) -> None:
                pass

            def wrapped(self) -> None:
                pass

        self.wrap(Probe, "wrapped", "trace.calibration")
        probe = Probe()
        mark = len(self.spans)
        was_enabled, self.enabled = self.enabled, True
        costs = []
        try:
            for _ in range(3):
                t0 = time.perf_counter()
                for _ in range(calls):
                    probe.bare()
                t1 = time.perf_counter()
                for _ in range(calls):
                    probe.wrapped()
                t2 = time.perf_counter()
                costs.append(((t2 - t1) - (t1 - t0)) / calls)
                del self.spans[mark:]
        finally:
            self.enabled = was_enabled
        return max(0.0, min(costs))

    # -- analysis ------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per-span self time: duration minus direct children."""
        selfs = [span[2] - span[1] for span in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def check(self) -> list[str]:
        """Structural problems: open spans, bad nesting, overlapping
        siblings (which would show as negative self time)."""
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} span(s) never ended")
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if end is None or end < start:
                problems.append(f"span {index} {name!r} has no valid end")
                continue
            if parent >= 0:
                p = self.spans[parent]
                if parent >= index or start < p[1] or end > p[2]:
                    problems.append(
                        f"span {index} {name!r} is not nested in its "
                        f"parent {p[0]!r}"
                    )
        if not problems:
            for index, value in enumerate(self.self_times()):
                if value < -1e-6:
                    problems.append(
                        f"span {index} {self.spans[index][0]!r} has "
                        f"negative self time {value:.6f}s"
                    )
        return problems

    def totals(self, root: int) -> tuple[dict, dict, dict, dict]:
        """``(span seconds, self seconds, calls, counts)`` by name over
        ``root`` and everything below it."""
        inside = [False] * len(self.spans)
        inside[root] = True
        seconds: dict = defaultdict(float)
        selfs: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        counts: dict = defaultdict(int)
        self_times = self.self_times()
        for index, (name, start, end, parent, n) in enumerate(self.spans):
            if index != root:
                inside[index] = parent >= 0 and inside[parent]
            if inside[index]:
                seconds[name] += end - start
                selfs[name] += self_times[index]
                calls[name] += 1
                counts[name] += n
        return seconds, selfs, calls, counts

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for index, (name, start, end, parent, n) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "count": n,
                        }
                    )
                    + "\n"
                )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer, run_root: int, setup_root: int, system, report,
    step_ms: list,
) -> tuple[dict, dict]:
    """The per-layer metrics of one traced replay.

    ``step_ms`` is the per-step recognition CPU whose mean is the
    end-to-end ``step_cpu_ms_mean``; its median and 90th percentile are
    reported here, without a bound, because 12 steps do not support a
    percentile and the 60 of ``storm_chaos_durable`` leave only six
    samples beyond a p90.

    Returns ``(metrics, self_seconds)``: metric name -> value (``None``
    where the wrapped callable is gone), and self seconds per span
    name under ``system.run`` for the breakdown table.
    """
    seconds, selfs, calls, counts = tracer.totals(run_root)
    setup_seconds = tracer.totals(setup_root)[0]
    missing = set(tracer.missing)

    def span_s(name: str, source=seconds):
        return None if name in missing else source.get(name, 0.0)

    def span_n(name: str, source=calls):
        return None if name in missing else source.get(name, 0)

    def total(*names: str):
        values = [span_s(name) for name in names]
        return None if None in values else sum(values)

    counters = report.metrics.get("counters", {})
    timings = report.metrics.get("timings", {})
    snapshots = [
        snapshot
        for log in report.logs.values()
        for snapshot in log.snapshots
    ]
    sharded = system.config.sharded

    def fault_count(kind: str) -> int:
        return int(
            sum(
                value
                for key, value in counters.items()
                if key.startswith("faults.") and key.endswith("." + kind)
            )
        )

    metrics: dict = {
        "dublin.generate_s": span_s("dublin.generate"),
        "dublin.generate_sdes": span_n("dublin.generate", counts),
        "dublin.split_s": span_s("dublin.split"),
        "scenarios.compile_s": span_s("scenarios.compile", setup_seconds),
        "faults.inject_s": span_s("faults.inject"),
        "faults.delayed_n": fault_count("delayed"),
        "faults.dropped_n": fault_count("dropped"),
        "faults.corrupted_n": fault_count("corrupted"),
        "core.columns.from_sdes_s": span_s("core.columns.from_sdes"),
        "core.columns.rows": span_n("core.columns.from_sdes", counts),
        "core.rtec.feed_columns_s": span_s("core.rtec.feed_columns"),
        "core.rtec.crowd_feed_s": span_s("core.rtec.crowd_feed"),
    }

    # RTEC.query runs in the workers when sharded: the parent then has
    # no query spans and the workers' own CPU figure stands in.
    definition_s = {name: 0.0 for name in DEFINITIONS}
    all_definitions_s = 0.0
    for snapshot in snapshots:
        for name, elapsed in snapshot.per_definition.items():
            all_definitions_s += elapsed
            if name in definition_s:
                definition_s[name] += elapsed
    if sharded:
        query_s = sum(snapshot.elapsed for snapshot in snapshots)
    else:
        query_s = span_s("core.rtec.query")
    metrics["core.rtec.query_s"] = query_s
    metrics["core.rtec.query_n"] = len(snapshots)
    metrics["core.rtec.window_sdes_mean"] = _ratio(
        sum(snapshot.n_events for snapshot in snapshots), len(snapshots)
    )
    metrics["core.rtec.new_sdes"] = sum(
        snapshot.n_new_events for snapshot in snapshots
    )
    ordered = sorted(step_ms)
    metrics["core.rtec.step_cpu_ms_p50"] = statistics.median(ordered)
    metrics["core.rtec.step_cpu_ms_p90"] = ordered[
        math.ceil(0.9 * len(ordered)) - 1
    ]
    for name in DEFINITIONS:
        metrics[f"core.rtec.def.{name}.cpu_s"] = definition_s[name]
    metrics["core.rtec.query_other_s"] = (
        None if query_s is None else max(0.0, query_s - all_definitions_s)
    )

    hits = sum(snapshot.cache_hits for snapshot in snapshots)
    misses = sum(snapshot.cache_misses for snapshot in snapshots)
    invalidations = sum(
        snapshot.cache_invalidations for snapshot in snapshots
    )
    evals = sum(snapshot.compiled_evals for snapshot in snapshots)
    fallbacks = sum(snapshot.compiled_fallbacks for snapshot in snapshots)
    metrics.update(
        {
            "core.incremental.cache_hits": hits,
            "core.incremental.cache_misses": misses,
            "core.incremental.cache_invalidations": invalidations,
            "core.incremental.reuse_ratio": _ratio(
                hits, hits + misses + invalidations
            ),
            "core.compiled.evals": evals,
            "core.compiled.fallbacks": fallbacks,
            "core.compiled.share": _ratio(evals, evals + fallbacks),
            "system.console.notify_s": span_s("system.console.notify"),
            "system.console.alerts_n": len(report.console.alerts),
            "system.degradation.observe_s": span_s(
                "system.degradation.observe"
            ),
        }
    )

    run_wall = seconds.get("system.run", 0.0)
    pipeline_self = span_s("system.run", selfs)
    metrics["system.pipeline.self_s"] = pipeline_self
    metrics["system.pipeline.self_share"] = (
        None if pipeline_self is None else _ratio(pipeline_self, run_wall)
    )

    resolved = report.crowd_resolutions
    unresolved = report.crowd_unresolved
    metrics.update(
        {
            "crowd.handle_disagreement_s": span_s(
                "crowd.handle_disagreement"
            ),
            "crowd.engine.execute_s": span_s("crowd.engine.execute"),
            "crowd.online_em.process_s": span_s("crowd.online_em.process"),
            "crowd.queries_n": int(counters.get("crowd.engine.queries", 0)),
            "crowd.resolved_n": resolved,
            "crowd.unresolved_n": unresolved,
            "crowd.suppressed_n": report.crowd_suppressed,
            "crowd.resolved_share": _ratio(resolved, resolved + unresolved),
            "traffic_model.observe_s": span_s("traffic_model.observe"),
            "traffic_model.estimate_s": span_s("traffic_model.estimate"),
            "traffic_model.estimate_n": span_n("traffic_model.estimate"),
            "traffic_model.nodes": (
                system.scenario.network.graph.number_of_nodes()
            ),
            "recovery.on_run_start_s": span_s("recovery.on_run_start"),
            "recovery.journal_s": total(
                "recovery.begin_step", "recovery.commit_step"
            ),
            "recovery.after_step_s": span_s("recovery.after_step"),
            "recovery.on_run_complete_s": span_s(
                "recovery.on_run_complete"
            ),
            "recovery.checkpoint_writes": int(
                counters.get("recovery.checkpoint.writes", 0)
            ),
            "recovery.checkpoint_bytes": int(
                counters.get("recovery.checkpoint.bytes", 0)
            ),
            "recovery.journal_records": int(
                counters.get("recovery.journal.records", 0)
            ),
        }
    )

    # Worker-side figures: per-worker CPU from the snapshots the
    # workers shipped, checkpoint cost from the worker registries the
    # runtime merged under ``shard.<group>.*``.
    worker_cpu = (
        [
            sum(snapshot.elapsed for snapshot in log.snapshots)
            for log in report.logs.values()
        ]
        if sharded
        else []
    )
    slowest_per_step: dict = defaultdict(float)
    if sharded:
        for snapshot in snapshots:
            q = snapshot.query_time
            slowest_per_step[q] = max(slowest_per_step[q], snapshot.elapsed)
    query_step_s = span_s("shard.query_step")
    # What a step costs the parent beyond its slowest worker's query:
    # pickling snapshots, pipe transfer, journalling, scheduling.
    bus_overhead_s = (
        None
        if query_step_s is None
        else max(0.0, query_step_s - sum(slowest_per_step.values()))
    )
    cpu_max = max(worker_cpu, default=0.0)
    cpu_mean = _ratio(sum(worker_cpu), len(worker_cpu))
    metrics.update(
        {
            "shard.start_s": span_s("shard.start"),
            "shard.query_step_s": query_step_s,
            "shard.publish_feed_s": span_s("shard.publish_feed"),
            "shard.shutdown_s": span_s("shard.shutdown"),
            "shard.worker_query_cpu_s.max": cpu_max,
            "shard.worker_query_cpu_s.mean": cpu_mean,
            "shard.skew": _ratio(cpu_max, cpu_mean),
            "shard.bus_overhead_s": bus_overhead_s,
            "shard.checkpoint_s": sum(
                entry["total"]
                for key, entry in timings.items()
                if key.startswith("shard.")
                and key.endswith(".recovery.checkpoint.seconds")
            ),
            "shard.checkpoint_bytes": int(
                sum(
                    value
                    for key, value in counters.items()
                    if key.startswith("shard.")
                    and key.endswith(".recovery.checkpoint.bytes")
                )
            ),
            "shard.restarts": len(report.shard_events),
        }
    )
    gc_s = [seconds.get(name, 0.0) for name in GC_SPANS]
    metrics["runtime.gc.pause_s"] = sum(gc_s)
    metrics["runtime.gc.collections"] = sum(
        calls.get(name, 0) for name in GC_SPANS
    )
    metrics["runtime.gc.gen2_s"] = gc_s[2]
    metrics["runtime.gc.gen2_n"] = calls.get(GC_SPANS[2], 0)
    metrics["runtime.gc.gen2_max_s"] = max(
        (
            span[2] - span[1]
            for span in tracer.spans[run_root:]
            if span[0] == GC_SPANS[2]
        ),
        default=0.0,
    )
    # Spans recorded times the calibrated cost of one.  Comparing the
    # traced wall with an untraced one cannot resolve this: two
    # untraced replays of one input differ by more than the tracing
    # costs (see the README's findings).
    metrics["trace.run_wall_s"] = run_wall
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.overhead_share"] = _ratio(
        len(tracer.spans) * tracer.span_cost_s(), run_wall
    )
    run_selfs = {
        name: value for name, value in selfs.items() if name != "system.run"
    }
    run_selfs["system.pipeline.self"] = selfs.get("system.run", 0.0)
    return metrics, run_selfs


def layer_problems(workload_name: str, metrics: dict, report) -> list[str]:
    """The data-dependent self-checks on one traced replay."""
    problems = []
    evaluated = {
        name
        for log in report.logs.values()
        for snapshot in log.snapshots
        for name in snapshot.per_definition
    }
    if evaluated - set(DEFINITIONS):
        problems.append(
            "definitions without a core.rtec.def.* metric: "
            f"{sorted(evaluated - set(DEFINITIONS))}"
        )
    share = metrics.get("system.pipeline.self_share")
    if share is not None and share > MAX_PIPELINE_SELF_SHARE:
        problems.append(
            f"system.pipeline.self_share = {share:.3f} > "
            f"{MAX_PIPELINE_SELF_SHARE}: a span is missing"
        )
    if workload_name in ("dublin_rush", "dublin_wm110"):
        for name, value in metrics.items():
            if name.startswith(("recovery.", "shard.")) and value:
                problems.append(
                    f"{name} = {value} on {workload_name}, which has no "
                    "recovery and no shards"
                )
    return problems
