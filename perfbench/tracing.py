"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions and methods that
``run_iteration``, ``prepare`` and ``CacheStore`` call with wrappers that
record a span (name, start, end, parent) and bump counters; ``uninstall``
puts the originals back.  Spans stay in memory until the benchmark writes
them out.  A layer's self time is the time of its spans minus the time
covered by their child spans, so nested layers are never counted twice.

A target that no longer exists raises ``TraceTargetMissing`` at install
time, so a renamed function fails the traced run instead of silently
reporting 0 for its layer.

This module must not import iterflow at load time: the traced CLI child
times ``import iterflow.cli`` before it installs the tracer.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from pathlib import Path


class TraceTargetMissing(RuntimeError):
    pass


def _plan_counts(tracer, plan, args, kwargs):
    for state in plan.states.values():
        tracer.counts[f"planner.{state.value}_nodes"] += 1


def _prune_counts(tracer, result, args, kwargs):
    tracer.counts["workflow.live_nodes"] += len(result[0].nodes)


def _diff_counts(tracer, changes, args, kwargs):
    tracer.counts["changes.changed_nodes"] += len(changes.changed)


def _decide_counts(tracer, decision, args, kwargs):
    tracer.counts["policy.decisions"] += 1
    tracer.counts["policy.materialized"] += int(decision.materialize)


def _put_counts(tracer, entry, args, kwargs):
    tracer.counts["store.puts"] += 1


def _get_counts(tracer, payload, args, kwargs):
    tracer.counts["store.gets"] += 1
    tracer.counts["store.get_bytes"] += len(payload)


def _manifest_counts(tracer, result, args, kwargs):
    tracer.counts["store.manifest_saves"] += 1
    tracer.counts["store.manifest_bytes_written"] += (Path(args[0]) / "manifest.json").stat().st_size


def _runlog_counts(tracer, result, args, kwargs):
    path = Path(args[0]) / "runs.log"
    tracer.counts["runner.runlog_bytes"] += path.stat().st_size if path.is_file() else 0


def _report_counts(tracer, report, args, kwargs):
    if report.clock_mode == "real":
        tracer.counts["runner.operator_s"] += report.compute_seconds


# (module, attribute path, span name or None for counts only, count hook)
ENGINE_TARGETS = (
    ("iterflow.runner", "run_iteration", "runner.run_iteration", _report_counts),
    ("iterflow.runner", "prepare", "runner.prepare", None),
    ("iterflow.runner", "parse_workflow", "workflow.parse", None),
    ("iterflow.runner", "prune_dead_operators", "workflow.prune", _prune_counts),
    ("iterflow.runner", "compute_signatures", "changes.fingerprint", None),
    ("iterflow.runner", "diff_iterations", "changes.diff", _diff_counts),
    ("iterflow.runner", "assign_states_optimal", "planner.plan", _plan_counts),
    ("iterflow.runner", "execute", "runner.execute", None),
    ("iterflow.runner", "read_run_log_tail", "runner.runlog_read", _runlog_counts),
    ("iterflow.policy", "EnginePolicy.decide", "policy.decide", _decide_counts),
    ("iterflow.store", "load_manifest", "store.open", None),
    ("iterflow.store", "CacheStore.__init__", "store.open", None),
    ("iterflow.store", "CacheStore.close", "store.close", None),
    ("iterflow.store", "CacheStore.save", "store.save", None),
    ("iterflow.store", "CacheStore.put", "store.put", _put_counts),
    ("iterflow.store", "CacheStore.get", "store.get", _get_counts),
    ("iterflow.store", "save_manifest", None, _manifest_counts),
)

# The CLI imported these names into its own namespace.
CLI_TARGETS = ENGINE_TARGETS + (
    ("iterflow.cli", "run_iteration", "runner.run_iteration", _report_counts),
    ("iterflow.cli", "prepare", "runner.prepare", None),
    ("iterflow.cli", "load_manifest", "store.open", None),
)

# Spans every run or plan produces; a session missing one traced nothing.
REQUIRED_SPANS = ("runner.prepare", "workflow.parse", "workflow.prune",
                  "changes.fingerprint", "changes.diff", "planner.plan",
                  "store.open", "runner.execute", "runner.runlog_read",
                  "policy.decide", "store.close")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            break
    fn = getattr(owner, attr, None) if owner is not None else None
    if not callable(fn):
        raise TraceTargetMissing(f"trace target {module_name}.{path} no longer exists")
    return owner, attr, fn


def self_times(spans) -> Counter:
    """Seconds per span name, each span minus its direct children."""
    totals: Counter = Counter()
    for _, parent, name, start, end in spans:
        totals[name] += end - start
        if parent >= 0:
            totals[spans[parent][2]] -= end - start
    return totals


class Tracer:
    def __init__(self) -> None:
        # (span id, parent id or -1, name, start, end)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                parent = tracer._stack[-1] if tracer._stack else -1
                span_id = len(tracer.spans)
                tracer.spans.append((span_id, parent, name, 0.0, 0.0))
                tracer._stack.append(span_id)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer._stack.pop()
                    tracer.spans[span_id] = (span_id, parent, name, start, end)
            if hook is not None:
                hook(tracer, result, args, kwargs)
            return result
        return wrapper

    def install(self, targets=ENGINE_TARGETS) -> None:
        resolved = [(_resolve(module, path), name, hook)
                    for module, path, name, hook in targets]
        for (owner, attr, fn), name, hook in resolved:
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def dump(self) -> dict:
        return {"spans": list(self.spans), "counts": dict(self.counts)}
