"""iterflow benchmark: seeded edit-and-rerun sessions, timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload edit-loop --seed 1 --seconds 30 --trace 0

A session is a cold run on an empty cache followed by seeded edits; each
edit is followed by a read-only ``plan`` and a ``run``.  The benchmark
replays whole sessions of the same seeded inputs until ``--seconds`` have
passed, checks every operation's outputs with its own computations (see
checks.py), and prints one JSON object as the last line of stdout:
end-to-end metrics with ``--trace 0``, per-layer metrics from a traced
session (with untraced sessions alongside for the tracing overhead) with
``--trace 1``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

# Before each session, set up on its own until this many seconds are spent,
# at most this many times; setup_s is the median of all set-ups of a run.
EXTRA_SETUP_SECONDS, MAX_EXTRA_SETUPS = 0.3, 8


@dataclass(frozen=True)
class Simulated:
    """In-process sessions on the simulated clock."""

    shape: gen.DagShape
    edits: int
    budget_bytes: int | None


@dataclass(frozen=True)
class RealCli:
    """Sessions driven through ``python -m iterflow.cli`` on the real clock."""

    source_bytes: int


WORKLOADS = {
    # Few hundred nodes in six independent branches, so an edit recomputes
    # a cone of a few dozen nodes; unlimited budget, so every computed node
    # with a positive r-value is put, and the manifest grows all session.
    # Sessions are short enough for six or seven of them in a 30 s run.
    "edit-loop": Simulated(
        gen.DagShape(branches=6, layers=8, width=5, window=2, parents=2,
                     min_bytes=10**6, max_bytes=4 * 10**6),
        edits=12, budget_bytes=None),
    # One deep branch: ancestor sets of thousands of nodes for the policy,
    # a large min-cut for the planner, and a budget of a few dozen outputs.
    "large-dag": Simulated(
        gen.DagShape(branches=1, layers=200, width=8, window=3, parents=3,
                     min_bytes=10**7, max_bytes=10**8),
        edits=3, budget_bytes=2 * 10**9),
    "real-cli": RealCli(source_bytes=1 << 20),
}

E2E_UNITS = {
    "setup_s": "s",
    "cold_run_s": "s",
    "edit_run_p50_s": "s",
    "edit_run_total_s": "s",
    "plan_p50_s": "s",
    "reported_cumulative_s": "s",
    "cache_disk_bytes": "bytes",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span whose self time it sums
LAYER_SPANS = {
    "workflow.parse_s": "workflow.parse",
    "workflow.prune_s": "workflow.prune",
    "changes.fingerprint_s": "changes.fingerprint",
    "changes.diff_s": "changes.diff",
    "planner.plan_s": "planner.plan",
    "policy.decide_s": "policy.decide",
    "store.open_s": "store.open",
    "store.close_s": "store.close",
    "store.save_s": "store.save",
    "store.put_s": "store.put",
    "store.get_s": "store.get",
    "runner.runlog_read_s": "runner.runlog_read",
}
LAYER_COUNTS = {
    "workflow.live_nodes": "count",
    "changes.changed_nodes": "count",
    "planner.compute_nodes": "count",
    "planner.load_nodes": "count",
    "planner.prune_nodes": "count",
    "policy.decisions": "count",
    "policy.materialized": "count",
    "store.puts": "count",
    "store.manifest_saves": "count",
    "store.manifest_bytes_written": "bytes",
    "store.gets": "count",
    "store.get_bytes": "bytes",
    "runner.runlog_bytes": "bytes",
    "runner.operator_s": "s",
}


@dataclass
class Session:
    setup_s: float = 0.0
    cold_s: float = math.nan
    edit_runs: list[float] = field(default_factory=list)
    plans: list[float] = field(default_factory=list)
    cumulative_s: float = math.nan
    disk_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)  # failures not expected today
    faults: list[str] = field(default_factory=list)  # failures of the known fault
    dumps: list[dict] = field(default_factory=list)

    def record_cold(self, seconds: float) -> None:
        self.cold_s = seconds

    @property
    def wall_s(self) -> float:
        return self.cold_s + sum(self.edit_runs) + sum(self.plans)

    def attempt(self, op, *args, known_fault: bool = False):
        """One operation; any raise from the program or a check fails it."""
        self.attempted += 1
        try:
            return op(*args)
        except Exception as exc:  # noqa: BLE001 - the op boundary must keep running
            self.failed += 1
            (self.faults if known_fault else self.errors).append(f"{type(exc).__name__}: {exc}")
            return None


def _cached_signatures(cache: Path) -> set[str]:
    path = cache / "manifest.json"
    return set(json.loads(path.read_text("utf-8"))["entries"]) if path.is_file() else set()


def _disk_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def simulated_session(w: Simulated, seed: int, base: Path, tracer, setup_only=False) -> Session:
    import iterflow.runner as runner
    import iterflow.store as store

    s = Session()
    gc.collect()
    started = time.perf_counter()
    rng = random.Random(seed)
    doc = gen.simulated_spec(rng, w.shape)
    ws, cache = base / "ws", base / "cache"
    spec = ws / "workflow.json"
    (ws / "src").mkdir(parents=True)
    for node in doc["nodes"]:
        for source in node["sources"]:
            (ws / source).write_text(f"source {source}\n", encoding="utf-8")
    spec.write_text(json.dumps(doc), encoding="utf-8")
    s.setup_s = time.perf_counter() - started
    if setup_only:
        return s

    parents = gen.parent_map(doc)
    live = gen.live_nodes(parents, doc["outputs"])
    children = gen.child_map(parents, live)
    edits = gen.pick_edits(children, w.edits)
    by_name = {node["name"]: node for node in doc["nodes"]}
    actions = {name: node["action"] for name, node in by_name.items()}
    config = runner.RunConfig(clock_mode=runner.CLOCK_SIMULATED, budget_bytes=w.budget_bytes)
    last = {"signatures": {}, "cumulative": 0.0}

    def plan(changed: set[str]) -> dict[str, str]:
        cached = _cached_signatures(cache)
        gc.collect()  # the checks' garbage must not be collected inside the timing
        t = time.perf_counter()
        ctx = runner.prepare(spec.read_text("utf-8"), ws, store.load_manifest(cache), config)
        s.plans.append(time.perf_counter() - t)
        states = {name: state.value for name, state in ctx.plan.states.items()}
        checks.check_plan(states, parents, live, doc["outputs"], changed,
                          ctx.signatures, cached)
        if ctx.changes.changed != changed:
            raise checks.CheckFailed(
                f"plan reports changed {sorted(ctx.changes.changed ^ changed)[:5]} wrongly")
        return states

    def run(changed: set[str], planned: dict[str, str] | None, record, final: bool) -> None:
        cached = _cached_signatures(cache)
        gc.collect()
        t = time.perf_counter()
        report = runner.run_iteration(spec, ws, cache, config)
        record(time.perf_counter() - t)
        s.cumulative_s = report.cumulative_seconds
        if not report.succeeded:
            raise checks.CheckFailed(f"run failed nodes {report.failed_nodes[:5]}")
        states = {name: rec.state for name, rec in report.nodes.items()}
        signatures = {name: rec.signature for name, rec in report.nodes.items()}
        checks.check_plan(states, parents, live, doc["outputs"], changed, signatures, cached)
        checks.check_changed(last["signatures"], signatures, changed)
        if planned is not None and planned != states:
            raise checks.CheckFailed("run did not carry out the plan that plan printed")
        last["signatures"] = signatures
        last["cumulative"] = checks.check_simulated_seconds(report, actions, last["cumulative"])
        if final:
            checks.check_stub_entries(store.CacheStore, cache)

    if tracer is not None:
        tracer.install()
    try:
        s.attempt(run, live, None, s.record_cold, not edits)
        for i, name in enumerate(edits):
            by_name[name]["env_fingerprint"] = f"edit-{i:03d}"
            spec.write_text(json.dumps(doc), encoding="utf-8")
            changed = gen.cone(children, name)
            planned = s.attempt(plan, changed)
            s.attempt(run, changed, planned, s.edit_runs.append, i == len(edits) - 1)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        s.dumps.append(tracer.dump())
        tracer.reset()
    s.disk_bytes = _disk_bytes(cache)
    return s


def _corrupt_outputs(cache: Path, signatures: dict[str, str]) -> None:
    """Flip one byte in the cached payload of every output node."""
    entries = json.loads((cache / "manifest.json").read_text("utf-8"))["entries"]
    for name in gen.CLI_OUTPUTS:
        entry = entries.get(signatures.get(name))
        if entry is not None:
            path = cache / entry["payload_path"]
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x01
            path.write_bytes(bytes(data))


def cli_session(w: RealCli, seed: int, base: Path, tracer, setup_only=False) -> Session:
    s = Session()
    gc.collect()
    started = time.perf_counter()
    rng = random.Random(seed)
    texts = gen.source_texts(rng, w.source_bytes)
    ws, cache = base / "ws", base / "cache"
    spec = ws / "workflow.json"
    (ws / "src").mkdir(parents=True)
    for i, text in enumerate(texts):
        (ws / gen.source_path(i)).write_bytes(text)
    spec.write_text(json.dumps(gen.cli_spec()), encoding="utf-8")
    s.setup_s = time.perf_counter() - started
    if setup_only:
        return s

    parents = gen.cli_parent_map()
    live = gen.live_nodes(parents, gen.CLI_OUTPUTS)
    children = gen.child_map(parents, live)
    order = list(range(gen.N_SOURCES))
    rng.shuffle(order)
    env = dict(os.environ)
    env.pop("ITERFLOW_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    common = ["--spec", str(spec), "--workspace", str(ws), "--cache", str(cache), "--json"]
    last = {"signatures": {}}

    def cli(command: str, record=None) -> dict:
        if tracer is None:
            argv = [sys.executable, "-m", "iterflow.cli", command, *common]
        else:
            spans = base / f"spans-{len(s.dumps)}.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), command, *common]
        t = time.perf_counter()
        proc = subprocess.run(argv, cwd=ws, env=env, capture_output=True)
        if record is not None:
            record(time.perf_counter() - t)
        if tracer is not None:
            s.dumps.append(json.loads(spans.read_text("utf-8")))
        if proc.returncode != 0:
            raise checks.CheckFailed(f"iterflow {command} exited {proc.returncode}: "
                                     + proc.stderr.decode("utf-8", "replace")[-300:])
        return json.loads(proc.stdout)

    def plan(changed: set[str]) -> dict[str, str]:
        doc = cli("plan", s.plans.append)
        states = doc["states"]
        checks.check_plan(states, parents, live, gen.CLI_OUTPUTS, changed)
        return states

    def run(changed: set[str], planned, expected: dict[str, bytes], record) -> None:
        cached = _cached_signatures(cache)
        report = cli("run", record)
        if record is not None:
            s.cumulative_s = report["totals"]["cumulative_seconds"]
        states = {name: rec["state"] for name, rec in report["nodes"].items()}
        signatures = {name: rec["signature"] for name, rec in report["nodes"].items()}
        checks.check_plan(states, parents, live, gen.CLI_OUTPUTS, changed, signatures, cached)
        checks.check_changed(last["signatures"], signatures, changed)
        if planned is not None and planned != states:
            raise checks.CheckFailed("run did not carry out the plan that plan printed")
        last["signatures"] = signatures
        checks.check_cli_outputs(ws, states, expected)

    expected = gen.cli_expected(texts)
    s.attempt(run, live, None, expected, s.record_cold)
    for k, i in enumerate(order):
        texts[i] = gen.edit_text(rng, texts[i], f"edit-{k:03d}")
        (ws / gen.source_path(i)).write_bytes(texts[i])
        expected = gen.cli_expected(texts)
        changed = gen.cone(children, f"in{i}")
        planned = s.attempt(plan, changed)
        s.attempt(run, changed, planned, expected, s.edit_runs.append)
    # Known fault: a payload with a flipped byte passes the size check and
    # is loaded silently.  This no-edit rerun fails until loads are
    # verified; it is kept out of every timing sample.
    _corrupt_outputs(cache, last["signatures"])
    s.attempt(run, set(), None, expected, None, known_fault=True)
    s.disk_bytes = _disk_bytes(cache)
    return s


def _merge_dumps(dumps: list[dict]) -> tuple[Counter, Counter]:
    self_times, counts = Counter(), Counter()
    for dump in dumps:
        self_times.update(tracing.self_times(dump["spans"]))
        counts.update(dump["counts"])
        counts["cli.import_s"] += dump.get("import_s", 0.0)
        counts["cli.commands"] += 1 if "import_s" in dump else 0
    return self_times, counts


def layer_values(s: Session) -> dict[str, float]:
    self_times, counts = _merge_dumps(s.dumps)
    seen = set(self_times)
    missing = [name for name in tracing.REQUIRED_SPANS if name not in seen]
    if missing:
        raise tracing.TraceTargetMissing(f"traced session recorded no {missing} spans")
    values = {metric: self_times[span] for metric, span in LAYER_SPANS.items()}
    values.update({metric: counts[metric] for metric in LAYER_COUNTS})
    values["runner.execute_self_s"] = self_times["runner.execute"] - counts["runner.operator_s"]
    values["cli.import_s"] = counts["cli.import_s"]
    values["cli.commands"] = counts["cli.commands"]
    values["trace.session_s"] = s.wall_s
    return values


def per_layer_metrics(traced: list[Session], plain: list[Session]) -> dict:
    units = {metric: "s" for metric in LAYER_SPANS}
    units.update(LAYER_COUNTS)
    units.update({"runner.execute_self_s": "s", "cli.import_s": "s", "cli.commands": "count",
                  "trace.session_s": "s", "trace.overhead_s": "s"})
    rows = [layer_values(s) for s in traced]
    values = {metric: statistics.median(row[metric] for row in rows) for metric in rows[0]}
    values["trace.overhead_s"] = (values["trace.session_s"]
                                  - statistics.median(s.wall_s for s in plain))
    return {metric: {"value": values[metric], "unit": units[metric]} for metric in units}


def end_to_end_metrics(plain: list[Session], setups: list[float], rss_who: int) -> dict:
    values = {
        "setup_s": statistics.median(setups),
        "cold_run_s": statistics.median(s.cold_s for s in plain),
        "edit_run_p50_s": statistics.median(t for s in plain for t in s.edit_runs),
        "edit_run_total_s": statistics.median(sum(s.edit_runs) for s in plain),
        "plan_p50_s": statistics.median(t for s in plain for t in s.plans),
        "reported_cumulative_s": statistics.median(s.cumulative_s for s in plain),
        "cache_disk_bytes": statistics.median(s.disk_bytes for s in plain),
        "peak_rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024,
    }
    return {metric: {"value": values[metric], "unit": E2E_UNITS[metric]} for metric in E2E_UNITS}


def import_checkout_iterflow() -> str | None:
    """Import iterflow from this checkout's sources; a message if impossible."""
    if not (SRC / "iterflow" / "__init__.py").is_file():
        return f"no iterflow sources at {SRC}; run from a full checkout"
    sys.path.insert(0, str(SRC))
    import iterflow
    if not Path(iterflow.__file__).resolve().is_relative_to(SRC.resolve()):
        return f"imported iterflow from {iterflow.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = import_checkout_iterflow()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    session = simulated_session if isinstance(w, Simulated) else cli_session
    tracer = tracing.Tracer() if args.trace else None
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    plain: list[Session] = []
    traced: list[Session] = []

    def one(into: list, trace_with=None, setup_only=False) -> Session:
        base = work / f"session-{len(plain) + len(traced)}-{time.monotonic_ns()}"
        try:
            result = session(w, args.seed, base, trace_with, setup_only)
        finally:
            shutil.rmtree(base, ignore_errors=True)
        into.append(result)
        return result

    try:
        setups: list[float] = []
        started = time.perf_counter()
        while True:
            # Extra set-ups before every session spread the set-up samples
            # over the whole run: the machine has slow spells of a few seconds.
            spent = 0.0
            for _ in range(MAX_EXTRA_SETUPS):
                setups.append(one([], setup_only=True).setup_s)
                spent += setups[-1]
                if spent >= EXTRA_SETUP_SECONDS:
                    break
            setups.append(one(plain).setup_s)
            if tracer is not None:
                one(traced, tracer)
            if time.perf_counter() - started >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sessions = plain + traced
    errors = [e for s in sessions for e in s.errors]
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    if tracer is not None:
        metrics = per_layer_metrics(traced, plain)
        RESULTS.mkdir(exist_ok=True)
        out = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps([s.dumps for s in traced]), encoding="utf-8")
    else:
        who = resource.RUSAGE_SELF if isinstance(w, Simulated) else resource.RUSAGE_CHILDREN
        metrics = end_to_end_metrics(plain, setups, who)
    print(f"{args.workload} seed {args.seed}: {len(plain)} sessions"
          + (f" + {len(traced)} traced" if traced else "")
          + f", {sum(len(s.edit_runs) for s in plain)} edit runs, "
          f"{sum(len(s.plans) for s in plain)} plans, {len(setups)} set-ups")
    print("  cold runs " + " ".join(f"{s.cold_s:.3f}" for s in sessions)
          + " s; session walls " + " ".join(f"{s.wall_s:.3f}" for s in sessions) + " s")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(s.attempted for s in sessions),
        "failed": sum(s.failed for s in sessions),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
