"""Plan execution and the per-iteration lifecycle.

One iteration is: parse the spec, prune operators that feed no output,
fingerprint every node, diff against the previous run, build cost records,
compute the optimal compute/load/prune assignment, then execute it.  The
executor walks the plan in dependency order, restores loaded nodes from the
cache, runs computed nodes, consults the materialization policy immediately
after each successful compute, and assembles a run report.

Two clock modes exist.  ``real`` measures wall time and actually runs
command operators.  ``simulated`` advances a virtual clock by declared
costs instead, which makes every timing in the report exactly reproducible;
it requires a workflow made only of simulated actions.
"""

from __future__ import annotations

import json
import logging
import mmap
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .changes import ChangeSet, compute_signatures, diff_iterations
from .errors import CacheError, InvalidConfigError
from .planner import (
    CostRecord,
    ExecutionPlan,
    NodeState,
    assign_states_optimal,
)
from .policy import EnginePolicy, StorageBudget
from .store import CacheManifest, CacheStore, HistoryRecord
from .workflow import (
    CommandAction,
    OperatorNode,
    SimulatedAction,
    WorkflowSpec,
    parse_workflow,
    prune_dead_operators,
)

logger = logging.getLogger(__name__)

CLOCK_REAL = "real"
CLOCK_SIMULATED = "simulated"

DISK_BANDWIDTH = 100e6  # bytes per second, used to estimate load times
# Planning cost of a command operator that was never measured.
DEFAULT_COMPUTE_SECONDS = 1.0
# Weight of the newest observation in a command's moving load average.
_LOAD_EMA_ALPHA = 0.5


@dataclass
class RunConfig:
    clock_mode: str = CLOCK_REAL
    budget_bytes: int | None = None
    policy_name: str = "engine"


@dataclass
class NodeRunRecord:
    state: str
    signature: str
    wall_seconds: float = 0.0
    write_seconds: float = 0.0
    materialized: bool = False
    ok: bool = True
    detail: str = ""

    def to_json(self) -> dict[str, Any]:
        return {
            "state": self.state,
            "signature": self.signature,
            "wall_seconds": self.wall_seconds,
            "write_seconds": self.write_seconds,
            "materialized": self.materialized,
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass
class RunReport:
    iteration_index: int
    clock_mode: str
    succeeded: bool
    nodes: dict[str, NodeRunRecord]
    compute_seconds: float
    load_seconds: float
    materialize_seconds: float
    total_seconds: float
    cumulative_seconds: float
    plan_cost_seconds: float
    failed_nodes: list[str] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "iteration_index": self.iteration_index,
            "clock_mode": self.clock_mode,
            "succeeded": self.succeeded,
            "nodes": {name: rec.to_json() for name, rec in sorted(self.nodes.items())},
            "totals": {
                "compute_seconds": self.compute_seconds,
                "load_seconds": self.load_seconds,
                "materialize_seconds": self.materialize_seconds,
                "total_seconds": self.total_seconds,
                "cumulative_seconds": self.cumulative_seconds,
            },
            "plan_cost_seconds": self.plan_cost_seconds,
            "failed_nodes": sorted(self.failed_nodes),
        }


def _node_cost(node: OperatorNode, history: HistoryRecord | None) -> CostRecord:
    """The costs of one node.

    A simulated action is costed from its declaration alone, on either
    clock, loading at its declared size over disk bandwidth.  A command is
    costed from its name's measured history, loading at the moving average
    of its observed loads, else at its measured size over disk bandwidth;
    before its first measurement it gets a flat default compute time.
    """
    if isinstance(node.action, SimulatedAction):
        nbytes = node.action.output_bytes
        return CostRecord(node.action.compute_seconds, nbytes / DISK_BANDWIDTH, nbytes)
    if history is None:
        return CostRecord(DEFAULT_COMPUTE_SECONDS, 0.0, 0)
    load = history.load_seconds
    if load is None:
        load = history.output_bytes / DISK_BANDWIDTH
    return CostRecord(history.compute_seconds, load, history.output_bytes)


def build_costs(spec: WorkflowSpec, manifest: CacheManifest) -> dict[str, CostRecord]:
    """Per-node costs, shared by the planner and the materialization policy."""
    return {node.name: _node_cost(node, manifest.cost_history.get(node.name))
            for node in spec.nodes}


def record_load(history: Mapping[str, HistoryRecord], name: str, seconds: float) -> None:
    """Fold one observed load into ``name``'s moving average; a name with no
    history row gets none."""
    row = history.get(name)
    if row is not None:
        row.load_seconds = seconds if row.load_seconds is None else (
            _LOAD_EMA_ALPHA * seconds + (1.0 - _LOAD_EMA_ALPHA) * row.load_seconds)


@dataclass
class PlanContext:
    """Everything decided before execution starts."""

    spec: WorkflowSpec
    signatures: dict[str, str]
    changes: ChangeSet
    costs: dict[str, CostRecord]
    cached: set[str]  # nodes whose current signature has a cache entry
    mandatory: frozenset[str]
    plan: ExecutionPlan


def prepare(
    spec_text: str,
    workspace: Path | str,
    manifest: CacheManifest,
    config: RunConfig,
) -> PlanContext:
    """Parse, prune, fingerprint, diff and plan; read-only throughout."""
    parsed = parse_workflow(spec_text)
    spec, _ = prune_dead_operators(parsed)
    if config.clock_mode == CLOCK_SIMULATED:
        offenders = [n.name for n in spec.nodes if not isinstance(n.action, SimulatedAction)]
        if offenders:
            raise InvalidConfigError(
                "simulated clock requires simulated actions; command operators: "
                + ", ".join(sorted(offenders))
            )
    elif config.clock_mode != CLOCK_REAL:
        raise InvalidConfigError(f"unknown clock mode {config.clock_mode!r}")
    signatures = compute_signatures(spec, workspace)
    changes = diff_iterations(manifest.previous_signatures, signatures)
    costs = build_costs(spec, manifest)
    cached = {name for name, sig in signatures.items() if sig in manifest.entries}
    # Changed nodes must be recomputed unless a bit-identical output is
    # already cached under the new signature (an edit that was reverted).
    mandatory = changes.changed - cached
    plan = assign_states_optimal(
        spec.parent_map(), costs, cached, mandatory, set(spec.outputs)
    )
    return PlanContext(
        spec=spec,
        signatures=signatures,
        changes=changes,
        costs=costs,
        cached=cached,
        mandatory=mandatory,
        plan=plan,
    )


def _substitute(argv: tuple[str, ...], output: str,
                parent_paths: Mapping[str, str]) -> list[str]:
    out = []
    for arg in argv:
        arg = arg.replace("{output}", output)
        for name, path in parent_paths.items():
            arg = arg.replace("{parent:%s}" % name, path)
        out.append(arg)
    return out


class _Executor:
    def __init__(self, ctx: PlanContext, store: CacheStore, policy,
                 budget: StorageBudget, config: RunConfig, workspace: Path | str):
        self.ctx = ctx
        self.store = store
        self.policy = policy
        self.budget = budget
        # Operators run with the workspace as their cwd, so every path handed
        # to them must not depend on the caller's cwd.
        self.workspace = Path(workspace).resolve()
        self.scratch = (store.root / "scratch").resolve()
        self.simulated = config.clock_mode == CLOCK_SIMULATED
        # Updated with measured costs as commands finish; the plan keeps its own.
        self.costs = dict(ctx.costs)
        self.available: set[str] = set()
        self.records: dict[str, NodeRunRecord] = {}
        self.lost: dict[str, str] = {}  # node -> why its entry was forgotten
        self.dag = ctx.spec.parent_map()

    def output_path(self, node: OperatorNode) -> Path:
        if isinstance(node.action, CommandAction):
            return self.workspace / node.action.output
        return self.scratch / f"{node.name}.bin"

    def _stub_payload(self, node: OperatorNode) -> bytes:
        return f"simulated:{node.name}:{self.ctx.signatures[node.name]}\n".encode()

    def run_load(self, node: OperatorNode, rec: NodeRunRecord) -> bool:
        """Restore ``node`` from the cache; False when its entry is broken."""
        sig = self.ctx.signatures[node.name]
        try:
            if self.simulated:
                self.store.get(sig)
                observed = self.costs[node.name].load_seconds
            else:
                started = time.monotonic()
                payload = self.store.get(sig)
                target = self.output_path(node)
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(payload)
                observed = time.monotonic() - started
        except CacheError as exc:
            self.forget(node.name, f"load failed ({exc})")
            return False
        rec.wall_seconds = observed
        if isinstance(node.action, CommandAction):
            record_load(self.store.manifest.cost_history, node.name, observed)
        self.available.add(node.name)
        return True

    def _run_action(self, node: OperatorNode, rec: NodeRunRecord) -> bytes | None:
        """Run the operator; returns its output payload or None on failure."""
        if isinstance(node.action, SimulatedAction):
            rec.wall_seconds = node.action.compute_seconds
            if not self.simulated:
                target = self.output_path(node)
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(self._stub_payload(node))
            return self._stub_payload(node)
        target = self.output_path(node)
        target.parent.mkdir(parents=True, exist_ok=True)
        parent_paths = {
            p: str(self.output_path(self.ctx.spec.node(p))) for p in node.parents
        }
        argv = _substitute(node.action.argv, str(target), parent_paths)
        started = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=self.workspace, capture_output=True)
        except OSError as exc:
            rec.ok = False
            rec.detail = f"failed to start: {exc}"
            return None
        rec.wall_seconds = time.monotonic() - started
        if proc.returncode != 0:
            rec.ok = False
            stderr = proc.stderr.decode("utf-8", "replace").strip()
            rec.detail = f"exit code {proc.returncode}" + (f": {stderr[:500]}" if stderr else "")
            return None
        if not target.is_file():
            rec.ok = False
            rec.detail = f"declared output {node.action.output!r} was not produced"
            return None
        return target.read_bytes()

    def run_compute(self, node: OperatorNode, rec: NodeRunRecord) -> None:
        missing = [p for p in node.parents if p not in self.available]
        if missing:
            rec.ok = False
            rec.detail = "skipped: upstream failure of " + ", ".join(sorted(missing))
            rec.wall_seconds = 0.0
            return
        payload = self._run_action(node, rec)
        if payload is None:
            return
        self.available.add(node.name)
        if isinstance(node.action, CommandAction):
            # The new measurement replaces the old; the load average survives.
            history = self.store.manifest.cost_history
            old = history.get(node.name)
            history[node.name] = row = HistoryRecord(
                compute_seconds=rec.wall_seconds, output_bytes=len(payload),
                load_seconds=old.load_seconds if old else None)
            self.costs[node.name] = _node_cost(node, row)
        sig = self.ctx.signatures[node.name]
        if sig in self.store.manifest.entries:
            return  # already persisted under this signature; nothing to decide

        decision = self.policy.decide(node.name, self.costs, self.dag, self.budget)
        if decision.materialize:
            started = time.monotonic()
            self.store.put(node.name, sig, payload, rec.wall_seconds,
                           charged_bytes=decision.bytes_charged)
            rec.materialized = True
            rec.write_seconds = (
                self.policy.write_cost_seconds(node.name, self.costs)
                if self.simulated else time.monotonic() - started
            )

    def run(self) -> tuple[dict[str, NodeRunRecord], bool]:
        """Walk the plan in order; after a failed load, re-plan and walk on."""
        states = self.ctx.plan.states
        while True:
            for name in self.ctx.spec.order:
                done = self.records.get(name)
                if done is not None and done.state != NodeState.PRUNE.value:
                    continue
                node, state = self.ctx.spec.node(name), states[name]
                rec = NodeRunRecord(state=state.value, signature=self.ctx.signatures[name])
                if state is NodeState.LOAD and not self.run_load(node, rec):
                    break
                self.records[name] = rec
                if state is NodeState.COMPUTE:
                    if name in self.lost:
                        rec.detail = f"{self.lost[name]}; recomputed"
                    self.run_compute(node, rec)
            else:
                return self.records, all(r.ok for r in self.records.values())
            states = self.replan()

    def forget(self, name: str, why: str) -> None:
        """Drop ``name``'s cache entry, and its charge against the budget."""
        entry = self.store.manifest.entries.pop(self.ctx.signatures[name], None)
        if entry is not None:
            self.budget.release(entry.charged_bytes)
        self.lost[name] = why

    def replan(self) -> Mapping[str, NodeState]:
        """A plan after a failed load; nodes already run count as cached, free.

        Every other cached node not yet run whose payload is missing or has
        the wrong size is forgotten first, so that one re-plan covers them.
        """
        done = {n for n, rec in self.records.items() if rec.state != NodeState.PRUNE.value}
        for name in self.ctx.cached - done - self.lost.keys():
            entry = self.store.manifest.entries.get(self.ctx.signatures[name])
            if entry is not None and not self.store.intact(entry):
                self.forget(name, "payload missing or of the wrong size")
        cached = done | (self.ctx.cached - self.lost.keys())
        costs = {n: CostRecord(c.compute_seconds, 0.0, c.output_bytes) if n in done else c
                 for n, c in self.costs.items()}
        return assign_states_optimal(self.dag, costs, cached,
                                     self.ctx.changes.changed - cached,
                                     set(self.ctx.spec.outputs)).states


def execute(
    ctx: PlanContext,
    store: CacheStore,
    policy,
    budget: StorageBudget,
    config: RunConfig,
    workspace: Path | str,
    iteration_index: int = 1,
    previous_cumulative: float = 0.0,
) -> RunReport:
    """Carry out a plan; never raises for operator failures, reports them.

    A failed operator aborts every compute that depends on it; independent
    chains keep running.  Completed materializations stay in the cache, and
    the previous-run signature map advances only when everything succeeded;
    closing ``store`` persists the manifest.
    """
    runner = _Executor(ctx, store, policy, budget, config, workspace)
    records, succeeded = runner.run()
    compute_s = sum(r.wall_seconds for r in records.values() if r.state == "compute")
    load_s = sum(r.wall_seconds for r in records.values() if r.state == "load")
    mat_s = sum(r.write_seconds for r in records.values())
    total = compute_s + load_s + mat_s
    if succeeded:
        store.manifest.previous_signatures = dict(ctx.signatures)
    return RunReport(
        iteration_index=iteration_index,
        clock_mode=config.clock_mode,
        succeeded=succeeded,
        nodes=records,
        compute_seconds=compute_s,
        load_seconds=load_s,
        materialize_seconds=mat_s,
        total_seconds=total,
        cumulative_seconds=previous_cumulative + total,
        plan_cost_seconds=ctx.plan.total_cost_seconds,
        failed_nodes=[n for n, r in records.items() if not r.ok],
    )


def run_log_path(cache_root: Path | str) -> Path:
    return Path(cache_root) / "runs.log"


def read_run_log_tail(cache_root: Path | str) -> tuple[int, float]:
    """(iteration index, cumulative seconds) of the last complete record.

    Searches backwards from the end of the log, so the cost does not grow
    with the number of runs.  Bytes after the last newline are a record torn
    by a crash mid-append; they are cut off so the next append starts a line
    of its own.  Call with the writer lock held.
    """
    path = run_log_path(cache_root)
    if not path.is_file() or path.stat().st_size == 0:  # mmap refuses empty files
        return 0, 0.0
    with open(path, "rb+") as fh:
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as log:
            size, end = len(log), log.rfind(b"\n")
            line = log[log.rfind(b"\n", 0, end) + 1:end]
        if end + 1 < size:
            logger.warning("cutting a torn record (%d bytes) off %s", size - end - 1, path)
            fh.truncate(end + 1)
    if end < 0:
        return 0, 0.0
    record = json.loads(line)
    return record["iteration_index"], record["totals"]["cumulative_seconds"]


def append_run_log(cache_root: Path | str, report: RunReport) -> None:
    with open(run_log_path(cache_root), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(report.to_json(), sort_keys=True) + "\n")


def run_iteration(
    spec_path: Path | str,
    workspace: Path | str,
    cache_root: Path | str,
    config: RunConfig | None = None,
) -> RunReport:
    """One full edit-and-rerun cycle against a spec file on disk."""
    config = config or RunConfig()
    spec_text = Path(spec_path).read_text("utf-8")
    with CacheStore(cache_root) as store:
        ctx = prepare(spec_text, workspace, store.manifest, config)
        policy = EnginePolicy(config.policy_name)
        used = sum(e.charged_bytes for e in store.manifest.entries.values())
        budget = StorageBudget(config.budget_bytes, used_bytes=used)
        last_index, cumulative = read_run_log_tail(cache_root)
        report = execute(ctx, store, policy, budget, config, workspace,
                         iteration_index=last_index + 1, previous_cumulative=cumulative)
        append_run_log(cache_root, report)
    return report
