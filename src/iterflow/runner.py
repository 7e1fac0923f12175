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
    topological_order,
)

logger = logging.getLogger(__name__)

CLOCK_REAL = "real"
CLOCK_SIMULATED = "simulated"

DISK_BANDWIDTH = 100e6  # bytes per second, used to estimate load times
# Planning cost of a command operator that was never measured.
DEFAULT_COMPUTE_SECONDS = 1.0


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


def _load_estimate(history: HistoryRecord | None, nbytes: int) -> float:
    """Measured load time of the node name, else its size over disk bandwidth."""
    if history is not None and history.load_seconds is not None:
        return history.load_seconds
    return nbytes / DISK_BANDWIDTH


def build_cost_views(
    spec: WorkflowSpec,
    signatures: Mapping[str, str],
    manifest: CacheManifest,
) -> tuple[dict[str, CostRecord], dict[str, CostRecord]]:
    """Two views of per-node costs.

    The planner view sets load time to +inf unless the node's *current*
    signature is cached.  The estimate view always carries a finite load
    estimate (measured history first, then size / disk bandwidth) and is
    what the materialization policy consumes.

    Compute time and output size come from the declaration for simulated
    actions; for commands, from the recorded history of the node name, with
    a flat default before anything was ever measured.
    """
    plan_costs: dict[str, CostRecord] = {}
    est_costs: dict[str, CostRecord] = {}
    for node in spec.nodes:
        history = manifest.cost_history.get(node.name)
        if isinstance(node.action, SimulatedAction):
            compute = node.action.compute_seconds
            nbytes = node.action.output_bytes
        elif history is not None:
            compute = history.compute_seconds
            nbytes = history.output_bytes
        else:
            compute = DEFAULT_COMPUTE_SECONDS
            nbytes = 0
        est_load = _load_estimate(history, nbytes)
        est_costs[node.name] = CostRecord(compute, est_load, nbytes)

        entry = manifest.entries.get(signatures[node.name])
        if entry is None:
            plan_costs[node.name] = CostRecord(compute, float("inf"), nbytes)
        else:
            load = entry.measured_load_seconds
            plan_costs[node.name] = CostRecord(
                compute, load if load is not None else est_load, nbytes
            )
    return plan_costs, est_costs


@dataclass
class PlanContext:
    """Everything decided before execution starts."""

    spec: WorkflowSpec
    dead_operators: set[str]
    signatures: dict[str, str]
    changes: ChangeSet
    plan_costs: dict[str, CostRecord]
    est_costs: dict[str, CostRecord]
    mandatory: set[str]
    plan: ExecutionPlan


def prepare(
    spec_text: str,
    workspace: Path | str,
    manifest: CacheManifest,
    config: RunConfig,
) -> PlanContext:
    """Parse, prune, fingerprint, diff and plan; read-only throughout."""
    parsed = parse_workflow(spec_text)
    spec, dead = prune_dead_operators(parsed)
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
    plan_costs, est_costs = build_cost_views(spec, signatures, manifest)
    # Changed nodes must be recomputed unless a bit-identical output is
    # already cached under the new signature (an edit that was reverted).
    mandatory = {
        name for name in changes.changed if signatures[name] not in manifest.entries
    }
    plan = assign_states_optimal(
        spec.parent_map(), plan_costs, mandatory, set(spec.outputs)
    )
    return PlanContext(
        spec=spec,
        dead_operators=dead,
        signatures=signatures,
        changes=changes,
        plan_costs=plan_costs,
        est_costs=est_costs,
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
        self.available: set[str] = set()
        self.records: dict[str, NodeRunRecord] = {}
        self.dag = ctx.spec.parent_map()

    def output_path(self, node: OperatorNode) -> Path:
        if isinstance(node.action, CommandAction):
            return self.workspace / node.action.output
        return self.scratch / f"{node.name}.bin"

    def _stub_payload(self, node: OperatorNode) -> bytes:
        return f"simulated:{node.name}:{self.ctx.signatures[node.name]}\n".encode()

    def run_load(self, node: OperatorNode, rec: NodeRunRecord) -> None:
        sig = self.ctx.signatures[node.name]
        try:
            if self.simulated:
                observed = self.ctx.plan_costs[node.name].load_seconds
                self.store.get(sig, observed_seconds=observed)
            else:
                started = time.monotonic()
                payload = self.store.get(sig)
                target = self.output_path(node)
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(payload)
                observed = time.monotonic() - started
        except CacheError as exc:
            if all(p in self.available for p in node.parents):
                rec.state = NodeState.COMPUTE.value
                rec.detail = f"load failed ({exc}); recomputed"
                self.run_compute(node, rec)
            else:
                rec.ok = False
                rec.detail = f"load failed: {exc}"
            return
        rec.wall_seconds = observed
        self.available.add(node.name)

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
        if isinstance(node.action, SimulatedAction):
            cost_bytes = node.action.output_bytes
        else:
            cost_bytes = len(payload)
        self.store.record_costs(node.name, rec.wall_seconds, cost_bytes)
        est_load = _load_estimate(self.store.manifest.cost_history[node.name], cost_bytes)
        self.ctx.est_costs[node.name] = CostRecord(rec.wall_seconds, est_load, cost_bytes)

        decision = self.policy.decide(node.name, self.ctx.est_costs, self.dag, self.budget)
        if decision.materialize:
            sig = self.ctx.signatures[node.name]
            started = time.monotonic()
            self.store.put(node.name, sig, payload, rec.wall_seconds,
                           charged_bytes=decision.bytes_charged)
            rec.materialized = True
            rec.write_seconds = (
                self.policy.write_cost_seconds(node.name, self.ctx.est_costs)
                if self.simulated else time.monotonic() - started
            )

    def run(self) -> tuple[dict[str, NodeRunRecord], bool]:
        for name in topological_order(self.ctx.spec):
            node = self.ctx.spec.node(name)
            state = self.ctx.plan.states[name]
            rec = NodeRunRecord(state=state.value, signature=self.ctx.signatures[name])
            self.records[name] = rec
            if state is NodeState.LOAD:
                self.run_load(node, rec)
            elif state is NodeState.COMPUTE:
                self.run_compute(node, rec)
        return self.records, all(r.ok for r in self.records.values())


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
