"""Iteration-aware workflow engine.

Models a batch pipeline as a DAG of black-box operators, fingerprints every
intermediate result so reruns know exactly what changed, plans the cheapest
mix of recomputing, reloading and skipping, and decides online which fresh
outputs are worth persisting for the next iteration.
"""

from .changes import ChangeSet, compute_signatures, diff_iterations
from .errors import IterflowError
from .planner import (
    CostRecord,
    ExecutionPlan,
    NodeState,
    assign_states_bruteforce,
    assign_states_optimal,
    plan_cost,
)
from .policy import (
    POLICIES,
    EnginePolicy,
    MaterializationDecision,
    StorageBudget,
    r_value,
)
from .runner import RunConfig, RunReport, execute, prepare, run_iteration
from .simulator import IterationTrace, generate_trace, simulate
from .store import CacheManifest, CacheStore, load_manifest
from .workflow import (
    CommandAction,
    OperatorNode,
    SimulatedAction,
    WorkflowSpec,
    parse_workflow,
    prune_dead_operators,
    serialize_workflow,
)

__version__ = "0.1.0"

__all__ = [
    "ChangeSet",
    "CacheManifest",
    "CacheStore",
    "CommandAction",
    "CostRecord",
    "EnginePolicy",
    "ExecutionPlan",
    "IterationTrace",
    "IterflowError",
    "MaterializationDecision",
    "NodeState",
    "OperatorNode",
    "POLICIES",
    "RunConfig",
    "RunReport",
    "SimulatedAction",
    "StorageBudget",
    "WorkflowSpec",
    "assign_states_bruteforce",
    "assign_states_optimal",
    "compute_signatures",
    "diff_iterations",
    "execute",
    "generate_trace",
    "load_manifest",
    "parse_workflow",
    "plan_cost",
    "prepare",
    "prune_dead_operators",
    "r_value",
    "run_iteration",
    "serialize_workflow",
    "simulate",
]
