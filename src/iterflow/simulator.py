"""Replay synthetic edit-and-rerun traces under different materialization
policies and compare cumulative runtimes.

A trace is a seeded sequence of single-node edits: each step samples an
operator kind (data-preprocessing / ml / evaluation) from configured
frequencies, picks a node of that kind uniformly, and perturbs its
definition so its signature, and every descendant's, changes.  Costs stay
untouched; only identity changes, which is exactly what a developer edit
looks like to the engine.

Each policy gets a fresh workspace and cache; the engine then runs the full
iteration lifecycle once per step under a simulated clock, so the resulting
curves are deterministic and byte-reproducible.
"""

from __future__ import annotations

import math
import random
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from .errors import IterflowError
from .runner import CLOCK_SIMULATED, RunConfig, run_iteration
from .workflow import KINDS, WorkflowSpec, serialize_workflow

DEFAULT_KIND_FREQUENCIES = (0.4, 0.4, 0.2)  # configurable stand-in, not a measurement
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Modification:
    """One development step; ``node`` is None for an idle (no-edit) step."""

    kind: str
    node: str | None
    token: str


@dataclass(frozen=True)
class IterationTrace:
    steps: tuple[Modification, ...]


def generate_trace(
    spec: WorkflowSpec,
    kind_frequencies: Sequence[float] = DEFAULT_KIND_FREQUENCIES,
    n_iterations: int = 10,
    seed: int = DEFAULT_SEED,
) -> IterationTrace:
    """Deterministic trace of ``n_iterations`` single-node edits.

    Raises IterflowError when a sampled kind has no node in the workflow.
    """
    if n_iterations < 1:
        raise ValueError("need at least one iteration")
    freqs = tuple(float(f) for f in kind_frequencies)
    if (len(freqs) != len(KINDS) or any(not math.isfinite(f) or f < 0 for f in freqs)
            or abs(sum(freqs) - 1.0) > 1e-9):
        raise ValueError("kind_frequencies must be three nonnegative numbers summing to 1")
    by_kind = {kind: sorted(n.name for n in spec.nodes if n.kind == kind) for kind in KINDS}
    rng = random.Random(seed)
    steps = []
    for i in range(n_iterations):
        draw = rng.random()
        kind = KINDS[-1]
        acc = 0.0
        for candidate, freq in zip(KINDS, freqs):
            acc += freq
            if draw < acc:
                kind = candidate
                break
        names = by_kind[kind]
        if not names:
            raise IterflowError(f"workflow has no node of kind {kind!r}")
        node = names[rng.randrange(len(names))]
        steps.append(Modification(kind=kind, node=node, token=f"edit-{i:03d}"))
    return IterationTrace(tuple(steps))


def idle_trace(spec: WorkflowSpec, n_iterations: int) -> IterationTrace:
    """A trace that reruns the workflow without editing anything."""
    return IterationTrace(tuple(
        Modification(kind="", node=None, token=f"idle-{i:03d}") for i in range(n_iterations)
    ))


def apply_step(spec: WorkflowSpec, step: Modification) -> WorkflowSpec:
    if step.node is None:
        return spec
    node = spec.node(step.node)
    return spec.replace_node(replace(node, env_fingerprint=step.token))


@dataclass(frozen=True)
class IterationRow:
    iteration: int
    kind: str
    node: str | None
    seconds: float
    cumulative_seconds: float


@dataclass
class SimulationResult:
    policy: str
    rows: list[IterationRow]

    @property
    def cumulative_seconds(self) -> float:
        return self.rows[-1].cumulative_seconds if self.rows else 0.0

    def mean_cost_by_kind(self) -> dict[str, float]:
        totals: dict[str, list[float]] = {}
        for row in self.rows:
            if row.kind:
                totals.setdefault(row.kind, []).append(row.seconds)
        return {kind: sum(vals) / len(vals) for kind, vals in totals.items()}


def write_source_stubs(spec: WorkflowSpec, workspace: Path) -> None:
    """Create deterministic placeholder files for every declared source."""
    for node in spec.nodes:
        for source in node.sources:
            path = workspace / source
            path.parent.mkdir(parents=True, exist_ok=True)
            if not path.exists():
                path.write_text(f"stub source for {source}\n", encoding="utf-8")


def simulate(
    spec: WorkflowSpec,
    trace: IterationTrace,
    policy_name: str = "engine",
    budget_bytes: int | None = None,
) -> SimulationResult:
    """Run the whole trace under one policy in a scratch environment."""
    config = RunConfig(
        clock_mode=CLOCK_SIMULATED,
        budget_bytes=budget_bytes,
        policy_name=policy_name,
    )
    with tempfile.TemporaryDirectory(prefix="iterflow-sim-") as scratch:
        workspace = Path(scratch)
        cache_root = workspace / ".iterflow"
        write_source_stubs(spec, workspace)
        spec_path = workspace / "workflow.json"

        current = spec
        rows: list[IterationRow] = []
        for i, step in enumerate(trace.steps, start=1):
            current = apply_step(current, step)
            spec_path.write_text(serialize_workflow(current), encoding="utf-8")
            report = run_iteration(spec_path, workspace, cache_root, config)
            rows.append(IterationRow(
                iteration=i,
                kind=step.kind,
                node=step.node,
                seconds=report.total_seconds,
                cumulative_seconds=report.cumulative_seconds,
            ))
        return SimulationResult(policy=policy_name, rows=rows)


def format_table(results: Iterable[SimulationResult]) -> str:
    """Tab-separated comparison table, one row per policy and iteration."""
    lines = ["iteration\tkind\tpolicy\titeration_seconds\tcumulative_seconds"]
    for result in results:
        for row in result.rows:
            lines.append(
                f"{row.iteration}\t{row.kind or '-'}\t{result.policy}"
                f"\t{row.seconds:.6f}\t{row.cumulative_seconds:.6f}"
            )
    return "\n".join(lines) + "\n"
