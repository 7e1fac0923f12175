"""Shared builders for specs, random planning instances and cache checks."""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from iterflow.planner import _MICROS, CostRecord, _micros
from iterflow.workflow import (
    OperatorNode,
    SimulatedAction,
    WorkflowSpec,
    validate,
)


def sim_node(
    name: str,
    parents: tuple[str, ...] = (),
    kind: str = "ml",
    compute_seconds: float = 1.0,
    output_bytes: int = 1000,
    sources: tuple[str, ...] = (),
    env_fingerprint: str | None = None,
) -> OperatorNode:
    if not parents and not sources:
        sources = (f"src/{name}.txt",)
    return OperatorNode(
        name=name,
        kind=kind,
        action=SimulatedAction(compute_seconds=compute_seconds, output_bytes=output_bytes),
        parents=tuple(parents),
        sources=tuple(sources),
        env_fingerprint=env_fingerprint,
    )


def sim_spec(nodes: list[OperatorNode], outputs: tuple[str, ...]) -> WorkflowSpec:
    return validate(WorkflowSpec(version=1, nodes=tuple(nodes), outputs=tuple(outputs)))


def chain_spec(*names: str) -> WorkflowSpec:
    nodes = [
        sim_node(name, parents=(names[i - 1],) if i else ())
        for i, name in enumerate(names)
    ]
    return sim_spec(nodes, outputs=(names[-1],))


def write_sources(spec: WorkflowSpec, workspace: Path, content: str = "v1") -> None:
    for node in spec.nodes:
        for source in node.sources:
            path = workspace / source
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(f"{content}:{source}\n", encoding="utf-8")


def random_dag(rng: random.Random, max_nodes: int = 12,
               edge_prob: float = 0.3) -> dict[str, tuple[str, ...]]:
    n = rng.randint(1, max_nodes)
    names = [f"n{i:02d}" for i in range(n)]
    return {
        name: tuple(names[j] for j in range(i) if rng.random() < edge_prob)
        for i, name in enumerate(names)
    }


def ancestors(dag: dict, name: str) -> set[str]:
    found: set[str] = set()
    frontier = list(dag[name])
    while frontier:
        cur = frontier.pop()
        if cur not in found:
            found.add(cur)
            frontier.extend(dag[cur])
    return found


def recompute_chain_micros(node: str, costs, dag: dict) -> int:
    """Oracle for ``r_value``: compute time of ``node`` plus all of its
    ancestors, summed in full, in integer microseconds."""
    return sum(_micros(costs[name].compute_seconds)
               for name in (node, *ancestors(dag, node)))


def check_r_value(r: float, exact_micros: int) -> None:
    """``r_value`` is exact at or below zero, a positive lower bound above."""
    if exact_micros <= 0:
        assert r == exact_micros / _MICROS
    else:
        assert 0 < r <= exact_micros / _MICROS


def random_costs(rng: random.Random,
                 dag: dict) -> tuple[dict[str, CostRecord], set[str]]:
    """Costs plus the cached set; about half the nodes are cached.  An
    uncached node's load is 0.0, which a legal plan can never pay."""
    costs: dict[str, CostRecord] = {}
    cached: set[str] = set()
    for name in dag:
        compute = float(rng.randint(0, 20))
        load = 0.0
        if rng.random() < 0.5:
            load = float(rng.randint(0, 20))
            cached.add(name)
        costs[name] = CostRecord(compute, load, rng.randint(0, 10**9))
    return costs, cached


def random_planning_instance(rng: random.Random, max_nodes: int = 12):
    dag = random_dag(rng, max_nodes)
    costs, cached = random_costs(rng, dag)
    mandatory = {name for name in dag if rng.random() < 0.2}
    sinks = {name for name in dag if rng.random() < 0.3}
    return dag, costs, cached, mandatory, sinks


def random_spec(rng: random.Random, max_nodes: int = 10) -> WorkflowSpec:
    dag = random_dag(rng, max_nodes)
    kinds = ("data-preprocessing", "ml", "evaluation")
    nodes = [
        sim_node(
            name,
            parents=parents,
            kind=kinds[rng.randrange(3)],
            compute_seconds=float(rng.randint(1, 9)),
            output_bytes=rng.randint(1, 10**6),
        )
        for name, parents in dag.items()
    ]
    # at least one sink; any node may be declared an output
    names = list(dag)
    outputs = tuple(sorted({names[-1], *(n for n in names if rng.random() < 0.2)}))
    return sim_spec(nodes, outputs)


def tree_hash(root: Path) -> str:
    """Digest of a directory tree: relative paths plus file contents."""
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            hasher.update(str(path.relative_to(root)).encode())
            hasher.update(b"\x00")
            hasher.update(path.read_bytes())
            hasher.update(b"\x01")
    return hasher.hexdigest()
