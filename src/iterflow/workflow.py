"""Workflow DAG model: parsing, validation, ordering and dead-operator pruning.

A workflow is a DAG of named operators.  Each operator either runs an
external command or charges a declared synthetic cost (for simulation and
tests).  Operators are black boxes that exchange data through files; the
engine never looks inside them.  Everything in this module is immutable and
safe to share between threads.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Mapping

from .errors import (
    CycleDetectedError,
    DuplicateNameError,
    NoOutputsError,
    UnknownParentError,
    WorkflowSyntaxError,
)

SPEC_VERSION = 1

# Kind labels carried by operators; used for reporting and trace generation.
KIND_PREPROCESSING = "data-preprocessing"
KIND_ML = "ml"
KIND_EVALUATION = "evaluation"
KINDS = (KIND_PREPROCESSING, KIND_ML, KIND_EVALUATION)


@dataclass(frozen=True)
class CommandAction:
    """Run an external program.

    argv entries may contain the placeholders ``{output}`` (this node's
    declared output path) and ``{parent:NAME}`` (the output path of parent
    NAME); both are substituted at execution time.
    """

    argv: tuple[str, ...]
    output: str = ""

    def to_json(self) -> dict[str, Any]:
        return {"type": "command", "argv": list(self.argv), "output": self.output}


@dataclass(frozen=True)
class SimulatedAction:
    """Synthetic operator with a declared runtime and output size."""

    compute_seconds: float
    output_bytes: int

    def to_json(self) -> dict[str, Any]:
        return {
            "type": "simulated",
            "compute_seconds": self.compute_seconds,
            "output_bytes": self.output_bytes,
        }


Action = CommandAction | SimulatedAction


@dataclass(frozen=True)
class OperatorNode:
    """One operator and the edges into it.

    ``sources`` lists external input files (paths relative to the
    workspace); a node with no parents must declare at least one source so
    its identity is observable.  ``env_fingerprint`` is an optional opaque
    marker mixed into the node's signature; bump it to force recomputation
    when something outside the engine's view changed (library upgrade,
    config baked into the command, ...).
    """

    name: str
    kind: str
    action: Action
    parents: tuple[str, ...] = ()
    sources: tuple[str, ...] = ()
    env_fingerprint: str | None = None

    @property
    def is_source(self) -> bool:
        return not self.parents and bool(self.sources)

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "action": self.action.to_json(),
            "parents": list(self.parents),
            "sources": list(self.sources),
        }
        if self.env_fingerprint is not None:
            doc["env_fingerprint"] = self.env_fingerprint
        return doc

    def definition_text(self) -> str:
        """Canonical serialization of this operator's definition.

        This is the text whose change marks the operator as modified, so it
        must be independent of where the node appears in the spec document.
        """
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class WorkflowSpec:
    """A validated workflow: operators plus the declared output nodes."""

    version: int
    nodes: tuple[OperatorNode, ...]
    outputs: tuple[str, ...]

    @cached_property
    def by_name(self) -> Mapping[str, OperatorNode]:
        return {n.name: n for n in self.nodes}

    @cached_property
    def child_map(self) -> Mapping[str, tuple[str, ...]]:
        children: dict[str, list[str]] = {n.name: [] for n in self.nodes}
        for node in self.nodes:
            for parent in node.parents:
                children[parent].append(node.name)
        return {name: tuple(sorted(kids)) for name, kids in children.items()}

    @cached_property
    def order(self) -> tuple[str, ...]:
        """Parents-first order, lexicographic among ready nodes (Kahn).

        Nodes on or below a dependency cycle never become ready and are left
        out; validate() rejects such a spec, so a valid spec's order is total.
        """
        indegree = {n.name: len(n.parents) for n in self.nodes}
        ready = [name for name, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            name = heapq.heappop(ready)
            order.append(name)
            for child in self.child_map[name]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, child)
        return tuple(order)

    def node(self, name: str) -> OperatorNode:
        return self.by_name[name]

    def names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    def parent_map(self) -> dict[str, tuple[str, ...]]:
        return {n.name: n.parents for n in self.nodes}

    def replace_node(self, node: OperatorNode) -> "WorkflowSpec":
        nodes = tuple(node if n.name == node.name else n for n in self.nodes)
        return replace(self, nodes=nodes)

    def to_json(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "nodes": [n.to_json() for n in self.nodes],
            "outputs": list(self.outputs),
        }


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise WorkflowSyntaxError(message)


def _check_keys(obj: dict, required: set[str], optional: set[str], where: str) -> None:
    _require(isinstance(obj, dict), f"{where}: expected an object")
    missing = required - obj.keys()
    _require(not missing, f"{where}: missing keys {sorted(missing)}")
    unknown = obj.keys() - required - optional
    _require(not unknown, f"{where}: unknown keys {sorted(unknown)}")


def _string_list(value: Any, where: str) -> tuple[str, ...]:
    _require(
        isinstance(value, list) and all(isinstance(x, str) for x in value),
        f"{where}: expected a list of strings",
    )
    return tuple(value)


def _parse_action(doc: Any, where: str) -> Action:
    _require(isinstance(doc, dict) and isinstance(doc.get("type"), str),
             f"{where}: action must be an object with a 'type' tag")
    kind = doc["type"]
    if kind == "command":
        _require("inputs" not in doc,
                 f"{where}.inputs: no longer supported; list watched files under "
                 "the operator's 'sources'")
        _check_keys(doc, {"type", "argv", "output"}, set(), where)
        argv = _string_list(doc["argv"], f"{where}.argv")
        _require(len(argv) > 0, f"{where}.argv: must not be empty")
        _require(isinstance(doc["output"], str) and doc["output"],
                 f"{where}.output: expected a non-empty path")
        return CommandAction(argv=argv, output=doc["output"])
    if kind == "simulated":
        _check_keys(doc, {"type", "compute_seconds", "output_bytes"}, set(), where)
        seconds = doc["compute_seconds"]
        nbytes = doc["output_bytes"]
        _require(isinstance(seconds, (int, float)) and not isinstance(seconds, bool)
                 and seconds >= 0, f"{where}.compute_seconds: expected a number >= 0")
        _require(isinstance(nbytes, int) and not isinstance(nbytes, bool)
                 and nbytes >= 0, f"{where}.output_bytes: expected an integer >= 0")
        return SimulatedAction(compute_seconds=float(seconds), output_bytes=nbytes)
    raise WorkflowSyntaxError(f"{where}: unknown action type {kind!r}")


def _one_cycle(spec: WorkflowSpec) -> list[str]:
    """One dependency cycle among the nodes the order left out.

    Every left-out node has a left-out parent, so walking from the smallest
    left-out name to its smallest left-out parent must repeat a name.
    """
    left_out = set(spec.by_name) - set(spec.order)
    name = min(left_out)
    path = {name: None}  # insertion-ordered, with constant-time membership
    while True:
        name = min(p for p in spec.node(name).parents if p in left_out)
        if name in path:
            walked = list(path)
            return walked[walked.index(name):]
        path[name] = None


def validate(spec: WorkflowSpec) -> WorkflowSpec:
    """Check every structural invariant; returns the spec for chaining."""
    seen: set[str] = set()
    for node in spec.nodes:
        if node.name in seen:
            raise DuplicateNameError(node.name)
        seen.add(node.name)
    for node in spec.nodes:
        for parent in node.parents:
            if parent not in seen:
                raise UnknownParentError(node.name, parent)
    if not spec.outputs:
        raise NoOutputsError()
    for out in spec.outputs:
        _require(out in seen, f"outputs: unknown node {out!r}")
    if len(spec.order) < len(spec.nodes):
        raise CycleDetectedError(_one_cycle(spec))
    for node in spec.nodes:
        _require(
            bool(node.parents) or bool(node.sources),
            f"operator {node.name!r} has neither parents nor declared sources",
        )
    return spec


def parse_workflow(text: str) -> WorkflowSpec:
    """Parse and validate a workflow document (strict: unknown keys fail)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkflowSyntaxError(f"not valid JSON: {exc}") from exc
    _check_keys(doc, {"version", "nodes", "outputs"}, set(), "workflow")
    _require(isinstance(doc["version"], int) and not isinstance(doc["version"], bool),
             "version: expected an integer")
    _require(doc["version"] == SPEC_VERSION,
             f"version: unsupported format {doc['version']} (supported: {SPEC_VERSION})")
    _require(isinstance(doc["nodes"], list), "nodes: expected a list")
    nodes = []
    for i, node_doc in enumerate(doc["nodes"]):
        where = f"nodes[{i}]"
        _check_keys(node_doc, {"name", "kind", "action", "parents", "sources"},
                    {"env_fingerprint"}, where)
        _require(isinstance(node_doc["name"], str) and node_doc["name"],
                 f"{where}.name: expected a non-empty string")
        _require(isinstance(node_doc["kind"], str), f"{where}.kind: expected a string")
        fingerprint = node_doc.get("env_fingerprint")
        _require(fingerprint is None or isinstance(fingerprint, str),
                 f"{where}.env_fingerprint: expected a string")
        nodes.append(OperatorNode(
            name=node_doc["name"],
            kind=node_doc["kind"],
            action=_parse_action(node_doc["action"], f"{where}.action"),
            parents=_string_list(node_doc["parents"], f"{where}.parents"),
            sources=_string_list(node_doc["sources"], f"{where}.sources"),
            env_fingerprint=fingerprint,
        ))
    outputs = _string_list(doc["outputs"], "outputs")
    return validate(WorkflowSpec(version=doc["version"], nodes=tuple(nodes),
                                 outputs=outputs))


def serialize_workflow(spec: WorkflowSpec) -> str:
    """Inverse of parse_workflow; parse(serialize(s)) == s for valid specs."""
    return json.dumps(spec.to_json(), indent=2, sort_keys=True) + "\n"


def topological_order(spec: WorkflowSpec) -> list[str]:
    """Parents-first order, lexicographic among ready nodes (deterministic)."""
    return list(spec.order)


def prune_dead_operators(spec: WorkflowSpec) -> tuple[WorkflowSpec, set[str]]:
    """Drop operators that cannot reach any declared output.

    Returns the pruned spec (node order preserved) and the removed names.
    ``spec`` must be validated; the kept nodes are closed under parents, so
    the pruned spec is valid as well and is not checked again.  Its order is
    ``spec.order`` without the removed names: a kept node's parents are all
    kept, so it becomes ready in both specs at the same point, and whenever
    ``spec.order`` places a kept node that node is the smallest kept one
    ready.
    """
    kept: set[str] = set()
    frontier = list(spec.outputs)
    while frontier:
        name = frontier.pop()
        if name in kept:
            continue
        kept.add(name)
        frontier.extend(spec.node(name).parents)
    removed = {n.name for n in spec.nodes} - kept
    if not removed:
        return spec, removed
    pruned = WorkflowSpec(
        version=spec.version,
        nodes=tuple(n for n in spec.nodes if n.name in kept),
        outputs=spec.outputs,
    )
    # Seed the cached property, so the pruned spec is never ordered again.
    vars(pruned)["order"] = tuple(name for name in spec.order if name in kept)
    return pruned, removed


def descendants(spec: WorkflowSpec, name: str) -> set[str]:
    """All nodes reachable from ``name`` (excludes the node)."""
    found: set[str] = set()
    frontier = list(spec.child_map[name])
    while frontier:
        cur = frontier.pop()
        if cur in found:
            continue
        found.add(cur)
        frontier.extend(spec.child_map[cur])
    return found
