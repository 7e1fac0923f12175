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
import math
import os
from dataclasses import dataclass, replace
from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Mapping, NoReturn

from .errors import IterflowError

SPEC_VERSION = 1

# Kind labels carried by operators; used for reporting and trace generation.
KIND_PREPROCESSING = "data-preprocessing"
KIND_ML = "ml"
KIND_EVALUATION = "evaluation"
KINDS = (KIND_PREPROCESSING, KIND_ML, KIND_EVALUATION)

# The planner turns seconds into integer microseconds and sums them over a
# plan, and byte counts become load seconds; under these bounds every such
# integer is exact as a float, and any sum of them converts back to one.
_MAX_SECONDS = 9e9  # about 285 years: 9e15 microseconds, under 2**53
_MAX_BYTES = 2**53


def is_duration(value: object) -> bool:
    # Exact types, as json.loads makes them: no bool.  NaN fails the comparison.
    return (type(value) is float or type(value) is int) and 0 <= value <= _MAX_SECONDS


def is_byte_count(value: object) -> bool:
    return type(value) is int and 0 <= value <= _MAX_BYTES


def _json_strs(items) -> str:
    return "[" + ",".join(map(_json_str, items)) + "]"


def _json_number(value) -> str:
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        return repr(value)
    return json.dumps(value)  # bool, NaN, infinities, subclasses


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

    def definition_text(self) -> str:
        """The ``action`` part of ``OperatorNode.definition_text``."""
        return (f'{{"argv":{_json_strs(self.argv)},"output":{_json_str(self.output)},'
                '"type":"command"}')


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

    def definition_text(self) -> str:
        """The ``action`` part of ``OperatorNode.definition_text``."""
        return (f'{{"compute_seconds":{_json_number(self.compute_seconds)},'
                f'"output_bytes":{_json_number(self.output_bytes)},"type":"simulated"}}')


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
        It is ``to_json()`` as ``json.dumps`` writes it with sorted keys,
        compact separators and ASCII escapes, built here from string pieces
        in that fixed key order.  Every cache entry's signature rests on
        this text, so any byte of it that changes invalidates every cache.
        """
        fingerprint = self.env_fingerprint
        return "".join((
            '{"action":', self.action.definition_text(),
            "" if fingerprint is None else ',"env_fingerprint":' + _json_str(fingerprint),
            ',"kind":', _json_str(self.kind),
            ',"name":', _json_str(self.name),
            ',"parents":', _json_strs(self.parents),
            ',"sources":', _json_strs(self.sources), "}",
        ))


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


_TOP_KEYS = frozenset({"version", "nodes", "outputs"})
_NODE_KEYS = frozenset({"name", "kind", "action", "parents", "sources"})
_NODE_KEYS_ALLOWED = _NODE_KEYS | {"env_fingerprint"}
_COMMAND_KEYS = frozenset({"type", "argv", "output"})
_SIMULATED_KEYS = frozenset({"type", "compute_seconds", "output_bytes"})

# The checks below test exact types: json.loads makes only exact dict, list,
# str, int, float and bool objects.  Each check formats its message only
# when it fails, since a spec of n nodes passes about 15n of them.


def _fail(message: str) -> NoReturn:
    raise IterflowError(message)


def _fail_keys(obj: Any, required: frozenset, allowed: frozenset, where: str) -> NoReturn:
    """Report why ``obj`` failed ``required <= obj.keys() <= allowed``."""
    if type(obj) is not dict:
        _fail(f"{where}: expected an object")
    missing = required - obj.keys()
    if missing:
        _fail(f"{where}: missing keys {sorted(missing)}")
    _fail(f"{where}: unknown keys {sorted(obj.keys() - allowed)}")


def _strings(value: Any) -> tuple[str, ...] | None:
    """``value`` as a tuple if it is a list of strings, else None."""
    if type(value) is not list:
        return None
    for item in value:
        if type(item) is not str:
            return None
    return tuple(value)


def _parse_action(doc: Any, i: int) -> Action:
    kind = doc.get("type") if type(doc) is dict else None
    if type(kind) is not str:
        _fail(f"nodes[{i}].action: action must be an object with a 'type' tag")
    if kind == "simulated":
        if doc.keys() != _SIMULATED_KEYS:
            _fail_keys(doc, _SIMULATED_KEYS, _SIMULATED_KEYS, f"nodes[{i}].action")
        seconds = doc["compute_seconds"]
        nbytes = doc["output_bytes"]
        if not is_duration(seconds):
            _fail(f"nodes[{i}].action.compute_seconds: expected a number >= 0 and <= 9e9")
        if not is_byte_count(nbytes):
            _fail(f"nodes[{i}].action.output_bytes: expected an integer >= 0 and <= 2**53")
        return SimulatedAction(float(seconds), nbytes)
    if kind == "command":
        if "inputs" in doc:
            _fail(f"nodes[{i}].action.inputs: no longer supported; list watched files under "
                  "the operator's 'sources'")
        if doc.keys() != _COMMAND_KEYS:
            _fail_keys(doc, _COMMAND_KEYS, _COMMAND_KEYS, f"nodes[{i}].action")
        argv = _strings(doc["argv"])
        if argv is None:
            _fail(f"nodes[{i}].action.argv: expected a list of strings")
        if not argv:
            _fail(f"nodes[{i}].action.argv: must not be empty")
        output = doc["output"]
        if not (type(output) is str and output):
            _fail(f"nodes[{i}].action.output: expected a non-empty path")
        return CommandAction(argv, output)
    _fail(f"nodes[{i}].action: unknown action type {kind!r}")


def _parse_node(doc: Any, i: int) -> OperatorNode:
    if not (type(doc) is dict and _NODE_KEYS <= doc.keys() <= _NODE_KEYS_ALLOWED):
        _fail_keys(doc, _NODE_KEYS, _NODE_KEYS_ALLOWED, f"nodes[{i}]")
    name = doc["name"]
    if not (type(name) is str and name):
        _fail(f"nodes[{i}].name: expected a non-empty string")
    kind = doc["kind"]
    if type(kind) is not str:
        _fail(f"nodes[{i}].kind: expected a string")
    fingerprint = doc.get("env_fingerprint")
    if not (fingerprint is None or type(fingerprint) is str):
        _fail(f"nodes[{i}].env_fingerprint: expected a string")
    action = _parse_action(doc["action"], i)
    parents = _strings(doc["parents"])
    if parents is None:
        _fail(f"nodes[{i}].parents: expected a list of strings")
    sources = _strings(doc["sources"])
    if sources is None:
        _fail(f"nodes[{i}].sources: expected a list of strings")
    return OperatorNode(name, kind, action, parents, sources, fingerprint)


def _one_cycle(spec: WorkflowSpec) -> list[str]:
    """One dependency cycle among the nodes the order left out, its first
    name repeated at the end.

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
            return walked[walked.index(name):] + [name]
        path[name] = None


def validate(spec: WorkflowSpec) -> WorkflowSpec:
    """Check every structural invariant; returns the spec for chaining."""
    seen: set[str] = set()
    writers: dict[str, str] = {}  # normalized declared output -> its command
    for node in spec.nodes:
        if node.name in seen:
            _fail(f"duplicate operator name: {node.name!r}")
        seen.add(node.name)
        if type(node.action) is CommandAction:
            writer = writers.setdefault(os.path.normpath(node.action.output), node.name)
            if writer != node.name:
                _fail(f"operators {writer!r} and {node.name!r} both declare output "
                      f"{node.action.output!r}")
    for node in spec.nodes:
        for parent in node.parents:
            if parent not in seen:
                _fail(f"operator {node.name!r} references undefined parent {parent!r}")
    if not spec.outputs:
        _fail("workflow declares no output nodes")
    for out in spec.outputs:
        if out not in seen:
            _fail(f"outputs: unknown node {out!r}")
    if len(spec.order) < len(spec.nodes):
        _fail("dependency cycle: " + " -> ".join(_one_cycle(spec)))
    for node in spec.nodes:
        if not (node.parents or node.sources):
            _fail(f"operator {node.name!r} has neither parents nor declared sources")
        for source in node.sources:
            writer = writers.get(os.path.normpath(source))
            if writer is not None:
                _fail(f"operator {node.name!r} declares source {source!r}, "
                      f"the output of operator {writer!r}")
    return spec


def parse_workflow(text: str) -> WorkflowSpec:
    """Parse and validate a workflow document (strict: unknown keys fail)."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, too many digits
        raise IterflowError(f"not valid JSON: {exc}") from exc
    if not (type(doc) is dict and doc.keys() == _TOP_KEYS):
        _fail_keys(doc, _TOP_KEYS, _TOP_KEYS, "workflow")
    version = doc["version"]
    if type(version) is not int:
        _fail("version: expected an integer")
    if version != SPEC_VERSION:
        _fail(f"version: unsupported format {version} (supported: {SPEC_VERSION})")
    node_docs = doc["nodes"]
    if type(node_docs) is not list:
        _fail("nodes: expected a list")
    nodes = tuple(_parse_node(node_doc, i) for i, node_doc in enumerate(node_docs))
    outputs = _strings(doc["outputs"])
    if outputs is None:
        _fail("outputs: expected a list of strings")
    return validate(WorkflowSpec(version, nodes, outputs))


def serialize_workflow(spec: WorkflowSpec) -> str:
    """Inverse of parse_workflow; parse(serialize(s)) == s for valid specs."""
    return json.dumps(spec.to_json(), indent=2, sort_keys=True) + "\n"


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
