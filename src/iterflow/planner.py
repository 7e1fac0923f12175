"""Minimum-cost execution planning over per-node compute/load/prune states.

Given per-node compute and load costs, the set of cached nodes, the nodes
that must be recomputed, and the declared output nodes, the planner assigns
one of three states to every node:

* ``compute`` - run the operator (every parent must be loaded or computed),
* ``load``    - restore the node's output from the cache,
* ``prune``   - skip the node entirely.

A plan is legal when no computed node has a pruned parent, no uncached node
is loaded, mandatory nodes are computed, and output nodes are not pruned.
The objective is the plain sum of compute times over computed nodes plus
load times over loaded nodes (pruned nodes are free).

``assign_states_optimal`` finds the exact optimum through a reduction to
minimum s-t cut (a project-selection style construction, solved with
Dinic's algorithm).  A presolve, linear in the DAG, first fixes what needs
no flow: mandatory nodes, uncached sinks and every uncached parent of a
computing node compute in every legal plan; a cached, non-mandatory node
whose compute costs no less than its load never computes in the
tie-broken optimum; a node that is neither needed nor an ancestor of a
needed node through nodes that may compute is pruned.  Only the rest goes
into the flow network, so a cold plan builds none.
``assign_states_bruteforce`` enumerates every legal assignment and exists
purely as an independent oracle; the two must agree on every instance
small enough to enumerate.

Costs are handled as integer microseconds throughout so that oracle
comparisons are exact.  Ties are broken deterministically: of all optimal
plans, the planner returns the one that is least state by state under
prune < load < compute.  Such a plan always exists, and it is also the one
with the fewest computed nodes and the lexicographically smallest state
vector in node-name order, which is the rule the oracle applies.  Every
presolved state is the one that plan has, and the plan is read from the
minimal minimum cut of the residual network, so the presolve keeps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Iterable, Mapping, Sequence

from .errors import TooLargeError


class NodeState(str, Enum):
    COMPUTE = "compute"
    LOAD = "load"
    PRUNE = "prune"


_MICROS = 10**6

Dag = Mapping[str, Sequence[str]]


@dataclass(frozen=True)
class CostRecord:
    """Per-node cost facts; ``load_seconds`` is finite, cached or not."""

    compute_seconds: float
    load_seconds: float
    output_bytes: int = 0


@dataclass(frozen=True)
class ExecutionPlan:
    """A total state assignment plus its objective value."""

    states: Mapping[str, NodeState]
    total_cost_seconds: float
    total_cost_micros: int

    def to_json(self) -> dict:
        return {
            "states": {name: state.value for name, state in sorted(self.states.items())},
            "total_cost_seconds": self.total_cost_seconds,
            "total_cost_micros": self.total_cost_micros,
        }


def _micros(seconds: float) -> int:
    if not math.isfinite(seconds) or seconds < 0:
        raise ValueError(f"cost must be finite and nonnegative, got {seconds}")
    return round(seconds * _MICROS)


def _cost_micros(states: Mapping[str, NodeState], costs: Mapping[str, CostRecord]) -> int:
    total = 0
    for name, state in states.items():
        if state is NodeState.COMPUTE:
            total += _micros(costs[name].compute_seconds)
        elif state is NodeState.LOAD:
            total += _micros(costs[name].load_seconds)
    return total


def plan_cost(states: Mapping[str, NodeState], costs: Mapping[str, CostRecord]) -> float:
    """Objective value of an assignment: compute + load times, prune free."""
    return _cost_micros(states, costs) / _MICROS


def check_plan_legality(
    dag: Dag,
    cached: AbstractSet[str],
    mandatory: Iterable[str],
    sinks: Iterable[str],
    states: Mapping[str, NodeState],
) -> list[str]:
    """Return a list of violated rules (empty when the plan is legal)."""
    violations = []
    for name in dag:
        if name not in states:
            violations.append(f"{name}: no state assigned")
    for name, parents in dag.items():
        if states.get(name) is NodeState.COMPUTE:
            for parent in parents:
                if states.get(parent) is NodeState.PRUNE:
                    violations.append(f"{name}: computed but parent {parent} is pruned")
    for name, state in states.items():
        if state is NodeState.LOAD and name not in cached:
            violations.append(f"{name}: loaded but not cached")
    for name in mandatory:
        if states.get(name) is not NodeState.COMPUTE:
            violations.append(f"{name}: mandatory recompute but not computed")
    for name in sinks:
        if states.get(name) is NodeState.PRUNE:
            violations.append(f"{name}: output node pruned")
    return violations


class _FlowNetwork:
    """Dinic max-flow on adjacency lists; capacities are arbitrary ints."""

    def __init__(self, n_vertices: int):
        self.adj: list[list[list[int]]] = [[] for _ in range(n_vertices)]

    def add_edge(self, u: int, v: int, capacity: int) -> None:
        # Edge entries are [target, residual capacity, index of reverse edge].
        self.adj[u].append([v, capacity, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def _levels(self, source: int) -> list[int]:
        level = [-1] * len(self.adj)
        level[source] = 0
        queue = [source]
        for u in queue:
            for edge in self.adj[u]:
                v, cap, _ = edge
                if cap > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _augment(self, source: int, sink: int, level: list[int],
                 it: list[int]) -> int:
        # Iterative DFS for one augmenting path in the level graph.
        path: list[tuple[int, list[int]]] = []
        u = source
        while True:
            if u == sink:
                bottleneck = min(edge[1] for _, edge in path)
                for _, edge in path:
                    edge[1] -= bottleneck
                    self.adj[edge[0]][edge[2]][1] += bottleneck
                return bottleneck
            advanced = False
            while it[u] < len(self.adj[u]):
                edge = self.adj[u][it[u]]
                v, cap, _ = edge
                if cap > 0 and level[v] == level[u] + 1:
                    path.append((u, edge))
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if not advanced:
                if not path:
                    return 0
                level[u] = -1  # dead end, drop from the level graph
                u, _ = path.pop()
                it[u] += 1

    def min_cut_source_side(self, source: int, sink: int) -> list[bool]:
        """Push a maximum flow, then return the vertices the source still
        reaches in the residual graph: the source side of the minimal
        minimum cut, which every minimum cut's source side contains."""
        while True:
            level = self._levels(source)
            if level[sink] < 0:
                return [d >= 0 for d in level]
            it = [0] * len(self.adj)
            while self._augment(source, sink, level, it):
                pass


def _normalize(
    dag: Dag,
    costs: Mapping[str, CostRecord],
    mandatory: Iterable[str],
    sinks: Iterable[str],
) -> tuple[list[str], set[str], set[str]]:
    names = sorted(dag)
    mandatory = set(mandatory)
    sinks = set(sinks)
    for group, label in ((mandatory, "mandatory"), (sinks, "sinks")):
        unknown = group - set(names)
        if unknown:
            raise ValueError(f"{label} names not in dag: {sorted(unknown)}")
    missing = set(names) - set(costs)
    if missing:
        raise ValueError(f"costs missing for nodes: {sorted(missing)}")
    return names, mandatory, sinks


def _finish_plan(
    dag: Dag,
    costs: Mapping[str, CostRecord],
    cached: AbstractSet[str],
    mandatory: set[str],
    sinks: set[str],
    states: dict[str, NodeState],
) -> ExecutionPlan:
    violations = check_plan_legality(dag, cached, mandatory, sinks, states)
    if violations:
        raise AssertionError("planner produced an illegal plan: " + "; ".join(violations))
    total = _cost_micros(states, costs)
    ordered = {name: states[name] for name in sorted(states)}
    return ExecutionPlan(states=ordered, total_cost_seconds=total / _MICROS,
                         total_cost_micros=total)


@dataclass
class _Presolve:
    """What the linear-time presolve decides before any flow is pushed."""

    fixed: dict[str, NodeState]  # states shared with the tie-broken optimum
    residual: list[str]  # nodes left to the min-cut, in name order
    never_compute: set[str]  # residual nodes that load or prune, never compute
    needed: set[str]  # residual nodes whose output every legal plan needs


def _presolve(
    names: list[str],
    dag: Dag,
    costs: Mapping[str, CostRecord],
    cached: AbstractSet[str],
    mandatory: set[str],
    sinks: set[str],
) -> _Presolve:
    """Fix, in time linear in the DAG, every state that needs no flow.

    Mandatory nodes and uncached sinks compute in every legal plan, and so
    does every uncached parent of a computing node.  Every other parent of
    such a node, like every sink, is needed: it loads or computes.  A
    cached, non-mandatory node that computes no cheaper than it loads never
    computes in the tie-broken optimum: turning compute into load keeps a
    plan legal, costs no more, and makes it state by state smaller.  It
    loads when needed and is otherwise left to the min-cut as load or prune.
    Finally, a node that is neither needed nor an ancestor of a needed node
    through nodes that may compute is unreachable from the source of the
    residual network, so it is pruned.
    """
    fixed: dict[str, NodeState] = {}
    stack = [*mandatory, *(name for name in sinks if name not in cached)]
    while stack:
        name = stack.pop()
        if name not in fixed:
            fixed[name] = NodeState.COMPUTE
            stack.extend(p for p in dag[name] if p not in cached)
    needed = set(sinks)
    for name in fixed:
        needed.update(dag[name])
    needed.difference_update(fixed)  # what is left is cached

    never_compute = {
        name for name in names
        if name in cached and name not in fixed
        and _micros(costs[name].compute_seconds) >= _micros(costs[name].load_seconds)
    }
    for name in needed & never_compute:
        fixed[name] = NodeState.LOAD

    residual: set[str] = set()
    stack = [name for name in needed if name not in fixed]
    while stack:
        name = stack.pop()
        if name not in residual and name not in fixed:
            residual.add(name)
            if name not in never_compute:
                stack.extend(dag[name])
    for name in names:
        if name not in fixed and name not in residual:
            fixed[name] = NodeState.PRUNE
    return _Presolve(fixed, [name for name in names if name in residual],
                     never_compute & residual, needed & residual)


def _solve_residual(
    dag: Dag,
    costs: Mapping[str, CostRecord],
    cached: AbstractSet[str],
    pre: _Presolve,
) -> dict[str, NodeState]:
    """States of the residual nodes, read from the minimal minimum cut."""
    nodes = pre.residual
    n = len(nodes)
    index = {name: i for i, name in enumerate(nodes)}
    compute_cap = {name: _micros(costs[name].compute_seconds) for name in nodes
                   if name not in pre.never_compute}
    load_cap = {name: _micros(costs[name].load_seconds) for name in nodes if name in cached}
    uncuttable = sum(compute_cap.values()) + sum(load_cap.values()) + 1

    source, sink = 2 * n, 2 * n + 1
    net = _FlowNetwork(2 * n + 2)
    for i, name in enumerate(nodes):
        v_i, a_i = i, n + i
        if name in pre.never_compute:  # v_i is fixed on the T side
            net.add_edge(a_i, sink, load_cap[name])
            continue
        net.add_edge(v_i, sink, compute_cap[name])
        net.add_edge(a_i, v_i, load_cap.get(name, uncuttable))
        for parent in dag[name]:
            if parent in index:  # a fixed parent is needed already
                net.add_edge(v_i, n + index[parent], uncuttable)
        if name in pre.needed:
            net.add_edge(source, a_i, uncuttable)

    on_source_side = net.min_cut_source_side(source, sink)
    return {
        name: NodeState.COMPUTE if on_source_side[i]
        else NodeState.LOAD if on_source_side[n + i]
        else NodeState.PRUNE
        for i, name in enumerate(nodes)
    }


def assign_states_optimal(
    dag: Dag,
    costs: Mapping[str, CostRecord],
    cached: AbstractSet[str],
    mandatory: Iterable[str] = (),
    sinks: Iterable[str] = (),
) -> ExecutionPlan:
    """Exact minimum-cost legal assignment: a linear presolve, then a
    minimum s-t cut over the nodes it leaves open.

    Construction: besides source S and sink T, every node i gets two
    vertices: v_i ("i is computed" when v_i lands on the S side) and a_i
    ("i's output is needed" when a_i lands on the S side).

    * v_i -> T with capacity c_i: computing i pays c_i.
    * a_i -> v_i with capacity l_i: needed but not computed means loaded,
      paying l_i; an uncached node gets an uncuttable capacity instead, so
      "needed" forces "computed".
    * v_j -> a_i uncuttable for every parent i of j: a computed child drags
      every parent into the needed set, which is exactly the rule that a
      computed node may not have pruned parents.
    * S -> a_i uncuttable for sinks (their output is always needed) and
      S -> v_i uncuttable for mandatory nodes (forced compute).

    A finite cut therefore corresponds one-to-one with a legal plan of equal
    cost, and the minimum cut is the optimum.  Ties go to the optimal plan
    that is least state by state under prune < load < compute.  After a
    maximum flow, the vertices the source still reaches in the residual
    graph are the source side of the minimal minimum cut, the intersection
    of all minimum cuts (Picard and Queyranne, 1980).  Each optimal plan
    maps to a minimum cut (v_i on the S side when i is computed, a_i when i
    is needed), so the plan read from the minimal cut is no greater, node by
    node, than any optimal plan: it has the fewest computed nodes and is the
    lexicographically smallest, the oracle's tie-break.

    Most of that network is decided before any flow is pushed (see
    ``_presolve``): nodes forced to compute, nodes that never compute, and
    nodes the source cannot reach.  Each fixed vertex is folded in as a
    constant.  A computing child makes its parent's a vertex a source-side
    constant, which is an uncuttable S -> a edge when the parent stays open.
    A never-computing node keeps only a_i -> T with capacity l_i.  The
    minimal minimum cut of the whole network holds every presolved value:
    a forced state holds in every legal plan, and the v vertex of a
    never-computing node, like both vertices of an unreachable one, lies on
    the T side of some minimum cut, hence of the minimal one.  So the
    minimal cut is also the least of the minimum cuts that hold the
    presolved values, and these are exactly the minimum cuts of the residual
    network.  Its minimal cut is therefore the global tie-break.  A cold
    plan, where every live node is forced, builds no network at all.
    """
    names, mandatory_set, sink_set = _normalize(dag, costs, mandatory, sinks)
    pre = _presolve(names, dag, costs, cached, mandatory_set, sink_set)
    states = dict(pre.fixed)
    if pre.residual:
        states.update(_solve_residual(dag, costs, cached, pre))
    return _finish_plan(dag, costs, cached, mandatory_set, sink_set, states)


_BRUTEFORCE_LIMIT = 15
_CHUNK_ASSIGNMENTS = 1 << 19


def assign_states_bruteforce(
    dag: Dag,
    costs: Mapping[str, CostRecord],
    cached: AbstractSet[str],
    mandatory: Iterable[str] = (),
    sinks: Iterable[str] = (),
) -> ExecutionPlan:
    """Oracle: enumerate all 3^n assignments and keep the best legal one.

    Assignments are scanned as base-3 numbers whose digits follow node-name
    order with prune=0 < load=1 < compute=2, so "first minimal index" is
    exactly the planner's tie-break.  Vectorized with numpy and chunked to
    bound memory; refuses more than 15 nodes.  numpy, which nothing else
    needs, is a test-only dependency (the ``test`` extra).
    """
    import numpy as np  # only the oracle needs it; keeps CLI start-up light

    names, mandatory_set, sink_set = _normalize(dag, costs, mandatory, sinks)
    n = len(names)
    if n > _BRUTEFORCE_LIMIT:
        raise TooLargeError(n, _BRUTEFORCE_LIMIT)

    compute_micros = np.array([_micros(costs[m].compute_seconds) for m in names],
                              dtype=np.int64)
    is_cached = np.array([m in cached for m in names], dtype=bool)
    load_micros = np.array([_micros(costs[m].load_seconds) for m in names],
                           dtype=np.int64)
    parent_idx = [[names.index(p) for p in dag[name]] for name in names]
    mandatory_idx = [i for i, m in enumerate(names) if m in mandatory_set]
    sink_idx = [i for i, m in enumerate(names) if m in sink_set]
    powers = (3 ** (n - 1 - np.arange(n))).astype(np.int64)

    best: tuple[int, int, int] | None = None  # (cost, n_compute, index)
    total = 3**n
    for start in range(0, total, _CHUNK_ASSIGNMENTS):
        idx = np.arange(start, min(start + _CHUNK_ASSIGNMENTS, total), dtype=np.int64)
        digits = (idx[:, None] // powers[None, :]) % 3  # 0=prune 1=load 2=compute
        is_load = digits == 1
        is_compute = digits == 2
        legal = ~(is_load & ~is_cached[None, :]).any(axis=1)
        for i, parents in enumerate(parent_idx):
            if parents:
                has_pruned_parent = (digits[:, parents] == 0).any(axis=1)
                legal &= ~(is_compute[:, i] & has_pruned_parent)
        for i in mandatory_idx:
            legal &= is_compute[:, i]
        for i in sink_idx:
            legal &= digits[:, i] != 0
        if not legal.any():
            continue
        cost = is_compute @ compute_micros + is_load @ load_micros
        n_compute = is_compute.sum(axis=1)
        cost = np.where(legal, cost, np.iinfo(np.int64).max)
        chunk_min = cost.min()
        tie = cost == chunk_min
        count_min = n_compute[tie].min()
        tie &= n_compute == count_min
        first = int(idx[tie][0])
        candidate = (int(chunk_min), int(count_min), first)
        if best is None or candidate < best:
            best = candidate
    assert best is not None  # all-compute over everything is always legal

    digits = [(best[2] // 3**(n - 1 - i)) % 3 for i in range(n)]
    lookup = {0: NodeState.PRUNE, 1: NodeState.LOAD, 2: NodeState.COMPUTE}
    states = {name: lookup[d] for name, d in zip(names, digits)}
    return _finish_plan(dag, costs, cached, mandatory_set, sink_set, states)
