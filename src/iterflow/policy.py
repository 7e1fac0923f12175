"""Online materialization: decide right after an operator finishes whether
to persist its output for future runs.

The decision weighs the full recompute chain of a node (its own compute
time plus every ancestor's) against twice its load time, one write now plus
one read later.  Call that balance the node's r-value.  The published rule
and the sign that actually pays off disagree, so both are rows of
``POLICIES``, next to the two baselines that persist everything or nothing.

Decisions are strictly online: a node's decision may look at the node
itself, its ancestors, and the running storage budget, never at anything
downstream or still unexecuted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import UnknownCostError
from .planner import _MICROS, CostRecord, Dag, _micros


# name -> (persist when the r-value satisfies this, charge a modeled write
# cost equal to the node's load time).
POLICIES: dict[str, tuple[Callable[[float], bool], bool]] = {
    # Persist when the recompute chain exceeds twice the load cost: caching
    # expensive-to-rebuild nodes.  Empirically the profitable reading.
    "engine": (lambda r: r > 0, False),
    # Baselines.  An indiscriminate writer pays for its writes, or the
    # comparison against selective policies says nothing.
    "materialize-all": (lambda r: True, True),
    "materialize-none": (lambda r: False, False),
    # The predicate exactly as published: persist when the balance is
    # negative, i.e. cheap-to-rebuild nodes.  Kept runnable for comparison.
    "paper-literal": (lambda r: r < 0, False),
}


@dataclass
class StorageBudget:
    """Bytes available for new materializations; None means unlimited."""

    capacity_bytes: int | None
    used_bytes: int = 0

    def fits(self, nbytes: int) -> bool:
        if self.capacity_bytes is None:
            return True
        return nbytes <= self.capacity_bytes - self.used_bytes

    def charge(self, nbytes: int) -> None:
        self.used_bytes += nbytes

    def release(self, nbytes: int) -> None:
        self.used_bytes -= nbytes


@dataclass(frozen=True)
class MaterializationDecision:
    node: str
    r_value: float
    materialize: bool
    bytes_charged: int


def _compute_micros(costs: Mapping[str, CostRecord], name: str) -> int:
    seconds = costs[name].compute_seconds if name in costs else None
    if seconds is None or not math.isfinite(seconds):
        raise UnknownCostError(name)
    return _micros(seconds)


class RecomputeChains:
    """Recompute chain of each node of one iteration: its own compute time
    plus that of every ancestor, each ancestor counted once.

    ``add`` is called for a node once its cost is final; it first adds every
    ancestor not added yet, parents first, with the costs it is given.  Each
    node keeps its ancestor set as an int bitset over the order in which
    nodes were added.  Its chain is that of the parent with the largest set,
    plus the compute of every node of its own set the parent's lacks, itself
    included; the sums are integer microseconds, so the result equals the
    plain set sum exactly, whatever the order of the adds.
    """

    def __init__(self, dag: Dag):
        self._dag = dag
        self._names: list[str] = []
        self._bits: dict[str, int] = {}
        self.micros: dict[str, int] = {}

    def add(self, name: str, costs: Mapping[str, CostRecord]) -> None:
        """Add ``name`` and its absent ancestors; a node added before keeps
        its chain."""
        pending = [name]
        while pending:
            current = pending[-1]
            absent = [parent for parent in self._dag[current] if parent not in self._bits]
            if absent:
                pending.extend(absent)
                continue
            pending.pop()
            if current not in self._bits:
                self._add_one(current, costs)

    def _add_one(self, name: str, costs: Mapping[str, CostRecord]) -> None:
        parents = self._dag[name]
        bits = 1 << len(self._names)
        self._names.append(name)
        chain = base = 0
        if parents:
            widest = max(parents, key=lambda parent: self._bits[parent].bit_count())
            chain, base = self.micros[widest], self._bits[widest]
            for parent in parents:
                bits |= self._bits[parent]
        missing = bits & ~base
        while missing:
            low = missing & -missing
            chain += _compute_micros(costs, self._names[low.bit_length() - 1])
            missing ^= low
        self._bits[name] = bits
        self.micros[name] = chain


def r_value(node: str, costs: Mapping[str, CostRecord], chains: RecomputeChains) -> float:
    """Recompute chain minus twice the (estimated) load time of ``node``.

    Positive means a future iteration that reuses the node saves more time
    than one write plus one read costs.  ``costs[node].load_seconds`` must
    be the finite load estimate for the freshly produced output, and
    ``node`` must have been added to ``chains``.
    """
    load = costs[node].load_seconds if node in costs else None
    if load is None or not math.isfinite(load):
        raise UnknownCostError(node)
    return (chains.micros[node] - 2 * _micros(load)) / _MICROS


class EnginePolicy:
    """One row of ``POLICIES``, applied after each operator finishes.

    Never errors on a full budget; the node simply is not persisted.
    Charges the budget when it does decide to persist.
    """

    def __init__(self, name: str = "engine"):
        if name not in POLICIES:
            raise ValueError(f"unknown policy {name!r} (choose from {', '.join(POLICIES)})")
        self.persists, self.charges_write = POLICIES[name]

    def decide(self, node, costs, chains, budget) -> MaterializationDecision:
        r = r_value(node, costs, chains)
        nbytes = costs[node].output_bytes
        materialize = self.persists(r) and budget.fits(nbytes)
        if materialize:
            budget.charge(nbytes)
        return MaterializationDecision(node, r, materialize, nbytes if materialize else 0)

    def write_cost_seconds(self, node: str, costs: Mapping[str, CostRecord]) -> float:
        return costs[node].load_seconds if self.charges_write else 0.0
