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
from .planner import CostRecord, Dag


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


@dataclass(frozen=True)
class MaterializationDecision:
    node: str
    r_value: float
    materialize: bool
    bytes_charged: int


def _ancestors(dag: Dag, name: str) -> set[str]:
    found: set[str] = set()
    frontier = list(dag[name])
    while frontier:
        cur = frontier.pop()
        if cur not in found:
            found.add(cur)
            frontier.extend(dag[cur])
    return found


def recompute_chain_seconds(node: str, costs: Mapping[str, CostRecord], dag: Dag) -> float:
    """Compute time of ``node`` plus all of its ancestors."""
    total = 0.0
    for name in (node, *_ancestors(dag, node)):
        if name not in costs:
            raise UnknownCostError(name)
        total += costs[name].compute_seconds
    return total


def r_value(node: str, costs: Mapping[str, CostRecord], dag: Dag) -> float:
    """Recompute chain minus twice the (estimated) load time of ``node``.

    Positive means a future iteration that reuses the node saves more time
    than one write plus one read costs.  ``costs[node].load_seconds`` must
    be the finite load estimate for the freshly produced output.
    """
    load = costs[node].load_seconds if node in costs else None
    if load is None or not math.isfinite(load):
        raise UnknownCostError(node)
    return recompute_chain_seconds(node, costs, dag) - 2.0 * load


class EnginePolicy:
    """One row of ``POLICIES``, applied after each operator finishes.

    Never errors on a full budget; the node simply is not persisted.
    Charges the budget when it does decide to persist.
    """

    def __init__(self, name: str = "engine"):
        if name not in POLICIES:
            raise ValueError(f"unknown policy {name!r} (choose from {', '.join(POLICIES)})")
        self.persists, self.charges_write = POLICIES[name]

    def decide(self, node, costs, dag, budget) -> MaterializationDecision:
        r = r_value(node, costs, dag)
        nbytes = costs[node].output_bytes
        materialize = self.persists(r) and budget.fits(nbytes)
        if materialize:
            budget.charge(nbytes)
        return MaterializationDecision(node, r, materialize, nbytes if materialize else 0)

    def write_cost_seconds(self, node: str, costs: Mapping[str, CostRecord]) -> float:
        return costs[node].load_seconds if self.charges_write else 0.0
