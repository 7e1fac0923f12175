"""Online materialization: decide right after an operator finishes whether
to persist its output for future runs.

The decision weighs the full recompute chain of a node (its own compute
time plus every ancestor's) against twice its load time, one write now plus
one read later.  Call that balance the node's r-value.  Each decision walks
the node's ancestors afresh and stops once the sign is settled (see
``r_value``); nothing is kept between decisions.  The published rule and the
sign that actually pays off disagree, so both are rows of ``POLICIES``, next
to the two baselines that persist everything or nothing.

Decisions are strictly online: a node's decision may look at the node
itself, its ancestors, and the running storage budget, never at anything
downstream or still unexecuted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

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
    """The outcome of one decision.

    ``r_value`` is exact when it is <= 0; when positive it is a lower bound,
    the balance ``r_value()`` had reached when the sign was settled.
    """

    node: str
    r_value: float
    materialize: bool
    bytes_charged: int


def r_value(node: str, costs: Mapping[str, CostRecord], dag: Dag) -> float:
    """Recompute chain of ``node`` minus twice its (estimated) load time.

    The chain is the node's own compute time plus that of every ancestor,
    each counted once.  Positive means a future iteration that reuses the
    node saves more time than one write plus one read costs.

    Every policy reads only the sign, so the walk stops early: it starts
    from minus twice the load, adds the compute of the node and then of its
    ancestors, depth-first, and returns as soon as the balance is positive.
    A value <= 0 is therefore exact, an exact tie included; a positive value
    is the balance at the stop, a lower bound on the full r-value.  Sums are
    integer microseconds, like the planner's costs, so an exact tie reads 0
    whatever the order of the walk.  Worst case: a node whose chain is at
    most twice its load walks its whole ancestor set.

    Costs are read at call time.  A missing cost raises KeyError, and a
    negative or non-finite one ValueError.
    """
    balance = -2 * _micros(costs[node].load_seconds)
    seen = {node}
    pending = [node]
    while pending:
        name = pending.pop()
        balance += _micros(costs[name].compute_seconds)
        if balance > 0:
            break
        for parent in dag[name]:
            if parent not in seen:
                seen.add(parent)
                pending.append(parent)
    return balance / _MICROS


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
