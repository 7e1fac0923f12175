import math
import random

import pytest

from iterflow.errors import UnknownCostError
from iterflow.planner import CostRecord
from iterflow.policy import POLICIES, EnginePolicy, StorageBudget, r_value

from conftest import random_costs, random_dag


def finite_costs(mapping):
    return {
        name: CostRecord(c, load, nbytes) for name, (c, load, nbytes) in mapping.items()
    }


class TestRValue:
    def test_source_node_balances_to_zero(self):
        costs = finite_costs({"a": (4.0, 2.0, 100)})
        assert r_value("a", costs, {"a": ()}) == 0.0

    def test_chain(self):
        dag = {"a": (), "b": ("a",)}
        costs = finite_costs({"a": (10.0, 1.0, 100), "b": (5.0, 3.0, 100)})
        assert r_value("b", costs, dag) == 9.0

    def test_boundary_is_exactly_zero(self):
        dag = {"a": (), "b": ("a",)}
        costs = finite_costs({"a": (6.0, 1.0, 100), "b": (4.0, 5.0, 100)})
        assert r_value("b", costs, dag) == 0.0

    def test_unknown_ancestor_cost(self):
        dag = {"a": (), "b": ("a",)}
        costs = {"b": CostRecord(5.0, 3.0, 100)}
        with pytest.raises(UnknownCostError):
            r_value("b", costs, dag)

    def test_infinite_load_estimate_rejected(self):
        with pytest.raises(UnknownCostError):
            r_value("a", {"a": CostRecord(1.0, math.inf, 10)}, {"a": ()})


class TestDecide:
    dag = {"a": (), "b": ("a",)}
    costs = finite_costs({"a": (10.0, 1.0, 100), "b": (5.0, 3.0, 500)})

    def test_positive_balance_materializes_by_default(self):
        budget = StorageBudget(capacity_bytes=None)
        decision = EnginePolicy().decide("b", self.costs, self.dag, budget)
        assert decision.materialize and decision.r_value == 9.0
        assert decision.bytes_charged == 500

    def test_budget_violation_suppresses_materialization(self):
        budget = StorageBudget(capacity_bytes=499)
        decision = EnginePolicy().decide("b", self.costs, self.dag, budget)
        assert not decision.materialize
        assert budget.used_bytes == 0

    def test_budget_is_charged(self):
        budget = StorageBudget(capacity_bytes=600)
        assert EnginePolicy().decide("b", self.costs, self.dag, budget).materialize
        assert budget.used_bytes == 500
        # a second identical output no longer fits
        assert not EnginePolicy().decide("b", self.costs, self.dag, budget).materialize

    def test_deterministic(self):
        first = EnginePolicy().decide("b", self.costs, self.dag, StorageBudget(None))
        second = EnginePolicy().decide("b", self.costs, self.dag, StorageBudget(None))
        assert first == second


class _SpyCosts(dict):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.touched = set()

    def __getitem__(self, key):
        self.touched.add(key)
        return super().__getitem__(key)


def test_decision_reads_only_the_node_and_its_ancestors():
    rng = random.Random(13)
    for _ in range(25):
        dag = random_dag(rng, max_nodes=8)
        plain = {
            n: CostRecord(float(rng.randint(1, 9)), float(rng.randint(1, 9)), 10)
            for n in dag
        }
        names = list(dag)
        node = names[rng.randrange(len(names))]
        allowed = {node}
        frontier = list(dag[node])
        while frontier:
            cur = frontier.pop()
            if cur not in allowed:
                allowed.add(cur)
                frontier.extend(dag[cur])
        for name in POLICIES:
            spy = _SpyCosts(plain)
            EnginePolicy(name).decide(node, spy, dag, StorageBudget(None))
            assert spy.touched <= allowed, name


def test_budget_safety_over_a_run_of_decisions():
    rng = random.Random(14)
    dag = random_dag(rng, max_nodes=10)
    costs = {
        n: CostRecord(float(rng.randint(1, 9)), float(rng.randint(1, 9)),
                      rng.randint(1, 1000))
        for n in dag
    }
    budget = StorageBudget(capacity_bytes=1500)
    charged = 0
    for node in dag:
        decision = EnginePolicy().decide(node, costs, dag, budget)
        charged += decision.bytes_charged
    assert charged <= 1500
    assert budget.used_bytes == charged


def test_expensive_chains_always_materialize_with_unlimited_budget():
    rng = random.Random(15)
    for _ in range(25):
        dag = random_dag(rng, max_nodes=8)
        costs, _ = random_costs(rng, dag)
        finite = {
            n: CostRecord(r.compute_seconds, float(rng.randint(0, 5)), 10)
            for n, r in costs.items()
        }
        for node in dag:
            r = r_value(node, finite, dag)
            if r > 0:
                assert EnginePolicy().decide(node, finite, dag, StorageBudget(None)).materialize


# Per row: whether it persists at r > 0, r < 0 and r == 0, and whether it
# charges a modeled write cost.
EXPECTED_ROWS = {
    "engine": ((True, False, False), False),
    "materialize-all": ((True, True, True), True),
    "materialize-none": ((False, False, False), False),
    "paper-literal": ((False, True, False), False),
}

# Node b's r-value is 9, -8 and 0 under these.
SIGNED_COSTS = (
    (9.0, finite_costs({"a": (10.0, 1.0, 100), "b": (5.0, 3.0, 500)})),
    (-8.0, finite_costs({"a": (1.0, 1.0, 100), "b": (1.0, 5.0, 500)})),
    (0.0, finite_costs({"a": (6.0, 1.0, 100), "b": (4.0, 5.0, 500)})),
)


@pytest.mark.parametrize("name", list(POLICIES))
def test_policy_row(name):
    persists, charges_write = EXPECTED_ROWS[name]
    dag = {"a": (), "b": ("a",)}
    policy = EnginePolicy(name)
    for wanted, (r, costs) in zip(persists, SIGNED_COSTS):
        budget = StorageBudget(None)
        decision = policy.decide("b", costs, dag, budget)
        assert (decision.r_value, decision.materialize) == (r, wanted)
        assert decision.bytes_charged == budget.used_bytes == (500 if wanted else 0)

        full = StorageBudget(capacity_bytes=600, used_bytes=200)
        assert not policy.decide("b", costs, dag, full).materialize
        assert full.used_bytes == 200

        expected_write = costs["b"].load_seconds if charges_write else 0.0
        assert policy.write_cost_seconds("b", costs) == expected_write


class TestBaselinePolicies:
    dag = {"a": ()}
    costs = finite_costs({"a": (1.0, 4.0, 100)})

    def test_materialize_all_persists_within_budget(self):
        policy = EnginePolicy("materialize-all")
        assert policy.decide("a", self.costs, self.dag, StorageBudget(None)).materialize
        assert not policy.decide("a", self.costs, self.dag,
                                 StorageBudget(capacity_bytes=50)).materialize

    def test_materialize_all_models_a_write_cost(self):
        policy = EnginePolicy("materialize-all")
        assert policy.write_cost_seconds("a", self.costs) == 4.0


def test_unknown_policy_name_is_rejected():
    with pytest.raises(ValueError, match="engine, materialize-all, materialize-none, paper-literal"):
        EnginePolicy("materialize-sometimes")
