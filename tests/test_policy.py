import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import iterflow
from iterflow.planner import _MICROS, CostRecord, _micros
from iterflow.policy import (
    POLICIES,
    EnginePolicy,
    StorageBudget,
    r_value,
)

from conftest import (
    ancestors,
    check_r_value,
    random_costs,
    random_dag,
    recompute_chain_micros,
)


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
        costs = {"b": CostRecord(5.0, 3.0, 100)}  # b alone balances to -1
        with pytest.raises(KeyError):
            r_value("b", costs, dag)

    def test_infinite_load_estimate_rejected(self):
        costs = {"a": CostRecord(1.0, math.inf, 10)}
        with pytest.raises(ValueError):
            r_value("a", costs, {"a": ()})


class TestDecide:
    costs = finite_costs({"a": (10.0, 1.0, 100), "b": (5.0, 3.0, 500)})
    dag = {"a": (), "b": ("a",)}

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
        self.reads = 0

    def __getitem__(self, key):
        self.touched.add(key)
        self.reads += 1
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
        allowed = {node, *ancestors(dag, node)}
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
    policy = EnginePolicy(name)
    dag = {"a": (), "b": ("a",)}
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
    costs = finite_costs({"a": (1.0, 4.0, 100)})
    dag = {"a": ()}

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


class TestRecomputeChains:
    """The recompute chain as ``r_value`` walks it."""

    def test_chains_equal_the_ancestor_walk(self):
        # Each load covers the whole chain, so the walk never stops early.
        rng = random.Random(16)
        for _ in range(200):
            dag = random_dag(rng, max_nodes=14, edge_prob=rng.choice((0.1, 0.3, 0.6)))
            compute = {n: rng.uniform(0.0, 3.0) for n in dag}
            costs = {n: CostRecord(c, 21.0, 10) for n, c in compute.items()}
            for node in dag:
                oracle = recompute_chain_micros(node, costs, dag)
                assert r_value(node, costs, dag) == (oracle - 42 * _MICROS) / _MICROS

    def test_diamond_counts_the_shared_ancestor_once(self):
        dag = {"a": (), "b": ("a",), "c": ("a",), "d": ("b", "c")}
        costs = finite_costs({"a": (1.0, 0.0, 1), "b": (2.0, 0.0, 1),
                              "c": (4.0, 0.0, 1), "d": (8.0, 7.5, 1)})
        # 1 + 2 + 4 + 8 = 15 ties with twice d's load; counting a twice would not.
        assert r_value("d", costs, dag) == 0.0
        assert not EnginePolicy().decide("d", costs, dag, StorageBudget(None)).materialize

    def test_reads_a_bounded_number_of_costs_per_node(self):
        # Layers of 8 nodes, 3 parents each from the 3 layers above: a full
        # ancestor walk reads hundreds of costs per node on this shape, and
        # thousands at 20 000 nodes.
        for n_layers in (200, 2500):
            rng = random.Random(17)
            layers: list[list[str]] = []
            dag: dict[str, tuple[str, ...]] = {}
            for depth in range(n_layers):
                pool = [p for layer in layers[-3:] for p in layer]
                layer = [f"l{depth:04d}n{i}" for i in range(8)]
                for name in layer:
                    dag[name] = tuple(rng.sample(pool, min(3, len(pool))))
                layers.append(layer)

            costs = _SpyCosts({n: CostRecord(1.0, 1.0, 10) for n in dag})
            policy = EnginePolicy()
            for name in dag:
                policy.decide(name, costs, dag, StorageBudget(None))
            assert costs.reads / len(dag) <= 16, n_layers


def _oracle_decision(name, node, costs, dag, capacity):
    """The exact r-value in microseconds, and whether ``name`` persists."""
    r = recompute_chain_micros(node, costs, dag) - 2 * _micros(costs[node].load_seconds)
    persists, _ = POLICIES[name]
    fits = capacity is None or costs[node].output_bytes <= capacity
    return r, persists(r / _MICROS) and fits


@pytest.mark.parametrize("name", list(POLICIES))
def test_decisions_match_the_full_chain_oracle(name):
    # Integer-second costs make exact ties and negative balances common.
    rng = random.Random(18)
    signs = set()
    for _ in range(300):
        dag = random_dag(rng, max_nodes=12, edge_prob=rng.choice((0.1, 0.3, 0.6)))
        costs = {
            n: CostRecord(float(rng.randint(0, 6)), float(rng.randint(0, 12)),
                          rng.randint(1, 100))
            for n in dag
        }
        for node in dag:
            capacity = rng.choice((None, 50))
            want_r, want_materialize = _oracle_decision(name, node, costs, dag, capacity)
            decision = EnginePolicy(name).decide(node, costs, dag, StorageBudget(capacity))
            assert decision.materialize == want_materialize
            assert decision.bytes_charged == (costs[node].output_bytes if want_materialize else 0)
            check_r_value(decision.r_value, want_r)
            signs.add((want_r > 0) - (want_r < 0))
    assert signs == {-1, 0, 1}


_TIE_PROBE = """
from iterflow.planner import CostRecord
from iterflow.policy import EnginePolicy, StorageBudget
dag = {"a": (), "b": (), "c": (), "d": ("a", "b", "c")}
costs = {"a": CostRecord(0.1, 1.0), "b": CostRecord(0.2, 1.0),
         "c": CostRecord(0.3, 1.0), "d": CostRecord(0.0, 0.3)}
decision = EnginePolicy().decide("d", costs, dag, StorageBudget(None))
print(decision.r_value, decision.materialize)
"""


@pytest.mark.parametrize("hash_seed", ["0", "1", "2", "3"])
def test_exact_tie_does_not_depend_on_the_hash_seed(hash_seed):
    # Summed as floats in set order, this chain ties with the load only
    # under some hash seeds; under others the r-value is 1.1e-16.
    src = str(Path(iterflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _TIE_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["0.0", "False"]
