import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterflow import planner
from iterflow.errors import TooLargeError
from iterflow.planner import (
    CostRecord,
    NodeState,
    assign_states_bruteforce,
    assign_states_optimal,
    check_plan_legality,
    _FlowNetwork,
    _presolve,
    plan_cost,
)

from conftest import ancestors, random_dag, random_planning_instance

C, L, P = NodeState.COMPUTE, NodeState.LOAD, NodeState.PRUNE
RANK = {P: 0, L: 1, C: 2}


def tie_dense_instance(rng: random.Random, max_nodes: int):
    """A random instance whose costs come from a tiny set, so that many
    plans tie; node names are shuffled, so name order is not topological."""
    n = rng.randint(1, max_nodes)
    names = [f"n{k:02d}" for k in rng.sample(range(n), n)]  # topological order
    dag = {name: tuple(p for p in names[:i] if rng.random() < 0.4)
           for i, name in enumerate(names)}
    values = rng.choice([(0, 1), (0, 0, 0, 1, 2), (0,), (1,), (1, 2)])
    cached = {name for name in names if rng.random() < 0.5}
    costs = {name: CostRecord(float(rng.choice(values)),
                              float(rng.choice(values)) if name in cached else 0.0)
             for name in names}
    mandatory = {name for name in names if rng.random() < 0.15}
    sinks = {name for name in names if rng.random() < 0.3}
    return dag, costs, cached, mandatory, sinks


def optimal_plans(dag, costs, cached, mandatory, sinks) -> list[dict]:
    """Every legal plan of minimum cost, by full enumeration."""
    names = sorted(dag)
    best, plans = None, []
    for combo in itertools.product((P, L, C), repeat=len(names)):
        states = dict(zip(names, combo))
        if check_plan_legality(dag, cached, mandatory, sinks, states):
            continue
        cost = plan_cost(states, costs)
        if best is None or cost < best:
            best, plans = cost, []
        if cost == best:
            plans.append(states)
    return plans


class TestPlanCost:
    def test_all_prune_costs_nothing(self):
        costs = {"a": CostRecord(5.0, 1.0), "b": CostRecord(3.0, 1.0)}
        assert plan_cost({"a": P, "b": P}, costs) == 0.0

    def test_load_plus_compute(self):
        costs = {"a": CostRecord(9.0, 2.0), "b": CostRecord(3.0, 1.0)}
        assert plan_cost({"a": L, "b": C}, costs) == 5.0


class TestLegality:
    def test_loading_an_uncached_node_is_illegal(self):
        dag = {"a": (), "b": ("a",)}
        states = {"a": L, "b": C}
        assert check_plan_legality(dag, {"b"}, (), {"b"}, states) == [
            "a: loaded but not cached"
        ]
        assert check_plan_legality(dag, {"a"}, (), {"b"}, states) == []


class TestOptimalExamples:
    def test_load_beats_recompute(self):
        dag = {"a": (), "b": ("a",)}
        costs = {"a": CostRecord(10.0, 1.0), "b": CostRecord(2.0, 0.0)}
        plan = assign_states_optimal(dag, costs, {"a"}, mandatory={"b"}, sinks={"b"})
        assert plan.states == {"a": L, "b": C}
        assert plan.total_cost_seconds == 3.0

    def test_loading_a_node_prunes_its_ancestors(self):
        dag = {"a": (), "b": ("a",), "c": ("b",)}
        costs = {
            "a": CostRecord(3.0, 0.0),
            "b": CostRecord(3.0, 0.0),
            "c": CostRecord(3.0, 4.0),
        }
        plan = assign_states_optimal(dag, costs, {"c"}, sinks={"c"})
        assert plan.states == {"a": P, "b": P, "c": L}
        assert plan.total_cost_seconds == 4.0

    def test_diamond_mixes_loads_and_computes(self):
        # b is cheap to load, c is cheap to recompute; the sink needs both.
        dag = {"a": (), "b": ("a",), "c": ("a",), "d": ("b", "c")}
        costs = {
            "a": CostRecord(1.0, 0.0),
            "b": CostRecord(9.0, 1.0),
            "c": CostRecord(1.0, 9.0),
            "d": CostRecord(1.0, 0.0),
        }
        plan = assign_states_optimal(dag, costs, {"b", "c"}, sinks={"d"})
        assert plan.states == {"a": C, "b": L, "c": C, "d": C}
        assert plan.total_cost_seconds == 4.0


class TestBruteforceExamples:
    def test_single_cached_sink_loads(self):
        plan = assign_states_bruteforce({"x": ()}, {"x": CostRecord(5.0, 2.0)}, {"x"},
                                        sinks={"x"})
        assert plan.states == {"x": L}
        assert plan.total_cost_seconds == 2.0

    def test_single_uncached_sink_computes(self):
        plan = assign_states_bruteforce({"x": ()}, {"x": CostRecord(5.0, 0.0)}, set(),
                                        sinks={"x"})
        assert plan.states == {"x": C}
        assert plan.total_cost_seconds == 5.0

    def test_too_many_nodes_rejected(self):
        dag = {f"n{i:02d}": () for i in range(16)}
        costs = {name: CostRecord(1.0, 0.0) for name in dag}
        with pytest.raises(TooLargeError):
            assign_states_bruteforce(dag, costs, set())


class TestOracleEquivalence:
    def test_plans_match_bruteforce_on_random_instances(self):
        rng = random.Random(20240601)
        for _ in range(150):
            dag, costs, cached, mandatory, sinks = random_planning_instance(rng)
            fast = assign_states_optimal(dag, costs, cached, mandatory, sinks)
            oracle = assign_states_bruteforce(dag, costs, cached, mandatory, sinks)
            assert fast.total_cost_micros == oracle.total_cost_micros
            assert fast.states == oracle.states  # identical tie-breaking

    def test_plans_match_bruteforce_on_tie_dense_instances(self):
        rng = random.Random(31)
        for _ in range(300):
            instance = tie_dense_instance(rng, max_nodes=9)
            fast = assign_states_optimal(*instance)
            oracle = assign_states_bruteforce(*instance)
            assert fast.total_cost_micros == oracle.total_cost_micros
            assert fast.states == oracle.states

    def test_every_plan_is_legal(self):
        rng = random.Random(77)
        for _ in range(100):
            dag, costs, cached, mandatory, sinks = random_planning_instance(rng)
            plan = assign_states_optimal(dag, costs, cached, mandatory, sinks)
            assert check_plan_legality(dag, cached, mandatory, sinks, plan.states) == []


class TestProperties:
    def test_cold_start_computes_exactly_the_needed_closure(self):
        rng = random.Random(5)
        for _ in range(30):
            dag = random_dag(rng)
            costs = {n: CostRecord(float(rng.randint(1, 9)), 0.0) for n in dag}
            names = list(dag)
            sinks = {names[-1]}
            plan = assign_states_optimal(dag, costs, set(), mandatory=set(), sinks=sinks)
            needed = set()
            frontier = list(sinks)
            while frontier:
                cur = frontier.pop()
                if cur not in needed:
                    needed.add(cur)
                    frontier.extend(dag[cur])
            assert {n for n, s in plan.states.items() if s is C} == needed
            assert {n for n, s in plan.states.items() if s is P} == set(dag) - needed

    def test_fully_cached_rerun_is_at_most_sink_loads(self):
        rng = random.Random(6)
        for _ in range(30):
            dag = random_dag(rng)
            costs = {
                n: CostRecord(float(rng.randint(1, 9)), float(rng.randint(0, 9)))
                for n in dag
            }
            sinks = {n for n in dag if rng.random() < 0.4}
            plan = assign_states_optimal(dag, costs, set(dag), mandatory=set(), sinks=sinks)
            assert plan.total_cost_seconds <= sum(costs[s].load_seconds for s in sinks) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_adding_a_cached_copy_never_hurts(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**31)))
        dag, costs, cached, mandatory, sinks = random_planning_instance(rng, max_nodes=9)
        uncached = [n for n in dag if n not in cached]
        if not uncached:
            return
        victim = data.draw(st.sampled_from(sorted(uncached)))
        baseline = assign_states_optimal(dag, costs, cached, mandatory, sinks)
        better = dict(costs)
        better[victim] = CostRecord(
            costs[victim].compute_seconds,
            float(data.draw(st.integers(0, 20))),
            costs[victim].output_bytes,
        )
        improved = assign_states_optimal(dag, better, cached | {victim}, mandatory, sinks)
        assert improved.total_cost_micros <= baseline.total_cost_micros

    def test_input_order_does_not_change_the_plan(self):
        rng = random.Random(8)
        dag, costs, cached, mandatory, sinks = random_planning_instance(rng)
        scrambled_dag = dict(sorted(dag.items(), reverse=True))
        scrambled_costs = dict(sorted(costs.items(), reverse=True))
        a = assign_states_optimal(dag, costs, cached, mandatory, sinks)
        b = assign_states_optimal(scrambled_dag, scrambled_costs, cached, mandatory, sinks)
        assert a.states == b.states
        assert a.total_cost_micros == b.total_cost_micros


class TestTieBreak:
    def test_plan_is_state_by_state_least_optimal_plan(self):
        rng = random.Random(11)
        for _ in range(120):
            instance = tie_dense_instance(rng, max_nodes=7)
            plan = assign_states_optimal(*instance)
            for other in optimal_plans(*instance):
                assert all(RANK[plan.states[n]] <= RANK[other[n]] for n in other)

    def test_renaming_nodes_renames_the_plan(self):
        rng = random.Random(12)
        for _ in range(120):
            dag, costs, cached, mandatory, sinks = tie_dense_instance(rng, max_nodes=7)
            targets = list(dag)
            rng.shuffle(targets)
            rename = dict(zip(dag, targets))
            renamed = assign_states_optimal(
                {rename[n]: tuple(rename[p] for p in ps) for n, ps in dag.items()},
                {rename[n]: cost for n, cost in costs.items()},
                {rename[n] for n in cached},
                {rename[n] for n in mandatory},
                {rename[n] for n in sinks},
            )
            plan = assign_states_optimal(dag, costs, cached, mandatory, sinks)
            assert renamed.states == {rename[n]: s for n, s in plan.states.items()}
            assert renamed.total_cost_micros == plan.total_cost_micros

    def test_capacities_stay_machine_sized(self, monkeypatch):
        # 2000 nodes in 20 layers of 100, each with up to 3 parents in the
        # layer above; a tie-break weight per node would need n-digit ints.
        rng = random.Random(3)
        layers = [[f"l{d:02d}_{k:03d}" for k in range(100)] for d in range(20)]
        dag = {name: tuple(rng.sample(layers[d - 1], rng.randint(1, 3))) if d else ()
               for d, layer in enumerate(layers) for name in layer}
        cached = {name for name in dag if rng.random() < 0.5}
        costs = {name: CostRecord(rng.randint(0, 10**4) / 100,
                                  rng.randint(0, 10**4) / 100 if name in cached else 0.0)
                 for name in dag}
        mandatory, sinks = set(layers[0][:10]), set(layers[-1][:5])
        capacities = []
        add_edge = _FlowNetwork.add_edge

        def recording_add_edge(self, u, v, capacity):
            capacities.append(capacity)
            add_edge(self, u, v, capacity)

        monkeypatch.setattr(_FlowNetwork, "add_edge", recording_add_edge)
        plan = assign_states_optimal(dag, costs, cached, mandatory, sinks)
        assert check_plan_legality(dag, cached, mandatory, sinks, plan.states) == []
        assert len(capacities) > len(dag)
        assert max(capacities) < 2**63


def refuse_network(*args, **kwargs):
    raise AssertionError("a flow network was built")


class TestPresolve:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31), tie_dense=st.booleans())
    def test_presolved_states_agree_with_the_oracle(self, seed, tie_dense):
        rng = random.Random(seed)
        instance = (tie_dense_instance(rng, max_nodes=9) if tie_dense
                    else random_planning_instance(rng, max_nodes=10))
        dag, costs, cached, mandatory, sinks = instance
        oracle = assign_states_bruteforce(*instance).states
        pre = _presolve(sorted(dag), dag, costs, cached, set(mandatory), set(sinks))
        assert {name: oracle[name] for name in pre.fixed} == pre.fixed
        assert all(oracle[name] is not C for name in pre.never_compute)
        assert set(pre.fixed).isdisjoint(pre.residual)
        assert set(pre.fixed) | set(pre.residual) == set(dag)

    def test_cold_plan_of_a_deep_dag_builds_no_network(self, monkeypatch):
        # 10k nodes, 8 a layer, each with 3 parents from the 3 layers above.
        rng = random.Random(19)
        layers = [[f"l{d:04d}_{k}" for k in range(8)] for d in range(1250)]
        dag = {}
        for d, layer in enumerate(layers):
            above = [p for upper in layers[max(0, d - 3):d] for p in upper]
            for name in layer:
                dag[name] = tuple(rng.sample(above, min(3, len(above))))
        costs = {name: CostRecord(rng.randint(1, 10**4) / 100, rng.randint(1, 10**4) / 100)
                 for name in dag}
        sinks = set(layers[-1])
        monkeypatch.setattr(planner, "_FlowNetwork", refuse_network)

        # A cold run: nothing cached, every node changed.
        plan = assign_states_optimal(dag, costs, set(), mandatory=set(dag), sinks=sinks)
        assert set(plan.states.values()) == {C}
        # Only the sinks forced: their ancestors compute, the rest prune.
        plan = assign_states_optimal(dag, costs, set(), sinks=sinks)
        needed = sinks.union(*(ancestors(dag, name) for name in sinks))
        assert {name for name, state in plan.states.items() if state is C} == needed
        assert {name for name, state in plan.states.items() if state is P} == set(dag) - needed

    def test_an_open_choice_builds_a_network(self, monkeypatch):
        # b computes cheaper than it loads, so the presolve leaves b open.
        monkeypatch.setattr(planner, "_FlowNetwork", refuse_network)
        dag = {"a": (), "b": ("a",), "c": ("b",)}
        costs = {"a": CostRecord(1.0, 0.0), "b": CostRecord(1.0, 5.0), "c": CostRecord(1.0, 0.0)}
        with pytest.raises(AssertionError, match="flow network"):
            assign_states_optimal(dag, costs, {"b"}, sinks={"c"})
