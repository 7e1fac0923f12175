import dataclasses
import json
import random
from pathlib import Path

import pytest

from iterflow import runner
from iterflow.errors import CacheLockedError, InvalidConfigError
from iterflow.planner import (
    ExecutionPlan,
    NodeState,
    _micros,
    check_plan_legality,
)
from iterflow.runner import (
    CLOCK_SIMULATED,
    PlanContext,
    RunConfig,
    _Executor,
    execute,
    prepare,
    read_run_log_tail,
    run_iteration,
)
from iterflow.policy import EnginePolicy, StorageBudget
from iterflow.store import CacheStore, HistoryRecord, load_manifest
from iterflow.workflow import parse_workflow, serialize_workflow

from conftest import (
    chain_spec,
    check_r_value,
    random_spec,
    recompute_chain_micros,
    sim_node,
    sim_spec,
    write_sources,
)


def sim_config(**kw):
    return RunConfig(clock_mode=CLOCK_SIMULATED, **kw)


@pytest.fixture
def env(tmp_path):
    ws = tmp_path / "ws"
    ws.mkdir()
    return ws, tmp_path / "cache"


def deploy(spec, ws) -> Path:
    write_sources(spec, ws)
    path = ws / "workflow.json"
    path.write_text(serialize_workflow(spec))
    return path


def command_spec_text() -> str:
    return json.dumps({
        "version": 1,
        "nodes": [
            {"name": "raw", "kind": "data-preprocessing",
             "action": {"type": "command", "argv": ["sh", "-c", "cat data/in.txt > {output}"],
                        "output": "out/raw.txt"},
             "parents": [], "sources": ["data/in.txt"]},
            {"name": "upper", "kind": "ml",
             "action": {"type": "command",
                        "argv": ["sh", "-c", "tr a-z A-Z < {parent:raw} > {output}"],
                        "output": "out/upper.txt"},
             "parents": ["raw"], "sources": []},
        ],
        "outputs": ["upper"],
    })


class TestSimulatedRuns:
    def test_cold_chain_sums_declared_costs(self, env):
        ws, cache = env
        spec = sim_spec(
            [sim_node("a", compute_seconds=3.0), sim_node("b", ("a",), compute_seconds=2.0)],
            outputs=("b",),
        )
        report = run_iteration(deploy(spec, ws), ws, cache, sim_config())
        assert report.succeeded
        assert report.compute_seconds == 5.0
        assert report.load_seconds == 0.0
        assert report.iteration_index == 1

    def test_warm_rerun_loads_only(self, env):
        ws, cache = env
        spec = chain_spec("a", "b", "c")
        path = deploy(spec, ws)
        run_iteration(path, ws, cache, sim_config())
        second = run_iteration(path, ws, cache, sim_config())
        assert second.compute_seconds == 0
        states = {name: rec.state for name, rec in second.nodes.items()}
        assert states["c"] == "load"
        assert states["a"] == states["b"] == "prune"

    def test_all_prune_plan_executes_nothing(self, env):
        ws, cache = env
        spec = chain_spec("a", "b")
        ctx = prepare(serialize_workflow(spec),
                      deploy(spec, ws).parent, load_manifest(cache), sim_config())
        idle = ExecutionPlan(
            states={n: NodeState.PRUNE for n in spec.names()},
            total_cost_seconds=0.0, total_cost_micros=0,
        )
        ctx = PlanContext(**{**ctx.__dict__, "plan": idle})
        with CacheStore(cache) as store:
            report = execute(ctx, store, EnginePolicy(), StorageBudget(None),
                             sim_config(), ws)
        assert report.total_seconds == 0
        assert not any(rec.materialized for rec in report.nodes.values())

    def test_edit_recomputes_descendants_and_loads_frontier(self, env):
        ws, cache = env
        spec = chain_spec("a", "b", "c")
        path = deploy(spec, ws)
        run_iteration(path, ws, cache, sim_config())
        edited = spec.replace_node(
            dataclasses.replace(spec.node("b"), env_fingerprint="v2")
        )
        path.write_text(serialize_workflow(edited))
        report = run_iteration(path, ws, cache, sim_config())
        states = {name: rec.state for name, rec in report.nodes.items()}
        assert states == {"a": "load", "b": "compute", "c": "compute"}

    def test_simulated_clock_rejects_command_operators(self, env):
        ws, cache = env
        (ws / "data").mkdir()
        (ws / "data" / "in.txt").write_text("x")
        path = ws / "workflow.json"
        path.write_text(command_spec_text())
        with pytest.raises(InvalidConfigError):
            run_iteration(path, ws, cache, sim_config())

    def test_budget_caps_materialized_bytes(self, env):
        ws, cache = env
        spec = sim_spec(
            [
                sim_node("a", compute_seconds=5.0, output_bytes=600),
                sim_node("b", ("a",), compute_seconds=5.0, output_bytes=600),
                sim_node("c", ("b",), compute_seconds=5.0, output_bytes=600),
            ],
            outputs=("c",),
        )
        report = run_iteration(deploy(spec, ws), ws, cache,
                               sim_config(budget_bytes=1000))
        charged = sum(
            e.charged_bytes for e in load_manifest(cache).entries.values()
        )
        assert charged <= 1000
        assert sum(rec.materialized for rec in report.nodes.values()) == 1

    @pytest.mark.parametrize("policy", ["engine", "materialize-all"])
    def test_recomputing_a_cached_node_is_not_charged_again(self, env, policy):
        ws, cache = env
        # b loads in 1 s but recomputes in 0 s from a, which is loaded anyway.
        spec = sim_spec(
            [sim_node("a", compute_seconds=10.0, output_bytes=10**6),
             sim_node("b", ("a",), compute_seconds=0.0, output_bytes=100 * 10**6)],
            outputs=("a", "b"),
        )
        path = deploy(spec, ws)
        config = sim_config(policy_name=policy)
        run_iteration(path, ws, cache, config)
        with CacheStore(cache) as store:
            ctx = prepare(path.read_text(), ws, store.manifest, config)
            assert ctx.plan.states == {"a": NodeState.LOAD, "b": NodeState.COMPUTE}
            used = sum(e.charged_bytes for e in store.manifest.entries.values())
            budget = StorageBudget(None, used_bytes=used)
            report = execute(ctx, store, EnginePolicy(policy), budget, config, ws)
        assert used == 101 * 10**6
        assert budget.used_bytes == used
        assert not report.nodes["b"].materialized
        assert report.materialize_seconds == 0.0

    def test_planner_reads_the_per_name_load_average(self, env):
        # Only commands keep a per-name load average; see TestDeclaredCosts
        # for simulated operators.
        ws, cache = env
        (ws / "data").mkdir()
        (ws / "data" / "in.txt").write_text("x")
        spec = parse_workflow(json.dumps({
            "version": 1,
            "nodes": [{"name": "a", "kind": "ml",
                       "action": {"type": "command", "argv": ["sh", "-c", "echo a > {output}"],
                                  "output": "out/a.txt"},
                       "parents": [], "sources": ["data/in.txt"]}],
            "outputs": ["a"],
        }))
        path = ws / "workflow.json"
        for version in ("v1", "v2"):
            edited = spec.replace_node(
                dataclasses.replace(spec.node("a"), env_fingerprint=version)
            )
            path.write_text(serialize_workflow(edited))
            assert run_iteration(path, ws, cache, RunConfig()).nodes["a"].materialized
        with CacheStore(cache) as store:
            history = store.manifest.cost_history
            history["a"] = HistoryRecord(compute_seconds=1.0, output_bytes=2)
            runner.record_load(history, "a", 2.5)
            runner.record_load(history, "a", 0.5)
        ctx = prepare(path.read_text(), ws, load_manifest(cache), RunConfig())
        # The last load took 0.5 s, cheaper than the 1 s compute; the name's
        # average is 1.5 s, so the planner computes.
        assert ctx.cached == {"a"}
        assert ctx.costs["a"].load_seconds == 1.5
        assert ctx.plan.states == {"a": NodeState.COMPUTE}

    def test_manifest_with_per_entry_load_times_still_opens(self, env):
        ws, cache = env
        path = deploy(chain_spec("a", "b", "c"), ws)
        run_iteration(path, ws, cache, sim_config())
        manifest_path = cache / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        for entry in doc["entries"].values():
            entry["measured_load_seconds"] = 0.5  # the older per-signature average
            entry["created_at"] = 1700000000.0  # retired with the payload file's mtime
        manifest_path.write_text(json.dumps(doc))
        report = run_iteration(path, ws, cache, sim_config())
        assert report.succeeded
        assert report.compute_seconds == 0
        assert "measured_load_seconds" not in manifest_path.read_text()
        assert "created_at" not in manifest_path.read_text()

    def test_run_log_grows_and_cumulative_is_monotone(self, env):
        ws, cache = env
        spec = chain_spec("a", "b")
        path = deploy(spec, ws)
        previous = 0.0
        for expected_index in (1, 2, 3):
            report = run_iteration(path, ws, cache, sim_config())
            assert report.iteration_index == expected_index
            assert report.cumulative_seconds >= previous
            previous = report.cumulative_seconds
        count, cumulative = read_run_log_tail(cache)
        assert count == 3
        assert cumulative == previous

    def test_torn_run_log_tail_is_cut_off(self, env, caplog):
        ws, cache = env
        path = deploy(chain_spec("a", "b"), ws)
        run_iteration(path, ws, cache, sim_config())
        log = cache / "runs.log"
        first = log.read_bytes()
        with open(log, "ab") as fh:
            fh.write(first[:len(first) // 2])  # a crash in the middle of an append
        report = run_iteration(path, ws, cache, sim_config())
        assert report.iteration_index == 2
        lines = log.read_text().splitlines()
        assert [json.loads(line)["iteration_index"] for line in lines] == [1, 2]
        assert "torn record" in caplog.text

    def test_run_log_is_appended_under_the_writer_lock(self, env, monkeypatch):
        ws, cache = env
        path = deploy(chain_spec("a", "b"), ws)
        original = runner.append_run_log
        appended = []

        def locked_append(cache_root, report):
            with pytest.raises(CacheLockedError):
                CacheStore(cache_root)
            appended.append(report.iteration_index)
            original(cache_root, report)

        monkeypatch.setattr(runner, "append_run_log", locked_append)
        run_iteration(path, ws, cache, sim_config())
        assert appended == [1]


class TestRealCommands:
    def test_cold_and_warm_runs_produce_identical_outputs(self, env):
        ws, cache = env
        (ws / "data").mkdir()
        (ws / "data" / "in.txt").write_text("hello pipeline\n")
        path = ws / "workflow.json"
        path.write_text(command_spec_text())
        config = RunConfig()
        first = run_iteration(path, ws, cache, config)
        assert first.succeeded, first.failed_nodes
        cold = (ws / "out" / "upper.txt").read_bytes()
        assert cold == b"HELLO PIPELINE\n"

        (ws / "out" / "upper.txt").unlink()
        second = run_iteration(path, ws, cache, config)
        assert second.succeeded
        assert second.nodes["upper"].state == "load"
        assert (ws / "out" / "upper.txt").read_bytes() == cold

    def test_cold_run_does_not_persist_output_cheaper_to_recompute(self, env):
        # Writing 20 MB of zeros takes milliseconds; loading it is estimated
        # from its measured size, so the first run must not cache it.
        ws, cache = env
        (ws / "data").mkdir()
        (ws / "data" / "in.txt").write_text("x")
        path = ws / "workflow.json"
        path.write_text(json.dumps({
            "version": 1,
            "nodes": [
                {"name": "zeros", "kind": "ml",
                 "action": {"type": "command",
                            "argv": ["sh", "-c", "head -c 20000000 /dev/zero > {output}"],
                            "output": "out/zeros.bin"},
                 "parents": [], "sources": ["data/in.txt"]},
            ],
            "outputs": ["zeros"],
        }))
        report = run_iteration(path, ws, cache, RunConfig())
        assert report.succeeded, report.failed_nodes
        assert (ws / "out" / "zeros.bin").stat().st_size == 20_000_000
        assert not report.nodes["zeros"].materialized
        assert load_manifest(cache).entries == {}

    def test_load_average_is_the_reported_load_time(self, env):
        # A real-clock load restores the payload into the workspace; the
        # planner's estimate must include that write, as the report does.
        ws, cache = env
        (ws / "data").mkdir()
        (ws / "data" / "in.txt").write_text("x")
        path = ws / "workflow.json"
        path.write_text(json.dumps({
            "version": 1,
            "nodes": [
                {"name": "big", "kind": "ml",
                 "action": {"type": "command",
                            "argv": ["sh", "-c", "sleep 0.3; head -c 4000000 /dev/zero > {output}"],
                            "output": "out/big.bin"},
                 "parents": [], "sources": ["data/in.txt"]},
            ],
            "outputs": ["big"],
        }))
        cold = run_iteration(path, ws, cache, RunConfig())
        assert cold.succeeded, cold.failed_nodes
        assert cold.nodes["big"].materialized
        warm = run_iteration(path, ws, cache, RunConfig())
        assert warm.nodes["big"].state == "load"
        assert warm.nodes["big"].ok, warm.nodes["big"].detail
        history = load_manifest(cache).cost_history["big"]
        assert history.load_seconds == warm.nodes["big"].wall_seconds

    def test_chain_reads_measured_costs(self, env, monkeypatch):
        # A first run has no history, so the plan assumes the default compute
        # time; the decision on b must see what a and b actually took.
        ws, cache = env
        (ws / "data").mkdir()
        (ws / "data" / "in.txt").write_text("x")
        path = ws / "workflow.json"
        path.write_text(json.dumps({
            "version": 1,
            "nodes": [
                {"name": "a", "kind": "ml",
                 "action": {"type": "command", "argv": ["sh", "-c", "sleep 0.05; echo a > {output}"],
                            "output": "out/a.txt"},
                 "parents": [], "sources": ["data/in.txt"]},
                {"name": "b", "kind": "ml",
                 "action": {"type": "command",
                            "argv": ["sh", "-c", "sleep 0.05; cat {parent:a} > {output}"],
                            "output": "out/b.txt"},
                 "parents": ["a"], "sources": []},
            ],
            "outputs": ["b"],
        }))
        seen = {}
        original_decide = EnginePolicy.decide

        def spy_decide(self, node, costs, dag, budget):
            decision = original_decide(self, node, costs, dag, budget)
            seen[node] = (decision.r_value, costs[node].load_seconds)
            return decision

        monkeypatch.setattr(EnginePolicy, "decide", spy_decide)
        report = run_iteration(path, ws, cache, RunConfig())
        assert report.succeeded, report.failed_nodes
        wall_a = report.nodes["a"].wall_seconds
        wall_b = report.nodes["b"].wall_seconds
        assert wall_a < runner.DEFAULT_COMPUTE_SECONDS
        r, load_b = seen["b"]
        # The walk starts at b and reaches a only while the balance is <= 0.
        balance = _micros(wall_b) - 2 * _micros(load_b)
        if balance <= 0:
            balance += _micros(wall_a)
        assert r == balance / 1e6

    def test_failure_skips_dependents_but_not_independent_chains(self, env):
        ws, cache = env
        text = json.dumps({
            "version": 1,
            "nodes": [
                {"name": "boom", "kind": "ml",
                 "action": {"type": "command", "argv": ["sh", "-c", "exit 7"],
                            "output": "out/boom.txt"},
                 "parents": [], "sources": ["data/in.txt"]},
                {"name": "after", "kind": "ml",
                 "action": {"type": "command", "argv": ["sh", "-c", "cat {parent:boom} > {output}"],
                            "output": "out/after.txt"},
                 "parents": ["boom"], "sources": []},
                {"name": "solo", "kind": "ml",
                 "action": {"type": "command", "argv": ["sh", "-c", "echo ok > {output}"],
                            "output": "out/solo.txt"},
                 "parents": [], "sources": ["data/in.txt"]},
            ],
            "outputs": ["after", "solo"],
        })
        (ws / "data").mkdir()
        (ws / "data" / "in.txt").write_text("x")
        path = ws / "workflow.json"
        path.write_text(text)
        before_previous = load_manifest(cache).previous_signatures
        report = run_iteration(path, ws, cache, RunConfig())
        assert not report.succeeded
        assert not report.nodes["boom"].ok and "7" in report.nodes["boom"].detail
        assert not report.nodes["after"].ok and "skipped" in report.nodes["after"].detail
        assert report.nodes["solo"].ok
        # a failed run must not advance the previous-iteration signatures
        assert load_manifest(cache).previous_signatures == before_previous

    def test_load_failure_falls_back_to_compute(self, env, monkeypatch):
        ws, cache = env
        (ws / "data").mkdir()
        (ws / "data" / "in.txt").write_text("abc\n")
        path = ws / "workflow.json"
        path.write_text(command_spec_text())
        run_iteration(path, ws, cache, RunConfig())

        # editing the sink forces: raw -> load, upper -> compute
        import dataclasses

        spec = parse_workflow(command_spec_text())
        edited = spec.replace_node(
            dataclasses.replace(spec.node("upper"), env_fingerprint="v2")
        )
        path.write_text(serialize_workflow(edited))

        # the frontier load breaks mid-run; raw has no parents, so the
        # executor recomputes it instead of aborting
        from iterflow.errors import CorruptEntryError

        def broken_get(self, signature):
            raise CorruptEntryError(signature, "flaky disk")

        monkeypatch.setattr(CacheStore, "get", broken_get)
        report = run_iteration(path, ws, cache, RunConfig())
        assert report.succeeded
        assert "recomputed" in report.nodes["raw"].detail
        assert report.nodes["raw"].state == "compute"
        assert (ws / "out" / "upper.txt").read_bytes() == b"ABC\n"

    def test_load_failure_below_a_pruned_parent_replans(self, env, monkeypatch):
        ws, cache = env
        (ws / "data").mkdir()
        (ws / "data" / "in.txt").write_text("abc\n")
        path = ws / "workflow.json"
        path.write_text(command_spec_text())
        run_iteration(path, ws, cache, RunConfig())
        (ws / "out" / "upper.txt").unlink()

        from iterflow.errors import CorruptEntryError

        def broken_get(self, signature):
            raise CorruptEntryError(signature, "flaky disk")

        monkeypatch.setattr(CacheStore, "get", broken_get)
        before = load_manifest(cache).entries
        report = run_iteration(path, ws, cache, RunConfig())
        # The warm plan loads upper and prunes raw.  Upper's load fails, so
        # the next plan loads raw; that fails too, and the last plan
        # computes both.  The store forgets both entries, so both recomputed
        # outputs reach the policy and are persisted again.
        assert report.succeeded, report.failed_nodes
        assert {n: r.state for n, r in report.nodes.items()} == {
            "raw": "compute", "upper": "compute"}
        assert all("recomputed" in r.detail for r in report.nodes.values())
        assert all(r.materialized for r in report.nodes.values())
        assert (ws / "out" / "upper.txt").read_bytes() == b"ABC\n"
        assert set(load_manifest(cache).entries) == set(before)

        monkeypatch.undo()
        (ws / "out" / "upper.txt").unlink()
        report = run_iteration(path, ws, cache, RunConfig())
        assert report.succeeded, report.failed_nodes
        assert {n: r.state for n, r in report.nodes.items()} == {
            "raw": "prune", "upper": "load"}
        assert (ws / "out" / "upper.txt").read_bytes() == b"ABC\n"


def test_losing_every_payload_costs_one_replan(env, monkeypatch):
    """With every payload of a warm cache deleted, the first failed load
    forgets all the broken entries, so the run plans twice in all.  The
    recomputed outputs are persisted again within the same budget, which
    the forgotten entries no longer hold."""
    ws, cache = env
    spec = sim_spec([sim_node("a"), sim_node("b", ("a",)), sim_node("c", ("b",)),
                     sim_node("d", ("a",)), sim_node("e", ("d",))], outputs=("c", "e"))
    path = deploy(spec, ws)
    config = sim_config(budget_bytes=5 * 1000)
    run_iteration(path, ws, cache, config)
    entries = load_manifest(cache).entries
    assert len(entries) == 5
    for entry in entries.values():
        (cache / entry.payload_path).unlink()

    plans = []
    plan = runner.assign_states_optimal

    def counting_plan(*args, **kwargs):
        plans.append(args)
        return plan(*args, **kwargs)

    monkeypatch.setattr(runner, "assign_states_optimal", counting_plan)
    report = run_iteration(path, ws, cache, config)
    assert report.succeeded, report.failed_nodes
    assert len(plans) == 2
    assert {n: r.state for n, r in report.nodes.items()} == dict.fromkeys("abcde", "compute")
    assert all(r.materialized for r in report.nodes.values())
    with CacheStore(cache, writable=False) as store:
        assert set(store.manifest.entries) == set(entries)
        assert all(store.intact(entry) for entry in store.entries())

    plans.clear()
    report = run_iteration(path, ws, cache, config)
    assert len(plans) == 1
    assert {n: r.state for n, r in report.nodes.items() if r.state != "prune"} == {
        "c": "load", "e": "load"}


def test_broken_payloads_replan_and_are_forgotten(tmp_path):
    """A cold run, then the payloads of a random subset of the entries the
    next run plans to load are deleted or truncated.  That run must still
    succeed with a legal plan and forget every broken entry; an entry comes
    back only when the run recomputes and persists it afresh.  So a third
    run carries out its plan with no failed load."""
    rng = random.Random(16)
    broke_any = 0
    for case in range(100):
        spec = random_spec(rng)
        ws, cache = tmp_path / f"ws{case}", tmp_path / f"cache{case}"
        ws.mkdir()
        path = deploy(spec, ws)
        run_iteration(path, ws, cache, sim_config())

        manifest = load_manifest(cache)
        ctx = prepare(path.read_text(), ws, manifest, sim_config())
        broken = {ctx.signatures[name] for name, state in ctx.plan.states.items()
                  if state is NodeState.LOAD and rng.random() < 0.5}
        for signature in broken:
            payload = cache / manifest.entries[signature].payload_path
            if rng.random() < 0.5:
                payload.unlink()
            else:
                payload.write_bytes(payload.read_bytes()[:-1])
        broke_any += bool(broken)

        report = run_iteration(path, ws, cache, sim_config())
        assert report.succeeded, (case, report.failed_nodes)
        survived = {name for name, signature in ctx.signatures.items()
                    if signature in manifest.entries and signature not in broken}
        states = {name: NodeState(rec.state) for name, rec in report.nodes.items()}
        assert check_plan_legality(ctx.spec.parent_map(), survived, ctx.mandatory,
                                   ctx.spec.outputs, states) == [], case
        with CacheStore(cache, writable=False) as store:
            assert all(store.intact(store.manifest.entries[signature])
                       for signature in broken & set(store.manifest.entries)), case

        third = prepare(path.read_text(), ws, load_manifest(cache), sim_config())
        report = run_iteration(path, ws, cache, sim_config())
        assert report.succeeded, case
        assert {name: rec.state for name, rec in report.nodes.items()} == {
            name: state.value for name, state in third.plan.states.items()}, case
    assert broke_any >= 30


def test_policy_decision_precedes_downstream_execution(tmp_path, monkeypatch):
    ws = tmp_path / "ws"
    ws.mkdir()
    cache = tmp_path / "cache"
    spec = chain_spec("a", "b", "c")
    write_sources(spec, ws)
    path = ws / "workflow.json"
    path.write_text(serialize_workflow(spec))

    events = []
    original_action = _Executor._run_action
    original_decide = EnginePolicy.decide

    def spy_action(self, node, rec):
        events.append(("run", node.name))
        return original_action(self, node, rec)

    def spy_decide(self, node, costs, dag, budget):
        events.append(("decide", node))
        return original_decide(self, node, costs, dag, budget)

    monkeypatch.setattr(_Executor, "_run_action", spy_action)
    monkeypatch.setattr(EnginePolicy, "decide", spy_decide)
    run_iteration(path, ws, cache, sim_config())

    computed = [name for kind, name in events if kind == "run"]
    assert computed == ["a", "b", "c"]
    for name in computed:
        ran = events.index(("run", name))
        decided = events.index(("decide", name))
        later_runs = [i for i, ev in enumerate(events) if ev[0] == "run" and i > ran]
        assert decided == ran + 1
        assert all(decided < i for i in later_runs)


class TestRecomputeChainsInRuns:
    def test_no_edit_warm_run_decides_nothing(self, env, monkeypatch):
        ws, cache = env
        path = deploy(chain_spec("a", "b", "c"), ws)
        decided = []
        original_decide = EnginePolicy.decide

        def spy_decide(self, node, costs, dag, budget):
            decided.append(node)
            return original_decide(self, node, costs, dag, budget)

        monkeypatch.setattr(EnginePolicy, "decide", spy_decide)
        run_iteration(path, ws, cache, sim_config())
        assert decided == ["a", "b", "c"]
        warm = run_iteration(path, ws, cache, sim_config())
        assert {rec.state for rec in warm.nodes.values()} == {"load", "prune"}
        assert decided == ["a", "b", "c"]

    def test_fallback_recompute_below_loaded_parents_keeps_exact_chains(
        self, env, monkeypatch
    ):
        # a -> b -> {c -> e, d}.  Editing d and e loads b and c; c's load
        # fails, so c is recomputed from the loaded b.  The decisions on d
        # and e then read chains through ancestors that were never computed;
        # their loads (10 s and 14 s) make the walk cover every ancestor.
        ws, cache = env
        seconds = {"a": 3.0, "b": 5.0, "c": 7.0, "d": 11.0, "e": 13.0}
        nbytes = {"a": 1000, "b": 1000, "c": 1000, "d": 10**9, "e": 14 * 10**8}
        parents = {"a": (), "b": ("a",), "c": ("b",), "d": ("b",), "e": ("c",)}
        nodes = [sim_node(n, parents=parents[n], compute_seconds=seconds[n],
                          output_bytes=nbytes[n]) for n in parents]
        spec = sim_spec(nodes, outputs=("d", "e"))
        path = deploy(spec, ws)
        run_iteration(path, ws, cache, sim_config())
        for name in ("d", "e"):
            spec = spec.replace_node(
                dataclasses.replace(spec.node(name), env_fingerprint="v2"))
        path.write_text(serialize_workflow(spec))

        from iterflow.errors import CorruptEntryError

        original_get = CacheStore.get

        def broken_get(self, signature):
            if self.manifest.entries[signature].node_name == "c":
                raise CorruptEntryError(signature, "flaky disk")
            return original_get(self, signature)

        decided = {}
        original_decide = EnginePolicy.decide

        def spy_decide(self, node, costs, dag, budget):
            decision = original_decide(self, node, costs, dag, budget)
            decided[node] = (decision.r_value, dict(costs))
            return decision

        monkeypatch.setattr(CacheStore, "get", broken_get)
        monkeypatch.setattr(EnginePolicy, "decide", spy_decide)
        report = run_iteration(path, ws, cache, sim_config())

        assert report.succeeded, report.failed_nodes
        states = {name: rec.state for name, rec in report.nodes.items()}
        assert states == {"a": "prune", "b": "load", "c": "compute",
                          "d": "compute", "e": "compute"}
        assert "recomputed" in report.nodes["c"].detail
        # c's entry was forgotten when its load failed, so c is decided too.
        assert set(decided) == {"c", "d", "e"}
        for node, (r, costs) in decided.items():
            oracle = recompute_chain_micros(node, costs, parents)
            check_r_value(r, oracle - 2 * _micros(costs[node].load_seconds))
        assert (decided["d"][0], decided["e"][0]) == (-1.0, 0.0)


class TestDeclaredCosts:
    def test_raised_output_size_reaches_plan_policy_and_report(self, env):
        # a computes in 15 s: its 10 s load at 1 GB beats recomputing it,
        # but is not worth a write under `engine` (15 s < 2 * 10 s).
        ws, cache = env
        spec = sim_spec([sim_node("a", compute_seconds=15.0, output_bytes=1000)],
                        outputs=("a",))
        path = deploy(spec, ws)
        run_iteration(path, ws, cache, sim_config())
        warm = run_iteration(path, ws, cache, sim_config())
        assert warm.nodes["a"].state == "load"
        assert warm.load_seconds == 1000 / runner.DISK_BANDWIDTH

        big = dataclasses.replace(spec.node("a").action, output_bytes=10**9)
        spec = spec.replace_node(dataclasses.replace(spec.node("a"), action=big))
        path.write_text(serialize_workflow(spec))
        ctx = prepare(path.read_text(), ws, load_manifest(cache), sim_config())
        assert ctx.costs["a"].load_seconds == 10**9 / runner.DISK_BANDWIDTH

        recompute = run_iteration(path, ws, cache, sim_config())
        assert recompute.nodes["a"].state == "compute"
        assert not recompute.nodes["a"].materialized
        forced = run_iteration(path, ws, cache, sim_config(policy_name="materialize-all"))
        assert forced.nodes["a"].materialized
        report = run_iteration(path, ws, cache, sim_config())
        assert report.nodes["a"].state == "load"
        assert report.load_seconds == 10**9 / runner.DISK_BANDWIDTH

    def test_simulated_runs_keep_no_cost_history(self, env):
        ws, cache = env
        spec = chain_spec("a", "b", "c")
        path = deploy(spec, ws)
        run_iteration(path, ws, cache, sim_config())
        edited = spec.replace_node(dataclasses.replace(spec.node("c"), env_fingerprint="v2"))
        path.write_text(serialize_workflow(edited))
        report = run_iteration(path, ws, cache, sim_config())
        assert report.nodes["b"].state == "load"
        assert load_manifest(cache).cost_history == {}
