import json
from pathlib import Path

import pytest

from iterflow import runner
from iterflow.errors import CacheLockedError, InvalidConfigError
from iterflow.planner import ExecutionPlan, NodeState
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
from iterflow.store import CacheStore, load_manifest
from iterflow.workflow import parse_workflow, serialize_workflow

from conftest import chain_spec, sim_node, sim_spec, write_sources


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
        import dataclasses

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

        def broken_get(self, signature, observed_seconds=None):
            raise CorruptEntryError(signature, "flaky disk")

        monkeypatch.setattr(CacheStore, "get", broken_get)
        report = run_iteration(path, ws, cache, RunConfig())
        assert report.succeeded
        assert "recomputed" in report.nodes["raw"].detail
        assert report.nodes["raw"].state == "compute"
        assert (ws / "out" / "upper.txt").read_bytes() == b"ABC\n"

    def test_load_failure_with_unavailable_parents_aborts_the_chain(
        self, env, monkeypatch
    ):
        ws, cache = env
        (ws / "data").mkdir()
        (ws / "data" / "in.txt").write_text("abc\n")
        path = ws / "workflow.json"
        path.write_text(command_spec_text())
        run_iteration(path, ws, cache, RunConfig())

        from iterflow.errors import CorruptEntryError

        def broken_get(self, signature, observed_seconds=None):
            raise CorruptEntryError(signature, "flaky disk")

        monkeypatch.setattr(CacheStore, "get", broken_get)
        report = run_iteration(path, ws, cache, RunConfig())
        # warm plan prunes raw; with the load broken there is no way out
        assert not report.succeeded
        assert not report.nodes["upper"].ok
        assert "load failed" in report.nodes["upper"].detail


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
