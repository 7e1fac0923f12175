import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iterflow
from iterflow import cli
from iterflow.cli import main
from iterflow.runner import DISK_BANDWIDTH, RunConfig, CLOCK_SIMULATED, run_iteration
from iterflow.store import load_manifest
from iterflow.workflow import serialize_workflow

from conftest import chain_spec, tree_hash, write_sources


GOOD_ENTRY = {"node_name": "a", "payload_path": "objects/aa/aa.bin", "output_bytes": 1,
              "measured_compute_seconds": 1.0, "charged_bytes": 1}


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


def common(spec_path, ws, cache, *extra):
    return [
        "--spec", str(spec_path), "--workspace", str(ws), "--cache", str(cache),
        *extra,
    ]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_successful_run_exits_zero(self, env, capsys):
        ws, cache = env
        path = deploy(chain_spec("a", "b"), ws)
        code, out, _ = run_cli(
            capsys, "run", *common(path, ws, cache), "--clock", "simulated"
        )
        assert code == 0
        assert "total_seconds" in out

    def test_cycle_exits_two_and_names_the_cycle(self, env, capsys):
        ws, cache = env
        text = json.dumps({
            "version": 1,
            "nodes": [
                {"name": "a", "kind": "ml",
                 "action": {"type": "simulated", "compute_seconds": 1.0, "output_bytes": 1},
                 "parents": ["b"], "sources": []},
                {"name": "b", "kind": "ml",
                 "action": {"type": "simulated", "compute_seconds": 1.0, "output_bytes": 1},
                 "parents": ["a"], "sources": []},
            ],
            "outputs": ["a"],
        })
        path = ws / "workflow.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "run", *common(path, ws, cache))
        assert code == 2
        assert "a" in err and "b" in err

    def test_failing_operator_exits_one_and_reports_skips(self, env, capsys):
        ws, cache = env
        (ws / "data").mkdir()
        (ws / "data" / "in.txt").write_text("x")
        text = json.dumps({
            "version": 1,
            "nodes": [
                {"name": "boom", "kind": "ml",
                 "action": {"type": "command", "argv": ["sh", "-c", "exit 9"],
                            "output": "out/a.txt"},
                 "parents": [], "sources": ["data/in.txt"]},
                {"name": "after", "kind": "ml",
                 "action": {"type": "command", "argv": ["sh", "-c", "cat {parent:boom} > {output}"],
                            "output": "out/b.txt"},
                 "parents": ["boom"], "sources": []},
            ],
            "outputs": ["after"],
        })
        path = ws / "workflow.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "run", *common(path, ws, cache))
        assert code == 1
        assert "boom" in err
        assert "skipped" in out

    @pytest.mark.parametrize("argv, detail", [
        (["iterflow-test-no-such-program"], "failed to start: "),
        (["true"], "declared output 'out/a.txt' was not produced"),
    ], ids=["missing-program", "no-output"])
    def test_operator_without_output_fails_only_its_descendants(self, env, capsys,
                                                                 argv, detail):
        ws, cache = env
        (ws / "data").mkdir()
        (ws / "data" / "in.txt").write_text("x")
        text = json.dumps({
            "version": 1,
            "nodes": [
                {"name": "boom", "kind": "ml",
                 "action": {"type": "command", "argv": argv, "output": "out/a.txt"},
                 "parents": [], "sources": ["data/in.txt"]},
                {"name": "after", "kind": "ml",
                 "action": {"type": "command", "argv": ["sh", "-c", "cat {parent:boom} > {output}"],
                            "output": "out/b.txt"},
                 "parents": ["boom"], "sources": []},
                {"name": "solo", "kind": "ml",
                 "action": {"type": "command", "argv": ["sh", "-c", "echo ok > {output}"],
                            "output": "out/c.txt"},
                 "parents": [], "sources": ["data/in.txt"]},
            ],
            "outputs": ["after", "solo"],
        })
        path = ws / "workflow.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "run", *common(path, ws, cache), "--json")
        assert code == 1
        nodes = json.loads(out)["nodes"]
        assert not nodes["boom"]["ok"] and nodes["boom"]["detail"].startswith(detail)
        assert nodes["after"]["detail"] == "skipped: upstream failure of boom"
        assert nodes["solo"]["ok"]
        assert (ws / "out" / "c.txt").read_text() == "ok\n"
        assert f"error: boom: {detail}" in err

    def test_negative_budget_exits_two(self, env, capsys):
        ws, cache = env
        path = deploy(chain_spec("a", "b"), ws)
        for argv in (["run", *common(path, ws, cache), "--budget-bytes", "-1"],
                     ["simulate", "--scenario", "ie", "--budget-bytes", "-5"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert "--budget-bytes: must be a nonnegative number of bytes" in err
        assert not cache.exists()

    def test_plan_touches_nothing(self, env, capsys):
        ws, cache = env
        path = deploy(chain_spec("a", "b"), ws)
        code, out, _ = run_cli(
            capsys, "plan", *common(path, ws, cache), "--clock", "simulated"
        )
        assert code == 0
        assert "total_cost_seconds" in out
        assert not cache.exists()

    def test_relative_paths_resolve_against_the_caller_cwd(self, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ws" / "data").mkdir(parents=True)
        (tmp_path / "ws" / "data" / "in.txt").write_text("hello\n")
        (tmp_path / "ws" / "workflow.json").write_text(json.dumps({
            "version": 1,
            "nodes": [
                {"name": "raw", "kind": "ml",
                 "action": {"type": "command", "argv": ["sh", "-c", "cat data/in.txt > {output}"],
                            "output": "out/raw.txt"},
                 "parents": [], "sources": ["data/in.txt"]},
                # a simulated operator's stand-in output lives in the cache
                {"name": "stub", "kind": "ml",
                 "action": {"type": "simulated", "compute_seconds": 1.0, "output_bytes": 1},
                 "parents": [], "sources": ["data/in.txt"]},
                {"name": "upper", "kind": "ml",
                 "action": {"type": "command",
                            "argv": ["sh", "-c",
                                     "cat {parent:raw} {parent:stub} | tr a-z A-Z > {output}"],
                            "output": "out/upper.txt"},
                 "parents": ["raw", "stub"], "sources": []},
            ],
            "outputs": ["upper"],
        }))
        argv = ["run", "--spec", "ws/workflow.json", "--workspace", "ws", "--cache", "cache"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        upper = tmp_path / "ws" / "out" / "upper.txt"
        cold = upper.read_bytes()
        assert cold.startswith(b"HELLO\nSIMULATED:STUB:")

        upper.unlink()
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert "upper\tload" in out
        assert upper.read_bytes() == cold


    def test_simulated_operator_keeps_its_declared_load_on_the_real_clock(
            self, env, capsys):
        ws, cache = env
        (ws / "data").mkdir()
        (ws / "data" / "in.txt").write_text("hello\n")
        path = ws / "workflow.json"
        path.write_text(json.dumps({
            "version": 1,
            "nodes": [
                {"name": "raw", "kind": "ml",
                 "action": {"type": "command", "argv": ["sh", "-c", "cat data/in.txt > {output}"],
                            "output": "out/raw.txt"},
                 "parents": [], "sources": ["data/in.txt"]},
                {"name": "stub", "kind": "ml",
                 "action": {"type": "simulated", "compute_seconds": 1.0, "output_bytes": 1000},
                 "parents": [], "sources": ["data/in.txt"]},
                {"name": "upper", "kind": "ml",
                 "action": {"type": "command",
                            "argv": ["sh", "-c",
                                     "cat {parent:raw} {parent:stub} | tr a-z A-Z > {output}"],
                            "output": "out/upper.txt"},
                 "parents": ["raw", "stub"], "sources": []},
            ],
            "outputs": ["upper", "stub"],
        }))
        for _ in range(2):
            code, out, err = run_cli(capsys, "run", *common(path, ws, cache, "--json"))
            assert code == 0, err
        warm = json.loads(out)["nodes"]
        assert warm["stub"]["state"] == warm["upper"]["state"] == "load"

        code, out, err = run_cli(capsys, "plan", *common(path, ws, cache, "--json"))
        assert code == 0, err
        assert json.loads(out)["costs"]["stub"]["load_seconds"] == 1000 / DISK_BANDWIDTH
        history = load_manifest(cache).cost_history
        assert set(history) == {"raw", "upper"}
        upper = ws / "out" / "upper.txt"
        assert history["upper"].output_bytes == upper.stat().st_size
        assert history["upper"].load_seconds == warm["upper"]["wall_seconds"]
        assert history["raw"].output_bytes == len("hello\n")
        assert history["raw"].load_seconds is None


def test_two_commands_declaring_one_output_exit_two(env, capsys):
    ws, cache = env
    (ws / "data").mkdir()
    (ws / "data" / "a.txt").write_text("ALPHA\n")
    (ws / "data" / "b.txt").write_text("BETA\n")

    def copy(name, source):
        return {"name": name, "kind": "ml",
                "action": {"type": "command", "argv": ["sh", "-c", f"cat {source} > {{output}}"],
                           "output": "out/x.txt"},
                "parents": [], "sources": [source]}

    path = ws / "workflow.json"
    path.write_text(json.dumps({"version": 1, "nodes": [
        copy("a", "data/a.txt"), copy("b", "data/b.txt"),
        {"name": "c", "kind": "ml",
         "action": {"type": "command", "argv": ["sh", "-c", "cat {parent:a} > {output}"],
                    "output": "out/c.txt"},
         "parents": ["a"], "sources": []},
    ], "outputs": ["b", "c"]}))
    code, out, err = run_cli(capsys, "run", *common(path, ws, cache))
    assert code == 2
    assert err == "error: operators 'a' and 'b' both declare output 'out/x.txt'\n"
    assert not (ws / "out").exists()


def _simulated_text(*nodes) -> str:
    """A chain of simulated nodes, each given as (compute_seconds, output_bytes)
    JSON number texts."""
    docs = [
        f'{{"name": "n{i}", "kind": "ml", "parents": {json.dumps([f"n{i - 1}"] if i else [])}, '
        f'"sources": {json.dumps([] if i else ["in.txt"])}, "action": {{"type": "simulated", '
        f'"compute_seconds": {seconds}, "output_bytes": {nbytes}}}}}'
        for i, (seconds, nbytes) in enumerate(nodes)
    ]
    return f'{{"version": 1, "nodes": [{", ".join(docs)}], "outputs": ["n{len(nodes) - 1}"]}}'


class TestDeclaredNumbers:
    @pytest.mark.parametrize("seconds, nbytes, field", [
        ("1e305", "10", "compute_seconds"),
        ("1.0", "1" + "0" * 400, "output_bytes"),
    ], ids=["seconds", "bytes"])
    def test_spec_number_past_the_bound_exits_two(self, env, capsys, seconds, nbytes, field):
        ws, cache = env
        (ws / "in.txt").write_text("x")
        (ws / "workflow.json").write_text(_simulated_text((seconds, nbytes)))
        code, out, err = run_cli(capsys, "plan", *common(ws / "workflow.json", ws, cache),
                                 "--clock", "simulated")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: nodes[0].action.{field}: expected ")

    @pytest.mark.parametrize("row, field", [
        ({"compute_seconds": 1e305}, "compute_seconds"),
        ({"compute_seconds": 1.0, "output_bytes": 10**400}, "output_bytes"),
    ], ids=["seconds", "bytes"])
    def test_history_number_past_the_bound_exits_two(self, env, capsys, row, field):
        ws, cache = env
        (ws / "workflow.json").write_text(json.dumps({
            "version": 1,
            "nodes": [{"name": "a", "kind": "ml",
                       "action": {"type": "command", "argv": ["true"], "output": "a.txt"},
                       "parents": [], "sources": ["in.txt"]}],
            "outputs": ["a"],
        }))
        (ws / "in.txt").write_text("x")
        cache.mkdir()
        (cache / "manifest.json").write_text(json.dumps({
            "format_version": 1, "cost_history": {"a": row}}))
        code, out, err = run_cli(capsys, "plan", *common(ws / "workflow.json", ws, cache))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {cache / 'manifest.json'}: cost_history.a.{field} ")

    def test_largest_accepted_numbers_plan_and_run(self, env, capsys):
        ws, cache = env
        (ws / "in.txt").write_text("x")
        largest = ("9e9", str(2**53))
        (ws / "workflow.json").write_text(_simulated_text(largest, largest))
        argv = [*common(ws / "workflow.json", ws, cache), "--clock", "simulated"]
        code, out, _ = run_cli(capsys, "plan", *argv)
        assert code == 0
        assert "total_cost_seconds\t18000000000.000000" in out
        for _ in range(2):  # the second run reads the first one's cumulative time
            assert run_cli(capsys, "run", *argv)[0] == 0


@pytest.mark.parametrize("line", [
    '{"iteration_index": "x", "totals": {"cumulative_seconds": 1}}',
    '{"a":1}',
    "garbage",
], ids=["index-not-an-integer", "no-index", "not-json"])
def test_damaged_run_log_record_exits_two_and_names_the_file(env, capsys, line):
    ws, cache = env
    path = deploy(chain_spec("a", "b"), ws)
    argv = ["run", *common(path, ws, cache), "--clock", "simulated"]
    assert run_cli(capsys, *argv)[0] == 0
    with open(cache / "runs.log", "a") as fh:
        fh.write(line + "\n")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {cache / 'runs.log'}: the last record is not a run report")


def test_import_does_not_load_numpy():
    # numpy serves only the brute-force oracle; every CLI command would pay
    # for importing it otherwise.
    env = {**os.environ, "PYTHONPATH": str(Path(iterflow.__file__).resolve().parents[1])}
    probe = "import sys, iterflow.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


class TestPlan:
    def test_cold_plan_computes_ancestor_closure(self, env, capsys):
        ws, cache = env
        path = deploy(chain_spec("a", "b", "c"), ws)
        code, out, _ = run_cli(
            capsys, "plan", *common(path, ws, cache), "--clock", "simulated"
        )
        assert code == 0
        for name in ("a", "b", "c"):
            assert f"{name}\tcompute" in out

    def test_warm_plan_loads_sink_and_prunes_the_rest(self, env, capsys):
        ws, cache = env
        path = deploy(chain_spec("a", "b", "c"), ws)
        run_iteration(path, ws, cache, RunConfig(clock_mode=CLOCK_SIMULATED))
        code, out, _ = run_cli(
            capsys, "plan", *common(path, ws, cache), "--clock", "simulated"
        )
        assert code == 0
        assert "c\tload" in out
        assert "a\tprune" in out and "b\tprune" in out

    def test_json_plan_is_deterministic_and_read_only(self, env, capsys):
        ws, cache = env
        path = deploy(chain_spec("a", "b", "c"), ws)
        run_iteration(path, ws, cache, RunConfig(clock_mode=CLOCK_SIMULATED))
        before = tree_hash(cache)
        first = run_cli(capsys, "plan", *common(path, ws, cache),
                        "--clock", "simulated", "--json")
        second = run_cli(capsys, "plan", *common(path, ws, cache),
                         "--clock", "simulated", "--json")
        assert first == second
        assert first[0] == 0
        json.loads(first[1])  # valid JSON document
        assert tree_hash(cache) == before


class TestDiff:
    def test_first_run_lists_everything_as_added(self, env, capsys):
        ws, cache = env
        path = deploy(chain_spec("a", "b"), ws)
        code, out, _ = run_cli(capsys, "diff", *common(path, ws, cache))
        assert code == 0
        assert "added\ta" in out and "added\tb" in out

    def test_identical_rerun_reports_no_changes(self, env, capsys):
        ws, cache = env
        path = deploy(chain_spec("a", "b"), ws)
        run_iteration(path, ws, cache, RunConfig(clock_mode=CLOCK_SIMULATED))
        code, out, _ = run_cli(capsys, "diff", *common(path, ws, cache))
        assert code == 0
        assert out.strip() == "no changes"

    def test_edit_lists_node_and_descendants(self, env, capsys):
        ws, cache = env
        path = deploy(chain_spec("a", "b", "c"), ws)
        run_iteration(path, ws, cache, RunConfig(clock_mode=CLOCK_SIMULATED))
        (ws / "src" / "a.txt").write_text("v2")
        code, out, _ = run_cli(capsys, "diff", *common(path, ws, cache), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["changed"] == ["a", "b", "c"]


class TestCache:
    def test_ls_on_empty_cache(self, env, capsys):
        ws, cache = env
        code, out, _ = run_cli(capsys, "cache", "ls", "--cache", str(cache))
        assert code == 0
        assert out.splitlines() == ["signature\tnode\tbytes\tcompute_s"]

    def test_gc_keep_latest(self, env, capsys):
        ws, cache = env
        import dataclasses

        spec = chain_spec("a", "b")
        path = deploy(spec, ws)
        config = RunConfig(clock_mode=CLOCK_SIMULATED)
        run_iteration(path, ws, cache, config)
        edited = spec.replace_node(
            dataclasses.replace(spec.node("a"), env_fingerprint="v2")
        )
        path.write_text(serialize_workflow(edited))
        run_iteration(path, ws, cache, config)

        from iterflow.store import load_manifest

        assert len(load_manifest(cache).entries) == 4
        code, out, _ = run_cli(
            capsys, "cache", "gc", "--cache", str(cache), "--keep-latest"
        )
        assert code == 0
        remaining = load_manifest(cache)
        assert set(remaining.entries) == set(remaining.previous_signatures.values())

    def test_gc_reports_entries_dropped_as_broken(self, env, capsys):
        ws, cache = env
        from iterflow.store import CacheStore

        with CacheStore(cache) as store:
            broken = store.put("a", "aa" * 32, b"12345678", 1.0)
            store.put("b", "bb" * 32, b"abcdefgh", 1.0)
        (cache / broken.payload_path).write_bytes(b"123")
        code, out, _ = run_cli(capsys, "cache", "gc", "--cache", str(cache))
        assert code == 0
        assert out.splitlines() == [f"removed\t{'aa' * 6}", "entries_remaining\t1"]

    @pytest.mark.parametrize("doc, why", [
        ([], "not a JSON object"),
        ({"entries": []}, "entries is not an object of objects"),
        ({"entries": {"aa": 3}}, "entries is not an object of objects"),
        ({"cost_history": "a"}, "cost_history is not an object of objects"),
        ({"cost_history": {"a": [1.0]}}, "cost_history is not an object of objects"),
        ({"entries": {"aa": {**GOOD_ENTRY, "colour": "red"}}}, "colour"),
        ({"entries": {"../../x": GOOD_ENTRY}}, "signature is not 64 lowercase hex digits"),
        ({"cost_history": {"a": {"compute_seconds": 1.0, "colour": "red"}}}, "colour"),
        ({"cost_history": {"a": {"load_seconds": 1.0}}}, "compute_seconds"),
        ({"previous_signatures": "x"}, "previous_signatures is not an object of strings"),
        ({"entries": {"aa": {**GOOD_ENTRY, "measured_compute_seconds": "x"}}},
         "entries.aa.measured_compute_seconds is not a finite number >= 0"),
        ('{"format_version": 1, "entries": {"aa": {"node_', "not valid JSON"),
        ({"entries": {"aa": {**GOOD_ENTRY, "node_name": 3}}},
         "entries.aa.node_name is not a string"),
        ({"entries": {"aa": {**GOOD_ENTRY, "output_bytes": -1}}},
         "entries.aa.output_bytes is not an integer >= 0"),
        ({"entries": {"aa": {**GOOD_ENTRY, "charged_bytes": True}}},
         "entries.aa.charged_bytes is not an integer >= 0"),
        ({"cost_history": {"a": {"compute_seconds": 1.0, "load_seconds": "x"}}},
         "cost_history.a.load_seconds is neither null nor a finite number >= 0"),
        ({"cost_history": {"a": {"compute_seconds": 1.0, "output_bytes": 1.5}}},
         "cost_history.a.output_bytes is not an integer >= 0"),
    ])
    def test_malformed_manifest_exits_two_and_names_the_file(self, env, capsys, doc, why):
        ws, cache = env
        cache.mkdir()
        if isinstance(doc, dict):
            doc = {"format_version": 1, **doc}
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (cache / "manifest.json").write_text(text)
        code, out, err = run_cli(capsys, "cache", "ls", "--cache", str(cache))
        assert code == 2
        assert err.startswith(f"error: {cache / 'manifest.json'}: ")
        assert why in err

    def test_mistyped_cost_history_fails_plan_with_exit_two(self, env, capsys):
        ws, cache = env
        (ws / "workflow.json").write_text(json.dumps({
            "version": 1,
            "nodes": [{"name": "a", "kind": "ml",
                       "action": {"type": "command", "argv": ["true"], "output": "a.txt"},
                       "parents": [], "sources": ["in.txt"]}],
            "outputs": ["a"],
        }))
        (ws / "in.txt").write_text("x")
        cache.mkdir()
        (cache / "manifest.json").write_text(json.dumps({
            "format_version": 1, "cost_history": {"a": {"compute_seconds": "slow"}},
        }))
        code, out, err = run_cli(capsys, "plan", *common(ws / "workflow.json", ws, cache))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {cache / 'manifest.json'}: cost_history.a.compute_seconds")

    def test_gc_on_locked_cache_exits_three(self, env, capsys):
        ws, cache = env
        from iterflow.store import CacheStore

        with CacheStore(cache):
            code, _, err = run_cli(capsys, "cache", "gc", "--cache", str(cache))
        assert code == 3
        assert "locked" in err

    def test_ls_is_read_only(self, env, capsys):
        ws, cache = env
        path = deploy(chain_spec("a", "b"), ws)
        run_iteration(path, ws, cache, RunConfig(clock_mode=CLOCK_SIMULATED))
        before = tree_hash(cache)
        run_cli(capsys, "cache", "ls", "--cache", str(cache))
        assert tree_hash(cache) == before

    def test_environment_variable_overrides_cache_root(self, env, capsys, monkeypatch):
        ws, cache = env
        path = deploy(chain_spec("a", "b"), ws)
        run_iteration(path, ws, cache, RunConfig(clock_mode=CLOCK_SIMULATED))
        monkeypatch.setenv("ITERFLOW_CACHE", str(cache))
        code, out, _ = run_cli(capsys, "cache", "ls")
        assert code == 0
        assert len(out.splitlines()) > 1  # found the populated cache via the env var


class TestSimulateCommand:
    def test_simulate_writes_the_table_to_stdout(self, env, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "classification", "-n", "3",
            "--seed", "7", "--policies", "engine,materialize-none",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 3 * 2

    def test_unknown_policy_fails_before_any_simulation(self, env, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "simulate", lambda *args, **kwargs: calls.append(args))
        code, _, err = run_cli(capsys, "simulate", "--scenario", "classification",
                               "-n", "2", "--policies", "engine,bogus")
        assert code == 2
        assert calls == []
        assert "engine, materialize-all, materialize-none, paper-literal" in err

    def test_unknown_scenario_exits_two(self, env, capsys):
        code, _, err = run_cli(capsys, "simulate", "--scenario", "nope")
        assert code == 2
