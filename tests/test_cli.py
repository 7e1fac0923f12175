import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iterflow
from iterflow import cli
from iterflow.cli import main
from iterflow.runner import RunConfig, CLOCK_SIMULATED, run_iteration
from iterflow.workflow import serialize_workflow

from conftest import chain_spec, tree_hash, write_sources


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

    def test_dry_run_touches_nothing(self, env, capsys):
        ws, cache = env
        path = deploy(chain_spec("a", "b"), ws)
        code, out, _ = run_cli(
            capsys, "run", *common(path, ws, cache), "--clock", "simulated", "--dry-run"
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
        assert out.splitlines() == ["signature\tnode\tbytes\tcompute_s\tload_s"]

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
    def test_simulate_writes_identical_table_to_stdout_and_file(self, env, capsys):
        ws, cache = env
        out_file = ws / "curve.tsv"
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "classification", "-n", "3",
            "--seed", "7", "--policies", "engine,materialize-none",
            "--out", str(out_file),
        )
        assert code == 0
        assert out_file.read_text() == out
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
