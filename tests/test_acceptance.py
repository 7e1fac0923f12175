"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` or ``-v``
to see them).  Every tolerance is fixed here; nothing is calibrated at run
time.  Directional comparisons replay frozen golden traces on the bundled
scenarios under a simulated clock, so every number asserted below is exactly
reproducible.
"""

import dataclasses
import os
import random
import time

import pytest

from iterflow.changes import compute_signatures, diff_iterations
from iterflow.cli import main
from iterflow.planner import (
    assign_states_bruteforce,
    assign_states_optimal,
    check_plan_legality,
)
from iterflow.runner import CLOCK_SIMULATED, RunConfig, prepare, run_iteration
from iterflow.scenarios import load_scenario, scenario_text
from iterflow.simulator import (
    apply_step,
    generate_trace,
    simulate,
    write_source_stubs,
)
from iterflow.store import CacheStore, load_manifest
from iterflow.workflow import descendants, serialize_workflow

from conftest import random_planning_instance, random_spec, write_sources

GOLDEN_FREQUENCIES = (0.4, 0.4, 0.2)
GOLDEN_SEED = 7
GOLDEN_ITERATIONS = 10

# Uniform-frequency trace used for the per-kind ordering criterion; seed 1
# covers all three kinds on both bundled scenarios.
ORDERING_FREQUENCIES = (0.34, 0.33, 0.33)
ORDERING_SEED = 1


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} - {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


@pytest.fixture(scope="module")
def golden_runs():
    """Cumulative runtimes for every policy on both scenarios' golden traces."""
    results = {}
    for name in ("ie", "classification"):
        spec = load_scenario(name)
        trace = generate_trace(spec, GOLDEN_FREQUENCIES, GOLDEN_ITERATIONS, GOLDEN_SEED)
        results[name] = {
            "engine": simulate(spec, trace, "engine"),
            "materialize-all": simulate(spec, trace, "materialize-all"),
            "materialize-none": simulate(spec, trace, "materialize-none"),
            "paper-literal": simulate(spec, trace, "paper-literal"),
        }
    return results


def test_criterion_1_planner_matches_exhaustive_oracle():
    rng = random.Random(314159)
    started = time.monotonic()
    checked = 0
    for _ in range(500):
        dag, costs, mandatory, sinks = random_planning_instance(rng, max_nodes=12)
        fast = assign_states_optimal(dag, costs, mandatory, sinks)
        oracle = assign_states_bruteforce(dag, costs, mandatory, sinks)
        assert fast.total_cost_micros == oracle.total_cost_micros, (
            dag, costs, mandatory, sinks,
        )
        assert fast.states == oracle.states
        checked += 1
    elapsed = time.monotonic() - started
    report(1, "optimal plan cost equals exhaustive oracle on 500 random DAGs",
           checked == 500, f"{elapsed:.1f}s")


def test_criterion_2_every_emitted_plan_is_legal(tmp_path):
    violations = []
    rng = random.Random(271828)
    for _ in range(500):
        dag, costs, mandatory, sinks = random_planning_instance(rng, max_nodes=12)
        plan = assign_states_optimal(dag, costs, mandatory, sinks)
        violations += check_plan_legality(dag, costs, mandatory, sinks, plan.states)

    # plans produced across a realistic multi-iteration scenario run
    spec = load_scenario("classification")
    trace = generate_trace(spec, GOLDEN_FREQUENCIES, GOLDEN_ITERATIONS, GOLDEN_SEED)
    ws = tmp_path / "ws"
    ws.mkdir()
    write_source_stubs(spec, ws)
    cache = tmp_path / "cache"
    config = RunConfig(clock_mode=CLOCK_SIMULATED)
    current = spec
    spec_path = ws / "workflow.json"
    for step in trace.steps:
        current = apply_step(current, step)
        spec_path.write_text(serialize_workflow(current))
        ctx = prepare(spec_path.read_text(), ws, load_manifest(cache), config)
        violations += check_plan_legality(
            ctx.spec.parent_map(), ctx.plan_costs, ctx.mandatory,
            set(ctx.spec.outputs), ctx.plan.states,
        )
        run_iteration(spec_path, ws, cache, config)
    report(2, "zero legality violations across all emitted plans",
           violations == [], f"{len(violations)} violations")


def test_criterion_3_change_detection_closure(tmp_path):
    rng = random.Random(161803)
    exact = 0
    trials = 200
    for trial in range(trials):
        spec = random_spec(rng, max_nodes=10)
        ws = tmp_path / f"t{trial}"
        write_sources(spec, ws)
        previous = compute_signatures(spec, ws)
        names = list(spec.names())
        edited = names[rng.randrange(len(names))]
        if spec.node(edited).sources and rng.random() < 0.5:
            source = ws / spec.node(edited).sources[0]
            source.write_bytes(source.read_bytes() + b"!")
            current_spec = spec
        else:
            current_spec = spec.replace_node(
                dataclasses.replace(spec.node(edited), env_fingerprint=f"e{trial}")
            )
        current = compute_signatures(current_spec, ws)
        changes = diff_iterations(previous, current)
        if changes.changed == {edited} | descendants(spec, edited):
            exact += 1
    report(3, "changed set equals edited node plus descendants on 200 random edits",
           exact == trials, f"{exact}/{trials} exact")


def test_criterion_4_warm_idempotent_rerun(tmp_path):
    ws = tmp_path / "ws"
    ws.mkdir()
    cache = tmp_path / "cache"
    spec = load_scenario("classification")
    write_source_stubs(spec, ws)
    spec_path = ws / "workflow.json"
    spec_path.write_text(scenario_text("classification"))
    config = RunConfig(clock_mode=CLOCK_SIMULATED)
    run_iteration(spec_path, ws, cache, config)
    second = run_iteration(spec_path, ws, cache, config)
    ctx = prepare(spec_path.read_text(), ws, load_manifest(cache), config)
    sink_loads = sum(ctx.plan_costs[s].load_seconds for s in ctx.spec.outputs)
    ok = second.compute_seconds == 0 and second.plan_cost_seconds <= sink_loads
    report(4, "unchanged rerun recomputes nothing and costs at most the sink loads",
           ok, f"compute={second.compute_seconds}, plan={second.plan_cost_seconds}")


def test_criterion_5_selective_beats_materialize_all():
    # timed end to end: this criterion carries its own runtime bound
    started = time.monotonic()
    spec = load_scenario("ie")
    trace = generate_trace(spec, GOLDEN_FREQUENCIES, GOLDEN_ITERATIONS, GOLDEN_SEED)
    engine = simulate(spec, trace, "engine").cumulative_seconds
    everything = simulate(spec, trace, "materialize-all").cumulative_seconds
    elapsed = time.monotonic() - started
    ratio = engine / everything
    report(5, "ie scenario: engine cumulative <= 0.6 x materialize-all",
           ratio <= 0.6 and elapsed < 10.0, f"ratio={ratio:.4f}, {elapsed:.1f}s")


def test_criterion_6_selective_beats_materialize_none(golden_runs):
    engine = golden_runs["classification"]["engine"].cumulative_seconds
    nothing = golden_runs["classification"]["materialize-none"].cumulative_seconds
    ratio = engine / nothing
    report(6, "classification scenario: engine cumulative <= 0.5 x materialize-none",
           ratio <= 0.5, f"ratio={ratio:.4f}")


def test_criterion_7_iteration_kind_ordering():
    ok = True
    details = []
    for name in ("ie", "classification"):
        spec = load_scenario(name)
        trace = generate_trace(spec, ORDERING_FREQUENCIES, GOLDEN_ITERATIONS,
                               ORDERING_SEED)
        kinds = {step.kind for step in trace.steps}
        assert kinds == {"data-preprocessing", "ml", "evaluation"}
        means = simulate(spec, trace, "engine").mean_cost_by_kind()
        ordered = (means["data-preprocessing"] >= means["ml"] >= means["evaluation"])
        ok = ok and ordered
        details.append(
            f"{name}: pre={means['data-preprocessing']:.1f}"
            f" ml={means['ml']:.1f} eval={means['evaluation']:.1f}"
        )
    report(7, "mean iteration cost orders pre-processing >= ml >= evaluation",
           ok, "; ".join(details))


def test_criterion_8_policy_direction_sanity(golden_runs):
    ok = True
    details = []
    for name in ("ie", "classification"):
        savings = golden_runs[name]["engine"].cumulative_seconds
        literal = golden_runs[name]["paper-literal"].cumulative_seconds
        ok = ok and savings <= literal
        details.append(f"{name}: {savings:.1f} vs {literal:.1f}")
    report(8, "savings-positive direction never loses to the published sign",
           ok, "; ".join(details))


def test_criterion_8b_engine_dominates_both_baselines(golden_runs):
    # companion to criteria 5 and 6: the selective policy is never worse
    # than either baseline on either scenario (1% tie tolerance)
    for name, runs in golden_runs.items():
        engine = runs["engine"].cumulative_seconds
        for baseline in ("materialize-all", "materialize-none"):
            assert engine <= runs[baseline].cumulative_seconds * 1.01, (name, baseline)


class _InjectedCrash(RuntimeError):
    pass


def test_criterion_9_crash_safety_under_fault_injection(tmp_path):
    probe = tmp_path / "probe"
    stages = []
    with CacheStore(probe) as store:
        store.fault_hook = stages.append
        store.put("node", "aa" * 32, b"probe-payload" * 64, 1.0)
    assert len(stages) >= 10

    violations = []
    for stage in stages:
        root = tmp_path / f"crash-{stage}"
        with CacheStore(root) as store:
            store.put("keeper", "bb" * 32, b"must-survive", 1.0)
        store = CacheStore(root)

        def crash(point, target=stage):
            if point == target:
                raise _InjectedCrash(point)

        store.fault_hook = crash
        try:
            store.put("node", "aa" * 32, b"crashing-payload" * 64, 1.0)
        except _InjectedCrash:
            pass
        os.close(store._lock_fd)  # simulate sudden process death
        store._lock_fd = None

        with CacheStore(root):
            manifest = load_manifest(root)
            for entry in manifest.entries.values():
                payload = root / entry.payload_path
                if not payload.is_file() or payload.stat().st_size != entry.output_bytes:
                    violations.append((stage, entry.signature))
            if "bb" * 32 not in manifest.entries:
                violations.append((stage, "lost pre-existing entry"))
    report(9, f"manifest consistent after crashes at {len(stages)} write boundaries",
           violations == [], f"{len(violations)} violations")


def _capture(capsys, argv) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def test_criterion_10_byte_identical_outputs(tmp_path, capsys):
    ws = tmp_path / "ws"
    ws.mkdir()
    cache = tmp_path / "cache"
    spec = load_scenario("classification")
    write_source_stubs(spec, ws)
    spec_path = ws / "workflow.json"
    spec_path.write_text(scenario_text("classification"))
    run_iteration(spec_path, ws, cache, RunConfig(clock_mode=CLOCK_SIMULATED))

    base = ["--spec", str(spec_path), "--workspace", str(ws), "--cache", str(cache)]
    plan_args = ["plan", *base, "--clock", "simulated", "--json"]
    diff_args = ["diff", *base, "--json"]
    sim_args = ["simulate", "--scenario", "classification", "-n", "4", "--seed", "7"]

    ok = (
        _capture(capsys, plan_args) == _capture(capsys, plan_args)
        and _capture(capsys, diff_args) == _capture(capsys, diff_args)
        and _capture(capsys, sim_args) == _capture(capsys, sim_args)
    )
    report(10, "plan --json, diff --json and simulate are byte-identical across runs", ok)
