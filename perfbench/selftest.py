"""Fast self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Runs one session of every workload on tiny inputs and requires that no
operation fails except the known corrupted-load rerun of ``real-cli``.
Then feeds every correctness check a deliberately wrong result (an illegal
plan, a wrong change set, wrong simulated seconds, a flipped byte in a
cached payload or an output file) and requires that the check rejects it,
and requires that the tracer refuses a target that does not exist.
Exits 1 on the first problem.
"""

from __future__ import annotations

import os
import random
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import checks
import gen
import run
import tracing

TINY = {
    "edit-loop": run.Simulated(gen.DagShape(2, 4, 3, 2, 2, 10**6, 10**9),
                               edits=4, budget_bytes=None),
    "large-dag": run.Simulated(gen.DagShape(1, 12, 4, 3, 3, 10**7, 10**8),
                               edits=3, budget_bytes=3 * 10**8),
    "real-cli": run.RealCli(source_bytes=4096),
}


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def rejects(label: str, check, *args) -> None:
    try:
        check(*args)
    except checks.CheckFailed as exc:
        print(f"ok   {label} rejected: {exc}")
        return
    fail(f"{label} was accepted")


def session(name: str, base: Path, tracer=None):
    w = TINY[name]
    fn = run.simulated_session if isinstance(w, run.Simulated) else run.cli_session
    return fn(w, 3, base, tracer)


def check_sessions(work: Path) -> None:
    for name in TINY:
        for traced in (False, True):
            s = session(name, work / f"{name}-{traced}", tracing.Tracer() if traced else None)
            known = 1 if name == "real-cli" else 0
            if s.errors or s.failed != known:
                fail(f"{name} (traced={traced}): {s.failed} failed: {s.errors[:3]}")
            # The known fault must be caught by the output check, not by
            # anything else going wrong in that rerun.
            if not all(f.startswith("CheckFailed: wrong output bytes") for f in s.faults):
                fail(f"{name}: known fault failed for another reason: {s.faults}")
            if traced:
                run.layer_values(s)  # raises if a required layer recorded nothing
            print(f"ok   {name} session (traced={traced}): {s.attempted} operations, "
                  f"{s.failed} known fault")


def check_plan_rejections() -> None:
    parents = {"a": (), "b": ("a",), "c": ("b",)}
    live = {"a", "b", "c"}
    sigs = {"a": "sa", "b": "sb", "c": "sc"}
    legal = {"a": "load", "b": "compute", "c": "compute"}
    checks.check_plan(legal, parents, live, ["c"], {"b", "c"}, sigs, {"sa"})
    rejects("computed node with a pruned parent", checks.check_plan,
            {**legal, "a": "prune"}, parents, live, ["c"], {"b", "c"}, sigs, {"sa"})
    rejects("load of an uncached signature", checks.check_plan,
            legal, parents, live, ["c"], {"b", "c"}, sigs, set())
    # A changed node whose new signature is already cached (a reverted
    # edit) may be loaded; an uncached one must be computed.
    reverted = {"a": "prune", "b": "load", "c": "compute"}
    checks.check_plan(reverted, parents, live, ["c"], {"b", "c"}, sigs, {"sb"})
    rejects("changed and uncached node not computed", checks.check_plan,
            {"a": "compute", "b": "compute", "c": "load"}, parents, live, ["c"], {"c"})
    rejects("pruned output", checks.check_plan,
            {"a": "prune", "b": "prune", "c": "prune"}, parents, live, ["c"], set())
    rejects("plan missing a live node", checks.check_plan,
            {"a": "compute", "b": "compute"}, parents, live, ["b"], set())
    rejects("wrong change set", checks.check_changed,
            {"a": "1", "b": "2"}, {"a": "1", "b": "3"}, {"a", "b"})


def check_seconds_rejection() -> None:
    actions = {"a": {"compute_seconds": 2.0, "output_bytes": 10**8},
               "b": {"compute_seconds": 1.5, "output_bytes": 0}}
    nodes = {"a": SimpleNamespace(state="load"), "b": SimpleNamespace(state="compute")}
    right = SimpleNamespace(nodes=nodes, total_seconds=2.5, cumulative_seconds=12.5,
                            materialize_seconds=0.0)
    checks.check_simulated_seconds(right, actions, 10.0)
    rejects("wrong simulated seconds", checks.check_simulated_seconds,
            SimpleNamespace(**{**vars(right), "total_seconds": 3.5}), actions, 10.0)


def check_byte_flips(work: Path) -> None:
    from iterflow.store import CacheStore

    cache = work / "flip-cache"
    with CacheStore(cache) as store:
        entry = store.put("n", "ab" * 32, gen.stub_payload("n", "ab" * 32), 1.0)
    checks.check_stub_entries(CacheStore, cache)
    path = cache / entry.payload_path
    data = bytearray(path.read_bytes())
    data[3] ^= 0x01
    path.write_bytes(bytes(data))
    rejects("flipped byte in a cached payload", checks.check_stub_entries, CacheStore, cache)

    ws = work / "flip-ws"
    sources = gen.source_texts(random.Random(1), 512)
    expected = gen.cli_expected(sources)
    (ws / "out").mkdir(parents=True)
    states = {name: "compute" for name in expected}
    for name, data in expected.items():
        (ws / gen.output_path(name)).write_bytes(data)
    checks.check_cli_outputs(ws, states, expected)
    target = ws / gen.output_path("o_md5")
    target.write_bytes(b"0" + target.read_bytes()[1:])
    rejects("flipped byte in an output file", checks.check_cli_outputs, ws, states, expected)


def check_missing_trace_target() -> None:
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.ENGINE_TARGETS + (("iterflow.runner", "no_such_layer", "x", None),))
    except tracing.TraceTargetMissing as exc:
        print(f"ok   missing trace target refused: {exc}")
    else:
        fail("tracer installed a target that does not exist")
    finally:
        tracer.uninstall()


def main() -> int:
    problem = run.import_checkout_iterflow()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    work = run.WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_sessions(work)
        check_plan_rejections()
        check_seconds_rejection()
        check_byte_flips(work)
        check_missing_trace_target()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
