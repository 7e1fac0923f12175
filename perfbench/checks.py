"""Correctness checks the benchmark computes on its own.

None of these call iterflow's checkers (``check_plan_legality``, the
brute-force oracle, ...): legality, change sets, simulated seconds and
output bytes are recomputed from the benchmark's own model of the inputs
it generated.  Each check raises ``CheckFailed`` with every problem found.
"""

from __future__ import annotations

import math
from pathlib import Path

from gen import SIMULATED_BANDWIDTH, output_path, stub_payload


class CheckFailed(Exception):
    pass


def _fail_if(problems: list[str], what: str) -> None:
    if problems:
        shown = "; ".join(problems[:5])
        more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        raise CheckFailed(f"{what}: {shown}{more}")


def check_plan(states: dict[str, str], parents: dict[str, tuple[str, ...]],
               live: set[str], outputs, changed: set[str],
               signatures: dict[str, str] | None = None,
               cached: set[str] | None = None) -> None:
    """Plan legality over the live nodes.

    ``states`` maps node -> "compute" | "load" | "prune".  Without
    ``signatures`` (a CLI ``plan``), every changed node counts as uncached:
    each edit writes bytes no earlier iteration saw.
    """
    problems = []
    if set(states) != live:
        problems.append(f"planned nodes differ from the live set by "
                        f"{sorted(set(states) ^ live)[:5]}")
    for name, state in states.items():
        if state == "compute":
            problems += [f"{name} computed with pruned parent {p}"
                         for p in parents[name] if states.get(p) == "prune"]
        elif state == "load" and signatures is not None and signatures[name] not in cached:
            problems.append(f"{name} loaded but its signature is not cached")
    for name in changed:
        uncached = signatures is None or signatures[name] not in cached
        if uncached and states.get(name) != "compute":
            problems.append(f"{name} changed and uncached but {states.get(name)}")
    problems += [f"output {name} pruned" for name in outputs if states.get(name) == "prune"]
    _fail_if(problems, "illegal plan")


def check_changed(previous: dict[str, str], current: dict[str, str],
                  expected: set[str]) -> None:
    """Nodes whose signature moved must be exactly the edited cone."""
    changed = {name for name, sig in current.items() if previous.get(name) != sig}
    _fail_if([f"{name} changed: {name in changed}, expected {name in expected}"
              for name in sorted(changed ^ expected)], "wrong change set")


def expected_simulated_seconds(states: dict[str, str], actions: dict[str, dict]) -> float:
    """Declared compute of computed nodes plus modelled loads.

    The engine policy models writes as free, so nothing is added for them.
    """
    total = 0.0
    for name, state in states.items():
        if state == "compute":
            total += actions[name]["compute_seconds"]
        elif state == "load":
            total += actions[name]["output_bytes"] / SIMULATED_BANDWIDTH
    return total


def check_simulated_seconds(report, actions: dict[str, dict],
                            previous_cumulative: float) -> float:
    """Returns the expected cumulative seconds after this report."""
    states = {name: rec.state for name, rec in report.nodes.items()}
    total = expected_simulated_seconds(states, actions)
    cumulative = previous_cumulative + total
    problems = []
    for label, got, want in (("total_seconds", report.total_seconds, total),
                             ("cumulative_seconds", report.cumulative_seconds, cumulative),
                             ("materialize_seconds", report.materialize_seconds, 0.0)):
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"{label} {got!r}, expected {want!r}")
    _fail_if(problems, "wrong simulated time")
    return cumulative


def check_stub_entries(store_cls, cache_root: Path) -> int:
    """Every manifest entry reads back as the simulated stub payload."""
    store = store_cls(cache_root, writable=False)
    problems = []
    for entry in store.entries():
        payload = store.get(entry.signature)
        if payload != stub_payload(entry.node_name, entry.signature):
            problems.append(f"entry {entry.signature[:12]} ({entry.node_name}) "
                            f"holds {payload[:40]!r}")
    _fail_if(problems, "wrong cached payload")
    return len(store.manifest.entries)


def check_cli_outputs(workspace: Path, states: dict[str, str],
                      expected: dict[str, bytes]) -> None:
    """Files of computed and loaded nodes equal the Python transforms.

    Pruned nodes are skipped: their files are stale by design.
    """
    problems = []
    for name, state in sorted(states.items()):
        if state == "prune":
            continue
        path = workspace / output_path(name)
        got = path.read_bytes() if path.is_file() else None
        if got != expected[name]:
            problems.append(f"{name} ({state}) output differs"
                            + (" (missing)" if got is None else f" ({len(got)} bytes)"))
    _fail_if(problems, "wrong output bytes")
