"""Command-line surface.

Subcommands mirror the developer loop: ``run`` an iteration, inspect the
``plan`` or the ``diff`` against the previous run without executing,
manage the cache (``cache ls`` / ``cache gc``), and ``simulate`` policy
comparisons on bundled scenarios.

Exit codes: 0 success, 1 operator failure, 2 usage or spec error, 3 cache
lock contention.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import CacheLockedError, IterflowError
from .policy import POLICIES, EnginePolicy
from .runner import (
    CLOCK_REAL,
    CLOCK_SIMULATED,
    PlanContext,
    RunConfig,
    prepare,
    run_iteration,
)
from .scenarios import SCENARIO_NAMES, scenario_text
from .simulator import (
    DEFAULT_KIND_FREQUENCIES,
    DEFAULT_SEED,
    format_table,
    generate_trace,
    simulate,
)
from .store import CacheStore, load_manifest
from .workflow import parse_workflow

EXIT_OK = 0
EXIT_OPERATOR_FAILED = 1
EXIT_USAGE = 2
EXIT_LOCKED = 3

CACHE_ENV_VAR = "ITERFLOW_CACHE"


def _cache_root(args) -> Path:
    if args.cache is not None:
        return Path(args.cache)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path(args.workspace) / ".iterflow"


def _config(args) -> RunConfig:
    return RunConfig(
        clock_mode=getattr(args, "clock", CLOCK_REAL),
        budget_bytes=getattr(args, "budget_bytes", None),
    )


def _prepare_readonly(args) -> PlanContext:
    spec_text = Path(args.spec).read_text("utf-8")
    manifest = load_manifest(_cache_root(args))
    return prepare(spec_text, Path(args.workspace), manifest, _config(args))


def _print_plan(ctx: PlanContext, as_json: bool, out) -> None:
    if as_json:
        doc = ctx.plan.to_json()
        doc["mandatory"] = sorted(ctx.mandatory)
        doc["sinks"] = sorted(ctx.spec.outputs)
        doc["costs"] = {
            name: {
                "compute_seconds": rec.compute_seconds,
                "load_seconds": rec.load_seconds if name in ctx.cached else None,
                "output_bytes": rec.output_bytes,
            }
            for name, rec in sorted(ctx.costs.items())
        }
        print(json.dumps(doc, indent=2, sort_keys=True), file=out)
        return
    print("node\tstate\tcompute_s\tload_s", file=out)
    for name in sorted(ctx.plan.states):
        rec = ctx.costs[name]
        load = f"{rec.load_seconds:.6f}" if name in ctx.cached else "-"
        print(f"{name}\t{ctx.plan.states[name].value}"
              f"\t{rec.compute_seconds:.6f}\t{load}", file=out)
    print(f"total_cost_seconds\t{ctx.plan.total_cost_seconds:.6f}", file=out)


def cmd_plan(args) -> int:
    ctx = _prepare_readonly(args)
    _print_plan(ctx, args.json, sys.stdout)
    return EXIT_OK


def cmd_diff(args) -> int:
    ctx = _prepare_readonly(args)
    changes = ctx.changes
    if args.json:
        print(json.dumps(changes.to_json(), indent=2, sort_keys=True))
        return EXIT_OK
    if changes.is_clean:
        print("no changes")
        return EXIT_OK
    for label, group in (("changed", changes.changed), ("added", changes.added),
                         ("deleted", changes.deleted)):
        for name in sorted(group):
            print(f"{label}\t{name}")
    return EXIT_OK


def cmd_run(args) -> int:
    report = run_iteration(args.spec, args.workspace, _cache_root(args), _config(args))
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        for name, rec in sorted(report.nodes.items()):
            mark = "*" if rec.materialized else ""
            status = "" if rec.ok else f"\tFAILED: {rec.detail}"
            print(f"{name}\t{rec.state}{mark}\t{rec.wall_seconds:.6f}{status}")
        print(f"iteration\t{report.iteration_index}")
        print(f"total_seconds\t{report.total_seconds:.6f}")
        print(f"cumulative_seconds\t{report.cumulative_seconds:.6f}")
    if not report.succeeded:
        for name in sorted(report.failed_nodes):
            print(f"error: {name}: {report.nodes[name].detail}", file=sys.stderr)
        return EXIT_OPERATOR_FAILED
    return EXIT_OK


def cmd_cache(args) -> int:
    root = _cache_root(args)
    if args.cache_cmd == "ls":
        manifest = load_manifest(root)
        print("signature\tnode\tbytes\tcompute_s")
        for sig, entry in sorted(manifest.entries.items()):
            print(f"{sig[:12]}\t{entry.node_name}\t{entry.output_bytes}"
                  f"\t{entry.measured_compute_seconds:.6f}")
        return EXIT_OK
    with CacheStore(root) as store:
        removed = store.gc(keep_latest=args.keep_latest)
    for sig in removed:
        print(f"removed\t{sig[:12]}")
    print(f"entries_remaining\t{len(store.manifest.entries)}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    names = args.policies.split(",")
    for name in names:
        EnginePolicy(name)  # an unknown name fails here, before anything runs
    if args.spec:
        spec = parse_workflow(Path(args.spec).read_text("utf-8"))
    else:
        spec = parse_workflow(scenario_text(args.scenario))
    frequencies = DEFAULT_KIND_FREQUENCIES
    if args.frequencies:
        parts = [float(x) for x in args.frequencies.split(",")]
        frequencies = tuple(parts)  # validated by generate_trace
    trace = generate_trace(spec, frequencies, args.iterations, args.seed)
    results = [
        simulate(spec, trace, policy_name=name, budget_bytes=args.budget_bytes)
        for name in names
    ]
    sys.stdout.write(format_table(results))
    return EXIT_OK


def _byte_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative number of bytes, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", required=True, help="workflow spec file")
    parser.add_argument("--workspace", default=".", help="directory containing source files")
    parser.add_argument("--cache", default=None,
                        help=f"cache root (default: <workspace>/.iterflow or ${CACHE_ENV_VAR})")
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterflow",
        description="Iteration-aware workflow engine with cached-intermediate replanning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one iteration")
    _add_common(p_run)
    p_run.add_argument("--budget-bytes", type=_byte_count, default=None,
                       help="storage budget for new materializations (default: unlimited)")
    p_run.add_argument("--clock", default=CLOCK_REAL, choices=[CLOCK_REAL, CLOCK_SIMULATED])
    p_run.set_defaults(func=cmd_run)

    p_plan = sub.add_parser("plan", help="show the execution plan without running")
    _add_common(p_plan)
    p_plan.add_argument("--clock", default=CLOCK_REAL, choices=[CLOCK_REAL, CLOCK_SIMULATED])
    p_plan.set_defaults(func=cmd_plan)

    p_diff = sub.add_parser("diff", help="show changes since the previous run")
    _add_common(p_diff)
    p_diff.set_defaults(func=cmd_diff)

    p_cache = sub.add_parser("cache", help="inspect or clean the cache")
    p_cache.add_argument("cache_cmd", choices=["ls", "gc"])
    p_cache.add_argument("--workspace", default=".")
    p_cache.add_argument("--cache", default=None)
    p_cache.add_argument("--keep-latest", action="store_true",
                         help="gc: drop entries not referenced by the last successful run")
    p_cache.set_defaults(func=cmd_cache)

    p_sim = sub.add_parser("simulate", help="compare materialization policies on a scenario")
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", choices=list(SCENARIO_NAMES))
    group.add_argument("--spec", help="a simulated-action workflow spec file")
    p_sim.add_argument("--policies", default=",".join(POLICIES),
                       help="comma-separated policy list")
    p_sim.add_argument("-n", "--iterations", type=int, default=10)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--frequencies", default=None,
                       help="edit-kind frequencies as three comma-separated numbers")
    p_sim.add_argument("--budget-bytes", type=_byte_count, default=None)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which matches our contract
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CacheLockedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOCKED
    except (IterflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
