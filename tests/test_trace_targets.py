"""The benchmark's layer tracer must still find every function it wraps.

``perfbench/tracing.py`` wraps engine and CLI functions by name.  A cleanup
that renames or inlines one of them would otherwise surface only in a traced
benchmark run; this test makes it fail the test suite.  The tracer module is
read from ``perfbench/`` as it is, never copied.
"""

import importlib.util
from pathlib import Path

import pytest

import iterflow.cli
import iterflow.runner

from conftest import chain_spec, write_sources
from iterflow.workflow import serialize_workflow

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_targets_resolve_and_a_run_reaches_every_required_span(tracing, tmp_path):
    ws, cache = tmp_path / "ws", tmp_path / "cache"
    ws.mkdir()
    spec = chain_spec("a", "b")
    write_sources(spec, ws)
    path = ws / "workflow.json"
    path.write_text(serialize_workflow(spec))
    originals = (iterflow.cli.run_iteration, iterflow.runner.prepare)

    tracer = tracing.Tracer()
    tracer.install(tracing.CLI_TARGETS)
    try:
        code = iterflow.cli.main(["run", "--spec", str(path), "--workspace", str(ws),
                                  "--cache", str(cache), "--clock", "simulated"])
    finally:
        tracer.uninstall()

    assert code == 0
    reached = {name for _, _, name, _, _ in tracer.spans}
    assert set(tracing.REQUIRED_SPANS) <= reached, set(tracing.REQUIRED_SPANS) - reached
    assert (iterflow.cli.run_iteration, iterflow.runner.prepare) == originals
