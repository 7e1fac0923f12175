import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterflow.changes import compute_signatures, diff_iterations
from iterflow.errors import MissingSourceError
from iterflow.workflow import (
    CommandAction,
    OperatorNode,
    SimulatedAction,
    WorkflowSpec,
    descendants,
    parse_workflow,
    validate,
)

from conftest import chain_spec, random_spec, sim_node, sim_spec, write_sources


@pytest.fixture
def workspace(tmp_path):
    return tmp_path


def test_deterministic(workspace):
    spec = chain_spec("a", "b", "c")
    write_sources(spec, workspace)
    assert compute_signatures(spec, workspace) == compute_signatures(spec, workspace)


def test_source_byte_flip_ripples_to_descendants(workspace):
    spec = chain_spec("a", "b", "c")
    write_sources(spec, workspace)
    before = compute_signatures(spec, workspace)
    source = workspace / "src" / "a.txt"
    raw = bytearray(source.read_bytes())
    raw[0] ^= 0xFF
    source.write_bytes(bytes(raw))
    after = compute_signatures(spec, workspace)
    assert all(before[name] != after[name] for name in ("a", "b", "c"))


def test_leaf_edit_leaves_ancestors_alone(workspace):
    spec = chain_spec("a", "b", "c")
    write_sources(spec, workspace)
    before = compute_signatures(spec, workspace)
    leaf = dataclasses.replace(spec.node("c"), env_fingerprint="edited")
    after = compute_signatures(spec.replace_node(leaf), workspace)
    assert before["a"] == after["a"] and before["b"] == after["b"]
    assert before["c"] != after["c"]


def test_missing_source(workspace):
    spec = chain_spec("a", "b")
    with pytest.raises(MissingSourceError):
        compute_signatures(spec, workspace)


def test_declaration_order_is_irrelevant(workspace):
    spec = sim_spec(
        [
            sim_node("a"),
            sim_node("b", parents=("a",)),
            sim_node("c", parents=("a",)),
            sim_node("d", parents=("b", "c")),
        ],
        outputs=("d",),
    )
    write_sources(spec, workspace)
    shuffled = validate(
        WorkflowSpec(version=1, nodes=tuple(reversed(spec.nodes)), outputs=spec.outputs)
    )
    assert compute_signatures(spec, workspace) == compute_signatures(shuffled, workspace)


def test_parent_order_is_significant(workspace):
    spec = sim_spec(
        [sim_node("a"), sim_node("b"), sim_node("m", parents=("a", "b"))],
        outputs=("m",),
    )
    write_sources(spec, workspace)
    swapped = spec.replace_node(
        dataclasses.replace(spec.node("m"), parents=("b", "a"))
    )
    assert (
        compute_signatures(spec, workspace)["m"]
        != compute_signatures(swapped, workspace)["m"]
    )


def test_signature_ignores_non_ancestors(workspace):
    rng = random.Random(11)
    for _ in range(30):
        spec = random_spec(rng)
        write_sources(spec, workspace)
        names = list(spec.names())
        target = names[rng.randrange(len(names))]
        edited = names[rng.randrange(len(names))]
        if target == edited or target in descendants(spec, edited):
            continue
        before = compute_signatures(spec, workspace)
        bumped = dataclasses.replace(spec.node(edited), env_fingerprint="poke")
        after = compute_signatures(spec.replace_node(bumped), workspace)
        assert before[target] == after[target]


class TestDiff:
    def test_identical_maps(self):
        sigs = {"a": "1" * 64, "b": "2" * 64}
        changes = diff_iterations(sigs, dict(sigs))
        assert changes.changed == frozenset()
        assert changes.unchanged == {"a", "b"}
        assert changes.is_clean

    def test_cold_start_marks_everything_changed_and_added(self):
        sigs = {"a": "1" * 64, "b": "2" * 64}
        changes = diff_iterations({}, sigs)
        assert changes.changed == {"a", "b"}
        assert changes.added == {"a", "b"}

    def test_chain_edit_closure(self, workspace):
        spec = chain_spec("a", "b", "c")
        write_sources(spec, workspace)
        previous = compute_signatures(spec, workspace)
        (workspace / "src" / "a.txt").write_text("v2")
        current = compute_signatures(spec, workspace)
        changes = diff_iterations(previous, current)
        assert changes.changed == {"a", "b", "c"}

    def test_deleted_nodes_reported(self):
        changes = diff_iterations({"gone": "0" * 64}, {})
        assert changes.deleted == {"gone"}

    def test_descendant_closure_on_random_edits(self, tmp_path):
        rng = random.Random(99)
        for trial in range(40):
            spec = random_spec(rng)
            ws = tmp_path / f"t{trial}"
            write_sources(spec, ws)
            previous = compute_signatures(spec, ws)
            names = list(spec.names())
            edited = names[rng.randrange(len(names))]
            bumped = dataclasses.replace(spec.node(edited), env_fingerprint="edit")
            current = compute_signatures(spec.replace_node(bumped), ws)
            changes = diff_iterations(previous, current)
            assert changes.changed == {edited} | descendants(spec, edited)


GOLDEN_SPEC = {
    "version": 1,
    "nodes": [
        {"name": "raw", "kind": "data-preprocessing",
         "action": {"type": "simulated", "compute_seconds": 1, "output_bytes": 0},
         "parents": [], "sources": ["src/a.txt", "src/b.txt"]},
        {"name": "big", "kind": "ml",
         "action": {"type": "simulated", "compute_seconds": 1e16, "output_bytes": 2**40},
         "parents": ["raw"], "sources": [], "env_fingerprint": "lib-2.1"},
        {"name": "cmd", "kind": "evaluation",
         "action": {"type": "command",
                    "argv": ["sh", "-c", "printf '%s\\n' \"a b\" \\ {parent:big}\x01",
                             "naïve ✓ 日本"],
                    "output": "out/cmd.txt"},
         "parents": ["big", "raw"], "sources": []},
        {"name": "ünïcode", "kind": "ml",
         "action": {"type": "simulated", "compute_seconds": 0.1, "output_bytes": 7},
         "parents": ["cmd"], "sources": ["src/a.txt"], "env_fingerprint": ""},
    ],
    "outputs": ["ünïcode"],
}

# Taken before the definition text was built without json.dumps; a cache
# written by any earlier version keys its entries by exactly these values.
GOLDEN_SIGNATURES = {
    "raw": "f5f3c1d8a0c6f7e5715a388239372f7727a5a0e1a52df4b6bf732dff094bc735",
    "big": "fea6dd43be37daa0328fe78b40fe1ba4fa28579909f3986cf33778b6eeb07874",
    "cmd": "529eb1ab28f9a864770f4ed4d486ba88e4d2abf16102520685d5d8308b6fc8b4",
    "ünïcode": "f7c94046a1e644dba0fe8cb27252fd1d9b9d0082065fe7cfee7bd49294421684",
}


def test_signatures_match_the_golden_values(workspace):
    (workspace / "src").mkdir()
    (workspace / "src" / "a.txt").write_bytes(b"alpha\n")
    (workspace / "src" / "b.txt").write_bytes(b"\x00\xffbeta")
    spec = parse_workflow(json.dumps(GOLDEN_SPEC))
    assert compute_signatures(spec, workspace) == GOLDEN_SIGNATURES


_text = st.text(st.characters(exclude_categories=()), max_size=12)
_strings = st.lists(_text, max_size=4).map(tuple)
_numbers = st.one_of(st.integers(), st.floats(), st.booleans())
_actions = st.one_of(
    st.builds(SimulatedAction, compute_seconds=_numbers, output_bytes=_numbers),
    st.builds(CommandAction, argv=_strings, output=_text),
)


@settings(max_examples=300, deadline=None)
@given(node=st.builds(OperatorNode, name=_text, kind=_text, action=_actions,
                      parents=_strings, sources=_strings,
                      env_fingerprint=st.none() | _text),
       token=_text)
def test_definition_text_is_the_json_dumps_text(node, token):
    # The form the signatures were first defined by; caches rest on it.
    def reference(n):
        return json.dumps(n.to_json(), sort_keys=True, separators=(",", ":"))

    assert node.definition_text() == reference(node)
    # The simulator edits a node the same way.
    edited = dataclasses.replace(node, env_fingerprint=token)
    assert edited.definition_text() == reference(edited)
