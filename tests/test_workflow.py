import json
import random

import pytest

from iterflow.errors import (
    CycleDetectedError,
    DuplicateNameError,
    NoOutputsError,
    SpecError,
    UnknownParentError,
    WorkflowSyntaxError,
)
from iterflow.workflow import (
    WorkflowSpec,
    parse_workflow,
    prune_dead_operators,
    serialize_workflow,
    topological_order,
)

from conftest import chain_spec, random_dag, random_spec, sim_node, sim_spec


def doc(nodes, outputs, version=1):
    return json.dumps({"version": version, "nodes": nodes, "outputs": outputs})


def node_doc(name, parents=(), sources=None, **extra):
    if sources is None:
        sources = [f"src/{name}.txt"] if not parents else []
    return {
        "name": name,
        "kind": "ml",
        "action": {"type": "simulated", "compute_seconds": 1.0, "output_bytes": 10},
        "parents": list(parents),
        "sources": sources,
        **extra,
    }


class TestParse:
    def test_minimal_single_source_workflow(self):
        spec = parse_workflow(doc([node_doc("raw")], ["raw"]))
        assert len(spec.nodes) == 1
        assert spec.node("raw").is_source
        assert sum(len(n.parents) for n in spec.nodes) == 0

    def test_two_node_cycle_reports_its_members(self):
        text = doc([node_doc("a", parents=["b"]), node_doc("b", parents=["a"])], ["a"])
        with pytest.raises(CycleDetectedError) as err:
            parse_workflow(text)
        assert set(err.value.cycle) == {"a", "b"}

    def test_cycle_behind_a_tail_reports_only_the_cycle(self):
        text = doc([node_doc("a", parents=["b"]), node_doc("b", parents=["c"]),
                    node_doc("c", parents=["b"])], ["a"])
        with pytest.raises(CycleDetectedError) as err:
            parse_workflow(text)
        assert sorted(err.value.cycle) == ["b", "c"]

    def test_dangling_parent(self):
        text = doc([node_doc("train", parents=["features"])], ["train"])
        with pytest.raises(UnknownParentError) as err:
            parse_workflow(text)
        assert err.value.parent == "features"

    def test_duplicate_name(self):
        with pytest.raises(DuplicateNameError):
            parse_workflow(doc([node_doc("x"), node_doc("x")], ["x"]))

    def test_no_outputs(self):
        with pytest.raises(NoOutputsError):
            parse_workflow(doc([node_doc("x")], []))

    def test_unknown_output_name(self):
        with pytest.raises(WorkflowSyntaxError):
            parse_workflow(doc([node_doc("x")], ["ghost"]))

    def test_malformed_json(self):
        with pytest.raises(WorkflowSyntaxError):
            parse_workflow("{nope")

    @pytest.mark.parametrize("text, match", [
        ("[" * 100_000, "not valid JSON: maximum recursion depth"),
        # How many digits int() accepts varies by interpreter.
        ('{"version": ' + "1" * 5000 + ', "nodes": [], "outputs": []}', None),
    ], ids=["deep-nesting", "huge-integer"])
    def test_json_the_decoder_cannot_hold_is_a_syntax_error(self, text, match):
        with pytest.raises(WorkflowSyntaxError, match=match):
            parse_workflow(text)

    def test_unknown_key_rejected(self):
        nodes = [node_doc("x", retries=3)]
        with pytest.raises(WorkflowSyntaxError) as err:
            parse_workflow(doc(nodes, ["x"]))
        assert "retries" in str(err.value)

    def test_command_inputs_rejected_with_pointer_to_sources(self):
        # "inputs" was a second watched-file list whose files were never
        # fingerprinted; "sources" is the one list change detection reads.
        bad = node_doc("x")
        bad["action"] = {"type": "command", "argv": ["true"], "inputs": ["data.csv"],
                         "output": "out/x.txt"}
        with pytest.raises(WorkflowSyntaxError) as err:
            parse_workflow(doc([bad], ["x"]))
        assert "inputs" in str(err.value) and "sources" in str(err.value)

    def test_unknown_action_type(self):
        bad = node_doc("x")
        bad["action"] = {"type": "python", "callable": "f"}
        with pytest.raises(WorkflowSyntaxError):
            parse_workflow(doc([bad], ["x"]))

    def test_unsupported_version(self):
        with pytest.raises(WorkflowSyntaxError):
            parse_workflow(doc([node_doc("x")], ["x"], version=99))

    def test_root_without_sources_rejected(self):
        with pytest.raises(WorkflowSyntaxError):
            parse_workflow(doc([node_doc("x", sources=[])], ["x"]))

    def test_env_fingerprint_accepted(self):
        spec = parse_workflow(doc([node_doc("x", env_fingerprint="lib-2.1")], ["x"]))
        assert spec.node("x").env_fingerprint == "lib-2.1"


class TestSerializeRoundTrip:
    def test_round_trip_identity(self):
        rng = random.Random(42)
        for _ in range(25):
            spec = random_spec(rng)
            assert parse_workflow(serialize_workflow(spec)) == spec

    def test_command_action_round_trip(self):
        text = doc(
            [
                node_doc("raw"),
                {
                    "name": "upper",
                    "kind": "data-preprocessing",
                    "action": {
                        "type": "command",
                        "argv": ["sh", "-c", "tr a-z A-Z < {parent:raw} > {output}"],
                        "output": "out/upper.txt",
                    },
                    "parents": ["raw"],
                    "sources": [],
                },
            ],
            ["upper"],
        )
        spec = parse_workflow(text)
        assert parse_workflow(serialize_workflow(spec)) == spec


class TestTopologicalOrder:
    def test_chain(self):
        assert topological_order(chain_spec("a", "b", "c")) == ["a", "b", "c"]

    def test_diamond_breaks_ties_lexicographically(self):
        spec = sim_spec(
            [
                sim_node("a"),
                sim_node("b", parents=("a",)),
                sim_node("c", parents=("a",)),
                sim_node("d", parents=("b", "c")),
            ],
            outputs=("d",),
        )
        assert topological_order(spec) == ["a", "b", "c", "d"]

    def test_single_node(self):
        assert topological_order(chain_spec("only")) == ["only"]

    def test_returned_list_is_a_copy(self):
        spec = chain_spec("a", "b", "c")
        topological_order(spec).reverse()
        assert topological_order(spec) == ["a", "b", "c"]

    def test_parents_always_precede_children(self):
        rng = random.Random(7)
        for _ in range(20):
            spec = random_spec(rng)
            order = topological_order(spec)
            position = {name: i for i, name in enumerate(order)}
            for node in spec.nodes:
                assert all(position[p] < position[node.name] for p in node.parents)


class TestPruneDeadOperators:
    def test_isolated_node_removed(self):
        spec = sim_spec(
            [sim_node("a"), sim_node("b", parents=("a",)), sim_node("x")],
            outputs=("b",),
        )
        pruned, removed = prune_dead_operators(spec)
        assert removed == {"x"}
        assert pruned.names() == ("a", "b")

    def test_everything_reachable_is_identity(self):
        spec = chain_spec("a", "b", "c")
        pruned, removed = prune_dead_operators(spec)
        assert removed == set()
        assert pruned == spec

    def test_dead_branch_removed(self):
        spec = sim_spec(
            [
                sim_node("a"),
                sim_node("b", parents=("a",)),
                sim_node("c", parents=("b",)),
                sim_node("d", parents=("a",)),
            ],
            outputs=("c",),
        )
        _, removed = prune_dead_operators(spec)
        assert removed == {"d"}

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(20):
            spec = random_spec(rng)
            once, removed = prune_dead_operators(spec)
            twice, removed_again = prune_dead_operators(once)
            assert twice == once
            assert removed_again == set()

    def test_kept_nodes_reach_an_output(self):
        rng = random.Random(4)
        for _ in range(20):
            spec = random_spec(rng)
            pruned, _ = prune_dead_operators(spec)
            # walk forward from each kept node; must reach some output
            for node in pruned.nodes:
                frontier, seen = [node.name], set()
                reached = False
                while frontier:
                    cur = frontier.pop()
                    if cur in pruned.outputs:
                        reached = True
                        break
                    seen.add(cur)
                    frontier.extend(k for k in pruned.child_map[cur] if k not in seen)
                assert reached, f"{node.name} cannot reach any output"

    def test_pruned_order_is_the_order_of_a_fresh_spec(self):
        rng = random.Random(5)
        with_dead = 0
        for _ in range(200):
            dag = random_dag(rng, max_nodes=14)
            # Shuffled labels, so the name order is not a topological order.
            labels = [f"v{i:02d}" for i in range(len(dag))]
            rng.shuffle(labels)
            rename = dict(zip(dag, labels))
            nodes = [sim_node(rename[name], parents=tuple(rename[p] for p in parents))
                     for name, parents in dag.items()]
            rng.shuffle(nodes)
            outputs = tuple(rng.sample(labels, rng.randint(1, max(1, len(labels) // 3))))
            spec = sim_spec(nodes, outputs)
            pruned, removed = prune_dead_operators(spec)
            fresh = WorkflowSpec(version=pruned.version, nodes=pruned.nodes,
                                 outputs=pruned.outputs)
            assert "order" in vars(pruned)  # seeded, not ordered again
            assert pruned.order == fresh.order
            with_dead += bool(removed)
        assert with_dead >= 100


def _with_node(**fields):
    """A one-node document whose node has ``fields`` overlaid (None drops a key)."""
    node = node_doc("x")
    for key, value in fields.items():
        if value is None:
            node.pop(key)
        else:
            node[key] = value
    return doc([node], ["x"])


def _with_action(action):
    return _with_node(action=action)


def _command(**fields):
    action = {"type": "command", "argv": ["true"], "output": "out/x.txt"}
    action.update(fields)
    return _with_action({k: v for k, v in action.items() if v is not None})


def _simulated(**fields):
    action = {"type": "simulated", "compute_seconds": 1.0, "output_bytes": 10}
    action.update(fields)
    return _with_action({k: v for k, v in action.items() if v is not None})


def _top(**fields):
    top = {"version": 1, "nodes": [node_doc("x")], "outputs": ["x"]}
    top.update(fields)
    return json.dumps({k: v for k, v in top.items() if v is not None})


# One bad document for every place that raises, with its exact message.
PARSE_ERRORS = [
    ("not-json", "{nope",
     "not valid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    ("top-not-object", "[]", "workflow: expected an object"),
    ("top-missing", _top(outputs=None, nodes=None),
     "workflow: missing keys ['nodes', 'outputs']"),
    ("top-unknown", _top(extra=1, author="me"), "workflow: unknown keys ['author', 'extra']"),
    ("version-string", _top(version="1"), "version: expected an integer"),
    ("version-bool", _top(version=True), "version: expected an integer"),
    ("version-float", _top(version=1.0), "version: expected an integer"),
    ("version-value", _top(version=99), "version: unsupported format 99 (supported: 1)"),
    ("nodes-not-list", _top(nodes={"x": 1}), "nodes: expected a list"),
    ("node-not-object", _top(nodes=[node_doc("x"), ["y"]]), "nodes[1]: expected an object"),
    ("node-missing", _with_node(kind=None, parents=None),
     "nodes[0]: missing keys ['kind', 'parents']"),
    ("node-missing-before-unknown", _with_node(kind=None, retries=3),
     "nodes[0]: missing keys ['kind']"),
    ("node-unknown", _with_node(retries=3), "nodes[0]: unknown keys ['retries']"),
    ("name-empty", _with_node(name=""), "nodes[0].name: expected a non-empty string"),
    ("name-not-string", _with_node(name=5), "nodes[0].name: expected a non-empty string"),
    ("kind", _with_node(kind=3), "nodes[0].kind: expected a string"),
    ("env-fingerprint", _with_node(env_fingerprint=7),
     "nodes[0].env_fingerprint: expected a string"),
    ("action-not-object", _with_action("simulated"),
     "nodes[0].action: action must be an object with a 'type' tag"),
    ("action-no-type", _with_action({"argv": ["true"]}),
     "nodes[0].action: action must be an object with a 'type' tag"),
    ("action-type-not-string", _with_action({"type": 1}),
     "nodes[0].action: action must be an object with a 'type' tag"),
    ("command-inputs", _command(inputs=["data.csv"]),
     "nodes[0].action.inputs: no longer supported; list watched files under the "
     "operator's 'sources'"),
    ("command-missing", _command(output=None), "nodes[0].action: missing keys ['output']"),
    ("command-unknown", _command(cwd="/"), "nodes[0].action: unknown keys ['cwd']"),
    ("argv-not-list", _command(argv="true"), "nodes[0].action.argv: expected a list of strings"),
    ("argv-not-strings", _command(argv=["echo", 1]),
     "nodes[0].action.argv: expected a list of strings"),
    ("argv-empty", _command(argv=[]), "nodes[0].action.argv: must not be empty"),
    ("output-empty", _command(output=""), "nodes[0].action.output: expected a non-empty path"),
    ("output-not-string", _command(output=3),
     "nodes[0].action.output: expected a non-empty path"),
    ("simulated-missing", _simulated(output_bytes=None),
     "nodes[0].action: missing keys ['output_bytes']"),
    ("simulated-unknown", _simulated(memory=5), "nodes[0].action: unknown keys ['memory']"),
    ("seconds-negative", _simulated(compute_seconds=-0.5),
     "nodes[0].action.compute_seconds: expected a number >= 0"),
    ("seconds-string", _simulated(compute_seconds="1"),
     "nodes[0].action.compute_seconds: expected a number >= 0"),
    ("seconds-bool", _simulated(compute_seconds=True),
     "nodes[0].action.compute_seconds: expected a number >= 0"),
    ("seconds-nan", _simulated(compute_seconds=float("nan")),
     "nodes[0].action.compute_seconds: expected a number >= 0"),
    ("bytes-negative", _simulated(output_bytes=-1),
     "nodes[0].action.output_bytes: expected an integer >= 0"),
    ("bytes-float", _simulated(output_bytes=10.0),
     "nodes[0].action.output_bytes: expected an integer >= 0"),
    ("bytes-bool", _simulated(output_bytes=False),
     "nodes[0].action.output_bytes: expected an integer >= 0"),
    ("action-type-unknown", _with_action({"type": "python", "callable": "f"}),
     "nodes[0].action: unknown action type 'python'"),
    ("parents-not-list", _with_node(parents="a"), "nodes[0].parents: expected a list of strings"),
    ("parents-not-strings", _with_node(parents=[None]),
     "nodes[0].parents: expected a list of strings"),
    ("sources-not-list", _with_node(sources={"a": 1}),
     "nodes[0].sources: expected a list of strings"),
    ("sources-not-strings", _with_node(sources=["a", 2]),
     "nodes[0].sources: expected a list of strings"),
    ("outputs-not-list", _top(outputs="x"), "outputs: expected a list of strings"),
    ("outputs-not-strings", _top(outputs=[["x"]]), "outputs: expected a list of strings"),
    ("duplicate-name", doc([node_doc("x"), node_doc("x")], ["x"]),
     "duplicate operator name: 'x'"),
    ("unknown-parent", doc([node_doc("t", parents=["f"])], ["t"]),
     "operator 't' references undefined parent 'f'"),
    ("no-outputs", doc([node_doc("x")], []), "workflow declares no output nodes"),
    ("unknown-output", doc([node_doc("x")], ["x", "ghost"]), "outputs: unknown node 'ghost'"),
    ("cycle", doc([node_doc("a", parents=["b"]), node_doc("b", parents=["a"])], ["a"]),
     "dependency cycle: a -> b -> a"),
    ("root-without-sources", doc([node_doc("x", sources=[])], ["x"]),
     "operator 'x' has neither parents nor declared sources"),
]


@pytest.mark.parametrize("text, message", [case[1:] for case in PARSE_ERRORS],
                         ids=[case[0] for case in PARSE_ERRORS])
def test_parse_error_message(text, message):
    with pytest.raises(SpecError) as err:
        parse_workflow(text)
    assert str(err.value) == message


@pytest.mark.parametrize("seconds", ["Infinity", "1e400", "1" + "0" * 400],
                         ids=["infinity", "float-overflow", "int-overflow"])
def test_unbounded_compute_seconds_rejected_by_the_parser(seconds):
    text = _simulated(compute_seconds=123456789).replace("123456789", seconds)
    with pytest.raises(WorkflowSyntaxError) as err:
        parse_workflow(text)
    assert str(err.value) == "nodes[0].action.compute_seconds: expected a number >= 0"
