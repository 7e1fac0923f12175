"""Seeded inputs for the benchmark: workflow specs, source files and edits.

Everything here is a pure function of a ``random.Random`` seeded from the
``--seed`` argument, so one seed always yields the same spec, the same
source bytes and the same edit sequence.  iterflow itself never sees the
seed, only the files written from these values.

Two families of inputs exist:

* simulated DAGs (``edit-loop``, ``large-dag``): layered branches of
  ``simulated`` operators with seeded costs, sizes and wiring;
* the fixed ``real-cli`` pipeline: about twenty deterministic shell text
  transforms over seeded ~1 MB source files, each with a Python mirror the
  checks use to recompute the expected bytes.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass

# Simulated loads cost output_bytes / this; iterflow's default bandwidth.
SIMULATED_BANDWIDTH = 100e6


# -- simulated DAGs -------------------------------------------------------


@dataclass(frozen=True)
class DagShape:
    """Layered branches; each node draws parents from earlier layers."""

    branches: int
    layers: int
    width: int  # nodes per layer in one branch
    window: int  # parents come from the previous ``window`` layers
    parents: int  # drawn per node; nodes no one drew are adopted on top
    min_bytes: int
    max_bytes: int


def _spread(rng: random.Random, n: int, lo: float, hi: float, log: bool) -> list[float]:
    """``n`` evenly spaced values from ``lo`` to ``hi``, in seeded order."""
    steps = [(i + 0.5) / n for i in range(n)]
    values = [lo * (hi / lo) ** f if log else lo + (hi - lo) * f for f in steps]
    rng.shuffle(values)
    return values


def simulated_spec(rng: random.Random, shape: DagShape) -> dict:
    """A spec document of simulated operators.

    Outputs are the last layer of every branch.  Every node of a layer is a
    parent of some node in the next one, so all layered nodes are live;
    each branch adds one operator that feeds no output, which the engine
    prunes as dead.  Compute times and output sizes are fixed evenly spaced
    sets (sizes log-spaced) dealt out in seeded order: the seed moves work
    around the DAG but keeps its total, which keeps sessions of different
    seeds comparable.  A node whose output is large beside its recompute
    chain gets a negative r-value and is not persisted.
    """
    n = shape.branches * (shape.layers * shape.width + 1)
    seconds = _spread(rng, n, 0.1, 3.0, log=False)
    sizes = _spread(rng, n, shape.min_bytes, shape.max_bytes, log=True)
    nodes: list[dict] = []
    outputs = []
    kinds = ("data-preprocessing", "ml", "evaluation")

    def add(name: str, parents: list[str], layer: int) -> dict:
        node = {
            "name": name,
            "kind": kinds[min(2, 3 * layer // shape.layers)],
            "action": {"type": "simulated",
                       "compute_seconds": round(seconds[len(nodes)], 3),
                       "output_bytes": round(sizes[len(nodes)])},
            "parents": parents,
            "sources": [] if parents else [f"src/{name}.txt"],
        }
        nodes.append(node)
        return node

    for b in range(shape.branches):
        layers: list[list[str]] = []
        for li in range(shape.layers):
            pool = [p for earlier in layers[-shape.window:] for p in earlier]
            layer = []
            for k in range(shape.width):
                picked = rng.sample(pool, min(shape.parents, len(pool)))
                layer.append(add(f"b{b:02d}l{li:03d}k{k}", picked, li))
            if layers:
                adopted = {p for node in layer for p in node["parents"]}
                for orphan in layers[-1]:
                    if orphan not in adopted:
                        rng.choice(layer)["parents"].append(orphan)
            for node in layer:
                node["parents"].sort()
            layers.append([node["name"] for node in layer])
        pool = [p for earlier in layers[-shape.window:] for p in earlier]
        add(f"b{b:02d}dead", sorted(rng.sample(pool, min(2, len(pool)))), shape.layers - 1)
        outputs.extend(layers[-1])
    return {"version": 1, "nodes": nodes, "outputs": outputs}


def parent_map(doc: dict) -> dict[str, tuple[str, ...]]:
    return {n["name"]: tuple(n["parents"]) for n in doc["nodes"]}


def live_nodes(parents: dict[str, tuple[str, ...]], outputs) -> set[str]:
    """Every node with a path to a declared output, outputs included."""
    live: set[str] = set()
    frontier = list(outputs)
    while frontier:
        name = frontier.pop()
        if name not in live:
            live.add(name)
            frontier.extend(parents[name])
    return live


def child_map(parents: dict[str, tuple[str, ...]], live: set[str]) -> dict[str, list[str]]:
    children: dict[str, list[str]] = {name: [] for name in live}
    for name in live:
        for parent in parents[name]:
            children[parent].append(name)
    return children


def cone(children: dict[str, list[str]], name: str) -> set[str]:
    """``name`` plus every live descendant."""
    found = {name}
    frontier = [name]
    while frontier:
        for child in children[frontier.pop()]:
            if child not in found:
                found.add(child)
                frontier.append(child)
    return found


def pick_edits(children: dict[str, list[str]], n_edits: int) -> list[str]:
    """Live nodes to edit, spread evenly over the downstream cone sizes.

    The live nodes are ranked by cone size and the node in the middle of
    each of ``n_edits`` equal slices is edited, alternating small and large
    cones so that both meet caches of every size.  The seed picks the DAG,
    hence the nodes; fixing the quantiles and their order keeps the
    session's total recompute work nearly the same for every seed, where a
    uniform draw would let a few edits near the roots decide it.
    """
    ranked = sorted(children, key=lambda name: (len(cone(children, name)), name))
    picks = [ranked[(2 * i + 1) * len(ranked) // (2 * n_edits)] for i in range(n_edits)]
    return [picks[i // 2] if i % 2 == 0 else picks[-1 - i // 2] for i in range(n_edits)]


def stub_payload(name: str, signature: str) -> bytes:
    """What iterflow stores for a simulated operator."""
    return f"simulated:{name}:{signature}\n".encode()


# -- real-cli pipeline ----------------------------------------------------


def _lines(data: bytes) -> list[bytes]:
    parts = data.split(b"\n")
    return parts[:-1] if data.endswith(b"\n") else parts


def _unlines(lines) -> bytes:
    return b"".join(line + b"\n" for line in lines)


def _field2(line: bytes) -> bytes:
    return line.split(b" ")[1] if b" " in line else line


# name -> (shell snippet over "$1" [and "$2"], Python mirror).  Every
# snippet runs under LC_ALL=C, so sort order and case mapping are bytewise.
TRANSFORMS = {
    "ingest": ('rev "$1" | sed "s/[aeiou]/_/g"',
               lambda a: re.sub(rb"[aeiou]", b"_", _unlines(line[::-1] for line in _lines(a)))),
    "upper": ('tr a-z A-Z < "$1"', lambda a: a.upper()),
    "lower": ('tr A-Z a-z < "$1"', lambda a: a.lower()),
    "nodigits": ('tr -d 0-9 < "$1"', lambda a: a.translate(None, b"0123456789")),
    "squeeze": ('tr -s " " < "$1"', lambda a: re.sub(rb" +", b" ", a)),
    "sort": ('sort "$1"', lambda a: _unlines(sorted(_lines(a)))),
    "rev": ('rev "$1"', lambda a: _unlines(line[::-1] for line in _lines(a))),
    "tac": ('tac "$1"', lambda a: _unlines(reversed(_lines(a)))),
    "cut40": ('cut -c1-40 "$1"', lambda a: _unlines(line[:40] for line in _lines(a))),
    "field2": ('cut -d" " -f2 "$1"', lambda a: _unlines(_field2(line) for line in _lines(a))),
    "concat": ('cat "$1" "$2"', lambda a, b: a + b),
    "md5": ('md5sum < "$1"', lambda a: hashlib.md5(a).hexdigest().encode() + b"  -\n"),
    "count": ('wc -l < "$1"', lambda a: b"%d\n" % a.count(b"\n")),
    "top": ('sort -u "$1" | head -n 100', lambda a: _unlines(sorted(set(_lines(a)))[:100])),
}

N_SOURCES = 4

# (node, transform, parents).  Ingest node i reads source i.  The policy
# persists a node when its recompute chain exceeds twice its load estimate
# (output bytes / 100 MB/s, 20 ms for 1 MB).  Ingest costs about 50 ms per
# megabyte here, so every live node's chain clears that line with a margin
# of two or more, and which nodes are persisted does not hinge on timing
# noise.  Every output is a small summary, so it is cached after every run
# that computes it.
CLI_PIPELINE = (
    *((f"in{i}", "ingest", ()) for i in range(N_SOURCES)),
    ("up0", "upper", ("in0",)),
    ("nd1", "nodigits", ("in1",)),
    ("cut2", "cut40", ("in2",)),
    ("lo3", "lower", ("in3",)),
    ("cat01", "concat", ("up0", "nd1")),
    ("cat23", "concat", ("cut2", "lo3")),
    ("srt01", "sort", ("cat01",)),
    ("sq01", "squeeze", ("srt01",)),
    ("tac23", "tac", ("cat23",)),
    ("rev23", "rev", ("cat23",)),
    ("f23", "field2", ("tac23",)),
    ("o_md5", "md5", ("srt01",)),
    ("o_count", "count", ("sq01",)),
    ("o_top", "top", ("rev23",)),
    ("o_words", "top", ("f23",)),
    ("dead", "upper", ("in2",)),  # feeds no output: pruned every run
)
CLI_OUTPUTS = ("o_md5", "o_count", "o_top", "o_words")


def source_path(i: int) -> str:
    return f"src/s{i}.txt"


def output_path(node: str) -> str:
    return f"out/{node}.txt"


def cli_spec() -> dict:
    nodes = []
    for name, transform, parents in CLI_PIPELINE:
        snippet = TRANSFORMS[transform][0]
        if parents:
            args = [f"{{parent:{p}}}" for p in parents]
            sources = []
        else:
            args = [source_path(int(name[2:]))]
            sources = args
        nodes.append({
            "name": name,
            "kind": "data-preprocessing",
            "action": {"type": "command",
                       "argv": ["sh", "-c", f'LC_ALL=C; export LC_ALL; {snippet} > "$0"',
                                "{output}", *args],
                       "output": output_path(name)},
            "parents": list(parents),
            "sources": sources,
        })
    return {"version": 1, "nodes": nodes, "outputs": list(CLI_OUTPUTS)}


def cli_parent_map() -> dict[str, tuple[str, ...]]:
    return {name: tuple(parents) for name, _, parents in CLI_PIPELINE}


def _vocabulary(rng: random.Random) -> list[bytes]:
    alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    words = []
    for _ in range(4000):
        length = rng.randint(1, 9)
        words.append("".join(rng.choices(alphabet, k=length)).encode())
    return words


def source_texts(rng: random.Random, nbytes: int) -> list[bytes]:
    """``N_SOURCES`` texts of about ``nbytes`` each: lines of 4-12 words."""
    vocab = _vocabulary(rng)
    texts = []
    for _ in range(N_SOURCES):
        lines = []
        size = 0
        while size < nbytes:
            line = b" ".join(rng.choices(vocab, k=rng.randint(4, 12)))
            lines.append(line)
            size += len(line) + 1
        texts.append(_unlines(lines))
    return texts


def edit_text(rng: random.Random, data: bytes, token: str) -> bytes:
    """Replace a few lines; ``token`` makes the new bytes unique."""
    lines = _lines(data)
    for k in range(5):
        i = rng.randrange(len(lines))
        lines[i] = f"{token} line{k} {rng.getrandbits(32):08x}".encode()
    return _unlines(lines)


def cli_expected(sources: list[bytes]) -> dict[str, bytes]:
    """Every live node's output bytes, recomputed in Python."""
    out: dict[str, bytes] = {}
    for name, transform, parents in CLI_PIPELINE:
        fn = TRANSFORMS[transform][1]
        args = [out[p] for p in parents] if parents else [sources[int(name[2:])]]
        out[name] = fn(*args)
    return out
