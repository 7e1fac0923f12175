"""Cross-iteration identity: recursive content signatures and change diffing.

An operator's output is the same artifact across two runs when the operator
definition is unchanged, its declared source files are byte-identical, and
the same holds recursively for every parent.  Each node therefore gets a
signature that folds together the canonical definition text, a digest of
every declared source file, and the parent signatures in declared order.
Editing anything upstream changes the signature of every node downstream,
so "recompute this and everything after it" falls out of plain equality.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import IterflowError
from .workflow import WorkflowSpec

_CHUNK_BYTES = 1 << 20


def _file_digest(path: Path) -> bytes:
    hasher = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while True:
                chunk = fh.read(_CHUNK_BYTES)
                if not chunk:
                    break
                hasher.update(chunk)
    except FileNotFoundError:
        raise IterflowError(f"declared source file is missing: {path}") from None
    return hasher.digest()


def compute_signatures(spec: WorkflowSpec, workspace: Path | str) -> dict[str, str]:
    """Signature for every node; parents are hashed before children.

    Raises IterflowError if a declared source file does not exist.
    """
    workspace = Path(workspace)
    by_name = spec.by_name
    digests: dict[str, bytes] = {}
    signatures: dict[str, str] = {}
    for name in spec.order:
        node = by_name[name]
        parts = [b"def\x00", node.definition_text().encode("utf-8")]
        for source in node.sources:
            parts += (b"\x00src\x00", _file_digest(workspace / source))
        for parent in node.parents:
            parts += (b"\x00parent\x00", digests[parent])
        digest = digests[name] = hashlib.sha256(b"".join(parts)).digest()
        signatures[name] = digest.hex()
    return signatures


@dataclass(frozen=True)
class ChangeSet:
    """Partition of the current nodes into changed vs unchanged, plus churn.

    ``changed`` holds every node whose signature differs from (or is absent
    in) the previous iteration; by construction of the recursive signatures
    it is closed under descendants.  ``deleted`` lists previous-only names.
    """

    changed: frozenset[str]
    unchanged: frozenset[str]
    added: frozenset[str]
    deleted: frozenset[str]

    @property
    def is_clean(self) -> bool:
        return not self.changed and not self.deleted

    def to_json(self) -> dict[str, list[str]]:
        return {
            "changed": sorted(self.changed),
            "unchanged": sorted(self.unchanged),
            "added": sorted(self.added),
            "deleted": sorted(self.deleted),
        }


def diff_iterations(
    previous: Mapping[str, str], current: Mapping[str, str]
) -> ChangeSet:
    """Compare signature maps from two successive iterations."""
    changed = {
        name for name, sig in current.items() if previous.get(name) != sig
    }
    return ChangeSet(
        changed=frozenset(changed),
        unchanged=frozenset(current.keys() - changed),
        added=frozenset(current.keys() - previous.keys()),
        deleted=frozenset(previous.keys() - current.keys()),
    )
