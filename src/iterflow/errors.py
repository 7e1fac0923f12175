"""Exception hierarchy shared by all engine components."""

from __future__ import annotations


class IterflowError(Exception):
    """Base class for every error raised by this package."""


class SpecError(IterflowError):
    """A workflow spec failed parsing or validation."""


class WorkflowSyntaxError(SpecError):
    """The spec document is malformed or violates the strict schema."""


class DuplicateNameError(SpecError):
    def __init__(self, name: str):
        super().__init__(f"duplicate operator name: {name!r}")
        self.name = name


class UnknownParentError(SpecError):
    def __init__(self, node: str, parent: str):
        super().__init__(f"operator {node!r} references undefined parent {parent!r}")
        self.node = node
        self.parent = parent


class CycleDetectedError(SpecError):
    def __init__(self, cycle: list[str]):
        super().__init__("dependency cycle: " + " -> ".join(cycle + cycle[:1]))
        self.cycle = list(cycle)


class NoOutputsError(SpecError):
    def __init__(self):
        super().__init__("workflow declares no output nodes")


class MissingSourceError(IterflowError):
    def __init__(self, path: str):
        super().__init__(f"declared source file is missing: {path}")
        self.path = path


class TooLargeError(IterflowError):
    def __init__(self, n: int, limit: int):
        super().__init__(f"exhaustive search over {n} nodes exceeds the {limit}-node limit")
        self.n = n
        self.limit = limit


class KindAbsentError(IterflowError):
    def __init__(self, kind: str):
        super().__init__(f"workflow has no node of kind {kind!r}")
        self.kind = kind


class CacheError(IterflowError):
    """Base class for cache store failures."""


class EntryNotFoundError(CacheError):
    def __init__(self, signature: str):
        super().__init__(f"no cache entry for signature {signature}")
        self.signature = signature


class CorruptEntryError(CacheError):
    def __init__(self, signature: str, detail: str):
        super().__init__(f"cache entry {signature} is corrupt: {detail}")
        self.signature = signature
        self.detail = detail


class VersionMismatchError(CacheError):
    def __init__(self, found: int, supported: int):
        super().__init__(
            f"cache manifest format {found} is newer than supported format {supported}"
        )
        self.found = found
        self.supported = supported


class CacheLockedError(CacheError):
    def __init__(self, root: str, holder_pid: int | None):
        holder = f"pid {holder_pid}" if holder_pid else "unknown process"
        super().__init__(f"cache at {root} is locked by {holder}")
        self.root = root
        self.holder_pid = holder_pid


class InvalidConfigError(IterflowError):
    """A run was configured inconsistently (bad paths, clock/action mismatch)."""
