"""Content-addressed store for materialized intermediates.

Layout under the cache root:

    objects/<first two hex chars>/<signature>.bin   payload files
    manifest.json                                   index + cross-run state
    manifest.journal                                entries put since manifest.json
    tmp/                                            writes in flight
    runs.log                                        one JSON report per line
    .lock                                           advisory writer lock; holds
                                                    the writer's PID, empty when
                                                    no writer holds it
    scratch/<node>.bin                              real-clock outputs of simulated
                                                    operators; the runner writes
                                                    them, gc() leaves them, and
                                                    they may go between runs

A payload's path follows from its signature alone; entries still write a
``payload_path`` key for outside readers, and reading ignores it.

The manifest carries three things: the entry index (signature -> payload
metadata), the signature map of the last fully successful run, and a
per-command cost history.  The store only persists that history; the
runner alone reads it into estimates and writes measurements into it.

A put writes its payload under tmp/, fsyncs it, renames it into objects/
and fsyncs every directory that changed; only then does it append one line
to the journal and fsync it, so no entry ever references a payload that was
not already durable.  A crash can thus leave three things, each with one
handler: files in tmp/, which the next writable open deletes; a torn last
journal line, which readers ignore and the next writable open cuts off; and
payloads no entry references, which gc() deletes.  A journal line that fails
the entry checks of manifest.json can only be damage; it ends replay like a
torn one.  gc() is also the one full check of every entry; a payload damaged
later fails its get(), and the executor then forgets the entry and plans
again.  Readers replay the journal over manifest.json; closing a writable
store compacts both into a fresh manifest.json and removes the journal.

One writer at a time per cache root, enforced with flock on ``.lock``;
read-only opens take no lock and never modify anything.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from .errors import CacheError, CacheLockedError
from .workflow import is_byte_count, is_duration

logger = logging.getLogger(__name__)

MANIFEST_VERSION = 1

# Entry keys dropped on read: payload_path is derived, the others retired.
_IGNORED_ENTRY_KEYS = ("payload_path", "measured_load_seconds", "created_at")
_SIGNATURE = re.compile("[0-9a-f]{64}")  # what compute_signatures emits


def _payload_path(signature: str) -> str:  # relative to the cache root
    return f"objects/{signature[:2]}/{signature}.bin"


@dataclass
class CacheEntry:
    signature: str
    node_name: str
    output_bytes: int  # actual payload file size
    measured_compute_seconds: float
    # Size charged against the storage budget; differs from output_bytes for
    # simulated operators, whose on-disk payload is a small stand-in.
    charged_bytes: int = 0

    @property
    def payload_path(self) -> str:
        return _payload_path(self.signature)

    def to_json(self) -> dict:
        return {
            "node_name": self.node_name,
            "payload_path": self.payload_path,
            "output_bytes": self.output_bytes,
            "measured_compute_seconds": self.measured_compute_seconds,
            "charged_bytes": self.charged_bytes,
        }


@dataclass
class HistoryRecord:
    """Last measured costs of a command, by node name; outlives its payloads."""

    compute_seconds: float
    # Moving average over loads of any signature; None until one was observed.
    load_seconds: float | None = None
    output_bytes: int = 0

    def to_json(self) -> dict:
        return {
            "compute_seconds": self.compute_seconds,
            "load_seconds": self.load_seconds,
            "output_bytes": self.output_bytes,
        }


@dataclass
class CacheManifest:
    format_version: int = MANIFEST_VERSION
    entries: dict[str, CacheEntry] = field(default_factory=dict)
    previous_signatures: dict[str, str] = field(default_factory=dict)
    cost_history: dict[str, HistoryRecord] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "format_version": self.format_version,
            "entries": {sig: e.to_json() for sig, e in sorted(self.entries.items())},
            "previous_signatures": dict(sorted(self.previous_signatures.items())),
            "cost_history": {
                name: rec.to_json() for name, rec in sorted(self.cost_history.items())
            },
        }


def _manifest_path(root: Path) -> Path:
    return root / "manifest.json"


def _journal_path(root: Path) -> Path:
    return root / "manifest.journal"


def _fsync_dir(path: Path) -> None:
    """Make the entries of directory ``path`` (a rename, a new file) durable."""
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _read_journal(root: Path) -> tuple[list[CacheEntry], int]:
    """The journal's entries, oldest first, and the length of the prefix
    that holds them.

    Each line is ``[signature, entry]``.  Reading stops at the first line
    that is torn, does not parse or fails a check; nothing after it counts.
    """
    try:
        data = _journal_path(root).read_bytes()
    except FileNotFoundError:
        return [], 0
    entries: list[CacheEntry] = []
    good = 0
    while (end := data.find(b"\n", good)) >= 0:
        try:
            sig, raw = json.loads(data[good:end])
            entry = _entry(sig, raw) if type(sig) is str and type(raw) is dict else None
        except (ValueError, TypeError, RecursionError):
            break
        if entry is None or _entry_fault(entry) is not None:
            break
        entries.append(entry)
        good = end + 1
    return entries, good


# The number checks are the spec parser's, since a cost read from here reaches
# the same planner as a declared one.  Straight-line checks, not a loop over a
# table of field types: every plan and run opens the manifest, and on 400
# entries such a loop cost about three times as much as these.
def _entry_fault(entry: CacheEntry) -> str | None:
    """Which value of ``entry`` has the wrong type, if any."""
    if type(entry.node_name) is not str:
        return "node_name is not a string"
    if not is_byte_count(entry.output_bytes):
        return "output_bytes is not an integer >= 0 and <= 2**53"
    if not is_byte_count(entry.charged_bytes):
        return "charged_bytes is not an integer >= 0 and <= 2**53"
    if not is_duration(entry.measured_compute_seconds):
        return "measured_compute_seconds is not a finite number >= 0 and <= 9e9"
    if not _SIGNATURE.fullmatch(entry.signature):  # keeps every payload in objects/
        return "signature is not 64 lowercase hex digits"
    return None


def _history_fault(row: HistoryRecord) -> str | None:
    """Which value of ``row`` has the wrong type, if any."""
    if not is_duration(row.compute_seconds):
        return "compute_seconds is not a finite number >= 0 and <= 9e9"
    if not (row.load_seconds is None or is_duration(row.load_seconds)):
        return "load_seconds is neither null nor a finite number >= 0 and <= 9e9"
    if not is_byte_count(row.output_bytes):
        return "output_bytes is not an integer >= 0 and <= 2**53"
    return None


def _records(path: Path, doc: dict, key: str, build: Callable, fault: Callable) -> dict:
    """``doc[key]``, an object of objects, each value built by ``build(name,
    raw)``; a CacheError naming ``path`` when it is malformed or ``fault``
    finds a value of the wrong type in a record."""
    table = doc.get(key, {})
    if not (type(table) is dict and all(type(raw) is dict for raw in table.values())):
        raise CacheError(f"{path}: {key} is not an object of objects")
    records = {}
    for name, raw in table.items():
        try:
            records[name] = record = build(name, raw)
        except TypeError as exc:  # an unknown or a missing key
            raise CacheError(f"{path}: {key}: {exc}") from None
        why = fault(record)
        if why is not None:
            raise CacheError(f"{path}: {key}.{name}.{why}")
    return records


def _entry(sig: str, raw: dict) -> CacheEntry:
    for key in _IGNORED_ENTRY_KEYS:
        raw.pop(key, None)
    return CacheEntry(signature=sig, **raw)


def _read_manifest_file(root: Path) -> CacheManifest:
    path = _manifest_path(root)
    try:
        doc = json.loads(path.read_text("utf-8"))
    except FileNotFoundError:
        return CacheManifest()
    except (ValueError, RecursionError) as exc:  # not UTF-8 or not JSON
        raise CacheError(f"{path}: not valid JSON: {exc}") from None
    if type(doc) is not dict:
        raise CacheError(f"{path}: not a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version > MANIFEST_VERSION:
        raise CacheError(
            f"cache manifest format {version} is newer than supported format {MANIFEST_VERSION}")
    # Other top-level keys are ignored, such as the hash_algorithm that older
    # manifests carry.
    previous = doc.get("previous_signatures", {})
    if not (type(previous) is dict and all(type(sig) is str for sig in previous.values())):
        raise CacheError(f"{path}: previous_signatures is not an object of strings")
    return CacheManifest(
        format_version=version,
        entries=_records(path, doc, "entries", _entry, _entry_fault),
        previous_signatures=previous,
        cost_history=_records(path, doc, "cost_history",
                              lambda _, raw: HistoryRecord(**raw), _history_fault),
    )


def load_manifest(cache_root: Path | str) -> CacheManifest:
    """Read the manifest and replay the journal over it; nothing on disk
    means a cold start.

    A manifest written by a newer format, or one that fails a check, raises
    CacheError.
    """
    root = Path(cache_root)
    # Journal first: a writer that compacts in between has folded what was
    # read into manifest.json, so no entry is missed.
    journal, _ = _read_journal(root)
    manifest = _read_manifest_file(root)
    manifest.entries.update((entry.signature, entry) for entry in journal)
    return manifest


def save_manifest(cache_root: Path | str, manifest: CacheManifest) -> None:
    """Atomically and durably replace the manifest (write a temp file in
    tmp/, fsync, rename, fsync the directory)."""
    root = Path(cache_root)
    (root / "tmp").mkdir(parents=True, exist_ok=True)
    path = _manifest_path(root)
    tmp = root / "tmp" / f"{path.name}.{os.getpid()}"
    payload = json.dumps(manifest.to_json(), indent=2, sort_keys=True) + "\n"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(root)


class CacheStore:
    """Handle on one cache root.

    Writable stores hold the advisory lock for their whole lifetime.  When
    one opens, it cuts a torn journal tail and empties tmp/; neither costs
    more on a larger cache.  Use as a context manager or call close().
    Each put appends its entry to the journal; save(), called by close(),
    writes the whole manifest and removes the journal.

    ``fault_hook`` is a test seam: when set, it is invoked with a stage
    label at every write boundary inside put(), letting crash tests abort
    the sequence at any point.
    """

    def __init__(self, root: Path | str, writable: bool = True):
        self.root = Path(root)
        self.writable = writable
        self.fault_hook: Callable[[str], None] | None = None
        self._lock_fd: int | None = None
        if writable:
            self.root.mkdir(parents=True, exist_ok=True)
            self._acquire_lock()
        try:
            self.manifest = load_manifest(self.root)
            if writable:
                self._clear_crash_leftovers()
        except BaseException:
            self._release_lock()
            raise

    # -- lifecycle -----------------------------------------------------

    def _acquire_lock(self) -> None:
        lock_path = self.root / ".lock"
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            holder: int | None = None
            try:
                raw = os.read(fd, 64).decode("ascii", "replace").strip()
                holder = int(raw) if raw else None
            except (OSError, ValueError):
                pass
            os.close(fd)
            raise CacheLockedError(str(self.root), holder) from None
        os.ftruncate(fd, 0)
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        self._lock_fd = fd

    def _release_lock(self) -> None:
        if self._lock_fd is not None:
            os.ftruncate(self._lock_fd, 0)  # a released lock names no holder
            fcntl.flock(self._lock_fd, fcntl.LOCK_UN)
            os.close(self._lock_fd)
            self._lock_fd = None

    def close(self) -> None:
        if self.writable and self._lock_fd is not None:
            self.save()
            self._release_lock()

    def __enter__(self) -> "CacheStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def save(self) -> None:
        """Compact: write the whole manifest, then drop the journal.  A crash
        in between leaves a journal that replays to what was just saved."""
        assert self.writable, "read-only store"
        save_manifest(self.root, self.manifest)
        _journal_path(self.root).unlink(missing_ok=True)

    def _clear_crash_leftovers(self) -> None:
        """Cut a torn journal tail and delete what tmp/ holds.  Under the
        writer lock nothing in tmp/ belongs to a live write."""
        journal = _journal_path(self.root)
        if journal.is_file():
            _, good = _read_journal(self.root)
            torn = journal.stat().st_size - good
            if torn:
                logger.warning("cutting %d torn or damaged bytes off %s", torn, journal)
                os.truncate(journal, good)
        tmp = self.root / "tmp"
        tmp.mkdir(exist_ok=True)
        for path in tmp.iterdir():
            logger.info("deleting %s, left by an interrupted write", path.name)
            path.unlink()

    # -- data plane ----------------------------------------------------

    def _checkpoint(self, stage: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(stage)

    def put(self, node_name: str, signature: str, payload: bytes,
            compute_seconds: float, charged_bytes: int | None = None) -> CacheEntry:
        """Persist one payload under its signature.

        Re-putting an existing signature is a no-op (content addressing:
        equal signature means equal bytes).  The payload becomes durable
        before the journal mentions it.
        """
        assert self.writable, "read-only store"
        self._checkpoint("put-start")
        existing = self.manifest.entries.get(signature)
        if existing is not None:
            return existing

        final = self.root / _payload_path(signature)
        for directory in (final.parent.parent, final.parent):
            try:
                directory.mkdir()
            except FileExistsError:
                continue
            _fsync_dir(directory.parent)  # the new name must survive a power cut
        self._checkpoint("objects-dir-created")
        tmp = self.root / "tmp" / final.name
        with open(tmp, "wb") as fh:
            self._checkpoint("tmp-file-opened")
            half = len(payload) // 2
            fh.write(payload[:half])
            self._checkpoint("payload-partially-written")
            fh.write(payload[half:])
            self._checkpoint("payload-written")
            fh.flush()
            self._checkpoint("payload-flushed")
            os.fsync(fh.fileno())
            self._checkpoint("payload-fsynced")
        self._checkpoint("payload-closed")
        os.replace(tmp, final)
        self._checkpoint("payload-renamed")
        _fsync_dir(final.parent)
        self._checkpoint("payload-dir-fsynced")

        entry = CacheEntry(
            signature=signature,
            node_name=node_name,
            output_bytes=len(payload),
            measured_compute_seconds=compute_seconds,
            charged_bytes=len(payload) if charged_bytes is None else charged_bytes,
        )
        self.manifest.entries[signature] = entry
        self._checkpoint("entry-recorded")
        self._append_journal(entry)
        return entry

    def _append_journal(self, entry: CacheEntry) -> None:
        """Append one durable ``[signature, entry]`` line to the journal."""
        line = json.dumps([entry.signature, entry.to_json()],
                          separators=(",", ":")).encode() + b"\n"
        with open(_journal_path(self.root), "ab") as fh:
            created = fh.tell() == 0
            half = len(line) // 2
            fh.write(line[:half])
            self._checkpoint("journal-partially-appended")
            fh.write(line[half:])
            self._checkpoint("journal-appended")
            fh.flush()
            os.fsync(fh.fileno())
            self._checkpoint("journal-fsynced")
        if created:  # the journal's own name must survive a power cut too
            _fsync_dir(self.root)

    def get(self, signature: str) -> bytes:
        """Read a payload back, failing loudly if it is missing or torn."""
        entry = self.manifest.entries.get(signature)
        if entry is None:
            raise CacheError(f"no cache entry for signature {signature}")
        path = self.root / entry.payload_path
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            raise CacheError(f"cache entry {signature} is corrupt: payload file missing") from None
        if len(payload) != entry.output_bytes:
            raise CacheError(f"cache entry {signature} is corrupt: size mismatch: "
                             f"manifest says {entry.output_bytes}, file has {len(payload)}")
        return payload

    # -- maintenance ---------------------------------------------------

    def entries(self) -> Iterator[CacheEntry]:
        for sig in sorted(self.manifest.entries):
            yield self.manifest.entries[sig]

    def intact(self, entry: CacheEntry) -> bool:
        """Whether ``entry``'s payload file is there with its recorded size."""
        path = self.root / entry.payload_path
        return path.is_file() and path.stat().st_size == entry.output_bytes

    def gc(self, keep_latest: bool = False) -> list[str]:
        """Drop every entry whose payload is missing or has the wrong size
        and, with ``keep_latest``, every entry the last successful run did not
        use; then delete unreferenced files under objects/ and old-style
        manifest temp files.  Returns the dropped signatures."""
        assert self.writable, "read-only store"
        latest = set(self.manifest.previous_signatures.values())
        removed = []
        for sig, entry in sorted(self.manifest.entries.items()):
            if not self.intact(entry) or (keep_latest and sig not in latest):
                del self.manifest.entries[sig]
                removed.append(sig)
        # Entries first, payloads second: a crash in between leaves only
        # unreferenced files, which the next gc deletes.
        self.save()
        referenced = {self.root / e.payload_path for e in self.manifest.entries.values()}
        files = [*(self.root / "objects").glob("*/*"), *self.root.glob("manifest.tmp.*")]
        for path in files:
            if path not in referenced:
                path.unlink()
        return removed
