"""Content-addressed store for materialized intermediates.

Layout under the cache root:

    objects/<first two hex chars>/<signature>.bin   payload files
    manifest.json                                   index + cross-run state
    runs.log                                        one JSON report per line
    .lock                                           advisory writer lock

The manifest carries three things: the entry index (signature -> payload
metadata), the signature map of the last fully successful run, and a
per-node cost history used for planning estimates.  Writes are crash-safe
in the usual write-temp-then-rename style, payload first and manifest
second, so the manifest never references a payload that is not already
durable.  A payload that became durable right before a crash is merely an
orphan file; the next writer sweeps it away when it opens the store.

One writer at a time per cache root, enforced with flock on ``.lock``;
read-only opens take no lock and never modify anything.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from .changes import HASH_ALGORITHM
from .errors import (
    CacheLockedError,
    CorruptEntryError,
    EntryNotFoundError,
    VersionMismatchError,
)

logger = logging.getLogger(__name__)

MANIFEST_VERSION = 1

# Exponential moving average weight for observed load times.
_LOAD_EMA_ALPHA = 0.5


def _ema(previous: float | None, observed: float) -> float:
    if previous is None:
        return observed
    return _LOAD_EMA_ALPHA * observed + (1.0 - _LOAD_EMA_ALPHA) * previous


@dataclass
class CacheEntry:
    signature: str
    node_name: str
    payload_path: str  # relative to the cache root
    output_bytes: int  # actual payload file size
    measured_compute_seconds: float
    measured_load_seconds: float | None = None
    created_at: float = 0.0
    # Size charged against the storage budget; differs from output_bytes for
    # simulated operators, whose on-disk payload is a small stand-in.
    charged_bytes: int = 0

    def to_json(self) -> dict:
        return {
            "node_name": self.node_name,
            "payload_path": self.payload_path,
            "output_bytes": self.output_bytes,
            "measured_compute_seconds": self.measured_compute_seconds,
            "measured_load_seconds": self.measured_load_seconds,
            "created_at": self.created_at,
            "charged_bytes": self.charged_bytes,
        }


@dataclass
class HistoryRecord:
    """Last known costs for a node name, surviving payload eviction."""

    compute_seconds: float
    load_seconds: float | None = None  # None until a load was observed
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
    hash_algorithm: str = HASH_ALGORITHM
    entries: dict[str, CacheEntry] = field(default_factory=dict)
    previous_signatures: dict[str, str] = field(default_factory=dict)
    cost_history: dict[str, HistoryRecord] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "format_version": self.format_version,
            "hash_algorithm": self.hash_algorithm,
            "entries": {sig: e.to_json() for sig, e in sorted(self.entries.items())},
            "previous_signatures": dict(sorted(self.previous_signatures.items())),
            "cost_history": {
                name: rec.to_json() for name, rec in sorted(self.cost_history.items())
            },
        }


def _manifest_path(root: Path) -> Path:
    return root / "manifest.json"


def load_manifest(cache_root: Path | str) -> CacheManifest:
    """Read the manifest; a missing file or directory means a cold start.

    A manifest written by a newer format raises VersionMismatchError.  A
    manifest hashed with a different algorithm invalidates the whole cache:
    its entries are unusable because signatures can never match again.
    """
    path = _manifest_path(Path(cache_root))
    try:
        doc = json.loads(path.read_text("utf-8"))
    except FileNotFoundError:
        return CacheManifest()
    version = doc.get("format_version")
    if not isinstance(version, int) or version > MANIFEST_VERSION:
        raise VersionMismatchError(version, MANIFEST_VERSION)
    if doc.get("hash_algorithm") != HASH_ALGORITHM:
        logger.warning(
            "cache %s was hashed with %r, engine uses %r; starting fresh",
            cache_root, doc.get("hash_algorithm"), HASH_ALGORITHM,
        )
        return CacheManifest()
    entries = {
        sig: CacheEntry(signature=sig, **raw)
        for sig, raw in doc.get("entries", {}).items()
    }
    history = {
        name: HistoryRecord(**raw) for name, raw in doc.get("cost_history", {}).items()
    }
    return CacheManifest(
        format_version=version,
        hash_algorithm=HASH_ALGORITHM,
        entries=entries,
        previous_signatures=dict(doc.get("previous_signatures", {})),
        cost_history=history,
    )


def save_manifest(cache_root: Path | str, manifest: CacheManifest,
                  checkpoint: Callable[[str], None] | None = None) -> None:
    """Atomically replace the manifest (write temp, fsync, rename)."""
    root = Path(cache_root)
    root.mkdir(parents=True, exist_ok=True)
    path = _manifest_path(root)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    payload = json.dumps(manifest.to_json(), indent=2, sort_keys=True) + "\n"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    if checkpoint:
        checkpoint("manifest-tmp-written")
    os.replace(tmp, path)
    if checkpoint:
        checkpoint("manifest-renamed")


class CacheStore:
    """Handle on one cache root.

    Writable stores hold the advisory lock for their whole lifetime and
    sweep inconsistencies left by earlier crashes when they open.  Use as a
    context manager or call close(); the manifest is persisted on close and
    after every put.

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
        self.manifest = load_manifest(self.root)
        if writable:
            self.recover()

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

    def close(self) -> None:
        if self.writable and self._lock_fd is not None:
            self.save()
            fcntl.flock(self._lock_fd, fcntl.LOCK_UN)
            os.close(self._lock_fd)
            self._lock_fd = None

    def __enter__(self) -> "CacheStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def save(self) -> None:
        assert self.writable, "read-only store"
        save_manifest(self.root, self.manifest)

    # -- consistency ---------------------------------------------------

    def recover(self) -> list[str]:
        """Drop stale temp files, orphan payloads and broken entries.

        Returns the signatures of entries that had to be removed.  Called
        automatically when a writable store opens, so a crash mid-put never
        leaves the store referencing missing or partial data.
        """
        objects = self.root / "objects"
        removed: list[str] = []
        for sig, entry in list(self.manifest.entries.items()):
            path = self.root / entry.payload_path
            if not path.is_file() or path.stat().st_size != entry.output_bytes:
                logger.warning("dropping broken cache entry %s (%s)", sig, entry.node_name)
                self.manifest.entries.pop(sig)
                removed.append(sig)
                path.unlink(missing_ok=True)
        referenced = {self.root / e.payload_path for e in self.manifest.entries.values()}
        if objects.is_dir():
            for path in sorted(objects.glob("*/*")):
                if path not in referenced:
                    logger.info("sweeping orphan payload %s", path.name)
                    path.unlink()
        if removed:
            self.save()
        return removed

    # -- data plane ----------------------------------------------------

    def _checkpoint(self, stage: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(stage)

    def _payload_path(self, signature: str) -> Path:
        return self.root / "objects" / signature[:2] / f"{signature}.bin"

    def put(self, node_name: str, signature: str, payload: bytes,
            compute_seconds: float, charged_bytes: int | None = None) -> CacheEntry:
        """Persist one payload under its signature.

        Re-putting an existing signature is a no-op (content addressing:
        equal signature means equal bytes).  The payload becomes durable
        before the manifest mentions it.
        """
        assert self.writable, "read-only store"
        self._checkpoint("put-start")
        existing = self.manifest.entries.get(signature)
        if existing is not None:
            return existing

        final = self._payload_path(signature)
        final.parent.mkdir(parents=True, exist_ok=True)
        self._checkpoint("objects-dir-created")
        tmp = final.with_name(final.name + f".tmp.{os.getpid()}")
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

        entry = CacheEntry(
            signature=signature,
            node_name=node_name,
            payload_path=str(final.relative_to(self.root)),
            output_bytes=len(payload),
            measured_compute_seconds=compute_seconds,
            created_at=time.time(),
            charged_bytes=len(payload) if charged_bytes is None else charged_bytes,
        )
        self.manifest.entries[signature] = entry
        self._checkpoint("entry-recorded")
        save_manifest(self.root, self.manifest, self._checkpoint)
        return entry

    def get(self, signature: str, observed_seconds: float | None = None) -> bytes:
        """Read a payload back and record the observed load time.

        The entry's load-time statistic is updated with an exponential
        moving average.  Pass ``observed_seconds`` to substitute a modeled
        duration (simulated clock); by default wall time is measured.
        """
        entry = self.manifest.entries.get(signature)
        if entry is None:
            raise EntryNotFoundError(signature)
        path = self.root / entry.payload_path
        started = time.monotonic()
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            raise CorruptEntryError(signature, "payload file missing") from None
        if len(payload) != entry.output_bytes:
            raise CorruptEntryError(
                signature,
                f"size mismatch: manifest says {entry.output_bytes}, file has {len(payload)}",
            )
        observed = observed_seconds if observed_seconds is not None \
            else time.monotonic() - started
        self._record_load_time(entry, observed)
        return payload

    def _record_load_time(self, entry: CacheEntry, observed: float) -> None:
        if not self.writable:
            return
        entry.measured_load_seconds = _ema(entry.measured_load_seconds, observed)
        history = self.manifest.cost_history.get(entry.node_name)
        if history is not None:
            history.load_seconds = _ema(history.load_seconds, observed)

    def record_costs(self, node_name: str, compute_seconds: float,
                     output_bytes: int) -> None:
        """Write back the latest measured compute cost for a node name."""
        assert self.writable, "read-only store"
        history = self.manifest.cost_history.get(node_name)
        load = history.load_seconds if history else None
        self.manifest.cost_history[node_name] = HistoryRecord(
            compute_seconds=compute_seconds,
            load_seconds=load,
            output_bytes=output_bytes,
        )

    # -- maintenance ---------------------------------------------------

    def entries(self) -> Iterator[CacheEntry]:
        for sig in sorted(self.manifest.entries):
            yield self.manifest.entries[sig]

    def gc(self, keep_latest: bool = False) -> list[str]:
        """Remove broken entries and orphans; with ``keep_latest``, also
        drop every entry not referenced by the last successful run."""
        assert self.writable, "read-only store"
        removed = self.recover()
        if keep_latest:
            latest = set(self.manifest.previous_signatures.values())
            for sig in sorted(set(self.manifest.entries) - latest):
                entry = self.manifest.entries.pop(sig)
                (self.root / entry.payload_path).unlink(missing_ok=True)
                removed.append(sig)
            self.save()
        return removed
