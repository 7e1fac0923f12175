import json
import os
import tempfile
from pathlib import Path

import pytest

from iterflow.errors import CacheError, CacheLockedError
from iterflow import store as store_module
from iterflow.runner import record_load
from iterflow.store import (
    CacheEntry,
    CacheManifest,
    CacheStore,
    HistoryRecord,
    load_manifest,
    save_manifest,
)

SIG_A = "aa" * 32
SIG_B = "bb" * 32


@pytest.fixture
def root(tmp_path):
    return tmp_path / "cache"


def verify_consistent(root):
    """Every manifest entry must point at an existing, size-correct payload,
    and no stray files may linger in the object tree after recovery."""
    manifest = load_manifest(root)
    for entry in manifest.entries.values():
        payload = root / entry.payload_path
        assert payload.is_file(), f"missing payload {entry.payload_path}"
        assert payload.stat().st_size == entry.output_bytes
    return manifest


class TestPutGet:
    def test_round_trip(self, root):
        with CacheStore(root) as store:
            entry = store.put("node", SIG_A, b"x" * 1024, compute_seconds=1.5)
            assert entry.output_bytes == 1024
            assert (root / entry.payload_path).is_file()
            assert store.get(SIG_A) == b"x" * 1024

    def test_put_same_signature_twice_is_idempotent(self, root):
        with CacheStore(root) as store:
            first = store.put("node", SIG_A, b"payload", 1.0)
            second = store.put("node", SIG_A, b"payload", 2.0)
            assert first == second
            assert len(store.manifest.entries) == 1

    def test_get_unknown_signature(self, root):
        with CacheStore(root) as store:
            with pytest.raises(CacheError, match=f"no cache entry for signature {SIG_B}"):
                store.get(SIG_B)

    def test_payload_path_on_disk_is_ignored(self, root, tmp_path):
        with CacheStore(root) as store:
            store.put("node", SIG_A, b"inside", 1.0)
        outside = tmp_path / "outside.bin"
        outside.write_bytes(b"EVIL!!")  # the same size as the payload
        doc = json.loads((root / "manifest.json").read_text())
        doc["entries"][SIG_A]["payload_path"] = str(outside)
        (root / "manifest.json").write_text(json.dumps(doc))
        with CacheStore(root) as store:
            assert store.get(SIG_A) == b"inside"
            assert store.gc() == []
            assert store.get(SIG_A) == b"inside"
        assert outside.read_bytes() == b"EVIL!!"

    def test_size_mismatch_is_corrupt(self, root):
        with CacheStore(root) as store:
            entry = store.put("node", SIG_A, b"12345678", 1.0)
            (root / entry.payload_path).write_bytes(b"1234567")
            with pytest.raises(CacheError, match="is corrupt: size mismatch"):
                store.get(SIG_A)

    def test_load_time_moving_average(self):
        history = {"node": HistoryRecord(compute_seconds=1.0, output_bytes=4)}
        record_load(history, "node", 4.0)
        assert history["node"].load_seconds == 4.0
        record_load(history, "node", 2.0)
        assert history["node"].load_seconds == 3.0
        record_load(history, "other", 2.0)  # a name without history gets none
        assert list(history) == ["node"]


class TestManifest:
    def test_fresh_directory_is_a_cold_start(self, root):
        manifest = load_manifest(root)
        assert manifest.entries == {}
        assert manifest.previous_signatures == {}

    def test_save_load_round_trip(self, root):
        with CacheStore(root) as store:
            store.put("node", SIG_A, b"abc", 2.5)
            store.manifest.previous_signatures = {"node": SIG_A}
            store.manifest.cost_history["node"] = HistoryRecord(2.5, output_bytes=3)
        reloaded = load_manifest(root)
        assert reloaded.to_json() == load_manifest(root).to_json()
        assert reloaded.previous_signatures == {"node": SIG_A}
        assert reloaded.entries[SIG_A].output_bytes == 3
        assert reloaded.cost_history["node"].compute_seconds == 2.5

    def test_newer_format_version_rejected(self, root):
        root.mkdir(parents=True)
        (root / "manifest.json").write_text(json.dumps({"format_version": 99}))
        with pytest.raises(CacheError, match="format 99 is newer than supported format 1"):
            load_manifest(root)

    def _saved_manifest(self, root) -> dict:
        with CacheStore(root) as store:
            store.put("node", SIG_A, b"abc", 2.5)
            store.manifest.cost_history["node"] = HistoryRecord(2.5, output_bytes=3)
        return json.loads((root / "manifest.json").read_text())

    def test_manifest_without_hash_algorithm_keeps_its_entries(self, root):
        doc = self._saved_manifest(root)
        doc.pop("hash_algorithm", None)
        (root / "manifest.json").write_text(json.dumps(doc))
        manifest = load_manifest(root)
        assert list(manifest.entries) == [SIG_A]
        assert list(manifest.cost_history) == ["node"]

    def test_manifest_that_still_names_a_hash_algorithm_opens_unchanged(self, root):
        doc = self._saved_manifest(root)
        assert "hash_algorithm" not in doc
        (root / "manifest.json").write_text(json.dumps({**doc, "hash_algorithm": "sha256"}))
        assert load_manifest(root).to_json() == doc


class TestLocking:
    def test_second_writer_is_rejected_with_holder(self, root):
        with CacheStore(root):
            with pytest.raises(CacheLockedError) as err:
                CacheStore(root)
            assert err.value.holder_pid == os.getpid()

    def test_unreadable_holder_is_reported_as_unknown(self, root):
        with CacheStore(root):
            (root / ".lock").write_bytes(b"garbage\n")
            with pytest.raises(CacheLockedError) as err:
                CacheStore(root)
            assert err.value.holder_pid is None

    def test_closed_store_leaves_an_empty_lock_file(self, root):
        with CacheStore(root):
            assert (root / ".lock").read_bytes() == f"{os.getpid()}\n".encode()
        assert (root / ".lock").read_bytes() == b""

    def test_lock_released_on_close(self, root):
        with CacheStore(root) as store:
            store.put("node", SIG_A, b"x", 1.0)
        with CacheStore(root) as store:
            assert store.get(SIG_A) == b"x"

    def test_failed_open_releases_the_lock(self, root):
        root.mkdir(parents=True)
        (root / "manifest.json").write_text(json.dumps({"format_version": 99}))
        for _ in range(2):
            with pytest.raises(CacheError, match="is newer than supported format"):
                CacheStore(root)

    def test_readers_need_no_lock(self, root):
        with CacheStore(root) as store:
            store.put("node", SIG_A, b"x", 1.0)
            reader = CacheStore(root, writable=False)
            assert reader.get(SIG_A) == b"x"


class TestRecovery:
    def test_orphan_payload_swept_by_gc(self, root):
        with CacheStore(root) as store:
            store.put("node", SIG_A, b"keep", 1.0)
        orphan = root / "objects" / SIG_B[:2] / f"{SIG_B}.bin"
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"zombie")
        # temp files as older versions named them
        old_temps = [root / "objects" / SIG_A[:2] / f"{SIG_A}.bin.tmp.999999",
                     root / "manifest.tmp.999999"]
        for path in old_temps:
            path.write_bytes(b"half")
        with CacheStore(root):
            pass
        assert all(path.exists() for path in [orphan, *old_temps])
        with CacheStore(root) as store:
            assert store.gc() == []
        assert not any(path.exists() for path in [orphan, *old_temps])
        assert set(verify_consistent(root).entries) == {SIG_A}

    def test_stale_manifest_temp_swept_on_writable_open(self, root):
        # A writer that died between writing and renaming its manifest temp
        # file; its pid differs from ours, so no later save reuses the name.
        with CacheStore(root) as store:
            store.put("node", SIG_A, b"keep", 1.0)
        stale = root / "tmp" / "manifest.json.999999"
        stale.write_text("{}")
        CacheStore(root, writable=False)
        assert stale.exists()
        with CacheStore(root):
            pass
        assert not stale.exists()
        verify_consistent(root)

    def test_truncated_payload_drops_entry(self, root):
        with CacheStore(root) as store:
            entry = store.put("node", SIG_A, b"12345678", 1.0)
            store.put("node", SIG_B, b"intact", 1.0)
        payload = root / entry.payload_path
        payload.write_bytes(b"123")
        with CacheStore(root) as store:
            assert SIG_A in store.manifest.entries  # the open checks no payload
            assert store.gc() == [SIG_A]
        assert not payload.exists()
        assert set(verify_consistent(root).entries) == {SIG_B}

    def test_gc_keep_latest_drops_unreferenced(self, root):
        with CacheStore(root) as store:
            store.put("node", SIG_A, b"old", 1.0)
            store.put("node", SIG_B, b"new", 1.0)
            store.manifest.previous_signatures = {"node": SIG_B}
            removed = store.gc(keep_latest=True)
        assert removed == [SIG_A]
        manifest = verify_consistent(root)
        assert set(manifest.entries) == {SIG_B}


class _InjectedCrash(RuntimeError):
    pass


def collect_put_stages(root):
    stages = []
    with CacheStore(root) as store:
        store.fault_hook = stages.append
        store.put("node", SIG_A, b"payload-bytes" * 50, 1.0)
    return stages


# Probed once, so the crash test below covers every stage a put has.
with tempfile.TemporaryDirectory() as _probe:
    PUT_STAGES = collect_put_stages(Path(_probe) / "probe")


def test_put_exposes_at_least_ten_injection_points():
    assert len(PUT_STAGES) >= 10
    assert len(set(PUT_STAGES)) == len(PUT_STAGES)


@pytest.mark.parametrize("target", PUT_STAGES, ids=[str(i) for i in range(len(PUT_STAGES))])
def test_crash_at_every_write_boundary_leaves_store_consistent(tmp_path, target):
    root = tmp_path / "cache"
    with CacheStore(root) as store:
        store.put("other", SIG_B, b"pre-existing", 1.0)

    store = CacheStore(root)

    def crash(stage):
        if stage == target:
            raise _InjectedCrash(stage)

    store.fault_hook = crash
    with pytest.raises(_InjectedCrash):
        store.put("node", SIG_A, b"payload-bytes" * 50, 1.0)
    # simulate process death: no close(), no unlock, just drop the handle
    os.close(store._lock_fd)
    store._lock_fd = None

    with CacheStore(root) as reopened:
        assert list((root / "tmp").iterdir()) == []
        manifest = verify_consistent(root)
        # the pre-existing entry must have survived every crash point
        assert SIG_B in manifest.entries
        assert reopened.get(SIG_B) == b"pre-existing"
    objects = root / "objects"
    leftovers = [p for p in objects.rglob("*.tmp.*")] if objects.is_dir() else []
    assert leftovers == []


def test_put_makes_new_directories_durable_before_its_journal_line(root, monkeypatch):
    events = []
    fsync_dir, append = store_module._fsync_dir, CacheStore._append_journal
    monkeypatch.setattr(store_module, "_fsync_dir",
                        lambda path: (events.append(path), fsync_dir(path)))
    monkeypatch.setattr(CacheStore, "_append_journal",
                        lambda self, entry: (events.append("journal"), append(self, entry)))
    objects = root / "objects"
    with CacheStore(root) as store:
        # makes objects/ and objects/aa/, and starts the journal
        store.put("node", SIG_A, b"x", 1.0)
        assert events == [root, objects, objects / "aa", "journal", root]
        events.clear()
        store.put("node", "aa" + SIG_B[2:], b"y", 1.0)
        assert events == [objects / "aa", "journal"]
        events.clear()
        store.put("node", SIG_B, b"z", 1.0)  # makes objects/bb/
        assert events == [objects, objects / "bb", "journal"]


def sig(i: int) -> str:
    return f"{i:064x}"


def journal_line(signature, entry) -> bytes:
    return json.dumps([signature, entry]).encode() + b"\n"


JOURNAL_ENTRY = {"node_name": "c", "payload_path": f"objects/cc/{'cc' * 32}.bin",
                 "output_bytes": 1, "measured_compute_seconds": 1.0, "charged_bytes": 1}


def kill(store: CacheStore) -> None:
    """Drop a writable store the way a killed process would: no close()."""
    os.close(store._lock_fd)
    store._lock_fd = None


class TestJournal:
    def journal(self, root):
        return root / "manifest.journal"

    def test_put_appends_instead_of_saving_the_manifest(self, root, monkeypatch):
        saves = []
        monkeypatch.setattr(store_module, "save_manifest",
                            lambda *args, **kwargs: saves.append(args))
        store = CacheStore(root)
        store.put("node", SIG_A, b"x", 1.0)
        store.put("node", SIG_B, b"y", 1.0)
        assert saves == []
        assert len(self.journal(root).read_bytes().splitlines()) == 2
        kill(store)

    def test_bytes_appended_per_put_do_not_grow_with_the_cache(self, root):
        appended = []
        for size in (10, 1000):
            cache = root / str(size)
            manifest = CacheManifest()
            for i in range(size):
                path = f"objects/{sig(i)[:2]}/{sig(i)}.bin"
                (cache / path).parent.mkdir(parents=True, exist_ok=True)
                (cache / path).write_bytes(b"p")
                manifest.entries[sig(i)] = CacheEntry(sig(i), "node", 1, 1.0, 1)
            save_manifest(cache, manifest)
            store = CacheStore(cache)
            assert len(store.manifest.entries) == size
            store.put("node", SIG_A, b"x", 1.0)
            appended.append(self.journal(cache).stat().st_size)
            kill(store)
        assert appended[0] == appended[1]

    def test_writable_open_does_not_grow_with_the_cache(self, root, monkeypatch):
        calls = []

        def counted(name):
            original = getattr(Path, name)

            def call(self, *args, **kwargs):
                calls.append(name)
                return original(self, *args, **kwargs)
            return call

        for name in ("stat", "is_file", "glob", "iterdir"):
            monkeypatch.setattr(Path, name, counted(name))
        counts = []
        for size in (10, 1000):
            cache = root / str(size)
            manifest = CacheManifest()
            for i in range(size):
                path = f"objects/{sig(i)[:2]}/{sig(i)}.bin"
                (cache / path).parent.mkdir(parents=True, exist_ok=True)
                (cache / path).write_bytes(b"p")
                manifest.entries[sig(i)] = CacheEntry(sig(i), "node", 1, 1.0, 1)
            save_manifest(cache, manifest)
            calls.clear()
            store = CacheStore(cache)
            counts.append(sorted(calls))
            assert len(store.manifest.entries) == size
            kill(store)
        assert counts[0] == counts[1]

    def test_torn_tail_is_ignored_by_readers_and_cut_by_writers(self, root):
        store = CacheStore(root)
        store.put("node", SIG_A, b"x", 1.0)
        kill(store)
        journal = self.journal(root)
        whole = journal.read_bytes()
        torn = whole + b'["' + SIG_B.encode()
        journal.write_bytes(torn)

        assert set(load_manifest(root).entries) == {SIG_A}
        assert set(CacheStore(root, writable=False).manifest.entries) == {SIG_A}
        assert journal.read_bytes() == torn

        store = CacheStore(root)
        assert journal.read_bytes() == whole
        assert set(store.manifest.entries) == {SIG_A}
        kill(store)

    @pytest.mark.parametrize("damaged", [
        b"not json\n",
        journal_line("cc" * 32, {**JOURNAL_ENTRY, "measured_compute_seconds": "x"}),
        journal_line("../../x", JOURNAL_ENTRY),
        journal_line("cc" * 32, "x"),
    ], ids=["not-json", "mistyped-value", "non-hex-key", "non-object-entry"])
    def test_replay_stops_at_the_first_line_that_does_not_parse(self, root, damaged):
        store = CacheStore(root)
        store.put("a", SIG_A, b"x", 1.0)
        store.put("b", SIG_B, b"y", 1.0)
        kill(store)
        first, second = self.journal(root).read_bytes().splitlines(keepends=True)
        self.journal(root).write_bytes(first + damaged + second)
        assert set(load_manifest(root).entries) == {SIG_A}
        with CacheStore(root) as store:
            assert self.journal(root).read_bytes() == first
            assert set(store.manifest.entries) == {SIG_A}

    def test_killed_writer_keeps_its_puts(self, root):
        with CacheStore(root) as store:
            store.put("old", SIG_A, b"closed", 1.0)
        store = CacheStore(root)
        store.put("new", SIG_B, b"journaled", 1.0)
        kill(store)
        assert self.journal(root).is_file()
        assert set(json.loads((root / "manifest.json").read_text())["entries"]) == {SIG_A}

        assert set(load_manifest(root).entries) == {SIG_A, SIG_B}
        with CacheStore(root) as store:
            assert store.get(SIG_B) == b"journaled"
        assert not self.journal(root).exists()
        assert set(verify_consistent(root).entries) == {SIG_A, SIG_B}

    def test_journal_left_beside_a_compacted_manifest_replays_to_it(self, root):
        # A crash between the manifest's rename and the journal's unlink.
        store = CacheStore(root)
        store.put("a", SIG_A, b"x", 1.0)
        store.put("b", SIG_B, b"y", 1.0)
        journal = self.journal(root).read_bytes()
        store.close()
        compacted = load_manifest(root).to_json()
        self.journal(root).write_bytes(journal)
        assert load_manifest(root).to_json() == compacted
        with CacheStore(root) as store:
            assert store.manifest.to_json() == compacted

    def test_gc_keep_latest_leaves_no_journal(self, root):
        store = CacheStore(root)
        store.put("node", SIG_A, b"old", 1.0)
        kill(store)
        with CacheStore(root) as store:
            store.put("node", SIG_B, b"new", 1.0)
            store.manifest.previous_signatures = {"node": SIG_B}
            assert store.gc(keep_latest=True) == [SIG_A]
            assert not self.journal(root).exists()
        assert set(verify_consistent(root).entries) == {SIG_B}
