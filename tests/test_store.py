import json
import os

import pytest

from iterflow.errors import (
    CacheLockedError,
    CorruptEntryError,
    EntryNotFoundError,
    VersionMismatchError,
)
from iterflow.store import CacheManifest, CacheStore, load_manifest, save_manifest

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
            with pytest.raises(EntryNotFoundError):
                store.get(SIG_B)

    def test_size_mismatch_is_corrupt(self, root):
        with CacheStore(root) as store:
            entry = store.put("node", SIG_A, b"12345678", 1.0)
            (root / entry.payload_path).write_bytes(b"1234567")
            with pytest.raises(CorruptEntryError):
                store.get(SIG_A)

    def test_load_time_moving_average(self, root):
        with CacheStore(root) as store:
            store.record_costs("node", 1.0, 4)
            store.record_load("node", 4.0)
            assert store.manifest.cost_history["node"].load_seconds == 4.0
            store.record_load("node", 2.0)
            assert store.manifest.cost_history["node"].load_seconds == 3.0


class TestManifest:
    def test_fresh_directory_is_a_cold_start(self, root):
        manifest = load_manifest(root)
        assert manifest.entries == {}
        assert manifest.previous_signatures == {}

    def test_save_load_round_trip(self, root):
        with CacheStore(root) as store:
            store.put("node", SIG_A, b"abc", 2.5)
            store.manifest.previous_signatures = {"node": SIG_A}
            store.record_costs("node", 2.5, 3)
        reloaded = load_manifest(root)
        assert reloaded.to_json() == load_manifest(root).to_json()
        assert reloaded.previous_signatures == {"node": SIG_A}
        assert reloaded.entries[SIG_A].output_bytes == 3
        assert reloaded.cost_history["node"].compute_seconds == 2.5

    def test_newer_format_version_rejected(self, root):
        root.mkdir(parents=True)
        (root / "manifest.json").write_text(json.dumps({"format_version": 99}))
        with pytest.raises(VersionMismatchError):
            load_manifest(root)

    def test_different_hash_algorithm_invalidates(self, root):
        save_manifest(root, CacheManifest(hash_algorithm="md5"))
        manifest = load_manifest(root)
        assert manifest.hash_algorithm == "sha256"
        assert manifest.entries == {}


class TestLocking:
    def test_second_writer_is_rejected_with_holder(self, root):
        with CacheStore(root):
            with pytest.raises(CacheLockedError) as err:
                CacheStore(root)
            assert err.value.holder_pid == os.getpid()

    def test_lock_released_on_close(self, root):
        with CacheStore(root) as store:
            store.put("node", SIG_A, b"x", 1.0)
        with CacheStore(root) as store:
            assert store.get(SIG_A) == b"x"

    def test_failed_open_releases_the_lock(self, root):
        root.mkdir(parents=True)
        (root / "manifest.json").write_text(json.dumps({"format_version": 99}))
        for _ in range(2):
            with pytest.raises(VersionMismatchError):
                CacheStore(root)

    def test_readers_need_no_lock(self, root):
        with CacheStore(root) as store:
            store.put("node", SIG_A, b"x", 1.0)
            reader = CacheStore(root, writable=False)
            assert reader.get(SIG_A) == b"x"


class TestRecovery:
    def test_orphan_payload_swept_on_open(self, root):
        with CacheStore(root) as store:
            store.put("node", SIG_A, b"keep", 1.0)
        orphan = root / "objects" / SIG_B[:2] / f"{SIG_B}.bin"
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"zombie")
        with CacheStore(root):
            pass
        assert not orphan.exists()
        verify_consistent(root)

    def test_stale_manifest_temp_swept_on_writable_open(self, root):
        # A writer that died between writing and renaming its manifest temp
        # file; its pid differs from ours, so no later save reuses the name.
        with CacheStore(root) as store:
            store.put("node", SIG_A, b"keep", 1.0)
        stale = root / "manifest.tmp.999999"
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
        (root / entry.payload_path).write_bytes(b"123")
        with CacheStore(root) as store:
            assert SIG_A not in store.manifest.entries
        verify_consistent(root)

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


def test_put_exposes_at_least_ten_injection_points(tmp_path):
    stages = collect_put_stages(tmp_path / "probe")
    assert len(stages) >= 10
    assert len(set(stages)) == len(stages)


@pytest.mark.parametrize("stage_index", range(12))
def test_crash_at_every_write_boundary_leaves_store_consistent(tmp_path, stage_index):
    probe_root = tmp_path / "probe"
    stages = collect_put_stages(probe_root)
    if stage_index >= len(stages):
        pytest.skip("fewer stages than probed")
    target = stages[stage_index]

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
        manifest = verify_consistent(root)
        # the pre-existing entry must have survived every crash point
        assert SIG_B in manifest.entries
        assert reopened.get(SIG_B) == b"pre-existing"
    objects = root / "objects"
    leftovers = [p for p in objects.rglob("*.tmp.*")] if objects.is_dir() else []
    assert leftovers == []
