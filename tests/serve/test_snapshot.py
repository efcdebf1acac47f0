"""Snapshot persistence: round-trips, checksums, and refusal to serve
anything it cannot trust."""

import hashlib
import struct
import tracemalloc

import pytest

from repro.serve import (
    SNAPSHOT_SUFFIX,
    SnapshotError,
    load_index,
    load_index_set,
    load_plane,
    save_index,
    save_index_set,
    save_plane,
)


class TestRoundTrip:
    def test_save_load_answers_identically(
        self, compiled_indexes, probe_addresses, tmp_path
    ):
        """The acceptance property: compile → save → load answers exactly
        like the in-memory index (hence like the original database)."""
        for name, index in compiled_indexes.items():
            loaded = load_index(
                save_index(index, tmp_path / f"{name}{SNAPSHOT_SUFFIX}"),
                expect_name=name,
            )
            assert loaded.name == index.name
            assert loaded.source_entries == index.source_entries
            assert loaded.interval_count == index.interval_count
            for addr in probe_addresses[:5000]:
                assert loaded.probe(addr) == index.probe(addr)

    def test_loaded_set_footprint_is_pinned(
        self, compiled_indexes, answer_plane, tmp_path
    ):
        """What a server retains after loading the test scenario's
        snapshot set and plane (seed 2016, scale 0.08): 732,293 bytes
        with 4-byte interval arrays, against 1,078,574 when the interval
        columns were lists.  The bound is that measurement plus 20%."""
        root = save_index_set(compiled_indexes, tmp_path)
        save_plane(answer_plane, root / "plane.rgpl")
        tracemalloc.start()
        try:
            indexes = load_index_set(root)
            plane = load_plane(root / "plane.rgpl", indexes=indexes)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plane.interval_count == answer_plane.interval_count
        assert retained < 880_000

    def test_index_set_round_trip(self, compiled_indexes, tmp_path):
        root = save_index_set(compiled_indexes, tmp_path / "snapshots")
        loaded = load_index_set(root)
        assert set(loaded) == set(compiled_indexes)
        for name in loaded:
            assert loaded[name].interval_count == compiled_indexes[name].interval_count


class TestRefusals:
    @pytest.fixture()
    def snapshot(self, compiled_indexes, tmp_path):
        name, index = next(iter(compiled_indexes.items()))
        return save_index(index, tmp_path / f"{name}{SNAPSHOT_SUFFIX}"), name

    def test_wrong_database_name_rejected(self, snapshot):
        path, _ = snapshot
        with pytest.raises(SnapshotError, match="expected 'SomethingElse'"):
            load_index(path, expect_name="SomethingElse")

    def test_corrupt_payload_fails_checksum(self, snapshot):
        path, name = snapshot
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="checksum"):
            load_index(path, expect_name=name)

    def test_truncated_payload_rejected(self, snapshot):
        path, name = snapshot
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(SnapshotError, match="truncated"):
            load_index(path, expect_name=name)

    def test_bad_magic_rejected(self, snapshot):
        path, name = snapshot
        path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        with pytest.raises(SnapshotError, match="bad magic"):
            load_index(path, expect_name=name)

    def test_unknown_format_version_rejected(self, snapshot):
        # Format v2 digests the header, so the rewrite must re-sign it —
        # the tampered version only gets as far as the version check.
        path, name = snapshot
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 4)
        header = blob[40 : 40 + header_len].replace(b'"version":2', b'"version":99')
        path.write_bytes(
            blob[:4]
            + struct.pack("<I", len(header))
            + hashlib.sha256(header).digest()
            + header
            + blob[40 + header_len :]
        )
        with pytest.raises(SnapshotError, match="version"):
            load_index(path)

    def test_tampered_header_fails_header_checksum(self, snapshot):
        # The same tamper *without* re-signing must die on the digest —
        # v1 would have trusted it.
        path, name = snapshot
        blob = bytearray(path.read_bytes())
        blob[45] ^= 0x01  # one bit inside the JSON header
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="header checksum"):
            load_index(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_index(tmp_path / "absent.rgix")

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="no .* snapshots"):
            load_index_set(tmp_path)
