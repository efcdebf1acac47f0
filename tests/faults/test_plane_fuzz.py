"""Round-trip fuzzing of the ``.rgpl`` answer-plane format (version 2).

Like ``.rgix``, the header digest plus the payload checksum cover every
byte after the magic, so *any* corruption — a single flipped bit
anywhere, any truncation, a foreign magic — must surface as the typed
:class:`SnapshotError` at load.  The plane's cells decode lazily, on
first probe, so the load-time checks are the only thing between a
malformed file and a probe that fails mid-request: a payload that was
re-signed (valid checksums) yet holds an out-of-range entry id, country
id or cell id must fail at load too.  All mutations derive from
``CHAOS_SEED``.
"""

import hashlib
import json
import random
import struct

import pytest

from repro.serve import SnapshotError, load_plane, save_plane

from tests.faults.conftest import CHAOS_SEED


@pytest.fixture(scope="module")
def plane_file(answer_plane, tmp_path_factory):
    """The plane written once; each fuzz case copies its bytes."""
    path = tmp_path_factory.mktemp("plane-fuzz") / "plane.rgpl"
    save_plane(answer_plane, path)
    return path


def _split(blob):
    (header_len,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[40 : 40 + header_len])
    return header, bytearray(blob[40 + header_len :])


def _resign(header, payload):
    """A file whose digests are valid for ``header`` and ``payload``."""
    header = dict(header, payload_bytes=len(payload))
    header["checksum_sha256"] = hashlib.sha256(payload).hexdigest()
    encoded = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    return b"".join(
        (
            b"RGPL",
            struct.pack("<I", len(encoded)),
            hashlib.sha256(encoded).digest(),
            encoded,
            bytes(payload),
        )
    )


class TestRoundTrip:
    def test_pristine_bytes_round_trip(
        self, plane_file, compiled_indexes, answer_plane, probe_addresses
    ):
        loaded = load_plane(plane_file, indexes=compiled_indexes)
        for addr in probe_addresses[:2000]:
            assert loaded.probe(addr) == answer_plane.probe(addr)

    def test_resign_helper_is_faithful(self, plane_file):
        header, payload = _split(plane_file.read_bytes())
        assert _resign(header, payload) == plane_file.read_bytes()


class TestFuzz:
    def _fuzz(self, plane_file, compiled_indexes, tmp_path, mutate, cases):
        pristine = plane_file.read_bytes()
        rng = random.Random(f"{CHAOS_SEED}|plane|{mutate.__name__}")
        for case in range(cases):
            mutated = mutate(pristine, rng)
            assert mutated != pristine
            target = tmp_path / f"case{case}.rgpl"
            target.write_bytes(mutated)
            # Strictly the typed error, and at load: nothing else
            # (struct.error, a silent success) may get through.
            with pytest.raises(SnapshotError):
                load_plane(target, indexes=compiled_indexes)

    def test_every_single_bitflip_is_detected(
        self, plane_file, compiled_indexes, tmp_path
    ):
        def flip_one_bit(blob, rng):
            bit = rng.randrange(len(blob) * 8)
            mutated = bytearray(blob)
            mutated[bit // 8] ^= 1 << (bit % 8)
            return bytes(mutated)

        self._fuzz(plane_file, compiled_indexes, tmp_path, flip_one_bit, cases=120)

    def test_every_truncation_is_detected(self, plane_file, compiled_indexes, tmp_path):
        def truncate(blob, rng):
            return blob[: rng.randrange(len(blob))]

        self._fuzz(plane_file, compiled_indexes, tmp_path, truncate, cases=60)

    def test_wrong_magic_is_detected(self, plane_file, compiled_indexes, tmp_path):
        def swap_magic(blob, rng):
            magic = bytes(rng.randrange(256) for _ in range(4))
            return (magic if magic != blob[:4] else b"NOPE") + blob[4:]

        self._fuzz(plane_file, compiled_indexes, tmp_path, swap_magic, cases=20)

    def test_random_garbage_is_detected(self, plane_file, compiled_indexes, tmp_path):
        def garbage(blob, rng):
            return rng.randbytes(rng.randrange(1, len(blob)))

        self._fuzz(plane_file, compiled_indexes, tmp_path, garbage, cases=20)

    def test_mutations_in_the_header_are_detected(
        self, plane_file, compiled_indexes, tmp_path
    ):
        """The length field, the stored digest, and the JSON header."""

        def corrupt_prefix(blob, rng):
            offset = rng.randrange(4, 400)
            mutated = bytearray(blob)
            mutated[offset] ^= 1 << rng.randrange(8)
            return bytes(mutated)

        self._fuzz(plane_file, compiled_indexes, tmp_path, corrupt_prefix, cases=60)


class TestResignedPayloads:
    """Valid checksums over malformed content: caught by the load-time
    range check, before any cell is decoded."""

    @staticmethod
    def _layout(header):
        intervals, cells = header["intervals"], header["cells"]
        vendors = len(header["vendors"])
        entry_ids = 8 * intervals + 16 * cells  # after starts, cell ids, lat/lon
        country_ids = entry_ids + 4 * vendors * cells
        return intervals, cells, vendors, entry_ids, country_ids

    def _load_mutated(self, plane_file, compiled_indexes, tmp_path, mutate):
        header, payload = _split(plane_file.read_bytes())
        mutate(header, payload)
        target = tmp_path / "resigned.rgpl"
        target.write_bytes(_resign(header, payload))
        with pytest.raises(SnapshotError, match="invalid answer plane"):
            load_plane(target, indexes=compiled_indexes)

    @pytest.mark.parametrize("vendor", [0, 3])
    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("too", ["high", "low"])
    def test_out_of_range_entry_id(
        self, plane_file, compiled_indexes, tmp_path, vendor, where, too
    ):
        def mutate(header, payload):
            _, cells, _, entry_ids, _ = self._layout(header)
            name = header["vendors"][vendor]
            cell = 0 if where == "first" else cells - 1
            value = compiled_indexes[name].entry_count if too == "high" else -2
            struct.pack_into("<i", payload, entry_ids + 4 * (vendor * cells + cell), value)

        self._load_mutated(plane_file, compiled_indexes, tmp_path, mutate)

    @pytest.mark.parametrize("too", ["high", "low"])
    def test_out_of_range_country_id(self, plane_file, compiled_indexes, tmp_path, too):
        def mutate(header, payload):
            _, cells, _, _, country_ids = self._layout(header)
            value = len(header["countries"]) if too == "high" else -2
            struct.pack_into("<h", payload, country_ids + 2 * (cells // 2), value)

        self._load_mutated(plane_file, compiled_indexes, tmp_path, mutate)

    def test_shrunk_country_table(self, plane_file, compiled_indexes, tmp_path):
        def mutate(header, payload):
            header["countries"] = header["countries"][:1]

        self._load_mutated(plane_file, compiled_indexes, tmp_path, mutate)

    def test_out_of_range_cell_id(self, plane_file, compiled_indexes, tmp_path):
        def mutate(header, payload):
            intervals, cells, *_ = self._layout(header)
            struct.pack_into("<I", payload, 4 * intervals + 4 * (intervals // 2), cells)

        self._load_mutated(plane_file, compiled_indexes, tmp_path, mutate)

    def test_out_of_range_latitude(self, plane_file, compiled_indexes, tmp_path):
        def mutate(header, payload):
            intervals, *_ = self._layout(header)
            struct.pack_into("<d", payload, 8 * intervals, float("nan"))

        self._load_mutated(plane_file, compiled_indexes, tmp_path, mutate)

    def test_counts_that_do_not_fill_the_payload(
        self, plane_file, compiled_indexes, tmp_path
    ):
        def mutate(header, payload):
            header["cells"] += 1

        self._load_mutated(plane_file, compiled_indexes, tmp_path, mutate)


def test_version_one_plane_asks_for_a_recompile(
    plane_file, compiled_indexes, tmp_path
):
    header, payload = _split(plane_file.read_bytes())
    target = tmp_path / "v1.rgpl"
    target.write_bytes(_resign(dict(header, version=1), payload))
    with pytest.raises(SnapshotError, match=r"version 1.*recompile"):
        load_plane(target, indexes=compiled_indexes)
