"""Byte identity of the spliced ``/lookup`` and ``/batch`` bodies.

The HTTP layer assembles serving bodies from per-record JSON fragments
instead of dumping a payload dict.  These tests pin the result to the
definition it replaced: every body must equal ``json.dumps(payload,
sort_keys=True)`` of the payload dict the handlers used to build, on
every serving path — healthy plane (compiled, and loaded from disk
with its cells decoded lazily), live, one quarantined vendor, and a
vendor missing at load time — and for covered, uncovered,
disagreement, non-ASCII, and error addresses.
"""

import dataclasses
import json
import random
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geodb import GeoDatabase, GeoRecord, single_prefix
from repro.net.ip import parse_address
from repro.obs import MetricsRegistry
from repro.serve import (
    CompiledIndex,
    GeoServer,
    ServingEngine,
    compile_plane,
    load_index_set,
    load_plane,
    save_index_set,
    save_plane,
)
from repro.serve.engine import ResiliencePolicy
from repro.serve.http import _ANSWER_KEYS

#: Synthetic blocks appended to every vendor: non-ASCII names, JSON
#: escapes, and a block the vendors disagree on.  198.18.0.0/15 is the
#: benchmarking range, outside anything the scenario allocates.
_EXOTIC_BASE = int(parse_address("198.18.0.0"))
_EXOTIC = [
    ("198.18.0.0/24", [GeoRecord("BR", "São Paulo", "São Paulo", -23.55, -46.63)] * 4),
    (
        "198.18.1.0/24",
        [
            GeoRecord("CH", "Zürich", "Zürich", 47.37, 8.54),
            GeoRecord("RU", "Москва", "Москва", 55.75, 37.62),
            GeoRecord("JP", "東京都", "東京", 35.68, 139.69),
            None,
        ],
    ),
    (
        "198.18.2.0/25",
        [GeoRecord("FR", "Île-de-France", 'Quote"Back\\slash\n', 48.85, 2.35)] * 3
        + [GeoRecord("FR", "Île-de-France", None, 46.0, 2.0)],
    ),
    (
        "198.18.3.0/24",
        [GeoRecord("DE", "Baden-Württemberg"), None, GeoRecord("AT"), None],
    ),
]

_MISS_LOW = int(parse_address("240.0.0.0"))
_MISS_HIGH = int(parse_address("255.255.255.254"))


def _with_exotic_blocks(databases):
    names = sorted(databases)
    extra = {name: [] for name in names}
    for prefix, records in _EXOTIC:
        for name, record in zip(names, records):
            if record is not None:
                extra[name].append(single_prefix(prefix, record))
    return {
        name: CompiledIndex.compile(
            GeoDatabase(name, [*databases[name].entries(), *extra[name]])
        )
        for name in names
    }


@pytest.fixture(scope="module")
def exotic_indexes(small_scenario):
    return _with_exotic_blocks(small_scenario.databases)


@pytest.fixture(scope="module")
def exotic_plane(exotic_indexes):
    return compile_plane(exotic_indexes)


def _healthy(indexes, plane, tmp_path_factory):
    return ServingEngine(indexes, plane=plane)


def _live(indexes, plane, tmp_path_factory):
    return ServingEngine(indexes)


def _quarantined(indexes, plane, tmp_path_factory):
    engine = ServingEngine(
        indexes,
        plane=plane,
        policy=ResiliencePolicy(cooldown_s=3600.0, cooldown_max_s=3600.0),
    )
    victim = sorted(indexes)[1]
    for _ in range(engine._policy.quarantine_threshold):
        engine._record_failure(victim, RuntimeError("backend down"))
    assert engine.degraded_vendors() == (victim,)
    return engine


def _missing(indexes, plane, tmp_path_factory):
    # The alphabetically first vendor goes missing: vendor_names() lists
    # it last, while the JSON body sorts it first.
    root = save_index_set(indexes, tmp_path_factory.mktemp("partial"))
    victim = sorted(indexes)[0]
    (root / f"{victim}.rgix").unlink()
    engine = ServingEngine.from_snapshot_dir(
        root, expected=sorted(indexes), plane=plane
    )
    assert engine.vendor_names()[-1] == victim
    return engine


def _loaded_plane(indexes, plane, tmp_path_factory):
    # Indexes and plane read back from disk: every cell decodes lazily,
    # on the first request that lands in it.
    root = save_index_set(indexes, tmp_path_factory.mktemp("loaded"))
    save_plane(plane, root / "plane.rgpl")
    loaded = load_index_set(root)
    return ServingEngine(loaded, plane=load_plane(root / "plane.rgpl", indexes=loaded))


ENGINES = {
    "healthy-plane": _healthy,
    "loaded-plane": _loaded_plane,
    "live": _live,
    "quarantined": _quarantined,
    "missing-vendor": _missing,
}


@pytest.fixture(scope="module", params=sorted(ENGINES))
def served(request, exotic_indexes, exotic_plane, tmp_path_factory):
    engine = ENGINES[request.param](exotic_indexes, exotic_plane, tmp_path_factory)
    server = GeoServer(engine, port=0, metrics=MetricsRegistry())
    server.start_background()
    yield engine, server
    server.stop()


# -- the payloads the handlers used to build ----------------------------------


def _answer_payload(answer):
    if answer is None:
        return None
    record = answer.record
    return {
        "prefix": answer.prefix,
        "country": record.country,
        "region": record.region,
        "city": record.city,
        "latitude": record.latitude,
        "longitude": record.longitude,
        "resolution": record.resolution.value,
    }


def _answers_payload(engine, outcome):
    return {
        name: _answer_payload(outcome.answers.get(name))
        for name in engine.vendor_names()
    }


def _consensus_payload(consensus):
    return {
        "country": consensus.country,
        "country_votes": consensus.country_votes,
        "location": (
            {"latitude": consensus.location.lat, "longitude": consensus.location.lon}
            if consensus.location is not None
            else None
        ),
        "location_votes": consensus.location_votes,
        "voters": consensus.voters,
        "country_disagreement": consensus.country_disagreement,
        "city_disagreement": consensus.city_disagreement,
        "degraded": consensus.degraded,
        "quorum": consensus.quorum,
    }


def expected_lookup_body(engine, ip, trace_id):
    outcome = engine.lookup_outcome(ip)
    # The vote itself, not the plane cell's copy of it.
    consensus = engine.consensus_of(dataclasses.replace(outcome, cell=None))
    payload = {
        "ip": ip,
        "answers": _answers_payload(engine, outcome),
        "consensus": _consensus_payload(consensus),
        "degraded": outcome.degraded,
        "degraded_vendors": list(outcome.unavailable()),
        "trace_id": trace_id,
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def expected_batch_body(engine, ips, trace_id):
    results = []
    for ip in ips:
        try:
            address = parse_address(ip)
        except ValueError as exc:
            results.append({"ip": str(ip), "error": str(exc)})
            continue
        outcome = engine.lookup_outcome(address)
        item = {
            "ip": str(address),
            "answers": _answers_payload(engine, outcome),
        }
        if outcome.degraded:
            item["degraded"] = True
            item["degraded_vendors"] = list(outcome.unavailable())
        results.append(item)
    payload = {"count": len(results), "results": results, "trace_id": trace_id}
    return json.dumps(payload, sort_keys=True).encode("utf-8")


# -- address strategies ---------------------------------------------------------


@pytest.fixture(scope="module")
def address_pools(exotic_plane):
    """Interval starts and ``start - 1``, /24 edges, and the starts of
    cells whose vendors disagree on country or city."""
    starts, cell_ids, cells = exotic_plane.parts()
    edges = sorted({max(0, s - d) for s in starts for d in (0, 1)})
    slash24 = sorted(
        {
            value & 0xFFFFFFFF
            for s in starts[:: max(1, len(starts) // 400)]
            for value in ((s & ~0xFF) - 1, s & ~0xFF, s | 0xFF, (s | 0xFF) + 1)
        }
    )
    disagreement = [
        start
        for start, cell_id in zip(starts, cell_ids)
        if cells[cell_id].country_disagreement or cells[cell_id].city_disagreement
    ]
    assert disagreement and edges and slash24
    return edges, slash24, disagreement


def addresses(pools):
    edges, slash24, disagreement = pools
    as_text = lambda value: str(parse_address(value))  # noqa: E731
    return st.one_of(
        st.sampled_from(edges),
        st.sampled_from(slash24),
        st.sampled_from(disagreement),
        st.integers(_MISS_LOW, _MISS_HIGH),
        st.integers(_EXOTIC_BASE, _EXOTIC_BASE + 4 * 256 - 1),
    ).map(as_text)


#: Batch items that fail to parse (plus integers, some of them valid).
garbage = st.one_of(st.text(max_size=12), st.integers(-5, 2**33), st.none())


def _fetch(server, path, request_id, data=None):
    headers = {"X-Request-Id": request_id} if request_id else {}
    request = urllib.request.Request(
        server.url + path, data=data, headers=headers,
        method="POST" if data is not None else "GET",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, response.headers["X-Request-Id"], response.read()


SETTINGS = settings(max_examples=25, deadline=None)


@pytest.mark.parametrize("request_id", [None, "diff-probe-7"])
class TestBodyIdentity:
    def test_lookup_bodies(self, served, address_pools, request_id):
        engine, server = served

        @SETTINGS
        @given(ip=addresses(address_pools))
        def check(ip):
            status, trace_id, body = _fetch(server, f"/lookup?ip={ip}", request_id)
            assert status == 200
            if request_id:
                assert trace_id == request_id
            assert body == expected_lookup_body(engine, ip, trace_id)

        check()

    def test_batch_bodies(self, served, address_pools, request_id):
        engine, server = served

        @SETTINGS
        @given(
            ips=st.lists(
                st.one_of(addresses(address_pools), garbage), max_size=8
            )
        )
        def check(ips):
            data = json.dumps({"ips": ips}).encode("utf-8")
            status, trace_id, body = _fetch(server, "/batch", request_id, data)
            assert status == 200
            assert body == expected_batch_body(engine, ips, trace_id)

        check()


def test_loaded_lazy_plane_bodies_equal_the_compiled_planes(
    exotic_indexes, exotic_plane, address_pools, tmp_path_factory
):
    """A freshly loaded plane (no cell decoded yet) and the compiled
    plane it was saved from render byte-identical /lookup and /batch
    bodies — prefix edges and /24 edges included."""
    servers = [
        GeoServer(engine, port=0, metrics=MetricsRegistry())
        for engine in (
            _healthy(exotic_indexes, exotic_plane, tmp_path_factory),
            _loaded_plane(exotic_indexes, exotic_plane, tmp_path_factory),
        )
    ]
    for server in servers:
        server.start_background()
    try:
        edges, slash24, _ = address_pools
        rng = random.Random(20160806)
        ips = [str(parse_address(a)) for a in rng.sample(edges, 300) + slash24[:300]]
        for ip in ips:
            compiled, loaded = (
                _fetch(server, f"/lookup?ip={ip}", "lazy-1")[2] for server in servers
            )
            assert loaded == compiled
        for start in range(0, len(ips), 64):
            data = json.dumps({"ips": ips[start : start + 64]}).encode("utf-8")
            compiled, loaded = (
                _fetch(server, "/batch", "lazy-2", data)[2] for server in servers
            )
            assert loaded == compiled
    finally:
        for server in servers:
            server.stop()


def test_fragment_memo_is_lazy_per_record_and_dies_with_the_generation(
    exotic_indexes, exotic_plane
):
    engine = ServingEngine(exotic_indexes, plane=exotic_plane)
    server = GeoServer(engine, port=0, metrics=MetricsRegistry())
    server.start_background()
    try:
        assert engine.generation_memo() == {}  # nothing rendered at boot
        ips = [f"198.18.{block}.{host}" for block in range(4) for host in (1, 9)]
        for ip in ips * 2:
            _fetch(server, f"/lookup?ip={ip}", None)
        records = {
            id(answer.record)
            for ip in ips
            for answer in engine.lookup_outcome(ip).answers.values()
            if answer is not None
        }
        touched = [engine.lookup_outcome(ip).cell for ip in ips]
        assert all(cell is not None for cell in touched)  # all on the plane
        cells = {id(cell) for cell in touched}
        memo = engine.generation_memo()
        # One entry per distinct record, one per distinct plane cell (its
        # encoded consensus), and the generation's sorted vendor keys;
        # every id-keyed entry holds the object its key names.
        assert set(memo) == records | cells | {_ANSWER_KEYS}
        assert all(
            id(entry[-1]) == key for key, entry in memo.items() if key != _ANSWER_KEYS
        )
        engine.swap(exotic_indexes, exotic_plane)
        assert engine.generation_memo() == {}
        assert engine.generation_memo() is not memo
    finally:
        server.stop()


def test_lookup_error_body_is_the_dumped_error(served):
    _, server = served
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _fetch(server, "/lookup?ip=S%C3%A3o", None)
    assert excinfo.value.code == 400
    assert excinfo.value.read() == json.dumps(
        {"error": "not an IPv4 address: 'São'"}, sort_keys=True
    ).encode("utf-8")
