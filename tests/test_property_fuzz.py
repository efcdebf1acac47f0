"""Property-based fuzzing of the serialization boundaries.

Every parser in the library guards a data boundary (CSV snapshots,
ground-truth releases, Atlas JSON).  These tests assert the two
properties that make parsers trustworthy: round-trips are lossless for
arbitrary valid data, and arbitrary *invalid* input fails with the
documented exception type — never with a stray ``KeyError`` or
``AttributeError`` from deep inside.
"""

import ipaddress
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.geo import COUNTRIES, GeoPoint
from repro.geodb import (
    DatabaseEntry,
    FormatError,
    GeoDatabase,
    GeoRecord,
    export_geolite_csv,
    export_ip2location_csv,
    import_geolite_csv,
    import_ip2location_csv,
)
from repro.groundtruth import (
    GroundTruthFormatError,
    GroundTruthRecord,
    GroundTruthSet,
    GroundTruthSource,
    export_ground_truth_csv,
    import_ground_truth_csv,
)
from repro.atlas import MeasurementParseError, parse_json_lines

# -- strategies ---------------------------------------------------------------

country_codes = st.sampled_from(["US", "DE", "NL", "JP", "BR", "ZA"])
city_names = st.one_of(
    st.none(),
    st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll"), max_codepoint=0x17F),
        min_size=1,
        max_size=24,
    ),
)
latitudes = st.floats(-90, 90, allow_nan=False).map(lambda v: round(v, 4))
longitudes = st.floats(-180, 180, allow_nan=False).map(lambda v: round(v, 4))


#: A few coordinates that sit close together, far apart, and on country
#: centroids, so drawn answers agree, disagree and look like defaults.
clustered_points = st.sampled_from(
    [
        (52.37, 4.9),
        (52.45, 4.8),  # ~12 km from the first
        (40.71, -74.01),
        *(
            (COUNTRIES.get(code).centroid_lat, COUNTRIES.get(code).centroid_lon)
            for code in ("US", "DE")
        ),
    ]
)


@st.composite
def geo_records(draw, points=None):
    """Records that may lack a country, a city or coordinates.

    ``points`` draws ``(lat, lon)`` pairs; by default any coordinates.
    """
    country = draw(st.one_of(st.none(), country_codes))
    city = draw(city_names) if country is not None else None
    has_coords = draw(st.booleans()) or city is not None
    if points is not None and has_coords:
        lat, lon = draw(points)
    else:
        lat = draw(latitudes) if has_coords else None
        lon = draw(longitudes) if has_coords else None
    region = draw(st.one_of(st.none(), st.just("Region"))) if city else None
    return GeoRecord(country=country, region=region, city=city, latitude=lat, longitude=lon)


@st.composite
def databases(draw, name="fuzz", nested=False):
    """A small database under 10.0.0.0/8.

    By default: disjoint /24s keyed by the third octet pair.  With
    ``nested=True``: /16 to /32 prefixes inside 10.0.0.0/20, so most
    prefixes nest in or straddle /24 boundaries of others, with answers
    drawn from :data:`clustered_points`.
    """
    if nested:
        prefixes = draw(
            st.lists(
                st.builds(
                    lambda offset, length: ipaddress.ip_network(
                        ((10 << 24) + offset, length), strict=False
                    ),
                    st.integers(0, 2**12 - 1),
                    st.integers(16, 32),
                ),
                min_size=1,
                max_size=12,
                unique=True,
            )
        )
        records = geo_records(points=clustered_points)
    else:
        count = draw(st.integers(1, 12))
        indexes = draw(
            st.lists(
                st.integers(0, 2**16 - 1), min_size=count, max_size=count, unique=True
            )
        )
        prefixes = [
            ipaddress.ip_network(((10 << 24) + (index << 8), 24)) for index in indexes
        ]
        records = geo_records()
    entries = [DatabaseEntry(prefix=prefix, record=draw(records)) for prefix in prefixes]
    return GeoDatabase(name, entries)


@st.composite
def ground_truth_sets(draw):
    count = draw(st.integers(1, 10))
    offsets = draw(
        st.lists(st.integers(1, 2**20), min_size=count, max_size=count, unique=True)
    )
    records = []
    for offset in offsets:
        source = draw(st.sampled_from(list(GroundTruthSource)))
        records.append(
            GroundTruthRecord(
                address=ipaddress.IPv4Address((10 << 24) + offset),
                location=GeoPoint(draw(latitudes), draw(longitudes)),
                country=draw(country_codes),
                source=source,
                domain=draw(st.one_of(st.none(), st.just("ntt.net")))
                if source is GroundTruthSource.DNS
                else None,
                probe_ids=tuple(draw(st.lists(st.integers(1, 99999), max_size=4))),
            )
        )
    return GroundTruthSet(records)


# -- round trips --------------------------------------------------------------


class TestGeoLiteRoundTrip:
    @given(databases())
    @settings(max_examples=40, deadline=None)
    def test_lossless(self, database):
        copy = import_geolite_csv("copy", export_geolite_csv(database))
        assert len(copy) == len(database)
        for entry, loaded in zip(database, copy):
            assert loaded.prefix == entry.prefix
            assert loaded.record.country == entry.record.country
            assert loaded.record.city == entry.record.city
            assert loaded.record.latitude == entry.record.latitude


class TestIp2LocationRoundTrip:
    @given(databases())
    @settings(max_examples=40, deadline=None)
    def test_lookups_preserved(self, database):
        copy = import_ip2location_csv("copy", export_ip2location_csv(database))
        for entry in database:
            probe = entry.prefix.network_address
            original = database.lookup(probe)
            loaded = copy.lookup(probe)
            assert (original.country, original.city) == (loaded.country, loaded.city)


class TestGroundTruthRoundTrip:
    @given(ground_truth_sets())
    @settings(max_examples=40, deadline=None)
    def test_lossless(self, dataset):
        copy = import_ground_truth_csv(export_ground_truth_csv(dataset))
        assert copy.addresses() == dataset.addresses()
        for record in dataset:
            loaded = copy.get(record.address)
            assert loaded.country == record.country
            assert loaded.source is record.source
            assert loaded.probe_ids == record.probe_ids
            assert loaded.location.distance_km(record.location) < 0.02


# -- garbage must fail cleanly ------------------------------------------------

garbage_text = st.text(max_size=300)


class TestGarbageHandling:
    @given(garbage_text)
    @settings(max_examples=60, deadline=None)
    def test_geolite_import_fails_cleanly(self, text):
        try:
            import_geolite_csv("x", text)
        except FormatError:
            pass  # the documented failure mode

    @given(garbage_text)
    @settings(max_examples=60, deadline=None)
    def test_ip2location_import_fails_cleanly(self, text):
        try:
            import_ip2location_csv("x", text)
        except FormatError:
            pass

    @given(garbage_text)
    @settings(max_examples=60, deadline=None)
    def test_ground_truth_import_fails_cleanly(self, text):
        try:
            import_ground_truth_csv(text)
        except GroundTruthFormatError:
            pass

    @given(garbage_text)
    @settings(max_examples=60, deadline=None)
    def test_measurement_parse_fails_cleanly(self, text):
        try:
            parse_json_lines(text)
        except MeasurementParseError:
            pass

    @given(st.dictionaries(st.text(max_size=8), st.integers() | st.text(max_size=8), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_measurement_json_objects_fail_cleanly(self, payload):
        line = json.dumps(payload)
        try:
            parse_json_lines(line)
        except MeasurementParseError:
            pass

    def test_skip_malformed_never_raises(self):
        assert parse_json_lines("garbage\n{}\n[1,2]\n", skip_malformed=True) == []
