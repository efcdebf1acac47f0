"""Geolocation database substrate: engine, formats, and vendor generators."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "database": ("DatabaseEntry", "GeoDatabase", "single_prefix"),
        "diff": ("SnapshotDiff", "diff_snapshots", "refresh_snapshot"),
        "errormodel": ("DerivationProfile", "PerRir", "VendorProfile", "mix"),
        "formats": (
            "FormatError",
            "export_geolite_csv",
            "export_ip2location_csv",
            "import_geolite_csv",
            "import_ip2location_csv",
            "round_trip_check",
        ),
        "generator": ("SnapshotGenerator", "blocks_of"),
        "record": ("GeoRecord", "LocationSource", "Resolution"),
        "vendors": (
            "GENERATED_PROFILES",
            "IP2LOCATION_LITE",
            "MAXMIND_GEOLITE_DERIVATION",
            "MAXMIND_PAID",
            "NETACUITY",
            "PAPER_DATABASE_NAMES",
        ),
    },
)
