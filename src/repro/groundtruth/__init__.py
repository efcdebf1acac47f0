"""Ground-truth construction and validation (paper §2.3 and §3)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "dnsbased": (
            "DnsGroundTruthResult",
            "DnsGroundTruthStats",
            "build_dns_ground_truth",
        ),
        "hintverify": (
            "HintVerdict",
            "HintVerificationReport",
            "VerifiedHint",
            "decode_hinted_addresses",
            "verify_hints",
        ),
        "io": (
            "GroundTruthFormatError",
            "export_ground_truth_csv",
            "import_ground_truth_csv",
        ),
        "record": (
            "GroundTruthRecord",
            "GroundTruthSet",
            "GroundTruthSource",
            "merge_ground_truth",
        ),
        "rttproximity": (
            "RttProximityConfig",
            "RttProximityResult",
            "RttProximityStats",
            "build_rtt_ground_truth",
        ),
        "stats": ("GroundTruthRow", "ground_truth_row", "table1"),
        "validation": (
            "HostnameChurnReport",
            "OverlapComparison",
            "compare_datasets",
            "hostname_churn_report",
        ),
    },
)
