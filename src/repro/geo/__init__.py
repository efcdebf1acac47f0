"""Geographic substrate: coordinates, countries, RIRs, and the gazetteer."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "coordinates": (
            "EARTH_RADIUS_KM",
            "MAX_GREAT_CIRCLE_KM",
            "GeoPoint",
            "InvalidCoordinateError",
            "centroid",
            "haversine_km",
            "normalize_longitude",
        ),
        "countries": ("COUNTRIES", "Country", "CountryRegistry", "UnknownCountryError"),
        "gazetteer": ("City", "Gazetteer", "UnknownCityError"),
        "rir": ("RIR", "RIR_ORDER", "countries_served_by", "rir_for_country"),
    },
)
