"""Spatial and digital segregation analysis of school friendship networks.

The public names resolve on first use (PEP 562), so `import geoseg`
imports no numpy and leaves the host program's BLAS threading as it
found it; `geoseg.cli` pins it before its own imports.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    name: module
    for module, names in {
        "model": ("DecayCurve", "GeoPoint", "School", "SchoolNetwork",
                  "SegregationReport", "StudentGraph", "apartment_table", "pearson",
                  "permutation_p_value"),
        "geo": ("DistanceMatrix", "center_distance_correlation", "geographic_neighbors",
                "neighborhood_affluence_segregation", "school_distance_matrix"),
        "network": ("binarize", "build_count_network", "build_min_symmetrized_network"),
        "decay": ("fit_power_law", "tie_probability_curve"),
        "segregation": ("degree_outcome_correlation", "digital_neighbors",
                        "digital_segregation", "geographic_segregation",
                        "segregation_profile"),
        "nullmodel": ("NullModelResult", "null_distribution_s_d"),
        "synth": ("SynthConfig", "generate_apartments", "generate_city"),
    }.items()
    for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *__all__])
