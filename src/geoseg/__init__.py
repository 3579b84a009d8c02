"""Spatial and digital segregation analysis of school friendship networks."""

from .model import (
    DecayCurve,
    GeoPoint,
    School,
    SchoolNetwork,
    SegregationReport,
    StudentGraph,
    apartment_table,
    pearson,
    permutation_p_value,
)
from .geo import (
    DistanceMatrix,
    center_distance_correlation,
    geographic_neighbors,
    neighborhood_affluence_segregation,
    school_distance_matrix,
)
from .network import (
    binarize,
    build_count_network,
    build_min_symmetrized_network,
)
from .decay import fit_power_law, tie_probability_curve
from .segregation import (
    degree_outcome_correlation,
    digital_neighbors,
    digital_segregation,
    geographic_segregation,
    segregation_profile,
)
from .nullmodel import NullModelResult, null_distribution_s_d
from .synth import SynthConfig, generate_apartments, generate_city

__version__ = "0.1.0"

__all__ = [
    "DecayCurve",
    "DistanceMatrix",
    "GeoPoint",
    "NullModelResult",
    "School",
    "SchoolNetwork",
    "SegregationReport",
    "StudentGraph",
    "SynthConfig",
    "apartment_table",
    "binarize",
    "build_count_network",
    "build_min_symmetrized_network",
    "center_distance_correlation",
    "degree_outcome_correlation",
    "digital_neighbors",
    "digital_segregation",
    "fit_power_law",
    "generate_apartments",
    "generate_city",
    "geographic_neighbors",
    "geographic_segregation",
    "neighborhood_affluence_segregation",
    "null_distribution_s_d",
    "pearson",
    "permutation_p_value",
    "school_distance_matrix",
    "segregation_profile",
    "tie_probability_curve",
]
