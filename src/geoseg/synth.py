"""Synthetic-city generator with planted distance decay, planted score
homophily, and planted residential structure.

Schools are placed uniformly in a disc and connected pairwise with
probability

    clamp(p0 * (max(d, d0)/d0)^alpha
          * exp(-|Ui - Uj| / h)            [homophily, when h > 0]
          * (1 + b * (Ui + Uj - 2*mean)/sd) [degree boost, when b > 0], 0, 1)

so downstream modules can be validated against known planted values. The
generator can also emit the city in the ingest CSV schemas, closing the
loop synth -> files -> ingest -> pipeline.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidConfig
from .geo import school_distance_matrix
from .model import (
    EARTH_RADIUS_KM,
    Apartment,
    GeoPoint,
    School,
    SchoolNetwork,
    write_csv,
    write_json,
)

_DEG_PER_KM = 180.0 / (math.pi * EARTH_RADIUS_KM)
# disc center; near the equator so the km -> degrees conversion is uniform
CENTER = GeoPoint(0.0, 0.0)
# apartment price per sqm at the roster's mean local score
BASE_PRICE_PER_SQM = 100_000.0


@dataclass(frozen=True)
class SynthConfig:
    n_schools: int = 600
    city_radius_km: float = 15.0
    decay_prefactor: float = 0.75
    decay_exponent: float = -0.62
    plateau_distance_km: float = 1.0
    homophily_scale: float = 0.0  # score units; 0 disables homophily
    degree_boost: float = 0.0  # 0 disables score-degree coupling
    score_mean: float = 60.0
    score_sd: float = 10.0
    spatial_score_gradient: float = 0.0  # score units per km east
    seed: int = 0

    def __post_init__(self):
        if self.n_schools < 10:
            raise InvalidConfig(f"n_schools {self.n_schools} < 10")
        if not 0.0 < self.decay_prefactor <= 1.0:
            raise InvalidConfig(f"decay_prefactor {self.decay_prefactor} outside (0, 1]")
        if self.decay_exponent > 0:
            raise InvalidConfig(f"decay_exponent {self.decay_exponent} > 0")
        if self.plateau_distance_km <= 0:
            raise InvalidConfig("plateau_distance_km must be positive")
        if self.city_radius_km <= 0:
            raise InvalidConfig("city_radius_km must be positive")
        if self.homophily_scale < 0 or self.degree_boost < 0:
            raise InvalidConfig("homophily_scale and degree_boost must be >= 0")
        if self.score_sd <= 0:
            raise InvalidConfig("score_sd must be positive")
        if self.seed < 0:
            raise InvalidConfig(f"seed {self.seed} < 0")


def _disc_points(rng: np.random.Generator, n: int, radius_km: float):
    """Uniform points in the disc, returned as (east_km, north_km)."""
    r = radius_km * np.sqrt(rng.random(n))
    theta = rng.random(n) * 2 * math.pi
    return r * np.cos(theta), r * np.sin(theta)


def _to_geopoints(east_km, north_km):
    lat = CENTER.latitude + north_km * _DEG_PER_KM
    lon = CENTER.longitude + east_km * _DEG_PER_KM
    return lat, lon


def generate_city(cfg: SynthConfig):
    """Returns (roster, raw-count SchoolNetwork, ground-truth dict)."""
    rng = np.random.default_rng(cfg.seed)
    east, north = _disc_points(rng, cfg.n_schools, cfg.city_radius_km)
    lat, lon = _to_geopoints(east, north)
    scores = rng.normal(cfg.score_mean, cfg.score_sd, cfg.n_schools)
    scores += cfg.spatial_score_gradient * east
    scores = np.maximum(scores, 0.0)
    roster = [
        School(f"s{i:04d}", GeoPoint(float(lat[i]), float(lon[i])), float(scores[i]))
        for i in range(cfg.n_schools)
    ]
    dm = school_distance_matrix(roster)
    iu = np.triu_indices(cfg.n_schools, k=1)
    d = dm.distances[iu]
    p = cfg.decay_prefactor * (
        np.maximum(d, cfg.plateau_distance_km) / cfg.plateau_distance_km
    ) ** cfg.decay_exponent
    if cfg.homophily_scale > 0:
        p = p * np.exp(-np.abs(scores[iu[0]] - scores[iu[1]]) / cfg.homophily_scale)
    if cfg.degree_boost > 0:
        p = p * (
            1.0
            + cfg.degree_boost
            * (scores[iu[0]] + scores[iu[1]] - 2 * cfg.score_mean)
            / cfg.score_sd
        )
    p = np.clip(p, 0.0, 1.0)
    ties = rng.random(len(p)) < p
    n_ties = int(ties.sum())
    weights = np.zeros((cfg.n_schools, cfg.n_schools), dtype=np.int64)
    # tie weight = 1 + small geometric count, mimicking multi-tie school pairs
    weights[iu[0][ties], iu[1][ties]] = 1 + (rng.geometric(0.6, n_ties) - 1)
    weights += weights.T
    net = SchoolNetwork([s.id for s in roster], weights, kind="raw-count")
    truth = {
        "config": asdict(cfg),
        "center_lat": CENTER.latitude,
        "center_lon": CENTER.longitude,
        "homophily_kernel": "exp(-|dU|/h)",
        "n_ties": n_ties,
        "expected_ties": float(p.sum()),
    }
    return roster, net, truth


def generate_apartments(
    cfg: SynthConfig,
    roster: list[School],
    n_apartments: int,
    price_coupling: float,
    seed: int,
    noise_sd: float = 0.05,
    local_radius_km: float = 3.0,
) -> list[Apartment]:
    """Apartments uniform in the disc; price couples to the mean score of
    schools within local_radius_km (nearest school when none in radius),
    normalized by the roster's score spread."""
    if n_apartments < 1:
        raise InvalidConfig(f"n_apartments {n_apartments} < 1")
    rng = np.random.default_rng(seed)
    east, north = _disc_points(rng, n_apartments, cfg.city_radius_km)
    lat, lon = _to_geopoints(east, north)
    s_east = np.array(
        [EARTH_RADIUS_KM * math.radians(s.location.longitude - CENTER.longitude)
         for s in roster]
    )
    s_north = np.array(
        [EARTH_RADIUS_KM * math.radians(s.location.latitude - CENTER.latitude)
         for s in roster]
    )
    scores = np.array([s.score for s in roster])
    mean, sd = scores.mean(), scores.std()
    sd = sd if sd > 0 else 1.0
    d2 = (east[:, None] - s_east[None, :]) ** 2 + (north[:, None] - s_north[None, :]) ** 2
    within = d2 < local_radius_km**2
    none_close = ~within.any(axis=1)
    within[none_close, np.argmin(d2[none_close], axis=1)] = True
    local_mean = (within @ scores) / within.sum(axis=1)
    z = (local_mean - mean) / sd
    price = BASE_PRICE_PER_SQM * (1.0 + price_coupling * z)
    price = price + BASE_PRICE_PER_SQM * noise_sd * rng.standard_normal(n_apartments)
    price = np.maximum(price, 1.0)
    return [
        Apartment(GeoPoint(float(lat[i]), float(lon[i])), float(price[i]))
        for i in range(n_apartments)
    ]


def emit_city(
    out_dir,
    roster: list[School],
    net: SchoolNetwork,
    truth: dict,
    apartments: list[Apartment],
    seed: int = 0,
    students_per_school: int = 12,
) -> None:
    """Write the city in the ingest CSV schemas plus ground_truth.json.

    Each school gets a cohort wired in a cycle, so every student has a
    same-school friend and the filter stage removes nobody. Inter-school
    weights are realized as that many distinct cross-cohort student pairs.
    """
    rng = np.random.default_rng(seed)
    m = students_per_school
    max_w = int(net.weights.max()) if len(net.schools) else 0
    if max_w > m * m:
        raise InvalidConfig(
            f"max weight {max_w} exceeds {m}x{m} cross pairs; "
            f"raise students_per_school"
        )
    students = {
        school: [f"{school}_u{j:03d}" for j in range(m)] for school in net.schools
    }
    edges = []
    for school, cohort in students.items():
        for j in range(m):
            edges.append((cohort[j], cohort[(j + 1) % m]))
    for a, b, w in net.nonzero_pairs():
        pair_ids = rng.choice(m * m, size=w, replace=False)
        for pid in pair_ids:
            edges.append((students[a][pid // m], students[b][pid % m]))

    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "students.csv"), ["student_id", "school_id"],
              ([student, school] for school in net.schools for student in students[school]))
    write_csv(os.path.join(out_dir, "edges.csv"), ["student_id_a", "student_id_b"], edges)
    write_csv(os.path.join(out_dir, "schools.csv"),
              ["school_id", "latitude", "longitude", "score"],
              ([s.id, repr(s.location.latitude), repr(s.location.longitude), repr(s.score)]
               for s in roster))
    write_csv(os.path.join(out_dir, "apartments.csv"),
              ["latitude", "longitude", "price_per_sqm"],
              ([repr(a.location.latitude), repr(a.location.longitude), repr(a.price_per_sqm)]
               for a in apartments))
    write_json(os.path.join(out_dir, "ground_truth.json"), truth)
