"""Geodesic distances, neighbor orderings, and the geographic segregation
measures (neighborhood affluence and center-distance correlations).

S_n(R) averages the price per sqm of the apartments strictly within R of
each school. The apartments are sorted by latitude once, and each school
runs the haversine test only on the latitude band that can hold them (a
great-circle distance is at least the Earth radius times the latitude
difference), so memory grows with one band, never with schools x
apartments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidValue, KOutOfRange, TooFewSamples, TooFewSchools
from .model import (
    EARTH_RADIUS_KM,
    Apartment,
    GeoPoint,
    School,
    SegregationReport,
    pearson,
    permutation_p_value,
    substream,
)


def _haversine_km(lat1, lon1, lat2, lon2):
    """Vectorized great-circle distance in km (mean Earth radius)."""
    lat1, lon1, lat2, lon2 = map(np.radians, (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2) ** 2
    return EARTH_RADIUS_KM * 2 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def haversine(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in km."""
    if (a.latitude, a.longitude) == (b.latitude, b.longitude):
        return 0.0
    return float(_haversine_km(a.latitude, a.longitude, b.latitude, b.longitude))


@dataclass(frozen=True)
class DistanceMatrix:
    ids: list[str]
    distances: np.ndarray  # km, symmetric, zero diagonal

    def __post_init__(self):
        d = self.distances
        n = len(self.ids)
        if d.shape != (n, n):
            raise ValueError(f"distance matrix shape {d.shape} != ({n}, {n})")
        d.setflags(write=False)

    @cached_property
    def _index(self) -> dict[str, int]:
        # reversed so a repeated id maps to its first position, like list.index
        return {school_id: i for i, school_id in reversed(list(enumerate(self.ids)))}

    def index_of(self, school_id: str) -> int:
        try:
            return self._index[school_id]
        except KeyError:
            raise ValueError(f"{school_id!r} is not a school of the matrix") from None

    @cached_property
    def _binned_pairs(self) -> dict:
        return {}

    def pairs_by_bin(self, bin_edges):
        """Upper-triangle pairs (a, b), a < b, sorted by distance bin, and
        the bin offsets: bin m (bin_edges[m] <= d < bin_edges[m + 1]) is
        a[offsets[m]:offsets[m + 1]], and the pairs beyond the last edge
        come last, from offsets[-2]. Indices are int16 up to 32,768
        schools. The read-only arrays are cached for the last edges asked
        for.
        """
        edges = np.asarray(bin_edges, dtype=float)
        key = edges.tobytes()
        cache = self._binned_pairs
        if key not in cache:
            n = len(self.ids)
            beyond = len(edges) - 1
            a, b = np.triu_indices(n, k=1)
            idx = np.searchsorted(edges, self.distances[a, b], side="right") - 1
            idx[idx < 0] = beyond
            # a stable sort of integers of 16 bits or less is a radix sort
            idx = idx.astype(np.min_scalar_type(beyond))
            order = np.argsort(idx, kind="stable")
            small = np.int16 if n <= 2**15 else np.int32
            counts = np.bincount(idx, minlength=beyond + 1)
            pairs = (a[order].astype(small), b[order].astype(small),
                     np.concatenate(([0], np.cumsum(counts))))
            for array in pairs:
                array.setflags(write=False)
            cache.clear()
            cache[key] = pairs
        return cache[key]


def _latlon_arrays(roster: list[School]):
    lat = np.array([s.location.latitude for s in roster])
    lon = np.array([s.location.longitude for s in roster])
    return lat, lon


def school_distance_matrix(roster: list[School]) -> DistanceMatrix:
    """Pairwise great-circle distances between schools, in roster order."""
    if len(roster) < 2:
        raise TooFewSchools(f"need >= 2 schools, got {len(roster)}")
    lat, lon = _latlon_arrays(roster)
    d = _haversine_km(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
    d = (d + d.T) / 2.0  # exact symmetry despite float round-off
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(ids=[s.id for s in roster], distances=d)


def _ranked_prefix(keys: np.ndarray, candidates: np.ndarray, k: int,
                   rng: np.random.Generator) -> list[int]:
    """First k candidate indices ordered by key, exact ties broken by a
    uniform random jitter. The full jittered order makes neighbors(k) a
    prefix of neighbors(k+1) for the same generator state."""
    jitter = rng.random(len(candidates))
    order = np.lexsort((jitter, keys))
    return candidates[order[:k]].tolist()


def geographic_neighbors(dm: DistanceMatrix, school_id: str, k: int,
                         seed: int) -> list[str]:
    """The k geographically closest schools to school_id, excluding itself.

    Exact distance ties are broken by a seeded uniform choice among the
    tied candidates, with a per-school substream so results do not depend
    on the order schools are processed in.
    """
    n = len(dm.ids)
    if not 1 <= k <= n - 1:
        raise KOutOfRange(f"k={k} outside [1, {n - 1}]")
    i = dm.index_of(school_id)
    candidates = np.delete(np.arange(n), i)
    rng = substream(seed, school_id)
    picked = _ranked_prefix(dm.distances[i, candidates], candidates, k, rng)
    return [dm.ids[j] for j in picked]


def _apartments_within(roster: list[School], apartments: list[Apartment],
                       radius_km: float):
    """Per school, the number and the summed price per sqm of apartments
    strictly within radius_km.

    Each school tests the band |apartment latitude - its latitude| <= delta.
    delta is widened by a relative 1e-9 and 1e-12 degrees for round-off, so
    the band never drops an apartment that the strict haversine test keeps.
    """
    slat, slon = _latlon_arrays(roster)
    alat = np.array([a.location.latitude for a in apartments])
    order = np.argsort(alat, kind="stable")
    alat = alat[order]
    alon = np.array([a.location.longitude for a in apartments])[order]
    prices = np.array([a.price_per_sqm for a in apartments])[order]
    delta = np.degrees(radius_km / EARTH_RADIUS_KM) * (1 + 1e-9) + 1e-12
    lo = np.searchsorted(alat, slat - delta, side="left")
    hi = np.searchsorted(alat, slat + delta, side="right")
    counts = np.zeros(len(roster), dtype=np.int64)
    sums = np.zeros(len(roster))
    for i, band in enumerate(map(slice, lo.tolist(), hi.tolist())):
        within = _haversine_km(slat[i], slon[i], alat[band], alon[band]) < radius_km
        counts[i] = np.count_nonzero(within)
        sums[i] = prices[band][within].sum()
    return counts, sums


def neighborhood_affluence_segregation(
    roster: list[School],
    apartments: list[Apartment],
    radius_km: float,
    permutations: int = 0,
    seed: int = 0,
) -> SegregationReport:
    """Correlation between school scores and mean apartment price per sqm
    within radius_km (strict inequality). Schools with no apartment in
    radius are excluded; the exclusion count is recorded in settings.
    """
    if radius_km <= 0:
        raise InvalidValue(f"radius must be positive, got {radius_km}")
    counts, sums = _apartments_within(roster, apartments, radius_km)
    eligible = counts > 0
    if eligible.sum() < 3:
        raise TooFewSamples(
            f"only {int(eligible.sum())} schools have an apartment within "
            f"{radius_km} km"
        )
    mean_price = sums[eligible] / counts[eligible]
    scores = np.array([s.score for s in roster])[eligible]
    value = pearson(scores, mean_price)
    p = (
        permutation_p_value(scores, mean_price, permutations, seed)
        if permutations
        else None
    )
    return SegregationReport(
        statistic_name="neighborhood_affluence_segregation",
        value=value,
        sample_size=int(eligible.sum()),
        p_value=p,
        settings={
            "radius_km": radius_km,
            "excluded_schools": int((~eligible).sum()),
            "permutations": permutations,
            "seed": seed,
        },
    )


def center_distance_correlation(
    roster: list[School],
    center: GeoPoint,
    permutations: int = 0,
    seed: int = 0,
) -> SegregationReport:
    """Correlation between school scores and their distance from center."""
    if len(roster) < 3:
        raise TooFewSamples(f"need >= 3 schools, got {len(roster)}")
    lat, lon = _latlon_arrays(roster)
    d = _haversine_km(lat, lon, center.latitude, center.longitude)
    scores = np.array([s.score for s in roster])
    value = pearson(scores, d)
    p = permutation_p_value(scores, d, permutations, seed) if permutations else None
    return SegregationReport(
        statistic_name="center_distance_correlation",
        value=value,
        sample_size=len(roster),
        p_value=p,
        settings={
            "center_lat": center.latitude,
            "center_lon": center.longitude,
            "permutations": permutations,
            "seed": seed,
        },
    )
