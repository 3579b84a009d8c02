"""Geodesic distances, the neighbor-ranking kernel, and the geographic
segregation measures (neighborhood affluence and center-distance
correlations).

S_n(R) averages the price per sqm of the apartments strictly within R of
each school. The apartments are sorted by latitude once, and each school
runs the haversine test only on the latitude band that can hold them (a
great-circle distance is at least the Earth radius times the latitude
difference), so memory grows with one band, never with schools x
apartments.

The ranking kernel ranks a block of schools' candidate cells, fed by
`_distance_cells` or by `segregation._arc_cells` over a network's arcs.
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
    correlation_report,
    permutation_p_value,  # noqa: F401  (bench/spans.py traces it at this site)
    substream,
)


def _haversine_km(lat1, lon1, lat2, lon2):
    """Vectorized great-circle distance in km (mean Earth radius).

    Computed in place in at most two arrays of the broadcast shape, with
    the operations of sin(dlat / 2)**2 + cos(lat1) * cos(lat2) *
    sin(dlon / 2)**2 in the order that expression evaluates them, so the
    result equals it bit for bit."""
    lat1, lon1, lat2, lon2 = map(np.radians, (lat1, lon1, lat2, lon2))
    shape = np.broadcast(lat1, lon1, lat2, lon2).shape
    d = np.subtract(lon2, lon1, out=np.empty(shape))
    d /= 2
    np.sin(d, out=d)
    np.square(d, out=d)
    d *= np.cos(lat1) * np.cos(lat2)
    h = np.asarray(lat2 - lat1)
    h /= 2
    np.sin(h, out=h)
    np.square(h, out=h)
    d += h
    np.clip(d, 0.0, 1.0, out=d)
    np.sqrt(d, out=d)
    np.arcsin(d, out=d)
    d *= EARTH_RADIUS_KM * 2
    return d


def haversine(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in km."""
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
            idx = distance_bins(edges, self.distances[a, b])
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


def distance_bins(bin_edges: np.ndarray, distances) -> np.ndarray:
    """The bin m of each distance, bin_edges[m] <= d < bin_edges[m + 1],
    and len(bin_edges) - 1 for a distance outside the edges."""
    idx = np.searchsorted(bin_edges, distances, side="right") - 1
    idx[idx < 0] = len(bin_edges) - 1
    return idx


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
    d += d.T  # exact symmetry despite float round-off
    d /= 2
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(ids=[s.id for s in roster], distances=d)


# Distance-matrix cells per ranking block: a float64 copy of a block is 128 KB.
_BLOCK_CELLS = 1 << 14


def _rank_cells(cells, labels, seed: int, k_max: int) -> np.ndarray:
    """Each block row's first min(#candidates, k_max) cells by ascending
    key, as their columns in a (rows x k_max) int array padded with -1.

    cells = (rows, cols, keys, ordinals, counts): candidate cells of the
    block's rows, each one's place among the block's candidates in
    row-major order, and each row's candidate count. Exact key ties are
    broken by a uniform jitter from substream(seed, label), drawn over a
    row's candidates in column order; a row without candidates draws
    nothing. One lexsort ranks the cells by (row, key, jitter). The
    jittered order is total, so the first k columns of a row depend
    neither on k_max nor on candidates left out beyond them.
    """
    rows, cols, keys, ordinals, counts = cells
    draws = np.concatenate([np.empty(0)] + [
        substream(seed, label).random(count)
        for label, count in zip(labels, counts.tolist()) if count])
    order = np.lexsort((draws[ordinals], keys, rows))
    rows, cols = rows[order], cols[order]
    per_row = np.bincount(rows, minlength=len(counts))
    rank = np.arange(len(rows)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    top = rank < k_max
    ranked = np.full((len(counts), k_max), -1, dtype=np.int64)
    ranked[rows[top], rank[top]] = cols[top]
    return ranked


def ranked_neighbors(cells, labels, seed: int, k_max: int) -> np.ndarray:
    """_rank_cells over the schools at positions 0..len(labels) - 1, in
    blocks of _BLOCK_CELLS // len(labels) schools; cells(block) gives the
    candidate cells of the schools in the position slice block."""
    n = len(labels)
    step = max(1, _BLOCK_CELLS // n)
    ranked = np.empty((n, k_max), dtype=np.int64)
    for lo in range(0, n, step):
        block = slice(lo, min(lo + step, n))
        ranked[block] = _rank_cells(cells(block), labels[block], seed, k_max)
    return ranked


def _distance_cells(dm: DistanceMatrix, block: slice, k_max: int):
    """Candidate cells of the schools in block, keyed by distance, the
    school itself excluded. Each row is cut at its k_max-th key
    (introselect, Musser 1997) and every candidate with a key at most that
    one is kept, so boundary ties stay in."""
    keys = dm.distances[block].copy()
    np.fill_diagonal(keys[:, block.start:], np.inf)
    width = keys.shape[1]
    candidate = np.isfinite(keys)
    kth = min(k_max, width) - 1
    kept = keys <= np.partition(keys, kth, axis=1)[:, kth, None]
    kept &= candidate
    cells = np.flatnonzero(kept)
    rows, cols = np.divmod(cells, width)
    return (rows, cols, np.take(keys, cells),
            np.searchsorted(np.flatnonzero(candidate), cells),
            np.count_nonzero(candidate, axis=1))


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
    i = dm.ids.index(school_id)
    picked = _rank_cells(_distance_cells(dm, slice(i, i + 1), k), [school_id],
                         seed, k)[0]
    return [dm.ids[j] for j in picked.tolist()]


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
    scores = np.array([s.score for s in roster])[eligible]
    return correlation_report(
        "neighborhood_affluence_segregation", scores, sums[eligible] / counts[eligible],
        permutations, seed, radius_km=radius_km, excluded_schools=int((~eligible).sum()))


def center_distance_correlation(
    roster: list[School],
    center: GeoPoint,
    permutations: int = 0,
    seed: int = 0,
) -> SegregationReport:
    """Correlation between school scores and their distance from center."""
    lat, lon = _latlon_arrays(roster)
    return correlation_report(
        "center_distance_correlation", np.array([s.score for s in roster]),
        _haversine_km(lat, lon, center.latitude, center.longitude), permutations, seed,
        center_lat=center.latitude, center_lon=center.longitude)
