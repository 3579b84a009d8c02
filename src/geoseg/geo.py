"""Geodesic distances, the neighbor-ranking kernel, and the geographic
segregation measures (neighborhood affluence and center-distance
correlations).

No n x n distance matrix is built. `DistanceMatrix` keeps the schools'
coordinates in radians with the latitudes' cosines, converted once, and
each reader computes the distances it needs where it reads them. The
distance-bin pair table walks the upper triangle in blocks of rows,
`model.BLOCK_CELLS` matrix cells each, and is the one O(n^2) pass over
school pairs in `analyze`. `DistanceMatrix.uniform_bins` sizes the decay
curve's bins from a bound on the farthest pair (`distance_bound`, one
row), so the farthest pair itself (`farthest`) is read only for a width
whose bound would pass the curve's bin limit, and keeps the one table it
bins. The geographic ranking then computes the distances of the
candidates that the table gives (`nearest_candidates`), and the decay
curve those of the tied pairs. The haversine gives the same bits when
its points swap, so every computed distance equals the dense matrix's
cell. The pair table keeps one byte per pair until a single stable
argsort orders them; beside it the build holds one block at a time and
the int64 sort order, and the results equal the all-pairs constructions
exactly.

S_n(R) averages the price per sqm of the apartments strictly within R of
each school. The apartment table (`model.apartment_table`) is sorted by
latitude, and converted to radians, once, and each school runs the
haversine test only on the band that can hold them (a great-circle
distance is at least the Earth radius times the latitude difference), and
in it on the apartments within the longitude gap that bounds R (see
`_apartments_within`), so memory grows with one band, never with schools
x apartments.

The ranking kernel ranks a block of schools' candidate cells, fed by
`nearest_candidates` or by `segregation._arc_cells` over a network's
arcs, both grouped by school (`grouped_cells`). Exact key ties are
broken by one seeded uniform matrix, cell (i, j) for school i's
candidate j, drawn a block of rows at a time.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import InvalidValue, KOutOfRange, TooFewSamples, TooFewSchools
from .model import (
    BLOCK_CELLS,
    EARTH_RADIUS_KM,
    GeoPoint,
    School,
    SegregationReport,
    correlation_report,
    group_arcs,
    permutation_p_value,  # noqa: F401  (bench/spans.py traces it at this site)
    position_of,
)


def _radians(lat, lon):
    """Latitude and longitude in radians, and the latitude's cosine: the
    haversine's per-point inputs, computed once per point."""
    lat = np.radians(lat)
    return lat, np.radians(lon), np.cos(lat)


def _haversine_km(lat1, lon1, lat2, lon2):
    """Vectorized great-circle distance in km (mean Earth radius), from
    coordinates in degrees: _haversine_rad of their _radians."""
    return _haversine_rad(*_radians(lat1, lon1), *_radians(lat2, lon2))


def _haversine_rad(lat1, lon1, cos1, lat2, lon2, cos2):
    """Great-circle distance in km from coordinates in radians and the
    latitudes' cosines: 2 R arcsin(sqrt(sin(|dlat| / 2)**2
    + cos(lat1) * cos(lat2) * sin(|dlon| / 2)**2)), symmetric by
    construction, so the same bits when the points swap. np.square, not
    ** 2, which on a numpy scalar rounds through C pow."""
    h = (np.square(np.sin(np.abs(lat2 - lat1) / 2))
         + cos1 * cos2 * np.square(np.sin(np.abs(lon2 - lon1) / 2)))
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


class DistanceMatrix:
    """Great-circle distances between the schools ids, held as their
    coordinates: radians and the latitudes' cosines, converted once.
    Readers compute the distances they need, a block of rows or a set of
    pairs at a time, each equal bit for bit to the cell of the dense
    matrix, which is never built."""

    def __init__(self, ids: list[str], latitude, longitude):
        """latitude and longitude in degrees, one per school."""
        self.ids = ids
        n = len(ids)
        self._lat, self._lon, self._cos = _radians(np.asarray(latitude, dtype=float),
                                                   np.asarray(longitude, dtype=float))
        for array in (self._lat, self._lon, self._cos):
            if array.shape != (n,):
                raise ValueError(f"coordinates of shape {array.shape} for {n} schools")
            array.setflags(write=False)
        # (edges as bytes, pairs_by_bin's arrays) for the edges last asked for
        self._binned = None

    def block(self, rows: slice, start: int = 0) -> np.ndarray:
        """distances[rows, start:], computed as a new array."""
        lat, lon, cos = self._lat, self._lon, self._cos
        return _haversine_rad(lat[rows, None], lon[rows, None], cos[rows, None],
                              lat[start:], lon[start:], cos[start:])

    def pair_distances(self, a, b) -> np.ndarray:
        """distances[a, b], computed for those pairs only."""
        lat, lon, cos = self._lat, self._lon, self._cos
        return _haversine_rad(lat[a], lon[a], cos[a], lat[b], lon[b], cos[b])

    @cached_property
    def farthest(self) -> float:
        """The largest distance between two schools, 0 below two schools:
        the maximum over the upper-triangle blocks' rectangles."""
        return max((float(self.block(rows, rows.start).max())
                    for rows, _, _ in upper_triangle_blocks(len(self.ids))), default=0.0)

    @cached_property
    def distance_bound(self) -> float:
        """At least every distance between two schools, from one row: twice
        the largest distance from the school nearest the middle of their
        coordinates' range (the triangle inequality), widened by a
        relative 1e-9 for round-off; 0 without schools."""
        if not self.ids:
            return 0.0
        middle = [np.abs(v - (v.min() + v.max()) / 2) for v in (self._lat, self._lon)]
        c = int(np.argmin(middle[0] + middle[1]))
        return 2 * float(self.block(slice(c, c + 1)).max()) * (1 + 1e-9)

    def pairs_by_bin(self, bin_edges):
        """Upper-triangle pairs (a, b), a < b, sorted by distance bin, and
        the bin offsets: bin m (bin_edges[m] <= d < bin_edges[m + 1]) is
        a[offsets[m]:offsets[m + 1]], and the pairs beyond the last edge
        come last, from offsets[-2]. Within a bin the pairs keep their
        row-major order. Indices are int16 up to 32,768 schools. The
        read-only arrays are kept for the last edges asked for, here or
        through uniform_bins.

        Each pair's bin is written as one byte (for up to 255 bins), its
        distance computed a block of upper-triangle rows at a time, and
        one stable argsort of those bins orders the pairs; a and b are
        read back from each pair's row-major index, a block at a time, so
        no per-pair int64 or float64 array is held beside the order.
        """
        edges = np.asarray(bin_edges, dtype=float)
        if self._binned is None or self._binned[0] != edges.tobytes():
            n = len(self.ids)
            beyond = len(edges) - 1
            bins = np.empty(n * (n - 1) // 2, dtype=np.min_scalar_type(beyond))
            for rows, upper, start in upper_triangle_blocks(n):
                cells = distance_bins(edges, self.block(rows, rows.start)[upper])
                bins[start:start + len(cells)] = cells
            # bincount casts the bins to intp: count them before the order
            # exists
            counts = np.bincount(bins, minlength=beyond + 1)
            # a stable sort of integers of 16 bits or less is a radix sort
            order = np.argsort(bins, kind="stable")
            del bins
            # row i's pairs (i, i + 1..n - 1) start at row_start[i]
            i = np.arange(n - 1)
            row_start = i * (n - 1) - i * (i - 1) // 2
            small = np.int16 if n <= 2**15 else np.int32
            a, b = np.empty(len(order), dtype=small), np.empty(len(order), dtype=small)
            # half blocks: each holds two int64 arrays beside the order
            step = BLOCK_CELLS // 2
            for lo in range(0, len(order), step):
                block = slice(lo, lo + step)
                rows = np.searchsorted(row_start, order[block], side="right")
                rows -= 1
                a[block] = rows
                # b = order - row_start[rows] + rows + 1, in rows' buffer
                rows -= row_start.take(rows)
                rows += order[block]
                rows += 1
                b[block] = rows
            pairs = (a, b, np.concatenate(([0], np.cumsum(counts))))
            for array in pairs:
                array.setflags(write=False)
            self._binned = (edges.tobytes(), pairs)
        return self._binned[1]

    def uniform_bins(self, width: float) -> np.ndarray:
        """The edges 0, w, 2w, ... of width w up to the first past the
        farthest pair, with pairs_by_bin's arrays for them kept. One binning
        pass against the multiples of w up to distance_bound + 2w, cut
        after the last occupied bin: the bins cut off are empty, so the
        pairs' order is the same. The pair table codes up to 65,535 bins in
        two bytes, and past that a curve of more bins than school pairs is
        mostly empty bins: InvalidValue for more than max(65535, pairs)
        bins, refused before the edges are allocated (the span is inf for a
        subnormal width). Only a bound past that limit reads the farthest
        pair. RuntimeError if a pair lies past the multiples, which the
        bound rules out."""
        pairs = len(self.ids) * (len(self.ids) - 1) // 2
        limit = max(pairs, 2**16 - 1)
        bound = self.distance_bound
        if not bound / width < limit:
            span = self.farthest / width
            if span >= limit:
                bins = math.floor(span) + 1 if math.isfinite(span) else span
                raise InvalidValue(f"bin width {width} km gives {bins:.3g} bins, more "
                                   f"than max(65535, {pairs} school pairs)")
            bound = self.farthest
        edges = np.arange(int(bound / width) + 3) * width
        a, b, offsets = self.pairs_by_bin(edges)
        counts = np.diff(offsets)
        if counts[-1]:
            raise RuntimeError(f"{counts[-1]} school pairs lie past {edges[-1]} km, "
                               f"beyond the distance bound {bound} km")
        occupied = np.flatnonzero(counts)
        edges = edges[:(occupied[-1] if len(occupied) else 0) + 2]
        self._binned = (edges.tobytes(), (a, b, offsets[:len(edges) + 1]))
        return edges

    def binned_pairs(self):
        """pairs_by_bin's arrays for the edges last asked for, or else for
        255 equal bins up to distance_bound."""
        if self._binned is None:
            self.pairs_by_bin(np.arange(256) * (self.distance_bound / 255 or 1.0))
        return self._binned[1]


def upper_triangle_blocks(n: int):
    """The upper triangle i < j of an n x n matrix in row-major order, in
    blocks of BLOCK_CELLS // n whole rows: per block (rows, upper, start),
    the row slice, the mask of the cells i < j of its rectangle
    matrix[rows, rows.start:], and the row-major index of its first pair
    among all n(n - 1)/2. matrix[rows, rows.start:][upper] is its pairs."""
    step = max(1, BLOCK_CELLS // n)
    start = 0
    for lo in range(0, n - 1, step):
        rows = slice(lo, min(lo + step, n - 1))
        upper = np.arange(lo, n) > np.arange(lo, rows.stop)[:, None]
        yield rows, upper, start
        start += (rows.stop - lo) * (2 * n - lo - rows.stop - 1) // 2


def distance_bins(bin_edges: np.ndarray, distances) -> np.ndarray:
    """The bin m of each distance, bin_edges[m] <= d < bin_edges[m + 1]
    (the last such m where edges repeat), and len(bin_edges) - 1 for a
    distance outside the edges.

    Each bin is guessed as floor((d - bin_edges[0]) / w), w the edges' mean
    width, and the guess kept where the edges confirm it; only the
    distances it misses, those outside the edges among them, are binary
    searched, so the bins are exact for any sorted edges."""
    edges = np.asarray(bin_edges, dtype=float)
    d = np.asarray(distances, dtype=float)
    beyond = len(edges) - 1
    width = (edges[-1] - edges[0]) / beyond if beyond > 0 else 0.0
    if np.isfinite(width) and width > 0:
        with np.errstate(over="ignore", invalid="ignore"):
            guess = d - edges[0]
            guess /= width
        # fmax maps a NaN guess to 0, which the edges then refute; the
        # cast truncates the guesses, now nonnegative, to their floor
        np.fmin(np.fmax(guess, 0, out=guess), beyond - 1, out=guess)
        idx = guess.astype(np.intp)
        hit = edges.take(idx) <= d
        hit &= d < edges.take(idx + 1)
        missed = np.flatnonzero(~hit)
    else:
        idx = np.empty(d.shape, dtype=np.intp)
        missed = np.arange(d.size)
    found = np.searchsorted(edges, d.flat[missed], side="right") - 1
    found[found < 0] = beyond
    idx.flat[missed] = found
    return idx


def _latlon_arrays(roster: list[School]):
    lat = np.array([s.location.latitude for s in roster])
    lon = np.array([s.location.longitude for s in roster])
    return lat, lon


def school_distance_matrix(roster: list[School]) -> DistanceMatrix:
    """Great-circle distances between schools, in roster order, held as
    the schools' coordinates (`DistanceMatrix`)."""
    n = len(roster)
    if n < 2:
        raise TooFewSchools(f"need >= 2 schools, got {n}")
    return DistanceMatrix([s.id for s in roster], *_latlon_arrays(roster))


# Distance-matrix cells per ranking block: a block of computed float64
# distances is 128 KB.
_RANK_BLOCK_CELLS = 1 << 14


def _tie_jitter(seed: int, block: slice, n: int) -> np.ndarray:
    """Rows block of np.random.default_rng(seed).random((n, n)), drawn
    alone: PCG64 gives one double per step, so the stream is advanced
    (O'Neill 2014) past the block.start * n draws of the rows before."""
    bits = np.random.PCG64(seed)
    bits.advance(block.start * n)
    return np.random.Generator(bits).random((block.stop - block.start, n))


def _rank_cells(cells, block: slice, n: int, seed: int, k_max: int) -> np.ndarray:
    """Each row of block's first min(#candidates, k_max) cells by ascending
    key, as their columns in a (rows x k_max) int array padded with -1.

    cells = (rows, cols, keys): candidate cells of the block's rows, rows
    counted from block.start and cols among the n schools. Exact key ties
    are broken by cell (block.start + row, col) of the seeded uniform
    matrix of _tie_jitter, so a cell's jitter depends on the seed and the
    two schools only. One lexsort ranks the cells by (row, key, jitter).
    The jittered order is total, so the first k columns of a row depend
    neither on k_max nor on candidates left out beyond them.
    """
    rows, cols, keys = cells
    jitter = _tie_jitter(seed, block, n)[rows, cols]
    order = np.lexsort((jitter, keys, rows))
    rows, cols = rows[order], cols[order]
    per_row = np.bincount(rows, minlength=block.stop - block.start)
    rank = np.arange(len(rows)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    top = rank < k_max
    ranked = np.full((len(per_row), k_max), -1, dtype=np.int64)
    ranked[rows[top], rank[top]] = cols[top]
    return ranked


def ranked_neighbors(cells, n: int, seed: int, k_max: int) -> np.ndarray:
    """_rank_cells over the schools at positions 0..n - 1, in blocks of
    _RANK_BLOCK_CELLS // n schools; cells(block) gives the candidate cells
    of the schools in the position slice block."""
    step = max(1, _RANK_BLOCK_CELLS // n)
    ranked = np.empty((n, k_max), dtype=np.int64)
    for lo in range(0, n, step):
        block = slice(lo, min(lo + step, n))
        ranked[block] = _rank_cells(cells(block), block, n, seed, k_max)
    return ranked


def grouped_cells(indptr, neighbors, block: slice):
    """Rows, counted from block.start, and columns of the cells of the
    schools in block, school i's being neighbors[indptr[i]:indptr[i + 1]]."""
    counts = np.diff(indptr[block.start:block.stop + 1])
    return (np.repeat(np.arange(len(counts)), counts),
            neighbors[indptr[block.start]:indptr[block.stop]])


def nearest_candidates(dm: DistanceMatrix, k_max: int):
    """Each school's candidates for its k_max nearest schools, grouped by
    school as (indptr, neighbors): the pair table's bins
    (DistanceMatrix.binned_pairs) walked nearest first, in groups of at
    least n pairs, each school taking its pairs up to and including the
    group in which it reaches k_max. A bin's distances all lie below the
    next bin's, so every school at most as far as the k_max-th nearest,
    ties included, is a candidate."""
    a, b, offsets = dm.binned_pairs()
    n = len(dm.ids)
    need = np.full(n, k_max)
    rows, cols = [], []
    lo, last = 0, len(offsets) - 1
    while lo < last and need.max() > 0:
        hi = min(max(int(np.searchsorted(offsets, offsets[lo] + n)), lo + 1), last)
        pa, pb = a[offsets[lo]:offsets[hi]], b[offsets[lo]:offsets[hi]]
        active = need > 0
        take_a, take_b = active[pa], active[pb]
        rows.append(np.concatenate((pa[take_a], pb[take_b])))
        cols.append(np.concatenate((pb[take_a], pa[take_b])))
        need -= np.bincount(rows[-1], minlength=n)
        lo = hi
    order, indptr = group_arcs(np.concatenate(rows), n)
    return indptr, np.concatenate(cols)[order]


def geographic_neighbors(dm: DistanceMatrix, school_id: str, k: int,
                         seed: int) -> list[str]:
    """The k geographically closest schools to school_id, excluding itself.

    Exact distance ties are broken by the seeded uniform matrix of
    _tie_jitter, so results do not depend on the order schools are
    processed in. UnknownSchoolId if the matrix lists no school_id.
    """
    n = len(dm.ids)
    if not 1 <= k <= n - 1:
        raise KOutOfRange(f"k={k} outside [1, {n - 1}]")
    i = position_of(dm.ids, school_id)
    others = np.delete(np.arange(n), i)
    row = slice(i, i + 1)
    cells = (np.zeros(n - 1, dtype=np.intp), others, dm.pair_distances(i, others))
    picked = _rank_cells(cells, row, n, seed, k)[0]
    return [dm.ids[j] for j in picked.tolist()]


def _apartments_within(roster: list[School], apartments: np.recarray,
                       radius_km: float):
    """Per school, the number and the summed price per sqm of apartments
    strictly within radius_km.

    Each school tests the band |apartment latitude - its latitude| <= delta,
    and in it only the apartments whose longitude gap, wrapped to at most
    180 degrees, is at most 2 asin(sin(r / 2R) / sqrt(cos(lat) cos(lat_max))),
    with r the radius, R the Earth's and lat_max = min(90, |lat| + delta):
    an apartment at lat' within r has cos(lat) cos(lat') sin^2(dlon / 2)
    <= h < sin^2(r / 2R), and cos(lat') >= cos(lat_max) in the band. Where
    the asin's argument reaches 1 the whole band is tested. For round-off,
    delta, the argument and the bound are widened by a relative 1e-9,
    cos(lat_max) is lowered by 1e-15, and delta and the bound are widened
    by 1e-12 degrees, so neither cut drops an apartment that the strict
    haversine test keeps: the apartments found within r are the band's, in
    the same order, and the counts and sums are the same bits. The
    schools' and the sorted apartments' coordinates are converted to
    radians, with the latitudes' cosines, once.
    """
    slat, slon = _latlon_arrays(roster)
    order = np.argsort(apartments["latitude"], kind="stable")
    alat, alon, prices = (apartments[name][order]
                          for name in ("latitude", "longitude", "price_per_sqm"))
    delta = np.degrees(radius_km / EARTH_RADIUS_KM) * (1 + 1e-9) + 1e-12
    lo = np.searchsorted(alat, slat - delta, side="left")
    hi = np.searchsorted(alat, slat + delta, side="right")
    slat_r, slon_r, scos = _radians(slat, slon)
    alat_r, alon_r, acos = _radians(alat, alon)
    # the asin's argument per school; at 1 or more, or NaN or inf where a
    # cosine is 0 or less, every longitude can lie within radius_km
    cos_max = np.cos(np.radians(np.minimum(90.0, np.abs(slat) + delta))) - 1e-15
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = (np.sin(min(radius_km / (2 * EARTH_RADIUS_KM), np.pi / 2))
               / np.sqrt(scos * cos_max) * (1 + 1e-9))
    whole = ~(arg < 1)
    max_gap = np.degrees(2 * np.arcsin(np.where(whole, 1.0, arg))) * (1 + 1e-9) + 1e-12
    counts = np.zeros(len(roster), dtype=np.int64)
    sums = np.zeros(len(roster))
    for i, band in enumerate(map(slice, lo.tolist(), hi.tolist())):
        if whole[i]:
            near = band
        else:
            gap = np.abs(alon[band] - slon[i])
            near = np.flatnonzero(np.minimum(gap, 360 - gap) <= max_gap[i]) + band.start
        within = _haversine_rad(slat_r[i], slon_r[i], scos[i],
                                alat_r[near], alon_r[near], acos[near]) < radius_km
        counts[i] = np.count_nonzero(within)
        sums[i] = prices[near][within].sum()
    return counts, sums


def neighborhood_affluence_segregation(
    roster: list[School],
    apartments: np.recarray,
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
