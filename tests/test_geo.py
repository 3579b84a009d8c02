import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoseg import geo
from geoseg.errors import KOutOfRange, TooFewSamples, TooFewSchools, UnknownSchoolId
from geoseg.geo import (
    _apartments_within,
    _haversine_km,
    _latlon_arrays,
    _radians,
    _tie_jitter,
    center_distance_correlation,
    distance_bins,
    geographic_neighbors,
    neighborhood_affluence_segregation,
    school_distance_matrix,
    upper_triangle_blocks,
)
from geoseg.model import EARTH_RADIUS_KM, GeoPoint, School, apartment_table, pearson
from geoseg.synth import SynthConfig, generate_apartments, generate_city

from dense import (dense_distances, dense_pairs_by_bin, haversine, network_from_dense,
                   searchsorted_bins)


def make_school(i, lat, lon, score=50.0):
    return School(f"s{i}", GeoPoint(lat, lon), score)


def make_apartments(rows):
    """The apartment table of (GeoPoint, price per sqm) rows."""
    rows = list(rows)
    return apartment_table([p.latitude for p, _ in rows], [p.longitude for p, _ in rows],
                           [price for _, price in rows])


coords = st.tuples(st.floats(-89.0, 89.0), st.floats(-180.0, 180.0))
# the whole globe, poles and antimeridian included
globe = st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0))


class TestHaversine:
    def test_identity(self):
        p = GeoPoint(59.93, 30.31)
        assert haversine(p, p) == 0.0

    def test_antipodal(self):
        d = haversine(GeoPoint(0, 0), GeoPoint(0, 180))
        assert abs(d - math.pi * EARTH_RADIUS_KM) < 0.01

    def test_one_degree_arc(self):
        # closed-form arc length: 6371 * pi / 180
        expected = EARTH_RADIUS_KM * math.pi / 180
        assert abs(haversine(GeoPoint(0, 0), GeoPoint(0, 1)) - expected) < 0.01

    @given(coords, coords)
    @settings(max_examples=200, deadline=None)
    def test_symmetric(self, a, b):
        pa, pb = GeoPoint(*a), GeoPoint(*b)
        assert haversine(pa, pb) == haversine(pb, pa)

    @given(globe, globe, st.lists(st.tuples(globe, globe), min_size=1, max_size=20))
    @example((0.5, 180.0), (-0.5, -180.0), [((0.0, 179.9999), (0.0, -179.9999))])
    @example((90.0, 0.0), (-90.0, 45.0), [((90.0, -180.0), (89.9, 180.0))])
    @example((10.0, 10.0), (10.0, 10.0), [((-90.0, 0.0), (-90.0, 0.0))])
    @settings(max_examples=200, deadline=None)
    def test_kernel_symmetric_bit_for_bit(self, a, b, pairs):
        # scalar form, and array form over many pairs at once
        assert _haversine_km(*a, *b).tobytes() == _haversine_km(*b, *a).tobytes()
        first, second = (np.array(points).T for points in zip(*pairs))
        assert (_haversine_km(*first, *second).tobytes()
                == _haversine_km(*second, *first).tobytes())

    @given(coords, coords, coords)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        pa, pb, pc = GeoPoint(*a), GeoPoint(*b), GeoPoint(*c)
        assert haversine(pa, pc) <= haversine(pa, pb) + haversine(pb, pc) + 1e-6


def reference_haversine_km(lat1, lon1, lat2, lon2):
    """An independent copy of the haversine expression, kept as the
    kernel's oracle."""
    lat1, lon1, lat2, lon2 = map(np.radians, (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.square(np.sin(dlat / 2)) + np.cos(lat1) * np.cos(lat2) * np.square(np.sin(dlon / 2))
    return EARTH_RADIUS_KM * 2 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def reference_distances(roster):
    lat, lon = _latlon_arrays(roster)
    d = reference_haversine_km(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


class TestInPlaceHaversine:
    def roster(self):
        # random points, duplicated locations, both sides of the
        # antimeridian, the poles and an antipodal pair
        rng = np.random.default_rng(21)
        points = [(float(rng.uniform(-89, 89)), float(rng.uniform(-180, 180)))
                  for _ in range(60)]
        points += points[:5] + [(10.0, 10.0)] * 3
        points += [(0.0, 180.0), (0.0, -180.0), (0.5, 179.9999), (-0.5, -179.9999),
                   (90.0, 0.0), (-90.0, 45.0), (30.0, 40.0), (-30.0, -140.0)]
        return [make_school(i, lat, lon) for i, (lat, lon) in enumerate(points)]

    def test_matrix_bit_identical(self):
        roster = self.roster()
        assert np.array_equal(school_distance_matrix(roster).block(slice(0, len(roster))),
                              reference_distances(roster))

    def test_vector_and_scalar_bit_identical(self):
        lat, lon = _latlon_arrays(self.roster())
        for args in [(lat, lon, 0.0, 0.0), (lat[3], lon[3], lat, lon),
                     (lat[:-1], lon[:-1], lat[1:], lon[1:]),
                     (lat[:, None], 179.99, lat[None, :], -179.99)]:
            assert np.array_equal(_haversine_km(*args), reference_haversine_km(*args))
        for i in range(len(lat) - 1):
            args = (float(lat[i]), float(lon[i]), float(lat[i + 1]), float(lon[i + 1]))
            assert float(_haversine_km(*args)) == float(reference_haversine_km(*args))
            assert haversine(GeoPoint(*args[:2]), GeoPoint(*args[2:])) == float(
                reference_haversine_km(*args)) or args[:2] == args[2:]


class TestDistanceMatrix:
    def test_too_few_schools(self):
        with pytest.raises(TooFewSchools):
            school_distance_matrix([make_school(0, 0, 0)])

    def test_coincident_schools(self):
        dm = school_distance_matrix([make_school(0, 10, 10), make_school(1, 10, 10)])
        assert dm.block(slice(0, 2))[0, 1] == 0.0

    def test_collinear_additivity(self):
        roster = [make_school(i, 0.0, float(i)) for i in range(3)]
        d = school_distance_matrix(roster).block(slice(0, 3))
        assert abs(d[0, 2] - (d[0, 1] + d[1, 2])) < 1e-6

    def test_exact_transpose(self):
        rng = np.random.default_rng(5)
        roster = [
            make_school(i, float(rng.uniform(-60, 60)), float(rng.uniform(-170, 170)))
            for i in range(12)
        ]
        d = school_distance_matrix(roster).block(slice(0, 12))
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)

    def test_neighbors_looked_up_by_matrix_position(self):
        # schools listed out of id order: s0's nearest are s1, then s3
        roster = [make_school(i, 0.0, 0.1 * i) for i in (3, 0, 7, 1, 12)]
        dm = school_distance_matrix(roster)
        assert geographic_neighbors(dm, "s0", 2, seed=0) == ["s1", "s3"]
        with pytest.raises(UnknownSchoolId):
            geographic_neighbors(dm, "s99", 1, seed=0)

    def test_matrices_compare_and_hash_by_identity(self):
        roster = [make_school(i, 0.0, 0.1 * i) for i in range(4)]
        dm, other = school_distance_matrix(roster), school_distance_matrix(roster)
        assert dm != other
        assert dm == dm
        assert len({dm, other}) == 2

    @pytest.mark.parametrize("block", [slice(0, 1), slice(4, 9), slice(10, 11),
                                       slice(8, 11)],
                             ids=["first row", "middle block", "last row",
                                  "short last block"])
    def test_tie_jitter_rows_of_one_matrix(self, block):
        # the block's rows of the whole seeded matrix, drawn by jump-ahead
        n = 11
        whole = np.random.default_rng(42).random((n, n))
        assert np.array_equal(_tie_jitter(42, block, n), whole[block])

    def test_pairs_by_bin_matches_per_pair_binning(self):
        rng = np.random.default_rng(9)
        roster = [make_school(i, float(rng.uniform(0, 0.2)),
                              float(rng.uniform(0, 0.2))) for i in range(40)]
        dm = school_distance_matrix(roster)
        edges = np.array([0.0, 2.0, 5.0, 9.0, 12.0])  # some pairs lie beyond 12 km
        a, b, offsets = dm.pairs_by_bin(edges)
        assert a.dtype == b.dtype == np.int16
        assert np.all(a < b)
        iu = np.triu_indices(40, 1)
        assert sorted(zip(a.tolist(), b.tolist())) == sorted(zip(*map(list, iu)))
        d = dense_distances(roster)[a, b]
        for m in range(len(edges) - 1):
            band = d[offsets[m]:offsets[m + 1]]
            assert np.all((edges[m] <= band) & (band < edges[m + 1]))
        assert offsets[-1] - offsets[-2] > 0
        assert np.all(d[offsets[-2]:] >= edges[-1])
        assert dm.pairs_by_bin(edges.tolist())[0] is a
        assert not a.flags.writeable


def scattered_roster(n, seed):
    """n schools in a 0.2-degree square (about 22 km across), a few of
    them sharing a location."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 0.2, (n, 2))
    points[1::7] = points[0]
    return [make_school(i, float(lat), float(lon)) for i, (lat, lon) in enumerate(points)]


# (n, rows a block): the two smallest cities, n = rows - 1, rows and
# rows + 1, and several blocks with a short last one
BLOCKS = [(2, 1), (3, 1), (3, 2), (9, 8), (9, 9), (9, 10), (23, 4)]


class TestBlockedPairBuilders:
    """The distance matrix and the distance-bin pair table, built a block
    of rows at a time, equal their all-pairs forms exactly."""

    @pytest.mark.parametrize("n, rows", BLOCKS)
    def test_matrix_matches_reference(self, monkeypatch, n, rows):
        monkeypatch.setattr(geo, "BLOCK_CELLS", rows * n)
        roster = scattered_roster(n, seed=n)
        assert np.array_equal(dense_distances(roster), reference_distances(roster))

    @pytest.mark.parametrize("n, rows", BLOCKS)
    def test_matrix_exactly_symmetric(self, monkeypatch, n, rows):
        monkeypatch.setattr(geo, "BLOCK_CELLS", rows * n)
        d = school_distance_matrix(scattered_roster(n, seed=n)).block(slice(0, n))
        assert np.array_equal(d, d.T)

    @pytest.mark.parametrize("n, rows", BLOCKS)
    def test_blocks_yield_each_pair_once_in_row_major_order(self, monkeypatch, n, rows):
        monkeypatch.setattr(geo, "BLOCK_CELLS", rows * n)
        m = np.arange(n * n, dtype=float).reshape(n, n)
        pairs = []
        for block, upper, start in upper_triangle_blocks(n):
            assert start == sum(map(len, pairs))
            pairs.append(m[block, block.start:][upper])
        assert np.array_equal(np.concatenate(pairs), m[np.triu_indices(n, 1)])

    @pytest.mark.parametrize("n, rows", BLOCKS)
    def test_asymmetric_haversine_symmetrised(self, monkeypatch, n, rows):
        # the haversine is symmetric by construction; skew it so that the
        # matrix shows it holds the upper triangle's haversines, mirrored
        haversine_rad = geo._haversine_rad

        def skewed(lat1, lon1, cos1, lat2, lon2, cos2):
            d = haversine_rad(lat1, lon1, cos1, lat2, lon2, cos2)
            d += 1e-3 * (lat1 - lat2)
            return d

        monkeypatch.setattr(geo, "BLOCK_CELLS", rows * n)
        monkeypatch.setattr(geo, "_haversine_rad", skewed)
        roster = scattered_roster(n, seed=n)
        lat, lon, cos = _radians(*_latlon_arrays(roster))
        upper = np.triu(skewed(lat[:, None], lon[:, None], cos[:, None], lat, lon, cos), 1)
        assert np.array_equal(dense_distances(roster), upper + upper.T)

    @pytest.mark.parametrize("n, rows", BLOCKS)
    @pytest.mark.parametrize("edges", [
        [0.0, 2.0, 2.0, 5.0, 9.0],  # [2, 2) is empty; pairs lie beyond 9 km
        np.arange(300) * 0.05,  # 299 bins: two-byte bin indices
    ], ids=["empty bin", "299 bins"])
    def test_pairs_by_bin_matches_dense(self, monkeypatch, n, rows, edges):
        monkeypatch.setattr(geo, "BLOCK_CELLS", rows * n)
        roster = scattered_roster(n, seed=n)
        dm = school_distance_matrix(roster)
        pairs = dm.pairs_by_bin(edges)
        for got, want in zip(pairs, dense_pairs_by_bin(dense_distances(roster), edges)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert not got.flags.writeable
        assert dm.pairs_by_bin(np.array(edges))[0] is pairs[0]

    def test_pairs_by_bin_default_blocks(self):
        roster = generate_city(SynthConfig(n_schools=600, seed=4))[0]
        assert 599 % (geo.BLOCK_CELLS // 600) != 0  # a short last block
        dm = school_distance_matrix(roster)
        edges = [0.0, 1.0, 1.0, 4.0, 8.0, 20.0]
        a, b, offsets = dm.pairs_by_bin(edges)
        assert offsets[2] == offsets[1] and offsets[-1] > offsets[-2]
        for got, want in zip((a, b, offsets),
                             dense_pairs_by_bin(dense_distances(roster), edges)):
            assert np.array_equal(got, want)


def tied_antimeridian_city():
    """31 schools: a 5 x 5 lattice, 1/64 degree apart, across the
    antimeridian, and six more on its sites, with tie weights in {0, 1, 2}:
    many exactly equal distances, and pairs 0 km apart."""
    h = 1 / 64
    points = [(r * h, _wrap_lon(180.0 + (c - 2) * h)) for r in range(5) for c in range(5)]
    points += points[::4][:6]
    roster = [make_school(i, lat, lon) for i, (lat, lon) in enumerate(points)]
    rng = np.random.default_rng(31)
    w = np.triu(rng.choice([0, 1, 2], size=(31, 31), p=[0.3, 0.4, 0.3]), k=1)
    return roster, network_from_dense([s.id for s in roster], w + w.T)


@pytest.fixture(scope="module", params=[40, 300, 1200, "tied 31"])
def computed_city(request):
    """(roster, network, DistanceMatrix, dense distance oracle)."""
    if request.param == "tied 31":
        roster, net = tied_antimeridian_city()
    else:
        roster, net, _ = generate_city(SynthConfig(n_schools=request.param,
                                                   seed=request.param))
    return roster, net, school_distance_matrix(roster), dense_distances(roster)


class TestComputedDistances:
    """The distances DistanceMatrix computes where they are read equal the
    dense matrix's cells bit for bit."""

    def test_block_rows(self, computed_city):
        roster, _, dm, dense = computed_city
        n = len(roster)
        for rows, _, _ in upper_triangle_blocks(n):
            assert np.array_equal(dm.block(rows, rows.start), dense[rows, rows.start:])
        step = max(1, geo._RANK_BLOCK_CELLS // n)
        for lo in range(0, n, step):
            rows = slice(lo, min(lo + step, n))
            assert np.array_equal(dm.block(rows), dense[rows])

    def test_tied_pair_distances(self, computed_city):
        _, net, dm, dense = computed_city
        assert len(net.a) > 0
        assert np.array_equal(dm.pair_distances(net.a, net.b), dense[net.a, net.b])
        assert np.array_equal(dm.pair_distances(net.b, net.a), dense[net.a, net.b])

    def test_farthest(self, computed_city):
        *_, dm, dense = computed_city
        assert dm.farthest == dense.max()

    @pytest.mark.parametrize("edges", [
        np.arange(32) * 1.0,  # 1 km, past every pair
        np.arange(100) * 0.3,  # pairs beyond the last edge
        [0.0, 0.0, 1.1, 1.1, 2.5, 7.0],  # empty bins, uneven widths
    ], ids=["1 km", "0.3 km", "uneven"])
    def test_pairs_by_bin(self, computed_city, edges):
        *_, dm, dense = computed_city
        for got, want in zip(dm.pairs_by_bin(edges), dense_pairs_by_bin(dense, edges)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_dense_view(self, computed_city):
        *_, dm, dense = computed_city
        assert np.array_equal(dm.block(slice(0, len(dm.ids))), dense)


class TestDistanceBins:
    """distance_bins' guessed bins equal one binary search per distance."""

    @pytest.mark.parametrize("edges", [
        np.arange(40) * 0.7,
        np.arange(300) * 0.05,
        [0.0, 2.0, 2.0, 5.0, 9.0],
        [1.0, 1.5, 4.0, 4.0, 4.0, 10.0, 30.0],
        [3.0],
        [2.0, 2.0],
    ], ids=["0.7 km", "0.05 km", "empty bin", "uneven", "one edge", "one empty bin"])
    def test_matches_binary_search(self, edges):
        edges = np.asarray(edges, dtype=float)
        rng = np.random.default_rng(len(edges))
        at = np.concatenate((edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)))
        d = np.concatenate((rng.uniform(-1, edges[-1] + 2, 5000), at,
                            [-np.inf, np.inf, np.nan, 0.0, 1e308]))
        assert np.array_equal(distance_bins(edges, d), searchsorted_bins(edges, d))

    @given(st.lists(st.floats(0, 1e4), min_size=1, max_size=12),
           st.lists(st.floats(-10, 2e4), max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_any_sorted_edges(self, edges, d):
        edges, d = np.sort(edges), np.array(d, dtype=float)
        assert np.array_equal(distance_bins(edges, d), searchsorted_bins(edges, d))


class TestGeographicNeighbors:
    def setup_method(self):
        # s0 at origin, s1 ~1 km east, s2 ~2 km east
        deg = 180.0 / (math.pi * EARTH_RADIUS_KM)
        self.roster = [
            make_school(0, 0.0, 0.0),
            make_school(1, 0.0, deg * 1.0),
            make_school(2, 0.0, deg * 2.0),
        ]
        self.dm = school_distance_matrix(self.roster)

    def test_nearest(self):
        assert geographic_neighbors(self.dm, "s0", 1, seed=0) == ["s1"]

    def test_all_neighbors(self):
        for seed in range(5):
            assert set(geographic_neighbors(self.dm, "s0", 2, seed)) == {"s1", "s2"}

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRange):
            geographic_neighbors(self.dm, "s0", 3, seed=0)
        with pytest.raises(KOutOfRange):
            geographic_neighbors(self.dm, "s0", 0, seed=0)

    def test_tie_broken_uniformly(self):
        # s1 and s2 exactly equidistant from s0
        deg = 180.0 / (math.pi * EARTH_RADIUS_KM)
        roster = [
            make_school(0, 0.0, 0.0),
            make_school(1, 0.0, deg),
            make_school(2, 0.0, -deg),
        ]
        dm = school_distance_matrix(roster)
        picks = sum(
            geographic_neighbors(dm, "s0", 1, seed)[0] == "s1"
            for seed in range(10_000)
        )
        assert abs(picks / 10_000 - 0.5) < 0.02

    def test_prefix_property(self):
        rng = np.random.default_rng(9)
        roster = [
            make_school(i, float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.1, 0.1)))
            for i in range(15)
        ]
        dm = school_distance_matrix(roster)
        for seed in range(10):
            for k in range(1, 14):
                a = geographic_neighbors(dm, "s3", k, seed)
                b = geographic_neighbors(dm, "s3", k + 1, seed)
                assert b[:k] == a


class TestNeighborhoodAffluence:
    def test_price_affine_in_score(self):
        # schools spaced far beyond the radius so each sees only its own apartment
        rng = np.random.default_rng(2)
        roster = [
            make_school(i, 0.0, i * 0.05, score=float(rng.uniform(30, 90)))
            for i in range(20)
        ]
        apartments = make_apartments((s.location, 1000.0 * s.score) for s in roster)
        report = neighborhood_affluence_segregation(roster, apartments, radius_km=0.5)
        assert abs(report.value - 1.0) < 1e-12

    def test_price_scale_invariance(self):
        rng = np.random.default_rng(3)
        roster = [
            make_school(i, float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.1, 0.1)),
                        score=float(rng.uniform(30, 90)))
            for i in range(25)
        ]
        apartments = make_apartments(
            (
                GeoPoint(float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.1, 0.1))),
                float(rng.uniform(5e4, 2e5)),
            )
            for _ in range(200)
        )
        r1 = neighborhood_affluence_segregation(roster, apartments, 5.0)
        scaled = apartment_table(apartments.latitude, apartments.longitude,
                                 7.0 * apartments.price_per_sqm)
        r2 = neighborhood_affluence_segregation(roster, scaled, 5.0)
        assert abs(r1.value - r2.value) < 1e-10

    def test_radius_excludes_everything(self):
        roster = [make_school(i, 0.0, float(i) * 0.1, score=40 + i) for i in range(5)]
        apartments = make_apartments([(GeoPoint(10.0, 10.0), 1e5)])
        with pytest.raises(TooFewSamples):
            neighborhood_affluence_segregation(roster, apartments, radius_km=1.0)

    def test_null_calibration(self):
        # prices independent of scores: near-zero correlation, p rarely small
        rng = np.random.default_rng(11)
        n_small_p = 0
        repeats = 25
        for rep in range(repeats):
            roster = [
                make_school(i, float(rng.uniform(-0.2, 0.2)),
                            float(rng.uniform(-0.2, 0.2)),
                            score=float(rng.uniform(30, 90)))
                for i in range(500)
            ]
            apartments = make_apartments(
                (
                    GeoPoint(float(rng.uniform(-0.2, 0.2)),
                             float(rng.uniform(-0.2, 0.2))),
                    float(rng.uniform(5e4, 2e5)),
                )
                for _ in range(500)
            )
            report = neighborhood_affluence_segregation(
                roster, apartments, 5.0, permutations=199, seed=rep
            )
            assert abs(report.value) < 0.15
            if report.p_value <= 0.01:
                n_small_p += 1
        assert n_small_p <= max(1, int(0.05 * repeats))


class TestCenterDistance:
    def test_score_equals_distance(self):
        roster = [make_school(i, 0.0, float(i) * 0.01 + 0.01, score=0.0) for i in range(8)]
        center = GeoPoint(0.0, 0.0)
        roster = [
            School(s.id, s.location, haversine(s.location, center)) for s in roster
        ]
        report = center_distance_correlation(roster, center)
        assert abs(report.value - 1.0) < 1e-12

    def test_independent_scores_near_zero(self):
        rng = np.random.default_rng(17)
        roster = [
            make_school(i, float(rng.uniform(-0.2, 0.2)), float(rng.uniform(-0.2, 0.2)),
                        score=float(rng.uniform(30, 90)))
            for i in range(500)
        ]
        report = center_distance_correlation(roster, GeoPoint(0.0, 0.0))
        assert abs(report.value) < 0.1


def school_apartment_distances(roster: list[School], apartments) -> np.ndarray:
    """(n_schools, n_apartments) great-circle distance matrix in km."""
    slat, slon = _latlon_arrays(roster)
    alat, alon = apartments.latitude, apartments.longitude
    return _haversine_km(slat[:, None], slon[:, None], alat[None, :], alon[None, :])


def dense_affluence(roster, apartments, radius_km):
    """The dense S_n query that the latitude band replaced: per-school
    counts, mean prices of the eligible schools, and the correlation."""
    within = school_apartment_distances(roster, apartments) < radius_km
    counts = within.sum(axis=1)
    eligible = counts > 0
    mean_price = (within[eligible] @ apartments.price_per_sqm) / counts[eligible]
    scores = np.array([s.score for s in roster])[eligible]
    return counts, mean_price, pearson(scores, mean_price)


def _wrap_lon(lon):
    return (lon + 180.0) % 360.0 - 180.0


def random_city(seed, lat0, lon0, half_lat, n_schools=60, n_apartments=400):
    """Schools and apartments uniform in a lat/lon box around (lat0, lon0),
    about as wide in km as it is tall; one apartment in 20 shares a
    school's latitude, half of those its exact location."""
    rng = np.random.default_rng(seed)
    half_lon = min(180.0, half_lat / max(math.cos(math.radians(lat0)), 1e-3))

    def points(n):
        lat = np.clip(lat0 + rng.uniform(-half_lat, half_lat, n), -90.0, 90.0)
        return lat, _wrap_lon(lon0 + rng.uniform(-half_lon, half_lon, n))

    slat, slon = points(n_schools)
    roster = [make_school(i, float(slat[i]), float(slon[i]),
                          score=float(rng.uniform(30, 90)))
              for i in range(n_schools)]
    alat, alon = points(n_apartments)
    shared = rng.integers(0, n_schools, n_apartments // 20)
    alat[: len(shared)] = slat[shared]
    alon[: len(shared) // 2] = slon[shared[: len(shared) // 2]]
    prices = rng.uniform(5e4, 2e5, n_apartments)
    return roster, apartment_table(alat, alon, prices)


def per_school_apartments_within(roster, apartments, radius_km):
    """_apartments_within with _haversine_km converting each school's
    band to radians, and taking its cosines, again."""
    slat, slon = _latlon_arrays(roster)
    order = np.argsort(apartments["latitude"], kind="stable")
    alat, alon, prices = (apartments[name][order]
                          for name in ("latitude", "longitude", "price_per_sqm"))
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


# (latitude, longitude, box half-height in degrees, radius in km), sized
# so that some schools have no apartment in radius
CITIES = {
    "equator": (0.0, 0.0, 0.1, 1.0),
    "north_60_70": (65.0, 30.0, 5.0, 50.0),
    "antimeridian": (-33.0, 179.98, 0.05, 0.5),
    "near_pole": (89.99, 0.0, 0.01, 0.03),
}


class TestAffluenceBandOracle:
    @pytest.mark.parametrize("region", sorted(CITIES))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_query(self, region, seed):
        lat0, lon0, half_lat, radius_km = CITIES[region]
        roster, apartments = random_city(seed, lat0, lon0, half_lat)
        counts, sums = _apartments_within(roster, apartments, radius_km)
        dense_counts, dense_mean, dense_value = dense_affluence(
            roster, apartments, radius_km)
        assert np.array_equal(counts > 0, dense_counts > 0)
        assert np.array_equal(counts, dense_counts)
        eligible = counts > 0
        assert 3 <= eligible.sum() < len(roster)
        mean = sums[eligible] / counts[eligible]
        assert np.all(np.abs(mean - dense_mean) <= 1e-12 * np.abs(dense_mean))
        report = neighborhood_affluence_segregation(roster, apartments, radius_km)
        assert abs(report.value - dense_value) <= 1e-12
        assert report.sample_size == int(eligible.sum())
        assert report.settings["excluded_schools"] == int((~eligible).sum())

    @pytest.mark.parametrize("region", sorted(CITIES))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_school_conversion(self, region, seed):
        # the columns converted once give the same bits
        lat0, lon0, half_lat, radius_km = CITIES[region]
        roster, apartments = random_city(seed, lat0, lon0, half_lat,
                                         n_apartments=2000)
        got = _apartments_within(roster, apartments, radius_km)
        want = per_school_apartments_within(roster, apartments, radius_km)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[0].sum() > 0

    def test_synth_city_matches_per_school_conversion(self):
        cfg = SynthConfig(n_schools=600, seed=5)
        roster = generate_city(cfg)[0]
        apartments = generate_apartments(cfg, roster, 20_000, 1.0, seed=5)
        got = _apartments_within(roster, apartments, 3.0)
        want = per_school_apartments_within(roster, apartments, 3.0)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("lat0", [0.0, 65.0, -70.0, 89.97])
    def test_band_edge_due_north_and_south(self, lat0):
        # along the meridian: one apartment exactly at the radius, which the
        # strict < drops, and others 1e-6 and 1e-9 km inside and outside it
        school = make_school(0, lat0, 179.99)
        edge_lat = lat0 + math.degrees(3.0 / EARTH_RADIUS_KM)
        radius_km = float(_haversine_km(lat0, 179.99, edge_lat, 179.99))
        rows = [(GeoPoint(edge_lat, 179.99), 5e5)]
        for sign in (1, -1):
            for offset, price in ((-1e-6, 1e5), (-1e-9, 1e5), (1e-9, 9e5),
                                  (1e-6, 9e5)):
                dlat = math.degrees((radius_km + offset) / EARTH_RADIUS_KM)
                rows.append((GeoPoint(lat0 + sign * dlat, 179.99), price))
        apartments = make_apartments(rows)
        counts, sums = _apartments_within([school], apartments, radius_km)
        dense_counts = (school_apartment_distances([school], apartments)
                        < radius_km).sum(axis=1)
        assert counts.tolist() == dense_counts.tolist() == [4]
        assert sums.tolist() == [4e5]

    @pytest.mark.parametrize("lat0", [0.0, 65.0, -70.0, 89.97])
    def test_radius_edge_due_east_and_west(self, lat0):
        # along the parallel, across the antimeridian: the longitude bound
        # keeps the apartments 1e-6 and 1e-9 km inside the radius, and the
        # strict < drops the one exactly at it and those outside
        school = make_school(0, lat0, 179.99)
        cos_lat = math.cos(math.radians(lat0))

        def east_of_school(km, sign):
            dlon = math.degrees(2 * math.asin(math.sin(km / (2 * EARTH_RADIUS_KM)) / cos_lat))
            return (179.99 + sign * dlon + 180) % 360 - 180

        edge_lon = east_of_school(3.0, 1)
        radius_km = float(_haversine_km(lat0, 179.99, lat0, edge_lon))
        rows = [(GeoPoint(lat0, edge_lon), 5e5)]
        for sign in (1, -1):
            for offset, price in ((-1e-6, 1e5), (-1e-9, 1e5), (1e-9, 9e5),
                                  (1e-6, 9e5)):
                rows.append((GeoPoint(lat0, east_of_school(radius_km + offset, sign)), price))
        apartments = make_apartments(rows)
        counts, sums = _apartments_within([school], apartments, radius_km)
        dense_counts = (school_apartment_distances([school], apartments)
                        < radius_km).sum(axis=1)
        assert counts.tolist() == dense_counts.tolist() == [4]
        assert sums.tolist() == [4e5]

    @pytest.mark.parametrize("lat0", [0.0, 65.0, -70.0, 89.97])
    def test_radius_edge_at_widest_longitude(self, lat0):
        # at the latitude where the circle reaches farthest in longitude,
        # asin(sin(lat0) / cos(r / R)), poleward of the school: a bound
        # taken from the school's latitude alone would drop the apartments
        # just inside the radius there
        school = make_school(0, lat0, 179.99)
        radius_km = 3.0
        lat0_r = math.radians(lat0)
        widest = math.asin(math.sin(lat0_r) / math.cos(radius_km / EARTH_RADIUS_KM))

        def lon_at(km, sign):
            h = (math.sin(km / (2 * EARTH_RADIUS_KM)) ** 2
                 - math.sin((widest - lat0_r) / 2) ** 2)
            dlon = 2 * math.asin(math.sqrt(h / (math.cos(lat0_r) * math.cos(widest))))
            return (179.99 + sign * math.degrees(dlon) + 180) % 360 - 180

        rows = [(GeoPoint(math.degrees(widest), lon_at(radius_km + offset, sign)), price)
                for sign in (1, -1)
                for offset, price in ((-1e-6, 1e5), (-1e-9, 1e5), (1e-9, 9e5), (1e-6, 9e5))]
        apartments = make_apartments(rows)
        counts, sums = _apartments_within([school], apartments, radius_km)
        dense_counts = (school_apartment_distances([school], apartments)
                        < radius_km).sum(axis=1)
        assert counts.tolist() == dense_counts.tolist() == [4]
        assert sums.tolist() == [4e5]

    def test_empty_apartment_list(self):
        roster = [make_school(i, 0.0, 0.01 * i) for i in range(4)]
        empty = make_apartments([])
        counts, sums = _apartments_within(roster, empty, 1.0)
        assert counts.tolist() == [0] * 4 and sums.tolist() == [0.0] * 4
        with pytest.raises(TooFewSamples):
            neighborhood_affluence_segregation(roster, empty, 1.0)


def test_affluence_memory_bounded():
    # 300 schools x 40,000 apartments: the dense query peaks near 500 MB
    rng = np.random.default_rng(23)
    half = math.degrees(15.0 / EARTH_RADIUS_KM)
    roster = [make_school(i, float(rng.uniform(-half, half)),
                          float(rng.uniform(-half, half)),
                          score=float(rng.uniform(30, 90)))
              for i in range(300)]
    apartments = apartment_table(rng.uniform(-half, half, 40_000),
                                 rng.uniform(-half, half, 40_000),
                                 rng.uniform(5e4, 2e5, 40_000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        neighborhood_affluence_segregation(roster, apartments, 3.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
