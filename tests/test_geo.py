import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoseg.errors import KOutOfRange, TooFewSamples, TooFewSchools
from geoseg.geo import (
    _apartments_within,
    _haversine_km,
    _latlon_arrays,
    center_distance_correlation,
    geographic_neighbors,
    haversine,
    neighborhood_affluence_segregation,
    school_distance_matrix,
)
from geoseg.model import EARTH_RADIUS_KM, Apartment, GeoPoint, School, pearson


def make_school(i, lat, lon, score=50.0):
    return School(f"s{i}", GeoPoint(lat, lon), score)


coords = st.tuples(st.floats(-89.0, 89.0), st.floats(-180.0, 180.0))


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

    @given(coords, coords, coords)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        pa, pb, pc = GeoPoint(*a), GeoPoint(*b), GeoPoint(*c)
        assert haversine(pa, pc) <= haversine(pa, pb) + haversine(pb, pc) + 1e-6


def reference_haversine_km(lat1, lon1, lat2, lon2):
    """The out-of-place formula _haversine_km replaced, kept as its oracle."""
    lat1, lon1, lat2, lon2 = map(np.radians, (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2) ** 2
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
        assert np.array_equal(school_distance_matrix(roster).distances,
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
        assert dm.distances[0, 1] == 0.0

    def test_collinear_additivity(self):
        roster = [make_school(i, 0.0, float(i)) for i in range(3)]
        dm = school_distance_matrix(roster)
        assert abs(dm.distances[0, 2] - (dm.distances[0, 1] + dm.distances[1, 2])) < 1e-6

    def test_exact_transpose(self):
        rng = np.random.default_rng(5)
        roster = [
            make_school(i, float(rng.uniform(-60, 60)), float(rng.uniform(-170, 170)))
            for i in range(12)
        ]
        dm = school_distance_matrix(roster)
        assert np.array_equal(dm.distances, dm.distances.T)
        assert np.all(np.diag(dm.distances) == 0)

    def test_neighbors_looked_up_by_matrix_position(self):
        # schools listed out of id order: s0's nearest are s1, then s3
        roster = [make_school(i, 0.0, 0.1 * i) for i in (3, 0, 7, 1, 12)]
        dm = school_distance_matrix(roster)
        assert geographic_neighbors(dm, "s0", 2, seed=0) == ["s1", "s3"]
        with pytest.raises(ValueError):
            geographic_neighbors(dm, "s99", 1, seed=0)

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
        d = dm.distances[a, b]
        for m in range(len(edges) - 1):
            band = d[offsets[m]:offsets[m + 1]]
            assert np.all((edges[m] <= band) & (band < edges[m + 1]))
        assert offsets[-1] - offsets[-2] > 0
        assert np.all(d[offsets[-2]:] >= edges[-1])
        assert dm.pairs_by_bin(edges.tolist())[0] is a
        assert not a.flags.writeable


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
        apartments = [
            Apartment(s.location, 1000.0 * s.score) for s in roster
        ]
        report = neighborhood_affluence_segregation(roster, apartments, radius_km=0.5)
        assert abs(report.value - 1.0) < 1e-12

    def test_price_scale_invariance(self):
        rng = np.random.default_rng(3)
        roster = [
            make_school(i, float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.1, 0.1)),
                        score=float(rng.uniform(30, 90)))
            for i in range(25)
        ]
        apartments = [
            Apartment(
                GeoPoint(float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.1, 0.1))),
                float(rng.uniform(5e4, 2e5)),
            )
            for _ in range(200)
        ]
        r1 = neighborhood_affluence_segregation(roster, apartments, 5.0)
        scaled = [Apartment(a.location, 7.0 * a.price_per_sqm) for a in apartments]
        r2 = neighborhood_affluence_segregation(roster, scaled, 5.0)
        assert abs(r1.value - r2.value) < 1e-10

    def test_radius_excludes_everything(self):
        roster = [make_school(i, 0.0, float(i) * 0.1, score=40 + i) for i in range(5)]
        apartments = [Apartment(GeoPoint(10.0, 10.0), 1e5)]
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
            apartments = [
                Apartment(
                    GeoPoint(float(rng.uniform(-0.2, 0.2)),
                             float(rng.uniform(-0.2, 0.2))),
                    float(rng.uniform(5e4, 2e5)),
                )
                for _ in range(500)
            ]
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


def school_apartment_distances(roster: list[School],
                               apartments: list[Apartment]) -> np.ndarray:
    """(n_schools, n_apartments) great-circle distance matrix in km."""
    slat, slon = _latlon_arrays(roster)
    alat = np.array([a.location.latitude for a in apartments])
    alon = np.array([a.location.longitude for a in apartments])
    return _haversine_km(slat[:, None], slon[:, None], alat[None, :], alon[None, :])


def dense_affluence(roster, apartments, radius_km):
    """The dense S_n query that the latitude band replaced: per-school
    counts, mean prices of the eligible schools, and the correlation."""
    within = school_apartment_distances(roster, apartments) < radius_km
    counts = within.sum(axis=1)
    eligible = counts > 0
    prices = np.array([a.price_per_sqm for a in apartments])
    mean_price = (within[eligible] @ prices) / counts[eligible]
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
    apartments = [Apartment(GeoPoint(float(alat[j]), float(alon[j])), float(prices[j]))
                  for j in range(n_apartments)]
    return roster, apartments


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

    @pytest.mark.parametrize("lat0", [0.0, 65.0, -70.0, 89.97])
    def test_band_edge_due_north_and_south(self, lat0):
        # along the meridian: one apartment exactly at the radius, which the
        # strict < drops, and others 1e-6 and 1e-9 km inside and outside it
        school = make_school(0, lat0, 179.99)
        edge_lat = lat0 + math.degrees(3.0 / EARTH_RADIUS_KM)
        radius_km = float(_haversine_km(lat0, 179.99, edge_lat, 179.99))
        apartments = [Apartment(GeoPoint(edge_lat, 179.99), 5e5)]
        for sign in (1, -1):
            for offset, price in ((-1e-6, 1e5), (-1e-9, 1e5), (1e-9, 9e5),
                                  (1e-6, 9e5)):
                dlat = math.degrees((radius_km + offset) / EARTH_RADIUS_KM)
                apartments.append(Apartment(GeoPoint(lat0 + sign * dlat, 179.99), price))
        counts, sums = _apartments_within([school], apartments, radius_km)
        dense_counts = (school_apartment_distances([school], apartments)
                        < radius_km).sum(axis=1)
        assert counts.tolist() == dense_counts.tolist() == [4]
        assert sums.tolist() == [4e5]

    def test_empty_apartment_list(self):
        roster = [make_school(i, 0.0, 0.01 * i) for i in range(4)]
        counts, sums = _apartments_within(roster, [], 1.0)
        assert counts.tolist() == [0] * 4 and sums.tolist() == [0.0] * 4
        with pytest.raises(TooFewSamples):
            neighborhood_affluence_segregation(roster, [], 1.0)


def test_affluence_memory_bounded():
    # 300 schools x 40,000 apartments: the dense query peaks near 500 MB
    rng = np.random.default_rng(23)
    half = math.degrees(15.0 / EARTH_RADIUS_KM)
    roster = [make_school(i, float(rng.uniform(-half, half)),
                          float(rng.uniform(-half, half)),
                          score=float(rng.uniform(30, 90)))
              for i in range(300)]
    apartments = [
        Apartment(GeoPoint(float(lat), float(lon)), float(price))
        for lat, lon, price in zip(rng.uniform(-half, half, 40_000),
                                   rng.uniform(-half, half, 40_000),
                                   rng.uniform(5e4, 2e5, 40_000))
    ]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        neighborhood_affluence_segregation(roster, apartments, 3.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
