import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoseg.errors import KOutOfRange, TooFewSamples, TooFewSchools
from geoseg.geo import (
    center_distance_correlation,
    geographic_neighbors,
    haversine,
    neighborhood_affluence_segregation,
    school_distance_matrix,
)
from geoseg.model import EARTH_RADIUS_KM, Apartment, GeoPoint, School


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

    def test_index_of_matches_list_index(self):
        roster = [make_school(i, 0.0, 0.1 * i) for i in (3, 0, 7, 1, 12)]
        dm = school_distance_matrix(roster)
        for school_id in dm.ids:
            assert dm.index_of(school_id) == dm.ids.index(school_id)
        with pytest.raises(ValueError):
            dm.index_of("s99")


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
