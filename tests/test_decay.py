import math
import tracemalloc

import numpy as np
import pytest

from geoseg.decay import fit_power_law, tie_probability_curve, write_curve_csv
from geoseg.errors import InvalidValue, MismatchedIds, TooFewBins
from geoseg.geo import school_distance_matrix
from geoseg.model import DecayCurve, GeoPoint, School
from geoseg.synth import SynthConfig, generate_city

from dense import (dense_distances, dense_pairs_by_bin, dense_tie_counts, farthest_edges,
                   network_from_dense)


def equatorial_roster(n, spacing_km=1.3):
    deg = 180.0 / (math.pi * 6371.0)
    return [
        School(f"s{i}", GeoPoint(0.0, i * spacing_km * deg), 50.0) for i in range(n)
    ]


def complete_net(ids):
    n = len(ids)
    w = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(w, 0)
    return network_from_dense(ids, w)


def empty_net(ids):
    n = len(ids)
    return network_from_dense(ids, np.zeros((n, n), dtype=np.int64))


class TestCurve:
    def test_complete_network_probability_one(self):
        roster = equatorial_roster(8)
        dm = school_distance_matrix(roster)
        curve = tie_probability_curve(complete_net(dm.ids), dm, 1.0)
        occupied = curve.pair_counts > 0
        assert np.all(curve.probabilities[occupied] == 1.0)

    def test_empty_network_probability_zero(self):
        roster = equatorial_roster(8)
        dm = school_distance_matrix(roster)
        curve = tie_probability_curve(empty_net(dm.ids), dm, 1.0)
        occupied = curve.pair_counts > 0
        assert np.all(curve.probabilities[occupied] == 0.0)

    def test_mismatched_ids(self):
        roster = equatorial_roster(4)
        dm = school_distance_matrix(roster)
        net = complete_net(list(reversed(dm.ids)))
        with pytest.raises(MismatchedIds):
            tie_probability_curve(net, dm, 1.0)

    def test_probability_times_count_is_integer(self):
        roster = equatorial_roster(20, spacing_km=0.7)
        dm = school_distance_matrix(roster)
        rng = np.random.default_rng(1)
        n = len(roster)
        w = np.triu((rng.random((n, n)) < 0.4).astype(np.int64), 1)
        net = network_from_dense(dm.ids, w + w.T)
        curve = tie_probability_curve(net, dm, 1.0)
        occupied = curve.pair_counts > 0
        products = curve.probabilities[occupied] * curve.pair_counts[occupied]
        assert np.allclose(products, np.round(products))

    def test_pair_count_total(self):
        roster = equatorial_roster(10)
        dm = school_distance_matrix(roster)
        curve = tie_probability_curve(complete_net(dm.ids), dm, 1.0)
        assert curve.pair_counts.sum() == 10 * 9 // 2

    def test_csv_roundtrip(self, tmp_path):
        roster = equatorial_roster(6)
        dm = school_distance_matrix(roster)
        curve = tie_probability_curve(complete_net(dm.ids), dm, 1.0)
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "bin_mid_km,probability,pair_count"
        assert len(lines) == 1 + len(curve.pair_counts)

    @pytest.mark.parametrize("width", [math.nan, math.inf, 0.0, -1.0, 1e-9])
    def test_bad_bin_width(self, width):
        dm = school_distance_matrix(equatorial_roster(6))
        with pytest.raises(InvalidValue, match="bin width"):
            tie_probability_curve(complete_net(dm.ids), dm, width)

    def test_sparse_city_gets_a_curve(self):
        # 144 bins of 1 km for 45 school pairs: more bins than pairs, but
        # fewer than the 65,535 two-byte bins of the pair table
        roster, net, _ = generate_city(SynthConfig(n_schools=10, city_radius_km=80, seed=1))
        curve = tie_probability_curve(net, school_distance_matrix(roster))
        assert len(curve.pair_counts) == 144
        assert curve.pair_counts.sum() == 45

    def test_bins_beyond_the_pair_table_refused(self):
        # 45 school pairs: at most 65,535 bins
        dm = school_distance_matrix(equatorial_roster(10))
        net = complete_net(dm.ids)
        assert len(tie_probability_curve(net, dm, dm.farthest / 65534).pair_counts) == 65535
        with pytest.raises(InvalidValue, match=r"gives 6.55e\+04 bins, more than max\(65535"):
            tie_probability_curve(net, dm, dm.farthest / 65535)

    @pytest.mark.parametrize("width, bins", [(0.03, 987), (0.1, 296), (0.7, 43), (2.5, 12)])
    def test_edges_and_table_match_the_farthest_pair(self, width, bins):
        # over 255 bins, the bins take two bytes; the edges, the counts and
        # the cached pair table are those of the edges cut at the farthest
        # pair
        roster, net, _ = generate_city(SynthConfig(n_schools=60, seed=4))
        dm = school_distance_matrix(roster)
        curve = tie_probability_curve(net, dm, width)
        edges = farthest_edges(school_distance_matrix(roster), width)
        assert np.array_equal(curve.bin_edges, edges)
        assert len(edges) == bins + 1
        dense = dense_pairs_by_bin(dense_distances(roster), edges)
        assert all(np.array_equal(got, want) for got, want in zip(dm.binned_pairs(), dense))
        assert np.array_equal(curve.pair_counts, np.diff(dense[2][:-1]))

    def test_bound_short_of_a_pair_raises(self):
        # a bound below the farthest pair leaves pairs beyond the edges,
        # which the triangle inequality rules out: an error, not a curve
        roster, net, _ = generate_city(SynthConfig(n_schools=60, seed=4))
        dm = school_distance_matrix(roster)
        dm.distance_bound = dm.farthest / 3
        with pytest.raises(RuntimeError, match="school pairs lie past"):
            tie_probability_curve(net, dm, 1.0)

    def test_two_schools_at_one_point(self):
        roster = [School(f"s{i}", GeoPoint(10.0, 20.0), 50.0) for i in range(2)]
        dm = school_distance_matrix(roster)
        curve = tie_probability_curve(complete_net(dm.ids), dm, 0.5)
        assert np.array_equal(curve.bin_edges, farthest_edges(dm, 0.5))
        assert curve.bin_edges.tolist() == [0.0, 0.5]
        assert curve.pair_counts.tolist() == [1]
        assert curve.probabilities.tolist() == [1.0]

    @pytest.mark.parametrize("seed", range(5))
    def test_tie_counts_match_weight_matrix(self, seed):
        # the tied pairs' bins against the weight matrix read over the
        # binned pair table, which the curve used before
        rng = np.random.default_rng(seed)
        roster = [School(f"s{i}", GeoPoint(*rng.uniform(0, 0.1, 2)), 50.0)
                  for i in range(30)]
        dm = school_distance_matrix(roster)
        w = np.triu(rng.integers(0, 3, (30, 30)) * (rng.random((30, 30)) < 0.3), 1)
        net = network_from_dense(dm.ids, w + w.T)
        curve = tie_probability_curve(net, dm, 0.8)
        ties = dense_tie_counts(net, dm, curve.bin_edges)
        occupied = curve.pair_counts > 0
        assert np.array_equal(curve.probabilities[occupied],
                              ties[occupied] / curve.pair_counts[occupied])
        assert ties[~occupied].sum() == 0


def synthetic_curve(exponent, prefactor, n_bins=12, width=1.0):
    edges = np.arange(n_bins + 1) * width
    mids = (edges[:-1] + edges[1:]) / 2
    probs = np.clip(prefactor * mids**exponent, 0.0, 1.0)
    counts = np.full(n_bins, 1000)
    return DecayCurve(edges, probs, counts)


class TestPowerLawFit:
    def test_exact_recovery_from_collinear_points(self):
        curve = synthetic_curve(-0.62, 0.5)
        exponent, prefactor = fit_power_law(curve, d_min_km=1.0)
        assert abs(exponent + 0.62) < 1e-9
        assert abs(prefactor - 0.5) < 1e-9

    def test_constant_probability_gives_zero_exponent(self):
        curve = synthetic_curve(0.0, 0.4)
        exponent, _ = fit_power_law(curve, d_min_km=1.0)
        assert abs(exponent) < 1e-9

    def test_scale_equivariance(self):
        curve = synthetic_curve(-0.8, 0.6)
        e1, p1 = fit_power_law(curve, d_min_km=1.0)
        c = 3.7
        scaled = DecayCurve(
            curve.bin_edges * c, curve.probabilities, curve.pair_counts
        )
        e2, p2 = fit_power_law(scaled, d_min_km=c)
        assert abs(e1 - e2) < 1e-9
        assert abs(p2 - p1 * c ** (-e1)) < 1e-9 * p2

    def test_too_few_bins(self):
        curve = synthetic_curve(-0.5, 0.5, n_bins=3)
        with pytest.raises(TooFewBins):
            fit_power_law(curve, d_min_km=2.0)

    def test_sparse_bins_excluded(self):
        curve = synthetic_curve(-0.5, 0.5)
        curve.pair_counts[3:] = 5  # below min_pairs_per_bin
        with pytest.raises(TooFewBins):
            fit_power_law(curve, d_min_km=1.0, min_pairs_per_bin=30)


def test_first_curve_memory_bounded():
    # the first call builds the distance-bin pair table of the 719,400
    # pairs (2.9 MB of int16 pairs); all-pairs int64 and float64 arrays
    # peaked at 25 MB
    roster, net, _ = generate_city(SynthConfig(n_schools=1200, seed=3))
    dm = school_distance_matrix(roster)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tie_probability_curve(net, dm)
        peak = (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 14, f"peak {peak:.1f} MB"
