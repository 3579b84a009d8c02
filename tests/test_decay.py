import math

import numpy as np
import pytest

from geoseg.decay import fit_power_law, tie_probability_curve, write_curve_csv
from geoseg.errors import InvalidValue, MismatchedIds, TooFewBins
from geoseg.geo import school_distance_matrix
from geoseg.model import DecayCurve, GeoPoint, School

from dense import dense_tie_counts, network_from_dense


def equatorial_roster(n, spacing_km=1.3):
    deg = 180.0 / (math.pi * 6371.0)
    return [
        School(f"s{i}", GeoPoint(0.0, i * spacing_km * deg), 50.0) for i in range(n)
    ]


def complete_net(ids):
    n = len(ids)
    w = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(w, 0)
    return network_from_dense(ids, w, "binary")


def empty_net(ids):
    n = len(ids)
    return network_from_dense(ids, np.zeros((n, n), dtype=np.int64), "binary")


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
        net = network_from_dense(dm.ids, w + w.T, "binary")
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

    @pytest.mark.parametrize("seed", range(5))
    def test_tie_counts_match_weight_matrix(self, seed):
        # the tied pairs' bins against the weight matrix read over the
        # binned pair table, which the curve used before
        rng = np.random.default_rng(seed)
        roster = [School(f"s{i}", GeoPoint(*rng.uniform(0, 0.1, 2)), 50.0)
                  for i in range(30)]
        dm = school_distance_matrix(roster)
        w = np.triu(rng.integers(0, 3, (30, 30)) * (rng.random((30, 30)) < 0.3), 1)
        net = network_from_dense(dm.ids, w + w.T, "raw-count")
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
        assert curve.fitted_exponent == exponent

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
