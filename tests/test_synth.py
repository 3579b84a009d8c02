import csv
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from geoseg.decay import fit_power_law, tie_probability_curve
from geoseg.errors import InvalidConfig
from geoseg.geo import neighborhood_affluence_segregation, school_distance_matrix
from geoseg.ingest import apply_filters, parse_inputs
from geoseg.model import School, SchoolNetwork
from geoseg import geo, synth
from geoseg.network import binarize, build_count_network
from geoseg.synth import SynthConfig, emit_city, generate_apartments, generate_city

from dense import (
    dense_generate_apartments,
    dense_generate_city,
    dense_weights,
    reference_emit_city,
    reference_generate_apartments,
)


class TestConfig:
    def test_defaults_valid(self):
        cfg = SynthConfig()
        assert cfg.decay_prefactor == 0.75
        assert cfg.decay_exponent == -0.62

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_schools": 5},
            {"decay_prefactor": 0.0},
            {"decay_prefactor": 1.5},
            {"decay_exponent": 0.5},
            {"plateau_distance_km": 0.0},
            {"homophily_scale": -1.0},
            {"score_sd": 0.0},
            {"homophily_scale": float("nan")},
            {"decay_exponent": float("nan")},
            {"plateau_distance_km": float("inf")},
            {"degree_boost": float("inf")},
            {"city_radius_km": float("inf")},
            {"spatial_score_gradient": float("-inf")},
            {"score_mean": float("nan")},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidConfig):
            SynthConfig(**kwargs)


class TestGenerateCity:
    def test_deterministic(self):
        a = generate_city(SynthConfig(n_schools=50, seed=5))
        b = generate_city(SynthConfig(n_schools=50, seed=5))
        assert [s.id for s in a[0]] == [s.id for s in b[0]]
        assert [s.score for s in a[0]] == [s.score for s in b[0]]
        assert np.array_equal(dense_weights(a[1]), dense_weights(b[1]))

    def test_network_invariants(self):
        _, net, _ = generate_city(SynthConfig(n_schools=50, seed=1))
        assert len(net.a) > 0 and np.all(net.a < net.b)
        assert np.all(np.diff(net.a * len(net) + net.b) > 0)
        assert np.all(net.weight >= 1)
        w = dense_weights(net)
        assert np.array_equal(w, w.T) and np.all(np.diag(w) == 0)

    def test_schools_inside_disc(self):
        cfg = SynthConfig(n_schools=200, city_radius_km=15.0, seed=2)
        roster, _, _ = generate_city(cfg)
        dm = school_distance_matrix(roster)
        assert dm.block(slice(0, 200)).max() <= 2 * cfg.city_radius_km + 1e-6

    def test_flat_kernel_zero_exponent(self):
        cfg = SynthConfig(n_schools=400, decay_exponent=0.0, decay_prefactor=0.5,
                          seed=3)
        roster, net, _ = generate_city(cfg)
        dm = school_distance_matrix(roster)
        curve = tie_probability_curve(binarize(net), dm, 1.0)
        exponent, _ = fit_power_law(curve)
        assert abs(exponent) < 0.05

    @pytest.mark.parametrize("n, rows", [(10, 8), (10, 9), (10, 10), (37, 4)],
                             ids=["block+1", "one block", "block-1", "several blocks"])
    @pytest.mark.parametrize("kwargs", [
        {},
        {"homophily_scale": 4.0},
        {"degree_boost": 0.3, "spatial_score_gradient": 0.5},
        {"homophily_scale": 2.0, "degree_boost": 0.5, "spatial_score_gradient": -1.0},
    ], ids=["plain", "homophily", "boost+gradient", "all"])
    def test_blocks_match_dense(self, monkeypatch, n, rows, kwargs):
        # rows of the upper triangle per block; the city has n - 1 of them
        monkeypatch.setattr(geo, "BLOCK_CELLS", rows * n)
        cfg = SynthConfig(n_schools=n, city_radius_km=3.0, seed=n, **kwargs)
        roster, net, truth = generate_city(cfg)
        want_roster, want_net, want_truth = dense_generate_city(cfg)
        assert roster == want_roster
        for name in ("a", "b", "weight"):
            assert np.array_equal(getattr(net, name), getattr(want_net, name))
        assert truth.pop("expected_ties") == pytest.approx(
            want_truth.pop("expected_ties"), rel=1e-9, abs=0)
        assert truth == want_truth

    def test_default_blocks_match_dense(self):
        cfg = SynthConfig(n_schools=700, homophily_scale=5.0, seed=6)
        assert 699 % (geo.BLOCK_CELLS // 700) != 0  # a short last block
        (_, net, truth), (_, want_net, want_truth) = generate_city(cfg), dense_generate_city(cfg)
        assert np.array_equal(net.a, want_net.a) and np.array_equal(net.b, want_net.b)
        assert np.array_equal(net.weight, want_net.weight)
        assert truth["expected_ties"] == pytest.approx(want_truth["expected_ties"], rel=1e-9)

    def test_memory_bounded_by_blocks(self):
        # the all-pairs per-pair arrays peaked at 45 MB, beside the 11 MB
        # distance matrix
        tracemalloc.start()
        try:
            generate_city(SynthConfig(n_schools=1200, seed=3))
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 24, f"peak {peak:.1f} MB"

    def test_truth_record(self):
        cfg = SynthConfig(n_schools=60, seed=9, homophily_scale=4.0)
        _, net, truth = generate_city(cfg)
        assert truth["config"]["homophily_scale"] == 4.0
        assert truth["n_ties"] == int((dense_weights(net) > 0).sum() // 2)


class TestGenerateApartments:
    def test_zero_apartments_invalid(self):
        cfg = SynthConfig(n_schools=30, seed=0)
        roster, _, _ = generate_city(cfg)
        with pytest.raises(InvalidConfig):
            generate_apartments(cfg, roster, 0, 0.0, seed=0)

    @pytest.fixture(scope="class")
    def city(self):
        cfg = SynthConfig(n_schools=200, seed=8)
        return cfg, generate_city(cfg)[0]

    @pytest.mark.parametrize("blocks", [None, -1, 0, 1, 3])
    def test_blocks_match_dense(self, city, blocks):
        # 1 apartment, one block -1/+0/+1 rows and several blocks and a part
        cfg, roster = city
        step = synth.BLOCK_CELLS // len(roster)
        n = 1 if blocks is None else (step + blocks if blocks <= 1 else blocks * step + 7)
        # 0.3 km holds no school for most apartments: the nearest-school
        # branch prices them
        table = generate_apartments(cfg, roster, n, 1.5, seed=9, local_radius_km=0.3)
        assert np.array_equal(
            table, dense_generate_apartments(cfg, roster, n, 1.5, seed=9, local_radius_km=0.3))

    def test_nearest_school_branch_reached(self, city):
        cfg, roster = city
        table = generate_apartments(cfg, roster, 200, 1.5, seed=9, local_radius_km=0.3)
        s_lat = np.array([s.location.latitude for s in roster])
        s_lon = np.array([s.location.longitude for s in roster])
        # near the equator a degree is the same length both ways
        d = np.hypot(table.latitude[:, None] - s_lat, table.longitude[:, None] - s_lon)
        nearest_km = d.min(axis=1) / synth._DEG_PER_KM
        assert np.any(nearest_km > 0.3) and np.any(nearest_km < 0.3)

    def test_memory_bounded_by_blocks(self):
        cfg = SynthConfig(n_schools=600, seed=3)
        roster, _, _ = generate_city(cfg)
        tracemalloc.start()
        try:
            generate_apartments(cfg, roster, 30_000, 0.0, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense 30,000 x 600 arrays peak near 300 MB
        assert peak < 32e6, peak

    def test_strong_coupling_high_affluence_correlation(self):
        # sparse schools + tight pricing radius: each school's neighborhood
        # price tracks its own score
        cfg = SynthConfig(n_schools=100, seed=4)
        roster, _, _ = generate_city(cfg)
        apartments = generate_apartments(
            cfg, roster, 40_000, price_coupling=2.0, seed=4, noise_sd=0.0,
            local_radius_km=0.1,
        )
        report = neighborhood_affluence_segregation(roster, apartments, 0.3)
        assert report.value > 0.9

    def test_zero_coupling_near_zero(self):
        values = []
        for seed in range(5):
            cfg = SynthConfig(n_schools=500, seed=seed)
            roster, _, _ = generate_city(cfg)
            apartments = generate_apartments(cfg, roster, 10_000, 0.0, seed=seed)
            values.append(
                neighborhood_affluence_segregation(roster, apartments, 3.0).value
            )
        assert float(np.median(np.abs(values))) < 0.1
        assert max(abs(v) for v in values) < 0.2


class TestEmitCity:
    def test_roundtrip_through_ingest(self, tmp_path):
        cfg = SynthConfig(n_schools=40, seed=6)
        roster, net, truth = generate_city(cfg)
        apartments = generate_apartments(cfg, roster, 100, 0.0, seed=6)
        emit_city(tmp_path, roster, net, truth, apartments, seed=6)

        raw = parse_inputs(
            tmp_path / "students.csv",
            tmp_path / "edges.csv",
            tmp_path / "schools.csv",
            tmp_path / "apartments.csv",
        )
        assert np.array_equal(raw.apartments, apartments)
        graph, roster2, report = apply_filters(raw)
        assert report.students_removed_no_same_school_friend == 0
        assert report.students_removed_multi_school == 0
        assert len(roster2) == len(roster)
        net2, _ = build_count_network(graph, roster2)
        assert np.array_equal(dense_weights(net2), dense_weights(net))

        truth2 = json.loads((tmp_path / "ground_truth.json").read_text())
        assert truth2["config"]["n_schools"] == 40


def _rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))[1:]


class TestEmitCityPairs:
    M = 3

    @pytest.fixture(scope="class")
    def city(self, tmp_path_factory):
        cfg = SynthConfig(n_schools=10, seed=2)
        roster, _, truth = generate_city(cfg)
        # weights up to M * M: a full pair takes every cross-cohort pair
        net = SchoolNetwork([s.id for s in roster], [0, 0, 1, 2, 3, 4, 7],
                            [1, 5, 2, 9, 4, 8, 8], [1, 9, 2, 4, 1, 9, 3])
        apartments = generate_apartments(cfg, roster, 20, 0.0, seed=2)
        out = tmp_path_factory.mktemp("emit")
        emit_city(out, roster, net, truth, apartments, seed=4,
                  students_per_school=self.M)
        return roster, net, truth, apartments, out

    def test_cohort_cycle_rows(self, city):
        _, net, _, _, out = city
        m = self.M
        cycle = [[f"{school}_u{j:03d}", f"{school}_u{(j + 1) % m:03d}"]
                 for school in net.schools for j in range(m)]
        assert _rows(out / "edges.csv")[:len(cycle)] == cycle

    def test_each_pair_gets_weight_distinct_cross_rows(self, city):
        _, net, _, _, out = city
        school_of = dict(map(tuple, _rows(out / "students.csv")))
        cross = _rows(out / "edges.csv")[len(net.schools) * self.M:]
        assert len(cross) == net.weight.sum()
        per_pair = Counter()
        for a, b in cross:
            per_pair[school_of[a], school_of[b]] += 1
        want = {(a, b): w for a, b, w in net.nonzero_pairs()}
        assert dict(per_pair) == want
        assert len(set(map(tuple, cross))) == len(cross)

    def test_same_seed_same_bytes(self, city, tmp_path):
        roster, net, truth, apartments, out = city
        emit_city(tmp_path, roster, net, truth, apartments, seed=4,
                  students_per_school=self.M)
        for name in ("students.csv", "edges.csv", "schools.csv",
                     "apartments.csv", "ground_truth.json"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name

    def test_weight_beyond_cross_pairs_invalid(self, city, tmp_path):
        roster, net, truth, apartments, _ = city
        heavy = SchoolNetwork(net.schools, [0], [1], [self.M * self.M + 1])
        with pytest.raises(InvalidConfig, match="max weight"):
            emit_city(tmp_path, roster, heavy, truth, apartments,
                      students_per_school=self.M)


SYNTH_FILES = ("students.csv", "edges.csv", "schools.csv", "apartments.csv",
               "ground_truth.json")


def _assert_same_files(got, want):
    for name in SYNTH_FILES:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


class TestWritersMatchReference:
    """emit_city's byte-array writer and generate_apartments' reused block
    buffers give the bytes of the csv.writer and fresh-array code they
    replaced (dense.reference_emit_city, reference_generate_apartments)."""

    @pytest.fixture(scope="class")
    def ingest_city(self):
        # 90,000 students: 11 write blocks of students rows and 13 of edges
        # rows, and 30,000 apartments in 138 pricing blocks of up to 218 rows
        cfg = SynthConfig(n_schools=600, homophily_scale=5.0, seed=3)
        roster, net, truth = generate_city(cfg)
        apartments = generate_apartments(cfg, roster, 30_000, 1.0, seed=3)
        return cfg, roster, net, truth, apartments

    def test_ingest_city_pricing(self, ingest_city):
        cfg, roster, _, _, apartments = ingest_city
        want = reference_generate_apartments(cfg, roster, 30_000, 1.0, seed=3)
        assert apartments.tobytes() == want.tobytes()

    def test_ingest_city_files(self, ingest_city, tmp_path):
        _, roster, net, truth, apartments = ingest_city
        emit_city(tmp_path / "got", roster, net, truth, apartments, seed=3,
                  students_per_school=150)
        reference_emit_city(tmp_path / "want", roster, net, truth, apartments, seed=3,
                            students_per_school=150)
        _assert_same_files(tmp_path / "got", tmp_path / "want")

    def test_traced_memory_per_written_row(self, ingest_city, tmp_path):
        # SynthConfig(n_schools=600, homophily_scale=5, seed=3), 150
        # students a school and 30,000 apartments: 223,785 rows of
        # students, edges and apartments. Here the csv.writer version peaks
        # at 21.6 MB (96 B a row; 20.5 MB, 91 B, in a bare process) and the
        # byte-array writer at 7.0 MB (31 B a row) in blocks of 8K rows; in
        # blocks of 32K rows it peaked at 10.1 MB (45 B a row)
        _, roster, net, truth, apartments = ingest_city
        tracemalloc.start()
        try:
            emit_city(tmp_path, roster, net, truth, apartments, seed=3,
                      students_per_school=150)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = sum(len((tmp_path / name).read_bytes().splitlines()) - 1
                   for name in ("students.csv", "edges.csv", "apartments.csv"))
        assert peak / rows <= 60, f"{peak / 1e6:.1f} MB, {peak / rows:.0f} B a row of {rows}"

    @pytest.mark.parametrize("m", [2, 1001])
    def test_cohort_sizes(self, tmp_path, m):
        # 1001 students a school give the 4-digit suffix _u1000
        cfg = SynthConfig(n_schools=30, seed=5)
        roster, net, truth = generate_city(cfg)
        net = SchoolNetwork(net.schools, net.a, net.b, np.minimum(net.weight, m * m))
        apartments = generate_apartments(cfg, roster, 50, 0.5, seed=5)
        emit_city(tmp_path / "got", roster, net, truth, apartments, seed=5,
                  students_per_school=m)
        reference_emit_city(tmp_path / "want", roster, net, truth, apartments, seed=5,
                            students_per_school=m)
        _assert_same_files(tmp_path / "got", tmp_path / "want")

    def test_mixed_width_school_ids(self, tmp_path):
        cfg = SynthConfig(n_schools=10, seed=2)
        roster, _, truth = generate_city(cfg)
        ids = ["s9999", "s10000", "x", *(s.id for s in roster[3:])]
        roster = [School(i, s.location, s.score) for i, s in zip(ids, roster)]
        net = SchoolNetwork(ids, [0, 0, 1, 2, 6], [1, 2, 2, 9, 7], [3, 1, 9, 2, 4])
        apartments = generate_apartments(cfg, roster, 20, 0.0, seed=2)
        emit_city(tmp_path / "got", roster, net, truth, apartments, seed=4,
                  students_per_school=3)
        reference_emit_city(tmp_path / "want", roster, net, truth, apartments, seed=4,
                            students_per_school=3)
        _assert_same_files(tmp_path / "got", tmp_path / "want")
        assert _rows(tmp_path / "got" / "students.csv")[3:6] == [
            ["s10000_u000", "s10000"], ["s10000_u001", "s10000"], ["s10000_u002", "s10000"]]

    def test_utf8_school_ids(self, tmp_path):
        cfg = SynthConfig(n_schools=10, seed=2)
        roster, net, truth = generate_city(cfg)
        ids = ["школа", *net.schools[1:]]
        net = SchoolNetwork(ids, net.a, net.b, np.minimum(net.weight, 4))
        apartments = generate_apartments(cfg, roster, 20, 0.0, seed=2)
        emit_city(tmp_path, roster, net, truth, apartments, students_per_school=2)
        with open(tmp_path / "students.csv", encoding="utf-8", newline="") as f:
            assert list(csv.reader(f))[1:3] == [["школа_u000", "школа"],
                                                ["школа_u001", "школа"]]

    @pytest.mark.parametrize("bad", ["s,1", 's"1', "s\r1", "s\n1", "s\x001"],
                             ids=["comma", "quote", "cr", "lf", "nul"])
    def test_id_csv_would_quote_invalid(self, tmp_path, bad):
        cfg = SynthConfig(n_schools=10, seed=2)
        roster, net, truth = generate_city(cfg)
        net = SchoolNetwork([bad, *net.schools[1:]], net.a, net.b, net.weight)
        apartments = generate_apartments(cfg, roster, 20, 0.0, seed=2)
        with pytest.raises(InvalidConfig, match="school id"):
            emit_city(tmp_path, roster, net, truth, apartments, students_per_school=3)
