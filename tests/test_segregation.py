import math

import numpy as np
import pytest

from geoseg import geo
from geoseg.decay import tie_probability_curve
from geoseg.errors import (
    InsufficientNeighbors,
    KOutOfRange,
    MismatchedIds,
    TooFewSamples,
    ZeroVariance,
)
from geoseg.geo import geographic_neighbors, school_distance_matrix
from geoseg.model import (
    GeoPoint,
    School,
    SegregationReport,
    pearson,
    permutation_p_value,
    substream,
)
from geoseg.nullmodel import null_distribution_s_d
from geoseg.segregation import (
    degree_outcome_correlation,
    digital_means,
    digital_neighbors,
    digital_segregation,
    geographic_means,
    geographic_segregation,
    segregation_profile,
)
from geoseg.synth import SynthConfig, generate_city

from dense import dense_weights, network_from_dense

DEG_PER_KM = 180.0 / (math.pi * 6371.0)


def weighted_net(ids, entries):
    n = len(ids)
    w = np.zeros((n, n), dtype=np.int64)
    idx = {s: i for i, s in enumerate(ids)}
    for (a, b), weight in entries.items():
        w[idx[a], idx[b]] = weight
        w[idx[b], idx[a]] = weight
    return network_from_dense(ids, w, "raw-count")


class TestDigitalNeighbors:
    def test_descending_weight(self):
        net = weighted_net(
            ["i", "a", "b", "c"],
            {("i", "a"): 5, ("i", "b"): 2, ("i", "c"): 1},
        )
        assert digital_neighbors(net, "i", 2, seed=0) == ["a", "b"]

    def test_isolated_school(self):
        net = weighted_net(["i", "a", "b"], {("a", "b"): 1})
        with pytest.raises(InsufficientNeighbors):
            digital_neighbors(net, "i", 1, seed=0)

    def test_tie_frequency(self):
        net = weighted_net(["i", "a", "b"], {("i", "a"): 3, ("i", "b"): 3})
        picks = sum(
            digital_neighbors(net, "i", 1, seed)[0] == "a" for seed in range(10_000)
        )
        assert abs(picks / 10_000 - 0.5) < 0.02

    def test_prefix_when_no_tie_straddles(self):
        net = weighted_net(
            ["i", "a", "b", "c", "d"],
            {("i", "a"): 9, ("i", "b"): 7, ("i", "c"): 4, ("i", "d"): 2},
        )
        for seed in range(10):
            for k in range(1, 4):
                assert (
                    digital_neighbors(net, "i", k + 1, seed)[:k]
                    == digital_neighbors(net, "i", k, seed)
                )


def gradient_city(n, seed, gradient=1.0):
    rng = np.random.default_rng(seed)
    roster = []
    for i in range(n):
        east = float(rng.uniform(-15, 15))
        north = float(rng.uniform(-15, 15))
        score = 60.0 + gradient * east + float(rng.normal(0, 0.5))
        roster.append(
            School(f"s{i:03d}", GeoPoint(north * DEG_PER_KM, east * DEG_PER_KM),
                   max(score, 0.0))
        )
    return roster


class TestGeographicSegregation:
    def test_smooth_gradient_high_correlation(self):
        roster = gradient_city(500, seed=0)
        dm = school_distance_matrix(roster)
        report = geographic_segregation(roster, dm, k=5, seed=0)
        assert report.value > 0.95

    def test_shuffled_scores_near_zero(self):
        rng = np.random.default_rng(8)
        roster = gradient_city(500, seed=1)
        scores = rng.permutation([s.score for s in roster])
        roster = [School(s.id, s.location, float(v)) for s, v in zip(roster, scores)]
        dm = school_distance_matrix(roster)
        report = geographic_segregation(roster, dm, k=5, seed=0)
        assert abs(report.value) < 0.1


class TestDigitalSegregation:
    def test_two_connected_schools_below_sample_minimum(self):
        # only 2 eligible schools: Pearson is undefined below 3 samples
        net = weighted_net(["a", "b", "c"], {("a", "b"): 1})
        roster = [
            School("a", GeoPoint(0, 0), 40.0),
            School("b", GeoPoint(0, 0.01), 70.0),
            School("c", GeoPoint(0, 0.02), 55.0),
        ]
        with pytest.raises(TooFewSamples):
            digital_segregation(roster, net, k=1, seed=0)

    def test_homophilous_city_positive(self):
        hits = 0
        for seed in range(5):
            roster, net, _ = generate_city(
                SynthConfig(n_schools=300, seed=seed, homophily_scale=5.0)
            )
            if digital_segregation(roster, net, 10, seed).value > 0.3:
                hits += 1
        assert hits == 5

    def test_excluded_count_recorded(self):
        net = weighted_net(
            ["a", "b", "c", "d"],
            {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 2, ("a", "d"): 1},
        )
        roster = [
            School("a", GeoPoint(0, 0), 40.0),
            School("b", GeoPoint(0, 0.01), 70.0),
            School("c", GeoPoint(0, 0.02), 55.0),
            School("d", GeoPoint(0, 0.03), 62.0),
        ]
        report = digital_segregation(roster, net, k=2, seed=0)
        assert report.settings["excluded_schools"] == 1  # d has degree 1
        assert report.sample_size == 3

    def test_affine_invariance_in_scores(self):
        roster, net, _ = generate_city(SynthConfig(n_schools=60, seed=2))
        base = digital_segregation(roster, net, 3, seed=5).value
        shifted = [School(s.id, s.location, 2.5 * s.score + 7.0) for s in roster]
        assert abs(digital_segregation(shifted, net, 3, seed=5).value - base) < 1e-10

    def test_weight_scaling_invariance(self):
        roster, net, _ = generate_city(SynthConfig(n_schools=60, seed=3))
        base = digital_segregation(roster, net, 3, seed=5).value
        scaled = network_from_dense(net.schools, dense_weights(net) * 7, net.kind)
        assert digital_segregation(roster, scaled, 3, seed=5).value == base


class TestDegreeOutcome:
    def test_constant_degree_raises(self):
        net = weighted_net(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1})
        roster = [
            School("a", GeoPoint(0, 0), 40.0),
            School("b", GeoPoint(0, 0.01), 70.0),
            School("c", GeoPoint(0, 0.02), 55.0),
        ]
        with pytest.raises(ZeroVariance):
            degree_outcome_correlation(roster, net)

    def test_degree_boost_positive(self):
        values = []
        for seed in range(5):
            roster, net, _ = generate_city(
                SynthConfig(n_schools=300, seed=seed, degree_boost=0.5)
            )
            values.append(degree_outcome_correlation(roster, net).value)
        assert all(v > 0.2 for v in values)


# The per-school ranking that the blocked kernel replaced, kept as its
# oracle: one substream, one jitter draw and one full lexsort per school.

def _ranked_prefix(keys: np.ndarray, candidates: np.ndarray, k: int,
                   rng: np.random.Generator) -> list[int]:
    """First k candidate indices ordered by key, exact ties broken by a
    uniform random jitter."""
    jitter = rng.random(len(candidates))
    order = np.lexsort((jitter, keys))
    return candidates[order[:k]].tolist()


def reference_geographic_neighbors(dm, school_id, k, seed):
    n = len(dm.ids)
    if not 1 <= k <= n - 1:
        raise KOutOfRange(f"k={k} outside [1, {n - 1}]")
    i = dm.ids.index(school_id)
    candidates = np.delete(np.arange(n), i)
    rng = substream(seed, school_id)
    picked = _ranked_prefix(dm.distances[i, candidates], candidates, k, rng)
    return [dm.ids[j] for j in picked]


def reference_digital_neighbors(net, school_id, k, seed):
    if k < 1:
        raise KOutOfRange(f"k={k} must be >= 1")
    row = dense_weights(net)[net.index[school_id]]
    candidates = np.nonzero(row > 0)[0]
    if len(candidates) < k:
        raise InsufficientNeighbors(
            f"school {school_id!r} has degree {len(candidates)} < k={k}")
    rng = substream(seed, school_id)
    picked = _ranked_prefix(-row[candidates], candidates, k, rng)
    return [net.schools[j] for j in picked]


def reference_means(roster, neighbor_lists, k_max):
    score = {s.id: s.score for s in roster}
    table = np.full((len(roster), k_max), np.nan)
    for row, neighbors in zip(table, neighbor_lists):
        row[:len(neighbors)] = np.cumsum([score[j] for j in neighbors])
    return table / np.arange(1, k_max + 1)


def reference_geographic_means(roster, dm, k_max, seed):
    return reference_means(roster, [
        reference_geographic_neighbors(dm, s.id, k_max, seed) for s in roster
    ], k_max)


def reference_digital_means(roster, net, k_max, seed):
    degrees = (dense_weights(net) > 0).sum(axis=1)
    ks = [min(int(degrees[net.index[s.id]]), k_max) for s in roster]
    return reference_means(roster, [
        reference_digital_neighbors(net, s.id, k, seed) if k else []
        for s, k in zip(roster, ks)
    ], k_max)


def reference_profile(roster, dm, net, k_values, seed, permutations=0):
    """The per-school, per-k loops the prefix-sum table replaced: every
    school is ranked from scratch at every k and its neighbor scores are
    summed in Python. Kept as the oracle for segregation_profile."""
    scores = {s.id: s.score for s in roster}
    degrees = (dense_weights(net) > 0).sum(axis=1)

    def report(name, own, neighbor_mean, k, **settings):
        p = (
            permutation_p_value(own, neighbor_mean, permutations, seed)
            if permutations
            else None
        )
        return SegregationReport(
            name, pearson(own, neighbor_mean), len(own), p,
            {"k": k, "seed": seed, "permutations": permutations, **settings},
        )

    profile = []
    for k in k_values:
        geo_mean = [
            sum(scores[j] for j in reference_geographic_neighbors(dm, s.id, k, seed))
            / k
            for s in roster
        ]
        linked = [s for s in roster if degrees[net.index[s.id]] >= k]
        dig_mean = [
            sum(scores[j] for j in reference_digital_neighbors(net, s.id, k, seed))
            / k
            for s in linked
        ]
        profile.append((
            report("geographic_segregation", [s.score for s in roster],
                   geo_mean, k),
            report("digital_segregation", [s.score for s in linked], dig_mean,
                   k, excluded_schools=len(roster) - len(linked)),
        ))
    return profile


def tied_grid_city(seed):
    """5 x 5 grid of schools, 1/64 degree apart, with tie weights in
    {0, 1, 2}: many exactly equal distances and weights."""
    rng = np.random.default_rng(seed)
    h = 1 / 64
    roster = [
        School(f"g{r}{c}", GeoPoint(r * h, c * h), float(rng.integers(30, 90)))
        for r in range(-2, 3)
        for c in range(-2, 3)
    ]
    n = len(roster)
    w = np.triu(rng.choice([0, 1, 2], size=(n, n), p=[0.3, 0.4, 0.3]), k=1)
    net = network_from_dense([s.id for s in roster], w + w.T, "raw-count")
    return roster, school_distance_matrix(roster), net


def sparse_city():
    """Synthetic city whose degrees (2..12) straddle k = 1..10."""
    roster, net, _ = generate_city(SynthConfig(n_schools=40, seed=2))
    return roster, school_distance_matrix(roster), net


def as_dicts(profile):
    return [(g.to_dict(), d.to_dict()) for g, d in profile]


class TestProfileOracle:
    K = 10

    @pytest.mark.parametrize("city", [lambda: tied_grid_city(5), sparse_city])
    def test_matches_per_k_reference(self, city):
        roster, dm, net = city()
        ks = range(1, self.K + 1)
        expected = reference_profile(roster, dm, net, ks, seed=7,
                                     permutations=100)
        profile = segregation_profile(roster, dm, net, ks, seed=7,
                                      permutations=100)
        assert as_dicts(profile) == as_dicts(expected)
        for k, (geo_rep, dig_rep) in zip(ks, expected):
            assert (geographic_segregation(roster, dm, k, 7, 100).to_dict()
                    == geo_rep.to_dict())
            assert (digital_segregation(roster, net, k, 7, 100).to_dict()
                    == dig_rep.to_dict())

    def test_cities_exercise_ties_and_exclusions(self):
        roster, dm, net = tied_grid_city(5)
        straddling = 0
        for i in range(len(roster)):
            d = np.sort(np.delete(dm.distances[i], i))[: self.K + 1]
            row = dense_weights(net)[i]
            w = np.sort(row[row > 0])[::-1][: self.K + 1]
            straddling += bool(np.any(d[:-1] == d[1:]) and np.any(w[:-1] == w[1:]))
        assert straddling > 10
        roster, dm, net = sparse_city()
        excluded = [
            d.settings["excluded_schools"]
            for _, d in segregation_profile(roster, dm, net,
                                            range(1, self.K + 1), seed=0)
        ]
        assert excluded[0] == 0 and 0 < excluded[-1] < len(roster) - 2

    def test_errors_unchanged(self):
        roster, dm, net = sparse_city()
        n = len(roster)
        with pytest.raises(KOutOfRange):
            geographic_segregation(roster, dm, 0, seed=0)
        with pytest.raises(KOutOfRange):
            digital_segregation(roster, net, 0, seed=0)
        with pytest.raises(KOutOfRange):
            segregation_profile(roster, dm, net, [1, n], seed=0)
        with pytest.raises(KOutOfRange):
            segregation_profile(roster, dm, net, [0, 3], seed=0)
        with pytest.raises(TooFewSamples):
            digital_segregation(roster, net, 13, seed=0)
        with pytest.raises(TooFewSamples):
            segregation_profile(roster, dm, net, [1, 13], seed=0)


def lattice_city(n, seed):
    """n schools on a 5-wide lattice, 1/64 degree apart (many exactly
    equal distances), with tie weights in {0, 1, 2}."""
    rng = np.random.default_rng(seed)
    h = 1 / 64
    roster = [School(f"l{i:03d}", GeoPoint((i // 5) * h, (i % 5) * h),
                     float(rng.integers(30, 90))) for i in range(n)]
    w = np.triu(rng.choice([0, 1, 2], size=(n, n), p=[0.3, 0.4, 0.3]), k=1)
    net = network_from_dense([s.id for s in roster], w + w.T, "raw-count")
    return roster, school_distance_matrix(roster), net


def shared_location_city(seed=3):
    """12 schools on 4 sites, so 0 km apart within a site, with tie
    weights in {0, 1, 3}; c11 has no tie."""
    rng = np.random.default_rng(seed)
    roster = [School(f"c{i:02d}", GeoPoint(0.004 * (i % 4), 0.003 * (i % 2)),
                     float(rng.integers(30, 90))) for i in range(12)]
    w = np.triu(rng.choice([0, 1, 3], size=(12, 12), p=[0.4, 0.4, 0.2]), k=1)
    w[:, 11] = 0
    net = network_from_dense([s.id for s in roster], w + w.T, "raw-count")
    return roster, school_distance_matrix(roster), net


def assert_tables_match(roster, dm, net, k_max, seeds=range(4)):
    for seed in seeds:
        assert np.array_equal(
            geographic_means(roster, dm, k_max, seed),
            reference_geographic_means(roster, dm, k_max, seed), equal_nan=True)
        assert np.array_equal(
            digital_means(roster, net, k_max, seed),
            reference_digital_means(roster, net, k_max, seed), equal_nan=True)


class TestRankingKernel:
    @pytest.mark.parametrize("city, k_max", [
        (lambda: tied_grid_city(5), 6),  # distance ties straddle the cut
        (lambda: tied_grid_city(5), 24),  # k_max = n - 1: no cut
        (shared_location_city, 4),
        (shared_location_city, 11),
        (sparse_city, 10),  # degree < k_max
        (lambda: lattice_city(3, 0), 1),
        (lambda: lattice_city(3, 0), 2),
    ])
    def test_tables_match_per_school_ranking(self, city, k_max):
        assert_tables_match(*city(), k_max)

    def test_cities_tie_at_the_cut(self):
        roster, dm, net = tied_grid_city(5)
        d = np.sort(dm.distances + np.diag(np.full(len(roster), np.inf)), axis=1)
        assert np.any(d[:, 5] == d[:, 6])  # the 6th and 7th nearest tie
        roster, dm, net = shared_location_city()
        assert np.sum(dm.distances == 0) > len(roster)
        w = np.sort(dense_weights(net), axis=1)[:, ::-1]
        assert np.any((w[:, 3] == w[:, 4]) & (w[:, 4] > 0))
        assert np.any((w > 0).sum(axis=1) < 4) and not dense_weights(net)[11].any()

    @pytest.mark.parametrize("n, rows", [(3, 1), (3, 2), (8, 8), (9, 8), (23, 8)])
    def test_block_boundaries(self, monkeypatch, n, rows):
        # n = 3 is the smallest city; then one full block, a block and one
        # row, and a size that is not a multiple of the block
        monkeypatch.setattr(geo, "_BLOCK_CELLS", rows * n)
        blocks = []

        def counted(cells, labels, *args):
            blocks.append(len(labels))
            return rank_cells(cells, labels, *args)

        rank_cells = geo._rank_cells
        monkeypatch.setattr(geo, "_rank_cells", counted)
        roster, dm, net = lattice_city(n, seed=n)
        assert_tables_match(roster, dm, net, min(5, n - 1), seeds=[1])
        full, rest = divmod(n, rows)
        assert blocks == 2 * ([rows] * full + [rest] * bool(rest))

    @pytest.mark.parametrize("statistic", [
        lambda roster, dm, net: geographic_means(roster, dm, 3, seed=0),
        lambda roster, dm, net: digital_means(roster, net, 3, seed=0),
        lambda roster, dm, net: degree_outcome_correlation(roster, net),
        lambda roster, dm, net: null_distribution_s_d(
            roster, dm, tie_probability_curve(net, dm), 1, 100, seed=0,
            observed=0.0),
    ], ids=["geographic_means", "digital_means", "degree_outcome_correlation",
            "null_distribution_s_d"])
    def test_roster_out_of_order_rejected(self, statistic):
        # the tables and the null model index schools by roster position
        roster, dm, net = sparse_city()
        with pytest.raises(MismatchedIds, match="school lists differ"):
            statistic(roster[::-1], dm, net)

    def test_default_blocks(self):
        roster, net, _ = generate_city(SynthConfig(n_schools=600, seed=8))
        assert 600 % (geo._BLOCK_CELLS // 600) != 0  # a short last block
        assert_tables_match(roster, school_distance_matrix(roster), net, 20,
                            seeds=[8])

    def test_one_row_calls_match(self):
        roster, dm, net = shared_location_city()
        degrees = (dense_weights(net) > 0).sum(axis=1)
        for s in roster:
            for k in range(1, len(roster)):
                assert (geographic_neighbors(dm, s.id, k, 5)
                        == reference_geographic_neighbors(dm, s.id, k, 5))
            for k in range(1, degrees[net.index[s.id]] + 1):
                assert (digital_neighbors(net, s.id, k, 5)
                        == reference_digital_neighbors(net, s.id, k, 5))


class TestProfile:
    def test_single_k_matches_individual_ops(self):
        roster, net, _ = generate_city(SynthConfig(n_schools=80, seed=4))
        dm = school_distance_matrix(roster)
        profile = segregation_profile(roster, dm, net, range(1, 11), seed=3)
        assert len(profile) == 10
        for k, (geo_rep, dig_rep) in zip(range(1, 11), profile):
            assert geo_rep.value == geographic_segregation(roster, dm, k, seed=3).value
            assert dig_rep.value == digital_segregation(roster, net, k, seed=3).value

    def test_empty_k_values(self):
        roster, net, _ = generate_city(SynthConfig(n_schools=30, seed=4))
        dm = school_distance_matrix(roster)
        assert segregation_profile(roster, dm, net, [], seed=0) == []

    def test_homophilous_dissociation(self):
        roster, net, _ = generate_city(
            SynthConfig(n_schools=300, seed=6, homophily_scale=5.0)
        )
        dm = school_distance_matrix(roster)
        for geo_rep, dig_rep in segregation_profile(
            roster, dm, net, range(1, 11), seed=6
        ):
            assert dig_rep.value > geo_rep.value + 0.2
