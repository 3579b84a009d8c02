import errno
import itertools
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from geoseg.decay import tie_probability_curve
from geoseg.errors import DegenerateNull, KOutOfRange, TooFewSamples, ZeroVariance
from geoseg.geo import DistanceMatrix, school_distance_matrix
from geoseg.model import DecayCurve, group_arcs, pearson
from geoseg.network import binarize
from geoseg import nullmodel
from geoseg.nullmodel import (
    _draw_ties,
    _pair_table,
    _s_d_on_edges,
    null_distribution_s_d,
    write_null_samples_csv,
)
from geoseg.segregation import digital_segregation, geographic_means
from geoseg.synth import SynthConfig, generate_city

from dense import dense_weights, generate_null_graph, network_from_dense
from test_imports import run_fresh


# The dense kernels the edge-list null model and the binned tie draw
# replaced, kept as their oracles.

def _pair_probabilities(curve: DecayCurve, dm):
    """Upper-triangle tie probabilities from the binned curve.

    A pair whose distance falls beyond the last bin, or in a bin with no
    defined probability, is uncovered and never tied. Returns (iu, probs,
    uncovered_count).
    """
    n = len(dm.ids)
    iu = np.triu_indices(n, k=1)
    d = dm.block(slice(0, n))[iu]
    idx = np.searchsorted(curve.bin_edges, d, side="right") - 1
    defined = ~np.isnan(curve.probabilities)
    in_range = (idx >= 0) & (idx < len(curve.probabilities))
    covered = in_range & defined[np.clip(idx, 0, len(curve.probabilities) - 1)]
    probs = np.zeros(len(d))
    probs[covered] = curve.probabilities[idx[covered]]
    return iu, probs, int((~covered).sum())


def _draw_edges(iu, probs: np.ndarray, rng: np.random.Generator):
    """Tied pairs (a, b), a < b, with one independent Bernoulli tie per
    upper-triangle pair, consuming len(probs) uniforms from rng."""
    ties = np.flatnonzero(rng.random(len(probs)) < probs)
    return iu[0][ties], iu[1][ties]


def _s_d_on_binary(adj: np.ndarray, scores: np.ndarray, k: int,
                   rng: np.random.Generator) -> float | None:
    """S_d(k) on a binary adjacency matrix: the k-set of each school is a
    uniform random k-subset of its neighbors. Returns None when fewer than
    3 schools are eligible or a correlation input is constant."""
    degrees = adj.sum(axis=1)
    eligible = np.nonzero(degrees >= k)[0]
    if len(eligible) < 3:
        return None
    # random ranking per row: smallest k jitters among neighbors = uniform k-subset
    jitter = rng.random(adj.shape)
    jitter[~adj] = np.inf
    rows = jitter[eligible]
    if k == 1:
        chosen = np.argmin(rows, axis=1)
        neighbor_mean = scores[chosen]
    else:
        top = np.argpartition(rows, k - 1, axis=1)[:, :k]
        neighbor_mean = scores[top].mean(axis=1)
    own = scores[eligible]
    if np.all(own == own[0]) or np.all(neighbor_mean == neighbor_mean[0]):
        return None
    return pearson(own, neighbor_mean)


def reference_s_d_on_edges(a, b, n, scores, k, rng):
    """The edge-list pick that Floyd's k-subsets replaced: at k = 1 a stable
    sort of the arcs by school and arc first + floor(u * degree); at k > 1
    one argsort of the float keys src + u, whose first k arcs per school
    are its pick."""
    src = np.concatenate((a, b))
    dst = np.concatenate((b, a))
    degrees = np.bincount(src, minlength=n)
    eligible = np.flatnonzero(degrees >= k)
    if len(eligible) < 3:
        return None
    first = (np.cumsum(degrees) - degrees)[eligible]
    if k == 1:
        order = np.argsort(src, kind="stable")
        pick = first + (rng.random(len(eligible)) * degrees[eligible]).astype(np.int64)
        neighbor_mean = scores[dst[order[pick]]]
    else:
        order = np.argsort(src + rng.random(len(src)))
        neighbor_mean = scores[dst[order[first[:, None] + np.arange(k)]]].mean(axis=1)
    own = scores[eligible]
    if np.all(own == own[0]) or np.all(neighbor_mean == neighbor_mean[0]):
        return None
    return pearson(own, neighbor_mean)


def reference_null_samples(roster, dm, curve, k, simulations, seed):
    """The replaced Monte Carlo loop: same per-index seeds and discard rule,
    dense adjacency and jitter ranking."""
    iu, probs, _ = _pair_probabilities(curve, dm)
    scores = np.array([s.score for s in roster])
    samples = []
    index = 0
    while len(samples) < simulations:
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        index += 1
        adj = dense(*_draw_edges(iu, probs, rng), len(roster))
        value = _s_d_on_binary(adj, scores, k, rng)
        if value is not None:
            samples.append(value)
    return np.array(samples)


def edge_arrays(pairs):
    ordered = sorted(tuple(sorted(p)) for p in pairs)
    # int16, as the pair table stores school indices
    a, b = np.array(ordered, dtype=np.int16).reshape(-1, 2).T
    return a, b


def dense(a, b, n):
    adj = np.zeros((n, n), dtype=bool)
    adj[a, b] = adj[b, a] = True
    return adj


def cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def cliques(count, size):
    return [(c * size + i, c * size + j) for c in range(count)
            for i, j in itertools.combinations(range(size), 2)]


@pytest.fixture(scope="module")
def small_city():
    roster, net, _ = generate_city(SynthConfig(n_schools=120, seed=0))
    dm = school_distance_matrix(roster)
    curve = tie_probability_curve(binarize(net), dm, 1.0)
    return roster, net, dm, curve


def flat_curve(dm, p):
    max_d = float(dm.block(slice(0, len(dm.ids))).max()) + 1.0
    edges = np.array([0.0, max_d])
    return DecayCurve(edges, np.array([p]), np.array([1000]))


class TestGenerate:
    def test_zero_curve_empty_network(self, small_city):
        _, _, dm, _ = small_city
        curve = flat_curve(dm, 0.0)
        for seed in range(3):
            net = generate_null_graph(curve, dm, seed)
            assert dense_weights(net).sum() == 0

    def test_one_curve_complete_network(self, small_city):
        _, _, dm, _ = small_city
        curve = flat_curve(dm, 1.0)
        net = generate_null_graph(curve, dm, 0)
        n = len(dm.ids)
        assert dense_weights(net).sum() == n * (n - 1)

    def test_deterministic_per_seed(self, small_city):
        _, _, dm, curve = small_city
        a = generate_null_graph(curve, dm, 42)
        b = generate_null_graph(curve, dm, 42)
        assert np.array_equal(dense_weights(a), dense_weights(b))
        c = generate_null_graph(curve, dm, 43)
        assert not np.array_equal(dense_weights(a), dense_weights(c))

    def test_pairs_are_the_sorted_draw(self, small_city):
        # the draw's pairs, sorted by (a, b), grouped by school as the
        # null model's own pick groups them
        roster, _, dm, curve = small_city
        n = len(dm.ids)
        for seed in range(5):
            net = generate_null_graph(curve, dm, seed)
            a, b = _draw_ties(_pair_table(curve, dm), np.random.default_rng(seed))
            key = np.sort(a.astype(np.int64) * n + b)
            assert np.array_equal(net.a * n + net.b, key)
            assert np.all(net.weight == 1)
            order, indptr = group_arcs(np.concatenate((a, b)), n)
            dst = np.concatenate((b, a))[order]
            indptr_net, neighbors, _ = net.arcs
            assert np.array_equal(indptr, indptr_net)
            for i in range(n):
                assert np.array_equal(np.sort(dst[indptr[i]:indptr[i + 1]]),
                                      neighbors[indptr[i]:indptr[i + 1]])

    def test_expected_edge_count(self, small_city):
        _, _, dm, curve = small_city
        n = len(dm.ids)
        iu = np.triu_indices(n, 1)
        idx = np.searchsorted(curve.bin_edges, dm.block(slice(0, n))[iu], side="right") - 1
        idx = np.clip(idx, 0, len(curve.probabilities) - 1)
        probs = np.nan_to_num(curve.probabilities)[idx]
        expected = probs.sum()
        counts = [
            np.triu(dense_weights(generate_null_graph(curve, dm, seed)), 1).sum()
            for seed in range(300)
        ]
        se = np.sqrt((probs * (1 - probs)).sum())
        assert abs(np.mean(counts) - expected) < 3 * se / np.sqrt(300) + 1e-9

    def test_pair_table_matches_dense_probabilities(self, small_city):
        # a NaN bin and a last edge short of the farthest pair leave pairs
        # uncovered; p = 0 and p = 1 bins are kept out of the drawn bins
        _, _, dm, curve = small_city
        probs = curve.probabilities[:-3].copy()
        probs[[1, 2, 4]] = [np.nan, 0.0, 1.0]
        cut = DecayCurve(curve.bin_edges[:-3], probs,
                         np.where(np.isnan(probs), 0, 1))
        for c in (curve, cut):
            iu, dense_probs, uncovered = _pair_probabilities(c, dm)
            table = _pair_table(c, dm)
            n = len(dm.ids)
            expected = np.zeros((n, n))
            expected[iu] = dense_probs
            got = np.zeros((n, n))
            for start, count, p in zip(table.starts, table.counts, table.probs):
                got[table.a[start:start + count], table.b[start:start + count]] = p
            got[table.a[table.certain], table.b[table.certain]] = 1.0
            assert np.array_equal(got, expected)
            assert table.uncovered == uncovered
        assert table.uncovered > 0 and len(table.certain) > 0

    def test_curve_and_pair_table_bin_an_edge_pair_alike(self):
        # a tied pair just below the edge 5 * 0.7 km: floor(d / 0.7) puts
        # it in bin 5, the edges in bin 4; z is 1 km north of x, in bin 1,
        # and 3.6 km from y, in bin 5
        dm = DistanceMatrix(["x", "y", "z"], [0.0, 0.0, 0.009],
                            [0.0, 0.031476256207155565, 0.0])
        d = dm.pair_distances(0, 1)
        assert d == np.nextafter(3.5, 0) and math.floor(d / 0.7) == 5
        tied = np.zeros((3, 3), dtype=np.int64)
        tied[0, 1] = tied[1, 0] = 1
        curve = tie_probability_curve(network_from_dense(dm.ids, tied), dm, 0.7)
        # the curve's binning is the one the pair table reads
        assert dm._binned[0] == curve.bin_edges.tobytes()
        table = _pair_table(curve, dm)
        assert table.uncovered == 0
        assert [(table.a[i], table.b[i]) for i in table.certain] == [(0, 1)]
        assert dense_weights(generate_null_graph(curve, dm, 0))[0, 1] == 1

    def test_per_bin_counts_match_dense_draw(self, small_city):
        # the binned draw is a different stream from the dense draw, so it
        # is compared in distribution: each bin's tie total over the same
        # 300 seeds within 4 SE of the difference of two binomials
        _, _, dm, curve = small_city
        iu, probs, _ = _pair_probabilities(curve, dm)
        bins = np.searchsorted(curve.bin_edges, dm.block(slice(0, len(dm.ids)))[iu],
                               side="right") - 1
        m = len(curve.probabilities)
        new = np.zeros(m)
        old = np.zeros(m)
        seeds = range(300)
        for seed in seeds:
            a, b = _draw_edges(iu, probs, np.random.default_rng(seed))
            old += np.bincount(bins[dense(a, b, len(dm.ids))[iu]], minlength=m)
            g = dense_weights(generate_null_graph(curve, dm, seed))[iu] > 0
            new += np.bincount(bins[g], minlength=m)
        pairs = np.bincount(bins, minlength=m) * len(seeds)
        p = np.nan_to_num(curve.probabilities)
        se = np.sqrt(2 * pairs * p * (1 - p))
        assert np.all(np.abs(new - old) <= 4 * se + 1e-9), (new, old)
        assert new.sum() > 0

    def test_top_up_draws_past_a_one_slot_allotment(self, small_city,
                                                     monkeypatch):
        # with one gap per bin every bin with a tie must draw more gaps;
        # a top-up that stopped early would leave at most one tie per bin
        _, _, dm, curve = small_city
        monkeypatch.setattr(nullmodel, "_slack",
                            lambda counts, probs: np.ones_like(counts))
        assert np.all(_pair_table(curve, dm).slots == 1)
        iu = np.triu_indices(len(dm.ids), 1)
        bins = np.searchsorted(curve.bin_edges, dm.block(slice(0, len(dm.ids)))[iu],
                               side="right") - 1
        m = len(curve.probabilities)
        n_graphs = 60
        ties = np.zeros(m)
        for seed in range(n_graphs):
            g = dense_weights(generate_null_graph(curve, dm, seed))[iu] > 0
            ties += np.bincount(bins[g], minlength=m)
        trials = np.bincount(bins, minlength=m) * n_graphs
        p = np.nan_to_num(curve.probabilities)
        se = np.sqrt(p * (1 - p) / np.maximum(trials, 1))
        assert np.all(np.abs(ties / np.maximum(trials, 1) - p) <= 4 * se + 1e-12)
        assert ties.max() > n_graphs

    def test_per_bin_frequency_matches_curve(self, small_city):
        _, _, dm, curve = small_city
        n = len(dm.ids)
        iu = np.triu_indices(n, 1)
        bins = np.floor(dm.block(slice(0, n))[iu] / 1.0).astype(int)
        bins = np.clip(bins, 0, len(curve.probabilities) - 1)
        n_graphs = 300
        tie_totals = np.zeros(len(curve.probabilities))
        for seed in range(n_graphs):
            net = generate_null_graph(curve, dm, seed)
            tied = dense_weights(net)[iu] > 0
            tie_totals += np.bincount(
                bins[tied], minlength=len(curve.probabilities)
            )
        pair_counts = np.bincount(bins, minlength=len(curve.probabilities))
        ok = 0
        checked = 0
        for m in range(len(curve.probabilities)):
            p = curve.probabilities[m]
            if pair_counts[m] == 0 or np.isnan(p):
                continue
            checked += 1
            trials = pair_counts[m] * n_graphs
            se = np.sqrt(max(p * (1 - p) / trials, 1e-18))
            if abs(tie_totals[m] / trials - p) <= 4 * se + 1e-12:
                ok += 1
        # every bin within 4 SE: below 100 bins "99% within 3 SE" means
        # every one of these 30 bins, which an exact draw misses about 8%
        # of the time; 4 SE puts that near 0.2%
        assert checked > 0
        assert ok == checked


class TestEdgeKernel:
    @pytest.mark.parametrize("pairs, n, k", [
        (cycle(10), 10, 2),
        (cliques(4, 4), 16, 3),
        ([(2 * i, 2 * i + 1) for i in range(5)], 10, 1),
    ])
    def test_matches_dense_kernel_when_picks_are_forced(self, pairs, n, k):
        # every school of degree >= k has exactly k neighbours
        a, b = edge_arrays(pairs)
        scores = np.random.default_rng(n + k).normal(size=n)
        for seed in range(5):
            new = _s_d_on_edges(a, b, n, scores, k, np.random.default_rng(seed))
            old = _s_d_on_binary(dense(a, b, n), scores, k,
                                 np.random.default_rng(seed + 100))
            assert new is not None
            assert abs(new - old) <= 1e-12

    @pytest.mark.parametrize("pairs, n, k, scores", [
        ([], 6, 1, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
        ([(0, 1), (1, 2)], 3, 2, [0.0, 1.0, 2.0]),
        (cycle(8), 8, 2, [1.5] * 8),
        # K_{2,3}: every neighbour mean is 1
        ([(i, j) for i in (0, 1) for j in (2, 3, 4)], 5, 2,
         [0.0, 2.0, 1.0, 1.0, 1.0]),
    ])
    def test_none_on_the_same_inputs(self, pairs, n, k, scores):
        a, b = edge_arrays(pairs)
        scores = np.array(scores)
        rng = np.random.default_rng(0)
        assert _s_d_on_binary(dense(a, b, n), scores, k, rng) is None
        assert _s_d_on_edges(a, b, n, scores, k, rng) is None

    @pytest.mark.parametrize("pairs, n, k, scores", [
        (cycle(10), 10, 2, np.arange(10.0) ** 2),
        (cycle(10), 10, 2, np.arange(10.0) ** 2 * 1e-200),
        (cycle(10), 10, 2, np.arange(10.0) ** 2 * 1e200),
        ([], 6, 1, np.arange(6.0)),
        ([(0, 1), (1, 2)], 3, 2, np.arange(3.0)),
        ([(0, 1), (2, 3), (4, 5)], 6, 1, [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]),
        (cycle(8), 8, 2, np.full(8, 61.3)),
        (cycle(8), 8, 2, np.full(8, 1.5)),
        ([(i, j) for i in (0, 1) for j in (2, 3, 4)], 5, 2, [0.0, 2.0, 1.0, 1.0, 1.0]),
    ], ids=["cycle", "cycle-tiny", "cycle-huge", "no-ties", "one-eligible",
            "pairs", "constant-61.3", "constant-1.5", "constant-neighbour-means"])
    def test_none_exactly_when_pearson_raises(self, pairs, n, k, scores):
        # each eligible school's k-subsets all have its full neighbour mean,
        # so S_d is pearson(scores, full neighbour means) or undefined
        a, b = edge_arrays(pairs)
        scores = np.asarray(scores, dtype=float)
        adj = dense(a, b, n)
        eligible = np.flatnonzero(adj.sum(axis=1) >= k)
        means = [scores[adj[i]].mean() for i in eligible]
        try:
            expected = pearson(scores[eligible], means)
        except (TooFewSamples, ZeroVariance):
            expected = None
        assert _s_d_on_edges(a, b, n, scores, k, np.random.default_rng(0)) == expected

    @pytest.mark.parametrize("k, degree", [(1, 5), (2, 5), (3, 5), (4, 5), (3, 3)],
                             ids=["1", "2", "3", "4", "3-degree-3"])
    def test_every_k_subset_equally_likely(self, k, degree):
        # school 0 has neighbours 1..degree; for k > 1 each of those also
        # gets k - 1 pendants so it has exactly k neighbours, and for k=1 two
        # separate pairs vary the other neighbour means. Only school 0's
        # pick is random, and each k-subset gives a distinct S_d value.
        pairs = [(0, j) for j in range(1, degree + 1)]
        n = degree + 1
        if k == 1:
            pairs += [(n, n + 1), (n + 2, n + 3)]
            n += 4
        for j in range(1, degree + 1):
            for _ in range(k - 1):
                pairs.append((j, n))
                n += 1
        a, b = edge_arrays(pairs)
        scores = np.random.default_rng(7).normal(size=n)
        neighbours = {i: [j for p in pairs for j in p if i in p and j != i]
                      for i in range(n)}
        eligible = [i for i in range(n) if len(neighbours[i]) >= k]
        subsets = list(itertools.combinations(range(1, degree + 1), k))
        values = np.array([
            pearson(scores[eligible], [
                scores[list(subset if i == 0 else neighbours[i])].mean()
                for i in eligible
            ])
            for subset in subsets
        ])
        assert len(values) == 1 or np.diff(np.sort(values)).min() > 1e-6

        draws = 4000
        rng = np.random.default_rng(2026)
        counts = np.zeros(len(subsets))
        for _ in range(draws):
            value = _s_d_on_edges(a, b, n, scores, k, rng)
            hit = np.argmin(np.abs(values - value))
            assert abs(values[hit] - value) <= 1e-12
            counts[hit] += 1
        p = 1 / math.comb(degree, k)
        se = math.sqrt(p * (1 - p) / draws)
        assert np.all(np.abs(counts / draws - p) <= 4 * se), counts

    def test_k1_pick_bit_identical_to_old_kernel(self, small_city):
        # k = 1 takes the same uniforms and the same flat gather as before
        _, _, dm, curve = small_city
        table = _pair_table(curve, dm)
        scores = np.random.default_rng(3).normal(size=len(dm.ids))
        for seed in range(40):
            a, b = _draw_ties(table, np.random.default_rng(seed))
            new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            new = _s_d_on_edges(a, b, len(dm.ids), scores, 1, new_rng)
            assert new is not None
            assert new == reference_s_d_on_edges(a, b, len(dm.ids), scores, 1, old_rng)
            assert new_rng.random() == old_rng.random()

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_k_subsets_match_old_pick_in_distribution(self, small_city, k):
        # the per-simulation values move at k > 1; their distribution over
        # one fixed graph does not
        _, _, dm, curve = small_city
        a, b = _draw_ties(_pair_table(curve, dm), np.random.default_rng(k))
        scores = np.random.default_rng(4).normal(size=len(dm.ids))
        draws = 400
        new = np.array([_s_d_on_edges(a, b, len(dm.ids), scores, k,
                                      np.random.default_rng(seed))
                        for seed in range(draws)])
        old = np.array([reference_s_d_on_edges(a, b, len(dm.ids), scores, k,
                                               np.random.default_rng(seed))
                        for seed in range(draws, 2 * draws)])
        mean_se = math.sqrt((old.var(ddof=1) + new.var(ddof=1)) / draws)
        assert abs(new.mean() - old.mean()) <= 4 * mean_se
        sd_se = math.sqrt((old.var(ddof=1) + new.var(ddof=1)) / (2 * (draws - 1)))
        assert abs(new.std(ddof=1) - old.std(ddof=1)) <= 4 * sd_se


class TestNullDistribution:
    def test_self_consistent_without_homophily(self, small_city):
        roster, net, dm, curve = small_city
        observed = digital_segregation(roster, net, 1, seed=0).value
        result = null_distribution_s_d(
            roster, dm, curve, k=1, simulations=200, seed=0, observed=observed
        )
        lo = result.simulated_mean - 3 * result.simulated_sd
        hi = result.simulated_mean + 3 * result.simulated_sd
        assert lo <= result.observed <= hi
        assert result.empirical_p > 0.01

    def test_result_invariants(self, small_city):
        roster, net, dm, curve = small_city
        result = null_distribution_s_d(
            roster, dm, curve, k=1, simulations=150, seed=1, observed=0.0
        )
        assert result.simulations == 150
        assert len(result.samples) == 150
        assert result.simulated_max >= result.simulated_mean - result.simulated_sd
        expected_p = (1 + (result.samples >= 0.0).sum()) / 151
        assert result.empirical_p == expected_p
        se = math.sqrt(expected_p * (1 - expected_p) / 150)
        assert result.to_dict()["empirical_p_se"] == se
        assert not result.extension

    def test_deterministic(self, small_city):
        roster, net, dm, curve = small_city
        a = null_distribution_s_d(roster, dm, curve, 1, 120, 9, observed=0.1)
        b = null_distribution_s_d(roster, dm, curve, 1, 120, 9, observed=0.1)
        assert np.array_equal(a.samples, b.samples)
        assert a.to_dict() == b.to_dict()

    def test_prefix_of_longer_run(self, small_city):
        roster, _, dm, curve = small_city
        short = null_distribution_s_d(roster, dm, curve, 1, 100, 4, observed=0.0)
        long = null_distribution_s_d(roster, dm, curve, 1, 200, 4, observed=0.0)
        assert short.discarded == long.discarded == 0
        assert np.array_equal(long.samples[:100], short.samples)

    @pytest.mark.parametrize("k, seed", [(1, 31), (3, 32)])
    def test_matches_dense_null_distribution(self, small_city, k, seed):
        roster, _, dm, curve = small_city
        draws = 400
        new = null_distribution_s_d(roster, dm, curve, k, draws, seed,
                                    observed=0.0).samples
        old = reference_null_samples(roster, dm, curve, k, draws, seed)
        mean_se = math.sqrt((old.var(ddof=1) + new.var(ddof=1)) / draws)
        assert abs(new.mean() - old.mean()) <= 4 * mean_se
        sd_se = math.sqrt((old.var(ddof=1) + new.var(ddof=1)) / (2 * (draws - 1)))
        assert abs(new.std(ddof=1) - old.std(ddof=1)) <= 4 * sd_se

    def test_degenerate_null(self, small_city):
        roster, _, dm, _ = small_city
        curve = flat_curve(dm, 0.0)  # no ties -> every simulation discarded
        with pytest.raises(DegenerateNull):
            null_distribution_s_d(roster, dm, curve, 1, 100, 0, observed=0.0)

    def test_started_run_gives_the_same_result(self, small_city):
        # a run is joined once; a spent run makes the call draw everything
        # itself, and a run started with other arguments is refused
        roster, _, dm, curve = small_city
        want = null_distribution_s_d(roster, dm, curve, 2, 100, 5, observed=0.0)
        with nullmodel.NullRun(roster, dm, curve, 2, 100, 5) as run:
            with pytest.raises(ValueError, match="other arguments"):
                null_distribution_s_d(roster, dm, curve, 2, 100, 6, observed=0.0, run=run)
            joined = null_distribution_s_d(roster, dm, curve, 2, 100, 5, observed=0.0,
                                           run=run)
        assert run.spent
        again = null_distribution_s_d(roster, dm, curve, 2, 100, 5, observed=0.0, run=run)
        for got in (joined, again):
            assert np.array_equal(got.samples, want.samples)
            assert got.to_dict() == want.to_dict()

    @pytest.mark.parametrize("k", [0, -1, 40, 45])
    def test_k_outside_roster_rejected_before_drawing(self, k):
        roster, net, _ = generate_city(SynthConfig(n_schools=40, seed=3))
        dm = school_distance_matrix(roster)
        curve = tie_probability_curve(binarize(net), dm, 1.0)
        with pytest.raises(KOutOfRange, match=rf"k={k} outside \[1, 39\]"):
            null_distribution_s_d(roster, dm, curve, k, 100, 0, observed=0.0)

    def test_extension_flag_for_k_above_one(self, small_city):
        roster, net, dm, curve = small_city
        result = null_distribution_s_d(
            roster, dm, curve, k=3, simulations=100, seed=2, observed=0.0
        )
        assert result.extension

    def test_samples_csv(self, small_city, tmp_path):
        roster, net, dm, curve = small_city
        result = null_distribution_s_d(roster, dm, curve, 1, 100, 3, observed=0.0)
        path = tmp_path / "null.csv"
        write_null_samples_csv(result, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "s_d_null"
        assert len(lines) == 101
        assert np.allclose([float(v) for v in lines[1:]], result.samples)


# The forked path runs in a fresh interpreter on one BLAS thread, so the
# process has one thread and may fork. FRESH_CITY sets up the 120-school
# city (or, given p, one flat bin over every pair) and widens the affinity
# mask to `workers` CPUs; MIN_WORKER_S 0 then lets every batch fork. The
# run starts, the caller sleeps `sleep_s` (long enough for the children to
# take every block of the first batch) and then joins it.
FRESH_CITY = """
import json, math, os, time
import numpy as np
from geoseg import nullmodel
from geoseg.decay import tie_probability_curve
from geoseg.geo import school_distance_matrix
from geoseg.model import DecayCurve
from geoseg.network import binarize
from geoseg.synth import SynthConfig, generate_city

roster, net, _ = generate_city(SynthConfig(n_schools=120, seed=0))
dm = school_distance_matrix(roster)
curve = tie_probability_curve(binarize(net), dm, 1.0)
if {p!r} is not None:
    max_d = float(dm.block(slice(0, len(dm.ids))).max()) + 1.0
    curve = DecayCurve(np.array([0.0, max_d]), np.array([{p!r}]), np.array([1000]))
os.sched_getaffinity = lambda pid: set(range({workers}))
parent, real_s_d, calls = os.getpid(), nullmodel._s_d_on_edges, []

def counted_s_d(*args):
    if os.getpid() == parent:
        calls.append(1)
    return real_s_d(*args)

nullmodel._s_d_on_edges = counted_s_d

def outcome(min_worker_s, sleep_s=0.0):
    nullmodel.MIN_WORKER_S = min_worker_s
    try:
        with nullmodel.NullRun(roster, dm, curve, {k}, 100, 7) as run:
            time.sleep(sleep_s)
            result = nullmodel.null_distribution_s_d(roster, dm, curve, {k}, 100, 7, 0.0,
                                                     run=run)
    except (Exception, KeyboardInterrupt) as exc:
        return {{"error": f"{{type(exc).__name__}}: {{exc}}"}}
    return {{"samples": result.samples.tolist(), "result": result.to_dict()}}

def left_child():
    try:
        os.waitpid(-1, os.WNOHANG)
        return True
    except ChildProcessError:
        return False
"""

# the serial outcome, then the forked one joined at once and after a
# sleep, counting the forks and the simulations the caller drew itself
SERIAL_AND_FORKED = """
serial = outcome(math.inf)
real_fork, forks = os.fork, []

def counted_fork():
    forks.append(1)
    return real_fork()

os.fork = counted_fork
seen = {"serial": serial, "forks": {}, "calls": {}}
for name, sleep_s in (("at_once", 0.0), ("after_sleep", 1.0)):
    forks.clear()
    calls.clear()
    seen[name] = outcome(0, sleep_s)
    seen["forks"][name], seen["calls"][name] = len(forks), len(calls)
seen["left"] = left_child()
print(json.dumps(seen))
"""

# the forked outcome, joined after a sleep, with _s_d_on_edges failing as
# asked in a child, and in the parent after its first 10 calls, then
# whether a child is left
WITH_FAILURE = """
def failing(*args):
    if os.getpid() != parent:
        {in_child}
    elif len(calls) > 10:
        {in_parent}
    return counted_s_d(*args)

nullmodel._s_d_on_edges = failing
seen = outcome(0, 1.0)
print(json.dumps([seen["error"], left_child()]))
"""

# an error raised in the caller between the start and the join
BETWEEN = """
from geoseg.errors import GeosegError
nullmodel.MIN_WORKER_S = 0
try:
    with nullmodel.NullRun(roster, dm, curve, 1, 100, 7) as run:
        children = len(run.children)
        raise {error}
except (Exception, KeyboardInterrupt) as exc:
    seen = type(exc).__name__
print(json.dumps([seen, children, left_child()]))
"""

# the forked outcome with `target` raising `error` in the run's setup,
# the open descriptors before and after it, and whether a child is left
SETUP_FAILS = """
import mmap
real = {target}

def fail(*args):
    raise {error}

before = len(os.listdir("/proc/self/fd"))
{target} = fail
seen = outcome(0)
{target} = real
print(json.dumps([seen["error"], before, len(os.listdir("/proc/self/fd")), left_child()]))
"""

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")


def fresh(code: str, k=1, workers=2, p=None):
    return run_fresh(FRESH_CITY.format(k=k, workers=workers, p=p) + code,
                     OPENBLAS_NUM_THREADS="1")


@needs_proc
class TestForkedWorkers:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_same_samples_as_serial(self, k, workers):
        seen = fresh(SERIAL_AND_FORKED, k, workers)
        # the 100 simulations come in one batch; while the caller sleeps,
        # its children draw every one of them
        assert seen["forks"] == {"at_once": workers - 1, "after_sleep": workers - 1}
        assert seen["calls"]["after_sleep"] == (100 if workers == 1 else 0)
        assert seen["at_once"] == seen["after_sleep"] == seen["serial"]
        assert len(seen["serial"]["samples"]) == 100
        assert not seen["left"]

    def test_same_discards_as_serial(self):
        # about a third of the simulations tie fewer than two pairs; the
        # caller draws their replacements itself, after the children
        # have drawn simulations 0 .. 99
        seen = fresh(SERIAL_AND_FORKED, p=0.0004)
        assert seen["forks"] == {"at_once": 1, "after_sleep": 1}
        assert seen["at_once"] == seen["after_sleep"] == seen["serial"]
        discarded = seen["serial"]["result"]["discarded"]
        assert 10 <= discarded <= 50
        assert seen["calls"]["after_sleep"] == discarded
        assert not seen["left"]

    def test_same_degenerate_null_as_serial(self):
        seen = fresh(SERIAL_AND_FORKED, p=0.0)
        assert seen["forks"] == {"at_once": 1, "after_sleep": 1}
        assert seen["at_once"] == seen["after_sleep"] == seen["serial"] == {
            "error": "DegenerateNull: 51 of 51 simulations discarded"}
        assert not seen["left"]

    @pytest.mark.parametrize("in_child, in_parent, error", [
        ("raise ValueError('worker failed')", "pass",
         "RuntimeError: null model workers exited [1]; simulations [0] undrawn"),
        ("os._exit(0)", "pass",
         "RuntimeError: null model workers exited [0]; simulations [0] undrawn"),
        # an interrupt here while the worker still runs kills it
        ("time.sleep(60)", "raise KeyboardInterrupt", "KeyboardInterrupt: "),
    ])
    def test_failure_raises_and_leaves_no_child(self, in_child, in_parent, error):
        # the child takes simulation 0 while the caller sleeps, and fails
        # in it
        seen = fresh(WITH_FAILURE.format(in_child=in_child, in_parent=in_parent))
        assert seen == [error, False]

    @pytest.mark.parametrize("target, error, message", [
        ("mmap.mmap", "MemoryError()", "MemoryError: "),
        ("os.write", "OSError(28, 'No space left on device')",
         "OSError: [Errno 28] No space left on device"),
    ])
    def test_failed_setup_leaves_no_descriptor(self, target, error, message):
        # the shared memory comes before the pipe and the queue's one write
        # after it: whichever fails, no end of the pipe stays open
        seen = fresh(SETUP_FAILS.format(target=target, error=error))
        assert seen == [message, seen[1], seen[1], False]

    @pytest.mark.parametrize("error", ["KeyboardInterrupt", "GeosegError('bad input')"])
    def test_error_before_join_leaves_no_child(self, error):
        seen = fresh(BETWEEN.replace("{error}", error))
        assert seen == [error.split("(")[0], 1, False]


def test_threaded_process_runs_serially(small_city, monkeypatch):
    # with a second thread running, the call never forks and warns of
    # nothing, even with every batch large enough to fork
    roster, _, dm, curve = small_city
    want = null_distribution_s_d(roster, dm, curve, 1, 100, 5, observed=0.0)

    def no_fork():
        raise AssertionError("forked with a second thread running")

    monkeypatch.setattr(nullmodel, "MIN_WORKER_S", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = null_distribution_s_d(roster, dm, curve, 1, 100, 5, observed=0.0)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert np.array_equal(got.samples, want.samples)
    assert got.to_dict() == want.to_dict()


def test_fork_choice_depends_on_input_alone(small_city, monkeypatch):
    # a run's predicted work counts the input's elements, not a timing,
    # so two calls on one input predict the same seconds
    roster, _, dm, curve = small_city
    predicted = []

    init = nullmodel.NullRun.__init__

    def recording(run, *args):
        init(run, *args)
        predicted.append((run.simulations, run.per_simulation_s * run.simulations))

    monkeypatch.setattr(nullmodel.NullRun, "__init__", recording)
    for _ in range(2):
        null_distribution_s_d(roster, dm, curve, 3, 100, 5, observed=0.0)
    assert predicted[0][0] == 100
    assert predicted[0][1] > 0
    assert predicted[:len(predicted) // 2] == predicted[len(predicted) // 2:]


def test_failed_fork_leaves_the_draw_to_the_caller(small_city, monkeypatch):
    # EAGAIN from the first fork, as at the process limit: the run forks no
    # more and the caller draws every simulation, as a serial run does
    roster, _, dm, curve = small_city
    want = null_distribution_s_d(roster, dm, curve, 1, 100, 5, observed=0.0)
    forks = []

    def failing_fork():
        forks.append(1)
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(nullmodel, "MIN_WORKER_S", 0)
    monkeypatch.setattr(nullmodel, "_can_fork", lambda: True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", failing_fork, raising=False)
    with nullmodel.NullRun(roster, dm, curve, 1, 100, 5) as run:
        assert run.children == []
        got = null_distribution_s_d(roster, dm, curve, 1, 100, 5, observed=0.0, run=run)
    assert forks == [1]
    assert np.array_equal(got.samples, want.samples)
    assert got.to_dict() == want.to_dict()


def test_analysis_peaks_below_one_dense_matrix():
    # the curve with its pair table, the geographic ranking and 100 null
    # simulations compute their distances where they read them, so at
    # 1,200 schools they peak below one n x n float64 matrix (11.5 MB)
    n = 1200
    roster, net, _ = generate_city(SynthConfig(n_schools=n, seed=3))
    dm = school_distance_matrix(roster)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        curve = tie_probability_curve(net, dm)
        geographic_means(roster, dm, 10, seed=3)
        null_distribution_s_d(roster, dm, curve, 5, 100, 3, observed=0.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8, f"peak {peak / 2**20:.1f} MB"
