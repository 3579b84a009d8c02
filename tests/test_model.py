import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoseg.errors import InvalidValue, LengthMismatch, TooFewSamples, ZeroVariance
from geoseg.model import (
    APARTMENT_DTYPE,
    GeoPoint,
    SchoolNetwork,
    SegregationReport,
    StudentGraph,
    _unique_keys,
    apartment_table,
    correlation_report,
    group_arcs,
    k_subsets,
    pearson,
    permutation_p_value,
)
from geoseg.errors import CoordinateOutOfRange, GeosegError

from dense import argsort_group_arcs, same_graph, student_graph


def oracle_pearson(x, y):
    """Direct covariance/sigma formula, independent of the implementation."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sx = math.sqrt(sum((a - mx) ** 2 for a in x))
    sy = math.sqrt(sum((b - my) ** 2 for b in y))
    return cov / (sx * sy)


class TestPearson:
    def test_identical_vectors(self):
        # no tolerance below 1e-12 is promised
        assert abs(pearson((1, 2, 3), (1, 2, 3)) - 1.0) < 1e-12

    def test_negative_affine_image(self):
        assert abs(pearson((1, 2, 3), (3, 2, 1)) + 1.0) < 1e-12

    def test_derived_value(self):
        # frozen from oracle_pearson((1,2,3),(2,4,7)) = 15/sqrt(228)
        expected = oracle_pearson((1, 2, 3), (2, 4, 7))
        assert abs(expected - 0.9934) < 1e-4
        assert abs(pearson((1, 2, 3), (2, 4, 7)) - expected) < 1e-12

    def test_constant_input_raises(self):
        with pytest.raises(ZeroVariance):
            pearson((1, 2, 3), (5, 5, 5))
        with pytest.raises(ZeroVariance):
            pearson((5, 5, 5), (1, 2, 3))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson((1, 2, 3), (1, 2))

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            pearson((1, 2), (1, 2))

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=40),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_bounds(self, x, data):
        y = data.draw(
            st.lists(st.floats(-1e6, 1e6), min_size=len(x), max_size=len(x))
        )
        try:
            r = pearson(x, y)
        except ZeroVariance:
            return
        assert r == pearson(y, x)
        assert -1.0 <= r <= 1.0

    @given(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-30, 1e30), st.floats(-1e30, -1e-30)),
                 min_size=3, max_size=40),
        st.integers(-900, 900),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_scaling_keeps_every_bit(self, x, e, data):
        # every nonzero x * 2**e is a normal float, so the scaling is exact;
        # no sum of squares may overflow or underflow on the way
        y = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(x), max_size=len(x)))
        scaled = np.array(x) * 2.0**e
        try:
            r = pearson(x, y)
        except ZeroVariance:
            with pytest.raises(ZeroVariance):
                pearson(scaled, y)
            return
        assert pearson(scaled, y) == r
        assert pearson(y, scaled) == pearson(y, x)

    def test_equal_non_integer_values_are_constant(self):
        # the mean of n copies of 61.3 need not round to 61.3, so the
        # centred values need not be 0; equal values are constant regardless
        ramp = np.arange(200.0)
        for n in range(3, 201):
            with pytest.raises(ZeroVariance, match="x is constant"):
                pearson([61.3] * n, ramp[:n])
            with pytest.raises(ZeroVariance, match="y is constant"):
                pearson(ramp[:n], [61.3] * n)

    @pytest.mark.parametrize("magnitude", [1e-300, 1e-200, 1e-20, 1.0, 1e20, 1e200, 1e300])
    def test_perfect_correlation_at_any_magnitude(self, magnitude):
        x = np.array([1.0, 2.0, 3.5, -4.0, 0.25]) * magnitude
        assert abs(pearson(x, x) - 1.0) <= 1e-12
        assert abs(pearson(x, -x) + 1.0) <= 1e-12

    def test_large_values_without_overflow(self):
        # an overflow's RuntimeWarning fails the suite (pyproject.toml)
        assert pearson([1e200, 2e200, 3.5e200], [1e200, 2e200, 3.5e200]) == 1.0

    @given(
        st.floats(0.01, 100),
        st.floats(-50, 50),
        st.integers(0, 2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_positive_affine_invariance(self, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        assert abs(pearson(a * x + b, y) - pearson(x, y)) < 1e-10


class TestPermutationPValue:
    def test_perfect_correlation_lower_bound(self):
        x = list(range(1, 51))
        p = permutation_p_value(x, x, permutations=10_000, seed=7)
        # |r|=1 can only be tied; ties are rare for n=50
        assert p <= 10 / 10_001
        assert p >= 1 / 10_001

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        p1 = permutation_p_value(x, y, 500, seed=42)
        p2 = permutation_p_value(x, y, 500, seed=42)
        assert p1 == p2

    def test_zero_variance_propagates(self):
        with pytest.raises(ZeroVariance):
            permutation_p_value((1, 2, 3), (1, 1, 1), 100, seed=0)

    def test_minimum_permutations(self):
        with pytest.raises(ValueError):
            permutation_p_value((1, 2, 3), (2, 4, 7), 50, seed=0)

    def test_calibration_under_null(self):
        # independent x, y: p should be uniform; check the 5% rejection rate
        rng = np.random.default_rng(1)
        rejections = 0
        repeats = 400
        for i in range(repeats):
            x = rng.normal(size=100)
            y = rng.normal(size=100)
            if permutation_p_value(x, y, 199, seed=i) < 0.05:
                rejections += 1
        assert abs(rejections / repeats - 0.05) <= 0.03


class TestCorrelationReport:
    @pytest.mark.parametrize("y, permutations, error, message", [
        ((5.0, 5.0, 5.0, 5.0), 0, ZeroVariance, "y is constant"),
        ((1.0, 3.0, 2.0, 4.0), 50, InvalidValue, "need >= 100 permutations, got 50"),
    ], ids=["pearson", "permutation p"])
    def test_error_names_its_statistic(self, y, permutations, error, message):
        with pytest.raises(error) as info:
            correlation_report("center_distance_correlation", (1.0, 2.0, 3.0, 4.0), y,
                               permutations, seed=0)
        assert type(info.value) is error
        assert str(info.value) == f"center_distance_correlation: {message}"


class TestTypes:
    def test_geopoint_range(self):
        with pytest.raises(CoordinateOutOfRange):
            GeoPoint(95.0, 0.0)
        with pytest.raises(CoordinateOutOfRange):
            GeoPoint(0.0, 181.0)
        with pytest.raises(CoordinateOutOfRange):
            GeoPoint(float("nan"), 0.0)

    def test_apartment_table_columns(self):
        table = apartment_table([59.9, -33.0], (30.3, 179.99), np.array([1.5e5, 2.0]))
        assert table.dtype == APARTMENT_DTYPE
        assert table.latitude.tolist() == [59.9, -33.0]
        assert table["longitude"].tolist() == [30.3, 179.99]
        assert table[1].price_per_sqm == 2.0
        for name in APARTMENT_DTYPE.names:
            with pytest.raises(ValueError):
                table[name][0] = 1.0
        assert len(apartment_table([], [], [])) == 0

    @pytest.mark.parametrize("columns, error, first_bad", [
        (([0.0], [0.0, 1.0], [1.0, 1.0]), LengthMismatch, "(1,), (2,), (2,)"),
        (([0.0, 1.0], [0.0, 1.0], [1.0]), LengthMismatch, "(2,), (2,), (1,)"),
        (([0.0, float("nan")], [0.0, 0.0], [1.0, 1.0]), CoordinateOutOfRange, "latitude nan"),
        (([0.0, 95.0, -91.0], [0.0] * 3, [1.0] * 3), CoordinateOutOfRange, "latitude 95.0"),
        (([0.0, 0.0], [180.0, -180.5], [1.0, 1.0]), CoordinateOutOfRange, "longitude -180.5"),
        (([0.0], [float("inf")], [1.0]), CoordinateOutOfRange, "longitude inf"),
        (([0.0, 0.0], [0.0, 0.0], [1.0, 0.0]), InvalidValue, "price per sqm 0.0"),
        (([0.0, 0.0], [0.0, 0.0], [-3.0, -4.0]), InvalidValue, "price per sqm -3.0"),
        (([0.0], [0.0], [float("inf")]), InvalidValue, "price per sqm inf"),
    ], ids=["short-latitude", "short-price", "nan-latitude", "latitude-95",
            "longitude-180.5", "inf-longitude", "zero-price", "negative-price", "inf-price"])
    def test_apartment_table_names_first_bad_value(self, columns, error, first_bad):
        with pytest.raises(error) as exc:
            apartment_table(*columns)
        assert isinstance(exc.value, GeosegError)
        assert first_bad in str(exc.value)

    def test_student_graph_rejects_self_loop(self):
        with pytest.raises(ValueError):
            student_graph({"a": "1", "b": "1"}, [("a", "a")])

    def test_student_graph_rejects_dangling_edge(self):
        with pytest.raises(ValueError):
            student_graph({"a": "1"}, [("a", "zzz")])

    @pytest.mark.parametrize("school, a, b", [
        ([0, 0], [1], [1]),
        ([0, 0], [-1], [1]),
        ([0, 0], [0], [2]),
        ([0, 0], [0, 1], [1]),
        ([0, -1], [0], [1]),
        ([0, 1], [0], [1]),
        ([0], [0], [1]),
    ], ids=["self-loop", "endpoint--1", "endpoint-n", "unequal-ends", "school--1",
            "school-beyond-ids", "school-short"])
    def test_student_graph_checks_codes(self, school, a, b):
        # two students, one school id: every case breaks one invariant the
        # coded views rely on
        with pytest.raises(ValueError):
            StudentGraph(["a", "b"], ["1"], school, a, b)

    def test_student_graph_normalizes_pairs(self):
        g1 = student_graph({"a": "1", "b": "1"}, [("a", "b")])
        g2 = student_graph({"a": "1", "b": "1"}, [("b", "a")])
        assert same_graph(g1, g2)
        # duplicate and reversed pairs collapse to one coded pair a < b of
        # positions in the sorted students
        g = student_graph({"c": "2", "a": "1", "b": "1"},
                          [("c", "a"), ("a", "c"), ("b", "a"), ("a", "b"), ("c", "b")])
        assert g.students == ["a", "b", "c"]
        assert g.a.dtype == g.b.dtype == np.int64
        assert g.a.tolist() == [0, 0, 1] and g.b.tolist() == [1, 2, 2]
        assert g.edges == frozenset({("a", "b"), ("a", "c"), ("b", "c")})
        # each student's school is an index into school_ids
        assert g.school_ids == ["1", "2"] and g.school.tolist() == [0, 0, 1]
        assert g.assignment == {"a": "1", "b": "1", "c": "2"}
        assert not same_graph(g, student_graph({"c": "2", "a": "1", "b": "1"}, [("a", "b")]))
        assert not same_graph(g, student_graph({"c": "1", "a": "1", "b": "1"}, g.edges))
        empty = student_graph({"a": "1"}, [])
        assert empty.a.dtype == empty.b.dtype == np.int64
        assert len(empty.a) == len(empty.b) == 0
        assert empty.edges == frozenset()

    @pytest.mark.parametrize("size, high", [(0, 1), (1, 5), (50, 10), (5000, 2**40)])
    def test_unique_keys_matches_np_unique(self, size, high):
        keys = np.random.default_rng(size).integers(-high, high, size=size)
        unique = _unique_keys(keys)
        assert unique.dtype == np.int64
        assert np.array_equal(unique, np.unique(keys))

    def test_school_network_invariants(self):
        for a, b, weight in [
            ([1], [0], [1]),  # a > b
            ([1], [1], [1]),  # a == b: a self-tie
            ([0, 0], [2, 1], [1, 1]),  # not sorted by (a, b)
            ([0, 1], [2, 0], [1, 1]),
            ([0, 0], [1, 1], [1, 1]),  # a repeated pair
            ([-1], [1], [1]),  # positions outside [0, n)
            ([0], [3], [1]),
            ([0], [1], [0]),  # a zero, negative or non-integer weight
            ([0], [1], [-2]),
            ([0], [1], [1.5]),
            ([0], [1], [1.0]),
            ([0, 1], [1], [1]),  # unequal lengths
            ([0], [1], [1, 1]),
            ([[0]], [[1]], [[1]]),  # not one-dimensional
        ]:
            with pytest.raises(ValueError):
                SchoolNetwork(["1", "2", "3"], a, b, weight)

    def test_school_network_pairs_and_arcs(self):
        net = SchoolNetwork(["1", "2", "3", "4"], [0, 0, 1], [1, 3, 3], [2, 1, 5])
        assert list(net.nonzero_pairs()) == [("1", "2", 2), ("1", "4", 1), ("2", "4", 5)]
        assert net.degrees.tolist() == [2, 2, 0, 2]
        indptr, neighbors, weights = net.arcs
        assert indptr.tolist() == [0, 2, 4, 4, 6]
        assert neighbors.tolist() == [1, 3, 0, 3, 0, 1]
        assert weights.tolist() == [2, 1, 2, 5, 1, 5]
        empty = SchoolNetwork(["1", "2"], [], [], [])
        assert empty.degrees.tolist() == [0, 0] and list(empty.nonzero_pairs()) == []
        assert not net.weight.flags.writeable

    def test_segregation_report_bounds(self):
        with pytest.raises(ValueError):
            SegregationReport("x", 1.5, 10)
        with pytest.raises(ValueError):
            SegregationReport("x", 0.5, 2)


class TestKSubsets:
    def test_two_subsets_of_four_uniform(self):
        draws = 6000
        picks = k_subsets(np.full(draws, 4), 2, np.random.default_rng(12))
        assert picks.shape == (2, draws)
        assert np.all(picks[0] != picks[1]) and np.all((picks >= 0) & (picks < 4))
        lo, hi = np.minimum(*picks), np.maximum(*picks)
        counts = np.bincount(lo * 4 + hi, minlength=16)[[1, 2, 3, 6, 7, 11]]
        assert counts.sum() == draws
        p = 1 / 6
        se = math.sqrt(p * (1 - p) / draws)
        assert np.all(np.abs(counts / draws - p) <= 4 * se), counts

    def test_k_equal_to_population_takes_every_element(self):
        picks = k_subsets(np.full(50, 7), 7, np.random.default_rng(13))
        assert np.array_equal(np.sort(picks, axis=0), np.tile(np.arange(7)[:, None], 50))


class TestGroupArcs:
    @pytest.mark.parametrize("src, n", [
        (np.empty(0, np.int16), 4),
        (np.empty(0, np.int64), 0),
        (np.zeros(5, np.int16), 1),
        (np.full(7, 3, np.int16), 6),
        (np.array([2, 0, 2, 1, 0, 2], np.int16), 3),
        (np.array([5, 5, 0, 4, 1, 5, 0], np.int64), 8),
    ], ids=["empty", "empty-no-schools", "one-school", "one-busy-school", "int16", "int64"])
    def test_matches_stable_argsort(self, src, n):
        order, indptr = group_arcs(src, n)
        ref_order, ref_indptr = argsort_group_arcs(src, n)
        assert np.array_equal(order, ref_order) and np.array_equal(indptr, ref_indptr)

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_random_sources(self, dtype):
        rng = np.random.default_rng(5)
        for n, m in ((1, 1), (2, 2), (3, 1000), (600, 9000), (2000, 2**15 + 1)):
            src = rng.integers(0, n, m).astype(dtype)
            order, indptr = group_arcs(src, n)
            ref_order, ref_indptr = argsort_group_arcs(src, n)
            assert np.array_equal(order, ref_order) and np.array_equal(indptr, ref_indptr)

    def test_keys_widen_past_int32(self):
        # 2^11 arcs take 11 index bits: n = 2^20 schools would put the last
        # school's keys at 2^31, so they are packed as int64
        n, m = 2**20, 2**11
        src = np.random.default_rng(6).integers(0, n, m)
        src[:2] = n - 1, 0
        order, indptr = group_arcs(src, n)
        assert order.dtype == np.int64
        ref_order, ref_indptr = argsort_group_arcs(src, n)
        assert np.array_equal(order, ref_order) and np.array_equal(indptr, ref_indptr)
        # one school fewer still packs into int32
        assert group_arcs(src % (n - 1), n - 1)[0].dtype == np.int32
