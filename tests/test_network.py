import tracemalloc

import numpy as np
import pytest

from geoseg.errors import UnknownSchoolId
from geoseg.model import GeoPoint, School, StudentGraph
from geoseg.network import (
    binarize,
    build_count_network,
    build_min_symmetrized_network,
    write_edge_list_csv,
)

from dense import (degree_centrality, dense_count_network, dense_min_symmetrized_network,
                   dense_weights)


def make_roster(n):
    return [School(str(i + 1), GeoPoint(0.0, float(i) * 0.01), 50.0) for i in range(n)]


@pytest.fixture
def fixture_graph():
    # a, b in school 1; c, d in school 2; edges a-c, b-c, a-b
    assignment = {"a": "1", "b": "1", "c": "2", "d": "2"}
    return StudentGraph(assignment, [("a", "c"), ("b", "c"), ("a", "b")])


def brute_force_count(g, roster):
    """O(n^2) double loop over all student pairs, per the matrix definition."""
    ids = [s.id for s in roster]
    idx = {s: i for i, s in enumerate(ids)}
    n = len(ids)
    w = np.zeros((n, n), dtype=np.int64)
    students = g.students
    for i, a in enumerate(students):
        for b in students[i + 1:]:
            pair = (a, b) if a < b else (b, a)
            if pair in g.edges:
                sa, sb = g.assignment[a], g.assignment[b]
                if sa != sb:
                    w[idx[sa], idx[sb]] += 1
                    w[idx[sb], idx[sa]] += 1
    return w


def brute_force_directed(g, roster):
    """Directed student counts per the set definition."""
    ids = [s.id for s in roster]
    idx = {s: i for i, s in enumerate(ids)}
    n = len(ids)
    w = np.zeros((n, n), dtype=np.int64)
    for k in ids:
        for l in ids:
            if k == l:
                continue
            count = 0
            for student in g.students:
                if g.assignment[student] != k:
                    continue
                has_friend = any(
                    ((student, other) if student < other else (other, student))
                    in g.edges
                    and g.assignment[other] == l
                    for other in g.students
                )
                if has_friend:
                    count += 1
            w[idx[k], idx[l]] = count
    return w


def random_graph(rng, n_students, n_schools, p):
    students = [f"u{i}" for i in range(n_students)]
    assignment = {s: str(rng.integers(1, n_schools + 1)) for s in students}
    edges = []
    for i in range(n_students):
        for j in range(i + 1, n_students):
            if rng.random() < p:
                edges.append((students[i], students[j]))
    return StudentGraph(assignment, edges)


class TestCountNetwork:
    def test_empty(self):
        g = StudentGraph({"a": "1", "b": "2"}, [])
        net, intra = build_count_network(g, make_roster(2))
        assert np.all(dense_weights(net) == 0)
        assert intra == {}

    def test_fixture(self, fixture_graph):
        net, intra = build_count_network(fixture_graph, make_roster(2))
        assert dense_weights(net)[0, 1] == 2
        assert np.all(np.diag(dense_weights(net)) == 0)
        assert intra == {"1": 1}

    def test_matches_brute_force(self, fixture_graph):
        roster = make_roster(2)
        net, _ = build_count_network(fixture_graph, roster)
        assert np.array_equal(dense_weights(net), brute_force_count(fixture_graph, roster))

    def test_unknown_school(self, fixture_graph):
        # c and d attend school 2, which a one-school roster lacks; the
        # message names the first of them in sorted order
        with pytest.raises(UnknownSchoolId,
                           match=r"student 'c' assigned to unknown school '2'"):
            build_count_network(fixture_graph, make_roster(1))

    def test_upper_triangle_sum_is_inter_school_edges(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = random_graph(rng, 30, 4, 0.1)
            roster = make_roster(4)
            net, _ = build_count_network(g, roster)
            inter = sum(
                1 for a, b in g.edges if g.assignment[a] != g.assignment[b]
            )
            assert np.triu(dense_weights(net), 1).sum() == inter


class TestMinSymmetrized:
    def test_fixture(self, fixture_graph):
        roster = make_roster(2)
        directed = brute_force_directed(fixture_graph, roster)
        assert directed[0, 1] == 2  # a and b both have friend c
        assert directed[1, 0] == 1  # only c
        net = build_min_symmetrized_network(fixture_graph, roster)
        assert dense_weights(net)[0, 1] == 1

    def test_single_cross_edge(self):
        g = StudentGraph({"a": "1", "c": "2"}, [("a", "c")])
        roster = make_roster(2)
        net_a, _ = build_count_network(g, roster)
        net_hat = build_min_symmetrized_network(g, roster)
        assert dense_weights(net_a)[0, 1] == 1
        assert dense_weights(net_hat)[0, 1] == 1

    def test_ordering_invariant_random_graphs(self):
        # A_hat <= min(directed, directed.T) <= A, element-wise
        rng = np.random.default_rng(7)
        roster = make_roster(5)
        for _ in range(100):
            g = random_graph(rng, 25, 5, 0.15)
            net_a, _ = build_count_network(g, roster)
            net_hat = build_min_symmetrized_network(g, roster)
            directed = brute_force_directed(g, roster)
            assert np.array_equal(
                dense_weights(net_hat), np.minimum(directed, directed.T)
            )
            assert np.all(dense_weights(net_hat) <= dense_weights(net_a))


class TestBinarizeAndDegree:
    def test_binarize_idempotent(self, fixture_graph):
        net, _ = build_count_network(fixture_graph, make_roster(2))
        b1 = binarize(net)
        b2 = binarize(b1)
        assert np.array_equal(dense_weights(b1), dense_weights(b2))
        assert dense_weights(b1)[0, 1] == 1

    def test_degree_fixture(self, fixture_graph):
        net, _ = build_count_network(fixture_graph, make_roster(2))
        assert degree_centrality(net) == {"1": 1, "2": 1}

    def test_star(self):
        roster = make_roster(5)
        assignment = {f"u{i}": str(i + 1) for i in range(5)}
        edges = [("u0", f"u{i}") for i in range(1, 5)]
        net, _ = build_count_network(StudentGraph(assignment, edges), roster)
        degrees = degree_centrality(net)
        assert degrees["1"] == 4
        assert all(degrees[str(i)] == 1 for i in range(2, 6))

    def test_degree_unchanged_by_binarize(self, fixture_graph):
        net, _ = build_count_network(fixture_graph, make_roster(2))
        assert degree_centrality(net) == degree_centrality(binarize(net))


def test_edge_list_csv_lists_upper_triangle(tmp_path):
    g = random_graph(np.random.default_rng(4), 30, 5, 0.2)
    roster = make_roster(5)
    net, _ = build_count_network(g, roster)
    path = tmp_path / "a.csv"
    write_edge_list_csv(net, path)
    w = brute_force_count(g, roster)
    expected = ["school_a,school_b,weight"] + [
        f"{roster[i].id},{roster[j].id},{w[i, j]}"
        for i in range(5) for j in range(i + 1, 5) if w[i, j]
    ]
    assert path.read_text() == "\n".join(expected) + "\n"


def test_pair_builders_match_dense_construction():
    # the n x n bincount constructions the pair builders replaced
    rng = np.random.default_rng(11)
    for n_schools, p in [(2, 0.3), (5, 0.15), (12, 0.05), (12, 0.0)]:
        roster = make_roster(n_schools)
        for _ in range(10):
            g = random_graph(rng, 40, n_schools, p)
            net_a, _ = build_count_network(g, roster)
            net_hat = build_min_symmetrized_network(g, roster)
            assert np.array_equal(dense_weights(net_a), dense_count_network(g, roster))
            assert np.array_equal(dense_weights(net_hat),
                                  dense_min_symmetrized_network(g, roster))
            assert np.array_equal(dense_weights(binarize(net_a)),
                                  (dense_weights(net_a) > 0).astype(np.int64))
            degrees = degree_centrality(net_a)
            assert ([degrees[s.id] for s in roster]
                    == (dense_weights(net_a) > 0).sum(axis=1).tolist())


def test_network_stage_memory_below_one_dense_matrix():
    # 2,000 schools of 12 students, each cohort a cycle, plus 60,000
    # random cross-school friendships: the three networks together must
    # allocate less than one n x n int64 matrix
    n, m = 2000, 12
    rng = np.random.default_rng(5)
    students = [f"u{i:05d}" for i in range(n * m)]
    school = np.repeat(np.arange(n), m)
    cycle = np.arange(n * m)
    a = np.concatenate((cycle, rng.integers(0, n * m, 60_000)))
    b = np.concatenate((cycle - cycle % m + (cycle + 1) % m, rng.integers(0, n * m, 60_000)))
    keep = school[a] != school[b]
    keep[:n * m] = True
    g = StudentGraph._coded(students, [f"{i:04d}" for i in range(n)], school, a[keep], b[keep])
    roster = [School(f"{i:04d}", GeoPoint(0.0, 0.0), 50.0) for i in range(n)]
    tracemalloc.start()
    try:
        net, _ = build_count_network(g, roster)
        hat = build_min_symmetrized_network(g, roster)
        binary = binarize(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
    assert len(net.a) > 50_000 and len(hat.a) > 50_000 and len(binary.a) == len(net.a)
