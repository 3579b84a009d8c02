import numpy as np
import pytest

from geoseg.errors import UnknownSchoolId
from geoseg.model import GeoPoint, School, StudentGraph
from geoseg.network import (
    binarize,
    build_count_network,
    build_min_symmetrized_network,
    degree_centrality,
    write_edge_list_csv,
)


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
        assert np.all(net.weights == 0)
        assert intra == {}

    def test_fixture(self, fixture_graph):
        net, intra = build_count_network(fixture_graph, make_roster(2))
        assert net.weights[0, 1] == 2
        assert np.all(np.diag(net.weights) == 0)
        assert intra == {"1": 1}

    def test_matches_brute_force(self, fixture_graph):
        roster = make_roster(2)
        net, _ = build_count_network(fixture_graph, roster)
        assert np.array_equal(net.weights, brute_force_count(fixture_graph, roster))

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
            assert np.triu(net.weights, 1).sum() == inter


class TestMinSymmetrized:
    def test_fixture(self, fixture_graph):
        roster = make_roster(2)
        directed = brute_force_directed(fixture_graph, roster)
        assert directed[0, 1] == 2  # a and b both have friend c
        assert directed[1, 0] == 1  # only c
        net = build_min_symmetrized_network(fixture_graph, roster)
        assert net.weights[0, 1] == 1

    def test_single_cross_edge(self):
        g = StudentGraph({"a": "1", "c": "2"}, [("a", "c")])
        roster = make_roster(2)
        net_a, _ = build_count_network(g, roster)
        net_hat = build_min_symmetrized_network(g, roster)
        assert net_a.weights[0, 1] == 1
        assert net_hat.weights[0, 1] == 1

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
                net_hat.weights, np.minimum(directed, directed.T)
            )
            assert np.all(net_hat.weights <= net_a.weights)


class TestBinarizeAndDegree:
    def test_binarize_idempotent(self, fixture_graph):
        net, _ = build_count_network(fixture_graph, make_roster(2))
        b1 = binarize(net)
        b2 = binarize(b1)
        assert np.array_equal(b1.weights, b2.weights)
        assert b1.weights[0, 1] == 1

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
