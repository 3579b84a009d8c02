"""Aggregation of the student friendship graph into school-level networks.

Three variants: raw tie counts, the min-symmetrized student-count
alternative, and a binary projection. The counted networks are bincounts
of school-pair keys over the graph's integer-coded edges. Degree
centrality counts distinct connected schools.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import UnknownSchoolId
from .model import School, SchoolNetwork, StudentGraph, _unique_keys


def _edge_schools(g: StudentGraph, roster: list[School]):
    """Roster index of each student's school, and of each edge end's."""
    index = {s.id: i for i, s in enumerate(roster)}
    school_of = np.array([index.get(s, -1) for s in g.school_ids], dtype=np.int64)[g.school]
    missing = np.flatnonzero(school_of < 0)
    if len(missing):
        student = missing[0]
        raise UnknownSchoolId(f"student {g.students[student]!r} assigned to unknown "
                              f"school {g.school_ids[g.school[student]]!r}")
    return school_of, school_of[g.a], school_of[g.b]


def build_count_network(g: StudentGraph, roster: list[School]):
    """Raw-count network A: weight[k][l] = number of student edges between
    schools k and l. Returns (network, intra_school_edge_counts)."""
    _, sa, sb = _edge_schools(g, roster)
    n = len(roster)
    cross = sa != sb
    w = np.bincount(sa[cross] * n + sb[cross], minlength=n * n).reshape(n, n)
    intra = np.bincount(sa[~cross], minlength=n)
    net = SchoolNetwork([s.id for s in roster], w + w.T, kind="raw-count")
    return net, {roster[i].id: int(intra[i]) for i in np.flatnonzero(intra)}


def build_min_symmetrized_network(g: StudentGraph, roster: list[School]) -> SchoolNetwork:
    """Min-symmetrized network: the directed count of students in school k
    with at least one friend in school l, symmetrized by element-wise min
    with its transpose."""
    school_of, sa, sb = _edge_schools(g, roster)
    n = len(roster)
    cross = sa != sb
    # one key per (student, other school) with a friend there
    keys = _unique_keys(np.concatenate((g.a[cross] * n + sb[cross], g.b[cross] * n + sa[cross])))
    directed = np.bincount(school_of[keys // n] * n + keys % n, minlength=n * n).reshape(n, n)
    w = np.minimum(directed, directed.T)
    return SchoolNetwork([s.id for s in roster], w, kind="min-symmetrized")


def binarize(net: SchoolNetwork) -> SchoolNetwork:
    """Map every positive weight to 1."""
    return SchoolNetwork(net.schools, (net.weights > 0).astype(np.int64), kind="binary")


def degree_centrality(net: SchoolNetwork) -> dict[str, int]:
    """Number of distinct other schools with a positive tie weight."""
    degrees = (net.weights > 0).sum(axis=1)
    return {s: int(d) for s, d in zip(net.schools, degrees)}


def write_edge_list_csv(net: SchoolNetwork, path) -> None:
    """Upper-triangle nonzero weights as school_a, school_b, weight."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["school_a", "school_b", "weight"])
        writer.writerows(net.nonzero_pairs())
