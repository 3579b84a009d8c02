"""Aggregation of the student friendship graph into school-level networks.

Three variants: raw tie counts, the min-symmetrized student-count
alternative, and a binary projection. Each is built as its tied school
pairs (`SchoolNetwork`): the counted networks count sorted school-pair
keys over the graph's integer-coded edges, and no n x n matrix is
formed.
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownSchoolId
from .model import School, SchoolNetwork, StudentGraph, _unique_keys, write_csv


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
    """Raw-count network A: the weight of schools k and l is the number of
    student edges between them. Returns (network, intra_school_edge_counts)."""
    _, sa, sb = _edge_schools(g, roster)
    n = len(roster)
    cross = sa != sb
    keys, counts = np.unique(np.minimum(sa, sb)[cross] * n + np.maximum(sa, sb)[cross],
                             return_counts=True)
    net = SchoolNetwork([s.id for s in roster], *np.divmod(keys, n), counts)
    intra = np.bincount(sa[~cross], minlength=n)
    return net, {roster[i].id: int(intra[i]) for i in np.flatnonzero(intra)}


def build_min_symmetrized_network(g: StudentGraph, roster: list[School]) -> SchoolNetwork:
    """Min-symmetrized network: the directed count of students in school k
    with at least one friend in school l, symmetrized by the min of the
    (k, l) and (l, k) counts."""
    school_of, sa, sb = _edge_schools(g, roster)
    n = len(roster)
    cross = sa != sb
    # one key per (student, other school) with a friend there
    keys = _unique_keys(np.concatenate((g.a[cross] * n + sb[cross], g.b[cross] * n + sa[cross])))
    directed, counts = np.unique(school_of[keys // n] * n + keys % n, return_counts=True)
    # the (k, l) and (l, k) counts of a pair are adjacent once sorted by pair
    k, l = np.divmod(directed, n)
    pair = np.minimum(k, l) * n + np.maximum(k, l)
    order = np.argsort(pair, kind="stable")
    pair, counts = pair[order], counts[order]
    both = pair[1:] == pair[:-1]
    return SchoolNetwork([s.id for s in roster], *np.divmod(pair[1:][both], n),
                         np.minimum(counts[1:], counts[:-1])[both])


def binarize(net: SchoolNetwork) -> SchoolNetwork:
    """The same ties, each of weight 1."""
    return SchoolNetwork(net.schools, net.a, net.b, np.ones_like(net.weight))


def write_edge_list_csv(net: SchoolNetwork, path) -> None:
    """The ties as school_a, school_b, weight, in (a, b) order."""
    write_csv(path, ["school_a", "school_b", "weight"], net.nonzero_pairs())
