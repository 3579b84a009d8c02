"""Digital neighbor ordering and the core segregation measures S_g(k),
S_d(k), plus the degree-outcome correlation.

Digital distance is the reciprocal of the tie weight, so ordering by
descending weight is identical and avoids dividing by zero; schools with
no tie are unreachable. A single seed drives all tie-breaks in a report,
with per-school substreams so results do not depend on iteration order.

Both neighbor-mean tables come from one ranking kernel,
`geo.ranked_neighbors`, with distance keys (the school itself excluded)
or minus-weight keys (untied schools excluded): rows are ranked a block
at a time, and a table column k-1 is a row-wise cumsum of the first k
neighbor scores over k. The one-school `geographic_neighbors` and
`digital_neighbors` are one-row calls of the same kernel.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientNeighbors, KOutOfRange, TooFewSamples
from .geo import (
    DistanceMatrix,
    _distance_keys,
    _rank_block,
    geographic_neighbors,  # noqa: F401  (callers look it up here too)
    ranked_neighbors,
)
from .model import (
    School,
    SchoolNetwork,
    SegregationReport,
    correlation_report,
    permutation_p_value,  # noqa: F401  (bench/spans.py traces it at this site)
    write_csv,
)


def _weight_keys(net: SchoolNetwork, rows: np.ndarray) -> np.ndarray:
    """Ranking keys of the schools at rows: minus the tie weight, and
    +inf (not a candidate) where there is no tie."""
    indptr, neighbors, weights = net.arcs
    keys = np.full((len(rows), len(net)), np.inf)
    for row, i in zip(keys, rows.tolist()):
        arcs = slice(indptr[i], indptr[i + 1])
        row[neighbors[arcs]] = -weights[arcs]
    return keys


def digital_neighbors(net: SchoolNetwork, school_id: str, k: int,
                      seed: int) -> list[str]:
    """The k schools with the largest tie weight to school_id. Equal
    weights are broken by a seeded uniform choice among the tied
    candidates; deterministic for a fixed seed."""
    if k < 1:
        raise KOutOfRange(f"k={k} must be >= 1")
    i = net.index[school_id]
    degree = int(net.degrees[i])
    if degree < k:
        raise InsufficientNeighbors(
            f"school {school_id!r} has degree {degree} < k={k}"
        )
    picked = _rank_block(_weight_keys(net, np.array([i])), [school_id], seed, k)[0]
    return [net.schools[j] for j in picked.tolist()]


def _neighbor_means(scores: np.ndarray, ranked: np.ndarray) -> np.ndarray:
    """(schools x k_max) table from ranked neighbor columns (-1 past a
    school's last neighbor): column k-1 is each school's mean score over
    its first k neighbors, NaN below k neighbors. cumsum adds left to
    right, so an entry equals sum(first k) / k bit for bit."""
    table = np.where(ranked >= 0, scores[ranked], np.nan)
    np.cumsum(table, axis=1, out=table)
    table /= np.arange(1, ranked.shape[1] + 1)
    return table


def _column_scores(roster: list[School], ids) -> np.ndarray:
    score = {s.id: s.score for s in roster}
    return np.array([score[i] for i in ids])


def geographic_means(roster, dm, k_max, seed) -> np.ndarray:
    """Neighbor-mean table over each school's k_max nearest schools."""
    n = len(dm.ids)
    if not 1 <= k_max <= n - 1:
        raise KOutOfRange(f"k={k_max} outside [1, {n - 1}]")
    rows = [dm.index_of(s.id) for s in roster]
    ranked = ranked_neighbors(rows, lambda block: _distance_keys(dm, block),
                              [s.id for s in roster], seed, k_max, n)
    return _neighbor_means(_column_scores(roster, dm.ids), ranked)


def digital_means(roster, net, k_max, seed) -> np.ndarray:
    """Neighbor-mean table over each school's k_max heaviest ties (all of
    them below k_max ties)."""
    if not 1 <= k_max <= len(roster) - 1:
        raise KOutOfRange(f"k={k_max} outside [1, {len(roster) - 1}]")
    rows = [net.index[s.id] for s in roster]
    ranked = ranked_neighbors(rows, lambda block: _weight_keys(net, block),
                              [s.id for s in roster], seed, k_max,
                              len(net.schools))
    return _neighbor_means(_column_scores(roster, net.schools), ranked)


def _report(name, roster, table, k, seed, permutations,
            **settings) -> SegregationReport:
    """Correlation of each school's score with column k-1 of its
    neighbor-mean table; schools with fewer than k neighbors are left
    out."""
    if k < 1:
        raise KOutOfRange(f"k={k} must be >= 1")
    kept = ~np.isnan(table[:, k - 1])
    return correlation_report(name, np.array([s.score for s in roster])[kept],
                              table[kept, k - 1], permutations, seed, k=k, **settings)


def geographic_report(roster, table, k, seed, permutations=0) -> SegregationReport:
    """S_g(k) from a geographic_means table at least k wide."""
    return _report("geographic_segregation", roster, table, k, seed, permutations)


def digital_report(roster, table, k, seed, permutations=0) -> SegregationReport:
    """S_d(k) from a digital_means table at least k wide, recording how many
    schools have degree < k."""
    excluded = int(np.isnan(table[:, k - 1]).sum())
    if len(roster) - excluded < 3:
        raise TooFewSamples(f"only {len(roster) - excluded} schools have degree >= {k}")
    return _report("digital_segregation", roster, table, k, seed, permutations,
                   excluded_schools=excluded)


def geographic_segregation(
    roster: list[School],
    dm: DistanceMatrix,
    k: int,
    seed: int,
    permutations: int = 0,
) -> SegregationReport:
    """S_g(k): correlation of each school's score with the mean score of
    its k nearest schools by great-circle distance."""
    return geographic_report(roster, geographic_means(roster, dm, k, seed),
                             k, seed, permutations)


def digital_segregation(
    roster: list[School],
    net: SchoolNetwork,
    k: int,
    seed: int,
    permutations: int = 0,
) -> SegregationReport:
    """S_d(k): correlation of each school's score with the mean score of
    its k digital neighbors. Schools with degree < k are excluded and the
    exclusion count recorded in settings."""
    return digital_report(roster, digital_means(roster, net, k, seed),
                          k, seed, permutations)


def degree_outcome_correlation(
    roster: list[School],
    net: SchoolNetwork,
    permutations: int = 0,
    seed: int = 0,
) -> SegregationReport:
    """Correlation between school scores and degree centrality."""
    return correlation_report(
        "degree_outcome_correlation", [s.score for s in roster],
        [int(net.degrees[net.index[s.id]]) for s in roster], permutations, seed)


def segregation_profile(
    roster: list[School],
    dm: DistanceMatrix,
    net: SchoolNetwork,
    k_values,
    seed: int,
    permutations: int = 0,
) -> list[tuple[SegregationReport, SegregationReport]]:
    """(S_g(k), S_d(k)) report pairs for each k. Each school is ranked once,
    to max(k_values) neighbors; every k reads a prefix of that order."""
    k_values = list(k_values)
    if not k_values:
        return []
    k_max = max(k_values)
    geo_means = geographic_means(roster, dm, k_max, seed)
    dig_means = digital_means(roster, net, k_max, seed)
    return [
        (geographic_report(roster, geo_means, k, seed, permutations),
         digital_report(roster, dig_means, k, seed, permutations))
        for k in k_values
    ]


def write_profile_csv(profile, path) -> None:
    """k, s_g, s_d, excluded_digital, p_g, p_d rows."""
    write_csv(path, ["k", "s_g", "s_d", "excluded_digital", "p_g", "p_d"], (
        [geo_rep.settings["k"], repr(geo_rep.value), repr(dig_rep.value),
         dig_rep.settings["excluded_schools"],
         "" if geo_rep.p_value is None else repr(geo_rep.p_value),
         "" if dig_rep.p_value is None else repr(dig_rep.p_value)]
        for geo_rep, dig_rep in profile))
