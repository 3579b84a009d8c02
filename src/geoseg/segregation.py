"""Digital neighbor ordering and the core segregation measures S_g(k),
S_d(k), plus the degree-outcome correlation.

Digital distance is the reciprocal of the tie weight, so ordering by
descending weight is identical and avoids dividing by zero; schools with
no tie are unreachable. A single seed drives all tie-breaks in a report:
cell (i, j) of one seeded uniform matrix breaks a tie at school i's
candidate j, so results do not depend on iteration order.

Both neighbor-mean tables come from one ranking kernel,
`geo.ranked_neighbors`, over a block of schools' candidate cells:
distances cut at the k_max-th (the school itself excluded), or the arcs
keyed by minus their weight, so no digital row spans the roster. A table
column k-1 is a row-wise cumsum of the first k neighbor scores over k.
The one-school `geographic_neighbors` and `digital_neighbors` are
one-row calls of the same kernel. Schools are roster positions: the
roster lists the distance matrix's and network's schools in their order.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientNeighbors, KOutOfRange, TooFewSamples
from .geo import (
    DistanceMatrix,
    _rank_cells,
    geographic_neighbors,  # noqa: F401  (callers look it up here too)
    grouped_cells,
    nearest_candidates,
    ranked_neighbors,
)
from .model import (
    School,
    SchoolNetwork,
    SegregationReport,
    check_roster,
    correlation_report,
    permutation_p_value,  # noqa: F401  (bench/spans.py traces it at this site)
    position_of,
    write_csv,
)


def _arc_cells(net: SchoolNetwork, block: slice):
    """Candidate cells of the schools in block: their arcs, each keyed by
    minus its weight."""
    indptr, neighbors, weights = net.arcs
    return (*grouped_cells(indptr, neighbors, block),
            -weights[indptr[block.start]:indptr[block.stop]])


def digital_neighbors(net: SchoolNetwork, school_id: str, k: int,
                      seed: int) -> list[str]:
    """The k schools with the largest tie weight to school_id. Equal
    weights are broken by a seeded uniform choice among the tied
    candidates; deterministic for a fixed seed. UnknownSchoolId if the
    network lists no school_id."""
    if k < 1:
        raise KOutOfRange(f"k={k} must be >= 1")
    i = position_of(net.schools, school_id)
    degree = int(net.degrees[i])
    if degree < k:
        raise InsufficientNeighbors(
            f"school {school_id!r} has degree {degree} < k={k}"
        )
    row = slice(i, i + 1)
    picked = _rank_cells(_arc_cells(net, row), row, len(net), seed, k)[0]
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


def geographic_means(roster, dm, k_max, seed) -> np.ndarray:
    """Neighbor-mean table over each school's k_max nearest schools,
    ranked among the candidates that the pair table gives
    (`geo.nearest_candidates`), whose distances alone are computed."""
    check_roster(roster, dm.ids, "distance matrix")
    if not 1 <= k_max <= len(roster) - 1:
        raise KOutOfRange(f"k={k_max} outside [1, {len(roster) - 1}]")
    indptr, neighbors = nearest_candidates(dm, k_max)

    def cells(block):
        rows, cols = grouped_cells(indptr, neighbors, block)
        return rows, cols, dm.pair_distances(rows + block.start, cols)

    ranked = ranked_neighbors(cells, len(roster), seed, k_max)
    return _neighbor_means(np.array([s.score for s in roster]), ranked)


def digital_means(roster, net, k_max, seed) -> np.ndarray:
    """Neighbor-mean table over each school's k_max heaviest ties (all of
    them below k_max ties). Every school draws a row of tie-break
    uniforms, a school without ties too."""
    check_roster(roster, net.schools, "network")
    if not 1 <= k_max <= len(roster) - 1:
        raise KOutOfRange(f"k={k_max} outside [1, {len(roster) - 1}]")
    ranked = ranked_neighbors(lambda block: _arc_cells(net, block),
                              len(roster), seed, k_max)
    return _neighbor_means(np.array([s.score for s in roster]), ranked)


def _column(table, k) -> np.ndarray:
    """Column k-1 of a neighbor-mean table, each school's mean over its
    first k neighbors; KOutOfRange unless 1 <= k <= the table's width."""
    if not 1 <= k <= table.shape[1]:
        raise KOutOfRange(f"k={k} outside [1, {table.shape[1]}], the neighbor-mean table's width")
    return table[:, k - 1]


def _report(name, roster, means, k, seed, permutations,
            **settings) -> SegregationReport:
    """Correlation of each school's score with its mean over its first k
    neighbors (a _column); schools with fewer than k are left out."""
    kept = ~np.isnan(means)
    return correlation_report(name, np.array([s.score for s in roster])[kept],
                              means[kept], permutations, seed, k=k, **settings)


def geographic_report(roster, table, k, seed, permutations=0) -> SegregationReport:
    """S_g(k) from a geographic_means table at least k wide."""
    return _report("geographic_segregation", roster, _column(table, k), k, seed, permutations)


def digital_report(roster, table, k, seed, permutations=0) -> SegregationReport:
    """S_d(k) from a digital_means table at least k wide, recording how many
    schools have degree < k."""
    means = _column(table, k)
    excluded = int(np.isnan(means).sum())
    if len(roster) - excluded < 3:
        raise TooFewSamples(f"only {len(roster) - excluded} schools have degree >= {k}")
    return _report("digital_segregation", roster, means, k, seed, permutations,
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
    check_roster(roster, net.schools, "network")
    return correlation_report(
        "degree_outcome_correlation", [s.score for s in roster], net.degrees,
        permutations, seed)


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
        [geo_rep.settings["k"], geo_rep.value, dig_rep.value,
         dig_rep.settings["excluded_schools"], geo_rep.p_value, dig_rep.p_value]
        for geo_rep, dig_rep in profile))
