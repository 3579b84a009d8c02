"""Digital neighbor ordering and the core segregation measures S_g(k),
S_d(k), plus the degree-outcome correlation.

Digital distance is the reciprocal of the tie weight, so ordering by
descending weight is identical and avoids dividing by zero; schools with
no tie are unreachable. A single seed drives all tie-breaks in a report,
with per-school substreams so results do not depend on iteration order.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import InsufficientNeighbors, KOutOfRange, TooFewSamples
from .geo import DistanceMatrix, _ranked_prefix, geographic_neighbors
from .model import (
    School,
    SchoolNetwork,
    SegregationReport,
    pearson,
    permutation_p_value,
    substream,
)


def digital_neighbors(net: SchoolNetwork, school_id: str, k: int,
                      seed: int) -> list[str]:
    """The k schools with the largest tie weight to school_id. Equal
    weights are broken by a seeded uniform choice among the tied
    candidates; deterministic for a fixed seed."""
    if k < 1:
        raise KOutOfRange(f"k={k} must be >= 1")
    i = net.index[school_id]
    row = net.weights[i]
    candidates = np.nonzero(row > 0)[0]
    if len(candidates) < k:
        raise InsufficientNeighbors(
            f"school {school_id!r} has degree {len(candidates)} < k={k}"
        )
    rng = substream(seed, school_id)
    picked = _ranked_prefix(-row[candidates], candidates, k, rng)
    return [net.schools[j] for j in picked]


def _neighbor_means(roster: list[School], neighbor_lists,
                    k_max: int) -> np.ndarray:
    """(schools x k_max) table: column k-1 is each school's mean score over
    its first k neighbors, NaN below k neighbors. cumsum adds left to
    right, so an entry equals sum(first k) / k bit for bit."""
    score = {s.id: s.score for s in roster}
    table = np.full((len(roster), k_max), np.nan)
    for row, neighbors in zip(table, neighbor_lists):
        row[:len(neighbors)] = np.cumsum([score[j] for j in neighbors])
    return table / np.arange(1, k_max + 1)


def geographic_means(roster, dm, k_max, seed) -> np.ndarray:
    """Neighbor-mean table over each school's k_max nearest schools."""
    if len(roster) < 3:
        raise TooFewSamples(f"need >= 3 schools, got {len(roster)}")
    neighbors = [geographic_neighbors(dm, s.id, k_max, seed) for s in roster]
    return _neighbor_means(roster, neighbors, k_max)


def digital_means(roster, net, k_max, seed) -> np.ndarray:
    """Neighbor-mean table over each school's k_max heaviest ties."""
    if not 1 <= k_max <= len(roster) - 1:
        raise KOutOfRange(f"k={k_max} outside [1, {len(roster) - 1}]")
    degrees = (net.weights > 0).sum(axis=1)
    ks = [min(int(degrees[net.index[s.id]]), k_max) for s in roster]
    neighbors = [digital_neighbors(net, s.id, k, seed) if k else []
                 for s, k in zip(roster, ks)]
    return _neighbor_means(roster, neighbors, k_max)


def _report(name, roster, table, k, seed, permutations,
            **settings) -> SegregationReport:
    """Correlation of each school's score with column k-1 of its
    neighbor-mean table; schools with fewer than k neighbors are left
    out."""
    if k < 1:
        raise KOutOfRange(f"k={k} must be >= 1")
    kept = ~np.isnan(table[:, k - 1])
    own = np.array([s.score for s in roster])[kept]
    means = table[kept, k - 1]
    if len(own) < 3:
        raise TooFewSamples(f"only {len(own)} schools have degree >= {k}")
    value = pearson(own, means)
    p = permutation_p_value(own, means, permutations, seed) if permutations else None
    settings = {"k": k, "seed": seed, "permutations": permutations, **settings}
    return SegregationReport(name, value, len(own), p, settings)


def geographic_report(roster, table, k, seed, permutations=0) -> SegregationReport:
    """S_g(k) from a geographic_means table at least k wide."""
    return _report("geographic_segregation", roster, table, k, seed, permutations)


def digital_report(roster, table, k, seed, permutations=0) -> SegregationReport:
    """S_d(k) from a digital_means table at least k wide, recording how many
    schools have degree < k."""
    return _report("digital_segregation", roster, table, k, seed, permutations,
                   excluded_schools=int(np.isnan(table[:, k - 1]).sum()))


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
    if len(roster) < 3:
        raise TooFewSamples(f"need >= 3 schools, got {len(roster)}")
    degrees = (net.weights > 0).sum(axis=1)
    own = [s.score for s in roster]
    deg = [int(degrees[net.index[s.id]]) for s in roster]
    value = pearson(own, deg)
    p = permutation_p_value(own, deg, permutations, seed) if permutations else None
    return SegregationReport(
        statistic_name="degree_outcome_correlation",
        value=value,
        sample_size=len(roster),
        p_value=p,
        settings={"permutations": permutations, "seed": seed},
    )


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
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["k", "s_g", "s_d", "excluded_digital", "p_g", "p_d"])
        for geo_rep, dig_rep in profile:
            writer.writerow([
                geo_rep.settings["k"],
                repr(geo_rep.value),
                repr(dig_rep.value),
                dig_rep.settings["excluded_schools"],
                "" if geo_rep.p_value is None else repr(geo_rep.p_value),
                "" if dig_rep.p_value is None else repr(dig_rep.p_value),
            ])
