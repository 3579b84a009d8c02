"""Geography-preserving random-graph null model and the Monte Carlo
significance test for digital segregation.

Each unordered school pair gets an independent Bernoulli tie with the
decay-curve probability of its distance bin, and no tie outside the
curve's defined bins. A simulated graph is kept as its list of tied
pairs, never as an n x n matrix; `generate_null_graph` returns them
sorted, as the `SchoolNetwork` the observed networks also are.

Pair table: the distance matrix sorts its pairs by bin once per set of
bin edges (`DistanceMatrix.pairs_by_bin`, small-int school indices), and
`_pair_table` adds each bin's pair count and probability and the
uncovered count; a run builds it once.

Geometric gaps (Batagelj & Brandes 2005, Phys. Rev. E 71:036113): in a
bin of N pairs tied with probability p, the untied pairs before the next
tie number floor(log(1 - u) / log(1 - p)), so a simulation draws about
N p uniforms per bin, not N. All bins' uniforms come in one block, with
a slack allotment per bin from (N, p), and one cumsum restarted at each
bin gives the tie positions. Top-up: a bin whose allotment ends before
its last pair draws more gaps until one passes it, so the draw stays
exact. A p = 0 bin has no ties and a p = 1 bin ties every pair.

Generated graphs are binary, so every neighbor is equidistant and the k
digital neighbors of a school are a uniform random k-subset of its graph
neighbors. The arcs are grouped by school by `model.group_arcs`, the
function behind `SchoolNetwork.arcs`: a stable sort of their small-int
sources (a radix sort), in draw order. Each school of degree >= k takes
a uniform k-subset of its arc range by Floyd's algorithm (Bentley &
Floyd 1987), in k vectorised rounds; no comparison sort is needed, and
only the picked arcs are gathered. At k = 1 that is arc first +
floor(u * degree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DegenerateNull, InvalidValue
from .geo import DistanceMatrix
from .model import (DecayCurve, School, SchoolNetwork, check_roster, group_arcs,
                    pearson, write_csv)


@dataclass(frozen=True)
class NullModelResult:
    observed: float
    simulated_mean: float
    simulated_sd: float
    simulated_max: float
    simulations: int
    empirical_p: float  # (1 + #{sim >= observed}) / (simulations + 1)
    seed: int
    k: int = 1
    discarded: int = 0
    uncovered_pairs: int = 0
    extension: bool = False  # True when k > 1 (beyond the reference analysis)
    samples: np.ndarray = field(repr=False, default=None)

    @property
    def empirical_p_se(self) -> float:
        """Monte Carlo standard error of empirical_p, sqrt(p (1 - p) / sims)
        (Phipson & Smyth 2010)."""
        p = self.empirical_p
        return math.sqrt(p * (1 - p) / self.simulations)

    def to_dict(self) -> dict:
        """Every field but the samples, and empirical_p_se."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "samples"}
        d["empirical_p_se"] = self.empirical_p_se
        return d


@dataclass(frozen=True)
class _PairTable:
    """The school pairs of one (distance matrix, curve), grouped by bin.

    `a`, `b` are the distance matrix's upper-triangle pairs sorted by bin,
    as small ints and shared with its cache. Each bin with 0 < p < 1 is
    drawn by geometric skipping: it starts at `starts[m]` in (a, b) and has
    `counts[m]` pairs, tie probability `probs[m]` and `slots[m]` gaps in a
    simulation's uniform block. The pairs of bins with p = 1 are `certain`.
    The slot_* arrays repeat each drawn bin's log(1 - p), pair count and
    start - 1 over its slots.
    """

    a: np.ndarray
    b: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    probs: np.ndarray
    slots: np.ndarray
    certain: np.ndarray
    uncovered: int
    slot_log_q: np.ndarray
    slot_count: np.ndarray
    slot_offset: np.ndarray
    last_slot: np.ndarray


def _slack(counts, probs):
    """Gaps to allot a bin of `counts` pairs tied with `probs`. A bin needs
    one gap per tie plus one that passes its last pair: allot the mean tie
    count plus four binomial SDs and two, at least 1 and at most count + 1."""
    mean = counts * probs
    slots = np.ceil(mean + 4 * np.sqrt(mean * (1 - probs)) + 2).astype(np.int64)
    return np.clip(slots, 1, counts + 1)


def _pair_table(curve: DecayCurve, dm: DistanceMatrix) -> _PairTable:
    """The pair table of curve's bins over dm. A pair whose distance falls
    beyond the last bin, or in a bin with no defined probability, is
    uncovered and never tied."""
    a, b, offsets = dm.pairs_by_bin(curve.bin_edges)
    binned = np.diff(offsets)[:-1]
    defined = ~np.isnan(curve.probabilities)
    p = np.where(defined, curve.probabilities, 0.0)
    drawn = np.flatnonzero((p > 0) & (p < 1) & (binned > 0))
    certain = [np.arange(offsets[m], offsets[m + 1]) for m in np.flatnonzero(p >= 1)]
    counts, probs = binned[drawn], p[drawn]
    slots = _slack(counts, probs)
    return _PairTable(
        a=a, b=b, starts=offsets[drawn], counts=counts, probs=probs, slots=slots,
        certain=np.concatenate([np.empty(0, np.int64), *certain]),
        uncovered=int(binned[~defined].sum() + offsets[-1] - offsets[-2]),
        slot_log_q=np.repeat(np.log1p(-probs), slots),
        slot_count=np.repeat(counts, slots),
        slot_offset=np.repeat(offsets[drawn] - 1, slots),
        last_slot=np.cumsum(slots) - 1,
    )


def _steps(u: np.ndarray, log_q, count) -> np.ndarray:
    """Position increments from uniforms: one tied pair plus the
    floor(log(1 - u) / log(1 - p)) untied pairs before it, with the gap
    capped at the bin's pair count (a longer one passes the bin's end)."""
    gaps = np.log1p(-u)
    gaps /= log_q
    np.floor(gaps, out=gaps)
    np.minimum(gaps, count, out=gaps)
    return gaps.astype(np.int64) + 1


def _draw_ties(table: _PairTable, rng: np.random.Generator):
    """Tied pairs (a, b), a < b: each pair of drawn bin m is tied
    independently with probability p_m, and each certain pair always.

    One block of uniforms gives every drawn bin its slots of gaps, and one
    cumsum, restarted at each bin, turns them into 1-based positions in the
    bin; those within the bin are its ties. A bin whose last position falls
    short of its last pair draws more gaps until one passes it, so the
    allotment never truncates a bin.
    """
    pos = np.cumsum(_steps(rng.random(len(table.slot_log_q)), table.slot_log_q,
                           table.slot_count))
    ends = pos[table.last_slot]
    before = np.concatenate(([0], ends))[:-1]  # cumsum before each bin
    pos -= np.repeat(before, table.slots)
    ends -= before
    ties = [table.certain, (pos + table.slot_offset)[pos <= table.slot_count]]
    for m in np.flatnonzero(ends < table.counts):
        at, count, p = int(ends[m]), int(table.counts[m]), table.probs[m]
        while at < count:
            more = at + np.cumsum(_steps(rng.random(int(_slack(count - at, p))),
                                         np.log1p(-p), count))
            ties.append(more[more <= count] + (table.starts[m] - 1))
            at = int(more[-1])
    tied = np.concatenate(ties)
    return table.a[tied], table.b[tied]


def generate_null_graph(curve: DecayCurve, dm: DistanceMatrix,
                        seed: int) -> SchoolNetwork:
    """One binary random network with the curve's per-bin tie probability."""
    a, b = _draw_ties(_pair_table(curve, dm), np.random.default_rng(seed))
    n = len(dm.ids)
    a, b = np.divmod(np.sort(a.astype(np.int64) * n + b), n)
    return SchoolNetwork(list(dm.ids), a, b, np.ones(len(a), dtype=np.int64), kind="binary")


def _k_subsets(degrees: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random k-subsets of range(degree), one per degree >= k, by
    Floyd's algorithm (Bentley & Floyd 1987) in k vectorised rounds: round
    r draws t uniform in [0, degree - k + r] and takes degree - k + r
    instead when t is already taken. Returns the rounds as a (k x schools)
    array; k = 1 is the single round floor(u * degree)."""
    sizes = degrees + np.arange(1 - k, 1)[:, None]  # degree - k + 1 + r
    picks = (rng.random(sizes.shape) * sizes).astype(np.int64)
    for r in range(1, k):
        np.copyto(picks[r], sizes[r] - 1, where=(picks[:r] == picks[r]).any(axis=0))
    return picks


def _s_d_on_edges(a: np.ndarray, b: np.ndarray, n: int, scores: np.ndarray,
                  k: int, rng: np.random.Generator) -> float | None:
    """S_d(k) on the binary graph with tied pairs (a, b): the k-set of each
    school is a uniform random k-subset of its neighbors. Returns None when
    fewer than 3 schools are eligible or a correlation input is constant."""
    src = np.concatenate((a, b))
    dst = np.concatenate((b, a))
    order, indptr = group_arcs(src, n)
    degrees = np.diff(indptr)
    eligible = np.flatnonzero(degrees >= k)
    if len(eligible) < 3:
        return None
    picks = _k_subsets(degrees[eligible], k, rng)
    picks += indptr[eligible]
    neighbor_mean = scores[dst[order[picks]]].mean(axis=0)
    own = scores[eligible]
    if np.all(own == own[0]) or np.all(neighbor_mean == neighbor_mean[0]):
        return None
    return pearson(own, neighbor_mean)


def null_distribution_s_d(
    roster: list[School],
    dm: DistanceMatrix,
    curve: DecayCurve,
    k: int,
    simulations: int,
    seed: int,
    observed: float,
) -> NullModelResult:
    """Monte Carlo null distribution of S_d(k) under the geography-
    preserving random graph, compared against the observed value.

    Per-simulation seeds derive from (master seed, simulation index), so
    execution order cannot change the result. Simulations with fewer than
    3 eligible schools are discarded and re-drawn; DegenerateNull if more
    than half are discarded.
    """
    if simulations < 100:
        raise InvalidValue(f"need >= 100 simulations, got {simulations}")
    check_roster(roster, dm.ids, "distance matrix")
    table = _pair_table(curve, dm)
    scores = np.array([s.score for s in roster])
    samples = np.empty(simulations)
    collected = 0
    discarded = 0
    index = 0
    while collected < simulations:
        if discarded > simulations // 2:
            raise DegenerateNull(
                f"{discarded} of {collected + discarded} simulations discarded"
            )
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        index += 1
        a, b = _draw_ties(table, rng)
        value = _s_d_on_edges(a, b, len(roster), scores, k, rng)
        if value is None:
            discarded += 1
            continue
        samples[collected] = value
        collected += 1
    return NullModelResult(
        observed=float(observed),
        simulated_mean=float(samples.mean()),
        simulated_sd=float(samples.std(ddof=1)),
        simulated_max=float(samples.max()),
        simulations=simulations,
        empirical_p=float((1 + (samples >= observed).sum()) / (simulations + 1)),
        seed=seed,
        k=k,
        discarded=discarded,
        uncovered_pairs=table.uncovered,
        extension=k > 1,
        samples=samples,
    )


def write_null_samples_csv(result: NullModelResult, path) -> None:
    """One simulated S value per row, for external plotting."""
    write_csv(path, ["s_d_null"], ([repr(float(v))] for v in result.samples))
