"""Geography-preserving random-graph null model and the Monte Carlo
significance test for digital segregation.

Each unordered school pair gets an independent Bernoulli tie with the
decay-curve probability of its distance bin, and no tie outside the
curve's defined bins. A simulated graph is kept as its list of tied
pairs, never as an n x n matrix. Generated graphs are binary, so every
neighbor is equidistant and the k digital neighbors of a school are a
uniform random k-subset of its graph neighbors: the arcs are sorted by
school in a uniform random order within each school, and each school
takes its first k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateNull, InvalidValue
from .geo import DistanceMatrix
from .model import DecayCurve, School, SchoolNetwork, pearson


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

    def to_dict(self) -> dict:
        return {
            "observed": self.observed,
            "simulated_mean": self.simulated_mean,
            "simulated_sd": self.simulated_sd,
            "simulated_max": self.simulated_max,
            "simulations": self.simulations,
            "empirical_p": self.empirical_p,
            "seed": self.seed,
            "k": self.k,
            "discarded": self.discarded,
            "uncovered_pairs": self.uncovered_pairs,
            "extension": self.extension,
        }


def _pair_probabilities(curve: DecayCurve, dm: DistanceMatrix):
    """Upper-triangle tie probabilities from the binned curve.

    A pair whose distance falls beyond the last bin, or in a bin with no
    defined probability, is uncovered and never tied. Returns (iu, probs,
    uncovered_count).
    """
    n = len(dm.ids)
    iu = np.triu_indices(n, k=1)
    d = dm.distances[iu]
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


def generate_null_graph(curve: DecayCurve, dm: DistanceMatrix,
                        seed: int) -> SchoolNetwork:
    """One binary random network with the curve's per-bin tie probability."""
    iu, probs, _ = _pair_probabilities(curve, dm)
    a, b = _draw_edges(iu, probs, np.random.default_rng(seed))
    n = len(dm.ids)
    weights = np.zeros((n, n), dtype=np.int64)
    weights[np.concatenate((a, b)), np.concatenate((b, a))] = 1
    return SchoolNetwork(list(dm.ids), weights, kind="binary")


def _s_d_on_edges(a: np.ndarray, b: np.ndarray, n: int, scores: np.ndarray,
                  k: int, rng: np.random.Generator) -> float | None:
    """S_d(k) on the binary graph with tied pairs (a, b): the k-set of each
    school is a uniform random k-subset of its neighbors. Returns None when
    fewer than 3 schools are eligible or a correlation input is constant."""
    src = np.concatenate((a, b))
    dst = np.concatenate((b, a))
    degrees = np.bincount(src, minlength=n)
    eligible = np.flatnonzero(degrees >= k)
    if len(eligible) < 3:
        return None
    # arcs grouped by school, uniformly shuffled within each school; with
    # n < 2**20 each key src + u keeps more than 32 random bits of u, and
    # np.lexsort((u, src)) gives the same order several times slower
    order = np.argsort(src + rng.random(len(src)))
    first = (np.cumsum(degrees) - degrees)[eligible]
    neighbor_mean = scores[dst[order[first[:, None] + np.arange(k)]]].mean(axis=1)
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
    if [s.id for s in roster] != list(dm.ids):
        raise ValueError("roster and distance matrix school lists differ")
    iu, probs, n_uncovered = _pair_probabilities(curve, dm)
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
        a, b = _draw_edges(iu, probs, rng)
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
        uncovered_pairs=n_uncovered,
        extension=k > 1,
        samples=samples,
    )


def write_null_samples_csv(result: NullModelResult, path) -> None:
    """One simulated S value per row, for external plotting."""
    with open(path, "w", newline="") as f:
        f.write("s_d_null\n")
        for v in result.samples:
            f.write(f"{float(v)!r}\n")
