"""Geography-preserving random-graph null model and the Monte Carlo
significance test for digital segregation.

Each unordered school pair gets an independent Bernoulli tie with the
decay-curve probability of its distance bin, and no tie outside the
curve's defined bins. A simulated graph is kept as its list of tied
pairs, in draw order, never as an n x n matrix. A simulation whose S_d
is undefined (`pearson` raises) is discarded.

Pair table: the distance matrix sorts its pairs by bin once per set of
bin edges (`DistanceMatrix.pairs_by_bin`, small-int school indices),
computing their distances a block of rows at a time, and `_pair_table`
adds each bin's pair count and probability and the uncovered count; a
run builds it once. No n x n distance matrix is read.

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
function behind `SchoolNetwork.arcs`: one sort of keys that pack each
arc's source school above its index, so each school's arcs stay in draw
order. Each school of degree >= k takes a uniform k-subset of its arc
range by Floyd's algorithm (Bentley & Floyd 1987), `model.k_subsets`, in
k vectorised rounds; the pick sorts no random keys, and only the picked
arcs are gathered. At k = 1 that is arc first + floor(u * degree).

Workers: simulation i is seeded from (seed, i) alone, so simulations can
run anywhere. They come in batches of the values still missing: all of
them, then re-draws after discards. A batch predicted to give each of at
least two workers MIN_WORKER_S is split into contiguous index ranges,
one forked process per CPU of the affinity mask, the caller taking the
last range. The prediction counts what one simulation handles (its
uniforms, its expected ties and its n k picks) at ELEMENT_S each, so it
depends on the input alone and an input takes the same path on every
run, however loaded the host. Children send their values back through
pipes as float64 bytes, and the caller consumes every value in index
order with the serial loop's discard and DegenerateNull rules, so
samples, discard counts and errors do not depend on the worker count.
It forks only where os.fork exists and /proc/self/task shows one thread
(the CLI runs one BLAS thread); elsewhere, as in a threaded library
caller, it runs serially. Fork, not a spawned pool: a spawned worker
would import numpy and rebuild the pair table, which costs about as much
as the work it takes over.
"""

from __future__ import annotations

import math
import os
import signal
import traceback
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DegenerateNull, InvalidValue, KOutOfRange, TooFewSamples, ZeroVariance
from .geo import DistanceMatrix
from .model import (DecayCurve, School, check_roster, group_arcs, k_subsets, pearson,
                    write_csv)

# A batch of simulations is split over forked workers only while each is
# predicted at least this many seconds of work: a fork costs a few ms of
# CPU, and two busy CPUs each run a simulation more slowly than one does,
# so a split of 0.16 s over two workers (a 1,200-school city at 100
# simulations and k = 5) measured no faster than running it here.
MIN_WORKER_S = 0.14
# Predicted seconds per element of a simulation's work: a uniform of its
# block, an expected tie or a school's pick. About 20 ns at 600 and 1,200
# schools on a 2-vCPU Xeon VM (numpy 2.4, one BLAS thread). A constant
# rather than a timing, so one input takes the same path on every run: a
# timed simulation's cost swung twofold with the host's load.
ELEMENT_S = 20e-9


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
    samples: np.ndarray = field(repr=False, default=None)

    @property
    def extension(self) -> bool:  # k > 1 is beyond the reference analysis
        return self.k > 1

    @property
    def empirical_p_se(self) -> float:
        """Monte Carlo standard error of empirical_p, sqrt(p (1 - p) / sims)
        (Phipson & Smyth 2010)."""
        p = self.empirical_p
        return math.sqrt(p * (1 - p) / self.simulations)

    def to_dict(self) -> dict:
        """Every field but the samples, extension and empirical_p_se."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "samples"}
        return {**d, "extension": self.extension, "empirical_p_se": self.empirical_p_se}


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


def _s_d_on_edges(a: np.ndarray, b: np.ndarray, n: int, scores: np.ndarray,
                  k: int, rng: np.random.Generator) -> float | None:
    """S_d(k) on the binary graph with tied pairs (a, b): the k-set of each
    school is a uniform random k-subset of its neighbors. Returns None when
    S_d is undefined: when pearson raises TooFewSamples or ZeroVariance."""
    src = np.concatenate((a, b))
    dst = np.concatenate((b, a))
    order, indptr = group_arcs(src, n)
    degrees = np.diff(indptr)
    eligible = np.flatnonzero(degrees >= k)
    picks = k_subsets(degrees[eligible], k, rng)
    picks += indptr[eligible]
    try:
        return pearson(scores[eligible], scores[dst[order[picks]]].mean(axis=0))
    except (TooFewSamples, ZeroVariance):
        return None


def _simulated(simulate, simulations: int, per_simulation_s: float):
    """simulate(0), simulate(1), ... in index order, in batches, until
    `simulations` of them are not NaN. Each batch holds as many indices as
    values are still missing, and `_batch` may split it over workers."""
    index, missing = 0, simulations
    while missing:
        values = _batch(simulate, index, index + missing, per_simulation_s * missing)
        yield from values.tolist()
        index += len(values)
        missing -= np.count_nonzero(~np.isnan(values))


def _batch(simulate, start: int, stop: int, predicted_s: float) -> np.ndarray:
    """simulate(i) for i in [start, stop), split over one process per CPU
    of the affinity mask, but no more than give each MIN_WORKER_S of the
    predicted work, and only where forking is safe."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, stop - start)
    if MIN_WORKER_S > 0:
        workers = min(workers, int(predicted_s / MIN_WORKER_S))
    if workers > 1 and _can_fork():
        return _forked(simulate, np.linspace(start, stop, workers + 1).astype(int))
    return np.array([simulate(i) for i in range(start, stop)])


def _can_fork() -> bool:
    """True where os.fork exists and /proc/self/task lists one thread: a
    child forked from a process with other threads can deadlock on a lock
    one of them held (and Python 3.12 warns)."""
    if not hasattr(os, "fork"):
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _forked(simulate, bounds: np.ndarray) -> np.ndarray:
    """simulate(i) for i in [bounds[0], bounds[-1]): each range
    [bounds[j], bounds[j + 1]) but the last in a forked child, which sends
    its values back through a pipe, and the last range here. RuntimeError
    when a child exits non-zero or sends a short payload. Every child is
    reaped before this returns or raises; one not yet reaped (after an
    error or an interrupt here) is killed first."""
    ranges = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    children = []  # (pid, read end of its pipe, lo, hi), not yet reaped
    try:
        for lo, hi in ranges[:-1]:
            read, write = os.pipe()
            pipe = open(read, "rb")
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(simulate, lo, hi, write)
            except BaseException:
                pipe.close()
                raise
            finally:
                os.close(write)
            children.append((pid, pipe, lo, hi))
        lo, hi = ranges[-1]
        own = np.array([simulate(i) for i in range(lo, hi)])
        parts = []
        while children:
            pid, pipe, lo, hi = children[0]
            with pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if code != 0 or len(payload) != 8 * (hi - lo):
                raise RuntimeError(f"null model worker for simulations {lo}-{hi - 1} "
                                   f"exited {code} after sending {len(payload)} bytes")
            parts.append(np.frombuffer(payload))
    finally:
        for pid, pipe, _, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return np.concatenate([*parts, own])


def _worker(simulate, lo: int, hi: int, fd: int):
    """A forked child's whole body: send simulate(lo..hi-1) to fd as
    float64 bytes, then exit. It never returns into the caller's frames,
    flushes no inherited buffer and runs no exit handler."""
    status = 1
    try:
        values = np.array([simulate(i) for i in range(lo, hi)], dtype=np.float64)
        with open(fd, "wb") as out:
            out.write(values.tobytes())
        status = 0
    except Exception:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


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
    neither execution order nor the number of forked workers (module
    docstring) can change the result. A simulation whose S_d is
    undefined is discarded and re-drawn; DegenerateNull if more than half
    are discarded. KOutOfRange unless 1 <= k <= n - 1.
    """
    if simulations < 100:
        raise InvalidValue(f"need >= 100 simulations, got {simulations}")
    check_roster(roster, dm.ids, "distance matrix")
    if not 1 <= k <= len(roster) - 1:
        raise KOutOfRange(f"k={k} outside [1, {len(roster) - 1}]")
    table = _pair_table(curve, dm)
    scores = np.array([s.score for s in roster])
    elements = (len(table.slot_log_q) + table.counts @ table.probs + len(table.certain)
                + len(roster) * k)

    def simulate(index: int) -> float:
        """S_d of simulation `index`, or NaN where it is undefined."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        a, b = _draw_ties(table, rng)
        value = _s_d_on_edges(a, b, len(roster), scores, k, rng)
        return math.nan if value is None else value

    samples = np.empty(simulations)
    collected = 0
    discarded = 0
    for value in _simulated(simulate, simulations, ELEMENT_S * elements):
        if discarded > simulations // 2:
            raise DegenerateNull(
                f"{discarded} of {collected + discarded} simulations discarded"
            )
        if math.isnan(value):
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
        samples=samples,
    )


def write_null_samples_csv(result: NullModelResult, path) -> None:
    """One simulated S value per row, for external plotting."""
    write_csv(path, ["s_d_null"], ([v] for v in result.samples.tolist()))
