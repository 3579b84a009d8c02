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
run anywhere. A run (`NullRun`) draws simulations 0 .. S - 1 once: it
forks one child for each MIN_WORKER_S of their predicted work, up to one
fewer than the CPUs of the affinity mask. The prediction counts what one
simulation handles (its uniforms, its expected ties and its n k picks)
at ELEMENT_S each, so it depends on the input alone and an input takes
the same path on every run, however loaded the host. The block numbers
go into one pipe before the fork, and every process, the caller at the
join too, takes blocks from it until it is empty, into shared memory; a
run with no child is one block that the caller takes. A fork that fails
leaves fewer children. The CLI starts the run after the decay curve and
joins it after the observed statistics, which it computes while the
children draw. The caller then reads the values in index order with the
discard and DegenerateNull rules, and draws each replacement of a
discarded simulation itself, S, S + 1, ..., so samples, discard counts
and errors do not depend on the worker count. It forks only where
os.fork exists and /proc/self/task shows one thread (the CLI runs one
BLAS thread); elsewhere, as in a threaded library caller, no child is
forked. Fork, not a spawned pool: a spawned worker would import numpy and
rebuild the pair table, which costs about as much as the work it takes
over.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
import select
import signal
import traceback
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DegenerateNull, InvalidValue, KOutOfRange, TooFewSamples, ZeroVariance
from .geo import DistanceMatrix
from .model import (DecayCurve, School, check_roster, group_arcs, k_subsets, pearson,
                    write_csv)

# A run forks a child for each this many seconds of predicted work: a
# fork costs a few ms of CPU, and two busy CPUs each run a simulation more
# slowly than one does, so with the caller idle a split of 0.16 s over two
# processes (a 1,200-school city at 100 simulations and k = 5) gained
# nothing. Started before the statistics, that child gains their time.
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


class NullRun:
    """Simulations 0 .. S - 1 of one null model (module docstring), started
    at once; `null_distribution_s_d(..., run=)` joins them. Leaving a
    `with` on it kills and reaps every child not yet reaped."""

    def __init__(self, roster: list[School], dm: DistanceMatrix, curve: DecayCurve,
                 k: int, simulations: int, seed: int):
        if simulations < 100:
            raise InvalidValue(f"need >= 100 simulations, got {simulations}")
        check_roster(roster, dm.ids, "distance matrix")
        if not 1 <= k <= len(roster) - 1:
            raise KOutOfRange(f"k={k} outside [1, {len(roster) - 1}]")
        self.args = (id(roster), id(dm), id(curve), k, simulations, seed)
        self.simulations = simulations
        table = _pair_table(curve, dm)
        self.uncovered = table.uncovered
        scores = np.array([s.score for s in roster])
        self.per_simulation_s = ELEMENT_S * (
            len(table.slot_log_q) + table.counts @ table.probs + len(table.certain)
            + len(roster) * k)

        def simulate(index: int) -> float:
            """S_d of simulation `index`, or NaN where it is undefined."""
            rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
            a, b = _draw_ties(table, rng)
            value = _s_d_on_edges(a, b, len(roster), scores, k, rng)
            return math.nan if value is None else value

        self.simulate = simulate
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        workers = cpus - 1
        if MIN_WORKER_S > 0:
            workers = min(workers, int(self.per_simulation_s * simulations / MIN_WORKER_S))
        workers = workers if workers > 0 and _can_fork() else 0
        # a serial run takes its one block from the queue; a forked run
        # queues at most PIPE_BUF // 4 blocks, so that the int32 tokens go
        # in one write that an empty pipe takes at once
        self.size = -(-simulations // (select.PIPE_BUF // 4)) if workers else simulations
        blocks = -(-simulations // self.size)
        shared = mmap.mmap(-1, 8 * simulations + blocks)
        self.drawn = np.frombuffer(shared, np.float64, simulations)
        self.done = np.frombuffer(shared, np.bool_, blocks, 8 * simulations)
        self.children, self.queue, self.spent = [], None, False
        try:
            self.queue, write = os.pipe()
            try:
                os.write(write, np.arange(blocks, dtype="<i4").tobytes())
            finally:
                os.close(write)
            np.random.default_rng(0)  # imports numpy.random once, for every child
            for _ in range(workers):
                try:
                    pid = os.fork()
                except OSError:  # at the process limit, say: fewer workers
                    break
                if pid == 0:
                    self._child()
                self.children.append(pid)
        except BaseException:
            self.close()
            raise

    def _draw(self) -> None:
        """Draw blocks from the queue until it is empty."""
        for token in iter(lambda: os.read(self.queue, 4), b""):
            block = int.from_bytes(token, "little")
            lo = block * self.size
            hi = min(lo + self.size, self.simulations)
            self.drawn[lo:hi] = [self.simulate(i) for i in range(lo, hi)]
            self.done[block] = True

    def _child(self):
        """A child's whole body: it never returns into the caller's frames,
        flushes no inherited buffer and runs no exit handler."""
        status = 1
        try:
            self._draw()
            status = 0
        except Exception:
            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(status)

    def join(self) -> list[float]:
        """simulate(0), ..., simulate(simulations - 1): the caller draws the
        blocks still queued, then reaps the children. RuntimeError when a
        child exits non-zero or leaves a block undrawn."""
        self._draw()
        codes = []
        while self.children:
            codes.append(os.waitstatus_to_exitcode(os.waitpid(self.children[0], 0)[1]))
            del self.children[0]
        self.close()
        if any(codes) or not self.done.all():
            undrawn = np.repeat(~self.done, self.size)[:self.simulations]
            raise RuntimeError(f"null model workers exited {codes}; simulations "
                               f"{np.flatnonzero(undrawn).tolist()} undrawn")
        return self.drawn.tolist()

    def close(self) -> None:
        """Kill and reap every child not yet reaped; the run is spent."""
        for pid in self.children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self.children = []
        if self.queue is not None:
            os.close(self.queue)
            self.queue = None
        self.spent = True

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def null_distribution_s_d(
    roster: list[School],
    dm: DistanceMatrix,
    curve: DecayCurve,
    k: int,
    simulations: int,
    seed: int,
    observed: float,
    run: NullRun | None = None,
) -> NullModelResult:
    """Monte Carlo null distribution of S_d(k) under the geography-
    preserving random graph, compared against the observed value.

    Per-simulation seeds derive from (master seed, simulation index), so
    neither execution order nor the number of forked workers (module
    docstring) can change the result. A simulation whose S_d is
    undefined is discarded and re-drawn; DegenerateNull if more than half
    are discarded. KOutOfRange unless 1 <= k <= n - 1. `run`, a NullRun
    started with these arguments, supplies simulations 0 .. S - 1;
    without one, or with one already joined or closed, the call starts
    its own.
    """
    if run is None or run.spent:
        run = NullRun(roster, dm, curve, k, simulations, seed)
    elif run.args != (id(roster), id(dm), id(curve), k, simulations, seed):
        raise ValueError("run was started with other arguments")
    samples = np.empty(simulations)
    collected = 0
    discarded = 0
    with run:
        # the replacements of discarded simulations, drawn here one at a time
        values = itertools.chain(run.join(), map(run.simulate, itertools.count(simulations)))
        while collected < simulations:
            if discarded > simulations // 2:
                raise DegenerateNull(
                    f"{discarded} of {collected + discarded} simulations discarded"
                )
            value = next(values)
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
        uncovered_pairs=run.uncovered,
        samples=samples,
    )


def write_null_samples_csv(result: NullModelResult, path) -> None:
    """One simulated S value per row, for external plotting."""
    write_csv(path, ["s_d_null"], ([v] for v in result.samples.tolist()))
