"""Shared domain types, the correlation primitives and the output formats.

Everything here is immutable after construction and safe to share across
threads; the two statistics functions are pure. `correlation_report` is
the one place a statistic becomes a SegregationReport: pearson(x, y), the
permutation p-value when asked for, and the permutations and seed in its
settings. `write_csv` and `write_json` are the one CSV dialect (a header
row, "\n" line ends) and the one JSON layout (indent 2, sorted keys,
trailing newline) of every output file. `_centred_pair`, the correlation
kernel of both statistics, alone decides when a correlation is undefined;
the null model discards a simulation whose S_d is undefined.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CoordinateOutOfRange,
    GeosegError,
    InvalidValue,
    LengthMismatch,
    MismatchedIds,
    TooFewSamples,
    UnknownSchoolId,
    ZeroVariance,
)

EARTH_RADIUS_KM = 6371.0
# cells per block of the blocked school-pair and apartment x school
# builders (`geo`, `synth`): a float64 block is 1 MB
BLOCK_CELLS = 1 << 17
# cells per block of shuffled copies in permutation_p_value: 256 KB
PERMUTATION_BLOCK_CELLS = 1 << 15


def position_of(ids: list[str], school_id: str) -> int:
    """school_id's position in the school list ids; UnknownSchoolId if it
    is not there."""
    try:
        return ids.index(school_id)
    except ValueError:
        raise UnknownSchoolId(f"unknown school id {school_id!r}") from None


def check_roster(roster, ids, source: str) -> None:
    """MismatchedIds unless the roster lists the school ids `ids` of
    `source`, in their order: the statistics index schools by position."""
    if [s.id for s in roster] != list(ids):
        raise MismatchedIds(f"roster and {source} school lists differ")


@dataclass(frozen=True)
class GeoPoint:
    latitude: float
    longitude: float

    def __post_init__(self):
        lat, lon = self.latitude, self.longitude
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise CoordinateOutOfRange(f"non-finite coordinate ({lat}, {lon})")
        if not (-90.0 <= lat <= 90.0):
            raise CoordinateOutOfRange(f"latitude {lat} outside [-90, 90]")
        if not (-180.0 <= lon <= 180.0):
            raise CoordinateOutOfRange(f"longitude {lon} outside [-180, 180]")


@dataclass(frozen=True)
class School:
    id: str
    location: GeoPoint
    score: float  # mean graduate examination score (USE points)

    def __post_init__(self):
        if not math.isfinite(self.score) or self.score < 0:
            raise InvalidValue(f"school {self.id}: invalid score {self.score}")


APARTMENT_DTYPE = np.dtype([("latitude", np.float64), ("longitude", np.float64),
                            ("price_per_sqm", np.float64)])


def apartment_table(latitude, longitude, price_per_sqm) -> np.recarray:
    """The apartments as one read-only record array of APARTMENT_DTYPE
    (prices in rubles per square meter). Unequal column lengths, a
    coordinate out of range or not finite, or a price not positive and
    finite raise a GeosegError that names the first bad value."""
    lat, lon, price = (np.asarray(c, dtype=float) for c in (latitude, longitude, price_per_sqm))
    if lat.ndim != 1 or not lat.shape == lon.shape == price.shape:
        raise LengthMismatch(f"apartment column shapes {lat.shape}, {lon.shape}, {price.shape}")
    for name, values, bound in (("latitude", lat, 90), ("longitude", lon, 180)):
        bad = np.flatnonzero(~(np.abs(values) <= bound))
        if len(bad):
            raise CoordinateOutOfRange(f"{name} {values[bad[0]]} outside [-{bound}, {bound}]")
    bad = np.flatnonzero(~((price > 0) & (price < np.inf)))
    if len(bad):
        raise InvalidValue(f"invalid price per sqm {price[bad[0]]}")
    table = np.rec.fromarrays((lat, lon, price), dtype=APARTMENT_DTYPE)
    table.flags.writeable = False
    return table


def _unique_keys(keys) -> np.ndarray:
    """The distinct int64 keys, sorted, by one sort and a neighbour mask:
    asked for no counts, np.unique on numpy >= 2.3 hashes int64 keys, over
    20 times slower at 20k to 400k keys."""
    keys = np.sort(np.asarray(keys, dtype=np.int64))
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _unique_pairs(a, b, n: int):
    """The distinct pairs (a, b) of codes 0 <= b < n, as two int64 arrays
    sorted by (a, b)."""
    return np.divmod(_unique_keys(np.asarray(a, dtype=np.int64) * n + b), n)


class StudentGraph:
    """Undirected binary friendship relation plus student -> school map.

    Students are positions in the sorted `students`; `school` holds each
    student's index into `school_ids`, and a, b are the friendships as
    student positions, stored as int64 arrays a < b with each pair once.
    The constructor raises ValueError for a school code outside
    school_ids, an endpoint outside students, or a self-loop.
    `assignment` and `edges`, id views built on first use, stay only
    because bench/run.py counts them; ROADMAP item 2 removes them.
    """

    def __init__(self, students: list[str], school_ids: list[str], school, a, b):
        n = len(students)
        school, a, b = (np.asarray(x, dtype=np.int64) for x in (school, a, b))
        if school.shape != (n,) or np.any((school < 0) | (school >= len(school_ids))):
            raise ValueError(f"school must hold {n} codes in [0, {len(school_ids)})")
        if a.ndim != 1 or a.shape != b.shape:
            raise ValueError(f"edge ends of shapes {a.shape}, {b.shape}")
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        if np.any((lo < 0) | (hi >= n) | (lo == hi)):
            raise ValueError(f"edge ends must be two distinct students in [0, {n})")
        self.students, self.school_ids, self.school = students, school_ids, school
        self.a, self.b = _unique_pairs(lo, hi, n)
        for array in (self.school, self.a, self.b):
            array.flags.writeable = False

    @cached_property
    def assignment(self) -> dict[str, str]:
        """Each student's school id, in the order of students."""
        ids = self.school_ids
        return {s: ids[c] for s, c in zip(self.students, self.school.tolist())}

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        """The friendships as sorted id tuples."""
        s = self.students
        return frozenset((s[i], s[j]) for i, j in zip(self.a.tolist(), self.b.tolist()))


def group_arcs(src, n: int):
    """Arcs grouped by source school: (order, indptr), school i's arcs
    being order[indptr[i]:indptr[i + 1]], in their given order. One sort of
    the packed keys src << shift | arc index (int32 when n << shift fits,
    else int64): the keys are distinct, so their order is the stable
    argsort of src. indptr is where each school's first key would go, and
    the order is the keys with src masked off."""
    src = np.asarray(src)
    shift = max(len(src) - 1, 0).bit_length()
    dtype = np.int32 if n << shift < 2**31 else np.int64
    keys = src.astype(dtype)
    keys <<= shift
    keys |= np.arange(len(src), dtype=dtype)
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=dtype) << shift)
    keys &= (1 << shift) - 1
    return keys, indptr


def k_subsets(sizes: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random k-subsets of range(size), one per size >= k, by
    Floyd's algorithm (Bentley & Floyd 1987) in k vectorised rounds: round
    r draws t uniform in [0, size - k + r] and takes size - k + r instead
    when t is already taken. Returns the rounds as a (k x len(sizes))
    array, from one rng.random((k, len(sizes))) draw; k = 1 is the single
    round floor(u * size)."""
    bounds = sizes + np.arange(1 - k, 1)[:, None]  # size - k + 1 + r
    picks = (rng.random(bounds.shape) * bounds).astype(np.int64)
    for r in range(1, k):
        np.copyto(picks[r], bounds[r] - 1, where=(picks[:r] == picks[r]).any(axis=0))
    return picks


class SchoolNetwork:
    """Weighted undirected school network, held as its tied pairs.

    Schools are positions in `schools`. The ties are int64 arrays a < b,
    sorted by (a, b) with each pair once, and a positive integer `weight`
    per pair; so the network is symmetric and intra-school ties, reported
    by the ingest summary instead, cannot occur. `degrees` counts each
    school's tied schools; `arcs` is the per-school view of the ties.
    """

    def __init__(self, schools: list[str], a, b, weight):
        n = len(schools)
        a, b, weight = (np.asarray(x) for x in (a, b, weight))
        if a.ndim != 1 or not a.shape == b.shape == weight.shape:
            raise ValueError(f"pair arrays of shapes {a.shape}, {b.shape}, {weight.shape}")
        if len(a) and not all(np.issubdtype(x.dtype, np.integer) for x in (a, b, weight)):
            raise ValueError("school positions and weights must be integers")
        a, b, weight = (x.astype(np.int64) for x in (a, b, weight))
        if np.any((a < 0) | (a >= b) | (b >= n)):
            raise ValueError(f"each pair must have 0 <= a < b < {n}")
        if np.any(np.diff(a * n + b) <= 0):
            raise ValueError("pairs must be sorted by (a, b) and distinct")
        if np.any(weight <= 0):
            raise ValueError("weights must be positive")
        for array in (a, b, weight):
            array.flags.writeable = False
        self.schools = list(schools)
        self.a, self.b, self.weight = a, b, weight

    def __len__(self):
        return len(self.schools)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Number of tied schools per school."""
        degrees = np.bincount(np.concatenate((self.a, self.b)), minlength=len(self.schools))
        degrees.flags.writeable = False
        return degrees

    @cached_property
    def arcs(self):
        """Each tie in both directions, grouped by school: (indptr,
        neighbors, weights), school i's tied schools being
        neighbors[indptr[i]:indptr[i + 1]] in ascending order."""
        order, indptr = group_arcs(np.concatenate((self.b, self.a)), len(self.schools))
        view = (indptr, np.concatenate((self.a, self.b))[order],
                np.concatenate((self.weight, self.weight))[order])
        for array in view:
            array.flags.writeable = False
        return view

    def nonzero_pairs(self):
        """(school_a, school_b, weight) per tie, in (a, b) order."""
        s = self.schools
        for i, j, w in zip(self.a.tolist(), self.b.tolist(), self.weight.tolist()):
            yield s[i], s[j], w


@dataclass
class DecayCurve:
    """Binned tie probability vs distance; probabilities are NaN in bins
    with no school pairs."""

    bin_edges: np.ndarray  # strictly increasing, starts at 0, len = bins + 1
    probabilities: np.ndarray
    pair_counts: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        if edges[0] != 0.0 or np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must start at 0 and strictly increase")
        p = np.asarray(self.probabilities, dtype=float)
        c = np.asarray(self.pair_counts, dtype=np.int64)
        if len(p) != len(edges) - 1 or len(c) != len(p):
            raise ValueError("probabilities/pair_counts length mismatch")
        occupied = c > 0
        if np.any(np.isnan(p[occupied])):
            raise ValueError("probability undefined in an occupied bin")
        if np.any((p[occupied] < 0) | (p[occupied] > 1)):
            raise ValueError("probabilities must lie in [0, 1]")
        self.bin_edges = edges
        self.probabilities = p
        self.pair_counts = c

    @property
    def midpoints(self) -> np.ndarray:
        return (self.bin_edges[:-1] + self.bin_edges[1:]) / 2.0


@dataclass(frozen=True)
class SegregationReport:
    statistic_name: str
    value: float
    sample_size: int
    p_value: float | None = None
    settings: dict = field(default_factory=dict)

    def __post_init__(self):
        if not -1.0 <= self.value <= 1.0:
            raise ValueError(f"correlation {self.value} outside [-1, 1]")
        if self.sample_size < 3:
            raise ValueError(f"sample_size {self.sample_size} < 3")
        if self.p_value is not None and not 0.0 < self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside (0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)


def _centred_pair(x, y):
    """The one correlation kernel: [xc, sx, yc, sy], each side centred and
    its root sum of squares, after an exact scaling by the power of two
    that puts its largest magnitude in [0.5, 1), so no sum of squares
    overflows or underflows. ZeroVariance when a side's min equals its max."""
    x, y = (np.asarray(v, dtype=float) for v in (x, y))
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch(f"lengths {x.shape} vs {y.shape}")
    if len(x) < 3:
        raise TooFewSamples(f"need >= 3 samples, got {len(x)}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidValue("inputs must be finite")
    columns = []
    for name, v in (("x", x), ("y", y)):
        lo, hi = v.min(), v.max()
        if lo == hi:
            raise ZeroVariance(f"{name} is constant")
        v = np.ldexp(v, -math.frexp(max(-lo, hi))[1])
        v -= v.mean()
        columns += [v, math.sqrt(float(v @ v))]
    return columns


def pearson(x, y) -> float:
    """Sample Pearson correlation, clipped to [-1, 1]. Raises ZeroVariance,
    LengthMismatch, TooFewSamples or InvalidValue where it is undefined."""
    xc, sx, yc, sy = _centred_pair(x, y)
    r = float(xc @ yc) / (sx * sy)
    return min(1.0, max(-1.0, r))


def permutation_p_value(x, y, permutations: int, seed: int) -> float:
    """Two-sided permutation p-value for pearson(x, y).

    Permutes y with a seeded generator; returns
    (1 + #{permuted |r| >= |r_observed|}) / (permutations + 1), so the
    result is never zero. Deterministic for a fixed seed.

    The permutations are drawn a block of PERMUTATION_BLOCK_CELLS cells
    at a time: each row of the block, a copy of y, is shuffled in place by
    Generator.permuted, which draws the stream of as many successive
    Generator.permutation(y) calls, and one matrix-vector product scores
    the block.
    """
    if permutations < 100:
        raise InvalidValue(f"need >= 100 permutations, got {permutations}")
    xc, sx, yc, sy = _centred_pair(x, y)
    r_obs = min(1.0, abs(float(xc @ yc)) / (sx * sy))
    xc /= sx
    yc /= sy
    rng = np.random.default_rng(seed)
    # ties at |r_obs| must count; tolerance absorbs permutation round-off
    threshold = r_obs - 1e-12
    hits = 0
    block = np.empty((min(permutations, max(1, PERMUTATION_BLOCK_CELLS // len(yc))), len(yc)))
    for lo in range(0, permutations, len(block)):
        shuffled = block[:permutations - lo]
        shuffled[...] = yc
        rng.permuted(shuffled, axis=1, out=shuffled)
        hits += int(np.count_nonzero(np.abs(shuffled @ xc) >= threshold))
    return (1 + hits) / (permutations + 1)


def correlation_report(name: str, x, y, permutations: int, seed: int,
                       **settings) -> SegregationReport:
    """pearson(x, y) as the report `name`, over len(x) samples, with
    permutation_p_value(x, y, permutations, seed) unless permutations is
    0; the settings record permutations and seed after the given ones. A
    GeosegError of either is raised again, of its type, with name in front."""
    try:
        value = pearson(x, y)
        p = permutation_p_value(x, y, permutations, seed) if permutations else None
    except GeosegError as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    return SegregationReport(name, value, len(x), p,
                             {**settings, "permutations": permutations, "seed": seed})


def write_csv(path, header, rows) -> None:
    """The header row and then rows, comma-separated with "\n" line ends.
    Rows hold native Python values (.tolist() of an array), written as str,
    which for a float is its repr; a missing value is None, an empty field."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """payload indented by 2 with sorted keys, and a final newline."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
