"""Shared domain types, the correlation primitives and the output formats.

Everything here is immutable after construction and safe to share across
threads; the two statistics functions are pure. `correlation_report` is
the one place a statistic becomes a SegregationReport: pearson(x, y), the
permutation p-value when asked for, and the permutations and seed in its
settings. `write_csv` and `write_json` are the one CSV dialect (a header
row, "\n" line ends) and the one JSON layout (indent 2, sorted keys,
trailing newline) of every output file.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CoordinateOutOfRange,
    InvalidValue,
    LengthMismatch,
    MismatchedIds,
    TooFewSamples,
    ZeroVariance,
)

EARTH_RADIUS_KM = 6371.0


def substream(seed: int, label: str) -> np.random.Generator:
    """Generator derived from (seed, label) so per-school randomness does
    not depend on iteration order. Labels are hashed with crc32 (stable
    across processes, unlike Python's salted str hash)."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(label.encode("utf-8"))])
    )


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


@dataclass(frozen=True)
class Apartment:
    location: GeoPoint
    price_per_sqm: float  # rubles per square meter

    def __post_init__(self):
        if not math.isfinite(self.price_per_sqm) or self.price_per_sqm <= 0:
            raise InvalidValue(f"invalid price per sqm {self.price_per_sqm}")


def _key_counts(keys):
    """The distinct int64 keys, sorted, and how often each occurs:
    np.unique's result by one sort and a neighbour mask (np.unique on int64
    may take a slower hash path)."""
    keys = np.sort(np.asarray(keys, dtype=np.int64))
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return keys[starts], np.diff(starts, append=len(keys))


def _unique_keys(keys) -> np.ndarray:
    """The distinct int64 keys, sorted."""
    return _key_counts(keys)[0]


def _unique_pairs(a, b, n: int):
    """The distinct pairs (a, b) of codes 0 <= b < n, as two int64 arrays
    sorted by (a, b)."""
    return np.divmod(_unique_keys(np.asarray(a, dtype=np.int64) * n + b), n)


class StudentGraph:
    """Undirected binary friendship relation plus student -> school map.

    Students are positions in the sorted `students`; `school` holds each
    student's index into `school_ids`, and the friendships are int64
    arrays a < b of student positions, each pair once. Construction
    rejects self-loops and edges whose endpoints are not assigned to a
    school. `assignment` and `edges` are id views built on first use.
    """

    def __init__(self, assignment: dict[str, str], edges):
        students = sorted(assignment)
        school_ids = sorted(set(assignment.values()))
        code = {s: i for i, s in enumerate(school_ids)}
        position = {s: i for i, s in enumerate(students)}
        ends = []
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop edge on student {a!r}")
            if a not in position or b not in position:
                raise ValueError(f"edge ({a!r}, {b!r}) has unassigned endpoint")
            ends.append((position[a], position[b]))
        school = np.array([code[assignment[s]] for s in students], dtype=np.int64)
        self._set(students, school_ids, school,
                  *np.array(ends, dtype=np.int64).reshape(-1, 2).T)

    @classmethod
    def _coded(cls, students: list[str], school_ids: list[str], school, a, b) -> StudentGraph:
        """Skips the id checks: students are sorted, school indexes
        school_ids per student, and a, b are the friendships as positions
        in students, none a self-loop."""
        graph = cls.__new__(cls)
        graph._set(students, school_ids, school, a, b)
        return graph

    def _set(self, students, school_ids, school, a, b) -> None:
        n = len(students)
        self.students, self.school_ids = students, school_ids
        self.school = np.asarray(school, dtype=np.int64)
        self.a, self.b = _unique_pairs(np.minimum(a, b), np.maximum(a, b), n)
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

    def __eq__(self, other):
        return (
            isinstance(other, StudentGraph)
            and self.assignment == other.assignment
            and np.array_equal(self.a, other.a)
            and np.array_equal(self.b, other.b)
        )

    def __repr__(self):
        return f"StudentGraph({len(self.students)} students, {len(self.a)} edges)"


def group_arcs(src, n: int):
    """Arcs grouped by source school: (order, indptr), the stable argsort
    of the sources src (a radix sort for 16-bit ints) and their cumulative
    bincount over n schools, so school i's arcs are
    order[indptr[i]:indptr[i + 1]], in their given order."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    return np.argsort(src, kind="stable"), indptr


class SchoolNetwork:
    """Weighted undirected school network, held as its tied pairs.

    Schools are positions in `schools`. The ties are int64 arrays a < b,
    sorted by (a, b) with each pair once, and a positive integer `weight`
    per pair; so the network is symmetric and intra-school ties, reported
    by the ingest summary instead, cannot occur. kind is one of
    'raw-count', 'min-symmetrized', 'binary'. `degrees` counts each
    school's tied schools; `arcs` is the per-school view of the ties.
    """

    KINDS = ("raw-count", "min-symmetrized", "binary")

    def __init__(self, schools: list[str], a, b, weight, kind: str):
        if kind not in self.KINDS:
            raise ValueError(f"unknown network kind {kind!r}")
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
        self.kind = kind
        self.index = {s: i for i, s in enumerate(self.schools)}

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
    fitted_exponent: float | None = None
    fitted_prefactor: float | None = None

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


def _as_checked_pair(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch(f"lengths {x.shape} vs {y.shape}")
    if len(x) < 3:
        raise TooFewSamples(f"need >= 3 samples, got {len(x)}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidValue("inputs must be finite")
    return x, y


def pearson(x, y) -> float:
    """Sample Pearson correlation, clipped to [-1, 1].

    Raises ZeroVariance for constant input, LengthMismatch, TooFewSamples.
    """
    x, y = _as_checked_pair(x, y)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0:
        raise ZeroVariance("x is constant")
    if sy == 0.0:
        raise ZeroVariance("y is constant")
    r = float(xc @ yc) / (sx * sy)
    return min(1.0, max(-1.0, r))


def permutation_p_value(x, y, permutations: int, seed: int) -> float:
    """Two-sided permutation p-value for pearson(x, y).

    Permutes y with a seeded generator; returns
    (1 + #{permuted |r| >= |r_observed|}) / (permutations + 1), so the
    result is never zero. Deterministic for a fixed seed.
    """
    if permutations < 100:
        raise InvalidValue(f"need >= 100 permutations, got {permutations}")
    r_obs = abs(pearson(x, y))
    x, y = _as_checked_pair(x, y)
    xc = x - x.mean()
    xc /= math.sqrt(float(xc @ xc))
    yc = y - y.mean()
    yc /= math.sqrt(float(yc @ yc))
    rng = np.random.default_rng(seed)
    # ties at |r_obs| must count; tolerance absorbs permutation round-off
    threshold = r_obs - 1e-12
    hits = 0
    for _ in range(permutations):
        r = float(xc @ rng.permutation(yc))
        if abs(r) >= threshold:
            hits += 1
    return (1 + hits) / (permutations + 1)


def correlation_report(name: str, x, y, permutations: int, seed: int,
                       **settings) -> SegregationReport:
    """pearson(x, y) as the report `name`, over len(x) samples, with
    permutation_p_value(x, y, permutations, seed) unless permutations is
    0; the settings record permutations and seed after the given ones."""
    value = pearson(x, y)
    p = permutation_p_value(x, y, permutations, seed) if permutations else None
    return SegregationReport(name, value, len(x), p,
                             {**settings, "permutations": permutations, "seed": seed})


def write_csv(path, header, rows) -> None:
    """The header row and then rows, comma-separated with "\n" line ends."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """payload indented by 2 with sorted keys, and a final newline."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
