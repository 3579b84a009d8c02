"""CSV parsing and the data-cleaning rules.

Input schemas (all CSV, header required, UTF-8, optional BOM, dot decimals,
blank lines skipped; bytes that are not UTF-8, a NUL byte, an empty or
missing required field or a csv error raise MalformedRow, and a latitude
outside [-90, 90] or a longitude outside [-180, 180] CoordinateOutOfRange,
with the file and the physical line the record ends on, blank lines and
newlines inside quoted fields counted):
  students:   student_id, school_id   (one row per school claim)
  edges:      student_id_a, student_id_b
  schools:    school_id, latitude, longitude, score  (empty score = missing)
  apartments: latitude, longitude, price, area  -- or a price_per_sqm column

Each student id is coded as an int the first time the students or edges
file names it, and the students stay coded until the school networks are
built: the filters are counts and masks over the codes, and only the
surviving students' ids are sorted, for the StudentGraph.

Filtering order is fixed so reports are reproducible: excluded-id and
oversize schools, then missing-score schools, then multi-school students,
then students stranded in removed schools, then, in one pass, students
with no same-school friend.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from operator import itemgetter

import numpy as np

from .errors import (
    CoordinateOutOfRange,
    DuplicateSchoolId,
    EmptyResult,
    MalformedRow,
    NonPositiveArea,
)
from .model import Apartment, GeoPoint, School, StudentGraph, _unique_pairs

DEFAULT_MAX_COHORT = 1000


@dataclass(frozen=True)
class RawSchool:
    id: str
    location: GeoPoint
    score: float | None  # None = missing, removed by the filter stage


class RawInputs:
    """The four parsed files, with students coded as ints.

    student_ids[i] is student code i's id, in first-seen order over the
    students file and then the edges file (an id only in the edges file
    dangles). claim_student and claim_school are the distinct (student,
    school) claims, the school as an index into school_ids. edge_a < edge_b
    are the distinct friendships as student codes, self-loops dropped.
    The constructor takes ids; `claims` and `edges` are id views built on
    first use.
    """

    def __init__(self, claims: dict[str, set[str]], edges, schools: list[RawSchool],
                 apartments: list[Apartment]):
        ids: dict[str, int] = {}
        school_code: dict[str, int] = {}
        pairs = [(ids.setdefault(s, len(ids)), school_code.setdefault(c, len(school_code)))
                 for s, claimed in claims.items() for c in claimed]
        ends = [(ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids))) for a, b in edges]
        self._set(list(ids), list(school_code),
                  *np.array(pairs, dtype=np.int64).reshape(-1, 2).T,
                  *np.array(ends, dtype=np.int64).reshape(-1, 2).T, schools, apartments)

    @classmethod
    def _coded(cls, *fields) -> RawInputs:
        """From already coded fields, in the order _set takes them."""
        raw = cls.__new__(cls)
        raw._set(*fields)
        return raw

    def _set(self, student_ids, school_ids, claim_student, claim_school, edge_a, edge_b,
             schools, apartments) -> None:
        self.student_ids, self.school_ids = student_ids, school_ids
        self.schools, self.apartments = schools, apartments
        self.claim_student, self.claim_school = _unique_pairs(
            claim_student, claim_school, len(school_ids))
        lo, hi = np.minimum(edge_a, edge_b), np.maximum(edge_a, edge_b)
        loop = lo == hi  # a self-friendship carries no information
        self.edge_a, self.edge_b = _unique_pairs(lo[~loop], hi[~loop], len(student_ids))

    @cached_property
    def claims(self) -> dict[str, set[str]]:
        """Each listed student's claimed school ids."""
        claims: dict[str, set[str]] = {}
        for i, c in zip(self.claim_student.tolist(), self.claim_school.tolist()):
            claims.setdefault(self.student_ids[i], set()).add(self.school_ids[c])
        return claims

    @cached_property
    def edges(self) -> set[tuple[str, str]]:
        """The friendships as sorted id tuples."""
        ids = self.student_ids
        pairs = ((ids[i], ids[j]) for i, j in zip(self.edge_a.tolist(), self.edge_b.tolist()))
        return {(a, b) if a < b else (b, a) for a, b in pairs}

    def __eq__(self, other):
        return (isinstance(other, RawInputs) and self.claims == other.claims
                and self.edges == other.edges and self.schools == other.schools
                and self.apartments == other.apartments)


@dataclass
class FilterConfig:
    max_cohort: int = DEFAULT_MAX_COHORT
    excluded_school_ids: tuple[str, ...] = ()


@dataclass
class FilterReport:
    students_removed_no_same_school_friend: int = 0
    students_removed_multi_school: int = 0
    students_removed_school_filtered: int = 0
    schools_removed_oversize: int = 0
    schools_removed_missing_score: int = 0
    schools_removed_excluded_ids: int = 0
    edges_dropped_dangling: int = 0
    fixed_point_iterations: int = 0
    intra_school_edges: int = 0
    settings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _float_field(text, name, path, line_no):
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise MalformedRow(path, line_no, f"bad {name}: {text!r}")
    if not math.isfinite(value):
        raise MalformedRow(path, line_no, f"non-finite {name}")
    return value


def _location(lat, lon, path, line_no) -> GeoPoint:
    """The GeoPoint of a row's latitude and longitude fields; a coordinate
    out of range raises CoordinateOutOfRange naming the file and line."""
    lat = _float_field(lat, "latitude", path, line_no)
    lon = _float_field(lon, "longitude", path, line_no)
    try:
        return GeoPoint(lat, lon)
    except CoordinateOutOfRange as exc:
        raise CoordinateOutOfRange(f"{path}:{line_no}: {exc}") from None


def _line_of(data: bytes, offset: int) -> int:
    """The physical line of a byte offset; a line ends at \\n, \\r\\n or
    \\r, as for the csv reader."""
    head = data[:offset]
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1


def _check_bytes(path) -> None:
    """Reject a byte that is not UTF-8, and a NUL byte, which the csv
    module of Python >= 3.11 would read as part of a field."""
    with open(path, "rb") as f:
        data = f.read()
    nul = data.find(b"\x00")
    if nul >= 0:
        raise MalformedRow(path, _line_of(data, nul), "NUL byte")
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(path, _line_of(data, exc.start),
                           f"not UTF-8: {exc.reason}") from None


def _records(path, required, optional=()):
    """Yield (line, fields) for each non-blank record: line is the physical
    line the record ends on, fields the values of the required and then the
    optional columns. A column missing from the header, or a field missing
    from a short row, is None."""
    _check_bytes(path)
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, [])
            missing = [c for c in required if c not in header]
            if missing:
                raise MalformedRow(path, 1, f"missing columns {missing}")
            # as with csv.DictReader, a repeated column name reads its last
            # field, a short row's missing fields are None and fields past
            # the header are ignored
            width = len(header)
            index = {name: i for i, name in enumerate(header)}
            pick = itemgetter(*(index.get(c, width) for c in (*required, *optional)))
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    row = row[:width] + [None] * (width - len(row))
                row.append(None)  # the field of a column missing from the header
                yield reader.line_num, pick(row)
        except csv.Error as exc:
            raise MalformedRow(path, reader.line_num, str(exc)) from None


def parse_students(path, ids: dict[str, int]):
    """The (student, school) claims as int64 code arrays and the school ids
    the school codes index; student ids are interned into ids."""
    students, schools = [], []
    school_code: dict[str, int] = {}
    for line_no, (student, school) in _records(path, ("student_id", "school_id")):
        if not student or not school:
            raise MalformedRow(path, line_no, "empty student_id or school_id")
        students.append(ids.setdefault(student, len(ids)))
        schools.append(school_code.setdefault(school, len(school_code)))
    return (np.array(students, dtype=np.int64), np.array(schools, dtype=np.int64),
            list(school_code))


def parse_edges(path, ids: dict[str, int]):
    """The friendship rows as two int64 arrays of student codes, interned
    into ids; self-loops and duplicates are left to RawInputs."""
    ends = []
    for line_no, (a, b) in _records(path, ("student_id_a", "student_id_b")):
        if not a or not b:
            raise MalformedRow(path, line_no, "empty student id")
        ends.append(ids.setdefault(a, len(ids)))
        ends.append(ids.setdefault(b, len(ids)))
    ends = np.array(ends, dtype=np.int64)
    return ends[0::2], ends[1::2]


def parse_schools(path) -> list[RawSchool]:
    schools: list[RawSchool] = []
    seen: set[str] = set()
    columns = ("school_id", "latitude", "longitude", "score")
    for line_no, (school_id, lat, lon, raw_score) in _records(path, columns):
        if not school_id:
            raise MalformedRow(path, line_no, "empty school_id")
        if school_id in seen:
            raise DuplicateSchoolId(f"{path}:{line_no}: duplicate id {school_id!r}")
        seen.add(school_id)
        location = _location(lat, lon, path, line_no)
        raw_score = (raw_score or "").strip()
        if raw_score:
            score = _float_field(raw_score, "score", path, line_no)
            if score < 0:
                raise MalformedRow(path, line_no, f"negative score {score}")
        else:
            score = None
        schools.append(RawSchool(id=school_id, location=location, score=score))
    return schools


def apartment_prices(path) -> list[Apartment]:
    """Apartments with price per square meter, computed from price/area
    when not given directly. Rows with area <= 0 are rejected."""
    apartments: list[Apartment] = []
    records = _records(path, ("latitude", "longitude"), ("price_per_sqm", "price", "area"))
    for line_no, (lat, lon, per_sqm, price, area) in records:
        location = _location(lat, lon, path, line_no)
        if per_sqm:
            price_per_sqm = _float_field(per_sqm, "price_per_sqm", path, line_no)
        else:
            price = _float_field(price, "price", path, line_no)
            area = _float_field(area, "area", path, line_no)
            if area <= 0:
                raise NonPositiveArea(f"{path}:{line_no}: area {area}")
            price_per_sqm = price / area
        if not 0 < price_per_sqm < math.inf:
            raise MalformedRow(path, line_no, f"price per sqm {price_per_sqm} "
                               "not positive and finite")
        apartments.append(Apartment(location=location, price_per_sqm=price_per_sqm))
    return apartments


def parse_inputs(students_file, edges_file, schools_file,
                 apartments_file) -> RawInputs:
    """Parse all four files without filtering, coding each student id once.
    Duplicate edges collapse; a student listed with several school ids
    keeps all claims so the filter stage can drop it as multi-school."""
    ids: dict[str, int] = {}
    claim_student, claim_school, school_ids = parse_students(students_file, ids)
    edge_a, edge_b = parse_edges(edges_file, ids)
    return RawInputs._coded(
        list(ids), school_ids, claim_student, claim_school, edge_a, edge_b,
        parse_schools(schools_file), apartment_prices(apartments_file),
    )


def apply_filters(raw: RawInputs, config: FilterConfig | None = None):
    """Run the cleaning rules; returns (StudentGraph, roster, FilterReport).

    The rules are counts and masks over the student codes; only the ids of
    the surviving students are sorted, for the graph. The
    no-same-school-friend rule runs once: a removed student had no
    same-school friend, so removing it lowers no one's count. The report's
    fixed_point_iterations is 2 when that pass removed someone and 1
    otherwise, the passes a loop to a fixed point would make.
    """
    config = config or FilterConfig()
    report = FilterReport(settings={
        "max_cohort": config.max_cohort,
        "excluded_school_ids": sorted(config.excluded_school_ids),
    })

    cohort = dict(zip(raw.school_ids,
                      np.bincount(raw.claim_school, minlength=len(raw.school_ids)).tolist()))
    excluded = set(config.excluded_school_ids)
    kept_schools: list[RawSchool] = []
    for school in raw.schools:
        if school.id in excluded:
            report.schools_removed_excluded_ids += 1
        elif cohort.get(school.id, 0) > config.max_cohort:
            report.schools_removed_oversize += 1
        elif school.score is None:
            report.schools_removed_missing_score += 1
        else:
            kept_schools.append(school)
    if not kept_schools:
        raise EmptyResult("no school survives filtering")
    roster = [School(s.id, s.location, s.score) for s in kept_schools]

    # each student code's roster index, or -1 once removed
    roster_index = {s.id: i for i, s in enumerate(roster)}
    in_roster = np.array([roster_index.get(s, -1) for s in raw.school_ids], dtype=np.int64)
    n_claims = np.bincount(raw.claim_student, minlength=len(raw.student_ids))
    single = n_claims[raw.claim_student] == 1
    school_of = np.full(len(n_claims), -1, dtype=np.int64)
    school_of[raw.claim_student[single]] = in_roster[raw.claim_school[single]]
    report.students_removed_multi_school = int((n_claims > 1).sum())
    report.students_removed_school_filtered = int(single.sum() - (school_of >= 0).sum())

    listed = n_claims > 0
    listed_ends = listed[raw.edge_a] & listed[raw.edge_b]
    a, b = raw.edge_a[listed_ends], raw.edge_b[listed_ends]
    report.edges_dropped_dangling = len(listed_ends) - len(a)

    # the no-same-school-friend rule, in one pass (see the docstring)
    same = (school_of[a] == school_of[b]) & (school_of[a] >= 0)
    friendless = school_of >= 0
    friendless[a[same]] = friendless[b[same]] = False
    report.students_removed_no_same_school_friend = int(friendless.sum())
    report.fixed_point_iterations = 1 + bool(friendless.any())
    report.intra_school_edges = int(same.sum())
    school_of[friendless] = -1

    # the survivors, renumbered by their position among the sorted ids
    alive = np.flatnonzero(school_of >= 0)
    ids = [raw.student_ids[i] for i in alive.tolist()]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    alive = alive[order]
    position = np.full(len(school_of), -1, dtype=np.int64)
    position[alive] = np.arange(len(alive))
    kept = (position[a] >= 0) & (position[b] >= 0)
    graph = StudentGraph._coded([ids[i] for i in order], [s.id for s in roster],
                                school_of[alive], position[a[kept]], position[b[kept]])
    return graph, roster, report
