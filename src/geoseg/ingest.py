"""CSV parsing and the data-cleaning rules.

Input schemas (all CSV, header required, UTF-8, optional BOM, dot decimals;
bytes that are not UTF-8, a NUL byte or a csv error raise MalformedRow with
the file and line):
  students:   student_id, school_id   (one row per school claim)
  edges:      student_id_a, student_id_b
  schools:    school_id, latitude, longitude, score  (empty score = missing)
  apartments: latitude, longitude, price, area  -- or a price_per_sqm column

Filtering order is fixed so reports are reproducible: excluded-id and
oversize schools, then missing-score schools, then multi-school students,
then students stranded in removed schools, then, in one pass, students
with no same-school friend.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateSchoolId,
    EmptyResult,
    MalformedRow,
    NonPositiveArea,
)
from .model import Apartment, GeoPoint, School, StudentGraph

DEFAULT_MAX_COHORT = 1000


@dataclass(frozen=True)
class RawSchool:
    id: str
    location: GeoPoint
    score: float | None  # None = missing, removed by the filter stage


@dataclass
class RawInputs:
    claims: dict[str, set[str]]  # student -> claimed school ids
    edges: set[tuple[str, str]]  # sorted id pairs, duplicates collapsed
    schools: list[RawSchool]
    apartments: list[Apartment]


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
        d = {k: v for k, v in self.__dict__.items() if k != "settings"}
        d["settings"] = dict(self.settings)
        return d


def _float_field(row, key, path, line_no):
    try:
        value = float(row[key])
    except (KeyError, TypeError, ValueError):
        raise MalformedRow(path, line_no, f"bad {key}: {row.get(key)!r}")
    if not math.isfinite(value):
        raise MalformedRow(path, line_no, f"non-finite {key}")
    return value


def _check_bytes(path) -> None:
    """Reject a byte that is not UTF-8, and a NUL byte, which the csv
    module of Python >= 3.11 would read as part of a field."""
    with open(path, "rb") as f:
        data = f.read()
    nul = data.find(b"\x00")
    if nul >= 0:
        raise MalformedRow(path, data.count(b"\n", 0, nul) + 1, "NUL byte")
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(path, data.count(b"\n", 0, exc.start) + 1,
                           f"not UTF-8: {exc.reason}") from None


def _reader(path, required_columns):
    _check_bytes(path)
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.DictReader(f)
        try:
            header = reader.fieldnames or []
            missing = [c for c in required_columns if c not in header]
            if missing:
                raise MalformedRow(path, 1, f"missing columns {missing}")
            # line 1 is the header
            for line_no, row in enumerate(reader, start=2):
                yield line_no, row
        except csv.Error as exc:
            # the csv reader's own count includes the line it failed on
            raise MalformedRow(path, reader.reader.line_num, str(exc)) from None


def parse_students(path) -> dict[str, set[str]]:
    claims: dict[str, set[str]] = {}
    for line_no, row in _reader(path, ["student_id", "school_id"]):
        student, school = row["student_id"], row["school_id"]
        if not student or not school:
            raise MalformedRow(path, line_no, "empty student_id or school_id")
        claims.setdefault(student, set()).add(school)
    return claims


def parse_edges(path) -> set[tuple[str, str]]:
    edges: set[tuple[str, str]] = set()
    for line_no, row in _reader(path, ["student_id_a", "student_id_b"]):
        a, b = row["student_id_a"], row["student_id_b"]
        if not a or not b:
            raise MalformedRow(path, line_no, "empty student id")
        if a == b:
            continue  # self-friendship carries no information
        edges.add((a, b) if a < b else (b, a))
    return edges


def parse_schools(path) -> list[RawSchool]:
    schools: list[RawSchool] = []
    seen: set[str] = set()
    for line_no, row in _reader(path, ["school_id", "latitude", "longitude", "score"]):
        school_id = row["school_id"]
        if not school_id:
            raise MalformedRow(path, line_no, "empty school_id")
        if school_id in seen:
            raise DuplicateSchoolId(f"{path}:{line_no}: duplicate id {school_id!r}")
        seen.add(school_id)
        location = GeoPoint(
            _float_field(row, "latitude", path, line_no),
            _float_field(row, "longitude", path, line_no),
        )
        raw_score = (row.get("score") or "").strip()
        if raw_score:
            score = _float_field({"score": raw_score}, "score", path, line_no)
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
    for line_no, row in _reader(path, ["latitude", "longitude"]):
        location = GeoPoint(
            _float_field(row, "latitude", path, line_no),
            _float_field(row, "longitude", path, line_no),
        )
        if row.get("price_per_sqm"):
            price_per_sqm = _float_field(row, "price_per_sqm", path, line_no)
        else:
            price = _float_field(row, "price", path, line_no)
            area = _float_field(row, "area", path, line_no)
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
    """Parse all four files without filtering. Duplicate edges collapse;
    a student listed with several school ids keeps all claims so the
    filter stage can drop it as multi-school."""
    return RawInputs(
        claims=parse_students(students_file),
        edges=parse_edges(edges_file),
        schools=parse_schools(schools_file),
        apartments=apartment_prices(apartments_file),
    )


def apply_filters(raw: RawInputs, config: FilterConfig | None = None):
    """Run the cleaning rules; returns (StudentGraph, roster, FilterReport).

    The no-same-school-friend rule runs once: a removed student had no
    same-school friend, so removing it lowers no one's count. The report's
    fixed_point_iterations is 2 when that pass removed someone and 1
    otherwise, the passes a loop to a fixed point would make.
    """
    config = config or FilterConfig()
    report = FilterReport(settings={
        "max_cohort": config.max_cohort,
        "excluded_school_ids": sorted(config.excluded_school_ids),
    })

    cohort: dict[str, int] = {}
    for schools in raw.claims.values():
        for school in schools:
            cohort[school] = cohort.get(school, 0) + 1

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

    # integer codes: each student by its position in the sorted claims,
    # with its roster index as its school, or -1 once removed; each edge as
    # a pair of student positions, -1 for an endpoint missing from the claims
    roster_index = {s.id: i for i, s in enumerate(roster)}
    students = sorted(raw.claims)
    single = [next(iter(c)) if len(c) == 1 else None for c in map(raw.claims.get, students)]
    school_of = np.array([roster_index.get(s, -1) for s in single], dtype=np.int64)
    report.students_removed_multi_school = single.count(None)
    report.students_removed_school_filtered = int((school_of < 0).sum()) - single.count(None)

    position = {student: i for i, student in enumerate(students)}
    ends = np.fromiter((position.get(s, -1) for pair in raw.edges for s in pair),
                       dtype=np.int64, count=2 * len(raw.edges)).reshape(-1, 2)
    a, b = ends[(ends >= 0).all(axis=1)].T
    report.edges_dropped_dangling = len(ends) - len(a)

    # the no-same-school-friend rule, in one pass (see the docstring)
    same = (school_of[a] == school_of[b]) & (school_of[a] >= 0)
    friendless = school_of >= 0
    friendless[a[same]] = friendless[b[same]] = False
    report.students_removed_no_same_school_friend = int(friendless.sum())
    report.fixed_point_iterations = 1 + bool(friendless.any())
    report.intra_school_edges = int(same.sum())
    school_of[friendless] = -1

    alive = school_of >= 0
    kept = alive[a] & alive[b]
    slot = np.cumsum(alive) - 1  # position among the kept students
    assignment = {students[i]: roster[c].id
                  for i, c in enumerate(school_of.tolist()) if c >= 0}
    graph = StudentGraph._coded(assignment, slot[a[kept]], slot[b[kept]])
    return graph, roster, report
