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
              (a row needs a price_per_sqm field, or price and area fields)

The students, edges and apartments files, which grow with the city, are
read by the chunk reader: 16K characters and then the rest of the line at
a time (`_CHUNK_CHARS`, small so that a chunk's transient field lists
stay small beside the parsed arrays), each chunk split on newlines and
commas, its ids coded and its numbers converted a column at a time. A
file it cannot read exactly as the csv module would (a quote, CR or NUL
byte, bytes that are not UTF-8, a row wider or narrower than the header,
an empty required field, a number that does not parse or is out of range)
is read again from the start by the per-record path (`_records`), the
reference, which raises every error with its file and line; ids the chunk
reader coded are dropped first. Quoted and CR-terminated CSV therefore
takes the per-record path, as does the schools file, one row a school.

Each student id is coded as an int the first time the students or edges
file names it (within a row, student_id_a before student_id_b), and the
students stay coded until the school networks are built: the filters are
counts and masks over the codes, and only the surviving students' ids are
sorted, for the StudentGraph.

Filtering order is fixed so reports are reproducible: excluded-id and
oversize schools, then missing-score schools, then multi-school students,
then students stranded in removed schools, then, in one pass, students
with no same-school friend.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field
from operator import itemgetter

import numpy as np

from .errors import (
    CoordinateOutOfRange,
    DuplicateSchoolId,
    EmptyResult,
    MalformedRow,
    NonPositiveArea,
)
from .model import GeoPoint, School, StudentGraph, _unique_pairs, apartment_table

DEFAULT_MAX_COHORT = 1000
# the characters the chunk reader reads at a time, then to the end of the
# line. Small on purpose, as a chunk's field lists are transient: at 256K
# characters parse_inputs' traced peak on tests/test_ingest.py's 28,622-row
# city rose from 2.2 to 3.9 MB, and analyze's peak RSS on a 90k-student
# city from 61.8 to 63.4 MB (61.2 MB before the chunk reader).
_CHUNK_CHARS = 1 << 14


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
    are the distinct friendships as student codes, self-loops dropped. The
    constructor raises ValueError for a claim's student or school code out
    of range, an edge end outside student_ids, or unequal code arrays.
    """

    def __init__(self, student_ids, school_ids, claim_student, claim_school, edge_a, edge_b,
                 schools, apartments):
        n = len(student_ids)
        claim_student, claim_school, edge_a, edge_b = (
            np.asarray(x, dtype=np.int64) for x in (claim_student, claim_school, edge_a, edge_b))
        if claim_student.ndim != 1 or claim_student.shape != claim_school.shape:
            raise ValueError(f"claim codes of shapes {claim_student.shape}, "
                             f"{claim_school.shape}")
        if np.any((claim_student < 0) | (claim_student >= n)
                  | (claim_school < 0) | (claim_school >= len(school_ids))):
            raise ValueError(f"claims must be student codes in [0, {n}) with school "
                             f"codes in [0, {len(school_ids)})")
        if edge_a.ndim != 1 or edge_a.shape != edge_b.shape:
            raise ValueError(f"edge ends of shapes {edge_a.shape}, {edge_b.shape}")
        lo, hi = np.minimum(edge_a, edge_b), np.maximum(edge_a, edge_b)
        if np.any((lo < 0) | (hi >= n)):
            raise ValueError(f"edge ends must be student codes in [0, {n})")
        self.student_ids, self.school_ids = student_ids, school_ids
        self.schools, self.apartments = schools, apartments
        self.claim_student, self.claim_school = _unique_pairs(
            claim_student, claim_school, len(school_ids))
        loop = lo == hi  # a self-friendship carries no information
        self.edge_a, self.edge_b = _unique_pairs(lo[~loop], hi[~loop], len(student_ids))


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


class _Irregular(Exception):
    """A file the chunk reader cannot read as the csv module would; the
    per-record path reads it."""


def _chunks(path, required, optional=()):
    """Yield, a chunk of lines at a time, the fields of the required and
    then the optional columns, each a list of strings (None for an
    optional column missing from the header), blank lines skipped.

    Raises _Irregular where the file needs the csv module: a header
    without a required column, a quote, CR or NUL byte, bytes that are not
    UTF-8, a line longer than the csv field limit, or a non-blank line not
    as wide as the header. As in _records, a repeated column name reads
    its last field.
    """
    limit = csv.field_size_limit()
    with open(path, encoding="utf-8-sig", newline="") as f:
        try:
            header = f.readline()
            if '"' in header or "\r" in header or "\0" in header or len(header) > limit:
                raise _Irregular
            names = header.removesuffix("\n").split(",")
            width = len(names)
            index = {name: i for i, name in enumerate(names)}
            if not all(c in index for c in required):
                raise _Irregular
            picks = [index.get(c) for c in (*required, *optional)]
            while text := f.read(_CHUNK_CHARS):
                text += f.readline()  # to the end of its last line
                if '"' in text or "\r" in text or "\0" in text:
                    raise _Irregular
                if text[0] == "\n" or "\n\n" in text:  # blank lines
                    text = "".join(line + "\n" for line in text.split("\n") if line)
                if len(text) > limit and max(map(len, text.split("\n"))) > limit:
                    raise _Irregular
                n_lines = _lines_as_wide_as(text, width)
                fields = text.replace("\n", ",").split(",")
                del fields[n_lines * width:]  # the last newline's empty field
                yield [None if i is None else fields[i::width] for i in picks]
        except UnicodeDecodeError:
            raise _Irregular from None


def _lines_as_wide_as(text: str, width: int) -> int:
    """The number of lines of text, none blank, each holding width - 1
    commas; _Irregular if one does not."""
    data = np.frombuffer(text.encode(), np.uint8)
    commas = np.flatnonzero(data == ord(","))
    ends = np.flatnonzero(data == ord("\n"))
    if text and not text.endswith("\n"):
        ends = np.append(ends, len(data))
    if np.any(np.diff(np.searchsorted(commas, ends), prepend=0) != width - 1):
        raise _Irregular
    return len(ends)


def _code(keys: list[str], codes: dict[str, int]) -> np.ndarray:
    """The keys' codes as int64, each key not yet in codes first added
    with the next code, in first-seen order. A chunk whose keys are all
    coded, as most edge chunks are, is looked up alone, at about half the
    cost of setdefault."""
    try:
        return np.fromiter(map(codes.__getitem__, keys), np.int64, len(keys))
    except KeyError:
        return np.array([codes.setdefault(key, len(codes)) for key in keys], dtype=np.int64)


def _floats(fields: list[str]) -> np.ndarray:
    """The fields as float64, each read by Python's float as
    _float_field reads it; _Irregular where _float_field would raise."""
    try:
        values = np.fromiter(map(float, fields), float, len(fields))
    except ValueError:
        raise _Irregular from None
    if not np.isfinite(values).all():
        raise _Irregular
    return values


def _by_chunk_or_record(by_chunk, by_record, path, ids: dict[str, int]):
    """by_chunk(path, ids), or, where it raises _Irregular, by_record(path,
    ids) once the ids by_chunk coded are dropped (popitem takes the
    newest)."""
    n = len(ids)
    try:
        return by_chunk(path, ids)
    except _Irregular:
        while len(ids) > n:
            ids.popitem()
    return by_record(path, ids)


def parse_students(path, ids: dict[str, int]):
    """The (student, school) claims as int64 code arrays and the school ids
    the school codes index; student ids are interned into ids."""
    return _by_chunk_or_record(_students_by_chunk, _students_by_record, path, ids)


def _students_by_chunk(path, ids: dict[str, int]):
    students, schools = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    school_code: dict[str, int] = {}
    for student, school in _chunks(path, ("student_id", "school_id")):
        if "" in student or "" in school:
            raise _Irregular
        students.append(_code(student, ids))
        schools.append(_code(school, school_code))
    return np.concatenate(students), np.concatenate(schools), list(school_code)


def _students_by_record(path, ids: dict[str, int]):
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
    return _by_chunk_or_record(_edges_by_chunk, _edges_by_record, path, ids)


def _edges_by_chunk(path, ids: dict[str, int]):
    ends = [np.empty(0, np.int64)]
    for a, b in _chunks(path, ("student_id_a", "student_id_b")):
        row_ends = [None] * (2 * len(a))
        row_ends[0::2], row_ends[1::2] = a, b
        if "" in row_ends:
            raise _Irregular
        ends.append(_code(row_ends, ids))
    ends = np.concatenate(ends)
    return ends[0::2], ends[1::2]


def _edges_by_record(path, ids: dict[str, int]):
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


def apartment_prices(path) -> np.recarray:
    """The apartment table (model.apartment_table), price per square meter
    computed from price/area when not given directly. Rows with area <= 0
    are rejected."""
    try:
        return _apartments_by_chunk(path)
    except _Irregular:
        pass
    return _apartments_by_record(path)


def _apartments_by_chunk(path) -> np.recarray:
    """A chunk takes its price_per_sqm fields when all are filled, and
    price / area when that column is missing or all its fields are empty."""
    columns = [[np.empty(0)] for _ in range(3)]
    records = _chunks(path, ("latitude", "longitude"), ("price_per_sqm", "price", "area"))
    for lat, lon, per_sqm, price, area in records:
        lat, lon = _floats(lat), _floats(lon)
        if not (np.all(np.abs(lat) <= 90) and np.all(np.abs(lon) <= 180)):
            raise _Irregular
        if per_sqm is not None and all(per_sqm):
            price_per_sqm = _floats(per_sqm)
        elif price is None or area is None or per_sqm is not None and any(per_sqm):
            raise _Irregular
        else:
            price, area = _floats(price), _floats(area)
            if not np.all(area > 0):
                raise _Irregular
            with np.errstate(over="ignore"):  # an infinite quotient is rejected below
                price_per_sqm = price / area
        if not np.all((price_per_sqm > 0) & (price_per_sqm < math.inf)):
            raise _Irregular
        for column, values in zip(columns, (lat, lon, price_per_sqm)):
            column.append(values)
    return apartment_table(*map(np.concatenate, columns))


def _apartments_by_record(path) -> np.recarray:
    rows = []
    records = _records(path, ("latitude", "longitude"), ("price_per_sqm", "price", "area"))
    for line_no, (lat, lon, per_sqm, price, area) in records:
        location = _location(lat, lon, path, line_no)
        if per_sqm:
            price_per_sqm = _float_field(per_sqm, "price_per_sqm", path, line_no)
        elif price is None or area is None:
            raise MalformedRow(path, line_no, "no price: needs a price_per_sqm field, "
                               "or price and area fields")
        else:
            price = _float_field(price, "price", path, line_no)
            area = _float_field(area, "area", path, line_no)
            if area <= 0:
                raise NonPositiveArea(f"{path}:{line_no}: area {area}")
            price_per_sqm = price / area
        if not 0 < price_per_sqm < math.inf:
            raise MalformedRow(path, line_no, f"price per sqm {price_per_sqm} "
                               "not positive and finite")
        rows.append((location.latitude, location.longitude, price_per_sqm))
    return apartment_table(*np.array(rows, dtype=float).reshape(-1, 3).T)


def parse_inputs(students_file, edges_file, schools_file,
                 apartments_file) -> RawInputs:
    """Parse all four files without filtering, coding each student id once.
    Duplicate edges collapse; a student listed with several school ids
    keeps all claims so the filter stage can drop it as multi-school."""
    ids: dict[str, int] = {}
    claim_student, claim_school, school_ids = parse_students(students_file, ids)
    edge_a, edge_b = parse_edges(edges_file, ids)
    return RawInputs(
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
    graph = StudentGraph([ids[i] for i in order], [s.id for s in roster],
                         school_of[alive], position[a[kept]], position[b[kept]])
    return graph, roster, report
