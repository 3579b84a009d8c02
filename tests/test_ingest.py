import csv
import io
import shutil
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoseg import ingest
from geoseg.errors import (
    CoordinateOutOfRange,
    DuplicateSchoolId,
    EmptyResult,
    MalformedRow,
    NonPositiveArea,
)
from geoseg.ingest import (
    FilterConfig,
    FilterReport,
    RawInputs,
    RawSchool,
    apartment_prices,
    apply_filters,
    parse_edges,
    parse_inputs,
    parse_students,
)
from geoseg.model import GeoPoint, School, apartment_table
from geoseg.synth import SynthConfig, emit_city, generate_apartments, generate_city

from dense import claims_of, edges_of, raw_from_ids, same_graph, same_raw, student_graph


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def files(tmp_path):
    def make(students, edges, schools, apartments):
        return (
            write(tmp_path / "students.csv", students),
            write(tmp_path / "edges.csv", edges),
            write(tmp_path / "schools.csv", schools),
            write(tmp_path / "apartments.csv", apartments),
        )

    return make


SCHOOLS_2 = (
    "school_id,latitude,longitude,score\n"
    "1,59.93,30.31,60.5\n"
    "2,59.94,30.33,72.0\n"
)
APARTMENTS_1 = "latitude,longitude,price,area\n59.93,30.30,10000000,50\n"


class TestParse:
    def test_empty_edges(self, files):
        paths = files(
            "student_id,school_id\na,1\nb,2\n",
            "student_id_a,student_id_b\n",
            SCHOOLS_2,
            APARTMENTS_1,
        )
        raw = parse_inputs(*paths)
        assert edges_of(raw) == set()
        assert claims_of(raw) == {"a": {"1"}, "b": {"2"}}

    def test_latitude_out_of_range(self, files):
        paths = files(
            "student_id,school_id\na,1\n",
            "student_id_a,student_id_b\n",
            "school_id,latitude,longitude,score\n1,95,30,60\n",
            APARTMENTS_1,
        )
        with pytest.raises(CoordinateOutOfRange):
            parse_inputs(*paths)

    @pytest.mark.parametrize("which", ["schools", "apartments"])
    @pytest.mark.parametrize("column, lat, lon", [
        ("latitude", "95.0", "30.30"),
        ("longitude", "59.93", "-181.5"),
    ])
    def test_coordinate_out_of_range_names_file_and_line(self, files, which,
                                                         column, lat, lon):
        schools, apartments = SCHOOLS_2, APARTMENTS_1
        if which == "schools":
            schools += f"3,{lat},{lon},50.0\n"
            line = 4
        else:
            apartments += f"{lat},{lon},10000000,50\n"
            line = 3
        paths = files("student_id,school_id\na,1\n", "student_id_a,student_id_b\n",
                      schools, apartments)
        with pytest.raises(CoordinateOutOfRange) as exc:
            parse_inputs(*paths)
        path = paths[2] if which == "schools" else paths[3]
        assert str(exc.value).startswith(f"{path}:{line}: {column} ")

    def test_duplicate_school_id(self, files):
        paths = files(
            "student_id,school_id\na,1\n",
            "student_id_a,student_id_b\n",
            "school_id,latitude,longitude,score\n1,59,30,60\n1,59,30,61\n",
            APARTMENTS_1,
        )
        with pytest.raises(DuplicateSchoolId):
            parse_inputs(*paths)

    def test_malformed_row_reports_line(self, files):
        paths = files(
            "student_id,school_id\na,1\n",
            "student_id_a,student_id_b\n",
            "school_id,latitude,longitude,score\n1,not_a_number,30,60\n",
            APARTMENTS_1,
        )
        with pytest.raises(MalformedRow) as exc:
            parse_inputs(*paths)
        assert exc.value.line_no == 2

    def test_duplicate_edges_collapse(self, files):
        paths = files(
            "student_id,school_id\na,1\nb,1\n",
            "student_id_a,student_id_b\na,b\nb,a\na,b\n",
            SCHOOLS_2,
            APARTMENTS_1,
        )
        raw = parse_inputs(*paths)
        assert edges_of(raw) == {("a", "b")}

    def test_fixture_roundtrip(self, files, tmp_path):
        # write-then-read identity for the 4-student network fixture
        edge_set = {("a", "b"), ("a", "c"), ("b", "c")}
        paths = files(
            "student_id,school_id\na,1\nb,1\nc,2\nd,2\n",
            "student_id_a,student_id_b\n"
            + "".join(f"{a},{b}\n" for a, b in sorted(edge_set)),
            SCHOOLS_2,
            APARTMENTS_1,
        )
        raw = parse_inputs(*paths)
        assert edges_of(raw) == edge_set

    @pytest.mark.parametrize("with_bom", range(4))
    def test_utf8_bom_accepted(self, files, with_bom):
        # spreadsheet exports often start with a byte-order mark
        texts = [
            "student_id,school_id\na,1\nb,1\n",
            "student_id_a,student_id_b\na,b\n",
            SCHOOLS_2,
            APARTMENTS_1,
        ]
        plain = parse_inputs(*files(*texts))
        texts[with_bom] = "\ufeff" + texts[with_bom]
        assert same_raw(parse_inputs(*files(*texts)), plain)


    @pytest.mark.parametrize("which, raw, line_no", [
        (2, b"school_id,latitude,longitude,score\n1,59.93,30.31,60\n"
            b"2,59.94,30.33,72\nSch\xf6ne,59.9,30.3,61\n", 4),
        (1, b"student_id_a,student_id_b\na,b\na\x00,b\n", 3),
        (1, b"student_id_a,student_id_b\ra,b\r\n\ra\x00,b\r", 4),
        (0, b"student_id,school_id\na,1\nb,1\n" + b"x" * 200_000 + b",1\n", 4),
    ], ids=["latin1", "nul", "nul-cr-lines", "oversized"])
    def test_undecodable_nul_or_oversized_row(self, files, which, raw, line_no):
        # a Latin-1 byte, a NUL byte and a field over the csv module's limit
        texts = ["student_id,school_id\na,1\nb,1\n",
                 "student_id_a,student_id_b\na,b\n", SCHOOLS_2, APARTMENTS_1]
        paths = files(*texts)
        Path(paths[which]).write_bytes(raw)
        with pytest.raises(MalformedRow) as exc:
            parse_inputs(*paths)
        assert exc.value.path == paths[which]
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize("text, line_no", [
        ("student_id,school_id\na,1\n\n\nb,\n", 5),
        ('student_id,school_id\na,"1\n"\nb,\n', 4),
    ], ids=["blank-lines", "quoted-newline"])
    def test_line_numbers_are_physical_lines(self, files, text, line_no):
        # blank lines, and a newline inside a quoted field, are lines too
        paths = files(text, "student_id_a,student_id_b\n", SCHOOLS_2, APARTMENTS_1)
        with pytest.raises(MalformedRow) as exc:
            parse_inputs(*paths)
        assert exc.value.path == paths[0]
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize("which, row", [
        (0, "c"), (1, "c"), (2, "3,59.95"), (3, "59.9"),
    ], ids=["students", "edges", "schools", "apartments"])
    def test_short_row_reports_line(self, files, which, row):
        # a row with fewer fields than the header, after a skipped blank line
        texts = ["student_id,school_id\na,1\nb,1\n",
                 "student_id_a,student_id_b\na,b\n", SCHOOLS_2, APARTMENTS_1]
        texts[which] += "\n" + row + "\n"
        paths = files(*texts)
        with pytest.raises(MalformedRow) as exc:
            parse_inputs(*paths)
        assert exc.value.path == paths[which]
        assert exc.value.line_no == texts[which].count("\n")

    @pytest.mark.parametrize("student, school", [
        ([3], [0]), ([-1], [0]), ([0], [1]), ([0], [-1]), ([0, 0], [0]),
    ], ids=["student-n", "student--1", "school-beyond-ids", "school--1", "unequal"])
    def test_raw_inputs_checks_claim_codes(self, student, school):
        # one student, one school id: before the check, student code 3
        # came out of the pair coding as a claim by a student that is not
        # there
        with pytest.raises(ValueError):
            RawInputs(["a"], ["1"], student, school, [], [], [], apartment_table([], [], []))

    @pytest.mark.parametrize("a, b", [
        ([0], [2]), ([2], [0]), ([-1], [0]), ([0, 1], [1]),
    ], ids=["end-n", "end-n-first", "end--1", "unequal"])
    def test_raw_inputs_checks_edge_codes(self, a, b):
        with pytest.raises(ValueError):
            RawInputs(["a", "b"], ["1"], [0, 1], [0, 0], a, b, [],
                      apartment_table([], [], []))
        # a self-loop is dropped, not rejected
        raw = RawInputs(["a", "b"], ["1"], [0, 1], [0, 0], [1, 0], [1, 1], [],
                        apartment_table([], [], []))
        assert raw.edge_a.tolist() == [0] and raw.edge_b.tolist() == [1]


@pytest.fixture(scope="module")
def synth_city(tmp_path_factory):
    """The four input files of a 60-school synth city with 150 students a
    school and 10,000 apartments: 28,622 rows, each file several chunks."""
    cfg = SynthConfig(n_schools=60, seed=3)
    roster, net, truth = generate_city(cfg)
    out = tmp_path_factory.mktemp("city")
    emit_city(out, roster, net, truth, generate_apartments(cfg, roster, 10_000, 1.0, seed=3),
              seed=3, students_per_school=150)
    return [str(out / name) for name in
            ("students.csv", "edges.csv", "schools.csv", "apartments.csv")]


class TestChunkReader:
    def test_synth_city_is_read_by_chunk(self, synth_city, monkeypatch):
        # only the schools file takes the per-record path; a silent
        # fallback would cost the chunk reader's gain
        read = []
        records = ingest._records
        monkeypatch.setattr(ingest, "_records",
                            lambda path, *columns: read.append(path) or records(path, *columns))
        raw = parse_inputs(*synth_city)
        assert read == [synth_city[2]]
        assert len(raw.student_ids) == 9000 and len(raw.apartments) == 10_000

    def test_edges_fallback_leaves_ids_as_found(self, tmp_path, monkeypatch):
        # a quoted row two chunks in sends the edges file to the per-record
        # path after the chunks before it were coded
        rows = [f"e{i},e{i + 1}\n" for i in range(3000)] + ['"e0",a\n']
        path = write(tmp_path / "edges.csv", "student_id_a,student_id_b\n" + "".join(rows))
        code, coded = ingest._code, []
        monkeypatch.setattr(ingest, "_code",
                            lambda keys, ids: coded.append(len(keys)) or code(keys, ids))
        by_record, ids_at_fallback = ingest._edges_by_record, []
        monkeypatch.setattr(ingest, "_edges_by_record",
                            lambda path, ids: ids_at_fallback.append(list(ids.items()))
                            or by_record(path, ids))
        ids = {"a": 0, "b": 1}
        got = parse_edges(path, ids)
        assert len(coded) >= 2
        assert ids_at_fallback == [[("a", 0), ("b", 1)]]
        want_ids = {"a": 0, "b": 1}
        want = by_record(path, want_ids)
        assert list(ids.items()) == list(want_ids.items())
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_traced_parse_memory_per_row(self, synth_city):
        # at the parent of the chunk reader, parse_inputs peaked at 114.5
        # traced bytes a row on this city (3.13 MB over 28,622 rows)
        rows = sum(sum(1 for _ in open(path)) - 1 for path in synth_city)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            parse_inputs(*synth_city)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert rows == 28_622
        assert peak / rows < 1.25 * 114.5, f"{peak / rows:.1f} B a row"


    @pytest.mark.parametrize("which, rows", [
        (0, "c,1,x\nd\n"), (1, "c,a,x\nd\n"), (3, "59.9,30.3,1e5,x\n59.9,30.3\n"),
    ], ids=["students", "edges", "apartments"])
    def test_long_row_then_short_row(self, files, which, rows):
        # a field past the header is ignored, and the next row is short:
        # the two together hold as many fields as two full rows
        texts = ["student_id,school_id\na,1\nb,1\n",
                 "student_id_a,student_id_b\na,b\n", SCHOOLS_2,
                 "latitude,longitude,price_per_sqm\n59.9,30.3,1e5\n"]
        texts[which] += rows
        paths = files(*texts)
        with pytest.raises(MalformedRow) as exc:
            parse_inputs(*paths)
        assert exc.value.path == paths[which]
        assert exc.value.line_no == texts[which].count("\n")


class TestApartments:
    def test_price_per_sqm_division(self, tmp_path):
        path = write(tmp_path / "apts.csv", APARTMENTS_1)
        apartments = apartment_prices(path)
        assert apartments[0].price_per_sqm == 200_000.0

    def test_zero_area(self, tmp_path):
        path = write(
            tmp_path / "apts.csv",
            "latitude,longitude,price,area\n59.9,30.3,1000000,0\n",
        )
        with pytest.raises(NonPositiveArea):
            apartment_prices(path)

    def test_overflowing_price_rejected(self, tmp_path):
        path = write(
            tmp_path / "apts.csv",
            "latitude,longitude,price,area\n59.9,30.3,1e300,1e-10\n",
        )
        with pytest.raises(MalformedRow) as exc:
            apartment_prices(path)
        assert exc.value.line_no == 2

    def test_direct_price_per_sqm_column(self, tmp_path):
        path = write(
            tmp_path / "apts.csv",
            "latitude,longitude,price_per_sqm\n59.9,30.3,150000\n",
        )
        assert apartment_prices(path)[0].price_per_sqm == 150_000.0

    @pytest.mark.parametrize("text", [
        "latitude,longitude,price,area\n59.9,30.3,1000000,10,999\n",
        "latitude,longitude,price,area,price_per_sqm\n59.9,30.3,1000000,10\n",
    ], ids=["field-past-header", "short-row-without-optional-field"])
    def test_price_from_area_when_no_price_per_sqm_field(self, tmp_path, text):
        # a field past the header is no price_per_sqm column, and a row
        # that stops before its price_per_sqm field has none
        path = write(tmp_path / "apts.csv", text)
        assert apartment_prices(path)[0].price_per_sqm == 100_000.0

    @pytest.mark.parametrize("text", [
        "latitude,longitude\n59.9,30.3\n",
        "latitude,longitude,price_per_sqm\n59.9,30.3,150000\n59.9,30.3,\n",
    ], ids=["no-price-columns", "empty-price-per-sqm"])
    def test_row_without_price_names_the_columns(self, tmp_path, text):
        path = write(tmp_path / "apts.csv", text)
        with pytest.raises(MalformedRow) as exc:
            apartment_prices(path)
        assert exc.value.line_no == text.count("\n")
        assert "price_per_sqm" in exc.value.reason
        assert "price and area" in exc.value.reason

    def test_table_holds_little_memory(self, tmp_path):
        # 30,000 rows are one 24-byte record each; a frozen Apartment and
        # GeoPoint per row held about 7 MB
        rng = np.random.default_rng(5)
        columns = (rng.uniform(59.8, 60.0, 30_000), rng.uniform(30.2, 30.4, 30_000),
                   rng.uniform(5e4, 2e5, 30_000))
        rows = zip(*(c.tolist() for c in columns))
        path = write(tmp_path / "apts.csv", "latitude,longitude,price_per_sqm\n"
                     + "".join(f"{lat!r},{lon!r},{price!r}\n" for lat, lon, price in rows))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = apartment_prices(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert np.array_equal(table, apartment_table(*columns))
        assert held < 2 * 2**20, f"held {held / 2**20:.2f} MB"

    def test_three_row_fixture_sorted(self, tmp_path):
        # oracle: prices computed by hand, 8000000/40=200000 etc.
        path = write(
            tmp_path / "apts.csv",
            "latitude,longitude,price,area\n"
            "59.9,30.3,8000000,40\n"
            "59.9,30.3,9000000,100\n"
            "59.9,30.3,6000000,50\n",
        )
        prices = sorted(a.price_per_sqm for a in apartment_prices(path))
        assert prices == [90_000.0, 120_000.0, 200_000.0]


def parsed(files, students, edges, schools=SCHOOLS_2, apartments=APARTMENTS_1):
    return parse_inputs(*files(students, edges, schools, apartments))


class TestFilters:
    def test_only_cross_school_friends_removed(self, files):
        # x's only friends are in the other school
        raw = parsed(
            files,
            "student_id,school_id\na,1\nb,1\nx,2\ny,2\nz,2\n",
            "student_id_a,student_id_b\na,b\ny,z\nx,a\n",
        )
        graph, roster, report = apply_filters(raw)
        assert "x" not in graph.assignment
        assert report.students_removed_no_same_school_friend == 1
        assert ("a", "x") not in graph.edges and ("x", "a") not in graph.edges

    def test_mutual_pair_retained(self, files):
        raw = parsed(
            files,
            "student_id,school_id\na,1\nb,1\n",
            "student_id_a,student_id_b\na,b\n",
        )
        graph, _, report = apply_filters(raw)
        assert set(graph.assignment) == {"a", "b"}
        assert report.students_removed_no_same_school_friend == 0

    def test_multi_school_cascade(self, files):
        # b claims both schools -> removed as multi-school; a then has no
        # same-school friend and falls at the fixed point
        raw = parsed(
            files,
            "student_id,school_id\na,1\nb,1\nb,2\nc,2\nd,2\n",
            "student_id_a,student_id_b\na,b\nc,d\n",
        )
        graph, _, report = apply_filters(raw)
        assert report.students_removed_multi_school == 1
        assert report.students_removed_no_same_school_friend == 1
        assert set(graph.assignment) == {"c", "d"}

    def test_oversize_school_removed(self, files):
        students = "student_id,school_id\n" + "".join(
            f"u{i},1\n" for i in range(5)
        ) + "a,2\nb,2\n"
        raw = parsed(files, students, "student_id_a,student_id_b\na,b\n")
        _, roster, report = apply_filters(raw, FilterConfig(max_cohort=3))
        assert report.schools_removed_oversize == 1
        assert [s.id for s in roster] == ["2"]
        assert report.students_removed_school_filtered == 5

    def test_excluded_ids(self, files):
        raw = parsed(
            files,
            "student_id,school_id\na,1\nb,1\nc,2\nd,2\n",
            "student_id_a,student_id_b\na,b\nc,d\n",
        )
        _, roster, report = apply_filters(
            raw, FilterConfig(excluded_school_ids=("1",))
        )
        assert report.schools_removed_excluded_ids == 1
        assert [s.id for s in roster] == ["2"]

    def test_missing_score_school_removed(self, files):
        schools = (
            "school_id,latitude,longitude,score\n"
            "1,59.93,30.31,60.5\n"
            "2,59.94,30.33,\n"
        )
        raw = parsed(
            files,
            "student_id,school_id\na,1\nb,1\nc,2\nd,2\n",
            "student_id_a,student_id_b\na,b\nc,d\n",
            schools=schools,
        )
        _, roster, report = apply_filters(raw)
        assert report.schools_removed_missing_score == 1
        assert [s.id for s in roster] == ["1"]

    def test_empty_result(self, files):
        raw = parsed(
            files,
            "student_id,school_id\na,1\nb,1\n",
            "student_id_a,student_id_b\na,b\n",
            schools="school_id,latitude,longitude,score\n1,59.93,30.31,\n",
        )
        with pytest.raises(EmptyResult):
            apply_filters(raw)

    def test_dangling_edges_counted(self, files):
        raw = parsed(
            files,
            "student_id,school_id\na,1\nb,1\n",
            "student_id_a,student_id_b\na,b\na,ghost\n",
        )
        graph, _, report = apply_filters(raw)
        assert report.edges_dropped_dangling == 1
        assert graph.edges == frozenset({("a", "b")})

    def test_report_counts_consistent(self, files):
        raw = parsed(
            files,
            "student_id,school_id\na,1\nb,1\nb,2\nc,2\nd,2\ne,2\n",
            "student_id_a,student_id_b\na,b\nc,d\nc,e\n",
        )
        graph, roster, report = apply_filters(raw)
        removed_students = (
            report.students_removed_no_same_school_friend
            + report.students_removed_multi_school
            + report.students_removed_school_filtered
        )
        assert removed_students == len(claims_of(raw)) - len(graph.assignment)
        removed_schools = (
            report.schools_removed_oversize
            + report.schools_removed_missing_score
            + report.schools_removed_excluded_ids
        )
        assert removed_schools == len(raw.schools) - len(roster)

    def test_idempotent(self, files):
        raw = parsed(
            files,
            "student_id,school_id\na,1\nb,1\nb,2\nc,2\nd,2\nx,1\n",
            "student_id_a,student_id_b\na,b\nc,d\nx,c\n",
        )
        graph1, roster1, _ = apply_filters(raw)
        again = raw_from_ids(
            claims={s: {g} for s, g in graph1.assignment.items()},
            edges=set(graph1.edges),
            schools=[s for s in raw.schools if s.id in {r.id for r in roster1}],
            apartments=raw.apartments,
        )
        graph2, roster2, report2 = apply_filters(again)
        assert same_graph(graph2, graph1)
        assert [s.id for s in roster2] == [s.id for s in roster1]
        assert report2.students_removed_no_same_school_friend == 0

    def test_output_graph_property(self, files):
        raw = parsed(
            files,
            "student_id,school_id\na,1\nb,1\nc,2\nd,2\ne,2\nf,1\n",
            "student_id_a,student_id_b\na,b\nc,d\ne,c\nf,c\n",
        )
        graph, roster, _ = apply_filters(raw)
        roster_ids = {s.id for s in roster}
        for student, school in graph.assignment.items():
            assert school in roster_ids
            same = sum(
                1
                for a, b in graph.edges
                if student in (a, b)
                and graph.assignment[a] == graph.assignment[b]
            )
            assert same >= 1


@st.composite
def raw_inputs(draw):
    """Small raw inputs with multi-school, stranded and dangling students;
    school "0" always has a score so some school survives."""
    n_schools = draw(st.integers(1, 4))
    schools = [
        RawSchool(str(i), GeoPoint(0.0, 0.01 * i),
                  50.0 if i == 0 else draw(st.sampled_from([None, 60.0])))
        for i in range(n_schools)
    ]
    school_ids = st.sampled_from([str(i) for i in range(n_schools + 1)])
    n_students = draw(st.integers(0, 14))
    # names from a shuffled pool, so claim order is not sorted-id order
    names = draw(st.permutations([f"u{i}" for i in range(n_students + 2)]))
    claims = {
        names[i]: draw(st.sets(school_ids, min_size=1, max_size=2))
        for i in range(n_students)
    }
    ends = st.integers(0, n_students + 1)  # the last two ids dangle
    edges = {
        (names[min(a, b)], names[max(a, b)])
        for a, b in draw(st.sets(st.tuples(ends, ends), max_size=40))
        if a != b
    }
    return raw_from_ids(claims=claims, edges=edges, schools=schools,
                        apartments=apartment_table([], [], []))


@given(raw_inputs())
@settings(max_examples=300, deadline=None)
def test_friend_rule_stops_by_second_pass(raw):
    # a removed student had no same-school friend, so removing it can
    # strand no one: the second pass never removes anybody
    _, _, report = apply_filters(raw)
    assert report.fixed_point_iterations <= 2
    assert report.fixed_point_iterations == 1 + bool(
        report.students_removed_no_same_school_friend
    )


def reference_apply_filters(raw: RawInputs, config: FilterConfig | None = None):
    """The string-keyed filter loop that apply_filters replaced, kept as its
    oracle. Returns (StudentGraph, roster, FilterReport).

    The no-same-school-friend rule repeats until a pass removes no one. A
    removed student had no same-school friend, so removing it lowers no
    one's count and the second pass always stops. The report records the
    pass count.
    """
    config = config or FilterConfig()
    report = FilterReport(settings={
        "max_cohort": config.max_cohort,
        "excluded_school_ids": sorted(config.excluded_school_ids),
    })

    claims = claims_of(raw)
    cohort: dict[str, int] = {}
    for schools in claims.values():
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
    roster_ids = {s.id for s in roster}

    assignment: dict[str, str] = {}
    for student, schools in claims.items():
        if len(schools) > 1:
            report.students_removed_multi_school += 1
        elif next(iter(schools)) not in roster_ids:
            report.students_removed_school_filtered += 1
        else:
            assignment[student] = next(iter(schools))

    listed = set(claims)
    edges = set()
    for a, b in edges_of(raw):
        if a not in listed or b not in listed:
            report.edges_dropped_dangling += 1
        else:
            edges.add((a, b))

    # fixed point: drop students with no friend in their own school
    while True:
        report.fixed_point_iterations += 1
        same_school_friends = {s: 0 for s in assignment}
        for a, b in edges:
            if a in assignment and b in assignment and assignment[a] == assignment[b]:
                same_school_friends[a] += 1
                same_school_friends[b] += 1
        friendless = {s for s, n in same_school_friends.items() if n == 0}
        if not friendless:
            break
        report.students_removed_no_same_school_friend += len(friendless)
        for s in friendless:
            del assignment[s]

    edges = {(a, b) for a, b in edges if a in assignment and b in assignment}
    report.intra_school_edges = sum(
        1 for a, b in edges if assignment[a] == assignment[b]
    )
    graph = student_graph(assignment, edges)
    return graph, roster, report


@given(raw_inputs(), st.sampled_from([(), ("1",), ("0", "2")]),
       st.sampled_from([1000, 1, 2, 3]))
@settings(max_examples=400, deadline=None)
def test_apply_filters_matches_reference(raw, excluded, max_cohort):
    config = FilterConfig(max_cohort=max_cohort, excluded_school_ids=excluded)
    try:
        expected = reference_apply_filters(raw, config)
    except EmptyResult:
        with pytest.raises(EmptyResult):
            apply_filters(raw, config)
        return
    graph, roster, report = apply_filters(raw, config)
    assert same_graph(graph, expected[0])
    assert graph.students == expected[0].students
    assert roster == expected[1]
    assert report.to_dict() == expected[2].to_dict()


def test_kept_counts_on_dirty_city(synth_city, tmp_path):
    # bench/run.py reports len(graph.assignment) and len(graph.edges) as
    # ingest.students_kept and ingest.edges_kept: they must count the coded
    # survivors, and agree with the id-keyed filter loop
    paths = [shutil.copy(path, tmp_path) for path in synth_city]
    a, b = "s0000_u000", "s0001_u000"
    dirt = [
        # a multi-school student and the tail it strands, and a score-less
        # school with a cohort of two
        "xm,s0000\nxm,s0001\nxt,s0000\nz0,xz\nz1,xz\n",
        # a dangling edge both ways, a self-loop, a reversed duplicate and
        # the dropped students' edges
        f"{a},ghost\nghost,{a}\n{a},{a}\ns0000_u001,{a}\n"
        f"xm,{a}\nxm,{b}\nxm,xt\nz0,z1\nz0,{a}\n",
        "xz,0.0,0.0,\n",
    ]
    for path, rows in zip(paths, dirt):
        with open(path, "a") as f:
            f.write(rows)
    raw = parse_inputs(*paths)
    graph, _, report = apply_filters(raw)
    expected = reference_apply_filters(raw)[0]
    assert len(raw.student_ids) == 9005 and report.edges_dropped_dangling == 1
    assert len(graph.assignment) == len(graph.students) == len(expected.students) == 9000
    assert len(graph.edges) == len(graph.a) == len(expected.a)


@st.composite
def csv_files(draw):
    """Students, edges, schools and apartments files as CSV text, and the
    claims, edges and schools they hold: repeated and multi-school claims, a
    claimed school missing from the schools file, duplicate, reversed,
    self-loop and dangling edges, apartment prices per sqm given, computed
    from price and area, or each per row, blank lines and byte-order marks;
    "\n" or "\r\n" line ends, fields quoted only where needed or all, and
    files longer than one chunk of the chunk reader."""
    n_students = draw(st.integers(0, 12))
    # shuffled, so the order ids are first met in is not their sorted order;
    # the last two are in no claim and dangle
    ids = draw(st.permutations([f"s{i}" for i in range(n_students + 2)]))
    # every listed student claims school 0 or 1; some claim again
    claim_rows = [(s, draw(st.sampled_from("01"))) for s in ids[:n_students]]
    if n_students:
        claim_rows += draw(st.lists(st.tuples(st.sampled_from(ids[:n_students]),
                                              st.sampled_from("0123")), max_size=6))
    claim_rows = draw(st.permutations(claim_rows))
    edge_rows = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                              min_size=n_students, max_size=40))
    if draw(st.booleans()):
        # a chain of students at school 3, which the schools file lacks,
        # spread over several chunks around the drawn rows
        chain = [f"c{i}" for i in range(2500)]
        at = draw(st.integers(0, len(claim_rows)))
        claim_rows[at:at] = [(c, "3") for c in chain]
        at = draw(st.integers(0, len(edge_rows)))
        edge_rows[at:at] = list(zip(chain, chain[1:]))
    schools = [RawSchool(str(i), GeoPoint(0.0, 0.01 * i),
                         50.0 if i == 0 else draw(st.sampled_from([None, 60.0])))
               for i in range(3)]
    school_rows = [(s.id, "0.0", repr(s.location.longitude),
                    "" if s.score is None else repr(s.score)) for s in schools]
    apartment_header, apartment_rows = draw(apartment_files())
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    line_end = draw(st.sampled_from(["\n", "\r\n"]))

    def text(header, rows):
        blank_lines_after = Counter(draw(st.lists(st.integers(0, len(rows)), max_size=10)))
        out = io.StringIO()
        out.write("\ufeff" * draw(st.booleans()))
        writer = csv.writer(out, quoting=quoting, lineterminator=line_end)
        writer.writerow(header.split(","))
        out.write(line_end * blank_lines_after[0])
        for i, row in enumerate(rows, 1):
            writer.writerow(row)
            out.write(line_end * blank_lines_after[i])
        return out.getvalue()

    texts = (text("student_id,school_id", claim_rows),
             text("student_id_a,student_id_b", edge_rows),
             text("school_id,latitude,longitude,score", school_rows),
             text(apartment_header, apartment_rows))
    claims: dict[str, set[str]] = {}
    for student, school in claim_rows:
        claims.setdefault(student, set()).add(school)
    edges = {(min(a, b), max(a, b)) for a, b in edge_rows if a != b}
    return texts, raw_from_ids(claims, edges, schools, apartment_table([], [], []))


@st.composite
def apartment_files(draw):
    """An apartments header and rows: prices per sqm in their own column,
    from price and area, or, with both, each row filled one way."""
    header = draw(st.sampled_from(["latitude,longitude,price_per_sqm",
                                   "latitude,longitude,price,area",
                                   "price,latitude,area,longitude,price_per_sqm"]))
    names = header.split(",")
    n = draw(st.sampled_from([1, 5, 400]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = {"latitude": rng.uniform(-90, 90, n), "longitude": rng.uniform(-180, 180, n),
              "price_per_sqm": rng.uniform(5e4, 2e5, n), "price": rng.uniform(1e6, 1e7, n),
              "area": rng.uniform(20, 200, n)}
    given = np.ones(n, bool)
    if "price" in names and "price_per_sqm" in names:
        given = draw(st.sampled_from([given, ~given, rng.random(n) < 0.5]))
    rows = [[("" if name == "price_per_sqm" and not given[i] else repr(float(values[name][i])))
             for name in names] for i in range(n)]
    return header, rows


@given(csv_files(), st.sampled_from([(), ("1",), ("0", "2")]),
       st.sampled_from([1000, 1, 2]))
@settings(max_examples=300, deadline=None)
def test_coded_parse_and_filters_match_reference(tmp_path_factory, case, excluded,
                                                 max_cohort):
    texts, expected_raw = case
    tmp = tmp_path_factory.mktemp("csv")
    paths = [write(tmp / name, text) for name, text in
             zip(("students.csv", "edges.csv", "schools.csv", "apartments.csv"), texts)]
    raw = parse_inputs(*paths)
    assert claims_of(raw) == claims_of(expected_raw)
    assert edges_of(raw) == edges_of(expected_raw)
    assert raw.schools == expected_raw.schools
    # the chunk reader, where it reads a file, gives what the per-record
    # path gives: the same ids in the same order and the same codes
    chunked, by_record = {}, {}
    got = (*parse_students(paths[0], chunked), *parse_edges(paths[1], chunked))
    want = (*ingest._students_by_record(paths[0], by_record),
            *ingest._edges_by_record(paths[1], by_record))
    assert list(chunked) == list(by_record)
    assert got[2] == want[2]
    for g, w in zip(got[:2] + got[3:], want[:2] + want[3:]):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    apartments = ingest._apartments_by_record(paths[3])
    assert raw.apartments.dtype == apartments.dtype
    assert raw.apartments.tobytes() == apartments.tobytes()
    config = FilterConfig(max_cohort=max_cohort, excluded_school_ids=excluded)
    try:
        expected = reference_apply_filters(expected_raw, config)
    except EmptyResult:
        with pytest.raises(EmptyResult):
            apply_filters(raw, config)
        return
    graph, roster, report = apply_filters(raw, config)
    assert same_graph(graph, expected[0])
    assert graph.students == expected[0].students
    assert roster == expected[1]
    assert report.to_dict() == expected[2].to_dict()
