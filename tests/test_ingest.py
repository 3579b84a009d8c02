import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoseg.errors import (
    CoordinateOutOfRange,
    DuplicateSchoolId,
    EmptyResult,
    MalformedRow,
    NonPositiveArea,
)
from geoseg.ingest import (
    FilterConfig,
    RawInputs,
    RawSchool,
    apartment_prices,
    apply_filters,
    parse_inputs,
)
from geoseg.model import GeoPoint


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
        assert raw.edges == set()
        assert raw.claims == {"a": {"1"}, "b": {"2"}}

    def test_latitude_out_of_range(self, files):
        paths = files(
            "student_id,school_id\na,1\n",
            "student_id_a,student_id_b\n",
            "school_id,latitude,longitude,score\n1,95,30,60\n",
            APARTMENTS_1,
        )
        with pytest.raises(CoordinateOutOfRange):
            parse_inputs(*paths)

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
        assert raw.edges == {("a", "b")}

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
        assert raw.edges == edge_set

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
        assert parse_inputs(*files(*texts)) == plain


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

    def test_direct_price_per_sqm_column(self, tmp_path):
        path = write(
            tmp_path / "apts.csv",
            "latitude,longitude,price_per_sqm\n59.9,30.3,150000\n",
        )
        assert apartment_prices(path)[0].price_per_sqm == 150_000.0

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
        assert removed_students == len(raw.claims) - len(graph.assignment)
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
        again = RawInputs(
            claims={s: {g} for s, g in graph1.assignment.items()},
            edges=set(graph1.edges),
            schools=[s for s in raw.schools if s.id in {r.id for r in roster1}],
            apartments=raw.apartments,
        )
        graph2, roster2, report2 = apply_filters(again)
        assert graph2 == graph1
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
    claims = {
        f"u{i}": draw(st.sets(school_ids, min_size=1, max_size=2))
        for i in range(n_students)
    }
    ends = st.integers(0, n_students + 1)  # the last two ids dangle
    edges = {
        (f"u{min(a, b)}", f"u{max(a, b)}")
        for a, b in draw(st.sets(st.tuples(ends, ends), max_size=40))
        if a != b
    }
    return RawInputs(claims=claims, edges=edges, schools=schools, apartments=[])


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
