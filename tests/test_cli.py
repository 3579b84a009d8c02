import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from geoseg import cli, geo, ingest, network, segregation
from geoseg.cli import main
from geoseg.model import (
    GeoPoint,
    SegregationReport,
    pearson,
    permutation_p_value,
    substream,
)

from dense import dense_weights


def run_synth(out_dir, extra=()):
    return main([
        "synth",
        "--n-schools", "60",
        "--n-apartments", "200",
        "--seed", "7",
        "--out-dir", str(out_dir),
        *extra,
    ])


def run_analyze(city_dir, out_dir, extra=()):
    return main([
        "analyze",
        "--students", str(city_dir / "students.csv"),
        "--edges", str(city_dir / "edges.csv"),
        "--schools", str(city_dir / "schools.csv"),
        "--apartments", str(city_dir / "apartments.csv"),
        "--center-lat", "0.0",
        "--center-lon", "0.0",
        "--k", "5",
        "--radius-km", "3.0",
        "--simulations", "100",
        "--permutations", "199",
        "--seed", "11",
        "--out-dir", str(out_dir),
        *extra,
    ])


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    d = tmp_path_factory.mktemp("city")
    assert run_synth(d) == 0
    return d


EXPECTED_OUTPUTS = [
    "filter_report.json",
    "network_a.csv",
    "network_ahat.csv",
    "decay_curve.csv",
    "decay_fit.json",
    "segregation_profile.csv",
    "null_distribution.csv",
    "report.json",
]


class TestSynthCommand:
    def test_ground_truth_echoes_flags(self, city):
        truth = json.loads((city / "ground_truth.json").read_text())
        assert truth["config"]["n_schools"] == 60
        assert truth["config"]["seed"] == 7
        assert truth["n_apartments"] == 200

    def test_below_minimum_schools_exits_2(self, tmp_path, capsys):
        assert run_synth(tmp_path, extra=("--n-schools", "5")) == 2
        assert "n_schools" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert main(["synth", "--seed", "-1", "--out-dir", str(tmp_path)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_emits_all_files(self, city):
        for name in ("students.csv", "edges.csv", "schools.csv",
                     "apartments.csv", "ground_truth.json"):
            assert (city / name).exists()


class TestAnalyzeCommand:
    def test_full_pipeline(self, city, tmp_path):
        out = tmp_path / "out"
        assert run_analyze(city, out) == 0
        for name in EXPECTED_OUTPUTS:
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 2
        assert report["seed"] == 11
        assert report["null_model"]["simulations"] == 100
        for key in (
            "neighborhood_affluence_segregation",
            "center_distance_correlation",
            "geographic_segregation",
            "digital_segregation",
            "degree_outcome_correlation",
        ):
            stat = report["segregation"][key]
            assert -1.0 <= stat["value"] <= 1.0
            assert 0.0 < stat["p_value"] <= 1.0

    def test_byte_identical_reruns(self, city, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_analyze(city, out1) == 0
        assert run_analyze(city, out2) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "decay_curve.csv").read_bytes() == (out2 / "decay_curve.csv").read_bytes()

    def test_missing_schools_file(self, city, tmp_path, capsys):
        code = main([
            "analyze",
            "--students", str(city / "students.csv"),
            "--edges", str(city / "edges.csv"),
            "--schools", str(city / "missing.csv"),
            "--apartments", str(city / "apartments.csv"),
            "--center-lat", "0", "--center-lon", "0",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "missing.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--simulations", "50"),
        ("--permutations", "50"),
        ("--permutations", "-1"),
        ("--k", "0"),
        ("--null-k", "0"),
        ("--bin-km", "0"),
        ("--bin-km", "-1"),
        ("--bin-km", "nan"),
        ("--bin-km", "inf"),
        ("--radius-km", "0"),
        ("--radius-km", "nan"),
        ("--center-lat", "91"),
        ("--center-lat", "nan"),
        ("--center-lon", "-181"),
        ("--seed", "-1"),
        ("--max-cohort", "0"),
        ("--max-cohort", "-1"),
        ("--min-pairs-per-bin", "-5"),
    ])
    def test_bad_count_rejected_before_output(self, city, tmp_path, capsys,
                                              flag, value):
        out = tmp_path / "out"
        assert run_analyze(city, out, extra=(flag, value)) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_bin_width_beyond_matrix_size_exits_2(self, city, tmp_path, capsys):
        # schools some km apart would need billions of 1e-9 km bins
        out = tmp_path / "out"
        assert run_analyze(city, out, extra=("--bin-km", "1e-9")) == 2
        assert "bin width 1e-09 km gives" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_out_dir_file_rejected_before_parse(self, city, tmp_path, capsys):
        # the students file is malformed, so a parse would fail first
        bad_city = tmp_path / "city"
        shutil.copytree(city, bad_city)
        (bad_city / "students.csv").write_bytes(b"s\xe9\n")
        out = tmp_path / "out"
        out.write_text("a file\n")
        assert run_analyze(bad_city, out) == 2
        assert "--out-dir" in capsys.readouterr().err
        assert out.read_text() == "a file\n"

    def test_failed_run_leaves_no_output(self, city, tmp_path, capsys):
        # the digital S_d at --k 30 fails after the decay outputs are
        # written; none of them may reach --out-dir, nor a work directory
        out = tmp_path / "out"
        assert run_analyze(city, out, extra=("--k", "30")) == 2
        assert "degree >= 30" in capsys.readouterr().err
        assert [name for name in EXPECTED_OUTPUTS if (out / name).exists()] == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name, line, bad", [
        ("schools.csv", 3, b"s\xe9cole,0.0,0.0,50.0\n"),
        ("edges.csv", 2, b"s0000_u000,s0000\x00_u001\n"),
    ], ids=["latin1", "nul"])
    def test_unreadable_input_exits_2(self, city, tmp_path, capsys, name, line, bad):
        # a Latin-1 byte or a NUL byte is an input error naming the file
        bad_city = tmp_path / "city"
        shutil.copytree(city, bad_city)
        text = (city / name).read_bytes().split(b"\n")
        (bad_city / name).write_bytes(b"\n".join(text[:line - 1]) + b"\n" + bad
                                      + b"\n".join(text[line - 1:]))
        assert run_analyze(bad_city, tmp_path / "out") == 2
        assert f"{bad_city / name}:{line}:" in capsys.readouterr().err

    def test_coordinate_out_of_range_exits_2(self, city, tmp_path, capsys):
        bad_city = tmp_path / "city"
        shutil.copytree(city, bad_city)
        apartments = bad_city / "apartments.csv"
        line = len(apartments.read_text().splitlines()) + 1
        with open(apartments, "a") as f:
            f.write("95.0,0.0,100000.0\n")
        assert run_analyze(bad_city, tmp_path / "out") == 2
        assert f"{apartments}:{line}: latitude 95.0" in capsys.readouterr().err

    @pytest.mark.parametrize("null_k", ["60", str(10**18)])
    def test_null_k_beyond_roster_exits_2(self, city, tmp_path, capsys, null_k):
        # the digital table is never sized from a --null-k above n - 1
        assert run_analyze(city, tmp_path / "out", extra=("--null-k", null_k)) == 2
        assert f"k={null_k} outside [1, 59]" in capsys.readouterr().err

    def test_internal_value_error_exits_3(self, city, tmp_path, capsys,
                                          monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a geoseg bug")

        monkeypatch.setattr(segregation, "geographic_means", broken)
        assert run_analyze(city, tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "a geoseg bug" in err and "internal error" in err

    def test_profile_covers_k_range(self, city, tmp_path):
        out = tmp_path / "out"
        assert run_analyze(city, out) == 0
        lines = (out / "segregation_profile.csv").read_text().strip().split("\n")
        assert lines[0] == "k,s_g,s_d,excluded_digital,p_g,p_d"
        assert [row.split(",")[0] for row in lines[1:]] == [str(k) for k in range(1, 6)]


def city_inputs(city):
    """Roster, distance matrix and count network as analyze builds them."""
    raw = ingest.parse_inputs(city / "students.csv", city / "edges.csv",
                              city / "schools.csv", city / "apartments.csv")
    graph, roster, _ = ingest.apply_filters(raw, ingest.FilterConfig())
    net, _ = network.build_count_network(graph, roster)
    return roster, geo.school_distance_matrix(roster), net


class TestAnalyzeRanksOnce:
    def test_one_ranking_per_school_and_kind(self, city, tmp_path, monkeypatch):
        # a ranked school draws its tie-break jitter from one substream, so
        # the substreams drawn per table count the rankings: one per school
        # for geography, one per school with a tie for the digital table
        draws = {"geo": Counter(), "digital": Counter()}
        table = []

        def ranking(kind, fn):
            def wrapper(*args, **kwargs):
                table.append(kind)
                try:
                    return fn(*args, **kwargs)
                finally:
                    table.pop()
            return wrapper

        def counted(seed, label):
            draws[table[-1]][label] += 1  # IndexError outside the two tables
            return substream(seed, label)

        monkeypatch.setattr(geo, "substream", counted)
        monkeypatch.setattr(segregation, "geographic_means",
                            ranking("geo", segregation.geographic_means))
        monkeypatch.setattr(segregation, "digital_means",
                            ranking("digital", segregation.digital_means))
        assert run_analyze(city, tmp_path / "out", extra=("--null-k", "2")) == 0
        roster, _, net = city_inputs(city)
        degrees = (dense_weights(net) > 0).sum(axis=1)
        assert draws["geo"] == Counter(s.id for s in roster)
        assert draws["digital"] == Counter(
            s.id for s in roster if degrees[net.index[s.id]] >= 1)

    @pytest.mark.parametrize("null_k", [2, 5, 7])
    def test_reports_match_single_k_functions(self, city, tmp_path, null_k):
        out = tmp_path / "out"
        assert run_analyze(city, out, extra=("--null-k", str(null_k))) == 0
        report = json.loads((out / "report.json").read_text())
        roster, dm, net = city_inputs(city)
        k, seed, permutations = 5, 11, 199

        def as_json(rep):
            return json.loads(json.dumps(rep.to_dict()))

        assert report["segregation"]["geographic_segregation"] == as_json(
            segregation.geographic_segregation(roster, dm, k, seed, permutations))
        assert report["segregation"]["digital_segregation"] == as_json(
            segregation.digital_segregation(roster, net, k, seed, permutations))
        assert report["null_model"]["observed"] == segregation.digital_segregation(
            roster, net, null_k, seed).value
        expected = tmp_path / "profile.csv"
        segregation.write_profile_csv(
            segregation.segregation_profile(roster, dm, net, range(1, k + 1), seed),
            expected)
        assert (out / "segregation_profile.csv").read_bytes() == expected.read_bytes()



def correlation_inputs(city):
    """(name, x, y, settings) of the three report blocks that are one
    correlation over the roster, as analyze builds them at --radius-km 3
    and centre (0, 0)."""
    raw = ingest.parse_inputs(city / "students.csv", city / "edges.csv",
                              city / "schools.csv", city / "apartments.csv")
    graph, roster, _ = ingest.apply_filters(raw, ingest.FilterConfig())
    net, _ = network.build_count_network(graph, roster)
    scores = np.array([s.score for s in roster])
    counts, sums = geo._apartments_within(roster, raw.apartments, 3.0)
    near = counts > 0
    lat = np.array([s.location.latitude for s in roster])
    lon = np.array([s.location.longitude for s in roster])
    degrees = (dense_weights(net) > 0).sum(axis=1)
    return roster, raw.apartments, net, [
        ("neighborhood_affluence_segregation", scores[near], sums[near] / counts[near],
         {"radius_km": 3.0, "excluded_schools": int((~near).sum())}),
        ("center_distance_correlation", scores, geo._haversine_km(lat, lon, 0.0, 0.0),
         {"center_lat": 0.0, "center_lon": 0.0}),
        ("degree_outcome_correlation", scores,
         [int(degrees[net.index[s.id]]) for s in roster], {}),
    ]


class TestCorrelationBlocks:
    def test_blocks_match_hand_built_reports(self, city, tmp_path):
        out = tmp_path / "out"
        assert run_analyze(city, out) == 0
        report = json.loads((out / "report.json").read_text())
        seed, permutations = 11, 199
        for name, x, y, settings in correlation_inputs(city)[3]:
            expected = SegregationReport(
                name, pearson(x, y), len(x), permutation_p_value(x, y, permutations, seed),
                {**settings, "permutations": permutations, "seed": seed})
            assert report["segregation"][name] == json.loads(
                json.dumps(expected.to_dict())), name

    def test_no_permutations_gives_no_p_value(self, city):
        roster, apartments, net, blocks = correlation_inputs(city)
        reports = [
            geo.neighborhood_affluence_segregation(roster, apartments, 3.0, 0, 11),
            geo.center_distance_correlation(roster, GeoPoint(0.0, 0.0), 0, 11),
            segregation.degree_outcome_correlation(roster, net, 0, 11),
        ]
        for rep, (name, x, y, settings) in zip(reports, blocks):
            assert rep.statistic_name == name
            assert rep.value == pearson(x, y)
            assert rep.p_value is None
            assert rep.settings == {**settings, "permutations": 0, "seed": 11}

# run in a fresh interpreter: a long-lived heap may already hold a free
# chunk that serves the block without touching new pages
MALLOC_PROBE = """
import os, sys
import numpy as np
from geoseg import cli

def resident():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

if not cli._pin_malloc_thresholds():
    print(0, 0, 0)
    sys.exit()
# a large free first: glibc's default would now slide its mmap threshold
# above the next block's size and keep that block in the heap
np.ones(1 << 21).sum()
before = resident()
block = np.ones(1 << 20)  # 8 MiB, every page touched
grown = resident() - before
del block
print(1, grown, resident() - before)
"""


class TestMallocThresholds:
    def test_freed_large_array_leaves_no_resident_memory(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run([sys.executable, "-c", MALLOC_PROBE],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        pinned, grown, kept = map(int, done.stdout.split())
        if not pinned:
            pytest.skip("no glibc mallopt")
        assert grown > 7 << 20
        assert kept < 1 << 20
