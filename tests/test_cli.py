import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tracemalloc
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
)

from dense import dense_weights
from test_imports import run_fresh


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

    @pytest.mark.parametrize("flag, value", [
        ("--students-per-school", "-3"),
        ("--students-per-school", "0"),
        ("--students-per-school", "1"),
        ("--price-coupling", "nan"),
    ])
    def test_setting_that_breaks_the_city_exits_2(self, tmp_path, capsys, flag, value):
        assert run_synth(tmp_path, extra=(flag, value)) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_out_dir_file_rejected_before_generating(self, tmp_path, capsys,
                                                     monkeypatch):
        def no_city(cfg):
            raise AssertionError("generated a city for an unusable --out-dir")

        monkeypatch.setattr(cli.synth, "generate_city", no_city)
        out = tmp_path / "out"
        out.write_text("a file\n")
        assert run_synth(out) == 2
        assert "--out-dir" in capsys.readouterr().err
        assert out.read_text() == "a file\n"

    def test_out_dir_below_file_rejected_before_generating(self, tmp_path, capsys,
                                                           monkeypatch):
        def no_city(cfg):
            raise AssertionError("generated a city for an unusable --out-dir")

        monkeypatch.setattr(cli.synth, "generate_city", no_city)
        parent = tmp_path / "file"
        parent.write_text("a file\n")
        assert run_synth(parent / "sub" / "dir") == 2
        err = capsys.readouterr().err
        assert "--out-dir" in err and "is not a directory" in err
        assert parent.read_text() == "a file\n"

    def test_out_dir_dangling_symlink_rejected_before_generating(self, tmp_path, capsys,
                                                                 monkeypatch):
        def no_city(cfg):
            raise AssertionError("generated a city for an unusable --out-dir")

        monkeypatch.setattr(cli.synth, "generate_city", no_city)
        out = tmp_path / "out"
        out.symlink_to(tmp_path / "missing")
        assert run_synth(out) == 2
        err = capsys.readouterr().err
        assert "--out-dir" in err and "is not a directory" in err
        assert out.is_symlink() and sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_failed_write_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        write_json = cli.synth.write_json

        def failing(path, payload):
            if os.path.basename(path) == "ground_truth.json":
                raise OSError("disk full")
            write_json(path, payload)

        monkeypatch.setattr(cli.synth, "write_json", failing)
        out = tmp_path / "out"
        assert run_synth(out) == 2
        assert "disk full" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        for name in EXPECTED_OUTPUTS:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

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

    def test_huge_bin_count_given_in_three_digits(self, city, tmp_path, capsys):
        # about 1e301 bins of 1e-300 km, not a 301-digit integer
        assert run_analyze(city, tmp_path / "out", extra=("--bin-km", "1e-300")) == 2
        assert re.search(r"bin width 1e-300 km gives \d\.\d\de\+30\d bins, more than",
                         capsys.readouterr().err)

    def test_constant_statistic_input_names_the_statistic(self, tmp_path, capsys):
        # four schools in a line 1.1 km apart, an apartment beside each: within
        # 50 km every school sees all four, so every mean price is the same
        city = tmp_path / "city"
        city.mkdir()
        (city / "schools.csv").write_text("school_id,latitude,longitude,score\n" + "".join(
            f"s{i},0.0,{0.01 * i},{50 + i}\n" for i in range(4)))
        (city / "apartments.csv").write_text("latitude,longitude,price_per_sqm\n" + "".join(
            f"0.001,{0.01 * i},{100_000 + 1000 * i}\n" for i in range(4)))
        (city / "students.csv").write_text("student_id,school_id\n" + "".join(
            f"u{i}{j},s{i}\n" for i in range(4) for j in range(2)))
        (city / "edges.csv").write_text("student_id_a,student_id_b\n" + "".join(
            f"u{i}0,u{i}1\nu{i}1,u{(i + 1) % 4}0\n" for i in range(4)))
        assert run_analyze(city, tmp_path / "out", extra=("--radius-km", "50", "--k", "3")) == 2
        assert ("error: neighborhood_affluence_segregation: y is constant"
                in capsys.readouterr().err)

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

    def test_out_dir_below_file_rejected_before_parse(self, city, tmp_path, capsys):
        bad_city = tmp_path / "city"
        shutil.copytree(city, bad_city)
        (bad_city / "students.csv").write_bytes(b"s\xe9\n")
        parent = tmp_path / "file"
        parent.write_text("a file\n")
        assert run_analyze(bad_city, parent / "sub") == 2
        err = capsys.readouterr().err
        assert "--out-dir" in err and "is not a directory" in err
        assert parent.read_text() == "a file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["city", "file"]

    def test_out_dir_dangling_symlink_rejected_before_parse(self, city, tmp_path, capsys):
        bad_city = tmp_path / "city"
        shutil.copytree(city, bad_city)
        (bad_city / "students.csv").write_bytes(b"s\xe9\n")
        out = tmp_path / "out"
        out.symlink_to(tmp_path / "missing")
        assert run_analyze(bad_city, out) == 2
        err = capsys.readouterr().err
        assert "--out-dir" in err and "is not a directory" in err
        assert out.is_symlink() and sorted(p.name for p in tmp_path.iterdir()) == ["city", "out"]

    def test_constant_scores_name_the_statistic(self, city, tmp_path, capsys):
        # every school scores 61.3, whose mean over the schools is not 61.3
        # in floating point; the first statistic reports the scores constant
        const_city = tmp_path / "city"
        shutil.copytree(city, const_city)
        schools = const_city / "schools.csv"
        header, *rows = schools.read_text().splitlines()
        schools.write_text("\n".join([header] + [row.rsplit(",", 1)[0] + ",61.3"
                                                 for row in rows]) + "\n")
        out = tmp_path / "out"
        assert run_analyze(const_city, out) == 2
        assert ("error: neighborhood_affluence_segregation: x is constant"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_failed_run_leaves_no_output(self, city, tmp_path, capsys):
        # the digital S_d at --k 30 fails after the decay outputs are
        # written; none of them may reach --out-dir, nor a work directory
        out = tmp_path / "out"
        assert run_analyze(city, out, extra=("--k", "30")) == 2
        assert "degree >= 30" in capsys.readouterr().err
        assert [name for name in EXPECTED_OUTPUTS if (out / name).exists()] == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_failed_statistic_after_null_start_leaves_no_child(self, tmp_path):
        # on a sparse city the null model's child is forked after the
        # decay curve, and S_d at --k 20 then fails in the caller: the run
        # exits 2, writes nothing and leaves no child behind
        city, out = tmp_path / "sparse", tmp_path / "out"
        assert main(["synth", "--n-schools", "80", "--p0", "0.1", "--seed", "4",
                     "--out-dir", str(city)]) == 0
        argv = ["analyze", *[arg for name in ("students", "edges", "schools", "apartments")
                             for arg in (f"--{name}", str(city / f"{name}.csv"))],
                "--center-lat", "0", "--center-lon", "0", "--k", "20",
                "--simulations", "100", "--permutations", "100", "--out-dir", str(out)]
        seen = run_fresh(f"""
import contextlib, io, json, os
from geoseg import cli, nullmodel
nullmodel.MIN_WORKER_S = 0
os.sched_getaffinity = lambda pid: {{0, 1}}
real_fork, forks = os.fork, []

def counted_fork():
    forks.append(1)
    return real_fork()

os.fork = counted_fork
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = cli.main({argv!r})
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps([code, err.getvalue(), len(forks), left]))
""")
        assert seen == [2, "error: only 0 schools have degree >= 20\n", 1, False]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sparse"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_sigterm_after_null_start_leaves_no_child(self, tmp_path):
        # SIGTERM while the null model's child draws: the run exits 143
        # and leaves no child, no output and no work directory behind
        city, out = tmp_path / "sparse", tmp_path / "out"
        assert main(["synth", "--n-schools", "80", "--p0", "0.1", "--seed", "4",
                     "--out-dir", str(city)]) == 0
        argv = ["analyze", *[arg for name in ("students", "edges", "schools", "apartments")
                             for arg in (f"--{name}", str(city / f"{name}.csv"))],
                "--center-lat", "0", "--center-lon", "0", "--k", "3",
                "--simulations", "100", "--permutations", "100", "--out-dir", str(out)]
        seen = run_fresh(f"""
import json, os, signal
from geoseg import cli, nullmodel, segregation
nullmodel.MIN_WORKER_S = 0
os.sched_getaffinity = lambda pid: {{0, 1}}
real_fork, forks = os.fork, []

def counted_fork():
    forks.append(1)
    return real_fork()

def terminated(*args):
    os.kill(os.getpid(), signal.SIGTERM)
    return real_means(*args)

os.fork = counted_fork
real_means, segregation.geographic_means = segregation.geographic_means, terminated
try:
    code = cli.main({argv!r})
except SystemExit as exc:
    code = exc.code
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps([code, len(forks), left]))
""")
        assert seen == [128 + signal.SIGTERM, 1, False]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sparse"]

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

    @pytest.mark.parametrize("null_k", [str(10**18)])
    def test_null_k_beyond_roster_exits_2(self, city, tmp_path, capsys, null_k):
        # the digital table is never sized from a --null-k above n - 1
        assert run_analyze(city, tmp_path / "out", extra=("--null-k", null_k)) == 2
        assert f"k={null_k} outside [1, 59]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--k", "--null-k"])
    def test_k_beyond_roster_rejected_before_networks(self, city, tmp_path, capsys,
                                                      monkeypatch, flag):
        def never(*args, **kwargs):
            raise AssertionError("networks built before the --k check")

        monkeypatch.setattr(network, "build_count_network", never)
        assert run_analyze(city, tmp_path / "out", extra=(flag, "60")) == 2
        assert f"error: {flag}: k=60 outside [1, 59]" in capsys.readouterr().err

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
        # a ranked block draws one row of tie-break jitter per school, so
        # the rows drawn per table count the rankings: one per school for
        # geography and one per school for the digital table
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

        def counted(seed, block, n):
            # IndexError outside the two tables
            draws[table[-1]].update(range(block.start, block.stop))
            return tie_jitter(seed, block, n)

        tie_jitter = geo._tie_jitter
        monkeypatch.setattr(geo, "_tie_jitter", counted)
        monkeypatch.setattr(segregation, "geographic_means",
                            ranking("geo", segregation.geographic_means))
        monkeypatch.setattr(segregation, "digital_means",
                            ranking("digital", segregation.digital_means))
        assert run_analyze(city, tmp_path / "out", extra=("--null-k", "2")) == 0
        roster, _, _ = city_inputs(city)
        assert draws["geo"] == Counter(range(len(roster)))
        assert draws["digital"] == Counter(range(len(roster)))

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
         [int(degrees[net.schools.index(s.id)]) for s in roster], {}),
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


def test_analyze_memory_bounded(tmp_path):
    # the whole paper-size run, in process: one 600 x 600 float64 matrix is
    # 2.7 MB, and every stage holds blocks of school pairs instead; the run
    # peaks at 5.2 MB traced on numpy 2.4
    city = tmp_path / "city"
    assert main(["synth", "--n-schools", "600", "--students-per-school", "12",
                 "--n-apartments", "2000", "--homophily", "5", "--seed", "3",
                 "--out-dir", str(city)]) == 0
    inputs = [arg for name in ("students", "edges", "schools", "apartments")
              for arg in (f"--{name}", str(city / f"{name}.csv"))]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert main(["analyze", *inputs, "--center-lat", "0", "--center-lon", "0",
                     "--k", "20", "--radius-km", "3", "--simulations", "100",
                     "--permutations", "100", "--seed", "3",
                     "--out-dir", str(tmp_path / "out")]) == 0
        peak = (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 10, f"peak {peak:.1f} MB"
