"""Tests for the benchmark's own parts, on a tiny synthetic city.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import dirty  # noqa: E402
import spans  # noqa: E402
from geoseg import cli, geo, ingest, network, segregation, synth  # noqa: E402

SYNTH = {"n_schools": 40, "students_per_school": 4, "n_apartments": 300, "homophily": 5}
DIRT_SHARE = 0.1
SEED = 3


def make_city(path, dirt=DIRT_SHARE):
    cfg = check.synth_config(SYNTH, SEED)
    roster, net, truth = synth.generate_city(cfg)
    apartments = synth.generate_apartments(cfg, roster, SYNTH["n_apartments"], 0.0, SEED)
    synth.emit_city(path, roster, net, truth, apartments, seed=SEED,
                    students_per_school=SYNTH["students_per_school"])
    noise = dirty.dirty_city(path, dirt, SEED) if dirt else None
    expected = dirty.write_expected(path, SYNTH["n_schools"],
                                    SYNTH["students_per_school"], noise)
    return cfg, expected


def parse(path):
    return ingest.parse_inputs(*(path / f for f in
                                 ("students.csv", "edges.csv", "schools.csv",
                                  "apartments.csv")))


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    """A dirtied tiny city and one in-process analyze run of it."""
    city = tmp_path_factory.mktemp("city")
    out = tmp_path_factory.mktemp("out")
    cfg, expected = make_city(city)
    code = cli.main([
        "analyze", "--students", str(city / "students.csv"),
        "--edges", str(city / "edges.csv"), "--schools", str(city / "schools.csv"),
        "--apartments", str(city / "apartments.csv"), "--center-lat", "0",
        "--center-lon", "0", "--k", "2", "--radius-km", "5", "--simulations", "100",
        "--permutations", "100", "--seed", str(SEED), "--out-dir", str(out),
    ])
    assert code == 0
    return out, check.planted_network_rows(cfg), expected


@pytest.mark.parametrize("dirt", [DIRT_SHARE, None], ids=["dirty", "clean"])
def test_dirtier_expected_counts_match_apply_filters(tmp_path, dirt):
    cfg, expected = make_city(tmp_path, dirt)
    graph, roster, report = ingest.apply_filters(parse(tmp_path))
    assert report.to_dict() == expected
    assert json.loads((tmp_path / dirty.EXPECTED_REPORT).read_text()) == expected
    # no noise row survives as a cross-school tie
    net, _ = network.build_count_network(graph, roster)
    _, planted, _ = synth.generate_city(cfg)
    assert list(net.nonzero_pairs()) == list(planted.nonzero_pairs())


def test_dirtier_does_real_work(tmp_path):
    _, expected = make_city(tmp_path)
    students = SYNTH["n_schools"] * SYNTH["students_per_school"]
    assert expected["students_removed_multi_school"] == round(DIRT_SHARE * students)
    assert expected["students_removed_no_same_school_friend"] == round(DIRT_SHARE * students)
    assert expected["fixed_point_iterations"] == 2
    assert expected["schools_removed_missing_score"] == round(DIRT_SHARE * SYNTH["n_schools"])
    assert expected["students_removed_school_filtered"] == (
        expected["schools_removed_missing_score"] * SYNTH["students_per_school"])
    assert expected["edges_dropped_dangling"] > 0


def test_dirtier_exercises_every_counter_at_a_tiny_share(tmp_path):
    _, expected = make_city(tmp_path, 1e-9)
    assert all(expected[k] > 0 for k in (
        "students_removed_no_same_school_friend", "students_removed_multi_school",
        "students_removed_school_filtered", "schools_removed_missing_score",
        "edges_dropped_dangling"))


def test_checker_accepts_the_planted_network_and_filter_counts(analyzed):
    out, planted, expected = analyzed
    problems = check.check_outputs(out, planted, expected)
    assert not [p for p in problems if "network_a" in p or "filter_report" in p]


def _copy_outputs(src, dst):
    for name in check.OUTPUTS:
        (dst / name).write_bytes((src / name).read_bytes())


def test_checker_rejects_one_weight_change(analyzed, tmp_path):
    out, planted, expected = analyzed
    _copy_outputs(out, tmp_path)
    lines = (tmp_path / "network_a.csv").read_text().splitlines()
    a, b, w = lines[1].split(",")
    lines[1] = f"{a},{b},{int(w) + 1}"
    (tmp_path / "network_a.csv").write_text("\n".join(lines) + "\n")
    problems = check.check_outputs(tmp_path, planted, expected)
    assert any("network_a.csv differs" in p for p in problems)


def test_checker_rejects_filter_count_off_by_one(analyzed, tmp_path):
    out, planted, expected = analyzed
    _copy_outputs(out, tmp_path)
    report = json.loads((tmp_path / "filter_report.json").read_text())
    report["edges_dropped_dangling"] += 1
    (tmp_path / "filter_report.json").write_text(json.dumps(report))
    problems = check.check_outputs(tmp_path, planted, expected)
    assert any("filter_report.json differs" in p and "edges_dropped_dangling" in p
               for p in problems)


def test_checker_rejects_missing_output(analyzed, tmp_path):
    out, planted, expected = analyzed
    _copy_outputs(out, tmp_path)
    (tmp_path / "null_distribution.csv").unlink()
    assert check.check_outputs(tmp_path, planted, expected) == [
        "missing outputs ['null_distribution.csv']"
    ]


@pytest.mark.parametrize("name,text", [
    ("report.json", "{truncated"),
    ("report.json", '{"filter_report": {}}'),
    ("decay_fit.json", ""),
])
def test_checker_reports_a_malformed_output(analyzed, tmp_path, name, text):
    out, planted, expected = analyzed
    _copy_outputs(out, tmp_path)
    (tmp_path / name).write_text(text)
    problems = check.check_outputs(tmp_path, planted, expected)
    assert len(problems) == 1 and problems[0].startswith("unreadable output")


def test_a_run_that_raises_is_counted_as_failed(monkeypatch):
    import run

    def broken(*args):
        raise OSError("output directory vanished")

    monkeypatch.setattr(run, "measure", broken)
    measured = run.run_workload("paper600", SEED, 1, trace=False)
    assert measured["result"] == {"correct": False, "attempted": 1, "failed": 1,
                                  "metrics": {}}


def _sites():
    """(module, attribute) -> the object there, for every traced site."""
    return {(site, name.split(".")[1]):
            getattr(importlib.import_module(f"geoseg.{site}"), name.split(".")[1])
            for name, sites in spans.TRACED for site in sites}


def test_wrappers_install_and_restore_originals():
    before = _sites()
    tracer = spans.Tracer()
    with tracer.patched():
        assert all(_sites()[key] is not fn for key, fn in before.items())
        # a name imported with `from geo import ...` is traced where it is used
        assert segregation.geographic_neighbors is geo.geographic_neighbors
    assert all(_sites()[key] is fn for key, fn in before.items())


def test_wrappers_restore_originals_after_an_exception():
    before = _sites()
    with pytest.raises(RuntimeError):
        with spans.Tracer().patched():
            raise RuntimeError("boom")
    assert all(_sites()[key] is fn for key, fn in before.items())


def test_spans_nest_and_give_self_time():
    tracer = spans.Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert [s.parent for s in inner] == [outer.index, outer.index]
    assert tracer.calls("inner") == 2
    self_times = tracer.self_times()
    assert self_times["outer"] == pytest.approx(
        outer.record.duration - sum(s.duration for s in inner))
    assert tracer.children_time(outer.index) == pytest.approx(tracer.total("inner"))


def test_traced_calls_are_counted_where_they_are_used():
    roster, _, _ = synth.generate_city(check.synth_config(SYNTH, SEED))
    dm = geo.school_distance_matrix(roster)
    tracer = spans.Tracer()
    with tracer.patched():
        segregation.geographic_segregation(roster, dm, 2, SEED)
    assert tracer.calls("geo.geographic_neighbors") == len(roster)
    assert tracer.total("segregation.geographic_segregation") > 0


def test_span_cost_is_positive():
    assert spans.span_cost_s(calls=2000, batches=3) > 0


NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_benchmark_json_names_and_maps():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((ROOT / "bench" / "workloads.json").read_text())
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
    assert list(spec["layer_map"]) == [m["name"] for m in bench["per_layer"]]
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for targets in spec["layer_map"].values():
        for target in targets:
            assert target["moves"] in end_to_end
            assert set(target["on"]) <= set(spec["workloads"])
