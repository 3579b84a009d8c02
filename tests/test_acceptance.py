"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria are property-based and synthetic-recovery checks against the
planted ground truth of the city generator; the reference study's exact
numbers need its private dataset and are kept as documentation fixtures
elsewhere.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import geoseg
from geoseg.cli import main as cli_main
from geoseg.decay import fit_power_law, tie_probability_curve
from geoseg.geo import school_distance_matrix
from geoseg.ingest import FilterConfig, apply_filters, parse_inputs
from geoseg.model import GeoPoint, School, pearson
from geoseg.network import (
    binarize,
    build_count_network,
    build_min_symmetrized_network,
)
from geoseg.nullmodel import null_distribution_s_d
from geoseg.segregation import digital_segregation
from geoseg.synth import SynthConfig, emit_city, generate_apartments, generate_city

from dense import (dense_weights, generate_null_graph, network_from_dense, raw_from_ids,
                   same_graph, student_graph)

N_SEEDS = 20


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def city_pipeline(cfg):
    roster, net, _ = generate_city(cfg)
    dm = school_distance_matrix(roster)
    curve = tie_probability_curve(binarize(net), dm, 1.0)
    return roster, net, dm, curve


def test_criterion_1_decay_recovery():
    """600 schools, p0=0.75, alpha=-0.62, d0=1 km, 15 km radius: exponent
    within +/-0.08 in >= 18/20 seeds, under 30 s per seed."""
    hits = 0
    worst_time = 0.0
    for seed in range(N_SEEDS):
        t0 = time.time()
        _, _, _, curve = city_pipeline(SynthConfig(seed=seed))
        exponent, _ = fit_power_law(curve)
        worst_time = max(worst_time, time.time() - t0)
        if abs(exponent - (-0.62)) <= 0.08:
            hits += 1
    report(
        "1 decay recovery",
        hits >= 18 and worst_time < 30.0,
        f"{hits}/20 seeds within 0.08, worst seed {worst_time:.1f}s",
    )


def test_criterion_2_null_model_calibration():
    """Homophily-off city: observed S_d(1) within null mean +/- 3 SD in
    >= 19/20 seeds; per-bin tie frequency of generated graphs within 3
    binomial SE of the input curve in >= 99% of bins."""
    inside = 0
    for seed in range(N_SEEDS):
        roster, net, dm, curve = city_pipeline(SynthConfig(seed=seed))
        observed = digital_segregation(roster, net, 1, seed).value
        result = null_distribution_s_d(
            roster, dm, curve, k=1, simulations=1000, seed=seed, observed=observed
        )
        lo = result.simulated_mean - 3 * result.simulated_sd
        hi = result.simulated_mean + 3 * result.simulated_sd
        if lo <= observed <= hi:
            inside += 1

    # per-bin frequency over 1,000 generated graphs on one fixed city,
    # each graph's ties binned by indexing an independent dense bin matrix
    # at its tied pairs; the first graphs' totals are checked against the
    # dense graph's
    roster, net, dm, curve = city_pipeline(SynthConfig(seed=0))
    n = len(roster)
    iu = np.triu_indices(n, 1)
    n_bins = len(curve.probabilities)
    bin_matrix = np.clip(np.floor(dm.block(slice(0, n)) / 1.0).astype(int), 0, n_bins - 1)
    bins = bin_matrix[iu]
    n_graphs = 1000
    tie_totals = np.zeros(n_bins)
    for seed in range(n_graphs):
        g = generate_null_graph(curve, dm, seed)
        totals = np.bincount(bin_matrix[g.a, g.b], minlength=n_bins)
        if seed < 3:
            assert np.array_equal(
                totals, np.bincount(bins[dense_weights(g)[iu] > 0], minlength=n_bins))
        tie_totals += totals
    pair_counts = np.bincount(bins, minlength=n_bins)
    ok_bins = checked = 0
    for m, p in enumerate(curve.probabilities):
        if pair_counts[m] == 0 or np.isnan(p):
            continue
        checked += 1
        trials = pair_counts[m] * n_graphs
        se = math.sqrt(max(p * (1 - p) / trials, 1e-18))
        if abs(tie_totals[m] / trials - p) <= 3 * se + 1e-12:
            ok_bins += 1
    frac = ok_bins / checked
    report(
        "2 null-model calibration",
        inside >= 19 and frac >= 0.99,
        f"{inside}/20 seeds inside 3 SD, {frac:.3f} of bins within 3 SE",
    )


def test_criterion_3_dissociation():
    """Homophily-on, gradient-off city: S_d(10) > 0.3, |S_g(10)| < 0.1,
    empirical p <= 0.01 at 1,000 simulations, in >= 18/20 seeds; the
    homophily-off control keeps |S_d(10)| < 0.1."""
    hits = 0
    for seed in range(N_SEEDS):
        roster, net, dm, curve = city_pipeline(
            SynthConfig(seed=seed, homophily_scale=5.0)
        )
        s_d = digital_segregation(roster, net, 10, seed).value
        s_g = geoseg.geographic_segregation(roster, dm, 10, seed).value
        observed_1 = digital_segregation(roster, net, 1, seed).value
        null = null_distribution_s_d(
            roster, dm, curve, k=1, simulations=1000, seed=seed, observed=observed_1
        )
        if s_d > 0.3 and abs(s_g) < 0.1 and null.empirical_p <= 0.01:
            hits += 1

    control_ok = 0
    for seed in range(N_SEEDS):
        roster, net, _, _ = city_pipeline(SynthConfig(seed=seed))
        if abs(digital_segregation(roster, net, 10, seed).value) < 0.1:
            control_ok += 1
    report(
        "3 dissociation",
        hits >= 18 and control_ok >= 18,
        f"{hits}/20 homophily-on seeds, {control_ok}/20 controls",
    )


def random_student_graph(rng):
    n_students = int(rng.integers(4, 61))
    n_schools = int(rng.integers(2, 9))
    students = [f"u{i}" for i in range(n_students)]
    assignment = {s: str(int(rng.integers(1, n_schools + 1))) for s in students}
    p = rng.uniform(0.02, 0.3)
    edges = [
        (students[i], students[j])
        for i in range(n_students)
        for j in range(i + 1, n_students)
        if rng.random() < p
    ]
    roster = [
        School(str(k), GeoPoint(0.0, k * 0.01), 50.0) for k in range(1, n_schools + 1)
    ]
    return student_graph(assignment, edges), roster


def brute_force_networks(g, roster):
    ids = [s.id for s in roster]
    idx = {s: i for i, s in enumerate(ids)}
    n = len(ids)
    a = np.zeros((n, n), dtype=np.int64)
    directed = np.zeros((n, n), dtype=np.int64)
    students = g.students
    for i, u in enumerate(students):
        for v in students[i + 1:]:
            pair = (u, v) if u < v else (v, u)
            if pair in g.edges and g.assignment[u] != g.assignment[v]:
                su, sv = idx[g.assignment[u]], idx[g.assignment[v]]
                a[su, sv] += 1
                a[sv, su] += 1
    for u in students:
        seen = set()
        for v in students:
            if u == v:
                continue
            pair = (u, v) if u < v else (v, u)
            if pair in g.edges and g.assignment[v] != g.assignment[u]:
                seen.add(g.assignment[v])
        for school in seen:
            directed[idx[g.assignment[u]], idx[school]] += 1
    return a, np.minimum(directed, directed.T)


def oracle_pearson(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sx = math.sqrt(sum((a - mx) ** 2 for a in x))
    sy = math.sqrt(sum((b - my) ** 2 for b in y))
    return cov / (sx * sy)


def s_d_oracle_check(roster, net, k, seed):
    """Exhaustive check: the implementation's neighbor set must contain
    every school strictly heavier than its k-th pick, only positive-weight
    schools, and the reported value must equal the direct Pearson of the
    resulting means."""
    scores = {s.id: s.score for s in roster}
    rep = digital_segregation(roster, net, k, seed)
    own, means = [], []
    for school in roster:
        i = net.schools.index(school.id)
        row = dense_weights(net)[i]
        if int((row > 0).sum()) < k:
            continue
        chosen = geoseg.digital_neighbors(net, school.id, k, seed)
        assert len(set(chosen)) == k and school.id not in chosen
        w_chosen = [int(row[net.schools.index(c)]) for c in chosen]
        threshold = min(w_chosen)
        assert all(w >= 1 for w in w_chosen)
        # every strictly heavier school must be chosen
        for j, other in enumerate(net.schools):
            if j != i and int(row[j]) > threshold:
                assert other in chosen
        own.append(school.score)
        means.append(sum(scores[c] for c in chosen) / k)
    assert abs(rep.value - oracle_pearson(own, means)) < 1e-12


def test_criterion_4_oracle_equivalence():
    """A, A-tilde, A-hat vs brute-force double loop on 1,000 random
    graphs; pearson vs the direct formula within 1e-12; S_d(k) vs
    exhaustive neighbor enumeration on small networks."""
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        g, roster = random_student_graph(rng)
        a_oracle, ahat_oracle = brute_force_networks(g, roster)
        net_a, _ = build_count_network(g, roster)
        net_hat = build_min_symmetrized_network(g, roster)
        assert np.array_equal(dense_weights(net_a), a_oracle)
        assert np.array_equal(dense_weights(net_hat), ahat_oracle)

    for _ in range(200):
        n = int(rng.integers(3, 30))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        assert abs(pearson(x, y) - oracle_pearson(x.tolist(), y.tolist())) < 1e-12

    checked = 0
    for trial in range(50):
        n = int(rng.integers(4, 11))
        w = np.triu(rng.integers(0, 4, (n, n)), 1)
        w = w + w.T
        net = network_from_dense([f"s{i}" for i in range(n)], w)
        roster = [
            School(f"s{i}", GeoPoint(0.0, i * 0.01), float(rng.uniform(30, 90)))
            for i in range(n)
        ]
        for k, seed in itertools.product((1, 2), (0, 1, 17)):
            degrees = (w > 0).sum(axis=1)
            if (degrees >= k).sum() < 3:
                continue
            s_d_oracle_check(roster, net, k, seed)
            checked += 1
    assert checked > 50
    report("4 oracle equivalence", True,
           f"1000 network oracles, 200 pearson oracles, {checked} S_d checks")


def test_criterion_5_metric_and_invariance():
    """Haversine metric on 10,000 random triples; S_g/S_d affine score
    invariance within 1e-10; S_d exact under uniform weight scaling."""
    rng = np.random.default_rng(77)
    lats = rng.uniform(-89, 89, (10_000, 3))
    lons = rng.uniform(-180, 180, (10_000, 3))
    max_violation = 0.0
    from geoseg.geo import _haversine_km

    d_ab = _haversine_km(lats[:, 0], lons[:, 0], lats[:, 1], lons[:, 1])
    d_bc = _haversine_km(lats[:, 1], lons[:, 1], lats[:, 2], lons[:, 2])
    d_ac = _haversine_km(lats[:, 0], lons[:, 0], lats[:, 2], lons[:, 2])
    d_ba = _haversine_km(lats[:, 1], lons[:, 1], lats[:, 0], lons[:, 0])
    symmetric = np.array_equal(d_ab, d_ba)
    max_violation = float(np.max(d_ac - (d_ab + d_bc)))

    roster, net, _ = generate_city(SynthConfig(n_schools=150, seed=5))
    dm = school_distance_matrix(roster)
    affine = [School(s.id, s.location, 3.0 * s.score + 11.0) for s in roster]
    dg_base = digital_segregation(roster, net, 5, seed=1).value
    dg_aff = digital_segregation(affine, net, 5, seed=1).value
    gg_base = geoseg.geographic_segregation(roster, dm, 5, seed=1).value
    gg_aff = geoseg.geographic_segregation(affine, dm, 5, seed=1).value
    scaled_net = network_from_dense(net.schools, dense_weights(net) * 13)
    dg_scaled = digital_segregation(roster, scaled_net, 5, seed=1).value

    ok = (
        symmetric
        and max_violation <= 1e-6
        and abs(dg_aff - dg_base) <= 1e-10
        and abs(gg_aff - gg_base) <= 1e-10
        and dg_scaled == dg_base
    )
    report(
        "5 metric and invariance",
        ok,
        f"triangle slack {max_violation:.2e} km, affine dev "
        f"{max(abs(dg_aff - dg_base), abs(gg_aff - gg_base)):.2e}",
    )


def _analyze(city_dir, out_dir):
    code = cli_main([
        "analyze",
        "--students", str(city_dir / "students.csv"),
        "--edges", str(city_dir / "edges.csv"),
        "--schools", str(city_dir / "schools.csv"),
        "--apartments", str(city_dir / "apartments.csv"),
        "--center-lat", "0.0", "--center-lon", "0.0",
        "--k", "5", "--radius-km", "3.0",
        "--simulations", "100", "--permutations", "199",
        "--seed", "3", "--out-dir", str(out_dir),
    ])
    assert code == 0


def test_criterion_6_determinism(tmp_path):
    """Identical inputs + seed -> byte-identical report.json; a third
    rerun -> identical statistics."""
    cfg = SynthConfig(n_schools=60, seed=12)
    roster, net, truth = generate_city(cfg)
    apartments = generate_apartments(cfg, roster, 300, 0.5, seed=12)
    city_dir = tmp_path / "city"
    emit_city(city_dir, roster, net, truth, apartments, seed=12)

    outs = [tmp_path / f"out{i}" for i in range(3)]
    for out in outs:
        _analyze(city_dir, out)
    r0 = (outs[0] / "report.json").read_bytes()
    r1 = (outs[1] / "report.json").read_bytes()
    same_bytes = r0 == r1
    stats_0 = json.loads(r0)
    stats_2 = json.loads((outs[2] / "report.json").read_text())
    same_stats = (
        stats_0["segregation"] == stats_2["segregation"]
        and stats_0["null_model"] == stats_2["null_model"]
    )
    report("6 determinism", same_bytes and same_stats,
           f"byte-identical={same_bytes}, rerun identical={same_stats}")


def test_criterion_7_filter_correctness(tmp_path):
    """Hand-traced fixture: multi-school student m removed, stranding a;
    y's only friends are cross-school; counts must match exactly and the
    filter must be idempotent."""
    (tmp_path / "students.csv").write_text(
        "student_id,school_id\n"
        "a,1\nm,1\nm,2\nb,1\nc,1\n"
        "x,2\ny,2\nz,2\nw,2\n"
    )
    # hand trace: m multi-school -> removed. a's only friend was m -> removed
    # at iteration 1 of the fixed point along with y (friends x? no: y-b and
    # y-c are cross-school). x,z,w form a same-school triangle and stay;
    # b,c are mutual same-school friends and stay.
    (tmp_path / "edges.csv").write_text(
        "student_id_a,student_id_b\n"
        "a,m\nb,c\ny,b\ny,c\nx,z\nx,w\nz,w\n"
    )
    (tmp_path / "schools.csv").write_text(
        "school_id,latitude,longitude,score\n"
        "1,59.93,30.31,60.0\n2,59.95,30.35,70.0\n"
    )
    (tmp_path / "apartments.csv").write_text(
        "latitude,longitude,price,area\n59.94,30.33,9000000,45\n"
    )
    raw = parse_inputs(
        tmp_path / "students.csv", tmp_path / "edges.csv",
        tmp_path / "schools.csv", tmp_path / "apartments.csv",
    )
    graph, roster, rep = apply_filters(raw, FilterConfig())
    expected = {
        "students_removed_multi_school": 1,
        "students_removed_no_same_school_friend": 2,  # a and y
        "students_removed_school_filtered": 0,
        "schools_removed_oversize": 0,
        "schools_removed_missing_score": 0,
        "schools_removed_excluded_ids": 0,
        "edges_dropped_dangling": 0,
    }
    actual = {k: getattr(rep, k) for k in expected}
    counts_ok = actual == expected and set(graph.assignment) == {"b", "c", "x", "z", "w"}

    again = raw_from_ids(
        claims={s: {g} for s, g in graph.assignment.items()},
        edges=set(graph.edges),
        schools=raw.schools,
        apartments=raw.apartments,
    )
    graph2, _, rep2 = apply_filters(again)
    idempotent = same_graph(graph2, graph) and (
        rep2.students_removed_no_same_school_friend == 0
        and rep2.students_removed_multi_school == 0
    )
    report("7 filter correctness", counts_ok and idempotent,
           f"counts {actual}, idempotent={idempotent}")
