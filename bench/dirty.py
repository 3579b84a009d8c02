"""Seeded input dirtier and the filter report it expects.

`dirty_city` appends noise rows to a city written by `geoseg synth` so
that the ingest filters do real work, while the expected outcome stays
known by construction. Every kind of noise adds `share` of the clean
rows it joins (at least one row, so every filter counter moves):

- multi-school students (share of the students): each claims two planted
  schools and has one friend in each; the filter drops them, and their
  edges with them;
- one tail student per multi-school student, in its first school, whose
  only friend is the multi-school student; the no-same-school-friend rule
  drops it once the multi-school student is gone;
- score-less schools (share of the schools), each with a cohort of the
  planted size wired in a cycle and one friend per student at a planted
  school; the filter drops the schools, then their students;
- dangling edges to unknown ids (each also written reversed), duplicate
  and reversed-duplicate planted edges, and self-loops (share of the
  planted edges each).

No noise row survives as a cross-school tie, so network A still equals
the planted network. The expected `filter_report.json` is derived from
the counts of rows written, never by running the filter.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

EXPECTED_REPORT = "expected_filter_report.json"
# analyze's default --max-cohort; the benchmark never overrides it
MAX_COHORT = 1000


def clean_intra_edges(n_schools: int, students_per_school: int) -> int:
    """Intra-school edges of a synth city: one cycle per cohort."""
    if students_per_school < 3:
        raise ValueError("the expected counts assume cohorts of >= 3 students")
    return n_schools * students_per_school


def expected_filter_report(n_schools: int, students_per_school: int,
                           noise: dict | None = None) -> dict:
    """filter_report.json of `analyze` on a synth city, plus the noise
    counts returned by `dirty_city` (None for an untouched city)."""
    noise = noise or {}
    tails = noise.get("multi_school", 0)
    return {
        "students_removed_no_same_school_friend": tails,
        "students_removed_multi_school": noise.get("multi_school", 0),
        "students_removed_school_filtered": noise.get("scoreless_students", 0),
        "schools_removed_oversize": 0,
        "schools_removed_missing_score": noise.get("scoreless_schools", 0),
        "schools_removed_excluded_ids": 0,
        "edges_dropped_dangling": noise.get("dangling", 0),
        # a removal can never strand another student (friendship is
        # symmetric), so the rule settles on its second pass at most
        "fixed_point_iterations": 2 if tails else 1,
        "intra_school_edges": clean_intra_edges(n_schools, students_per_school),
        "settings": {"max_cohort": MAX_COHORT, "excluded_school_ids": []},
    }


def _read_rows(path):
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        return list(reader)


def _append_rows(path, rows):
    with open(path, "a", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def dirty_city(city_dir, share: float, seed: int) -> dict:
    """Append seeded noise rows to the city's CSVs; return the counts
    that `expected_filter_report` needs."""
    rng = np.random.default_rng([seed, 0xD1])
    cohorts: dict[str, list[str]] = {}
    for student, school in _read_rows(os.path.join(city_dir, "students.csv")):
        cohorts.setdefault(school, []).append(student)
    planted_edges = _read_rows(os.path.join(city_dir, "edges.csv"))
    schools = list(cohorts)
    students = [s for cohort in cohorts.values() for s in cohort]
    cohort_size = len(students) // len(schools)

    def count(clean_rows: int) -> int:
        return max(1, round(share * clean_rows))

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    claims, edges = [], []
    n_multi = count(len(students))
    for i in range(n_multi):
        first, second = rng.choice(len(schools), size=2, replace=False)
        first, second = schools[first], schools[second]
        multi, tail = f"xm{i:05d}", f"xt{i:05d}"
        claims += [(multi, first), (multi, second), (tail, first)]
        edges += [(multi, pick(cohorts[first])), (multi, pick(cohorts[second])),
                  (multi, tail)]

    school_rows = []
    n_scoreless = count(len(schools))
    for i in range(n_scoreless):
        school = f"xz{i:03d}"
        lat, lon = rng.uniform(-0.1, 0.1, size=2)
        school_rows.append((school, repr(float(lat)), repr(float(lon)), ""))
        members = [f"{school}_u{j:03d}" for j in range(cohort_size)]
        claims += [(m, school) for m in members]
        edges += [(m, members[(j + 1) % cohort_size]) for j, m in enumerate(members)]
        edges += [(m, pick(students)) for m in members]

    n_edges = count(len(planted_edges))
    for i in range(n_edges):
        ghost, real = f"xg{i:05d}", pick(students)
        edges += [(real, ghost), (ghost, real)]
    for _ in range(n_edges):
        edges.append(tuple(pick(planted_edges)))
    for _ in range(n_edges):
        a, b = pick(planted_edges)
        edges.append((b, a))
    for _ in range(n_edges):
        s = pick(students)
        edges.append((s, s))

    _append_rows(os.path.join(city_dir, "students.csv"), claims)
    _append_rows(os.path.join(city_dir, "edges.csv"), edges)
    _append_rows(os.path.join(city_dir, "schools.csv"), school_rows)
    return {
        "multi_school": n_multi,
        "scoreless_schools": n_scoreless,
        "scoreless_students": n_scoreless * cohort_size,
        "dangling": n_edges,
    }


def write_expected(city_dir, n_schools: int, students_per_school: int,
                   noise: dict | None = None) -> dict:
    expected = expected_filter_report(n_schools, students_per_school, noise)
    with open(os.path.join(city_dir, EXPECTED_REPORT), "w") as f:
        json.dump(expected, f, indent=2, sort_keys=True)
        f.write("\n")
    return expected
