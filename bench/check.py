"""Output checks for one `geoseg analyze` run on a seeded synthetic city.

Every check compares against something known without running analyze:
the network planted by `synth.generate_city`, the filter counts the
dirtier derived by construction, and the planted-truth bands of the
acceptance criteria. Each check returns a list of problems; an empty
list means the run is correct.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os

from geoseg import synth

OUTPUTS = (
    "filter_report.json",
    "network_a.csv",
    "network_ahat.csv",
    "decay_curve.csv",
    "decay_fit.json",
    "segregation_profile.csv",
    "null_distribution.csv",
    "report.json",
)
PLANTED_EXPONENT = -0.62
EXPONENT_BAND = 0.08
MAX_NULL_P = 0.01


def synth_config(params: dict, seed: int) -> synth.SynthConfig:
    """The SynthConfig `geoseg synth` builds from the workload's flags;
    every other field keeps the CLI default, which equals the dataclass
    default."""
    return synth.SynthConfig(
        n_schools=params["n_schools"],
        homophily_scale=float(params["homophily"]),
        seed=seed,
    )


def planted_network_rows(cfg: synth.SynthConfig) -> list[list[str]]:
    """network_a.csv rows (header excluded) of the planted network."""
    _, net, _ = synth.generate_city(cfg)
    return [[a, b, str(w)] for a, b, w in net.nonzero_pairs()]


def check_city(city_dir, params: dict, cfg: synth.SynthConfig) -> list[str]:
    """The synth run used the configuration the benchmark asked for."""
    with open(os.path.join(city_dir, "ground_truth.json")) as f:
        truth = json.load(f)
    written = {k: truth[k] for k in ("config", "n_apartments", "students_per_school")}
    want = {
        "config": json.loads(json.dumps(dataclasses.asdict(cfg))),
        "n_apartments": params["n_apartments"],
        "students_per_school": params["students_per_school"],
    }
    if written != want:
        return [f"ground_truth.json has {written}, wanted {want}"]
    return []


def _csv_rows(path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def check_outputs(out_dir, planted_rows: list[list[str]],
                  expected_filter: dict) -> list[str]:
    missing = [name for name in OUTPUTS
               if not os.path.isfile(os.path.join(out_dir, name))]
    if missing:
        return [f"missing outputs {missing}"]
    try:
        return _check_contents(out_dir, planted_rows, expected_filter)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check_contents(out_dir, planted_rows, expected_filter) -> list[str]:
    problems = []

    rows = _csv_rows(os.path.join(out_dir, "network_a.csv"))
    if rows[:1] != [["school_a", "school_b", "weight"]]:
        problems.append(f"network_a.csv header {rows[:1]}")
    elif rows[1:] != planted_rows:
        differ = sum(1 for a, b in zip(rows[1:], planted_rows) if a != b)
        problems.append(
            f"network_a.csv differs from the planted network: {len(rows) - 1} "
            f"rows vs {len(planted_rows)}, {differ} aligned rows differ"
        )

    with open(os.path.join(out_dir, "filter_report.json")) as f:
        filter_report = json.load(f)
    if filter_report != expected_filter:
        wrong = sorted(k for k in set(filter_report) | set(expected_filter)
                       if filter_report.get(k) != expected_filter.get(k))
        problems.append(f"filter_report.json differs from expected in {wrong}")

    with open(os.path.join(out_dir, "decay_fit.json")) as f:
        exponent = json.load(f).get("exponent")
    if exponent is None or abs(exponent - PLANTED_EXPONENT) > EXPONENT_BAND:
        problems.append(
            f"decay exponent {exponent} not within {EXPONENT_BAND} of "
            f"{PLANTED_EXPONENT}"
        )

    with open(os.path.join(out_dir, "report.json")) as f:
        null = json.load(f)["null_model"]
    if not null["empirical_p"] <= MAX_NULL_P:
        problems.append(f"null empirical_p {null['empirical_p']} > {MAX_NULL_P}")
    if not null["observed"] > 0:
        problems.append(f"observed S_d {null['observed']} is not positive")
    # analyze bins the tie curve over the same distance matrix the null
    # model reads, so every school pair falls in a populated bin
    if null["uncovered_pairs"] != 0:
        problems.append(f"null model left {null['uncovered_pairs']} pairs uncovered")
    return problems
