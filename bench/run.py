"""geoseg benchmark: `geoseg analyze` end to end on seeded synthetic cities.

Run from the repository root:

    python3 bench/run.py --workload paper600 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --runs 3 --results bench_results.json

One workload run generates the city from --seed (`geoseg synth`, plus the
dirtier for ingest90k), then times `geoseg analyze` as a fresh
subprocess, closed-loop and one at a time, for --seconds (at least two
runs), and checks every run's outputs. The last stdout line is a JSON
object {correct, attempted, failed, metrics}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics, taken from one in-process `cli.main` call whose public functions
are wrapped by spans.Tracer. --all runs every workload and prints one
row per workload.

Workload parameters and the layer -> end-to-end metric map are in
bench/workloads.json; names, reasons and units in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles

import dirty
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
INPUTS = ("students.csv", "edges.csv", "schools.csv", "apartments.csv")
SETUP_REPEATS = 5
MIN_ANALYZE_RUNS = 2  # two runs are needed to check byte-identical reports
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 160
THREAD_VARS = ("GEOSEG_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")
ENTRY = "import sys; from geoseg.cli import main; sys.exit(main())"


class BenchError(Exception):
    """The benchmark could not produce a measurement."""


def import_program():
    """Import geoseg from this checkout's src/, or exit non-zero."""
    init = SRC / "geoseg" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a geoseg checkout")
    sys.path.insert(0, str(SRC))
    import geoseg

    if Path(geoseg.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported geoseg from {geoseg.__file__}, not {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: Path


def run_child(args, log: Path) -> ChildRun:
    """Run one geoseg CLI process; wall time from spawn to reap, CPU and
    peak RSS from that child's own rusage (os.wait4)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *map(str, args)],
                                env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024, log)


def flags(params: dict) -> list[str]:
    out = []
    for key, value in params.items():
        out += [f"--{key.replace('_', '-')}", str(value)]
    return out


def synth_args(wl: dict, seed: int, city: Path) -> list[str]:
    return ["synth", *flags(wl["synth"]), "--seed", str(seed), "--out-dir", str(city)]


def analyze_args(wl: dict, seed: int, city: Path, out: Path) -> list[str]:
    inputs = [arg for name in INPUTS
              for arg in (f"--{name.removesuffix('.csv')}", str(city / name))]
    return ["analyze", *inputs, *flags(wl["analyze"]),
            "--seed", str(seed), "--out-dir", str(out)]


def finish_setup(wl: dict, seed: int, city: Path) -> dict:
    """Dirty the synth city when the workload asks for it and write the
    filter report it expects; returns that report."""
    share = wl["dirt_share"]
    noise = dirty.dirty_city(city, share, seed) if share else None
    return dirty.write_expected(city, wl["synth"]["n_schools"],
                                wl["synth"]["students_per_school"], noise)


def setup_city(wl: dict, seed: int, city: Path) -> dict:
    run = run_child(synth_args(wl, seed, city), city.with_suffix(".log"))
    if run.exit_code != 0:
        raise BenchError(f"synth exited {run.exit_code}: {tail(run.log)}")
    return finish_setup(wl, seed, city)


def digest(city: Path) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(city)):
        h.update(name.encode())
        h.update((city / name).read_bytes())
    return h.hexdigest()


def tail(path: Path, lines: int = 3) -> str:
    return " | ".join(path.read_text(errors="replace").strip().splitlines()[-lines:])


def data_rows(path: Path) -> int:
    with open(path, "rb") as f:
        return sum(1 for _ in f) - 1


class Verifier:
    """Checks analyze outputs against the planted truth and the first
    report.json seen, so every run's report must be byte-identical."""

    def __init__(self, wl: dict, seed: int, city: Path, expected_filter: dict):
        import check  # imports geoseg, so only after import_program()

        self.check = check
        cfg = check.synth_config(wl["synth"], seed)
        self.setup_problems = check.check_city(city, wl["synth"], cfg)
        self.planted = check.planted_network_rows(cfg)
        self.expected_filter = expected_filter
        self.report: bytes | None = None

    def __call__(self, out: Path, exit_code: int, log: Path | None) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}: {tail(log) if log else ''}"]
        problems = self.check.check_outputs(out, self.planted, self.expected_filter)
        if not problems:
            report = (out / "report.json").read_bytes()
            if self.report is None:
                self.report = report
            elif report != self.report:
                problems.append("report.json differs from the first run's")
        return problems


def timed_runs(wl: dict, seed: int, city: Path, verify: Verifier, work: Path,
               min_runs: int, seconds: float):
    """Analyze runs of `city`, checked one by one: at least `min_runs`,
    then more while the next one is expected to end within `seconds`.
    Returns (runs, failed, problems)."""
    runs, failed, problems = [], 0, []
    start = time.perf_counter()
    while (len(runs) < min_runs
           or time.perf_counter() - start + median(r.wall_s for r in runs) <= seconds):
        out = work / f"out{len(runs)}"
        run = run_child(analyze_args(wl, seed, city, out), work / f"out{len(runs)}.log")
        runs.append(run)
        run_problems = verify(out, run.exit_code, run.log)
        if run_problems:
            failed += 1
            problems += [f"run {len(runs)}: {p}" for p in run_problems]
        shutil.rmtree(out, ignore_errors=True)
    return runs, failed, problems


def measure(wl: dict, seed: int, seconds: float, work: Path) -> dict:
    """Untraced runs: setup SETUP_REPEATS times, then analyze for
    `seconds` (at least MIN_ANALYZE_RUNS runs)."""
    setup_s, digests = [], set()
    for i in range(SETUP_REPEATS):
        city = work / f"city{i}"
        start = time.perf_counter()
        expected = setup_city(wl, seed, city)
        setup_s.append(time.perf_counter() - start)
        digests.add(digest(city))
    city = work / "city0"
    verify = Verifier(wl, seed, city, expected)
    problems = list(verify.setup_problems)
    if len(digests) != 1:
        problems.append("the same seed gave different inputs")

    runs, failed, run_problems = timed_runs(wl, seed, city, verify, work,
                                            MIN_ANALYZE_RUNS, seconds)
    samples = {
        "analyze_wall_s": [r.wall_s for r in runs],
        "analyze_cpu_s": [r.cpu_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "setup_s": setup_s,
    }
    return {"attempted": len(runs), "failed": failed,
            "problems": problems + run_problems,
            "values": {k: median(v) for k, v in samples.items()}, "samples": samples}


def import_seconds() -> float:
    """Median seconds a fresh interpreter takes to import geoseg.cli."""
    code = ("import time; t = time.perf_counter(); import geoseg.cli; "
            "print(time.perf_counter() - t)")
    imports = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        imports.append(float(done.stdout))
    return median(imports)


PEAK_ALLOC = {
    "geo.neighborhood_affluence_segregation_peak_alloc_mb":
        "geo.neighborhood_affluence_segregation",
    "nullmodel.peak_alloc_mb": "nullmodel.null_distribution_s_d",
}


def measure_traced(wl: dict, seed: int, work: Path) -> dict:
    """Untraced reference runs, then one traced in-process analyze, a
    separate tracemalloc pass and fresh-interpreter import timings."""
    from geoseg import cli

    city = work / "city"
    synth_tracer = spans.Tracer()
    with synth_tracer.patched():
        if cli.main(synth_args(wl, seed, city)) != 0:
            raise BenchError("in-process synth failed")
    verify = Verifier(wl, seed, city, finish_setup(wl, seed, city))
    runs, failed, run_problems = timed_runs(wl, seed, city, verify, work,
                                            MIN_ANALYZE_RUNS, 0)
    problems = verify.setup_problems + [f"untraced {p}" for p in run_problems]

    tracer = spans.Tracer(capture=("ingest.apply_filters", *PEAK_ALLOC.values()))
    out = work / "traced"
    with tracer.patched(), tracer.span("cli.analyze") as root:
        exit_code = cli.main(analyze_args(wl, seed, city, out))
    run_problems = verify(out, exit_code, None)
    failed += bool(run_problems)
    problems += [f"traced run: {p}" for p in run_problems]
    attempted = len(runs) + 1
    if run_problems:
        return {"attempted": attempted, "failed": failed, "problems": problems,
                "values": None}

    peak = {}
    for metric, name in PEAK_ALLOC.items():
        fn, args, kwargs, _ = tracer.captured[name]
        peak[metric] = spans.peak_alloc_mb(fn, args, kwargs)

    report = json.loads((out / "report.json").read_text())
    null = report["null_model"]
    drawn = null["simulations"] + null["discarded"]
    graph = tracer.captured["ingest.apply_filters"][3][0]
    t = tracer.total
    values = {
        **peak,
        "ingest.rows_per_s": sum(data_rows(city / f) for f in INPUTS)
        / t("ingest.parse_inputs"),
        "ingest.fixed_point_iterations": report["filter_report"]["fixed_point_iterations"],
        "ingest.students_kept": len(graph.assignment),
        "ingest.edges_kept": len(graph.edges),
        "network.a_pairs": data_rows(out / "network_a.csv"),
        "segregation.profile_s_per_k":
            t("segregation.segregation_profile") / report["settings"]["k"],
        "nullmodel.ms_per_sim": 1000 * t("nullmodel.null_distribution_s_d") / drawn,
        "nullmodel.accept_ratio": null["simulations"] / drawn,
        "cli.import_s": import_seconds(),
        "cli.untraced_s": root.record.duration - tracer.children_time(root.index),
        # what the wrappers added: their measured cost per span times the
        # spans recorded (the root span is not a wrapper)
        "trace.overhead_s": spans.span_cost_s() * (len(tracer.spans) - 1),
    }
    for name, _ in spans.TRACED:
        values.setdefault(f"{name}_calls", tracer.calls(name))
        source = synth_tracer if name.startswith("synth.") else tracer
        values.setdefault(f"{name}_s", source.total(name))
    write_trace_summary(work.name.rsplit("-", 1)[0], tracer, synth_tracer,
                        {"discarded": null["discarded"],
                         "uncovered_pairs": null["uncovered_pairs"]})
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "values": values}


def write_trace_summary(label: str, tracer, synth_tracer, null_model: dict) -> None:
    """Per span name: calls, inclusive and self seconds, plus the null
    model's counts that are 0 on these workloads; kept after the run."""
    summary = {"null_model": null_model}
    for key, source in (("analyze", tracer), ("synth", synth_tracer)):
        self_times = source.self_times()
        summary[key] = {
            name: {"calls": source.calls(name), "total_s": source.total(name),
                   "self_s": self_times[name]}
            for name in sorted(self_times)
        }
    (WORK / f"trace-{label}.json").write_text(json.dumps(summary, indent=2) + "\n")


def load_spec() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    with open(ROOT / "bench" / "workloads.json") as f:
        workloads = json.load(f)["workloads"]
    return bench, workloads


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    bench, workloads = load_spec()
    if name not in workloads:
        raise SystemExit(f"error: unknown workload {name!r}; one of {sorted(workloads)}")
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            measured = measure_traced(workloads[name], seed, work)
        else:
            measured = measure(workloads[name], seed, seconds, work)
    except Exception as exc:  # counted as a failed run, not fatal
        measured = {"attempted": 1, "failed": 1, "values": None,
                    "problems": [f"{type(exc).__name__}: {exc}"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in measured["problems"]:
        print(f"{name} seed {seed}: {problem}", file=sys.stderr)
    metrics = bench["per_layer"] if trace else bench["end_to_end"]
    values = measured["values"]
    measured["result"] = {
        "correct": not measured["problems"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics} if values else {},
    }
    return measured


# --- one command for every workload ---------------------------------------

def machine_info() -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def quartiles(values) -> str:
    if len(values) == 1:
        return f"{values[0]:.4g} (n=1)"
    q1, q2, q3 = quantiles(values, n=4)
    return f"{q2:.4g} ({q1:.4g}-{q3:.4g}, n={len(values)})"


def run_all(args) -> int:
    bench, workloads = load_spec()
    columns = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    columns.append(("error_rate", "ratio"))
    results = {"machine": machine_info(), "seconds": args.seconds,
               "first_seed": args.seed, "runs": args.runs, "workloads": {}}
    rows = []
    for name in workloads:
        pooled = {metric: [] for metric, _ in columns[:-1]}
        entry = results["workloads"][name] = {"runs": []}
        attempted = failed = 0
        for r in range(args.runs):
            for trace in sorted({0, args.trace}):
                seed = args.seed + r
                measured = run_workload(name, seed, args.seconds, bool(trace))
                result = measured["result"]
                attempted += result["attempted"]
                failed += result["failed"]
                entry["runs"].append({"seed": seed, "trace": trace, **result})
                for metric, values in measured.get("samples", {}).items():
                    pooled[metric] += values
        entry["error_rate"] = failed / attempted
        entry["samples"] = pooled
        rows.append([name] + [quartiles(pooled[m]) if pooled[m] else "-"
                              for m, _ in columns[:-1]]
                    + [f"{failed / attempted:.3g} ({failed}/{attempted})"])
    header = ["workload"] + [f"{m} [{unit}]" for m, unit in columns]
    widths = [max(len(str(row[i])) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    Path(args.results).write_text(json.dumps(results, indent=2) + "\n")
    print(f"results written to {args.results}")
    return 0 if all(run["correct"] for w in results["workloads"].values()
                    for run in w["runs"]) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print one row per workload")
    parser.add_argument("--runs", type=int, default=1,
                        help="with --all: runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--results", default="bench_results.json",
                        help="with --all: where to write the results file")
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload NAME or --all")
    import_program()
    WORK.mkdir(exist_ok=True)
    if args.all:
        return run_all(args)
    measured = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(measured["result"]))
    return 0 if measured["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
