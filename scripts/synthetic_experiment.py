#!/usr/bin/env python3
"""End-to-end round trip on a synthetic city.

Generates a homophilous city, runs the full analyze pipeline on the
emitted CSV files, and prints recovered statistics next to the planted
ground truth. Each geoseg command runs as a child process, with this
interpreter's warning and optimisation flags, and its wall time is
printed beside that child's own peak RSS, read with os.wait4. It prints
every statistic of report.json's segregation block with its permutation
p. Exits with geoseg's nonzero exit code when synth or analyze fails.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def run_geoseg(argv) -> tuple[int, float]:
    """Run `python -m geoseg.cli argv` as a child process; returns its exit
    code and its own peak resident set size in MB (ru_maxrss counts bytes
    on macOS and KB elsewhere)."""
    flags = [f"-W{option}" for option in sys.warnoptions] + ["-O"] * sys.flags.optimize
    proc = subprocess.Popen([sys.executable, *flags, "-m", "geoseg.cli", *argv])
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)


def run(n_schools, homophily, seed, workdir) -> int:
    """Returns 0, or the exit code of the first geoseg command that failed."""
    city = workdir / "city"
    out = workdir / "results"
    synth = [
        "synth",
        "--n-schools", str(n_schools),
        "--homophily", str(homophily),
        "--seed", str(seed),
        "--out-dir", str(city),
    ]
    analyze = [
        "analyze",
        "--students", str(city / "students.csv"),
        "--edges", str(city / "edges.csv"),
        "--schools", str(city / "schools.csv"),
        "--apartments", str(city / "apartments.csv"),
        "--center-lat", "0", "--center-lon", "0",
        "--k", "20", "--radius-km", "3",
        "--simulations", "1000",
        "--seed", str(seed),
        "--out-dir", str(out),
    ]
    for step, argv in (("synth", synth), ("analyze", analyze)):
        start = time.perf_counter()
        code, peak_mb = run_geoseg(argv)
        if code != 0:
            return code
        print(f"{step:<7}: {time.perf_counter() - start:.2f} s, "
              f"peak RSS {peak_mb:.1f} MB", flush=True)

    truth = json.loads((city / "ground_truth.json").read_text())
    report = json.loads((out / "report.json").read_text())
    seg = report["segregation"]
    null = report["null_model"]
    print(f"planted decay exponent : {truth['config']['decay_exponent']}")
    print(f"recovered exponent     : {report['decay_fit']['exponent']:.3f}")
    print(f"planted homophily scale: {truth['config']['homophily_scale']}")
    for name, stat in seg.items():
        k = stat["settings"].get("k")
        label = name if k is None else f"{name}(k={k})"
        print(f"{label:<35}: {stat['value']:+.3f} (p = {stat['p_value']:.4g})")
    print(f"null S_d(1): mean {null['simulated_mean']:.4f}, "
          f"sd {null['simulated_sd']:.4f}, max {null['simulated_max']:.4f}, "
          f"observed {null['observed']:.4f}, p {null['empirical_p']:.4g}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-schools", type=int, default=600)
    parser.add_argument("--homophily", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--keep", type=Path, default=None,
                        help="directory to keep outputs in (default: temp)")
    args = parser.parse_args()
    if args.keep:
        args.keep.mkdir(parents=True, exist_ok=True)
        sys.exit(run(args.n_schools, args.homophily, args.seed, args.keep))
    with tempfile.TemporaryDirectory() as tmp:
        code = run(args.n_schools, args.homophily, args.seed, Path(tmp))
    sys.exit(code)
