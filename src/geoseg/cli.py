"""Command-line entry point.

Subcommands:
  analyze  ingest -> networks -> decay -> segregation -> null model -> report
  synth    generate a synthetic city in the ingest CSV schemas

Exit codes: 0 ok, 2 input/validation error, 3 internal error. All
randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import shutil
import sys
import tempfile
import traceback

# When numpy loads OpenBLAS, OpenBLAS starts a worker thread per extra
# core, and each spins for about 0.1 s of CPU before it sleeps. analyze's
# BLAS calls are 1-D dot products, which run on the calling thread, so
# the workers would never get work. This must run before numpy is first
# imported, which the imports below do; a value the caller set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import decay, geo, ingest, network, nullmodel, segregation, synth  # noqa: E402
from .errors import DegenerateFit, GeosegError, KOutOfRange, TooFewBins  # noqa: E402
from .model import GeoPoint, write_json  # noqa: E402

REPORT_SCHEMA_VERSION = 2

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MALLOC_THRESHOLD_BYTES = 1 << 20


def _pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds at 1 MiB; True if it did.

    By default glibc raises both thresholds to the size of the first large
    block it frees, so the large blocks that follow (the pair table's sort
    order and pairs, the 1 MB row blocks of the school-pair builders) land
    in the heap, and whether their pages go back to the system depends on
    the order of the frees: peak RSS then moves by several MB from one run
    to the next. Fixed thresholds return every block of 1 MiB or more when
    it is freed. A no-op off Linux and where the C library has no mallopt."""
    if not sys.platform.startswith("linux"):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, _MALLOC_THRESHOLD_BYTES) == 1
               for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD))


def _check_counts(args) -> None:
    """Reject bad settings before any input is parsed.

    Outputs are written atomically, so a setting that fails late leaves no
    output behind; this check makes it fail before the parse. A negative
    --seed would exit 3 (ValueError from SeedSequence), a NaN or infinite
    --bin-km fail after the parse (InvalidValue from the decay curve), a
    --max-cohort < 1 filter out every school, and a negative
    --min-pairs-per-bin pass unremarked."""
    if args.simulations < 100:
        raise GeosegError(f"--simulations must be >= 100, got {args.simulations}")
    if args.permutations != 0 and args.permutations < 100:
        raise GeosegError(
            f"--permutations must be 0 or >= 100, got {args.permutations}"
        )
    for flag, value, least in (("--k", args.k, 1), ("--null-k", args.null_k, 1),
                               ("--seed", args.seed, 0),
                               ("--max-cohort", args.max_cohort, 1),
                               ("--min-pairs-per-bin", args.min_pairs_per_bin, 0)):
        if value < least:
            raise GeosegError(f"{flag} must be >= {least}, got {value}")
    for flag, value in (("--bin-km", args.bin_km), ("--radius-km", args.radius_km)):
        if not (math.isfinite(value) and value > 0):
            raise GeosegError(f"{flag} must be finite and > 0, got {value}")


def _check_out_dir(out_dir: str) -> None:
    """Reject an --out-dir that exists and is not a directory, or that lies
    below a file: writing into it would fail only after the whole run. The
    nearest existing ancestor must be a directory; a dangling symlink
    exists and is not one."""
    path = target = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        where = "" if path == target else f" lies below {path}, which"
        raise GeosegError(f"--out-dir {out_dir}{where} exists and is not a directory")


def _write_atomically(out_dir: str, write) -> None:
    """Check --out-dir, then call write(work) on a temporary sibling of it
    and move the files written there into it only once write returns, so
    a failed run leaves no output in --out-dir."""
    _check_out_dir(out_dir)
    out_dir = os.path.abspath(out_dir)
    parent = os.path.dirname(out_dir)
    os.makedirs(parent, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f".{os.path.basename(out_dir)}.", dir=parent)
    try:
        write(work)
        os.makedirs(out_dir, exist_ok=True)
        for name in sorted(os.listdir(work)):
            os.replace(os.path.join(work, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_analyze(args) -> None:
    _check_counts(args)
    try:
        center = GeoPoint(args.center_lat, args.center_lon)
    except GeosegError as exc:
        raise GeosegError(f"--center-lat/--center-lon: {exc}") from None
    for path in (args.students, args.edges, args.schools, args.apartments):
        if not os.path.exists(path):
            raise GeosegError(f"input file not found: {path}")
    _write_atomically(args.out_dir, lambda work: _analyze(args, center, work))


def _analyze(args, center: GeoPoint, out_dir: str) -> None:
    raw = ingest.parse_inputs(args.students, args.edges, args.schools,
                              args.apartments)
    config = ingest.FilterConfig(
        max_cohort=args.max_cohort,
        excluded_school_ids=tuple(args.exclude_school),
    )
    graph, roster, filter_report = ingest.apply_filters(raw, config)
    # the roster is known: reject a k beyond it before any stage runs
    for flag, k in (("--k", args.k), ("--null-k", args.null_k)):
        if k > len(roster) - 1:
            raise KOutOfRange(f"{flag}: k={k} outside [1, {len(roster) - 1}]")
    # later stages read only the survivors and the apartments: drop the
    # parsed rows, and the student graph once the networks are counted, so
    # they do not sit under the memory peak of the statistics
    apartments = raw.apartments
    del raw
    write_json(os.path.join(out_dir, "filter_report.json"), filter_report.to_dict())

    net_a, intra = network.build_count_network(graph, roster)
    net_ahat = network.build_min_symmetrized_network(graph, roster)
    del graph
    network.write_edge_list_csv(net_a, os.path.join(out_dir, "network_a.csv"))
    network.write_edge_list_csv(net_ahat,
                                os.path.join(out_dir, "network_ahat.csv"))
    del net_ahat  # read no more: the null model's children would inherit it

    dm = geo.school_distance_matrix(roster)
    curve = decay.tie_probability_curve(net_a, dm, args.bin_km)
    # the null model's children draw while the observed statistics run
    with nullmodel.NullRun(roster, dm, curve, args.null_k, args.simulations,
                           args.seed) as run:
        fit_payload = {"bin_km": args.bin_km, "min_pairs_per_bin": args.min_pairs_per_bin}
        try:
            exponent, prefactor = decay.fit_power_law(
                curve, min_pairs_per_bin=args.min_pairs_per_bin
            )
            fit_payload.update({"exponent": exponent, "prefactor": prefactor})
        except (TooFewBins, DegenerateFit) as exc:
            # fit is optional curve metadata; the null model needs only the bins
            fit_payload.update({"exponent": None, "prefactor": None, "error": str(exc)})
        decay.write_curve_csv(curve, os.path.join(out_dir, "decay_curve.csv"))
        write_json(os.path.join(out_dir, "decay_fit.json"), fit_payload)

        reports = [
            geo.neighborhood_affluence_segregation(
                roster, apartments, args.radius_km, args.permutations, args.seed),
            geo.center_distance_correlation(roster, center, args.permutations, args.seed),
        ]
        # one ranking per school and kind: the --k reports, the k=1..K profile
        # and the observed S_d(--null-k) all read prefixes of these tables
        geo_means = segregation.geographic_means(roster, dm, args.k, args.seed)
        dig_means = segregation.digital_means(roster, net_a, max(args.k, args.null_k),
                                              args.seed)
        reports += [
            segregation.geographic_report(roster, geo_means, args.k, args.seed,
                                          args.permutations),
            segregation.digital_report(roster, dig_means, args.k, args.seed,
                                       args.permutations),
            segregation.degree_outcome_correlation(roster, net_a, args.permutations,
                                                   args.seed),
        ]

        profile = [(segregation.geographic_report(roster, geo_means, k, args.seed),
                    segregation.digital_report(roster, dig_means, k, args.seed))
                   for k in range(1, args.k + 1)]
        segregation.write_profile_csv(
            profile, os.path.join(out_dir, "segregation_profile.csv")
        )

        observed = segregation.digital_report(roster, dig_means, args.null_k,
                                              args.seed).value
        null_result = nullmodel.null_distribution_s_d(
            roster, dm, curve, args.null_k, args.simulations, args.seed, observed,
            run=run)
    nullmodel.write_null_samples_csv(
        null_result, os.path.join(out_dir, "null_distribution.csv")
    )

    write_json(os.path.join(out_dir, "report.json"), {
        "schema_version": REPORT_SCHEMA_VERSION,
        "seed": args.seed,
        "settings": {
            "k": args.k,
            "null_k": args.null_k,
            "radius_km": args.radius_km,
            "bin_km": args.bin_km,
            "simulations": args.simulations,
            "permutations": args.permutations,
            "max_cohort": args.max_cohort,
            "center_lat": args.center_lat,
            "center_lon": args.center_lon,
        },
        "filter_report": filter_report.to_dict(),
        "intra_school_edges": intra,
        "decay_fit": fit_payload,
        "segregation": {r.statistic_name: r.to_dict() for r in reports},
        "null_model": null_result.to_dict(),
    })


def run_synth(args) -> None:
    _write_atomically(args.out_dir, lambda work: _synth(args, work))


def _synth(args, out_dir: str) -> None:
    cfg = synth.SynthConfig(
        n_schools=args.n_schools,
        city_radius_km=args.city_radius,
        decay_prefactor=args.p0,
        decay_exponent=args.alpha,
        plateau_distance_km=args.d0,
        homophily_scale=args.homophily,
        degree_boost=args.degree_boost,
        spatial_score_gradient=args.gradient,
        seed=args.seed,
    )
    roster, net, truth = synth.generate_city(cfg)
    apartments = synth.generate_apartments(
        cfg, roster, args.n_apartments, args.price_coupling, args.seed
    )
    truth["n_apartments"] = args.n_apartments
    truth["price_coupling"] = args.price_coupling
    truth["students_per_school"] = args.students_per_school
    synth.emit_city(
        out_dir, roster, net, truth, apartments,
        seed=args.seed, students_per_school=args.students_per_school,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoseg",
        description="School-network segregation analysis pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full pipeline on input files")
    p.add_argument("--students", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--schools", required=True)
    p.add_argument("--apartments", required=True)
    p.add_argument("--center-lat", type=float, required=True)
    p.add_argument("--center-lon", type=float, required=True)
    p.add_argument("--bin-km", type=float, default=decay.DEFAULT_BIN_WIDTH_KM)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--null-k", type=int, default=1,
                   help="neighbor count for the null model (k > 1 is an extension)")
    p.add_argument("--radius-km", type=float, default=1.0)
    p.add_argument("--simulations", type=int, default=1000)
    p.add_argument("--permutations", type=int, default=1000)
    p.add_argument("--min-pairs-per-bin", type=int,
                   default=decay.DEFAULT_MIN_PAIRS_PER_BIN)
    p.add_argument("--max-cohort", type=int, default=ingest.DEFAULT_MAX_COHORT)
    p.add_argument("--exclude-school", action="append", default=[])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=run_analyze)

    p = sub.add_parser("synth", help="generate a synthetic city as CSV files")
    p.add_argument("--n-schools", type=int, default=600)
    p.add_argument("--city-radius", type=float, default=15.0)
    p.add_argument("--p0", type=float, default=0.75)
    p.add_argument("--alpha", type=float, default=-0.62)
    p.add_argument("--d0", type=float, default=1.0)
    p.add_argument("--homophily", type=float, default=0.0)
    p.add_argument("--degree-boost", type=float, default=0.0)
    p.add_argument("--gradient", type=float, default=0.0)
    p.add_argument("--n-apartments", type=int, default=2000)
    p.add_argument("--price-coupling", type=float, default=0.0)
    p.add_argument("--students-per-school", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=run_synth)
    return parser


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (GeosegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # anything else is a geoseg bug, not bad input
        traceback.print_exc()
        print("internal error (exit 3): please report the traceback above",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
