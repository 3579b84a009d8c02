"""Empirical tie-probability-vs-distance curve and its power-law fit."""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateFit, InvalidValue, MismatchedIds, TooFewBins
from .geo import DistanceMatrix, distance_bins
from .model import DecayCurve, SchoolNetwork, write_csv

DEFAULT_BIN_WIDTH_KM = 1.0
DEFAULT_MIN_PAIRS_PER_BIN = 30


def tie_probability_curve(
    net: SchoolNetwork, dm: DistanceMatrix, bin_width_km: float = DEFAULT_BIN_WIDTH_KM
) -> DecayCurve:
    """Per distance bin [m*w, (m+1)*w): fraction of unordered school pairs
    with at least one tie. The last bin holds the farthest pair."""
    if net.schools != dm.ids:
        raise MismatchedIds("network and distance matrix school lists differ")
    # int() of a NaN width fails, and an infinite width gives NaN edges
    if not (math.isfinite(bin_width_km) and bin_width_km > 0):
        raise InvalidValue(f"bin width must be finite and positive, got {bin_width_km}")
    farthest = float(dm.distances.max(initial=0.0))
    # a curve and pair table of more bins than the distance matrix has
    # entries would outgrow it, almost every bin empty: refuse that before
    # the edges are allocated (span is inf for a subnormal width)
    span = farthest / bin_width_km
    if span >= dm.distances.size:
        bins = math.floor(span) + 1 if math.isfinite(span) else span
        raise InvalidValue(f"bin width {bin_width_km} km gives {bins} bins, more "
                           f"than the {dm.distances.size} distance matrix entries")
    # binned by the pair table the null model reads, up to the first edge
    # past the farthest pair
    edges = np.arange(int(span) + 3) * bin_width_km
    edges = edges[: np.searchsorted(edges, farthest, side="right") + 1]
    pair_counts = np.diff(dm.pairs_by_bin(edges)[2][:-1])
    tie_counts = np.bincount(distance_bins(edges, dm.distances[net.a, net.b]),
                             minlength=len(edges))[:-1]
    probs = np.divide(tie_counts, pair_counts, out=np.full(len(pair_counts), np.nan),
                      where=pair_counts > 0)
    return DecayCurve(bin_edges=edges, probabilities=probs, pair_counts=pair_counts)


def fit_power_law(
    curve: DecayCurve,
    d_min_km: float | None = None,
    min_pairs_per_bin: int = DEFAULT_MIN_PAIRS_PER_BIN,
):
    """Pair-count-weighted least squares of log(probability) on
    log(bin midpoint) over bins beyond d_min_km. Returns (exponent,
    prefactor) and stores both on the curve.

    d_min_km defaults to the first bin's upper edge: the short-range
    plateau is excluded from the power-law regime. Zero-probability bins
    cannot enter the fit (log undefined).
    """
    if d_min_km is None:
        d_min_km = float(curve.bin_edges[1])
    mids = curve.midpoints
    eligible = (
        (mids > d_min_km)
        & (curve.pair_counts >= min_pairs_per_bin)
        & ~np.isnan(curve.probabilities)
        & (curve.probabilities > 0)
    )
    if eligible.sum() < 3:
        raise TooFewBins(
            f"only {int(eligible.sum())} bins eligible beyond {d_min_km} km"
        )
    x = np.log(mids[eligible])
    if np.all(x == x[0]):
        raise DegenerateFit("all eligible bin midpoints coincide")
    y = np.log(curve.probabilities[eligible])
    # polyfit weights multiply residuals; sqrt gives pair_count-weighted OLS
    slope, intercept = np.polyfit(x, y, 1, w=np.sqrt(curve.pair_counts[eligible]))
    curve.fitted_exponent = float(slope)
    curve.fitted_prefactor = float(np.exp(intercept))
    return curve.fitted_exponent, curve.fitted_prefactor


def write_curve_csv(curve: DecayCurve, path) -> None:
    """Plot-ready bin_mid_km, probability, pair_count rows."""
    write_csv(path, ["bin_mid_km", "probability", "pair_count"], (
        [repr(float(mid)), "" if np.isnan(p) else repr(float(p)), int(c)]
        for mid, p, c in zip(curve.midpoints, curve.probabilities, curve.pair_counts)))
