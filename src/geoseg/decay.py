"""Empirical tie-probability-vs-distance curve and its power-law fit.

The curve's bins and pair counts are the distance matrix's pair table
(`DistanceMatrix.uniform_bins`), which sizes the bins; the null model and
the geographic ranking read the same kept table. The curve itself counts
the tied pairs per bin.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateFit, InvalidValue, MismatchedIds, TooFewBins
from .geo import DistanceMatrix, distance_bins
from .model import DecayCurve, SchoolNetwork, write_csv

DEFAULT_BIN_WIDTH_KM = 1.0
DEFAULT_MIN_PAIRS_PER_BIN = 30
# tied pairs per block of the curve's tie count: about 1 MB of temporaries
_TIE_BLOCK = 1 << 14


def tie_probability_curve(
    net: SchoolNetwork, dm: DistanceMatrix, bin_width_km: float = DEFAULT_BIN_WIDTH_KM
) -> DecayCurve:
    """Per distance bin [m*w, (m+1)*w): fraction of unordered school pairs
    with at least one tie. The last bin holds the farthest pair. The pair
    table under these edges is kept on dm."""
    if net.schools != dm.ids:
        raise MismatchedIds("network and distance matrix school lists differ")
    # int() of a NaN width fails, and an infinite width gives NaN edges
    if not (math.isfinite(bin_width_km) and bin_width_km > 0):
        raise InvalidValue(f"bin width must be finite and positive, got {bin_width_km}")
    edges = dm.uniform_bins(bin_width_km)
    # binned by the pair table the null model reads
    pair_counts = np.diff(dm.pairs_by_bin(edges)[2][:-1])
    # the tied pairs' distances, a block of ties at a time
    tie_counts = np.zeros(len(edges), dtype=np.int64)
    for lo in range(0, len(net.a), _TIE_BLOCK):
        ties = slice(lo, lo + _TIE_BLOCK)
        tie_counts += np.bincount(
            distance_bins(edges, dm.pair_distances(net.a[ties], net.b[ties])),
            minlength=len(edges))
    tie_counts = tie_counts[:-1]
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
    prefactor); the curve is left unchanged.

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
    return float(slope), float(np.exp(intercept))


def write_curve_csv(curve: DecayCurve, path) -> None:
    """Plot-ready bin_mid_km, probability, pair_count rows."""
    probs = [None if math.isnan(p) else p for p in curve.probabilities.tolist()]
    write_csv(path, ["bin_mid_km", "probability", "pair_count"],
              zip(curve.midpoints.tolist(), probs, curve.pair_counts.tolist()))
