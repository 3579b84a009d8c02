"""Synthetic-city generator with planted distance decay, planted score
homophily, and planted residential structure.

Schools are placed uniformly in a disc and connected pairwise with
probability

    clamp(p0 * (max(d, d0)/d0)^alpha
          * exp(-|Ui - Uj| / h)            [homophily, when h > 0]
          * (1 + b * (Ui + Uj - 2*mean)/sd) [degree boost, when b > 0], 0, 1)

so downstream modules can be validated against known planted values. The
generator can also emit the city in the ingest CSV schemas, closing the
loop synth -> files -> ingest -> pipeline.

The school pairs are drawn a block of upper-triangle rows at a time
(`geo.upper_triangle_blocks`): each block's distances, computed from the
schools' coordinates (`DistanceMatrix.block`; no n x n matrix is built),
its tie probabilities and their uniforms, in row-major order, so the
stream and the network are those of one draw over all n(n - 1)/2 pairs,
and only the tied pairs are kept.
`expected_ties` sums the blocks' sums, so it can differ from one sum over
all pairs in the last digit. Apartments are priced in blocks of whole
apartment rows, `model.BLOCK_CELLS` apartment x school cells each, in
three block buffers allocated once, so memory stays bounded as the
apartment count grows. Each block's local mean is one matrix-vector
product, and the BLAS kernel's row sums depend on which rows share a
block: the same block rows give the same bits, but another block size
(or BLAS kernel) can move a price's last bit when price_coupling != 0.
At price_coupling 0 a price does not read the local mean, and no block
is computed.
`emit_city` realises a pair's tie weight w as w distinct cross-cohort
student pairs: a uniform w-subset of the m * m pairs, drawn for all pairs
of one weight at once by `model.k_subsets`. It writes the students,
edges and apartments files a block of rows at a time, the student ids as
rows of one byte matrix.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .errors import InvalidConfig
from .geo import _latlon_arrays, school_distance_matrix, upper_triangle_blocks
from .model import (
    BLOCK_CELLS,
    EARTH_RADIUS_KM,
    GeoPoint,
    School,
    SchoolNetwork,
    apartment_table,
    k_subsets,
    write_csv,
    write_json,
)

_DEG_PER_KM = 180.0 / (math.pi * EARTH_RADIUS_KM)
# disc center; near the equator so the km -> degrees conversion is uniform
CENTER = GeoPoint(0.0, 0.0)
# apartment price per sqm at the roster's mean local score
BASE_PRICE_PER_SQM = 100_000.0
# rows per block that emit_city writes of the students, edges and
# apartments files
WRITE_BLOCK_ROWS = 1 << 13


@dataclass(frozen=True)
class SynthConfig:
    n_schools: int = 600
    city_radius_km: float = 15.0
    decay_prefactor: float = 0.75
    decay_exponent: float = -0.62
    plateau_distance_km: float = 1.0
    homophily_scale: float = 0.0  # score units; 0 disables homophily
    degree_boost: float = 0.0  # 0 disables score-degree coupling
    score_mean: float = 60.0
    score_sd: float = 10.0
    spatial_score_gradient: float = 0.0  # score units per km east
    seed: int = 0

    def __post_init__(self):
        for f, value in zip(fields(self), astuple(self)):
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidConfig(f"{f.name} {value} is not finite")
        if self.n_schools < 10:
            raise InvalidConfig(f"n_schools {self.n_schools} < 10")
        if not 0.0 < self.decay_prefactor <= 1.0:
            raise InvalidConfig(f"decay_prefactor {self.decay_prefactor} outside (0, 1]")
        if self.decay_exponent > 0:
            raise InvalidConfig(f"decay_exponent {self.decay_exponent} > 0")
        if self.plateau_distance_km <= 0:
            raise InvalidConfig("plateau_distance_km must be positive")
        if self.city_radius_km <= 0:
            raise InvalidConfig("city_radius_km must be positive")
        if self.homophily_scale < 0 or self.degree_boost < 0:
            raise InvalidConfig("homophily_scale and degree_boost must be >= 0")
        if self.score_sd <= 0:
            raise InvalidConfig("score_sd must be positive")
        if self.seed < 0:
            raise InvalidConfig(f"seed {self.seed} < 0")


def _disc_points(rng: np.random.Generator, n: int, radius_km: float):
    """Uniform points in the disc, returned as (east_km, north_km)."""
    r = radius_km * np.sqrt(rng.random(n))
    theta = rng.random(n) * 2 * math.pi
    return r * np.cos(theta), r * np.sin(theta)


def _to_geopoints(east_km, north_km):
    lat = CENTER.latitude + north_km * _DEG_PER_KM
    lon = CENTER.longitude + east_km * _DEG_PER_KM
    return lat, lon


def generate_city(cfg: SynthConfig):
    """Returns (roster, raw-count SchoolNetwork, ground-truth dict)."""
    rng = np.random.default_rng(cfg.seed)
    east, north = _disc_points(rng, cfg.n_schools, cfg.city_radius_km)
    lat, lon = _to_geopoints(east, north)
    scores = rng.normal(cfg.score_mean, cfg.score_sd, cfg.n_schools)
    scores += cfg.spatial_score_gradient * east
    scores = np.maximum(scores, 0.0)
    roster = [
        School(f"s{i:04d}", GeoPoint(float(lat[i]), float(lon[i])), float(scores[i]))
        for i in range(cfg.n_schools)
    ]
    dm = school_distance_matrix(roster)
    # row-major blocks draw the uniforms of one rng.random over all pairs
    a, b = [], []
    expected_ties = 0.0
    for rows, upper, _ in upper_triangle_blocks(cfg.n_schools):
        i, j = np.nonzero(upper)
        i += rows.start
        j += rows.start
        p = cfg.decay_prefactor * (
            np.maximum(dm.block(rows, rows.start)[upper], cfg.plateau_distance_km)
            / cfg.plateau_distance_km
        ) ** cfg.decay_exponent
        if cfg.homophily_scale > 0:
            p = p * np.exp(-np.abs(scores[i] - scores[j]) / cfg.homophily_scale)
        if cfg.degree_boost > 0:
            p = p * (
                1.0
                + cfg.degree_boost
                * (scores[i] + scores[j] - 2 * cfg.score_mean)
                / cfg.score_sd
            )
        p = np.clip(p, 0.0, 1.0)
        ties = rng.random(len(p)) < p
        a.append(i[ties])
        b.append(j[ties])
        expected_ties += float(p.sum())
    a, b = np.concatenate(a), np.concatenate(b)
    n_ties = len(a)
    # tie weight >= 1, geometric, mimicking multi-tie school pairs
    net = SchoolNetwork([s.id for s in roster], a, b, rng.geometric(0.6, n_ties))
    truth = {
        "config": asdict(cfg),
        "center_lat": CENTER.latitude,
        "center_lon": CENTER.longitude,
        "homophily_kernel": "exp(-|dU|/h)",
        "n_ties": n_ties,
        "expected_ties": expected_ties,
    }
    return roster, net, truth


def generate_apartments(
    cfg: SynthConfig,
    roster: list[School],
    n_apartments: int,
    price_coupling: float,
    seed: int,
    noise_sd: float = 0.05,
    local_radius_km: float = 3.0,
) -> np.recarray:
    """An apartment table of apartments uniform in the disc; price couples to
    the mean score of schools within local_radius_km (nearest school when
    none in radius), normalized by the roster's score spread."""
    if n_apartments < 1:
        raise InvalidConfig(f"n_apartments {n_apartments} < 1")
    if not math.isfinite(price_coupling):
        raise InvalidConfig(f"price_coupling {price_coupling} is not finite")
    rng = np.random.default_rng(seed)
    east, north = _disc_points(rng, n_apartments, cfg.city_radius_km)
    lat, lon = _to_geopoints(east, north)
    # a price reads the local means only through the coupling, so at 0,
    # the default, their apartments x schools blocks are skipped
    z = _local_score_z(roster, east, north, local_radius_km) if price_coupling != 0 else 0.0
    price = BASE_PRICE_PER_SQM * (1.0 + price_coupling * z)
    price = price + BASE_PRICE_PER_SQM * noise_sd * rng.standard_normal(n_apartments)
    return apartment_table(lat, lon, np.maximum(price, 1.0))


def _local_score_z(roster: list[School], east: np.ndarray, north: np.ndarray,
                   local_radius_km: float) -> np.ndarray:
    """Each apartment's local mean score, the mean over the schools within
    local_radius_km (the nearest school when none is), standardized by the
    roster's score mean and spread (1 when the spread is 0)."""
    s_lat, s_lon = _latlon_arrays(roster)
    s_east = EARTH_RADIUS_KM * np.radians(s_lon - CENTER.longitude)
    s_north = EARTH_RADIUS_KM * np.radians(s_lat - CENTER.latitude)
    scores = np.array([s.score for s in roster])
    mean, sd = scores.mean(), scores.std()
    sd = sd if sd > 0 else 1.0
    # whole rows per block; w @ scores on the same block rows gives the
    # same bits, and the buffers are reused, not mapped afresh per block
    n = len(east)
    step = min(max(1, BLOCK_CELLS // len(roster)), n)
    d2_buf, sq_buf, w_buf = (np.empty((step, len(roster))) for _ in range(3))
    local_mean = np.empty(n)
    for lo in range(0, n, step):
        rows = slice(lo, min(lo + step, n))
        d2, sq, w = (buf[:rows.stop - lo] for buf in (d2_buf, sq_buf, w_buf))
        np.square(np.subtract(east[rows, None], s_east, out=d2), out=d2)
        np.square(np.subtract(north[rows, None], s_north, out=sq), out=sq)
        d2 += sq
        # w is 0/1: the schools within the radius, else the nearest one
        np.less(d2, local_radius_km**2, out=w)
        count = np.count_nonzero(w, axis=1)
        none_close = count == 0
        w[none_close, np.argmin(d2[none_close], axis=1)] = 1.0
        count[none_close] = 1
        local_mean[rows] = (w @ scores) / count
    return (local_mean - mean) / sd


def _byte_rows(strings) -> np.ndarray:
    """The strings' UTF-8 bytes as the rows of a NUL-padded uint8 matrix."""
    padded = np.array([s.encode() for s in strings], dtype=bytes)
    return padded.view(np.uint8).reshape(len(padded), padded.itemsize)


def _write_pairs(path, header: str, n_rows: int, fields) -> None:
    """The header line, then n_rows lines `first,second`, a block of
    WRITE_BLOCK_ROWS at a time: fields(rows) gives the block's two fields
    as NUL-padded uint8 matrices, and the padding is dropped."""
    with open(path, "wb") as f:
        f.write(f"{header}\n".encode())
        for lo in range(0, n_rows, WRITE_BLOCK_ROWS):
            first, second = fields(slice(lo, min(lo + WRITE_BLOCK_ROWS, n_rows)))
            comma, newline = (np.full((len(first), 1), ord(c), dtype=np.uint8) for c in ",\n")
            rows = np.hstack((first, comma, second, newline))
            f.write(rows[rows != 0].tobytes())


def emit_city(
    out_dir,
    roster: list[School],
    net: SchoolNetwork,
    truth: dict,
    apartments: np.recarray,
    seed: int = 0,
    students_per_school: int = 12,
) -> None:
    """Write the city in the ingest CSV schemas plus ground_truth.json.

    Each school gets a cohort of students_per_school = m students wired in
    a cycle, so every student has a same-school friend and the filter stage
    removes nobody. Inter-school weights are realized as that many distinct
    cross-cohort student pairs: one k_subsets call per distinct weight w
    draws a w-subset of range(m * m) for every pair of that weight, pick p
    joining student p // m of school a to student p % m of school b. The
    cycle rows come first, then each pair's rows in (a, b) order.

    Rows are built as student codes. The students and edges files are
    written a block of rows at a time from one byte matrix of student ids,
    `{school}_u{j:03d}`, and the apartments file from each block's columns
    as float reprs: the bytes csv.writer writes. A school id that
    csv.writer would quote, or that holds a NUL, raises InvalidConfig.
    """
    rng = np.random.default_rng(seed)
    m = students_per_school
    if m < 2:
        raise InvalidConfig(f"students_per_school {m} < 2: a cohort cycle needs two")
    max_w = int(net.weight.max(initial=0))
    if max_w > m * m:
        raise InvalidConfig(
            f"max weight {max_w} exceeds {m}x{m} cross pairs; "
            f"raise students_per_school"
        )
    bad = next((s for s in net.schools if any(c in s for c in ',"\r\n\0')), None)
    if bad is not None:
        raise InvalidConfig(f"school id {bad!r} holds a comma, quote, line break or NUL")
    # student code school * m + j; its cycle successor is j + 1 mod m
    codes = np.arange(len(net.schools) * m)
    ring = codes - codes % m + (codes + 1) % m
    # each pair's cross picks fill its run of weight rows, in pair order
    starts = np.cumsum(net.weight) - net.weight
    picks = np.empty(int(net.weight.sum()), dtype=np.int64)
    for w in np.unique(net.weight).tolist():
        pairs = np.flatnonzero(net.weight == w)
        picks[starts[pairs] + np.arange(w)[:, None]] = k_subsets(
            np.full(len(pairs), m * m), w, rng)
    pair = np.repeat(np.arange(len(net.weight)), net.weight)
    src = np.concatenate((codes, net.a[pair] * m + picks // m))
    dst = np.concatenate((ring, net.b[pair] * m + picks % m))

    # ids[code] is the student's id: its school's bytes, then its suffix's
    schools = _byte_rows(net.schools)
    suffixes = _byte_rows([f"_u{j:03d}" for j in range(m)])
    ids = np.empty((len(schools), m, schools.shape[1] + suffixes.shape[1]), dtype=np.uint8)
    ids[:, :, :schools.shape[1]] = schools[:, None]
    ids[:, :, schools.shape[1]:] = suffixes
    ids = ids.reshape(len(codes), ids.shape[2])

    os.makedirs(out_dir, exist_ok=True)
    _write_pairs(os.path.join(out_dir, "students.csv"), "student_id,school_id",
                 len(codes), lambda rows: (ids[rows], schools[codes[rows] // m]))
    _write_pairs(os.path.join(out_dir, "edges.csv"), "student_id_a,student_id_b",
                 len(src), lambda rows: (ids[src[rows]], ids[dst[rows]]))
    write_csv(os.path.join(out_dir, "schools.csv"),
              ["school_id", "latitude", "longitude", "score"],
              ([s.id, s.location.latitude, s.location.longitude, s.score] for s in roster))
    with open(os.path.join(out_dir, "apartments.csv"), "w", newline="") as f:
        f.write("latitude,longitude,price_per_sqm\n")
        for lo in range(0, len(apartments), WRITE_BLOCK_ROWS):
            block = apartments[lo:lo + WRITE_BLOCK_ROWS]
            f.write("".join([f"{lat!r},{lon!r},{price!r}\n" for lat, lon, price in zip(
                block["latitude"].tolist(), block["longitude"].tolist(),
                block["price_per_sqm"].tolist())]))
    write_json(os.path.join(out_dir, "ground_truth.json"), truth)
