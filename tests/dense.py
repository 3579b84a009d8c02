"""Dense forms of school networks and synthetic apartments, for tests.

geoseg keeps a school network as its tied pairs (`SchoolNetwork`). These
helpers convert between that form and a symmetric zero-diagonal weight
matrix, and keep the dense constructions that the pair builders replaced
as their oracles. `dense_generate_apartments` is the apartments x schools
pricing that the blocked `synth.generate_apartments` replaced (a row's
matrix-vector sum can differ from the blocked one in the last bit), and
`dense_pairs_by_bin` and `dense_generate_city` are the all-pairs forms of
`DistanceMatrix.pairs_by_bin` and `synth.generate_city`, which build their
school pairs a block of rows at a time. `dense_distances` is the n x n
distance matrix that `DistanceMatrix` never holds: its readers compute
the distances they need from the schools' coordinates.

`reference_generate_apartments` and `reference_emit_city` are the writers
of `synth` before it priced apartments in reused block buffers and wrote
its files from byte arrays: a fresh array per block, and a Python string
per student id written through csv.writer. The new code gives the same
bytes.

`farthest_edges`, `rows_geographic_means` and `loop_permutation_p_value`
are the kernels that the one-pass pair table, the ranking from it and
the blocked permutation test replaced: the decay curve's edges cut at
`DistanceMatrix.farthest`, the geographic ranking over whole rows of
distances (`distance_cells`), and one `Generator.permutation` call and
one dot product per permutation.

`haversine`, `degree_centrality` and `generate_null_graph` are the
one-pair distance, the per-school degree and one null-model graph as
their own functions; the pipeline computes each inside a larger step.
`argsort_group_arcs` is the stable-argsort grouping of arcs by school
that `model.group_arcs`' one sort of packed keys replaced.

`student_graph` and `raw_from_ids` build the two student containers from
ids, which the pipeline never holds: it codes each id once while parsing
and builds `RawInputs` and `StudentGraph` from the codes. `claims_of` and
`edges_of` read a RawInputs back as ids, and `same_graph` and `same_raw`
compare two containers by what they hold.
"""

import math
import os
from dataclasses import asdict

import numpy as np

from geoseg import synth
from geoseg.errors import InvalidConfig
from geoseg.geo import _haversine_km, _latlon_arrays, ranked_neighbors, upper_triangle_blocks
from geoseg.ingest import RawInputs
from geoseg.model import (
    EARTH_RADIUS_KM,
    GeoPoint,
    School,
    SchoolNetwork,
    StudentGraph,
    _centred_pair,
    apartment_table,
    k_subsets,
    write_csv,
    write_json,
)
from geoseg.nullmodel import _draw_ties, _pair_table
from geoseg.segregation import _neighbor_means
from geoseg.synth import BASE_PRICE_PER_SQM, CENTER, _disc_points, _to_geopoints


def haversine(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in km."""
    return float(_haversine_km(a.latitude, a.longitude, b.latitude, b.longitude))


def degree_centrality(net: SchoolNetwork) -> dict[str, int]:
    """Number of distinct other schools with a tie."""
    return {s: int(d) for s, d in zip(net.schools, net.degrees)}


def generate_null_graph(curve, dm, seed: int) -> SchoolNetwork:
    """One binary random network with the curve's per-bin tie probability:
    the null model's draw from np.random.default_rng(seed), its pairs
    sorted."""
    a, b = _draw_ties(_pair_table(curve, dm), np.random.default_rng(seed))
    n = len(dm.ids)
    a, b = np.divmod(np.sort(a.astype(np.int64) * n + b), n)
    return SchoolNetwork(list(dm.ids), a, b, np.ones(len(a), dtype=np.int64))


def argsort_group_arcs(src, n: int):
    """model.group_arcs as the stable argsort of the sources and their
    cumulative bincount over n schools."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    return np.argsort(src, kind="stable"), indptr


def dense_weights(net: SchoolNetwork) -> np.ndarray:
    """The symmetric n x n int64 weight matrix of net, 0 where untied."""
    n = len(net)
    w = np.zeros((n, n), dtype=np.int64)
    w[net.a, net.b] = net.weight
    w[net.b, net.a] = net.weight
    return w


def network_from_dense(schools, w) -> SchoolNetwork:
    """The network whose weight matrix is w: its positive upper-triangle
    entries in row-major order. Rejects an asymmetric matrix or a nonzero
    diagonal, as the dense SchoolNetwork did."""
    w = np.asarray(w)
    if np.any(w != w.T) or np.any(np.diag(w) != 0):
        raise ValueError("weight matrix must be symmetric with a zero diagonal")
    a, b = np.nonzero(np.triu(w, k=1))
    return SchoolNetwork(list(schools), a, b, w[a, b])


def student_graph(assignment: dict[str, str], edges) -> StudentGraph:
    """The graph of each student's school id and the friendships as id
    pairs, students and school ids sorted. An endpoint that is not an
    assigned student is coded n, which the constructor rejects."""
    students = sorted(assignment)
    school_ids = sorted(set(assignment.values()))
    code = {s: i for i, s in enumerate(school_ids)}
    position = {s: i for i, s in enumerate(students)}
    n = len(students)
    ends = [(position.get(a, n), position.get(b, n)) for a, b in edges]
    return StudentGraph(students, school_ids, [code[assignment[s]] for s in students],
                        *np.array(ends, dtype=np.int64).reshape(-1, 2).T)


def raw_from_ids(claims: dict[str, set[str]], edges, schools, apartments) -> RawInputs:
    """The RawInputs of each student's claimed school ids and the
    friendships as id pairs, coding ids in first-seen order over the claims
    and then the edges, as parse_inputs does over the files."""
    ids: dict[str, int] = {}
    school_code: dict[str, int] = {}
    pairs = [(ids.setdefault(s, len(ids)), school_code.setdefault(c, len(school_code)))
             for s, claimed in claims.items() for c in claimed]
    ends = [(ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids))) for a, b in edges]
    return RawInputs(list(ids), list(school_code),
                     *np.array(pairs, dtype=np.int64).reshape(-1, 2).T,
                     *np.array(ends, dtype=np.int64).reshape(-1, 2).T, schools, apartments)


def claims_of(raw: RawInputs) -> dict[str, set[str]]:
    """Each listed student's claimed school ids."""
    claims: dict[str, set[str]] = {}
    for i, c in zip(raw.claim_student.tolist(), raw.claim_school.tolist()):
        claims.setdefault(raw.student_ids[i], set()).add(raw.school_ids[c])
    return claims


def edges_of(raw: RawInputs) -> set[tuple[str, str]]:
    """The friendships as sorted id tuples."""
    ids = raw.student_ids
    pairs = ((ids[i], ids[j]) for i, j in zip(raw.edge_a.tolist(), raw.edge_b.tolist()))
    return {(a, b) if a < b else (b, a) for a, b in pairs}


def same_graph(g: StudentGraph, h: StudentGraph) -> bool:
    """The same students at the same schools, with the same friendships."""
    return (g.assignment == h.assignment and np.array_equal(g.a, h.a)
            and np.array_equal(g.b, h.b))


def same_raw(r: RawInputs, s: RawInputs) -> bool:
    """The same claims, friendships, schools and apartments."""
    return (claims_of(r) == claims_of(s) and edges_of(r) == edges_of(s)
            and r.schools == s.schools and np.array_equal(r.apartments, s.apartments))


def _edge_schools(g, roster):
    index = {s.id: i for i, s in enumerate(roster)}
    school_of = np.array([index[s] for s in g.school_ids], dtype=np.int64)[g.school]
    return school_of, school_of[g.a], school_of[g.b]


def dense_count_network(g, roster) -> np.ndarray:
    """A as one n^2-key bincount plus its transpose."""
    _, sa, sb = _edge_schools(g, roster)
    n = len(roster)
    cross = sa != sb
    w = np.bincount(sa[cross] * n + sb[cross], minlength=n * n).reshape(n, n)
    return w + w.T


def dense_min_symmetrized_network(g, roster) -> np.ndarray:
    """A-hat as the element-wise min of the directed n x n student counts
    and their transpose."""
    school_of, sa, sb = _edge_schools(g, roster)
    n = len(roster)
    cross = sa != sb
    keys = np.unique(np.concatenate((g.a[cross] * n + sb[cross], g.b[cross] * n + sa[cross])))
    directed = np.bincount(school_of[keys // n] * n + keys % n, minlength=n * n).reshape(n, n)
    return np.minimum(directed, directed.T)


def dense_tie_counts(net: SchoolNetwork, dm, bin_edges) -> np.ndarray:
    """Tied pairs per bin, read from the weight matrix over the distance
    matrix's binned pair table."""
    a, b, offsets = dm.pairs_by_bin(bin_edges)
    tied = np.concatenate(([0], np.cumsum(dense_weights(net)[a, b] > 0)))
    return np.diff(tied[offsets[:-1]])


def dense_generate_apartments(cfg, roster, n_apartments, price_coupling, seed,
                              noise_sd=0.05, local_radius_km=3.0):
    """synth.generate_apartments with one apartments x schools d2 array."""
    rng = np.random.default_rng(seed)
    east, north = _disc_points(rng, n_apartments, cfg.city_radius_km)
    lat, lon = _to_geopoints(east, north)
    s_east = np.array(
        [EARTH_RADIUS_KM * math.radians(s.location.longitude - CENTER.longitude)
         for s in roster]
    )
    s_north = np.array(
        [EARTH_RADIUS_KM * math.radians(s.location.latitude - CENTER.latitude)
         for s in roster]
    )
    scores = np.array([s.score for s in roster])
    mean, sd = scores.mean(), scores.std()
    sd = sd if sd > 0 else 1.0
    d2 = (east[:, None] - s_east[None, :]) ** 2 + (north[:, None] - s_north[None, :]) ** 2
    within = d2 < local_radius_km**2
    none_close = ~within.any(axis=1)
    within[none_close, np.argmin(d2[none_close], axis=1)] = True
    local_mean = (within @ scores) / within.sum(axis=1)
    z = (local_mean - mean) / sd
    price = BASE_PRICE_PER_SQM * (1.0 + price_coupling * z)
    price = price + BASE_PRICE_PER_SQM * noise_sd * rng.standard_normal(n_apartments)
    return apartment_table(lat, lon, np.maximum(price, 1.0))


def reference_generate_apartments(cfg, roster, n_apartments, price_coupling, seed,
                                  noise_sd=0.05, local_radius_km=3.0):
    """synth.generate_apartments with fresh bool arrays per block of
    synth.BLOCK_CELLS apartment x school cells."""
    rng = np.random.default_rng(seed)
    east, north = _disc_points(rng, n_apartments, cfg.city_radius_km)
    lat, lon = _to_geopoints(east, north)
    s_lat, s_lon = _latlon_arrays(roster)
    s_east = EARTH_RADIUS_KM * np.radians(s_lon - CENTER.longitude)
    s_north = EARTH_RADIUS_KM * np.radians(s_lat - CENTER.latitude)
    scores = np.array([s.score for s in roster])
    mean, sd = scores.mean(), scores.std()
    sd = sd if sd > 0 else 1.0
    step = max(1, synth.BLOCK_CELLS // len(roster))
    local_mean = np.empty(n_apartments)
    for lo in range(0, n_apartments, step):
        rows = slice(lo, lo + step)
        d2 = (east[rows, None] - s_east) ** 2 + (north[rows, None] - s_north) ** 2
        within = d2 < local_radius_km**2
        none_close = ~within.any(axis=1)
        within[none_close, np.argmin(d2[none_close], axis=1)] = True
        local_mean[rows] = (within @ scores) / within.sum(axis=1)
    z = (local_mean - mean) / sd
    price = BASE_PRICE_PER_SQM * (1.0 + price_coupling * z)
    price = price + BASE_PRICE_PER_SQM * noise_sd * rng.standard_normal(n_apartments)
    return apartment_table(lat, lon, np.maximum(price, 1.0))


def reference_emit_city(out_dir, roster, net, truth, apartments, seed=0,
                        students_per_school=12):
    """synth.emit_city through one list of student id strings and
    csv.writer (`model.write_csv`) for every file."""
    rng = np.random.default_rng(seed)
    m = students_per_school
    if m < 2:
        raise InvalidConfig(f"students_per_school {m} < 2: a cohort cycle needs two")
    max_w = int(net.weight.max(initial=0))
    if max_w > m * m:
        raise InvalidConfig(f"max weight {max_w} exceeds {m}x{m} cross pairs")
    ids = [f"{school}_u{j:03d}" for school in net.schools for j in range(m)]
    codes = np.arange(len(ids))
    ring = codes - codes % m + (codes + 1) % m
    starts = np.cumsum(net.weight) - net.weight
    picks = np.empty(int(net.weight.sum()), dtype=np.int64)
    for w in np.unique(net.weight).tolist():
        pairs = np.flatnonzero(net.weight == w)
        picks[starts[pairs] + np.arange(w)[:, None]] = k_subsets(
            np.full(len(pairs), m * m), w, rng)
    pair = np.repeat(np.arange(len(net.weight)), net.weight)
    src = np.concatenate((codes, net.a[pair] * m + picks // m)).tolist()
    dst = np.concatenate((ring, net.b[pair] * m + picks % m)).tolist()

    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "students.csv"), ["student_id", "school_id"],
              zip(ids, (school for school in net.schools for _ in range(m))))
    write_csv(os.path.join(out_dir, "edges.csv"), ["student_id_a", "student_id_b"],
              zip(map(ids.__getitem__, src), map(ids.__getitem__, dst)))
    write_csv(os.path.join(out_dir, "schools.csv"),
              ["school_id", "latitude", "longitude", "score"],
              ([s.id, s.location.latitude, s.location.longitude, s.score] for s in roster))
    write_csv(os.path.join(out_dir, "apartments.csv"),
              ["latitude", "longitude", "price_per_sqm"], apartments.tolist())
    write_json(os.path.join(out_dir, "ground_truth.json"), truth)


def dense_distances(roster) -> np.ndarray:
    """The n x n distance matrix in km, as school_distance_matrix held it:
    each upper_triangle_blocks rectangle d[rows, rows.start:] computed from
    the schools' coordinates in degrees, its cells i < j then mirrored
    below the diagonal."""
    lat, lon = _latlon_arrays(roster)
    n = len(roster)
    d = np.empty((n, n))
    for rows, upper, _ in upper_triangle_blocks(n):
        lo = rows.start
        d[rows, lo:] = _haversine_km(lat[rows, None], lon[rows, None], lat[lo:], lon[lo:])
        np.copyto(d[lo:, rows].T, d[rows, lo:], where=upper)
    np.fill_diagonal(d, 0.0)
    return d


def searchsorted_bins(bin_edges, distances) -> np.ndarray:
    """distance_bins by one binary search per distance."""
    idx = np.searchsorted(bin_edges, distances, side="right") - 1
    idx[idx < 0] = len(bin_edges) - 1
    return idx


def dense_pairs_by_bin(distances, bin_edges):
    """DistanceMatrix.pairs_by_bin over np.triu_indices and the distances
    of all pairs at once, read from the n x n matrix distances."""
    edges = np.asarray(bin_edges, dtype=float)
    n = len(distances)
    beyond = len(edges) - 1
    a, b = np.triu_indices(n, k=1)
    idx = searchsorted_bins(edges, distances[a, b]).astype(np.min_scalar_type(beyond))
    order = np.argsort(idx, kind="stable")
    small = np.int16 if n <= 2**15 else np.int32
    counts = np.bincount(idx, minlength=beyond + 1)
    return (a[order].astype(small), b[order].astype(small),
            np.concatenate(([0], np.cumsum(counts))))


def dense_generate_city(cfg):
    """synth.generate_city with float64 per-pair arrays over all pairs."""
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
    iu = np.triu_indices(cfg.n_schools, k=1)
    d = dense_distances(roster)[iu]
    p = cfg.decay_prefactor * (
        np.maximum(d, cfg.plateau_distance_km) / cfg.plateau_distance_km
    ) ** cfg.decay_exponent
    if cfg.homophily_scale > 0:
        p = p * np.exp(-np.abs(scores[iu[0]] - scores[iu[1]]) / cfg.homophily_scale)
    if cfg.degree_boost > 0:
        p = p * (
            1.0
            + cfg.degree_boost
            * (scores[iu[0]] + scores[iu[1]] - 2 * cfg.score_mean)
            / cfg.score_sd
        )
    p = np.clip(p, 0.0, 1.0)
    ties = rng.random(len(p)) < p
    n_ties = int(ties.sum())
    net = SchoolNetwork([s.id for s in roster], iu[0][ties], iu[1][ties],
                        rng.geometric(0.6, n_ties))
    truth = {
        "config": asdict(cfg),
        "center_lat": CENTER.latitude,
        "center_lon": CENTER.longitude,
        "homophily_kernel": "exp(-|dU|/h)",
        "n_ties": n_ties,
        "expected_ties": float(p.sum()),
    }
    return roster, net, truth


def farthest_edges(dm, width: float) -> np.ndarray:
    """The decay curve's bin edges from the farthest pair: the multiples
    of width up to the first one past dm.farthest."""
    edges = np.arange(int(dm.farthest / width) + 3) * width
    return edges[: np.searchsorted(edges, dm.farthest, side="right") + 1]


def distance_cells(dm, block: slice, k_max: int):
    """Candidate cells of the schools in block, keyed by distance, the
    school itself excluded, from whole rows of distances. Each row is cut
    at its k_max-th key (introselect) and every candidate with a key at
    most that one is kept, so boundary ties stay in."""
    keys = dm.block(block)
    np.fill_diagonal(keys[:, block.start:], np.inf)
    width = keys.shape[1]
    # at most the (n - 1)-th key: the row's one inf, itself, stays out
    kth = min(k_max, width - 1) - 1
    cells = np.flatnonzero(keys <= np.partition(keys, kth, axis=1)[:, kth, None])
    rows, cols = np.divmod(cells, width)
    return rows, cols, np.take(keys, cells)


def rows_geographic_means(roster, dm, k_max: int, seed: int) -> np.ndarray:
    """segregation.geographic_means ranked over distance_cells."""
    ranked = ranked_neighbors(lambda block: distance_cells(dm, block, k_max),
                              len(roster), seed, k_max)
    return _neighbor_means(np.array([s.score for s in roster]), ranked)


def loop_permutation_p_value(x, y, permutations: int, seed: int) -> float:
    """model.permutation_p_value with one rng.permutation(yc) and one dot
    product per permutation."""
    xc, sx, yc, sy = _centred_pair(x, y)
    r_obs = min(1.0, abs(float(xc @ yc)) / (sx * sy))
    xc /= sx
    yc /= sy
    rng = np.random.default_rng(seed)
    threshold = r_obs - 1e-12
    hits = sum(abs(float(xc @ rng.permutation(yc))) >= threshold
               for _ in range(permutations))
    return (1 + hits) / (permutations + 1)
