"""Driver-contract queries: each SURVEY.md §2 operator as a Ray Data
pipeline over the sf testdata tables, with a DuckDB oracle SQL that is
bit-identical (same IEEE double operations, same integer arithmetic).

Parity rules used throughout:
- derived coordinates come from *integer* arithmetic on table keys, then
  one division — exact in both numpy and SQL;
- aggregates sum *integers* (counts, cast quantities), so result values
  are order-independent;
- float columns appear in outputs only when both sides compute them with
  the identical op sequence (lon/lat, tile math — verified bit-equal);
- the winding-number SQL mirrors kernels/predicates.py::winding_number
  term-for-term (same multiply/compare structure).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.sketch import HLL_P
from ..geoms import PolygonSet
from ..kernels import geodesy, predicates
from . import oracles_hard as OH
from .registry import query

ZOOM = 8
LON_MULT = 2654435761
LAT_MULT = 2246822519

# ---------------------------------------------------------------------------
# Derived point cloud from lineitem (exact int -> float derivation)
# ---------------------------------------------------------------------------

PTS_SQL = f"""
  SELECT l_orderkey, l_linenumber, l_quantity,
         ((l_orderkey*8 + l_linenumber) * {LON_MULT} % 360000000) / 1000000.0 - 180.0 AS lon,
         ((l_orderkey*8 + l_linenumber) * {LAT_MULT} % 160000000) / 1000000.0 - 80.0 AS lat
  FROM lineitem
"""


def tile_xy_sql(zoom: int) -> tuple[str, str]:
    """(tile_x, tile_y) SQL over lon/lat at ``zoom`` — the SQL mirror
    of kernels/tiles.py::tile_xy (same IEEE op sequence)."""
    c = f"(128/pi()*2^{zoom})"
    return (f"CAST(floor({c} * (lon*pi()/180 + pi()) / 256) AS BIGINT)",
            f"CAST(floor({c} * (pi() - ln(tan(pi()/4 + lat*pi()/360))) / 256)"
            f" AS BIGINT)")


def derive_coords(key: np.ndarray):
    key = key.astype(np.int64)
    lon = ((key * LON_MULT) % 360000000) / 1000000.0 - 180.0
    lat = ((key * LAT_MULT) % 160000000) / 1000000.0 - 80.0
    return lon, lat


def _add_coords(batch: pa.Table) -> pa.Table:
    key = (batch.column("l_orderkey").to_numpy() * 8
           + batch.column("l_linenumber").to_numpy())
    lon, lat = derive_coords(key)
    batch = batch.append_column("lon", pa.array(lon, pa.float64()))
    return batch.append_column("lat", pa.array(lat, pa.float64()))


def points_ds(sf_dir: str, with_quantity: bool = False):
    import ray.data

    cols = ["l_orderkey", "l_linenumber"] + (
        ["l_quantity"] if with_quantity else [])
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet", columns=cols)
    return ds.map_batches(_add_coords, batch_format="pyarrow",
                          zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Inline polygon layer for the oracle-checked join (shared literals)
# ---------------------------------------------------------------------------

def _star_ring():
    theta = np.linspace(0, 2 * np.pi, 25)[:-1]
    r = 10 * np.sin(theta * 4) + 20
    return np.column_stack([np.cos(theta) * r + 100.0,
                            np.sin(theta) * r - 30.0])


def _jagged_square():
    rng = np.random.RandomState(5)
    xs = np.linspace(-120.0, -60.0, 5)
    ys = np.linspace(10.0, 60.0, 5)
    ring = []
    ring += [(x, 10.0 + rng.uniform(-2, 2)) for x in xs]
    ring += [(-60.0 + rng.uniform(-2, 2), y) for y in ys[1:]]
    ring += [(x, 60.0 + rng.uniform(-2, 2)) for x in xs[::-1][1:]]
    ring += [(-120.0 + rng.uniform(-2, 2), y) for y in ys[::-1][1:-1]]
    return np.asarray(ring)


QUERY_POLYS = [
    {"poly_id": 1, "name": "diamond", "crs": "lonlat_wgs84",
     "rings": [np.array([(0.0, 0.0), (30.0, 30.0), (60.0, 0.0), (30.0, -30.0)])]},
    {"poly_id": 2, "name": "jagged_square", "crs": "lonlat_wgs84",
     "rings": [_jagged_square()]},
    {"poly_id": 3, "name": "star", "crs": "lonlat_wgs84",
     "rings": [_star_ring()]},
    {"poly_id": 4, "name": "dateline_quad", "crs": "lonlat_wgs84",
     "rings": [np.array([(179.0, -10.0), (-179.0, -10.0),
                         (-179.0, 10.0), (179.0, 10.0)])]},
]


def query_polyset() -> PolygonSet:
    return PolygonSet.from_rings(QUERY_POLYS)


def _edges_sql_values() -> str:
    """VALUES rows (poly_id, frame, x0, y0, x1, y1); dateline polys are
    emitted pre-unrolled with frame=1 (mirrors points_in_ring_dateline)."""
    rows = []
    for p in QUERY_POLYS:
        ring = np.asarray(p["rings"][0], dtype=np.float64)
        lons = geodesy.reduce_deg(ring[:, 0])
        if predicates.ring_crosses_dateline(ring):
            deltas = geodesy.reduce_deg(np.diff(lons))
            lon_u = np.concatenate([[lons[0]], lons[0] + np.cumsum(deltas)])
            frame = 1
            xs = lon_u
        else:
            frame = 0
            xs = ring[:, 0]
        ys = ring[:, 1]
        n = len(ring)
        for i in range(n):
            j = (i + 1) % n
            rows.append(f"({p['poly_id']}, {frame}, {xs[i]!r}, {ys[i]!r}, "
                        f"{xs[j]!r}, {ys[j]!r})")
    return ",\n    ".join(rows)


# The dateline frame center is 180 for the quad above; the SQL mirrors
# 180 + reduce_deg((lon - 180) + 180) with numpy's floor-mod algorithm
# replicated exactly (sign-preserving fmod, then +360 only when
# negative — the same op sequence numpy's np.mod performs, so the
# result is bit-identical).


def unroll_sql(lon_expr: str) -> str:
    """The dateline-frame unroll, parameterized on the lon column
    expression (shared by every PIP oracle so the mirror math can
    never diverge between queries)."""
    m = f"((({lon_expr}) - 180.0) + 180.0) % 360.0"
    return (f"180.0 + ((CASE WHEN {m} >= 0 THEN {m} "
            f"ELSE {m} + 360.0 END) - 180.0)")


# the exact winding-rule CASE (edge asymmetry identical to
# kernels/predicates.py winding_number) — shared constant for the
# same no-divergence reason
WINDING_CASE_SQL = """SUM(CASE
             WHEN y0 <= py AND py < y1
                  AND (x1-x0)*(py-y0) - (px-x0)*(y1-y0) > 0 THEN 1
             WHEN y0 > py AND py >= y1
                  AND (x1-x0)*(py-y0) - (px-x0)*(y1-y0) < 0 THEN -1
             ELSE 0 END)"""

_UNROLL_SQL = unroll_sql("p.lon")

# (l_orderkey, l_linenumber) is NOT unique in the synthetic lineitem;
# the join result is a multiset of rows, so the oracle's winding sum
# groups by a synthetic row id to keep duplicate points distinct —
# matching the engine, which joins each input row independently.
PIP_PAIRS_SQL = f"""
WITH pts AS (
  SELECT row_number() OVER () AS rid, * FROM ({PTS_SQL})),
edges(poly_id, frame, x0, y0, x1, y1) AS (VALUES
    {{EDGES}}),
pe AS (
  SELECT p.rid, p.l_orderkey, p.l_linenumber, p.l_quantity, e.poly_id,
         CASE WHEN e.frame = 1 THEN {_UNROLL_SQL} ELSE p.lon END AS px,
         p.lat AS py,
         e.x0, e.y0, e.x1, e.y1
  FROM pts p CROSS JOIN edges e),
wn AS (
  SELECT rid, poly_id,
         ANY_VALUE(l_orderkey) AS l_orderkey,
         ANY_VALUE(l_linenumber) AS l_linenumber,
         ANY_VALUE(l_quantity) AS l_quantity,
         {WINDING_CASE_SQL} AS w
  FROM pe GROUP BY rid, poly_id)
SELECT l_orderkey, l_linenumber, CAST(poly_id AS BIGINT) AS poly_id,
       l_quantity
FROM wn WHERE w <> 0
"""


def pip_pairs_sql() -> str:
    return PIP_PAIRS_SQL.replace("{EDGES}", _edges_sql_values())


# ---------------------------------------------------------------------------
# Queries, each followed by its DuckDB oracle SQL
# ---------------------------------------------------------------------------

@query(oracle=lambda: TILE_ASSIGN_SQL)
def q_tile_assign(sf_dir: str):
    """Tile assignment at ZOOM for every derived point (ints only)."""
    from ..stages.tiles import assign_cells

    ds = points_ds(sf_dir)
    ds = ds.map_batches(assign_cells, batch_format="pyarrow",
                        fn_kwargs={"zoom": ZOOM}, zero_copy_batch=True)
    return ds.select_columns(
        ["l_orderkey", "l_linenumber", "tile_x", "tile_y", "cell_id"])


_TX, _TY = tile_xy_sql(ZOOM)
TILE_ASSIGN_SQL = f"""
WITH pts AS ({PTS_SQL})
SELECT l_orderkey, l_linenumber, {_TX} AS tile_x, {_TY} AS tile_y,
       {ZOOM << 58} + {_TX}*536870912 + {_TY} AS cell_id
FROM pts
"""


@query(oracle=lambda: pip_join_sql())
def q_pip_join(sf_dir: str):
    """Inner point-in-polygon join -> (keys, poly_id)."""
    from ..stages.join import pip_join
    from ..stages.tiles import assign_cells

    ds = points_ds(sf_dir)
    ds = ds.map_batches(assign_cells, batch_format="pyarrow",
                        fn_kwargs={"zoom": ZOOM, "with_xyz": False},
                        zero_copy_batch=True)
    joined = pip_join(ds, query_polyset(), zoom=ZOOM, mode="inner")
    return joined.select_columns(["l_orderkey", "l_linenumber", "poly_id"])


def pip_join_sql() -> str:
    return pip_pairs_sql().replace(
        ",\n       l_quantity\nFROM wn WHERE w <> 0",
        "\nFROM wn WHERE w <> 0")


@query(oracle=lambda: _pip_agg_sql())
def q_pip_agg(sf_dir: str):
    """Join + per-polygon aggregate with a partial combiner:
    (poly_id, n_points, sum_qty)."""
    from ..stages.join import pip_join
    from ..stages.tiles import assign_cells

    ds = points_ds(sf_dir, with_quantity=True)
    ds = ds.map_batches(assign_cells, batch_format="pyarrow",
                        fn_kwargs={"zoom": ZOOM, "with_xyz": False},
                        zero_copy_batch=True)
    joined = pip_join(ds, query_polyset(), zoom=ZOOM, mode="inner")

    def partial(batch: pa.Table) -> pa.Table:
        qty = pc.cast(batch.column("l_quantity"), pa.int64())
        t = pa.table({"poly_id": batch.column("poly_id"), "qty": qty})
        g = (t.group_by(["poly_id"])
              .aggregate([("qty", "count"), ("qty", "sum")]))
        return g.rename_columns(["poly_id", "n_points", "sum_qty"])

    from ..stages.agg import fold_partials

    part = joined.map_batches(partial, batch_format="pyarrow")
    return fold_partials(part, ["poly_id"],
                         [("n_points", "sum"), ("sum_qty", "sum")])


def _pip_agg_sql() -> str:
    return f"""
WITH pairs AS ({pip_pairs_sql()})
SELECT CAST(poly_id AS BIGINT) AS poly_id, COUNT(*) AS n_points,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
FROM pairs GROUP BY poly_id
"""


@query(oracle=lambda: GRID_BINNING_SQL)
def q_grid_binning(sf_dir: str):
    """gridpoints semantics (karta/raster/grid.py:1259-1302): bin points
    into a 1-degree grid, per-cell count + mean quantity (mean from
    integer sums -> order-independent)."""
    ds = points_ds(sf_dir, with_quantity=True)

    def partial(batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy()
        lat = batch.column("lat").to_numpy()
        gi = np.floor(lon + 180.0).astype(np.int64)
        gj = np.floor(lat + 80.0).astype(np.int64)
        qty = pc.cast(batch.column("l_quantity"), pa.int64())
        t = pa.table({"gi": pa.array(gi), "gj": pa.array(gj), "qty": qty})
        g = t.group_by(["gi", "gj"]).aggregate([("qty", "count"), ("qty", "sum")])
        return g.rename_columns(["gi", "gj", "n", "sq"])

    from ..stages.agg import fold_partials

    part = ds.map_batches(partial, batch_format="pyarrow")
    agg = fold_partials(part, ["gi", "gj"], [("n", "sum"), ("sq", "sum")])

    def finalize(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy().astype(np.int64)
        sq = batch.column("sq").to_numpy().astype(np.int64)
        return pa.table({
            "gi": batch.column("gi"),
            "gj": batch.column("gj"),
            "n_points": pa.array(n, pa.int64()),
            "mean_qty": pa.array(sq.astype(np.float64) / n.astype(np.float64)),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


GRID_BINNING_SQL = f"""
WITH pts AS ({PTS_SQL})
SELECT CAST(floor(lon + 180.0) AS BIGINT) AS gi,
       CAST(floor(lat + 80.0) AS BIGINT) AS gj,
       COUNT(*) AS n_points,
       CAST(CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS DOUBLE)
         / CAST(COUNT(*) AS DOUBLE) AS mean_qty
FROM pts GROUP BY 1, 2
"""


@query(oracle=lambda: GEOTIFF_GRID_SQL)
def q_geotiff_grid(sf_dir: str):
    """GeoTIFF sink+source certification through the driver: bin the
    lineitem points into the 1-degree count grid (distributed, bounded
    aggregate), write it as a deflate-compressed GeoTIFF with the pure-
    Python codec, then decode it back with the PARALLEL reader
    (``read_geotiff_dataset``: driver parses only the IFD, Ray tasks
    decode strip ranges) and emit the non-empty cells. Bit-exact
    round-trip means the output equals the grid_binning counts — which
    is exactly what the SQL oracle computes."""
    import os
    import tempfile

    from ..sources.geotiff import read_geotiff_dataset, write_geotiff
    from ..stages.agg import fold_partials

    ds = points_ds(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy()
        lat = batch.column("lat").to_numpy()
        gi = np.floor(lon + 180.0).astype(np.int64)
        gj = np.floor(lat + 80.0).astype(np.int64)
        t = pa.table({"gi": pa.array(gi), "gj": pa.array(gj),
                      "n": pa.array(np.ones(len(gi), dtype=np.int64))})
        g = t.group_by(["gi", "gj"]).aggregate([("n", "sum")])
        return g.rename_columns(["gi", "gj", "n"])

    agg = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                        ["gi", "gj"], [("n", "sum")])
    # the aggregate is bounded (360 x 160 cells) — assembling the grid
    # driver-side is O(cells), not O(rows)
    import ray

    cells = pa.concat_tables(ray.get(agg.to_arrow_refs()))
    grid = np.zeros((160, 360), dtype=np.int32)
    grid[cells.column("gj").to_numpy(),
         cells.column("gi").to_numpy()] = cells.column("n").to_numpy()

    # unique per call: a second invocation in the same driver must not
    # overwrite the file while an earlier (lazy) returned Dataset still
    # has decode tasks pending against it; deleted at process exit
    # (deleting sooner could race those pending tasks)
    #
    # MULTI-NODE NOTE: read_geotiff_dataset's decode tasks open(path)
    # on whatever node they run; the scratch dir must therefore be a
    # SHARED filesystem on a real cluster. Set KARTA_RAY_SCRATCH to a
    # shared mount (NFS/FUSE bucket) there; the default tempdir is
    # correct only for the single-node bench/test setup.
    import atexit

    scratch = os.environ.get("KARTA_RAY_SCRATCH")
    fd, path = tempfile.mkstemp(prefix="karta_ray_geotiff_grid_",
                                suffix=".tif", dir=scratch)
    os.close(fd)

    def _cleanup(p=path):
        try:
            os.unlink(p)
        except OSError:
            pass

    atexit.register(_cleanup)
    write_geotiff(path, grid, (-180.0, -80.0, 1.0, 1.0, 0.0, 0.0),
                  crs="lonlat_wgs84", compress="deflate",
                  rows_per_strip=16, nodata=0)
    tiles = read_geotiff_dataset(path, strips_per_task=4)

    def cells_from_tiles(batch: pa.Table) -> pa.Table:
        # rows are strip records (dozens per batch), not data rows; one
        # to_pylist per column, then vectorized nonzero per strip
        out_gi, out_gj, out_n = [], [], []
        hs = batch.column("pny").to_pylist()
        ws = batch.column("pnx").to_pylist()
        bufs = batch.column("values").to_pylist()
        dts = batch.column("dtype").to_pylist()
        i0s = batch.column("i0").to_pylist()
        j0s = batch.column("j0").to_pylist()
        for h, w, buf, dt, i0, j0 in zip(hs, ws, bufs, dts, i0s, j0s):
            vals = np.frombuffer(buf, dtype=np.dtype(dt)).reshape(h, w)
            ii, jj = np.nonzero(vals)
            out_gi.append(jj + j0)
            out_gj.append(ii + i0)
            out_n.append(vals[ii, jj])
        if not out_gi:
            return pa.table({"gi": pa.array([], pa.int64()),
                             "gj": pa.array([], pa.int64()),
                             "n_points": pa.array([], pa.int64())})
        return pa.table({
            "gi": pa.array(np.concatenate(out_gi).astype(np.int64)),
            "gj": pa.array(np.concatenate(out_gj).astype(np.int64)),
            "n_points": pa.array(
                np.concatenate(out_n).astype(np.int64)),
        })

    return tiles.map_batches(cells_from_tiles, batch_format="pyarrow")


GEOTIFF_GRID_SQL = f"""
WITH pts AS ({PTS_SQL})
SELECT CAST(floor(lon + 180.0) AS BIGINT) AS gi,
       CAST(floor(lat + 80.0) AS BIGINT) AS gj,
       COUNT(*) AS n_points
FROM pts GROUP BY 1, 2
"""


RADIUS_CENTER = (10.33, 20.77)
RADIUS_M = 2_000_000.0


def _sphere_dist_locos(lon, lat, lon0, lat0):
    """Law-of-cosines spherical distance with clip — op-for-op the same
    as the SQL oracle expression."""
    d2r = np.pi / 180.0
    rl1 = lat0 * d2r
    rl2 = lat * d2r
    c = (np.sin(rl1) * np.sin(rl2)
         + np.cos(rl1) * np.cos(rl2) * np.cos(lon * d2r - lon0 * d2r))
    return geodesy.SPHERE_RADIUS * np.arccos(np.minimum(1.0, np.maximum(-1.0, c)))


# the same distance to RADIUS_CENTER, in SQL over lon/lat
_LOCOS_SQL = (f"6370997.0 * acos(least(1.0, greatest(-1.0, "
              f"sin({RADIUS_CENTER[1]!r}*pi()/180)*sin(lat*pi()/180) + "
              f"cos({RADIUS_CENTER[1]!r}*pi()/180)*cos(lat*pi()/180)*"
              f"cos(lon*pi()/180 - {RADIUS_CENTER[0]!r}*pi()/180))))")


@query(oracle=lambda: WITHIN_RADIUS_SQL)
def q_within_radius(sf_dir: str):
    """Points strictly within RADIUS_M of RADIUS_CENTER (border excluded,
    karta/vector/geometry.py:1349-1377)."""
    ds = points_ds(sf_dir)

    def filt(batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy()
        lat = batch.column("lat").to_numpy()
        d = _sphere_dist_locos(lon, lat, *RADIUS_CENTER)
        keep = np.nonzero(d < RADIUS_M)[0]
        return batch.select(["l_orderkey", "l_linenumber"]).take(
            pa.array(keep, pa.int64()))

    return ds.map_batches(filt, batch_format="pyarrow")


WITHIN_RADIUS_SQL = f"""
WITH pts AS ({PTS_SQL})
SELECT l_orderkey, l_linenumber FROM pts WHERE {_LOCOS_SQL} < {RADIUS_M!r}
"""


KNN_K = 25


@query(oracle=lambda: KNN_SQL)
def q_knn(sf_dir: str):
    """k-nearest derived points to RADIUS_CENTER: the global top-k by
    (dist, l_orderkey, l_linenumber)."""
    from ..stages.topn import global_topk

    ds = points_ds(sf_dir)

    def with_dist(batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy()
        lat = batch.column("lat").to_numpy()
        d = _sphere_dist_locos(lon, lat, *RADIUS_CENTER)
        out = batch.select(["l_orderkey", "l_linenumber"])
        return out.append_column("dist", pa.array(d, pa.float64()))

    top = global_topk(ds.map_batches(with_dist, batch_format="pyarrow"),
                      ["dist", "l_orderkey", "l_linenumber"], KNN_K)
    return top.select_columns(["l_orderkey", "l_linenumber"])


KNN_SQL = f"""
WITH pts AS ({PTS_SQL})
SELECT l_orderkey, l_linenumber FROM pts
ORDER BY {_LOCOS_SQL}, l_orderkey, l_linenumber LIMIT {KNN_K}
"""


KNN_JOIN_K = 3
SUPP_MULTS = (3266489917, 2654435761)
CUST_MULTS = (2246822519, 3266489917)


def _derive(key, mults):
    key = np.asarray(key, dtype=np.int64)
    lon = ((key * mults[0]) % 360000000) / 1000000.0 - 180.0
    lat = ((key * mults[1]) % 160000000) / 1000000.0 - 80.0
    return lon, lat


def _knn_join_query(sf_dir: str, join):
    """``join(left, right)`` of the supplier-derived points (``left_id``
    = ``s_suppkey``, as a Dataset) and the customer-derived points
    (``right_id`` = ``c_custkey``, a table read on the driver), as
    (s_suppkey, neighbor_id, rank) rows."""
    import pyarrow.parquet as pq
    import ray.data

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    ckey = cust.column("c_custkey").to_numpy().astype(np.int64)
    clon, clat = _derive(ckey, CUST_MULTS)
    right = pa.table({"right_id": ckey, "lon": clon, "lat": clat})

    def left(batch: pa.Table) -> pa.Table:
        key = batch.column("s_suppkey").to_numpy().astype(np.int64)
        lon, lat = _derive(key, SUPP_MULTS)
        return pa.table({"left_id": key, "lon": lon, "lat": lat})

    def shape(batch: pa.Table) -> pa.Table:
        return pa.table({"s_suppkey": batch.column("left_id"),
                         "neighbor_id": batch.column("neighbor_id"),
                         "rank": batch.column("rank")})

    sup = ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                                columns=["s_suppkey"])
    out = join(sup.map_batches(left, batch_format="pyarrow"), right)
    return out.map_batches(shape, batch_format="pyarrow")


@query(oracle=lambda: KNN_JOIN_SQL)
def q_knn_join(sf_dir: str):
    """kNN join: for each supplier-derived point, the KNN_JOIN_K nearest
    customer-derived points — per-cell probes with exact ring expansion,
    the customer side broadcast by the keyed-lookup budget."""
    from ..stages.knn import knn_join

    return _knn_join_query(
        sf_dir, lambda left, right: knn_join(left, right, KNN_JOIN_K,
                                             zoom=6))


KNN_JOIN_SQL = f"""
WITH s AS (
  SELECT s_suppkey,
         (s_suppkey * {SUPP_MULTS[0]} % 360000000) / 1000000.0 - 180.0 AS slon,
         (s_suppkey * {SUPP_MULTS[1]} % 160000000) / 1000000.0 - 80.0 AS slat
  FROM supplier),
c AS (
  SELECT c_custkey,
         (c_custkey * {CUST_MULTS[0]} % 360000000) / 1000000.0 - 180.0 AS clon,
         (c_custkey * {CUST_MULTS[1]} % 160000000) / 1000000.0 - 80.0 AS clat
  FROM customer),
d AS (
  SELECT s.s_suppkey, c.c_custkey,
         6370997.0 * acos(least(1.0, greatest(-1.0,
             sin(slat*pi()/180)*sin(clat*pi()/180) +
             cos(slat*pi()/180)*cos(clat*pi()/180)*
             cos(clon*pi()/180 - slon*pi()/180)))) AS dist
  FROM s CROSS JOIN c),
r AS (
  SELECT s_suppkey, c_custkey,
         row_number() OVER (PARTITION BY s_suppkey
                            ORDER BY dist, c_custkey) AS rank
  FROM d)
SELECT s_suppkey, c_custkey AS neighbor_id, CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= {KNN_JOIN_K}
"""


@query(oracle=lambda: DEDUP_EXACT_SQL)
def q_dedup_exact(sf_dir: str):
    """Exact dedup of documents on text: representative = min doc_id,
    plus the duplicate count.

    The shuffle key is a 128-bit blake2b digest of the text, not the
    text itself — the scale optimization (SCALING.md): the key shuffle
    ships 16 bytes/row instead of whole documents; results are identical
    to grouping on text absent digest collisions (P ~ n^2 / 2^128)."""
    import hashlib

    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"],
                               override_num_blocks=32)

    def digest(batch: pa.Table) -> pa.Table:
        d = [hashlib.blake2b(t.encode(), digest_size=16).digest()
             for t in batch.column("text").to_pylist()]
        return pa.table({"digest": pa.array(d, pa.binary()),
                         "doc_id": batch.column("doc_id"),
                         "n_copies": pa.array(
                             np.ones(batch.num_rows, dtype=np.int64))})

    from ..stages.agg import sorted_agg

    hashed = ds.map_batches(digest, batch_format="pyarrow")
    # unbounded digest domain -> sorted_agg (range shuffle + per-block
    # C++ combine), not ray.data.groupby's per-tiny-group aggregate
    agg = sorted_agg(hashed, ["digest"],
                     [("doc_id", "min"), ("n_copies", "sum")])

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_copies": pc.cast(batch.column("n_copies"), pa.int64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


DEDUP_EXACT_SQL = """
SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_copies
FROM documents GROUP BY text
"""


@query(oracle=lambda: TEXT_STATS_SQL)
def q_text_stats(sf_dir: str):
    """Per-language document stats (token = space-separated)."""
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["lang", "text", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        total_len = pc.utf8_length(text)
        no_space = pc.replace_substring(text, " ", "")
        spaces = pc.subtract(total_len, pc.utf8_length(no_space))
        t = pa.table({
            "lang": batch.column("lang"),
            "chars": pc.cast(batch.column("n_chars"), pa.int64()),
            "tokens": pc.cast(pc.add(spaces, 1), pa.int64()),
        })
        g = t.group_by(["lang"]).aggregate(
            [("chars", "count"), ("chars", "sum"), ("tokens", "sum")])
        return g.rename_columns(["lang", "n_docs", "sum_chars", "sum_tokens"])

    from ..stages.agg import fold_partials

    part = ds.map_batches(partial, batch_format="pyarrow")
    return fold_partials(part, ["lang"], [(c, "sum") for c in (
        "n_docs", "sum_chars", "sum_tokens")])


TEXT_STATS_SQL = """
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(CAST(n_chars AS BIGINT)) AS BIGINT) AS sum_chars,
       CAST(SUM(CAST(length(text) - length(replace(text, ' ', '')) + 1 AS BIGINT)) AS BIGINT) AS sum_tokens
FROM documents GROUP BY lang
"""


BBOX = (-60.0, -30.0, 45.0, 42.5)


@query(oracle=lambda: WITHIN_BBOX_SQL)
def q_within_bbox(sf_dir: str):
    """Strict bbox filter (karta ``within_bbox`` exclusive-bounds
    fallback semantics, karta/vector/geometry.py:1379-1389)."""
    ds = points_ds(sf_dir)

    def filt(batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy()
        lat = batch.column("lat").to_numpy()
        keep = ((BBOX[0] < lon) & (lon < BBOX[2])
                & (BBOX[1] < lat) & (lat < BBOX[3]))
        return batch.select(["l_orderkey", "l_linenumber"]).take(
            pa.array(np.nonzero(keep)[0], pa.int64()))

    return ds.map_batches(filt, batch_format="pyarrow")


WITHIN_BBOX_SQL = f"""
WITH pts AS ({PTS_SQL})
SELECT l_orderkey, l_linenumber FROM pts
WHERE lon > {BBOX[0]!r} AND lon < {BBOX[2]!r}
  AND lat > {BBOX[1]!r} AND lat < {BBOX[3]!r}
"""


@query(oracle=lambda: OH.hull_sql(LON_MULT, LAT_MULT))
def q_convex_hull(sf_dir: str):
    """Global convex hull of the derived point cloud (distributed
    partial-hull + exact final); oracle-checked including the CCW scan
    order (pipelines/oracles_hard.py mirrors the strict-left-turn
    semantics and walks the edge cycle); vertex-order goldens in
    tests."""
    from ..stages.hullagg import convex_hull

    ds = points_ds(sf_dir)
    return convex_hull(ds)


@query(oracle=lambda: SALTED_CELL_COUNT_SQL)
def q_salted_cell_count(sf_dir: str):
    """Per-cell point counts via the salted-groupby path (hot cells split
    into sub-keys then recombined); results identical to a plain count,
    which is the oracle."""
    from ..stages.skew import salted_count
    from ..stages.tiles import assign_cells

    ds = points_ds(sf_dir)
    ds = ds.map_batches(assign_cells, batch_format="pyarrow",
                        fn_kwargs={"zoom": 4, "with_xyz": False})
    # zoom-4 cell ids are bounded (<= 4^4 keys) — the light tree-combine
    # detection path is safe here; unbounded keys (url, user) use the
    # default distributed-groupby detection
    return salted_count(ds, "cell_id", salts=8, bounded_cardinality=True)


_TX4, _TY4 = tile_xy_sql(4)
SALTED_CELL_COUNT_SQL = f"""
WITH pts AS ({PTS_SQL})
SELECT {4 << 58} + {_TX4}*536870912 + {_TY4} AS cell_id, COUNT(*) AS n
FROM pts GROUP BY 1
"""


GRID_T = (-180.0, -80.0, 1.0, 1.0, 0.0, 0.0)
GRID_SHAPE = (160, 360)


def _synthetic_grid():
    jj, ii = np.meshgrid(np.arange(GRID_SHAPE[1]), np.arange(GRID_SHAPE[0]))
    return ((ii * 31 + jj * 17) % 97).astype(np.float64)


@query(oracle=lambda: GRID_SAMPLE_SQL)
def q_grid_sample(sf_dir: str):
    """Raster<-vector sampling join: nearest-cell sample of a synthetic
    1-degree grid at every derived point (karta Grid.sample_nearest
    semantics incl. banker's rounding of half-indices)."""
    from ..stages.raster import sample_points

    ds = points_ds(sf_dir)
    out = sample_points(ds, _synthetic_grid(), GRID_T, mode="nearest")

    def to_int(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy()
        t = batch.select(["l_orderkey", "l_linenumber"])
        return t.append_column("cell_value",
                               pa.array(v.astype(np.int64), pa.int64()))

    return out.map_batches(to_int, batch_format="pyarrow")


GRID_SAMPLE_SQL = f"""
WITH pts AS ({PTS_SQL})
SELECT l_orderkey, l_linenumber,
       (CAST(round_even(lat - {GRID_T[1]!r} - 0.5, 0) AS BIGINT) * 31
        + CAST(round_even(lon - {GRID_T[0]!r} - 0.5, 0) AS BIGINT) * 17) % 97
       AS cell_value
FROM pts
"""


NGRAM_MAX_DF = 50
NGRAM_DF_DENOM = 200  # df cap = min(1000, max(NGRAM_MAX_DF, n//200))
NGRAM_DF_CEIL = 1000
ANN_K = 10
ANN_NQUERIES = 5
NEARDUP_TAU = 0.42


def ngram_df_cap(n_docs: int) -> int:
    """Rare-shingle document-frequency cap, scaled with corpus size
    but BOUNDED above: a fixed absolute cap silently empties the op as
    the corpus grows (every shingle's df grows with n_docs, so at 10x
    the data nothing is 'rare'), while an unbounded linear cap
    reintroduces the quadratic pair blowup the cap exists to prevent
    (a bucket at cap F emits F^2/2 pairs — F = n/200 at 16M docs is
    80k, i.e. ~51 GB of pair indices in one task). min(1000, ...)
    bounds any single bucket at ~500k pairs while still adapting
    through the 10k-200k-doc range. Floor of NGRAM_MAX_DF keeps
    small-corpus behavior identical; the SQL oracle computes the same
    expression from COUNT(*)."""
    return min(NGRAM_DF_CEIL, max(NGRAM_MAX_DF, n_docs // NGRAM_DF_DENOM))


@query(oracle=lambda: _ngram_jaccard_sql())
def q_ngram_jaccard(sf_dir: str):
    """Exact character-3-gram Jaccard near-dup pairs >= dedup.NGRAM_TAU over
    documents (shingle-bucket shuffle + pair counting)."""
    import ray.data

    from ..stages.dedup import ngram_jaccard_pairs

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"],
                               override_num_blocks=32)
    max_df = ngram_df_cap(ds.count())  # parquet metadata — cheap
    return ngram_jaccard_pairs(ds, max_df=max_df)


def _ngram_jaccard_sql() -> str:
    from ..stages.dedup import NGRAM_TAU

    return f"""
WITH g0 AS (
  -- shingle set per doc; docs shorter than the 3-gram window contribute
  -- their whole text as one shingle (mirrors char_shingles' fallback;
  -- empty docs contribute nothing)
  SELECT DISTINCT doc_id, sh
  FROM (SELECT doc_id,
               unnest(CASE
                 WHEN length(text) = 0 THEN CAST([] AS VARCHAR[])
                 WHEN length(text) < 3 THEN [text]
                 ELSE [substr(text, g, 3) FOR g IN range(1, length(text)-1)]
               END) AS sh
        FROM documents)),
rare AS (SELECT sh FROM g0 GROUP BY sh
         HAVING COUNT(*) <= LEAST({NGRAM_DF_CEIL}, GREATEST({NGRAM_MAX_DF},
             (SELECT COUNT(*) FROM documents) // {NGRAM_DF_DENOM}))),
g AS (SELECT g0.doc_id, g0.sh FROM g0 JOIN rare USING (sh)),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM g GROUP BY doc_id),
shared AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS n_shared
  FROM g a JOIN g b ON a.sh = b.sh AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id)
SELECT doc_a, doc_b, CAST(n_shared AS BIGINT) AS n_shared
FROM shared JOIN sizes sa ON sa.doc_id = doc_a
            JOIN sizes sb ON sb.doc_id = doc_b
WHERE CAST(n_shared AS DOUBLE)/(CAST(sa.n AS DOUBLE) + CAST(sb.n AS DOUBLE)
      - CAST(n_shared AS DOUBLE)) >= {NGRAM_TAU!r}
"""


@query(oracle=lambda: OH.minhash_sql(128, 16, 0.5))
def q_minhash_lsh(sf_dir: str):
    """MinHash+LSH near-dup candidates (the approximate web-scale path,
    distributed groupby pair-dedup); oracle-checked bit for bit — the
    SQL mirrors the shingle hash, the 128 permutations, the FNV band
    fold, the bucket cap and the agreement estimate
    (pipelines/oracles_hard.py). Recall also asserted in tests."""
    import ray.data

    from ..stages.dedup import minhash_lsh_pairs

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"],
                               override_num_blocks=32)
    return minhash_lsh_pairs(ds, threshold=0.5)


@query(oracle=lambda: OH.simhash_sql())
def q_simhash(sf_dir: str):
    """SimHash near-dup pairs (Hamming <= 3); oracle-checked bit for
    bit via md5-parity token hashes (pipelines/oracles_hard.py)."""
    import ray.data

    from ..stages.dedup import simhash_pairs

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"],
                               override_num_blocks=32)
    return simhash_pairs(ds)


def _load_queries_driver_side(sf_dir: str, n: int):
    """The n query vectors only (pushed-down filter), not the table."""
    import pyarrow.dataset as pads

    from ..functions.arrays import list_column_to_matrix

    t = pads.dataset(f"{sf_dir}/embeddings.parquet").to_table(
        columns=["vec_id", "embedding"],
        filter=pads.field("vec_id") < n)
    vid = t.column("vec_id").to_numpy()
    mat = list_column_to_matrix(t.column("embedding"))
    return vid, mat


@query(oracle=lambda: ANN_TOPK_SQL)
def q_ann_topk(sf_dir: str):
    """Exact brute-force cosine top-k for ANN_NQUERIES query vectors."""
    import ray.data

    from ..stages.ann import ann_topk

    qids, qmat = _load_queries_driver_side(sf_dir, ANN_NQUERIES)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    out = ann_topk(ds, qids, qmat, k=ANN_K)
    return out.select_columns(["query_id", "vec_id", "rank"])


ANN_TOPK_SQL = f"""
WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings
           WHERE vec_id < {ANN_NQUERIES}),
d AS (SELECT q.query_id, e.vec_id,
             list_cosine_similarity(q.qe, e.embedding) AS sim
      FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.query_id),
r AS (SELECT query_id, vec_id,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY sim DESC, vec_id) AS rank
      FROM d)
SELECT query_id, vec_id, CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= {ANN_K}
"""


@query(oracle=lambda: ANN_TOPK_SQL)
def q_ann_ivf(sf_dir: str):
    """IVF-bucketed top-k in exact mode (nprobe=None probes every
    cluster) — runs the full IVF machinery (centroid pass, per-label
    probe routing, per-probe scoring) but the result equals brute-force
    top-k, so the ann_topk SQL oracle checks it row for row.  The
    approximate path (nprobe=3) keeps its recall assertion in tests."""
    import ray.data

    from ..stages.ann import ann_ivf_topk

    qids, qmat = _load_queries_driver_side(sf_dir, ANN_NQUERIES)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding", "label"])
    out = ann_ivf_topk(ds, qids, qmat, k=ANN_K, nprobe=None)
    return out.select_columns(["query_id", "vec_id", "rank"])


@query(oracle=lambda: EMBED_NEARDUP_SQL)
def q_embed_neardup(sf_dir: str):
    """Exact all-pairs embedding cosine >= NEARDUP_TAU via the blocked
    triangle join — no driver materialization, no broadcast of the full
    matrix (the r01 scale-killer); identical pairs to the broadcast
    variant."""
    import ray.data

    from ..stages.ann import cosine_neardup_blocked

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return cosine_neardup_blocked(ds, NEARDUP_TAU, nblocks=4)


EMBED_NEARDUP_SQL = f"""
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= {NEARDUP_TAU!r}
"""


@query(oracle=lambda: DOC_QUALITY_SQL)
def q_doc_quality(sf_dir: str):
    """Integer quality metrics per document — pure Arrow compute
    (utf8_length / replace_substring / replace_substring_regex), no
    per-row Python; values identical to functions.text.quality_counts
    (asserted in tests)."""
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"],
                               override_num_blocks=32)

    def fn(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        total = pc.cast(pc.utf8_length(text), pa.int64())

        def count_of(sub):
            stripped = pc.utf8_length(
                pc.replace_substring(text, sub, ""))
            return pc.subtract(total, pc.cast(stripped, pa.int64()))

        digits = pc.subtract(total, pc.cast(pc.utf8_length(
            pc.replace_substring_regex(text, "[0-9]", "")), pa.int64()))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_chars_m": total,
            "n_spaces": count_of(" "),
            "n_periods": count_of("."),
            "n_commas": count_of(","),
            "n_digits": digits,
        })

    return ds.map_batches(fn, batch_format="pyarrow")


DOC_QUALITY_SQL = """
SELECT doc_id,
       CAST(length(text) AS BIGINT) AS n_chars_m,
       CAST(length(text) - length(replace(text, ' ', '')) AS BIGINT) AS n_spaces,
       CAST(length(text) - length(replace(text, '.', '')) AS BIGINT) AS n_periods,
       CAST(length(text) - length(replace(text, ',', '')) AS BIGINT) AS n_commas,
       CAST(length(text) - length(regexp_replace(text, '[0-9]', '', 'g')) AS BIGINT) AS n_digits
FROM documents
"""


@query(oracle=lambda: DOC_FINGERPRINT_SQL)
def q_doc_fingerprint(sf_dir: str):
    """Deterministic document fingerprint (md5 of text)."""
    import ray.data

    from ..functions.text import md5_hex

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"],
                               override_num_blocks=32)

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "fp": pa.array([md5_hex(t) for t in
                            batch.column("text").to_pylist()], pa.string()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


DOC_FINGERPRINT_SQL = """
SELECT doc_id, md5(text) AS fp FROM documents
"""


@query(oracle=lambda: lang_id_sql())
def q_lang_id(sf_dir: str):
    """Marker-based language ID prediction (accuracy asserted in tests
    against the lang column)."""
    import ray.data

    from ..functions.text import lang_id_batch

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"],
                               override_num_blocks=32)

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "pred_lang": lang_id_batch(batch.column("text")),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def lang_id_sql() -> str:
    """Mirror of functions.text.lang_id: marker-frequency scores over
    ' ' || lower(text) || ' ', strict argmax in sorted lang order
    ('und' when every score is 0)."""
    from ..functions.text import _LANG_MARKERS, _LANGS

    score_exprs = []
    for lang in _LANGS:
        terms = []
        for m in _LANG_MARKERS[lang]:
            esc = m.replace("'", "''")
            terms.append(f"(length(p) - length(replace(p, '{esc}', '')))"
                         f" / {len(m)}")
        score_exprs.append(f"({' + '.join(terms)}) AS s_{lang}")
    score_cols = ",\n         ".join(score_exprs)
    best = " , ".join(f"s_{lang}" for lang in _LANGS)
    case = "\n".join(
        f"         WHEN s_{lang} = g AND g > 0 THEN '{lang}'"
        for lang in _LANGS)
    return f"""
WITH padded AS (
  SELECT doc_id, ' ' || lower(text) || ' ' AS p FROM documents),
scores AS (
  SELECT doc_id,
         {score_cols}
  FROM padded),
g AS (SELECT *, GREATEST({best}) AS g FROM scores)
SELECT doc_id,
       CASE
{case}
         ELSE 'und' END AS pred_lang
FROM g
"""


@query(oracle=lambda: PROPS_EXTRACT_SQL)
def q_props_extract(sf_dir: str):
    """Semi-structured extraction: pull the ``"k"`` field out of the
    events ``props`` JSON column and aggregate it per event type.

    The field extraction is one Arrow RE2 kernel over the column (the
    props payloads are flat single-key objects, TESTDATA.md) — no
    per-row ``json.loads``; a parity test pins the regex against the
    stdlib JSON parser on the real fixture."""
    import ray.data

    from ..stages.agg import fold_partials

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch.column("props"),
                             r'"k"\s*:\s*(?P<k>-?\d+)')
        ks = pc.cast(pc.struct_field(m, "k"), pa.int64())
        t = pa.table({"event_type": batch.column("event_type"),
                      "sum_k": ks,
                      "n": pa.array(np.ones(len(batch), dtype=np.int64))})
        g = t.group_by(["event_type"]).aggregate([("sum_k", "sum"), ("n", "sum")])
        return g.rename_columns(["event_type", "sum_k", "n"])

    return fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                         ["event_type"], [("sum_k", "sum"), ("n", "sum")])


PROPS_EXTRACT_SQL = """
SELECT event_type,
       CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       COUNT(*) AS n
FROM events GROUP BY event_type
"""


@query(oracle=lambda: OH.hll_sql(HLL_P))
def q_approx_distinct(sf_dir: str):
    """HyperLogLog sketch of distinct users over events, emitted as its
    (bucket, register) rows — integer-exact and oracle-checked bit for
    bit (DuckDB mirrors the md5-parity hash, bucket split and rank).
    The scalar estimate derived from these registers is asserted against
    the exact count in tests (test_properties)."""
    import ray.data

    from ..functions.sketch import hll_register_rows

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id"])
    return hll_register_rows(ds, "user_id")


TOPK_USERS = 20


@query(oracle=lambda: TOPK_USERS_SQL)
def q_topk_users(sf_dir: str):
    """Top-k users by event count (count aggregate -> global top-k;
    deterministic tiebreak by user_id)."""
    import ray.data

    from ..stages.agg import fold_partials
    from ..stages.topn import global_topk

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["user_id"]).aggregate([([], "count_all")])
        return g.rename_columns(["user_id", "n"])

    counts = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                           ["user_id"], [("n", "sum")])
    return global_topk(counts, ["n", "user_id"], TOPK_USERS,
                       descending=[True, False])


TOPK_USERS_SQL = f"""
WITH c AS (SELECT user_id, COUNT(*) AS n FROM events GROUP BY user_id)
SELECT user_id, n FROM c ORDER BY n DESC, user_id LIMIT {TOPK_USERS}
"""


WINDOW_US = 3600 * 1_000_000


@query(oracle=lambda: WINDOW_AGG_SQL)
def q_window_agg(sf_dir: str):
    """Tumbling-window aggregate over the events stream: per event_type
    per hour, count + integer value sum (partial per batch + tree
    combine — the streaming-friendly windowed aggregation shape)."""
    import ray.data

    from ..stages.agg import fold_partials

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        window = (ts // WINDOW_US) * WINDOW_US
        cents = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        t = pa.table({
            "event_type": batch.column("event_type"),
            "window_us": pa.array(window),
            "n": pa.array(np.ones(len(ts), dtype=np.int64)),
            "sum_cents": pa.array(cents),
        })
        g = t.group_by(["event_type", "window_us"]).aggregate(
            [("n", "sum"), ("sum_cents", "sum")])
        return g.rename_columns(["event_type", "window_us", "n", "sum_cents"])

    return fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                         ["event_type", "window_us"],
                         [("n", "sum"), ("sum_cents", "sum")])


WINDOW_AGG_SQL = f"""
SELECT event_type,
       (epoch_us(ts) // {WINDOW_US}) * {WINDOW_US} AS window_us,
       COUNT(*) AS n,
       CAST(SUM(CAST(round_even(value * 100, 0) AS BIGINT)) AS BIGINT) AS sum_cents
FROM events GROUP BY 1, 2
"""


@query(oracle=lambda: MEDIA_FEATURES_SQL)
def q_media_features(sf_dir: str):
    """Multimodal decode as a two-stage Ray pipeline over real
    containers: per-doc deterministic payloads are ENCODED (binary PPM
    / RIFF PCM16 WAV — stages/multimodal.py encoders), shipped as
    opaque binary columns, then DECODED by the real parsers and reduced
    to integer-exact stats.  The pixel/sample generation is plain
    modular arithmetic, so DuckDB reproduces every decoded value — the
    oracle certifies the full encode -> bytes -> decode round trip."""
    import ray.data

    from ..stages.multimodal import encode_ppm, encode_wav, media_decode_stats

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"],
                                 override_num_blocks=8)

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        payloads = []
        types = []
        for d in ids:
            d = int(d)
            if d % 2 == 0:  # image: w x h x 3, pixel = arithmetic in d,r,c
                w = 16 + (d % 4) * 4
                h = 12 + (d % 3) * 4
                r = np.arange(h, dtype=np.int64)[:, None, None]
                c = np.arange(w, dtype=np.int64)[None, :, None]
                ch = np.arange(3, dtype=np.int64)[None, None, :]
                img = ((d * 31 + r * 7 + c * 3 + ch * 11) % 256).astype(
                    np.uint8)
                payloads.append(encode_ppm(img))
                types.append("image")
            else:  # audio: PCM16, sample = arithmetic in d,t
                n = 400 + (d % 5) * 40
                t = np.arange(n, dtype=np.int64)
                wave = ((d * 13 + t * 7) % 2001 - 1000).astype(np.int16)
                payloads.append(encode_wav(wave, 8000))
                types.append("audio")
        return pa.table({
            "media_id": pa.array(ids),
            "media_type": pa.array(types, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
        })

    media = docs.map_batches(synth, batch_format="pyarrow")
    return media.map_batches(media_decode_stats, batch_format="pyarrow",
                             batch_size=64, zero_copy_batch=True)


MEDIA_FEATURES_SQL = """
WITH img AS (
  SELECT doc_id,
         16 + (doc_id % 4) * 4 AS w,
         12 + (doc_id % 3) * 4 AS h
  FROM documents WHERE doc_id % 2 = 0),
ipx AS (
  SELECT i.doc_id, i.w, i.h,
         (i.doc_id * 31 + r.r * 7 + c.c * 3 + ch.ch * 11) % 256 AS v
  FROM img i
  CROSS JOIN (SELECT unnest(range(0, 24)) AS r) r
  CROSS JOIN (SELECT unnest(range(0, 32)) AS c) c
  CROSS JOIN (SELECT unnest(range(0, 3)) AS ch) ch
  WHERE r.r < i.h AND c.c < i.w),
istat AS (
  SELECT doc_id AS media_id, 'image' AS media_type,
         CAST(MIN(w) AS BIGINT) AS width, CAST(MIN(h) AS BIGINT) AS height,
         COUNT(*) AS n_values, CAST(SUM(v) AS BIGINT) AS sum_values,
         CAST(MIN(v) AS BIGINT) AS min_value,
         CAST(MAX(v) AS BIGINT) AS max_value
  FROM ipx GROUP BY doc_id),
aud AS (
  SELECT doc_id, 400 + (doc_id % 5) * 40 AS n
  FROM documents WHERE doc_id % 2 = 1),
apx AS (
  SELECT a.doc_id, (a.doc_id * 13 + t.t * 7) % 2001 - 1000 AS v
  FROM aud a CROSS JOIN (SELECT unnest(range(0, 560)) AS t) t
  WHERE t.t < a.n),
astat AS (
  SELECT doc_id AS media_id, 'audio' AS media_type,
         CAST(-1 AS BIGINT) AS width, CAST(-1 AS BIGINT) AS height,
         COUNT(*) AS n_values, CAST(SUM(v) AS BIGINT) AS sum_values,
         CAST(MIN(v) AS BIGINT) AS min_value,
         CAST(MAX(v) AS BIGINT) AS max_value
  FROM apx GROUP BY doc_id),
allstat AS (SELECT * FROM istat UNION ALL SELECT * FROM astat)
SELECT media_id, media_type, width, height, n_values, sum_values,
       min_value, max_value,
       CAST(sum_values AS DOUBLE) / CAST(n_values AS DOUBLE) AS mean_value
FROM allstat
"""


SESSION_GAP_US = 1800 * 1_000_000


@query(oracle=lambda: SESSIONIZE_SQL)
def q_sessionize(sf_dir: str):
    """Per-user sessionization of the events stream (30-min idle gap):
    (user_id, n_events, n_sessions) — the per-user rollup of the
    session windows, in one (user, ts) sort (stages/session.py)."""
    import ray.data

    from ..stages.session import sessionize

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])
    return sessionize(ds, gap_us=SESSION_GAP_US)


SESSIONIZE_SQL = f"""
WITH o AS (
  SELECT user_id, ts,
         CASE WHEN epoch_us(ts) - lag(epoch_us(ts))
                   OVER (PARTITION BY user_id ORDER BY ts) > {SESSION_GAP_US}
              THEN 1 ELSE 0 END AS new_sess
  FROM events)
SELECT user_id, COUNT(*) AS n_events,
       CAST(1 + SUM(new_sess) AS BIGINT) AS n_sessions
FROM o GROUP BY user_id
"""
