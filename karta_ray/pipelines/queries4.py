"""Round-4 (final) oracle queries: zonal statistics (raster x vector),
multi-zoom tile pyramid rollup, and ordered-funnel event analysis.

Same parity rules as queries.py / queries2.py / queries3.py: exact
integers or identical IEEE float op sequences on both engines.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..kernels import tiles as tk
from .queries import (GRID_SHAPE, GRID_T, PTS_SQL, ZOOM, _edges_sql_values,
                      _synthetic_grid, points_ds, query_polyset, tile_xy_sql)
from .registry import query

# ---------------------------------------------------------------------------
# 1. Zonal statistics: per-polygon aggregate of the raster cells whose
# CENTERS fall inside the polygon (the classic raster<-vector zonal
# op; reference semantics = Grid cell centers + Polygon.contains,
# karta/raster/grid.py coordinates + vector/contains.pyx winding).
#
# Plan (all streaming):
#   tiles_dataset (tile records) -> expand to cell-center rows
#   (vectorized per tile) -> assign_cells -> pip_join against the
#   broadcast polygon layer (same joiner as pip_join; zoom-cell cover
#   prefilter + exact winding) -> per-block partial (poly_id stats)
#   -> tree_agg final.
# Scale: cell rows stream tile-by-tile (never one giant array); the
# polygon layer is ray.put once; the aggregate is bounded by #polys.
# ---------------------------------------------------------------------------


def _cells_from_tile_records(batch: pa.Table) -> pa.Table:
    """Expand tile records into (lon, lat, value) cell-center rows.

    The Python loop is over TILE RECORDS (a handful per block), not
    cells; per-tile work is vectorized numpy."""
    gis, gjs, vals = [], [], []
    cols = {n: batch.column(n).to_pylist()
            for n in ("i0", "j0", "ny", "nx", "pt", "pl", "pny", "pnx",
                      "dtype")}
    raw = batch.column("values").to_pylist()
    for r in range(batch.num_rows):
        pny, pnx = cols["pny"][r], cols["pnx"][r]
        block = np.frombuffer(raw[r], dtype=np.dtype(cols["dtype"][r]))
        block = block.reshape(pny, pnx)
        pt, pl = cols["pt"][r], cols["pl"][r]
        ny, nx = cols["ny"][r], cols["nx"][r]
        core = block[pt:pt + ny, pl:pl + nx]
        jj, ii = np.meshgrid(np.arange(nx), np.arange(ny))
        gis.append((ii + cols["i0"][r]).ravel())
        gjs.append((jj + cols["j0"][r]).ravel())
        vals.append(core.ravel())
    gi = np.concatenate(gis) if gis else np.empty(0, np.int64)
    gj = np.concatenate(gjs) if gjs else np.empty(0, np.int64)
    v = np.concatenate(vals) if vals else np.empty(0, np.float64)
    t = batch.column("transform")[0].as_py() if batch.num_rows else GRID_T
    # cell centers; (gj + 0.5) and the origin sums are exact in float64
    # for 1-degree grids, so any evaluation order matches the SQL
    lon = t[0] + (gj + 0.5) * t[2]
    lat = t[1] + (gi + 0.5) * t[3]
    return pa.table({
        "gi": pa.array(gi.astype(np.int64), pa.int64()),
        "gj": pa.array(gj.astype(np.int64), pa.int64()),
        "lon": pa.array(lon, pa.float64()),
        "lat": pa.array(lat, pa.float64()),
        "value": pa.array(v.astype(np.int64), pa.int64()),
    })


@query(oracle=lambda: _zonal_sql())
def q_zonal_stats(sf_dir: str):
    """Per-polygon stats (count/sum/min/max/mean) of the synthetic
    1-degree grid's cell centers inside each query polygon."""
    from ..stages.agg import tree_agg
    from ..stages.join import pip_join
    from ..stages.raster import tiles_dataset
    from ..stages.tiles import assign_cells

    tiles = tiles_dataset(_synthetic_grid(), GRID_T)
    cells = tiles.map_batches(_cells_from_tile_records,
                              batch_format="pyarrow", zero_copy_batch=True)
    cells = cells.map_batches(assign_cells, batch_format="pyarrow",
                              zero_copy_batch=True, fn_kwargs={"zoom": ZOOM})
    joined = pip_join(cells, query_polyset(), zoom=ZOOM, mode="inner")

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["poly_id"]).aggregate(
            [("value", "count"), ("value", "sum"),
             ("value", "min"), ("value", "max")])
        return g.rename_columns(["poly_id", "n_cells", "sum_value",
                                 "min_value", "max_value"])

    parts = joined.map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True)
    out = tree_agg(parts, ["poly_id"],
                   [("n_cells", "sum"), ("sum_value", "sum"),
                    ("min_value", "min"), ("max_value", "max")])

    def finalize(batch: pa.Table) -> pa.Table:
        s = batch.column("sum_value").to_numpy().astype(np.float64)
        n = batch.column("n_cells").to_numpy().astype(np.float64)
        return batch.append_column("mean_value", pa.array(s / n,
                                                          pa.float64()))

    return out.map_batches(finalize, batch_format="pyarrow")


def _zonal_sql() -> str:
    from .queries import WINDING_CASE_SQL, unroll_sql
    ny, nx = GRID_SHAPE
    x0, y0, dx, dy = GRID_T[0], GRID_T[1], GRID_T[2], GRID_T[3]
    return f"""
WITH cells AS (
  SELECT gi, gj,
         {x0!r} + (gj + 0.5) * {dx!r} AS lon,
         {y0!r} + (gi + 0.5) * {dy!r} AS lat,
         (gi * 31 + gj * 17) % 97 AS v
  FROM range({ny}) t1(gi) CROSS JOIN range({nx}) t2(gj)),
edges(poly_id, frame, x0, y0, x1, y1) AS (VALUES
    {_edges_sql_values()}),
pe AS (
  SELECT c.gi, c.gj, c.v, e.poly_id,
         CASE WHEN e.frame = 1 THEN {unroll_sql('c.lon')}
              ELSE c.lon END AS px,
         c.lat AS py, e.x0, e.y0, e.x1, e.y1
  FROM cells c CROSS JOIN edges e),
wn AS (
  SELECT gi, gj, poly_id, ANY_VALUE(v) AS v, {WINDING_CASE_SQL} AS w
  FROM pe GROUP BY gi, gj, poly_id)
SELECT CAST(poly_id AS BIGINT) AS poly_id, COUNT(*) AS n_cells,
       CAST(SUM(v) AS BIGINT) AS sum_value,
       CAST(MIN(v) AS BIGINT) AS min_value,
       CAST(MAX(v) AS BIGINT) AS max_value,
       CAST(CAST(SUM(v) AS BIGINT) AS DOUBLE)
         / CAST(COUNT(*) AS DOUBLE) AS mean_value
FROM wn WHERE w <> 0 GROUP BY poly_id
"""


# ---------------------------------------------------------------------------
# 2. Tile pyramid rollup: per-tile point counts at EVERY zoom 0..ZOOM
# in one scan + one bounded tree-combine. Lower zooms are derived by
# INTEGER halving of the zoom-ZOOM tile indices (floor(x/2) ==
# floor(floor(x)/2) — exact), so no float re-evaluation per level and
# bit-parity with the SQL's `>>` is structural. The per-block rollup
# shrinks data BEFORE the shuffle: the combine ships at most
# sum_z(unique tiles at z) rows per block regardless of row count.
# ---------------------------------------------------------------------------


def pyramid_partial(batch: pa.Table) -> pa.Table:
    """Per-block (zoom, tile_x, tile_y, n_points) at every zoom
    0..ZOOM. Points outside the zoom-ZOOM tile domain [0, 2^ZOOM)^2
    are dropped before packing: tile_xy emits -1 sentinels for bad
    coordinates, x == 2^ZOOM at lon == 180 and y out of range for |lat|
    beyond the Mercator domain, and packing those would silently
    corrupt tile ids. The derived points have lon in [-180, 180) and
    lat in [-80, 80), so nothing drops on them; the filter makes that a
    property of the operator, not of the data."""
    x, y = tk.tile_xy(batch.column("lon").to_numpy(),
                      batch.column("lat").to_numpy(), ZOOM)
    ok = (x >= 0) & (x < (1 << ZOOM)) & (y >= 0) & (y < (1 << ZOOM))
    x, y = x[ok], y[ok]
    packed = (x << 29) | y
    uniq, n = np.unique(packed, return_counts=True)
    zs, xs, ys, ns = [], [], [], []
    for z in range(ZOOM, -1, -1):
        zs.append(np.full(len(uniq), z, np.int64))
        xs.append(uniq >> 29)
        ys.append(uniq & ((1 << 29) - 1))
        ns.append(n)
        parent = ((uniq >> 29) >> 1) << 29 | ((uniq & ((1 << 29) - 1)) >> 1)
        uniq, inv = np.unique(parent, return_inverse=True)
        # int64 accumulator (bincount weights go through float64
        # and would lose exactness above 2^53)
        acc = np.zeros(len(uniq), np.int64)
        np.add.at(acc, inv, n)
        n = acc
    return pa.table({
        "zoom": pa.array(np.concatenate(zs), pa.int64()),
        "tile_x": pa.array(np.concatenate(xs), pa.int64()),
        "tile_y": pa.array(np.concatenate(ys), pa.int64()),
        "n_points": pa.array(np.concatenate(ns), pa.int64()),
    })


@query(oracle=lambda: _pyramid_sql())
def q_tile_pyramid(sf_dir: str):
    from ..stages.agg import tree_sum

    parts = points_ds(sf_dir).map_batches(
        pyramid_partial, batch_format="pyarrow", zero_copy_batch=True)
    return tree_sum(parts, ["zoom", "tile_x", "tile_y"], ["n_points"])


def _pyramid_sql() -> str:
    tx, ty = tile_xy_sql(ZOOM)
    return f"""
WITH pts AS ({PTS_SQL}),
base AS (
  SELECT {tx} AS tx, {ty} AS ty, COUNT(*) AS n
  FROM pts GROUP BY 1, 2)
SELECT CAST(z.zoom AS BIGINT) AS zoom,
       base.tx >> ({ZOOM} - z.zoom) AS tile_x,
       base.ty >> ({ZOOM} - z.zoom) AS tile_y,
       CAST(SUM(n) AS BIGINT) AS n_points
FROM base CROSS JOIN range({ZOOM + 1}) z(zoom)
WHERE base.tx >= 0 AND base.tx < {1 << ZOOM}
  AND base.ty >= 0 AND base.ty < {1 << ZOOM}
GROUP BY 1, 2, 3
"""


# ---------------------------------------------------------------------------
# 3. Ordered funnel: per-user progressive step matching over the event
# stream (first 'view', then first 'click' strictly after it, then
# first 'purchase' strictly after that). One range shuffle by user_id;
# the per-block body is 3 vectorized passes over the whole block
# (segmented min via np.minimum.reduceat), no per-user Python.
#
# Residue note: sorted_map_groups defers each block's first/last user
# run wholesale; per-user event counts are bounded in practice (and
# cappable upstream), so the residue stays small — the documented
# bounded-key-domain mode.
# ---------------------------------------------------------------------------

FUNNEL_STEPS = ("view", "click", "purchase")


@query(oracle=lambda: _funnel_sql())
def q_funnel(sf_dir: str):
    import ray.data

    from ..stages.session import funnel_steps

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "event_type"])
    return funnel_steps(ds, FUNNEL_STEPS)


def _funnel_sql() -> str:
    s1, s2, s3 = FUNNEL_STEPS
    return f"""
WITH u AS (SELECT DISTINCT user_id FROM events),
f1 AS (SELECT user_id, MIN(ts) AS t FROM events
       WHERE event_type = '{s1}' GROUP BY user_id),
f2 AS (SELECT e.user_id, MIN(e.ts) AS t FROM events e
       JOIN f1 ON e.user_id = f1.user_id AND e.ts > f1.t
       WHERE e.event_type = '{s2}' GROUP BY e.user_id),
f3 AS (SELECT e.user_id, MIN(e.ts) AS t FROM events e
       JOIN f2 ON e.user_id = f2.user_id AND e.ts > f2.t
       WHERE e.event_type = '{s3}' GROUP BY e.user_id)
SELECT u.user_id,
       CAST(CASE WHEN f3.t IS NOT NULL THEN 3
                 WHEN f2.t IS NOT NULL THEN 2
                 WHEN f1.t IS NOT NULL THEN 1
                 ELSE 0 END AS BIGINT) AS steps_reached
FROM u
LEFT JOIN f1 ON u.user_id = f1.user_id
LEFT JOIN f2 ON u.user_id = f2.user_id
LEFT JOIN f3 ON u.user_id = f3.user_id
"""


# ---------------------------------------------------------------------------
# 4. Star join: fact x fact equi-join + broadcast dimensions. The
# lineitem x orders join is a primary-key attach, so it is a keyed
# lookup (stages/lookup.py) like the customer -> nation dimension:
# each lineitem block collapses to (orderkey, qty, n) partials (lines
# of one order are mostly co-located in the source), the orders ->
# nation table attaches each partial's nation, and the bounded
# (25-key) per-nation sums fold in tree_sum. While the orders -> nation
# table (~16 B per order) fits lookup's BROADCAST_MAX_BYTES it is
# pulled through the driver and broadcast once (np.searchsorted per
# batch), and lineitem is never shuffled. Above it, lookup
# materializes the lineitem partials and hash-joins them with
# Dataset.join, the generic join that measured ~4x slower here.
# ---------------------------------------------------------------------------


@query(oracle=lambda: _STAR_SQL)
def q_star_join(sf_dir: str):
    import pyarrow.parquet as pq
    import ray.data

    from ..stages.agg import tree_sum
    from ..stages.lookup import lookup

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_orderkey", "o_custkey"])
    order_nation = lookup(orders, cust, on="o_custkey", key="c_custkey",
                          columns=["c_nationkey"]).map_batches(
        lambda b: pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "nationkey": b.column("c_nationkey").cast(pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True)

    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey", "l_quantity"])

    def order_partials(batch: pa.Table) -> pa.Table:
        q = batch.column("l_quantity").to_numpy().astype(np.int64)
        t = pa.table({
            "okey": batch.column("l_orderkey").cast(pa.int64()),
            "sum_qty": pa.array(q, pa.int64()),
            "n_rows": pa.array(np.ones(batch.num_rows, np.int64)),
        })
        return (t.group_by(["okey"])
                 .aggregate([("sum_qty", "sum"), ("n_rows", "sum")])
                 .rename_columns(["okey", "sum_qty", "n_rows"]))

    parts = lookup(li.map_batches(order_partials, batch_format="pyarrow",
                                  zero_copy_batch=True),
                   order_nation, on="okey", key="o_orderkey",
                   columns=["nationkey"])
    agg = tree_sum(parts, ["nationkey"], ["n_rows", "sum_qty"])

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    names = dict(zip(nat.column("n_nationkey").to_pylist(),
                     nat.column("n_name").to_pylist()))

    def finalize(batch: pa.Table) -> pa.Table:
        nk = batch.column("nationkey").to_pylist()
        return pa.table({
            "n_name": pa.array([names[k] for k in nk], pa.string()),
            "n_rows": batch.column("n_rows"),
            "sum_qty": batch.column("sum_qty"),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


_STAR_SQL = """
SELECT n_name, COUNT(*) AS n_rows,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
"""


# ---------------------------------------------------------------------------
# 5. CSV source/sink round-trip: write a slice of the events table as
# CSV, read it back with the parallel CSV reader, aggregate — equality
# with the direct aggregate (the oracle) proves the codec lossless.
# Integer/string columns only: CSV float text round-trips are not
# bit-stable and belong in parquet.
# ---------------------------------------------------------------------------


@query(oracle=lambda: _CSV_ROUNDTRIP_SQL)
def q_csv_roundtrip(sf_dir: str):
    import os
    import shutil
    import tempfile

    import ray.data

    from ..stages.agg import tree_sum

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id",
                                        "event_type"])
    # driver-local scratch: single-node assumption (bench/test harness
    # only). On a multi-node cluster the round-trip root must live on
    # shared storage so read_csv tasks on other nodes see the files.
    out = tempfile.mkdtemp(prefix="karta_csv_")
    try:
        ds.write_csv(out)
        # an empty write leaves no file to read back
        back = ray.data.read_csv(out) if os.listdir(out) else ds

        def partial(batch: pa.Table) -> pa.Table:
            t = pa.table({
                "event_type": batch.column("event_type"),
                "n_events": pa.array(np.ones(batch.num_rows, np.int64)),
                "sum_event_id": pc.cast(batch.column("event_id"),
                                        pa.int64()),
                "sum_user_id": pc.cast(batch.column("user_id"),
                                       pa.int64()),
            })
            g = t.group_by(["event_type"]).aggregate(
                [("n_events", "sum"), ("sum_event_id", "sum"),
                 ("sum_user_id", "sum")])
            return g.rename_columns(["event_type", "n_events",
                                     "sum_event_id", "sum_user_id"])

        res = tree_sum(back.map_batches(partial, batch_format="pyarrow"),
                       ["event_type"],
                       ["n_events", "sum_event_id", "sum_user_id"]
                       ).materialize()
        return res
    finally:
        shutil.rmtree(out, ignore_errors=True)


_CSV_ROUNDTRIP_SQL = """
SELECT event_type, COUNT(*) AS n_events,
       CAST(SUM(event_id) AS BIGINT) AS sum_event_id,
       CAST(SUM(user_id) AS BIGINT) AS sum_user_id
FROM events GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# 6. Curation pipeline: the canonical chained corpus-prep flow in ONE
# query — exact dedup (keep min doc_id per text) -> per-language
# median length filter over the SURVIVORS -> deterministic 50% hash
# sample -> per-language token stats. Every stage is a distributed
# primitive the suite already certifies; chaining them end-to-end is
# the real-world shape and the SQL oracle mirrors each stage as a CTE.
#
# Scale notes: dedup keys are 128-bit text hashes (collision-free in
# practice; the shuffle ships ~40 B/doc of metadata, never the text);
# the deduped slim table is materialized once because the median
# filter needs a full pass before filtering can begin (two-pass by
# nature — the alternative is recomputing the dedup shuffle, which
# costs more than spilling 40 B/doc).
# ---------------------------------------------------------------------------

CURATION_SAMPLE_RATE = 0.5


@query(oracle=lambda: _curation_sql())
def q_curation_pipeline(sf_dir: str):
    import ray.data

    from ..functions.text import hash_column_u64, md5_u64
    from ..stages.agg import group_runs, sorted_map_groups, tree_sum
    from ..stages.lookup import lookup
    from ..stages.quantile import grouped_quantiles

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang",
                                        "n_chars"])

    def prep(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        h1 = hash_column_u64(text).view(np.int64)
        # independent second hash (sentinel suffix): 128 collision bits
        h2 = hash_column_u64(
            pc.binary_join_element_wise(pc.cast(text, pa.string()),
                                        "\x01s", "")).view(np.int64)
        total_len = pc.utf8_length(text)
        no_space = pc.replace_substring(text, " ", "")
        spaces = pc.subtract(total_len, pc.utf8_length(no_space))
        return pa.table({
            "h1": pa.array(h1), "h2": pa.array(h2),
            "doc_id": batch.column("doc_id"),
            "lang": batch.column("lang"),
            "n_chars": pc.cast(batch.column("n_chars"), pa.int64()),
            "tokens": pc.cast(pc.add(spaces, 1), pa.int64()),
        })

    slim = ds.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True)

    def keep_min(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return tbl
        starts, _ends = group_runs(tbl, ["h1", "h2"])
        mask = np.zeros(tbl.num_rows, dtype=bool)
        mask[starts] = True  # doc_id asc in sort -> first row = min id
        return tbl.filter(pa.array(mask))

    deduped = sorted_map_groups(slim, ["h1", "h2"], keep_min,
                                pre_reduce=keep_min,
                                sort_keys=["h1", "h2", "doc_id"]
                                ).materialize()

    med = grouped_quantiles(deduped.select_columns(["lang", "n_chars"]),
                            ["lang"], "n_chars", [50])
    t_sample = np.uint64(int(CURATION_SAMPLE_RATE * (1 << 64)))

    def keep(batch: pa.Table) -> pa.Table:
        n = batch.column("n_chars").to_numpy()
        lim = batch.column("p50").to_numpy()
        ids = batch.column("doc_id").to_pylist()
        hv = md5_u64([str(i).encode() for i in ids])
        return batch.drop_columns(["p50"]).filter(
            pa.array((n >= lim) & (hv < t_sample)))

    kept = lookup(deduped, med, on="lang", key="lang", columns=["p50"]) \
        .map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "lang": batch.column("lang"),
            "n_docs": pa.array(np.ones(batch.num_rows, np.int64)),
            "sum_tokens": batch.column("tokens"),
        })
        g = t.group_by(["lang"]).aggregate(
            [("n_docs", "sum"), ("sum_tokens", "sum")])
        return g.rename_columns(["lang", "n_docs", "sum_tokens"])

    return tree_sum(kept.map_batches(partial, batch_format="pyarrow"),
                    ["lang"], ["n_docs", "sum_tokens"])


def _curation_sql() -> str:
    t = int(CURATION_SAMPLE_RATE * (1 << 64))
    return f"""
WITH dd AS (
  SELECT doc_id, lang, n_chars, text,
         row_number() OVER (PARTITION BY text ORDER BY doc_id) AS rn
  FROM documents),
d AS (SELECT doc_id, lang, n_chars, text FROM dd WHERE rn = 1),
q AS (SELECT doc_id, lang, n_chars, text,
             quantile_disc(n_chars, 0.5) OVER (PARTITION BY lang) AS med
      FROM d),
f AS (SELECT * FROM q
      WHERE n_chars >= med
        AND md5_number_lower(CAST(doc_id AS VARCHAR)) < {t}::HUGEINT)
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(length(text) - length(replace(text, ' ', '')) + 1)
            AS BIGINT) AS sum_tokens
FROM f GROUP BY lang
"""


# ---------------------------------------------------------------------------
# 7. Pole-safe spherical cell index (S2-style cube faces + Morton):
# Web-Mercator tiles (tile_assign) degenerate toward the poles and cut
# off |lat| > 85; a global / polar corpus indexes on the cube-face
# cells instead (kernels/scells.py). Same assignment contract as
# tile_assign; the SQL mirrors face selection, gnomonic u/v, the
# quantize clamp and the bit interleave exactly.
# ---------------------------------------------------------------------------

SCELL_LEVEL = 12


@query(oracle=lambda: _cell_index_sql())
def q_cell_index(sf_dir: str):
    from ..kernels import scells

    ds = points_ds(sf_dir)

    def assign(batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy()
        lat = batch.column("lat").to_numpy()
        face, u, v = scells.face_uv(lon, lat)
        i, j = scells.quantize(u, v, SCELL_LEVEL)
        cell = scells.compose(face, i, j, SCELL_LEVEL)
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "l_linenumber": batch.column("l_linenumber"),
            "s_face": pa.array(face, pa.int64()),
            "s_i": pa.array(i, pa.int64()),
            "s_j": pa.array(j, pa.int64()),
            "s_cell": pa.array(cell, pa.int64()),
        })

    return ds.map_batches(assign, batch_format="pyarrow",
                          zero_copy_batch=True)


def _cell_index_sql() -> str:
    from ..kernels.scells import morton_sql

    n = 1 << SCELL_LEVEL
    q = (f"LEAST(GREATEST(CAST(floor(((%s + 1.0) * 0.5) * {float(n)!r}) "
         f"AS BIGINT), 0), {n - 1})")
    return f"""
WITH pts AS ({PTS_SQL}),
s AS (SELECT l_orderkey, l_linenumber,
             cos(lat*pi()/180)*cos(lon*pi()/180) AS x,
             cos(lat*pi()/180)*sin(lon*pi()/180) AS y,
             sin(lat*pi()/180) AS z
      FROM pts),
f AS (SELECT l_orderkey, l_linenumber,
  CASE WHEN abs(x) >= abs(y) AND abs(x) >= abs(z)
            THEN CASE WHEN x >= 0 THEN 0 ELSE 3 END
       WHEN abs(y) >= abs(z) THEN CASE WHEN y >= 0 THEN 1 ELSE 4 END
       ELSE CASE WHEN z >= 0 THEN 2 ELSE 5 END END AS face,
  CASE WHEN abs(x) >= abs(y) AND abs(x) >= abs(z) THEN y / x
       WHEN abs(y) >= abs(z) THEN -x / y ELSE x / z END AS u,
  CASE WHEN abs(x) >= abs(y) AND abs(x) >= abs(z) THEN z / x
       WHEN abs(y) >= abs(z) THEN z / y ELSE y / z END AS v
  FROM s),
g AS (SELECT l_orderkey, l_linenumber, face,
             {q % 'u'} AS ci, {q % 'v'} AS cj
      FROM f)
SELECT l_orderkey, l_linenumber,
       CAST(face AS BIGINT) AS s_face, ci AS s_i, cj AS s_j,
       CAST(face * {1 << (2 * SCELL_LEVEL)}
            + {morton_sql('ci', 'cj', SCELL_LEVEL)} AS BIGINT) AS s_cell
FROM g
"""


# ---------------------------------------------------------------------------
# 8. Spherical cell pyramid: per-cell counts at every level 0..L of
# the cube-face index — tile_pyramid's exact analogue on the
# pole-safe cells (parent = Morton code >> 2, face preserved), so the
# rollup is pure integer shifting with structural SQL parity.
# ---------------------------------------------------------------------------


@query(oracle=lambda: _cell_pyramid_sql())
def q_cell_pyramid(sf_dir: str):
    from ..kernels import scells
    from ..stages.agg import tree_sum

    L = SCELL_LEVEL
    ds = points_ds(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy()
        lat = batch.column("lat").to_numpy()
        cell = scells.cell_id(lon, lat, L)
        uniq, n = np.unique(cell, return_counts=True)
        n = n.astype(np.int64)
        levels, cells, counts = [], [], []
        for lv in range(L, -1, -1):
            levels.append(np.full(len(uniq), lv, np.int64))
            cells.append(uniq)
            counts.append(n)
            if lv:
                parent = scells.parent_cell(uniq, lv)
                uniq, inv = np.unique(parent, return_inverse=True)
                acc = np.zeros(len(uniq), np.int64)
                np.add.at(acc, inv, n)
                n = acc
        return pa.table({
            "level": pa.array(np.concatenate(levels), pa.int64()),
            "s_cell": pa.array(np.concatenate(cells), pa.int64()),
            "n_points": pa.array(np.concatenate(counts), pa.int64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    return tree_sum(parts, ["level", "s_cell"], ["n_points"])


def _cell_pyramid_sql() -> str:
    L = SCELL_LEVEL
    base = _cell_index_sql()
    return f"""
WITH cells AS ({base}),
base AS (SELECT s_cell, COUNT(*) AS n FROM cells GROUP BY s_cell)
SELECT CAST(z.lv AS BIGINT) AS level,
       ((s_cell >> {2 * L}) << (2 * z.lv))
         | ((s_cell & {(1 << (2 * L)) - 1}) >> (2 * ({L} - z.lv)))
         AS s_cell,
       CAST(SUM(n) AS BIGINT) AS n_points
FROM base CROSS JOIN range({L + 1}) z(lv)
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# 9. Grid profile: karta Grid.profile (resample a survey line at fixed
# spacing, bilinear-sample the raster at each station). Promoted to a
# DISTRIBUTED pipeline (r5): the raster is a 6M-cell planar grid held
# as tile records synthesized in the workers (never a driver array),
# and the sampling is the tile<-point sorted co-shuffle join
# (stages/raster.py::tile_sample_stage) instead of a broadcast.
# Station placement is the kernel's own to_points walk (pinned by
# exact reference goldens in pytest) with coordinates embedded in the
# SQL as literals — the oracle independently verifies the SAMPLING
# with the same 4-corner bilinear mirror grid_sample_bilinear uses.
# ---------------------------------------------------------------------------

# planar world frame: x in [0, 3000], y in [0, 2000], 1x1 cells
PGRID_T = (0.0, 0.0, 1.0, 1.0, 0.0, 0.0)
PGRID_SHAPE = (2000, 3000)
PROFILE_LINE = ((50.0, 100.0), (1500.0, 800.0), (2900.0, 1900.0))
PROFILE_DX = 1.1


def _pgrid_tiles(overlap: int = 0):
    from ..stages.raster import synthetic_tiles

    return synthetic_tiles(PGRID_SHAPE, PGRID_T,
                           lambda ii, jj: (ii * 31 + jj * 17) % 97,
                           overlap=overlap)


@query(oracle=lambda: _grid_profile_sql())
def q_grid_profile(sf_dir: str):
    import ray.data

    from .. import crs as crsmod
    from ..kernels.lines import to_points
    from ..stages.raster import tile_sample_stage

    pts = to_points(np.asarray(PROFILE_LINE), PROFILE_DX, crsmod.Cartesian)
    stations = ray.data.from_blocks([pa.table({
        "x": pa.array(pts[:, 0], pa.float64()),
        "y": pa.array(pts[:, 1], pa.float64()),
    })]).repartition(8)
    return tile_sample_stage(stations, _pgrid_tiles(overlap=1),
                             transform=PGRID_T, shape=PGRID_SHAPE,
                             mode="bilinear")


def _grid_profile_sql() -> str:
    from .. import crs as crsmod
    from ..kernels.lines import to_points
    from .queries2 import BILINEAR_LOHI_SQL, bilinear_value_sql

    pts = to_points(np.asarray(PROFILE_LINE), PROFILE_DX, crsmod.Cartesian)
    # string -> DOUBLE casts: a bare decimal literal is parsed as
    # DECIMAL first (overflowing products AND rounding the low bits
    # before any ::DOUBLE cast); strtod on the quoted repr is
    # correctly rounded and bit-exact
    rows = ",\n    ".join(
        f"(CAST('{x!r}' AS DOUBLE), CAST('{y!r}' AS DOUBLE))"
        for x, y in pts)
    return f"""
WITH st(x, y) AS (VALUES
    {rows}),
ij AS (SELECT x, y, y - 0.5 AS I, x - 0.5 AS J
       FROM st),
{BILINEAR_LOHI_SQL}
SELECT x, y,
       {bilinear_value_sql()} AS value
FROM b
"""


# ---------------------------------------------------------------------------
# 10. Grid resample: karta Grid.resample (regrid to a new resolution by
# sampling the source at the new pixel centers; nearest = banker's
# rounding of the source positions). Promoted to a DISTRIBUTED
# pipeline (r5): the 1M new pixel centers are a Dataset
# (ray.data.range -> world_coords per batch), the source is the same
# worker-synthesized tile-record layer as grid_profile, and the
# nearest sampling is the tile<-point co-shuffle join. New centers
# land on exact .5 fractions of the unit source, so every float op is
# exact and the SQL mirror (round_even, same as the grid_sample
# oracle) is structurally bit-identical.
# ---------------------------------------------------------------------------

RESAMPLE_DX = 3.0
RESAMPLE_DY = 2.0


@query(oracle=lambda: _grid_resample_sql())
def q_grid_resample(sf_dir: str):
    from ..stages.raster import regrid_tiles_stage

    # regular-output regrid: the pixel -> source-tile map is analytic,
    # so each tile emits its owned output pixels directly — NO shuffle
    # (regrid_tiles_stage); arbitrary point sets would use the
    # tile_sample_stage co-shuffle instead (grid_profile does)
    out = regrid_tiles_stage(_pgrid_tiles(), transform=PGRID_T,
                             shape=PGRID_SHAPE, new_dx=RESAMPLE_DX,
                             new_dy=RESAMPLE_DY, method="nearest")

    def fin(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy()
        return pa.table({
            "gi": batch.column("gi"), "gj": batch.column("gj"),
            "value": pa.array(v.astype(np.int64), pa.int64())})

    return out.map_batches(fin, batch_format="pyarrow",
                           zero_copy_batch=True)


def _grid_resample_sql() -> str:
    gny, gnx = PGRID_SHAPE
    ny = int(gny * PGRID_T[3] / RESAMPLE_DY)
    nx = int(gnx * PGRID_T[2] / RESAMPLE_DX)
    lat = f"((gi + 0.5) * {RESAMPLE_DY!r})"
    lon = f"((gj + 0.5) * {RESAMPLE_DX!r})"
    return f"""
SELECT gi, gj,
       (CAST(round_even({lat} - 0.5, 0) AS BIGINT) * 31
      + CAST(round_even({lon} - 0.5, 0) AS BIGINT) * 17) % 97
       AS value
FROM range({ny}) t1(gi) CROSS JOIN range({nx}) t2(gj)
"""


# ---------------------------------------------------------------------------
# 11. Streaming-style session windows (r5 stretch): watermark-free
# event-time windows over the time-ordered events feed — the
# PER-WINDOW rows whose rollup is the existing sessionize oracle.
# Bounded residue: blocks export pre-collapsed session partials, so a
# bursting hot user costs one residue row per block (stages/session.py).
# ---------------------------------------------------------------------------


@query(oracle=lambda: _session_windows_sql())
def q_session_windows(sf_dir: str):
    import ray.data

    from ..stages.session import session_windows
    from .queries import SESSION_GAP_US

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])
    return session_windows(ev, gap=SESSION_GAP_US)


def _session_windows_sql() -> str:
    from .queries import SESSION_GAP_US

    # RANGE framing (not ROWS): events sharing a timestamp are frame
    # peers, so both tied rows read the same cumulative session count —
    # the engine's interval merge puts ties in one session by
    # construction, and ROWS would split them nondeterministically
    return f"""
WITH o AS (
  SELECT user_id, epoch_us(ts) AS ts_us,
         CASE WHEN epoch_us(ts) - lag(epoch_us(ts))
                   OVER (PARTITION BY user_id ORDER BY ts)
                   > {SESSION_GAP_US}
              THEN 1 ELSE 0 END AS new_sess
  FROM events),
s AS (
  SELECT user_id, ts_us,
         SUM(new_sess) OVER (PARTITION BY user_id ORDER BY ts_us
                             RANGE UNBOUNDED PRECEDING) AS session_id
  FROM o)
SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
       MIN(ts_us) AS start_us, MAX(ts_us) AS end_us,
       COUNT(*) AS n_events
FROM s GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# 12. Document chunking (r5): fixed-size overlapping character chunks —
# the standard LLM-pretraining prep step. Vectorized as one Arrow
# utf8_slice per CHUNK INDEX over the whole batch column (no per-doc
# Python slicing); chunk identity travels as md5 so the output is rows
# of (doc_id, chunk_id, n_chars, chunk_md5), not the text itself.
# ---------------------------------------------------------------------------

CHUNK_SIZE = 500
CHUNK_OVERLAP = 100
CHUNK_STEP = CHUNK_SIZE - CHUNK_OVERLAP


@query(oracle=lambda: CHUNK_DOCUMENTS_SQL)
def q_chunk_documents(sf_dir: str):
    import hashlib

    import pyarrow.compute as pc
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def chunks(batch: pa.Table) -> pa.Table:
        empty = pa.table({
            "doc_id": pa.nulls(0, batch.schema.field("doc_id").type),
            "chunk_id": pa.array([], pa.int64()),
            "n_chars": pa.array([], pa.int64()),
            "chunk_md5": pa.array([], pa.string())})
        text = batch.column("text")
        L = pc.utf8_length(text).to_numpy(zero_copy_only=False)
        outs = [empty]
        k = 0
        while True:
            start = k * CHUNK_STEP
            m = L > start          # a chunk exists iff it is non-empty
            if not m.any():
                break
            sel = batch.filter(pa.array(m))
            piece = pc.utf8_slice_codeunits(
                sel.column("text"), start=start, stop=start + CHUNK_SIZE)
            md5s = [hashlib.md5(x.encode()).hexdigest()
                    for x in piece.to_pylist()]
            outs.append(pa.table({
                "doc_id": sel.column("doc_id"),
                "chunk_id": pa.array(
                    np.full(sel.num_rows, k, dtype=np.int64)),
                "n_chars": pc.utf8_length(piece).cast(pa.int64()),
                "chunk_md5": pa.array(md5s, pa.string())}))
            k += 1
        return pa.concat_tables(outs)

    return ds.map_batches(chunks, batch_format="pyarrow",
                          zero_copy_batch=True)


CHUNK_DOCUMENTS_SQL = f"""
WITH d AS (SELECT doc_id, text, length(text) AS L FROM documents)
SELECT d.doc_id,
       u.k AS chunk_id,
       CAST(length(substr(d.text, CAST(u.k * {CHUNK_STEP} + 1 AS BIGINT),
                          {CHUNK_SIZE})) AS BIGINT) AS n_chars,
       md5(substr(d.text, CAST(u.k * {CHUNK_STEP} + 1 AS BIGINT),
                  {CHUNK_SIZE})) AS chunk_md5
FROM d, unnest(range(0, CAST(floor((d.L - 1) / {CHUNK_STEP}) AS BIGINT)
                        + 1)) u(k)
WHERE d.L > 0
"""
