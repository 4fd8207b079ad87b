"""Round-2 oracle queries: DuckDB-checked coverage for the SURVEY §2
operators that round 1 certified only with pytest goldens — geometry-set
joins (touching/within), intersection points, line/ring measures,
nearest-on-chain, stencils, bilinear sampling, layer union, language ID,
crossing counts.

Parity strategy (same rules as queries.py):
- every derived vertex is an exact small integer (mod arithmetic on
  table keys), so cross products / winding terms / interval tests are
  exact and any summation order agrees;
- float outputs appear only where BOTH sides compute the identical IEEE
  op sequence on those exact inputs (single sqrt / single division);
- float accumulations (cumsum, float SUM) are never compared — numpy's
  pairwise summation and DuckDB's aggregation order differ (verified
  empirically), so oracles compare per-row values or exact-integer sums
  only.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import oracles_hard as OH
from .queries import (GRID_T, KNN_JOIN_SQL, PTS_SQL, _synthetic_grid,
                      pip_join_sql)
from .registry import query

# ---------------------------------------------------------------------------
# Derived layers (integer vertices)
# ---------------------------------------------------------------------------

# polylines from part: 80 lines, vertices ordered by p_partkey
LINE_MOD, LINE_XM, LINE_XR, LINE_YM, LINE_YR = 80, 7919, 401, 104729, 321
# rings from customer: 50 rings
RING_MOD, RING_XM, RING_XR, RING_YM, RING_YR = 50, 6151, 201, 13007, 161
# geometry-set members: one 2-vertex segment per customer key in
# [-40, 40] — member size independent of scale factor, so touching /
# within / intersection results stay non-trivial at every sf
GEOM_V1 = (3571, 9973)
GEOM_V2 = (7001, 4523)

# concave integer target polygon (arrowhead) for touching/within/
# intersection queries
TARGET_POLY = np.array([(-40.0, -20.0), (0.0, 50.0), (40.0, -20.0),
                        (0.0, 10.0)])

# integer zigzag chain for the nearest-on-chain query
NEAREST_CHAIN = np.array([(-150.0, -60.0), (-90.0, 40.0), (-30.0, -40.0),
                          (30.0, 60.0), (90.0, -50.0), (150.0, 30.0)])


def _derive_int(key, mult, rng, half):
    key = np.asarray(key, dtype=np.int64)
    return ((key * mult) % rng - half).astype(np.float64)


def _vertex_ds(sf_dir, table, key_col, mod, xm, xr, ym, yr):
    """Dataset of (gid, ord=key, x, y) rows with integer coords."""
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/{table}.parquet",
                               columns=[key_col])

    def derive(batch: pa.Table) -> pa.Table:
        key = batch.column(key_col).to_numpy().astype(np.int64)
        return pa.table({
            "gid": pa.array(key % mod),
            "ord": pa.array(key),
            "x": pa.array(_derive_int(key, xm, xr, (xr - 1) // 2)),
            "y": pa.array(_derive_int(key, ym, yr, (yr - 1) // 2)),
        })

    return ds.map_batches(derive, batch_format="pyarrow")


def _line_sql(mod, xm, xr, ym, yr, table="part", key="p_partkey"):
    return f"""
  SELECT {key} % {mod} AS gid, {key} AS ord,
         CAST(({key} * {xm}) % {xr} - {(xr - 1) // 2} AS DOUBLE) AS x,
         CAST(({key} * {ym}) % {yr} - {(yr - 1) // 2} AS DOUBLE) AS y
  FROM {table}
"""


# ---------------------------------------------------------------------------
# 1. Per-segment planar lengths (length/cumulength building block)
# ---------------------------------------------------------------------------

@query(oracle=lambda: LINE_SEGMENTS_SQL)
def q_line_segments(sf_dir: str):
    """(line_id, seg_idx, seg_len, seg2): per-segment planar length
    (sqrt of an exact integer, the same IEEE op sequence as
    kernels.lines.segment_lengths), plus the exact integer squared
    length.

    One vectorized pass per (gid, ord)-sorted block via
    sorted_map_groups — NO per-group dispatch: consecutive-row deltas
    across the whole block, masked at gid boundaries. seg_len is a
    per-segment value (sqrt of an exact integer), so vectorizing across
    groups is bit-identical to per-group evaluation."""
    from ..stages.agg import group_runs, sorted_map_groups

    ds = _vertex_ds(sf_dir, "part", "p_partkey",
                    LINE_MOD, LINE_XM, LINE_XR, LINE_YM, LINE_YR)

    empty = pa.table({"line_id": pa.array([], pa.int64()),
                      "seg_idx": pa.array([], pa.int64()),
                      "seg_len": pa.array([], pa.float64()),
                      "seg2": pa.array([], pa.int64())})

    def segs_block(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n < 2:
            return empty
        gid = batch.column("gid").to_numpy()
        x = batch.column("x").to_numpy()
        y = batch.column("y").to_numpy()
        starts, ends = group_runs(batch, ["gid"])
        # within-run vertex index for every row
        run_id = np.repeat(np.arange(len(starts)), ends - starts)
        idx = np.arange(n, dtype=np.int64) - starts[run_id]
        same = gid[1:] == gid[:-1]          # segment stays inside a run
        dx = (x[1:] - x[:-1])[same]
        dy = (y[1:] - y[:-1])[same]
        s2 = dx * dx + dy * dy
        return pa.table({
            "line_id": pa.array(gid[:-1][same].astype(np.int64)),
            "seg_idx": pa.array(idx[:-1][same]),
            "seg_len": pa.array(np.sqrt(s2), pa.float64()),
            "seg2": pa.array(s2.astype(np.int64)),
        })

    return sorted_map_groups(ds, ["gid"], segs_block,
                             sort_keys=["gid", "ord"])


LINE_SEGMENTS_SQL = f"""
WITH v AS ({_line_sql(LINE_MOD, LINE_XM, LINE_XR, LINE_YM, LINE_YR)}),
s AS (
  SELECT gid,
         row_number() OVER (PARTITION BY gid ORDER BY ord) - 1 AS seg_idx,
         lead(x) OVER (PARTITION BY gid ORDER BY ord) - x AS dx,
         lead(y) OVER (PARTITION BY gid ORDER BY ord) - y AS dy
  FROM v)
SELECT gid AS line_id, CAST(seg_idx AS BIGINT) AS seg_idx,
       sqrt(dx*dx + dy*dy) AS seg_len,
       CAST(dx*dx + dy*dy AS BIGINT) AS seg2
FROM s WHERE dx IS NOT NULL
"""


# ---------------------------------------------------------------------------
# 2. Ring measures: planar area, orientation, centroid
# ---------------------------------------------------------------------------

@query(oracle=lambda: RING_STATS_SQL)
def q_ring_stats(sf_dir: str):
    """(ring_id, n_vertices, area, is_cw, cx, cy) over integer-vertex
    rings — exercises ring_area_planar (x0-anchored shoelace),
    ring_is_clockwise and ring_centroid; degenerate rings (area 0)
    excluded on both sides."""
    from ..kernels.measures import ring_area_planar, ring_centroid
    from ..kernels.predicates import ring_is_clockwise

    from ..stages.agg import group_runs, sorted_map_groups

    ds = _vertex_ds(sf_dir, "customer", "c_custkey",
                    RING_MOD, RING_XM, RING_XR, RING_YM, RING_YR)

    empty = pa.table({"ring_id": pa.array([], pa.int64()),
                      "n_vertices": pa.array([], pa.int64()),
                      "area": pa.array([], pa.float64()),
                      "is_cw": pa.array([], pa.int64()),
                      "cx": pa.array([], pa.float64()),
                      "cy": pa.array([], pa.float64())})

    def stats_block(batch: pa.Table) -> pa.Table:
        # one Python iteration per KEY RUN (bounded: <= RING_MOD rings
        # per block), each a vectorized kernel call over the whole run —
        # replaces Ray's per-group map_groups dispatch, which dominated
        # at 30-100 us/group
        if batch.num_rows == 0:
            return empty
        gid = batch.column("gid").to_numpy()
        x = batch.column("x").to_numpy()
        y = batch.column("y").to_numpy()
        starts, ends = group_runs(batch, ["gid"])
        out = {k: [] for k in ("ring_id", "n_vertices", "area",
                               "is_cw", "cx", "cy")}
        for s, e in zip(starts, ends):
            if e - s < 3:
                continue
            ring = np.column_stack([x[s:e], y[s:e]])
            area = ring_area_planar(ring)
            if area == 0.0:
                continue
            cx, cy = ring_centroid(ring)
            out["ring_id"].append(int(gid[s]))
            out["n_vertices"].append(e - s)
            out["area"].append(area)
            out["is_cw"].append(int(ring_is_clockwise(ring)))
            out["cx"].append(cx)
            out["cy"].append(cy)
        if not out["ring_id"]:
            return empty
        return pa.table({
            "ring_id": pa.array(out["ring_id"], pa.int64()),
            "n_vertices": pa.array(out["n_vertices"], pa.int64()),
            "area": pa.array(out["area"], pa.float64()),
            "is_cw": pa.array(out["is_cw"], pa.int64()),
            "cx": pa.array(out["cx"], pa.float64()),
            "cy": pa.array(out["cy"], pa.float64()),
        })

    return sorted_map_groups(ds, ["gid"], stats_block,
                             sort_keys=["gid", "ord"])


RING_STATS_SQL = f"""
WITH v AS ({_line_sql(RING_MOD, RING_XM, RING_XR, RING_YM, RING_YR,
                      table="customer", key="c_custkey")}),
w AS (
  SELECT gid, ord, x, y,
         lag(x)  OVER (PARTITION BY gid ORDER BY ord) AS xp,
         lag(y)  OVER (PARTITION BY gid ORDER BY ord) AS yp,
         lead(x) OVER (PARTITION BY gid ORDER BY ord) AS xn0,
         lead(y) OVER (PARTITION BY gid ORDER BY ord) AS yn0,
         first_value(x) OVER (PARTITION BY gid ORDER BY ord) AS xf,
         first_value(y) OVER (PARTITION BY gid ORDER BY ord) AS yf,
         last_value(x) OVER (PARTITION BY gid ORDER BY ord
            ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS xl,
         last_value(y) OVER (PARTITION BY gid ORDER BY ord
            ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS yl,
         MIN(x) OVER (PARTITION BY gid) AS xmin,
         COUNT(*) OVER (PARTITION BY gid) AS nv
  FROM v),
c AS (
  SELECT gid, ord, x, y, xf, yf, xl, yl, xmin, nv,
         xp, yp,
         COALESCE(xn0, xf) AS xn, COALESCE(yn0, yf) AS yn
  FROM w),
agg AS (
  SELECT gid, ANY_VALUE(nv) AS nv,
         ANY_VALUE(xf) AS xf, ANY_VALUE(yf) AS yf,
         ANY_VALUE(xl) AS xl, ANY_VALUE(yl) AS yl,
         ANY_VALUE(xmin) AS xmin,
         -- open-chain shoelace terms (rows 2..n); closing term added below
         SUM(CASE WHEN xp IS NULL THEN 0.0
                  ELSE (0.5*(x + xp) - xmin) * (y - yp) END) AS opensum,
         -- closed-cycle orientation sum: pair row 1 with the last vertex
         SUM((x - COALESCE(xp, xl)) * (y + COALESCE(yp, yl))) AS osum,
         -- closed-cycle centroid terms
         SUM(x*yn - xn*y) AS crosssum,
         SUM((x + xn) * (x*yn - xn*y)) AS cxsum,
         SUM((y + yn) * (x*yn - xn*y)) AS cysum
  FROM c GROUP BY gid)
SELECT gid AS ring_id, CAST(nv AS BIGINT) AS n_vertices,
       ABS((0.5*(xf + xl) - xmin) * (yf - yl) + opensum) AS area,
       CAST(CASE WHEN osum > 0 THEN 1 ELSE 0 END AS BIGINT) AS is_cw,
       cxsum / (6.0 * (0.5 * crosssum)) AS cx,
       cysum / (6.0 * (0.5 * crosssum)) AS cy
FROM agg
WHERE nv >= 3 AND ABS((0.5*(xf + xl) - xmin) * (yf - yl) + opensum) <> 0.0
"""


# ---------------------------------------------------------------------------
# 3. Layer union with field intersection (karta merge)
# ---------------------------------------------------------------------------

@query(oracle=lambda: UNION_LAYERS_SQL)
def q_union_layers(sf_dir: str):
    """Union of a supplier-derived and a customer-derived point layer;
    only the common columns (gid, lon, lat) survive (karta merge
    inner-join field semantics, stages/merge.py)."""
    import ray.data

    from ..stages.merge import union_layers

    sup = ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                                columns=["s_suppkey"])
    cus = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                columns=["c_custkey"])

    def derive_sup(batch: pa.Table) -> pa.Table:
        k = batch.column("s_suppkey").to_numpy().astype(np.int64)
        return pa.table({
            "gid": pa.array(k),
            "lon": pa.array(((k * 1237) % 360 - 180).astype(np.float64)),
            "lat": pa.array(((k * 911) % 160 - 80).astype(np.float64)),
            "srcbias": pa.array(np.full(len(k), 1, np.int64)),
        })

    def derive_cus(batch: pa.Table) -> pa.Table:
        k = batch.column("c_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "gid": pa.array(k + 1_000_000),
            "lon": pa.array(((k * 1783) % 360 - 180).astype(np.float64)),
            "lat": pa.array(((k * 641) % 160 - 80).astype(np.float64)),
            "grp": pa.array(k % 7),
        })

    a = sup.map_batches(derive_sup, batch_format="pyarrow")
    b = cus.map_batches(derive_cus, batch_format="pyarrow")
    return union_layers(a, b)


UNION_LAYERS_SQL = """
SELECT s_suppkey AS gid,
       CAST((s_suppkey * 1237) % 360 - 180 AS DOUBLE) AS lon,
       CAST((s_suppkey * 911) % 160 - 80 AS DOUBLE) AS lat
FROM supplier
UNION ALL
SELECT c_custkey + 1000000 AS gid,
       CAST((c_custkey * 1783) % 360 - 180 AS DOUBLE) AS lon,
       CAST((c_custkey * 641) % 160 - 80 AS DOUBLE) AS lat
FROM customer
"""

# ---------------------------------------------------------------------------
# 4. Nearest point on a chain (shortest_distance_to building block)
# ---------------------------------------------------------------------------

@query(oracle=lambda: point_to_line_sql())
def q_point_to_line(sf_dir: str):
    """(keys, d2): squared distance from every derived point to the
    NEAREST_CHAIN polyline — per-segment planar projection via
    kernels.lines.nearest_on_segments_planar (integer chain vertices,
    identical single-division op sequence), min over segments."""
    from ..kernels.lines import nearest_on_segments_planar
    from .queries import points_ds

    ds = points_ds(sf_dir)
    x0 = NEAREST_CHAIN[:-1, 0]
    y0 = NEAREST_CHAIN[:-1, 1]
    x1 = NEAREST_CHAIN[1:, 0]
    y1 = NEAREST_CHAIN[1:, 1]

    def fn(batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy()
        lat = batch.column("lat").to_numpy()
        d2min = np.full(len(lon), np.inf)
        for s in range(len(x0)):
            xn, yn, _ = nearest_on_segments_planar(
                lon, lat, x0[s], y0[s], x1[s], y1[s])
            dxp = lon - xn
            dyp = lat - yn
            d2 = dxp * dxp + dyp * dyp
            d2min = np.minimum(d2min, d2)
        out = batch.select(["l_orderkey", "l_linenumber"])
        return out.append_column("d2", pa.array(d2min, pa.float64()))

    return ds.map_batches(fn, batch_format="pyarrow")


def _chain_segments_sql(chain) -> str:
    rows = []
    for i in range(len(chain) - 1):
        rows.append(f"({chain[i][0]!r}, {chain[i][1]!r}, "
                    f"{chain[i + 1][0]!r}, {chain[i + 1][1]!r})")
    return ",\n    ".join(rows)


def point_to_line_sql() -> str:
    return f"""
WITH pts AS ({PTS_SQL}),
segs(x0, y0, x1, y1) AS (VALUES
    {_chain_segments_sql(NEAREST_CHAIN)}),
npts AS (SELECT row_number() OVER () AS rid, * FROM pts),
proj AS (
  SELECT p.rid, p.l_orderkey, p.l_linenumber,
         p.lon - (s.x0 + LEAST(GREATEST(
             ((p.lon - s.x0)*(s.x1 - s.x0) + (p.lat - s.y0)*(s.y1 - s.y0))
             / ((s.x1 - s.x0)*(s.x1 - s.x0) + (s.y1 - s.y0)*(s.y1 - s.y0)),
             0.0), 1.0) * (s.x1 - s.x0)) AS dxp,
         p.lat - (s.y0 + LEAST(GREATEST(
             ((p.lon - s.x0)*(s.x1 - s.x0) + (p.lat - s.y0)*(s.y1 - s.y0))
             / ((s.x1 - s.x0)*(s.x1 - s.x0) + (s.y1 - s.y0)*(s.y1 - s.y0)),
             0.0), 1.0) * (s.y1 - s.y0)) AS dyp
  FROM npts p CROSS JOIN segs s)
-- (l_orderkey, l_linenumber) is NOT unique: group by the synthetic rid
-- so each input row yields one output row, like the engine
SELECT ANY_VALUE(l_orderkey) AS l_orderkey,
       ANY_VALUE(l_linenumber) AS l_linenumber,
       MIN(dxp*dxp + dyp*dyp) AS d2
FROM proj GROUP BY rid
"""


# ---------------------------------------------------------------------------
# 5. Intersection points (half-open hit rule, dedup)
# ---------------------------------------------------------------------------

def _geom_members_ds(sf_dir: str):
    """One 2-vertex line member per customer key (members-table layout),
    built directly per batch — no shuffle."""
    import ray.data

    from ..functions.arrays import matrix_to_list_column

    ds = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                               columns=["c_custkey"])

    def build(batch: pa.Table) -> pa.Table:
        k = batch.column("c_custkey").to_numpy().astype(np.int64)
        x1 = ((k * GEOM_V1[0]) % 81 - 40).astype(np.float64)
        y1 = ((k * GEOM_V1[1]) % 81 - 40).astype(np.float64)
        x2 = ((k * GEOM_V2[0]) % 81 - 40).astype(np.float64)
        y2 = ((k * GEOM_V2[1]) % 81 - 40).astype(np.float64)
        flat = np.column_stack([x1, y1, x2, y2]).reshape(-1, 2)
        inner = matrix_to_list_column(flat)
        offsets = pa.array(np.arange(0, 2 * len(k) + 1, 2,
                                     dtype=np.int32), pa.int32())
        verts = pa.ListArray.from_arrays(offsets, inner)
        return pa.table({
            "geom_id": pa.array(k),
            "kind": pa.array(["line"] * len(k), pa.string()),
            "vertices": verts,
        })

    return ds.map_batches(build, batch_format="pyarrow")


GEOM_SEGS_SQL = f"""
  SELECT c_custkey AS gid,
         CAST((c_custkey * {GEOM_V1[0]}) % 81 - 40 AS DOUBLE) AS bx0,
         CAST((c_custkey * {GEOM_V1[1]}) % 81 - 40 AS DOUBLE) AS by0,
         CAST((c_custkey * {GEOM_V2[0]}) % 81 - 40 AS DOUBLE) AS bx1,
         CAST((c_custkey * {GEOM_V2[1]}) % 81 - 40 AS DOUBLE) AS by1
  FROM customer
"""


@query(oracle=lambda: intersection_points_sql())
def q_intersection_points(sf_dir: str):
    """All intersection points of each customer-derived member segment
    with the TARGET_POLY ring (stages/geomjoin.intersection_points:
    brute-force segment pairs, (0 < t <= 1) half-open rule, exact dedup
    on (x, y))."""
    from ..stages.geomjoin import intersection_points

    return intersection_points(_geom_members_ds(sf_dir), TARGET_POLY,
                               target_kind="polygon")


def _ring_edges_sql(ring) -> str:
    rows = []
    n = len(ring)
    for i in range(n):
        j = (i + 1) % n
        rows.append(f"({ring[i][0]!r}, {ring[i][1]!r}, "
                    f"{ring[j][0]!r}, {ring[j][1]!r})")
    return ",\n    ".join(rows)


def intersection_points_sql() -> str:
    # a = target edge (param t), b = member segment (param u) — the same
    # operand order as intersections_planar(target, member)
    return f"""
WITH msegs AS ({GEOM_SEGS_SQL}),
tedges(ax0, ay0, ax1, ay1) AS (VALUES
    {_ring_edges_sql(TARGET_POLY)}),
hits AS (
  SELECT m.gid,
         t.ax0 + ((m.bx0 - t.ax0)*(m.by1 - m.by0)
                  - (m.by0 - t.ay0)*(m.bx1 - m.bx0))
               / ((t.ax1 - t.ax0)*(m.by1 - m.by0)
                  - (t.ay1 - t.ay0)*(m.bx1 - m.bx0))
               * (t.ax1 - t.ax0) AS xi,
         t.ay0 + ((m.bx0 - t.ax0)*(m.by1 - m.by0)
                  - (m.by0 - t.ay0)*(m.bx1 - m.bx0))
               / ((t.ax1 - t.ax0)*(m.by1 - m.by0)
                  - (t.ay1 - t.ay0)*(m.bx1 - m.bx0))
               * (t.ay1 - t.ay0) AS yi,
         ((m.bx0 - t.ax0)*(m.by1 - m.by0)
          - (m.by0 - t.ay0)*(m.bx1 - m.bx0))
         / ((t.ax1 - t.ax0)*(m.by1 - m.by0)
            - (t.ay1 - t.ay0)*(m.bx1 - m.bx0)) AS t,
         ((m.bx0 - t.ax0)*(t.ay1 - t.ay0)
          - (m.by0 - t.ay0)*(t.ax1 - t.ax0))
         / ((t.ax1 - t.ax0)*(m.by1 - m.by0)
            - (t.ay1 - t.ay0)*(m.bx1 - m.bx0)) AS u,
         ((t.ax1 - t.ax0)*(m.by1 - m.by0)
          - (t.ay1 - t.ay0)*(m.bx1 - m.bx0)) AS rxs
  FROM msegs m CROSS JOIN tedges t)
SELECT DISTINCT gid AS geom_id, xi AS x, yi AS y
FROM hits
WHERE rxs <> 0 AND t > 0 AND t <= 1 AND u > 0 AND u <= 1
"""


# ---------------------------------------------------------------------------
# 6. Geometry-set joins: touching / within vs a polygon target
# ---------------------------------------------------------------------------

@query(oracle=lambda: _geom_join_sql("touching"))
def q_geom_touching(sf_dir: str):
    """Members whose polyline touches TARGET_POLY: contains(first
    vertex) OR intersects (stages/geomjoin semantics, reference
    geometry.py:1496-1525). Output: geom_id per passing member."""
    from ..stages.geomjoin import touching

    out = touching(_geom_members_ds(sf_dir), TARGET_POLY,
                   target_kind="polygon")
    return out.select_columns(["geom_id"])


@query(oracle=lambda: _geom_join_sql("within"))
def q_geom_within(sf_dir: str):
    """Members strictly inside TARGET_POLY: contains(first vertex) AND
    NOT intersects (geometry.py:1527-1544)."""
    from ..stages.geomjoin import within

    out = within(_geom_members_ds(sf_dir), TARGET_POLY)
    return out.select_columns(["geom_id"])


def _geom_join_sql(mode: str) -> str:
    """Mirror of _GeomJoin._exact for a polygon target + line members:
    param-form hit (half-open t/u), collinear-overlap rule, and the
    winding test on each member's first vertex — all on exact integer
    coordinates."""
    hit = """
      ((t.ax1 - t.ax0)*(m.by1 - m.by0)
       - (t.ay1 - t.ay0)*(m.bx1 - m.bx0)) <> 0
      AND ((m.bx0 - t.ax0)*(m.by1 - m.by0)
           - (m.by0 - t.ay0)*(m.bx1 - m.bx0))
          / ((t.ax1 - t.ax0)*(m.by1 - m.by0)
             - (t.ay1 - t.ay0)*(m.bx1 - m.bx0)) > 0
      AND ((m.bx0 - t.ax0)*(m.by1 - m.by0)
           - (m.by0 - t.ay0)*(m.bx1 - m.bx0))
          / ((t.ax1 - t.ax0)*(m.by1 - m.by0)
             - (t.ay1 - t.ay0)*(m.bx1 - m.bx0)) <= 1
      AND ((m.bx0 - t.ax0)*(t.ay1 - t.ay0)
           - (m.by0 - t.ay0)*(t.ax1 - t.ax0))
          / ((t.ax1 - t.ax0)*(m.by1 - m.by0)
             - (t.ay1 - t.ay0)*(m.bx1 - m.bx0)) > 0
      AND ((m.bx0 - t.ax0)*(t.ay1 - t.ay0)
           - (m.by0 - t.ay0)*(t.ax1 - t.ax0))
          / ((t.ax1 - t.ax0)*(m.by1 - m.by0)
             - (t.ay1 - t.ay0)*(m.bx1 - m.bx0)) <= 1
    """
    collinear = """
      ((t.ax1 - t.ax0)*(m.by1 - m.by0)
       - (t.ay1 - t.ay0)*(m.bx1 - m.bx0)) = 0
      AND ((t.ax1 - t.ax0)*(m.by1 - t.ay0)
           - (t.ay1 - t.ay0)*(m.bx1 - t.ax0)) = 0
      AND (CASE WHEN t.ax1 - t.ax0 <> 0 THEN
             (LEAST(t.ax0, t.ax1) <= LEAST(m.bx0, m.bx1)
              AND LEAST(m.bx0, m.bx1) <= GREATEST(t.ax0, t.ax1))
             OR (LEAST(t.ax0, t.ax1) <= GREATEST(m.bx0, m.bx1)
                 AND GREATEST(m.bx0, m.bx1) <= GREATEST(t.ax0, t.ax1))
             OR (LEAST(m.bx0, m.bx1) <= LEAST(t.ax0, t.ax1)
                 AND LEAST(t.ax0, t.ax1) <= GREATEST(m.bx0, m.bx1))
             OR (LEAST(m.bx0, m.bx1) <= GREATEST(t.ax0, t.ax1)
                 AND GREATEST(t.ax0, t.ax1) <= GREATEST(m.bx0, m.bx1))
           ELSE
             (LEAST(t.ay0, t.ay1) <= LEAST(m.by0, m.by1)
              AND LEAST(m.by0, m.by1) <= GREATEST(t.ay0, t.ay1))
             OR (LEAST(t.ay0, t.ay1) <= GREATEST(m.by0, m.by1)
                 AND GREATEST(m.by0, m.by1) <= GREATEST(t.ay0, t.ay1))
             OR (LEAST(m.by0, m.by1) <= LEAST(t.ay0, t.ay1)
                 AND LEAST(t.ay0, t.ay1) <= GREATEST(m.by0, m.by1))
             OR (LEAST(m.by0, m.by1) <= GREATEST(t.ay0, t.ay1)
                 AND GREATEST(t.ay0, t.ay1) <= GREATEST(m.by0, m.by1))
           END)
    """
    cond = ("(h.gid IS NOT NULL OR COALESCE(w.w, 0) <> 0)"
            if mode == "touching"
            else "(COALESCE(w.w, 0) <> 0 AND h.gid IS NULL)")
    return f"""
WITH msegs AS ({GEOM_SEGS_SQL}),
tedges(ax0, ay0, ax1, ay1) AS (VALUES
    {_ring_edges_sql(TARGET_POLY)}),
hits AS (
  SELECT DISTINCT m.gid
  FROM msegs m CROSS JOIN tedges t
  WHERE ({hit}) OR ({collinear})),
wind AS (
  SELECT f.gid,
         SUM(CASE
             WHEN t.ay0 <= f.by0 AND f.by0 < t.ay1
                  AND (t.ax1 - t.ax0)*(f.by0 - t.ay0)
                      - (f.bx0 - t.ax0)*(t.ay1 - t.ay0) > 0 THEN 1
             WHEN t.ay0 > f.by0 AND f.by0 >= t.ay1
                  AND (t.ax1 - t.ax0)*(f.by0 - t.ay0)
                      - (f.bx0 - t.ax0)*(t.ay1 - t.ay0) < 0 THEN -1
             ELSE 0 END) AS w
  FROM msegs f CROSS JOIN tedges t GROUP BY f.gid)
SELECT g.gid AS geom_id
FROM (SELECT DISTINCT gid FROM msegs) g
LEFT JOIN hits h ON h.gid = g.gid
LEFT JOIN wind w ON w.gid = g.gid
WHERE {cond}
"""

# ---------------------------------------------------------------------------
# 7. Crossing-number counts (intersection.pyx:624-674 semantics)
# ---------------------------------------------------------------------------

CROSS_RING = np.array([(-60.0, -40.0), (20.0, -70.0), (70.0, 10.0),
                       (10.0, 60.0), (-30.0, 20.0), (-80.0, 30.0)])


@query(oracle=lambda: count_crossings_sql())
def q_count_crossings(sf_dir: str):
    """(keys, n_crossings): upward ray crossings of every derived point
    against the closed CROSS_RING — kernels.predicates.count_crossings
    with its slope-sign-dependent half-open interval rules."""
    from ..kernels.predicates import count_crossings
    from .queries import points_ds

    ds = points_ds(sf_dir)

    def fn(batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy()
        lat = batch.column("lat").to_numpy()
        n = count_crossings(lon, lat, CROSS_RING, ring=True)
        out = batch.select(["l_orderkey", "l_linenumber"])
        return out.append_column("n_crossings",
                                 pa.array(n.astype(np.int64), pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow")


def count_crossings_sql() -> str:
    # mirrors count_crossings: m = dy/dx (nonvertical), y = y0+m*(px-x0),
    # above, slope-sign-dependent (min,max] / [min,max) interval on y,
    # the 1e-15 horizontal special case, and the (xlo, xhi] x-interval
    return f"""
WITH pts AS ({PTS_SQL}),
npts AS (SELECT row_number() OVER () AS rid, * FROM pts),
edges(x0, y0, x1, y1) AS (VALUES
    {_ring_edges_sql(CROSS_RING)}),
h AS (
  SELECT p.rid, p.l_orderkey, p.l_linenumber, p.lon AS px, p.lat AS py,
         e.x0, e.y0, e.x1, e.y1,
         (e.y1 - e.y0) / (e.x1 - e.x0) AS m,
         e.y0 + (e.y1 - e.y0) / (e.x1 - e.x0) * (p.lon - e.x0) AS y
  FROM npts p CROSS JOIN edges e WHERE e.x0 <> e.x1),
c AS (
  SELECT rid, l_orderkey, l_linenumber,
         CASE WHEN y >= py
                   AND ((CASE WHEN m > 0
                         THEN LEAST(y0, y1) < y AND y <= GREATEST(y0, y1)
                         ELSE LEAST(y0, y1) <= y AND y < GREATEST(y0, y1)
                         END)
                        OR (ABS(y0 - y1) < 1e-15 AND ABS(y - y0) < 1e-15))
                   AND LEAST(x0, x1) < px AND px <= GREATEST(x0, x1)
              THEN 1 ELSE 0 END AS hit
  FROM h)
-- group by the synthetic rid: duplicate (l_orderkey, l_linenumber)
-- input rows each yield their own output row, like the engine
SELECT ANY_VALUE(l_orderkey) AS l_orderkey,
       ANY_VALUE(l_linenumber) AS l_linenumber,
       CAST(SUM(hit) AS BIGINT) AS n_crossings
FROM c GROUP BY rid
"""


# ---------------------------------------------------------------------------
# 8. Halo-tiled stencil: ESRI slope over the synthetic grid
# ---------------------------------------------------------------------------

@query(oracle=lambda: SLOPE_STENCIL_SQL)
def q_slope_stencil(sf_dir: str):
    """(i, j, slope) for interior cells of the synthetic 1-degree grid,
    computed through the halo-tiled stencil stage (64x64 tiles,
    overlap=1). Exact parity: the ESRI 3x3 numerators are integers, the
    /8 divisions are dyadic, sqrt is correctly rounded."""
    from ..stages.raster import stencil_stage, tiles_dataset

    vals = _synthetic_grid()
    tiles = tiles_dataset(vals, GRID_T, tile=64, overlap=1)
    out = stencil_stage(tiles, "slope")
    ny, nx = vals.shape

    def rows(batch: pa.Table) -> pa.Table:
        from ..stages.raster import _block

        out_i = []
        out_j = []
        out_v = []
        for r in range(batch.num_rows):
            i0 = batch.column("i0")[r].as_py()
            j0 = batch.column("j0")[r].as_py()
            bny = batch.column("ny")[r].as_py()
            bnx = batch.column("nx")[r].as_py()
            block = _block(batch, r)[:bny, :bnx]
            jj, ii = np.meshgrid(np.arange(bnx) + j0, np.arange(bny) + i0)
            keep = ((ii >= 1) & (ii <= ny - 2)
                    & (jj >= 1) & (jj <= nx - 2))
            out_i.append(ii[keep].astype(np.int64))
            out_j.append(jj[keep].astype(np.int64))
            out_v.append(block[keep])
        return pa.table({
            "i": pa.array(np.concatenate(out_i)),
            "j": pa.array(np.concatenate(out_j)),
            "slope": pa.array(np.concatenate(out_v), pa.float64()),
        })

    return out.map_batches(rows, batch_format="pyarrow")


SLOPE_STENCIL_SQL = """
WITH cells AS (
  SELECT i.range AS i, j.range AS j
  FROM range(0, 160) i CROSS JOIN range(0, 360) j),
g AS (SELECT i, j, CAST((i*31 + j*17) % 97 AS DOUBLE) AS v FROM cells),
st AS (
  SELECT c.i, c.j,
         ((2*ge.v + gne.v + gse.v) - (2*gw.v + gnw.v + gsw.v)) / (8.0*1.0)
           AS ddx,
         ((2*gs.v + gse.v + gsw.v) - (2*gn.v + gnw.v + gne.v)) / (8.0*1.0)
           AS ddy
  FROM cells c
  JOIN g ge  ON ge.i  = c.i     AND ge.j  = c.j + 1
  JOIN g gw  ON gw.i  = c.i     AND gw.j  = c.j - 1
  JOIN g gn  ON gn.i  = c.i - 1 AND gn.j  = c.j
  JOIN g gs  ON gs.i  = c.i + 1 AND gs.j  = c.j
  JOIN g gne ON gne.i = c.i - 1 AND gne.j = c.j + 1
  JOIN g gnw ON gnw.i = c.i - 1 AND gnw.j = c.j - 1
  JOIN g gse ON gse.i = c.i + 1 AND gse.j = c.j + 1
  JOIN g gsw ON gsw.i = c.i + 1 AND gsw.j = c.j - 1
  WHERE c.i BETWEEN 1 AND 158 AND c.j BETWEEN 1 AND 358)
SELECT CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j,
       sqrt(ddx*ddx + ddy*ddy) AS slope
FROM st
"""


# ---------------------------------------------------------------------------
# 9. Bilinear sampling (crfuncs.pyx:118-157 incl. the _lohi bracket)
# ---------------------------------------------------------------------------

@query(oracle=lambda: grid_sample_bilinear_sql())
def q_grid_sample_bilinear(sf_dir: str):
    """(keys, value): bilinear sample of the synthetic grid at every
    derived point through the broadcast-grid sampling stage; rows whose
    2x2 support leaves the grid are dropped (nodata) on both sides."""
    from ..stages.raster import sample_points
    from .queries import points_ds

    ds = points_ds(sf_dir)
    out = sample_points(ds, _synthetic_grid(), GRID_T, mode="bilinear")

    def shape(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy()
        keep = ~np.isnan(v)
        t = batch.select(["l_orderkey", "l_linenumber", "value"])
        return t.filter(pa.array(keep))

    return out.map_batches(shape, batch_format="pyarrow")


# I = (lat + 80) - 0.5, J = (lon + 180) - 0.5 (positions() with this
# transform reduces to exactly these ops); _lohi bracket mirrored.
# Module-level so the profile oracle reuses the identical fragments.
BILINEAR_LOHI_SQL = """
  b AS (
    SELECT *,
           CASE WHEN floor(I) <> I THEN floor(I)
                WHEN I <> 0 THEN I - 1 ELSE I END AS i0f,
           CASE WHEN floor(I) <> I THEN floor(I) + 1
                WHEN I <> 0 THEN I ELSE I + 1 END AS i1f,
           CASE WHEN floor(J) <> J THEN floor(J)
                WHEN J <> 0 THEN J - 1 ELSE J END AS j0f,
           CASE WHEN floor(J) <> J THEN floor(J) + 1
                WHEN J <> 0 THEN J ELSE J + 1 END AS j1f
    FROM ij)
"""
BILINEAR_VAL_SQL = ("CAST((CAST({i} AS BIGINT)*31 + CAST({j} AS BIGINT)*17)"
                    " % 97 AS DOUBLE)")


def bilinear_value_sql() -> str:
    """The 4-corner bilinear expression over the b CTE."""
    v = BILINEAR_VAL_SQL
    return (f"{v.format(i='i0f', j='j0f')} * (i1f - I) * (j1f - J)\n"
            f"     + {v.format(i='i1f', j='j0f')} * (I - i0f) * (j1f - J)\n"
            f"     + {v.format(i='i0f', j='j1f')} * (i1f - I) * (J - j0f)\n"
            f"     + {v.format(i='i1f', j='j1f')} * (I - i0f) * (J - j0f)")


def grid_sample_bilinear_sql() -> str:
    lohi = BILINEAR_LOHI_SQL
    val = BILINEAR_VAL_SQL
    return f"""
WITH pts AS ({PTS_SQL}),
ij AS (
  SELECT l_orderkey, l_linenumber,
         (lat + 80.0) - 0.5 AS I, (lon + 180.0) - 0.5 AS J
  FROM pts),
{lohi}
SELECT l_orderkey, l_linenumber,
       {val.format(i='i0f', j='j0f')} * (i1f - I) * (j1f - J)
     + {val.format(i='i1f', j='j0f')} * (I - i0f) * (j1f - J)
     + {val.format(i='i0f', j='j1f')} * (i1f - I) * (J - j0f)
     + {val.format(i='i1f', j='j1f')} * (I - i0f) * (J - j0f) AS value
FROM b
WHERE i0f >= 0 AND i1f < 160 AND j0f >= 0 AND j1f < 360
"""


# ---------------------------------------------------------------------------
# 11. Scale-path variants certified against the same oracles
# ---------------------------------------------------------------------------

@query(oracle=lambda: KNN_JOIN_SQL)
def q_knn_join_coshuffle(sf_dir: str):
    """q_knn_join through the kNN join's co-shuffle shape (boundary-cell
    replication and distributed residue rounds), which the join takes
    for a right side above the broadcast budget — certified hash-exact
    against the same SQL oracle as the broadcast shape."""
    import ray.data

    from ..stages.knn import _coshuffle
    from .queries import KNN_JOIN_K, _knn_join_query

    # ring=2 replication: candidate counts high enough that the
    # in-cell bound resolves everything in one round at bench scale
    return _knn_join_query(sf_dir, lambda left, right: _coshuffle(
        left, ray.data.from_blocks([right]), KNN_JOIN_K, zoom=4, ring=2))


@query(oracle=lambda: pip_join_sql())
def q_pip_strtree(sf_dir: str):
    """The PIP join through the STR-packed bbox-tree prefilter
    (state/strtree.py) — result-identical to the cell-cover path and
    certified against the same winding-number oracle."""
    from ..stages.join import pip_join_strtree
    from .queries import points_ds, query_polyset

    ds = points_ds(sf_dir)
    joined = pip_join_strtree(ds, query_polyset())
    return joined.select_columns(["l_orderkey", "l_linenumber", "poly_id"])


BBOX_QUERY = (-30.0, -25.0, 10.0, 30.0)


@query(oracle=lambda: BBOX_MEMBERS_SQL)
def q_bbox_members(sf_dir: str):
    """Multipart bbox search (reference within_bbox/touching_bbox,
    geometry.py:1472-1494): member-segment bboxes vs a query box via a
    per-batch STRtree (state/strtree.py overlap semantics: touching
    counts); `contained` flags full containment (search_within)."""
    import ray.data

    from ..state.strtree import STRtree

    cus = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                columns=["c_custkey"])
    qxmin, qymin, qxmax, qymax = BBOX_QUERY

    def fn(batch: pa.Table) -> pa.Table:
        k = batch.column("c_custkey").to_numpy().astype(np.int64)
        x0 = ((k * GEOM_V1[0]) % 81 - 40).astype(np.float64)
        y0 = ((k * GEOM_V1[1]) % 81 - 40).astype(np.float64)
        x1 = ((k * GEOM_V2[0]) % 81 - 40).astype(np.float64)
        y1 = ((k * GEOM_V2[1]) % 81 - 40).astype(np.float64)
        boxes = np.column_stack([np.minimum(x0, x1), np.minimum(y0, y1),
                                 np.maximum(x0, x1), np.maximum(y0, y1)])
        idx = STRtree(boxes).query_box(qxmin, qymin, qxmax, qymax)
        b = boxes[idx]
        contained = ((b[:, 0] >= qxmin) & (b[:, 2] <= qxmax)
                     & (b[:, 1] >= qymin) & (b[:, 3] <= qymax))
        return pa.table({
            "geom_id": pa.array(k[idx], pa.int64()),
            "contained": pa.array(contained.astype(np.int64)),
        })

    return cus.map_batches(fn, batch_format="pyarrow")


BBOX_MEMBERS_SQL = f"""
WITH b AS (
  SELECT c_custkey AS geom_id,
         LEAST(CAST((c_custkey * {GEOM_V1[0]}) % 81 - 40 AS DOUBLE),
               CAST((c_custkey * {GEOM_V2[0]}) % 81 - 40 AS DOUBLE)) AS bxmin,
         LEAST(CAST((c_custkey * {GEOM_V1[1]}) % 81 - 40 AS DOUBLE),
               CAST((c_custkey * {GEOM_V2[1]}) % 81 - 40 AS DOUBLE)) AS bymin,
         GREATEST(CAST((c_custkey * {GEOM_V1[0]}) % 81 - 40 AS DOUBLE),
                  CAST((c_custkey * {GEOM_V2[0]}) % 81 - 40 AS DOUBLE)) AS bxmax,
         GREATEST(CAST((c_custkey * {GEOM_V1[1]}) % 81 - 40 AS DOUBLE),
                  CAST((c_custkey * {GEOM_V2[1]}) % 81 - 40 AS DOUBLE)) AS bymax
  FROM customer)
SELECT geom_id,
       CAST(CASE WHEN bxmin >= {BBOX_QUERY[0]!r} AND bxmax <= {BBOX_QUERY[2]!r}
                  AND bymin >= {BBOX_QUERY[1]!r} AND bymax <= {BBOX_QUERY[3]!r}
            THEN 1 ELSE 0 END AS BIGINT) AS contained
FROM b
WHERE bxmin <= {BBOX_QUERY[2]!r} AND bxmax >= {BBOX_QUERY[0]!r}
  AND bymin <= {BBOX_QUERY[3]!r} AND bymax >= {BBOX_QUERY[1]!r}
"""


# ---------------------------------------------------------------------------
# 12. Grid extrema / data extent (tiled partials + tree combine)
# ---------------------------------------------------------------------------

@query(oracle=lambda: GRID_EXTREMA_SQL)
def q_grid_extrema(sf_dir: str):
    """Nodata-masked extrema + data extent of the synthetic grid (cells
    with value 0 are nodata), computed from tile-record partials with a
    min/max tree combine — the distributed Grid.minmax / data_extent
    (karta/raster/grid.py:26-48, 389-463)."""
    from ..stages.agg import tree_agg
    from ..stages.raster import _block, tiles_dataset

    vals = _synthetic_grid().copy()
    vals[vals == 0.0] = np.nan
    tiles = tiles_dataset(vals, GRID_T, tile=64)

    def partial(batch: pa.Table) -> pa.Table:
        rows = {k: [] for k in ("k", "vmin", "vmax", "imin", "imax",
                                "jmin", "jmax")}
        for r in range(batch.num_rows):
            i0 = batch.column("i0")[r].as_py()
            j0 = batch.column("j0")[r].as_py()
            block = _block(batch, r)
            ok = ~np.isnan(block)
            if not ok.any():
                continue
            ii, jj = np.nonzero(ok)
            rows["k"].append(0)
            rows["vmin"].append(int(block[ok].min()))
            rows["vmax"].append(int(block[ok].max()))
            rows["imin"].append(int(ii.min()) + i0)
            rows["imax"].append(int(ii.max()) + i0)
            rows["jmin"].append(int(jj.min()) + j0)
            rows["jmax"].append(int(jj.max()) + j0)
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in rows.items()})

    part = tiles.map_batches(partial, batch_format="pyarrow")
    agg = tree_agg(part, ["k"],
                   [("vmin", "min"), ("vmax", "max"), ("imin", "min"),
                    ("imax", "max"), ("jmin", "min"), ("jmax", "max")])

    def finalize(batch: pa.Table) -> pa.Table:
        g = {c: batch.column(c)[0].as_py() for c in batch.column_names}
        x0, y0, dx, dy = GRID_T[0], GRID_T[1], GRID_T[2], GRID_T[3]
        return pa.table({
            "vmin": pa.array([g["vmin"]], pa.int64()),
            "vmax": pa.array([g["vmax"]], pa.int64()),
            "xmin": pa.array([x0 + (g["jmin"] + 0.5) * dx], pa.float64()),
            "ymin": pa.array([y0 + (g["imin"] + 0.5) * dy], pa.float64()),
            "xmax": pa.array([x0 + (g["jmax"] + 0.5) * dx], pa.float64()),
            "ymax": pa.array([y0 + (g["imax"] + 0.5) * dy], pa.float64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


GRID_EXTREMA_SQL = """
WITH cells AS (
  SELECT i.range AS i, j.range AS j,
         (i.range*31 + j.range*17) % 97 AS v
  FROM range(0, 160) i CROSS JOIN range(0, 360) j),
ok AS (SELECT * FROM cells WHERE v <> 0)
SELECT CAST(MIN(v) AS BIGINT) AS vmin, CAST(MAX(v) AS BIGINT) AS vmax,
       -180.0 + (CAST(MIN(j) AS DOUBLE) + 0.5) * 1.0 AS xmin,
       -80.0 + (CAST(MIN(i) AS DOUBLE) + 0.5) * 1.0 AS ymin,
       -180.0 + (CAST(MAX(j) AS DOUBLE) + 0.5) * 1.0 AS xmax,
       -80.0 + (CAST(MAX(i) AS DOUBLE) + 0.5) * 1.0 AS ymax
FROM ok
"""


# ---------------------------------------------------------------------------
# 13. Distributed raster mosaic (weighted merge of tile records)
# ---------------------------------------------------------------------------

MERGE_W = (1.0, 3.0)  # normalized by the stage to (0.5, 1.5) — dyadic


@query(oracle=lambda: RASTER_MERGE_SQL)
def q_raster_merge(sf_dir: str):
    """Weighted mosaic of two integer-translated synthetic grids as a
    distributed tile-record merge (stages/raster.merge_grids_stage —
    karta raster.merge semantics, grid.py:1141-1231). Exact: 2 grids
    -> at most 2 contributions per cell (IEEE addition of two terms is
    order-independent) and dyadic weights."""
    from ..stages.raster import merge_grids_stage, tiles_dataset

    ii, jj = np.meshgrid(np.arange(50), np.arange(60), indexing="ij")
    ga = ((ii * 7 + jj * 11) % 50).astype(np.float64)
    ii, jj = np.meshgrid(np.arange(40), np.arange(70), indexing="ij")
    gb = ((ii * 13 + jj * 3) % 40).astype(np.float64)
    ta = tiles_dataset(ga, (0.0, 0.0, 1.0, 1.0, 0.0, 0.0), tile=32)
    tb = tiles_dataset(gb, (20.0, 10.0, 1.0, 1.0, 0.0, 0.0), tile=32)
    return merge_grids_stage([ta, tb], weights=MERGE_W,
                             grid_origins=[(0, 0), (10, 20)])


RASTER_MERGE_SQL = """
WITH a AS (
  SELECT i.range AS I, j.range AS J,
         CAST((i.range*7 + j.range*11) % 50 AS DOUBLE) * 0.5 AS wv,
         0.5 AS w
  FROM range(0, 50) i CROSS JOIN range(0, 60) j),
b AS (
  SELECT i.range + 10 AS I, j.range + 20 AS J,
         CAST((i.range*13 + j.range*3) % 40 AS DOUBLE) * 1.5 AS wv,
         1.5 AS w
  FROM range(0, 40) i CROSS JOIN range(0, 70) j),
u AS (SELECT * FROM a UNION ALL SELECT * FROM b)
SELECT CAST(I AS BIGINT) AS I, CAST(J AS BIGINT) AS J,
       SUM(wv) / SUM(w) AS value
FROM u GROUP BY I, J
"""

# ---------------------------------------------------------------------------
# 14. within_distance + regex token counting
# ---------------------------------------------------------------------------

WITHIN_DIST_R = 60.0


@query(oracle=lambda: within_distance_sql())
def q_within_distance(sf_dir: str):
    """karta ``within_distance`` semantics (geometry.py:794-807: the
    point must be within R of EVERY segment of the chain): per-segment
    squared projected distances vs R^2, all-segments AND. Exact: same
    projection ops as point_to_line, compared as d2 <= R*R."""
    from ..kernels.lines import nearest_on_segments_planar
    from .queries import points_ds

    ds = points_ds(sf_dir)
    x0 = NEAREST_CHAIN[:-1, 0]
    y0 = NEAREST_CHAIN[:-1, 1]
    x1 = NEAREST_CHAIN[1:, 0]
    y1 = NEAREST_CHAIN[1:, 1]
    r2 = WITHIN_DIST_R * WITHIN_DIST_R

    def fn(batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy()
        lat = batch.column("lat").to_numpy()
        ok = np.ones(len(lon), dtype=bool)
        for s in range(len(x0)):
            xn, yn, _ = nearest_on_segments_planar(
                lon, lat, x0[s], y0[s], x1[s], y1[s])
            dxp = lon - xn
            dyp = lat - yn
            ok &= (dxp * dxp + dyp * dyp) <= r2
        out = batch.select(["l_orderkey", "l_linenumber"])
        return out.append_column(
            "within", pa.array(ok.astype(np.int64), pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow")


def within_distance_sql() -> str:
    return f"""
WITH pts AS ({PTS_SQL}),
npts AS (SELECT row_number() OVER () AS rid, * FROM pts),
segs(x0, y0, x1, y1) AS (VALUES
    {_chain_segments_sql(NEAREST_CHAIN)}),
proj AS (
  SELECT p.rid, p.l_orderkey, p.l_linenumber,
         p.lon - (s.x0 + LEAST(GREATEST(
             ((p.lon - s.x0)*(s.x1 - s.x0) + (p.lat - s.y0)*(s.y1 - s.y0))
             / ((s.x1 - s.x0)*(s.x1 - s.x0) + (s.y1 - s.y0)*(s.y1 - s.y0)),
             0.0), 1.0) * (s.x1 - s.x0)) AS dxp,
         p.lat - (s.y0 + LEAST(GREATEST(
             ((p.lon - s.x0)*(s.x1 - s.x0) + (p.lat - s.y0)*(s.y1 - s.y0))
             / ((s.x1 - s.x0)*(s.x1 - s.x0) + (s.y1 - s.y0)*(s.y1 - s.y0)),
             0.0), 1.0) * (s.y1 - s.y0)) AS dyp
  FROM npts p CROSS JOIN segs s)
SELECT ANY_VALUE(l_orderkey) AS l_orderkey,
       ANY_VALUE(l_linenumber) AS l_linenumber,
       CAST(CASE WHEN BOOL_AND(dxp*dxp + dyp*dyp
                               <= {WITHIN_DIST_R!r} * {WITHIN_DIST_R!r})
            THEN 1 ELSE 0 END AS BIGINT) AS within
FROM proj GROUP BY rid
"""


TOKEN_PATTERN = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"


@query(oracle=lambda: TOKEN_COUNT_SQL)
def q_token_count(sf_dir: str):
    """BPE-ish token counting: words / numbers / punctuation runs via
    one RE2 pattern (Arrow count_substring_regex; DuckDB's regex engine
    is RE2 too, so counts are identical)."""
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"],
                               override_num_blocks=32)

    def fn(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pc.cast(pc.count_substring_regex(
                text, TOKEN_PATTERN), pa.int64()),
            "n_words": pc.cast(pc.count_substring_regex(
                text, "[A-Za-z]+"), pa.int64()),
            "n_numbers": pc.cast(pc.count_substring_regex(
                text, "[0-9]+"), pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


TOKEN_COUNT_SQL = f"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '{TOKEN_PATTERN}')) AS BIGINT)
         AS n_tokens,
       CAST(len(regexp_extract_all(text, '[A-Za-z]+')) AS BIGINT)
         AS n_words,
       CAST(len(regexp_extract_all(text, '[0-9]+')) AS BIGINT)
         AS n_numbers
FROM documents
"""

# ---------------------------------------------------------------------------
# 15. k-means clustering + IVF over fitted clusters
# ---------------------------------------------------------------------------

KMEANS_K = 8


@query(oracle=lambda: OH.kmeans_sql(KMEANS_K))
def q_kmeans(sf_dir: str):
    """Distributed k-means assignment step: deterministic seed centroids
    (the k smallest vec_ids) broadcast to a map_batches assignment, then
    per-cluster integer aggregates (count + sum of member ids).
    Oracle-checked — argmin over k distances to the seed vectors is
    plain SQL, and the outputs are integer-exact.  No Lloyd's
    iterations follow: iterative float means are not SQL-mirrorable bit
    for bit."""
    import ray.data

    from ..stages.agg import tree_sum
    from ..stages.kmeans import kmeans_predict, kmeans_seeds

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    cent = kmeans_seeds(ds, KMEANS_K)
    labeled = kmeans_predict(ds, cent)

    def partial(batch: pa.Table) -> pa.Table:
        lab = batch.column("label").to_numpy()
        vid = batch.column("vec_id").to_numpy()
        t = pa.table({"label": pa.array(lab.astype(np.int64)),
                      "vec_id": pa.array(vid.astype(np.int64)),
                      "one": pa.array(np.ones(len(lab), dtype=np.int64))})
        g = t.group_by(["label"]).aggregate([("one", "sum"),
                                             ("vec_id", "sum")])
        return g.rename_columns(["label", "n", "sum_vec_id"])

    return tree_sum(labeled.map_batches(partial, batch_format="pyarrow"),
                    ["label"], ["n", "sum_vec_id"])


# ---------------------------------------------------------------------------
# Distributed conic reprojection (round 4): every derived point
# forward-projected through BOTH closed-form conic CRS families
# (reference semantics: ProjectedCRS.project / Geometry.to_crs,
# karta/crs.py:248-298) inside one vectorized map_batches stage.  The
# oracle mirrors the Snyder forward formulas op-for-op in SQL with the
# projection constants folded to Python-double literals.  numpy's SIMD
# tan/ln/pow differ from DuckDB's libm by ~1 ulp on ~30% of inputs
# (sin/cos/sqrt are bit-exact — verified empirically on this host),
# amplified to at most 3e-8 m through the projection chain; outputs
# are therefore centimeter-quantized int64s, where the minimum margin
# between any projected value and a quantization boundary is
# >= 1.2e-6 m at sf0.01/sf0.1 (measured on both engines) — 40x the
# worst divergence, so the floor decision is engine-independent on the
# driver's inputs.
# ---------------------------------------------------------------------------

# Snyder's CONUS parameter sets (worked-example parallels); both share
# lon_0 = -96 so the oracle computes one wrapped dlam
CONIC_LCC = dict(lon_0=-96.0, lat_0=23.0, lat_1=33.0, lat_2=45.0)
CONIC_AEA = dict(lon_0=-96.0, lat_0=23.0, lat_1=29.5, lat_2=45.5)


@query(oracle=lambda: project_conic_sql())
def q_project_conic(sf_dir: str):
    """(keys, x_lcc_cm, y_lcc_cm, x_aea_cm, y_aea_cm) — Lambert
    conformal conic and Albers equal-area projected coordinates
    (centimeter-quantized int64) for every derived point."""
    from ..crs import AlbersEqualAreaCRS, LambertConformalConicCRS
    from .queries import points_ds

    lcc = LambertConformalConicCRS(**CONIC_LCC)
    aea = AlbersEqualAreaCRS(**CONIC_AEA)

    def cm(v: np.ndarray) -> pa.Array:
        return pa.array(np.floor(v * 100.0).astype(np.int64), pa.int64())

    def proj(batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy()
        lat = batch.column("lat").to_numpy()
        xl, yl = lcc.project(lon, lat)
        xa, ya = aea.project(lon, lat)
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "l_linenumber": batch.column("l_linenumber"),
            "x_lcc_cm": cm(xl), "y_lcc_cm": cm(yl),
            "x_aea_cm": cm(xa), "y_aea_cm": cm(ya),
        })

    return points_ds(sf_dir).map_batches(proj, batch_format="pyarrow",
                                         zero_copy_batch=True)


def project_conic_sql() -> str:
    from ..kernels import projections as PJ

    d2r = repr(PJ.D2R)
    A = repr(PJ.WGS84_A)

    el, nl, Fl, rho0l = PJ._lcc_consts(
        CONIC_LCC["lat_1"], CONIC_LCC["lat_2"], CONIC_LCC["lat_0"],
        PJ.WGS84_A, PJ.WGS84_B)
    aFl = repr(PJ.WGS84_A * Fl)            # rho = (a*F) * t^n fold
    ehl = repr(el / 2.0)
    el, nl, rho0l = repr(el), repr(float(nl)), repr(float(rho0l))

    ea, na, Ca, rho0a = PJ._aea_consts(
        CONIC_AEA["lat_1"], CONIC_AEA["lat_2"], CONIC_AEA["lat_0"],
        PJ.WGS84_A, PJ.WGS84_B)
    e2a = repr(ea * ea)
    om_e2a = repr(1.0 - ea * ea)
    inv2ea = repr(1.0 / (2.0 * ea))
    ea, na, Ca, rho0a = (repr(ea), repr(float(na)), repr(float(Ca)),
                         repr(float(rho0a)))

    lon0 = repr(CONIC_LCC["lon_0"])
    return f"""
WITH pts AS ({PTS_SQL}),
p AS (
  SELECT l_orderkey, l_linenumber,
         lat*{d2r} AS phi, sin(lat*{d2r}) AS s,
         ((lon - ({lon0})) + 180.0) % 360.0 - 180.0 AS dlam
  FROM pts),
t AS (
  SELECT l_orderkey, l_linenumber, dlam,
         tan(pi()/4.0 - phi/2.0)
           / power((1.0 - {el}*s)/(1.0 + {el}*s), {ehl}) AS tl,
         {om_e2a}*(s/(1.0 - {e2a}*s*s)
                   - {inv2ea}*ln((1.0 - {ea}*s)/(1.0 + {ea}*s))) AS q
  FROM p),
r AS (
  SELECT l_orderkey, l_linenumber,
         {aFl}*power(tl, {nl}) AS rho_l, ({nl}*dlam)*{d2r} AS th_l,
         ({A}*sqrt({Ca} - {na}*q))/{na} AS rho_a,
         ({na}*dlam)*{d2r} AS th_a
  FROM t)
SELECT l_orderkey, l_linenumber,
       CAST(floor((rho_l*sin(th_l) + 0.0)*100.0) AS BIGINT) AS x_lcc_cm,
       CAST(floor((({rho0l} - rho_l*cos(th_l)) + 0.0)*100.0) AS BIGINT)
         AS y_lcc_cm,
       CAST(floor((rho_a*sin(th_a) + 0.0)*100.0) AS BIGINT) AS x_aea_cm,
       CAST(floor((({rho0a} - rho_a*cos(th_a)) + 0.0)*100.0) AS BIGINT)
         AS y_aea_cm
FROM r
"""


# ---------------------------------------------------------------------------
# Distributed as-of join (round 4): every non-purchase event joined to
# the user's most recent purchase at or before it — the canonical
# temporal enrichment Ray Data lacks natively (stages/asof.py: one
# range shuffle + vectorized in-block matching + a bounded residual
# pass).  DuckDB's native ASOF JOIN is the oracle; outputs are exact
# int64 timestamps/keys and a bit-identical pass-through double.
# ---------------------------------------------------------------------------

@query(oracle=lambda: ASOF_JOIN_SQL)
def q_asof_join(sf_dir: str):
    """(event_id, user_id, ts_us, purchase_id, us_since,
    purchase_value) — inner as-of join of the events stream against
    its own purchase sub-stream."""
    import ray.data

    from ..stages.asof import asof_join

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "ts", "user_id",
                                        "event_type", "value"])

    def split(batch: pa.Table):
        # one scan, one pass: purchases are the right stream, the rest
        # the left — row-disjoint subsets of the same source
        is_purchase = pc.equal(batch.column("event_type"), "purchase")
        return (batch.filter(pc.invert(is_purchase)),
                batch.filter(is_purchase))

    joined = asof_join(ev, None, key="user_id", on="ts",
                       left_cols=["event_id"],
                       right_cols=["event_id", "value"],
                       split_fn=split)

    def finish(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").to_numpy()
        rts = batch.column("r_ts").to_numpy()
        return pa.table({
            "event_id": batch.column("event_id"),
            "user_id": batch.column("user_id"),
            "ts_us": batch.column("ts"),
            "purchase_id": batch.column("r_event_id"),
            "us_since": pa.array(ts - rts, pa.int64()),
            "purchase_value": batch.column("r_value"),
        })

    return joined.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


ASOF_JOIN_SQL = """
WITH l AS (SELECT event_id, user_id, ts, epoch_us(ts) AS ts_us
           FROM events WHERE event_type <> 'purchase'),
     r AS (SELECT event_id, user_id, ts, value
           FROM events WHERE event_type = 'purchase')
SELECT l.event_id, l.user_id, l.ts_us,
       r.event_id AS purchase_id,
       l.ts_us - epoch_us(r.ts) AS us_since,
       r.value AS purchase_value
FROM l ASOF JOIN r ON l.user_id = r.user_id AND l.ts >= r.ts
"""


# ---------------------------------------------------------------------------
# Distributed band (range) join (round 4): every non-purchase event
# joined to ALL of the user's purchases in the preceding 24 hours —
# the interval variant of the as-of join (stages/rangejoin.py:
# time-bucket replication bounds candidates; one range shuffle; pairs
# emitted by vectorized searchsorted, never a per-group product).
# Reference analogue: the within_distance family generalized to time
# (/root/reference/karta/vector/geometry.py nearest/within queries).
# ---------------------------------------------------------------------------

BAND_US = 86_400_000_000  # 24 h in microseconds


@query(oracle=lambda: BAND_JOIN_SQL)
def q_band_join(sf_dir: str):
    """(event_id, user_id, ts_us, purchase_id, us_since,
    purchase_value) — one row per (event, in-band prior purchase)."""
    import ray.data

    from ..stages.rangejoin import band_join

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "ts", "user_id",
                                        "event_type", "value"])

    def split(b: pa.Table):
        is_p = pc.equal(b.column("event_type"), "purchase")
        lb = b.filter(pc.invert(is_p)).select(["event_id", "ts",
                                               "user_id"])
        rb = b.filter(is_p).select(["event_id", "ts", "user_id",
                                    "value"])
        return lb, rb

    joined = band_join(ev, None, key="user_id", on="ts",
                       band=BAND_US,
                       left_cols=["event_id"],
                       right_cols=["event_id", "value"],
                       split_fn=split)

    def finish(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").to_numpy()
        rts = batch.column("r_ts").to_numpy()
        return pa.table({
            "event_id": batch.column("event_id"),
            "user_id": batch.column("user_id"),
            "ts_us": batch.column("ts"),
            "purchase_id": batch.column("r_event_id"),
            "us_since": pa.array(ts - rts, pa.int64()),
            "purchase_value": batch.column("r_value"),
        })

    return joined.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


BAND_JOIN_SQL = f"""
WITH l AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us
           FROM events WHERE event_type <> 'purchase'),
     r AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us, value
           FROM events WHERE event_type = 'purchase')
SELECT l.event_id, l.user_id, l.ts_us,
       r.event_id AS purchase_id,
       l.ts_us - r.ts_us AS us_since,
       r.value AS purchase_value
FROM l JOIN r ON l.user_id = r.user_id
  AND r.ts_us BETWEEN l.ts_us - {BAND_US} AND l.ts_us
"""


# ---------------------------------------------------------------------------
# Rolling-window aggregate (round 4): for EVERY non-purchase event,
# the count and exact cents-sum of the user's purchases in the
# preceding 24 h — the sliding-window streaming aggregate
# (stages/rangejoin.py::band_agg: bucket-replication shuffle + prefix
# sums; no pair materialization, so window density can't blow memory).
# ---------------------------------------------------------------------------

@query(oracle=lambda: ROLLING_PURCHASES_SQL)
def q_rolling_purchases(sf_dir: str):
    """(event_id, user_id, ts_us, n_band, sum_cents) — one row per
    non-purchase event, zero-match rows included."""
    import ray.data

    from ..stages.rangejoin import band_agg

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "ts", "user_id",
                                        "event_type", "value"])

    # both sides are sub-streams of ONE source: split in a single scan
    def split(b: pa.Table):
        is_p = pc.equal(b.column("event_type"), "purchase")
        lb = b.filter(pc.invert(is_p)).select(["event_id", "ts",
                                               "user_id"])
        p = b.filter(is_p)
        cents = np.round(p.column("value").to_numpy(zero_copy_only=False)
                         * 100.0).astype(np.int64)
        rb = pa.table({"ts": p.column("ts"),
                       "user_id": p.column("user_id"),
                       "cents": pa.array(cents)})
        return lb, rb

    out = band_agg(ev, None, key="user_id", on="ts", band=BAND_US,
                   left_cols=["event_id"], agg_cols=["cents"],
                   split_fn=split)
    return out.map_batches(
        lambda b: b.rename_columns(
            ["event_id", "user_id", "ts_us", "n_band", "sum_cents"]),
        batch_format="pyarrow", zero_copy_batch=True)


ROLLING_PURCHASES_SQL = f"""
WITH l AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us
           FROM events WHERE event_type <> 'purchase'),
     r AS (SELECT user_id, epoch_us(ts) AS ts_us,
                  CAST(round_even(value * 100, 0) AS BIGINT) AS cents
           FROM events WHERE event_type = 'purchase')
SELECT l.event_id, l.user_id, l.ts_us,
       count(r.ts_us) AS n_band,
       CAST(coalesce(sum(r.cents), 0) AS BIGINT) AS sum_cents
FROM l LEFT JOIN r ON l.user_id = r.user_id
  AND r.ts_us BETWEEN l.ts_us - {BAND_US} AND l.ts_us
GROUP BY 1, 2, 3
"""


# ---------------------------------------------------------------------------
# Distributed exact quantiles (round 4): per event_type, exact
# p50/p90/p99 of the fixed-point price — histogram partials + tree
# combine move |types| x |cent domain| rows instead of the full table
# (stages/quantile.py). Oracle: DuckDB quantile_disc.
# ---------------------------------------------------------------------------

@query(oracle=lambda: VALUE_QUANTILES_SQL)
def q_value_quantiles(sf_dir: str):
    """(event_type, p50, p90, p99, n_rows) — exact discrete quantiles
    of value-in-cents per event type."""
    import ray.data

    from ..stages.quantile import grouped_quantiles

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "value"])

    def cents(b: pa.Table) -> pa.Table:
        c = np.round(b.column("value").to_numpy(zero_copy_only=False)
                     * 100.0).astype(np.int64)
        return pa.table({"event_type": b.column("event_type"),
                         "cents": pa.array(c)})

    return grouped_quantiles(
        ds.map_batches(cents, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["event_type"], "cents", [50, 90, 99])


VALUE_QUANTILES_SQL = """
WITH c AS (SELECT event_type,
                  CAST(round_even(value * 100, 0) AS BIGINT) AS cents
           FROM events)
SELECT event_type,
       quantile_disc(cents, 0.50) AS p50,
       quantile_disc(cents, 0.90) AS p90,
       quantile_disc(cents, 0.99) AS p99,
       count(*) AS n_rows
FROM c GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# Semi-join (round 4; the registry keeps its Bloom-era name): lineitem
# rows whose order is URGENT (stages/lookup.py::semi_join). Within the
# lookup budget the sorted distinct urgent keys are put in the object
# store once and a map_batches fused after the lineitem read filters by
# them, shuffling nothing; above it, one Ray left_semi hash join.
# ---------------------------------------------------------------------------

@query(oracle=lambda: BLOOM_SEMI_JOIN_SQL)
def q_bloom_semi_join(sf_dir: str):
    """(l_orderkey, l_linenumber, qty_x100) — lineitems of URGENT
    orders, by an exact membership filter."""
    import ray.data

    from ..stages.lookup import semi_join

    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_orderkey", "l_linenumber",
                                        "l_quantity"])

    def fixed(b: pa.Table) -> pa.Table:
        q = np.round(b.column("l_quantity").to_numpy(zero_copy_only=False)
                     * 100.0).astype(np.int64)
        return pa.table({"l_orderkey": b.column("l_orderkey"),
                         "l_linenumber": b.column("l_linenumber"),
                         "qty_x100": pa.array(q)})

    urgent = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority"]).map_batches(
        lambda b: b.filter(pc.equal(b.column("o_orderpriority"),
                                    "1-URGENT")).select(["o_orderkey"])
                   .rename_columns(["l_orderkey"]),
        batch_format="pyarrow", zero_copy_batch=True)
    return semi_join(li, urgent, key="l_orderkey").map_batches(
        fixed, batch_format="pyarrow", zero_copy_batch=True)


BLOOM_SEMI_JOIN_SQL = """
SELECT l_orderkey, l_linenumber,
       CAST(round(l_quantity * 100) AS BIGINT) AS qty_x100
FROM lineitem
WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                     WHERE o_orderpriority = '1-URGENT')
"""


# ---------------------------------------------------------------------------
# Deterministic stratified sample (round 4): training-mix reweighting
# — keep 10% of English documents, 50% of every other language, by
# md5-hash of doc_id (stages/sample.py). No RNG state: reruns,
# resumed shards and different cluster sizes all select the identical
# rows. Oracle: the same predicate via DuckDB md5_number_lower.
# ---------------------------------------------------------------------------

_SAMPLE_RATES = {"en": 0.1}
_SAMPLE_DEFAULT = 0.5


@query(oracle=lambda: _stratified_sample_sql())
def q_stratified_sample(sf_dir: str):
    """(doc_id, lang, source, n_chars) of the deterministic sample."""
    import ray.data

    from ..stages.sample import stratified_sample

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "source",
                                        "n_chars"])
    return stratified_sample(ds, id_col="doc_id", stratum_col="lang",
                             rates=_SAMPLE_RATES,
                             default_rate=_SAMPLE_DEFAULT)


def _stratified_sample_sql() -> str:
    t_en = int(_SAMPLE_RATES["en"] * (1 << 64))
    t_def = int(_SAMPLE_DEFAULT * (1 << 64))
    return f"""
SELECT doc_id, lang, source, n_chars
FROM documents
WHERE md5_number_lower(CAST(doc_id AS VARCHAR))
      < CASE WHEN lang = 'en' THEN {t_en}::HUGEINT
             ELSE {t_def}::HUGEINT END
"""


# ---------------------------------------------------------------------------
# Grouped top-N (round 4): the N best rows per key — "3 most expensive
# orders per customer". Distributed via per-block combiner + range
# shuffle with bounded residue (stages/topn.py); no global sort, no
# per-group dispatch. Tie-break on o_orderkey makes the row set unique.
# ---------------------------------------------------------------------------

@query(oracle=lambda: GROUPED_TOPN_SQL)
def q_grouped_topn(sf_dir: str):
    """(o_custkey, o_orderkey, o_totalprice): top 3 orders per
    customer by price, price ties broken by orderkey ascending."""
    import ray.data

    from ..stages.topn import grouped_topn

    ds = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                               columns=["o_custkey", "o_orderkey",
                                        "o_totalprice"])
    return grouped_topn(ds, ["o_custkey"], "o_totalprice", 3,
                        tie_cols=["o_orderkey"])


GROUPED_TOPN_SQL = """
SELECT o_custkey, o_orderkey, o_totalprice
FROM orders
QUALIFY row_number() OVER (PARTITION BY o_custkey
                           ORDER BY o_totalprice DESC, o_orderkey) <= 3
"""


# ---------------------------------------------------------------------------
# Heavy hitters (round 4): exact top-k tokens over the corpus with a
# per-block combiner (stages/heavy.py) — shuffle volume is per-block
# DISTINCT tokens, never corpus tokens. Deterministic (count desc,
# token asc) tiebreak.
# ---------------------------------------------------------------------------

HEAVY_K = 20


@query(oracle=lambda: HEAVY_HITTERS_SQL)
def q_heavy_hitters(sf_dir: str):
    """(token, n): the 20 most frequent space-split tokens in
    documents.text."""
    import ray.data

    from ..stages.heavy import top_tokens

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])
    return top_tokens(ds, HEAVY_K)


HEAVY_HITTERS_SQL = f"""
SELECT token, n FROM (
  SELECT w AS token, count(*) AS n
  FROM (SELECT unnest(string_split(text, ' ')) AS w FROM documents) u
  WHERE w <> ''
  GROUP BY w)
ORDER BY n DESC, token
LIMIT {HEAVY_K}
"""


# ---------------------------------------------------------------------------
# TF-IDF (round 4): shuffle-free per-doc term frequencies + combiner-
# bounded document frequencies + adaptive broadcast/join resolution
# (stages/tfidf.py). Weight rounded to 6 dp on both sides (same
# convention as the cm-quantized projection oracle) so DuckDB mirrors
# the float exactly.
# ---------------------------------------------------------------------------

@query(oracle=lambda: TFIDF_SQL)
def q_tfidf(sf_dir: str):
    """(doc_id, token, tf, df, tfidf) for every (document, term)."""
    import ray.data

    from ..stages.tfidf import tfidf_table

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return tfidf_table(ds)


TFIDF_SQL = """
WITH toks AS (
  SELECT doc_id, w AS token
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS w
        FROM documents)
  WHERE w <> ''),
tf AS (SELECT doc_id, token, count(*) AS tf FROM toks
       GROUP BY doc_id, token),
df AS (SELECT token, count(DISTINCT doc_id) AS df FROM toks
       GROUP BY token),
n AS (SELECT count(*) AS n FROM documents)
SELECT tf.doc_id, tf.token, tf.tf, df.df,
       round(tf.tf * ln(CAST(n.n AS DOUBLE) / df.df), 6) AS tfidf
FROM tf JOIN df USING (token) CROSS JOIN n
"""


# ---------------------------------------------------------------------------
# Pattern redaction (round 4): regex scrub + match counts in one
# streaming pass (stages/scrub.py, Arrow RE2 == DuckDB RE2). The rules
# here redact the synthetic corpus's "sensitive" vocabulary; the stage
# ships email/phone presets for real text.
# ---------------------------------------------------------------------------

SCRUB_RULES = [("name", r"\bcustomer\b", "<NAME>"),
               ("id", r"\b(key|hash)\b", "<ID>")]


@query(oracle=lambda: PII_SCRUB_SQL)
def q_pii_scrub(sf_dir: str):
    """(doc_id, n_name, n_id, text_clean): redacted text + per-rule
    match counts."""
    import ray.data

    from ..stages.scrub import scrub_text

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    out = scrub_text(ds, SCRUB_RULES)
    return out.drop_columns(["text"])


PII_SCRUB_SQL = r"""
SELECT doc_id,
       len(regexp_extract_all(text, '\bcustomer\b')) AS n_name,
       len(regexp_extract_all(
           regexp_replace(text, '\bcustomer\b', '<NAME>', 'g'),
           '\b(key|hash)\b')) AS n_id,
       regexp_replace(
           regexp_replace(text, '\bcustomer\b', '<NAME>', 'g'),
           '\b(key|hash)\b', '<ID>', 'g') AS text_clean
FROM documents
"""


# ---------------------------------------------------------------------------
# Exact k-per-stratum sample (round 4): the k smallest md5(doc_id) per
# language — deterministic reservoir-sampling analogue for training
# mixes needing exact per-stratum counts (stages/sample.py +
# stages/topn.py).
# ---------------------------------------------------------------------------

SAMPLE_K = 25


@query(oracle=lambda: GROUPED_SAMPLE_SQL)
def q_grouped_sample(sf_dir: str):
    """(lang, doc_id, source): exactly 25 docs per language (fewer if
    the language is smaller), selected by md5 rank."""
    import ray.data

    from ..stages.sample import grouped_hash_sample

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["lang", "doc_id", "source"])
    return grouped_hash_sample(ds, keys=["lang"], id_col="doc_id",
                               k=SAMPLE_K)


GROUPED_SAMPLE_SQL = f"""
SELECT lang, doc_id, source
FROM documents
QUALIFY row_number() OVER (
    PARTITION BY lang
    ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)), doc_id
) <= {SAMPLE_K}
"""


# ---------------------------------------------------------------------------
# Dedup clusters (round 4): MinHash near-dup pairs -> distributed
# connected components (stages/graph.py min-label propagation with
# pointer jumping) -> one cluster id per document (min doc_id of its
# component; singletons are their own cluster). The full canonical
# dedup pipeline: "keep doc_id == cluster_id" is the dedup decision.
# Oracle: the bit-parity minhash pair SQL extended with a recursive
# transitive-closure CTE.
# ---------------------------------------------------------------------------

CLUSTER_THRESHOLD = 0.8


@query(oracle=lambda: _dedup_clusters_sql())
def q_dedup_clusters(sf_dir: str):
    """(doc_id, cluster_id) for every document."""
    import ray.data

    from ..stages.dedup import minhash_lsh_pairs
    from ..stages.graph import connected_components

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    pairs = minhash_lsh_pairs(docs, threshold=CLUSTER_THRESHOLD)
    verts = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                  columns=["doc_id"])
    cc = connected_components(pairs, src="doc_a", dst="doc_b",
                              vertices=verts, v_col="doc_id")
    return cc.map_batches(
        lambda b: b.rename_columns(["doc_id", "cluster_id"]),
        batch_format="pyarrow")


def _dedup_clusters_sql() -> str:
    base = OH.minhash_sql(128, 16, CLUSTER_THRESHOLD)
    i = base.rindex("\nSELECT doc_a, doc_b")
    ctes, final = base[:i], base[i + 1:]
    return (
        ctes.replace("WITH ", "WITH RECURSIVE ", 1) + ",\n"
        "pairs AS (" + final + "),\n"
        "edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs\n"
        "          UNION SELECT doc_b, doc_a FROM pairs),\n"
        "reach(v, r) AS (SELECT a, b FROM edges\n"
        "                UNION SELECT reach.v, e.b\n"
        "                FROM reach JOIN edges e ON reach.r = e.a),\n"
        "comp AS (SELECT v, min(r) AS m FROM reach GROUP BY v)\n"
        "SELECT d.doc_id,\n"
        "       CAST(least(d.doc_id, coalesce(c.m, d.doc_id)) AS BIGINT)"
        " AS cluster_id\n"
        "FROM documents d LEFT JOIN comp c ON c.v = d.doc_id")


# ---------------------------------------------------------------------------
# Quality filter (round 4): keep documents at or above their
# language's median length — the standard per-stratum quality gate,
# composed from the distributed exact-quantile stage (histogram
# shuffle, not a data shuffle) + a broadcast threshold lookup.
# ---------------------------------------------------------------------------

@query(oracle=lambda: QUALITY_FILTER_SQL)
def q_quality_filter(sf_dir: str):
    """(doc_id, lang, n_chars) of docs with n_chars >= per-lang median
    (quantile_disc semantics)."""
    import ray.data

    from ..stages.lookup import lookup
    from ..stages.quantile import grouped_quantiles

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "n_chars"])
    med = grouped_quantiles(ds.select_columns(["lang", "n_chars"]),
                            ["lang"], "n_chars", [50])

    def keep(batch: pa.Table) -> pa.Table:
        n = batch.column("n_chars").to_numpy()
        lim = batch.column("p50").to_numpy()
        return batch.drop_columns(["p50"]).filter(pa.array(n >= lim))

    return lookup(ds, med, on="lang", key="lang", columns=["p50"]) \
        .map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


QUALITY_FILTER_SQL = """
SELECT doc_id, lang, n_chars
FROM (SELECT doc_id, lang, n_chars,
             quantile_disc(n_chars, 0.5) OVER (PARTITION BY lang) AS med
      FROM documents)
WHERE n_chars >= med
"""


# ---------------------------------------------------------------------------
# Anti-join (round 4; the registry keeps its Bloom-era name): lineitems
# of NON-urgent orders — the blocklist/tombstone filter shape. The same
# membership filter as q_bloom_semi_join, keeping the rows whose key it
# does not find (above the lookup budget, one Ray left_anti hash join).
# ---------------------------------------------------------------------------

@query(oracle=lambda: BLOOM_ANTI_JOIN_SQL)
def q_bloom_anti_join(sf_dir: str):
    """(l_orderkey, l_partkey, l_quantity) of lineitems whose order is
    NOT 1-URGENT."""
    import ray.data

    from ..stages.lookup import semi_join

    left = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_quantity"])
    right = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority"]).map_batches(
        lambda b: b.filter(pc.equal(b.column("o_orderpriority"), "1-URGENT"))
                   .select(["o_orderkey"]).rename_columns(["l_orderkey"]),
        batch_format="pyarrow", zero_copy_batch=True)
    return semi_join(left, right, key="l_orderkey", anti=True)


# NOT EXISTS, not NOT IN: a null l_orderkey matches no order and its
# row is kept, and a null URGENT o_orderkey removes nothing
BLOOM_ANTI_JOIN_SQL = """
SELECT l_orderkey, l_partkey, l_quantity
FROM lineitem
WHERE NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_orderpriority = '1-URGENT'
                    AND o_orderkey = l_orderkey)
"""


# ---------------------------------------------------------------------------
# Grouped HLL (round 4): one distinct-user sketch PER EVENT TYPE in a
# single pass (functions/sketch.py::hll_grouped_register_rows) —
# sketch-groupby, the 100-TB shape for per-segment cardinality
# dashboards. Output is the sketch itself (bit-parity SQL mirror);
# estimates are asserted against exact distincts in pytest.
# ---------------------------------------------------------------------------

GROUPED_HLL_P = 12


@query(oracle=lambda: _grouped_distinct_sql())
def q_grouped_distinct(sf_dir: str):
    """(event_type, bucket, register) — one HLL per event type."""
    import ray.data

    from ..functions.sketch import hll_grouped_register_rows

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "user_id"])
    return hll_grouped_register_rows(ds, "user_id", ["event_type"],
                                     GROUPED_HLL_P)


def _grouped_distinct_sql(p: int = GROUPED_HLL_P) -> str:
    w64 = 1 << 64
    cases = " ".join(f"WHEN rest >= {1 << (63 - i)}::UBIGINT THEN {i + 1}"
                     for i in range(0, 64 - p + 1))
    return f"""
WITH h AS (
  SELECT event_type,
         md5_number_lower(CAST(user_id AS VARCHAR)) AS hv FROM events),
r AS (
  SELECT event_type, CAST(hv >> {64 - p} AS BIGINT) AS bucket,
         CAST((CAST(hv AS HUGEINT) * {1 << p}) % {w64} AS UBIGINT)
           | {1 << (p - 1)}::UBIGINT AS rest
  FROM h)
SELECT event_type, bucket,
       CAST(MAX(CASE {cases} END) AS BIGINT) AS register
FROM r GROUP BY event_type, bucket
"""


# ---------------------------------------------------------------------------
# JSONL interchange round-trip (round 4): documents -> newline-
# delimited JSON shards (ray write_json) -> parallel read_json ->
# aggregate. Exercises the jsonl source/sink path every web-corpus
# pipeline starts from. Scratch goes under /tmp: driver-local, fine
# single-node; on a multi-node cluster point it at shared storage
# (same caveat as the geotiff fixture, documented).
# ---------------------------------------------------------------------------

@query(oracle=lambda: JSONL_ROUNDTRIP_SQL)
def q_jsonl_roundtrip(sf_dir: str):
    """(lang, n_docs, sum_chars) aggregated AFTER a jsonl round-trip —
    equality with the direct aggregate proves the codec lossless."""
    import os
    import shutil
    import tempfile

    import ray.data

    from ..stages.agg import tree_sum

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "n_chars"])
    # driver-local scratch: single-node assumption (bench/test harness
    # only). On a multi-node cluster the round-trip root must live on
    # shared storage so read_json tasks on other nodes see the files.
    out = tempfile.mkdtemp(prefix="karta_jsonl_")
    try:
        ds.write_json(out)
        # an empty write leaves no file to read back
        back = ray.data.read_json(out) if os.listdir(out) else ds

        def partial(batch: pa.Table) -> pa.Table:
            t = pa.table({
                "lang": batch.column("lang"),
                "n_docs": pa.array(np.ones(batch.num_rows, np.int64)),
                "sum_chars": pc.cast(batch.column("n_chars"),
                                     pa.int64()),
            })
            g = t.group_by(["lang"]).aggregate(
                [("n_docs", "sum"), ("sum_chars", "sum")])
            return g.rename_columns(["lang", "n_docs", "sum_chars"])

        # materialize before the scratch dir is deleted
        import ray as _ray

        res = tree_sum(back.map_batches(partial,
                                        batch_format="pyarrow"),
                       ["lang"], ["n_docs", "sum_chars"]).materialize()
        return res
    finally:
        shutil.rmtree(out, ignore_errors=True)


JSONL_ROUNDTRIP_SQL = """
SELECT lang, count(*) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents GROUP BY lang
"""


# ---------------------------------------------------------------------------
# Per-language embedding centroids (round 4): distributed hash join of
# the embeddings table against document metadata, then a (lang, dim)
# vector-sum tree combine (the kmeans partial shape) — the standard
# "mean embedding per segment" analysis. Centroid rounded to 6 dp on
# both sides (float-sum order differs between engines; same quantize
# convention as tfidf/project_conic).
# ---------------------------------------------------------------------------

EMB_DIM = 64


@query(oracle=lambda: LANG_CENTROIDS_SQL)
def q_lang_centroids(sf_dir: str):
    """(lang, dim, centroid): elementwise mean embedding per language.

    The emb x docs primary-key join is ONE co-group by id
    (stages/cogroup.py; docs the right side, embeddings the left) with
    the per-lang partial aggregation FUSED into the run merge — joined
    rows are never materialized, and the generic hash join's
    aggregator fixed cost (the dominant term at bench scale) is gone
    entirely. Both sides are unique on the key, so every complete run
    is (doc row, emb row); the merge checks that, which a keyed lookup
    could not do for a duplicated ``vec_id`` on the probe side."""
    import ray.data

    from ..stages.agg import group_runs, tree_sum
    from ..stages.cogroup import SIDE, cogroup

    from ..functions.arrays import (binary_column_to_matrix,
                                    matrix_to_binary_column)

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "lang"])

    # Arrow range shuffles reject nothing, but fixed-width binary blobs
    # shuffle cheaper than list<float> columns — pack the vector
    def emb_vecs(batch: pa.Table) -> pa.Table:
        mat = np.asarray(batch.column("embedding").combine_chunks()
                         .flatten().to_numpy(zero_copy_only=False),
                         dtype=np.float32).reshape(-1, EMB_DIM)
        return pa.table({"key": batch.column("vec_id"),
                         "vec": matrix_to_binary_column(mat)})

    def doc_langs(batch: pa.Table) -> pa.Table:
        return pa.table({"key": batch.column("doc_id"),
                         "lang": batch.column("lang")})

    def merge(tbl: pa.Table) -> pa.Table:
        empty = pa.table({"lang": pa.array([], pa.string()),
                          "dim": pa.array([], pa.int64()),
                          "s": pa.array([], pa.float64()),
                          "n": pa.array([], pa.int64())})
        if tbl.num_rows == 0:
            return empty
        starts, ends = group_runs(tbl, ["key"])
        side = tbl.column(SIDE).to_numpy()
        # doc_id / vec_id are primary keys by contract: a run longer
        # than 2 means a duplicated key on one side — fail loudly
        # rather than silently dropping (or worse, pairing a doc row
        # with another doc row's null vec)
        if (ends - starts > 2).any():
            bad = starts[ends - starts > 2][:3]
            raise ValueError(
                "lang_centroids: duplicated doc_id/vec_id key(s), e.g. "
                f"{tbl.column('key').take(pa.array(bad)).to_pylist()}")
        # a valid pair is exactly (doc row, vec row) in side order;
        # length-1 runs are legitimately unmatched keys (inner join)
        nxt = np.minimum(starts + 1, len(side) - 1)
        pair = ends - starts == 2
        valid = pair & (side[starts] == 0) & (side[nxt] == 1)
        if (pair & ~valid).any():          # (doc,doc) or (vec,vec)
            bad = starts[pair & ~valid][:3]
            raise ValueError(
                "lang_centroids: same-side key pair(s) — duplicated "
                "doc_id or vec_id, e.g. "
                f"{tbl.column('key').take(pa.array(bad)).to_pylist()}")
        if not valid.any():
            return empty
        langs = tbl.column("lang").take(
            pa.array(starts[valid])).to_pylist()
        mat = binary_column_to_matrix(
            tbl.column("vec").take(pa.array(starts[valid] + 1)),
            np.float32, EMB_DIM).astype(np.float64)
        out_l, out_d, out_s, out_n = [], [], [], []
        for lang in sorted(set(langs)):
            m = np.array([x == lang for x in langs])
            out_l.extend([lang] * EMB_DIM)
            out_d.append(np.arange(EMB_DIM, dtype=np.int64))
            out_s.append(mat[m].sum(axis=0))
            out_n.append(np.full(EMB_DIM, int(m.sum()), np.int64))
        return pa.table({
            "lang": pa.array(out_l),
            "dim": pa.array(np.concatenate(out_d)),
            "s": pa.array(np.concatenate(out_s), pa.float64()),
            "n": pa.array(np.concatenate(out_n)),
        })

    parts = cogroup(emb, docs, prep=(emb_vecs, doc_langs), keys=["key"],
                    block_fn=merge)
    rows = tree_sum(parts, ["lang", "dim"], ["s", "n"])

    def finish(batch: pa.Table) -> pa.Table:
        s = batch.column("s").to_numpy()
        n = batch.column("n").to_numpy()
        return pa.table({
            "lang": batch.column("lang"),
            "dim": batch.column("dim"),
            "centroid": pa.array(np.round(s / n, 6), pa.float64()),
        })

    return rows.map_batches(finish, batch_format="pyarrow")


LANG_CENTROIDS_SQL = f"""
SELECT d.lang, CAST(u.i - 1 AS BIGINT) AS dim,
       round(sum(CAST(e.embedding[u.i] AS DOUBLE)) / count(*), 6)
         AS centroid
FROM embeddings e
JOIN documents d ON d.doc_id = e.vec_id
CROSS JOIN (SELECT unnest(range(1, {EMB_DIM + 1})) AS i) u
GROUP BY d.lang, u.i
"""
