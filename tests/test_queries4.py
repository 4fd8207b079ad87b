"""Tests for queries4: zonal stats, tile pyramid, ordered funnel."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# zonal stats
# ---------------------------------------------------------------------------


def _brute_zonal():
    """Driver-side brute force: every cell center against every polygon
    via the same winding kernel the engine uses."""
    from karta_ray.kernels import predicates
    from karta_ray.pipelines.queries import (GRID_SHAPE, GRID_T,
                                             _synthetic_grid, QUERY_POLYS)

    grid = _synthetic_grid().astype(np.int64)
    jj, ii = np.meshgrid(np.arange(GRID_SHAPE[1]), np.arange(GRID_SHAPE[0]))
    lon = GRID_T[0] + (jj.ravel() + 0.5) * GRID_T[2]
    lat = GRID_T[1] + (ii.ravel() + 0.5) * GRID_T[3]
    v = grid.ravel()
    rows = {}
    for p in QUERY_POLYS:
        ring = np.asarray(p["rings"][0], dtype=np.float64)
        if predicates.ring_crosses_dateline(ring):
            w = predicates.points_in_ring_dateline(lon, lat, ring)
        else:
            w = predicates.points_in_ring(lon, lat, ring)
        inside = v[w]
        if len(inside):
            rows[p["poly_id"]] = (len(inside), inside.sum(),
                                  inside.min(), inside.max())
    return rows


def test_zonal_stats_matches_brute(ray_session):
    from karta_ray.pipelines.queries4 import q_zonal_stats

    got = q_zonal_stats(SF).to_pandas().set_index("poly_id").sort_index()
    want = _brute_zonal()
    assert set(got.index) == set(want)
    for pid, (n, s, mn, mx) in want.items():
        row = got.loc[pid]
        assert row["n_cells"] == n
        assert row["sum_value"] == s
        assert row["min_value"] == mn
        assert row["max_value"] == mx
        assert row["mean_value"] == pytest.approx(s / n)


def test_cells_from_tile_records_multi_tile():
    """Tile decomposition must reproduce every cell exactly once with
    correct global indices regardless of tile size."""
    from karta_ray.pipelines.queries import GRID_SHAPE, GRID_T, \
        _synthetic_grid
    from karta_ray.pipelines.queries4 import _cells_from_tile_records
    from karta_ray.stages.raster import tiles_from_grid

    grid = _synthetic_grid()
    recs = tiles_from_grid(grid, GRID_T, tile=50)
    assert recs.num_rows > 20  # genuinely multi-tile
    cells = _cells_from_tile_records(recs)
    assert cells.num_rows == GRID_SHAPE[0] * GRID_SHAPE[1]
    gi = cells.column("gi").to_numpy()
    gj = cells.column("gj").to_numpy()
    v = cells.column("value").to_numpy()
    assert (v == grid[gi, gj].astype(np.int64)).all()
    # unique (gi, gj)
    assert len(np.unique(gi * GRID_SHAPE[1] + gj)) == cells.num_rows
    lon = cells.column("lon").to_numpy()
    lat = cells.column("lat").to_numpy()
    assert (lon == GRID_T[0] + (gj + 0.5) * GRID_T[2]).all()
    assert (lat == GRID_T[1] + (gi + 0.5) * GRID_T[3]).all()


# ---------------------------------------------------------------------------
# tile pyramid
# ---------------------------------------------------------------------------


def test_tile_pyramid_rollup_invariants(ray_session):
    from karta_ray.pipelines.queries import ZOOM, points_ds
    from karta_ray.pipelines.queries4 import q_tile_pyramid

    df = q_tile_pyramid(SF).to_pandas()
    n_total = points_ds(SF).count()
    # every zoom level partitions the full point set
    per_zoom = df.groupby("zoom")["n_points"].sum()
    assert set(per_zoom.index) == set(range(ZOOM + 1))
    assert (per_zoom == n_total).all()
    # zoom 0 is a single world tile
    z0 = df[df["zoom"] == 0]
    assert len(z0) == 1 and z0.iloc[0]["tile_x"] == 0 and \
        z0.iloc[0]["tile_y"] == 0
    # each parent's count equals the sum of its children
    for z in range(1, ZOOM + 1):
        ch = df[df["zoom"] == z].copy()
        ch["px"] = ch["tile_x"] // 2
        ch["py"] = ch["tile_y"] // 2
        rolled = ch.groupby(["px", "py"])["n_points"].sum().reset_index()
        par = df[df["zoom"] == z - 1][["tile_x", "tile_y", "n_points"]]
        m = rolled.merge(par, left_on=["px", "py"],
                         right_on=["tile_x", "tile_y"], how="outer")
        assert len(m) == len(par)
        assert (m["n_points_x"] == m["n_points_y"]).all()


# ---------------------------------------------------------------------------
# funnel
# ---------------------------------------------------------------------------


def _funnel_pandas(df, steps):
    out = {}
    for uid, g in df.groupby("user_id"):
        thr = pd.Timestamp.min
        reached = 0
        for s in steps:
            cand = g[(g["event_type"] == s) & (g["ts"] > thr)]
            if len(cand) == 0:
                break
            thr = cand["ts"].min()
            reached += 1
        out[uid] = reached
    return out


def test_funnel_matches_pandas(ray_session):
    from karta_ray.pipelines.queries4 import FUNNEL_STEPS, q_funnel

    got = q_funnel(SF).to_pandas().set_index("user_id")["steps_reached"]
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "ts", "event_type"])
    want = _funnel_pandas(ev, FUNNEL_STEPS)
    assert got.to_dict() == want
    # sanity: some users progress past step 1, none exceed the depth
    assert got.max() <= len(FUNNEL_STEPS)
    assert (got >= 1).any()


def test_funnel_block_property():
    """funnel_block vs a per-user brute force over random streams,
    including duplicate timestamps and repeated step events."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from karta_ray.stages.session import funnel_block

    steps = ("a", "b", "c")
    ev = st.tuples(st.integers(0, 4),        # user
                   st.integers(0, 20),       # ts (coarse: forced ties)
                   st.sampled_from(["a", "b", "c", "x"]))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(ev, min_size=0, max_size=60))
    def run(rows):
        rows = sorted(rows)  # user-sorted (ts order within user: sorted
        # too, but funnel_block's min-based math is order-insensitive)
        tbl = pa.table({
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows],
                           pa.int64()).cast(pa.timestamp("us")),
            "event_type": pa.array([r[2] for r in rows], pa.string()),
        })
        got = funnel_block(tbl, steps)
        got_d = dict(zip(got.column("user_id").to_pylist(),
                         got.column("steps_reached").to_pylist()))
        want = {}
        for uid in sorted({r[0] for r in rows}):
            mine = [(t, e) for u, t, e in rows if u == uid]
            thr, n = -1_000_000, 0
            for s in steps:
                cand = [t for t, e in mine if e == s and t > thr]
                if not cand:
                    break
                thr = min(cand)
                n += 1
            want[uid] = n
        assert got_d == want

    run()


# ---------------------------------------------------------------------------
# star join
# ---------------------------------------------------------------------------


def test_star_join_matches_pandas(ray_session):
    from karta_ray.pipelines.queries4 import q_star_join

    got = q_star_join(SF).to_pandas().set_index("n_name").sort_index()
    li = pd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_orderkey", "l_quantity"])
    od = pd.read_parquet(f"{SF}/orders.parquet",
                         columns=["o_orderkey", "o_custkey"])
    cu = pd.read_parquet(f"{SF}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    na = pd.read_parquet(f"{SF}/nation.parquet",
                         columns=["n_nationkey", "n_name"])
    j = (li.merge(od, left_on="l_orderkey", right_on="o_orderkey")
           .merge(cu, left_on="o_custkey", right_on="c_custkey")
           .merge(na, left_on="c_nationkey", right_on="n_nationkey"))
    j["qty"] = j["l_quantity"].astype("int64")
    want = j.groupby("n_name").agg(n_rows=("qty", "size"),
                                   sum_qty=("qty", "sum")).sort_index()
    assert got["n_rows"].to_dict() == want["n_rows"].to_dict()
    assert got["sum_qty"].to_dict() == want["sum_qty"].to_dict()


def test_funnel_user_straddling_blocks(ray_session):
    """A user whose events straddle >= 3 blocks must still resolve
    through the boundary residue path."""
    import ray.data

    from karta_ray.pipelines.queries4 import FUNNEL_STEPS
    from karta_ray.stages.session import funnel_steps

    # 4 blocks; user 7 appears in all of them, and the funnel's 'click'
    # only occurs after its 'view' in a DIFFERENT block
    base = pd.Timestamp("2024-01-01").value // 1000
    rows = []
    for b in range(4):
        for i in range(50):
            rows.append((100 + b, base + (b * 50 + i) * 1_000_000, "view"))
        rows.append((7, base + b * 1_000_000,
                     ["view", "click", "purchase", "click"][b]))
    df = pd.DataFrame(rows, columns=["user_id", "ts_us", "event_type"])
    tbl = pa.table({
        "user_id": pa.array(df["user_id"], pa.int64()),
        "ts": pa.array(df["ts_us"], pa.int64()).cast(pa.timestamp("us")),
        "event_type": pa.array(df["event_type"], pa.string()),
    })
    ds = ray.data.from_arrow(tbl).repartition(4)
    out = funnel_steps(ds, FUNNEL_STEPS).to_pandas()
    out = out.set_index("user_id")["steps_reached"]
    assert out.loc[7] == 3  # view -> click -> purchase across blocks
    for b in range(4):
        assert out.loc[100 + b] == 1
    # exactly one row per user (no duplicate emission from the residue)
    assert out.index.is_unique


class TestChunkDocuments:
    def test_chunk_boundaries(self, ray_session):
        # step=400: len 400 -> 1 chunk (k=1 start 400 not < L);
        # len 401 -> 2 chunks (second is 1 char); len 500 -> 2 chunks
        # (second is the 100-char overlap tail); empty -> none
        import ray

        import pyarrow as pa
        from karta_ray.pipelines.queries4 import q_chunk_documents

        docs = pa.table({
            "doc_id": pa.array(["a", "b", "c", "d"]),
            "text": pa.array(["x" * 400, "y" * 401, "z" * 500, ""]),
        })
        import os
        import tempfile

        import pyarrow.parquet as pq
        with tempfile.TemporaryDirectory() as td:
            pq.write_table(docs, os.path.join(td, "documents.parquet"))
            got = (q_chunk_documents(td).to_pandas()
                   .sort_values(["doc_id", "chunk_id"])
                   .reset_index(drop=True))
        rows = list(map(tuple, got[["doc_id", "chunk_id",
                                    "n_chars"]].to_numpy()))
        assert rows == [("a", 0, 400), ("b", 0, 401), ("b", 1, 1),
                        ("c", 0, 500), ("c", 1, 100)]


def test_tile_pyramid_drops_points_outside_tile_domain():
    # lon == 180.0 maps to x == 2^ZOOM (tile_xy does not clamp at the
    # antimeridian); packing it would emit a tile outside [0, 2^z) at
    # every zoom, so the partial must drop it
    from karta_ray.pipelines.queries import ZOOM
    from karta_ray.pipelines.queries4 import pyramid_partial

    batch = pa.table({"lon": pa.array([180.0, 179.9, -180.0, 0.0]),
                      "lat": pa.array([10.0, 10.0, -10.0, 89.0])})
    out = pyramid_partial(batch).to_pandas()
    assert set(out["zoom"]) == set(range(ZOOM + 1))
    for z, g in out.groupby("zoom"):
        assert (g["tile_x"] >= 0).all() and (g["tile_x"] < (1 << z)).all()
        assert (g["tile_y"] >= 0).all() and (g["tile_y"] < (1 << z)).all()
        # lon 180 and lat 89 (beyond the Mercator domain) are dropped
        assert g["n_points"].sum() == 2
