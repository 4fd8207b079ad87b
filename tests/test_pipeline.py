"""End-to-end Ray Data pipeline tests (session-scoped Ray fixture)."""

import numpy as np
import pyarrow as pa
import pytest

from karta_ray import synth
from karta_ray.pipelines.flagship import flagship_aggregate, flagship_pipeline
from karta_ray.stages.extract import extract_geotag_stage
from karta_ray.stages.tiles import assign_cells


def brute_force_join(n_pages, polyset):
    """Driver-side oracle: exact contains over every (point, polygon)."""
    t = synth.pages_table(n_pages)
    lon, lat = synth.page_coords(np.arange(n_pages))
    urls = t.column("url").to_pylist()
    ok = ~np.isnan(lon)
    pairs = set()
    for ip in range(len(polyset)):
        m = np.zeros(n_pages, dtype=bool)
        m[ok] = polyset.contains(lon[ok], lat[ok], ip)
        for i in np.nonzero(m)[0]:
            pairs.add((urls[i], int(polyset.poly_id[ip])))
    return pairs


@pytest.mark.usefixtures("ray_session")
class TestFlagship:
    def test_join_matches_brute_force(self):
        n = 3000
        ps = synth.admin_polygons()
        ds = synth.pages_dataset(n, override_num_blocks=8)
        out = flagship_pipeline(ds, zoom=7, polyset=ps)
        tbl = out.to_arrow_refs()
        import ray
        parts = [ray.get(r) for r in tbl]
        got = set()
        for p in parts:
            for u, pid in zip(p.column("url").to_pylist(),
                              p.column("poly_id").to_pylist()):
                got.add((u, pid))
        want = brute_force_join(n, ps)
        assert got == want
        assert len(want) > 100  # non-trivial join

    def test_join_deterministic_across_parallelism(self):
        n = 1200
        ps = synth.admin_polygons()
        results = []
        for blocks in (2, 7):
            ds = synth.pages_dataset(n, override_num_blocks=blocks)
            out = flagship_pipeline(ds, zoom=7, polyset=ps)
            df = out.to_pandas().sort_values(["url", "poly_id"]).reset_index(drop=True)
            results.append(df[["url", "poly_id"]])
        assert results[0].equals(results[1])

    def test_aggregate(self):
        n = 2000
        ps = synth.admin_polygons()
        ds = synth.pages_dataset(n, override_num_blocks=4)
        joined = flagship_pipeline(ds, zoom=7, polyset=ps)
        agg = flagship_aggregate(joined).to_pandas()
        assert (agg["n"] > 0).all()
        # total joined rows preserved by the partial+final aggregate
        total = agg["n"].sum()
        assert total == joined.count()

    def test_extract_stage_drops_html(self):
        import ray

        ds = synth.pages_dataset(200, override_num_blocks=2)
        out = ds.map_batches(extract_geotag_stage, batch_format="pyarrow")
        schema = out.schema()
        assert "html" not in schema.names
        assert {"url", "lon", "lat"} <= set(schema.names)

    def test_cell_assignment_matches_kernel(self):
        from karta_ray.kernels import tiles as T

        ds = synth.pages_dataset(500, override_num_blocks=2)
        out = (ds.map_batches(extract_geotag_stage, batch_format="pyarrow")
                 .map_batches(assign_cells, batch_format="pyarrow",
                              fn_kwargs={"zoom": 9}))
        df = out.to_pandas()
        ok = df["tile_z"] >= 0
        x, y = T.tile_xy(df["lon"].to_numpy()[ok], df["lat"].to_numpy()[ok], 9)
        np.testing.assert_array_equal(df["tile_x"].to_numpy()[ok], x)
        np.testing.assert_array_equal(df["tile_y"].to_numpy()[ok], y)


@pytest.mark.usefixtures("ray_session")
class TestJoinModes:
    def _points(self):
        import ray.data

        from karta_ray.kernels import tiles as T

        lon = np.array([28.75, 45.0, 0.5, -147.0])   # star, polar, none, hole
        lat = np.array([25.625, 85.0, 0.5, -46.0])
        return ray.data.from_arrow(pa.table({
            "pid": pa.array(np.arange(4, dtype=np.int64)),
            "lon": pa.array(lon), "lat": pa.array(lat),
            "cell_id": pa.array(T.cell_id(lon, lat, 7))}))

    def test_semi_mode(self):
        from karta_ray import synth
        from karta_ray.stages.join import pip_join

        ps = synth.admin_polygons()
        out = pip_join(self._points(), ps, zoom=7, mode="semi").to_pandas()
        # hippie star point and polar point are inside SOME polygon;
        # the hole point (inside holed_square's hole but also possibly a
        # region) keeps/drops per exact membership — just verify semi is
        # a subset of distinct input rows with original columns only
        assert set(out.columns) >= {"pid", "lon", "lat"}
        assert out["pid"].is_unique
        assert {0, 1} <= set(out["pid"])

    def test_tag_mode(self):
        from karta_ray import synth
        from karta_ray.stages.join import pip_join

        ps = synth.admin_polygons()
        out = pip_join(self._points(), ps, zoom=7, mode="tag").to_pandas()
        assert len(out) == 4  # every input row passes through
        tagged = out.set_index("pid")["poly_id"]
        assert tagged.loc[0] >= 0  # star point got a polygon
        inner = pip_join(self._points(), ps, zoom=7, mode="inner").to_pandas()
        # tag picks the lowest matching polygon index per point
        for pid, grp in inner.groupby("pid"):
            assert tagged.loc[pid] == grp["poly_id"].min()


@pytest.mark.usefixtures("ray_session")
class TestTreeAggProperty:
    def test_matches_pandas_groupby(self):
        import pandas as pd
        import ray.data

        from karta_ray.stages.agg import tree_agg

        rng = np.random.RandomState(13)
        n = 50_000
        df = pa.table({
            "k1": pa.array(rng.randint(0, 50, n).astype(np.int64)),
            "k2": pa.array(rng.randint(0, 7, n).astype(np.int64)),
            "s": pa.array(rng.randint(-100, 100, n).astype(np.int64)),
            "m": pa.array(rng.randint(0, 10**6, n).astype(np.int64)),
        })
        ds = ray.data.from_arrow(df).repartition(16)
        got = tree_agg(ds, ["k1", "k2"], [("s", "sum"), ("m", "max")]) \
            .to_pandas().sort_values(["k1", "k2"]).reset_index(drop=True)
        want = (df.to_pandas().groupby(["k1", "k2"], as_index=False)
                .agg(s=("s", "sum"), m=("m", "max"))
                .sort_values(["k1", "k2"]).reset_index(drop=True))
        assert got.equals(want)

    def test_adaptive_tree_level(self):
        # >4*fanout input blocks must take the intermediate-combine
        # branch and still produce exact results
        import ray.data

        from karta_ray.stages.agg import tree_agg

        rng = np.random.RandomState(3)
        n = 20_000
        df = pa.table({
            "k": pa.array(rng.randint(0, 11, n).astype(np.int64)),
            "s": pa.array(rng.randint(-5, 5, n).astype(np.int64)),
        })
        ds = ray.data.from_arrow(df).repartition(40)
        got = tree_agg(ds, ["k"], [("s", "sum")], fanout=8) \
            .to_pandas().sort_values("k").reset_index(drop=True)
        want = (df.to_pandas().groupby("k", as_index=False)
                .agg(s=("s", "sum"))
                .sort_values("k").reset_index(drop=True))
        assert got.equals(want)


@pytest.mark.usefixtures("ray_session")
class TestZoomInvariance:
    def test_join_results_identical_across_zooms(self):
        from karta_ray import synth
        from karta_ray.stages.extract import extract_geotag_stage
        from karta_ray.stages.join import pip_join
        from karta_ray.stages.tiles import assign_cells

        ps = synth.admin_polygons()
        results = []
        for zoom in (5, 8):
            ds = synth.pages_dataset(1000, override_num_blocks=3)
            pts = (ds.map_batches(extract_geotag_stage, batch_format="pyarrow")
                     .map_batches(assign_cells, batch_format="pyarrow",
                                  fn_kwargs={"zoom": zoom}))
            out = pip_join(pts, ps, zoom=zoom).to_pandas()
            results.append(out[["url", "poly_id"]]
                           .sort_values(["url", "poly_id"])
                           .reset_index(drop=True))
        assert results[0].equals(results[1])
        assert len(results[0]) > 30
