"""GeoJSON fixture loader + the multimodal PPM/WAV codecs."""

import numpy as np
import pyarrow as pa
import pytest

from karta_ray.sources.geojson import read_geojson, to_geojson


class TestGeoJSON:
    GJ = """{"type": "FeatureCollection", "features": [
      {"type": "Feature", "properties": {"name": "pt1"},
       "geometry": {"type": "Point", "coordinates": [30.0, 10.0]}},
      {"type": "Feature", "properties": {"name": "sq"},
       "geometry": {"type": "Polygon", "coordinates":
         [[[0,0],[4,0],[4,4],[0,4],[0,0]]]}},
      {"type": "Feature", "properties": {},
       "geometry": {"type": "LineString",
                    "coordinates": [[0,0],[1,1],[2,0]]}}]}"""

    def test_parse(self):
        out = read_geojson(self.GJ)
        assert out["points"].num_rows == 1
        assert out["points"].column("lon")[0].as_py() == 30.0
        assert len(out["polygons"]) == 1
        # explicit closure stripped (karta rings are implicitly closed)
        assert len(out["polygons"][0]["rings"][0]) == 4
        assert len(out["lines"]) == 1
        assert out["lines"][0]["vertices"].shape == (3, 2)

    def test_polygon_contains_via_polyset(self):
        from karta_ray.geoms import PolygonSet

        out = read_geojson(self.GJ)
        ps = PolygonSet.from_rings(out["polygons"])
        got = ps.contains(np.array([2.0, 9.0]), np.array([2.0, 9.0]), 0)
        assert got.tolist() == [True, False]

    def test_roundtrip(self):
        out = read_geojson(self.GJ)
        s = to_geojson(points=out["points"], polygons=out["polygons"])
        back = read_geojson(s)
        assert back["points"].num_rows == 1
        assert len(back["polygons"]) == 1
        np.testing.assert_allclose(back["polygons"][0]["rings"][0],
                                   out["polygons"][0]["rings"][0])

    def test_file_round_trip(self, tmp_path):
        # to_geojson -> file -> read_geojson keeps coordinates,
        # properties, names and holes exactly
        import json

        from karta_ray.geoms import PolygonSet

        pts = pa.table({
            "geom_id": pa.array([0, 1, 2], pa.int64()),
            "lon": pa.array([-123.25, 0.0, 151.2], pa.float64()),
            "lat": pa.array([49.5, 0.0, -33.85], pa.float64()),
            "props": pa.array([json.dumps({"name": n}) for n in "abc"]),
        })
        outer = np.array([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)])
        hole = np.array([(4.0, 4.0), (4.0, 6.0), (6.0, 6.0), (6.0, 4.0)])
        polys = [{"poly_id": 0, "rings": [outer, hole], "name": "holed"},
                 {"poly_id": 1, "rings": [outer + 20.0], "name": "plain"}]
        path = tmp_path / "layer.geojson"
        path.write_text(to_geojson(points=pts, polygons=polys))

        back = read_geojson(str(path))
        for col in ("lon", "lat"):
            assert back["points"].column(col).to_pylist() == \
                pts.column(col).to_pylist()
        assert [json.loads(p)["name"] for p in
                back["points"].column("props").to_pylist()] == list("abc")
        assert [p["name"] for p in back["polygons"]] == ["holed", "plain"]
        for got, want in zip(back["polygons"], polys):
            assert len(got["rings"]) == len(want["rings"])
            for g, w in zip(got["rings"], want["rings"]):
                np.testing.assert_array_equal(g, w)
        ps = PolygonSet.from_rings(back["polygons"])
        assert ps.contains(np.array([2.0, 5.0]), np.array([2.0, 5.0]),
                           0).tolist() == [True, False]

    def test_multi_and_bare_geometries(self):
        import json

        gj = {"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {"k": 1},
             "geometry": {"type": "MultiPoint",
                          "coordinates": [[1.0, 2.0], [3.0, 4.0]]}},
            {"type": "Feature", "properties": {},
             "geometry": {"type": "MultiLineString", "coordinates": [
                 [[0, 0], [1, 1]], [[2, 2], [3, 3], [4, 2]]]}},
            {"type": "Feature", "properties": {"name": "two"},
             "geometry": {"type": "MultiPolygon", "coordinates": [
                 [[[0, 0], [1, 0], [1, 1], [0, 0]]],
                 [[[5, 5], [6, 5], [6, 6], [5, 5]]]]}}]}
        out = read_geojson(json.dumps(gj))
        assert out["points"].column("geom_id").to_pylist() == [0, 0]
        assert out["points"].column("lat").to_pylist() == [2.0, 4.0]
        assert json.loads(out["points"].column("props")[0].as_py()) == {"k": 1}
        assert [ln["vertices"].shape for ln in out["lines"]] == [(2, 2), (3, 2)]
        assert [p["poly_id"] for p in out["polygons"]] == [2, 2]
        assert [p["name"] for p in out["polygons"]] == ["two", "two"]
        assert [len(p["rings"][0]) for p in out["polygons"]] == [3, 3]

        bare = read_geojson(json.dumps(
            {"type": "LineString", "coordinates": [[0, 0], [1, 1]]}))
        assert len(bare["lines"]) == 1
        assert bare["points"].num_rows == 0 and bare["polygons"] == []


class TestMultimodal:
    def test_real_image_audio_decode(self):
        from karta_ray.stages.multimodal import (decode_ppm, decode_wav,
                                                 encode_ppm, encode_wav)

        img = (np.arange(24 * 32 * 3) % 251).reshape(24, 32, 3) \
            .astype(np.uint8)
        assert (decode_ppm(encode_ppm(img)) == img).all()
        gray = img[:, :, 0]
        assert (decode_ppm(encode_ppm(gray)) == gray).all()
        wave = (np.sin(np.arange(4000) / 20) * 20000).astype(np.int16)
        got, rate = decode_wav(encode_wav(wave, 8000))
        assert rate == 8000 and (got == wave).all()
        stereo = np.column_stack([wave, -wave])
        got2, _ = decode_wav(encode_wav(stereo, 8000))
        assert got2.shape == stereo.shape and (got2 == stereo).all()


@pytest.fixture
def geojson_dir(reference_data):
    import os

    return os.path.join(reference_data, "geojson_input")


class TestGeoJSONReferenceFixtures:
    """Parse the reference's checked-in GeoJSON fixtures
    (tests/data/geojson_input/* of the reference checkout)."""

    def test_all_fixtures_parse(self, geojson_dir):
        import os

        for name in sorted(os.listdir(geojson_dir)):
            if not (name.endswith(".json") or name.endswith(".geojson")):
                continue
            out = read_geojson(os.path.join(geojson_dir, name))
            total = (out["points"].num_rows + len(out["polygons"])
                     + len(out["lines"]))
            if name != "geometrycollection.json":  # not supported by karta either
                assert total > 0, name

    def test_california_outline_contains(self, geojson_dir):
        # the fixture stores the state outline as a MultiLineString;
        # close it into a ring and run the winding test
        import numpy as np

        from karta_ray.kernels import predicates as P

        out = read_geojson(f"{geojson_dir}/california.geojson")
        assert len(out["lines"]) == 1
        ring = out["lines"][0]["vertices"]
        assert len(ring) > 1000  # 1161-vertex coastline
        # closed coastline ring has positive area, contains interior
        # probe points, and excludes far-away points
        from karta_ray.kernels import measures
        area = measures.ring_area_planar(ring)
        assert area > 1.0
        gx, gy = np.meshgrid(np.linspace(-124.4, -120.7, 20),
                             np.linspace(35.2, 44.8, 20))
        inside = P.points_in_ring(gx.ravel(), gy.ravel(), ring)
        assert 0 < inside.sum() < inside.size
        assert not P.points_in_ring(np.array([0.0]), np.array([0.0]), ring)[0]

    def test_us_capitols_points(self, geojson_dir):
        out = read_geojson(f"{geojson_dir}/us-capitols.json")
        assert out["points"].num_rows >= 50


@pytest.fixture
def trail_gpx(reference_data):
    import os

    return os.path.join(reference_data, "gpx_input", "fishermans-trail.gpx")


class TestGPX:
    def test_read_tracks(self, trail_gpx):
        from karta_ray.sources.gpx import read_gpx_tracks

        t = read_gpx_tracks(trail_gpx)
        assert t.num_rows >= 1
        assert t.column("kind")[0].as_py() == "line"
        verts = t.column("vertices")[0].as_py()
        # reference rounds attributes to 6 decimals (_gpx.py:85-86)
        assert verts[0] == [-123.00702, 49.32947]
        ele = t.column("ele")[0].as_py()
        assert ele[0] == 73.189
        assert "Fisherman's Trail" in t.column("name")[0].as_py()

    def test_track_lengths_positive(self, trail_gpx):
        from karta_ray import crs
        from karta_ray.sources.gpx import read_gpx_tracks, track_lengths

        t = read_gpx_tracks(trail_gpx)
        lens = track_lengths(t, crs.SphericalEarth)
        assert (lens > 0).all()

    def test_write_round_trip(self, tmp_path):
        # writer semantics per reference GPX.as_string/_build_gpx_wpt
        # (_gpx.py:105-133, 288-307): wpt props as child elements,
        # non-GPX keys under <extensions>, trkpts nested in trksegs
        import pyarrow as pa

        from karta_ray.sources.gpx import (gpx_string, read_gpx_routes,
                                           read_gpx_tracks,
                                           read_gpx_waypts, write_gpx)

        waypts = pa.table({
            "lon": pa.array([-80.0, 12.345678901]),
            "lat": pa.array([82.0, -5.5]),
            "name": pa.array(["ellesmere", None]),
            "ele": pa.array(["100", "7.25"]),
            "custom": pa.array(["x1", None]),  # -> <extensions>
        })
        tracks = pa.table({
            "geom_id": pa.array([0, 1], pa.int64()),
            "kind": pa.array(["line", "line"]),
            "vertices": pa.array(
                [[[-123.007021, 49.329471], [-122.9914, 49.392751]],
                 [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]],
                pa.list_(pa.list_(pa.float64(), 2))),
            "ele": pa.array([[73.189, 80.0], [None, 1.5, None]],
                            pa.list_(pa.float64())),
            "name": pa.array(["Fisherman's Trail", None]),
        })
        routes = pa.table({
            "geom_id": pa.array([0], pa.int64()),
            "kind": pa.array(["line"]),
            "vertices": pa.array([[[10.0, 20.0], [11.0, 21.0]]],
                                 pa.list_(pa.list_(pa.float64(), 2))),
            "ele": pa.array([[None, None]], pa.list_(pa.float64())),
            "name": pa.array(["route0"]),
        })
        p = str(tmp_path / "rt.gpx")
        write_gpx(p, waypts=waypts, tracks=tracks, routes=routes)

        w = read_gpx_waypts(p)
        # 6-decimal rounding on write matches the reader's rounding
        assert w.column("lon").to_pylist() == [-80.0, 12.345679]
        assert w.column("lat").to_pylist() == [82.0, -5.5]
        assert w.column("name").to_pylist() == ["ellesmere", None]
        assert w.column("ele").to_pylist() == ["100", "7.25"]
        assert "custom" not in w.column_names  # extensions excluded

        t = read_gpx_tracks(p)
        assert t.column("vertices").to_pylist() \
            == tracks.column("vertices").to_pylist()
        assert t.column("ele").to_pylist() == tracks.column("ele").to_pylist()
        assert t.column("name").to_pylist() == tracks.column("name").to_pylist()

        r = read_gpx_routes(p)
        assert r.column("vertices").to_pylist() \
            == routes.column("vertices").to_pylist()
        assert r.column("name").to_pylist() == ["route0"]

        # string form parses as namespaced GPX 1.1
        s = gpx_string(waypts=waypts)
        assert 'xmlns="http://www.topografix.com/GPX/1/1"' in s
        assert 'version="1.1"' in s

    def test_read_routes_from_written_reference_shape(self, tmp_path):
        # a minimal hand-written doc with namespace prefix, mirroring
        # the reference's parse_rte path (_gpx.py:175-180)
        from karta_ray.sources.gpx import read_gpx_routes

        doc = ('<gpx xmlns="http://www.topografix.com/GPX/1/1" '
               'version="1.1" creator="t">'
               '<rte><name>r1</name>'
               '<rtept lon="1.0000005" lat="2.0"><ele>5.0</ele></rtept>'
               '<rtept lon="3.0" lat="4.0"/></rte></gpx>')
        p = str(tmp_path / "r.gpx")
        with open(p, "w") as f:
            f.write(doc)
        r = read_gpx_routes(p)
        assert r.num_rows == 1
        assert r.column("vertices").to_pylist() == [[[1.000001, 2.0],
                                                     [3.0, 4.0]]]
        assert r.column("ele").to_pylist() == [[5.0, None]]
        assert r.column("name").to_pylist() == ["r1"]


class TestRasterDtypes:
    def test_get_nodata_defaults(self):
        # grid.py:1233-1257 semantics
        from karta_ray.kernels.raster import get_nodata

        assert get_nodata(np.uint8) == 255
        assert get_nodata(np.uint16) == 65535
        assert get_nodata(np.int16) == -32768
        assert get_nodata(np.int64) == np.iinfo(np.int64).min
        assert np.isnan(get_nodata(np.float32))
        with pytest.raises(ValueError):
            get_nodata(np.dtype("U4"))

    def test_uint8_tiles_round_trip(self):
        from karta_ray.stages.raster import (grid_from_tiles,
                                             tiles_from_grid)

        rng = np.random.RandomState(3)
        vals = rng.randint(0, 255, (70, 90)).astype(np.uint8)
        t = tiles_from_grid(vals, (0, 0, 1, 1, 0, 0), tile=32)
        # 1 byte per pixel on the wire, not 8
        total = sum(len(v.as_py()) for v in t.column("values"))
        assert total == 70 * 90
        back, transform = grid_from_tiles(t)
        assert back.dtype == np.uint8
        assert (back == vals).all()

    def test_stencil_on_int_grid_outputs_float(self):
        import ray.data

        from karta_ray.kernels.raster import slope
        from karta_ray.stages.raster import (grid_from_tiles,
                                             stencil_stage, tiles_dataset)

        vals = (np.arange(48 * 48).reshape(48, 48) % 17).astype(np.int32)
        tiles = tiles_dataset(vals, (0, 0, 1, 1, 0, 0), tile=16, overlap=1)
        out = stencil_stage(tiles, "slope")
        table = pa.concat_tables(list(out.iter_batches(
            batch_format="pyarrow", batch_size=1024)))
        back, _ = grid_from_tiles(table)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, slope(vals.astype(np.float64)))

    def test_parquet_tiles_round_trip(self, tmp_path):
        import ray.data

        from karta_ray.stages.raster import grid_from_tiles, tiles_dataset

        vals = np.arange(40 * 60, dtype=np.uint16).reshape(40, 60)
        ds = tiles_dataset(vals, (5, 6, 1, 2, 0, 0), tile=32)
        path = str(tmp_path / "tiles_pq")
        ds.write_parquet(path)
        back_ds = ray.data.read_parquet(path)
        table = pa.concat_tables(list(back_ds.iter_batches(
            batch_format="pyarrow", batch_size=1024)))
        back, transform = grid_from_tiles(table)
        assert back.dtype == np.uint16
        assert (back == vals).all()
        assert transform == (5.0, 6.0, 1.0, 2.0, 0.0, 0.0)
