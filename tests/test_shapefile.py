"""Pure-Python shapefile reader vs the reference conformance corpus.

Goldens ported from the reference's tests/shapefile_tests.py:139-171
(points/line/polygon fixtures) and :251-328 (shapelib corpus). The
fixture files themselves are read from the reference checkout (public
shapelib test data, (c) 1999 Frank Warmerdam, MIT-style license).
"""

import os

import numpy as np
import pytest

from karta_ray.sources.shapefile import (read_dbf, read_shapefile,
                                         shapefile_members_table)


@pytest.fixture
def shp(reference_data):
    return os.path.join(reference_data, "shapefile")


@pytest.fixture
def corpus(shp):
    return os.path.join(shp, "shapelib")


class TestBasicFixtures:
    def test_read_points(self, shp):
        # shapefile_tests.py:139-151
        pts = read_shapefile(os.path.join(shp, "points"))
        assert len(pts) == 4
        assert [p["type"] for p in pts] == ["Point"] * 4
        x = [p["coordinates"][0] for p in pts]
        y = [p["coordinates"][1] for p in pts]
        assert x == [1.0, 3.0, 4.0, 2.0]
        assert y == [1.0, 1.0, 3.0, 2.0]
        assert [p["properties"]["species"] for p in pts] == \
            ["T. officianale", "C. tectorum", "M. alba", "V. cracca"]
        assert [p["properties"]["ID"] for p in pts] == ["0", "1", "2", "3"]

    def test_read_line(self, shp):
        # shapefile_tests.py:153-160
        line = read_shapefile(os.path.join(shp, "line"))[0]
        assert line["type"] == "Line"
        assert line["coordinates"][:, 0].tolist() == [1.0, 5.0, 5.0, 3.0, 1.0]
        assert line["coordinates"][:, 1].tolist() == [5.0, 5.0, 1.0, 3.0, 1.0]

    def test_read_polygon(self, shp):
        # shapefile_tests.py:162-170 (closed ring repeats first vertex)
        poly = read_shapefile(os.path.join(shp, "polygon"))[0]
        assert poly["type"] == "Polygon"
        ring = poly["coordinates"][0]
        assert ring[:, 0].tolist()[:5] == [1.0, 5.0, 5.0, 3.0, 1.0]
        assert ring[:, 1].tolist()[:5] == [5.0, 5.0, 1.0, 3.0, 1.0]


class TestShapelibCorpus:
    """shapefile_tests.py:251-328 — type + count goldens."""

    CASES = [
        ("test1", "Point", 2), ("test2", "Point", 2), ("test3", "Point", 2),
        ("test4", "MultiPoint", 3), ("test5", "MultiPoint", 3),
        ("test6", "MultiPoint", 3),
        ("test7", "Line", 4), ("test8", "Line", 4), ("test9", "Line", 4),
        ("test10", "Polygon", 4), ("test11", "Polygon", 4),
        ("test12", "Polygon", 4),
        ("test13", "Multipolygon", 4),
    ]

    @pytest.mark.parametrize("name,first_type,count", CASES)
    def test_corpus(self, corpus, name, first_type, count):
        res = read_shapefile(os.path.join(corpus, name))
        assert len(res) == count
        assert res[0]["type"] == first_type

    def test_readable_unnumbered(self, corpus):
        # test_/test_0 only assert readability in the reference
        assert isinstance(read_shapefile(os.path.join(corpus, "test")),
                          list)
        assert read_shapefile(os.path.join(corpus, "test0")) == []

    def test_7_multipart_is_multiline(self, corpus):
        res = read_shapefile(os.path.join(corpus, "test7"))
        assert res[3]["type"] == "Multiline"  # shapefile_tests.py:295-297

    def test_dbf_attributes(self, corpus):
        fields, rows = read_dbf(os.path.join(corpus, "test.dbf"))
        assert len(rows) == 3


class TestMembersTable:
    def test_points_table(self, shp):
        t = shapefile_members_table(os.path.join(shp, "points"))
        assert t.num_rows == 4
        assert "species" in t.column_names
        assert t.column("kind").to_pylist() == ["point"] * 4

    def test_polygon_joins_with_engine(self, shp):
        # the members table feeds the geometry-set join stages directly
        import ray.data

        from karta_ray.stages.geomjoin import touching

        members = shapefile_members_table(os.path.join(shp, "line"))
        ds = ray.data.from_arrow(members)
        target = np.array([(0.0, 0.0), (6.0, 0.0), (6.0, 6.0), (0.0, 6.0)])
        out = touching(ds, target, target_kind="polygon").to_pandas()
        assert len(out) == 1  # the line lies inside the box -> touching


class TestWriter:
    def test_round_trip_points(self, tmp_path):
        from karta_ray.sources.shapefile import write_shapefile

        geoms = [{"type": "Point", "coordinates": [1.5, -2.25],
                  "properties": {"name": "a", "rank": 3, "w": 0.5}},
                 {"type": "Point", "coordinates": [-7.0, 8.125],
                  "properties": {"name": "b", "rank": -1, "w": 2.75}}]
        p = str(tmp_path / "pts.shp")
        write_shapefile(p, geoms)
        back = read_shapefile(p)
        assert [g["coordinates"] for g in back] == \
            [[1.5, -2.25], [-7.0, 8.125]]
        assert back[0]["properties"]["NAME"] == "a"
        assert back[1]["properties"]["RANK"] == -1
        assert back[0]["properties"]["W"] == 0.5

    def test_round_trip_polygon_with_hole(self, tmp_path):
        from karta_ray.sources.shapefile import write_shapefile

        outer = [[0.0, 0.0], [0.0, 10.0], [10.0, 10.0], [10.0, 0.0]][::-1]
        hole = [[2.0, 2.0], [2.0, 4.0], [4.0, 4.0], [4.0, 2.0]]
        # writer closes rings; outer must be CW per spec -> reversed CCW
        geoms = [{"type": "Polygon",
                  "coordinates": [np.array(outer)[::-1],
                                  np.array(hole)[::-1][::-1]],
                  "properties": {}}]
        # construct explicit CW outer / CCW hole
        cw_outer = np.array([[0.0, 0.0], [0.0, 10.0], [10.0, 10.0],
                             [10.0, 0.0]])
        ccw_hole = np.array([[2.0, 2.0], [4.0, 2.0], [4.0, 4.0],
                             [2.0, 4.0]])
        from karta_ray.kernels.predicates import ring_is_clockwise
        if not ring_is_clockwise(cw_outer):
            cw_outer = cw_outer[::-1]
        if ring_is_clockwise(ccw_hole):
            ccw_hole = ccw_hole[::-1]
        geoms = [{"type": "Polygon", "coordinates": [cw_outer, ccw_hole],
                  "properties": {"id": 1}}]
        p = str(tmp_path / "poly.shp")
        write_shapefile(p, geoms)
        back = read_shapefile(p)
        assert len(back) == 1 and back[0]["type"] == "Polygon"
        assert len(back[0]["coordinates"]) == 2  # outer + hole

    def test_round_trip_geojson_winding_normalized(self, tmp_path):
        # GeoJSON convention: CCW outer, CW hole — the writer must
        # normalize winding to the ESRI spec, else read_shapefile
        # misclassifies outers and holes.
        from karta_ray.kernels.predicates import ring_is_clockwise
        from karta_ray.sources.shapefile import write_shapefile

        ccw_outer = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0],
                              [0.0, 10.0]])
        cw_hole = np.array([[2.0, 2.0], [2.0, 4.0], [4.0, 4.0],
                            [4.0, 2.0]])
        if ring_is_clockwise(ccw_outer):
            ccw_outer = ccw_outer[::-1]
        if not ring_is_clockwise(cw_hole):
            cw_hole = cw_hole[::-1]
        geoms = [{"type": "Polygon", "coordinates": [ccw_outer, cw_hole],
                  "properties": {"id": 1}}]
        p = str(tmp_path / "gj.shp")
        write_shapefile(p, geoms)
        back = read_shapefile(p)
        assert len(back) == 1 and back[0]["type"] == "Polygon"
        rings = back[0]["coordinates"]
        assert len(rings) == 2
        outer, hole = np.asarray(rings[0]), np.asarray(rings[1])
        assert outer[:, 0].max() == 10.0  # the big ring is the outer
        assert hole[:, 0].max() == 4.0

    def test_round_trip_multiline_and_name_declash(self, tmp_path):
        from karta_ray.sources.shapefile import write_shapefile

        geoms = [{"type": "Multiline",
                  "coordinates": [[[0.0, 0.0], [1.0, 1.0]],
                                  [[2.0, 2.0], [3.0, 1.0], [4.0, 4.0]]],
                  "properties": {"longfieldname1": 1, "longfieldname2": 2}}]
        p = str(tmp_path / "ml.shp")
        write_shapefile(p, geoms)
        back = read_shapefile(p)
        assert back[0]["type"] == "Multiline"
        keys = set(back[0]["properties"])
        assert "LONGFIELDN" in keys and "LONGFIELD2" in keys


class TestDeletedDbfAlignment:
    def test_deleted_record_keeps_row_alignment(self, tmp_path):
        from karta_ray.sources.shapefile import write_shapefile

        geoms = [{"type": "Point", "coordinates": [float(i), 0.0],
                  "properties": {"tag": f"t{i}"}} for i in range(3)]
        p = str(tmp_path / "del.shp")
        write_shapefile(p, geoms)
        # flag the SECOND dbf record deleted
        dbf = str(tmp_path / "del.dbf")
        data = bytearray(open(dbf, "rb").read())
        header_size = int.from_bytes(data[8:10], "little")
        record_size = int.from_bytes(data[10:12], "little")
        data[header_size + record_size] = ord("*")
        open(dbf, "wb").write(bytes(data))
        back = read_shapefile(p)
        # geometry 0 and 2 keep THEIR OWN attributes; 1 is empty
        assert back[0]["properties"]["TAG"] == "t0"
        assert back[1]["properties"] == {}
        assert back[2]["properties"]["TAG"] == "t2"


class TestMultiPatch:
    def _record(self, parts, part_types, pts):
        import struct

        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        payload = struct.pack("<i4d2i", 31, min(xs), min(ys), max(xs),
                              max(ys), len(parts), len(pts))
        payload += np.asarray(parts, dtype="<i4").tobytes()
        payload += np.asarray(part_types, dtype="<i4").tobytes()
        payload += np.asarray(pts, dtype="<f8").tobytes()
        # Z block: zmin zmax + per-point z
        payload += struct.pack("<2d", 0.0, 0.0)
        payload += np.zeros(len(pts), dtype="<f8").tobytes()
        return payload

    def test_triangle_strip_expands_to_triangles(self):
        from karta_ray.sources.shapefile import _parse_record

        # 4-point strip -> 2 triangles (012, 123), not one closed ring
        pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        geom = _parse_record(31, self._record([0], [0], pts))
        assert geom["type"] == "Multipolygon"
        polys = geom["coordinates"]
        assert len(polys) == 2
        tri = np.asarray(polys[0][0])
        assert len(tri) == 4 and np.array_equal(tri[0], tri[-1])

    def test_triangle_fan_expands_from_apex(self):
        from karta_ray.sources.shapefile import _parse_record

        # 5-point fan centered at the first point -> 3 triangles
        pts = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 2.0), (0.0, 2.0)]
        geom = _parse_record(31, self._record([0], [1], pts))
        polys = geom["coordinates"]
        assert len(polys) == 3
        for p in polys:
            tri = np.asarray(p[0])[:, :2]
            assert np.array_equal(tri[0], [0.0, 0.0])  # apex

    def test_ring_part_types_honored(self):
        from karta_ray.sources.shapefile import _parse_record

        outer = [(0.0, 0.0), (0.0, 10.0), (10.0, 10.0), (10.0, 0.0),
                 (0.0, 0.0)]
        hole = [(2.0, 2.0), (4.0, 2.0), (4.0, 4.0), (2.0, 4.0), (2.0, 2.0)]
        pts = outer + hole
        geom = _parse_record(
            31, self._record([0, len(outer)], [2, 3], pts))
        polys = geom["coordinates"]
        assert len(polys) == 1
        assert len(polys[0]) == 2  # outer + its hole
