"""Seeded multipart-join conformance goldens
(/root/reference/tests/vector_predicate_tests.py:223-281): exact result
COUNTS for touching/within with np.random.seed(49) geometry sets."""

import numpy as np
import pyarrow as pa
import pytest

from karta_ray.stages.geomjoin import touching, within


def members_table(vertex_arrays, kind: str = "line") -> pa.Table:
    """A member-geometry Arrow table from (n_i, 2) vertex arrays,
    ``geom_id`` numbering them from 0."""
    verts = [np.asarray(v, dtype=np.float64).reshape(-1, 2).tolist()
             for v in vertex_arrays]
    return pa.table({
        "geom_id": pa.array(range(len(verts)), pa.int64()),
        "kind": pa.array([kind] * len(verts), pa.string()),
        "vertices": pa.array(verts, pa.list_(pa.list_(pa.float64(), 2))),
    })


def seeded_multiline():
    np.random.seed(49)
    return [10 * np.random.rand(10, 2) + np.random.randint(-50, 50, (1, 2))
            for _ in range(50)]


def seeded_multipolygon(size):
    np.random.seed(49)
    base = np.array([[0, 0], [size, 0], [size, size], [0, size]], dtype=float)
    return [base + np.random.randint(-50, 50, (1, 2)) for _ in range(50)]


@pytest.mark.usefixtures("ray_session")
class TestSeededGoldens:
    def _ds(self, arrays, kind):
        import ray.data

        return ray.data.from_arrow(members_table(arrays, kind=kind))

    def test_multiline_touching_line(self):
        # vector_predicate_tests.py:223-230 -> 4
        ds = self._ds(seeded_multiline(), "line")
        line = np.array([(-30.0, -40.0), (11.0, -30.0), (10.0, 22.0),
                         (-10.0, 50.0)])
        assert touching(ds, line, "line").count() == 4

    def test_multipolygon_touching_line(self):
        # vector_predicate_tests.py:232-241 -> 10
        ds = self._ds(seeded_multipolygon(10), "polygon")
        line = np.array([(-40.0, -35.0), (-15.0, -30.0), (30.0, 5.0),
                         (10.0, 32.0), (-15.0, 17.0)])
        assert touching(ds, line, "line").count() == 10

    def test_multiline_touching_poly(self):
        # vector_predicate_tests.py:243-250 -> 12
        ds = self._ds(seeded_multiline(), "line")
        poly = np.array([(-30.0, -40.0), (12.0, -30.0), (8.0, 22.0),
                         (-10.0, 50.0)])
        assert touching(ds, poly, "polygon").count() == 12

    def test_multipolygon_touching_poly(self):
        # vector_predicate_tests.py:252-261 -> 14
        ds = self._ds(seeded_multipolygon(3), "polygon")
        poly = np.array([(-30.0, -40.0), (12.0, -30.0), (8.0, 22.0),
                         (-10.0, 50.0)])
        assert touching(ds, poly, "polygon").count() == 14

    def test_multiline_within_poly(self):
        # vector_predicate_tests.py:263-270 -> 8
        ds = self._ds(seeded_multiline(), "line")
        poly = np.array([(-30.0, -40.0), (12.0, -30.0), (8.0, 22.0),
                         (-10.0, 50.0)])
        assert within(ds, poly).count() == 8

    def test_multipolygon_within_poly(self):
        # vector_predicate_tests.py:272-281 -> 8
        ds = self._ds(seeded_multipolygon(3), "polygon")
        poly = np.array([(-30.0, -40.0), (12.0, -30.0), (8.0, 22.0),
                         (-10.0, 50.0)])
        assert within(ds, poly).count() == 8


@pytest.mark.usefixtures("ray_session")
class TestIntersectionPoints:
    def test_points(self):
        from karta_ray.stages.geomjoin import intersection_points

        members = members_table([
            np.array([(0.0, 0.0), (3.0, 3.0)]),
            np.array([(0.0, 1.0), (3.0, 1.0)]),
            np.array([(10.0, 10.0), (11.0, 11.0)]),  # no crossing
        ], kind="line")
        import ray.data
        ds = ray.data.from_arrow(members)
        target = np.array([(0.0, 3.0), (3.0, 0.0)])
        got = intersection_points(ds, target).to_pandas().sort_values("geom_id")
        assert got["geom_id"].tolist() == [0, 1]
        assert got[got.geom_id == 0][["x", "y"]].to_numpy().tolist() == [[1.5, 1.5]]
        assert got[got.geom_id == 1][["x", "y"]].to_numpy().tolist() == [[2.0, 1.0]]


@pytest.mark.usefixtures("ray_session")
class TestUnionLayers:
    def test_field_intersection(self):
        import pyarrow as pa
        import ray.data

        from karta_ray.stages.merge import union_layers

        a = ray.data.from_arrow(pa.table({
            "lon": [1.0], "lat": [2.0], "a_only": [9]}))
        b = ray.data.from_arrow(pa.table({
            "lon": [3.0], "lat": [4.0], "b_only": ["x"]}))
        out = union_layers(a, b)
        assert set(out.schema().names) == {"lon", "lat"}
        assert out.count() == 2


@pytest.mark.usefixtures("ray_session")
class TestGeographicalJoin:
    def test_geodesic_arc_touching(self):
        # geodesic (-50,70)->(50,70) arcs north of lat 70 and crosses a
        # meridian segment at (0, 71..89): planar member bbox would have
        # excluded this pair (vector_predicate_tests.py:115-120 analogue)
        import ray.data

        ds = ray.data.from_arrow(members_table(
            [np.array([(0.0, 71.0), (1.0, 89.0)]),
             np.array([(100.0, -10.0), (110.0, -20.0)])], kind="line"))
        target = np.array([(-50.0, 70.0), (50.0, 70.0)])
        got = touching(ds, target, "line", geographical=True).to_pandas()
        assert got["geom_id"].tolist() == [0]


@pytest.mark.usefixtures("ray_session")
class TestSegmentFastPathChunking:
    """The vectorized single-segment fast paths tile the member axis;
    a many-edge target forces tile < members, and the result must
    equal the per-member loop path (multi-vertex members take it)."""

    def _target(self):
        # 4000-edge near-circular ring -> tile = 2^21 // 4000 = 524
        th = np.linspace(0, 2 * np.pi, 4001)[:-1]
        return np.column_stack([10 * np.cos(th), 10 * np.sin(th)])

    def _members(self, n=2000):
        rng = np.random.RandomState(11)
        p0 = rng.uniform(-15, 15, (n, 2))
        p1 = p0 + rng.uniform(-3, 3, (n, 2))
        return [np.array([a, b]) for a, b in zip(p0, p1)]

    def test_touching_matches_loop_path(self):
        import ray.data

        segs = self._members()
        ring = self._target()
        fast = touching(
            ray.data.from_arrow(members_table(segs)).repartition(1),
            ring, target_kind="polygon")
        got = sorted(r["geom_id"] for r in fast.take_all())
        # force the loop path: make each member 3 vertices (midpoint
        # inserted -> same polyline, same touching answer)
        segs3 = [np.array([a, (a + b) / 2, b]) for a, b in segs]
        slow = touching(
            ray.data.from_arrow(members_table(segs3)).repartition(1),
            ring, target_kind="polygon")
        want = sorted(r["geom_id"] for r in slow.take_all())
        assert got == want and len(got) > 0

    def test_intersection_points_chunked(self):
        import ray.data

        from karta_ray.stages.geomjoin import intersection_points

        segs = self._members(1500)
        ring = self._target()
        out = intersection_points(
            ray.data.from_arrow(members_table(segs)).repartition(1),
            ring, target_kind="polygon")
        df = out.to_pandas()
        assert len(df) > 0
        # every reported point lies (to float tolerance) on the ring
        # radius and inside its member's bbox
        r = np.hypot(df["x"], df["y"])
        assert np.all(np.abs(r - 10.0) < 1e-3)
        for gid, g in df.groupby("geom_id"):
            a, b = segs[int(gid)]
            lo = np.minimum(a, b) - 1e-9
            hi = np.maximum(a, b) + 1e-9
            assert np.all((g["x"] >= lo[0]) & (g["x"] <= hi[0]))
            assert np.all((g["y"] >= lo[1]) & (g["y"] <= hi[1]))
