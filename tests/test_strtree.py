"""STR-packed bbox tree + STRtree-prefilter join equivalence."""

import numpy as np
import pytest

from karta_ray.state.strtree import STRtree


def brute_box(boxes, xmin, ymin, xmax, ymax):
    hit = ((boxes[:, 0] <= xmax) & (boxes[:, 2] >= xmin)
           & (boxes[:, 1] <= ymax) & (boxes[:, 3] >= ymin))
    return np.sort(np.nonzero(hit)[0])


class TestSTRtree:
    def _boxes(self, n=500, seed=0):
        rng = np.random.RandomState(seed)
        x0 = rng.uniform(-100, 90, n)
        y0 = rng.uniform(-100, 90, n)
        w = rng.uniform(0.5, 10, n)
        h = rng.uniform(0.5, 10, n)
        return np.column_stack([x0, y0, x0 + w, y0 + h])

    def test_query_box_matches_brute(self):
        boxes = self._boxes()
        tree = STRtree(boxes)
        rng = np.random.RandomState(1)
        for _ in range(50):
            qx, qy = rng.uniform(-100, 90, 2)
            got = tree.query_box(qx, qy, qx + 15, qy + 15)
            want = brute_box(boxes, qx, qy, qx + 15, qy + 15)
            np.testing.assert_array_equal(got, want)

    def test_query_points_matches_brute(self):
        boxes = self._boxes(300, seed=2)
        tree = STRtree(boxes)
        rng = np.random.RandomState(3)
        px = rng.uniform(-105, 105, 1000)
        py = rng.uniform(-105, 105, 1000)
        pi, bi = tree.query_points(px, py)
        got = set(zip(pi.tolist(), bi.tolist()))
        want = set()
        for i in range(len(px)):
            inside = ((boxes[:, 0] <= px[i]) & (px[i] <= boxes[:, 2])
                      & (boxes[:, 1] <= py[i]) & (py[i] <= boxes[:, 3]))
            for b in np.nonzero(inside)[0]:
                want.add((i, int(b)))
        assert got == want

    def test_empty(self):
        tree = STRtree(np.empty((0, 4)))
        assert len(tree.query_box(0, 0, 1, 1)) == 0
        pi, bi = tree.query_points(np.array([1.0]), np.array([1.0]))
        assert len(pi) == 0

    def test_single(self):
        tree = STRtree(np.array([[0.0, 0.0, 2.0, 2.0]]))
        assert tree.query_box(1, 1, 3, 3).tolist() == [0]
        assert tree.query_box(3, 3, 4, 4).tolist() == []


@pytest.mark.usefixtures("ray_session")
class TestSTRtreeJoinEquivalence:
    def test_same_results_as_cell_join(self):
        import ray.data

        from karta_ray import synth
        from karta_ray.stages.extract import extract_geotag_stage
        from karta_ray.stages.join import pip_join, pip_join_strtree
        from karta_ray.stages.tiles import assign_cells

        ps = synth.admin_polygons()
        ds = synth.pages_dataset(1500, override_num_blocks=4)
        pts = (ds.map_batches(extract_geotag_stage, batch_format="pyarrow")
                 .map_batches(assign_cells, batch_format="pyarrow",
                              fn_kwargs={"zoom": 7}))

        a = pip_join(pts, ps, zoom=7).to_pandas()
        b = pip_join_strtree(pts, ps).to_pandas()
        key = ["url", "poly_id"]
        a = a[key].sort_values(key).reset_index(drop=True)
        b = b[key].sort_values(key).reset_index(drop=True)
        assert a.equals(b)

    def test_prefilters_agree_in_every_mode(self):
        # both prefilters feed the one exact test: identical tables
        from conftest import pages_table

        from karta_ray import synth
        from karta_ray.stages.extract import extract_geotag_stage
        from karta_ray.stages.join import (PolyJoiner, prep_polygons,
                                           prep_polygons_strtree)
        from karta_ray.stages.tiles import assign_cells

        ps = synth.admin_polygons()
        batch = assign_cells(extract_geotag_stage(pages_table(3000)),
                             zoom=7)
        cell_ref, box_ref = prep_polygons(ps, 7), prep_polygons_strtree(ps)
        for mode in ("inner", "semi", "tag"):
            a = PolyJoiner(cell_ref, mode)(batch).to_pandas()
            b = PolyJoiner(box_ref, mode)(batch).to_pandas()
            assert len(a) > 0
            assert a.equals(b), mode  # NaN-aware (tag keeps untagged rows)
