"""kNN join: exactness vs brute force, including cross-cell neighbors.

The co-shuffle tests run on one-block and four-block inputs, and the
scorer's query tiling is exercised with ``_Q_TILE`` patched to 2."""

import contextlib
import itertools

import numpy as np
import pyarrow as pa
import pytest

import karta_ray.stages.knn as knnmod
from karta_ray.kernels import tiles
from karta_ray.stages.knn import KnnJoiner, RightIndex, _dist_sphere


def brute_knn(qlon, qlat, ids, rlon, rlat, k):
    d = _dist_sphere(qlon[:, None], qlat[:, None], rlon[None, :], rlat[None, :])
    order = np.lexsort((np.broadcast_to(ids, d.shape), d), axis=1)[:, :k]
    return ids[order]


def make_joiner(index, k):
    return KnnJoiner(index, k=k)


@contextlib.contextmanager
def q_tile(rows):
    """``_Q_TILE`` set to ``rows`` (None: unchanged), here and in the Ray
    workers: while it is set the module's functions are pickled by
    value, so the stages take the patched constant with them."""
    if rows is None:
        yield
        return
    from ray import cloudpickle

    old = knnmod._Q_TILE
    knnmod._Q_TILE = rows
    cloudpickle.register_pickle_by_value(knnmod)
    try:
        yield
    finally:
        cloudpickle.unregister_pickle_by_value(knnmod)
        knnmod._Q_TILE = old


# input blocks per side for the co-shuffle runs
BLOCKS = (1, 4)


def coshuffle(llon, llat, rids, rlon, rlat, k, zoom, blocks):
    """Run knn_join_coshuffle on ``blocks``-block inputs; check its
    columns and that each (left row, rank) appears once; return
    {left_id: [neighbor ids by rank]}."""
    import ray.data

    from karta_ray.stages.knn import knn_join_coshuffle

    left = pa.table({"left_id": pa.array(np.arange(len(llon))),
                     "lon": pa.array(llon), "lat": pa.array(llat),
                     "cell_id": pa.array(tiles.cell_id(llon, llat, zoom))})
    right = pa.table({"right_id": pa.array(rids),
                      "lon": pa.array(rlon), "lat": pa.array(rlat)})
    out = knn_join_coshuffle(
        ray.data.from_arrow(left).repartition(blocks),
        ray.data.from_arrow(right).repartition(blocks),
        k, zoom=zoom).to_pandas()
    assert list(out.columns) == ["left_id", "neighbor_id", "rank", "dist_m"]
    assert not out.duplicated(["left_id", "rank"]).any()
    got = {}
    for lid, nid, rank in zip(out.left_id, out.neighbor_id, out["rank"]):
        got.setdefault(int(lid), {})[int(rank)] = int(nid)
    return {q: [r[i] for i in sorted(r)] for q, r in got.items()}


class TestKnnExact:
    def test_matches_brute_force(self):
        rng = np.random.RandomState(7)
        n_r = 500
        rlon = rng.uniform(-170, 170, n_r)
        rlat = rng.uniform(-75, 75, n_r)
        ids = np.arange(1000, 1000 + n_r)
        index = RightIndex(ids, rlon, rlat, zoom=5)

        n_q = 200
        qlon = rng.uniform(-179, 179, n_q)
        qlat = rng.uniform(-80, 80, n_q)
        cells = tiles.cell_id(qlon, qlat, 5)
        batch = pa.table({"qid": pa.array(np.arange(n_q)),
                          "lon": pa.array(qlon), "lat": pa.array(qlat),
                          "cell_id": pa.array(cells)})
        k = 5
        want = brute_knn(qlon, qlat, ids, rlon, rlat, k)
        for tile in (None, 2):
            with q_tile(tile):
                out = make_joiner(index, k)(batch)
            got = {}
            for qid, nid, rank in zip(out.column("qid").to_pylist(),
                                      out.column("neighbor_id").to_pylist(),
                                      out.column("rank").to_pylist()):
                got.setdefault(qid, {})[rank] = nid
            for q in range(n_q):
                assert [got[q][r] for r in range(1, k + 1)] == \
                    want[q].tolist(), (tile, q)

    def test_sparse_right_side(self):
        # fewer right points than k in any nearby cell -> ring expansion
        # must still find the globally nearest ones
        rlon = np.array([0.0, 90.0, -90.0, 179.0])
        rlat = np.array([0.0, 40.0, -40.0, -70.0])
        ids = np.array([1, 2, 3, 4])
        index = RightIndex(ids, rlon, rlat, zoom=6)
        qlon = np.array([10.0])
        qlat = np.array([5.0])
        batch = pa.table({"lon": pa.array(qlon), "lat": pa.array(qlat),
                          "cell_id": pa.array(tiles.cell_id(qlon, qlat, 6))})
        want = brute_knn(qlon, qlat, ids, rlon, rlat, 2)
        for tile in (None, 2):
            with q_tile(tile):
                out = make_joiner(index, 2)(batch)
            assert out.column("neighbor_id").to_pylist() == want[0].tolist()

    def test_dateline_neighbors(self):
        # nearest neighbor across the dateline must be found
        rlon = np.array([179.5, 170.0, 0.0])
        rlat = np.array([10.0, 10.0, 10.0])
        ids = np.array([11, 12, 13])
        index = RightIndex(ids, rlon, rlat, zoom=6)
        qlon = np.array([-179.8])
        qlat = np.array([10.0])
        batch = pa.table({"lon": pa.array(qlon), "lat": pa.array(qlat),
                          "cell_id": pa.array(tiles.cell_id(qlon, qlat, 6))})
        for tile in (None, 2):
            with q_tile(tile):
                out = make_joiner(index, 1)(batch)
            assert out.column("neighbor_id").to_pylist() == [11]

    def test_wrapped_ring_scores_each_candidate_once(self):
        # on a 2x2 to 8x8 grid a ring wider than half the grid wraps
        # onto cells an inner ring already visited; with k = every right
        # point, each must still come back once, in brute-force order
        rng = np.random.RandomState(1)
        rlon = rng.uniform(-170, 170, 12)
        rlat = rng.uniform(-70, 70, 12)
        ids = np.arange(12)
        qlon = np.array([10.0, 10.0, -100.0])
        qlat = np.array([80.0, 81.0, 60.0])
        want = brute_knn(qlon, qlat, ids, rlon, rlat, 12)
        for zoom in (1, 2, 3):
            index = RightIndex(ids, rlon, rlat, zoom=zoom)
            batch = pa.table({
                "qid": pa.array(np.arange(3)),
                "lon": pa.array(qlon), "lat": pa.array(qlat),
                "cell_id": pa.array(tiles.cell_id(qlon, qlat, zoom))})
            for tile in (None, 2):
                with q_tile(tile):
                    out = make_joiner(index, 12)(batch)
                for q in range(3):
                    rows = out.filter(pa.compute.equal(out.column("qid"), q))
                    assert rows.column("neighbor_id").to_pylist() == \
                        want[q].tolist(), (zoom, tile, q)


@pytest.mark.usefixtures("ray_session")
class TestKnnCoshuffle:
    def test_matches_brute_force(self):
        rng = np.random.RandomState(11)
        n_r, n_l, k = 400, 150, 3
        rlon = rng.uniform(-60, 60, n_r)
        rlat = rng.uniform(-50, 50, n_r)
        rids = np.arange(5000, 5000 + n_r)
        llon = rng.uniform(-55, 55, n_l)
        llat = rng.uniform(-45, 45, n_l)
        zoom = 3  # large cells -> candidates dense, residue small
        want = brute_knn(llon, llat, rids, rlon, rlat, k)
        for blocks in BLOCKS:
            got = coshuffle(llon, llat, rids, rlon, rlat, k, zoom, blocks)
            for q in range(n_l):
                assert got[q] == want[q].tolist(), (blocks, q)


@pytest.mark.usefixtures("ray_session")
class TestKnnCoshuffleHotCell:
    def test_hot_cell_query_tiling_exact(self):
        # dense-city skew: thousands of left rows + hundreds of right
        # rows in ONE cell, forcing multiple _Q_TILE query tiles through
        # the probe (memory stays tile x ncand, not nq x ncand); the
        # tiled path must stay exact vs brute force
        rng = np.random.RandomState(17)
        n_l, n_r, k = 3000, 300, 3
        assert n_l > 2 * knnmod._Q_TILE  # ensure >= 3 tiles
        # everything inside one zoom-2 cell (cells are 90 deg wide)
        llon = rng.uniform(10, 40, n_l)
        llat = rng.uniform(10, 30, n_l)
        rlon = rng.uniform(10, 40, n_r)
        rlat = rng.uniform(10, 30, n_r)
        rids = np.arange(7000, 7000 + n_r)
        want = brute_knn(llon, llat, rids, rlon, rlat, k)
        for blocks in BLOCKS:
            got = coshuffle(llon, llat, rids, rlon, rlat, k, 2, blocks)
            for q in range(n_l):
                assert got[q] == want[q].tolist(), (blocks, q)


@pytest.mark.usefixtures("ray_session")
class TestKnnCoshuffleEdgeCases:
    def test_nan_coordinates_do_not_crash(self):
        # ADVICE r01: rows without coordinates (cell_id == -1) used to
        # reach unpack_cell(-1)/_explored_bound_m and raise; they must
        # simply be dropped on both sides (KnnJoiner semantics)
        rng = np.random.RandomState(3)
        n_r, n_l, k = 60, 25, 2
        rlon = rng.uniform(-40, 40, n_r)
        rlat = rng.uniform(-30, 30, n_r)
        rlon[::7] = np.nan  # some right rows without coords
        rids = np.arange(9000, 9000 + n_r)
        llon = rng.uniform(-35, 35, n_l)
        llat = rng.uniform(-25, 25, n_l)
        llon[::5] = np.nan  # some left rows without coords
        lids = np.arange(n_l)
        lok = ~np.isnan(llon)
        rok = ~np.isnan(rlon)
        want = brute_knn(llon[lok], llat[lok], rids[rok],
                         rlon[rok], rlat[rok], k)
        for blocks in BLOCKS:
            got = coshuffle(llon, llat, rids, rlon, rlat, k, 2, blocks)
            assert set(got) == set(lids[lok].tolist())
            for qi, q in enumerate(lids[lok]):
                assert got[q] == want[qi].tolist(), (blocks, q)

    def test_sparse_right_forces_residue_rounds(self):
        # right side so sparse that most cells fail the in-cell bound:
        # the distributed residue rounds (left-fanout, ring doubling up
        # to full cover) must still produce exact results
        rng = np.random.RandomState(23)
        n_r, n_l, k = 8, 40, 3
        rlon = rng.uniform(-150, 150, n_r)
        rlat = rng.uniform(-70, 70, n_r)
        rids = np.arange(100, 100 + n_r)
        llon = rng.uniform(-170, 170, n_l)
        llat = rng.uniform(-75, 75, n_l)
        zoom = 4  # 16x16 grid, 8 right points -> almost all cells empty
        want = brute_knn(llon, llat, rids, rlon, rlat, k)
        for blocks, tile in itertools.product(BLOCKS, (None, 2)):
            with q_tile(tile):
                got = coshuffle(llon, llat, rids, rlon, rlat, k, zoom,
                                blocks)
            assert set(got) == set(range(n_l))
            for q in range(n_l):
                assert got[q] == want[q].tolist(), (blocks, tile, q)

    def test_no_coordinates_typed_empty(self):
        # no right (then no left) row has coordinates: the result is
        # empty, but typed; Ray's to_pandas() drops the columns of any
        # empty Dataset, so read the blocks
        import ray
        import ray.data

        from karta_ray.stages.knn import knn_join_coshuffle

        llon, llat = np.array([1.0, 20.0, -40.0]), np.array([2.0, 10.0, 30.0])
        rlon, rlat = np.array([5.0, -30.0]), np.array([1.0, 2.0])
        nan = np.full(3, np.nan)
        want = pa.schema([("left_id", pa.int64()), ("neighbor_id", pa.int64()),
                          ("rank", pa.int64()), ("dist_m", pa.float64())])
        for (llon, rlon), blocks in itertools.product(
                [(llon, nan[:2]), (nan, rlon)], BLOCKS):
            left = pa.table({"left_id": pa.array(np.arange(3)),
                             "lon": pa.array(llon), "lat": pa.array(llat),
                             "cell_id": pa.array(tiles.cell_id(llon, llat, 4))})
            right = pa.table({"right_id": pa.array([7, 8]),
                              "lon": pa.array(rlon), "lat": pa.array(rlat)})
            out = knn_join_coshuffle(
                ray.data.from_arrow(left).repartition(blocks),
                ray.data.from_arrow(right).repartition(blocks), 2, zoom=4)
            assert out.schema().base_schema == want
            tables = ray.get(out.to_arrow_refs())
            assert all(t.schema == want for t in tables), blocks
            assert pa.concat_tables(tables).num_rows == 0
