"""kNN join: exactness vs brute force, including cross-cell neighbors.

Every case runs through the public ``knn_join`` in both of its shapes:
a table right side within the broadcast budget takes the broadcast
shape, and with ``lookup.BROADCAST_MAX_BYTES`` patched below any size
a Dataset right side takes the co-shuffle. Inputs are one-block and
four-block, and the scorer's query tiling is exercised with
``_Q_TILE`` patched to 2."""

import contextlib
import itertools

import numpy as np
import pyarrow as pa
import pytest

import karta_ray.stages.knn as knnmod
from karta_ray.kernels import tiles
from karta_ray.stages import lookup
from karta_ray.stages.knn import _dist_sphere, _explored_bound_m, knn_join


def brute_knn(qlon, qlat, ids, rlon, rlat, k):
    d = _dist_sphere(qlon[:, None], qlat[:, None], rlon[None, :], rlat[None, :])
    order = np.lexsort((np.broadcast_to(ids, d.shape), d), axis=1)[:, :k]
    return ids[order]


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


# the two shapes of knn_join, and input blocks per side
SHAPES = ("broadcast", "coshuffle")
BLOCKS = (1, 4)

OUT = pa.schema([("left_id", pa.int64()), ("neighbor_id", pa.int64()),
                 ("rank", pa.int64()), ("dist_m", pa.float64())])


def run_knn(llon, llat, rids, rlon, rlat, k, zoom, shape, blocks=1):
    """``knn_join`` of left rows ``0..n-1`` and the right rows in
    ``shape`` on ``blocks``-block inputs; check that it took that shape
    and its schema: its blocks as tables."""
    import ray
    import ray.data

    left = pa.table({"left_id": pa.array(np.arange(len(llon))),
                     "lon": pa.array(llon), "lat": pa.array(llat)})
    right = pa.table({"right_id": pa.array(rids, pa.int64()),
                      "lon": pa.array(rlon), "lat": pa.array(rlat)})
    calls = []
    coshuffle = knnmod._coshuffle
    with pytest.MonkeyPatch.context() as mp:
        if shape == "coshuffle":
            # below any size, an empty right side's included
            mp.setattr(lookup, "BROADCAST_MAX_BYTES", -1)
            right = ray.data.from_arrow(right).repartition(blocks)
        mp.setattr(knnmod, "_coshuffle",
                   lambda *a, **kw: calls.append(1) or coshuffle(*a, **kw))
        out = knn_join(ray.data.from_arrow(left).repartition(blocks), right,
                       k, zoom=zoom)
    assert len(calls) == (shape == "coshuffle")
    assert out.schema().base_schema == OUT, (shape, blocks)
    tables = ray.get(out.to_arrow_refs())
    assert all(t.schema == OUT for t in tables if t.num_rows), (shape, blocks)
    return tables


def neighbors(*args, **kwargs):
    """:func:`run_knn`'s rows as {left_id: [neighbor ids by rank]}, after
    checking that each (left row, rank) appears once."""
    out = pa.concat_tables([t for t in run_knn(*args, **kwargs)
                           if t.num_rows]).to_pandas()
    assert not out.duplicated(["left_id", "rank"]).any()
    got = {}
    for lid, nid, rank in zip(out.left_id, out.neighbor_id, out["rank"]):
        got.setdefault(int(lid), {})[int(rank)] = int(nid)
    return {q: [r[i] for i in sorted(r)] for q, r in got.items()}


def _explored_bound_tile_bbox(z, x, y, ring, qlon, qlat):
    """Reference for ``_explored_bound_m``: its edges from the tile
    kernels' scalar calls."""
    n = 1 << int(z)
    xmin, ymin, xmax, ymax = tiles.tile_bbox(
        np.int64(z), np.int64(x), np.int64(y))
    lon_w = float(xmin) - ring * 360.0 / n
    lon_e = float(xmax) + ring * 360.0 / n
    y_top = max(int(y) - ring, 0)
    y_bot = min(int(y) + ring, n - 1)
    _, lat_n = tiles.tile_nw_corner(np.int64(z), np.int64(x), np.int64(y_top))
    _, lat_s = tiles.tile_nw_corner(np.int64(z), np.int64(x), np.int64(y_bot + 1))
    R = knnmod.geodesy.SPHERE_RADIUS
    D2R = knnmod.D2R
    if lon_e - lon_w >= 360.0:
        d_we = np.full_like(qlon, np.inf)
    else:
        dlon_w = np.abs(qlon - lon_w) * D2R
        dlon_e = np.abs(lon_e - qlon) * D2R
        d_w = R * np.arcsin(np.clip(np.cos(qlat * D2R) * np.sin(np.minimum(dlon_w, np.pi / 2)), -1, 1))
        d_e = R * np.arcsin(np.clip(np.cos(qlat * D2R) * np.sin(np.minimum(dlon_e, np.pi / 2)), -1, 1))
        d_we = np.minimum(d_w, d_e)
    d_n = (np.inf if y_top == 0 else R * np.abs(float(lat_n) - qlat) * D2R)
    d_s = (np.inf if y_bot == n - 1 else R * np.abs(qlat - float(lat_s)) * D2R)
    return np.minimum(d_we, np.minimum(d_n, d_s))


@pytest.mark.usefixtures("ray_session")
class TestKnnExact:
    def test_matches_brute_force(self):
        rng = np.random.RandomState(7)
        n_r = 500
        rlon = rng.uniform(-170, 170, n_r)
        rlat = rng.uniform(-75, 75, n_r)
        ids = np.arange(1000, 1000 + n_r)
        n_q = 200
        qlon = rng.uniform(-179, 179, n_q)
        qlat = rng.uniform(-80, 80, n_q)
        k = 5
        want = brute_knn(qlon, qlat, ids, rlon, rlat, k)
        for shape, tile in itertools.product(SHAPES, (None, 2)):
            with q_tile(tile):
                got = neighbors(qlon, qlat, ids, rlon, rlat, k, 5, shape)
            for q in range(n_q):
                assert got[q] == want[q].tolist(), (shape, tile, q)

    def test_sparse_right_side(self):
        # fewer right points than k in any nearby cell -> ring expansion
        # must still find the globally nearest ones
        rlon = np.array([0.0, 90.0, -90.0, 179.0])
        rlat = np.array([0.0, 40.0, -40.0, -70.0])
        ids = np.array([1, 2, 3, 4])
        qlon = np.array([10.0])
        qlat = np.array([5.0])
        want = brute_knn(qlon, qlat, ids, rlon, rlat, 2)
        for shape, tile in itertools.product(SHAPES, (None, 2)):
            with q_tile(tile):
                got = neighbors(qlon, qlat, ids, rlon, rlat, 2, 6, shape)
            assert got[0] == want[0].tolist(), (shape, tile)

    def test_dateline_neighbors(self):
        # nearest neighbor across the dateline must be found
        rlon = np.array([179.5, 170.0, 0.0])
        rlat = np.array([10.0, 10.0, 10.0])
        ids = np.array([11, 12, 13])
        qlon = np.array([-179.8])
        qlat = np.array([10.0])
        for shape, tile in itertools.product(SHAPES, (None, 2)):
            with q_tile(tile):
                got = neighbors(qlon, qlat, ids, rlon, rlat, 1, 6, shape)
            assert got[0] == [11], (shape, tile)

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
        for zoom, shape, tile in itertools.product((1, 2, 3), SHAPES,
                                                   (None, 2)):
            with q_tile(tile):
                got = neighbors(qlon, qlat, ids, rlon, rlat, 12, zoom, shape)
            for q in range(3):
                assert got[q] == want[q].tolist(), (zoom, shape, tile, q)

    def test_explored_bound_matches_tile_bbox(self):
        # the bound's edges in float math are bit-identical to the tile
        # kernels' scalar edges, at every row incl. the clamped edges
        rng = np.random.RandomState(5)
        for z in (0, 1, 2, 4, 6, 9):
            n = 1 << z
            for y in sorted({0, 1, n // 2, n - 2, n - 1} & set(range(n))):
                x = int(rng.randint(n))
                w, s, e, nn = tiles.tile_bbox(z, x, y)
                qlon = rng.uniform(w, e, 16)
                qlat = rng.uniform(s, nn, 16)
                for ring in (0, 1, 2, 5, n):
                    got = _explored_bound_m(z, x, y, ring, qlon, qlat)
                    want = _explored_bound_tile_bbox(z, x, y, ring, qlon,
                                                     qlat)
                    assert np.array_equal(got, want), (z, x, y, ring)


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
        for shape, blocks in itertools.product(SHAPES, BLOCKS):
            got = neighbors(llon, llat, rids, rlon, rlat, k, zoom, shape,
                            blocks)
            for q in range(n_l):
                assert got[q] == want[q].tolist(), (shape, blocks, q)


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
        for shape, blocks in itertools.product(SHAPES, BLOCKS):
            got = neighbors(llon, llat, rids, rlon, rlat, k, 2, shape,
                            blocks)
            for q in range(n_l):
                assert got[q] == want[q].tolist(), (shape, blocks, q)


@pytest.mark.usefixtures("ray_session")
class TestKnnCoshuffleEdgeCases:
    def test_nan_coordinates_do_not_crash(self):
        # ADVICE r01: rows without coordinates (cell_id == -1) used to
        # reach unpack_cell(-1)/_explored_bound_m and raise; they must
        # simply be dropped on both sides
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
        for shape, blocks in itertools.product(SHAPES, BLOCKS):
            got = neighbors(llon, llat, rids, rlon, rlat, k, 2, shape,
                            blocks)
            assert set(got) == set(lids[lok].tolist())
            for qi, q in enumerate(lids[lok]):
                assert got[q] == want[qi].tolist(), (shape, blocks, q)

    def test_sparse_right_forces_residue_rounds(self):
        # right side so sparse that most cells fail the in-cell bound:
        # the distributed residue rounds (left-fanout, ring doubling up
        # to full cover) and the broadcast's ring walk must still
        # produce exact results
        rng = np.random.RandomState(23)
        n_r, n_l, k = 8, 40, 3
        rlon = rng.uniform(-150, 150, n_r)
        rlat = rng.uniform(-70, 70, n_r)
        rids = np.arange(100, 100 + n_r)
        llon = rng.uniform(-170, 170, n_l)
        llat = rng.uniform(-75, 75, n_l)
        zoom = 4  # 16x16 grid, 8 right points -> almost all cells empty
        want = brute_knn(llon, llat, rids, rlon, rlat, k)
        for shape, blocks, tile in itertools.product(SHAPES, BLOCKS,
                                                     (None, 2)):
            with q_tile(tile):
                got = neighbors(llon, llat, rids, rlon, rlat, k, zoom,
                                shape, blocks)
            assert set(got) == set(range(n_l))
            for q in range(n_l):
                assert got[q] == want[q].tolist(), (shape, blocks, tile, q)

    def test_no_coordinates_typed_empty(self):
        # no right (then no left) row has coordinates: the result is
        # empty, but typed; Ray's to_pandas() drops the columns of any
        # empty Dataset, so run_knn reads the blocks
        llon, llat = np.array([1.0, 20.0, -40.0]), np.array([2.0, 10.0, 30.0])
        rlon, rlat = np.array([5.0, -30.0]), np.array([1.0, 2.0])
        nan = np.full(3, np.nan)
        for (llon, rlon), shape, blocks in itertools.product(
                [(llon, nan[:2]), (nan, rlon)], SHAPES, BLOCKS):
            tables = run_knn(llon, llat, [7, 8], rlon, rlat, 2, 4, shape,
                             blocks)
            assert all(t.schema == OUT for t in tables), (shape, blocks)
            assert pa.concat_tables(tables).num_rows == 0, (shape, blocks)

    def test_empty_right_side_typed_empty(self):
        # left rows with coordinates and no right row at all: the typed
        # empty result in both shapes (the broadcast probe used to index
        # an empty cell array and raise IndexError)
        llon, llat = np.array([1.0, 20.0, -40.0]), np.array([2.0, 10.0, 30.0])
        empty = np.empty(0)
        for shape, blocks in itertools.product(SHAPES, BLOCKS):
            tables = run_knn(llon, llat, empty.astype(np.int64), empty,
                             empty, 2, 4, shape, blocks)
            assert all(t.schema == OUT for t in tables), (shape, blocks)
            assert pa.concat_tables(tables).num_rows == 0, (shape, blocks)
