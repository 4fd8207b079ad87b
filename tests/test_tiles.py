"""Tile-math goldens ported from /root/reference/tests/tile_tests.py."""

import numpy as np
import pytest

from karta_ray.kernels import tiles


def test_tile_from_point_goldens():
    # tile_tests.py:8-17
    x, y = tiles.tile_xy(0.0, 0.0, 0)
    assert (x, y) == (0, 0)
    x, y = tiles.tile_xy(0.0, 0.0, 8)
    assert (x, y) == (128, 128)
    x, y = tiles.tile_xy(60.0, -30.0, 12)
    assert (x, y) == (2730, 2406)


def test_tile_vectorized_matches_scalar():
    rng = np.random.RandomState(7)
    lon = rng.uniform(-180, 180, 1000)
    lat = rng.uniform(-85, 85, 1000)
    for z in (0, 4, 12):
        xv, yv = tiles.tile_xy(lon, lat, z)
        for i in (0, 17, 999):
            xs, ys = tiles.tile_xy(lon[i], lat[i], z)
            assert xv[i] == xs and yv[i] == ys


def test_tile_nw_corner():
    # tile_tests.py:19-26
    lon, lat = tiles.tile_nw_corner(0, 0, 0)
    assert lon == -180.0
    assert lat == pytest.approx(85.05112877, abs=1e-7)
    lon, lat = tiles.tile_nw_corner(1, 1, 1)
    assert (lon, lat) == (0.0, 0.0)


def test_tile_bbox():
    # tile_tests.py:28-34
    xmin, ymin, xmax, ymax = tiles.tile_bbox(1, 0, 0)
    assert xmin == -180.0
    assert xmax == 0.0
    assert ymin == 0.0
    assert ymax == pytest.approx(85.05112877, abs=1e-7)


def test_pack_unpack_roundtrip():
    rng = np.random.RandomState(3)
    z = rng.randint(0, 29, 500).astype(np.int64)
    n = (1 << z)
    x = (rng.rand(500) * n).astype(np.int64)
    y = (rng.rand(500) * n).astype(np.int64)
    cell = tiles.pack_cell(z, x, y)
    z2, x2, y2 = tiles.unpack_cell(cell)
    np.testing.assert_array_equal(z, z2)
    np.testing.assert_array_equal(x, x2)
    np.testing.assert_array_equal(y, y2)


def test_cell_id_nan_sentinel():
    cid = tiles.cell_id(np.array([np.nan, 60.0]), np.array([0.0, -30.0]), 12)
    assert cid[0] == -1
    z, x, y = tiles.unpack_cell(cid[1])
    assert (z, x, y) == (12, 2730, 2406)


def test_neighbor_cells_wrap_and_clamp():
    # tile (2, 0, 0): x wraps mod 4, y clamps at 0
    cell = tiles.pack_cell(np.int64(2), np.int64(0), np.int64(0))
    nb = tiles.neighbor_cells(cell, ring=1)[0]
    zs, xs, ys = tiles.unpack_cell(nb)
    assert set(xs.tolist()) == {0, 1, 3}
    assert set(ys.tolist()) == {0, 1}
    assert len(nb) == 9
    assert tiles.neighbor_cells(np.empty(0, np.int64), ring=2).shape == (0, 25)


def test_cells_covering_bbox_dateline():
    cells = tiles.cells_covering_bbox(170.0, -10.0, -170.0, 10.0, 4)
    zs, xs, ys = tiles.unpack_cell(cells)
    assert (xs >= 0).all() and (xs < 16).all()
    # covers tiles on both sides of the dateline
    assert 15 in xs.tolist() and 0 in xs.tolist()


def test_cell_id_wraps_antimeridian():
    # tile_xy is reference-faithful (lon 180 -> x == 2**zoom) but the
    # packed JOIN key wraps to column 0, so cell-cover prefilters
    # (which generate x in [0, 2**zoom)) stay supersets on the dateline
    x, y = tiles.tile_xy(np.float64(180.0), np.float64(0.0), 4)
    assert int(x) == 16
    cid = tiles.cell_id(np.array([180.0, -180.0]), np.array([0.0, 0.0]), 4)
    zs, xs, ys = tiles.unpack_cell(cid)
    assert xs.tolist() == [0, 0]
    # a dateline-crossing cover now contains the lon==180 point's cell
    cover = tiles.cells_covering_bbox(179.0, -10.0, -179.0, 10.0, 4)
    assert int(cid[0]) in set(cover.tolist())


def test_assign_cells_wraps_antimeridian():
    # the stage-level cell key must match tiles.cell_id (wrapped),
    # while tile_x stays reference-faithful (x == 2**zoom at lon 180)
    import pyarrow as pa

    from karta_ray.stages.tiles import assign_cells

    batch = pa.table({"lon": pa.array([180.0, -180.0, 0.0]),
                      "lat": pa.array([0.0, 0.0, 0.0])})
    out = assign_cells(batch, zoom=4)
    cells = out.column("cell_id").to_numpy()
    zs, xs, ys = tiles.unpack_cell(cells)
    assert xs.tolist() == [0, 0, 8]
    assert out.column("tile_x").to_numpy().tolist() == [16, 0, 8]


def test_cell_id_polar_clamp():
    # Points poleward of the Mercator band clamp into the edge rows
    # (reachable by covers/neighbors); only non-finite or |lat| > 90
    # coordinates drop to the -1 sentinel.
    z = 4
    n = 1 << z
    lon = np.array([10.0, 10.0, 10.0, 10.0, 10.0, 10.0, np.nan])
    lat = np.array([89.0, 90.0, -89.0, -90.0, 85.05112877980659,
                    -85.05112877980659, 0.0])
    cid = tiles.cell_id(lon, lat, z)
    zz, xx, yy = tiles.unpack_cell(cid)
    assert (cid[:6] >= 0).all()
    assert yy[0] == 0 and yy[1] == 0
    assert yy[2] == n - 1 and yy[3] == n - 1
    assert 0 <= yy[4] <= n - 1 and 0 <= yy[5] <= n - 1
    assert cid[6] == -1
    # x column matches the non-polar projection of the same longitude
    x_ref, _ = tiles.tile_xy(10.0, 0.0, z)
    assert (xx[:6] == int(x_ref)).all()
    # |lat| > 90 is invalid -> sentinel
    assert tiles.cell_id(np.array([0.0]), np.array([95.0]), z)[0] == -1
    # clamped polar cells are reachable from neighbor_cells of edge rows
    nb = tiles.neighbor_cells(cid[0], ring=1).ravel()
    assert cid[0] in nb
