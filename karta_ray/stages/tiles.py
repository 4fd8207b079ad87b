"""Tile/cell assignment stage (stateless)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels import tiles


def assign_cells(batch: pa.Table, *, zoom: int,
                 with_xyz: bool = True) -> pa.Table:
    """Add Web-Mercator tile columns of the (lon, lat) point at
    ``zoom``: ``tile_z/tile_x/tile_y`` (int64; -1 when no geotag) and
    the packed int64 ``cell_id`` groupby/join key."""
    lon = batch.column("lon").to_numpy(zero_copy_only=False)
    lat = batch.column("lat").to_numpy(zero_copy_only=False)
    # the packed JOIN key wraps x at the antimeridian (tiles.cell_id) so
    # cell-cover prefilters stay supersets; tile_x stays reference-
    # faithful (lon == 180 -> x == 2**zoom, karta/tile.py:52-78)
    cell = tiles.cell_id(lon, lat, zoom)
    out = batch
    if with_xyz:
        x, y = tiles.tile_xy(lon, lat, zoom)
        z = np.where(x < 0, -1, zoom)
        out = out.append_column("tile_z", pa.array(z, pa.int64()))
        out = out.append_column("tile_x", pa.array(x, pa.int64()))
        out = out.append_column("tile_y", pa.array(y, pa.int64()))
    return out.append_column("cell_id", pa.array(cell, pa.int64()))
