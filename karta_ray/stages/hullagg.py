"""Convex hull as a distributed aggregation.

A hull is an aggregate over a point set (karta ``convex_hull``,
karta/vector/geometry.py:600-613): compute per-block partial hulls, then
the hull of the union of hull vertices — associative, so the combine is
a tree like any other aggregate. Hulls are planar, over (lon, lat).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels import hull as HK


def _hull_vertices(coords):
    coords = np.asarray(coords, dtype=np.float64)
    if len(coords) < 3:
        return coords
    return coords[HK.convex_hull_planar(coords)]


def convex_hull(points_ds):
    """Global planar convex hull of the (lon, lat) columns of a points
    Dataset.

    Per-block partial hulls shrink each block to its hull vertices; the
    final exact hull is computed over the (small) union. Returns an
    Arrow table (order, x, y) with vertices in scan order starting from
    the leftmost point, matching the reference's output order.
    """
    def partial(batch: pa.Table) -> pa.Table:
        coords = np.column_stack([
            batch.column("lon").to_numpy(zero_copy_only=False),
            batch.column("lat").to_numpy(zero_copy_only=False)])
        coords = coords[~np.isnan(coords).any(axis=1)]
        hv = _hull_vertices(coords)
        return pa.table({"x": pa.array(hv[:, 0]), "y": pa.array(hv[:, 1])})

    part = points_ds.map_batches(partial, batch_format="pyarrow",
                                 zero_copy_batch=True)
    # partial hulls are tiny (tens of vertices per block) — collect
    # directly, no repartition stage needed
    # to_pandas() drops the columns of a Dataset with no rows
    coords = part.to_pandas().reindex(columns=["x", "y"]).to_numpy(np.float64)
    hv = _hull_vertices(np.unique(coords, axis=0))
    return pa.table({
        "order": pa.array(np.arange(len(hv), dtype=np.int64)),
        "x": pa.array(hv[:, 0]),
        "y": pa.array(hv[:, 1]),
    })
