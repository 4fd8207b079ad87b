"""Point-in-polygon spatial join — the heart of the engine.

Replaces the reference's ``Multipoint.within_polygon`` (quadtree bbox
prefilter -> exact contains, karta/vector/geometry.py:1391-1405) with the
distributed shape:

1. points carry lon/lat and, for the cell prefilter, a packed
   Web-Mercator ``cell_id`` (tile zoom Z);
2. the polygon layer is prepped ONCE into plain arrays plus a prefilter
   (the cell cover of :func:`prep_polygons` or the STR bbox tree of
   :func:`prep_polygons_strtree`) and the per-ring exact-test table
   (``geoms.RingTable``), put in the object store with ``ray.put`` and
   read by every task from the same copy;
3. the join is a task-based ``map_batches`` over :func:`_join_batch`,
   which builds one ``PolyJoiner`` per worker process
   (``state.worker.cached``). The joiner takes (point, polygon)
   candidate pairs from the prefilter, then runs the exact
   winding-number / polar-azimuth test on all of them at once: pairs
   expand to (pair, ring), winding numbers come from the rings' vertex
   arrays in cache-sized chunks, polar rings take the azimuth-sum test,
   and holes are subtracted per pair.

Both prefilters are strict supersets of the reference's bbox prefilter,
and the exact test computes what ``PolygonSet.contains`` computes, with
the same floating-point operations — so join outputs match row-for-row.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..geoms import PolygonSet, RingTable
from ..state.executor import buffer_ahead
from ..state.strtree import STRtree
from ..state.worker import cached, resolve

DEFAULT_ZOOM = 7

# Rows per _join_batch call. A split read (ReadParquet->SplitBlocks,
# which Ray plans when there are fewer read tasks than its detected
# parallelism, as perfbench's 8 files on 4 CPUs get) never fuses with a
# map, whatever the batch size (ray/data/_internal/logical/rules/
# operator_fusion.py:168). With one read task per file (files >> CPUs,
# the design scale) there is no split, and Ray will not fuse a
# row-changing Read into an operator with min_rows_per_bundle: 8192
# leaves ReadParquet its own operator, so html crosses the object store
# once, while batch_size=None fuses the read into extract -> ... (4 CPUs,
# override_num_blocks=8, 8 interleaved jobs each: 0.730 s vs 0.494 s per
# job). Kept because on the split read whole blocks cut pip_dense
# norm_rows_per_s 7% and raised flagship_pages setup_s 13% and
# peak_pss_mb 5% (interleaved perfbench A/B, 5 pairs per workload),
# though they lifted its scaling_eff from 0.28 to 0.41. With a 16-block
# generator buffer (see state.executor) a flagship_pages job at all 4
# CPUs took 0.505 s at 4096, 0.506 s at 8192, 0.578 s at 16384 and
# 0.571 s at None, and the one-CPU leg got slower at the other sizes.
BATCH_SIZE = 8192

_EMPTY_PAIRS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


class CellCover:
    """Cell prefilter: the cell -> candidate-polygons cover map flattened
    to three sorted numpy arrays (cells, offsets, flat poly indices), so
    batch lookup is a single vectorized searchsorted instead of per-cell
    dict probes. Reads the batch's ``cell_id`` column."""

    def __init__(self, polyset: PolygonSet, zoom: int):
        self.cells, self.off, self.flat = polyset.cover_arrays(zoom)

    def candidates(self, batch: pa.Table, lon, lat):
        """(point_idx, poly_idx) candidate pairs, point-major."""
        cells = batch.column("cell_id").to_numpy(zero_copy_only=False)
        if len(self.cells) == 0:
            return _EMPTY_PAIRS
        pos = np.searchsorted(self.cells, cells)
        pos_c = np.minimum(pos, len(self.cells) - 1)
        match = self.cells[pos_c] == cells
        starts = self.off[pos_c]
        counts = np.where(match, self.off[pos_c + 1] - starts, 0)
        total = int(counts.sum())
        if total == 0:
            return _EMPTY_PAIRS
        pt_idx = np.repeat(np.arange(len(cells), dtype=np.int64), counts)
        cum = np.cumsum(counts) - counts
        flat_pos = (np.arange(total, dtype=np.int64)
                    - np.repeat(cum, counts) + np.repeat(starts, counts))
        return pt_idx, self.flat[flat_pos]


class BoxTree:
    """STR bbox-tree prefilter (the reference's R-tree analogue,
    state/strtree.py): needs no cell assignment, so it serves a polygon
    layer queried without one or at many zooms.

    Its boxes are ``PolygonSet.cover_boxes`` (polar polygons reach the
    pole), a dateline-crossing box (xmin > xmax) split in two."""

    def __init__(self, polyset: PolygonSet):
        cover = polyset.cover_boxes()
        wrap = cover[:, 0] > cover[:, 2]
        # one box per polygon, two (east part first) for a dateline box
        self.box_owner = np.repeat(np.arange(len(cover), dtype=np.int64),
                                   1 + wrap)
        boxes = cover[self.box_owner]
        west = np.zeros(len(boxes), dtype=bool)
        west[1:] = self.box_owner[1:] == self.box_owner[:-1]
        boxes[wrap[self.box_owner] & ~west, 2] = 180.0
        boxes[west, 0] = -180.0
        self.tree = STRtree(boxes)
        self.n_polys = len(polyset)

    def candidates(self, batch: pa.Table, lon, lat):
        """(point_idx, poly_idx) candidate pairs, point-major."""
        ok = ~(np.isnan(lon) | np.isnan(lat))
        pt_idx, box_idx = self.tree.query_points(
            np.where(ok, lon, 1e9), np.where(ok, lat, 1e9))
        poly_idx = self.box_owner[box_idx]
        # a dateline poly contributes two boxes; dedup (point, poly)
        if len(pt_idx):
            key = pt_idx * (self.n_polys + 1) + poly_idx
            _, ui = np.unique(key, return_index=True)
            pt_idx, poly_idx = pt_idx[ui], poly_idx[ui]
        return pt_idx, poly_idx


def _prep(polyset: PolygonSet, prefilter):
    return ray.put({"polys": polyset, "prefilter": prefilter,
                    "rings": RingTable(polyset)})


def prep_polygons(polyset: PolygonSet, zoom: int = DEFAULT_ZOOM):
    """Join state with the cell-cover prefilter, put in the object store.

    Returns an ObjectRef; pass it (not the value) to PolyJoiner so each
    worker reads the same immutable copy from shared memory instead of
    re-shipping it per task.
    """
    return _prep(polyset, CellCover(polyset, zoom))


def prep_polygons_strtree(polyset: PolygonSet):
    """Join state with the STR bbox-tree prefilter, put in the object
    store (see :func:`prep_polygons`)."""
    return _prep(polyset, BoxTree(polyset))


class PolyJoiner:
    """map_batches callable: inner/semi/tag point-in-polygon join.

    Parameters
    ----------
    prep_ref : ObjectRef from :func:`prep_polygons` or
               :func:`prep_polygons_strtree`
    mode : "inner"  -> one output row per (point, containing polygon)
           "semi"   -> input row passes through iff contained by >= 1
                       polygon (karta ``within_polygon`` subset semantics)
           "tag"    -> all rows pass through with poly_id (-1 if none;
                       first match by polygon order, for aggregation)
    """

    def __init__(self, prep_ref, mode: str = "inner", with_name: bool = True):
        prep = resolve(prep_ref)
        self.polys: PolygonSet = prep["polys"]
        self.prefilter = prep["prefilter"]
        self.rings: RingTable = prep["rings"]
        self.mode = mode
        self.with_name = with_name
        # vectorized poly_name lookup (take on a prebuilt arrow array,
        # not a per-output-row Python list comprehension)
        self.name_arr = pa.array(list(self.polys.name), pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy(zero_copy_only=False)
        lat = batch.column("lat").to_numpy(zero_copy_only=False)

        # exact test of every candidate pair at once
        pt_idx, poly_idx = self.prefilter.candidates(batch, lon, lat)
        hit = self.rings.contains(lon[pt_idx], lat[pt_idx], poly_idx)
        pts, pls = pt_idx[hit], poly_idx[hit]

        if self.mode == "semi":
            return batch.take(pa.array(np.unique(pts), pa.int64()))

        # pairs by (point order, poly order), for determinism
        o = np.lexsort((pls, pts))
        pts, pls = pts[o], pls[o]
        if self.mode == "tag":
            # first match by polygon order: each point's first pair
            tag = np.full(batch.num_rows, -1, dtype=np.int64)
            tagged, first = np.unique(pts, return_index=True)
            tag[tagged] = self.polys.poly_id[pls[first]]
            return batch.append_column("poly_id", pa.array(tag, pa.int64()))

        out = batch.take(pa.array(pts, pa.int64()))
        out = out.append_column(
            "poly_id", pa.array(self.polys.poly_id[pls], pa.int64()))
        if not self.with_name:
            return out
        return out.append_column(
            "poly_name", self.name_arr.take(pa.array(pls, pa.int64())))


def _join_batch(batch: pa.Table, *, prep_ref, mode: str,
                with_name: bool) -> pa.Table:
    return cached(PolyJoiner, prep_ref, mode, with_name)(batch)


def _map_join(points_ds, prep_ref, mode: str = "inner",
              with_name: bool = True):
    # the whole plan, its read included, shares this context
    return buffer_ahead(points_ds).map_batches(
        _join_batch, batch_format="pyarrow", batch_size=BATCH_SIZE,
        zero_copy_batch=True,
        fn_kwargs={"prep_ref": prep_ref, "mode": mode,
                   "with_name": with_name})


def pip_join(points_ds, polyset: PolygonSet, *, zoom: int = DEFAULT_ZOOM,
             mode: str = "inner", with_name: bool = True):
    """points Dataset (with lon/lat/cell_id columns) x PolygonSet ->
    joined Dataset, through the cell-cover prefilter.

    The polygon state is broadcast once with ray.put; each worker
    process builds its joiner from it once and reuses it across tasks."""
    return _map_join(points_ds, prep_polygons(polyset, zoom), mode,
                     with_name)


def pip_join_strtree(points_ds, polyset: PolygonSet):
    """points Dataset (with lon/lat columns) x PolygonSet -> joined
    Dataset, through the STR bbox-tree prefilter. Same rows as
    :func:`pip_join`."""
    return _map_join(points_ds, prep_polygons_strtree(polyset))
