"""Raster layers as Ray Datasets of tile records.

A raster layer is a Dataset with rows
``(grid_id, band, tile_i, tile_j, i0, j0, ny, nx, pt, pl, pny, pnx,
transform, values)`` — 256x256 float64 tiles (karta's CompressedBand
chunk size, karta/raster/band.py:249). ``i0/j0/ny/nx`` describe the
tile's own region; ``values`` is a (pny, pnx) block that may include a
halo of ``pt`` rows above / ``pl`` cols left (clamped at grid edges),
the distributed analogue of the reference's overlapping chunks
(``aschunks(overlap=...)``, karta/raster/grid.py:479-523).

Stages:
- ``tiles_from_grid`` / ``grid_from_tiles``: (de)tiling.
- ``stencil_stage``: per-tile numpy stencil over halo-padded tiles,
  trimming the halo on output — embarrassingly parallel map_batches.
- ``sample_points``: raster<-vector sampling join (broadcast grid).
- ``grid_bin_stage``: vector->raster binning (gridpoints semantics) via
  per-batch partial sums + tree combine.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..kernels import raster as RK
from ..state.worker import cached, resolve
from .agg import tree_sum

TILE = 256


def tiles_from_grid(values, transform, *, grid_id=0, band=0,
                    tile=TILE, overlap=0, dtype=None) -> pa.Table:
    """Split a (ny, nx) array into tile records (optionally with halo).

    The pixel dtype is PRESERVED in the records (a ``dtype`` column) —
    uint8 imagery ships 1 byte/px through the object store, not the 8
    bytes/px a forced float64 copy would cost (reference multi-dtype
    bands, karta/raster/_gdal.py:68-112). Pass ``dtype`` to re-encode.
    """
    values = np.asarray(values)
    if dtype is not None:
        values = values.astype(dtype)
    if values.dtype == object:
        values = values.astype(np.float64)
    gny, gnx = values.shape
    cols = {k: [] for k in ("grid_id", "band", "tile_i", "tile_j", "i0",
                            "j0", "ny", "nx", "pt", "pl", "pny", "pnx",
                            "transform", "values")}
    dtype_str = values.dtype.str
    for ti, i0 in enumerate(range(0, gny, tile)):
        for tj, j0 in enumerate(range(0, gnx, tile)):
            ny = min(tile, gny - i0)
            nx = min(tile, gnx - j0)
            ilo = max(0, i0 - overlap)
            ihi = min(gny, i0 + ny + overlap)
            jlo = max(0, j0 - overlap)
            jhi = min(gnx, j0 + nx + overlap)
            block = np.ascontiguousarray(values[ilo:ihi, jlo:jhi])
            cols["grid_id"].append(grid_id)
            cols["band"].append(band)
            cols["tile_i"].append(ti)
            cols["tile_j"].append(tj)
            cols["i0"].append(i0)
            cols["j0"].append(j0)
            cols["ny"].append(ny)
            cols["nx"].append(nx)
            cols["pt"].append(i0 - ilo)
            cols["pl"].append(j0 - jlo)
            cols["pny"].append(ihi - ilo)
            cols["pnx"].append(jhi - jlo)
            cols["transform"].append(list(transform))
            cols["values"].append(block.tobytes())
    return pa.table({
        **{k: pa.array(cols[k], pa.int64()) for k in
           ("grid_id", "band", "tile_i", "tile_j", "i0", "j0", "ny", "nx",
            "pt", "pl", "pny", "pnx")},
        "transform": pa.array(cols["transform"], pa.list_(pa.float64(), 6)),
        "values": pa.array(cols["values"], pa.binary()),
        "dtype": pa.array([dtype_str] * len(cols["values"]), pa.string()),
    })


def tiles_dataset(values, transform, **kw):
    import ray.data

    return ray.data.from_blocks([tiles_from_grid(values, transform, **kw)])


def merge_grids_stage(tile_datasets, weights=None, grid_origins=None,
                      nodata=np.nan):
    """Distributed raster mosaic (karta ``raster.merge`` semantics,
    grid.py:1141-1231) over tile-record Datasets of integer-translated
    grids: every non-nodata cell becomes a (I, J, w*v, w) row in GLOBAL
    cell coordinates, a tree combine sums per cell, and the weighted
    mean finalizes — the "groupby(tile-id) + weighted-mean combine"
    shape from SURVEY §2.5. Weights are normalized like the kernel
    (w * n / sum(w)). Returns rows (I, J, value).

    ``grid_origins``: list of (di, dj) integer cell offsets of each
    grid's origin in the global frame (from the integer-translation
    check); defaults to all (0, 0).
    """
    n = len(tile_datasets)
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=np.float64)
    weights = weights * len(weights) / weights.sum()
    if grid_origins is None:
        grid_origins = [(0, 0)] * n

    def rows_fn(w, di, dj):
        def fn(batch: pa.Table) -> pa.Table:
            out_i = []
            out_j = []
            out_v = []
            for r in range(batch.num_rows):
                i0 = batch.column("i0")[r].as_py()
                j0 = batch.column("j0")[r].as_py()
                ny = batch.column("ny")[r].as_py()
                nx = batch.column("nx")[r].as_py()
                pt = batch.column("pt")[r].as_py()
                pl = batch.column("pl")[r].as_py()
                block = _block(batch, r)[pt:pt + ny, pl:pl + nx]
                # mask BEFORE the float cast: integer tiles use their
                # per-dtype NODATA sentinel (or an explicit ``nodata``)
                if block.dtype.kind == "f":
                    ok = (~np.isnan(block) if np.isnan(nodata)
                          else block != nodata)
                else:
                    sentinel = (RK.get_nodata(block.dtype)
                                if np.isnan(nodata) else nodata)
                    ok = block != sentinel
                vals = block.astype(np.float64, copy=False)
                jj, ii = np.meshgrid(np.arange(nx) + j0 + dj,
                                     np.arange(ny) + i0 + di)
                out_i.append(ii[ok].astype(np.int64))
                out_j.append(jj[ok].astype(np.int64))
                out_v.append(vals[ok])
            i = np.concatenate(out_i) if out_i else np.empty(0, np.int64)
            j = np.concatenate(out_j) if out_j else np.empty(0, np.int64)
            v = np.concatenate(out_v) if out_v else np.empty(0)
            return pa.table({
                "I": pa.array(i), "J": pa.array(j),
                "wv": pa.array(v * w, pa.float64()),
                "w": pa.array(np.full(len(v), w), pa.float64()),
            })
        return fn

    parts = None
    for ds, w, (di, dj) in zip(tile_datasets, weights, grid_origins):
        rows = ds.map_batches(rows_fn(float(w), int(di), int(dj)),
                              batch_format="pyarrow")
        parts = rows if parts is None else parts.union(rows)
    agg = tree_sum(parts, ["I", "J"], ["wv", "w"])

    def finalize(batch: pa.Table) -> pa.Table:
        wv = batch.column("wv").to_numpy()
        w = batch.column("w").to_numpy()
        return pa.table({
            "I": batch.column("I"), "J": batch.column("J"),
            "value": pa.array(wv / np.maximum(w, 1e-300), pa.float64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def write_tiles_parquet(tiles_ds, path: str):
    """Persist a tile-record Dataset as partitioned parquet — the
    engine's GeoTiff replacement (no GDAL in env): dtype-preserving,
    resumable (one file per block), round-trippable via
    :func:`read_tiles_parquet`."""
    tiles_ds.write_parquet(path)


def read_tiles_parquet(path: str):
    import ray.data

    return ray.data.read_parquet(path)


def _set_dtype_col(table: pa.Table, dtype_str: str) -> pa.Table:
    if "dtype" not in table.column_names:
        return table
    return table.set_column(
        table.schema.get_field_index("dtype"), "dtype",
        pa.array([dtype_str] * table.num_rows, pa.string()))


def _block(batch: pa.Table, r: int) -> np.ndarray:
    pny = batch.column("pny")[r].as_py()
    pnx = batch.column("pnx")[r].as_py()
    dt = (batch.column("dtype")[r].as_py()
          if "dtype" in batch.column_names else "<f8")
    return np.frombuffer(batch.column("values")[r].as_py(),
                         dtype=np.dtype(dt)).reshape(pny, pnx)


def grid_from_tiles(table: pa.Table, shape=None):
    """Reassemble (values, transform), trimming halos."""
    i0 = table.column("i0").to_numpy()
    j0 = table.column("j0").to_numpy()
    ny = table.column("ny").to_numpy()
    nx = table.column("nx").to_numpy()
    pt = table.column("pt").to_numpy()
    pl = table.column("pl").to_numpy()
    if shape is None:
        shape = (int((i0 + ny).max()), int((j0 + nx).max()))
    dt = np.dtype(table.column("dtype")[0].as_py()
                  if "dtype" in table.column_names and table.num_rows
                  else "<f8")
    out = np.full(shape, RK.get_nodata(dt), dtype=dt)
    transform = None
    for r in range(table.num_rows):
        transform = tuple(table.column("transform")[r].as_py())
        block = _block(table, r)
        own = block[pt[r]:pt[r] + ny[r], pl[r]:pl[r] + nx[r]]
        out[i0[r]:i0[r] + ny[r], j0[r]:j0[r] + nx[r]] = own
    return out, transform


def stencil_stage(tiles_ds, kernel: str, *, res=(1.0, 1.0),
                  **kernel_kwargs):
    """Apply a named stencil kernel per halo-padded tile; the output
    tiles are trimmed to their own region (pt = pl = 0), so grid-edge
    padding semantics come only from true grid edges. Create the input
    tiles with ``overlap`` >= the stencil's reach (1)."""
    fn = {"slope": RK.slope, "aspect": RK.aspect,
          "hillshade": RK.hillshade}[kernel]

    def apply(batch: pa.Table) -> pa.Table:
        vals = []
        for r in range(batch.num_rows):
            ny = batch.column("ny")[r].as_py()
            nx = batch.column("nx")[r].as_py()
            pt = batch.column("pt")[r].as_py()
            pl = batch.column("pl")[r].as_py()
            block = _block(batch, r)
            result = fn(block, res=res, **kernel_kwargs)
            own = np.ascontiguousarray(
                result[pt:pt + ny, pl:pl + nx].astype(np.float64,
                                                      copy=False))
            vals.append(own.tobytes())
        out = batch.set_column(batch.schema.get_field_index("values"),
                               "values", pa.array(vals, pa.binary()))
        zeros = pa.array(np.zeros(batch.num_rows, dtype=np.int64))
        out = out.set_column(out.schema.get_field_index("pt"), "pt", zeros)
        out = out.set_column(out.schema.get_field_index("pl"), "pl", zeros)
        out = out.set_column(out.schema.get_field_index("pny"), "pny",
                             out.column("ny"))
        out = out.set_column(out.schema.get_field_index("pnx"), "pnx",
                             out.column("nx"))
        return _set_dtype_col(out, "<f8")

    return tiles_ds.map_batches(apply, batch_format="pyarrow",
                                zero_copy_batch=True)


def apply_stage(tiles_ds, func):
    """karta ``Grid.apply`` (grid.py:54-78): element-wise numpy UDF over
    every tile — no halo needed, embarrassingly parallel."""
    def apply(batch: pa.Table) -> pa.Table:
        vals = []
        for r in range(batch.num_rows):
            block = _block(batch, r)
            vals.append(np.ascontiguousarray(
                func(block).astype(np.float64)).tobytes())
        out = batch.set_column(batch.schema.get_field_index("values"),
                               "values", pa.array(vals, pa.binary()))
        return _set_dtype_col(out, "<f8")

    return tiles_ds.map_batches(apply, batch_format="pyarrow",
                                zero_copy_batch=True)


class GridSampler:
    """map_batches stage sampling a broadcast grid at point rows."""

    def __init__(self, grid_ref, mode: str = "bilinear",
                 x_col: str = "lon", y_col: str = "lat",
                 out_col: str = "value"):
        g = resolve(grid_ref)
        self.values = g["values"]
        self.transform = g["transform"]
        self.nodata = g.get("nodata", np.nan)
        self.mode = mode
        self.x_col = x_col
        self.y_col = y_col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column(self.x_col).to_numpy(zero_copy_only=False)
        y = batch.column(self.y_col).to_numpy(zero_copy_only=False)
        if self.mode == "nearest":
            v = RK.sample_nearest(self.transform, self.values, x, y,
                                  self.nodata)
        else:
            v = RK.sample_bilinear(self.transform, self.values, x, y,
                                   self.nodata)
        return batch.append_column(self.out_col, pa.array(v, pa.float64()))


def synthetic_tiles(shape, transform, value_fn, *, tile=TILE, overlap=0):
    """Deterministic synthetic raster as a DISTRIBUTED tile-record
    Dataset: each task materializes its tiles from (tile_i, tile_j) and
    a global-index ``value_fn(ii, jj)`` — no driver-side grid array
    ever exists, so the pattern holds for rasters far beyond driver
    memory."""
    import ray.data

    m, n = shape
    nti = -(-m // tile)
    ntj = -(-n // tile)

    def make(batch: pa.Table) -> pa.Table:
        tabs = []
        for tid in batch.column("id").to_pylist():
            ti, tj = divmod(tid, ntj)
            i0, j0 = ti * tile, tj * tile
            ny, nx = min(tile, m - i0), min(tile, n - j0)
            ilo, ihi = max(0, i0 - overlap), min(m, i0 + ny + overlap)
            jlo, jhi = max(0, j0 - overlap), min(n, j0 + nx + overlap)
            jj, ii = np.meshgrid(np.arange(jlo, jhi, dtype=np.int64),
                                 np.arange(ilo, ihi, dtype=np.int64))
            block = np.ascontiguousarray(
                value_fn(ii, jj).astype(np.float64))
            tabs.append(pa.table({
                "grid_id": pa.array([0], pa.int64()),
                "band": pa.array([0], pa.int64()),
                "tile_i": pa.array([ti], pa.int64()),
                "tile_j": pa.array([tj], pa.int64()),
                "i0": pa.array([i0], pa.int64()),
                "j0": pa.array([j0], pa.int64()),
                "ny": pa.array([ny], pa.int64()),
                "nx": pa.array([nx], pa.int64()),
                "pt": pa.array([i0 - ilo], pa.int64()),
                "pl": pa.array([j0 - jlo], pa.int64()),
                "pny": pa.array([ihi - ilo], pa.int64()),
                "pnx": pa.array([jhi - jlo], pa.int64()),
                "transform": pa.array([list(transform)],
                                      pa.list_(pa.float64(), 6)),
                "values": pa.array([block.tobytes()], pa.binary()),
                "dtype": pa.array([block.dtype.str], pa.string()),
            }))
        return pa.concat_tables(tabs)

    return ray.data.range(nti * ntj).map_batches(
        make, batch_format="pyarrow")


def tile_sample_stage(points_ds, tiles_ds, *, transform, shape,
                      tile=TILE, mode="bilinear", x_col="x", y_col="y",
                      keep_cols=(), out_col="value"):
    """Raster<-vector sampling join for rasters held as TILE-RECORD
    Datasets — the scale path when the grid is too big for
    :func:`sample_points`' single ``ray.put`` broadcast.

    Each point is routed to the one tile whose padded block contains
    its whole sampling support (nearest: the banker's-rounded cell;
    bilinear: the 2x2 ``_lohi`` bracket — create the tiles with
    ``overlap >= 1``), then ONE sorted co-shuffle groups every tile
    with its points and samples block-locally with arithmetic
    bit-identical to the broadcast kernels (global float indices,
    integer offsets into the local block). Points whose support leaves
    the grid are dropped (the broadcast path's nodata rows). Hot tiles
    (dense point clusters straddling sorted blocks) split across
    sharded sub-residues — the tile row replicates, its points spread
    (:func:`..stages.agg.side_residue_sharder`).

    Reference semantics: karta ``Grid.sample`` / ``Grid.profile``
    (karta/raster/grid.py:971-1064, crfuncs.pyx:48-157).

    ``tiles_ds`` must hold ONE raster layer (single grid_id/band):
    routing keys on (tile_i, tile_j) only — to sample several layers,
    call once per layer (the point side re-streams; the tile side is
    layer-sized anyway).

    Returns ``keep_cols + [x_col, y_col, out_col]`` with ``out_col``
    float64.
    """
    from .agg import side_residue_sharder, sorted_map_groups

    m, n = shape
    ntj = -(-n // tile)
    keep_cols = list(keep_cols)
    pts_schema = points_ds.schema().base_schema
    keep_types = {c: pts_schema.field(c).type for c in keep_cols}
    pt_cols = keep_cols + [x_col, y_col]
    tile_int_cols = ("i0", "j0", "ny", "nx", "pt", "pl", "pny", "pnx")

    def tag_points(batch: pa.Table) -> pa.Table:
        x = batch.column(x_col).to_numpy(zero_copy_only=False)
        y = batch.column(y_col).to_numpy(zero_copy_only=False)
        I, J = RK.positions(transform, x, y)
        if mode == "nearest":
            i = np.round(I).astype(np.int64)
            j = np.round(J).astype(np.int64)
            ok = (i >= 0) & (i < m) & (j >= 0) & (j < n)
        else:
            i, i1 = RK._lohi(I)
            j, j1 = RK._lohi(J)
            ok = (i >= 0) & (i1 < m) & (j >= 0) & (j1 < n)
        t = batch.filter(pa.array(ok)).select(pt_cols)
        tkey = (i[ok] // tile) * ntj + (j[ok] // tile)
        nr = t.num_rows
        cols = {"tkey": pa.array(tkey), "side": pa.array(
            np.ones(nr, dtype=np.int8))}
        for c in pt_cols:
            cols[c] = t.column(c)
        for c in tile_int_cols:
            cols[c] = pa.nulls(nr, pa.int64())
        cols["values"] = pa.nulls(nr, pa.binary())
        cols["dtype"] = pa.nulls(nr, pa.string())
        return pa.table(cols)

    def tag_tiles(batch: pa.Table) -> pa.Table:
        nr = batch.num_rows
        tkey = (batch.column("tile_i").to_numpy() * ntj
                + batch.column("tile_j").to_numpy())
        cols = {"tkey": pa.array(tkey.astype(np.int64)),
                "side": pa.array(np.zeros(nr, dtype=np.int8))}
        for c in keep_cols:
            cols[c] = pa.nulls(nr, keep_types[c])
        cols[x_col] = pa.nulls(nr, pa.float64())
        cols[y_col] = pa.nulls(nr, pa.float64())
        for c in tile_int_cols:
            cols[c] = batch.column(c)
        cols["values"] = batch.column("values")
        cols["dtype"] = (batch.column("dtype")
                         if "dtype" in batch.column_names
                         else pa.array(["<f8"] * nr, pa.string()))
        return pa.table(cols)

    both = (tiles_ds.map_batches(tag_tiles, batch_format="pyarrow",
                                 zero_copy_batch=True)
            .union(points_ds.map_batches(tag_points,
                                         batch_format="pyarrow",
                                         zero_copy_batch=True)))

    def sample_groups(batch: pa.Table) -> pa.Table:
        from .agg import group_runs

        empty = pa.table(
            {c: pa.nulls(0, keep_types[c]) for c in keep_cols}
            | {x_col: pa.nulls(0, pa.float64()),
               y_col: pa.nulls(0, pa.float64()),
               out_col: pa.nulls(0, pa.float64())})
        if batch.num_rows == 0:
            return empty
        starts, ends = group_runs(batch, ["tkey"])
        side = batch.column("side").to_numpy(zero_copy_only=False)
        outs = [empty]
        for s, e in zip(starts, ends):
            rs = side[s:e]
            ti = np.flatnonzero(rs == 0)
            pi = np.flatnonzero(rs == 1)
            if len(ti) == 0 or len(pi) == 0:
                continue
            r = int(ti[0]) + s               # residue replicas identical
            blk = _block(batch, r).astype(np.float64, copy=False)
            oi = (batch.column("i0")[r].as_py()
                  - batch.column("pt")[r].as_py())
            oj = (batch.column("j0")[r].as_py()
                  - batch.column("pl")[r].as_py())
            pts = batch.slice(s, e - s).filter(
                pa.array(rs == 1)).select(pt_cols)
            x = pts.column(x_col).to_numpy()
            y = pts.column(y_col).to_numpy()
            I, J = RK.positions(transform, x, y)
            if mode == "nearest":
                i = np.round(I).astype(np.int64)
                j = np.round(J).astype(np.int64)
                v = blk[i - oi, j - oj]
            else:
                i0, i1 = RK._lohi(I)
                j0, j1 = RK._lohi(J)
                z00 = blk[i0 - oi, j0 - oj]
                z10 = blk[i1 - oi, j0 - oj]
                z01 = blk[i0 - oi, j1 - oj]
                z11 = blk[i1 - oi, j1 - oj]
                v = (z00 * (i1 - I) * (j1 - J)
                     + z10 * (I - i0) * (j1 - J)
                     + z01 * (i1 - I) * (J - j0)
                     + z11 * (I - i0) * (J - j0))
            outs.append(pts.append_column(
                out_col, pa.array(v.astype(np.float64), pa.float64())))
        return pa.concat_tables(outs)

    return sorted_map_groups(
        both, ["tkey"], sample_groups, sort_keys=["tkey", "side"],
        residue_sharder=side_residue_sharder(["tkey"]))


def regrid_tiles_stage(tiles_ds, *, transform, shape, new_dx, new_dy,
                       method="nearest"):
    """Regular-grid resample (karta ``Grid.resample``,
    grid.py:724-760) as an embarrassingly parallel per-tile map — the
    regular-output specialization of :func:`tile_sample_stage`.

    A regular output grid's pixel -> source-tile map is analytic, so
    each tile emits exactly the output pixels whose sampling support it
    OWNS (nearest: the banker's-rounded source cell; bilinear: the
    ``_lohi`` low corner, needing ``overlap >= 1`` tiles): no pixel is
    emitted twice and NO shuffle happens at all. Arbitrary
    (non-gridded) point sets still need the co-shuffle join. Sampling
    arithmetic is bit-identical to the broadcast kernels (global float
    indices via ``positions``, integer offsets into the local block).

    Axis-aligned source only (``sx == sy == 0``); the reference keeps
    shear through resample, which the shuffle path supports. Like
    :func:`tile_sample_stage`, ``tiles_ds`` must hold one raster layer.

    Returns rows (gi, gj, value) with value float64.
    """
    x0g, y0g, dx, dy, sx, sy = transform
    if sx != 0.0 or sy != 0.0:
        raise ValueError("regrid_tiles_stage needs an axis-aligned "
                         "source; use tile_sample_stage for shear")
    m, n = shape
    ny_new = int(m * dy / new_dy)
    nx_new = int(n * dx / new_dx)
    new_t = (x0g, y0g, new_dx, new_dy, sx, sy)

    # global 1-D index maps (separable because shear is zero); the
    # positions() call keeps the float-op order identical to the
    # point-sampling paths. Broadcast ONCE via ray.put (a 10^7-pixel
    # axis is an 80 MB map — shipped per task through closure capture
    # it would re-serialize with every tile task) and read zero-copy
    # from the object store.
    gi_all = np.arange(ny_new, dtype=np.int64)
    gj_all = np.arange(nx_new, dtype=np.int64)
    x_all, _ = RK.world_coords(new_t, np.zeros(nx_new), gj_all)
    _, y_all = RK.world_coords(new_t, gi_all, np.zeros(ny_new))
    I_all = RK.positions(transform, np.full(ny_new, x0g), y_all)[0]
    J_all = RK.positions(transform, x_all, np.full(nx_new, y0g))[1]
    if method == "nearest":
        si_all = np.round(I_all).astype(np.int64)
        sj_all = np.round(J_all).astype(np.int64)
    else:
        si_all = RK._lohi(I_all)[0]
        sj_all = RK._lohi(J_all)[0]
    maps_ref = ray.put({"gi": gi_all, "gj": gj_all, "I": I_all,
                        "J": J_all, "si": si_all, "sj": sj_all})

    def emit(batch: pa.Table) -> pa.Table:
        maps = resolve(maps_ref)
        gi_all, gj_all = maps["gi"], maps["gj"]
        I_all, J_all = maps["I"], maps["J"]
        si_all, sj_all = maps["si"], maps["sj"]
        outs = [pa.table({"gi": pa.array([], pa.int64()),
                          "gj": pa.array([], pa.int64()),
                          "value": pa.array([], pa.float64())})]
        for r in range(batch.num_rows):
            i0 = batch.column("i0")[r].as_py()
            j0 = batch.column("j0")[r].as_py()
            tny = batch.column("ny")[r].as_py()
            tnx = batch.column("nx")[r].as_py()
            oi = i0 - batch.column("pt")[r].as_py()
            oj = j0 - batch.column("pl")[r].as_py()
            gi = gi_all[(si_all >= i0) & (si_all < i0 + tny)]
            gj = gj_all[(sj_all >= j0) & (sj_all < j0 + tnx)]
            if method == "bilinear":
                # the high corner must also be in bounds globally
                gi = gi[si_all[gi] + 1 < m]
                gj = gj[sj_all[gj] + 1 < n]
            if len(gi) == 0 or len(gj) == 0:
                continue
            blk = _block(batch, r).astype(np.float64, copy=False)
            if method == "nearest":
                v = blk[np.ix_(si_all[gi] - oi, sj_all[gj] - oj)]
            else:
                I = I_all[gi][:, None]
                J = J_all[gj][None, :]
                i0f = si_all[gi][:, None]
                j0f = sj_all[gj][None, :]
                z00 = blk[np.ix_(si_all[gi] - oi, sj_all[gj] - oj)]
                z10 = blk[np.ix_(si_all[gi] + 1 - oi, sj_all[gj] - oj)]
                z01 = blk[np.ix_(si_all[gi] - oi, sj_all[gj] + 1 - oj)]
                z11 = blk[np.ix_(si_all[gi] + 1 - oi,
                                 sj_all[gj] + 1 - oj)]
                v = (z00 * (i0f + 1 - I) * (j0f + 1 - J)
                     + z10 * (I - i0f) * (j0f + 1 - J)
                     + z01 * (i0f + 1 - I) * (J - j0f)
                     + z11 * (I - i0f) * (J - j0f))
            gg, ii = np.meshgrid(gj, gi)
            outs.append(pa.table({
                "gi": pa.array(ii.ravel()),
                "gj": pa.array(gg.ravel()),
                "value": pa.array(v.ravel(), pa.float64())}))
        return pa.concat_tables(outs)

    return tiles_ds.map_batches(emit, batch_format="pyarrow",
                                zero_copy_batch=True)


def sample_points(points_ds, values, transform, *, mode="bilinear",
                  nodata=np.nan, x_col="lon", y_col="lat"):
    """Raster<-vector sampling join: broadcast the grid once, sample per
    batch (karta ``Grid.sample``, grid.py:971-1033)."""
    ref = ray.put({"values": np.asarray(values, dtype=np.float64),
                   "transform": tuple(transform), "nodata": nodata})

    # task-based; the sampler is built once per worker process
    # (state/worker.py)
    def fn(batch: pa.Table) -> pa.Table:
        return cached(GridSampler, ref, mode, x_col, y_col)(batch)

    return points_ds.map_batches(fn, batch_format="pyarrow",
                                 zero_copy_batch=True)


def profile_stage(line_verts, dx, values, transform, crs, *, mode="bilinear"):
    """karta ``Grid.profile`` (grid.py:1035-1064): resample the line at
    spacing dx, then sample the grid at the points. Returns an Arrow
    table (x, y, value)."""
    from ..kernels.lines import to_points

    pts = to_points(line_verts, dx, crs)
    v = (RK.sample_bilinear(transform, values, pts[:, 0], pts[:, 1])
         if mode == "bilinear" else
         RK.sample_nearest(transform, values, pts[:, 0], pts[:, 1]))
    return pa.table({"x": pa.array(pts[:, 0]), "y": pa.array(pts[:, 1]),
                     "value": pa.array(v)})


def grid_bin_stage(points_ds, transform, shape, *, x_col="lon",
                   y_col="lat", z_col="value"):
    """Distributed gridpoints: per-batch partial (sum, count) per cell ->
    tree combine -> mean finalize. Returns Dataset (gi, gj, n, mean)."""
    def partial(batch: pa.Table) -> pa.Table:
        x = batch.column(x_col).to_numpy(zero_copy_only=False)
        y = batch.column(y_col).to_numpy(zero_copy_only=False)
        z = batch.column(z_col).to_numpy(zero_copy_only=False)
        I, J = RK.positions(transform, x, y)
        i = np.round(I).astype(np.int64)
        j = np.round(J).astype(np.int64)
        ok = (i >= 0) & (i < shape[0]) & (j >= 0) & (j < shape[1])
        t = pa.table({"gi": pa.array(i[ok]), "gj": pa.array(j[ok]),
                      "zsum": pa.array(z[ok].astype(np.float64)),
                      "n": pa.array(np.ones(int(ok.sum()), dtype=np.int64))})
        g = t.group_by(["gi", "gj"]).aggregate([("zsum", "sum"), ("n", "sum")])
        return g.rename_columns(["gi", "gj", "zsum", "n"])

    part = points_ds.map_batches(partial, batch_format="pyarrow")
    agg = tree_sum(part, ["gi", "gj"], ["zsum", "n"])

    def finalize(batch: pa.Table) -> pa.Table:
        zs = batch.column("zsum").to_numpy()
        n = batch.column("n").to_numpy()
        return pa.table({"gi": batch.column("gi"), "gj": batch.column("gj"),
                         "n": batch.column("n"),
                         "mean": pa.array(zs / n, pa.float64())})

    return agg.map_batches(finalize, batch_format="pyarrow")
