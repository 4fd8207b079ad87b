"""k-nearest-neighbor join: per-cell candidate probes with boundary-cell
ring expansion.

Distributed analogue of the reference's quadtree nearest queries
(karta/vector/geometry.py:1349-1377, 576-591): the right-hand point set
is indexed by Web-Mercator cell (sorted arrays, broadcast once via
ray.put); each left batch groups its points by cell and expands a ring
of neighbor tiles until (a) at least k candidates are found and (b) the
k-th nearest distance is provably smaller than the distance to any
unexplored tile — the exactness bound uses the spherical distance from
the query tile to the explored bbox boundary (meridian arc for the
north/south edges, exact point-to-meridian distance for east/west).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..kernels import geodesy, tiles
from ..state.worker import cached, resolve

D2R = np.pi / 180.0


def _dist_sphere(lon0, lat0, lon1, lat1):
    """Law-of-cosines spherical distance (meters, SPHERE_RADIUS)."""
    c = (np.sin(lat0 * D2R) * np.sin(lat1 * D2R)
         + np.cos(lat0 * D2R) * np.cos(lat1 * D2R)
         * np.cos(lon1 * D2R - lon0 * D2R))
    return geodesy.SPHERE_RADIUS * np.arccos(np.clip(c, -1.0, 1.0))


class RightIndex:
    """Cell-sorted point index for the broadcast (small) join side."""

    def __init__(self, ids, lon, lat, zoom: int):
        ids = np.asarray(ids, dtype=np.int64)
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        cell = tiles.cell_id(lon, lat, zoom)
        order = np.argsort(cell, kind="stable")
        self.zoom = zoom
        self.cell = cell[order]
        self.ids = ids[order]
        self.lon = lon[order]
        self.lat = lat[order]
        self.uniq_cells, self.starts = np.unique(self.cell, return_index=True)
        self.bounds = np.append(self.starts, len(self.cell))

    def candidates_in_cells(self, cells: np.ndarray) -> np.ndarray:
        """Indices of right points in any of the given cells."""
        pos = np.searchsorted(self.uniq_cells, cells)
        pos_c = np.minimum(pos, len(self.uniq_cells) - 1)
        ok = (len(self.uniq_cells) > 0) & (self.uniq_cells[pos_c] == cells)
        out = []
        for p in pos_c[ok]:
            out.append(np.arange(self.bounds[p], self.bounds[p + 1]))
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(out)


def _tile_ring_cells(z, x, y, ring):
    """Cells exactly at ring distance `ring` (the new frontier)."""
    n = np.int64(1) << np.int64(z)
    cells = []
    if ring == 0:
        return np.asarray([tiles.pack_cell(np.int64(z), np.int64(x), np.int64(y))])
    for dx in range(-ring, ring + 1):
        for dy in (-ring, ring):
            yy = y + dy
            if 0 <= yy < n:
                cells.append((int((x + dx) % n), int(yy)))
    for dy in range(-ring + 1, ring):
        for dx in (-ring, ring):
            yy = y + dy
            if 0 <= yy < n:
                cells.append((int((x + dx) % n), int(yy)))
    if not cells:
        return np.empty(0, dtype=np.int64)
    cells = sorted(set(cells))
    xs = np.asarray([c[0] for c in cells], dtype=np.int64)
    ys = np.asarray([c[1] for c in cells], dtype=np.int64)
    return tiles.pack_cell(np.full(len(xs), z, dtype=np.int64), xs, ys)


def _explored_bound_m(z, x, y, ring, qlon, qlat):
    """Lower bound (meters) on the distance from query points inside tile
    (z, x, y) to anything OUTSIDE the (2*ring+1)^2 explored tile block."""
    n = 1 << int(z)
    xmin, ymin, xmax, ymax = tiles.tile_bbox(
        np.int64(z), np.int64(x), np.int64(y))
    # explored lon span and lat span (clamped at poles)
    lon_w = float(xmin) - ring * 360.0 / n
    lon_e = float(xmax) + ring * 360.0 / n
    y_top = max(int(y) - ring, 0)
    y_bot = min(int(y) + ring, n - 1)
    _, lat_n = tiles.tile_nw_corner(np.int64(z), np.int64(x), np.int64(y_top))
    _, lat_s = tiles.tile_nw_corner(np.int64(z), np.int64(x), np.int64(y_bot + 1))
    R = geodesy.SPHERE_RADIUS

    if lon_e - lon_w >= 360.0:
        d_we = np.full_like(qlon, np.inf)
    else:
        dlon_w = np.abs(qlon - lon_w) * D2R
        dlon_e = np.abs(lon_e - qlon) * D2R
        d_w = R * np.arcsin(np.clip(np.cos(qlat * D2R) * np.sin(np.minimum(dlon_w, np.pi / 2)), -1, 1))
        d_e = R * np.arcsin(np.clip(np.cos(qlat * D2R) * np.sin(np.minimum(dlon_e, np.pi / 2)), -1, 1))
        d_we = np.minimum(d_w, d_e)
    # Edge rows are terminal: cell_id clamps y into [0, n-1], so every
    # point poleward of the Mercator band lives IN row 0 / row n-1 —
    # once the ring covers the edge row there is nothing beyond it, and
    # any unexplored point in an interior row is at least the nominal
    # row-boundary distance away (points clamped into an edge row are
    # geographically beyond that row's boundary, i.e. even farther).
    d_n = (np.inf if y_top == 0 else R * np.abs(float(lat_n) - qlat) * D2R)
    d_s = (np.inf if y_bot == n - 1 else R * np.abs(qlat - float(lat_s)) * D2R)
    return np.minimum(d_we, np.minimum(d_n, d_s))


class KnnJoiner:
    """map_batches stage: for each left row (lon/lat/cell_id), emit k
    rows (left cols + neighbor_id + rank), exact by ring expansion."""

    def __init__(self, index_ref, k: int, max_ring: int | None = None):
        self.index: RightIndex = resolve(index_ref)
        self.k = k
        self.max_ring = max_ring or (1 << self.index.zoom)

    def _knn_group(self, qlon, qlat, z, x, y):
        """Exact kNN for query points sharing one tile."""
        idx = self.index
        cand = []
        ring = 0
        while True:
            cells = _tile_ring_cells(z, x, y, ring)
            new = idx.candidates_in_cells(cells)
            if len(new):
                cand.append(new)
            ncand = sum(len(c) for c in cand)
            if ncand >= self.k or ring >= self.max_ring:
                bound = _explored_bound_m(z, x, y, ring, qlon, qlat)
                if ncand >= self.k:
                    call = np.concatenate(cand)
                    d = _dist_sphere(qlon[:, None], qlat[:, None],
                                     idx.lon[call][None, :], idx.lat[call][None, :])
                    kth = np.partition(d, self.k - 1, axis=1)[:, self.k - 1]
                    if (kth <= bound).all() or ring >= self.max_ring:
                        break
                elif ring >= self.max_ring:
                    break
            ring += 1
        call = np.concatenate(cand) if cand else np.empty(0, dtype=np.int64)
        if len(call) == 0:
            e = np.empty((len(qlon), 0), dtype=np.int64)
            return e, np.empty((len(qlon), 0))
        d = _dist_sphere(qlon[:, None], qlat[:, None],
                         idx.lon[call][None, :], idx.lat[call][None, :])
        kk = min(self.k, len(call))
        # deterministic order: distance, then right id
        order = np.lexsort((idx.ids[call][None, :].repeat(len(qlon), 0), d), axis=1)[:, :kk]
        picked = call[order]
        dist = np.take_along_axis(d, order, axis=1)
        return idx.ids[picked], dist

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy(zero_copy_only=False)
        lat = batch.column("lat").to_numpy(zero_copy_only=False)
        cells = batch.column("cell_id").to_numpy(zero_copy_only=False)

        order = np.argsort(cells, kind="stable")
        uniq, starts = np.unique(cells[order], return_index=True)
        bnds = np.append(starts, len(cells))

        row_idx = []
        nbr_ids = []
        nbr_rank = []
        nbr_dist = []
        for i, cell in enumerate(uniq):
            rows = order[bnds[i]:bnds[i + 1]]
            if cell < 0:
                continue
            z, x, y = (int(v) for v in tiles.unpack_cell(np.int64(cell)))
            ids, dist = self._knn_group(lon[rows], lat[rows], z, x, y)
            kk = ids.shape[1]
            if kk == 0:
                continue
            row_idx.append(np.repeat(rows, kk))
            nbr_ids.append(ids.ravel())
            nbr_rank.append(np.tile(np.arange(1, kk + 1, dtype=np.int64), len(rows)))
            nbr_dist.append(dist.ravel())

        if not row_idx:
            out = batch.slice(0, 0)
            out = out.append_column("neighbor_id", pa.array([], pa.int64()))
            out = out.append_column("rank", pa.array([], pa.int64()))
            return out.append_column("dist_m", pa.array([], pa.float64()))
        ri = np.concatenate(row_idx)
        out = batch.take(pa.array(ri, pa.int64()))
        out = out.append_column("neighbor_id", pa.array(np.concatenate(nbr_ids), pa.int64()))
        out = out.append_column("rank", pa.array(np.concatenate(nbr_rank), pa.int64()))
        return out.append_column("dist_m", pa.array(np.concatenate(nbr_dist), pa.float64()))


def knn_join(left_ds, right_index: RightIndex, k: int, *,
             batch_size: int = 8192):
    """left Dataset (lon/lat/cell_id) x broadcast RightIndex -> k rows
    per left row with (neighbor_id, rank, dist_m).

    Broadcast shape: right side must fit the object store. For big-big
    joins use :func:`knn_join_coshuffle`.
    """
    ref = ray.put(right_index)

    def fn(batch: pa.Table) -> pa.Table:
        return cached(KnnJoiner, ref, k)(batch)

    return left_ds.map_batches(fn, batch_format="pyarrow",
                               batch_size=batch_size, zero_copy_batch=True)


# max left rows per dense-distance tile inside a cell probe: caps the
# (tile x ncand) float64 matrix at ~8 MB per 1k candidates
_Q_TILE = 1024


def knn_join_coshuffle(left_ds, right_ds, k: int, *, zoom: int,
                       right_id_col: str = "right_id", ring: int = 1):
    """Big-big kNN join with NO broadcast side: right rows are
    replicated to their cell plus the ``ring`` of neighbor cells
    (boundary-cell replication), both sides co-shuffle on cell_id, and
    each cell group probes its local candidates.

    Exactness: a left row is resolved in-cell iff its k-th candidate
    distance is within the proven bound to unexplored tiles
    (_explored_bound_m). The unresolved residue (points near cell
    corners with sparse neighbors) is finished by a second, exact pass;
    choose ``zoom`` so cells are much wider than typical kNN radii and
    the residue is a vanishing fraction.

    left_ds columns: lon/lat/cell_id (+ payload). right_ds columns:
    right_id_col/lon/lat. Returns left payload + (neighbor_id, rank,
    dist_m).
    """
    import ray.data

    def replicate_right(batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy(zero_copy_only=False)
        lat = batch.column("lat").to_numpy(zero_copy_only=False)
        rid = batch.column(right_id_col).to_numpy(zero_copy_only=False)
        cells = tiles.cell_id(lon, lat, zoom)
        # rows without coordinates (cell sentinel -1) cannot be joined;
        # drop them before neighbor expansion (mirrors KnnJoiner's guard)
        ok = cells >= 0
        if not ok.all():
            lon, lat, rid, cells = lon[ok], lat[ok], rid[ok], cells[ok]
        nb = tiles.neighbor_cells(cells, ring=ring)  # (n, (2r+1)^2)
        reps = nb.shape[1]
        return pa.table({
            "cell_id": pa.array(nb.ravel(), pa.int64()),
            "rid": pa.array(np.repeat(rid, reps), pa.int64()),
            "rlon": pa.array(np.repeat(lon, reps), pa.float64()),
            "rlat": pa.array(np.repeat(lat, reps), pa.float64()),
            "role": pa.array(np.zeros(len(rid) * reps, dtype=np.int8)),
        })

    right_rows = right_ds.map_batches(replicate_right, batch_format="pyarrow")

    def left_rows_of(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "cell_id": batch.column("cell_id"),
            "rid": batch.column("left_id"),
            "rlon": batch.column("lon"),
            "rlat": batch.column("lat"),
            "role": pa.array(np.ones(n, dtype=np.int8)),
        })

    left_rows = left_ds.map_batches(left_rows_of, batch_format="pyarrow")
    both = right_rows.union(left_rows)

    def probe(group: pa.Table) -> pa.Table:
        empty = pa.table({"left_id": pa.array([], pa.int64()),
                          "neighbor_id": pa.array([], pa.int64()),
                          "rank": pa.array([], pa.int64()),
                          "dist_m": pa.array([], pa.float64()),
                          "resolved": pa.array([], pa.bool_())})
        # left rows without coordinates group under cell -1; they cannot
        # be joined (dropped, like KnnJoiner's cell<0 guard) — and
        # unpack_cell(-1) must never reach _explored_bound_m
        if int(group.column("cell_id")[0].as_py()) < 0:
            return empty
        role = group.column("role").to_numpy()
        lmask = role == 1
        if not lmask.any():
            return empty
        rid = group.column("rid").to_numpy()
        lon = group.column("rlon").to_numpy()
        lat = group.column("rlat").to_numpy()
        qid = rid[lmask]
        qlon = lon[lmask]
        qlat = lat[lmask]
        # candidates: replicated right rows in this cell, deduplicated
        cand_id = rid[~lmask]
        cand_lon = lon[~lmask]
        cand_lat = lat[~lmask]
        uniq, ui = np.unique(cand_id, return_index=True)
        cand_id, cand_lon, cand_lat = uniq, cand_lon[ui], cand_lat[ui]

        cell = int(group.column("cell_id")[0].as_py())
        z, x, y = (int(v) for v in tiles.unpack_cell(np.int64(cell)))
        bound = _explored_bound_m(z, x, y, ring, qlon, qlat)

        nq = len(qid)
        if len(cand_id) == 0:
            return pa.table({
                "left_id": pa.array(qid, pa.int64()),
                "neighbor_id": pa.array(np.full(nq, -1, dtype=np.int64)),
                "rank": pa.array(np.full(nq, -1, dtype=np.int64)),
                "dist_m": pa.array(np.full(nq, np.nan)),
                "resolved": pa.array(np.zeros(nq, dtype=bool)),
            })
        # query-tiled scoring: the dense distance matrix is bounded to
        # _Q_TILE x ncand regardless of how many LEFT rows land in a
        # hot cell (dense-city skew guard); ncand stays bounded by the
        # (2r+1)^2 replication of one cell's right population
        kk = min(k, len(cand_id))
        picked = np.empty((nq, kk), dtype=np.int64)
        dist = np.empty((nq, kk), dtype=np.float64)
        for s in range(0, nq, _Q_TILE):
            e = min(s + _Q_TILE, nq)
            d = _dist_sphere(qlon[s:e, None], qlat[s:e, None],
                             cand_lon[None, :], cand_lat[None, :])
            order = np.lexsort(
                (np.broadcast_to(cand_id, d.shape), d), axis=1)[:, :kk]
            picked[s:e] = cand_id[order]
            dist[s:e] = np.take_along_axis(d, order, axis=1)
        resolved = (len(cand_id) >= k) & (dist[:, kk - 1] <= bound)
        return pa.table({
            "left_id": pa.array(np.repeat(qid, kk), pa.int64()),
            "neighbor_id": pa.array(picked.ravel(), pa.int64()),
            "rank": pa.array(np.tile(np.arange(1, kk + 1, dtype=np.int64), nq)),
            "dist_m": pa.array(dist.ravel(), pa.float64()),
            "resolved": pa.array(np.repeat(resolved, kk)),
        })

    probed = both.groupby("cell_id").map_groups(
        probe, batch_format="pyarrow").materialize()

    def keep_resolved(batch: pa.Table) -> pa.Table:
        mask = batch.column("resolved").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(mask)).drop_columns(["resolved"])

    def keep_unresolved_ids(batch: pa.Table) -> pa.Table:
        mask = ~batch.column("resolved").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(mask)).select(["left_id"])

    resolved = probed.map_batches(keep_resolved, batch_format="pyarrow")
    # cheap early exit on the COMMON case (every query resolved in its
    # home ring): one map+reduce over the materialized probe blocks,
    # instead of paying a distinct-ids hash shuffle to learn "empty"
    n_unres = probed.map_batches(
        lambda b: pa.table({"nu": pa.array(
            [int((~b.column("resolved").to_numpy(
                zero_copy_only=False)).sum())], pa.int64())}),
        batch_format="pyarrow").sum("nu") or 0
    if n_unres == 0:
        return resolved
    unresolved = probed.map_batches(keep_unresolved_ids,
                                    batch_format="pyarrow")
    # distinct unresolved left ids (a left row appears once per rank)
    ids_ds = (unresolved.groupby("left_id").count()
              .select_columns(["left_id"]).materialize())

    # residue rounds: the unresolved rows are few by construction, so
    # invert the replication — the residue LEFT side fans out to an
    # expanding ring of cells while every right row stays in its own
    # cell (scanned once per round, never replicated). Distributed end
    # to end: the residue is selected with a hash semi-join, never
    # collected on the driver.
    # materialize: keeps at most ONE hash join per executed plan (chained
    # lazy joins can starve each other's aggregator actors for CPUs)
    # num_partitions=1: the residue is small by construction, and Ray's
    # hash join fails on empty (schema-less) partitions of tiny sides
    residue_left = left_ds.join(ids_ds, "inner", num_partitions=1,
                                on=("left_id",)).materialize()
    fixed = _knn_residue_rounds(residue_left, right_ds, k, zoom=zoom,
                                right_id_col=right_id_col,
                                start_ring=2 * ring + 1)
    return resolved.union(fixed)


def _knn_residue_rounds(residue_left, right_ds, k: int, *, zoom: int,
                        right_id_col: str, start_ring: int):
    """Exact kNN for a (small) residue left Dataset vs a big right
    Dataset, no broadcast: per round, each residue row visits the
    (2r+1)^2 cells around its home cell, right rows are grouped by their
    own cell, per-cell local top-k partials are merged per left row, and
    rows whose k-th distance beats the ring-r bound resolve. Unresolved
    rows go to the next round with r doubled; once r covers the whole
    grid every candidate has been seen and the result is exact by
    completeness."""
    import ray.data  # noqa: F401  (Dataset ops)

    n = 1 << zoom

    def right_rows_fn(batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy(zero_copy_only=False)
        lat = batch.column("lat").to_numpy(zero_copy_only=False)
        rid = batch.column(right_id_col).to_numpy(zero_copy_only=False)
        cells = tiles.cell_id(lon, lat, zoom)
        ok = cells >= 0
        return pa.table({
            "cell_id": pa.array(cells[ok], pa.int64()),
            "rid": pa.array(rid[ok], pa.int64()),
            "rlon": pa.array(lon[ok], pa.float64()),
            "rlat": pa.array(lat[ok], pa.float64()),
            "role": pa.array(np.zeros(int(ok.sum()), dtype=np.int8)),
        })

    right_rows = right_ds.map_batches(right_rows_fn, batch_format="pyarrow")

    out_parts = []
    cur = residue_left
    r = start_ring
    while True:
        # x wraps (needs 2r+1 >= n) and y clamps (needs r >= n-1 from an
        # edge row): r >= n-1 guarantees every cell is visited
        full_cover = r >= n - 1
        rr = r

        def visit_left(batch: pa.Table, *, rr=rr) -> pa.Table:
            lon = batch.column("lon").to_numpy(zero_copy_only=False)
            lat = batch.column("lat").to_numpy(zero_copy_only=False)
            lid = batch.column("left_id").to_numpy(zero_copy_only=False)
            home = batch.column("cell_id").to_numpy(zero_copy_only=False)
            ok = home >= 0
            lon, lat, lid, home = lon[ok], lat[ok], lid[ok], home[ok]
            # rings beyond n-1 add no new cells (x wraps, y clamps) but
            # would allocate (2r+1)^2 per row before dedup — clamp
            nb = tiles.neighbor_cells(home, ring=min(rr, n - 1))
            # visited cells can repeat after x-wrap / y-clamp; dedup per
            # row so a candidate is never scored twice
            flat_cells = []
            flat_idx = []
            for i in range(len(home)):
                u = np.unique(nb[i])
                flat_cells.append(u)
                flat_idx.append(np.full(len(u), i, dtype=np.int64))
            cells = (np.concatenate(flat_cells) if flat_cells
                     else np.empty(0, dtype=np.int64))
            idx = (np.concatenate(flat_idx) if flat_idx
                   else np.empty(0, dtype=np.int64))
            return pa.table({
                "cell_id": pa.array(cells, pa.int64()),
                "rid": pa.array(lid[idx], pa.int64()),
                "rlon": pa.array(lon[idx], pa.float64()),
                "rlat": pa.array(lat[idx], pa.float64()),
                "role": pa.array(np.ones(len(cells), dtype=np.int8)),
                "home": pa.array(home[idx], pa.int64()),
            })

        lrep = cur.map_batches(visit_left, batch_format="pyarrow")

        def add_home(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "home", pa.array(np.full(batch.num_rows, -1, np.int64)))

        both = right_rows.map_batches(add_home,
                                      batch_format="pyarrow").union(lrep)

        def cell_partials(group: pa.Table) -> pa.Table:
            empty = pa.table({"left_id": pa.array([], pa.int64()),
                              "home": pa.array([], pa.int64()),
                              "qlon": pa.array([], pa.float64()),
                              "qlat": pa.array([], pa.float64()),
                              "neighbor_id": pa.array([], pa.int64()),
                              "dist_m": pa.array([], pa.float64())})
            role = group.column("role").to_numpy()
            lmask = role == 1
            if not lmask.any() or lmask.all():
                return empty
            rid = group.column("rid").to_numpy()
            lon = group.column("rlon").to_numpy()
            lat = group.column("rlat").to_numpy()
            home = group.column("home").to_numpy()
            qid, qlon, qlat, qhome = (rid[lmask], lon[lmask], lat[lmask],
                                      home[lmask])
            cid, clon, clat = rid[~lmask], lon[~lmask], lat[~lmask]
            d = _dist_sphere(qlon[:, None], qlat[:, None],
                             clon[None, :], clat[None, :])
            kk = min(k, len(cid))
            order = np.lexsort((np.broadcast_to(cid, d.shape), d),
                               axis=1)[:, :kk]
            picked = cid[order]
            dist = np.take_along_axis(d, order, axis=1)
            nq = len(qid)
            return pa.table({
                "left_id": pa.array(np.repeat(qid, kk), pa.int64()),
                "home": pa.array(np.repeat(qhome, kk), pa.int64()),
                "qlon": pa.array(np.repeat(qlon, kk), pa.float64()),
                "qlat": pa.array(np.repeat(qlat, kk), pa.float64()),
                "neighbor_id": pa.array(picked.ravel(), pa.int64()),
                "dist_m": pa.array(dist.ravel(), pa.float64()),
            })

        # a sentinel partial per residue row guarantees every left row
        # reaches merge_left even when no visited cell held a candidate
        def sentinel(batch: pa.Table) -> pa.Table:
            home = batch.column("cell_id").to_numpy(zero_copy_only=False)
            ok = home >= 0
            m = int(ok.sum())
            return pa.table({
                "left_id": pa.array(
                    batch.column("left_id").to_numpy(
                        zero_copy_only=False)[ok], pa.int64()),
                "home": pa.array(home[ok], pa.int64()),
                "qlon": pa.array(batch.column("lon").to_numpy(
                    zero_copy_only=False)[ok], pa.float64()),
                "qlat": pa.array(batch.column("lat").to_numpy(
                    zero_copy_only=False)[ok], pa.float64()),
                "neighbor_id": pa.array(np.full(m, -1, np.int64)),
                "dist_m": pa.array(np.full(m, np.inf), pa.float64()),
            })

        partials = both.groupby("cell_id").map_groups(
            cell_partials, batch_format="pyarrow").union(
            cur.map_batches(sentinel, batch_format="pyarrow"))

        def merge_left(group: pa.Table, *, rr=rr,
                       full_cover=full_cover) -> pa.Table:
            nid_all = group.column("neighbor_id").to_numpy()
            dist_all = group.column("dist_m").to_numpy()
            valid = nid_all >= 0
            nid = nid_all[valid]
            dist = dist_all[valid]
            order = np.lexsort((nid, dist))[:k]
            m = len(order)
            lid = int(group.column("left_id")[0].as_py())
            if full_cover:
                ok = True
            elif m >= k:
                home = int(group.column("home")[0].as_py())
                qlon = np.asarray([group.column("qlon")[0].as_py()])
                qlat = np.asarray([group.column("qlat")[0].as_py()])
                z, x, y = (int(v) for v in
                           tiles.unpack_cell(np.int64(home)))
                bound = float(_explored_bound_m(z, x, y, rr, qlon, qlat)[0])
                ok = bool(dist[order[-1]] <= bound)
            else:
                ok = False
            if m == 0 and not ok:
                # no candidates yet: emit an unresolved marker so the
                # row is carried into the next (wider) round
                return pa.table({
                    "left_id": pa.array([lid], pa.int64()),
                    "neighbor_id": pa.array([-1], pa.int64()),
                    "rank": pa.array([-1], pa.int64()),
                    "dist_m": pa.array([np.inf], pa.float64()),
                    "resolved": pa.array([False]),
                })
            return pa.table({
                "left_id": pa.array(np.full(m, lid, np.int64)),
                "neighbor_id": pa.array(nid[order], pa.int64()),
                "rank": pa.array(np.arange(1, m + 1, dtype=np.int64)),
                "dist_m": pa.array(dist[order], pa.float64()),
                "resolved": pa.array(np.full(m, ok)),
            })

        merged = partials.groupby("left_id").map_groups(
            merge_left, batch_format="pyarrow").materialize()

        def keep_res(batch: pa.Table) -> pa.Table:
            mask = batch.column("resolved").to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(mask)).drop_columns(["resolved"])

        out_parts.append(merged.map_batches(keep_res,
                                            batch_format="pyarrow"))
        if full_cover:
            break

        n_unres = merged.map_batches(
            lambda b: pa.table({"nu": pa.array(
                [int((~b.column("resolved").to_numpy(
                    zero_copy_only=False)).sum())], pa.int64())}),
            batch_format="pyarrow").sum("nu") or 0
        if n_unres == 0:
            break

        def keep_unres(batch: pa.Table) -> pa.Table:
            mask = ~batch.column("resolved").to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(mask)).select(["left_id"])

        ids_ds = (merged.map_batches(keep_unres, batch_format="pyarrow")
                  .groupby("left_id").count()
                  .select_columns(["left_id"]).materialize())
        cur = cur.join(ids_ds, "inner", num_partitions=1,
                       on=("left_id",)).materialize()
        # quadruple the ring each round: every round costs a fixed
        # number of shuffles, so converge in few rounds; the visit fan-
        # out above clamps at n-1 regardless of how far r overshoots
        r = 4 * r + 1

    out = out_parts[0]
    for p in out_parts[1:]:
        out = out.union(p)
    return out
