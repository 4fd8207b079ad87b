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

Every path — the broadcast ring expansion, the co-shuffle cell probe
and its residue rounds — ranks candidates with one scorer,
:func:`_nearest`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..kernels import geodesy, tiles
from ..state.empty import materialize_typed
from ..state.worker import cached, resolve
from .agg import group_runs, sorted_map_groups

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


# max query rows per dense-distance tile in _nearest: caps the
# (tile x ncand) float64 matrix at ~8 MB per 1k candidates
_Q_TILE = 1024

# left rows per KnnJoiner batch
_BATCH_ROWS = 8192


def _nearest(qlon, qlat, cand_id, cand_lon, cand_lat, k):
    """The ``min(k, ncand)`` nearest candidates of every query, ordered
    by (distance, id): ``(ids, dist)``, both ``(nq, min(k, ncand))``.
    Queries are scored ``_Q_TILE`` rows at a time, so the dense
    distance matrix stays ``_Q_TILE x ncand`` however many queries
    share a cell (dense-city skew guard)."""
    nq, kk = len(qlon), min(k, len(cand_id))
    ids = np.empty((nq, kk), dtype=np.int64)
    dist = np.empty((nq, kk), dtype=np.float64)
    if kk == 0:
        return ids, dist
    for s in range(0, nq, _Q_TILE):
        e = min(s + _Q_TILE, nq)
        d = _dist_sphere(qlon[s:e, None], qlat[s:e, None],
                         cand_lon[None, :], cand_lat[None, :])
        order = np.lexsort((np.broadcast_to(cand_id, d.shape), d),
                           axis=1)[:, :kk]
        ids[s:e] = cand_id[order]
        dist[s:e] = np.take_along_axis(d, order, axis=1)
    return ids, dist


class KnnJoiner:
    """map_batches stage: for each left row (lon/lat/cell_id), emit k
    rows (left cols + neighbor_id + rank + dist_m), exact by ring
    expansion."""

    def __init__(self, index_ref, k: int):
        self.index: RightIndex = resolve(index_ref)
        self.k = k

    def _knn_group(self, qlon, qlat, z, x, y):
        """Exact kNN for query points sharing one tile: widen the ring
        until every query's k-th distance is within the bound to the
        unexplored tiles, or the ring spans the whole grid."""
        idx = self.index
        last = 1 << idx.zoom
        seen = []
        for ring in range(last + 1):
            seen.append(idx.candidates_in_cells(
                _tile_ring_cells(z, x, y, ring)))
            # a ring wider than half the grid wraps (x) onto cells an
            # inner ring already visited: score each candidate once
            call = np.unique(np.concatenate(seen))
            if len(call) < self.k and ring < last:
                continue
            ids, dist = _nearest(qlon, qlat, idx.ids[call], idx.lon[call],
                                 idx.lat[call], self.k)
            if ring == last or (dist[:, -1] <= _explored_bound_m(
                    z, x, y, ring, qlon, qlat)).all():
                return ids, dist

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


def knn_join(left_ds, right_index: RightIndex, k: int):
    """left Dataset (lon/lat/cell_id) x broadcast RightIndex -> k rows
    per left row with (neighbor_id, rank, dist_m).

    Broadcast shape: right side must fit the object store. For big-big
    joins use :func:`knn_join_coshuffle`.
    """
    ref = ray.put(right_index)

    def fn(batch: pa.Table) -> pa.Table:
        return cached(KnnJoiner, ref, k)(batch)

    return left_ds.map_batches(fn, batch_format="pyarrow",
                               batch_size=_BATCH_ROWS, zero_copy_batch=True)


# a co-shuffle output row, and what an unresolved left row carries into
# the next residue round (its home cell is the cell its probe ran in)
_OUT = ["left_id", "neighbor_id", "rank", "dist_m"]
_CARRY = ["left_id", "lon", "lat", "cell_id"]
_SCORED = pa.schema([("left_id", pa.int64()), ("neighbor_id", pa.int64()),
                     ("rank", pa.int64()), ("dist_m", pa.float64()),
                     ("resolved", pa.bool_()), ("lon", pa.float64()),
                     ("lat", pa.float64()), ("cell_id", pa.int64())])


def _scored(lid, lon, lat, cell, ids, dist, resolved):
    """Scored rows of ``nq`` left rows: ranks ``1..kk`` per row (``ids``
    and ``dist`` are ``(nq, kk)``), or one rank -1 marker per row when
    it has no candidate (``kk == 0``; such a row is never resolved).
    Every row carries its left row's ``_CARRY`` columns, so the one
    row of rank <= 1 of an unresolved left row is its next-round
    input."""
    nq, kk = ids.shape
    ranks = np.arange(1, kk + 1, dtype=np.int64)
    if kk == 0:
        kk, ranks = 1, np.array([-1], dtype=np.int64)
        ids = np.full((nq, 1), -1, dtype=np.int64)
        dist = np.full((nq, 1), np.inf)
    return pa.table({
        "left_id": np.repeat(lid, kk), "neighbor_id": ids.ravel(),
        "rank": np.tile(ranks, nq), "dist_m": dist.ravel(),
        "resolved": np.repeat(resolved, kk), "lon": np.repeat(lon, kk),
        "lat": np.repeat(lat, kk), "cell_id": np.repeat(cell, kk),
    }, schema=_SCORED)


def _cell_rows(cell, rid, lon, lat, role: int) -> pa.Table:
    """Co-shuffle rows: role 0 for a right row, 1 for a left row."""
    return pa.table({
        "cell_id": pa.array(cell, pa.int64()),
        "id": pa.array(rid, pa.int64()),
        "lon": pa.array(lon, pa.float64()),
        "lat": pa.array(lat, pa.float64()),
        "role": pa.array(np.full(len(cell), role, dtype=np.int8)),
    })


def _right_rows(batch: pa.Table, *, zoom: int, ring: int) -> pa.Table:
    """Right rows (right_id/lon/lat) replicated to every cell within
    ``ring`` of their own (ring 0: their own cell only)."""
    lon = batch.column("lon").to_numpy(zero_copy_only=False)
    lat = batch.column("lat").to_numpy(zero_copy_only=False)
    rid = batch.column("right_id").to_numpy(zero_copy_only=False)
    cells = tiles.cell_id(lon, lat, zoom)
    # rows without coordinates (cell sentinel -1) cannot be joined;
    # drop them before neighbor expansion (mirrors KnnJoiner's guard)
    ok = cells >= 0
    nb = tiles.neighbor_cells(cells[ok], ring=ring)  # (n, (2r+1)^2)
    reps = nb.shape[1]
    return _cell_rows(nb.ravel(), np.repeat(rid[ok], reps),
                      np.repeat(lon[ok], reps), np.repeat(lat[ok], reps), 0)


def _score_cell(group: pa.Table, k: int):
    """Score a cell group's left rows against its distinct right rows:
    ``(left ids, lon, lat, ids, dist)``."""
    left = group.column("role").to_numpy() == 1
    gid, glon, glat = (group.column(c).to_numpy()
                       for c in ("id", "lon", "lat"))
    # a right row replicated from several wrapped neighbor offsets
    # reaches the same cell more than once
    cand, first = np.unique(gid[~left], return_index=True)
    ids, dist = _nearest(glon[left], glat[left], cand,
                         glon[~left][first], glat[~left][first], k)
    return gid[left], glon[left], glat[left], ids, dist


def _split(scored):
    """A materialized Dataset of scored rows -> (its resolved rows as
    output rows, the ``_CARRY`` rows of its unresolved left rows
    (materialized), their count). An unresolved left row has exactly
    one row of rank <= 1: its rank 1 row or its rank -1 marker."""
    def resolved(batch: pa.Table) -> pa.Table:
        return batch.filter(batch.column("resolved")).select(_OUT)

    def unresolved(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.invert(batch.column("resolved")),
                       pc.less_equal(batch.column("rank"), 1))
        return batch.filter(keep).select(_CARRY)

    carry = scored.map_batches(unresolved,
                               batch_format="pyarrow").materialize()
    return (scored.map_batches(resolved, batch_format="pyarrow"), carry,
            carry.count())


def knn_join_coshuffle(left_ds, right_ds, k: int, *, zoom: int,
                       ring: int = 1):
    """Big-big kNN join with NO broadcast side: right rows are
    replicated to their cell plus the ``ring`` of neighbor cells
    (boundary-cell replication), both sides co-shuffle on cell_id, and
    each cell group probes its local candidates.

    Exactness: a left row is resolved in-cell iff its k-th candidate
    distance is within the proven bound to unexplored tiles
    (_explored_bound_m). The unresolved residue (points near cell
    corners with sparse neighbors) is finished by exact residue rounds;
    choose ``zoom`` so cells are much wider than typical kNN radii and
    the residue is a vanishing fraction.

    left_ds columns: left_id/lon/lat/cell_id (others are ignored).
    right_ds columns: right_id/lon/lat. Returns one row per left row
    and rank: left_id, neighbor_id, rank, dist_m.
    """
    def left_rows(batch: pa.Table) -> pa.Table:
        return _cell_rows(*(batch.column(c).to_numpy(zero_copy_only=False)
                            for c in ("cell_id", "left_id", "lon", "lat")),
                          1)

    def probe(group: pa.Table) -> pa.Table:
        cell = int(group.column("cell_id")[0].as_py()) if group.num_rows else -1
        # left rows without coordinates group under cell -1; they cannot
        # be joined (dropped, like KnnJoiner's cell<0 guard) — and
        # unpack_cell(-1) must never reach _explored_bound_m
        if cell < 0 or not (group.column("role").to_numpy() == 1).any():
            return _SCORED.empty_table()
        qid, qlon, qlat, ids, dist = _score_cell(group, k)
        resolved = np.zeros(len(qid), dtype=bool)
        if ids.shape[1] == k:
            z, x, y = (int(v) for v in tiles.unpack_cell(np.int64(cell)))
            resolved = dist[:, -1] <= _explored_bound_m(z, x, y, ring,
                                                        qlon, qlat)
        return _scored(qid, qlon, qlat, np.full(len(qid), cell), ids, dist,
                       resolved)

    both = right_ds.map_batches(
        _right_rows, fn_kwargs={"zoom": zoom, "ring": ring},
        batch_format="pyarrow").union(
        left_ds.map_batches(left_rows, batch_format="pyarrow"))
    probed = materialize_typed(both.groupby("cell_id").map_groups(
        probe, batch_format="pyarrow"))
    out, carry, n_unres = _split(probed)
    # every left row resolved in-cell has k rows, so only a run with no
    # scored rows or with a residue can end empty: only such a result
    # is materialized here
    maybe_empty = n_unres > 0 or probed.count() == 0

    # residue rounds: the unresolved rows are few by construction, so
    # invert the replication — the residue LEFT rows fan out to an
    # expanding ring of cells while every right row stays in its own
    # cell (scanned once per round, never replicated). Each unresolved
    # row carries its own coordinates and home cell forward, so a
    # round's input is a filter of the last round's output, and no
    # row is collected on the driver.
    right_home = right_ds.map_batches(
        _right_rows, fn_kwargs={"zoom": zoom, "ring": 0},
        batch_format="pyarrow")
    r = 2 * ring + 1
    while n_unres:
        done, carry, n_unres = _split(
            _residue_round(carry, right_home, k, zoom=zoom, ring=r))
        out = out.union(done)
        # quadruple the ring each round: every round costs a fixed
        # number of shuffles, so converge in few rounds; the visit fan-
        # out clamps at n-1 however far r overshoots
        r = 4 * r + 1
    return materialize_typed(out) if maybe_empty else out


def _residue_round(carry, right_home, k: int, *, zoom: int, ring: int):
    """One exact residue round for the ``_CARRY`` rows of unresolved
    left rows: each visits the cells within ``ring`` of its home cell,
    the right rows sit in their own cell, per-cell top-k partials are
    merged per left row, and a row resolves when its k-th distance
    beats the ring bound. Once the ring covers the whole grid every
    candidate has been seen, so every row resolves by completeness.
    Returns the scored rows, materialized."""
    n = 1 << zoom
    # x wraps (needs 2r+1 >= n) and y clamps (needs r >= n-1 from an
    # edge row): r >= n-1 guarantees every cell is visited
    full_cover = ring >= n - 1

    def visit(batch: pa.Table) -> pa.Table:
        lid, lon, lat, home = (batch.column(c).to_numpy(zero_copy_only=False)
                               for c in _CARRY)
        # rings beyond n-1 add no new cells (x wraps, y clamps) but
        # would allocate (2r+1)^2 per row — clamp
        nb = np.sort(tiles.neighbor_cells(home, ring=min(ring, n - 1)),
                     axis=1)
        # visited cells repeat after x-wrap / y-clamp; keep each once
        # per row so a candidate is never scored twice
        new = np.ones(nb.shape, dtype=bool)
        new[:, 1:] = nb[:, 1:] != nb[:, :-1]
        row = np.nonzero(new)[0]
        return _cell_rows(nb[new], lid[row], lon[row], lat[row], 1)

    def partials(group: pa.Table) -> pa.Table:
        left = group.column("role").to_numpy() == 1
        if not left.any() or left.all():
            return _SCORED.empty_table()
        qid, qlon, qlat, ids, dist = _score_cell(group, k)
        # the visited cell is not a home cell: merge reads the home
        # cell from the sentinel row
        return _scored(qid, qlon, qlat, np.full(len(qid), -1), ids, dist,
                       np.zeros(len(qid), dtype=bool))

    # one rank -1 sentinel per carried row: every left row reaches merge
    # even when no visited cell held a candidate
    def sentinel(batch: pa.Table) -> pa.Table:
        m = batch.num_rows
        return _scored(*(batch.column(c).to_numpy(zero_copy_only=False)
                         for c in _CARRY), np.empty((m, 0)),
                       np.empty((m, 0)), np.zeros(m, dtype=bool))

    def merge(batch: pa.Table) -> pa.Table:
        """Every left row of a block at once: its k nearest partials,
        and whether they are final."""
        # rows sort by (left_id, dist_m, neighbor_id): a left row's run
        # holds its partials nearest first, then its sentinel (dist inf)
        rank = batch.column("rank").to_numpy()
        dist = batch.column("dist_m").to_numpy()
        starts, ends = group_runs(batch, ["left_id"])
        run = np.repeat(np.arange(len(starts)), ends - starts)
        pos = np.arange(batch.num_rows) - starts[run]
        lid, lon, lat, home = (batch.column(c).to_numpy()[rank < 0]
                               for c in _CARRY)
        m = np.minimum(ends - starts - 1, k)
        ok = np.full(len(starts), full_cover)
        if not full_cover:
            for cell in np.unique(home[m == k]):
                sel = np.flatnonzero((home == cell) & (m == k))
                z, x, y = (int(v) for v in tiles.unpack_cell(np.int64(cell)))
                ok[sel] = dist[starts[sel] + k - 1] <= _explored_bound_m(
                    z, x, y, ring, lon[sel], lat[sel])
        # a row with no candidate yet is carried on by its sentinel,
        # which is its rank -1 marker
        rows = np.flatnonzero(((rank > 0) & (pos < k))
                              | ((rank < 0) & ((m == 0) & ~ok)[run]))
        r = run[rows]
        return pa.table({
            "left_id": lid[r],
            "neighbor_id": batch.column("neighbor_id").to_numpy()[rows],
            "rank": np.where(rank[rows] > 0, pos[rows] + 1, -1),
            "dist_m": dist[rows], "resolved": ok[r], "lon": lon[r],
            "lat": lat[r], "cell_id": home[r],
        }, schema=_SCORED)

    visits = carry.map_batches(visit, batch_format="pyarrow")
    partial = right_home.union(visits).groupby("cell_id").map_groups(
        partials, batch_format="pyarrow").union(
        carry.map_batches(sentinel, batch_format="pyarrow"))
    return sorted_map_groups(
        partial, ["left_id"], merge,
        sort_keys=["left_id", "dist_m", "neighbor_id"]).materialize()
