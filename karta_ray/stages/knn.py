"""k-nearest-neighbor join: per-cell candidate probes with boundary-cell
ring expansion.

Distributed analogue of the reference's quadtree nearest queries
(karta/vector/geometry.py:1349-1377, 576-591): both sides are keyed by
Web-Mercator cell, and the queries of one cell probe the right rows of
the cells within a ring of it (:func:`_expand`). A query is resolved
once its k-th nearest distance is provably smaller than the distance
to any unexplored tile — the exactness bound uses the spherical
distance from the query tile to the explored bbox boundary (meridian
arc for the north/south edges, exact point-to-meridian distance for
east/west).

:func:`knn_join` takes one of two shapes by :mod:`.lookup`'s broadcast
budget. A right side within it is sorted by cell and put in the object
store once, and each left batch widens its rings until every query
resolves: broadcast is the one-partition case. A larger right side is
co-shuffled with the left by cell (:func:`_coshuffle`), and the few
rows a cell cannot resolve finish in residue rounds. Every path ranks
candidates with one scorer, :func:`_nearest`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..kernels import geodesy, tiles
from ..state.empty import materialize_typed
from ..state.worker import cached, resolve
from . import lookup
from .agg import group_runs, sorted_map_groups

D2R = np.pi / 180.0


def _dist_sphere(lon0, lat0, lon1, lat1):
    """Law-of-cosines spherical distance (meters, SPHERE_RADIUS)."""
    c = (np.sin(lat0 * D2R) * np.sin(lat1 * D2R)
         + np.cos(lat0 * D2R) * np.cos(lat1 * D2R)
         * np.cos(lon1 * D2R - lon0 * D2R))
    return geodesy.SPHERE_RADIUS * np.arccos(np.clip(c, -1.0, 1.0))


def _explored_bound_m(z, x, y, ring, qlon, qlat):
    """Lower bound (meters) on the distance from query points inside tile
    (z, x, y) to anything OUTSIDE the (2*ring+1)^2 explored tile block."""
    n = 1 << z
    # explored lon span (tile_bbox's edges, in float math) and lat span
    # (clamped at poles)
    lon_w = x / n * 360.0 - 180.0 - ring * 360.0 / n
    lon_e = (x + 1) / n * 360.0 - 180.0 + ring * 360.0 / n
    y_top = max(y - ring, 0)
    y_bot = min(y + ring, n - 1)
    _, (lat_n, lat_s) = tiles.tile_nw_corner(z, x, np.array([y_top, y_bot + 1]))
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

# left rows per broadcast probe batch
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


def _expand(qlon, qlat, cell, index, rings, k):
    """The queries of ``cell`` against the right rows of ``index``
    (``(cell, id, lon, lat)`` arrays sorted by cell) in the cells within
    each ring of ``rings`` in turn, until every query resolves:
    ``(ids, dist, resolved)`` of the last ring probed, as
    :func:`_nearest` gives them. A query resolves when its k-th
    distance is within the ring's bound, or when the ring covers the
    whole grid."""
    rcell, rid, rlon, rlat = index
    z, x, y = (int(v) for v in tiles.unpack_cell(cell))
    n = 1 << z
    for ring in rings:
        # x wraps and y clamps: a ring past n - 1 adds no cell, and a
        # ring wider than half the grid reaches a cell twice
        nb = np.unique(tiles.neighbor_cells(cell, ring=min(ring, n - 1)))
        lo = np.searchsorted(rcell, nb)
        m = np.searchsorted(rcell, nb, side="right") - lo
        sel = np.arange(m.sum()) + np.repeat(lo - np.cumsum(m) + m, m)
        ids, dist = _nearest(qlon, qlat, rid[sel], rlon[sel], rlat[sel], k)
        resolved = np.full(len(qlon), ring >= n - 1)
        if ids.shape[1] == k and not resolved.all():
            resolved = dist[:, -1] <= _explored_bound_m(z, x, y, ring,
                                                        qlon, qlat)
        if resolved.all():
            break
    return ids, dist, resolved


def knn_join(left_ds, right, k: int, *, zoom: int):
    """The ``k`` nearest right rows of every left row, ranked by
    (distance, id): one row per left row and rank, with columns
    ``left_id``, ``neighbor_id``, ``rank``, ``dist_m``.

    ``left_ds`` has ``left_id``/``lon``/``lat``; ``right`` is a Dataset
    or a driver-side ``pa.Table`` with ``right_id``/``lon``/``lat``
    (others are ignored). Both sides are keyed by cell at ``zoom``;
    rows without coordinates join nothing. A right side within
    ``lookup.BROADCAST_MAX_BYTES`` is broadcast, a larger one
    co-shuffled (:func:`_coshuffle`)."""
    import ray.data

    right, nbytes = lookup._sized(right)
    if nbytes > lookup.BROADCAST_MAX_BYTES:
        if isinstance(right, pa.Table):
            right = ray.data.from_blocks([right])
        return _coshuffle(left_ds, right, k, zoom=zoom, ring=1)
    table = lookup._table(right, ["right_id", "lon", "lat"])
    rid, lon, lat = (table.column(c).to_numpy(zero_copy_only=False)
                     for c in ("right_id", "lon", "lat"))
    cell = tiles.cell_id(lon, lat, zoom)
    order = np.argsort(cell, kind="stable")
    order = order[cell[order] >= 0]
    ref = ray.put((cell[order], rid[order].astype(np.int64),
                   lon[order].astype(np.float64),
                   lat[order].astype(np.float64)))
    return left_ds.map_batches(
        _probe_batch, batch_format="pyarrow", batch_size=_BATCH_ROWS,
        zero_copy_batch=True, fn_kwargs={"ref": ref, "k": k, "zoom": zoom})


# a kNN output row, and what an unresolved left row carries into the
# next residue round (its home cell is the cell its probe ran in)
_OUT = pa.schema([("left_id", pa.int64()), ("neighbor_id", pa.int64()),
                  ("rank", pa.int64()), ("dist_m", pa.float64())])
_CARRY = ["left_id", "lon", "lat", "cell_id"]
_SCORED = pa.schema([*_OUT, ("resolved", pa.bool_()), ("lon", pa.float64()),
                     ("lat", pa.float64()), ("cell_id", pa.int64())])


def _probe_batch(batch: pa.Table, *, ref, k: int, zoom: int) -> pa.Table:
    """The broadcast shape's map: each cell's left rows widen their
    rings up to full cover, so every row with coordinates resolves."""
    index = cached(resolve, ref)
    lid, lon, lat = (batch.column(c).to_numpy(zero_copy_only=False)
                     for c in ("left_id", "lon", "lat"))
    cells = tiles.cell_id(lon, lat, zoom)
    # a query resolves with k candidates or at full cover, where it has
    # all of them: every row with coordinates gets min(k, right rows)
    kk = min(k, len(index[0]))
    rows = np.flatnonzero(cells >= 0) if kk else np.empty(0, np.int64)
    rows = rows[np.argsort(cells[rows], kind="stable")]
    uniq, starts = np.unique(cells[rows], return_index=True)
    ids = np.empty((len(rows), kk), dtype=np.int64)
    dist = np.empty((len(rows), kk), dtype=np.float64)
    for cell, s, e in zip(uniq, starts, np.append(starts[1:], len(rows))):
        q = rows[s:e]
        ids[s:e], dist[s:e], _ = _expand(lon[q], lat[q], cell, index,
                                         range(1 << zoom), k)
    return _scored(lid[rows], lon[rows], lat[rows], cells[rows], ids, dist,
                   np.ones(len(rows), dtype=bool)).select(_OUT.names)


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
        resolved = np.zeros(nq, dtype=bool)
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


def _fan_out(cells, ring: int, zoom: int):
    """``(cell, row)``: every distinct cell within ``ring`` of each row's
    cell ``cells[row]``. x wraps and y clamps, so a ring past the grid
    reaches a cell more than once: keep it once per row."""
    # rings beyond n-1 add no new cells but would allocate (2r+1)^2 per
    # row — clamp
    nb = np.sort(tiles.neighbor_cells(cells, ring=min(ring, (1 << zoom) - 1)),
                 axis=1)
    new = np.ones(nb.shape, dtype=bool)
    new[:, 1:] = nb[:, 1:] != nb[:, :-1]
    return nb[new], np.nonzero(new)[0]


def _right_rows(batch: pa.Table, *, zoom: int, ring: int) -> pa.Table:
    """Right rows (right_id/lon/lat) replicated to every cell within
    ``ring`` of their own (ring 0: their own cell only)."""
    lon = batch.column("lon").to_numpy(zero_copy_only=False)
    lat = batch.column("lat").to_numpy(zero_copy_only=False)
    rid = batch.column("right_id").to_numpy(zero_copy_only=False)
    cells = tiles.cell_id(lon, lat, zoom)
    # rows without coordinates (cell sentinel -1) cannot be joined;
    # drop them before neighbor expansion
    ok = np.flatnonzero(cells >= 0)
    cell, row = _fan_out(cells[ok], ring, zoom)
    row = ok[row]
    return _cell_rows(cell, rid[row], lon[row], lat[row], 0)


def _split(scored):
    """A materialized Dataset of scored rows -> (its resolved rows as
    output rows, the ``_CARRY`` rows of its unresolved left rows
    (materialized), their count). An unresolved left row has exactly
    one row of rank <= 1: its rank 1 row or its rank -1 marker."""
    def resolved(batch: pa.Table) -> pa.Table:
        return batch.filter(batch.column("resolved")).select(_OUT.names)

    def unresolved(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.invert(batch.column("resolved")),
                       pc.less_equal(batch.column("rank"), 1))
        return batch.filter(keep).select(_CARRY)

    carry = scored.map_batches(unresolved,
                               batch_format="pyarrow").materialize()
    return (scored.map_batches(resolved, batch_format="pyarrow"), carry,
            carry.count())


def _coshuffle(left_ds, right_ds, k: int, *, zoom: int, ring: int):
    """:func:`knn_join`'s shape for a right side too big to broadcast
    (its inputs and output, with ``right_ds`` a Dataset): right rows
    are replicated to their cell plus the ``ring`` of neighbor cells
    (boundary-cell replication), both sides co-shuffle on cell_id, and
    each cell group probes its local candidates.

    Exactness: a left row is resolved in-cell iff its k-th candidate
    distance is within the proven bound to unexplored tiles
    (_explored_bound_m). The unresolved residue (points near cell
    corners with sparse neighbors) is finished by exact residue rounds;
    choose ``zoom`` so cells are much wider than typical kNN radii and
    the residue is a vanishing fraction."""
    def left_rows(batch: pa.Table) -> pa.Table:
        lid, lon, lat = (batch.column(c).to_numpy(zero_copy_only=False)
                         for c in ("left_id", "lon", "lat"))
        return _cell_rows(tiles.cell_id(lon, lat, zoom), lid, lon, lat, 1)

    def probe(group: pa.Table) -> pa.Table:
        cell = int(group.column("cell_id")[0].as_py()) if group.num_rows else -1
        left = group.column("role").to_numpy() == 1
        # left rows without coordinates group under cell -1; they cannot
        # be joined — and unpack_cell(-1) must never reach _expand
        if cell < 0 or not left.any():
            return _SCORED.empty_table()
        gid, glon, glat = (group.column(c).to_numpy()
                           for c in ("id", "lon", "lat"))
        home = tiles.cell_id(glon[~left], glat[~left], zoom)
        o = np.argsort(home, kind="stable")
        index = (home[o], gid[~left][o], glon[~left][o], glat[~left][o])
        ids, dist, resolved = _expand(glon[left], glat[left], cell, index,
                                      [ring], k)
        return _scored(gid[left], glon[left], glat[left],
                       np.full(left.sum(), cell), ids, dist, resolved)

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
    # x wraps (needs 2r+1 >= n) and y clamps (needs r >= n-1 from an
    # edge row): r >= n-1 guarantees every cell is visited
    full_cover = ring >= (1 << zoom) - 1

    def visit(batch: pa.Table) -> pa.Table:
        lid, lon, lat, home = (batch.column(c).to_numpy(zero_copy_only=False)
                               for c in _CARRY)
        cell, row = _fan_out(home, ring, zoom)
        return _cell_rows(cell, lid[row], lon[row], lat[row], 1)

    def partials(group: pa.Table) -> pa.Table:
        left = group.column("role").to_numpy() == 1
        if not left.any() or left.all():
            return _SCORED.empty_table()
        gid, glon, glat = (group.column(c).to_numpy()
                           for c in ("id", "lon", "lat"))
        ids, dist = _nearest(glon[left], glat[left], gid[~left],
                             glon[~left], glat[~left], k)
        # the visited cell is not a home cell: merge reads the home
        # cell from the sentinel row
        return _scored(gid[left], glon[left], glat[left],
                       np.full(left.sum(), -1), ids, dist,
                       np.zeros(left.sum(), dtype=bool))

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
