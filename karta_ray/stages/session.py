"""Event streams: session windows, per-user sessions and ordered funnels.

Sessions are watermark-free event-time windows: consecutive events of
one key belong to one session while the gap between them is <= ``gap``
(strict ``>`` opens a new one, the SQL ``lag() > gap`` rule). Event
time only, no processing-time reordering buffer: the sort IS the
reordering.

Execution shape: one range shuffle orders per-event intervals by (key,
time); each block closes every window it fully contains (vectorized
interval collapse, no per-event Python); windows straddling block
boundaries are resolved in a residue whose input is PRE-COLLAPSED —
each block exports its edge runs as merged (key, start, end, n)
interval partials, so a hot key bursting inside the session gap costs
ONE residue row per block, not its event count. The merge rule
(adjacent disjoint intervals join when ``start - prev_end <= gap``) is
associative over time-contiguous fragments, which is what makes the
partial export sound. Residue volume is bounded by the hot key's true
SESSION count per block — output-sized, the floor any correct engine
pays. :func:`session_windows` emits the windows; :func:`sessionize`
rolls them up per user in the same block function (every user reaches
it whole).

A real unbounded deployment would feed this from periodic parquet
snapshots of the tail (the checkpoint/manifest machinery in
pipelines/manifest.py); the operator itself never needs the full
history because closed sessions are emitted per block.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .agg import group_runs, sorted_map_groups


def _collapse(tbl: pa.Table, key: str, gap: int) -> pa.Table:
    """Merge sorted disjoint (key, start, end, n) intervals whose gap
    to the previous interval of the same key is <= ``gap``."""
    nr = tbl.num_rows
    if nr == 0:
        return tbl
    starts, _ends = group_runs(tbl, [key])
    s = tbl.column("start_us").to_numpy(zero_copy_only=False)
    e = tbl.column("end_us").to_numpy(zero_copy_only=False)
    n = tbl.column("n").to_numpy(zero_copy_only=False)
    brk = np.ones(nr, dtype=bool)
    brk[1:] = s[1:] - e[:-1] > gap
    brk[starts] = True
    seg = np.flatnonzero(brk)
    seg_end = np.append(seg[1:], nr) - 1
    return pa.table({
        key: tbl.column(key).take(pa.array(seg)),
        "start_us": pa.array(s[seg]),
        "end_us": pa.array(e[seg_end]),
        "n": pa.array(np.add.reduceat(n, seg)),
    })


def _sessions(ds, key: str, on: str, gap: int, rows):
    """One (key, start_us) range shuffle of per-event intervals;
    ``rows`` turns each block's collapsed windows — every key whole,
    in time order — into output rows."""
    def to_intervals(batch: pa.Table) -> pa.Table:
        ts = batch.column(on).to_numpy(zero_copy_only=False)
        if ts.dtype.kind == "M":
            ts = ts.astype("datetime64[us]")
        ts = ts.astype(np.int64)
        return pa.table({key: batch.column(key),
                         "start_us": pa.array(ts),
                         "end_us": pa.array(ts),
                         "n": pa.array(np.ones(len(ts), np.int64))})

    intervals = ds.map_batches(to_intervals, batch_format="pyarrow",
                               zero_copy_batch=True)
    return sorted_map_groups(
        intervals, [key], lambda t: rows(_collapse(t, key, gap)),
        sort_keys=[key, "start_us"],
        pre_reduce=lambda t: _collapse(t, key, gap))


def session_windows(ds, *, key: str = "user_id", on: str = "ts",
                    gap: int):
    """Event-time session windows, ``gap`` in microseconds.

    Returns (key, session_id, start_us, end_us, n_events) with
    session_id 0-based in time order per key.
    """
    def window_rows(merged: pa.Table) -> pa.Table:
        nr = merged.num_rows
        kstarts, _ = group_runs(merged, [key])
        # 0-based index within each key run
        base = np.zeros(nr, dtype=np.int64)
        base[kstarts] = kstarts
        base = np.maximum.accumulate(base)
        return pa.table({
            key: merged.column(key),
            "session_id": pa.array(np.arange(nr, dtype=np.int64) - base),
            "start_us": merged.column("start_us"),
            "end_us": merged.column("end_us"),
            "n_events": merged.column("n"),
        })

    return _sessions(ds, key, on, gap, window_rows)


def sessionize(ds, *, user_col: str = "user_id", ts_col: str = "ts",
               gap_us: int):
    """(user_id, n_events, n_sessions) with a new session whenever the
    idle gap between consecutive events exceeds ``gap_us``: the
    per-user rollup of :func:`session_windows`."""
    def user_rows(merged: pa.Table) -> pa.Table:
        starts, ends = group_runs(merged, [user_col])
        cn = np.concatenate([[0], np.cumsum(merged.column("n").to_numpy())])
        return pa.table({
            "user_id": merged.column(user_col).take(pa.array(starts))
            .cast(pa.int64()),
            "n_events": pa.array(cn[ends] - cn[starts], pa.int64()),
            "n_sessions": pa.array(ends - starts, pa.int64()),
        })

    return _sessions(ds, user_col, ts_col, gap_us, user_rows)


# ---------------------------------------------------------------------------
# Ordered funnels
# ---------------------------------------------------------------------------

_I64_MAX = np.iinfo(np.int64).max
_I64_MIN = np.iinfo(np.int64).min


def funnel_block(tbl: pa.Table, steps, *, user_col: str = "user_id",
                 ts_col: str = "ts", type_col: str = "event_type"
                 ) -> pa.Table:
    """Progressive funnel over a ``user_col``-sorted block: per user,
    the first ``steps[0]`` event, then the first ``steps[1]`` strictly
    after it, and so on. Returns (user_id, steps_reached). len(steps)
    vectorized passes over the whole block — segmented mins via
    ``np.minimum.reduceat`` — no per-user Python."""
    import pyarrow.compute as pc

    if tbl.num_rows == 0:
        return pa.table({user_col: pa.array([], pa.int64()),
                         "steps_reached": pa.array([], pa.int64())})
    starts, ends = group_runs(tbl, [user_col])
    uid = tbl.column(user_col).to_numpy()
    ts = tbl.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
    run_idx = np.repeat(np.arange(len(starts)), ends - starts)
    thr = np.full(len(starts), _I64_MIN)
    reached_steps = np.zeros(len(starts), np.int64)
    for step in steps:
        is_step = pc.equal(tbl.column(type_col),
                           pa.scalar(step)).to_numpy(zero_copy_only=False)
        cand = np.where(is_step & (ts > thr[run_idx]), ts, _I64_MAX)
        m = np.minimum.reduceat(cand, starts)
        reached = m < _I64_MAX
        reached_steps += reached
        thr = np.where(reached, m, _I64_MAX)
    return pa.table({user_col: pa.array(uid[starts], pa.int64()),
                     "steps_reached": pa.array(reached_steps, pa.int64())})


def funnel_steps(ds, steps, *, user_col: str = "user_id",
                 ts_col: str = "ts", type_col: str = "event_type"):
    """Distributed ordered funnel: one range shuffle by user, then
    :func:`funnel_block` per block. Users straddling block boundaries
    resolve through sorted_map_groups' raw-row residue — bounded by
    per-user matching-event counts (no finite mergeable summary exists
    for progressive matching, so shipping the straddling user's rows IS
    the standard distributed-funnel plan)."""
    def block_fn(tbl: pa.Table) -> pa.Table:
        return funnel_block(tbl, steps, user_col=user_col,
                            ts_col=ts_col, type_col=type_col)

    return sorted_map_groups(ds, [user_col], block_fn)
