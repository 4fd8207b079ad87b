"""Event streams: session windows, per-user sessions and ordered funnels.

Sessions are watermark-free event-time windows: consecutive events of
one key belong to one session while the gap between them is <= ``gap``
(strict ``>`` opens a new one, the SQL ``lag() > gap`` rule). Event
time only, no processing-time reordering buffer: the sort IS the
reordering.

Execution shape: one range shuffle orders the events by (key, time);
each block turns them into one-event intervals and closes every window
it fully contains (vectorized interval collapse, no per-event Python);
windows straddling block boundaries are resolved in a residue whose
input is PRE-COLLAPSED — each block exports its edge runs as merged
(key, start, end, n) interval partials, so a hot key bursting inside
the session gap costs ONE residue row per block, not its event count.
The merge rule (adjacent disjoint intervals join when ``start -
prev_end <= gap``) is associative over time-contiguous fragments, which
is what makes the partial export sound. Residue volume is bounded by
the hot key's true SESSION count per block — output-sized, the floor
any correct engine pays. :func:`session_windows` emits the windows;
:func:`sessionize` rolls them up per user in the same block function
(every user reaches it whole).

A real unbounded deployment would feed this from periodic parquet
snapshots of the tail (the checkpoint/manifest machinery in
pipelines/manifest.py); the operator itself never needs the full
history because closed sessions are emitted per block.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .agg import group_runs, sorted_map_groups


def _intervals(tbl: pa.Table) -> pa.Table:
    """(user_id, ts, __end_us, __n) intervals, ``ts`` the start in int64
    us: one per raw event row, or ``tbl`` itself if it already is a
    table of intervals (a block's exported edge partials, told apart by
    the private ``__end_us`` column no event stream carries)."""
    if "__end_us" in tbl.column_names:
        return tbl
    ts = tbl.column("ts").to_numpy(zero_copy_only=False)
    if ts.dtype.kind == "M":
        ts = ts.astype("datetime64[us]")
    ts = ts.astype(np.int64)
    return pa.table({"user_id": tbl.column("user_id"), "ts": pa.array(ts),
                     "__end_us": pa.array(ts),
                     "__n": pa.array(np.ones(len(ts), np.int64))})


def _collapse(tbl: pa.Table, gap: int) -> pa.Table:
    """Merge the (user_id, ts)-sorted disjoint intervals of
    :func:`_intervals` whose gap to the previous interval of the same
    user is <= ``gap``."""
    tbl = _intervals(tbl)
    nr = tbl.num_rows
    if nr == 0:
        return tbl
    starts, _ends = group_runs(tbl, ["user_id"])
    s = tbl.column("ts").to_numpy(zero_copy_only=False)
    e = tbl.column("__end_us").to_numpy(zero_copy_only=False)
    n = tbl.column("__n").to_numpy(zero_copy_only=False)
    brk = np.ones(nr, dtype=bool)
    brk[1:] = s[1:] - e[:-1] > gap
    brk[starts] = True
    seg = np.flatnonzero(brk)
    seg_end = np.append(seg[1:], nr) - 1
    return pa.table({
        "user_id": tbl.column("user_id").take(pa.array(seg)),
        "ts": pa.array(s[seg]),
        "__end_us": pa.array(e[seg_end]),
        "__n": pa.array(np.add.reduceat(n, seg)),
    })


def _sessions(ds, gap: int, rows):
    """One (user_id, ts) range shuffle of the events themselves;
    ``rows`` turns each block's collapsed windows — every user whole,
    in time order — into output rows."""
    return sorted_map_groups(
        ds, ["user_id"], lambda t: rows(_collapse(t, gap)),
        sort_keys=["user_id", "ts"],
        pre_reduce=lambda t: _collapse(t, gap))


def session_windows(ds, *, gap: int):
    """Event-time session windows of a (user_id, ts) event stream,
    ``gap`` in microseconds.

    Returns (user_id, session_id, start_us, end_us, n_events) with
    session_id 0-based in time order per user.
    """
    def window_rows(merged: pa.Table) -> pa.Table:
        nr = merged.num_rows
        kstarts, _ = group_runs(merged, ["user_id"])
        # 0-based index within each user run
        base = np.zeros(nr, dtype=np.int64)
        base[kstarts] = kstarts
        base = np.maximum.accumulate(base)
        return pa.table({
            "user_id": merged.column("user_id"),
            "session_id": pa.array(np.arange(nr, dtype=np.int64) - base),
            "start_us": merged.column("ts"),
            "end_us": merged.column("__end_us"),
            "n_events": merged.column("__n"),
        })

    return _sessions(ds, gap, window_rows)


def sessionize(ds, *, gap_us: int):
    """(user_id, n_events, n_sessions) of a (user_id, ts) event stream,
    with a new session whenever the idle gap between consecutive events
    exceeds ``gap_us``: the per-user rollup of :func:`session_windows`."""
    def user_rows(merged: pa.Table) -> pa.Table:
        starts, ends = group_runs(merged, ["user_id"])
        cn = np.concatenate([[0],
                             np.cumsum(merged.column("__n").to_numpy())])
        return pa.table({
            "user_id": merged.column("user_id").take(pa.array(starts))
            .cast(pa.int64()),
            "n_events": pa.array(cn[ends] - cn[starts], pa.int64()),
            "n_sessions": pa.array(ends - starts, pa.int64()),
        })

    return _sessions(ds, gap_us, user_rows)


# ---------------------------------------------------------------------------
# Ordered funnels
# ---------------------------------------------------------------------------

_I64_MAX = np.iinfo(np.int64).max
_I64_MIN = np.iinfo(np.int64).min


def funnel_block(tbl: pa.Table, steps) -> pa.Table:
    """Progressive funnel over a ``user_id``-sorted (user_id, ts,
    event_type) block: per user, the first ``steps[0]`` event, then the
    first ``steps[1]`` strictly after it, and so on. Returns (user_id,
    steps_reached). len(steps) vectorized passes over the whole block —
    segmented mins via ``np.minimum.reduceat`` — no per-user Python."""
    import pyarrow.compute as pc

    if tbl.num_rows == 0:
        return pa.table({"user_id": pa.array([], pa.int64()),
                         "steps_reached": pa.array([], pa.int64())})
    starts, ends = group_runs(tbl, ["user_id"])
    uid = tbl.column("user_id").to_numpy()
    ts = tbl.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
    run_idx = np.repeat(np.arange(len(starts)), ends - starts)
    thr = np.full(len(starts), _I64_MIN)
    reached_steps = np.zeros(len(starts), np.int64)
    for step in steps:
        is_step = pc.equal(tbl.column("event_type"),
                           pa.scalar(step)).to_numpy(zero_copy_only=False)
        cand = np.where(is_step & (ts > thr[run_idx]), ts, _I64_MAX)
        m = np.minimum.reduceat(cand, starts)
        reached = m < _I64_MAX
        reached_steps += reached
        thr = np.where(reached, m, _I64_MAX)
    return pa.table({"user_id": pa.array(uid[starts], pa.int64()),
                     "steps_reached": pa.array(reached_steps, pa.int64())})


def funnel_steps(ds, steps):
    """Distributed ordered funnel: one range shuffle by user, then
    :func:`funnel_block` per block. Users straddling block boundaries
    resolve through sorted_map_groups' raw-row residue — bounded by
    per-user matching-event counts (no finite mergeable summary exists
    for progressive matching, so shipping the straddling user's rows IS
    the standard distributed-funnel plan)."""
    return sorted_map_groups(ds, ["user_id"],
                             lambda tbl: funnel_block(tbl, steps))
