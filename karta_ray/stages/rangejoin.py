"""Distributed band (range) join: all right rows with
``l.on - band <= r.on <= l.on`` per key.

The naive plan is a key-equi join followed by an interval filter — at
web scale the equi join on a hot key is quadratic before the filter
prunes. This shape bounds the candidate set up front by time-bucketing:

1. left rows get bucket ``b = on // band``; right rows are replicated
   to buckets ``b_r`` and ``b_r + 1`` — every in-band (l, r) pair
   shares a bucket with exactly ONE replica of r (r.on in
   [l.on - band, l.on] implies b_l - 1 <= b_r <= b_l), so no pair is
   emitted twice and no cross-bucket lookups exist.
2. one co-group (:func:`~.cogroup.cogroup`) brings each (key, bucket)
   group together with rights sorted before lefts (sort keys
   [key, bucket, __side, on]); per block, every left's in-band right
   range is found with two vectorized ``np.searchsorted`` calls over a
   composite (group, relative-time) int64 key (:func:`_windows`), and
   pairs are emitted with a repeat/arange segment expansion — only
   in-band pairs are materialized, never the full per-group product.

Scale audit: shuffle volume is |left| + 2 |right| rows moved once; a
hot (key, bucket) group's cost is its true output size (the in-band
pairs), which is what any correct band join must produce. Composite
keys need ``rows_per_block * 4 * band < 2^63`` — 10^8-row blocks at a
1-hour band leave 6 orders of magnitude of headroom. Groups straddling
sorted-block boundaries go to a residue that is sharded under skew
(``spread_left``): lefts split round-robin across sub-residues, rights
replicated to each, so a hot group costs ``|rights| + |lefts| /
shards`` rows per residue task instead of O(group) on one node. The
window bodies are replication-safe: each left row's answer depends
only on itself and its group's complete right set.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .cogroup import SIDE, cogroup, int64_values, split_prep


def _bucket_prep(key: str, on: str, band: int, left_cols: list,
                 right_cols: list, right_names: list):
    """(prep_left, prep_right) of the bucket replication: left rows
    keep ``left_cols`` in bucket ``on // band``; right rows repeat into
    that bucket and the next, carrying ``right_cols`` as
    ``right_names``. ``on`` becomes int64."""
    def prep_left(b: pa.Table) -> pa.Table:
        on_i = int64_values(b.column(on))
        return pa.table({key: b.column(key), on: on_i,
                         "bucket": on_i // band}
                        | {c: b.column(c) for c in left_cols})

    def prep_right(b: pa.Table) -> pa.Table:
        on_i = int64_values(b.column(on))
        n = b.num_rows
        rep = pa.array(np.repeat(np.arange(n, dtype=np.int64), 2))
        return pa.table({key: b.column(key).take(rep),
                         on: np.repeat(on_i, 2),
                         "bucket": (np.repeat(on_i // band, 2)
                                    + np.tile(np.array([0, 1], np.int64),
                                              n))}
                        | {name: b.column(c).take(rep)
                           for c, name in zip(right_cols, right_names)})

    return prep_left, prep_right


def _windows(batch: pa.Table, key: str, on: str, band: int):
    """(ri, li, lo, hi) of a co-grouped block: right and left row
    indices, and per left row the range ``ri[lo:hi]`` of its group's
    rights with ``l.on - band <= r.on <= l.on``."""
    from .agg import group_runs

    side = batch.column(SIDE).to_numpy(zero_copy_only=False)
    ri = np.flatnonzero(side == 0)
    li = np.flatnonzero(side == 1)
    if not len(ri) or not len(li):  # one side only: every window empty
        z = np.zeros(len(li), np.int64)
        return ri, li, z, z
    shift = np.int64(1 << int(2 * band + 1).bit_length())  # > 2 band + 1
    starts, _ = group_runs(batch, [key, "bucket"])
    run_id = np.zeros(batch.num_rows, dtype=np.int64)
    run_id[starts[1:]] = 1
    run_id = np.cumsum(run_id)
    on_i = batch.column(on).to_numpy(zero_copy_only=False)
    bucket = batch.column("bucket").to_numpy(zero_copy_only=False)
    aug = run_id * shift + (on_i - bucket * band + band)  # rel in [0, 2 band)
    r_aug = aug[ri]                                 # sorted: rights first
    lo = np.searchsorted(r_aug, aug[li] - band, side="left")
    hi = np.searchsorted(r_aug, aug[li], side="right")
    return ri, li, lo, hi


def band_join(left, right, *, key: str, on: str, band: int,
              left_cols: list, right_cols: list, split_fn=None):
    """Inner band join: every (left, right) pair with equal ``key`` and
    ``left.on - band <= right.on <= left.on``.

    Returns ``left_cols + [key, on, "r_" + on] + ["r_" + c for c in
    right_cols]`` with ``on``/``r_on`` as int64 (microseconds for
    timestamp input).

    ``split_fn``: single-scan mode — see :func:`band_agg`.
    """
    r_on = f"r_{on}"
    r_cols = [f"r_{c}" for c in right_cols]

    def pairs(batch: pa.Table) -> pa.Table:
        ri, li, lo, hi = _windows(batch, key, on, band)
        counts = hi - lo
        lrep = np.repeat(li, counts)
        seg0 = np.repeat(np.cumsum(counts) - counts, counts)
        intra = np.arange(len(lrep), dtype=np.int64) - seg0
        rrep = ri[np.repeat(lo, counts) + intra]
        lrows = batch.take(pa.array(lrep, pa.int64()))
        rrows = batch.take(pa.array(rrep, pa.int64()))
        return pa.table({c: lrows.column(c) for c in left_cols}
                        | {key: lrows.column(key), on: lrows.column(on),
                           r_on: rrows.column(on)}
                        | {c: rrows.column(c) for c in r_cols})

    prep = split_prep(split_fn, *_bucket_prep(key, on, band, left_cols,
                                              right_cols, r_cols))
    return cogroup(left, right, prep=prep, keys=[key, "bucket"],
                   block_fn=pairs, sort_keys=[key, "bucket", SIDE, on],
                   spread_left=True)


def band_agg(left, right, *, key: str, on: str, band: int,
             left_cols: list, agg_cols: list, split_fn=None):
    """Rolling-window aggregate: for EVERY left row, the count and the
    int64 sums of ``agg_cols`` over right rows with equal ``key`` and
    ``left.on - band <= right.on <= left.on`` — the sliding-window
    variant of :func:`band_join` that never materializes pairs.

    ``split_fn``: when both sides derive from ONE dataset (e.g. event
    sub-streams of one table), pass the single source as ``left``
    (``right=None``) and ``split_fn(batch) -> (left_batch,
    right_batch)`` returning the two sides; the source is then scanned
    ONCE and both sides tagged in the same task. ``left_batch`` must
    carry ``key``/``on``/``left_cols``; ``right_batch`` ``key``/``on``/
    ``agg_cols``.

    Same bucket-replication shuffle (|L| + 2 |R| rows moved once), but
    the per-block body answers each left with two ``searchsorted``
    bounds against prefix sums of the in-block rights — O(n log n) per
    block regardless of window density, so a left row with 10^6 in-band
    rights costs the same as one with none. ``agg_cols`` must be int64
    on the right (pre-scale floats to fixed-point upstream) so sums are
    exact and order-independent.

    Zero-match lefts are still emitted (count 0, sums 0): every left
    appears in exactly one (key, bucket) group.

    Returns ``left_cols + [key, on, "n_band"] + ["sum_" + c for c in
    agg_cols]`` with ``on`` as int64.
    """
    def windows(batch: pa.Table) -> pa.Table:
        ri, li, lo, hi = _windows(batch, key, on, band)
        lrows = batch.take(pa.array(li, pa.int64()))
        cols = ({c: lrows.column(c) for c in left_cols}
                | {key: lrows.column(key), on: lrows.column(on),
                   "n_band": pa.array(hi - lo, pa.int64())})
        for c in agg_cols:
            # exact int64 prefix sums over the block's right rows
            vals = (pc.fill_null(batch.column(c).take(pa.array(ri)), 0)
                    .to_numpy(zero_copy_only=False).astype(np.int64))
            cum = np.concatenate([[np.int64(0)],
                                  np.cumsum(vals, dtype=np.int64)])
            cols[f"sum_{c}"] = pa.array(cum[hi] - cum[lo], pa.int64())
        return pa.table(cols)

    prep = split_prep(split_fn, *_bucket_prep(key, on, band, left_cols,
                                              agg_cols, agg_cols))
    return cogroup(left, right, prep=prep, keys=[key, "bucket"],
                   block_fn=windows, sort_keys=[key, "bucket", SIDE, on],
                   spread_left=True)
