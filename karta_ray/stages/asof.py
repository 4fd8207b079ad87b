"""Distributed as-of join (temporal "latest right row at or before each
left row, per key").

Ray Data has no asof primitive; a naive plan is a per-key
``groupby().map_groups`` (per-tiny-group dispatch — the anti-pattern
this repo removed everywhere) or a full interval product. This shape is
one range shuffle plus a residual pass over block-boundary rows:

1. the two sides as one side-tagged stream (:func:`~.cogroup.tagged`:
   ``__side`` right=0, left=1), sorted by ``[key, on, __side]`` — Ray's
   range shuffle. ``__side`` in the sort key makes a right row at
   exactly ``ts`` sort BEFORE the left row it should match (asof
   semantics ``l.on >= r.on``).
2. per sorted block, one vectorized pass (``np.maximum.accumulate``
   over right-row indices + a key-equality guard) matches every left
   row whose as-of right row is in the same block — by construction of
   the global sort this in-block match IS the global match (all
   same-key right rows in earlier blocks are older).
3. the leftovers are tiny: left rows preceding any same-key right row
   in their block ("pending"), and ONE carry row per (key, block) —
   the key's newest right row in that block. A second, much smaller
   asof over pending+carry rows (on :func:`sorted_map_groups`)
   completes the join; a stage-1 block's own carry can never re-match
   its own pending rows (its ``on`` is strictly newer), so no
   double-matching.

Scale audit: the stage-1 shuffle is O(|left|+|right|) rows moved once;
stage 2 moves O(keys x blocks) carries plus the pending prefix runs.
A key whose entire history contains no right row keeps all its left
rows pending — stage 2 is a shuffle (not a single block), so such keys
cost one extra pass, not a hot block; they drop unmatched at the end
(inner join). The per-key sequential bound is the same one any asof
semantics implies: one key's rows must meet in one place.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state.empty import materialize_typed
from .cogroup import SIDE, int64_values, split_prep, tagged

def _match_block(u: np.ndarray, side: np.ndarray):
    """For rows sorted by (key, on, side): (left_idx, right_idx|-1)."""
    n = len(u)
    idx = np.arange(n, dtype=np.int64)
    right_pos = np.where(side == 0, idx, np.int64(-1))
    last_right = np.maximum.accumulate(right_pos)
    li = np.nonzero(side == 1)[0]
    m = last_right[li]
    safe = np.maximum(m, 0)
    ok = (m >= 0) & (u[safe] == u[li])
    return li, np.where(ok, m, np.int64(-1))


def _last_right_per_key(u: np.ndarray, side: np.ndarray) -> np.ndarray:
    """Indices of each key's newest right row in a (key, on)-sorted
    block (the per-(key, block) carry)."""
    ri = np.nonzero(side == 0)[0]
    if len(ri) == 0:
        return ri
    ru = u[ri]
    last = np.nonzero(np.concatenate([ru[1:] != ru[:-1], [True]]))[0]
    return ri[last]


def asof_join(left, right, *, key: str, on: str,
              left_cols: list, right_cols: list,
              split_fn=None):
    """Inner as-of join: for every ``left`` row, the newest ``right``
    row with the same ``key`` and ``right.on <= left.on``.

    Returns columns ``left_cols + [key, on, "r_" + on] + ["r_" + c for
    c in right_cols]`` (``on``/``r_on`` as int64 microseconds when the
    input is a timestamp). Left rows with no matching right row are
    dropped.

    ``split_fn``: when both sides are row-disjoint subsets of ONE
    source (the common self-asof, e.g. events vs their own purchase
    sub-stream), pass ``split_fn(batch) -> (left_batch, right_batch)``
    and ``left`` is treated as that single source (``right=None``) —
    each batch is split into both sides in one pass, halving the scan
    and the pre-sort block count.
    """
    r_on = f"r_{on}"
    r_cols = [f"r_{c}" for c in right_cols]
    out_names = list(left_cols) + [key, on, r_on] + r_cols

    def prep_left(b: pa.Table) -> pa.Table:
        return pa.table({key: b.column(key),
                         on: int64_values(b.column(on))}
                        | {c: b.column(c) for c in left_cols})

    def prep_right(b: pa.Table) -> pa.Table:
        return pa.table({key: b.column(key),
                         on: int64_values(b.column(on))}
                        | {rc: b.column(c)
                           for c, rc in zip(right_cols, r_cols)})

    both = tagged(left, right, split_prep(split_fn, prep_left, prep_right))

    def emit_matched(batch: pa.Table, li: np.ndarray,
                     m: np.ndarray) -> pa.Table:
        hit = m >= 0
        lrows = batch.take(pa.array(li[hit]))
        rrows = batch.take(pa.array(m[hit]))
        cols = {c: lrows.column(c) for c in left_cols}
        cols[key] = lrows.column(key)
        cols[on] = lrows.column(on)
        cols[r_on] = rrows.column(on)
        for c in r_cols:
            cols[c] = rrows.column(c)
        return pa.table(cols)

    def stage1(batch: pa.Table) -> pa.Table:
        u = batch.column(key).to_numpy(zero_copy_only=False)
        side = batch.column(SIDE).to_numpy(zero_copy_only=False)
        li, m = _match_block(u, side)
        matched = emit_matched(batch, li, m)
        # pending lefts + per-(key, block) carries keep the union
        # schema, marked kind=1; matched rows get kind=0 and the output
        # schema padded into the union columns they don't use
        leftover_idx = np.concatenate([li[m < 0],
                                       _last_right_per_key(u, side)])
        leftover = batch.take(pa.array(np.sort(leftover_idx)))
        matched_pad = matched.append_column(
            SIDE, pa.array(np.full(matched.num_rows, 2, dtype=np.int8)))
        pad_null = pa.nulls(matched.num_rows, pa.int64())
        for name in leftover.column_names:
            if name not in matched_pad.column_names:
                matched_pad = matched_pad.append_column(name, pad_null)
        leftover_pad = leftover
        for name in matched_pad.column_names:
            if name not in leftover_pad.column_names:
                leftover_pad = leftover_pad.append_column(
                    name, pa.nulls(leftover_pad.num_rows, pa.int64()))
        order = matched_pad.column_names
        return pa.concat_tables([matched_pad, leftover_pad.select(order)])

    # one execution: stage1 maps per-block over the sort's output plan
    # (batch_size=None = whole sorted block); materialized because both
    # the matched and leftover branches read it
    s1 = materialize_typed(
        both.sort([key, on, SIDE])
        .map_batches(stage1, batch_size=None, batch_format="pyarrow"))

    def keep_matched(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column(SIDE), 2)) \
                    .select(out_names)

    def keep_leftover(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.not_equal(batch.column(SIDE), 2)) \
                    .select([key, on, SIDE] + left_cols + r_cols)

    matched = s1.map_batches(keep_matched, batch_format="pyarrow",
                             zero_copy_batch=True)
    leftover = s1.map_batches(keep_leftover, batch_format="pyarrow",
                              zero_copy_batch=True)

    def stage2(batch: pa.Table) -> pa.Table:
        u = batch.column(key).to_numpy(zero_copy_only=False)
        side = batch.column(SIDE).to_numpy(zero_copy_only=False)
        li, m = _match_block(u, side)
        return emit_matched(batch, li, m).select(out_names)

    from .agg import sorted_map_groups

    finished = sorted_map_groups(leftover, [key], stage2,
                                 sort_keys=[key, on, SIDE])
    return matched.union(finished)
