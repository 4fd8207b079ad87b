"""Distributed global ranking: row_number / percent_rank / ntile over a
total order — the window-function family Ray Data has no primitive for.

Plan: ``sort(keys)`` (range shuffle) -> per-block row counts (read
from the materialized blocks' metadata; the driver never sees row data)
-> exclusive prefix offsets -> per-block rank stamping (``offset +
arange``), rebuilt into a Dataset from the stamped block refs.

This is one of the few places the Dataset API genuinely can't express
the semantics (a map_batches fn does not know which sorted block it
holds), so the offset stamping drops to raw Ray tasks over the sorted
Dataset's own block refs. Driver transfer is O(blocks) integers;
data moves only block-local. The sort dominates at scale, as it must.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.empty import materialize_typed


def global_rank(ds, keys: list, *, descending=None):
    """Append 1-based dense ``rnk`` in the total order of ``keys``
    (callers wanting deterministic output must make ``keys`` a total
    order, e.g. by appending a unique id as tiebreak).

    Returns (ranked_dataset, total_rows)."""
    import ray
    import ray.data
    from ray.data.block import BlockAccessor

    if descending is None:
        descending = [False] * len(keys)
    blocks = materialize_typed(ds.sort(keys, descending=list(descending)))

    @ray.remote
    def stamp(blk, off: int) -> pa.Table:
        blk = BlockAccessor.for_block(blk).to_arrow()
        return blk.append_column(
            "rnk",
            pa.array(off + 1 + np.arange(blk.num_rows, dtype=np.int64)))

    refs, counts = [], []
    for bundle in blocks.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            refs.append(ref)
            counts.append(meta.num_rows)
    offs = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    total = int(sum(counts))
    out = ray.data.from_arrow_refs(
        [stamp.remote(r, int(o)) for r, o in zip(refs, offs)])
    return out, total


def ntile_of_rank(rnk: np.ndarray, n: int, k: int) -> np.ndarray:
    """SQL NTILE(k) from 1-based ranks over ``n`` rows: the first
    ``n % k`` tiles get ``ceil(n/k)`` rows, the rest ``floor(n/k)``."""
    i0 = rnk.astype(np.int64) - 1
    size_small, n_big = divmod(n, k)
    size_big = size_small + 1
    cut = n_big * size_big
    big = i0 < cut
    tile = np.empty(len(i0), dtype=np.int64)
    tile[big] = i0[big] // size_big + 1
    if size_small > 0:
        tile[~big] = n_big + (i0[~big] - cut) // size_small + 1
    else:
        tile[~big] = n_big  # n < k: every row is its own (big) tile
    return tile
