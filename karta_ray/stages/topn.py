"""Distributed top-N: :func:`global_topk`, the first k rows of a total
order, and :func:`grouped_topn`, the N best rows per key by an order
column (e.g. "top 3 highest-quality documents per language", "3 most
recent orders per customer").

Scale shape — no global sort of the full data, no per-group dispatch:

1. **per-block pre-truncation** (``map_batches``): each input block
   keeps only its own top N per key present in the block. Top-N is
   associative (top-N of a union == top-N of the fragments' top-Ns as
   long as the ordering is total), so this is a lossless combiner; the
   shuffle that follows moves at most ``N x (keys-per-block)`` rows
   per block instead of the whole table.
2. **range shuffle + per-run truncation** via
   :func:`~karta_ray.stages.agg.sorted_map_groups` with the order
   column as a descending/ascending secondary sort key; edge runs are
   pre-truncated again (``pre_reduce``) so a hot key exports at most
   2N rows per block to the boundary residue.

Ties MUST be broken deterministically: callers supply ``tie_cols``
(appended ascending to the sort) so the kept row set is unique —
otherwise different partitionings could keep different, equally-valid
rows and reruns would not be reproducible.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .agg import group_runs, sorted_map_groups


def _sort_tuples(keys: list, descending: list) -> list:
    return [(k, "descending" if d else "ascending")
            for k, d in zip(keys, descending)]


def global_topk(ds, keys: list, k: int, *, descending=None):
    """The first ``k`` rows of ``ds`` in the order of ``keys``
    (``descending``: one bool per key, default all ascending). Each
    block is pruned to its own first ``k`` rows by the full key — a
    block can contribute at most ``k`` winners — so the global sort
    runs on <= k rows per block. Make ``keys`` a total order (append a
    unique id) for a deterministic row set: ties at the k-th row are
    then broken by the trailing keys, whatever the partitioning."""
    if descending is None:
        descending = [False] * len(keys)
    order = _sort_tuples(keys, descending)

    def prune(batch: pa.Table) -> pa.Table:
        return batch.sort_by(order).slice(0, k)

    cand = ds.map_batches(prune, batch_size=None, batch_format="pyarrow")
    return cand.sort(list(keys), descending=list(descending)).limit(k)


def _keep_first_per_run(batch: pa.Table, keys: list, n: int) -> pa.Table:
    """Keep the first ``n`` rows of every key run of an already-sorted
    table — one vectorized mask, no per-group slicing."""
    if batch.num_rows == 0:
        return batch
    starts, ends = group_runs(batch, keys)
    run_id = np.repeat(np.arange(len(starts)), ends - starts)
    pos = np.arange(batch.num_rows, dtype=np.int64) - starts[run_id]
    return batch.filter(pa.array(pos < n))


def grouped_topn(ds, keys: list, order_col: str, n: int, *,
                 descending: bool = True, tie_cols: list = None):
    """Top ``n`` rows per ``keys`` group ordered by ``order_col``
    (``descending=True`` = largest first), ties broken by ``tie_cols``
    ascending. Returns the surviving rows with all input columns.

    Works for unbounded key cardinality: shuffle volume is bounded by
    ``n`` rows per (key, block) after the in-block combiner.
    """
    if tie_cols is None:
        tie_cols = []
    sort_keys = list(keys) + [order_col] + list(tie_cols)
    sort_desc = [False] * len(keys) + [descending] + [False] * len(tie_cols)
    sort_tuples = _sort_tuples(sort_keys, sort_desc)

    def block_prune(batch: pa.Table) -> pa.Table:
        return _keep_first_per_run(batch.sort_by(sort_tuples), keys, n)

    def block_fn(batch: pa.Table) -> pa.Table:
        # rows arrive already sorted by sort_keys (sorted_map_groups
        # contract), so only the run mask is needed
        return _keep_first_per_run(batch, keys, n)

    pruned = ds.map_batches(block_prune, batch_format="pyarrow",
                            zero_copy_batch=True)
    return sorted_map_groups(pruned, keys, block_fn, pre_reduce=block_fn,
                             sort_keys=sort_keys, sort_desc=sort_desc)
