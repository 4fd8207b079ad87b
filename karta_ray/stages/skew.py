"""Explicit skew handling for hot groupby keys (salted aggregation).

Dense urban cells make the (cell_id) key distribution heavy-tailed at
web scale: a naive shuffle sends every row of a hot key to one reducer.
Two mitigations used by this engine:

1. **Partial aggregation** (stages/agg.py tree_sum): hot keys contribute
   one partial row per block, not per record — the default for bounded-
   cardinality aggregates; skew is absorbed before any shuffle.
2. **Salted groupby** (this module): when per-key *state* must be
   grouped (map_groups, per-key top-k), hot keys are split into
   ``key + salt`` sub-keys, processed per sub-key, then re-combined.
   Hot keys are detected with a cheap sampled pre-pass.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.text import mix64


def _count_per_key(key_col: str):
    """Per-block (key, n) counting kernel shared by the detector and
    the no-hot-keys fast path."""
    def count(batch: pa.Table) -> pa.Table:
        g = (batch.select([key_col]).group_by([key_col])
             .aggregate([([], "count_all")]))
        return g.rename_columns([key_col, "n"])
    return count


def detect_hot_keys(ds, key_col: str, *, sample_fraction: float = 0.05,
                    hot_fraction: float = 0.01, min_rows: int = 1000,
                    bounded_cardinality: bool = False):
    """Sampled pre-pass: keys whose sampled share exceeds hot_fraction.

    Returns (hot_keys ndarray, sampled_counts dict).  Only the keys
    ABOVE the threshold reach the driver — at most 1/hot_fraction keys
    can each hold >= hot_fraction of the sample, so the transfer is
    bounded regardless of key cardinality.  The per-key counting runs
    as a distributed groupby shuffle with the threshold filter applied
    in the cluster.

    ``bounded_cardinality=True`` is a fast path for keys the CALLER
    knows are few (e.g. zoom-z tile cells, <= 4^z): it uses the
    lighter partial+tree combine and returns every sampled key's count
    — do NOT use it for url/user-grade keys.
    """
    sample = ds.random_sample(sample_fraction, seed=42)

    if bounded_cardinality:
        part = sample.map_batches(_count_per_key(key_col),
                                  batch_format="pyarrow")
        from .agg import tree_sum

        counts = tree_sum(part, [key_col], ["n"]).to_pandas()
        # to_pandas() drops the columns of a Dataset with no rows
        total = counts["n"].sum() if len(counts) else 0
        if total == 0:
            return np.empty(0, dtype=np.int64), {}
        hot = counts[(counts["n"] >= hot_fraction * total)
                     & (counts["n"] >= min_rows * sample_fraction)]
        return (hot[key_col].to_numpy(),
                dict(zip(counts[key_col], counts["n"])))

    # unbounded keys: distributed per-key count via sorted_agg (range
    # shuffle + per-block Arrow combine — no per-tiny-group
    # finalization), then a distributed threshold filter; only the
    # (bounded) survivors are collected
    from .agg import sorted_sum

    def ones(batch: pa.Table) -> pa.Table:
        return pa.table({key_col: batch.column(key_col),
                         "n": pa.array(np.ones(batch.num_rows,
                                               dtype=np.int64))})

    counts = sorted_sum(sample.map_batches(ones, batch_format="pyarrow"),
                        [key_col], ["n"]).materialize()
    total = counts.sum("n") or 0
    if total == 0:
        return np.empty(0, dtype=np.int64), {}
    thresh = max(hot_fraction * total, min_rows * sample_fraction)

    def over_threshold(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy()
        keep = np.nonzero(n >= thresh)[0]
        t = batch.take(pa.array(keep, pa.int64()))
        return pa.table({key_col: t.column(key_col),
                         "n": pc.cast(t.column("n"), pa.int64())})

    survivors = counts.map_batches(over_threshold,
                                   batch_format="pyarrow").to_pandas()
    if survivors.empty:  # and without columns, as above
        return np.empty(0, dtype=np.int64), {}
    return (survivors[key_col].to_numpy(),
            dict(zip(survivors[key_col], survivors["n"])))


def add_salt(ds, key_col: str, hot_keys, *, salts: int = 16):
    """Add a ``salt`` column: 0 for cold keys; hash(row) % salts for hot
    keys (broadcast hot-key set; no shuffle)."""
    hot = np.sort(np.asarray(hot_keys, dtype=np.int64))

    def fn(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_numpy()
        if len(hot) == 0:
            return batch.append_column(
                "salt", pa.array(np.zeros(len(keys), dtype=np.int64)))
        pos = np.searchsorted(hot, keys)
        pos_c = np.minimum(pos, len(hot) - 1)
        is_hot = hot[pos_c] == keys
        # per-row deterministic hash for the salt
        h = mix64(mix64(keys.astype(np.uint64))
                  + np.arange(len(keys), dtype=np.uint64))
        salt = np.where(is_hot, (h % np.uint64(salts)).astype(np.int64), 0)
        return batch.append_column("salt", pa.array(salt, pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def salted_count(ds, key_col: str, *, salts: int = 16,
                 sample_fraction: float = 0.05,
                 bounded_cardinality: bool = False):
    """Per-key row counts with hot keys counted via salted sub-keys then
    re-combined (the canonical salted-shuffle shape)."""
    from .agg import tree_sum

    hot, _ = detect_hot_keys(ds, key_col, sample_fraction=sample_fraction,
                             bounded_cardinality=bounded_cardinality)

    if len(hot) == 0:
        # data-driven skip: with no hot keys every salt would be 0 and
        # the salted sub-aggregate is a pure extra shuffle round —
        # identical result from one combine
        return tree_sum(ds.map_batches(_count_per_key(key_col),
                                       batch_format="pyarrow"),
                        [key_col], ["n"])

    salted = add_salt(ds, key_col, hot, salts=salts)

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([key_col, "salt"])
        g = t.group_by([key_col, "salt"]).aggregate([([], "count_all")])
        return g.rename_columns([key_col, "salt", "n"])

    part = salted.map_batches(partial, batch_format="pyarrow")
    sub = tree_sum(part, [key_col, "salt"], ["n"])  # salted sub-aggregate

    def drop_salt(batch: pa.Table) -> pa.Table:
        return batch.select([key_col, "n"])

    return tree_sum(sub.map_batches(drop_salt, batch_format="pyarrow"),
                    [key_col], ["n"])
