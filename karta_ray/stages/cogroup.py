"""Two-sided co-group: one sorted co-shuffle of two side-tagged inputs.

The as-of, band, raster-tile and equi joins all bring two row sets
together by key. Ray's generic hash join pays a fixed aggregator cost
that dominates when the join itself is cheap, so each of them runs as
ONE range shuffle of both sides instead:

1. **sides** — each side's batches go through its ``prep`` (two
   sources), or one source is scanned once and ``split`` into both
   sides in the same task (the self-joins of one event stream);
2. **tagging** — every row gets ``__side`` (int8: 0 = right, 1 =
   left) and typed nulls for the other side's columns, so the union
   has one schema. The two side schemas are read once on the driver
   by applying ``prep`` to the source's empty result;
3. **grouping** — :func:`~.agg.sorted_map_groups` sorts by ``keys``
   then ``__side`` (right rows first within a key) and runs
   ``block_fn`` once per sorted block of complete key groups.

Under skew (``spread_left``) a key group straddling sorted blocks
splits across sub-residues: its right rows REPLICATE to each and its
left rows spread round-robin (:func:`_residue_sharder`), so
a hot key costs |right| + |left|/shards rows per residue task. That is
the boundary replication of adaptive-replication spatial joins plus
the skew split of FP-Hadoop; it is exact for any ``block_fn`` whose
answer for a left row depends only on that row and its group's
complete right set.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.empty import empty_like

SIDE = "__side"
RESIDUE_SHARDS = 8


def int64_values(col) -> np.ndarray:
    """An integer or timestamp column as numpy int64 (timestamps in
    microseconds)."""
    arr = col.to_numpy(zero_copy_only=False)
    if arr.dtype.kind == "M":
        arr = arr.astype("datetime64[us]")
    return arr.astype(np.int64)


def split_prep(split_fn, prep_left, prep_right):
    """The ``prep`` for :func:`tagged`/:func:`cogroup`: the per-side
    pair, or, when ``split_fn(batch) -> (left_batch, right_batch)``
    splits one source, a ``split`` that preps both halves."""
    if split_fn is None:
        return prep_left, prep_right

    def split(batch: pa.Table):
        lb, rb = split_fn(batch)
        return prep_left(lb), prep_right(rb)

    return split


def tagged(left, right, prep):
    """The union of both prepped sides, tagged ``__side`` and padded
    with typed nulls for the other side's columns: left columns first,
    then right-only columns, then ``__side``.

    ``prep=(prep_left, prep_right)`` maps the batches of the two
    sources; with ``right=None``, ``prep=split`` maps each batch of the
    one source to ``(left_batch, right_batch)``. A column both sides
    carry must have one type on both. The side schemas come from
    ``prep`` applied to each source's ``state.empty.empty_result``."""
    if right is None:
        lz, rz = prep(empty_like(left))
    else:
        lz, rz = prep[0](empty_like(left)), prep[1](empty_like(right))
    types = {f.name: f.type for f in rz.schema}
    for f in lz.schema:
        if types.setdefault(f.name, f.type) != f.type:
            raise ValueError(f"cogroup: column {f.name!r} is "
                             f"{f.type} on the left, {types[f.name]} "
                             f"on the right")
    names = list(dict.fromkeys(lz.column_names + rz.column_names))
    names_out = names + [SIDE]

    def tag(batch: pa.Table, side: int) -> pa.Table:
        n = batch.num_rows
        cols = [batch.column(c) if c in batch.column_names
                else pa.nulls(n, types[c]) for c in names]
        cols.append(pa.array(np.full(n, side, np.int8)))
        return pa.Table.from_arrays(cols, names_out)

    if right is None:
        def tag_split(batch: pa.Table) -> pa.Table:
            lb, rb = prep(batch)
            return pa.concat_tables([tag(lb, 1), tag(rb, 0)])

        return left.map_batches(tag_split, batch_format="pyarrow",
                                zero_copy_batch=True)
    return (left.map_batches(lambda b: tag(prep[0](b), 1),
                             batch_format="pyarrow", zero_copy_batch=True)
            .union(right.map_batches(lambda b: tag(prep[1](b), 0),
                                     batch_format="pyarrow",
                                     zero_copy_batch=True)))


def _residue_sharder(keys: list):
    """The ``residue_sharder`` (see :func:`~.agg.sorted_map_groups`) of
    ``spread_left``: each exported key group's left rows (``__side`` 1)
    split round-robin across ``RESIDUE_SHARDS`` sub-residues, and its
    right rows REPLICATE to all of them. Each sub-residue then produces
    exactly its share of the final rows with no cross-shard combine; a
    hot group costs ``|right| + |left| / RESIDUE_SHARDS`` per residue
    task instead of O(group) on one node.

    Shard bases derive from a 64-bit blake2b digest of the group's KEY
    VALUES, so fragments of one group exported from different blocks
    land in consistent sub-residues, and distinct groups share a base
    only on a digest collision.
    """
    from ..functions.text import hash_bytes_u64
    from .agg import group_runs

    shards = RESIDUE_SHARDS
    # keep base * shards + (shards - 1) below 2^63
    shift = np.uint64(shards.bit_length() + 1)

    def sharder(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("_rshard",
                                       pa.array([], type=pa.int64()))
        starts, ends = group_runs(batch, keys)
        side = batch.column(SIDE).to_numpy(zero_copy_only=False)
        kreprs = [batch.column(k).take(pa.array(starts)).to_pylist()
                  for k in keys]
        digests = hash_bytes_u64([repr(t).encode() for t in zip(*kreprs)])
        bases = (digests >> shift).astype(np.int64) * shards
        idx_parts, shard_parts = [], []
        for run, (s, e) in enumerate(zip(starts, ends)):
            base = bases[run]
            rs = side[s:e]
            li = np.flatnonzero(rs == 1).astype(np.int64) + s
            ri = np.flatnonzero(rs != 1).astype(np.int64) + s
            if len(li):
                idx_parts.append(li)
                shard_parts.append(
                    base + np.arange(len(li), dtype=np.int64) % shards)
            if len(ri):
                idx_parts.append(np.repeat(ri, shards))
                shard_parts.append(
                    base + np.tile(np.arange(shards, dtype=np.int64),
                                   len(ri)))
        idx = np.concatenate(idx_parts)
        sh = np.concatenate(shard_parts).astype(np.int64)
        return (batch.take(pa.array(idx))
                .append_column("_rshard", pa.array(sh)))

    return sharder


def cogroup(left, right, *, prep, keys: list, block_fn, sort_keys=None,
            spread_left: bool = False):
    """Co-group two sides by ``keys``: :func:`tagged` sides through one
    :func:`~.agg.sorted_map_groups`. ``block_fn`` gets sorted blocks of
    complete key groups, rows ordered by ``sort_keys`` (default
    ``keys + ["__side"]``: right rows before left rows within a key).
    ``spread_left=True`` shards a straddling group's left rows across
    sub-residues and replicates its right rows to each; ``block_fn``
    must then answer each left row from its group's right rows alone."""
    from .agg import sorted_map_groups

    return sorted_map_groups(tagged(left, right, prep), keys, block_fn,
                             sort_keys=sort_keys or keys + [SIDE],
                             residue_sharder=(_residue_sharder(keys)
                                              if spread_left else None))
