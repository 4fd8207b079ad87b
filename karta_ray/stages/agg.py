"""Partial + driver-fold aggregation for bounded-cardinality groupbys.

Ray Data's ``groupby().sum()`` runs a sort-based all-to-all shuffle whose
fixed overhead dominates when the post-partial data is small (4-6x
slower than :func:`tree_agg` on the bench workloads, measured). For
aggregates whose group count is bounded (per-(polygon, cell) counts,
grid bins, per-language stats), a partial aggregate per block inside
one ``map_batches`` run, folded on the driver as the blocks stream in,
costs one executor run and no barrier.

For unbounded keys (exact dedup on url/text at 10^12 rows) keep
``ds.groupby`` — the real hash/sort shuffle is the right primitive there.
"""

from __future__ import annotations

import pyarrow as pa


def _make_combine(keys: list, col_aggs: list):
    def combine(batch: pa.Table) -> pa.Table:
        g = batch.group_by(keys).aggregate([(c, a) for c, a in col_aggs])
        # pyarrow names aggregated columns "<col>_<agg>"; restore the
        # input names so the combine is idempotent (sum-of-sums,
        # max-of-maxes, ...)
        rename = {f"{c}_{a}": c for c, a in col_aggs}
        return g.rename_columns([rename.get(n, n) for n in g.column_names]) \
                .select(keys + [c for c, _ in col_aggs])
    return combine


FLUSH_ROWS = 65_536  # driver fold buffer floor, in partial rows


def stream_fold(parts, combine, *, flush_rows: int = FLUSH_ROWS):
    """Run ``parts`` once and fold its non-empty blocks on the driver as
    they stream in, re-combining with the running result whenever the
    new rows reach max(``flush_rows``, groups so far): O(partial rows)
    driver work, memory bounded by groups plus one buffer. ``combine``
    must be associative and idempotent. ``None`` if every block is empty."""
    import ray

    buf, groups, buffered = [], 0, 0
    for bundle in parts.iter_internal_ref_bundles():
        # skip empty blocks: Ray's are schema-less and break the concat
        for block in ray.get([r for r, meta in bundle.blocks
                              if meta.num_rows != 0]):
            buf.append(block)
            buffered += block.num_rows
            if buffered >= max(flush_rows, groups):
                buf = [combine(pa.concat_tables(buf))]
                groups, buffered = buf[0].num_rows, 0
    return combine(pa.concat_tables(buf)) if buf else None


def tree_agg(ds, keys: list, col_aggs: list):
    """Combine a Dataset of partial rows into one row per key group with
    associative per-column aggregations (``sum``/``max``/``min``), in
    ONE Ray Data execution: each block is combined in a fused
    ``map_batches`` (<= groups rows out) and :func:`stream_fold` folds
    those partials on the driver. The result wraps the folded table as
    one block (``ray.data.from_blocks``: no remote metadata task, unlike
    ``from_arrow``), so it knows its schema and
    ``to_arrow_refs()``/``take_all()``/``to_pandas()`` never re-run the
    aggregate; an empty input keeps the dtype-strict schema."""
    import ray.data

    combine = _make_combine(keys, col_aggs)
    out = stream_fold(ds.map_batches(combine, batch_format="pyarrow",
                                     zero_copy_batch=True), combine)
    if out is None:  # map_batches drops an empty block's schema
        schema = ds.schema()
        out = combine(schema.base_schema.empty_table()) if schema else pa.table({})
    return ray.data.from_blocks([out])


def tree_sum(ds, keys: list, sum_cols: list):
    """tree_agg specialization: every column summed."""
    return tree_agg(ds, keys, [(c, "sum") for c in sum_cols])


def group_runs(batch: pa.Table, keys: list):
    """(starts, ends) index arrays of the key runs in a keys-sorted
    table — the vectorized replacement for per-group dispatch."""
    import numpy as np

    n = batch.num_rows
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for k in keys:
        c = batch.column(k).to_numpy()
        change[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(change).astype(np.int64)
    ends = np.append(starts[1:], n).astype(np.int64)
    return starts, ends


def _truncate_runs(table: pa.Table, keys: list, cap: int) -> pa.Table:
    """Truncate each key run to ``cap + 1`` rows. An over-cap edge run
    proves its global group exceeds the cap, but it must be exported as
    a still-over-cap TOMBSTONE (cap+1 rows) rather than dropped:
    dropping it would let the group's small fragments from neighboring
    blocks re-assemble into an under-cap impostor in the residue."""
    if table.num_rows == 0:
        return table
    starts, ends = group_runs(table, keys)
    keep = [table.slice(s, min(e - s, cap + 1))
            for s, e in zip(starts, ends)]
    return pa.concat_tables(keep)


def side_residue_sharder(keys: list, *, shards: int = 8,
                         side_col: str = "side", shard_side: int = 1):
    """Build a ``residue_sharder`` (see :func:`sorted_map_groups`) for
    two-sided group bodies that are replication-safe on one side: rows
    with ``side_col == shard_side`` ("per-row output" side, e.g. band
    lefts or sample points) are round-robin split across ``shards``
    sub-residues, every other row (the "shared state" side, e.g. band
    rights or a raster tile) is REPLICATED to all of them. Each
    sub-residue then produces exactly its share of the final rows with
    no cross-shard combine; a hot group costs ``|shared| + |rows| /
    shards`` per residue task instead of O(group) on one node.

    Shard bases derive from a 64-bit blake2b digest of the group's KEY
    VALUES, so fragments of one group exported from different blocks
    land in consistent sub-residues, and distinct groups share a base
    only on a digest collision.
    """
    import numpy as np

    from ..functions.text import hash_bytes_u64

    # keep base * shards + (shards - 1) below 2^63
    shift = np.uint64(shards.bit_length() + 1)

    def sharder(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("_rshard",
                                       pa.array([], type=pa.int64()))
        starts, ends = group_runs(batch, keys)
        side = batch.column(side_col).to_numpy(zero_copy_only=False)
        kreprs = [batch.column(k).take(pa.array(starts)).to_pylist()
                  for k in keys]
        digests = hash_bytes_u64([repr(t).encode() for t in zip(*kreprs)])
        bases = (digests >> shift).astype(np.int64) * shards
        idx_parts, shard_parts = [], []
        for run, (s, e) in enumerate(zip(starts, ends)):
            base = bases[run]
            rs = side[s:e]
            li = np.flatnonzero(rs == shard_side).astype(np.int64) + s
            ri = np.flatnonzero(rs != shard_side).astype(np.int64) + s
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


def sorted_map_groups(ds, keys: list, block_fn, *, pre_reduce=None,
                      max_group_rows=None, sort_keys=None,
                      sort_desc=None, residue_sharder=None):
    """Distributed groupby().map_groups() without Ray's per-group
    dispatch cost (which dominates for many tiny groups: 30-100 us of
    slicing/format conversion per group vs sub-us of useful work).

    1. ``sort(keys)`` — Ray's range shuffle (fast), leaving every key
       on one block EXCEPT keys straddling a block boundary;
    2. ``block_fn`` runs once per BLOCK on a keys-sorted table whose
       groups are all complete (straddler rows removed) — it processes
       every group in the block vectorized (see :func:`group_runs`);
    3. boundary residue: each block's FIRST and LAST key run is
       deferred to one residue block and re-fed through ``block_fn``.

    The residue is only bounded if hot keys cannot export whole blocks
    into it; callers must say which escape applies:

    - ``pre_reduce`` (associative aggregates): applied to each block's
      edge runs BEFORE export, collapsing them to one row per (key,
      block) — residue <= 2 rows x blocks regardless of skew. Must be
      idempotent with ``block_fn`` (sum-of-sums, min-of-mins).
    - ``max_group_rows`` (capped bucket consumers, e.g. LSH buckets
      that drop groups above a size cap): an edge run with MORE than
      this many rows implies its global group exceeds the cap, so it is
      TRUNCATED to ``max_group_rows + 1`` rows before export — still
      over the cap, so the residue's ``block_fn`` drops the whole
      group including any small fragments from neighboring blocks
      (dropping the big fragment outright would let an under-cap
      remnant masquerade as a complete group). Residue <= 2 x (cap+1)
      x blocks rows. ``block_fn`` must treat any group with more than
      ``max_group_rows`` rows as over-cap.

    - ``residue_sharder`` (replication-safe group bodies, e.g. band
      joins): a callable ``(exported_edge_table) -> table + int64
      "_rshard" column``, free to REPLICATE rows, that splits each hot
      group's residue across several sub-residues such that
      ``block_fn`` on each sub-residue alone produces exactly its share
      of the final rows (no cross-shard combine). The residue then runs
      as ``groupby("_rshard").map_groups`` over many bounded groups
      instead of one ``repartition(1)`` block. The sharder must assign
      fragments of the same key group a consistent shard base across
      blocks (derive it from the key values, not block-local state).

    With none of the escapes, a hot key that fills whole blocks lands on
    the single residue block (O(data) worst case) — fine for bounded key
    domains, wrong for corpus-scale skew.

    ``sort_keys`` (default ``keys``) lets callers demand a finer
    WITHIN-group row order (e.g. sort by ``[gid, ord]`` while grouping
    by ``[gid]``) so ``block_fn`` sees each group's rows already
    ordered. ``sort_desc`` (bool per sort key, default all-ascending)
    flips individual sort directions — grouping ``keys`` must still be
    a prefix of ``sort_keys`` but may themselves be descending (run
    detection is order-insensitive).
    """
    if sort_keys is None:
        sort_keys = keys
    if sort_desc is None:
        sort_desc = [False] * len(sort_keys)
    blocks = ds.sort(sort_keys, descending=list(sort_desc)).materialize()
    # Compact near-empty sorted blocks: Ray's sort emits one output
    # block per input block, and fixed per-block scheduling cost makes
    # every DOWNSTREAM sort/stage pay ~5-10 ms per block (measured:
    # 10k rows in 200 blocks sorts in 1.2 s vs 0.05 s in 8) — chains
    # of sorted stages (dedup, connected components, joins) inherit
    # the fragmentation of their first input forever. A non-shuffle
    # repartition preserves the sorted row order, so group contiguity
    # is unchanged; at real data volumes rows/16k exceeds the block
    # count and this never triggers.
    nb = blocks.num_blocks()
    target = int(min(256, blocks.count() // 16384 + 1))
    if nb > 2 * target:
        blocks = blocks.repartition(target).materialize()

    # A group can only straddle a block boundary through a block's FIRST
    # or LAST key run, so those runs are deferred wholesale to the
    # residue (re-sorted there so split runs rejoin); interior runs are
    # complete by construction and processed in place. Purely
    # block-local decisions — no driver-side key collection.
    def interior(batch: pa.Table) -> pa.Table:
        starts, ends = group_runs(batch, keys)
        if len(starts) <= 2:
            return block_fn(batch.slice(0, 0))
        return block_fn(batch.slice(ends[0], starts[-1] - ends[0]))

    def edge_runs(batch: pa.Table) -> pa.Table:
        starts, ends = group_runs(batch, keys)
        if len(starts) <= 1:
            out = batch
        else:
            out = pa.concat_tables([
                batch.slice(0, ends[0]),
                batch.slice(starts[-1], batch.num_rows - starts[-1])])
        if max_group_rows is not None:
            out = _truncate_runs(out, keys, max_group_rows)
        if pre_reduce is not None:
            out = pre_reduce(out)
        return out

    def residue_fn(batch: pa.Table) -> pa.Table:
        return block_fn(batch.sort_by(
            [(k, "descending" if d else "ascending")
             for k, d in zip(sort_keys, sort_desc)]))

    main = blocks.map_batches(interior, batch_size=None,
                              batch_format="pyarrow")
    exported = blocks.map_batches(edge_runs, batch_size=None,
                                  batch_format="pyarrow")
    if residue_sharder is None:
        residue = (exported.repartition(1)
                   .map_batches(residue_fn, batch_size=None,
                                batch_format="pyarrow"))
    else:
        def sharded_residue_fn(t: pa.Table) -> pa.Table:
            return residue_fn(t.drop_columns(["_rshard"]))

        residue = (exported.map_batches(residue_sharder, batch_size=None,
                                        batch_format="pyarrow")
                   .groupby("_rshard")
                   .map_groups(sharded_residue_fn, batch_format="pyarrow"))
    return main.union(residue)


def sorted_agg(ds, keys: list, col_aggs: list):
    """Distributed aggregate-by-key for UNBOUNDED key cardinality with
    many tiny groups: :func:`sorted_map_groups` with Arrow's C++
    ``Table.group_by`` as the per-block combine (no per-group Python,
    no single-block combine; 372k 1-row groups: 16 s with
    ``ds.groupby().aggregate(Sum)`` -> 0.5 s here). Aggregations must
    be associative (sum/min/max)."""
    combine = _make_combine(keys, col_aggs)
    # pre_reduce collapses each block's edge runs to one row per key
    # before export, so hot keys cannot flood the residue block
    return sorted_map_groups(ds, keys, combine, pre_reduce=combine)


def sorted_sum(ds, keys: list, sum_cols: list):
    """:func:`sorted_agg` specialization: every column summed."""
    return sorted_agg(ds, keys, [(c, "sum") for c in sum_cols])
