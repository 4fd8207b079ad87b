"""Bloom-filter semi-join: filter a huge left table by key membership
in a (much smaller, but still too big to ship raw) right key set.

The naive plan — hash-join left against right — shuffles every left
row. Here only rows that *probably* match move:

1. **build**: each right block sets its keys' k double-hashed bit
   positions in a local m-bit bitmap (``m/8`` bytes per block,
   independent of row count); the driver ORs the bitmaps as they
   stream in from one executor run (``agg.stream_fold``; blocks x m/8
   bytes reach it, and right is the small side), and the final bitmap
   is broadcast once via ``ray.put`` — every probe task reads the same
   object-store copy.
2. **probe**: a stateless ``map_batches`` filter keeps left rows whose
   k positions are all set. False-positive rate ~ (1-e^{-kn/m})^k;
   with the default m=2^23, k=4 it stays under 1% up to ~1M keys.
3. **verify** (exact semantics): survivors — true matches plus the
   small false-positive residue — go through one sorted co-shuffle
   against the right key set (see :func:`_verify_filter`), so the
   output is the EXACT semi-join. The shuffle volume is |survivors| +
   |right keys|, not |left|.

Scale audit: left streams (never materialized); the only broadcast is
the m/8-byte bitmap; the verify join's left side is output-sized.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.text import mix64
from ..state.worker import cached, resolve


def _positions(keys: np.ndarray, m_bits: int, n_hashes: int) -> np.ndarray:
    """(n, n_hashes) bit positions by double hashing."""
    x = keys.astype(np.uint64)
    h1 = mix64(x)
    h2 = mix64(x ^ np.uint64(0xD6E8FEB86659FD93)) | np.uint64(1)
    i = np.arange(n_hashes, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None])
            % np.uint64(m_bits)).astype(np.int64)


def build_bloom(right, *, key: str, m_bits: int, n_hashes: int):
    """OR-fold a bitmap over ``right[key]``; returns an ObjectRef to the
    packed uint8 numpy bitmap."""
    import ray

    from .agg import stream_fold

    nbytes = m_bits // 8

    def partial(batch: pa.Table) -> pa.Table:
        bm = np.zeros(nbytes, dtype=np.uint8)
        k = batch.column(key).to_numpy(zero_copy_only=False)
        if len(k):
            pos = _positions(k, m_bits, n_hashes).ravel()
            np.bitwise_or.at(bm, pos >> 3,
                             np.uint8(1) << (pos & 7).astype(np.uint8))
        return pa.table({"bm": pa.array([bm.tobytes()], pa.binary())})

    def combine(batch: pa.Table) -> pa.Table:
        acc = np.zeros(nbytes, dtype=np.uint8)
        for buf in batch.column("bm"):
            acc |= np.frombuffer(buf.as_py(), dtype=np.uint8)
        return pa.table({"bm": pa.array([acc.tobytes()], pa.binary())})

    # each block's bitmap is ORed into the running one as it arrives
    # (flush_rows=1), so the driver holds at most two bitmaps
    merged = stream_fold(right.map_batches(partial, batch_format="pyarrow",
                                           zero_copy_batch=True),
                         combine, flush_rows=1)
    if merged is None:
        return ray.put(np.zeros(nbytes, dtype=np.uint8))
    return ray.put(np.frombuffer(merged.column("bm")[0].as_py(), dtype=np.uint8))


def bloom_semi_join(left, right, *, key: str,
                    m_bits: int = 1 << 23, n_hashes: int = 4,
                    right_distinct: bool = True, exact: bool = True,
                    anti: bool = False):
    """Exact semi-join ``left`` ⋉ ``right`` on int64 ``key``, or the
    anti-join (left rows whose key is NOT in right) with ``anti=True``.

    ``right_distinct=True`` asserts right keys are already unique
    (e.g. a primary key) and skips the dedup shuffle; otherwise the
    right side is group-reduced first. ``exact=False`` skips the
    verify join: for the semi-join it returns the bloom survivors
    (SUPERSET of the true result, FP-rate documented above); for the
    anti-join it returns the bloom misses (SUBSET — blooms have no
    false negatives, so every miss is a definite non-member). The
    anti-join is where the bloom shines: typically most of the corpus
    misses the filter and never enters the verify join at all — only
    the bloom hits (true members + the tiny FP fraction) are joined.
    """
    bm_ref = build_bloom(right, key=key, m_bits=m_bits, n_hashes=n_hashes)

    def make_probe(keep_hits: bool):
        def probe(batch: pa.Table, *, ref=bm_ref) -> pa.Table:
            bm = cached(resolve, ref)
            k = batch.column(key).to_numpy(zero_copy_only=False)
            if not len(k):
                return batch
            pos = _positions(k, m_bits, n_hashes)
            hit = (bm[pos >> 3]
                   & (np.uint8(1) << (pos & 7).astype(np.uint8))
                   ).astype(bool).all(axis=1)
            want = hit if keep_hits else ~hit
            return batch.take(pa.array(np.nonzero(want)[0]))
        return probe

    survivors = left.map_batches(make_probe(True),
                                 batch_format="pyarrow",
                                 zero_copy_batch=True)
    if not exact:
        if anti:
            return left.map_batches(make_probe(False),
                                    batch_format="pyarrow",
                                    zero_copy_batch=True)
        return survivors

    rkeys = right.map_batches(
        lambda b: b.select([key]).rename_columns(["__bloom_rkey"]),
        batch_format="pyarrow", zero_copy_batch=True)
    if not right_distinct:
        # sorted_agg, not ds.groupby().count(): its range shuffle is the
        # repo-wide distinct primitive for unbounded keys
        from .agg import sorted_agg

        rkeys = rkeys.map_batches(
            lambda b: b.append_column(
                "__bloom_n",
                pa.array(np.ones(b.num_rows, dtype=np.int64))),
            batch_format="pyarrow", zero_copy_batch=True)
        rkeys = sorted_agg(rkeys, ["__bloom_rkey"],
                           [("__bloom_n", "sum")]).map_batches(
            lambda b: b.select(["__bloom_rkey"]),
            batch_format="pyarrow", zero_copy_batch=True)

    left_schema = left.schema().base_schema
    if anti:
        misses = left.map_batches(make_probe(False),
                                  batch_format="pyarrow",
                                  zero_copy_batch=True)
        # false positives: bloom hits with no matching right key
        fps = _verify_filter(survivors, rkeys, key, left_schema,
                             keep_matched=False)
        return misses.union(fps)
    return _verify_filter(survivors, rkeys, key, left_schema,
                          keep_matched=True)


def _verify_filter(survivors, rkeys, key: str, left_schema: pa.Schema,
                   keep_matched: bool):
    """Exact membership filter of ``survivors`` against the right key
    set via ONE sorted co-shuffle (both sides tagged and unioned, range
    shuffle by key, per-run vectorized keep/drop) — replaces the
    generic hash join, whose aggregator fixed cost measured ~4x the
    useful work at bench scale (same trade as the as-of and star
    joins). Shuffle volume is |survivors| + |right keys|; per-key runs
    are (left multiplicity + 1) rows, so skew follows the left table's
    own key skew — and a hot left key whose run straddles sorted
    blocks splits across sharded sub-residues (the single right-key
    row replicates, the left rows spread), so the residue is never
    O(hot key) on one node."""
    from .agg import group_runs, side_residue_sharder, sorted_map_groups

    out_cols = left_schema.names

    def tag_left(b: pa.Table) -> pa.Table:
        return b.append_column(
            "__side", pa.array(np.ones(b.num_rows, dtype=np.int8)))

    def tag_right(b: pa.Table) -> pa.Table:
        n = b.num_rows
        cols = {}
        for f in left_schema:
            if f.name == key:
                cols[f.name] = b.column("__bloom_rkey").cast(f.type)
            else:
                cols[f.name] = pa.nulls(n, f.type)
        cols["__side"] = pa.array(np.zeros(n, dtype=np.int8))
        return pa.table(cols)

    unioned = (survivors.map_batches(tag_left, batch_format="pyarrow",
                                     zero_copy_batch=True)
               .union(rkeys.map_batches(tag_right, batch_format="pyarrow",
                                        zero_copy_batch=True)))

    def block_fn(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return tbl.select(out_cols)
        starts, ends = group_runs(tbl, [key])
        side = tbl.column("__side").to_numpy()
        run_idx = np.repeat(np.arange(len(starts)), ends - starts)
        has_right = side[starts] == 0  # right rows sort first in a run
        want = (has_right[run_idx] == keep_matched) & (side == 1)
        return tbl.filter(pa.array(want)).select(out_cols)

    return sorted_map_groups(
        unioned, [key], block_fn, sort_keys=[key, "__side"],
        residue_sharder=side_residue_sharder([key], side_col="__side",
                                             shard_side=1))
