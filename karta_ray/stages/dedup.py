"""Deduplication stages: exact, n-gram Jaccard, MinHash+LSH, SimHash.

Shapes (all Ray-Data-native):
- exact:        groupby(key) -> representative + count (real shuffle;
                unbounded key cardinality).
- ngram-jaccard: shingle -> (shingle, doc, size) rows -> groupby(shingle)
                pair emission -> tree-combined pair counts -> threshold.
                Exact but inherently quadratic in bucket sizes; for
                web-scale corpora cap bucket sizes or use MinHash LSH.
- minhash-lsh:  per-doc signature -> band bucket rows -> groupby(bucket)
                candidate pairs -> signature-estimated similarity filter.
- simhash:      64-bit signature -> 4x16-bit block buckets -> candidate
                pairs -> exact Hamming distance filter.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import text as T
from .agg import tree_sum, truncate_runs
from .lookup import lookup


# ---------------------------------------------------------------------------
# n-gram Jaccard (exact)
# ---------------------------------------------------------------------------

def shingle_rows(batch: pa.Table) -> pa.Table:
    """Per document: distinct hashed n-grams -> rows (sh, doc_id)."""
    ids = batch.column("doc_id").to_numpy()
    texts = batch.column("text").to_pylist()
    shingles = T.char_shingles_batch(texts)
    lens = np.fromiter((len(s) for s in shingles), dtype=np.int64,
                       count=len(shingles))
    return pa.table({
        "sh": pa.array((np.concatenate(shingles) if len(shingles)
                        else np.empty(0, np.uint64)).astype(np.int64)),
        "doc_id": pa.array(np.repeat(ids.astype(np.int64), lens)),
    })


def _emit_pairs_and_sizes(max_df: int):
    def fn(group: pa.Table) -> pa.Table:
        """Per shingle bucket: drop the bucket if its document frequency
        exceeds max_df; otherwise emit candidate pairs (doc_a < doc_b)
        plus one size-contribution sentinel row (doc, -1) per member, so
        pair counts and post-filter set sizes come out of ONE shuffle."""
        ids = np.sort(group.column("doc_id").to_numpy())
        m = len(ids)
        if m > max_df or m == 0:
            return pa.table({"doc_a": pa.array([], pa.int64()),
                             "doc_b": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        ai, bi = np.triu_indices(m, 1)
        da = np.concatenate([ids[ai], ids])
        db = np.concatenate([ids[bi], np.full(m, -1, dtype=np.int64)])
        return pa.table({
            "doc_a": pa.array(da, pa.int64()),
            "doc_b": pa.array(db, pa.int64()),
            "n": pa.array(np.ones(len(da), dtype=np.int64)),
        })
    return fn


NGRAM_TAU = 0.7  # n-gram Jaccard threshold of a near-duplicate pair


def ngram_jaccard_pairs(docs_ds, *, max_df: int = 50):
    """Doc pairs with exact ``T.SHINGLE_N``-gram Jaccard >= ``NGRAM_TAU`` over
    the (doc_id, text) columns, computed over the *rare* shingles
    (document frequency <= max_df).

    The DF cap is what keeps this op sub-quadratic: a shingle present in
    F docs emits F^2/2 candidate pairs, so ubiquitous shingles ("e t",
    " th") would produce billions of pairs at corpus scale while
    carrying no near-dup signal. Near-identical documents still share
    their rare shingles, and both the engine and the SQL oracle apply
    the identical cap, so parity is exact.

    Returns Dataset (doc_a, doc_b, n_shared).
    """
    rows = docs_ds.map_batches(shingle_rows, batch_format="pyarrow")
    from .agg import group_runs, sorted_map_groups

    per_bucket = _emit_pairs_and_sizes(max_df)

    def emit_block(batch: pa.Table) -> pa.Table:
        starts, ends = group_runs(batch, ["sh"])
        outs = [per_bucket(batch.slice(s, e - s))
                for s, e in zip(starts, ends)]
        outs = [o for o in outs if o.num_rows]
        if not outs:
            return pa.table({"doc_a": pa.array([], pa.int64()),
                             "doc_b": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        return pa.concat_tables(outs)

    emitted = sorted_map_groups(rows, ["sh"], emit_block,
                                pre_reduce=truncate_runs(["sh"], max_df))
    counts = tree_sum(emitted, ["doc_a", "doc_b"], ["n"]).materialize()

    # post-filter shingle-set sizes: the sentinel rows (doc, -1) of the
    # same shuffle, looked up per pair side (pair cardinality is
    # DF-capped) — no O(n_docs) driver dict (the r01 scale-killer)
    def split_sizes(batch: pa.Table) -> pa.Table:
        mask = batch.column("doc_b").to_numpy() == -1
        t = batch.filter(pa.array(mask))
        return pa.table({"doc_id": t.column("doc_a"),
                         "sz": pc.cast(t.column("n"), pa.int64())})

    def split_pairs(batch: pa.Table) -> pa.Table:
        mask = batch.column("doc_b").to_numpy() >= 0
        return batch.filter(pa.array(mask))

    pairs = counts.map_batches(split_pairs, batch_format="pyarrow") \
        .materialize()
    if pairs.count() == 0:
        # no candidate pairs (e.g. every shingle above the DF cap): the
        # map stages below would drop the empty input's schema
        import ray.data

        return ray.data.from_blocks([pa.table({
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "n_shared": pa.array([], pa.int64())})])
    sizes = counts.map_batches(split_sizes, batch_format="pyarrow") \
        .materialize()
    pairs = lookup(pairs, sizes, on=["doc_a", "doc_b"], key="doc_id",
                   columns=["sz"], suffix=["_a", "_b"])

    def threshold_filter(batch: pa.Table) -> pa.Table:
        c = batch.column("n").to_numpy().astype(np.float64)
        na = batch.column("sz_a").to_numpy().astype(np.float64)
        nb = batch.column("sz_b").to_numpy().astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            j = c / (na + nb - c)
        keep = np.nonzero(j >= NGRAM_TAU)[0]
        out = batch.select(["doc_a", "doc_b", "n"]).take(
            pa.array(keep, pa.int64()))
        return out.rename_columns(["doc_a", "doc_b", "n_shared"])

    return pairs.map_batches(threshold_filter, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# MinHash + LSH (approximate, the web-scale path)
# ---------------------------------------------------------------------------

def minhash_sig_rows(batch: pa.Table) -> pa.Table:
    """Per doc: ONE row (doc_id, sig as a MINHASH_K*8-byte binary blob —
    binary because Arrow's hash join rejects list payload columns)."""
    from ..functions.arrays import matrix_to_binary_column

    ids = batch.column("doc_id").to_numpy()
    texts = batch.column("text").to_pylist()
    shingles = T.char_shingles_batch(texts)
    sigs = T.minhash_signatures_batch(shingles).astype(np.int64)
    return pa.table({
        "doc_id": pa.array(ids.astype(np.int64)),
        "sig": matrix_to_binary_column(sigs),
    })


def _band_rows(bands: int, rows: int):
    def fn(batch: pa.Table) -> pa.Table:
        """(band, key, doc_id) only — 24 bytes/row through the shuffle
        instead of the full 128-int signature replicated per band (the
        r01 16x amplification)."""
        from ..functions.arrays import binary_column_to_matrix

        ids = batch.column("doc_id").to_numpy()
        sigs = binary_column_to_matrix(batch.column("sig"), np.int64,
                                       bands * rows)
        nb = len(ids)
        keys = T.band_keys_batch(sigs.view(np.uint64), bands,
                                 rows).astype(np.int64)
        return pa.table({
            "band": pa.array(np.tile(np.arange(bands, dtype=np.int64), nb)),
            "key": pa.array(keys.ravel()),
            "doc_id": pa.array(np.repeat(ids.astype(np.int64), bands)),
        })
    return fn


LSH_MAX_BUCKET = 200
LSH_BANDS = 16


def bucket_pairs_block(id_col: str, pair_cols: tuple, max_bucket: int):
    """Block fn for ``sorted_map_groups`` over a (band, key)-sorted
    block: per bucket run of at most ``max_bucket`` rows, the
    (a < b) pairs of its unique ``id_col`` values as ``pair_cols`` plus
    ``n`` = 1. A bucket above the cap is a hash pileup, not a near-dup
    signal, and is skipped: the standard LSH bucket-size cap, which
    keeps the stage sub-quadratic. One numpy pass finds the runs and a
    small loop over runs (not one Ray dispatch per bucket) emits the
    pairs."""
    from .agg import group_runs

    def fn(block: pa.Table) -> pa.Table:
        ids_all = block.column(id_col).to_numpy()
        starts, ends = group_runs(block, ["band", "key"])
        out_a, out_b = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for s, e in zip(starts, ends):
            if e - s < 2 or e - s > max_bucket:
                continue
            ids = np.unique(ids_all[s:e])
            ai, bi = np.triu_indices(len(ids), 1)
            out_a.append(ids[ai])
            out_b.append(ids[bi])
        a = np.concatenate(out_a).astype(np.int64)
        return pa.table({
            pair_cols[0]: pa.array(a),
            pair_cols[1]: pa.array(np.concatenate(out_b).astype(np.int64)),
            "n": pa.array(np.ones(len(a), dtype=np.int64)),
        })

    return fn


_EST_CHUNK = 8192


def minhash_lsh_pairs(docs_ds, *, threshold: float = 0.6):
    """Near-dup pairs of the (doc_id, text) columns via MinHash banding
    (``MINHASH_K`` permutations in ``LSH_BANDS`` bands).

    Shape: per-doc signature (once) -> id-only band rows (24 B/row, no
    signature amplification through the bucket shuffle) -> bucket
    candidate pairs -> cross-band dedup (``sorted_sum``: a range
    shuffle, safe for unbounded pair cardinality) -> each candidate's
    two signatures attached by :func:`~karta_ray.stages.lookup.lookup`
    (broadcast while the signature table fits, else hash-joined:
    traffic bounded by the candidate count, far below the 16x per-band
    signature replication this replaced) -> similarity estimated from
    full-signature agreement -> threshold."""
    from ..functions.arrays import binary_column_to_matrix
    from .agg import sorted_map_groups, sorted_sum

    k = T.MINHASH_K
    sigs = docs_ds.map_batches(minhash_sig_rows,
                               batch_format="pyarrow").materialize()
    band_r = sigs.map_batches(_band_rows(LSH_BANDS, k // LSH_BANDS),
                              batch_format="pyarrow")
    cand = sorted_map_groups(
        band_r, ["band", "key"],
        bucket_pairs_block("doc_id", ("doc_a", "doc_b"), LSH_MAX_BUCKET),
        pre_reduce=truncate_runs(["band", "key"], LSH_MAX_BUCKET))
    pairs = sorted_sum(cand, ["doc_a", "doc_b"], ["n"])
    pairs = lookup(pairs, sigs, on=["doc_a", "doc_b"], key="doc_id",
                   columns=["sig"], suffix=["_a", "_b"])

    def estimate(batch: pa.Table) -> pa.Table:
        sa = binary_column_to_matrix(batch.column("sig_a"), np.int64, k)
        sb = binary_column_to_matrix(batch.column("sig_b"), np.int64, k)
        # sa/sb are buffer views over the batch (no fresh gather); the
        # chunked equality avoids one big boolean temporary
        n = len(sa)
        est = np.empty(n, dtype=np.float64)
        eq = np.empty((min(_EST_CHUNK, max(n, 1)), k), dtype=bool)
        for s in range(0, n, _EST_CHUNK):
            e = min(s + _EST_CHUNK, n)
            m = e - s
            np.equal(sa[s:e], sb[s:e], out=eq[:m])
            est[s:e] = eq[:m].mean(axis=1)
        keep = np.nonzero(est >= threshold)[0]
        out = batch.select(["doc_a", "doc_b"]).take(
            pa.array(keep, pa.int64()))
        return out.append_column("est_sim",
                                 pa.array(est[keep], pa.float64()))

    return pairs.map_batches(estimate, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def simhash_rows(batch: pa.Table) -> pa.Table:
    """Per doc: 64-bit SimHash over token hashes -> 4 x 16-bit block
    bucket rows.  Signatures come from the vectorized
    :func:`functions.text.simhash_batch` (md5 token hashes, so a DuckDB
    oracle can mirror every bit)."""
    ids = batch.column("doc_id").to_numpy()
    texts = batch.column("text").to_pylist()
    sigs = T.simhash_batch(texts)
    n = len(texts)
    sig_i64 = sigs.view(np.int64)
    blocks = np.arange(4, dtype=np.uint64)
    keys = ((sigs[:, None] >> (np.uint64(16) * blocks[None, :]))
            & np.uint64(0xFFFF)).astype(np.int64)
    return pa.table({
        "block": pa.array(np.tile(np.arange(4, dtype=np.int64), n)),
        "key": pa.array(keys.ravel()),
        "doc_id": pa.array(np.repeat(ids.astype(np.int64), 4)),
        "sig": pa.array(np.repeat(sig_i64, 4)),
    })


SIMHASH_MAX_BUCKET = 500
SIMHASH_MAX_HAMMING = 3  # largest Hamming distance of a near-dup pair


def _simhash_pairs():
    def fn(group: pa.Table) -> pa.Table:
        if group.num_rows > SIMHASH_MAX_BUCKET:
            return pa.table({"doc_a": pa.array([], pa.int64()),
                             "doc_b": pa.array([], pa.int64()),
                             "hamming": pa.array([], pa.int64())})
        ids = group.column("doc_id").to_numpy()
        sigs = group.column("sig").to_numpy().astype(np.int64).view(np.uint64)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        sigs = sigs[order]
        m = len(ids)
        if m < 2:
            return pa.table({"doc_a": pa.array([], pa.int64()),
                             "doc_b": pa.array([], pa.int64()),
                             "hamming": pa.array([], pa.int64())})
        ai, bi = np.triu_indices(m, 1)
        h = T.hamming64(sigs[ai], sigs[bi])
        keep = (h <= SIMHASH_MAX_HAMMING) & (ids[ai] != ids[bi])
        return pa.table({
            "doc_a": pa.array(ids[ai][keep], pa.int64()),
            "doc_b": pa.array(ids[bi][keep], pa.int64()),
            "hamming": pa.array(h[keep], pa.int64()),
        })
    return fn


def simhash_pairs(docs_ds):
    """Near-dup pairs of the (doc_id, text) columns with SimHash Hamming
    distance <= ``SIMHASH_MAX_HAMMING``; 16-bit block bucketing
    guarantees recall for distances <= 3 (pigeonhole over 4 blocks)."""
    rows = docs_ds.map_batches(simhash_rows, batch_format="pyarrow")
    from .agg import group_runs, sorted_map_groups, tree_agg

    per_group = _simhash_pairs()

    def pairs_block(batch: pa.Table) -> pa.Table:
        starts, ends = group_runs(batch, ["block", "key"])
        outs = [per_group(batch.slice(s, e - s))
                for s, e in zip(starts, ends)]
        outs = [o for o in outs if o.num_rows]
        if not outs:
            return pa.table({"doc_a": pa.array([], pa.int64()),
                             "doc_b": pa.array([], pa.int64()),
                             "hamming": pa.array([], pa.int64())})
        return pa.concat_tables(outs)

    pairs = sorted_map_groups(
        rows, ["block", "key"], pairs_block,
        pre_reduce=truncate_runs(["block", "key"], SIMHASH_MAX_BUCKET))
    return tree_agg(pairs, ["doc_a", "doc_b"], [("hamming", "min")])
