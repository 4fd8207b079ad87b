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
from ..state.worker import cached, resolve
from .agg import tree_sum


# ---------------------------------------------------------------------------
# n-gram Jaccard (exact)
# ---------------------------------------------------------------------------

def shingle_rows(batch: pa.Table, *, id_col: str, text_col: str,
                 n: int = 3) -> pa.Table:
    """Per document: distinct hashed n-grams -> rows (sh, doc_id)."""
    ids = batch.column(id_col).to_numpy()
    texts = batch.column(text_col).to_pylist()
    shingles = T.char_shingles_batch(texts, n)
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


def ngram_jaccard_pairs(docs_ds, *, id_col: str = "doc_id",
                        text_col: str = "text", n: int = 3,
                        threshold: float = 0.7, max_df: int = 50):
    """Doc pairs with exact n-gram Jaccard >= threshold, computed over
    the *rare* shingles (document frequency <= max_df).

    The DF cap is what keeps this op sub-quadratic: a shingle present in
    F docs emits F^2/2 candidate pairs, so ubiquitous shingles ("e t",
    " th") would produce billions of pairs at corpus scale while
    carrying no near-dup signal. Near-identical documents still share
    their rare shingles, and both the engine and the SQL oracle apply
    the identical cap, so parity is exact.

    Returns Dataset (doc_a, doc_b, n_shared).
    """
    rows = docs_ds.map_batches(shingle_rows, batch_format="pyarrow",
                               fn_kwargs={"id_col": id_col,
                                          "text_col": text_col, "n": n})
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
                                max_group_rows=max_df)
    counts = tree_sum(emitted, ["doc_a", "doc_b"], ["n"]).materialize()

    # post-filter shingle-set sizes: the sentinel rows (doc, -1) of the
    # same shuffle. Joined back to the pair rows with two small hash
    # joins (pair cardinality is DF-capped) — no O(n_docs) driver dict
    # (the r01 scale-killer).
    def split_sizes(batch: pa.Table) -> pa.Table:
        mask = batch.column("doc_b").to_numpy() == -1
        t = batch.filter(pa.array(mask))
        return pa.table({"doc_id": t.column("doc_a"),
                         "sz": pc.cast(t.column("n"), pa.int64())})

    def split_pairs(batch: pa.Table) -> pa.Table:
        mask = batch.column("doc_b").to_numpy() >= 0
        return batch.filter(pa.array(mask))

    sizes = counts.map_batches(split_sizes, batch_format="pyarrow")
    pairs = counts.map_batches(split_pairs, batch_format="pyarrow") \
        .materialize()
    if pairs.count() == 0:
        # no candidate pairs at all (e.g. every shingle above the DF
        # cap): Dataset.join cannot handle a schema-less empty side
        import ray.data

        return ray.data.from_blocks([pa.table({
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "n_shared": pa.array([], pa.int64())})])
    # partitions sized to the pair volume: Ray's hash join fails on
    # empty (schema-less) partitions when a side has few distinct keys
    np_ = 8 if pairs.count() >= 50_000 else 1
    j1 = pairs.join(sizes, "inner", num_partitions=np_,
                    on=("doc_a",), right_on=("doc_id",),
                    right_suffix="_a").materialize()
    j2 = j1.rename_columns({"sz": "sz_a"}).join(
        sizes, "inner", num_partitions=np_,
        on=("doc_b",), right_on=("doc_id",)).materialize()

    def threshold_filter(batch: pa.Table) -> pa.Table:
        c = batch.column("n").to_numpy().astype(np.float64)
        na = batch.column("sz_a").to_numpy().astype(np.float64)
        nb = batch.column("sz").to_numpy().astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            j = c / (na + nb - c)
        keep = np.nonzero(j >= threshold)[0]
        out = batch.select(["doc_a", "doc_b", "n"]).take(
            pa.array(keep, pa.int64()))
        return out.rename_columns(["doc_a", "doc_b", "n_shared"])

    return j2.map_batches(threshold_filter, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# MinHash + LSH (approximate, the web-scale path)
# ---------------------------------------------------------------------------

def minhash_sig_rows(batch: pa.Table, *, id_col: str, text_col: str,
                     k: int = 128, n: int = 3) -> pa.Table:
    """Per doc: ONE row (doc_id, sig as a k*8-byte binary blob — binary
    because Arrow's hash join rejects list payload columns)."""
    from ..functions.arrays import matrix_to_binary_column

    ids = batch.column(id_col).to_numpy()
    texts = batch.column(text_col).to_pylist()
    shingles = T.char_shingles_batch(texts, n)
    sigs = T.minhash_signatures_batch(shingles, k).astype(np.int64)
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


def _lsh_candidates(group: pa.Table) -> pa.Table:
    empty = pa.table({"doc_a": pa.array([], pa.int64()),
                      "doc_b": pa.array([], pa.int64()),
                      "n": pa.array([], pa.int64())})
    if group.num_rows > LSH_MAX_BUCKET:
        # oversized bucket: a band key shared by this many documents is
        # not a near-dup signal (hash pileup); skip — standard LSH
        # bucket-size cap, keeps the stage sub-quadratic
        return empty
    ids = np.unique(group.column("doc_id").to_numpy())
    m = len(ids)
    if m < 2:
        return empty
    ai, bi = np.triu_indices(m, 1)
    return pa.table({
        "doc_a": pa.array(ids[ai], pa.int64()),
        "doc_b": pa.array(ids[bi], pa.int64()),
        "n": pa.array(np.ones(len(ai), dtype=np.int64)),
    })


def _lsh_candidates_block(batch: pa.Table) -> pa.Table:
    """Run-vectorized :func:`_lsh_candidates` over a (band, key)-sorted
    block: one numpy pass finds the bucket runs, a small loop over runs
    (not one Ray dispatch per bucket) emits the pairs. Identical
    per-bucket semantics: row-count cap, unique ids, triu pairs."""
    from .agg import group_runs

    did = batch.column("doc_id").to_numpy()
    starts, ends = group_runs(batch, ["band", "key"])
    out_a, out_b = [], []
    for s, e in zip(starts, ends):
        if e - s > LSH_MAX_BUCKET or e - s < 2:
            continue
        ids = np.unique(did[s:e])
        m = len(ids)
        if m < 2:
            continue
        ai, bi = np.triu_indices(m, 1)
        out_a.append(ids[ai])
        out_b.append(ids[bi])
    if not out_a:
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64())})
    da = np.concatenate(out_a).astype(np.int64)
    db = np.concatenate(out_b).astype(np.int64)
    return pa.table({
        "doc_a": pa.array(da),
        "doc_b": pa.array(db),
        "n": pa.array(np.ones(len(da), dtype=np.int64)),
    })


# above this many docs the signature table stops being broadcastable
# and est_sim recovery switches to distributed hash joins
SIG_BROADCAST_MAX_DOCS = 2_000_000  # ~2 GB of signatures

_EST_CHUNK = 8192


def _est_matrix_lookup(mat: np.ndarray, ia: np.ndarray,
                       ib: np.ndarray, k: int) -> np.ndarray:
    """Chunked signature-agreement estimate via index lookup into a
    shared (n_docs, k) matrix. Gathers go into preallocated, reused
    buffers: one big (n_pairs, k) gather would allocate hundreds of MB
    of fresh pages whose first-touch faults dominate wall time on this
    host (see kernels/predicates.winding_number)."""
    n = len(ia)
    est = np.empty(n, dtype=np.float64)
    ch = min(_EST_CHUNK, max(n, 1))
    ba = np.empty((ch, k), dtype=mat.dtype)
    bb = np.empty((ch, k), dtype=mat.dtype)
    eq = np.empty((ch, k), dtype=bool)
    for s in range(0, n, _EST_CHUNK):
        e = min(s + _EST_CHUNK, n)
        m = e - s
        np.take(mat, ia[s:e], axis=0, out=ba[:m])
        np.take(mat, ib[s:e], axis=0, out=bb[:m])
        np.equal(ba[:m], bb[:m], out=eq[:m])
        est[s:e] = eq[:m].mean(axis=1)
    return est


def minhash_lsh_pairs(docs_ds, *, id_col: str = "doc_id",
                      text_col: str = "text", k: int = 128,
                      bands: int = 16, threshold: float = 0.6,
                      pair_dedup: str = "groupby"):
    """Near-dup pairs via MinHash banding.

    Shape: per-doc signature (once) -> id-only band rows (24 B/row, no
    signature amplification through the bucket shuffle) -> bucket
    candidate pairs -> cross-band dedup (tree combine) -> similarity
    estimated from full-signature agreement for the candidates only ->
    threshold.

    Signature recovery for candidates is adaptive: below
    SIG_BROADCAST_MAX_DOCS the signature matrix is ray.put once and
    candidate batches look it up with searchsorted (no extra shuffle);
    above it, candidates hash-join the signature table (two distributed
    joins, traffic bounded by the candidate count — still far below the
    16x per-band signature replication this replaced)."""
    import ray
    import ray.data

    from ..functions.arrays import binary_column_to_matrix
    from .agg import tree_sum

    sigs = docs_ds.map_batches(
        minhash_sig_rows, batch_format="pyarrow",
        fn_kwargs={"id_col": id_col, "text_col": text_col,
                   "k": k}).materialize()
    band_r = sigs.map_batches(_band_rows(bands, k // bands),
                              batch_format="pyarrow")
    from .agg import sorted_map_groups

    cand = sorted_map_groups(band_r, ["band", "key"],
                             _lsh_candidates_block,
                             max_group_rows=LSH_MAX_BUCKET)
    # cross-band pair dedup. Default "groupby" is a distributed range
    # shuffle (sorted_sum: sort + per-block Arrow combine + bounded
    # boundary residue) — safe for UNBOUNDED pair cardinality (the
    # corpus-scale shape) without ray.data.groupby's per-tiny-group
    # finalization cost. "tree" folds on the driver: lower fixed
    # latency, only for small candidate sets.
    if pair_dedup == "groupby":
        from .agg import sorted_sum

        uniq = sorted_sum(cand, ["doc_a", "doc_b"], ["n"])
    else:
        uniq = tree_sum(cand, ["doc_a", "doc_b"], ["n"])

    n_docs = sigs.count()
    if n_docs <= SIG_BROADCAST_MAX_DOCS:
        # broadcast path: one zero-copy object-store read per task
        parts = []
        for batch in sigs.iter_batches(batch_format="pyarrow",
                                       batch_size=65536):
            parts.append((batch.column("doc_id").to_numpy(),
                          binary_column_to_matrix(batch.column("sig"),
                                                  np.int64, k)))
        ids = np.concatenate([p[0] for p in parts])
        mat = np.vstack([p[1] for p in parts])
        order = np.argsort(ids, kind="stable")
        ref = ray.put({"ids": ids[order],
                       "mat": np.ascontiguousarray(mat[order])})

        def estimate_bcast(batch: pa.Table, *, ref=ref) -> pa.Table:
            data = cached(resolve, ref)
            da = batch.column("doc_a").to_numpy()
            db = batch.column("doc_b").to_numpy()
            ia = np.searchsorted(data["ids"], da)
            ib = np.searchsorted(data["ids"], db)
            est = _est_matrix_lookup(data["mat"], ia, ib, k)
            keep = np.nonzero(est >= threshold)[0]
            out = batch.select(["doc_a", "doc_b"]).take(
                pa.array(keep, pa.int64()))
            return out.append_column("est_sim",
                                     pa.array(est[keep], pa.float64()))

        return uniq.map_batches(estimate_bcast, batch_format="pyarrow")

    # join path: Dataset.join cannot handle a schema-less empty side
    uniq = uniq.materialize()
    if uniq.count() == 0:
        return ray.data.from_blocks([pa.table({
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "est_sim": pa.array([], pa.float64())})])
    j1 = uniq.join(sigs, "inner", num_partitions=8,
                   on=("doc_a",), right_on=("doc_id",)).materialize()
    j2 = j1.rename_columns({"sig": "sig_a"}).join(
        sigs, "inner", num_partitions=8,
        on=("doc_b",), right_on=("doc_id",)).materialize()

    def estimate(batch: pa.Table) -> pa.Table:
        sa = binary_column_to_matrix(batch.column("sig_a"), np.int64, k)
        sb = binary_column_to_matrix(batch.column("sig"), np.int64, k)
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

    return j2.map_batches(estimate, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def simhash_rows(batch: pa.Table, *, id_col: str, text_col: str,
                 hash_fn: str = "md5") -> pa.Table:
    """Per doc: 64-bit SimHash over token hashes -> 4 x 16-bit block
    bucket rows.  Signatures come from the vectorized
    :func:`functions.text.simhash_batch` (md5 token hashes by default,
    so a DuckDB oracle can mirror every bit)."""
    ids = batch.column(id_col).to_numpy()
    texts = batch.column(text_col).to_pylist()
    sigs = T.simhash_batch(texts, hash_fn=hash_fn)
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


def _simhash_pairs(max_hamming: int):
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
        keep = (h <= max_hamming) & (ids[ai] != ids[bi])
        return pa.table({
            "doc_a": pa.array(ids[ai][keep], pa.int64()),
            "doc_b": pa.array(ids[bi][keep], pa.int64()),
            "hamming": pa.array(h[keep], pa.int64()),
        })
    return fn


def simhash_pairs(docs_ds, *, id_col: str = "doc_id", text_col: str = "text",
                  max_hamming: int = 3):
    """Near-dup pairs with SimHash Hamming distance <= max_hamming;
    16-bit block bucketing guarantees recall for max_hamming <= 3
    (pigeonhole over 4 blocks)."""
    rows = docs_ds.map_batches(simhash_rows, batch_format="pyarrow",
                               fn_kwargs={"id_col": id_col,
                                          "text_col": text_col})
    from .agg import group_runs, sorted_map_groups, tree_agg

    per_group = _simhash_pairs(max_hamming)

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

    pairs = sorted_map_groups(rows, ["block", "key"], pairs_block,
                              max_group_rows=SIMHASH_MAX_BUCKET)
    return tree_agg(pairs, ["doc_a", "doc_b"], [("hamming", "min")])
