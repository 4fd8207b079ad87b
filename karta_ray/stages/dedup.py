"""Near-duplicate document pairs: n-gram Jaccard, MinHash+LSH, SimHash.

All three are one shape over the (doc_id, text) columns:

1. id-only bucket rows (bucket keys + ``doc_id``, each doc at most once
   per bucket): shingles for n-gram, (band, key) for MinHash's LSH
   bands and SimHash's 16-bit blocks;
2. :func:`candidate_pairs`: one ``sorted_map_groups`` emits the pairs
   of every bucket of at most ``cap`` docs (over-cap edge runs leave as
   ``truncate_runs`` tombstones), one ``sorted_sum`` dedups them into
   (doc_a, doc_b, n), ``n`` the under-cap buckets the pair shares —
   range shuffles both, safe for unbounded pair cardinality;
3. :func:`_verify`: both sides' per-doc value attached by
   :func:`~karta_ray.stages.lookup.lookup`, one vectorized
   score-and-threshold map — Jaccard over shingle-set sizes, signature
   agreement, Hamming distance.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import text as T
from ..state.empty import materialize_typed
from .agg import group_runs, sorted_map_groups, sorted_sum, truncate_runs
from .lookup import lookup

BAND_KEYS = ["band", "key"]  # bucket keys of the MinHash and SimHash rows


def bucket_pairs_block(keys: list, cap: int, diagonal: bool):
    """Block fn for ``sorted_map_groups`` over a ``keys``-sorted block of
    id-only bucket rows: per bucket of at most ``cap`` rows, the (a < b)
    pairs of its ``doc_id`` values as (doc_a, doc_b, n = 1); with
    ``diagonal``, also (a, a, 1) per member, whose sum is a's count of
    under-cap buckets. A bucket above the cap is a pileup, not a
    near-dup signal, and is skipped: the bucket-size cap keeps the stage
    sub-quadratic. One vectorized pass over all buckets of the block."""

    def fn(block: pa.Table) -> pa.Table:
        starts, ends = group_runs(block, keys)
        size = ends - starts
        ids = block.column("doc_id").to_numpy()[np.repeat(size <= cap, size)]
        size = size[size <= cap]
        run = np.repeat(np.arange(len(size)), size)
        ids = ids[np.lexsort((ids, run))]  # ids ascend within each bucket
        # row i pairs with rows first[i] .. end[i] - 1 of its bucket
        end = np.repeat(np.cumsum(size), size)
        first = np.arange(len(ids)) + (0 if diagonal else 1)
        cnt = end - first
        offset = np.repeat(first - np.cumsum(cnt) + cnt, cnt)
        b = ids[offset + np.arange(len(offset))]
        return pa.table({
            "doc_a": pa.array(np.repeat(ids, cnt), pa.int64()),
            "doc_b": pa.array(b, pa.int64()),
            "n": pa.array(np.ones(len(b), dtype=np.int64)),
        })

    return fn


def candidate_pairs(rows, keys: list, cap: int, diagonal: bool):
    """(doc_a, doc_b, n) of the id-only bucket ``rows`` (``keys`` +
    ``doc_id``): ``n`` is the number of buckets of at most ``cap`` docs
    the two share, and with ``diagonal`` the (a, a) rows carry a's count
    of such buckets (the n-gram set sizes, from the same shuffle)."""
    cand = sorted_map_groups(rows, keys,
                             bucket_pairs_block(keys, cap, diagonal),
                             pre_reduce=truncate_runs(keys, cap))
    return sorted_sum(cand, ["doc_a", "doc_b"], ["n"])


def _verify(pairs, docs, score, out: pa.Field):
    """The ``pairs`` (doc_a, doc_b, n) with a < b that pass ``score``, as
    (doc_a, doc_b, ``out``). ``docs`` is the per-doc (doc_id, sig)
    table; both sides' ``sig`` are attached by ``lookup`` and
    ``score(n, sig_a, sig_b)`` returns the (keep mask, ``out`` value)
    arrays of a batch. The result is materialized."""
    pairs = lookup(pairs, docs, on=["doc_a", "doc_b"], key="doc_id",
                   columns=["sig"], suffix=["_a", "_b"])

    def verify(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy()
        b = batch.column("doc_b").to_numpy()
        keep, value = score(batch.column("n").to_numpy(),
                            batch.column("sig_a"), batch.column("sig_b"))
        keep = np.nonzero(keep & (a < b))[0]  # (a, a): a set size
        return pa.table({"doc_a": pa.array(a[keep], pa.int64()),
                         "doc_b": pa.array(b[keep], pa.int64()),
                         out.name: pa.array(value[keep], out.type)})

    return materialize_typed(pairs.map_batches(verify, batch_format="pyarrow"))


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


NGRAM_TAU = 0.7  # n-gram Jaccard threshold of a near-duplicate pair


def _jaccard(n, size_a, size_b):
    """Shared over union shingle count; the value kept is the shared."""
    na = size_a.to_numpy().astype(np.float64)
    nb = size_b.to_numpy().astype(np.float64)
    c = n.astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        return c / (na + nb - c) >= NGRAM_TAU, n


def ngram_jaccard_pairs(docs_ds, *, max_df: int = 50):
    """Doc pairs with exact ``T.SHINGLE_N``-gram Jaccard >= ``NGRAM_TAU`` over
    the (doc_id, text) columns, computed over the *rare* shingles
    (document frequency <= max_df).

    The DF cap is what keeps this op sub-quadratic: a shingle present in
    F docs emits F^2/2 candidate pairs, so ubiquitous shingles ("e t",
    " th") would produce billions of pairs at corpus scale while
    carrying no near-dup signal. Near-identical documents still share
    their rare shingles, and both the engine and the SQL oracle apply
    the identical cap, so parity is exact. The post-cap set sizes are
    the diagonal of the same pair shuffle.

    Returns Dataset (doc_a, doc_b, n_shared).
    """
    rows = docs_ds.map_batches(shingle_rows, batch_format="pyarrow")
    # read twice: the pairs and, from the diagonal, the set sizes
    counts = materialize_typed(
        candidate_pairs(rows, ["sh"], max_df, diagonal=True))
    sizes = (counts.filter(expr="doc_a == doc_b")
             .select_columns(["doc_a", "n"])
             .rename_columns({"doc_a": "doc_id", "n": "sig"}))
    return _verify(counts, sizes, _jaccard, pa.field("n_shared", pa.int64()))


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


def _band_table(ids: np.ndarray, keys: np.ndarray) -> pa.Table:
    """(band, key, doc_id) rows of an (n docs, bands) key matrix — ids
    only, 24 bytes a row through the bucket shuffle, no signature
    replicated per band."""
    n, bands = keys.shape
    return pa.table({
        "band": pa.array(np.tile(np.arange(bands, dtype=np.int64), n)),
        "key": pa.array(keys.ravel().astype(np.int64)),
        "doc_id": pa.array(np.repeat(ids.astype(np.int64), bands)),
    })


LSH_MAX_BUCKET = 200
LSH_BANDS = 16


def _minhash_band_rows(batch: pa.Table) -> pa.Table:
    from ..functions.arrays import binary_column_to_matrix

    sigs = binary_column_to_matrix(batch.column("sig"), np.int64,
                                   T.MINHASH_K)
    keys = T.band_keys_batch(sigs.view(np.uint64), LSH_BANDS,
                             T.MINHASH_K // LSH_BANDS)
    return _band_table(batch.column("doc_id").to_numpy(), keys)


_EST_CHUNK = 8192


def _agreement(threshold: float):
    def score(n, sig_a, sig_b):
        """Share of equal signature entries: the Jaccard estimate."""
        from ..functions.arrays import binary_column_to_matrix

        k = T.MINHASH_K
        sa = binary_column_to_matrix(sig_a, np.int64, k)
        sb = binary_column_to_matrix(sig_b, np.int64, k)
        # sa/sb are buffer views over the batch (no fresh gather); the
        # chunked equality avoids one big boolean temporary
        est = np.empty(len(sa), dtype=np.float64)
        eq = np.empty((min(_EST_CHUNK, max(len(sa), 1)), k), dtype=bool)
        for s in range(0, len(sa), _EST_CHUNK):
            e = min(s + _EST_CHUNK, len(sa))
            np.equal(sa[s:e], sb[s:e], out=eq[:e - s])
            est[s:e] = eq[:e - s].mean(axis=1)
        return est >= threshold, est

    return score


def minhash_lsh_pairs(docs_ds, *, threshold: float = 0.6):
    """Near-dup pairs of the (doc_id, text) columns via MinHash banding
    (``MINHASH_K`` permutations in ``LSH_BANDS`` bands, buckets of at
    most ``LSH_MAX_BUCKET`` docs), the similarity estimated from
    full-signature agreement. Each signature is computed once; the
    bucket shuffle carries ids only, and the candidates' signatures are
    attached afterwards (traffic bounded by the candidate count).

    Returns Dataset (doc_a, doc_b, est_sim)."""
    sigs = materialize_typed(docs_ds.map_batches(minhash_sig_rows,
                                                 batch_format="pyarrow"))
    rows = sigs.map_batches(_minhash_band_rows, batch_format="pyarrow")
    pairs = candidate_pairs(rows, BAND_KEYS, LSH_MAX_BUCKET, diagonal=False)
    return _verify(pairs, sigs, _agreement(threshold),
                   pa.field("est_sim", pa.float64()))


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def simhash_sig_rows(batch: pa.Table) -> pa.Table:
    """Per doc: ONE row (doc_id, 64-bit SimHash as int64) over token
    hashes, from the vectorized :func:`functions.text.simhash_batch`
    (md5 token hashes, so a DuckDB oracle can mirror every bit)."""
    ids = batch.column("doc_id").to_numpy()
    sigs = T.simhash_batch(batch.column("text").to_pylist())
    return pa.table({"doc_id": pa.array(ids.astype(np.int64)),
                     "sig": pa.array(sigs.view(np.int64))})


SIMHASH_MAX_BUCKET = 500
SIMHASH_MAX_HAMMING = 3  # largest Hamming distance of a near-dup pair


def _simhash_block_rows(batch: pa.Table) -> pa.Table:
    """The signature's 4 x 16-bit blocks as (band, key, doc_id) rows."""
    sigs = batch.column("sig").to_numpy().view(np.uint64)
    shift = np.uint64(16) * np.arange(4, dtype=np.uint64)
    keys = (sigs[:, None] >> shift[None, :]) & np.uint64(0xFFFF)
    return _band_table(batch.column("doc_id").to_numpy(), keys)


def _hamming(n, sig_a, sig_b):
    h = T.hamming64(sig_a.to_numpy().view(np.uint64),
                    sig_b.to_numpy().view(np.uint64))
    return h <= SIMHASH_MAX_HAMMING, h


def simhash_pairs(docs_ds):
    """Near-dup pairs of the (doc_id, text) columns with SimHash Hamming
    distance <= ``SIMHASH_MAX_HAMMING``; 16-bit block bucketing
    guarantees recall for distances <= 3 (pigeonhole over 4 blocks),
    in buckets of at most ``SIMHASH_MAX_BUCKET`` docs.

    Returns Dataset (doc_a, doc_b, hamming)."""
    sigs = materialize_typed(docs_ds.map_batches(simhash_sig_rows,
                                                 batch_format="pyarrow"))
    rows = sigs.map_batches(_simhash_block_rows, batch_format="pyarrow")
    pairs = candidate_pairs(rows, BAND_KEYS, SIMHASH_MAX_BUCKET,
                            diagonal=False)
    return _verify(pairs, sigs, _hamming, pa.field("hamming", pa.int64()))
