"""Similarity search over an embedding column (list<float>).

- ``ann_topk``: exact brute-force cosine top-k — per-batch numpy matmul
  against a broadcast query matrix, per-batch pruning, tree-combined
  global top-k. The baseline the approximate variants are judged
  against.
- ``ann_ivf_topk``: IVF-style variant — probe only the ``nprobe``
  clusters whose centroids are nearest each query (approximate; the
  100-TB path where scanning every vector is off the table).
- ``cosine_neardup_pairs``: all pairs with cosine >= threshold, exact,
  via blocked matmul of each batch against the broadcast full matrix.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..state.worker import cached, resolve
from .lookup import lookup


def _to_matrix(col) -> np.ndarray:
    from ..functions.arrays import list_column_to_matrix

    return list_column_to_matrix(col, dtype=np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(n == 0, 1.0, n)


class _TopkScorer:
    """map_batches stage: per-batch cosine scores vs all queries, pruned
    to local top-k rows per query, a query's own vec_id excluded. Each
    query scores only the rows whose ``label`` is in its probe set
    (``probe`` None: every row)."""

    def __init__(self, ref, k: int):
        state = resolve(ref)
        self.qids = state["qids"]
        self.qmat = state["qmat"]  # normalized (nq, d)
        self.k = k
        self.probed = state["probe"] is not None
        # Queries are grouped by their probed label SET, so the
        # row-membership mask is built once per distinct set (not once
        # per query), and the cosine scores come from ONE matmul of all
        # queries vs the batch — per-batch cost is O(nq*nb +
        # distinct_sets*nb), flat in query count for query workloads
        # that share probe sets.
        probe = state["probe"] or [None] * len(self.qids)
        groups: dict = {}
        for qi, ls in enumerate(probe):
            groups.setdefault(None if ls is None else frozenset(ls),
                              []).append(qi)
        self.groups = [(None if ls is None else
                        np.fromiter(ls, dtype=np.int64, count=len(ls)), qis)
                       for ls, qis in groups.items()]

    def __call__(self, batch: pa.Table) -> pa.Table:
        vid = batch.column("vec_id").to_numpy()
        emb = _normalize(_to_matrix(batch.column("embedding")))
        lab = batch.column("label").to_numpy() if self.probed else None
        sims = None
        out_q, out_v, out_s = [], [], []
        for labels, qis in self.groups:
            if labels is None:
                idx = np.arange(len(vid))
            else:
                idx = np.nonzero(np.isin(lab, labels))[0]
            if not len(idx):
                continue
            if sims is None:
                sims = self.qmat @ emb.T  # (nq, nb)
            svid = vid[idx]
            for qi in qis:
                s = sims[qi, idx]
                keep = np.nonzero(svid != self.qids[qi])[0]
                if len(keep) == 0:
                    continue
                # stable sort: ties keep batch order
                top = keep[np.argsort(-s[keep], kind="stable")[:self.k]]
                out_q.append(np.full(len(top), self.qids[qi], dtype=np.int64))
                out_v.append(svid[top].astype(np.int64))
                out_s.append(s[top])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "vec_id": pa.array(np.concatenate(out_v)),
            "sim": pa.array(np.concatenate(out_s)),
        })


def _final_topk(k: int):
    def fn(batch: pa.Table) -> pa.Table:
        q = batch.column("query_id").to_numpy()
        v = batch.column("vec_id").to_numpy()
        s = batch.column("sim").to_numpy()
        out_idx = []
        out_rank = []
        for qi in np.unique(q):
            rows = np.nonzero(q == qi)[0]
            # deterministic: sim desc, then vec_id asc
            order = rows[np.lexsort((v[rows], -s[rows]))][:k]
            out_idx.append(order)
            out_rank.append(np.arange(1, len(order) + 1, dtype=np.int64))
        idx = np.concatenate(out_idx)
        out = batch.take(pa.array(idx, pa.int64()))
        return out.append_column("rank", pa.array(np.concatenate(out_rank)))
    return fn


def _scored_topk(emb_ds, qids, qmat, probe, k: int):
    """The scorer over every batch, then one block's exact top-k."""
    ref = ray.put({"qids": np.asarray(qids, dtype=np.int64), "qmat": qmat,
                   "probe": probe})

    def score(batch: pa.Table) -> pa.Table:
        return cached(_TopkScorer, ref, k)(batch)

    part = emb_ds.map_batches(score, batch_format="pyarrow",
                              zero_copy_batch=True)
    return part.repartition(1).map_batches(_final_topk(k),
                                           batch_format="pyarrow")


def ann_topk(emb_ds, query_ids, query_mat, k: int = 10):
    """Exact cosine top-k of every query vs the embedding Dataset, a
    query's own vec_id excluded.

    Returns (query_id, vec_id, sim, rank). Scale: batches stream through
    the scorer; only nq*k rows per batch survive to the final combine.
    """
    qmat = _normalize(np.asarray(query_mat, dtype=np.float64))
    return _scored_topk(emb_ds, query_ids, qmat, None, k)


def ann_ivf_topk(emb_ds, query_ids, query_mat, k: int = 10, *,
                 nprobe: int | None = 3):
    """IVF variant over the ``label`` column's clusters (``nprobe=None``
    probes every cluster — the exact-mode twin, result identical to
    brute-force top-k): compute per-cluster centroids (one small pass,
    partials folded by ``tree_sum`` so the driver holds only the k x d
    result plus one flush buffer), then score each query only against
    its ``nprobe`` nearest clusters."""
    from .kmeans import _label_sum_rows, collect_centroid_sums

    def partial_centroids(batch: pa.Table) -> pa.Table:
        lab = batch.column("label").to_numpy().astype(np.int64)
        emb = _to_matrix(batch.column("embedding"))
        return _label_sum_rows(emb, lab)

    parts = emb_ds.map_batches(partial_centroids, batch_format="pyarrow")
    dim = np.asarray(query_mat).shape[1]  # queries share the corpus dim
    labels, sums, counts = collect_centroid_sums(parts, dim)
    cent = _normalize(sums / counts[:, None])

    qmat = _normalize(np.asarray(query_mat, dtype=np.float64))
    probe = np.argsort(-(qmat @ cent.T), axis=1)[:, :nprobe]
    probe_labels = [{labels[j] for j in row} for row in probe]
    return _scored_topk(emb_ds, query_ids, qmat, probe_labels, k)


def _hyperplanes(dim: int, bits: int) -> np.ndarray:
    rng = np.random.RandomState(7)
    return rng.randn(bits, dim)


def lsh_band_rows(bits: int, bands: int):
    """map_batches fn: (band, key, vec_id) rows — IDS ONLY, 24 B/row.

    The embedding is deliberately NOT carried through the bucket
    shuffle (an embedding column here would amplify shuffle bytes by
    bands x vector size — the mistake minhash r02 fixed); surviving
    candidates recover their vectors afterwards through
    :func:`~karta_ray.stages.lookup.lookup`."""
    rows_per_band = bits // bands

    def sig_rows(batch: pa.Table) -> pa.Table:
        emb = _normalize(_to_matrix(batch.column("embedding")))
        # sized to the embedding dim, built once per worker process
        planes = cached(_hyperplanes, emb.shape[1], bits)
        bitsm = (emb @ planes.T) > 0  # (n, bits)
        vid = batch.column("vec_id").to_numpy().astype(np.int64)
        out_band, out_key, out_id = [], [], []
        for b in range(bands):
            chunk = bitsm[:, b * rows_per_band:(b + 1) * rows_per_band]
            key = (chunk.astype(np.int64)
                   << np.arange(rows_per_band, dtype=np.int64)).sum(axis=1)
            out_band.append(np.full(len(vid), b, dtype=np.int64))
            out_key.append(key)
            out_id.append(vid)
        return pa.table({
            "band": pa.array(np.concatenate(out_band)),
            "key": pa.array(np.concatenate(out_key)),
            "vec_id": pa.array(np.concatenate(out_id)),
        })

    return sig_rows


COS_LSH_MAX_BUCKET = 512


def cosine_neardup_lsh(emb_ds, threshold: float):
    """Near-duplicate pairs via random-hyperplane LSH — the no-broadcast
    scale path.

    Shape (shuffle bytes O(rows x 24 B), no embedding amplification):
    id-only band rows -> bucket candidate pairs via sorted_map_groups
    (range shuffle + per-block run processing, over-cap buckets
    tombstone-truncated) -> cross-band pair dedup (sorted_sum, unbounded
    pair cardinality) -> exact cosine verification of surviving pairs
    only, each pair's two normalized vectors attached by
    :func:`~karta_ray.stages.lookup.lookup` (broadcast while they fit,
    else hash-joined).

    Approximate (recall < 1 for moderate thresholds; near-certain for
    true near-dups with cos >~ 0.95); verification is exact, so emitted
    sims equal the brute-force values.
    """
    from ..functions.arrays import (binary_column_to_matrix,
                                    matrix_to_binary_column)
    from .agg import sorted_map_groups, sorted_sum, truncate_runs
    from .dedup import bucket_pairs_block

    emb_ds = emb_ds.materialize()
    # 32 hyperplane bits in 4 bands of 8
    rows = emb_ds.map_batches(lsh_band_rows(32, 4), batch_format="pyarrow")
    cand = sorted_map_groups(
        rows, ["band", "key"],
        bucket_pairs_block("vec_id", ("vec_a", "vec_b"),
                           COS_LSH_MAX_BUCKET),
        pre_reduce=truncate_runs(["band", "key"], COS_LSH_MAX_BUCKET))
    pairs = sorted_sum(cand, ["vec_a", "vec_b"], ["n"])

    def to_binary(batch: pa.Table) -> pa.Table:
        # Acero's hash join rejects list<double> payload columns; carry
        # the normalized vector as a same-bytes binary blob instead
        m = _normalize(_to_matrix(batch.column("embedding")))
        return pa.table({"vec_id": batch.column("vec_id"),
                         "emb": matrix_to_binary_column(m)})

    vecs = emb_ds.map_batches(to_binary, batch_format="pyarrow") \
        .materialize()
    pairs = lookup(pairs, vecs, on=["vec_a", "vec_b"], key="vec_id",
                   columns=["emb"], suffix=["_a", "_b"])

    def verify(batch: pa.Table) -> pa.Table:
        ea, eb = batch.column("emb_a"), batch.column("emb_b")
        d = len(ea[0].as_py()) // 8 if len(ea) else 0
        sim = np.einsum("ij,ij->i",
                        binary_column_to_matrix(ea, np.float64, d),
                        binary_column_to_matrix(eb, np.float64, d))
        keep = np.nonzero(sim >= threshold)[0]
        out = batch.select(["vec_a", "vec_b"]).take(
            pa.array(keep, pa.int64()))
        return out.append_column("sim", pa.array(sim[keep], pa.float64()))

    return pairs.map_batches(verify, batch_format="pyarrow")


def cosine_neardup_blocked(emb_ds, threshold: float, *, nblocks: int = 8):
    """Exact all-pairs cosine >= threshold with NO broadcast side and no
    driver materialization — the distributed "triangle join":

    every vector hashes to one of ``nblocks`` blocks and is replicated
    to the ``nblocks`` block-pair buckets it participates in; each
    bucket (i, j) receives exactly the vectors of blocks i and j and
    scores its cross product (i == j scores the in-block triangle), so
    every unordered pair is scored in exactly one bucket. Replication
    factor is ``nblocks`` (choose ~sqrt(cluster parallelism)); total
    compute remains the inherent O(N^2/2) of an exact all-pairs scan.

    Results are identical to the broadcast variant: same normalized
    float64 dot products, same threshold rule, (vec_a < vec_b) pairs.
    """
    from ..functions.arrays import matrix_to_list_column

    def expand(batch: pa.Table) -> pa.Table:
        vid = batch.column("vec_id").to_numpy().astype(np.int64)
        emb = _normalize(_to_matrix(batch.column("embedding")))
        blk = (vid * np.int64(2654435761)) % nblocks  # deterministic
        lo = np.minimum(blk[:, None], np.arange(nblocks)[None, :])
        hi = np.maximum(blk[:, None], np.arange(nblocks)[None, :])
        bucket = (lo * nblocks + hi).ravel()
        rep = np.repeat(emb, nblocks, axis=0) if len(vid) else \
            np.empty((0, 0))
        # VARIABLE list type so empty batches (d unknown) produce the
        # same schema as populated ones
        d = rep.shape[1] if rep.size else 0
        flat = pa.array(np.ascontiguousarray(rep).ravel(), pa.float64())
        offsets = pa.array(
            np.arange(0, (len(rep) + 1) * d, d, dtype=np.int32)
            if d else np.zeros(len(rep) + 1, dtype=np.int32), pa.int32())
        return pa.table({
            "bucket": pa.array(bucket, pa.int64()),
            "blk": pa.array(np.repeat(blk, nblocks), pa.int64()),
            "vec_id": pa.array(np.repeat(vid, nblocks), pa.int64()),
            "embedding": pa.ListArray.from_arrays(offsets, flat),
        })

    rows = emb_ds.map_batches(expand, batch_format="pyarrow")

    # sims tiles are bounded to _SIM_TILE x bucket_n float64 regardless
    # of bucket size, so worst-case scorer memory is set by the tile,
    # not the (skew-sensitive) bucket population
    _SIM_TILE = 4096

    def bucket_pairs(group: pa.Table) -> pa.Table:
        empty = pa.table({"vec_a": pa.array([], pa.int64()),
                          "vec_b": pa.array([], pa.int64())})
        if group.num_rows < 2:
            return empty
        bucket = int(group.column("bucket")[0].as_py())
        lo, hi = bucket // nblocks, bucket % nblocks
        vid = group.column("vec_id").to_numpy()
        blk = group.column("blk").to_numpy()
        emb = _to_matrix(group.column("embedding"))
        outs_a, outs_b = [], []
        if lo == hi:
            order = np.argsort(vid, kind="stable")
            vid, emb = vid[order], emb[order]
            n = len(vid)
            for s in range(0, n, _SIM_TILE):
                e = min(s + _SIM_TILE, n)
                sims = emb[s:e] @ emb[s:].T  # tile vs upper remainder
                ii, jj = np.nonzero(sims >= threshold)
                keep = (s + ii) < (s + jj)   # strict upper triangle
                outs_a.append(vid[s + ii[keep]])
                outs_b.append(vid[s + jj[keep]])
        else:
            ml = blk == lo
            va, ea = vid[ml], emb[ml]
            vb, eb = vid[~ml], emb[~ml]
            if not len(va) or not len(vb):
                return empty
            for s in range(0, len(va), _SIM_TILE):
                e = min(s + _SIM_TILE, len(va))
                sims = ea[s:e] @ eb.T
                ii, jj = np.nonzero(sims >= threshold)
                a, b = va[s + ii], vb[jj]
                outs_a.append(np.minimum(a, b))
                outs_b.append(np.maximum(a, b))
        if not outs_a:
            return empty
        a = np.concatenate(outs_a)
        b = np.concatenate(outs_b)
        return pa.table({"vec_a": pa.array(a, pa.int64()),
                         "vec_b": pa.array(b, pa.int64())})

    # groupby().map_groups is the RIGHT primitive here (unlike the
    # many-tiny-bucket LSH paths): the key domain is exactly
    # nblocks*(nblocks+1)/2 buckets — per-group dispatch cost is
    # O(nblocks^2), not O(pairs) — and the triangle join's documented
    # partitioning assumption is that one bucket (~2N/nblocks vectors)
    # fits in a worker; choose nblocks ~ sqrt(cluster parallelism).
    return rows.groupby("bucket").map_groups(bucket_pairs,
                                             batch_format="pyarrow")


def cosine_neardup_pairs(emb_ds, full_ids, full_mat, threshold: float):
    """Exact all-pairs cosine >= threshold: each batch multiplies against
    the broadcast full (normalized) matrix; emit (a < b) pairs."""
    ref = ray.put({"ids": np.asarray(full_ids, dtype=np.int64),
                   "mat": _normalize(np.asarray(full_mat, dtype=np.float64))})

    def score(batch: pa.Table, *, ref=ref, threshold=threshold) -> pa.Table:
        data = cached(resolve, ref)
        vid = batch.column("vec_id").to_numpy().astype(np.int64)
        emb = _normalize(_to_matrix(batch.column("embedding")))
        sims = emb @ data["mat"].T  # (nb, N)
        bi, fj = np.nonzero(sims >= threshold)
        a = vid[bi]
        b = data["ids"][fj]
        keep = a < b
        return pa.table({
            "vec_a": pa.array(a[keep], pa.int64()),
            "vec_b": pa.array(b[keep], pa.int64()),
        })

    return emb_ds.map_batches(score, batch_format="pyarrow",
                              zero_copy_batch=True)
