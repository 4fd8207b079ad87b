"""Similarity search over an embedding column (list<float>).

- ``ann_topk``: exact brute-force cosine top-k — per-batch numpy matmul
  against a broadcast query matrix, per-batch pruning, tree-combined
  global top-k. The baseline the approximate variants are judged
  against.
- ``ann_ivf_topk``: IVF-style variant — probe only the ``nprobe``
  clusters whose centroids are nearest each query (approximate; the
  100-TB path where scanning every vector is off the table).
- ``cosine_neardup_blocked``: all pairs with cosine >= threshold,
  exact, via a blocked "triangle join" with no broadcast side.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..functions.arrays import list_column_to_matrix
from ..state.empty import materialize_typed
from ..state.worker import cached, resolve


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
        emb = _normalize(list_column_to_matrix(batch.column("embedding")))
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
        if not batch.num_rows:
            return batch.append_column("rank", pa.array([], pa.int64()))
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
        emb = list_column_to_matrix(batch.column("embedding"))
        return _label_sum_rows(emb, lab)

    parts = emb_ds.map_batches(partial_centroids, batch_format="pyarrow")
    dim = np.asarray(query_mat).shape[1]  # queries share the corpus dim
    labels, sums, counts = collect_centroid_sums(parts, dim)
    cent = _normalize(sums / counts[:, None])

    qmat = _normalize(np.asarray(query_mat, dtype=np.float64))
    probe = np.argsort(-(qmat @ cent.T), axis=1)[:, :nprobe]
    probe_labels = [{labels[j] for j in row} for row in probe]
    return _scored_topk(emb_ds, query_ids, qmat, probe_labels, k)


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

    Emits (vec_a < vec_b) pairs whose normalized float64 dot product is
    >= threshold; the result is materialized.
    """

    def expand(batch: pa.Table) -> pa.Table:
        vid = batch.column("vec_id").to_numpy().astype(np.int64)
        emb = _normalize(list_column_to_matrix(batch.column("embedding")))
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
        emb = list_column_to_matrix(group.column("embedding"))
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
    # many-tiny-bucket dedup paths): the key domain is exactly
    # nblocks*(nblocks+1)/2 buckets — per-group dispatch cost is
    # O(nblocks^2), not O(pairs) — and the triangle join's documented
    # partitioning assumption is that one bucket (~2N/nblocks vectors)
    # fits in a worker; choose nblocks ~ sqrt(cluster parallelism).
    return materialize_typed(rows.groupby("bucket").map_groups(
        bucket_pairs, batch_format="pyarrow"))
