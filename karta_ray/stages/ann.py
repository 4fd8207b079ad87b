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


def _to_matrix(col) -> np.ndarray:
    from ..functions.arrays import list_column_to_matrix

    return list_column_to_matrix(col, dtype=np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(n == 0, 1.0, n)


class _TopkScorer:
    """map_batches stage: per-batch cosine scores vs all queries, pruned
    to local top-k rows per query."""

    def __init__(self, queries_ref, k: int, exclude_self: bool):
        q = resolve(queries_ref)
        self.qids = q["qids"]
        self.qmat = q["qmat"]  # normalized (nq, d)
        self.k = k
        self.exclude_self = exclude_self

    def __call__(self, batch: pa.Table) -> pa.Table:
        vid = batch.column("vec_id").to_numpy()
        emb = _normalize(_to_matrix(batch.column("embedding")))
        sims = self.qmat @ emb.T  # (nq, nb)
        out_q = []
        out_v = []
        out_s = []
        for qi in range(len(self.qids)):
            s = sims[qi]
            mask = np.ones(len(vid), dtype=bool)
            if self.exclude_self:
                mask &= vid != self.qids[qi]
            idx = np.nonzero(mask)[0]
            if len(idx) == 0:
                continue
            top = idx[np.argsort(-s[idx], kind="stable")[:self.k]]
            out_q.append(np.full(len(top), self.qids[qi], dtype=np.int64))
            out_v.append(vid[top].astype(np.int64))
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


def ann_topk(emb_ds, query_ids, query_mat, k: int = 10, *,
             exclude_self: bool = True):
    """Exact cosine top-k of every query vs the embedding Dataset.

    Returns (query_id, vec_id, sim, rank). Scale: batches stream through
    the scorer; only nq*k rows per batch survive to the final combine.
    """
    q = {"qids": np.asarray(query_ids, dtype=np.int64),
         "qmat": _normalize(np.asarray(query_mat, dtype=np.float64))}
    ref = ray.put(q)

    def score(batch: pa.Table) -> pa.Table:
        return cached(_TopkScorer, ref, k, exclude_self)(batch)

    part = emb_ds.map_batches(score, batch_format="pyarrow",
                              zero_copy_batch=True)
    return part.repartition(1).map_batches(_final_topk(k),
                                           batch_format="pyarrow")


def ann_ivf_topk(emb_ds, query_ids, query_mat, k: int = 10, *,
                 label_col: str = "label", nprobe: int | None = 3,
                 exclude_self: bool = True):
    """IVF variant (``nprobe=None`` probes every cluster — the
    exact-mode twin, result identical to brute-force top-k):
    compute per-cluster centroids (one small pass, partials folded by
    ``tree_sum`` so the driver holds only the k x d result plus one
    flush buffer), then score each query only against its ``nprobe``
    nearest clusters."""
    from .kmeans import _label_sum_rows, collect_centroid_sums

    def partial_centroids(batch: pa.Table) -> pa.Table:
        lab = batch.column(label_col).to_numpy().astype(np.int64)
        emb = _to_matrix(batch.column("embedding"))
        return _label_sum_rows(emb, lab)

    parts = emb_ds.map_batches(partial_centroids, batch_format="pyarrow")
    dim = np.asarray(query_mat).shape[1]  # queries share the corpus dim
    labels, sums, counts = collect_centroid_sums(parts, dim)
    cent = _normalize(sums / counts[:, None])

    qmat = _normalize(np.asarray(query_mat, dtype=np.float64))
    probe = np.argsort(-(qmat @ cent.T), axis=1)[:, :nprobe]
    probe_labels = [{labels[j] for j in row} for row in probe]

    q = {"qids": np.asarray(query_ids, dtype=np.int64), "qmat": qmat}
    ref = ray.put({"q": q, "probe": probe_labels})

    class Scorer(_TopkScorer):
        def __init__(self, ref, k, exclude_self):
            data = resolve(ref)
            super().__init__(data["q"], k, exclude_self)
            self.probe = data["probe"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            # Queries are grouped by their probed label SET, so the
            # row-membership mask is built once per distinct set (not
            # once per query), and the cosine scores come from ONE
            # matmul of all queries vs the batch — per-batch cost is
            # O(nq*nb + distinct_sets*nb), flat in query count for
            # query workloads that share probe sets.
            lab = batch.column(label_col).to_numpy()
            vid = batch.column("vec_id").to_numpy()
            emb = _normalize(_to_matrix(batch.column("embedding")))
            groups: dict = {}
            for qi, ls in enumerate(self.probe):
                groups.setdefault(frozenset(ls), []).append(qi)
            sims = None
            out_q, out_v, out_s = [], [], []
            for ls, qis in groups.items():
                mask = np.isin(lab, np.fromiter(ls, dtype=np.int64,
                                                count=len(ls)))
                if not mask.any():
                    continue
                if sims is None:
                    sims = self.qmat @ emb.T
                idx = np.nonzero(mask)[0]
                svid = vid[idx]
                for qi in qis:
                    s = sims[qi, idx]
                    if self.exclude_self:
                        keep = np.nonzero(svid != self.qids[qi])[0]
                    else:
                        keep = np.arange(len(svid))
                    if len(keep) == 0:
                        continue
                    # same selection rule as _TopkScorer (stable sort in
                    # batch order) so results are bit-identical to the
                    # per-query formulation
                    top = keep[np.argsort(-s[keep],
                                          kind="stable")[:self.k]]
                    out_q.append(np.full(len(top), self.qids[qi],
                                         dtype=np.int64))
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

    def score(batch: pa.Table) -> pa.Table:
        return cached(Scorer, ref, k, exclude_self)(batch)

    part = emb_ds.map_batches(score, batch_format="pyarrow",
                              zero_copy_batch=True)
    return part.repartition(1).map_batches(_final_topk(k),
                                           batch_format="pyarrow")


def _hyperplanes(dim: int, bits: int) -> np.ndarray:
    rng = np.random.RandomState(7)
    return rng.randn(bits, dim)


# above this many vectors the normalized embedding matrix stops being
# broadcastable and candidate verification switches to distributed
# hash joins against the embedding dataset
EMB_BROADCAST_MAX_DOCS = 1_000_000  # ~0.5 GB at d=64 float64


def lsh_band_rows(bits: int, bands: int):
    """map_batches fn: (band, key, vec_id) rows — IDS ONLY, 24 B/row.

    The embedding is deliberately NOT carried through the bucket
    shuffle (an embedding column here would amplify shuffle bytes by
    bands x vector size — the mistake minhash r02 fixed); surviving
    candidates recover their vectors afterwards via broadcast lookup or
    a distributed hash join."""
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


def _bucket_candidates_block(max_bucket: int):
    """Block fn for sorted_map_groups over (band, key): unique-id
    candidate pairs per under-cap bucket run, vectorized over the
    block's runs (no per-group dispatch)."""
    from .agg import group_runs

    def fn(block: pa.Table) -> pa.Table:
        empty = pa.table({"vec_a": pa.array([], pa.int64()),
                          "vec_b": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64())})
        if block.num_rows < 2:
            return empty
        vid = block.column("vec_id").to_numpy()
        starts, ends = group_runs(block, ["band", "key"])
        out_a, out_b = [], []
        for s, e in zip(starts, ends):
            if e - s < 2 or e - s > max_bucket:
                continue
            ids = np.unique(vid[s:e])
            if len(ids) < 2:
                continue
            ai, bi = np.triu_indices(len(ids), 1)
            out_a.append(ids[ai])
            out_b.append(ids[bi])
        if not out_a:
            return empty
        a = np.concatenate(out_a).astype(np.int64)
        b = np.concatenate(out_b).astype(np.int64)
        return pa.table({"vec_a": pa.array(a), "vec_b": pa.array(b),
                         "n": pa.array(np.ones(len(a), np.int64))})

    return fn


def cosine_neardup_lsh(emb_ds, threshold: float, *, bits: int = 32,
                       bands: int = 4, max_bucket: int = 512):
    """Near-duplicate pairs via random-hyperplane LSH — the no-broadcast
    scale path.

    Shape (shuffle bytes O(rows x 24 B), no embedding amplification):
    id-only band rows -> bucket candidate pairs via sorted_map_groups
    (range shuffle + per-block run processing, over-cap buckets
    tombstone-truncated) -> cross-band pair dedup (sorted_sum, unbounded
    pair cardinality) -> exact cosine verification of surviving pairs
    only, recovering vectors adaptively: broadcast matrix lookup below
    EMB_BROADCAST_MAX_DOCS, distributed hash joins above.

    Approximate (recall < 1 for moderate thresholds; near-certain for
    true near-dups with cos >~ 0.95); verification is exact, so emitted
    sims equal the brute-force values.
    """
    import ray.data

    from .agg import sorted_map_groups, sorted_sum

    emb_ds = emb_ds.materialize()
    rows = emb_ds.map_batches(lsh_band_rows(bits, bands),
                              batch_format="pyarrow")
    cand = sorted_map_groups(rows, ["band", "key"],
                             _bucket_candidates_block(max_bucket),
                             max_group_rows=max_bucket)
    uniq = sorted_sum(cand, ["vec_a", "vec_b"], ["n"])

    n_docs = emb_ds.count()
    if n_docs <= EMB_BROADCAST_MAX_DOCS:
        # broadcast path: normalized matrix ray.put once, zero-copy
        # object-store read per task, searchsorted id lookup
        parts_id, parts_m = [], []
        for batch in emb_ds.iter_batches(batch_format="pyarrow",
                                         batch_size=65536):
            parts_id.append(batch.column("vec_id").to_numpy()
                            .astype(np.int64))
            parts_m.append(_normalize(_to_matrix(batch.column("embedding"))))
        ids = np.concatenate(parts_id)
        mat = np.vstack(parts_m)
        order = np.argsort(ids, kind="stable")
        ref = ray.put({"ids": ids[order],
                       "mat": np.ascontiguousarray(mat[order])})

        def verify_bcast(batch: pa.Table, *, ref=ref) -> pa.Table:
            data = cached(resolve, ref)
            a = batch.column("vec_a").to_numpy()
            b = batch.column("vec_b").to_numpy()
            ia = np.searchsorted(data["ids"], a)
            ib = np.searchsorted(data["ids"], b)
            sim = np.einsum("ij,ij->i", data["mat"][ia], data["mat"][ib])
            keep = np.nonzero(sim >= threshold)[0]
            out = batch.select(["vec_a", "vec_b"]).take(
                pa.array(keep, pa.int64()))
            return out.append_column("sim", pa.array(sim[keep],
                                                     pa.float64()))

        return uniq.map_batches(verify_bcast, batch_format="pyarrow")

    # join path: traffic bounded by the candidate count
    uniq = uniq.materialize()
    if uniq.count() == 0:
        return ray.data.from_blocks([pa.table({
            "vec_a": pa.array([], pa.int64()),
            "vec_b": pa.array([], pa.int64()),
            "sim": pa.array([], pa.float64())})])

    def to_binary(batch: pa.Table) -> pa.Table:
        # Acero's hash join rejects list<double> payload columns; carry
        # the normalized vector as a same-bytes binary blob instead
        from ..functions.arrays import matrix_to_binary_column

        m = _normalize(_to_matrix(batch.column("embedding")))
        return pa.table({"vec_id": batch.column("vec_id"),
                         "embx": matrix_to_binary_column(m)})

    emb_tbl = emb_ds.map_batches(to_binary, batch_format="pyarrow")
    j1 = uniq.join(emb_tbl, "inner", num_partitions=8,
                   on=("vec_a",), right_on=("vec_id",)).materialize()
    j2 = j1.rename_columns({"embx": "emb_a"}).join(
        emb_tbl, "inner", num_partitions=8,
        on=("vec_b",), right_on=("vec_id",)).materialize()

    def verify_join(batch: pa.Table) -> pa.Table:
        from ..functions.arrays import binary_column_to_matrix

        if batch.num_rows == 0:
            return pa.table({"vec_a": pa.array([], pa.int64()),
                             "vec_b": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        d = len(batch.column("emb_a")[0].as_py()) // 8
        ea = binary_column_to_matrix(batch.column("emb_a"), np.float64, d)
        eb = binary_column_to_matrix(batch.column("embx"), np.float64, d)
        sim = np.einsum("ij,ij->i", ea, eb)
        keep = np.nonzero(sim >= threshold)[0]
        out = batch.select(["vec_a", "vec_b"]).take(
            pa.array(keep, pa.int64()))
        return out.append_column("sim", pa.array(sim[keep], pa.float64()))

    return j2.map_batches(verify_join, batch_format="pyarrow")


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
