"""k-means building blocks over an embedding Dataset: deterministic
seed centroids, the nearest-centroid assignment, and per-cluster
vector sums.

The scale shape: centroids are broadcast once (k x d floats — tiny
relative to data) to a map_batches assignment; per-cluster partial
(sum, count) rows are computed inside map_batches as (label, dim, s, n)
rows and folded on the driver as they stream in (stages.agg.tree_sum):
driver memory holds the k x d result plus one flush buffer, never every
block's partials at once, though the rows streamed through the driver
still grow with the block count.

``q_kmeans`` assigns every vector to its seed centroid;
``ann_ivf_topk`` folds the per-cluster sums into its probe centroids.

Deterministic: seeds are the k vectors with the smallest ids, and all
arithmetic is fixed-order per block layout.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..state.worker import cached, resolve


def _assign(emb: np.ndarray, cent: np.ndarray) -> np.ndarray:
    # squared L2 via the expansion; cent is (k, d)
    if not len(emb):
        return np.zeros(0, np.int64)
    d2 = (np.sum(emb * emb, axis=1)[:, None]
          - 2.0 * emb @ cent.T + np.sum(cent * cent, axis=1)[None, :])
    return np.argmin(d2, axis=1)


def _label_sum_rows(emb: np.ndarray, lab: np.ndarray) -> pa.Table:
    """(label, dim, s, n) partial rows: per-label vector sums + counts,
    one segmented reduction (no per-label Python loop). n is replicated
    per dim (same value; the final collect reads it from dim 0)."""
    order = np.argsort(lab, kind="stable")
    sl = lab[order]
    uniq, starts = np.unique(sl, return_index=True)
    sums = np.add.reduceat(emb[order], starts, axis=0)
    counts = np.diff(np.append(starts, len(sl)))
    g, d = sums.shape
    return pa.table({
        "label": pa.array(np.repeat(uniq.astype(np.int64), d)),
        "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), g)),
        "s": pa.array(sums.ravel(), pa.float64()),
        "n": pa.array(np.repeat(counts.astype(np.int64), d)),
    })


def collect_centroid_sums(parts_ds, d: int):
    """Fold (label, dim, s, n) partials into the final k x d rows
    (``tree_sum``): returns (labels, sums, counts)."""
    from .agg import tree_sum

    rows = tree_sum(parts_ds, ["label", "dim"], ["s", "n"]).take_all()
    labels = sorted({r["label"] for r in rows})
    lab_ix = {l: i for i, l in enumerate(labels)}
    sums = np.zeros((len(labels), d))
    counts = np.zeros(len(labels), dtype=np.int64)
    for r in rows:
        i = lab_ix[r["label"]]
        sums[i, r["dim"]] = r["s"]
        if r["dim"] == 0:
            counts[i] = r["n"]
    return labels, sums, counts


def kmeans_seeds(emb_ds, k: int) -> np.ndarray:
    """Deterministic seed centroids: the k vectors with the smallest
    ids (sort -> limit, a distributed top-k, not a full collect)."""
    rows = emb_ds.sort("vec_id").limit(k).take(k)
    return np.array([r["embedding"] for r in rows], dtype=np.float64)


def kmeans_predict(emb_ds, centroids: np.ndarray):
    """Append a ``label`` column (nearest centroid) to every row."""
    from ..functions.arrays import list_column_to_matrix

    ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def fn(batch: pa.Table, *, ref=ref) -> pa.Table:
        c = cached(resolve, ref)
        emb = list_column_to_matrix(batch.column("embedding"))
        lab = _assign(emb, c)
        # replace any pre-existing label column
        if "label" in batch.column_names:
            batch = batch.drop_columns(["label"])
        return batch.append_column("label",
                                   pa.array(lab.astype(np.int64)))

    return emb_ds.map_batches(fn, batch_format="pyarrow",
                              zero_copy_batch=True)
