"""Distributed TF-IDF: per-(doc, term) term frequency, corpus document
frequency, and the joined tf·ln(N/df) weight table.

Scale shape:

- **tf is shuffle-free**: a document's text lives in one row, so the
  per-block Arrow ``group_by`` (doc, token) count is already globally
  exact — tokens never cross the wire.
- **df** reuses the heavy-hitter combiner: the (doc, token) rows are
  distinct by construction, so df = per-block token counts of those
  rows summed through :func:`~karta_ray.stages.agg.sorted_sum`
  (shuffle bounded by per-block distinct tokens).
- **join back** is one :func:`~karta_ray.stages.lookup.lookup` on
  token: the df table is broadcast once and searchsorted per tf batch
  while it fits ``lookup.BROADCAST_MAX_BYTES``, else hash-joined.

The weight is rounded to 6 decimals on both the engine and SQL sides
so a DuckDB oracle mirrors the float exactly (same convention as the
cm-quantized projection oracle).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.empty import materialize_typed
from .lookup import lookup


def doc_term_freqs(ds):
    """(doc_id, token, tf) of the (doc_id, text) rows — exact, computed
    entirely in-block."""
    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        texts = batch.column("text")
        import pyarrow.compute as pc

        lists = pc.split_pattern(texts, " ")
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(lists)
        rep_ids = ids.take(pa.array(
            np.repeat(np.arange(batch.num_rows, dtype=np.int64), lens)))
        pairs = pa.table({"doc_id": rep_ids, "token": flat}).filter(
            pc.not_equal(flat, ""))
        g = (pairs.group_by(["doc_id", "token"])
             .aggregate([([], "count_all")]))
        return g.rename_columns(["doc_id", "token", "tf"])

    return ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)


def doc_freqs(tf):
    """(token, df) from the doc_term_freqs output."""
    from .agg import sorted_sum

    def partial(batch: pa.Table) -> pa.Table:
        g = (batch.select(["token"]).group_by(["token"])
             .aggregate([([], "count_all")]))
        return g.rename_columns(["token", "df"])

    parts = tf.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    return sorted_sum(parts, ["token"], ["df"])


def _weight(tf: np.ndarray, df: np.ndarray, n_docs: int) -> np.ndarray:
    return np.round(tf * np.log(n_docs / df), 6)


def tfidf_table(ds):
    """(doc_id, token, tf, df, tfidf) for every (document, term)."""
    n_docs = ds.count()
    tf = doc_term_freqs(ds)
    tf = materialize_typed(tf)
    df = doc_freqs(tf)

    def weigh(batch: pa.Table) -> pa.Table:
        tfv = batch.column("tf").to_numpy()
        dfv = batch.column("df").to_numpy()
        return batch.append_column(
            "tfidf", pa.array(_weight(tfv, dfv, n_docs), pa.float64()))

    return lookup(tf, df, on="token", key="token", columns=["df"]) \
        .map_batches(weigh, batch_format="pyarrow")
