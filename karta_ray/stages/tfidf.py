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
- **join back** is adaptive like the MinHash signature recovery
  (dedup.py): below ``df_broadcast_max`` distinct tokens the df table
  is ``ray.put`` once as a sorted array and every tf batch resolves
  df with one searchsorted (no shuffle); above it, a distributed
  ``Dataset.join`` on token.

The weight is rounded to 6 decimals on both the engine and SQL sides
so a DuckDB oracle mirrors the float exactly (same convention as the
cm-quantized projection oracle).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.worker import cached, resolve
from .heavy import tokens_of

# above this many distinct tokens the df table stops being
# broadcastable and the tf<-df resolution switches to a distributed
# hash join
DF_BROADCAST_MAX_TOKENS = 2_000_000


def doc_term_freqs(ds, *, id_col: str = "doc_id",
                   text_col: str = "text"):
    """(doc_id, token, tf) — exact, computed entirely in-block."""
    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        texts = batch.column(text_col)
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


def tfidf_table(ds, *, id_col: str = "doc_id", text_col: str = "text",
                df_broadcast_max: int = DF_BROADCAST_MAX_TOKENS):
    """(doc_id, token, tf, df, tfidf) for every (document, term)."""
    import ray
    import ray.data

    n_docs = ds.count()
    tf = doc_term_freqs(ds, id_col=id_col, text_col=text_col)
    tf = tf.materialize()
    df = doc_freqs(tf).materialize()

    if df.count() <= df_broadcast_max:
        toks, dfs = [], []
        for batch in df.iter_batches(batch_format="pyarrow",
                                     batch_size=65536):
            toks.append(batch.column("token").to_numpy(
                zero_copy_only=False))
            dfs.append(batch.column("df").to_numpy())
        tok_arr = np.concatenate(toks) if toks else np.array([], "O")
        df_arr = (np.concatenate(dfs) if dfs
                  else np.array([], np.int64))
        order = np.argsort(tok_arr, kind="stable")
        ref = ray.put({"tokens": tok_arr[order], "df": df_arr[order]})

        def attach_df(batch: pa.Table, *, ref=ref) -> pa.Table:
            data = cached(resolve, ref)
            tok = batch.column("token").to_numpy(zero_copy_only=False)
            i = np.searchsorted(data["tokens"], tok)
            dfv = data["df"][i]
            tfv = batch.column("tf").to_numpy()
            return batch.append_column(
                "df", pa.array(dfv, pa.int64())).append_column(
                "tfidf", pa.array(_weight(tfv, dfv, n_docs),
                                  pa.float64()))

        return tf.map_batches(attach_df, batch_format="pyarrow")

    joined = tf.join(df, "inner", num_partitions=max(
        1, tf.num_blocks()), on=("token",))

    def weigh(batch: pa.Table) -> pa.Table:
        tfv = batch.column("tf").to_numpy()
        dfv = batch.column("df").to_numpy()
        return batch.append_column(
            "tfidf", pa.array(_weight(tfv, dfv, n_docs), pa.float64()))

    return joined.map_batches(weigh, batch_format="pyarrow")


def top_term_per_doc(ds, *, id_col: str = "doc_id",
                     text_col: str = "text", n: int = 1):
    """The ``n`` highest-tfidf terms per document (ties: token asc)."""
    from .topn import grouped_topn

    w = tfidf_table(ds, id_col=id_col, text_col=text_col)
    return grouped_topn(w, [id_col], "tfidf", n, tie_cols=["token"])
