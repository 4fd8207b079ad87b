"""Round-4 (late) oracle queries: corpus profiling and data-quality
operators over the documents/events tables.

Same parity rules as queries.py / queries2.py: exact-integer or
byte-deterministic outputs only; float accumulations never compared
unless both engines run the identical IEEE op sequence.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .registry import query

# ---------------------------------------------------------------------------
# 1. Table profiling: per-column nulls / exact distinct / byte lengths /
# min-max — the standard first pass over an unknown corpus. One scan,
# one shuffle:
#   stats (n, nulls, sum_len, min, max)  -> tree_agg partials (5 rows)
#   exact distinct -> per-block value dedup, 128-bit value hashes
#     (two independent vectorized 64-bit hashes; collision-free in
#     practice at any corpus size, and the shuffle ships 21 B/unique
#     value instead of the value bytes), sorted range shuffle, run
#     counting per column, tree-summed counts.
# Scale: shuffle volume is O(#distinct values x 21 B) regardless of
# document sizes; driver holds only the 2x5-row finals.
# ---------------------------------------------------------------------------

PROFILE_COLS = ["doc_id", "text", "lang", "source", "n_chars"]


@query(oracle=lambda: PROFILE_TABLE_SQL)
def q_profile_table(sf_dir: str):
    """(col, n_rows, n_null, n_distinct, sum_len, min_v, max_v) per
    documents column; values compared as their decimal/UTF-8 string
    forms (identical in Arrow and DuckDB), lengths in bytes."""
    import ray.data

    from ..functions.text import hash_column_u64
    from ..stages.agg import group_runs, sorted_map_groups, tree_agg, tree_sum

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=PROFILE_COLS)

    def stats_partial(batch: pa.Table) -> pa.Table:
        out = {"col": [], "n_rows": [], "n_null": [], "sum_len": [],
               "min_v": [], "max_v": []}
        for c in PROFILE_COLS:
            arr = batch.column(c)
            s = pc.cast(arr, pa.string())
            mm = pc.min_max(s)
            out["col"].append(c)
            out["n_rows"].append(batch.num_rows)
            out["n_null"].append(arr.null_count)
            out["sum_len"].append(pc.sum(pc.binary_length(s)).as_py())
            out["min_v"].append(mm["min"].as_py())
            out["max_v"].append(mm["max"].as_py())
        return pa.table({
            "col": pa.array(out["col"], pa.string()),
            "n_rows": pa.array(out["n_rows"], pa.int64()),
            "n_null": pa.array(out["n_null"], pa.int64()),
            "sum_len": pa.array(out["sum_len"], pa.int64()),
            "min_v": pa.array(out["min_v"], pa.string()),
            "max_v": pa.array(out["max_v"], pa.string()),
        })

    stats = tree_agg(
        ds.map_batches(stats_partial, batch_format="pyarrow"),
        ["col"], [("n_rows", "sum"), ("n_null", "sum"), ("sum_len", "sum"),
                  ("min_v", "min"), ("max_v", "max")])

    def pair_partial(batch: pa.Table) -> pa.Table:
        cols, h1s, h2s = [], [], []
        for c in PROFILE_COLS:
            s = pc.cast(batch.column(c), pa.string())
            uniq = pc.unique(pc.drop_null(s))
            if len(uniq) == 0:
                continue
            h1 = hash_column_u64(uniq)
            # independent second hash: hash of value + sentinel suffix
            # (NOT derived from h1 — a 64-bit collision of h1 does not
            # imply one of h2), giving 128 collision bits total
            h2 = hash_column_u64(
                pc.binary_join_element_wise(uniq, "\x01s", ""))
            cols.append(np.full(len(uniq), PROFILE_COLS.index(c),
                                dtype=np.int64))
            h1s.append(h1.view(np.int64))
            h2s.append(h2.view(np.int64))
        if not cols:
            return pa.table({"colid": pa.array([], pa.int64()),
                             "h1": pa.array([], pa.int64()),
                             "h2": pa.array([], pa.int64())})
        return pa.table({"colid": pa.array(np.concatenate(cols)),
                         "h1": pa.array(np.concatenate(h1s)),
                         "h2": pa.array(np.concatenate(h2s))})

    pairs = ds.map_batches(pair_partial, batch_format="pyarrow")

    def dedup_edge(batch: pa.Table) -> pa.Table:
        # pre_reduce: collapse an edge run to its (already unique) key
        return batch.group_by(["colid", "h1", "h2"]).aggregate([])

    def count_runs(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"colid": pa.array([], pa.int64()),
                             "nd": pa.array([], pa.int64())})
        starts, _ = group_runs(batch, ["colid", "h1", "h2"])
        colid = batch.column("colid").to_numpy()[starts]
        uniq, counts = np.unique(colid, return_counts=True)
        return pa.table({"colid": pa.array(uniq.astype(np.int64)),
                         "nd": pa.array(counts.astype(np.int64))})

    nd = tree_sum(
        sorted_map_groups(pairs, ["colid", "h1", "h2"], count_runs,
                          pre_reduce=dedup_edge),
        ["colid"], ["nd"])

    # finals are 5 rows each — driver-side assembly is O(1)
    st = stats.take_all()
    nd_rows = {r["colid"]: r["nd"] for r in nd.take_all()}
    st.sort(key=lambda r: r["col"])
    return pa.table({
        "col": pa.array([r["col"] for r in st], pa.string()),
        "n_rows": pa.array([r["n_rows"] for r in st], pa.int64()),
        "n_null": pa.array([r["n_null"] for r in st], pa.int64()),
        "n_distinct": pa.array(
            [nd_rows.get(PROFILE_COLS.index(r["col"]), 0) for r in st],
            pa.int64()),
        "sum_len": pa.array([r["sum_len"] for r in st], pa.int64()),
        "min_v": pa.array([r["min_v"] for r in st], pa.string()),
        "max_v": pa.array([r["max_v"] for r in st], pa.string()),
    })


PROFILE_TABLE_SQL = "\nUNION ALL\n".join(f"""
SELECT '{c}' AS col, COUNT(*) AS n_rows,
       COUNT(*) - COUNT({c}) AS n_null,
       COUNT(DISTINCT {c}) AS n_distinct,
       CAST(SUM(strlen(CAST({c} AS VARCHAR))) AS BIGINT) AS sum_len,
       MIN(CAST({c} AS VARCHAR)) AS min_v,
       MAX(CAST({c} AS VARCHAR)) AS max_v
FROM documents""" for c in PROFILE_COLS)


# ---------------------------------------------------------------------------
# 2. Repetition quality signals (Gopher-style, Rae et al. 2021 §A1.1):
# per-document word/bigram duplication and top-fraction metrics — the
# standard repetitive-boilerplate filter of a web-corpus pipeline.
# Embarrassingly parallel (per-doc map, no shuffle); every count comes
# out of Arrow's C++ hash aggregation — no per-row Python, no regex.
# Fractions are single IEEE divisions on exact integer counts, so the
# DuckDB oracle matches bitwise.
# ---------------------------------------------------------------------------


@query(oracle=lambda: REPETITION_SIGNALS_SQL)
def q_repetition_signals(sf_dir: str):
    """(doc_id, n_words, n_distinct_words, top_word_n, n_bigrams,
    n_distinct_bigrams, top_bigram_n, dup_word_frac, top_word_frac)
    per document; words split on single spaces."""
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def block(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        words = pc.split_pattern(batch.column("text"), " ")
        wf = (words.combine_chunks()
              if isinstance(words, pa.ChunkedArray) else words)
        offs = np.frombuffer(wf.buffers()[1], dtype=np.int32)[
            wf.offset:wf.offset + len(wf) + 1]
        flat = wf.flatten()
        n_per = np.diff(offs)
        docidx = np.repeat(np.arange(len(wf)), n_per)
        wc = pa.table({"d": pa.array(docidx), "w": flat}) \
            .group_by(["d", "w"]).aggregate([("w", "count")])
        st = wc.group_by(["d"]).aggregate(
            [("w_count", "sum"), ("w_count", "count"),
             ("w_count", "max")]).sort_by("d")
        # bigrams: adjacent word pairs, masked at document boundaries
        bg = pc.binary_join_element_wise(
            flat.slice(0, max(len(flat) - 1, 0)), flat.slice(1), " ")
        same = docidx[:-1] == docidx[1:]
        bc = pa.table({"d": pa.array(docidx[:-1][same]),
                       "b": pc.array_filter(bg, pa.array(same))}) \
            .group_by(["d", "b"]).aggregate([("b", "count")])
        bst = bc.group_by(["d"]).aggregate(
            [("b_count", "sum"), ("b_count", "count"),
             ("b_count", "max")]).sort_by("d")
        d = st.column("d").to_numpy()
        nw = st.column("w_count_sum").to_numpy().astype(np.int64)
        ndw = st.column("w_count_count").to_numpy().astype(np.int64)
        tw = st.column("w_count_max").to_numpy().astype(np.int64)
        bd = bst.column("d").to_numpy()
        nbg = np.zeros(len(d), np.int64)
        ndb = np.zeros(len(d), np.int64)
        tb = np.zeros(len(d), np.int64)
        pos = np.searchsorted(bd, d)
        has = (pos < len(bd))
        has[has] = bd[pos[has]] == d[has]
        nbg[has] = bst.column("b_count_sum").to_numpy()[pos[has]]
        ndb[has] = bst.column("b_count_count").to_numpy()[pos[has]]
        tb[has] = bst.column("b_count_max").to_numpy()[pos[has]]
        return pa.table({
            "doc_id": pa.array(ids.to_numpy()[d]),
            "n_words": pa.array(nw),
            "n_distinct_words": pa.array(ndw),
            "top_word_n": pa.array(tw),
            "n_bigrams": pa.array(nbg),
            "n_distinct_bigrams": pa.array(ndb),
            "top_bigram_n": pa.array(tb),
            "dup_word_frac": pa.array(1.0 - ndw.astype(np.float64) / nw),
            "top_word_frac": pa.array(tw.astype(np.float64) / nw),
        })

    return ds.map_batches(block, batch_format="pyarrow")


REPETITION_SIGNALS_SQL = """
WITH w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w
           FROM documents),
wc AS (SELECT doc_id, w, count(*) AS c FROM w GROUP BY doc_id, w),
ws AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_words,
              count(*) AS n_distinct_words,
              CAST(max(c) AS BIGINT) AS top_word_n
       FROM wc GROUP BY doc_id),
s AS (SELECT doc_id, string_split(text, ' ') AS s FROM documents),
b AS (SELECT doc_id, s[i] || ' ' || s[i+1] AS bg
      FROM s, UNNEST(range(1, len(s))) AS t(i)),
bc AS (SELECT doc_id, bg, count(*) AS c FROM b GROUP BY doc_id, bg),
bs AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_bigrams,
              count(*) AS n_distinct_bigrams,
              CAST(max(c) AS BIGINT) AS top_bigram_n
       FROM bc GROUP BY doc_id)
SELECT ws.doc_id, n_words, n_distinct_words, top_word_n,
       coalesce(n_bigrams, 0) AS n_bigrams,
       coalesce(n_distinct_bigrams, 0) AS n_distinct_bigrams,
       coalesce(top_bigram_n, 0) AS top_bigram_n,
       1.0 - CAST(n_distinct_words AS DOUBLE) / n_words AS dup_word_frac,
       CAST(top_word_n AS DOUBLE) / n_words AS top_word_frac
FROM ws LEFT JOIN bs ON ws.doc_id = bs.doc_id
"""


# ---------------------------------------------------------------------------
# 3. Global ranking (row_number / percent_rank / ntile): events ranked
# by (value, event_id) — the distributed window-function primitive
# (stages/rank.py). percent_rank is the single IEEE division
# (rnk-1)/(n-1), ntile the exact SQL integer bucketing, so the DuckDB
# window oracle matches bitwise.
# ---------------------------------------------------------------------------

RANK_NTILES = 97


@query(oracle=lambda: GLOBAL_RANK_SQL)
def q_global_rank(sf_dir: str):
    """(event_id, value, rnk, pct, tile) over all events."""
    import ray.data

    from ..stages.rank import global_rank, ntile_of_rank

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "value"])
    ranked, total = global_rank(ds, ["value", "event_id"])

    def finish(batch: pa.Table) -> pa.Table:
        rnk = batch.column("rnk").to_numpy()
        return pa.table({
            "event_id": batch.column("event_id"),
            "value": batch.column("value"),
            "rnk": batch.column("rnk"),
            "pct": pa.array((rnk - 1).astype(np.float64) / (total - 1)),
            "tile": pa.array(ntile_of_rank(rnk, total, RANK_NTILES)),
        })

    return ranked.map_batches(finish, batch_format="pyarrow")


GLOBAL_RANK_SQL = f"""
SELECT event_id, value,
       row_number() OVER w AS rnk,
       percent_rank() OVER w AS pct,
       ntile({RANK_NTILES}) OVER w AS tile
FROM events
WINDOW w AS (ORDER BY value, event_id)
"""


# ---------------------------------------------------------------------------
# 4. Event-sequence transitions: counts of adjacent (prev -> next)
# event types per user timeline — the Markov / session-flow mining op.
# One range shuffle (sorted by user, ts, event_id for a total order);
# adjacent pairs extracted vectorized across each whole block with a
# user-boundary mask; pair counts pre-reduced per block then
# tree-combined (output cardinality = |event_type|^2).
# ---------------------------------------------------------------------------


@query(oracle=lambda: EVENT_TRANSITIONS_SQL)
def q_event_transitions(sf_dir: str):
    """(prev_type, next_type, n) over per-user time-ordered events."""
    import ray.data

    from ..stages.agg import group_runs, sorted_map_groups, tree_sum

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "event_id",
                                        "event_type"])

    empty = pa.table({"prev_type": pa.array([], pa.string()),
                      "next_type": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64())})

    def pairs_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows < 2:
            return empty
        uid = batch.column("user_id").to_numpy()
        et = batch.column("event_type")
        same = pa.array(uid[1:] == uid[:-1])
        prev = et.slice(0, batch.num_rows - 1).filter(same)
        nxt = et.slice(1).filter(same)
        return pa.table({"prev_type": prev, "next_type": nxt}) \
            .group_by(["prev_type", "next_type"]) \
            .aggregate([([], "count_all")]) \
            .rename_columns(["prev_type", "next_type", "n"])

    counts = sorted_map_groups(ds, ["user_id"], pairs_block,
                               sort_keys=["user_id", "ts", "event_id"])
    return tree_sum(counts, ["prev_type", "next_type"], ["n"])


EVENT_TRANSITIONS_SQL = """
WITH seq AS (
  SELECT user_id, event_type,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS nxt
  FROM events)
SELECT event_type AS prev_type, nxt AS next_type, count(*) AS n
FROM seq WHERE nxt IS NOT NULL
GROUP BY event_type, nxt
"""


# ---------------------------------------------------------------------------
# 5. Grouped linear regression: per-event-type OLS slope/intercept from
# tree-combined sufficient statistics (n, sx, sy, sxy, sxx) — the
# one-pass distributed regression pattern (no residual second pass).
# Parity: x/y are exact small integers derived from ts/user_id, the
# sums are exact int64, and slope/intercept are the identical short
# IEEE sequence on both engines (every intermediate < 2^53).
# ---------------------------------------------------------------------------


@query(oracle=lambda: GROUPED_REGRESSION_SQL)
def q_grouped_regression(sf_dir: str):
    """(event_type, n, slope, intercept) of y = user_id % 997 against
    x = second-of-hour(ts)."""
    import ray.data

    from ..stages.agg import tree_sum

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        x = (us // 1_000_000) % 3600
        y = batch.column("user_id").to_numpy() % 997
        t = pa.table({
            "event_type": batch.column("event_type"),
            "n": pa.array(np.ones(len(x), np.int64)),
            "sx": pa.array(x), "sy": pa.array(y),
            "sxy": pa.array(x * y), "sxx": pa.array(x * x),
        })
        return t.group_by(["event_type"]).aggregate(
            [(c, "sum") for c in ("n", "sx", "sy", "sxy", "sxx")]) \
            .rename_columns(["event_type", "n", "sx", "sy", "sxy", "sxx"])

    rows = tree_sum(ds.map_batches(partial, batch_format="pyarrow"),
                    ["event_type"], ["n", "sx", "sy", "sxy", "sxx"])

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy().astype(np.float64)
        sx = batch.column("sx").to_numpy().astype(np.float64)
        sy = batch.column("sy").to_numpy().astype(np.float64)
        sxy = batch.column("sxy").to_numpy().astype(np.float64)
        sxx = batch.column("sxx").to_numpy().astype(np.float64)
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        intercept = (sy - slope * sx) / n
        return pa.table({
            "event_type": batch.column("event_type"),
            "n": batch.column("n"),
            "slope": pa.array(slope),
            "intercept": pa.array(intercept),
        })

    return rows.map_batches(finish, batch_format="pyarrow")


GROUPED_REGRESSION_SQL = """
WITH xy AS (
  SELECT event_type,
         (epoch_us(ts) // 1000000) % 3600 AS x,
         user_id % 997 AS y
  FROM events),
s AS (
  SELECT event_type, count(*) AS n,
         CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
         CAST(sum(x*y) AS BIGINT) AS sxy,
         CAST(sum(x*x) AS BIGINT) AS sxx
  FROM xy GROUP BY event_type)
SELECT event_type, n,
       (CAST(n AS DOUBLE) * sxy - CAST(sx AS DOUBLE) * sy)
         / (CAST(n AS DOUBLE) * sxx - CAST(sx AS DOUBLE) * sx) AS slope,
       (CAST(sy AS DOUBLE)
          - ((CAST(n AS DOUBLE) * sxy - CAST(sx AS DOUBLE) * sy)
             / (CAST(n AS DOUBLE) * sxx - CAST(sx AS DOUBLE) * sx))
            * sx) / n AS intercept
FROM s
"""


# ---------------------------------------------------------------------------
# 6. Inverted index build: bigram term -> (df, comma-joined sorted
# posting list), capped at POSTINGS_CAP docs per term (stopword-like
# terms are dropped, exactly — the sorted-shuffle tombstone-truncation
# path guarantees a term split across blocks can't sneak in under the
# cap). Per-block tokenize + (doc, term) dedup is global dedup because
# a document is one row; postings strings are built by Arrow's
# list-join kernel over key-run offsets — no per-row Python.
# ---------------------------------------------------------------------------

POSTINGS_CAP = 220


@query(oracle=lambda: INVERTED_INDEX_SQL)
def q_inverted_index(sf_dir: str):
    """(term, df, postings) for bigram terms with df <= POSTINGS_CAP."""
    import ray.data

    from ..stages.agg import group_runs, sorted_map_groups, truncate_runs

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def term_doc(batch: pa.Table) -> pa.Table:
        words = pc.split_pattern(batch.column("text"), " ")
        wf = (words.combine_chunks()
              if isinstance(words, pa.ChunkedArray) else words)
        offs = np.frombuffer(wf.buffers()[1], dtype=np.int32)[
            wf.offset:wf.offset + len(wf) + 1]
        flat = wf.flatten()
        docidx = np.repeat(np.arange(len(wf)), np.diff(offs))
        bg = pc.binary_join_element_wise(
            flat.slice(0, max(len(flat) - 1, 0)), flat.slice(1), " ")
        same = docidx[:-1] == docidx[1:]
        pairs = pa.table({"d": pa.array(docidx[:-1][same]),
                          "term": pc.array_filter(bg, pa.array(same))}) \
            .group_by(["d", "term"]).aggregate([])
        doc_ids = batch.column("doc_id").to_numpy()[
            pairs.column("d").to_numpy()]
        return pa.table({"term": pairs.column("term"),
                         "doc_id": pa.array(doc_ids)})

    empty = pa.table({"term": pa.array([], pa.string()),
                      "df": pa.array([], pa.int64()),
                      "postings": pa.array([], pa.string())})

    def postings_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return empty
        starts, ends = group_runs(batch, ["term"])
        sizes = ends - starts
        keep = sizes <= POSTINGS_CAP
        if not keep.any():
            return empty
        ks, ke = starts[keep], ends[keep]
        # gather kept runs back-to-back, then one vectorized list-join
        idx = np.concatenate([np.arange(s, e) for s, e in zip(ks, ke)])
        docs_s = pc.cast(batch.column("doc_id").take(pa.array(idx)),
                         pa.string())
        offsets = np.concatenate([[0], np.cumsum(ke - ks)]).astype(np.int32)
        lists = pa.ListArray.from_arrays(pa.array(offsets),
                                         docs_s.combine_chunks())
        return pa.table({
            "term": batch.column("term").take(pa.array(ks)),
            "df": pa.array((ke - ks).astype(np.int64)),
            "postings": pc.binary_join(lists, ","),
        })

    return sorted_map_groups(ds.map_batches(term_doc,
                                            batch_format="pyarrow"),
                             ["term"], postings_block,
                             sort_keys=["term", "doc_id"],
                             pre_reduce=truncate_runs(["term"],
                                                      POSTINGS_CAP))


INVERTED_INDEX_SQL = f"""
WITH s AS (SELECT doc_id, string_split(text, ' ') AS s FROM documents),
b AS (SELECT DISTINCT doc_id, s[i] || ' ' || s[i+1] AS term
      FROM s, UNNEST(range(1, len(s))) AS t(i)),
g AS (SELECT term, count(*) AS df,
             string_agg(CAST(doc_id AS VARCHAR), ','
                        ORDER BY doc_id) AS postings
      FROM b GROUP BY term)
SELECT term, df, postings FROM g WHERE df <= {POSTINGS_CAP}
"""


# ---------------------------------------------------------------------------
# 7. Latest-snapshot compaction (CDC / crawl dedup: "newest record per
# key"): per user, the latest event by (ts, event_id) with its payload.
# One associative aggregate, no row shuffle: (ts, event_id, value) is
# packed into a 24-byte big-endian blob whose lexicographic max IS the
# (ts, event_id) max — the unique id tiebreak means the payload suffix
# never decides — so the whole op is tree-combined fixed_size_binary
# MAX partials (Arrow C++ group_by), then one vectorized unpack.
# ---------------------------------------------------------------------------


def _pack_ts_id_val(ts_us, eid, val) -> pa.Array:
    n = len(ts_us)
    packed = np.empty((n, 24), dtype=np.uint8)
    packed[:, 0:8] = ts_us.astype(np.uint64).byteswap() \
        .view(np.uint8).reshape(n, 8)
    packed[:, 8:16] = eid.astype(np.uint64).byteswap() \
        .view(np.uint8).reshape(n, 8)
    packed[:, 16:24] = val.astype(np.float64).view(np.uint64) \
        .byteswap().view(np.uint8).reshape(n, 8)
    return pa.Array.from_buffers(pa.binary(24), n,
                                 [None, pa.py_buffer(packed.tobytes())])


@query(oracle=lambda: LATEST_SNAPSHOT_SQL)
def q_latest_snapshot(sf_dir: str):
    """(user_id, last_ts_us, last_event_id, last_value) per user."""
    import ray.data

    from ..stages.agg import tree_agg

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts", "event_id",
                                        "value"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        packed = _pack_ts_id_val(ts,
                                 batch.column("event_id").to_numpy(),
                                 batch.column("value").to_numpy())
        t = pa.table({"user_id": batch.column("user_id"), "p": packed})
        return t.group_by(["user_id"]).aggregate([("p", "max")]) \
            .rename_columns(["user_id", "p"])

    rows = tree_agg(ds.map_batches(partial, batch_format="pyarrow"),
                    ["user_id"], [("p", "max")])

    def finish(batch: pa.Table) -> pa.Table:
        p = batch.column("p").combine_chunks()
        n = len(p)
        raw = np.frombuffer(p.buffers()[1], dtype=np.uint8)[
            p.offset * 24:(p.offset + n) * 24].reshape(n, 24)
        ts = raw[:, 0:8].copy().view(np.uint64).byteswap() \
            .astype(np.int64).ravel()
        eid = raw[:, 8:16].copy().view(np.uint64).byteswap() \
            .astype(np.int64).ravel()
        val = raw[:, 16:24].copy().view(np.uint64).byteswap() \
            .view(np.float64).ravel()
        return pa.table({
            "user_id": batch.column("user_id"),
            "last_ts_us": pa.array(ts),
            "last_event_id": pa.array(eid),
            "last_value": pa.array(val),
        })

    return rows.map_batches(finish, batch_format="pyarrow")


LATEST_SNAPSHOT_SQL = """
WITH r AS (
  SELECT user_id, epoch_us(ts) AS ts_us, event_id, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events)
SELECT user_id, ts_us AS last_ts_us, event_id AS last_event_id,
       value AS last_value
FROM r WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# 8. N-gram language-model counts: corpus-wide word-trigram counts at a
# minimum support — the n-gram LM / memorization-analysis table. Same
# flattened-words machinery as the repetition signals; per-block counts
# come out of Arrow's C++ hash aggregation and only (trigram, partial
# count) rows — already collapsed to unique trigrams per block — enter
# the sorted range shuffle. The min-support filter runs AFTER the
# global sum (exact).
# ---------------------------------------------------------------------------

TRIGRAM_MIN_SUPPORT = 5


@query(oracle=lambda: NGRAM_COUNTS_SQL)
def q_ngram_counts(sf_dir: str):
    """(trigram, n) for word trigrams with n >= TRIGRAM_MIN_SUPPORT."""
    import ray.data

    from ..stages.agg import sorted_sum

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        words = pc.split_pattern(batch.column("text"), " ")
        wf = (words.combine_chunks()
              if isinstance(words, pa.ChunkedArray) else words)
        offs = np.frombuffer(wf.buffers()[1], dtype=np.int32)[
            wf.offset:wf.offset + len(wf) + 1]
        flat = wf.flatten()
        docidx = np.repeat(np.arange(len(wf)), np.diff(offs))
        m = max(len(flat) - 2, 0)
        tri = pc.binary_join_element_wise(
            flat.slice(0, m), flat.slice(1, m), flat.slice(2, m),
            " ")
        same = docidx[:-2] == docidx[2:]
        return pa.table({"trigram": pc.array_filter(tri, pa.array(same))}) \
            .group_by(["trigram"]).aggregate([([], "count_all")]) \
            .rename_columns(["trigram", "n"])

    totals = sorted_sum(ds.map_batches(partial, batch_format="pyarrow"),
                        ["trigram"], ["n"])
    return totals.map_batches(
        lambda b: b.filter(pc.greater_equal(b.column("n"),
                                            TRIGRAM_MIN_SUPPORT)),
        batch_format="pyarrow")


NGRAM_COUNTS_SQL = f"""
WITH s AS (SELECT string_split(text, ' ') AS s FROM documents),
t AS (SELECT s[i] || ' ' || s[i+1] || ' ' || s[i+2] AS trigram
      FROM s, UNNEST(range(1, len(s) - 1)) AS u(i))
SELECT trigram, count(*) AS n FROM t GROUP BY trigram
HAVING count(*) >= {TRIGRAM_MIN_SUPPORT}
"""


# ---------------------------------------------------------------------------
# 9. Contamination screen: count documents containing each of a fixed
# probe-phrase set (the benchmark-contamination / blocklist-phrase
# scan). Broadcast-small probe list, one Arrow match_substring pass per
# probe per batch (RE2-free literal scan), per-block hit counts tree-
# combined. Probes that hit nothing still appear with n_docs = 0.
# ---------------------------------------------------------------------------

CONTAMINATION_PROBES = [
    "key agg row", "window table", "merge batch", "the line sort",
    "spark a a the", "no such phrase xyz",
]


@query(oracle=lambda: CONTAMINATION_SQL)
def q_contamination(sf_dir: str):
    """(probe, n_docs): documents containing each probe substring."""
    import ray.data

    from ..stages.agg import tree_sum

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        counts = [int(pc.sum(pc.match_substring(text, p)).as_py() or 0)
                  for p in CONTAMINATION_PROBES]
        return pa.table({
            "probe": pa.array(CONTAMINATION_PROBES, pa.string()),
            "n_docs": pa.array(counts, pa.int64()),
        })

    return tree_sum(ds.map_batches(partial, batch_format="pyarrow"),
                    ["probe"], ["n_docs"])


CONTAMINATION_SQL = "\nUNION ALL\n".join(
    f"SELECT '{p}' AS probe, "
    f"CAST(count(*) FILTER (WHERE contains(text, '{p}')) AS BIGINT) "
    f"AS n_docs FROM documents"
    for p in CONTAMINATION_PROBES)


# ---------------------------------------------------------------------------
# 10. Grouped ranking: row_number within each user's timeline — the
# partitioned window-function counterpart of the global rank. One
# (user, ts, id) range shuffle; within-run positions come from the
# vectorized run-index subtraction (no per-group dispatch). Unlike
# global_rank no cross-block offset pass is needed: sorted_map_groups
# guarantees every group lands whole on one block.
# ---------------------------------------------------------------------------


@query(oracle=lambda: GROUPED_RANK_SQL)
def q_grouped_rank(sf_dir: str):
    """(event_id, user_id, seq): 1-based position of each event in its
    user's (ts, event_id) order."""
    import ray.data

    from ..stages.agg import group_runs, sorted_map_groups

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts"])

    def block(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({"event_id": pa.array([], pa.int64()),
                             "user_id": pa.array([], pa.int64()),
                             "seq": pa.array([], pa.int64())})
        starts, ends = group_runs(batch, ["user_id"])
        run_id = np.repeat(np.arange(len(starts)), ends - starts)
        seq = np.arange(n, dtype=np.int64) - starts[run_id] + 1
        return pa.table({"event_id": batch.column("event_id"),
                         "user_id": batch.column("user_id"),
                         "seq": pa.array(seq)})

    return sorted_map_groups(ds, ["user_id"], block,
                             sort_keys=["user_id", "ts", "event_id"])


GROUPED_RANK_SQL = """
SELECT event_id, user_id,
       row_number() OVER (PARTITION BY user_id
                          ORDER BY ts, event_id) AS seq
FROM events
"""


# ---------------------------------------------------------------------------
# 11. Order-independent table checksum: sum of per-row md5 digests mod
# 2^64 — the replication / migration integrity fingerprint (any row
# order, any partitioning, same digest). Per-block partials wrap in
# int64 two's-complement (≡ uint64 mod 2^64, verified against Arrow's
# wrapping sum) and tree-combine; md5 per row is the repo's accepted
# SQL-parity exception (DuckDB md5_number_lower must be reproduced).
# Digest emitted as a decimal string so both engines compare exactly.
# ---------------------------------------------------------------------------


@query(oracle=lambda: TABLE_CHECKSUM_SQL)
def q_table_checksum(sf_dir: str):
    """(checksum, n_rows) over documents: md5-row-digest sum mod 2^64."""
    import ray.data

    from ..functions.text import md5_u64
    from ..stages.agg import tree_sum

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=PROFILE_COLS)

    def partial(batch: pa.Table) -> pa.Table:
        joined = pc.binary_join_element_wise(
            *[pc.cast(batch.column(c), pa.string())
              for c in PROFILE_COLS], "|")
        h = md5_u64([s.encode() for s in joined.to_pylist()])
        lo = np.int64(h.sum())  # wraps: ≡ mod 2^64
        # SQL's sum over no rows is NULL
        return pa.table({"k": pa.array([0], pa.int64()),
                         "cs": pa.array([lo if len(h) else None], pa.int64()),
                         "n_rows": pa.array([batch.num_rows], pa.int64())})

    rows = tree_sum(ds.map_batches(partial, batch_format="pyarrow"),
                    ["k"], ["cs", "n_rows"])

    def finish(batch: pa.Table) -> pa.Table:
        cs = batch.column("cs").to_pylist()
        return pa.table({
            "checksum": pa.array([None if v is None else str(v % 2**64)
                                  for v in cs], pa.string()),
            "n_rows": batch.column("n_rows"),
        })

    return rows.map_batches(finish, batch_format="pyarrow")


TABLE_CHECKSUM_SQL = f"""
SELECT CAST(CAST(sum(CAST(md5_number_lower(
         concat_ws('|', {", ".join(PROFILE_COLS)})) AS HUGEINT))
       % 18446744073709551616 AS UBIGINT) AS VARCHAR) AS checksum,
       count(*) AS n_rows
FROM documents
"""
