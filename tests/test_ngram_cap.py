"""The corpus-scaled ngram df cap: formula parity with the SQL mirror
and an end-to-end >10k-doc run exercising the scaled branch (every sf
testdata corpus has <= 5000 docs, so without this the branch ships
untested)."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def test_cap_formula_matches_sql():
    from karta_ray.pipelines.queries import (NGRAM_DF_CEIL, NGRAM_DF_DENOM,
                                             NGRAM_MAX_DF, ngram_df_cap)

    for n in (1, 100, 5000, 9_999, 10_001, 60_000, 250_000, 10**6, 10**9):
        sql = duckdb.sql(
            f"SELECT LEAST({NGRAM_DF_CEIL}, GREATEST({NGRAM_MAX_DF}, "
            f"{n} // {NGRAM_DF_DENOM}))").fetchone()[0]
        assert ngram_df_cap(n) == sql, n


def _synth_corpus(tmp_path):
    """12,000 docs: unique filler text each, plus a 55-doc group that
    carries a shared marker string M. Two of those 55 consist of M
    ONLY, so their shingles all have df == 55 — rare under the scaled
    cap (60 at 12k docs), ubiquitous under the old fixed cap (50)."""
    rng = np.random.RandomState(7)
    marker = "zqxjkvwpyg" * 3  # 30 chars, shingles unique to the group
    letters = np.array(list("abcdefghimnorstu"))
    texts = []
    for i in range(12_000):
        base = "".join(rng.choice(letters, 40)) + f"#{i:05d}"
        if i < 2:
            texts.append(marker)               # M-only docs (the pair)
        elif i < 55:
            texts.append(base + marker)        # M carriers
        else:
            texts.append(base)
    df = pd.DataFrame({"doc_id": np.arange(12_000, dtype=np.int64),
                       "text": texts})
    path = str(tmp_path / "documents.parquet")
    df.to_parquet(path)
    return path


def test_scaled_branch_engine_vs_duckdb(ray_session, tmp_path):
    import ray.data

    from karta_ray.pipelines.queries import ngram_df_cap
    from karta_ray.stages.dedup import NGRAM_TAU, ngram_jaccard_pairs

    path = _synth_corpus(tmp_path)
    cap = ngram_df_cap(12_000)
    assert cap == 60  # the scaled branch, not the floor

    ds = ray.data.read_parquet(path, override_num_blocks=8)
    got = (ngram_jaccard_pairs(ds, max_df=cap)
           .to_pandas().sort_values(["doc_a", "doc_b"])
           .reset_index(drop=True))

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')")
    want = con.execute(f"""
WITH g0 AS (
  SELECT DISTINCT doc_id, sh
  FROM (SELECT doc_id,
               unnest(CASE
                 WHEN length(text) = 0 THEN CAST([] AS VARCHAR[])
                 WHEN length(text) < 3 THEN [text]
                 ELSE [substr(text, g, 3) FOR g IN range(1, length(text)-1)]
               END) AS sh
        FROM documents)),
rare AS (SELECT sh FROM g0 GROUP BY sh HAVING COUNT(*) <= {cap}),
g AS (SELECT g0.doc_id, g0.sh FROM g0 JOIN rare USING (sh)),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM g GROUP BY doc_id),
shared AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS n_shared
  FROM g a JOIN g b ON a.sh = b.sh AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id)
SELECT doc_a, doc_b, CAST(n_shared AS BIGINT) AS n_shared
FROM shared JOIN sizes sa ON sa.doc_id = doc_a
            JOIN sizes sb ON sb.doc_id = doc_b
WHERE CAST(n_shared AS DOUBLE)/(CAST(sa.n AS DOUBLE) + CAST(sb.n AS DOUBLE)
      - CAST(n_shared AS DOUBLE)) >= {NGRAM_TAU!r}
ORDER BY doc_a, doc_b
""").df()

    # the M-only pair exists at all ONLY because df=55 shingles are
    # rare under the scaled cap; the old fixed cap of 50 drops them
    assert ((want["doc_a"] == 0) & (want["doc_b"] == 1)).any()
    assert got[["doc_a", "doc_b", "n_shared"]].equals(
        want[["doc_a", "doc_b", "n_shared"]])

    # sanity: under the old fixed cap the pair disappears
    got50 = (ngram_jaccard_pairs(
        ray.data.read_parquet(path, override_num_blocks=8),
        max_df=50).to_pandas())
    if len(got50):
        assert not ((got50["doc_a"] == 0) & (got50["doc_b"] == 1)).any()
