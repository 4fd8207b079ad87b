"""DuckDB oracle SQL for the approximate / iterative operators.

These queries were previously rows-only checks ("no_oracle"); each SQL
here reproduces the engine's output BIT FOR BIT by mirroring the exact
hash/bit arithmetic:

- minhash_lsh  — the polynomial shingle hash (uint64-wrap then mod
  2^61-1), the 128 (a*x+b) mod M61 permutations (literal parameters),
  the FNV-1a band fold (list_reduce over HUGEINT mod 2^64), the
  bucket-size cap, and the agreement estimate (a dyadic n/128 — float-
  exact on both sides).
- simhash      — md5 token hashes (md5_number_lower parity with
  functions.text.md5_u64), per-bit +/-1 votes, 4x16-bit block
  bucketing with the size cap, xor+bit_count Hamming distance.
- approx_distinct — the HLL sketch registers themselves: bucket =
  top-p hash bits, rank = leading zeros of the shifted remainder
  (a generated CASE chain — integer compares, no float log2).
- kmeans       — assignment to the deterministic seed centroids (the k
  smallest vec_ids, selected by the SQL itself) with integer-exact
  per-cluster aggregates; argmin ties broken by label on both sides.
- convex_hull  — Akl-Toussaint octagon prefilter, then the directed
  hull-edge characterization (every other candidate strictly left, or
  exactly collinear AND on-segment — the same points Graham's scan
  drops), then a recursive walk along the edge cycle to reproduce the
  engine's CCW scan order from the leftmost vertex.  The cross
  products use the identical float64 expression as kernels/hull.py
  ``isleft``, so the comparisons agree bit for bit.
- ann_ivf      — exact-mode twin (nprobe=None probes every cluster),
  so its query registers the brute-force ann_topk SQL unchanged (no
  builder here).

Known fixture-level assumptions (latent, not exercised by the
deterministic testdata, documented for honesty):

- minhash_lsh / simhash SQL omit degenerate documents the engine
  handles (texts shorter than the shingle width take the engine's
  md5-fallback shingle; token-less texts get simhash signature 0);
  the fixture corpus has min text length 47 and no blank docs.
- kmeans: the engine's argmin uses the ||x||^2 - 2x.c + ||c||^2
  expansion while the SQL sums (x_i - c_i)^2 in dimension order;
  a vector equidistant from two centroids to within float rounding
  could be labeled differently. The fixtures are deterministic and
  contain no such tie.
- convex_hull: the engine's Graham scan and the SQL's all-pairs
  strict-left test evaluate different cross-product triples; exactly
  collinear triples within 1 ulp could diverge. The derived point set
  has no such degeneracy.
"""

from __future__ import annotations

W64 = 1 << 64
M61 = (1 << 61) - 1
POLY_B = 1_000_003  # functions.text._B
FNV_SEED = 1469598103934665603
FNV_PRIME = 1099511628211


def minhash_sql(k: int, bands: int, threshold: float) -> str:
    from ..functions.text import _MH_A, _MH_B
    from ..stages.dedup import LSH_MAX_BUCKET as cap

    rows = k // bands
    params = ", ".join(
        f"({j}, {int(_MH_A[j])}::HUGEINT, {int(_MH_B[j])}::HUGEINT)"
        for j in range(k))
    return f"""
WITH mh(perm, a, b) AS (VALUES {params}),
pos AS (
  SELECT doc_id, text, unnest(range(1, length(text) - 1)) AS i
  FROM documents),
sh0 AS (
  SELECT DISTINCT doc_id,
    CAST((((((unicode(substr(text, i, 1))::HUGEINT % {M61}) * {POLY_B}
       + unicode(substr(text, i + 1, 1))) % {W64} % {M61}) * {POLY_B}
       + unicode(substr(text, i + 2, 1))) % {W64}) % {M61} AS UBIGINT) AS sh
  FROM pos),
sig AS (
  SELECT doc_id, perm,
         CAST(MIN(CAST(((a * sh) % {W64} + b) % {W64} % {M61} AS UBIGINT))
              AS UBIGINT) AS mv
  FROM sh0 CROSS JOIN mh GROUP BY doc_id, perm),
band AS (
  SELECT doc_id, perm // {rows} AS band,
         list_reduce(list_prepend(CAST({FNV_SEED} AS UBIGINT),
                                  list(mv ORDER BY perm)),
           (acc, x) -> CAST((CAST(xor(acc, x) AS HUGEINT) * {FNV_PRIME})
                            % {W64} AS UBIGINT)) AS key
  FROM sig GROUP BY doc_id, perm // {rows}),
ok AS (
  SELECT band, key FROM band GROUP BY band, key
  HAVING COUNT(DISTINCT doc_id) BETWEEN 2 AND {cap}),
cand AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM band a
  JOIN band b ON a.band = b.band AND a.key = b.key AND a.doc_id < b.doc_id
  JOIN ok ON ok.band = a.band AND ok.key = a.key),
agree AS (
  SELECT c.doc_a, c.doc_b,
         SUM(CASE WHEN sa.mv = sb.mv THEN 1 ELSE 0 END) AS n_eq
  FROM cand c JOIN sig sa ON sa.doc_id = c.doc_a
              JOIN sig sb ON sb.doc_id = c.doc_b AND sb.perm = sa.perm
  GROUP BY c.doc_a, c.doc_b)
SELECT doc_a, doc_b, CAST(n_eq AS DOUBLE) / {k} AS est_sim
FROM agree WHERE CAST(n_eq AS DOUBLE) / {k} >= {threshold!r}
"""


def simhash_sql() -> str:
    from ..stages.dedup import SIMHASH_MAX_BUCKET as cap
    from ..stages.dedup import SIMHASH_MAX_HAMMING as max_hamming

    pow2 = ", ".join(f"({b}, {1 << b}::HUGEINT)" for b in range(64))
    i64max = 1 << 63
    return f"""
WITH p2(b, pw) AS (VALUES {pow2}),
tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents),
th AS (SELECT doc_id, md5_number_lower(w) AS hv FROM tok WHERE w <> ''),
bit AS (
  SELECT doc_id, p2.b, p2.pw,
         SUM(CASE WHEN (hv >> p2.b) & 1::UBIGINT = 1::UBIGINT
                  THEN 1 ELSE -1 END) AS score
  FROM th CROSS JOIN p2 GROUP BY doc_id, p2.b, p2.pw),
sig AS (
  SELECT doc_id,
         CAST(SUM(CASE WHEN score > 0 THEN pw ELSE 0::HUGEINT END)
              AS HUGEINT) AS s
  FROM bit GROUP BY doc_id),
blk AS (
  SELECT doc_id, s, q.blk,
         CAST((s // (CASE q.blk WHEN 0 THEN 1 WHEN 1 THEN 65536
               WHEN 2 THEN 4294967296
               ELSE 281474976710656 END)::HUGEINT) % 65536 AS BIGINT) AS key
  FROM sig CROSS JOIN (SELECT unnest(range(0, 4)) AS blk) q),
sized AS (
  SELECT blk, key FROM blk GROUP BY blk, key
  HAVING COUNT(DISTINCT doc_id) BETWEEN 2 AND {cap}),
cand AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b,
                  a.s AS sa, b.s AS sb
  FROM blk a
  JOIN blk b ON a.blk = b.blk AND a.key = b.key AND a.doc_id < b.doc_id
  JOIN sized s ON s.blk = a.blk AND s.key = a.key),
ham AS (
  SELECT doc_a, doc_b,
         bit_count(xor(
           CAST(CASE WHEN sa >= {i64max}::HUGEINT
                THEN sa - {W64}::HUGEINT ELSE sa END AS BIGINT),
           CAST(CASE WHEN sb >= {i64max}::HUGEINT
                THEN sb - {W64}::HUGEINT ELSE sb END AS BIGINT))) AS hamming
  FROM cand)
SELECT doc_a, doc_b, CAST(MIN(hamming) AS BIGINT) AS hamming
FROM ham WHERE hamming <= {max_hamming} GROUP BY doc_a, doc_b
"""


def hll_sql(p: int) -> str:
    cases = " ".join(f"WHEN rest >= {1 << (63 - i)}::UBIGINT THEN {i + 1}"
                     for i in range(0, 64 - p + 1))
    return f"""
WITH h AS (
  SELECT md5_number_lower(CAST(user_id AS VARCHAR)) AS hv FROM events),
r AS (
  SELECT CAST(hv >> {64 - p} AS BIGINT) AS bucket,
         CAST((CAST(hv AS HUGEINT) * {1 << p}) % {W64} AS UBIGINT)
           | {1 << (p - 1)}::UBIGINT AS rest
  FROM h)
SELECT bucket, CAST(MAX(CASE {cases} END) AS BIGINT) AS register
FROM r GROUP BY bucket
"""


def kmeans_sql(k: int) -> str:
    return f"""
WITH cent AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS label,
         embedding::DOUBLE[] AS c
  FROM embeddings ORDER BY vec_id LIMIT {k}),
d AS (
  SELECT e.vec_id, c.label,
         list_sum(list_transform(list_zip(e.embedding::DOUBLE[], c.c),
                                 x -> (x[1] - x[2]) * (x[1] - x[2]))) AS d2
  FROM embeddings e CROSS JOIN cent c),
a AS (
  SELECT vec_id, label,
         row_number() OVER (PARTITION BY vec_id ORDER BY d2, label) AS rk
  FROM d)
SELECT label, COUNT(*) AS n, CAST(SUM(vec_id) AS BIGINT) AS sum_vec_id
FROM a WHERE rk = 1 GROUP BY label
"""


def hull_sql(lon_mult: int, lat_mult: int) -> str:
    return f"""
WITH pts AS (
  SELECT DISTINCT
    ((l_orderkey*8 + l_linenumber) * {lon_mult} % 360000000)
      / 1000000.0 - 180.0 AS x,
    ((l_orderkey*8 + l_linenumber) * {lat_mult} % 160000000)
      / 1000000.0 - 80.0 AS y
  FROM lineitem),
ext AS (
  SELECT * FROM (
    (SELECT x, y FROM pts ORDER BY x ASC,  y DESC LIMIT 1) UNION
    (SELECT x, y FROM pts ORDER BY x DESC, y ASC  LIMIT 1) UNION
    (SELECT x, y FROM pts ORDER BY y ASC,  x DESC LIMIT 1) UNION
    (SELECT x, y FROM pts ORDER BY y DESC, x ASC  LIMIT 1) UNION
    (SELECT x, y FROM pts ORDER BY (x+y) ASC,  x LIMIT 1) UNION
    (SELECT x, y FROM pts ORDER BY (x+y) DESC, x LIMIT 1) UNION
    (SELECT x, y FROM pts ORDER BY (x-y) ASC,  x LIMIT 1) UNION
    (SELECT x, y FROM pts ORDER BY (x-y) DESC, x LIMIT 1))),
ctr AS (SELECT AVG(x) AS cx, AVG(y) AS cy FROM ext),
octg AS (
  SELECT x, y,
         row_number() OVER (ORDER BY atan2(y - ctr.cy, x - ctr.cx)) AS i,
         COUNT(*) OVER () AS m
  FROM ext, ctr),
edges AS (
  SELECT a.x AS ax, a.y AS ay, b.x AS bx, b.y AS by
  FROM octg a JOIN octg b ON b.i = (a.i % a.m) + 1),
cand AS MATERIALIZED (
  SELECT p.x, p.y
  FROM pts p CROSS JOIN edges e
  GROUP BY p.x, p.y
  HAVING NOT bool_and(
    (e.bx - e.ax)*(p.y - e.ay) - (e.by - e.ay)*(p.x - e.ax) > 0)),
hedges AS MATERIALIZED (
  SELECT ax, ay, bx, by FROM (
    SELECT a.x AS ax, a.y AS ay, b.x AS bx, b.y AS by,
           bool_and((b.x - a.x)*(c.y - a.y) - (b.y - a.y)*(c.x - a.x) > 0
                    OR ((b.x - a.x)*(c.y - a.y)
                        - (b.y - a.y)*(c.x - a.x) = 0
                        AND c.x >= least(a.x, b.x)
                        AND c.x <= greatest(a.x, b.x)
                        AND c.y >= least(a.y, b.y)
                        AND c.y <= greatest(a.y, b.y))) AS ok
    FROM cand a
    JOIN cand b ON (a.x <> b.x OR a.y <> b.y)
    JOIN cand c ON (c.x <> a.x OR c.y <> a.y)
              AND (c.x <> b.x OR c.y <> b.y)
    GROUP BY a.x, a.y, b.x, b.y)
  WHERE ok),
pvt AS (SELECT ax, ay FROM hedges ORDER BY ax ASC, ay DESC LIMIT 1),
walk AS (
  WITH RECURSIVE w(ord, x, y) AS (
    SELECT 0, ax, ay FROM pvt
    UNION ALL
    SELECT w.ord + 1, e.bx, e.by
    FROM w JOIN hedges e ON e.ax = w.x AND e.ay = w.y
    WHERE w.ord < (SELECT COUNT(*) FROM hedges)
      AND NOT (e.bx = (SELECT ax FROM pvt)
               AND e.by = (SELECT ay FROM pvt)))
  SELECT * FROM w)
SELECT CAST(ord AS BIGINT) AS "order", x, y FROM walk
"""
