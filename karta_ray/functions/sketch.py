"""Distributed cardinality sketch: HyperLogLog.

The reference has no approximate aggregates (SURVEY.md §2.5); at 10^12
rows an exact distinct-count of urls is a full shuffle, while an HLL
register array is a tiny, mergeable partial — the canonical
partial+combine aggregate. Standard HLL (Flajolet et al. 2007) with the
usual small/large-range corrections; register merge = elementwise max.
"""

from __future__ import annotations

import numpy as np

_P_DEFAULT = 12  # 4096 registers, ~1.6% standard error


def hll_create(p: int = _P_DEFAULT) -> np.ndarray:
    return np.zeros(1 << p, dtype=np.uint8)


def hll_bucket_rank(hashes: np.ndarray, p: int):
    """(bucket index, rank) per 64-bit hash (vectorized): bucket = top
    p bits, rank = leading zeros of the shifted remainder + 1."""
    h = hashes.astype(np.uint64)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | (np.uint64(1) << np.uint64(p - 1))
    lz = np.zeros(len(h), dtype=np.uint8)
    mask = np.uint64(1) << np.uint64(63)
    cur = rest.copy()
    found = np.zeros(len(h), dtype=bool)
    for i in range(64 - p + 1):
        hit = (~found) & ((cur & mask) != 0)
        lz[hit] = i + 1
        found |= hit
        cur = cur << np.uint64(1)
    return idx, lz


def hll_add_hashes(registers: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """Fold 64-bit hashes into the register array (vectorized)."""
    p = int(np.log2(len(registers)))
    idx, lz = hll_bucket_rank(hashes, p)
    np.maximum.at(registers, idx, lz)
    return registers


def hll_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(a, b)


def hll_count(registers: np.ndarray) -> float:
    m = float(len(registers))
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(2.0 ** -registers.astype(np.float64))
    zeros = int((registers == 0).sum())
    if est <= 2.5 * m and zeros > 0:
        est = m * np.log(m / zeros)  # small-range correction
    elif est > (1 << 32) / 30.0:
        est = -(1 << 32) * np.log(1 - est / (1 << 32))
    return float(est)


def hll_register_rows(ds, col: str, p: int = _P_DEFAULT, *,
                      hash_fn: str = "md5"):
    """The HLL sketch itself as a Dataset of (bucket, register) rows —
    per-batch register partials tree-combined with max (registers are
    mergeable by elementwise max, so the combine is associative).

    ``hash_fn="md5"`` (default) uses the DuckDB-parity hash
    (functions.text.md5_u64 == md5_number_lower), which makes the whole
    sketch — bucket index, rank, register max — reproducible in SQL bit
    for bit; any other value uses the vectorized engine-internal hash
    (functions.text.hash_column_u64 — no per-row Python).
    Only nonzero registers are emitted (bounded: <= 2^p rows).

    The md5 path batch-dedups values first (Arrow ``unique`` — the
    register set is invariant under duplicates), so the unavoidable
    per-value Python md5 runs over per-batch DISTINCT values only; its
    str() key must match SQL's CAST(x AS VARCHAR), which holds for the
    integer/string columns the oracles use."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.agg import tree_agg
    from .text import hash_column_u64, md5_u64

    def partial(batch: pa.Table) -> pa.Table:
        if hash_fn == "md5":
            uniq = pc.unique(batch.column(col))
            vals = pc.cast(uniq, pa.string()).to_pylist()
            h = md5_u64([("" if v is None else v).encode() for v in vals])
        else:
            h = hash_column_u64(batch.column(col))
        regs = hll_add_hashes(hll_create(p), h)
        nz = np.nonzero(regs)[0]
        return pa.table({
            "bucket": pa.array(nz.astype(np.int64)),
            "register": pa.array(regs[nz].astype(np.int64)),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return tree_agg(parts, ["bucket"], [("register", "max")])


def hll_count_from_rows(rows, p: int = _P_DEFAULT) -> float:
    """Estimate from a (bucket, register) table (the hll_register_rows
    output) — reconstructs the register array and applies hll_count."""
    regs = hll_create(p)
    b = np.asarray(rows["bucket"], dtype=np.int64)
    r = np.asarray(rows["register"], dtype=np.int64)
    regs[b] = r.astype(np.uint8)
    return hll_count(regs)


def approx_distinct(ds, col: str, p: int = _P_DEFAULT) -> float:
    """Approximate distinct count of a column over a Dataset.

    Per-batch register partials (vectorized hash — no per-row Python)
    are folded as (bucket, register-max) rows by ``tree_agg``; the
    driver holds only the <= 2^p final register rows plus one flush
    buffer (at 10^6 blocks the former per-block 2^p-byte blob collect
    held GBs on the driver)."""
    rows = hll_register_rows(ds, col, p, hash_fn="fast")
    tbl = rows.take_all()
    return hll_count_from_rows(
        {"bucket": [r["bucket"] for r in tbl],
         "register": [r["register"] for r in tbl]}, p)


# ---------------------------------------------------------------------------
# Count-Min sketch (Cormode & Muthukrishnan 2005): mergeable frequency
# estimates over an unbounded token domain. Like the HLL above, the
# partial is a fixed-size array per block (depth x width uint64) that
# tree-combines by elementwise SUM — no token ever crosses the wire,
# so the network cost is independent of corpus and vocabulary size.
# Estimates are biased high only: est(x) >= true(x), and
# est(x) <= true(x) + eps*N with prob 1-delta for width=ceil(e/eps),
# depth=ceil(ln(1/delta)).
# ---------------------------------------------------------------------------

_CM_SEED_STEP = np.uint64(0xA24BAED4963EE407)


def cm_bucket_indices(hashes: np.ndarray, width: int,
                      depth: int) -> np.ndarray:
    """(depth, n) bucket index matrix — row d uses an independent
    salted re-mix of the base 64-bit hash."""
    from .text import mix64

    out = np.empty((depth, len(hashes)), dtype=np.int64)
    h = hashes.astype(np.uint64)
    for d in range(depth):
        with np.errstate(over="ignore"):
            salted = mix64(h ^ (np.uint64(d + 1) * _CM_SEED_STEP))
        out[d] = (salted % np.uint64(width)).astype(np.int64)
    return out


def cm_sketch_rows(ds, *, width: int = 4096, depth: int = 4,
                   text_col: str = "text", token_mode: bool = True):
    """The Count-Min sketch as a Dataset of nonzero (d, j, n) cells.

    Per-batch partials count token occurrences into a local
    depth x width matrix (np.bincount — vectorized, duplicates keep
    their multiplicity); cells tree-combine by sum. ``token_mode``
    counts space-split tokens of ``text_col``; otherwise each row's
    value counts once."""
    import pyarrow as pa

    from ..stages.agg import tree_sum
    from ..stages.heavy import tokens_of
    from .text import hash_column_u64

    def partial(batch: pa.Table) -> pa.Table:
        col = (tokens_of(batch.column(text_col)) if token_mode
               else batch.column(text_col))
        h = hash_column_u64(col)
        idx = cm_bucket_indices(h, width, depth)
        ds_, js, ns = [], [], []
        for d in range(depth):
            cnt = np.bincount(idx[d], minlength=width)
            nz = np.nonzero(cnt)[0]
            ds_.append(np.full(len(nz), d, dtype=np.int64))
            js.append(nz.astype(np.int64))
            ns.append(cnt[nz].astype(np.int64))
        return pa.table({"d": pa.array(np.concatenate(ds_)),
                         "j": pa.array(np.concatenate(js)),
                         "n": pa.array(np.concatenate(ns))})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return tree_sum(parts, ["d", "j"], ["n"])


def cm_estimate(rows, queries, *, width: int = 4096,
                depth: int = 4) -> np.ndarray:
    """Point frequency estimates for ``queries`` (list of strings)
    from a collected (d, j, n) cell table: min over depths of the
    queried cells."""
    import pyarrow as pa

    from .text import hash_column_u64

    mat = np.zeros((depth, width), dtype=np.int64)
    d = np.asarray(rows["d"], dtype=np.int64)
    j = np.asarray(rows["j"], dtype=np.int64)
    n = np.asarray(rows["n"], dtype=np.int64)
    mat[d, j] = n
    h = hash_column_u64(pa.array([str(q) for q in queries]))
    idx = cm_bucket_indices(h, width, depth)
    return np.min(mat[np.arange(depth)[:, None], idx], axis=0)


def hll_grouped_register_rows(ds, col: str, keys: list,
                              p: int = _P_DEFAULT, *,
                              hash_fn: str = "md5"):
    """GROUPED HLL: one sketch per distinct ``keys`` value, as rows
    (keys..., bucket, register) — "approx distinct users per event
    type" in one pass. The partial dedups (keys, value) pairs in-block
    (the register set is duplicate-invariant), folds each pair to its
    (bucket, rank), and max-combines per (keys, bucket) with Arrow's
    C++ group_by; partials tree-combine by max. Traffic per block is
    bounded by distinct-keys-per-block x 2^p rows regardless of row
    count. ``hash_fn`` semantics as in :func:`hll_register_rows`."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.agg import tree_agg
    from .text import hash_column_u64, md5_u64

    def partial(batch: pa.Table) -> pa.Table:
        uniq = (batch.select(keys + [col])
                .group_by(keys + [col]).aggregate([]))
        if hash_fn == "md5":
            vals = pc.cast(uniq.column(col), pa.string()).to_pylist()
            h = md5_u64([("" if v is None else v).encode()
                         for v in vals])
        else:
            h = hash_column_u64(uniq.column(col))
        idx, lz = hll_bucket_rank(h, p)
        t = (uniq.select(keys)
             .append_column("bucket", pa.array(idx))
             .append_column("register",
                            pa.array(lz.astype(np.int64))))
        g = (t.group_by(keys + ["bucket"])
             .aggregate([("register", "max")]))
        return g.rename_columns(keys + ["bucket", "register"])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return tree_agg(parts, keys + ["bucket"], [("register", "max")])
