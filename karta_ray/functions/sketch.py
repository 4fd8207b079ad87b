"""Distributed cardinality sketch: HyperLogLog.

The reference has no approximate aggregates (SURVEY.md §2.5); at 10^12
rows an exact distinct-count of urls is a full shuffle, while an HLL
register array is a tiny, mergeable partial — the canonical
partial+combine aggregate. Standard HLL (Flajolet et al. 2007) with the
usual small/large-range corrections; register merge = elementwise max.
"""

from __future__ import annotations

import numpy as np

HLL_P = 12  # 4096 registers, ~1.6% standard error


def hll_create() -> np.ndarray:
    return np.zeros(1 << HLL_P, dtype=np.uint8)


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


def hll_register_rows(ds, col: str):
    """The HLL sketch itself as a Dataset of (bucket, register) rows —
    per-batch register partials tree-combined with max (registers are
    mergeable by elementwise max, so the combine is associative).

    Values hash with the DuckDB-parity hash (functions.text.md5_u64 ==
    md5_number_lower), which makes the whole sketch — bucket index,
    rank, register max — reproducible in SQL bit for bit. Only nonzero
    registers are emitted (bounded: <= 2^HLL_P rows).

    Values are batch-deduped first (Arrow ``unique`` — the register set
    is invariant under duplicates), so the unavoidable per-value Python
    md5 runs over per-batch DISTINCT values only; its str() key must
    match SQL's CAST(x AS VARCHAR), which holds for the integer/string
    columns the oracles use."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.agg import tree_agg
    from .text import md5_u64

    def partial(batch: pa.Table) -> pa.Table:
        uniq = pc.unique(batch.column(col))
        vals = pc.cast(uniq, pa.string()).to_pylist()
        h = md5_u64([("" if v is None else v).encode() for v in vals])
        regs = hll_add_hashes(hll_create(), h)
        nz = np.nonzero(regs)[0]
        return pa.table({
            "bucket": pa.array(nz.astype(np.int64)),
            "register": pa.array(regs[nz].astype(np.int64)),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return tree_agg(parts, ["bucket"], [("register", "max")])


def hll_count_from_rows(rows) -> float:
    """Estimate from the (bucket, register) table of an ``HLL_P`` sketch
    (the hll_register_rows output) — reconstructs the register array
    and applies hll_count."""
    regs = hll_create()
    b = np.asarray(rows["bucket"], dtype=np.int64)
    r = np.asarray(rows["register"], dtype=np.int64)
    regs[b] = r.astype(np.uint8)
    return hll_count(regs)


def hll_grouped_register_rows(ds, col: str, keys: list,
                              p: int = HLL_P):
    """GROUPED HLL: one sketch per distinct ``keys`` value, as rows
    (keys..., bucket, register) — "approx distinct users per event
    type" in one pass. The partial dedups (keys, value) pairs in-block
    (the register set is duplicate-invariant), folds each pair to its
    (bucket, rank), and max-combines per (keys, bucket) with Arrow's
    C++ group_by; partials tree-combine by max. Traffic per block is
    bounded by distinct-keys-per-block x 2^p rows regardless of row
    count. Values hash as in :func:`hll_register_rows`."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.agg import tree_agg
    from .text import md5_u64

    def partial(batch: pa.Table) -> pa.Table:
        uniq = (batch.select(keys + [col])
                .group_by(keys + [col]).aggregate([]))
        vals = pc.cast(uniq.column(col), pa.string()).to_pylist()
        h = md5_u64([("" if v is None else v).encode() for v in vals])
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
