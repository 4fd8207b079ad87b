"""Deterministic hash-based sampling.

Random sampling on a distributed corpus must be reproducible across
reruns, resumable shards, and cluster sizes — so no RNG state: a row
is in the sample iff ``hash(id) < rate * 2^64``. Any worker, any
shard, any rerun selects the identical rows, which also makes the
sample a consistent JOIN KEY across tables sharing the id (sample
documents and their embeddings with the same predicate and the two
samples align).

``hash_stratified_sample`` varies the rate per stratum (e.g. keep 10%
of English but 50% of every low-resource language — the standard
training-mix reweighting). Pure ``map_batches`` filter: no shuffle,
no coordination, streams at read speed.

The hash is the md5-low-8-bytes (``functions/text.py::md5_u64``) so a
DuckDB oracle reproduces the exact row set via ``md5_number_lower``;
engine-internal callers that don't need SQL parity can pass
``hasher=hash_column_u64`` for the vectorized no-per-row-Python path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

TWO64 = 1 << 64


def _rate_to_threshold(rate: float) -> np.uint64:
    t = int(rate * TWO64)
    return np.uint64(min(max(t, 0), TWO64 - 1))


def stratified_sample(ds, *, id_col: str, stratum_col: str,
                      rates: dict, default_rate: float,
                      hasher=None):
    """Keep each row with its stratum's rate, deterministically by
    ``hash(str(id))``. ``rates`` maps stratum value -> rate in [0, 1];
    unseen strata use ``default_rate``."""
    from ..functions.text import md5_u64

    thresholds = {k: _rate_to_threshold(v) for k, v in rates.items()}
    t_def = _rate_to_threshold(default_rate)

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        if hasher is None:
            h = md5_u64([str(i).encode() for i in ids])
        else:
            h = hasher(batch.column(id_col))
        strata = batch.column(stratum_col).to_pylist()
        thr = np.fromiter((thresholds.get(s, t_def) for s in strata),
                          dtype=np.uint64, count=len(strata))
        return batch.take(pa.array(np.nonzero(h < thr)[0]))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def grouped_hash_sample(ds, *, keys: list, id_col: str, k: int):
    """EXACTLY ``k`` rows per key group (fewer if the group is
    smaller), chosen as the k smallest ``hash(id)`` — the
    deterministic analogue of per-stratum reservoir sampling, for
    training mixes that need exact per-stratum counts rather than
    rates.

    Like :func:`stratified_sample` the selection is a pure function of
    the id, so reruns, resumed shards and different cluster sizes pick
    identical rows; distribution-wise, ranking by a uniform hash is a
    uniform k-sample without replacement. The heavy lifting is
    :func:`~karta_ray.stages.topn.grouped_topn` (per-block combiner +
    bounded-residue shuffle), so shuffle volume is <= k rows per
    (key, block) — never the corpus."""
    import pyarrow as pa

    from ..functions.text import md5_u64
    from .topn import grouped_topn

    def add_rank(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        h = md5_u64([str(i).encode() for i in ids])
        return batch.append_column("_rank", pa.array(h, pa.uint64()))

    ranked = ds.map_batches(add_rank, batch_format="pyarrow",
                            zero_copy_batch=True)
    out = grouped_topn(ranked, keys, "_rank", k, descending=False,
                       tie_cols=[id_col])
    return out.drop_columns(["_rank"])
