"""Keyed lookup: attach a keyed side's payload columns to every row of a
Dataset whose key matches, with inner-join semantics; and keyed
membership, the semi- and anti-join (:func:`semi_join`).

One policy for every "broadcast the small side, else hash-join" attach
(tf-idf document frequencies, the near-dup verify step's MinHash and
SimHash signatures and n-gram set sizes, the star join's customer and
order nations, per-language thresholds) and membership filter (the
lineitems of urgent orders, or of the others):

- **broadcast**, when the keyed side holds at most
  :data:`BROADCAST_MAX_BYTES`: its keys are sorted and put in the object
  store once with the payload table; every probe batch resolves it
  through :func:`~karta_ray.state.worker.cached` (once per worker
  process) and matches with one ``np.searchsorted`` + ``take``. No
  shuffle. Duplicate keys raise ``ValueError`` (a membership filter
  takes the distinct keys).
- **hash join** above the bound: one ``Dataset.join`` (``inner``,
  ``left_semi`` or ``left_anti``) with one partition per
  :data:`JOIN_PARTITION_BYTES` of input. Lookup keys must be unique
  here too; checking would cost a second shuffle of the keyed side, so
  this path does not. Unlike a sorted co-group, Ray's hash join does
  not shard a hot probe key across tasks.

Null keys never match, as in SQL.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state.empty import empty_like, empty_result, materialize_typed
from ..state.worker import cached, resolve

BROADCAST_MAX_BYTES = 1 << 30
JOIN_PARTITION_BYTES = 128 << 20


def lookup(ds, keyed, *, on, key: str, columns: list, suffix=""):
    """``ds`` rows whose ``on`` value equals a ``keyed[key]``, with that
    keyed row's ``columns`` appended as ``<column><suffix>``; rows with
    no match drop. ``keyed`` is a Dataset or a driver-side ``pa.Table``.
    Probe columns keep their order and types; the appended columns keep
    the keyed side's types.

    ``on`` and ``suffix`` may be parallel lists, one pair per probe
    column (the two sides of a candidate pair): the keyed side is then
    pulled, and broadcast, once, and all of them attach in one pass."""
    import ray
    import ray.data

    ons = [on] if isinstance(on, str) else list(on)
    suffixes = [suffix] if isinstance(suffix, str) else list(suffix)
    if len(ons) != len(suffixes):
        raise ValueError("lookup: on and suffix must pair up")
    keyed, nbytes = _sized(keyed)
    if nbytes > BROADCAST_MAX_BYTES:
        if isinstance(keyed, pa.Table):
            keyed = ray.data.from_blocks([keyed])
        for o, s in zip(ons, suffixes):
            ds = _hash_join(ds, keyed, nbytes, "inner", on=o, key=key,
                            columns=columns, suffix=s)
        return ds

    table = _table(keyed, [key, *columns])
    table = table.filter(pc.is_valid(table.column(key)))
    keys = table.column(key).to_numpy(zero_copy_only=False)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():
        raise ValueError(f"lookup: duplicate keys in {key!r}")
    ref = ray.put((keys, table.select(columns).take(order)))
    return ds.map_batches(_attach, batch_format="pyarrow",
                          zero_copy_batch=True,
                          fn_kwargs={"ref": ref, "on": ons,
                                     "suffix": suffixes})


def semi_join(left, right, *, key: str, anti: bool = False):
    """``left`` rows, columns unchanged, whose ``key`` equals some key of
    the Dataset ``right`` (duplicates allowed), or with ``anti=True``
    none. A null key never matches: the semi-join drops its row, the
    anti-join keeps it (SQL's ``NOT EXISTS``). The distinct right keys,
    in the left key's type, are what the budget sizes."""
    import ray

    ktype = empty_like(left).schema.field(key).type

    def distinct(b: pa.Table) -> pa.Table:
        return pa.table({key: pc.unique(b.column(key).cast(ktype))})

    keyed, nbytes = _sized(right.map_batches(
        distinct, batch_format="pyarrow", zero_copy_batch=True))
    if nbytes > BROADCAST_MAX_BYTES:
        return _hash_join(left, keyed, nbytes,
                          "left_anti" if anti else "left_semi",
                          on=key, key=key)
    keys = _table(keyed, [key]).column(key).drop_null()
    ref = ray.put(np.unique(keys.to_numpy(zero_copy_only=False)))
    return left.map_batches(_member, batch_format="pyarrow",
                            zero_copy_batch=True,
                            fn_kwargs={"ref": ref, "key": key, "anti": anti})


def _hash_join(ds, keyed, nbytes: int, how: str, *, on: str, key: str,
               columns=(), suffix=""):
    """``ds[on]`` joined to the materialized ``keyed[key]`` (``nbytes``),
    its ``columns`` appended as ``<column><suffix>``. Ray's join raises
    on an empty side: the answer is then all of ``ds`` for
    ``left_anti``, else the join's typed empty result."""
    import ray.data

    ds = materialize_typed(ds)
    right = keyed.select_columns([key, *columns])
    if columns:
        right = right.rename_columns({c: c + suffix for c in columns})
    parts = max(-(-(ds.size_bytes() + nbytes) // JOIN_PARTITION_BYTES), 1)
    joined = ds.join(right, how, num_partitions=parts, on=(on,),
                     right_on=(key,))
    if ds.count() and keyed.count():
        return joined
    return ds if how == "left_anti" else \
        ray.data.from_blocks([empty_result(joined)])


def _sized(keyed):
    """``(keyed, its bytes)``, the size the broadcast budget is checked
    against; a Dataset comes back materialized."""
    if isinstance(keyed, pa.Table):
        return keyed, keyed.nbytes
    keyed = materialize_typed(keyed)
    return keyed, keyed.size_bytes()


def _table(keyed, cols: list) -> pa.Table:
    """``keyed``'s ``cols`` as one driver-side table."""
    import ray

    if isinstance(keyed, pa.Table):
        return keyed.select(cols)
    blocks = [b.select(cols) for b in ray.get(keyed.to_arrow_refs())
              if b.num_rows]
    return pa.concat_tables(blocks) if blocks else \
        empty_result(keyed).select(cols)


def _match(keys: np.ndarray, col):
    """``(hit, i)`` for a null-free column: whether each of its values
    is in the sorted ``keys``, and at which index."""
    q = col.to_numpy(zero_copy_only=False)
    i = np.minimum(np.searchsorted(keys, q), max(len(keys) - 1, 0))
    return (keys[i] == q if len(keys) else np.zeros(len(q), bool)), i


def _member(batch: pa.Table, *, ref, key: str, anti: bool) -> pa.Table:
    col = batch.column(key)
    hit = np.zeros(len(col), bool)
    valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
    hit[valid] = _match(cached(resolve, ref), col.drop_null())[0]
    keep = hit != anti
    return batch if keep.all() else batch.filter(pa.array(keep))


def _attach(batch: pa.Table, *, ref, on: list, suffix: list) -> pa.Table:
    keys, payload = cached(resolve, ref)
    for o, s in zip(on, suffix):
        col = batch.column(o)
        if col.null_count:
            batch = batch.filter(pc.is_valid(col))
            col = batch.column(o)
        hit, i = _match(keys, col)
        if not hit.all():
            rows = np.nonzero(hit)[0]
            batch, i = batch.take(rows), i[rows]
        for name in payload.column_names:
            batch = batch.append_column(name + s, payload.column(name).take(i))
    return batch
