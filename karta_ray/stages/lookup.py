"""Keyed lookup: attach a keyed side's payload columns to every row of a
Dataset whose key matches, with inner-join semantics.

One policy for every "broadcast the small side, else hash-join" attach
(tf-idf document frequencies, the near-dup verify step's MinHash and
SimHash signatures and n-gram set sizes, the star join's customer and
order nations, per-language thresholds):

- **broadcast**, when the keyed side holds at most
  :data:`BROADCAST_MAX_BYTES`: its keys are sorted and put in the object
  store once with the payload table; every probe batch resolves it
  through :func:`~karta_ray.state.worker.cached` (once per worker
  process) and matches with one ``np.searchsorted`` + ``take``. No
  shuffle. Duplicate keys raise ``ValueError``.
- **hash join** above the bound: one ``Dataset.join`` with one
  partition per :data:`JOIN_PARTITION_BYTES` of input. Keys must be
  unique here too; checking would cost a second shuffle of the keyed
  side, so this path does not.

Null keys never match, as in SQL.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state.empty import empty_result, materialize_typed
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
    cols = [key, *columns]
    keyed, nbytes = _sized(keyed)
    if nbytes > BROADCAST_MAX_BYTES:
        if isinstance(keyed, pa.Table):
            keyed = ray.data.from_blocks([keyed])
        for o, s in zip(ons, suffixes):
            ds = materialize_typed(ds)
            right = keyed.select_columns(cols).rename_columns(
                {c: c + s for c in columns})
            parts = -(-(ds.size_bytes() + nbytes) // JOIN_PARTITION_BYTES)
            joined = ds.join(right, "inner", num_partitions=parts,
                             on=(o,), right_on=(key,))
            # Dataset.join raises on an empty side
            ds = joined if ds.count() else \
                ray.data.from_blocks([empty_result(joined)])
        return ds

    table = _table(keyed, cols)
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


def _attach(batch: pa.Table, *, ref, on: list, suffix: list) -> pa.Table:
    keys, payload = cached(resolve, ref)
    for o, s in zip(on, suffix):
        col = batch.column(o)
        if col.null_count:
            batch = batch.filter(pc.is_valid(col))
            col = batch.column(o)
        q = col.to_numpy(zero_copy_only=False)
        i = np.minimum(np.searchsorted(keys, q), max(len(keys) - 1, 0))
        hit = keys[i] == q if len(keys) else np.zeros(len(q), bool)
        if not hit.all():
            rows = np.nonzero(hit)[0]
            batch, i = batch.take(rows), i[rows]
        for name in payload.column_names:
            batch = batch.append_column(name + s, payload.column(name).take(i))
    return batch
