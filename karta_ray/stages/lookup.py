"""Keyed lookup: attach a keyed side's payload columns to every row of a
Dataset whose key matches, with inner-join semantics.

One policy for every "broadcast the small side, else hash-join" attach
(tf-idf document frequencies, MinHash signatures, LSH vectors, n-gram
set sizes, star-join dimensions, per-language thresholds):

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

from ..state.worker import cached, resolve

BROADCAST_MAX_BYTES = 1 << 30
JOIN_PARTITION_BYTES = 128 << 20


def lookup(ds, keyed, *, on: str, key: str, columns: list,
           suffix: str = ""):
    """``ds`` rows whose ``on`` value equals a ``keyed[key]``, with that
    keyed row's ``columns`` appended as ``<column><suffix>``; rows with
    no match drop. ``keyed`` is a Dataset or a driver-side ``pa.Table``.
    Probe columns keep their order and types; the appended columns keep
    the keyed side's types."""
    import ray
    import ray.data

    names = [c + suffix for c in columns]
    cols = [key, *columns]
    if isinstance(keyed, pa.Table):
        nbytes = keyed.nbytes
    else:
        keyed = keyed.materialize()
        nbytes = keyed.size_bytes()
    if nbytes > BROADCAST_MAX_BYTES:
        ds = ds.materialize()
        if ds.count():
            if isinstance(keyed, pa.Table):
                keyed = ray.data.from_blocks([keyed])
            right = keyed.select_columns(cols).rename_columns(
                dict(zip(columns, names)))
            parts = -(-(ds.size_bytes() + nbytes) // JOIN_PARTITION_BYTES)
            return ds.join(right, "inner", num_partitions=parts,
                           on=(on,), right_on=(key,))
        keyed = None  # Dataset.join cannot take an empty side

    table = _table(keyed, cols)
    table = table.filter(pc.is_valid(table.column(key)))
    keys = table.column(key).to_numpy(zero_copy_only=False)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():
        raise ValueError(f"lookup: duplicate keys in {key!r}")
    payload = table.select(columns).take(order).rename_columns(names)
    ref = ray.put((keys, payload))
    return ds.map_batches(_attach, batch_format="pyarrow",
                          zero_copy_batch=True,
                          fn_kwargs={"ref": ref, "on": on})


def _table(keyed, cols: list) -> pa.Table:
    """``keyed``'s ``cols`` as one driver-side table; ``None`` has no
    rows."""
    import ray

    if isinstance(keyed, pa.Table):
        return keyed.select(cols)
    blocks = [] if keyed is None else [
        b.select(cols) for b in ray.get(keyed.to_arrow_refs())
        if b.num_rows]
    if blocks:
        return pa.concat_tables(blocks)
    # no keyed rows: no probe row matches, so no payload value (or
    # type) reaches the output
    return pa.table({c: pa.nulls(0) for c in cols})


def _attach(batch: pa.Table, *, ref, on: str) -> pa.Table:
    keys, payload = cached(resolve, ref)
    col = batch.column(on)
    if col.null_count:
        batch = batch.filter(pc.is_valid(col))
        col = batch.column(on)
    q = col.to_numpy(zero_copy_only=False)
    i = np.minimum(np.searchsorted(keys, q), max(len(keys) - 1, 0))
    hit = keys[i] == q if len(keys) else np.zeros(len(q), bool)
    if not hit.all():
        rows = np.nonzero(hit)[0]
        batch, i = batch.take(rows), i[rows]
    for name in payload.column_names:
        batch = batch.append_column(name, payload.column(name).take(i))
    return batch
