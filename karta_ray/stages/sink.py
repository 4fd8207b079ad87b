"""Resumable hash-partitioned parquet sink.

The stage-level checkpoint layer (pipelines/manifest.py) resumes at
stage granularity; this sink closes the gap INSIDE a stage: output is
written as one directory per hash shard of a key column, each shard
carries its own ``_SHARD.json`` manifest (rows, bytes, files, key
column, wall time) written only after the shard's data is durable, and
a re-run prunes rows of already-complete shards at the FILTER stage —
before any downstream compute — so a job killed at shard 37/64 redoes
only the missing 27 shards.

Shape at 100 TB: routing is a groupby shuffle on ``hash(key) % shards``
(one all-to-all — unavoidable for key-partitioned output), each shard
group is written by the task that holds it, and the driver only ever
sees the per-shard metric rows (shards x ~5 numbers), never data.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SHARD_MANIFEST = "_SHARD.json"


def _shard_dir(root: str, shard: int) -> str:
    return os.path.join(root, f"shard={shard:05d}")


def _knuth_hash(keys: np.ndarray, shards: int) -> np.ndarray:
    """Deterministic int64 -> shard id (multiplicative hash; stable
    across runs/processes, unlike Python's salted hash())."""
    with np.errstate(over="ignore"):
        h = keys.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return ((h >> np.uint64(33)) % np.uint64(shards)).astype(np.int64)


def completed_shards(root: str) -> set[int]:
    if not os.path.isdir(root):
        return set()
    done = set()
    for name in os.listdir(root):
        if name.startswith("shard=") and os.path.exists(
                os.path.join(root, name, SHARD_MANIFEST)):
            done.add(int(name.split("=")[1]))
    return done


def read_sink(root: str):
    """Read back a (possibly partial) sink as a Dataset.

    Raises a clear error when no shard has completed (an empty file
    list would otherwise surface as an opaque read_parquet failure)."""
    import ray.data

    files = []
    for s in sorted(completed_shards(root)):
        d = _shard_dir(root, s)
        man = json.load(open(os.path.join(d, SHARD_MANIFEST)))
        files.extend(os.path.join(d, f) for f in man["files"])
    if not files:
        raise FileNotFoundError(
            f"no completed shards under {root!r} (no shard=*/"
            f"{SHARD_MANIFEST} manifests found)")
    return ray.data.read_parquet(files)


def resumable_parquet_sink(ds, root: str, *, by: str, shards: int = 64):
    """Write ``ds`` under ``root`` partitioned by ``hash(by) % shards``.

    Returns the per-shard metrics Dataset (shard, rows, bytes, wall_s,
    skipped). Idempotent: call again after a crash and only incomplete
    shards are recomputed/rewritten; rows destined for complete shards
    are dropped by a map_batches filter before the shuffle.
    """
    os.makedirs(root, exist_ok=True)
    done = completed_shards(root)
    # Resume safety: rows already written were routed with THIS call's
    # (key, shards) modulus. A re-run with different parameters would
    # silently skip shards whose data was hashed differently —
    # refuse instead of misrouting rows.
    for s in sorted(done):
        man = json.load(open(os.path.join(_shard_dir(root, s),
                                          SHARD_MANIFEST)))
        if man.get("key") != by or man.get("shards", shards) != shards:
            raise ValueError(
                f"sink at {root!r} was partially written with "
                f"key={man.get('key')!r}, shards={man.get('shards')} "
                f"but this call uses key={by!r}, shards={shards}; "
                "resume with the original parameters or use a new root")

    def route(batch: pa.Table) -> pa.Table:
        keys = batch.column(by).to_numpy()
        sid = _knuth_hash(keys, shards)
        batch = batch.append_column("__shard", pa.array(sid))
        if done:
            keep = ~np.isin(sid, np.fromiter(done, dtype=np.int64,
                                             count=len(done)))
            batch = batch.filter(pa.array(keep))
        return batch

    def write_shard(group: pa.Table) -> pa.Table:
        sid = int(group.column("__shard")[0].as_py())
        t0 = time.perf_counter()
        out_dir = _shard_dir(root, sid)
        os.makedirs(out_dir, exist_ok=True)
        data = group.drop_columns(["__shard"])
        fpath = os.path.join(out_dir, "part-0.parquet")
        tmp = fpath + ".tmp"
        pq.write_table(data, tmp)
        os.replace(tmp, fpath)  # atomic: no torn parquet on crash
        man = {"shard": sid, "rows": data.num_rows,
               "bytes": os.path.getsize(fpath),
               "files": ["part-0.parquet"], "key": by, "shards": shards,
               "wall_s": round(time.perf_counter() - t0, 3)}
        mtmp = os.path.join(out_dir, SHARD_MANIFEST + ".tmp")
        with open(mtmp, "w") as f:
            json.dump(man, f)
        os.replace(mtmp, os.path.join(out_dir, SHARD_MANIFEST))
        return pa.table({"shard": pa.array([sid], pa.int64()),
                         "rows": pa.array([man["rows"]], pa.int64()),
                         "bytes": pa.array([man["bytes"]], pa.int64()),
                         "wall_s": pa.array([man["wall_s"]], pa.float64()),
                         "skipped": pa.array([False])})

    routed = ds.map_batches(route, batch_format="pyarrow")
    # a sink is eager: materialize the (tiny, shards-sized) metrics
    # dataset so the write has happened when this returns
    metrics = routed.groupby("__shard").map_groups(
        write_shard, batch_format="pyarrow").materialize()

    skipped = pa.table({
        "shard": pa.array(sorted(done), pa.int64()),
        "rows": pa.array([json.load(open(os.path.join(
            _shard_dir(root, s), SHARD_MANIFEST)))["rows"]
            for s in sorted(done)], pa.int64()),
        "bytes": pa.array([0] * len(done), pa.int64()),
        "wall_s": pa.array([0.0] * len(done), pa.float64()),
        "skipped": pa.array([True] * len(done)),
    })
    if len(done):
        import ray.data

        metrics = metrics.union(ray.data.from_blocks([skipped]))
    return metrics
