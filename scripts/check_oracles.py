"""Mimic the driver's correctness gate: run every queries() pipeline via
Ray AND its oracle_sql() via DuckDB on the same sf dir; compare row
count, schema (column names), order-insensitive values, AND a
dtype-sensitive value hash (the driver hashes canonicalized sorted rows
including their physical dtype, so an int64 engine column vs a HUGEINT/
float64 oracle column fails even when every value is numerically equal —
that is exactly how rolling_purchases slipped in round 4).

Usage: python scripts/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.check import oracle_frames, result_frame  # noqa: E402

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def value_hash(df: pd.DataFrame) -> str:
    """Dtype-sensitive hash of the normalized frame.

    Two frames hash equal only if, column by column (names already
    sorted by normalize()), the *physical dtype string* and the exact
    byte representation of every value agree. This is deliberately at
    least as strict as the driver's comparator: a locally-green hash
    here can never hide an int64-vs-HUGEINT / int-vs-float promotion.
    """
    import hashlib

    h = hashlib.md5()
    for c in df.columns:
        col = df[c]
        h.update(f"{c}|{col.dtype}".encode())
        kind = col.dtype.kind
        if kind in "fiub":
            h.update(np.ascontiguousarray(col.to_numpy()).tobytes())
        elif kind == "M":
            h.update(np.ascontiguousarray(
                col.to_numpy().view("int64")).tobytes())
        else:
            h.update("\x1f".join(col.astype(str)).encode())
        h.update(b"\x1e")
    return h.hexdigest()


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        # CHECK_CPUS=32 reproduces the driver harness invocation
        ray.init(address="local",
                 num_cpus=int(os.environ.get("CHECK_CPUS", "8")),
                 include_dashboard=False)

    import __ray_entry__ as entrymod

    qs = {n: f for n, f in entrymod.queries().items() if not only or n in only}
    oracles = entrymod.oracle_sql()
    wants = oracle_frames(sf_dir, TABLES, {n: oracles[n] for n in qs})
    failures = []
    for name, fn in qs.items():
        got = result_frame(fn(sf_dir))
        want = wants[name]
        status = "OK"
        detail = ""
        if list(got.columns) != list(want.columns):
            status = "SCHEMA-MISMATCH"
            detail = f" ray={list(got.columns)} sql={list(want.columns)}"
        elif len(got) != len(want):
            status = "ROWCOUNT-MISMATCH"
            detail = f" ray={len(got)} sql={len(want)}"
        else:
            for c in got.columns:
                a, b = got[c].to_numpy(), want[c].to_numpy()
                if a.dtype != b.dtype:
                    status = "DTYPE-MISMATCH"
                    detail = f" col={c} ray={a.dtype} sql={b.dtype}"
                    break
                if a.dtype.kind == "f":
                    eq = np.array_equal(a, b, equal_nan=True)
                else:
                    eq = (a == b).all()
                if not eq:
                    status = "VALUE-MISMATCH"
                    bad = np.nonzero(a != b)[0][:5] if a.dtype.kind != "f" else \
                        np.nonzero(~np.isclose(a, b, equal_nan=True))[0][:5]
                    detail = f" col={c} rows={bad.tolist()}"
                    break
            if status == "OK" and value_hash(got) != value_hash(want):
                status = "HASH-MISMATCH"
        print(f"[{name}] {status} rows={len(got)}{detail}")
        if status != "OK":
            failures.append(name)

    ray.shutdown()
    if failures:
        print("FAILURES:", failures)
        sys.exit(1)
    print("all oracle checks passed")


if __name__ == "__main__":
    main()
