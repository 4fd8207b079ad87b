"""Expected outputs, computed independently of the code under test, and
the comparisons that decide whether a job's output is correct.

- PIP aggregates: a single-process scan, ``PolygonSet.contains`` per
  polygon over the points in its latitude band -- no cell cover, no
  bounding boxes from the program, no Ray -- reduced to
  ``(poly_id, cell_id, n)``.
- Queries: each query's DuckDB ``oracle_sql()`` over the same parquet
  files, compared dtype-strictly (row count, column names, per-column
  dtype, exact values).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

AGG_KEYS = ["poly_id", "cell_id"]


def expected_pip_counts(polyset, lon, lat, zoom: int) -> pa.Table:
    """Sorted ``(poly_id, cell_id, n)`` counts of points inside each
    polygon, by brute force: ``PolygonSet.contains`` over every point in
    the polygon's latitude band (computed here from the raw vertices, not
    from the program's bounding boxes); polar polygons test every point."""
    from karta_ray.kernels import tiles

    ok = ~(np.isnan(lon) | np.isnan(lat))
    lon, lat = lon[ok], lat[ok]
    cells = tiles.cell_id(lon, lat, zoom)
    pids, cids = [], []
    for ip in range(len(polyset)):
        if polyset.is_polar[ip]:
            cand = np.arange(len(lon))
        else:
            ys = polyset.rings_of(ip)[0][:, 1]
            cand = np.nonzero((lat >= ys.min()) & (lat <= ys.max()))[0]
        if len(cand) == 0:
            continue
        hit = cand[polyset.contains(lon[cand], lat[cand], ip)]
        pids.append(np.full(len(hit), polyset.poly_id[ip], dtype=np.int64))
        cids.append(cells[hit])
    t = pa.table({"poly_id": pa.array(np.concatenate(pids) if pids else [], pa.int64()),
                  "cell_id": pa.array(np.concatenate(cids) if cids else [], pa.int64())})
    g = t.group_by(AGG_KEYS).aggregate([("cell_id", "count")])
    return sort_counts(g.rename_columns(["poly_id", "cell_id", "n"]))


def sort_counts(t: pa.Table) -> pa.Table:
    t = t.select(["poly_id", "cell_id", "n"])
    t = t.cast(pa.schema([("poly_id", pa.int64()), ("cell_id", pa.int64()),
                          ("n", pa.int64())]))
    return t.sort_by([("poly_id", "ascending"), ("cell_id", "ascending")])


def counts_equal(got: pa.Table, want: pa.Table) -> bool:
    """Exact equality of two ``(poly_id, cell_id, n)`` aggregates."""
    try:
        got = sort_counts(got)
    except (KeyError, pa.ArrowInvalid):
        return False
    return got.equals(want)


# ---------------------------------------------------------------------------
# Query oracles
# ---------------------------------------------------------------------------

def normalize(df: pd.DataFrame) -> pd.DataFrame:
    """Column-sorted, row-sorted frame; object columns as str."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def frames_equal(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    """Dtype-strict equality of two normalized frames: same columns, row
    count, per-column dtype and exact values (NaN equal to NaN)."""
    if list(got.columns) != list(want.columns) or len(got) != len(want):
        return False
    for c in got.columns:
        a, b = got[c].to_numpy(), want[c].to_numpy()
        if a.dtype != b.dtype:
            return False
        if a.dtype.kind == "f":
            if not np.array_equal(a, b, equal_nan=True):
                return False
        elif not (a == b).all():
            return False
    return True


def oracle_frames(data_dir: str, tables, sqls: dict[str, str]) -> dict[str, pd.DataFrame]:
    """Run each oracle SQL in DuckDB over ``data_dir``'s parquet tables."""
    import duckdb

    con = duckdb.connect()
    try:
        for t in tables:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{data_dir}/{t}.parquet')")
        return {name: normalize(con.execute(sql).df()) for name, sql in sqls.items()}
    finally:
        con.close()


def result_frame(res) -> pd.DataFrame:
    """A query's result (Dataset, Arrow table or DataFrame) as a
    normalized frame."""
    import ray.data

    if isinstance(res, ray.data.Dataset):
        res = res.to_pandas()
    elif isinstance(res, pa.Table):
        res = res.to_pandas()
    return normalize(res)
