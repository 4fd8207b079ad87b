"""The benchmark workloads.

Each workload prepares its seeded input and expected output once (cached),
runs closed-loop passes (a pass is one pipeline job), and has a traced run:
a single-core pass timing each layer's public function batch by batch,
one distributed job with its timeline, and for flagship_pages the
manifest and query-registry layers. Layers are timed from outside, around
public calls only.
"""

from __future__ import annotations

import os
import random
import shutil
import sys
import time
import traceback

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import check
import gen
from spans import (NullTracer, count_by_name, self_time_by_name, summarize_timeline,
                   trace_summary)

ZOOM = 7
BATCH = 8192
AGG_KEYS = ["poly_id", "cell_id"]
TRACE_REPEATS = 3  # untraced/traced pass pairs in a traced run

# input sizes per workload; "tiny" is for smoke tests
SIZES = {
    "flagship_pages": {"full": {"pages": 50_000, "query_scale": 1.0},
                       "tiny": {"pages": 2_048, "query_scale": 0.05}},
    "pip_dense": {"full": {"points": 20_000, "polys": 1_000, "verts": 64},
                  "tiny": {"points": 2_048, "polys": 40, "verts": 16}},
}

# registry queries calling the stages/ modules the pipelines miss:
# knn, dedup, raster, rangejoin, relational join, stream windows
SUITE = ("knn_join", "simhash", "slope_stencil", "band_join", "star_join",
         "session_windows")

MANIFEST_STAGES = ("extract", "cells", "join", "aggregate")


def _arrow(ds) -> pa.Table:
    import ray

    refs = ds.to_arrow_refs()
    return pa.concat_tables(ray.get(refs)) if refs else pa.table({})


class Workload:
    """A point-in-polygon pipeline workload; owns its cache directory for
    one (seed, size)."""

    name = ""

    def __init__(self, cache_dir: str, seed: int, size: str = "full"):
        self.seed = seed
        self.params = SIZES[self.name][size]
        self.dir = os.path.join(cache_dir, self.name, f"seed{seed}-{size}")
        os.makedirs(self.dir, exist_ok=True)

    # -- per workload ----------------------------------------------------
    def prepare(self):
        """Write inputs and expected outputs (cached per seed and size)."""
        raise NotImplementedError

    def input_rows(self) -> int:
        raise NotImplementedError

    def _job(self) -> bool:
        """One job: run the pipeline, return whether its output is correct."""
        raise NotImplementedError

    def _source_batches(self, tracer):
        """Yield input batches (with lon/lat or html) for the in-process pass."""
        raise NotImplementedError

    def _polyset(self, tracer):
        raise NotImplementedError

    def extra_pass(self, tracer) -> tuple[list, dict]:
        """Layers only this workload's traced run exercises."""
        return [], {}

    # -- shared ----------------------------------------------------------
    def run_job(self) -> dict:
        """One closed-loop job: ``{wall_s, ok}``; a raising job counts as
        failed and the run goes on."""
        t0 = time.perf_counter()
        try:
            ok = bool(self._job())
        except Exception:
            print(f"[perfbench] {self.name} job failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            ok = False
        return {"wall_s": time.perf_counter() - t0, "ok": ok}

    def warm(self):
        """One untimed job over the real input: imports, worker start,
        first-touch page faults in workers and the object store, and other
        lazy set-up happen here, not in the timed jobs."""
        self.run_job()

    def _write_expected(self, make):
        p = os.path.join(self.dir, "expected.parquet")
        if not os.path.exists(p):
            pq.write_table(make(), p + ".tmp")
            os.replace(p + ".tmp", p)
        self.expected = pq.read_table(p)

    def matches_expected(self, got: pa.Table) -> bool:
        return check.counts_equal(got, self.expected)

    def in_process_pass(self, tracer) -> tuple[pa.Table, dict]:
        """Single-core pass: each layer's public function, batch by batch.
        Spans nest job -> batch -> layer."""
        from karta_ray.pipelines.flagship import _partial_counts
        from karta_ray.stages.agg import tree_sum
        from karta_ray.stages.extract import extract_geotag_stage
        from karta_ray.stages.join import PolyJoiner, prep_polygons
        from karta_ray.stages.tiles import assign_cells

        import ray.data

        cells_seen, partials = [], []
        rows = {"extract": 0, "points": 0, "hits": 0}
        t0 = time.perf_counter()
        with tracer.span("job"):
            poly = self._polyset(tracer)
            with tracer.span("geoms.cell_cover"):
                cover = poly.cell_cover(ZOOM)
            with tracer.span("join.prep"):
                joiner = PolyJoiner(prep_polygons(poly, ZOOM), with_name=False)
            batches = self._source_batches(tracer)
            while True:
                with tracer.span("batch"):
                    batch = next(batches, None)
                    if batch is None:
                        break
                    if "html" in batch.column_names:
                        with tracer.span("extract"):
                            batch = extract_geotag_stage(batch)
                        rows["extract"] += batch.num_rows
                    with tracer.span("tiles"):
                        batch = assign_cells(batch.select(["lon", "lat"]),
                                             zoom=ZOOM, with_xyz=False)
                    with tracer.span("join"):
                        joined = joiner(batch)
                    rows["points"] += batch.num_rows
                    with tracer.span("agg.partial"):
                        partials.append(_partial_counts(joined))
                    cells_seen.append(batch.column("cell_id").to_numpy())
                    rows["hits"] += joined.num_rows
            with tracer.span("agg.tree_sum"):
                final = _arrow(tree_sum(ray.data.from_arrow(partials),
                                        AGG_KEYS, ["n"]))
        rows["job_s"] = time.perf_counter() - t0
        # prefilter candidates, counted from the public cell cover
        cells = np.concatenate(cells_seen) if cells_seen else np.empty(0, np.int64)
        per_cell = {c: len(v) for c, v in cover.items()}
        rows["candidates"] = sum(per_cell.get(c, 0) for c in cells.tolist())
        rows["geotagged"] = int((cells >= 0).sum()) if rows["extract"] else 0
        rows["cover_cells"] = len(cover)
        rows["partial_rows"] = sum(p.num_rows for p in partials)
        rows["groups"] = final.num_rows
        return final, rows

    def layer_metrics(self, tracer, rows: dict) -> dict:
        """Per-layer figures per traced pass (spans of all passes pooled)."""
        st = {k: v / TRACE_REPEATS for k, v in self_time_by_name(tracer.spans).items()}
        read_bytes = count_by_name(tracer.spans, "bytes").get("read", 0) // TRACE_REPEATS

        def us(layer, n):
            return st.get(layer, 0.0) / n * 1e6 if n else 0.0

        hits, cand = rows["hits"], rows["candidates"]
        return {
            "read.us_per_row": us("read", rows["points"]),
            "read.bytes": read_bytes,
            "extract.us_per_row": us("extract", rows["extract"]),
            "extract.geotagged_rows": rows["geotagged"],
            "tiles.us_per_row": us("tiles", rows["points"]),
            "geoms.from_rings_s": st.get("geoms.from_rings", 0.0),
            "geoms.cell_cover_s": st.get("geoms.cell_cover", 0.0),
            "geoms.cover_cells": rows["cover_cells"],
            "join.prep_s": st.get("join.prep", 0.0),
            "join.us_per_row": us("join", rows["points"]),
            "join.candidates": cand,
            "join.hits": hits,
            "join.selectivity": hits / cand if cand else 0.0,
            "agg.tree_sum_s": st.get("agg.tree_sum", 0.0),
            "agg.partial_rows": rows["partial_rows"],
            "agg.groups": rows["groups"],
        }

    def traced(self, tracer, cpus: int) -> dict:
        """Per-layer metrics: the in-process pass, one distributed job with
        its timeline, and ``extra_pass``; spans go to ``tracer``."""
        import ray

        self.in_process_pass(NullTracer())  # pays the one-off costs
        ok, untraced_s, traced_s = [], [], []
        for _ in range(TRACE_REPEATS):
            for tr, walls in ((NullTracer(), untraced_s), (tracer, traced_s)):
                final, rows = self.in_process_pass(tr)
                ok.append(self.matches_expected(final))
                walls.append(rows["job_s"])
        metrics = self.layer_metrics(tracer, rows)
        metrics.update(trace_summary(tracer.spans, untraced_s, traced_s))
        # one distributed job as in the timed runs, with its timeline
        t0 = time.time()
        ok.append(self.run_job()["ok"])
        metrics.update(summarize_timeline(ray.timeline(), t0, time.time(), cpus))
        extra_ok, extra = self.extra_pass(tracer)
        metrics.update(extra)
        return {"ok": ok + extra_ok, "metrics": metrics}



class FlagshipPages(Workload):
    """Pages parquet -> slim flagship pipeline -> flagship_aggregate."""

    name = "flagship_pages"

    def _admin_layer(self):
        from karta_ray import synth

        return synth.admin_polygons(seed=self.seed % 2**32)

    def prepare(self):
        n = self.params["pages"]
        self.pages_dir = gen.write_pages(os.path.join(self.dir, "pages"), self.seed, n)

        def expected():
            lon, lat = gen.page_lonlat(gen.page_ids(self.seed, n))
            return check.expected_pip_counts(self._admin_layer(), lon, lat, ZOOM)
        self._write_expected(expected)

    def input_rows(self) -> int:
        return self.params["pages"]

    def _job(self) -> bool:
        import ray.data

        from karta_ray.pipelines.flagship import flagship_aggregate, flagship_pipeline

        joined = flagship_pipeline(ray.data.read_parquet(self.pages_dir),
                                   zoom=ZOOM, polyset=self._admin_layer(), slim=True)
        return self.matches_expected(_arrow(flagship_aggregate(joined)))

    def _checkpointed(self, root: str):
        from karta_ray.pipelines.flagship import flagship_checkpointed

        agg, pipe = flagship_checkpointed(self.pages_dir, root, zoom=ZOOM,
                                          polyset=self._admin_layer())
        return _arrow(agg), pipe

    def _conserved(self, pipe, agg: pa.Table) -> bool:
        """Row conservation across the stage manifests."""
        rows = {s: (pipe.read_manifest(s) or {}).get("rows", -1) for s in MANIFEST_STAGES}
        return (rows["extract"] == self.params["pages"]
                and rows["cells"] == rows["extract"]
                and rows["join"] == int(pa.compute.sum(agg.column("n")).as_py() or 0)
                and rows["aggregate"] == agg.num_rows)

    def extra_pass(self, tracer):
        """The manifest layer: ``flagship_checkpointed`` into a fresh root,
        then a resume with the join and aggregate manifests removed. Then
        the registry layer: a warming sweep over the query list and a
        traced one."""
        root = os.path.join(self.dir, "ckpt")
        shutil.rmtree(root, ignore_errors=True)
        full, pipe = self._checkpointed(root)
        ok = [self.matches_expected(full), self._conserved(pipe, full)]
        out = {"manifest.bytes_written": 0}
        for stage in MANIFEST_STAGES:
            m = pipe.read_manifest(stage) or {}
            out[f"manifest.{stage}.wall_s"] = m.get("wall_s", 0.0)
            out[f"manifest.{stage}.rows"] = m.get("rows", 0)
            out["manifest.bytes_written"] += sum(p["bytes"] for p in m.get("partitions", []))
        for stage in ("join", "aggregate"):
            os.remove(os.path.join(root, stage, "_MANIFEST.json"))
        t0 = time.perf_counter()
        resumed, pipe = self._checkpointed(root)
        out["manifest.resume_s"] = time.perf_counter() - t0
        out["manifest.stages_skipped"] = len(pipe.skipped)
        ok += [self.matches_expected(resumed), pipe.skipped == ["extract", "cells"],
               self._conserved(pipe, resumed)]

        sweep = QuerySweep(os.path.join(self.dir, "queries"), self.seed,
                           self.params["query_scale"])
        ok += sweep.run(NullTracer()) + sweep.run(tracer)
        st = self_time_by_name(tracer.spans)
        out.update({f"query.{q}_s": st[f"query.{q}"] for q in SUITE})
        return ok, out

    def _polyset(self, tracer):
        with tracer.span("geoms.from_rings"):
            return self._admin_layer()

    def _source_batches(self, tracer):
        import pyarrow.dataset as pads

        it = iter(pads.dataset(self.pages_dir, format="parquet").to_batches(
            batch_size=BATCH, use_threads=False))
        while True:
            with tracer.span("read") as c:
                rb = next(it, None)
                if rb is None:
                    return
                c["bytes"] = rb.nbytes
                batch = pa.Table.from_batches([rb])
            yield batch


class PipDense(Workload):
    """In-memory points -> assign_cells -> pip_join -> aggregate against a
    jagged polygon layer built from raw rings inside the job."""

    name = "pip_dense"

    def prepare(self):
        p = self.params
        self.points = gen.points_table(self.seed, p["points"])
        self.rings = gen.jagged_polygons(self.seed, p["polys"], p["verts"])

        def expected():
            from karta_ray.geoms import PolygonSet

            return check.expected_pip_counts(
                PolygonSet.from_rings(self.rings),
                self.points.column("lon").to_numpy(),
                self.points.column("lat").to_numpy(), ZOOM)
        self._write_expected(expected)

    def input_rows(self) -> int:
        return self.params["points"]

    def _job(self) -> bool:
        import ray.data

        from karta_ray.geoms import PolygonSet
        from karta_ray.pipelines.flagship import flagship_aggregate
        from karta_ray.stages.join import pip_join
        from karta_ray.stages.tiles import assign_cells

        poly = PolygonSet.from_rings(self.rings)
        ds = ray.data.from_arrow([pa.Table.from_batches([b]) for b in
                                  self.points.to_batches(max_chunksize=BATCH)])
        ds = ds.map_batches(assign_cells, batch_format="pyarrow",
                            fn_kwargs={"zoom": ZOOM, "with_xyz": False},
                            zero_copy_batch=True)
        joined = pip_join(ds, poly, zoom=ZOOM, with_name=False)
        return self.matches_expected(_arrow(flagship_aggregate(joined)))

    def _polyset(self, tracer):
        from karta_ray.geoms import PolygonSet

        with tracer.span("geoms.from_rings"):
            return PolygonSet.from_rings(self.rings)

    def _source_batches(self, tracer):
        for rb in self.points.to_batches(max_chunksize=BATCH):
            yield pa.Table.from_batches([rb])


# ---------------------------------------------------------------------------
# Registry queries (traced run of flagship_pages)
# ---------------------------------------------------------------------------

class QuerySweep:
    """Queries of the ``__ray_entry__.queries()`` registry, one at a time
    in a seed-shuffled order, over seeded tables; each result checked
    against its DuckDB oracle, computed once per seed and cached."""

    def __init__(self, cache_dir: str, seed: int, scale: float):
        import pandas as pd

        import __ray_entry__

        self.data_dir = gen.write_query_tables(os.path.join(cache_dir, "tables"),
                                               seed, scale)
        self.order = list(SUITE)
        random.Random(seed).shuffle(self.order)
        self.queries = __ray_entry__.queries()
        exp = os.path.join(cache_dir, "oracles.pkl")
        if not os.path.exists(exp):
            sqls = __ray_entry__.oracle_sql()
            tables = sorted(f[:-len(".parquet")] for f in os.listdir(self.data_dir))
            frames = check.oracle_frames(self.data_dir, tables,
                                         {q: sqls[q] for q in SUITE})
            pd.to_pickle(frames, exp + ".tmp")
            os.replace(exp + ".tmp", exp)
        self.expected = pd.read_pickle(exp)

    def _query(self, name: str) -> bool:
        got = check.result_frame(self.queries[name](self.data_dir))
        return check.frames_equal(got, self.expected[name])

    def run(self, tracer) -> list[bool]:
        """One sweep; a ``query.<name>`` span per query under ``queries``."""
        ok = []
        with tracer.span("queries"):
            for q in self.order:
                with tracer.span(f"query.{q}"):
                    try:
                        ok.append(self._query(q))
                    except Exception:  # a failing query is counted
                        print(f"[perfbench] query {q} failed:\n"
                              f"{traceback.format_exc()}", file=sys.stderr)
                        ok.append(False)
        return ok


WORKLOADS = {w.name: w for w in (FlagshipPages, PipDense)}
