"""Flagship pipeline: Common-Crawl-style pages -> extracted text ->
geotag -> Web-Mercator cell assignment -> point-in-polygon join against
the admin-boundary layer -> per-(polygon, cell) aggregate.

This is the end-to-end shape the engine is graded on (BASELINE.json
north_rule): every stage is a task-based map_batches over zero-copy
Arrow; the only stateful stage is the join, whose polygon state is
broadcast once and built once per worker process. Nothing shuffles:
the (poly_id, cell_id) aggregate is partial counts inside map_batches,
folded on the driver as they stream in (``stages.agg.tree_sum``), in
the same executor run.
"""

from __future__ import annotations

import pyarrow as pa

from .. import synth
from ..stages.extract import extract_geotag_stage
from ..stages.join import pip_join
from ..stages.tiles import assign_cells


def flagship_pipeline(pages_ds, *, zoom: int = 7, polyset=None,
                      mode: str = "inner", slim: bool = False):
    """pages Dataset (url, warc_ts, html, ...) -> joined Dataset
    (url, lon, lat, cell_id, poly_id, poly_name).

    ``slim=True`` is the aggregate-sink flavor: when the consumer only
    needs (poly_id, cell_id) counts, url / tile_x/y/z / poly_name are
    dead weight, so they are pruned right after extract: the stages
    fused after it (the parquet read is its own operator; extract ->
    cells -> join -> partial are one operator, one task per 8192-row
    bundle) carry 24 B/doc instead of ~100. A sink that DOES need url
    should carry it inline instead (the flagship has no shuffle between
    extract and sink, so a row-id + join-url-back-at-the-sink plan would
    cost a real hash shuffle to save a 43-byte column that fused stages
    move for free)."""
    if polyset is None:
        polyset = synth.admin_polygons()
    ds = pages_ds.map_batches(extract_geotag_stage, batch_format="pyarrow",
                              zero_copy_batch=True)
    if slim:
        ds = ds.select_columns(["lon", "lat"])
    ds = ds.map_batches(assign_cells, batch_format="pyarrow",
                        fn_kwargs={"zoom": zoom, "with_xyz": not slim},
                        zero_copy_batch=True)
    return pip_join(ds, polyset, zoom=zoom, mode=mode, with_name=not slim)


def flagship_from_documents(sf_dir: str, *, zoom: int = 7):
    """Driver entry flavor: testdata documents -> pages -> flagship join.

    Returns the joined Dataset (url, lon, lat, cell_id, poly_id,
    poly_name) — exercises synthesis, extraction (byte-identical
    invariant), geotagging, tile assignment and the PIP join end-to-end
    over real testdata input.
    """
    import ray.data

    pages = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                  columns=["doc_id", "text", "lang"])
    pages = pages.map_batches(synth.pages_from_documents,
                              batch_format="pyarrow", zero_copy_batch=True)
    return flagship_pipeline(pages, zoom=zoom)


def flagship_checkpointed(pages_dir: str, ckpt_root: str, *, zoom: int = 7,
                          polyset=None):
    """Flagship pipeline with per-stage parquet checkpoints + manifests
    (resume skips completed stages; see pipelines/manifest.py).

    Stages: extract (pages -> url/lon/lat, html shed) -> cells -> join ->
    aggregate. Returns (aggregate Dataset, CheckpointedPipeline).
    """
    import ray.data

    from ..stages.join import pip_join
    from .manifest import CheckpointedPipeline

    if polyset is None:
        polyset = synth.admin_polygons()
    pipe = CheckpointedPipeline(ckpt_root)

    pipe.stage("extract", lambda _: ray.data.read_parquet(
        pages_dir, columns=["url", "html"]).map_batches(
            extract_geotag_stage, batch_format="pyarrow"))
    pipe.stage("cells", lambda prev: prev.map_batches(
        assign_cells, batch_format="pyarrow", fn_kwargs={"zoom": zoom}))
    pipe.stage("join", lambda prev: pip_join(prev, polyset, zoom=zoom))
    agg = pipe.stage("aggregate", lambda prev: flagship_aggregate(prev))
    return agg, pipe


def _partial_counts(batch: pa.Table) -> pa.Table:
    """Combiner: per-batch (poly_id, cell_id) counts, shrinking what the
    driver fold reads by ~batch_size/groups."""
    t = batch.select(["poly_id", "cell_id"])
    g = t.group_by(["poly_id", "cell_id"]).aggregate([("cell_id", "count")])
    return g.rename_columns(["poly_id", "cell_id", "n"])


def flagship_aggregate(joined_ds):
    """(poly_id, cell_id) page counts: partial counts inside map_batches,
    folded on the driver by ``tree_sum`` in the same single executor run
    (salted skew is absorbed by the pre-aggregation: a hot cell
    contributes one partial row per block, not per page). The returned
    Dataset is materialized; reading it re-runs nothing."""
    from ..stages.agg import tree_sum

    part = joined_ds.map_batches(_partial_counts, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return tree_sum(part, ["poly_id", "cell_id"], ["n"])
