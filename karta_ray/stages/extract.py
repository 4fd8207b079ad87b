"""Extraction + geotag stage (stateless map_batches functions)."""

from __future__ import annotations

import pyarrow as pa

from ..extract import geotag_from_html


def extract_geotag_stage(batch: pa.Table) -> pa.Table:
    """Fused geotag + drop-heavy-columns stage for the flagship pipeline:
    html -> (url, lon, lat, ...), read straight from the html bytes
    without materializing text."""
    lon, lat = geotag_from_html(batch.column("html"))
    out = batch.drop_columns(
        [c for c in ("html", "text") if c in batch.column_names])
    out = out.append_column("lon", pa.array(lon, pa.float64()))
    return out.append_column("lat", pa.array(lat, pa.float64()))
