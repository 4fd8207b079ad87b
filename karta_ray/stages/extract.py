"""Extraction + geotag stage (stateless map_batches functions)."""

from __future__ import annotations

import pyarrow as pa

from ..extract import extract_text, parse_geotag


def extract_geotag_stage(batch: pa.Table) -> pa.Table:
    """Fused extract + geotag + drop-heavy-columns stage for the flagship
    pipeline: html -> (url, lon, lat, ...) without materializing text
    downstream."""
    text = extract_text(batch.column("html"))
    lon, lat = parse_geotag(text)
    out = batch.drop_columns(
        [c for c in ("html", "text") if c in batch.column_names])
    out = out.append_column("lon", pa.array(lon, pa.float64()))
    return out.append_column("lat", pa.array(lat, pa.float64()))
