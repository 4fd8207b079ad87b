"""Union/merge of geometry layers with karta's attribute semantics.

The reference's ``Multipoint.merge`` / ``Multiline.merge`` /
``Multipolygon.merge`` concatenate member geometries and INNER-JOIN the
attribute tables on common fields (karta/vector/geometry.py:1313-1347,
karta/vector/table.py:261-274): only columns present in every input
survive. ``ds.union`` requires identical schemas, so the field
intersection is projected first.
"""

from __future__ import annotations

from ..state.empty import empty_like


def union_layers(*datasets):
    """Union Datasets keeping only the columns common to all of them
    (karta merge field-intersection semantics). Column order follows the
    first dataset."""
    if not datasets:
        raise ValueError("need at least one dataset")
    schemas = [empty_like(ds).column_names for ds in datasets]
    common = [c for c in schemas[0] if all(c in s for s in schemas)]
    if not common:
        raise ValueError("no common columns to merge on")
    projected = [ds.select_columns(common) for ds in datasets]
    out = projected[0]
    for ds in projected[1:]:
        out = out.union(ds)
    return out
