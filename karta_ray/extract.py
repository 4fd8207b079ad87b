"""HTML -> text extraction and geotag parsing, Arrow-native.

The engine's per-row invariant (BASELINE.json input_hint): extracted text
must be byte-identical per url, independent of batch boundaries — so
extraction is a pure vectorized function of the ``html`` column, built
entirely from pyarrow.compute kernels (RE2 regex + substring replace), no
Python per-row loop.

Page payloads live inside ``<article>...</article>`` with minimal HTML
entity escaping (&amp; &lt; &gt;); geotags are a fixed in-text pattern
``@geo(lat,lon)`` with 5-decimal fixed-point coordinates.

:func:`extract_text` and :func:`parse_geotag` are the reference path.
:func:`geotag_from_html` gives the same geotags straight from the html
bytes, without building the text.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

ARTICLE_RE = r"(?s)<article>(?P<t>.*)</article>"
GEOTAG_RE = r"@geo\((?P<lat>-?\d+\.\d+),(?P<lon>-?\d+\.\d+)\)"


def escape_text(text_col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Minimal HTML escape (order: & < >)."""
    out = pc.replace_substring(text_col, "&", "&amp;")
    out = pc.replace_substring(out, "<", "&lt;")
    out = pc.replace_substring(out, ">", "&gt;")
    return out


def unescape_text(col):
    """Exact inverse of :func:`escape_text` (order: < > &)."""
    out = pc.replace_substring(col, "&lt;", "<")
    out = pc.replace_substring(out, "&gt;", ">")
    out = pc.replace_substring(out, "&amp;", "&")
    return out


def extract_text(html_col) -> pa.Array:
    """binary html -> extracted text (string), byte-identical to the
    original payload."""
    as_str = pc.cast(html_col, pa.string())
    m = pc.extract_regex(as_str, ARTICLE_RE)
    payload = pc.struct_field(m, "t")
    return unescape_text(payload)


def parse_geotag(text_col):
    """text -> (lon, lat) float64 arrays with NaN where no geotag."""
    m = pc.extract_regex(text_col, GEOTAG_RE)
    lat = pc.cast(pc.struct_field(m, "lat"), pa.float64())
    lon = pc.cast(pc.struct_field(m, "lon"), pa.float64())
    return (lon.to_numpy(zero_copy_only=False),
            lat.to_numpy(zero_copy_only=False))


def _positions(col) -> np.ndarray:
    """int32 byte positions / lengths as numpy, nulls as -1."""
    return pc.fill_null(col, -1).to_numpy()


def geotag_from_html(html_col):
    """binary html -> (lon, lat), equal bit for bit to
    ``parse_geotag(extract_text(html_col))``.

    The payload is the span the greedy ``ARTICLE_RE`` captures: from the
    end of the first ``<article>`` to the start of the last
    ``</article>``. A row's geotag is the first ``GEOTAG_RE`` match in
    the html when that match starts inside the payload. This is exact
    because ``GEOTAG_RE`` matches no ``&``, ``<`` or ``>``: unescaping
    the payload can neither create nor remove a match, and no match can
    straddle a tag. Rows whose first match lies before ``<article>``
    may still have one inside it; they alone take the reference path.
    """
    html = pc.cast(html_col, pa.string())  # raises on invalid UTF-8
    first = _positions(pc.find_substring(html, "<article>"))
    last_rev = _positions(pc.find_substring(
        pc.binary_reverse(pc.cast(html, pa.binary())), "</article>"[::-1]))
    start = first + len("<article>")
    end = _positions(pc.binary_length(html)) - last_rev - len("</article>")
    payload = (first >= 0) & (last_rev >= 0) & (end >= start)
    pos = _positions(pc.find_substring_regex(html, GEOTAG_RE))
    m = pc.extract_regex(html, GEOTAG_RE)
    inside = payload & (pos >= start) & (pos < end)
    lon = np.where(inside, pc.cast(pc.struct_field(m, "lon"), pa.float64())
                   .to_numpy(zero_copy_only=False), np.nan)
    lat = np.where(inside, pc.cast(pc.struct_field(m, "lat"), pa.float64())
                   .to_numpy(zero_copy_only=False), np.nan)
    before = np.flatnonzero(payload & (pos >= 0) & (pos < start))
    if len(before):
        lon[before], lat[before] = parse_geotag(
            extract_text(html.take(before)))
    return lon, lat
