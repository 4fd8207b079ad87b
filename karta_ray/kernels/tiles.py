"""Web-Mercator z/x/y tile math — the engine's discrete global cell index.

Semantics follow the reference implementation (karta/tile.py:20-78): a
point maps to an OpenStreetMap tile via the forward spherical-Mercator
projection at 256 px/tile; tile corners come from the inverse projection.
Golden values: /root/reference/tests/tile_tests.py:8-34
  (0, 0) @ z0  -> (0, 0, 0)
  (0, 0) @ z8  -> (8, 128, 128)
  (60, -30) @ z12 -> (12, 2730, 2406)
  Tile(0,0,0).nw_corner() == (-180.0, 85.05112877...)

Cells are packed into a single int64 quadkey-style id for groupby/join
keys: ``cell_id = (z << 58) | (x << 29) | y``, valid for 0 <= z <= 29.
"""

from __future__ import annotations

import numpy as np

# Maximum zoom representable in the packed int64 cell id.
ZMAX = 29
_MASK29 = (1 << 29) - 1

# Latitude limits of the spherical-Mercator projection (tile row 0 / 2^z).
MERCATOR_LAT_MAX = 85.05112877980659


def tile_xy(lon, lat, zoom: int):
    """Vectorized (lon, lat) degrees -> integer tile (x, y) at ``zoom``.

    Matches karta/tile.py:52-78 exactly (floor division of the pixel
    coordinate by the 256-px tile size, no clamping at the antimeridian:
    lon == 180.0 maps to x == 2**zoom).
    """
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    c = 128.0 / np.pi * (2.0 ** zoom)
    with np.errstate(invalid="ignore", divide="ignore"):
        x0 = c * (lon * np.pi / 180.0 + np.pi)
        y0 = c * (np.pi - np.log(np.tan(np.pi / 4.0 + lat * np.pi / 360.0)))
    # NaN/inf coordinates (e.g. pages without a geotag, |lat| >= 90)
    # -> sentinel -1.
    bad = ~(np.isfinite(x0) & np.isfinite(y0))
    x = np.floor_divide(np.where(bad, 0.0, x0), 256.0).astype(np.int64)
    y = np.floor_divide(np.where(bad, 0.0, y0), 256.0).astype(np.int64)
    xi = np.where(bad, np.int64(-1), x)
    yi = np.where(bad, np.int64(-1), y)
    return xi, yi


def pack_cell(z, x, y):
    """Pack (z, x, y) into one int64 key. Requires 0 <= x,y < 2**29, z <= 29.

    Rows with x < 0 or y < 0 (no-geotag sentinel) pack to -1.
    """
    z = np.asarray(z, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    packed = (z << 58) | (x << 29) | y
    bad = (x < 0) | (y < 0)
    return np.where(bad, np.int64(-1), packed)


def unpack_cell(cell):
    """Inverse of :func:`pack_cell`. cell == -1 -> (z, -1, -1)."""
    cell = np.asarray(cell, dtype=np.int64)
    z = (cell >> 58) & ((1 << 5) - 1)
    x = (cell >> 29) & _MASK29
    y = cell & _MASK29
    bad = cell < 0
    return (
        np.where(bad, -1, z),
        np.where(bad, -1, x),
        np.where(bad, -1, y),
    )


def cell_id(lon, lat, zoom: int):
    """lon/lat degrees -> packed int64 cell id at ``zoom`` (NaN -> -1).

    Unlike raw :func:`tile_xy` (reference-faithful: lon == 180.0 maps to
    x == 2**zoom), the packed *join key* wraps x modulo 2**zoom so that
    antimeridian points land in column 0, and clamps y to
    [0, 2**zoom - 1] so both polar caps (|lat| beyond the Mercator limit
    ~85.051, up to the poles) land in the edge rows — keeping every
    cell-cover prefilter (``cells_covering_bbox`` / ``neighbor_cells``
    generate x in [0, 2**zoom) and y in [0, 2**zoom)) a superset of the
    exact geometric test.  Only non-finite coordinates or |lat| > 90 map
    to the -1 sentinel (no geotag).
    """
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    valid = np.isfinite(lon) & np.isfinite(lat) & (np.abs(lat) <= 90.0)
    # Clamp latitude into the Mercator-projectable band before the tile
    # transform so polar points land in row 0 / row n-1 instead of the
    # out-of-range rows -1 / n that no cover or neighbor set can reach.
    lat_c = np.where(
        valid, np.clip(lat, -MERCATOR_LAT_MAX, MERCATOR_LAT_MAX), np.nan
    )
    x, y = tile_xy(np.where(valid, lon, np.nan), lat_c, zoom)
    n = np.int64(1) << np.int64(zoom)
    x = np.where(x >= 0, x % n, x)
    # Float rounding at exactly +/-MERCATOR_LAT_MAX can still produce
    # y == -1 or y == n; clamp finite rows into range.
    y = np.where(y >= 0, np.minimum(y, n - 1), np.where(valid, np.int64(0), y))
    return pack_cell(np.full_like(x, zoom), np.where(valid, x, np.int64(-1)), y)


def tile_nw_corner(z, x, y):
    """Northwest corner (lon, lat) of tile(s). karta/tile.py:20-33."""
    z = np.asarray(z, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = 2.0 ** z
    lon = x / n * 360.0 - 180.0
    lat = np.arctan(np.sinh(np.pi * (1.0 - 2.0 * y / n))) * 180.0 / np.pi
    return lon, lat


def tile_bbox(z, x, y):
    """(xmin, ymin, xmax, ymax) of tile(s). karta/tile.py:35-50."""
    lon0, lat0 = tile_nw_corner(z, x, y)
    lon1, _ = tile_nw_corner(z, np.asarray(x) + 1, y)
    _, lat1 = tile_nw_corner(z, x, np.asarray(y) + 1)
    return lon0, lat1, lon1, lat0


def neighbor_cells(cell, ring: int = 1):
    """All packed cell ids within ``ring`` tiles of each input cell
    (including the cell itself), with x wrapped modulo 2**z and y clamped
    to [0, 2**z). Used for kNN boundary-cell candidate replication.

    Returns a 2-D array of shape (len(cell), (2*ring+1)**2).
    """
    cell = np.atleast_1d(np.asarray(cell, dtype=np.int64))[:, None, None]
    z = cell >> 58
    n = np.int64(1) << z
    # (cell, dx, dy): x offsets outer, y offsets inner
    offs = np.arange(-ring, ring + 1, dtype=np.int64)
    nx = (((cell >> 29) & _MASK29) + offs[:, None]) % n
    ny = np.clip((cell & _MASK29) + offs, 0, n - 1)
    return ((z << 58) | (nx << 29) | ny).reshape(len(cell),
                                                 (2 * ring + 1) ** 2)


def cells_covering_bbox(xmin, ymin, xmax, ymax, zoom: int):
    """Packed cell ids of every tile intersecting a lon/lat bbox.

    ``xmin > xmax`` is interpreted as a dateline-crossing bbox (karta's
    dateline-aware bbox convention, karta/vector/dateline.pyx:19-61).
    Scalar in, 1-D int64 array out.
    """
    n = 1 << zoom
    # clip into the Mercator band as cell_id does, so a box beyond it
    # covers the edge row that cell_id puts its points in
    ymin = min(max(ymin, -MERCATOR_LAT_MAX), MERCATOR_LAT_MAX)
    ymax = min(max(ymax, -MERCATOR_LAT_MAX), MERCATOR_LAT_MAX)
    if ymin > ymax:
        return np.empty(0, dtype=np.int64)
    # y rows (lat decreases with y)
    _, ytop = tile_xy(np.float64(0.0), np.float64(ymax), zoom)
    _, ybot = tile_xy(np.float64(0.0), np.float64(ymin), zoom)
    ys = np.arange(max(int(ytop), 0), min(int(ybot), n - 1) + 1, dtype=np.int64)
    if xmin <= xmax:
        x0, _ = tile_xy(np.float64(xmin), np.float64(0.0), zoom)
        x1, _ = tile_xy(np.float64(xmax), np.float64(0.0), zoom)
        xs = np.arange(int(x0), min(int(x1), n - 1) + 1, dtype=np.int64)
    else:  # dateline crossing: [xmin, 180) U [-180, xmax]
        x0, _ = tile_xy(np.float64(xmin), np.float64(0.0), zoom)
        x1, _ = tile_xy(np.float64(xmax), np.float64(0.0), zoom)
        xs = np.concatenate([
            np.arange(int(x0), n, dtype=np.int64),
            np.arange(0, min(int(x1), n - 1) + 1, dtype=np.int64),
        ])
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    zg = np.full(xg.size, zoom, dtype=np.int64)
    return pack_cell(zg, xg.ravel(), yg.ravel())


def bbox_tile_spans(xmin, ymin, xmax, ymax, zoom: int):
    """:func:`cells_covering_bbox` for many bboxes, as tile spans: bbox k
    covers columns ``xa[k] ..`` (``na[k]`` of them) then ``0 ..``
    (``nb[k]``, the part past the dateline), times rows ``y0[k] ..``
    (``ny[k]``). Returns (xa, na, nb, y0, ny) int64 arrays; same rows and
    columns as the scalar function."""
    n = 1 << zoom
    xmin, ymin, xmax, ymax = (np.asarray(v, dtype=np.float64)
                              for v in (xmin, ymin, xmax, ymax))
    ylo = np.clip(ymin, -MERCATOR_LAT_MAX, MERCATOR_LAT_MAX)
    yhi = np.clip(ymax, -MERCATOR_LAT_MAX, MERCATOR_LAT_MAX)
    _, ytop = tile_xy(np.zeros_like(yhi), yhi, zoom)
    _, ybot = tile_xy(np.zeros_like(ylo), ylo, zoom)
    y0 = np.maximum(ytop, 0)
    ny = np.where(ylo > yhi, 0,
                  np.maximum(np.minimum(ybot, n - 1) - y0 + 1, 0))
    xa, _ = tile_xy(xmin, np.zeros_like(xmin), zoom)
    x1, _ = tile_xy(xmax, np.zeros_like(xmax), zoom)
    x1 = np.minimum(x1, n - 1)
    wrap = ~(xmin <= xmax)   # [xmin, 180) U [-180, xmax]
    na = np.where(wrap, np.maximum(n - xa, 0), np.maximum(x1 - xa + 1, 0))
    nb = np.where(wrap, np.maximum(x1 + 1, 0), 0)
    return xa, na, nb, y0, ny


def expand_tile_spans(zoom: int, xa, na, nb, y0, ny):
    """(owner, cell) of every tile of the spans of :func:`bbox_tile_spans`,
    owner after owner, packed at ``zoom``."""
    cnt = (na + nb) * ny
    owner = np.repeat(np.arange(len(cnt), dtype=np.int64), cnt)
    t = np.arange(len(owner), dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    rows = ny[owner]
    xi, yi = t // rows, t % rows
    first = na[owner]
    x = np.where(xi < first, xa[owner] + xi, xi - first)
    return owner, pack_cell(np.full(len(owner), zoom, dtype=np.int64), x,
                            y0[owner] + yi)
