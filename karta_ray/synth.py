"""Deterministic synthetic fixtures: Common-Crawl-style pages and an
admin-boundary polygon layer.

All randomness is hash-based per row id (splitmix64), so any shard of the
pages table can be generated independently on any worker with no global
RNG state — the property that lets ``ray.data.range(n).map_batches(...)``
synthesize a 10^7-row bench input in parallel, deterministically.

The polygon layer includes the reference test suite's hard cases
(FIXTURES.md §2): concave "hippie star"
(tests/vector_predicate_tests.py:172-182), polar ring (:184-190),
dateline-straddling quad (tests/dateline_tests.py:39-46), and a square
with a triangular hole (tests/geometry_tests.py:487-492).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .extract import escape_text
from .functions.text import mix64
from .geoms import PolygonSet

_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def u01(ids, salt: int):
    """Uniform [0, 1) per id for a given stream salt."""
    salt_mixed = np.uint64((salt * 0xD1B54A32D192ED03) % (1 << 64))
    with np.errstate(over="ignore"):
        h = mix64(np.asarray(ids, dtype=np.uint64)
                  * np.uint64(0x9E3779B97F4A7C15) + salt_mixed)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


# hot "cities" for skew (dense urban cells, exercised by salted groupby)
CITIES = np.array([
    (-74.006, 40.713),   # New York
    (139.692, 35.690),   # Tokyo
    (-0.128, 51.507),    # London
    (2.352, 48.857),     # Paris
    (77.209, 28.614),    # Delhi
])
HOT_FRACTION = 0.25
NO_GEOTAG_FRACTION = 0.10
LANGS = np.array(["en", "de", "fr", "es", "zh"])

_VOCAB = np.array(
    "the a of into over data page web crawl map tile point polygon join "
    "query spatial index cell zoom river city road region boundary north "
    "south east west latitude longitude distance nearest within contains "
    "stream batch shuffle actor arrow parquet vector raster grid band "
    "sample merge hull area perimeter azimuth geodesic sphere".split())


def page_coords(ids):
    """Deterministic (lon, lat) per page id; NaN for the no-geotag slice;
    a hot fraction concentrated around CITIES with ~2 km jitter."""
    ids = np.asarray(ids, dtype=np.int64)
    r_kind = u01(ids, 1)
    hot = r_kind < HOT_FRACTION
    none = r_kind > 1.0 - NO_GEOTAG_FRACTION

    lon = u01(ids, 2) * 360.0 - 180.0
    lat = u01(ids, 3) * 150.0 - 70.0  # keep inside Mercator limits

    city = (mix64(ids.astype(np.uint64) + np.uint64(17)) % np.uint64(len(CITIES))).astype(np.int64)
    jlon = (u01(ids, 4) - 0.5) * 0.04
    jlat = (u01(ids, 5) - 0.5) * 0.04
    lon = np.where(hot, CITIES[city, 0] + jlon, lon)
    lat = np.where(hot, CITIES[city, 1] + jlat, lat)

    lon = np.where(none, np.nan, np.round(lon, 5))
    lat = np.where(none, np.nan, np.round(lat, 5))
    return lon, lat


def make_pages(batch):
    """map_batches fn: ``id`` column -> full pages rows
    (url, warc_ts, html, text, lang). Deterministic per id."""
    if isinstance(batch, pa.Table):
        ids = batch.column("id").to_numpy()
    else:
        ids = np.asarray(batch["id"])
    ids = ids.astype(np.int64)
    n = len(ids)
    lon, lat = page_coords(ids)

    # deterministic word soup: 24 vocab words per page
    widx = np.empty((n, 24), dtype=np.int64)
    for j in range(24):
        widx[:, j] = (mix64(ids.astype(np.uint64) + np.uint64(1000 + j))
                      % np.uint64(len(_VOCAB))).astype(np.int64)
    words = _VOCAB[widx]

    langs = LANGS[(mix64(ids.astype(np.uint64) + np.uint64(7))
                   % np.uint64(len(LANGS))).astype(np.int64)]

    texts = []
    for i in range(n):
        body = " ".join(words[i, :12])
        tail = " ".join(words[i, 12:])
        if np.isnan(lon[i]):
            texts.append(f"{body}. {tail}.")
        else:
            texts.append(f"{body}. @geo({lat[i]:.5f},{lon[i]:.5f}) {tail}.")

    text_arr = pa.array(texts, pa.string())
    escaped = escape_text(text_arr)
    urls = [f"https://site{int(i) % 1000}.example.com/page/{int(i)}" for i in ids]
    htmls = [
        (f"<html><head><title>page {int(ids[i])}</title></head><body>"
         f"<nav><a href=\"/\">home</a><a href=\"/about\">about</a></nav>"
         f"<article>{escaped[i].as_py()}</article>"
         f"<footer>crawl archive {int(ids[i]) % 97}</footer></body></html>"
         ).encode()
        for i in range(n)
    ]
    ts = (np.datetime64("2024-01-01T00:00:00", "us")
          + ids.astype("timedelta64[s]").astype("timedelta64[us]"))
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": text_arr,
        "lang": pa.array(langs.tolist(), pa.string()),
    })


def pages_from_documents(batch: pa.Table) -> pa.Table:
    """map_batches fn: testdata ``documents`` rows -> pages rows.

    The page text is the document text plus a deterministic geotag
    derived from doc_id (same skew/no-geotag model as synthetic pages);
    html wraps the text so extract(html) == text byte-for-byte.
    """
    ids = batch.column("doc_id").to_numpy().astype(np.int64)
    doc_text = batch.column("text").to_pylist()
    langs = batch.column("lang").to_pylist()
    n = len(ids)
    lon, lat = page_coords(ids)

    texts = []
    for i in range(n):
        if np.isnan(lon[i]):
            texts.append(doc_text[i])
        else:
            texts.append(f"{doc_text[i]} @geo({lat[i]:.5f},{lon[i]:.5f})")
    text_arr = pa.array(texts, pa.string())
    escaped = escape_text(text_arr)
    htmls = [
        (f"<html><head><title>doc {int(ids[i])}</title></head><body>"
         f"<nav><a href=\"/\">home</a></nav>"
         f"<article>{escaped[i].as_py()}</article>"
         f"<footer>crawl archive</footer></body></html>").encode()
        for i in range(n)
    ]
    ts = (np.datetime64("2024-01-01T00:00:00", "us")
          + ids.astype("timedelta64[s]").astype("timedelta64[us]"))
    return pa.table({
        "url": pa.array([f"https://docs.example.com/{int(i)}" for i in ids]),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": text_arr,
        "lang": pa.array(langs, pa.string()),
    })


def pages_dataset(n: int, *, override_num_blocks: int | None = None):
    """Distributed deterministic pages synthesis (bench-scale input)."""
    import ray.data

    ds = ray.data.range(n, override_num_blocks=override_num_blocks)
    return ds.map_batches(make_pages, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Admin polygons
# ---------------------------------------------------------------------------

def _hippie_star(cx=25.0, cy=25.0, scale=1.0):
    # tests/vector_predicate_tests.py:172-182
    theta = np.linspace(0, 2 * np.pi, 361)[:-1]
    r = (10 * np.sin(theta * 8) + 15) * scale
    return np.column_stack([np.cos(theta) * r + cx, np.sin(theta) * r + cy])


ADMIN_REGIONS = 60


def admin_polygons(seed: int = 7) -> PolygonSet:
    """Deterministic admin-boundary layer: ``ADMIN_REGIONS`` jittered
    rectangular regions tiling [-180, 180) x [-60, 75], plus the
    reference hard cases with poly_id >= 9000."""
    rng = np.random.RandomState(seed)
    polys = []
    pid = 0
    cols = int(np.ceil(np.sqrt(ADMIN_REGIONS * 2)))
    rows = max(1, ADMIN_REGIONS // cols + 1)
    dlon = 360.0 / cols
    dlat = 135.0 / rows
    for r in range(rows):
        for c in range(cols):
            if pid >= ADMIN_REGIONS:
                break
            x0 = -180.0 + c * dlon + rng.uniform(0, 0.2 * dlon)
            y0 = -60.0 + r * dlat + rng.uniform(0, 0.2 * dlat)
            w = dlon * rng.uniform(0.55, 0.9)
            h = dlat * rng.uniform(0.55, 0.9)
            # jittered 12-vertex rectangle (non-trivial edges)
            txs = np.linspace(x0, x0 + w, 4)
            tys = np.linspace(y0, y0 + h, 4)
            ring = []
            ring += [(x, y0 + rng.uniform(-0.05, 0.05) * h) for x in txs]
            ring += [(x0 + w + rng.uniform(-0.05, 0.05) * w, y) for y in tys[1:]]
            ring += [(x, y0 + h + rng.uniform(-0.05, 0.05) * h) for x in txs[::-1][1:]]
            ring += [(x0 + rng.uniform(-0.05, 0.05) * w, y) for y in tys[::-1][1:-1]]
            polys.append({"poly_id": pid, "name": f"region_{pid}",
                          "crs": "lonlat_wgs84", "rings": [np.asarray(ring)]})
            pid += 1

    polys.append({"poly_id": 9001, "name": "hippie_star", "crs": "lonlat_wgs84",
                  "rings": [_hippie_star()]})
    polys.append({"poly_id": 9002, "name": "polar_ring", "crs": "spherical",
                  "rings": [np.array([(0.0, 80.0), (45.0, 80.0), (90.0, 80.0),
                                      (135.0, 80.0), (180.0, 80.0), (-135.0, 80.0),
                                      (-90.0, 80.0), (-45.0, 80.0)])]})
    polys.append({"poly_id": 9003, "name": "dateline_quad", "crs": "lonlat_wgs84",
                  "rings": [np.array([(179.0, -1.0), (-179.0, -1.0),
                                      (-179.0, 1.0), (179.0, 1.0)])]})
    polys.append({"poly_id": 9004, "name": "holed_square", "crs": "lonlat_wgs84",
                  "rings": [np.array([(-150.0, -50.0), (-140.0, -50.0),
                                      (-140.0, -40.0), (-150.0, -40.0)]),
                            np.array([(-148.0, -48.0), (-146.0, -48.0),
                                      (-147.0, -44.0)])]})
    return PolygonSet.from_rings(polys)
