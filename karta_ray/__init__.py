"""karta_ray — a Ray-Data-native distributed spatial-join + tiling engine.

A from-scratch reimplementation of the query/data-processing surface of
fortyninemaps/karta (reference at /root/reference, v0.10.0dev0), built on
ray.data.Dataset + map_batches over zero-copy Arrow batches.

Layout
------
- ``karta_ray.kernels``   — stateless vectorized numpy/Arrow kernels
  (geodesy, predicates, tiles, hulls, nearest-point, raster math).
- ``karta_ray.crs``       — the supported CRSs (Cartesian,
  SphericalEarth, LonLatWGS84, WebMercator, UPS/NSIDC polar
  stereographic, Lambert/Gall-Peters equal-area) with proj4/WKT
  serialization, matching karta/crs.py semantics.
- ``karta_ray.stages``    — Ray Data stage builders (map_batches fns,
  per-worker cached callable classes, groupby aggregates).
- ``karta_ray.pipelines`` — end-to-end pipelines + checkpoint manifest.
- ``karta_ray.state``     — the per-worker broadcast-state helper and
  the STR-packed bbox tree.
- ``karta_ray.synth``     — deterministic synthetic Common-Crawl-style
  pages / polygon fixtures.
"""

__version__ = "0.1.0"
