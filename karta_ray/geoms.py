"""Columnar polygon-set model.

The reference's ``Multipolygon`` (karta/vector/geometry.py:1664-1816) is a
list of [outer-ring, holes...] CoordStrings plus an attribute Table and an
R-tree. Here a polygon layer is a plain-arrays structure — cheap to
``ray.put`` once and share read-only across every join task:

- ``verts``    (V, 2) float64 — all ring vertices, concatenated
- ``ring_off`` (R+1,) int64   — vertex offsets per ring
- ``ring_poly`` (R,)  int64   — owning polygon index per ring
- ``ring_hole`` (R,)  bool    — ring 0 of a polygon is the outer ring,
  others are holes (karta ``Polygon.subs``, geometry.py:994-997)
- ``poly_ring_off`` (P+1,) int64 — ring offsets per polygon (the rings of
  polygon p are ``poly_ring_off[p] : poly_ring_off[p+1]``, outer first)
- ``poly_id``  (P,)  int64, ``name`` list[str], ``crs`` list[str]
- ``ring_polar`` / ``ring_dateline`` (R,) bool — per-ring flags of
  geographical rings: winds around a pole / crosses the dateline without
  winding (``predicates.ring_flags``, one batched pass over every ring);
  ``is_polar`` (P,) is ``ring_polar`` of the outer rings
- ``bbox``     (P, 4) float64 — dateline-aware for geographical CRS
  (karta/vector/dateline.pyx:19-61), computed on first read
  (``predicates.bbox_geographical_rings`` over the outer rings)

Rings are NOT explicitly closed (karta ring convention). The PIP join
reads the ring flags but not ``bbox``: its exact test of a plain ring is
a planar winding number, so the prefilter box of a plain outer ring is
its planar vertex extent (:meth:`PolygonSet.cover_boxes`), and only
polar and dateline outer rings get a great-circle box.

Two derived structures serve the PIP join (stages/join.py), both array
programs over the whole layer:

- :meth:`PolygonSet.cover_arrays` — the cell cover of the prefilter
  boxes (:meth:`PolygonSet.cover_boxes`) as sorted ``(cells, off, flat)``
  arrays; :meth:`PolygonSet.cell_cover` is a dict view of them;
- :class:`RingTable` — per-ring polar/dateline/hole flags plus the
  unrolled vertices and frame centres of dateline rings, for the exact
  test of many (point, polygon) pairs at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .kernels import geodesy, predicates, tiles


@dataclass
class PolygonSet:
    verts: np.ndarray
    ring_off: np.ndarray
    ring_poly: np.ndarray
    ring_hole: np.ndarray
    poly_id: np.ndarray
    name: list
    crs: list
    ring_polar: np.ndarray
    ring_dateline: np.ndarray
    poly_ring_off: np.ndarray = field(default=None, init=False)
    _bbox: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # rings are stored polygon after polygon
        self.poly_ring_off = np.searchsorted(
            self.ring_poly, np.arange(len(self.poly_id) + 1)).astype(np.int64)

    @classmethod
    def from_rings(cls, polygons: Sequence[dict]):
        """Build from [{'poly_id', 'name', 'crs', 'rings': [ring0, ...]}]
        where each ring is an (n, 2) array-like (ring0 = outer)."""
        rings = []
        n_rings = []
        poly_id = []
        names = []
        crss = []
        for p in polygons:
            poly_id.append(p["poly_id"])
            names.append(p.get("name", str(p["poly_id"])))
            crss.append(p.get("crs", "lonlat_wgs84"))
            if not len(p["rings"]):
                raise ValueError(f"polygon {p['poly_id']} has no rings")
            rings.extend(np.asarray(r, dtype=np.float64).reshape(-1, 2)
                         for r in p["rings"])
            n_rings.append(len(p["rings"]))
        ring_len = np.fromiter((len(r) for r in rings), dtype=np.int64,
                               count=len(rings))
        ring_off = np.concatenate([[0], np.cumsum(ring_len)]).astype(np.int64)
        verts = np.concatenate(rings) if rings else np.empty((0, 2))

        ring_poly = np.repeat(np.arange(len(poly_id), dtype=np.int64), n_rings)
        geo = np.array([c != "cartesian" for c in crss], dtype=bool)[ring_poly]
        polar, crosses = predicates.ring_flags(verts[:, 0], ring_off[:-1], ring_len)
        poly_ring_off = np.concatenate([[0], np.cumsum(n_rings)]).astype(np.int64)
        return cls(
            verts=verts,
            ring_off=ring_off,
            ring_poly=ring_poly,
            ring_hole=np.arange(len(rings)) != poly_ring_off[ring_poly],
            poly_id=np.asarray(poly_id, dtype=np.int64),
            name=names,
            crs=crss,
            ring_polar=geo & polar,
            ring_dateline=geo & ~polar & crosses,
        )

    @property
    def is_polar(self):
        """(P,) bool: the outer ring winds around a pole."""
        return self.ring_polar[self.poly_ring_off[:-1]]

    @property
    def bbox(self):
        """(P, 4) outer-ring boxes: karta's dateline-aware great-circle
        bbox for a geographical CRS, the planar one for ``cartesian``;
        computed on first read."""
        if self._bbox is None:
            start, count = self._outer_slices()
            geo = np.array([c != "cartesian" for c in self.crs], dtype=bool)
            xs, ys = self.verts[:, 0], self.verts[:, 1]
            bbox = np.empty((len(self), 4))
            bbox[geo] = np.column_stack(predicates.bbox_geographical_rings(
                xs, ys, start[geo], count[geo]))
            bbox[~geo] = np.column_stack(predicates.bbox_planar_rings(
                xs, ys, start[~geo], count[~geo]))
            self._bbox = bbox
        return self._bbox

    def _outer_slices(self):
        """(start, count) vertex slices of the outer rings."""
        outer = self.poly_ring_off[:-1]
        start = self.ring_off[outer]
        return start, self.ring_off[outer + 1] - start

    def __len__(self):
        return len(self.poly_id)

    def rings_of(self, ip: int):
        """List of (n, 2) vertex arrays for polygon index ip (outer first)."""
        return [self.verts[self.ring_off[r]:self.ring_off[r + 1]]
                for r in range(self.poly_ring_off[ip], self.poly_ring_off[ip + 1])]

    def contains(self, px, py, ip: int):
        """Exact membership of points vs polygon index ip, with karta's
        per-ring polar dispatch and hole subtraction. The polar
        azimuth-sum test uses the ring's own CRS inverse azimuth
        (contains_proj calls crs.inverse, contains.pyx:57-63): spherical
        formula for "spherical", Karney for "lonlat_wgs84"."""
        azimuth_fn = (_wgs84_azimuth if self.crs[ip] == "lonlat_wgs84"
                      else geodesy.sphere_azimuth)
        return predicates.points_in_polygon(
            px, py, self.rings_of(ip),
            geographical=(self.crs[ip] != "cartesian"),
            azimuth_fn=azimuth_fn)

    def cover_boxes(self):
        """(P, 4) lon/lat boxes the prefilters cover, one per polygon.

        A plain outer ring gets its planar vertex extent: the exact test
        is a planar winding number in lon/lat, so every point it accepts
        lies in that extent. A dateline ring gets its great-circle
        ``bbox`` (``xmin > xmax`` marks a dateline-crossing box). A polar
        ring gets the full-longitude box from its great-circle
        low-latitude edge to the pole it winds (its lon/lat bbox is
        meaningless around the pole; the sign of the outer ring's mean
        latitude picks the pole)."""
        start, count = self._outer_slices()
        xs, ys = self.verts[:, 0], self.verts[:, 1]
        boxes = np.column_stack(predicates.bbox_planar_rings(xs, ys, start, count))
        polar = self.is_polar
        wide = polar | self.ring_dateline[self.poly_ring_off[:-1]]
        if wide.any():
            boxes[wide] = np.column_stack(predicates.bbox_geographical_rings(
                xs, ys, start[wide], count[wide]))
        if polar.any():
            owner, idx = predicates.slice_index(start[polar], count[polar])
            north = np.zeros(len(self), dtype=bool)
            north[polar] = np.bincount(owner, weights=ys[idx],
                                       minlength=int(polar.sum())) > 0
            boxes[polar, 0], boxes[polar, 2] = -180.0, 180.0
            boxes[polar & north, 3] = 90.0
            boxes[polar & ~north, 1] = -90.0
        return boxes

    def cover_arrays(self, zoom: int):
        """The cell cover as sorted arrays ``(cells, off, flat)``: the
        polygon indices whose cover includes ``cells[k]`` are
        ``flat[off[k]:off[k+1]]``, ascending, a polygon repeated as often
        as its cover lists the cell. A polygon covers the Web-Mercator
        tiles its :meth:`cover_boxes` box intersects
        (``tiles.cells_covering_bbox``)."""
        owner, cells = tiles.expand_tile_spans(
            zoom, *tiles.bbox_tile_spans(*self.cover_boxes().T, zoom))
        order = np.argsort(cells, kind="stable")   # keeps polygon order
        cells, flat = cells[order], owner[order]
        first = np.flatnonzero(np.diff(cells, prepend=cells[:1] - 1))
        return cells[first], np.append(first, len(cells)).astype(np.int64), flat

    def cell_cover(self, zoom: int):
        """dict cell_id -> np.ndarray of polygon indices whose cover
        includes that Web-Mercator tile (a view of :meth:`cover_arrays`)."""
        cells, off, flat = self.cover_arrays(zoom)
        return {c: flat[off[k]:off[k + 1]] for k, c in enumerate(cells.tolist())}

    def to_arrow(self):
        """Arrow table in the FIXTURES.md §2 layout (one row per polygon)."""
        import pyarrow as pa

        points = pa.FixedSizeListArray.from_arrays(
            pa.array(self.verts.ravel(), pa.float64()), 2)
        rings = pa.ListArray.from_arrays(
            pa.array(self.ring_off, pa.int32()), points)
        return pa.table({
            "poly_id": pa.array(self.poly_id, pa.int64()),
            "name": pa.array(self.name, pa.string()),
            "rings": pa.ListArray.from_arrays(
                pa.array(self.poly_ring_off, pa.int32()), rings),
            "bbox": pa.StructArray.from_arrays(
                [pa.array(self.bbox[:, i]) for i in range(4)],
                names=["xmin", "ymin", "xmax", "ymax"]),
            "crs": pa.array(self.crs, pa.string()),
        })


def _wgs84_azimuth(x1, y1, x2, y2):
    """Karney inverse azimuth on WGS84 (the ``lonlat_wgs84`` CRS)."""
    from .kernels import karney

    az, _, _ = karney.inverse_vec(karney.WGS84_A, karney.WGS84_B,
                                  *np.broadcast_arrays(x1, y1, x2, y2))
    return az


class RingTable:
    """Exact-test table of a :class:`PolygonSet`, built once at prep time:
    :meth:`contains` tests many (point, polygon) pairs at once with the
    same result, bit for bit, as ``PolygonSet.contains`` per polygon.

    Per ring: ``polar`` (azimuth-sum test), ``karney`` (that test's
    azimuth is Karney's, else spherical), ``hole``, and ``dateline``
    (winding test in an unrolled longitude frame: the ring's unrolled
    vertices are ``dl_verts[dl_start[r]:]``, its frame centre
    ``center[r]``). Other rings are tested on ``verts`` as stored; edge
    vectors are formed in the kernel, not stored, so the table adds
    little to the broadcast join state.
    """

    def __init__(self, polys: PolygonSet):
        start = polys.ring_off[:-1]
        count = np.diff(polys.ring_off)
        xs, ys = polys.verts[:, 0], polys.verts[:, 1]
        self.polar = polys.ring_polar
        self.dateline = polys.ring_dateline
        self.karney = np.array([c == "lonlat_wgs84" for c in polys.crs],
                               dtype=bool)[polys.ring_poly]
        self.hole = polys.ring_hole
        self.ring_off = polys.ring_off
        self.poly_ring_off = polys.poly_ring_off
        self.verts = polys.verts

        dl = np.flatnonzero(self.dateline)
        self.dl_start = np.full(len(count), -1, dtype=np.int64)
        self.dl_start[dl] = np.cumsum(count[dl]) - count[dl]
        self.center = np.full(len(count), np.nan)
        lon_u, self.center[dl] = predicates.unroll_rings(xs, start[dl], count[dl])
        _, idx = predicates.slice_index(start[dl], count[dl])
        self.dl_verts = np.column_stack([lon_u, ys[idx]])

    def contains(self, px, py, poly):
        """Membership of each point (px[k], py[k]) in polygon poly[k]."""
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        poly = np.asarray(poly, dtype=np.int64)
        r0 = self.poly_ring_off[poly]
        pair, ring = predicates.slice_index(r0, self.poly_ring_off[poly + 1] - r0)
        count = self.ring_off[ring + 1] - self.ring_off[ring]
        hit = np.zeros(len(ring), dtype=bool)

        plain = ~self.polar[ring] & ~self.dateline[ring]
        p, r = pair[plain], ring[plain]
        hit[plain] = predicates.winding_number_pairs(
            px[p], py[p], self.verts, self.ring_off[r], count[plain], p) != 0

        dl = self.dateline[ring]
        if dl.any():
            p, r = pair[dl], ring[dl]
            c = self.center[r]
            hit[dl] = predicates.winding_number_pairs(
                c + geodesy.reduce_deg(px[p] - c), py[p], self.dl_verts,
                self.dl_start[r], count[dl], p) != 0

        # polar rings are rare: one azimuth-sum call per ring, over the
        # pair's points in pair order (the point set PolygonSet.contains
        # sees for that polygon)
        for r in np.unique(ring[self.polar[ring]]):
            sel = np.flatnonzero(ring == r)
            hit[sel] = predicates.points_in_ring_polar(
                px[pair[sel]], py[pair[sel]],
                self.verts[self.ring_off[r]:self.ring_off[r + 1]],
                azimuth_fn=_wgs84_azimuth if self.karney[r] else geodesy.sphere_azimuth)

        inside = np.zeros(len(poly), dtype=bool)
        outer = ~self.hole[ring]
        inside[pair[outer]] = hit[outer]
        inside[pair[hit & ~outer]] = False   # hole subtraction
        return inside
