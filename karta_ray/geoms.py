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
- ``poly_id``  (P,)  int64, ``name`` list[str], ``crs`` list[str]
- ``bbox``     (P, 4) float64 — dateline-aware for geographical CRS
  (karta/vector/dateline.pyx:19-61)

Rings are NOT explicitly closed (karta ring convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .kernels import predicates, tiles


@dataclass
class PolygonSet:
    verts: np.ndarray
    ring_off: np.ndarray
    ring_poly: np.ndarray
    ring_hole: np.ndarray
    poly_id: np.ndarray
    name: list
    crs: list
    bbox: np.ndarray
    is_polar: np.ndarray = field(default=None)

    @classmethod
    def from_rings(cls, polygons: Sequence[dict]):
        """Build from [{'poly_id', 'name', 'crs', 'rings': [ring0, ...]}]
        where each ring is an (n, 2) array-like (ring0 = outer)."""
        verts = []
        ring_off = [0]
        ring_poly = []
        ring_hole = []
        poly_id = []
        names = []
        crss = []
        bboxes = []
        polar = []
        off = 0
        for ip, p in enumerate(polygons):
            poly_id.append(p["poly_id"])
            names.append(p.get("name", str(p["poly_id"])))
            crs_tag = p.get("crs", "lonlat_wgs84")
            crss.append(crs_tag)
            for ir, ring in enumerate(p["rings"]):
                ring = np.asarray(ring, dtype=np.float64).reshape(-1, 2)
                verts.append(ring)
                off += len(ring)
                ring_off.append(off)
                ring_poly.append(ip)
                ring_hole.append(ir > 0)
            outer = np.asarray(p["rings"][0], dtype=np.float64).reshape(-1, 2)
            if crs_tag == "cartesian":
                bboxes.append(predicates.bbox_planar(outer))
                polar.append(False)
            else:
                bboxes.append(predicates.bbox_geographical(outer, ring=True))
                polar.append(predicates.ring_is_polar(outer))
        return cls(
            verts=np.concatenate(verts) if verts else np.empty((0, 2)),
            ring_off=np.asarray(ring_off, dtype=np.int64),
            ring_poly=np.asarray(ring_poly, dtype=np.int64),
            ring_hole=np.asarray(ring_hole, dtype=bool),
            poly_id=np.asarray(poly_id, dtype=np.int64),
            name=names,
            crs=crss,
            bbox=np.asarray(bboxes, dtype=np.float64),
            is_polar=np.asarray(polar, dtype=bool),
        )

    def __len__(self):
        return len(self.poly_id)

    def rings_of(self, ip: int):
        """List of (n, 2) vertex arrays for polygon index ip (outer first)."""
        out = []
        for r in np.nonzero(self.ring_poly == ip)[0]:
            out.append(self.verts[self.ring_off[r]:self.ring_off[r + 1]])
        return out

    def contains(self, px, py, ip: int):
        """Exact membership of points vs polygon index ip, with karta's
        per-ring polar dispatch and hole subtraction. The polar
        azimuth-sum test uses the ring's own CRS inverse azimuth
        (contains_proj calls crs.inverse, contains.pyx:57-63): spherical
        formula for "spherical", Karney for "lonlat_wgs84"."""
        rings = self.rings_of(ip)
        if self.crs[ip] == "lonlat_wgs84":
            from .kernels import karney

            def az_fn(x1, y1, x2, y2):
                az, _, _ = karney.inverse_vec(
                    karney.WGS84_A, karney.WGS84_B,
                    *np.broadcast_arrays(x1, y1, x2, y2))
                return az
            azimuth_fn = az_fn
        else:
            from .kernels import geodesy

            azimuth_fn = geodesy.sphere_azimuth
        return predicates.points_in_polygon(
            px, py, rings, geographical=(self.crs[ip] != "cartesian"),
            azimuth_fn=azimuth_fn)

    def cell_cover(self, zoom: int):
        """dict cell_id -> np.ndarray of polygon indices whose bbox
        intersects that Web-Mercator tile. Polar polygons cover every x
        at rows between the pole and their low-latitude edge (their
        lon/lat bbox is meaningless around the pole)."""
        cover: dict[int, list] = {}
        n = 1 << zoom
        for ip in range(len(self)):
            xmin, ymin, xmax, ymax = self.bbox[ip]
            if self.is_polar is not None and self.is_polar[ip]:
                # northern polar ring: rows 0 .. row(ymin); southern: rows
                # row(ymax) .. n-1 (signs of the ring latitudes decide)
                outer = self.rings_of(ip)[0]
                north = outer[:, 1].mean() > 0
                if north:
                    _, ybot = tiles.tile_xy(0.0, max(ymin, -tiles.MERCATOR_LAT_MAX), zoom)
                    rows = range(0, min(int(ybot), n - 1) + 1)
                else:
                    _, ytop = tiles.tile_xy(0.0, min(ymax, tiles.MERCATOR_LAT_MAX), zoom)
                    rows = range(max(int(ytop), 0), n)
                cells = [tiles.pack_cell(np.int64(zoom), np.int64(x), np.int64(y))
                         for y in rows for x in range(n)]
                cells = np.asarray(cells, dtype=np.int64)
            else:
                # xmin > xmax encodes a dateline-crossing bbox;
                # cells_covering_bbox covers both sides of the dateline,
                # matching the dateline-aware exact test
                # (points_in_ring_dateline).
                cells = tiles.cells_covering_bbox(xmin, ymin, xmax, ymax, zoom)
            for c in np.asarray(cells).ravel():
                cover.setdefault(int(c), []).append(ip)
        return {c: np.asarray(v, dtype=np.int64) for c, v in cover.items()}

    def to_arrow(self):
        """Arrow table in the FIXTURES.md §2 layout (one row per polygon)."""
        import pyarrow as pa

        rings_col = []
        for ip in range(len(self)):
            rings_col.append([r.tolist() for r in self.rings_of(ip)])
        return pa.table({
            "poly_id": pa.array(self.poly_id, pa.int64()),
            "name": pa.array(self.name, pa.string()),
            "rings": pa.array(
                rings_col,
                pa.list_(pa.list_(pa.list_(pa.float64(), 2)))),
            "bbox": pa.StructArray.from_arrays(
                [pa.array(self.bbox[:, i]) for i in range(4)],
                names=["xmin", "ymin", "xmax", "ymax"]),
            "crs": pa.array(self.crs, pa.string()),
        })
