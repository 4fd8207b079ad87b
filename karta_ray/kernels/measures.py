"""Polygon measures (area, perimeter, centroid) and affine transforms.

Reference semantics:
- planar area: x0-anchored shoelace incl. closure, holes subtract
  (karta/vector/geometry.py:1109-1143)
- spherical / ellipsoidal area: per-closed-segment geodesic
  quadrilaterals (geometry.py:1118-1136; karta/geodesy.py:115-126,
  637-729)
- perimeter: closed-ring length + hole perimeters
  (geometry.py:1092-1107)
- centroid: shoelace centroid over the closed ring
  (geometry.py:1145-1154)
- rotate: CCW degrees about a pivot (geometry.py:47-64; goldens
  tests/geometry_tests.py:468-478)
"""

from __future__ import annotations

import numpy as np

from . import geodesy, karney


def ring_area_planar(ring):
    ring = np.asarray(ring, dtype=np.float64)
    x = ring[:, 0]
    y = ring[:, 1]
    x0 = x.min()
    # closing term first, then the open-chain sum (geometry.py:1138-1142)
    area = (0.5 * (x[0] + x[-1]) - x0) * (y[0] - y[-1])
    area += np.sum((0.5 * (x[1:] + x[:-1]) - x0) * (y[1:] - y[:-1]))
    return abs(float(area))


def ring_area_geographical(ring, a, b):
    """Spherical when a == b, else ellipsoidal; |sum over closed
    segments|."""
    ring = np.asarray(ring, dtype=np.float64)
    closed = np.vstack([ring, ring[:1]])
    area = 0.0
    for i in range(len(ring)):
        x1, y1 = closed[i, :2]
        x2, y2 = closed[i + 1, :2]
        if a == b:
            area += geodesy.spherical_area(a, x1, y1, x2, y2)
        else:
            area += karney.ellipsoidal_area(a, b, x1, y1, x2, y2)
    return abs(float(area))


def polygon_area(rings, crs_tag="cartesian",
                 a=karney.WGS84_A, b=karney.WGS84_B):
    """Area of outer ring minus hole areas (geometry.py:1109-1143)."""
    if crs_tag == "cartesian":
        area = ring_area_planar(rings[0])
        return area - sum(ring_area_planar(h) for h in rings[1:])
    if crs_tag == "spherical":
        a = b = geodesy.SPHERE_RADIUS
    area = ring_area_geographical(rings[0], a, b)
    return area - sum(ring_area_geographical(h, a, b) for h in rings[1:])


def ring_area_sphere_exact(ring, radius=geodesy.SPHERE_RADIUS):
    """Exact great-circle polygon area by signed spherical-triangle fan
    decomposition (l'Huilier excess, orientation from the scalar triple
    product).

    Provided IN ADDITION to the reference-faithful ``polygon_area``
    because the reference's per-segment geodesic-quadrilateral sum
    (geometry.py:1118-1136) drops the canonicalization sign corrections:
    north/south-symmetric rectangles cancel to exactly 0 (its own
    dateline area test compares 0 == 0). Not golden-tested there, so the
    correct computation is offered under a separate name.
    """
    ring = np.asarray(ring, dtype=np.float64)
    v = np.stack(geodesy.sph2cart(ring[:, 0], ring[:, 1]), axis=-1)
    n = len(ring)
    total = 0.0
    a = v[0]
    for i in range(1, n - 1):
        b, c = v[i], v[i + 1]
        ab = np.arccos(np.clip(np.dot(a, b), -1, 1))
        bc = np.arccos(np.clip(np.dot(b, c), -1, 1))
        ca = np.arccos(np.clip(np.dot(c, a), -1, 1))
        s = 0.5 * (ab + bc + ca)
        t = (np.tan(s / 2) * np.tan((s - ab) / 2)
             * np.tan((s - bc) / 2) * np.tan((s - ca) / 2))
        excess = 4.0 * np.arctan(np.sqrt(max(t, 0.0)))
        sign = np.sign(np.dot(a, np.cross(b, c)))
        total += sign * excess
    return abs(total) * radius * radius


def polygon_perimeter(rings, crs_tag="cartesian"):
    """Ring + holes perimeter (geometry.py:1092-1107)."""
    from .. import crs as crsmod
    from .lines import line_length

    crs = crsmod.get_crs({"cartesian": "cartesian", "spherical": "spherical",
                          "lonlat_wgs84": "lonlat_wgs84"}[crs_tag])
    return sum(line_length(r, crs, ring=True) for r in rings)


def ring_centroid(ring):
    """Shoelace centroid (geometry.py:1145-1154)."""
    ring = np.asarray(ring, dtype=np.float64)
    x = ring[:, 0]
    y = ring[:, 1]
    xn = np.roll(x, -1)
    yn = np.roll(y, -1)
    cross = x * yn - xn * y
    A = 0.5 * cross.sum()
    cx = np.sum((x + xn) * cross) / (6.0 * A)
    cy = np.sum((y + yn) * cross) / (6.0 * A)
    return float(cx), float(cy)


# ---------------------------------------------------------------------------
# Affine transforms (vectorized over vertex arrays)
# ---------------------------------------------------------------------------

def shift(verts, dx, dy):
    verts = np.asarray(verts, dtype=np.float64).copy()
    verts[:, 0] += dx
    verts[:, 1] += dy
    return verts


def rotate(verts, theta_deg, origin=(0.0, 0.0)):
    """CCW rotation in degrees about *origin* (geometry.py:47-64)."""
    verts = np.asarray(verts, dtype=np.float64)
    t = np.radians(theta_deg)
    c, s = np.cos(t), np.sin(t)
    dx = verts[:, 0] - origin[0]
    dy = verts[:, 1] - origin[1]
    out = verts.copy()
    out[:, 0] = dx * c - dy * s + origin[0]
    out[:, 1] = dx * s + dy * c + origin[1]
    return out


def apply_affine(verts, M):
    """Apply a 2x3 (planar) or 3x4 (rank-3) affine matrix
    (geometry.py:483-553; 3x4 semantics geometry.py:204-230: rank-2
    vertices are lifted with z = 0 and stay rank 2, rank-3 vertices get
    a transformed z)."""
    verts = np.asarray(verts, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    out = verts.copy()
    if M.shape == (2, 3):
        out[:, 0] = M[0, 0] * verts[:, 0] + M[0, 1] * verts[:, 1] + M[0, 2]
        out[:, 1] = M[1, 0] * verts[:, 0] + M[1, 1] * verts[:, 1] + M[1, 2]
        return out
    if M.shape != (3, 4):
        raise ValueError(f"invalid affine matrix size: {M.shape}")
    rank3 = verts.shape[1] >= 3
    z = verts[:, 2] if rank3 else np.zeros(len(verts))
    out[:, 0] = (M[0, 0] * verts[:, 0] + M[0, 1] * verts[:, 1]
                 + M[0, 2] * z + M[0, 3])
    out[:, 1] = (M[1, 0] * verts[:, 0] + M[1, 1] * verts[:, 1]
                 + M[1, 2] * z + M[1, 3])
    if rank3:
        out[:, 2] = (M[2, 0] * verts[:, 0] + M[2, 1] * verts[:, 1]
                     + M[2, 2] * z + M[2, 3])
    return out


def best_fit_affine(src, dst):
    """Least-squares 2x3 affine mapping src -> dst
    (karta ``affine_matrix``, geometry.py:1833-1852)."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    n = len(src)
    A = np.zeros((2 * n, 6))
    A[0::2, 0] = src[:, 0]
    A[0::2, 1] = src[:, 1]
    A[0::2, 2] = 1.0
    A[1::2, 3] = src[:, 0]
    A[1::2, 4] = src[:, 1]
    A[1::2, 5] = 1.0
    bvec = dst.reshape(-1)
    sol, *_ = np.linalg.lstsq(A, bvec, rcond=None)
    return sol.reshape(2, 3)
