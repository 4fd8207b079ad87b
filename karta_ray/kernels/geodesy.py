"""Planar and spherical geodesy kernels, vectorized over numpy arrays.

Semantics follow the reference's self-contained formulas
(/root/reference/karta/geodesy.py:52-181 and
/root/reference/karta/vector/vectorgeo.pyx:39-176): law-of-cosines vs
haversine switch at 0.01 rad, azimuths measured clockwise from north,
degrees normalized to [-180, 180).

Ellipsoidal (Karney) routines live in :mod:`karta_ray.kernels.karney`.
"""

from __future__ import annotations

import numpy as np

# pyproj "+ellps=sphere" radius used by the reference's SphericalEarth CRS.
SPHERE_RADIUS = 6370997.0


def reduce_deg(deg):
    """Normalize degrees to [-180, 180)."""
    return (np.asarray(deg) + 180.0) % 360.0 - 180.0


def unroll_rad(rad):
    return np.asarray(rad) % (2.0 * np.pi)


# ---------------------------------------------------------------------------
# Planar
# ---------------------------------------------------------------------------

def plane_distance(x1, y1, x2, y2):
    """Euclidean distance (karta/geodesy.py:80-82)."""
    x1, y1, x2, y2 = (np.asarray(a, dtype=np.float64) for a in (x1, y1, x2, y2))
    return np.hypot(x2 - x1, y2 - y1)


def plane_azimuth(x1, y1, x2, y2):
    """Clockwise-from-north azimuth in radians (karta/geodesy.py:84-89)."""
    x1, y1, x2, y2 = (np.asarray(a, dtype=np.float64) for a in (x1, y1, x2, y2))
    return np.arctan2(x2 - x1, y2 - y1)


def plane_azimuth_deg(x1, y1, x2, y2):
    """Point.azimuth semantics (karta/vector/geometry.py:142-178):
    degrees in [-180, 180), NaN for coincident points."""
    x1, y1, x2, y2 = (np.asarray(a, dtype=np.float64) for a in (x1, y1, x2, y2))
    az = reduce_deg(np.degrees(plane_azimuth(x1, y1, x2, y2)))
    return np.where((x1 == x2) & (y1 == y2), np.nan, az)


# ---------------------------------------------------------------------------
# Spherical
# ---------------------------------------------------------------------------

def sphere_distance_rad(lon1, lat1, lon2, lat2, radius=1.0):
    """Great-circle distance; *radian* inputs (karta/geodesy.py:96-108).

    Uses the spherical law of cosines when |dlon| or |dlat| > 0.01 rad,
    haversine otherwise — the exact switch the reference uses, kept so
    distance values match bit-for-bit.
    """
    lon1, lat1, lon2, lat2 = (
        np.asarray(a, dtype=np.float64) for a in (lon1, lat1, lon2, lat2)
    )
    dx = np.abs(lon1 - lon2)
    dy = np.abs(lat1 - lat2)
    big = (dx > 0.01) | (dy > 0.01)
    # law of cosines (clip guards fp noise outside [-1, 1])
    cosd = np.sin(lat1) * np.sin(lat2) + np.cos(lat1) * np.cos(lat2) * np.cos(dx)
    d_loc = np.arccos(np.clip(cosd, -1.0, 1.0))
    # haversine
    h = np.sin(dy / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dx / 2.0) ** 2
    d_hav = 2.0 * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
    return radius * np.where(big, d_loc, d_hav)


def sphere_distance(lon1, lat1, lon2, lat2, radius=SPHERE_RADIUS):
    """Great-circle distance; *degree* inputs (vectorgeo.pyx:39-55)."""
    d2r = np.pi / 180.0
    lon1, lat1, lon2, lat2 = (
        np.asarray(a, dtype=np.float64) for a in (lon1, lat1, lon2, lat2)
    )
    return sphere_distance_rad(lon1 * d2r, lat1 * d2r, lon2 * d2r, lat2 * d2r,
                               radius=radius)


def sphere_azimuth_rad(lon1, lat1, lon2, lat2):
    """Azimuth in radians from point 1 to point 2; degree inputs
    (karta/geodesy.py:111-113 / vectorgeo.pyx:170-176)."""
    d2r = np.pi / 180.0
    lon1, lat1, lon2, lat2 = (
        np.asarray(a, dtype=np.float64) for a in (lon1, lat1, lon2, lat2)
    )
    dlon = (lon2 - lon1) * d2r
    y1 = lat1 * d2r
    y2 = lat2 * d2r
    return np.arctan2(np.sin(dlon),
                      np.cos(y1) * np.tan(y2) - np.sin(y1) * np.cos(dlon))


def sphere_azimuth(lon1, lat1, lon2, lat2):
    """Azimuth in degrees, normalized to [-180, 180)."""
    return reduce_deg(np.degrees(sphere_azimuth_rad(lon1, lat1, lon2, lat2)))


def sphere_inverse(lon1, lat1, lon2, lat2, radius=SPHERE_RADIUS):
    """Inverse geodesic problem on a sphere; degree inputs.

    Returns (azimuth°, back-azimuth°, distance) matching the contract of
    the reference GeographicalCRS.inverse (karta/crs.py:234-239).
    """
    az = sphere_azimuth(lon1, lat1, lon2, lat2)
    baz = sphere_azimuth(lon2, lat2, lon1, lat1)
    dist = sphere_distance(lon1, lat1, lon2, lat2, radius=radius)
    return az, baz, dist


def sphere_forward(lon, lat, az, dist, radius=SPHERE_RADIUS):
    """Direct geodesic problem on a sphere; degrees in, degrees out.

    Returns (lon2, lat2, back-azimuth°) with back-azimuth normalized to
    [-180, 180) as in karta/crs.py:228-231.
    """
    d2r = np.pi / 180.0
    lon, lat, az = (np.asarray(a, dtype=np.float64) for a in (lon, lat, az))
    dist = np.asarray(dist, dtype=np.float64)
    delta = dist / radius
    phi1 = lat * d2r
    alpha = az * d2r
    sphi2 = np.sin(phi1) * np.cos(delta) + np.cos(phi1) * np.sin(delta) * np.cos(alpha)
    phi2 = np.arcsin(np.clip(sphi2, -1.0, 1.0))
    dlon = np.arctan2(np.sin(alpha) * np.sin(delta) * np.cos(phi1),
                      np.cos(delta) - np.sin(phi1) * sphi2)
    lon2 = reduce_deg(lon + dlon / d2r)
    lat2 = phi2 / d2r
    baz = sphere_azimuth(lon2, lat2, lon, lat)
    return lon2, lat2, baz


# ---------------------------------------------------------------------------
# Cartesian <-> spherical coordinates, euler poles
# ---------------------------------------------------------------------------

def sph2cart(lon, lat):
    """(lon, lat) degrees on the unit sphere -> (x, y, z)
    (karta/geodesy.py:33-38)."""
    lon, lat = np.asarray(lon, dtype=np.float64), np.asarray(lat, dtype=np.float64)
    theta = np.radians(90.0 - lat)
    lam = np.radians(lon)
    return (np.sin(theta) * np.cos(lam),
            np.sin(theta) * np.sin(lam),
            np.cos(theta))


def cart2sph_raw(x, y, z, thresh=1e-8):
    """(x, y, z) -> (lon, lat) degrees, replicating the reference's branch
    structure (vectorgeo.pyx:140-154): the returned latitude is NOT
    normalized and may fall outside [-90, 90] for z < 0; callers that need
    a normalized value apply ``(lat + 90) % 180 - 90`` as the reference
    kernels do (intersection.pyx:595-597).
    """
    x, y, z = (np.asarray(a, dtype=np.float64) for a in (x, y, z))
    rho = np.hypot(x, y)
    with np.errstate(invalid="ignore", divide="ignore"):
        lon = np.where(np.abs(x) > thresh,
                       np.arctan2(y, x),
                       np.arcsin(np.clip(np.where(rho > 0, y / np.where(rho == 0, 1.0, rho), 0.0), -1.0, 1.0)))
        r = np.sqrt(x * x + y * y + z * z)
        lat = np.where(np.abs(z) > thresh,
                       0.5 * np.pi - np.arctan(rho / np.where(z == 0, 1.0, z)),
                       0.5 * np.pi - np.arccos(np.clip(z / np.where(r == 0, 1.0, r), -1.0, 1.0)))
    return np.degrees(lon), np.degrees(lat)


def cart2sph(x, y, z):
    """(x, y, z) -> (lon, lat) degrees with lat normalized to [-90, 90]."""
    lon, lat = cart2sph_raw(x, y, z)
    lat = (lat + 90.0) % 180.0 - 90.0
    return lon, lat


def eulerpole(lon0, lat0, lon1, lat1):
    """Euler pole (cross product of cartesian positions) of the great
    circle through two spherical points (karta/geodesy.py:136-140)."""
    a = np.stack(sph2cart(lon0, lat0), axis=-1)
    b = np.stack(sph2cart(lon1, lat1), axis=-1)
    c = np.cross(a, b)
    return c[..., 0], c[..., 1], c[..., 2]


# ---------------------------------------------------------------------------
# Spherical segment intersection (used for geographical `intersects`)
# ---------------------------------------------------------------------------

def _isbetween_inc(a, b, c):
    return (np.minimum(a, c) <= b) & (b <= np.maximum(a, c))


def intersection_sph(x0, y0, x1, y1, x2, y2, x3, y3):
    """Vectorized spherical segment-pair intersection
    (intersection.pyx:586-604): intersect the two great circles via euler
    poles, then accept the normal or its antipode if its longitude lies
    within both segments' longitude ranges (plain, non-circular
    between-test, exactly as the reference kernel does).

    Returns (xi, yi) with NaN where segments do not intersect.
    """
    p1x, p1y, p1z = eulerpole(x0, y0, x1, y1)
    p2x, p2y, p2z = eulerpole(x2, y2, x3, y3)
    n = np.cross(np.stack([p1x, p1y, p1z], axis=-1),
                 np.stack([p2x, p2y, p2z], axis=-1))
    lon, lat = cart2sph_raw(n[..., 0], n[..., 1], n[..., 2])
    lon = (lon + 180.0) % 360.0 - 180.0
    lat = (lat + 90.0) % 180.0 - 90.0
    lon_a = (lon + 360.0) % 360.0 - 180.0
    lat_a = -lat

    hit1 = _isbetween_inc(x0, lon, x1) & _isbetween_inc(x2, lon, x3)
    hit2 = _isbetween_inc(x0, lon_a, x1) & _isbetween_inc(x2, lon_a, x3)
    xi = np.where(hit1, lon, np.where(hit2, lon_a, np.nan))
    yi = np.where(hit1, lat, np.where(hit2, lat_a, np.nan))
    return xi, yi


# ---------------------------------------------------------------------------
# Spherical area (geodesic quadrilateral vs equator)
# ---------------------------------------------------------------------------

def _canonical_configuration(x1, y1, x2, y2):
    """Karney eqn 44 canonicalization (karta/geodesy.py:285-308), scalar."""
    tr = {"yflip": False, "xflip": False, "ysignswap": False}
    if abs(y1) < abs(y2):
        y1, y2 = y2, y1
        tr["yflip"] = True
    if y1 > 0:
        y1, y2 = -y1, -y2
        tr["ysignswap"] = True
    x2 = float(reduce_deg(x2 - x1))
    x1 = 0.0
    if x2 < 0 or x2 > 180:
        x2 = -x2
        tr["xflip"] = True
    return tr, x1, y1, x2, y2


def _vincenty_sphere(a, f, lambda12, phi1, phi2):
    """Spherical approximation to the inverse problem
    (karta/geodesy.py:222-266), scalar; returns (alpha1, alpha2, s12)."""
    from math import atan, atan2, cos, sin, sqrt

    eccn2 = f * (2 - f)
    beta1 = atan((1 - f) * np.tan(phi1))
    beta2 = atan((1 - f) * np.tan(phi2))
    w = sqrt(1 - eccn2 * (0.5 * (cos(beta1) + cos(beta2))) ** 2)
    omega12 = lambda12 / w
    z1_r = cos(beta1) * sin(beta2) - sin(beta1) * cos(beta2) * cos(omega12)
    z1_i = cos(beta2) * sin(omega12)
    sigma12 = atan2(sqrt(z1_r ** 2 + z1_i ** 2),
                    sin(beta1) * sin(beta2) + cos(beta1) * cos(beta2) * cos(omega12))
    z2_r = -sin(beta1) * cos(beta2) + cos(beta1) * sin(beta2) * cos(omega12)
    z2_i = cos(beta1) * sin(omega12)
    return atan2(z1_i, z1_r), atan2(z2_i, z2_r), a * w * sigma12


def spherical_area(r, x1, y1, x2, y2):
    """Signed area between a great-circle segment and the equator
    (karta/geodesy.py:115-126), scalar."""
    reverse = -1.0 if x2 < x1 else 1.0
    _, x1, y1, x2, y2 = _canonical_configuration(x1, y1, x2, y2)
    phi1 = np.radians(y1)
    phi2 = np.radians(y2)
    lambda12 = np.radians(x2 - x1)
    alpha1, alpha2, _ = _vincenty_sphere(r, 0.0, lambda12, phi1, phi2)
    return reverse * r * r * (alpha2 - alpha1)
