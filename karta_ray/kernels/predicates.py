"""Vectorized geometry predicates.

These kernels replicate, bit-for-bit where possible, the reference's
Cython predicate semantics — the part of the engine where "row-for-row"
parity can silently fail:

- winding-number point-in-ring with the asymmetric upward
  ``y0 <= y < y1`` / downward ``y0 > y >= y1`` crossing rule
  (/root/reference/karta/vector/contains.pyx:13-42)
- azimuth-sum membership for polar geographical rings
  (contains.pyx:44-83)
- planar segment intersection with the half-open ``0 < t <= 1`` hit rule
  (/root/reference/karta/vector/intersection.pyx:606-622)
- spherical segment intersection via euler poles
  (intersection.pyx:585-604)
- bbox overlap where touching edges count as overlap
  (intersection.pyx:21-39)
- dateline-aware geographical bbox with the rotation accumulator
  (/root/reference/karta/vector/dateline.pyx:19-61) and great-circle
  bounding latitudes (/root/reference/karta/vector/vectorgeo.pyx:64-106)

Point batches are numpy float64 arrays; rings are (n, 2) arrays of NOT
explicitly closed vertices (closure is implicit, karta ring semantics).
"""

from __future__ import annotations

import functools

import numpy as np

from . import geodesy

# target temporary size for chunked kernels (elements per 2-D buffer);
# ~720k float64 ≈ 5.5 MB keeps allocations inside malloc's reuse range
_CHUNK_ELEMS = 720_000
# elements per chunk of the batched ring kernels ((entry, edge) elements of
# winding_number_pairs, ring vertices of the prep kernels): temporaries
# stay under ~2 MB and cache-resident whatever the layer or batch size;
# both measured ~2x faster than with chunks of _CHUNK_ELEMS
_RING_CHUNK_ELEMS = 8_192


# ---------------------------------------------------------------------------
# Point-in-ring / point-in-polygon
# ---------------------------------------------------------------------------

def winding_number(px, py, ring):
    """Winding number of points (px, py) w.r.t. an implicitly-closed ring.

    contains.pyx:13-42: for each edge (p0 -> p1),
      upward crossing  (y0 <= y < y1) with point strictly left  -> +1
      downward crossing (y0 > y >= y1) with point strictly right -> -1
    A point is inside iff the winding number != 0; this makes points on
    bottom/left edges IN and top/right edges OUT, matching
    tests/vector_predicate_tests.py:165-170.
    """
    px = np.ascontiguousarray(px, dtype=np.float64)
    py = np.ascontiguousarray(py, dtype=np.float64)
    ring = np.asarray(ring, dtype=np.float64)
    x0 = np.ascontiguousarray(ring[:, 0])
    y0 = np.ascontiguousarray(ring[:, 1])
    x1 = np.roll(x0, -1)
    y1 = np.roll(y0, -1)
    dx = x1 - x0
    dy = y1 - y0

    n = len(px)
    e = len(ring)
    out = np.empty(n, dtype=np.int64)
    # Chunk the point axis so the (chunk, edges) temporaries stay small
    # and are reused: fresh multi-hundred-MB numpy temporaries pay a
    # page-fault storm on first touch, which dominates wall time for
    # large batches.
    ch = max(1, _CHUNK_ELEMS // max(e, 1))
    b1 = np.empty((min(ch, n), e))
    b2 = np.empty((min(ch, n), e))
    bu = np.empty((min(ch, n), e), dtype=bool)
    bd = np.empty((min(ch, n), e), dtype=bool)
    bt = np.empty((min(ch, n), e), dtype=bool)
    for s in range(0, n, ch):
        stop = min(s + ch, n)
        m = stop - s
        pxc = px[s:stop, None]
        pyc = py[s:stop, None]
        v1, v2, vu, vd, vt = b1[:m], b2[:m], bu[:m], bd[:m], bt[:m]
        np.subtract(pyc, y0[None, :], out=v1)
        v1 *= dx[None, :]
        np.subtract(pxc, x0[None, :], out=v2)
        v2 *= dy[None, :]
        v1 -= v2  # isleft
        # upward: (y0 <= y < y1) & isleft > 0
        np.less_equal(y0[None, :], pyc, out=vu)
        np.less(pyc, y1[None, :], out=vt)
        vu &= vt
        np.greater(v1, 0.0, out=vt)
        vu &= vt
        # downward: (y0 > y >= y1) & isleft < 0
        np.greater(y0[None, :], pyc, out=vd)
        np.greater_equal(pyc, y1[None, :], out=vt)
        vd &= vt
        np.less(v1, 0.0, out=vt)
        vd &= vt
        out[s:stop] = vu.sum(axis=1)
        out[s:stop] -= vd.sum(axis=1)
    return out


def points_in_ring(px, py, ring):
    """Boolean membership of many points vs one planar ring."""
    return winding_number(px, py, ring) != 0


def points_in_ring_polar(px, py, ring, azimuth_fn=geodesy.sphere_azimuth):
    """Azimuth-sum membership test for polar geographical rings
    (contains.pyx:44-83).

    ``azimuth_fn(x1, y1, x2, y2) -> azimuth degrees`` is the CRS inverse
    azimuth (spherical by default). The reference accumulates deltas of
    the azimuth from the point to successive ring vertices (normalized to
    [0, 360)), wrapping only deltas < -180 up by 360, and declares the
    point inside iff the total is ~0 (within 1e-4).
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    ring = np.asarray(ring, dtype=np.float64)
    # vertex cycle v0, v1, ..., v_{n-1}, v0  (n+1 entries -> n deltas)
    rx = np.concatenate([ring[:, 0], ring[:1, 0]])
    ry = np.concatenate([ring[:, 1], ring[:1, 1]])
    az = azimuth_fn(px[:, None], py[:, None], rx[None, :], ry[None, :])
    az = (np.asarray(az, dtype=np.float64) + 360.0) % 360.0
    deltas = az[:, 1:] - az[:, :-1]
    deltas = np.where(deltas < -180.0, deltas + 360.0, deltas)
    return np.abs(deltas.sum(axis=1)) <= 1e-4


def ring_is_polar(ring):
    """Whether a geographical ring winds around a pole: signed longitude
    winding over the closed ring is ±360 (vs 0 for non-winding rings).

    The reference's ``ispolar`` (karta/vector/geometry.py:1050-1076) adds
    an unsigned +360 at every dateline crossing, which also flags
    dateline-straddling *non-polar* rings as polar and routes them to the
    azimuth-sum membership test — which then misclassifies points far
    north of such rings as inside. That behavior is not golden-tested; we
    use the signed winding (identical verdicts on every reference test
    ring, tests/vector_predicate_tests.py:24-46) so that dateline
    quads get correct dateline-aware containment instead.
    """
    lons = geodesy.reduce_deg(np.asarray(ring, dtype=np.float64)[:, 0])
    d = geodesy.reduce_deg(lons - np.roll(lons, 1))
    return bool(abs(d.sum()) > 180.0)


def ring_crosses_dateline(ring):
    """Whether any (closed-)ring segment crosses the dateline."""
    lons = geodesy.reduce_deg(np.asarray(ring, dtype=np.float64)[:, 0])
    return bool(np.any(crosses_dateline(np.roll(lons, 1), lons) != 0))


def points_in_ring_dateline(px, py, ring):
    """Winding-number membership for a dateline-crossing, non-polar ring:
    unroll the ring longitudes into a continuous frame (cumulative
    reduced deltas), map each point longitude to its representative
    within ±180° of the frame center, then apply the standard planar
    winding rule. Reference semantics for this case are an artifact of
    its polar misdispatch (see ring_is_polar); this is the
    spherically-correct containment."""
    ring = np.asarray(ring, dtype=np.float64)
    lons = geodesy.reduce_deg(ring[:, 0])
    deltas = geodesy.reduce_deg(np.diff(lons))
    lon_u = np.concatenate([[lons[0]], lons[0] + np.cumsum(deltas)])
    center = 0.5 * (lon_u.min() + lon_u.max())
    px = np.asarray(px, dtype=np.float64)
    px_u = center + geodesy.reduce_deg(px - center)
    ring_u = np.column_stack([lon_u, ring[:, 1]])
    return points_in_ring(px_u, py, ring_u)


def points_in_polygon(px, py, rings, geographical=False,
                      azimuth_fn=geodesy.sphere_azimuth):
    """Membership of points vs a polygon with holes.

    ``rings``: list of (n_i, 2) arrays; rings[0] is the outer ring,
    rings[1:] are holes (subtracted, karta/vector/geometry.py:1156-1174).
    Each ring independently dispatches to the polar test when the CRS is
    geographical and the ring winds a pole, exactly like
    ``Polygon.contains`` does per sub-polygon.
    """
    def one_ring(ring):
        if geographical and ring_is_polar(ring):
            return points_in_ring_polar(px, py, ring, azimuth_fn=azimuth_fn)
        if geographical and ring_crosses_dateline(ring):
            return points_in_ring_dateline(px, py, ring)
        return points_in_ring(px, py, ring)

    inside = one_ring(rings[0])
    for hole in rings[1:]:
        inside &= ~one_ring(hole)
    return inside


# ---------------------------------------------------------------------------
# Batched ring kernels
# ---------------------------------------------------------------------------
# Many rings at once, each given as the slice ``start[k] : start[k] +
# count[k]`` of shared vertex arrays. The elementwise steps repeat the
# scalar kernels' floating-point operations in the same order, so each ring
# gets the value the scalar kernel computes for it alone.

def slice_index(start, count):
    """(owner, index): for every element of the slices ``start[k] :
    start[k] + count[k]``, slice after slice, its slice number k and its
    position in the shared array."""
    start = np.asarray(start, dtype=np.int64)
    count = np.asarray(count, dtype=np.int64)
    owner = np.repeat(np.arange(len(count), dtype=np.int64), count)
    base = np.repeat(start - (np.cumsum(count) - count), count)
    return owner, base + np.arange(len(owner), dtype=np.int64)


def _slice_reduce(ufunc, values, count, empty):
    """``ufunc.reduce`` over consecutive slices of ``values`` of lengths
    ``count``; ``empty`` for zero-length slices."""
    out = np.full(len(count), empty, dtype=np.float64)
    nz = count > 0
    if nz.any():
        out[nz] = ufunc.reduceat(values, (np.cumsum(count) - count)[nz])
    return out


def _in_ring_chunks(kernel):
    """Run a batched ring kernel ``kernel(*arrays, start, count) -> tuple
    of per-ring arrays`` over chunks of whole rings holding at most
    ``_RING_CHUNK_ELEMS`` vertices (a longer ring alone), concatenating
    the results, so its temporaries stay small whatever the layer size."""
    @functools.wraps(kernel)
    def run(*args):
        *arrays, start, count = args
        start = np.asarray(start, dtype=np.int64)
        count = np.asarray(count, dtype=np.int64)
        bounds = _group_chunks(count + 1, np.arange(len(count)), _RING_CHUNK_ELEMS)
        parts = [kernel(*arrays, start[a:b], count[a:b])
                 for a, b in zip(bounds[:-1], bounds[1:])]
        if not parts:
            return kernel(*arrays, start, count)
        return tuple(np.concatenate(p) for p in zip(*parts))
    return run


@_in_ring_chunks
def ring_flags(xs, start, count):
    """(polar, crosses_dateline) of many rings: :func:`ring_is_polar` and
    :func:`ring_crosses_dateline` in one pass.

    The winding sum is accumulated in a different order than
    ``ring_is_polar``'s pairwise ``sum``; the verdict is the same, because
    the exact sum over a closed ring is a multiple of 360 and rounding
    moves it by far less than the 180 threshold."""
    count = np.asarray(count, dtype=np.int64)
    owner, idx = slice_index(start, count)
    lons = geodesy.reduce_deg(np.asarray(xs, dtype=np.float64)[idx])
    # position of each vertex's predecessor (np.roll(lons, 1) per ring)
    pos = np.arange(len(idx), dtype=np.int64)
    first = (np.cumsum(count) - count)[owner]
    prev = np.where(pos == first, first + count[owner] - 1, pos - 1)
    d = geodesy.reduce_deg(lons - lons[prev])
    polar = np.abs(np.bincount(owner, weights=d, minlength=len(count))) > 180.0
    xing = crosses_dateline(lons[prev], lons) != 0
    crosses = np.bincount(owner, weights=xing, minlength=len(count)) > 0
    return polar, crosses


@_in_ring_chunks
def bbox_planar_rings(xs, ys, start, count):
    """:func:`bbox_planar` of many rings: (xmin, ymin, xmax, ymax) arrays,
    NaN for empty rings."""
    count = np.asarray(count, dtype=np.int64)
    _, idx = slice_index(start, count)
    x = np.asarray(xs, dtype=np.float64)[idx]
    y = np.asarray(ys, dtype=np.float64)[idx]
    return (_slice_reduce(np.minimum, x, count, np.nan),
            _slice_reduce(np.minimum, y, count, np.nan),
            _slice_reduce(np.maximum, x, count, np.nan),
            _slice_reduce(np.maximum, y, count, np.nan))


@_in_ring_chunks
def bbox_geographical_rings(xs, ys, start, count):
    """:func:`bbox_geographical` (``ring=True``) of many rings in one
    pass: (xmin, ymin, xmax, ymax) arrays, NaN for empty rings.

    Ring k's n vertices give n + 1 segments (v0, v0), (v0, v1), ...,
    (v_{n-1}, v0), as in the scalar kernel. Its sequential rotation
    accumulator is a running sum of whole multiples of 360, hence exact as
    a per-ring cumulative sum of the crossing signs."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    count = np.asarray(count, dtype=np.int64)
    start = np.asarray(start, dtype=np.int64)
    nseg = np.where(count > 0, count + 1, 0)
    owner, j = slice_index(np.zeros_like(nseg), nseg)   # j: segment number
    n, s = count[owner], start[owner]
    cur = s + np.where(j < n, j, 0)
    prev = s + np.maximum(j - 1, 0)
    px, py, cx, cy = xs[prev], ys[prev], xs[cur], ys[cur]

    segymin, segymax, degen = _bndlat_sph(px, py, cx, cy)
    nz = count > 0
    x0, y0 = xs[start[nz]], ys[start[nz]]
    ymin = np.full(len(count), np.nan)
    ymax = np.full(len(count), np.nan)
    ymin[nz] = np.minimum(y0, _slice_reduce(
        np.minimum, np.where(degen, np.inf, segymin), nseg, np.inf)[nz])
    ymax[nz] = np.maximum(y0, _slice_reduce(
        np.maximum, np.where(degen, -np.inf, segymax), nseg, -np.inf)[nz])

    xdl = crosses_dateline(px, cx)
    turns = np.cumsum(xdl)
    turns -= (turns - xdl)[(np.cumsum(nseg) - nseg)[owner]]  # per ring
    rolled = cx + turns * -360.0
    cross = xdl != 0
    west = px > cx
    xmin = np.full(len(count), np.nan)
    xmax = np.full(len(count), np.nan)
    xmin[nz] = np.minimum(x0, _slice_reduce(
        np.minimum, np.where(cross, rolled, np.where(west, cx, np.inf)),
        nseg, np.inf)[nz])
    xmax[nz] = np.maximum(x0, _slice_reduce(
        np.maximum, np.where(cross, rolled, np.where(west, -np.inf, cx)),
        nseg, -np.inf)[nz])
    xmin = (xmin + 180.0) % 360.0 - 180.0
    xmax = (xmax + 180.0) % 360.0 - 180.0
    return xmin, ymin, xmax, ymax


def unroll_rings(xs, start, count):
    """Unrolled longitudes (flat, ring after ring) and frame centre of
    many rings, exactly as :func:`points_in_ring_dateline` computes them.

    Rings are cumulated in rows of a zero-padded 2-D array (row-wise
    ``cumsum`` is the same sequential sum as the 1-D one), one array per
    power-of-two length class so padding at most doubles the work."""
    xs = np.asarray(xs, dtype=np.float64)
    start = np.asarray(start, dtype=np.int64)
    count = np.asarray(count, dtype=np.int64)
    lon_u = np.empty(int(count.sum()))
    center = np.empty(len(count))
    flat_off = np.cumsum(count) - count
    size_class = np.ceil(np.log2(np.maximum(count, 1))).astype(np.int64)
    for c in np.unique(size_class):
        rows = np.flatnonzero(size_class == c)
        cnt = count[rows]
        mask = np.arange(int(cnt.max()))[None, :] < cnt[:, None]
        _, idx = slice_index(start[rows], cnt)
        lons = np.zeros(mask.shape)
        lons[mask] = geodesy.reduce_deg(xs[idx])
        deltas = geodesy.reduce_deg(np.diff(lons, axis=1))
        u = np.empty(mask.shape)
        u[:, 0] = lons[:, 0]
        u[:, 1:] = lons[:, :1] + np.cumsum(deltas, axis=1)
        _, out = slice_index(flat_off[rows], cnt)
        lon_u[out] = u[mask]
        center[rows] = 0.5 * (np.where(mask, u, np.inf).min(axis=1)
                              + np.where(mask, u, -np.inf).max(axis=1))
    return lon_u, center


def _group_chunks(size, group, limit):
    """Entry bounds ``[0, ..., n]`` cutting entries into chunks of whole
    groups (runs of equal ``group``) whose ``size`` sums to at most
    ``limit``; a group larger than ``limit`` is a chunk of its own."""
    n = len(size)
    ends = np.append(np.flatnonzero(group[1:] != group[:-1]) + 1, n)
    cum = np.concatenate([[0], np.cumsum(size)])
    end_cum = cum[ends]
    bounds = [0]
    while bounds[-1] < n:
        s = bounds[-1]
        k = int(np.searchsorted(end_cum, cum[s] + limit, side="right")) - 1
        if k < 0 or ends[k] <= s:  # the group starting at s alone
            k = int(np.searchsorted(ends, s, side="right"))
        bounds.append(int(ends[k]))
    return np.asarray(bounds, dtype=np.int64)


def winding_number_pairs(px, py, verts, start, count, group):
    """Winding numbers of many (point, ring) entries in one pass.

    Entry k is the point (px[k], py[k]) against the implicitly-closed ring
    ``verts[start[k] : start[k] + count[k]]`` of the (V, 2) vertex array
    ``verts``. Same crossing rule and floating-point operations as
    :func:`winding_number`, edge i running from vertex i to the next
    vertex of its ring. The (entry, edge) elements are processed in chunks
    of at most ``_RING_CHUNK_ELEMS`` with buffers reused across chunks; a
    chunk never splits a run of entries with equal ``group`` (the rings of
    one candidate pair) unless that run alone exceeds the bound.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    count = np.asarray(count, dtype=np.int64)
    out = np.zeros(len(px), dtype=np.int64)
    ent = np.flatnonzero(count > 0)   # an edgeless ring winds 0 times
    if len(ent) == 0:
        return out
    cnt, st = count[ent], np.asarray(start, dtype=np.int64)[ent]
    pxe, pye = px[ent], py[ent]
    bounds = _group_chunks(cnt, np.asarray(group)[ent], _RING_CHUNK_ELEMS)
    cum = np.concatenate([[0], np.cumsum(cnt)])
    m_max = int(np.max(cum[bounds[1:]] - cum[bounds[:-1]]))
    # x of vertex v at flat[2v], y at flat[2v + 1] (= flat_y[2v]): gathers
    # from contiguous arrays, no per-edge table
    flat = np.ascontiguousarray(verts, dtype=np.float64).reshape(-1)
    flat_y = flat[1:]
    ramp = np.arange(0, 2 * m_max, 2, dtype=np.intp)
    e_buf = np.empty(m_max, dtype=np.intp)   # chunk entry of an element
    i_buf = np.empty(m_max, dtype=np.intp)   # 2 x its edge's first vertex
    j_buf = np.empty(m_max, dtype=np.intp)   # 2 x its edge's second vertex
    f1, f2, f3, f4 = (np.empty(m_max) for _ in range(4))
    bu, bd, bt = (np.empty(m_max, dtype=bool) for _ in range(3))
    for a, b in zip(bounds[:-1], bounds[1:]):
        m = int(cum[b] - cum[a])
        loc = cum[a:b] - cum[a]
        e, i, j = e_buf[:m], i_buf[:m], j_buf[:m]
        v1, v2, v3, v4 = f1[:m], f2[:m], f3[:m], f4[:m]
        vu, vd, vt = bu[:m], bd[:m], bt[:m]
        e[:] = 0
        e[loc[1:]] = 1
        np.cumsum(e, out=e)
        np.take(2 * (st[a:b] - loc), e, out=i, mode="clip")
        i += ramp[:m]
        np.add(i, 2, out=j)
        j[np.append(loc[1:], m) - 1] = 2 * st[a:b]   # closing edges
        np.take(pye[a:b], e, out=v1, mode="clip")     # py
        np.take(flat_y, j, out=v2, mode="clip")       # y1
        np.less(v1, v2, out=vt)
        np.greater_equal(v1, v2, out=vd)
        np.take(flat_y, i, out=v3, mode="clip")       # y0
        np.less_equal(v3, v1, out=vu)
        vu &= vt                                      # y0 <= py < y1
        np.greater(v3, v1, out=vt)
        vd &= vt                                      # y0 > py >= y1
        v2 -= v3                                      # dy
        v1 -= v3                                      # py - y0
        np.take(flat, j, out=v3, mode="clip")         # x1
        np.take(flat, i, out=v4, mode="clip")         # x0
        v3 -= v4                                      # dx
        v1 *= v3
        np.take(pxe[a:b], e, out=v3, mode="clip")     # px
        v3 -= v4
        v3 *= v2
        v1 -= v3                                      # isleft
        np.greater(v1, 0.0, out=vt)
        vu &= vt
        np.less(v1, 0.0, out=vt)
        vd &= vt
        step = vt.view(np.int8)
        np.subtract(vu.view(np.int8), vd.view(np.int8), out=step)
        out[ent[a:b]] = np.add.reduceat(step, loc, dtype=np.int64)
    return out


def ring_is_clockwise(ring):
    """Shoelace-sign orientation (karta/vector/geometry.py:1044-1048),
    summed over the closed segment cycle."""
    ring = np.asarray(ring, dtype=np.float64)
    x0 = np.roll(ring[:, 0], 1)
    y0 = np.roll(ring[:, 1], 1)
    s = ((ring[:, 0] - x0) * (ring[:, 1] + y0)).sum()
    return bool(s > 0)


# ---------------------------------------------------------------------------
# Crossing-number variant (intersection.pyx:624-674)
# ---------------------------------------------------------------------------

def count_crossings(px, py, coords, ring=False):
    """Number of upward ray crossings from each point against a vertex
    chain, replicating intersects_cn (intersection.pyx:641-674) including
    its slope-sign-dependent half-open interval rules."""
    px = np.asarray(px, dtype=np.float64)[:, None]
    py = np.asarray(py, dtype=np.float64)[:, None]
    coords = np.asarray(coords, dtype=np.float64)
    n = len(coords)
    # reference loops i in 1..n-1 over (v[i-1], v[i]) pairs; for rings n
    # stays (closure via wrapped indexing covers the closing edge).
    if ring:
        x0 = coords[:, 0][None, :]
        y0 = coords[:, 1][None, :]
        x1 = np.roll(coords[:, 0], -1)[None, :]
        y1 = np.roll(coords[:, 1], -1)[None, :]
    else:
        x0 = coords[:-1, 0][None, :]
        y0 = coords[:-1, 1][None, :]
        x1 = coords[1:, 0][None, :]
        y1 = coords[1:, 1][None, :]

    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(x0 != x1, (y1 - y0) / np.where(x0 == x1, 1.0, x1 - x0), np.nan)
        y = y0 + m * (px - x0)
    nonvert = x0 != x1
    above = y >= py

    lo = np.minimum(y0, y1)
    hi = np.maximum(y0, y1)
    incr = (lo < y) & (y <= hi)   # (min, max]
    incl = (lo <= y) & (y < hi)   # [min, max)
    horiz = (np.abs(y0 - y1) < 1e-15) & (np.abs(y - y0) < 1e-15)
    iswithiny = np.where(m > 0.0, incr, incl) | horiz

    xlo = np.minimum(x0, x1)
    xhi = np.maximum(x0, x1)
    iswithinx = (xlo < px) & (px <= xhi)

    hits = nonvert & above & iswithiny & iswithinx
    return hits.sum(axis=1)


# ---------------------------------------------------------------------------
# bboxes
# ---------------------------------------------------------------------------

def bbox_planar(coords):
    """(xmin, ymin, xmax, ymax) of an (n, 2+) vertex array
    (vectorgeo.pyx:108-129)."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.size == 0:
        return (np.nan, np.nan, np.nan, np.nan)
    return (coords[:, 0].min(), coords[:, 1].min(),
            coords[:, 0].max(), coords[:, 1].max())


def bboxes_overlap(bb0, bb1):
    """Planar bbox overlap where touching edges count
    (intersection.pyx:21-39: zero-width overlap is promoted to 1)."""
    dx = min(bb0[2], bb1[2]) - max(bb0[0], bb1[0])
    dy = min(bb0[3], bb1[3]) - max(bb0[1], bb1[1])
    if dx == 0.0:
        dx = 1.0
    elif dx < 0.0:
        dx = 0.0
    if dy == 0.0:
        dy = 1.0
    elif dy < 0.0:
        dy = 0.0
    return dx * dy != 0.0


def bboxes_overlap_vec(bb0, xmin, ymin, xmax, ymax):
    """One bbox vs arrays of bboxes, same touching-counts rule."""
    dx = np.minimum(bb0[2], xmax) - np.maximum(bb0[0], xmin)
    dy = np.minimum(bb0[3], ymax) - np.maximum(bb0[1], ymin)
    dx = np.where(dx == 0.0, 1.0, np.maximum(dx, 0.0))
    dy = np.where(dy == 0.0, 1.0, np.maximum(dy, 0.0))
    return dx * dy != 0.0


def crosses_dateline(x0, x1):
    """-1 west-to-east crossing, +1 east-to-west, 0 none
    (dateline.pyx:5-17). Longitudes in [-180, 180)."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    s0 = np.where(x0 == 0.0, 1.0, np.sign(x0))
    s1 = np.where(x1 == 0.0, 1.0, np.sign(x1))
    crossing = (s0 != s1) & (np.abs(x0 - x1) > 180.0)
    return np.where(crossing, np.where(x1 - x0 > 180.0, 1, -1), 0)


def _bndlat_sph(x0, y0, x1, y1):
    """Bounding latitudes of great-circle segments (vectorgeo.pyx:64-106).

    Vectorized; returns (ymin, ymax, degenerate_mask).
    """
    d2r = np.pi / 180.0
    x0, y0, x1, y1 = (np.asarray(v, dtype=np.float64) for v in (x0, y0, x1, y1))
    s0 = np.where(y0 == 0.0, 1.0, np.sign(y0))
    s1 = np.where(y1 == 0.0, 1.0, np.sign(y1))
    dlam = (x1 - x0) * d2r
    phi0 = y0 * d2r
    phi1 = y1 * d2r

    sin0, cos0, sin1, cos1 = np.sin(phi0), np.cos(phi0), np.sin(phi1), np.cos(phi1)
    faz = np.arctan2(np.sin(dlam) * cos1,
                     cos0 * sin1 - sin0 * cos1 * np.cos(dlam))
    baz = np.arctan2(np.sin(-dlam) * cos0,
                     cos1 * sin0 - sin1 * cos0 * np.cos(-dlam))

    degenerate = (dlam == 0.0) & (phi0 == phi1)
    simple = (dlam == 0.0) | (s0 != s1)

    two_pi = 2.0 * np.pi
    faz_up = np.abs((faz + np.pi) % two_pi - np.pi) < 0.5 * np.pi
    baz_up = np.abs((baz + np.pi) % two_pi - np.pi) < 0.5 * np.pi
    apex = np.degrees(np.arccos(np.clip(np.abs(np.sin(faz) * cos0), -1.0, 1.0)))

    north = s0 == 1
    ymin_n = np.degrees(np.minimum(phi0, phi1))
    ymax_s = np.degrees(np.maximum(phi0, phi1))
    ymax_n = np.where(faz_up & baz_up, apex, ymax_s)
    ymin_s = np.where(~faz_up & ~baz_up, -apex, ymin_n)

    ymin = np.where(simple, np.minimum(y0, y1), np.where(north, ymin_n, ymin_s))
    ymax = np.where(simple, np.maximum(y0, y1), np.where(north, ymax_n, ymax_s))
    return ymin, ymax, degenerate


def bbox_geographical(coords, ring=False):
    """Dateline-aware bbox for geographical vertex chains
    (dateline.pyx:19-61). Returns (xmin, ymin, xmax, ymax) where
    xmin > xmax encodes a dateline-crossing extent.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = len(coords)
    if n == 0:
        return (np.nan, np.nan, np.nan, np.nan)
    xs = coords[:, 0]
    ys = coords[:, 1]
    # The reference iterates segments (prev, cur) starting from the
    # degenerate (v0, v0), covering the closing edge for rings: pair
    # shifted copies of the vertex list accordingly.
    if ring:
        px = np.concatenate([xs[:1], xs])
        py = np.concatenate([ys[:1], ys])
        cx = np.concatenate([xs[:1], xs[1:], xs[:1]])
        cy = np.concatenate([ys[:1], ys[1:], ys[:1]])
    else:
        px = np.concatenate([xs[:1], xs[:-1]])
        py = np.concatenate([ys[:1], ys[:-1]])
        cx = xs
        cy = ys

    segymin, segymax, degen = _bndlat_sph(px, py, cx, cy)
    valid = ~degen
    if valid.any():
        ymin = min(ys[0], segymin[valid].min())
        ymax = max(ys[0], segymax[valid].max())
    else:
        ymin = ys[0]
        ymax = ys[0]

    # longitude scan with rotation accumulator (sequential by nature, but
    # cheap: one pass over vertices, done once per polygon at prep time)
    xdl = crosses_dateline(px, cx)
    xmin = xmax = xs[0]
    rot = 0.0
    for i in range(len(cx)):
        if xdl[i] != 0:
            rot -= xdl[i] * 360.0
            xmin = min(xmin, cx[i] + rot)
            xmax = max(xmax, cx[i] + rot)
        else:
            if px[i] > cx[i]:
                xmin = min(xmin, cx[i])
            else:
                xmax = max(xmax, cx[i])
    xmin = (xmin + 180.0) % 360.0 - 180.0
    xmax = (xmax + 180.0) % 360.0 - 180.0
    return (xmin, ymin, xmax, ymax)


# ---------------------------------------------------------------------------
# Segment intersections
# ---------------------------------------------------------------------------

def segment_intersection_planar(x0, y0, x1, y1, x2, y2, x3, y3):
    """Pairwise planar segment intersection (intersection.pyx:606-622):
    param-form solve with the half-open ``(0 < t <= 1) and (0 < u <= 1)``
    hit rule; parallel (rxs == 0) pairs never hit. NaN where no hit."""
    x0, y0, x1, y1, x2, y2, x3, y3 = (
        np.asarray(v, dtype=np.float64) for v in (x0, y0, x1, y1, x2, y2, x3, y3))
    rx = x1 - x0
    ry = y1 - y0
    sx = x3 - x2
    sy = y3 - y2
    rxs = rx * sy - ry * sx
    with np.errstate(divide="ignore", invalid="ignore"):
        qpx = x2 - x0
        qpy = y2 - y0
        t = (qpx * sy - qpy * sx) / rxs
        u = (qpx * ry - qpy * rx) / rxs
        hit = (rxs != 0) & (t > 0) & (t <= 1) & (u > 0) & (u <= 1)
        xi = np.where(hit, x0 + t * rx, np.nan)
        yi = np.where(hit, y0 + t * ry, np.nan)
    return xi, yi


def _segments(coords, ring):
    coords = np.asarray(coords, dtype=np.float64)
    if ring:
        nxt = np.roll(coords, -1, axis=0)
        return coords[:, 0], coords[:, 1], nxt[:, 0], nxt[:, 1]
    return (coords[:-1, 0], coords[:-1, 1], coords[1:, 0], coords[1:, 1])


def _collinear_overlap(x0, y0, x1, y1, x2, y2, x3, y3):
    """Vectorized iscollinear (intersection.pyx:529-541): parallel AND
    collinear AND overlapping in x (or y for vertical)."""
    rxs = (x1 - x0) * (y3 - y2) - (y1 - y0) * (x3 - x2)
    rxt = (x1 - x0) * (y3 - y0) - (y1 - y0) * (x3 - x0)

    def overlaps(a0, a1, b0, b1):
        return (((a0 <= b0) & (b0 <= a1)) | ((a0 <= b1) & (b1 <= a1))
                | ((b0 <= a0) & (a0 <= b1)) | ((b0 <= a1) & (a1 <= b1)))

    ox = overlaps(np.minimum(x0, x1), np.maximum(x0, x1),
                  np.minimum(x2, x3), np.maximum(x2, x3))
    oy = overlaps(np.minimum(y0, y1), np.maximum(y0, y1),
                  np.minimum(y2, y3), np.maximum(y2, y3))
    return (rxs == 0) & (rxt == 0) & np.where(x1 - x0 != 0, ox, oy)


def intersects_planar(coords_a, coords_b, ring_a=False, ring_b=False):
    """Whether two planar vertex chains intersect: brute-force vectorized
    pairwise test equivalent to the reference's Shamos-Hoey detection
    (intersection.pyx:193-340; sweep-line is a same-answer optimization),
    including the collinear-overlap rule of _intersects
    (intersection.pyx:500-513)."""
    ax0, ay0, ax1, ay1 = _segments(coords_a, ring_a)
    bx0, by0, bx1, by1 = _segments(coords_b, ring_b)
    A0x = ax0[:, None]; A0y = ay0[:, None]; A1x = ax1[:, None]; A1y = ay1[:, None]
    B0x = bx0[None, :]; B0y = by0[None, :]; B1x = bx1[None, :]; B1y = by1[None, :]
    xi, _ = segment_intersection_planar(A0x, A0y, A1x, A1y, B0x, B0y, B1x, B1y)
    if np.any(~np.isnan(xi)):
        return True
    return bool(np.any(_collinear_overlap(A0x, A0y, A1x, A1y, B0x, B0y, B1x, B1y)))


def intersections_planar(coords_a, coords_b, ring_a=False, ring_b=False):
    """All planar intersection points (geometry.py:698-723 brute force
    all_intersections, intersection.pyx:41-68). Returns (n, 2) array
    including duplicates (caller dedups)."""
    ax0, ay0, ax1, ay1 = _segments(coords_a, ring_a)
    bx0, by0, bx1, by1 = _segments(coords_b, ring_b)
    xi, yi = segment_intersection_planar(
        ax0[:, None], ay0[:, None], ax1[:, None], ay1[:, None],
        bx0[None, :], by0[None, :], bx1[None, :], by1[None, :])
    m = ~np.isnan(xi)
    return np.column_stack([xi[m], yi[m]])


def intersects_sph(coords_a, coords_b, ring_a=False, ring_b=False):
    """Spherical intersects: longitude-normalized brute-force pairwise
    euler-pole test, equivalent to the reference's spherical sweep
    (intersection.pyx:342-498) incl. the meridian special case
    (intersection.pyx:566-584)."""
    coords_a = np.asarray(coords_a, dtype=np.float64).copy()
    coords_b = np.asarray(coords_b, dtype=np.float64).copy()
    coords_a[:, 0] = (coords_a[:, 0] + 180.0) % 360.0 - 180.0
    coords_b[:, 0] = (coords_b[:, 0] + 180.0) % 360.0 - 180.0
    ax0, ay0, ax1, ay1 = _segments(coords_a, ring_a)
    bx0, by0, bx1, by1 = _segments(coords_b, ring_b)

    A0x = ax0[:, None]; A0y = ay0[:, None]; A1x = ax1[:, None]; A1y = ay1[:, None]
    B0x = bx0[None, :]; B0y = by0[None, :]; B1x = bx1[None, :]; B1y = by1[None, :]

    xi, _ = geodesy.intersection_sph(A0x, A0y, A1x, A1y, B0x, B0y, B1x, B1y)
    hit = ~np.isnan(xi)

    # meridian special case: a vertical segment vs the other geometry's
    # great circles (intersection_meridian)
    for (vx0, vy0, vx1, vy1, ox0, oy0, ox1, oy1) in (
            (ax0, ay0, ax1, ay1, bx0, by0, bx1, by1),
            (bx0, by0, bx1, by1, ax0, ay0, ax1, ay1)):
        vert = vx0 == vx1
        if not vert.any():
            continue
        for i in np.nonzero(vert)[0]:
            ylo = min(vy0[i], vy1[i])
            yhi = max(vy0[i], vy1[i])
            ya = _intersection_meridian_vec(ox0, oy0, ox1, oy1, vx0[i])
            if np.any((~np.isnan(ya)) & (ylo <= ya) & (ya <= yhi)):
                return True
    return bool(hit.any())


def _intersection_meridian_vec(x0, y0, x1, y1, xm):
    """Latitude where great circles through segments cross meridian *xm*
    (intersection.pyx:566-584); NaN when outside the segment lon range."""
    px, py, pz = geodesy.eulerpole(x0, y0, x1, y1)
    # pole of the meridian plane at lon xm: (sin xm, -cos xm, 0)
    mx = np.sin(np.pi * xm / 180.0)
    my = -np.cos(np.pi * xm / 180.0)
    # cross((px, py, pz), (mx, my, 0))
    cx = -pz * my
    cy = pz * mx
    cz = px * my - py * mx
    lon, lat = geodesy.cart2sph_raw(cx, cy, cz)
    lon = (lon + 180.0) % 360.0 - 180.0
    lat = (lat + 90.0) % 180.0 - 90.0
    anti_lon = (lon + 360.0) % 360.0 - 180.0
    inseg = _between_inc(x0, lon, x1)
    inseg_a = _between_inc(x0, anti_lon, x1)
    return np.where(inseg, lat, np.where(inseg_a, -lat, np.nan))


def _between_inc(a, b, c):
    return (np.minimum(a, c) <= b) & (b <= np.maximum(a, c))
