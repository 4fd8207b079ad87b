"""The vectorized PIP prep and exact test against per-polygon references.

- ``RingTable.contains`` (all candidate pairs at once) equals
  ``PolygonSet.contains`` run polygon by polygon;
- the CSR cell cover equals a per-polygon loop over
  ``tiles.cells_covering_bbox`` of each polygon's prefilter box (the
  planar outer-ring extent, the great-circle ``bbox`` for polar and
  dateline rings) plus the polar-row rule;
- batched ``bbox`` / ``is_polar`` equal the per-ring
  ``predicates.bbox_geographical(ring=True)`` / ``ring_is_polar``, and
  building and prepping a layer of plain rings never computes ``bbox``;
- ``pip_join`` and ``pip_join_strtree`` equal ``PolygonSet.contains`` on
  plain rings whose great-circle edges bulge past their vertices;
- ``BoxTree``, ``rings_of``, ``to_arrow`` and ``PolyJoiner``'s modes equal
  their per-polygon formulations;
- chunking of the pair kernel never changes a result or splits a pair.
"""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karta_ray.geoms import PolygonSet, RingTable
from karta_ray.kernels import predicates, tiles
from karta_ray.stages import join as J
from karta_ray.state.strtree import STRtree

# the two rings of the known-defect tests in perfbench/test_perfbench.py
DATELINE_8 = np.array([(178.0, 10.0), (179.0, 10.1), (-179.0, 10.0), (-178.0, 10.0),
                       (-178.0, 12.0), (-179.0, 12.1), (179.0, 12.0), (178.0, 12.0)])
SOUTH_POLAR = np.column_stack([np.linspace(-180.0, 180.0, 65)[:-1], np.full(64, -75.0)])

KINDS = ["star", "holed", "dateline", "dateline_8", "polar_sph", "polar_wgs",
         "south_polar", "cartesian"]

# Karney's inverse (lonlat_wgs84 polar rings) does not converge for some
# point/vertex pairs on opposite sides of the pole; keep points below 74°N
# and polar rings below 68°N, clear of that region.
MAX_LAT = 74.0


def _star(rng, cx, cy, r, nv, rmin=0.5):
    theta = np.sort(rng.uniform(0.0, 2 * np.pi, nv))
    rad = r * rng.uniform(rmin, 1.0, nv)
    return np.column_stack([cx + rad * np.cos(theta) / np.cos(np.radians(cy)),
                            cy + rad * np.sin(theta)])


def _polygon(rng, kind, pid):
    crs = "lonlat_wgs84"
    if kind in ("star", "holed", "cartesian"):
        cy = rng.uniform(-60.0, 65.0)
        r = rng.uniform(0.5, 8.0)
        cx = rng.uniform(-170.0, 170.0)
        rings = [_star(rng, cx, cy, r, int(rng.randint(3, 40)))]
        if kind == "holed":
            rings.append(_star(rng, cx, cy, 0.4 * r, int(rng.randint(3, 12)), rmin=0.3))
        if kind == "cartesian":
            crs = "cartesian"
            rings.append(_star(rng, cx, cy, 0.3 * r, 5, rmin=0.3))
    elif kind == "dateline":
        x0, x1 = rng.uniform(176.0, 179.5), rng.uniform(-179.5, -176.0)
        y0 = rng.uniform(-50.0, 60.0)
        y1 = y0 + rng.uniform(1.0, 6.0)
        rings = [np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])]
    elif kind == "dateline_8":
        rings = [DATELINE_8 + [0.0, rng.uniform(-20.0, 20.0)]]
    elif kind in ("polar_sph", "polar_wgs"):
        nv = int(rng.randint(4, 16 if kind == "polar_wgs" else 64))
        lons = np.sort(rng.uniform(-180.0, 180.0, nv))
        if rng.rand() < 0.5:
            lons = lons[::-1]          # wound westward
        lats = rng.uniform(60.0, 68.0) + rng.uniform(-1.5, 1.5, nv)
        rings = [np.column_stack([lons, lats])]
        crs = "spherical" if kind == "polar_sph" else "lonlat_wgs84"
    else:  # south_polar
        rings = [SOUTH_POLAR]
        crs = "spherical"
    return {"poly_id": pid, "name": f"{kind}_{pid}", "crs": crs, "rings": rings}


def _layer(seed, kinds):
    rng = np.random.RandomState(seed)
    return PolygonSet.from_rings([_polygon(rng, k, 100 + i) for i, k in enumerate(kinds)])


def _points(seed, ps, n_uniform=300, n_near=40):
    """Uniform points plus points around each polygon's vertices and some
    exactly on them (edge cases of the crossing rule), and a NaN."""
    rng = np.random.RandomState(seed + 1)
    lon = [rng.uniform(-180.0, 180.0, n_uniform)]
    lat = [rng.uniform(-85.0, MAX_LAT, n_uniform)]
    for ip in range(len(ps)):
        v = np.concatenate(ps.rings_of(ip))
        k = rng.randint(0, len(v), n_near)
        lon.append(v[k, 0] + rng.normal(0.0, 0.7, n_near))
        lat.append(v[k, 1] + rng.normal(0.0, 0.7, n_near))
        lon.append(v[k[:3], 0])
        lat.append(v[k[:3], 1])
    geo_lon = (np.concatenate(lon) + 180.0) % 360.0 - 180.0
    lat = np.clip(np.concatenate(lat), -89.0, MAX_LAT)
    return np.append(geo_lon, np.nan), np.append(lat, 10.0)


def _pairs_reference(ps, px, py, pt, poly):
    """PolygonSet.contains per polygon over its pairs, in pair order."""
    want = np.zeros(len(pt), dtype=bool)
    for ip in np.unique(poly):
        m = poly == ip
        want[m] = ps.contains(px[pt[m]], py[pt[m]], int(ip))
    return want


layer_st = st.tuples(st.integers(0, 2**31 - 1),
                     st.lists(st.sampled_from(KINDS), min_size=1, max_size=8))


@settings(max_examples=40, deadline=None)
@given(layer_st)
def test_pair_kernel_equals_contains_per_polygon(layer):
    seed, kinds = layer
    ps = _layer(seed, kinds)
    px, py = _points(seed, ps)
    rng = np.random.RandomState(seed + 2)
    # every (point, polygon) pair, shuffled, with some pairs repeated
    pt, poly = (a.ravel() for a in np.meshgrid(np.arange(len(px)), np.arange(len(ps))))
    o = rng.permutation(len(pt))
    o = np.concatenate([o, o[: len(o) // 10]])
    pt, poly = pt[o], poly[o]
    # Karney's inverse fails to converge for near-antipodal pairs: test
    # lonlat_wgs84 polar rings against points north of 50°N only (their
    # cell cover never offers them others)
    wgs_polar = ps.is_polar & (np.asarray(ps.crs) == "lonlat_wgs84")
    keep = ~wgs_polar[poly] | (py[pt] > 50.0)
    pt, poly = pt[keep], poly[keep]
    got = RingTable(ps).contains(px[pt], py[pt], poly)
    np.testing.assert_array_equal(got, _pairs_reference(ps, px, py, pt, poly))


def _reference_box(ps, ip):
    """Polygon ip's prefilter box: the planar extent of a plain outer
    ring (what its planar winding test can accept), the great-circle
    ``bbox`` of a polar or dateline one."""
    outer = ps.rings_of(ip)[0]
    if ps.crs[ip] != "cartesian" and (predicates.ring_is_polar(outer)
                                      or predicates.ring_crosses_dateline(outer)):
        return ps.bbox[ip]
    return predicates.bbox_planar(outer)


def _reference_cover(ps, zoom):
    """The per-polygon cover loop: cells_covering_bbox of the polygon's
    prefilter box, or every x at the rows between the pole and the
    ring's low-latitude edge."""
    cover = {}
    n = 1 << zoom
    for ip in range(len(ps)):
        xmin, ymin, xmax, ymax = _reference_box(ps, ip)
        if ps.is_polar[ip]:
            if ps.rings_of(ip)[0][:, 1].mean() > 0:
                _, ybot = tiles.tile_xy(0.0, max(ymin, -tiles.MERCATOR_LAT_MAX), zoom)
                rows = range(0, min(int(ybot), n - 1) + 1)
            else:
                _, ytop = tiles.tile_xy(0.0, min(ymax, tiles.MERCATOR_LAT_MAX), zoom)
                rows = range(max(int(ytop), 0), n)
            cells = [tiles.pack_cell(np.int64(zoom), np.int64(x), np.int64(y))
                     for y in rows for x in range(n)]
        else:
            cells = tiles.cells_covering_bbox(xmin, ymin, xmax, ymax, zoom)
        for c in np.asarray(cells).ravel():
            cover.setdefault(int(c), []).append(ip)
    return cover


@settings(max_examples=40, deadline=None)
@given(layer_st, st.integers(0, 8))
def test_csr_cover_equals_per_polygon_loop(layer, zoom):
    ps = _layer(*layer)
    want = _reference_cover(ps, zoom)
    got = ps.cell_cover(zoom)
    assert sorted(got) == sorted(want)
    assert all(got[c].dtype == np.int64 and got[c].tolist() == want[c] for c in want)
    cc = J.CellCover(ps, zoom)
    np.testing.assert_array_equal(cc.cells, sorted(want))
    np.testing.assert_array_equal(np.diff(cc.off), [len(want[c]) for c in sorted(want)])
    np.testing.assert_array_equal(cc.flat, np.concatenate(
        [want[c] for c in sorted(want)]) if want else [])


def _check_bbox_and_polar(ps):
    for ip in range(len(ps)):
        outer = ps.rings_of(ip)[0]
        if ps.crs[ip] == "cartesian":
            want, polar = predicates.bbox_planar(outer), False
        else:
            want = predicates.bbox_geographical(outer, ring=True)
            polar = predicates.ring_is_polar(outer)
        np.testing.assert_array_equal(ps.bbox[ip], np.asarray(want, dtype=np.float64))
        assert ps.is_polar[ip] == polar


@settings(max_examples=40, deadline=None)
@given(layer_st)
def test_batched_bbox_and_polar_equal_per_ring(layer):
    _check_bbox_and_polar(_layer(*layer))


def test_batched_bbox_and_polar_on_known_defect_rings():
    ps = PolygonSet.from_rings([
        {"poly_id": 1, "rings": [DATELINE_8]},
        {"poly_id": 2, "crs": "spherical", "rings": [SOUTH_POLAR]},
        {"poly_id": 3, "rings": [np.array([(5.0, 5.0)])]},   # one vertex
    ])
    _check_bbox_and_polar(ps)
    # the narrowed dateline bbox of the known defect, reproduced as is
    assert ps.bbox[0, 0] == ps.bbox[0, 2] == -179.0
    assert ps.is_polar.tolist() == [False, True, False]


def _reference_boxes(ps):
    boxes, owner = [], []
    for ip in range(len(ps)):
        xmin, ymin, xmax, ymax = _reference_box(ps, ip)
        if ps.is_polar[ip]:
            if ps.rings_of(ip)[0][:, 1].mean() > 0:
                boxes.append((-180.0, ymin, 180.0, 90.0))
            else:
                boxes.append((-180.0, -90.0, 180.0, ymax))
            owner.append(ip)
        elif xmin > xmax:
            boxes += [(xmin, ymin, 180.0, ymax), (-180.0, ymin, xmax, ymax)]
            owner += [ip, ip]
        else:
            boxes.append((xmin, ymin, xmax, ymax))
            owner.append(ip)
    return np.asarray(boxes, dtype=np.float64), np.asarray(owner, dtype=np.int64)


@settings(max_examples=30, deadline=None)
@given(layer_st)
def test_boxtree_rings_of_and_arrow_equal_per_polygon(layer):
    ps = _layer(*layer)
    boxes, owner = _reference_boxes(ps)
    bt = J.BoxTree(ps)
    np.testing.assert_array_equal(bt.box_owner, owner)
    ref = STRtree(boxes)
    np.testing.assert_array_equal(bt.tree.order, ref.order)
    np.testing.assert_array_equal(bt.tree.leaf_boxes, ref.leaf_boxes)

    for ip in range(len(ps)):
        want = [ps.verts[ps.ring_off[r]:ps.ring_off[r + 1]]
                for r in np.nonzero(ps.ring_poly == ip)[0]]
        got = ps.rings_of(ip)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    rings = ps.to_arrow().column("rings").to_pylist()
    assert rings == [[r.tolist() for r in ps.rings_of(ip)] for ip in range(len(ps))]


def _joiner_reference(ps, prefilter, batch, mode):
    """The per-candidate-polygon exact-test loop and output building."""
    lon = batch.column("lon").to_numpy()
    lat = batch.column("lat").to_numpy()
    pt_idx, poly_idx = prefilter.candidates(batch, lon, lat)
    pts, pls = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for ip in np.unique(poly_idx):
        idx = pt_idx[poly_idx == ip]
        m = ps.contains(lon[idx], lat[idx], int(ip))
        pts.append(idx[m])
        pls.append(np.full(int(m.sum()), ip, dtype=np.int64))
    pts, pls = np.concatenate(pts), np.concatenate(pls)
    if mode == "semi":
        return batch.take(pa.array(np.unique(pts), pa.int64()))
    if mode == "tag":
        tag = np.full(batch.num_rows, -1, dtype=np.int64)
        for ip in sorted(set(pls.tolist()), reverse=True):
            tag[pts[pls == ip]] = ps.poly_id[ip]
        return batch.append_column("poly_id", pa.array(tag, pa.int64()))
    o = np.lexsort((pls, pts))
    out = batch.take(pa.array(pts[o], pa.int64()))
    out = out.append_column("poly_id", pa.array(ps.poly_id[pls[o]], pa.int64()))
    return out.append_column("poly_name", pa.array(
        [ps.name[i] for i in pls[o]], pa.string()))


@pytest.mark.parametrize("mode", ["inner", "semi", "tag"])
@pytest.mark.parametrize("prefilter", ["cell", "str"])
def test_joiner_modes_equal_per_polygon_loop(mode, prefilter):
    kinds = ["star", "holed", "dateline", "polar_sph", "star", "holed",
             "dateline_8", "cartesian"] * 4
    ps = _layer(5, kinds)
    lon, lat = _points(5, ps)
    batch = pa.table({"lon": lon, "lat": lat, "cell_id": tiles.cell_id(lon, lat, 7)})
    pre = J.CellCover(ps, 7) if prefilter == "cell" else J.BoxTree(ps)
    got = J.PolyJoiner({"polys": ps, "prefilter": pre, "rings": RingTable(ps)},
                       mode=mode)(batch)
    want = _joiner_reference(ps, pre, batch, mode)
    assert got.schema == want.schema and got.num_rows == want.num_rows
    for c in got.column_names:
        np.testing.assert_array_equal(got.column(c).to_numpy(zero_copy_only=False),
                                      want.column(c).to_numpy(zero_copy_only=False))
    if mode == "tag":
        assert (got.column("poly_id").to_numpy() >= 0).sum() > 50


def test_plain_layer_prep_never_computes_bbox(monkeypatch, ray_session):
    rng = np.random.RandomState(3)
    polys = []
    for pid in range(12):
        cx, cy = rng.uniform(-150.0, 150.0), rng.uniform(-60.0, 60.0)
        rings = [_star(rng, cx, cy, 5.0, 24), _star(rng, cx, cy, 1.0, 6, rmin=0.3)]
        polys.append({"poly_id": pid, "crs": "cartesian" if pid % 4 == 0
                      else "lonlat_wgs84", "rings": rings[:1 + pid % 2]})
    calls = []
    real = predicates.bbox_geographical_rings

    def counted(*args):
        calls.append(len(args[2]))
        return real(*args)

    monkeypatch.setattr(predicates, "bbox_geographical_rings", counted)
    ps = PolygonSet.from_rings(polys)
    assert not ps.ring_polar.any() and not ps.ring_dateline.any()
    lon, lat = _points(3, ps)
    batch = pa.table({"lon": lon, "lat": lat, "cell_id": tiles.cell_id(lon, lat, 7)})
    for ref in (J.prep_polygons(ps, 7), J.prep_polygons_strtree(ps)):
        assert J.PolyJoiner(ref, with_name=False)(batch).num_rows > 0
    assert calls == []

    bbox = ps.bbox   # first read: the great-circle boxes of the geo rings
    assert calls == [9]
    for ip in range(len(ps)):
        outer = ps.rings_of(ip)[0]
        want = (predicates.bbox_planar(outer) if ps.crs[ip] == "cartesian"
                else predicates.bbox_geographical(outer, ring=True))
        np.testing.assert_array_equal(bbox[ip], np.asarray(want, dtype=np.float64))


def _bulging_polygon(rng, pid):
    """A plain ring whose great-circle edges leave its planar extent: a
    wide band at 60-80° latitude (either hemisphere), a box with an edge
    on lon -180 or 180, or a ring reaching past the Mercator limit."""
    kind = pid % 3
    if kind == 0:
        x0 = rng.uniform(-175.0, 20.0)
        x1 = x0 + rng.uniform(60.0, min(150.0, 178.0 - x0))
        y0 = rng.uniform(60.0, 70.0)
        y1 = rng.uniform(y0 + 2.0, 80.0)
        ring = np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
        ring[:, 1] += rng.uniform(-1.0, 1.0, 4)
        if rng.rand() < 0.5:
            ring[:, 1] *= -1.0
            ring = ring[::-1]
    elif kind == 1:
        edge = rng.choice([-180.0, 180.0])
        w = rng.uniform(5.0, 120.0) * (1.0 if edge < 0 else -1.0)
        y0 = rng.uniform(-80.0, 70.0)
        y1 = y0 + rng.uniform(2.0, 15.0)
        ring = np.array([(edge, y0), (edge + w, y0), (edge + w, y1), (edge, y1)])
    else:
        x0 = rng.uniform(-170.0, 60.0)
        x1 = x0 + rng.uniform(10.0, 100.0)
        y0, y1 = rng.uniform(78.0, 84.0), rng.uniform(85.3, 89.5)
        ring = np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
        if rng.rand() < 0.5:
            ring[:, 1] *= -1.0
    return {"poly_id": 100 + pid, "crs": rng.choice(["lonlat_wgs84", "spherical"]),
            "rings": [ring]}


@pytest.mark.usefixtures("ray_session")
@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 7), st.integers(3, 9))
def test_pip_joins_equal_contains_on_bulging_rings(seed, n_polys, zoom):
    import ray.data

    rng = np.random.RandomState(seed)
    ps = PolygonSet.from_rings([_bulging_polygon(rng, i) for i in range(n_polys)])
    # uniform points, points in each ring's extent and in the latitude
    # band its great-circle edges bulge into, points on lon ±180 and past
    # the Mercator limit
    lon = [rng.uniform(-180.0, 180.0, 300), np.repeat([-180.0], 20)]
    lat = [rng.uniform(-90.0, 90.0, 300), rng.uniform(-89.0, 89.0, 20)]
    for ip in range(len(ps)):
        v = ps.rings_of(ip)[0]
        (x0, y0), (x1, y1) = v.min(axis=0), v.max(axis=0)
        lon.append(rng.uniform(x0, x1, 60))
        lat.append(rng.uniform(max(y0 - 5.0, -90.0), min(y1 + 5.0, 90.0), 60))
    lon = np.clip(np.concatenate(lon), -180.0, 180.0)
    lat = np.concatenate(lat)
    want = sorted((int(k), int(ps.poly_id[ip])) for ip in range(len(ps))
                  for k in np.flatnonzero(ps.contains(lon, lat, ip)))

    pts = pa.table({"pt": np.arange(len(lon)), "lon": lon, "lat": lat,
                    "cell_id": tiles.cell_id(lon, lat, zoom)})
    ds = ray.data.from_arrow([pts.slice(0, len(lon) // 2), pts.slice(len(lon) // 2)])
    for joined in (J.pip_join(ds, ps, zoom=zoom, with_name=False),
                   J.pip_join_strtree(ds, ps)):
        t = pa.concat_tables(ray.get(joined.to_arrow_refs()))
        assert sorted(zip(t.column("pt").to_pylist(),
                          t.column("poly_id").to_pylist())) == want
    # the bands' great-circle boxes reach past their planar extents
    wide = np.arange(len(ps)) % 3 == 0
    planar = np.array([predicates.bbox_planar(ps.rings_of(ip)[0])
                       for ip in range(len(ps))])
    bulge = np.maximum(ps.bbox[:, 3] - planar[:, 3], planar[:, 1] - ps.bbox[:, 1])
    assert (bulge[wide] > 0.0).all()


def test_ring_beyond_mercator_limit_is_covered(ray_session):
    """A ring lying wholly beyond 85.05° N covers the edge row that
    ``tiles.cell_id`` clamps its points into, so both joins keep what
    the exact test accepts."""
    import ray.data

    ps = PolygonSet.from_rings([{"poly_id": 3, "rings": [np.array(
        [(10.0, 86.0), (60.0, 86.0), (60.0, 88.0), (10.0, 88.0)])]}])
    assert ps.cell_cover(5)
    lon, lat = np.array([30.0, 30.0]), np.array([87.0, 80.0])
    assert ps.contains(lon, lat, 0).tolist() == [True, False]
    ds = ray.data.from_arrow(pa.table({
        "pt": np.arange(2), "lon": lon, "lat": lat,
        "cell_id": tiles.cell_id(lon, lat, 5)}))
    for joined in (J.pip_join(ds, ps, zoom=5, with_name=False),
                   J.pip_join_strtree(ds, ps)):
        t = pa.concat_tables(ray.get(joined.to_arrow_refs()))
        assert list(zip(t.column("pt").to_pylist(),
                        t.column("poly_id").to_pylist())) == [(0, 3)]


def test_benchmark_layer_covers_pinned():
    """The zoom-7 covers of perfbench's jagged layer (seed 7, 2,000
    polygons) and of the admin layer, as sha256 of their
    ``cover_arrays``: clamping boxes beyond the Mercator limit into the
    edge rows left them unchanged."""
    import hashlib

    from karta_ray import synth
    from perfbench import gen

    for ps, want in (
            (PolygonSet.from_rings(gen.jagged_polygons(7, 2000, 64)),
             "560cb059c3761a300df1e49fda264a5bbaced12d563acb4756ccf24ad972603b"),
            (synth.admin_polygons(seed=7),
             "f8da09b623cfc02671376f3cf182121c46ec32514af18bd44395f8aa7cf03076")):
        h = hashlib.sha256()
        for a in ps.cover_arrays(7):
            h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
        assert h.hexdigest() == want


# ---------------------------------------------------------------------------
# Chunking of the pair kernel
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 50), st.integers(1, 4)), min_size=1, max_size=60),
       st.integers(1, 120))
def test_group_chunks_keep_groups_whole_and_bounded(groups, limit):
    size = np.concatenate([np.full(n, s) for s, n in groups])
    group = np.repeat(np.arange(len(groups)), [n for _, n in groups])
    bounds = predicates._group_chunks(size, group, limit)
    starts = set(np.flatnonzero(np.diff(group, prepend=-1)).tolist()) | {len(size)}
    assert bounds[0] == 0 and bounds[-1] == len(size)
    assert np.all(np.diff(bounds) > 0)
    assert set(bounds.tolist()) <= starts          # never inside a group
    for a, b in zip(bounds[:-1], bounds[1:]):
        if len(np.unique(group[a:b])) > 1:         # several groups: bounded
            assert size[a:b].sum() <= limit


def test_chunked_pair_kernel_equals_unchunked(monkeypatch):
    rng = np.random.RandomState(9)
    polys = []
    for pid in range(60):
        cx, cy = rng.uniform(-170.0, 170.0), rng.uniform(-60.0, 60.0)
        rings = [_star(rng, cx, cy, 3.0, 64), _star(rng, cx, cy, 1.0, 16, rmin=0.3)]
        polys.append({"poly_id": pid, "rings": rings[:1 + pid % 2]})
    ps = PolygonSet.from_rings(polys)
    n = 40_000
    poly = rng.randint(0, len(ps), n)
    bb = ps.bbox[poly]
    px = rng.uniform(np.minimum(bb[:, 0], bb[:, 2]), np.maximum(bb[:, 0], bb[:, 2]))
    py = rng.uniform(bb[:, 1], bb[:, 3])
    table = RingTable(ps)
    r0 = ps.poly_ring_off[poly]
    elems = int((ps.ring_off[ps.poly_ring_off[poly + 1]] - ps.ring_off[r0]).sum())
    assert elems > 3 * predicates._CHUNK_ELEMS

    seen = []
    real = predicates._group_chunks

    def spy(size, group, limit):
        bounds = real(size, group, limit)
        seen.append(bounds)
        # a chunk boundary is never inside one pair's rings
        cut = bounds[1:-1]
        assert np.all(group[cut] != group[cut - 1])
        return bounds

    monkeypatch.setattr(predicates, "_group_chunks", spy)
    chunked = table.contains(px, py, poly)
    assert len(seen) == 1 and len(seen[0]) > 4
    monkeypatch.setattr(predicates, "_RING_CHUNK_ELEMS", 10**9)
    unchunked = table.contains(px, py, poly)
    assert len(seen) == 2 and len(seen[1]) == 2
    np.testing.assert_array_equal(chunked, unchunked)
    assert 0 < chunked.sum() < n
    np.testing.assert_array_equal(
        chunked, _pairs_reference(ps, px, py, np.arange(n), poly))
