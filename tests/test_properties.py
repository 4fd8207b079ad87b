"""Property-based tests (hypothesis) for the kernel layer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from karta_ray.kernels import geodesy, predicates, tiles

lon_st = st.floats(min_value=-180.0, max_value=179.999999,
                   allow_nan=False, allow_infinity=False)
lat_st = st.floats(min_value=-85.0, max_value=85.0,
                   allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(lon_st, lat_st, st.integers(min_value=0, max_value=20))
def test_tile_pack_roundtrip(lon, lat, z):
    x, y = tiles.tile_xy(lon, lat, z)
    cell = tiles.pack_cell(np.int64(z), x, y)
    z2, x2, y2 = tiles.unpack_cell(cell)
    assert (int(z2), int(x2), int(y2)) == (z, int(x), int(y))
    # the point lies inside its tile's bbox
    xmin, ymin, xmax, ymax = tiles.tile_bbox(np.int64(z), x, y)
    assert float(xmin) - 1e-9 <= lon <= float(xmax) + 1e-9
    assert float(ymin) - 1e-9 <= lat <= float(ymax) + 1e-9


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_reduce_deg_range(x):
    r = float(geodesy.reduce_deg(x))
    assert -180.0 <= r < 180.0
    # equivalence mod 360
    assert abs((x - r) % 360.0) < 1e-6 or abs((x - r) % 360.0 - 360.0) < 1e-6


@settings(max_examples=100, deadline=None)
@given(lon_st, lat_st, lon_st, lat_st)
def test_sphere_distance_symmetry(lon1, lat1, lon2, lat2):
    d1 = float(geodesy.sphere_distance(lon1, lat1, lon2, lat2))
    d2 = float(geodesy.sphere_distance(lon2, lat2, lon1, lat1))
    assert abs(d1 - d2) <= 1e-6 * max(d1, 1.0)
    assert d1 >= 0
    # no pair of surface points is farther than half the circumference
    assert d1 <= np.pi * geodesy.SPHERE_RADIUS * (1 + 1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=-100, max_value=100, allow_nan=False)),
    min_size=3, max_size=12, unique=True))
def test_winding_matches_naive(ring_pts):
    ring = np.asarray(ring_pts, dtype=np.float64)
    rng = np.random.RandomState(0)
    px = rng.uniform(-110, 110, 200)
    py = rng.uniform(-110, 110, 200)
    got = predicates.points_in_ring(px, py, ring)

    n = len(ring)
    wn = np.zeros(len(px), np.int64)
    for i in range(n):
        x0, y0 = ring[i]
        x1, y1 = ring[(i + 1) % n]
        isl = (x1 - x0) * (py - y0) - (px - x0) * (y1 - y0)
        wn += ((y0 <= py) & (py < y1) & (isl > 0)).astype(np.int64)
        wn -= ((y0 > py) & (py >= y1) & (isl < 0)).astype(np.int64)
    np.testing.assert_array_equal(got, wn != 0)


@settings(max_examples=100, deadline=None)
@given(lon_st, lat_st, st.floats(min_value=0, max_value=355, allow_nan=False),
       st.floats(min_value=1.0, max_value=5e6, allow_nan=False))
def test_sphere_forward_inverse_consistency(lon, lat, az, dist):
    lon2, lat2, _ = geodesy.sphere_forward(lon, lat, az, dist)
    _, _, d = geodesy.sphere_inverse(lon, lat, float(lon2), float(lat2))
    assert abs(float(d) - dist) < max(2.0, 2e-5 * dist)


class TestRound2Queries:
    """Light structural checks for the queries2 oracle surface (full
    value parity is asserted by scripts/check_oracles.py at sf0.01 and
    sf0.001 against DuckDB)."""

    SF = "/root/testdata/sf0.001"

    def test_ring_stats_matches_brute_force(self):
        import numpy as np
        import pyarrow.parquet as pq

        from karta_ray.kernels.measures import (ring_area_planar,
                                                ring_centroid)
        from karta_ray.pipelines import queries2 as Q2

        got = Q2.q_ring_stats(self.SF).to_pandas().set_index("ring_id")
        k = pq.read_table(f"{self.SF}/customer.parquet",
                          columns=["c_custkey"]).column(0).to_numpy()
        k = k.astype(np.int64)
        gid = k % Q2.RING_MOD
        x = ((k * Q2.RING_XM) % Q2.RING_XR - (Q2.RING_XR - 1) // 2)
        y = ((k * Q2.RING_YM) % Q2.RING_YR - (Q2.RING_YR - 1) // 2)
        for g in np.unique(gid):
            order = np.argsort(k[gid == g])
            ring = np.column_stack([x[gid == g][order],
                                    y[gid == g][order]]).astype(float)
            if len(ring) < 3 or ring_area_planar(ring) == 0.0:
                assert g not in got.index
                continue
            assert got.loc[g, "area"] == ring_area_planar(ring)
            cx, cy = ring_centroid(ring)
            assert got.loc[g, "cx"] == cx and got.loc[g, "cy"] == cy

    def test_union_layers_field_intersection(self):
        from karta_ray.pipelines import queries2 as Q2

        out = Q2.q_union_layers(self.SF)
        assert sorted(out.schema().names) == ["gid", "lat", "lon"]
        assert out.count() > 0

    def test_project_conic_matches_duckdb(self):
        # full value parity with the SQL oracle at sf0.001 (the
        # cm-quantization margin analysis is documented at the query)
        import duckdb

        from karta_ray.pipelines import queries2 as Q2

        keys = ["l_orderkey", "l_linenumber"]
        got = (Q2.q_project_conic(self.SF).to_pandas()
               .sort_values(keys).reset_index(drop=True))
        con = duckdb.connect()
        con.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
                    f"read_parquet('{self.SF}/lineitem.parquet')")
        want = (con.execute(Q2.project_conic_sql()).df()
                .sort_values(keys).reset_index(drop=True))
        assert list(got.columns) == list(want.columns)
        for c in got.columns:
            assert (got[c].to_numpy() == want[c].to_numpy()).all(), c

    def test_slope_stencil_matches_full_grid(self):
        import numpy as np

        from karta_ray.kernels.raster import slope
        from karta_ray.pipelines import queries2 as Q2
        from karta_ray.pipelines.queries import _synthetic_grid

        got = Q2.q_slope_stencil(self.SF).to_pandas()
        full = slope(_synthetic_grid())
        vals = full[got["i"].to_numpy(), got["j"].to_numpy()]
        assert (got["slope"].to_numpy() == vals).all()
        assert len(got) == 158 * 358

@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=0.01, max_value=20, allow_nan=False),
    st.floats(min_value=0.01, max_value=20, allow_nan=False)),
    min_size=1, max_size=60),
    st.tuples(st.floats(min_value=-120, max_value=120, allow_nan=False),
              st.floats(min_value=-120, max_value=120, allow_nan=False),
              st.floats(min_value=0.01, max_value=50, allow_nan=False),
              st.floats(min_value=0.01, max_value=50, allow_nan=False)))
def test_strtree_query_box_matches_brute_force(boxes_raw, qraw):
    from karta_ray.state.strtree import STRtree

    boxes = np.array([[x, y, x + w, y + h] for x, y, w, h in boxes_raw])
    qx, qy, qw, qh = qraw
    qxmin, qymin, qxmax, qymax = qx, qy, qx + qw, qy + qh
    got = set(STRtree(boxes).query_box(qxmin, qymin, qxmax, qymax).tolist())
    want = set(np.nonzero(
        (boxes[:, 0] <= qxmax) & (boxes[:, 2] >= qxmin)
        & (boxes[:, 1] <= qymax) & (boxes[:, 3] >= qymin))[0].tolist())
    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abcdef ", min_size=0, max_size=40),
                min_size=2, max_size=12))
def test_minhash_estimates_jaccard_on_random_docs(texts):
    from karta_ray.functions import text as T

    sigs = [T.minhash_signature(T.char_shingles(t)) for t in texts]
    sets = [set(T.char_shingles(t).tolist()) for t in texts]
    for i in range(len(texts) - 1):
        a, b = sets[i], sets[i + 1]
        if not a and not b:
            continue
        true_j = len(a & b) / len(a | b) if (a | b) else 0.0
        est = float((sigs[i] == sigs[i + 1]).mean())
        assert abs(est - true_j) <= 0.35  # 128 permutations, loose bound


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=200),
       st.integers(min_value=1, max_value=200),
       st.integers(min_value=0, max_value=96))
def test_ppm_wav_round_trip(w, h, base):
    from karta_ray.stages.multimodal import (decode_ppm, decode_wav,
                                             encode_ppm, encode_wav)

    img = ((np.arange(w * h * 3) + base) % 251).reshape(h, w, 3) \
        .astype(np.uint8)
    assert (decode_ppm(encode_ppm(img)) == img).all()
    wave = (((np.arange(500) * (base + 7)) % 20011) - 10000) \
        .astype(np.int16)
    got, rate = decode_wav(encode_wav(wave, 8000 + base))
    assert rate == 8000 + base and (got == wave).all()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10**6),
                min_size=0, max_size=200),
       st.integers(min_value=1, max_value=10))
def test_sessionize_segments_match_brute(ts_raw, n_users):
    import pyarrow as pa

    from karta_ray.stages.agg import group_runs

    u = np.sort(np.array([t % n_users for t in ts_raw], dtype=np.int64))
    starts, ends = group_runs(pa.table({"u": u}), ["u"])
    # segments tile the array and are maximal runs
    assert (ends - starts > 0).all() if len(starts) else True
    rebuilt = np.concatenate([np.full(e - s, u[s]) for s, e in
                              zip(starts, ends)]) if len(starts) else         np.empty(0, dtype=np.int64)
    assert (rebuilt == u).all()
    assert len(starts) == len(np.unique(u))



class TestTiffCodecProperties:
    """Compression codecs must round-trip arbitrary byte streams."""

    @given(st.binary(min_size=0, max_size=4000))
    @settings(max_examples=150, deadline=None)
    def test_lzw_round_trip(self, data):
        from karta_ray.sources import geotiff as GT
        assert GT._lzw_decode(GT._lzw_encode(data), len(data)) == data

    @given(st.binary(min_size=0, max_size=4000))
    @settings(max_examples=150, deadline=None)
    def test_packbits_round_trip(self, data):
        from karta_ray.sources import geotiff as GT
        enc = GT._packbits_encode(data)
        assert GT._packbits_decode(enc, len(data)) == data

    @given(st.binary(min_size=1, max_size=2000))
    @settings(max_examples=50, deadline=None)
    def test_packbits_never_expands_much(self, data):
        # worst case for PackBits is 1 extra byte per 128 literals
        from karta_ray.sources import geotiff as GT
        assert len(GT._packbits_encode(data)) <= len(data) + \
            (len(data) + 127) // 128


class TestShingleBatchProperties:
    @given(st.lists(st.text(max_size=40), max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_char_shingles_batch_equals_scalar(self, texts):
        import numpy as np

        from karta_ray.functions import text as T
        got = T.char_shingles_batch(texts)
        for t, g in zip(texts, got):
            assert np.array_equal(g, T.char_shingles(t))
