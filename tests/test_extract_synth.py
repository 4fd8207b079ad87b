"""Extraction byte-identity + synth determinism (no Ray needed)."""

import numpy as np
import pyarrow as pa

from karta_ray import synth
from karta_ray.extract import extract_text, parse_geotag


def test_extract_byte_identical():
    t = synth.pages_table(500)
    got = extract_text(t.column("html"))
    assert got.to_pylist() == t.column("text").to_pylist()
    # byte-level check on a few rows
    for i in (0, 13, 499):
        assert got[i].as_py().encode() == t.column("text")[i].as_py().encode()


def test_extract_handles_entities():
    txt = pa.array(["a < b & c > d", "no specials"])
    from karta_ray.extract import escape_text, unescape_text
    esc = escape_text(txt)
    assert esc[0].as_py() == "a &lt; b &amp; c &gt; d"
    assert unescape_text(esc).equals(txt)


def test_synth_deterministic_and_shardable():
    a = synth.pages_table(100)
    b = synth.pages_table(100)
    assert a.equals(b)
    # shard [50, 100) generated independently equals the tail of [0, 100)
    tail = synth.pages_table(50, start=50)
    assert tail.equals(a.slice(50, 50))


def test_geotag_parse_roundtrip():
    t = synth.pages_table(300)
    lon, lat = parse_geotag(t.column("text"))
    none = np.isnan(lon)
    # ~10% no-geotag
    assert 0.02 < none.mean() < 0.25
    want_lon, want_lat = synth.page_coords(np.arange(300))
    np.testing.assert_allclose(lon[~none], want_lon[~none], atol=1e-9)
    np.testing.assert_allclose(lat[~none], want_lat[~none], atol=1e-9)


def test_admin_polygons_have_hard_cases():
    ps = synth.admin_polygons()
    names = set(ps.name)
    assert {"hippie_star", "polar_ring", "dateline_quad", "holed_square"} <= names
    # hippie star contains the reference golden point
    ip = ps.name.index("hippie_star")
    assert ps.contains(np.array([28.75]), np.array([25.625]), ip)[0]
    # polar ring contains (45, 85) not (45, 75)
    ip = ps.name.index("polar_ring")
    got = ps.contains(np.array([45.0, 45.0]), np.array([85.0, 75.0]), ip)
    assert got.tolist() == [True, False]
    # holed square excludes the hole
    ip = ps.name.index("holed_square")
    got = ps.contains(np.array([-147.0, -141.0]), np.array([-46.0, -49.0]), ip)
    assert got.tolist() == [False, True]


def test_cell_cover_contains_all_member_cells():
    from karta_ray.kernels import tiles as T
    ps = synth.admin_polygons()
    cover = ps.cell_cover(7)
    # every point inside any polygon must map to a covered cell listing it
    rng = np.random.RandomState(0)
    lon = rng.uniform(-179, 179, 2000)
    lat = rng.uniform(-69, 80, 2000)
    cells = T.cell_id(lon, lat, 7)
    for ip in range(len(ps)):
        inside = ps.contains(lon, lat, ip)
        for c in np.unique(cells[inside]):
            assert ip in cover.get(int(c), []), (ps.name[ip], int(c))


def test_mix64_golden_and_single_copy():
    from karta_ray.functions import sketch, text
    from karta_ray.stages import bloomjoin

    assert int(synth.mix64(0)) == 0xE220A8397B1DCDAF
    assert synth.mix64 is text.mix64 is bloomjoin.mix64
    assert not hasattr(sketch, "_splitmix64")
