"""Extraction byte-identity + synth determinism (no Ray needed)."""

import numpy as np
import pyarrow as pa
import pytest
from conftest import pages_table
from hypothesis import given, settings
from hypothesis import strategies as st

from karta_ray import synth
from karta_ray.extract import extract_text, geotag_from_html, parse_geotag
from karta_ray.stages.extract import extract_geotag_stage


def test_extract_byte_identical():
    t = pages_table(500)
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
    a = pages_table(100)
    b = pages_table(100)
    assert a.equals(b)
    # shard [50, 100) generated independently equals the tail of [0, 100)
    tail = pages_table(50, start=50)
    assert tail.equals(a.slice(50, 50))


def test_geotag_parse_roundtrip():
    t = pages_table(300)
    lon, lat = parse_geotag(t.column("text"))
    none = np.isnan(lon)
    # ~10% no-geotag
    assert 0.02 < none.mean() < 0.25
    want_lon, want_lat = synth.page_coords(np.arange(300))
    np.testing.assert_allclose(lon[~none], want_lon[~none], atol=1e-9)
    np.testing.assert_allclose(lat[~none], want_lat[~none], atol=1e-9)


def _reference_geotag(html):
    return parse_geotag(extract_text(html))


def _assert_bit_equal(got, want):
    """Equal bit for bit, NaN positions included."""
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.float64
        np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))


# Fragments html is drawn from: tags, entities, whole and truncated
# geotags, and non-ASCII text.
_FRAGMENTS = [
    "<article>", "</article>", "<article", "article>", "</", "<", ">",
    "&amp;", "&lt;", "&gt;", "&", ";", "@geo(1.5,-2.25)",
    "@geo(-12.34567,179.99999)", "@geo(0.0,0.0)", "@geo(", "@geo(1.",
    "@geo(1.5,", "@geo(1.5,2)", "@geo(1,2.0)", "1.25,3.5)", "@", "geo(",
    "-", ".", ",", ")", "7", "é", "漢字", "", " ", "x", "<p>",
]
_text = st.lists(st.sampled_from(_FRAGMENTS), max_size=8).map("".join)
# Free-form rows, and rows shaped like a page: text around one article.
_rows = st.one_of(
    st.none(), _text.map(str.encode),
    st.tuples(_text, _text, _text).map(
        lambda t: f"{t[0]}<article>{t[1]}</article>{t[2]}".encode()))


@st.composite
def _html_columns(draw):
    """A binary html column: a plain array, a slice of one (offset != 0)
    or a chunked array with several chunks."""
    rows = draw(st.lists(_rows, min_size=1, max_size=30))
    kind = draw(st.sampled_from(["array", "slice", "chunked"]))
    if kind == "array":
        return pa.array(rows, pa.binary())
    if kind == "slice":
        lead = draw(st.lists(_rows, min_size=1, max_size=5))
        arr = pa.array(lead + rows, pa.binary())
        return arr.slice(len(lead), len(rows))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), min_size=1,
                                max_size=4)))
    bounds = [0, *cuts, len(rows)]
    return pa.chunked_array(
        [pa.array(rows[a:b], pa.binary()) for a, b in zip(bounds, bounds[1:])],
        pa.binary())


@settings(max_examples=300, deadline=None)
@given(_html_columns())
def test_geotag_from_html_matches_reference(html):
    _assert_bit_equal(geotag_from_html(html), _reference_geotag(html))


@pytest.mark.parametrize("html", [
    # first match before <article>, another inside it
    "@geo(1.0,2.0)<article>a @geo(3.0,4.0)</article>",
    "@geo(1.0,2.0)<article>no tag</article>",
    # inside the last </article>, after the first
    "<article>a</article> b @geo(3.0,4.0) </article>",
    "<article>a</article> @geo(3.0,4.0)",
    # entities around and between tags
    "<article>&lt;@geo(3.0,4.0)&gt;</article>",
    "<article>&amp;lt;</article>@geo(5.0,6.0)",
    "</article>@geo(1.0,2.0)<article>",
    "<article></article>",
    "é<article>漢 @geo(-1.5,2.5)</article>",
    "",
])
def test_geotag_from_html_edge_cases(html):
    col = pa.array([html.encode(), None, html.encode()], pa.binary())
    _assert_bit_equal(geotag_from_html(col), _reference_geotag(col))
    _assert_bit_equal(geotag_from_html(col.slice(1)),
                      _reference_geotag(col.slice(1)))


def test_geotag_from_html_rejects_invalid_utf8():
    col = pa.array([b"<article>\xff @geo(1.0,2.0)</article>"], pa.binary())
    with pytest.raises(pa.ArrowInvalid):
        geotag_from_html(col)
    with pytest.raises(pa.ArrowInvalid):
        _reference_geotag(col)


def test_extract_geotag_stage_returns_page_coords():
    t = pages_table(2000)
    out = extract_geotag_stage(t)
    assert "html" not in out.column_names and "text" not in out.column_names
    assert out.column("url").equals(t.column("url"))
    lon = out.column("lon").to_numpy()
    lat = out.column("lat").to_numpy()
    want_lon, want_lat = synth.page_coords(np.arange(2000))
    tagged = ~np.isnan(want_lon)
    np.testing.assert_array_equal(np.isnan(lon), ~tagged)
    np.testing.assert_allclose(lon[tagged], want_lon[tagged], atol=1e-9)
    np.testing.assert_allclose(lat[tagged], want_lat[tagged], atol=1e-9)


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

    assert int(synth.mix64(0)) == 0xE220A8397B1DCDAF
    assert synth.mix64 is text.mix64
    assert not hasattr(sketch, "_splitmix64")
