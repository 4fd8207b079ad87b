"""Keyed lookup (stages/lookup.py): the broadcast path and the hash-join
path (forced by a zero byte bound) attach the same payload rows with
the same types, drop unmatched probe rows, and take empty sides."""

import numpy as np
import pyarrow as pa
import pytest

from karta_ray.state.empty import materialize_typed


@pytest.fixture(params=["broadcast", "join"])
def lookup(request, monkeypatch, ray_session):
    import karta_ray.stages.lookup as lk

    if request.param == "join":
        monkeypatch.setattr(lk, "BROADCAST_MAX_BYTES", 0)
    return lk.lookup


def _rows(ds):
    return sorted(tuple(r.values()) for r in ds.take_all())


def test_int_keys_unmatched_rows_drop(lookup):
    import ray.data

    probe = pa.table({"id": pa.array([5, 1, 9, 3, 1, 7], pa.int64()),
                      "x": pa.array([0.5, 1.0, 9.0, 3.0, 1.5, 7.0])})
    keyed = pa.table({"k": pa.array([7, 1, 3, 4], pa.int64()),
                      "v": pa.array([70, 10, 30, 40], pa.int32()),
                      "w": pa.array(["g", "a", "c", "d"])})
    ds = ray.data.from_arrow(probe).repartition(3)
    for side in (keyed, ray.data.from_arrow(keyed).repartition(2)):
        out = lookup(ds, side, on="id", key="k", columns=["v", "w"],
                     suffix="_r")
        assert _rows(out) == [(1, 1.0, 10, "a"), (1, 1.5, 10, "a"),
                              (3, 3.0, 30, "c"), (7, 7.0, 70, "g")]
        schema = out.schema().base_schema
        assert schema.names == ["id", "x", "v_r", "w_r"]
        assert schema.types == [pa.int64(), pa.float64(), pa.int32(),
                                pa.string()]


def test_string_keys(lookup):
    import ray.data

    langs = ["en", "zh", "de", "en", "fr", "es", "zh"]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(7, dtype=np.int64)),
        "lang": pa.array(langs)})).repartition(2)
    med = ray.data.from_arrow(pa.table({
        "lang": pa.array(["zh", "en", "de", "es"]),
        "p50": pa.array([4, 1, 3, 2], pa.int64())}))
    out = lookup(ds, med, on="lang", key="lang", columns=["p50"])
    assert _rows(out) == [(0, "en", 1), (1, "zh", 4), (2, "de", 3),
                          (3, "en", 1), (5, "es", 2), (6, "zh", 4)]


def test_empty_keyed_side(lookup):
    import ray.data

    ds = ray.data.from_arrow(pa.table({"id": pa.array([1, 2], pa.int64())}))
    empty = pa.table({"k": pa.array([], pa.int64()),
                      "v": pa.array([], pa.int64())})
    assert lookup(ds, empty, on="id", key="k", columns=["v"]).count() == 0
    filtered = ray.data.from_arrow(empty).filter(lambda r: False)
    assert lookup(ds, filtered, on="id", key="k",
                  columns=["v"]).count() == 0


def test_empty_probe_side(lookup):
    import ray.data

    ds = ray.data.from_arrow(pa.table({"id": pa.array([1, 2], pa.int64())})
                             ).filter(lambda r: False)
    keyed = pa.table({"k": pa.array([1, 2], pa.int64()),
                      "v": pa.array([10, 20], pa.int64())})
    assert lookup(ds, keyed, on="id", key="k", columns=["v"]).count() == 0


def test_duplicate_keys_raise(ray_session):
    """The broadcast path checks key uniqueness while it sorts the keys;
    the hash-join path would need a second shuffle of the keyed side to
    check, so it leaves unique keys to the caller."""
    import ray.data

    from karta_ray.stages.lookup import lookup

    ds = ray.data.from_arrow(pa.table({"id": pa.array([1], pa.int64())}))
    for keys in ([1, 2, 1], ["a", "b", "a"]):
        keyed = pa.table({"k": pa.array(keys), "v": pa.array([1, 2, 3])})
        with pytest.raises(ValueError, match="duplicate keys"):
            lookup(ds, keyed, on="id", key="k", columns=["v"])


def test_pair_lookup_equals_two_single_calls(lookup):
    """Parallel ``on``/``suffix`` lists attach both sides of a pair in
    one call, with the rows and columns of one call per side."""
    import ray.data

    pairs = ray.data.from_arrow(pa.table({
        "a": pa.array([1, 3, 5, 3, 8], pa.int64()),
        "b": pa.array([3, 5, 1, 9, 1], pa.int64())})).repartition(2)
    keyed = pa.table({"k": pa.array([5, 1, 3, 8], pa.int64()),
                      "v": pa.array([b"e", b"a", b"c", b"h"]),
                      "w": pa.array([50, 10, 30, 80], pa.int64())})
    both = lookup(pairs, keyed, on=["a", "b"], key="k", columns=["v", "w"],
                  suffix=["_a", "_b"])
    one = lookup(lookup(pairs, keyed, on="a", key="k", columns=["v", "w"],
                        suffix="_a"),
                 keyed, on="b", key="k", columns=["v", "w"], suffix="_b")
    assert _rows(both) == _rows(one) == [
        (1, 3, b"a", 10, b"c", 30), (3, 5, b"c", 30, b"e", 50),
        (5, 1, b"e", 50, b"a", 10), (8, 1, b"h", 80, b"a", 10)]
    assert both.schema().names == ["a", "b", "v_a", "w_a", "v_b", "w_b"]


def test_pair_lookup_first_side_matches_nothing(lookup):
    """No row survives the first side: the second attaches from an
    empty probe (the hash-join path cannot join an empty side)."""
    import ray.data

    pairs = ray.data.from_arrow(pa.table({
        "a": pa.array([100, 200], pa.int64()),
        "b": pa.array([1, 2], pa.int64())}))
    keyed = pa.table({"k": pa.array([1, 2], pa.int64()),
                      "v": pa.array([10, 20], pa.int64())})
    out = lookup(pairs, keyed, on=["a", "b"], key="k", columns=["v"],
                 suffix=["_a", "_b"])
    assert out.count() == 0
    assert materialize_typed(out).schema().base_schema == pa.schema(
        [(c, pa.int64()) for c in ("a", "b", "v_a", "v_b")])


def test_pair_lookup_puts_keyed_side_once(ray_session, monkeypatch):
    """The broadcast path puts the keyed table in the object store once
    for both sides of a pair, where one call per side puts it twice."""
    import ray
    import ray.data

    from karta_ray.stages.lookup import lookup

    pairs = ray.data.from_arrow(pa.table({
        "a": pa.array([1, 2], pa.int64()), "b": pa.array([2, 1], pa.int64())}))
    keyed = pa.table({"k": pa.array([1, 2], pa.int64()),
                      "v": pa.array([10, 20], pa.int64())})
    puts = []
    real_put = ray.put

    def counting_put(value, **kw):
        puts.append(value)
        return real_put(value, **kw)

    # the broadcast put happens when lookup builds the plan, so count
    # there and execute after
    monkeypatch.setattr(ray, "put", counting_put)
    out = lookup(pairs, keyed, on=["a", "b"], key="k", columns=["v"],
                 suffix=["_a", "_b"])
    assert len(puts) == 1
    lookup(lookup(pairs, keyed, on="a", key="k", columns=["v"], suffix="_a"),
           keyed, on="b", key="k", columns=["v"], suffix="_b")
    assert len(puts) == 3
    monkeypatch.undo()
    assert _rows(out) == [(1, 2, 10, 20), (2, 1, 20, 10)]
