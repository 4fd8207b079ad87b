"""Keyed lookup (stages/lookup.py): the broadcast path and the hash-join
path (forced by a zero byte bound) attach the same payload rows with
the same types, drop unmatched probe rows, and take empty sides."""

import numpy as np
import pyarrow as pa
import pytest


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
