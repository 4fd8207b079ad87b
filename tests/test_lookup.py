"""Keyed lookup and membership (stages/lookup.py): the broadcast path
and the hash-join path (forced by a byte bound below any size, an empty
keyed side's included) attach the same payload rows with the same
types, drop unmatched probe rows, and take empty sides; ``semi_join``
keeps the same left rows on both paths, for the semi- and the
anti-join."""

import numpy as np
import pyarrow as pa
import pytest
from conftest import SF0001

from karta_ray.state.empty import materialize_typed


def _policy(request, monkeypatch):
    import karta_ray.stages.lookup as lk

    if request.param == "join":
        monkeypatch.setattr(lk, "BROADCAST_MAX_BYTES", -1)
    return lk


@pytest.fixture(params=["broadcast", "join"])
def lookup(request, monkeypatch, ray_session):
    return _policy(request, monkeypatch).lookup


@pytest.fixture(params=["broadcast", "join"])
def semi_join(request, monkeypatch, ray_session):
    return _policy(request, monkeypatch).semi_join


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


def _sides(left_keys, right_keys, n_lblocks=7, n_rblocks=5):
    import ray.data

    left = pa.table({"k": pa.array(left_keys, pa.int64()),
                     "x": pa.array(np.arange(len(left_keys)), pa.int64())})
    right = pa.table({"k": pa.array(right_keys, pa.int64())})
    return (ray.data.from_arrow(left).repartition(n_lblocks),
            ray.data.from_arrow(right).repartition(n_rblocks))


def test_semi_join_parity(semi_join):
    rng = np.random.RandomState(3)
    lk = rng.randint(0, 5000, 20000)
    rk = np.unique(rng.randint(0, 5000, 800))
    out = semi_join(*_sides(lk, rk), key="k")
    want = np.nonzero(np.isin(lk, rk))[0]
    assert _rows(out) == sorted((int(lk[i]), int(i)) for i in want)
    assert materialize_typed(out).schema().base_schema == pa.schema(
        [("k", pa.int64()), ("x", pa.int64())])


def test_anti_join_parity(semi_join):
    rng = np.random.RandomState(5)
    lk = rng.randint(0, 3000, 20000)
    rk = rng.choice(3000, 400, replace=False)
    out = semi_join(*_sides(lk, rk), key="k", anti=True)
    want = np.nonzero(~np.isin(lk, rk))[0]
    assert _rows(out) == sorted((int(lk[i]), int(i)) for i in want)


def test_semi_join_non_distinct_right(semi_join):
    # duplicated right keys must not duplicate output rows
    left, right = _sides(np.arange(100), [5, 5, 5, 17, 17, 99], 3, 2)
    assert [r[0] for r in _rows(semi_join(left, right, key="k"))] == \
        [5, 17, 99]


def test_semi_join_hot_left_key(semi_join):
    # one left key with 200k rows across every left block
    n = 200_000
    lk = np.concatenate([np.full(n, 7), np.arange(100, 160)])
    assert semi_join(*_sides(lk, [7, 100], 16, 1), key="k").count() == n + 1
    assert semi_join(*_sides(lk, [7, 100], 16, 1), key="k",
                     anti=True).count() == 59


def _no_right_rows():
    # every right row filtered out: a map over no rows keeps no schema
    left, right = _sides(np.arange(50), np.arange(10), 3, 1)
    return left, right.filter(lambda r: False)


def test_semi_join_empty_right(semi_join):
    semi = semi_join(*_no_right_rows(), key="k")
    assert semi.count() == 0
    assert materialize_typed(semi).schema().base_schema == pa.schema(
        [("k", pa.int64()), ("x", pa.int64())])


def test_anti_join_empty_right(semi_join):
    anti = semi_join(*_no_right_rows(), key="k", anti=True)
    assert [r[1] for r in _rows(anti)] == list(range(50))


def test_semi_join_null_keys(semi_join):
    # a null key matches nothing, a right null included: the semi-join
    # drops null-key rows and the anti-join keeps them
    left, right = _sides([1, None, 2, 3, None], [2, None, 3], 2, 2)
    assert _rows(semi_join(left, right, key="k")) == [(2, 2), (3, 3)]
    anti = semi_join(left, right, key="k", anti=True)
    assert sorted(r["x"] for r in anti.take_all()) == [0, 1, 4]


@pytest.mark.parametrize("name", ["bloom_semi_join", "bloom_anti_join"])
def test_membership_query_runs(name, ray_session, executed_ops):
    """The queries hand ``semi_join`` their bare reads, whose schemas
    are known without running them: the right key set and the result
    are at most three executor runs, none of them a limit(1) probe."""
    from ray.data._internal.execution.operators.limit_operator import \
        LimitOperator

    import __ray_entry__ as entry

    assert entry.queries()[name](SF0001).count() > 0
    assert 0 < len(executed_ops) <= 3, \
        [[op.name for op in run] for run in executed_ops]
    assert not any(isinstance(op, LimitOperator)
                   for run in executed_ops for op in run)


def test_anti_join_query_keeps_null_keys_as_its_oracle(ray_session,
                                                      tmp_path):
    # lineitems with a null l_orderkey are kept, and a null URGENT
    # o_orderkey removes nothing: SQL's NOT EXISTS, not NOT IN
    import pyarrow.parquet as pq

    import __ray_entry__ as entry
    from perfbench.check import frames_equal, oracle_frames, result_frame

    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 2, None, 3, 4, None], pa.int64()),
        "l_partkey": pa.array([10, 20, 30, 40, 50, 60], pa.int64()),
        "l_quantity": pa.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])}),
        tmp_path / "lineitem.parquet")
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, None, 3, 5], pa.int64()),
        "o_orderpriority": ["1-URGENT", "1-URGENT", "2-HIGH",
                            "1-URGENT"]}),
        tmp_path / "orders.parquet")
    want = oracle_frames(str(tmp_path), ["lineitem", "orders"], {
        "bloom_anti_join": entry.oracle_sql()["bloom_anti_join"]})
    got = result_frame(entry.queries()["bloom_anti_join"](str(tmp_path)))
    assert sorted(got["l_partkey"]) == [20, 30, 40, 50, 60]
    assert frames_equal(got, want["bloom_anti_join"])
