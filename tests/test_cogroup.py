"""Two-sided co-group (stages/cogroup.py): typed null padding, right
rows before left rows within a key, split mode equal to two sources,
empty sides, and a hot key spread over several sorted blocks."""

import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from ray import cloudpickle

# Ray workers cannot import this test module: ship its block functions
# by value
cloudpickle.register_pickle_by_value(sys.modules[__name__])


def _ident(b):
    return b


def _rows(ds):
    return sorted(tuple(r.values()) for r in ds.take_all())


def test_typed_null_padding(ray_session):
    import ray
    import ray.data

    from karta_ray.stages.cogroup import SIDE, tagged

    left = pa.table({"k": pa.array([1, 2], pa.int64()),
                     "n": pa.array([10, 20], pa.int64()),
                     "s": pa.array(["a", "b"])})
    right = pa.table({"k": pa.array([2], pa.int64()),
                      "b": pa.array([b"\x00\x01"], pa.binary()),
                      "t": pa.array([5], pa.timestamp("us"))})
    out = tagged(ray.data.from_arrow(left), ray.data.from_arrow(right),
                 (_ident, _ident)).to_arrow_refs()
    got = pa.concat_tables(ray.get(out)).sort_by([(SIDE, "ascending"),
                                                  ("k", "ascending")])
    assert got.schema == pa.schema([
        ("k", pa.int64()), ("n", pa.int64()), ("s", pa.string()),
        ("b", pa.binary()), ("t", pa.timestamp("us")), (SIDE, pa.int8())])
    assert got.drop_columns(["t"]).to_pylist() == [
        {"k": 2, "n": None, "s": None, "b": b"\x00\x01", SIDE: 0},
        {"k": 1, "n": 10, "s": "a", "b": None, SIDE: 1},
        {"k": 2, "n": 20, "s": "b", "b": None, SIDE: 1}]
    t = got.column("t")
    assert t[0].value == 5 and t.null_count == 2


def test_shared_column_types_must_agree(ray_session):
    import ray.data

    from karta_ray.stages.cogroup import tagged

    left = ray.data.from_arrow(pa.table({"k": pa.array([1], pa.int64())}))
    right = ray.data.from_arrow(pa.table({"k": pa.array([1], pa.int32())}))
    with pytest.raises(ValueError, match="'k'"):
        tagged(left, right, (_ident, _ident))


def _runs(tbl):
    """(key, sides within the run in block order) per key run."""
    from karta_ray.stages.agg import group_runs
    from karta_ray.stages.cogroup import SIDE

    starts, ends = group_runs(tbl, ["k"])
    side = tbl.column(SIDE).to_numpy()
    k = tbl.column("k").to_numpy()
    return pa.table({
        "k": pa.array(k[starts], pa.int64()),
        "sides": pa.array(["".join(map(str, side[s:e]))
                           for s, e in zip(starts, ends)])})


def test_right_rows_sort_first_within_a_key(ray_session):
    import ray.data

    from karta_ray.stages.cogroup import cogroup

    rng = np.random.RandomState(3)
    lk = rng.randint(0, 50, 3000)
    rk = rng.randint(0, 50, 400)
    left = ray.data.from_arrow(pa.table({"k": lk})).repartition(7)
    right = ray.data.from_arrow(pa.table({"k": rk})).repartition(5)
    got = cogroup(left, right, prep=(_ident, _ident), keys=["k"],
                  block_fn=_runs).to_pandas()
    assert sorted(got["k"]) == sorted(set(lk) | set(rk))
    for k, sides in zip(got["k"], got["sides"]):
        n_right = int((rk == k).sum())
        assert sides == "0" * n_right + "1" * int((lk == k).sum())


def _counts(tbl):
    """Per left row: its id and the count and sum of its key's right
    rows — an answer from the row and its group's rights alone."""
    from karta_ray.stages.agg import group_runs
    from karta_ray.stages.cogroup import SIDE

    starts, ends = group_runs(tbl, ["k"])
    side = tbl.column(SIDE).to_numpy()
    val = tbl.column("v").to_numpy(zero_copy_only=False)
    n_r = np.zeros(len(starts), np.int64)
    s_r = np.zeros(len(starts), np.int64)
    for g, (s, e) in enumerate(zip(starts, ends)):
        r = side[s:e] == 0
        n_r[g], s_r[g] = r.sum(), val[s:e][r].sum()
    run = np.repeat(np.arange(len(starts)), ends - starts)
    li = np.flatnonzero(side == 1)
    return pa.table({
        "lid": tbl.column("lid").take(pa.array(li, pa.int64())),
        "n_right": pa.array(n_r[run[li]], pa.int64()),
        "sum_right": pa.array(s_r[run[li]], pa.int64())})


def _sides(n_left, n_right, hot_share, seed):
    rng = np.random.RandomState(seed)
    lk = np.where(rng.rand(n_left) < hot_share, 0, rng.randint(1, 40, n_left))
    rk = np.where(rng.rand(n_right) < hot_share, 0,
                  rng.randint(1, 40, n_right))
    left = pa.table({"k": lk.astype(np.int64),
                     "lid": np.arange(n_left, dtype=np.int64)})
    right = pa.table({"k": rk.astype(np.int64),
                      "v": rng.randint(0, 100, n_right).astype(np.int64)})
    return left, right


def _brute(left, right):
    lk = left.column("k").to_numpy()
    rk = right.column("k").to_numpy()
    v = right.column("v").to_numpy()
    return sorted((int(i), int((rk == k).sum()), int(v[rk == k].sum()))
                  for i, k in zip(left.column("lid").to_numpy(), lk))


def test_split_mode_equals_two_sources(ray_session):
    import ray.data

    from karta_ray.stages.cogroup import cogroup

    left, right = _sides(2000, 300, 0.0, 5)
    src = pa.concat_tables([
        left.append_column("v", pa.nulls(left.num_rows, pa.int64())),
        right.select(["k"]).append_column(
            "lid", pa.nulls(right.num_rows, pa.int64()))
        .append_column("v", right.column("v"))])
    is_right = np.arange(src.num_rows) >= left.num_rows
    src = src.append_column("is_right", pa.array(is_right))

    def split(b):
        r = b.column("is_right")
        return (b.filter(pc.invert(r)).select(["k", "lid"]),
                b.filter(r).select(["k", "v"]))

    one = cogroup(ray.data.from_arrow(src).repartition(9), None,
                  prep=split, keys=["k"], block_fn=_counts)
    two = cogroup(ray.data.from_arrow(left).repartition(5),
                  ray.data.from_arrow(right).repartition(3),
                  prep=(_ident, _ident), keys=["k"], block_fn=_counts)
    assert _rows(one) == _rows(two) == _brute(left, right)


@pytest.mark.parametrize("empty", ["left", "right"])
def test_empty_side(ray_session, empty):
    import ray.data

    from karta_ray.stages.cogroup import cogroup

    left, right = _sides(500, 80, 0.0, 7)
    if empty == "left":
        left = left.slice(0, 0)
    else:
        right = right.slice(0, 0)
    out = cogroup(ray.data.from_arrow(left), ray.data.from_arrow(right),
                  prep=(_ident, _ident), keys=["k"], block_fn=_counts)
    assert _rows(out) == _brute(left, right)


def test_hot_key_spread_left_equals_unsharded(ray_session):
    # 60k rows sort into 60000 // 16384 + 1 = 4 blocks after the
    # compaction in sorted_map_groups; with 80 % of the rows on key 0
    # and ``lid`` in the sort key, key 0 spans at least three of them,
    # so its rows take the residue path (sharded with spread_left)
    import ray.data

    from karta_ray.stages.cogroup import SIDE, cogroup

    left, right = _sides(56_000, 4_000, 0.8, 11)
    # a non-null ``lid`` on the right too, so it can be a sort key
    right = right.append_column(
        "lid", pa.array(-1 - np.arange(right.num_rows, dtype=np.int64)))

    def run(spread):
        return _rows(cogroup(
            ray.data.from_arrow(left).repartition(16),
            ray.data.from_arrow(right).repartition(4),
            prep=(_ident, _ident), keys=["k"], block_fn=_counts,
            sort_keys=["k", SIDE, "lid"], spread_left=spread))

    spread = run(True)
    assert spread == run(False) == _brute(left, right)
