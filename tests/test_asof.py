"""Distributed as-of join (stages/asof.py): brute-force equivalence,
block-straddling keys, equal-timestamp semantics, keys with no right
rows."""

import numpy as np
import pyarrow as pa
import pytest


def _brute(lu, lts, ru, rts, rpay):
    rows = []
    for i in range(len(lu)):
        mask = (ru == lu[i]) & (rts <= lts[i])
        if mask.any():
            j = np.where(mask)[0][np.argmax(rts[mask])]
            rows.append((int(i), int(j)))
    return rows


def _run(lu, lts, ru, rts, n_lblocks=9, n_rblocks=7):
    import ray

    from karta_ray.stages.asof import asof_join

    left = pa.table({"user_id": lu.astype(np.int64),
                     "ts": lts.astype(np.int64),
                     "event_id": np.arange(len(lu), dtype=np.int64)})
    right = pa.table({"user_id": ru.astype(np.int64),
                      "ts": rts.astype(np.int64),
                      "rid": np.arange(len(ru), dtype=np.int64),
                      "value": np.arange(len(ru), dtype=np.float64) * 1.5})
    out = asof_join(ray.data.from_arrow(left).repartition(n_lblocks),
                    ray.data.from_arrow(right).repartition(n_rblocks),
                    key="user_id", on="ts",
                    left_cols=["event_id"], right_cols=["rid", "value"])
    return out.to_pandas().sort_values("event_id").reset_index(drop=True)


class TestAsofJoin:
    def test_matches_brute_force(self, ray_session):
        rng = np.random.RandomState(11)
        lu = rng.randint(0, 40, 3000)
        lts = rng.randint(0, 10**6, 3000)
        ru = rng.randint(0, 30, 900)   # users 30..39 have no right rows
        rts = rng.randint(0, 10**6, 900)
        got = _run(lu, lts, ru, rts)
        want = _brute(lu, lts, ru, rts, None)
        assert len(got) == len(want)
        want_map = dict(want)
        for eid, rid in zip(got["event_id"], got["r_rid"]):
            assert want_map[eid] == rid
        # no-right users contribute nothing (inner join)
        assert not np.isin(got["user_id"].to_numpy(),
                           np.arange(30, 40)).any()

    def test_equal_timestamp_matches(self, ray_session):
        # asof semantics l.ts >= r.ts: a right row at exactly l.ts wins
        lu = np.array([1, 1]); lts = np.array([100, 50])
        ru = np.array([1, 1]); rts = np.array([100, 40])
        got = _run(lu, lts, ru, rts, 1, 1)
        assert got["r_ts"].tolist() == [100, 40]
        assert got["r_rid"].tolist() == [0, 1]

    def test_hot_user_straddles_blocks(self, ray_session):
        # one user's history spread over many blocks; rights sparse so
        # most lefts need the cross-block carry path
        n = 20000
        lts = np.arange(n) * 10 + 5
        lu = np.zeros(n)
        rts = np.arange(0, n * 10, 997).astype(np.int64)  # sparse rights
        ru = np.zeros(len(rts))
        got = _run(lu, lts, ru, rts, 16, 3)
        assert len(got) == n
        want_rts = (lts // 997) * 997
        assert (got.sort_values("ts")["r_ts"].to_numpy() == want_rts).all()

    def test_left_before_any_right_dropped(self, ray_session):
        lu = np.array([7, 7]); lts = np.array([10, 200])
        ru = np.array([7]); rts = np.array([100])
        got = _run(lu, lts, ru, rts, 2, 1)
        assert got["event_id"].tolist() == [1]
        assert got["r_ts"].tolist() == [100]

    def test_split_fn_matches_two_dataset_path(self, ray_session):
        # single-source self-asof (split_fn) must equal the two-dataset
        # plan on the same rows
        import ray

        from karta_ray.stages.asof import asof_join

        rng = np.random.RandomState(5)
        n = 4000
        src = pa.table({
            "user_id": rng.randint(0, 25, n).astype(np.int64),
            "ts": rng.randint(0, 10**6, n).astype(np.int64),
            "event_id": np.arange(n, dtype=np.int64),
            "kind": rng.randint(0, 4, n).astype(np.int64),
            "value": (np.arange(n) * 0.5).astype(np.float64),
        })

        def split(batch):
            k = batch.column("kind").to_numpy()
            return (batch.filter(pa.array(k != 0)),
                    batch.filter(pa.array(k == 0)))

        got = asof_join(
            ray.data.from_arrow(src).repartition(11), None,
            key="user_id", on="ts", left_cols=["event_id"],
            right_cols=["event_id", "value"], split_fn=split) \
            .to_pandas().sort_values("event_id").reset_index(drop=True)

        kind = src.column("kind").to_numpy()
        left = src.filter(pa.array(kind != 0))
        right = src.filter(pa.array(kind == 0))
        want = asof_join(
            ray.data.from_arrow(left).repartition(5),
            ray.data.from_arrow(right).repartition(3),
            key="user_id", on="ts", left_cols=["event_id"],
            right_cols=["event_id", "value"]) \
            .to_pandas().sort_values("event_id").reset_index(drop=True)
        assert got.equals(want)
