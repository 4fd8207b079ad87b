"""Distributed band (range) join (stages/rangejoin.py): brute-force
equivalence, inclusive boundary semantics, bucket-straddling pairs,
keys with no right rows, hot-key block straddles."""

import numpy as np
import pyarrow as pa


def _brute(lu, lts, ru, rts, band):
    pairs = set()
    for i in range(len(lu)):
        for j in range(len(ru)):
            if lu[i] == ru[j] and lts[i] - band <= rts[j] <= lts[i]:
                pairs.add((int(i), int(j)))
    return pairs


def _run(lu, lts, ru, rts, band, n_lblocks=9, n_rblocks=7):
    import ray

    from karta_ray.stages.rangejoin import band_join

    left = pa.table({"user_id": lu.astype(np.int64),
                     "ts": lts.astype(np.int64),
                     "event_id": np.arange(len(lu), dtype=np.int64)})
    right = pa.table({"user_id": ru.astype(np.int64),
                      "ts": rts.astype(np.int64),
                      "rid": np.arange(len(ru), dtype=np.int64),
                      "value": np.arange(len(ru), dtype=np.float64) * 1.5})
    out = band_join(ray.data.from_arrow(left).repartition(n_lblocks),
                    ray.data.from_arrow(right).repartition(n_rblocks),
                    key="user_id", on="ts", band=band,
                    left_cols=["event_id"], right_cols=["rid", "value"])
    return out.to_pandas()


class TestBandJoin:
    def test_matches_brute_force(self, ray_session):
        rng = np.random.RandomState(23)
        lu = rng.randint(0, 40, 1200)
        lts = rng.randint(0, 10**5, 1200)
        ru = rng.randint(0, 30, 500)   # users 30..39 have no right rows
        rts = rng.randint(0, 10**5, 500)
        band = 700
        got = _run(lu, lts, ru, rts, band)
        want = _brute(lu, lts, ru, rts, band)
        got_pairs = set(zip(got["event_id"].astype(int),
                            got["r_rid"].astype(int)))
        assert got_pairs == want
        assert len(got) == len(want)          # no duplicate emission
        assert not np.isin(got["user_id"].to_numpy(),
                           np.arange(30, 40)).any()

    def test_boundaries_inclusive(self, ray_session):
        # r.ts == l.ts and r.ts == l.ts - band both match; one tick
        # outside either edge does not
        lu = np.array([1]); lts = np.array([1000])
        ru = np.array([1, 1, 1, 1])
        rts = np.array([1000, 900, 899, 1001])  # band=100: in, in, out, out
        got = _run(lu, lts, ru, rts, 100, 1, 1)
        assert sorted(got["r_ts"].tolist()) == [900, 1000]

    def test_pair_straddles_bucket_boundary(self, ray_session):
        # l in bucket b, r in bucket b-1: only the +1 replica matches,
        # and exactly once
        lu = np.array([5]); lts = np.array([205])     # bucket 2 (band=100)
        ru = np.array([5]); rts = np.array([199])     # bucket 1
        got = _run(lu, lts, ru, rts, 100, 1, 1)
        assert got["r_ts"].tolist() == [199]

    def test_hot_user_straddles_blocks(self, ray_session):
        # one user, rows spread over many blocks; every left matches
        # exactly the rights in its band window
        n = 5000
        lts = np.arange(n) * 7
        lu = np.zeros(n)
        rts = np.arange(0, n * 7, 13).astype(np.int64)
        ru = np.zeros(len(rts))
        band = 50
        got = _run(lu, lts, ru, rts, band, 16, 11)
        # per-left expected count: rights (sorted multiples of 13)
        # falling in the closed window [l - band, l]
        want_counts = (np.searchsorted(rts, lts, side="right")
                       - np.searchsorted(rts, lts - band, side="left"))
        got_counts = got.groupby("event_id").size()
        assert int(got_counts.sum()) == int(want_counts.sum())
        full = np.zeros(n, dtype=np.int64)
        full[got_counts.index.to_numpy()] = got_counts.to_numpy()
        assert (full == want_counts).all()


class TestBandAgg:
    def test_matches_brute_force_with_zero_rows(self, ray_session):
        import ray

        from karta_ray.stages.rangejoin import band_agg

        rng = np.random.RandomState(31)
        nl, nr, band = 1500, 600, 900
        lu = rng.randint(0, 40, nl)
        lts = rng.randint(0, 10**5, nl)
        ru = rng.randint(0, 30, nr)
        rts = rng.randint(0, 10**5, nr)
        rv = rng.randint(-50, 10**6, nr)
        left = pa.table({"user_id": lu.astype(np.int64),
                         "ts": lts.astype(np.int64),
                         "event_id": np.arange(nl, dtype=np.int64)})
        right = pa.table({"user_id": ru.astype(np.int64),
                          "ts": rts.astype(np.int64),
                          "cents": rv.astype(np.int64)})
        out = band_agg(ray.data.from_arrow(left).repartition(9),
                       ray.data.from_arrow(right).repartition(7),
                       key="user_id", on="ts", band=band,
                       left_cols=["event_id"], agg_cols=["cents"])
        got = (out.to_pandas().sort_values("event_id")
               .reset_index(drop=True))
        assert len(got) == nl                       # every left emitted
        for i in range(nl):
            m = (ru == lu[i]) & (rts >= lts[i] - band) & (rts <= lts[i])
            assert got["n_band"][i] == m.sum()
            assert got["sum_cents"][i] == rv[m].sum()

    def test_hot_key_dense_window(self, ray_session):
        # one key, every right in-band for the last left; sums exact
        import ray

        from karta_ray.stages.rangejoin import band_agg

        n = 4000
        rts = np.arange(n, dtype=np.int64)
        left = pa.table({"user_id": np.zeros(2, dtype=np.int64),
                         "ts": np.array([n - 1, 10**6], dtype=np.int64),
                         "event_id": np.array([0, 1], dtype=np.int64)})
        right = pa.table({"user_id": np.zeros(n, dtype=np.int64),
                          "ts": rts, "cents": rts * 3})
        out = band_agg(ray.data.from_arrow(left),
                       ray.data.from_arrow(right).repartition(13),
                       key="user_id", on="ts", band=2 * n,
                       left_cols=["event_id"], agg_cols=["cents"])
        got = (out.to_pandas().sort_values("event_id")
               .reset_index(drop=True))
        assert got["n_band"].tolist() == [n, 0]
        assert got["sum_cents"].tolist() == [int(rts.sum() * 3), 0]

    def test_split_fn_single_scan_parity(self, ray_session):
        # one source tagged by a type column: split mode must equal
        # the two-dataset mode row for row
        import pyarrow.compute as pc
        import ray

        from karta_ray.stages.rangejoin import band_agg

        rng = np.random.RandomState(3)
        n = 3000
        tbl = pa.table({
            "user_id": rng.randint(0, 20, n).astype(np.int64),
            "ts": rng.randint(0, 10**6, n).astype(np.int64),
            "event_id": np.arange(n, dtype=np.int64),
            "kind": rng.choice(["l", "r"], n),
            "cents": rng.randint(0, 1000, n).astype(np.int64),
        })
        src = ray.data.from_arrow(tbl).repartition(7)

        def split(b):
            is_r = pc.equal(b.column("kind"), "r")
            lb = b.filter(pc.invert(is_r)).select(
                ["event_id", "ts", "user_id"])
            rb = b.filter(is_r).select(["ts", "user_id", "cents"])
            return lb, rb

        got = band_agg(src, None, key="user_id", on="ts", band=50_000,
                       left_cols=["event_id"], agg_cols=["cents"],
                       split_fn=split).to_pandas()
        left = src.map_batches(lambda b: split(b)[0],
                               batch_format="pyarrow")
        right = src.map_batches(lambda b: split(b)[1],
                                batch_format="pyarrow")
        want = band_agg(left, right, key="user_id", on="ts",
                        band=50_000, left_cols=["event_id"],
                        agg_cols=["cents"]).to_pandas()
        got = got.sort_values("event_id").reset_index(drop=True)
        want = want.sort_values("event_id").reset_index(drop=True)
        assert got.equals(want)


class TestResidueSkew:
    def test_sharder_bounds_lefts_and_replicates_rights(self):
        # unit check of the residue bound band_join/band_agg get from
        # the co-group's spread_left: lefts round-robin across
        # RESIDUE_SHARDS sub-residues (each assigned once), rights
        # present in EVERY sub-residue of their group
        from karta_ray.stages.cogroup import (RESIDUE_SHARDS, SIDE,
                                              _residue_sharder)

        nl, nr = 100, 50
        hot = pa.table({
            "user_id": np.full(nl + nr, 7, dtype=np.int64),
            "bucket": np.full(nl + nr, 3, dtype=np.int64),
            SIDE: np.concatenate([np.zeros(nr, np.int8),
                                  np.ones(nl, np.int8)]),
            "ts": np.arange(nl + nr, dtype=np.int64),
            "event_id": np.arange(nl + nr, dtype=np.int64),
        })
        small = pa.table({
            "user_id": np.full(3, 9, dtype=np.int64),
            "bucket": np.full(3, 1, dtype=np.int64),
            SIDE: np.array([0, 1, 1], np.int8),
            "ts": np.arange(3, dtype=np.int64),
            "event_id": np.arange(3, dtype=np.int64),
        })
        out = _residue_sharder(["user_id", "bucket"])(
            pa.concat_tables([hot, small]))
        df = out.to_pandas()
        hotdf = df[df.user_id == 7]
        lefts = hotdf[hotdf[SIDE] == 1]
        rights = hotdf[hotdf[SIDE] == 0]
        # every left exported exactly once, spread over all shards
        assert len(lefts) == nl
        per_shard = lefts.groupby("_rshard").size()
        assert len(per_shard) == RESIDUE_SHARDS
        assert per_shard.max() <= -(-nl // RESIDUE_SHARDS)
        # rights replicated to every shard of the group
        assert len(rights) == nr * RESIDUE_SHARDS
        assert rights.groupby("_rshard").size().eq(nr).all()
        # shard ids of distinct groups do not collide
        assert not (set(hotdf._rshard) & set(df[df.user_id == 9]._rshard))

    def test_hot_group_million_rows_exact(self, ray_session):
        # the VERDICT scale scenario: one (user, day-bucket) group with
        # 10^6 right rows spanning every sorted block — the sharded
        # residue must keep per-task lefts bounded AND stay value-exact
        import ray

        from karta_ray.stages.rangejoin import band_agg

        rng = np.random.RandomState(11)
        day = 86_400
        nr, nl = 1_000_000, 4000
        rts = np.sort(rng.randint(0, day, nr).astype(np.int64))
        cents = rng.randint(0, 1000, nr).astype(np.int64)
        lts = rng.randint(0, day, nl).astype(np.int64)
        band = 3600
        left = pa.table({"user_id": np.zeros(nl, dtype=np.int64),
                         "ts": lts,
                         "event_id": np.arange(nl, dtype=np.int64)})
        right = pa.table({"user_id": np.zeros(nr, dtype=np.int64),
                          "ts": rts, "cents": cents})
        out = band_agg(ray.data.from_arrow(left).repartition(4),
                       ray.data.from_arrow(right).repartition(32),
                       key="user_id", on="ts", band=band,
                       left_cols=["event_id"], agg_cols=["cents"])
        got = (out.to_pandas().sort_values("event_id")
               .reset_index(drop=True))
        assert len(got) == nl
        cum = np.concatenate([[0], np.cumsum(cents)])
        lo = np.searchsorted(rts, lts - band, side="left")
        hi = np.searchsorted(rts, lts, side="right")
        assert (got["n_band"].to_numpy() == hi - lo).all()
        assert (got["sum_cents"].to_numpy() == cum[hi] - cum[lo]).all()
