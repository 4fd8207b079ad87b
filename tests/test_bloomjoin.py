"""Bloom semi-join (stages/bloomjoin.py): exact parity with a direct
membership filter, false-positive pressure with a tiny bitmap, the
approximate (exact=False) superset mode, non-distinct right keys."""

import numpy as np
import pyarrow as pa


def _mk(left_keys, right_keys, n_lblocks=7, n_rblocks=5):
    import ray

    left = pa.table({"l_orderkey": left_keys.astype(np.int64),
                     "row_id": np.arange(len(left_keys),
                                         dtype=np.int64)})
    right = pa.table({"l_orderkey": right_keys.astype(np.int64)})
    return (ray.data.from_arrow(left).repartition(n_lblocks),
            ray.data.from_arrow(right).repartition(n_rblocks))


class TestBloomSemiJoin:
    def test_exact_parity(self, ray_session):
        from karta_ray.stages.bloomjoin import bloom_semi_join

        rng = np.random.RandomState(3)
        lk = rng.randint(0, 5000, 20000)
        rk = np.unique(rng.randint(0, 5000, 800))
        left, right = _mk(lk, rk)
        got = bloom_semi_join(left, right, key="l_orderkey").to_pandas()
        want = np.isin(lk, rk)
        assert len(got) == int(want.sum())
        assert set(got["row_id"]) == set(np.nonzero(want)[0])

    def test_tiny_bitmap_still_exact(self, ray_session):
        # m=256 bits with 300 keys -> bloom saturates, FP rate huge;
        # the verify join must still make the result exact
        from karta_ray.stages.bloomjoin import bloom_semi_join

        rng = np.random.RandomState(5)
        lk = rng.randint(0, 10000, 5000)
        rk = np.unique(rng.randint(0, 10000, 300))
        left, right = _mk(lk, rk)
        got = bloom_semi_join(left, right, key="l_orderkey",
                              m_bits=256).to_pandas()
        want = np.isin(lk, rk)
        assert set(got["row_id"]) == set(np.nonzero(want)[0])

    def test_approx_mode_is_superset(self, ray_session):
        from karta_ray.stages.bloomjoin import bloom_semi_join

        rng = np.random.RandomState(8)
        lk = rng.randint(0, 10000, 5000)
        rk = np.unique(rng.randint(0, 10000, 300))
        left, right = _mk(lk, rk)
        got = bloom_semi_join(left, right, key="l_orderkey",
                              exact=False).to_pandas()
        want_rows = set(np.nonzero(np.isin(lk, rk))[0])
        assert want_rows <= set(got["row_id"])

    def test_non_distinct_right(self, ray_session):
        # duplicated right keys must not duplicate output rows
        from karta_ray.stages.bloomjoin import bloom_semi_join

        lk = np.arange(100)
        rk = np.array([5, 5, 5, 17, 17, 99])
        left, right = _mk(lk, rk, 3, 2)
        got = bloom_semi_join(left, right, key="l_orderkey",
                              right_distinct=False).to_pandas()
        assert sorted(got["l_orderkey"].tolist()) == [5, 17, 99]


class TestBloomAntiJoin:
    def test_exact_anti_parity(self, ray_session):
        import ray

        from karta_ray.stages.bloomjoin import bloom_semi_join

        rng = np.random.RandomState(5)
        lk = rng.randint(0, 3000, 20000).astype(np.int64)
        rk = np.unique(rng.choice(3000, 400, replace=False)).astype(
            np.int64)
        left = pa.table({"k": pa.array(lk),
                         "x": pa.array(np.arange(len(lk), dtype=np.int64))})
        right = pa.table({"k": pa.array(rk)})
        out = bloom_semi_join(
            ray.data.from_arrow(left).repartition(7),
            ray.data.from_arrow(right), key="k", anti=True,
            m_bits=1 << 12)  # tiny bitmap -> plenty of FPs to verify
        got = sorted((r["k"], r["x"]) for r in out.take_all())
        rset = set(rk.tolist())
        exp = sorted((int(k), int(x)) for k, x in zip(lk, range(len(lk)))
                     if int(k) not in rset)
        assert got == exp

    def test_approx_anti_is_subset(self, ray_session):
        import ray

        from karta_ray.stages.bloomjoin import bloom_semi_join

        rng = np.random.RandomState(6)
        lk = rng.randint(0, 500, 5000).astype(np.int64)
        rk = np.arange(0, 100, dtype=np.int64)
        left = pa.table({"k": pa.array(lk)})
        right = pa.table({"k": pa.array(rk)})
        out = bloom_semi_join(ray.data.from_arrow(left),
                              ray.data.from_arrow(right), key="k",
                              anti=True, exact=False, m_bits=1 << 10)
        got = [r["k"] for r in out.take_all()]
        assert all(k >= 100 for k in got)  # no false "non-member"

    def test_hot_left_key_straddles_blocks(self, ray_session):
        # one left key with 200k rows spanning every sorted block: the
        # verify residue must shard (right key row replicates, left
        # rows spread) and stay exact for both semi and anti
        import ray

        from karta_ray.stages.bloomjoin import bloom_semi_join

        n = 200_000
        lk = np.concatenate([np.full(n, 7, dtype=np.int64),
                             np.arange(100, 160, dtype=np.int64)])
        left = pa.table({"k": pa.array(lk),
                         "x": pa.array(np.arange(len(lk), dtype=np.int64))})
        right = pa.table({"k": pa.array(np.array([7, 100], np.int64))})
        semi = bloom_semi_join(ray.data.from_arrow(left).repartition(16),
                               ray.data.from_arrow(right), key="k",
                               m_bits=1 << 12)
        assert semi.count() == n + 1
        anti = bloom_semi_join(ray.data.from_arrow(left).repartition(16),
                               ray.data.from_arrow(right), key="k",
                               anti=True, m_bits=1 << 12)
        assert anti.count() == 59


class TestBuildBloom:
    def test_bitmap_is_or_of_block_bitmaps(self, ray_session):
        import ray

        from karta_ray.stages.bloomjoin import _positions, build_bloom

        m_bits, n_hashes = 1 << 12, 3
        rng = np.random.RandomState(9)
        blocks = [pa.table({"k": rng.randint(0, 10**6, n).astype(np.int64)})
                  for n in (300, 0, 41, 1, 700)]
        want = np.zeros(m_bits // 8, dtype=np.uint8)
        for b in blocks:
            bm = np.zeros(m_bits // 8, dtype=np.uint8)
            pos = _positions(b.column("k").to_numpy(), m_bits, n_hashes).ravel()
            np.bitwise_or.at(bm, pos >> 3,
                             np.uint8(1) << (pos & 7).astype(np.uint8))
            want |= bm
        got = ray.get(build_bloom(ray.data.from_arrow(blocks), key="k",
                                  m_bits=m_bits, n_hashes=n_hashes))
        assert np.array_equal(got, want)
        empty = ray.get(build_bloom(ray.data.from_arrow(blocks[1]), key="k",
                                    m_bits=m_bits, n_hashes=n_hashes))
        assert np.array_equal(empty, np.zeros(m_bits // 8, dtype=np.uint8))
