"""Salted-groupby skew handling + distributed hull aggregation."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.mark.usefixtures("ray_session")
class TestSaltedGroupby:
    def test_salted_count_matches_plain(self):
        import ray.data

        from karta_ray.stages.skew import add_salt, detect_hot_keys, salted_count

        rng = np.random.RandomState(0)
        # heavy-tailed keys: one key holds 50% of rows
        keys = np.where(rng.rand(20000) < 0.5, 7,
                        rng.randint(100, 200, 20000)).astype(np.int64)
        ds = ray.data.from_arrow(pa.table({"cell_id": pa.array(keys)}))

        hot, _ = detect_hot_keys(ds, "cell_id", sample_fraction=0.2,
                                 hot_fraction=0.05, min_rows=10)
        assert 7 in hot.tolist()

        got = salted_count(ds, "cell_id", salts=8,
                           sample_fraction=0.2).to_pandas()
        got = got.set_index("cell_id")["n"]
        want = {}
        for k in keys:
            want[k] = want.get(k, 0) + 1
        assert got.to_dict() == want

    def test_detect_hot_keys_high_cardinality_bounded_transfer(self):
        import ray.data

        from karta_ray.stages.skew import detect_hot_keys

        rng = np.random.RandomState(3)
        # url-grade cardinality: ~20k distinct keys, one key hot
        uniq = np.arange(1_000_000, 1_020_000, dtype=np.int64)
        keys = np.concatenate([uniq, np.full(5000, 42, dtype=np.int64)])
        rng.shuffle(keys)
        ds = ray.data.from_arrow(pa.table({"url_id": pa.array(keys)}))

        hot, counts = detect_hot_keys(ds, "url_id", sample_fraction=0.3,
                                      hot_fraction=0.05, min_rows=10)
        assert hot.tolist() == [42]
        # the driver-side result is the SURVIVORS only, not every
        # distinct sampled key (the r02 driver-OOM shape)
        assert len(counts) <= 1 + int(1 / 0.05)

    def test_detect_hot_keys_none_hot(self):
        # no key passes the threshold: no survivor rows reach the driver
        import ray.data

        from karta_ray.stages.skew import detect_hot_keys

        keys = np.arange(20_000, dtype=np.int64) % 5_000
        ds = ray.data.from_arrow(pa.table({"k": pa.array(keys)}))
        hot, counts = detect_hot_keys(ds, "k", sample_fraction=0.5,
                                      min_rows=10)
        assert hot.tolist() == [] and counts == {}

    def test_detect_hot_keys_bounded_fast_path(self):
        import ray.data

        from karta_ray.stages.skew import detect_hot_keys

        keys = np.array([7] * 900 + list(range(100)), dtype=np.int64)
        ds = ray.data.from_arrow(pa.table({"cell_id": pa.array(keys)}))
        hot, counts = detect_hot_keys(ds, "cell_id", sample_fraction=0.5,
                                      hot_fraction=0.1, min_rows=10,
                                      bounded_cardinality=True)
        assert hot.tolist() == [7]
        assert len(counts) >= 30  # fast path returns all sampled keys

    def test_salt_column_splits_hot_keys(self):
        import ray.data

        from karta_ray.stages.skew import add_salt

        keys = np.array([7] * 1000 + [1, 2, 3], dtype=np.int64)
        ds = ray.data.from_arrow(pa.table({"cell_id": pa.array(keys)}))
        out = add_salt(ds, "cell_id", [7], salts=8).to_pandas()
        hot_salts = out[out.cell_id == 7]["salt"].nunique()
        cold_salts = out[out.cell_id != 7]["salt"].unique().tolist()
        assert hot_salts > 1          # hot key fanned out
        assert cold_salts == [0]      # cold keys unsalted


@pytest.mark.usefixtures("ray_session")
class TestHullAgg:
    def test_distributed_hull_matches_kernel(self):
        import ray.data

        from karta_ray.kernels import hull as HK
        from karta_ray.stages.hullagg import convex_hull

        rng = np.random.RandomState(4)
        pts = rng.randn(5000, 2) * np.array([30, 15]) + np.array([10, 5])
        ds = ray.data.from_arrow(pa.table({
            "lon": pa.array(pts[:, 0]), "lat": pa.array(pts[:, 1])
        })).repartition(8)
        got = convex_hull(ds).to_pandas()
        want_idx = HK.convex_hull_planar(pts)
        want = pts[want_idx]
        got_v = got.sort_values("order")[["x", "y"]].to_numpy()
        assert got_v.shape == want.shape
        np.testing.assert_allclose(got_v, want, atol=1e-12)
