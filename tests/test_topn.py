"""Distributed grouped top-N (stages/topn.py): brute-force parity,
hot-key blocks, ascending order, n larger than group, determinism
across partitionings."""

import numpy as np
import pyarrow as pa


def _table(n=20000, nk=1500, seed=11):
    rng = np.random.RandomState(seed)
    return pa.table({
        "k": pa.array(rng.randint(0, nk, n)),
        "v": pa.array(rng.randint(0, 500, n).astype("float64")),
        "id": pa.array(np.arange(n, dtype=np.int64)),
    })


def _brute(t, n, ascending=False):
    pdf = t.to_pandas().sort_values(["k", "v", "id"],
                                    ascending=[True, ascending, True])
    return (pdf.groupby("k").head(n)
            .sort_values(["k", "v", "id"],
                         ascending=[True, ascending, True])
            .reset_index(drop=True))


def _run(t, n, n_blocks, descending=True):
    import ray

    from karta_ray.stages.topn import grouped_topn

    out = grouped_topn(ray.data.from_arrow(t).repartition(n_blocks),
                       ["k"], "v", n, descending=descending,
                       tie_cols=["id"])
    return (out.to_pandas()
            .sort_values(["k", "v", "id"],
                         ascending=[True, not descending, True])
            .reset_index(drop=True))


class TestGroupedTopN:
    def test_matches_brute_force(self, ray_session):
        t = _table()
        assert _run(t, 3, 13).equals(_brute(t, 3))

    def test_partitioning_invariant(self, ray_session):
        t = _table(8000, 300)
        assert _run(t, 2, 1).equals(_run(t, 2, 19))

    def test_ascending(self, ray_session):
        t = _table(6000, 200)
        assert _run(t, 2, 7, descending=False).equals(
            _brute(t, 2, ascending=True))

    def test_hot_key_straddles_blocks(self, ray_session):
        rng = np.random.RandomState(3)
        t = pa.table({
            "k": pa.array(np.zeros(40000, dtype=np.int64)),
            "v": pa.array(rng.permutation(40000).astype("float64")),
            "id": pa.array(np.arange(40000, dtype=np.int64)),
        })
        out = _run(t, 4, 21)
        assert out.v.tolist() == [39999.0, 39998.0, 39997.0, 39996.0]

    def test_n_exceeds_group_size(self, ray_session):
        t = _table(50, 40)
        out = _run(t, 10, 5)
        assert out.equals(_brute(t, 10))
        assert len(out) == 50  # every row survives


class TestGlobalTopk:
    def test_ties_at_kth_row_broken_by_tie_cols(self, ray_session):
        # ~1500 rows share each value, spread over every block, so the
        # k-th row ties with hundreds of others: which of them survive
        # is decided by the trailing id key alone
        import ray

        from karta_ray.stages.topn import global_topk

        rng = np.random.RandomState(5)
        n, k = 6000, 50
        t = pa.table({"v": pa.array(rng.randint(0, 4, n).astype("float64")),
                      "id": pa.array(rng.permutation(n).astype(np.int64))})
        want = (t.to_pandas().sort_values(["v", "id"], ascending=[False, True])
                .head(k).reset_index(drop=True))
        for n_blocks in (1, 7, 16):
            got = global_topk(ray.data.from_arrow(t).repartition(n_blocks),
                              ["v", "id"], k, descending=[True, False])
            got = (got.to_pandas().sort_values(["v", "id"],
                                               ascending=[False, True])
                   .reset_index(drop=True))
            assert got.equals(want), n_blocks
