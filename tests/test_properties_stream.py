"""Property tests (hypothesis) for the round-5 pure helpers whose
invariants the distributed plans rest on:

- stream._collapse: the session-interval merge must be ASSOCIATIVE over
  time-contiguous fragments (collapse(collapse(A) + collapse(B)) ==
  collapse(A + B)) — this is exactly what makes exporting pre-collapsed
  per-block partials to the residue sound.
- agg.side_residue_sharder: every shard-side row lands in exactly one
  sub-residue, every shared-side row in all of them, a group's shard
  base is consistent across separately-sharded batches, and distinct
  groups of the tested key domain never share a base.
"""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st


def _intervals_table(keys, starts, lens, ns):
    order = np.lexsort((starts, keys))
    k = np.asarray(keys, np.int64)[order]
    s = np.asarray(starts, np.int64)[order]
    ln = np.asarray(lens, np.int64)[order]
    n = np.asarray(ns, np.int64)[order]
    # make intervals disjoint per key by cumulative shifting
    out_s = s.copy()
    out_e = s + ln
    for key in np.unique(k):
        m = np.flatnonzero(k == key)
        shift = 0
        prev_end = None
        for i in m:
            out_s[i] = s[i] + shift
            if prev_end is not None and out_s[i] <= prev_end:
                shift += prev_end - out_s[i] + 1
                out_s[i] = s[i] + shift
            out_e[i] = out_s[i] + ln[i]
            prev_end = out_e[i]
    return pa.table({"user_id": pa.array(k), "start_us": pa.array(out_s),
                     "end_us": pa.array(out_e), "n": pa.array(n)})


events = st.lists(
    st.tuples(st.integers(0, 3),          # key
              st.integers(0, 500),        # start seed
              st.integers(0, 20),         # length
              st.integers(1, 5)),         # weight
    min_size=1, max_size=40)


class TestCollapseProperties:
    @given(events, st.integers(0, 30), st.integers(1, 39))
    @settings(max_examples=200, deadline=None)
    def test_fragment_associativity(self, rows, gap, cut):
        from karta_ray.stages.stream import _collapse

        keys, starts, lens, ns = zip(*rows)
        tbl = _intervals_table(keys, starts, lens, ns)
        whole = _collapse(tbl, "user_id", gap)
        # any per-key time-contiguous split: take the first `cut` rows
        # (table is (key, start)-sorted, so a row index cut IS a
        # per-key time cut)
        cut = min(cut, tbl.num_rows)
        a = _collapse(tbl.slice(0, cut), "user_id", gap)
        b = _collapse(tbl.slice(cut), "user_id", gap)
        again = _collapse(pa.concat_tables([a, b]), "user_id", gap)
        assert again.equals(whole)

    @given(events, st.integers(0, 30))
    @settings(max_examples=100, deadline=None)
    def test_counts_and_coverage_preserved(self, rows, gap):
        from karta_ray.stages.stream import _collapse

        keys, starts, lens, ns = zip(*rows)
        tbl = _intervals_table(keys, starts, lens, ns)
        out = _collapse(tbl, "user_id", gap)
        assert (out.column("n").to_numpy().sum()
                == tbl.column("n").to_numpy().sum())
        # merged intervals of one key are separated by more than gap
        k = out.column("user_id").to_numpy()
        s = out.column("start_us").to_numpy()
        e = out.column("end_us").to_numpy()
        same = k[1:] == k[:-1]
        assert ((s[1:] - e[:-1])[same] > gap).all()
        assert (e >= s).all()


class TestSharderProperties:
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2),
                              st.booleans()),
                    min_size=1, max_size=60),
           st.integers(2, 8))
    @settings(max_examples=150, deadline=None)
    def test_exactly_once_and_replication(self, rows, shards):
        from karta_ray.stages.agg import side_residue_sharder

        rows = sorted(rows)
        tbl = pa.table({
            "k": pa.array([r[0] for r in rows], pa.int64()),
            "bucket": pa.array([r[1] for r in rows], pa.int64()),
            "side": pa.array([1 if r[2] else 0 for r in rows], pa.int8()),
            "rid": pa.array(np.arange(len(rows), dtype=np.int64)),
        })
        # sort side-major within group like the callers do
        tbl = tbl.sort_by([("k", "ascending"), ("bucket", "ascending"),
                           ("side", "ascending")])
        out = side_residue_sharder(["k", "bucket"], shards=shards)(
            tbl).to_pandas()
        src = tbl.to_pandas()
        for _, r in src.iterrows():
            mine = out[out.rid == r.rid]
            if r.side == 1:
                assert len(mine) == 1                  # exactly once
            else:
                assert len(mine) == shards             # replicated
                assert mine._rshard.nunique() == shards
        # group base consistency: all rows of one (k, bucket) stay in
        # one contiguous shard-id range of width `shards`
        for (_k, _b), grp in out.groupby(["k", "bucket"]):
            bases = set(grp._rshard // shards)
            assert len(bases) == 1

    @given(st.integers(0, 100), st.integers(0, 5), st.integers(2, 8))
    @settings(max_examples=50, deadline=None)
    def test_base_consistent_across_batches(self, key, bucket, shards):
        # fragments of one group sharded in SEPARATE batches (different
        # blocks) must map to the same sub-residue base
        from karta_ray.stages.agg import side_residue_sharder

        sh = side_residue_sharder(["k", "bucket"], shards=shards)

        def base(n_rows):
            t = pa.table({
                "k": pa.array([key] * n_rows, pa.int64()),
                "bucket": pa.array([bucket] * n_rows, pa.int64()),
                "side": pa.array([0] * n_rows, pa.int8()),
            })
            out = sh(t)
            return set(out.column("_rshard").to_numpy() // shards)

        assert base(1) == base(7)

    @given(st.integers(2, 8))
    @settings(max_examples=7, deadline=None)
    def test_bases_distinct_over_key_domain(self, shards):
        # every (k, bucket) group the tests above draw from gets its own
        # base, so their shard ids cannot collide
        from karta_ray.stages.agg import side_residue_sharder

        k, bucket = np.meshgrid(np.arange(101), np.arange(6), indexing="ij")
        t = pa.table({"k": pa.array(k.ravel(), pa.int64()),
                      "bucket": pa.array(bucket.ravel(), pa.int64()),
                      "side": pa.array(np.zeros(k.size, np.int8))})
        out = side_residue_sharder(["k", "bucket"], shards=shards)(t)
        sh = out.column("_rshard").to_numpy()
        assert sh.min() >= 0
        assert len(np.unique(sh // shards)) == k.size
