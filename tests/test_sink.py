"""Resumable partitioned sink: shard routing determinism, crash-resume
(finished shards skipped at the filter, not recomputed), atomic shard
manifests, read-back integrity."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from karta_ray.stages import sink as S


@pytest.mark.usefixtures("ray_session")
class TestResumableSink:
    def _ds(self, n=5000):
        import ray.data

        rng = np.random.RandomState(0)
        tbl = pa.table({
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "value": pa.array(rng.randn(n)),
        })
        return ray.data.from_arrow(tbl).repartition(8)

    def test_full_write_and_readback(self, tmp_path):
        root = str(tmp_path / "out")
        metrics = S.resumable_parquet_sink(
            self._ds(), root, by="doc_id", shards=16).to_pandas()
        assert metrics.rows.sum() == 5000
        assert len(metrics) == len(S.completed_shards(root)) <= 16
        back = S.read_sink(root).to_pandas()
        assert len(back) == 5000
        assert sorted(back.doc_id) == list(range(5000))

    def test_routing_is_deterministic(self):
        for keys in (pa.array(np.arange(1000, dtype=np.int64)),
                     pa.array([f"doc-{i}" for i in range(1000)])):
            a = S._shard_ids(keys, 32)
            b = S._shard_ids(keys, 32)
            assert np.array_equal(a, b)
            # spread: no shard holds more than 3x the fair share
            counts = np.bincount(a, minlength=32)
            assert counts.max() < 3 * 1000 / 32

    def test_resume_skips_complete_shards(self, tmp_path):
        root = str(tmp_path / "out")
        ds = self._ds()
        S.resumable_parquet_sink(ds, root, by="doc_id", shards=16)
        all_shards = sorted(S.completed_shards(root))

        # simulate a crash: delete manifests (and data) of 5 shards
        broken = all_shards[:5]
        import shutil
        for s in broken:
            shutil.rmtree(S._shard_dir(root, s))

        # record mtimes of the surviving shard files
        surviving = {s: os.path.getmtime(
            os.path.join(S._shard_dir(root, s), "part-0.parquet"))
            for s in all_shards[5:]}

        metrics = S.resumable_parquet_sink(
            ds, root, by="doc_id", shards=16).to_pandas()
        # only the broken shards were recomputed
        redone = metrics[~metrics.skipped]
        assert sorted(redone.shard) == broken
        skipped = metrics[metrics.skipped]
        assert sorted(skipped.shard) == all_shards[5:]
        # surviving files untouched (no rewrite of finished partitions)
        for s, mt in surviving.items():
            assert os.path.getmtime(os.path.join(
                S._shard_dir(root, s), "part-0.parquet")) == mt
        # final state complete and correct
        back = S.read_sink(root).to_pandas()
        assert sorted(back.doc_id) == list(range(5000))

    def test_shard_manifest_contents(self, tmp_path):
        root = str(tmp_path / "out")
        S.resumable_parquet_sink(self._ds(100), root, by="doc_id",
                                 shards=4)
        s = sorted(S.completed_shards(root))[0]
        man = json.load(open(os.path.join(S._shard_dir(root, s),
                                          S.SHARD_MANIFEST)))
        assert man["key"] == "doc_id"
        assert man["shards"] == 4
        assert man["rows"] > 0
        md = pq.read_metadata(os.path.join(S._shard_dir(root, s),
                                           man["files"][0]))
        assert md.num_rows == man["rows"]

    def test_resume_with_changed_params_refuses(self, tmp_path):
        # ADVICE r03: a re-run with a different shard count (or key)
        # over a partially-written root silently skipped shards whose
        # data was hashed with a different modulus — must raise instead
        import pytest

        root = str(tmp_path / "out")
        S.resumable_parquet_sink(self._ds(200), root, by="doc_id",
                                 shards=4)
        with pytest.raises(ValueError, match="shards=4"):
            S.resumable_parquet_sink(self._ds(200), root, by="doc_id",
                                     shards=8)
        with pytest.raises(ValueError, match="key='doc_id'"):
            S.resumable_parquet_sink(self._ds(200), root, by="other",
                                     shards=4)
        # same params: still resumable (all shards skip)
        m = S.resumable_parquet_sink(self._ds(200), root, by="doc_id",
                                     shards=4).to_pandas()
        assert m.skipped.all()
        # a manifest that names no routing hash, or another one, was
        # routed differently
        path = os.path.join(S._shard_dir(root, sorted(
            S.completed_shards(root))[0]), S.SHARD_MANIFEST)
        man = json.load(open(path))
        for other in (None, "knuth"):
            man["hash"] = other
            json.dump(man, open(path, "w"))
            with pytest.raises(ValueError, match="hash="):
                S.resumable_parquet_sink(self._ds(200), root, by="doc_id",
                                         shards=4)

    def test_string_key_write_and_resume(self, tmp_path):
        import ray.data
        import shutil

        root = str(tmp_path / "out")
        names = [f"doc-{i}" for i in range(2000)]
        ds = ray.data.from_arrow(pa.table({
            "name": pa.array(names),
            "value": pa.array(np.arange(2000, dtype=np.int64))})
        ).repartition(4)
        S.resumable_parquet_sink(ds, root, by="name", shards=8)
        all_shards = sorted(S.completed_shards(root))
        assert len(all_shards) == 8
        for s in all_shards[:3]:
            shutil.rmtree(S._shard_dir(root, s))
        metrics = S.resumable_parquet_sink(ds, root, by="name",
                                           shards=8).to_pandas()
        assert sorted(metrics[~metrics.skipped].shard) == all_shards[:3]
        assert sorted(metrics[metrics.skipped].shard) == all_shards[3:]
        back = S.read_sink(root).to_pandas()
        assert sorted(back.name) == sorted(names)
        # every row sits in the shard its key hashes to
        for s in all_shards:
            part = pq.read_table(os.path.join(S._shard_dir(root, s),
                                              "part-0.parquet"))
            assert (S._shard_ids(part.column("name"), 8) == s).all()

    def test_read_sink_empty_root_raises_clearly(self, tmp_path):
        import pytest

        root = str(tmp_path / "nothing")
        os.makedirs(root)
        with pytest.raises(FileNotFoundError, match="no completed shards"):
            S.read_sink(root)
