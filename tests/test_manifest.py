"""Checkpoint manifest + resume behavior."""

import json
import os

import numpy as np
import pyarrow as pa
import pytest

from karta_ray.pipelines.manifest import CheckpointedPipeline


@pytest.mark.usefixtures("ray_session")
class TestCheckpointResume:
    def _run(self, root, calls):
        import ray.data

        pipe = CheckpointedPipeline(root)

        def s1(_):
            calls.append("s1")
            return ray.data.from_arrow(pa.table({
                "k": pa.array(np.arange(100, dtype=np.int64)),
                "v": pa.array(np.arange(100, dtype=np.int64) * 2)}))

        def s2(prev):
            calls.append("s2")
            return prev.map_batches(
                lambda b: b.append_column(
                    "w", pa.array(b.column("v").to_numpy() + 1)),
                batch_format="pyarrow")

        pipe.stage("ingest", s1)
        out = pipe.stage("transform", s2)
        return pipe, out

    def test_manifest_written_and_resume_skips(self, tmp_path):
        root = str(tmp_path / "ckpt")
        calls = []
        pipe, out = self._run(root, calls)
        assert calls == ["s1", "s2"]
        assert pipe.executed == ["ingest", "transform"]
        man = json.load(open(os.path.join(root, "transform", "_MANIFEST.json")))
        assert man["complete"] and man["rows"] == 100
        assert man["input_stage"] == "ingest"
        assert len(man["partitions"]) >= 1
        assert all(p["rows"] > 0 for p in man["partitions"])

        # second run: everything resumes from checkpoint, no recompute
        calls2 = []
        pipe2, out2 = self._run(root, calls2)
        assert calls2 == []
        assert pipe2.skipped == ["ingest", "transform"]
        df = out2.to_pandas().sort_values("k").reset_index(drop=True)
        assert (df["w"] == df["k"] * 2 + 1).all()

    def test_upstream_change_invalidates_downstream(self, tmp_path):
        import ray.data

        root = str(tmp_path / "ckpt2")
        calls = []
        self._run(root, calls)

        # tamper with the upstream digest -> downstream must recompute
        man_path = os.path.join(root, "ingest", "_MANIFEST.json")
        man = json.load(open(man_path))
        man["digest"] = "deadbeef"
        json.dump(man, open(man_path, "w"))

        calls2 = []
        pipe2, _ = self._run(root, calls2)
        assert "s2" in calls2         # transform recomputed
        assert "s1" not in calls2     # ingest itself still resumed


@pytest.mark.usefixtures("ray_session")
class TestFlagshipCheckpointed:
    def test_end_to_end_and_resume(self, tmp_path):
        import pyarrow.parquet as pq
        from conftest import pages_table

        from karta_ray.pipelines.flagship import flagship_checkpointed

        pages_dir = str(tmp_path / "pages")
        os.makedirs(pages_dir)
        pq.write_table(pages_table(800), f"{pages_dir}/part0.parquet")

        root = str(tmp_path / "ckpt")
        agg1, pipe1 = flagship_checkpointed(pages_dir, root)
        df1 = agg1.to_pandas().sort_values(["poly_id", "cell_id"]).reset_index(drop=True)
        assert pipe1.executed == ["extract", "cells", "join", "aggregate"]
        assert len(df1) > 0

        # resume: everything served from checkpoints
        agg2, pipe2 = flagship_checkpointed(pages_dir, root)
        df2 = agg2.to_pandas().sort_values(["poly_id", "cell_id"]).reset_index(drop=True)
        assert pipe2.executed == []
        assert pipe2.skipped == ["extract", "cells", "join", "aggregate"]
        assert df1.equals(df2)
