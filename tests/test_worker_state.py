"""The per-worker stage-state helper (karta_ray/state/worker.py)."""

import os
import uuid

import pyarrow as pa
import pytest

from karta_ray.state.worker import cached, resolve

BLOCKS = 48


def _probes():
    """Two stateful stages whose every build gets a fresh id; each output
    row records the build that produced it and the worker process.
    Defined in a function so tasks carry them by value (workers cannot
    import test modules), as they carry any closure-local stage class."""

    class ProbeA:
        tag = "a"

        def __init__(self, ref):
            self.state = resolve(ref)
            self.build = uuid.uuid4().hex

        def __call__(self, batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols = {"build": self.build, "pid": os.getpid(),
                    "state": self.state}
            for k, v in cols.items():
                batch = batch.append_column(f"{self.tag}_{k}",
                                            pa.array([v] * n))
            return batch

    class ProbeB(ProbeA):
        tag = "b"

    return ProbeA, ProbeB


def test_resolve_passes_values_through():
    value = {"x": 1}
    assert resolve(value) is value


def test_cached_keys_on_args_and_keeps_one_entry():
    builds = []

    def build(*args):
        builds.append(args)
        return object()

    a = cached(build, 1, "x")
    assert cached(build, 1, "x") is a
    b = cached(build, 2, "x")
    assert b is not a and cached(build, 2, "x") is b
    # one live entry per builder: going back to the old key rebuilds
    assert cached(build, 1, "x") is not a
    assert builds == [(1, "x"), (2, "x"), (1, "x")]


@pytest.mark.usefixtures("ray_session")
class TestOnWorkers:
    def test_resolve_gets_objectrefs(self):
        import ray

        assert resolve(ray.put({"x": 1})) == {"x": 1}

    def test_objectref_keyed_by_id_not_identity(self):
        import ray

        probe, _ = _probes()
        ref = ray.put(3)
        first = cached(probe, ref)
        assert first.state == 3
        # a distinct ObjectRef object for the same object (what a worker
        # gets after unpickling) hits the same entry
        assert cached(probe, ray.ObjectRef(ref.binary())) is first

    def test_builds_at_most_once_per_worker_process(self):
        import ray
        import ray.data

        probe, _ = _probes()
        ref = ray.put(7)

        def stage(batch):
            return cached(probe, ref)(batch)

        df = (ray.data.range(BLOCKS, override_num_blocks=BLOCKS)
              .map_batches(stage, batch_format="pyarrow").to_pandas())
        assert len(df) == BLOCKS and (df["a_state"] == 7).all()
        assert df["a_build"].nunique() <= df["a_pid"].nunique()
        assert df["a_build"].nunique() < BLOCKS  # not once per task

    def test_fused_stages_build_once_each(self):
        import ray
        import ray.data

        probe_a, probe_b = _probes()
        ref_a, ref_b = ray.put(1), ray.put(2)

        def stage_a(batch):
            return cached(probe_a, ref_a)(batch)

        def stage_b(batch):
            return cached(probe_b, ref_b)(batch)

        ds = (ray.data.range(BLOCKS, override_num_blocks=BLOCKS)
              .map_batches(stage_a, batch_format="pyarrow")
              .map_batches(stage_b, batch_format="pyarrow")).materialize()
        assert "MapBatches(stage_a)->MapBatches(stage_b)" in ds.stats()
        df = ds.to_pandas()
        assert len(df) == BLOCKS
        assert (df["a_pid"] == df["b_pid"]).all()
        assert (df["a_state"] == 1).all() and (df["b_state"] == 2).all()
        pids = df["a_pid"].nunique()
        assert df["a_build"].nunique() <= pids
        assert df["b_build"].nunique() <= pids
