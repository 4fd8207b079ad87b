import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

# fixture files of the reference karta checkout, expected next to this repo
REFERENCE_DATA = os.path.join(os.path.dirname(REPO), "reference", "tests",
                              "data")


def pages_table(n: int, start: int = 0):
    """n synthetic pages (``karta_ray.synth.make_pages``) with ids
    start..start+n, built on the driver."""
    import numpy as np

    from karta_ray import synth

    return synth.make_pages({"id": np.arange(start, start + n,
                                             dtype=np.int64)})


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver guidance): tests
    that exercise Ray Data stages request this fixture; pure-kernel tests
    don't, so they run without starting Ray."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True)
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def reference_data():
    """Path of the reference checkout's test-data directory; a test that
    requests it is skipped when the checkout is absent."""
    if not os.path.isdir(REFERENCE_DATA):
        pytest.skip(f"reference test data not present at {REFERENCE_DATA}")
    return REFERENCE_DATA


@pytest.fixture
def executed_ops(monkeypatch):
    """The physical operators of every streaming-executor run the test
    starts: one list per run, each operator once."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    runs = []
    execute = StreamingExecutor.execute

    def recording(self, dag, *args, **kwargs):
        ops, todo = {}, [dag]
        while todo:
            op = todo.pop()
            if id(op) not in ops:
                ops[id(op)] = op
                todo += op.input_dependencies
        runs.append(list(ops.values()))
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", recording)
    return runs


# the sf0.001 scale of the generated test data (TESTDATA.md), expected
# next to this repo
SF0001 = os.path.join(os.path.dirname(REPO), "testdata", "sf0.001")


@pytest.fixture(scope="session")
def zero_row_sf(tmp_path_factory):
    """A directory of zero-row copies of the ten sf0.001 tables (same
    schemas); a test that requests it is skipped without the data."""
    import pyarrow.parquet as pq

    if not os.path.isdir(SF0001):
        pytest.skip(f"testdata not present at {SF0001}")
    d = tmp_path_factory.mktemp("sf_zero_rows")
    for f in sorted(os.listdir(SF0001)):
        if f.endswith(".parquet"):
            tbl = pq.read_table(os.path.join(SF0001, f))
            pq.write_table(tbl.slice(0, 0), str(d / f))
    return str(d)
