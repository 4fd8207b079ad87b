import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

# fixture files of the reference karta checkout, expected next to this repo
REFERENCE_DATA = os.path.join(os.path.dirname(REPO), "reference", "tests",
                              "data")


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
