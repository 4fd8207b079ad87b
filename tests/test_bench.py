"""bench.py's child entry: one fresh-process headline measurement whose
aggregate is checked against the expected counts cached beside the
pages dir, a loud failure when the two disagree, and a rev's headline
that runs the rev's own worker code."""

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

import bench  # noqa: E402


@pytest.fixture(scope="module")
def pages_dir(tmp_path_factory, ray_session):
    return bench.ensure_pages(2048, root=str(tmp_path_factory.mktemp("bench")))


def _child(repo: str, pages_dir: str):
    p = subprocess.run([sys.executable, os.path.join(REPO, "bench.py"), "--child",
                        repo, "2", pages_dir], capture_output=True, text=True,
                       timeout=900)
    return p, [line for line in p.stdout.splitlines() if line.startswith("{")]


def test_child_times_a_checked_headline(pages_dir):
    p, lines = _child(REPO, pages_dir)
    assert p.returncode == 0, p.stderr[-3000:]
    assert len(lines) == 1
    res = json.loads(lines[0])
    assert {"sec", "docs", "docs_per_sec", "rows", "checked"} <= res.keys()
    assert res["docs"] == 2048 and res["checked"]
    want = pq.read_table(bench.expected_path(pages_dir))
    assert res["rows"] == want.num_rows > 0

    # one corrupted expected count: non-zero exit, no result line
    n = want.column("n").to_numpy().copy()
    n[0] += 1
    pq.write_table(want.set_column(2, "n", pa.array(n)),
                   bench.expected_path(pages_dir))
    p, lines = _child(REPO, pages_dir)
    assert p.returncode != 0
    assert lines == []


def test_child_runs_the_revs_worker_code(pages_dir, tmp_path):
    """An A/B rev's map functions run from the rev's checkout, not from
    the working tree's: a rev whose per-block count raises fails."""
    shutil.copytree(os.path.join(REPO, "karta_ray"), tmp_path / "karta_ray",
                    ignore=shutil.ignore_patterns("__pycache__"))
    flagship = tmp_path / "karta_ray" / "pipelines" / "flagship.py"
    head = "def _partial_counts(batch: pa.Table) -> pa.Table:\n"
    src = flagship.read_text()
    assert head in src
    flagship.write_text(src.replace(
        head, head + "    raise RuntimeError('the rev worker code ran')\n"))
    p, lines = _child(str(tmp_path), pages_dir)
    assert p.returncode != 0 and lines == []
    assert "the rev worker code ran" in p.stderr
