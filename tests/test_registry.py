"""The driver-query registry (karta_ray/pipelines/registry.py): every
query is registered once with its DuckDB oracle, the driver surface
lists all of them, and every oracle binds against the testdata schema."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from karta_ray.pipelines import registry

SF = "/root/testdata/sf0.001"
N_QUERIES = 88


def test_queries_and_oracles_share_keys():
    qs, sqls = registry.queries(), registry.oracle_sql()
    assert set(qs) == set(sqls)
    assert len(qs) == N_QUERIES
    assert all(isinstance(s, str) and s.strip() for s in sqls.values())


def test_driver_contract_delegates_to_registry():
    import __ray_entry__

    assert set(__ray_entry__.queries()) == set(registry.queries())
    assert __ray_entry__.oracle_sql() == registry.oracle_sql()


def test_query_name_comes_from_function():
    for name, fn in registry.queries().items():
        assert fn.__name__ == "q_" + name
        assert fn.__wrapped__.__name__ == "q_" + name


def test_second_registration_raises():
    registry.queries()  # import every query module first
    before = registry.oracle_sql()

    with pytest.raises(ValueError, match="q_tile_assign"):
        @registry.query(oracle=lambda: "SELECT 1")
        def q_tile_assign(sf_dir):
            return None

    with pytest.raises(ValueError, match="not_a_query"):
        @registry.query(oracle=lambda: "SELECT 1")
        def not_a_query(sf_dir):
            return None

    assert registry.oracle_sql() == before


def test_empty_dataset_result_keeps_schema(ray_session, tmp_path):
    # two unrelated documents: no near-duplicate pair, so the engine
    # returns an empty Dataset; the registry hands back a typed empty
    # Arrow table so the schema survives to_pandas()
    texts = ["the quick brown fox jumps over the lazy dog",
             "0123456789 zyxwvutsrq ponmlkjihg fedcba"]
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(2, dtype=np.int64)),
        "text": pa.array(texts),
    }), tmp_path / "documents.parquet")

    out = registry.queries()["ngram_jaccard"](str(tmp_path))
    assert isinstance(out, pa.Table)
    assert out.num_rows == 0
    assert out.schema.names == ["doc_a", "doc_b", "n_shared"]
    assert all(pa.types.is_int64(t) for t in out.schema.types)
    assert list(out.to_pandas().columns) == ["doc_a", "doc_b", "n_shared"]


def test_schema_less_empty_result_raises(ray_session):
    # a row map over an all-empty input leaves Ray without a schema, and
    # state.empty cannot read one off a row map; the registry names the
    # query instead of failing on the missing schema
    import ray.data

    typed_empty = pa.table({"a": pa.array([], pa.int64())})

    def q_schema_less(sf_dir):
        return ray.data.from_blocks([typed_empty]).map(lambda r: r)

    with pytest.raises(ValueError, match="q_schema_less"):
        registry._keep_schema_when_empty(q_schema_less)("unused")


@pytest.mark.skipif(not os.path.isdir(SF), reason=f"testdata not present at {SF}")
def test_every_oracle_binds_in_duckdb():
    import duckdb

    con = duckdb.connect()
    for f in sorted(os.listdir(SF)):
        if f.endswith(".parquet"):
            con.execute(f"CREATE VIEW {f[:-len('.parquet')]} AS SELECT * "
                        f"FROM read_parquet('{SF}/{f}')")
    bad = {}
    for name, sql in registry.oracle_sql().items():
        try:
            con.execute(f"EXPLAIN {sql}")
        except duckdb.Error as exc:
            bad[name] = str(exc).splitlines()[0]
    assert not bad, bad
