"""state/empty.py: a result's zero-row output read off its Ray plan."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from karta_ray.state.empty import (UnreadPlan, empty_like, empty_result,
                                   materialize_typed)

pytestmark = pytest.mark.usefixtures("ray_session")

KV = pa.schema([("k", pa.int64()), ("v", pa.float64())])


def _source(rows: int = 0):
    import ray.data

    return ray.data.from_arrow(pa.table({
        "k": pa.array(np.arange(rows, dtype=np.int64)),
        "v": pa.array(np.ones(rows))}, schema=KV))


def _scaled(batch: pa.Table, a: float, *, c: float) -> pa.Table:
    return pa.table({"k": batch.column("k"),
                     "w": pa.array(batch.column("v").to_numpy() * a + c)})


def _group_size(group: pa.Table) -> pa.Table:
    return group.group_by("k").aggregate([([], "count_all")]) \
        .rename_columns(["k", "n"])


class _Scaler:
    def __init__(self, a: float):
        self.a = a

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _scaled(batch, self.a, c=0.0)


WV = pa.schema([("k", pa.int64()), ("w", pa.float64())])


class TestRayInternals:
    """The logical-operator fields the walk reads. A Ray upgrade that
    renames one fails here, not as a wrong empty answer."""

    def test_map_batches_fields(self):
        ds = _source().map_batches(_scaled, batch_format="pyarrow",
                                   fn_args=(2.0,), fn_kwargs={"c": 1.0})
        op = ds._logical_plan.dag
        assert type(op).__name__ == "MapBatches"
        assert op._fn is _scaled
        assert op._fn_args == (2.0,)
        assert op._fn_kwargs == {"c": 1.0}
        assert op._fn_constructor_args is None
        assert op._fn_constructor_kwargs is None
        assert op._batch_format == "pyarrow"
        assert empty_result(ds).schema == WV

    def test_class_udf_fields(self):
        ds = _source().map_batches(_Scaler, batch_format="pyarrow",
                                   fn_constructor_args=(3.0,),
                                   concurrency=1)
        op = ds._logical_plan.dag
        assert op._fn is _Scaler
        assert op._fn_constructor_args == (3.0,)
        assert empty_result(ds).schema == WV

    def test_project_fields(self):
        sel = _source().select_columns(["v"])
        assert sel._logical_plan.dag._cols == ["v"]
        ren = _source().rename_columns({"v": "w"})
        assert ren._logical_plan.dag._cols_rename == {"v": "w"}
        assert ren._logical_plan.dag._exprs is None
        assert empty_result(sel).schema == pa.schema([("v", pa.float64())])
        assert empty_result(ren).schema == WV

    @pytest.mark.parametrize("as_class", [False, True])
    def test_map_groups_wrapper_captures_udf(self, as_class):
        from karta_ray.state.empty import _captured

        udf = type("GroupSize", (), {"__call__": staticmethod(
            _group_size)}) if as_class else _group_size
        kw = {"concurrency": 1} if as_class else {}
        ds = _source().groupby("k").map_groups(udf, batch_format="pyarrow",
                                               **kw)
        fn = ds._logical_plan.dag._fn
        assert fn.__qualname__.endswith("map_groups.<locals>.wrapped_fn")
        init, call = (fn.__init__, fn.__call__) if as_class else (fn, fn)
        assert _captured(init, "fn") is udf
        assert _captured(call, "batch_format") == "pyarrow"
        # Ray's wrapper never calls the UDF on an empty block; the walk
        # calls it once
        assert empty_result(ds).schema == pa.schema(
            [("k", pa.int64()), ("n", pa.int64())])

    def test_join_fields(self):
        import ray.data

        right = ray.data.from_arrow(pa.table({
            "j": pa.array([], pa.int64()), "v": pa.array([], pa.string())}))
        ds = _source().join(right, "left_outer", num_partitions=1,
                            on=("k",), right_on=("j",),
                            left_suffix="_l", right_suffix="_r")
        op = ds._logical_plan.dag
        assert type(op).__name__ == "Join"
        assert op._left_key_columns == ("k",)
        assert op._right_key_columns == ("j",)
        assert op._join_type.value == "left_outer"
        assert (op._left_columns_suffix, op._right_columns_suffix) == \
            ("_l", "_r")
        assert empty_result(ds).schema == pa.schema([
            ("k", pa.int64()), ("v_l", pa.float64()),
            ("v_r", pa.string())])

    def test_pass_through_and_task_context(self):
        # random_sample's UDF reads the task context
        ds = (_source().random_sample(0.5, seed=1).sort("k").repartition(2)
              .random_shuffle().limit(3).filter(expr="k > 0"))
        assert empty_result(ds).schema == KV
        both = _source().union(_source())
        assert empty_result(both).schema == KV

    def test_generator_and_pandas_udfs(self):
        def twice(batch: pa.Table):
            yield batch
            yield batch

        ds = _source().map_batches(twice, batch_format="pyarrow")
        assert empty_result(ds).schema == KV
        df = _source().map_batches(lambda b: b.assign(w=b["v"] * 2.0),
                                   batch_format="pandas")
        assert empty_result(df).column_names == ["k", "v", "w"]

    def test_unknown_operator_raises(self):
        with pytest.raises(UnreadPlan, match="MapRows"):
            empty_result(_source().map(lambda r: r))

    def test_materialized_without_schema(self):
        ds = _source().map_batches(lambda b: b, batch_format="pyarrow")
        # materializing drops the plan, and Ray keeps no schema for it
        with pytest.raises(ValueError, match="no schema"):
            empty_result(ds.materialize())
        out = materialize_typed(ds)
        assert out.count() == 0 and out.schema().base_schema == KV
        rows = materialize_typed(_source(5).map_batches(
            lambda b: b, batch_format="pyarrow"))
        assert rows.count() == 5


class TestGlobalAggregateOnEmpty:
    def test_profile_table_has_a_row_per_column(self, tmp_path):
        # SQL's aggregates over no rows still give a row per profiled
        # column: tree_agg folds the per-block partial of an empty block
        import __ray_entry__ as entry
        from perfbench.check import frames_equal, oracle_frames, result_frame

        pq.write_table(pa.schema([
            ("doc_id", pa.int64()), ("text", pa.string()),
            ("lang", pa.string()), ("source", pa.string()),
            ("n_chars", pa.int64())]).empty_table(),
            tmp_path / "documents.parquet")
        want = oracle_frames(str(tmp_path), ["documents"], {
            "profile_table": entry.oracle_sql()["profile_table"]})
        got = result_frame(entry.queries()["profile_table"](str(tmp_path)))
        assert len(want["profile_table"]) == 5
        assert frames_equal(got, want["profile_table"])


class TestNoSchemaRun:
    """The side schemas come from the plan, not from an executor run."""

    def test_tagged_over_mapped_sources_runs_nothing(self, executed_ops):
        from karta_ray.stages.cogroup import tagged

        # lambdas: Ray workers cannot import this test module
        left = _source(10).map_batches(
            lambda b: b.append_column("w", b.column("v")),
            batch_format="pyarrow")
        right = _source(4).map_batches(lambda b: b.select(["k"]),
                                       batch_format="pyarrow")
        out = tagged(left, right, (lambda b: b, lambda b: b))
        assert executed_ops == []
        assert out.count() == 14

    def test_row_mapped_sources_with_rows(self):
        # a plan the walk cannot read takes Ray's own schema instead
        from karta_ray.stages.cogroup import tagged
        from karta_ray.stages.merge import union_layers

        left = _source(3).map(lambda r: {"k": r["k"], "w": r["v"]})
        out = union_layers(left, _source(2))
        assert out.columns() == ["k"] and out.count() == 5
        both = tagged(left, _source(2), (lambda b: b, lambda b: b))
        assert both.columns() == ["k", "w", "v", "__side"]
        assert both.count() == 5
        with pytest.raises(UnreadPlan, match="MapRows"):
            empty_like(_source().map(lambda r: r))

    def test_exact_bloom_join_reads_no_left_schema(self, executed_ops):
        # semi_join, the exact join of the bloom_semi_join and
        # bloom_anti_join queries
        from ray.data._internal.execution.operators.limit_operator import \
            LimitOperator

        from karta_ray.stages.lookup import semi_join

        left = _source(50).map_batches(lambda b: b, batch_format="pyarrow")
        right = _source(10).select_columns(["k"])
        out = semi_join(left, right, key="k")
        # the right key set alone: the left side's map runs in the
        # filter, when the result is read
        assert len(executed_ops) == 1
        assert not any(isinstance(op, LimitOperator)
                       for run in executed_ops for op in run)
        assert out.count() == 10
