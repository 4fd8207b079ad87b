"""The one rule for a result with no rows. Ray never calls a map on an
empty block, so such a result often has no schema. Its typed answer is
what the plan yields when every map runs once on an empty block (a
global aggregate's per-block partial keeps its SQL row), read off the
lazy plan on the driver with no executor run, once a result is known
to be empty (``empty_result``, ``materialize_typed``), or up front for
a stage that needs its inputs' columns (``empty_like``)."""

import types

import pyarrow as pa
from ray.data._internal.execution.interfaces.task_context import TaskContext
from ray.data._internal.logical.operators import (
    all_to_all_operator as a2a, from_operators, input_data_operator,
    join_operator, map_operator as mo, n_ary_operator, one_to_one_operator,
    read_operator)
from ray.data.block import BlockAccessor


class UnreadPlan(ValueError):
    """A plan with a logical operator the walk does not know, or a
    source with no schema."""


def empty_result(ds) -> pa.Table:
    """What ``ds``'s plan yields from one empty block; ``UnreadPlan``
    when the walk cannot read the plan."""
    return _walk(ds._logical_plan.dag)


def empty_like(ds) -> pa.Table:
    """``ds``'s columns as a zero-row table, for a stage that needs them
    whether or not ``ds`` has rows: ``empty_result(ds)``, or for a plan
    the walk cannot read, Ray's ``ds.schema()``, an executor run for a
    mapped plan."""
    try:
        return empty_result(ds)
    except UnreadPlan:
        schema = ds.schema()
        if schema is None:
            raise
        return schema.base_schema.empty_table()


def materialize_typed(ds):
    """``ds.materialize()``, or ``empty_result(ds)`` as one block."""
    import ray.data

    out = ds.materialize()
    return out if out.count() else ray.data.from_blocks([empty_result(ds)])


def _walk(op) -> pa.Table:
    if isinstance(op, read_operator.Read):
        schemas = [op.infer_schema()]
    elif isinstance(op, (from_operators.AbstractFrom,
                         input_data_operator.InputData)):
        # Ray's own inference skips the schema of a block with no rows
        schemas = [b.schema for b in op.output_data()]
    else:
        ins = [_walk(i) for i in op.input_dependencies]
        if isinstance(op, (n_ary_operator.Union, a2a.Sort, a2a.Repartition,
                           a2a.RandomShuffle, one_to_one_operator.Limit,
                           mo.Filter)):
            return pa.concat_tables(ins, promote_options="default")
        if isinstance(op, mo.Project) and op._exprs is None:
            t = ins[0] if op._cols is None else ins[0].select(op._cols)
            names = op._cols_rename or {}
            return t.rename_columns([names.get(c, c) for c in t.column_names])
        if isinstance(op, mo.MapBatches):
            return _call(op, ins[0])
        if isinstance(op, join_operator.Join):
            return ins[0].join(
                ins[1], list(op._left_key_columns),
                list(op._right_key_columns),
                join_type=op._join_type.value.replace("_", " "),
                left_suffix=op._left_columns_suffix,
                right_suffix=op._right_columns_suffix)
        raise UnreadPlan(f"empty_result: unknown operator {type(op).__name__}")
    schemas = [s for s in schemas if s is not None]
    if not schemas or not all(isinstance(s, pa.Schema) for s in schemas):
        raise UnreadPlan(f"empty_result: no schema for {op.name}")
    return pa.unify_schemas(schemas, promote_options="permissive").empty_table()


def _captured(fn, name: str):
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


def _call(op, table: pa.Table) -> pa.Table:
    """``op``'s UDF (for ``map_groups``, the group UDF its wrapper
    captured) called once on ``table`` as task 0 of the op."""
    fn, fmt = op._fn, op._batch_format
    if getattr(fn, "__qualname__", "").endswith("map_groups.<locals>.wrapped_fn"):
        cls = isinstance(fn, type)
        fmt = _captured(fn.__call__ if cls else fn, "batch_format")
        fn = _captured(fn.__init__ if cls else fn, "fn")
    if isinstance(fn, type):
        fn = fn(*(op._fn_constructor_args or ()),
                **(op._fn_constructor_kwargs or {}))
    prev = TaskContext.get_current()  # read by e.g. random_sample's UDF
    TaskContext.set_current(TaskContext(task_idx=0, op_name=op.name))
    try:
        out = fn(BlockAccessor.for_block(table).to_batch_format(fmt),
                 *(op._fn_args or ()), **(op._fn_kwargs or {}))
        outs = list(out) if isinstance(out, types.GeneratorType) else [out]
    finally:
        TaskContext.set_current(prev)
    if not outs:
        raise UnreadPlan(f"empty_result: {op.name} yields nothing")
    return pa.concat_tables(
        [BlockAccessor.for_block(BlockAccessor.batch_to_block(o)).to_arrow()
         for o in outs], promote_options="default")
