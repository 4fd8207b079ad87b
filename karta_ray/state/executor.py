"""Executor settings a library plan carries on its own Dataset context,
and the one call that plans and starts a run under that context.

A setting here is written on ``ds.context``, which every Dataset derived
from ``ds`` and every Dataset ``ds`` was derived from share (the plan is
copied, its context is not). It is never written on
``DataContext.get_current()``: the caller's own Datasets, and the
executor limits the caller set there before building the plan
(``ExecutionOptions.resource_limits``, resource reservation), stay as
the caller left them.

Most of Ray's planner reads the plan's context, but not all of it:
``SetReadParallelismRule`` (Ray 2.49, ``set_read_parallelism.py``)
sizes the read's split from ``DataContext.get_current()``. So a run
whose plan context carries :data:`READ_MIN_BLOCKS` is started through
:func:`start_run`, which makes ``ds.context`` the current context for
the one call that plans the run and restores the caller's in
``finally``. No field of the caller's context is written.
"""

from __future__ import annotations

# Blocks a streaming-generator task may hold before it waits for the
# driver to take them: None is no limit (Ray's default: 2); see
# buffer_ahead.
GEN_BUFFER_BLOCKS = None

# Floor on the read's detected parallelism (Ray's default: 200). Ray
# splits each read task's output when there are fewer read tasks than
# that parallelism (ReadParquet->SplitBlocks), and a split read never
# fuses with the map after it (operator_fusion.py: additional split
# factor > 1). At 1 the floor is Ray's own 2 x cluster CPUs
# (_internal/util.py::_autodetect_parallelism), so a read with at least
# that many files runs one task per file, fused into the plan's maps;
# fewer files still split. Read only under start_run.
READ_MIN_BLOCKS = 1


def buffer_ahead(ds):
    """Let ``ds``'s streaming-generator tasks (its read included) run
    ahead of the driver without a block limit (:data:`GEN_BUFFER_BLOCKS`)
    and plan its read unsplit where there are files enough
    (:data:`READ_MIN_BLOCKS`, effective under :func:`start_run`);
    returns ``ds``. Raises if Ray no longer has the buffer setting,
    rather than setting an attribute no operator reads.

    Why: the driver's scheduling loop steps at the pace of its slowest
    active task (one ``ray.wait`` over all of them). At Ray's depth of 2
    a split-read task (perfbench: 8 files on 4 CPUs, 32 blocks of 1,562
    rows) yields 2 blocks and then holds its CPU slot idle until the next
    step.

    Why no limit rather than a bound (16 tried): Ray sizes a task's
    pending output, before the operator has any, as
    ``target_max_block_size`` (128 MiB) x depth, and admits tasks against
    the object-store budget by it. At 16 that is 2 GiB a task, and the
    first scheduling step of each fresh operator (every bench job's)
    dispatched 1 task, against 2-3 at depth 2 (256 MiB a task) or with
    no limit (0: the CPU limit alone admits). perfbench, seed 7,
    4 CPUs, interleaved runs, median ``norm_rows_per_s``: flagship_pages
    (ten each) 80.1k at the parent commit, 97.8k at 16, 96.2k with no
    limit (within noise of 16); pip_dense (five each) 92.9k, 101.0k and
    125.4k. What no limit costs: output a running task has not yet
    handed over is not counted by object-store backpressure, so the
    store can overshoot its budget by up to the running tasks' whole
    outputs. At design scale a read task reads one ~128 MB file (1-2
    blocks of 128 MB), so that is about one file per running read task;
    new tasks are still gated on the outputs handed over. Not measured
    at that scale.
    """
    ctx = ds.context
    if not hasattr(ctx, "_max_num_blocks_in_streaming_gen_buffer"):
        raise AttributeError(
            "ray.data.DataContext has no _max_num_blocks_in_streaming_gen_buffer")
    ctx._max_num_blocks_in_streaming_gen_buffer = GEN_BUFFER_BLOCKS
    ctx.read_op_min_num_blocks = READ_MIN_BLOCKS
    return ds


def start_run(ds):
    """``ds.iter_internal_ref_bundles()`` (plan, start, first bundle)
    with ``ds.context`` as Ray's current context, so the planner rules
    that read ``DataContext.get_current()`` see the plan's settings.
    The caller's context object is put back in ``finally``, also when
    the run raises; the blocks after the first stream in under it.

    The swap is of Ray's module-level current context, not through
    ``DataContext._set_current``, which also re-points the dataset
    loggers when the two contexts' logger ids differ. Other driver
    threads see ``ds.context`` as current while the call lasts."""
    from ray.data import context as ray_context

    with ray_context._context_lock:
        prev = ray_context._default_context
        ray_context._default_context = ds.context
    try:
        return ds.iter_internal_ref_bundles()
    finally:
        with ray_context._context_lock:
            ray_context._default_context = prev
