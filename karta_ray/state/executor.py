"""Executor settings a library plan carries on its own Dataset context.

A setting here is written on ``ds.context``, which every Dataset derived
from ``ds`` and every Dataset ``ds`` was derived from share (the plan is
copied, its context is not). It is never written on
``DataContext.get_current()``: the caller's own Datasets, and the
executor limits the caller set there before building the plan
(``ExecutionOptions.resource_limits``, resource reservation), stay as
the caller left them.
"""

from __future__ import annotations

# Blocks a streaming-generator task may hold before it waits for the
# driver to take them: None is no limit (Ray's default: 2); see
# buffer_ahead.
GEN_BUFFER_BLOCKS = None


def buffer_ahead(ds):
    """Let ``ds``'s streaming-generator tasks (its read included) run
    ahead of the driver without a block limit (:data:`GEN_BUFFER_BLOCKS`);
    returns ``ds``. Raises if Ray no longer has the setting, rather than
    setting an attribute no operator reads.

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
    return ds
