"""Per-worker stage state: the one way a ``map_batches`` stage reads
broadcast state and keeps what it builds from it.

Ray reuses worker processes across tasks, so a task-based stage that
gets its callable through :func:`cached` pays the build once per worker
process, not once per task or batch, and keeps elastic task scheduling
(no actor-pool spin-up). The cache lives in this module, which workers
import by reference: a closure that holds or names its own dict is
pickled by value with every task and rebuilds once per task.
"""

from __future__ import annotations

import ray

# build.__qualname__ -> (key, built value). One live entry per builder:
# two stateful stages fused into one task keep their own entries, and a
# new broadcast for the same stage (the next polygon layer) replaces the
# old one instead of piling up.
_LIVE: dict = {}


def resolve(ref):
    """``ray.get(ref)`` for an ObjectRef, otherwise ``ref`` itself."""
    return ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref


def cached(build, *args):
    """``build(*args)``, built once per worker process.

    Keyed by ``build.__qualname__`` and ``args``, with ObjectRefs keyed
    by their hex id (stable across pickling, unlike ``id()``); every
    other argument must be hashable."""
    key = tuple(a.hex() if isinstance(a, ray.ObjectRef) else a for a in args)
    live = _LIVE.get(build.__qualname__)
    if live is None or live[0] != key:
        live = _LIVE[build.__qualname__] = (key, build(*args))
    return live[1]
