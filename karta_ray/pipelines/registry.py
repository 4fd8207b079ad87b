"""The driver-query registry: every query is a ``q_<name>`` function
registered once, beside its definition, with its DuckDB oracle::

    @query(oracle=lambda: LINE_SEGMENTS_SQL)
    def q_line_segments(sf_dir): ...

``oracle`` takes no arguments and returns the SQL; the lambda lets a
module define its SQL after the function and keeps SQL building lazy.
"""

from __future__ import annotations

import functools
import importlib
from collections.abc import Callable
from typing import Any

_MODULES = ("queries", "queries2", "queries3", "queries4")

_QUERIES: dict[str, Callable[[str], Any]] = {}
_ORACLES: dict[str, Callable[[], str]] = {}


def query(oracle: Callable[[], str]):
    """Register ``q_<name>`` under ``<name>`` with its oracle SQL."""

    def register(fn):
        name = fn.__name__.removeprefix("q_")
        if name == fn.__name__ or name in _QUERIES:
            raise ValueError(f"cannot register {fn.__name__!r}: a query "
                             f"is a q_<name> function, each name once")
        _QUERIES[name] = fn
        _ORACLES[name] = oracle
        return fn

    return register


def _keep_schema_when_empty(fn: Callable[[str], Any]) -> Callable[[str], Any]:
    """Ray's ``to_pandas()`` on an all-empty Dataset drops the columns,
    which a downstream schema compare misreads as a mismatch even when
    both engines legitimately return 0 rows; hand back a TYPED empty
    Arrow table instead. Non-Dataset results pass through. An empty
    result whose schema Ray dropped (a map over empty blocks) raises
    ``ValueError``: the query must return a typed empty Dataset."""

    @functools.wraps(fn)
    def run(sf_dir: str) -> Any:
        res = fn(sf_dir)
        import ray.data

        if isinstance(res, ray.data.Dataset):
            res = res.materialize()
            if res.count() == 0:
                schema = res.schema()
                if schema is None:
                    raise ValueError(
                        f"{fn.__name__} returned an empty Dataset without "
                        f"a schema; return a typed empty Dataset instead")
                return schema.base_schema.empty_table()
        return res

    return run


def _load() -> None:
    for m in _MODULES:
        importlib.import_module(f"{__package__}.{m}")


def queries() -> dict[str, Callable[[str], Any]]:
    """``{name: query}``, each query wrapped to keep its schema when empty."""
    _load()
    return {name: _keep_schema_when_empty(fn) for name, fn in _QUERIES.items()}


def oracle_sql() -> dict[str, str]:
    """``{name: DuckDB SQL}`` for every registered query."""
    _load()
    return {name: oracle() for name, oracle in _ORACLES.items()}
