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

from ..state.empty import empty_result

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
    both engines legitimately return 0 rows; hand back the result's
    typed :func:`~karta_ray.state.empty.empty_result` instead.
    Non-Dataset results pass through. A plan ``empty_result`` cannot
    read raises ``ValueError`` naming the query."""

    @functools.wraps(fn)
    def run(sf_dir: str) -> Any:
        res = fn(sf_dir)
        import ray.data

        if not isinstance(res, ray.data.Dataset):
            return res
        out = res.materialize()
        if out.count():
            return out
        try:
            return empty_result(res)
        except ValueError as exc:
            raise ValueError(f"{fn.__name__}: {exc}") from exc

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
