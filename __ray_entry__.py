"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module:
nothing here (or in karta_ray) calls ``ray.init``/``ray.shutdown``.

- ``entry()``      — flagship pipeline over /root/testdata/sf0.001:
  documents -> synthetic Common-Crawl-style pages (html wraps text,
  geotag embedded) -> extract (byte-identical) -> tile assignment ->
  point-in-polygon join against the admin layer.
- ``queries()``    — one callable per implemented operator (SURVEY.md §2).
- ``oracle_sql()`` — DuckDB-equivalent SQL per query (bit-parity
  derivations). Both come from karta_ray/pipelines/registry.py: each
  query is one ``@query(oracle=...)``-decorated ``q_<name>`` function.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from karta_ray.pipelines import registry


def entry() -> Any:
    """Flagship pipeline on sf0.001; driver checks rows >= 0."""
    from karta_ray.pipelines.flagship import flagship_from_documents

    return flagship_from_documents("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    return registry.queries()


def oracle_sql() -> dict[str, str]:
    return registry.oracle_sql()
