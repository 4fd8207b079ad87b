"""Heavy hitters over an unbounded token domain: exact top-k token
counts.

Shape (exact at any corpus size whose *distinct-token* table fits the
cluster, which is the realistic case: vocabulary grows ~O(corpus^0.5)
by Heaps' law):

1. unnest tokens + in-block Arrow ``group_by`` count — one combiner
   per block, so the shuffle moves distinct-tokens-per-block rows, not
   corpus tokens;
2. :func:`~karta_ray.stages.agg.sorted_sum` over token — range
   shuffle with bounded boundary residue, no single-block combine;
3. top-k: :func:`~karta_ray.stages.topn.global_topk` with a
   deterministic (count desc, token asc) tiebreak.

Tokenization is the repo-wide convention (single-space split, empties
dropped) = DuckDB ``unnest(string_split(text, ' ')) ... WHERE w <> ''``
so SQL oracles reproduce counts exactly.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .agg import sorted_sum
from .topn import global_topk


def tokens_of(col) -> pa.Array:
    """Flatten a string column into its non-empty space-split tokens."""
    toks = pc.list_flatten(pc.split_pattern(col, " "))
    return toks.filter(pc.not_equal(toks, ""))


def _block_counts(batch: pa.Table) -> pa.Table:
    toks = tokens_of(batch.column("text"))
    g = (pa.table({"token": toks}).group_by(["token"])
         .aggregate([([], "count_all")]))
    return g.rename_columns(["token", "n"])


def token_counts(ds):
    """(token, n) exact global counts of the ``text`` column's tokens;
    shuffle bounded by per-block distinct tokens."""
    parts = ds.map_batches(_block_counts, batch_format="pyarrow",
                           zero_copy_batch=True)
    return sorted_sum(parts, ["token"], ["n"])


def top_tokens(ds, k: int):
    """Exact top-k tokens by count, ties broken by token ascending."""
    return global_topk(token_counts(ds), ["n", "token"], k,
                       descending=[True, False])
