"""Pattern redaction (PII scrub) over a text column: count and replace
regex matches with placeholder tokens.

Pure Arrow RE2 kernels (`count_substring_regex`,
`replace_substring_regex`) inside ``map_batches`` — no per-row Python,
no shuffle, streams at read speed; DuckDB's regex engine is also RE2,
so a SQL oracle reproduces both counts and scrubbed text byte for
byte (parity pinned in tests/test_scrub.py).

Patterns apply IN ORDER, each to the previous pattern's output — the
same semantics as nested ``regexp_replace`` in SQL — so placeholder
text inserted by an earlier rule is never re-matched by accident if
rules are ordered most-specific first.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# (name, regex, replacement) presets for real-world PII; callers pass
# their own rule list for domain-specific redaction
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PHONE_RE = r"\+?\d[\d -]{7,}\d"
PII_RULES = [("email", EMAIL_RE, "<EMAIL>"),
             ("phone", PHONE_RE, "<PHONE>")]


def scrub_text(ds, rules, *, counts: bool = True):
    """Append ``text_clean`` (``text`` with every rule applied) and, when
    ``counts``, an int64 ``n_<name>`` match-count column per rule.

    Counts are measured against the text each rule actually sees
    (i.e. after the earlier rules ran), matching nested SQL
    ``regexp_replace``/``regexp_extract_all`` evaluation order."""
    def apply(batch: pa.Table) -> pa.Table:
        cur = batch.column("text")
        for name, pat, repl in rules:
            if counts:
                batch = batch.append_column(
                    f"n_{name}",
                    pc.cast(pc.count_substring_regex(cur, pat),
                            pa.int64()))
            cur = pc.replace_substring_regex(cur, pat, repl)
        return batch.append_column("text_clean", cur)

    return ds.map_batches(apply, batch_format="pyarrow",
                          zero_copy_batch=True)
