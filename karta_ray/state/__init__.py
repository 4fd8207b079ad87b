"""Stage state: the per-worker broadcast-state helper (``worker``), the
STR-packed bbox tree (``strtree``), the executor settings a plan
carries on its own Dataset context (``executor``) and the typed answer
of a result with no rows (``empty``)."""
