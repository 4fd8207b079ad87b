"""Stage state: the per-worker broadcast-state helper (``worker``), the
STR-packed bbox tree (``strtree``) and the executor settings a plan
carries on its own Dataset context (``executor``)."""
