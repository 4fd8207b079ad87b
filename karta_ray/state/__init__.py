"""Stage state: the per-worker broadcast-state helper (``worker``) and
the STR-packed bbox tree (``strtree``)."""
