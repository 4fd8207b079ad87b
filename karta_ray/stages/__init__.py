"""Ray Data stage builders: plain functions and callable classes for
``Dataset.map_batches`` (zero-copy Arrow batches), plus groupby
aggregate helpers. Stateless transforms are module-level functions;
anything that builds an index or loads a model is a class that a
task-based stage builds once per worker process through
``state.worker.cached``, from state broadcast with ``ray.put``."""
