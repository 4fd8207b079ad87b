"""Distributed connected components (min-label propagation) — the
clustering step of a dedup pipeline: near-dup PAIRS in, per-document
CLUSTER ids out ("keep one doc per component").

Algorithm: every vertex starts labeled with its own id; each round,
every vertex takes the min of its label and its neighbors' labels;
fixpoint = components labeled by their min vertex id. Rounds needed =
component diameter (near-dup components are small cliques/chains, so
single digits in practice; a graph that has not converged after
``MAX_ROUNDS`` rounds raises instead of returning partial labels).

Every round is three range shuffles built on
:func:`~karta_ray.stages.agg.sorted_map_groups` — no driver-side
state, no ``Dataset.join``:

1. **scatter**: adjacency rows (v, nbr) co-shuffled with label rows
   (v, lbl); each v-run broadcasts its label to its neighbors
   (vectorized run-indexing, no per-group dispatch);
2. **gather**: min-combine of (self-label ∪ received labels) per
   vertex. The combine also counts vertices whose label shrank, so
   convergence is decided from a one-row aggregate — the driver never
   sees per-vertex data;
3. **compress** (pointer jumping): lbl(v) <- lbl(lbl(v)), the same
   scatter/gather machinery with the label table joined to itself.
   Compression halves the remaining label-chain depth each round,
   so convergence takes O(log diameter) rounds instead of
   O(diameter) — the difference between 6 rounds and 10^3 on a
   long path graph.

Scale notes: per-round traffic is O(edges). A very high-degree vertex
makes one scatter run large; runs are processed vectorized so this
costs memory proportional to the hot vertex's degree on one block
(same bound as any per-key grouping of its edges). Edge lists are
deduplicated up front so parallel edges don't amplify traffic.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.empty import materialize_typed
from ..state.worker import cached, resolve
from .agg import group_runs, sorted_map_groups, sorted_sum

_INF = np.int64(1 << 62)

# propagation rounds before an unconverged graph raises
MAX_ROUNDS = 50
# deduplicated adjacency rows (~8 MB) up to which one task labels all
SMALL_INPUT_ROWS = 500_000


def _rebase(ds):
    """Execute ``ds`` and rebuild a Dataset from its raw block refs,
    SEVERING the logical-plan lineage. ``materialize()`` alone keeps
    the whole plan history attached, and replanning cost across an
    iterative loop grows superlinearly with plan depth — a 20-vertex
    label-propagation round regressed 5 s -> 87 s by round 2 before
    this (measured; Ray 2.49). Iterative callers must rebase once per
    round."""
    import ray.data

    return ray.data.from_arrow_refs(ds.to_arrow_refs())


def _scatter_block(batch: pa.Table) -> pa.Table:
    """Per v-run: row t=0 carries the label; rows t=1 are neighbors.
    Emit (nbr, lbl, old=INF) per neighbor + (v, lbl, old=lbl) self."""
    empty = pa.table({"v": pa.array([], pa.int64()),
                      "lbl": pa.array([], pa.int64()),
                      "old": pa.array([], pa.int64())})
    n = batch.num_rows
    if n == 0:
        return empty
    v = batch.column("v").to_numpy()
    lbl = batch.column("lbl").to_numpy()
    nbr = batch.column("nbr").to_numpy()
    t = batch.column("t").to_numpy()
    starts, ends = group_runs(batch, ["v"])
    run_id = np.repeat(np.arange(len(starts)), ends - starts)
    run_lbl = lbl[starts]          # t=0 sorts first within each run
    is_adj = t == 1
    out_v = np.concatenate([nbr[is_adj], v[starts]])
    out_l = np.concatenate([run_lbl[run_id][is_adj], run_lbl])
    out_o = np.concatenate([np.full(int(is_adj.sum()), _INF), run_lbl])
    return pa.table({"v": pa.array(out_v.astype(np.int64)),
                     "lbl": pa.array(out_l.astype(np.int64)),
                     "old": pa.array(out_o.astype(np.int64))})


def _gather_reduce(batch: pa.Table) -> pa.Table:
    g = batch.group_by(["v"]).aggregate([("lbl", "min"), ("old", "min")])
    return g.rename_columns(["v", "lbl", "old"])


def _gather_block(batch: pa.Table) -> pa.Table:
    g = _gather_reduce(batch)
    changed = pa.compute.less(g.column("lbl"), g.column("old"))
    return g.drop_columns(["old"]).append_column(
        "changed", pa.compute.cast(changed, pa.int64()))


def _local_cc_block(batch: pa.Table) -> pa.Table:
    """Single-task label propagation over one adjacency block (both
    edge directions present): min-label fixpoint with pointer jumping,
    all numpy. Used by the small-input fast path."""
    if batch.num_rows == 0:
        return pa.table({"v": pa.array([], pa.int64()),
                         "lbl": pa.array([], pa.int64())})
    v = batch.column("v").to_numpy().astype(np.int64)
    nbr = batch.column("nbr").to_numpy().astype(np.int64)
    ids = np.unique(v)  # both directions present -> v covers endpoints
    iv = np.searchsorted(ids, v)
    inb = np.searchsorted(ids, nbr)
    lbl = ids.copy()
    while True:
        prev = lbl
        new = lbl.copy()
        np.minimum.at(new, iv, lbl[inb])       # neighbor min
        # pointer jump: labels are always vertex ids, so the lookup is
        # exact; mixing partially-updated labels stays monotone
        new = np.minimum(new, new[np.searchsorted(ids, new)])
        lbl = new
        if np.array_equal(lbl, prev):
            break
    return pa.table({"v": pa.array(ids), "lbl": pa.array(lbl)})


def _labeled_ids(*refs) -> np.ndarray:
    """Sorted ``v`` of every label block: the labeled vertices."""
    return np.sort(np.concatenate([resolve(r).column("v").to_numpy()
                                   for r in refs]))


def connected_components(edges, *, src: str = "a", dst: str = "b",
                         vertices=None, v_col: str = "v"):
    """(v, cluster_id) for every vertex; cluster_id = min vertex id of
    its component. ``edges`` is a Dataset of undirected (src, dst)
    pairs; ``vertices`` optionally adds isolated vertices (Dataset
    with column ``v_col``) which come out as their own singletons.

    Data-driven plan choice: when the deduplicated adjacency fits one
    block (``<= SMALL_INPUT_ROWS`` rows, i.e. <= ~8 MB), the whole
    propagation runs in ONE task (:func:`_local_cc_block`) and labels
    broadcast to the vertex map — near-dup graphs are tiny relative to
    their corpus, and the multi-round distributed loop costs ~0.5 s of
    fixed overhead per execution. Above the bound, the O(log diameter)
    distributed rounds run, at most ``MAX_ROUNDS`` of them (more
    raise ``RuntimeError``)."""
    import pyarrow.compute as pc
    import ray.data

    def to_adj(batch: pa.Table) -> pa.Table:
        a = batch.column(src).to_numpy().astype(np.int64)
        b = batch.column(dst).to_numpy().astype(np.int64)
        return pa.table({"v": pa.array(np.concatenate([a, b])),
                         "nbr": pa.array(np.concatenate([b, a])),
                         "n": pa.array(np.ones(2 * len(a), np.int64))})

    # dedup parallel edges so repeated pairs don't amplify every round
    # (execution 1 — every other pre-loop step is folded into the
    # round-0 input plan below: at web scale the shuffles dominate and
    # the schedule doesn't matter, but on the small end each separate
    # plan execution costs ~0.5-1 s of fixed overhead, and the original
    # 5-execution pre-loop was pure overhead)
    adj = sorted_sum(edges.map_batches(to_adj, batch_format="pyarrow"),
                     ["v", "nbr"], ["n"]).drop_columns(["n"])
    adj = _rebase(adj)

    if adj.count() <= SMALL_INPUT_ROWS:
        labels_blk = materialize_typed(
            adj.repartition(1).map_batches(_local_cc_block, batch_size=None,
                                           batch_format="pyarrow"))
        endpoints = labels_blk.map_batches(
            lambda b: b.rename_columns(["v", "cluster_id"]),
            batch_format="pyarrow")
        if vertices is None:
            return endpoints
        # the materialize may have split the labels into several
        # blocks; membership needs ALL of them
        lrefs = list(labels_blk.to_arrow_refs())

        def singletons(batch: pa.Table, *, refs=tuple(lrefs)) -> pa.Table:
            """Vertices with no edges label themselves; labeled
            endpoints are already emitted, so they are dropped here."""
            vv = np.unique(pc.cast(batch.column(v_col), pa.int64())
                           .to_numpy(zero_copy_only=False)
                           .astype(np.int64))
            if refs:
                # one entry keyed by the whole tuple: one ``cached``
                # call per ref would evict the others' entries
                ids_s = cached(_labeled_ids, *refs)
                if len(ids_s):
                    idx = np.minimum(np.searchsorted(ids_s, vv),
                                     len(ids_s) - 1)
                    vv = vv[ids_s[idx] != vv]
            return pa.table({"v": pa.array(vv),
                             "cluster_id": pa.array(vv)})

        singles = vertices.map_batches(singletons, batch_format="pyarrow",
                                       zero_copy_batch=True)
        # per-block np.unique cannot see cross-block duplicate vertex
        # rows; a sorted dedup keeps the fast path's output multiset
        # identical to the distributed path's for ANY vertex input
        from .agg import sorted_agg

        singles = sorted_agg(singles, ["v"], [("cluster_id", "min")])
        return endpoints.union(singles)

    def init_from_adj(batch: pa.Table) -> pa.Table:
        return pa.table({"v": batch.column("v"),
                         "lbl": batch.column("v"),
                         "n": pa.array(np.ones(batch.num_rows, np.int64))})

    lbl_src = adj.select_columns(["v"])
    n_vert = 0
    if vertices is not None:
        vs = vertices.map_batches(
            lambda b: pa.table({"v": pc.cast(b.column(v_col),
                                             pa.int64())}),
            batch_format="pyarrow")
        lbl_src = lbl_src.union(vs)
        n_vert = vertices.count()   # parquet metadata / cached — cheap

    def tag_adj(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"v": batch.column("v"),
                         "lbl": pa.array(np.zeros(n, np.int64)),
                         "nbr": batch.column("nbr"),
                         "t": pa.array(np.ones(n, np.int8))})

    def tag_lbl(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"v": batch.column("v"),
                         "lbl": batch.column("lbl"),
                         "nbr": pa.array(np.zeros(n, np.int64)),
                         "t": pa.array(np.zeros(n, np.int8))})

    # Bound the working block count: every sorted_map_groups union
    # appends blocks (main + residue) so an unchecked loop grows the
    # label table's block count each round, and upstream parquet reads
    # can hand us hundreds of near-empty blocks — either way the
    # per-round cost becomes per-block fixed overhead, not data. Size
    # to the data (~64k rows/block), not to the input's block count.
    n_rows = adj.count() + n_vert
    n_blocks = int(max(1, min(256, n_rows // 65536 + 1)))

    # round-0 input assembled as ONE plan (execution 2): distinct-
    # vertex label rows unioned with tagged adjacency rows; later
    # rounds recover the adjacency side by filtering t == 1 from the
    # materialized blocks (a lazy map, not a new shuffle)
    labels0 = (sorted_sum(lbl_src.map_batches(
                   init_from_adj, batch_format="pyarrow"), ["v"], ["n"])
               .drop_columns(["n"])
               .map_batches(lambda b: b.append_column(
                   "lbl", b.column("v")), batch_format="pyarrow"))
    both0 = _rebase(adj.map_batches(tag_adj, batch_format="pyarrow")
                    .union(labels0.map_batches(tag_lbl,
                                               batch_format="pyarrow"))
                    .repartition(n_blocks))

    def only_adj(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("t"), 1))

    adj_tagged = both0.map_batches(only_adj, batch_format="pyarrow")

    def compress(labels):
        """One pointer jump: lbl(v) <- lbl(lbl(v)). Rows keyed by the
        CURRENT label are co-shuffled with the label table keyed by
        vertex; the value run broadcasts its own label to the pointer
        rows — the same scatter kernel, keys swapped."""
        def as_query(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table({"v": batch.column("lbl"),
                             "lbl": pa.array(np.zeros(n, np.int64)),
                             "nbr": batch.column("v"),
                             "t": pa.array(np.ones(n, np.int8))})

        both = (labels.map_batches(as_query, batch_format="pyarrow")
                .union(labels.map_batches(tag_lbl,
                                          batch_format="pyarrow")))
        msgs = sorted_map_groups(both, ["v"], _scatter_block,
                                 sort_keys=["v", "t"])
        # each nbr (= original v) received exactly one candidate
        # lbl(lbl(v)) plus its own self row; min-combine keeps the
        # root-ward label (labels only ever decrease root-ward)
        return sorted_map_groups(msgs, ["v"], _gather_block,
                                 pre_reduce=_gather_reduce)

    for it in range(MAX_ROUNDS):
        both = both0 if it == 0 else adj_tagged.union(
            labels.map_batches(tag_lbl, batch_format="pyarrow"))
        msgs = sorted_map_groups(both, ["v"], _scatter_block,
                                 sort_keys=["v", "t"])
        prop = sorted_map_groups(msgs, ["v"], _gather_block,
                                 pre_reduce=_gather_reduce)
        # one execution per round: the block-count bound rides along
        # with the propagation plan; the convergence sum then runs on
        # the materialized blocks (map + tiny reduce, no shuffle)
        prop = _rebase(prop.repartition(n_blocks))
        n_changed = prop.sum("changed") or 0
        labels = prop.drop_columns(["changed"])
        if not n_changed:
            # propagation fixpoint: lbl(v) <= lbl(u) across every edge
            # in both directions => labels constant per component =
            # the component min. Compression is pure acceleration, so
            # it plays no part in the termination proof.
            break
        if it >= 1:
            # skip compression in round 0: near-dup graphs are mostly
            # diameter-1/2 cliques that propagation alone finishes in
            # one round, making round-0 compression two wasted
            # shuffles; deeper graphs still get O(log d) compression
            # from round 1 on
            labels = _rebase(compress(labels).drop_columns(["changed"])
                             .repartition(n_blocks))
    else:
        raise RuntimeError(f"connected_components: labels still changing "
                           f"after {MAX_ROUNDS} rounds")

    return labels.map_batches(
        lambda b: b.rename_columns(["v", "cluster_id"]),
        batch_format="pyarrow")
