"""Distributed connected components (stages/graph.py): brute-force
parity on a graph mixing chains, cliques, parallel/self edges and
isolated vertices, in one call (per-round Ray fixed costs make many
tiny calls expensive)."""

import collections

import numpy as np
import pyarrow as pa
import pytest


def _brute(edges, verts):
    g = collections.defaultdict(set)
    for a, b in edges:
        g[a].add(b)
        g[b].add(a)
    out = {}
    for v in sorted(set(verts) | set(g)):
        if v in out:
            continue
        vis, stack = set(), [v]
        while stack:
            x = stack.pop()
            if x in vis:
                continue
            vis.add(x)
            stack.extend(g[x] - vis)
        m = min(vis)
        for x in vis:
            out[x] = m
    return out


EDGES = [(i, i + 1) for i in range(8)]                 # chain, diam 8
EDGES += [(20 + a, 20 + b) for a in range(4)
          for b in range(a + 1, 4)]                    # clique
EDGES += [(30, 31), (31, 30), (30, 31)]                # parallel edges
EDGES += [(40, 41), (41, 42), (40, 42)]                # triangle
VERTS = list(range(0, 50))                             # + isolated


def _mixed_graph():
    import ray

    e = pa.table({"a": pa.array([a for a, _ in EDGES], pa.int64()),
                  "b": pa.array([b for _, b in EDGES], pa.int64())})
    v = pa.table({"v": pa.array(VERTS, pa.int64())})
    return (ray.data.from_arrow(e).repartition(5),
            ray.data.from_arrow(v).repartition(2))


class TestConnectedComponents:
    def test_mixed_graph_matches_brute_force(self, ray_session, monkeypatch):
        from karta_ray.stages import graph

        # both plans: the small-input single-task path (default) and
        # the distributed multi-round path (forced)
        for small in (graph.SMALL_INPUT_ROWS, 0):
            monkeypatch.setattr(graph, "SMALL_INPUT_ROWS", small)
            edges, verts = _mixed_graph()
            out = graph.connected_components(edges, vertices=verts)
            got = {r["v"]: r["cluster_id"] for r in out.take_all()}
            assert got == _brute(EDGES, VERTS), small

    def test_round_cap_raises_instead_of_partial_labels(self, ray_session,
                                                        monkeypatch):
        from karta_ray.stages import graph

        # one distributed round cannot label the diameter-8 chain
        monkeypatch.setattr(graph, "SMALL_INPUT_ROWS", 0)
        monkeypatch.setattr(graph, "MAX_ROUNDS", 1)
        edges, verts = _mixed_graph()
        with pytest.raises(RuntimeError, match="after 1 rounds"):
            graph.connected_components(edges, vertices=verts)

    def test_edges_only_no_vertices(self, ray_session):
        import ray

        from karta_ray.stages.graph import connected_components

        edges = [(5, 3), (3, 9), (100, 7)]
        e = pa.table({"a": pa.array([a for a, _ in edges], pa.int64()),
                      "b": pa.array([b for _, b in edges], pa.int64())})
        out = connected_components(ray.data.from_arrow(e))
        got = {r["v"]: r["cluster_id"] for r in out.take_all()}
        assert got == _brute(edges, [])
