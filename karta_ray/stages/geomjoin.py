"""Geometry-set joins: line/polygon members vs a target geometry.

Distributed analogue of the reference's R-tree-backed multipart queries
(karta/vector/geometry.py:1496-1544):

- ``touching(target=Line)``    member kept iff target intersects member
- ``touching(target=Polygon)`` member kept iff polygon contains the
  member's first vertex OR intersects it
- ``within(target=Polygon)``   member kept iff polygon contains the
  member's first vertex AND does not intersect it (strict containment)

The member sets are Datasets of rows
``(geom_id, kind, vertices list<fixed_size_list<f64, 2>>)``;
the target is broadcast. bbox prefilter (touching-counts-as-overlap,
intersection.pyx:21-39) then the exact planar/spherical predicate —
identical candidate->exact structure, so results match the reference
row-for-row.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..kernels import predicates as P
from ..state.worker import cached, resolve


def _member_arrays(batch: pa.Table):
    from ..functions.arrays import nested_vertices_to_arrays

    return nested_vertices_to_arrays(batch.column("vertices"))


class _GeomJoin:
    """map_batches stage testing members against one broadcast target."""

    def __init__(self, target_ref, mode: str, geographical: bool = False):
        t = resolve(target_ref)
        self.target = np.asarray(t["verts"], dtype=np.float64)
        self.target_kind = t["kind"]
        self.mode = mode
        self.geographical = geographical
        if geographical:
            self.tbbox = P.bbox_geographical(
                self.target, ring=(self.target_kind == "polygon"))
            if self.tbbox[0] > self.tbbox[2]:
                # dateline-crossing target: the planar overlap gate would
                # wrongly exclude candidates — disable the prefilter (the
                # exact predicate decides; prefilter must stay a superset)
                self.tbbox = None
        else:
            self.tbbox = P.bbox_planar(self.target)

    def _exact(self, member: np.ndarray, member_kind: str) -> bool:
        ring_m = member_kind == "polygon"
        ring_t = self.target_kind == "polygon"
        if self.geographical:
            inter = P.intersects_sph(self.target, member,
                                     ring_a=ring_t, ring_b=ring_m)
        else:
            inter = P.intersects_planar(self.target, member,
                                        ring_a=ring_t, ring_b=ring_m)
        if self.mode == "touching":
            if ring_t:
                # polygon target: contains(first vertex) or intersects
                inside = P.points_in_polygon(
                    member[:1, 0], member[:1, 1], [self.target],
                    geographical=self.geographical)[0]
                return bool(inside or inter)
            return bool(inter)
        # within: contains(first vertex) and not intersects
        inside = P.points_in_polygon(
            member[:1, 0], member[:1, 1], [self.target],
            geographical=self.geographical)[0]
        return bool(inside and not inter)

    def __call__(self, batch: pa.Table) -> pa.Table:
        members = _member_arrays(batch)
        kinds = batch.column("kind").to_pylist()
        if self.tbbox is not None and not self.geographical:
            # vectorized planar gate: every member bbox in one segmented
            # min/max pass over the Arrow list offsets, then the exact
            # predicate loop runs only over gate survivors
            from ..functions.arrays import member_bboxes

            xmin, ymin, xmax, ymax = member_bboxes(
                batch.column("vertices"))
            cand = np.nonzero(P.bboxes_overlap_vec(
                self.tbbox, xmin, ymin, xmax, ymax))[0]
        else:
            cand = range(len(members))

        # batched fast path: planar polygon target x single-SEGMENT
        # line members (the dominant member shape) — one (edges x
        # members) vectorized pass instead of a Python call per member
        # (measured ~150 us/member of pure dispatch). Semantics are
        # _exact verbatim: same segment-intersection + collinear rule,
        # same first-vertex winding test.
        cand = np.asarray(list(cand), dtype=np.int64)
        if (not self.geographical and self.target_kind == "polygon"
                and len(cand)
                and all(kinds[i] == "line" and len(members[i]) == 2
                        for i in cand)):
            seg = np.stack([members[i] for i in cand])   # (M, 2, 2)
            tx0, ty0, tx1, ty1 = P._segments(self.target, True)
            # tile the member axis so the (T x M_tile) temporaries stay
            # ~16 MB no matter how large the target ring or block is
            tile = max(1, (1 << 21) // max(len(tx0), 1))
            inter = np.empty(len(seg), dtype=bool)
            for s in range(0, len(seg), tile):
                ch = seg[s:s + tile]
                xi, _ = P.segment_intersection_planar(
                    tx0[:, None], ty0[:, None], tx1[:, None], ty1[:, None],
                    ch[None, :, 0, 0], ch[None, :, 0, 1],
                    ch[None, :, 1, 0], ch[None, :, 1, 1])
                hit = np.any(~np.isnan(xi), axis=0)
                col = P._collinear_overlap(
                    tx0[:, None], ty0[:, None], tx1[:, None], ty1[:, None],
                    ch[None, :, 0, 0], ch[None, :, 0, 1],
                    ch[None, :, 1, 0], ch[None, :, 1, 1])
                inter[s:s + tile] = hit | np.any(col, axis=0)
            inside = P.points_in_polygon(seg[:, 0, 0], seg[:, 0, 1],
                                         [self.target])
            ok = (inside | inter) if self.mode == "touching" \
                else (inside & ~inter)
            return batch.take(pa.array(cand[ok], pa.int64()))

        keep = []
        for i in cand:
            m = members[i]
            if self.tbbox is not None and self.geographical:
                # apex-aware member bbox (great-circle arcs can reach
                # beyond vertex latitudes); skip the gate entirely for
                # dateline-crossing members
                mb = P.bbox_geographical(m, ring=(kinds[i] == "polygon"))
                if mb[0] <= mb[2] and not P.bboxes_overlap(self.tbbox, mb):
                    continue
            if self._exact(m, kinds[i]):
                keep.append(i)
        return batch.take(pa.array(np.asarray(keep, dtype=np.int64),
                                   pa.int64()))


def geom_join(members_ds, target_verts, *, target_kind: str, mode: str,
              geographical: bool = False):
    """members Dataset x broadcast target geometry -> passing members."""
    ref = ray.put({"verts": np.asarray(target_verts, dtype=np.float64),
                   "kind": target_kind})

    # built once per worker process (state/worker.py)
    def fn(batch: pa.Table) -> pa.Table:
        return cached(_GeomJoin, ref, mode, geographical)(batch)

    return members_ds.map_batches(fn, batch_format="pyarrow",
                                  zero_copy_batch=True)


def touching(members_ds, target_verts, target_kind: str, **kw):
    return geom_join(members_ds, target_verts, target_kind=target_kind,
                     mode="touching", **kw)


def within(members_ds, target_verts, **kw):
    return geom_join(members_ds, target_verts, target_kind="polygon",
                     mode="within", **kw)


class _IntersectionPoints:
    """map_batches stage: all intersection points of each member chain
    with a broadcast target (karta ``intersections``,
    geometry.py:698-723: brute-force segment pairs, half-open hit rule,
    exact dedup on (x, y) per member)."""

    def __init__(self, target_ref):
        t = resolve(target_ref)
        self.target = np.asarray(t["verts"], dtype=np.float64)
        self.ring_t = t["kind"] == "polygon"

    def __call__(self, batch: pa.Table) -> pa.Table:
        members = _member_arrays(batch)
        kinds = batch.column("kind").to_pylist()
        ids = batch.column("geom_id").to_numpy()

        # batched fast path (same shape as _GeomJoin): single-segment
        # line members x planar target in one vectorized pass; the
        # per-member np.unique dedup becomes one lexsort run mask
        if (len(members) and
                all(k == "line" and len(m) == 2
                    for k, m in zip(kinds, members))):
            seg = np.stack(members)                       # (M, 2, 2)
            tx0, ty0, tx1, ty1 = P._segments(self.target, self.ring_t)
            tile = max(1, (1 << 21) // max(len(tx0), 1))
            oid_c, ox_c, oy_c = [], [], []
            for s in range(0, len(seg), tile):
                ch = seg[s:s + tile]
                xi, yi = P.segment_intersection_planar(
                    tx0[:, None], ty0[:, None], tx1[:, None], ty1[:, None],
                    ch[None, :, 0, 0], ch[None, :, 0, 1],
                    ch[None, :, 1, 0], ch[None, :, 1, 1])
                tm, mm = np.nonzero(~np.isnan(xi))
                oid_c.append(ids[s + mm].astype(np.int64))
                ox_c.append(xi[tm, mm])
                oy_c.append(yi[tm, mm])
            oid = np.concatenate(oid_c) if oid_c else np.empty(0, np.int64)
            ox = np.concatenate(ox_c) if ox_c else np.empty(0)
            oy = np.concatenate(oy_c) if oy_c else np.empty(0)
            if len(oid):
                order = np.lexsort((oy, ox, oid))
                oid, ox, oy = oid[order], ox[order], oy[order]
                first = np.ones(len(oid), dtype=bool)
                first[1:] = ((oid[1:] != oid[:-1]) | (ox[1:] != ox[:-1])
                             | (oy[1:] != oy[:-1]))
                oid, ox, oy = oid[first], ox[first], oy[first]
            return pa.table({"geom_id": pa.array(oid, pa.int64()),
                             "x": pa.array(ox, pa.float64()),
                             "y": pa.array(oy, pa.float64())})

        out_id = []
        out_x = []
        out_y = []
        for i, m in enumerate(members):
            pts = P.intersections_planar(self.target, m, ring_a=self.ring_t,
                                         ring_b=(kinds[i] == "polygon"))
            if len(pts):
                pts = np.unique(pts, axis=0)
            for x, y in pts:
                out_id.append(int(ids[i]))
                out_x.append(x)
                out_y.append(y)
        return pa.table({
            "geom_id": pa.array(out_id, pa.int64()),
            "x": pa.array(out_x, pa.float64()),
            "y": pa.array(out_y, pa.float64()),
        })


def intersection_points(members_ds, target_verts, target_kind: str = "line"):
    """All distinct member x target intersection points -> Dataset
    (geom_id, x, y)."""
    ref = ray.put({"verts": np.asarray(target_verts, dtype=np.float64),
                   "kind": target_kind})

    def fn(batch: pa.Table) -> pa.Table:
        return cached(_IntersectionPoints, ref)(batch)

    return members_ds.map_batches(fn, batch_format="pyarrow",
                                  zero_copy_batch=True)
