"""STR-packed static bbox tree (Sort-Tile-Recursive bulk loading).

Distributed replacement for the reference's insertion R-tree
(karta/rtree.h via karta/vector/rtree.pyx:39-108, float32 bboxes,
maxchildren=50): built once over the polygon layer's bboxes, read
from the object store once per worker process, probed per batch. STR packing (Leutenegger et al. 1997) gives
near-optimal static trees with zero insertion logic; bboxes are float64
(the reference's float32 truncation is a documented precision hazard,
SURVEY.md §7.4 — prefilter precision cannot change results because the
exact predicate runs on every candidate).

Plain numpy arrays per level -> cheap to pickle/ray.put and zero-copy
to read.
"""

from __future__ import annotations

import numpy as np

NODE_CAPACITY = 16


class STRtree:
    """Static bbox tree over (n, 4) [xmin, ymin, xmax, ymax] boxes."""

    def __init__(self, bboxes: np.ndarray, capacity: int = NODE_CAPACITY):
        bboxes = np.asarray(bboxes, dtype=np.float64).reshape(-1, 4)
        self.capacity = capacity
        self.n = len(bboxes)
        # leaf ordering by STR packing: sort by x-center into vertical
        # slabs, then by y-center within each slab
        if self.n == 0:
            self.order = np.empty(0, dtype=np.int64)
            self.levels = []
            return
        cx = 0.5 * (bboxes[:, 0] + bboxes[:, 2])
        cy = 0.5 * (bboxes[:, 1] + bboxes[:, 3])
        nslabs = max(1, int(np.ceil(np.sqrt(self.n / capacity))))
        slab_size = int(np.ceil(self.n / nslabs))
        by_x = np.argsort(cx, kind="stable")
        order = np.empty(self.n, dtype=np.int64)
        pos = 0
        for s in range(0, self.n, slab_size):
            slab = by_x[s:s + slab_size]
            slab = slab[np.argsort(cy[slab], kind="stable")]
            order[pos:pos + len(slab)] = slab
            pos += len(slab)
        self.order = order
        self.leaf_boxes = bboxes[order]

        # build upper levels: each node = bbox union of `capacity` children
        self.levels = [self.leaf_boxes]
        cur = self.leaf_boxes
        while len(cur) > 1:
            m = int(np.ceil(len(cur) / capacity))
            nxt = np.empty((m, 4))
            for i in range(m):
                chunk = cur[i * capacity:(i + 1) * capacity]
                nxt[i] = (chunk[:, 0].min(), chunk[:, 1].min(),
                          chunk[:, 2].max(), chunk[:, 3].max())
            self.levels.append(nxt)
            cur = nxt

    def query_box(self, xmin, ymin, xmax, ymax) -> np.ndarray:
        """Original indices of leaf boxes overlapping the query box
        (touching counts, like bboxes_overlap)."""
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        # walk levels top-down keeping candidate node index ranges
        top = len(self.levels) - 1
        cand = np.array([0], dtype=np.int64)
        for lvl in range(top, -1, -1):
            boxes = self.levels[lvl]
            hit = cand[(boxes[cand, 0] <= xmax) & (boxes[cand, 2] >= xmin)
                       & (boxes[cand, 1] <= ymax) & (boxes[cand, 3] >= ymin)]
            if lvl == 0:
                return np.sort(self.order[hit])
            # expand to children at the next level down
            nxt_len = len(self.levels[lvl - 1])
            starts = hit * self.capacity
            cand = np.concatenate([
                np.arange(s, min(s + self.capacity, nxt_len), dtype=np.int64)
                for s in starts]) if len(hit) else np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=np.int64)

    def query_points(self, px: np.ndarray, py: np.ndarray):
        """Vectorized candidate pairs for a point batch: returns
        (point_idx, box_idx) arrays — every leaf box containing each
        point (inclusive bounds)."""
        if self.n == 0 or len(px) == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        # level-synchronous descent with (point, node) pair frontiers
        top = len(self.levels) - 1
        pts = np.arange(len(px), dtype=np.int64)
        nodes = np.zeros(len(px), dtype=np.int64)
        for lvl in range(top, -1, -1):
            boxes = self.levels[lvl]
            bx = boxes[nodes]
            ok = ((bx[:, 0] <= px[pts]) & (px[pts] <= bx[:, 2])
                  & (bx[:, 1] <= py[pts]) & (py[pts] <= bx[:, 3]))
            pts = pts[ok]
            nodes = nodes[ok]
            if lvl == 0:
                return pts, self.order[nodes]
            nxt_len = len(self.levels[lvl - 1])
            counts = np.minimum(self.capacity,
                                nxt_len - nodes * self.capacity)
            pts = np.repeat(pts, counts)
            base = np.repeat(nodes * self.capacity, counts)
            offs = (np.arange(len(base), dtype=np.int64)
                    - np.repeat(np.cumsum(counts) - counts, counts))
            nodes = base + offs
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
