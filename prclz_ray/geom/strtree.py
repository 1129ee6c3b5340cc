"""STR-packed bounding-box tree (Sort-Tile-Recursive, Leutenegger et al. 1997).

Replaces the reference's rtree / pandas ``sindex`` usage
(``topology.py:358-361``, ``split_buildings.py:136-143``). Built once per
tile/worker, queried per batch — pure NumPy, no external deps.
"""
from __future__ import annotations

import numpy as np


class STRtree:
    """Static packed R-tree over item bboxes (N,4): minx,miny,maxx,maxy."""

    def __init__(self, boxes: np.ndarray, leaf_size: int = 16):
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.n = len(boxes)
        self.boxes = boxes
        if self.n == 0:
            self.order = np.empty(0, dtype=np.int64)
            self.levels = []
            return
        cx = (boxes[:, 0] + boxes[:, 2]) * 0.5
        cy = (boxes[:, 1] + boxes[:, 3]) * 0.5
        # STR packing: sort by x, slice into vertical strips, sort each by y
        nleaves = int(np.ceil(self.n / leaf_size))
        nstrips = int(np.ceil(np.sqrt(nleaves)))
        per_strip = int(np.ceil(self.n / nstrips))
        by_x = np.argsort(cx, kind="stable")
        order = np.empty(self.n, dtype=np.int64)
        for s in range(nstrips):
            strip = by_x[s * per_strip:(s + 1) * per_strip]
            strip = strip[np.argsort(cy[strip], kind="stable")]
            order[s * per_strip:s * per_strip + len(strip)] = strip
        self.order = order
        self.leaf_size = leaf_size
        # build level bboxes bottom-up
        cur = boxes[order]
        self.levels = []
        while len(cur) > 1:
            m = int(np.ceil(len(cur) / leaf_size))
            lv = np.empty((m, 4))
            for i in range(m):
                chunk = cur[i * leaf_size:(i + 1) * leaf_size]
                lv[i, 0] = chunk[:, 0].min(); lv[i, 1] = chunk[:, 1].min()
                lv[i, 2] = chunk[:, 2].max(); lv[i, 3] = chunk[:, 3].max()
            self.levels.append(lv)
            cur = lv

    def query_box(self, qminx, qminy, qmaxx, qmaxy) -> np.ndarray:
        """Indices of items whose bbox intersects the query box."""
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        if not self.levels:
            i = self.order[0]
            b = self.boxes[i]
            hit = not (b[2] < qminx or qmaxx < b[0] or b[3] < qminy or qmaxy < b[1])
            return self.order[:1] if hit else np.empty(0, dtype=np.int64)
        # descend from root level
        nodes = np.arange(len(self.levels[-1]))
        for depth in range(len(self.levels) - 1, -1, -1):
            lv = self.levels[depth]
            nb = lv[nodes]
            keep = ~((nb[:, 2] < qminx) | (qmaxx < nb[:, 0]) |
                     (nb[:, 3] < qminy) | (qmaxy < nb[:, 1]))
            nodes = nodes[keep]
            if len(nodes) == 0:
                return np.empty(0, dtype=np.int64)
            if depth > 0:
                children = (nodes[:, None] * self.leaf_size +
                            np.arange(self.leaf_size)[None, :]).ravel()
                nodes = children[children < len(self.levels[depth - 1])]
        children = (nodes[:, None] * self.leaf_size +
                    np.arange(self.leaf_size)[None, :]).ravel()
        children = children[children < self.n]
        items = self.order[children]
        b = self.boxes[items]
        keep = ~((b[:, 2] < qminx) | (qmaxx < b[:, 0]) |
                 (b[:, 3] < qminy) | (qmaxy < b[:, 1]))
        return items[keep]

    def query_points(self, px: np.ndarray, py: np.ndarray):
        """For each point, candidate item indices (bbox contains point).
        Returns (point_idx, item_idx) candidate pair arrays.

        Fully vectorized: all points descend the tree together as a
        (point, node) pair frontier — no per-point Python loop."""
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        if self.n == 0 or len(px) == 0:
            return empty
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        if not self.levels:
            item = self.order[0]
            b = self.boxes[item]
            pi = np.flatnonzero((px >= b[0]) & (px <= b[2]) &
                                (py >= b[1]) & (py <= b[3]))
            return pi, np.full(len(pi), item, dtype=np.int64)

        def _expand(P: np.ndarray, N: np.ndarray, limit: int):
            """(pairs) -> child pairs, bounded by `limit` children."""
            C = (N[:, None] * self.leaf_size +
                 np.arange(self.leaf_size)[None, :]).ravel()
            P2 = np.repeat(P, self.leaf_size)
            valid = C < limit
            return P2[valid], C[valid]

        root = self.levels[-1]
        P = np.repeat(np.arange(len(px), dtype=np.int64), len(root))
        N = np.tile(np.arange(len(root), dtype=np.int64), len(px))
        b = root[N]
        m = (px[P] >= b[:, 0]) & (px[P] <= b[:, 2]) & \
            (py[P] >= b[:, 1]) & (py[P] <= b[:, 3])
        P, N = P[m], N[m]
        for depth in range(len(self.levels) - 1, 0, -1):
            child = self.levels[depth - 1]
            P, N = _expand(P, N, len(child))
            b = child[N]
            m = (px[P] >= b[:, 0]) & (px[P] <= b[:, 2]) & \
                (py[P] >= b[:, 1]) & (py[P] <= b[:, 3])
            P, N = P[m], N[m]
            if len(P) == 0:
                return empty
        P, C = _expand(P, N, self.n)
        items = self.order[C]
        b = self.boxes[items]
        m = (px[P] >= b[:, 0]) & (px[P] <= b[:, 2]) & \
            (py[P] >= b[:, 1]) & (py[P] <= b[:, 3])
        return P[m], items[m]
