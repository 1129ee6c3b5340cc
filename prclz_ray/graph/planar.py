"""Planar graph kernel: rotation-system face tracing and the weak dual.

Semantics reproduced from prclz ``topology.py`` (fresh implementation):
  - embedding: each node's neighbors sorted by arctan2(dx, dy)
    (``topology.py:305-313`` — note x first, i.e. clockwise from north)
  - trace_faces: the SAGE rotation algorithm (``topology.py:315-354``);
    the largest face (by edge count) is the outer sphere face and is dropped
  - weak_dual: faces become nodes at their shoelace centroid; two faces are
    adjacent iff they share an edge or touch along a non-point boundary
    (``topology.py:356-375``)
  - face centroid: shoelace with |2A| < 0.02 degenerate fallback to vertex
    mean (``topology.py:144-168``)

This graph is per-block worker state only — it never crosses a Ray task
boundary (SURVEY §1.5).
"""
from __future__ import annotations

import numpy as np

Coord = tuple[float, float]


class PlanarGraph:
    def __init__(self):
        self.adj: dict[Coord, set[Coord]] = {}

    @staticmethod
    def from_polygons(rings: list[np.ndarray]) -> "PlanarGraph":
        g = PlanarGraph()
        for ring in rings:
            r = np.asarray(ring, dtype=np.float64)
            pts = [(float(x), float(y)) for x, y in r]
            if pts[0] != pts[-1]:
                pts.append(pts[0])
            for a, b in zip(pts, pts[1:]):
                g.add_edge(a, b)
        return g

    @staticmethod
    def from_segments(segments) -> "PlanarGraph":
        g = PlanarGraph()
        for a, b in segments:
            g.add_edge((float(a[0]), float(a[1])), (float(b[0]), float(b[1])))
        return g

    def add_edge(self, a: Coord, b: Coord) -> None:
        if a == b:
            return
        self.adj.setdefault(a, set()).add(b)
        self.adj.setdefault(b, set()).add(a)

    def add_node(self, a: Coord) -> None:
        self.adj.setdefault(a, set())

    def number_of_nodes(self) -> int:
        return len(self.adj)

    def number_of_edges(self) -> int:
        return sum(len(v) for v in self.adj.values()) // 2

    def embedding(self) -> dict[Coord, list[Coord]]:
        return {
            node: sorted(nbrs, key=lambda nb: np.arctan2(nb[0] - node[0], nb[1] - node[1]))
            for node, nbrs in self.adj.items()
        }

    def trace_faces(self) -> list[list[tuple[Coord, Coord]]]:
        """All faces (as directed-edge lists) including the outer face."""
        if len(self.adj) < 2:
            return []
        emb = self.embedding()
        edgeset = set()
        for a, nbrs in self.adj.items():
            for b in nbrs:
                edgeset.add((a, b))
        if not edgeset:
            return []  # isolated nodes only → no faces
        # deterministic starting edge: smallest directed edge
        faces = []
        face = [min(edgeset)]
        edgeset.remove(face[0])
        while edgeset:
            prev_a, prev_b = face[-1]
            nbrs = emb[prev_b]
            nxt = nbrs[(nbrs.index(prev_a) + 1) % len(nbrs)]
            cand = (prev_b, nxt)
            if cand == face[0]:
                faces.append(face)
                face = [min(edgeset)]
                edgeset.remove(face[0])
            else:
                face.append(cand)
                edgeset.remove(cand)
        if face:
            faces.append(face)
        return faces

    def inner_faces(self) -> list[list[tuple[Coord, Coord]]]:
        """Faces minus the outer sphere face (largest by edge count,
        stable order otherwise — ``topology.py:344-348``)."""
        faces = sorted(self.trace_faces(), key=len)
        return faces[:-1]

    @staticmethod
    def face_centroid(face: list[tuple[Coord, Coord]]) -> Coord:
        acc_a2 = acc_cx = acc_cy = 0.0
        for (x0, y0), (x1, y1) in face:
            cross = x0 * y1 - x1 * y0
            acc_a2 += cross
            acc_cx += (x0 + x1) * cross
            acc_cy += (y0 + y1) * cross
        if abs(acc_a2) < 0.02:
            nodes = sorted({p for e in face for p in e})
            cx = sum(p[0] for p in nodes) / len(nodes)
            cy = sum(p[1] for p in nodes) / len(nodes)
            return (cx, cy)
        a6 = 3.0 * acc_a2
        return (acc_cx / a6, acc_cy / a6)

    @staticmethod
    def _face_edge_keys(face) -> set[frozenset]:
        return {frozenset(e) for e in face}

    def weak_dual(self) -> "PlanarGraph":
        """Faces → nodes (at centroid); adjacency iff shared undirected edge
        or collinear-overlap touching (non-point intersection)."""
        from ..geom.strtree import STRtree
        faces = self.inner_faces()
        if not faces:
            return PlanarGraph()
        boxes = np.empty((len(faces), 4))
        for i, f in enumerate(faces):
            pts = np.array([p for e in f for p in e])
            boxes[i] = (pts[:, 0].min(), pts[:, 1].min(), pts[:, 0].max(), pts[:, 1].max())
        tree = STRtree(boxes)
        edge_keys = [self._face_edge_keys(f) for f in faces]
        centroids = [self.face_centroid(f) for f in faces]
        dual = PlanarGraph()
        for i in range(len(faces)):
            # EVERY face becomes a dual node: the reference's rtree-nearest
            # candidate list includes the face itself, whose shared-edge
            # self-match adds a (centroid, centroid) self-loop node
            # (``topology.py:367-373``) — so isolated faces survive one more
            # dual level instead of vanishing.
            dual.add_node(centroids[i])
            cands = tree.query_box(*boxes[i])
            for j in cands:
                j = int(j)
                if j == i:
                    continue
                # adjacency = exact shared undirected edge. The reference's
                # second clause (intersects ∧ touches ∧ intersection not
                # Point, ``topology.py:372``) is dead code for straight
                # segments: a collinear overlap intersects both interiors so
                # shapely ``touches`` is False — verified by running the
                # reference's own nx engine (with stubbed rtree/shapely) on
                # identical face inputs. DJI golden conformance: 146/196
                # exact, |diff| ≤ 2.
                if edge_keys[i] & edge_keys[j]:
                    dual.add_edge(centroids[i], centroids[j])
        return dual


def weak_dual_sequence_depth(s0: PlanarGraph) -> int:
    """k-complexity: iterate weak_dual until the graph has no nodes;
    k = len(sequence) - 1 (``_complexity.py:57-68``)."""
    seq = [s0]
    while seq[-1].number_of_nodes() > 0:
        seq.append(seq[-1].weak_dual())
    seq.pop()
    return len(seq) - 1 if seq else 0


def polygonize(segments) -> list[np.ndarray]:
    """Planar-arrangement polygonization of noded segments → inner-face
    rings (closed (N,2) arrays). Engine analogue of GEOS polygonize used by
    the reference's IntersectionPolygonization block extractor
    (``blocks/_methods.py:80-106``). Segments must be noded (intersect only
    at shared endpoints) — the blocks stage nodes them first."""
    g = PlanarGraph.from_segments(segments)
    out = []
    for face in g.inner_faces():
        ring = np.array([e[0] for e in face] + [face[0][0]], dtype=np.float64)
        from ..geom.core import shoelace_area
        if abs(shoelace_area(ring)) < 1e-12:
            continue
        out.append(ring)
    return out


def node_segments(segments: list[tuple]) -> list[tuple]:
    """Split segments at pairwise intersection points (snap-rounded to 1e-9)
    so the result is a valid noded arrangement for ``polygonize``."""
    from ..geom.core import segments_intersect
    segs = [((float(a[0]), float(a[1])), (float(b[0]), float(b[1]))) for a, b in segments]
    cut_pts: list[list[tuple]] = [[] for _ in segs]
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            a0, a1 = segs[i]
            b0, b1 = segs[j]
            if not segments_intersect(a0, a1, b0, b1):
                continue
            p = _seg_intersection_point(a0, a1, b0, b1)
            if p is not None:
                cut_pts[i].append(p)
                cut_pts[j].append(p)
    out = []
    for (a, b), cuts in zip(segs, cut_pts):
        pts = [a, b] + [p for p in cuts]
        # order along the segment
        dx, dy = b[0] - a[0], b[1] - a[1]
        pts = sorted(set(pts), key=lambda p: (p[0] - a[0]) * dx + (p[1] - a[1]) * dy)
        for u, v in zip(pts, pts[1:]):
            if u != v:
                out.append((u, v))
    return out


def _seg_intersection_point(a0, a1, b0, b1):
    dax, day = a1[0] - a0[0], a1[1] - a0[1]
    dbx, dby = b1[0] - b0[0], b1[1] - b0[1]
    denom = dax * dby - day * dbx
    if abs(denom) < 1e-30:
        return None  # collinear/parallel: endpoints already node the overlap
    t = ((b0[0] - a0[0]) * dby - (b0[1] - a0[1]) * dbx) / denom
    x, y = a0[0] + t * dax, a0[1] + t * day
    return (round(x, 9), round(y, 9))
