"""Scalar/array geometry kernels on raw coordinate arrays.

NumPy-vectorized equivalents of the coordinate math the reference does with
shapely/geopy (semantics per prclz ``topology.py:130-168`` shoelace
area/centroid, ``_reblock_graph.py:84-181`` distance / point-to-line /
projection). All polygons are (N,2) float64 arrays of exterior-ring coords,
closed (first == last) unless stated otherwise.
"""
from __future__ import annotations

import numpy as np


def ensure_closed(ring: np.ndarray) -> np.ndarray:
    ring = np.asarray(ring, dtype=np.float64)
    if len(ring) == 0 or np.array_equal(ring[0], ring[-1]):
        return ring
    return np.vstack([ring, ring[:1]])


def shoelace_area(ring: np.ndarray) -> float:
    """Signed area of a closed ring (positive = CCW)."""
    r = ensure_closed(ring)
    x, y = r[:-1, 0], r[:-1, 1]
    x1, y1 = r[1:, 0], r[1:, 1]
    return 0.5 * float(np.sum(x * y1 - x1 * y))


def ring_centroid(ring: np.ndarray) -> tuple[float, float]:
    """Shoelace centroid; degenerate (|2A| < eps) rings fall back to the
    vertex mean — mirrors prclz ``topology.py:158`` (threshold 0.02 there is
    applied by the complexity kernel; here the caller passes it)."""
    r = ensure_closed(ring)
    x, y = r[:-1, 0], r[:-1, 1]
    x1, y1 = r[1:, 0], r[1:, 1]
    cross = x * y1 - x1 * y
    a2 = float(np.sum(cross))
    if abs(a2) < 1e-12:
        return float(np.mean(r[:-1, 0])), float(np.mean(r[:-1, 1]))
    cx = float(np.sum((x + x1) * cross)) / (3.0 * a2)
    cy = float(np.sum((y + y1) * cross)) / (3.0 * a2)
    return cx, cy


def bbox(coords: np.ndarray) -> tuple[float, float, float, float]:
    c = np.asarray(coords, dtype=np.float64)
    return (
        float(c[:, 0].min()), float(c[:, 1].min()),
        float(c[:, 0].max()), float(c[:, 1].max()),
    )


def dist(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.sqrt(np.sum((a - b) ** 2)))


def project_point_to_segment(p, a, b) -> tuple[float, float, float]:
    """Closest point on segment [a,b] to p → (x, y, distance).

    Matches the reference's closest_point_to_node semantics
    (``_reblock_graph.py:371-398``): clamp the infinite-line projection to the
    segment (endpoint if the projection falls outside)."""
    p = np.asarray(p, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(a[0]), float(a[1]), dist(p, a)
    t = float((p - a) @ ab) / denom
    t = min(1.0, max(0.0, t))
    q = a + t * ab
    return float(q[0]), float(q[1]), dist(p, q)


def point_segments_distance(p, seg_a: np.ndarray, seg_b: np.ndarray) -> np.ndarray:
    """Vectorized distance from point p to many segments (seg_a[i]→seg_b[i])."""
    p = np.asarray(p, dtype=np.float64)
    a = np.asarray(seg_a, dtype=np.float64)
    b = np.asarray(seg_b, dtype=np.float64)
    ab = b - a
    denom = np.sum(ab * ab, axis=1)
    denom_safe = np.where(denom == 0.0, 1.0, denom)
    t = np.clip(np.sum((p - a) * ab, axis=1) / denom_safe, 0.0, 1.0)
    t = np.where(denom == 0.0, 0.0, t)
    q = a + t[:, None] * ab
    return np.sqrt(np.sum((q - p) ** 2, axis=1))


def _seg_seg_distance(p1, p2, q1, q2) -> float:
    """Distance between two segments in 2-D."""
    if segments_intersect(p1, p2, q1, q2):
        return 0.0
    cands = (
        project_point_to_segment(p1, q1, q2)[2],
        project_point_to_segment(p2, q1, q2)[2],
        project_point_to_segment(q1, p1, p2)[2],
        project_point_to_segment(q2, p1, p2)[2],
    )
    return min(cands)


def polyline_polygon_distance(line: np.ndarray, ring: np.ndarray) -> float:
    """Min distance between a polyline and a polygon exterior ring (0 if they
    intersect or the line is inside). Spec: ``_reblock_graph.py:1090-1093``
    (shapely LineString.distance(Polygon))."""
    from .predicates import point_in_ring
    line = np.asarray(line, dtype=np.float64)
    ring = ensure_closed(np.asarray(ring, dtype=np.float64))
    if point_in_ring(line[0, 0], line[0, 1], ring):
        return 0.0
    best = np.inf
    for i in range(len(line) - 1):
        for j in range(len(ring) - 1):
            d = _seg_seg_distance(line[i], line[i + 1], ring[j], ring[j + 1])
            if d < best:
                best = d
            if best == 0.0:
                return 0.0
    return best


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def segments_intersect(p1, p2, q1, q2) -> bool:
    """Proper or improper (touching) segment intersection test."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True

    def on_seg(a, b, c):
        return (min(a[0], b[0]) - 1e-12 <= c[0] <= max(a[0], b[0]) + 1e-12 and
                min(a[1], b[1]) - 1e-12 <= c[1] <= max(a[1], b[1]) + 1e-12)

    if d1 == 0 and on_seg(q1, q2, p1):
        return True
    if d2 == 0 and on_seg(q1, q2, p2):
        return True
    if d3 == 0 and on_seg(p1, p2, q1):
        return True
    if d4 == 0 and on_seg(p1, p2, q2):
        return True
    return False


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew monotone chain; returns the hull CCW, first point NOT
    repeated.  Degenerate inputs (<3 distinct points, collinear) return
    the distinct points sorted."""
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) < 3:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def half(seq):
        h: list = []
        for p in seq:
            while len(h) >= 2 and _orient(h[-2], h[-1], p) <= 0:
                h.pop()
            h.append(p)
        return h

    lower = half(pts)
    upper = half(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    return hull if len(hull) >= 3 else pts


def min_rotated_rect(points: np.ndarray) -> np.ndarray:
    """Minimum-area rotated bounding rectangle via rotating calipers over
    the convex hull: one candidate rectangle per hull edge direction.
    Returns the 4 corners (4, 2), CCW (shapely's
    ``minimum_rotated_rectangle`` analogue for the outside-node step)."""
    hull = convex_hull(points)
    if len(hull) < 3:  # degenerate: axis-aligned bbox of the points
        x0, y0, x1, y1 = bbox(np.asarray(points, dtype=np.float64))
        return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    best = None
    for i in range(len(hull)):
        e = hull[(i + 1) % len(hull)] - hull[i]
        n = np.hypot(*e)
        if n == 0:
            continue
        ux, uy = e / n
        R = np.array([[ux, uy], [-uy, ux]])      # rotate edge onto +x
        rot = hull @ R.T
        x0, y0 = rot.min(axis=0)
        x1, y1 = rot.max(axis=0)
        area = (x1 - x0) * (y1 - y0)
        if best is None or area < best[0]:
            corners = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]) @ R
            best = (area, corners)
    return best[1]
