"""Spatial predicates: vectorized point-in-polygon, bbox tests.

The engine's PIP join (north-star "point-in-polygon, STRtree per tile,
prepared-geometry tests") uses: STRtree bbox prefilter → ray-casting test.
Semantics match shapely's ``intersects`` for point×polygon: boundary points
count as intersecting (prclz join call sites use op="intersects",
``_complexity.py:107``, ``etl/_split_buildings.py:58``).
"""
from __future__ import annotations

import numpy as np

from .core import ensure_closed


def points_in_ring(px: np.ndarray, py: np.ndarray, ring: np.ndarray,
                   boundary: bool = True) -> np.ndarray:
    """Vectorized ray-casting PIP for many points vs one ring.
    boundary=True counts on-edge points as inside (intersects semantics)."""
    ring = ensure_closed(np.asarray(ring, dtype=np.float64))
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    n = len(ring) - 1
    inside = np.zeros(len(px), dtype=bool)
    on_edge = np.zeros(len(px), dtype=bool)
    x0, y0 = ring[:-1, 0], ring[:-1, 1]
    x1, y1 = ring[1:, 0], ring[1:, 1]
    for i in range(n):
        xa, ya, xb, yb = x0[i], y0[i], x1[i], y1[i]
        # on-segment test (exact for axis-aligned, eps for general)
        cross = (xb - xa) * (py - ya) - (yb - ya) * (px - xa)
        within = ((px >= min(xa, xb) - 1e-12) & (px <= max(xa, xb) + 1e-12) &
                  (py >= min(ya, yb) - 1e-12) & (py <= max(ya, yb) + 1e-12))
        on_edge |= (np.abs(cross) < 1e-12) & within
        # ray cast: edge crosses horizontal ray to +inf
        cond = (ya > py) != (yb > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = xa + (py - ya) / (yb - ya) * (xb - xa)
        inside ^= cond & (px < xint)
    return (inside | on_edge) if boundary else (inside & ~on_edge)


def point_in_ring(x: float, y: float, ring: np.ndarray, boundary: bool = True) -> bool:
    return bool(points_in_ring(np.array([x]), np.array([y]), ring, boundary)[0])


def points_in_polygon(px: np.ndarray, py: np.ndarray, rings: list[np.ndarray],
                      boundary: bool = True) -> np.ndarray:
    """PIP vs polygon-with-holes (ring 0 exterior, rest holes)."""
    res = points_in_ring(px, py, rings[0], boundary)
    for hole in rings[1:]:
        in_hole = points_in_ring(px, py, hole, boundary=not boundary)
        res &= ~in_hole
    return res
