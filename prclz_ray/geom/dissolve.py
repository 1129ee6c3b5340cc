"""Polygon dissolve (geometric union) for edge-sharing polygon sets.

Reference analogues: A5 ``dissolve(by='uID')`` (``_parcels.py:165``) and A6
``unary_union`` (``blocks/_extract_blocks.py:34``, corridor polygons in
``_reblock_graph.py:895-900``).

Kernel: boundary-segment cancellation.  For polygons whose interiors do not
overlap (tessellation cells, reunion pieces, corridor strips split on
shared edges), every internal edge appears in ≥2 rings and cancels; the
union boundary is exactly the set of segments appearing once.  Cycles are
re-traced with a leftmost-turn walk (handles pinch vertices).  Coordinates
are matched after rounding to ``decimals`` so edges produced by separate
clips of the same bisector still cancel.

Precondition (documented per the custom-operator rule): inputs tile — no
partially-overlapping interiors.  That is the reference's dissolve use
case; a general overlap union would need full polygon clipping.
"""
from __future__ import annotations

import numpy as np

from .core import ensure_closed, shoelace_area


def _norm_ring(ring: np.ndarray, decimals: int) -> np.ndarray:
    r = ensure_closed(np.asarray(ring, dtype=np.float64))
    r = np.round(r, decimals)
    # drop consecutive duplicates introduced by rounding
    keep = np.ones(len(r), dtype=bool)
    keep[1:] = np.any(r[1:] != r[:-1], axis=1)
    r = r[keep]
    if len(r) < 4 or np.any(r[0] != r[-1]):
        if len(r) >= 3 and np.any(r[0] != r[-1]):
            r = np.vstack([r, r[0]])
    if shoelace_area(r) < 0:            # normalize orientation to CCW
        r = r[::-1]
    return r


def _node_edges(directed: list[tuple[tuple, tuple]], decimals: int
                ) -> list[tuple[tuple, tuple]]:
    """Node the segment arrangement: split every edge at any OTHER edge's
    vertex lying on it.  Required for cancellation when two rings share a
    collinear boundary but subdivide it differently (e.g. Voronoi cells of
    adjacent samples clipped against a notched block — one cell's bisector
    edge crosses the notch walls and picks up split vertices, its
    neighbor's does not).  Interior split points reuse the EXISTING vertex
    coordinates so subdivided edges match their twins key-exactly."""
    verts = np.array(sorted({p for e in directed for p in e}))
    tol = 5.0 * 10.0 ** (-decimals)
    out: list[tuple[tuple, tuple]] = []
    for ka, kb in directed:
        a = np.asarray(ka)
        b = np.asarray(kb)
        d = b - a
        L2 = float(d @ d)
        lo = np.minimum(a, b) - tol
        hi = np.maximum(a, b) + tol
        m = np.all((verts >= lo) & (verts <= hi), axis=1)
        cand = verts[m]
        pts = [ka, kb]
        if len(cand) and L2 > 0:
            t = ((cand - a) @ d) / L2
            cross = np.abs((cand[:, 0] - a[0]) * d[1]
                           - (cand[:, 1] - a[1]) * d[0])
            on = (cross <= tol * np.sqrt(L2)) & (t > 1e-12) & (t < 1 - 1e-12)
            if on.any():
                mid = cand[on][np.argsort(t[on], kind="stable")]
                pts = [ka] + [(float(x), float(y)) for x, y in mid] + [kb]
        for p, q in zip(pts, pts[1:]):
            if p != q:
                out.append((p, q))
    return out


def dissolve_rings(rings: list[np.ndarray], decimals: int = 9
                   ) -> list[np.ndarray]:
    """Union of edge-sharing rings → list of boundary rings (CCW outer
    shells; CW rings are holes of the union)."""
    directed: list[tuple[tuple, tuple]] = []
    for ring in rings:
        r = _norm_ring(ring, decimals)
        if len(r) < 4:
            continue
        for a, b in zip(r[:-1], r[1:]):
            ka, kb = (a[0], a[1]), (b[0], b[1])
            if ka == kb:
                continue
            directed.append((ka, kb))
    directed = _node_edges(directed, decimals)
    edge_count: dict[tuple, int] = {}
    for ka, kb in directed:
        und = (ka, kb) if ka <= kb else (kb, ka)
        edge_count[und] = edge_count.get(und, 0) + 1

    boundary = [(a, b) for (a, b) in directed
                if edge_count[(a, b) if a <= b else (b, a)] == 1]
    if not boundary:
        return []

    # outgoing adjacency for the leftmost-turn walk
    out_edges: dict[tuple, list[tuple]] = {}
    for a, b in boundary:
        out_edges.setdefault(a, []).append(b)
    unused = set(boundary)

    def leftmost(prev: tuple, cur: tuple) -> tuple | None:
        cands = [b for b in out_edges.get(cur, ()) if (cur, b) in unused]
        if not cands:
            return None
        if len(cands) == 1:
            return cands[0]
        ax = np.arctan2(prev[1] - cur[1], prev[0] - cur[0])
        best, best_ang = None, None
        for b in cands:
            ang = (np.arctan2(b[1] - cur[1], b[0] - cur[0]) - ax) % (2 * np.pi)
            # smallest clockwise-from-incoming angle → leftmost turn for a
            # CCW-oriented boundary
            if best is None or ang < best_ang:
                best, best_ang = b, ang
        return best

    cycles: list[np.ndarray] = []
    for start_edge in boundary:
        if start_edge not in unused:
            continue
        a, b = start_edge
        unused.discard(start_edge)
        path = [a, b]
        while path[-1] != path[0]:
            nxt = leftmost(path[-2], path[-1])
            if nxt is None:        # open chain (inconsistent input) — drop
                path = None
                break
            unused.discard((path[-1], nxt))
            path.append(nxt)
        if path is not None and len(path) >= 4:
            cycles.append(np.asarray(path, dtype=np.float64))
    return cycles
