"""Reblock stage: Steiner least-cost street networks per block.

Reference lifecycle (SURVEY §3.3, prclz ``_reblock.py:135-219``): per block
— parcel boundaries → graph, building centroids → terminals projected onto
nearest edges, block boundary → zero-weight existing roads, optional
width-aware weights, largest component, Steiner approximation, optional
through-streets — emitted as (block_id, road_type ∈ {new, existing},
geometry) rows plus the reblock_summary counters the fixtures pin down
(``example_data/reblock/Africa/DJI/reblock_summary_DJI.1.1_1.csv:1``).

Ray shape: three tables co-grouped by block_id; the graph kernel runs
inside ``map_groups`` (per-block state never crosses tasks).
"""
from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..geom import wkb
from ..geom.core import (convex_hull, ensure_closed, min_rotated_rect,
                         point_segments_distance, project_point_to_segment,
                         segments_intersect)
from ..geom.predicates import point_in_ring
from ..graph.reblock_graph import ReblockGraph


def drop_buildings_intersecting_block(parcel_rings: list[np.ndarray],
                                      centroids: np.ndarray,
                                      block_ring: np.ndarray,
                                      eps: float = 1e-7):
    """M8 (ref ``_reblock.py:21-69``): a building whose parcel shares
    boundary with the block already has street access — drop it from the
    reblocking terminals.  Touch test: any parcel vertex within ``eps`` of
    the block boundary (parcels tessellate the block, so boundary cells
    carry boundary vertices), with a segment-crossing fallback.  Buildings
    matched to no parcel are dropped with a counter (reference warns and
    drops, ``:55-57``).

    Returns (kept_centroids (k,2), n_unmatched)."""
    block = ensure_closed(np.asarray(block_ring, dtype=np.float64))
    bs_a, bs_b = block[:-1], block[1:]

    touches: list[bool] = []
    rings = []
    for ring in parcel_rings:
        r = ensure_closed(np.asarray(ring, dtype=np.float64))
        rings.append(r)
        t = bool(min(point_segments_distance(v, bs_a, bs_b).min()
                     for v in r[:-1]) <= eps)
        if not t:  # fallback: proper segment crossing without a near vertex
            for pa_, pb_ in zip(r[:-1], r[1:]):
                if any(segments_intersect(pa_, pb_, qa, qb)
                       for qa, qb in zip(bs_a, bs_b)):
                    t = True
                    break
        touches.append(t)

    cents = np.asarray(centroids, dtype=np.float64).reshape(-1, 2)
    keep, unmatched = [], 0
    for (x, y) in cents:
        owners = [j for j, r in enumerate(rings) if point_in_ring(x, y, r)]
        if not owners:
            unmatched += 1
            continue
        if any(not touches[j] for j in owners):
            keep.append((x, y))
    return np.array(keep, dtype=np.float64).reshape(-1, 2), unmatched


def add_outside_node(block_ring: np.ndarray,
                     centroids: np.ndarray) -> np.ndarray:
    """M9 (ref ``_reblock.py:71-91``): append a dummy terminal OUTSIDE the
    block (inside its min rotated rect, outside its convex hull) so the
    Steiner tree connects to the broader street network.  The reference
    takes ``representative_point(rect - hull)``; any point of that region
    is semantically equivalent — we take the midpoint between the rect
    corner farthest from the hull and its nearest hull point
    (deterministic, strictly inside rect, strictly outside hull)."""
    ring = ensure_closed(np.asarray(block_ring, dtype=np.float64))[:-1]
    hull = ensure_closed(convex_hull(ring))
    ha, hb = hull[:-1], hull[1:]
    rect = min_rotated_rect(ring)
    dists = [point_segments_distance(c, ha, hb).min() for c in rect]
    i = int(np.argmax(dists))
    corner = rect[i]
    if dists[i] > 1e-12:
        best = None
        for a, b in zip(ha, hb):
            x, y, d = project_point_to_segment((corner[0], corner[1]), a, b)
            if best is None or d < best[0]:
                best = (d, (x, y))
        q = np.asarray(best[1])
        out = (corner + q) / 2.0
    else:
        # block IS its rotated rect (hull == rect): nudge just outside a
        # corner, away from the centroid
        c = ring.mean(axis=0)
        v = corner - c
        n = float(np.hypot(*v)) or 1.0
        out = corner + v / n * max(1e-8, 1e-4 * n)
    cents = np.asarray(centroids, dtype=np.float64).reshape(-1, 2)
    return np.vstack([cents, out[None, :]])


def snap_block(block_ring: np.ndarray,
               parcel_rings: list[np.ndarray]) -> np.ndarray:
    """M10 (ref ``_reblock.py:93-132``): the parcelization introduces a
    small eps shift between block-boundary coords and parcel vertices;
    downstream edge-type marking matches graph NODES, so map every block
    vertex to its nearest parcel vertex (vectorized argmin)."""
    P = np.vstack([ensure_closed(np.asarray(r, dtype=np.float64))[:-1]
                   for r in parcel_rings])
    B = ensure_closed(np.asarray(block_ring, dtype=np.float64))
    d2 = ((B[:, None, :] - P[None, :, :]) ** 2).sum(axis=2)
    return P[d2.argmin(axis=1)]


def reblock_block(block_ring: np.ndarray, parcel_rings: list[np.ndarray],
                  centroids: np.ndarray, use_width: bool = False,
                  building_rings: list[np.ndarray] | None = None,
                  through_ratio: float | None = None,
                  connect_n: int | None = None,
                  simplify: bool = False,
                  to_corridors: bool = False) -> dict | None:
    """Single-block kernel → {new, existing, summary}; None when every
    building already has street access (reference skips the block,
    ``_reblock.py:174-176``).

    Mirrors the reference lifecycle ``_reblock.py:165-195``: drop
    street-connected buildings (M8) → add outside terminal (M9) → build
    parcel graph → add terminals → snap block coords to parcel vertices
    (M10) → mark existing streets → Steiner."""
    t0 = time.time()
    centroids = np.asarray(centroids, dtype=np.float64).reshape(-1, 2)
    n_input_bldgs = len(centroids)
    centroids, n_unmatched = drop_buildings_intersecting_block(
        parcel_rings, centroids, block_ring)
    if len(centroids) == 0:
        return None
    centroids = add_outside_node(block_ring, centroids)

    g = ReblockGraph.from_polygons(parcel_rings)
    node_pre, edge_pre = g.g.number_of_nodes(), g.g.number_of_edges()
    proj_dists_m = g.add_buildings(centroids)
    bldg_time = time.time() - t0

    snapped = snap_block(block_ring, parcel_rings)
    missing, total = g.update_edge_types(snapped, check=True)
    if use_width and building_rings:
        g.set_edge_width(building_rings, simplify=True)
        g.calc_edge_weight()
    ncomps = g.clean_graph()

    t1 = time.time()
    g.steiner_tree_approx()
    if connect_n is not None:
        # reference --connect_n: top-k worst detour pairs (_reblock.py:221-254)
        g.add_through_lines(top_k=connect_n)
    elif through_ratio is not None:
        g.add_through_lines(ratio_cutoff=through_ratio)
    steiner_time = time.time() - t1

    t2 = time.time()
    new_override = None
    if simplify:
        # corridor DP straightening (output-only, ref _reblock.py:215-217)
        if use_width is False and building_rings:
            g.set_edge_width(building_rings, simplify=True)
        new_override = g.simplify_streets()
    simplify_time = time.time() - t2

    new, existing = g.get_steiner_linestrings()
    if new_override is not None:
        new = new_override
    corr_new, corr_existing = g.get_steiner_corridors() if to_corridors \
        else ([], [])
    return {
        "new": new,
        "existing": existing,
        "corridor_new": corr_new,
        "corridor_existing": corr_existing,
        "terminals": g.get_terminal_points(),
        "summary": {
            "bldg_time": bldg_time,
            "simplify_time": simplify_time,
            "steiner_time": steiner_time,
            "num_graph_comps": ncomps,
            "node_count_pre": node_pre,
            "node_count_post": g.g.number_of_nodes(),
            "edge_count_pre": edge_pre,
            "edge_count_post": g.g.number_of_edges(),
            "bldg_count": int(len(centroids) - 1),  # excl. outside terminal
            "bldg_dropped": int(n_input_bldgs - n_unmatched
                                - (len(centroids) - 1)),
            "bldg_unmatched": int(n_unmatched),
            "num_block_coords": int(total or 0),
            "num_block_coords_unmatched": int(missing or 0),
            # geodesic diagnostic (ref _reblock_graph.py:552): how far the
            # farthest building centroid was projected onto the graph
            "terminal_proj_m_max": float(max(proj_dists_m))
            if proj_dists_m else 0.0,
        },
    }


def reblock_pipeline(blocks, parcels_ds, buildings_ds, use_width: bool = False,
                     through_ratio: float | None = None,
                     connect_n: int | None = None,
                     min_buildings: int = 2, simplify: bool = False,
                     to_corridors: bool = False):
    """blocks: (block_id, geometry) table or Dataset, joined to the
    buildings by ``joins.buildings_in_blocks``; parcels_ds and buildings_ds
    co-grouped by block_id. Output rows: REBLOCK schema + summary columns
    (road rows carry nulls in summary cols; one summary row per block
    carries road_type='summary')."""
    from .joins import buildings_in_blocks

    joined_bldgs = buildings_in_blocks(buildings_ds, blocks,
                                       ["bldg_id", "cx", "cy", "geometry"])

    b = joined_bldgs.map_batches(
        lambda t: t.append_column("_side", pa.array(np.zeros(t.num_rows, dtype=np.int8))),
        batch_format="pyarrow").select_columns(
            ["block_id", "geometry", "block_geom", "cx", "cy", "_side"])
    p = parcels_ds.map_batches(
        lambda t: t.append_column("_side", pa.array(np.ones(t.num_rows, dtype=np.int8)))
                   .append_column("block_geom", pa.nulls(t.num_rows, pa.binary()))
                   .append_column("cx", pa.array(np.full(t.num_rows, np.nan)))
                   .append_column("cy", pa.array(np.full(t.num_rows, np.nan))),
        batch_format="pyarrow").select_columns(
            ["block_id", "geometry", "block_geom", "cx", "cy", "_side"])

    def per_block(group: pa.Table) -> pa.Table:
        bid = group["block_id"][0].as_py()
        bldgs = group.filter(pc.equal(group["_side"], 0))
        parcels = group.filter(pc.equal(group["_side"], 1))
        if bldgs.num_rows < min_buildings or parcels.num_rows == 0:
            return _empty_reblock()  # reference skips ≤1-building blocks (:347)
        block_ring = wkb.decode(bldgs["block_geom"][0].as_py())[1][0]
        parcel_rings = []
        for buf in parcels["geometry"]:
            t, v = wkb.decode(buf.as_py())
            if t == wkb.POLYGON:
                parcel_rings.append(v[0])
            else:           # MultiPolygon parcel (orphan reunion): every
                parcel_rings.extend(p[0] for p in v)   # outer ring

        centroids = np.stack([bldgs["cx"].to_numpy(zero_copy_only=False),
                              bldgs["cy"].to_numpy(zero_copy_only=False)], axis=1)
        bldg_rings = []
        for buf in bldgs["geometry"]:
            t, v = wkb.decode(buf.as_py())
            bldg_rings.append(v[0] if t == wkb.POLYGON else v[0][0])
        res = reblock_block(block_ring, parcel_rings, centroids,
                            use_width=use_width, building_rings=bldg_rings,
                            through_ratio=through_ratio, connect_n=connect_n,
                            simplify=simplify, to_corridors=to_corridors)
        if res is None:  # every building already street-connected
            return _empty_reblock()  # reference skips the block (:174-176)
        rows_id, rows_type, rows_geom = [], [], []
        if res["new"]:
            rows_id.append(bid); rows_type.append("new")
            rows_geom.append(wkb.multilinestring(res["new"]))
        if res["existing"]:
            rows_id.append(bid); rows_type.append("existing")
            rows_geom.append(wkb.multilinestring(res["existing"]))
        for kind in ("corridor_new", "corridor_existing"):
            if res.get(kind):
                rows_id.append(bid); rows_type.append(kind)
                rows_geom.append(wkb.multipolygon(
                    [[r] for r in res[kind]]))
        rows_id.append(bid); rows_type.append("summary")
        rows_geom.append(wkb.multipoint(res["terminals"]))
        s = res["summary"]
        n = len(rows_id)
        cols = {
            "block_id": rows_id, "road_type": rows_type,
            "geometry": pa.array(rows_geom, type=pa.binary()),
        }
        for key in ("bldg_time", "simplify_time", "steiner_time",
                    "terminal_proj_m_max"):
            cols[key] = pa.array([None] * (n - 1) + [float(s[key])], type=pa.float64())
        for key in ("num_graph_comps", "node_count_pre", "node_count_post",
                    "edge_count_pre", "edge_count_post", "bldg_count",
                    "bldg_dropped", "bldg_unmatched",
                    "num_block_coords", "num_block_coords_unmatched"):
            cols[key] = pa.array([None] * (n - 1) + [int(s[key])], type=pa.int32())
        return pa.table(cols)

    return b.union(p).groupby("block_id").map_groups(per_block, batch_format="pyarrow")


def _empty_reblock() -> pa.Table:
    cols = {
        "block_id": pa.array([], type=pa.string()),
        "road_type": pa.array([], type=pa.string()),
        "geometry": pa.array([], type=pa.binary()),
    }
    for key in ("bldg_time", "simplify_time", "steiner_time",
                "terminal_proj_m_max"):
        cols[key] = pa.array([], type=pa.float64())
    for key in ("num_graph_comps", "node_count_pre", "node_count_post",
                "edge_count_pre", "edge_count_post", "bldg_count",
                "bldg_dropped", "bldg_unmatched",
                "num_block_coords", "num_block_coords_unmatched"):
        cols[key] = pa.array([], type=pa.int32())
    return pa.table(cols)
