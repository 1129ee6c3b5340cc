"""Spatial joins as Ray Data stages: point-in-polygon, kNN, zonal.

North-star operator set (BASELINE.json): "joined with point-in-polygon
(STRtree per tile, prepared-geometry tests), kNN (cell-ring expansion with
distance refinement), and raster↔vector zonal ops".

Reference semantics reproduced (SURVEY §2.4):
  J1/J2/J3/J4  gpd.sjoin(..., op="intersects") with inner/left/right
               variants → ``pip_join`` (broadcast) / ``pip_join_tiled``
  J5           semi/anti split (``_parcels.py:91-93``) → ``how="semi"/"anti"``
  J7           nearest-with-refinement (``_parcels.py:105-149``) → ``knn_join``

Scale design:
  - ``pip_join``: SMALL polygon side is broadcast once via ``ray.put``; each
    worker process builds an STRtree over polygon bboxes once
    (``cached_callable``, not per batch) and runs vectorized bbox-prefilter
    + ray-cast tests per batch. No shuffle of the big side.
  - ``pip_join_tiled``: BOTH sides large → co-partition by S2 cell
    (polygons replicated to every cell their bbox covers) through
    ``relational.cogroup``; each tile packs its polygons and joins its
    points with ``PIPJoiner``, the same row assembler as the broadcast
    join. One all-to-all shuffle, keyed by the shared tile key.
  - ``knn_join``: targets broadcast as a uniform-grid bucket index; ring
    expansion r=0,1,... with the standard lower-bound cutoff
    (r·cellsize > kth-best distance) then exact refinement.
"""
from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..geom import wkb
from ..geom.predicates import points_in_polygon
from ..geom.strtree import STRtree
from . import util
from .relational import (_arrow_schema, cogroup, ds_to_table, filter_rows,
                         with_schema)
from .util import cached_callable


# ------------------------------------------------------------------ helpers

def _polygon_pack(polygons, id_col: str, geom_col: str = "geometry",
                  keep_wkb: bool = False):
    """Materialize the small polygon side into (ids, rings_list, bboxes,
    wkbs-or-None); ``ids`` (and the WKB) stay Arrow arrays, so a join
    emits them with their own type.  ``keep_wkb`` retains the raw WKB so
    the join can attach the matched polygon geometry as an output column
    (per-block pipelines co-shuffle the geometry with the rows instead of
    a second driver broadcast)."""
    if hasattr(polygons, "to_arrow_refs") or hasattr(polygons, "take_all"):
        tbl = ds_to_table(polygons)
    elif isinstance(polygons, pa.Table):
        tbl = polygons
    else:
        tbl = pa.Table.from_pandas(polygons)
    geoms = tbl[geom_col].combine_chunks()
    wkbs = geoms.to_pylist()
    rings = []
    for buf in wkbs:
        t, v = wkb.decode(buf)
        if t == wkb.POLYGON:
            rings.append([v])          # single polygon: list of one rings-set
        elif t == wkb.MULTIPOLYGON:
            rings.append(v)
        else:
            raise ValueError("pip_join: geometry must be (Multi)Polygon")
    # bboxes over every ring, from the decoded rings (no second decode)
    coords = [np.concatenate([r for poly in parts for r in poly])
              for parts in rings]
    boxes = np.array([(c[:, 0].min(), c[:, 1].min(), c[:, 0].max(),
                       c[:, 1].max()) for c in coords]).reshape(-1, 4)
    return (tbl[id_col].combine_chunks(), rings, boxes,
            geoms.cast(pa.binary()) if keep_wkb else None)


class PIPJoiner:
    """PIP stage: broadcast polygons, STRtree built once per worker process,
    vectorized PIP per batch.  The one PIP row assembler: inner emits one
    row per (point, matching polygon); left adds each unmatched point once
    with a null polygon id (and geometry); semi/anti keep each point at
    most once with its own columns only.

    With ``key_col``, a (point, polygon) pair counts only where the
    point's ``key_col`` equals the polygon's entry of ``poly_keys``: the
    tiled join packs the polygon replicas of several tiles into one
    joiner, and a point must meet only its own tile's replicas."""

    def __init__(self, packed_ref, x_col: str, y_col: str, id_col: str,
                 how: str = "inner", out_id_col: Optional[str] = None,
                 attach_geom_col: Optional[str] = None,
                 key_col: Optional[str] = None,
                 poly_keys: Optional[np.ndarray] = None):
        packed = ray.get(packed_ref) if isinstance(
            packed_ref, ray.ObjectRef) else packed_ref
        ids, rings, boxes, wkbs = packed
        self.ids = ids
        self.rings = rings
        self.wkbs = wkbs
        self.tree = STRtree(boxes)
        self.x_col, self.y_col = x_col, y_col
        if how not in ("inner", "left", "semi", "anti"):
            raise ValueError(how)
        self.how = how
        self.out_id = out_id_col or id_col
        self.attach_geom_col = attach_geom_col
        self.key_col, self.poly_keys = key_col, poly_keys

    def match(self, px: np.ndarray, py: np.ndarray,
              keys: Optional[np.ndarray] = None):
        """Returns (point_idx, poly_idx) match pairs; with ``keys`` (the
        points' ``key_col``) only pairs of equal keys."""
        cand_p, cand_g = self.tree.query_points(px, py)
        if keys is not None and len(cand_p):
            same = keys[cand_p] == self.poly_keys[cand_g]
            cand_p, cand_g = cand_p[same], cand_g[same]
        if len(cand_p) == 0:
            return cand_p, cand_g
        keep = np.zeros(len(cand_p), dtype=bool)
        # group candidate pairs by polygon → one vectorized PIP per polygon
        order = np.argsort(cand_g, kind="stable")
        cand_p, cand_g = cand_p[order], cand_g[order]
        starts = np.flatnonzero(np.diff(cand_g, prepend=-1))
        for s, e in zip(starts, np.append(starts[1:], len(cand_g))):
            gi = cand_g[s]
            pts = cand_p[s:e]
            hit = np.zeros(len(pts), dtype=bool)
            for poly_rings in (self.rings[gi] if isinstance(self.rings[gi][0], list) else [self.rings[gi]]):
                hit |= points_in_polygon(px[pts], py[pts], poly_rings)
            keep[s:e] = hit
        return cand_p[keep], cand_g[keep]

    def __call__(self, batch: pa.Table) -> pa.Table:
        px = batch[self.x_col].to_numpy(zero_copy_only=False)
        py = batch[self.y_col].to_numpy(zero_copy_only=False)
        keys = None if self.key_col is None else \
            batch[self.key_col].to_numpy(zero_copy_only=False)
        pi, gi = self.match(px, py, keys)
        matched = np.zeros(batch.num_rows, dtype=bool)
        matched[pi] = True
        if self.how in ("semi", "anti"):
            return filter_rows(batch,
                               matched if self.how == "semi" else ~matched)
        if self.how == "left":
            # unmatched points take a null polygon index: their id (and
            # geometry) come out null with the polygon side's type
            un = np.flatnonzero(~matched)
            pi = np.concatenate([pi, un])
            gi = np.concatenate([gi, np.full(len(un), -1)])
        poly = pa.array(gi, mask=gi < 0)
        # a left join with no match keeps the batch's rows, in order
        out = batch if self.how == "left" and not matched.any() \
            else batch.take(pa.array(pi))
        out = out.append_column(self.out_id, self.ids.take(poly))
        if self.attach_geom_col:
            out = out.append_column(self.attach_geom_col, self.wkbs.take(poly))
        return out


def pip_join(points_ds, polygons, id_col: str, x_col: str = "lng",
             y_col: str = "lat", how: str = "inner",
             out_id_col: Optional[str] = None,
             attach_geom_col: Optional[str] = None):
    """Broadcast PIP join: big point Dataset × small polygon table.
    The polygon pack is put in the object store ONCE and read once per
    worker process — never re-shipped per batch.  ``attach_geom_col``
    additionally emits the matched polygon's WKB per output row (lets a
    downstream groupby co-shuffle the geometry instead of re-broadcasting
    the polygon table)."""
    packed = _polygon_pack(polygons, id_col,
                           keep_wkb=attach_geom_col is not None)
    ref = ray.put(packed)
    return points_ds.map_batches(
        cached_callable(PIPJoiner, packed_ref=ref, x_col=x_col, y_col=y_col,
                        id_col=id_col, how=how, out_id_col=out_id_col,
                        attach_geom_col=attach_geom_col),
        batch_format="pyarrow", zero_copy_batch=True)


# ------------------------------------------------------------- tiled join

def pip_join_tiled(points_ds, polygons_ds, id_col: str, x_col: str = "lng",
                   y_col: str = "lat", level: int = 12,
                   out_id_col: Optional[str] = None,
                   attach_geom_col: Optional[str] = None,
                   how: str = "inner"):
    """Both-sides-large PIP join, co-partitioned by S2 cell
    (``relational.cogroup``).

    polygons are replicated to every level-``level`` cell their bbox covers,
    points carry their own cell; one sort(cell) shuffle, then each
    shuffled block (one or more whole tiles) packs its polygon replicas
    once and joins its points with ``PIPJoiner``, which pairs a point
    only with the replicas of its own cell. The output keeps every point
    column plus ``cell``. Left/semi/anti semantics are exact per tile: a
    point lives in exactly one cell, so "unmatched in my tile" ==
    "unmatched globally" (and no polygon replica can match a point
    twice). Partitioning assumption: polygon bboxes are small relative
    to the tile size (documented per SURVEY custom-operator rule)."""
    from ..index import s2

    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(
            f"pip_join_tiled: how must be inner|left|semi|anti, got {how}")

    def poly_cells(batch: pa.Table) -> pa.Table:
        # one cover for the whole batch, then replicate each polygon row
        # once per covered cell with ONE arrow-level take
        idx, cells = s2.cover_bboxes(
            wkb.bboxes(batch["geometry"].to_pylist()), level)
        return batch.take(pa.array(idx)).append_column("cell", pa.array(cells))

    def point_cells(batch: pa.Table) -> pa.Table:
        cid = s2.lnglat_to_cellid(batch[x_col].to_numpy(zero_copy_only=False),
                                  batch[y_col].to_numpy(zero_copy_only=False), level)
        return batch.append_column("cell", pa.array(cid))

    # both schemas come from the inputs (no probe when they know it), so
    # planning over parquet/Arrow inputs executes nothing
    points_ds, psch = with_schema(points_ds)
    polygons_ds, gsch = with_schema(polygons_ds)
    psch = _arrow_schema(psch).append(pa.field("cell", pa.uint64()))
    gsch = pa.schema([_arrow_schema(gsch).field(c)
                      for c in (id_col, "geometry")])

    def join_tiles(pts: pa.Table, polys: pa.Table) -> pa.Table:
        # most tiles hold one side only (a polygon's cover reaches cells
        # with no point): pack only the replicas of cells with a point
        polys = polys.filter(pc.is_in(polys["cell"], value_set=pts["cell"]))
        return PIPJoiner(_polygon_pack(polys, id_col,
                                       keep_wkb=attach_geom_col is not None),
                         x_col, y_col, id_col, how, out_id_col,
                         attach_geom_col, "cell",
                         polys["cell"].to_numpy())(pts)

    return cogroup(points_ds, polygons_ds, "cell", pa.uint64(), point_cells,
                   poly_cells, join_tiles, psch, gsch)


def pip_join_auto(points_ds, polygons, id_col: str, x_col: str = "lng",
                  y_col: str = "lat", how: str = "inner",
                  out_id_col: Optional[str] = None,
                  attach_geom_col: Optional[str] = None,
                  level: int = 12):
    """Size-routed PIP join: broadcast ``pip_join`` while the polygon side
    fits ``util.BROADCAST_LIMIT_BYTES``, co-partitioned ``pip_join_tiled``
    past it.

    This is the 100×-scale guard for the per-block geo pipelines: at
    continental coverage the blocks table is 10⁶-10⁷ polygons (GBs) — a
    broadcast pack per worker would exhaust worker heaps, so the join
    switches to the one-shuffle tiled shape instead.  Dataset polygon sides
    are materialized to the OBJECT STORE (spillable) to measure size; only
    the broadcast path ever driver-materializes them."""
    import ray.data as rd

    if isinstance(polygons, pa.Table):
        size = polygons.nbytes
        tbl, ds = polygons, None
    else:
        polygons = polygons.materialize()
        size = polygons.size_bytes() or 0
        tbl, ds = None, polygons
    if size <= util.BROADCAST_LIMIT_BYTES:
        if tbl is None:
            tbl = ds_to_table(ds)
        return pip_join(points_ds, tbl, id_col=id_col, x_col=x_col,
                        y_col=y_col, how=how, out_id_col=out_id_col,
                        attach_geom_col=attach_geom_col)
    if ds is None:
        ds = rd.from_arrow(tbl)
    return pip_join_tiled(points_ds, ds, id_col=id_col, x_col=x_col,
                          y_col=y_col, level=level, out_id_col=out_id_col,
                          attach_geom_col=attach_geom_col, how=how)



def _centroid_batch(batch: pa.Table) -> pa.Table:
    # batched shoelace over uniform WKB (ref _complexity.py:104,
    # _reblock.py:166 geometry.centroid), no per-row decode
    xs, ys = wkb.polygon_centroids(batch["geometry"])
    return batch.append_column("cx", pa.array(xs)) \
        .append_column("cy", pa.array(ys))


def building_centroids(buildings_ds, cols: list):
    """Buildings (``geometry`` WKB polygons) → their ``cols``, which may
    name the centroid columns ``cx``/``cy``: one vectorized map."""
    return buildings_ds.map_batches(_centroid_batch, batch_format="pyarrow") \
        .select_columns(cols)


def buildings_in_blocks(buildings_ds, blocks, cols: list):
    """The prclz block stages' one buildings→blocks join: each building's
    ``cols`` (with ``cx``/``cy``) inner-joined by centroid to the block
    containing it, plus ``block_id`` and the block's WKB as
    ``block_geom``.  ``blocks`` is a (block_id, geometry[, ...]) table or
    Dataset; ``pip_join_auto`` broadcasts it or tiles past the budget."""
    sel = ["block_id", "geometry"]
    blocks = blocks.select(sel) if isinstance(blocks, pa.Table) \
        else blocks.select_columns(sel)
    return pip_join_auto(building_centroids(buildings_ds, cols), blocks,
                         id_col="block_id", x_col="cx", y_col="cy",
                         how="inner", attach_geom_col="block_geom")

# ------------------------------------------------------------------ kNN

class _GridIndex:
    """Uniform-grid bucket index over target points (broadcast state)."""

    def __init__(self, tx: np.ndarray, ty: np.ndarray, ids: list, cell: float):
        # pre-sort targets by id so that ascending INDEX order == ascending
        # id order: stable distance sorts then break exact-distance ties by
        # id for free (matches the ORDER BY dist, id oracle)
        ids_arr = np.asarray(ids)
        ord0 = np.argsort(ids_arr, kind="stable")
        self.tx, self.ty = tx[ord0], ty[ord0]
        self.ids = ids_arr[ord0].tolist()
        self.cell = cell
        gx = np.floor(self.tx / cell).astype(np.int64)
        gy = np.floor(self.ty / cell).astype(np.int64)
        self.buckets: dict[tuple[int, int], np.ndarray] = {}
        order = np.lexsort((gy, gx))
        keys = np.stack([gx[order], gy[order]], axis=1)
        if len(order):
            change = np.any(np.diff(keys, axis=0) != 0, axis=1)
            starts = np.concatenate([[0], np.flatnonzero(change) + 1, [len(order)]])
            for s, e in zip(starts, starts[1:]):
                self.buckets[(int(keys[s, 0]), int(keys[s, 1]))] = \
                    np.sort(order[s:e])

    def knn(self, px: float, py: float, k: int):
        """Ring expansion with distance refinement: grow rings until the
        kth-best exact distance is below the next ring's lower bound."""
        gx, gy = int(np.floor(px / self.cell)), int(np.floor(py / self.cell))
        best_idx: list[int] = []
        best_d: list[float] = []
        r = 0
        while True:
            # candidates on ring r
            cand = []
            if r == 0:
                cand.extend(self.buckets.get((gx, gy), ()))
            else:
                for dx in range(-r, r + 1):
                    for dy in (-r, r):
                        cand.extend(self.buckets.get((gx + dx, gy + dy), ()))
                for dy in range(-r + 1, r):
                    for dx in (-r, r):
                        cand.extend(self.buckets.get((gx + dx, gy + dy), ()))
            if cand:
                cand = np.asarray(cand, dtype=np.int64)
                d = np.sqrt((self.tx[cand] - px) ** 2 + (self.ty[cand] - py) ** 2)
                best_idx.extend(cand.tolist())
                best_d.extend(d.tolist())
            if len(best_d) >= k:
                # order by (distance, target id): exact-tie behavior matches
                # an ORDER BY dist, id oracle
                tie = np.asarray([self.ids[i] for i in best_idx])
                order = np.lexsort((tie, np.asarray(best_d)))[:k]
                kth = np.asarray(best_d)[order[-1]]
                # lower bound of ring r+1: r * cell (points at least this far)
                if kth <= r * self.cell:
                    bi = np.asarray(best_idx)[order]
                    bd = np.asarray(best_d)[order]
                    return bi, bd
            r += 1
            if r > 1_000_000:  # no targets at all
                return np.asarray(best_idx[:k], dtype=np.int64), np.asarray(best_d[:k])


class KNNJoiner:
    def __init__(self, packed_ref, x_col, y_col, k, id_col, out_prefix="nn"):
        tx, ty, ids, cell = ray.get(packed_ref) if isinstance(
            packed_ref, ray.ObjectRef) else packed_ref
        self.index = _GridIndex(tx, ty, ids, cell)
        self.x_col, self.y_col, self.k = x_col, y_col, k
        self.out_prefix = out_prefix

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Vectorized common case: query points grouped by grid cell, one
        distance matrix per distinct cell against the 3×3-neighborhood
        candidates, stable top-k (tie-break by id via index pre-sort).
        Safe when the kth distance ≤ cell (ring-2 lower bound); points
        failing that bound fall back to per-point ring expansion."""
        ix = self.index
        k = self.k
        px = batch[self.x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        py = batch[self.y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        n = len(px)
        res_idx = np.full((n, k), -1, dtype=np.int64)
        res_d = np.full((n, k), np.inf)
        res_cnt = np.zeros(n, dtype=np.int64)

        gx = np.floor(px / ix.cell).astype(np.int64)
        gy = np.floor(py / ix.cell).astype(np.int64)
        order = np.lexsort((gy, gx))
        fallback: list[int] = []
        s = 0
        while s < n:
            e = s
            cx, cy = gx[order[s]], gy[order[s]]
            while e < n and gx[order[e]] == cx and gy[order[e]] == cy:
                e += 1
            grp = order[s:e]
            s = e
            cand_parts = [ix.buckets.get((cx + dx, cy + dy))
                          for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
            cand_parts = [c for c in cand_parts if c is not None]
            cand = np.sort(np.concatenate(cand_parts)) if cand_parts else \
                np.empty(0, dtype=np.int64)
            # sorted so ascending candidate POSITION == ascending id (index
            # order == id order after the constructor pre-sort): without it,
            # exact-distance ties across neighboring grid cells would break
            # by bucket iteration order, diverging from ORDER BY dist, id
            if len(cand) < k:
                fallback.extend(grp.tolist())
                continue
            d = np.sqrt((px[grp][:, None] - ix.tx[cand][None, :]) ** 2 +
                        (py[grp][:, None] - ix.ty[cand][None, :]) ** 2)
            # candidates ascend by id (index pre-sort) → stable sort ties
            sel = np.argsort(d, axis=1, kind="stable")[:, :k]
            kd = np.take_along_axis(d, sel, axis=1)
            ok = kd[:, k - 1] <= ix.cell  # ring-2 points are ≥ cell away
            good = grp[ok]
            res_idx[good] = cand[sel[ok]]
            res_d[good] = kd[ok]
            res_cnt[good] = k
            fallback.extend(grp[~ok].tolist())

        for i in fallback:
            bi, bd = ix.knn(float(px[i]), float(py[i]), k)
            m = len(bi)
            res_idx[i, :m] = bi
            res_d[i, :m] = bd
            res_cnt[i] = m

        rows = np.repeat(np.arange(n), res_cnt)
        flat_mask = (np.arange(k)[None, :] < res_cnt[:, None]).reshape(-1)
        flat_idx = res_idx.reshape(-1)[flat_mask]
        flat_d = res_d.reshape(-1)[flat_mask]
        ranks = (np.tile(np.arange(1, k + 1), n)[flat_mask]).astype(np.int32)
        ids_arr = np.asarray(ix.ids)
        out = batch.take(pa.array(rows))
        out = out.append_column(f"{self.out_prefix}_id",
                                pa.array(ids_arr[flat_idx]))
        out = out.append_column(f"{self.out_prefix}_rank", pa.array(ranks))
        out = out.append_column(f"{self.out_prefix}_dist",
                                pa.array(flat_d, type=pa.float64()))
        return out


def knn_join(points_ds, targets, k: int, id_col: str, x_col: str = "lng",
             y_col: str = "lat", tx_col: str = "lng", ty_col: str = "lat",
             cell_size: Optional[float] = None, out_prefix: str = "nn"):
    """kNN join: each point gets its k nearest targets (broadcast target
    side, grid-bucket ring expansion + exact refinement)."""
    if isinstance(targets, pa.Table):
        tbl = targets
    else:
        tbl = ds_to_table(targets)
    tx = tbl[tx_col].to_numpy(zero_copy_only=False).astype(np.float64)
    ty = tbl[ty_col].to_numpy(zero_copy_only=False).astype(np.float64)
    ids = tbl[id_col].to_pylist()
    if cell_size is None:
        # heuristic: ~match the target density so ring-0 holds a few points
        span = max(tx.max() - tx.min(), ty.max() - ty.min(), 1e-9)
        cell_size = span / max(1.0, np.sqrt(len(tx)))
    ref = ray.put((tx, ty, ids, float(cell_size)))
    return points_ds.map_batches(
        cached_callable(KNNJoiner, packed_ref=ref, x_col=x_col, y_col=y_col,
                        k=k, id_col=id_col, out_prefix=out_prefix),
        batch_format="pyarrow", zero_copy_batch=True)


# ------------------------------------------------------------------ zonal

def zonal_stats(points_ds, polygons, id_col: str, value_col: str,
                x_col: str = "lng", y_col: str = "lat"):
    """Zonal aggregate: PIP join then per-zone count/sum/mean/min/max.
    Raster↔vector semantics = J1 with aggregate-over-cells (SURVEY §2.4)."""
    from ray.data.aggregate import Count, Max, Mean, Min, Sum
    joined = pip_join(points_ds, polygons, id_col, x_col, y_col,
                      how="inner")
    return joined.groupby(id_col).aggregate(
        Count(alias_name="n"),
        Sum(value_col, alias_name="sum_value"),
        Mean(value_col, alias_name="mean_value"),
        Min(value_col, alias_name="min_value"),
        Max(value_col, alias_name="max_value"),
    )


def rasterize_points(points_ds, x_col: str = "lng", y_col: str = "lat",
                     value_col: Optional[str] = None, res: float = 0.01):
    """Vector→raster: aggregate points onto a uniform grid (pixel id =
    floor(x/res), floor(y/res)); partial aggregation inside map_batches
    before the small groupby shuffle."""
    def partial(batch: pa.Table) -> pa.Table:
        px = np.floor(batch[x_col].to_numpy(zero_copy_only=False) / res).astype(np.int64)
        py = np.floor(batch[y_col].to_numpy(zero_copy_only=False) / res).astype(np.int64)
        key = px * np.int64(1 << 32) + py
        vals = (batch[value_col].to_numpy(zero_copy_only=False)
                if value_col else np.ones(len(px)))
        uniq, inv = np.unique(key, return_inverse=True)
        sums = np.zeros(len(uniq))
        np.add.at(sums, inv, vals)
        counts = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(counts, inv, 1)
        return pa.table({
            "pixel": uniq,
            "px": (uniq // (1 << 32)).astype(np.int64),
            "py": (uniq - (uniq // (1 << 32)) * (1 << 32)).astype(np.int64),
            "part_sum": sums, "part_n": counts,
        })

    from ray.data.aggregate import Max, Sum
    partials = points_ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("pixel").aggregate(
        Sum("part_sum", alias_name="value"),
        Sum("part_n", alias_name="n"),
        Max("px", alias_name="px"),
        Max("py", alias_name="py"),
    )


def raster_zonal(raster_ds, polygons, id_col: str, res: float = 0.01):
    """Raster→vector zonal: pixel centers PIP-joined to polygons, then
    aggregated per zone (value-weighted)."""
    def centers(batch: pa.Table) -> pa.Table:
        cx = (batch["px"].to_numpy(zero_copy_only=False) + 0.5) * res
        cy = (batch["py"].to_numpy(zero_copy_only=False) + 0.5) * res
        out = batch.append_column("cx", pa.array(cx))
        return out.append_column("cy", pa.array(cy))

    from ray.data.aggregate import Count, Sum
    with_centers = raster_ds.map_batches(centers, batch_format="pyarrow")
    joined = pip_join(with_centers, polygons, id_col, x_col="cx", y_col="cy",
                      how="inner")
    return joined.groupby(id_col).aggregate(
        Sum("value", alias_name="zone_value"),
        Sum("n", alias_name="zone_points"),
        Count(alias_name="zone_pixels"),
    )
