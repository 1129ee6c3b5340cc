"""Street-block extraction stage (reference: prclz ``blocks/``).

Semantics (SURVEY §3.1): regions ⋈ road linestrings, grouped per region;
per region the road arrangement is polygonized into faces = street blocks;
ids minted deterministically. The reference's default method buffers lines
by ε and differences (``blocks/_methods.py:17-40``); its documented-equal
alternative polygonizes the segment arrangement (``:43-106``). The engine's
primary method is the polygonization (robust without GEOS buffering); the
strategy interface is preserved (``:11-14`` ABC).

Stable ids: the reference enumerates polygons in library order
(``_extract_blocks.py:36``) which is not stable under re-execution
(SURVEY §7.5.5); the engine sorts faces by (minx, miny, maxx, maxy) before
minting ``{gadm}_{i}`` so ids survive retries/parallelism.
"""
from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np
import pyarrow as pa

from ..geom import wkb
from ..geom.core import bbox, shoelace_area
from ..graph.planar import node_segments, polygonize
from ..index import s2


class BlockExtractionMethod(ABC):
    @abstractmethod
    def extract(self, region_ring: np.ndarray, lines: list[np.ndarray]) -> list[np.ndarray]:
        """region exterior ring + road polylines → block rings."""


class IntersectionPolygonization(BlockExtractionMethod):
    """Primary method: node the segment arrangement (roads + region
    boundary as constraint, per ``blocks/_methods.py:101-106``) and emit
    its inner faces."""

    def extract(self, region_ring, lines):
        segs = []
        for ln in lines:
            arr = np.asarray(ln, dtype=np.float64)
            for a, b in zip(arr, arr[1:]):
                segs.append((tuple(a), tuple(b)))
        rr = np.asarray(region_ring, dtype=np.float64)
        for a, b in zip(rr, rr[1:]):
            segs.append((tuple(a), tuple(b)))
        noded = node_segments(segs)
        faces = polygonize(noded)
        return [f for f in faces if abs(shoelace_area(f)) > 1e-12]


class BufferedLineDifference(BlockExtractionMethod):
    """The reference's DEFAULT strategy (buffer lines by ε, difference
    against the region, ``blocks/_methods.py:17-40``; suggested ε 5e-6).

    Engine formulation without GEOS offsetting: build the arrangement of
    the ±ε parallel offsets of every road segment (plus flat end caps and
    the region boundary), polygonize it, and keep the faces lying OUTSIDE
    the ε-tube of every road and inside the region.  Those faces are
    exactly the connected components of region − buffer(lines, ε) with
    flat caps / miter-style joins (GEOS default uses round caps; the
    difference is confined to ε-scale corner fillets)."""

    def __init__(self, epsilon: float = 5e-6):
        self.epsilon = epsilon

    def extract(self, region_ring, lines):
        from ..geom.core import point_segments_distance, ring_centroid
        from ..geom.predicates import point_in_ring

        eps = float(self.epsilon)
        segs = []
        seg_a, seg_b = [], []          # original road segments for the tube test
        for ln in lines:
            arr = np.asarray(ln, dtype=np.float64)
            for a, b in zip(arr, arr[1:]):
                d = b - a
                n = np.hypot(*d)
                if n == 0:
                    continue
                seg_a.append(a)
                seg_b.append(b)
                u = np.array([-d[1], d[0]]) / n * eps
                segs.append((tuple(a + u), tuple(b + u)))   # left offset
                segs.append((tuple(a - u), tuple(b - u)))   # right offset
                segs.append((tuple(a + u), tuple(a - u)))   # flat caps
                segs.append((tuple(b + u), tuple(b - u)))
        rr = np.asarray(region_ring, dtype=np.float64)
        for a, b in zip(rr, rr[1:]):
            segs.append((tuple(a), tuple(b)))
        if not seg_a:
            return [np.asarray(region_ring, dtype=np.float64)]
        sa = np.asarray(seg_a)
        sb = np.asarray(seg_b)

        noded = node_segments(segs)
        faces = polygonize(noded)

        out = []
        for f in faces:
            if abs(shoelace_area(f)) <= 1e-12:
                continue
            cx, cy = ring_centroid(f)
            if not point_in_ring(cx, cy, f):
                cx, cy = f[:-1].mean(axis=0)          # concave fallback
                if not point_in_ring(cx, cy, f):
                    continue
            p = np.array([cx, cy])
            if point_segments_distance(p, sa, sb).min() <= eps:
                continue                               # road-strip face
            if not point_in_ring(cx, cy, np.asarray(region_ring)):
                continue
            out.append(f)
        return out


# Matches the reference default (``blocks/_methods.py:109`` picks
# BufferedLineDifference); IntersectionPolygonization remains the
# documented-equal alternative, selectable via the strategy arg / CLI.
DEFAULT_EXTRACTION_METHOD = BufferedLineDifference


def extract_blocks(regions_ds, lines_ds, method: BlockExtractionMethod | None = None,
                   level: int = s2.DEFAULT_LEVEL):
    """Ray pipeline: groupby(gadm_code) over the union of regions and their
    lines → per-region polygonize → blocks table
    (block_id, gadm_code, cell, geometry)."""
    method = method or DEFAULT_EXTRACTION_METHOD()

    def tag(side):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column("_side", pa.array(np.full(t.num_rows, side, dtype=np.int8)))
        return fn

    r = regions_ds.map_batches(tag(1), batch_format="pyarrow") \
        .select_columns(["gadm_code", "geometry", "_side"])
    l = lines_ds.map_batches(tag(0), batch_format="pyarrow") \
        .select_columns(["gadm_code", "geometry", "_side"])
    unioned = r.union(l)

    def per_region(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        gadm = group["gadm_code"][0].as_py()
        regions = group.filter(pc.equal(group["_side"], 1))
        lines = group.filter(pc.equal(group["_side"], 0))
        if regions.num_rows == 0:
            return _empty_blocks()
        t, v = wkb.decode(regions["geometry"][0].as_py())
        region_ring = v[0] if t == wkb.POLYGON else v[0][0]
        line_coords = []
        for buf in lines["geometry"]:
            lt, lv = wkb.decode(buf.as_py())
            if lt == wkb.LINESTRING:
                line_coords.append(lv)
            elif lt == wkb.MULTILINESTRING:
                line_coords.extend(lv)
        faces = method.extract(region_ring, line_coords)
        faces.sort(key=lambda f: bbox(f))
        # one S2 encode per region over all block centroids
        cx = np.array([f[:-1, 0].mean() for f in faces], dtype=np.float64)
        cy = np.array([f[:-1, 1].mean() for f in faces], dtype=np.float64)
        return pa.table({
            "block_id": [f"{gadm}_{i}" for i in range(len(faces))],
            "gadm_code": [gadm] * len(faces),
            "cell": pa.array(s2.lnglat_to_cellid(cx, cy, level)),
            "geometry": pa.array([wkb.polygon(f) for f in faces],
                                 type=pa.binary()),
        })

    return unioned.groupby("gadm_code").map_groups(per_region, batch_format="pyarrow")


def _empty_blocks() -> pa.Table:
    return pa.table({
        "block_id": pa.array([], type=pa.string()),
        "gadm_code": pa.array([], type=pa.string()),
        "cell": pa.array([], type=pa.uint64()),
        "geometry": pa.array([], type=pa.binary()),
    })
