"""Block-extraction strategy parity: the reference's default
BufferedLineDifference (``blocks/_methods.py:17-40``) vs
IntersectionPolygonization (``:43-106``) — documented-equal strategies must
produce the same block decomposition on the synth grid."""
import numpy as np

from prclz_ray.geom import wkb
from prclz_ray.geom.core import shoelace_area
from prclz_ray.io import synth
from prclz_ray.stages.blocks import (BufferedLineDifference,
                                     IntersectionPolygonization)


def _region_inputs():
    reg = synth.regions_table()
    lin = synth.lines_table()
    gadm = reg["gadm_code"][0].as_py()
    rring = wkb.decode(reg["geometry"][0].as_py())[1][0]
    lines = [wkb.decode(b.as_py())[1]
             for g, b in zip(lin["gadm_code"].to_pylist(), lin["geometry"])
             if g == gadm]
    return rring, lines


def test_strategies_same_block_count():
    rring, lines = _region_inputs()
    ip = IntersectionPolygonization().extract(rring, lines)
    bld = BufferedLineDifference(epsilon=1e-3).extract(rring, lines)
    assert len(ip) == len(bld) == 16     # 4×4 grid per synth region

    # each buffered face is the ε-shrunk version of exactly one
    # polygonized face: match by centroid, compare areas
    def cent(f):
        return tuple(np.round(f[:-1].mean(axis=0), 3))

    by_c = {cent(f): abs(shoelace_area(f)) for f in ip}
    for f in bld:
        c = cent(f)
        assert c in by_c
        a_full, a_shrunk = by_c[c], abs(shoelace_area(f))
        assert a_shrunk < a_full                # strictly inside the tube
        assert a_full - a_shrunk < 4 * 1e-3 * np.sqrt(a_full) * 2


def test_buffered_no_roads_returns_region():
    rring, _ = _region_inputs()
    out = BufferedLineDifference(epsilon=1e-3).extract(rring, [])
    assert len(out) == 1
    assert abs(abs(shoelace_area(out[0])) - abs(shoelace_area(rring))) < 1e-9


# --- DJI golden: buffered strategy on the reference's own geometry ------
# The reference ships only the block OUTPUTS (example_data/blocks/.../
# blocks_DJI.1.1_1.csv), each ε-inset by its buffered-difference run, so
# the original road arrangement is not reconstructible exactly.  The
# golden instead exercises BufferedLineDifference on the reference's own
# real-world polygons (concave, collinear runs, 80-180 vertices): cut
# each with a bbox-spanning cross of chords and check (a) strategy parity
# with IntersectionPolygonization on face count, (b) the polygonized
# faces tile the region exactly, (c) the buffered deficit is the ε-strip
# of the cuts — the defining property of region − buffer(lines, ε)
# (reference blocks/_methods.py:17-40, ε=5e-6).

DJI_BLOCKS = ("/root/reference/example_data/blocks/Africa/DJI/"
              "blocks_DJI.1.1_1.csv")


def _dji_rings():
    import pandas as pd

    df = pd.read_csv(DJI_BLOCKS)

    def parse(w):
        ring = w[w.index("((") + 2:].split(")")[0]
        return np.array([[float(x) for x in p.split()]
                         for p in ring.split(",")])

    rings = {b: parse(w) for b, w in zip(df["block_id"], df["geometry"])}
    cand = sorted(rings.items(),
                  key=lambda kv: -abs(shoelace_area(kv[1])))
    return [kv for kv in cand if len(kv[1]) < 200][:3]


def test_buffered_dji_golden():
    eps = 5e-6
    for bid, r in _dji_rings():
        minx, miny = r.min(axis=0)
        maxx, maxy = r.max(axis=0)
        cx, cy = (minx + maxx) / 2, (miny + maxy) / 2
        lines = [np.array([[cx, miny - 1e-4], [cx, maxy + 1e-4]]),
                 np.array([[minx - 1e-4, cy], [maxx + 1e-4, cy]])]
        ip = IntersectionPolygonization().extract(r, lines)
        bl = BufferedLineDifference(epsilon=eps).extract(r, lines)
        assert len(ip) == len(bl) >= 3, bid
        a_reg = abs(shoelace_area(r))
        a_ip = sum(abs(shoelace_area(f)) for f in ip)
        a_bl = sum(abs(shoelace_area(f)) for f in bl)
        # polygonized faces tile the region exactly
        assert abs(a_ip - a_reg) < 1e-11 + 1e-8 * a_reg, bid
        # buffered faces lose exactly the ε-strip of the cuts
        deficit = a_ip - a_bl
        strip_ub = ((maxx - minx) + (maxy - miny) + 4e-4) * 2 * eps * 2
        assert 0 < deficit < strip_ub, (bid, deficit, strip_ub)


def test_default_strategy_matches_reference():
    from prclz_ray.stages.blocks import (DEFAULT_EXTRACTION_METHOD,
                                         BufferedLineDifference as B)
    # reference default: blocks/_methods.py:109
    assert DEFAULT_EXTRACTION_METHOD is B


def test_block_cells_match_per_face_encoding():
    """extract_blocks encodes all of a region's block centroids in one S2
    call; each block's cell must equal encoding its own centroid alone."""
    from collections import Counter

    import ray.data as rd

    from prclz_ray.index import s2
    from prclz_ray.stages.blocks import extract_blocks

    rows = extract_blocks(rd.from_arrow(synth.regions_table()),
                          rd.from_arrow(synth.lines_table())).take_all()
    assert max(Counter(r["gadm_code"] for r in rows).values()) >= 16
    for r in rows:
        ring = wkb.decode(r["geometry"])[1][0]
        cx, cy = ring[:-1, 0].mean(), ring[:-1, 1].mean()
        assert r["cell"] == int(s2.lnglat_to_cellid(
            np.array([cx]), np.array([cy]), s2.DEFAULT_LEVEL)[0])
