"""Geo queries: point-in-polygon, kNN, zonal and raster joins, the flagship
page pipeline, the reference fixtures (blocks, complexity, parcels,
reblock) and the real-format geo readers."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ...geom import wkb
from ...stages import joins, relational
from .common import (
    _RIPLEY_RADII, _fingerprint_cache_dir, _morton_interleave,
    _points_batch, _read, _read_table, _round2)


def _nation_rects(nation_tbl: pa.Table, max_key: int = 25) -> pa.Table:
    keys = nation_tbl["n_nationkey"].to_numpy(zero_copy_only=False)
    keep = keys < max_key
    keys = keys[keep]
    geoms = []
    for n in keys:
        col, row = int(n) % 5, int(n) // 5
        x0, y0 = col * 200.0, row * 200.0
        geoms.append(wkb.polygon(np.array(
            [(x0, y0), (x0 + 200, y0), (x0 + 200, y0 + 200), (x0, y0 + 200), (x0, y0)])))
    return pa.table({"n_nationkey": pa.array(keys),
                     "geometry": pa.array(geoms, type=pa.binary())})


# -------------------------------------------------------------- geo queries

def q_pip_points_nations(sf_dir: str):
    """PIP join (J1/J3 semantics): customer points × 25 nation rects."""
    pts = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda b: _points_batch(b, "c_custkey"), batch_format="pyarrow")
    nations = _nation_rects(pa.table(
        {"n_nationkey": pa.array(np.arange(25, dtype=np.int32))}))
    out = joins.pip_join(pts, nations, id_col="n_nationkey",
                         x_col="px", y_col="py", how="inner")
    return out.select_columns(["c_custkey", "n_nationkey"])


SQL_PIP = """
SELECT c_custkey, n_nationkey FROM customer, nation
WHERE CAST(FLOOR(((c_custkey * 7919) % 1000 + 0.5) / 200) AS INT) = n_nationkey % 5
  AND CAST(FLOOR(((c_custkey * 104729) % 1000 + 0.5) / 200) AS INT) = CAST(FLOOR(n_nationkey / 5) AS INT)
"""


def q_pip_tiled_points_nations(sf_dir: str):
    """Both-sides-large PIP join co-partitioned by S2 cell (the
    one-shuffle tiled variant; same semantics + oracle as the broadcast
    join). Coordinates scaled /20 into valid lng/lat range; level 6 tiles
    keep the per-rect replication factor small."""
    def scaled_points(b: pa.Table) -> pa.Table:
        b = _points_batch(b, "c_custkey")
        b = b.set_column(b.schema.get_field_index("px"), "px",
                         pc.divide(b["px"], 20.0))
        return b.set_column(b.schema.get_field_index("py"), "py",
                            pc.divide(b["py"], 20.0))

    pts = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        scaled_points, batch_format="pyarrow")
    keys = np.arange(25, dtype=np.int32)
    geoms = []
    for n in keys:
        col, row = int(n) % 5, int(n) // 5
        x0, y0 = col * 10.0, row * 10.0
        geoms.append(wkb.polygon(np.array(
            [(x0, y0), (x0 + 10, y0), (x0 + 10, y0 + 10), (x0, y0 + 10),
             (x0, y0)])))
    nations = pa.table({"n_nationkey": pa.array(keys),
                        "geometry": pa.array(geoms, type=pa.binary())})
    out = joins.pip_join_tiled(pts, rd.from_arrow(nations),
                               id_col="n_nationkey", x_col="px", y_col="py",
                               level=6)
    return out.select_columns(["c_custkey", "n_nationkey"])


def _pip_tiled_semi_anti(sf_dir: str, how: str):
    """Shared body for the tiled semi/anti queries: 20 rects (so ~20 %
    of points are unmatched), broadcast budget forced to 0 so the
    co-partitioned tiled path runs (VERDICT r3 item #3 driver-visible
    coverage)."""
    def scaled_points(b: pa.Table) -> pa.Table:
        b = _points_batch(b, "c_custkey")
        b = b.set_column(b.schema.get_field_index("px"), "px",
                         pc.divide(b["px"], 20.0))
        return b.set_column(b.schema.get_field_index("py"), "py",
                            pc.divide(b["py"], 20.0))

    pts = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        scaled_points, batch_format="pyarrow")
    keys = np.arange(20, dtype=np.int32)
    geoms = []
    for n in keys:
        col, row = int(n) % 5, int(n) // 5
        x0, y0 = col * 10.0, row * 10.0
        geoms.append(wkb.polygon(np.array(
            [(x0, y0), (x0 + 10, y0), (x0 + 10, y0 + 10),
             (x0, y0 + 10), (x0, y0)])))
    nations = pa.table({"n_nationkey": pa.array(keys),
                        "geometry": pa.array(geoms, type=pa.binary())})
    out = joins.pip_join_auto(pts, nations, id_col="n_nationkey",
                              x_col="px", y_col="py", how=how,
                              broadcast_limit_bytes=0, level=6)
    return out.select_columns(["c_custkey"])


def q_pip_semi_tiled(sf_dir: str):
    """Tiled PIP SEMI join (J5 orphan-QC semantics past the broadcast
    budget): points inside any of 20 rects, each point once."""
    return _pip_tiled_semi_anti(sf_dir, "semi")


def q_pip_anti_tiled(sf_dir: str):
    """Tiled PIP ANTI join: points outside every rect (the reference's
    orphan-building split, `_parcels.py:88-93`, at tiled scale)."""
    return _pip_tiled_semi_anti(sf_dir, "anti")


SQL_PIP_SEMI = """
SELECT c_custkey FROM customer WHERE EXISTS (
  SELECT 1 FROM nation WHERE n_nationkey < 20
  AND CAST(FLOOR(((c_custkey * 7919) % 1000 + 0.5) / 200) AS INT)
      = n_nationkey % 5
  AND CAST(FLOOR(((c_custkey * 104729) % 1000 + 0.5) / 200) AS INT)
      = CAST(FLOOR(n_nationkey / 5) AS INT))
"""

SQL_PIP_ANTI = """
SELECT c_custkey FROM customer WHERE NOT EXISTS (
  SELECT 1 FROM nation WHERE n_nationkey < 20
  AND CAST(FLOOR(((c_custkey * 7919) % 1000 + 0.5) / 200) AS INT)
      = n_nationkey % 5
  AND CAST(FLOOR(((c_custkey * 104729) % 1000 + 0.5) / 200) AS INT)
      = CAST(FLOOR(n_nationkey / 5) AS INT))
"""


def q_pip_left_unmatched(sf_dir: str):
    """LEFT PIP join (J2 'keep empty' semantics): only 20 rects → 20% of
    points carry a null nation."""
    pts = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda b: _points_batch(b, "c_custkey"), batch_format="pyarrow")
    nations = _nation_rects(pa.table(
        {"n_nationkey": pa.array(np.arange(25, dtype=np.int32))}), max_key=20)
    out = joins.pip_join(pts, nations, id_col="n_nationkey",
                         x_col="px", y_col="py", how="left")
    return out.select_columns(["c_custkey", "n_nationkey"])


SQL_PIP_LEFT = """
SELECT c_custkey, n_nationkey FROM customer LEFT JOIN nation
ON  n_nationkey < 20
AND CAST(FLOOR(((c_custkey * 7919) % 1000 + 0.5) / 200) AS INT) = n_nationkey % 5
AND CAST(FLOOR(((c_custkey * 104729) % 1000 + 0.5) / 200) AS INT) = CAST(FLOOR(n_nationkey / 5) AS INT)
"""


def q_knn_customer_supplier(sf_dir: str):
    """kNN join (J7 pattern): nearest supplier point per customer point,
    integer squared distance."""
    pts = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda b: _points_batch(b, "c_custkey"), batch_format="pyarrow")
    sup = _read_table(sf_dir, "supplier", ["s_suppkey"])
    sup = _points_batch(sup, "s_suppkey")
    out = joins.knn_join(pts, sup, k=1, id_col="s_suppkey",
                         x_col="px", y_col="py", tx_col="px", ty_col="py",
                         out_prefix="nn")

    def finish(batch: pa.Table) -> pa.Table:
        d = batch["nn_dist"].to_numpy(zero_copy_only=False)
        d2 = np.rint(d * d).astype(np.int64)
        out = batch.select(["c_custkey"])
        out = out.append_column("nn_suppkey", pc.cast(batch["nn_id"], pa.int64()))
        return out.append_column("nn_dist2", pa.array(d2))

    return out.map_batches(finish, batch_format="pyarrow")


SQL_KNN = """
WITH cp AS (SELECT c_custkey, (c_custkey*7919)%1000 + 0.5 AS px, (c_custkey*104729)%1000 + 0.5 AS py FROM customer),
     sp AS (SELECT s_suppkey, (s_suppkey*7919)%1000 + 0.5 AS sx, (s_suppkey*104729)%1000 + 0.5 AS sy FROM supplier),
     d AS (SELECT c_custkey, s_suppkey,
                  CAST((px-sx)*(px-sx) + (py-sy)*(py-sy) AS BIGINT) AS dist2,
                  ROW_NUMBER() OVER (PARTITION BY c_custkey
                                     ORDER BY (px-sx)*(px-sx)+(py-sy)*(py-sy), s_suppkey) AS rn
           FROM cp, sp)
SELECT c_custkey, s_suppkey AS nn_suppkey, dist2 AS nn_dist2 FROM d WHERE rn = 1
"""


def q_zonal_acctbal_nation(sf_dir: str):
    """Zonal aggregate (raster↔vector family): per nation rect, point count
    + acctbal sum."""
    pts = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"]).map_batches(
        lambda b: _points_batch(b, "c_custkey"), batch_format="pyarrow")
    nations = _nation_rects(pa.table(
        {"n_nationkey": pa.array(np.arange(25, dtype=np.int32))}))
    z = joins.zonal_stats(pts, nations, id_col="n_nationkey",
                          value_col="c_acctbal", x_col="px", y_col="py")
    df = z.to_pandas()[["n_nationkey", "n", "sum_value"]]
    df = df.rename(columns={"n": "n_points", "sum_value": "sum_acctbal"})
    return _round2(df, ["sum_acctbal"])


SQL_ZONAL = """
SELECT n_nationkey, COUNT(*) AS n_points, ROUND(SUM(c_acctbal), 2) AS sum_acctbal
FROM customer, nation
WHERE CAST(FLOOR(((c_custkey * 7919) % 1000 + 0.5) / 200) AS INT) = n_nationkey % 5
  AND CAST(FLOOR(((c_custkey * 104729) % 1000 + 0.5) / 200) AS INT) = CAST(FLOOR(n_nationkey / 5) AS INT)
GROUP BY n_nationkey
"""


def q_raster_grid_counts(sf_dir: str):
    """Vector→raster: rasterize customer points onto a 50-unit grid."""
    pts = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"]).map_batches(
        lambda b: _points_batch(b, "c_custkey"), batch_format="pyarrow")
    r = joins.rasterize_points(pts, x_col="px", y_col="py",
                               value_col="c_acctbal", res=50.0)
    df = r.to_pandas()[["px", "py", "n", "value"]]
    df = df.rename(columns={"n": "n_points", "value": "sum_acctbal"})
    return _round2(df, ["sum_acctbal"])


SQL_RASTER = """
SELECT CAST(FLOOR(((c_custkey*7919)%1000 + 0.5)/50) AS BIGINT) AS px,
       CAST(FLOOR(((c_custkey*104729)%1000 + 0.5)/50) AS BIGINT) AS py,
       COUNT(*) AS n_points, ROUND(SUM(c_acctbal), 2) AS sum_acctbal
FROM customer GROUP BY 1, 2
"""


def q_raster_zonal_nation(sf_dir: str):
    """Raster→vector zonal: pixel aggregates joined back to nation rects."""
    pts = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"]).map_batches(
        lambda b: _points_batch(b, "c_custkey"), batch_format="pyarrow")
    raster = joins.rasterize_points(pts, x_col="px", y_col="py",
                                    value_col="c_acctbal", res=50.0)
    nations = _nation_rects(pa.table(
        {"n_nationkey": pa.array(np.arange(25, dtype=np.int32))}))
    z = joins.raster_zonal(raster, nations, id_col="n_nationkey", res=50.0)
    df = z.to_pandas()[["n_nationkey", "zone_value", "zone_points", "zone_pixels"]]
    return _round2(df, ["zone_value"])


SQL_RASTER_ZONAL = """
WITH px AS (
  SELECT CAST(FLOOR(((c_custkey*7919)%1000 + 0.5)/50) AS BIGINT) AS gx,
         CAST(FLOOR(((c_custkey*104729)%1000 + 0.5)/50) AS BIGINT) AS gy,
         COUNT(*) AS n, SUM(c_acctbal) AS v
  FROM customer GROUP BY 1, 2)
SELECT n_nationkey, ROUND(SUM(v), 2) AS zone_value,
       CAST(SUM(n) AS BIGINT) AS zone_points,
       COUNT(*) AS zone_pixels
FROM px, nation
WHERE CAST(FLOOR((gx*50 + 25.0) / 200) AS INT) = n_nationkey % 5
  AND CAST(FLOOR((gy*50 + 25.0) / 200) AS INT) = CAST(FLOOR(n_nationkey / 5) AS INT)
GROUP BY n_nationkey
"""


# ------------------------------------------------- flagship (derived pages)

def _derived_pages(sf_dir: str, parallelism: int = 8):
    """Deterministic pages corpus derived from the documents table: url,
    warc_ts, html (geo meta + body from doc text), lang; 1% stale dups."""
    import datetime as _dt
    EPOCH = _dt.datetime(2026, 1, 1)

    def build(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = batch["text"].to_pylist()
        langs = batch["lang"].to_pylist()
        urls, ts, htmls, lg = [], [], [], []
        for i, t, lang in zip(ids, texts, langs):
            i = int(i)
            country = i % 3
            a = (i * 7919) % 1000
            b = (i * 104729) % 1000
            lng = (10 + 2 * country) + (a + 0.5) / 1000.0
            lat = 10 + (b + 0.5) / 1000.0
            html = (f'<html><head><meta name="geo" content="{lat:.6f};{lng:.6f}">'
                    f"</head><body><p>{t[:200]}</p></body></html>").encode()
            urls.append(f"https://example.org/doc/{i}")
            ts.append(EPOCH + _dt.timedelta(seconds=i))
            htmls.append(html)
            lg.append(lang)
            if i % 100 == 7:
                urls.append(f"https://example.org/doc/{i}")
                ts.append(EPOCH + _dt.timedelta(seconds=i) - _dt.timedelta(days=30))
                htmls.append(html.replace(b"<p>", b"<p>STALE "))
                lg.append(lang)
        return pa.table({"url": urls,
                         "warc_ts": pa.array(ts, type=pa.timestamp("us")),
                         "html": pa.array(htmls, type=pa.binary()),
                         "lang": lg})

    return _read(sf_dir, "documents", ["doc_id", "text", "lang"]) \
        .map_batches(build, batch_format="pyarrow")


def _synth_region_rects() -> pa.Table:
    from ...io import synth
    return synth.regions_table()


def q_flagship_region_counts(sf_dir: str):
    """Headline pipeline: derived pages → parse (actor pool) → url dedup
    (latest wins) → S2 cells → PIP join vs regions → counts per region."""
    from ..flagship import region_counts, run_flagship
    joined, _ = run_flagship(_derived_pages(sf_dir), _synth_region_rects())
    return region_counts(joined)[["gadm_code", "n_pages"]]


SQL_FLAGSHIP = """
WITH p AS (SELECT doc_id, doc_id % 3 AS country,
                  (doc_id*7919) % 1000 AS a, (doc_id*104729) % 1000 AS b
           FROM documents)
SELECT 'SYN' || CASE country WHEN 0 THEN 'A' WHEN 1 THEN 'B' ELSE 'C' END
       || '.' || CAST(CASE WHEN a < 500 THEN 1 ELSE 2 END AS VARCHAR)
       || '.' || CAST(CASE WHEN b < 500 THEN 1 ELSE 2 END AS VARCHAR)
       || '_1' AS gadm_code,
       COUNT(*) AS n_pages
FROM p GROUP BY 1
"""


def q_flagship_counts_streaming(sf_dir: str):
    """Single-execution flagship variant (the bench.py headline path):
    fused parse→tile→PIP emitting narrow columns, dedup-after-join +
    count in one bucketed groupby."""
    from ..flagship import flagship_region_counts_streaming
    out = flagship_region_counts_streaming(_derived_pages(sf_dir),
                                           _synth_region_rects())
    return out[["gadm_code", "n_pages"]]


def q_dedup_url_latest(sf_dir: str):
    """url-exact dedup, latest warc_ts wins (D6) over the derived pages
    (with their 1% stale duplicates)."""
    from ..flagship import PageParser, dedup_latest_by_url
    pages = _derived_pages(sf_dir)
    parsed = pages.map_batches(PageParser, batch_format="pyarrow",
                               batch_size=2048, concurrency=2,
                               zero_copy_batch=True)
    out = dedup_latest_by_url(parsed)
    return out.select_columns(["url", "warc_ts"])


SQL_DEDUP_URL = """
WITH base AS (
  SELECT 'https://example.org/doc/' || CAST(doc_id AS VARCHAR) AS url,
         TIMESTAMP '2026-01-01' + doc_id * INTERVAL 1 SECOND AS warc_ts,
         doc_id FROM documents),
 stale AS (
  SELECT url, warc_ts - INTERVAL 30 DAY AS warc_ts, doc_id FROM base
  WHERE doc_id % 100 = 7)
SELECT url, MAX(warc_ts) AS warc_ts
FROM (SELECT url, warc_ts FROM base UNION ALL SELECT url, warc_ts FROM stale)
GROUP BY url
"""


# --------------------------------------------- geospatial fixture pipelines

# The synth grid is closed-form (io/synth.py: 3 countries × 2×2 regions ×
# 4×4 grid cells, 5 buildings per block, every block the identical
# layout), so block extraction, the constant k, and the
# one-parcel-per-building invariant are all SQL-expressible without any
# input table — the oracle derives the expected rows from the same
# constants the generator uses.
_SQL_SYNTH_BLOCKS = """
WITH countries(country) AS (VALUES ('SYNA'), ('SYNB'), ('SYNC')),
regions AS (
  SELECT country || '.' || CAST(a AS VARCHAR) || '.' || CAST(b AS VARCHAR)
         || '_1' AS gadm_code
  FROM countries, generate_series(1, 2) t1(a), generate_series(1, 2) t2(b)
),
blocks AS (
  SELECT gadm_code || '_' || CAST(i AS VARCHAR) AS block_id, gadm_code
  FROM regions, generate_series(0, 15) t3(i)
)
"""

SQL_BLOCKS_FIXTURE = _SQL_SYNTH_BLOCKS + \
    "SELECT block_id, gadm_code FROM blocks"

# every fixture block holds the same 5-building layout (1 center + ring of
# 4 at 40% radius) whose weak-dual sequence depth is 2
SQL_COMPLEXITY_FIXTURE = _SQL_SYNTH_BLOCKS + \
    "SELECT block_id, CAST(2 AS INTEGER) AS complexity FROM blocks"

# tessellation invariant: exactly one parcel per building, assigned to the
# building's own block
SQL_PARCELS_FIXTURE = _SQL_SYNTH_BLOCKS + """
SELECT block_id, block_id || '_b' || CAST(j AS VARCHAR) AS bldg_id
FROM blocks, generate_series(0, 4) t4(j)
"""

# reblock: every fixture block emits one 'new' and one 'summary' row; the
# 58-block set that ALSO emits 'existing' rows (steiner path touching
# zero-weight perimeter edges) is a RUN-PINNED GOLDEN, not closed-form —
# it depends on float-level snap geometry per block position. Verified
# deterministic across parallelism (identical at num_cpus 3 and 8) before
# committing; regenerate via q_reblock_fixture if the reblock kernel's
# semantics intentionally change.
SQL_REBLOCK_FIXTURE = _SQL_SYNTH_BLOCKS + """
, existing_ids(block_id) AS (VALUES
  ('SYNA.1.1_1_0'), ('SYNA.1.1_1_10'), ('SYNA.1.1_1_15'), ('SYNA.1.1_1_5'),
  ('SYNA.1.2_1_1'), ('SYNA.1.2_1_11'), ('SYNA.1.2_1_6'), ('SYNA.2.1_1_14'),
  ('SYNA.2.1_1_4'), ('SYNA.2.1_1_9'), ('SYNA.2.2_1_0'), ('SYNA.2.2_1_10'),
  ('SYNA.2.2_1_15'), ('SYNA.2.2_1_5'), ('SYNB.1.1_1_0'), ('SYNB.1.1_1_1'),
  ('SYNB.1.1_1_14'), ('SYNB.1.1_1_6'), ('SYNB.1.2_1_1'), ('SYNB.1.2_1_13'),
  ('SYNB.1.2_1_3'), ('SYNB.1.2_1_6'), ('SYNB.2.1_1_1'), ('SYNB.2.1_1_13'),
  ('SYNB.2.1_1_3'), ('SYNB.2.1_1_4'), ('SYNB.2.1_1_6'), ('SYNB.2.1_1_9'),
  ('SYNB.2.2_1_0'), ('SYNB.2.2_1_10'), ('SYNB.2.2_1_14'), ('SYNB.2.2_1_2'),
  ('SYNB.2.2_1_5'), ('SYNB.2.2_1_7'), ('SYNC.1.1_1_1'), ('SYNC.1.1_1_10'),
  ('SYNC.1.1_1_13'), ('SYNC.1.1_1_15'), ('SYNC.1.1_1_5'), ('SYNC.1.1_1_8'),
  ('SYNC.1.2_1_11'), ('SYNC.1.2_1_12'), ('SYNC.1.2_1_14'), ('SYNC.1.2_1_2'),
  ('SYNC.1.2_1_6'), ('SYNC.1.2_1_9'), ('SYNC.2.1_1_0'), ('SYNC.2.1_1_12'),
  ('SYNC.2.1_1_14'), ('SYNC.2.1_1_2'), ('SYNC.2.1_1_5'), ('SYNC.2.1_1_9'),
  ('SYNC.2.2_1_1'), ('SYNC.2.2_1_10'), ('SYNC.2.2_1_13'), ('SYNC.2.2_1_15'),
  ('SYNC.2.2_1_3'), ('SYNC.2.2_1_6')
)
SELECT block_id, 'new' AS road_type FROM blocks
UNION ALL SELECT block_id, 'summary' AS road_type FROM blocks
UNION ALL SELECT block_id, 'existing' AS road_type FROM existing_ids
"""


def q_blocks_fixture(sf_dir: str):
    from ...io import synth
    from ...stages.blocks import extract_blocks
    ds = extract_blocks(rd.from_arrow(synth.regions_table()),
                        rd.from_arrow(synth.lines_table()))
    return ds.select_columns(["block_id", "gadm_code"])


def q_complexity_fixture(sf_dir: str):
    import pyarrow as _pa

    from ...io import synth
    from ...stages.blocks import extract_blocks
    from ...stages.complexity import complexity_pipeline
    blocks = _pa.Table.from_pylist(
        extract_blocks(rd.from_arrow(synth.regions_table()),
                       rd.from_arrow(synth.lines_table())).take_all())
    out = complexity_pipeline(blocks, rd.from_arrow(synth.buildings_table()))
    return out.select_columns(["block_id", "complexity"])


def q_parcels_fixture(sf_dir: str):
    import pyarrow as _pa

    from ...io import synth
    from ...stages.blocks import extract_blocks
    from ...stages.parcels import parcels_pipeline
    blocks = _pa.Table.from_pylist(
        extract_blocks(rd.from_arrow(synth.regions_table()),
                       rd.from_arrow(synth.lines_table())).take_all())
    out = parcels_pipeline(blocks, rd.from_arrow(synth.buildings_table()))
    # parcel seq numbering depends on a float-noise-level centroid sort tie
    # between the three x-aligned ring buildings, so the hashable contract
    # is the (block, building) assignment — exactly one parcel per building
    return out.select_columns(["block_id", "bldg_id"])


def q_reblock_fixture(sf_dir: str):
    import pyarrow as _pa

    from ...io import synth
    from ...stages.blocks import extract_blocks
    from ...stages.parcels import parcels_pipeline
    from ...stages.reblock import reblock_pipeline
    blocks = _pa.Table.from_pylist(
        extract_blocks(rd.from_arrow(synth.regions_table()),
                       rd.from_arrow(synth.lines_table())).take_all())
    parcels = _pa.Table.from_pylist(parcels_pipeline(
        blocks, rd.from_arrow(synth.buildings_table())).take_all())
    out = reblock_pipeline(blocks, rd.from_arrow(parcels),
                           rd.from_arrow(synth.buildings_table()))
    return out.select_columns(["block_id", "road_type"])


def q_geohash_points(sf_dir: str):
    """Geohash tiling (the third cell index next to S2 and the raster
    grid): precision-6 cell + precision-4 parent per synthetic customer
    point — bit-interleave encode is pure vectorized map, hash-checked
    against the identical quantization arithmetic in SQL."""
    from ...index import geohash as gh
    pts = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda b: _points_batch(b, "c_custkey"), batch_format="pyarrow")

    def encode(t: pa.Table) -> pa.Table:
        lon = pc.subtract(pc.multiply(t["px"], 0.36), 180.0)
        lat = pc.subtract(pc.multiply(t["py"], 0.18), 90.0)
        out = pa.table({"c_custkey": t["c_custkey"],
                        "lon": lon, "lat": lat})
        out = gh.geohash_batch(out, "lon", "lat", precision=6,
                               out_col="gh6")
        g6 = out["gh6"]
        return pa.table({"c_custkey": out["c_custkey"], "gh6": g6,
                         "gh4": pc.utf8_slice_codeunits(g6, 0, 4)})

    return pts.map_batches(encode, batch_format="pyarrow")


def _sql_geohash_points() -> str:
    from ...index.geohash import geohash_sql_expr
    lon = "((c_custkey * 7919) % 1000 + 0.5) * 0.36 - 180.0"
    lat = "((c_custkey * 104729) % 1000 + 0.5) * 0.18 - 90.0"
    e = geohash_sql_expr(lon, lat, 6)
    return f"""
SELECT c_custkey, gh6, substr(gh6, 1, 4) AS gh4
FROM (SELECT c_custkey, {e} AS gh6 FROM customer)
"""


def q_geohash_cell_counts(sf_dir: str):
    """Spatial aggregation on the geohash index: point count per
    precision-4 cell (the density histogram that feeds skew/salt
    planning, as cell_histogram does for S2)."""
    from ray.data.aggregate import Sum
    pts = q_geohash_points(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        g = t.select(["gh4"]).group_by("gh4") \
            .aggregate([([], "count_all")])
        return pa.table({"gh4": g["gh4"],
                         "pn": g["count_all"].cast(pa.int64())})

    return pts.map_batches(partial, batch_format="pyarrow") \
        .groupby("gh4").aggregate(Sum("pn", alias_name="n_points"))


def _sql_geohash_cell_counts() -> str:
    from ...index.geohash import geohash_sql_expr
    lon = "((c_custkey * 7919) % 1000 + 0.5) * 0.36 - 180.0"
    lat = "((c_custkey * 104729) % 1000 + 0.5) * 0.18 - 90.0"
    e = geohash_sql_expr(lon, lat, 4)
    return f"""
SELECT {e} AS gh4, COUNT(*) AS n_points FROM customer GROUP BY gh4
"""


def q_shapefile_source_stats(sf_dir: str):
    """ESRI shapefile source/sink parity — the stdlib-decodable slice
    of the reference's zipped-shapefile ingestion (S6,
    ``scripts/split-buildings/split_buildings.py:85-161``): customer
    points + attributes round-trip through .shp/.shx/.dbf
    (fingerprint-cached once per input), then the per-nation
    aggregate runs FROM THE SHAPEFILE READ while the oracle
    aggregates the original parquet — point coords, the int DBF
    column and the %.17g float DBF column all break the value hash
    if the writer or reader corrupts a byte."""
    import os
    import uuid

    from ray.data.aggregate import Sum

    from ...io import codecs

    base = _fingerprint_cache_dir(sf_dir, "customer", "shp")
    shp = os.path.join(base, "customer")
    if not os.path.isfile(shp + ".shp"):
        tmp = f"{base}.tmp-{uuid.uuid4().hex}"
        os.makedirs(tmp, exist_ok=True)

        def to_geom(t: pa.Table) -> pa.Table:
            xs = t["px"].to_numpy(zero_copy_only=False)
            ys = t["py"].to_numpy(zero_copy_only=False)
            g = pa.array([wkb.point(float(x), float(y))
                          for x, y in zip(xs, ys)],
                         type=pa.binary())
            return t.drop_columns(["px", "py"]) \
                .append_column("geometry", g)

        pts = relational.ds_to_table(
            _read(sf_dir, "customer",
                  ["c_custkey", "c_nationkey", "c_acctbal"])
            .map_batches(lambda b: _points_batch(b, "c_custkey"),
                         batch_format="pyarrow")
            .map_batches(to_geom, batch_format="pyarrow"))
        codecs.write_shapefile(pts, os.path.join(tmp, "customer"))
        try:
            os.rename(tmp, base)
        except OSError:            # concurrent run won the rename
            import shutil
            shutil.rmtree(tmp, ignore_errors=True)

    ds = codecs.read_shapefile(shp + ".shp")

    def partial(t: pa.Table) -> pa.Table:
        xs, ys = wkb.points_xy(t["geometry"].to_pylist())
        df = pd.DataFrame({
            "c_nationkey": t["c_nationkey"]
            .to_numpy(zero_copy_only=False).astype(np.int64),
            "ck": t["c_custkey"]
            .to_numpy(zero_copy_only=False).astype(np.int64),
            "pxf": np.floor(xs).astype(np.int64),
            "pyf": np.floor(ys).astype(np.int64),
            "ac": np.floor(np.asarray(
                t["c_acctbal"].to_numpy(zero_copy_only=False),
                dtype=np.float64) * 100 + 0.5).astype(np.int64),
            "pn": 1})
        g = df.groupby("c_nationkey", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    o = relational.ds_to_table(
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("c_nationkey").aggregate(
            Sum("pn", alias_name="n_pts"),
            Sum("ck", alias_name="sum_custkey"),
            Sum("pxf", alias_name="sum_px_floor"),
            Sum("pyf", alias_name="sum_py_floor"),
            Sum("ac", alias_name="sum_acctbal_cents"))
    ).to_pandas().sort_values("c_nationkey").reset_index(drop=True)
    return o.astype({c: np.int64 for c in o.columns})


SQL_SHAPEFILE_STATS = """
SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
       CAST(COUNT(*) AS BIGINT) AS n_pts,
       CAST(SUM(c_custkey) AS BIGINT) AS sum_custkey,
       CAST(SUM((c_custkey * 7919) % 1000) AS BIGINT)
         AS sum_px_floor,
       CAST(SUM((c_custkey * 104729) % 1000) AS BIGINT)
         AS sum_py_floor,
       CAST(SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT))
            AS BIGINT) AS sum_acctbal_cents
FROM customer GROUP BY 1 ORDER BY 1
"""


def _morton_box_cover(x0: int, x1: int, y0: int, y1: int,
                      bits: int = 10) -> list[tuple[int, int]]:
    """Quadtree covering of the inclusive box [x0,x1]×[y0,y1] as a list
    of CONTIGUOUS morton ranges: recurse quadrants, emit a whole
    quadrant when fully inside (a bit-aligned quadrant is a contiguous
    z range — the property z-order clustering exists for), split when
    partial.  O(perimeter·bits) ranges, merged where adjacent."""
    out: list[tuple[int, int]] = []

    def rec(qx: int, qy: int, level: int) -> None:
        s = bits - level
        cx0, cx1 = qx << s, ((qx + 1) << s) - 1
        cy0, cy1 = qy << s, ((qy + 1) << s) - 1
        if cx1 < x0 or cx0 > x1 or cy1 < y0 or cy0 > y1:
            return
        if cx0 >= x0 and cx1 <= x1 and cy0 >= y0 and cy1 <= y1:
            a = np.array([cx0], dtype=np.int64)
            b = np.array([cy0], dtype=np.int64)
            zlo = int(_morton_interleave(a, b, bits)[0])
            out.append((zlo, zlo + (1 << (2 * s)) - 1))
            return
        for dx in (0, 1):
            for dy in (0, 1):
                rec(qx * 2 + dx, qy * 2 + dy, level + 1)

    rec(0, 0, 0)
    out.sort()
    merged = [out[0]]
    for lo, hi in out[1:]:
        if lo == merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def q_zorder_pruned_scan(sf_dir: str):
    """Z-order-clustered 2D range scan with file skipping — the
    spatial-layout trick every lakehouse exposes (cluster by the
    interleaved key so a 2D box decomposes into FEW contiguous key
    ranges, then footer min/max prunes whole files): customer points
    are written once range-clustered on the 20-bit morton code, the
    query box [200,399]×[100,299] covers into contiguous z ranges by
    quadtree decomposition, and only files whose [min,max] intersects
    a covering range are opened (counts pytest-asserted; the covering
    itself has an exhaustive small-grid proof test).  The oracle runs
    the raw box predicate."""
    import glob
    import os
    import uuid

    import pyarrow.parquet as pq_
    from ...runtime.checkpoint import write_clustered

    X0, X1, Y0, Y1 = 200, 399, 100, 299
    out = _fingerprint_cache_dir(sf_dir, "customer", "zorder")
    if not os.path.isdir(out):
        tmp = f"{out}.tmp-{uuid.uuid4().hex}"

        def add_z(t: pa.Table) -> pa.Table:
            k = t["c_custkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            x = (k * 7919) % 1000
            y = (k * 104729) % 1000
            return pa.table({"c_custkey": t["c_custkey"],
                             "x": pa.array(x), "y": pa.array(y),
                             "z": pa.array(
                                 _morton_interleave(x, y))})

        write_clustered(
            _read(sf_dir, "customer", ["c_custkey"])
            .map_batches(add_z, batch_format="pyarrow"),
            tmp, key_col="z", num_ranges=16)
        try:
            os.rename(tmp, out)
        except OSError:
            import shutil
            shutil.rmtree(tmp, ignore_errors=True)

    cover = _morton_box_cover(X0, X1, Y0, Y1)
    files = sorted(glob.glob(os.path.join(out, "part=*", "*.parquet")))
    keep = []
    for f in files:
        md = pq_.read_metadata(f)
        col = {md.schema.column(i).name: i
               for i in range(md.num_columns)}["z"]
        fmin = min(md.row_group(rg).column(col).statistics.min
                   for rg in range(md.num_row_groups))
        fmax = max(md.row_group(rg).column(col).statistics.max
                   for rg in range(md.num_row_groups))
        if any(lo <= fmax and hi >= fmin for lo, hi in cover):
            keep.append(f)
    q_zorder_pruned_scan._last_prune = (len(files), len(keep),
                                        len(cover))

    part = rd.read_parquet(keep, columns=["c_custkey", "x", "y"])

    def box(t: pa.Table) -> pa.Table:
        x = t["x"].to_numpy()
        y = t["y"].to_numpy()
        m = (x >= X0) & (x <= X1) & (y >= Y0) & (y <= Y1)
        return pa.table({"c_custkey":
                         t["c_custkey"].filter(pa.array(m))})

    res = relational.ds_to_table(
        part.map_batches(box, batch_format="pyarrow")).to_pandas()
    return res.sort_values("c_custkey").reset_index(drop=True) \
        .astype({"c_custkey": np.int64})


SQL_ZORDER_SCAN = """
SELECT c_custkey FROM customer
WHERE ((c_custkey * 7919) % 1000) BETWEEN 200 AND 399
  AND ((c_custkey * 104729) % 1000) BETWEEN 100 AND 299
ORDER BY c_custkey
"""


def q_pip_donut_nations(sf_dir: str):
    """PIP join against polygons WITH HOLES: each nation becomes a
    donut (its 200×200 rect minus a centered 100×100 hole), and the
    join must keep rect points while REJECTING hole points — the
    interior-ring path of the ray-casting kernel exercised through the
    real broadcast PIP join, not a unit test.  Counts per nation; the
    oracle applies the same outer-minus-open-hole arithmetic (the
    0.5-offset points never sit on a ring, so boundary conventions
    cannot blur the hash)."""
    from ray.data.aggregate import Sum
    from ...geom import wkb as wkbm

    polys = []
    for nkey in range(25):
        col, row = nkey % 5, nkey // 5
        x0, y0 = col * 200.0, row * 200.0
        outer = np.array([[x0, y0], [x0 + 200, y0],
                          [x0 + 200, y0 + 200], [x0, y0 + 200],
                          [x0, y0]])
        hole = np.array([[x0 + 50, y0 + 50], [x0 + 150, y0 + 50],
                         [x0 + 150, y0 + 150], [x0 + 50, y0 + 150],
                         [x0 + 50, y0 + 50]])
        polys.append(wkbm.polygon([outer, hole]))
    donuts = pa.table({"n_nationkey": pa.array(list(range(25)),
                                               type=pa.int32()),
                       "geometry": pa.array(polys, type=pa.binary())})

    pts = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda b: _points_batch(b, "c_custkey"),
        batch_format="pyarrow")
    hits = joins.pip_join(pts, donuts, id_col="n_nationkey",
                          x_col="px", y_col="py", how="inner")

    def partial(t: pa.Table) -> pa.Table:
        u, n = np.unique(t["n_nationkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            return_counts=True)
        return pa.table({"n_nationkey": pa.array(u),
                         "pn": pa.array(n.astype(np.int64))})

    out = relational.ds_to_table(
        hits.map_batches(partial, batch_format="pyarrow")
        .groupby("n_nationkey").aggregate(Sum("pn",
                                              alias_name="n_points"))
    ).to_pandas().sort_values("n_nationkey").reset_index(drop=True)
    return out.astype({"n_nationkey": np.int64,
                       "n_points": np.int64})


SQL_PIP_DONUT = """
WITH p AS (SELECT (c_custkey * 7919) % 1000 + 0.5 AS px,
                  (c_custkey * 104729) % 1000 + 0.5 AS py
           FROM customer),
n AS (SELECT CAST(nk AS BIGINT) AS n_nationkey,
             (nk % 5) * 200.0 AS x0, (nk // 5) * 200.0 AS y0
      FROM (SELECT unnest(generate_series(0, 24)) AS nk))
SELECT n.n_nationkey, CAST(COUNT(*) AS BIGINT) AS n_points
FROM p, n
WHERE px >= n.x0 AND px <= n.x0 + 200
  AND py >= n.y0 AND py <= n.y0 + 200
  AND NOT (px > n.x0 + 50 AND px < n.x0 + 150
           AND py > n.y0 + 50 AND py < n.y0 + 150)
GROUP BY 1 ORDER BY 1
"""


def q_hausdorff_nation_pairs(sf_dir: str):
    """Symmetric Hausdorff distance (squared, exact integer) between
    every pair of nations' customer point sets — the set-to-set
    distance behind map conflation and footprint-drift checks, where
    the registry's existing kNN/NN ops are point-to-point.  The
    directed d²(A→B) = max_{a∈A} min_{b∈B} |a−b|² folds as a
    per-batch MONOTONE MAX partial: each batch takes its points'
    exact min-d² against the broadcast nation-sliced point arrays
    (size-guarded, same broadcast budget as the NN family; the scale
    path shards the probe by 50-unit grid cell exactly as
    _customer_nn_d2 documents), so only ≤25×24 partial rows leave any
    batch.  The twin brute-forces the |N|² cross join."""
    from ray.data.aggregate import Max
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    pts = relational.ds_to_table(cust.map_batches(
        lambda t: pa.table({
            "n": t["c_nationkey"].to_numpy(
                zero_copy_only=False).astype(np.int64),
            "x": pa.array((t["c_custkey"].to_numpy(
                zero_copy_only=False).astype(np.int64) * 7919)
                % 1000),
            "y": pa.array((t["c_custkey"].to_numpy(
                zero_copy_only=False).astype(np.int64) * 104729)
                % 1000)}),
        batch_format="pyarrow")).to_pandas() \
        .sort_values(["n", "x", "y"]).reset_index(drop=True)
    nat = pts["n"].to_numpy(np.int64)
    nx = pts["x"].to_numpy(np.int64)
    ny = pts["y"].to_numpy(np.int64)
    starts = np.searchsorted(nat, np.arange(26))
    ref = ray.put((nat, nx, ny, starts))

    def partial(t: pa.Table) -> pa.Table:
        bnat, bx, by, bst = _worker_cached_hausdorff(ref)
        pn = t["n"].to_numpy(zero_copy_only=False)
        px = t["x"].to_numpy(zero_copy_only=False)
        py = t["y"].to_numpy(zero_copy_only=False)
        rows_a, rows_b, rows_d = [], [], []
        d2 = (px[:, None] - bx[None, :]) ** 2 \
            + (py[:, None] - by[None, :]) ** 2
        for b in range(25):
            s, e = bst[b], bst[b + 1]
            if s == e:
                continue
            mind = d2[:, s:e].min(axis=1)
            for a in np.unique(pn):
                if a == b:
                    continue
                m = mind[pn == a]
                rows_a.append(int(a))
                rows_b.append(int(b))
                rows_d.append(int(m.max()))
        return pa.table({"na": pa.array(rows_a, type=pa.int64()),
                         "nb": pa.array(rows_b, type=pa.int64()),
                         "pd2": pa.array(rows_d, type=pa.int64())})

    src = ray.data.from_arrow(pa.Table.from_pandas(
        pts, preserve_index=False))
    directed = relational.ds_to_table(
        src.map_batches(partial, batch_format="pyarrow")
        .groupby(["na", "nb"]).aggregate(Max("pd2", alias_name="d2"))
    ).to_pandas()
    m = {(int(r.na), int(r.nb)): int(r.d2)
         for r in directed.itertuples(index=False)}
    rows = []
    for (a, b), dab in sorted(m.items()):
        if a < b and (b, a) in m:
            dba = m[(b, a)]
            rows.append({"n_a": a, "n_b": b, "d2_ab": dab,
                         "d2_ba": dba, "d2_hausdorff": max(dab, dba)})
    return pd.DataFrame(rows).astype(np.int64)


_HAUS_CACHE: dict = {}


def _worker_cached_hausdorff(ref):
    """Per-worker broadcast cache (the flagship _cached pattern): the
    nation-sorted point arrays deserialize once per worker process,
    not once per batch."""
    key = ref.hex() if hasattr(ref, "hex") else id(ref)
    if key not in _HAUS_CACHE:
        _HAUS_CACHE.clear()
        _HAUS_CACHE[key] = ray.get(ref)
    return _HAUS_CACHE[key]


SQL_HAUSDORFF = """
WITH p AS (SELECT c_nationkey AS n,
                  (c_custkey * 7919) % 1000 AS x,
                  (c_custkey * 104729) % 1000 AS y
           FROM customer),
d AS (SELECT a.n AS na, b.n AS nb, a.x AS ax, a.y AS ay,
             MIN((a.x - b.x) * (a.x - b.x)
                 + (a.y - b.y) * (a.y - b.y)) AS mind2
      FROM p a JOIN p b ON a.n <> b.n
      GROUP BY 1, 2, 3, 4),
h AS (SELECT na, nb, CAST(MAX(mind2) AS BIGINT) AS dh
      FROM d GROUP BY 1, 2)
SELECT a.na AS n_a, a.nb AS n_b, a.dh AS d2_ab, b.dh AS d2_ba,
       GREATEST(a.dh, b.dh) AS d2_hausdorff
FROM h a JOIN h b ON a.na = b.nb AND a.nb = b.na
WHERE a.na < a.nb
ORDER BY n_a, n_b
"""


def q_viewshed_grid(sf_dir: str):
    """Viewshed (line-of-sight visibility) from the highest cell of
    the 32×32 acctbal elevation raster — GIS's observer-coverage
    operator (tower siting, terrain audits), sibling of the D8 flow
    op on the same synthetic DEM.  The sight line to each target is
    sampled by symmetric DDA at s = 1..steps−1 with the minor
    coordinate's displacement rounded half-up as the INTEGER
    (2·s·|d|+steps) // (2·steps) — no float ever — and an
    intermediate cell blocks iff the cross-multiplied similar-
    triangle inequality (e_i−e_o)·steps > (e_t−e_o)·s holds, so
    visibility is exact integer arithmetic end to end.  One bounded
    reduce builds the raster; the 1024-target finish runs driver-side
    and the twin replays it with a generate_series step table."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cx = ((k * 7919) % 1000) // 32
        cy = ((k * 104729) % 1000) // 32
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({"cell": cy * 32 + cx, "e": cents}) \
            .groupby("cell", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    et = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("cell").aggregate(Sum("e", alias_name="e"))
    ).to_pandas()
    e = np.zeros(1024, dtype=np.int64)
    e[et["cell"].to_numpy(np.int64)] = et["e"].to_numpy(np.int64)
    obs = int(np.argmax(e))           # ties: smallest cell index
    ox, oy = obs % 32, obs // 32
    eo = int(e[obs])

    rows = []
    for t_ in range(1024):
        if t_ == obs:
            rows.append({"cell": t_, "elevation": int(e[t_]),
                         "visible": True, "n_blockers": 0})
            continue
        tx, ty = t_ % 32, t_ // 32
        dx, dy = tx - ox, ty - oy
        steps = max(abs(dx), abs(dy))
        blockers = 0
        for s in range(1, steps):
            px = ox + (1 if dx > 0 else -1) \
                * ((2 * s * abs(dx) + steps) // (2 * steps))
            py = oy + (1 if dy > 0 else -1) \
                * ((2 * s * abs(dy) + steps) // (2 * steps))
            ei = int(e[py * 32 + px])
            if (ei - eo) * steps > (int(e[t_]) - eo) * s:
                blockers += 1
        rows.append({"cell": t_, "elevation": int(e[t_]),
                     "visible": blockers == 0,
                     "n_blockers": blockers})
    return pd.DataFrame(rows).astype({
        "cell": np.int64, "elevation": np.int64,
        "n_blockers": np.int64})


SQL_VIEWSHED = """
WITH ev AS (SELECT (((c_custkey * 104729) % 1000) // 32) * 32
                   + ((c_custkey * 7919) % 1000) // 32 AS cell,
                   SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT))
                     AS e
            FROM customer GROUP BY 1),
grid AS (SELECT g.cell, COALESCE(ev.e, 0) AS e
         FROM (SELECT unnest(generate_series(0, 1023)) AS cell) g
         LEFT JOIN ev USING (cell)),
ob AS (SELECT cell AS ocell, e AS eo FROM grid
       ORDER BY e DESC, cell LIMIT 1),
tg AS (SELECT g.cell, g.e, ob.ocell, ob.eo,
              g.cell % 32 - ob.ocell % 32 AS dx,
              g.cell // 32 - ob.ocell // 32 AS dy,
              GREATEST(ABS(g.cell % 32 - ob.ocell % 32),
                       ABS(g.cell // 32 - ob.ocell // 32)) AS steps
       FROM grid g, ob WHERE g.cell <> ob.ocell),
st AS (SELECT s FROM generate_series(1, 31) t(s)),
mid AS (SELECT tg.cell, tg.e, tg.eo, tg.steps, st.s,
               (tg.ocell % 32)
               + (CASE WHEN tg.dx > 0 THEN 1 ELSE -1 END)
                 * ((2 * st.s * ABS(tg.dx) + tg.steps)
                    // (2 * tg.steps)) AS px,
               (tg.ocell // 32)
               + (CASE WHEN tg.dy > 0 THEN 1 ELSE -1 END)
                 * ((2 * st.s * ABS(tg.dy) + tg.steps)
                    // (2 * tg.steps)) AS py
        FROM tg JOIN st ON st.s < tg.steps),
blk AS (SELECT mid.cell,
               SUM(CASE WHEN (g.e - mid.eo) * mid.steps
                             > (mid.e - mid.eo) * mid.s
                        THEN 1 ELSE 0 END) AS nb
        FROM mid JOIN grid g ON g.cell = mid.py * 32 + mid.px
        GROUP BY 1)
SELECT g.cell, g.e AS elevation,
       COALESCE(blk.nb, 0) = 0 AS visible,
       CAST(COALESCE(blk.nb, 0) AS BIGINT) AS n_blockers
FROM grid g LEFT JOIN blk ON blk.cell = g.cell
ORDER BY g.cell
"""


_CROSS_K_SEGS = ("AUTOMOBILE", "BUILDING")


def q_cross_k_segments(sf_dir: str):
    """Bivariate (cross) Ripley's K between the AUTOMOBILE and
    BUILDING customer point patterns — the do-the-two-types-attract-
    or-avoid diagnostic (retail co-location, competing-chain
    analysis) that the univariate K op cannot answer.  Same
    cell-replicated single pass as `ripleys_k` (cell edge = max
    radius, 3×3 fan-out, exact integer pair distances histogrammed
    into every radius at once) with the home side restricted to type
    1 and candidates to type 2; K̂₁₂(r) = A·pairs/(n₁·n₂) is one
    mirrored division per radius.  The twin burns the n₁×n₂ join."""
    from ray.data.aggregate import Sum

    RMAX = _RIPLEY_RADII[-1]
    s1, s2 = _CROSS_K_SEGS
    pts = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def fan_out(t: pa.Table) -> pa.Table:
        seg = t["c_mktsegment"].to_numpy(zero_copy_only=False)
        keep = (seg == s1) | (seg == s2)
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[keep]
        is1 = (seg[keep] == s1).astype(np.int8)
        x = (k * 7919) % 1000
        y = (k * 104729) % 1000
        off = np.array([(dx, dy) for dx in (-1, 0, 1)
                        for dy in (-1, 0, 1)], dtype=np.int64)
        n = len(k)
        xx, yy = np.repeat(x, 9), np.repeat(y, 9)
        t1 = np.repeat(is1, 9)
        cx = xx // RMAX + np.tile(off[:, 0], n)
        cy = yy // RMAX + np.tile(off[:, 1], n)
        home = (np.tile(off[:, 0], n) == 0) \
            & (np.tile(off[:, 1], n) == 0)
        return pa.table({
            "cell": pa.array(cx * 1000 + cy),
            "x": pa.array(xx), "y": pa.array(yy),
            "t1": pa.array(t1),
            "home": pa.array(home.astype(np.int8))})

    def hist(g: pd.DataFrame) -> pd.DataFrame:
        hm = g[(g["home"] == 1) & (g["t1"] == 1)]
        cand = g[g["t1"] == 0]
        if not len(hm) or not len(cand):
            return pd.DataFrame({"r": pd.Series([], dtype=np.int64),
                                 "c": pd.Series([], dtype=np.int64)})
        hx = hm["x"].to_numpy(np.int64)
        hy = hm["y"].to_numpy(np.int64)
        ax = cand["x"].to_numpy(np.int64)
        ay = cand["y"].to_numpy(np.int64)
        d2 = (hx[:, None] - ax[None, :]) ** 2 \
            + (hy[:, None] - ay[None, :]) ** 2
        rows = [{"r": r, "c": int((d2 <= r * r).sum())}
                for r in _RIPLEY_RADII]
        return pd.DataFrame(rows)

    cnt = relational.ds_to_table(
        pts.map_batches(fan_out, batch_format="pyarrow")
        .groupby("cell").map_groups(hist, batch_format="pandas")
        .groupby("r").aggregate(Sum("c", alias_name="n_pairs"))
    ).to_pandas().sort_values("r").reset_index(drop=True)

    def nseg(t: pa.Table) -> pa.Table:
        seg = t["c_mktsegment"].to_numpy(zero_copy_only=False)
        return pa.table({"_g": pa.array([0]),
                         "n1": pa.array([int((seg == s1).sum())]),
                         "n2": pa.array([int((seg == s2).sum())])})

    ns = relational.ds_to_table(
        pts.map_batches(nseg, batch_format="pyarrow")
        .groupby("_g").aggregate(Sum("n1", alias_name="n1"),
                                 Sum("n2", alias_name="n2"))
    ).to_pandas()
    n1, n2 = int(ns["n1"].iloc[0]), int(ns["n2"].iloc[0])
    out = pd.DataFrame({
        "r": cnt["r"].astype(np.int64),
        "n_pairs": cnt["n_pairs"].astype(np.int64)})
    out["k12_hat"] = np.round(
        1000000.0 * out["n_pairs"].to_numpy(np.int64)
        / (float(n1) * float(n2)), 6)
    return out


SQL_CROSS_K = """
WITH p AS (SELECT c_custkey AS k, c_mktsegment AS seg,
                  (c_custkey * 7919) % 1000 AS x,
                  (c_custkey * 104729) % 1000 AS y
           FROM customer
           WHERE c_mktsegment IN ('AUTOMOBILE', 'BUILDING')),
t AS (SELECT SUM(CASE WHEN seg = 'AUTOMOBILE' THEN 1 ELSE 0 END)
        AS n1,
             SUM(CASE WHEN seg = 'BUILDING' THEN 1 ELSE 0 END) AS n2
      FROM p),
d AS (SELECT (a.x - b.x) * (a.x - b.x)
               + (a.y - b.y) * (a.y - b.y) AS d2
      FROM p a JOIN p b
        ON a.seg = 'AUTOMOBILE' AND b.seg = 'BUILDING'),
h AS (SELECT r, CAST(COUNT(*) FILTER (WHERE d2 <= r * r) AS BIGINT)
               AS n_pairs
      FROM d CROSS JOIN
           (SELECT UNNEST([5, 10, 15, 20, 25]) AS r) radii
      GROUP BY r)
SELECT r, n_pairs,
       ROUND(1000000.0 * n_pairs
             / (CAST(n1 AS DOUBLE) * CAST(n2 AS DOUBLE)), 6)
         AS k12_hat
FROM h, t ORDER BY r
"""


def q_raster_majority_filter(sf_dir: str):
    """Majority (mode) filter over the categorical customer-segment
    raster — the classic post-classification cleanup every land-cover
    map runs: each 50-unit cell's category is its customers' modal
    market segment (ties lexicographic), and the 3×3 neighborhood
    mode (over non-empty cells, same tiebreak) smooths salt-and-
    pepper noise.  One bounded (cell × segment) count reduce; the
    ≤400-cell finish is exact integer voting on the driver; the twin
    replays both modes with ROW_NUMBER."""
    from ray.data.aggregate import Sum
    pts = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cx = ((k * 7919) % 1000) // 50
        cy = ((k * 104729) % 1000) // 50
        g = pd.DataFrame({
            "cell": cy * 20 + cx,
            "seg": t["c_mktsegment"].to_numpy(zero_copy_only=False),
            "c": 1}).groupby(["cell", "seg"], sort=False) \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cs = relational.ds_to_table(
        pts.map_batches(partial, batch_format="pyarrow")
        .groupby(["cell", "seg"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()

    def mode(df: pd.DataFrame) -> dict:
        out = {}
        for cell, g in df.groupby("cell"):
            g = g.sort_values(["c", "seg"],
                              ascending=[False, True])
            out[int(cell)] = g["seg"].iloc[0]
        return out

    raw = mode(cs)
    rows = []
    for cell in sorted(raw):
        cx, cy = cell % 20, cell // 20
        votes: dict = {}
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                nx, ny = cx + dx, cy + dy
                if 0 <= nx < 20 and 0 <= ny < 20:
                    s = raw.get(ny * 20 + nx)
                    if s is not None:
                        votes[s] = votes.get(s, 0) + 1
        smooth = sorted(votes.items(),
                        key=lambda kv: (-kv[1], kv[0]))[0][0]
        rows.append({"cell": cell, "raw_mode": raw[cell],
                     "smooth_mode": smooth,
                     "changed": smooth != raw[cell]})
    return pd.DataFrame(rows).astype({"cell": np.int64})


SQL_MAJORITY_FILTER = """
WITH pc AS (SELECT (((c_custkey * 104729) % 1000) // 50) * 20
                   + ((c_custkey * 7919) % 1000) // 50 AS cell,
                   c_mktsegment AS seg, COUNT(*) AS c
            FROM customer GROUP BY 1, 2),
raw AS (SELECT cell, seg FROM (
          SELECT cell, seg,
                 ROW_NUMBER() OVER (PARTITION BY cell
                                    ORDER BY c DESC, seg) AS rn
          FROM pc) WHERE rn = 1),
nb AS (SELECT a.cell, b.seg
       FROM raw a JOIN raw b
         ON ABS(a.cell % 20 - b.cell % 20) <= 1
        AND ABS(a.cell // 20 - b.cell // 20) <= 1),
sv AS (SELECT cell, seg, COUNT(*) AS v FROM nb GROUP BY 1, 2),
sm AS (SELECT cell, seg FROM (
         SELECT cell, seg,
                ROW_NUMBER() OVER (PARTITION BY cell
                                   ORDER BY v DESC, seg) AS rn
         FROM sv) WHERE rn = 1)
SELECT raw.cell, raw.seg AS raw_mode, sm.seg AS smooth_mode,
       raw.seg <> sm.seg AS changed
FROM raw JOIN sm USING (cell) ORDER BY raw.cell
"""


_KNN_CLS_K = 5


def q_knn_classifier_eval(sf_dir: str):
    """Leave-one-out k-NN classification accuracy of nation labels
    from point position (k = 5) — the spatial-signal audit: how well
    does WHERE a customer sits predict its nation label?  Each batch
    scores against the broadcast (x, y, key, nation) arrays
    (size-guarded, per-worker cached — the Hausdorff family's
    budget; the scale path shards probes by grid cell), with the
    5-NN selected on the EXACT composite integer d²·2²⁰+key (strict
    lexicographic (d², key) order in one argpartition) and majority
    vote ties resolved to the smaller nation id.  Counts are exact;
    per-nation accuracy is one mirrored division.  The twin burns
    the n² join with the same ROW_NUMBER order."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    ref = relational.ds_to_table(
        cu.map_batches(lambda t: t, batch_format="pyarrow"))
    rk = ref["c_custkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    rnat = ref["c_nationkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    order = np.argsort(rk, kind="stable")
    rk, rnat = rk[order], rnat[order]
    rx = (rk * 7919) % 1000
    ry = (rk * 104729) % 1000
    bref = ray.put((rk, rx, ry, rnat))

    def score(t: pa.Table) -> pa.Table:
        k_, x_, y_, nat_ = relational.worker_cached(
            ("knn_cls_ref", bref), lambda: ray.get(bref))
        pk = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pn = t["c_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        px = (pk * 7919) % 1000
        py = (pk * 104729) % 1000
        d2 = (px[:, None] - x_[None, :]) ** 2 \
            + (py[:, None] - y_[None, :]) ** 2
        comp = d2 * (1 << 20) + k_[None, :]
        comp[pk[:, None] == k_[None, :]] = np.iinfo(np.int64).max
        kk = _KNN_CLS_K
        idx = np.argpartition(comp, kk - 1, axis=1)[:, :kk]
        nn_nat = nat_[idx]
        votes = np.zeros((len(pk), 25), dtype=np.int64)
        np.add.at(votes, (np.arange(len(pk))[:, None], nn_nat), 1)
        pred = np.argmax(votes, axis=1)   # ties -> smaller nation
        g = pd.DataFrame({
            "nat": pn, "n": 1,
            "ok": (pred == pn).astype(np.int64)}) \
            .groupby("nat", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        cu.map_batches(score, batch_format="pyarrow")
        .groupby("nat").aggregate(Sum("n", alias_name="n"),
                                  Sum("ok", alias_name="ok"))
    ).to_pandas().sort_values("nat").reset_index(drop=True)
    return pd.DataFrame({
        "nationkey": agg["nat"].astype(np.int64),
        "n_points": agg["n"].astype(np.int64),
        "n_correct": agg["ok"].astype(np.int64),
        "accuracy": np.round(
            agg["ok"].to_numpy(np.int64).astype(np.float64)
            / agg["n"].to_numpy(np.int64), 6)})


SQL_KNN_CLASSIFIER = """
WITH p AS (SELECT c_custkey AS k, CAST(c_nationkey AS BIGINT)
             AS nat,
                  (c_custkey * 7919) % 1000 AS x,
                  (c_custkey * 104729) % 1000 AS y
           FROM customer),
nn AS (SELECT k, nat, bnat
       FROM (SELECT a.k, a.nat, b.k AS bk, b.nat AS bnat,
                    ROW_NUMBER() OVER (
                      PARTITION BY a.k
                      ORDER BY (a.x - b.x) * (a.x - b.x)
                               + (a.y - b.y) * (a.y - b.y), b.k)
                      AS rn
             FROM p a JOIN p b ON a.k <> b.k)
       WHERE rn <= 5),
vote AS (SELECT k, nat, bnat, COUNT(*) AS v
         FROM nn GROUP BY 1, 2, 3),
pred AS (SELECT k, nat, bnat AS pred FROM (
           SELECT k, nat, bnat,
                  ROW_NUMBER() OVER (PARTITION BY k
                                     ORDER BY v DESC, bnat) AS rn
           FROM vote) WHERE rn = 1)
SELECT nat AS nationkey, CAST(COUNT(*) AS BIGINT) AS n_points,
       CAST(SUM(CASE WHEN pred = nat THEN 1 ELSE 0 END) AS BIGINT)
         AS n_correct,
       ROUND(CAST(SUM(CASE WHEN pred = nat THEN 1 ELSE 0 END)
                  AS DOUBLE) / COUNT(*), 6) AS accuracy
FROM pred GROUP BY 1 ORDER BY 1
"""


def q_osm_pbf_source_stats(sf_dir: str):
    """OSM PBF ingestion parity — the reference's REAL input format,
    parsed by the engine's own stdlib PBF reader instead of the
    reference's ogr2ogr shell-out (S2/S3, ``etl/_extract.py:5-18``):
    a deterministic synthetic ``.osm.pbf`` is derived from the
    supplier table (way per supplier, highway/waterway class and
    2-node geometry all pure functions of ``s_suppkey``,
    building-tagged ways seeded to exercise the extract filter),
    written through the in-repo PBF writer, read back through
    ``read_osm_pbf`` — and the per-class stats are computed FROM THE
    PARSED GEOMETRY (vertex counts and nano-quantized lengths out of
    the WKB coordinates) while the oracle recomputes them from
    ``supplier`` directly, so any framing/varint/delta-coding bug in
    either codec breaks the value hash."""
    import os
    import uuid

    from ...io import osmpbf

    base = _fingerprint_cache_dir(sf_dir, "supplier", "osmpbf")
    pbf = os.path.join(base, "synth.osm.pbf")
    if not os.path.isfile(pbf):
        sup = _read_table(sf_dir, "supplier", ["s_suppkey"])
        keys = sup["s_suppkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nodes = {}
        ways = []
        for s in keys.tolist():
            lon = ((s * 7919) % 1000) * 1e-3
            lat = ((s * 104729) % 1000) * 1e-3
            dx = (((s * 31) % 7) + 1) * 1e-3
            dy = (((s * 17) % 5) + 1) * 1e-3
            nodes[2 * s] = (lon, lat)
            nodes[2 * s + 1] = (lon + dx, lat + dy)
            if s % 5 == 4:
                tags = {"building": "yes"}
            elif s % 3 == 0:
                tags = {"highway": "primary"}
            elif s % 3 == 1:
                tags = {"highway": "secondary"}
            else:
                tags = {"waterway": "river"}
            ways.append((s, tags, [2 * s, 2 * s + 1]))
        tmp = f"{base}.tmp-{uuid.uuid4().hex}"
        os.makedirs(tmp, exist_ok=True)
        osmpbf.write_osm_pbf(os.path.join(tmp, "synth.osm.pbf"),
                             nodes, ways)
        try:
            os.rename(tmp, base)
        except OSError:
            import shutil
            shutil.rmtree(tmp, ignore_errors=True)

    ds = osmpbf.read_osm_pbf(pbf)

    def partial(t: pa.Table) -> pa.Table:
        rows = []
        hw = t["highway"].to_pylist()
        ww = t["waterway"].to_pylist()
        for i, g in enumerate(t["geometry"].to_pylist()):
            _, coords = wkb.decode(g)
            c = np.asarray(coords)
            seg = np.diff(c, axis=0)
            ln = float(np.hypot(seg[:, 0], seg[:, 1]).sum())
            cls = hw[i] if hw[i] is not None else f"waterway:{ww[i]}"
            # micro (1e6) fold: the PBF 1e-7 coordinate granularity
            # re-parses with ~1e-13 relative float drift, so nano
            # boundaries are not reliably shared between the parsed
            # path and the oracle's closed form — micro is
            rows.append((cls, len(c),
                         int(np.floor(ln * 1e6 + 0.5))))
        g = pd.DataFrame(rows, columns=["cls", "nv", "l9"]) \
            .groupby("cls").agg(pn=("nv", "size"), pv=("nv", "sum"),
                                pl=("l9", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum
    out = relational.ds_to_table(
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("cls").aggregate(
            Sum("pn", alias_name="n_ways"),
            Sum("pv", alias_name="n_vertices"),
            Sum("pl", alias_name="len9"))
    ).to_pandas().sort_values("cls").reset_index(drop=True)
    out["total_length"] = np.round(out["len9"] / 1e6, 6)
    return out.drop(columns="len9").astype({
        "n_ways": np.int64, "n_vertices": np.int64})


SQL_OSM_PBF_STATS = """
WITH w AS (SELECT s_suppkey AS s,
                  CASE WHEN s_suppkey % 3 = 0 THEN 'primary'
                       WHEN s_suppkey % 3 = 1 THEN 'secondary'
                       ELSE 'waterway:river' END AS cls,
                  SQRT((((s_suppkey * 31) % 7 + 1) * 1e-3)
                       * (((s_suppkey * 31) % 7 + 1) * 1e-3)
                       + (((s_suppkey * 17) % 5 + 1) * 1e-3)
                         * (((s_suppkey * 17) % 5 + 1) * 1e-3))
                    AS len
           FROM supplier
           WHERE s_suppkey % 5 <> 4)
SELECT cls, CAST(COUNT(*) AS BIGINT) AS n_ways,
       CAST(2 * COUNT(*) AS BIGINT) AS n_vertices,
       ROUND(SUM(CAST(FLOOR(len * 1e6 + 0.5) AS HUGEINT)) / 1e6, 6)
         AS total_length
FROM w GROUP BY 1 ORDER BY cls
"""
