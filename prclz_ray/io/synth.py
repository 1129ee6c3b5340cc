"""Deterministic synthetic fixture generator (FIXTURES.md F1-F5).

Seeded, pure-python/numpy — no external data. Produces:
  pages      (url, warc_ts, html, text, lang)   — F1, the primary corpus
  regions    (gadm_code, gadm, geometry)        — F2, GADM-analogue rects
  lines      (line_id, highway, gadm_code, geometry) — F3, grid streets
  buildings  (bldg_id, building, gadm_code, url, geometry) — F4

Layout: 3 synthetic countries = disjoint 1°×1° lon/lat boxes, each tiled by
2×2 region rectangles; each region holds an n×n street grid whose cells are
the closed-form expected blocks (F5). Building footprints sit strictly
inside grid cells; pages geocode to building centroids (with footprint
payload) or to filler points, with ~30% of filler points packed into one
hot S2 level-14 cell to exercise skew salting.

The ``text`` column is a regression fixture, not an independent oracle: it
is made by the engine's own extractor
(``stages/extract_text.extract_text_bytes``), so comparing the engine to it
checks that extraction is the same at any parallelism and across the
pipeline's stages, but passes whatever the extractor outputs. The
independent checks are ``tests/test_extract_text.py`` (the extractor against
the original regex pipeline, kept as a reference) and the benchmark's pages
(``perfbench/gen.py``), whose text is assembled token by token next to the
html.
"""
from __future__ import annotations

import datetime as _dt

import numpy as np
import pyarrow as pa

from ..geom import wkb
from ..stages.extract_text import extract_text_bytes

COUNTRIES = {
    "SYNA": (10.0, 10.0),   # (lon0, lat0) of the 1x1 deg box
    "SYNB": (12.0, 10.0),
    "SYNC": (14.0, 10.0),
}
REGIONS_PER_SIDE = 2        # 2x2 regions per country
GRID_N = 4                  # n x n street-grid cells per region
GRID_W = 0.5 / GRID_N       # grid cell width: the grid spans the region, so
GRID_MARGIN = 0.0           # region polygonization yields exactly n² blocks
LANGS = ["en", "fr", "ar", "sw"]
EPOCH = _dt.datetime(2026, 1, 1)
HOT_CELL_FRAC = 0.3
DUP_FRAC = 0.01


def region_boxes() -> list[tuple[str, str, float, float, float, float]]:
    """(gadm_code, gadm, lon0, lat0, lon1, lat1) for every region rect."""
    out = []
    half = 1.0 / REGIONS_PER_SIDE
    for country, (lon0, lat0) in COUNTRIES.items():
        for a in range(REGIONS_PER_SIDE):
            for b in range(REGIONS_PER_SIDE):
                code = f"{country}.{a + 1}.{b + 1}_1"
                out.append((code, country,
                            lon0 + a * half, lat0 + b * half,
                            lon0 + (a + 1) * half, lat0 + (b + 1) * half))
    return out


def regions_table() -> pa.Table:
    rows = region_boxes()
    geoms = [wkb.polygon(np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]))
             for (_, _, x0, y0, x1, y1) in rows]
    return pa.table({
        "gadm_code": [r[0] for r in rows],
        "gadm": [r[1] for r in rows],
        "geometry": pa.array(geoms, type=pa.binary()),
    })


def grid_origin(region) -> tuple[float, float]:
    _, _, x0, y0, _, _ = region
    return x0 + GRID_MARGIN, y0 + GRID_MARGIN


def lines_table() -> pa.Table:
    """Grid streets per region: horizontal + vertical lines forming an
    n×n cell lattice (the reference's create_test_grid analogue,
    ``tests/test_reblock.py:34-43``, placed per region)."""
    ids, hw, gadm, geoms = [], [], [], []
    k = 0
    for region in region_boxes():
        gx, gy = grid_origin(region)
        span = GRID_N * GRID_W
        for i in range(GRID_N + 1):
            y = gy + i * GRID_W
            geoms.append(wkb.linestring(np.array([(gx, y), (gx + span, y)])))
            ids.append(f"L{k}"); k += 1
            hw.append("residential" if i % 2 else "primary")
            gadm.append(region[0])
            x = gx + i * GRID_W
            geoms.append(wkb.linestring(np.array([(x, gy), (x, gy + span)])))
            ids.append(f"L{k}"); k += 1
            hw.append("residential")
            gadm.append(region[0])
    return pa.table({
        "line_id": ids, "highway": hw, "gadm_code": gadm,
        "geometry": pa.array(geoms, type=pa.binary()),
    })


def expected_blocks() -> list[tuple[str, str, np.ndarray]]:
    """Closed-form F5 blocks: the n×n grid cells per region,
    block_id = f"{gadm_code}_{i}" (id rule: ``blocks/_extract_blocks.py:36``)."""
    out = []
    for region in region_boxes():
        gx, gy = grid_origin(region)
        i = 0
        for a in range(GRID_N):
            for b in range(GRID_N):
                x0, y0 = gx + a * GRID_W, gy + b * GRID_W
                ring = np.array([(x0, y0), (x0 + GRID_W, y0),
                                 (x0 + GRID_W, y0 + GRID_W), (x0, y0 + GRID_W),
                                 (x0, y0)])
                out.append((f"{region[0]}_{i}", region[0], ring))
                i += 1
    return out


def _building_spots(block_ring: np.ndarray, count: int) -> np.ndarray:
    """Deterministic interior centroids: one at the block center (its
    Voronoi parcel is interior — the reblock prep M8 keeps it as a
    terminal) plus a ring of ``count-1`` positions at 40% radius (their
    parcels touch the block boundary — M8 drops them as already
    street-connected)."""
    x0, y0 = block_ring[0]
    c = np.array([x0 + GRID_W / 2, y0 + GRID_W / 2])
    if count <= 1:
        return c[None, :]
    ang = 2 * np.pi * np.arange(count - 1) / (count - 1)
    r = 0.4 * GRID_W
    ring = c + r * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return np.vstack([c[None, :], ring])


def buildings_table(per_block: int = 5) -> pa.Table:
    ids, btype, gadm, urls, geoms = [], [], [], [], []
    w = GRID_W * 0.1
    for block_id, gadm_code, ring in expected_blocks():
        for i, (cx, cy) in enumerate(_building_spots(ring, per_block)):
            bid = f"{block_id}_b{i}"
            sq = np.array([(cx - w / 2, cy - w / 2), (cx + w / 2, cy - w / 2),
                           (cx + w / 2, cy + w / 2), (cx - w / 2, cy + w / 2),
                           (cx - w / 2, cy - w / 2)])
            ids.append(bid)
            btype.append("house" if i % 2 else "yes")
            gadm.append(gadm_code)
            urls.append(f"https://example.org/{gadm_code}/{bid}")
            geoms.append(wkb.polygon(sq))
    return pa.table({
        "bldg_id": ids, "building": btype, "gadm_code": gadm, "url": urls,
        "geometry": pa.array(geoms, type=pa.binary()),
    })


# ------------------------------------------------------------------ pages

_FILLER = ("lorem ipsum dolor", "vestibulum ante ipsum", "quis nostrud exercitation",
           "duis aute irure", "sed do eiusmod tempor", "ut labore et dolore")


def _page_html(i: int, lat: float, lng: float, ring: np.ndarray | None,
               stale: bool = False, body_paras: int = 1) -> bytes:
    """body_paras sizes the page: 1 ≈ 600 B (test fixtures); ~10 ≈ 8 KB
    (bench corpora at Common-Crawl-like page weight)."""
    title = f"Page {i} of country survey"
    marker = "STALE-REVISION" if stale else f"rev-{i % 7}"
    paras = []
    for p in range(body_paras):
        words = " ".join(_FILLER[(i + k + p * 13) % len(_FILLER)]
                         for k in range(3 + i % 4 if body_paras == 1 else 38))
        if p % 3 == 1:
            words = f'<span class="s{p}">{words}</span> &lt;{p}&gt; {words}'
        paras.append(f'<p id="p{p}">{words}</p>')
    body = "".join(paras)
    ring_attr = ""
    if ring is not None:
        ring_attr = ('<div id="footprint" data-ring="'
                     + " ".join(f"{x:.6f} {y:.6f}" for x, y in ring)
                     + '">footprint</div>')
    html = (
        f'<html><head><meta name="geo" content="{lat:.6f};{lng:.6f}">'
        f"<title>{title}</title><style>p {{margin: 0}}</style></head>"
        f"<body><h1>{title}</h1><script>var x = {i};</script>"
        f"{body}<p>&amp; more [{marker}]</p>{ring_attr}</body></html>"
    )
    return html.encode("utf-8")


def pages_batch(indices: np.ndarray, n_total: int, seed: int = 42,
                body_paras: int = 1) -> pa.Table:
    """Generate the pages rows for the given global indices — deterministic
    per-row (safe to call from parallel map_batches tasks)."""
    regions = region_boxes()
    blocks = expected_blocks()
    bpb = 5
    n_bldg_pages = len(blocks) * bpb

    urls, ts, htmls, texts, langs = [], [], [], [], []
    hot_region = regions[0]
    hot_pt = (hot_region[2] + 0.4, hot_region[3] + 0.4)

    for idx in np.asarray(indices, dtype=np.int64):
        rng = np.random.default_rng(seed * 1_000_003 + int(idx))
        if idx < n_bldg_pages:
            # building provenance page: footprint payload
            block_id, gadm_code, ring = blocks[idx // bpb]
            spot = _building_spots(ring, bpb)[idx % bpb]
            w = GRID_W * 0.1
            cx, cy = spot
            sq = np.array([(cx - w / 2, cy - w / 2), (cx + w / 2, cy - w / 2),
                           (cx + w / 2, cy + w / 2), (cx - w / 2, cy + w / 2),
                           (cx - w / 2, cy - w / 2)])
            url = f"https://example.org/{gadm_code}/{block_id}_b{idx % bpb}"
            lat, lng, ring_out = cy, cx, sq
        else:
            r = regions[int(idx) % len(regions)]
            if rng.random() < HOT_CELL_FRAC:
                lng = hot_pt[0] + rng.uniform(-5e-4, 5e-4)
                lat = hot_pt[1] + rng.uniform(-5e-4, 5e-4)
            else:
                lng = rng.uniform(r[2], r[4])
                lat = rng.uniform(r[3], r[5])
            url = f"https://example.org/{r[1]}/{int(idx):08d}"
            ring_out = None
        html = _page_html(int(idx), lat, lng, ring_out, body_paras=body_paras)
        urls.append(url)
        ts.append(EPOCH + _dt.timedelta(seconds=int(idx)))
        htmls.append(html)
        texts.append(extract_text_bytes(html))
        langs.append(LANGS[int(idx) % len(LANGS)])
        # 1% duplicated url with OLDER warc_ts and stale payload (latest wins)
        if int(idx) % 100 == 7:
            stale_html = _page_html(int(idx), lat, lng, ring_out, stale=True,
                                    body_paras=body_paras)
            urls.append(url)
            ts.append(EPOCH + _dt.timedelta(seconds=int(idx)) - _dt.timedelta(days=30))
            htmls.append(stale_html)
            texts.append(extract_text_bytes(stale_html))
            langs.append(LANGS[int(idx) % len(LANGS)])

    return pa.table({
        "url": urls,
        "warc_ts": pa.array(ts, type=pa.timestamp("us")),
        "html": pa.array(htmls, type=pa.binary()),
        "text": texts,
        "lang": langs,
    })


def pages_dataset(n: int, seed: int = 42, parallelism: int = 8,
                  body_paras: int = 1):
    """Distributed deterministic generation: ray.data.range → map_batches."""
    import ray.data as rd

    def gen(batch):
        return pages_batch(batch["id"], n, seed, body_paras=body_paras)

    return rd.range(n, override_num_blocks=parallelism).map_batches(
        gen, batch_format="pyarrow", batch_size=16384)


def write_fixture_tables(out_dir: str, n_pages: int = 2000, seed: int = 42) -> dict:
    """Materialize all fixture tables as parquet under out_dir."""
    import os
    import pyarrow.parquet as pq
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, tbl in [("regions", regions_table()), ("lines", lines_table()),
                      ("buildings", buildings_table())]:
        p = f"{out_dir}/{name}.parquet"
        pq.write_table(tbl, p)
        paths[name] = p
    p = f"{out_dir}/pages.parquet"
    pq.write_table(pages_batch(np.arange(n_pages), n_pages, seed), p)
    paths["pages"] = p
    return paths
