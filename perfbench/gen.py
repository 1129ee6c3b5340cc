"""Seeded input generator and numpy oracles for the benchmark.

Everything here runs in one process and depends only on numpy/pyarrow, so
the expected outputs are computed independently of the engine under test:
the ``text`` column is assembled token by token next to the html, region
counts come from rectangle tests on the generator's own geocodes, and
footprint matches come from a lattice lookup.

Layout (shared by all workloads): 3 countries, each a 1°×1° lon/lat box
split into 2×2 rectangular regions (12 regions).  30% of geocodes sit in
one hot S2 cell, 5% fall outside every region, 2% of pages carry no geo
tag at all, and 1% of urls (at least one) also have an older, stale copy
whose geocode points somewhere else (latest ``warc_ts`` wins).
"""
from __future__ import annotations

import os
import shutil
import struct

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

COUNTRY_ORIGINS = [(10.0, 10.0), (12.0, 10.0), (14.0, 10.0)]
REGION_W = 0.5
# Centre of one level-14 (and level-12) S2 cell; jitter of ±2e-4° keeps
# every hot point inside that cell at both levels.
HOT_POINT = (10.3, 10.3)
HOT_JITTER = 2e-4
HOT_FRAC = 0.30
OUTSIDE_FRAC = 0.05
NOGEO_FRAC = 0.02
DUP_FRAC = 0.01
EPOCH_US = 1_767_225_600_000_000          # 2026-01-01T00:00:00Z
STALE_US = 30 * 86_400 * 1_000_000
# footprint lattice: one building per occupied slot, so footprints never
# overlap and the oracle is a single slot lookup
SLOT = 0.002
SLOT_ORIGIN = (10.0, 10.0)
SLOT_NY = 1000
TOWN = 10

_WORDS = [
    "lorem", "ipsum", "dolor", "sit", "amet", "consectetur", "adipiscing",
    "elit", "sed", "eiusmod", "tempor", "incididunt", "labore", "dolore",
    "magna", "aliqua", "enim", "minim", "veniam", "quis", "nostrud",
    "exercitation", "ullamco", "laboris", "nisi", "aliquip", "commodo",
    "consequat", "duis", "aute", "irure", "reprehenderit", "voluptate",
    "velit", "esse", "cillum", "fugiat", "nulla", "pariatur", "excepteur",
    "sint", "occaecat", "cupidatat", "proident", "sunt", "culpa", "officia",
    "deserunt", "mollit", "anim", "laborum", "café", "naïve", "straße",
    "東京", "مدينة", "kijiji", "soko", "barabara", "nyumba",
]
# (html form, extracted-text form): the five entities the extractor decodes
_SPECIAL = [("&amp;", "&"), ("&lt;b&gt;", "<b>"), ("&quot;q&quot;", '"q"'),
            ("it&#39;s", "it's"), ("a&lt;b", "a<b")]

PARAS = 12
WORDS_PER_PARA = 116


# ------------------------------------------------------------------ regions

def region_boxes() -> list[tuple[str, float, float, float, float]]:
    out = []
    for c, (x0, y0) in enumerate(COUNTRY_ORIGINS):
        for a in range(2):
            for b in range(2):
                out.append((f"SYN{'ABC'[c]}.{a + 1}.{b + 1}_1",
                            x0 + a * REGION_W, y0 + b * REGION_W,
                            x0 + (a + 1) * REGION_W, y0 + (b + 1) * REGION_W))
    return out


def _wkb_rect(x0, y0, x1, y1) -> bytes:
    ring = np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)],
                    dtype="<f8")
    return struct.pack("<BIII", 1, 3, 1, 5) + ring.tobytes()


def regions_table() -> pa.Table:
    boxes = region_boxes()
    return pa.table({
        "gadm_code": [b[0] for b in boxes],
        "geometry": pa.array([_wkb_rect(*b[1:]) for b in boxes],
                             type=pa.binary()),
    })


def in_hot_box(lng: np.ndarray, lat: np.ndarray) -> np.ndarray:
    """Points of the hot S2 cell's jitter box (all in one cell)."""
    return (np.abs(lng - HOT_POINT[0]) <= HOT_JITTER + 1e-9) & \
        (np.abs(lat - HOT_POINT[1]) <= HOT_JITTER + 1e-9)


def region_of(lng: np.ndarray, lat: np.ndarray) -> np.ndarray:
    """Oracle: region code per point (None outside every region / NaN)."""
    out = np.full(len(lng), None, dtype=object)
    for code, x0, y0, x1, y1 in region_boxes():
        m = (lng > x0) & (lng < x1) & (lat > y0) & (lat < y1)
        out[m] = code
    return out


# ------------------------------------------------------------------ points

def _geocodes(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded geocodes with the hot cell / outside / in-region mix,
    rounded to the 6 decimals the html carries."""
    u = rng.random(n)
    boxes = region_boxes()
    r = rng.integers(0, len(boxes), n)
    bx = np.array([b[1:] for b in boxes])[r]
    lng = bx[:, 0] + rng.random(n) * REGION_W
    lat = bx[:, 1] + rng.random(n) * REGION_W
    hot = u < HOT_FRAC
    lng[hot] = HOT_POINT[0] + rng.uniform(-HOT_JITTER, HOT_JITTER, hot.sum())
    lat[hot] = HOT_POINT[1] + rng.uniform(-HOT_JITTER, HOT_JITTER, hot.sum())
    out = (u >= HOT_FRAC) & (u < HOT_FRAC + OUTSIDE_FRAC)
    lng[out] = 20.0 + rng.random(out.sum())
    lat[out] = -5.0 + rng.random(out.sum())
    lng, lat = np.round(lng, 6), np.round(lat, 6)
    # a rounded coordinate exactly on a region edge has no defined owner
    lng[np.round(lng * 2, 6) % 1 == 0] += 1e-6
    lat[np.round(lat * 2, 6) % 1 == 0] += 1e-6
    return lng, lat


# ------------------------------------------------------------------ pages

def _page(rng, i: int, lat: float, lng: float, stale: bool,
          footprint: bool) -> tuple[bytes, str]:
    """One page at Common-Crawl weight (~10.7 KB html) and its extracted
    text, built from the same visible tokens."""
    html: list[str] = []
    text: list[str] = []
    title = f"Survey page {i}"
    geo = "" if np.isnan(lat) else \
        f'<meta name="geo" content="{lat:.6f};{lng:.6f}">'
    html.append(f'<html><head>{geo}\n  <title>{title}</title>'
                '<style>p { margin: 0 }\n  .s { color: red }</style>'
                '</head>\n<body><h1>' + title + "</h1>"
                f'<script>var page = {i}; var t = "<p>not text</p>";</script>')
    text += [title, title]
    widx = rng.integers(0, len(_WORDS), (PARAS, WORDS_PER_PARA))
    for p in range(PARAS):
        words = [_WORDS[k] for k in widx[p]]
        if p % 3 == 1:
            h, t = _SPECIAL[(i + p) % len(_SPECIAL)]
            html.append(f'\n<p class="s"><span>{" ".join(words[:50])}</span>'
                        f"  {h}\t{' '.join(words[50:])}</p>")
            text += words[:50] + [t] + words[50:]
        else:
            html.append(f"\n<p>{' '.join(words)}</p>")
            text += words
    marker = "STALE-REVISION" if stale else f"rev-{i % 7}"
    html.append(f"<p>&amp; more [{marker}]</p>")
    text += ["&", "more", f"[{marker}]"]
    if footprint and not np.isnan(lat):
        w = 2e-4
        ring = [(lng - w, lat - w), (lng + w, lat - w), (lng + w, lat + w),
                (lng - w, lat + w), (lng - w, lat - w)]
        coords = " ".join(f"{x:.6f} {y:.6f}" for x, y in ring)
        html.append(f'<div id="footprint" data-ring="{coords}">footprint</div>')
        text.append("footprint")
    html.append("</body></html>\n")
    return "".join(html).encode("utf-8"), " ".join(text)


def pages(seed: int, n: int) -> dict:
    """``n`` distinct urls plus ~1% stale duplicates, shuffled.  Returns
    the columns the program reads (url, warc_ts, html) and the generator's
    own truth (text, lng, lat)."""
    rng = np.random.default_rng([seed, 1])
    lng, lat = _geocodes(rng, n)
    nogeo = rng.random(n) < NOGEO_FRAC
    lng[nogeo] = np.nan
    lat[nogeo] = np.nan
    dup_ids = np.sort(rng.choice(n, max(1, round(DUP_FRAC * n)),
                                 replace=False))
    s_lng, s_lat = _geocodes(rng, len(dup_ids))
    fp = rng.random(n) < 0.2

    rows_url, rows_ts, rows_html, rows_text, rows_lng, rows_lat = \
        [], [], [], [], [], []

    def add(i, la, ln, stale):
        h, t = _page(rng, i, la, ln, stale, bool(fp[i]))
        rows_url.append(f"https://site{i % 53}.example/{i:08d}")
        rows_ts.append(EPOCH_US + i * 1_000_000 - (STALE_US if stale else 0))
        rows_html.append(h)
        rows_text.append(t)
        rows_lng.append(ln)
        rows_lat.append(la)

    for i in range(n):
        add(i, lat[i], lng[i], False)
    for j, i in enumerate(dup_ids):
        add(int(i), s_lat[j], s_lng[j], True)
    order = rng.permutation(len(rows_url))
    return {
        "url": [rows_url[k] for k in order],
        "warc_ts": np.asarray(rows_ts, dtype=np.int64)[order],
        "html": [rows_html[k] for k in order],
        "text": [rows_text[k] for k in order],
        "lng": np.asarray(rows_lng)[order],
        "lat": np.asarray(rows_lat)[order],
    }


def pages_table(p: dict) -> pa.Table:
    return pa.table({
        "url": pa.array(p["url"], type=pa.string()),
        "warc_ts": pa.array(p["warc_ts"], type=pa.int64())
        .cast(pa.timestamp("us")),
        "html": pa.array(p["html"], type=pa.binary()),
    })


def region_counts_oracle(url, warc_ts, lng, lat) -> dict:
    """Latest-``warc_ts`` dedup per url, then a rectangle test per point.
    Key None = unmatched (no geocode or outside every region)."""
    url = np.asarray(url, dtype=object)
    order = np.lexsort((-np.asarray(warc_ts), url))
    first = np.ones(len(order), dtype=bool)
    first[1:] = url[order][1:] != url[order][:-1]
    keep = order[first]
    codes = region_of(np.asarray(lng)[keep], np.asarray(lat)[keep])
    out: dict = {}
    for c in codes:
        out[c] = out.get(c, 0) + 1
    return out


# ------------------------------------------------------------- footprints

def footprints(seed: int, n_fp: int, n_pts: int) -> dict:
    """Non-overlapping rectangular building footprints (one per lattice
    slot, a cluster of them around the hot cell) and points of which ~40%
    fall inside a footprint."""
    rng = np.random.default_rng([seed, 2])
    # one town per region plus one around the hot cell; each town is a
    # ±TOWN-slot square of the lattice
    towns = [(HOT_POINT[0], HOT_POINT[1])] + [
        (b[1] + 0.1 + 0.3 * rng.random(), b[2] + 0.1 + 0.3 * rng.random())
        for b in region_boxes()]
    slots: set = set()
    while len(slots) < n_fp:
        tx, ty = towns[int(rng.integers(0, len(towns)))]
        slots.add((int((tx - SLOT_ORIGIN[0]) / SLOT) + int(rng.integers(-TOWN, TOWN + 1)),
                   int((ty - SLOT_ORIGIN[1]) / SLOT) + int(rng.integers(-TOWN, TOWN + 1))))
    s = np.array(sorted(slots), dtype=np.int64)
    s = s[rng.permutation(len(s))]
    w = rng.uniform(0.3, 0.8, len(s)) * SLOT
    h = rng.uniform(0.3, 0.8, len(s)) * SLOT
    x0 = SLOT_ORIGIN[0] + s[:, 0] * SLOT + rng.random(len(s)) * (SLOT - w)
    y0 = SLOT_ORIGIN[1] + s[:, 1] * SLOT + rng.random(len(s)) * (SLOT - h)
    rect = np.round(np.stack([x0, y0, x0 + w, y0 + h], axis=1), 7)
    fid = np.arange(len(s), dtype=np.int64) * 7 + 1000

    lng, lat = _geocodes(rng, n_pts)
    # move 40% of all points into footprints, leaving the hot cell alone
    inside = (rng.random(n_pts) < 0.4 / (1 - HOT_FRAC)) & \
        ~in_hot_box(lng, lat)
    k = rng.integers(0, len(s), inside.sum())
    lng[inside] = rect[k, 0] + rng.uniform(0.05, 0.95, inside.sum()) * \
        (rect[k, 2] - rect[k, 0])
    lat[inside] = rect[k, 1] + rng.uniform(0.05, 0.95, inside.sum()) * \
        (rect[k, 3] - rect[k, 1])
    return {"fid": fid, "rect": rect, "slots": s,
            "pid": np.arange(n_pts, dtype=np.int64),
            "lng": lng, "lat": lat}


def footprint_tables(f: dict) -> tuple[pa.Table, pa.Table, pa.Table]:
    r = f["rect"]
    fps = pa.table({
        "fid": pa.array(f["fid"]),
        "geometry": pa.array([_wkb_rect(*row) for row in r], type=pa.binary()),
    })
    cents = pa.table({"fid": pa.array(f["fid"]),
                      "lng": (r[:, 0] + r[:, 2]) / 2,
                      "lat": (r[:, 1] + r[:, 3]) / 2})
    pts = pa.table({"pid": f["pid"], "lng": f["lng"], "lat": f["lat"]})
    return pts, fps, cents


def footprint_match_oracle(f: dict) -> np.ndarray:
    """fid of the footprint containing each point, -1 for none."""
    key = f["slots"][:, 0] * SLOT_NY * 10 + f["slots"][:, 1]
    order = np.argsort(key)
    skey = key[order]
    sx = np.floor((f["lng"] - SLOT_ORIGIN[0]) / SLOT).astype(np.int64)
    sy = np.floor((f["lat"] - SLOT_ORIGIN[1]) / SLOT).astype(np.int64)
    q = sx * SLOT_NY * 10 + sy
    pos = np.clip(np.searchsorted(skey, q), 0, len(skey) - 1)
    hit = skey[pos] == q
    j = order[pos]
    r = f["rect"][j]
    x, y = f["lng"], f["lat"]
    inside = hit & (x > r[:, 0]) & (x < r[:, 2]) & (y > r[:, 1]) & (y < r[:, 3])
    return np.where(inside, f["fid"][j], -1)


def knn_oracle(px, py, tx, ty, tid, k: int) -> np.ndarray:
    """Brute-force k nearest target ids per query point (rows: points)."""
    d = (px[:, None] - tx[None, :]) ** 2 + (py[:, None] - ty[None, :]) ** 2
    return tid[np.argsort(d, axis=1, kind="stable")[:, :k]]


# ------------------------------------------------------------------ cache

def write_files(table: pa.Table, out_dir: str, n_files: int):
    """Split ``table`` into ``n_files`` parquet files of one row group."""
    os.makedirs(out_dir, exist_ok=True)
    per = -(-table.num_rows // n_files)
    for k in range(n_files):
        pq.write_table(table.slice(k * per, per),
                       os.path.join(out_dir, f"part-{k:03d}.parquet"),
                       row_group_size=per)


def cached(cache_root: str, key: str, build) -> str:
    """Run ``build(tmp_dir)`` once per key; the key names workload, seed
    and size, so a different input never reuses a stale directory."""
    final = os.path.join(cache_root, key)
    if os.path.exists(os.path.join(final, "_DONE")):
        return final
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    with open(os.path.join(tmp, "_DONE"), "w") as fh:
        fh.write(key)
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    return final
