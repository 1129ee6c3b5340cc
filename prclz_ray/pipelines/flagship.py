"""Flagship pipeline: pages corpus → text extraction → geocode → S2 tile
assignment → PIP join vs admin regions → partitioned, resumable output
with the skew histogram taken from the write.

This is the north-star headline workload (BASELINE.json metric:
"spatial-join + tile-assignment throughput (rows/sec) ... byte-identical
per-url text"). Every stage is a streaming Ray Data transform:

  read_parquet(pages)                              (column-pruned scan)
  → PageParser (one pass over html:                text + lat/lng + footprint,
    html projected away immediately — SURVEY §7.5.6)
  → url dedup, latest warc_ts wins                 (narrow-table shuffle AFTER
    html is dropped; dedup of the wide column is never shuffled)
  → S2 cell assign (vectorized encode)
  → PIP join vs broadcast regions (STRtree per worker)
  → partitioned resumable write + manifest, whose groups also count
    their cells → per-cell histogram → salt plan (skew evidence)
"""
from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..geom import wkb
from ..index import s2, tiling
from ..stages import relational, util
from ..stages.extract_text import extract_text_bytes
from ..stages.util import worker_cached


class PageParser:
    """Fused extract+geocode stage: ONE pass over the wide ``html`` column
    producing text (byte-identical per url — the shared pure
    ``extract_text_bytes``), lat/lng and the optional footprint — then
    drops html so no later stage carries it."""

    def __init__(self, keep_footprint: bool = True):
        self.geo = re.compile(rb'<meta name="geo" content="([-0-9.]+);([-0-9.]+)"')
        self.ring = re.compile(rb'<div id="footprint" data-ring="([-0-9. ]+)"')
        self.keep_footprint = keep_footprint

    def __call__(self, batch: pa.Table) -> pa.Table:
        htmls = batch["html"].to_pylist()
        n = len(htmls)
        texts = [""] * n
        lat = np.full(n, np.nan)
        lng = np.full(n, np.nan)
        rings: list = [None] * n
        for i in range(n):
            h = htmls[i]
            texts[i] = extract_text_bytes(h)
            m = self.geo.search(h)
            if m:
                lat[i] = float(m.group(1))
                lng[i] = float(m.group(2))
            if self.keep_footprint:
                r = self.ring.search(h)
                if r:
                    vals = np.array(r.group(1).split(), dtype=np.float64)
                    rings[i] = wkb.polygon(vals.reshape(-1, 2))
        out = batch.drop_columns(["html"])
        out = out.append_column("text_extracted", pa.array(texts, type=pa.string()))
        out = out.append_column("lat", pa.array(lat))
        out = out.append_column("lng", pa.array(lng))
        if self.keep_footprint:
            out = out.append_column("footprint", pa.array(rings, type=pa.binary()))
        return out


def dedup_latest_by_url(ds):
    """Exact url dedup, latest ``warc_ts`` wins (SURVEY §2.7 D6; the
    ``warc_ts`` tie-break rule of §2.10). Hash-partitioned shuffle on the
    narrow post-extraction table.

    Scale note: sorting on raw ``url`` would shuffle strings; instead
    ``relational.bucket_shuffle`` hashes urls into
    ``relational.NUM_BUCKETS`` coarse buckets (all rows of a url land in
    one bucket, and every row of a bucket in one block), and each
    shuffled block dedups vectorized (stable sort + drop_duplicates) in
    one call, whatever number of buckets it holds.  The exchange has
    min(NUM_BUCKETS, max(2, CPUs)) reducers, each merging about 1/R of
    the rows into one block."""
    def dedup_bucket(df):
        df = df.sort_values(["url", "warc_ts"], ascending=[True, False],
                            kind="stable")
        return df.drop_duplicates("url", keep="first")

    return relational.bucket_shuffle(ds, "url", dedup_bucket)


_HASH_KEY_1 = "0123456789abcdef"
_HASH_KEY_2 = "fedcba9876543210"


def _url_hash_cols(batch: pa.Table, url_col: str = "url") -> pa.Table:
    """Append two independent u64 url hashes (=128-bit key, collision-safe
    at 10^12 rows) — vectorized, no string shuffling downstream."""
    import pandas as pd
    urls = batch[url_col].to_numpy(zero_copy_only=False)
    h1 = pd.util.hash_array(urls, hash_key=_HASH_KEY_1)
    h2 = pd.util.hash_array(urls, hash_key=_HASH_KEY_2)
    out = batch.append_column("_h1", pa.array(h1))
    return out.append_column("_h2", pa.array(h2))


def duplicate_url_map(pages_ds):
    """Narrow pre-pass for dedup: over (url, warc_ts) ONLY — column-pruned
    at the parquet read — find urls appearing more than once and their max
    warc_ts. Returns (dup_map: dict[(h1, h2), max_ts], ties: bool).

    Scale rationale: exact dedup needs one shuffle keyed by url, but it only
    ever needs the KEY columns — and not even the strings: urls become a
    128-bit hash pair, so the shuffle moves fixed-width ints. The sort
    key is a COARSE bucket, ``_h1 % relational.NUM_BUCKETS`` (all rows of
    a url share a bucket, and the sort puts every row of a bucket in one
    block); per shuffled block one vectorized pandas groupby finds dup
    urls, their max warc_ts and whether that max is tied. The bucket sort
    (``relational.sort_buckets``) has R = min(NUM_BUCKETS, max(2, CPUs))
    reducers, each merging about 1/R of the hashed rows into one block.
    The dup map (dup_rate × n rows) is broadcast via ray.put.

    ``util.BROADCAST_LIMIT_BYTES`` guards the DRIVER-side dict: the grouped
    dup table is counted distributed (object-store materialize, spillable)
    BEFORE anything lands on the driver, and if the estimated dict size
    exceeds the budget the function returns ``(None, True)`` — the caller
    must fall back to the one-shuffle grouped dedup.  At 10¹² pages with
    tens-of-% duplication the dup map is billions of entries; without the
    guard the driver OOMs."""
    import pandas as pd
    nb = relational.NUM_BUCKETS

    def partial(batch: pa.Table) -> pa.Table:
        t = _url_hash_cols(batch.select(["url", "warc_ts"]))
        t = t.select(["_h1", "_h2", "warc_ts"])
        # epoch-us int64 ARROW-side so the pandas groupby below operates on
        # plain ints regardless of the stack's timestamp-unit coercions
        t = t.set_column(t.schema.get_field_index("warc_ts"), "warc_ts",
                         t["warc_ts"].cast(pa.timestamp("us")).cast(pa.int64()))
        bucket = (t["_h1"].to_numpy(zero_copy_only=False) %
                  np.uint64(nb)).astype(np.int32)
        return t.append_column("_bucket", pa.array(bucket))

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["_h1", "_h2"], sort=False)["warc_ts"] \
            .agg(n="size", max_ts="max").reset_index()
        g = g[g["n"] > 1]
        if g.empty:
            return pd.DataFrame({"_h1": pd.Series(dtype=np.uint64),
                                 "_h2": pd.Series(dtype=np.uint64),
                                 "max_ts": pd.Series(dtype=np.int64),
                                 "n_at_max": pd.Series(dtype=np.int64)})
        d = df.merge(g[["_h1", "_h2", "max_ts"]], on=["_h1", "_h2"])
        d = d[d["warc_ts"] == d["max_ts"]]
        nm = d.groupby(["_h1", "_h2"], sort=False).size().rename("n_at_max")
        out = g.merge(nm.reset_index(), on=["_h1", "_h2"])
        return out[["_h1", "_h2", "max_ts", "n_at_max"]]

    hashed = pages_ds.select_columns(["url", "warc_ts"]) \
        .map_batches(partial, batch_format="pyarrow")
    grouped = relational.sort_buckets(hashed, "_bucket", nb) \
        .map_batches(combine, batch_format="pandas", batch_size=None)
    grouped = grouped.materialize()   # dup-key-sized, spillable
    # ~200 B per python dict entry (tuple key of two u64 + int value)
    if grouped.count() * 200 > util.BROADCAST_LIMIT_BYTES:
        return None, True
    res = grouped.to_pandas()
    if res.empty:
        # no url repeats: every bucket emitted an empty frame, and Ray
        # hands those back with no columns at all
        return {}, False
    # values as int64 epoch-us so the filter compares numpy ints, not
    # python datetimes
    dup_map = dict(zip(zip(res["_h1"].astype(np.uint64),
                           res["_h2"].astype(np.uint64)),
                       res["max_ts"].astype("int64")))
    ties = bool((res["n_at_max"] > 1).any())
    return dup_map, ties


def _dup_state(ref):
    """Worker-cached broadcast state: the dup map + a u64 probe array for
    the vectorized prefilter."""
    import ray
    dmap = ray.get(ref)
    h1arr = np.fromiter((k[0] for k in dmap), dtype=np.uint64,
                        count=len(dmap))
    return dmap, h1arr


def _filter_latest(batch: pa.Table, dmap: dict,
                   h1arr: np.ndarray) -> pa.Table:
    """Keep rows that are not duplicated, or are at their url's max
    warc_ts."""
    h1 = batch["_h1"].to_numpy(zero_copy_only=False).astype(np.uint64)
    h2 = batch["_h2"].to_numpy(zero_copy_only=False).astype(np.uint64)
    ts = batch["warc_ts"].cast(pa.timestamp("us")).cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    mask = np.ones(len(h1), dtype=bool)
    # vectorized prefilter: only probe the dict for plausible dups
    for i in np.flatnonzero(np.isin(h1, h1arr)):
        m = dmap.get((h1[i], h2[i]))
        if m is not None:
            mask[i] = ts[i] == m
    return batch.filter(pa.array(mask))


def flagship_region_counts_streaming(pages_ds, regions_tbl: pa.Table,
                                     level: int = s2.DEFAULT_LEVEL):
    """Single-execution flagship: ONE fused read→parse→tile→PIP operator
    emitting only narrow columns (url-hash pair, warc_ts, cell, gadm_code),
    then url dedup + counting per block of a url-bucket sort over that
    narrow stream, bucketed by ``_h1 % relational.NUM_BUCKETS``.  The
    sort (``relational.sort_buckets``) has R = min(NUM_BUCKETS, max(2,
    CPUs)) reducers over known bucket ranges, each merging about 1/R of
    the narrow rows into one block: the fan-out follows the cluster, not
    the html read's block count.

    Dedup AFTER the join is exact for latest-wins semantics: every row
    carries its own join result, so keeping the max-warc_ts row per url
    keeps that row's tile/region assignment — and the shuffle moves ~40
    bytes/row instead of the page payload. No pre-pass, no barrier before
    the heavy operator; this is the shape of the pipeline at 100 TB.
    Ties on (url, max_ts) break deterministically by (gadm, cell)."""
    import pandas as pd
    import ray

    from ..stages.joins import PIPJoiner, _polygon_pack

    ref = ray.put(_polygon_pack(regions_tbl, "gadm_code"))
    nb = relational.NUM_BUCKETS

    def fused(batch: pa.Table) -> pa.Table:
        out = worker_cached("page_parser", PageParser)(batch)
        out = tiling.assign_cells_batch(out, "lng", "lat", level)
        joiner = worker_cached(("pip", ref.hex()), lambda: PIPJoiner(
            ref, "lng", "lat", "gadm_code", "left"))
        out = joiner(out)
        out = _url_hash_cols(out)
        ts = out["warc_ts"].cast(pa.timestamp("us")).cast(pa.int64())
        h1 = out["_h1"].to_numpy(zero_copy_only=False)
        return pa.table({
            "_h1": out["_h1"], "_h2": out["_h2"], "_ts": ts,
            "cell": out["cell"], "gadm_code": out["gadm_code"],
            "_bucket": pa.array((h1 % np.uint64(nb)).astype(np.int32)),
        })

    narrow = pages_ds.map_batches(fused, batch_format="pyarrow",
                                  zero_copy_batch=True)
    # checkpoint the narrow stream before the shuffle: when a trailing
    # all-to-all op shares an execution with the heavy map, Ray's operator
    # resource reservation parks ~half the CPUs on the (mostly idle)
    # shuffle — measured 2.9/8 busy cores. Materializing ~40 B/row splits
    # the work into two full-width executions; at cluster scale this is the
    # shuffle's input spill, not a driver copy.
    narrow = narrow.materialize()

    def dedup_count(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["_h1", "_h2", "_ts", "gadm_code", "cell"],
                           ascending=[True, True, False, True, True],
                           kind="stable")
        d = d.drop_duplicates(["_h1", "_h2"], keep="first")
        vc = d["gadm_code"].value_counts(dropna=False)
        keys = [None if pd.isna(k) else k for k in vc.index]
        return pd.DataFrame({"gadm_code": pd.array(keys, dtype="string"),
                             "n_pages": vc.values.astype(np.int64)})

    # cross-block combine: the sort puts every row of a url bucket in one
    # block, and each block emits ≤ |regions| rows, so the driver sums
    # ≤ R × |regions| rows — bounded by construction, NOT by input size:
    # O(regions) at any corpus scale
    parts = relational.sort_buckets(narrow, "_bucket", nb) \
        .map_batches(dedup_count, batch_format="pandas",
                     batch_size=None).to_pandas()
    out = parts.groupby("gadm_code", dropna=False, as_index=False)[
        "n_pages"].sum()
    out["gadm_code"] = out["gadm_code"].astype(object)
    return out


def _first_region_per_page(t: pa.Table) -> pa.Table:
    """One row per page (url; both dedup paths leave one page per url):
    of the regions a page's point falls in, keep the smallest
    ``gadm_code``, the tie-break of ``flagship_region_counts_streaming``."""
    t = t.take(pc.sort_indices(t, [("url", "ascending"),
                                   ("gadm_code", "ascending")]))
    first = np.ones(t.num_rows, dtype=bool)
    first[1:] = pc.not_equal(t["url"][1:], t["url"][:-1]).to_numpy(
        zero_copy_only=False)
    return t.filter(pa.array(first))


def region_counts(joined, key: str = "gadm_code",
                  out_col: str = "n_pages"):
    """Per-region page counts: partial value_counts inside map_batches, then
    a tiny driver-side reduce — the combiner-before-groupby pattern (SURVEY
    §2.5 A8). The shuffled payload is (distinct keys × blocks), not rows."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        vc = pd.Series(batch[key].to_pandas()).value_counts(dropna=False)
        keys = [None if pd.isna(k) else k for k in vc.index]
        return pa.table({key: pa.array(keys, type=pa.string()),
                         out_col: pa.array(vc.values.astype(np.int64))})

    parts = joined.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = parts.groupby(key, dropna=False, as_index=False)[out_col].sum()
    return out


def assign_cells(ds, level: int = s2.DEFAULT_LEVEL):
    return ds.map_batches(
        lambda b: tiling.assign_cells_batch(b, "lng", "lat", level),
        batch_format="pyarrow", zero_copy_batch=True)


def run_flagship(pages_ds, regions_tbl: pa.Table, level: int = s2.DEFAULT_LEVEL,
                 out_dir: str | None = None, salt_threshold: int = 50_000,
                 narrow_pages_ds=None):
    """Returns (joined_ds, info dict). joined_ds streams; nothing is
    materialized. With ``out_dir`` the resumable write consumes the stream
    once, and the per-cell histogram behind ``info["hot_cells"]`` and
    ``info["n_cells"]`` is a by-product of that write (each region group
    counts its cells, written or skipped), not a pass of its own — so a
    fresh write parses every page once.

    ``runtime.checkpoint.open_resumable`` fingerprints the input files'
    paths, sizes and mtimes, ``level`` and ``regions_tbl``, and the
    finished write seals the directory with it. A rerun whose fingerprint matches a seal whose
    partitions are all still committed executes nothing: ``info`` comes
    from the seal and the stored histogram (``hot_cells`` with this call's
    ``salt_threshold``), and ``joined`` reads the committed partitions
    back. Any other rerun takes the full path and skips committed
    partitions; one over a directory committed from different input raises
    ``ValueError``. ``info["resume"]`` says which path ran: ``"fresh"``
    (nothing committed), ``"partial"`` (some partitions committed, no valid
    seal) or ``"sealed"``. Input with no local files (``from_arrow``) has
    no fingerprint and is never sealed.

    Url dedup runs the narrow url pre-pass + broadcast-filter (the wide
    stream never shuffles).  The broadcast dup map is size-guarded by
    ``util.BROADCAST_LIMIT_BYTES`` (counted distributed in the pre-pass,
    BEFORE anything driver-sized exists): past the budget, or when a url's
    latest warc_ts is tied, the pipeline falls back to the one-shuffle
    grouped dedup automatically — at CC-realistic
    duplication rates on 10¹² pages the dup map would be a
    tens-of-billions-entry driver dict.  ``info["dedup_path"]`` records
    which path ran.  On either path a page whose point lies on an edge
    two regions share is kept once, in the smallest ``gadm_code`` (the
    streaming job's tie-break).

    The broadcast path hand-fuses parse → dedup-filter → cell-assign → PIP
    into ONE map_batches function: every stage is per-row, so splitting
    them into separate operators would only add object-store round-trips
    of the wide text column between them. Stage state (compiled parser,
    broadcast dup map, broadcast STRtree pack) is built once per worker
    process via ``stages.util.worker_cached``.

    No map sets batch_size on purpose: an explicit batch_size blocks Ray's
    read→map operator fusion, and unfused the raw ``html`` blocks (10-100×
    the useful payload) transit the object store — at corpus scale that
    spills. Fused, html lives only inside the read+parse task."""
    import ray

    from ..runtime import checkpoint
    from ..stages.joins import PIPJoiner, _polygon_pack

    info: dict = {"level": level}
    if out_dir is not None:
        fp, sealed = checkpoint.open_resumable(
            out_dir, pages_ds.input_files(), level, regions_tbl)
        if sealed is not None:
            seal, cells = sealed
            info.update(dedup_path=seal["dedup_path"], resume="sealed",
                        write={"written": 0, "skipped": len(seal["keys"]),
                               "rows": 0},
                        hot_cells=tiling.salt_plan(cells,
                                                   threshold=salt_threshold),
                        n_cells=cells.num_rows)
            return checkpoint.read_resumable(out_dir), info
        info["resume"] = ("partial" if checkpoint.committed_keys(out_dir)
                          else "fresh")

    # narrow_pages_ds: a (url, warc_ts)-only read of the same corpus.
    # Ray does not push select_columns into the parquet scan, so without
    # it the pre-pass would decode the html column just to drop it.
    dup_map, ties = duplicate_url_map(
        pages_ds if narrow_pages_ds is None else narrow_pages_ds)

    ref = ray.put(_polygon_pack(regions_tbl, "gadm_code"))

    def pip(batch: pa.Table) -> pa.Table:
        joiner = worker_cached(("pip", ref.hex()), lambda: PIPJoiner(
            ref, "lng", "lat", "gadm_code", "left"))
        out = joiner(batch)
        # a left join emits more rows than pages only where a page sits
        # on an edge two regions share
        return out if out.num_rows == batch.num_rows else \
            _first_region_per_page(out)

    if ties:
        parsed = pages_ds.map_batches(
            lambda b: worker_cached("page_parser", PageParser)(b),
            batch_format="pyarrow", zero_copy_batch=True)
        tiled = assign_cells(dedup_latest_by_url(parsed), level)
        joined = tiled.map_batches(pip, batch_format="pyarrow",
                                   zero_copy_batch=True)
    else:
        dref = ray.put(dup_map) if dup_map else None

        def fused(batch: pa.Table) -> pa.Table:
            out = worker_cached("page_parser", PageParser)(batch)
            if dref is not None:
                dmap, h1arr = worker_cached(("dup", dref.hex()),
                                            lambda: _dup_state(dref))
                out = _url_hash_cols(out)
                out = _filter_latest(out, dmap, h1arr)
                out = out.drop_columns(["_h1", "_h2"])
            out = tiling.assign_cells_batch(out, "lng", "lat", level)
            return pip(out)

        joined = pages_ds.map_batches(fused, batch_format="pyarrow",
                                      zero_copy_batch=True)

    info["dedup_path"] = "grouped" if ties else "broadcast"
    if out_dir is not None:
        # partition by region for the resumable sink (cells per region are
        # contiguous; region is the operator-friendly partition size here)
        sink = joined.map_batches(
            lambda t: t.set_column(
                t.schema.get_field_index("gadm_code"), "gadm_code",
                pc.fill_null(t["gadm_code"], "UNMATCHED")),
            batch_format="pyarrow")
        write = checkpoint.write_partitioned_resumable(
            sink, out_dir, "gadm_code", fp, count_col="cell",
            dedup_path=info["dedup_path"])
        hist = pa.Table.from_pandas(write.pop("counts"), preserve_index=False)
        info["hot_cells"] = tiling.salt_plan(hist, threshold=salt_threshold)
        info["n_cells"] = hist.num_rows
        info["write"] = write
    return joined, info
