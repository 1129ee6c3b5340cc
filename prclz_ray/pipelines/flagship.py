"""Flagship pipeline: pages corpus → text extraction → geocode → S2 tile
assignment → PIP join vs admin regions → skew histogram → partitioned,
resumable output.

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
  → per-cell histogram → salt plan (skew evidence)
  → partitioned resumable write + manifest
"""
from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..geom import wkb
from ..index import s2, tiling
from ..stages.extract_text import extract_text_bytes


class PageParser:
    """Fused extract+geocode actor: ONE pass over the wide ``html`` column
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


def dedup_latest_by_url(ds, num_buckets: int = 64):
    """Exact url dedup, latest ``warc_ts`` wins (SURVEY §2.7 D6; the
    ``warc_ts`` tie-break rule of §2.10). Hash-partition groupby on the
    narrow post-extraction table.

    Scale note: grouping by raw ``url`` would cost one Python call per
    distinct url; instead urls hash into ``num_buckets`` coarse buckets
    (all rows of a url land in one bucket), and each bucket dedups
    vectorized (stable sort + drop_duplicates). At cluster scale raise
    ``num_buckets`` ≈ total cores so the shuffle stays balanced."""
    import pandas as pd

    def add_bucket(t: pa.Table) -> pa.Table:
        h = pd.util.hash_array(t["url"].to_numpy(zero_copy_only=False))
        return t.append_column(
            "_bucket", pa.array((h % num_buckets).astype(np.int32)))

    def dedup_bucket(df):
        df = df.sort_values(["url", "warc_ts"], ascending=[True, False],
                            kind="stable")
        return df.drop_duplicates("url", keep="first").drop(
            columns=["_bucket"])

    bucketed = ds.map_batches(add_bucket, batch_format="pyarrow",
                              zero_copy_batch=True)
    return bucketed.groupby("_bucket").map_groups(
        dedup_bucket, batch_format="pandas")


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


def duplicate_url_map(pages_ds, num_buckets: int = 64,
                      broadcast_limit_bytes: int | None = None):
    """Narrow pre-pass for dedup: over (url, warc_ts) ONLY — column-pruned
    at the parquet read — find urls appearing more than once and their max
    warc_ts. Returns (dup_map: dict[(h1, h2), max_ts], ties: bool).

    Scale rationale: exact dedup needs one shuffle keyed by url, but it only
    ever needs the KEY columns — and not even the strings: urls become a
    128-bit hash pair, so the shuffle moves fixed-width ints. The groupby
    key is a COARSE bucket (all rows of a url share a bucket), because Ray's
    per-group machinery is pathological at per-url cardinality; inside each
    bucket one vectorized pandas groupby finds dup urls, their max warc_ts
    and whether that max is tied. The dup map (dup_rate × n rows) is
    broadcast via ray.put; at cluster scale raise num_buckets ≈ total
    cores.

    ``broadcast_limit_bytes`` guards the DRIVER-side dict: the grouped dup
    table is counted distributed (object-store materialize, spillable)
    BEFORE anything lands on the driver, and if the estimated dict size
    exceeds the budget the function returns ``(None, True)`` — the caller
    must fall back to the one-shuffle grouped dedup.  At 10¹² pages with
    tens-of-% duplication the dup map is billions of entries; without the
    guard the driver OOMs."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        t = _url_hash_cols(batch.select(["url", "warc_ts"]))
        t = t.select(["_h1", "_h2", "warc_ts"])
        # epoch-us int64 ARROW-side so the pandas groupby below operates on
        # plain ints regardless of the stack's timestamp-unit coercions
        t = t.set_column(t.schema.get_field_index("warc_ts"), "warc_ts",
                         t["warc_ts"].cast(pa.timestamp("us")).cast(pa.int64()))
        bucket = (t["_h1"].to_numpy(zero_copy_only=False) %
                  np.uint64(num_buckets)).astype(np.int32)
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

    grouped = pages_ds.select_columns(["url", "warc_ts"]) \
        .map_batches(partial, batch_format="pyarrow") \
        .groupby("_bucket").map_groups(combine, batch_format="pandas")
    if broadcast_limit_bytes is not None:
        grouped = grouped.materialize()   # dup-key-sized, spillable
        # ~200 B per python dict entry (tuple key of two u64 + int value)
        if grouped.count() * 200 > broadcast_limit_bytes:
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
                                     level: int = s2.DEFAULT_LEVEL,
                                     num_buckets: int = 64):
    """Single-execution flagship: ONE fused read→parse→tile→PIP operator
    emitting only narrow columns (url-hash pair, warc_ts, cell, gadm_code),
    then url dedup + counting in a bucketed groupby over that narrow
    stream.

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

    def fused(batch: pa.Table) -> pa.Table:
        out = _cached("page_parser", PageParser)(batch)
        out = tiling.assign_cells_batch(out, "lng", "lat", level)
        joiner = _cached(("pip", ref.hex()), lambda: PIPJoiner(
            ref, "lng", "lat", "gadm_code", "left"))
        out = joiner(out)
        out = _url_hash_cols(out)
        ts = out["warc_ts"].cast(pa.timestamp("us")).cast(pa.int64())
        h1 = out["_h1"].to_numpy(zero_copy_only=False)
        return pa.table({
            "_h1": out["_h1"], "_h2": out["_h2"], "_ts": ts,
            "cell": out["cell"], "gadm_code": out["gadm_code"],
            "_bucket": pa.array((h1 % np.uint64(num_buckets))
                                .astype(np.int32)),
        })

    narrow = pages_ds.map_batches(fused, batch_format="pyarrow",
                                  zero_copy_batch=True)
    # checkpoint the narrow stream before the groupby: when a trailing
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

    # cross-bucket combine: the grouped stage emits ≤ num_buckets × regions
    # rows (64 × |regions| here) — bounded by construction, NOT by input
    # size, so the driver-side sum stays O(regions) at any corpus scale
    parts = narrow.groupby("_bucket").map_groups(
        dedup_count, batch_format="pandas").to_pandas()
    out = parts.groupby("gadm_code", dropna=False, as_index=False)[
        "n_pages"].sum()
    out["gadm_code"] = out["gadm_code"].astype(object)
    return out


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


# Per-worker-process state cache for task-based stages. Ray Data actors are
# (re)spawned per dataset execution, so an actor pool pays actor startup +
# state build on the critical path of EVERY run — for cheap state (compiled
# regexes, a broadcast STRtree pack) that cost dominates the work. Plain
# map_batches tasks run in long-lived worker processes; caching the stage
# object in a module global gives actor-pool semantics (build once per
# worker, reuse per batch) with zero pool-scheduling overhead. Use real
# actor pools only when state is genuinely expensive (models, big
# indexes) or must not be shared across concurrent stages.
_WORKER_STATE: dict = {}


def _cached(key, build):
    obj = _WORKER_STATE.get(key)
    if obj is None:
        # keep only the newest state per stage kind (key[0]): broadcast
        # packs are keyed by per-run ObjectRef, so without eviction a
        # long-lived worker accumulates one pack per pipeline run
        kind = key[0] if isinstance(key, tuple) else key
        for k in [k for k in _WORKER_STATE
                  if (k[0] if isinstance(k, tuple) else k) == kind]:
            del _WORKER_STATE[k]
        obj = _WORKER_STATE[key] = build()
    return obj


def run_flagship(pages_ds, regions_tbl: pa.Table, level: int = s2.DEFAULT_LEVEL,
                 out_dir: str | None = None, salt_threshold: int = 50_000,
                 narrow_pages_ds=None,
                 dedup_broadcast_limit_bytes: int = 256 << 20):
    """Returns (joined_ds, info dict). joined_ds streams; nothing is
    materialized except the small per-cell histogram (and the optional
    resumable write consumes the stream).

    Url dedup runs the narrow url pre-pass + broadcast-filter (the wide
    stream never shuffles).  The broadcast dup map is size-guarded by
    ``dedup_broadcast_limit_bytes`` (counted distributed in the pre-pass,
    BEFORE anything driver-sized exists): past the budget, or when a url's
    latest warc_ts is tied, the pipeline falls back to the one-shuffle
    grouped dedup automatically — at CC-realistic
    duplication rates on 10¹² pages the dup map would be a
    tens-of-billions-entry driver dict.  ``info["dedup_path"]`` records
    which path ran.

    The broadcast path hand-fuses parse → dedup-filter → cell-assign → PIP
    into ONE map_batches function: every stage is per-row, so splitting
    them into separate operators would only add object-store round-trips
    of the wide text column between them. Stage state (compiled parser,
    broadcast dup map, broadcast STRtree pack) is built once per worker
    process via the module-level cache.

    No map sets batch_size on purpose: an explicit batch_size blocks Ray's
    read→map operator fusion, and unfused the raw ``html`` blocks (10-100×
    the useful payload) transit the object store — at corpus scale that
    spills. Fused, html lives only inside the read+parse task."""
    import ray

    from ..stages.joins import PIPJoiner, _polygon_pack

    # narrow_pages_ds: a (url, warc_ts)-only read of the same corpus.
    # Ray does not push select_columns into the parquet scan, so without
    # it the pre-pass would decode the html column just to drop it.
    dup_map, ties = duplicate_url_map(
        pages_ds if narrow_pages_ds is None else narrow_pages_ds,
        broadcast_limit_bytes=dedup_broadcast_limit_bytes)

    ref = ray.put(_polygon_pack(regions_tbl, "gadm_code"))

    def pip(batch: pa.Table) -> pa.Table:
        joiner = _cached(("pip", ref.hex()), lambda: PIPJoiner(
            ref, "lng", "lat", "gadm_code", "left"))
        return joiner(batch)

    if ties:
        parsed = pages_ds.map_batches(
            lambda b: _cached("page_parser", PageParser)(b),
            batch_format="pyarrow", zero_copy_batch=True)
        tiled = assign_cells(dedup_latest_by_url(parsed), level)
        joined = tiled.map_batches(pip, batch_format="pyarrow",
                                   zero_copy_batch=True)
    else:
        dref = ray.put(dup_map) if dup_map else None

        def fused(batch: pa.Table) -> pa.Table:
            out = _cached("page_parser", PageParser)(batch)
            if dref is not None:
                dmap, h1arr = _cached(("dup", dref.hex()),
                                      lambda: _dup_state(dref))
                out = _url_hash_cols(out)
                out = _filter_latest(out, dmap, h1arr)
                out = out.drop_columns(["_h1", "_h2"])
            out = tiling.assign_cells_batch(out, "lng", "lat", level)
            return pip(out)

        joined = pages_ds.map_batches(fused, batch_format="pyarrow",
                                      zero_copy_batch=True)

    info: dict = {"level": level,
                  "dedup_path": "grouped" if ties else "broadcast"}
    if out_dir is not None:
        from ..runtime import checkpoint
        hist = tiling.cell_histogram(joined).to_pandas()
        plan = tiling.salt_plan(
            pa.Table.from_pandas(hist), threshold=salt_threshold)
        info["hot_cells"] = plan
        info["n_cells"] = len(hist)
        # partition by region for the resumable sink (cells per region are
        # contiguous; region is the operator-friendly partition size here)
        sink = joined.map_batches(
            lambda t: t.set_column(
                t.schema.get_field_index("gadm_code"), "gadm_code",
                pc.fill_null(t["gadm_code"], "UNMATCHED")),
            batch_format="pyarrow")
        info["write"] = checkpoint.write_partitioned_resumable(
            sink, out_dir, "gadm_code")
    return joined, info
