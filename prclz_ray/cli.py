"""CLI entry points — `python -m prclz_ray <cmd>` / `ray job submit -- python -m prclz_ray <cmd>`.

Reference parity (SURVEY §2.9, prclz ``cli.py:13-127``): the reference's
seven click subcommands map as

  download / extract      → `synth` (no network in-engine: the deterministic
                            corpus generator replaces the GADM/Geofabrik
                            fetch+ogr2ogr steps, FIXTURES.md)
  split-buildings         → `split-buildings` (PIP join + partitioned write)
  blocks / parcels /
  complexity / reblock    → same names, parquet-in → parquet-out
  (new)                   → `flagship` (pages corpus → extract → dedup →
                            tile → PIP join → resumable partitioned write)

Knob parity: `--gadm-level`, `--overwrite`, `--use-width`, `--simplify`
(reblock `--connect-n` → `--through-ratio`), `--blocks` subset = predicate
pushdown on the partition key (``cli.py:94``).

Each command owns its Ray session (guarded init; the driver/library never
calls ray.init).
"""
from __future__ import annotations

import argparse
import os
import shutil
import sys


_OWNS_RAY = False


def _init_ray():
    global _OWNS_RAY
    import ray
    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
        _OWNS_RAY = True


def _read(path: str, columns=None):
    import ray.data as rd
    return rd.read_parquet(path, columns=columns)


def _write(ds, out: str, overwrite: bool):
    import pandas as pd
    import pyarrow as pa
    if os.path.exists(out):
        if not overwrite:
            print(f"skip: {out} exists (use --overwrite)", file=sys.stderr)
            return
        # Ray's write_parquet appends uuid-named files; an --overwrite
        # rerun must not leave stale files mixed with new ones
        shutil.rmtree(out)
    if isinstance(ds, (pd.DataFrame, pa.Table)):
        import pyarrow.parquet as pq
        tbl = pa.Table.from_pandas(ds) if isinstance(ds, pd.DataFrame) else ds
        os.makedirs(out, exist_ok=True)
        pq.write_table(tbl, os.path.join(out, "data.parquet"))
    else:
        ds.write_parquet(out)
    print(f"wrote {out}")


# parsed args that do not change the rows a command writes
_UNFINGERPRINTED = {"fn", "out", "overwrite", "resume", "qc"}


class _Resume:
    """``--resume`` (the reference's --progress ledger,
    split_buildings.py:87-118): the output commits per ``key`` to the
    manifest in ``a.out`` and is sealed when the write finishes. One
    output directory holds one (input, flags) run: the fingerprint covers
    every file under ``inputs`` and every parsed flag outside
    ``_UNFINGERPRINTED``, so a rerun over other input or flags raises
    ``ValueError`` instead of keeping stale partitions.

    A sealed rerun prints its summary here and executes nothing (the
    command returns when ``done``). Otherwise ``keep`` drops committed
    keys from the input before any compute and ``write`` commits the
    rest."""

    def __init__(self, a, key: str, *inputs: str):
        from .runtime import checkpoint
        self.out, self.key = a.out, key
        flags = sorted((k, v) for k, v in vars(a).items()
                       if k not in _UNFINGERPRINTED)
        self.fp, sealed = checkpoint.open_resumable(a.out, inputs, flags)
        self.done = sealed is not None
        if self.done:
            self._report({"written": 0, "skipped": len(sealed[0]["keys"]),
                          "rows": 0})

    def keep(self, ds):
        from .runtime import checkpoint
        return checkpoint.filter_uncommitted(ds, self.out, self.key)

    def write(self, ds):
        from .runtime import checkpoint
        self._report(checkpoint.write_partitioned_resumable(
            ds, self.out, self.key, self.fp))

    @staticmethod
    def _report(info):
        print(f"resume write: {info['written']} partitions written, "
              f"{info['skipped']} skipped, {info['rows']} rows")


def _stage(a, build, *inputs):
    """A per-block stage command: ``build(blocks)`` over ``--blocks``
    (after ``--blocks-subset``) writes to ``a.out``; with ``--resume``
    through ``_Resume``, whose fingerprint also covers ``inputs``."""
    r = _Resume(a, "block_id", a.blocks, *inputs) if a.resume else None
    if r is not None and r.done:
        return
    blocks = _filter_blocks(_read(a.blocks), a.blocks_subset)
    if r is None:
        _write(build(blocks), a.out, a.overwrite)
    else:
        r.write(build(r.keep(blocks)))


def _filter_blocks(ds, subset):
    if not subset:
        return ds
    wanted = set(subset.split(","))

    def f(batch):
        import pyarrow as pa
        mask = [b in wanted for b in batch["block_id"].to_pylist()]
        return batch.filter(pa.array(mask))
    return ds.map_batches(f, batch_format="pyarrow")


def cmd_synth(a):
    from .io import synth
    _init_ray()
    paths = synth.write_fixture_tables(a.out, n_pages=a.n_pages)
    print(paths)


def cmd_split_buildings(a):
    """J3: buildings ⋈ regions (PIP on centroid) → parquet partitioned by
    gadm_code — the reference's file-shard step as one shuffle-partitioned
    write (``etl/_split_buildings.py:58-70``)."""
    from .stages.joins import pip_join
    from .stages.relational import ds_to_table
    _init_ray()
    import pyarrow as pa

    from .geom.core import ring_centroid
    from .geom import wkb as _wkb

    bldgs = _read(a.buildings)

    def centroid(batch: pa.Table) -> pa.Table:
        xs, ys = [], []
        for buf in batch["geometry"].to_pylist():
            t, v = _wkb.decode(buf)
            ring = v[0] if t == _wkb.POLYGON else v[0][0]
            cx, cy = ring_centroid(ring)
            xs.append(cx)
            ys.append(cy)
        out = batch.append_column("cx", pa.array(xs))
        return out.append_column("cy", pa.array(ys))

    pts = bldgs.map_batches(centroid, batch_format="pyarrow")
    regions = ds_to_table(_read(a.regions))
    joined = pip_join(pts, regions.select(["gadm_code", "geometry"]),
                      id_col="gadm_code", x_col="cx", y_col="cy",
                      how="left", out_id_col="gadm_assigned")
    if os.path.exists(a.out):
        if not a.overwrite:
            print(f"skip: {a.out} exists", file=sys.stderr)
            return
        shutil.rmtree(a.out)
    joined.write_parquet(a.out, partition_cols=["gadm_assigned"])
    print(f"wrote {a.out}")


def cmd_blocks(a):
    from .stages.blocks import (BufferedLineDifference,
                                IntersectionPolygonization, extract_blocks)
    _init_ray()
    method = (BufferedLineDifference(a.epsilon) if a.method == "buffered"
              else IntersectionPolygonization())
    out = extract_blocks(_read(a.regions), _read(a.lines), method=method)
    _write(out, a.out, a.overwrite)


def cmd_parcels(a):
    from .stages.parcels import check_parcels_qc, parcels_pipeline
    _init_ray()
    _stage(a, lambda blocks: parcels_pipeline(
        blocks, _read(a.buildings), method=a.tessellation), a.buildings)
    if a.qc:
        # J6/A4 QC invariant (ref _parcels.py:218-237): ≤1 building/parcel
        if a.resume:
            from .runtime import checkpoint
            written = checkpoint.read_resumable(a.out)
        else:
            written = _read(a.out)
        bad = check_parcels_qc(written, _read(a.buildings)).to_pandas()
        if len(bad):
            print(f"QC FAIL: {len(bad)} parcels contain >1 building",
                  file=sys.stderr)
            sys.exit(3)
        print("QC pass: every parcel contains ≤1 building")


def cmd_complexity(a):
    from .stages.complexity import complexity_pipeline
    _init_ray()
    _stage(a, lambda blocks: complexity_pipeline(blocks, _read(a.buildings)),
           a.buildings)


def cmd_reblock(a):
    from .stages.reblock import reblock_pipeline
    _init_ray()
    _stage(a, lambda blocks: reblock_pipeline(
        blocks, _read(a.parcels), _read(a.buildings),
        use_width=a.use_width, through_ratio=a.through_ratio,
        connect_n=a.connect_n, simplify=a.simplify,
        to_corridors=a.to_corridors), a.parcels, a.buildings)


def cmd_flagship(a):
    from .io import synth
    from .pipelines.flagship import run_flagship
    _init_ray()
    import ray.data as rd
    pages = _read(a.pages, columns=["url", "warc_ts", "html"])
    narrow = _read(a.pages, columns=["url", "warc_ts"])
    regions = (synth.regions_table() if a.regions is None
               else __import__("pyarrow").concat_tables(
                   __import__("ray").get(_read(a.regions).to_arrow_refs())))
    joined, info = run_flagship(pages, regions, out_dir=a.out,
                                narrow_pages_ds=narrow)
    if a.out is None:
        print(joined.count())
    else:
        print(info.get("write"), f"resume={info.get('resume')}")


def cmd_compact(a):
    from .runtime.checkpoint import compact_parquet
    _init_ray()
    info = compact_parquet(a.in_dir, a.out,
                           target_bytes=a.target_mb << 20)
    print(info)


def cmd_query(a):
    """Run any registry pipeline (`--list` to enumerate) over a testdata
    directory; write parquet with --out, else print a head sample —
    the switch-user surface: every pipeline a reference user runs is a
    named query here."""
    from .pipelines.queries import registry
    reg = registry()
    if a.list:
        for name, (_, sql) in sorted(reg.items()):
            print(f"{name}\t{'sql-oracle' if sql else 'no-oracle'}")
        return
    if a.name not in reg:
        raise SystemExit(f"unknown query {a.name!r} (see --list)")
    _init_ray()
    res = reg[a.name][0](a.sf_dir)
    if a.out:
        import ray.data as rd
        ds = res if hasattr(res, "write_parquet") else (
            rd.from_arrow(res) if not hasattr(res, "to_records")
            else rd.from_pandas(res))
        ds.write_parquet(a.out)
        print(f"wrote {a.out}")
    else:
        df = res.to_pandas() if hasattr(res, "to_pandas") else res
        print(df.head(a.head).to_string())
        print(f"[{len(df)} rows]")


_CORPUS_STAGES = ("normalize", "langid", "quality", "tokens", "repetition",
                  "pii", "fingerprint")


def cmd_corpus(a):
    """Corpus-hygiene pipeline over a documents parquet: the per-batch
    stages fuse into one streaming operator (no intermediate
    materialization), an optional dedup shuffles at the end, and the
    enriched corpus writes back to parquet."""
    from .stages import dedup as D
    from .stages import text as T
    from .stages.util import cached_callable
    _init_ray()
    stages = (_CORPUS_STAGES if a.stages == "all"
              else tuple(s.strip() for s in a.stages.split(",")))
    unknown = set(stages) - set(_CORPUS_STAGES)
    if unknown:
        raise SystemExit(f"unknown corpus stages: {sorted(unknown)}")
    # partition-resumable output is only sound for per-row stages: a
    # global dedup's keep-decision may depend on rows in partitions a
    # resumed run would skip, silently changing results
    if a.resume and a.dedup != "none":
        raise SystemExit("--resume requires --dedup none "
                         "(dedup is a global operator)")
    resume = _Resume(a, "_part", a.docs) if a.resume else None
    if resume is not None and resume.done:
        return
    docs = _read(a.docs)
    if getattr(a, "sample_ppm", 0):
        # subsample FIRST: every downstream stage sees only kept rows
        from .stages.relational import deterministic_sample
        docs = deterministic_sample(docs, key_col=a.key_col,
                                    rate_ppm=a.sample_ppm)
    if getattr(a, "mix", None):
        # corpus-mixture rebalancing BEFORE enrichment: the counting
        # pass re-reads only the raw (column-pruned) input, so the
        # per-batch stages never execute twice
        from .stages.relational import mixture_sample
        weights = {k: float(v) for k, v in
                   (kv.split(":") for kv in a.mix.split(","))}
        docs = mixture_sample(docs, key_col=a.key_col,
                              strata_col=a.mix_col, weights=weights)
    if resume is not None:
        from .stages.relational import stable_bucket

        def add_part(batch):
            import pyarrow as _pa
            b = stable_bucket(batch[a.key_col], a.resume_parts)
            return batch.append_column(
                "_part", _pa.array(b.astype("U"), type=_pa.string()))

        # committed partitions drop BEFORE any compute
        docs = resume.keep(docs.map_batches(add_part,
                                            batch_format="pyarrow"))
    if "normalize" in stages:
        docs = docs.map_batches(T.normalize_text_batch,
                                batch_format="pyarrow")
    if "langid" in stages:
        docs = docs.map_batches(cached_callable(T.LangId),
                                batch_format="pandas")
    if "quality" in stages:
        docs = docs.map_batches(cached_callable(T.QualityScorer),
                                batch_format="pandas")
    if "tokens" in stages:
        docs = docs.map_batches(T.token_count_batch, batch_format="pyarrow")
    if "repetition" in stages:
        docs = docs.map_batches(T.repetition_stats_batch,
                                batch_format="pyarrow")
    if "pii" in stages:
        docs = docs.map_batches(T.redact_pii_batch, batch_format="pyarrow")
    if "fingerprint" in stages:
        docs = docs.map_batches(T.fingerprint_batch, batch_format="pyarrow")
    if getattr(a, "filter", False):
        missing = {"langid", "tokens", "repetition"} - set(stages)
        if missing:
            raise SystemExit(
                f"--filter needs stages {sorted(missing)} (computes the "
                "columns the decision reads)")
        docs = docs.map_batches(T.filter_decision_batch,
                                batch_format="pyarrow")
        docs = docs.filter(expr="keep == 1")
    if a.dedup == "exact":
        docs = D.exact_dedup(docs, text_col=a.text_col, key_col=a.key_col)
    elif a.dedup == "minhash":
        docs, _ = D.minhash_lsh_dedup(docs, key_col=a.key_col,
                                      text_col=a.text_col)
    if getattr(a, "split", None):
        # deterministic train/val/test label LAST (post-filter/dedup, so
        # the split partitions the SURVIVING corpus); pure per-row map
        from .stages.relational import hash_split
        splits = {k: int(v) for k, v in
                  (kv.split(":") for kv in a.split.split(","))}
        docs = hash_split(docs, key_col=a.key_col, splits=splits)
    if resume is not None:
        resume.write(docs)
    else:
        docs.write_parquet(a.out)
        print(a.out)


_RESUME_HELP = (
    "manifest-checkpointed output (reference --progress ledger): a rerun "
    "skips {unit} already committed before any compute, and a finished "
    "write is sealed, so its rerun executes nothing. One output directory "
    "holds one (input, flags) run: a rerun whose input files or flags "
    "changed raises instead of resuming")


def main(argv=None):
    p = argparse.ArgumentParser(prog="prclz_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("synth", help="write deterministic fixture tables")
    s.add_argument("--out", required=True)
    s.add_argument("--n-pages", type=int, default=2000)
    s.set_defaults(fn=cmd_synth)

    s = sub.add_parser("split-buildings")
    s.add_argument("--buildings", required=True)
    s.add_argument("--regions", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--overwrite", action="store_true")
    s.set_defaults(fn=cmd_split_buildings)

    s = sub.add_parser("blocks")
    s.add_argument("--regions", required=True)
    s.add_argument("--lines", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--method", choices=["polygonize", "buffered"],
                   default="polygonize")
    s.add_argument("--epsilon", type=float, default=5e-6)
    s.add_argument("--overwrite", action="store_true")
    s.set_defaults(fn=cmd_blocks)

    for name, fn in [("parcels", cmd_parcels), ("complexity", cmd_complexity)]:
        s = sub.add_parser(name)
        s.add_argument("--blocks", required=True)
        s.add_argument("--buildings", required=True)
        s.add_argument("--out", required=True)
        s.add_argument("--blocks-subset", default=None,
                       help="comma-separated block_id predicate pushdown")
        s.add_argument("--overwrite", action="store_true")
        s.add_argument("--resume", action="store_true",
                       help=_RESUME_HELP.format(unit="blocks")
                       + "; ignores --overwrite")
        if name == "parcels":
            s.add_argument("--qc", action="store_true",
                           help="verify ≤1 building per parcel after write")
            s.add_argument("--tessellation",
                           choices=["footprint", "centroid"],
                           default="footprint",
                           help="footprint = momepy-style edge-anchored "
                                "Voronoi (reference semantics); centroid = "
                                "one-point-per-building approximation")
        s.set_defaults(fn=fn)

    s = sub.add_parser("reblock")
    s.add_argument("--blocks", required=True)
    s.add_argument("--parcels", required=True)
    s.add_argument("--buildings", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--blocks-subset", default=None)
    s.add_argument("--use-width", action="store_true")
    s.add_argument("--through-ratio", type=float, default=None)
    s.add_argument("--connect-n", type=int, default=None,
                   help="add the top-k worst-detour through streets "
                        "(reference --connect_n, _reblock.py:221-254)")
    s.add_argument("--simplify", action="store_true")
    s.add_argument("--to-corridors", action="store_true",
                   help="also emit width-corridor polygon rows "
                        "(road_type corridor_new/corridor_existing; "
                        "reference get_steiner_linestrings return_polys)")
    s.add_argument("--overwrite", action="store_true")
    s.add_argument("--resume", action="store_true",
                   help=_RESUME_HELP.format(unit="blocks"))
    s.set_defaults(fn=cmd_reblock)

    s = sub.add_parser("corpus", help="training-data corpus hygiene: "
                       "normalize/langid/quality/tokens/repetition/pii/"
                       "fingerprint stages (fused streaming maps) + "
                       "optional dedup, parquet out")
    s.add_argument("--docs", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--stages", default="all",
                   help=f"comma list from {','.join(_CORPUS_STAGES)} "
                        "(default all)")
    s.add_argument("--dedup", choices=["none", "exact", "minhash"],
                   default="none")
    s.add_argument("--text-col", default="text")
    s.add_argument("--key-col", default="doc_id")
    s.add_argument("--sample-ppm", type=int, default=0,
                   help="deterministic key-hash subsample rate in ppm, "
                        "applied BEFORE any compute (0 = keep all)")
    s.add_argument("--filter", action="store_true",
                   help="apply the C4/Gopher keep/drop decision and keep "
                        "only passing docs (needs langid,tokens,repetition "
                        "stages)")
    s.add_argument("--resume", action="store_true",
                   help=_RESUME_HELP.format(unit="key-hash partitions")
                   + "; per-row stages only: needs --dedup none")
    s.add_argument("--resume-parts", type=int, default=64,
                   help="number of key-hash output partitions for --resume")
    s.add_argument("--mix", default=None,
                   help="corpus-mixture rebalancing before enrichment: "
                        "target proportions as 'en:0.3,de:0.2,...' over "
                        "--mix-col strata (derives per-stratum keep "
                        "rates from one counting pass)")
    s.add_argument("--mix-col", default="lang",
                   help="stratum column for --mix (default lang)")
    s.add_argument("--split", default=None,
                   help="deterministic train/val/test labeling after "
                        "filter/dedup: 'train:980000,val:10000,"
                        "test:10000' in ppm (must sum to 1e6); adds a "
                        "'split' column")
    s.set_defaults(fn=cmd_corpus)

    s = sub.add_parser("flagship")
    s.add_argument("--pages", required=True)
    s.add_argument("--regions", default=None)
    s.add_argument("--out", default=None,
                   help="resumable partitioned output dir (with manifest)")
    s.set_defaults(fn=cmd_flagship)

    s = sub.add_parser("compact",
                       help="merge a fragmented parquet dir into "
                            "~target-size files (content-identical)")
    s.add_argument("--in", dest="in_dir", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--target-mb", type=int, default=128)
    s.set_defaults(fn=cmd_compact)

    s = sub.add_parser("query",
                       help="run a registry pipeline by name over a "
                            "testdata dir (--list to enumerate)")
    s.add_argument("name", nargs="?", default="")
    s.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    s.add_argument("--out", default="")
    s.add_argument("--head", type=int, default=20)
    s.add_argument("--list", action="store_true")
    s.set_defaults(fn=cmd_query)

    a = p.parse_args(argv)
    a.fn(a)
    # shut down only a session this CLI created (library callers and tests
    # own theirs)
    import ray
    if _OWNS_RAY and ray.is_initialized():
        ray.shutdown()


if __name__ == "__main__":
    main()
