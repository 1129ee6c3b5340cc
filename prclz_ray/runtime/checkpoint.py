"""Checkpoint manifest: resumable partitioned output with per-partition
lineage + metrics.

North rule: "every partition emits lineage records and counters to a
checkpoint manifest so a killed run resumes from the last committed tile
without recomputing upstream extraction".

Reference analogues (SURVEY §2.1 S6/S9, §4): per-block ``.block.cache``
files (``_complexity.py:79-97``), the split-buildings progress-CSV ledger
(``split_buildings.py:85-161``), and output-file existence checks — unified
here into one manifest keyed by partition.

Layout:
  out_dir/
    part=<key>/data.parquet     (written atomically: tmp file + rename)
    MANIFEST.jsonl              (one commit record per finished partition)
    _cells.parquet              (a finished write's cell histogram)
    _SEAL.json                  (a finished write: its input fingerprint,
                                 committed keys and run facts)

A record: {"key", "rows", "wall_sec", "fingerprint", "ts"}. Resume =
anti-join pending keys against committed keys; committed partitions are
skipped without touching their inputs. A record whose non-empty
fingerprint differs from the writer's marks a stale directory, and the
write refuses it.

The seal is written last (histogram first, each tmp file + rename), so a
killed run leaves none. A writer opens its directory with
``open_resumable``: a rerun whose input fingerprint matches a seal whose
keys are all still committed is a metadata read in the caller: it
executes nothing.

``input_fingerprint`` is also the key of every derived /tmp directory
(the queries' format round-trips and layouts, the result cache):
``fingerprinted_dir`` names it and evicts its stale versions, and
``publish_dir`` is their one atomic commit.
"""
from __future__ import annotations

import glob
import hashlib
import json
import os
import re
import shutil
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

MANIFEST = "MANIFEST.jsonl"
SEAL = "_SEAL.json"
CELLS = "_cells.parquet"


def manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, MANIFEST)


def manifest_records(out_dir: str) -> list[dict]:
    path = manifest_path(out_dir)
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def committed_keys(out_dir: str) -> set[str]:
    return {r["key"] for r in manifest_records(out_dir)}


def check_fingerprint(out_dir: str, fingerprint: str) -> None:
    """Raise if ``out_dir`` holds a partition committed from other input:
    skipping it by key would keep its old rows and drop the new ones.
    Records (or a writer) with no fingerprint are not checked."""
    if not fingerprint:
        return
    stale = {r["key"] for r in manifest_records(out_dir)
             if r.get("fingerprint") and r["fingerprint"] != fingerprint}
    if stale:
        raise ValueError(
            f"{out_dir} holds {len(stale)} partition(s) committed from "
            f"different input (e.g. {sorted(stale)[0]!r}); write to a new "
            f"directory, or remove this one")


def input_fingerprint(files, *params) -> str:
    """sha1 over ``(path, st_size, st_mtime_ns)`` of each input file (a
    directory stands for every file under it) and over ``params`` (a
    ``pa.Table`` is hashed by its content, anything else by its
    ``repr``). Reads file metadata only. With no files, or a file
    ``os.stat`` cannot read (a remote path), it is ``""``: such input is
    never sealed."""
    paths = []
    for f in files:
        paths += ([os.path.join(d, n) for d, _, ns in os.walk(f) for n in ns]
                  if os.path.isdir(f) else [f])
    if not paths:
        return ""
    h = hashlib.sha1()
    try:
        for f in sorted(paths):
            st = os.stat(f)
            h.update(repr((f, st.st_size, st.st_mtime_ns)).encode())
    except OSError:
        return ""
    for p in params:
        if isinstance(p, pa.Table):
            sink = pa.BufferOutputStream()
            with pa.ipc.new_stream(sink, p.schema) as w:
                w.write_table(p.combine_chunks())
            h.update(sink.getvalue())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def open_resumable(out_dir: str, files, *params):
    """Open ``out_dir`` for a resumable write of ``files``, whose rows
    ``params`` also shape: ``(fingerprint, sealed)``. ``fingerprint`` is
    ``input_fingerprint(files, *params)``, for the write to record. A
    directory committed from other input raises ``ValueError``.
    ``sealed`` is ``(seal, cells)`` when the directory holds a finished
    write of this input (every sealed key still committed; ``cells`` is
    its histogram, or ``None`` for a write without ``count_col``), so the
    caller can answer from it and execute nothing; otherwise ``None``."""
    fp = input_fingerprint(files, *params)
    check_fingerprint(out_dir, fp)
    path = os.path.join(out_dir, SEAL)
    if not fp or not os.path.exists(path):
        return fp, None
    with open(path) as f:
        seal = json.load(f)
    cells = os.path.join(out_dir, CELLS)
    if seal.get("fingerprint") != fp \
            or not set(seal["keys"]) <= committed_keys(out_dir) \
            or (seal.get("count_col") and not os.path.exists(cells)):
        return fp, None
    return fp, (seal, pq.read_table(cells) if seal.get("count_col")
                else None)


def _replace_atomically(path: str, write) -> None:
    tmp = f"{path}.tmp-{uuid.uuid4().hex}"
    write(tmp)
    os.replace(tmp, path)


def _write_seal(out_dir: str, fingerprint: str, cells, **facts) -> None:
    """Seal a finished write: ``cells`` (its histogram, if any) goes to
    ``_cells.parquet``, then ``_SEAL.json`` records the fingerprint, every
    committed key and ``facts``. No-op for an empty fingerprint or an
    empty directory."""
    keys = sorted(committed_keys(out_dir))
    if not fingerprint or not keys:
        return
    if cells is not None:
        _replace_atomically(os.path.join(out_dir, CELLS),
                            lambda tmp: pq.write_table(cells, tmp))

    def dump(tmp):
        with open(tmp, "w") as f:
            json.dump({"fingerprint": fingerprint, "keys": keys, **facts}, f)
    _replace_atomically(os.path.join(out_dir, SEAL), dump)


def fingerprinted_dir(prefix: str, fp: str) -> str:
    """``{prefix}_{fp}``: the path of a derived build keyed by an input
    fingerprint.  Asking for a fingerprint with no build yet removes the
    complete builds of earlier fingerprints under the same ``prefix``, so
    a changed input leaves one build behind, not one per version.
    ``.tmp-`` directories (a build in progress) are never touched."""
    out = f"{prefix}_{fp}"
    if not os.path.exists(out):
        stale = re.compile(re.escape(prefix) + "_[0-9a-f]{%d}" % len(fp))
        for d in glob.glob(glob.escape(prefix) + "_*"):
            if stale.fullmatch(d):
                shutil.rmtree(d, ignore_errors=True)
    return out


def publish_dir(out: str, build) -> None:
    """Build a derived directory once: unless ``out`` exists,
    ``build(tmp)`` fills a fresh ``{out}.tmp-<uuid>`` directory that is
    then renamed to ``out``. If another writer renamed first, its build
    stays and this one is dropped, so ``out`` only ever holds one
    complete build; a failed build leaves no tmp directory behind."""
    if os.path.exists(out):
        return
    tmp = f"{out}.tmp-{uuid.uuid4().hex}"
    os.makedirs(tmp)
    try:
        build(tmp)
        os.rename(tmp, out)
    except OSError:
        if not os.path.isdir(out):   # not a lost race: the build failed
            raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def commit_partition(out_dir: str, key: str, table: pa.Table,
                     fingerprint: str = "",
                     counters: dict | None = None) -> dict:
    """Write one partition atomically and append its lineage record;
    ``wall_sec`` is the time of the parquet write and rename.
    Safe to call from a Ray worker (local/shared filesystem)."""
    t0 = time.perf_counter()
    part_dir = os.path.join(out_dir, f"part={key}")
    os.makedirs(part_dir, exist_ok=True)
    tmp = os.path.join(part_dir, f".tmp-{uuid.uuid4().hex}.parquet")
    pq.write_table(table, tmp)
    os.replace(tmp, os.path.join(part_dir, "data.parquet"))
    wall_sec = time.perf_counter() - t0
    rec = {"key": str(key), "rows": table.num_rows, "wall_sec": round(wall_sec, 6),
           "fingerprint": fingerprint, "ts": time.time()}
    if counters:
        rec["counters"] = counters
    with open(manifest_path(out_dir), "a") as f:
        f.write(json.dumps(rec) + "\n")
    return rec


def write_partitioned_resumable(ds, out_dir: str, key_col: str,
                                fingerprint: str,
                                count_col: str | None = None,
                                **facts) -> dict:
    """Consume a Dataset into per-key partitions, skipping keys already
    committed in the manifest. Returns {"written": n, "skipped": m,
    "rows": r}: ``skipped`` counts every committed key the run left alone,
    also those whose rows an input filter (``filter_uncommitted``) removed
    before they reached the write.

    One sort on ``key_col`` is the one shuffle.  Its ranges are sampled
    (the key is not a bounded hash), so it has one reducer per input
    block and each reducer merges about one input block's rows, whatever
    the cluster's size.  The kernel runs once per sorted block and walks
    its whole keys, and each key writes + commits itself on the worker
    (null keys are one partition, ``"None"``), so a kill between keys
    loses only in-flight partitions.

    With ``count_col`` the result also holds ``"counts"``: the rows per
    distinct ``count_col`` value over every group, written or skipped, as
    a DataFrame shaped like ``ds.groupby(count_col).count().to_pandas()``
    (columns ``count_col`` and ``"count()"``). Each group counts its own
    rows, so the histogram comes out of the write's execution instead of a
    second pass over the input.

    Every record carries ``fingerprint`` (``open_resumable`` computes
    it). A committed record with a different non-empty one raises
    ``ValueError`` before anything runs. A finished write with a
    fingerprint seals the directory: ``_SEAL.json`` holds the
    fingerprint, the committed keys, ``count_col`` and ``facts``, and
    ``_cells.parquet`` the histogram when ``count_col`` is given.
    """
    import pandas as pd
    import ray

    os.makedirs(out_dir, exist_ok=True)
    check_fingerprint(out_dir, fingerprint)
    done = committed_keys(out_dir)
    done_ref = ray.put(done)

    def write_group(group: pa.Table) -> pa.Table:
        key = str(group[key_col][0].as_py())
        skipped = key in ray.get(done_ref)
        if not skipped:
            commit_partition(out_dir, key, group, fingerprint)
        out = {"key": [key], "rows": [0 if skipped else group.num_rows],
               "skipped": [skipped]}
        if count_col is not None:
            vc = pc.value_counts(group[count_col])
            offsets = pa.array([0, len(vc)], type=pa.int32())
            out["values"] = pa.ListArray.from_arrays(offsets,
                                                     vc.field("values"))
            out["counts"] = pa.ListArray.from_arrays(offsets,
                                                     vc.field("counts"))
        return pa.table(out)

    def sort_cols(t: pa.Table) -> pa.Table:
        # Ray's sampled sort compares a null with a string and raises, so
        # it sorts on (is null, key with "" for null): each key is one run
        k = t[key_col]
        nulls = pc.is_null(k)
        if pa.types.is_string(k.type) or pa.types.is_large_string(k.type):
            k = pc.fill_null(k, "")
        return t.append_column("_wnull", nulls).append_column("_wkey", k)

    def write_block(block: pa.Table) -> pa.Table:
        # sorted on the key, a block's keys are runs; value_counts lists
        # them (null as one value) in that order
        block = block.drop_columns(["_wnull", "_wkey"])
        ends = np.cumsum(pc.value_counts(block[key_col])
                         .field("counts").to_numpy())
        if len(ends):
            return pa.concat_tables(
                [write_group(block.slice(lo, hi - lo))
                 for lo, hi in zip(np.r_[0, ends[:-1]], ends)])
        out = {"key": pa.string(), "rows": pa.int64(),
               "skipped": pa.bool_()}
        if count_col is not None:
            out["values"] = pa.list_(block.schema.field(count_col).type)
            out["counts"] = pa.list_(pa.int64())
        return pa.schema(out).empty_table()

    res = ds.map_batches(sort_cols, batch_format="pyarrow") \
        .sort(["_wnull", "_wkey"]) \
        .map_batches(write_block, batch_format="pyarrow",
                     batch_size=None).to_pandas()
    ran = not res.empty  # empty input: no group ran
    summary = {"written": int((~res.skipped).sum()) if ran else 0,
               "skipped": len(done),
               "rows": int(res.rows.sum()) if ran else 0}
    cells = None
    if count_col is not None:
        per_group = pd.DataFrame({
            count_col: np.concatenate(res["values"]) if ran else [],
            "count()": np.concatenate(res["counts"]) if ran else []})
        summary["counts"] = per_group.groupby(
            count_col, as_index=False, sort=False, dropna=False)[
            "count()"].sum()
        cells = pa.Table.from_pandas(summary["counts"], preserve_index=False)
    _write_seal(out_dir, fingerprint, cells, count_col=count_col, **facts)
    return summary


def read_resumable(out_dir: str):
    """Read back all committed partitions as one Dataset."""
    import glob

    import ray.data as rd
    files = sorted(glob.glob(os.path.join(out_dir, "part=*", "data.parquet")))
    return rd.read_parquet(files)


def filter_uncommitted(ds, out_dir: str, key_col: str):
    """Drop input rows whose partition is already committed — applied BEFORE
    the expensive stages so a resumed run never recomputes upstream work for
    finished partitions (north rule: "resumes from the last committed tile
    without recomputing upstream extraction")."""
    import ray

    done = committed_keys(out_dir)
    if not done:
        return ds
    ref = ray.put(pa.array(sorted(done), type=pa.string()))

    def f(batch: pa.Table) -> pa.Table:
        committed = ray.get(ref)
        keys = pc.cast(batch[key_col], pa.string())
        return batch.filter(pc.invert(pc.is_in(keys, value_set=committed)))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def write_clustered(ds, out_dir: str, key_col: str,
                    num_ranges: int = 64,
                    boundaries: list[int] | None = None) -> dict:
    """Clustered (range-partitioned, internally sorted) parquet output:
    rows range-partition on an integer key (order-preserving bucket
    boundaries over [min, max]), each range sorts itself and writes ONE
    file committed through the same manifest as
    ``write_partitioned_resumable`` — so the output is globally ordered
    (file i's keys < file i+1's), every file is independently readable,
    and a killed run resumes by skipping committed ranges.  This is the
    layout downstream range scans and merge readers want: no global
    sort, one shuffle, no giant single file.

    ``boundaries`` (ascending internal cut points) overrides the
    default UNIFORM [min, max] split: row with key k lands in range
    #{b ∈ boundaries : b < k} — i.e. range i is (bᵢ₋₁, bᵢ].  Pass
    exact-quantile cut points for an EQUI-COUNT (rebalanced) layout on
    a skewed key; global file ordering is preserved either way."""
    from ray.data.aggregate import Max, Min

    if boundaries is not None:
        bnds = np.asarray(sorted(boundaries), dtype=np.int64)
    else:
        lohi = ds.select_columns([key_col]) \
            .aggregate(Min(key_col, alias_name="lo"),
                       Max(key_col, alias_name="hi"))
        lo, hi = int(lohi["lo"]), int(lohi["hi"])
        span = max(1, (hi - lo + num_ranges) // num_ranges)

    def tag(batch: pa.Table) -> pa.Table:
        k = batch[key_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if boundaries is not None:
            b = np.searchsorted(bnds, k, side="left")
        else:
            b = (k - lo) // span
        # zero-pad so committed-range keys sort lexically = numerically
        lab = np.char.zfill(b.astype("U"), 6)
        return batch.append_column("_range", pa.array(lab))

    tagged = ds.map_batches(tag, batch_format="pyarrow")

    os.makedirs(out_dir, exist_ok=True)
    done = committed_keys(out_dir)
    import ray
    done_ref = ray.put(done)

    def write_range(group: pa.Table) -> pa.Table:
        key = str(group["_range"][0].as_py())
        if key in ray.get(done_ref):
            return pa.table({"key": [key], "rows": [0],
                             "skipped": [True]})
        g = group.drop_columns(["_range"]).sort_by(
            [(key_col, "ascending")])
        commit_partition(out_dir, key, g)
        return pa.table({"key": [key], "rows": [g.num_rows],
                         "skipped": [False]})

    res = tagged.groupby("_range").map_groups(
        write_range, batch_format="pyarrow").to_pandas()
    if res.empty:
        return {"written": 0, "skipped": 0, "rows": 0}
    return {"written": int((~res.skipped).sum()),
            "skipped": int(res.skipped.sum()),
            "rows": int(res.rows.sum())}


def compact_parquet(in_dir: str, out_dir: str,
                    target_bytes: int = 128 << 20) -> dict:
    """Small-file compaction: read a fragmented parquet directory and
    rewrite it as ~``target_bytes`` files — the maintenance op every
    long-running ingest needs (a resumable writer that commits per
    partition accumulates small files; readers then pay per-file open
    cost).  File count derives from the ON-DISK input byte total (the
    in-memory Arrow estimate overshoots encoded+compressed parquet
    several-fold, ADVICE r3 — sizing from it would undershoot
    ``target_bytes`` badly); rows stream through one repartition;
    content and schema are untouched.  Returns {files_in, files_out,
    bytes} with the ACTUAL written file count."""
    import ray.data as rd

    ds = rd.read_parquet(in_dir)
    files = ds.input_files()
    disk = sum(os.path.getsize(f) for f in files
               if os.path.exists(f)) or 1
    nfiles = max(1, -(-disk // target_bytes))
    ds.repartition(nfiles).write_parquet(out_dir)
    files_out = len([f for f in os.listdir(out_dir)
                     if f.endswith(".parquet")])
    return {"files_in": len(files), "files_out": files_out,
            "bytes": int(disk)}


def vacuum_manifests(root: str, retain_versions: list[int]) -> dict:
    """Snapshot expiration + unreferenced-file GC over a versioned-
    manifest directory (the layout ``q_time_travel_read`` builds:
    ``manifest-v{N}.json`` files each listing their snapshot's parquet
    members).  The safety invariant is Iceberg/Delta VACUUM's: a data
    file is deleted ONLY if NO retained manifest references it, so
    every retained snapshot reads byte-identically before and after.
    Expired manifests are removed; orphan files (aborted writes,
    superseded compactions) referenced by no retained version are
    collected.  Idempotent — a second run is a no-op.

    Returns {files_before, files_after, files_removed,
    manifests_removed, retained}.
    """
    import glob

    retain = set(int(v) for v in retain_versions)
    manifests = {}
    for p in glob.glob(os.path.join(root, "manifest-v*.json")):
        v = int(os.path.basename(p)[len("manifest-v"):-len(".json")])
        manifests[v] = p
    missing = retain - set(manifests)
    if missing:
        raise ValueError(f"cannot retain missing versions {sorted(missing)}")
    referenced: set[str] = set()
    for v in retain:
        with open(manifests[v]) as fh:
            referenced.update(json.load(fh)["files"])
    data = [f for f in os.listdir(root) if f.endswith(".parquet")]
    removed = [f for f in data if f not in referenced]
    for f in removed:
        os.remove(os.path.join(root, f))
    dropped = [v for v in manifests if v not in retain]
    for v in dropped:
        os.remove(manifests[v])
    return {"files_before": len(data),
            "files_after": len(data) - len(removed),
            "files_removed": len(removed),
            "manifests_removed": len(dropped),
            "retained": sorted(retain)}


class ManifestConflictError(RuntimeError):
    """Another writer committed first — retry against the new latest."""


def latest_manifest_version(root: str) -> int:
    import glob as _glob
    vs = [int(os.path.basename(p)[len("manifest-v"):-len(".json")])
          for p in _glob.glob(os.path.join(root, "manifest-v*.json"))]
    return max(vs, default=0)


def commit_manifest_version(root: str, files: list[str],
                            expected_latest: int) -> int:
    """Optimistic-concurrency snapshot commit (the CAS every multi-
    writer table format runs on): the writer declares the latest
    version it BASED its snapshot on; the commit succeeds only if that
    is still the latest, and the new manifest file is created with
    O_EXCL so two racers that both pass the check cannot both win —
    exactly one gets the version, the other raises
    ``ManifestConflictError`` and must rebase + retry.  Returns the
    committed version number."""
    cur = latest_manifest_version(root)
    if cur != expected_latest:
        raise ManifestConflictError(
            f"based on v{expected_latest}, but latest is v{cur}")
    new = expected_latest + 1
    path = os.path.join(root, f"manifest-v{new}.json")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
    except FileExistsError as e:
        raise ManifestConflictError(
            f"lost the race for v{new}") from e
    with os.fdopen(fd, "w") as fh:
        json.dump({"files": list(files)}, fh)
    return new
