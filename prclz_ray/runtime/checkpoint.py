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

A record: {"key", "rows", "wall_sec", "fingerprint", "ts"}. Resume =
anti-join pending keys against committed keys; committed partitions are
skipped without touching their inputs.
"""
from __future__ import annotations

import json
import os
import time
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

MANIFEST = "MANIFEST.jsonl"


def manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, MANIFEST)


def committed_keys(out_dir: str) -> set[str]:
    path = manifest_path(out_dir)
    keys: set[str] = set()
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    keys.add(json.loads(line)["key"])
    return keys


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
                                fingerprint: str = "") -> dict:
    """Consume a Dataset into per-key partitions, skipping keys already
    committed in the manifest. Returns {"written": n, "skipped": m}.

    The groupby is the one shuffle; each group writes + commits itself on
    the worker, so a kill between groups loses only in-flight partitions.
    """
    os.makedirs(out_dir, exist_ok=True)
    done = committed_keys(out_dir)
    done_ref = None
    import ray
    done_ref = ray.put(done)

    def write_group(group: pa.Table) -> pa.Table:
        key = str(group[key_col][0].as_py())
        already = ray.get(done_ref)
        if key in already:
            return pa.table({"key": [key], "rows": [0], "skipped": [True]})
        commit_partition(out_dir, key, group, fingerprint)
        return pa.table({"key": [key], "rows": [group.num_rows], "skipped": [False]})

    res = ds.groupby(key_col).map_groups(write_group, batch_format="pyarrow").to_pandas()
    if res.empty:  # nothing left to write (e.g. a fully-resumed rerun)
        return {"written": 0, "skipped": 0, "rows": 0}
    return {
        "written": int((~res.skipped).sum()),
        "skipped": int(res.skipped.sum()),
        "rows": int(res.rows.sum()),
    }


def read_resumable(out_dir: str):
    """Read back all committed partitions as one Dataset."""
    import glob

    import ray.data as rd
    files = sorted(glob.glob(os.path.join(out_dir, "part=*", "data.parquet")))
    return rd.read_parquet(files)


def pending_keys(candidate_keys, out_dir: str) -> list:
    """Resume work-list (SURVEY §2.1 S6): anti-join candidate partition keys
    against the committed manifest — the split-buildings progress-ledger
    pattern (``split_buildings.py:87-118``) as one set difference."""
    done = committed_keys(out_dir)
    return [k for k in candidate_keys if str(k) not in done]


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
                    num_ranges: int = 64, fingerprint: str = "",
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
    import numpy as np
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
        import numpy as np
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
        commit_partition(out_dir, key, g, fingerprint)
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
