"""Resumable partitioned output: manifest commit, skip-on-resume, read-back."""
import os
import shutil

import numpy as np
import pyarrow as pa
import ray.data as rd

from prclz_ray.runtime import checkpoint

OUT = "/tmp/prclz_ray_test_ckpt"


def _ds():
    keys = np.repeat(["a", "b", "c", "d"], 25)
    return rd.from_arrow(pa.table({
        "part_key": keys,
        "val": np.arange(100, dtype=np.int64),
    })).repartition(4)


def test_write_then_resume_skips_committed():
    shutil.rmtree(OUT, ignore_errors=True)
    res1 = checkpoint.write_partitioned_resumable(_ds(), OUT, "part_key")
    assert res1["written"] == 4 and res1["skipped"] == 0
    assert checkpoint.committed_keys(OUT) == {"a", "b", "c", "d"}

    # simulate a killed run missing one partition: drop its manifest line +
    # data, then resume — only that partition is recomputed
    lines = open(checkpoint.manifest_path(OUT)).read().strip().splitlines()
    keep = [l for l in lines if '"key": "c"' not in l]
    with open(checkpoint.manifest_path(OUT), "w") as f:
        f.write("\n".join(keep) + "\n")
    shutil.rmtree(os.path.join(OUT, "part=c"))

    res2 = checkpoint.write_partitioned_resumable(_ds(), OUT, "part_key")
    assert res2["written"] == 1 and res2["skipped"] == 3

    back = checkpoint.read_resumable(OUT).to_pandas()
    assert len(back) == 100
    assert set(back["part_key"]) == {"a", "b", "c", "d"}
    assert sorted(back["val"]) == list(range(100))


def test_manifest_records_lineage():
    shutil.rmtree(OUT, ignore_errors=True)
    checkpoint.write_partitioned_resumable(_ds(), OUT, "part_key",
                                           fingerprint="fixture-v1")
    import json
    recs = [json.loads(l) for l in open(checkpoint.manifest_path(OUT))]
    assert len(recs) == 4
    for r in recs:
        assert r["rows"] == 25
        assert r["fingerprint"] == "fixture-v1"
        assert "ts" in r and "wall_sec" in r


def test_manifest_wall_sec_times_the_write():
    """A fresh write's records carry the measured parquet-write time
    (not a ~0 taken before it) and the row count of the file on disk."""
    import json

    import pyarrow.parquet as pq
    shutil.rmtree(OUT, ignore_errors=True)
    checkpoint.write_partitioned_resumable(_ds(), OUT, "part_key")
    recs = [json.loads(l) for l in open(checkpoint.manifest_path(OUT))]
    assert len(recs) == 4
    for r in recs:
        assert r["wall_sec"] > 0
        path = os.path.join(OUT, f"part={r['key']}", "data.parquet")
        assert r["rows"] == pq.read_metadata(path).num_rows


def test_pending_keys_and_filter_uncommitted():
    shutil.rmtree(OUT, ignore_errors=True)
    checkpoint.write_partitioned_resumable(_ds(), OUT, "part_key")
    assert checkpoint.pending_keys(["a", "b", "c", "d", "e"], OUT) == ["e"]

    filtered = checkpoint.filter_uncommitted(_ds(), OUT, "part_key")
    assert filtered.count() == 0  # everything committed → nothing pending

    # uncommit 'b': only its rows survive the input filter
    lines = open(checkpoint.manifest_path(OUT)).read().strip().splitlines()
    keep = [l for l in lines if '"key": "b"' not in l]
    with open(checkpoint.manifest_path(OUT), "w") as f:
        f.write("\n".join(keep) + "\n")
    back = checkpoint.filter_uncommitted(_ds(), OUT, "part_key").to_pandas()
    assert set(back["part_key"]) == {"b"} and len(back) == 25


def test_write_clustered_global_order_and_resume(tmp_path):
    import glob

    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from prclz_ray.runtime.checkpoint import write_clustered

    rng = np.random.default_rng(4)
    df = pd.DataFrame({"k": rng.permutation(5000).astype(np.int64),
                       "v": np.arange(5000)})
    out = str(tmp_path / "clustered")
    res = write_clustered(rd.from_pandas(df).repartition(7), out, "k",
                          num_ranges=8)
    assert res["rows"] == 5000 and res["written"] >= 7
    # reading part dirs in lexical range order yields a GLOBALLY sorted key
    parts = sorted(glob.glob(out + "/part=*/data.parquet"))
    keys = []
    for p in parts:
        k = pq.read_table(p).column("k").to_pylist()
        assert k == sorted(k)  # sorted within each file
        keys.extend(k)
    assert keys == list(range(5000))  # globally ordered across files
    # a rerun skips every committed range
    res2 = write_clustered(rd.from_pandas(df).repartition(7), out, "k",
                           num_ranges=8)
    assert res2["written"] == 0 and res2["skipped"] == res["written"]


def test_compact_parquet_merges_small_files_content_identical(tmp_path):
    import glob

    import pyarrow as pa
    import ray.data as rd

    from prclz_ray.runtime import checkpoint as cp

    t = pa.table({"k": pa.array(range(5000), type=pa.int64()),
                  "v": pa.array([f"row{i}" for i in range(5000)])})
    frag = str(tmp_path / "frag")
    rd.from_arrow(t).repartition(40).write_parquet(frag)
    assert len(glob.glob(frag + "/*.parquet")) >= 20

    out = str(tmp_path / "compact")
    info = cp.compact_parquet(frag, out, target_bytes=1 << 30)
    assert info["files_out"] < info["files_in"]
    files = glob.glob(out + "/*.parquet")
    assert len(files) <= 2
    back = rd.read_parquet(out).to_pandas().sort_values("k") \
        .reset_index(drop=True)
    assert back.equals(t.to_pandas())
