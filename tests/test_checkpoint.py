"""Resumable partitioned output: manifest commit, skip-on-resume, read-back."""
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest
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
    res1 = checkpoint.write_partitioned_resumable(_ds(), OUT, "part_key", "")
    assert res1["written"] == 4 and res1["skipped"] == 0
    assert checkpoint.committed_keys(OUT) == {"a", "b", "c", "d"}

    # simulate a killed run missing one partition: drop its manifest line +
    # data, then resume — only that partition is recomputed
    lines = open(checkpoint.manifest_path(OUT)).read().strip().splitlines()
    keep = [l for l in lines if '"key": "c"' not in l]
    with open(checkpoint.manifest_path(OUT), "w") as f:
        f.write("\n".join(keep) + "\n")
    shutil.rmtree(os.path.join(OUT, "part=c"))

    res2 = checkpoint.write_partitioned_resumable(_ds(), OUT, "part_key", "")
    assert res2["written"] == 1 and res2["skipped"] == 3

    back = checkpoint.read_resumable(OUT).to_pandas()
    assert len(back) == 100
    assert set(back["part_key"]) == {"a", "b", "c", "d"}
    assert sorted(back["val"]) == list(range(100))


def test_value_counts_cover_written_and_skipped_partitions():
    """``count_col`` counts every group's rows, written or skipped, so a
    resumed write reports the same histogram as a fresh one."""
    def ds():
        # cell values cut across partitions: per-group counts must add up
        return rd.from_arrow(pa.table({
            "part_key": np.repeat(["a", "b", "c", "d"], 25),
            "cell": (np.arange(100) % 7).astype(np.uint64),
        })).repartition(4)

    want = {c: len(range(c, 100, 7)) for c in range(7)}

    def hist(res):
        h = res.pop("counts")
        assert list(h.columns) == ["cell", "count()"]
        return dict(zip(h["cell"].astype(int), h["count()"].astype(int)))

    shutil.rmtree(OUT, ignore_errors=True)
    res1 = checkpoint.write_partitioned_resumable(ds(), OUT, "part_key", "",
                                                  count_col="cell")
    assert hist(res1) == want
    assert res1 == {"written": 4, "skipped": 0, "rows": 100}

    # uncommit 'c': the resume writes one partition and skips three
    lines = open(checkpoint.manifest_path(OUT)).read().strip().splitlines()
    with open(checkpoint.manifest_path(OUT), "w") as f:
        f.write("\n".join(l for l in lines if '"key": "c"' not in l) + "\n")
    res2 = checkpoint.write_partitioned_resumable(ds(), OUT, "part_key", "",
                                                  count_col="cell")
    assert hist(res2) == want
    assert res2 == {"written": 1, "skipped": 3, "rows": 25}

    # a rerun with everything committed still counts every row
    res3 = checkpoint.write_partitioned_resumable(ds(), OUT, "part_key", "",
                                                  count_col="cell")
    assert hist(res3) == want
    assert res3 == {"written": 0, "skipped": 4, "rows": 0}


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



def test_stale_fingerprint_raises_instead_of_skipping():
    """A committed partition from other input must not be skipped by key:
    that would keep its old rows and drop the new ones."""
    shutil.rmtree(OUT, ignore_errors=True)
    checkpoint.write_partitioned_resumable(_ds(), OUT, "part_key",
                                           fingerprint="input-v1")
    with pytest.raises(ValueError, match="new directory") as err:
        checkpoint.write_partitioned_resumable(_ds(), OUT, "part_key",
                                               fingerprint="input-v2")
    assert OUT in str(err.value)
    # the same input, or a writer with no fingerprint, resumes as before
    res = checkpoint.write_partitioned_resumable(_ds(), OUT, "part_key",
                                                 fingerprint="input-v1")
    assert res == {"written": 0, "skipped": 4, "rows": 0}
    res = checkpoint.write_partitioned_resumable(_ds(), OUT, "part_key", "")
    assert res == {"written": 0, "skipped": 4, "rows": 0}

    # records with no fingerprint are not checked
    shutil.rmtree(OUT, ignore_errors=True)
    checkpoint.write_partitioned_resumable(_ds(), OUT, "part_key", "")
    res = checkpoint.write_partitioned_resumable(_ds(), OUT, "part_key",
                                                 fingerprint="input-v2")
    assert res == {"written": 0, "skipped": 4, "rows": 0}


def test_input_fingerprint_tracks_files_and_params(tmp_path):
    import pyarrow.parquet as pq
    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    tbl = pa.table({"x": np.arange(10)})
    pq.write_table(tbl, a)
    pq.write_table(tbl, b)
    fp = checkpoint.input_fingerprint([a, b], 14, tbl)
    assert len(fp) == 40
    # file order and the params' chunking do not matter
    two_chunks = pa.concat_tables([tbl.slice(0, 4), tbl.slice(4)])
    assert checkpoint.input_fingerprint([b, a], 14, two_chunks) == fp
    assert checkpoint.input_fingerprint([a, b], 13, tbl) != fp
    assert checkpoint.input_fingerprint([a, b], 14, tbl.slice(1)) != fp
    assert checkpoint.input_fingerprint([a], 14, tbl) != fp
    pq.write_table(tbl.slice(1), b)
    assert checkpoint.input_fingerprint([a, b], 14, tbl) != fp
    # nothing to fingerprint: never sealed
    assert checkpoint.input_fingerprint([], 14, tbl) == ""
    assert checkpoint.input_fingerprint([str(tmp_path / "gone")], 14) == ""


def test_seal_valid_only_while_its_partitions_are_committed(tmp_path):
    import pyarrow.parquet as pq
    out = str(tmp_path / "out")
    src = str(tmp_path / "in.parquet")
    pq.write_table(pa.table({"x": [1]}), src)
    fp, sealed = checkpoint.open_resumable(out, [src], "p")
    assert sealed is None
    checkpoint.write_partitioned_resumable(_ds().filter(expr="val < 0"),
                                           out, "part_key", fp)
    assert not os.path.exists(os.path.join(out, checkpoint.SEAL))  # nothing committed: no seal
    res = checkpoint.write_partitioned_resumable(
        _ds(), out, "part_key", fp, count_col="val", dedup_path="broadcast")
    cells = pa.Table.from_pandas(res["counts"], preserve_index=False)
    seal, got = checkpoint.open_resumable(out, [src], "p")[1]
    assert seal == {"fingerprint": fp, "keys": ["a", "b", "c", "d"],
                    "count_col": "val", "dedup_path": "broadcast"}
    assert got.equals(cells)
    assert checkpoint.open_resumable(out, [], "p") == ("", None)   # no fingerprint: no seal
    with pytest.raises(ValueError, match="new directory"):
        checkpoint.open_resumable(out, [src], "other")
    assert not [f for f in os.listdir(out) if ".tmp-" in f]

    lines = open(checkpoint.manifest_path(out)).read().splitlines()
    with open(checkpoint.manifest_path(out), "w") as f:
        f.write("\n".join(l for l in lines if '"key": "c"' not in l) + "\n")
    assert checkpoint.open_resumable(out, [src], "p") == (fp, None)


def test_publish_dir_one_build_wins(tmp_path):
    """Two builds race for one target: the first rename wins, the other
    build is dropped, and no tmp directory is left behind."""
    import threading

    out = str(tmp_path / "derived")
    both_built = threading.Barrier(2)

    def build(tag):
        def fill(tmp):
            for i in range(3):
                with open(os.path.join(tmp, f"{i}.txt"), "w") as f:
                    f.write(tag)
            both_built.wait()   # neither renames before both have built
        return fill

    racers = [threading.Thread(target=checkpoint.publish_dir,
                               args=(out, build(tag))) for tag in "ab"]
    for t in racers:
        t.start()
    for t in racers:
        t.join()
    assert sorted(os.listdir(out)) == ["0.txt", "1.txt", "2.txt"]
    assert len({open(os.path.join(out, f)).read()
                for f in os.listdir(out)}) == 1
    assert os.listdir(tmp_path) == ["derived"]

    # a published target is not built again
    checkpoint.publish_dir(out, lambda tmp: pytest.fail())

    # a failed build raises and leaves nothing behind
    def broken(tmp):
        raise OSError("disk full")
    with pytest.raises(OSError, match="disk full"):
        checkpoint.publish_dir(str(tmp_path / "other"), broken)
    assert os.listdir(tmp_path) == ["derived"]



def test_stale_fingerprinted_builds_are_evicted(tmp_path):
    """A changed input gets a fresh derived directory and the build of
    the old fingerprint goes: for the queries' /tmp layouts and for the
    result cache.  A ``.tmp-`` build in progress and a build of another
    name sharing the prefix stay."""
    import glob

    import pandas as pd

    from prclz_ray.pipelines.queries.common import _fingerprint_cache_dir
    from prclz_ray.runtime.result_cache import cached_result

    sf = tmp_path / f"sf_evict_{os.getpid()}"
    sf.mkdir()
    src = sf / "orders.parquet"
    src.write_bytes(b"v1")

    def touch():
        st = os.stat(src)
        os.utime(src, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))

    def fill(tmp):
        with open(os.path.join(tmp, "x"), "w") as f:
            f.write("built")

    try:
        old = _fingerprint_cache_dir(str(sf), "orders", "evicttest")
        checkpoint.publish_dir(old, fill)
        in_progress = old + ".tmp-0123456789abcdef"
        os.makedirs(in_progress)
        assert _fingerprint_cache_dir(str(sf), "orders", "evicttest") == old
        assert os.path.isdir(old)    # same input: the build is reused
        touch()
        new = _fingerprint_cache_dir(str(sf), "orders", "evicttest")
        assert new != old and not os.path.exists(old)
        assert os.path.isdir(in_progress)
        checkpoint.publish_dir(new, fill)
        assert os.path.isdir(new)
    finally:
        for d in glob.glob(f"/tmp/prclz_ray_evicttest_{sf.name}_*"):
            shutil.rmtree(d, ignore_errors=True)

    root = str(tmp_path / "qcache")

    def q(_):
        return pd.DataFrame({"a": [1]})

    cached_result("q", str(sf), q, cache_root=root)
    cached_result("q_other", str(sf), q, cache_root=root)
    first = sorted(os.listdir(root))
    assert len(first) == 2
    touch()
    cached_result("q", str(sf), q, cache_root=root)
    now = sorted(os.listdir(root))
    q_dirs = [d for d in now if not d.startswith("q_other_")]
    assert len(now) == 2 and len(q_dirs) == 1 and q_dirs[0] not in first
    assert [d for d in now if d.startswith("q_other_")] \
        == [d for d in first if d.startswith("q_other_")]

def test_manifest_wall_sec_times_the_write():
    """A fresh write's records carry the measured parquet-write time
    (not a ~0 taken before it) and the row count of the file on disk."""
    import json

    import pyarrow.parquet as pq
    shutil.rmtree(OUT, ignore_errors=True)
    checkpoint.write_partitioned_resumable(_ds(), OUT, "part_key", "")
    recs = [json.loads(l) for l in open(checkpoint.manifest_path(OUT))]
    assert len(recs) == 4
    for r in recs:
        assert r["wall_sec"] > 0
        path = os.path.join(OUT, f"part={r['key']}", "data.parquet")
        assert r["rows"] == pq.read_metadata(path).num_rows


def test_pending_keys_and_filter_uncommitted():
    shutil.rmtree(OUT, ignore_errors=True)
    checkpoint.write_partitioned_resumable(_ds(), OUT, "part_key", "")

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
