"""Flagship with resumable partitioned output: manifest lineage, skew salt
plan in the info dict, resume-skip on rerun, the sealed rerun that executes
nothing, refusal of a directory written from other input, and a rerun after
a kill."""
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from prclz_ray.geom import wkb
from prclz_ray.index import tiling
from prclz_ray.io import synth
from prclz_ray.pipelines.flagship import run_flagship
from prclz_ray.runtime import checkpoint

OUT = "/tmp/prclz_ray_test_flagship_out"
N = 3000


@pytest.fixture(scope="module")
def pages():
    return synth.pages_batch(np.arange(N), N)


def _check_histogram(joined, info, threshold):
    """The write's by-product histogram equals a separate
    ``groupby("cell").count()`` pass over the returned stream."""
    hist = tiling.cell_histogram(joined).to_pandas()
    assert info["hot_cells"] == tiling.salt_plan(
        pa.Table.from_pandas(hist), threshold=threshold)
    assert info["n_cells"] == len(hist)


def test_write_salt_and_resume(pages):
    shutil.rmtree(OUT, ignore_errors=True)
    joined, info = run_flagship(rd.from_arrow(pages).repartition(4),
                                synth.regions_table(), out_dir=OUT,
                                salt_threshold=50)
    assert set(info["write"]) == {"written", "skipped", "rows"}
    assert info["write"]["skipped"] == 0
    written = info["write"]["written"]
    assert written >= 12  # every region partition commits
    # hot-cell salt plan: the fixture packs ~30% of filler pages in one cell
    assert isinstance(info["hot_cells"], dict)
    assert len(info["hot_cells"]) >= 1
    assert info["n_cells"] > 10
    _check_histogram(joined, info, 50)

    # manifest carries lineage records
    recs = [json.loads(l) for l in open(checkpoint.manifest_path(OUT))]
    assert len(recs) == written
    assert all(r["rows"] > 0 for r in recs)

    # read-back covers every deduped url exactly once
    back = checkpoint.read_resumable(OUT).to_pandas()
    n_urls = len(set(pages["url"].to_pylist()))
    assert len(back) == n_urls

    # rerun: everything skips, nothing recomputed
    joined2, info2 = run_flagship(rd.from_arrow(pages).repartition(4),
                                  synth.regions_table(), out_dir=OUT,
                                  salt_threshold=50)
    assert info2["write"]["written"] == 0
    assert info2["write"]["skipped"] == written
    # skipped partitions still count their cells: same histogram
    _check_histogram(joined2, info2, 50)
    assert info2["hot_cells"] == info["hot_cells"]
    assert info2["n_cells"] == info["n_cells"]


# ------------------------------------------------------------ sealed rerun

@pytest.fixture(scope="module")
def page_files(pages, tmp_path_factory):
    """The fixture pages as two parquet files: a read_parquet input has
    files to fingerprint, so its finished write is sealed."""
    d = tmp_path_factory.mktemp("pages")
    half = pages.num_rows // 2
    for k, part in enumerate((pages.slice(0, half), pages.slice(half))):
        pq.write_table(part.select(["url", "warc_ts", "html"]),
                       d / f"part-{k}.parquet")
    return str(d)


def _read(page_dir):
    return rd.read_parquet(page_dir)


@pytest.fixture(scope="module")
def sealed(page_files, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sealed") / "out")
    _, info = run_flagship(_read(page_files), synth.regions_table(),
                           out_dir=out, salt_threshold=50)
    return out, info


def _copy(sealed, tmp_path) -> str:
    out = str(tmp_path / "out")
    shutil.copytree(sealed[0], out)
    return out


def _count_executions(monkeypatch) -> list:
    from ray.data._internal.plan import ExecutionPlan
    runs = []
    for name in ("execute", "execute_to_iterator"):
        orig = getattr(ExecutionPlan, name)

        def counted(self, *a, _orig=orig, **kw):
            runs.append(self)
            return _orig(self, *a, **kw)
        monkeypatch.setattr(ExecutionPlan, name, counted)
    return runs


def test_fresh_write_is_sealed(sealed):
    out, info = sealed
    assert info["resume"] == "fresh"
    seal = json.load(open(os.path.join(out, checkpoint.SEAL)))
    assert seal["keys"] == sorted(checkpoint.committed_keys(out))
    assert len(seal["keys"]) == info["write"]["written"]
    assert seal["dedup_path"] == info["dedup_path"]
    cells = pq.read_table(os.path.join(out, checkpoint.CELLS))
    assert cells.num_rows == info["n_cells"]
    # every commit record carries the seal's fingerprint
    recs = checkpoint.manifest_records(out)
    assert {r["fingerprint"] for r in recs} == {seal["fingerprint"]}


def test_sealed_rerun_executes_nothing(sealed, page_files, tmp_path,
                                       monkeypatch):
    out = _copy(sealed, tmp_path)
    info = sealed[1]
    runs = _count_executions(monkeypatch)
    joined, info2 = run_flagship(_read(page_files), synth.regions_table(),
                                 out_dir=out, salt_threshold=50)
    info3 = run_flagship(_read(page_files), synth.regions_table(),
                         out_dir=out, salt_threshold=10)[1]
    assert runs == []
    monkeypatch.undo()

    assert info2["resume"] == "sealed"
    assert info2["write"] == {"written": 0,
                              "skipped": info["write"]["written"], "rows": 0}
    assert info2["dedup_path"] == info["dedup_path"]
    assert info2["hot_cells"] == info["hot_cells"]
    assert info2["n_cells"] == info["n_cells"]
    # joined reads the committed partitions: every deduped url once, and
    # the same cell histogram the fresh write's groups counted
    assert joined.count() == info["write"]["rows"]
    _check_histogram(joined, info2, 50)
    # another threshold plans from the stored histogram as a fresh write
    # would from its own
    assert info3["hot_cells"] != info["hot_cells"]
    _check_histogram(joined, info3, 10)


def test_uncommitted_partition_takes_full_path(sealed, page_files,
                                               tmp_path):
    out = _copy(sealed, tmp_path)
    written = sealed[1]["write"]["written"]
    lines = open(checkpoint.manifest_path(out)).read().splitlines()
    gone = json.loads(lines[0])["key"]
    with open(checkpoint.manifest_path(out), "w") as f:
        f.write("\n".join(lines[1:]) + "\n")
    shutil.rmtree(os.path.join(out, f"part={gone}"))

    _, info = run_flagship(_read(page_files), synth.regions_table(),
                           out_dir=out, salt_threshold=50)
    assert info["resume"] == "partial"
    assert info["write"]["written"] == 1
    assert info["write"]["skipped"] == written - 1
    assert info["hot_cells"] == sealed[1]["hot_cells"]
    # the finished rerun seals again
    _, info = run_flagship(_read(page_files), synth.regions_table(),
                           out_dir=out, salt_threshold=50)
    assert info["resume"] == "sealed"
    assert info["write"]["skipped"] == written


def test_rewritten_input_raises(page_files, tmp_path, monkeypatch):
    """Rewriting an input file changes the fingerprint: the rerun refuses
    the directory before running anything, instead of keeping the old
    partitions and dropping the new rows for them."""
    pages_dir = str(tmp_path / "pages")
    shutil.copytree(page_files, pages_dir)
    out = str(tmp_path / "out")
    run_flagship(_read(pages_dir), synth.regions_table(), out_dir=out)
    victim = os.path.join(pages_dir, sorted(os.listdir(pages_dir))[0])
    pq.write_table(pq.read_table(victim).slice(1), victim)

    runs = _count_executions(monkeypatch)
    with pytest.raises(ValueError, match="new directory") as err:
        run_flagship(_read(pages_dir), synth.regions_table(), out_dir=out)
    assert runs == []
    assert out in str(err.value)


# ------------------------------------------------------- kill and rerun

def _fine_regions(g: int) -> pa.Table:
    """Each fixture region cut into g×g boxes: many small partitions, so
    the write's commits span seconds on one CPU.  g = 9 puts no box edge
    on a fixture point, so each page joins one box."""
    codes, geoms = [], []
    for code, _, x0, y0, x1, y1 in synth.region_boxes():
        w, h = (x1 - x0) / g, (y1 - y0) / g
        for a in range(g):
            for b in range(g):
                bx, by = x0 + a * w, y0 + b * h
                codes.append(f"{code}.{a}.{b}")
                geoms.append(wkb.polygon(np.array(
                    [(bx, by), (bx + w, by), (bx + w, by + h),
                     (bx, by + h), (bx, by)])))
    return pa.table({"gadm_code": codes,
                     "geometry": pa.array(geoms, type=pa.binary())})


# The child process: argv = repo root, Ray temp dir, pages dir, out dir.
# Its own 1-CPU Ray session commits the partitions one after another.
_WRITE_SCRIPT = """
import sys
root, ray_tmp, pages, out = sys.argv[1:5]
sys.path.insert(0, root)
import ray, ray.data as rd
from prclz_ray.pipelines.flagship import run_flagship
from tests.test_flagship_write import _fine_regions
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", _temp_dir=ray_tmp)
run_flagship(rd.read_parquet(pages), _fine_regions(9), out_dir=out)
"""


def _committed_lines(out: str) -> int:
    try:
        with open(checkpoint.manifest_path(out), "rb") as f:
            return f.read().count(b"\n")
    except FileNotFoundError:
        return 0


def _gadm_counts(out: str) -> dict:
    df = checkpoint.read_resumable(out).select_columns(
        ["gadm_code"]).to_pandas()
    return df["gadm_code"].value_counts().to_dict()


def test_killed_write_reruns_to_uninterrupted_counts(page_files, tmp_path):
    """SIGKILL a child process mid-write, then rerun: the rerun writes only
    the partitions the kill left out, keeps each committed partition's
    single record, and ends with the region counts of an uninterrupted
    run."""
    import signal
    import subprocess
    import sys
    import tempfile
    import time

    from tests.test_joins import _kill_session

    ref = str(tmp_path / "ref")
    _, info = run_flagship(_read(page_files), _fine_regions(9), out_dir=ref)
    n_parts = info["write"]["written"]
    assert n_parts > 500
    want = _gadm_counts(ref)

    out = str(tmp_path / "out")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ray_tmp = tempfile.mkdtemp(prefix="raykill-")   # short: socket paths
    log = tmp_path / "child.log"   # a file, not a pipe nobody drains
    with open(log, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", _WRITE_SCRIPT, root, ray_tmp, page_files,
             out], start_new_session=True, stdout=subprocess.DEVNULL,
            stderr=err)
    try:
        deadline = time.monotonic() + 120
        while _committed_lines(out) == 0:
            assert proc.poll() is None, log.read_text(
                errors="replace")[-2000:]
            assert time.monotonic() < deadline, "no commit in 120 s"
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        _kill_session(ray_tmp)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    time.sleep(1)   # a worker of the killed session may not be gone yet
    before = checkpoint.manifest_records(out)
    assert 1 <= len(before) < n_parts, "the kill did not land mid-write"
    assert not os.path.exists(os.path.join(out, checkpoint.SEAL))

    _, info = run_flagship(_read(page_files), _fine_regions(9), out_dir=out)
    assert info["resume"] == "partial"
    assert info["write"]["skipped"] == len(before)
    assert info["write"]["written"] == n_parts - len(before)
    after = checkpoint.manifest_records(out)
    keys = [r["key"] for r in after]
    assert len(keys) == len(set(keys)) == n_parts
    assert after[:len(before)] == before
    assert _gadm_counts(out) == want
    assert os.path.exists(os.path.join(out, checkpoint.SEAL))


# ------------------------------------------------- one row per page

def test_all_unmatched_write_commits_unmatched_partition(tmp_path):
    """No page falls in the one region: every joined id is null, and the
    write commits them all to one ``UNMATCHED`` partition (a null-typed
    id column used to make the sink's ``fill_null`` raise)."""
    pages = synth.pages_batch(np.arange(200), 200)
    far = pa.table({"gadm_code": ["FAR"], "geometry": pa.array([wkb.polygon(
        np.array([(100.0, 60.0), (101.0, 60.0), (101.0, 61.0),
                  (100.0, 61.0), (100.0, 60.0)]))], type=pa.binary())})
    out = str(tmp_path / "out")
    _, info = run_flagship(rd.from_arrow(pages), far, out_dir=out)
    assert checkpoint.committed_keys(out) == {"UNMATCHED"}
    assert info["write"]["rows"] == len(set(pages["url"].to_pylist()))
    assert _gadm_counts(out) == {"UNMATCHED": info["write"]["rows"]}


def test_page_on_shared_edge_is_written_once(pages, tmp_path):
    """The 8×8 cut puts box edges through fixture points, so some pages
    fall in two boxes.  The write keeps each page once, in the smallest
    ``gadm_code``, and so counts what the streaming job counts."""
    import pandas as pd

    from prclz_ray.pipelines.flagship import flagship_region_counts_streaming

    regions = _fine_regions(8)
    out = str(tmp_path / "out")
    _, info = run_flagship(rd.from_arrow(pages).repartition(4), regions,
                           out_dir=out)
    n_urls = len(set(pages["url"].to_pylist()))
    assert info["write"]["rows"] == n_urls
    assert checkpoint.read_resumable(out).count() == n_urls
    stream = flagship_region_counts_streaming(
        rd.from_arrow(pages).repartition(4), regions)
    want = {("UNMATCHED" if pd.isna(k) else k): int(n)
            for k, n in zip(stream["gadm_code"], stream["n_pages"])}
    assert _gadm_counts(out) == want
