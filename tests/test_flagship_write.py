"""Flagship with resumable partitioned output: manifest lineage, skew salt
plan in the info dict, resume-skip on rerun."""
import json
import shutil

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

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
