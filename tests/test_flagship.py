"""Integration tests for the flagship pages pipeline: byte-identical text
extraction per url across parallelism levels (the BASELINE.json per-row
invariant), url dedup (latest warc_ts wins), S2 tile assignment, PIP join,
and end-to-end region counts."""
import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from prclz_ray.index import s2
from prclz_ray.io import synth
from prclz_ray.pipelines.flagship import (PageParser, assign_cells,
                                          dedup_latest_by_url, run_flagship)

N_PAGES = 1200


@pytest.fixture(scope="module")
def pages_tbl():
    return synth.pages_batch(np.arange(N_PAGES), N_PAGES)


def _parse(pages: pa.Table, parallelism: int):
    ds = rd.from_arrow(pages).repartition(parallelism)
    out = ds.map_batches(PageParser, batch_format="pyarrow", batch_size=256,
                         concurrency=2, zero_copy_batch=True)
    return out.to_pandas().sort_values(["url", "warc_ts"]).reset_index(drop=True)


def test_extraction_byte_identical_across_parallelism(pages_tbl):
    """north rule: byte-identical extracted text per url at any parallelism."""
    a = _parse(pages_tbl, 1)
    b = _parse(pages_tbl, 8)
    assert list(a["text_extracted"]) == list(b["text_extracted"])
    # and it matches the oracle `text` column of the fixture byte-for-byte
    oracle = pages_tbl.to_pandas().sort_values(
        ["url", "warc_ts"]).reset_index(drop=True)
    assert list(a["text_extracted"]) == list(oracle["text"])


def test_dedup_latest_wins(pages_tbl):
    ds = rd.from_arrow(pages_tbl).repartition(6)
    parsed = ds.map_batches(PageParser, batch_format="pyarrow",
                            batch_size=256, concurrency=2,
                            zero_copy_batch=True)
    out = dedup_latest_by_url(parsed).to_pandas()
    pdf = pages_tbl.to_pandas()
    assert len(out) == pdf["url"].nunique()
    # per url the surviving warc_ts is the max, and no stale payload survives
    expect = pdf.groupby("url")["warc_ts"].max()
    got = out.set_index("url")["warc_ts"]
    assert got.sort_index().equals(expect.sort_index())
    assert not out["text_extracted"].str.contains("STALE-REVISION").any()


def test_cell_assignment_matches_scalar_encoder(pages_tbl):
    ds = rd.from_arrow(pages_tbl).map_batches(
        PageParser, batch_format="pyarrow", batch_size=512, concurrency=2,
        zero_copy_batch=True)
    tiled = assign_cells(ds).to_pandas()
    expect = s2.lnglat_to_cellid(tiled["lng"].to_numpy(),
                                 tiled["lat"].to_numpy())
    assert (tiled["cell"].to_numpy().astype(np.uint64) == expect).all()
    # skew exists: the hottest cell is far above the median occupancy
    vc = tiled["cell"].value_counts()
    assert vc.iloc[0] > 10 * vc.median()


def test_dedup_broadcast_size_guard(pages_tbl):
    """A dup-map budget too small for even one entry must reroute
    run_flagship onto the grouped (one-shuffle) dedup path — and the
    result must be identical to the broadcast path's."""
    ds = rd.from_arrow(pages_tbl).repartition(4)
    regions = synth.regions_table()
    j_guard, info_guard = run_flagship(ds, regions,
                                       dedup_broadcast_limit_bytes=1)
    assert info_guard["dedup_path"] == "grouped"
    j_bcast, info_bcast = run_flagship(ds, regions)
    assert info_bcast["dedup_path"] == "broadcast"
    a = j_guard.groupby("gadm_code").count().to_pandas() \
        .sort_values("gadm_code").reset_index(drop=True)
    b = j_bcast.groupby("gadm_code").count().to_pandas() \
        .sort_values("gadm_code").reset_index(drop=True)
    assert a.equals(b)


def _bruteforce_region_counts(pages: pa.Table) -> tuple[dict, int]:
    """Dedup by url (latest warc_ts wins), then rectangle containment."""
    pdf = pages.to_pandas().sort_values(
        ["url", "warc_ts"], ascending=[True, False]).drop_duplicates("url")
    boxes = synth.region_boxes()
    expect: dict = {}
    parsed = PageParser(keep_footprint=False)(pa.Table.from_pandas(pdf))
    lat = parsed["lat"].to_numpy()
    lng = parsed["lng"].to_numpy()
    for la, ln in zip(lat, lng):
        code = None
        for gadm, _c, x0, y0, x1, y1 in boxes:
            if x0 <= ln < x1 and y0 <= la < y1:
                code = gadm
                break
        expect[code] = expect.get(code, 0) + 1
    return expect, len(pdf)


def _assert_counts_match(pages: pa.Table):
    joined, info = run_flagship(rd.from_arrow(pages).repartition(4),
                                synth.regions_table())
    counts = joined.groupby("gadm_code").count().to_pandas()
    got = dict(zip(counts["gadm_code"], counts["count()"]))
    expect, n_urls = _bruteforce_region_counts(pages)
    assert sum(got.values()) == n_urls
    for code, n in expect.items():
        if code is not None:
            assert got.get(code) == n, code
    return info


def test_flagship_region_counts_match_bruteforce(pages_tbl):
    _assert_counts_match(pages_tbl)


def test_flagship_region_counts_without_duplicate_urls(pages_tbl):
    """A corpus where every url is distinct leaves every dedup bucket
    empty; the pre-pass must hand back an empty dup map, not crash."""
    pdf = pages_tbl.to_pandas().sort_values(
        ["url", "warc_ts"], ascending=[True, False]).drop_duplicates("url")
    unique = pa.Table.from_pandas(pdf, preserve_index=False)
    assert unique.num_rows == pdf["url"].nunique() < pages_tbl.num_rows
    info = _assert_counts_match(unique)
    assert info["dedup_path"] == "broadcast"
