"""Hash-bucket shuffles take their fan-out from the cluster, not from the
input's block count: ``relational.sort_buckets`` splits a bucket space of
``n`` (``relational.NUM_BUCKETS``, here set to ``NB``) into R = min(n,
max(2, CPUs)) known ranges.  Every routed helper must give the same rows
and schema at either end of that range (R = 2 and R = n, forced through
the CPU read) over 1 and 4 input blocks, and none may run Ray's
boundary-sampling pass.  The resumable write, keyed on a raw
key, keeps a sampled sort and is checked over 1 and 4 blocks as well."""
import collections
import os
import warnings

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from prclz_ray.io import synth
from prclz_ray.pipelines import flagship
from prclz_ray.runtime import checkpoint
from prclz_ray.stages import relational

NB = 8          # relational.NUM_BUCKETS in the fan-out cases
KINDS = ["int", "float", "str"]


def _keyed(kind: str, n: int, seed: int) -> pa.Array:
    """``n`` keys of ``kind`` over 8 values, a few of them null."""
    v = np.random.default_rng(seed).integers(0, 8, n)
    mask = v == 7
    if kind == "int":
        return pa.array(v.astype(np.int64), mask=mask)
    if kind == "float":
        return pa.array(v * 0.5, mask=mask)
    return pa.array([f"k{x}" for x in v], mask=mask)


def _blocks(tbl: pa.Table, n: int):
    """``tbl`` as a Dataset of ``n`` blocks."""
    step = -(-tbl.num_rows // n)
    return rd.from_arrow([tbl.slice(i, step)
                          for i in range(0, tbl.num_rows, step)])


def _rows(t: pa.Table) -> collections.Counter:
    t = t.select(sorted(t.column_names))
    return collections.Counter(map(repr, t.to_pylist()))


def _events(kind: str) -> pa.Table:
    n = 300
    rng = np.random.default_rng(5)
    base = np.datetime64("2024-03-01T00:00:00", "us")
    return pa.table({
        "k": _keyed(kind, n, 1),
        "ts": pa.array(base + rng.integers(0, 86_400_000_000, n)
                       .astype("timedelta64[us]")),
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "v": pa.array(rng.integers(0, 5, n).astype(np.int64))})


def _left_right(kind: str):
    rng = np.random.default_rng(6)
    left = pa.table({"k": _keyed(kind, 200, 2),
                     "t": pa.array(rng.integers(0, 1000, 200)),
                     "lid": pa.array(np.arange(200, dtype=np.int64))})
    right = pa.table({"k": _keyed(kind, 40, 3),
                      "t": pa.array(rng.integers(0, 1000, 40)),
                      "rid": pa.array(np.arange(40, dtype=np.int64))})
    return left, right


def _hot(left: pa.Table):
    return left["k"].drop_null()[0].as_py()


# each case: builder(kind, blocks) -> Dataset keyed on ``k``
CASES = {
    "sessionize": lambda kind, b: relational.sessionize(
        _blocks(_events(kind), b), "k", "ts", gap_sec=3600),
    "grouped_ranks": lambda kind, b: relational.grouped_ranks(
        _blocks(_events(kind), b), "k", "ts", "id"),
    "running_aggregate": lambda kind, b: relational.running_aggregate(
        _blocks(_events(kind), b), "k", "ts", "id", "v"),
    "grouped_mode": lambda kind, b: relational.grouped_mode(
        _blocks(_events(kind), b), "k", "v"),
    "semi_join": lambda kind, b: relational.bucketed_semi_join(
        _blocks(_left_right(kind)[0], b), _blocks(_left_right(kind)[1], b),
        on="k"),
    "hash_join": lambda kind, b: relational.bucketed_hash_join(
        _blocks(_left_right(kind)[0], b), _blocks(_left_right(kind)[1], b),
        on="k", how="left"),
    "salted_join": lambda kind, b: relational.salted_join(
        _blocks(_left_right(kind)[0], b), _blocks(_left_right(kind)[1], b),
        on="k", hot_keys=[_hot(_left_right(kind)[0])], salt=4,
        how="left"),
    "asof_join": lambda kind, b: relational.asof_join(
        _blocks(_left_right(kind)[0], b), _blocks(_left_right(kind)[1], b),
        on="t", by="k", right_order_cols=["rid"]),
}


def _cpus(monkeypatch, n: int):
    monkeypatch.setattr(relational, "_cluster_cpus", lambda: n)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_same_rows_at_either_fanout(case, kind, monkeypatch):
    """Fan-out 2 and fan-out = bucket count, 1 and 4 input blocks: equal
    row multisets and schemas, and the key keeps its input type (a pandas
    kernel sees an int key with nulls as float; ``bucket_shuffle`` casts
    it back, so every block agrees)."""
    monkeypatch.setattr(relational, "NUM_BUCKETS", NB)
    build = CASES[case]
    want_key = _keyed(kind, 1, 0).type
    got = {}
    for cpus in (1, 1_000):
        _cpus(monkeypatch, cpus)
        for blocks in (1, 4):
            t = relational.ds_to_table(build(kind, blocks))
            got[cpus, blocks] = (_rows(t), t.schema.remove_metadata())
            assert t.schema.field("k").type == want_key, (cpus, blocks)
    (rows, schema), *rest = got.values()
    assert sum(rows.values()) > 0
    for r, s in rest:
        assert r == rows
        assert s == schema


def _write(tmp_path, kind: str, blocks: int, tag: str) -> tuple:
    """A fresh ``write_partitioned_resumable`` keyed on ``k`` with a cell
    histogram: its summary, the manifest keys and the rows read back."""
    ev = _events(kind)
    tbl = pa.table({"k": ev["k"], "id": ev["id"],
                    "cell": pa.array((np.arange(ev.num_rows) % 7)
                                     .astype(np.uint64))})
    out = str(tmp_path / tag)
    res = checkpoint.write_partitioned_resumable(
        _blocks(tbl, blocks), out, "k", "", count_col="cell")
    hist = res.pop("counts").sort_values("cell").reset_index(drop=True)
    keys = [r["key"] for r in checkpoint.manifest_records(out)]
    back = pa.concat_tables(
        [pq.read_table(os.path.join(out, f"part={k}", "data.parquet"))
         for k in sorted(set(keys))])
    want_keys = {str(k) for k in ev["k"].to_pylist()}
    return res, hist, keys, want_keys, back


@pytest.mark.parametrize("kind", KINDS)
def test_resumable_write_same_at_either_fanout(kind, tmp_path, monkeypatch):
    """One commit per key (null keys are one partition, ``"None"``), and
    the same summary, histogram and committed rows over 1 and 4 input
    blocks.  The write's sort samples its ranges on the raw key (one
    reducer per input block), so the forced CPU count must not matter
    either; a string key holding nulls in several blocks is the case
    Ray's sampled sort cannot compare."""
    got = []
    for cpus in (1, 1_000):
        _cpus(monkeypatch, cpus)
        for blocks in (1, 4):
            res, hist, keys, want_keys, back = _write(
                tmp_path, kind, blocks, f"{cpus}-{blocks}")
            assert sorted(keys) == sorted(want_keys)
            assert res == {"written": len(want_keys), "skipped": 0,
                           "rows": 300}
            assert back.num_rows == 300
            got.append((hist, _rows(back)))
    (hist, rows), *rest = got
    assert int(hist["count()"].sum()) == 300
    for h, r in rest:
        pd.testing.assert_frame_equal(h, hist)
        assert r == rows


def test_resumable_write_of_empty_reducer_keeps_schema(tmp_path):
    """Two keys over 4 input blocks, so 4 sampled ranges, leave some
    reducer blocks empty; the histogram's list columns still
    concatenate."""
    t = pa.table({"k": ["a", "b", "a", "a"],
                  "cell": pa.array([1, 2, 2, 2], pa.uint64())})
    ds = rd.from_arrow([t.slice(i, 1) for i in range(4)])
    res = checkpoint.write_partitioned_resumable(
        ds, str(tmp_path / "out"), "k", "", count_col="cell")
    hist = res.pop("counts")
    assert res == {"written": 2, "skipped": 0, "rows": 4}
    assert dict(zip(hist["cell"], hist["count()"])) == {1: 1, 2: 3}


@pytest.fixture(scope="module")
def pages():
    return synth.pages_batch(np.arange(300), 300)


def test_flagship_counts_same_at_either_fanout(pages, monkeypatch):
    monkeypatch.setattr(relational, "NUM_BUCKETS", NB)
    regions = synth.regions_table()
    got = []
    for cpus in (1, 1_000):
        _cpus(monkeypatch, cpus)
        for blocks in (1, 4):
            df = flagship.flagship_region_counts_streaming(
                _blocks(pages, blocks), regions)
            got.append(_rows(pa.Table.from_pandas(
                df, preserve_index=False).replace_schema_metadata(None)))
    assert sum(got[0].values()) > 0
    assert all(g == got[0] for g in got[1:])


def test_routed_helpers_run_no_sampling_pass(pages, monkeypatch):
    """Every exchange keyed by a bounded hash bucket passes its ranges:
    with Ray's boundary sampling made to raise, each still runs, while a
    sampled sort (a band join's unbounded key) does not."""
    from ray.data._internal.planner.exchange.sort_task_spec import \
        SortTaskSpec

    def boom(*a, **kw):
        raise AssertionError("sampled the sort boundaries")

    monkeypatch.setattr(SortTaskSpec, "sample_boundaries", boom)
    left, right = _left_right("int")
    l, r = rd.from_arrow(left), rd.from_arrow(right)
    runs = [
        lambda: relational.grouped_mode(rd.from_arrow(_events("int")),
                                        "k", "v"),
        lambda: relational.bucketed_semi_join(l, r, on="k"),
        lambda: relational.bucketed_hash_join(l, r, on="k"),
        lambda: relational.salted_join(l, r, on="k", hot_keys=[_hot(left)]),
        lambda: relational.asof_join(l, r, on="t", by="k"),
        lambda: relational.set_op(l, r, on="k"),
        lambda: flagship.dedup_latest_by_url(rd.from_arrow(pages)),
        lambda: flagship.flagship_region_counts_streaming(
            rd.from_arrow(pages), synth.regions_table()),
    ]
    for run in runs:
        out = run()
        if not isinstance(out, pd.DataFrame):
            out.materialize()
    flagship.duplicate_url_map(rd.from_arrow(pages))
    with pytest.raises(Exception, match="sampled the sort boundaries"):
        relational.band_join(l, r, on="t", radius=5).materialize()


def test_band_join_null_keys_match_nothing():
    left = pa.table({"v": pa.array([None, 5], pa.int64()),
                     "lid": pa.array([0, 1], pa.int64())})
    right = pa.table({"v": pa.array([None, 6], pa.int64()),
                      "rid": pa.array([0, 1], pa.int64())})
    out = relational.ds_to_table(relational.band_join(
        rd.from_arrow(left), rd.from_arrow(right), on="v", radius=2))
    assert out.select(["v", "lid", "v_r", "rid"]).to_pylist() == [
        {"v": 5, "lid": 1, "v_r": 6, "rid": 1}]
    assert out.schema.field("v").type == pa.int64()
    # the tagger's bucket of a null is no float-NaN-to-int cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kept, b = relational._band_buckets(left, "v", 2)
    assert kept["lid"].to_pylist() == [1] and b.tolist() == [2]


def test_sort_buckets_fanout(monkeypatch):
    """R = min(n, max(2, CPUs)) reducers over equal bucket ranges."""
    seen = []
    monkeypatch.setattr(rd.Dataset, "sort",
                        lambda self, col, boundaries=None: seen.append(
                            (col, boundaries)))
    for cpus, n, want in ((1, 64, [32]), (4, 64, [16, 32, 48]),
                          (1_000, 4, [1, 2, 3]), (1, 1, [0]),
                          (3, 2, [1])):
        _cpus(monkeypatch, cpus)
        relational.sort_buckets(rd.range(1), "_bucket", n)
        assert seen.pop() == ("_bucket", want), (cpus, n)


@pytest.mark.parametrize("cpus", [2, 16])
def test_salted_hot_key_spreads_over_reducers(cpus, monkeypatch):
    """A hot key's sub-buckets sit ``NUM_BUCKETS`` apart, so the equal
    bucket ranges part them: at fan-out 2 and at the bucket count
    (4 x 4) its rows reach min(salt, R) kernel calls, not one."""
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(relational, "NUM_BUCKETS", 4)
    real = relational.cogroup

    def tagged_calls(*a, **kw):
        per_block = a[6]

        def call(lp: pa.Table, rp: pa.Table) -> pa.Table:
            out = per_block(lp, rp)
            return out.append_column(
                "_call", pa.array([os.urandom(8).hex()] * out.num_rows))
        return real(*a[:6], call, *a[7:], **kw)

    monkeypatch.setattr(relational, "cogroup", tagged_calls)
    left, right = _left_right("int")
    hot = _hot(left)
    out = relational.ds_to_table(relational.salted_join(
        _blocks(left, 4), _blocks(right, 4), on="k", hot_keys=[hot],
        salt=4))
    calls = set(out.filter(pc.equal(out["k"], hot))["_call"].to_pylist())
    assert len(calls) == min(4, cpus)
