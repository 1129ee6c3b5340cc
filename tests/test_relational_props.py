"""Randomized reference-comparison tests for the round-3 relational /
text operators: distributed results must equal a straightforward
single-process pandas/numpy reference on arbitrary inputs."""
import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from prclz_ray.stages import dedup as dd
from prclz_ray.stages import relational, util


def _ref_sessions(df: pd.DataFrame, gap_sec: int) -> pd.DataFrame:
    rows = []
    for uid, g in df.sort_values("ts").groupby("user_id"):
        ts = g["ts"].to_numpy()
        gaps = np.diff(ts.astype("datetime64[us]").astype(np.int64))
        new = np.r_[True, gaps > gap_sec * 1_000_000]
        sess = np.cumsum(new)
        for s in np.unique(sess):
            m = sess == s
            rows.append({
                "user_id": uid, "session_idx": int(s),
                "n_events": int(m.sum()),
                "start_ts": ts[m].min(), "end_ts": ts[m].max(),
            })
    return pd.DataFrame(rows)


def test_sessionize_matches_reference_on_random_stream():
    rng = np.random.default_rng(17)
    n = 3000
    base = np.datetime64("2024-03-01T00:00:00", "us")
    df = pd.DataFrame({
        "user_id": rng.integers(0, 40, n),
        "ts": base + rng.integers(0, 86_400_000_000 * 5, n)
        .astype("timedelta64[us]"),
    })
    got = relational.sessionize(
        rd.from_arrow(pa.Table.from_pandas(df)).repartition(7),
        "user_id", "ts", gap_sec=1800).to_pandas()
    want = _ref_sessions(df, 1800)
    key = ["user_id", "session_idx"]
    got = got.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    assert len(got) == len(want)
    assert (got[key + ["n_events"]].to_numpy()
            == want[key + ["n_events"]].to_numpy()).all()
    assert (got["start_ts"].to_numpy() == want["start_ts"].to_numpy()).all()
    assert (got["end_ts"].to_numpy() == want["end_ts"].to_numpy()).all()


def test_paragraph_dedup_matches_reference_on_random_corpus():
    rng = np.random.default_rng(23)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon"]
    boiler = ["SHARE ME", "SUBSCRIBE"]
    docs = []
    for i in range(120):
        paras = [" ".join(rng.choice(vocab, 8))]  # unique-ish body
        if i % 4 == 0:
            paras.append(boiler[0])
        if i % 7 == 0:
            paras.append(boiler[1])
        if i % 11 == 0:
            paras.append(paras[0])  # self-duplicate body
        docs.append({"doc_id": i, "text": "\n\n".join(paras)})
    got = dd.paragraph_dedup_stats(rd.from_items(docs).repartition(5)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    # reference
    from collections import Counter
    allp = Counter()
    for d in docs:
        allp.update(d["text"].split("\n\n"))
    ref = []
    for d in docs:
        ps = d["text"].split("\n\n")
        nd = sum(1 for p in ps if allp[p] >= 2)
        ref.append((d["doc_id"], len(ps), nd))
    assert [(int(r.doc_id), int(r.n_paras), int(r.n_dup_paras))
            for r in got.itertuples()] == ref


def test_grouped_quantile_random_uniform_keys():
    import duckdb
    rng = np.random.default_rng(31)
    n = 5000
    tbl = pa.table({"k": pa.array(rng.integers(0, 12, n), type=pa.int64()),
                    "v": pa.array(rng.standard_normal(n) * 100)})
    got = relational.grouped_quantile_disc(
        rd.from_arrow(tbl).repartition(9), "k", "v",
        qs=[0.25, 0.5, 0.75], bins=64)
    want = duckdb.connect().execute(
        "SELECT k, quantile_disc(v, 0.25) p25, quantile_disc(v, 0.5) p50, "
        "quantile_disc(v, 0.75) p75 FROM tbl GROUP BY k ORDER BY k").fetchdf()
    assert np.array_equal(got[["p25", "p50", "p75"]].to_numpy(),
                          want[["p25", "p50", "p75"]].to_numpy())


def test_grouped_corr_matches_duckdb_on_random():
    import duckdb
    rng = np.random.default_rng(7)
    n = 20000
    k = rng.integers(0, 6, n)
    x = rng.standard_normal(n) * 10 + 50
    y = 3 * x + rng.standard_normal(n) * 25
    tbl = pa.table({"k": pa.array(k, type=pa.int64()),
                    "x": pa.array(x), "y": pa.array(y)})
    got = relational.grouped_corr(rd.from_arrow(tbl).repartition(8),
                                  "k", "x", "y")
    want = duckdb.connect().execute(
        "SELECT k, COUNT(*) n, ROUND(corr(x,y),4) c FROM tbl "
        "GROUP BY k ORDER BY k").fetchdf()
    assert list(got["n"]) == list(want["n"])
    assert list(got["corr"]) == list(want["c"])


def test_bloom_semi_join_selective_and_exact():
    """Bloom prefilter must drop non-matching rows pre-shuffle and the
    final result must equal the exact semi join (false positives gone)."""
    from prclz_ray.stages import sketches
    big = rd.from_arrow(pa.table({
        "k": pa.array(np.arange(5000), type=pa.int64()),
        "v": pa.array(np.arange(5000) * 2)})).repartition(6)
    keys = rd.from_arrow(pa.table({
        "k": pa.array(np.arange(0, 5000, 100), type=pa.int64())}))
    got = sketches.bloom_semi_join(big, keys, on="k").to_pandas()
    assert sorted(got["k"]) == list(range(0, 5000, 100))
    assert (got.sort_values("k")["v"].to_numpy()
            == np.arange(0, 5000, 100) * 2).all()


def test_grouped_top_n_ties_and_small_groups():
    from prclz_ray.stages import relational
    rows = [
        {"g": "a", "id": 1, "x": 10.0}, {"g": "a", "id": 2, "x": 10.0},
        {"g": "a", "id": 3, "x": 5.0}, {"g": "a", "id": 4, "x": 20.0},
        {"g": "b", "id": 5, "x": 1.0},
    ]
    out = relational.grouped_top_n(
        rd.from_items(rows).repartition(3), key_col="g", order_col="x",
        n=2, id_col="id").to_pandas().sort_values(["g", "rnk"]) \
        .reset_index(drop=True)
    # a: 20 (id4) then the x=10 tie resolves to min id (id1); b: singleton
    assert list(out.g) == ["a", "a", "b"]
    assert list(out.id) == [4, 1, 5]
    assert list(out.rnk) == [1, 2, 1]


def test_sliding_window_contains_each_event_r_times():
    from prclz_ray.stages import relational
    base = np.datetime64("2024-01-01T00:00:00", "us")
    rows = [{"user_id": 1, "ts": base + np.timedelta64(i * 613, "s"),
             "value": 1.0} for i in range(50)]
    out = relational.sliding_window_aggregate(
        rd.from_items(rows).repartition(4), "user_id", "ts", "value",
        window_sec=3600, slide_sec=900).to_pandas()
    # every event appears in exactly window/slide = 4 windows
    assert out["n_events"].sum() == 50 * 4
    # window membership is correct: event at t is inside [w, w+3600)
    epochs = np.array([(r["ts"] - np.datetime64(0, "s"))
                       / np.timedelta64(1, "s") for r in rows])
    for w, cnt in zip(out["window_start"], out["n_events"]):
        inside = ((epochs >= w) & (epochs < w + 3600)).sum()
        assert cnt == inside


def test_running_aggregate_matches_pandas_window(monkeypatch):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import relational
    monkeypatch.setattr(relational, "NUM_BUCKETS", 4)

    rng = np.random.default_rng(11)
    n = 500
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 25, n).astype(np.int64),
        "ts": pd.to_datetime(rng.integers(0, 10_000, n), unit="s"),
        "cents": rng.integers(1, 5_000, n).astype(np.int64),
    })
    out = relational.running_aggregate(
        rd.from_pandas(df).repartition(6), key_col="user_id",
        ts_col="ts", order_col="event_id",
        value_col="cents").to_pandas().sort_values("event_id")
    ref = df.sort_values(["user_id", "ts", "event_id"]).copy()
    g = ref.groupby("user_id", sort=False)
    ref["running_n"] = g.cumcount() + 1
    ref["running_sum"] = g["cents"].cumsum()
    ref = ref.sort_values("event_id")
    assert (out["running_n"].to_numpy()
            == ref["running_n"].to_numpy()).all()
    assert (out["running_sum"].to_numpy()
            == ref["running_sum"].to_numpy()).all()


def test_pivot_counts_matches_crosstab():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import relational

    rng = np.random.default_rng(4)
    df = pd.DataFrame({
        "prio": rng.choice(["hi", "mid", "lo"], 400),
        "status": rng.choice(["A", "B", "C", "D"], 400),
    })
    out = relational.pivot_counts(
        rd.from_pandas(df).repartition(5), row_col="prio",
        col_col="status", col_values=["A", "B", "Z"]).to_pandas() \
        .sort_values("prio").reset_index(drop=True)
    ct = pd.crosstab(df["prio"], df["status"])
    for _, r in out.iterrows():
        assert r["n_A"] == ct.loc[r["prio"], "A"]
        assert r["n_B"] == ct.loc[r["prio"], "B"]
        assert r["n_Z"] == 0  # listed but absent column -> zeros
        assert r["n_total"] == ct.loc[r["prio"]].sum()


def test_grouped_lag_first_row_null_and_gaps(monkeypatch):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import relational
    monkeypatch.setattr(relational, "NUM_BUCKETS", 2)

    df = pd.DataFrame({
        "event_id": [1, 2, 3, 4, 5, 6],
        "user_id": [7, 7, 7, 9, 9, 9],
        "ts": pd.to_datetime([10, 25, 25, 5, 6, 100], unit="s"),
    })
    out = relational.grouped_lag(
        rd.from_pandas(df).repartition(3), key_col="user_id",
        ts_col="ts", order_col="event_id",
        lag_cols=["event_id"]).to_pandas().sort_values("event_id")
    # each user's first event has no predecessor
    assert out["prev_event_id"].isna().tolist() == [True, False, False,
                                                    True, False, False]
    # equal timestamps order by event_id (2 precedes 3)
    assert out.loc[out.event_id == 3, "prev_event_id"].iloc[0] == 2
    assert out.loc[out.event_id == 3, "gap_us"].iloc[0] == 0
    assert out.loc[out.event_id == 6, "gap_us"].iloc[0] == 94_000_000


def test_bucketed_hash_join_outer_keeps_unmatched_sides(monkeypatch):
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import relational
    monkeypatch.setattr(relational, "NUM_BUCKETS", 4)

    left = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3], "a": [10, 20, 30]}))
    right = rd.from_pandas(pd.DataFrame({"k": [2, 3, 4], "b": [200, 300, 400]}))
    out = relational.bucketed_hash_join(left, right, on="k",
                                        how="outer").to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert out["k"].tolist() == [1, 2, 3, 4]  # key coalesced across sides
    assert out["a"].isna().tolist() == [False, False, False, True]
    assert out["b"].isna().tolist() == [True, False, False, False]


def test_approx_quantiles_error_bound_and_invariance():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import sketches

    rng = np.random.default_rng(9)
    vals = np.exp(rng.normal(4, 1.5, 20_000))  # lognormal, heavy tail
    df = pd.DataFrame({"v": vals})
    qs = [0.25, 0.5, 0.9, 0.99]
    out3 = sketches.approx_quantiles(rd.from_pandas(df).repartition(3),
                                     "v", qs, rel_err=0.01).to_pandas()
    out11 = sketches.approx_quantiles(rd.from_pandas(df).repartition(11),
                                      "v", qs, rel_err=0.01).to_pandas()
    # partitioning-invariant: identical sketch -> identical values
    assert out3["value"].tolist() == out11["value"].tolist()
    exact = np.quantile(vals, qs, method="inverted_cdf")
    rel = np.abs(out3["value"].to_numpy() - exact) / exact
    assert (rel <= 0.021).all()  # bin width bound: <= 2*rel_err (+eps)
    assert (out3["n"] == len(vals)).all()


def test_rollup_aggregate_levels():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import relational

    df = pd.DataFrame({
        "a": ["x", "x", "y", "y", "y"],
        "b": ["p", "q", "p", "p", "q"],
        "v": [1.0, 2.0, 4.0, 8.0, 16.0],
    })
    out = relational.rollup_aggregate(
        rd.from_pandas(df).repartition(3), key_cols=["a", "b"],
        value_col="v").to_pandas()
    def row(a, b):
        ma = out["a"].isna() if a is None else (out["a"] == a)
        mb = out["b"].isna() if b is None else (out["b"] == b)
        m = out[ma & mb]
        assert len(m) == 1
        return m.iloc[0]
    assert row("x", "p")["sum_value"] == 1 and row("x", "p")["n"] == 1
    assert row("y", "p")["sum_value"] == 12 and row("y", "p")["n"] == 2
    assert row("x", None)["sum_value"] == 3
    assert row("y", None)["sum_value"] == 28
    assert row(None, None)["sum_value"] == 31 and row(None, None)["n"] == 5
    assert len(out) == 4 + 2 + 1  # finest + per-a + grand total


def test_windowed_distinct_counts():
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import relational

    df = pd.DataFrame({
        "user_id": [1, 1, 2, 3, 1, 1],
        "ts": pd.to_datetime([10, 20, 30, 3610, 3620, 7300], unit="s"),
    })
    out = relational.windowed_distinct(
        rd.from_pandas(df).repartition(3), key_col="user_id",
        ts_col="ts", window_sec=3600).to_pandas().sort_values(
        "window_start").reset_index(drop=True)
    assert out["window_start"].tolist() == [0, 3600, 7200]
    assert out["n_distinct"].tolist() == [2, 2, 1]


def test_cube_aggregate_all_subsets():
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import relational

    df = pd.DataFrame({
        "a": ["x", "x", "y"],
        "b": ["p", "q", "p"],
        "v": [1.0, 2.0, 4.0],
    })
    out = relational.cube_aggregate(
        rd.from_pandas(df).repartition(2), key_cols=["a", "b"],
        value_col="v").to_pandas()
    # 3 finest + 2 per-a + 2 per-b + 1 total = 8 rows
    assert len(out) == 8
    per_b = out[out["a"].isna() & out["b"].notna()].set_index("b")
    assert per_b.loc["p", "sum_value"] == 5 and per_b.loc["p", "n"] == 2
    assert per_b.loc["q", "sum_value"] == 2
    total = out[out["a"].isna() & out["b"].isna()]
    assert total["sum_value"].iloc[0] == 7 and total["n"].iloc[0] == 3


def test_grouped_zscore_both_paths(monkeypatch):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import relational

    df = pd.DataFrame({"id": np.arange(10, dtype=np.int64),
                       "g": [0] * 5 + [1] * 4 + [2],
                       "x": [1.0, 2, 3, 4, 5, 10, 10, 10, 10, 7.5]})
    want = df.groupby("g").x.transform(
        lambda s: (s - s.mean()) / s.std(ddof=1)).round(4)
    for limit in (64 << 20, 0):  # broadcast path, then bucketed fallback
        monkeypatch.setattr(util, "BROADCAST_LIMIT_BYTES", limit)
        out = relational.grouped_zscore(
            rd.from_pandas(df).repartition(3), "g", "x", "id").to_pandas() \
            .sort_values("id").reset_index(drop=True)
        # group 1 has zero variance, group 2 a single row -> both NULL
        assert out.zscore.isna().tolist() == [False] * 5 + [True] * 5
        assert np.allclose(out.zscore[:5], want[:5], atol=0)


def test_global_prefix_sum_matches_ordered_cumsum(monkeypatch):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import relational

    rng = np.random.default_rng(11)
    ids = rng.permutation(500).astype(np.int64)  # arrives unordered
    vals = rng.integers(1, 50, 500).astype(np.int64)
    df = pd.DataFrame({"k": ids, "v": vals})
    want = df.sort_values("k").v.cumsum().to_numpy()
    for parts, nb in ((2, 4), (8, 64)):
        monkeypatch.setattr(relational, "NUM_BUCKETS", nb)
        out = relational.global_prefix_sum(
            rd.from_pandas(df).repartition(parts), "k",
            "v").to_pandas().sort_values("k")
        assert list(out.cum) == list(want)
    # sparse/negative key domain still ordered correctly
    df2 = pd.DataFrame({"k": [-100, 5, 7_000_000, 9], "v": [1, 2, 3, 4]})
    out2 = relational.global_prefix_sum(
        rd.from_pandas(df2), "k", "v").to_pandas().sort_values("k")
    assert list(out2.cum) == [1, 3, 7, 10]


def test_pagerank_matches_dense_reference(monkeypatch):
    import collections

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import graph_ops

    edges = [(0, 1), (1, 2), (2, 0), (0, 2), (3, 0)]
    nodes = [0, 1, 2, 3]  # node 3 has no in-links -> pure teleport rank
    outdeg = collections.Counter(s for s, _ in edges)
    r = np.round(np.full(4, 0.25), 9)
    for _ in range(3):
        c = np.zeros(4)
        for s, d in edges:
            c[d] += r[s] / outdeg[s]
        r = np.round((1.0 - 0.85) / 4 + 0.85 * c, 9)

    # limit 64MB -> broadcast fast path; limit 0 -> V-scale join path
    for parts, limit in ((1, 64 << 20), (4, 64 << 20), (4, 0)):
        e_ds = rd.from_pandas(pd.DataFrame(edges, columns=["src", "dst"])) \
            .repartition(parts)
        n_ds = rd.from_pandas(pd.DataFrame({"v": nodes})).repartition(parts)
        monkeypatch.setattr(util, "BROADCAST_LIMIT_BYTES", limit)
        out = graph_ops.pagerank(e_ds, n_ds, iters=3).to_pandas() \
            .sort_values("v").reset_index(drop=True)
        assert list(out.v) == nodes
        assert np.allclose(out.pagerank, r, atol=0), (out.pagerank, r)
    # in-linkless node holds exactly the teleport term
    assert out.pagerank.iloc[3] == np.round(0.15 / 4, 9)


def test_set_op_intersect_except():
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import relational

    l = rd.from_pandas(pd.DataFrame({"k": [1, 1, 2, 3]})).repartition(2)
    r = rd.from_pandas(pd.DataFrame({"k": [2, 4, 4]})).repartition(2)
    inter = sorted(relational.set_op(l, r, "k", "intersect")
                   .to_pandas().k.tolist())
    exc = sorted(relational.set_op(l, r, "k", "except")
                 .to_pandas().k.tolist())
    assert inter == [2]
    assert exc == [1, 3]
    # distinct semantics: duplicates collapse; except of self is empty
    assert relational.set_op(l, l, "k", "except").to_pandas().empty
    assert sorted(relational.set_op(l, l, "k", "intersect")
                  .to_pandas().k.tolist()) == [1, 2, 3]


def test_new_ops_partition_invariance():
    """Round-3 additions must produce identical results at 2 vs 8 input
    partitions — the property the driver's value-hash gate relies on."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import dedup as dd
    from prclz_ray.stages import relational, text

    rng = np.random.default_rng(42)
    n = 600
    ev = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 20, n).astype(np.int64),
        "ts": pd.to_datetime(rng.integers(0, 50_000, n), unit="s"),
        "cents": rng.integers(1, 999, n).astype(np.int64),
        "cat": rng.choice(["u", "v", "w"], n),
    })
    docs = pd.DataFrame({
        "doc_id": np.arange(80, dtype=np.int64),
        "text": [" ".join(rng.choice(
            ["alpha", "beta", "gamma", "delta", "repeat repeat"], 12))
            for _ in range(80)],
    })

    def norm(df, sort_cols):
        return df.sort_values(sort_cols).reset_index(drop=True)

    def eq(fn, src, sort_cols):
        a = fn(rd.from_pandas(src).repartition(2)).to_pandas()
        b = fn(rd.from_pandas(src).repartition(8)).to_pandas()
        a, b = norm(a, sort_cols), norm(b, sort_cols)
        assert list(a.columns) == list(b.columns)
        for c in a.columns:
            av = ["<null>" if pd.isna(v) else v for v in a[c].tolist()]
            bv = ["<null>" if pd.isna(v) else v for v in b[c].tolist()]
            assert av == bv, c

    eq(lambda d: relational.running_aggregate(
        d, "user_id", "ts", "event_id", "cents"), ev, ["event_id"])
    eq(lambda d: relational.grouped_lag(
        d, "user_id", "ts", "event_id", ["event_id"]), ev, ["event_id"])
    eq(lambda d: relational.pivot_counts(
        d, "cat", "user_id", [0, 1, 2]), ev, ["cat"])
    eq(lambda d: relational.rollup_aggregate(
        d, ["cat", "user_id"], "cents", round_to=0), ev,
       ["cat", "user_id", "n"])
    eq(lambda d: relational.windowed_distinct(
        d, "user_id", "ts", 3600), ev, ["window_start"])
    eq(lambda d: text.posting_lists(d, min_df=2, max_df=100), docs,
       ["word"])
    eq(lambda d: text.tfidf_top_terms(d, top_n=2), docs,
       ["doc_id", "rank"])
    eq(lambda d: dd.duplicate_span_stats(d, k=10, stride=3), docs,
       ["doc_id"])
    eq(lambda d: text.ngram_diversity_stats(d, k=6), docs, ["doc_id"])
    eq(lambda d: dd.decontaminate_ngrams(d, d, n=3), docs, ["doc_id"])
    docs_src = docs.assign(source=(docs.doc_id % 4).map("s{}".format))
    eq(lambda d: dd.domain_boilerplate_stats(
        d, text_col="text", sep=" ", min_frac=0.2), docs_src, ["source"])
    ev_steps = ev.assign(event_type=rng.choice(
        ["click", "purchase", "view"], n))
    eq(lambda d: relational.funnel_conversion(
        d, "user_id", "ts", "event_type", "click", "purchase", 3600),
       ev_steps, ["user_id"])
    eq(lambda d: relational.cohort_retention(d, "user_id", "ts"), ev,
       ["cohort_week", "week_offset"])
    eq(lambda d: relational.grouped_ranks(
        d, "user_id", "cents", "event_id"), ev, ["event_id"])
    eq(lambda d: relational.moving_aggregate(
        d, "user_id", "ts", "event_id", "cents", window_rows=2), ev,
       ["event_id"])


def test_funnel_conversion_matches_reference():
    """Distributed funnel equals a per-user pandas reference, including
    the strict-after / inclusive-bound window edges."""
    rng = np.random.default_rng(7)
    n = 400
    df = pd.DataFrame({
        "user_id": rng.integers(0, 30, n).astype(np.int64),
        "ts": pd.to_datetime(rng.integers(0, 20_000, n), unit="s"),
        "event_type": rng.choice(["click", "purchase", "view"], n),
    })
    # force window edge cases: a purchase exactly at first_ts (excluded)
    # and one exactly at first_ts + window (included)
    df = pd.concat([df, pd.DataFrame({
        "user_id": [100, 100, 101, 101],
        "ts": pd.to_datetime([0, 0, 10, 10 + 3600], unit="s"),
        "event_type": ["click", "purchase", "click", "purchase"],
    })], ignore_index=True)

    got = relational.funnel_conversion(
        rd.from_pandas(df).repartition(5), "user_id", "ts",
        "event_type", "click", "purchase", within_sec=3600) \
        .to_pandas().sort_values("user_id").reset_index(drop=True)

    clicks = df[df.event_type == "click"].groupby("user_id").ts.min()
    purch = df[df.event_type == "purchase"]
    exp = []
    for uid, first in clicks.items():
        p = purch[purch.user_id == uid].ts
        conv = int(((p > first) &
                    (p <= first + pd.Timedelta(seconds=3600))).any())
        exp.append({"user_id": uid, "first_ts": first,
                    "converted": conv})
    exp = pd.DataFrame(exp).sort_values("user_id").reset_index(drop=True)
    assert got.user_id.tolist() == exp.user_id.tolist()
    assert got.first_ts.tolist() == exp.first_ts.tolist()
    assert got.converted.tolist() == exp.converted.tolist()
    assert int(got.loc[got.user_id == 100, "converted"].iloc[0]) == 0
    assert int(got.loc[got.user_id == 101, "converted"].iloc[0]) == 1


def test_cohort_retention_matches_reference():
    rng = np.random.default_rng(11)
    n = 500
    df = pd.DataFrame({
        "user_id": rng.integers(0, 40, n).astype(np.int64),
        "ts": pd.to_datetime(
            rng.integers(0, 6 * 604800, n), unit="s"),
    })
    got = relational.cohort_retention(
        rd.from_pandas(df).repartition(6), "user_id", "ts") \
        .to_pandas().sort_values(["cohort_week", "week_offset"]) \
        .reset_index(drop=True)

    w = df.assign(week=df.ts.astype(np.int64) // (604800 * 10**9))
    cohort = w.groupby("user_id").week.min().rename("cohort_week")
    j = w.join(cohort, on="user_id")
    j["week_offset"] = j.week - j.cohort_week
    exp = j.drop_duplicates(["cohort_week", "week_offset", "user_id"]) \
        .groupby(["cohort_week", "week_offset"]).size() \
        .rename("n_users").reset_index() \
        .sort_values(["cohort_week", "week_offset"]) \
        .reset_index(drop=True)
    assert got.cohort_week.tolist() == exp.cohort_week.tolist()
    assert got.week_offset.tolist() == exp.week_offset.tolist()
    assert got.n_users.tolist() == exp.n_users.tolist()
    # offset 0 row exists for every cohort (the cohorting event itself)
    assert (got.groupby("cohort_week").week_offset.min() == 0).all()


def test_grouped_ntile_tile_sizes():
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import relational

    # n=7, k=3 -> sizes 3,2,2 (front-loaded remainder); n=2, k=4 -> 1,2
    df = pd.DataFrame({
        "k": [1] * 7 + [2] * 2,
        "v": [10, 20, 30, 40, 50, 60, 70, 5, 6],
        "id": list(range(9)),
    })
    out = relational.grouped_ntile(
        rd.from_pandas(df).repartition(3), key_col="k", order_col="v",
        tiebreak_col="id", n_tiles=3).to_pandas()
    g1 = out[out.k == 1].sort_values("v")["tile"].tolist()
    assert g1 == [1, 1, 1, 2, 2, 3, 3]
    g2 = out[out.k == 2].sort_values("v")["tile"].tolist()
    assert g2 == [1, 2]  # n < k: one row per tile


def test_salted_join_equals_plain_join_and_spreads_hot_key():
    # the hot key's spread over reducers at a forced fan-out is checked in
    # tests/test_bucket_fanout.py::test_salted_hot_key_spreads_over_reducers
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import relational

    rng = np.random.default_rng(3)
    n = 2000
    k = np.where(rng.random(n) < 0.85, 0, rng.integers(1, 50, n))
    left = pd.DataFrame({"id": np.arange(n, dtype=np.int64),
                         "k": k.astype(np.int64)})
    right = pd.DataFrame({"k": np.arange(50, dtype=np.int64),
                          "label": np.arange(50, dtype=np.int64) * 3})
    a = relational.salted_join(
        rd.from_pandas(left).repartition(5),
        rd.from_pandas(right).repartition(2), on="k", hot_keys=[0],
        salt=8).to_pandas().sort_values("id").reset_index(drop=True)
    b = relational.bucketed_hash_join(
        rd.from_pandas(left).repartition(5),
        rd.from_pandas(right).repartition(2), on="k") \
        .to_pandas().sort_values("id").reset_index(drop=True)
    assert a[["id", "k", "label"]].to_numpy().tolist() \
        == b[["id", "k", "label"]].to_numpy().tolist()
    # left outer rows with unmatched keys also agree
    ao = relational.salted_join(
        rd.from_pandas(left).repartition(5),
        rd.from_pandas(right.head(10)).repartition(2), on="k",
        hot_keys=[0], salt=4, how="left").to_pandas()
    bo = relational.bucketed_hash_join(
        rd.from_pandas(left).repartition(5),
        rd.from_pandas(right.head(10)).repartition(2), on="k",
        how="left").to_pandas()
    key = ["id"]
    assert ao.sort_values(key)["label"].fillna(-1).tolist() \
        == bo.sort_values(key)["label"].fillna(-1).tolist()
    # an int32 left key against an int64 right key joins as the plain
    # join does (both sides unify the key type before bucketing)
    left32 = left.astype({"k": np.int32})
    am = relational.salted_join(
        rd.from_pandas(left32).repartition(5),
        rd.from_pandas(right).repartition(2), on="k", hot_keys=[0],
        salt=8).to_pandas().sort_values("id").reset_index(drop=True)
    bm = relational.bucketed_hash_join(
        rd.from_pandas(left32).repartition(5),
        rd.from_pandas(right).repartition(2), on="k") \
        .to_pandas().sort_values("id").reset_index(drop=True)
    assert am[["id", "k", "label"]].to_numpy().tolist() \
        == bm[["id", "k", "label"]].to_numpy().tolist() \
        == b[["id", "k", "label"]].to_numpy().tolist()


def test_hash_split_exhaustive_disjoint_and_stable():
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import relational

    df = pd.DataFrame({"k": np.arange(5000, dtype=np.int64)})
    splits = {"train": 800_000, "val": 100_000, "test": 100_000}
    a = relational.hash_split(rd.from_pandas(df).repartition(3),
                              "k", splits).to_pandas()
    b = relational.hash_split(rd.from_pandas(df).repartition(9),
                              "k", splits).to_pandas()
    # exhaustive: every row labeled; disjoint by construction
    assert len(a) == 5000 and a["split"].notna().all()
    # proportions near the ppm weights
    frac = a["split"].value_counts(normalize=True)
    assert abs(frac["train"] - 0.8) < 0.02
    assert abs(frac["val"] - 0.1) < 0.02
    # parallelism-stable assignment
    assert a.sort_values("k")["split"].tolist() \
        == b.sort_values("k")["split"].tolist()
    import pytest
    with pytest.raises(ValueError):
        relational.hash_split(rd.from_pandas(df), "k", {"a": 5})


def test_grouped_approx_quantiles_error_and_invariance():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import sketches

    rng = np.random.default_rng(13)
    n = 30_000
    df = pd.DataFrame({
        "k": rng.integers(0, 5, n).astype(np.int64),
        "v": np.exp(rng.normal(3, 1.0, n)),
    })
    qs = [0.5, 0.9, 0.99]
    a = sketches.grouped_approx_quantiles(
        rd.from_pandas(df).repartition(4), "k", "v", qs, rel_err=0.01)
    b = sketches.grouped_approx_quantiles(
        rd.from_pandas(df).repartition(13), "k", "v", qs, rel_err=0.01)
    ap, bp = a.to_pandas(), b.to_pandas()
    key = ["k", "q"]
    ap = ap.sort_values(key).reset_index(drop=True)
    bp = bp.sort_values(key).reset_index(drop=True)
    assert ap["value"].tolist() == bp["value"].tolist()  # invariant
    for kk, g in ap.groupby("k"):
        vals = df.loc[df.k == kk, "v"].to_numpy()
        exact = np.quantile(vals, qs, method="inverted_cdf")
        rel = np.abs(g.sort_values("q")["value"].to_numpy() - exact) / exact
        assert (rel <= 0.021).all(), kk
        assert (g["n"] == len(vals)).all()


def test_grouped_approx_distinct_error_and_invariance():
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import sketches

    rng = np.random.default_rng(21)
    n = 40_000
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c"], n),
        # distinct cardinality differs per group
        "k": rng.integers(0, 3000, n).astype(np.int64),
    })
    df.loc[df.g == "b", "k"] %= 200
    df.loc[df.g == "c", "k"] %= 37
    a = sketches.grouped_approx_distinct(
        rd.from_pandas(df).repartition(3), "g", "k").to_pandas()
    b = sketches.grouped_approx_distinct(
        rd.from_pandas(df).repartition(11), "g", "k").to_pandas()
    a = a.sort_values("g").reset_index(drop=True)
    b = b.sort_values("g").reset_index(drop=True)
    assert a["approx_distinct"].tolist() == b["approx_distinct"].tolist()
    exact = df.groupby("g")["k"].nunique()
    for _, r in a.iterrows():
        assert abs(r["approx_distinct"] - exact[r["g"]]) \
            <= max(0.03 * exact[r["g"]], 2), r["g"]


def test_grouped_mode_ties_and_counts():
    df = pd.DataFrame({
        "k": [1, 1, 1, 2, 2, 2, 2, 3],
        "v": ["b", "a", "b", "x", "y", "x", "y", "z"],
    })
    out = relational.grouped_mode(
        rd.from_pandas(df).repartition(3), key_col="k", val_col="v") \
        .to_pandas().sort_values("k").reset_index(drop=True)
    # k=1: b wins 2-1; k=2: tie 2-2 -> smallest value x; k=3 singleton
    assert out.mode_value.tolist() == ["b", "x", "z"]
    assert out.n_mode.tolist() == [2, 2, 1]


def test_mixture_sample_hits_targets_and_keeps_binding_stratum():
    rng = np.random.default_rng(21)
    n = {"en": 3000, "de": 600, "fr": 500}
    rows = []
    i = 0
    for s, c in n.items():
        for _ in range(c):
            rows.append({"doc_id": i, "lang": s}); i += 1
    df = pd.DataFrame(rows)
    w = {"en": 0.5, "de": 0.25, "fr": 0.25}
    outs = []
    for parts in (2, 8):
        out = relational.mixture_sample(
            rd.from_pandas(df).repartition(parts), key_col="doc_id",
            strata_col="lang", weights=w).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        outs.append(out)
    a, b = outs
    assert a.equals(b)  # deterministic across parallelism
    got = a.lang.value_counts()
    # binding stratum is fr (500/0.25 = 2000 = T): kept ~fully
    assert got["fr"] >= 480
    # output proportions within sampling noise of the targets
    tot = len(a)
    for s, ws in w.items():
        assert abs(got[s] / tot - ws) < 0.04, (s, got[s] / tot)
    # abundant stratum actually downsampled
    assert got["en"] < 1400


def test_interval_lookup_join_edges_and_left():
    ranges = pa.table({"lo": pa.array([0.0, 10.0, 50.0]),
                       "hi": pa.array([10.0, 50.0, 100.0]),
                       "band": pa.array(["a", "b", "c"])})
    df = pd.DataFrame({"id": np.arange(7),
                       "v": [-1.0, 0.0, 9.999, 10.0, 49.9, 100.0, 55.0]})
    ds = rd.from_pandas(df).repartition(2)
    inner = relational.interval_lookup_join(ds, "v", ranges) \
        .to_pandas().sort_values("id")
    # -1 and 100 (hi-exclusive) drop; boundaries lo-inclusive
    assert inner.id.tolist() == [1, 2, 3, 4, 6]
    assert inner.band.tolist() == ["a", "a", "b", "b", "c"]
    left = relational.interval_lookup_join(ds, "v", ranges, how="left") \
        .to_pandas().sort_values("id")
    assert len(left) == 7
    assert left.band.isna().tolist() == [True, False, False, False,
                                         False, True, False]
    # overlapping ranges rejected
    bad = pa.table({"lo": pa.array([0.0, 5.0]), "hi": pa.array([10.0, 8.0]),
                    "band": pa.array(["x", "y"])})
    import pytest
    with pytest.raises(ValueError):
        relational.interval_lookup_join(ds, "v", bad)


def test_cooccurrence_pairs_matches_reference():
    rng = np.random.default_rng(13)
    df = pd.DataFrame({
        "k": rng.integers(0, 25, 600).astype(np.int64),
        "v": rng.choice(list("abcdef"), 600),
    })
    got = relational.cooccurrence_pairs(
        rd.from_pandas(df).repartition(5), key_col="k", val_col="v") \
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    d = df.drop_duplicates()
    m = d.merge(d, on="k")
    m = m[m.v_x < m.v_y]
    exp = m.groupby(["v_x", "v_y"]).size().rename("n").reset_index() \
        .sort_values(["v_x", "v_y"]).reset_index(drop=True)
    assert got.a.tolist() == exp.v_x.tolist()
    assert got.b.tolist() == exp.v_y.tolist()
    assert got.n_keys.tolist() == exp.n.tolist()


def test_new_ops_tolerate_empty_input():
    """Degenerate shards happen at scale (a filter that drops a whole
    partition, a resume that skips everything): every round-3 operator
    must run on a 0-row dataset without crashing and return 0 rows."""
    ev = pa.table({
        "event_id": pa.array([], type=pa.int64()),
        "user_id": pa.array([], type=pa.int64()),
        "ts": pa.array([], type=pa.timestamp("us")),
        "cents": pa.array([], type=pa.int64()),
        "event_type": pa.array([], type=pa.string()),
    })
    docs = pa.table({"doc_id": pa.array([], type=pa.int64()),
                     "text": pa.array([], type=pa.string())})
    e = rd.from_arrow(ev)
    d = rd.from_arrow(docs)

    from prclz_ray.stages import text as tx

    assert relational.funnel_conversion(
        e, "user_id", "ts", "event_type", "click", "purchase",
        3600).count() == 0
    assert relational.cohort_retention(e, "user_id", "ts").count() == 0
    assert relational.grouped_ranks(
        e, "user_id", "cents", "event_id").count() == 0
    assert relational.moving_aggregate(
        e, "user_id", "ts", "event_id", "cents", 3).count() == 0
    assert relational.grouped_mode(
        e, "user_id", "event_type").count() == 0
    assert relational.cooccurrence_pairs(
        e, "user_id", "event_type").count() == 0
    ranges = pa.table({"lo": pa.array([0.0]), "hi": pa.array([1.0]),
                       "band": pa.array(["x"])})
    assert relational.interval_lookup_join(
        e.map_batches(lambda t: t.append_column(
            "value", pa.array(np.zeros(len(t)))),
            batch_format="pyarrow"),
        "value", ranges).count() == 0
    assert tx.chunk_documents(d).count() == 0
    assert tx.reassemble_chunks(rd.from_arrow(pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "chunk_idx": pa.array([], type=pa.int64()),
        "chunk_text": pa.array([], type=pa.string())}))).count() == 0
    assert d.map_batches(tx.char_entropy_batch,
                         batch_format="pyarrow").count() == 0
    assert tx.bigram_lm_scores(d).count() == 0


def test_grouped_regression_matches_duckdb():
    import duckdb
    rng = np.random.default_rng(3)
    n = 8000
    k = rng.integers(0, 5, n)
    x = rng.standard_normal(n) * 4 + 10
    y = 2.5 * x - 7 + rng.standard_normal(n) * 3
    tbl = pa.table({"k": pa.array(k, type=pa.int64()),
                    "x": pa.array(x), "y": pa.array(y)})
    got = relational.grouped_regression(
        rd.from_arrow(tbl).repartition(7), "k", "x", "y")
    want = duckdb.connect().execute(
        "SELECT k, COUNT(*) n, ROUND(REGR_SLOPE(y,x),4) s, "
        "ROUND(REGR_INTERCEPT(y,x),4) i FROM tbl GROUP BY k ORDER BY k"
    ).fetchdf()
    assert got.n.tolist() == want.n.tolist()
    assert got.slope.tolist() == want.s.tolist()
    assert got.intercept.tolist() == want.i.tolist()


def test_exact_size_sample_properties():
    df = pd.DataFrame({"doc_id": np.arange(1000, dtype=np.int64),
                       "v": np.arange(1000)})
    outs = []
    for parts in (2, 9):
        out = relational.exact_size_sample(
            rd.from_pandas(df).repartition(parts), "doc_id", n=50)
        outs.append(sorted(out["doc_id"].to_pylist()))
    assert outs[0] == outs[1]  # partition-invariant
    assert len(outs[0]) == 50 == len(set(outs[0]))  # exact size, no dup
    # a disjoint seed gives a (almost surely) different sample
    other = relational.exact_size_sample(
        rd.from_pandas(df).repartition(3), "doc_id", n=50, seed=7)
    assert sorted(other["doc_id"].to_pylist()) != outs[0]
    # n >= rows degenerates to the full set
    allr = relational.exact_size_sample(
        rd.from_pandas(df.head(30)).repartition(2), "doc_id", n=50)
    assert sorted(allr["doc_id"].to_pylist()) == list(range(30))


def test_profile_columns_with_nulls():
    df = pd.DataFrame({"a": [1.0, None, 3.0, None, 5.0],
                       "b": [10, 20, 30, 40, 50]})
    out = relational.profile_columns(
        rd.from_pandas(df).repartition(2), ["a", "b"]).to_pandas() \
        .set_index("column")
    assert out.loc["a", "n"] == 3 and out.loc["a", "n_null"] == 2
    assert out.loc["a", "min_val"] == 1.0 and out.loc["a", "max_val"] == 5.0
    assert out.loc["b", "n"] == 5 and out.loc["b", "n_null"] == 0
    assert out.loc["b", "max_val"] == 50.0


def test_triangle_count_known_graphs():
    from prclz_ray.stages import graph_ops

    def count(edge_list, parts=3):
        t = pa.table({"src": pa.array([a for a, b in edge_list],
                                      type=pa.int64()),
                      "dst": pa.array([b for a, b in edge_list],
                                      type=pa.int64())})
        return graph_ops.triangle_count(rd.from_arrow(t)
                                        .repartition(parts))

    # K4 has 4 triangles; duplicate + reversed + self-loop edges ignored
    k4 = [(a, b) for a in range(4) for b in range(4) if a < b]
    assert count(k4) == 4
    assert count(k4 + [(1, 0), (2, 2), (0, 1)]) == 4
    # a 5-cycle has none; adding one chord makes exactly one
    c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    assert count(c5) == 0
    assert count(c5 + [(0, 2)]) == 1


def test_triangle_count_skewed_star_bounded(monkeypatch):
    """A star graph (one high-degree hub) must complete with a bounded
    wedge table: degree-ordered orientation gives every leaf out-degree 1
    and the hub out-degree 0, so wedges = 0 — not C(deg, 2) ≈ 5·10⁶ as
    naive common-neighbor counting would emit."""
    import numpy as np

    from prclz_ray.stages import graph_ops

    n = 3000  # hub 0 connected to 1..n
    leaves = np.arange(1, n + 1, dtype=np.int64)
    t = pa.table({"src": pa.array(np.zeros(n, dtype=np.int64)),
                  "dst": pa.array(leaves)})
    assert graph_ops.triangle_count(rd.from_arrow(t).repartition(4)) == 0

    # close two leaf pairs into triangles: the count stays exact
    extra = pa.table({"src": pa.array([1, 3], type=pa.int64()),
                      "dst": pa.array([2, 4], type=pa.int64())})
    ds = rd.from_arrow(pa.concat_tables([t, extra])).repartition(4)
    assert graph_ops.triangle_count(ds) == 2

    # V-scale fallback path (broadcast budget forced to 0) agrees
    monkeypatch.setattr(util, "BROADCAST_LIMIT_BYTES", 0)
    assert graph_ops.triangle_count(ds) == 2


def test_skyline_matches_bruteforce_with_frontier_ties():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from prclz_ray.stages import relational as r

    rng = np.random.default_rng(11)
    price = rng.integers(0, 12, 400).astype(float)
    date = rng.integers(0, 12, 400).astype(float)
    # force duplicated frontier twins: two copies of the global best
    price[0] = price[1] = 99.0
    date[0] = date[1] = -5.0
    ds = rd.from_arrow(pa.table({
        "id": pa.array(range(400), type=pa.int64()),
        "p": price, "d": date})).repartition(8)
    got = sorted(r.skyline(ds, "p", "d", ["id"]).to_pandas()["id"])

    def dominated(i):
        return any(price[j] >= price[i] and date[j] <= date[i]
                   and (price[j] > price[i] or date[j] < date[i])
                   for j in range(400))

    exp = [i for i in range(400) if not dominated(i)]
    assert got == exp
    assert {0, 1} <= set(got)


def test_hits_star_and_path_paths_agree(monkeypatch):
    """HITS on a directed star (hub → leaves): the hub is the unique
    max hub (score 1.0), leaves are the max authorities.  Broadcast and
    V-scale join legs must agree exactly (max-normalized + rounded)."""
    import numpy as np

    from prclz_ray.stages import graph_ops

    src = np.zeros(5, dtype=np.int64)
    dst = np.arange(1, 6, dtype=np.int64)
    edges = pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    nodes = pa.table({"v": pa.array(np.arange(6, dtype=np.int64))})

    def run(limit):
        monkeypatch.setattr(util, "BROADCAST_LIMIT_BYTES", limit)
        out = graph_ops.hits(rd.from_arrow(edges).repartition(2),
                             rd.from_arrow(nodes).repartition(2),
                             iters=2) \
            .to_pandas().sort_values("v").reset_index(drop=True)
        return out

    bc = run(64 << 20)
    assert bc.loc[bc.v == 0, "hub"].iloc[0] == 1.0
    assert bc.loc[bc.v == 0, "authority"].iloc[0] == 0.0
    assert (bc.loc[bc.v > 0, "authority"] == 1.0).all()
    assert (bc.loc[bc.v > 0, "hub"] == 0.0).all()

    js = run(0)
    pd.testing.assert_frame_equal(bc, js[["v", "hub", "authority"]])


def test_label_propagation_two_cliques_paths_agree(monkeypatch):
    """Two triangles joined by one bridge edge: after 2 deterministic
    rounds every node carries its triangle's min label; broadcast and
    BSP join legs agree."""
    import numpy as np

    from prclz_ray.stages import graph_ops

    e = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
    edges = pa.table({"src": pa.array([a for a, b in e], type=pa.int64()),
                      "dst": pa.array([b for a, b in e], type=pa.int64())})
    nodes = pa.table({"v": pa.array(np.arange(6, dtype=np.int64))})

    def run(limit):
        monkeypatch.setattr(util, "BROADCAST_LIMIT_BYTES", limit)
        return graph_ops.label_propagation(
            rd.from_arrow(edges).repartition(3),
            rd.from_arrow(nodes).repartition(2), iters=2) \
            .to_pandas().sort_values("v").reset_index(drop=True)

    bc = run(64 << 20)
    js = run(0)
    pd.testing.assert_frame_equal(bc, js[["v", "label"]])
    # deterministic: labels are drawn from node ids
    assert set(bc["label"]).issubset(set(range(6)))


def test_bucketed_join_null_keys_never_match(monkeypatch):
    """SQL semantics pin for the Acero per-bucket merge: null join keys
    match NOTHING (a pandas merge would pair NaN with NaN) — inner drops
    them, left keeps them unmatched."""
    monkeypatch.setattr(relational, "NUM_BUCKETS", 4)
    left = pa.table({"k": pa.array([1, 2, None, None], type=pa.int64()),
                     "a": pa.array([10, 20, 30, 40])})
    right = pa.table({"k": pa.array([1, None], type=pa.int64()),
                      "b": pa.array([100, 200])})
    inner = relational.bucketed_hash_join(
        rd.from_arrow(left).repartition(2),
        rd.from_arrow(right).repartition(2), on="k").to_pandas()
    assert sorted(inner["a"]) == [10]
    lo = relational.bucketed_hash_join(
        rd.from_arrow(left).repartition(2),
        rd.from_arrow(right).repartition(2), on="k",
        how="left").to_pandas().sort_values("a")
    assert list(lo["a"]) == [10, 20, 30, 40]
    assert lo["b"].notna().tolist() == [True, False, False, False]


def test_bucketed_join_combine_hook_full_aggregate_on_join_key(
        monkeypatch):
    """combine= runs inside the bucket task; a groupby on the JOIN key
    there is a full aggregate (every key occurrence is in one bucket)."""
    monkeypatch.setattr(relational, "NUM_BUCKETS", 4)
    import pyarrow.compute as pc
    left = pa.table({"k": pa.array([1, 1, 2, 2, 3], type=pa.int64()),
                     "v": pa.array([1, 2, 3, 4, 5], type=pa.int64())})
    right = pa.table({"k": pa.array([1, 2, 3], type=pa.int64()),
                      "w": pa.array([10, 20, 30], type=pa.int64())})

    def comb(t: pa.Table) -> pa.Table:
        g = t.group_by("k").aggregate([("v", "sum"), ("w", "max")])
        return pa.table({"k": g["k"], "sv": g["v_sum"],
                         "mw": g["w_max"]})

    out = relational.bucketed_hash_join(
        rd.from_arrow(left).repartition(3),
        rd.from_arrow(right).repartition(2), on="k",
        combine=comb).to_pandas().sort_values("k")
    assert list(out["k"]) == [1, 2, 3]
    assert list(out["sv"]) == [3, 7, 5]
    assert list(out["mw"]) == [10, 20, 30]


def test_worker_cached_builds_once_and_evicts_stale_kind():
    calls = []
    r1 = util.worker_cached(("kind_a", "ref1"),
                            lambda: calls.append(1) or "v1")
    r2 = util.worker_cached(("kind_a", "ref1"),
                            lambda: calls.append(2) or "v1b")
    assert r1 == r2 == "v1" and calls == [1]      # cached, not rebuilt
    r3 = util.worker_cached(("kind_a", "ref2"),
                            lambda: calls.append(3) or "v2")
    assert r3 == "v2"
    # stale same-kind entry evicted: re-asking for ref1 rebuilds
    r4 = util.worker_cached(("kind_a", "ref1"),
                            lambda: calls.append(4) or "v1c")
    assert r4 == "v1c" and calls == [1, 3, 4]
    # other kinds untouched
    util.worker_cached(("kind_b", "x"), lambda: "b1")
    assert util.worker_cached(("kind_b", "x"), lambda: "b2") == "b1"

    # cached_callable rides the same cache, keyed by class + kwargs
    import ray

    class Stage:
        built = []

        def __init__(self, ref):
            Stage.built.append(ref)

        def __call__(self, batch):
            return self

    ref1, ref2 = ray.put(1), ray.put(2)
    s1 = util.cached_callable(Stage, ref=ref1)(None)
    assert util.cached_callable(Stage, ref=ref1)(None) is s1
    assert Stage.built == [ref1]
    s2 = util.cached_callable(Stage, ref=ref2)(None)
    assert s2 is not s1 and Stage.built == [ref1, ref2]
    kind = (Stage.__module__, Stage.__qualname__)
    assert sum(k[0] == kind for k in util._WORKER_STATE) == 1
    # ref1's object was evicted by ref2's: asking again rebuilds it
    assert util.cached_callable(Stage, ref=ref1)(None) is not s1
    assert Stage.built == [ref1, ref2, ref1]


def test_bucketed_join_randomized_parity_with_duckdb(monkeypatch):
    """Core-infra pin: the Acero bucketed join must match DuckDB on
    random data with NULL keys, duplicate keys, and int32-vs-int64 key
    dtype promotion, for inner/left/outer."""
    import duckdb

    monkeypatch.setattr(relational, "NUM_BUCKETS", 8)

    rng = np.random.default_rng(43)
    n = 2000
    lk = rng.integers(0, 300, n).astype(np.int64)
    lnull = rng.random(n) < 0.05
    left = pa.table({
        "k": pa.array([None if m else int(v)
                       for v, m in zip(lk, lnull)], type=pa.int64()),
        "a": pa.array(rng.integers(0, 10**6, n))})
    rk = rng.integers(0, 300, 400)
    rnull = rng.random(400) < 0.05
    right = pa.table({
        "k": pa.array([None if m else int(v)
                       for v, m in zip(rk, rnull)], type=pa.int32()),
        "b": pa.array(rng.integers(0, 10**6, 400))})

    con = duckdb.connect()
    con.register("l", left.to_pandas())
    con.register("r", right.to_pandas())
    for how, sql_join in [("inner", "JOIN"), ("left", "LEFT JOIN"),
                          ("outer", "FULL OUTER JOIN")]:
        got = relational.bucketed_hash_join(
            rd.from_arrow(left).repartition(5),
            rd.from_arrow(right).repartition(3), on="k",
            how=how).to_pandas()
        want = con.execute(
            f"SELECT l.a AS a, r.b AS b FROM l {sql_join} r "
            "ON l.k = r.k").fetchdf()
        ga = sorted((-1 if a != a else int(a),
                     -1 if b != b else int(b))
                    for a, b in zip(got["a"].fillna(-1),
                                    got["b"].fillna(-1)))
        wa = sorted((-1 if a != a else int(a),
                     -1 if b != b else int(b))
                    for a, b in zip(want["a"].fillna(-1),
                                    want["b"].fillna(-1)))
        assert ga == wa, how


def test_bfs_hops_both_legs_match_reference():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import graph_ops

    rng = np.random.default_rng(7)
    n = 120
    src = rng.integers(0, n, 400)
    dst = rng.integers(0, n, 400)
    seeds = np.array([0, 1, 2])

    # python BFS reference (min hops, 3 rounds)
    adj = {}
    for s, d in zip(src, dst):
        adj.setdefault(int(s), set()).add(int(d))
    dist = {int(s): 0 for s in seeds}
    frontier = set(int(s) for s in seeds)
    for r in range(1, 4):
        nxt = set()
        for v in frontier:
            for w in adj.get(v, ()):
                if w not in dist:
                    dist[w] = r
                    nxt.add(w)
        frontier = nxt
    want = sorted(dist.items())

    for parts, approx_n in ((1, None), (4, None), (4, 1 << 60)):
        e_ds = rd.from_pandas(pd.DataFrame({"src": src, "dst": dst})) \
            .repartition(parts)
        s_ds = rd.from_pandas(pd.DataFrame({"v": seeds})).repartition(parts)
        out = graph_ops.bfs_hops(e_ds, s_ds, rounds=3,
                                 approx_num_nodes=approx_n).to_pandas() \
            .sort_values("v").reset_index(drop=True)
        got = list(zip(out["v"].astype(int), out["hops"].astype(int)))
        assert got == want, (parts, approx_n)


def test_bfs_hops_frontier_exhausts_early():
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import graph_ops

    # 0 -> 1, nothing else: frontier empties after round 1 on both legs
    e_ds = rd.from_pandas(pd.DataFrame({"src": [0], "dst": [1]}))
    s_ds = rd.from_pandas(pd.DataFrame({"v": [0]}))
    for approx_n in (None, 1 << 60):
        out = graph_ops.bfs_hops(e_ds, s_ds, rounds=5,
                                 approx_num_nodes=approx_n).to_pandas() \
            .sort_values("v").reset_index(drop=True)
        assert list(zip(out["v"], out["hops"])) == [(0, 0), (1, 1)]


def test_ewma_bounded_matches_quadratic_reference_any_partitioning():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import relational

    rng = np.random.default_rng(11)
    n = 500
    df = pd.DataFrame({
        "k": rng.integers(0, 7, n),
        "ts": rng.permutation(n).astype("datetime64[s]"),
        "id": np.arange(n),
        "v": rng.integers(0, 100_000, n),
    })

    # O(n^2) reference: normalized dyadic-weight window of 24 rows
    ref = {}
    for k, g in df.sort_values(["k", "ts", "id"]).groupby("k"):
        v = g["v"].to_numpy(dtype=np.float64)
        for i, rid in enumerate(g["id"]):
            lo = max(0, i - 23)
            w = 0.5 ** np.arange(i - lo, -1, -1.0)
            ref[rid] = float((v[lo:i + 1] * w).sum() / w.sum())

    for parts in (1, 3, 16):
        out = relational.ewma_bounded(
            rd.from_pandas(df).repartition(parts), key_col="k",
            ts_col="ts", order_col="id", value_col="v",
            window_rows=24).to_pandas()
        got = dict(zip(out["id"], out["ewma"]))
        assert len(got) == n
        # dyadic arithmetic -> bit-exact equality, not allclose
        assert all(got[i] == ref[i] for i in range(n)), parts


def test_salted_join_null_keys_never_match():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import relational

    import pyarrow as pa
    left = pa.table({"id": pa.array([0, 1, 2, 3], type=pa.int64()),
                     "k": pa.array([0, None, 2, None], type=pa.int64())})
    right = pa.table({"k": pa.array([0, None, 2], type=pa.int64()),
                      "label": pa.array([10, 11, 12], type=pa.int64())})
    out = relational.salted_join(
        rd.from_arrow(left), rd.from_arrow(right), on="k",
        hot_keys=[0], salt=4).to_pandas().sort_values("id")
    # SQL semantics: null keys never match (ids 1 and 3 drop)
    assert out["id"].tolist() == [0, 2]
    assert out["label"].tolist() == [10, 12]
    # left outer keeps the null-key rows with null label
    outl = relational.salted_join(
        rd.from_arrow(left), rd.from_arrow(right), on="k",
        hot_keys=[0], salt=4, how="left").to_pandas() \
        .sort_values("id").reset_index(drop=True)
    assert outl["id"].tolist() == [0, 1, 2, 3]
    assert outl["label"].fillna(-1).tolist() == [10, -1, 12, -1]


def test_sssp_both_legs_match_bellman_ford_reference():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import graph_ops

    rng = np.random.default_rng(13)
    n = 100
    src = rng.integers(0, n, 300)
    dst = rng.integers(0, n, 300)
    w = rng.integers(1, 10, 300)
    seeds = np.array([0, 5])

    INF = 1 << 60
    d = {int(s): 0 for s in seeds}
    for _ in range(3):                      # 3 bounded relaxation rounds
        nd = dict(d)
        for s, t, ww in zip(src, dst, w):
            s, t, ww = int(s), int(t), int(ww)
            if s in d and d[s] + ww < nd.get(t, INF):
                nd[t] = d[s] + ww
        d = nd
    want = sorted(d.items())

    for parts, approx_n in ((1, None), (4, None), (4, 1 << 60)):
        e_ds = rd.from_pandas(
            pd.DataFrame({"src": src, "dst": dst, "w": w})) \
            .repartition(parts)
        s_ds = rd.from_pandas(pd.DataFrame({"v": seeds})).repartition(parts)
        out = graph_ops.sssp_rounds(e_ds, s_ds, rounds=3,
                                    approx_num_nodes=approx_n) \
            .to_pandas().sort_values("v").reset_index(drop=True)
        got = list(zip(out["v"].astype(int), out["dist"].astype(int)))
        assert got == want, (parts, approx_n)


def test_k_core_both_legs_match_reference(monkeypatch):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import graph_ops

    rng = np.random.default_rng(11)
    n = 80
    src = rng.integers(0, n, 400)
    dst = rng.integers(0, n, 400)
    K, R = 3, 3

    # python peel reference
    edges = {(int(a), int(b)) for a, b in zip(src, dst) if a != b}
    edges |= {(b, a) for a, b in edges}
    surv = set()
    for _ in range(R):
        deg = {}
        for a, _b in edges:
            deg[a] = deg.get(a, 0) + 1
        surv = {v for v, c in deg.items() if c >= K}
        edges = {(a, b) for a, b in edges if a in surv and b in surv}
    fdeg = {}
    for a, _b in edges:
        fdeg[a] = fdeg.get(a, 0) + 1
    want = sorted((v, fdeg.get(v, 0)) for v in surv)

    for parts, blim in ((1, 64 << 20), (4, 64 << 20), (4, 0)):
        e_ds = rd.from_pandas(pd.DataFrame({"src": src, "dst": dst})) \
            .repartition(parts)
        monkeypatch.setattr(util, "BROADCAST_LIMIT_BYTES", blim)
        out = graph_ops.k_core(e_ds, k=K, rounds=R).to_pandas() \
            .sort_values("v").reset_index(drop=True)
        got = list(zip(out["v"].astype(int), out["deg"].astype(int)))
        assert got == want, (parts, blim)


def test_local_clustering_matches_reference_both_legs(monkeypatch):
    import itertools

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import graph_ops

    rng = np.random.default_rng(5)
    n = 40
    src = rng.integers(0, n, 200)
    dst = rng.integers(0, n, 200)

    adj = {}
    for s, d in zip(src, dst):
        s, d = int(s), int(d)
        if s == d:
            continue
        adj.setdefault(s, set()).add(d)
        adj.setdefault(d, set()).add(s)
    want = {}
    for v, nb in adj.items():
        deg = len(nb)
        tri = sum(1 for a, b in itertools.combinations(sorted(nb), 2)
                  if b in adj.get(a, ()))
        D = deg * (deg - 1)
        cc = (2 * (2 * tri * 10 ** 9) + D) // (2 * D) if deg >= 2 else 0
        want[v] = (tri, deg, cc)

    for parts, blim in ((1, 64 << 20), (4, 0)):
        e_ds = rd.from_pandas(pd.DataFrame({"src": src, "dst": dst})) \
            .repartition(parts)
        monkeypatch.setattr(util, "BROADCAST_LIMIT_BYTES", blim)
        out = graph_ops.local_clustering(e_ds).to_pandas()
        got = {int(r.v): (int(r.tri), int(r.deg), int(r.cc_nano))
               for r in out.itertuples()}
        assert got == want, (parts, blim)


def test_local_clustering_star_graph_zero_cc():
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import graph_ops

    # pure star: hub 0 with 50 leaves — no triangles anywhere, and the
    # wedge explosion must stay bounded (orientation gives the hub
    # out-degree 0)
    leaves = list(range(1, 51))
    e_ds = rd.from_pandas(pd.DataFrame(
        {"src": [0] * 50, "dst": leaves}))
    out = graph_ops.local_clustering(e_ds).to_pandas()
    assert int(out["tri"].sum()) == 0
    assert int(out["cc_nano"].sum()) == 0
    hub = out[out["v"] == 0].iloc[0]
    assert int(hub["deg"]) == 50


def test_adaptive_join_detection_and_parity():
    """Hot key detected on the skewed side -> salted plan; uniform keys
    -> plain plan; both produce exactly the bucketed join's result."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from prclz_ray.stages import relational

    rng = np.random.default_rng(3)
    n = 4000
    # 70% of rows on key 42, rest uniform over 1000 keys
    hotmask = rng.random(n) < 0.7
    k = np.where(hotmask, 42, rng.integers(0, 1000, n)).astype(np.int64)
    left = pd.DataFrame({"k": k, "v": np.arange(n)})
    right = pd.DataFrame({"k": np.arange(1000, dtype=np.int64)})
    right["w"] = right["k"] * 3

    l_ds = rd.from_pandas(left).repartition(4)
    r_ds = rd.from_pandas(right).repartition(2)

    hot = relational.detect_hot_keys(l_ds.materialize(), "k",
                                     hot_fraction=0.02)
    assert 42 in hot and len(hot) <= 5

    got = relational.adaptive_join(l_ds, r_ds, on="k").to_pandas() \
        .sort_values(["v"]).reset_index(drop=True)
    want = relational.bucketed_hash_join(l_ds, r_ds, on="k") \
        .to_pandas().sort_values(["v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)])

    # uniform side: nothing detected, plain path, same parity
    u = pd.DataFrame({"k": rng.integers(0, 1000, n).astype(np.int64),
                      "v": np.arange(n)})
    u_ds = rd.from_pandas(u).repartition(4).materialize()
    assert relational.detect_hot_keys(u_ds, "k", hot_fraction=0.02) == []
    got2 = relational.adaptive_join(u_ds, r_ds, on="k").to_pandas() \
        .sort_values(["v"]).reset_index(drop=True)
    want2 = relational.bucketed_hash_join(u_ds, r_ds, on="k") \
        .to_pandas().sort_values(["v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got2[sorted(got2.columns)], want2[sorted(want2.columns)])


def test_joins_over_mapped_inputs_run_no_limit_probe(monkeypatch):
    """The shuffle joins and ds_to_table over inputs whose schema is not
    known up front (mapped datasets) run no ``limit(1)`` schema probe: the
    probe's cancel of in-flight tasks is what trips the Ray driver race
    (``relational.with_schema``)."""
    from ray.data._internal.logical.operators.one_to_one_operator import \
        Limit
    from ray.data._internal.plan import ExecutionPlan

    monkeypatch.setattr(relational, "NUM_BUCKETS", 4)
    probes = []
    for name in ("execute", "execute_to_iterator"):
        orig = getattr(ExecutionPlan, name)

        def counted(self, *a, _orig=orig, **kw):
            if isinstance(self._logical_plan.dag, Limit):
                probes.append(self._logical_plan.dag)
            return _orig(self, *a, **kw)
        monkeypatch.setattr(ExecutionPlan, name, counted)

    def mapped(df):
        return rd.from_pandas(df).repartition(3).map_batches(
            lambda t: t, batch_format="pyarrow")

    n = np.arange(40)
    left = pd.DataFrame({"k": n % 7, "t": n, "a": n * 10})
    right = pd.DataFrame({"k": np.arange(7), "t": np.arange(7) * 5,
                          "b": np.arange(7) * 100})
    inner = relational.ds_to_table(relational.bucketed_hash_join(
        mapped(left), mapped(right), on="k")).to_pandas()
    semi = relational.ds_to_table(relational.bucketed_semi_join(
        mapped(left), mapped(right[right.k < 3]), on="k")).to_pandas()
    band = relational.ds_to_table(relational.band_join(
        mapped(left), mapped(right), on="t", radius=2)).to_pandas()
    assert probes == []

    assert len(inner) == 40 and (inner["b"] == inner["k"] * 100).all()
    assert sorted(semi["t"]) == [t for t in n if t % 7 < 3]
    assert len(band) == sum(abs(lt - rt) <= 2
                            for lt in left["t"] for rt in right["t"])


def test_embedding_queries_run_no_limit_plan(monkeypatch, tmp_path):
    """``q_embedding_centroid_drift`` and ``q_embedding_isotropy_audit``
    take the embedding dimension from their partials' ``s{d}`` columns:
    no plan they execute holds a ``Limit`` (the counter of
    ``test_joins_over_mapped_inputs_run_no_limit_probe``, widened to any
    operator of the plan, not only its root)."""
    import pyarrow.parquet as pq
    from ray.data._internal.logical.operators.one_to_one_operator import \
        Limit
    from ray.data._internal.plan import ExecutionPlan

    from prclz_ray.pipelines.queries import (q_embedding_centroid_drift,
                                             q_embedding_isotropy_audit)

    limits = []
    for name in ("execute", "execute_to_iterator"):
        orig = getattr(ExecutionPlan, name)

        def counted(self, *a, _orig=orig, **kw):
            limits.extend(op for op in
                          self._logical_plan.dag.post_order_iter()
                          if isinstance(op, Limit))
            return _orig(self, *a, **kw)
        monkeypatch.setattr(ExecutionPlan, name, counted)

    rng = np.random.default_rng(3)
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(24, dtype=np.int64)),
        "embedding": pa.array(rng.normal(size=(24, 5)).tolist(),
                              type=pa.list_(pa.float32())),
        "label": pa.array(np.arange(24) % 3, type=pa.int32())}),
        tmp_path / "embeddings.parquet")
    drift = q_embedding_centroid_drift(str(tmp_path))
    iso = q_embedding_isotropy_audit(str(tmp_path))
    assert limits == []
    assert sorted(drift["label"]) == [0, 1, 2]
    assert len(iso) == 1


def test_bucketed_semi_join_across_key_types(monkeypatch):
    """The shuffle semi/anti join buckets and probes both sides at the
    permissive union of their key types, so it returns what the
    broadcast ``semi_join`` returns when the key types differ (int64
    against float64 used to meet in the wrong buckets: 1 row of 20), and
    the output keeps the big side's key type."""
    monkeypatch.setattr(relational, "NUM_BUCKETS", 8)
    keys = np.arange(20)
    for big_t, key_t in ((pa.int32(), pa.int64()),
                         (pa.int64(), pa.float64())):
        big = pa.table({"k": pa.array(keys, type=big_t),
                        "v": pa.array(keys * 10)})
        kt = pa.table({"k": pa.array(keys[::2], type=key_t)})
        for anti in (False, True):
            got = relational.ds_to_table(relational.bucketed_semi_join(
                rd.from_arrow(big), rd.from_arrow(kt), on="k",
                anti=anti))
            want = relational.ds_to_table(relational.semi_join(
                rd.from_arrow(big), kt, on="k", anti=anti))
            assert got.schema.field("k").type == big_t
            assert sorted(got["v"].to_pylist()) \
                == sorted(want["v"].to_pylist()) \
                == [v for v in keys * 10 if (v // 10 % 2 == 1) == anti]


def test_stable_bucket_ignores_nulls_in_int_keys():
    """A null in an int key column does not move the other keys of its
    batch: Arrow's ``to_numpy`` would turn the column into float64, which
    hashes apart from the same values in a null-free batch."""
    ref = relational.stable_bucket(pa.array([1, 2, 3, 40]), 64)
    with_null = relational.stable_bucket(pa.array([1, 2, None, 3, 40]), 64)
    assert list(np.delete(with_null, 2)) == list(ref)


def _budget_case_corpus() -> pd.DataFrame:
    rng = np.random.default_rng(17)
    return pd.DataFrame({
        "doc_id": np.arange(40, dtype=np.int64),
        "text": [" ".join(rng.choice(
            ["alpha", "beta", "gamma", "delta", "repeat repeat"], 10))
            for _ in range(40)],
    })


def _budget_case_graph(weighted: bool = False):
    rng = np.random.default_rng(19)
    cols = {"src": rng.integers(0, 40, 120), "dst": rng.integers(0, 40, 120)}
    if weighted:
        cols["w"] = rng.integers(1, 10, 120)
    return (rd.from_pandas(pd.DataFrame(cols)).repartition(3),
            rd.from_pandas(pd.DataFrame({"v": [0, 1]})))


@functools.lru_cache(maxsize=1)
def _reblock_inputs():
    """(blocks, parcels, buildings) of the synthetic fixture, built once
    at the default budget: only ``reblock_pipeline`` runs under both."""
    from prclz_ray.io import synth
    from prclz_ray.stages.blocks import extract_blocks
    from prclz_ray.stages.parcels import parcels_pipeline

    blocks = pa.Table.from_pylist(
        extract_blocks(rd.from_arrow(synth.regions_table()),
                       rd.from_arrow(synth.lines_table())).take_all())
    bldgs = synth.buildings_table()
    parcels = pa.Table.from_pylist(parcels_pipeline(
        blocks, rd.from_arrow(bldgs)).take_all())
    return blocks, parcels, bldgs


def _budget_reblock():
    from prclz_ray.stages.reblock import reblock_pipeline

    blocks, parcels, bldgs = _reblock_inputs()
    return reblock_pipeline(blocks, rd.from_arrow(parcels),
                            rd.from_arrow(bldgs)).select_columns(
        ["block_id", "road_type", "geometry", "bldg_count"])


@functools.lru_cache(maxsize=1)
def _budget_case_catalog() -> str:
    """A directory of tiny parquet tables holding the integer key columns
    ``q_join_discovery_scan`` reads, with overlapping value ranges."""
    import tempfile

    import pyarrow.parquet as pq

    root = tempfile.mkdtemp(prefix="join_discovery_")
    rng = np.random.default_rng(29)
    cols = {"orders": {"o_custkey": (1, 40)},
            "customer": {"c_custkey": (1, 50)},
            "lineitem": {"l_partkey": (1, 30), "l_suppkey": (1, 10)},
            "part": {"p_partkey": (1, 30)},
            "supplier": {"s_suppkey": (1, 12)},
            "events": {"user_id": (20, 70)}}
    for tbl, spec in cols.items():
        pq.write_table(pa.table({
            c: rng.integers(lo, hi + 1, 60).astype(np.int64)
            for c, (lo, hi) in spec.items()}), f"{root}/{tbl}.parquet")
    return root


def _budget_cases():
    from prclz_ray.pipelines.queries import q_join_discovery_scan
    from prclz_ray.stages import graph_ops, text

    def docs(parts=3):
        return rd.from_pandas(_budget_case_corpus()).repartition(parts)

    def pairs():
        return rd.from_pandas(pd.DataFrame({
            "a": np.arange(0, 20, dtype=np.int64),
            "b": np.arange(20, 40, dtype=np.int64)}))

    def events():
        rng = np.random.default_rng(23)
        return rd.from_pandas(pd.DataFrame({
            "user_id": rng.integers(0, 30, 300).astype(np.int64),
            "ts": pd.to_datetime(rng.integers(0, 6 * 604800, 300),
                                 unit="s")})).repartition(3)

    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    truss_edges = rd.from_pandas(pd.DataFrame(
        k4 + [(3, 9), (9, 10)], columns=["src", "dst"]))
    return {
        "bfs_hops": lambda: graph_ops.bfs_hops(*_budget_case_graph(),
                                               rounds=3),
        "sssp_rounds": lambda: graph_ops.sssp_rounds(
            *_budget_case_graph(weighted=True), rounds=3),
        "k_truss": lambda: graph_ops.k_truss(truss_edges, k=4),
        "cohort_retention": lambda: relational.cohort_retention(
            events(), "user_id", "ts"),
        "domain_boilerplate_stats": lambda: dd.domain_boilerplate_stats(
            rd.from_pandas(_budget_case_corpus().assign(
                source=lambda d: (d.doc_id % 4).map("s{}".format))),
            sep=" ", min_frac=0.2),
        "decontaminate_ngrams": lambda: dd.decontaminate_ngrams(
            docs(), docs(2).filter(expr="doc_id < 5"), n=3),
        "duplicate_span_stats": lambda: dd.duplicate_span_stats(
            docs(), k=10, stride=3),
        "jaccard_verify_pairs": lambda: dd.jaccard_verify_pairs(
            pairs(), docs(), jaccard_threshold=0.3, shingle_k=2,
            emit_score=True),
        "prefix_filter_candidates": lambda: dd.prefix_filter_candidates(
            docs(), jaccard_threshold=0.5, shingle_k=2),
        "tfidf_top_terms": lambda: text.tfidf_top_terms(docs(), top_n=2),
        "pmi_collocations": lambda: text.pmi_collocations(
            docs(), min_count=2, k=10),
        "reblock_pipeline": _budget_reblock,
        "q_join_discovery_scan": lambda: q_join_discovery_scan(
            _budget_case_catalog()),
    }


@pytest.mark.parametrize("name", sorted(_budget_cases()))
def test_budget_zero_and_default_give_same_rows(name, monkeypatch):
    """Each guarded function with no path-forcing test of its own gives
    the same rows on its broadcast/single-pass path (the default budget)
    and on its shuffled fallback (budget 0)."""
    def rows():
        out = _budget_cases()[name]()
        df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    small = rows()
    monkeypatch.setattr(util, "BROADCAST_LIMIT_BYTES", 0)
    shuffled = rows()
    assert len(small) > 0, name
    pd.testing.assert_frame_equal(small, shuffled)


# ---- several keys per kernel call ----------------------------------------
#
# ``cogroup`` and ``bucket_shuffle`` run their kernel once per sorted
# block, and a block holds several whole keys.  Each case below builds its
# inputs as ONE block, so every bucket, salt sub-bucket, band replica and
# S2 cell replica lands in the same few kernel calls, and compares the
# helper's rows with the same helper run per key group: the reference
# hands the kernel one key at a time, the shape of a per-group shuffle.

def _per_key_cogroup(real):
    def cogroup(left, right, key, key_type, tag_left, tag_right, per_block,
                lschema, rschema, num_buckets=None):
        def one_key_at_a_time(lp: pa.Table, rp: pa.Table) -> pa.Table:
            keys = np.unique(np.concatenate([lp[key].to_numpy(),
                                             rp[key].to_numpy()]))
            return pa.concat_tables(
                [per_block(lp.filter(pa.array(lp[key].to_numpy() == k)),
                           rp.filter(pa.array(rp[key].to_numpy() == k)))
                 for k in keys], promote_options="default")
        return real(left, right, key, key_type, tag_left, tag_right,
                    one_key_at_a_time, lschema, rschema, num_buckets)
    return cogroup


def _per_key_bucket_shuffle(real):
    def bucket_shuffle(ds, key, per_bucket, prepare=None,
                       batch_format="pandas"):
        def one_key_at_a_time(part):
            df = part if isinstance(part, pd.DataFrame) else part.to_pandas()
            outs = [per_bucket(g if isinstance(part, pd.DataFrame)
                               else pa.Table.from_pandas(
                                   g, schema=part.schema,
                                   preserve_index=False))
                    for _, g in df.groupby(key, dropna=False, sort=False)]
            if all(isinstance(o, pd.DataFrame) for o in outs):
                return pd.concat(outs, ignore_index=True)
            outs = [o if isinstance(o, pa.Table)
                    else pa.Table.from_pandas(o, preserve_index=False)
                    for o in outs]
            # the null key's own output holds its key column all null,
            # typed as pandas saw it (float); give it the others' type
            typed = {f.name: f.type for o in outs for f in o.schema
                     if o[f.name].null_count < o.num_rows}
            outs = [o.cast(pa.schema([
                pa.field(f.name, typed.get(f.name, f.type))
                if o[f.name].null_count == o.num_rows else f
                for f in o.schema])) for o in outs]
            return pa.concat_tables(outs, promote_options="permissive")
        return real(ds, key, one_key_at_a_time, prepare, batch_format)
    return bucket_shuffle


def _row_multiset(out) -> dict:
    import collections
    t = out if isinstance(out, pa.Table) else (
        pa.Table.from_pandas(out, preserve_index=False)
        if isinstance(out, pd.DataFrame) else relational.ds_to_table(out))
    t = t.select(sorted(t.column_names))
    return collections.Counter(map(repr, t.to_pylist()))


def _same_rows_per_block_and_per_key(run, monkeypatch):
    """``run()``'s rows with several keys per kernel call, and with one
    key per call; asserts they are equal and non-empty."""
    from prclz_ray.stages import joins

    per_block = _row_multiset(run())
    with monkeypatch.context() as m:
        m.setattr(relational, "cogroup",
                  _per_key_cogroup(relational.cogroup))
        m.setattr(joins, "cogroup", _per_key_cogroup(joins.cogroup))
        m.setattr(relational, "bucket_shuffle",
                  _per_key_bucket_shuffle(relational.bucket_shuffle))
        per_key = _row_multiset(run())
    assert sum(per_key.values()) > 0
    assert per_block == per_key


def _keyed(kind: str, n: int, seed: int, nulls: bool = True) -> pa.Array:
    """``n`` keys of ``kind`` over 8 values (a few null when ``nulls``)."""
    v = np.random.default_rng(seed).integers(0, 8, n)
    mask = (v == 7) if nulls else None
    if kind == "int":
        return pa.array(v.astype(np.int64), mask=mask)
    if kind == "float":
        return pa.array(v * 0.5, mask=mask)
    return pa.array([f"k{x}" for x in v], mask=mask)


_KINDS = ["int", "float", "str"]


def _one_block(**cols) -> "rd.Dataset":
    return rd.from_arrow(pa.table(cols))


@pytest.mark.parametrize("kind", _KINDS)
def test_bucket_shuffle_several_keys_per_call(kind, monkeypatch):
    monkeypatch.setattr(relational, "NUM_BUCKETS", 4)
    n = 300
    rng = np.random.default_rng(5)
    base = np.datetime64("2024-03-01T00:00:00", "us")
    tbl = pa.table({
        "k": _keyed(kind, n, 1),
        "ts": pa.array(base + rng.integers(0, 86_400_000_000, n)
                       .astype("timedelta64[us]")),
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "v": pa.array(rng.integers(0, 5, n).astype(np.int64))})

    def events():
        return rd.from_arrow(tbl)

    for run in (
            lambda: relational.sessionize(events(), "k", "ts",
                                          gap_sec=3600),
            lambda: relational.grouped_ranks(events(), "k", "ts", "id"),
            lambda: relational.running_aggregate(events(), "k", "ts", "id",
                                                 "v"),
            lambda: relational.grouped_mode(events(), "k", "v")):
        _same_rows_per_block_and_per_key(run, monkeypatch)


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("how", ["inner", "left"])
def test_bucketed_hash_join_several_keys_per_call(kind, how, monkeypatch):
    monkeypatch.setattr(relational, "NUM_BUCKETS", 4)

    def run():
        return relational.bucketed_hash_join(
            _one_block(k=_keyed(kind, 200, 2),
                       lid=pa.array(np.arange(200, dtype=np.int64))),
            _one_block(k=_keyed(kind, 40, 3),
                       rid=pa.array(np.arange(40, dtype=np.int64))),
            on="k", how=how)
    _same_rows_per_block_and_per_key(run, monkeypatch)


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("anti", [False, True])
def test_bucketed_semi_join_several_keys_per_call(kind, anti, monkeypatch):
    monkeypatch.setattr(relational, "NUM_BUCKETS", 4)

    def run():
        return relational.bucketed_semi_join(
            _one_block(k=_keyed(kind, 200, 2),
                       lid=pa.array(np.arange(200, dtype=np.int64))),
            _one_block(k=_keyed(kind, 6, 4)), on="k", anti=anti)
    _same_rows_per_block_and_per_key(run, monkeypatch)


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("how", ["inner", "left"])
def test_salted_join_several_keys_per_call(kind, how, monkeypatch):
    """A hot key's right rows replicate into every salt sub-bucket, and
    one block holds them all: each left row still meets one replica."""
    monkeypatch.setattr(relational, "NUM_BUCKETS", 4)
    keys = _keyed(kind, 200, 2)
    hot = keys.drop_null()[0].as_py()

    def run():
        return relational.salted_join(
            _one_block(k=keys, lid=pa.array(np.arange(200, dtype=np.int64))),
            _one_block(k=_keyed(kind, 40, 3),
                       rid=pa.array(np.arange(40, dtype=np.int64))),
            on="k", hot_keys=[hot], salt=4, how=how)
    _same_rows_per_block_and_per_key(run, monkeypatch)


@pytest.mark.parametrize("kind", _KINDS)
def test_asof_join_several_keys_per_call(kind, monkeypatch):
    monkeypatch.setattr(relational, "NUM_BUCKETS", 4)
    rng = np.random.default_rng(6)
    lt, rt = rng.integers(0, 1000, 150), rng.integers(0, 1000, 60)

    def run():
        return relational.asof_join(
            _one_block(k=_keyed(kind, 150, 2, nulls=False), t=pa.array(lt),
                       lid=pa.array(np.arange(150, dtype=np.int64))),
            _one_block(k=_keyed(kind, 60, 3, nulls=False), t=pa.array(rt),
                       rid=pa.array(np.arange(60, dtype=np.int64))),
            on="t", by="k", right_order_cols=["rid"])
    _same_rows_per_block_and_per_key(run, monkeypatch)


@pytest.mark.parametrize("kind", ["int", "float"])
def test_band_join_several_keys_per_call(kind, monkeypatch):
    """Every right row replicates to three neighbouring buckets, and one
    block holds all three: each pair must still come out once."""
    rng = np.random.default_rng(7)
    lv, rv = (rng.integers(0, 60, n) * (1 if kind == "int" else 0.5)
              for n in (80, 50))

    def run():
        return relational.band_join(
            _one_block(v=pa.array(lv),
                       lid=pa.array(np.arange(80, dtype=np.int64))),
            _one_block(v=pa.array(rv),
                       rid=pa.array(np.arange(50, dtype=np.int64))),
            on="v", radius=4)
    _same_rows_per_block_and_per_key(run, monkeypatch)


def _square(x0: float, y0: float, w: float) -> bytes:
    from prclz_ray.geom import wkb
    return wkb.polygon(np.array([(x0, y0), (x0 + w, y0), (x0 + w, y0 + w),
                                 (x0, y0 + w), (x0, y0)]))


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_pip_join_tiled_several_cells_per_call(how, monkeypatch):
    """A polygon covering many S2 cells replicates into each, and one
    block holds every replica: a point inside it must still match it
    once per polygon row (a duplicated row matches twice)."""
    from prclz_ray.stages import joins

    rng = np.random.default_rng(8)
    ids = ["big", "a", "b", "c", "a"]            # "a" is a duplicate row
    geoms = [_square(0.01, 0.01, 0.05), _square(0.07, 0.02, 0.01),
             _square(0.02, 0.07, 0.015), _square(0.04, 0.04, 0.03),
             _square(0.07, 0.02, 0.01)]
    polys = pa.table({"pid": ids, "geometry": pa.array(geoms,
                                                       type=pa.binary())})
    n = 400
    pts = pa.table({"pt": np.arange(n, dtype=np.int64),
                    "lng": rng.uniform(0.0, 0.1, n),
                    "lat": rng.uniform(0.0, 0.1, n)})

    def run():
        return joins.pip_join_tiled(rd.from_arrow(pts), rd.from_arrow(polys),
                                    id_col="pid", level=12, how=how)
    _same_rows_per_block_and_per_key(run, monkeypatch)
    if how == "inner":
        # and the rows are the broadcast join's
        tiled = _row_multiset(relational.ds_to_table(run()).drop_columns(
            ["cell"]))
        assert tiled == _row_multiset(joins.pip_join(
            rd.from_arrow(pts), polys, id_col="pid", how="inner"))
