"""Fuzzy matching / entity resolution: the vectorized Levenshtein kernel,
blocking recall, and the end-to-end cluster query."""
import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from prclz_ray.stages import relational
from prclz_ray.stages.fuzzy import batch_edit_distance, blocked_fuzzy_pairs


def _lev_ref(a: str, b: str) -> int:
    dp = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        nd = [i]
        for j, cb in enumerate(b, 1):
            nd.append(min(dp[j] + 1, nd[j - 1] + 1, dp[j - 1] + (ca != cb)))
        dp = nd
    return dp[len(b)]


def test_batch_edit_distance_known_values():
    got = batch_edit_distance(
        ["kitten", "", "abc", "flaw", "saturday"],
        ["sitting", "ab", "abc", "lawn", "sunday"])
    assert got.tolist() == [3, 2, 0, 2, 3]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.text(max_size=12), st.text(max_size=12)),
                min_size=1, max_size=20))
def test_batch_edit_distance_matches_scalar_dp(pairs):
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    got = batch_edit_distance(a, b)
    assert got.tolist() == [_lev_ref(x, y) for x, y in pairs]


def test_blocked_fuzzy_pairs_single_edit_recall_complete(monkeypatch):
    """Every single-edit corruption of a name >= 2*block_len chars must be
    found: one edit cannot change both the prefix and suffix window."""
    monkeypatch.setattr(relational, "NUM_BUCKETS", 8)
    rng = np.random.default_rng(7)
    base = ["".join(chr(97 + c) for c in rng.integers(0, 26, 16))
            for _ in range(40)]
    left = rd.from_arrow(pa.table({
        "id": pa.array(range(40), type=pa.int64()),
        "nm": pa.array(base)}))
    dirty = []
    for i, nm in enumerate(base):
        p = int(rng.integers(0, len(nm)))
        dirty.append(nm[:p] + nm[p + 1:] if i % 2 else
                     nm[:p] + "#" + nm[p + 1:])
    right = rd.from_arrow(pa.table({
        "id": pa.array(range(1000, 1040), type=pa.int64()),
        "nm": pa.array(dirty)}))
    out = blocked_fuzzy_pairs(left, right, max_dist=1,
                              block_len=6).to_pandas()
    got = set(zip(out["a"], out["b"]))
    assert {(i, 1000 + i) for i in range(40)} <= got
    assert (out["dist"] <= 1).all()


def test_blocked_fuzzy_pairs_no_false_positives_past_threshold(
        monkeypatch):
    monkeypatch.setattr(relational, "NUM_BUCKETS", 4)
    left = rd.from_arrow(pa.table({
        "id": pa.array([0, 1], type=pa.int64()),
        "nm": pa.array(["aaaaaaaaaaaa", "bbbbbbbbbbbb"])}))
    right = rd.from_arrow(pa.table({
        "id": pa.array([10, 11], type=pa.int64()),
        "nm": pa.array(["aaaaaaaaaaab", "cccccccbbbbb"])}))
    out = blocked_fuzzy_pairs(left, right, max_dist=1,
                              block_len=6).to_pandas()
    # (0,10): one substitution -> kept; (1,11): shares suffix block only
    # partially and is 7 edits away -> dropped
    assert set(zip(out["a"], out["b"])) == {(0, 10)}


def test_fuzzy_queries_match_duckdb_oracle_sf0001():
    import duckdb

    from prclz_ray.pipelines.queries import (SQL_FUZZY_CLUSTERS,
                                             q_fuzzy_entity_clusters,
                                             q_fuzzy_match_pairs, registry)
    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW part AS SELECT * FROM '{sf}/part.parquet'")
    sql_pairs = registry()["fuzzy_match_pairs"][1]
    exp = con.execute(sql_pairs).df().sort_values(["a", "b"]) \
        .reset_index(drop=True)
    got = q_fuzzy_match_pairs(sf).to_pandas().sort_values(["a", "b"]) \
        .reset_index(drop=True)
    assert got[["a", "b", "dist"]].equals(exp[["a", "b", "dist"]])

    expc = con.execute(SQL_FUZZY_CLUSTERS).df() \
        .sort_values("node").reset_index(drop=True)
    gotc = q_fuzzy_entity_clusters(sf) \
        .sort_values("node").reset_index(drop=True)
    assert gotc["node"].tolist() == expc["node"].tolist()
    assert gotc["label"].tolist() == expc["label"].tolist()
