"""A null key is one key in every ``bucket_shuffle`` kernel, as SQL's
PARTITION BY and GROUP BY make it, and it matches nothing in an equality
join.  Each case runs its operator over two input blocks and compares the
rows with DuckDB's answer to the same SQL over the same table."""
import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from prclz_ray.stages import relational


def _events() -> pa.Table:
    """40 rows, 10 of them with a null int key, over a few days with
    consecutive runs."""
    rng = np.random.default_rng(29)
    n = 40
    k = rng.integers(0, 3, n)
    null = np.zeros(n, dtype=bool)
    null[rng.choice(n, 10, replace=False)] = True
    base = np.datetime64("2024-03-01T00:00:00", "us")
    ts = base + (rng.integers(0, 6, n) * 86_400_000_000
                 + rng.integers(0, 86_400_000_000, n)) \
        .astype("timedelta64[us]")
    return pa.table({
        "k": pa.array(k.astype(np.int64), mask=null),
        "ts": pa.array(ts),
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "v": pa.array(rng.integers(0, 9, n).astype(np.int64)),
        "s": pa.array([f"e{i}" for i in range(n)])})


def _two_blocks(t: pa.Table):
    half = t.num_rows // 2
    return rd.from_arrow([t.slice(0, half), t.slice(half)])


def _rows(t: pa.Table, cols: list[str]) -> list:
    return sorted((tuple(r[c] for c in cols) for r in t.to_pylist()),
                  key=repr)


def _duck(sql: str, cols: list[str], **tables) -> list:
    con = duckdb.connect()
    for name, t in tables.items():
        con.register(name, t)
    return _rows(con.execute(sql).arrow(), cols)


# name: (run over a Dataset, DuckDB SQL over table ``e``, compared columns)
KERNELS = {
    "grouped_lag": (
        lambda ds: relational.grouped_lag(ds, "k", "ts", "id", ["v"]),
        "SELECT id, k, LAG(v) OVER (PARTITION BY k ORDER BY ts, id) "
        "AS prev_v FROM e",
        ["id", "k", "prev_v"]),
    "moving_aggregate": (
        lambda ds: relational.moving_aggregate(ds, "k", "ts", "id", "v",
                                               window_rows=2),
        "SELECT id, k, CAST(SUM(v) OVER w AS BIGINT) AS mov_sum, "
        "COUNT(v) OVER w AS mov_n "
        "FROM e WINDOW w AS (PARTITION BY k ORDER BY ts, id "
        "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)",
        ["id", "k", "mov_sum", "mov_n"]),
    "grouped_ntile": (
        lambda ds: relational.grouped_ntile(ds, "k", "v", "id", 3),
        "SELECT id, k, NTILE(3) OVER (PARTITION BY k ORDER BY v, id) "
        "AS tile FROM e",
        ["id", "k", "tile"]),
    "grouped_ordered_concat": (
        lambda ds: relational.grouped_ordered_concat(ds, "k", ["ts", "id"],
                                                     "s"),
        "SELECT k, STRING_AGG(s, '>' ORDER BY ts, id) AS path, "
        "COUNT(*) AS n_events FROM e GROUP BY k",
        ["k", "path", "n_events"]),
    "longest_consecutive_run": (
        lambda ds: relational.longest_consecutive_run(ds, "k", "ts"),
        "WITH d AS (SELECT DISTINCT k, "
        "datediff('day', DATE '1970-01-01', CAST(ts AS DATE)) AS day "
        "FROM e), i AS (SELECT k, day - ROW_NUMBER() OVER "
        "(PARTITION BY k ORDER BY day) AS island FROM d), "
        "r AS (SELECT k, COUNT(*) AS n FROM i GROUP BY k, island) "
        "SELECT k, MAX(n) AS longest_streak FROM r GROUP BY k",
        ["k", "longest_streak"]),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_null_key_is_one_partition(name):
    run, sql, cols = KERNELS[name]
    ev = _events()
    got = _rows(relational.ds_to_table(run(_two_blocks(ev))), cols)
    want = _duck(sql, cols, e=ev)
    assert any(r[cols.index("k")] is None for r in want)
    assert got == want


def test_asof_join_null_by_matches_nothing():
    left = pa.table({"k": pa.array([None, 1, None, 1], pa.int64()),
                     "t": pa.array([10, 20, 30, 40], pa.int64()),
                     "lid": pa.array([0, 1, 2, 3], pa.int64())})
    right = pa.table({"k": pa.array([None, 1], pa.int64()),
                      "t": pa.array([5, 15], pa.int64()),
                      "rid": pa.array([0, 1], pa.int64())})
    cols = ["lid", "k", "t", "rid"]
    got = _rows(relational.ds_to_table(relational.asof_join(
        _two_blocks(left), _two_blocks(right), on="t", by="k")), cols)
    want = _duck("SELECT l.lid, l.k, l.t, r.rid FROM l ASOF JOIN r "
                 "ON l.k = r.k AND l.t >= r.t", cols, l=left, r=right)
    assert want == [(1, 1, 20, 1), (3, 1, 40, 1)]
    assert got == want


@pytest.mark.parametrize("op", ["intersect", "except"])
def test_set_op_null_string_key_is_one_key(op):
    """Over nullable string keys in 2 blocks, where Ray's sampled sort
    cannot compare a null with a string."""
    left = pa.table({"k": pa.array(["a", None, "b", "c", None, "a",
                                    "d", None])})
    right = pa.table({"k": pa.array(["b", None, "e", "b", None, "a"])})
    got = _rows(relational.ds_to_table(relational.set_op(
        _two_blocks(left), _two_blocks(right), on="k", op=op)), ["k"])
    want = _duck(f"SELECT k FROM l {op.upper()} SELECT k FROM r", ["k"],
                 l=left, r=right)
    assert want == ([("a",), ("b",), (None,)] if op == "intersect"
                    else [("c",), ("d",)])
    assert got == want
