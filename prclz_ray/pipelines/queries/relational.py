"""Relational and analytics demos over the TPC-H-style tables and the
event log: joins, windows, sketches, layout scans and statistics."""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ...runtime.checkpoint import publish_dir
from ...stages import dedup as dd
from ...stages import relational, util
from ...stages.util import worker_cached
from .common import (
    SQL_CP_COUNTS_CTE, _click_purchase_value_counts, _daily_revenue_cents,
    _fingerprint_cache_dir, _read, _read_table, _round2, _user_event_flags,
    _value_cells_two_groups)


# ------------------------------------------------------- relational queries

def q1_pricing_summary(sf_dir: str):
    """TPC-H Q1 shape: partial per-batch aggregation before the groupby
    shuffle (guide §Aggregation at scale).  Money sums are EXACT integer
    cents (price) / 1e-4 dollars (discounted price): the fixture prices
    are 2-decimal and discounts are whole hundredths, so every partial
    and the global fold are integer — no float-association drift between
    block orders (a one-cent sf0.001 divergence before this) — with ONE
    mirrored /100.0 (resp. /10000.0) division at the end.  Per-row
    disc_e4 ≤ ~1e9, so int64 partials hold to ~1e9-row groups; past that
    the hi/lo 128-bit split used by the revenue folds applies."""
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount", "l_shipdate"])

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.less_equal(batch["l_shipdate"],
                                       pa.scalar(np.datetime64("1998-09-01", "us"))))
        ep_c = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0)),
                       pa.int64())
        db = pc.cast(pc.round(pc.multiply(t["l_discount"], 100.0)),
                     pa.int64())
        tt = pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "p_qty": pc.cast(t["l_quantity"], pa.int64()),
            "p_base_c": ep_c,
            "p_disc_e4": pc.multiply(ep_c, pc.subtract(pa.scalar(100), db)),
            "p_n": pa.array(np.ones(len(t), dtype=np.int64))})
        agg = tt.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("p_qty", "sum"), ("p_base_c", "sum"),
             ("p_disc_e4", "sum"), ("p_n", "sum")])
        return agg.rename_columns(["l_returnflag", "l_linestatus",
                                   "p_qty", "p_base_c", "p_disc_e4", "p_n"])

    from ray.data.aggregate import Sum
    out = li.map_batches(partial, batch_format="pyarrow") \
        .groupby(["l_returnflag", "l_linestatus"]).aggregate(
            Sum("p_qty", alias_name="sum_qty"),
            Sum("p_base_c", alias_name="base_c"),
            Sum("p_disc_e4", alias_name="disc_e4"),
            Sum("p_n", alias_name="count_order"))
    df = out.to_pandas()
    df["sum_qty"] = df["sum_qty"].astype("float64")
    df["sum_base_price"] = df.pop("base_c") / 100.0
    df["sum_disc_price"] = df.pop("disc_e4") / 10000.0
    df["count_order"] = df["count_order"].astype("int64")
    return df[["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
               "sum_disc_price", "count_order"]]


SQL_Q1 = """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 2) AS sum_qty,
       SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) / 100.0
           AS sum_base_price,
       SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) / 10000.0
           AS sum_disc_price,
       COUNT(*) AS count_order
FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-01'
GROUP BY l_returnflag, l_linestatus
"""


def q_top_orders_by_revenue(sf_dir: str):
    """Top-k (O2 analogue): top 10 orders by lineitem revenue."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["rev"] = df.l_extendedprice * (1 - df.l_discount)
        agg = df.groupby("l_orderkey", as_index=False).agg(p_rev=("rev", "sum"))
        return pa.Table.from_pandas(agg, preserve_index=False)

    from ray.data.aggregate import Sum
    per_order = li.map_batches(partial, batch_format="pyarrow") \
        .groupby("l_orderkey").aggregate(Sum("p_rev", alias_name="revenue"))
    top = per_order.sort("revenue", descending=True).limit(10).to_pandas()
    return _round2(top[["l_orderkey", "revenue"]], ["revenue"])


SQL_TOP_ORDERS = """
SELECT l_orderkey, ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM lineitem GROUP BY l_orderkey
ORDER BY SUM(l_extendedprice * (1 - l_discount)) DESC, l_orderkey LIMIT 10
"""


def q_nation_order_totals(sf_dir: str):
    """Broadcast dimension join chain: customer ⋈ nation (broadcast) ⋈
    orders, totals per nation."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = _read_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    nation = nation.rename_columns(["c_nationkey", "n_name"])
    enriched = relational.broadcast_join(cust, nation, on="c_nationkey")
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    # chain the second (large×large at scale) join lazily through the
    # bucketed shuffle join — no driver-side materialize between the joins
    cust_keyed = enriched.map_batches(
        lambda t: t.select(["c_custkey", "n_name"])
                   .rename_columns(["o_custkey", "n_name"]),
        batch_format="pyarrow")
    def partial(t: pa.Table) -> pa.Table:
        # pre-aggregate INSIDE the bucket join task so the final groupby
        # shuffle moves <=25 rows per bucket instead of every joined row
        agg = t.group_by("n_name").aggregate(
            [("o_totalprice", "count"), ("o_totalprice", "sum")])
        return pa.table({"n_name": agg["n_name"],
                         "p_n": agg["o_totalprice_count"].cast(pa.int64()),
                         "p_total": agg["o_totalprice_sum"]})

    joined = relational.bucketed_hash_join(orders, cust_keyed, on="o_custkey",
                                           combine=partial)

    from ray.data.aggregate import Sum
    out = joined.groupby("n_name").aggregate(
        Sum("p_n", alias_name="n_orders"),
        Sum("p_total", alias_name="total"))
    df = out.to_pandas()
    df["n_orders"] = df["n_orders"].astype("int64")
    return _round2(df[["n_name", "n_orders", "total"]], ["total"])


SQL_NATION_TOTALS = """
SELECT n_name, COUNT(*) AS n_orders, ROUND(SUM(o_totalprice), 2) AS total
FROM orders JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
"""


def q_bucketed_join_segment_totals(sf_dir: str):
    """Large×large partitioned hash join (explicit bucket shuffle)."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]) \
        .map_batches(lambda t: t.rename_columns(["o_custkey", "c_mktsegment"]),
                     batch_format="pyarrow")
    joined = relational.bucketed_hash_join(orders, cust, on="o_custkey")
    from ray.data.aggregate import Count, Sum
    out = joined.groupby("c_mktsegment").aggregate(
        Count(alias_name="n_orders"), Sum("o_totalprice", alias_name="total"))
    df = out.to_pandas()
    df["n_orders"] = df["n_orders"].astype("int64")
    return _round2(df[["c_mktsegment", "n_orders", "total"]], ["total"])


SQL_SEGMENT_TOTALS = """
SELECT c_mktsegment, COUNT(*) AS n_orders, ROUND(SUM(o_totalprice), 2) AS total
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment
"""


def q_bucketed_join_string_key(sf_dir: str):
    """Large×large bucketed join on a STRING key — pins down bucket-hash
    process stability (a per-process-seeded hash would silently drop rows
    here because the two sides bucket in different worker processes)."""
    import pyarrow.compute as pc

    def add_skey(col):
        def f(t: pa.Table) -> pa.Table:
            s = pc.binary_join_element_wise(
                "C", pc.cast(t[col], pa.string()), "-")
            return t.append_column("skey", s).drop_columns([col])
        return f

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]) \
        .map_batches(add_skey("o_custkey"), batch_format="pyarrow")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]) \
        .map_batches(add_skey("c_custkey"), batch_format="pyarrow")
    joined = relational.bucketed_hash_join(orders, cust, on="skey")
    from ray.data.aggregate import Count, Sum
    out = joined.groupby("c_mktsegment").aggregate(
        Count(alias_name="n_orders"), Sum("o_totalprice", alias_name="total"))
    df = out.to_pandas()
    df["n_orders"] = df["n_orders"].astype("int64")
    return _round2(df[["c_mktsegment", "n_orders", "total"]], ["total"])


SQL_SEGMENT_TOTALS_STR = """
SELECT c_mktsegment, COUNT(*) AS n_orders, ROUND(SUM(o_totalprice), 2) AS total
FROM orders JOIN customer
  ON ('C-' || CAST(o_custkey AS VARCHAR)) = ('C-' || CAST(c_custkey AS VARCHAR))
GROUP BY c_mktsegment
"""


def q_orders_status_counts(sf_dir: str):
    orders = _read(sf_dir, "orders", ["o_orderstatus", "o_totalprice"])
    from ray.data.aggregate import Count, Sum
    out = orders.groupby("o_orderstatus").aggregate(
        Count(alias_name="n"), Sum("o_totalprice", alias_name="total"))
    df = out.to_pandas()
    df["n"] = df["n"].astype("int64")
    return _round2(df[["o_orderstatus", "n", "total"]], ["total"])


SQL_STATUS = """
SELECT o_orderstatus, COUNT(*) AS n, ROUND(SUM(o_totalprice), 2) AS total
FROM orders GROUP BY o_orderstatus
"""


def q_topk_parts_by_price(sf_dir: str):
    parts = _read(sf_dir, "part", ["p_partkey", "p_retailprice"])
    top = parts.sort(["p_retailprice", "p_partkey"],
                     descending=[True, False]).limit(20)
    return top.to_pandas()


SQL_TOPK_PARTS = """
SELECT p_partkey, p_retailprice FROM part
ORDER BY p_retailprice DESC, p_partkey LIMIT 20
"""


def q_distinct_event_types(sf_dir: str):
    ev = _read(sf_dir, "events", ["event_type"])
    out = ev.groupby("event_type").count().to_pandas()
    out = out.rename(columns={"count()": "n"})
    out["n"] = out["n"].astype("int64")
    return out[["event_type", "n"]]


SQL_EVENT_TYPES = "SELECT event_type, COUNT(*) AS n FROM events GROUP BY event_type"


def q_semi_customers_with_orders(sf_dir: str):
    cust = _read(sf_dir, "customer", ["c_custkey"])
    keys = _read(sf_dir, "orders", ["o_custkey"]).map_batches(
        lambda t: t.rename_columns(["c_custkey"]), batch_format="pyarrow")
    return relational.semi_join(cust, keys, on="c_custkey")


SQL_SEMI = """
SELECT c_custkey FROM customer c
WHERE EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)
"""


def q_anti_customers_without_orders(sf_dir: str):
    """Anti join via the SHUFFLE semi-join path (key side too large to
    broadcast at scale) — also oracle coverage for bucketed_semi_join."""
    cust = _read(sf_dir, "customer", ["c_custkey"])
    keys = _read(sf_dir, "orders", ["o_custkey"]).map_batches(
        lambda t: t.rename_columns(["c_custkey"]), batch_format="pyarrow")
    df = relational.bucketed_semi_join(cust, keys, on="c_custkey",
                                       anti=True).to_pandas()
    if df.empty:  # keep the schema on an empty result
        df = pd.DataFrame({"c_custkey": pd.Series([], dtype="int64")})
    return df


SQL_ANTI = """
SELECT c_custkey FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)
"""


def q_window_user_activity(sf_dir: str):
    """Tumbling 1-hour windows per user over the events stream table
    (streaming-shaped workload; guide §Streaming-shaped)."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])
    out = relational.windowed_aggregate(ev, "user_id", "ts", "value", 3600)
    df = out.to_pandas()
    df["n_events"] = df["n_events"].astype("int64")
    df = df.rename(columns={"window": "win"})
    return _round2(df[["user_id", "win", "sum_value", "n_events", "max_value"]],
                   ["sum_value", "max_value"])


SQL_WINDOW = """
SELECT user_id, CAST(FLOOR(EPOCH(ts) / 3600) AS BIGINT) AS win,
       ROUND(SUM(value), 2) AS sum_value, COUNT(*) AS n_events,
       ROUND(MAX(value), 2) AS max_value
FROM events GROUP BY 1, 2
"""


def q_asof_last_purchase(sf_dir: str):
    """As-of join: every click matched to the SAME user's latest prior
    purchase (inner semantics).  The right side's join timestamp is carried
    through as a plain int64 epoch-us column computed arrow-side before any
    pandas conversion, so no datetime-unit coercion can touch it."""
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type", "value"])
    clicks = ev.filter(expr="event_type == 'click'") \
        .select_columns(["event_id", "user_id", "ts"])

    def prep_right(t: pa.Table) -> pa.Table:
        t = t.append_column("purchase_ts_us", t["ts"].cast(pa.int64()))
        t = t.append_column("purchase_value", t["value"])
        return t.select(["user_id", "ts", "purchase_ts_us", "purchase_value"])

    purchases = ev.filter(expr="event_type == 'purchase'") \
        .map_batches(prep_right, batch_format="pyarrow")
    out = relational.asof_join(clicks, purchases, on="ts", by="user_id")
    return out.select_columns(["event_id", "user_id", "purchase_ts_us",
                               "purchase_value"])


SQL_ASOF = """
SELECT c.event_id, c.user_id,
       epoch_us(p.ts) AS purchase_ts_us, p.value AS purchase_value
FROM (SELECT event_id, user_id, ts FROM events WHERE event_type = 'click') c
ASOF JOIN (SELECT user_id, ts, value FROM events
           WHERE event_type = 'purchase') p
  ON c.user_id = p.user_id AND c.ts >= p.ts
"""


def q_band_join_click_purchase(sf_dir: str):
    """Range (band) join: every click × purchase pair within ±15 minutes,
    across all users — exercises the neighbor-bucket replication path
    (bucket width == radius) that makes a non-equi join shuffle-safe."""
    ev = _read(sf_dir, "events", ["event_id", "ts", "event_type"])

    def prep(name):
        def f(t: pa.Table) -> pa.Table:
            t = t.append_column("ts_us", t["ts"].cast(pa.int64()))
            return t.select(["event_id", "ts_us"]) \
                .rename_columns([name, "ts_us"])
        return f

    clicks = ev.filter(expr="event_type == 'click'") \
        .map_batches(prep("click_id"), batch_format="pyarrow")
    purch = ev.filter(expr="event_type == 'purchase'") \
        .map_batches(prep("purchase_id"), batch_format="pyarrow")
    out = relational.band_join(clicks, purch, on="ts_us",
                               radius=900_000_000)

    def finish(t: pa.Table) -> pa.Table:
        dt = pc.subtract(t["ts_us_r"], t["ts_us"])
        return pa.table({"click_id": t["click_id"],
                         "purchase_id": t["purchase_id"],
                         "dt_us": dt})

    return out.map_batches(finish, batch_format="pyarrow")


SQL_BAND = """
SELECT c.event_id AS click_id, p.event_id AS purchase_id,
       epoch_us(p.ts) - epoch_us(c.ts) AS dt_us
FROM (SELECT event_id, ts FROM events WHERE event_type = 'click') c
JOIN (SELECT event_id, ts FROM events WHERE event_type = 'purchase') p
  ON abs(epoch_us(p.ts) - epoch_us(c.ts)) <= 900000000
"""


def q_acctbal_quantiles(sf_dir: str):
    """Exact per-nation acctbal quartiles via the two-pass histogram
    selection operator (no per-group full sort; see
    ``grouped_quantile_disc``).  quantile_disc semantics — the oracle's
    native aggregate."""
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])
    df = relational.grouped_quantile_disc(
        cust, key_col="c_nationkey", val_col="c_acctbal",
        qs=[0.25, 0.5, 0.75])
    df["c_nationkey"] = df["c_nationkey"].astype("int32")
    return df[["c_nationkey", "p25", "p50", "p75"]]


SQL_QUANTILES = """
SELECT c_nationkey,
       quantile_disc(c_acctbal, 0.25) AS p25,
       quantile_disc(c_acctbal, 0.5)  AS p50,
       quantile_disc(c_acctbal, 0.75) AS p75
FROM customer GROUP BY c_nationkey
"""


def q_sessionize_events(sf_dir: str):
    """Gap-based sessionization of the event stream (8 h inactivity gap):
    one row per (user, session ordinal) with event count, bounds and
    duration — single-shuffle operator, oracle = the classic
    LAG/SUM-OVER window-function sessionization."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])
    out = relational.sessionize(ev, user_col="user_id", ts_col="ts",
                                gap_sec=28800)
    return out.select_columns(["user_id", "session_idx", "n_events",
                               "start_ts", "end_ts", "duration_sec"])


SQL_SESSIONIZE = """
WITH o AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                   OR epoch(ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)) > 28800
              THEN 1 ELSE 0 END AS new_s
  FROM events),
 s AS (SELECT user_id, ts,
              SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts
                               ROWS UNBOUNDED PRECEDING) AS sess
       FROM o)
SELECT user_id, CAST(sess AS BIGINT) AS session_idx, COUNT(*) AS n_events,
       MIN(ts) AS start_ts, MAX(ts) AS end_ts,
       CAST(FLOOR(epoch(MAX(ts) - MIN(ts))) AS BIGINT) AS duration_sec
FROM s GROUP BY user_id, sess
"""


def q_approx_distinct_users(sf_dir: str):
    """HyperLogLog approximate distinct users over the event stream —
    the COUNT(DISTINCT) scale path (16 KiB sketch per block, max-merge;
    no key shuffle).  Built on DuckDB's own integer hash (bit-replicated
    in numpy) with the harmonic sum held as an exact integer, so the
    whole register array AND the float estimate chain are reproduced
    term-for-term by the SQL twin — a full value-level oracle for an
    approximate sketch.  Register merge is associative ⇒ the result is
    partitioning-invariant."""
    from ...stages import sketches
    ev = _read(sf_dir, "events", ["user_id"])
    return sketches.approx_distinct(ev, key_col="user_id",
                                    hasher="duckdb")


def q_grouped_approx_distinct(sf_dir: str):
    """Per-event-type approximate distinct users via sparse-register HLL
    (one narrow (group, register) shuffle — COUNT(DISTINCT) per key with
    no key-column exchange).  Same DuckDB-hash + exact-integer-sum
    construction as q_approx_distinct_users, so the per-group estimates
    carry a full value-level SQL oracle."""
    from ...stages import sketches
    ev = _read(sf_dir, "events", ["event_type", "user_id"])
    return sketches.grouped_approx_distinct(ev, group_col="event_type",
                                            key_col="user_id",
                                            hasher="duckdb") \
        .to_pandas()


SQL_HLL_USERS = """
WITH h AS (SELECT hash(user_id) AS h FROM events),
r AS (SELECT CAST(h >> 50 AS BIGINT) AS idx,
             h & ((1::UBIGINT << 50) - 1) AS rem FROM h),
rr AS (SELECT idx, CASE WHEN rem = 0 THEN 51
                        ELSE 51 - length(bin(rem)) END AS rho
       FROM r),
regs AS (SELECT idx, MAX(rho) AS reg FROM rr GROUP BY 1),
s AS (SELECT SUM(1::HUGEINT << (64 - reg))
               + (16384 - COUNT(*))::HUGEINT * (1::HUGEINT << 64)
               AS s,
             CAST(16384 - COUNT(*) AS BIGINT) AS zeros,
             CAST(COUNT(*) AS BIGINT) AS nz
      FROM regs),
e AS (SELECT nz,
             CASE WHEN (0.7213 / (1 + 1.079 / 16384.0)) * 16384.0
                       * 16384.0 * 18446744073709551616.0
                       / CAST(s AS DOUBLE) <= 2.5 * 16384.0
                       AND zeros > 0
                  THEN 16384.0 * LN(16384.0 / zeros)
                  ELSE (0.7213 / (1 + 1.079 / 16384.0)) * 16384.0
                       * 16384.0 * 18446744073709551616.0
                       / CAST(s AS DOUBLE) END AS est
      FROM s)
SELECT CAST(ROUND(est) AS BIGINT) AS approx_distinct,
       nz AS registers_nonzero
FROM e
"""


SQL_HLL_GROUPED = """
WITH h AS (SELECT event_type, hash(user_id) AS h FROM events),
r AS (SELECT event_type, CAST(h >> 50 AS BIGINT) AS idx,
             h & ((1::UBIGINT << 50) - 1) AS rem FROM h),
rr AS (SELECT event_type, idx,
              CASE WHEN rem = 0 THEN 51
                   ELSE 51 - length(bin(rem)) END AS rho
       FROM r),
regs AS (SELECT event_type, idx, MAX(rho) AS reg
         FROM rr GROUP BY 1, 2),
s AS (SELECT event_type,
             SUM(1::HUGEINT << (64 - reg))
               + (16384 - COUNT(*))::HUGEINT * (1::HUGEINT << 64)
               AS s,
             CAST(16384 - COUNT(*) AS BIGINT) AS zeros,
             CAST(COUNT(*) AS BIGINT) AS nz
      FROM regs GROUP BY 1),
e AS (SELECT event_type, nz,
             CASE WHEN (0.7213 / (1 + 1.079 / 16384.0)) * 16384.0
                       * 16384.0 * 18446744073709551616.0
                       / CAST(s AS DOUBLE) <= 2.5 * 16384.0
                       AND zeros > 0
                  THEN 16384.0 * LN(16384.0 / zeros)
                  ELSE (0.7213 / (1 + 1.079 / 16384.0)) * 16384.0
                       * 16384.0 * 18446744073709551616.0
                       / CAST(s AS DOUBLE) END AS est
      FROM s)
SELECT event_type, CAST(ROUND(est) AS BIGINT) AS approx_distinct,
       nz AS registers_nonzero
FROM e ORDER BY event_type
"""


def q_corr_qty_price(sf_dir: str):
    """Per-returnflag Pearson correlation of quantity vs extended price
    from mergeable sufficient statistics (one narrow shuffle)."""
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"])
    df = relational.grouped_corr(li, "l_returnflag", "l_quantity",
                                 "l_extendedprice")
    return df[["l_returnflag", "n", "corr"]]


SQL_CORR = """
SELECT l_returnflag, COUNT(*) AS n,
       ROUND(corr(l_quantity, l_extendedprice), 4) AS corr
FROM lineitem GROUP BY l_returnflag
"""


def q_top_orders_per_priority(sf_dir: str):
    """Top-3 orders per order-priority by total price (ROW_NUMBER <= n
    window pattern; per-batch prune keeps the shuffle at n*groups rows
    per batch)."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderpriority", "o_totalprice"])
    out = relational.grouped_top_n(orders, key_col="o_orderpriority",
                                   order_col="o_totalprice", n=3,
                                   id_col="o_orderkey")
    df = out.to_pandas()
    return df[["o_orderpriority", "rnk", "o_orderkey", "o_totalprice"]]


SQL_TOP_PER_PRIORITY = """
SELECT o_orderpriority, rnk, o_orderkey, o_totalprice FROM (
  SELECT o_orderpriority, o_orderkey, o_totalprice,
         row_number() OVER (PARTITION BY o_orderpriority
                            ORDER BY o_totalprice DESC, o_orderkey) AS rnk
  FROM orders) WHERE rnk <= 3
"""


def q_semi_customers_bloom(sf_dir: str):
    """Same semantics as semi_customers_with_orders, executed through the
    Bloom-prefiltered semi join: the keys side folds to a fixed bitmap,
    non-matching customers drop BEFORE the shuffle, the exact bucketed
    semi join removes Bloom false positives."""
    from ...stages import sketches
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    orders = _read(sf_dir, "orders", ["o_custkey"]) \
        .map_batches(lambda t: t.rename_columns(["c_custkey"]),
                     batch_format="pyarrow")
    return sketches.bloom_semi_join(cust, orders, on="c_custkey")


SQL_SEMI_BLOOM = """
SELECT c_custkey, c_name FROM customer
WHERE c_custkey IN (SELECT o_custkey FROM orders)
"""


def q_sliding_window_activity(sf_dir: str):
    """Sliding 1-hour windows every 15 minutes per user: each event lands
    in 4 windows via a vectorized membership explode collapsed by
    in-batch partial aggregation before the shuffle."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])
    out = relational.sliding_window_aggregate(ev, "user_id", "ts", "value",
                                              window_sec=3600,
                                              slide_sec=900)
    df = out.to_pandas()
    return _round2(df[["user_id", "window_start", "sum_value", "n_events"]],
                   ["sum_value"])


SQL_SLIDING = """
WITH e AS (
  SELECT user_id, value,
         CAST(FLOOR(EPOCH(ts)) AS BIGINT) // 900 AS tidx
  FROM events),
 m AS (
  SELECT user_id, value, (tidx - j) * 900 AS window_start
  FROM e, unnest(generate_series(0, 3)) AS t(j))
SELECT user_id, window_start, ROUND(SUM(value), 2) AS sum_value,
       COUNT(*) AS n_events
FROM m GROUP BY user_id, window_start
"""


def q_order_share_by_status(sf_dir: str):
    """Percent-of-total (SUM OVER () window): order-value share per
    status, exact on integer cents — per-batch partials, one tiny
    groupby, scalar total broadcast in the final map."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_orderstatus", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(t["o_totalprice"], 100.0)),
                    pa.int64())
        g = pa.table({"o_orderstatus": t["o_orderstatus"], "pc": c}) \
            .group_by("o_orderstatus").aggregate([("pc", "sum")])
        return pa.table({"o_orderstatus": g["o_orderstatus"],
                         "pcs": g["pc_sum"].cast(pa.int64())})

    agg = orders.map_batches(partial, batch_format="pyarrow") \
        .groupby("o_orderstatus").aggregate(Sum("pcs", alias_name="c")) \
        .to_pandas()
    total = int(agg["c"].sum())
    agg["revenue"] = agg["c"] / 100.0
    agg["share"] = (agg["c"] / total).round(6)
    return agg[["o_orderstatus", "revenue", "share"]] \
        .sort_values("o_orderstatus").reset_index(drop=True)


SQL_ORDER_SHARE = """
SELECT o_orderstatus,
       SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) / 100.0
         AS revenue,
       ROUND(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) * 1.0
             / SUM(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)))
                 OVER (), 6) AS share
FROM orders GROUP BY o_orderstatus ORDER BY o_orderstatus
"""


def q_running_total_user(sf_dir: str):
    """Cumulative window — per-user running event count and running value
    total ordered by (ts, event_id).  The sum runs on integer cents so the
    result is accumulation-order-exact on both engines; the output divides
    back to currency (same integer numerator ⇒ identical doubles)."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["value"], 100.0)),
                        pa.int64())
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"], "ts": t["ts"],
                         "cents": cents})

    out = relational.running_aggregate(
        ev.map_batches(to_cents, batch_format="pyarrow"),
        key_col="user_id", ts_col="ts", order_col="event_id",
        value_col="cents").to_pandas()
    out["running_value"] = out["running_sum"] / 100.0
    out = out.drop(columns=["ts", "running_sum"])
    return out[["event_id", "user_id", "running_n",
                "running_value"]].astype({"running_n": "int64"})


SQL_RUNNING_TOTAL = """
SELECT event_id, user_id,
       COUNT(*) OVER w AS running_n,
       SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER w / 100.0
         AS running_value
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS UNBOUNDED PRECEDING)
"""


def q_rollup_orders(sf_dir: str):
    """ROLLUP multi-granularity aggregate: order counts + totals at
    (status, priority), per status, and grand total — one pass over the
    raw rows, coarser levels derived from the finest partials."""
    orders = _read(sf_dir, "orders",
                   ["o_orderstatus", "o_orderpriority", "o_totalprice"])
    t = relational.rollup_aggregate(
        orders, key_cols=["o_orderstatus", "o_orderpriority"],
        value_col="o_totalprice", round_to=2)
    return t.to_pandas()


SQL_ROLLUP = """
SELECT o_orderstatus, o_orderpriority, COUNT(*) AS n,
       ROUND(SUM(o_totalprice), 2) AS sum_value
FROM orders
GROUP BY ROLLUP(o_orderstatus, o_orderpriority)
"""


def q_salted_join_hot_key(sf_dir: str):
    """Skew-safe salted join: 80 % of left rows share one scorching key
    (derived: k = user_id when event_id % 5 = 0 else 0); the hot key's
    rows spread across 8 salt sub-buckets while the right side's hot row
    replicates into each — identical results to a plain join (the SQL
    twin), without the single-reducer hot spot."""
    ev = _read(sf_dir, "events", ["event_id", "user_id"])

    def derive(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        k = np.where(eid % 5 == 0, uid, 0).astype(np.int64)
        return pa.table({"event_id": t["event_id"], "k": pa.array(k)})

    left = ev.map_batches(derive, batch_format="pyarrow")

    def users(t: pa.Table) -> pa.Table:
        return pa.table({"k": t["user_id"]}).group_by("k").aggregate([])

    right = ev.map_batches(users, batch_format="pyarrow") \
        .groupby("k").count().map_batches(
            lambda t: pa.table({"k": t["k"],
                                "label": pc.multiply(t["k"], 7)}),
            batch_format="pyarrow")
    out = relational.salted_join(left, right, on="k", hot_keys=[0],
                                 salt=8).to_pandas()
    return out[["event_id", "k", "label"]].astype({"label": "int64"})


SQL_SALTED = """
WITH l AS (
  SELECT event_id,
         CASE WHEN event_id % 5 = 0 THEN user_id ELSE 0 END AS k
  FROM events
),
r AS (SELECT DISTINCT user_id AS k, user_id * 7 AS label FROM events)
SELECT l.event_id, l.k, r.label FROM l JOIN r ON l.k = r.k
"""


def q_ntile_user_value(sf_dir: str):
    """NTILE(4) window — quartile assignment of each user's events by
    value (ties broken by event_id, SQL's ORDER BY value, event_id)."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "value"])
    out = relational.grouped_ntile(ev, key_col="user_id",
                                   order_col="value",
                                   tiebreak_col="event_id",
                                   n_tiles=4).to_pandas()
    out = out[["event_id", "user_id", "tile"]]
    return out.astype({"tile": "int64"})


SQL_NTILE = """
SELECT event_id, user_id,
       NTILE(4) OVER (PARTITION BY user_id
                      ORDER BY value, event_id) AS tile
FROM events
"""


def q_cube_orders(sf_dir: str):
    """GROUP BY CUBE — all four grouping sets of (status, priority) from
    one pass of finest partials."""
    orders = _read(sf_dir, "orders",
                   ["o_orderstatus", "o_orderpriority", "o_totalprice"])
    t = relational.cube_aggregate(
        orders, key_cols=["o_orderstatus", "o_orderpriority"],
        value_col="o_totalprice", round_to=2)
    return t.to_pandas()


SQL_CUBE = """
SELECT o_orderstatus, o_orderpriority, COUNT(*) AS n,
       ROUND(SUM(o_totalprice), 2) AS sum_value
FROM orders
GROUP BY CUBE(o_orderstatus, o_orderpriority)
"""


def q_window_distinct_users(sf_dir: str):
    """Tumbling-window COUNT(DISTINCT user): distinct pairs collapse
    per batch BEFORE the shuffle."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])
    t = relational.windowed_distinct(ev, key_col="user_id", ts_col="ts",
                                     window_sec=3600)
    return t.to_pandas()


SQL_WINDOW_DISTINCT = """
SELECT CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS window_start,
       COUNT(DISTINCT user_id) AS n_distinct
FROM events GROUP BY window_start
"""


def q_approx_quantiles_price(sf_dir: str):
    """Approximate quantiles of order totals via the one-pass log-binned
    histogram sketch (rows-only: approximate by construction — the ≤ 2 %
    relative error bound and partitioning invariance are pytest-pinned,
    like the HLL sketch)."""
    from ...stages import sketches
    orders = _read(sf_dir, "orders", ["o_totalprice"])
    return sketches.approx_quantiles(orders, "o_totalprice",
                                     qs=[0.25, 0.5, 0.9, 0.99],
                                     rel_err=0.01).to_pandas()


def q_grouped_approx_quantiles(sf_dir: str):
    """Per-priority approximate order-total quantiles via the distributed
    log-histogram sketch (one narrow (key, bin) shuffle — the 100-TB
    alternative to the exact two-pass selection).  Rows-only:
    approximate by construction; the ≤ 2 % error bound and partition
    invariance are pytest-pinned."""
    from ...stages import sketches
    orders = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
    out = sketches.grouped_approx_quantiles(
        orders, key_col="o_orderpriority", val_col="o_totalprice",
        qs=[0.5, 0.9, 0.99], rel_err=0.01)
    return out.to_pandas()


def q_lag_user_events(sf_dir: str):
    """LAG window — for every event, the previous event id of the same
    user and the exact microsecond gap since it (NULL on each user's first
    event)."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    out = relational.grouped_lag(ev, key_col="user_id", ts_col="ts",
                                 order_col="event_id",
                                 lag_cols=["event_id"]).to_pandas()
    out = out[["event_id", "user_id", "prev_event_id", "gap_us"]]
    # float64-with-NaN nullables: the driver compare normalizes NaN→NULL
    # and integral floats→ints, pd.NA it cannot
    return out.astype({"prev_event_id": "float64", "gap_us": "float64"})


SQL_LAG_EVENTS = """
SELECT event_id, user_id,
       LAG(event_id) OVER w AS prev_event_id,
       date_diff('microsecond', LAG(ts) OVER w, ts) AS gap_us
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def q_lead_user_events(sf_dir: str):
    """LEAD window — the next event id of the same user and the exact
    microsecond gap until it (NULL on each user's last event)."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    out = relational.grouped_lag(ev, key_col="user_id", ts_col="ts",
                                 order_col="event_id",
                                 lag_cols=["event_id"],
                                 lead=True).to_pandas()
    out = out[["event_id", "user_id", "next_event_id", "gap_us"]]
    return out.astype({"next_event_id": "float64", "gap_us": "float64"})


SQL_LEAD_EVENTS = """
SELECT event_id, user_id,
       LEAD(event_id) OVER w AS next_event_id,
       date_diff('microsecond', ts, LEAD(ts) OVER w) AS gap_us
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def q_full_outer_click_purchase(sf_dir: str):
    """FULL OUTER join — per-user click counts vs purchase counts, keeping
    users present on either side only (nulls on the missing side).
    Exercises the bucketed hash join's outer mode: both sides co-shuffle
    on the key, per-bucket outer merge, key coalesced."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def counts(etype, name):
        def f(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["event_type"], etype))
            return pa.table({"user_id": t["user_id"]}) \
                .group_by("user_id").aggregate([([], "count_all")]) \
                .rename_columns(["user_id", name])
        # partial counts per batch, tiny final groupby to merge partials
        part = ev.map_batches(f, batch_format="pyarrow")
        g = part.groupby("user_id").sum(name)
        return g.map_batches(
            lambda t, n=name: pa.table(
                {"user_id": t["user_id"],
                 n: t[f"sum({n})"].cast(pa.int64())}),
            batch_format="pyarrow")

    clicks = counts("click", "n_clicks")
    purch = counts("purchase", "n_purchases")
    out = relational.bucketed_hash_join(clicks, purch, on="user_id",
                                        how="outer").to_pandas()
    out = out[["user_id", "n_clicks", "n_purchases"]]
    return out.astype({"user_id": "int64", "n_clicks": "float64",
                       "n_purchases": "float64"})


SQL_FULL_OUTER = """
WITH c AS (SELECT user_id, COUNT(*) AS n_clicks
           FROM events WHERE event_type = 'click' GROUP BY user_id),
p AS (SELECT user_id, COUNT(*) AS n_purchases
      FROM events WHERE event_type = 'purchase' GROUP BY user_id)
SELECT COALESCE(c.user_id, p.user_id) AS user_id, n_clicks, n_purchases
FROM c FULL OUTER JOIN p ON c.user_id = p.user_id
"""


def q_pivot_orders(sf_dir: str):
    """Pivot / wide conditional aggregation: order counts per priority
    spread across one column per order status."""
    orders = _read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"])
    out = relational.pivot_counts(orders, row_col="o_orderpriority",
                                  col_col="o_orderstatus",
                                  col_values=["F", "O", "P"]).to_pandas()
    cols = ["o_orderpriority", "n_F", "n_O", "n_P", "n_total"]
    return out[cols].astype({c: "int64" for c in cols[1:]})


SQL_PIVOT_ORDERS = """
SELECT o_orderpriority,
       COUNT(*) FILTER (WHERE o_orderstatus = 'F') AS n_F,
       COUNT(*) FILTER (WHERE o_orderstatus = 'O') AS n_O,
       COUNT(*) FILTER (WHERE o_orderstatus = 'P') AS n_P,
       COUNT(*) AS n_total
FROM orders
GROUP BY o_orderpriority
"""


def _set_op_sides(sf_dir: str):
    ev = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def side(etype: str):
        def f(batch: pa.Table) -> pa.Table:
            m = pc.and_(pc.equal(batch["event_type"], etype),
                        pc.greater(batch["value"], 200.0))
            return pa.table({"user_id": batch["user_id"].filter(m)})
        return f

    return (ev.map_batches(side("purchase"), batch_format="pyarrow"),
            ev.map_batches(side("error"), batch_format="pyarrow"))


def q_intersect_users(sf_dir: str):
    """SQL INTERSECT as a single-shuffle set op: users with a >200-value
    purchase AND a >200-value error event (distinct semantics)."""
    left, right = _set_op_sides(sf_dir)
    # ds_to_table keeps the user_id schema even when the intersection is
    # EMPTY (tiny-sf edge: a bare Dataset.to_pandas() drops to 0 columns)
    return relational.ds_to_table(
        relational.set_op(left, right, on="user_id", op="intersect"))


def q_except_users(sf_dir: str):
    """SQL EXCEPT as the same single-shuffle set op: big purchasers with
    NO big error event."""
    left, right = _set_op_sides(sf_dir)
    return relational.ds_to_table(
        relational.set_op(left, right, on="user_id", op="except"))


SQL_INTERSECT_USERS = """
SELECT user_id FROM events WHERE event_type = 'purchase' AND value > 200
INTERSECT
SELECT user_id FROM events WHERE event_type = 'error' AND value > 200
"""

SQL_EXCEPT_USERS = """
SELECT user_id FROM events WHERE event_type = 'purchase' AND value > 200
EXCEPT
SELECT user_id FROM events WHERE event_type = 'error' AND value > 200
"""


def q3_shipping_priority(sf_dir: str):
    """TPC-H Q3 (shipping priority, adapted to the synth schema): the
    10 unshipped BUILDING-segment orders with the highest revenue.
    Shape: segment semi-join (narrow key broadcast) → date-filtered
    orders ⋈ lineitem via ONE bucketed orderkey join with per-batch
    revenue pre-aggregation → tiny groupby → top-10.  Revenue in exact
    cents so the hash matches."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount",
                "l_shipdate"])
    cut = np.datetime64("1998-01-01T00:00:00")

    keys = cust.map_batches(
        lambda t: pa.table({"o_custkey": t.filter(
            pc.equal(t["c_mktsegment"], "BUILDING"))["c_custkey"]}),
        batch_format="pyarrow")
    ords = relational.semi_join(
        orders.map_batches(
            lambda t: t.filter(pc.less(t["o_orderdate"],
                                       pa.scalar(cut))),
            batch_format="pyarrow"),
        keys, on="o_custkey") \
        .map_batches(lambda t: t.select(["o_orderkey", "o_orderdate"]),
                     batch_format="pyarrow")

    def li_cents(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_shipdate"], pa.scalar(cut)))
        # DuckDB ROUND is half-away-from-zero; arrow defaults to
        # half-to-even — products CAN land exactly on .5 cents here
        rev = pc.cast(pc.round(pc.multiply(pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"])),
            100.0), round_mode="half_towards_infinity"), pa.int64())
        g = pa.table({"l_orderkey": t["l_orderkey"], "rc": rev}) \
            .group_by("l_orderkey").aggregate([("rc", "sum")])
        return pa.table({"l_orderkey": g["l_orderkey"],
                         "rc": g["rc_sum"].cast(pa.int64())})

    def comb(t: pa.Table) -> pa.Table:
        # join key == groupby key: every orderkey's rows are entirely in
        # this bucket, so this is the FULL per-order aggregate and the
        # bucket-local top-10 is globally exact — the downstream
        # groupby+sort shuffles are deleted (VERDICT r3 item #1).
        g = t.group_by("l_orderkey").aggregate(
            [("rc", "sum"), ("o_orderdate", "max")])
        df = pd.DataFrame({
            "l_orderkey": g["l_orderkey"].to_numpy(zero_copy_only=False),
            "rc": g["rc_sum"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "od": g["o_orderdate_max"].to_numpy(zero_copy_only=False)})
        df = df.sort_values(["rc", "l_orderkey"],
                            ascending=[False, True]).head(10)
        return pa.Table.from_pandas(df, preserve_index=False)

    j = relational.bucketed_hash_join(
        li.map_batches(li_cents, batch_format="pyarrow"),
        ords.map_batches(
            lambda t: t.rename_columns(["l_orderkey", "o_orderdate"]),
            batch_format="pyarrow"),
        on="l_orderkey", combine=comb)

    top = relational.ds_to_table(j).to_pandas() \
        .sort_values(["rc", "l_orderkey"],
                     ascending=[False, True]).head(10)
    top["revenue"] = top["rc"] / 100.0
    top = top.rename(columns={"l_orderkey": "o_orderkey",
                              "od": "o_orderdate"})
    return top[["o_orderkey", "revenue", "o_orderdate"]].reset_index(
        drop=True)


SQL_Q3 = """
SELECT l_orderkey AS o_orderkey,
       SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100)
                AS BIGINT)) / 100.0 AS revenue,
       MAX(o_orderdate) AS o_orderdate
FROM customer JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1998-01-01'
  AND l_shipdate > TIMESTAMP '1998-01-01'
GROUP BY l_orderkey
ORDER BY revenue DESC, l_orderkey LIMIT 10
"""


def q5_local_supplier_volume(sf_dir: str):
    """TPC-H Q5 (local supplier volume, adapted): revenue per ASIA
    nation from lineitems where supplier and customer share the nation.
    Shape: region→nation→supplier/customer dims broadcast; orders
    date-filter + broadcast customer-nation attach; ONE bucketed
    orderkey join lineitem⋈orders; supplier-nation attach from the
    broadcast map; equality filter; per-batch cents partials → tiny
    nation groupby."""
    nation_t = _read_table(sf_dir, "nation",
                           ["n_nationkey", "n_name", "n_regionkey"])
    region_t = _read_table(sf_dir, "region", ["r_regionkey", "r_name"])
    cust_dim = _read_table(sf_dir, "customer",
                           ["c_custkey", "c_nationkey"])
    supp_dim = _read_table(sf_dir, "supplier",
                           ["s_suppkey", "s_nationkey"])
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice",
                "l_discount"])
    lo = np.datetime64("1996-01-01T00:00:00")
    hi = np.datetime64("1999-01-01T00:00:00")

    rt = region_t.to_pandas()
    asia = int(rt.loc[rt.r_name == "ASIA", "r_regionkey"].iloc[0])
    nt = nation_t.to_pandas()
    nt = nt[nt.n_regionkey == asia]
    nkeys = set(nt.n_nationkey.tolist())

    ords = orders.map_batches(
        lambda t: t.filter(pc.and_(
            pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
            pc.less(t["o_orderdate"], pa.scalar(hi)))),
        batch_format="pyarrow")
    cust_t = cust_dim
    mask = pc.is_in(cust_t["c_nationkey"],
                    value_set=pa.array(sorted(nkeys),
                                       type=cust_t["c_nationkey"].type))
    cust_t = cust_t.filter(mask)
    o2 = relational.broadcast_join(
        ords.map_batches(
            lambda t: pa.table({"o_orderkey": t["o_orderkey"],
                                "c_custkey": t["o_custkey"]}),
            batch_format="pyarrow"),
        cust_t, on="c_custkey")

    # fused bucket tail (VERDICT r3 item #1): the supplier→nation map is
    # dim-sized, so it rides along as a broadcast ref and the supplier
    # attach + same-nation filter + nation partial all run INSIDE the
    # bucket join task — joined rows never re-enter the object store;
    # each bucket emits ≤ |nations| partial rows.
    supp_pd = supp_dim.to_pandas()
    sref = ray.put(supp_pd.set_index("s_suppkey")["s_nationkey"]
                   .astype(np.int64))

    def comb(t: pa.Table) -> pa.Table:
        smap = worker_cached(("q5_supp", sref),
                             lambda: ray.get(sref))
        snat = smap.reindex(
            t["l_suppkey"].to_numpy(zero_copy_only=False)).to_numpy()
        cnat = t["c_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = snat == cnat
        g = pa.table({"n_nationkey": pa.array(cnat[keep]),
                      "rc": pa.array(t["rc"].to_numpy(
                          zero_copy_only=False).astype(np.int64)[keep])}) \
            .group_by("n_nationkey").aggregate([("rc", "sum")])
        return pa.table({"n_nationkey": g["n_nationkey"],
                         "prc": g["rc_sum"].cast(pa.int64())})

    j = relational.bucketed_hash_join(
        li.map_batches(
            lambda t: pa.table({
                "o_orderkey": t["l_orderkey"],
                "l_suppkey": t["l_suppkey"],
                "rc": pc.cast(pc.round(pc.multiply(pc.multiply(
                    t["l_extendedprice"],
                    pc.subtract(pa.scalar(1.0), t["l_discount"])),
                    100.0), round_mode="half_towards_infinity"),
                    pa.int64())}),
            batch_format="pyarrow"),
        o2.map_batches(
            lambda t: t.select(["o_orderkey", "c_nationkey"]),
            batch_format="pyarrow"),
        on="o_orderkey", combine=comb)

    # ≤ buckets × |nations| partial rows: finish on the driver
    agg = relational.ds_to_table(j).to_pandas() \
        .groupby("n_nationkey", as_index=False)["prc"].sum() \
        .rename(columns={"prc": "rc"})
    out = agg.merge(nt[["n_nationkey", "n_name"]], on="n_nationkey")
    out["revenue"] = out["rc"] / 100.0
    out = out.sort_values(["revenue", "n_name"],
                          ascending=[False, True]).reset_index(drop=True)
    return out[["n_name", "revenue"]]


SQL_Q5 = """
SELECT n_name,
       SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100)
                AS BIGINT)) / 100.0 AS revenue
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
WHERE r_name = 'ASIA'
  AND s_nationkey = c_nationkey
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1999-01-01'
GROUP BY n_name
ORDER BY revenue DESC, n_name
"""


def q_profile_orders(sf_dir: str):
    """ANALYZE-style column profiling of the orders table: one
    streaming pass, per-batch column partials, tiny groupby merge."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])
    return relational.profile_columns(
        orders, ["o_orderkey", "o_custkey", "o_totalprice"])


SQL_PROFILE = """
SELECT 'o_orderkey' AS column, COUNT(o_orderkey) AS n,
       COUNT(*) - COUNT(o_orderkey) AS n_null,
       CAST(MIN(o_orderkey) AS DOUBLE) AS min_val,
       CAST(MAX(o_orderkey) AS DOUBLE) AS max_val FROM orders
UNION ALL
SELECT 'o_custkey', COUNT(o_custkey), COUNT(*) - COUNT(o_custkey),
       CAST(MIN(o_custkey) AS DOUBLE), CAST(MAX(o_custkey) AS DOUBLE)
FROM orders
UNION ALL
SELECT 'o_totalprice', COUNT(o_totalprice),
       COUNT(*) - COUNT(o_totalprice),
       CAST(MIN(o_totalprice) AS DOUBLE),
       CAST(MAX(o_totalprice) AS DOUBLE) FROM orders
"""


def q_latest_event_per_user(sf_dir: str):
    """DISTINCT ON / latest-row-per-key: each user's most recent event
    (ts DESC, event_id tie-break) via the per-batch-pruned grouped
    top-n — the shuffle carries ≤ 1 row per (user, batch)."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    out = relational.grouped_top_n(ev, key_col="user_id",
                                   order_col="ts", n=1,
                                   id_col="event_id").to_pandas()
    return out[["user_id", "event_id", "ts"]]


SQL_LATEST_EVENT = """
SELECT user_id, event_id, ts FROM (
  SELECT user_id, event_id, ts,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id) AS rn
  FROM events)
WHERE rn = 1
"""


def q_regr_price_quantity(sf_dir: str):
    """Per-returnflag linear fit of extended price on quantity
    (REGR_SLOPE/REGR_INTERCEPT) from one sufficient-statistics pass."""
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"])
    return relational.grouped_regression(
        li, key_col="l_returnflag", x_col="l_quantity",
        y_col="l_extendedprice")


SQL_REGR = """
SELECT l_returnflag, COUNT(*) AS n,
       ROUND(REGR_SLOPE(l_extendedprice, l_quantity), 4) AS slope,
       ROUND(REGR_INTERCEPT(l_extendedprice, l_quantity), 4)
         AS intercept
FROM lineitem GROUP BY l_returnflag
"""


def q_zscore_acctbal(sf_dir: str):
    """Per-nation z-score standardization of customer balances (the
    feature-normalization primitive): two sufficient-statistic passes,
    size-guarded broadcast of the per-key stats."""
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])
    return relational.grouped_zscore(
        cust, key_col="c_nationkey", val_col="c_acctbal",
        id_col="c_custkey")


SQL_ZSCORE = """
SELECT c_custkey, c_nationkey, c_acctbal,
       ROUND((c_acctbal - AVG(c_acctbal)
                OVER (PARTITION BY c_nationkey))
             / STDDEV_SAMP(c_acctbal)
                OVER (PARTITION BY c_nationkey), 4) AS zscore
FROM customer
"""


def q_funnel_click_purchase(sf_dir: str):
    """Two-step conversion funnel: per user, the first click and whether
    a purchase follows within 24 h (strictly after, inclusive bound).
    Rows filter to the two step types BEFORE the single user-bucket
    shuffle."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    return relational.funnel_conversion(
        ev, user_col="user_id", ts_col="ts", type_col="event_type",
        first_step="click", second_step="purchase", within_sec=86400)


SQL_FUNNEL = """
WITH f AS (
  SELECT user_id, MIN(ts) AS first_ts FROM events
  WHERE event_type = 'click' GROUP BY user_id)
SELECT f.user_id, f.first_ts,
       CAST(CASE WHEN EXISTS (
         SELECT 1 FROM events p
         WHERE p.user_id = f.user_id AND p.event_type = 'purchase'
           AND p.ts > f.first_ts
           AND p.ts <= f.first_ts + INTERVAL 1 DAY)
       THEN 1 ELSE 0 END AS BIGINT) AS converted
FROM f
"""


def q_cohort_retention(sf_dir: str):
    """Weekly cohort retention triangle: users cohorted by the
    epoch-week of their first event; distinct active users per
    (cohort_week, week_offset)."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])
    return relational.cohort_retention(ev, user_col="user_id",
                                       ts_col="ts")


SQL_COHORT = """
WITH w AS (
  SELECT user_id, epoch_us(ts) // 604800000000 AS week FROM events),
c AS (SELECT user_id, MIN(week) AS cohort_week FROM w GROUP BY user_id),
t AS (SELECT DISTINCT c.cohort_week, w.week - c.cohort_week AS week_offset,
             w.user_id
      FROM w JOIN c USING (user_id))
SELECT cohort_week, week_offset, COUNT(*) AS n_users
FROM t GROUP BY cohort_week, week_offset
"""


def q_rank_events_user(sf_dir: str):
    """Rank windows per user over event value (cents): ROW_NUMBER /
    RANK / DENSE_RANK / PERCENT_RANK in one bucket-shuffle kernel.
    PERCENT_RANK is one exact-int division so the doubles are
    bit-identical across engines."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["value"], 100.0)),
                        pa.int64())
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"], "cents": cents})

    return relational.grouped_ranks(
        ev.map_batches(to_cents, batch_format="pyarrow"),
        key_col="user_id", order_col="cents", id_col="event_id")


SQL_RANKS = """
SELECT event_id, user_id, CAST(ROUND(value * 100) AS BIGINT) AS cents,
       ROW_NUMBER() OVER (PARTITION BY user_id
                          ORDER BY ROUND(value * 100), event_id)
         AS row_number,
       RANK() OVER w AS rank,
       DENSE_RANK() OVER w AS dense_rank,
       PERCENT_RANK() OVER w AS pct_rank,
       CUME_DIST() OVER w AS cume_dist
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ROUND(value * 100))
"""


def q_moving_sum_user(sf_dir: str):
    """Bounded row window: per-user 4-row moving spend total (ROWS
    BETWEEN 3 PRECEDING AND CURRENT ROW), exact on integer cents."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["value"], 100.0)),
                        pa.int64())
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"], "ts": t["ts"],
                         "cents": cents})

    out = relational.moving_aggregate(
        ev.map_batches(to_cents, batch_format="pyarrow"),
        key_col="user_id", ts_col="ts", order_col="event_id",
        value_col="cents", window_rows=3).to_pandas()
    out["mov_value"] = out["mov_sum"] / 100.0
    return out[["event_id", "user_id", "mov_n", "mov_value"]] \
        .astype({"mov_n": "int64"})


SQL_MOVING = """
SELECT event_id, user_id,
       COUNT(*) OVER w AS mov_n,
       SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER w / 100.0
         AS mov_value
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
"""


def q_mode_event_per_user(sf_dir: str):
    """MODE() per key: each user's most frequent event type (ties →
    lexicographically smallest).  Count partials shrink the exchange
    before the one argmax shuffle."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    return relational.grouped_mode(ev, key_col="user_id",
                                   val_col="event_type")


SQL_MODE = """
WITH c AS (SELECT user_id, event_type, COUNT(*) AS n
           FROM events GROUP BY user_id, event_type),
r AS (SELECT user_id, event_type, n,
             ROW_NUMBER() OVER (PARTITION BY user_id
                                ORDER BY n DESC, event_type) AS rn
      FROM c)
SELECT user_id, event_type AS mode_value, n AS n_mode
FROM r WHERE rn = 1
"""


def q_value_band_lookup(sf_dir: str):
    """Interval-containment lookup join (the IP-range / price-band
    shape): each event's value resolves to its [lo, hi) band via one
    broadcast searchsorted per batch — no shuffle."""
    ev = _read(sf_dir, "events", ["event_id", "value"])
    ranges = pa.table({
        "lo": pa.array([0.0, 10.0, 50.0, 200.0, 500.0]),
        "hi": pa.array([10.0, 50.0, 200.0, 500.0, 1e9]),
        "band": pa.array(["micro", "small", "mid", "large", "huge"]),
    })
    return relational.interval_lookup_join(ev, "value", ranges,
                                           how="inner")


SQL_VALUE_BAND = """
SELECT event_id, value, band
FROM events
JOIN (VALUES (0.0, 10.0, 'micro'), (10.0, 50.0, 'small'),
             (50.0, 200.0, 'mid'), (200.0, 500.0, 'large'),
             (500.0, 1000000000.0, 'huge')) AS r(lo, hi, band)
  ON value >= lo AND value < hi
"""


def q_event_type_pairs(sf_dir: str):
    """Market-basket co-occurrence: for every unordered pair of event
    types, the number of users who performed both — vectorized
    triangular pair explosion per user bucket, |V|²-bounded output."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    return relational.cooccurrence_pairs(ev, key_col="user_id",
                                         val_col="event_type")


SQL_EVENT_PAIRS = """
WITH d AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS a, b.event_type AS b, COUNT(*) AS n_keys
FROM d a JOIN d b
  ON a.user_id = b.user_id AND a.event_type < b.event_type
GROUP BY a.event_type, b.event_type
"""


def q_longest_daily_streak(sf_dir: str):
    """Gaps-and-islands: each user's longest run of consecutive active
    days (the engagement-streak window no plain groupby expresses)."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])
    return relational.longest_consecutive_run(ev, key_col="user_id",
                                              ts_col="ts")


SQL_DAILY_STREAK = """
WITH d AS (SELECT DISTINCT user_id,
                  date_diff('day', DATE '1970-01-01',
                            CAST(ts AS DATE)) AS day
           FROM events),
i AS (SELECT user_id, day,
             day - ROW_NUMBER() OVER (PARTITION BY user_id
                                      ORDER BY day) AS island
      FROM d),
runs AS (SELECT user_id, island, COUNT(*) AS len
         FROM i GROUP BY user_id, island)
SELECT user_id, MAX(len) AS longest_streak FROM runs GROUP BY user_id
"""


def q_user_event_paths(sf_dir: str):
    """Clickstream path analysis: every user's full ordered event-type
    sequence as one path string (the ordered-STRING_AGG shape; also how
    anchor texts aggregate per target URL in a web graph)."""
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])
    return relational.grouped_ordered_concat(
        ev, key_col="user_id", order_cols=["ts", "event_id"],
        val_col="event_type", sep=">", out_col="path")


SQL_EVENT_PATHS = """
SELECT user_id,
       STRING_AGG(event_type, '>' ORDER BY ts, event_id) AS path,
       COUNT(*) AS n_events
FROM events GROUP BY user_id
"""


def q_pareto_orders(sf_dir: str):
    """Skyline / Pareto frontier: orders not dominated on
    (o_totalprice max, o_orderdate min).  The per-batch prune is a
    combiner — each block collapses to its own frontier before the
    single-task final prune, so the shuffle moves frontier-sized data
    only."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_totalprice", "o_orderdate"])
    return relational.skyline(orders, max_col="o_totalprice",
                              min_col="o_orderdate",
                              keep_cols=["o_orderkey", "o_totalprice",
                                         "o_orderdate"])


SQL_PARETO = """
SELECT o_orderkey, o_totalprice, o_orderdate FROM orders o
WHERE NOT EXISTS (
  SELECT 1 FROM orders x
  WHERE x.o_totalprice >= o.o_totalprice
    AND x.o_orderdate <= o.o_orderdate
    AND (x.o_totalprice > o.o_totalprice
         OR x.o_orderdate < o.o_orderdate))
"""


def q_audience_overlap(sf_dir: str):
    """HLL sketch algebra: approximate per-event-type distinct users,
    pairwise unions (register-max merge) and inclusion-exclusion
    overlaps, from ONE streaming pass over events.  No SQL oracle by
    design (approximate); pytest pins the error bound against the exact
    overlap and partition-invariance."""
    from ...stages import sketches
    ev = _read(sf_dir, "events", ["event_type", "user_id"])
    return sketches.hll_overlap_matrix(ev, group_col="event_type",
                                       key_col="user_id")


def q13_customer_distribution(sf_dir: str):
    """TPC-H Q13 (customer order-count distribution) WITHOUT the
    customer⋈orders join: per-batch order partials → one custkey
    groupby → tiny histogram partials merged on the driver; the zero
    bucket is |customer| − |custkeys with orders| (FK guarantees the
    subset), so the customer table contributes one distributed count
    instead of a join side."""
    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("o_custkey").aggregate([("o_custkey", "count")])
        return pa.table({"o_custkey": g["o_custkey"],
                         "pn": g["o_custkey_count"].cast(pa.int64())})

    def hist(df: pd.DataFrame) -> pa.Table:
        # per-bucket: full per-customer counts (a custkey lives in one
        # bucket), then the tiny histogram partial
        s = df.groupby("o_custkey", sort=False)["pn"].sum() \
            .value_counts()
        return pa.table({
            "c_count": pa.array(s.index.to_numpy(dtype=np.int64)),
            "pn": pa.array(s.to_numpy(dtype=np.int64))})

    parts = relational.ds_to_table(
        relational.bucket_shuffle(orders, "o_custkey", hist,
                                  prepare=partial)).to_pandas()
    agg = parts.groupby("c_count", as_index=False)["pn"].sum() \
        .rename(columns={"pn": "custdist"})
    zero = int(cust.count()) - int(agg["custdist"].sum())
    if zero > 0:
        agg = pd.concat([agg, pd.DataFrame(
            [{"c_count": 0, "custdist": zero}])], ignore_index=True)
    agg = agg.sort_values(["custdist", "c_count"],
                          ascending=[False, False]).reset_index(drop=True)
    return agg[["c_count", "custdist"]]


SQL_Q13 = """
SELECT c_count, COUNT(*) AS custdist FROM (
  SELECT c.c_custkey, COUNT(o.o_orderkey) AS c_count
  FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey
  GROUP BY c.c_custkey) t
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
"""


def q14_promo_revenue(sf_dir: str):
    """TPC-H Q14 (promo revenue share, March 1997): one bucketed
    partkey join (month-filtered lineitem cents)⋈(part promo flag)
    with BOTH cents sums fused into the bucket tail — each bucket
    emits one partial row; the driver finishes a single division."""
    part = _read(sf_dir, "part", ["p_partkey", "p_type"])
    import pyarrow.dataset as pds
    lo = np.datetime64("1997-03-01T00:00:00")
    hi = np.datetime64("1997-04-01T00:00:00")
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_discount",
                "l_shipdate"],
               filter=((pds.field("l_shipdate") >= pa.scalar(lo))
                       & (pds.field("l_shipdate") < pa.scalar(hi))))

    def li_prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(
            pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
            pc.less(t["l_shipdate"], pa.scalar(hi))))
        rc = pc.cast(pc.round(pc.multiply(pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(100.0)), ndigits=0,
            round_mode="half_towards_infinity"), pa.int64())
        return pa.table({"p_partkey": t["l_partkey"], "rc": rc})

    pf = part.map_batches(
        lambda t: pa.table({
            "p_partkey": t["p_partkey"],
            "promo": pc.cast(pc.equal(t["p_type"], "PROMO"),
                             pa.int64())}),
        batch_format="pyarrow")

    def comb(t: pa.Table) -> pa.Table:
        rc = t["rc"].to_numpy(zero_copy_only=False)
        pr = t["promo"].to_numpy(zero_copy_only=False)
        return pa.table({"p": pa.array([int((rc * pr).sum())],
                                       type=pa.int64()),
                         "t": pa.array([int(rc.sum())],
                                       type=pa.int64())})

    j = relational.bucketed_hash_join(
        li.map_batches(li_prep, batch_format="pyarrow"), pf,
        on="p_partkey", combine=comb)
    tot = relational.ds_to_table(j).to_pandas()
    p, t = int(tot["p"].sum()), int(tot["t"].sum())
    return pd.DataFrame([{"promo_revenue": float(np.round(
        100.0 * p / t, 4))}])


SQL_Q14 = """
SELECT ROUND(100.0 * SUM(CASE WHEN p_type = 'PROMO' THEN
             CAST(ROUND(l_extendedprice * (1 - l_discount) * 100)
                  AS BIGINT) ELSE 0 END)
       / SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 100)
                  AS BIGINT)), 4) AS promo_revenue
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE l_shipdate >= TIMESTAMP '1997-03-01'
  AND l_shipdate < TIMESTAMP '1997-04-01'
"""


def q18_large_orders(sf_dir: str):
    """TPC-H Q18 (large-volume orders, threshold 300): per-batch
    quantity partials → ONE coarse-bucket shuffle (hash(orderkey) % 64
    — a 64-group exchange, not a 150k-key global sort; measured 11.7 s
    → ~1 s at sf0.1) with the per-order sum + HAVING filter vectorized
    per bucket → tiny survivor set → broadcast semi against orders for
    the customer/date/price columns."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate",
                    "o_totalprice"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({"o_orderkey": t["l_orderkey"],
                      "q": t["l_quantity"].cast(pa.int64())}) \
            .group_by("o_orderkey").aggregate([("q", "sum")])
        return pa.table({"o_orderkey": g["o_orderkey"],
                         "pq": g["q_sum"].cast(pa.int64())})

    def finish(df: pd.DataFrame) -> pa.Table:
        s = df.groupby("o_orderkey", sort=False)["pq"].sum()
        s = s[s > 300]
        return pa.table({
            "o_orderkey": pa.array(s.index.to_numpy(dtype=np.int64)),
            "sum_qty": pa.array(s.to_numpy(dtype=np.int64))})

    big = relational.ds_to_table(
        relational.bucket_shuffle(li, "o_orderkey", finish,
                                  prepare=partial)).to_pandas()
    keys = pa.array(sorted(big["o_orderkey"].tolist()), type=pa.int64())
    ords = relational.ds_to_table(orders.map_batches(
        lambda t: t.filter(pc.is_in(
            t["o_orderkey"].cast(pa.int64()), value_set=keys)),
        batch_format="pyarrow")).to_pandas()
    out = ords.merge(big, on="o_orderkey") \
        .sort_values(["o_totalprice", "o_orderkey"],
                     ascending=[False, True]).head(100) \
        .reset_index(drop=True)
    out = _round2(out, ["o_totalprice"])
    return out[["o_custkey", "o_orderkey", "o_orderdate",
                "o_totalprice", "sum_qty"]]


SQL_Q18 = """
SELECT o_custkey, o_orderkey, o_orderdate,
       ROUND(o_totalprice, 2) AS o_totalprice,
       CAST(SUM(l_quantity) AS BIGINT) AS sum_qty
FROM orders JOIN lineitem ON o_orderkey = l_orderkey
GROUP BY o_custkey, o_orderkey, o_orderdate, o_totalprice
HAVING SUM(l_quantity) > 300
ORDER BY o_totalprice DESC, o_orderkey
LIMIT 100
"""


def q_ewma_user_value(sf_dir: str):
    """Per-user bounded-history exponential moving average of spend
    (decay 1/2 over the last 24 events) — the streaming-telemetry
    smoothing shape.  Dyadic weights on integer cents keep every
    intermediate EXACT in float64 at any partitioning/summation order,
    so the SQL twin matches with no rounding pin
    (relational.ewma_bounded: one coarse-bucket shuffle, 24 shifted-add
    vector ops per bucket)."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["value"], 100.0)),
                        pa.int64())
        return pa.table({"user_id": t["user_id"], "ts": t["ts"],
                         "event_id": t["event_id"], "cents": cents})

    out = relational.ewma_bounded(
        ev.map_batches(to_cents, batch_format="pyarrow"),
        key_col="user_id", ts_col="ts", order_col="event_id",
        value_col="cents", window_rows=24).to_pandas()
    out["ewma_value"] = out["ewma"] / 100.0
    return out[["event_id", "user_id", "ewma_value"]] \
        .sort_values("event_id").reset_index(drop=True)


SQL_EWMA = """
WITH c AS (
  SELECT event_id, user_id,
         CAST(ROUND(value * 100) AS BIGINT) AS cents,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events)
SELECT a.event_id, a.user_id,
       SUM(b.cents * POWER(0.5, a.rn - b.rn))
         / SUM(POWER(0.5, a.rn - b.rn)) / 100.0 AS ewma_value
FROM c a JOIN c b
  ON b.user_id = a.user_id AND b.rn <= a.rn AND b.rn > a.rn - 24
GROUP BY a.event_id, a.user_id
ORDER BY a.event_id
"""


def q_adaptive_join_detects_skew(sf_dir: str):
    """Skew-ADAPTIVE join plan selection end-to-end: the same
    80 %-one-key workload as salted_join_hot_key, but the engine
    detects the scorching key itself (streaming heavy-key partials)
    and routes through the salted plan automatically — the
    measure-then-salt loop folded into one operator
    (relational.adaptive_join).  The SQL twin is the plain join:
    plan choice must never change results."""
    ev = _read(sf_dir, "events", ["event_id", "user_id"])

    def derive(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        k = np.where(eid % 5 == 0, uid, 0).astype(np.int64)
        return pa.table({"event_id": t["event_id"], "k": pa.array(k)})

    left = ev.map_batches(derive, batch_format="pyarrow")

    def users(t: pa.Table) -> pa.Table:
        u = pc.unique(t["user_id"])
        return pa.table({"k": u, "label": pc.multiply(u, 7)})

    from ray.data.aggregate import Max
    right = ev.map_batches(users, batch_format="pyarrow") \
        .groupby("k").aggregate(Max("label", alias_name="label"))
    out = relational.adaptive_join(left, right, on="k",
                                   hot_fraction=0.02).to_pandas()
    return out[["event_id", "k", "label"]].astype({"label": "int64"})


SQL_ADAPTIVE_JOIN = """
WITH l AS (
  SELECT event_id,
         CASE WHEN event_id % 5 = 0 THEN user_id ELSE 0 END AS k
  FROM events),
r AS (SELECT DISTINCT user_id AS k, user_id * 7 AS label FROM events)
SELECT l.event_id, l.k, CAST(r.label AS BIGINT) AS label
FROM l JOIN r ON r.k = l.k
"""


def q_event_entropy_user(sf_dir: str):
    """Behavioral-diversity scoring: Shannon entropy of each user's
    event-type distribution, top 100 users by volume (bot/monoculture
    accounts score near 0, diverse organic users near log2(|types|)).
    Counts stay exact ints through both exchanges; the per-user finish
    is the coarse-bucket vectorized pattern (one C-speed pandas groupby
    per bucket, rows pre-sorted so the float reduction order is
    pinned); entropy = log2(n) − Σc·log2(c)/n evaluates the identical
    double expression as the SQL twin.  The (n desc, user asc) prune is
    a strict total order, so per-bucket head(100) is exact."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({"user_id":
                          t["user_id"].to_numpy(zero_copy_only=False),
                          "event_type":
                          t["event_type"].to_numpy(zero_copy_only=False),
                          "pn": 1}) \
            .groupby(["user_id", "event_type"], sort=False)["pn"] \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cnt = ev.map_batches(partial, batch_format="pyarrow") \
        .groupby(["user_id", "event_type"]) \
        .aggregate(Sum("pn", alias_name="c"))

    def finish(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["user_id", "event_type"])
        c = df["c"].to_numpy(dtype=np.float64)
        key = df["user_id"]
        n = df.groupby(key, sort=True)["c"].sum()
        s = pd.Series(c * np.log2(c), index=df.index) \
            .groupby(key, sort=True).sum()
        nv = n.to_numpy(dtype=np.float64)
        ent = np.log2(nv) - s.to_numpy() / nv
        out = pd.DataFrame({"user_id": n.index.to_numpy(dtype=np.int64),
                            "n_events": n.to_numpy(dtype=np.int64),
                            "entropy": np.round(ent, 4)})
        out = out.sort_values(["n_events", "user_id"],
                              ascending=[False, True]).head(100)
        return pa.Table.from_pandas(out, preserve_index=False)

    per_user = relational.bucket_shuffle(cnt, "user_id", finish)
    res = relational.ds_to_table(per_user).to_pandas()
    return res.sort_values(["n_events", "user_id"],
                           ascending=[False, True]).head(100) \
        .reset_index(drop=True)


SQL_EVENT_ENTROPY = """
WITH c AS (SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS c
           FROM events GROUP BY 1, 2),
u AS (SELECT user_id, SUM(c) AS n,
             SUM(CAST(c AS DOUBLE) * LOG2(CAST(c AS DOUBLE))) AS s
      FROM c GROUP BY 1)
SELECT user_id, CAST(n AS BIGINT) AS n_events,
       ROUND(LOG2(CAST(n AS DOUBLE)) - s / CAST(n AS DOUBLE), 4)
         AS entropy
FROM u ORDER BY n DESC, user_id LIMIT 100
"""


def q_open_orders_per_day(sf_dir: str):
    """Concurrent-interval sweep: how many orders are IN FLIGHT (first
    line-item shipment through last) on each change day — the classic
    interval-overlap count done as a ±1 delta sweep + distributed
    prefix sum, NEVER an interval×day explode (at 100 TB an order
    spanning 90 days must not emit 90 rows) and never a join: both
    interval endpoints derive from lineitem alone, so ONE coarse
    orderkey-bucket stage finishes the per-order (min, max) and emits
    day-bounded ±1 counts.  The running count reuses the range-bucket
    prefix-sum kernel over the materialized (days-bounded) delta
    table.  Exact ints end to end."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def per_order_partial(t: pa.Table) -> pd.DataFrame:
        day = t["l_shipdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64)
        return pd.DataFrame({"o_orderkey":
                             t["l_orderkey"].to_numpy(zero_copy_only=False),
                             "ps": day, "pm": day}) \
            .groupby("o_orderkey", sort=False) \
            .agg(ps=("ps", "min"), pm=("pm", "max")).reset_index()

    def bucket_deltas(df: pd.DataFrame) -> pa.Table:
        # all partials of an order land in this one bucket: finish the
        # (min, max), emit ±1 counts — output is days-bounded
        g = df.groupby("o_orderkey", sort=False) \
            .agg(ps=("ps", "min"), pm=("pm", "max"))
        start = g["ps"].to_numpy(dtype=np.int64)
        end = g["pm"].to_numpy(dtype=np.int64) + 1   # half-open
        su, sc = np.unique(start, return_counts=True)
        eu, ec = np.unique(end, return_counts=True)
        return pa.table({
            "day": pa.array(np.concatenate([su, eu])),
            "pd_": pa.array(np.concatenate(
                [sc.astype(np.int64), -ec.astype(np.int64)]))})

    deltas = relational.bucket_shuffle(li, "o_orderkey", bucket_deltas,
                                       prepare=per_order_partial) \
        .groupby("day").aggregate(Sum("pd_", alias_name="delta")) \
        .materialize()      # days-bounded; prefix sum consumes it twice
    cum = relational.global_prefix_sum(deltas, order_col="day",
                                       value_col="delta", out_col="open")
    out = relational.ds_to_table(cum).to_pandas() \
        .sort_values("day").reset_index(drop=True)
    return pd.DataFrame({
        "day": out["day"].to_numpy(dtype=np.int64)
        .astype("datetime64[D]").astype("datetime64[us]"),
        "open_orders": out["open"].to_numpy(dtype=np.int64)})


SQL_OPEN_ORDERS = """
WITH iv AS (SELECT l_orderkey, MIN(CAST(l_shipdate AS DATE)) AS s,
                   MAX(CAST(l_shipdate AS DATE)) AS m
            FROM lineitem GROUP BY 1),
dl AS (SELECT s AS day, 1 AS delta FROM iv
       UNION ALL
       SELECT CAST(m + INTERVAL 1 DAY AS DATE) AS day, -1 AS delta
       FROM iv),
g AS (SELECT day, SUM(delta) AS delta FROM dl GROUP BY 1)
SELECT CAST(day AS TIMESTAMP) AS day,
       CAST(SUM(delta) OVER (ORDER BY day ROWS UNBOUNDED PRECEDING)
            AS BIGINT) AS open_orders
FROM g ORDER BY day
"""


def q_kaplan_meier_retention(sf_dir: str):
    """Kaplan–Meier survival of customer lifetime (days from first to
    last order), right-censored at the corpus horizon: a customer whose
    last order is within 90 days of the max order date is still-alive
    (censored), otherwise it churned at its observed duration.
    Per-customer first/last reduce once (exact day ints) and map
    straight into (duration, churned) count partials — nothing
    customer-scaled ever reaches the driver; only the KM table
    (bounded by DISTINCT durations) does, where at-risk counts and the
    survival cumulative product run with the identical multiply order
    as the SQL window PRODUCT (sequential over t ascending)."""
    from ray.data.aggregate import Max, Min, Sum
    ev = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64)
        g = pd.DataFrame({"o_custkey":
                          t["o_custkey"].to_numpy(zero_copy_only=False),
                          "pf": day, "pl": day}) \
            .groupby("o_custkey", sort=False) \
            .agg(pf=("pf", "min"), pl=("pl", "max")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    # horizon from a tiny bounds pass (== max over customers of l)
    mx = int(_read(sf_dir, "orders", ["o_orderdate"]).map_batches(
        lambda t: pa.table({"d": pa.array(
            t["o_orderdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[D]").astype(np.int64))}),
        batch_format="pyarrow").aggregate(Max("d", alias_name="m"))["m"])

    def to_km_partials(t: pa.Table) -> pa.Table:
        f = t["f"].to_numpy(zero_copy_only=False).astype(np.int64)
        l = t["l"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({"t": l - f,
                          "pd_": ((mx - l) >= 90).astype(np.int64),
                          "pc_": 1}) \
            .groupby("t", sort=False) \
            .agg(pd_=("pd_", "sum"), pc_=("pc_", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    km = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("o_custkey").aggregate(Min("pf", alias_name="f"),
                                        Max("pl", alias_name="l"))
        .map_batches(to_km_partials, batch_format="pyarrow")
        .groupby("t").aggregate(Sum("pd_", alias_name="d"),
                                Sum("pc_", alias_name="c"))
    ).to_pandas().sort_values("t").reset_index(drop=True)
    n = int(km["c"].sum())
    seen_before = np.cumsum(km["c"].to_numpy(np.int64)) \
        - km["c"].to_numpy(np.int64)
    r = n - seen_before                      # at risk: duration >= t
    d = km["d"].to_numpy(dtype=np.int64)
    surv = np.cumprod(1.0 - d.astype(np.float64) / r.astype(np.float64))
    keep = d > 0
    return pd.DataFrame({"t_days": km["t"].to_numpy(np.int64)[keep],
                         "at_risk": r[keep], "events": d[keep],
                         "survival": np.round(surv[keep], 6)})


SQL_KAPLAN_MEIER = """
WITH u AS (SELECT o_custkey, MIN(CAST(o_orderdate AS DATE)) AS f,
                  MAX(CAST(o_orderdate AS DATE)) AS l
           FROM orders GROUP BY 1),
m AS (SELECT MAX(l) AS mx FROM u),
d AS (SELECT date_diff('day', f, l) AS t,
             CASE WHEN date_diff('day', l, mx) >= 90
                  THEN 1 ELSE 0 END AS ev
      FROM u, m),
tot AS (SELECT COUNT(*) AS n FROM d),
g AS (SELECT t, SUM(ev) AS d, COUNT(*) AS c FROM d GROUP BY t),
k AS (SELECT t, d,
             n - (SUM(c) OVER (ORDER BY t ROWS UNBOUNDED PRECEDING)
                  - c) AS r
      FROM g, tot),
s AS (SELECT t, d, r,
             PRODUCT(1.0 - CAST(d AS DOUBLE) / r)
               OVER (ORDER BY t ROWS UNBOUNDED PRECEDING) AS surv
      FROM k)
SELECT CAST(t AS BIGINT) AS t_days, CAST(r AS BIGINT) AS at_risk,
       CAST(d AS BIGINT) AS events, ROUND(surv, 6) AS survival
FROM s WHERE d > 0 ORDER BY t
"""


def q_part_copurchase_pairs(sf_dir: str):
    """Market-basket mining on the order contents: the 50 part pairs
    most often bought together in one order.  Rides the cooccurrence
    kernel (distinct (order, part) partials → one order-bucket shuffle
    → vectorized triangular pair unranking → bounded (a, b) groupby);
    parts-per-order is naturally small so the per-key explosion is
    k(k−1)/2 ≈ 21 rows max.  (n desc, part_a, part_b) is a strict
    total order, so the per-batch top-50 prune is exact."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    pairs = relational.cooccurrence_pairs(li, key_col="l_orderkey",
                                          val_col="l_partkey")

    def prune(t: pa.Table) -> pa.Table:
        d = t.to_pandas().sort_values(
            ["n_keys", "a", "b"],
            ascending=[False, True, True]).head(50)
        return pa.Table.from_pandas(d, preserve_index=False)

    res = relational.ds_to_table(
        pairs.map_batches(prune, batch_format="pyarrow")).to_pandas()
    res = res.sort_values(["n_keys", "a", "b"],
                          ascending=[False, True, True]).head(50) \
        .reset_index(drop=True)
    return res.rename(columns={"a": "part_a", "b": "part_b",
                               "n_keys": "n_orders"})


SQL_COPURCHASE = """
WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)
SELECT x.l_partkey AS part_a, y.l_partkey AS part_b,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM d x JOIN d y ON x.l_orderkey = y.l_orderkey
                 AND x.l_partkey < y.l_partkey
GROUP BY 1, 2 ORDER BY n_orders DESC, part_a, part_b LIMIT 50
"""


def q_late_events_watermark(sf_dir: str):
    """Streaming watermark semantics replayed over the log: an event is
    LATE iff its event time is more than 10 minutes behind the
    high-water event time among everything that ARRIVED before it
    (arrival order = event_id) — the allowed-lateness rule of every
    streaming engine's window operator.  The watermark is a global
    running max over arrival order, computed with the range-bucket
    prefix-MAX kernel (no single-node sort); late flags then reduce
    into tumbling 1-hour windows with exact int counts."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"],
            "ts_us": pa.array(t["ts"].to_numpy(zero_copy_only=False)
                              .astype("datetime64[us]").astype(np.int64))})

    wm = relational.global_prefix_max(
        ev.map_batches(prep, batch_format="pyarrow"),
        order_col="event_id", value_col="ts_us", out_col="wm")

    HOUR = 3_600_000_000
    LATENESS = 600_000_000          # 10 min in µs

    def partial(t: pa.Table) -> pa.Table:
        ts = t["ts_us"].to_numpy(zero_copy_only=False)
        w = t["wm"].to_numpy(zero_copy_only=False)
        hour = ts // HOUR * HOUR
        late = (ts < w - LATENESS).astype(np.int64)
        g = pd.DataFrame({"h": hour, "pn": 1, "pl": late}) \
            .groupby("h", sort=False) \
            .agg(pn=("pn", "sum"), pl=("pl", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = relational.ds_to_table(
        wm.map_batches(partial, batch_format="pyarrow")
        .groupby("h").aggregate(Sum("pn", alias_name="n_events"),
                                Sum("pl", alias_name="n_late"))
    ).to_pandas().sort_values("h").reset_index(drop=True)
    return pd.DataFrame({
        "window_start": out["h"].to_numpy(np.int64)
        .astype("datetime64[us]"),
        "n_events": out["n_events"].to_numpy(np.int64),
        "n_late": out["n_late"].to_numpy(np.int64)})


SQL_LATE_EVENTS = """
WITH w AS (SELECT ts,
                  MAX(ts) OVER (ORDER BY event_id
                                ROWS UNBOUNDED PRECEDING) AS wm
           FROM events)
SELECT CAST(date_trunc('hour', ts) AS TIMESTAMP) AS window_start,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CASE WHEN ts < wm - INTERVAL 10 MINUTE
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_late
FROM w GROUP BY 1 ORDER BY 1
"""


def q_first_touch_attribution(sf_dir: str):
    """Windowed first-touch attribution: each purchase credits the
    user's EARLIEST click in the 7 days up to the purchase — the
    marketing-attribution primitive (as-of joins answer \"latest state
    BEFORE\"; this is \"first event AFTER a window opens\").  Runs on
    the distributed as-of join with direction='forward' from the window
    start, tolerance bounding the window length, and an event-id
    tie-break so equal-timestamp clicks resolve deterministically.
    Purchases with no click in window drop (inner semantics)."""
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def mk_purchases(t: pa.Table) -> pa.Table:
        m = pc.equal(t["event_type"], "purchase")
        f = t.filter(m)
        ts = f["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]")
        return pa.table({
            "purchase_id": f["event_id"], "user_id": f["user_id"],
            "purchase_ts": pa.array(ts),
            "anchor_ts": pa.array(ts - np.timedelta64(7, "D"))})

    def mk_clicks(t: pa.Table) -> pa.Table:
        m = pc.equal(t["event_type"], "click")
        f = t.filter(m)
        ts = f["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]")
        return pa.table({
            "click_id": f["event_id"], "user_id": f["user_id"],
            "click_ts": pa.array(ts), "anchor_ts": pa.array(ts)})

    j = relational.asof_join(
        ev.map_batches(mk_purchases, batch_format="pyarrow"),
        ev.map_batches(mk_clicks, batch_format="pyarrow"),
        on="anchor_ts", by="user_id", direction="forward",
        tolerance=pd.Timedelta(days=7), right_order_cols=["click_id"])

    def finish(t: pa.Table) -> pa.Table:
        pts = t["purchase_ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        cts = t["click_ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        return pa.table({"purchase_id": t["purchase_id"],
                         "user_id": t["user_id"],
                         "click_id": t["click_id"],
                         "latency_us": pa.array(pts - cts)})

    return relational.ds_to_table(
        j.map_batches(finish, batch_format="pyarrow")).to_pandas() \
        .sort_values("purchase_id").reset_index(drop=True)


SQL_FIRST_TOUCH = """
WITH j AS (
  SELECT p.event_id AS purchase_id, p.user_id,
         c.event_id AS click_id,
         date_diff('microsecond', c.ts, p.ts) AS latency_us,
         ROW_NUMBER() OVER (PARTITION BY p.event_id
                            ORDER BY c.ts, c.event_id) AS rn
  FROM events p
  JOIN events c ON c.user_id = p.user_id AND c.event_type = 'click'
               AND c.ts >= p.ts - INTERVAL 7 DAY AND c.ts <= p.ts
  WHERE p.event_type = 'purchase')
SELECT purchase_id, user_id, click_id, latency_us
FROM j WHERE rn = 1 ORDER BY purchase_id
"""


def q_scd2_user_type(sf_dir: str):
    """SCD type-2 dimension build (the warehouse current+history
    pattern) from the event log: per user, consecutive same-type events
    collapse into one versioned validity interval; the open current row
    has NULL valid_to.  One user-bucket shuffle via the
    ``relational.scd2_intervals`` primitive; intervals emitted as epoch
    microseconds so the hash compare is integer-exact."""
    ev = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type"])
    out = relational.ds_to_table(relational.scd2_intervals(
        ev, key_col="user_id", ts_col="ts", order_col="event_id",
        state_col="event_type")).to_pandas()
    out = out.sort_values(["user_id", "valid_from_us"]) \
        .reset_index(drop=True)
    # float64 (NaN = open row), matching DuckDB's nullable-BIGINT →
    # pandas dtype; epoch_us ~1.7e15 < 2^53 so the value stays exact.
    out["valid_to_us"] = out["valid_to_us"].astype(np.float64)
    return out[["user_id", "event_type", "valid_from_us",
                "valid_to_us", "version"]]


SQL_SCD2 = """
WITH o AS (SELECT user_id, ts, event_id, event_type,
                  LAG(event_type) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS pt
           FROM events),
ch AS (SELECT user_id, ts, event_id, event_type FROM o
       WHERE pt IS NULL OR event_type <> pt)
SELECT user_id, event_type,
       epoch_us(ts) AS valid_from_us,
       epoch_us(LEAD(ts) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id)) AS valid_to_us,
       ROW_NUMBER() OVER (PARTITION BY user_id
                          ORDER BY ts, event_id) AS version
FROM ch ORDER BY user_id, valid_from_us
"""


def q_ohlc_daily_value(sf_dir: str):
    """Daily OHLC candles over the event-value stream: open = value at
    the earliest (ts, event_id), close = at the latest, high/low =
    extremes, all exact cents.  Per-batch partials carry ONE candidate
    row per day (first/last by composite order + min/max + count), so
    the groupby moves days×batches rows, never events; ties are
    deterministic via the unique event_id."""
    ev = _read(sf_dir, "events", ["event_id", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        ts_us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        day = ts_us // 86_400_000_000
        cents = np.round(t["value"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        df = pd.DataFrame({
            "day": day,
            "ts_us": ts_us,
            "eid": t["event_id"].to_numpy(zero_copy_only=False),
            "v": cents}).sort_values(["day", "ts_us", "eid"])
        first = df.groupby("day", sort=False).head(1) \
            .rename(columns={"ts_us": "o_ts", "eid": "o_id", "v": "o_v"})
        last = df.groupby("day", sort=False).tail(1) \
            .rename(columns={"ts_us": "c_ts", "eid": "c_id", "v": "c_v"})
        mm = df.groupby("day", sort=False) \
            .agg(lo=("v", "min"), hi=("v", "max"),
                 pn=("v", "size")).reset_index()
        out = first.merge(last, on="day").merge(mm, on="day")
        return pa.Table.from_pandas(out, preserve_index=False)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_ts", "o_id"])
        open_v = int(g["o_v"].iloc[0])
        g2 = g.sort_values(["c_ts", "c_id"])
        close_v = int(g2["c_v"].iloc[-1])
        return pd.DataFrame([{
            "day": int(g["day"].iloc[0]),
            "open_c": open_v, "high_c": int(g["hi"].max()),
            "low_c": int(g["lo"].min()), "close_c": close_v,
            "n": int(g["pn"].sum())}])

    out = ev.map_batches(partial, batch_format="pyarrow") \
        .groupby("day").map_groups(finish, batch_format="pandas")
    return relational.ds_to_table(out).to_pandas() \
        .sort_values("day").reset_index(drop=True) \
        .astype({"day": np.int64, "open_c": np.int64,
                 "high_c": np.int64, "low_c": np.int64,
                 "close_c": np.int64, "n": np.int64})


SQL_OHLC = """
WITH e AS (SELECT epoch_us(ts) // 86400000000 AS day,
                  CAST(ROUND(value * 100) AS BIGINT) AS v,
                  ROW_NUMBER() OVER (PARTITION BY
                      epoch_us(ts) // 86400000000
                      ORDER BY ts, event_id) AS ra,
                  ROW_NUMBER() OVER (PARTITION BY
                      epoch_us(ts) // 86400000000
                      ORDER BY ts DESC, event_id DESC) AS rd
           FROM events)
SELECT day, MAX(CASE WHEN ra = 1 THEN v END) AS open_c,
       MAX(v) AS high_c, MIN(v) AS low_c,
       MAX(CASE WHEN rd = 1 THEN v END) AS close_c,
       CAST(COUNT(*) AS BIGINT) AS n
FROM e GROUP BY day ORDER BY day
"""


def q_unpivot_lineitem_measures(sf_dir: str):
    """Wide→long UNPIVOT of the four lineitem measures into
    (variable, value) rows via the ``relational.unpivot`` primitive
    (per-batch Arrow concat, no shuffle), then a 4-group exact-cents
    profile — the melt/long-format building block the pivot stage
    inverts.  Values quantized to cents BEFORE the unpivot so the long
    column is a single int64 type."""
    from ray.data.aggregate import Max, Min, Sum
    li = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice",
                                    "l_discount", "l_tax"])

    def to_cents(t: pa.Table) -> pa.Table:
        cols = {}
        for c in t.column_names:
            v = np.round(t[c].to_numpy(zero_copy_only=False)
                         * 100.0).astype(np.int64)
            cols[c] = pa.array(v)
        return pa.table(cols)

    long = relational.unpivot(
        li.map_batches(to_cents, batch_format="pyarrow"),
        id_cols=[], value_cols=["l_quantity", "l_extendedprice",
                                "l_discount", "l_tax"],
        var_name="measure", value_name="cents")

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "measure": t["measure"].to_numpy(zero_copy_only=False),
            "c": t["cents"].to_numpy(zero_copy_only=False)})
        g = df.groupby("measure", sort=False).agg(
            pn=("c", "size"), ps=("c", "sum"),
            pmin=("c", "min"), pmax=("c", "max")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = relational.ds_to_table(
        long.map_batches(partial, batch_format="pyarrow")
        .groupby("measure").aggregate(
            Sum("pn", alias_name="n"), Sum("ps", alias_name="sum_c"),
            Min("pmin", alias_name="min_c"),
            Max("pmax", alias_name="max_c"))
    ).to_pandas().sort_values("measure").reset_index(drop=True)
    return out.astype({"n": np.int64, "sum_c": np.int64,
                       "min_c": np.int64, "max_c": np.int64})


SQL_UNPIVOT = """
WITH long AS (
  SELECT 'l_quantity' AS measure,
         CAST(ROUND(l_quantity * 100) AS BIGINT) AS c FROM lineitem
  UNION ALL SELECT 'l_extendedprice',
         CAST(ROUND(l_extendedprice * 100) AS BIGINT) FROM lineitem
  UNION ALL SELECT 'l_discount',
         CAST(ROUND(l_discount * 100) AS BIGINT) FROM lineitem
  UNION ALL SELECT 'l_tax',
         CAST(ROUND(l_tax * 100) AS BIGINT) FROM lineitem)
SELECT measure, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(c) AS BIGINT) AS sum_c,
       MIN(c) AS min_c, MAX(c) AS max_c
FROM long GROUP BY measure ORDER BY measure
"""


def q_bloom_pruned_scan(sf_dir: str):
    """Bloom-filter file skipping: the POINT-LOOKUP complement of the
    zone-map scan.  Orders are laid out range-clustered on the epoch
    DAY (``_ensure_clustered_orders``' layout, plus the key columns),
    so every file's o_custkey [min, max] spans the whole customer
    domain and min/max statistics prune NOTHING for a customer probe —
    exactly the case per-file Bloom sidecars exist for.  A 1 KiB bloom
    per file is built once in one distributed projected pass
    (``sketches.build_file_blooms``), and an equality probe then opens
    ONLY the files whose bloom may contain the key; no false negatives,
    so the exact in-file filter sees every true row.  Pruning counts
    are pytest-asserted; the oracle runs the same probe on the raw
    table with the probe key derived by the same deterministic rule
    (smallest custkey in the upper half of the key range)."""
    import glob
    import os

    from ray.data.aggregate import Max, Min
    from ...runtime.checkpoint import write_clustered
    from ...stages import sketches

    M_BITS, K_HASH = 8192, 5
    out = _fingerprint_cache_dir(sf_dir, "orders", "bloomscan")

    def build(tmp: str) -> None:
        def add_day(t: pa.Table) -> pa.Table:
            day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
                .astype("datetime64[us]").astype(np.int64) \
                // 86_400_000_000
            cents = np.round(t["o_totalprice"].to_numpy(
                zero_copy_only=False) * 100.0).astype(np.int64)
            return pa.table({"o_orderkey": t["o_orderkey"],
                             "o_custkey": t["o_custkey"],
                             "day": pa.array(day),
                             "cents": pa.array(cents)})

        write_clustered(
            _read(sf_dir, "orders",
                  ["o_orderkey", "o_custkey", "o_orderdate",
                   "o_totalprice"])
            .map_batches(add_day, batch_format="pyarrow"),
            tmp, key_col="day", num_ranges=16)
        files = sorted(glob.glob(os.path.join(tmp, "part=*",
                                              "*.parquet")))
        blooms = sketches.build_file_blooms(files, "o_custkey",
                                            m_bits=M_BITS,
                                            num_hashes=K_HASH)
        np.savez(os.path.join(tmp, "blooms.npz"),
                 **{os.path.relpath(p, tmp): bm
                    for p, bm in blooms.items()})

    publish_dir(out, build)

    # deterministic probe: smallest custkey in the upper half of the
    # key range (mirrored verbatim in the SQL twin)
    cust = _read(sf_dir, "orders", ["o_custkey"])
    lohi = cust.aggregate(Min("o_custkey", alias_name="lo"),
                          Max("o_custkey", alias_name="hi"))
    mid = (int(lohi["lo"]) + int(lohi["hi"])) // 2
    probe = int(cust.map_batches(
        lambda t: t.filter(pc.greater_equal(t["o_custkey"], mid)),
        batch_format="pyarrow")
        .aggregate(Min("o_custkey", alias_name="k"))["k"])

    side = np.load(os.path.join(out, "blooms.npz"))
    files = sorted(side.files)
    keep = [f for f in files
            if sketches.bloom_may_contain(side[f], probe, M_BITS,
                                          K_HASH)]
    part = rd.read_parquet([os.path.join(out, f) for f in keep],
                           columns=["o_orderkey", "o_custkey", "day",
                                    "cents"], include_paths=True)
    hit = relational.ds_to_table(part.map_batches(
        lambda t: t.filter(pc.equal(t["o_custkey"], probe)),
        batch_format="pyarrow")).to_pandas()
    n_true = hit["path"].map(
        lambda p: os.path.relpath(p, out)).nunique()
    q_bloom_pruned_scan._last_prune = (len(files), len(keep),
                                       int(n_true))
    res = hit[["o_orderkey", "day", "cents"]] \
        .sort_values("o_orderkey").reset_index(drop=True)
    return res.astype({"o_orderkey": np.int64, "day": np.int64,
                       "cents": np.int64})


SQL_BLOOM_SCAN = """
WITH b AS (SELECT (MIN(o_custkey) + MAX(o_custkey)) // 2 AS mid
           FROM orders),
p AS (SELECT MIN(o_custkey) AS k FROM orders, b
      WHERE o_custkey >= b.mid)
SELECT o_orderkey,
       epoch_us(o_orderdate) // 86400000000 AS day,
       CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
FROM orders, p WHERE o_custkey = p.k
ORDER BY o_orderkey
"""


def q_interval_overlap_degree(sf_dir: str):
    """Interval self-overlap-JOIN cardinality, computed WITHOUT the
    join: every order is an interval [orderdate, orderdate + 2·priority
    days]; the answer is the histogram of each interval's overlap
    degree (how many other orders were concurrently open).  The naive
    form is an inequality self-join (|orders|² comparisons — the
    oracle runs exactly that); the engine form uses the sweep identity
    degree(i) = #{starts ≤ eᵢ} − #{ends < sᵢ} − 1 over two DAYS-bounded
    prefix-count arrays, so the distributed work is two histogram
    passes and a vectorized lookup — no pairwise anything, any
    partitioning, exact."""
    from ray.data.aggregate import Sum

    orders = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority"])

    def spans(t: pa.Table) -> pa.Table:
        s = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        # priority digit via an arrow kernel, not a per-row loop
        dur = 2 * pc.utf8_slice_codeunits(
            t["o_orderpriority"], 0, 1).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({"s": pa.array(s), "e": pa.array(s + dur)})

    def day_hists(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({
            "day": np.concatenate([t["s"].to_numpy(),
                                   t["e"].to_numpy()]),
            "kind": np.repeat(np.array([0, 1], dtype=np.int64),
                              t.num_rows),
            "pn": 1}).groupby(["day", "kind"], sort=False) \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    iv = orders.map_batches(spans, batch_format="pyarrow")
    hist = relational.ds_to_table(
        iv.map_batches(day_hists, batch_format="pyarrow")
        .groupby(["day", "kind"]).aggregate(Sum("pn", alias_name="n"))
    ).to_pandas()
    lo = int(hist["day"].min())
    hi = int(hist["day"].max())
    n_days = hi - lo + 1
    starts = np.zeros(n_days, dtype=np.int64)
    ends = np.zeros(n_days, dtype=np.int64)
    for _, r in hist.iterrows():
        (starts if r["kind"] == 0 else ends)[int(r["day"]) - lo] \
            += int(r["n"])
    cum_s, cum_e = np.cumsum(starts), np.cumsum(ends)

    def degree_hist(t: pa.Table) -> pa.Table:
        s = t["s"].to_numpy()
        e = t["e"].to_numpy()
        n_le_e = cum_s[np.clip(e - lo, 0, n_days - 1)]
        before = s - 1 - lo
        n_lt_s = np.where(before < 0, 0,
                          cum_e[np.clip(before, 0, n_days - 1)])
        deg = n_le_e - n_lt_s - 1
        g = pd.DataFrame({"degree": deg, "pn": 1}) \
            .groupby("degree", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = relational.ds_to_table(
        iv.map_batches(degree_hist, batch_format="pyarrow")
        .groupby("degree").aggregate(Sum("pn", alias_name="n_orders"))
    ).to_pandas().sort_values("degree").reset_index(drop=True)
    return out.astype({"degree": np.int64, "n_orders": np.int64})


SQL_OVERLAP_DEGREE = """
WITH iv AS (SELECT o_orderkey,
                   epoch_us(o_orderdate) // 86400000000 AS s,
                   epoch_us(o_orderdate) // 86400000000
                   + 2 * CAST(substr(o_orderpriority, 1, 1) AS BIGINT)
                     AS e
            FROM orders),
deg AS (SELECT a.o_orderkey, COUNT(*) - 1 AS degree
        FROM iv a JOIN iv b ON b.s <= a.e AND b.e >= a.s
        GROUP BY 1)
SELECT degree, CAST(COUNT(*) AS BIGINT) AS n_orders
FROM deg GROUP BY 1 ORDER BY 1
"""


def q_merkle_replica_diff(sf_dir: str):
    """Merkle-style anti-entropy table diff: two replicas of orders
    (replica B diverges by +1 cent on every o_orderkey % 997 == 0 row
    — the Ray side does NOT know the rule) are reconciled by comparing
    256 order-independent bucket digests (XOR of per-row hashes —
    commutative, so ANY partitioning yields the identical digest),
    then re-reading ONLY the differing buckets for the key-level diff.
    At 100 TB this is the difference between shipping 256 × 8 bytes
    per replica and re-scanning the table; the buckets-scanned count
    is pytest-asserted.  The oracle states the expected divergent key
    set from the mutation rule."""
    N_BUCKETS = 256

    def load(mutate: bool):
        ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

        def prep(t: pa.Table) -> pa.Table:
            k = t["o_orderkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            cents = np.round(t["o_totalprice"].to_numpy(
                zero_copy_only=False) * 100.0).astype(np.int64)
            if mutate:
                cents = cents + (k % 997 == 0)
            return pa.table({"k": pa.array(k),
                             "cents": pa.array(cents)})

        return ds.map_batches(prep, batch_format="pyarrow")

    def digests(rep) -> dict[int, int]:
        def partial(t: pa.Table) -> pa.Table:
            k = t["k"].to_numpy()
            h = (pd.util.hash_array(k)
                 * np.uint64(0x9E3779B97F4A7C15)
                 ^ pd.util.hash_array(t["cents"].to_numpy()))
            b = (k % N_BUCKETS).astype(np.int64)
            out_b, out_d = [], []
            for bb in np.unique(b):
                out_b.append(int(bb))
                out_d.append(int(np.bitwise_xor.reduce(h[b == bb])))
            return pa.table({"b": pa.array(out_b, type=pa.int64()),
                             "d": pa.array(out_d, type=pa.uint64())})

        agg: dict[int, int] = {}
        for t in rep.map_batches(partial, batch_format="pyarrow") \
                .iter_batches(batch_format="pyarrow"):
            for bb, dd in zip(t["b"].to_pylist(), t["d"].to_pylist()):
                agg[bb] = agg.get(bb, 0) ^ dd
        return agg

    with np.errstate(over="ignore"):
        da, db = digests(load(False)), digests(load(True))
    diff_buckets = sorted(b for b in set(da) | set(db)
                          if da.get(b) != db.get(b))
    q_merkle_replica_diff._last_scan = (N_BUCKETS, len(diff_buckets))

    def bucket_rows(rep) -> pd.DataFrame:
        def keep(t: pa.Table) -> pa.Table:
            b = (t["k"].to_numpy() % N_BUCKETS).astype(np.int64)
            return t.filter(pa.array(np.isin(b, diff_buckets)))

        return relational.ds_to_table(
            rep.map_batches(keep, batch_format="pyarrow")).to_pandas()

    ra, rb = bucket_rows(load(False)), bucket_rows(load(True))
    merged = ra.merge(rb, on="k", suffixes=("_a", "_b"))
    bad = merged.loc[merged["cents_a"] != merged["cents_b"], ["k"]] \
        .rename(columns={"k": "o_orderkey"}) \
        .sort_values("o_orderkey").reset_index(drop=True)
    return bad.astype({"o_orderkey": np.int64})


SQL_MERKLE_DIFF = """
SELECT o_orderkey FROM orders WHERE o_orderkey % 997 = 0
ORDER BY o_orderkey
"""


def q_cluster_merge_join(sf_dir: str):
    """Shuffle-free sort-merge join over CO-CLUSTERED layouts: both
    sides are range-partitioned on the join key with IDENTICAL
    boundaries (`write_clustered(boundaries=)` — the layout investment
    a lakehouse makes once), so the join itself runs as independent
    per-range merge tasks, each reading exactly two files and probing
    with one sorted searchsorted pass — NO hash shuffle of either
    table at query time.  At 100 TB this converts the per-query
    all-to-all exchange into a one-time clustering write amortized
    over every custkey join; the layouts are content-fingerprint
    cached and resumable (manifest-committed ranges skip on rerun)."""
    import os

    from ray.data.aggregate import Max, Min, Sum

    from ...runtime import checkpoint as ckpt

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    lohi = cust.aggregate(Min("c_custkey", alias_name="lo"),
                          Max("c_custkey", alias_name="hi"))
    lo, hi = int(lohi["lo"]), int(lohi["hi"])
    nr = 8
    span = max(1, (hi - lo + nr) // nr)
    bnds = [lo + i * span for i in range(1, nr)]

    dir_c = _fingerprint_cache_dir(sf_dir, "customer", "cmjc")
    dir_o = _fingerprint_cache_dir(sf_dir, "orders", "cmjo")
    # resumable layout build: committed ranges are skipped on rerun,
    # so a warm cache costs two manifest reads and zero tasks
    ckpt.write_clustered(cust, dir_c, "c_custkey", boundaries=bnds)
    ckpt.write_clustered(orders, dir_o, "o_custkey", boundaries=bnds)
    keys = sorted(ckpt.committed_keys(dir_c)
                  & ckpt.committed_keys(dir_o))

    def merge_range(t: pa.Table) -> pa.Table:
        import pyarrow.parquet as _pq
        frames = []
        for key in t["key"].to_pylist():
            tc = _pq.read_table(
                os.path.join(dir_c, f"part={key}", "data.parquet"))
            to = _pq.read_table(
                os.path.join(dir_o, f"part={key}", "data.parquet"))
            ck = tc["c_custkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            seg = tc["c_mktsegment"].to_numpy(zero_copy_only=False)
            ok = to["o_custkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            cents = np.round(to["o_totalprice"].to_numpy(
                zero_copy_only=False) * 100.0).astype(np.int64)
            pos = np.searchsorted(ck, ok)        # both files sorted
            hit = pos < len(ck)
            hit[hit] = ck[pos[hit]] == ok[hit]
            frames.append(pd.DataFrame({
                "mktsegment": seg[pos[hit]], "cents": cents[hit],
                "pn": 1}).groupby("mktsegment", sort=False)
                .sum().reset_index())
        if not frames:
            return pa.table({"mktsegment": pa.array([], pa.string()),
                             "cents": pa.array([], pa.int64()),
                             "pn": pa.array([], pa.int64())})
        out = pd.concat(frames, ignore_index=True)
        return pa.Table.from_pandas(out, preserve_index=False)

    agg = relational.ds_to_table(
        rd.from_items([{"key": k} for k in keys],
                      override_num_blocks=max(1, len(keys)))
        .map_batches(merge_range, batch_format="pyarrow")
        .groupby("mktsegment").aggregate(
            Sum("cents", alias_name="cents"),
            Sum("pn", alias_name="n_orders"))
    ).to_pandas().sort_values("mktsegment").reset_index(drop=True)
    agg["total_revenue"] = (agg["cents"] / 100.0).round(2)
    return agg[["mktsegment", "n_orders", "total_revenue"]] \
        .astype({"n_orders": np.int64})


SQL_CLUSTER_MERGE = """
SELECT c_mktsegment AS mktsegment,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       ROUND(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) / 100.0, 2)
         AS total_revenue
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY 1 ORDER BY 1
"""


def q_bootstrap_ci_daily_revenue(sf_dir: str):
    """Bootstrap 95 % CI for total daily revenue — WITHOUT A SINGLE
    FLOAT: 200 deterministic resamples of the daily-cents series
    (pick(r,i) = ((r·n+i+1)·φ₆₄ mod 2⁶⁴) mod n, the fixture's standing
    golden-ratio RNG, reproduced verbatim in HUGEINT by the twin),
    each rep's resampled TOTAL stays an exact integer, and the CI is
    the 5th / 196th order statistic of the 200 rep totals.  The
    distributed part is the shared daily reduce; the resample matrix
    is days×reps-bounded."""
    d = _daily_revenue_cents(sf_dir)
    cents = d["rev"].to_numpy(np.int64)
    n = len(cents)
    B = 200
    r = np.arange(B, dtype=np.uint64)[:, None]
    i = np.arange(n, dtype=np.uint64)[None, :]
    with np.errstate(over="ignore"):
        pick = ((r * np.uint64(n) + i + np.uint64(1))
                * np.uint64(relational.SAMPLE_MIX)) % np.uint64(n)
    sums = np.sort(cents[pick.astype(np.int64)].sum(axis=1))
    return pd.DataFrame([{
        "n_days": n, "n_reps": B,
        "total_cents": int(cents.sum()),
        "ci_lo_cents": int(sums[4]),       # 5th smallest  (2.5 %)
        "ci_hi_cents": int(sums[195]),     # 196th smallest (97.5 %)
    }]).astype({c: np.int64 for c in
                ["n_days", "n_reps", "total_cents", "ci_lo_cents",
                 "ci_hi_cents"]})


SQL_BOOTSTRAP = f"""
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
i AS (SELECT ROW_NUMBER() OVER (ORDER BY day) - 1 AS idx, rev FROM d),
nn AS (SELECT COUNT(*) AS n FROM i),
g AS (SELECT r.r,
             CAST((CAST(r.r AS HUGEINT) * nn.n + s.idx + 1)
                  * {relational.SAMPLE_MIX}
                  % 18446744073709551616 % nn.n AS BIGINT) AS pick
      FROM (SELECT unnest(generate_series(0, 199)) AS r) r, i s, nn),
reps AS (SELECT g.r, SUM(i2.rev) AS s
         FROM g JOIN i i2 ON i2.idx = g.pick GROUP BY 1),
rk AS (SELECT s, ROW_NUMBER() OVER (ORDER BY s) AS k FROM reps)
SELECT (SELECT CAST(n AS BIGINT) FROM nn) AS n_days,
       CAST(200 AS BIGINT) AS n_reps,
       (SELECT CAST(SUM(rev) AS BIGINT) FROM d) AS total_cents,
       (SELECT CAST(s AS BIGINT) FROM rk WHERE k = 5) AS ci_lo_cents,
       (SELECT CAST(s AS BIGINT) FROM rk WHERE k = 196) AS ci_hi_cents
"""


def q_second_price_auction_parts(sf_dir: str):
    """Second-price (Vickrey) auction clearing per part — the
    ad-tech / marketplace settlement primitive: each part's lineitem
    extended prices are bids, the highest bid wins (ties to the
    smaller orderkey, then linenumber) but PAYS the second-highest —
    and the per-part first-vs-second price gap is exactly the
    winner's information rent.  A bucket-local top-2 prune (C-speed
    sort + per-part head-2 under the exact (cents DESC, orderkey,
    linenumber) order) keeps ≤2 rows per (bucket, part) into the
    driver finish; all prices exact cents.  Single-bid parts clear
    at their own bid (reserve = own price) like the twin's
    COALESCE."""
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_partkey",
                "l_extendedprice"])

    def top2(g: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(g["l_extendedprice"].to_numpy()
                         * 100 + 0.5).astype(np.int64)
        df = pd.DataFrame({
            "pk": g["l_partkey"].to_numpy(np.int64),
            "c": cents,
            "ok": g["l_orderkey"].to_numpy(np.int64),
            "ln": g["l_linenumber"].to_numpy(np.int64)})
        df = df.sort_values(["pk", "c", "ok", "ln"],
                            ascending=[True, False, True, True])
        df["rn"] = df.groupby("pk", sort=False).cumcount()
        return df[df["rn"] < 2].drop(columns="rn")

    t2 = relational.ds_to_table(
        relational.bucket_shuffle(li, "l_partkey", top2)
    ).to_pandas()
    t2 = t2.sort_values(["pk", "c", "ok", "ln"],
                        ascending=[True, False, True, True])
    t2["rn"] = t2.groupby("pk", sort=False).cumcount()
    win = t2[t2["rn"] == 0][["pk", "c", "ok"]].rename(
        columns={"pk": "p_partkey", "c": "win_bid_cents",
                 "ok": "winner_orderkey"})
    sec = t2[t2["rn"] == 1][["pk", "c"]].rename(
        columns={"pk": "p_partkey", "c": "sec_c"})
    from ray.data.aggregate import Sum
    nbt = relational.ds_to_table(
        li.map_batches(lambda t: pa.Table.from_pandas(
            pd.DataFrame({
                "pk": t["l_partkey"].to_numpy(zero_copy_only=False)
                .astype(np.int64), "nb": 1})
            .groupby("pk", sort=False).sum().reset_index(),
            preserve_index=False), batch_format="pyarrow")
        .groupby("pk").aggregate(Sum("nb", alias_name="nb"))
    ).to_pandas().rename(columns={"pk": "p_partkey"})
    out = win.merge(sec, on="p_partkey", how="left") \
        .merge(nbt, on="p_partkey", how="left")
    out["pay_cents"] = out["sec_c"].fillna(
        out["win_bid_cents"]).astype(np.int64)
    out["rent_cents"] = out["win_bid_cents"] - out["pay_cents"]
    out = out.rename(columns={"nb": "n_bids"})[[
        "p_partkey", "n_bids", "winner_orderkey",
        "win_bid_cents", "pay_cents", "rent_cents"]]
    return out.sort_values("p_partkey") \
        .reset_index(drop=True).astype({
            "p_partkey": np.int64, "n_bids": np.int64,
            "winner_orderkey": np.int64, "win_bid_cents": np.int64,
            "pay_cents": np.int64, "rent_cents": np.int64})


SQL_SECOND_PRICE = """
WITH b AS (SELECT l_partkey AS pk, l_orderkey AS ok,
                  l_linenumber AS ln,
                  CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)
                    AS c
           FROM lineitem),
r AS (SELECT pk, ok, c,
             ROW_NUMBER() OVER (PARTITION BY pk
                                ORDER BY c DESC, ok, ln) AS rn
      FROM b),
n AS (SELECT pk, CAST(COUNT(*) AS BIGINT) AS nb FROM b GROUP BY 1)
SELECT w.pk AS p_partkey, n.nb AS n_bids,
       w.ok AS winner_orderkey, w.c AS win_bid_cents,
       COALESCE(s.c, w.c) AS pay_cents,
       w.c - COALESCE(s.c, w.c) AS rent_cents
FROM r w LEFT JOIN r s ON s.pk = w.pk AND s.rn = 2
JOIN n ON n.pk = w.pk
WHERE w.rn = 1 ORDER BY p_partkey
"""


_JOIN_DISCOVERY_COLS = (
    ("orders", "o_custkey"), ("customer", "c_custkey"),
    ("lineitem", "l_partkey"), ("part", "p_partkey"),
    ("lineitem", "l_suppkey"), ("supplier", "s_suppkey"),
    ("events", "user_id"))


def q_join_discovery_scan(sf_dir: str):
    """Join-discovery scan over the catalog's integer key columns —
    the data-lake profiling step (Aurum/JOSIE family) that proposes
    joinable column pairs from VALUE OVERLAP instead of names: for
    every ordered pair of the 7 candidate columns, exact distinct
    counts, intersection size, containment |A∩B|/|A| and Jaccard.
    100-TB shape: per-batch distinct partials for all columns union
    into ONE narrow (v, per-column bit) dataset; a single
    groupby(v) max-reduce yields each value's column-membership
    BITMASK, and a per-block bincount over the ≤2⁷ masks hands the
    driver ≤128 (mask, count) rows — every ndv / intersection /
    Jaccard is exact set algebra on that tiny histogram.  No value
    set ever reaches the driver at any scale (the old exact-set
    path held full per-column distinct sets in driver memory).
    True FKs surface as containment exactly 1."""
    names = [f"{t}.{c}" for t, c in _JOIN_DISCOVERY_COLS]
    ncol = len(names)
    parts = []
    for i, (tbl, col) in enumerate(_JOIN_DISCOVERY_COLS):
        ds = _read(sf_dir, tbl, [col])

        def partial(b: pa.Table, c=col, bit=i) -> pa.Table:
            v = pc.unique(b[c].cast(pa.int64()))
            return pa.table({
                "v": v,
                "m": pa.array(np.full(len(v), 1 << bit,
                                      dtype=np.int64))})

        parts.append(ds.map_batches(partial,
                                    batch_format="pyarrow"))
    # narrow (v, m) pairs — ≤ Σ per-block ndv rows of 16 B each
    un = parts[0].union(*parts[1:]).materialize()

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        # OR the single-bit masks per value: distinct (v, m) then sum
        masks = g.drop_duplicates(["v", "m"]) \
            .groupby("v", sort=False)["m"].sum()
        cnt = np.bincount(masks.to_numpy(np.int64),
                          minlength=1 << ncol)
        nz = np.nonzero(cnt)[0]
        return pd.DataFrame({"mask": nz.astype(np.int64),
                             "cnt": cnt[nz].astype(np.int64)})

    # size-guarded two-path (the connected_components pattern): a pair
    # set within the engine's budget collapses in ONE worker task — an
    # all-to-all over hundreds of tiny blocks is pure scheduling
    # overhead — while the scale path hash-buckets v so no task ever
    # sees the full domain
    if (un.size_bytes() or 0) <= util.BROADCAST_LIMIT_BYTES:
        masked = un.repartition(1).map_batches(
            lambda t: pa.Table.from_pandas(combine(t.to_pandas()),
                                           preserve_index=False),
            batch_format="pyarrow", batch_size=None)
    else:
        masked = relational.bucket_shuffle(un, "v", combine)
    hist = relational.ds_to_table(masked) \
        .to_pandas().groupby("mask")["cnt"].sum()
    masks = hist.index.to_numpy(np.int64)
    cnts = hist.to_numpy(np.int64)

    def _ndv(i: int) -> int:
        return int(cnts[((masks >> i) & 1) == 1].sum())

    def _inter(i: int, j: int) -> int:
        both = (((masks >> i) & 1) == 1) & (((masks >> j) & 1) == 1)
        return int(cnts[both].sum())

    rows = []
    for a in range(ncol):
        for b in range(ncol):
            if names[a] >= names[b]:
                continue
            na, nb = _ndv(a), _ndv(b)
            inter = _inter(a, b)
            union = na + nb - inter
            rows.append({
                "col_a": names[a], "col_b": names[b],
                "ndv_a": na, "ndv_b": nb,
                "n_common": inter,
                "containment_a": float(np.round(
                    float(inter) / float(na), 6)),
                "jaccard": float(np.round(
                    float(inter) / float(union), 6))})
    return pd.DataFrame(rows).sort_values(["col_a", "col_b"]) \
        .reset_index(drop=True).astype({
            "ndv_a": np.int64, "ndv_b": np.int64,
            "n_common": np.int64})


def _sql_join_discovery() -> str:
    unions = "\nUNION ALL\n".join(
        f"SELECT '{t}.{c}' AS col, CAST({c} AS BIGINT) AS v "
        f"FROM {t} GROUP BY 2" for t, c in _JOIN_DISCOVERY_COLS)
    return f"""
WITH dv AS ({unions}),
nd AS (SELECT col, CAST(COUNT(*) AS BIGINT) AS ndv
       FROM dv GROUP BY 1),
ix AS (SELECT a.col AS ca, b.col AS cb,
              CAST(COUNT(*) AS BIGINT) AS inter
       FROM dv a JOIN dv b ON a.v = b.v AND a.col < b.col
       GROUP BY 1, 2),
pairs AS (SELECT na.col AS ca, nb.col AS cb, na.ndv AS nda,
                 nb.ndv AS ndb, COALESCE(ix.inter, 0) AS inter
          FROM nd na JOIN nd nb ON na.col < nb.col
          LEFT JOIN ix ON ix.ca = na.col AND ix.cb = nb.col)
SELECT ca AS col_a, cb AS col_b, nda AS ndv_a, ndb AS ndv_b,
       inter AS n_common,
       ROUND(CAST(inter AS DOUBLE) / CAST(nda AS DOUBLE), 6)
         AS containment_a,
       ROUND(CAST(inter AS DOUBLE)
             / CAST(nda + ndb - inter AS DOUBLE), 6) AS jaccard
FROM pairs ORDER BY col_a, col_b
"""


def q_energy_distance_value(sf_dir: str):
    """Energy distance (Székely) between click and purchase value
    distributions — the modern two-sample statistic that sees EVERY
    distributional difference (location, scale, shape) where the
    t-test sees means: E = 2·Σ|x−y|/(nm) − Σ|x−x'|/n² − Σ|y−y'|/m².
    All three pairwise |difference| sums compute EXACTLY from one
    value-domain cents reduce via the sorted-prefix identity
    Σ_k c_k·(v_k·N_{<k} − S_{<k}) — arbitrary-precision integers
    (HUGEINT twin), three mirrored divisions at the end."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        keep = (et == "click") | (et == "purchase")
        cents = np.floor(t["value"].to_numpy(
            zero_copy_only=False)[keep] * 100 + 0.5) \
            .astype(np.int64)
        g = pd.DataFrame({
            "v": cents,
            "cx": (et[keep] == "click").astype(np.int64),
            "cy": (et[keep] == "purchase").astype(np.int64)}) \
            .groupby("v", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    vd = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("v").aggregate(Sum("cx", alias_name="cx"),
                                Sum("cy", alias_name="cy"))
    ).to_pandas().sort_values("v").reset_index(drop=True)
    v = [int(x) for x in vd["v"]]
    cx = [int(x) for x in vd["cx"]]
    cy = [int(x) for x in vd["cy"]]
    n, m = sum(cx), sum(cy)

    def pair_sum(ca, cb):
        # Σ_{a,b pairs} |v_a − v_b| with a from ca-counts, b from cb
        tot = 0
        nb = 0
        sb = 0
        for vk, a_, b_ in zip(v, ca, cb):
            tot += a_ * (vk * nb - sb)
            nb += b_
            sb += b_ * vk
        # the loop counts only b-before-a pairs; run the mirror too
        nb = 0
        sb = 0
        for vk, a_, b_ in zip(v, cb, ca):
            tot += a_ * (vk * nb - sb)
            nb += b_
            sb += b_ * vk
        return tot

    A = pair_sum(cx, cy)          # Σ over ordered x,y pairs |x−y|
    B = pair_sum(cx, cx)          # counts each unordered pair twice
    C = pair_sum(cy, cy)
    e = (2.0 * float(A) / (float(n) * float(m))
         - float(B) / (float(n) * float(n))
         - float(C) / (float(m) * float(m)))
    return pd.DataFrame([{
        "n_click": n, "n_purchase": m,
        "cross_abs_sum": A,
        "energy_distance": float(np.round(e, 6))}]).astype({
            "n_click": np.int64, "n_purchase": np.int64,
            "cross_abs_sum": np.int64})


SQL_ENERGY_DISTANCE = """
WITH b AS (SELECT CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS v,
                  CASE WHEN event_type = 'click' THEN 1 ELSE 0 END
                    AS cx,
                  CASE WHEN event_type = 'purchase' THEN 1 ELSE 0
                    END AS cy
           FROM events
           WHERE event_type IN ('click', 'purchase')),
d AS (SELECT v, CAST(SUM(cx) AS HUGEINT) AS cx,
             CAST(SUM(cy) AS HUGEINT) AS cy
      FROM b GROUP BY 1),
p AS (SELECT v, cx, cy,
             COALESCE(SUM(cx) OVER w, 0) AS nxb,
             COALESCE(SUM(cx * v) OVER w, 0) AS sxb,
             COALESCE(SUM(cy) OVER w, 0) AS nyb,
             COALESCE(SUM(cy * v) OVER w, 0) AS syb
      FROM d WINDOW w AS (ORDER BY v ROWS BETWEEN UNBOUNDED
                          PRECEDING AND 1 PRECEDING)),
s AS (SELECT SUM(cx * (v * nyb - syb))
             + SUM(cy * (v * nxb - sxb)) AS a,
             2 * SUM(cx * (v * nxb - sxb)) AS bb,
             2 * SUM(cy * (v * nyb - syb)) AS cc,
             SUM(cx) AS n, SUM(cy) AS m
      FROM p)
SELECT CAST(n AS BIGINT) AS n_click, CAST(m AS BIGINT)
         AS n_purchase,
       CAST(a AS BIGINT) AS cross_abs_sum,
       ROUND(2.0 * CAST(a AS DOUBLE)
             / (CAST(n AS DOUBLE) * CAST(m AS DOUBLE))
             - CAST(bb AS DOUBLE)
               / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE))
             - CAST(cc AS DOUBLE)
               / (CAST(m AS DOUBLE) * CAST(m AS DOUBLE)), 6)
         AS energy_distance
FROM s
"""


_HDR_EDGES: list[int] = sorted({
    max(1, math.ceil(0.01 * (1.02 ** i) * 100))
    for i in range(0, 1047)})


def q_quantile_sketch_fidelity(sf_dir: str):
    """Sketch-fidelity audit for the HDR-style log-histogram quantile
    estimator: per requested quantile, the sketch's answer NEXT TO the
    exact order statistic and the realized relative error — the
    is-2%-really-2% table that justifies routing big quantile jobs
    through the one-pass sketch.  The bin edges quantize ONCE to
    integer cents at module load (`_HDR_EDGES`, shared verbatim with
    the twin's VALUES list), so bin membership is pure integer
    comparison — no ln() at a floor boundary to flip a bin between
    libm implementations.  One (cents → count) value-domain reduce
    feeds both the exact selection and the sketch cumulative; est and
    exact are exact cents, rel_err one mirrored double."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_totalprice"])

    def hist(t: pa.Table) -> pa.Table:
        c = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        u, n = np.unique(c, return_counts=True)
        return pa.table({"c": pa.array(u),
                         "pn": pa.array(n.astype(np.int64))})

    h = relational.ds_to_table(
        orders.map_batches(hist, batch_format="pyarrow")
        .groupby("c").aggregate(Sum("pn", alias_name="n"))
    ).to_pandas().sort_values("c").reset_index(drop=True)
    cents = h["c"].to_numpy(np.int64)
    cnt = h["n"].to_numpy(np.int64)
    n = int(cnt.sum())
    cum = np.cumsum(cnt)
    edges = np.array(_HDR_EDGES, dtype=np.int64)
    bins = np.searchsorted(edges, cents, side="right")   # #edges ≤ c
    bc = np.zeros(len(edges) + 1, dtype=np.int64)
    np.add.at(bc, bins, cnt)
    bcum = np.cumsum(bc)
    rows = []
    for q in (0.5, 0.9, 0.99):
        target = math.ceil(q * n)
        exact_c = int(cents[np.searchsorted(cum, target)])
        b = int(np.searchsorted(bcum, target))
        est_c = int(edges[b - 1])
        rel = abs(est_c - exact_c) / exact_c
        rows.append({"q": q, "exact": exact_c / 100.0,
                     "est": est_c / 100.0, "rel_err": round(rel, 6)})
    return pd.DataFrame(rows)


def _sql_quantile_fidelity() -> str:
    edges = ", ".join(f"({e})" for e in _HDR_EDGES)
    return f"""
WITH v AS (SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT) AS c
           FROM orders),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM v),
ed(e) AS (VALUES {edges}),
b AS (SELECT v.c, (SELECT COUNT(*) FROM ed WHERE ed.e <= v.c) AS bin
      FROM v),
qs(q) AS (VALUES (0.5), (0.9), (0.99)),
t AS (SELECT q, CAST(CEIL(q * n.n) AS BIGINT) AS target FROM qs, n),
ex AS (SELECT t.q,
         (SELECT c FROM (SELECT c, ROW_NUMBER() OVER (ORDER BY c) AS rn
                         FROM v) WHERE rn = t.target) AS exact_c
       FROM t),
bc AS (SELECT bin, COUNT(*) AS bn FROM b GROUP BY bin),
bcum AS (SELECT bin, SUM(bn) OVER (ORDER BY bin) AS cum FROM bc),
sk AS (SELECT t.q,
         (SELECT MIN(bin) FROM bcum WHERE cum >= t.target) AS sbin
       FROM t),
se AS (SELECT sk.q,
         (SELECT MAX(e) FROM (SELECT e, ROW_NUMBER() OVER (ORDER BY e)
                              AS rn FROM ed)
          WHERE rn = sk.sbin) AS est_c
       FROM sk)
SELECT ex.q, ex.exact_c / 100.0 AS exact, se.est_c / 100.0 AS est,
       ROUND(ABS(se.est_c - ex.exact_c)
             / CAST(ex.exact_c AS DOUBLE), 6) AS rel_err
FROM ex JOIN se ON se.q = ex.q ORDER BY ex.q
"""


def q_encoding_advisor_orders(sf_dir: str):
    """Columnar-encoding advisor: per orders column, the exact ndv and
    run count in the table's o_orderkey order, and the encoding a
    writer should pick under the classic rules (dict when the
    dictionary is tiny, RLE when the average run ≥ 4, else plain) —
    the layout decision every parquet writer makes, surfaced as an
    auditable table.  Runs count distributedly: orderkey-RANGE buckets
    are contiguous in the sort order, each bucket counts its internal
    adjacent-equal pairs vectorized and emits its (first, last) border
    values; a ≤buckets-row stitch joins consecutive buckets.  All
    stats and the rule comparisons are exact integers."""
    from ray.data.aggregate import Sum
    cols = ["o_orderstatus", "o_orderpriority", "o_custkey", "o_cents"]
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderstatus", "o_orderpriority",
                    "o_custkey", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        c = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        t = t.append_column("o_cents", pa.array(c))
        return t.drop_columns(["o_totalprice"])

    ds = orders.map_batches(prep, batch_format="pyarrow").materialize()
    n = ds.count()
    kmax = int(relational.ds_to_table(
        ds.map_batches(lambda t: pa.table({
            "m": pa.array([int(t["o_orderkey"].to_numpy(
                zero_copy_only=False).max())])}),
            batch_format="pyarrow")).to_pandas()["m"].max())
    nb = 64
    rng = kmax // nb + 1

    def bucket_stats(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("o_orderkey")
        row = {"bkt": int(df["_bkt"].iloc[0])}
        for c in cols:
            v = df[c].to_numpy()
            row[f"eq_{c}"] = int(np.sum(v[1:] == v[:-1]))
            row[f"first_{c}"] = v[0]
            row[f"last_{c}"] = v[-1]
        return pd.DataFrame([row])

    tagged = ds.map_batches(
        lambda t: t.append_column("_bkt", pa.array(
            t["o_orderkey"].to_numpy(zero_copy_only=False) // rng)),
        batch_format="pyarrow")
    bs = relational.ds_to_table(
        tagged.groupby("_bkt").map_groups(bucket_stats,
                                          batch_format="pandas")
    ).to_pandas().sort_values("bkt").reset_index(drop=True)

    def ndv(col: str) -> int:
        return ds.map_batches(
            lambda t, _c=col: pa.table({"u": pc.unique(t[_c])}),
            batch_format="pyarrow").groupby("u").count().count()

    rows = []
    for c in cols:
        eq = int(bs[f"eq_{c}"].sum())
        eq += int(np.sum(bs[f"first_{c}"].to_numpy()[1:]
                         == bs[f"last_{c}"].to_numpy()[:-1]))
        runs = n - eq
        d = ndv(c)
        enc = "dict" if d <= 256 else ("rle" if n >= 4 * runs
                                       else "plain")
        rows.append({"col": c, "ndv": d, "n_runs": runs,
                     "encoding": enc})
    return pd.DataFrame(rows).astype({"ndv": np.int64,
                                      "n_runs": np.int64})


SQL_ENCODING_ADVISOR = """
WITH o AS (SELECT o_orderkey, o_orderstatus, o_orderpriority,
                  o_custkey,
                  CAST(ROUND(o_totalprice * 100) AS BIGINT) AS o_cents
           FROM orders),
l AS (SELECT o_orderstatus, o_orderpriority, o_custkey, o_cents,
             LAG(o_orderstatus) OVER w AS p_status,
             LAG(o_orderpriority) OVER w AS p_prio,
             LAG(o_custkey) OVER w AS p_cust,
             LAG(o_cents) OVER w AS p_cents
      FROM o WINDOW w AS (ORDER BY o_orderkey)),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(CASE WHEN o_orderstatus = p_status
                           THEN 1 ELSE 0 END) AS BIGINT) AS eq_status,
             CAST(SUM(CASE WHEN o_orderpriority = p_prio
                           THEN 1 ELSE 0 END) AS BIGINT) AS eq_prio,
             CAST(SUM(CASE WHEN o_custkey = p_cust
                           THEN 1 ELSE 0 END) AS BIGINT) AS eq_cust,
             CAST(SUM(CASE WHEN o_cents = p_cents
                           THEN 1 ELSE 0 END) AS BIGINT) AS eq_cents,
             CAST(COUNT(DISTINCT o_orderstatus) AS BIGINT) AS d_status,
             CAST(COUNT(DISTINCT o_orderpriority) AS BIGINT) AS d_prio,
             CAST(COUNT(DISTINCT o_custkey) AS BIGINT) AS d_cust,
             CAST(COUNT(DISTINCT o_cents) AS BIGINT) AS d_cents
      FROM l),
r AS (SELECT 'o_orderstatus' AS col, d_status AS ndv,
             n - eq_status AS n_runs, n FROM s
      UNION ALL
      SELECT 'o_orderpriority', d_prio, n - eq_prio, n FROM s
      UNION ALL
      SELECT 'o_custkey', d_cust, n - eq_cust, n FROM s
      UNION ALL
      SELECT 'o_cents', d_cents, n - eq_cents, n FROM s)
SELECT col, ndv, n_runs,
       CASE WHEN ndv <= 256 THEN 'dict'
            WHEN n >= 4 * n_runs THEN 'rle'
            ELSE 'plain' END AS encoding
FROM r
"""


def q_mann_kendall_revenue(sf_dir: str):
    """Mann–Kendall trend test on the gap-filled daily revenue series
    — the distribution-free is-there-a-monotone-trend companion of the
    Theil–Sen slope the registry already ships (the two are always
    reported together: MK decides IF a trend exists, Theil–Sen says
    how steep).  S = Σ_{i<j} sign(x_j − x_i) and the tie-corrected
    variance numerator var18 = n(n−1)(2n+5) − Σ_t t(t−1)(2t+5) are
    EXACT INTEGERS (the calendar bounds n at any scale, so the O(n²)
    sign finish is driver-local on the bounded daily table — the
    distributed part is the daily cents reduce); the continuity-
    corrected z = (S∓1)/√(var18/18) is the single mirrored float."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    series = np.zeros(hi - lo + 1, dtype=np.int64)
    series[days - lo] = d["rev"].to_numpy(np.int64)
    n = len(series)
    diff = series[None, :] - series[:, None]
    iu = np.triu_indices(n, k=1)
    s_stat = int(np.sign(diff[iu]).sum())
    _, t_counts = np.unique(series, return_counts=True)
    t = t_counts.astype(object)
    tie = int(np.sum(t * (t - 1) * (2 * t + 5)))
    var18 = n * (n - 1) * (2 * n + 5) - tie
    if s_stat == 0 or var18 == 0:
        z = 0.0
    elif s_stat > 0:
        z = (s_stat - 1) / math.sqrt(var18 / 18.0)
    else:
        z = (s_stat + 1) / math.sqrt(var18 / 18.0)
    return pd.DataFrame({"n": pd.array([n], dtype=np.int64),
                         "s_stat": pd.array([s_stat], dtype=np.int64),
                         "var18": pd.array([var18], dtype=np.int64),
                         "z": [round(z, 6)]})


SQL_MANN_KENDALL = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day, COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d USING (day)),
p AS (SELECT CAST(SUM(CASE WHEN b.rev > a.rev THEN 1
                           WHEN b.rev < a.rev THEN -1
                           ELSE 0 END) AS BIGINT) AS s_stat
      FROM s a JOIN s b ON b.day > a.day),
tg AS (SELECT CAST(COUNT(*) AS BIGINT) AS t FROM s GROUP BY rev),
tt AS (SELECT COALESCE(SUM(t * (t - 1) * (2 * t + 5)), 0) AS tie
       FROM tg),
c AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM s),
v AS (SELECT c.n, p.s_stat,
             CAST(c.n * (c.n - 1) * (2 * c.n + 5) - tt.tie
                  AS BIGINT) AS var18
      FROM c, p, tt)
SELECT n, s_stat, var18,
       CASE WHEN s_stat = 0 OR var18 = 0 THEN 0.0
            WHEN s_stat > 0
              THEN ROUND((s_stat - 1) / SQRT(var18 / 18.0), 6)
            ELSE ROUND((s_stat + 1) / SQRT(var18 / 18.0), 6)
       END AS z
FROM v
"""


def q_effect_size_value(sf_dir: str):
    """Standardized effect sizes between the 'click' and 'purchase'
    event-value distributions — Cohen's d (pooled-SD), Hedges' g
    (small-sample bias-corrected d) and Glass's Δ (control-SD only,
    purchase as control): the HOW-BIG companion the Welch t-test's
    IS-IT-REAL answer needs before anyone acts on it.  Same exact
    integer power-sum fold as the t-test (Σv² rides the (hi, lo)
    128-bit split); every output is a float expression mirrored
    term-for-term against the SQL twin."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        keep = (et == "click") | (et == "purchase")
        v = np.round(t["value"].to_numpy(
            zero_copy_only=False)[keep] * 100.0).astype(np.int64)
        v2 = v * v
        g = pd.DataFrame({"grp": et[keep], "ps1": v,
                          "ph2": v2 >> 32, "pl2": v2 & 0xFFFFFFFF,
                          "pn": 1}) \
            .groupby("grp", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("grp").aggregate(
            Sum("ps1", alias_name="s1"), Sum("ph2", alias_name="h2"),
            Sum("pl2", alias_name="l2"), Sum("pn", alias_name="n"))
    ).to_pandas().set_index("grp")

    def stats(g):
        r = agg.loc[g]
        n = int(r["n"])
        s1 = float(int(r["s1"]))
        s2 = float(int(r["h2"]) * (1 << 32) + int(r["l2"]))
        m = s1 / n
        var = (s2 - s1 * m) / (n - 1)
        return n, m, var

    n1, m1, v1 = stats("click")
    n2, m2, v2 = stats("purchase")
    sp2 = ((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2)
    d = (m1 - m2) / math.sqrt(sp2)
    g = d * (1.0 - 3.0 / (4.0 * (n1 + n2) - 9.0))
    glass = (m1 - m2) / math.sqrt(v2)
    return pd.DataFrame([{"n1": n1, "n2": n2,
                          "cohens_d": round(d, 6),
                          "hedges_g": round(g, 6),
                          "glass_delta": round(glass, 6)}]) \
        .astype({"n1": np.int64, "n2": np.int64})


SQL_EFFECT_SIZE = """
WITH x AS (SELECT event_type AS grp,
                  CAST(ROUND(value * 100) AS BIGINT) AS v
           FROM events WHERE event_type IN ('click', 'purchase')),
s AS (SELECT grp, CAST(COUNT(*) AS BIGINT) AS n,
             SUM(CAST(v AS HUGEINT)) AS s1,
             SUM(CAST(v AS HUGEINT) * v) AS s2
      FROM x GROUP BY 1),
f AS (SELECT grp, n, CAST(s1 AS DOUBLE) AS s1d,
             CAST(s2 AS DOUBLE) AS s2d,
             CAST(s1 AS DOUBLE) / n AS m
      FROM s),
v AS (SELECT grp, n, m, (s2d - s1d * m) / (n - 1) AS var FROM f),
j AS (SELECT a.n AS n1, b.n AS n2, a.m AS m1, b.m AS m2,
             a.var AS v1, b.var AS v2,
             ((a.n - 1) * a.var + (b.n - 1) * b.var)
               / (a.n + b.n - 2) AS sp2
      FROM v a, v b WHERE a.grp = 'click' AND b.grp = 'purchase')
SELECT n1, n2,
       ROUND((m1 - m2) / SQRT(sp2), 6) AS cohens_d,
       ROUND((m1 - m2) / SQRT(sp2)
             * (1.0 - 3.0 / (4.0 * (n1 + n2) - 9.0)), 6) AS hedges_g,
       ROUND((m1 - m2) / SQRT(v2), 6) AS glass_delta
FROM j
"""


_AMS_K = 8


def _ams_seeds() -> list:
    """The 8 odd 64-bit multipliers behind the AMS tug-of-war signs —
    one seeded generator feeds BOTH the stage and the generated SQL
    twin, so the two sides cannot drift."""
    rs = np.random.RandomState(1729)
    hi = rs.randint(0, 1 << 32, size=_AMS_K).astype(np.uint64)
    lo = rs.randint(0, 1 << 32, size=_AMS_K).astype(np.uint64)
    return [int((h << np.uint64(32)) | l | np.uint64(1))
            for h, l in zip(hi, lo)]


def q_ams_f2_sketch(sf_dir: str):
    """AMS (tug-of-war) sketch estimate of the second frequency moment
    F₂ = Σ_u f_u² of event users — the self-join-size / repeat-rate
    statistic a planner wants without the per-key reduce.  Each of the
    8 estimators Z_j = Σ_rows sign_j(user) is a plain per-batch sum
    (NO shuffle at all — the sketch's whole point), the signs come
    from a multiply-top-bit hash that is deterministic given its seed,
    so unlike HLL the sketch carries a REAL SQL oracle; est = (Σ Z_j²)
    / 8 is one mirrored float, and the row reports its own exact F₂
    (one user-keyed reduce with the 128-bit split) plus the realized
    relative error."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["user_id"])
    seeds = np.array(_ams_seeds(), dtype=np.uint64)

    def z_partial(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64) + np.uint64(1)
        cols = {"pn": pa.array([len(u)])}
        for j in range(_AMS_K):
            bit = ((u * seeds[j]) >> np.uint64(63)).astype(np.int64)
            cols[f"z{j}"] = pa.array([int((1 - 2 * bit).sum())])
        return pa.table(cols)

    zt = relational.ds_to_table(
        ev.map_batches(z_partial, batch_format="pyarrow")
        .map_batches(lambda t: t.append_column(
            "_g", pa.array(np.zeros(len(t), dtype=np.int64))),
            batch_format="pyarrow")
        .groupby("_g").aggregate(
            Sum("pn", alias_name="n"),
            *[Sum(f"z{j}", alias_name=f"s{j}")
              for j in range(_AMS_K)])
    ).to_pandas()
    n = int(zt["n"].iloc[0])
    zs = [int(zt[f"s{j}"].iloc[0]) for j in range(_AMS_K)]

    def cnt_partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({"u": t["user_id"].to_numpy(
            zero_copy_only=False), "pc_": 1}) \
            .groupby("u", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    def f2_partial(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        c2 = c * c
        return pa.table({"ph": pa.array([int((c2 >> 32).sum())]),
                         "pl": pa.array([int((c2 & 0xFFFFFFFF).sum())])})

    ft = relational.ds_to_table(
        ev.map_batches(cnt_partial, batch_format="pyarrow")
        .groupby("u").aggregate(Sum("pc_", alias_name="c"))
        .map_batches(f2_partial, batch_format="pyarrow")
        .map_batches(lambda t: t.append_column(
            "_g", pa.array(np.zeros(len(t), dtype=np.int64))),
            batch_format="pyarrow")
        .groupby("_g").aggregate(Sum("ph", alias_name="h"),
                                 Sum("pl", alias_name="l"))
    ).to_pandas()
    f2 = int(ft["h"].iloc[0]) * (1 << 32) + int(ft["l"].iloc[0])
    sum_z2 = 0
    for z in zs:
        sum_z2 += z * z
    est = sum_z2 / 8.0
    rel = abs(est - float(f2)) / float(f2)
    return pd.DataFrame([{"n_events": n, "f2_exact": f2,
                          "est": round(est, 6),
                          "rel_err": round(rel, 6)}]) \
        .astype({"n_events": np.int64, "f2_exact": np.int64})


def _sql_ams_f2() -> str:
    """Twin of q_ams_f2_sketch, generated from the SAME seed list:
    each Z_j is a one-pass signed count whose sign is the top bit of
    the mod-2^64 multiply (HUGEINT product — (user+1) < 2^63 times a
    64-bit odd constant stays under 2^127)."""
    seeds = _ams_seeds()
    zcols = ",\n      ".join(
        "CAST(SUM(CASE WHEN ((CAST(user_id AS HUGEINT) + 1) * {a}) "
        "% 18446744073709551616 >= 9223372036854775808 "
        "THEN -1 ELSE 1 END) AS BIGINT) AS z{j}".format(a=a, j=j)
        for j, a in enumerate(seeds))
    z2 = " + ".join(f"CAST(z{j} AS HUGEINT) * z{j}"
                    for j in range(_AMS_K))
    return f"""
WITH z AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
      {zcols}
    FROM events),
f AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS c
      FROM events GROUP BY 1),
f2 AS (SELECT SUM(CAST(c AS HUGEINT) * c) AS f2x FROM f),
e AS (SELECT z.n, f2.f2x, ({z2}) / 8.0 AS est_raw FROM z, f2)
SELECT n AS n_events, CAST(f2x AS BIGINT) AS f2_exact,
       ROUND(est_raw, 6) AS est,
       ROUND(ABS(est_raw - CAST(f2x AS DOUBLE))
             / CAST(f2x AS DOUBLE), 6) AS rel_err
FROM e
"""


_CROSTON_TAPS = 32


def q_croston_forecast_parts(sf_dir: str):
    """Croston intermittent-demand forecast per part — the standard
    supply-chain method for sparse demand: separate exponential
    smoothing of nonzero demand SIZES and of inter-demand INTERVALS,
    forecast = size/interval.  α = 1/2 with the smoothing truncated at
    32 taps makes every term d·2⁻ʲ an exact binary float whose sums
    span < 53 mantissa bits — so all float additions are EXACT in any
    order and the SQL twin's unordered SUM cannot drift; the only
    rounding is the three mirrored final divisions.  Demand days fold
    in one (part, day) reduce; the per-part tap fold is vectorized
    pandas inside the part-keyed shuffle.  Parts with a single demand
    day have no interval ⇒ NULL interval/forecast, like the twin's
    LEFT JOIN."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_shipdate"])

    def tag(t: pa.Table) -> pa.Table:
        us = t["l_shipdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        return pa.table({
            "pk": t["l_partkey"],
            "day": pa.array(us // 86_400_000_000),
            "d": pa.array(np.floor(t["l_quantity"].to_numpy(
                zero_copy_only=False) + 0.5).astype(np.int64))})

    dd = li.map_batches(tag, batch_format="pyarrow") \
        .groupby(["pk", "day"]).aggregate(Sum("d", alias_name="d"))

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["pk", "day"],
                          ascending=[True, False]).reset_index(drop=True)
        rn = g.groupby("pk", sort=False).cumcount().to_numpy(np.int64)
        m = g.groupby("pk", sort=False)["day"].transform("size") \
            .to_numpy(np.int64)
        pk = g["pk"].to_numpy(np.int64)
        day = g["day"].to_numpy(np.int64)
        d = g["d"].to_numpy(np.int64)
        w = np.power(0.5, rn.astype(np.float64))
        keep = rn < _CROSTON_TAPS
        zt = pd.DataFrame({"pk": pk[keep], "m": m[keep],
                           "znum": d[keep] * w[keep]}) \
            .groupby("pk", sort=False).agg(
                m=("m", "max"), znum=("znum", "sum")).reset_index()
        nxt = np.roll(day, -1)
        samepart = np.roll(pk, -1) == pk
        gk = keep & samepart & (rn + 1 < m)
        gaps = pd.DataFrame({"pk": pk[gk],
                             "pnum": (day[gk] - nxt[gk]) * w[gk],
                             "mg": 1}) \
            .groupby("pk", sort=False).sum().reset_index()
        out = zt.merge(gaps, on="pk", how="left")
        mz = np.minimum(out["m"].to_numpy(np.int64), _CROSTON_TAPS)
        zden = 2.0 - np.power(0.5, (mz - 1).astype(np.float64))
        z = out["znum"].to_numpy(np.float64) / zden
        mg = out["mg"].to_numpy(np.float64)      # NaN where no gaps
        pden = 2.0 - np.power(0.5, mg - 1.0)
        ph = out["pnum"].to_numpy(np.float64) / pden
        return pd.DataFrame({
            "p_partkey": out["pk"].astype(np.int64),
            "n_demand_days": out["m"].astype(np.int64),
            "z_size": np.round(z, 6),
            "p_interval": np.round(ph, 6),
            "croston_forecast": np.round(z / ph, 6)})

    out = relational.ds_to_table(
        relational.bucket_shuffle(dd, "pk", per_part)
    ).to_pandas().sort_values("p_partkey").reset_index(drop=True)
    return out


SQL_CROSTON = """
WITH dd AS (SELECT l_partkey AS pk,
                   epoch_us(l_shipdate) // 86400000000 AS day,
                   SUM(CAST(FLOOR(l_quantity + 0.5) AS BIGINT)) AS d
            FROM lineitem GROUP BY 1, 2),
r AS (SELECT pk, day, d,
             ROW_NUMBER() OVER (PARTITION BY pk
                                ORDER BY day DESC) - 1 AS rn,
             COUNT(*) OVER (PARTITION BY pk) AS m
      FROM dd),
z AS (SELECT pk, CAST(MAX(m) AS BIGINT) AS m,
             SUM(d * POWER(0.5, rn)) AS znum
      FROM r WHERE rn < 32 GROUP BY pk),
g0 AS (SELECT a.pk, a.rn, a.day - b.day AS gap
       FROM r a JOIN r b ON a.pk = b.pk AND b.rn = a.rn + 1
       WHERE a.rn < 32),
g AS (SELECT pk, SUM(gap * POWER(0.5, rn)) AS pnum,
             CAST(COUNT(*) AS BIGINT) AS mg
      FROM g0 GROUP BY pk),
f AS (SELECT z.pk, z.m,
             z.znum / (2.0 - POWER(0.5, LEAST(z.m, 32) - 1)) AS zz,
             g.pnum / (2.0 - POWER(0.5, g.mg - 1)) AS ph
      FROM z LEFT JOIN g ON g.pk = z.pk)
SELECT pk AS p_partkey, m AS n_demand_days,
       ROUND(zz, 6) AS z_size, ROUND(ph, 6) AS p_interval,
       ROUND(zz / ph, 6) AS croston_forecast
FROM f ORDER BY p_partkey
"""


_SHAPLEY_CHANNELS = ("click", "error", "signup", "view")


def q_shapley_attribution(sf_dir: str):
    """Shapley-value marketing attribution over the four non-purchase
    event channels — the game-theoretic credit split (the fair
    alternative to the registry's first/last-touch and rules-compare
    ops): v(S) = #converted users whose touched-channel set ⊆ S, and
    each channel's value is the weighted average of its marginal
    contributions over all 2³ coalitions of the others.  With 4
    channels the weights |S|!·(3−|S|)! make φ·4! an exact INTEGER, so
    the whole op is integer end-to-end (one per-user flag reduce →
    ≤16 mask counts → a 32-term driver sum); φ itself is one mirrored
    /24 division.  Twin generated from the same channel/coalition
    enumeration."""
    fl = _user_event_flags(sf_dir,
                           _SHAPLEY_CHANNELS + ("purchase",))

    def masks(t: pa.Table) -> pa.Table:
        conv = t["f_purchase"].to_numpy(zero_copy_only=False)
        mask = np.zeros(t.num_rows, dtype=np.int64)
        for b, ty in enumerate(_SHAPLEY_CHANNELS):
            mask |= t[f"f_{ty}"].to_numpy(
                zero_copy_only=False).astype(np.int64) << b
        g = pd.DataFrame({"mask": mask[conv == 1], "pn": 1}) \
            .groupby("mask", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum
    cm = relational.ds_to_table(
        fl.map_batches(masks, batch_format="pyarrow")
        .groupby("mask").aggregate(Sum("pn", alias_name="cnt"))
    ).to_pandas()
    cnt = {int(r.mask): int(r.cnt) for r in cm.itertuples()}

    def v(s: int) -> int:
        return sum(c for m, c in cnt.items() if (m | s) == s)

    fact = [1, 1, 2, 6]
    rows = []
    for b, ch in enumerate(_SHAPLEY_CHANNELS):
        bit = 1 << b
        others = [1 << j for j in range(4) if j != b]
        phi24 = 0
        for ss in range(8):
            s = sum(o for j, o in enumerate(others) if ss >> j & 1)
            sz = bin(ss).count("1")
            phi24 += fact[sz] * fact[3 - sz] * (v(s | bit) - v(s))
        rows.append({"channel": ch, "phi_24": phi24,
                     "phi": float(np.round(
                         float(phi24) / 24.0, 6))})
    return pd.DataFrame(rows).astype({"phi_24": np.int64})


def _sql_shapley() -> str:
    flags = ",\n         ".join(
        f"MAX(CASE WHEN event_type = '{ty}' THEN 1 ELSE 0 END)"
        f" AS f_{ty}"
        for ty in _SHAPLEY_CHANNELS + ("purchase",))
    maskexpr = " + ".join(
        f"{1 << b} * f_{ty}"
        for b, ty in enumerate(_SHAPLEY_CHANNELS))
    fact = [1, 1, 2, 6]
    wrows = []
    for b, ch in enumerate(_SHAPLEY_CHANNELS):
        bit = 1 << b
        others = [1 << j for j in range(4) if j != b]
        for ss in range(8):
            s = sum(o for j, o in enumerate(others) if ss >> j & 1)
            sz = bin(ss).count("1")
            wrows.append(f"('{ch}', {s | bit}, {s}, "
                         f"{fact[sz] * fact[3 - sz]})")
    vals = ", ".join(wrows)
    return f"""
WITH uf AS (SELECT user_id,
         {flags}
       FROM events GROUP BY 1),
cm AS (SELECT {maskexpr} AS mask, CAST(COUNT(*) AS BIGINT) AS cnt
       FROM uf WHERE f_purchase = 1 GROUP BY 1),
co AS (SELECT unnest(generate_series(0, 15)) AS s),
vt AS (SELECT co.s, COALESCE(SUM(cm.cnt), 0) AS v
       FROM co LEFT JOIN cm ON (cm.mask | co.s) = co.s GROUP BY 1),
w AS (SELECT * FROM (VALUES {vals}) w(ch, swith, swo, wt)),
phi AS (SELECT ch, SUM(wt * (a.v - b.v)) AS phi24
        FROM w JOIN vt a ON a.s = w.swith
        JOIN vt b ON b.s = w.swo GROUP BY 1)
SELECT ch AS channel, CAST(phi24 AS BIGINT) AS phi_24,
       ROUND(CAST(phi24 AS DOUBLE) / 24.0, 6) AS phi
FROM phi ORDER BY channel
"""


def q_weibull_mrr_latency(sf_dir: str):
    """Weibull fit of order-fulfillment latency by median-rank
    regression — reliability engineering's standard two-parameter
    estimate (Weibull plot + Bernard's approximation): sort the
    latencies, give rank i the median rank F_i = (i−0.3)/(n+0.4),
    and OLS y = ln(−ln(1−F_i)) on x = ln t_i; slope = shape β,
    scale η = exp(−α/β).  β < 1 reads infant-mortality, β ≈ 1
    exponential, β > 1 wear-out — the SLA-shape diagnostic the
    latency histogram can't give.  The synthetic ship dates precede
    order dates for some rows, so the fit is the THREE-parameter
    Weibull with location threshold γ = min−1 day: t = days − γ
    (positive by construction, stated in both engines); every
    per-rank x/y/xy/x² term is NANO-QUANTIZED so the fold is an
    order-free integer sum; the slope/scale chain is mirrored."""
    import math
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def li_min(t: pa.Table) -> pa.Table:
        g = pa.table({"o_orderkey": t["l_orderkey"],
                      "ship": t["l_shipdate"]}) \
            .group_by("o_orderkey").aggregate([("ship", "min")])
        return pa.table({"o_orderkey": g["o_orderkey"],
                         "ship": g["ship_min"]})

    def comb(t: pa.Table) -> pa.Table:
        g = t.group_by("o_orderkey").aggregate(
            [("ship", "min"), ("o_orderdate", "min")])
        s = g["ship_min"].to_numpy(zero_copy_only=False)
        o = g["o_orderdate_min"].to_numpy(zero_copy_only=False)
        days = ((s - o) // np.timedelta64(1, "D")).astype(np.int64)
        u, c = np.unique(days, return_counts=True)
        return pa.table({"t": pa.array(u),
                         "pn": pa.array(c.astype(np.int64))})

    j = relational.bucketed_hash_join(
        li.map_batches(li_min, batch_format="pyarrow"), orders,
        on="o_orderkey", combine=comb)
    lat = relational.ds_to_table(
        j.groupby("t").aggregate(Sum("pn", alias_name="c"))
    ).to_pandas().sort_values("t").reset_index(drop=True)
    n = int(lat["c"].sum())
    gamma = int(lat["t"].iloc[0]) - 1    # location threshold
    # One numpy fold per DISTINCT latency day (domain-bounded, a few
    # hundred tie blocks regardless of scale) — never one Python
    # iteration per order row.
    sx9 = sy9 = sxy9 = sxx9 = 0
    a = 0
    for r in lat.itertuples(index=False):
        c = int(r.c)
        x = math.log(int(r.t) - gamma)
        x9 = int(np.floor(x * 1e9 + 0.5))
        xx9 = int(np.floor(x * x * 1e9 + 0.5))
        i = np.arange(a + 1, a + c + 1, dtype=np.float64)
        fi = (i - 0.3) / (float(n) + 0.4)
        y = np.log(-np.log(1.0 - fi))
        sy9 += int(np.floor(y * 1e9 + 0.5).astype(np.int64).sum())
        sxy9 += int(np.floor(x * y * 1e9 + 0.5)
                    .astype(np.int64).sum())
        sx9 += x9 * c
        sxx9 += xx9 * c
        a += c
    sx, sy = sx9 / 1e9, sy9 / 1e9
    sxy, sxx = sxy9 / 1e9, sxx9 / 1e9
    beta = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    alpha = sy / n - beta * (sx / n)
    eta = math.exp(-alpha / beta)
    return pd.DataFrame([{
        "n_orders": n, "gamma_days": gamma,
        "shape_beta": np.round(beta, 6),
        "scale_eta_days": np.round(eta, 6)}]).astype({
            "n_orders": np.int64, "gamma_days": np.int64})


SQL_WEIBULL_MRR = """
WITH f AS (SELECT l_orderkey, MIN(l_shipdate) AS ship
           FROM lineitem GROUP BY 1),
lat AS (SELECT CAST(date_diff('day', o.o_orderdate, f.ship)
                    AS BIGINT) AS t,
               CAST(COUNT(*) AS BIGINT) AS c
        FROM f JOIN orders o ON o.o_orderkey = f.l_orderkey
        GROUP BY 1),
w AS (SELECT t, c, SUM(c) OVER (ORDER BY t) - c AS a,
             SUM(c) OVER () AS n,
             MIN(t) OVER () - 1 AS gamma
      FROM lat),
rk AS (SELECT t, n, gamma,
              a + unnest(generate_series(1, c)) AS i FROM w),
q AS (SELECT n, gamma, LN(t - gamma) AS x,
             LN(-LN(1.0 - (CAST(i AS DOUBLE) - 0.3)
                    / (CAST(n AS DOUBLE) + 0.4))) AS y
      FROM rk),
s AS (SELECT MAX(n) AS n, MAX(gamma) AS gamma,
             SUM(CAST(FLOOR(x * 1e9 + 0.5) AS BIGINT)) / 1e9 AS sx,
             SUM(CAST(FLOOR(y * 1e9 + 0.5) AS BIGINT)) / 1e9 AS sy,
             SUM(CAST(FLOOR(x * y * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS sxy,
             SUM(CAST(FLOOR(x * x * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS sxx
      FROM q),
b AS (SELECT n, gamma,
             (n * sxy - sx * sy) / (n * sxx - sx * sx) AS beta,
             sx, sy
      FROM s)
SELECT CAST(n AS BIGINT) AS n_orders,
       CAST(gamma AS BIGINT) AS gamma_days,
       ROUND(beta, 6) AS shape_beta,
       ROUND(EXP(-(sy / n - beta * (sx / n)) / beta), 6)
         AS scale_eta_days
FROM b
"""


def q_bornhuetter_ferguson(sf_dir: str):
    """Bornhuetter–Ferguson reserving beside the registry's chain
    ladder — the method actuaries switch to when the latest diagonal
    is too green to multiply (CL amplifies early noise; BF blends in
    an a-priori): ultimate = latest + prior·(1 − 1/CDF), CDF = the
    SAME volume-weighted factor product as the CL op, prior = the
    mature-origin (lmax = 4) average ultimate — stated convention,
    NULL when no origin is mature.  Same triangle, same exact-cents
    arithmetic, mirrored float order."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]) \
        .map_batches(lambda t: pa.table({
            "l_orderkey": t["o_orderkey"],
            "om": (t["o_orderdate"].to_numpy(zero_copy_only=False)
                   .astype("datetime64[M]").astype(np.int64))}),
            batch_format="pyarrow")
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_shipdate", "l_extendedprice",
                "l_discount"])

    def combine(t: pa.Table) -> pa.Table:
        sm = t["l_shipdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[M]").astype(np.int64)
        om = t["om"].to_numpy(zero_copy_only=False)
        lag = sm - om
        ep = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        db = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        rev = ep * (100 - db)
        keep = (lag >= 0) & (lag <= 4)
        g = pd.DataFrame({"om": om[keep], "lag": lag[keep],
                          "inc": rev[keep]}) \
            .groupby(["om", "lag"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    tri = relational.ds_to_table(
        relational.bucketed_hash_join(li, orders, on="l_orderkey",
                                      combine=combine)
        .groupby(["om", "lag"]).aggregate(Sum("inc",
                                              alias_name="inc"))
    ).to_pandas()
    dstar = int(tri["om"].max()) - 3
    L = 4
    origins = sorted(tri["om"].unique())
    inc = {(int(r.om), int(r.lag)): int(r.inc)
           for r in tri.itertuples()}
    cum = {}
    lmax = {}
    for o in origins:
        lm = min(L, dstar - o)
        if lm < 0:
            continue
        lmax[o] = lm
        run = 0
        for l in range(lm + 1):
            run += inc.get((o, l), 0)
            cum[(o, l)] = run
    fac = {}
    for l in range(L):
        num = sum(cum[(o, l + 1)] for o in lmax
                  if lmax[o] >= l + 1)
        den = sum(cum[(o, l)] for o in lmax if lmax[o] >= l + 1)
        fac[l] = float(num) / float(den) if den else 1.0
    mature = [cum[(o, L)] for o in lmax if lmax[o] == L]
    prior = (float(sum(mature)) / float(len(mature))
             if mature else None)
    rows = []
    for o in sorted(lmax):
        latest = cum[(o, lmax[o])]
        p = 1.0
        for l in range(lmax[o], L):
            p = p * fac[l]
        if prior is None:
            bf_ult = np.nan
            ibnr = np.nan
        else:
            ibnr = prior * (1.0 - 1.0 / p)   # the twin's exact chain
            bf_ult = float(latest) + ibnr
        rows.append({"origin_month": o, "dev_observed": lmax[o],
                     "latest_e4": latest,
                     "cdf": np.round(p, 6),
                     "bf_ultimate_e4": np.round(bf_ult, 4),
                     "bf_ibnr_e4": np.round(ibnr, 4)})
    return pd.DataFrame(rows).astype({
        "origin_month": np.int64, "dev_observed": np.int64,
        "latest_e4": np.int64})


SQL_BORNHUETTER_FERGUSON = """
WITH j AS (SELECT CAST(date_part('year', o_orderdate) * 12
                       + date_part('month', o_orderdate) - 1 - 23640
                       AS BIGINT) AS om,
                  CAST(date_part('year', l_shipdate) * 12
                       + date_part('month', l_shipdate) - 1 - 23640
                       AS BIGINT)
                  - CAST(date_part('year', o_orderdate) * 12
                         + date_part('month', o_orderdate) - 1
                         - 23640 AS BIGINT) AS lag,
                  CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                  * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
                    AS inc
           FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
tri AS (SELECT om, lag, CAST(SUM(inc) AS BIGINT) AS inc
        FROM j WHERE lag BETWEEN 0 AND 4 GROUP BY 1, 2),
ds AS (SELECT MAX(om) - 3 AS dstar FROM tri),
o AS (SELECT DISTINCT om FROM tri, ds WHERE ds.dstar - om >= 0),
cells AS (SELECT o.om, s.l AS lag
          FROM o, ds, (SELECT unnest(generate_series(0, 4)) AS l) s
          WHERE s.l <= LEAST(4, ds.dstar - o.om)),
cum AS (SELECT c.om, c.lag,
               SUM(COALESCE(t.inc, 0)) OVER (
                 PARTITION BY c.om ORDER BY c.lag) AS cum
        FROM cells c LEFT JOIN tri t
          ON t.om = c.om AND t.lag = c.lag),
lm AS (SELECT om, MAX(lag) AS lmax FROM cum GROUP BY 1),
fac AS (SELECT l.lag AS l,
               CASE WHEN COALESCE(SUM(CASE WHEN c.lag = l.lag
                                      THEN c.cum END), 0) = 0
                    THEN 1.0
                    ELSE CAST(SUM(CASE WHEN c.lag = l.lag + 1
                                  THEN c.cum END) AS DOUBLE)
                         / CAST(SUM(CASE WHEN c.lag = l.lag
                                    THEN c.cum END) AS DOUBLE)
               END AS f
        FROM (SELECT unnest(generate_series(0, 3)) AS lag) l
        LEFT JOIN lm ON lm.lmax >= l.lag + 1
        LEFT JOIN cum c ON c.om = lm.om
                       AND c.lag IN (l.lag, l.lag + 1)
        GROUP BY 1),
fp AS (SELECT COALESCE(MAX(CASE WHEN l = 0 THEN f END), 1.0) AS f0,
              COALESCE(MAX(CASE WHEN l = 1 THEN f END), 1.0) AS f1,
              COALESCE(MAX(CASE WHEN l = 2 THEN f END), 1.0) AS f2,
              COALESCE(MAX(CASE WHEN l = 3 THEN f END), 1.0) AS f3
       FROM fac),
pri AS (SELECT SUM(CAST(c.cum AS DOUBLE)) / COUNT(*) AS prior
        FROM lm JOIN cum c ON c.om = lm.om AND c.lag = 4
        WHERE lm.lmax = 4),
u AS (SELECT lm.om, lm.lmax, c.cum AS latest,
             (CASE lm.lmax WHEN 4 THEN 1.0
              WHEN 3 THEN fp.f3
              WHEN 2 THEN fp.f2 * fp.f3
              WHEN 1 THEN fp.f1 * fp.f2 * fp.f3
              ELSE fp.f0 * fp.f1 * fp.f2 * fp.f3 END) AS cdf
      FROM lm JOIN cum c ON c.om = lm.om AND c.lag = lm.lmax, fp)
SELECT u.om AS origin_month, CAST(u.lmax AS BIGINT) AS dev_observed,
       CAST(u.latest AS BIGINT) AS latest_e4,
       ROUND(u.cdf, 6) AS cdf,
       ROUND(CAST(u.latest AS DOUBLE)
             + pri.prior * (1.0 - 1.0 / u.cdf), 4)
         AS bf_ultimate_e4,
       ROUND(pri.prior * (1.0 - 1.0 / u.cdf), 4) AS bf_ibnr_e4
FROM u, pri ORDER BY u.om
"""


def q_brunner_munzel_value(sf_dir: str):
    """Brunner–Munzel test, click vs purchase values — the modern
    replacement for Mann–Whitney when the two spreads differ (MW's
    null mixes location with scale; BM tests the relative effect
    p = P(X<Y) + ½P(X=Y) directly): doubled pooled and internal
    midranks keep every rank integer under the heavy cent ties, the
    rank-variance terms clear to exact integer sums
    Σc·(n_i(r2−q2) − Σcr2 + n_i(n_i+1))², and the statistic spends
    one mirrored float chain.  Rides the shared (side, cents)
    counts reduce."""
    import math
    g = _click_purchase_value_counts(sf_dir)
    piv = g.pivot_table(index="v", columns="side", values="c",
                        fill_value=0, aggfunc="sum").sort_index()
    for s in (0, 1):
        if s not in piv.columns:
            piv[s] = 0
    cx = piv[0].to_numpy(np.int64).astype(object)
    cy = piv[1].to_numpy(np.int64).astype(object)
    n1 = int(sum(cx))
    n2 = int(sum(cy))
    N = n1 + n2
    call = cx + cy
    cum = np.cumsum(call)
    r2 = 2 * cum - call + 1              # doubled pooled midrank
    qx2 = 2 * np.cumsum(cx) - cx + 1     # doubled internal midranks
    qy2 = 2 * np.cumsum(cy) - cy + 1
    sr2x = int((cx * r2).sum())
    sr2y = int((cy * r2).sum())
    tx_ = n1 * (r2 - qx2) - sr2x + n1 * (n1 + 1)
    ty_ = n2 * (r2 - qy2) - sr2y + n2 * (n2 + 1)
    sx_num = int((cx * tx_ * tx_).sum())
    sy_num = int((cy * ty_ * ty_).sum())
    sx = float(sx_num) / float(4 * n1 * n1 * (n1 - 1))
    sy = float(sy_num) / float(4 * n2 * n2 * (n2 - 1))
    rbar_diff = float(sr2y) / (2.0 * n2) - float(sr2x) / (2.0 * n1)
    den = n1 * sx + n2 * sy
    w = np.nan if den <= 0 else \
        float(n1) * n2 * rbar_diff / (float(N) * math.sqrt(den))
    p_hat = (float(sr2y) / (2.0 * n2) - (n2 + 1) / 2.0) / n1
    return pd.DataFrame([{
        "n_click": n1, "n_purchase": n2,
        "p_hat": np.round(p_hat, 6),
        "bm_w": np.round(w, 6)}]).astype({
            "n_click": np.int64, "n_purchase": np.int64})


SQL_BRUNNER_MUNZEL = f"""
WITH {SQL_CP_COUNTS_CTE.strip()},
pv AS (SELECT v, SUM(CASE WHEN side = 0 THEN c ELSE 0 END) AS cx,
             SUM(CASE WHEN side = 1 THEN c ELSE 0 END) AS cy
       FROM g GROUP BY 1),
n AS (SELECT CAST(SUM(cx) AS HUGEINT) AS n1,
             CAST(SUM(cy) AS HUGEINT) AS n2 FROM pv),
r AS (SELECT v, cx, cy,
             2 * SUM(cx + cy) OVER (ORDER BY v) - (cx + cy) + 1
               AS r2,
             2 * SUM(cx) OVER (ORDER BY v) - cx + 1 AS qx2,
             2 * SUM(cy) OVER (ORDER BY v) - cy + 1 AS qy2
      FROM pv),
m AS (SELECT SUM(CAST(cx AS HUGEINT) * r2) AS sr2x,
             SUM(CAST(cy AS HUGEINT) * r2) AS sr2y
      FROM r),
t AS (SELECT
        SUM(CAST(r.cx AS HUGEINT)
            * (n.n1 * (r.r2 - r.qx2) - m.sr2x + n.n1 * (n.n1 + 1))
            * (n.n1 * (r.r2 - r.qx2) - m.sr2x + n.n1 * (n.n1 + 1)))
          AS sxn,
        SUM(CAST(r.cy AS HUGEINT)
            * (n.n2 * (r.r2 - r.qy2) - m.sr2y + n.n2 * (n.n2 + 1))
            * (n.n2 * (r.r2 - r.qy2) - m.sr2y + n.n2 * (n.n2 + 1)))
          AS syn
      FROM r, n, m),
f AS (SELECT CAST(n.n1 AS BIGINT) AS n1, CAST(n.n2 AS BIGINT)
        AS n2,
        CAST(t.sxn AS DOUBLE)
          / CAST(4 * n.n1 * n.n1 * (n.n1 - 1) AS DOUBLE) AS sx,
        CAST(t.syn AS DOUBLE)
          / CAST(4 * n.n2 * n.n2 * (n.n2 - 1) AS DOUBLE) AS sy,
        CAST(m.sr2y AS DOUBLE) / (2.0 * CAST(n.n2 AS DOUBLE))
        - CAST(m.sr2x AS DOUBLE) / (2.0 * CAST(n.n1 AS DOUBLE))
          AS rdiff,
        CAST(m.sr2y AS DOUBLE) AS sr2y
      FROM n, m, t)
SELECT n1 AS n_click, n2 AS n_purchase,
       ROUND((sr2y / (2.0 * n2) - (n2 + 1) / 2.0) / n1, 6)
         AS p_hat,
       CASE WHEN n1 * sx + n2 * sy <= 0 THEN NULL
            ELSE ROUND(CAST(n1 AS DOUBLE) * n2 * rdiff
                       / (CAST(n1 + n2 AS DOUBLE)
                          * SQRT(n1 * sx + n2 * sy)), 6) END
         AS bm_w
FROM f
"""


def q_association_rules_parts(sf_dir: str):
    """Apriori-style association rules over the order baskets — the
    rule-metric layer on top of the registry's co-purchase pair
    kernel (support alone says "bought together"; confidence and
    lift say "buying A PREDICTS B"): directed rules A→B from the
    unordered pair counts, confidence = n_AB/n_A, lift =
    confidence/(n_B/n_orders), minimum pair support 2 (stated), and
    the top-15 by (lift DESC, antecedent, consequent) — a strict
    total order because both engines compute the identical float
    chain on identical exact integers.  100-TB shape: the pair table
    NEVER reaches the driver — per-batch support prune + rule
    metrics + local top-15 (pairs are batch-disjoint so the prune is
    exact) with the part-domain basket-count map broadcast via
    ray.put; the driver merges blocks × 15 rows."""
    import ray
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    # uncapped: a capped basket would drop pairs and break exactness
    pairs = relational.cooccurrence_pairs(li, key_col="l_orderkey",
                                          val_col="l_partkey",
                                          max_vals_per_key=None)

    # exact distinct (order, part) set — an order's lines can span
    # batches — computed ONCE and reused for both margins
    dis = li.map_batches(lambda t: pa.Table.from_pandas(
        pd.DataFrame({
            "o": t["l_orderkey"].to_numpy(zero_copy_only=False),
            "p": t["l_partkey"].to_numpy(zero_copy_only=False)})
        .drop_duplicates(), preserve_index=False),
        batch_format="pyarrow") \
        .groupby(["o", "p"]).count().materialize()
    n_orders = int(dis.map_batches(
        lambda t: pa.table({"o": pc.unique(t["o"])}),
        batch_format="pyarrow").groupby("o").count().count())
    # per-part basket counts: PART-DOMAIN-bounded, broadcast via
    # ray.put — the pair table itself never reaches the driver
    ic_tbl = relational.ds_to_table(
        dis.map_batches(lambda t: pa.Table.from_pandas(
            pd.DataFrame({"p": t["p"].to_numpy(zero_copy_only=False),
                          "pc": 1}).groupby("p", sort=False)
            .sum().reset_index(), preserve_index=False),
            batch_format="pyarrow")
        .groupby("p").aggregate(Sum("pc", alias_name="c")))
    ic = dict(zip(ic_tbl["p"].to_numpy(zero_copy_only=False)
                  .astype(np.int64).tolist(),
                  ic_tbl["c"].to_numpy(zero_copy_only=False)
                  .astype(np.int64).tolist()))
    ic_ref = ray.put(ic)

    def rules(t: pa.Table, _ic=ic_ref, _n=n_orders) -> pa.Table:
        # per-batch min-support prune + directed rules + local top-15
        # by the same strict key as the global finish — pairs are
        # batch-disjoint so the prune is exact
        icm = worker_cached(("assoc_ic", _ic), lambda: ray.get(_ic))
        df = t.to_pandas()
        df = df[df["n_keys"] >= 2]
        if not len(df):
            return pa.Table.from_pandas(pd.DataFrame({
                "antecedent": pd.array([], dtype=np.int64),
                "consequent": pd.array([], dtype=np.int64),
                "n_both": pd.array([], dtype=np.int64),
                "n_antecedent": pd.array([], dtype=np.int64),
                "n_consequent": pd.array([], dtype=np.int64),
                "confidence": pd.array([], dtype=np.float64),
                "lift": pd.array([], dtype=np.float64)}),
                preserve_index=False)
        both = pd.concat([
            df.rename(columns={"a": "antecedent",
                               "b": "consequent"}),
            df.rename(columns={"b": "antecedent",
                               "a": "consequent"})])
        both["n_antecedent"] = both["antecedent"].map(icm) \
            .astype(np.int64)
        both["n_consequent"] = both["consequent"].map(icm) \
            .astype(np.int64)
        conf = both["n_keys"].astype(float) / both["n_antecedent"]
        both["confidence"] = conf
        both["lift"] = conf / (both["n_consequent"].astype(float)
                               / _n)
        out = both.sort_values(["lift", "antecedent", "consequent"],
                               ascending=[False, True, True]) \
            .head(15).rename(columns={"n_keys": "n_both"})[[
                "antecedent", "consequent", "n_both",
                "n_antecedent", "n_consequent", "confidence",
                "lift"]]
        return pa.Table.from_pandas(out, preserve_index=False)

    out = relational.ds_to_table(
        pairs.map_batches(rules, batch_format="pyarrow")
    ).to_pandas().sort_values(["lift", "antecedent", "consequent"],
                              ascending=[False, True, True]) \
        .head(15).reset_index(drop=True)
    out["confidence"] = np.round(out["confidence"], 6)
    out["lift"] = np.round(out["lift"], 6)
    return out.astype({
        "antecedent": np.int64, "consequent": np.int64,
        "n_both": np.int64, "n_antecedent": np.int64,
        "n_consequent": np.int64})


SQL_ASSOC_RULES = """
WITH b AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p
           FROM lineitem),
n AS (SELECT CAST(COUNT(DISTINCT o) AS BIGINT) AS n_orders FROM b),
ic AS (SELECT p, CAST(COUNT(*) AS BIGINT) AS c FROM b GROUP BY 1),
pr AS (SELECT x.p AS pa, y.p AS pb, CAST(COUNT(*) AS BIGINT) AS cab
       FROM b x JOIN b y ON x.o = y.o AND x.p <> y.p
       GROUP BY 1, 2),
r AS (SELECT pa, pb, cab, ia.c AS ca, ib.c AS cb
      FROM pr JOIN ic ia ON ia.p = pr.pa
              JOIN ic ib ON ib.p = pr.pb
      WHERE cab >= 2)
SELECT pa AS antecedent, pb AS consequent, cab AS n_both,
       ca AS n_antecedent, cb AS n_consequent,
       ROUND(CAST(cab AS DOUBLE) / ca, 6) AS confidence,
       ROUND(CAST(cab AS DOUBLE) / ca
             / (CAST(cb AS DOUBLE) / n.n_orders), 6) AS lift
FROM r, n
ORDER BY CAST(cab AS DOUBLE) / ca
         / (CAST(cb AS DOUBLE) / n.n_orders) DESC,
         antecedent, consequent
LIMIT 15
"""


def q_ks_two_sample_value(sf_dir: str):
    """Two-sample Kolmogorov–Smirnov D between the 'click' and
    'purchase' event-value distributions — the ECDF-gap member of
    the two-sample panel (A–D weights the tails, CvM integrates, KS
    takes the sup): D's numerator max|F₁·n₁n₂ − F₂·n₁n₂| is an EXACT
    INTEGER from cumulative cell counts (no float CDFs at all), and
    only the final D and the √(n₁n₂/(n₁+n₂))·D scaling spend
    divisions.  Ties are handled exactly: the sup runs over the
    pooled distinct-value grid."""
    import math
    cells = _value_cells_two_groups(sf_dir)
    piv = cells.pivot_table(index="v", columns="grp", values="c",
                            aggfunc="sum", fill_value=0).sort_index()
    c1 = piv.get("click", pd.Series(0, index=piv.index)) \
        .to_numpy(np.int64).astype(object)
    c2 = piv.get("purchase", pd.Series(0, index=piv.index)) \
        .to_numpy(np.int64).astype(object)
    n1 = int(c1.sum())
    n2 = int(c2.sum())
    d_num = int(np.max(np.abs(np.cumsum(c1) * n2
                              - np.cumsum(c2) * n1)))
    d = float(d_num) / (float(n1) * n2)
    en = math.sqrt(float(n1) * n2 / (float(n1) + n2))
    return pd.DataFrame([{
        "n_click": n1, "n_purchase": n2, "d_numerator": d_num,
        "ks_d": np.round(d, 6),
        "scaled_d": np.round(en * d, 6)}]).astype({
            "n_click": np.int64, "n_purchase": np.int64,
            "d_numerator": np.int64})


SQL_KS_TWO_SAMPLE = """
WITH d AS (SELECT event_type AS grp,
                  CAST(ROUND(value * 100) AS BIGINT) AS v,
                  CAST(COUNT(*) AS BIGINT) AS c
           FROM events
           WHERE event_type IN ('click', 'purchase')
           GROUP BY 1, 2),
p AS (SELECT v,
             COALESCE(SUM(CASE WHEN grp = 'click' THEN c END), 0)
               AS c1,
             COALESCE(SUM(CASE WHEN grp = 'purchase' THEN c END), 0)
               AS c2
      FROM d GROUP BY 1),
n AS (SELECT CAST(SUM(c1) AS BIGINT) AS n1,
             CAST(SUM(c2) AS BIGINT) AS n2 FROM p),
w AS (SELECT SUM(c1) OVER (ORDER BY v) AS f1,
             SUM(c2) OVER (ORDER BY v) AS f2
      FROM p),
m AS (SELECT CAST(MAX(ABS(CAST(f1 AS HUGEINT) * n.n2
                          - CAST(f2 AS HUGEINT) * n.n1))
                  AS BIGINT) AS d_num
      FROM w, n)
SELECT n.n1 AS n_click, n.n2 AS n_purchase,
       m.d_num AS d_numerator,
       ROUND(CAST(m.d_num AS DOUBLE)
             / (CAST(n.n1 AS DOUBLE) * n.n2), 6) AS ks_d,
       ROUND(SQRT(CAST(n.n1 AS DOUBLE) * n.n2
                  / (CAST(n.n1 AS DOUBLE) + n.n2))
             * (CAST(m.d_num AS DOUBLE)
                / (CAST(n.n1 AS DOUBLE) * n.n2)), 6) AS scaled_d
FROM m, n
"""
