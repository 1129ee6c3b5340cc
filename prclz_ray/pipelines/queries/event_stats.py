"""Statistics demos over the event log: sessions, funnels, cohorts,
time series and survival curves."""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ...stages import dedup as dd
from ...stages import relational
from ...stages.util import worker_cached
from .common import (
    SQL_CP_COUNTS_CTE, SQL_OD_MATRIX, _click_purchase_value_counts, _read,
    _user_event_flags, _value_cells_two_groups, q_od_matrix_daily)


def q_stationary_event_dist(sf_dir: str):
    """Markov stationary distribution of the user-journey chain: the
    transition matrix from per-user ts-ordered event pairs (the same
    one-shuffle count as event_transition_matrix), row-normalized to
    integer NANO-probabilities (round-half-up of n*1e9/total — exact
    int arithmetic, no float division), then 6 power-iteration steps
    from the uniform vector with the same nano-int rounding each step.
    Every operation is integer, so the trajectory is bit-identical at
    any partitioning and the unrolled SQL twin (HUGEINT sums) matches
    exactly.  The matrix is |event_types|² — bounded driver math; the
    data-scaled work is the transition-count shuffle."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["user_id", "ts", "event_id"])
        same = df["user_id"].to_numpy()[1:] == df["user_id"].to_numpy()[:-1]
        cur = df["event_type"].to_numpy()[:-1][same]
        nxt = df["event_type"].to_numpy()[1:][same]
        g = pd.DataFrame({"cur": cur, "nxt": nxt, "n": 1}) \
            .groupby(["cur", "nxt"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = relational.bucket_shuffle(ev, "user_id", per_bucket) \
        .groupby(["cur", "nxt"]).aggregate(Sum("n", alias_name="n")) \
        .to_pandas()
    NANO = 10 ** 9
    tot = counts.groupby("cur")["n"].transform("sum")
    # round-half-up(n * 1e9 / tot) in exact ints
    pn = [(2 * int(n) * NANO + int(t)) // (2 * int(t))
          for n, t in zip(counts["n"], tot)]
    types = sorted(set(counts["cur"]).union(counts["nxt"]))
    idx = {t: i for i, t in enumerate(types)}
    nt = len(types)
    P = [[0] * nt for _ in range(nt)]
    for c, x, p in zip(counts["cur"], counts["nxt"], pn):
        P[idx[c]][idx[x]] = p
    v = [(2 * NANO + nt) // (2 * nt)] * nt
    for _ in range(6):
        v = [(2 * sum(v[i] * P[i][j] for i in range(nt)) + NANO)
             // (2 * NANO) for j in range(nt)]
    return pd.DataFrame({"event_type": types,
                         "p_nano": np.array(v, dtype=np.int64)})


def _sql_stationary(iters: int = 6) -> str:
    """Unrolled integer power iteration twinning
    q_stationary_event_dist (HUGEINT keeps the v·P products exact)."""
    sql = """
WITH t AS (
  SELECT event_type AS cur,
         LEAD(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS nxt
  FROM events),
c AS (SELECT cur, nxt, COUNT(*) AS n FROM t
      WHERE nxt IS NOT NULL GROUP BY 1, 2),
p AS (SELECT cur, nxt,
             CAST((2 * CAST(n AS HUGEINT) * 1000000000
                   + SUM(n) OVER (PARTITION BY cur))
                  // (2 * SUM(n) OVER (PARTITION BY cur)) AS BIGINT)
               AS pn
      FROM c),
ty AS (SELECT cur AS et FROM c UNION SELECT nxt FROM c),
v0 AS (SELECT et, CAST((2 * CAST(1000000000 AS HUGEINT)
                        + (SELECT COUNT(*) FROM ty))
                       // (2 * (SELECT COUNT(*) FROM ty)) AS BIGINT)
                  AS v FROM ty),
"""
    prev = "v0"
    for r in range(1, iters + 1):
        sql += (f"s{r} AS (SELECT p.nxt AS et, "
                f"CAST((2 * SUM(CAST({prev}.v AS HUGEINT) * p.pn) "
                f"+ 1000000000) // 2000000000 AS BIGINT) AS v "
                f"FROM p JOIN {prev} ON {prev}.et = p.cur "
                f"GROUP BY p.nxt),\n")
        sql += (f"v{r} AS (SELECT ty.et, COALESCE(s{r}.v, 0) AS v "
                f"FROM ty LEFT JOIN s{r} ON s{r}.et = ty.et),\n")
        prev = f"v{r}"
    sql = sql.rstrip(",\n") + "\n"
    sql += f"SELECT et AS event_type, v AS p_nano FROM v{iters}"
    return sql


def q_event_trigrams(sf_dir: str):
    """Sequential-pattern mining: the 50 most common consecutive
    event-type TRIGRAMS across user journeys (the order-3 Markov
    evidence behind funnel design).  One coarse-bucket shuffle on
    user_id; per-bucket vectorized sort + double groupby-shift builds
    trigrams at C speed; count partials reduce via one bounded groupby
    (≤ |types|³ rows); the (n desc, trigram asc) prune is a strict
    total order so per-batch head(50) is exact."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events",
               ["user_id", "ts", "event_id", "event_type"])

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["user_id", "ts", "event_id"])
        g = df.groupby("user_id", sort=False)["event_type"]
        t2 = g.shift(-1)
        t3 = g.shift(-2)
        ok = t3.notna().to_numpy() & t2.notna().to_numpy()
        tri = (df["event_type"].to_numpy()[ok].astype(object) + ">"
               + t2.to_numpy()[ok].astype(object) + ">"
               + t3.to_numpy()[ok].astype(object))
        u, c = np.unique(tri.astype(str), return_counts=True)
        return pa.table({"trigram": pa.array(u),
                         "pn": pa.array(c.astype(np.int64))})

    cnt = relational.bucket_shuffle(ev, "user_id", per_bucket) \
        .groupby("trigram").aggregate(Sum("pn", alias_name="n"))

    def prune(t: pa.Table) -> pa.Table:
        d = t.to_pandas().sort_values(["n", "trigram"],
                                      ascending=[False, True]).head(50)
        return pa.Table.from_pandas(d, preserve_index=False)

    res = relational.ds_to_table(
        cnt.map_batches(prune, batch_format="pyarrow")).to_pandas()
    return res.sort_values(["n", "trigram"], ascending=[False, True]) \
        .head(50).reset_index(drop=True)


SQL_EVENT_TRIGRAMS = """
WITH s AS (SELECT event_type AS t1,
                  LEAD(event_type, 1) OVER w AS t2,
                  LEAD(event_type, 2) OVER w AS t3
           FROM events
           WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
SELECT t1 || '>' || t2 || '>' || t3 AS trigram,
       CAST(COUNT(*) AS BIGINT) AS n
FROM s WHERE t2 IS NOT NULL AND t3 IS NOT NULL
GROUP BY 1 ORDER BY n DESC, trigram LIMIT 50
"""


def q_activity_bitmap_users(sf_dir: str):
    """Per-user activity bitmap: a single int64 whose bit i is set iff
    the user was active i days before the corpus horizon (i ≤ 62) —
    the compact retention feature a recommender precomputes instead of
    63 boolean columns.  A bitmap OR of distinct single-bit values IS
    their integer sum, so the whole reduce is one exact-int groupby
    Sum (max value 2⁶³−1 fits int64); active-day count is the same
    distinct row count.  No bit-twiddling UDF crosses the wire."""
    from ray.data.aggregate import Count, Max, Sum
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def day_partial(t: pa.Table) -> pa.Table:
        # 0-or-1 row per batch; empty blocks emit nothing (a bare .max()
        # on a zero-row block would raise)
        d = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64)
        return pa.table({"d": pa.array(d[:0] if len(d) == 0
                                       else d.max(keepdims=True))})

    mx = int(ev.map_batches(day_partial, batch_format="pyarrow")
             .aggregate(Max("d", alias_name="m"))["m"])

    def distinct_partial(t: pa.Table) -> pa.Table:
        day = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64)
        idx = mx - day
        keep = idx <= 62
        g = pa.table({"user_id": t["user_id"].take(
            pa.array(np.nonzero(keep)[0])),
            "idx": pa.array(idx[keep])}) \
            .group_by(["user_id", "idx"]).aggregate([])
        return g

    distinct = ev.map_batches(distinct_partial, batch_format="pyarrow") \
        .groupby(["user_id", "idx"]).aggregate(Count())

    def to_bits(t: pa.Table) -> pa.Table:
        bit = np.int64(1) << t["idx"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        g = pd.DataFrame({"user_id":
                          t["user_id"].to_numpy(zero_copy_only=False),
                          "pm": bit, "pa_": 1}) \
            .groupby("user_id", sort=False) \
            .agg(pm=("pm", "sum"), pa_=("pa_", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = relational.ds_to_table(
        distinct.map_batches(to_bits, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("pm", alias_name="activity_mask"),
                   Sum("pa_", alias_name="n_active_days"))
    ).to_pandas().sort_values("user_id").reset_index(drop=True)
    return out.astype({"activity_mask": np.int64,
                       "n_active_days": np.int64})


SQL_ACTIVITY_BITMAP = """
WITH m AS (SELECT MAX(CAST(ts AS DATE)) AS mx FROM events),
d AS (SELECT DISTINCT user_id,
             date_diff('day', CAST(ts AS DATE), mx) AS idx
      FROM events, m
      WHERE date_diff('day', CAST(ts AS DATE), mx) <= 62)
SELECT user_id,
       CAST(SUM(1::BIGINT << CAST(idx AS INT)) AS BIGINT)
         AS activity_mask,
       CAST(COUNT(*) AS BIGINT) AS n_active_days
FROM d GROUP BY 1 ORDER BY 1
"""


def q_twap_user_value(sf_dir: str):
    """Time-weighted average value per user (the TWAP/metering
    primitive: each reading holds until the next one): weights are
    exact microsecond gaps from LEAD, values quantize to micro-units,
    and the value×duration products — up to ~10²¹, past int64 — are
    BUILT in (hi, lo) split form (v·(dh·2³²+dl) with v < 2³¹ keeps
    every intermediate inside int64) and ride that split through the
    groupby; the final division evaluates the identical double
    expression as the SQL twin (hi·2³² + lo stays under 2⁵³ per
    component, so the doubles are bit-identical).  One coarse-bucket
    shuffle (grouped_lag) + one bounded per-user groupby."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    led = relational.grouped_lag(ev, key_col="user_id", ts_col="ts",
                                 order_col="event_id",
                                 lag_cols=["event_id"], lead=True,
                                 carry_cols=["value"])

    def partial(t: pa.Table) -> pa.Table:
        gap = t["gap_us"].to_numpy(zero_copy_only=False)
        keep = ~np.isnan(gap.astype(np.float64))    # last event: no hold
        dt = gap[keep].astype(np.int64)
        v = np.round(t["value"].to_numpy(zero_copy_only=False)[keep]
                     * 1e6).astype(np.int64)
        if len(v) and np.abs(v).max() >= 1 << 31:
            # abs(): a negative v of magnitude >= 2^31 would wrap the
            # split multiply SILENTLY (v.max() alone never fires when
            # every value is negative)
            raise ValueError("twap v overflows the 31-bit split bound")
        # v·dt reaches ~1.3e21 — past int64 — so the product itself is
        # built in split form: with dt = dh·2³² + dl and v < 2³¹ every
        # intermediate (v·dh, v·dl ≤ 2⁶³−1) stays in int64
        dh, dl = dt >> 32, dt & 0xFFFFFFFF
        vdl = v * dl
        hi = v * dh + (vdl >> 32)
        lo = vdl & 0xFFFFFFFF
        g = pd.DataFrame({"user_id":
                          t["user_id"].to_numpy(
                              zero_copy_only=False)[keep],
                          "phi": hi, "plo": lo, "pw": dt}) \
            .groupby("user_id", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        led.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id").aggregate(Sum("phi", alias_name="hi"),
                                      Sum("plo", alias_name="lo"),
                                      Sum("pw", alias_name="w"))
    ).to_pandas().sort_values("user_id").reset_index(drop=True)
    num = agg["hi"].to_numpy(np.float64) * 4294967296.0 \
        + agg["lo"].to_numpy(np.float64)
    return pd.DataFrame({
        "user_id": agg["user_id"].to_numpy(np.int64),
        "held_us": agg["w"].to_numpy(np.int64),
        "twap": np.round(num / agg["w"].to_numpy(np.float64) / 1e6, 4)})


SQL_TWAP = """
WITH l AS (SELECT user_id,
                  CAST(ROUND(value * 1000000) AS BIGINT) AS v,
                  date_diff('microsecond', ts,
                            LEAD(ts) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id))
                    AS dt
           FROM events),
p AS (SELECT user_id, dt,
             CAST(v AS HUGEINT) * dt AS prod
      FROM l WHERE dt IS NOT NULL),
s AS (SELECT user_id,
             SUM(prod // 4294967296) AS hi,
             SUM(prod % 4294967296) AS lo,
             SUM(dt) AS w
      FROM p GROUP BY 1)
SELECT user_id, CAST(w AS BIGINT) AS held_us,
       ROUND((CAST(hi AS DOUBLE) * 4294967296.0 + CAST(lo AS DOUBLE))
             / CAST(w AS DOUBLE) / 1000000.0, 4) AS twap
FROM s ORDER BY user_id
"""


def q_largest_id_gaps(sf_dir: str):
    """Sequence-gap audit: the 100 largest missing ranges in the
    click-stream's event-id subsequence (the islands-and-gaps pattern —
    which id ranges carry no clicks / did ingestion drop a shard?).
    Ids range-bucket (order-preserving); each bucket finds its internal
    gaps vectorized (diff on the sorted uniques) and prunes to its top
    100 under the strict (len desc, start asc) total order, emitting
    also its (min, max) edge row; the driver stitches ONLY the ≤
    buckets cross-boundary gaps and re-prunes.  Nothing row-scaled
    leaves a bucket."""
    import pyarrow.dataset as pads
    ev = _read(sf_dir, "events", ["event_id"],
               filter=pads.field("event_type") == "click")

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("_pb", pa.array(
            (t["event_id"].to_numpy(zero_copy_only=False)
             .astype(np.int64) >> 14)))       # 16k-id ranges

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        ids = np.unique(df["event_id"].to_numpy(np.int64))
        d = np.diff(ids)
        gi = np.nonzero(d > 1)[0]
        gaps = pd.DataFrame({
            "gap_start": ids[gi] + 1,
            "gap_len": d[gi] - 1,
            "edge": np.zeros(len(gi), dtype=np.int64)})
        gaps = gaps.sort_values(["gap_len", "gap_start"],
                                ascending=[False, True]).head(100)
        edge = pd.DataFrame({"gap_start": [int(ids[0])],
                             "gap_len": [int(ids[-1])],
                             "edge": [1]})     # (min, max) marker row
        return pa.Table.from_pandas(pd.concat([gaps, edge]),
                                    preserve_index=False)

    parts = relational.ds_to_table(
        ev.map_batches(tag, batch_format="pyarrow")
        .groupby("_pb").map_groups(per_bucket, batch_format="pandas")
    ).to_pandas()
    inner = parts[parts["edge"] == 0][["gap_start", "gap_len"]]
    edges = parts[parts["edge"] == 1].rename(
        columns={"gap_start": "mn", "gap_len": "mx"}) \
        .sort_values("mn")
    mx_prev = edges["mx"].to_numpy(np.int64)[:-1]
    mn_next = edges["mn"].to_numpy(np.int64)[1:]
    blen = mn_next - mx_prev - 1
    k = blen > 0
    boundary = pd.DataFrame({"gap_start": mx_prev[k] + 1,
                             "gap_len": blen[k]})
    out = pd.concat([inner, boundary]) \
        .sort_values(["gap_len", "gap_start"],
                     ascending=[False, True]).head(100) \
        .reset_index(drop=True)
    return out.astype({"gap_start": np.int64, "gap_len": np.int64})


SQL_ID_GAPS = """
WITH ids AS (SELECT DISTINCT event_id AS id FROM events
             WHERE event_type = 'click'),
g AS (SELECT id + 1 AS gap_start,
             LEAD(id) OVER (ORDER BY id) - id - 1 AS gap_len
      FROM ids)
SELECT gap_start, gap_len FROM g WHERE gap_len > 0
ORDER BY gap_len DESC, gap_start LIMIT 100
"""


def q_distinct_users_per_type(sf_dir: str):
    """Exact COUNT(DISTINCT) per group — the fundamental cardinality
    reduce (the exact twin of the registry's HLL sketches): per-batch
    distinct (type, user) partials collapse duplicates before the
    shuffle, one (type, user) groupby finishes the dedup, per-batch
    count partials reduce to the type-bounded result."""
    from ray.data.aggregate import Count, Sum
    ev = _read(sf_dir, "events", ["event_type", "user_id"])

    def distinct_partial(t: pa.Table) -> pa.Table:
        return t.group_by(["event_type", "user_id"]).aggregate([])

    def count_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("event_type").aggregate([("user_id", "count")])
        return pa.table({"event_type": g["event_type"],
                         "pn": g["user_id_count"].cast(pa.int64())})

    out = relational.ds_to_table(
        ev.map_batches(distinct_partial, batch_format="pyarrow")
        .groupby(["event_type", "user_id"]).aggregate(Count())
        .map_batches(count_partial, batch_format="pyarrow")
        .groupby("event_type").aggregate(Sum("pn", alias_name="n_users"))
    ).to_pandas().sort_values("event_type").reset_index(drop=True)
    return out.astype({"n_users": np.int64})


SQL_DISTINCT_USERS = """
SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY 1 ORDER BY 1
"""


def q_user_path_length(sf_dir: str):
    """Trajectory odometry: total great-circle distance each user
    travels across their event sequence (events map to deterministic
    lon/lat via the synthetic-point convention) — the geo × window
    combination (haversine M14 under a LEAD).  One coarse user-bucket
    shuffle; per-bucket vectorized sort + shift + haversine; per-user
    float sums run in pinned (ts, event_id) order and the SQL twin
    spells the identical formula, so 2-dp metre rounding is far above
    any trig ulp."""
    from ...geom.crs import haversine_m
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["user_id", "ts", "event_id"])
        e = df["event_id"].to_numpy(np.int64)
        lng = ((e * 7919) % 1000 + 0.5) / 1000.0 * 360.0 - 180.0
        lat = ((e * 104729) % 1000 + 0.5) / 1000.0 * 160.0 - 80.0
        g = df.groupby("user_id", sort=False)
        nxt = g.cumcount(ascending=False).to_numpy() > 0   # has next row
        lng1 = np.roll(lng, -1)
        lat1 = np.roll(lat, -1)
        dist = haversine_m(lng[nxt], lat[nxt], lng1[nxt], lat1[nxt])
        out = pd.DataFrame({"user_id": df["user_id"].to_numpy()[nxt],
                            "pm": dist, "pn": 1}) \
            .groupby("user_id", sort=True) \
            .agg(pm=("pm", "sum"), pn=("pn", "sum")).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    out = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
    ).to_pandas().sort_values("user_id").reset_index(drop=True)
    return pd.DataFrame({
        "user_id": out["user_id"].to_numpy(np.int64),
        "n_legs": out["pn"].to_numpy(np.int64),
        "path_km": np.round(out["pm"].to_numpy(np.float64) / 1000.0,
                            2)})


SQL_USER_PATH = """
WITH p AS (SELECT user_id, ts, event_id,
                  ((event_id * 7919) % 1000 + 0.5) / 1000.0 * 360.0
                    - 180.0 AS lng,
                  ((event_id * 104729) % 1000 + 0.5) / 1000.0 * 160.0
                    - 80.0 AS lat
           FROM events),
l AS (SELECT user_id, lng, lat,
             LEAD(lng) OVER w AS lng1, LEAD(lat) OVER w AS lat1
      FROM p WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
d AS (SELECT user_id,
             2 * 6371008.8 * ASIN(SQRT(LEAST(GREATEST(
               POWER(SIN((RADIANS(lat1) - RADIANS(lat)) / 2), 2)
               + COS(RADIANS(lat)) * COS(RADIANS(lat1))
                 * POWER(SIN((RADIANS(lng1) - RADIANS(lng)) / 2), 2),
               0.0), 1.0))) AS m
      FROM l WHERE lng1 IS NOT NULL)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_legs,
       ROUND(SUM(m) / 1000.0, 2) AS path_km
FROM d GROUP BY 1 ORDER BY 1
"""


def q_hopping_window_counts(sf_dir: str):
    """Hopping-window stream aggregation: 1-hour windows advancing
    every 15 minutes — each event lands in exactly 4 overlapping
    windows.  Per-batch vectorized 4× expansion (repeat + offset) into
    (window_slot, count) partials, then one tiny groupby; the shuffled
    payload is windows, never events.  Window identified by its 15-min
    start slot (epoch_us // 9e8) — pure-integer on both sides."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts"])

    def partial(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        slot = us // 900_000_000
        w = np.repeat(slot, 4) - np.tile(
            np.arange(4, dtype=np.int64), len(slot))
        u, c = np.unique(w, return_counts=True)
        return pa.table({"window_slot": pa.array(u),
                         "pn": pa.array(c.astype(np.int64))})

    out = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("window_slot").aggregate(Sum("pn", alias_name="n"))
    ).to_pandas().sort_values("window_slot").reset_index(drop=True)
    return out.astype({"window_slot": np.int64, "n": np.int64})


SQL_HOPPING = """
SELECT (epoch_us(ts) // 900000000) - k.k AS window_slot,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events CROSS JOIN (VALUES (0), (1), (2), (3)) k(k)
GROUP BY 1 ORDER BY 1
"""


def q_mannwhitney_value_by_type(sf_dir: str):
    """Mann-Whitney U between the 'click' and 'purchase' event-value
    distributions — the nonparametric two-sample test, computed EXACTLY
    (tie-corrected) from the value-distribution table: 2·U₁ =
    Σ_v n₁(v)·(2·cum₂<(v) + n₂(v)), all integers, no rank floats.  The
    shuffled payload is bounded by the value DOMAIN, never rows."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        keep = (et == "click") | (et == "purchase")
        v = np.round(t["value"].to_numpy(
            zero_copy_only=False)[keep] * 100.0).astype(np.int64)
        is1 = (et[keep] == "click").astype(np.int64)
        g = pd.DataFrame({"v": v, "p1": is1, "p2": 1 - is1}) \
            .groupby("v", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    vc = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("v").aggregate(Sum("p1", alias_name="n1"),
                                Sum("p2", alias_name="n2"))
    ).to_pandas().sort_values("v").reset_index(drop=True)
    n1v = vc["n1"].to_numpy(np.int64)
    n2v = vc["n2"].to_numpy(np.int64)
    cum2l = np.cumsum(n2v) - n2v
    u1_x2 = int(np.sum(n1v * (2 * cum2l + n2v)))
    return pd.DataFrame([{"n1": int(n1v.sum()), "n2": int(n2v.sum()),
                          "u1_x2": u1_x2}])


SQL_MANNWHITNEY = """
WITH x AS (SELECT CAST(ROUND(value * 100) AS BIGINT) AS v,
                  SUM(CASE WHEN event_type = 'click'
                      THEN 1 ELSE 0 END) AS n1,
                  SUM(CASE WHEN event_type = 'purchase'
                      THEN 1 ELSE 0 END) AS n2
           FROM events WHERE event_type IN ('click', 'purchase')
           GROUP BY 1),
w AS (SELECT n1, n2,
             SUM(n2) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING)
               - n2 AS cum2l
      FROM x)
SELECT CAST(SUM(n1) AS BIGINT) AS n1, CAST(SUM(n2) AS BIGINT) AS n2,
       CAST(SUM(n1 * (2 * cum2l + n2)) AS BIGINT) AS u1_x2
FROM w
"""


def q_welch_ttest_value(sf_dir: str):
    """Welch's unequal-variance t-test between the 'click' and
    'purchase' event-value distributions, with the Welch–Satterthwaite
    degrees of freedom — exact integer power sums per group (Σx² in
    cents rides the (hi, lo) 128-bit split, same as skewness), then one
    float finish whose association mirrors the SQL text."""
    import math

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
    se2 = v1 / n1 + v2 / n2
    t = (m1 - m2) / math.sqrt(se2)
    df = se2 * se2 / ((v1 / n1) * (v1 / n1) / (n1 - 1)
                      + (v2 / n2) * (v2 / n2) / (n2 - 1))
    return pd.DataFrame([{"n1": n1, "n2": n2,
                          "t_stat": round(t, 6),
                          "df_welch": round(df, 6)}]) \
        .astype({"n1": np.int64, "n2": np.int64})


SQL_WELCH = """
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
             a.var / a.n AS q1, b.var / b.n AS q2
      FROM v a, v b WHERE a.grp = 'click' AND b.grp = 'purchase')
SELECT n1, n2,
       ROUND((m1 - m2) / SQRT(q1 + q2), 6) AS t_stat,
       ROUND((q1 + q2) * (q1 + q2)
             / (q1 * q1 / (n1 - 1) + q2 * q2 / (n2 - 1)), 6)
         AS df_welch
FROM j
"""


def q_ks_test_2sample(sf_dir: str):
    """Two-sample Kolmogorov–Smirnov statistic between the 'click' and
    'purchase' value distributions — EXACT via the integer identity
    D·n1·n2 = max_v |cum1(v)·n2 − cum2(v)·n1| over the value-DOMAIN-
    bounded distribution table (same shuffle shape as Mann-Whitney);
    the only float is the final division."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        keep = (et == "click") | (et == "purchase")
        v = np.round(t["value"].to_numpy(
            zero_copy_only=False)[keep] * 100.0).astype(np.int64)
        is1 = (et[keep] == "click").astype(np.int64)
        g = pd.DataFrame({"v": v, "p1": is1, "p2": 1 - is1}) \
            .groupby("v", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    vc = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("v").aggregate(Sum("p1", alias_name="n1"),
                                Sum("p2", alias_name="n2"))
    ).to_pandas().sort_values("v").reset_index(drop=True)
    c1 = np.cumsum(vc["n1"].to_numpy(np.int64)).astype(object)
    c2 = np.cumsum(vc["n2"].to_numpy(np.int64)).astype(object)
    n1, n2 = int(c1[-1]), int(c2[-1])
    d_num = int(np.max(np.abs(c1 * n2 - c2 * n1)))
    return pd.DataFrame([{
        "n1": n1, "n2": n2, "d_num": d_num,
        "d_stat": round(float(d_num) / (float(n1) * float(n2)), 6)}]) \
        .astype({"n1": np.int64, "n2": np.int64, "d_num": np.int64})


SQL_KS_TEST = """
WITH x AS (SELECT CAST(ROUND(value * 100) AS BIGINT) AS v,
                  SUM(CASE WHEN event_type = 'click'
                      THEN 1 ELSE 0 END) AS n1,
                  SUM(CASE WHEN event_type = 'purchase'
                      THEN 1 ELSE 0 END) AS n2
           FROM events WHERE event_type IN ('click', 'purchase')
           GROUP BY 1),
w AS (SELECT CAST(SUM(n1) OVER o AS HUGEINT) AS c1,
             CAST(SUM(n2) OVER o AS HUGEINT) AS c2
      FROM x WINDOW o AS (ORDER BY v ROWS UNBOUNDED PRECEDING)),
tot AS (SELECT CAST(SUM(n1) AS HUGEINT) AS t1,
               CAST(SUM(n2) AS HUGEINT) AS t2 FROM x)
SELECT CAST(t1 AS BIGINT) AS n1, CAST(t2 AS BIGINT) AS n2,
       CAST(MAX(ABS(c1 * t2 - c2 * t1)) AS BIGINT) AS d_num,
       ROUND(CAST(MAX(ABS(c1 * t2 - c2 * t1)) AS DOUBLE)
             / (CAST(t1 AS DOUBLE) * CAST(t2 AS DOUBLE)), 6) AS d_stat
FROM w, tot GROUP BY t1, t2
"""


def q_longest_event_run(sf_dir: str):
    """Per-user longest run of consecutive same-type events in
    (ts, event_id) order — the gaps-and-islands pattern.  One coarse
    user-bucket shuffle, per-bucket vectorized change-flag cumsum →
    bincount run lengths → per-user max; no per-user Python loop."""
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["user_id", "ts", "event_id"])
        u = df["user_id"].to_numpy(np.int64)
        et = df["event_type"].to_numpy()
        change = np.ones(len(df), dtype=bool)
        change[1:] = (u[1:] != u[:-1]) | (et[1:] != et[:-1])
        run_id = np.cumsum(change) - 1
        lengths = np.bincount(run_id)
        run_user = u[change]
        out = pd.DataFrame({"user_id": run_user, "len": lengths}) \
            .groupby("user_id", sort=False)["len"].max().reset_index()
        return out.rename(columns={"len": "max_run"})

    out = relational.bucket_shuffle(ev, "user_id", per_bucket)
    return relational.ds_to_table(out).to_pandas() \
        .sort_values("user_id").reset_index(drop=True) \
        .astype({"user_id": np.int64, "max_run": np.int64})


SQL_LONGEST_RUN = """
WITH o AS (SELECT user_id, event_type,
                  ROW_NUMBER() OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS rn,
                  ROW_NUMBER() OVER (PARTITION BY user_id, event_type
                                     ORDER BY ts, event_id) AS rn2
           FROM events),
runs AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS len
         FROM o GROUP BY user_id, event_type, rn - rn2)
SELECT user_id, MAX(len) AS max_run
FROM runs GROUP BY user_id ORDER BY user_id
"""


def q_user_event_journey(sf_dir: str):
    """Per-user ordered event-type journey string (the collect_list /
    STRING_AGG ORDER BY surface): one coarse user-bucket shuffle, then
    a per-bucket vectorized sort + pandas grouped join — the string
    assembly is necessarily per-user, but the output (and the python
    work) is USER-bounded, never event-bounded."""
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["user_id", "ts", "event_id"])
        out = df.groupby("user_id", sort=False)["event_type"] \
            .agg([(">".join), "size"]).reset_index()
        out.columns = ["user_id", "journey", "n_events"]
        return out

    out = relational.bucket_shuffle(ev, "user_id", per_bucket)
    return relational.ds_to_table(out).to_pandas() \
        .sort_values("user_id").reset_index(drop=True) \
        .astype({"user_id": np.int64, "n_events": np.int64})


SQL_JOURNEY = """
SELECT user_id,
       STRING_AGG(event_type, '>' ORDER BY ts, event_id) AS journey,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM events GROUP BY user_id ORDER BY user_id
"""


def q_json_props_stats(sf_dir: str):
    """Semi-structured extraction: pull the integer ``k`` field out of
    the events ``props`` JSON column with ONE vectorized Arrow regex
    (no per-row json.loads), then exact per-type stats — the
    JSON-column pattern every event pipeline hits.  Rows whose props
    don't carry the key count as nulls."""
    from ray.data.aggregate import Max, Min, Sum
    ev = _read(sf_dir, "events", ["event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        # float-tolerant capture; round half-away like SQL CAST(x AS
        # BIGINT) so "k": 3.5 agrees with the oracle's 4, not a
        # truncated 3
        ex = pc.extract_regex(t["props"],
                              r'"k":\s*(?P<k>-?\d+(?:\.\d+)?)')
        k = pc.struct_field(ex, "k")
        kn = pd.to_numeric(pd.Series(
            k.to_pandas()), errors="coerce")
        rounded = np.sign(kn.to_numpy(np.float64)) * np.floor(
            np.abs(kn.to_numpy(np.float64)) + 0.5)
        kr = pd.Series(rounded)
        df = pd.DataFrame({
            "event_type": t["event_type"].to_numpy(
                zero_copy_only=False),
            "pn": 1,
            "pmiss": kn.isna().to_numpy().astype(np.int64),
            "pk": kr.fillna(0).to_numpy().astype(np.int64)})
        # sentinels survive only while SOME row in the group has k;
        # the all-missing case is repaired to NULL at the finish
        df["pmin"] = kr.fillna(np.iinfo(np.int64).max).to_numpy() \
            .astype(np.int64)
        df["pmax"] = kr.fillna(np.iinfo(np.int64).min).to_numpy() \
            .astype(np.int64)
        g = df.groupby("event_type", sort=False).agg(
            pn=("pn", "sum"), pmiss=("pmiss", "sum"),
            pk=("pk", "sum"), pmin=("pmin", "min"),
            pmax=("pmax", "max")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    o = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type").aggregate(
            Sum("pn", alias_name="n"),
            Sum("pmiss", alias_name="n_missing"),
            Sum("pk", alias_name="sum_k"),
            Min("pmin", alias_name="min_k"),
            Max("pmax", alias_name="max_k"))
    ).to_pandas().sort_values("event_type").reset_index(drop=True)
    o = o.astype({"n": np.int64, "n_missing": np.int64,
                  "sum_k": np.int64})
    # all-missing group: SQL MIN/MAX over NULLs is NULL, not sentinel
    allmiss = o["n_missing"] == o["n"]
    o["min_k"] = o["min_k"].astype(np.float64)
    o["max_k"] = o["max_k"].astype(np.float64)
    o.loc[allmiss, ["min_k", "max_k"]] = np.nan
    return o


SQL_JSON_PROPS = """
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CASE WHEN json_extract(props, '$.k') IS NULL
                THEN 1 ELSE 0 END) AS BIGINT) AS n_missing,
       CAST(SUM(COALESCE(CAST(json_extract(props, '$.k') AS BIGINT),
                         0)) AS BIGINT) AS sum_k,
       MIN(CAST(json_extract(props, '$.k') AS BIGINT)) AS min_k,
       MAX(CAST(json_extract(props, '$.k') AS BIGINT)) AS max_k
FROM events GROUP BY 1 ORDER BY 1
"""


def q_skipgram_event_pairs(sf_dir: str):
    """Sequence mining: skip-gram event-type pairs — (aᵢ, aⱼ) counts
    for 1 ≤ j−i ≤ 3 within a user's (ts, event_id)-ordered stream (the
    co-occurrence-with-order statistic behind sequence embeddings).
    One user-bucket shuffle; per bucket the three gap distances are
    pure vectorized shifts; output is bounded by event-type² × 3."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["user_id", "ts", "event_id"])
        u = df["user_id"].to_numpy(np.int64)
        et = df["event_type"].to_numpy()
        parts = []
        for d in (1, 2, 3):
            same = u[d:] == u[:-d]
            parts.append(pd.DataFrame({
                "a": et[:-d][same], "b": et[d:][same],
                "gap": np.int64(d), "pn": 1}))
        allp = pd.concat(parts)
        return allp.groupby(["a", "b", "gap"], sort=False).sum() \
            .reset_index()

    o = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
        .groupby(["a", "b", "gap"]).aggregate(Sum("pn",
                                                  alias_name="n"))
    ).to_pandas().sort_values(["a", "b", "gap"]).reset_index(drop=True)
    return o.astype({"gap": np.int64, "n": np.int64})


SQL_SKIPGRAM = """
WITH o AS (SELECT user_id, event_type,
                  ROW_NUMBER() OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS rn
           FROM events)
SELECT x.event_type AS a, y.event_type AS b,
       CAST(y.rn - x.rn AS BIGINT) AS gap,
       CAST(COUNT(*) AS BIGINT) AS n
FROM o x JOIN o y ON x.user_id = y.user_id
     AND y.rn - x.rn BETWEEN 1 AND 3
GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
"""


def q_funnel_conversion_1h(sf_dir: str):
    """Time-constrained funnel: of users whose stream contains a
    'click', how many 'purchase' within ONE HOUR of their FIRST click
    — the windowed-conversion metric attribution systems report.  One
    user-bucket shuffle; per bucket the first-click and the
    first-qualifying-purchase come from vectorized groupby mins; the
    output is a single exact-int row."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts", "user_id", "event_type"])

    def prep(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        keep = (et == "click") | (et == "purchase")
        return batch.filter(pa.array(keep))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        us = g["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        df = pd.DataFrame({"u": g["user_id"].to_numpy(np.int64),
                           "et": g["event_type"].to_numpy(),
                           "ts": us})
        clicks = df[df["et"] == "click"].groupby("u")["ts"].min()
        if clicks.empty:
            return pd.DataFrame({"pclk": [0], "pconv": [0]})
        pur = df[df["et"] == "purchase"]
        m = pur.merge(clicks.rename("c0"), left_on="u",
                      right_index=True)
        hit = m[(m["ts"] >= m["c0"])
                & (m["ts"] <= m["c0"] + 3_600_000_000)]
        return pd.DataFrame({
            "pclk": [int(len(clicks))],
            "pconv": [int(hit["u"].nunique())]})

    agg = relational.bucket_shuffle(ev, "user_id", per_bucket, prepare=prep) \
        .aggregate(Sum("pclk", alias_name="n_clickers"),
                   Sum("pconv", alias_name="n_converted"))
    n_clk = int(agg["n_clickers"])
    n_conv = int(agg["n_converted"])
    return pd.DataFrame([{
        "n_clickers": n_clk, "n_converted": n_conv,
        "conv_rate": round(float(n_conv) / float(n_clk), 6)}]) \
        .astype({"n_clickers": np.int64, "n_converted": np.int64})


SQL_FUNNEL_1H = """
WITH c AS (SELECT user_id, MIN(ts) AS c0 FROM events
           WHERE event_type = 'click' GROUP BY 1),
conv AS (SELECT DISTINCT c.user_id
         FROM c JOIN events e ON e.user_id = c.user_id
         WHERE e.event_type = 'purchase'
           AND e.ts >= c.c0
           AND e.ts <= c.c0 + INTERVAL 1 HOUR)
SELECT CAST((SELECT COUNT(*) FROM c) AS BIGINT) AS n_clickers,
       CAST((SELECT COUNT(*) FROM conv) AS BIGINT) AS n_converted,
       ROUND(CAST((SELECT COUNT(*) FROM conv) AS DOUBLE)
             / CAST((SELECT COUNT(*) FROM c) AS DOUBLE), 6)
         AS conv_rate
"""


def q_two_proportion_ztest(sf_dir: str):
    """A/B two-proportion z-test: users split into deterministic arms
    by user_id parity; 'conversion' = the user logged MORE purchase
    than error events (a per-user comparison that never saturates —
    every synthetic user has ≥1 purchase, so presence-based conversion
    would give zero pooled variance).
    Pooled-variance z = (p1−p2)/√(p̂(1−p̂)(1/n1+1/n2)) — user-level
    tallies are exact ints from one user-bucket pass, the z float
    mirrors the SQL text.  Completes the testing family (Welch on
    means, KS / Mann-Whitney on distributions, χ² on categories,
    this on proportions)."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        et = g["event_type"].to_numpy()
        df = pd.DataFrame({
            "u": g["user_id"].to_numpy(np.int64),
            "p": (et == "purchase").astype(np.int64),
            "e": (et == "error").astype(np.int64)})
        users = df.groupby("u")[["p", "e"]].sum().reset_index()
        arm = users["u"].to_numpy(np.int64) % 2
        conv = (users["p"].to_numpy(np.int64)
                > users["e"].to_numpy(np.int64)).astype(np.int64)
        return pd.DataFrame({
            "pn1": [int((arm == 0).sum())],
            "px1": [int(conv[arm == 0].sum())],
            "pn2": [int((arm == 1).sum())],
            "px2": [int(conv[arm == 1].sum())]})

    agg = relational.bucket_shuffle(ev, "user_id", per_bucket) \
        .aggregate(Sum("pn1", alias_name="n1"),
                   Sum("px1", alias_name="x1"),
                   Sum("pn2", alias_name="n2"),
                   Sum("px2", alias_name="x2"))
    import math
    n1, x1 = int(agg["n1"]), int(agg["x1"])
    n2, x2 = int(agg["n2"]), int(agg["x2"])
    p1 = x1 / n1
    p2 = x2 / n2
    pp = (x1 + x2) / (n1 + n2)
    z = (p1 - p2) / math.sqrt(pp * (1.0 - pp)
                              * (1.0 / n1 + 1.0 / n2))
    return pd.DataFrame([{
        "n1": n1, "x1": x1, "n2": n2, "x2": x2,
        "z_stat": round(z, 6)}]) \
        .astype({"n1": np.int64, "x1": np.int64,
                 "n2": np.int64, "x2": np.int64})


SQL_TWO_PROP_Z = """
WITH u AS (SELECT user_id % 2 AS arm,
                  CASE WHEN SUM(CASE WHEN event_type = 'purchase'
                                THEN 1 ELSE 0 END)
                          > SUM(CASE WHEN event_type = 'error'
                                THEN 1 ELSE 0 END)
                       THEN 1 ELSE 0 END AS conv
           FROM events GROUP BY user_id),
s AS (SELECT CAST(SUM(CASE WHEN arm = 0 THEN 1 ELSE 0 END) AS BIGINT)
               AS n1,
             CAST(SUM(CASE WHEN arm = 0 THEN conv ELSE 0 END)
                  AS BIGINT) AS x1,
             CAST(SUM(CASE WHEN arm = 1 THEN 1 ELSE 0 END) AS BIGINT)
               AS n2,
             CAST(SUM(CASE WHEN arm = 1 THEN conv ELSE 0 END)
                  AS BIGINT) AS x2
      FROM u),
f AS (SELECT n1, x1, n2, x2,
             CAST(x1 AS DOUBLE) / n1 AS p1,
             CAST(x2 AS DOUBLE) / n2 AS p2,
             CAST(x1 + x2 AS DOUBLE) / (n1 + n2) AS pp
      FROM s)
SELECT n1, x1, n2, x2,
       ROUND((p1 - p2) / SQRT(pp * (1.0 - pp)
                              * (1.0 / n1 + 1.0 / n2)), 6) AS z_stat
FROM f
"""


def q_bearing_sector_histogram(sf_dir: str):
    """Compass-sector histogram of trajectory leg bearings: initial
    great-circle bearing θ = atan2(sin Δλ·cos φ₂, cos φ₁·sin φ₂ −
    sin φ₁·cos φ₂·cos Δλ) per leg (same synthetic lon/lat convention
    and LEAD window as `user_path_length`), normalized with the
    sign-of-dividend fmod chain ((θ%360)+360)%360 — numpy ``fmod``
    matches SQL's ``%`` exactly, ``np.mod`` does NOT — then
    floor(/45) sectors 0–7.  Identical doubles both sides ⇒ identical
    sector assignment; counts exact."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["user_id", "ts", "event_id"])
        e = df["event_id"].to_numpy(np.int64)
        lng = ((e * 7919) % 1000 + 0.5) / 1000.0 * 360.0 - 180.0
        lat = ((e * 104729) % 1000 + 0.5) / 1000.0 * 160.0 - 80.0
        g = df.groupby("user_id", sort=False)
        nxt = g.cumcount(ascending=False).to_numpy() > 0
        p1 = np.radians(lat[nxt])
        p2 = np.radians(np.roll(lat, -1)[nxt])
        dl = np.radians(np.roll(lng, -1)[nxt]) - np.radians(lng[nxt])
        theta = np.degrees(np.arctan2(
            np.sin(dl) * np.cos(p2),
            np.cos(p1) * np.sin(p2)
            - np.sin(p1) * np.cos(p2) * np.cos(dl)))
        norm = np.fmod(np.fmod(theta, 360.0) + 360.0, 360.0)
        sector = np.floor(norm / 45.0).astype(np.int64)
        u, c = np.unique(sector, return_counts=True)
        return pa.table({"sector": pa.array(u),
                         "pn": pa.array(c.astype(np.int64))})

    o = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
        .groupby("sector").aggregate(Sum("pn", alias_name="n_legs"))
    ).to_pandas().sort_values("sector").reset_index(drop=True)
    return o.astype({"sector": np.int64, "n_legs": np.int64})


SQL_BEARING_SECTORS = """
WITH p AS (SELECT user_id, ts, event_id,
                  ((event_id * 7919) % 1000 + 0.5) / 1000.0 * 360.0
                    - 180.0 AS lng,
                  ((event_id * 104729) % 1000 + 0.5) / 1000.0 * 160.0
                    - 80.0 AS lat
           FROM events),
l AS (SELECT user_id, lng, lat,
             LEAD(lng) OVER w AS lng1, LEAD(lat) OVER w AS lat1
      FROM p WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
b AS (SELECT DEGREES(ATAN2(
               SIN(RADIANS(lng1) - RADIANS(lng)) * COS(RADIANS(lat1)),
               COS(RADIANS(lat)) * SIN(RADIANS(lat1))
                 - SIN(RADIANS(lat)) * COS(RADIANS(lat1))
                   * COS(RADIANS(lng1) - RADIANS(lng)))) AS theta
      FROM l WHERE lng1 IS NOT NULL)
SELECT CAST(FLOOR((((theta % 360.0) + 360.0) % 360.0) / 45.0)
            AS BIGINT) AS sector,
       CAST(COUNT(*) AS BIGINT) AS n_legs
FROM b GROUP BY 1 ORDER BY 1
"""


def q_cumulative_unique_users(sf_dir: str):
    """User-growth curve: cumulative distinct users by day — each
    user counts once, at their FIRST event day.  One user-bucket pass
    takes per-user min day, a days-bounded histogram + prefix sum
    finishes; the classic DAU-accumulation metric without any
    per-day COUNT(DISTINCT) rescan."""
    from ray.data.aggregate import Min, Sum
    ev = _read(sf_dir, "events", ["ts", "user_id"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        g = pd.DataFrame({"user_id": t["user_id"].to_numpy(
            zero_copy_only=False).astype(np.int64), "pd_": day}) \
            .groupby("user_id", sort=False).min().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    first = ev.map_batches(partial, batch_format="pyarrow") \
        .groupby("user_id").aggregate(Min("pd_", alias_name="d0"))

    def hist(t: pa.Table) -> pa.Table:
        d = t["d0"].to_numpy(zero_copy_only=False).astype(np.int64)
        u, c = np.unique(d, return_counts=True)
        return pa.table({"day": pa.array(u),
                         "pn": pa.array(c.astype(np.int64))})

    o = relational.ds_to_table(
        first.map_batches(hist, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("pn", alias_name="new_users"))
    ).to_pandas().sort_values("day").reset_index(drop=True)
    o["cum_users"] = np.cumsum(o["new_users"].to_numpy(np.int64))
    return o.astype({"day": np.int64, "new_users": np.int64,
                     "cum_users": np.int64})


SQL_CUM_UNIQUE_USERS = """
WITH f AS (SELECT user_id,
                  MIN(epoch_us(ts) // 86400000000) AS day
           FROM events GROUP BY 1),
g AS (SELECT day, CAST(COUNT(*) AS BIGINT) AS new_users
      FROM f GROUP BY 1)
SELECT day, new_users,
       CAST(SUM(new_users) OVER (ORDER BY day
            ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_users
FROM g ORDER BY day
"""


def q_staypoints_daily_cells(sf_dir: str):
    """Trajectory staypoint detection on the daily-cell model (a user
    occupies cell (31·user + epoch-day) % 25 — position changes by
    day): per user, runs of consecutive same-cell events in (ts,
    event_id) order are dwell segments; a staypoint is a run of ≥ 3
    events.  Same gaps-and-islands kernel as the event-run op — one
    coarse user-bucket shuffle, vectorized change-flag cumsum, zero
    per-user Python — applied to the geo-cell column instead of the
    event type."""
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def prep(batch: pa.Table) -> pa.Table:
        day = batch["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        u = batch["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cell = (31 * u + day) % 25
        return pa.table({"user_id": batch["user_id"],
                         "ts": batch["ts"],
                         "event_id": batch["event_id"],
                         "cell": pa.array(cell)})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["user_id", "ts", "event_id"])
        u = df["user_id"].to_numpy(np.int64)
        c = df["cell"].to_numpy(np.int64)
        change = np.ones(len(df), dtype=bool)
        change[1:] = (u[1:] != u[:-1]) | (c[1:] != c[:-1])
        run_id = np.cumsum(change) - 1
        lengths = np.bincount(run_id)
        runs = pd.DataFrame({"user_id": u[change], "len": lengths})
        stay = runs[runs["len"] >= 3]
        if stay.empty:
            return pd.DataFrame({"user_id": pd.Series([],
                                                      dtype=np.int64),
                                 "n_staypoints": pd.Series(
                                     [], dtype=np.int64),
                                 "longest_dwell": pd.Series(
                                     [], dtype=np.int64)})
        out = stay.groupby("user_id", sort=False)["len"] \
            .agg(n_staypoints="count", longest_dwell="max") \
            .reset_index()
        return out

    out = relational.bucket_shuffle(ev, "user_id", per_bucket, prepare=prep)
    return relational.ds_to_table(out).to_pandas() \
        .sort_values("user_id").reset_index(drop=True) \
        .astype({"user_id": np.int64, "n_staypoints": np.int64,
                 "longest_dwell": np.int64})


SQL_STAYPOINTS = """
WITH e AS (SELECT user_id, ts, event_id,
                  (31 * user_id
                   + epoch_us(ts) // 86400000000) % 25 AS cell
           FROM events),
o AS (SELECT user_id, cell,
             ROW_NUMBER() OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS rn,
             ROW_NUMBER() OVER (PARTITION BY user_id, cell
                                ORDER BY ts, event_id) AS rn2
      FROM e),
runs AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS len
         FROM o GROUP BY user_id, cell, rn - rn2)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_staypoints,
       MAX(len) AS longest_dwell
FROM runs WHERE len >= 3
GROUP BY user_id ORDER BY user_id
"""


def q_funnel_3step_strict(sf_dir: str):
    """Strictly-ordered 3-step funnel (click → view → purchase): a user
    converts at step k when an event of type k exists STRICTLY after
    their earliest completion of step k−1 — the sequential-pattern
    semantics a 2-step funnel can't express (a view before the first
    click must not count).  One user-bucket shuffle; inside each bucket
    the three anchor times come from vectorized per-user min/merge
    passes, and only three partial counters leave the bucket."""
    ev = _read(sf_dir, "events", ["ts", "user_id", "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        t1 = g[g["event_type"] == "click"] \
            .groupby("user_id")["ts"].min()
        v = g[g["event_type"] == "view"][["user_id", "ts"]] \
            .merge(t1.rename("t1"), on="user_id")
        t2 = v[v["ts"] > v["t1"]].groupby("user_id")["ts"].min()
        p = g[g["event_type"] == "purchase"][["user_id", "ts"]] \
            .merge(t2.rename("t2"), on="user_id")
        t3 = p[p["ts"] > p["t2"]].groupby("user_id")["ts"].min()
        return pd.DataFrame([{"pc": len(t1), "pv": len(t2),
                              "pp": len(t3)}])

    from ray.data.aggregate import Sum
    agg = relational.bucket_shuffle(ev, "user_id", per_bucket) \
        .aggregate(Sum("pc", alias_name="n_click"),
                   Sum("pv", alias_name="n_click_view"),
                   Sum("pp", alias_name="n_full"))
    return pd.DataFrame([{"n_click": int(agg["n_click"]),
                          "n_click_view": int(agg["n_click_view"]),
                          "n_full": int(agg["n_full"])}]) \
        .astype(np.int64)


SQL_FUNNEL_3STEP = """
WITH c AS (SELECT user_id, MIN(ts) AS t1 FROM events
           WHERE event_type = 'click' GROUP BY 1),
v AS (SELECT e.user_id, MIN(e.ts) AS t2
      FROM events e JOIN c USING (user_id)
      WHERE e.event_type = 'view' AND e.ts > c.t1 GROUP BY 1),
p AS (SELECT e.user_id, MIN(e.ts) AS t3
      FROM events e JOIN v USING (user_id)
      WHERE e.event_type = 'purchase' AND e.ts > v.t2 GROUP BY 1)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM c) AS n_click,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM v) AS n_click_view,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM p) AS n_full
"""


def q_cuped_adjusted_ab(sf_dir: str):
    """CUPED variance-reduced A/B read-out (the experimentation-
    platform standard): per-user PRE-period event value is the
    covariate for the POST-period metric, θ = cov(x,y)/var(x) pooled,
    and the arm contrast is adjusted by −θ·(x̄₁−x̄₀).  One user-bucket
    shuffle builds (xᵢ, yᵢ) per user; cov/var come from exact int64
    cents power sums; the single float finish mirrors the twin's CAST
    order.  Arms are the deterministic user-id parity, the time split
    is the epoch-day midpoint — both mirrored verbatim."""
    from ray.data.aggregate import Max, Min, Sum

    ev = _read(sf_dir, "events", ["ts", "user_id", "value"])
    lohi = ev.aggregate(Min("ts", alias_name="lo"),
                        Max("ts", alias_name="hi"))
    lo_d = int(pd.Timestamp(lohi["lo"]).value // 1000
               // 86_400_000_000)
    hi_d = int(pd.Timestamp(lohi["hi"]).value // 1000
               // 86_400_000_000)
    mid = (lo_d + hi_d) // 2

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        day = g["ts"].to_numpy("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        cents = np.round(g["value"].to_numpy(np.float64)
                         * 100.0).astype(np.int64)
        u = g["user_id"].to_numpy(np.int64)
        df = pd.DataFrame({"u": u, "x": np.where(day <= mid, cents, 0),
                           "y": np.where(day > mid, cents, 0)})
        per_u = df.groupby("u", sort=False).sum().reset_index()
        x = per_u["x"].to_numpy(np.int64)
        y = per_u["y"].to_numpy(np.int64)
        arm = (per_u["u"].to_numpy(np.int64) % 2)
        out = {"n": len(per_u), "sx": int(x.sum()),
               "sy": int(y.sum()), "sxx": int((x * x).sum()),
               "sxy": int((x * y).sum())}
        for a in (0, 1):
            m = arm == a
            out[f"n{a}"] = int(m.sum())
            out[f"sx{a}"] = int(x[m].sum())
            out[f"sy{a}"] = int(y[m].sum())
        return pd.DataFrame([out])

    cols = ["n", "sx", "sy", "sxx", "sxy",
            "n0", "sx0", "sy0", "n1", "sx1", "sy1"]
    agg = relational.bucket_shuffle(ev, "user_id", per_bucket) \
        .aggregate(*[Sum(c, alias_name=c) for c in cols])
    s = {c: int(agg[c]) for c in cols}
    theta = float(s["n"] * s["sxy"] - s["sx"] * s["sy"]) \
        / float(s["n"] * s["sxx"] - s["sx"] * s["sx"])
    raw = float(s["sy1"]) / s["n1"] - float(s["sy0"]) / s["n0"]
    adj = raw - theta * (float(s["sx1"]) / s["n1"]
                         - float(s["sx0"]) / s["n0"])
    return pd.DataFrame([{
        "n_users": s["n"], "theta": np.round(theta, 6),
        "raw_diff": np.round(raw, 4),
        "cuped_diff": np.round(adj, 4)}]).astype({"n_users": np.int64})


SQL_CUPED = """
WITH b AS (SELECT (MIN(epoch_us(ts) // 86400000000)
                   + MAX(epoch_us(ts) // 86400000000)) // 2 AS mid
           FROM events),
pu AS (SELECT user_id,
              SUM(CASE WHEN epoch_us(ts) // 86400000000 <= b.mid
                       THEN CAST(ROUND(value * 100) AS BIGINT)
                       ELSE 0 END) AS x,
              SUM(CASE WHEN epoch_us(ts) // 86400000000 > b.mid
                       THEN CAST(ROUND(value * 100) AS BIGINT)
                       ELSE 0 END) AS y
       FROM events, b GROUP BY user_id),
s AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(CAST(x AS HUGEINT)) AS sx,
             SUM(CAST(y AS HUGEINT)) AS sy,
             SUM(CAST(x AS HUGEINT) * CAST(x AS HUGEINT)) AS sxx,
             SUM(CAST(x AS HUGEINT) * CAST(y AS HUGEINT)) AS sxy,
             SUM(CASE WHEN user_id % 2 = 0 THEN 1 ELSE 0 END) AS n0,
             SUM(CASE WHEN user_id % 2 = 0 THEN x ELSE 0 END) AS sx0,
             SUM(CASE WHEN user_id % 2 = 0 THEN y ELSE 0 END) AS sy0,
             SUM(CASE WHEN user_id % 2 = 1 THEN 1 ELSE 0 END) AS n1,
             SUM(CASE WHEN user_id % 2 = 1 THEN x ELSE 0 END) AS sx1,
             SUM(CASE WHEN user_id % 2 = 1 THEN y ELSE 0 END) AS sy1
      FROM pu)
SELECT CAST(n AS BIGINT) AS n_users,
       ROUND(CAST(n * sxy - sx * sy AS DOUBLE)
             / CAST(n * sxx - sx * sx AS DOUBLE), 6) AS theta,
       ROUND(CAST(sy1 AS DOUBLE) / n1 - CAST(sy0 AS DOUBLE) / n0, 4)
         AS raw_diff,
       ROUND(CAST(sy1 AS DOUBLE) / n1 - CAST(sy0 AS DOUBLE) / n0
             - (CAST(n * sxy - sx * sy AS DOUBLE)
                / CAST(n * sxx - sx * sx AS DOUBLE))
               * (CAST(sx1 AS DOUBLE) / n1
                  - CAST(sx0 AS DOUBLE) / n0), 4) AS cuped_diff
FROM s
"""


def q_next_event_prediction_acc(sf_dir: str):
    """Sequence-model baseline evaluation: a first-order Markov
    next-event predictor is FIT on the early half of every user's
    stream (argmax next-type per current type, ties alphabetical) and
    SCORED on the late half — train/test split at the global time
    midpoint, the leakage-free protocol.  Transitions reduce to a
    types²-bounded matrix per split; scoring is one vectorized map
    over test transitions.  Output: per current-type test accuracy."""
    from ray.data.aggregate import Max, Min, Sum

    ev = _read(sf_dir, "events", ["ts", "event_id", "user_id",
                                  "event_type"])
    lohi = ev.aggregate(Min("ts", alias_name="lo"),
                        Max("ts", alias_name="hi"))
    mid_us = (int(pd.Timestamp(lohi["lo"]).value // 1000)
              + int(pd.Timestamp(lohi["hi"]).value // 1000)) // 2

    def transitions(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["user_id", "ts", "event_id"])
        u = df["user_id"].to_numpy(np.int64)
        et = df["event_type"].to_numpy()
        ts = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        same = u[1:] == u[:-1]
        # a transition belongs to the split of its SOURCE event
        src, dst = et[:-1][same], et[1:][same]
        half = (ts[:-1][same] > mid_us).astype(np.int64)
        out = pd.DataFrame({"half": half, "src": src, "dst": dst,
                            "pn": 1}) \
            .groupby(["half", "src", "dst"], sort=False).sum() \
            .reset_index()
        return out

    tm = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", transitions)
        .groupby(["half", "src", "dst"])
        .aggregate(Sum("pn", alias_name="n"))
    ).to_pandas()
    train = tm[tm["half"] == 0]
    pred = train.sort_values(["src", "n", "dst"],
                             ascending=[True, False, True]) \
        .groupby("src").head(1).set_index("src")["dst"]
    # like the twin's JOIN pred USING (src): a test src with no
    # trained prediction contributes nothing
    test = tm[(tm["half"] == 1) & tm["src"].isin(pred.index)].copy()
    test["hit"] = (test["dst"]
                   == test["src"].map(pred)).astype(np.int64) \
        * test["n"].astype(np.int64)
    out = test.groupby("src").agg(
        n_test=("n", "sum"), n_hit=("hit", "sum")).reset_index()
    out["accuracy"] = np.round(
        out["n_hit"].to_numpy(np.float64)
        / out["n_test"].to_numpy(np.float64), 4)
    return out.rename(columns={"src": "event_type"}) \
        .sort_values("event_type").reset_index(drop=True) \
        .astype({"n_test": np.int64, "n_hit": np.int64})


SQL_NEXT_EVENT = """
WITH b AS (SELECT (MIN(epoch_us(ts)) + MAX(epoch_us(ts))) // 2 AS mid
           FROM events),
t AS (SELECT event_type AS src,
             LEAD(event_type) OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id) AS dst,
             CASE WHEN epoch_us(ts) > b.mid THEN 1 ELSE 0 END AS half
      FROM events, b),
tm AS (SELECT half, src, dst, COUNT(*) AS n
       FROM t WHERE dst IS NOT NULL GROUP BY 1, 2, 3),
pred AS (SELECT src, dst FROM (
           SELECT src, dst,
                  ROW_NUMBER() OVER (PARTITION BY src
                                     ORDER BY n DESC, dst) AS r
           FROM tm WHERE half = 0) WHERE r = 1),
test AS (SELECT tm.src, SUM(tm.n) AS n_test,
                SUM(CASE WHEN tm.dst = pred.dst THEN tm.n
                         ELSE 0 END) AS n_hit
         FROM tm JOIN pred USING (src)
         WHERE tm.half = 1 GROUP BY tm.src)
SELECT src AS event_type, CAST(n_test AS BIGINT) AS n_test,
       CAST(n_hit AS BIGINT) AS n_hit,
       ROUND(CAST(n_hit AS DOUBLE) / CAST(n_test AS DOUBLE), 4)
         AS accuracy
FROM test ORDER BY event_type
"""


def q_type_daily_corr(sf_dir: str):
    """Cross-series Pearson correlation matrix of the DAILY event
    counts, one row per unordered type pair — the co-movement
    diagnostic next to the single-series ACF.  Per-(day, type) counts
    reduce distributedly; the calendar gap-fill (a day with no events
    of a type counts 0 for it) and the 10-pair power-sum finish are
    days-bounded.  Integer sums, one mirrored float expression per
    pair."""
    import math
    from ray.data.aggregate import Sum

    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        g = pd.DataFrame({"day": day,
                          "et": t["event_type"].to_numpy(
                              zero_copy_only=False), "pn": 1}) \
            .groupby(["day", "et"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cnt = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["day", "et"]).aggregate(Sum("pn", alias_name="n"))
    ).to_pandas()
    lo, hi = int(cnt["day"].min()), int(cnt["day"].max())
    n_days = hi - lo + 1
    types = sorted(cnt["et"].unique())
    series = {}
    for t_ in types:
        s = np.zeros(n_days, dtype=np.int64)
        g = cnt[cnt["et"] == t_]
        s[g["day"].to_numpy(np.int64) - lo] = g["n"].to_numpy(np.int64)
        series[t_] = s
    rows = []
    for i, a in enumerate(types):
        for b in types[i + 1:]:
            xa, xb = series[a], series[b]
            sx, sy = int(xa.sum()), int(xb.sum())
            sxx = int((xa * xa).sum())
            syy = int((xb * xb).sum())
            sxy = int((xa * xb).sum())
            num = float(n_days * sxy - sx * sy)
            den = math.sqrt(float(n_days * sxx - sx * sx)) \
                * math.sqrt(float(n_days * syy - sy * sy))
            rows.append({"type_a": a, "type_b": b,
                         "r": np.round(num / den, 6)})
    return pd.DataFrame(rows)


SQL_TYPE_CORR = """
WITH e AS (SELECT epoch_us(ts) // 86400000000 AS day, event_type
           FROM events),
b AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM e),
cal AS (SELECT unnest(generate_series(b.lo, b.hi)) AS day FROM b),
ty AS (SELECT DISTINCT event_type AS et FROM e),
cnt AS (SELECT day, et,
               (SELECT COUNT(*) FROM e
                WHERE e.day = cal.day AND e.event_type = ty.et) AS n
        FROM cal, ty),
nd AS (SELECT COUNT(*) AS n_days FROM cal),
p AS (SELECT a.et AS type_a, c.et AS type_b,
             SUM(a.n) AS sx, SUM(c.n) AS sy,
             SUM(a.n * a.n) AS sxx, SUM(c.n * c.n) AS syy,
             SUM(a.n * c.n) AS sxy
      FROM cnt a JOIN cnt c ON a.day = c.day AND a.et < c.et
      GROUP BY 1, 2)
SELECT type_a, type_b,
       ROUND(CAST(nd.n_days * sxy - sx * sy AS DOUBLE)
             / (sqrt(CAST(nd.n_days * sxx - sx * sx AS DOUBLE))
                * sqrt(CAST(nd.n_days * syy - sy * sy AS DOUBLE))),
             6) AS r
FROM p, nd ORDER BY type_a, type_b
"""


def q_dau_overlap_jaccard(sf_dir: str):
    """Day-over-day active-user stickiness: |DAU_d ∩ DAU_{d+1}| and
    its Jaccard, per consecutive day pair — the retention pulse chart.
    No set is ever materialized: one user-bucket shuffle sorts each
    user's distinct active days, consecutive-day presence emits
    (day, 1) partials vectorized (diff == 1), and per-day DAU sizes
    come from the same distinct pass; the Jaccard finish is
    days-bounded."""
    from ray.data.aggregate import Sum

    ev = _read(sf_dir, "events", ["ts", "user_id"])

    def prep(batch: pa.Table) -> pa.Table:
        day = batch["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        return pa.table({"user_id": batch["user_id"],
                         "day": pa.array(day)})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        du = g[["user_id", "day"]].drop_duplicates()
        du = du.sort_values(["user_id", "day"])
        u = du["user_id"].to_numpy(np.int64)
        d = du["day"].to_numpy(np.int64)
        consec = (u[1:] == u[:-1]) & (d[1:] == d[:-1] + 1)
        out = pd.concat([
            pd.DataFrame({"day": d, "pn": 1, "pi": 0}),
            pd.DataFrame({"day": d[:-1][consec], "pn": 0, "pi": 1})])
        return out.groupby("day", sort=False).sum().reset_index()

    agg = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket, prepare=prep)
        .groupby("day").aggregate(Sum("pn", alias_name="dau"),
                                  Sum("pi", alias_name="inter"))
    ).to_pandas().sort_values("day").reset_index(drop=True)
    day = agg["day"].to_numpy(np.int64)
    dau = agg["dau"].to_numpy(np.int64)
    inter = agg["inter"].to_numpy(np.int64)
    nxt = dict(zip(day, dau))
    rows = []
    for i in range(len(day)):
        nb = nxt.get(int(day[i]) + 1)
        if nb is None:
            continue
        it = int(inter[i])
        rows.append({
            "day": int(day[i]), "dau_a": int(dau[i]), "dau_b": nb,
            "n_inter": it,
            "jaccard": np.round(
                float(it) / float(int(dau[i]) + nb - it), 6)})
    return pd.DataFrame(rows).astype({
        "day": np.int64, "dau_a": np.int64, "dau_b": np.int64,
        "n_inter": np.int64})


SQL_DAU_OVERLAP = """
WITH a AS (SELECT DISTINCT epoch_us(ts) // 86400000000 AS day,
                           user_id
           FROM events),
s AS (SELECT day, CAST(COUNT(*) AS BIGINT) AS dau
      FROM a GROUP BY 1),
i AS (SELECT x.day, CAST(COUNT(*) AS BIGINT) AS n_inter
      FROM a x JOIN a y ON x.user_id = y.user_id
                       AND y.day = x.day + 1
      GROUP BY 1)
SELECT s1.day, s1.dau AS dau_a, s2.dau AS dau_b,
       COALESCE(i.n_inter, 0) AS n_inter,
       ROUND(CAST(COALESCE(i.n_inter, 0) AS DOUBLE)
             / CAST(s1.dau + s2.dau - COALESCE(i.n_inter, 0)
                    AS DOUBLE), 6) AS jaccard
FROM s s1 JOIN s s2 ON s2.day = s1.day + 1
LEFT JOIN i ON i.day = s1.day
ORDER BY s1.day
"""


def q_attribution_rules_compare(sf_dir: str):
    """Multi-rule marketing attribution in ONE pass: for every user
    with a purchase, the touches strictly before their FIRST purchase
    (composite (ts, event_id) order) earn credit under first-touch,
    last-touch and linear rules side by side — the comparison table an
    attribution migration needs.  Linear credit is integer
    MICRO-credits (round(1e6·cnt/k)) so cross-user sums stay exact
    under any partitioning; one user-bucket shuffle, types-bounded
    output."""
    from ray.data.aggregate import Sum

    ev = _read(sf_dir, "events", ["ts", "event_id", "user_id",
                                  "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["user_id", "ts", "event_id"])
        pur = df[df["event_type"] == "purchase"] \
            .groupby("user_id").head(1) \
            .set_index("user_id")[["ts", "event_id"]]
        df = df.join(pur, on="user_id", rsuffix="_p")
        m = df["ts_p"].notna() \
            & ((df["ts"] < df["ts_p"])
               | ((df["ts"] == df["ts_p"])
                  & (df["event_id"] < df["event_id_p"])))
        t = df[m]
        if t.empty:
            return pd.DataFrame({
                "event_type": pd.Series([], dtype=str),
                "pf": pd.Series([], dtype=np.int64),
                "pl": pd.Series([], dtype=np.int64),
                "pm": pd.Series([], dtype=np.int64)})
        first = t.groupby("user_id").head(1)
        last = t.groupby("user_id").tail(1)
        k = t.groupby("user_id").size().rename("k")
        per_ut = t.groupby(["user_id", "event_type"]).size() \
            .rename("cnt").reset_index().join(k, on="user_id")
        per_ut["pm"] = np.round(
            1_000_000.0 * per_ut["cnt"].to_numpy(np.float64)
            / per_ut["k"].to_numpy(np.float64)).astype(np.int64)
        out = pd.DataFrame({
            "event_type": pd.concat([first["event_type"],
                                     last["event_type"],
                                     per_ut["event_type"]]),
            "pf": np.concatenate([np.ones(len(first), np.int64),
                                  np.zeros(len(last), np.int64),
                                  np.zeros(len(per_ut), np.int64)]),
            "pl": np.concatenate([np.zeros(len(first), np.int64),
                                  np.ones(len(last), np.int64),
                                  np.zeros(len(per_ut), np.int64)]),
            "pm": np.concatenate([np.zeros(len(first), np.int64),
                                  np.zeros(len(last), np.int64),
                                  per_ut["pm"].to_numpy(np.int64)])})
        return out.groupby("event_type", sort=False).sum() \
            .reset_index()

    agg = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
        .groupby("event_type").aggregate(
            Sum("pf", alias_name="first_touch"),
            Sum("pl", alias_name="last_touch"),
            Sum("pm", alias_name="linear_micro"))
    ).to_pandas().sort_values("event_type").reset_index(drop=True)
    return agg.astype({"first_touch": np.int64,
                       "last_touch": np.int64,
                       "linear_micro": np.int64})


SQL_ATTRIBUTION = """
WITH pp AS (SELECT user_id, ts AS tp, event_id AS ip FROM (
         SELECT user_id, ts, event_id,
                ROW_NUMBER() OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id) AS r
         FROM events WHERE event_type = 'purchase') WHERE r = 1),
t AS (SELECT e.user_id, e.event_type, e.ts, e.event_id
      FROM events e JOIN pp ON pp.user_id = e.user_id
      WHERE e.ts < pp.tp
         OR (e.ts = pp.tp AND e.event_id < pp.ip)),
r AS (SELECT user_id, event_type,
             ROW_NUMBER() OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS rf,
             ROW_NUMBER() OVER (PARTITION BY user_id
                                ORDER BY ts DESC, event_id DESC)
               AS rl,
             COUNT(*) OVER (PARTITION BY user_id) AS k
      FROM t),
lin AS (SELECT user_id, event_type, COUNT(*) AS cnt, MAX(k) AS k
        FROM r GROUP BY 1, 2)
SELECT event_type,
       CAST((SELECT COUNT(*) FROM r x
             WHERE x.event_type = lin.event_type AND x.rf = 1)
            AS BIGINT) AS first_touch,
       CAST((SELECT COUNT(*) FROM r x
             WHERE x.event_type = lin.event_type AND x.rl = 1)
            AS BIGINT) AS last_touch,
       CAST(SUM(CAST(ROUND(1000000.0 * cnt / k) AS BIGINT))
            AS BIGINT) AS linear_micro
FROM lin GROUP BY event_type ORDER BY event_type
"""


def q_users_all_event_types(sf_dir: str):
    """Relational division — the classic "supplier who stocks EVERY
    part" shape (Codd's ÷, the one join SQL has no keyword for):
    users whose event history covers EVERY distinct event type.
    Per-batch pair dedup shrinks the stream, one (user, type) groupby
    finishes the exact dedup, then a second users×types-bounded
    groupby counts coverage per user; the divisor (total distinct
    types) is a types-bounded reduce — no driver-side row loop, and
    the only corpus-wide shuffle carries unique pairs."""
    from ray.data.aggregate import Count, Sum

    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def pair_dedup(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "user_id": t["user_id"].to_numpy(zero_copy_only=False),
            "event_type": t["event_type"].to_numpy(
                zero_copy_only=False)}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    pairs = ev.map_batches(pair_dedup, batch_format="pyarrow") \
        .groupby(["user_id", "event_type"]) \
        .aggregate(Count(alias_name="_c"))
    n_types = len(relational.ds_to_table(
        ev.map_batches(
            lambda t: pa.table({"event_type":
                                pc.unique(t["event_type"])}),
            batch_format="pyarrow")
        .groupby("event_type").aggregate(Count(alias_name="_c"))))

    def per_user_partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({"user_id": t["user_id"].to_numpy(
            zero_copy_only=False), "nt": 1}) \
            .groupby("user_id", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cover = relational.ds_to_table(
        pairs.map_batches(per_user_partial, batch_format="pyarrow")
        .groupby("user_id").aggregate(Sum("nt", alias_name="n"))
    ).to_pandas()
    out = cover.loc[cover["n"] == n_types, ["user_id"]] \
        .sort_values("user_id").reset_index(drop=True)
    return out.astype({"user_id": np.int64})


SQL_DIVISION = """
SELECT user_id
FROM (SELECT DISTINCT user_id, event_type FROM events)
GROUP BY user_id
HAVING COUNT(*) = (SELECT COUNT(DISTINCT event_type) FROM events)
ORDER BY user_id
"""


def q_locf_impute_value(sf_dir: str):
    """Last-observation-carried-forward imputation — the time-series
    gap repair every sensor/metrics pipeline runs: 'error' events
    carry no usable value (treated as NULL), each gets the user's most
    recent non-null value under composite (ts, event_id) order.  One
    user-bucket shuffle; per bucket the fill is a vectorized pandas
    groupby-ffill (no per-row Python), and because a user lives in
    exactly one bucket the per-user aggregate is final — no second
    shuffle.  Exact-cents sums of the filled values; the twin is the
    window idiom LAST_VALUE(v IGNORE NULLS)."""

    ev = _read(sf_dir, "events", ["ts", "event_id", "user_id",
                                  "event_type", "value"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        df = pd.DataFrame({
            "u": g["user_id"].to_numpy(np.int64), "ts": ts,
            "eid": g["event_id"].to_numpy(np.int64),
            "v": np.where(g["event_type"].to_numpy() == "error",
                          np.nan, g["value"].to_numpy(np.float64))}) \
            .sort_values(["u", "ts", "eid"])
        fv = df.groupby("u", sort=False)["v"].ffill()
        isnull = df["v"].isna()
        filled = isnull & fv.notna()
        cents = np.where(filled,
                         np.round(fv.to_numpy() * 100.0), 0.0)
        out = pd.DataFrame({
            "user_id": df["u"], "nn": isnull.astype(np.int64),
            "nf": filled.astype(np.int64),
            "fc": cents.astype(np.int64)}) \
            .groupby("user_id", sort=False) \
            .agg(n_null=("nn", "sum"), n_filled=("nf", "sum"),
                 filled_cents=("fc", "sum")).reset_index()
        return out

    out = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
    ).to_pandas().sort_values("user_id").reset_index(drop=True)
    return out.astype({"user_id": np.int64, "n_null": np.int64,
                       "n_filled": np.int64,
                       "filled_cents": np.int64})


SQL_LOCF = """
WITH e AS (SELECT user_id, ts, event_id,
                  CASE WHEN event_type = 'error' THEN NULL
                       ELSE value END AS v
           FROM events),
f AS (SELECT user_id, v,
             last_value(v IGNORE NULLS) OVER (
               PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
               AS fv
      FROM e)
SELECT user_id,
       CAST(SUM(CASE WHEN v IS NULL THEN 1 ELSE 0 END) AS BIGINT)
         AS n_null,
       CAST(SUM(CASE WHEN v IS NULL AND fv IS NOT NULL
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_filled,
       CAST(SUM(CASE WHEN v IS NULL AND fv IS NOT NULL
                     THEN CAST(ROUND(fv * 100) AS BIGINT)
                     ELSE 0 END) AS BIGINT) AS filled_cents
FROM f GROUP BY 1 ORDER BY 1
"""


def q_frequent_triples_events(sf_dir: str):
    """Frequent-itemset mining (the market-basket classic) over
    (user, day) baskets of event types: support of every 3-type
    combination.  The scale trick is the BITMASK FOLD: after one exact
    (user, day, type) distinct, each basket's type set reduces to a
    Σ2^bit integer via an ordinary SUM aggregate, and the support of
    every triple is a subset-sum over the ≤2^|types| mask histogram —
    so the corpus-wide shuffles carry only distinct triples and then
    (user, day, mask) rows, never candidate itemsets (the a-priori
    explosion stays on the driver over a types³-bounded lattice).
    The twin runs the literal three-way self-join."""
    from ray.data.aggregate import Count, Sum

    ev = _read(sf_dir, "events", ["ts", "user_id", "event_type"])

    def pair_dedup(t: pa.Table) -> pa.Table:
        day = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        df = pd.DataFrame({
            "user_id": t["user_id"].to_numpy(zero_copy_only=False),
            "day": day,
            "event_type": t["event_type"].to_numpy(
                zero_copy_only=False)}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    trip = ev.map_batches(pair_dedup, batch_format="pyarrow") \
        .groupby(["user_id", "day", "event_type"]) \
        .aggregate(Count(alias_name="_c")).materialize()
    types = sorted(relational.ds_to_table(
        trip.map_batches(
            lambda t: pa.table({"event_type":
                                pc.unique(t["event_type"])}),
            batch_format="pyarrow")
        .groupby("event_type").aggregate(Count(alias_name="_c"))
    )["event_type"].to_pylist())
    bit = {t: 1 << i for i, t in enumerate(types)}

    def to_bits(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        b = np.array([bit[x] for x in et], dtype=np.int64)
        return pa.table({"user_id": t["user_id"], "day": t["day"],
                         "b": pa.array(b)})

    masks = trip.map_batches(to_bits, batch_format="pyarrow") \
        .groupby(["user_id", "day"]).aggregate(Sum("b",
                                                   alias_name="mask"))

    def mask_partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({"mask": t["mask"].to_numpy(
            zero_copy_only=False), "n": 1}) \
            .groupby("mask", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    hist = relational.ds_to_table(
        masks.map_batches(mask_partial, batch_format="pyarrow")
        .groupby("mask").aggregate(Sum("n", alias_name="n"))
    ).to_pandas()
    mcount = {int(r.mask): int(r.n) for r in hist.itertuples()}
    rows = []
    k = len(types)
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                need = (1 << i) | (1 << j) | (1 << l)
                sup = sum(n for m, n in mcount.items()
                          if m & need == need)
                if sup >= 1:
                    rows.append({"t1": types[i], "t2": types[j],
                                 "t3": types[l], "support": sup})
    out = pd.DataFrame(rows).sort_values(["t1", "t2", "t3"]) \
        .reset_index(drop=True)
    return out.astype({"support": np.int64})


SQL_TRIPLES = """
WITH s AS (SELECT DISTINCT user_id,
                  epoch_us(ts) // 86400000000 AS day,
                  event_type AS t
           FROM events)
SELECT a.t AS t1, b.t AS t2, c.t AS t3,
       CAST(COUNT(*) AS BIGINT) AS support
FROM s a
JOIN s b ON a.user_id = b.user_id AND a.day = b.day AND a.t < b.t
JOIN s c ON a.user_id = c.user_id AND a.day = c.day AND b.t < c.t
GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
"""


def q_diff_in_diff_value(sf_dir: str):
    """Difference-in-differences — the quasi-experimental estimator:
    treatment arm by deterministic user-id parity (the fixture's
    standing A/B convention), pre/post periods split at epoch day
    19738 (2024-01-16), outcome = event value in exact cents.
    DiD = (ȳ_T,post − ȳ_T,pre) − (ȳ_C,post − ȳ_C,pre).  One streaming
    pass folds the four (arm, period) cells' exact-int sums/counts;
    the four means and the estimate are the only float ops, written
    to mirror the SQL text."""
    from ray.data.aggregate import Sum

    ev = _read(sf_dir, "events", ["ts", "user_id", "value"])
    SPLIT = 19738

    def cells(t: pa.Table) -> pa.Table:
        day = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        arm = (t["user_id"].to_numpy(zero_copy_only=False)
               .astype(np.int64) % 2)
        post = (day >= SPLIT).astype(np.int64)
        cents = np.round(t["value"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"arm": arm, "post": post, "s": cents,
                          "n": 1}).groupby(["arm", "post"],
                                           sort=False) \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    c = relational.ds_to_table(
        ev.map_batches(cells, batch_format="pyarrow")
        .groupby(["arm", "post"]).aggregate(
            Sum("s", alias_name="s"), Sum("n", alias_name="n"))
    ).to_pandas().set_index(["arm", "post"])

    def cell(a, p):
        return int(c.loc[(a, p), "s"]), int(c.loc[(a, p), "n"])

    st0, nt0 = cell(1, 0)
    st1, nt1 = cell(1, 1)
    sc0, nc0 = cell(0, 0)
    sc1, nc1 = cell(0, 1)
    did = (float(st1) / nt1 - float(st0) / nt0) \
        - (float(sc1) / nc1 - float(sc0) / nc0)
    return pd.DataFrame([{
        "n_t_pre": nt0, "n_t_post": nt1, "n_c_pre": nc0,
        "n_c_post": nc1, "did_cents": np.round(did, 4)}]) \
        .astype({"n_t_pre": np.int64, "n_t_post": np.int64,
                 "n_c_pre": np.int64, "n_c_post": np.int64})


SQL_DID = """
WITH e AS (SELECT user_id % 2 AS arm,
                  CASE WHEN epoch_us(ts) // 86400000000 >= 19738
                       THEN 1 ELSE 0 END AS post,
                  CAST(ROUND(value * 100) AS BIGINT) AS cents
           FROM events),
c AS (SELECT arm, post, SUM(cents) AS s,
             CAST(COUNT(*) AS BIGINT) AS n
      FROM e GROUP BY 1, 2),
w AS (SELECT
        MAX(CASE WHEN arm = 1 AND post = 0 THEN s END) AS st0,
        MAX(CASE WHEN arm = 1 AND post = 0 THEN n END) AS nt0,
        MAX(CASE WHEN arm = 1 AND post = 1 THEN s END) AS st1,
        MAX(CASE WHEN arm = 1 AND post = 1 THEN n END) AS nt1,
        MAX(CASE WHEN arm = 0 AND post = 0 THEN s END) AS sc0,
        MAX(CASE WHEN arm = 0 AND post = 0 THEN n END) AS nc0,
        MAX(CASE WHEN arm = 0 AND post = 1 THEN s END) AS sc1,
        MAX(CASE WHEN arm = 0 AND post = 1 THEN n END) AS nc1
      FROM c)
SELECT nt0 AS n_t_pre, nt1 AS n_t_post, nc0 AS n_c_pre,
       nc1 AS n_c_post,
       ROUND((CAST(st1 AS DOUBLE) / nt1 - CAST(st0 AS DOUBLE) / nt0)
             - (CAST(sc1 AS DOUBLE) / nc1
                - CAST(sc0 AS DOUBLE) / nc0), 4) AS did_cents
FROM w
"""


def q_bag_intersect_users(sf_dir: str):
    """INTERSECT ALL as an executable contract — bag semantics, the
    variant set-algebra queries silently get wrong: the multiset
    intersection of the click-user bag and the purchase-user bag
    keeps each user min(#clicks, #purchases) times (SQL's INTERSECT
    would collapse to distinct).  One (user × {click,purchase}) count
    reduce, then the Σ min fold — no row-level intersection ever
    materializes."""
    from ray.data.aggregate import Sum

    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        keep = (et == "click") | (et == "purchase")
        u = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[keep]
        isc = (et[keep] == "click").astype(np.int64)
        g = pd.DataFrame({"user_id": u, "nc": isc, "np_": 1 - isc}) \
            .groupby("user_id", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    per_user = ev.map_batches(partial, batch_format="pyarrow") \
        .groupby("user_id").aggregate(Sum("nc", alias_name="nc"),
                                      Sum("np_", alias_name="np_"))

    def fold(t: pa.Table) -> pa.Table:
        nc = t["nc"].to_numpy(zero_copy_only=False)
        npp = t["np_"].to_numpy(zero_copy_only=False)
        mn = np.minimum(nc, npp)
        return pa.table({"r": pa.array([int(mn.sum())]),
                         "u": pa.array([int((mn > 0).sum())])})

    agg = per_user.map_batches(fold, batch_format="pyarrow") \
        .aggregate(Sum("r", alias_name="r"), Sum("u", alias_name="u"))
    return pd.DataFrame([{"n_rows": int(agg["r"]),
                          "n_users": int(agg["u"])}]) \
        .astype({"n_rows": np.int64, "n_users": np.int64})


SQL_BAG_INTERSECT = """
SELECT CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM (SELECT user_id FROM events WHERE event_type = 'click'
      INTERSECT ALL
      SELECT user_id FROM events WHERE event_type = 'purchase')
"""


def q_activity_decay_curve(sf_dir: str):
    """User-activity decay curve: for each gap k = 1..14 days, the
    exact number of (user, day) presence pairs that recur k days later
    — the raw curve behind every retention half-life fit.  One exact
    (user, day) distinct, then a user-bucket shuffle where each bucket
    answers all 14 gaps with vectorized self-merges (presence arrays
    never leave their bucket); zero-pair gaps still emit a row.  The
    exponential-decay fit itself is pytest-pinned (float OLS has no
    place in a hash surface)."""
    from ray.data.aggregate import Sum

    ev = _read(sf_dir, "events", ["ts", "user_id"])
    GAPS = list(range(1, 15))

    def pres(t: pa.Table) -> pa.Table:
        day = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        df = pd.DataFrame({"user_id": t["user_id"].to_numpy(
            zero_copy_only=False), "day": day}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    from ray.data.aggregate import Count
    presence = ev.map_batches(pres, batch_format="pyarrow") \
        .groupby(["user_id", "day"]) \
        .aggregate(Count(alias_name="_c"))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        base = g[["user_id", "day"]]
        rows = []
        for k in GAPS:
            shifted = base.assign(day=base["day"] + k)
            m = base.merge(shifted, on=["user_id", "day"])
            rows.append({"k": k, "n_k": len(m)})
        return pd.DataFrame(rows)

    out = relational.ds_to_table(
        relational.bucket_shuffle(presence, "user_id", per_bucket)
        .groupby("k").aggregate(Sum("n_k", alias_name="n_k"))
    ).to_pandas().sort_values("k").reset_index(drop=True)
    return out.astype({"k": np.int64, "n_k": np.int64})


SQL_ACTIVITY_DECAY = """
WITH p AS (SELECT DISTINCT user_id,
                  epoch_us(ts) // 86400000000 AS day
           FROM events),
ks AS (SELECT unnest(generate_series(1, 14)) AS k),
hits AS (SELECT ks.k AS k, COUNT(*) AS n
         FROM ks, p a, p b
         WHERE a.user_id = b.user_id AND b.day = a.day + ks.k
         GROUP BY 1)
SELECT ks.k, CAST(COALESCE(hits.n, 0) AS BIGINT) AS n_k
FROM ks LEFT JOIN hits ON hits.k = ks.k ORDER BY ks.k
"""


def q_asof_forward_click_purchase(sf_dir: str):
    """FORWARD as-of join — 'the next purchase AFTER each click', the
    time-to-convert primitive (the mirror of asof_last_purchase's
    backward direction): each click matches the same user's EARLIEST
    following purchase.  Exercises the asof kernel's forward leg
    (smallest right.on ≥ left.on, first-in-sort tie semantics — the
    docstring contract) against DuckDB's native forward ASOF JOIN
    (`c.ts <= p.ts`).  Same one-sort-shuffle bucket shape."""
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type", "value"])
    clicks = ev.filter(expr="event_type == 'click'") \
        .select_columns(["event_id", "user_id", "ts"])

    def prep_right(t: pa.Table) -> pa.Table:
        t = t.append_column("purchase_ts_us",
                            t["ts"].cast(pa.int64()))
        t = t.append_column("purchase_value", t["value"])
        return t.select(["user_id", "ts", "purchase_ts_us",
                         "purchase_value"])

    purchases = ev.filter(expr="event_type == 'purchase'") \
        .map_batches(prep_right, batch_format="pyarrow")
    out = relational.asof_join(clicks, purchases, on="ts", by="user_id",
                               direction="forward")
    return out.select_columns(["event_id", "user_id",
                               "purchase_ts_us", "purchase_value"])


SQL_ASOF_FORWARD = """
SELECT c.event_id, c.user_id,
       epoch_us(p.ts) AS purchase_ts_us, p.value AS purchase_value
FROM (SELECT event_id, user_id, ts FROM events
      WHERE event_type = 'click') c
ASOF JOIN (SELECT user_id, ts, value FROM events
           WHERE event_type = 'purchase') p
  ON c.user_id = p.user_id AND c.ts <= p.ts
"""


def q_windowed_dedup_events(sf_dir: str):
    """Tumbling-window ingestion dedup — the bounded-state dedup a
    streaming sink runs (exactly-once per key per hour, state expires
    with the window): events collapse to one survivor per
    (user, type, hour window).  Per-batch distinct shrinks the stream,
    one exact triple groupby finishes it, and the per-type report
    (rows in vs survivors kept) folds from bounded partials."""
    from ray.data.aggregate import Count, Sum

    ev = _read(sf_dir, "events", ["ts", "user_id", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        win = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 3_600_000_000
        df = pd.DataFrame({
            "event_type": t["event_type"].to_numpy(
                zero_copy_only=False),
            "user_id": t["user_id"].to_numpy(zero_copy_only=False),
            "win": win})
        g = df.groupby(["event_type", "user_id", "win"],
                       sort=False).size().rename("n").reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    triples = ev.map_batches(prep, batch_format="pyarrow") \
        .groupby(["event_type", "user_id", "win"]) \
        .aggregate(Sum("n", alias_name="n"))

    def fold(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({
            "event_type": t["event_type"].to_numpy(
                zero_copy_only=False),
            "n_in": t["n"].to_numpy(zero_copy_only=False),
            "n_kept": 1}).groupby("event_type", sort=False) \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = relational.ds_to_table(
        triples.map_batches(fold, batch_format="pyarrow")
        .groupby("event_type").aggregate(
            Sum("n_in", alias_name="n_in"),
            Sum("n_kept", alias_name="n_kept"))
    ).to_pandas().sort_values("event_type").reset_index(drop=True)
    return out.astype({"n_in": np.int64, "n_kept": np.int64})


SQL_WINDOWED_DEDUP = """
WITH w AS (SELECT event_type, user_id,
                  epoch_us(ts) // 3600000000 AS win
           FROM events)
SELECT a.event_type, a.n_in, b.n_kept
FROM (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_in
      FROM w GROUP BY 1) a
JOIN (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_kept
      FROM (SELECT DISTINCT event_type, user_id, win FROM w)
      GROUP BY 1) b USING (event_type)
ORDER BY a.event_type
"""


def q_interarrival_stats_by_type(sf_dir: str):
    """Inter-arrival time statistics per event type — the Poisson-rate
    diagnostic behind capacity planning and bot detection: gaps
    between consecutive events of the same (user, type) stream under
    composite (ts, event_id) order.  One user-bucket shuffle; per
    bucket the gaps are one vectorized diff with group-boundary
    masking; gap seconds floor to exact ints (// mirrored), the mean
    is the single division."""
    from ray.data.aggregate import Sum


    ev = _read(sf_dir, "events", ["ts", "event_id", "user_id",
                                  "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame({
            "u": g["user_id"].to_numpy(np.int64),
            "t": g["event_type"].to_numpy(),
            "ts": g["ts"].to_numpy().astype("datetime64[us]")
            .astype(np.int64),
            "eid": g["event_id"].to_numpy(np.int64)}) \
            .sort_values(["u", "t", "ts", "eid"])
        us = df["ts"].to_numpy()
        same = np.zeros(len(df), dtype=bool)
        if len(df) > 1:
            same[1:] = (df["u"].to_numpy()[1:] ==
                        df["u"].to_numpy()[:-1]) \
                & (df["t"].to_numpy()[1:] == df["t"].to_numpy()[:-1])
        gap = np.zeros(len(df), dtype=np.int64)
        gap[1:] = us[1:] - us[:-1]
        gs = gap // 1_000_000               # floor-seconds, mirrored
        out = pd.DataFrame({"event_type": df["t"].to_numpy()[same],
                            "n_gaps": 1, "sum_gap_sec": gs[same]}) \
            .groupby("event_type", sort=False).sum().reset_index()
        return out

    out = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
        .groupby("event_type").aggregate(
            Sum("n_gaps", alias_name="n_gaps"),
            Sum("sum_gap_sec", alias_name="sum_gap_sec"))
    ).to_pandas().sort_values("event_type").reset_index(drop=True)
    out["mean_gap_sec"] = np.round(
        out["sum_gap_sec"].astype(np.float64)
        / out["n_gaps"].astype(np.float64), 4)
    return out.astype({"n_gaps": np.int64, "sum_gap_sec": np.int64})


SQL_INTERARRIVAL = """
WITH o AS (SELECT event_type, ts,
                  LAG(ts) OVER (PARTITION BY user_id, event_type
                                ORDER BY ts, event_id) AS pts
           FROM events)
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_gaps,
       CAST(SUM((epoch_us(ts) - epoch_us(pts)) // 1000000) AS BIGINT)
         AS sum_gap_sec,
       ROUND(CAST(SUM((epoch_us(ts) - epoch_us(pts)) // 1000000)
                  AS DOUBLE) / COUNT(*), 4) AS mean_gap_sec
FROM o WHERE pts IS NOT NULL GROUP BY 1 ORDER BY 1
"""


def q_interp_impute_value(sf_dir: str):
    """Linear-interpolation imputation — the gap repair LOCF can't do
    honestly on trending series: each 'error' event (value treated as
    NULL) takes vp + (vn−vp)·(t−tp)/(tn−tp) between the user's nearest
    non-null neighbours under composite (ts, event_id) order; edge
    nulls (no neighbour on one side) stay unfilled.  One user-bucket
    shuffle, vectorized ffill/bfill of value AND timestamp per bucket;
    interpolated values quantize to integer micro-units so the
    per-user sums fold exactly (the only floats are the mirrored
    per-row interpolation expression and its ROUND)."""

    ev = _read(sf_dir, "events", ["ts", "event_id", "user_id",
                                  "event_type", "value"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        df = pd.DataFrame({
            "u": g["user_id"].to_numpy(np.int64), "ts": ts,
            "eid": g["event_id"].to_numpy(np.int64),
            "v": np.where(g["event_type"].to_numpy() == "error",
                          np.nan, g["value"].to_numpy(np.float64))}) \
            .sort_values(["u", "ts", "eid"]).reset_index(drop=True)
        df["tsv"] = np.where(df["v"].notna(), df["ts"].astype(
            np.float64), np.nan)
        gb = df.groupby("u", sort=False)
        vp, tp = gb["v"].ffill(), gb["tsv"].ffill()
        vn, tn = gb["v"].bfill(), gb["tsv"].bfill()
        isnull = df["v"].isna()
        can = isnull & vp.notna() & vn.notna()
        t, tpv, tnv = (df["ts"].to_numpy(np.float64),
                       tp.to_numpy(), tn.to_numpy())
        with np.errstate(invalid="ignore", divide="ignore"):
            vi = np.where(tnv == tpv, vp.to_numpy(),
                          vp.to_numpy() + (vn.to_numpy() - vp.to_numpy())
                          * (t - tpv) / (tnv - tpv))
        i6 = np.where(can, np.round(np.where(can, vi, 0.0) * 1e6),
                      0.0).astype(np.int64)
        out = pd.DataFrame({
            "user_id": df["u"], "nn": isnull.astype(np.int64),
            "ni": can.astype(np.int64), "i6": i6}) \
            .groupby("user_id", sort=False) \
            .agg(n_null=("nn", "sum"), n_interp=("ni", "sum"),
                 interp_sum6=("i6", "sum")).reset_index()
        return out

    out = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
    ).to_pandas().sort_values("user_id").reset_index(drop=True)
    return out.astype({"user_id": np.int64, "n_null": np.int64,
                       "n_interp": np.int64, "interp_sum6": np.int64})


SQL_INTERP_IMPUTE = """
WITH e AS (SELECT user_id, ts, event_id,
                  CASE WHEN event_type = 'error' THEN NULL
                       ELSE value END AS v
           FROM events),
w AS (SELECT user_id, ts, v,
             LAST_VALUE(v IGNORE NULLS) OVER win AS vp,
             LAST_VALUE(CASE WHEN v IS NOT NULL
                             THEN epoch_us(ts) END IGNORE NULLS)
               OVER win AS tp,
             FIRST_VALUE(v IGNORE NULLS) OVER winf AS vn,
             FIRST_VALUE(CASE WHEN v IS NOT NULL
                              THEN epoch_us(ts) END IGNORE NULLS)
               OVER winf AS tn
      FROM e
      WINDOW win AS (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING),
             winf AS (PARTITION BY user_id ORDER BY ts, event_id
                      ROWS BETWEEN 1 FOLLOWING
                               AND UNBOUNDED FOLLOWING)),
i AS (SELECT user_id,
             CASE WHEN v IS NULL THEN 1 ELSE 0 END AS isn,
             CASE WHEN v IS NULL AND vp IS NOT NULL
                       AND vn IS NOT NULL THEN 1 ELSE 0 END AS isi,
             CASE WHEN v IS NULL AND vp IS NOT NULL
                       AND vn IS NOT NULL THEN
               CAST(ROUND((CASE WHEN tn = tp THEN vp
                           ELSE vp + (vn - vp) * (epoch_us(ts) - tp)
                                / (tn - tp) END) * 1000000) AS BIGINT)
             ELSE 0 END AS i6
      FROM w)
SELECT user_id, CAST(SUM(isn) AS BIGINT) AS n_null,
       CAST(SUM(isi) AS BIGINT) AS n_interp,
       CAST(SUM(i6) AS BIGINT) AS interp_sum6
FROM i GROUP BY 1 ORDER BY 1
"""


def q_quantile_treatment_effect(sf_dir: str):
    """Quantile treatment effects at P10/P50/P90 of event value
    between the id-parity A/B arms — where the mean-difference test
    (welch/CUPED) hides heterogeneous effects, the quantile deltas
    expose them.  Event values are cents-quantized, so the per-arm
    distribution table is VALUE-DOMAIN-bounded and each quantile is
    the exact (n−1)·q/100 divmod interpolation (the
    grouped-percentile kernel's rule); the deltas are mirrored
    subtractions of the rounded quantiles."""
    from ray.data.aggregate import Sum

    ev = _read(sf_dir, "events", ["user_id", "value"])

    def partial(t: pa.Table) -> pa.Table:
        arm = (t["user_id"].to_numpy(zero_copy_only=False) % 2) \
            .astype(np.int64)
        cents = np.round(t["value"].to_numpy(zero_copy_only=False)
                         * 100.0).astype(np.int64)
        g = pd.DataFrame({"arm": arm, "v": cents, "pn": 1}) \
            .groupby(["arm", "v"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    dist = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["arm", "v"]).aggregate(Sum("pn", alias_name="c"))
    ).to_pandas()
    qs = {}
    for arm, g in dist.groupby("arm"):
        g = g.sort_values("v")
        cum = np.cumsum(g["c"].to_numpy(np.int64))
        v = g["v"].to_numpy(np.int64)
        n = int(cum[-1])
        for k in (10, 50, 90):
            h_lo, rem = divmod((n - 1) * k, 100)
            lo_c = int(v[np.searchsorted(cum, h_lo + 1, side="left")])
            hi_c = lo_c if rem == 0 else \
                int(v[np.searchsorted(cum, h_lo + 2, side="left")])
            qs[(int(arm), k)] = round(
                (lo_c + (rem / 100.0) * (hi_c - lo_c)) / 100.0, 6)
    rows = [{"q": k, "control": qs[(0, k)], "treat": qs[(1, k)],
             "qte": round(qs[(1, k)] - qs[(0, k)], 6)}
            for k in (10, 50, 90)]
    return pd.DataFrame(rows).astype({"q": np.int64})


SQL_QTE = """
WITH e AS (SELECT user_id % 2 AS arm, value FROM events),
p AS (SELECT arm,
             ROUND(quantile_cont(value, 0.10), 6) AS p10,
             ROUND(quantile_cont(value, 0.50), 6) AS p50,
             ROUND(quantile_cont(value, 0.90), 6) AS p90
      FROM e GROUP BY 1),
c AS (SELECT p10, p50, p90 FROM p WHERE arm = 0),
t AS (SELECT p10, p50, p90 FROM p WHERE arm = 1)
SELECT CAST(10 AS BIGINT) AS q, c.p10 AS control, t.p10 AS treat,
       ROUND(t.p10 - c.p10, 6) AS qte FROM c, t
UNION ALL
SELECT CAST(50 AS BIGINT), c.p50, t.p50, ROUND(t.p50 - c.p50, 6)
FROM c, t
UNION ALL
SELECT CAST(90 AS BIGINT), c.p90, t.p90, ROUND(t.p90 - c.p90, 6)
FROM c, t
ORDER BY 1
"""


_SPRT_P0, _SPRT_P1 = 0.15, 0.25
_SPRT_C1 = float(np.log(_SPRT_P1 / _SPRT_P0))
_SPRT_C0 = float(np.log((1.0 - _SPRT_P1) / (1.0 - _SPRT_P0)))
_SPRT_A = float(np.log(0.95 / 0.05))      # alpha = beta = 0.05
_SPRT_B = float(np.log(0.05 / 0.95))


def q_sprt_purchase_rate(sf_dir: str):
    """Wald's sequential probability ratio test replayed over the
    event stream in (ts, event_id) order: is the purchase rate p1=0.25
    (H1) or p0=0.15 (H0)?  The earliest LLR threshold crossing decides
    — the always-valid sequential test every experimentation platform
    ships instead of fixed-horizon peeking.  Distributed exactly: a
    weekly-range reduce gives (n, ones) offsets per time slice, then
    each slice scans ONLY its own events for the first local crossing
    under its global offset — no global sort, no full prefix
    materialization; the earliest crossing across slices is the
    answer.  LLR is a pure function of exact ints (ones, n) and
    literal double constants shared verbatim with the twin, so the
    crossing comparison can never flip."""
    from ray.data.aggregate import Sum

    ev = _read(sf_dir, "events", ["ts", "event_id", "event_type"])

    def tag(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        week = us // (7 * 86_400_000_000)
        x = (pc.equal(t["event_type"], "purchase")
             .to_numpy(zero_copy_only=False)).astype(np.int64)
        return pa.table({"week": pa.array(week),
                         "us": pa.array(us),
                         "event_id": t["event_id"],
                         "x": pa.array(x)})

    tagged = ev.map_batches(tag, batch_format="pyarrow")
    offs = relational.ds_to_table(
        tagged.groupby("week").aggregate(
            Sum("x", alias_name="ones"))).to_pandas()
    cnts = relational.ds_to_table(
        tagged.map_batches(lambda t: pa.table({
            "week": t["week"],
            "c": pa.array(np.ones(t.num_rows, dtype=np.int64))}),
            batch_format="pyarrow")
        .groupby("week").aggregate(Sum("c", alias_name="n"))
    ).to_pandas()
    offs = offs.merge(cnts, on="week").sort_values("week")
    off_n = dict(zip(offs["week"],
                     np.cumsum(offs["n"]) - offs["n"]))
    off_ones = dict(zip(offs["week"],
                        np.cumsum(offs["ones"]) - offs["ones"]))
    tot_n = int(offs["n"].sum())
    tot_ones = int(offs["ones"].sum())

    def first_crossing(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["us", "event_id"])
        wk = int(g["week"].iloc[0])
        ones = np.cumsum(g["x"].to_numpy(np.int64)) + off_ones[wk]
        n = np.arange(1, len(g) + 1, dtype=np.int64) + off_n[wk]
        llr = ones.astype(np.float64) * _SPRT_C1 \
            + (n - ones).astype(np.float64) * _SPRT_C0
        hit = np.nonzero((llr >= _SPRT_A) | (llr <= _SPRT_B))[0]
        if not len(hit):
            return pd.DataFrame({
                "n": pd.Series([], dtype=np.int64),
                "ones": pd.Series([], dtype=np.int64),
                "llr": pd.Series([], dtype=np.float64)})
        i = int(hit[0])
        return pd.DataFrame({"n": [int(n[i])], "ones": [int(ones[i])],
                             "llr": [float(llr[i])]})

    hits = relational.ds_to_table(
        tagged.groupby("week").map_groups(first_crossing,
                                          batch_format="pandas")
    ).to_pandas()
    if len(hits):
        row = hits.sort_values("n").iloc[0]
        n, ones, llr = int(row["n"]), int(row["ones"]), float(row["llr"])
        decision = "accept_h1" if llr >= _SPRT_A else "accept_h0"
    else:
        n, ones = tot_n, tot_ones
        llr = float(ones) * _SPRT_C1 + float(n - ones) * _SPRT_C0
        decision = "continue"
    return pd.DataFrame({"decision": [decision],
                         "n_trials": [n], "n_conversions": [ones],
                         "llr": [round(llr, 6)]})


def _sql_sprt() -> str:
    return f"""
WITH e AS (SELECT ts, event_id,
                  CASE WHEN event_type = 'purchase'
                       THEN 1 ELSE 0 END AS x FROM events),
w AS (SELECT ROW_NUMBER() OVER (ORDER BY ts, event_id) AS n,
             SUM(x) OVER (ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) AS ones
      FROM e),
l AS (SELECT n, ones,
             CAST(ones AS DOUBLE) * {_SPRT_C1!r}
               + CAST(n - ones AS DOUBLE) * {_SPRT_C0!r} AS llr
      FROM w),
hit AS (SELECT n, ones, llr,
               CASE WHEN llr >= {_SPRT_A!r} THEN 'accept_h1'
                    ELSE 'accept_h0' END AS decision
        FROM l WHERE llr >= {_SPRT_A!r} OR llr <= {_SPRT_B!r}
        ORDER BY n LIMIT 1)
SELECT decision, n AS n_trials, ones AS n_conversions,
       ROUND(llr, 6) AS llr FROM hit
UNION ALL
SELECT 'continue', n, ones, ROUND(llr, 6) FROM l
WHERE (SELECT COUNT(*) FROM hit) = 0
  AND n = (SELECT MAX(n) FROM l)
"""


def q_nelson_aalen_hazard(sf_dir: str):
    """Nelson–Aalen cumulative-hazard estimator over the same
    customer-lifetime fixture as the Kaplan–Meier query (first→last
    order days, churn = 90-day horizon rule): H(t) = Σ_{tᵢ≤t} dᵢ/rᵢ —
    the hazard-scale twin of KM survival, preferred when hazards are
    the modelling target (Cox baselines, reliability).  Same exact-int
    duration reduce; the finish cumsum runs in the identical ascending
    order as the SQL running window."""
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

    mx = int(_read(sf_dir, "orders", ["o_orderdate"]).map_batches(
        lambda t: pa.table({"d": pa.array(
            t["o_orderdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[D]").astype(np.int64))}),
        batch_format="pyarrow").aggregate(Max("d", alias_name="m"))["m"])

    def to_partials(t: pa.Table) -> pa.Table:
        f = t["f"].to_numpy(zero_copy_only=False).astype(np.int64)
        l = t["l"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({"t": l - f,
                          "pd_": ((mx - l) >= 90).astype(np.int64),
                          "pc_": 1}) \
            .groupby("t", sort=False) \
            .agg(pd_=("pd_", "sum"), pc_=("pc_", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    na = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("o_custkey").aggregate(Min("pf", alias_name="f"),
                                        Max("pl", alias_name="l"))
        .map_batches(to_partials, batch_format="pyarrow")
        .groupby("t").aggregate(Sum("pd_", alias_name="d"),
                                Sum("pc_", alias_name="c"))
    ).to_pandas().sort_values("t").reset_index(drop=True)
    n = int(na["c"].sum())
    seen_before = np.cumsum(na["c"].to_numpy(np.int64)) \
        - na["c"].to_numpy(np.int64)
    r = n - seen_before
    d = na["d"].to_numpy(dtype=np.int64)
    keep = d > 0
    h = np.cumsum(d[keep].astype(np.float64)
                  / r[keep].astype(np.float64))
    return pd.DataFrame({"t_days": na["t"].to_numpy(np.int64)[keep],
                         "at_risk": r[keep], "events": d[keep],
                         "cum_hazard": np.round(h, 6)})


SQL_NELSON_AALEN = """
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
      FROM g, tot)
SELECT t AS t_days, CAST(r AS BIGINT) AS at_risk,
       CAST(d AS BIGINT) AS events,
       ROUND(SUM(CAST(d AS DOUBLE) / CAST(r AS DOUBLE))
             OVER (ORDER BY t ROWS UNBOUNDED PRECEDING), 6)
         AS cum_hazard
FROM k WHERE d > 0 ORDER BY t
"""


def q_fifo_click_attribution(sf_dir: str):
    """FIFO click→purchase matching per user: each purchase consumes
    the EARLIEST yet-unmatched prior click (the unit-quantity FIFO
    lot-allocation / queueing primitive behind inventory costing and
    strict attribution).  The sequential greedy loop collapses to a
    closed form — with c_k = clicks before the k-th purchase,
    matched = min(m, m + min_k(c_k − k)) (a Lindley-type recursion
    unrolled; proof in the golden) — so one user-bucketed pass with
    vectorized per-user cumsums answers it, no row loop, no state
    actor."""
    import pyarrow.dataset as pads


    ev = _read(sf_dir, "events",
               ["user_id", "ts", "event_id", "event_type"],
               filter=pads.field("event_type").isin(
                   ["click", "purchase"]))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        is_c = (g["event_type"] == "click").to_numpy()
        cum = g.assign(ic=is_c.astype(np.int64)) \
            .groupby("user_id", sort=False)["ic"].cumsum() \
            .to_numpy(np.int64)
        pur = g[~is_c].copy()
        pur["ck"] = cum[~is_c]          # clicks strictly before it
        pur["k"] = pur.groupby("user_id", sort=False) \
            .cumcount().to_numpy(np.int64) + 1
        pur["ckk"] = pur["ck"].to_numpy(np.int64) \
            - pur["k"].to_numpy(np.int64)
        pa_ = pur.groupby("user_id", sort=False) \
            .agg(m=("k", "max"), mink=("ckk", "min"))
        cl = g[is_c].groupby("user_id", sort=False) \
            .size().rename("n_clicks")
        out = pd.concat([cl, pa_], axis=1).fillna(0).reset_index()
        m = out["m"].to_numpy(np.int64)
        out["n_matched"] = np.minimum(
            m, m + out["mink"].to_numpy(np.int64))
        out["n_matched"] = np.where(m == 0, 0, out["n_matched"])
        return pd.DataFrame({
            "user_id": out["user_id"].astype(np.int64),
            "n_clicks": out["n_clicks"].astype(np.int64),
            "n_purchases": m,
            "n_matched": out["n_matched"].astype(np.int64)})

    res = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
    ).to_pandas()
    return res.sort_values("user_id").reset_index(drop=True)


SQL_FIFO_ATTRIBUTION = """
WITH e AS (SELECT user_id, ts, event_id, event_type FROM events
           WHERE event_type IN ('click', 'purchase')),
w AS (SELECT user_id, event_type,
             SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END)
               OVER (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS UNBOUNDED PRECEDING) AS cum_clicks,
             CASE WHEN event_type = 'purchase' THEN
               ROW_NUMBER() OVER (PARTITION BY user_id, event_type
                                  ORDER BY ts, event_id) END AS k
      FROM e),
pu AS (SELECT user_id, MAX(k) AS m, MIN(cum_clicks - k) AS mink
       FROM w WHERE event_type = 'purchase' GROUP BY 1),
cl AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_clicks
       FROM e WHERE event_type = 'click' GROUP BY 1)
SELECT COALESCE(cl.user_id, pu.user_id) AS user_id,
       COALESCE(n_clicks, 0) AS n_clicks,
       CAST(COALESCE(m, 0) AS BIGINT) AS n_purchases,
       CAST(CASE WHEN m IS NULL THEN 0
                 ELSE LEAST(m, m + mink) END AS BIGINT) AS n_matched
FROM cl FULL OUTER JOIN pu USING (user_id)
ORDER BY user_id
"""


def q_anova_value_by_type(sf_dir: str):
    """One-way ANOVA of event value across the five event types —
    the k-group mean-difference test (F = between/within variance
    ratio) completing the two-sample family (Welch, Mann-Whitney, KS)
    already in the registry.  Every sufficient statistic folds as
    exact cents ints in one reduce; SSB/SSW evaluate through the
    sums-of-squares identity with the twin's double expression
    (HUGEINT twin — s_g² outgrows int64 ~10⁹ rows before the oracle
    does)."""
    from ray.data.aggregate import Sum

    ev = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["value"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"event_type": t["event_type"].to_pandas(),
                          "s": cents, "ss": cents * cents, "c": 1}) \
            .groupby("event_type", sort=False) \
            .agg(s=("s", "sum"), ss=("ss", "sum"), c=("c", "sum")) \
            .reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    gt = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type").aggregate(
            Sum("s", alias_name="s"), Sum("ss", alias_name="ss"),
            Sum("c", alias_name="c"))).to_pandas() \
        .sort_values("event_type")
    s = gt["s"].to_numpy(np.int64)
    ss = gt["ss"].to_numpy(np.int64)
    c = gt["c"].to_numpy(np.int64)
    kg, n = len(gt), int(c.sum())
    S, SS = int(s.sum()), int(ss.sum())
    # a = Σ s_g²/n_g in the twin's per-group double division
    a = float(np.sum((s.astype(np.float64) * s.astype(np.float64))
                     / c.astype(np.float64)))
    corr = float(S) * float(S) / float(n)
    ssb = a - corr
    ssw = float(SS) - a
    sst = float(SS) - corr
    f = (ssb / (kg - 1)) / (ssw / (n - kg))
    return pd.DataFrame({"n_rows": [n], "k_groups": [kg],
                         "f_stat": [round(f, 6)],
                         "eta_sq": [round(ssb / sst, 6)]})


SQL_ANOVA = """
WITH v AS (SELECT event_type,
                  CAST(ROUND(value * 100) AS HUGEINT) AS cents
           FROM events),
g AS (SELECT event_type, SUM(cents) AS s,
             SUM(cents * cents) AS ss,
             CAST(COUNT(*) AS BIGINT) AS c
      FROM v GROUP BY 1),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS kg,
             CAST(SUM(c) AS BIGINT) AS n,
             CAST(SUM(s) AS DOUBLE) AS sd,
             CAST(SUM(ss) AS DOUBLE) AS ssd,
             SUM(CAST(s AS DOUBLE) * CAST(s AS DOUBLE)
                 / CAST(c AS DOUBLE)) AS a
      FROM g)
SELECT n AS n_rows, kg AS k_groups,
       ROUND(((a - sd * sd / n) / (kg - 1))
             / ((ssd - a) / (n - kg)), 6) AS f_stat,
       ROUND((a - sd * sd / n) / (ssd - sd * sd / n), 6) AS eta_sq
FROM t
"""


def q_transition_entropy_rate(sf_dir: str):
    """Per-state conditional entropy of the user event-transition
    chain — how predictable the NEXT event is given the current one
    (the sequence-compressibility signal behind session modelling and
    anomaly scoring).  Transitions derive per user-bucket exactly as
    the transition-matrix op (consecutive (ts, event_id) pairs);
    counts reduce to |states|² rows, the entropy finish is bounded.
    `contrib` = (n_out/N)·h_cond sums to the chain's empirical
    entropy rate."""
    from ray.data.aggregate import Sum


    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type"])

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        u = g["user_id"].to_numpy(np.int64)
        et = g["event_type"].to_numpy()
        same = u[1:] == u[:-1]
        out = pd.DataFrame({"a": et[:-1][same], "b": et[1:][same],
                            "c": 1})
        return out.groupby(["a", "b"], sort=False).sum().reset_index()

    nij = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", pairs)
        .groupby(["a", "b"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    N = int(nij["c"].sum())
    rows = []
    for a, g in nij.groupby("a"):
        c = g["c"].to_numpy(np.int64)
        n_out = int(c.sum())
        p = c.astype(np.float64) / n_out
        hc = float(-(p * np.log(p)).sum())
        rows.append({"event_type": a, "n_out": n_out,
                     "h_cond": round(hc, 6),
                     "contrib": round((float(n_out) / N) * hc, 6)})
    return pd.DataFrame(rows).sort_values("event_type") \
        .reset_index(drop=True)


SQL_TRANSITION_ENTROPY = """
WITH tr AS (SELECT event_type AS a,
                   LEAD(event_type) OVER (PARTITION BY user_id
                     ORDER BY ts, event_id) AS b
            FROM events),
t2 AS (SELECT a, b FROM tr WHERE b IS NOT NULL),
nij AS (SELECT a, b, CAST(COUNT(*) AS BIGINT) AS c
        FROM t2 GROUP BY 1, 2),
ni AS (SELECT a, CAST(SUM(c) AS BIGINT) AS n_out
       FROM nij GROUP BY 1),
tot AS (SELECT CAST(SUM(c) AS BIGINT) AS n FROM nij),
h AS (SELECT nij.a,
             SUM(-(CAST(c AS DOUBLE) / n_out)
                 * LN(CAST(c AS DOUBLE) / n_out)) AS hc
      FROM nij JOIN ni ON ni.a = nij.a GROUP BY nij.a)
SELECT ni.a AS event_type, ni.n_out, ROUND(h.hc, 6) AS h_cond,
       ROUND((CAST(ni.n_out AS DOUBLE) / tot.n) * h.hc, 6)
         AS contrib
FROM ni JOIN h ON h.a = ni.a, tot ORDER BY 1
"""


def q_daily_travel_distance(sf_dir: str):
    """Per user-day odometer: total Euclidean distance along the
    day's event sequence (points hashed from event ids, legs between
    consecutive events in (ts, event_id) order) — the trajectory-
    length primitive behind mobility and fleet analytics.  One user
    bucket shuffle; legs, integer squared distances and the √ sum all
    vectorize inside the group."""
    from ray.data.aggregate import Sum


    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id"])

    def prep(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        e = t["event_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "user_id": t["user_id"], "us": pa.array(us),
            "event_id": t["event_id"],
            "day": pa.array(us // 86_400_000_000),
            "x": pa.array((e * 7919) % 1000),
            "y": pa.array((e * 104729) % 1000)})

    def legs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "day", "us", "event_id"])
        u = g["user_id"].to_numpy(np.int64)
        d = g["day"].to_numpy(np.int64)
        x = g["x"].to_numpy(np.int64)
        y = g["y"].to_numpy(np.int64)
        same = (u[1:] == u[:-1]) & (d[1:] == d[:-1])
        dist = np.sqrt(((x[1:] - x[:-1]) ** 2
                        + (y[1:] - y[:-1]) ** 2)[same]
                       .astype(np.float64))
        out = pd.DataFrame({"user_id": u[1:][same],
                            "day": d[1:][same],
                            "n_legs": 1, "dist": dist})
        return out.groupby(["user_id", "day"], sort=False) \
            .agg(n_legs=("n_legs", "sum"), dist=("dist", "sum")) \
            .reset_index()

    res = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", legs, prepare=prep)
        .groupby(["user_id", "day"]).aggregate(
            Sum("n_legs", alias_name="n_legs"),
            Sum("dist", alias_name="dist"))
    ).to_pandas().sort_values(["user_id", "day"]) \
        .reset_index(drop=True)
    res["dist"] = np.round(res["dist"], 6)
    return res.astype({"user_id": np.int64, "day": np.int64,
                       "n_legs": np.int64})


SQL_TRAVEL_DISTANCE = """
WITH e AS (SELECT user_id, ts, event_id,
                  CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                    AS day,
                  (event_id * 7919) % 1000 AS x,
                  (event_id * 104729) % 1000 AS y
           FROM events),
l AS (SELECT user_id, day, x, y,
             LAG(x) OVER w AS px, LAG(y) OVER w AS py
      FROM e
      WINDOW w AS (PARTITION BY user_id, day
                   ORDER BY ts, event_id)),
d AS (SELECT user_id, day,
             SQRT(CAST((x - px) * (x - px)
                       + (y - py) * (y - py) AS DOUBLE)) AS dist
      FROM l WHERE px IS NOT NULL)
SELECT user_id, day, CAST(COUNT(*) AS BIGINT) AS n_legs,
       ROUND(SUM(dist), 6) AS dist
FROM d GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_kruskal_wallis_value(sf_dir: str):
    """Kruskal–Wallis H test of event ``value`` across ALL event types
    — the k-group extension of the Mann-Whitney machinery (ref
    prclz test strategy: nonparametric location tests over event
    streams).  One (value-domain × type) bounded count reduce; DOUBLED
    midranks 2R(v) = 2·cum<(v) + t(v) + 1 keep every per-group rank
    sum an exact integer (no rank floats cross the wire), the tie
    correction Σ(t³−t) folds from the same table in arbitrary
    precision, and H / the tie-adjusted H are each ONE mirrored float
    expression shared verbatim with the HUGEINT SQL twin."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        v = np.round(t["value"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"v": v,
                          "event_type": t["event_type"].to_pandas(),
                          "pn": 1}) \
            .groupby(["v", "event_type"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    vc = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["v", "event_type"])
        .aggregate(Sum("pn", alias_name="njv"))
    ).to_pandas()

    tv = vc.groupby("v", sort=True)["njv"].sum()
    vs = tv.index.to_numpy(np.int64)
    t_arr = tv.to_numpy(np.int64)
    cuml = np.cumsum(t_arr) - t_arr
    pos = np.searchsorted(vs, vc["v"].to_numpy(np.int64))
    # doubled midrank of value v: 2·(count below) + count(v) + 1
    dmr = 2 * cuml[pos] + t_arr[pos] + 1
    vc = vc.assign(contrib=vc["njv"].to_numpy(np.int64) * dmr)
    dr = vc.groupby("event_type", sort=True).agg(
        nj=("njv", "sum"), dr2=("contrib", "sum")).reset_index()

    N = int(dr["nj"].sum())
    # Σ DR²/n with DR² in arbitrary precision (python int), one double
    # division per group — mirrors SUM(CAST(HUGEINT·dr2 AS DOUBLE)/nj)
    s = sum(float(int(d) * int(d)) / float(int(n))
            for d, n in zip(dr["dr2"], dr["nj"]))
    h = 3.0 * s / float(N * (N + 1)) - 3.0 * (N + 1)
    tsum = sum(int(t) ** 3 - int(t) for t in t_arr)
    c = 1.0 - float(tsum) / float(N ** 3 - N)
    h_adj = h / c if c != 0.0 else None
    out = pd.DataFrame({
        "event_type": dr["event_type"],
        "nj": dr["nj"].to_numpy(np.int64),
        "dr2": dr["dr2"].to_numpy(np.int64),
        "mean_rank": [round(float(int(d)) / float(2 * int(n)), 6)
                      for d, n in zip(dr["dr2"], dr["nj"])],
        "h": round(h, 6),
        "h_adj": round(h_adj, 6) if h_adj is not None else None})
    return out.sort_values("event_type").reset_index(drop=True) \
        .astype({"nj": np.int64, "dr2": np.int64})


SQL_KRUSKAL_WALLIS = """
WITH x AS (SELECT CAST(ROUND(value * 100) AS BIGINT) AS v, event_type
           FROM events),
tv AS (SELECT v, CAST(COUNT(*) AS BIGINT) AS t FROM x GROUP BY 1),
w AS (SELECT v, t,
             SUM(t) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING) - t
               AS cuml
      FROM tv),
gj AS (SELECT event_type, v, CAST(COUNT(*) AS BIGINT) AS njv
       FROM x GROUP BY 1, 2),
dr AS (SELECT gj.event_type, CAST(SUM(gj.njv) AS BIGINT) AS nj,
              CAST(SUM(gj.njv * (2 * w.cuml + w.t + 1)) AS BIGINT)
                AS dr2
       FROM gj JOIN w USING (v) GROUP BY 1),
tot AS (SELECT CAST(SUM(nj) AS BIGINT) AS n,
               SUM(CAST(CAST(dr2 AS HUGEINT) * dr2 AS DOUBLE)
                   / CAST(nj AS DOUBLE)) AS s
        FROM dr),
ties AS (SELECT SUM(CAST(t AS HUGEINT) * t * t - t) AS tsum FROM tv),
hh AS (SELECT n,
              3.0 * s / CAST(CAST(n AS HUGEINT) * (n + 1) AS DOUBLE)
                - 3.0 * (n + 1) AS h,
              1.0 - CAST(tsum AS DOUBLE)
                / CAST(CAST(n AS HUGEINT) * n * n - n AS DOUBLE) AS c
       FROM tot, ties)
SELECT dr.event_type, dr.nj, dr.dr2,
       ROUND(CAST(dr2 AS DOUBLE) / CAST(2 * nj AS DOUBLE), 6)
         AS mean_rank,
       ROUND(hh.h, 6) AS h,
       ROUND(hh.h / NULLIF(hh.c, 0), 6) AS h_adj
FROM dr, hh ORDER BY dr.event_type
"""


def q_slo_burn_rate(sf_dir: str):
    """Multi-window SLO burn-rate alerting over the event error
    stream — the SRE playbook's paging rule realized on data: with a
    99 % non-error SLO (1 % error budget), each day's burn rate is
    (errors/total)/0.01 and a page fires only when BOTH the full-day
    window AND its last 6-hour sub-window burn faster than budget —
    the long-window-for-relevance / short-window-for-recency pair
    that suppresses both flappy and stale alerts.  Every alert
    decision is the exact integer comparison 100·err > total (no
    float can flip a page); burn rates are the mirrored doubles."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def part(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        day = us // 86_400_000_000
        q = (us % 86_400_000_000) // 21_600_000_000
        err = (t["event_type"].to_numpy(zero_copy_only=False)
               == "error").astype(np.int64)
        g = pd.DataFrame({"day": day, "n": 1, "e": err,
                          "nq": (q == 3).astype(np.int64),
                          "eq": err * (q == 3)}) \
            .groupby("day", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        ev.map_batches(part, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("n", alias_name="n"),
                                  Sum("e", alias_name="e"),
                                  Sum("nq", alias_name="nq"),
                                  Sum("eq", alias_name="eq"))
    ).to_pandas().sort_values("day").reset_index(drop=True)
    rows = []
    for r in agg.itertuples(index=False):
        n, e = int(r.n), int(r.e)
        nq, eq = int(r.nq), int(r.eq)
        burn_d = float(np.round(
            (float(e) / float(n)) / 0.01, 6))
        burn_q = None if nq == 0 else float(np.round(
            (float(eq) / float(nq)) / 0.01, 6))
        alert = (100 * e > n) and nq > 0 and (100 * eq > nq)
        rows.append({"day": int(r.day), "n_events": n,
                     "n_errors": e, "burn_day": burn_d,
                     "burn_last6h": burn_q, "page": alert})
    return pd.DataFrame(rows).astype({
        "day": np.int64, "n_events": np.int64,
        "n_errors": np.int64})


SQL_SLO_BURN = """
WITH e AS (SELECT epoch_us(ts) // 86400000000 AS day,
                  (epoch_us(ts) % 86400000000) // 21600000000 AS q,
                  CASE WHEN event_type = 'error' THEN 1 ELSE 0 END
                    AS err
           FROM events),
a AS (SELECT day, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(err) AS BIGINT) AS e,
             CAST(SUM(CASE WHEN q = 3 THEN 1 ELSE 0 END) AS BIGINT)
               AS nq,
             CAST(SUM(CASE WHEN q = 3 THEN err ELSE 0 END)
                  AS BIGINT) AS eq
      FROM e GROUP BY 1)
SELECT day, n AS n_events, e AS n_errors,
       ROUND((CAST(e AS DOUBLE) / CAST(n AS DOUBLE)) / 0.01, 6)
         AS burn_day,
       CASE WHEN nq = 0 THEN NULL
            ELSE ROUND((CAST(eq AS DOUBLE) / CAST(nq AS DOUBLE))
                       / 0.01, 6) END AS burn_last6h,
       100 * e > n AND nq > 0 AND 100 * eq > nq AS page
FROM a ORDER BY day
"""


_DORFMAN_KMAX = 16


def q_dorfman_pooling_plan(sf_dir: str):
    """Dorfman group-testing plan from the measured defect rate —
    the pooling calculus (blood banks, COVID labs, and batched
    data-validation probes alike): with per-item defect probability
    p = error-events / events, pooling k items costs E[tests]/item =
    1/k + 1 − (1−p)^k; the table reports every k ≤ 16 and flags the
    optimum.  p's numerator/denominator are exact ints; each row is
    one mirrored double expression (libm pow bit-matches DuckDB
    POWER), and the argmin flag compares the SAME doubles on both
    sides with smallest-k ties."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_type"])

    def part(t: pa.Table) -> pa.Table:
        err = (t["event_type"].to_numpy(zero_copy_only=False)
               == "error").astype(np.int64)
        return pa.table({"_g": pa.array([0]),
                         "n": pa.array([t.num_rows]),
                         "e": pa.array([int(err.sum())])})

    agg = relational.ds_to_table(
        ev.map_batches(part, batch_format="pyarrow")
        .groupby("_g").aggregate(Sum("n", alias_name="n"),
                                 Sum("e", alias_name="e"))
    ).to_pandas()
    n, e = int(agg["n"].iloc[0]), int(agg["e"].iloc[0])
    p = float(e) / float(n)
    costs = []
    for k in range(2, _DORFMAN_KMAX + 1):
        c = 1.0 / float(k) + 1.0 - (1.0 - p) ** k
        costs.append(c)
    cmin = min(costs)
    rows = []
    flagged = False
    for i, k in enumerate(range(2, _DORFMAN_KMAX + 1)):
        is_opt = (costs[i] == cmin) and not flagged
        flagged = flagged or is_opt
        rows.append({
            "pool_size": k, "n_events": n, "n_defects": e,
            "tests_per_item": float(np.round(costs[i], 6)),
            "is_optimal": is_opt})
    return pd.DataFrame(rows).astype({
        "pool_size": np.int64, "n_events": np.int64,
        "n_defects": np.int64})


SQL_DORFMAN = f"""
WITH a AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
                  CAST(SUM(CASE WHEN event_type = 'error'
                           THEN 1 ELSE 0 END) AS BIGINT) AS e
           FROM events),
k AS (SELECT k FROM generate_series(2, {_DORFMAN_KMAX}) t(k)),
c AS (SELECT k.k, a.n, a.e,
             1.0 / CAST(k.k AS DOUBLE) + 1.0
             - POWER(1.0 - CAST(a.e AS DOUBLE)
                     / CAST(a.n AS DOUBLE), k.k) AS cost
      FROM k, a),
m AS (SELECT MIN(cost) AS cmin,
             MIN(CASE WHEN cost = (SELECT MIN(cost) FROM c)
                 THEN k END) AS kopt
      FROM c)
SELECT c.k AS pool_size, c.n AS n_events, c.e AS n_defects,
       ROUND(c.cost, 6) AS tests_per_item,
       c.k = m.kopt AS is_optimal
FROM c, m ORDER BY pool_size
"""


def q_gorilla_encoding_estimate(sf_dir: str):
    """Gorilla/delta-of-delta encoded size estimate for the per-user
    event-timestamp streams — the time-series storage-engine
    calculation (Facebook's Gorilla paper) that decides whether a
    timestamp column compresses 10× or not: per user, second-
    resolution deltas-of-deltas cost 1 bit when zero, else
    9/12/16/36 bits by the paper's range buckets (plus a 36-bit
    first-delta and 64-bit header per stream) — every cost an exact
    integer decided by integer range tests, summed in one
    user-bucket pass; the compression ratio vs 64-bit plain is the
    mirrored finish."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]) \
            .reset_index(drop=True)
        u = g["user_id"].to_numpy(np.int64)
        sec = g["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64) // 1_000_000
        n = len(g)
        same1 = np.zeros(n, dtype=bool)
        same1[1:] = u[1:] == u[:-1]
        d1 = np.where(same1, sec - np.roll(sec, 1), 0)
        same2 = np.zeros(n, dtype=bool)
        same2[1:] = same1[1:] & np.roll(same1, 1)[1:]
        dod = np.where(same2, d1 - np.roll(d1, 1), 0)
        bits = np.zeros(n, dtype=np.int64)
        # header / first delta / dod buckets (Gorilla Fig. 2 ranges)
        bits[~same1] = 64
        bits[same1 & ~same2] = 36
        m = same2
        bits[m & (dod == 0)] = 1
        bits[m & (dod != 0) & (dod >= -63) & (dod <= 64)] = 9
        bits[m & ((dod < -63) | (dod > 64))
             & (dod >= -255) & (dod <= 256)] = 12
        bits[m & ((dod < -255) | (dod > 256))
             & (dod >= -2047) & (dod <= 2048)] = 16
        bits[m & ((dod < -2047) | (dod > 2048))] = 36
        out = pd.DataFrame({"_g": 0, "n": 1, "b": bits})
        return out.groupby("_g", sort=False).sum().reset_index()

    agg = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
        .groupby("_g").aggregate(Sum("n", alias_name="n"),
                                 Sum("b", alias_name="bits"))
    ).to_pandas()
    n = int(agg["n"].iloc[0])
    bits = int(agg["bits"].iloc[0])
    return pd.DataFrame([{
        "n_events": n, "encoded_bits": bits,
        "plain_bits": 64 * n,
        "compression_ratio": float(np.round(
            64.0 * float(n) / float(bits), 6))}]).astype({
            "n_events": np.int64, "encoded_bits": np.int64,
            "plain_bits": np.int64})


SQL_GORILLA = """
WITH s AS (SELECT user_id, ts, event_id,
                  epoch_us(ts) // 1000000 AS sec
           FROM events),
d AS (SELECT user_id, ts, event_id, sec,
             sec - LAG(sec) OVER win AS d1,
             LAG(sec) OVER win IS NULL AS first_row,
             LAG(sec, 2) OVER win IS NULL AS second_row
      FROM s WINDOW win AS (PARTITION BY user_id
                            ORDER BY ts, event_id)),
dd AS (SELECT user_id, first_row, second_row,
              d1 - LAG(d1) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) AS dod
       FROM d),
b AS (SELECT CASE
         WHEN first_row THEN 64
         WHEN second_row THEN 36
         WHEN dod = 0 THEN 1
         WHEN dod >= -63 AND dod <= 64 THEN 9
         WHEN dod >= -255 AND dod <= 256 THEN 12
         WHEN dod >= -2047 AND dod <= 2048 THEN 16
         ELSE 36 END AS bits
      FROM dd)
SELECT CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(bits) AS BIGINT) AS encoded_bits,
       CAST(64 * COUNT(*) AS BIGINT) AS plain_bits,
       ROUND(64.0 * CAST(COUNT(*) AS DOUBLE)
             / CAST(SUM(bits) AS DOUBLE), 6) AS compression_ratio
FROM b
"""


# Bernoulli CUSUM LLR increments, nano-quantized ONCE (p0=1%,
# p1=5%) and shipped verbatim to the twin
_BCUSUM_L1 = int(math.floor(math.log(0.05 / 0.01) * 1e9 + 0.5))
_BCUSUM_L0 = int(math.floor(math.log(0.95 / 0.99) * 1e9 + 0.5))
_BCUSUM_H = 5_000_000_000           # alarm at LLR 5


def q_bernoulli_cusum_errors(sf_dir: str):
    """Bernoulli CUSUM on the daily error rate — the SPC change
    detector tuned for PROPORTIONS (p₀ = 1 % in-control, p₁ = 5 %
    out): each day adds the exact log-likelihood-ratio increment
    e·L₁ + (n−e)·L₀ with the two constants nano-quantized ONCE at
    module load (shipped verbatim to the twin), and the decision
    statistic S_d = max(0, S_{d−1} + inc) walks in EXACT integer
    nano-units — the alarm at S ≥ 5·10⁹ can never float-flip.  One
    bounded day reduce; the twin replays the walk with a recursive
    CTE over day rank."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def part(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        err = (t["event_type"].to_numpy(zero_copy_only=False)
               == "error").astype(np.int64)
        g = pd.DataFrame({"day": us // 86_400_000_000,
                          "n": 1, "e": err}) \
            .groupby("day", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        ev.map_batches(part, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("n", alias_name="n"),
                                  Sum("e", alias_name="e"))
    ).to_pandas().sort_values("day").reset_index(drop=True)
    state = 0
    rows = []
    for r in agg.itertuples(index=False):
        n, e = int(r.n), int(r.e)
        inc = e * _BCUSUM_L1 + (n - e) * _BCUSUM_L0
        state = max(0, state + inc)
        rows.append({"day": int(r.day), "n_events": n,
                     "n_errors": e, "inc_nano": inc,
                     "state_nano": state,
                     "alarm": state >= _BCUSUM_H})
    return pd.DataFrame(rows).astype({
        "day": np.int64, "n_events": np.int64,
        "n_errors": np.int64, "inc_nano": np.int64,
        "state_nano": np.int64})


SQL_BERNOULLI_CUSUM = f"""
WITH RECURSIVE
a AS (SELECT epoch_us(ts) // 86400000000 AS day,
             CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(CASE WHEN event_type = 'error'
                      THEN 1 ELSE 0 END) AS BIGINT) AS e
      FROM events GROUP BY 1),
r AS (SELECT day, n, e,
             e * {_BCUSUM_L1} + (n - e) * {_BCUSUM_L0} AS inc,
             ROW_NUMBER() OVER (ORDER BY day) AS rn
      FROM a),
walk AS (SELECT day, n, e, inc, rn,
                GREATEST(0, inc) AS state
         FROM r WHERE rn = 1
         UNION ALL
         SELECT r.day, r.n, r.e, r.inc, r.rn,
                GREATEST(0, walk.state + r.inc)
         FROM walk JOIN r ON r.rn = walk.rn + 1)
SELECT day, n AS n_events, e AS n_errors,
       CAST(inc AS BIGINT) AS inc_nano,
       CAST(state AS BIGINT) AS state_nano,
       state >= {_BCUSUM_H} AS alarm
FROM walk ORDER BY day
"""


def q_radiation_model_flows(sf_dir: str):
    """Radiation-model commuting flows vs the observed OD matrix —
    the parameter-free spatial-interaction model (Simini et al.
    2012) every transport study benchmarks against gravity: predicted
    T_ij = T_i·m_i·m_j / ((m_i+s_ij)(m_i+m_j+s_ij)) where s_ij is
    the population inside the circle of radius d_ij (strictly
    closer, exclusive of i and j).  Cell masses are the observed
    origin totals of the registry's hourly-cell OD matrix (cells on
    the 5×5 grid), d² and s_ij are exact integers, and each
    prediction is one mirrored double expression next to the
    observed flow and its absolute error.  Rows cover the observed
    non-diagonal pairs."""
    flows = q_od_matrix_daily(sf_dir)
    m = flows.groupby("o_cell")["n"].sum().to_dict()
    mass = [int(m.get(c, 0)) for c in range(25)]
    rows = []
    for r in flows.itertuples(index=False):
        i, j = int(r.o_cell), int(r.d_cell)
        if i == j:
            continue
        xi, yi = i % 5, i // 5
        xj, yj = j % 5, j // 5
        d2 = (xi - xj) ** 2 + (yi - yj) ** 2
        s = 0
        for k in range(25):
            if k in (i, j):
                continue
            dk = (xi - k % 5) ** 2 + (yi - k // 5) ** 2
            if dk < d2:
                s += mass[k]
        mi, mj = mass[i], mass[j]
        pred = (float(mi) * float(mi) * float(mj)) \
            / ((float(mi) + s) * (float(mi) + float(mj) + s))
        rows.append({
            "o_cell": i, "d_cell": j, "observed": int(r.n),
            "mass_o": mi, "mass_d": mj, "s_ij": s,
            "predicted": float(np.round(pred, 6)),
            "abs_err": float(np.round(
                abs(pred - float(int(r.n))), 6))})
    return pd.DataFrame(rows).astype({
        "o_cell": np.int64, "d_cell": np.int64,
        "observed": np.int64, "mass_o": np.int64,
        "mass_d": np.int64, "s_ij": np.int64})


SQL_RADIATION = """
WITH e AS (SELECT user_id, ts, event_id,
                  epoch_us(ts) // 86400000000 AS day,
                  (31 * user_id
                   + epoch_us(ts) // 3600000000) % 25 AS cell
           FROM events),
r AS (SELECT user_id, day, cell,
             ROW_NUMBER() OVER (PARTITION BY user_id, day
                                ORDER BY ts, event_id) AS rn_a,
             ROW_NUMBER() OVER (PARTITION BY user_id, day
                                ORDER BY ts DESC, event_id DESC)
               AS rn_d
      FROM e),
od AS (SELECT a.cell AS o_cell, b.cell AS d_cell,
              CAST(COUNT(*) AS BIGINT) AS n
       FROM r a JOIN r b
         ON a.user_id = b.user_id AND a.day = b.day
        AND a.rn_a = 1 AND b.rn_d = 1
       GROUP BY 1, 2),
mass AS (SELECT g.c AS cell, COALESCE(SUM(od.n), 0) AS m
         FROM (SELECT unnest(generate_series(0, 24)) AS c) g
         LEFT JOIN od ON od.o_cell = g.c GROUP BY 1),
pr AS (SELECT od.o_cell, od.d_cell, od.n,
              mo.m AS mi, md.m AS mj,
              (od.o_cell % 5 - od.d_cell % 5)
              * (od.o_cell % 5 - od.d_cell % 5)
              + (od.o_cell // 5 - od.d_cell // 5)
                * (od.o_cell // 5 - od.d_cell // 5) AS d2
       FROM od
       JOIN mass mo ON mo.cell = od.o_cell
       JOIN mass md ON md.cell = od.d_cell
       WHERE od.o_cell <> od.d_cell),
sij AS (SELECT pr.o_cell, pr.d_cell,
               COALESCE(SUM(mk.m), 0) AS s
        FROM pr LEFT JOIN mass mk
          ON mk.cell <> pr.o_cell AND mk.cell <> pr.d_cell
         AND (pr.o_cell % 5 - mk.cell % 5)
             * (pr.o_cell % 5 - mk.cell % 5)
             + (pr.o_cell // 5 - mk.cell // 5)
               * (pr.o_cell // 5 - mk.cell // 5) < pr.d2
        GROUP BY 1, 2)
SELECT pr.o_cell, pr.d_cell, pr.n AS observed,
       CAST(pr.mi AS BIGINT) AS mass_o,
       CAST(pr.mj AS BIGINT) AS mass_d,
       CAST(sij.s AS BIGINT) AS s_ij,
       ROUND((CAST(pr.mi AS DOUBLE) * CAST(pr.mi AS DOUBLE)
              * CAST(pr.mj AS DOUBLE))
             / ((CAST(pr.mi AS DOUBLE) + sij.s)
                * (CAST(pr.mi AS DOUBLE) + CAST(pr.mj AS DOUBLE)
                   + sij.s)), 6) AS predicted,
       ROUND(ABS((CAST(pr.mi AS DOUBLE) * CAST(pr.mi AS DOUBLE)
                  * CAST(pr.mj AS DOUBLE))
                 / ((CAST(pr.mi AS DOUBLE) + sij.s)
                    * (CAST(pr.mi AS DOUBLE)
                       + CAST(pr.mj AS DOUBLE) + sij.s))
                 - CAST(pr.n AS DOUBLE)), 6) AS abs_err
FROM pr JOIN sij ON sij.o_cell = pr.o_cell
                AND sij.d_cell = pr.d_cell
ORDER BY pr.o_cell, pr.d_cell
"""


def q_trajectory_self_intersections(sf_dir: str):
    """Per-user trajectory self-intersection count — the
    path-entanglement diagnostic (GPS-trace QA, tortuosity studies):
    consecutive-event legs of each user's hash-point path are
    segments, and two NON-ADJACENT legs cross iff the four
    orientation cross products are strictly opposite in sign on both
    segments — a PURE INTEGER predicate with no collinear/epsilon
    cases (proper crossings only, the robust-geometry convention).
    O(L²) vectorized per user inside the user-bucket shuffle; the
    twin replays the predicate in a leg self-join."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]) \
            .reset_index(drop=True)
        out = []
        for uid, gu in g.groupby("user_id", sort=False):
            e = gu["event_id"].to_numpy(np.int64)
            x = (e * 7919) % 1000
            y = (e * 104729) % 1000
            L = len(e) - 1
            if L < 3:
                out.append({"u": int(uid), "legs": max(L, 0),
                            "crossings": 0})
                continue
            ax, ay = x[:-1], y[:-1]
            bx, by = x[1:], y[1:]
            cr = 0
            for i in range(L - 2):
                js = np.arange(i + 2, L)
                o1 = (bx[i] - ax[i]) * (ay[js] - ay[i]) \
                    - (by[i] - ay[i]) * (ax[js] - ax[i])
                o2 = (bx[i] - ax[i]) * (by[js] - ay[i]) \
                    - (by[i] - ay[i]) * (bx[js] - ax[i])
                o3 = (bx[js] - ax[js]) * (ay[i] - ay[js]) \
                    - (by[js] - ay[js]) * (ax[i] - ax[js])
                o4 = (bx[js] - ax[js]) * (by[i] - ay[js]) \
                    - (by[js] - ay[js]) * (bx[i] - ax[js])
                cr += int(((np.sign(o1) * np.sign(o2) < 0)
                           & (np.sign(o3) * np.sign(o4) < 0)).sum())
            out.append({"u": int(uid), "legs": L, "crossings": cr})
        return pd.DataFrame(out, columns=["u", "legs", "crossings"])

    agg = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
        .groupby("u").aggregate(Sum("legs", alias_name="n_legs"),
                                Sum("crossings",
                                    alias_name="n_crossings"))
    ).to_pandas().sort_values("u").reset_index(drop=True)
    return pd.DataFrame({
        "user_id": agg["u"].astype(np.int64),
        "n_legs": agg["n_legs"].astype(np.int64),
        "n_crossings": agg["n_crossings"].astype(np.int64)})


SQL_TRAJ_INTERSECT = """
WITH p AS (SELECT user_id, ts, event_id,
                  (event_id * 7919) % 1000 AS x,
                  (event_id * 104729) % 1000 AS y
           FROM events),
legs AS (SELECT user_id, x AS ax, y AS ay,
                LEAD(x) OVER w AS bx, LEAD(y) OVER w AS byy,
                ROW_NUMBER() OVER w AS i
         FROM p WINDOW w AS (PARTITION BY user_id
                             ORDER BY ts, event_id)),
l AS (SELECT * FROM legs WHERE bx IS NOT NULL),
xx AS (SELECT a.user_id,
              CASE WHEN SIGN((a.bx - a.ax) * (b.ay - a.ay)
                             - (a.byy - a.ay) * (b.ax - a.ax))
                   * SIGN((a.bx - a.ax) * (b.byy - a.ay)
                          - (a.byy - a.ay) * (b.bx - a.ax)) < 0
                    AND SIGN((b.bx - b.ax) * (a.ay - b.ay)
                             - (b.byy - b.ay) * (a.ax - b.ax))
                   * SIGN((b.bx - b.ax) * (a.byy - b.ay)
                          - (b.byy - b.ay) * (a.bx - b.ax)) < 0
                   THEN 1 ELSE 0 END AS c
       FROM l a JOIN l b
         ON b.user_id = a.user_id AND b.i > a.i + 1),
nl AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_legs
       FROM l GROUP BY 1)
SELECT nl.user_id, nl.n_legs,
       CAST(COALESCE(SUM(xx.c), 0) AS BIGINT) AS n_crossings
FROM nl LEFT JOIN xx ON xx.user_id = nl.user_id
GROUP BY 1, 2 ORDER BY nl.user_id
"""


# z_{0.975} + z_{0.80} for 5%-two-sided / 80%-power, the classic
# planner constants, shipped verbatim to the twin
_AB_ZSUM2 = (1.959963985 + 0.8416212336) ** 2
_AB_RELS = (1, 2, 5)


def q_ab_sample_size_planner(sf_dir: str):
    """A/B-test sample-size planner from measured variance — the
    before-you-launch calculator (80 % power, 5 % two-sided): with
    σ² and the mean of event value estimated EXACTLY from cents
    moments, the required n per arm for relative effects of 1/2/5 %
    is ⌈2·(z_α+z_β)²·σ²/δ²⌉.  The z constant ships verbatim as one
    literal; σ² uses the n-scaled integer identity; CEIL runs on
    bit-identical doubles."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["value"])

    def part(t: pa.Table) -> pa.Table:
        v = np.floor(t["value"].to_numpy(zero_copy_only=False)
                     * 100 + 0.5).astype(np.int64)
        return pa.table({
            "_g": pa.array([0]), "n": pa.array([len(v)]),
            "s": pa.array([int(v.sum())]),
            "q": pa.array([int((v * v).sum())])})

    agg = relational.ds_to_table(
        ev.map_batches(part, batch_format="pyarrow")
        .groupby("_g").aggregate(Sum("n", alias_name="n"),
                                 Sum("s", alias_name="s"),
                                 Sum("q", alias_name="q"))
    ).to_pandas()
    n = int(agg["n"].iloc[0])
    s = int(agg["s"].iloc[0])
    q = int(agg["q"].iloc[0])
    var_num = n * q - s * s                  # n²·σ², exact
    sigma2 = float(var_num) / (float(n) * float(n))
    mean = float(s) / float(n)
    rows = []
    for rel in _AB_RELS:
        delta = mean * (float(rel) / 100.0)
        need = math.ceil(2.0 * _AB_ZSUM2 * sigma2 / (delta * delta))
        rows.append({
            "rel_effect_pct": rel,
            "mean_cents": float(np.round(mean, 6)),
            "sigma2_cents2": float(np.round(sigma2, 6)),
            "n_per_arm": int(need)})
    return pd.DataFrame(rows).astype({
        "rel_effect_pct": np.int64, "n_per_arm": np.int64})


def _sql_ab_planner() -> str:
    rels = ", ".join(f"({r})" for r in _AB_RELS)
    return f"""
WITH a AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
                  SUM(CAST(FLOOR(value * 100 + 0.5) AS HUGEINT))
                    AS s,
                  SUM(CAST(FLOOR(value * 100 + 0.5) AS HUGEINT)
                      * CAST(FLOOR(value * 100 + 0.5) AS HUGEINT))
                    AS q
           FROM events),
f AS (SELECT n,
             CAST(n * q - s * s AS DOUBLE)
             / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE)) AS sigma2,
             CAST(s AS DOUBLE) / CAST(n AS DOUBLE) AS mean
      FROM a),
r AS (SELECT * FROM (VALUES {rels}) t(rel))
SELECT r.rel AS rel_effect_pct,
       ROUND(f.mean, 6) AS mean_cents,
       ROUND(f.sigma2, 6) AS sigma2_cents2,
       CAST(CEIL(2.0 * {_AB_ZSUM2!r} * f.sigma2
                 / ((f.mean * (CAST(r.rel AS DOUBLE) / 100.0))
                    * (f.mean * (CAST(r.rel AS DOUBLE) / 100.0))))
            AS BIGINT) AS n_per_arm
FROM f, r ORDER BY rel_effect_pct
"""


def q_transition_dwell_percentiles(sf_dir: str):
    """Median dwell time per event-type transition — the companion
    the registry's transition COUNT matrix needs: how long do users
    sit between a click and the purchase that follows it?  Per
    consecutive (ts, event_id)-ordered pair within a user, the gap
    in whole seconds keys a (from, to, gap) reduce bounded by
    types² × gap domain, and the per-transition median is the exact
    lower order statistic — no float anywhere but the reported
    seconds."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]) \
            .reset_index(drop=True)
        u = g["user_id"].to_numpy(np.int64)
        sec = g["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64) // 1_000_000
        et = g["event_type"].to_numpy()
        same = np.zeros(len(g), dtype=bool)
        same[:-1] = u[1:] == u[:-1]
        src = et[:-1][same[:-1]]
        dst = et[1:][same[:-1]]
        gap = (sec[1:] - sec[:-1])[same[:-1]]
        out = pd.DataFrame({"a": src, "b": dst, "gap": gap,
                            "c": 1}) \
            .groupby(["a", "b", "gap"], sort=False).sum() \
            .reset_index()
        return out

    gt = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
        .groupby(["a", "b", "gap"]).aggregate(
            Sum("c", alias_name="c"))
    ).to_pandas()
    rows = []
    for (a, b), g in gt.groupby(["a", "b"]):
        g = g.sort_values("gap").reset_index(drop=True)
        n = int(g["c"].sum())
        k = (n - 1) // 2 + 1                 # lower median rank
        cum = g["c"].cumsum()
        med = int(g.loc[cum >= k, "gap"].iloc[0])
        rows.append({"from_type": a, "to_type": b,
                     "n_transitions": n, "median_gap_s": med})
    return pd.DataFrame(rows).sort_values(
        ["from_type", "to_type"]).reset_index(drop=True).astype({
            "n_transitions": np.int64, "median_gap_s": np.int64})


SQL_TRANSITION_DWELL = """
WITH s AS (SELECT user_id, ts, event_id, event_type,
                  epoch_us(ts) // 1000000 AS sec
           FROM events),
p AS (SELECT event_type AS a,
             LEAD(event_type) OVER w AS b,
             LEAD(sec) OVER w - sec AS gap
      FROM s WINDOW w AS (PARTITION BY user_id
                          ORDER BY ts, event_id)),
g AS (SELECT a, b, gap FROM p WHERE b IS NOT NULL),
r AS (SELECT a, b, gap,
             ROW_NUMBER() OVER (PARTITION BY a, b ORDER BY gap)
               AS rn,
             COUNT(*) OVER (PARTITION BY a, b) AS n
      FROM g)
SELECT a AS from_type, b AS to_type,
       CAST(MAX(n) AS BIGINT) AS n_transitions,
       CAST(MAX(CASE WHEN rn = (n - 1) // 2 + 1 THEN gap END)
            AS BIGINT) AS median_gap_s
FROM r GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_burstiness_user_gaps(sf_dir: str):
    """Goh–Barabási burstiness coefficient B = (σ−μ)/(σ+μ) of each
    user's inter-event times — the human-dynamics signature
    (B → 1 bursty, 0 Poissonian, −1 metronomic) that event-stream
    anomaly and bot detection both read.  Per-user gap moments
    (n, Σg, Σg²) fold as exact integers inside the user-bucket
    shuffle; σ uses the n-scaled integer variance numerator and B is
    one mirrored expression (users with <2 gaps report NULL like
    SQL)."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]) \
            .reset_index(drop=True)
        u = g["user_id"].to_numpy(np.int64)
        sec = g["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64) // 1_000_000
        same = np.zeros(len(g), dtype=bool)
        same[:-1] = u[1:] == u[:-1]
        uu = u[:-1][same[:-1]]
        gap = (sec[1:] - sec[:-1])[same[:-1]]
        out = pd.DataFrame({"u": uu, "n": 1, "s": gap,
                            "q": gap * gap}) \
            .groupby("u", sort=False).sum().reset_index()
        return out

    agg = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
        .groupby("u").aggregate(Sum("n", alias_name="n"),
                                Sum("s", alias_name="s"),
                                Sum("q", alias_name="q"))
    ).to_pandas().sort_values("u").reset_index(drop=True)
    rows = []
    for r in agg.itertuples(index=False):
        n, s, q = int(r.n), int(r.s), int(r.q)
        if n < 2:
            bb = None
        else:
            var_num = n * q - s * s          # n²·σ²
            sig = math.sqrt(float(var_num)) / float(n)
            mu = float(s) / float(n)
            bb = None if sig + mu == 0.0 else float(np.round(
                (sig - mu) / (sig + mu), 6))
        rows.append({"user_id": int(r.u), "n_gaps": n,
                     "burstiness": bb})
    return pd.DataFrame(rows).astype({
        "user_id": np.int64, "n_gaps": np.int64})


SQL_GOH_BURSTINESS = """
WITH s AS (SELECT user_id, ts, event_id,
                  epoch_us(ts) // 1000000 AS sec
           FROM events),
p AS (SELECT user_id,
             LEAD(sec) OVER w - sec AS gap
      FROM s WINDOW w AS (PARTITION BY user_id
                          ORDER BY ts, event_id)),
a AS (SELECT user_id, CAST(COUNT(gap) AS BIGINT) AS n,
             CAST(SUM(gap) AS HUGEINT) AS sg,
             SUM(CAST(gap AS HUGEINT) * gap) AS qg
      FROM p WHERE gap IS NOT NULL GROUP BY 1),
f AS (SELECT user_id, n, sg, qg,
             SQRT(CAST(n * qg - sg * sg AS DOUBLE))
             / CAST(n AS DOUBLE) AS sig,
             CAST(sg AS DOUBLE) / CAST(n AS DOUBLE) AS mu
      FROM a)
SELECT user_id, n AS n_gaps,
       CASE WHEN n < 2 THEN NULL
            WHEN sig + mu = 0.0 THEN NULL
            ELSE ROUND((sig - mu) / (sig + mu), 6) END
         AS burstiness
FROM f ORDER BY user_id
"""


_LINDLEY_SERVICE_S = 60


def q_lindley_waiting_times(sf_dir: str):
    """Lindley-recursion waiting-time replay per user — the G/G/1
    queue simulation W_{k+1} = max(0, W_k + S − A_k) that turns each
    user's event stream into the queueing delays a fixed 60-second
    server would cause: inter-arrival times are exact integer
    seconds, the recursion walks in exact integers inside the
    user-bucket shuffle, and the per-user mean/max waits are exact
    (mean as one mirrored division).  The twin replays the walk with
    a per-user recursive CTE over event rank."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]) \
            .reset_index(drop=True)
        out = []
        for uid, gu in g.groupby("user_id", sort=False):
            sec = gu["ts"].to_numpy().astype("datetime64[us]") \
                .astype(np.int64) // 1_000_000
            w = 0
            tot = 0
            mx = 0
            for i in range(1, len(sec)):
                a = int(sec[i] - sec[i - 1])
                w = max(0, w + _LINDLEY_SERVICE_S - a)
                tot += w
                mx = max(mx, w)
            out.append({"u": int(uid), "n_waits": len(sec) - 1,
                        "total_wait_s": tot, "max_wait_s": mx})
        return pd.DataFrame(out, columns=["u", "n_waits",
                                          "total_wait_s",
                                          "max_wait_s"])

    from ray.data.aggregate import Max
    agg = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
        .groupby("u").aggregate(
            Sum("n_waits", alias_name="n_waits"),
            Sum("total_wait_s", alias_name="total_wait_s"),
            Max("max_wait_s", alias_name="max_wait_s"))
    ).to_pandas().sort_values("u").reset_index(drop=True)
    nw = agg["n_waits"].to_numpy(np.int64)
    tw = agg["total_wait_s"].to_numpy(np.int64)
    return pd.DataFrame({
        "user_id": agg["u"].astype(np.int64),
        "n_waits": nw, "total_wait_s": tw,
        "max_wait_s": agg["max_wait_s"].astype(np.int64),
        "mean_wait_s": np.where(
            nw > 0, np.round(tw.astype(np.float64)
                             / np.maximum(nw, 1), 6), np.nan)})


SQL_LINDLEY = f"""
WITH RECURSIVE
s AS (SELECT user_id, ts, event_id,
             epoch_us(ts) // 1000000 AS sec,
             ROW_NUMBER() OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS rn
      FROM events),
a AS (SELECT s.user_id, s.rn - 1 AS k,
             s.sec - p.sec AS gap
      FROM s JOIN s p ON p.user_id = s.user_id
                     AND p.rn = s.rn - 1),
walk AS (SELECT user_id, k,
                GREATEST(0, {_LINDLEY_SERVICE_S} - gap) AS w
         FROM a WHERE k = 1
         UNION ALL
         SELECT a.user_id, a.k,
                GREATEST(0, walk.w + {_LINDLEY_SERVICE_S} - a.gap)
         FROM walk JOIN a ON a.user_id = walk.user_id
                         AND a.k = walk.k + 1),
agg AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_waits,
               CAST(SUM(w) AS BIGINT) AS total_wait_s,
               CAST(MAX(w) AS BIGINT) AS max_wait_s
        FROM walk GROUP BY 1),
spine AS (SELECT DISTINCT user_id FROM events)
SELECT spine.user_id, COALESCE(agg.n_waits, 0) AS n_waits,
       COALESCE(agg.total_wait_s, 0) AS total_wait_s,
       COALESCE(agg.max_wait_s, 0) AS max_wait_s,
       CASE WHEN COALESCE(agg.n_waits, 0) = 0 THEN NULL
            ELSE ROUND(CAST(agg.total_wait_s AS DOUBLE)
                       / CAST(agg.n_waits AS DOUBLE), 6) END
         AS mean_wait_s
FROM spine LEFT JOIN agg USING (user_id)
ORDER BY spine.user_id
"""


def q_p_chart_errors(sf_dir: str):
    """p-chart (proportion control chart) on the daily error rate —
    Shewhart SPC for attribute data, the simplest alarm a platform
    team ships: center line p̄ from exact totals, per-day 3σ limits
    p̄ ± 3·√(p̄(1−p̄)/n_d) (variable-width for unequal daily
    volumes), and out-of-control flags from comparisons of
    bit-identical doubles.  One bounded day reduce."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def part(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        err = (t["event_type"].to_numpy(zero_copy_only=False)
               == "error").astype(np.int64)
        g = pd.DataFrame({"day": us // 86_400_000_000,
                          "n": 1, "e": err}) \
            .groupby("day", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        ev.map_batches(part, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("n", alias_name="n"),
                                  Sum("e", alias_name="e"))
    ).to_pandas().sort_values("day").reset_index(drop=True)
    N = int(agg["n"].sum())
    E = int(agg["e"].sum())
    pbar = float(E) / float(N)
    rows = []
    for r in agg.itertuples(index=False):
        n, e = int(r.n), int(r.e)
        p = float(e) / float(n)
        sig = math.sqrt(pbar * (1.0 - pbar) / float(n))
        ucl = pbar + 3.0 * sig
        lcl = pbar - 3.0 * sig
        rows.append({
            "day": int(r.day), "n_events": n,
            "p_hat": float(np.round(p, 6)),
            "ucl": float(np.round(ucl, 6)),
            "lcl": float(np.round(lcl, 6)),
            "out_of_control": p > ucl or p < lcl})
    return pd.DataFrame(rows).astype({
        "day": np.int64, "n_events": np.int64})


SQL_P_CHART = """
WITH a AS (SELECT epoch_us(ts) // 86400000000 AS day,
                  CAST(COUNT(*) AS BIGINT) AS n,
                  CAST(SUM(CASE WHEN event_type = 'error'
                           THEN 1 ELSE 0 END) AS BIGINT) AS e
           FROM events GROUP BY 1),
t AS (SELECT SUM(n) AS nn, SUM(e) AS ee FROM a),
f AS (SELECT a.day, a.n, a.e,
             CAST(a.e AS DOUBLE) / CAST(a.n AS DOUBLE) AS p,
             CAST(t.ee AS DOUBLE) / CAST(t.nn AS DOUBLE) AS pbar,
             SQRT(CAST(t.ee AS DOUBLE) / CAST(t.nn AS DOUBLE)
                  * (1.0 - CAST(t.ee AS DOUBLE)
                     / CAST(t.nn AS DOUBLE))
                  / CAST(a.n AS DOUBLE)) AS sig
      FROM a, t)
SELECT day, n AS n_events, ROUND(p, 6) AS p_hat,
       ROUND(pbar + 3.0 * sig, 6) AS ucl,
       ROUND(pbar - 3.0 * sig, 6) AS lcl,
       p > pbar + 3.0 * sig OR p < pbar - 3.0 * sig
         AS out_of_control
FROM f ORDER BY day
"""


def q_rate_changepoint_day(sf_dir: str):
    """Single Poisson rate changepoint over the daily event counts —
    binary segmentation's first cut (the foundation of rate-shift
    alarms): for every candidate split the log-likelihood gain
    G = k₁·ln(λ₁) + k₂·ln(λ₂) − K·ln(λ) evaluates on bit-identical
    doubles from exact integer prefix counts, and the argmax (gain
    DESC, day) picks the change day.  Counts fold in one bounded
    reduce; the scan runs on the calendar-bounded series like every
    series op.  Degenerate empty-side splits are excluded on both
    sides."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts"])

    def part(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        g = pd.DataFrame({"day": us // 86_400_000_000, "c": 1}) \
            .groupby("day", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        ev.map_batches(part, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("c", alias_name="c"))
    ).to_pandas().sort_values("day").reset_index(drop=True)
    d0, d1 = int(agg["day"].min()), int(agg["day"].max())
    nd = d1 - d0 + 1
    y = np.zeros(nd, dtype=np.int64)
    y[agg["day"].to_numpy(np.int64) - d0] = \
        agg["c"].to_numpy(np.int64)
    K = int(y.sum())
    best = None
    for s in range(1, nd):                  # split BEFORE index s
        k1 = int(y[:s].sum())
        k2 = K - k1
        if k1 == 0 or k2 == 0:
            continue
        l1 = float(k1) / float(s)
        l2 = float(k2) / float(nd - s)
        lam = float(K) / float(nd)
        gain = (float(k1) * math.log(l1) + float(k2) * math.log(l2)
                - float(K) * math.log(lam))
        if best is None or gain > best[0] or \
                (gain == best[0] and s < best[1]):
            best = (gain, s)
    gain, s = best
    k1 = int(y[:s].sum())
    return pd.DataFrame([{
        "split_day": d0 + s, "n_days": nd,
        "rate_before": float(np.round(float(k1) / float(s), 6)),
        "rate_after": float(np.round(
            float(K - k1) / float(nd - s), 6)),
        "llr_gain": float(np.round(gain, 6))}]).astype({
            "split_day": np.int64, "n_days": np.int64})


SQL_RATE_CHANGEPOINT = """
WITH a AS (SELECT epoch_us(ts) // 86400000000 AS day,
                  CAST(COUNT(*) AS BIGINT) AS c
           FROM events GROUP BY 1),
mm AS (SELECT MIN(day) AS d0, MAX(day) AS d1 FROM a),
dense AS (SELECT g.day, g.idx, COALESCE(a.c, 0) AS c,
                 g.nd
          FROM (SELECT mm.d0 + s AS day, s AS idx,
                       mm.d1 - mm.d0 + 1 AS nd
                FROM mm, generate_series(0, 4095) t(s)
                WHERE mm.d0 + s <= mm.d1) g
          LEFT JOIN a ON a.day = g.day),
t AS (SELECT SUM(c) AS kk, MAX(nd) AS nd FROM dense),
pre AS (SELECT idx + 1 AS s,
               SUM(c) OVER (ORDER BY idx ROWS BETWEEN UNBOUNDED
                            PRECEDING AND CURRENT ROW) AS k1
        FROM dense),
g AS (SELECT pre.s, pre.k1, t.kk - pre.k1 AS k2, t.nd, t.kk
      FROM pre, t
      WHERE pre.s < t.nd AND pre.k1 > 0 AND t.kk - pre.k1 > 0),
sc AS (SELECT s, k1, k2, nd, kk,
              CAST(k1 AS DOUBLE) * LN(CAST(k1 AS DOUBLE)
                                      / CAST(s AS DOUBLE))
              + CAST(k2 AS DOUBLE) * LN(CAST(k2 AS DOUBLE)
                                        / CAST(nd - s AS DOUBLE))
              - CAST(kk AS DOUBLE) * LN(CAST(kk AS DOUBLE)
                                        / CAST(nd AS DOUBLE))
                AS gain
       FROM g)
SELECT CAST((SELECT d0 FROM mm) + s AS BIGINT) AS split_day,
       CAST(nd AS BIGINT) AS n_days,
       ROUND(CAST(k1 AS DOUBLE) / CAST(s AS DOUBLE), 6)
         AS rate_before,
       ROUND(CAST(k2 AS DOUBLE) / CAST(nd - s AS DOUBLE), 6)
         AS rate_after,
       ROUND(gain, 6) AS llr_gain
FROM sc ORDER BY gain DESC, s LIMIT 1
"""


def q_chronotype_divergence_users(sf_dir: str):
    """Chronotype divergence per user — whose diurnal activity
    profile differs most from the crowd (bot screening, timezone
    inference): each user's 24-bin hour histogram compares to the
    global profile by total-variation distance, kept exact as the
    integer numerator Σ_h |c_uh·N − g_h·n_u| over the single
    denominator 2·n_u·N.  One (user × hour) bounded reduce; the
    top-10 by (tv DESC, user) use the mirrored double for ordering
    on identical values."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        hr = (us % 86_400_000_000) // 3_600_000_000
        g = pd.DataFrame({
            "u": t["user_id"].to_numpy(zero_copy_only=False),
            "h": hr, "c": 1}) \
            .groupby(["u", "h"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    uh = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["u", "h"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    N = int(uh["c"].sum())
    gh = uh.groupby("h")["c"].sum().to_dict()
    rows = []
    for u, g in uh.groupby("u"):
        nu = int(g["c"].sum())
        cmap = dict(zip(g["h"].astype(int), g["c"].astype(int)))
        num = sum(abs(cmap.get(h, 0) * N - int(gh.get(h, 0)) * nu)
                  for h in range(24))
        tv = float(num) / (2.0 * float(nu) * float(N))
        rows.append({"user_id": int(u), "n_events": nu,
                     "tv_num": num,
                     "tv_distance": float(np.round(tv, 6))})
    out = pd.DataFrame(rows).sort_values(
        ["tv_distance", "user_id"],
        ascending=[False, True]).head(10).reset_index(drop=True)
    return out.astype({"user_id": np.int64, "n_events": np.int64,
                       "tv_num": np.int64})


SQL_CHRONOTYPE = """
WITH uh AS (SELECT user_id AS u,
                   (epoch_us(ts) % 86400000000) // 3600000000 AS h,
                   CAST(COUNT(*) AS BIGINT) AS c
            FROM events GROUP BY 1, 2),
t AS (SELECT SUM(c) AS nn FROM uh),
gh AS (SELECT h, SUM(c) AS g FROM uh GROUP BY 1),
un AS (SELECT u, SUM(c) AS nu FROM uh GROUP BY 1),
hours AS (SELECT unnest(generate_series(0, 23)) AS h),
grid AS (SELECT un.u, un.nu, hours.h,
                COALESCE(uh.c, 0) AS c, COALESCE(gh.g, 0) AS g
         FROM un CROSS JOIN hours
         LEFT JOIN uh ON uh.u = un.u AND uh.h = hours.h
         LEFT JOIN gh ON gh.h = hours.h),
s AS (SELECT u, MAX(nu) AS nu,
             SUM(ABS(CAST(c AS HUGEINT) * t.nn
                     - CAST(g AS HUGEINT) * nu)) AS num
      FROM grid, t GROUP BY u)
SELECT u AS user_id, CAST(nu AS BIGINT) AS n_events,
       CAST(num AS BIGINT) AS tv_num,
       ROUND(CAST(num AS DOUBLE)
             / (2.0 * CAST(nu AS DOUBLE)
                * CAST((SELECT nn FROM t) AS DOUBLE)), 6)
         AS tv_distance
FROM s ORDER BY tv_distance DESC, user_id LIMIT 10
"""


_PEAK_GAP_S = 28800


def q_peak_concurrency_sessions(sf_dir: str):
    """Peak concurrent sessions — the capacity number an ops team
    sizes connection pools by: sessions are the registry's 8-hour-
    gap sessionization, a session is live on [start, end], and the
    sweep applies −1 closures at end+1 BEFORE +1 openings at equal
    instants (so back-to-back sessions never double-count).  The
    maximum of the exact integer prefix walk and its EARLIEST
    attaining instant are reported; session boundaries come from one
    user-bucket pass."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]) \
            .reset_index(drop=True)
        u = g["user_id"].to_numpy(np.int64)
        sec = g["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64) // 1_000_000
        newu = np.zeros(len(g), dtype=bool)
        newu[0] = True
        newu[1:] = u[1:] != u[:-1]
        gap = np.zeros(len(g), dtype=np.int64)
        gap[1:] = sec[1:] - sec[:-1]
        news = newu | (gap > _PEAK_GAP_S)
        sid = np.cumsum(news) - 1
        df = pd.DataFrame({"sid": sid, "sec": sec})
        b = df.groupby("sid")["sec"].agg(["min", "max"]) \
            .reset_index()
        out = pd.concat([
            pd.DataFrame({"t": b["min"], "d": 1}),
            pd.DataFrame({"t": b["max"] + 1, "d": -1})])
        return pd.DataFrame(out.groupby(["t", "d"]).size()
                            .rename("c").reset_index())

    bd = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
        .groupby(["t", "d"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas().sort_values(["t", "d"]).reset_index(drop=True)
    cur = 0
    peak = -1
    peak_t = None
    for r in bd.itertuples(index=False):
        cur += int(r.d) * int(r.c)
        if cur > peak:
            peak = cur
            peak_t = int(r.t)
    n_sessions = int(bd.loc[bd["d"] == 1, "c"].sum())
    return pd.DataFrame([{
        "n_sessions": n_sessions, "peak_concurrency": peak,
        "peak_at_epoch_s": peak_t}]).astype({
            "n_sessions": np.int64, "peak_concurrency": np.int64,
            "peak_at_epoch_s": np.int64})


SQL_PEAK_CONCURRENCY = f"""
WITH s AS (SELECT user_id, epoch_us(ts) // 1000000 AS sec,
                  ts, event_id
           FROM events),
l AS (SELECT user_id, sec,
             CASE WHEN LAG(sec) OVER w IS NULL
                  OR sec - LAG(sec) OVER w > {_PEAK_GAP_S}
                  THEN 1 ELSE 0 END AS news
      FROM s WINDOW w AS (PARTITION BY user_id
                          ORDER BY ts, event_id)),
sid AS (SELECT user_id, sec,
               SUM(news) OVER (PARTITION BY user_id ORDER BY sec
                               ROWS BETWEEN UNBOUNDED PRECEDING
                               AND CURRENT ROW) AS sn
        FROM l),
b AS (SELECT user_id, sn, MIN(sec) AS t0, MAX(sec) + 1 AS t1
      FROM sid GROUP BY 1, 2),
ev2 AS (SELECT t0 AS t, 1 AS d FROM b
        UNION ALL SELECT t1, -1 FROM b),
w AS (SELECT t, d,
             SUM(d) OVER (ORDER BY t, d ROWS BETWEEN UNBOUNDED
                          PRECEDING AND CURRENT ROW) AS cur
      FROM ev2),
pk AS (SELECT MAX(cur) AS peak FROM w)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM b) AS n_sessions,
       CAST(pk.peak AS BIGINT) AS peak_concurrency,
       CAST((SELECT MIN(t) FROM w, pk WHERE w.cur = pk.peak)
            AS BIGINT) AS peak_at_epoch_s
FROM pk
"""


def q_theil_decomposition_types(sf_dir: str):
    """Theil-T inequality decomposition of event values BETWEEN and
    WITHIN event types — the additive property that makes Theil the
    inequality index of choice for group analysis (Gini can't split
    cleanly): T = T_between + Σ s_g·T_g with every entropy term
    nano-quantized before its exact integer fold (the registry's
    convention), value shares exact cents rationals.  The row
    reports T, the two components, and the between share — each one
    mirrored expression; the additivity T = B + W holds to the nano
    floor by construction."""
    import math as _m
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.floor(t["value"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        keep = cents > 0
        # nano-quantize per distinct VALUE: group by (et, v)
        g2 = pd.DataFrame({
            "et": t["event_type"].to_numpy(zero_copy_only=False)
            [keep], "v": cents[keep], "c": 1}) \
            .groupby(["et", "v"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g2, preserve_index=False)

    vd = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["et", "v"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    N = int(vd["c"].sum())
    S = int((vd["v"] * vd["c"]).sum())
    # T total = Σ (v/S)·ln(v·N/S) over rows (value-domain exact fold)
    t_nano = sum(
        int(_m.floor((int(r.v) * int(r.c) / S)
                     * _m.log(int(r.v) * N / S) * 1e9 + 0.5))
        for r in vd.itertuples(index=False))
    groups = vd.groupby("et")
    b_nano = 0
    w_nano = 0
    for et, g in groups:
        ng = int(g["c"].sum())
        sg = int((g["v"] * g["c"]).sum())
        b_nano += int(_m.floor((sg / S) * _m.log((sg / S)
                                                 / (ng / N))
                               * 1e9 + 0.5))
        tg = sum(int(_m.floor((int(r.v) * int(r.c) / sg)
                              * _m.log(int(r.v) * ng / sg)
                              * 1e9 + 0.5))
                 for r in g.itertuples(index=False))
        w_nano += int(_m.floor((sg / S) * (tg / 1e9) * 1e9 + 0.5))
    return pd.DataFrame([{
        "n_events": N,
        "theil_total": float(np.round(t_nano / 1e9, 6)),
        "theil_between": float(np.round(b_nano / 1e9, 6)),
        "theil_within": float(np.round(w_nano / 1e9, 6)),
        "between_share": float(np.round(
            b_nano / (b_nano + w_nano), 6))}]).astype({
            "n_events": np.int64})


SQL_THEIL_DECOMP = """
WITH b AS (SELECT event_type AS et,
                  CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS v
           FROM events
           WHERE CAST(FLOOR(value * 100 + 0.5) AS BIGINT) > 0),
vd AS (SELECT et, v, CAST(COUNT(*) AS BIGINT) AS c
       FROM b GROUP BY 1, 2),
t AS (SELECT SUM(c) AS nn, SUM(v * c) AS s FROM vd),
tot AS (SELECT SUM(CAST(FLOOR((CAST(vd.v AS DOUBLE) * vd.c / t.s)
                  * LN(CAST(vd.v AS DOUBLE) * t.nn / t.s)
                  * 1000000000.0 + 0.5) AS BIGINT)) AS tn
        FROM vd, t),
g AS (SELECT et, SUM(c) AS ng, SUM(v * c) AS sg
      FROM vd GROUP BY 1),
btw AS (SELECT SUM(CAST(FLOOR((CAST(g.sg AS DOUBLE) / t.s)
                   * LN((CAST(g.sg AS DOUBLE) / t.s)
                        / (CAST(g.ng AS DOUBLE) / t.nn))
                   * 1000000000.0 + 0.5) AS BIGINT)) AS bn
        FROM g, t),
tg AS (SELECT vd.et,
              SUM(CAST(FLOOR((CAST(vd.v AS DOUBLE) * vd.c / g.sg)
                  * LN(CAST(vd.v AS DOUBLE) * g.ng / g.sg)
                  * 1000000000.0 + 0.5) AS BIGINT)) AS tgn
       FROM vd JOIN g USING (et) GROUP BY 1),
wth AS (SELECT SUM(CAST(FLOOR((CAST(g.sg AS DOUBLE) / t.s)
                   * (CAST(tg.tgn AS DOUBLE) / 1e9)
                   * 1000000000.0 + 0.5) AS BIGINT)) AS wn
        FROM tg JOIN g USING (et), t)
SELECT CAST(t.nn AS BIGINT) AS n_events,
       ROUND(CAST(tot.tn AS DOUBLE) / 1e9, 6) AS theil_total,
       ROUND(CAST(btw.bn AS DOUBLE) / 1e9, 6) AS theil_between,
       ROUND(CAST(wth.wn AS DOUBLE) / 1e9, 6) AS theil_within,
       ROUND(CAST(btw.bn AS DOUBLE)
             / CAST(btw.bn + wth.wn AS DOUBLE), 6)
         AS between_share
FROM t, tot, btw, wth
"""


def q_median_of_means_value(sf_dir: str):
    """Median-of-means estimate of the mean event value — the
    heavy-tail-robust estimator modern bandit/statistics theory
    reaches for when averages can be poisoned: events split into 16
    deterministic hash buckets, bucket means stay exact rationals
    (Σᵢ, nᵢ), and the median bucket is selected by the EXACT
    cross-multiplication order a/b < c/d ⟺ a·d < c·b — no float
    enters until the winning mean divides once.  Compared on the
    row against the plain mean."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "value"])

    def part(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64) + np.uint64(1)
        b = ((eid * np.uint64(0xC2B2AE3D27D4EB4F | 1))
             >> np.uint64(60)).astype(np.int64)
        cents = np.floor(t["value"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({"b": b, "n": 1, "s": cents}) \
            .groupby("b", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        ev.map_batches(part, batch_format="pyarrow")
        .groupby("b").aggregate(Sum("n", alias_name="n"),
                                Sum("s", alias_name="s"))
    ).to_pandas()
    pairs = [(int(r.s), int(r.n), int(r.b))
             for r in agg.itertuples(index=False) if int(r.n) > 0]
    import functools

    def cmp(x, y):
        # a/b vs c/d by cross-multiplication (n > 0); equal ratios
        # tie to the smaller bucket id like the twin
        lhs = x[0] * y[1]
        rhs = y[0] * x[1]
        if lhs != rhs:
            return -1 if lhs < rhs else 1
        return -1 if x[2] < y[2] else (1 if x[2] > y[2] else 0)

    pairs.sort(key=functools.cmp_to_key(cmp))
    med_s, med_n, _ = pairs[(len(pairs) - 1) // 2]
    N = int(agg["n"].sum())
    S = int(agg["s"].sum())
    return pd.DataFrame([{
        "n_events": N, "k_buckets": len(pairs),
        "mom_bucket_n": med_n,
        "mom_mean_cents": float(np.round(
            float(med_s) / float(med_n), 6)),
        "plain_mean_cents": float(np.round(
            float(S) / float(N), 6))}]).astype({
            "n_events": np.int64, "k_buckets": np.int64,
            "mom_bucket_n": np.int64})


SQL_MEDIAN_OF_MEANS = f"""
WITH b AS (SELECT ((CAST(event_id AS HUGEINT) + 1)
                   * {0xC2B2AE3D27D4EB4F | 1})
                  % 18446744073709551616
                  // 1152921504606846976 AS bk,
                  CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS v
           FROM events),
g AS (SELECT bk, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(v) AS HUGEINT) AS s
      FROM b GROUP BY 1),
r AS (SELECT s, n,
             ROW_NUMBER() OVER (
               ORDER BY (SELECT COUNT(*) FROM g g2
                         WHERE g2.s * g.n < g.s * g2.n
                            OR (g2.s * g.n = g.s * g2.n
                                AND g2.bk < g.bk)), g.bk) AS rn,
             COUNT(*) OVER () AS k
      FROM g),
m AS (SELECT s, n, k FROM r WHERE rn = (k - 1) // 2 + 1),
t AS (SELECT SUM(n) AS nn, SUM(s) AS ss FROM g)
SELECT CAST(t.nn AS BIGINT) AS n_events,
       CAST(m.k AS BIGINT) AS k_buckets,
       CAST(m.n AS BIGINT) AS mom_bucket_n,
       ROUND(CAST(m.s AS DOUBLE) / CAST(m.n AS DOUBLE), 6)
         AS mom_mean_cents,
       ROUND(CAST(t.ss AS DOUBLE) / CAST(t.nn AS DOUBLE), 6)
         AS plain_mean_cents
FROM m, t
"""


_BDAY_BITS = 24


def q_birthday_collision_audit(sf_dir: str):
    """Birthday-paradox collision audit of a 24-bit ID space — the
    how-short-can-my-hash-be sizing check every id/partition scheme
    owes: event ids hash into 2²⁴ buckets (deterministic multiply
    hash), observed collisions = n − distinct buckets (exact), and
    the expected count n(n−1)/2^(b+1) is the mirrored birthday
    approximation beside it.  One bucket-distinct reduce."""
    from ray.data.aggregate import Count
    ev = _read(sf_dir, "events", ["event_id"])

    def part(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64) + np.uint64(1)
        h = ((eid * np.uint64(0x9E3779B97F4A7C15 | 1))
             >> np.uint64(64 - _BDAY_BITS)).astype(np.int64)
        return pa.table({"h": pa.array(np.unique(h))})

    dt = relational.ds_to_table(
        ev.map_batches(part, batch_format="pyarrow")
        .groupby("h").aggregate(Count(alias_name="_n")))
    ndist = dt.num_rows
    n = ev.count()
    coll = n - ndist
    exp = float(n) * float(n - 1) / float(1 << (_BDAY_BITS + 1))
    return pd.DataFrame([{
        "n_ids": n, "space_bits": _BDAY_BITS,
        "n_collisions": coll,
        "expected_collisions": float(np.round(exp, 6))}]).astype({
            "n_ids": np.int64, "space_bits": np.int64,
            "n_collisions": np.int64})


SQL_BIRTHDAY = f"""
WITH h AS (SELECT DISTINCT ((CAST(event_id AS HUGEINT) + 1)
                            * {0x9E3779B97F4A7C15 | 1})
                           % 18446744073709551616
                           // {1 << (64 - _BDAY_BITS)} AS h
           FROM events),
t AS (SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM events) AS n,
             (SELECT CAST(COUNT(*) AS BIGINT) FROM h) AS nd)
SELECT n AS n_ids, CAST({_BDAY_BITS} AS BIGINT) AS space_bits,
       n - nd AS n_collisions,
       ROUND(CAST(n AS DOUBLE) * CAST(n - 1 AS DOUBLE)
             / {float(1 << (_BDAY_BITS + 1))!r}, 6)
         AS expected_collisions
FROM t
"""


def q_weekend_shift_users(sf_dir: str):
    """Weekend-shift screening per user — the works-on-weekends
    behavioral flag (fraud/bot triage reads it next to chronotype):
    each user's weekend-event share compares to the population's
    with the exact integer cross-multiplication wᵤ·N_tot vs W_tot·nᵤ
    deciding the direction, and the binomial z-score against the
    population rate is the mirrored expression.  Weekday from the
    epoch-day mod-7 identity (1970-01-01 was a Thursday) — shared
    verbatim with the twin."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def part(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        day = us // 86_400_000_000
        dow = (day + 4) % 7                 # 0=Sun .. 6=Sat
        wk = ((dow == 0) | (dow == 6)).astype(np.int64)
        g = pd.DataFrame({
            "u": t["user_id"].to_numpy(zero_copy_only=False),
            "n": 1, "w": wk}) \
            .groupby("u", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        ev.map_batches(part, batch_format="pyarrow")
        .groupby("u").aggregate(Sum("n", alias_name="n"),
                                Sum("w", alias_name="w"))
    ).to_pandas().sort_values("u").reset_index(drop=True)
    N = int(agg["n"].sum())
    W = int(agg["w"].sum())
    p = float(W) / float(N)
    n = agg["n"].to_numpy(np.int64)
    w = agg["w"].to_numpy(np.int64)
    z = (w.astype(np.float64) - n * p) \
        / np.sqrt(n * (p * (1.0 - p)))
    return pd.DataFrame({
        "user_id": agg["u"].astype(np.int64),
        "n_events": n, "n_weekend": w,
        "shifted_up": w * N > W * n,
        "z_binomial": np.round(z, 6)})


SQL_WEEKEND_SHIFT = """
WITH e AS (SELECT user_id,
                  ((epoch_us(ts) // 86400000000) + 4) % 7 AS dow
           FROM events),
u AS (SELECT user_id AS u, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(CASE WHEN dow IN (0, 6) THEN 1 ELSE 0 END)
                  AS BIGINT) AS w
      FROM e GROUP BY 1),
t AS (SELECT SUM(n) AS nn, SUM(w) AS ww FROM u),
f AS (SELECT u.u, u.n, u.w, t.nn, t.ww,
             CAST(t.ww AS DOUBLE) / CAST(t.nn AS DOUBLE) AS p
      FROM u, t)
SELECT u AS user_id, n AS n_events, w AS n_weekend,
       w * nn > ww * n AS shifted_up,
       ROUND((CAST(w AS DOUBLE) - CAST(n AS DOUBLE) * p)
             / SQRT(CAST(n AS DOUBLE) * (p * (1.0 - p))), 6)
         AS z_binomial
FROM f ORDER BY user_id
"""


def q_kmv_distinct_users(sf_dir: str):
    """KMV (k-minimum-values, k=256) distinct-count sketch over event
    users — the mergeable distinct estimator that, unlike HLL, is
    FULLY DETERMINISTIC given its hash and therefore carries a real
    SQL oracle: est = (k−1)·2³²/h₍ₖ₎ from the k-th smallest distinct
    Knuth-multiplicative hash.  Per-batch k-smallest-distinct partials
    are a monotone combiner (any global k-minimum survives every
    batch's local top-k); the audit also computes the EXACT distinct
    count so the row reports its own relative error.  ndv < k
    degenerates to the exact count by construction."""
    from ray.data.aggregate import Count
    K = 256
    ev = _read(sf_dir, "events", ["user_id"])

    def part(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = np.unique((u * 2654435761) % 4294967296)
        return pa.table({"h": pa.array(h[:K])})

    hs = relational.ds_to_table(
        ev.map_batches(part, batch_format="pyarrow").repartition(1)
        .map_batches(lambda t: pa.table({
            "h": pa.array(np.unique(t["h"].to_numpy(
                zero_copy_only=False))[:K])}),
            batch_format="pyarrow", batch_size=None))
    hvals = hs["h"].to_numpy(zero_copy_only=False)
    exact = ev.map_batches(
        lambda t: pa.table({"u": pc.unique(t["user_id"])}),
        batch_format="pyarrow").groupby("u").count().count()
    if len(hvals) < K:
        est = float(len(hvals))
        hk = int(hvals[-1]) if len(hvals) else 0
    else:
        hk = int(hvals[K - 1])
        est = (K - 1) * 4294967296.0 / hk
    rel = abs(est - exact) / exact
    return pd.DataFrame({
        "k": pd.array([K], dtype=np.int64),
        "kth_hash": pd.array([hk], dtype=np.int64),
        "est": [round(est, 6)],
        "exact": pd.array([exact], dtype=np.int64),
        "rel_err": [round(rel, 6)]})


SQL_KMV = """
WITH h AS (SELECT DISTINCT (user_id * 2654435761) % 4294967296 AS h
           FROM events),
o AS (SELECT h, ROW_NUMBER() OVER (ORDER BY h) AS rn,
             COUNT(*) OVER () AS m FROM h),
kth AS (SELECT CASE WHEN MAX(m) >= 256
                    THEN MAX(CASE WHEN rn = 256 THEN h END)
                    ELSE MAX(h) END AS hk,
               MAX(m) AS m
        FROM o),
e AS (SELECT hk, m,
             CASE WHEN m >= 256 THEN 255 * 4294967296.0 / hk
                  ELSE CAST(m AS DOUBLE) END AS est,
             (SELECT COUNT(DISTINCT user_id) FROM events) AS exact
      FROM kth)
SELECT CAST(256 AS BIGINT) AS k, CAST(hk AS BIGINT) AS kth_hash,
       ROUND(est, 6) AS est, CAST(exact AS BIGINT) AS exact,
       ROUND(ABS(est - exact) / exact, 6) AS rel_err
FROM e
"""


def _bloom_seeds() -> list:
    """4 odd 64-bit multipliers for the Bloom positions — one seeded
    generator feeds BOTH the stage and the generated twin (the AMS
    contract: deterministic multiply-top-bits hash, real SQL
    oracle)."""
    rs = np.random.RandomState(90210)
    hi = rs.randint(0, 1 << 32, size=4).astype(np.uint64)
    lo = rs.randint(0, 1 << 32, size=4).astype(np.uint64)
    return [int((h << np.uint64(32)) | l | np.uint64(1))
            for h, l in zip(hi, lo)]


def q_bloom_fpr_audit(sf_dir: str):
    """Bloom-filter false-positive-rate audit — the is-1%-really-1%
    fidelity check for the registry's Bloom semi-join: build the
    16384-bit / 4-hash filter over DISTINCT purchase users, probe
    with the click-only users (true negatives by construction), and
    report the REALIZED FPR next to the fill-ratio estimate
    (bits/m)⁴.  The multiply-top-bits positions are deterministic
    given their seeds (mod-2⁶⁴ products numpy wraps natively and the
    twin reproduces in HUGEINT), so every count is exact.  One
    (user, flags) reduce feeds both passes; the ≤16384-row bit set
    broadcasts; per-batch probe partials reduce to one row —
    no user-scale driver pull anywhere."""
    from ray.data.aggregate import Max, Sum
    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    seeds = np.array(_bloom_seeds(), dtype=np.uint64)

    def flags(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        g = pd.DataFrame({
            "u": t["user_id"].to_numpy(zero_copy_only=False),
            "pur": (et == "purchase").astype(np.int64),
            "clk": (et == "click").astype(np.int64)}) \
            .groupby("u", sort=False).max().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    fl = ev.map_batches(flags, batch_format="pyarrow") \
        .groupby("u").aggregate(Max("pur", alias_name="pur"),
                                Max("clk", alias_name="clk")) \
        .materialize()

    def positions(u: np.ndarray) -> np.ndarray:
        x = u.astype(np.uint64) + np.uint64(1)
        return np.stack([(x * s) >> np.uint64(50) for s in seeds],
                        axis=1).astype(np.int64)

    def member_bits(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False)
        mem = u[t["pur"].to_numpy(zero_copy_only=False) == 1]
        pos = np.unique(positions(mem))
        return pa.table({"pos": pa.array(pos)})

    from ray.data.aggregate import Count
    bits = np.sort(relational.ds_to_table(
        fl.map_batches(member_bits, batch_format="pyarrow")
        .groupby("pos").aggregate(Count(alias_name="_n"))
    )["pos"].to_numpy(zero_copy_only=False))
    bref = ray.put(bits)

    def probe(t: pa.Table) -> pa.Table:
        bt = worker_cached(("bloom_bits", bref),
                           lambda: ray.get(bref))
        u = t["u"].to_numpy(zero_copy_only=False)
        pur = t["pur"].to_numpy(zero_copy_only=False)
        clk = t["clk"].to_numpy(zero_copy_only=False)
        nm = int((pur == 1).sum())
        pu = u[(clk == 1) & (pur == 0)]
        pos = positions(pu)
        fp = int(np.isin(pos, bt).all(axis=1).sum())
        return pa.table({"_g": pa.array([0]),
                         "nm": pa.array([nm]),
                         "npr": pa.array([len(pu)]),
                         "fp": pa.array([fp])})

    agg = relational.ds_to_table(
        fl.map_batches(probe, batch_format="pyarrow")
        .groupby("_g").aggregate(Sum("nm", alias_name="nm"),
                                 Sum("npr", alias_name="npr"),
                                 Sum("fp", alias_name="fp"))
    ).to_pandas()
    nm = int(agg["nm"].iloc[0])
    npr = int(agg["npr"].iloc[0])
    fp = int(agg["fp"].iloc[0])
    bs = int(len(bits))
    r = float(bs) / 16384.0
    return pd.DataFrame([{
        "n_members": nm, "n_probes": npr, "bits_set": bs,
        "false_pos": fp,
        "fpr": None if npr == 0 else
        float(np.round(float(fp) / float(npr), 6)),
        "fpr_est": float(np.round(r * r * r * r, 6))}]).astype({
            "n_members": np.int64, "n_probes": np.int64,
            "bits_set": np.int64, "false_pos": np.int64})


def _sql_bloom_fpr() -> str:
    vals = ", ".join(f"({a})" for a in _bloom_seeds())
    return f"""
WITH seeds AS (SELECT * FROM (VALUES {vals}) s(a)),
m AS (SELECT DISTINCT user_id AS u FROM events
      WHERE event_type = 'purchase'),
p AS (SELECT DISTINCT user_id AS u FROM events
      WHERE event_type = 'click'
        AND user_id NOT IN (SELECT u FROM m)),
bits AS (SELECT DISTINCT ((CAST(u AS HUGEINT) + 1) * a)
                % 18446744073709551616 // 1125899906842624 AS pos
         FROM m, seeds),
pp AS (SELECT DISTINCT u, ((CAST(u AS HUGEINT) + 1) * a)
              % 18446744073709551616 // 1125899906842624 AS pos
       FROM p, seeds),
hit AS (SELECT pp.u, COUNT(*) AS np,
               SUM(CASE WHEN bits.pos IS NOT NULL THEN 1 ELSE 0 END)
                 AS nh
        FROM pp LEFT JOIN bits ON bits.pos = pp.pos GROUP BY 1),
agg AS (SELECT (SELECT COUNT(*) FROM m) AS nm,
               (SELECT COUNT(*) FROM p) AS npr,
               (SELECT COUNT(*) FROM bits) AS bs,
               (SELECT COUNT(*) FROM hit WHERE np = nh) AS fp)
SELECT CAST(nm AS BIGINT) AS n_members,
       CAST(npr AS BIGINT) AS n_probes,
       CAST(bs AS BIGINT) AS bits_set,
       CAST(fp AS BIGINT) AS false_pos,
       CASE WHEN npr = 0 THEN NULL
            ELSE ROUND(CAST(fp AS DOUBLE) / CAST(npr AS DOUBLE), 6)
       END AS fpr,
       ROUND((CAST(bs AS DOUBLE) / 16384.0)
             * (CAST(bs AS DOUBLE) / 16384.0)
             * (CAST(bs AS DOUBLE) / 16384.0)
             * (CAST(bs AS DOUBLE) / 16384.0), 6) AS fpr_est
FROM agg
"""


def q_capture_recapture_users(sf_dir: str):
    """Chapman capture–recapture estimate of the total user
    population from the click and purchase "captures" — ecology's
    bias-corrected mark–recapture estimator, the same arithmetic a
    dedup census uses to size an unseen population from two
    overlapping samples: N̂ = (n_A+1)(n_B+1)/(m+1) − 1.  All counts
    come exact from the shared per-user flag reduce; the row reports
    the true distinct-user population and the realized relative
    error, both mirrored doubles."""
    from ray.data.aggregate import Sum
    fl = _user_event_flags(sf_dir, ("click", "purchase"))

    def part(t: pa.Table) -> pa.Table:
        a = t["f_click"].to_numpy(zero_copy_only=False)
        b = t["f_purchase"].to_numpy(zero_copy_only=False)
        return pa.table({
            "_g": pa.array([0]),
            "na": pa.array([int((a == 1).sum())]),
            "nb": pa.array([int((b == 1).sum())]),
            "m": pa.array([int(((a == 1) & (b == 1)).sum())]),
            "n": pa.array([t.num_rows])})

    agg = relational.ds_to_table(
        fl.map_batches(part, batch_format="pyarrow")
        .groupby("_g").aggregate(Sum("na", alias_name="na"),
                                 Sum("nb", alias_name="nb"),
                                 Sum("m", alias_name="m"),
                                 Sum("n", alias_name="n"))
    ).to_pandas()
    na, nb = int(agg["na"].iloc[0]), int(agg["nb"].iloc[0])
    m, n = int(agg["m"].iloc[0]), int(agg["n"].iloc[0])
    est = float((na + 1) * (nb + 1)) / float(m + 1) - 1.0
    return pd.DataFrame([{
        "n_click": na, "n_purchase": nb, "n_both": m,
        "n_true": n,
        "chapman_est": float(np.round(est, 6)),
        "rel_err": float(np.round(
            abs(est - float(n)) / float(n), 6))}]).astype({
            "n_click": np.int64, "n_purchase": np.int64,
            "n_both": np.int64, "n_true": np.int64})


SQL_CAPTURE_RECAPTURE = """
WITH uf AS (SELECT user_id,
                   MAX(CASE WHEN event_type = 'click'
                       THEN 1 ELSE 0 END) AS a,
                   MAX(CASE WHEN event_type = 'purchase'
                       THEN 1 ELSE 0 END) AS b
            FROM events GROUP BY 1),
agg AS (SELECT SUM(a) AS na, SUM(b) AS nb,
               SUM(a * b) AS m, COUNT(*) AS n FROM uf),
e AS (SELECT na, nb, m, n,
             CAST((na + 1) * (nb + 1) AS DOUBLE)
             / CAST(m + 1 AS DOUBLE) - 1.0 AS est
      FROM agg)
SELECT CAST(na AS BIGINT) AS n_click, CAST(nb AS BIGINT)
         AS n_purchase,
       CAST(m AS BIGINT) AS n_both, CAST(n AS BIGINT) AS n_true,
       ROUND(est, 6) AS chapman_est,
       ROUND(ABS(est - CAST(n AS DOUBLE)) / CAST(n AS DOUBLE), 6)
         AS rel_err
FROM e
"""


_THETA_K = 256


def q_theta_sketch_set_ops(sf_dir: str):
    """θ-sketch set algebra over the click and purchase user sets —
    the KMV extension that answers UNION / INTERSECTION / Jaccard
    cardinality questions from two mergeable 256-value sketches
    (Dataflow's classic "how many users did both campaigns touch"
    without a shuffle of either set).  Reuses the registry KMV hash
    (Knuth 32-bit) so the sketch is fully deterministic and carries a
    real SQL oracle: any union-minimum that belongs to a set is
    necessarily inside that set's own k minima, so the driver finish
    needs only the two k-lists.  est_∪ = (k−1)·2³²/θ, est_∩ =
    (c/k)·est_∪ with c the union minima present in BOTH lists;
    < k distinct hashes degenerates to exact counting on both sides.
    The row carries the exact user-level |A∪B| / |A∩B| from the
    shared flag reduce plus realized errors."""
    from ray.data.aggregate import Sum
    fl = _user_event_flags(sf_dir, ("click", "purchase"))
    K = _THETA_K

    def minima(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = t["f_click"].to_numpy(zero_copy_only=False) == 1
        b = t["f_purchase"].to_numpy(zero_copy_only=False) == 1
        h = (u * 2654435761) % 4294967296
        ha = np.unique(h[a])[:K]
        hb = np.unique(h[b])[:K]
        return pa.table({
            "h": pa.array(np.concatenate([ha, hb])),
            "s": pa.array(np.concatenate([
                np.zeros(len(ha), dtype=np.int64),
                np.ones(len(hb), dtype=np.int64)]))})

    lists = relational.ds_to_table(
        fl.map_batches(minima, batch_format="pyarrow")
        .repartition(1)
        .map_batches(lambda t: pa.Table.from_pandas(
            pd.DataFrame({
                "h": t["h"].to_numpy(zero_copy_only=False),
                "s": t["s"].to_numpy(zero_copy_only=False)})
            .groupby("s", sort=False)
            .apply(lambda g: g.drop_duplicates("h").nsmallest(K, "h"))
            .reset_index(drop=True), preserve_index=False),
            batch_format="pyarrow", batch_size=None)
    ).to_pandas()
    la = set(lists.loc[lists["s"] == 0, "h"].astype(int))
    lb = set(lists.loc[lists["s"] == 1, "h"].astype(int))
    u = sorted(la | lb)

    def exact_part(t: pa.Table) -> pa.Table:
        a = t["f_click"].to_numpy(zero_copy_only=False) == 1
        b = t["f_purchase"].to_numpy(zero_copy_only=False) == 1
        return pa.table({
            "_g": pa.array([0]),
            "eu": pa.array([int((a | b).sum())]),
            "ei": pa.array([int((a & b).sum())])})

    ex = relational.ds_to_table(
        fl.map_batches(exact_part, batch_format="pyarrow")
        .groupby("_g").aggregate(Sum("eu", alias_name="eu"),
                                 Sum("ei", alias_name="ei"))
    ).to_pandas()
    eu, ei = int(ex["eu"].iloc[0]), int(ex["ei"].iloc[0])

    if len(u) < K:
        theta = int(u[-1]) if u else 0
        est_u = float(len(u))
        c = len(la & lb)
        est_i = float(c)
        jac = None if not u else float(np.round(
            float(c) / float(len(u)), 6))
    else:
        theta = int(u[K - 1])
        est_u = (K - 1) * 4294967296.0 / theta
        mins = set(u[:K])
        c = len(mins & la & lb)
        est_i = (float(c) / 256.0) * est_u
        jac = float(np.round(float(c) / 256.0, 6))
    return pd.DataFrame([{
        "k": K, "theta": theta, "c_both": c,
        "est_union": float(np.round(est_u, 6)),
        "est_inter": float(np.round(est_i, 6)),
        "jaccard_est": jac,
        "exact_union": eu, "exact_inter": ei,
        "err_union": float(np.round(
            abs(est_u - float(eu)) / float(eu), 6)),
        "err_inter": None if ei == 0 else float(np.round(
            abs(est_i - float(ei)) / float(ei), 6))}]).astype({
            "k": np.int64, "theta": np.int64, "c_both": np.int64,
            "exact_union": np.int64, "exact_inter": np.int64})


SQL_THETA_SET_OPS = """
WITH uf AS (SELECT user_id,
                   MAX(CASE WHEN event_type = 'click'
                       THEN 1 ELSE 0 END) AS a,
                   MAX(CASE WHEN event_type = 'purchase'
                       THEN 1 ELSE 0 END) AS b
            FROM events GROUP BY 1),
ha AS (SELECT DISTINCT (user_id * 2654435761) % 4294967296 AS h
       FROM uf WHERE a = 1),
hb AS (SELECT DISTINCT (user_id * 2654435761) % 4294967296 AS h
       FROM uf WHERE b = 1),
un AS (SELECT h FROM (SELECT h FROM ha UNION SELECT h FROM hb)),
o AS (SELECT h, ROW_NUMBER() OVER (ORDER BY h) AS rn,
             COUNT(*) OVER () AS m FROM un),
kth AS (SELECT CASE WHEN MAX(m) >= 256
                    THEN MAX(CASE WHEN rn = 256 THEN h END)
                    ELSE MAX(h) END AS theta,
               MAX(m) AS m FROM o),
cc AS (SELECT COUNT(*) AS c
       FROM o, kth
       WHERE o.rn <= LEAST(kth.m, 256)
         AND o.h IN (SELECT h FROM ha)
         AND o.h IN (SELECT h FROM hb)),
exact AS (SELECT SUM(CASE WHEN a = 1 OR b = 1 THEN 1 ELSE 0 END)
                   AS eu,
                 SUM(a * b) AS ei
          FROM uf),
e AS (SELECT kth.theta, kth.m, cc.c, exact.eu, exact.ei,
             CASE WHEN kth.m >= 256
                  THEN 255 * 4294967296.0 / kth.theta
                  ELSE CAST(kth.m AS DOUBLE) END AS est_u
      FROM kth, cc, exact),
f AS (SELECT *,
             CASE WHEN m >= 256
                  THEN (CAST(c AS DOUBLE) / 256.0) * est_u
                  ELSE CAST(c AS DOUBLE) END AS est_i
      FROM e)
SELECT CAST(256 AS BIGINT) AS k, CAST(theta AS BIGINT) AS theta,
       CAST(c AS BIGINT) AS c_both,
       ROUND(est_u, 6) AS est_union, ROUND(est_i, 6) AS est_inter,
       CASE WHEN m >= 256 THEN ROUND(CAST(c AS DOUBLE) / 256.0, 6)
            WHEN m = 0 THEN NULL
            ELSE ROUND(CAST(c AS DOUBLE) / CAST(m AS DOUBLE), 6)
       END AS jaccard_est,
       CAST(eu AS BIGINT) AS exact_union,
       CAST(ei AS BIGINT) AS exact_inter,
       ROUND(ABS(est_u - CAST(eu AS DOUBLE))
             / CAST(eu AS DOUBLE), 6) AS err_union,
       CASE WHEN ei = 0 THEN NULL
            ELSE ROUND(ABS(est_i - CAST(ei AS DOUBLE))
                       / CAST(ei AS DOUBLE), 6) END AS err_inter
FROM f
"""


_RR_SEED = 0x9E3779B97F4A7C15 | 1


def q_randomized_response_rate(sf_dir: str):
    """Local-DP randomized response estimate of the purchase-user
    rate (Warner's classic mechanism, the RAPPOR building block):
    each user's true bit is flipped with probability 1/4 before
    aggregation, and the unbiased estimate p̂ = (p_obs − q)/(1 − 2q)
    recovers the population rate without any individual's true bit
    being trusted.  The "randomness" is a deterministic top-2-bits
    multiply hash (the registry's mod-2⁶⁴ contract) so every count is
    exact and the twin reproduces the flips bit-for-bit; the row
    reports the true rate and realized absolute error.  One shared
    per-user flag reduce, ≤1-row partials per batch."""
    from ray.data.aggregate import Sum
    fl = _user_event_flags(sf_dir, ("purchase",))

    def part(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False).astype(np.uint64) \
            + np.uint64(1)
        b = t["f_purchase"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        flip = ((u * np.uint64(_RR_SEED)) >> np.uint64(62) == 0) \
            .astype(np.int64)
        rep = b ^ flip
        return pa.table({
            "_g": pa.array([0]), "n": pa.array([t.num_rows]),
            "nt": pa.array([int(b.sum())]),
            "nr": pa.array([int(rep.sum())])})

    agg = relational.ds_to_table(
        fl.map_batches(part, batch_format="pyarrow")
        .groupby("_g").aggregate(Sum("n", alias_name="n"),
                                 Sum("nt", alias_name="nt"),
                                 Sum("nr", alias_name="nr"))
    ).to_pandas()
    n = int(agg["n"].iloc[0])
    nt = int(agg["nt"].iloc[0])
    nr = int(agg["nr"].iloc[0])
    p_obs = float(nr) / float(n)
    p_est = (p_obs - 0.25) * 2.0
    p_true = float(nt) / float(n)
    return pd.DataFrame([{
        "n_users": n, "n_true_purchase": nt, "n_reported": nr,
        "p_obs": float(np.round(p_obs, 6)),
        "p_est": float(np.round(p_est, 6)),
        "p_true": float(np.round(p_true, 6)),
        "abs_err": float(np.round(abs(p_est - p_true), 6))}]) \
        .astype({"n_users": np.int64, "n_true_purchase": np.int64,
                 "n_reported": np.int64})


SQL_RANDOMIZED_RESPONSE = f"""
WITH uf AS (SELECT user_id,
                   MAX(CASE WHEN event_type = 'purchase'
                       THEN 1 ELSE 0 END) AS b
            FROM events GROUP BY 1),
r AS (SELECT b,
             CASE WHEN ((CAST(user_id AS HUGEINT) + 1) * {_RR_SEED})
                       % 18446744073709551616
                       // 4611686018427387904 = 0
                  THEN 1 - b ELSE b END AS rep
      FROM uf),
agg AS (SELECT COUNT(*) AS n, SUM(b) AS nt, SUM(rep) AS nr FROM r),
e AS (SELECT n, nt, nr,
             CAST(nr AS DOUBLE) / CAST(n AS DOUBLE) AS p_obs,
             CAST(nt AS DOUBLE) / CAST(n AS DOUBLE) AS p_true
      FROM agg)
SELECT CAST(n AS BIGINT) AS n_users,
       CAST(nt AS BIGINT) AS n_true_purchase,
       CAST(nr AS BIGINT) AS n_reported,
       ROUND(p_obs, 6) AS p_obs,
       ROUND((p_obs - 0.25) * 2.0, 6) AS p_est,
       ROUND(p_true, 6) AS p_true,
       ROUND(ABS((p_obs - 0.25) * 2.0 - p_true), 6) AS abs_err
FROM e
"""


_ERLANG_MU = 20.0     # service rate per server per day
_ERLANG_CMAX = 16


def q_erlang_c_capacity(sf_dir: str):
    """Erlang-C capacity planning from the event arrival stream —
    the queueing table an on-call/capacity planner reads: with
    arrival rate λ = events/day measured exactly from the data and a
    fixed per-server service rate μ = 20/day, the probability an
    arrival waits P_wait(c) for every pool size c ≤ 16 via the
    numerically-stable Erlang-B recursion B_c = a·B_{c−1}/(c +
    a·B_{c−1}) — 16 steps of identical left-to-right double ops that
    the generated twin unrolls CTE-by-CTE, so both sides walk the
    same IEEE sequence.  λ's numerator/denominator (events, days)
    are exact ints from one pass."""
    from ray.data.aggregate import Max, Min, Sum
    ev = _read(sf_dir, "events", ["ts"])

    def part(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        day = us // 86_400_000_000
        return pa.table({"_g": pa.array([0]),
                         "n": pa.array([t.num_rows]),
                         "d0": pa.array([int(day.min())]),
                         "d1": pa.array([int(day.max())])})

    agg = relational.ds_to_table(
        ev.map_batches(part, batch_format="pyarrow")
        .groupby("_g").aggregate(Sum("n", alias_name="n"),
                                 Min("d0", alias_name="d0"),
                                 Max("d1", alias_name="d1"))
    ).to_pandas()
    n = int(agg["n"].iloc[0])
    days = int(agg["d1"].iloc[0]) - int(agg["d0"].iloc[0]) + 1
    lam = float(n) / float(days)
    a = lam / _ERLANG_MU
    rows = []
    b = 1.0
    for c in range(1, _ERLANG_CMAX + 1):
        b = a * b / (c + a * b)
        rho = a / c
        if rho >= 1.0:
            pw = None
        else:
            pw = b / (1.0 - rho * (1.0 - b))
        rows.append({
            "servers": c, "n_events": n, "n_days": days,
            "offered_load": float(np.round(a, 6)),
            "utilization": float(np.round(rho, 6)),
            "erlang_b": float(np.round(b, 6)),
            "p_wait": None if pw is None else
            float(np.round(pw, 6))})
    return pd.DataFrame(rows).astype({
        "servers": np.int64, "n_events": np.int64,
        "n_days": np.int64})


def _sql_erlang_c() -> str:
    parts = ["b0 AS (SELECT 1.0 AS b, a.a FROM a)"]
    for c in range(1, _ERLANG_CMAX + 1):
        parts.append(
            f"b{c} AS (SELECT a * b / ({c} + a * b) AS b, a "
            f"FROM b{c - 1})")
    selects = []
    for c in range(1, _ERLANG_CMAX + 1):
        selects.append(f"""SELECT {c} AS servers, t.n AS n_events,
  t.days AS n_days, ROUND(a.a, 6) AS offered_load,
  ROUND(a.a / {c}, 6) AS utilization,
  ROUND(b{c}.b, 6) AS erlang_b,
  CASE WHEN a.a / {c} >= 1.0 THEN NULL
       ELSE ROUND(b{c}.b / (1.0 - (a.a / {c}) * (1.0 - b{c}.b)), 6)
  END AS p_wait
FROM t, a, b{c}""")
    return ("WITH t AS (SELECT CAST(COUNT(*) AS BIGINT) AS n, "
            "CAST(MAX(epoch_us(ts) // 86400000000) "
            "- MIN(epoch_us(ts) // 86400000000) + 1 AS BIGINT) "
            "AS days FROM events),\n"
            "a AS (SELECT CAST(n AS DOUBLE) / CAST(days AS DOUBLE) "
            f"/ {_ERLANG_MU} AS a FROM t),\n"
            + ",\n".join(parts) + "\n"
            + "\nUNION ALL\n".join(selects)
            + "\nORDER BY servers")


_VIS_AREA2_MIN = 2000


def q_visvalingam_filter_events(sf_dir: str):
    """Single-pass Visvalingam trajectory filter per user — the
    effective-area line simplification (the cartographer's
    alternative to Douglas-Peucker) in its one-sweep form: a
    trajectory vertex survives iff it is an endpoint or the DOUBLED
    triangle area of (prev, self, next) is ≥ 2000 — an exact integer
    cross product, so the keep decision can never float-flip.
    Trajectories are the per-user event point sequences in (ts,
    event_id) order (positions from the event-id hash); the pass is
    one vectorized boundary-flag scan inside the user-bucket shuffle
    and the twin replays it with LAG/LEAD."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]) \
            .reset_index(drop=True)
        u = g["user_id"].to_numpy(np.int64)
        e = g["event_id"].to_numpy(np.int64)
        x = (e * 7919) % 1000
        y = (e * 104729) % 1000
        n = len(g)
        same_prev = np.zeros(n, dtype=bool)
        same_prev[1:] = u[1:] == u[:-1]
        same_next = np.zeros(n, dtype=bool)
        same_next[:-1] = u[1:] == u[:-1]
        interior = same_prev & same_next
        a2 = np.zeros(n, dtype=np.int64)
        i = np.arange(1, n - 1)
        a2[1:-1] = np.abs(
            (x[i] - x[i - 1]) * (y[i + 1] - y[i - 1])
            - (y[i] - y[i - 1]) * (x[i + 1] - x[i - 1]))
        keep = ~interior | (a2 >= _VIS_AREA2_MIN)
        out = pd.DataFrame({"u": u, "pn": 1,
                            "kept": keep.astype(np.int64)}) \
            .groupby("u", sort=False).sum().reset_index()
        return out

    agg = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
        .groupby("u").aggregate(Sum("pn", alias_name="n_points"),
                                Sum("kept", alias_name="n_kept"))
    ).to_pandas().sort_values("u").reset_index(drop=True)
    return pd.DataFrame({
        "user_id": agg["u"].astype(np.int64),
        "n_points": agg["n_points"].astype(np.int64),
        "n_kept": agg["n_kept"].astype(np.int64),
        "kept_share": np.round(
            agg["n_kept"].to_numpy(np.int64).astype(np.float64)
            / agg["n_points"].to_numpy(np.int64), 6)})


SQL_VISVALINGAM = f"""
WITH p AS (SELECT user_id, ts, event_id,
                  (event_id * 7919) % 1000 AS x,
                  (event_id * 104729) % 1000 AS y
           FROM events),
w AS (SELECT user_id, x, y,
             LAG(x) OVER win AS px, LAG(y) OVER win AS py,
             LEAD(x) OVER win AS nx, LEAD(y) OVER win AS ny
      FROM p WINDOW win AS (PARTITION BY user_id
                            ORDER BY ts, event_id)),
k AS (SELECT user_id,
             CASE WHEN px IS NULL OR nx IS NULL THEN 1
                  WHEN ABS((x - px) * (ny - py)
                           - (y - py) * (nx - px))
                       >= {_VIS_AREA2_MIN} THEN 1
                  ELSE 0 END AS kept
      FROM w)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_points,
       CAST(SUM(kept) AS BIGINT) AS n_kept,
       ROUND(CAST(SUM(kept) AS DOUBLE) / COUNT(*), 6) AS kept_share
FROM k GROUP BY 1 ORDER BY user_id
"""


def q_sequential_pattern_support(sf_dir: str):
    """Sequential-pattern support mining (SPADE-style, length 3):
    for every ordered triple of event types, how many users' event
    streams contain it as a SUBSEQUENCE (arbitrary gaps, strict
    (ts, event_id) order) — the market-basket-over-time mining step
    behind journey analysis, generalizing the registry's fixed
    funnels to all |T|³ patterns.  Per user the greedy matcher
    (first a, first b after it, any c after that) decides each
    pattern with three searchsorted probes inside the user-bucket
    shuffle; supports fold as exact ints.  The twin burns the
    strict-order triple self-join."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]) \
            .reset_index(drop=True)
        types = sorted(g["event_type"].unique())
        rows: dict = {}
        for uid, gu in g.groupby("user_id", sort=False):
            et = gu["event_type"].to_numpy()
            pos = {t: np.nonzero(et == t)[0] for t in types}
            for a in types:
                pa_ = pos[a]
                if not len(pa_):
                    continue
                fa = pa_[0]
                for b in types:
                    pb = pos[b]
                    j = np.searchsorted(pb, fa + 1)
                    if j >= len(pb):
                        continue
                    fb = pb[j]
                    for c in types:
                        pc_ = pos[c]
                        if np.searchsorted(pc_, fb + 1) < len(pc_):
                            key = (a, b, c)
                            rows[key] = rows.get(key, 0) + 1
        if not rows:
            return pd.DataFrame({
                "a": pd.Series([], dtype=str),
                "b": pd.Series([], dtype=str),
                "c": pd.Series([], dtype=str),
                "pn": pd.Series([], dtype=np.int64)})
        return pd.DataFrame(
            [{"a": a, "b": b, "c": c, "pn": v}
             for (a, b, c), v in rows.items()],
            columns=["a", "b", "c", "pn"])

    agg = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
        .groupby(["a", "b", "c"]).aggregate(
            Sum("pn", alias_name="n_users"))
    ).to_pandas().sort_values(["a", "b", "c"]).reset_index(drop=True)
    return agg.astype({"n_users": np.int64})


SQL_SEQ_PATTERN = """
WITH e AS (SELECT user_id, ts, event_id, event_type FROM events),
t3 AS (SELECT DISTINCT a.user_id, a.event_type AS a,
                       b.event_type AS b, c.event_type AS c
       FROM e a
       JOIN e b ON b.user_id = a.user_id
              AND (b.ts > a.ts OR (b.ts = a.ts
                                   AND b.event_id > a.event_id))
       JOIN e c ON c.user_id = a.user_id
              AND (c.ts > b.ts OR (c.ts = b.ts
                                   AND c.event_id > b.event_id)))
SELECT a, b, c, CAST(COUNT(*) AS BIGINT) AS n_users
FROM t3 GROUP BY 1, 2, 3 ORDER BY a, b, c
"""


def q_knox_spacetime_events(sf_dir: str):
    """Knox space-time interaction test over the event stream — the
    classic epidemiology screen for does-close-in-space-also-mean-
    close-in-time (disease clusters, crime contagion, bot bursts).
    Each event sits at its user's home point (the shared synthetic-
    point convention) → 5×5 spatial cell, and on an epoch-day.  The
    whole test reduces to ONE bounded (cell, day) count table; all
    four pair counts are exact integers via the ordered-product
    identity  #pairs = (Σ c_a·c_b − n)/2  (the diagonal removes the
    self-pairs, cross terms appear twice):  X = same-cell ∧ |Δday|≤3,
    Ns = same-cell, Nt = |Δday|≤3, N = C(n,2).  The expectation
    E = Ns·Nt/N and z = (X−E)/√E each spend exactly one mirrored
    float operation."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def cellday(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        day = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        px = (u * 7919) % 1000
        py = (u * 104729) % 1000
        cell = 5 * (py // 200) + px // 200
        g = pd.DataFrame({"cell": cell, "day": day, "c": 1}) \
            .groupby(["cell", "day"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        ev.map_batches(cellday, batch_format="pyarrow")
        .groupby(["cell", "day"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    n = int(g["c"].sum())
    # S_st: same cell AND |Δday| ≤ 3 — per-cell banded product sum
    s_st = 0
    for _, sub in g.groupby("cell"):
        days = sub["day"].to_numpy(np.int64)
        cs = sub["c"].to_numpy(np.int64)
        order = np.argsort(days)
        days, cs = days[order], cs[order]
        for off in range(-3, 4):
            idx = np.searchsorted(days, days + off)
            ok = (idx < len(days))
            hit = np.zeros(len(days), dtype=bool)
            hit[ok] = days[idx[ok]] == days[ok] + off
            s_st += int((cs[hit] * cs[np.minimum(idx, len(days) - 1)
                                      ][hit]).sum())
    cell_tot = g.groupby("cell")["c"].sum()
    day_tot = g.groupby("day")["c"].sum()
    s_s = int((cell_tot.to_numpy(np.int64) ** 2).sum())
    dt = day_tot.reset_index()
    dd = dt["day"].to_numpy(np.int64)
    dc = dt["c"].to_numpy(np.int64)
    order = np.argsort(dd)
    dd, dc = dd[order], dc[order]
    s_t = 0
    for off in range(-3, 4):
        idx = np.searchsorted(dd, dd + off)
        ok = idx < len(dd)
        hit = np.zeros(len(dd), dtype=bool)
        hit[ok] = dd[idx[ok]] == dd[ok] + off
        s_t += int((dc[hit] * dc[np.minimum(idx, len(dd) - 1)]
                    [hit]).sum())
    x_knox = (s_st - n) // 2
    ns = (s_s - n) // 2
    nt = (s_t - n) // 2
    npairs = n * (n - 1) // 2
    e = float(ns * nt) / float(npairs)
    z = (float(x_knox) - e) / float(np.sqrt(e))
    return pd.DataFrame([{
        "n_events": n, "x_knox": x_knox, "ns_space": ns,
        "nt_time": nt, "n_pairs": npairs,
        "e_knox": np.round(e, 6), "z_knox": np.round(z, 6)}]) \
        .astype({"n_events": np.int64, "x_knox": np.int64,
                 "ns_space": np.int64, "nt_time": np.int64,
                 "n_pairs": np.int64})


SQL_KNOX = """
WITH e AS (SELECT 5 * (((user_id * 104729) % 1000) // 200)
                  + ((user_id * 7919) % 1000) // 200 AS cell,
                  epoch_us(ts) // 86400000000 AS day
           FROM events),
g AS (SELECT cell, day, CAST(COUNT(*) AS BIGINT) AS c
      FROM e GROUP BY 1, 2),
n AS (SELECT SUM(c) AS n FROM g),
sst AS (SELECT SUM(CAST(a.c AS HUGEINT) * b.c) AS s
        FROM g a JOIN g b ON a.cell = b.cell
                         AND ABS(a.day - b.day) <= 3),
ct AS (SELECT cell, SUM(c) AS t FROM g GROUP BY 1),
ss AS (SELECT SUM(CAST(t AS HUGEINT) * t) AS s FROM ct),
dt AS (SELECT day, SUM(c) AS t FROM g GROUP BY 1),
st AS (SELECT SUM(CAST(a.t AS HUGEINT) * b.t) AS s
       FROM dt a JOIN dt b ON ABS(a.day - b.day) <= 3),
k AS (SELECT n.n,
             CAST((sst.s - n.n) // 2 AS HUGEINT) AS x,
             CAST((ss.s - n.n) // 2 AS HUGEINT) AS ns,
             CAST((st.s - n.n) // 2 AS HUGEINT) AS nt,
             CAST(n.n * (n.n - 1) // 2 AS HUGEINT) AS np
      FROM n, sst, ss, st),
f AS (SELECT *, CAST(ns * nt AS DOUBLE) / CAST(np AS DOUBLE) AS e
      FROM k)
SELECT CAST(n AS BIGINT) AS n_events, CAST(x AS BIGINT) AS x_knox,
       CAST(ns AS BIGINT) AS ns_space, CAST(nt AS BIGINT) AS nt_time,
       CAST(np AS BIGINT) AS n_pairs, ROUND(e, 6) AS e_knox,
       ROUND((CAST(x AS DOUBLE) - e) / SQRT(e), 6) AS z_knox
FROM f
"""


def q_cochran_armitage_errors(sf_dir: str):
    """Cochran–Armitage trend test: does the ERROR-event rate trend
    with hour of day (scores t = 0..23)?  The dose-response screen
    for binary outcomes — more powerful than the 24-df chi-square
    when the alternative is a monotone drift.  The whole test folds
    to a 24-row (hour, n, errors) reduce; the cleared statistic
    A = N·Σtr − R·Σtn and curvature B = N·Σt²n − (Σtn)² are exact
    integers, and z = A/√(R(N−R)B/N) spends the only float ops,
    mirrored verbatim in the twin."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        hour = (t["ts"].to_numpy(zero_copy_only=False)
                .astype("datetime64[us]").astype(np.int64)
                // 3_600_000_000) % 24
        err = (pc.equal(t["event_type"], "error")
               .to_numpy(zero_copy_only=False)).astype(np.int64)
        g = pd.DataFrame({"hour": hour, "n": 1, "r": err}) \
            .groupby("hour", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("hour").aggregate(Sum("n", alias_name="n"),
                                   Sum("r", alias_name="r"))
    ).to_pandas()
    hour = g["hour"].to_numpy(np.int64)
    n_i = g["n"].to_numpy(np.int64)
    r_i = g["r"].to_numpy(np.int64)
    N = int(n_i.sum())
    R = int(r_i.sum())
    st_n = int((hour * n_i).sum())
    st_r = int((hour * r_i).sum())
    st2_n = int((hour * hour * n_i).sum())
    a_num = N * st_r - R * st_n
    b_num = N * st2_n - st_n * st_n
    z = float(a_num) / float(np.sqrt(
        float(R * (N - R) * b_num) / float(N)))
    return pd.DataFrame([{
        "n_events": N, "n_errors": R, "a_num": a_num,
        "b_num": b_num, "z_trend": np.round(z, 6)}]).astype({
            "n_events": np.int64, "n_errors": np.int64,
            "a_num": np.int64, "b_num": np.int64})


SQL_COCHRAN_ARMITAGE = """
WITH e AS (SELECT (epoch_us(ts) // 3600000000) % 24 AS hour,
                  CASE WHEN event_type = 'error' THEN 1 ELSE 0 END
                    AS r
           FROM events),
g AS (SELECT hour, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(r) AS BIGINT) AS r
      FROM e GROUP BY 1),
t AS (SELECT SUM(n) AS nn, SUM(r) AS rr,
             SUM(hour * n) AS stn, SUM(hour * r) AS str_,
             SUM(hour * hour * n) AS st2n
      FROM g),
f AS (SELECT nn, rr, nn * str_ - rr * stn AS a_num,
             nn * st2n - stn * stn AS b_num
      FROM t)
SELECT CAST(nn AS BIGINT) AS n_events, CAST(rr AS BIGINT) AS n_errors,
       CAST(a_num AS BIGINT) AS a_num, CAST(b_num AS BIGINT) AS b_num,
       ROUND(CAST(a_num AS DOUBLE)
             / SQRT(CAST(rr * (nn - rr) * b_num AS DOUBLE)
                    / CAST(nn AS DOUBLE)), 6) AS z_trend
FROM f
"""


def q_cliffs_delta_value(sf_dir: str):
    """Cliff's delta between purchase and click event values — the
    ordinal effect size robust to any monotone transform:
    δ = (#(purchase>click) − #(purchase<click)) / (nₚ·n_c).  Exact
    pair counts from one bounded (side, cents)-distinct reduce via
    sorted cumulative counts — no O(n²) pass anywhere distributed —
    and the standard magnitude band (|δ| vs .147/.33/.474) is decided
    by INTEGER cross-multiplication |gt−lt|·1000 vs k·nₚn_c, so a δ
    sitting exactly on a band edge can't flip on float noise.  One
    mirrored division for δ itself."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"],
                        value_set=pa.array(["click", "purchase"]))
        t = t.filter(keep)
        v = np.round(t["value"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        side = pc.equal(t["event_type"], "purchase") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({"side": side, "v": v, "c": 1}) \
            .groupby(["side", "v"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["side", "v"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    cl = g[g["side"] == 0].sort_values("v")
    pu = g[g["side"] == 1].sort_values("v")
    cv = cl["v"].to_numpy(np.int64)
    cc = cl["c"].to_numpy(np.int64)
    pv = pu["v"].to_numpy(np.int64)
    pc_ = pu["c"].to_numpy(np.int64)
    ccum = np.concatenate([[0], np.cumsum(cc)])
    lo = np.searchsorted(cv, pv, side="left")    # #click < v
    hi = np.searchsorted(cv, pv, side="right")   # #click ≤ v
    gt = int((pc_.astype(object) * ccum[lo].astype(object)).sum())
    tie = int((pc_.astype(object)
               * (ccum[hi] - ccum[lo]).astype(object)).sum())
    nc = int(cc.sum())
    npu = int(pc_.sum())
    lt = npu * nc - gt - tie
    d_num = gt - lt
    den = npu * nc
    band = ("negligible" if abs(d_num) * 1000 < 147 * den
            else "small" if abs(d_num) * 1000 < 330 * den
            else "medium" if abs(d_num) * 1000 < 474 * den
            else "large")
    return pd.DataFrame([{
        "n_purchase": npu, "n_click": nc, "n_gt": gt, "n_lt": lt,
        "n_tie": tie, "delta": np.round(float(d_num) / float(den), 6),
        "magnitude": band}]).astype({
            "n_purchase": np.int64, "n_click": np.int64,
            "n_gt": np.int64, "n_lt": np.int64, "n_tie": np.int64})


SQL_CLIFFS_DELTA = """
WITH x AS (SELECT CAST(ROUND(value * 100) AS BIGINT) AS v,
                  CAST(COUNT(*) AS BIGINT) AS c
           FROM events WHERE event_type = 'click' GROUP BY 1),
y AS (SELECT CAST(ROUND(value * 100) AS BIGINT) AS v,
             CAST(COUNT(*) AS BIGINT) AS c
      FROM events WHERE event_type = 'purchase' GROUP BY 1),
p AS (SELECT
        SUM(CASE WHEN y.v > x.v
                 THEN CAST(y.c AS HUGEINT) * x.c ELSE 0 END) AS gt,
        SUM(CASE WHEN y.v < x.v
                 THEN CAST(y.c AS HUGEINT) * x.c ELSE 0 END) AS lt,
        SUM(CASE WHEN y.v = x.v
                 THEN CAST(y.c AS HUGEINT) * x.c ELSE 0 END) AS tie
      FROM y CROSS JOIN x),
n AS (SELECT (SELECT SUM(c) FROM y) AS np_,
             (SELECT SUM(c) FROM x) AS nc_)
SELECT CAST(np_ AS BIGINT) AS n_purchase, CAST(nc_ AS BIGINT)
         AS n_click,
       CAST(gt AS BIGINT) AS n_gt, CAST(lt AS BIGINT) AS n_lt,
       CAST(tie AS BIGINT) AS n_tie,
       ROUND(CAST(gt - lt AS DOUBLE) / CAST(np_ * nc_ AS DOUBLE), 6)
         AS delta,
       CASE WHEN ABS(gt - lt) * 1000 < 147 * np_ * nc_
              THEN 'negligible'
            WHEN ABS(gt - lt) * 1000 < 330 * np_ * nc_ THEN 'small'
            WHEN ABS(gt - lt) * 1000 < 474 * np_ * nc_ THEN 'medium'
            ELSE 'large' END AS magnitude
FROM p, n
"""


def q_lru_stack_distance(sf_dir: str):
    """LRU cache hit-rate replay over each user's event-type stream
    via Mattson's stack-distance characterization (working-set
    theory): an access HITS a size-C LRU cache iff the number of
    DISTINCT other types touched since its previous access is < C —
    no cache needs simulating, so one pass yields the hit count for
    EVERY capacity at once.  The small type alphabet makes the
    distance computable with per-type last-seen positions (5
    vectorized passes, no per-event Python in the distributed
    stage); first accesses are compulsory misses.  Hit counts are
    exact integers; each capacity row spends one mirrored
    division."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["user_id", "ts", "event_id"])
        u = df["user_id"].to_numpy(np.int64)
        codes, types = pd.factorize(df["event_type"])
        n = len(df)
        k = len(types)
        newu = np.ones(n, dtype=bool)
        newu[1:] = u[1:] != u[:-1]
        # users are contiguous after the sort, so per-user resets are
        # just a clamp against the user's first row index: last-seen
        # per type = global running max of that type's positions,
        # invalidated when it predates the current user run
        ustart = np.maximum.accumulate(
            np.where(newu, np.arange(n), 0))
        idx_all = np.arange(n)
        cols = []
        prev = np.full(n, -1, dtype=np.int64)
        sd = np.full(n, -1, dtype=np.int64)   # -1 = first access
        for tcode in range(k):
            posv = np.where(codes == tcode, idx_all, -1)
            m = np.maximum.accumulate(posv)
            lp = np.where(m >= ustart, m, -1)
            cols.append(lp)
            m_excl = np.concatenate(([np.int64(-1)], m[:-1]))
            own = codes == tcode
            prev[own] = np.where(m_excl[own] >= ustart[own],
                                 m_excl[own], -1)
        lastpos = np.stack(cols, axis=1)
        has_prev = prev >= 0
        idx = np.where(has_prev)[0]
        if len(idx):
            lp = lastpos[idx]                  # state AT access i
            pv = prev[idx][:, None]
            own = codes[idx]
            between = (lp > pv) & (lp < idx[:, None])
            between[np.arange(len(idx)), own] = False
            sd[idx] = between.sum(axis=1)
        rows = []
        for cap in (1, 2, 4):
            hits = int(((sd >= 0) & (sd < cap)).sum())
            rows.append({"capacity": cap, "n_hits": hits,
                         "n_accesses": n})
        return pd.DataFrame(rows)

    agg = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
        .groupby("capacity").aggregate(
            Sum("n_hits", alias_name="n_hits"),
            Sum("n_accesses", alias_name="n_accesses"))
    ).to_pandas().sort_values("capacity").reset_index(drop=True)
    agg["hit_rate"] = (agg["n_hits"] / agg["n_accesses"]).round(6)
    return agg[["capacity", "n_hits", "n_accesses", "hit_rate"]] \
        .astype({"capacity": np.int64, "n_hits": np.int64,
                 "n_accesses": np.int64})


SQL_LRU_STACK = """
WITH e AS (SELECT user_id AS u, event_type AS t,
                  ROW_NUMBER() OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS rn
           FROM events),
p AS (SELECT u, t, rn,
             LAG(rn) OVER (PARTITION BY u, t ORDER BY rn) AS prev
      FROM e),
sd AS (SELECT p.u, p.rn,
              COUNT(DISTINCT e2.t) AS sd
       FROM p LEFT JOIN e e2
         ON e2.u = p.u AND e2.rn > p.prev AND e2.rn < p.rn
       WHERE p.prev IS NOT NULL
       GROUP BY 1, 2),
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM e),
h AS (SELECT c.cap,
             CAST((SELECT COUNT(*) FROM sd
                   WHERE sd.sd < c.cap) AS BIGINT) AS n_hits
      FROM (SELECT unnest([1, 2, 4]) AS cap) c)
SELECT CAST(h.cap AS BIGINT) AS capacity, h.n_hits,
       tot.n AS n_accesses,
       ROUND(CAST(h.n_hits AS DOUBLE) / CAST(tot.n AS DOUBLE), 6)
         AS hit_rate
FROM h, tot ORDER BY h.cap
"""


def q_mood_median_test(sf_dir: str):
    """Mood's median test, click vs purchase values — the bluntest,
    most assumption-free two-sample location test: dichotomize at the
    POOLED lower median (an exact order statistic) and chi-square the
    resulting 2×2.  a/b/c/d are integer counts (strictly-above vs
    not-above, the tie convention stated in both engines) and
    χ² = N(ad−bc)²/((a+b)(c+d)(a+c)(b+d)) is ONE mirrored division
    of exact integers."""
    g = _click_purchase_value_counts(sf_dir)
    g = g.sort_values("v").reset_index(drop=True)
    n_tot = int(g["c"].sum())
    k = (n_tot + 1) // 2
    cum = g["c"].cumsum()
    med = int(g.loc[cum >= k, "v"].iloc[0])
    cl = g[g["side"] == 0]
    pu = g[g["side"] == 1]
    a = int(pu.loc[pu["v"] > med, "c"].sum())   # purchase above
    b = int(pu["c"].sum()) - a
    c = int(cl.loc[cl["v"] > med, "c"].sum())   # click above
    d = int(cl["c"].sum()) - c
    num = n_tot * (a * d - b * c) * (a * d - b * c)
    den = (a + b) * (c + d) * (a + c) * (b + d)
    return pd.DataFrame([{
        "pooled_median_c": med, "n_purch_above": a,
        "n_purch_below": b, "n_click_above": c, "n_click_below": d,
        "chi2": np.round(float(num) / float(den), 6)}]).astype({
            "pooled_median_c": np.int64, "n_purch_above": np.int64,
            "n_purch_below": np.int64, "n_click_above": np.int64,
            "n_click_below": np.int64})


SQL_MOOD_MEDIAN = f"""
WITH {SQL_CP_COUNTS_CTE.strip()},
n AS (SELECT SUM(c) AS n FROM g),
med AS (SELECT v FROM (
          SELECT v, SUM(c) OVER (ORDER BY v) AS cum
          FROM (SELECT v, SUM(c) AS c FROM g GROUP BY 1)), n
        WHERE cum >= (n.n + 1) // 2 ORDER BY v LIMIT 1),
t AS (SELECT
        CAST(SUM(CASE WHEN side = 1 AND g.v > med.v THEN c
                 ELSE 0 END) AS BIGINT) AS a,
        CAST(SUM(CASE WHEN side = 1 AND g.v <= med.v THEN c
                 ELSE 0 END) AS BIGINT) AS b,
        CAST(SUM(CASE WHEN side = 0 AND g.v > med.v THEN c
                 ELSE 0 END) AS BIGINT) AS c_,
        CAST(SUM(CASE WHEN side = 0 AND g.v <= med.v THEN c
                 ELSE 0 END) AS BIGINT) AS d
      FROM g, med),
f AS (SELECT t.*, med.v AS med, n.n FROM t, med, n)
SELECT med AS pooled_median_c, a AS n_purch_above,
       b AS n_purch_below, c_ AS n_click_above, d AS n_click_below,
       ROUND(CAST(n * CAST(a * d - b * c_ AS HUGEINT)
                  * (a * d - b * c_) AS DOUBLE)
             / CAST(CAST(a + b AS HUGEINT) * (c_ + d) * (a + c_)
                    * (b + d) AS DOUBLE), 6) AS chi2
FROM f
"""


def q_ansari_bradley_scale(sf_dir: str):
    """Ansari–Bradley two-sample SCALE test (do purchase values spread
    wider than clicks around a common center?) — scores rank from
    BOTH ends: s(r) = min(r, N+1−r), small at the extremes.  The tie
    convention is deterministic clicks-first-within-value (stated in
    both engines), so the purchase score sum folds EXACTLY from the
    (side, cents) counts with the closed-form series
    Σ_{r=a}^{b} min(r, N+1−r) — pure integer arithmetic, and the
    null moments E = m(N+2)/4 (even N) clear to one mirrored z."""
    g = _click_purchase_value_counts(sf_dir)
    piv = g.pivot_table(index="v", columns="side", values="c",
                        fill_value=0, aggfunc="sum").sort_index()
    for s in (0, 1):
        if s not in piv.columns:
            piv[s] = 0
    cc = piv[0].to_numpy(np.int64)
    pc_ = piv[1].to_numpy(np.int64)
    tot = cc + pc_
    n_tot = int(tot.sum())
    m = int(pc_.sum())
    h = (n_tot + 1) // 2

    def tsum(a: int, b: int) -> int:
        if b < a:
            return 0
        return (a + b) * (b - a + 1) // 2

    def smin(a: int, b: int) -> int:
        # Σ_{r=a..b} min(r, N+1−r): r for r ≤ h, N+1−r beyond
        lo_hi = min(b, h)
        s = tsum(a, lo_hi)
        if b > h:
            aa = max(a, h + 1)
            s += (n_tot + 1) * (b - aa + 1) - tsum(aa, b)
        return s

    ab = 0
    lo = 0
    for i in range(len(tot)):
        c_all = int(tot[i])
        c_click = int(cc[i])
        c_pur = int(pc_[i])
        if c_pur:
            # clicks occupy [lo+1, lo+c_click]; purchases after
            a0 = lo + c_click + 1
            ab += smin(a0, a0 + c_pur - 1)
        lo += c_all
    if n_tot % 2 == 0:
        e4 = m * (n_tot + 2)            # 4·E[AB]
        v48 = m * (n_tot - m) * (n_tot + 2) * (n_tot - 2)
        var = float(v48) / (48.0 * (n_tot - 1))
    else:
        e4 = m * (n_tot + 1) * (n_tot + 1) // n_tot
        v48 = m * (n_tot - m) * (n_tot + 1) \
            * (3 + n_tot * n_tot)
        var = float(v48) / (48.0 * n_tot * n_tot)
    z = (float(4 * ab - e4) / 4.0) / float(np.sqrt(var))
    return pd.DataFrame([{
        "n_total": n_tot, "n_purchase": m, "ab_score": ab,
        "e4_null": e4, "z_ab": np.round(z, 6)}]).astype({
            "n_total": np.int64, "n_purchase": np.int64,
            "ab_score": np.int64, "e4_null": np.int64})


def _sql_ansari_bradley() -> str:
    # Σ_{r=a..b} min(r, N+1−r) closed form as a SQL macro-expression
    return f"""
WITH {SQL_CP_COUNTS_CTE.strip()},
pv AS (SELECT v, SUM(CASE WHEN side = 0 THEN c ELSE 0 END) AS cc,
             SUM(CASE WHEN side = 1 THEN c ELSE 0 END) AS cp
       FROM g GROUP BY 1),
n AS (SELECT SUM(cc + cp) AS nt, SUM(cp) AS m,
             (SUM(cc + cp) + 1) // 2 AS h FROM pv),
r AS (SELECT v, cc, cp,
             COALESCE(SUM(cc + cp) OVER (ORDER BY v
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
               0) AS lo
      FROM pv),
s AS (SELECT r.*, n.nt, n.h, lo + cc + 1 AS a0,
             lo + cc + cp AS b0
      FROM r, n WHERE cp > 0),
terms AS (SELECT
    CASE WHEN LEAST(b0, h) >= a0
         THEN (a0 + LEAST(b0, h)) * (LEAST(b0, h) - a0 + 1) // 2
         ELSE 0 END
    + CASE WHEN b0 > h THEN
        (nt + 1) * (b0 - GREATEST(a0, h + 1) + 1)
        - CASE WHEN b0 >= GREATEST(a0, h + 1)
               THEN (GREATEST(a0, h + 1) + b0)
                    * (b0 - GREATEST(a0, h + 1) + 1) // 2
               ELSE 0 END
      ELSE 0 END AS t
  FROM s),
ab AS (SELECT CAST(COALESCE(SUM(t), 0) AS BIGINT) AS ab FROM terms),
f AS (SELECT ab.ab, n.nt, n.m,
             CASE WHEN n.nt % 2 = 0
                  THEN n.m * (n.nt + 2)
                  ELSE n.m * (n.nt + 1) * (n.nt + 1) // n.nt
             END AS e4,
             CASE WHEN n.nt % 2 = 0
                  THEN CAST(n.m * (n.nt - n.m) * (n.nt + 2)
                            * (n.nt - 2) AS DOUBLE)
                       / (48.0 * (n.nt - 1))
                  ELSE CAST(n.m * (n.nt - n.m) * (n.nt + 1)
                            * (3 + n.nt * n.nt) AS DOUBLE)
                       / (48.0 * n.nt * n.nt)
             END AS var
      FROM ab, n)
SELECT CAST(nt AS BIGINT) AS n_total, CAST(m AS BIGINT)
         AS n_purchase,
       ab AS ab_score, CAST(e4 AS BIGINT) AS e4_null,
       ROUND((CAST(4 * ab - e4 AS DOUBLE) / 4.0) / SQRT(var), 6)
         AS z_ab
FROM f
"""


def q_cramer_von_mises_2samp(sf_dir: str):
    """Two-sample Cramér–von Mises statistic, click vs purchase — the
    whole-distribution distance (KS sees only the worst point; CvM
    integrates every gap): T = nm/N² Σ_k (F̂(z_k)−Ĝ(z_k))² over the
    pooled sample.  Clearing denominators makes the core
    Σ c_v·(m·cumx_v − n·cumy_v)² an ARBITRARY-PRECISION integer from
    the shared counts reduce; T spends one mirrored division
    t_num/(N²·n·m)."""
    g = _click_purchase_value_counts(sf_dir)
    piv = g.pivot_table(index="v", columns="side", values="c",
                        fill_value=0, aggfunc="sum").sort_index()
    for s in (0, 1):
        if s not in piv.columns:
            piv[s] = 0
    cx = piv[0].to_numpy(np.int64)      # clicks per value
    cy = piv[1].to_numpy(np.int64)
    n = int(cx.sum())
    m = int(cy.sum())
    cumx = np.cumsum(cx).astype(object)
    cumy = np.cumsum(cy).astype(object)
    c_all = (cx + cy).astype(object)
    d = m * cumx - n * cumy
    t_num = int((c_all * d * d).sum())
    nn = n + m
    t = float(t_num) / float(nn * nn * n * m)
    return pd.DataFrame([{
        "n_click": n, "n_purchase": m, "t_num": t_num,
        "cvm_t": np.round(t, 6)}]).astype({
            "n_click": np.int64, "n_purchase": np.int64,
            "t_num": np.int64})


SQL_CVM_2SAMP = f"""
WITH {SQL_CP_COUNTS_CTE.strip()},
pv AS (SELECT v, SUM(CASE WHEN side = 0 THEN c ELSE 0 END) AS cx,
             SUM(CASE WHEN side = 1 THEN c ELSE 0 END) AS cy
       FROM g GROUP BY 1),
n AS (SELECT SUM(cx) AS n, SUM(cy) AS m FROM pv),
r AS (SELECT v, cx + cy AS c_all,
             SUM(cx) OVER (ORDER BY v) AS cumx,
             SUM(cy) OVER (ORDER BY v) AS cumy
      FROM pv),
t AS (SELECT SUM(CAST(c_all AS HUGEINT)
                 * (n.m * cumx - n.n * cumy)
                 * (n.m * cumx - n.n * cumy)) AS t_num
      FROM r, n)
SELECT CAST(n.n AS BIGINT) AS n_click, CAST(n.m AS BIGINT)
         AS n_purchase,
       CAST(t.t_num AS BIGINT) AS t_num,
       ROUND(CAST(t.t_num AS DOUBLE)
             / CAST(CAST(n.n + n.m AS HUGEINT) * (n.n + n.m)
                    * n.n * n.m AS DOUBLE), 6) AS cvm_t
FROM t, n
"""


def q_erlang_b_blocking(sf_dir: str):
    """Erlang-B blocking probability for 1..10 servers at the event
    stream's offered load (events/day in Erlang toy units) — circuit
    provisioning's loss-system twin of the registry's Erlang-C wait
    model.  The classic numerically-stable recursion
    B(k) = a·B(k−1)/(k + a·B(k−1)) is a SEQUENCE, so float-op order
    is identical by construction on both engines (the SQL twin walks
    the same recursion in a recursive CTE) — no quantization
    needed."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        g = pd.DataFrame({"day": day, "c": 1}) \
            .groupby("day", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    d = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    n = int(d["c"].sum())
    nd = len(d)
    a = float(n) / float(nd)
    rows = []
    b = 1.0
    for k in range(1, 11):
        b = a * b / (k + a * b)
        rows.append({"servers": k, "offered_load": np.round(a, 6),
                     "erlang_b": np.round(b, 6)})
    return pd.DataFrame(rows).astype({"servers": np.int64})


SQL_ERLANG_B = """
WITH RECURSIVE d AS (SELECT epoch_us(ts) // 86400000000 AS day,
                            CAST(COUNT(*) AS BIGINT) AS c
                     FROM events GROUP BY 1),
s AS (SELECT CAST(SUM(c) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS a
      FROM d),
r AS (SELECT 0 AS k, CAST(1.0 AS DOUBLE) AS b, s.a FROM s
      UNION ALL
      SELECT k + 1, a * b / (k + 1 + a * b), a FROM r WHERE k < 10)
SELECT CAST(k AS BIGINT) AS servers, ROUND(a, 6) AS offered_load,
       ROUND(b, 6) AS erlang_b
FROM r WHERE k >= 1 ORDER BY k
"""


def q_inspection_paradox_gaps(sf_dir: str):
    """The inspection paradox, measured: a random observer landing in
    a user's event timeline sees a LENGTH-BIASED gap — E[X²]/E[X],
    not E[X] — and the ratio n·Σg²/(Σg)² ≥ 1 quantifies exactly how
    wrong naive 'average wait' dashboards are (equality iff all gaps
    equal).  Gaps are integer seconds from the per-user ordered
    stream (one bucketed shuffle); all three moments fold as exact
    integers, the two means and the ratio spend one mirrored
    division each."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["user_id", "ts", "event_id"])
        u = df["user_id"].to_numpy(np.int64)
        t = df["ts"].to_numpy("datetime64[us]").astype(np.int64) \
            // 1_000_000
        same = np.zeros(len(df), dtype=bool)
        same[1:] = u[1:] == u[:-1]
        gaps = (t[1:] - t[:-1])[same[1:]]
        return pd.DataFrame([{
            "_g": 0, "n": len(gaps),
            "sg": int(gaps.astype(object).sum()) if len(gaps) else 0,
            "sg2": int((gaps.astype(object) ** 2).sum())
            if len(gaps) else 0}])

    m = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
        .groupby("_g").aggregate(
            Sum("n", alias_name="n"), Sum("sg", alias_name="sg"),
            Sum("sg2", alias_name="sg2"))).to_pandas().iloc[0]
    n, sg, sg2 = int(m["n"]), int(m["sg"]), int(m["sg2"])
    return pd.DataFrame([{
        "n_gaps": n, "sum_gap": sg, "sum_gap2": sg2,
        "mean_gap": np.round(float(sg) / float(n), 6),
        "length_biased_mean": np.round(float(sg2) / float(sg), 6),
        "paradox_ratio": np.round(
            float(n * sg2) / float(sg * sg), 6)}]).astype({
            "n_gaps": np.int64, "sum_gap": np.int64,
            "sum_gap2": np.int64})


SQL_INSPECTION_PARADOX = """
WITH e AS (SELECT user_id,
                  epoch_us(ts) // 1000000 AS t,
                  LAG(epoch_us(ts) // 1000000)
                    OVER (PARTITION BY user_id
                          ORDER BY ts, event_id) AS pt
           FROM events),
g AS (SELECT t - pt AS gap FROM e WHERE pt IS NOT NULL),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(gap) AS BIGINT) AS sg,
             CAST(SUM(CAST(gap AS HUGEINT) * gap) AS BIGINT) AS sg2
      FROM g)
SELECT n AS n_gaps, sg AS sum_gap, sg2 AS sum_gap2,
       ROUND(CAST(sg AS DOUBLE) / CAST(n AS DOUBLE), 6) AS mean_gap,
       ROUND(CAST(sg2 AS DOUBLE) / CAST(sg AS DOUBLE), 6)
         AS length_biased_mean,
       ROUND(CAST(CAST(n AS HUGEINT) * sg2 AS DOUBLE)
             / CAST(CAST(sg AS HUGEINT) * sg AS DOUBLE), 6)
         AS paradox_ratio
FROM s
"""


def q_pollaczek_khinchine_wait(sf_dir: str):
    """Pollaczek–Khinchine mean queue wait for an M/G/1 server fed by
    the purchase stream (service time = value cents / 100 'seconds',
    the documented toy unit): W_q = λE[S²]/(2(1−ρ)).  THE formula
    showing service-time VARIANCE (not just utilization) drives
    queueing pain.  λ from exact count/span integers, E[S], E[S²]
    from exact cent power sums; ρ and W_q are mirrored float chains,
    with an integer-decided overload sentinel (W_q = −1 when
    λE[S] ≥ span·n utilization-cleared compare)."""
    from ray.data.aggregate import Max, Min, Sum
    ev = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["event_type"], "purchase")
        t = t.filter(keep)
        sec = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) // 1_000_000
        cents = np.round(t["value"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        return pa.table({
            "_g": pa.array([0]), "n": pa.array([len(sec)]),
            "tmin": pa.array([int(sec.min()) if len(sec)
                              else 2 ** 62]),
            "tmax": pa.array([int(sec.max()) if len(sec) else 0]),
            "sc": pa.array([int(cents.sum())]),
            "sc2": pa.array([int((cents.astype(object) ** 2)
                                 .sum())])})

    m = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("_g").aggregate(
            Sum("n", alias_name="n"), Min("tmin", alias_name="tmin"),
            Max("tmax", alias_name="tmax"),
            Sum("sc", alias_name="sc"),
            Sum("sc2", alias_name="sc2"))).to_pandas().iloc[0]
    n = int(m["n"])
    span = int(m["tmax"]) - int(m["tmin"])
    sc, sc2 = int(m["sc"]), int(m["sc2"])
    lam = float(n) / float(span)
    es = float(sc) / float(n) / 100.0
    es2 = float(sc2) / float(n) / 10000.0
    rho = lam * es
    # overload decided on integers: λ·E[S] ≥ 1 ⟺ sc ≥ 100·span
    if sc >= 100 * span:
        wq = -1.0
    else:
        wq = lam * es2 / (2.0 * (1.0 - rho))
    return pd.DataFrame([{
        "n_jobs": n, "span_sec": span, "rho": np.round(rho, 6),
        "es_sec": np.round(es, 6), "es2_sec2": np.round(es2, 6),
        "wq_sec": np.round(wq, 6)}]).astype({
            "n_jobs": np.int64, "span_sec": np.int64})


SQL_PK_WAIT = """
WITH p AS (SELECT epoch_us(ts) // 1000000 AS sec,
                  CAST(ROUND(value * 100) AS BIGINT) AS c
           FROM events WHERE event_type = 'purchase'),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(MAX(sec) - MIN(sec) AS BIGINT) AS span,
             CAST(SUM(c) AS BIGINT) AS sc,
             CAST(SUM(CAST(c AS HUGEINT) * c) AS BIGINT) AS sc2
      FROM p),
f AS (SELECT n, span, sc, sc2,
             CAST(n AS DOUBLE) / CAST(span AS DOUBLE) AS lam,
             CAST(sc AS DOUBLE) / CAST(n AS DOUBLE) / 100.0 AS es,
             CAST(sc2 AS DOUBLE) / CAST(n AS DOUBLE) / 10000.0
               AS es2
      FROM s)
SELECT n AS n_jobs, span AS span_sec,
       ROUND(lam * es, 6) AS rho, ROUND(es, 6) AS es_sec,
       ROUND(es2, 6) AS es2_sec2,
       CASE WHEN sc >= 100 * span THEN -1.0
            ELSE ROUND(lam * es2 / (2.0 * (1.0 - lam * es)), 6)
       END AS wq_sec
FROM f
"""


def q_mtbf_mttr_errors(sf_dir: str):
    """MTBF / MTTR from per-user error episodes — reliability's
    primary pair, computed from maximal runs of consecutive 'error'
    events inside each user's ordered stream (the gaps-and-islands
    kernel the staypoint op uses): MTTR = mean episode length (events
    AND seconds, both exact integer sums), MTBF = mean seconds
    between successive episode STARTS within a user.  Pooled across
    users as Σ/Σ — single mirrored divisions; a fleet whose MTBF
    shrinks while MTTR holds is degrading, and both numerators are
    integer facts."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["user_id", "ts", "event_id"])
        u = df["user_id"].to_numpy(np.int64)
        t = df["ts"].to_numpy("datetime64[us]").astype(np.int64) \
            // 1_000_000
        err = (df["event_type"] == "error").to_numpy()
        newu = np.ones(len(df), dtype=bool)
        newu[1:] = u[1:] != u[:-1]
        start = err & (newu | ~np.concatenate(([False], err[:-1])))
        # episode id per error row
        eid = np.cumsum(start)
        n_ep = int(start.sum())
        ep_events = int(err.sum())
        if n_ep == 0:
            return pd.DataFrame([{"_g": 0, "n_ep": 0,
                                  "ep_events": 0, "ep_span": 0,
                                  "n_gaps": 0, "gap_sum": 0}])
        first = np.zeros(n_ep + 1, dtype=np.int64)
        last = np.zeros(n_ep + 1, dtype=np.int64)
        epu = np.zeros(n_ep + 1, dtype=np.int64)
        idx = np.where(err)[0]
        for i in idx:                      # small: error rows only
            e = eid[i]
            if first[e] == 0:
                first[e] = t[i]
                epu[e] = u[i]
            first[e] = min(first[e], t[i])
            last[e] = max(last[e], t[i])
        ep_span = int((last[1:] - first[1:]).sum())
        gaps = 0
        gap_sum = 0
        for e in range(2, n_ep + 1):
            if epu[e] == epu[e - 1]:
                gaps += 1
                gap_sum += int(first[e] - first[e - 1])
        return pd.DataFrame([{"_g": 0, "n_ep": n_ep,
                              "ep_events": ep_events,
                              "ep_span": ep_span, "n_gaps": gaps,
                              "gap_sum": gap_sum}])

    m = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
        .groupby("_g").aggregate(
            *[Sum(c, alias_name=c) for c in
              ["n_ep", "ep_events", "ep_span", "n_gaps",
               "gap_sum"]])).to_pandas().iloc[0]
    n_ep = int(m["n_ep"])
    return pd.DataFrame([{
        "n_episodes": n_ep, "n_error_events": int(m["ep_events"]),
        "mttr_events": np.round(
            float(int(m["ep_events"])) / float(n_ep), 6),
        "mttr_span_sec": np.round(
            float(int(m["ep_span"])) / float(n_ep), 6),
        "n_between_gaps": int(m["n_gaps"]),
        "mtbf_sec": np.round(
            float(int(m["gap_sum"])) / float(int(m["n_gaps"])), 6)
        if int(m["n_gaps"]) else -1.0}]).astype({
            "n_episodes": np.int64, "n_error_events": np.int64,
            "n_between_gaps": np.int64})


SQL_MTBF_MTTR = """
WITH e AS (SELECT user_id, event_id,
                  epoch_us(ts) // 1000000 AS t,
                  event_type = 'error' AS err,
                  ROW_NUMBER() OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS rn
           FROM events),
m AS (SELECT *, CASE WHEN err AND NOT COALESCE(
                       LAG(err) OVER (PARTITION BY user_id
                                      ORDER BY rn), FALSE)
                     THEN 1 ELSE 0 END AS is_start
      FROM e),
ep AS (SELECT user_id, t, err,
              SUM(is_start) OVER (PARTITION BY user_id
                                  ORDER BY rn) AS eid
       FROM m WHERE err),
agg AS (SELECT user_id, eid, MIN(t) AS t0, MAX(t) AS t1,
               CAST(COUNT(*) AS BIGINT) AS n_ev
        FROM ep GROUP BY 1, 2),
g AS (SELECT t0 - LAG(t0) OVER (PARTITION BY user_id
                                ORDER BY eid) AS gap
      FROM agg),
s AS (SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM agg) AS n_ep,
             (SELECT CAST(SUM(n_ev) AS BIGINT) FROM agg)
               AS ep_events,
             (SELECT CAST(SUM(t1 - t0) AS BIGINT) FROM agg)
               AS ep_span,
             (SELECT CAST(COUNT(*) AS BIGINT) FROM g
              WHERE gap IS NOT NULL) AS n_gaps,
             (SELECT CAST(COALESCE(SUM(gap), 0) AS BIGINT) FROM g
              WHERE gap IS NOT NULL) AS gap_sum)
SELECT n_ep AS n_episodes, ep_events AS n_error_events,
       ROUND(CAST(ep_events AS DOUBLE) / CAST(n_ep AS DOUBLE), 6)
         AS mttr_events,
       ROUND(CAST(ep_span AS DOUBLE) / CAST(n_ep AS DOUBLE), 6)
         AS mttr_span_sec,
       n_gaps AS n_between_gaps,
       CASE WHEN n_gaps > 0
            THEN ROUND(CAST(gap_sum AS DOUBLE)
                       / CAST(n_gaps AS DOUBLE), 6)
            ELSE -1.0 END AS mtbf_sec
FROM s
"""


def q_radius_of_gyration_users(sf_dir: str):
    """Radius of gyration per user — THE human-mobility range metric
    (González/Barabási): rg = √(Σ|rᵢ−r̄|²/n) over the user's event
    positions on the daily-cell lattice (cell = (31u+day) % 25, the
    staypoint contract; coordinates cell%5, cell//5).  The n-clearing
    identity n²·rg² = n·Σ(x²+y²) − (Σx)² − (Σy)² keeps everything
    integer until √num/n — one mirrored chain per user.  One
    user-keyed reduce; commuters (two cells) and explorers separate
    cleanly."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts", "user_id"])

    def partial(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        day = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        cell = (31 * u + day) % 25
        x, y = cell % 5, cell // 5
        g = pd.DataFrame({"u": u, "n": 1, "sx": x, "sy": y,
                          "sq": x * x + y * y}) \
            .groupby("u", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("u").aggregate(
            *[Sum(c, alias_name=c) for c in
              ["n", "sx", "sy", "sq"]])).to_pandas() \
        .sort_values("u").reset_index(drop=True)
    n = g["n"].to_numpy(np.int64)
    sx = g["sx"].to_numpy(np.int64)
    sy = g["sy"].to_numpy(np.int64)
    sq = g["sq"].to_numpy(np.int64)
    num = n * sq - sx * sx - sy * sy
    rg = np.sqrt(num.astype(np.float64)) / n.astype(np.float64)
    return pd.DataFrame({
        "user_id": g["u"].astype(np.int64), "n_events": n,
        "rg_num": num, "rg": np.round(rg, 6)}).astype({
            "user_id": np.int64, "n_events": np.int64,
            "rg_num": np.int64})


SQL_RADIUS_GYRATION = """
WITH e AS (SELECT user_id AS u,
                  (31 * user_id + epoch_us(ts) // 86400000000) % 25
                    AS cell
           FROM events),
p AS (SELECT u, cell % 5 AS x, cell // 5 AS y FROM e),
g AS (SELECT u, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(x) AS BIGINT) AS sx,
             CAST(SUM(y) AS BIGINT) AS sy,
             CAST(SUM(x * x + y * y) AS BIGINT) AS sq
      FROM p GROUP BY 1)
SELECT u AS user_id, n AS n_events,
       CAST(n * sq - sx * sx - sy * sy AS BIGINT) AS rg_num,
       ROUND(SQRT(CAST(n * sq - sx * sx - sy * sy AS DOUBLE))
             / CAST(n AS DOUBLE), 6) AS rg
FROM g ORDER BY u
"""


def q_jump_length_bands(sf_dir: str):
    """Displacement ('jump') length distribution across consecutive
    events per user — the Lévy-flight-or-not diagnostic of mobility
    models: squared lattice displacements histogram into exact bands
    {0} / (0,2] / (2,8] / (8,32] — integer counts from the ordered
    per-user stream, band edges decided on integer d².  A heavy far
    band says exploration; mass at 0 says dwelling (consistent with
    the staypoint op by construction)."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["user_id", "ts", "event_id"])
        u = df["user_id"].to_numpy(np.int64)
        day = df["ts"].to_numpy("datetime64[us]") \
            .astype(np.int64) // 86_400_000_000
        cell = (31 * u + day) % 25
        x, y = cell % 5, cell // 5
        same = np.zeros(len(df), dtype=bool)
        same[1:] = u[1:] == u[:-1]
        d2 = ((x[1:] - x[:-1]) ** 2
              + (y[1:] - y[:-1]) ** 2)[same[1:]]
        rows = []
        for band, lo, hi in (("0", -1, 0), ("1-2", 0, 2),
                             ("3-8", 2, 8), ("9-32", 8, 32)):
            rows.append({"band": band,
                         "c": int(((d2 > lo) & (d2 <= hi)).sum())})
        return pd.DataFrame(rows)

    out = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
        .groupby("band").aggregate(Sum("c", alias_name="n_jumps"))
    ).to_pandas().sort_values("band").reset_index(drop=True)
    return out.astype({"n_jumps": np.int64})


SQL_JUMP_BANDS = """
WITH e AS (SELECT user_id AS u, event_id,
                  (31 * user_id + epoch_us(ts) // 86400000000) % 25
                    AS cell, ts
           FROM events),
p AS (SELECT u, cell % 5 AS x, cell // 5 AS y,
             LAG(cell % 5) OVER w AS px,
             LAG(cell // 5) OVER w AS py
      FROM e WINDOW w AS (PARTITION BY u ORDER BY ts, event_id)),
d AS (SELECT (x - px) * (x - px) + (y - py) * (y - py) AS d2
      FROM p WHERE px IS NOT NULL)
SELECT band, CAST(COUNT(*) AS BIGINT) AS n_jumps FROM (
  SELECT CASE WHEN d2 = 0 THEN '0'
              WHEN d2 <= 2 THEN '1-2'
              WHEN d2 <= 8 THEN '3-8'
              ELSE '9-32' END AS band
  FROM d)
GROUP BY band ORDER BY band
"""


def q_location_entropy_users(sf_dir: str):
    """Per-user location entropy — the Song-et-al predictability
    input (low H ⇒ a regular commuter any model forecasts; high H ⇒
    an explorer nothing forecasts): H = ln n − (Σc·ln c)/n over the
    user's visited-cell counts, the c·ln c terms NANO-QUANTIZED
    before the integer fold (the registry's entropy armor), the two
    mirrored ops at the end.  One (user, cell)-keyed reduce."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts", "user_id"])

    def partial(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        day = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        cell = (31 * u + day) % 25
        g = pd.DataFrame({"u": u, "cell": cell, "c": 1}) \
            .groupby(["u", "cell"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["u", "cell"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    g["q9"] = np.floor(
        g["c"].to_numpy(np.int64)
        * np.log(g["c"].to_numpy(np.int64).astype(np.float64))
        * 1e9 + 0.5).astype(np.int64)
    agg = g.groupby("u").agg(
        n=("c", "sum"), n_cells=("c", "size"),
        s9=("q9", "sum")).reset_index().sort_values("u")
    n = agg["n"].to_numpy(np.int64)
    h = np.log(n.astype(np.float64)) \
        - (agg["s9"].to_numpy(np.int64) / 1e9) \
        / n.astype(np.float64)
    return pd.DataFrame({
        "user_id": agg["u"].astype(np.int64), "n_events": n,
        "n_cells": agg["n_cells"].to_numpy(np.int64),
        "h_nat": np.round(h, 6)}).astype({
            "user_id": np.int64, "n_events": np.int64,
            "n_cells": np.int64})


SQL_LOCATION_ENTROPY = """
WITH e AS (SELECT user_id AS u,
                  (31 * user_id + epoch_us(ts) // 86400000000) % 25
                    AS cell
           FROM events),
g AS (SELECT u, cell, CAST(COUNT(*) AS BIGINT) AS c
      FROM e GROUP BY 1, 2),
q AS (SELECT u, c,
             CAST(FLOOR(c * LN(CAST(c AS DOUBLE)) * 1e9 + 0.5)
                  AS BIGINT) AS q9
      FROM g),
a AS (SELECT u, CAST(SUM(c) AS BIGINT) AS n,
             CAST(COUNT(*) AS BIGINT) AS n_cells,
             CAST(SUM(q9) AS BIGINT) AS s9
      FROM q GROUP BY 1)
SELECT u AS user_id, n AS n_events, n_cells,
       ROUND(LN(CAST(n AS DOUBLE)) - (s9 / 1e9)
             / CAST(n AS DOUBLE), 6) AS h_nat
FROM a ORDER BY u
"""


def q_mcafee_double_auction(sf_dir: str):
    """McAfee's dominant-strategy double auction between purchase
    bids (buyers, sorted DESC) and click asks (sellers, sorted ASC):
    find the efficient breakeven k* = max{k: b₍ₖ₎ ≥ s₍ₖ₎}, quote the
    single price p = (b₍ₖ*₊₁₎+s₍ₖ*₊₁₎)/2, and trade k*−1 units if p
    clears both sides at k*−1 else k*−1 with the k*-th pair's prices
    (the celebrated 'give up one trade to kill manipulation'
    mechanism).  All decisions are integer-cent comparisons (the
    half-sum rides a doubled price 2p), trades/welfare exact."""
    g = _click_purchase_value_counts(sf_dir)
    buy = np.sort(g.loc[g["side"] == 1, "v"].to_numpy(np.int64)
                  .repeat(g.loc[g["side"] == 1, "c"]
                          .to_numpy(np.int64)))[::-1]
    sell = np.sort(g.loc[g["side"] == 0, "v"].to_numpy(np.int64)
                   .repeat(g.loc[g["side"] == 0, "c"]
                           .to_numpy(np.int64)))
    m = min(len(buy), len(sell))
    ok = buy[:m] >= sell[:m]
    kstar = int(ok.sum())                # prefix property of sorted
    if kstar == 0:
        return pd.DataFrame([{
            "n_buyers": len(buy), "n_sellers": len(sell),
            "k_efficient": 0, "n_trades": 0, "price2_c": 0}]) \
            .astype(np.int64)
    if kstar < m:
        p2 = int(buy[kstar]) + int(sell[kstar])   # doubled price
        trades = kstar - 1          # the one-trade sacrifice variant
    else:
        p2 = int(buy[kstar - 1]) + int(sell[kstar - 1])
        trades = kstar - 1
    return pd.DataFrame([{
        "n_buyers": len(buy), "n_sellers": len(sell),
        "k_efficient": kstar, "n_trades": trades,
        "price2_c": p2}]).astype(np.int64)


SQL_MCAFEE = f"""
WITH {SQL_CP_COUNTS_CTE.strip()},
buy AS (SELECT v, ROW_NUMBER() OVER (ORDER BY v DESC, rn) AS r
        FROM (SELECT v, UNNEST(generate_series(1, CAST(c AS INT)))
                     AS rn
              FROM g WHERE side = 1)),
sell AS (SELECT v, ROW_NUMBER() OVER (ORDER BY v, rn) AS r
         FROM (SELECT v, UNNEST(generate_series(1, CAST(c AS INT)))
                      AS rn
               FROM g WHERE side = 0)),
k AS (SELECT CAST(COALESCE(SUM(CASE WHEN b.v >= s.v THEN 1
                           ELSE 0 END), 0) AS BIGINT) AS kstar,
             (SELECT COUNT(*) FROM buy) AS nb,
             (SELECT COUNT(*) FROM sell) AS ns
      FROM buy b JOIN sell s ON b.r = s.r),
p AS (SELECT k.*,
             CASE WHEN kstar = 0 THEN 0
                  WHEN kstar < LEAST(nb, ns) THEN
                    (SELECT v FROM buy WHERE r = kstar + 1)
                    + (SELECT v FROM sell WHERE r = kstar + 1)
                  ELSE (SELECT v FROM buy WHERE r = kstar)
                       + (SELECT v FROM sell WHERE r = kstar)
             END AS p2
      FROM k)
SELECT CAST(nb AS BIGINT) AS n_buyers, CAST(ns AS BIGINT)
         AS n_sellers,
       kstar AS k_efficient,
       CAST(CASE WHEN kstar = 0 THEN 0 ELSE kstar - 1 END
            AS BIGINT) AS n_trades,
       CAST(p2 AS BIGINT) AS price2_c
FROM p
"""


_POLICY_ARMS = ["click", "error", "purchase", "signup", "view"]


def _policy_match_stats(sf_dir: str) -> dict:
    """Shared off-policy evaluation fold: logged arm = event_type,
    reward = value cents, target policy π = arm with alphabetical
    index (hour-of-day mod 5).  One pass collapses to exact counters:
    matched count/reward, per-arm totals (for the DR baseline), and
    N — everything downstream is driver arithmetic on integers."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts", "event_type", "value"])
    arms = {a: i for i, a in enumerate(_POLICY_ARMS)}

    def partial(t: pa.Table) -> pa.Table:
        hour = (t["ts"].to_numpy(zero_copy_only=False)
                .astype("datetime64[us]").astype(np.int64)
                // 3_600_000_000) % 24
        et = t["event_type"].to_pylist()
        ai = np.array([arms.get(a, -1) for a in et],
                      dtype=np.int64)
        cents = np.round(t["value"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        match = (ai == (hour % 5)).astype(np.int64)
        g = pd.DataFrame({"arm": ai, "n": 1, "v": cents,
                          "mn": match, "mv": match * cents}) \
            .groupby("arm", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("arm").aggregate(
            *[Sum(c, alias_name=c) for c in
              ["n", "v", "mn", "mv"]])).to_pandas() \
        .sort_values("arm").set_index("arm")
    return {"per_arm": agg,
            "n": int(agg["n"].sum()), "mn": int(agg["mn"].sum()),
            "mv": int(agg["mv"].sum())}


def q_policy_replay_eval(sf_dir: str):
    """Li et al.'s REPLAY estimator for offline policy evaluation —
    'what would the hour-keyed arm policy have earned', answered
    from logged traffic by keeping only the events where the log
    happened to agree with the policy: V̂ = Σ matched reward /
    #matched.  Unbiased when logging is uniform; matched counts and
    cent sums are exact integers with ONE mirrored division."""
    st = _policy_match_stats(sf_dir)
    return pd.DataFrame([{
        "n_events": st["n"], "n_matched": st["mn"],
        "matched_value_c": st["mv"],
        "replay_value": np.round(
            float(st["mv"]) / float(st["mn"]), 6)}]).astype({
            "n_events": np.int64, "n_matched": np.int64,
            "matched_value_c": np.int64})


SQL_POLICY_CTE = """
e AS (SELECT CASE event_type WHEN 'click' THEN 0 WHEN 'error'
             THEN 1 WHEN 'purchase' THEN 2 WHEN 'signup' THEN 3
             WHEN 'view' THEN 4 ELSE -1 END AS arm,
             CAST(ROUND(value * 100) AS BIGINT) AS v,
             ((epoch_us(ts) // 3600000000) % 24) % 5 AS pi
      FROM events),
m AS (SELECT arm, v, CASE WHEN arm = pi THEN 1 ELSE 0 END AS mt
      FROM e)
"""


def q_ips_off_policy(sf_dir: str):
    """Inverse-propensity-scoring estimate of the same hour-keyed
    policy under an assumed uniform 1/5 logging policy:
    V̂_IPS = (1/N)·Σ match·reward·5 — the estimator that uses EVERY
    event (replay throws away the unmatched) at the price of
    propensity variance.  The weighted sum is 5·(matched cents), an
    exact integer; one mirrored division by N."""
    st = _policy_match_stats(sf_dir)
    return pd.DataFrame([{
        "n_events": st["n"], "weighted_value_c": 5 * st["mv"],
        "ips_value": np.round(
            float(5 * st["mv"]) / float(st["n"]), 6)}]).astype({
            "n_events": np.int64, "weighted_value_c": np.int64})


def q_doubly_robust_policy(sf_dir: str):
    """Doubly-robust off-policy value of the hour-keyed policy:
    V̂_DR = (1/N)Σ q̂(π(x)) + (1/N)Σ match·5·(r − q̂(a)) with q̂ the
    per-arm logged mean reward — unbiased if EITHER the model or the
    propensities are right, the modern default for counterfactual
    dashboards.  With uniform hours the model term is the mean of
    the five q̂'s in FIXED arm order; the correction's Σ match·r is
    exact and Σ match·q̂(a) composes per-arm (count·mean) products —
    every division mirrored, float adds in declared order."""
    st = _policy_match_stats(sf_dir)
    pa_ = st["per_arm"]
    qhat = {int(a): float(int(r["v"])) / float(int(r["n"]))
            for a, r in pa_.iterrows()}
    q = [qhat.get(a, 0.0) for a in range(5)]   # unseen arm → q̂ = 0
    model = ((((q[0] + q[1]) + q[2]) + q[3]) + q[4]) / 5.0
    corr_match_q = 0.0
    for a in range(5):
        mn_a = int(pa_.loc[a, "mn"]) if a in pa_.index else 0
        corr_match_q = corr_match_q + float(mn_a) * q[a]
    n = st["n"]
    corr = 5.0 * (float(st["mv"]) - corr_match_q) / float(n)
    return pd.DataFrame([{
        "n_events": n, "model_value": np.round(model, 6),
        "correction": np.round(corr, 6),
        "dr_value": np.round(model + corr, 6)}]).astype({
            "n_events": np.int64})


def _sql_policy_replay() -> str:
    return f"""
WITH {SQL_POLICY_CTE.strip()},
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(mt) AS BIGINT) AS mn,
             CAST(SUM(mt * v) AS BIGINT) AS mv
      FROM m)
SELECT n AS n_events, mn AS n_matched, mv AS matched_value_c,
       ROUND(CAST(mv AS DOUBLE) / CAST(mn AS DOUBLE), 6)
         AS replay_value
FROM s
"""


def _sql_ips() -> str:
    return f"""
WITH {SQL_POLICY_CTE.strip()},
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(mt * v) AS BIGINT) AS mv
      FROM m)
SELECT n AS n_events, 5 * mv AS weighted_value_c,
       ROUND(CAST(5 * mv AS DOUBLE) / CAST(n AS DOUBLE), 6)
         AS ips_value
FROM s
"""


def _sql_doubly_robust() -> str:
    return f"""
WITH {SQL_POLICY_CTE.strip()},
pa AS (SELECT arm, CAST(COUNT(*) AS BIGINT) AS n,
              CAST(SUM(v) AS BIGINT) AS sv,
              CAST(SUM(mt) AS BIGINT) AS mn
       FROM m GROUP BY 1),
q AS (SELECT arm, CAST(sv AS DOUBLE) / CAST(n AS DOUBLE) AS qh,
             mn
      FROM pa),
f AS (SELECT
        ((((COALESCE((SELECT qh FROM q WHERE arm = 0), 0.0)
            + COALESCE((SELECT qh FROM q WHERE arm = 1), 0.0))
           + COALESCE((SELECT qh FROM q WHERE arm = 2), 0.0))
          + COALESCE((SELECT qh FROM q WHERE arm = 3), 0.0))
         + COALESCE((SELECT qh FROM q WHERE arm = 4), 0.0)) / 5.0 AS model,
        (SELECT CAST(SUM(mt * v) AS BIGINT) FROM m) AS mv,
        (((COALESCE((SELECT CAST(mn AS DOUBLE) * qh FROM q WHERE arm = 0), 0.0)
           + COALESCE((SELECT CAST(mn AS DOUBLE) * qh FROM q WHERE arm = 1), 0.0))
          + COALESCE((SELECT CAST(mn AS DOUBLE) * qh FROM q WHERE arm = 2), 0.0))
         + COALESCE((SELECT CAST(mn AS DOUBLE) * qh FROM q WHERE arm = 3), 0.0))
        + COALESCE((SELECT CAST(mn AS DOUBLE) * qh FROM q WHERE arm = 4), 0.0)
          AS cmq,
        (SELECT CAST(COUNT(*) AS BIGINT) FROM m) AS n)
SELECT n AS n_events, ROUND(model, 6) AS model_value,
       ROUND(5.0 * (CAST(mv AS DOUBLE) - cmq) / CAST(n AS DOUBLE),
             6) AS correction,
       ROUND(model + 5.0 * (CAST(mv AS DOUBLE) - cmq)
                     / CAST(n AS DOUBLE), 6) AS dr_value
FROM f
"""


def q_roaring_container_census(sf_dir: str):
    """Roaring-bitmap container census of the distinct event-user-id
    set: ids partition into 2¹⁶-value chunks, each chunk stores as an
    ARRAY container (2 B/value) below the 4096-cardinality break-even
    else a BITMAP (8192 B fixed) — the hybrid that makes Roaring win.
    Chunk cardinalities are exact distinct counts; container choice
    is an integer compare and every size is integer arithmetic.
    Reports the census and the bytes-vs-naive-bitset ratio."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["user_id"])

    def partial(t: pa.Table) -> pa.Table:
        u = np.unique(t["user_id"].to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        return pa.table({"chunk": pa.array(u >> 16),
                         "val": pa.array(u & 0xFFFF)})

    per = relational.ds_to_table(
        _read(sf_dir, "events", ["user_id"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["chunk", "val"]).count()
    ).to_pandas()
    card = per.groupby("chunk").size()
    n_dist = int(card.sum())
    arr_chunks = int((card < 4096).sum())
    bmp_chunks = int((card >= 4096).sum())
    rbytes = int((2 * card[card < 4096]).sum()) + 8192 * bmp_chunks
    max_id = int((per["chunk"].astype(np.int64) * 65536
                  + per["val"].astype(np.int64)).max())
    naive = (max_id // 8) + 1
    return pd.DataFrame([{
        "n_distinct": n_dist, "n_chunks": int(card.size),
        "array_containers": arr_chunks,
        "bitmap_containers": bmp_chunks,
        "roaring_bytes": rbytes, "naive_bitset_bytes": naive,
        "ratio": np.round(float(naive) / float(rbytes), 6)}]) \
        .astype({"n_distinct": np.int64, "n_chunks": np.int64,
                 "array_containers": np.int64,
                 "bitmap_containers": np.int64,
                 "roaring_bytes": np.int64,
                 "naive_bitset_bytes": np.int64})


SQL_ROARING = """
WITH u AS (SELECT DISTINCT user_id AS id FROM events),
c AS (SELECT id // 65536 AS chunk, CAST(COUNT(*) AS BIGINT)
        AS card
      FROM u GROUP BY 1),
s AS (SELECT CAST(SUM(card) AS BIGINT) AS n_distinct,
             CAST(COUNT(*) AS BIGINT) AS n_chunks,
             CAST(SUM(CASE WHEN card < 4096 THEN 1 ELSE 0 END)
                  AS BIGINT) AS arr,
             CAST(SUM(CASE WHEN card >= 4096 THEN 1 ELSE 0 END)
                  AS BIGINT) AS bmp,
             CAST(SUM(CASE WHEN card < 4096 THEN 2 * card
                      ELSE 8192 END) AS BIGINT) AS rbytes,
             (SELECT MAX(id) FROM u) // 8 + 1 AS naive
      FROM c)
SELECT n_distinct, n_chunks, arr AS array_containers,
       bmp AS bitmap_containers, rbytes AS roaring_bytes,
       CAST(naive AS BIGINT) AS naive_bitset_bytes,
       ROUND(CAST(naive AS DOUBLE) / CAST(rbytes AS DOUBLE), 6)
         AS ratio
FROM s
"""


def q_gorilla_timestamp_bits(sf_dir: str):
    """Gorilla delta-of-delta TIMESTAMP compression estimate over
    each user's event stream (the time-half of the Facebook paper —
    the registry's existing Gorilla op does the value-half): second
    deltas of ordered per-user timestamps bucket into the paper's
    {0: 1 bit, ±2⁶: 9, ±2⁸: 12, ±2¹¹: 16, else: 36} ladder — exact
    integer bit sums from integer second DoDs, one mirrored division
    for bits/sample.  Regular heartbeats cost ~1 bit; bursty human
    traffic pays the wide buckets."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["user_id", "ts", "event_id"])
        u = df["user_id"].to_numpy(np.int64)
        t = df["ts"].to_numpy("datetime64[us]").astype(np.int64) \
            // 1_000_000
        same2 = np.zeros(len(df), dtype=bool)
        same2[2:] = (u[2:] == u[1:-1]) & (u[1:-1] == u[:-2])
        dod = (t[2:] - 2 * t[1:-1] + t[:-2])[same2[2:]]
        bits = np.where(dod == 0, 1,
                        np.where(np.abs(dod) < 64, 9,
                                 np.where(np.abs(dod) < 256, 12,
                                          np.where(np.abs(dod)
                                                   < 2048, 16,
                                                   36))))
        return pd.DataFrame([{
            "_g": 0, "n_dod": len(dod),
            "bits": int(bits.sum()),
            "zeros": int((dod == 0).sum())}])

    m = relational.ds_to_table(
        relational.bucket_shuffle(ev, "user_id", per_bucket)
        .groupby("_g").aggregate(
            Sum("n_dod", alias_name="n"),
            Sum("bits", alias_name="bits"),
            Sum("zeros", alias_name="zeros"))).to_pandas().iloc[0]
    n, bits, zeros = int(m["n"]), int(m["bits"]), int(m["zeros"])
    return pd.DataFrame([{
        "n_dod": n, "total_bits": bits, "n_zero_dod": zeros,
        "bits_per_sample": np.round(float(bits) / float(n), 6),
        "vs_64bit_ratio": np.round(64.0 * n / float(bits), 6)}]) \
        .astype({"n_dod": np.int64, "total_bits": np.int64,
                 "n_zero_dod": np.int64})


SQL_GORILLA_TS = """
WITH e AS (SELECT user_id AS u,
                  epoch_us(ts) // 1000000 AS t,
                  LAG(epoch_us(ts) // 1000000)
                    OVER w AS t1,
                  LAG(epoch_us(ts) // 1000000, 2)
                    OVER w AS t2
           FROM events
           WINDOW w AS (PARTITION BY user_id
                        ORDER BY ts, event_id)),
d AS (SELECT t - 2 * t1 + t2 AS dod FROM e WHERE t2 IS NOT NULL),
b AS (SELECT dod,
             CASE WHEN dod = 0 THEN 1
                  WHEN ABS(dod) < 64 THEN 9
                  WHEN ABS(dod) < 256 THEN 12
                  WHEN ABS(dod) < 2048 THEN 16
                  ELSE 36 END AS bits
      FROM d),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(bits) AS BIGINT) AS bits,
             CAST(SUM(CASE WHEN dod = 0 THEN 1 ELSE 0 END)
                  AS BIGINT) AS zeros
      FROM b)
SELECT n AS n_dod, bits AS total_bits, zeros AS n_zero_dod,
       ROUND(CAST(bits AS DOUBLE) / CAST(n AS DOUBLE), 6)
         AS bits_per_sample,
       ROUND(64.0 * n / CAST(bits AS DOUBLE), 6) AS vs_64bit_ratio
FROM s
"""


def _ab_look_counts(sf_dir: str) -> pd.DataFrame:
    """Shared sequential-testing panel: arm = user_id parity,
    conversion = purchase share of events, cumulated at 5 calendar
    looks (20/40/..% of the day range, ceil — the vocab-checkpoint
    convention).  One (day, arm) reduce; look cumulation is driver
    arithmetic on the bounded table."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts", "user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        arm = (t["user_id"].to_numpy(zero_copy_only=False)
               .astype(np.int64) % 2)
        conv = pc.equal(t["event_type"], "purchase") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({"day": day, "arm": arm, "n": 1,
                          "x": conv}) \
            .groupby(["day", "arm"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["day", "arm"]).aggregate(
            Sum("n", alias_name="n"), Sum("x", alias_name="x"))
    ).to_pandas()
    d0, d1 = int(g["day"].min()), int(g["day"].max())
    span = d1 - d0 + 1
    rows = []
    for k in range(1, 6):
        cut = d0 + -(-k * span // 5) - 1     # inclusive look day
        sub = g[g["day"] <= cut]
        na = int(sub.loc[sub["arm"] == 0, "n"].sum())
        xa = int(sub.loc[sub["arm"] == 0, "x"].sum())
        nb = int(sub.loc[sub["arm"] == 1, "n"].sum())
        xb = int(sub.loc[sub["arm"] == 1, "x"].sum())
        rows.append({"look": k, "na": na, "xa": xa,
                     "nb": nb, "xb": xb})
    return pd.DataFrame(rows)


SQL_AB_LOOKS_CTE = """
g AS (SELECT epoch_us(ts) // 86400000000 AS day,
             user_id % 2 AS arm, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1
                      ELSE 0 END) AS BIGINT) AS x
      FROM events GROUP BY 1, 2),
bb AS (SELECT MIN(day) AS d0, MAX(day) - MIN(day) + 1 AS span
       FROM g),
lk AS (SELECT k, bb.d0 + (k * bb.span + 4) // 5 - 1 AS cut
       FROM (SELECT unnest(generate_series(1, 5)) AS k), bb),
looks AS (SELECT lk.k AS look,
                 CAST(SUM(CASE WHEN arm = 0 THEN n ELSE 0 END)
                      AS BIGINT) AS na,
                 CAST(SUM(CASE WHEN arm = 0 THEN x ELSE 0 END)
                      AS BIGINT) AS xa,
                 CAST(SUM(CASE WHEN arm = 1 THEN n ELSE 0 END)
                      AS BIGINT) AS nb,
                 CAST(SUM(CASE WHEN arm = 1 THEN x ELSE 0 END)
                      AS BIGINT) AS xb
          FROM lk JOIN g ON g.day <= lk.cut GROUP BY 1)
"""

_SQL_Z_EXPR = """(CAST(xa AS DOUBLE) / CAST(na AS DOUBLE)
              - CAST(xb AS DOUBLE) / CAST(nb AS DOUBLE))
             / SQRT((CAST(xa + xb AS DOUBLE)
                     / CAST(na + nb AS DOUBLE))
                    * (1.0 - CAST(xa + xb AS DOUBLE)
                           / CAST(na + nb AS DOUBLE))
                    * (1.0 / CAST(na AS DOUBLE)
                       + 1.0 / CAST(nb AS DOUBLE)))"""


def _ab_z(na, xa, nb, xb) -> float:
    pa_ = float(xa) / float(na)
    pb_ = float(xb) / float(nb)
    pp = float(xa + xb) / float(na + nb)
    se = float(np.sqrt(pp * (1.0 - pp)
                       * (1.0 / float(na) + 1.0 / float(nb))))
    return (pa_ - pb_) / se


def q_srm_check(sf_dir: str):
    """Sample-ratio-mismatch check — the A/B platform's smoke alarm
    (a 50/50 split that isn't means the assignment or logging is
    broken and every downstream p-value is garbage): arm counts by
    user parity, χ² = (n_A−n_B)²/(n_A+n_B) — ONE mirrored division
    of exact integers against the expected 50/50."""
    lk = _ab_look_counts(sf_dir).iloc[-1]
    na, nb = int(lk["na"]), int(lk["nb"])
    chi2 = float((na - nb) * (na - nb)) / float(na + nb)
    return pd.DataFrame([{
        "n_arm_even": na, "n_arm_odd": nb,
        "chi2_srm": np.round(chi2, 6),
        "srm_alarm": (na - nb) * (na - nb) * 1000
        > 3841 * (na + nb)}]).astype({
            "n_arm_even": np.int64, "n_arm_odd": np.int64})


def _sql_srm() -> str:
    return f"""
WITH {SQL_AB_LOOKS_CTE.strip()}
SELECT na AS n_arm_even, nb AS n_arm_odd,
       ROUND(CAST((na - nb) * (na - nb) AS DOUBLE)
             / CAST(na + nb AS DOUBLE), 6) AS chi2_srm,
       (na - nb) * (na - nb) * 1000 > 3841 * (na + nb) AS srm_alarm
FROM looks WHERE look = 5
"""


def q_obrien_fleming_looks(sf_dir: str):
    """O'Brien–Fleming group-sequential monitoring of the parity A/B
    test at 5 looks — spend almost no α early, keep the final look
    near-nominal (the design that lets you PEEK without lying):
    interim z from exact cumulative counts, boundary 2.04·√(5/k),
    crossing decided on the mirrored float pair.  The whole
    look-table ships; a dashboard replays it."""
    lk = _ab_look_counts(sf_dir)
    rows = []
    for rec in lk.itertuples():
        z = _ab_z(int(rec.na), int(rec.xa), int(rec.nb),
                  int(rec.xb))
        bound = 2.04 * float(np.sqrt(5.0 / float(rec.look)))
        rows.append({"look": int(rec.look),
                     "n_total": int(rec.na) + int(rec.nb),
                     "z": np.round(z, 6),
                     "boundary": np.round(bound, 6),
                     "crossed": abs(z) > bound})
    return pd.DataFrame(rows).astype({
        "look": np.int64, "n_total": np.int64})


def _sql_obf() -> str:
    return f"""
WITH {SQL_AB_LOOKS_CTE.strip()},
z AS (SELECT look, na + nb AS n_total,
             {_SQL_Z_EXPR} AS z,
             2.04 * SQRT(5.0 / CAST(look AS DOUBLE)) AS boundary
      FROM looks)
SELECT look, CAST(n_total AS BIGINT) AS n_total,
       ROUND(z, 6) AS z, ROUND(boundary, 6) AS boundary,
       ABS(z) > boundary AS crossed
FROM z ORDER BY look
"""


def q_conditional_power_futility(sf_dir: str):
    """Conditional power under the current trend at each interim look
    — the futility-stopping input (CP ≈ 0 says the test cannot
    recover; burn no more traffic): with B-value B = z·√t and
    information fraction t = k/5,
    CP = 1 − Φ((z_α − B/t)/√(1−t)), Φ via the shared A&S erf chain.
    The final look reports CP = 1 or 0 decided by the mirrored
    z vs z_α compare."""
    lk = _ab_look_counts(sf_dir)
    za = 1.96
    rows = []
    for rec in lk.itertuples():
        k = int(rec.look)
        z = _ab_z(int(rec.na), int(rec.xa), int(rec.nb),
                  int(rec.xb))
        t = k / 5.0
        if k == 5:
            cp = 1.0 if z > za else 0.0
        else:
            arg = (za - (z * np.sqrt(t)) / t) / np.sqrt(1.0 - t)
            x = abs(arg) / np.sqrt(2.0)
            tt = 1.0 / (1.0 + 0.3275911 * x)
            poly = ((((1.061405429 * tt - 1.453152027) * tt
                      + 1.421413741) * tt - 0.284496736) * tt
                    + 0.254829592) * tt
            tail = poly * np.exp(-(x * x)) / 2.0
            phi = 1.0 - tail if arg >= 0 else tail
            cp = 1.0 - phi
        rows.append({"look": k, "z": np.round(z, 6),
                     "cond_power": np.round(float(cp), 6),
                     "futile": float(cp) < 0.1})
    return pd.DataFrame(rows).astype({"look": np.int64})


def _sql_conditional_power() -> str:
    return f"""
WITH {SQL_AB_LOOKS_CTE.strip()},
z AS (SELECT look, {_SQL_Z_EXPR} AS z,
             CAST(look AS DOUBLE) / 5.0 AS t
      FROM looks),
a AS (SELECT look, z, t,
             (1.96 - (z * SQRT(t)) / t) / SQRT(1.0 - t) AS arg
      FROM z WHERE look < 5),
p AS (SELECT look, z,
             ((((1.061405429 * tv - 1.453152027) * tv
                + 1.421413741) * tv - 0.284496736) * tv
              + 0.254829592) * tv * EXP(-(xv * xv)) / 2.0 AS tail,
             arg
      FROM (SELECT look, z, arg, ABS(arg) / SQRT(2.0) AS xv,
                   1.0 / (1.0 + 0.3275911 * (ABS(arg)
                                             / SQRT(2.0))) AS tv
            FROM a)),
cp AS (SELECT look, z,
              1.0 - (CASE WHEN arg >= 0 THEN 1.0 - tail
                     ELSE tail END) AS cp
       FROM p
       UNION ALL
       SELECT look, z, CASE WHEN z > 1.96 THEN 1.0 ELSE 0.0 END
       FROM z WHERE look = 5)
SELECT look, ROUND(z, 6) AS z, ROUND(cp, 6) AS cond_power,
       cp < 0.1 AS futile
FROM cp ORDER BY look
"""


def q_home_work_inference(sf_dir: str):
    """Home/work anchor inference per user — the first step of every
    trip-chaining pipeline: home = the user's most-visited daily
    cell, work = the second (count DESC, cell ASC — deterministic
    ties), with visit counts exact from one (user, cell) reduce.
    Single-cell users report work = −1: the honest commuter/-less
    flag downstream models branch on."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts", "user_id"])

    def partial(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        day = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        cell = (31 * u + day) % 25
        g = pd.DataFrame({"u": u, "cell": cell, "c": 1}) \
            .groupby(["u", "cell"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["u", "cell"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas().sort_values(["u", "c", "cell"],
                              ascending=[True, False, True])
    rows = []
    for u, sub in g.groupby("u", sort=True):
        home = int(sub["cell"].iloc[0])
        hc = int(sub["c"].iloc[0])
        if len(sub) > 1:
            work = int(sub["cell"].iloc[1])
            wc = int(sub["c"].iloc[1])
        else:
            work, wc = -1, 0
        rows.append({"user_id": int(u), "home_cell": home,
                     "home_visits": hc, "work_cell": work,
                     "work_visits": wc})
    return pd.DataFrame(rows).astype(np.int64)


SQL_HOME_WORK = """
WITH e AS (SELECT user_id AS u,
                  (31 * user_id + epoch_us(ts) // 86400000000) % 25
                    AS cell
           FROM events),
g AS (SELECT u, cell, CAST(COUNT(*) AS BIGINT) AS c
      FROM e GROUP BY 1, 2),
r AS (SELECT u, cell, c,
             ROW_NUMBER() OVER (PARTITION BY u
                                ORDER BY c DESC, cell) AS rn
      FROM g)
SELECT h.u AS user_id, h.cell AS home_cell, h.c AS home_visits,
       CAST(COALESCE(w.cell, -1) AS BIGINT) AS work_cell,
       CAST(COALESCE(w.c, 0) AS BIGINT) AS work_visits
FROM (SELECT * FROM r WHERE rn = 1) h
LEFT JOIN (SELECT * FROM r WHERE rn = 2) w USING (u)
ORDER BY h.u
"""


def q_commute_distance_histogram(sf_dir: str):
    """Commute-distance histogram over the inferred home→work anchor
    pairs — the metropolitan-form readout (compact city: short
    commutes; sprawl: the far bands fill): squared lattice distances
    between each user's two anchors histogram into the jump-band
    grid, with single-cell users counted separately — all integer
    facts derived from the same anchor inference the home/work op
    ships."""
    hw = q_home_work_inference(sf_dir)
    two = hw[hw["work_cell"] >= 0]
    hx, hy = two["home_cell"] % 5, two["home_cell"] // 5
    wx, wy = two["work_cell"] % 5, two["work_cell"] // 5
    d2 = ((hx - wx) ** 2 + (hy - wy) ** 2).to_numpy(np.int64)
    rows = [{"band": "single_cell",
             "n_users": int((hw["work_cell"] < 0).sum())}]
    for band, lo, hi in (("1-2", 0, 2), ("3-8", 2, 8),
                         ("9-32", 8, 32)):
        rows.append({"band": band,
                     "n_users": int(((d2 > lo) & (d2 <= hi))
                                    .sum())})
    return pd.DataFrame(rows).astype({"n_users": np.int64})


SQL_COMMUTE_HIST = """
WITH e AS (SELECT user_id AS u,
                  (31 * user_id + epoch_us(ts) // 86400000000) % 25
                    AS cell
           FROM events),
g AS (SELECT u, cell, CAST(COUNT(*) AS BIGINT) AS c
      FROM e GROUP BY 1, 2),
r AS (SELECT u, cell,
             ROW_NUMBER() OVER (PARTITION BY u
                                ORDER BY c DESC, cell) AS rn
      FROM g),
hw AS (SELECT h.u, h.cell AS hc, w.cell AS wc
       FROM (SELECT * FROM r WHERE rn = 1) h
       LEFT JOIN (SELECT * FROM r WHERE rn = 2) w USING (u)),
d AS (SELECT u, wc,
             (hc % 5 - wc % 5) * (hc % 5 - wc % 5)
             + (hc // 5 - wc // 5) * (hc // 5 - wc // 5) AS d2
      FROM hw)
SELECT band, n_users FROM (
  SELECT 'single_cell' AS band,
         CAST(COUNT(*) FILTER (WHERE wc IS NULL) AS BIGINT)
           AS n_users, 0 AS o
  FROM d
  UNION ALL
  SELECT '1-2', CAST(COUNT(*) FILTER (WHERE wc IS NOT NULL
           AND d2 > 0 AND d2 <= 2) AS BIGINT), 1 FROM d
  UNION ALL
  SELECT '3-8', CAST(COUNT(*) FILTER (WHERE wc IS NOT NULL
           AND d2 > 2 AND d2 <= 8) AS BIGINT), 2 FROM d
  UNION ALL
  SELECT '9-32', CAST(COUNT(*) FILTER (WHERE wc IS NOT NULL
           AND d2 > 8 AND d2 <= 32) AS BIGINT), 3 FROM d)
ORDER BY o
"""


def q_kuiper_two_sample(sf_dir: str):
    """Kuiper's two-sample test, click vs purchase values — the
    KS variant equally sensitive EVERYWHERE (KS is blind near the
    tails; Kuiper's V = D⁺ + D⁻ restores it, and is invariant to
    cyclic shifts — the statistic of choice for periodic data):
    both supremum terms are exact-integer maxima of
    m·cumx_v − n·cumy_v over the shared counts reduce, and V spends
    one mirrored division by n·m."""
    g = _click_purchase_value_counts(sf_dir)
    piv = g.pivot_table(index="v", columns="side", values="c",
                        fill_value=0, aggfunc="sum").sort_index()
    for s in (0, 1):
        if s not in piv.columns:
            piv[s] = 0
    cx = piv[0].to_numpy(np.int64)
    cy = piv[1].to_numpy(np.int64)
    n = int(cx.sum())
    m = int(cy.sum())
    cumx = np.cumsum(cx).astype(object)
    cumy = np.cumsum(cy).astype(object)
    diff = m * cumx - n * cumy
    d_plus = max(int(diff.max()), 0)
    d_minus = max(int((-diff).max()), 0)
    v = float(d_plus + d_minus) / float(n * m)
    return pd.DataFrame([{
        "n_click": n, "n_purchase": m, "d_plus_num": d_plus,
        "d_minus_num": d_minus,
        "kuiper_v": np.round(v, 6)}]).astype({
            "n_click": np.int64, "n_purchase": np.int64,
            "d_plus_num": np.int64, "d_minus_num": np.int64})


SQL_KUIPER = f"""
WITH {SQL_CP_COUNTS_CTE.strip()},
pv AS (SELECT v, SUM(CASE WHEN side = 0 THEN c ELSE 0 END) AS cx,
             SUM(CASE WHEN side = 1 THEN c ELSE 0 END) AS cy
       FROM g GROUP BY 1),
n AS (SELECT SUM(cx) AS n, SUM(cy) AS m FROM pv),
r AS (SELECT v,
             SUM(cx) OVER (ORDER BY v) AS cumx,
             SUM(cy) OVER (ORDER BY v) AS cumy
      FROM pv),
d AS (SELECT GREATEST(MAX(n.m * cumx - n.n * cumy), 0) AS dp,
             GREATEST(MAX(n.n * cumy - n.m * cumx), 0) AS dm
      FROM r, n)
SELECT CAST(n.n AS BIGINT) AS n_click, CAST(n.m AS BIGINT)
         AS n_purchase,
       CAST(d.dp AS BIGINT) AS d_plus_num,
       CAST(d.dm AS BIGINT) AS d_minus_num,
       ROUND(CAST(d.dp + d.dm AS DOUBLE)
             / CAST(n.n * n.m AS DOUBLE), 6) AS kuiper_v
FROM d, n
"""


def q_qq_decile_drift(sf_dir: str):
    """Quantile–quantile drift profile between click and purchase
    values: the exact type-1 decile of each side at p = 1..9 tenths
    and their integer cent gaps — WHERE the distributions diverge
    (a location shift moves every decile equally; a tail divergence
    moves only the ends — the shape question a single KS number
    flattens).  All order statistics exact; the max |gap| is an
    integer fact."""
    g = _click_purchase_value_counts(sf_dir)
    piv = g.pivot_table(index="v", columns="side", values="c",
                        fill_value=0, aggfunc="sum").sort_index()
    for s in (0, 1):
        if s not in piv.columns:
            piv[s] = 0
    v = piv.index.to_numpy(np.int64)
    cx = np.cumsum(piv[0].to_numpy(np.int64))
    cy = np.cumsum(piv[1].to_numpy(np.int64))
    n, m = int(cx[-1]), int(cy[-1])
    rows = []
    for p in range(1, 10):
        kx = (p * n + 9) // 10
        ky = (p * m + 9) // 10
        qx = int(v[np.searchsorted(cx, kx)])
        qy = int(v[np.searchsorted(cy, ky)])
        rows.append({"decile": p, "click_q_c": qx,
                     "purchase_q_c": qy, "gap_c": qy - qx})
    return pd.DataFrame(rows).astype(np.int64)


SQL_QQ_DECILES = f"""
WITH {SQL_CP_COUNTS_CTE.strip()},
pv AS (SELECT v, SUM(CASE WHEN side = 0 THEN c ELSE 0 END) AS cx,
             SUM(CASE WHEN side = 1 THEN c ELSE 0 END) AS cy
       FROM g GROUP BY 1),
n AS (SELECT SUM(cx) AS n, SUM(cy) AS m FROM pv),
r AS (SELECT v,
             SUM(cx) OVER (ORDER BY v) AS cumx,
             SUM(cy) OVER (ORDER BY v) AS cumy
      FROM pv),
dk AS (SELECT unnest(generate_series(1, 9)) AS p)
SELECT CAST(dk.p AS BIGINT) AS decile,
       (SELECT MIN(v) FROM r, n
        WHERE cumx >= (dk.p * n.n + 9) // 10) AS click_q_c,
       (SELECT MIN(v) FROM r, n
        WHERE cumy >= (dk.p * n.m + 9) // 10) AS purchase_q_c,
       (SELECT MIN(v) FROM r, n
        WHERE cumy >= (dk.p * n.m + 9) // 10)
       - (SELECT MIN(v) FROM r, n
          WHERE cumx >= (dk.p * n.n + 9) // 10) AS gap_c
FROM dk ORDER BY dk.p
"""


def q_anderson_darling_2samp(sf_dir: str):
    """Two-sample Anderson–Darling statistic, click vs purchase
    values — the tail-sensitive completion of the two-sample family
    (KS sees the worst point, CvM the average gap; AD re-weights by
    1/(F(1−F)) so divergence in the TAILS, where KS/CvM go numb, is
    what it amplifies).  Scholz–Stephens tie-adjusted midrank version
    (k = 2): over distinct pooled values j with multiplicity l_j,
    doubling the midrank cumulatives (H_j = 2·cum_j − l_j,
    G_ij = 2·cum_ij − l_ij) clears every half so each term's ratio is
    the INTEGER quotient (N·G_ij − n_i·H_j)² / D_j with
    D_j = H_j·(2N − H_j) − N·l_j > 0; the per-(sample, value) term
    (N−1)·l_j·(N·G_ij − n_i·H_j)² / (N²·n_i·D_j) is NANO-QUANTIZED by
    exact integer rounding ((2·a·1e9 + b) // (2·b)) so the cross-
    engine fold is an order-free int64 sum.  Rides the shared
    (side, cents) counts reduce; the Ray side is arbitrary-precision,
    the twin's HUGEINT chain clears at the gate scales."""
    g = _click_purchase_value_counts(sf_dir)
    piv = g.pivot_table(index="v", columns="side", values="c",
                        fill_value=0, aggfunc="sum").sort_index()
    for s in (0, 1):
        if s not in piv.columns:
            piv[s] = 0
    cx = piv[0].to_numpy(np.int64)
    cy = piv[1].to_numpy(np.int64)
    n = int(cx.sum())
    m = int(cy.sum())
    nn = n + m
    l_all = (cx + cy).astype(object)
    cum = np.cumsum(l_all)
    h = 2 * cum - l_all                      # doubled midrank cumulative
    d = h * (2 * nn - h) - nn * l_all        # > 0 except degenerate
    a2_nano = 0
    for ni, cs, ls in ((n, np.cumsum(cx.astype(object)),
                        cx.astype(object)),
                       (m, np.cumsum(cy.astype(object)),
                        cy.astype(object))):
        gg = 2 * cs - ls
        num = nn * gg - ni * h
        for j in range(len(l_all)):
            if int(d[j]) == 0:
                continue
            a = (nn - 1) * int(l_all[j]) * int(num[j]) * int(num[j])
            b = nn * nn * ni * int(d[j])
            a2_nano += (2 * a * 1_000_000_000 + b) // (2 * b)
    return pd.DataFrame([{
        "n_click": n, "n_purchase": m, "a2_nano": a2_nano,
        "ad_a2": np.round(a2_nano / 1e9, 6)}]).astype({
            "n_click": np.int64, "n_purchase": np.int64,
            "a2_nano": np.int64})


SQL_AD_2SAMP = f"""
WITH {SQL_CP_COUNTS_CTE.strip()},
pv AS (SELECT v, SUM(CASE WHEN side = 0 THEN c ELSE 0 END) AS cx,
             SUM(CASE WHEN side = 1 THEN c ELSE 0 END) AS cy
       FROM g GROUP BY 1),
n AS (SELECT CAST(SUM(cx) AS HUGEINT) AS n,
             CAST(SUM(cy) AS HUGEINT) AS m FROM pv),
r AS (SELECT v, cx + cy AS l,
             2 * SUM(cx + cy) OVER (ORDER BY v) - (cx + cy) AS h,
             2 * SUM(cx) OVER (ORDER BY v) - cx AS g0,
             2 * SUM(cy) OVER (ORDER BY v) - cy AS g1
      FROM pv),
t AS (SELECT
        SUM(CASE WHEN CAST(h AS HUGEINT) * (2 * (n.n + n.m) - h)
                      - (n.n + n.m) * l = 0 THEN 0
            ELSE (2 * ((n.n + n.m - 1) * CAST(l AS HUGEINT)
                       * ((n.n + n.m) * g0 - n.n * h)
                       * ((n.n + n.m) * g0 - n.n * h))
                  * 1000000000
                  + ((n.n + n.m) * (n.n + n.m) * n.n
                     * (CAST(h AS HUGEINT) * (2 * (n.n + n.m) - h)
                        - (n.n + n.m) * l)))
                 // (2 * ((n.n + n.m) * (n.n + n.m) * n.n
                          * (CAST(h AS HUGEINT)
                             * (2 * (n.n + n.m) - h)
                             - (n.n + n.m) * l))) END
            + CASE WHEN CAST(h AS HUGEINT) * (2 * (n.n + n.m) - h)
                        - (n.n + n.m) * l = 0 THEN 0
              ELSE (2 * ((n.n + n.m - 1) * CAST(l AS HUGEINT)
                         * ((n.n + n.m) * g1 - n.m * h)
                         * ((n.n + n.m) * g1 - n.m * h))
                    * 1000000000
                    + ((n.n + n.m) * (n.n + n.m) * n.m
                       * (CAST(h AS HUGEINT) * (2 * (n.n + n.m) - h)
                          - (n.n + n.m) * l)))
                   // (2 * ((n.n + n.m) * (n.n + n.m) * n.m
                            * (CAST(h AS HUGEINT)
                               * (2 * (n.n + n.m) - h)
                               - (n.n + n.m) * l))) END) AS a2n
      FROM r, n)
SELECT CAST(n.n AS BIGINT) AS n_click, CAST(n.m AS BIGINT)
         AS n_purchase,
       CAST(t.a2n AS BIGINT) AS a2_nano,
       ROUND(CAST(t.a2n AS DOUBLE) / 1e9, 6) AS ad_a2
FROM t, n
"""


def _minute_trig_lut():
    """Quantized minute-of-day trig table shared by the circular ops:
    cos/sin of θ_m = 2π·m/1440 at MICRO precision, computed with
    scalar libm `math.cos` (numpy's SIMD trig can drift 1–2 ulp from
    libm; DuckDB's COS IS libm, so the scalar loop is the mirror)."""
    import math
    c6 = np.empty(1440, dtype=np.int64)
    s6 = np.empty(1440, dtype=np.int64)
    for m in range(1440):
        th = 2 * math.pi * m / 1440.0
        c6[m] = int(np.floor(math.cos(th) * 1e6 + 0.5))
        s6[m] = int(np.floor(math.sin(th) * 1e6 + 0.5))
    return c6, s6


def q_rayleigh_test_minutes(sf_dir: str):
    """Rayleigh test of circular uniformity on event time-of-day —
    the circadian question every activity log should answer before
    hourly seasonality is modelled ('is there ANY preferred time at
    all?'): minute-of-day angles θ = 2π·m/1440, resultant length
    R̄ = |Σe^{iθ}|/n, z = n·R̄² with the standard small-sample
    p-correction.  The distributed part is a ≤1440-row minute-count
    reduce; trig is MICRO-QUANTIZED per distinct minute (libm cos on
    both engines) so the resultant components are exact integers and
    the z/p/mean-direction chain is one mirrored float finish."""
    import math
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts"])

    def partial(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        mi = (us // 60_000_000) % 1440
        u, c = np.unique(mi, return_counts=True)
        return pa.table({"mi": pa.array(u.astype(np.int64)),
                         "c": pa.array(c.astype(np.int64))})

    g = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("mi").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    c6, s6 = _minute_trig_lut()
    mi = g["mi"].to_numpy(np.int64)
    cnt = g["c"].to_numpy(np.int64).astype(object)
    n = int(cnt.sum())
    cc = int((cnt * c6[mi].astype(object)).sum())
    ss = int((cnt * s6[mi].astype(object)).sum())
    rbar = math.sqrt(float(cc * cc + ss * ss)) / (n * 1e6)
    z = n * rbar * rbar
    p = math.exp(-z) * (1.0 + (2.0 * z - z * z) / (4.0 * n))
    # mean direction via the exact SQL chain (shifted-floor mod, not
    # python's fmod-based % — the two can drift an ulp apart)
    a = math.atan2(float(ss), float(cc)) + 2 * math.pi
    hr = (a - math.floor(a / (2 * math.pi)) * (2 * math.pi)) \
        / (2 * math.pi) * 24.0
    return pd.DataFrame([{
        "n_events": n, "rbar": np.round(rbar, 6),
        "rayleigh_z": np.round(z, 6), "p_approx": np.round(p, 6),
        "mean_dir_hour": np.round(hr, 6)}]).astype({
            "n_events": np.int64})


SQL_RAYLEIGH = """
WITH m AS (SELECT CAST(epoch_us(ts) // 60000000 % 1440 AS BIGINT)
             AS mi, CAST(COUNT(*) AS BIGINT) AS c
           FROM events GROUP BY 1),
t AS (SELECT CAST(SUM(c) AS HUGEINT) AS n,
             SUM(c * CAST(FLOOR(COS(2 * PI() * mi / 1440.0) * 1e6
                                + 0.5) AS HUGEINT)) AS cc,
             SUM(c * CAST(FLOOR(SIN(2 * PI() * mi / 1440.0) * 1e6
                                + 0.5) AS HUGEINT)) AS ss
      FROM m),
f AS (SELECT CAST(n AS BIGINT) AS n,
             SQRT(CAST(cc * cc + ss * ss AS DOUBLE))
               / (CAST(n AS DOUBLE) * 1e6) AS rbar,
             CAST(cc AS DOUBLE) AS ccf, CAST(ss AS DOUBLE) AS ssf
      FROM t)
SELECT n AS n_events, ROUND(rbar, 6) AS rbar,
       ROUND(n * rbar * rbar, 6) AS rayleigh_z,
       ROUND(EXP(-(n * rbar * rbar))
             * (1.0 + (2.0 * (n * rbar * rbar)
                       - (n * rbar * rbar) * (n * rbar * rbar))
                / (4.0 * n)), 6) AS p_approx,
       ROUND(((ATAN2(ssf, ccf) + 2 * PI()) - FLOOR(
                (ATAN2(ssf, ccf) + 2 * PI()) / (2 * PI()))
              * (2 * PI())) / (2 * PI()) * 24.0, 6)
         AS mean_dir_hour
FROM f
"""


def q_circlin_corr_minutes(sf_dir: str):
    """Mardia's circular–linear correlation between event time-of-day
    and event value — 'do big-ticket events cluster at a time of
    day?', the question a PLAIN corr(hour, value) gets wrong at the
    midnight wrap: r²_cl = (r²_xc + r²_xs − 2·r_xc·r_xs·r_cs)
    / (1 − r²_cs) over value-vs-cos, value-vs-sin and cos-vs-sin
    correlations.  Values as ⌊v+0.5⌋ integer dollars and the shared
    micro-quantized minute trig make all ten moment sums exact
    integers in ONE scalar-partials pass (no per-event shuffle at
    all); the three Pearson chains are the only floats."""
    import math
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts", "value"])
    c6, s6 = _minute_trig_lut()

    def partial(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        mi = (us // 60_000_000) % 1440
        x = np.floor(t["value"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64)
        c_ = c6[mi]
        s_ = s6[mi]
        return pa.table({
            "_g": pa.array([0]), "n": pa.array([len(x)]),
            "sx": pa.array([int(x.sum())]),
            "sxx": pa.array([int((x * x).sum())]),
            "sc": pa.array([int(c_.sum())]),
            "scc": pa.array([int((c_ * c_).sum())]),
            "ssn": pa.array([int(s_.sum())]),
            "sss": pa.array([int((s_ * s_).sum())]),
            "sxc": pa.array([int((x * c_).sum())]),
            "sxs": pa.array([int((x * s_).sum())]),
            "scs": pa.array([int((c_ * s_).sum())])})

    cols = ["n", "sx", "sxx", "sc", "scc", "ssn", "sss", "sxc",
            "sxs", "scs"]
    m = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("_g").aggregate(
            *[Sum(c, alias_name=c) for c in cols])).to_pandas()
    v = {c: int(m[c].iloc[0]) for c in cols}
    n = v["n"]

    def corr(sab, sa, sb, saa, sbb):
        num = float(n * sab - sa * sb)
        den = math.sqrt(float(n * saa - sa * sa)) \
            * math.sqrt(float(n * sbb - sb * sb))
        return num / den

    rxc = corr(v["sxc"], v["sx"], v["sc"], v["sxx"], v["scc"])
    rxs = corr(v["sxs"], v["sx"], v["ssn"], v["sxx"], v["sss"])
    rcs = corr(v["scs"], v["sc"], v["ssn"], v["scc"], v["sss"])
    r2 = (rxc * rxc + rxs * rxs - 2.0 * rxc * rxs * rcs) \
        / (1.0 - rcs * rcs)
    return pd.DataFrame([{
        "n_events": n, "r_xc": np.round(rxc, 6),
        "r_xs": np.round(rxs, 6), "r_cs": np.round(rcs, 6),
        "r2_circlin": np.round(r2, 6)}]).astype({
            "n_events": np.int64})


SQL_CIRCLIN = """
WITH e AS (SELECT CAST(epoch_us(ts) // 60000000 % 1440 AS BIGINT)
             AS mi,
           CAST(FLOOR(value + 0.5) AS HUGEINT) AS x
           FROM events),
q AS (SELECT x,
             CAST(FLOOR(COS(2 * PI() * mi / 1440.0) * 1e6 + 0.5)
                  AS HUGEINT) AS c6,
             CAST(FLOOR(SIN(2 * PI() * mi / 1440.0) * 1e6 + 0.5)
                  AS HUGEINT) AS s6
      FROM e),
t AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(x) AS sx,
             SUM(x * x) AS sxx, SUM(c6) AS sc, SUM(c6 * c6) AS scc,
             SUM(s6) AS ssn, SUM(s6 * s6) AS sss,
             SUM(x * c6) AS sxc, SUM(x * s6) AS sxs,
             SUM(c6 * s6) AS scs
      FROM q),
r AS (SELECT CAST(n AS BIGINT) AS n,
        CAST(n * sxc - sx * sc AS DOUBLE)
          / (SQRT(CAST(n * sxx - sx * sx AS DOUBLE))
             * SQRT(CAST(n * scc - sc * sc AS DOUBLE))) AS rxc,
        CAST(n * sxs - sx * ssn AS DOUBLE)
          / (SQRT(CAST(n * sxx - sx * sx AS DOUBLE))
             * SQRT(CAST(n * sss - ssn * ssn AS DOUBLE))) AS rxs,
        CAST(n * scs - sc * ssn AS DOUBLE)
          / (SQRT(CAST(n * scc - sc * sc AS DOUBLE))
             * SQRT(CAST(n * sss - ssn * ssn AS DOUBLE))) AS rcs
      FROM t)
SELECT n AS n_events, ROUND(rxc, 6) AS r_xc, ROUND(rxs, 6) AS r_xs,
       ROUND(rcs, 6) AS r_cs,
       ROUND((rxc * rxc + rxs * rxs - 2.0 * rxc * rxs * rcs)
             / (1.0 - rcs * rcs), 6) AS r2_circlin
FROM r
"""


def q_rao_spacing_seconds(sf_dir: str):
    """Rao's spacing test of time-of-day uniformity — the gap-based
    circular test that catches MULTIMODAL departures Rayleigh is
    blind to (two opposite activity peaks cancel the resultant
    vector; they cannot cancel the spacing irregularity):
    U = ½·Σ|gap_i − λ| over the n circular gaps between consecutive
    event angles, λ = circle/n.  On integer second-of-day angles the
    whole statistic clears to exact integers —
    2n·U = Σ_distinct |n·gap − 86400| + (n − d)·86400 (tied events
    contribute zero gaps, hence one λ each) — from a ≤86400-row
    counts reduce; the one division lands u in seconds and degrees."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts"])

    def partial(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        sec = (us // 1_000_000) % 86400
        u, c = np.unique(sec, return_counts=True)
        return pa.table({"s": pa.array(u.astype(np.int64)),
                         "c": pa.array(c.astype(np.int64))})

    g = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("s").aggregate(Sum("c", alias_name="c"))
    ).to_pandas().sort_values("s").reset_index(drop=True)
    s = g["s"].to_numpy(np.int64)
    c = g["c"].to_numpy(np.int64)
    n = int(c.sum())
    d = len(s)
    gaps = np.empty(d, dtype=np.int64)
    gaps[:-1] = s[1:] - s[:-1]
    gaps[-1] = 86400 - int(s[-1]) + int(s[0])
    u2n = int(np.abs(n * gaps.astype(object) - 86400).sum()) \
        + (n - d) * 86400
    u_sec = float(u2n) / float(2 * n)
    return pd.DataFrame([{
        "n_events": n, "n_distinct_seconds": d, "u2n": u2n,
        "u_seconds": np.round(u_sec, 6),
        "u_degrees": np.round(u_sec / 86400.0 * 360.0, 6)}]).astype({
            "n_events": np.int64, "n_distinct_seconds": np.int64,
            "u2n": np.int64})


SQL_RAO_SPACING = """
WITH sc AS (SELECT CAST(epoch_us(ts) // 1000000 % 86400 AS BIGINT)
              AS s, CAST(COUNT(*) AS BIGINT) AS c
            FROM events GROUP BY 1),
n AS (SELECT CAST(SUM(c) AS HUGEINT) AS n,
             CAST(COUNT(*) AS BIGINT) AS d,
             MIN(s) AS s0, MAX(s) AS s1 FROM sc),
gp AS (SELECT s, LEAD(s) OVER (ORDER BY s) AS nxt FROM sc),
t AS (SELECT SUM(ABS(n.n * (gp.nxt - gp.s) - 86400)) AS gsum
      FROM gp, n WHERE gp.nxt IS NOT NULL),
f AS (SELECT CAST(n.n AS BIGINT) AS n, n.d,
             COALESCE(t.gsum, 0)
             + ABS(n.n * (86400 - n.s1 + n.s0) - 86400)
             + (n.n - n.d) * 86400 AS u2n
      FROM t, n)
SELECT n AS n_events, d AS n_distinct_seconds,
       CAST(u2n AS BIGINT) AS u2n,
       ROUND(CAST(u2n AS DOUBLE) / CAST(2 * n AS DOUBLE), 6)
         AS u_seconds,
       ROUND(CAST(u2n AS DOUBLE) / CAST(2 * n AS DOUBLE)
             / 86400.0 * 360.0, 6) AS u_degrees
FROM f
"""


def q_crow_amsaa_errors(sf_dir: str):
    """Crow–AMSAA (Duane) reliability-growth fit on the error-event
    stream: ln N(t) = α + β·ln t over cumulative error counts at
    each error day — β < 1 means the system is LEARNING (failures
    decelerate), β > 1 deteriorating, the canonical fleet-health
    trend test.  Day-granular points (t = days since the first
    error + 1), per-point terms nano-quantized, mirrored OLS finish;
    the growth flag compares the ROUNDED β so no knife edge."""
    import math
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["event_type"], "error")
        us = t.filter(keep)["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        day = us // 86_400_000_000
        u, c = np.unique(day, return_counts=True)
        return pa.table({"day": pa.array(u.astype(np.int64)),
                         "c": pa.array(c.astype(np.int64))})

    g = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("c", alias_name="c"))
    ).to_pandas().sort_values("day").reset_index(drop=True)
    day0 = int(g["day"].iloc[0])
    cum = g["c"].cumsum().to_numpy(np.int64)
    k = len(g)
    sx9 = sy9 = sxy9 = sxx9 = 0
    for j in range(k):
        x = math.log(int(g["day"].iloc[j]) - day0 + 1)
        y = math.log(int(cum[j]))
        sx9 += int(np.floor(x * 1e9 + 0.5))
        sy9 += int(np.floor(y * 1e9 + 0.5))
        sxy9 += int(np.floor(x * y * 1e9 + 0.5))
        sxx9 += int(np.floor(x * x * 1e9 + 0.5))
    sx, sy = sx9 / 1e9, sy9 / 1e9
    sxy, sxx = sxy9 / 1e9, sxx9 / 1e9
    beta = (k * sxy - sx * sy) / (k * sxx - sx * sx)
    lam = math.exp(sy / k - beta * (sx / k))
    rb = np.round(beta, 6)
    return pd.DataFrame([{
        "n_error_days": k, "n_errors": int(cum[-1]),
        "beta_growth": rb, "lambda_scale": np.round(lam, 6),
        "improving": bool(rb < 1.0)}]).astype({
            "n_error_days": np.int64, "n_errors": np.int64})


SQL_CROW_AMSAA = """
WITH d AS (SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT)
             AS day, CAST(COUNT(*) AS BIGINT) AS c
           FROM events WHERE event_type = 'error' GROUP BY 1),
w AS (SELECT day, SUM(c) OVER (ORDER BY day) AS cum,
             MIN(day) OVER () AS day0
      FROM d),
q AS (SELECT LN(day - day0 + 1) AS x, LN(cum) AS y FROM w),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS k,
             SUM(CAST(FLOOR(x * 1e9 + 0.5) AS BIGINT)) / 1e9 AS sx,
             SUM(CAST(FLOOR(y * 1e9 + 0.5) AS BIGINT)) / 1e9 AS sy,
             SUM(CAST(FLOOR(x * y * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS sxy,
             SUM(CAST(FLOOR(x * x * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS sxx
      FROM q),
b AS (SELECT k, (k * sxy - sx * sy) / (k * sxx - sx * sx) AS beta,
             sx, sy
      FROM s)
SELECT k AS n_error_days,
       (SELECT CAST(MAX(cum) AS BIGINT) FROM w) AS n_errors,
       ROUND(beta, 6) AS beta_growth,
       ROUND(EXP(sy / k - beta * (sx / k)), 6) AS lambda_scale,
       ROUND(beta, 6) < 1.0 AS improving
FROM b
"""


def q_taylors_law_events(sf_dir: str):
    """Taylor's power law across event types — ecology's
    fluctuation-scaling classic, Var(daily count) ∝ Mean^b: b = 1 is
    Poisson arrivals, b > 1 says events CLUSTER (bursts), the
    aggregation diagnostic behind burstiness scores.  Per-type daily
    counts over the zero-filled calendar give exact integer moments
    (D, Σc, Σc²); x = ln mean and y = ln var are identical double
    chains nano-quantized per type before the tiny OLS; zero-variance
    types are excluded by stated convention."""
    import math
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        g = pd.DataFrame({"et": t["event_type"].to_numpy(
            zero_copy_only=False),
            "day": us // 86_400_000_000, "c": 1}) \
            .groupby(["et", "day"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["et", "day"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    lo = int(g["day"].min())
    hi = int(g["day"].max())
    dd = hi - lo + 1
    k = 0
    sx9 = sy9 = sxy9 = sxx9 = 0
    for et, ge in g.groupby("et"):
        sc = int(ge["c"].sum())
        sc2 = int((ge["c"].astype(object) ** 2).sum())
        var_num = dd * sc2 - sc * sc
        if var_num <= 0:
            continue
        k += 1
        x = math.log(float(sc) / dd)
        y = math.log(float(var_num) / (float(dd) * dd))
        sx9 += int(np.floor(x * 1e9 + 0.5))
        sy9 += int(np.floor(y * 1e9 + 0.5))
        sxy9 += int(np.floor(x * y * 1e9 + 0.5))
        sxx9 += int(np.floor(x * x * 1e9 + 0.5))
    sx, sy = sx9 / 1e9, sy9 / 1e9
    sxy, sxx = sxy9 / 1e9, sxx9 / 1e9
    b = (k * sxy - sx * sy) / (k * sxx - sx * sx)
    a = sy / k - b * (sx / k)
    return pd.DataFrame([{
        "n_days": dd, "k_types": k,
        "slope_b": np.round(b, 6),
        "intercept_ln_a": np.round(a, 6)}]).astype({
            "n_days": np.int64, "k_types": np.int64})


SQL_TAYLORS_LAW = """
WITH e AS (SELECT event_type AS et,
                  CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                    AS day, CAST(COUNT(*) AS BIGINT) AS c
           FROM events GROUP BY 1, 2),
bounds AS (SELECT MAX(day) - MIN(day) + 1 AS dd FROM e),
m AS (SELECT et, SUM(c) AS sc,
             SUM(CAST(c AS HUGEINT) * c) AS sc2
      FROM e GROUP BY 1),
q AS (SELECT LN(CAST(sc AS DOUBLE) / dd) AS x,
             LN(CAST(bounds.dd * sc2 - CAST(sc AS HUGEINT) * sc
                     AS DOUBLE) / (CAST(bounds.dd AS DOUBLE)
                                   * bounds.dd)) AS y
      FROM m, bounds
      WHERE bounds.dd * sc2 - CAST(sc AS HUGEINT) * sc > 0),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS k,
             SUM(CAST(FLOOR(x * 1e9 + 0.5) AS BIGINT)) / 1e9 AS sx,
             SUM(CAST(FLOOR(y * 1e9 + 0.5) AS BIGINT)) / 1e9 AS sy,
             SUM(CAST(FLOOR(x * y * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS sxy,
             SUM(CAST(FLOOR(x * x * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS sxx
      FROM q),
b AS (SELECT k, (k * sxy - sx * sy) / (k * sxx - sx * sx) AS bb,
             sx, sy
      FROM s)
SELECT (SELECT CAST(dd AS BIGINT) FROM bounds) AS n_days,
       k AS k_types, ROUND(bb, 6) AS slope_b,
       ROUND(sy / k - bb * (sx / k), 6) AS intercept_ln_a
FROM b
"""


def q_kingman_vut_wait(sf_dir: str):
    """Kingman's VUT formula for the purchase stream as a G/G/1
    queue — the P–K op's generalization when arrivals are NOT
    Poisson: W_q ≈ (ρ/(1−ρ))·((c_a² + c_s²)/2)·E[S], the
    variability–utilization–time law of factory physics.  The
    arrival SCV comes from exact integer interarrival moments (gaps
    off the per-second counts panel: same-second arrivals are zero
    gaps, Σa = span exactly), the service SCV from exact cent power
    sums (scale-invariant, so cents need no unit change); ρ and W_q
    mirror the P–K op's chains including its integer-decided
    overload sentinel."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["event_type"], "purchase")
        t = t.filter(keep)
        sec = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) // 1_000_000
        cents = np.round(t["value"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"sec": sec, "c": 1, "sc": cents,
                          "sc2": cents * cents}) \
            .groupby("sec", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("sec").aggregate(
            Sum("c", alias_name="c"), Sum("sc", alias_name="sc"),
            Sum("sc2", alias_name="sc2"))
    ).to_pandas().sort_values("sec").reset_index(drop=True)
    secs = g["sec"].to_numpy(np.int64)
    n = int(g["c"].sum())
    span = int(secs[-1]) - int(secs[0])
    gaps = np.diff(secs).astype(object)
    sa2 = int((gaps * gaps).sum())
    sc = int(g["sc"].sum())
    sc2 = int(g["sc2"].astype(object).sum())
    ca2 = float((n - 1) * sa2 - span * span) / float(span * span)
    cs2 = float(n * sc2 - sc * sc) / float(sc * sc)
    lam = float(n) / float(span)
    es = float(sc) / float(n) / 100.0
    rho = lam * es
    if sc >= 100 * span:
        wq = -1.0
    else:
        wq = (rho / (1.0 - rho)) * ((ca2 + cs2) / 2.0) * es
    return pd.DataFrame([{
        "n_jobs": n, "span_sec": span, "rho": np.round(rho, 6),
        "ca2": np.round(ca2, 6), "cs2": np.round(cs2, 6),
        "wq_kingman_sec": np.round(wq, 6)}]).astype({
            "n_jobs": np.int64, "span_sec": np.int64})


SQL_KINGMAN = """
WITH p AS (SELECT epoch_us(ts) // 1000000 AS sec,
                  CAST(ROUND(value * 100) AS BIGINT) AS cents
           FROM events WHERE event_type = 'purchase'),
bys AS (SELECT sec, CAST(COUNT(*) AS BIGINT) AS c,
               SUM(CAST(cents AS HUGEINT)) AS sc,
               SUM(CAST(cents AS HUGEINT) * cents) AS sc2
        FROM p GROUP BY 1),
gp AS (SELECT sec, LEAD(sec) OVER (ORDER BY sec) AS nxt FROM bys),
t AS (SELECT (SELECT SUM(c) FROM bys) AS n,
             (SELECT MAX(sec) - MIN(sec) FROM bys) AS span,
             (SELECT SUM(CAST(nxt - sec AS HUGEINT)
                         * (nxt - sec))
              FROM gp WHERE nxt IS NOT NULL) AS sa2,
             (SELECT SUM(sc) FROM bys) AS scs,
             (SELECT SUM(sc2) FROM bys) AS sc2s),
f AS (SELECT CAST(n AS BIGINT) AS n, CAST(span AS BIGINT) AS span,
        CAST((n - 1) * sa2 - CAST(span AS HUGEINT) * span
             AS DOUBLE) / CAST(CAST(span AS HUGEINT) * span
                               AS DOUBLE) AS ca2,
        CAST(n * sc2s - scs * scs AS DOUBLE)
          / CAST(scs * scs AS DOUBLE) AS cs2,
        CAST(n AS DOUBLE) / CAST(span AS DOUBLE) AS lam,
        CAST(scs AS DOUBLE) / CAST(n AS DOUBLE) / 100.0 AS es,
        CASE WHEN scs >= 100 * CAST(span AS HUGEINT)
             THEN 1 ELSE 0 END AS overload
      FROM t)
SELECT n AS n_jobs, span AS span_sec,
       ROUND(lam * es, 6) AS rho, ROUND(ca2, 6) AS ca2,
       ROUND(cs2, 6) AS cs2,
       CASE WHEN overload = 1 THEN -1.0
            ELSE ROUND((lam * es / (1.0 - lam * es))
                       * ((ca2 + cs2) / 2.0) * es, 6) END
         AS wq_kingman_sec
FROM f
"""


def q_littles_law_sessions(sf_dir: str):
    """Little's law audit over gap-sessionized user activity
    (gap = 1800 s, the sessionize op's contract): the time-average
    number of concurrent sessions L, arrival rate λ and mean session
    duration W computed by TWO INDEPENDENT paths — L by the
    event-sweep integral Σk·Δt over session start/end deltas, λW by
    the per-session duration sum — and the identity L = λW checked
    EXACTLY in integer second-area units (the sweep is the
    concurrency op's machinery; agreement pins both operators).
    identity_gap is exactly 0 on any input."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def user_seconds(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        sec = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) // 1_000_000
        return pa.table({"u": pa.array(u), "s": pa.array(sec)})

    def sess_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # whole-bucket vectorized: lexsort by (user, sec); session
        # break at user boundary OR gap > 1800
        u = df["u"].to_numpy(np.int64)
        s = df["s"].to_numpy(np.int64)
        o = np.lexsort((s, u))
        u, s = u[o], s[o]
        new = np.ones(len(u), dtype=bool)
        new[1:] = (u[1:] != u[:-1]) | ((s[1:] - s[:-1]) > 1800)
        sid = np.cumsum(new)
        g = pd.DataFrame({"sid": sid, "s": s}).groupby("sid") \
            .agg(start=("s", "min"), end=("s", "max"))
        return g.reset_index(drop=True)

    sess = relational.ds_to_table(
        relational.bucket_shuffle(ev, "u", sess_bucket,
                                  prepare=user_seconds)
    ).to_pandas()
    n_s = len(sess)
    sum_dur = int((sess["end"] - sess["start"]).sum())
    horizon = int(sess["end"].max()) - int(sess["start"].min())
    # independent path: event-sweep integral of concurrency
    deltas = pd.concat([
        pd.DataFrame({"t": sess["start"], "d": 1}),
        pd.DataFrame({"t": sess["end"], "d": -1})]) \
        .groupby("t")["d"].sum().sort_index()
    ts = deltas.index.to_numpy(np.int64)
    k = deltas.cumsum().to_numpy(np.int64)
    area = int((k[:-1].astype(object)
                * (ts[1:] - ts[:-1]).astype(object)).sum())
    lam_hr = float(n_s) / float(horizon) * 3600.0
    w = float(sum_dur) / float(n_s)
    l_avg = float(area) / float(horizon)
    return pd.DataFrame([{
        "n_sessions": n_s, "horizon_sec": horizon,
        "sum_duration_sec": sum_dur, "sweep_area_sec": area,
        "identity_gap": area - sum_dur,
        "l_time_avg": np.round(l_avg, 6),
        "lambda_per_hour": np.round(lam_hr, 6),
        "w_mean_sec": np.round(w, 6)}]).astype({
            "n_sessions": np.int64, "horizon_sec": np.int64,
            "sum_duration_sec": np.int64, "sweep_area_sec": np.int64,
            "identity_gap": np.int64})


SQL_LITTLES_LAW = """
WITH e AS (SELECT user_id, epoch_us(ts) // 1000000 AS sec
           FROM events),
l AS (SELECT user_id, sec,
             CASE WHEN sec - LAG(sec) OVER (PARTITION BY user_id
                                            ORDER BY sec) > 1800
                  OR LAG(sec) OVER (PARTITION BY user_id
                                    ORDER BY sec) IS NULL
                  THEN 1 ELSE 0 END AS new_s
      FROM e),
sid AS (SELECT user_id, sec,
               SUM(new_s) OVER (PARTITION BY user_id ORDER BY sec
                                ROWS UNBOUNDED PRECEDING) AS s
        FROM l),
sess AS (SELECT user_id, s, MIN(sec) AS st, MAX(sec) AS en
         FROM sid GROUP BY 1, 2),
agg AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_s,
               CAST(SUM(en - st) AS BIGINT) AS sum_dur,
               CAST(MAX(en) - MIN(st) AS BIGINT) AS horizon
        FROM sess),
dl AS (SELECT t, SUM(d) AS d FROM (
         SELECT st AS t, 1 AS d FROM sess
         UNION ALL SELECT en AS t, -1 AS d FROM sess)
       GROUP BY 1),
sw AS (SELECT t, SUM(d) OVER (ORDER BY t
                              ROWS UNBOUNDED PRECEDING) AS k,
              LEAD(t) OVER (ORDER BY t) AS nxt
       FROM dl),
ar AS (SELECT CAST(SUM(k * (nxt - t)) AS BIGINT) AS area
       FROM sw WHERE nxt IS NOT NULL)
SELECT agg.n_s AS n_sessions, agg.horizon AS horizon_sec,
       agg.sum_dur AS sum_duration_sec, ar.area AS sweep_area_sec,
       ar.area - agg.sum_dur AS identity_gap,
       ROUND(CAST(ar.area AS DOUBLE) / CAST(agg.horizon AS DOUBLE),
             6) AS l_time_avg,
       ROUND(CAST(agg.n_s AS DOUBLE) / CAST(agg.horizon AS DOUBLE)
             * 3600.0, 6) AS lambda_per_hour,
       ROUND(CAST(agg.sum_dur AS DOUBLE) / CAST(agg.n_s AS DOUBLE),
             6) AS w_mean_sec
FROM agg, ar
"""


def q_capm_beta_types(sf_dir: str):
    """CAPM-style beta of each event type's daily value stream
    against the all-types 'market' — the systematic-vs-idiosyncratic
    decomposition ported to activity analytics (β > 1 amplifies
    platform-wide swings, β ≈ 0 moves on its own): per-(type, day)
    exact cent sums over the zero-filled calendar, β = Cov/Var and
    α = ȳ − β·m̄ from exact integer moments (the market series is
    the column sum, so no second pass), R² mirrored."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        cents = np.round(t["value"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"et": t["event_type"].to_numpy(
            zero_copy_only=False),
            "day": us // 86_400_000_000, "v": cents}) \
            .groupby(["et", "day"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["et", "day"]).aggregate(Sum("v", alias_name="v"))
    ).to_pandas()
    lo, hi = int(g["day"].min()), int(g["day"].max())
    dd = hi - lo + 1
    types = sorted(g["et"].unique())
    mat = {et: np.zeros(dd, dtype=np.int64) for et in types}
    for r in g.itertuples(index=False):
        mat[r.et][int(r.day) - lo] = int(r.v)
    mkt = np.zeros(dd, dtype=object)
    for et in types:
        mkt += mat[et].astype(object)
    sm = int(mkt.sum())
    smm = int((mkt * mkt).sum())
    var_m = dd * smm - sm * sm
    rows = []
    for et in types:
        y = mat[et].astype(object)
        sy = int(y.sum())
        syy = int((y * y).sum())
        sym = int((y * mkt).sum())
        cov = dd * sym - sy * sm
        beta = float(cov) / float(var_m)
        alpha = (float(sy) - beta * float(sm)) / float(dd) / 100.0
        var_y = dd * syy - sy * sy
        r2 = float(cov) * float(cov) \
            / (float(var_m) * float(var_y))
        rows.append({"event_type": et, "n_days": dd,
                     "beta": np.round(beta, 6),
                     "alpha_dollars": np.round(alpha, 6),
                     "r2": np.round(r2, 6)})
    return pd.DataFrame(rows).astype({"n_days": np.int64})


SQL_CAPM_BETA = """
WITH e AS (SELECT event_type AS et,
                  CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                    AS day,
                  SUM(CAST(ROUND(value * 100) AS BIGINT)) AS v
           FROM events GROUP BY 1, 2),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi,
                  MAX(day) - MIN(day) + 1 AS dd
           FROM e),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
ty AS (SELECT DISTINCT et FROM e),
z AS (SELECT ty.et, cal.day, COALESCE(e.v, 0) AS v
      FROM ty CROSS JOIN cal
      LEFT JOIN e ON e.et = ty.et AND e.day = cal.day),
mk AS (SELECT day, CAST(SUM(v) AS HUGEINT) AS m
       FROM z GROUP BY 1),
mm AS (SELECT SUM(m) AS sm, SUM(m * m) AS smm FROM mk),
yy AS (SELECT z.et, CAST(SUM(z.v) AS HUGEINT) AS sy,
              SUM(CAST(z.v AS HUGEINT) * z.v) AS syy,
              SUM(CAST(z.v AS HUGEINT) * mk.m) AS sym
       FROM z JOIN mk USING (day) GROUP BY 1),
f AS (SELECT yy.et, bounds.dd,
             CAST(bounds.dd * yy.sym - yy.sy * mm.sm AS DOUBLE)
               AS cov,
             CAST(bounds.dd * mm.smm - mm.sm * mm.sm AS DOUBLE)
               AS var_m,
             CAST(bounds.dd * yy.syy - yy.sy * yy.sy AS DOUBLE)
               AS var_y,
             CAST(yy.sy AS DOUBLE) AS sy, CAST(mm.sm AS DOUBLE)
               AS sm
      FROM yy, mm, bounds)
SELECT et AS event_type, CAST(dd AS BIGINT) AS n_days,
       ROUND(cov / var_m, 6) AS beta,
       ROUND((sy - (cov / var_m) * sm) / dd / 100.0, 6)
         AS alpha_dollars,
       ROUND(cov * cov / (var_m * var_y), 6) AS r2
FROM f ORDER BY et
"""


def q_c_chart_errors(sf_dir: str):
    """c-chart on daily error counts — the Poisson-limits defect
    chart (c̄ ± 3√c̄) beside the registry's proportion p-chart: the
    right chart when the OPPORTUNITY count is constant (a day) and
    defects are rare.  Exact integer daily counts over the
    zero-filled event calendar; the only floats are c̄, the two
    limits and the final integer-vs-limit compares, all mirrored.
    LCL clamps at 0 by the standard convention."""
    import math
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        us = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        day = us // 86_400_000_000
        err = pc.equal(t["event_type"], "error") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({"day": day, "c": err, "a": 1}) \
            .groupby("day", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("c", alias_name="c"),
                                  Sum("a", alias_name="a"))
    ).to_pandas().sort_values("day").reset_index(drop=True)
    lo, hi = int(g["day"].min()), int(g["day"].max())
    c = np.zeros(hi - lo + 1, dtype=np.int64)
    c[g["day"].to_numpy(np.int64) - lo] = g["c"].to_numpy(np.int64)
    n = len(c)
    s = int(c.sum())
    cbar = float(s) / n
    ucl = cbar + 3.0 * math.sqrt(cbar)
    lcl = max(0.0, cbar - 3.0 * math.sqrt(cbar))
    n_hi = int((c > ucl).sum())
    n_lo = int((c < lcl).sum())
    return pd.DataFrame([{
        "n_days": n, "n_errors": s, "cbar": np.round(cbar, 6),
        "ucl": np.round(ucl, 6), "lcl": np.round(lcl, 6),
        "n_above_ucl": n_hi, "n_below_lcl": n_lo}]).astype({
            "n_days": np.int64, "n_errors": np.int64,
            "n_above_ucl": np.int64, "n_below_lcl": np.int64})


SQL_C_CHART = """
WITH e AS (SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT)
             AS day,
           SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END)
             AS c
           FROM events GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM e),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day, COALESCE(e.c, 0) AS c
      FROM cal LEFT JOIN e USING (day)),
g AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(c) AS BIGINT) AS s,
             CAST(SUM(c) AS DOUBLE) / COUNT(*) AS cbar
      FROM s),
f AS (SELECT n, s, cbar, cbar + 3.0 * SQRT(cbar) AS ucl,
             GREATEST(0.0, cbar - 3.0 * SQRT(cbar)) AS lcl
      FROM g)
SELECT f.n AS n_days, f.s AS n_errors, ROUND(f.cbar, 6) AS cbar,
       ROUND(f.ucl, 6) AS ucl, ROUND(f.lcl, 6) AS lcl,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM s, f
        WHERE s.c > f.ucl) AS n_above_ucl,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM s, f
        WHERE s.c < f.lcl) AS n_below_lcl
FROM f
"""


def q_gravity_decay_fit(sf_dir: str):
    """Distance-decay calibration of the spatial-interaction gravity
    model on the OD matrix — Wilson's classic: regress
    ln(T_ij/(O_i·D_j)) on ln d_ij so the slope is −γ, the decay
    exponent transport models argue about.  The OD cells live on the
    5×5 grid; d = Chebyshev distance + 1 stays integer; margins are
    exact integer row/column sums; per-pair log terms are
    nano-quantized into the mirrored OLS.  The radiation-model op is
    the parameter-free rival — now both calibrations share a panel."""
    import math
    flows = q_od_matrix_daily(sf_dir)
    f = flows.to_pandas() if hasattr(flows, "to_pandas") else flows
    oi = f.groupby("o_cell")["n"].sum()
    dj = f.groupby("d_cell")["n"].sum()
    n_ = 0
    sx9 = sy9 = sxy9 = sxx9 = 0
    for r in f.itertuples(index=False):
        t = int(r.n)
        if t <= 0:
            continue
        o_, d_ = int(r.o_cell), int(r.d_cell)
        dist = max(abs(o_ // 5 - d_ // 5),
                   abs(o_ % 5 - d_ % 5)) + 1
        x = math.log(float(dist))
        y = math.log(float(t)) - math.log(float(int(oi.loc[o_]))) \
            - math.log(float(int(dj.loc[d_])))
        n_ += 1
        sx9 += int(np.floor(x * 1e9 + 0.5))
        sy9 += int(np.floor(y * 1e9 + 0.5))
        sxy9 += int(np.floor(x * y * 1e9 + 0.5))
        sxx9 += int(np.floor(x * x * 1e9 + 0.5))
    sx, sy = sx9 / 1e9, sy9 / 1e9
    sxy, sxx = sxy9 / 1e9, sxx9 / 1e9
    slope = (n_ * sxy - sx * sy) / (n_ * sxx - sx * sx)
    k = sy / n_ - slope * (sx / n_)
    return pd.DataFrame([{
        "n_od_pairs": n_, "gamma_decay": np.round(-slope, 6),
        "k_intercept": np.round(k, 6)}]).astype({
            "n_od_pairs": np.int64})


def _sql_gravity_decay() -> str:
    # reuse the OD op's CTE body (everything before its final SELECT)
    body = SQL_OD_MATRIX.strip()
    inner = body[len("WITH "):body.rfind("SELECT o_cell")].rstrip()
    if inner.endswith(")"):
        inner += ","
    return f"""
WITH {inner}
fl AS (SELECT o_cell, d_cell, CAST(COUNT(*) AS BIGINT) AS n
       FROM od GROUP BY 1, 2),
oi AS (SELECT o_cell, CAST(SUM(n) AS BIGINT) AS o FROM fl
       GROUP BY 1),
dj AS (SELECT d_cell, CAST(SUM(n) AS BIGINT) AS d FROM fl
       GROUP BY 1),
q AS (SELECT LN(CAST(GREATEST(ABS(fl.o_cell // 5 - fl.d_cell // 5),
                              ABS(fl.o_cell % 5 - fl.d_cell % 5))
                     + 1 AS DOUBLE)) AS x,
             LN(CAST(fl.n AS DOUBLE)) - LN(CAST(oi.o AS DOUBLE))
             - LN(CAST(dj.d AS DOUBLE)) AS y
      FROM fl JOIN oi USING (o_cell) JOIN dj USING (d_cell)
      WHERE fl.n > 0),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             SUM(CAST(FLOOR(x * 1e9 + 0.5) AS BIGINT)) / 1e9 AS sx,
             SUM(CAST(FLOOR(y * 1e9 + 0.5) AS BIGINT)) / 1e9 AS sy,
             SUM(CAST(FLOOR(x * y * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS sxy,
             SUM(CAST(FLOOR(x * x * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS sxx
      FROM q),
b AS (SELECT n, (n * sxy - sx * sy) / (n * sxx - sx * sx) AS sl,
             sx, sy
      FROM s)
SELECT n AS n_od_pairs, ROUND(-sl, 6) AS gamma_decay,
       ROUND(sy / n - sl * (sx / n), 6) AS k_intercept
FROM b
"""


def q_mm1k_loss_probability(sf_dir: str):
    """M/M/1/K finite-buffer loss probabilities for the purchase
    stream — teletraffic's other closed form beside the registry's
    Erlang-B (that one has K servers no queue; this one 1 server,
    K−1 waiting slots): ρ = λ·E[S] from the same exact integer
    moments as the P–K op, P_loss(K) = (1−ρ)ρ^K/(1−ρ^{K+1}) at
    K ∈ {{5, 10, 20}} with the ρ = 1 limit 1/(K+1) guarded on the
    integer equality sc·1 = 100·span; admitted throughput
    λ(1−P_loss) rides along."""
    from ray.data.aggregate import Max, Min, Sum
    ev = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["event_type"], "purchase")
        t = t.filter(keep)
        sec = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) // 1_000_000
        cents = np.round(t["value"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        return pa.table({
            "_g": pa.array([0]), "n": pa.array([len(sec)]),
            "tmin": pa.array([int(sec.min()) if len(sec)
                              else 2 ** 62]),
            "tmax": pa.array([int(sec.max()) if len(sec) else 0]),
            "sc": pa.array([int(cents.sum())])})

    m = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("_g").aggregate(
            Sum("n", alias_name="n"), Min("tmin", alias_name="tmin"),
            Max("tmax", alias_name="tmax"),
            Sum("sc", alias_name="sc"))).to_pandas().iloc[0]
    n = int(m["n"])
    span = int(m["tmax"]) - int(m["tmin"])
    sc = int(m["sc"])
    lam = float(n) / float(span)
    rho = lam * (float(sc) / float(n) / 100.0)
    rows = []
    for kk in (5, 10, 20):
        if sc == 100 * span:             # integer-decided ρ = 1
            pl = 1.0 / (kk + 1)
        else:
            pl = (1.0 - rho) * rho ** kk / (1.0 - rho ** (kk + 1))
        rows.append({"k_buffer": kk, "rho": np.round(rho, 6),
                     "p_loss": np.round(pl, 6),
                     "throughput_per_sec": np.round(
                         lam * (1.0 - pl), 6)})
    return pd.DataFrame(rows).astype({"k_buffer": np.int64})


SQL_MM1K_LOSS = """
WITH p AS (SELECT epoch_us(ts) // 1000000 AS sec,
                  CAST(ROUND(value * 100) AS BIGINT) AS cents
           FROM events WHERE event_type = 'purchase'),
t AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             CAST(MAX(sec) - MIN(sec) AS HUGEINT) AS span,
             CAST(SUM(cents) AS HUGEINT) AS sc
      FROM p),
f AS (SELECT CAST(n AS BIGINT) AS n, CAST(span AS BIGINT) AS span,
             sc,
             CAST(n AS DOUBLE) / CAST(span AS DOUBLE) AS lam,
             (CAST(n AS DOUBLE) / CAST(span AS DOUBLE))
             * (CAST(sc AS DOUBLE) / CAST(n AS DOUBLE) / 100.0)
               AS rho
      FROM t),
kk AS (SELECT k FROM (VALUES (5), (10), (20)) v(k))
SELECT CAST(kk.k AS BIGINT) AS k_buffer, ROUND(f.rho, 6) AS rho,
       CASE WHEN f.sc = 100 * CAST(f.span AS HUGEINT)
            THEN ROUND(1.0 / (kk.k + 1), 6)
            ELSE ROUND((1.0 - f.rho) * POWER(f.rho, kk.k)
                       / (1.0 - POWER(f.rho, kk.k + 1)), 6) END
         AS p_loss,
       CASE WHEN f.sc = 100 * CAST(f.span AS HUGEINT)
            THEN ROUND(f.lam * (1.0 - 1.0 / (kk.k + 1)), 6)
            ELSE ROUND(f.lam * (1.0 - (1.0 - f.rho)
                                * POWER(f.rho, kk.k)
                                / (1.0 - POWER(f.rho, kk.k + 1))),
                       6) END AS throughput_per_sec
FROM f, kk ORDER BY kk.k
"""


def q_zip_moment_errors(sf_dir: str):
    """Zero-inflated Poisson moment estimator on daily error counts
    — the count-data workhorse when zeros outnumber what Poisson
    allows (the registry's Fano op DETECTS overdispersion; this one
    FITS the standard explanation): method-of-moments
    λ̂ = (v + m² − m)/m on population moments, π̂ = 1 − m/λ̂, both
    from exact integer count sums over the zero-filled calendar;
    degenerate under-dispersion (λ̂ ≤ m) reports plain Poisson with
    π = 0 by the stated integer-cleared guard
    n·Σc² ≤ Σc·(Σc + n − 1) ⟺ v + m² − m ≤ m."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["event_type"], "error")
        us = t.filter(keep)["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        day = us // 86_400_000_000
        u, c = np.unique(day, return_counts=True)
        return pa.table({"day": pa.array(u.astype(np.int64)),
                         "c": pa.array(c.astype(np.int64))})

    g = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    lo, hi = int(g["day"].min()), int(g["day"].max())
    n = hi - lo + 1
    s1 = int(g["c"].sum())
    s2 = int((g["c"].astype(object) ** 2).sum())
    m = float(s1) / n
    v = float(n * s2 - s1 * s1) / (float(n) * n)
    if n * s2 <= s1 * (s1 + n - 1):      # λ̂ ≤ m, integer-cleared
        lam = m
        pi_ = 0.0
    else:
        lam = (v + m * m - m) / m
        pi_ = 1.0 - m / lam
    n_zero = n - len(g)
    return pd.DataFrame([{
        "n_days": n, "n_zero_days": n_zero,
        "mean_c": np.round(m, 6), "var_c": np.round(v, 6),
        "lambda_hat": np.round(lam, 6),
        "pi_zero_hat": np.round(pi_, 6)}]).astype({
            "n_days": np.int64, "n_zero_days": np.int64})


SQL_ZIP_MOMENTS = """
WITH e AS (SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT)
             AS day, CAST(COUNT(*) AS BIGINT) AS c
           FROM events WHERE event_type = 'error' GROUP BY 1),
b AS (SELECT MIN(day) AS lo, MAX(day) AS hi,
             CAST(MAX(day) - MIN(day) + 1 AS HUGEINT) AS n,
             CAST(COUNT(*) AS BIGINT) AS nz
      FROM e),
t AS (SELECT b.n, b.nz, CAST(SUM(e.c) AS HUGEINT) AS s1,
             SUM(CAST(e.c AS HUGEINT) * e.c) AS s2
      FROM e, b GROUP BY 1, 2),
f AS (SELECT CAST(n AS BIGINT) AS n, nz,
             CAST(s1 AS DOUBLE) / CAST(n AS BIGINT) AS m,
             CAST(n * s2 - s1 * s1 AS DOUBLE)
               / (CAST(n AS DOUBLE) * CAST(n AS BIGINT)) AS v,
             CASE WHEN n * s2 <= s1 * (s1 + n - 1)
                  THEN 1 ELSE 0 END AS degen
      FROM t)
SELECT n AS n_days, CAST(n - nz AS BIGINT) AS n_zero_days,
       ROUND(m, 6) AS mean_c, ROUND(v, 6) AS var_c,
       CASE WHEN degen = 1 THEN ROUND(m, 6)
            ELSE ROUND((v + m * m - m) / m, 6) END AS lambda_hat,
       CASE WHEN degen = 1 THEN 0.0
            ELSE ROUND(1.0 - m / ((v + m * m - m) / m), 6) END
         AS pi_zero_hat
FROM f
"""


def q_dunns_posthoc_value(sf_dir: str):
    """Dunn's post-hoc pairwise tests after Kruskal–Wallis — KW says
    the event types differ; Dunn says WHICH pairs do (with the
    Bonferroni price for asking): pooled doubled midranks keep every
    rank-sum exact, the tie-corrected variance folds from the same
    (value, type) panel, z per pair is one mirrored chain, and the
    two-sided p reuses the registry's A&S erfc approximation with
    the m-way Bonferroni flag at α = 0.05."""
    import math
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        v = np.round(t["value"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"v": v,
                          "et": t["event_type"].to_pandas(),
                          "pn": 1}) \
            .groupby(["v", "et"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    vc = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["v", "et"]).aggregate(Sum("pn", alias_name="c"))
    ).to_pandas()
    tv = vc.groupby("v", sort=True)["c"].sum()
    vs = tv.index.to_numpy(np.int64)
    t_arr = tv.to_numpy(np.int64)
    cuml = np.cumsum(t_arr) - t_arr
    pos = np.searchsorted(vs, vc["v"].to_numpy(np.int64))
    dmr = 2 * cuml[pos] + t_arr[pos] + 1
    vc = vc.assign(contrib=vc["c"].to_numpy(np.int64)
                   .astype(object) * dmr.astype(object))
    dr = vc.groupby("et", sort=True).agg(
        nj=("c", "sum"), dr2=("contrib", "sum")).reset_index()
    n_tot = int(dr["nj"].sum())
    tsum = sum(int(t) ** 3 - int(t) for t in t_arr)
    sigma2 = float(n_tot) * (n_tot + 1) / 12.0 \
        - float(tsum) / (12.0 * (n_tot - 1))
    ets = dr["et"].tolist()
    m = len(ets) * (len(ets) - 1) // 2
    rows = []
    for i in range(len(ets)):
        for j in range(i + 1, len(ets)):
            ri = float(int(dr["dr2"].iloc[i])) \
                / (2.0 * int(dr["nj"].iloc[i]))
            rj = float(int(dr["dr2"].iloc[j])) \
                / (2.0 * int(dr["nj"].iloc[j]))
            z = (ri - rj) / math.sqrt(
                sigma2 * (1.0 / int(dr["nj"].iloc[i])
                          + 1.0 / int(dr["nj"].iloc[j])))
            xv = abs(z) / math.sqrt(2.0)
            tv_ = 1.0 / (1.0 + 0.3275911 * xv)
            p = ((((1.061405429 * tv_ - 1.453152027) * tv_
                   + 1.421413741) * tv_ - 0.284496736) * tv_
                 + 0.254829592) * tv_ * math.exp(-(xv * xv))
            rows.append({"type_a": ets[i], "type_b": ets[j],
                         "z": np.round(z, 6),
                         "p_two_sided": np.round(p, 6),
                         "bonf_signif": bool(
                             np.round(p * m, 6) < 0.05)})
    return pd.DataFrame(rows)


def _sql_dunns() -> str:
    return """
WITH vc AS (SELECT CAST(ROUND(value * 100) AS BIGINT) AS v,
                   event_type AS et, CAST(COUNT(*) AS BIGINT) AS c
            FROM events GROUP BY 1, 2),
tv AS (SELECT v, SUM(c) AS t FROM vc GROUP BY 1),
rk AS (SELECT v, 2 * (SUM(t) OVER (ORDER BY v) - t) + t + 1
         AS dmr, t
       FROM tv),
dr AS (SELECT vc.et, CAST(SUM(vc.c) AS HUGEINT) AS nj,
              SUM(CAST(vc.c AS HUGEINT) * rk.dmr) AS dr2
       FROM vc JOIN rk USING (v) GROUP BY 1),
nn AS (SELECT CAST(SUM(nj) AS BIGINT) AS n,
              CAST(COUNT(*) AS BIGINT) AS k
        FROM dr),
ts AS (SELECT CAST(SUM(CAST(t AS HUGEINT) * t * t - t) AS BIGINT)
         AS tsum
       FROM tv),
s2 AS (SELECT CAST(nn.n AS DOUBLE) * (nn.n + 1) / 12.0
              - CAST(ts.tsum AS DOUBLE) / (12.0 * (nn.n - 1))
                AS sigma2,
              nn.k * (nn.k - 1) // 2 AS m
       FROM nn, ts),
pr AS (SELECT a.et AS ta, b.et AS tb,
              (CAST(a.dr2 AS DOUBLE) / (2.0 * CAST(a.nj AS BIGINT))
               - CAST(b.dr2 AS DOUBLE)
                 / (2.0 * CAST(b.nj AS BIGINT)))
              / SQRT(s2.sigma2
                     * (1.0 / CAST(a.nj AS BIGINT)
                        + 1.0 / CAST(b.nj AS BIGINT))) AS z,
              s2.m
       FROM dr a JOIN dr b ON a.et < b.et, s2),
pp AS (SELECT ta, tb, z, m,
              ((((1.061405429 * tv - 1.453152027) * tv
                 + 1.421413741) * tv - 0.284496736) * tv
               + 0.254829592) * tv * EXP(-(xv * xv)) AS p
       FROM (SELECT ta, tb, z, m, ABS(z) / SQRT(2.0) AS xv,
                    1.0 / (1.0 + 0.3275911 * (ABS(z) / SQRT(2.0)))
                      AS tv
             FROM pr))
SELECT ta AS type_a, tb AS type_b, ROUND(z, 6) AS z,
       ROUND(p, 6) AS p_two_sided,
       ROUND(p * m, 6) < 0.05 AS bonf_signif
FROM pp ORDER BY ta, tb
"""


def q_cucconi_test_value(sf_dir: str):
    """Cucconi's location–scale omnibus, click vs purchase — the
    1968 single-statistic answer to 'did the center OR the spread
    move?' (run separate location and scale tests and you pay the
    multiplicity; Cucconi's C combines squared-rank sums from BOTH
    ends with their known correlation): doubled midranks make 4·ΣR²
    and 4·Σ(N+1−R)² exact integers off the shared (side, cents)
    counts panel; U, V, ρ and C are one mirrored chain."""
    g = _click_purchase_value_counts(sf_dir)
    piv = g.pivot_table(index="v", columns="side", values="c",
                        fill_value=0, aggfunc="sum").sort_index()
    for s in (0, 1):
        if s not in piv.columns:
            piv[s] = 0
    cx = piv[0].to_numpy(np.int64).astype(object)
    cy = piv[1].to_numpy(np.int64).astype(object)
    m_ = int(sum(cx))
    n_ = int(sum(cy))
    nn = m_ + n_
    call = cx + cy
    cum = np.cumsum(call)
    r2 = 2 * cum - call + 1
    s_sq4 = int((cy * r2 * r2).sum())            # 4·ΣR_y²
    contra2 = 2 * (nn + 1) - r2
    s_co4 = int((cy * contra2 * contra2).sum())  # 4·Σ(N+1−R_y)²
    import math
    num_u = 6.0 * (s_sq4 / 4.0) - n_ * (nn + 1.0) * (2 * nn + 1.0)
    num_v = 6.0 * (s_co4 / 4.0) - n_ * (nn + 1.0) * (2 * nn + 1.0)
    den = math.sqrt(m_ * n_ * (nn + 1.0) * (2 * nn + 1.0)
                    * (8 * nn + 11.0) / 5.0)
    u = num_u / den
    v = num_v / den
    rho = 2.0 * (nn * nn - 4.0) \
        / ((2 * nn + 1.0) * (8 * nn + 11.0)) - 1.0
    c = (u * u + v * v - 2.0 * rho * u * v) \
        / (2.0 * (1.0 - rho * rho))
    return pd.DataFrame([{
        "n_click": m_, "n_purchase": n_,
        "u_stat": np.round(u, 6), "v_stat": np.round(v, 6),
        "cucconi_c": np.round(c, 6)}]).astype({
            "n_click": np.int64, "n_purchase": np.int64})


def _sql_cucconi() -> str:
    return f"""
WITH {SQL_CP_COUNTS_CTE.strip()},
pv AS (SELECT v, SUM(CASE WHEN side = 0 THEN c ELSE 0 END) AS cx,
             SUM(CASE WHEN side = 1 THEN c ELSE 0 END) AS cy
       FROM g GROUP BY 1),
n AS (SELECT CAST(SUM(cx) AS HUGEINT) AS m,
             CAST(SUM(cy) AS HUGEINT) AS n FROM pv),
r AS (SELECT v, cy,
             2 * SUM(cx + cy) OVER (ORDER BY v) - (cx + cy) + 1
               AS r2
      FROM pv),
s AS (SELECT SUM(CAST(cy AS HUGEINT) * r2 * r2) AS s4,
             SUM(CAST(cy AS HUGEINT)
                 * (2 * ((SELECT m + n FROM n) + 1) - r2)
                 * (2 * ((SELECT m + n FROM n) + 1) - r2)) AS c4
      FROM r),
f AS (SELECT CAST(n.m AS BIGINT) AS m, CAST(n.n AS BIGINT) AS nb,
        CAST(n.m + n.n AS BIGINT) AS nn,
        (6.0 * (CAST(s.s4 AS DOUBLE) / 4.0)
         - CAST(n.n AS BIGINT) * (CAST(n.m + n.n AS BIGINT) + 1.0)
           * (2 * CAST(n.m + n.n AS BIGINT) + 1.0))
          / SQRT(CAST(n.m AS BIGINT) * CAST(n.n AS BIGINT)
                 * (CAST(n.m + n.n AS BIGINT) + 1.0)
                 * (2 * CAST(n.m + n.n AS BIGINT) + 1.0)
                 * (8 * CAST(n.m + n.n AS BIGINT) + 11.0) / 5.0)
          AS u,
        (6.0 * (CAST(s.c4 AS DOUBLE) / 4.0)
         - CAST(n.n AS BIGINT) * (CAST(n.m + n.n AS BIGINT) + 1.0)
           * (2 * CAST(n.m + n.n AS BIGINT) + 1.0))
          / SQRT(CAST(n.m AS BIGINT) * CAST(n.n AS BIGINT)
                 * (CAST(n.m + n.n AS BIGINT) + 1.0)
                 * (2 * CAST(n.m + n.n AS BIGINT) + 1.0)
                 * (8 * CAST(n.m + n.n AS BIGINT) + 11.0) / 5.0)
          AS v
      FROM n, s),
rr AS (SELECT m, nb, u, v,
         2.0 * (CAST(nn AS DOUBLE) * nn - 4.0)
         / ((2 * nn + 1.0) * (8 * nn + 11.0)) - 1.0 AS rho
       FROM f)
SELECT m AS n_click, nb AS n_purchase, ROUND(u, 6) AS u_stat,
       ROUND(v, 6) AS v_stat,
       ROUND((u * u + v * v - 2.0 * rho * u * v)
             / (2.0 * (1.0 - rho * rho)), 6) AS cucconi_c
FROM rr
"""


def q_mann_whitney_value(sf_dir: str):
    """Mann–Whitney U rank-sum test between the 'click' and
    'purchase' event-value distributions — the classical two-sample
    location test completing the pair with the registry's
    Brunner–Munzel (BM relaxes equal-variance; MW U is the textbook
    null everyone quotes): pooled DOUBLED midranks over the (group,
    cents) count panel keep every rank sum an exact integer, the tie
    correction Σ(t³−t) is an exact integer fold over the pooled tie
    spectrum, and z uses the continuity correction toward zero
    (stated) on one mirrored float chain."""
    import math
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        keep = (et == "click") | (et == "purchase")
        v = np.round(t["value"].to_numpy(
            zero_copy_only=False)[keep] * 100.0).astype(np.int64)
        g = pd.DataFrame({"grp": et[keep], "v": v, "c": 1}) \
            .groupby(["grp", "v"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cells = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["grp", "v"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    pooled = cells.groupby("v")["c"].sum().sort_index()
    N = int(pooled.sum())
    cumb = pooled.cumsum() - pooled
    r2 = (2 * cumb + pooled + 1).astype(object)   # doubled midranks
    tie = int(sum(int(t) ** 3 - int(t) for t in pooled.tolist()))
    cl = cells[cells["grp"] == "click"]
    n1 = int(cl["c"].sum())
    n2 = N - n1
    r2sum = int(sum(int(c) * int(r2[v])
                    for v, c in zip(cl["v"], cl["c"])))
    # U1 = R1 − n1(n1+1)/2, with R1 = r2sum/2 exact halves
    u2x = r2sum - n1 * (n1 + 1)                    # doubled U, exact
    u1 = u2x / 2.0
    mu = n1 * n2 / 2.0
    sigma2 = (float(n1) * n2 / 12.0) \
        * ((N + 1) - float(tie) / (float(N) * (N - 1)))
    diff = u1 - mu
    cc = -0.5 if diff > 0 else (0.5 if diff < 0 else 0.0)
    z = 0.0 if sigma2 <= 0 else (diff + cc) / math.sqrt(sigma2)
    return pd.DataFrame([{
        "n_click": n1, "n_purchase": n2,
        "u_click": np.round(u1, 6),
        "z": np.round(z, 6)}]).astype({
            "n_click": np.int64, "n_purchase": np.int64})


SQL_MANN_WHITNEY = """
WITH d AS (SELECT event_type AS grp,
                  CAST(ROUND(value * 100) AS BIGINT) AS v,
                  CAST(COUNT(*) AS BIGINT) AS c
           FROM events
           WHERE event_type IN ('click', 'purchase')
           GROUP BY 1, 2),
pv AS (SELECT v, CAST(SUM(c) AS BIGINT) AS cv FROM d GROUP BY 1),
w AS (SELECT v, cv,
             2 * (SUM(cv) OVER (ORDER BY v) - cv) + cv + 1 AS r2
      FROM pv),
nn AS (SELECT CAST(SUM(cv) AS BIGINT) AS n,
              SUM(CAST(cv AS HUGEINT) * cv * cv - cv) AS tie
       FROM pv),
g AS (SELECT CAST(SUM(CASE WHEN grp = 'click' THEN c END)
                  AS BIGINT) AS n1,
             SUM(CASE WHEN grp = 'click'
                 THEN CAST(c AS HUGEINT) * w.r2 END) AS r2sum
      FROM d JOIN w USING (v)),
f AS (SELECT g.n1, nn.n - g.n1 AS n2, nn.n AS n, nn.tie,
             (g.r2sum
              - CAST(g.n1 AS HUGEINT) * (g.n1 + 1)) / 2.0 AS u1
      FROM g, nn),
e AS (SELECT n1, n2, u1,
             u1 - n1 * n2 / 2.0 AS diff,
             (CAST(n1 AS DOUBLE) * n2 / 12.0)
             * ((n + 1) - CAST(tie AS DOUBLE)
                / (CAST(n AS DOUBLE) * (n - 1))) AS sigma2
      FROM f)
SELECT n1 AS n_click, n2 AS n_purchase,
       ROUND(u1, 6) AS u_click,
       CASE WHEN sigma2 <= 0 THEN 0.0
            ELSE ROUND((diff + CASE WHEN diff > 0 THEN -0.5
                                    WHEN diff < 0 THEN 0.5
                                    ELSE 0.0 END)
                       / SQRT(sigma2), 6) END AS z
FROM e
"""


def q_markov_stationary_events(sf_dir: str):
    """Stationary distribution of the user-journey Markov chain —
    the linear-algebra completion of the registry's transition
    matrix (the matrix says where journeys go NEXT; the stationary
    vector says where they SPEND THEIR TIME): three power-iteration
    rounds from the uniform vector over the observed states, each
    round's entries ROUNDED AT 9 DECIMALS (the word-PageRank twin's
    convention) so the tiny cross-engine sum-order drift cannot
    compound; transition probabilities are exact-integer divisions
    n_ij/n_i.  The state space is the event-type alphabet, so the
    driver finish is alphabet-sized."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["user_id", "ts", "event_id"])
        same = df["user_id"].to_numpy()[1:] \
            == df["user_id"].to_numpy()[:-1]
        cur = df["event_type"].to_numpy()[:-1][same]
        nxt = df["event_type"].to_numpy()[1:][same]
        g = pd.DataFrame({"cur": cur, "nxt": nxt, "n": 1}) \
            .groupby(["cur", "nxt"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = relational.bucket_shuffle(ev, "user_id", per_bucket) \
        .groupby(["cur", "nxt"]).aggregate(Sum("n", alias_name="n")) \
        .to_pandas()
    states = sorted(set(counts["cur"]) | set(counts["nxt"]))
    tot = counts.groupby("cur")["n"].sum()
    p = {}
    for r in counts.itertuples():
        p[(r.cur, r.nxt)] = float(r.n) / float(tot[r.cur])
    pi = {s: round(1.0 / len(states), 9) for s in states}
    for _ in range(3):
        nxt_pi = {}
        for j in states:
            acc = 0.0
            for i in states:
                # dangling states redistribute uniformly (stated)
                pij = p.get((i, j),
                            (1.0 / len(states)
                             if i not in tot.index else 0.0))
                acc += pi[i] * pij
            nxt_pi[j] = round(acc, 9)
        pi = nxt_pi
    return pd.DataFrame(
        [{"state": s, "pi3": np.round(pi[s], 6)} for s in states]) \
        .sort_values("state").reset_index(drop=True)


def q_divergence_panel_value(sf_dir: str):
    """Distribution-divergence panel between the 'click' and
    'purchase' value histograms — total variation, Hellinger and
    Jensen–Shannon side by side (the registry's Wasserstein/energy
    ops measure DISPLACEMENT; these measure OVERLAP, and JSD is the
    symmetric bounded KL every drift monitor actually deploys): 20
    equal-width integer-cent bins over the pooled range (stated;
    width = (max−min)//20 + 1 keeps binning pure integer math), TV's
    numerator Σ|c₁ᵢn₂ − c₂ᵢn₁| an exact integer, and the per-bin
    √(pq) / ln terms NANO-QUANTIZED so both folds are order-free."""
    import math
    cells = _value_cells_two_groups(sf_dir)
    piv = cells.pivot_table(index="v", columns="grp", values="c",
                            aggfunc="sum", fill_value=0).sort_index()
    v = piv.index.to_numpy(np.int64)
    c1 = piv.get("click", pd.Series(0, index=piv.index)) \
        .to_numpy(np.int64)
    c2 = piv.get("purchase", pd.Series(0, index=piv.index)) \
        .to_numpy(np.int64)
    lo, hi = int(v.min()), int(v.max())
    width = (hi - lo) // 20 + 1
    bins = (v - lo) // width
    b1 = np.zeros(bins.max() + 1, dtype=np.int64)
    b2 = np.zeros(bins.max() + 1, dtype=np.int64)
    np.add.at(b1, bins, c1)
    np.add.at(b2, bins, c2)
    n1, n2 = int(b1.sum()), int(b2.sum())
    tv_num = int(np.abs(b1.astype(object) * n2
                        - b2.astype(object) * n1).sum())
    tv = float(tv_num) / (2.0 * float(n1) * n2)
    hel9 = jsd9 = 0
    for i in range(len(b1)):
        p = float(b1[i]) / n1
        q = float(b2[i]) / n2
        hel9 += int(np.floor(math.sqrt(p * q) * 1e9 + 0.5))
        m = (p + q) / 2.0
        term = 0.0
        if p > 0:
            term += 0.5 * p * math.log(p / m)
        if q > 0:
            term += 0.5 * q * math.log(q / m)
        jsd9 += int(np.floor(term * 1e9 + 0.5))
    hell = math.sqrt(max(0.0, 1.0 - hel9 / 1e9))
    # count NONEMPTY bins (the twin's GROUP BY only sees those; empty
    # bins contribute 0 to every sum either way)
    n_bins = int(((b1 + b2) > 0).sum())
    return pd.DataFrame([{
        "n_bins": n_bins, "n_click": n1, "n_purchase": n2,
        "total_variation": np.round(tv, 6),
        "hellinger": np.round(hell, 6),
        "jsd_nats": np.round(jsd9 / 1e9, 6)}]).astype({
            "n_bins": np.int64, "n_click": np.int64,
            "n_purchase": np.int64})


SQL_DIVERGENCE_PANEL = """
WITH d AS (SELECT event_type AS grp,
                  CAST(ROUND(value * 100) AS BIGINT) AS v,
                  CAST(COUNT(*) AS BIGINT) AS c
           FROM events
           WHERE event_type IN ('click', 'purchase')
           GROUP BY 1, 2),
r AS (SELECT MIN(v) AS lo, MAX(v) AS hi FROM d),
bn AS (SELECT (v - r.lo) // ((r.hi - r.lo) // 20 + 1) AS b,
              COALESCE(SUM(CASE WHEN grp = 'click' THEN c END), 0)
                AS c1,
              COALESCE(SUM(CASE WHEN grp = 'purchase' THEN c END),
                       0) AS c2
       FROM d, r GROUP BY 1),
n AS (SELECT CAST(SUM(c1) AS BIGINT) AS n1,
             CAST(SUM(c2) AS BIGINT) AS n2,
             CAST(COUNT(*) AS BIGINT) AS nb FROM bn),
terms AS (SELECT
    SUM(ABS(CAST(c1 AS HUGEINT) * n.n2
            - CAST(c2 AS HUGEINT) * n.n1)) AS tv_num,
    SUM(CAST(FLOOR(SQRT((CAST(c1 AS DOUBLE) / n.n1)
                        * (CAST(c2 AS DOUBLE) / n.n2))
                   * 1e9 + 0.5) AS HUGEINT)) AS hel9,
    SUM(CAST(FLOOR((
        CASE WHEN c1 > 0 THEN
          0.5 * (CAST(c1 AS DOUBLE) / n.n1)
          * LN((CAST(c1 AS DOUBLE) / n.n1)
               / ((CAST(c1 AS DOUBLE) / n.n1
                   + CAST(c2 AS DOUBLE) / n.n2) / 2.0))
        ELSE 0.0 END
        + CASE WHEN c2 > 0 THEN
          0.5 * (CAST(c2 AS DOUBLE) / n.n2)
          * LN((CAST(c2 AS DOUBLE) / n.n2)
               / ((CAST(c1 AS DOUBLE) / n.n1
                   + CAST(c2 AS DOUBLE) / n.n2) / 2.0))
        ELSE 0.0 END) * 1e9 + 0.5) AS HUGEINT)) AS jsd9
  FROM bn, n)
SELECT n.nb AS n_bins, n.n1 AS n_click, n.n2 AS n_purchase,
       ROUND(CAST(tv_num AS DOUBLE)
             / (2.0 * CAST(n.n1 AS DOUBLE) * n.n2), 6)
         AS total_variation,
       ROUND(SQRT(GREATEST(0.0,
             1.0 - CAST(hel9 AS DOUBLE) / 1e9)), 6) AS hellinger,
       ROUND(CAST(jsd9 AS DOUBLE) / 1e9, 6) AS jsd_nats
FROM terms, n
"""


def q_beta_binomial_shrinkage_users(sf_dir: str):
    """Empirical-Bayes beta-binomial shrinkage of per-user purchase
    rates — the baseball-batting-averages classic (raw s/n ranks
    small-sample flukes first; the EB posterior mean
    (s+α̂)/(n+α̂+β̂) pulls them toward the corpus prior): per-user
    exact integer (purchases, events) counts, the method-of-moments
    prior from NANO-QUANTIZED per-user rate folds (mean and
    variance of s/n), and the top-10 users by (shrunk rate DESC,
    user) — identical float chains make the order strict.  A
    degenerate prior (variance ≥ m(1−m), or ≤ 0) reports the raw
    rates with NULL α/β by stated convention."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        g = pd.DataFrame({
            "u": t["user_id"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "ps": (et == "purchase").astype(np.int64),
            "pn": 1}).groupby("u", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    users = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("u").aggregate(Sum("ps", alias_name="s"),
                                Sum("pn", alias_name="n"))
    ).to_pandas()
    u_cnt = len(users)
    s = users["s"].to_numpy(np.int64)
    nn = users["n"].to_numpy(np.int64)
    r9 = np.floor(s / nn * 1e9 + 0.5).astype(np.int64)
    rr9 = np.floor((s / nn) * (s / nn) * 1e9 + 0.5).astype(np.int64)
    m = float(int(r9.sum())) / 1e9 / u_cnt
    v = (float(int(rr9.sum())) / 1e9 - u_cnt * m * m) \
        / (float(u_cnt) - 1)
    if v <= 0 or v >= m * (1.0 - m):
        alpha = beta = None
        users["shrunk"] = s / nn
    else:
        common = m * (1.0 - m) / v - 1.0
        alpha = m * common
        beta = (1.0 - m) * common
        users["shrunk"] = (s + alpha) / (nn + alpha + beta)
    out = users.sort_values(["shrunk", "u"],
                            ascending=[False, True]).head(10) \
        .reset_index(drop=True)
    out["raw_rate"] = np.round(out["s"] / out["n"], 6)
    out["shrunk_rate"] = np.round(out["shrunk"], 6)
    out["alpha"] = np.nan if alpha is None else np.round(alpha, 6)
    out["beta"] = np.nan if beta is None else np.round(beta, 6)
    return out.rename(columns={"u": "user_id", "s": "n_purchases",
                               "n": "n_events"})[[
        "user_id", "n_purchases", "n_events", "raw_rate",
        "shrunk_rate", "alpha", "beta"]].astype({
            "user_id": np.int64, "n_purchases": np.int64,
            "n_events": np.int64})


SQL_BETA_BINOMIAL = """
WITH u AS (SELECT user_id AS u,
                  CAST(SUM(CASE WHEN event_type = 'purchase'
                           THEN 1 ELSE 0 END) AS BIGINT) AS s,
                  CAST(COUNT(*) AS BIGINT) AS n
           FROM events GROUP BY 1),
mo AS (SELECT CAST(COUNT(*) AS BIGINT) AS uc,
              SUM(CAST(FLOOR(CAST(s AS DOUBLE) / n * 1e9 + 0.5)
                       AS HUGEINT)) AS r9,
              SUM(CAST(FLOOR((CAST(s AS DOUBLE) / n)
                             * (CAST(s AS DOUBLE) / n)
                             * 1e9 + 0.5) AS HUGEINT)) AS rr9
       FROM u),
pr AS (SELECT uc,
              CAST(r9 AS DOUBLE) / 1e9 / uc AS m,
              (CAST(rr9 AS DOUBLE) / 1e9
               - uc * (CAST(r9 AS DOUBLE) / 1e9 / uc)
                    * (CAST(r9 AS DOUBLE) / 1e9 / uc))
              / (CAST(uc AS DOUBLE) - 1) AS v
       FROM mo),
ab AS (SELECT CASE WHEN v <= 0 OR v >= m * (1.0 - m) THEN NULL
                   ELSE m * (m * (1.0 - m) / v - 1.0) END AS alpha,
              CASE WHEN v <= 0 OR v >= m * (1.0 - m) THEN NULL
                   ELSE (1.0 - m) * (m * (1.0 - m) / v - 1.0)
              END AS beta
       FROM pr),
sh AS (SELECT u.u, u.s, u.n,
              CASE WHEN ab.alpha IS NULL
                   THEN CAST(u.s AS DOUBLE) / u.n
                   ELSE (u.s + ab.alpha)
                        / (u.n + ab.alpha + ab.beta) END AS shrunk,
              ab.alpha, ab.beta
       FROM u, ab)
SELECT u AS user_id, s AS n_purchases, n AS n_events,
       ROUND(CAST(s AS DOUBLE) / n, 6) AS raw_rate,
       ROUND(shrunk, 6) AS shrunk_rate,
       ROUND(alpha, 6) AS alpha, ROUND(beta, 6) AS beta
FROM sh ORDER BY shrunk DESC, user_id LIMIT 10
"""


def q_cumulative_incidence_events(sf_dir: str):
    """Aalen–Johansen cumulative incidence under COMPETING RISKS —
    the estimator Kaplan–Meier users reach for (and misuse 1−KM
    instead of) when two event kinds race: per user, the first
    'purchase' and first 'error' after their first-ever event
    compete; whichever lands first is that user's cause, users with
    neither are censored at their last event.  Exact integer
    (t, d_purchase, d_error, censored) count partials; S(t−) rides
    the same sequential window PRODUCT as the registry's KM, and
    each cause's CIF is the ordered prefix sum of S(t−)·d_k/r —
    both folds computed in the identical frame order in numpy and
    the twin's window functions."""
    from ray.data.aggregate import Sum
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def per_user(t: pa.Table) -> pa.Table:
        day = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        u = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        big = np.int64(1 << 60)
        df = pd.DataFrame({
            "u": u, "d": day,
            "p": np.where(et == "purchase", day, big),
            "e": np.where(et == "error", day, big)})
        g = df.groupby("u", sort=False).agg(
            f=("d", "min"), l=("d", "max"),
            fp=("p", "min"), fe=("e", "min")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Max, Min
    users = relational.ds_to_table(
        ev.map_batches(per_user, batch_format="pyarrow")
        .groupby("u").aggregate(
            Min("f", alias_name="f"), Max("l", alias_name="l"),
            Min("fp", alias_name="fp"), Min("fe", alias_name="fe"))
    ).to_pandas()
    big = np.int64(1 << 60)
    f = users["f"].to_numpy(np.int64)
    l = users["l"].to_numpy(np.int64)
    fp = users["fp"].to_numpy(np.int64)
    fe = users["fe"].to_numpy(np.int64)
    first_cause = np.minimum(fp, fe)
    cause = np.where(first_cause >= big, 0,
                     np.where(fp <= fe, 1, 2))
    t_obs = np.where(cause == 0, l - f, first_cause - f)
    g = pd.DataFrame({"t": t_obs,
                      "d1": (cause == 1).astype(np.int64),
                      "d2": (cause == 2).astype(np.int64),
                      "c": 1}).groupby("t").sum().sort_index()
    n = int(g["c"].sum())
    seen = g["c"].cumsum() - g["c"]
    r = (n - seen).to_numpy(np.int64)
    d1 = g["d1"].to_numpy(np.int64)
    d2 = g["d2"].to_numpy(np.int64)
    dall = d1 + d2
    fac = 1.0 - dall.astype(np.float64) / r
    s_prev = np.concatenate([[1.0], np.cumprod(fac)[:-1]])
    cif1 = np.cumsum(s_prev * d1 / r)
    cif2 = np.cumsum(s_prev * d2 / r)
    keep = dall > 0
    return pd.DataFrame({
        "t_days": g.index.to_numpy(np.int64)[keep],
        "at_risk": r[keep],
        "d_purchase": d1[keep], "d_error": d2[keep],
        "cif_purchase": np.round(cif1[keep], 6),
        "cif_error": np.round(cif2[keep], 6)})


SQL_CUMULATIVE_INCIDENCE = """
WITH u AS (SELECT user_id,
                  MIN(CAST(ts AS DATE)) AS f,
                  MAX(CAST(ts AS DATE)) AS l,
                  MIN(CASE WHEN event_type = 'purchase'
                      THEN CAST(ts AS DATE) END) AS fp,
                  MIN(CASE WHEN event_type = 'error'
                      THEN CAST(ts AS DATE) END) AS fe
           FROM events GROUP BY 1),
obs AS (SELECT CASE
          WHEN fp IS NULL AND fe IS NULL
            THEN date_diff('day', f, l)
          WHEN fe IS NULL OR (fp IS NOT NULL AND fp <= fe)
            THEN date_diff('day', f, fp)
          ELSE date_diff('day', f, fe) END AS t,
        CASE WHEN fp IS NULL AND fe IS NULL THEN 0
             WHEN fe IS NULL OR (fp IS NOT NULL AND fp <= fe) THEN 1
             ELSE 2 END AS cause
        FROM u),
tot AS (SELECT COUNT(*) AS n FROM obs),
g AS (SELECT t, SUM(CASE WHEN cause = 1 THEN 1 ELSE 0 END) AS d1,
             SUM(CASE WHEN cause = 2 THEN 1 ELSE 0 END) AS d2,
             COUNT(*) AS c
      FROM obs GROUP BY t),
k AS (SELECT t, d1, d2, c,
             n - (SUM(c) OVER (ORDER BY t ROWS UNBOUNDED PRECEDING)
                  - c) AS r
      FROM g, tot),
s AS (SELECT t, d1, d2, r,
             COALESCE(PRODUCT(1.0 - CAST(d1 + d2 AS DOUBLE) / r)
               OVER (ORDER BY t ROWS BETWEEN UNBOUNDED PRECEDING
                     AND 1 PRECEDING), 1.0) AS sprev
      FROM k),
ci AS (SELECT t, d1, d2, r,
              SUM(sprev * CAST(d1 AS DOUBLE) / r)
                OVER (ORDER BY t ROWS UNBOUNDED PRECEDING) AS cif1,
              SUM(sprev * CAST(d2 AS DOUBLE) / r)
                OVER (ORDER BY t ROWS UNBOUNDED PRECEDING) AS cif2
       FROM s)
SELECT CAST(t AS BIGINT) AS t_days, CAST(r AS BIGINT) AS at_risk,
       CAST(d1 AS BIGINT) AS d_purchase,
       CAST(d2 AS BIGINT) AS d_error,
       ROUND(cif1, 6) AS cif_purchase,
       ROUND(cif2, 6) AS cif_error
FROM ci WHERE d1 + d2 > 0 ORDER BY t_days
"""


def q_mcf_recurrent_purchases(sf_dir: str):
    """Mean cumulative function of RECURRENT purchases — Nelson's
    recurrent-event estimator (reliability's repairable-systems
    curve; one KM-style table answers "how many purchases has the
    average still-observed user accumulated by day t"): each user is
    observed from their first event to their last (staggered entry →
    staggered exit), purchases recur inside that window, and
    MCF(t) = Σ_{s≤t} d(s)/r(s) with r(s) = users whose observation
    window still covers s.  Exact integer (day, purchases) and
    (day, exits) count partials; the prefix fold is the ordered
    window-sum both engines compute in frame order."""
    from ray.data.aggregate import Max, Min, Sum
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def per_user(t: pa.Table) -> pa.Table:
        day = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64)
        u = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        g = pd.DataFrame({"u": u, "d": day}) \
            .groupby("u", sort=False) \
            .agg(f=("d", "min"), l=("d", "max")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    users = relational.ds_to_table(
        ev.map_batches(per_user, batch_format="pyarrow")
        .groupby("u").aggregate(Min("f", alias_name="f"),
                                Max("l", alias_name="l"))
    ).to_pandas()
    n_users = len(users)
    # purchases at relative day t need each user's f: tiny broadcast
    # (user → f) joined in-batch against the purchase rows
    fmap = dict(zip(users["u"].astype(np.int64),
                    users["f"].astype(np.int64)))
    import ray
    fmap_ref = ray.put(fmap)

    def purch(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        keep = et == "purchase"
        u = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[keep]
        day = t["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64)[keep]
        fm = ray.get(fmap_ref)
        rel = day - np.array([fm[x] for x in u.tolist()],
                             dtype=np.int64)
        g = pd.DataFrame({"t": rel, "pd_": 1}) \
            .groupby("t", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    d = relational.ds_to_table(
        ev.map_batches(purch, batch_format="pyarrow")
        .groupby("t").aggregate(Sum("pd_", alias_name="d"))
    ).to_pandas().set_index("t")["d"]
    exits = (users["l"].astype(np.int64)
             - users["f"].astype(np.int64)).value_counts() \
        .sort_index()
    grid = sorted(set(d.index) | set(exits.index))
    dd = np.array([int(d.get(t, 0)) for t in grid], dtype=np.int64)
    ex = np.array([int(exits.get(t, 0)) for t in grid],
                  dtype=np.int64)
    # at risk at t: window covers t ⇔ exit day ≥ t (all enter at 0)
    r = n_users - (np.cumsum(ex) - ex)
    mcf = np.cumsum(dd.astype(np.float64) / r)
    keep = dd > 0
    return pd.DataFrame({
        "t_days": np.array(grid, dtype=np.int64)[keep],
        "at_risk": r[keep], "n_purchases": dd[keep],
        "mcf": np.round(mcf[keep], 6)})


SQL_MCF = """
WITH u AS (SELECT user_id, MIN(CAST(ts AS DATE)) AS f,
                  MAX(CAST(ts AS DATE)) AS l
           FROM events GROUP BY 1),
tot AS (SELECT COUNT(*) AS n FROM u),
p AS (SELECT date_diff('day', u.f, CAST(e.ts AS DATE)) AS t,
             CAST(COUNT(*) AS BIGINT) AS d
      FROM events e JOIN u ON u.user_id = e.user_id
      WHERE e.event_type = 'purchase' GROUP BY 1),
x AS (SELECT date_diff('day', f, l) AS t,
             CAST(COUNT(*) AS BIGINT) AS ex
      FROM u GROUP BY 1),
grid AS (SELECT t FROM p UNION SELECT t FROM x),
g AS (SELECT grid.t, COALESCE(p.d, 0) AS d, COALESCE(x.ex, 0) AS ex
      FROM grid LEFT JOIN p USING (t) LEFT JOIN x USING (t)),
k AS (SELECT t, d, ex,
             n - (SUM(ex) OVER (ORDER BY t ROWS UNBOUNDED PRECEDING)
                  - ex) AS r
      FROM g, tot),
m AS (SELECT t, d, r,
             SUM(CAST(d AS DOUBLE) / r)
               OVER (ORDER BY t ROWS UNBOUNDED PRECEDING) AS mcf
      FROM k)
SELECT CAST(t AS BIGINT) AS t_days, CAST(r AS BIGINT) AS at_risk,
       CAST(d AS BIGINT) AS n_purchases, ROUND(mcf, 6) AS mcf
FROM m WHERE d > 0 ORDER BY t_days
"""


def _sql_markov_stationary() -> str:
    return """
WITH t AS (
  SELECT event_type AS cur,
         LEAD(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS nxt
  FROM events),
c AS (SELECT cur, nxt, CAST(COUNT(*) AS BIGINT) AS n FROM t
      WHERE nxt IS NOT NULL GROUP BY 1, 2),
states AS (SELECT DISTINCT s FROM (
    SELECT cur AS s FROM c UNION SELECT nxt FROM c)),
ns AS (SELECT CAST(COUNT(*) AS BIGINT) AS k FROM states),
tot AS (SELECT cur, SUM(n) AS m FROM c GROUP BY 1),
p AS (SELECT a.s AS i, b.s AS j,
        CASE WHEN tot.m IS NULL THEN 1.0 / (SELECT k FROM ns)
             ELSE COALESCE(CAST(c.n AS DOUBLE) / tot.m, 0.0)
        END AS pij
      FROM states a
      CROSS JOIN states b
      LEFT JOIN tot ON tot.cur = a.s
      LEFT JOIN c ON c.cur = a.s AND c.nxt = b.s),
p0 AS (SELECT s, ROUND(1.0 / (SELECT k FROM ns), 9) AS r
       FROM states),
p1 AS (SELECT p.j AS s, ROUND(SUM(p0.r * p.pij), 9) AS r
       FROM p JOIN p0 ON p0.s = p.i GROUP BY 1),
p2 AS (SELECT p.j AS s, ROUND(SUM(p1.r * p.pij), 9) AS r
       FROM p JOIN p1 ON p1.s = p.i GROUP BY 1),
p3 AS (SELECT p.j AS s, ROUND(SUM(p2.r * p.pij), 9) AS r
       FROM p JOIN p2 ON p2.s = p.i GROUP BY 1)
SELECT s AS state, ROUND(r, 6) AS pi3 FROM p3 ORDER BY state
"""
