"""Statistics demos over the orders table (and its lineitems): quantiles,
sketches, control charts, forecasting and audits."""
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
from ...stages import relational
from ...stages.util import worker_cached
from .common import _daily_revenue_cents, _fingerprint_cache_dir, _read


def q_benford_leading_digit(sf_dir: str):
    """Benford's-law fraud/synthetic-data audit: the leading-digit
    distribution of order totals vs the log10(1+1/d) expectation — the
    standard first screen for fabricated numeric columns in an ingest
    QC gate.  Digit extraction is exact integer repeated-division (no
    float log10 at the boundary 10^k values); counts reduce to 9 rows
    via one bounded groupby; shares are single exact-int divisions."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(zero_copy_only=False)
                         * 100.0).astype(np.int64)
        d = cents.copy()
        while (d >= 10).any():       # ≤ 19 vectorized passes for int64
            big = d >= 10
            d[big] //= 10
        u, c = np.unique(d, return_counts=True)
        return pa.table({"digit": pa.array(u),
                         "pn": pa.array(c.astype(np.int64))})

    g = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("digit").aggregate(Sum("pn", alias_name="n"))).to_pandas()
    g = g.sort_values("digit").reset_index(drop=True)
    tot = int(g["n"].sum())
    dig = g["digit"].to_numpy(dtype=np.float64)
    return pd.DataFrame({
        "digit": g["digit"].to_numpy(dtype=np.int64),
        "n": g["n"].to_numpy(dtype=np.int64),
        "obs_share": np.round(g["n"].to_numpy(np.float64) / tot, 6),
        "benford_share": np.round(np.log10(1.0 + 1.0 / dig), 6)})


SQL_BENFORD = """
WITH c AS (SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
           FROM orders),
d AS (SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) AS BIGINT)
        AS digit FROM c),
g AS (SELECT digit, CAST(COUNT(*) AS BIGINT) AS n FROM d GROUP BY 1),
t AS (SELECT SUM(n) AS tot FROM g)
SELECT digit, n,
       ROUND(CAST(n AS DOUBLE) / CAST(tot AS DOUBLE), 6) AS obs_share,
       ROUND(LOG10(1.0 + 1.0 / CAST(digit AS DOUBLE)), 6)
         AS benford_share
FROM g, t ORDER BY digit
"""


def q_psi_price_drift(sf_dir: str):
    """Population Stability Index — the standard train/serve drift
    gate — between the first and second calendar half of orders, over
    10 equal-width price bins.  Bin assignment is pure integer
    arithmetic ((c−lo)·10 // (hi−lo+1), no float boundary ambiguity);
    counts are Laplace-smoothed exact ints; only the final
    (pa−pb)·ln(pa/pb) contribution is floating point.  Two tiny
    bounds passes + one bounded (bin × half) groupby — no shuffle of
    row-scaled data."""
    from ray.data.aggregate import Max, Min, Sum
    ords = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(zero_copy_only=False)
                         * 100.0).astype(np.int64)
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64)
        return pa.table({"cents": pa.array(cents),
                         "day": pa.array(day)})

    base = ords.map_batches(prep, batch_format="pyarrow")
    b = base.aggregate(Min("cents", alias_name="clo"),
                       Max("cents", alias_name="chi"),
                       Min("day", alias_name="dlo"),
                       Max("day", alias_name="dhi"))
    clo, chi = int(b["clo"]), int(b["chi"])
    mid = (int(b["dlo"]) + int(b["dhi"])) // 2

    def partial(t: pa.Table) -> pa.Table:
        c = t["cents"].to_numpy(zero_copy_only=False)
        d = t["day"].to_numpy(zero_copy_only=False)
        bin_ = (c - clo) * 10 // (chi - clo + 1)
        half = (d > mid).astype(np.int64)        # 0 = first, 1 = second
        g = pd.DataFrame({"bin": bin_, "half": half, "pn": 1}) \
            .groupby(["bin", "half"], sort=False)["pn"].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        base.map_batches(partial, batch_format="pyarrow")
        .groupby(["bin", "half"]).aggregate(Sum("pn", alias_name="n"))
    ).to_pandas()
    grid = pd.MultiIndex.from_product(
        [range(10), (0, 1)], names=["bin", "half"]).to_frame(index=False)
    m = grid.merge(agg, on=["bin", "half"], how="left")
    m["n"] = m["n"].fillna(0).astype(np.int64)
    w = m.pivot(index="bin", columns="half", values="n")
    na = w[0].to_numpy(np.int64)
    nb = w[1].to_numpy(np.int64)
    pa_ = (na + 1.0) / (na.sum() + 10.0)         # Laplace +1 per bin
    pb_ = (nb + 1.0) / (nb.sum() + 10.0)
    contrib = (pa_ - pb_) * np.log(pa_ / pb_)
    return pd.DataFrame({"bin": np.arange(10, dtype=np.int64),
                         "n_first": na, "n_second": nb,
                         "psi_contrib": np.round(contrib, 6)})


SQL_PSI = """
WITH p AS (SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT) AS c,
                  date_diff('day', DATE '1970-01-01',
                            CAST(o_orderdate AS DATE)) AS d
           FROM orders),
b AS (SELECT MIN(c) AS clo, MAX(c) AS chi,
             (MIN(d) + MAX(d)) // 2 AS mid FROM p),
h AS (SELECT (c - clo) * 10 // (chi - clo + 1) AS bin,
             CASE WHEN d > mid THEN 1 ELSE 0 END AS half
      FROM p, b),
bins AS (SELECT unnest(generate_series(0, 9)) AS bin),
g AS (SELECT bins.bin,
             SUM(CASE WHEN h.half = 0 THEN 1 ELSE 0 END) AS n_first,
             SUM(CASE WHEN h.half = 1 THEN 1 ELSE 0 END) AS n_second
      FROM bins LEFT JOIN h ON h.bin = bins.bin GROUP BY 1),
t AS (SELECT SUM(n_first) AS ta, SUM(n_second) AS tb FROM g)
SELECT CAST(g.bin AS BIGINT) AS bin,
       CAST(g.n_first AS BIGINT) AS n_first,
       CAST(g.n_second AS BIGINT) AS n_second,
       ROUND(((g.n_first + 1.0) / (t.ta + 10.0)
              - (g.n_second + 1.0) / (t.tb + 10.0))
             * LN(((g.n_first + 1.0) / (t.ta + 10.0))
                  / ((g.n_second + 1.0) / (t.tb + 10.0))), 6)
         AS psi_contrib
FROM g, t ORDER BY g.bin
"""


def q_trailing_30d_revenue(sf_dir: str):
    """RANGE-frame window (vs the ROWS frames elsewhere in the
    registry): per customer per order DAY, revenue over the trailing
    30-day interval [day−30, day] — peers at the same date aggregate
    together, which a ROWS frame cannot express.  Per-(customer, day)
    cents reduce once; inside each customer bucket the trailing sum is
    ONE global searchsorted on a composite (customer·K + day) key over
    the bucket-wide cumsum (no per-customer Python loop): the composite
    span K exceeds the day range, so a probe can never cross into the
    previous customer's segment.  Exact ints end to end."""
    from ray.data.aggregate import Sum
    ords = _read(sf_dir, "orders",
                 ["o_custkey", "o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64)
        cents = np.round(t["o_totalprice"].to_numpy(zero_copy_only=False)
                         * 100.0).astype(np.int64)
        g = pd.DataFrame({"o_custkey":
                          t["o_custkey"].to_numpy(zero_copy_only=False),
                          "day": day, "pc_": cents}) \
            .groupby(["o_custkey", "day"], sort=False)["pc_"] \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    daily = ords.map_batches(partial, batch_format="pyarrow") \
        .groupby(["o_custkey", "day"]) \
        .aggregate(Sum("pc_", alias_name="cents"))

    def trailing(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["o_custkey", "day"])
        cust = df["o_custkey"].to_numpy(np.int64)
        day = df["day"].to_numpy(np.int64)
        cents = df["cents"].to_numpy(np.int64)
        dmin = int(day.min())
        dnorm = day - dmin + 31                  # ≥ 31, no underflow
        K = int(dnorm.max()) + 64
        comp = cust * K + dnorm                  # sorted by construction
        cum = np.cumsum(cents)
        lo = np.searchsorted(comp, cust * K + (dnorm - 30), side="left")
        rev30 = cum - np.where(lo > 0, cum[np.maximum(lo - 1, 0)], 0)
        return pa.table({
            "o_custkey": pa.array(cust),
            "day": pa.array(day.astype("datetime64[D]")
                            .astype("datetime64[us]")),
            "rev30_cents": pa.array(rev30.astype(np.int64))})

    return relational.ds_to_table(
        relational.bucket_shuffle(daily, "o_custkey", trailing)
    ).to_pandas().sort_values(["o_custkey", "day"]).reset_index(drop=True)


SQL_TRAILING_30D = """
WITH d AS (SELECT o_custkey, CAST(o_orderdate AS DATE) AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                    AS cents
           FROM orders GROUP BY 1, 2)
SELECT o_custkey, CAST(day AS TIMESTAMP) AS day,
       CAST(SUM(cents) OVER (PARTITION BY o_custkey ORDER BY day
                             RANGE BETWEEN INTERVAL 30 DAY PRECEDING
                                   AND CURRENT ROW) AS BIGINT)
         AS rev30_cents
FROM d ORDER BY o_custkey, day
"""


def q_ivm_orders_status(sf_dir: str):
    """Incremental view maintenance: the per-status revenue view is
    computed as BASE (first calendar half, the \"already-materialized\"
    aggregate) merged with DELTA partials (second half, the \"newly
    ingested\" batch) — and must equal the full recompute, which is
    exactly what the oracle checks.  Both legs push their date
    predicate INTO the parquet scan; the merge is a bounded
    per-status add of exact ints (sums/counts are self-commutative —
    the IVM property the demo exercises)."""
    import pyarrow.dataset as pads
    from ray.data.aggregate import Max, Min, Sum

    bounds = _read(sf_dir, "orders", ["o_orderdate"]).map_batches(
        lambda t: pa.table({"d": pa.array(
            t["o_orderdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[D]").astype(np.int64))}),
        batch_format="pyarrow").aggregate(Min("d", alias_name="lo"),
                                          Max("d", alias_name="hi"))
    mid_day = (int(bounds["lo"]) + int(bounds["hi"])) // 2
    mid_ts = np.int64(mid_day).astype("datetime64[D]") \
        .astype("datetime64[us]")

    def leg(filt):
        ds = _read(sf_dir, "orders",
                   ["o_orderstatus", "o_totalprice"], filter=filt)

        def partial(t: pa.Table) -> pa.Table:
            cents = np.round(t["o_totalprice"]
                             .to_numpy(zero_copy_only=False)
                             * 100.0).astype(np.int64)
            g = pd.DataFrame({"o_orderstatus":
                              t["o_orderstatus"].to_numpy(
                                  zero_copy_only=False),
                              "pc_": cents, "pn": 1}) \
                .groupby("o_orderstatus", sort=False) \
                .agg(pc_=("pc_", "sum"), pn=("pn", "sum")).reset_index()
            return pa.Table.from_pandas(g, preserve_index=False)

        return relational.ds_to_table(
            ds.map_batches(partial, batch_format="pyarrow")
            .groupby("o_orderstatus")
            .aggregate(Sum("pc_", alias_name="cents"),
                       Sum("pn", alias_name="n"))).to_pandas()

    base = leg(pads.field("o_orderdate") <= mid_ts)
    delta = leg(pads.field("o_orderdate") > mid_ts)
    merged = pd.concat([base, delta]) \
        .groupby("o_orderstatus", sort=True).sum().reset_index()
    return pd.DataFrame({
        "o_orderstatus": merged["o_orderstatus"],
        "n_orders": merged["n"].to_numpy(np.int64),
        "revenue": np.round(merged["cents"].to_numpy(np.int64)
                            / 100.0, 2)})


SQL_IVM = """
SELECT o_orderstatus, CAST(COUNT(*) AS BIGINT) AS n_orders,
       ROUND(CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                  AS DOUBLE) / 100.0, 2) AS revenue
FROM orders GROUP BY 1 ORDER BY 1
"""


def q_order_total_reconciliation(sf_dir: str):
    """Cross-table consistency audit — does the denormalized order
    total equal the lineitem-derived total?  Per-order derived cents
    reduce inside the join's bucket combine, the signed diff buckets
    by its exact DECIMAL DIGIT COUNT (repeated integer division — the
    audit must not trust float log10 at magnitude boundaries), and
    only the (sign × digits)-bounded histogram leaves the buckets."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount", "l_tax"])

    def li_partial(t: pa.Table) -> pa.Table:
        cents = np.round(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - t["l_discount"].to_numpy(zero_copy_only=False))
            * (1.0 + t["l_tax"].to_numpy(zero_copy_only=False))
            * 100.0).astype(np.int64)
        g = pd.DataFrame({"o_orderkey":
                          t["l_orderkey"].to_numpy(zero_copy_only=False),
                          "pd_": cents}) \
            .groupby("o_orderkey", sort=False)["pd_"].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    derived = li.map_batches(li_partial, batch_format="pyarrow")

    def comb(t: pa.Table) -> pa.Table:
        g = t.group_by("o_orderkey").aggregate([("pd_", "sum"),
                                                ("o_totalprice", "min")])
        dv = g["pd__sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        ot = np.round(g["o_totalprice_min"]
                      .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        diff = ot - dv
        mag = np.abs(diff)
        digits = np.zeros(len(mag), dtype=np.int64)
        m = mag.copy()
        while (m > 0).any():                 # exact digit count
            nz = m > 0
            digits[nz] += 1
            m[nz] //= 10
        bucket = np.sign(diff) * digits      # 0 = exact match
        u, c = np.unique(bucket, return_counts=True)
        return pa.table({"diff_bucket": pa.array(u),
                         "pn": pa.array(c.astype(np.int64))})

    j = relational.bucketed_hash_join(derived, orders, on="o_orderkey",
                                      combine=comb)
    out = relational.ds_to_table(
        j.groupby("diff_bucket").aggregate(Sum("pn", alias_name="n"))
    ).to_pandas().sort_values("diff_bucket").reset_index(drop=True)
    return out.astype({"diff_bucket": np.int64, "n": np.int64})


SQL_RECONCILIATION = """
WITH d AS (SELECT l_orderkey,
                  SUM(CAST(ROUND(l_extendedprice * (1.0 - l_discount)
                                 * (1.0 + l_tax) * 100) AS BIGINT))
                    AS dv
           FROM lineitem GROUP BY 1),
j AS (SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT) - d.dv AS diff
      FROM orders JOIN d ON l_orderkey = o_orderkey),
b AS (SELECT CASE WHEN diff = 0 THEN 0
                  ELSE CAST(SIGN(diff) AS BIGINT)
                       * LENGTH(CAST(ABS(diff) AS VARCHAR)) END
        AS diff_bucket
      FROM j)
SELECT diff_bucket, CAST(COUNT(*) AS BIGINT) AS n
FROM b GROUP BY 1 ORDER BY 1
"""


def q_fulfillment_latency_percentiles(sf_dir: str):
    """SLA percentiles (p50/p90/p99) of order-fulfillment latency —
    exact, via the same join-fused latency-day distribution as the
    histogram plus the pure-integer rule 100·cum ≥ k·N on the
    days-bounded aggregate.  No quantile sketch; a latency domain is
    always small enough for the exact distribution."""
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
        g = t.group_by("o_orderkey").aggregate([("ship", "min"),
                                                ("o_orderdate", "min")])
        s = g["ship_min"].to_numpy(zero_copy_only=False)
        o = g["o_orderdate_min"].to_numpy(zero_copy_only=False)
        days = ((s - o) // np.timedelta64(1, "D")).astype(np.int64)
        u, c = np.unique(days, return_counts=True)
        return pa.table({"latency_days": pa.array(u),
                         "pn": pa.array(c.astype(np.int64))})

    dist = relational.ds_to_table(
        relational.bucketed_hash_join(
            li.map_batches(li_min, batch_format="pyarrow"), orders,
            on="o_orderkey", combine=comb)
        .groupby("latency_days").aggregate(Sum("pn", alias_name="n"))
    ).to_pandas().sort_values("latency_days").reset_index(drop=True)
    cum = np.cumsum(dist["n"].to_numpy(np.int64))
    v = dist["latency_days"].to_numpy(np.int64)
    rows = [{"pct": k,
             "latency_days": int(
                 v[relational.exact_quantile_idx(cum, k, 100)])}
            for k in (50, 90, 99)]
    return pd.DataFrame(rows).astype({"pct": np.int64,
                                      "latency_days": np.int64})


SQL_FULFILLMENT_PCT = """
WITH f AS (SELECT l_orderkey, MIN(l_shipdate) AS ship
           FROM lineitem GROUP BY 1),
lat AS (SELECT CAST(date_diff('day', o_orderdate, ship) AS BIGINT)
          AS d
        FROM orders JOIN f ON l_orderkey = o_orderkey),
vc AS (SELECT d, CAST(COUNT(*) AS BIGINT) AS c FROM lat GROUP BY 1),
w AS (SELECT d, SUM(c) OVER (ORDER BY d ROWS UNBOUNDED PRECEDING)
               AS cum, SUM(c) OVER () AS n
      FROM vc),
q AS (SELECT unnest([50, 90, 99]) AS pct)
SELECT q.pct, MIN(w.d) AS latency_days
FROM q JOIN w ON 100 * w.cum >= q.pct * w.n
GROUP BY 1 ORDER BY 1
"""


def q_acf_daily_revenue(sf_dir: str):
    """Lag-k autocorrelation (k = 1..7) of the gap-filled daily order
    revenue series — the seasonality diagnostic behind every demand
    forecast.  The distributed part is the daily exact-cents reduction
    (per-batch partials, day-keyed groupby); the ACF finish runs on the
    DAYS-bounded series with arbitrary-precision integer power sums
    (daily cents² overflows int64), one float expression per k written
    to mirror the SQL text exactly."""
    import math

    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    series = np.zeros(hi - lo + 1, dtype=np.int64)
    series[days - lo] = d["rev"].to_numpy(np.int64)
    xs = [int(v) for v in series]        # python ints: exact squares
    rows = []
    for k in range(1, 8):
        a, b = xs[:-k], xs[k:]
        n = len(a)
        sx, sy = sum(a), sum(b)
        sxy = sum(p * q for p, q in zip(a, b))
        sxx = sum(p * p for p in a)
        syy = sum(q * q for q in b)
        num = float(n * sxy - sx * sy)
        den = math.sqrt(float(n * sxx - sx * sx)) \
            * math.sqrt(float(n * syy - sy * sy))
        rows.append({"k": k, "acf": round(num / den, 6)})
    return pd.DataFrame(rows).astype({"k": np.int64})


SQL_ACF = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day, COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d USING (day)),
p AS (SELECT k.k, CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(a.rev) AS sx, SUM(b.rev) AS sy,
             SUM(a.rev * b.rev) AS sxy,
             SUM(a.rev * a.rev) AS sxx, SUM(b.rev * b.rev) AS syy
      FROM s a
      CROSS JOIN (VALUES (1), (2), (3), (4), (5), (6), (7)) k(k)
      JOIN s b ON b.day = a.day + k.k
      GROUP BY 1)
SELECT k, ROUND(CAST(n * sxy - sx * sy AS DOUBLE)
                / (SQRT(CAST(n * sxx - sx * sx AS DOUBLE))
                   * SQRT(CAST(n * syy - sy * sy AS DOUBLE))), 6) AS acf
FROM p ORDER BY k
"""


def q_isoweek_revenue(sf_dir: str):
    """Fiscal-calendar rollup: exact-cents order revenue per ISO 8601
    (iso_year, iso_week) — the week-boundary semantics (Monday start,
    week 1 holds the first Thursday) that plain YYYY-WW truncation gets
    wrong at year boundaries.  Per-batch vectorized isocalendar() via
    pandas' C datetime kernel feeding week-bounded partials; the global
    groupby moves (year, week) cells, never orders."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        dt = pd.DatetimeIndex(t["o_orderdate"].to_numpy(
            zero_copy_only=False))
        iso = dt.isocalendar()
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"iso_year": iso["year"].to_numpy(np.int64),
                          "iso_week": iso["week"].to_numpy(np.int64),
                          "pc_": cents}) \
            .groupby(["iso_year", "iso_week"], sort=False) \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby(["iso_year", "iso_week"])
        .aggregate(Sum("pc_", alias_name="cents"))
    ).to_pandas().sort_values(["iso_year", "iso_week"]) \
        .reset_index(drop=True)
    out["revenue"] = np.round(
        out["cents"].to_numpy(np.float64) / 100.0, 2)
    return out[["iso_year", "iso_week", "revenue"]] \
        .astype({"iso_year": np.int64, "iso_week": np.int64})


SQL_ISOWEEK = """
SELECT CAST(isoyear(o_orderdate) AS BIGINT) AS iso_year,
       CAST(weekofyear(o_orderdate) AS BIGINT) AS iso_week,
       ROUND(CAST(SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                  AS DOUBLE) / 100.0, 2) AS revenue
FROM orders GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_cusum_daily_revenue(sf_dir: str):
    """CUSUM upward level-shift detector over gap-filled daily revenue
    — the classic recursive s_i = max(0, s_{i−1} + (x_i − μ)) rewritten
    CLOSED-FORM as cumsum − running-min(cumsum) (exact identity, proven
    by induction), so it needs only window scans, no recursion.  Work
    in n-scaled cents (y_i = n·x_i − S) to keep μ rational: every value
    is an exact python int until the final ROUND(s/n/100, 4).  The
    distributed part is the daily exact-cents reduce; the finish is
    DAYS-bounded."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    series = np.zeros(hi - lo + 1, dtype=np.int64)
    series[days - lo] = d["rev"].to_numpy(np.int64)
    xs = [int(v) for v in series]
    n, total = len(xs), sum(xs)
    cum, runmin, out = 0, 0, []
    for i, x in enumerate(xs):
        cum += n * x - total           # scaled deviation, exact int
        if cum < runmin:
            runmin = cum
        s = cum - runmin
        out.append({"day": lo + i,
                    "cusum": round(float(s) / n / 100.0, 4)})
    return pd.DataFrame(out).astype({"day": np.int64})


SQL_CUSUM = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day, COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d USING (day)),
tot AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(rev) AS total
        FROM s),
c AS (SELECT day, SUM(n * rev - total) OVER (ORDER BY day
             ROWS UNBOUNDED PRECEDING) AS cum
      FROM s, tot),
m AS (SELECT day, cum, LEAST(CAST(0 AS HUGEINT),
             MIN(cum) OVER (ORDER BY day
                            ROWS UNBOUNDED PRECEDING)) AS runmin
      FROM c)
SELECT day, ROUND(CAST(cum - runmin AS DOUBLE)
                  / (SELECT CAST(n AS DOUBLE) FROM tot) / 100.0, 4)
         AS cusum
FROM m ORDER BY day
"""


def q_max_drawdown_revenue(sf_dir: str):
    """Maximum drawdown of the cumulative daily-revenue curve —
    max(running-max(cum) − cum), the risk metric behind every equity
    curve.  Same scan family as CUSUM (windows, no recursion); missing
    days can't change cum or its running max, so no gap-fill is needed
    and everything is exact cents."""
    d = _daily_revenue_cents(sf_dir)
    cum = 0
    runmax = 0
    dd = 0
    for x in d["rev"].to_numpy(np.int64):
        cum += int(x)
        if cum > runmax:
            runmax = cum
        if runmax - cum > dd:
            dd = runmax - cum
    return pd.DataFrame([{"n_days": len(d),
                          "max_drawdown": round(dd / 100.0, 2)}]) \
        .astype({"n_days": np.int64})


SQL_MAX_DRAWDOWN = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS rev
           FROM orders GROUP BY 1),
c AS (SELECT day, SUM(rev) OVER (ORDER BY day
             ROWS UNBOUNDED PRECEDING) AS cum FROM d),
m AS (SELECT cum, GREATEST(CAST(0 AS HUGEINT),
             MAX(cum) OVER (ORDER BY day
                            ROWS UNBOUNDED PRECEDING)) AS runmax
      FROM c)
SELECT CAST((SELECT COUNT(*) FROM d) AS BIGINT) AS n_days,
       ROUND(CAST(MAX(runmax - cum) AS DOUBLE) / 100.0, 2)
         AS max_drawdown
FROM m
"""


def q_hive_pruned_scan(sf_dir: str):
    """Hive-style partitioned write + partition-PRUNED read-back:
    orders land under ``o_orderstatus=<v>/`` directories (Ray's native
    ``partition_cols`` writer), then the scan reads ONLY the 'F'
    directory — bytes from the other partitions never leave storage,
    which is the point of hive layout at 100 TB.  The oracle filters
    the original table, so a wrong partition routing breaks the
    hash."""
    import os

    from ray.data.aggregate import Sum

    out = _fingerprint_cache_dir(sf_dir, "orders", "hive")

    def build(tmp: str) -> None:
        _read(sf_dir, "orders",
              ["o_orderkey", "o_orderstatus", "o_orderpriority",
               "o_totalprice"]) \
            .write_parquet(tmp, partition_cols=["o_orderstatus"])

    publish_dir(out, build)

    import ray.data as rd
    part = rd.read_parquet(os.path.join(out, "o_orderstatus=F"),
                           columns=["o_orderpriority", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"o_orderpriority":
                          t["o_orderpriority"].to_numpy(
                              zero_copy_only=False),
                          "pn": 1, "pc_": cents}) \
            .groupby("o_orderpriority", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    o = relational.ds_to_table(
        part.map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority").aggregate(
            Sum("pn", alias_name="n"),
            Sum("pc_", alias_name="revenue_c"))
    ).to_pandas().sort_values("o_orderpriority").reset_index(drop=True)
    return o.astype({"n": np.int64, "revenue_c": np.int64})


SQL_HIVE_PRUNED = """
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS BIGINT)
         AS revenue_c
FROM orders WHERE o_orderstatus = 'F'
GROUP BY 1 ORDER BY 1
"""


def q_grouping_sets_orders(sf_dir: str):
    """GROUP BY GROUPING SETS ((status), (priority), ()) in one pass:
    the finest (status, priority) partials reduce once (≤ 3×5 cells);
    every requested grouping set derives from those cells — the same
    derive-coarse-from-finest contract as the rollup/cube stages, with
    an explicit grouping-id column."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_orderstatus",
                                      "o_orderpriority", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({
            "st": t["o_orderstatus"].to_numpy(zero_copy_only=False),
            "pr": t["o_orderpriority"].to_numpy(zero_copy_only=False),
            "pn": 1, "pc_": cents}) \
            .groupby(["st", "pr"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cells = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby(["st", "pr"]).aggregate(
            Sum("pn", alias_name="n"), Sum("pc_", alias_name="c"))
    ).to_pandas()
    rows = []
    for st, g in cells.groupby("st"):
        rows.append({"gid": 0, "o_orderstatus": st,
                     "o_orderpriority": None,
                     "n": int(g["n"].sum()), "revenue_c": int(g["c"].sum())})
    for pr, g in cells.groupby("pr"):
        rows.append({"gid": 1, "o_orderstatus": None,
                     "o_orderpriority": pr,
                     "n": int(g["n"].sum()), "revenue_c": int(g["c"].sum())})
    rows.append({"gid": 2, "o_orderstatus": None, "o_orderpriority": None,
                 "n": int(cells["n"].sum()),
                 "revenue_c": int(cells["c"].sum())})
    return pd.DataFrame(rows).sort_values(
        ["gid", "o_orderstatus", "o_orderpriority"],
        na_position="last").reset_index(drop=True) \
        .astype({"gid": np.int64, "n": np.int64, "revenue_c": np.int64})


SQL_GROUPING_SETS = """
SELECT 0 AS gid, o_orderstatus, CAST(NULL AS VARCHAR)
         AS o_orderpriority,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS BIGINT)
         AS revenue_c
FROM orders GROUP BY o_orderstatus
UNION ALL
SELECT 1, CAST(NULL AS VARCHAR), o_orderpriority,
       CAST(COUNT(*) AS BIGINT),
       CAST(SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS BIGINT)
FROM orders GROUP BY o_orderpriority
UNION ALL
SELECT 2, NULL, NULL, CAST(COUNT(*) AS BIGINT),
       CAST(SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS BIGINT)
FROM orders
ORDER BY gid, o_orderstatus, o_orderpriority
"""


def q_cdc_soft_delete_read(sf_dir: str):
    """Deletion-vector read (the lakehouse CDC soft-delete pattern):
    the base table stays immutable; a separate delete-key set (here the
    deterministic o_orderkey % 97 == 0 tombstones) is broadcast once
    via ``ray.put`` and applied per batch with a vectorized
    searchsorted anti-filter at SCAN time — no rewrite of the base
    files.  The oracle applies the same predicate, so a leaky mask
    breaks the hash."""
    import ray

    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderstatus", "o_totalprice"])
    # the "deletion vector": key set from a side scan (tombstone table)
    def tombstones(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"o_orderkey": pa.array(k[k % 97 == 0])})

    dels = relational.ds_to_table(
        orders.select_columns(["o_orderkey"])
        .map_batches(tombstones, batch_format="pyarrow"))
    dkeys = np.sort(dels["o_orderkey"].to_numpy(zero_copy_only=False)
                    .astype(np.int64))
    dref = ray.put(dkeys)

    def apply_dv(t: pa.Table) -> pa.Table:
        dk = worker_cached(("dv_orders", dref), lambda: ray.get(dref))
        k = t["o_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pos = np.minimum(np.searchsorted(dk, k),
                         max(len(dk) - 1, 0))
        live = dk[pos] != k if len(dk) else np.ones(len(k), bool)
        t = t.filter(pa.array(live))
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"o_orderstatus":
                          t["o_orderstatus"].to_numpy(
                              zero_copy_only=False),
                          "pn": 1, "pc_": cents}) \
            .groupby("o_orderstatus", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    o = relational.ds_to_table(
        orders.map_batches(apply_dv, batch_format="pyarrow")
        .groupby("o_orderstatus").aggregate(
            Sum("pn", alias_name="n"),
            Sum("pc_", alias_name="revenue_c"))
    ).to_pandas().sort_values("o_orderstatus").reset_index(drop=True)
    return o.astype({"n": np.int64, "revenue_c": np.int64})


SQL_CDC_SOFT_DELETE = """
SELECT o_orderstatus, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS BIGINT)
         AS revenue_c
FROM orders WHERE o_orderkey % 97 <> 0
GROUP BY 1 ORDER BY 1
"""


def _ensure_clustered_orders(sf_dir: str) -> str:
    """Materialize (once per input fingerprint) the day-range-clustered
    orders layout shared by the zone-map scan and the layout audit —
    factored out so the audit doesn't piggyback on another query's
    side effect."""
    import glob
    import os

    from ...runtime.checkpoint import write_clustered

    out = _fingerprint_cache_dir(sf_dir, "orders", "zonemap")

    def build(tmp: str) -> None:
        def add_day(t: pa.Table) -> pa.Table:
            day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
                .astype("datetime64[us]").astype(np.int64) \
                // 86_400_000_000
            return t.append_column("day", pa.array(day))

        write_clustered(
            _read(sf_dir, "orders",
                  ["o_orderdate", "o_orderpriority", "o_totalprice"])
            .map_batches(add_day, batch_format="pyarrow"),
            tmp, key_col="day", num_ranges=16)

    publish_dir(out, build)
    return out


def q_zonemap_pruned_scan(sf_dir: str):
    """Zone-map (min/max statistics) file skipping: orders are written
    once through ``write_clustered`` (range-partitioned on the epoch
    day, globally ordered files), a min/max manifest is built from the
    parquet FOOTERS, and a date-range query then opens ONLY the files
    whose [min, max] overlaps the predicate — stats-based skipping,
    the complement of hive value-partition pruning.  The pruned file
    count is asserted in pytest; the oracle runs the same predicate on
    the original table."""
    import glob
    import os
    import uuid

    import pyarrow.parquet as pq_
    import ray.data as rd

    from ray.data.aggregate import Sum
    from ...runtime.checkpoint import write_clustered

    out = _ensure_clustered_orders(sf_dir)
    files = sorted(glob.glob(os.path.join(out, "part=*", "*.parquet")))
    # zone map from footers only (no data read on the driver)
    lo_day = int(pd.Timestamp("1995-01-01").value // 1000
                 // 86_400_000_000)
    hi_day = int(pd.Timestamp("1995-12-31").value // 1000
                 // 86_400_000_000)
    keep = []
    for f in files:
        md = pq_.read_metadata(f)
        mins, maxs = [], []
        for rg in range(md.num_row_groups):
            col = {md.schema.column(i).name: i
                   for i in range(md.num_columns)}["day"]
            st = md.row_group(rg).column(col).statistics
            mins.append(st.min)
            maxs.append(st.max)
        if min(mins) <= hi_day and max(maxs) >= lo_day:
            keep.append(f)
    q_zonemap_pruned_scan._last_prune = (len(files), len(keep))

    part = rd.read_parquet(keep, columns=["day", "o_orderpriority",
                                          "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["day"].to_numpy(zero_copy_only=False)
        m = (day >= lo_day) & (day <= hi_day)
        t = t.filter(pa.array(m))
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"o_orderpriority":
                          t["o_orderpriority"].to_numpy(
                              zero_copy_only=False),
                          "pn": 1, "pc_": cents}) \
            .groupby("o_orderpriority", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    o = relational.ds_to_table(
        part.map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority").aggregate(
            Sum("pn", alias_name="n"),
            Sum("pc_", alias_name="revenue_c"))
    ).to_pandas().sort_values("o_orderpriority").reset_index(drop=True)
    return o.astype({"n": np.int64, "revenue_c": np.int64})


SQL_ZONEMAP = """
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS BIGINT)
         AS revenue_c
FROM orders
WHERE epoch_us(o_orderdate) // 86400000000
      BETWEEN epoch_us(TIMESTAMP '1995-01-01') // 86400000000
          AND epoch_us(TIMESTAMP '1995-12-31') // 86400000000
GROUP BY 1 ORDER BY 1
"""


def q_time_travel_read(sf_dir: str):
    """Snapshot / time-travel reads: two manifest versions over the
    same immutable file pool (v1 = the early half of the order stream,
    v2 = v1 + the late files, nothing rewritten), then the SAME
    aggregate executed AS OF each version — the lakehouse property
    that a reader pins a manifest, not a directory.  The oracle
    replicates both snapshots by predicate, so manifest-routing bugs
    break the hash."""
    import json
    import os

    import pyarrow.parquet as pq_
    import ray.data as rd

    from ray.data.aggregate import Sum

    out = _fingerprint_cache_dir(sf_dir, "orders", "timetravel")

    def build(tmp: str) -> None:
        t = relational.ds_to_table(
            _read(sf_dir, "orders", ["o_orderkey", "o_orderdate",
                                     "o_totalprice"]))
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        lo, hi = int(day.min()), int(day.max())
        mid = lo + (hi - lo) // 2
        early = pa.array(day <= mid)
        pq_.write_table(t.filter(early),
                        os.path.join(tmp, "early.parquet"))
        pq_.write_table(t.filter(pc.invert(early)),
                        os.path.join(tmp, "late.parquet"))
        with open(os.path.join(tmp, "manifest-v1.json"), "w") as fh:
            json.dump({"files": ["early.parquet"], "mid_day": mid}, fh)
        with open(os.path.join(tmp, "manifest-v2.json"), "w") as fh:
            json.dump({"files": ["early.parquet", "late.parquet"],
                       "mid_day": mid}, fh)

    publish_dir(out, build)

    def snapshot(version: int) -> pd.Series:
        with open(os.path.join(out, f"manifest-v{version}.json")) as fh:
            m = json.load(fh)
        files = [os.path.join(out, f) for f in m["files"]]
        ds = rd.read_parquet(files, columns=["o_totalprice"])

        def partial(t: pa.Table) -> pa.Table:
            cents = np.round(t["o_totalprice"].to_numpy(
                zero_copy_only=False) * 100.0).astype(np.int64)
            return pa.table({"pn": pa.array([len(cents)]),
                             "pc_": pa.array([int(cents.sum())])})

        agg = ds.map_batches(partial, batch_format="pyarrow") \
            .aggregate(Sum("pn", alias_name="n"),
                       Sum("pc_", alias_name="c"))
        return int(agg["n"]), int(agg["c"])

    rows = []
    for v in (1, 2):
        n, c = snapshot(v)
        rows.append({"version": v, "n": n, "revenue_c": c})
    return pd.DataFrame(rows).astype({"version": np.int64,
                                      "n": np.int64,
                                      "revenue_c": np.int64})


SQL_TIME_TRAVEL = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  CAST(ROUND(o_totalprice * 100) AS HUGEINT) AS c
           FROM orders),
b AS (SELECT MIN(day) + (MAX(day) - MIN(day)) // 2 AS mid FROM d)
SELECT 1 AS version, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(c) AS BIGINT) AS revenue_c
FROM d, b WHERE day <= mid
UNION ALL
SELECT 2, CAST(COUNT(*) AS BIGINT), CAST(SUM(c) AS BIGINT) FROM d
ORDER BY version
"""


def q_rfm_segmentation(sf_dir: str):
    """RFM customer segmentation: NTILE(5) scores for Recency (last
    order day), Frequency (order count) and Monetary (exact cents),
    each over the deterministic (metric, custkey) total order.  NTILE
    itself is pure integer arithmetic under the FRONT-LOADED-remainder
    rule (base = n//k, rem = n%k, the first rem tiles hold base+1 rows
    — exactly SQL's semantics; the interleaving floor(rank·k/n)
    formula diverges whenever n % k ∈ {2, 3}, see
    ``relational.grouped_ntile``'s docstring) — and rn
    comes from the range-bucket ``global_prefix_sum`` over the UNIQUE
    composite key metric·2³² + custkey (no global sort, nothing
    row-scaled on the driver; composite packing bounds metric < 2³¹,
    documented).  Three prefix passes over a DIMENSION-sized table."""
    from ray.data.aggregate import Max, Sum
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate",
                                      "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"c": t["o_custkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "pd_": day, "pn": 1, "pm": cents}) \
            .groupby("c", sort=False) \
            .agg(pd_=("pd_", "max"), pn=("pn", "sum"),
                 pm=("pm", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    m = orders.map_batches(partial, batch_format="pyarrow") \
        .groupby("c").aggregate(
            Max("pd_", alias_name="r_day"),
            Sum("pn", alias_name="f_cnt"),
            Sum("pm", alias_name="m_cents")).materialize()
    n = m.count()

    def with_key(col):
        def f(t: pa.Table) -> pa.Table:
            v = t[col].to_numpy(zero_copy_only=False).astype(np.int64)
            c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
            if v.size and (v.max() >= 1 << 31 or c.max() >= 1 << 32):
                raise ValueError("RFM composite packing bound")
            k = v * (1 << 32) + c
            return pa.table({"c": pa.array(c), "one": pa.array(
                np.ones(len(c), dtype=np.int64)), "key": pa.array(k)})
        return f

    scores = {}
    for col, name in (("r_day", "r_score"), ("f_cnt", "f_score"),
                      ("m_cents", "m_score")):
        ranked = relational.global_prefix_sum(
            m.map_batches(with_key(col), batch_format="pyarrow"),
            order_col="key", value_col="one", out_col="rn")

        def tile(t: pa.Table, _name=name) -> pa.Table:
            rank0 = t["rn"].to_numpy(zero_copy_only=False) \
                .astype(np.int64) - 1
            base, rem = divmod(n, 5)
            cutoff = rem * (base + 1)
            tl = np.where(rank0 < cutoff,
                          rank0 // max(base + 1, 1),
                          rem + (rank0 - cutoff) // max(base, 1)) + 1
            return pa.table({"c": t["c"], _name: pa.array(
                tl.astype(np.int64))})

        scores[name] = relational.ds_to_table(
            ranked.map_batches(tile, batch_format="pyarrow")
        ).to_pandas().set_index("c")[name]

    out = pd.DataFrame(scores).reset_index() \
        .rename(columns={"c": "c_custkey"}) \
        .sort_values("c_custkey").reset_index(drop=True)
    return out.astype({"c_custkey": np.int64, "r_score": np.int64,
                       "f_score": np.int64, "m_score": np.int64})


SQL_RFM = """
WITH m AS (SELECT o_custkey AS c,
                  MAX(epoch_us(o_orderdate) // 86400000000) AS r_day,
                  CAST(COUNT(*) AS BIGINT) AS f_cnt,
                  CAST(SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                       AS BIGINT) AS m_cents
           FROM orders GROUP BY 1)
SELECT c AS c_custkey,
       CAST(NTILE(5) OVER (ORDER BY r_day, c) AS BIGINT) AS r_score,
       CAST(NTILE(5) OVER (ORDER BY f_cnt, c) AS BIGINT) AS f_score,
       CAST(NTILE(5) OVER (ORDER BY m_cents, c) AS BIGINT) AS m_score
FROM m ORDER BY c_custkey
"""


def q_mom_revenue_growth(sf_dir: str):
    """Month-over-month revenue growth: exact-cents monthly reduce,
    then the MONTHS-bounded LAG finish — growth = (cur − prev)/prev as
    the one mirrored division (NULL on the first month like SQL
    LAG)."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        dt = pd.DatetimeIndex(t["o_orderdate"].to_numpy(
            zero_copy_only=False))
        month = (dt.year * 100 + dt.month).to_numpy(np.int64)
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"month": month, "pc_": cents}) \
            .groupby("month", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    d = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("month").aggregate(Sum("pc_", alias_name="rev"))
    ).to_pandas().sort_values("month").reset_index(drop=True)
    rev = d["rev"].to_numpy(np.int64)
    growth = np.full(len(d), np.nan)
    if len(d) > 1:
        growth[1:] = np.round(
            (rev[1:] - rev[:-1]).astype(np.float64)
            / rev[:-1].astype(np.float64), 6)
    return pd.DataFrame({"month": d["month"].astype(np.int64),
                         "rev_c": rev, "growth": growth})


SQL_MOM_GROWTH = """
WITH m AS (SELECT CAST(year(o_orderdate) * 100 + month(o_orderdate)
                       AS BIGINT) AS month,
                  CAST(SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                       AS BIGINT) AS rev_c
           FROM orders GROUP BY 1)
SELECT month, rev_c,
       ROUND(CAST(rev_c - LAG(rev_c) OVER (ORDER BY month) AS DOUBLE)
             / LAG(rev_c) OVER (ORDER BY month), 6) AS growth
FROM m ORDER BY month
"""


def q_dow_seasonality_index(sf_dir: str):
    """Day-of-week seasonality index of order revenue: mean daily
    revenue per weekday ÷ overall mean daily revenue — the additive
    seasonal-decomposition diagnostic.  Exact cents and day counts all
    the way; the index is ONE mirrored division chain.  Weekday from
    pure epoch-day arithmetic ((day + 3) % 7 + 1: 1970-01-01 was a
    Thursday → isodow 4; ISO Monday=1 … Sunday=7, matching DuckDB
    isodow)."""
    d = _daily_revenue_cents(sf_dir)
    day = d["day"].to_numpy(np.int64)
    isodow = (day + 3) % 7 + 1            # 1970-01-01 Thu → isodow 4
    rev = d["rev"].to_numpy(np.int64)
    g = pd.DataFrame({"isodow": isodow, "rev": rev}) \
        .groupby("isodow").agg(n_days=("rev", "size"),
                               rev_c=("rev", "sum")).reset_index()
    total_c = int(g["rev_c"].sum())
    total_d = int(g["n_days"].sum())
    idx = (g["rev_c"].to_numpy(np.float64)
           / g["n_days"].to_numpy(np.float64)) \
        / (float(total_c) / float(total_d))
    out = g.assign(season_idx=np.round(idx, 6)) \
        .sort_values("isodow").reset_index(drop=True)
    return out.astype({"isodow": np.int64, "n_days": np.int64,
                       "rev_c": np.int64})


SQL_DOW_SEASONALITY = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
g AS (SELECT (day + 3) % 7 + 1 AS isodow,
             CAST(COUNT(*) AS BIGINT) AS n_days,
             CAST(SUM(rev) AS BIGINT) AS rev_c
      FROM d GROUP BY 1),
tot AS (SELECT SUM(rev_c) AS tc, SUM(n_days) AS td FROM g)
SELECT isodow, n_days, rev_c,
       ROUND((CAST(rev_c AS DOUBLE) / CAST(n_days AS DOUBLE))
             / (CAST(tc AS DOUBLE) / CAST(td AS DOUBLE)), 6)
         AS season_idx
FROM g, tot ORDER BY isodow
"""


def q_control_chart_revenue(sf_dir: str):
    """Shewhart 3σ control chart over daily revenue: days whose exact
    cents fall outside mean ± 3·σ (population σ from exact power sums
    — cents² rides the (hi, lo) split).  The bounds are ONE mirrored
    float expression; day membership compares identical doubles, so
    the flagged-day set matches SQL exactly."""
    d = _daily_revenue_cents(sf_dir).sort_values("day").reset_index(drop=True)
    rev = [int(v) for v in d["rev"]]
    n = len(rev)
    s1, s2 = sum(rev), sum(v * v for v in rev)
    # round each operand to double FIRST, exactly like the SQL twin's
    # CAST(s AS DOUBLE)/CAST(n AS DOUBLE): python int/int true division
    # is correctly-rounded exact-rational division and diverges 1 ulp
    # once s exceeds 2^53 (s2 is ~1e17 at sf0.001 already)
    mu = float(s1) / float(n)
    sigma = float(np.sqrt(float(s2) / float(n) - mu * mu))
    lo, hi = mu - 3.0 * sigma, mu + 3.0 * sigma
    rv = d["rev"].to_numpy(np.float64)
    out = d[(rv < lo) | (rv > hi)].copy()
    out["rev"] = out["rev"].astype(np.int64)
    return out.rename(columns={"rev": "rev_c"}) \
        .astype({"day": np.int64}).reset_index(drop=True)


SQL_CONTROL_CHART = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  CAST(SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                       AS BIGINT) AS rev_c
           FROM orders GROUP BY 1),
s AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(CAST(rev_c AS HUGEINT)) AS s1,
             SUM(CAST(rev_c AS HUGEINT) * rev_c) AS s2 FROM d),
b AS (SELECT CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE) AS mu,
             SQRT(CAST(s2 AS DOUBLE) / CAST(n AS DOUBLE)
                  - (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE))
                    * (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE)))
               AS sigma
      FROM s)
SELECT day, rev_c FROM d, b
WHERE CAST(rev_c AS DOUBLE) < mu - 3.0 * sigma
   OR CAST(rev_c AS DOUBLE) > mu + 3.0 * sigma
ORDER BY day
"""


def q_join_cardinality_exact(sf_dir: str):
    """Join-size estimation made exact: |orders ⋈ lineitem| on
    orderkey equals Σ_k c_orders(k)·c_lineitem(k) over the key
    distributions — computed WITHOUT executing the join (two bounded
    per-key count aggregations + one co-bucket multiply), verified
    against the oracle's actual COUNT(*).  The primitive a cost-based
    planner needs before choosing broadcast vs shuffle."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_orderkey"])
    li = _read(sf_dir, "lineitem", ["l_orderkey"])

    def counts(col):
        def f(t: pa.Table) -> pa.Table:
            k = t[col].to_numpy(zero_copy_only=False).astype(np.int64)
            u, c = np.unique(k, return_counts=True)
            return pa.table({"k": pa.array(u),
                             "pc_": pa.array(c.astype(np.int64))})
        return f

    co = orders.map_batches(counts("o_orderkey"),
                            batch_format="pyarrow") \
        .groupby("k").aggregate(Sum("pc_", alias_name="ca"))
    cl = li.map_batches(counts("l_orderkey"), batch_format="pyarrow") \
        .groupby("k").aggregate(Sum("pc_", alias_name="cb"))

    joined = relational.bucketed_hash_join(co, cl, on="k")

    def mul(t: pa.Table) -> pa.Table:
        ca = t["ca"].to_numpy(zero_copy_only=False).astype(np.int64)
        cb = t["cb"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"pp": pa.array([int((ca * cb).sum())])})

    agg = joined.map_batches(mul, batch_format="pyarrow") \
        .aggregate(Sum("pp", alias_name="rows"))
    return pd.DataFrame([{"join_rows": int(agg["rows"])}]) \
        .astype({"join_rows": np.int64})


SQL_JOIN_CARD = """
SELECT CAST(COUNT(*) AS BIGINT) AS join_rows
FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
"""


def q_reorder_interval_histogram(sf_dir: str):
    """Customer reorder-interval distribution: day gaps between each
    customer's consecutive orders (LAG over (orderdate, orderkey)),
    bucketed to weeks — the repeat-purchase behavior curve.  One
    customer-bucket shuffle, vectorized shift per bucket; output is
    week-domain-bounded."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                      "o_orderdate"])

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        day = df["o_orderdate"].to_numpy() \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        df = df.assign(day=day) \
            .sort_values(["o_custkey", "day", "o_orderkey"])
        c = df["o_custkey"].to_numpy(np.int64)
        dy = df["day"].to_numpy(np.int64)
        same = c[1:] == c[:-1]
        gap = (dy[1:] - dy[:-1])[same]
        weeks = gap // 7
        u, n = np.unique(weeks, return_counts=True)
        return pa.table({"gap_weeks": pa.array(u),
                         "pn": pa.array(n.astype(np.int64))})

    o = relational.ds_to_table(
        relational.bucket_shuffle(orders, "o_custkey", per_bucket)
        .groupby("gap_weeks").aggregate(Sum("pn", alias_name="n"))
    ).to_pandas().sort_values("gap_weeks").reset_index(drop=True)
    return o.astype({"gap_weeks": np.int64, "n": np.int64})


SQL_REORDER_INTERVALS = """
WITH o AS (SELECT o_custkey,
                  epoch_us(o_orderdate) // 86400000000 AS day,
                  o_orderkey
           FROM orders),
g AS (SELECT day - LAG(day) OVER (PARTITION BY o_custkey
                                  ORDER BY day, o_orderkey) AS gap
      FROM o)
SELECT gap // 7 AS gap_weeks, CAST(COUNT(*) AS BIGINT) AS n
FROM g WHERE gap IS NOT NULL
GROUP BY 1 ORDER BY 1
"""


def q_top1pct_revenue_share(sf_dir: str):
    """Revenue concentration: the share of total revenue held by the
    top ⌈n/100⌉ customers (revenue DESC, custkey ASC rank) — the
    whale-concentration KPI.  Rank via the composite-key
    ``global_prefix_sum`` (same machinery as ABC analysis), head size
    from pure integer ceil division, ONE mirrored share division."""
    from ray.data.aggregate import Max, Sum
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"c": t["o_custkey"].to_numpy(
            zero_copy_only=False).astype(np.int64), "pc_": cents}) \
            .groupby("c", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    rev = orders.map_batches(partial, batch_format="pyarrow") \
        .groupby("c").aggregate(Sum("pc_", alias_name="rev")) \
        .materialize()
    n = rev.count()
    head = (n + 99) // 100                  # ceil(n / 100)
    mx = int(rev.aggregate(Max("rev", alias_name="m"))["m"])
    total = int(rev.aggregate(Sum("rev", alias_name="s"))["s"])

    def with_key(t: pa.Table) -> pa.Table:
        from ...stages.relational import pack_desc_rank_key
        r = t["rev"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = pack_desc_rank_key(r, mx, c)  # revenue DESC, custkey ASC
        return pa.table({"rev": pa.array(r), "one": pa.array(
            np.ones(len(r), dtype=np.int64)), "key": pa.array(key)})

    ranked = relational.global_prefix_sum(
        rev.map_batches(with_key, batch_format="pyarrow"),
        order_col="key", value_col="one", out_col="rn")

    def head_sum(t: pa.Table) -> pa.Table:
        rn = t["rn"].to_numpy(zero_copy_only=False).astype(np.int64)
        r = t["rev"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"ph": pa.array([int(r[rn <= head].sum())])})

    agg = ranked.map_batches(head_sum, batch_format="pyarrow") \
        .aggregate(Sum("ph", alias_name="head_c"))
    head_c = int(agg["head_c"])
    return pd.DataFrame([{
        "n_customers": n, "head_n": int(head), "head_rev_c": head_c,
        "total_rev_c": total,
        "share": round(float(head_c) / float(total), 6)}]) \
        .astype({"n_customers": np.int64, "head_n": np.int64,
                 "head_rev_c": np.int64, "total_rev_c": np.int64})


SQL_TOP1PCT = """
WITH rev AS (SELECT o_custkey AS c,
                    CAST(SUM(CAST(ROUND(o_totalprice * 100)
                                  AS HUGEINT)) AS BIGINT) AS rev
             FROM orders GROUP BY 1),
r AS (SELECT rev, ROW_NUMBER() OVER (ORDER BY rev DESC, c) AS rn
      FROM rev),
s AS (SELECT CAST((SELECT COUNT(*) FROM rev) AS BIGINT) AS n,
             CAST(((SELECT COUNT(*) FROM rev) + 99) // 100 AS BIGINT)
               AS head_n)
SELECT n AS n_customers, head_n,
       CAST((SELECT SUM(rev) FROM r, s WHERE rn <= head_n) AS BIGINT)
         AS head_rev_c,
       CAST((SELECT SUM(rev) FROM rev) AS BIGINT) AS total_rev_c,
       ROUND(CAST((SELECT SUM(rev) FROM r, s WHERE rn <= head_n)
                  AS DOUBLE)
             / CAST((SELECT SUM(rev) FROM rev) AS DOUBLE), 6) AS share
FROM s
"""


def q_weekday_priority_heatmap(sf_dir: str):
    """Reporting heatmap: order counts by (ISO weekday × priority) —
    the 7×5 pivot grid a dashboard renders; exact counts, domain-
    bounded shuffle, weekday from pure epoch-day arithmetic."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        isodow = (day + 3) % 7 + 1
        g = pd.DataFrame({"isodow": isodow,
                          "o_orderpriority":
                          t["o_orderpriority"].to_numpy(
                              zero_copy_only=False),
                          "pn": 1}) \
            .groupby(["isodow", "o_orderpriority"], sort=False) \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    o = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby(["isodow", "o_orderpriority"]).aggregate(
            Sum("pn", alias_name="n"))
    ).to_pandas().sort_values(["isodow", "o_orderpriority"]) \
        .reset_index(drop=True)
    return o.astype({"isodow": np.int64, "n": np.int64})


SQL_WEEKDAY_HEATMAP = """
SELECT (epoch_us(o_orderdate) // 86400000000 + 3) % 7 + 1 AS isodow,
       o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n
FROM orders GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_clustered_layout_audit(sf_dir: str):
    """Storage-layout QC: audit a ``write_clustered`` output from
    parquet FOOTERS only — per-file (min, max) key stats must be
    internally consistent and globally NON-OVERLAPPING in file order
    (the property range scans and merge readers rely on), and the file
    row counts must sum to the input row count.  Reuses the zonemap
    cache dir; zero data rows read.  Rows-only (the layout isn't
    SQL-visible); the invariants are also pytest-asserted."""
    import glob
    import os

    import pyarrow.parquet as pq_

    out = _ensure_clustered_orders(sf_dir)
    files = sorted(glob.glob(os.path.join(out, "part=*", "*.parquet")))
    mins, maxs, rows = [], [], 0
    for f in files:
        md = pq_.read_metadata(f)
        col = {md.schema.column(i).name: i
               for i in range(md.num_columns)}["day"]
        fmin, fmax = None, None
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(col).statistics
            fmin = st.min if fmin is None else min(fmin, st.min)
            fmax = st.max if fmax is None else max(fmax, st.max)
        mins.append(fmin)
        maxs.append(fmax)
        rows += md.num_rows
    # STRICT: write_clustered guarantees file i's keys < file i+1's —
    # a duplicated boundary key (two files must open for one point
    # lookup) is exactly the defect this audit exists to catch
    ordered = all(maxs[i] < mins[i + 1]
                  for i in range(len(files) - 1))
    total = sum(pq_.read_metadata(f).num_rows for f in sorted(
        glob.glob(os.path.join(sf_dir, "orders*.parquet"))))
    return pd.DataFrame([{
        "n_files": len(files),
        "globally_ordered": bool(ordered),
        "rows_match_input": bool(rows == total),
        "n_rows": rows}]).astype({"n_files": np.int64,
                                  "n_rows": np.int64})


def q_manifest_vacuum(sf_dir: str):
    """Snapshot expiration + orphan-file GC (`VACUUM`), the maintenance
    op that completes the lakehouse lifecycle next to time-travel,
    compaction and CDC reads: a versioned-manifest table is built with
    an early/late file pool, an ORPHAN file from an aborted write
    (present on disk, referenced by no manifest), and snapshots v1 ⊂
    v2; expiring v1 must delete the orphan and the v1 manifest while
    every file v2 references survives byte-identically — the safety
    invariant ``vacuum_manifests`` enforces.  The returned aggregate
    reads the POST-VACUUM v2 snapshot; the oracle aggregates the raw
    table, so a vacuum that touches a live file breaks the hash (and
    the accounting is pytest-asserted)."""
    import json
    import os
    import shutil
    import uuid

    import pyarrow.parquet as pq_
    from ray.data.aggregate import Sum
    from ...runtime.checkpoint import vacuum_manifests

    root = f"/tmp/prclz_ray_vacuum_{uuid.uuid4().hex}"
    os.makedirs(root)
    try:
        t = relational.ds_to_table(
            _read(sf_dir, "orders", ["o_orderkey", "o_orderdate",
                                     "o_totalprice"]))
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        lo, hi = int(day.min()), int(day.max())
        mid_day = lo + (hi - lo) // 2
        early = pa.array(day <= mid_day)
        pq_.write_table(t.filter(early),
                        os.path.join(root, "early.parquet"))
        pq_.write_table(t.filter(pc.invert(early)),
                        os.path.join(root, "late.parquet"))
        # aborted write: same rows as a prefix of early, never committed
        pq_.write_table(t.filter(early).slice(0, 10),
                        os.path.join(root, "orphan.parquet"))
        with open(os.path.join(root, "manifest-v1.json"), "w") as fh:
            json.dump({"files": ["early.parquet"]}, fh)
        with open(os.path.join(root, "manifest-v2.json"), "w") as fh:
            json.dump({"files": ["early.parquet", "late.parquet"]}, fh)

        acct = vacuum_manifests(root, retain_versions=[2])
        q_manifest_vacuum._last_vacuum = acct

        with open(os.path.join(root, "manifest-v2.json")) as fh:
            m = json.load(fh)
        ds = rd.read_parquet([os.path.join(root, f)
                              for f in m["files"]],
                             columns=["o_totalprice"])

        def partial(tt: pa.Table) -> pa.Table:
            cents = np.round(tt["o_totalprice"].to_numpy(
                zero_copy_only=False) * 100.0).astype(np.int64)
            return pa.table({"pn": pa.array([len(cents)]),
                             "pc_": pa.array([int(cents.sum())])})

        agg = ds.map_batches(partial, batch_format="pyarrow") \
            .aggregate(Sum("pn", alias_name="n"),
                       Sum("pc_", alias_name="c"))
        return pd.DataFrame([{"n": int(agg["n"]),
                              "revenue_c": int(agg["c"])}]) \
            .astype({"n": np.int64, "revenue_c": np.int64})
    finally:
        shutil.rmtree(root, ignore_errors=True)


SQL_MANIFEST_VACUUM = """
SELECT CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS BIGINT)
         AS revenue_c
FROM orders
"""


def q_rolling_median_7d(sf_dir: str):
    """Rolling 7-row exact MEDIAN of daily order revenue — the robust
    sibling of the rolling-mean anomaly window (a holistic window
    aggregate: no decomposable partial exists, which is why engines
    special-case it).  The distributed part is the shared exact-cents
    daily reduce; the finish is days-bounded.  Odd windows pick the
    middle element exactly; the first six (shorter, even) windows
    average two int cents — a .5-exact float both here and in the SQL
    twin's interpolation, so the hash compares raw doubles safely."""
    d = _daily_revenue_cents(sf_dir)
    med = d["rev"].astype(np.float64).rolling(7, min_periods=1) \
        .median()
    return pd.DataFrame({"day": d["day"].to_numpy(np.int64),
                         "med7": med.to_numpy(np.float64)})


SQL_ROLLING_MEDIAN = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1)
SELECT day,
       CAST(MEDIAN(rev) OVER (ORDER BY day
            ROWS BETWEEN 6 PRECEDING AND CURRENT ROW) AS DOUBLE)
         AS med7
FROM d ORDER BY day
"""


def q_holt_forecast_revenue(sf_dir: str):
    """Holt double exponential smoothing (level + trend) over the
    daily revenue series, α = β = 0.5, h = 1..7 forecasts.  The
    distributed part is the shared exact-cents daily reduce; the
    recursion is DAYS-bounded and runs on the driver in EXACTLY the
    float order the SQL twin's recursive CTE uses (level first, then
    trend from the new level), so both sides are bit-identical before
    the 4dp round.  Missing calendar days are skipped (the recursion
    steps over observed days in order, like the CTE's rn + 1 join)."""
    d = _daily_revenue_cents(sf_dir)
    rev = d["rev"].to_numpy(np.int64)
    lvl = float(rev[0])
    trd = 0.0
    for y in rev[1:]:
        new_lvl = 0.5 * float(y) + 0.5 * (lvl + trd)
        trd = 0.5 * (new_lvl - lvl) + 0.5 * trd
        lvl = new_lvl
    rows = [{"h": h, "forecast": np.round(lvl + h * trd, 4)}
            for h in range(1, 8)]
    return pd.DataFrame(rows).astype({"h": np.int64})


SQL_HOLT_FORECAST = """
WITH RECURSIVE
d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
             CAST(SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                  AS DOUBLE) AS rev
      FROM orders GROUP BY 1),
s AS (SELECT rev, ROW_NUMBER() OVER (ORDER BY day) AS rn FROM d),
n AS (SELECT MAX(rn) AS n FROM s),
rec(rn, lvl, trd) AS (
  SELECT CAST(1 AS BIGINT), (SELECT rev FROM s WHERE rn = 1),
         CAST(0.0 AS DOUBLE)
  UNION ALL
  SELECT r.rn + 1,
         0.5 * s.rev + 0.5 * (r.lvl + r.trd),
         0.5 * ((0.5 * s.rev + 0.5 * (r.lvl + r.trd)) - r.lvl)
           + 0.5 * r.trd
  FROM rec r JOIN s ON s.rn = r.rn + 1),
fin AS (SELECT lvl, trd FROM rec, n WHERE rn = n.n)
SELECT CAST(h AS BIGINT) AS h, ROUND(lvl + h * trd, 4) AS forecast
FROM fin, unnest(generate_series(1, 7)) AS t(h)
ORDER BY h
"""


def q_range_rebalance_layout(sf_dir: str):
    """Equi-COUNT layout rebalance (the OPTIMIZE half zone maps rely
    on): orders' day key is skewed across the calendar, so a UNIFORM
    [min, max] range split gives lopsided files; this op derives 7
    exact-quantile cut points (the integer 8·cum ≥ k·N rule on the
    days-bounded day histogram — no sort, no sampling) and rewrites
    through ``write_clustered(boundaries=...)``, preserving global
    file order.  Returned per-range row counts come from the WRITTEN
    FILES' footers, so the oracle (same quantile rule in SQL) checks
    the actual layout, and pytest pins the balance improvement vs the
    uniform split."""
    import glob
    import os

    import pyarrow.parquet as pq_
    from ray.data.aggregate import Sum
    from ...runtime.checkpoint import write_clustered

    N_RANGES = 8

    def add_day(t: pa.Table) -> pa.Table:
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        return pa.table({"day": pa.array(day),
                         "o_totalprice": t["o_totalprice"]})

    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"]) \
        .map_batches(add_day, batch_format="pyarrow")

    def day_counts(t: pa.Table) -> pa.Table:
        u, n = np.unique(t["day"].to_numpy(), return_counts=True)
        return pa.table({"day": pa.array(u),
                         "pn": pa.array(n.astype(np.int64))})

    hist = relational.ds_to_table(
        orders.map_batches(day_counts, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("pn", alias_name="n"))
    ).to_pandas().sort_values("day")
    days = hist["day"].to_numpy(np.int64)
    cum = np.cumsum(hist["n"].to_numpy(np.int64))
    N = int(cum[-1])
    bnds = [int(days[np.searchsorted(cum, -(-k * N // N_RANGES))])
            for k in range(1, N_RANGES)]

    out = _fingerprint_cache_dir(sf_dir, "orders", "rebalance")

    def build(tmp: str) -> None:
        write_clustered(orders, tmp, key_col="day",
                        boundaries=bnds)

    publish_dir(out, build)

    files = sorted(glob.glob(os.path.join(out, "part=*",
                                          "*.parquet")))
    # range_id from the committed range LABEL (part=000k), not the
    # file enumeration — duplicate quantile boundaries leave a range
    # empty, and the SQL twin skips that id too
    rows = [{"range_id": int(os.path.basename(
                 os.path.dirname(f)).split("=")[1]),
             "n_rows": pq_.read_metadata(f).num_rows}
            for f in files]
    q_range_rebalance_layout._last_boundaries = bnds
    return pd.DataFrame(rows).astype({"range_id": np.int64,
                                      "n_rows": np.int64})


SQL_RANGE_REBALANCE = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day
           FROM orders),
h AS (SELECT day, COUNT(*) AS n FROM d GROUP BY 1),
c AS (SELECT day, SUM(n) OVER (ORDER BY day) AS cum,
             (SELECT SUM(n) FROM h) AS tot
      FROM h),
b AS (SELECT k, MIN(day) AS bday
      FROM c, unnest(generate_series(1, 7)) AS t(k)
      WHERE 8 * cum >= k * tot GROUP BY k)
SELECT CAST((SELECT COUNT(*) FROM b WHERE b.bday < d.day) AS BIGINT)
         AS range_id,
       CAST(COUNT(*) AS BIGINT) AS n_rows
FROM d GROUP BY 1 ORDER BY 1
"""


def q_paginate_orders_page6(sf_dir: str):
    """Deep pagination WITHOUT a global sort: rows 101–120 of orders by
    (revenue DESC, orderkey ASC).  The composite order packs into one
    int64 (``pack_desc_rank_key``); a coarse 4096-bucket histogram of
    the packed key locates which buckets hold global ranks 101–120
    (buckets-bounded driver state), ONLY those buckets' rows are
    re-read and locally sorted, and the page is sliced at its exact
    offset — the OFFSET/LIMIT the oracle runs, at a scan cost of
    page-covering buckets instead of a full shuffle."""
    from ray.data.aggregate import Sum
    from ...stages.relational import pack_desc_rank_key

    LO_RANK, HI_RANK = 100, 120          # half-open [100, 120)
    SHIFT = 52                           # 4096 coarse buckets

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def packed(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        key = pack_desc_rank_key(cents, 1 << 30, k)
        return pa.table({"key": pa.array(key),
                         "o_orderkey": pa.array(k),
                         "cents": pa.array(cents)})

    ds = orders.map_batches(packed, batch_format="pyarrow")

    def bucket_hist(t: pa.Table) -> pa.Table:
        b = t["key"].to_numpy() >> SHIFT
        u, n = np.unique(b, return_counts=True)
        return pa.table({"b": pa.array(u),
                         "pn": pa.array(n.astype(np.int64))})

    hist = relational.ds_to_table(
        ds.map_batches(bucket_hist, batch_format="pyarrow")
        .groupby("b").aggregate(Sum("pn", alias_name="n"))
    ).to_pandas().sort_values("b")
    cum = np.cumsum(hist["n"].to_numpy(np.int64))
    before = np.concatenate(([0], cum[:-1]))
    need = (cum > LO_RANK) & (before < HI_RANK)
    want_b = hist["b"].to_numpy(np.int64)[need]
    offset_before = int(before[need][0]) if need.any() else 0
    q_paginate_orders_page6._last_scan = (len(hist), int(need.sum()))

    def keep(t: pa.Table) -> pa.Table:
        b = t["key"].to_numpy() >> SHIFT
        return t.filter(pa.array(np.isin(b, want_b)))

    cand = relational.ds_to_table(
        ds.map_batches(keep, batch_format="pyarrow")).to_pandas() \
        .sort_values("key").reset_index(drop=True)
    page = cand.iloc[LO_RANK - offset_before:
                     HI_RANK - offset_before]
    return pd.DataFrame({
        "rank": np.arange(LO_RANK + 1, LO_RANK + 1 + len(page),
                          dtype=np.int64),
        "o_orderkey": page["o_orderkey"].to_numpy(np.int64),
        "cents": page["cents"].to_numpy(np.int64)})


SQL_PAGINATE = """
SELECT CAST(100 + ROW_NUMBER() OVER (ORDER BY cents DESC, o_orderkey)
            AS BIGINT) AS rank,
       o_orderkey, cents
FROM (SELECT o_orderkey,
             CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
      FROM orders
      ORDER BY cents DESC, o_orderkey LIMIT 20 OFFSET 100)
"""


def q_changepoint_daily_revenue(sf_dir: str):
    """Single changepoint detection (binary segmentation, first split):
    the day index that maximizes the between-segment sum of squares
    B(k) = S²ₗ/k + S²ᵣ/(n−k) over the observed daily-revenue sequence —
    equivalent to minimizing total SSE, no variance computed anywhere.
    The distributed part is the shared daily-cents reduce; the argmax
    runs on the DAYS-bounded prefix sums with arbitrary-precision
    squares (S² overflows int64 past ~sf0.1) and the exact float
    expression the twin uses; float ties break to the earliest day on
    both sides."""
    d = _daily_revenue_cents(sf_dir)
    rev = [int(v) for v in d["rev"].to_numpy(np.int64)]
    days = d["day"].to_numpy(np.int64)
    n = len(rev)
    total = sum(rev)
    best = None
    cum = 0
    for k in range(1, n):                 # split after position k
        cum += rev[k - 1]
        b = float(cum * cum) / k \
            + float((total - cum) * (total - cum)) / (n - k)
        if best is None or b > best[0]:
            best = (b, k, cum)
    _, k, sl = best
    return pd.DataFrame([{
        "split_day": int(days[k]),        # first day of the RIGHT part
        "n_left": k, "n_right": n - k,
        "mean_left": np.round(float(sl) / k, 4),
        "mean_right": np.round(float(total - sl) / (n - k), 4)}]) \
        .astype({"split_day": np.int64, "n_left": np.int64,
                 "n_right": np.int64})


SQL_CHANGEPOINT = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
s AS (SELECT day, rev,
             ROW_NUMBER() OVER (ORDER BY day) AS rn,
             SUM(rev) OVER (ORDER BY day) AS cum,
             (SELECT SUM(rev) FROM d) AS tot,
             (SELECT COUNT(*) FROM d) AS n
      FROM d),
b AS (SELECT LEAD(day) OVER (ORDER BY day) AS split_day,
             rn AS k, cum, tot, n,
             CAST(cum * cum AS DOUBLE) / rn
             + CAST((tot - cum) * (tot - cum) AS DOUBLE) / (n - rn)
               AS bss
      FROM s QUALIFY rn < n)
SELECT split_day,
       CAST(k AS BIGINT) AS n_left, CAST(n - k AS BIGINT) AS n_right,
       ROUND(CAST(cum AS DOUBLE) / k, 4) AS mean_left,
       ROUND(CAST(tot - cum AS DOUBLE) / (n - k), 4) AS mean_right
FROM b ORDER BY bss DESC, k LIMIT 1
"""


def q_theilsen_slope_revenue(sf_dir: str):
    """Theil–Sen robust trend estimator over daily revenue: the MEDIAN
    of all pairwise slopes (rⱼ−rᵢ)/(dⱼ−dᵢ) — outlier days cannot move
    it, unlike the OLS slope.  The distributed part is the shared
    daily-cents reduce; the O(days²) pair enumeration is DAYS-bounded
    by construction (~3M float slopes per decade of data — driver-
    trivial), matching the twin's inequality self-join + MEDIAN."""
    d = _daily_revenue_cents(sf_dir)
    rev = d["rev"].to_numpy(np.float64)
    day = d["day"].to_numpy(np.int64)
    i, j = np.triu_indices(len(rev), k=1)
    slopes = (rev[j] - rev[i]) / (day[j] - day[i])
    return pd.DataFrame([{
        "n_pairs": len(slopes),
        "slope": np.round(float(np.median(slopes)), 6)}]) \
        .astype({"n_pairs": np.int64})


SQL_THEILSEN = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  CAST(SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                       AS DOUBLE) AS rev
           FROM orders GROUP BY 1)
SELECT CAST(COUNT(*) AS BIGINT) AS n_pairs,
       ROUND(MEDIAN((b.rev - a.rev) / (b.day - a.day)), 6) AS slope
FROM d a JOIN d b ON a.day < b.day
"""


def q_partition_evolution_read(sf_dir: str):
    """Partition-SPEC evolution (Iceberg's headline feature next to
    schema evolution): early files were laid out by MONTH, the spec
    later evolved to DAY, and a correct reader must scan BOTH
    generations through the manifest's per-file spec — without
    rewriting the old files.  The layout is built once (fingerprint-
    cached); the read reconstructs the partition column per file from
    its path under the spec the manifest records, prunes by predicate
    under EACH spec (whole months vs single days), and aggregates.
    The oracle runs the same predicate on the raw table."""
    import glob
    import json
    import os

    import pyarrow.parquet as pq_
    from ray.data.aggregate import Sum

    out = _fingerprint_cache_dir(sf_dir, "orders", "specevo")

    def build(tmp: str) -> None:
        t = relational.ds_to_table(
            _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"]))
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        month = day // 31                  # deterministic month-ish
        lo, hi = int(day.min()), int(day.max())
        mid = lo + (hi - lo) // 2          # spec evolves here
        manifest = []
        early = day <= mid
        for m in np.unique(month[early]):
            sel = early & (month == m)
            f = f"month={int(m)}.parquet"
            pq_.write_table(t.filter(pa.array(sel)),
                            os.path.join(tmp, f))
            manifest.append({"file": f, "spec": "month",
                             "value": int(m)})
        for d_ in np.unique(day[~early]):
            sel = (~early) & (day == d_)
            f = f"day={int(d_)}.parquet"
            pq_.write_table(t.filter(pa.array(sel)),
                            os.path.join(tmp, f))
            manifest.append({"file": f, "spec": "day",
                             "value": int(d_)})
        with open(os.path.join(tmp, "manifest.json"), "w") as fh:
            json.dump({"files": manifest, "mid": mid}, fh)

    publish_dir(out, build)

    with open(os.path.join(out, "manifest.json")) as fh:
        man = json.load(fh)
    # predicate: day in [mid - 200, mid + 200] — spans BOTH specs
    mid = man["mid"]
    lo_p, hi_p = mid - 200, mid + 200
    keep = []
    for e in man["files"]:
        if e["spec"] == "day":
            ok = lo_p <= e["value"] <= hi_p
        else:                              # month spec: keep if the
            m = e["value"]                 # month RANGE overlaps
            ok = m * 31 <= hi_p and (m + 1) * 31 - 1 >= lo_p
        if ok:
            keep.append(os.path.join(out, e["file"]))
    q_partition_evolution_read._last_prune = (len(man["files"]),
                                              len(keep))
    part = rd.read_parquet(keep)

    def agg(t: pa.Table) -> pa.Table:
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        m = (day >= lo_p) & (day <= hi_p)
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False)[m] * 100.0).astype(np.int64)
        return pa.table({"pn": pa.array([int(m.sum())]),
                         "pc_": pa.array([int(cents.sum())])})

    a = part.map_batches(agg, batch_format="pyarrow") \
        .aggregate(Sum("pn", alias_name="n"),
                   Sum("pc_", alias_name="c"))
    return pd.DataFrame([{"n": int(a["n"]),
                          "revenue_c": int(a["c"])}]).astype(np.int64)


SQL_SPEC_EVOLUTION = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  CAST(ROUND(o_totalprice * 100) AS HUGEINT) AS c
           FROM orders),
b AS (SELECT MIN(day) + (MAX(day) - MIN(day)) // 2 AS mid FROM d)
SELECT CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(c) AS BIGINT) AS revenue_c
FROM d, b WHERE day BETWEEN b.mid - 200 AND b.mid + 200
"""


def q_bucketed_layout_scan(sf_dir: str):
    """Hash-BUCKETED layout point lookup — the third physical layout
    next to value partitioning (hive) and range clustering (zone
    maps): orders are written into 16 files by a mirrorable hash of
    o_custkey, so an equality probe computes its bucket and opens
    EXACTLY ONE file, no statistics or sidecar needed.  The probe key
    is the same deterministic upper-half-min rule as the Bloom scan;
    the oracle runs the raw predicate."""
    import glob
    import os

    import pyarrow.parquet as pq_
    from ray.data.aggregate import Max, Min

    N_BUCKETS = 16

    def bucket_of(k: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            h = (k.astype(np.uint64) + np.uint64(1)) \
                * np.uint64(11400714819323198485)
        return (h % np.uint64(N_BUCKETS)).astype(np.int64)

    out = _fingerprint_cache_dir(sf_dir, "orders", "hashbucket")

    def build(tmp: str) -> None:
        t = relational.ds_to_table(
            _read(sf_dir, "orders",
                  ["o_orderkey", "o_custkey", "o_totalprice"]))
        b = bucket_of(t["o_custkey"].to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        for bb in range(N_BUCKETS):
            pq_.write_table(t.filter(pa.array(b == bb)),
                            os.path.join(tmp, f"bucket={bb}.parquet"))

    publish_dir(out, build)

    cust = _read(sf_dir, "orders", ["o_custkey"])
    lohi = cust.aggregate(Min("o_custkey", alias_name="lo"),
                          Max("o_custkey", alias_name="hi"))
    mid = (int(lohi["lo"]) + int(lohi["hi"])) // 2
    probe = int(cust.map_batches(
        lambda t: t.filter(pc.greater_equal(t["o_custkey"], mid)),
        batch_format="pyarrow")
        .aggregate(Min("o_custkey", alias_name="k"))["k"])
    bb = int(bucket_of(np.array([probe], dtype=np.int64))[0])
    q_bucketed_layout_scan._last_scan = (N_BUCKETS, 1)
    part = rd.read_parquet([os.path.join(out,
                                         f"bucket={bb}.parquet")])
    hit = relational.ds_to_table(part.map_batches(
        lambda t: t.filter(pc.equal(t["o_custkey"], probe)),
        batch_format="pyarrow")).to_pandas()
    cents = np.round(hit["o_totalprice"].to_numpy(np.float64)
                     * 100.0).astype(np.int64)
    res = pd.DataFrame({"o_orderkey": hit["o_orderkey"]
                        .to_numpy(np.int64), "cents": cents}) \
        .sort_values("o_orderkey").reset_index(drop=True)
    return res.astype({"o_orderkey": np.int64, "cents": np.int64})


SQL_BUCKETED_SCAN = """
WITH b AS (SELECT (MIN(o_custkey) + MAX(o_custkey)) // 2 AS mid
           FROM orders),
p AS (SELECT MIN(o_custkey) AS k FROM orders, b
      WHERE o_custkey >= b.mid)
SELECT o_orderkey,
       CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
FROM orders, p WHERE o_custkey = p.k
ORDER BY o_orderkey
"""


def q_analyze_column_stats(sf_dir: str):
    """ANALYZE — the statistics-refresh maintenance op a cost-based
    planner feeds on: per column of orders, the EXACT distinct count
    (per-batch distinct → one hash groupby per column, values
    themselves shuffle — no hash-collision undercount) and the null
    count (one folded scan pass for all columns).  Column-bounded
    output; the twin is a UNION ALL of COUNT(DISTINCT)s."""
    from ray.data.aggregate import Sum

    cols = ["o_orderkey", "o_custkey", "o_orderstatus",
            "o_totalprice", "o_orderdate"]
    orders = _read(sf_dir, "orders", cols)

    def null_partial(t: pa.Table) -> pa.Table:
        return pa.table({f"n_{c}": pa.array([t[c].null_count])
                         for c in cols})

    nulls = orders.map_batches(null_partial, batch_format="pyarrow") \
        .aggregate(*[Sum(f"n_{c}", alias_name=f"n_{c}")
                     for c in cols])

    rows = []
    for c in cols:
        def distinct_partial(t: pa.Table, _c=c) -> pa.Table:
            # COUNT(DISTINCT) semantics: NULL is not a value
            return pa.table({_c: pc.drop_null(pc.unique(t[_c]))})

        nd = orders.map_batches(distinct_partial,
                                batch_format="pyarrow") \
            .groupby(c).count().count()
        rows.append({"column": c, "n_distinct": int(nd),
                     "n_nulls": int(nulls[f"n_{c}"])})
    return pd.DataFrame(rows).sort_values("column") \
        .reset_index(drop=True).astype({"n_distinct": np.int64,
                                        "n_nulls": np.int64})


SQL_ANALYZE = """
SELECT * FROM (
  SELECT 'o_orderkey' AS "column",
         CAST(COUNT(DISTINCT o_orderkey) AS BIGINT) AS n_distinct,
         CAST(COUNT(*) FILTER (o_orderkey IS NULL) AS BIGINT)
           AS n_nulls FROM orders
  UNION ALL
  SELECT 'o_custkey', COUNT(DISTINCT o_custkey),
         COUNT(*) FILTER (o_custkey IS NULL) FROM orders
  UNION ALL
  SELECT 'o_orderstatus', COUNT(DISTINCT o_orderstatus),
         COUNT(*) FILTER (o_orderstatus IS NULL) FROM orders
  UNION ALL
  SELECT 'o_totalprice', COUNT(DISTINCT o_totalprice),
         COUNT(*) FILTER (o_totalprice IS NULL) FROM orders
  UNION ALL
  SELECT 'o_orderdate', COUNT(DISTINCT o_orderdate),
         COUNT(*) FILTER (o_orderdate IS NULL) FROM orders)
ORDER BY "column"
"""


def q_dict_encode_priority(sf_dir: str):
    """Order-preserving global dictionary encoding (the narrow-int
    column trick every shuffle-heavy engine applies to low-cardinality
    strings): the distinct o_orderpriority values reduce to a bounded
    sorted dictionary, codes are assigned in VALUE order (so
    code order == value order and range predicates survive encoding),
    and one broadcast-searchsorted pass encodes the column.  Output
    proves the property: (code, value, n) with codes dense from 0 in
    value order — the twin's DENSE_RANK − 1."""
    from ray.data.aggregate import Sum

    orders = _read(sf_dir, "orders", ["o_orderpriority"])

    def partial(t: pa.Table) -> pa.Table:
        u, n = np.unique(t["o_orderpriority"].to_numpy(
            zero_copy_only=False), return_counts=True)
        return pa.table({"value": pa.array(u),
                         "pn": pa.array(n.astype(np.int64))})

    counts = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("value").aggregate(Sum("pn", alias_name="n"))
    ).to_pandas().sort_values("value").reset_index(drop=True)
    dict_vals = counts["value"].to_numpy()
    dv_ref = ray.put(dict_vals)

    # the encode pass itself (what a real pipeline would fuse into its
    # shuffle write) — verified here by re-counting per CODE
    def encode(t: pa.Table) -> pa.Table:
        dv = ray.get(dv_ref)
        codes = np.searchsorted(dv, t["o_orderpriority"].to_numpy(
            zero_copy_only=False)).astype(np.int8)
        u, n = np.unique(codes, return_counts=True)
        return pa.table({"code": pa.array(u.astype(np.int64)),
                         "pn": pa.array(n.astype(np.int64))})

    by_code = relational.ds_to_table(
        orders.map_batches(encode, batch_format="pyarrow")
        .groupby("code").aggregate(Sum("pn", alias_name="n"))
    ).to_pandas().sort_values("code").reset_index(drop=True)
    out = pd.DataFrame({
        "code": by_code["code"].to_numpy(np.int64),
        "value": dict_vals[by_code["code"].to_numpy(np.int64)],
        "n": by_code["n"].to_numpy(np.int64)})
    return out.astype({"code": np.int64, "n": np.int64})


SQL_DICT_ENCODE = """
WITH c AS (SELECT o_orderpriority AS value, COUNT(*) AS n
           FROM orders GROUP BY 1)
SELECT CAST(DENSE_RANK() OVER (ORDER BY value) - 1 AS BIGINT)
         AS code,
       value, CAST(n AS BIGINT) AS n
FROM c ORDER BY code
"""


def q_mase_seasonal_naive(sf_dir: str):
    """Forecast-quality metric: MASE of the 7-day seasonal-naive
    forecast on the gap-filled daily revenue series — the scale-free
    standard for judging any forecaster (a MASE < 1 beats the naive
    baseline).  Absolute-difference sums stay exact ints on the
    days-bounded series; one mirrored float ratio at the end."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    series = np.zeros(hi - lo + 1, dtype=np.int64)
    series[days - lo] = d["rev"].to_numpy(np.int64)
    s7 = int(np.abs(series[7:] - series[:-7]).sum())
    s1 = int(np.abs(series[1:] - series[:-1]).sum())
    n7, n1 = len(series) - 7, len(series) - 1
    mase = (float(s7) / n7) / (float(s1) / n1)
    return pd.DataFrame([{
        "n_days": len(series), "sum_abs7": s7, "sum_abs1": s1,
        "mase": np.round(mase, 6)}]) \
        .astype({"n_days": np.int64, "sum_abs7": np.int64,
                 "sum_abs1": np.int64})


SQL_MASE = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
b AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT unnest(generate_series(b.lo, b.hi)) AS day FROM b),
f AS (SELECT cal.day, COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d USING (day)),
l AS (SELECT rev,
             LAG(rev, 7) OVER (ORDER BY day) AS r7,
             LAG(rev, 1) OVER (ORDER BY day) AS r1
      FROM f),
s AS (SELECT CAST((SELECT COUNT(*) FROM f) AS BIGINT) AS n_days,
             CAST(SUM(ABS(rev - r7)) FILTER (r7 IS NOT NULL)
                  AS BIGINT) AS sum_abs7,
             CAST(SUM(ABS(rev - r1)) FILTER (r1 IS NOT NULL)
                  AS BIGINT) AS sum_abs1
      FROM l)
SELECT n_days, sum_abs7, sum_abs1,
       ROUND((CAST(sum_abs7 AS DOUBLE) / (n_days - 7))
             / (CAST(sum_abs1 AS DOUBLE) / (n_days - 1)), 6) AS mase
FROM s
"""


def q_median_ci_orderstats(sf_dir: str):
    """Distribution-free 95 % confidence interval for the MEDIAN via
    order statistics (the nonparametric textbook bound — no normality
    assumed anywhere): ranks come from the mirrored
    (n ± 1.96·√n)/2 formula, and the k-th order statistics are
    selected WITHOUT a global sort from the distributed value
    distribution (sorted distinct cents + cumulative counts, the same
    shape every exact-quantile op here uses).  The twin selects by
    ORDER BY … OFFSET."""
    import math
    from ray.data.aggregate import Sum

    orders = _read(sf_dir, "orders", ["o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        u, n = np.unique(cents, return_counts=True)
        return pa.table({"v": pa.array(u),
                         "pn": pa.array(n.astype(np.int64))})

    dist = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("v").aggregate(Sum("pn", alias_name="n"))
    ).to_pandas().sort_values("v").reset_index(drop=True)
    vals = dist["v"].to_numpy(np.int64)
    cum = np.cumsum(dist["n"].to_numpy(np.int64))
    n = int(cum[-1])

    lo_k = max(1, int(math.floor((n - 1.96 * math.sqrt(n)) / 2.0)))
    hi_k = min(n, int(math.ceil((n + 2 + 1.96 * math.sqrt(n))
                                / 2.0)))
    med_k = (n + 1) // 2

    def kth(k: int) -> int:                 # 1-indexed order stat
        return int(vals[np.searchsorted(cum, k)])

    return pd.DataFrame([{
        "n": n, "lo_cents": kth(lo_k), "median_cents": kth(med_k),
        "hi_cents": kth(hi_k)}]).astype(np.int64)


SQL_MEDIAN_CI = """
WITH c AS (SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT) AS v
           FROM orders),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM c),
k AS (SELECT n,
             GREATEST(1, CAST(FLOOR((n - 1.96 * SQRT(n)) / 2.0)
                              AS BIGINT)) AS lo_k,
             LEAST(n, CAST(CEIL((n + 2 + 1.96 * SQRT(n)) / 2.0)
                           AS BIGINT)) AS hi_k,
             (n + 1) // 2 AS med_k
      FROM n),
ranked AS (SELECT v, ROW_NUMBER() OVER (ORDER BY v) AS rn FROM c)
SELECT k.n,
       MAX(CASE WHEN rn = k.lo_k THEN v END) AS lo_cents,
       MAX(CASE WHEN rn = k.med_k THEN v END) AS median_cents,
       MAX(CASE WHEN rn = k.hi_k THEN v END) AS hi_cents
FROM ranked, k GROUP BY k.n
"""


def q_seasonal_decompose_revenue(sf_dir: str):
    """Classical additive seasonal decomposition of daily revenue:
    trend = centered 7-day moving sum on the GAP-FILLED calendar,
    seasonal(dow) = mean detrended value per ISO weekday over interior
    days (full windows only).  Mean of (x − s7/7) is evaluated as the
    integer identity Σ(7x − s7) / (7·count) — exact cents arithmetic
    end to end, ONE mirrored division per weekday row.  Distributed
    part: the shared daily-cents reduce; the finish is days-bounded."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    dense = np.zeros(hi - lo + 1, dtype=np.int64)
    dense[days - lo] = d["rev"].to_numpy(np.int64)
    n = len(dense)
    out_rows = []
    if n >= 7:
        csum = np.concatenate([[0], np.cumsum(dense)])
        s7 = csum[7:] - csum[:-7]          # window [i-3, i+3] at i+3
        centers = np.arange(3, n - 3)
        dt = 7 * dense[centers] - s7       # 7x − Σwindow, exact ints
        isodow = ((centers + lo) + 3) % 7 + 1
        for dow in range(1, 8):
            m = isodow == dow
            if not m.any():
                continue
            num = int(sum(int(v) for v in dt[m]))
            cnt = int(m.sum())
            out_rows.append({
                "isodow": dow, "n_days": cnt,
                "seasonal": np.round(float(num) / (7.0 * cnt), 4)})
    return pd.DataFrame(out_rows).astype({"isodow": np.int64,
                                          "n_days": np.int64})


SQL_SEASONAL = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
b AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT unnest(generate_series(b.lo, b.hi)) AS day FROM b),
f AS (SELECT cal.day, COALESCE(d.rev, 0) AS x
      FROM cal LEFT JOIN d USING (day)),
w AS (SELECT day, x,
             SUM(x) OVER (ORDER BY day
                          ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING)
               AS s7,
             COUNT(*) OVER (ORDER BY day
                            ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING)
               AS c7
      FROM f),
det AS (SELECT (day + 3) % 7 + 1 AS isodow, 7 * x - s7 AS dt
        FROM w WHERE c7 = 7)
SELECT isodow, CAST(COUNT(*) AS BIGINT) AS n_days,
       ROUND(CAST(SUM(dt) AS DOUBLE) / (7.0 * COUNT(*)), 4)
         AS seasonal
FROM det GROUP BY 1 ORDER BY 1
"""


def q_dow_adjusted_anomalies(sf_dir: str):
    """Seasonally-adjusted anomaly counts: a day is anomalous when its
    revenue deviates from ITS WEEKDAY's mean by more than 3 weekday
    standard deviations — the adjustment that stops every Sunday from
    tripping a naive 3σ rule.  The test is the exact-integer
    inequality (n·x − S)² > 9·(n·SS − S²) per weekday (S, SS the
    weekday's cents sums — arbitrary-precision ints, S² overflows
    int64 past ~sf0.1), so no float variance can diverge from the
    twin.  Distributed part: the shared daily reduce; the finish is
    days-bounded."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    dense = np.zeros(hi - lo + 1, dtype=np.int64)
    dense[days - lo] = d["rev"].to_numpy(np.int64)
    isodow = ((np.arange(lo, hi + 1)) + 3) % 7 + 1
    rows = []
    for w in range(1, 8):
        xs = [int(v) for v in dense[isodow == w]]
        n = len(xs)
        if n == 0:
            continue
        S = sum(xs)
        SS = sum(x * x for x in xs)
        n_anom = sum(1 for x in xs
                     if (n * x - S) ** 2 > 9 * (n * SS - S * S))
        rows.append({"isodow": w, "n_days": n,
                     "n_anomalies": n_anom})
    return pd.DataFrame(rows).astype({"isodow": np.int64,
                                      "n_days": np.int64,
                                      "n_anomalies": np.int64})


SQL_DOW_ANOMALIES = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
b AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT unnest(generate_series(b.lo, b.hi)) AS day FROM b),
f AS (SELECT cal.day, (cal.day + 3) % 7 + 1 AS isodow,
             COALESCE(d.rev, 0) AS x
      FROM cal LEFT JOIN d USING (day)),
m AS (SELECT isodow, COUNT(*) AS n, SUM(x) AS s, SUM(x * x) AS ss
      FROM f GROUP BY 1)
SELECT m.isodow, CAST(m.n AS BIGINT) AS n_days,
       CAST(SUM(CASE WHEN (m.n * f.x - m.s) * (m.n * f.x - m.s)
                          > 9 * (m.n * m.ss - m.s * m.s)
                THEN 1 ELSE 0 END) AS BIGINT) AS n_anomalies
FROM f JOIN m ON f.isodow = m.isodow
GROUP BY 1, 2 ORDER BY 1
"""


def q_revenue_recognition_daily(sf_dir: str):
    """Subscription revenue recognition: each order's cents spread
    over a (o_orderkey % 14 + 1)-day term starting at o_orderdate,
    integer-exactly — base quota cents//span per day, the remainder
    cents%span allocated +1 to the EARLIEST days (largest-remainder).
    NEVER an order×day explode: the allocation decomposes into TWO
    ±delta sweeps (quota ±q at the term edges, remainder ±1 over the
    first r days), so each order emits ≤4 delta rows regardless of
    term length and the running totals finish on the days-bounded
    change table.  Output = the step function at its change days."""
    from ray.data.aggregate import Sum

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_totalprice", "o_orderdate"])

    def deltas(t: pa.Table) -> pa.Table:
        okey = t["o_orderkey"].to_numpy(zero_copy_only=False)
        span = okey % 14 + 1
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        d0 = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64)
        q, r = cents // span, cents % span
        rm = r > 0
        day = np.concatenate([d0, d0 + span, d0[rm], (d0 + r)[rm]])
        dc = np.concatenate([q, -q, np.ones(rm.sum(), np.int64),
                             -np.ones(rm.sum(), np.int64)])
        dn = np.concatenate([np.ones(len(d0), np.int64),
                             -np.ones(len(d0), np.int64),
                             np.zeros(rm.sum(), np.int64),
                             np.zeros(rm.sum(), np.int64)])
        g = pd.DataFrame({"day": day, "dc": dc, "dn": dn}) \
            .groupby("day", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    red = relational.ds_to_table(
        orders.map_batches(deltas, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("dc", alias_name="dc"),
                                  Sum("dn", alias_name="dn"))
    ).to_pandas().sort_values("day").reset_index(drop=True)
    return pd.DataFrame({
        "day": red["day"].to_numpy(dtype=np.int64)
        .astype("datetime64[D]").astype("datetime64[us]"),
        "cents_per_day": red["dc"].cumsum().to_numpy(dtype=np.int64),
        "n_active": red["dn"].cumsum().to_numpy(dtype=np.int64)})


SQL_REVENUE_RECOGNITION = """
WITH o AS (SELECT o_orderkey % 14 + 1 AS span,
                  CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents,
                  CAST(o_orderdate AS DATE) AS d0
           FROM orders),
p AS (SELECT d0, CAST(span AS INT) AS span,
             cents // span AS q, cents % span AS r FROM o),
dl AS (
  SELECT d0 AS day, q AS dc, 1 AS dn FROM p
  UNION ALL SELECT d0 + span, -q, -1 FROM p
  UNION ALL SELECT d0, 1, 0 FROM p WHERE r > 0
  UNION ALL SELECT d0 + CAST(r AS INT), -1, 0 FROM p WHERE r > 0),
g AS (SELECT day, SUM(dc) AS dc, SUM(dn) AS dn FROM dl GROUP BY 1)
SELECT CAST(day AS TIMESTAMP) AS day,
       CAST(SUM(dc) OVER (ORDER BY day ROWS UNBOUNDED PRECEDING)
            AS BIGINT) AS cents_per_day,
       CAST(SUM(dn) OVER (ORDER BY day ROWS UNBOUNDED PRECEDING)
            AS BIGINT) AS n_active
FROM g ORDER BY day
"""


def q_seasonal_residual_outliers(sf_dir: str):
    """Seasonality-aware anomaly detection — the production composite
    of the decompose + robust-spread kernels: daily revenue is
    detrended (7-day centered window) and deseasonalized (per-weekday
    mean), then each weekday's residuals are screened with the MAD
    rule dev > 3·1.4826·MAD.  Within a weekday every residual shares
    the denominator 7·cnt, so median/MAD/deviation all evaluate on the
    EXACT integer dt·cnt − num (medians are selections, not sums — no
    float-order hazard); the reported resid is the one mirrored
    division.  Weekdays with MAD = 0 are skipped (the degenerate-MAD
    guard every robust detector needs)."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    dense = np.zeros(hi - lo + 1, dtype=np.int64)
    dense[days - lo] = d["rev"].to_numpy(np.int64)
    n = len(dense)
    rows = []
    if n >= 7:
        csum = np.concatenate([[0], np.cumsum(dense)])
        s7 = csum[7:] - csum[:-7]
        centers = np.arange(3, n - 3)
        dt = 7 * dense[centers] - s7
        dow = ((centers + lo) + 3) % 7 + 1
        for w in range(1, 8):
            m = dow == w
            if not m.any():
                continue
            cnt = int(m.sum())
            num = int(dt[m].sum())
            r = dt[m] * cnt - num                 # exact ints
            med = float(np.median(r))
            dev = np.abs(r.astype(np.float64) - med)
            mad = float(np.median(dev))
            if mad == 0.0:
                continue
            out = dev > 4.4478 * mad
            for day_i, rv in zip((centers[m] + lo)[out], r[out]):
                rows.append({
                    "day": np.int64(day_i), "isodow": w,
                    "resid": np.round(float(rv) / (7.0 * cnt), 4)})
    out = pd.DataFrame(rows, columns=["day", "isodow", "resid"]) \
        .sort_values("day").reset_index(drop=True)
    out["day"] = out["day"].to_numpy(dtype=np.int64) \
        .astype("datetime64[D]").astype("datetime64[us]") \
        if len(out) else pd.Series([], dtype="datetime64[us]")
    return out.astype({"isodow": np.int64})


SQL_SEASONAL_OUTLIERS = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
b AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT unnest(generate_series(b.lo, b.hi)) AS day FROM b),
f AS (SELECT cal.day, COALESCE(d.rev, 0) AS x
      FROM cal LEFT JOIN d USING (day)),
w AS (SELECT day, x,
             SUM(x) OVER (ORDER BY day
                          ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING)
               AS s7,
             COUNT(*) OVER (ORDER BY day
                            ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING)
               AS c7
      FROM f),
det AS (SELECT day, (day + 3) % 7 + 1 AS isodow, 7 * x - s7 AS dt
        FROM w WHERE c7 = 7),
st AS (SELECT isodow, CAST(COUNT(*) AS BIGINT) AS cnt,
              SUM(dt) AS num
       FROM det GROUP BY 1),
r AS (SELECT det.day, det.isodow, st.cnt,
             CAST(det.dt * st.cnt - st.num AS DOUBLE) AS rv
      FROM det JOIN st USING (isodow)),
m AS (SELECT isodow, MEDIAN(rv) AS med FROM r GROUP BY 1),
dv AS (SELECT r.day, r.isodow, r.cnt, r.rv,
              ABS(r.rv - m.med) AS dev
       FROM r JOIN m USING (isodow)),
md AS (SELECT isodow, MEDIAN(dev) AS mad FROM dv GROUP BY 1)
SELECT CAST(DATE '1970-01-01' + CAST(dv.day AS INT) AS TIMESTAMP)
         AS day,
       CAST(dv.isodow AS BIGINT) AS isodow,
       ROUND(dv.rv / (7.0 * dv.cnt), 4) AS resid
FROM dv JOIN md USING (isodow)
WHERE md.mad > 0 AND dv.dev > 4.4478 * md.mad
ORDER BY 1
"""


def q_rolling_origin_backtest(sf_dir: str):
    """Rolling-origin backtest of the 7-day seasonal-naive forecaster:
    14 consecutive origins, horizons h = 1..7, MAE per horizon — the
    out-of-sample evaluation protocol (one train/test split lies;
    rolling origins don't).  Forecast ŷ(o+h) = y(o+h−7) on the
    gap-filled calendar; per-horizon Σ|err| stays exact cents from the
    shared daily reduce, the MAE is one mirrored division."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    dense = np.zeros(hi - lo + 1, dtype=np.int64)
    dense[days - lo] = d["rev"].to_numpy(np.int64)
    origins = np.arange(hi - 20, hi - 6)          # 14 origins
    rows = []
    for h in range(1, 8):
        t = origins + h                           # target days
        err = np.abs(dense[t - lo] - dense[t - 7 - lo])
        rows.append({"h": h, "n_origins": len(origins),
                     "sum_abs_err_cents": int(err.sum()),
                     "mae": round(float(err.sum()) / len(origins), 4)})
    return pd.DataFrame(rows).astype({
        "h": np.int64, "n_origins": np.int64,
        "sum_abs_err_cents": np.int64})


SQL_ROLLING_ORIGIN = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
b AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT unnest(generate_series(b.lo, b.hi)) AS day FROM b),
f AS (SELECT cal.day, COALESCE(d.rev, 0) AS x
      FROM cal LEFT JOIN d USING (day)),
o AS (SELECT unnest(generate_series(b.hi - 20, b.hi - 7)) AS org
      FROM b),
hs AS (SELECT unnest(generate_series(1, 7)) AS h),
e AS (SELECT hs.h, ABS(ft.x - fp.x) AS err
      FROM o CROSS JOIN hs
      JOIN f ft ON ft.day = o.org + hs.h
      JOIN f fp ON fp.day = o.org + hs.h - 7)
SELECT CAST(h AS BIGINT) AS h,
       CAST(COUNT(*) AS BIGINT) AS n_origins,
       CAST(SUM(err) AS BIGINT) AS sum_abs_err_cents,
       ROUND(CAST(SUM(err) AS DOUBLE) / COUNT(*), 4) AS mae
FROM e GROUP BY h ORDER BY h
"""


def q_logrank_test_retention(sf_dir: str):
    """Log-rank test between the custkey-parity arms on the
    Kaplan-Meier lifetime scheme (duration = first→last order day,
    churn iff the last order is ≥90 days before the horizon) — the
    standard significance test for 'did the treatment change
    retention', which comparing two KM curves by eye cannot give.
    One (duration × arm) count reduce bounded by distinct durations;
    at-risk counts are suffix sums, O−E and the hypergeometric
    variance fold per event time with mirrored float terms, χ² is the
    one squared ratio."""
    from ray.data.aggregate import Max, Sum

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

    from ray.data.aggregate import Min
    per_cust = ev.map_batches(partial, batch_format="pyarrow") \
        .groupby("o_custkey").aggregate(Min("pf", alias_name="f"),
                                        Max("pl", alias_name="l"))
    mx = int(_read(sf_dir, "orders", ["o_orderdate"]).map_batches(
        lambda t: pa.table({"d": pa.array(
            t["o_orderdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[D]").astype(np.int64))}),
        batch_format="pyarrow").aggregate(Max("d", alias_name="m"))["m"])

    def to_counts(t: pa.Table) -> pa.Table:
        f = t["f"].to_numpy(zero_copy_only=False).astype(np.int64)
        l = t["l"].to_numpy(zero_copy_only=False).astype(np.int64)
        arm = (t["o_custkey"].to_numpy(zero_copy_only=False)
               % 2).astype(np.int64)
        g = pd.DataFrame({"t": l - f, "arm": arm,
                          "pd_": ((mx - l) >= 90).astype(np.int64),
                          "pc_": 1}) \
            .groupby(["t", "arm"], sort=False) \
            .agg(pd_=("pd_", "sum"), pc_=("pc_", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cnt = relational.ds_to_table(
        per_cust.map_batches(to_counts, batch_format="pyarrow")
        .groupby(["t", "arm"]).aggregate(Sum("pd_", alias_name="d"),
                                         Sum("pc_", alias_name="c"))
    ).to_pandas()
    ts = np.sort(cnt["t"].unique())
    piv_d = cnt.pivot_table(index="t", columns="arm", values="d",
                            fill_value=0, aggfunc="sum") \
        .reindex(ts, fill_value=0).reindex(columns=[0, 1], fill_value=0)
    piv_c = cnt.pivot_table(index="t", columns="arm", values="c",
                            fill_value=0, aggfunc="sum") \
        .reindex(ts, fill_value=0).reindex(columns=[0, 1], fill_value=0)
    # at-risk = customers with duration >= t (suffix sums, exact)
    n0 = piv_c[0].to_numpy(np.int64)[::-1].cumsum()[::-1]
    n1 = piv_c[1].to_numpy(np.int64)[::-1].cumsum()[::-1]
    d0, d1 = (piv_d[0].to_numpy(np.int64), piv_d[1].to_numpy(np.int64))
    dt, nt = d0 + d1, n0 + n1
    ev_m = dt > 0
    o1 = int(d1[ev_m].sum())
    e1 = float(sum(int(a) * int(b) / int(c)
                   for a, b, c in zip(n1[ev_m], dt[ev_m], nt[ev_m])))
    var = float(sum(
        int(a) * int(b) * int(c) * (int(d) - int(c))
        / (int(d) * int(d) * (int(d) - 1))
        for a, b, c, d in zip(n0[ev_m], n1[ev_m], dt[ev_m], nt[ev_m])
        if d > 1))
    chi2 = (o1 - e1) * (o1 - e1) / var if var > 0 else 0.0
    return pd.DataFrame([{
        "n_arm0": int(piv_c[0].sum()), "n_arm1": int(piv_c[1].sum()),
        "obs1": o1, "exp1": np.round(e1, 6),
        "var": np.round(var, 6), "chi2": np.round(chi2, 6)}]) \
        .astype({"n_arm0": np.int64, "n_arm1": np.int64,
                 "obs1": np.int64})


SQL_LOGRANK = """
WITH pc AS (SELECT o_custkey,
                   MIN(epoch_us(o_orderdate) // 86400000000) AS f,
                   MAX(epoch_us(o_orderdate) // 86400000000) AS l
            FROM orders GROUP BY 1),
hz AS (SELECT MAX(l) AS mx FROM pc),
obs AS (SELECT l - f AS t, o_custkey % 2 AS arm,
               CASE WHEN hz.mx - l >= 90 THEN 1 ELSE 0 END AS d
        FROM pc, hz),
g AS (SELECT t, arm, CAST(SUM(d) AS BIGINT) AS d,
             CAST(COUNT(*) AS BIGINT) AS c
      FROM obs GROUP BY 1, 2),
ts AS (SELECT DISTINCT t FROM g),
cells AS (SELECT ts.t, a.arm,
                 COALESCE(g.d, 0) AS d, COALESCE(g.c, 0) AS c
          FROM ts CROSS JOIN (SELECT unnest([0, 1]) AS arm) a
          LEFT JOIN g ON g.t = ts.t AND g.arm = a.arm),
ar AS (SELECT t, arm, d,
              SUM(c) OVER (PARTITION BY arm ORDER BY t DESC
                           ROWS UNBOUNDED PRECEDING) AS n
       FROM cells),
w AS (SELECT a0.t, a0.d AS d0, a1.d AS d1, a0.n AS n0, a1.n AS n1
      FROM ar a0 JOIN ar a1 ON a0.t = a1.t
      WHERE a0.arm = 0 AND a1.arm = 1 AND a0.d + a1.d > 0)
SELECT (SELECT CAST(SUM(c) AS BIGINT) FROM cells WHERE arm = 0)
         AS n_arm0,
       (SELECT CAST(SUM(c) AS BIGINT) FROM cells WHERE arm = 1)
         AS n_arm1,
       CAST(SUM(d1) AS BIGINT) AS obs1,
       ROUND(SUM(n1 * (d0 + d1) / CAST(n0 + n1 AS DOUBLE)), 6)
         AS exp1,
       ROUND(SUM(CASE WHEN n0 + n1 > 1 THEN
                 n0 * n1 * (d0 + d1)
                 * ((n0 + n1) - (d0 + d1))
                 / (CAST(n0 + n1 AS DOUBLE) * (n0 + n1)
                    * ((n0 + n1) - 1))
                 ELSE 0 END), 6) AS var,
       ROUND((SUM(d1) - SUM(n1 * (d0 + d1)
                            / CAST(n0 + n1 AS DOUBLE)))
             * (SUM(d1) - SUM(n1 * (d0 + d1)
                              / CAST(n0 + n1 AS DOUBLE)))
             / SUM(CASE WHEN n0 + n1 > 1 THEN
                   n0 * n1 * (d0 + d1) * ((n0 + n1) - (d0 + d1))
                   / (CAST(n0 + n1 AS DOUBLE) * (n0 + n1)
                      * ((n0 + n1) - 1))
                   ELSE 0 END), 6) AS chi2
FROM w
"""


#: business-day partial-week table: _BD_W[dow0][r] = weekdays among
#: the r days FOLLOWING a day whose (epoch_day + 3) % 7 is dow0
#: (0 = Monday … 6 = Sunday); shared verbatim by the SQL generator.
_BD_W = [[sum(1 for o in range(1, r + 1) if (d + o) % 7 < 5)
          for r in range(7)] for d in range(7)]


def q_business_days_to_ship(sf_dir: str):
    """Promised lead time in BUSINESS days per order priority — the
    calendar-intelligence histogram (5 calendar days Fri→Wed ≠ 5
    days Mon→Fri on an SLA): promise span s = o_orderkey % 28 days
    from o_orderdate, business days = (s//7)·5 + W[dow₀][s%7] with W
    the shared 7×7 partial-week table — a PURE integer formula, no
    calendar explode, identical CASE chain in the twin.  One
    (priority × bd)-bounded count reduce."""
    from ray.data.aggregate import Sum

    W = np.array(_BD_W, dtype=np.int64)
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])

    def partial(t: pa.Table) -> pa.Table:
        okey = t["o_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64)
        s = okey % 28
        dow0 = (day + 3) % 7
        bd = (s // 7) * 5 + W[dow0, s % 7]
        g = pd.DataFrame({
            "priority": t["o_orderpriority"].to_numpy(
                zero_copy_only=False),
            "bd": bd, "n": 1}) \
            .groupby(["priority", "bd"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby(["priority", "bd"]).aggregate(Sum("n",
                                                   alias_name="n"))
    ).to_pandas().sort_values(["priority", "bd"]) \
        .reset_index(drop=True)
    return out.astype({"bd": np.int64, "n": np.int64})


def _sql_business_days() -> str:
    w_case = " ".join(
        f"WHEN dow0 = {d} AND pr = {r} THEN {_BD_W[d][r]}"
        for d in range(7) for r in range(7))
    return f"""
WITH o AS (SELECT o_orderpriority AS priority,
                  o_orderkey % 28 AS s,
                  (epoch_us(o_orderdate) // 86400000000 + 3) % 7
                    AS dow0
           FROM orders),
b AS (SELECT priority, s // 7 * 5 +
             (CASE {w_case} ELSE 0 END) AS bd
      FROM (SELECT priority, s, dow0, s % 7 AS pr FROM o))
SELECT priority, CAST(bd AS BIGINT) AS bd,
       CAST(COUNT(*) AS BIGINT) AS n
FROM b GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_cohort_ltv_curve(sf_dir: str):
    """Cumulative lifetime value per monthly cohort and cohort age —
    the unit-economics curve (retention says WHO came back; LTV says
    what they were WORTH).  Per-customer first-order month from one
    reduce, revenue cents fold into (cohort, age)-bounded cells
    through a bucketed join, cumulative over age runs on the tiny
    pivot — exact cents end to end."""
    from ray.data.aggregate import Min, Sum

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_totalprice"])

    def per_cust(t: pa.Table) -> pa.Table:
        m = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[M]").astype(np.int64)
        g = pd.DataFrame({"o_custkey": t["o_custkey"].to_numpy(
            zero_copy_only=False), "pm": m}) \
            .groupby("o_custkey", sort=False).min().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    first = orders.map_batches(per_cust, batch_format="pyarrow") \
        .groupby("o_custkey").aggregate(Min("pm", alias_name="cohort"))

    def combine(t: pa.Table) -> pa.Table:
        m = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[M]").astype(np.int64)
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        coh = t["cohort"].to_numpy(zero_copy_only=False)
        g = pd.DataFrame({"cohort": coh, "age": m - coh,
                          "cents": cents, "n": 1}) \
            .groupby(["cohort", "age"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cells = relational.ds_to_table(
        relational.bucketed_hash_join(orders, first, on="o_custkey",
                                      combine=combine)
        .groupby(["cohort", "age"]).aggregate(
            Sum("cents", alias_name="cents"),
            Sum("n", alias_name="n_orders"))
    ).to_pandas().sort_values(["cohort", "age"]).reset_index(drop=True)
    cells["cum_cents"] = cells.groupby("cohort")["cents"].cumsum()
    cells["cohort"] = cells["cohort"].to_numpy(np.int64) \
        .astype("datetime64[M]").astype("datetime64[us]")
    return cells[["cohort", "age", "n_orders", "cents",
                  "cum_cents"]].astype({
                      "age": np.int64, "n_orders": np.int64,
                      "cents": np.int64, "cum_cents": np.int64})


SQL_COHORT_LTV = """
WITH f AS (SELECT o_custkey,
                  MIN(date_trunc('month', o_orderdate)) AS cohort
           FROM orders GROUP BY 1),
c AS (SELECT f.cohort,
             (EXTRACT(year FROM o.o_orderdate) * 12
              + EXTRACT(month FROM o.o_orderdate))
             - (EXTRACT(year FROM f.cohort) * 12
                + EXTRACT(month FROM f.cohort)) AS age,
             CAST(ROUND(o.o_totalprice * 100) AS BIGINT) AS cents
      FROM orders o JOIN f USING (o_custkey)),
g AS (SELECT cohort, age, CAST(SUM(cents) AS BIGINT) AS cents,
             CAST(COUNT(*) AS BIGINT) AS n_orders
      FROM c GROUP BY 1, 2)
SELECT CAST(cohort AS TIMESTAMP) AS cohort, CAST(age AS BIGINT) AS age,
       n_orders, cents,
       CAST(SUM(cents) OVER (PARTITION BY cohort ORDER BY age
                             ROWS UNBOUNDED PRECEDING) AS BIGINT)
         AS cum_cents
FROM g ORDER BY 1, 2
"""


def q_snapshot_aggregate_diff(sf_dir: str):
    """Semantic diff between two time-travel snapshots: monthly
    revenue AS OF manifest v1 vs v2 with per-month deltas — the
    'what changed since yesterday's snapshot' report a lakehouse
    answers from manifests alone (no row diffing).  Reuses the
    time-travel fixture (v1 = early half, v2 = everything); months
    present only in v2 surface as pure additions.  Exact cents."""
    import json
    import os

    import ray.data as rd

    from ray.data.aggregate import Sum

    q_time_travel_read(sf_dir)              # ensure fixture exists
    root = _fingerprint_cache_dir(sf_dir, "orders", "timetravel")

    def monthly(files: list[str]):
        ds = rd.read_parquet([os.path.join(root, f) for f in files])

        def part(t: pa.Table) -> pa.Table:
            m = t["o_orderdate"].to_numpy(zero_copy_only=False) \
                .astype("datetime64[M]").astype(np.int64)
            cents = np.round(t["o_totalprice"].to_numpy(
                zero_copy_only=False) * 100.0).astype(np.int64)
            g = pd.DataFrame({"m": m, "c": cents}) \
                .groupby("m", sort=False).sum().reset_index()
            return pa.Table.from_pandas(g, preserve_index=False)

        return relational.ds_to_table(
            ds.map_batches(part, batch_format="pyarrow")
            .groupby("m").aggregate(Sum("c", alias_name="c"))
        ).to_pandas().set_index("m")["c"]

    with open(os.path.join(root, "manifest-v1.json")) as fh:
        v1_files = json.load(fh)["files"]
    with open(os.path.join(root, "manifest-v2.json")) as fh:
        v2_files = json.load(fh)["files"]
    a, b = monthly(v1_files), monthly(v2_files)
    months = sorted(set(a.index) | set(b.index))
    out = pd.DataFrame({
        "month": np.array(months, dtype=np.int64)
        .astype("datetime64[M]").astype("datetime64[us]"),
        "cents_v1": [int(a.get(m, 0)) for m in months],
        "cents_v2": [int(b.get(m, 0)) for m in months]})
    out["delta"] = out["cents_v2"] - out["cents_v1"]
    out = out[out["delta"] != 0].reset_index(drop=True)
    return out.astype({"cents_v1": np.int64, "cents_v2": np.int64,
                       "delta": np.int64})


SQL_SNAPSHOT_DIFF = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  date_trunc('month', o_orderdate) AS month,
                  CAST(ROUND(o_totalprice * 100) AS BIGINT) AS c
           FROM orders),
b AS (SELECT MIN(day) + (MAX(day) - MIN(day)) // 2 AS mid FROM d),
v1 AS (SELECT month, CAST(SUM(c) AS BIGINT) AS c FROM d, b
       WHERE day <= mid GROUP BY 1),
v2 AS (SELECT month, CAST(SUM(c) AS BIGINT) AS c FROM d GROUP BY 1)
SELECT CAST(v2.month AS TIMESTAMP) AS month,
       COALESCE(v1.c, 0) AS cents_v1, v2.c AS cents_v2,
       v2.c - COALESCE(v1.c, 0) AS delta
FROM v2 LEFT JOIN v1 USING (month)
WHERE v2.c - COALESCE(v1.c, 0) <> 0
ORDER BY month
"""


def q_secondary_index_lookup(sf_dir: str):
    """Secondary-index point lookup on a NON-clustered column — the
    layout-free complement to hash bucketing: orders stay physically
    range-split by o_orderkey (16 files), a sidecar inverted index
    (custkey → file) is built in one distributed per-file distinct
    pass, and an equality probe on o_custkey reads the index (pruned
    at the read) then opens ONLY the listed files.  files_opened is
    mirrorable because the file of a row is the value-range formula
    (o_orderkey − 1) // ⌈max/16⌉ on both sides; the probe key is
    MAX(o_custkey)."""
    import glob
    import os

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq_
    import ray.data as rd

    from ray.data.aggregate import Max

    root = _fingerprint_cache_dir(sf_dir, "orders", "secindex")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])
    mx = int(orders.aggregate(Max("o_orderkey", alias_name="m"))["m"])
    per = -(-mx // 16)                         # ceil(max/16)

    def build(tmp: str) -> None:
        os.makedirs(os.path.join(tmp, "data"), exist_ok=True)
        t = relational.ds_to_table(orders)
        f = (t["o_orderkey"].to_numpy(zero_copy_only=False)
             .astype(np.int64) - 1) // per
        for ff in np.unique(f):
            pq_.write_table(t.filter(pa.array(f == ff)),
                            os.path.join(tmp, "data",
                                         f"part={ff}.parquet"))
        # distributed index build: per-file distinct custkeys
        def per_file(t2: pa.Table) -> pa.Table:
            fk = (t2["o_orderkey"].to_numpy(zero_copy_only=False)
                  .astype(np.int64) - 1) // per
            g = pd.DataFrame({"o_custkey": t2["o_custkey"].to_numpy(
                zero_copy_only=False), "f": fk}).drop_duplicates()
            return pa.Table.from_pandas(g, preserve_index=False)

        from ray.data.aggregate import Count
        idx = relational.ds_to_table(
            orders.map_batches(per_file, batch_format="pyarrow")
            .groupby(["o_custkey", "f"]).aggregate(Count()))
        pq_.write_table(idx.select(["o_custkey", "f"]),
                        os.path.join(tmp, "index.parquet"))

    publish_dir(root, build)
    probe = int(orders.aggregate(Max("o_custkey", alias_name="m"))["m"])
    hits = rd.read_parquet(os.path.join(root, "index.parquet"),
                           filter=(pads.field("o_custkey") == probe))
    files = sorted(int(f) for f in relational.ds_to_table(
        hits)["f"].to_pylist())
    ds = rd.read_parquet(
        [os.path.join(root, "data", f"part={f}.parquet")
         for f in files],
        filter=(pads.field("o_custkey") == probe))
    t = relational.ds_to_table(ds)
    cents = int(np.sum(np.round(
        t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0)
        .astype(np.int64)))
    return pd.DataFrame([{
        "probe_custkey": probe, "files_opened": len(files),
        "n_orders": t.num_rows, "cents": cents}]).astype({
            "probe_custkey": np.int64, "files_opened": np.int64,
            "n_orders": np.int64, "cents": np.int64})


SQL_SECONDARY_INDEX = """
WITH mx AS (SELECT MAX(o_orderkey) AS m,
                   MAX(o_custkey) AS probe FROM orders),
per AS (SELECT -((-m) // 16) AS p, probe FROM mx),
hit AS (SELECT o.*, (o.o_orderkey - 1) // per.p AS f
        FROM orders o, per WHERE o.o_custkey = per.probe)
SELECT (SELECT probe FROM per) AS probe_custkey,
       CAST(COUNT(DISTINCT f) AS BIGINT) AS files_opened,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
         AS cents
FROM hit
"""


def q_codec_comparison_report(sf_dir: str):
    """Physical-design codec bake-off: the orders table written three
    times (uncompressed, snappy, zstd) through the DISTRIBUTED parquet
    writer, with on-disk bytes and compression ratios — the
    storage-tuning report every lakehouse team runs before picking a
    table default.  No SQL oracle (byte sizes are codec/build
    specific); pytest pins the ratio ordering and the row-count
    roundtrip."""
    import glob
    import os
    import shutil
    import uuid

    import ray.data as rd

    orders = _read(sf_dir, "orders", None)
    base = f"/tmp/prclz_codec_{uuid.uuid4().hex}"
    rows_in = orders.count()
    out_rows = []
    sizes = {}
    try:
        for codec in ("none", "snappy", "zstd"):
            d = os.path.join(base, codec)
            orders.write_parquet(d, compression=codec)
            sizes[codec] = sum(
                os.path.getsize(f)
                for f in glob.glob(os.path.join(d, "*.parquet")))
            rows_back = rd.read_parquet(d).count()
            out_rows.append({"codec": codec, "bytes": sizes[codec],
                             "rows": rows_back})
    finally:
        shutil.rmtree(base, ignore_errors=True)
    out = pd.DataFrame(out_rows)
    out["ratio_vs_none"] = np.round(
        out["bytes"] / float(sizes["none"]), 4)
    assert (out["rows"] == rows_in).all()
    return out.astype({"bytes": np.int64, "rows": np.int64})


def q_hill_tail_index(sf_dir: str):
    """Hill estimator of the revenue tail index over the top-100
    order totals — the heavy-tail diagnostic (α < 2 ⇒ infinite
    variance ⇒ means are unstable) for the money distribution, the
    order-statistics complement to the degree-power-law fit.
    Distributed exactly: per-batch top-101-by-cents partials are a
    monotone combiner (ties share a cents value, so the boundary
    multiset — and hence H — is selection-invariant); the finish is
    101 rows.  H = (1/k)Σ ln(xᵢ/x₍ₖ₊₁₎) on exact cents."""
    K = 100
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        keep = np.argsort(-cents, kind="stable")[:K + 1]
        return pa.table({"c": pa.array(cents[keep])})

    top = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
    ).to_pandas()["c"].to_numpy(np.int64)
    top = np.sort(top)[::-1][:K + 1]
    xk1 = float(top[K])
    h = float(np.sum(np.log(top[:K].astype(np.float64) / xk1)) / K)
    return pd.DataFrame({"k": [K], "xk1_cents": [int(top[K])],
                         "hill_h": [round(h, 6)],
                         "alpha": [round(1.0 / h, 6)]})


SQL_HILL = """
WITH c AS (SELECT o_orderkey,
                  CAST(ROUND(o_totalprice * 100) AS BIGINT) AS c
           FROM orders),
r AS (SELECT c, ROW_NUMBER() OVER (ORDER BY c DESC, o_orderkey)
               AS rn
      FROM c),
xk AS (SELECT CAST(c AS DOUBLE) AS x101, c AS c101 FROM r
       WHERE rn = 101),
h AS (SELECT SUM(LN(CAST(r.c AS DOUBLE) / xk.x101)) / 100 AS h,
             MAX(xk.c101) AS c101
      FROM r, xk WHERE rn <= 100)
SELECT CAST(100 AS BIGINT) AS k, c101 AS xk1_cents,
       ROUND(h, 6) AS hill_h, ROUND(1.0 / h, 6) AS alpha
FROM h
"""


def q_monetary_unit_sample(sf_dir: str):
    """Monetary-unit (dollar-unit) audit sampling: systematic PPS
    selection where every J-th CENT of cumulative order value picks
    the order containing it — the auditor's sampler that makes
    inclusion probability proportional to money at risk, with J =
    total/400 targeting ~400 picks.  Pure integer arithmetic: order i
    is selected iff ⌊cum_i/J⌋ > ⌊cum_{i−1}/J⌋.  Distributed as a
    two-pass prefix: per-orderkey-range sums give exact offsets, each
    range then scans only its own orders — the SPRT/offset pattern,
    no global cumulative materialization."""
    from ray.data.aggregate import Max, Sum

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    mx = int(orders.aggregate(Max("o_orderkey",
                                  alias_name="m"))["m"])
    B = mx // 63 + 1

    def tag(t: pa.Table) -> pa.Table:
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        return pa.table({"rng": pa.array(ok // B),
                         "o_orderkey": pa.array(ok),
                         "cents": pa.array(cents)})

    tagged = orders.map_batches(tag, batch_format="pyarrow")
    sums = relational.ds_to_table(
        tagged.groupby("rng").aggregate(Sum("cents",
                                            alias_name="s"))
    ).to_pandas().sort_values("rng")
    total = int(sums["s"].sum())
    J = max(total // 400, 1)
    offs = dict(zip(sums["rng"],
                    (np.cumsum(sums["s"]) - sums["s"])
                    .to_numpy(np.int64)))
    offs_ref = ray.put(offs)

    def select(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(offs_ref)[int(g["rng"].iloc[0])]
        g = g.sort_values("o_orderkey")
        c = g["cents"].to_numpy(np.int64)
        cum = np.cumsum(c) + off
        prev = cum - c
        units = cum // J - prev // J
        keep = units > 0
        return pd.DataFrame({
            "o_orderkey": g["o_orderkey"].to_numpy(np.int64)[keep],
            "cents": c[keep], "units": units[keep]})

    res = relational.ds_to_table(
        tagged.groupby("rng").map_groups(select,
                                         batch_format="pandas")
    ).to_pandas()
    return res.sort_values("o_orderkey").reset_index(drop=True)


SQL_MUS = """
WITH c AS (SELECT o_orderkey,
                  CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
           FROM orders),
t AS (SELECT GREATEST(SUM(cents) // 400, 1) AS j FROM c),
w AS (SELECT o_orderkey, cents,
             SUM(cents) OVER (ORDER BY o_orderkey
                              ROWS UNBOUNDED PRECEDING) AS cum
      FROM c)
SELECT o_orderkey, cents,
       CAST(cum // j - (cum - cents) // j AS BIGINT) AS units
FROM w, t WHERE cum // j > (cum - cents) // j
ORDER BY o_orderkey
"""


def q_growth_accounting_monthly(sf_dir: str):
    """Monthly growth accounting: revenue and customer counts split
    NEW (customer's first-ever order month) vs RETURNING — the
    decomposition every growth review opens with, because topline
    revenue hides whether acquisition or retention is carrying it.
    One (custkey, month) cents reduce, then each customer's bucket
    group derives its own first month and emits per-month partials —
    no broadcast of a customer-scaled first-order map."""
    from ray.data.aggregate import Sum

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate",
                                      "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[M]")
        mo = (d.astype(np.int64) + 1970 * 12)     # absolute month
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"c": t["o_custkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "m": mo, "pc_": cents}) \
            .groupby(["c", "m"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    def split(g: pd.DataFrame) -> pd.DataFrame:
        first = g.groupby("c")["m"].transform("min")
        is_new = (g["m"] == first).to_numpy()
        out = pd.DataFrame({
            "m": g["m"],
            "new_c": is_new.astype(np.int64),
            "ret_c": (~is_new).astype(np.int64),
            "new_rev": np.where(is_new, g["pc_"], 0),
            "ret_rev": np.where(is_new, 0, g["pc_"])})
        return out.groupby("m", sort=False).sum().reset_index()

    cm = orders.map_batches(partial, batch_format="pyarrow") \
        .groupby(["c", "m"]).aggregate(Sum("pc_", alias_name="pc_"))
    res = relational.ds_to_table(
        relational.bucket_shuffle(cm, "c", split)
        .groupby("m").aggregate(
            Sum("new_c", alias_name="n_new_customers"),
            Sum("ret_c", alias_name="n_returning_customers"),
            Sum("new_rev", alias_name="nr"),
            Sum("ret_rev", alias_name="rr"))
    ).to_pandas().sort_values("m").reset_index(drop=True)
    y, m = divmod(res["m"].to_numpy(np.int64), 12)
    return pd.DataFrame({
        "month": [f"{yy:04d}-{mm + 1:02d}" for yy, mm in zip(y, m)],
        "n_new_customers": res["n_new_customers"].astype(np.int64),
        "n_returning_customers":
            res["n_returning_customers"].astype(np.int64),
        "new_rev": np.round(res["nr"].to_numpy(np.int64) / 100.0, 2),
        "ret_rev": np.round(res["rr"].to_numpy(np.int64) / 100.0, 2)})


SQL_GROWTH_ACCOUNTING = """
WITH cm AS (SELECT o_custkey AS c, strftime(o_orderdate, '%Y-%m')
                     AS month,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS pc
            FROM orders GROUP BY 1, 2),
f AS (SELECT c, MIN(month) AS fm FROM cm GROUP BY 1)
SELECT cm.month,
       CAST(SUM(CASE WHEN cm.month = f.fm THEN 1 ELSE 0 END)
            AS BIGINT) AS n_new_customers,
       CAST(SUM(CASE WHEN cm.month = f.fm THEN 0 ELSE 1 END)
            AS BIGINT) AS n_returning_customers,
       ROUND(SUM(CASE WHEN cm.month = f.fm THEN pc ELSE 0 END)
             / 100.0, 2) AS new_rev,
       ROUND(SUM(CASE WHEN cm.month = f.fm THEN 0 ELSE pc END)
             / 100.0, 2) AS ret_rev
FROM cm JOIN f USING (c) GROUP BY 1 ORDER BY 1
"""


def q_net_revenue_retention(sf_dir: str):
    """Net revenue retention per month: of the customers active in
    month m, what share of their m revenue do they spend in m+1 —
    the SaaS NRR pulse (>1 ⇒ expansion outruns churn).  One
    (customer, month) cents reduce; each customer bucket emits its
    own (base, next-month) pairs vectorized — no cross-month join,
    no customer-scaled broadcast.  Months before the corpus' last
    month only (m+1 must exist)."""
    from ray.data.aggregate import Max, Sum


    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate",
                                      "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        mo = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[M]").astype(np.int64) + 1970 * 12
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"c": t["o_custkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "m": mo, "pc_": cents}) \
            .groupby(["c", "m"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cm = orders.map_batches(partial, batch_format="pyarrow") \
        .groupby(["c", "m"]).aggregate(Sum("pc_", alias_name="pc_")) \
        .materialize()
    mx_m = int(cm.aggregate(Max("m", alias_name="x"))["x"])

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["c", "m"])
        c = g["c"].to_numpy(np.int64)
        m = g["m"].to_numpy(np.int64)
        v = g["pc_"].to_numpy(np.int64)
        nxt = np.zeros(len(g), dtype=np.int64)
        consec = (c[:-1] == c[1:]) & (m[:-1] + 1 == m[1:])
        nxt[:-1][consec] = v[1:][consec]
        keep = m < mx_m
        out = pd.DataFrame({"m": m[keep], "base": v[keep],
                            "ret": nxt[keep]})
        return out.groupby("m", sort=False).sum().reset_index()

    res = relational.ds_to_table(
        relational.bucket_shuffle(cm, "c", pairs)
        .groupby("m").aggregate(Sum("base", alias_name="base"),
                                Sum("ret", alias_name="ret"))
    ).to_pandas().sort_values("m").reset_index(drop=True)
    y, mo = divmod(res["m"].to_numpy(np.int64), 12)
    base = res["base"].to_numpy(np.int64)
    ret = res["ret"].to_numpy(np.int64)
    return pd.DataFrame({
        "month": [f"{yy:04d}-{mm + 1:02d}" for yy, mm in zip(y, mo)],
        "base_rev_c": base, "retained_rev_c": ret,
        "nrr": np.round(ret.astype(np.float64)
                        / base.astype(np.float64), 6)})


SQL_NRR = """
WITH cm AS (SELECT o_custkey AS c,
                   (EXTRACT(year FROM o_orderdate) * 12
                    + EXTRACT(month FROM o_orderdate) - 1) AS m,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS pc
            FROM orders GROUP BY 1, 2),
mx AS (SELECT MAX(m) AS mx FROM cm),
j AS (SELECT a.m, a.pc AS base, COALESCE(b.pc, 0) AS ret
      FROM cm a LEFT JOIN cm b
        ON b.c = a.c AND b.m = a.m + 1, mx
      WHERE a.m < mx.mx),
g AS (SELECT m, CAST(SUM(base) AS BIGINT) AS base_rev_c,
             CAST(SUM(ret) AS BIGINT) AS retained_rev_c
      FROM j GROUP BY 1)
SELECT CAST(m // 12 AS VARCHAR) || '-' ||
         CASE WHEN m % 12 + 1 < 10
              THEN '0' || CAST(m % 12 + 1 AS VARCHAR)
              ELSE CAST(m % 12 + 1 AS VARCHAR) END AS month,
       base_rev_c, retained_rev_c,
       ROUND(CAST(retained_rev_c AS DOUBLE)
             / CAST(base_rev_c AS DOUBLE), 6) AS nrr
FROM g ORDER BY month
"""


def q_cvar_daily_revenue(sf_dir: str):
    """Value-at-Risk and Expected Shortfall (CVaR) at the 5% tail of
    the daily order-revenue series — the coherent tail-risk pair
    behind every risk dashboard (ES averages the tail VaR only points
    at).  Distributed part is the shared exact-cents daily reduce;
    the finish selects k = ⌈0.05·n⌉ worst days by (rev, day) order —
    an exact integer order statistic plus an exact integer tail sum,
    with ONE mirrored double division for ES."""
    d = _daily_revenue_cents(sf_dir)
    rev = d["rev"].to_numpy(np.int64)
    day = d["day"].to_numpy(np.int64)
    n = len(rev)
    k = (n + 19) // 20
    order = np.lexsort((day, rev))       # ORDER BY rev, day
    tail = rev[order[:k]]
    varc = int(tail.max())
    sc = int(tail.sum())
    return pd.DataFrame([{
        "n_days": n, "k": k,
        "var_daily": float(varc) / 100.0,
        "es_daily": round(float(sc) / float(k) / 100.0, 6)}]) \
        .astype({"n_days": np.int64, "k": np.int64})


SQL_CVAR = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS rev
           FROM orders GROUP BY 1),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_days FROM d),
r AS (SELECT rev, ROW_NUMBER() OVER (ORDER BY rev, day) AS rn FROM d),
t AS (SELECT MAX(r.rev) AS varc, CAST(SUM(r.rev) AS BIGINT) AS sc,
             CAST(COUNT(*) AS BIGINT) AS k
      FROM r, n WHERE r.rn <= (n.n_days + 19) // 20)
SELECT n.n_days, t.k, CAST(t.varc AS DOUBLE) / 100.0 AS var_daily,
       ROUND(CAST(t.sc AS DOUBLE) / CAST(t.k AS DOUBLE) / 100.0, 6)
         AS es_daily
FROM n, t
"""


def q_ljung_box_revenue(sf_dir: str):
    """Ljung–Box portmanteau test over the gap-filled daily revenue
    series, lags 1–7 — the is-this-just-white-noise gate a forecast
    model must pass before its residuals are trusted.  Unlike the ACF
    query's per-lag Pearson, LB uses the STANDARD common-mean
    autocorrelation: multiplying through by n² turns every ρₖ into a
    ratio of two exact integers (n²Σxy − nS(Sh+St) + (n−k)S²) /
    (n²Σx² − nS²) — arbitrary precision on the Ray side, HUGEINT in
    the twin — and Q accumulates the mirrored per-lag doubles in k
    order on both sides."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    series = np.zeros(hi - lo + 1, dtype=np.int64)
    series[days - lo] = d["rev"].to_numpy(np.int64)
    xs = [int(v) for v in series]
    n = len(xs)
    S = sum(xs)
    Sxx = sum(v * v for v in xs)
    den = n * n * Sxx - n * S * S
    rows = []
    qacc = 0.0
    for k in range(1, 8):
        a, b = xs[:-k], xs[k:]
        sxy = sum(p * q for p, q in zip(a, b))
        sh, st = sum(a), sum(b)
        num = n * n * sxy - n * S * (sh + st) + (n - k) * S * S
        rho = float(num) / float(den)
        qacc += rho * rho / float(n - k)
        rows.append({"k": k, "rho": round(rho, 6),
                     "q": round(float(n) * (n + 2) * qacc, 6)})
    return pd.DataFrame(rows).astype({"k": np.int64})


SQL_LJUNG_BOX = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day, COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d USING (day)),
g AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(rev) AS sv,
             SUM(rev * rev) AS sxx
      FROM s),
p AS (SELECT k.k, SUM(a.rev * b.rev) AS sxy,
             SUM(a.rev) AS sh, SUM(b.rev) AS st
      FROM s a
      CROSS JOIN (VALUES (1), (2), (3), (4), (5), (6), (7)) k(k)
      JOIN s b ON b.day = a.day + k.k
      GROUP BY 1),
r AS (SELECT p.k,
             CAST(g.n * g.n * p.sxy - g.n * g.sv * (p.sh + p.st)
                  + (g.n - p.k) * g.sv * g.sv AS DOUBLE)
               / CAST(g.n * g.n * g.sxx - g.n * g.sv * g.sv AS DOUBLE)
               AS rho,
             g.n AS n
      FROM p, g)
SELECT k, ROUND(rho, 6) AS rho,
       ROUND(CAST(n AS DOUBLE) * (n + 2)
             * SUM(rho * rho / CAST(n - k AS DOUBLE))
               OVER (ORDER BY k ROWS UNBOUNDED PRECEDING), 6) AS q
FROM r ORDER BY k
"""


_PERIODOGRAM_TRIG = {
    (p, ph): (int(np.round(np.cos(2.0 * np.pi * ph / p) * 1000.0)),
              int(np.round(np.sin(2.0 * np.pi * ph / p) * 1000.0)))
    for p in range(2, 15) for ph in range(p)}


def q_periodogram_revenue(sf_dir: str):
    """Quantized-DFT periodogram of gap-filled daily revenue at trial
    periods 2–14 — the which-cycle-is-real scan behind the day-of-week
    seasonality the decompose ops assume.  Cos/sin factors quantize to
    milli-units ONCE at module load (the same integer table feeds the
    twin's VALUES list), and the series mean-centers by multiplying
    through by n (Xₜ = n·xₜ − S), so the per-period sums Σ Xₜ·c and
    Σ Xₜ·s are EXACT integers (python int / HUGEINT) at any scale;
    amplitude is one mirrored float expression.  A constant series
    has Xₜ ≡ 0, making every amplitude exactly 0."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    series = np.zeros(hi - lo + 1, dtype=np.int64)
    series[days - lo] = d["rev"].to_numpy(np.int64)
    xs = [int(v) for v in series]
    n = len(xs)
    S = sum(xs)
    X = [n * v - S for v in xs]
    rows = []
    for p in range(2, 15):
        sc = sum(x * _PERIODOGRAM_TRIG[(p, t % p)][0]
                 for t, x in enumerate(X))
        ss = sum(x * _PERIODOGRAM_TRIG[(p, t % p)][1]
                 for t, x in enumerate(X))
        amp = 2.0 * math.sqrt(float(sc) * sc + float(ss) * ss) \
            / 1000.0 / float(n) / float(n) / 100.0
        rows.append({"period": p, "amp": round(amp, 6)})
    return pd.DataFrame(rows).astype({"period": np.int64})


def _sql_periodogram() -> str:
    vals = ", ".join(f"({p}, {ph}, {c}, {s})"
                     for (p, ph), (c, s) in
                     sorted(_PERIODOGRAM_TRIG.items()))
    return f"""
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day - (SELECT lo FROM bounds) AS t,
             COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d ON d.day = cal.day),
g AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(rev) AS sv FROM s),
x AS (SELECT s.t, g.n * s.rev - g.sv AS xc, g.n FROM s, g),
trig(p, ph, c, sn) AS (VALUES {vals}),
f AS (SELECT trig.p AS period, SUM(x.xc * trig.c) AS sc,
             SUM(x.xc * trig.sn) AS ss, MAX(x.n) AS n
      FROM x JOIN trig ON trig.ph = x.t % trig.p
      GROUP BY 1)
SELECT period,
       ROUND(2.0 * SQRT(CAST(sc AS DOUBLE) * sc
                        + CAST(ss AS DOUBLE) * ss)
             / 1000.0 / CAST(n AS DOUBLE) / CAST(n AS DOUBLE)
             / 100.0, 6) AS amp
FROM f ORDER BY period
"""


_BAKEOFF_H = 28


def q_forecast_method_bakeoff(sf_dir: str):
    """Walk-forward forecast bake-off on the gap-filled daily revenue
    series — the method-selection table (naive / seasonal-naive /
    train-mean / SES) every forecasting pipeline should print before
    trusting any single model: each holdout day (last 28) is
    predicted using only its past, and per-method MAE plus the
    skill ratio vs naive decide the winner.  naive/snaive errors are
    exact ints; the train-mean MAE uses the scaled identity
    Σ|n·yₜ−S|/(H·n) (exact integer numerator); SES is the
    16-tap dyadic kernel (weights 2⁻¹..2⁻¹⁵ + a 2⁻¹⁵ remainder tap,
    summing to EXACTLY 1) so every forecast, error and sum is an
    exact binary float on both sides."""
    dr = _daily_revenue_cents(sf_dir)
    d0, d1 = int(dr["day"].min()), int(dr["day"].max())
    nd = d1 - d0 + 1
    y = np.zeros(nd, dtype=np.int64)
    y[dr["day"].to_numpy(np.int64) - d0] = \
        dr["rev"].to_numpy(np.int64)
    H = _BAKEOFF_H
    tr = y[:nd - H]
    S, n = int(tr.sum()), len(tr)
    hold = np.arange(nd - H, nd)
    err = {"naive": 0, "snaive": 0}
    err_mean_scaled = 0
    err_ses = 0.0
    for t in hold:
        err["naive"] += abs(int(y[t]) - int(y[t - 1]))
        err["snaive"] += abs(int(y[t]) - int(y[t - 7]))
        err_mean_scaled += abs(n * int(y[t]) - S)
        f = 0.0
        for j in range(15):
            f += float(y[t - 1 - j]) * (0.5 ** (j + 1))
        f += float(y[t - 16]) * (0.5 ** 15)
        err_ses += abs(float(y[t]) - f)
    mae = {
        "naive": float(err["naive"]) / float(H),
        "snaive": float(err["snaive"]) / float(H),
        "mean": float(err_mean_scaled) / float(H * n),
        "ses16": err_ses / float(H)}
    rows = []
    for m in sorted(mae):
        rows.append({
            "method": m, "h_days": H,
            "mae_cents": float(np.round(mae[m], 6)),
            "skill_vs_naive": float(np.round(
                mae[m] / mae["naive"], 6))})
    return pd.DataFrame(rows).astype({"h_days": np.int64})


def _sql_bakeoff() -> str:
    ses = " + ".join(
        f"LAG(rev, {j + 1}) OVER w * POWER(0.5, {j + 1})"
        for j in range(15)) + " + LAG(rev, 16) OVER w * POWER(0.5, 15)"
    return f"""
WITH dr AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS rev
            FROM orders GROUP BY 1),
mm AS (SELECT MIN(day) AS d0, MAX(day) AS d1 FROM dr),
dense AS (SELECT g.day, COALESCE(dr.rev, 0) AS rev, g.idx, g.nd
          FROM (SELECT mm.d0 + s AS day, s AS idx,
                       mm.d1 - mm.d0 + 1 AS nd
                FROM mm, generate_series(0, 4095) t(s)
                WHERE mm.d0 + s <= mm.d1) g
          LEFT JOIN dr ON dr.day = g.day),
trn AS (SELECT SUM(rev) AS s, CAST(COUNT(*) AS BIGINT) AS n
        FROM dense WHERE idx < nd - {_BAKEOFF_H}),
f AS (SELECT idx, nd, rev,
             LAG(rev, 1) OVER w AS f_naive,
             LAG(rev, 7) OVER w AS f_snaive,
             {ses} AS f_ses
      FROM dense WINDOW w AS (ORDER BY idx)),
h AS (SELECT f.*, trn.s, trn.n FROM f, trn
      WHERE idx >= nd - {_BAKEOFF_H}),
agg AS (SELECT
          SUM(ABS(rev - f_naive)) AS e_naive,
          SUM(ABS(rev - f_snaive)) AS e_snaive,
          SUM(ABS(CAST(n AS HUGEINT) * rev - s)) AS e_mean,
          SUM(ABS(rev - f_ses)) AS e_ses,
          MAX(n) AS n
        FROM h),
m AS (SELECT
        CAST(e_naive AS DOUBLE) / {float(_BAKEOFF_H)} AS naive,
        CAST(e_snaive AS DOUBLE) / {float(_BAKEOFF_H)} AS snaive,
        CAST(e_mean AS DOUBLE) / CAST({_BAKEOFF_H} * n AS DOUBLE)
          AS mean,
        e_ses / {float(_BAKEOFF_H)} AS ses16
      FROM agg)
SELECT 'mean' AS method, CAST({_BAKEOFF_H} AS BIGINT) AS h_days,
       ROUND(mean, 6) AS mae_cents,
       ROUND(mean / naive, 6) AS skill_vs_naive FROM m
UNION ALL
SELECT 'naive', {_BAKEOFF_H}, ROUND(naive, 6),
       ROUND(naive / naive, 6) FROM m
UNION ALL
SELECT 'ses16', {_BAKEOFF_H}, ROUND(ses16, 6),
       ROUND(ses16 / naive, 6) FROM m
UNION ALL
SELECT 'snaive', {_BAKEOFF_H}, ROUND(snaive, 6),
       ROUND(snaive / naive, 6) FROM m
ORDER BY method
"""


def q_lorenz_asymmetry_nation(sf_dir: str):
    """Lorenz asymmetry coefficient S = F(μ) + L(μ) of per-customer
    revenue — the inequality SHAPE statistic the Gini hides: S < 1
    means inequality comes from many small values, S > 1 from few
    giants (Damgaard & Weiner's ecology classic).  The discrete
    crossing uses doubled counts/sums (below + half-of-equal stays
    integral), every comparison is the exact cross-multiplication
    v·n vs Σ, and the coefficient is one mirrored two-term double
    expression.  Same per-customer reduce as the Atkinson op."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": t["o_custkey"],
            "v": pa.array(np.floor(t["o_totalprice"].to_numpy(
                zero_copy_only=False) * 100 + 0.5)
                .astype(np.int64))})

    rev = orders.map_batches(cents, batch_format="pyarrow") \
        .groupby("o_custkey").aggregate(Sum("v", alias_name="v")) \
        .materialize()
    tot = relational.ds_to_table(
        rev.map_batches(lambda t: pa.table({
            "_g": pa.array([0]),
            "n": pa.array([t.num_rows]),
            "s": pa.array([int(t["v"].to_numpy(
                zero_copy_only=False).sum())])}),
            batch_format="pyarrow")
        .groupby("_g").aggregate(Sum("n", alias_name="n"),
                                 Sum("s", alias_name="s"))
    ).to_pandas()
    n, S = int(tot["n"].iloc[0]), int(tot["s"].iloc[0])

    def below(t: pa.Table) -> pa.Table:
        v = t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        lt = v * n < S
        eq = v * n == S
        return pa.table({
            "_g": pa.array([0]),
            "c2": pa.array([int(2 * lt.sum() + eq.sum())]),
            "s2": pa.array([int(2 * v[lt].sum() + v[eq].sum())])})

    ag = relational.ds_to_table(
        rev.map_batches(below, batch_format="pyarrow")
        .groupby("_g").aggregate(Sum("c2", alias_name="c2"),
                                 Sum("s2", alias_name="s2"))
    ).to_pandas()
    c2, s2 = int(ag["c2"].iloc[0]), int(ag["s2"].iloc[0])
    coef = float(c2) / float(2 * n) + float(s2) / float(2 * S)
    return pd.DataFrame([{
        "n_customers": n, "total_cents": S,
        "f2_below": c2, "l2_below": s2,
        "lorenz_asymmetry": float(np.round(coef, 6))}]).astype({
            "n_customers": np.int64, "total_cents": np.int64,
            "f2_below": np.int64, "l2_below": np.int64})


SQL_LORENZ_ASYMMETRY = """
WITH rev AS (SELECT o_custkey,
                    SUM(CAST(FLOOR(o_totalprice * 100 + 0.5)
                             AS HUGEINT)) AS v
             FROM orders GROUP BY 1),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS n, SUM(v) AS s FROM rev),
b AS (SELECT SUM(CASE WHEN rev.v * t.n < t.s THEN 2
                      WHEN rev.v * t.n = t.s THEN 1
                      ELSE 0 END) AS c2,
             SUM(CASE WHEN rev.v * t.n < t.s THEN 2 * rev.v
                      WHEN rev.v * t.n = t.s THEN rev.v
                      ELSE 0 END) AS s2
      FROM rev, t)
SELECT t.n AS n_customers, CAST(t.s AS BIGINT) AS total_cents,
       CAST(b.c2 AS BIGINT) AS f2_below,
       CAST(b.s2 AS BIGINT) AS l2_below,
       ROUND(CAST(b.c2 AS DOUBLE) / CAST(2 * t.n AS DOUBLE)
             + CAST(b.s2 AS DOUBLE) / CAST(2 * t.s AS DOUBLE), 6)
         AS lorenz_asymmetry
FROM t, b
"""


def q_siegel_slope_revenue(sf_dir: str):
    """Siegel repeated-median slope of daily revenue — the
    50 %-breakdown robust trend (stronger than Theil–Sen's 29 %):
    per day the MEDIAN of its pairwise slopes to every other day,
    then the median of those medians.  Pairwise slopes nano-quantize
    with the trunc(Δrev·10⁹/Δday) integer division (sign·(|a|//|b|)
    — DuckDB's toward-zero semantics, shared exactly), so every
    median runs on exact integers — lower-median convention on both
    sides.  The distributed part is the shared daily-cents reduce;
    the O(n²) pair scan runs on the calendar-bounded series like the
    registry's other trend ops (Theil–Sen, Mann–Kendall)."""
    dr = _daily_revenue_cents(sf_dir)
    day = dr["day"].to_numpy(np.int64)
    rev = dr["rev"].to_numpy(np.int64)
    n = len(day)
    med_i = []
    for i in range(n):
        dd = day - day[i]
        rr = rev - rev[i]
        mask = dd != 0
        num = rr[mask] * 10 ** 9          # |rev| < 2^27 ⇒ fits int64
        den = dd[mask]
        # DuckDB // truncates toward zero: sign·(|a| // |b|)
        sl = (np.sign(num) * np.sign(den)
              * (np.abs(num) // np.abs(den))).astype(np.int64)
        sl.sort()
        med_i.append(int(sl[(len(sl) - 1) // 2]))
    ms = np.sort(np.array(med_i, dtype=np.int64))
    final = int(ms[(len(ms) - 1) // 2])
    return pd.DataFrame([{
        "n_days": n, "siegel_slope_nano": final,
        "siegel_slope": float(np.round(final / 1e9, 6))}]).astype({
            "n_days": np.int64, "siegel_slope_nano": np.int64})


SQL_SIEGEL = """
WITH dr AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS rev
            FROM orders GROUP BY 1),
p AS (SELECT a.day AS di, ((b.rev - a.rev) * 1000000000)
             // (b.day - a.day) AS s
      FROM dr a JOIN dr b ON a.day <> b.day),
mi AS (SELECT di, s, ROW_NUMBER() OVER (PARTITION BY di
                                        ORDER BY s) AS rn,
              COUNT(*) OVER (PARTITION BY di) AS m
       FROM p),
med1 AS (SELECT di, MAX(CASE WHEN rn = (m - 1) // 2 + 1 THEN s END)
                  AS ms
         FROM mi GROUP BY di),
mo AS (SELECT ms, ROW_NUMBER() OVER (ORDER BY ms) AS rn,
              COUNT(*) OVER () AS m
       FROM med1)
SELECT CAST(m AS BIGINT) AS n_days,
       CAST(MAX(CASE WHEN rn = (m - 1) // 2 + 1 THEN ms END)
            AS BIGINT) AS siegel_slope_nano,
       ROUND(CAST(MAX(CASE WHEN rn = (m - 1) // 2 + 1 THEN ms END)
                  AS DOUBLE) / 1e9, 6) AS siegel_slope
FROM mo GROUP BY m
"""


_FD_CANDIDATES = (
    ("orders", "o_custkey", "o_orderpriority"),
    ("orders", "o_orderkey", "o_orderstatus"),
    ("lineitem", "l_orderkey", "l_returnflag"),
    ("lineitem", "l_partkey", "l_suppkey"))


def q_fd_violation_audit(sf_dir: str):
    """Functional-dependency violation audit (the TANE/data-profiling
    g₃ metric): for each candidate FD X→Y, the minimum number of
    rows to delete for the FD to hold — n − Σ_x max_y count(x,y) —
    plus the violation rate.  Keys where the FD genuinely holds
    (o_orderkey→o_orderstatus) report exactly 0.  The (x, y) count
    reduce is bounded by the pair domain; the per-x max and the
    subtraction are exact integers end to end."""
    from ray.data.aggregate import Sum
    rows = []
    for tbl, lhs, rhs in _FD_CANDIDATES:
        ds = _read(sf_dir, tbl, [lhs, rhs])

        def partial(t: pa.Table, a=lhs, b=rhs) -> pa.Table:
            g = pd.DataFrame({
                "x": t[a].to_numpy(zero_copy_only=False),
                "y": t[b].to_numpy(zero_copy_only=False),
                "c": 1}).groupby(["x", "y"], sort=False) \
                .sum().reset_index()
            return pa.Table.from_pandas(g, preserve_index=False)

        xy = relational.ds_to_table(
            ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["x", "y"]).aggregate(Sum("c", alias_name="c"))
        ).to_pandas()
        n = int(xy["c"].sum())
        keep = int(xy.groupby("x")["c"].max().sum())
        rows.append({
            "fd": f"{tbl}: {lhs} -> {rhs}", "n_rows": n,
            "n_keep": keep, "g3_violations": n - keep,
            "violation_rate": float(np.round(
                float(n - keep) / float(n), 6))})
    return pd.DataFrame(rows).sort_values("fd") \
        .reset_index(drop=True).astype({
            "n_rows": np.int64, "n_keep": np.int64,
            "g3_violations": np.int64})


def _sql_fd_audit() -> str:
    parts = []
    for tbl, lhs, rhs in _FD_CANDIDATES:
        parts.append(f"""
  SELECT '{tbl}: {lhs} -> {rhs}' AS fd,
         CAST(SUM(c) AS BIGINT) AS n_rows,
         CAST(SUM(mx) AS BIGINT) AS n_keep
  FROM (SELECT x, SUM(c) AS c, MAX(c) AS mx
        FROM (SELECT {lhs} AS x, {rhs} AS y, COUNT(*) AS c
              FROM {tbl} GROUP BY 1, 2)
        GROUP BY x)""")
    body = "\nUNION ALL\n".join(parts)
    return f"""
WITH a AS ({body})
SELECT fd, n_rows, n_keep, n_rows - n_keep AS g3_violations,
       ROUND(CAST(n_rows - n_keep AS DOUBLE)
             / CAST(n_rows AS DOUBLE), 6) AS violation_rate
FROM a ORDER BY fd
"""


def q_peak_prominence_revenue(sf_dir: str):
    """Topographic peak prominence over the daily revenue series —
    the signal-processing peak ranking (scipy's find_peaks
    semantics): a peak is a day strictly above both neighbors, and
    its prominence is its height above the higher of the two valley
    floors separating it from higher ground (scipy's uniform rule:
    a side with no higher ground uses its window-edge excursion
    floor).  Every comparison and minimum is on
    exact revenue cents; the top-10 peaks by (prominence DESC, day)
    are reported.  Gap days fill with 0 like every series op; the
    twin replays the same window/correlated-scan logic."""
    dr = _daily_revenue_cents(sf_dir)
    d0, d1 = int(dr["day"].min()), int(dr["day"].max())
    nd = d1 - d0 + 1
    y = np.zeros(nd, dtype=np.int64)
    y[dr["day"].to_numpy(np.int64) - d0] = \
        dr["rev"].to_numpy(np.int64)
    rows = []
    for i in range(1, nd - 1):
        if not (y[i] > y[i - 1] and y[i] > y[i + 1]):
            continue
        # left barrier: min between i and the previous strictly
        # higher day (or series start)
        j = i - 1
        lmin = y[j]
        while j >= 0 and y[j] <= y[i]:
            lmin = min(lmin, int(y[j]))
            j -= 1
        k = i + 1
        rmin = y[k]
        while k < nd and y[k] <= y[i]:
            rmin = min(rmin, int(y[k]))
            k += 1
        # scipy's uniform rule: bases fall back to the window edge
        # when no higher ground exists on a side
        prom = int(y[i]) - max(int(lmin), int(rmin))
        rows.append({"day": d0 + i, "height_cents": int(y[i]),
                     "prominence_cents": prom})
    out = pd.DataFrame(rows)
    if not len(out):
        return pd.DataFrame({
            "day": pd.Series([], dtype=np.int64),
            "height_cents": pd.Series([], dtype=np.int64),
            "prominence_cents": pd.Series([], dtype=np.int64)})
    return out.sort_values(["prominence_cents", "day"],
                           ascending=[False, True]).head(10) \
        .reset_index(drop=True).astype({
            "day": np.int64, "height_cents": np.int64,
            "prominence_cents": np.int64})


SQL_PEAK_PROMINENCE = """
WITH dr AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS rev
            FROM orders GROUP BY 1),
mm AS (SELECT MIN(day) AS d0, MAX(day) AS d1 FROM dr),
dense AS (SELECT g.day, COALESCE(dr.rev, 0) AS rev
          FROM (SELECT mm.d0 + s AS day
                FROM mm, generate_series(0, 4095) t(s)
                WHERE mm.d0 + s <= mm.d1) g
          LEFT JOIN dr ON dr.day = g.day),
pk AS (SELECT d.day, d.rev
       FROM dense d
       JOIN dense l ON l.day = d.day - 1
       JOIN dense r ON r.day = d.day + 1
       WHERE d.rev > l.rev AND d.rev > r.rev),
hi AS (SELECT pk.day, pk.rev,
              (SELECT MAX(x.day) FROM dense x
               WHERE x.day < pk.day AND x.rev > pk.rev) AS lj,
              (SELECT MIN(x.day) FROM dense x
               WHERE x.day > pk.day AND x.rev > pk.rev) AS rk
       FROM pk),
pr AS (SELECT day, rev,
              (SELECT MIN(x.rev) FROM dense x
               WHERE x.day < hi.day AND x.day > COALESCE(hi.lj,
                   (SELECT MIN(day) - 1 FROM dense))) AS lmin,
              (SELECT MIN(x.rev) FROM dense x
               WHERE x.day > hi.day AND x.day < COALESCE(hi.rk,
                   (SELECT MAX(day) + 1 FROM dense))) AS rmin,
              lj, rk
       FROM hi)
SELECT day, rev AS height_cents,
       CAST(rev - GREATEST(lmin, rmin) AS BIGINT)
         AS prominence_cents
FROM pr ORDER BY prominence_cents DESC, day LIMIT 10
"""


def q_kpss_level_revenue(sf_dir: str):
    """KPSS level-stationarity statistic on daily revenue — the
    null-reversed unit-root companion to the registry's Mann–Kendall
    and Durbin–Watson (here the NULL is stationarity; large η
    rejects it): with the scale-cancelling identity the whole
    statistic is η = Σ_t S_t² / (n·D) where S_t are partial sums of
    the n-scaled deviations (n·yᵢ − S) and D their square sum — two
    ARBITRARY-PRECISION integer folds over the gap-filled calendar
    series (HUGEINT twin) into ONE mirrored division.  No variance
    estimate ever floats."""
    dr = _daily_revenue_cents(sf_dir)
    d0, d1 = int(dr["day"].min()), int(dr["day"].max())
    nd = d1 - d0 + 1
    y = np.zeros(nd, dtype=np.int64)
    y[dr["day"].to_numpy(np.int64) - d0] = \
        dr["rev"].to_numpy(np.int64)
    n = nd
    S = int(y.sum())
    dev = [n * int(v) - S for v in y]
    D = sum(d * d for d in dev)
    st = 0
    st2 = 0
    for d_ in dev:
        st += d_
        st2 += st * st
    eta = float(st2) / float(n * D)
    return pd.DataFrame([{
        "n_days": n,
        "kpss_eta": float(np.round(eta, 6)),
        "reject_stationarity_05": eta > 0.463}]).astype({
            "n_days": np.int64})


SQL_KPSS = """
WITH dr AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS rev
            FROM orders GROUP BY 1),
mm AS (SELECT MIN(day) AS d0, MAX(day) AS d1 FROM dr),
dense AS (SELECT g.day, COALESCE(dr.rev, 0) AS rev
          FROM (SELECT mm.d0 + s AS day
                FROM mm, generate_series(0, 4095) t(s)
                WHERE mm.d0 + s <= mm.d1) g
          LEFT JOIN dr ON dr.day = g.day),
t AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(rev) AS s
      FROM dense),
dev AS (SELECT day, t.n * rev - t.s AS d FROM dense, t),
ps AS (SELECT day, d,
              SUM(d) OVER (ORDER BY day ROWS BETWEEN UNBOUNDED
                           PRECEDING AND CURRENT ROW) AS st
       FROM dev),
agg AS (SELECT SUM(st * st) AS st2, SUM(d * d) AS dd FROM ps)
SELECT CAST(t.n AS BIGINT) AS n_days,
       ROUND(CAST(agg.st2 AS DOUBLE)
             / CAST(t.n * agg.dd AS DOUBLE), 6) AS kpss_eta,
       CAST(agg.st2 AS DOUBLE)
       / CAST(t.n * agg.dd AS DOUBLE) > 0.463
         AS reject_stationarity_05
FROM t, agg
"""


def q_secretary_rule_replay(sf_dir: str):
    """Optimal-stopping (37 % secretary rule) replay over each
    customer's order stream — the explore-then-commit baseline every
    sequential-decision system gets compared against: skip the first
    ⌊0.37·n⌋ orders, then accept the first order beating every
    skipped one (or settle for the last).  Replayed exactly on order
    (o_orderdate, o_orderkey) with integer cents comparisons; a pick
    succeeds when it equals the customer's true maximum.  One
    vectorized pass per customer inside the bucket shuffle; the
    summary row reports the exact success count and one mirrored
    rate."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate",
                    "o_totalprice"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate",
                           "o_orderkey"]).reset_index(drop=True)
        cents = np.floor(g["o_totalprice"].to_numpy()
                         * 100 + 0.5).astype(np.int64)
        g = g.assign(c=cents)
        n_c, n_s = 0, 0
        for _, gu in g.groupby("o_custkey", sort=False):
            c = gu["c"].to_numpy(np.int64)
            n = len(c)
            k = 37 * n // 100
            best_skip = int(c[:k].max()) if k > 0 else 0
            pick = None
            for v in c[k:]:
                if int(v) > best_skip:
                    pick = int(v)
                    break
            if pick is None:
                pick = int(c[-1])
            n_c += 1
            n_s += int(pick == int(c.max()))
        return pd.DataFrame([{"_g": 0, "nc": n_c, "ns": n_s}])

    agg = relational.ds_to_table(
        relational.bucket_shuffle(orders, "o_custkey", per_bucket)
        .groupby("_g").aggregate(Sum("nc", alias_name="nc"),
                                 Sum("ns", alias_name="ns"))
    ).to_pandas()
    nc, ns = int(agg["nc"].iloc[0]), int(agg["ns"].iloc[0])
    return pd.DataFrame([{
        "n_customers": nc, "n_success": ns,
        "success_rate": float(np.round(
            float(ns) / float(nc), 6))}]).astype({
            "n_customers": np.int64, "n_success": np.int64})


SQL_SECRETARY = """
WITH o AS (SELECT o_custkey AS u,
                  CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)
                    AS c,
                  ROW_NUMBER() OVER (PARTITION BY o_custkey
                                     ORDER BY o_orderdate,
                                              o_orderkey) AS rn,
                  COUNT(*) OVER (PARTITION BY o_custkey) AS n
           FROM orders),
k AS (SELECT u, MAX(n) AS n, 37 * MAX(n) // 100 AS kk,
             MAX(c) AS cmax
      FROM o GROUP BY 1),
bs AS (SELECT o.u, COALESCE(MAX(o.c), 0) AS best_skip
       FROM o JOIN k ON k.u = o.u AND o.rn <= k.kk
       GROUP BY 1),
cand AS (SELECT o.u, MIN(o.rn) AS prn
         FROM o JOIN k ON k.u = o.u
         LEFT JOIN bs ON bs.u = o.u
         WHERE o.rn > k.kk AND o.c > COALESCE(bs.best_skip, 0)
         GROUP BY 1),
pick AS (SELECT k.u, k.cmax,
                COALESCE(
                  (SELECT o.c FROM o
                   WHERE o.u = k.u AND o.rn = cand.prn),
                  (SELECT o.c FROM o
                   WHERE o.u = k.u AND o.rn = k.n)) AS pc
         FROM k LEFT JOIN cand ON cand.u = k.u)
SELECT CAST(COUNT(*) AS BIGINT) AS n_customers,
       CAST(SUM(CASE WHEN pc = cmax THEN 1 ELSE 0 END) AS BIGINT)
         AS n_success,
       ROUND(CAST(SUM(CASE WHEN pc = cmax THEN 1 ELSE 0 END)
                  AS DOUBLE) / COUNT(*), 6) AS success_rate
FROM pick
"""


def q_ar_aging_report(sf_dir: str):
    """Accounts-receivable aging report — finance's canonical open-
    orders bucket table: open ('O'-status) orders age from their
    order date to the corpus snapshot (max order date), land in the
    0-30/31-60/61-90/90+ day buckets, and each bucket reports exact
    counts and exact cents value.  One bounded reduce after one
    min/max probe; bucket edges are integer comparisons."""
    from ray.data.aggregate import Max, Sum
    orders = _read(sf_dir, "orders",
                   ["o_orderdate", "o_orderstatus", "o_totalprice"])

    snap = relational.ds_to_table(
        orders.map_batches(lambda t: pa.table({
            "_g": pa.array([0]),
            "d1": pa.array([int(t["o_orderdate"].to_numpy(
                zero_copy_only=False).astype("datetime64[us]")
                .astype(np.int64).max() // 86_400_000_000)])}),
            batch_format="pyarrow")
        .groupby("_g").aggregate(Max("d1", alias_name="d1"))
    ).to_pandas()
    d1 = int(snap["d1"].iloc[0])

    def part(t: pa.Table) -> pa.Table:
        st = t["o_orderstatus"].to_numpy(zero_copy_only=False)
        keep = st == "O"
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)[keep] \
            // 86_400_000_000
        cents = np.floor(t["o_totalprice"].to_numpy(
            zero_copy_only=False)[keep] * 100 + 0.5) \
            .astype(np.int64)
        age = d1 - day
        bkt = np.full(len(age), 3, dtype=np.int64)
        bkt[age <= 90] = 2
        bkt[age <= 60] = 1
        bkt[age <= 30] = 0
        g = pd.DataFrame({"bkt": bkt, "n": 1, "v": cents}) \
            .groupby("bkt", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        orders.map_batches(part, batch_format="pyarrow")
        .groupby("bkt").aggregate(Sum("n", alias_name="n"),
                                  Sum("v", alias_name="v"))
    ).to_pandas().set_index("bkt")
    labels = ["0-30", "31-60", "61-90", "90+"]
    rows = []
    for i, lab in enumerate(labels):
        n = int(agg.loc[i, "n"]) if i in agg.index else 0
        v = int(agg.loc[i, "v"]) if i in agg.index else 0
        rows.append({"bucket": lab, "n_open_orders": n,
                     "value_cents": v})
    return pd.DataFrame(rows).astype({
        "n_open_orders": np.int64, "value_cents": np.int64})


SQL_AR_AGING = """
WITH snap AS (SELECT MAX(epoch_us(o_orderdate) // 86400000000)
                AS d1
              FROM orders),
o AS (SELECT snap.d1 - epoch_us(o_orderdate) // 86400000000 AS age,
             CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS v
      FROM orders, snap WHERE o_orderstatus = 'O'),
b AS (SELECT CASE WHEN age <= 30 THEN '0-30'
                  WHEN age <= 60 THEN '31-60'
                  WHEN age <= 90 THEN '61-90'
                  ELSE '90+' END AS bucket, v
      FROM o),
lb AS (SELECT * FROM (VALUES ('0-30'), ('31-60'), ('61-90'),
                             ('90+')) t(bucket))
SELECT lb.bucket,
       CAST(COALESCE(COUNT(b.v), 0) AS BIGINT) AS n_open_orders,
       CAST(COALESCE(SUM(b.v), 0) AS BIGINT) AS value_cents
FROM lb LEFT JOIN b ON b.bucket = lb.bucket
GROUP BY 1 ORDER BY lb.bucket
"""


def q_kupiec_var_backtest(sf_dir: str):
    """Kupiec proportion-of-failures VaR backtest on daily revenue
    changes — the regulatory check (Basel's traffic light) that a
    95 % Value-at-Risk actually fails ~5 % of the time: the VaR is
    the exact lower 5 % order statistic of the first-half day-over-
    day changes, exceedances in the second half are exact integer
    counts, and the POF likelihood ratio
    −2·ln[(1−p)^{n−x}p^x / ((1−x̂)^{n−x}x̂^x)] is one mirrored
    expression (libm LN parity; x = 0 or x = n pin the degenerate
    terms to 0·ln(0) = 0 like the twin's CASE)."""
    dr = _daily_revenue_cents(sf_dir)
    d0, d1 = int(dr["day"].min()), int(dr["day"].max())
    nd = d1 - d0 + 1
    y = np.zeros(nd, dtype=np.int64)
    y[dr["day"].to_numpy(np.int64) - d0] = \
        dr["rev"].to_numpy(np.int64)
    ch = (y[1:] - y[:-1]).astype(np.int64)
    half = len(ch) // 2
    cal = np.sort(ch[:half])
    k = max(1, (half * 5) // 100)         # lower 5% rank (1-based)
    var_c = int(cal[k - 1])
    test = ch[half:]
    n = len(test)
    x = int((test < var_c).sum())
    p = 0.05
    if x == 0:
        # the (1 − x̂)^n term is ln(1) = 0
        lr = -2.0 * float(n) * math.log(1.0 - p)
    elif x == n:
        lr = -2.0 * float(n) * math.log(p) \
            + 2.0 * float(n) * math.log(float(x) / float(n))
    else:
        xh = float(x) / float(n)
        lr = -2.0 * (float(n - x) * math.log(1.0 - p)
                     + float(x) * math.log(p)
                     - float(n - x) * math.log(1.0 - xh)
                     - float(x) * math.log(xh))
    return pd.DataFrame([{
        "n_calibration": half, "n_test": n,
        "var_cents": var_c, "n_exceedances": x,
        "lr_pof": float(np.round(lr, 6)),
        "reject_95": lr > 3.841459}]).astype({
            "n_calibration": np.int64, "n_test": np.int64,
            "var_cents": np.int64, "n_exceedances": np.int64})


SQL_KUPIEC = """
WITH dr AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS rev
            FROM orders GROUP BY 1),
mm AS (SELECT MIN(day) AS d0, MAX(day) AS d1 FROM dr),
dense AS (SELECT g.day, COALESCE(dr.rev, 0) AS rev, g.idx
          FROM (SELECT mm.d0 + s AS day, s AS idx
                FROM mm, generate_series(0, 4095) t(s)
                WHERE mm.d0 + s <= mm.d1) g
          LEFT JOIN dr ON dr.day = g.day),
ch AS (SELECT idx - 1 AS i,
              rev - LAG(rev) OVER (ORDER BY idx) AS c
       FROM dense QUALIFY c IS NOT NULL),
nn AS (SELECT COUNT(*) AS m, COUNT(*) // 2 AS half FROM ch),
cal AS (SELECT c, ROW_NUMBER() OVER (ORDER BY c) AS rn
        FROM ch, nn WHERE i < nn.half),
vr AS (SELECT cal.c AS var_c FROM cal, nn
       WHERE cal.rn = GREATEST(1, (nn.half * 5) // 100)),
te AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
              CAST(SUM(CASE WHEN ch.c < vr.var_c THEN 1 ELSE 0 END)
                   AS BIGINT) AS x
       FROM ch, nn, vr WHERE ch.i >= nn.half),
f AS (SELECT nn.half, te.n, te.x, vr.var_c,
             CASE
               WHEN te.x = 0
                 THEN -2.0 * CAST(te.n AS DOUBLE) * LN(1.0 - 0.05)
               WHEN te.x = te.n
                 THEN -2.0 * CAST(te.n AS DOUBLE) * LN(0.05)
                      + 2.0 * CAST(te.n AS DOUBLE)
                        * LN(CAST(te.x AS DOUBLE)
                             / CAST(te.n AS DOUBLE))
               ELSE -2.0 * (CAST(te.n - te.x AS DOUBLE)
                            * LN(1.0 - 0.05)
                            + CAST(te.x AS DOUBLE) * LN(0.05)
                            - CAST(te.n - te.x AS DOUBLE)
                              * LN(1.0 - CAST(te.x AS DOUBLE)
                                   / CAST(te.n AS DOUBLE))
                            - CAST(te.x AS DOUBLE)
                              * LN(CAST(te.x AS DOUBLE)
                                   / CAST(te.n AS DOUBLE)))
             END AS lr
      FROM nn, te, vr)
SELECT CAST(half AS BIGINT) AS n_calibration, n AS n_test,
       CAST(var_c AS BIGINT) AS var_cents, x AS n_exceedances,
       ROUND(lr, 6) AS lr_pof, lr > 3.841459 AS reject_95
FROM f
"""


def q_lifecycle_consistency_audit(sf_dir: str):
    """Cross-table lifecycle consistency audit — the referential
    data-quality rule generic null checks miss: an order with status
    'F' (finished) must have ALL its lineitems in linestatus 'F',
    and an 'O' (open) order must have at least one 'O' lineitem.
    One bucketed orderkey join with per-bucket flag aggregation
    (≤2 partial rows per bucket); every count exact, violation
    shares one mirrored division each."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linestatus"]) \
        .map_batches(lambda t: pa.Table.from_pandas(
            pd.DataFrame({
                "o_orderkey": t["l_orderkey"].to_numpy(
                    zero_copy_only=False).astype(np.int64),
                "nf": (t["l_linestatus"].to_numpy(
                    zero_copy_only=False) == "F").astype(np.int64),
                "no": (t["l_linestatus"].to_numpy(
                    zero_copy_only=False) == "O").astype(np.int64),
                "nl": 1})
            .groupby("o_orderkey", sort=False).sum().reset_index(),
            preserve_index=False), batch_format="pyarrow") \
        .groupby("o_orderkey").aggregate(
            Sum("nf", alias_name="nf"), Sum("no", alias_name="no"),
            Sum("nl", alias_name="nl"))

    def combine(t: pa.Table) -> pa.Table:
        st = t["o_orderstatus"].to_numpy(zero_copy_only=False)
        nf = t["nf"].to_numpy(zero_copy_only=False)
        nl = t["nl"].to_numpy(zero_copy_only=False)
        no = t["no"].to_numpy(zero_copy_only=False)
        isf = st == "F"
        iso = st == "O"
        vf = isf & (nf != nl)               # F order, unshipped line
        vo = iso & (no == 0)                # O order, no open line
        return pa.table({
            "_g": pa.array([0]),
            "n_f": pa.array([int(isf.sum())]),
            "v_f": pa.array([int(vf.sum())]),
            "n_o": pa.array([int(iso.sum())]),
            "v_o": pa.array([int(vo.sum())])})

    agg = relational.ds_to_table(
        relational.bucketed_hash_join(orders, li, on="o_orderkey",
                                      combine=combine)
        .groupby("_g").aggregate(
            Sum("n_f", alias_name="n_f"),
            Sum("v_f", alias_name="v_f"),
            Sum("n_o", alias_name="n_o"),
            Sum("v_o", alias_name="v_o"))
    ).to_pandas()
    nf_, vf_ = int(agg["n_f"].iloc[0]), int(agg["v_f"].iloc[0])
    no_, vo_ = int(agg["n_o"].iloc[0]), int(agg["v_o"].iloc[0])
    return pd.DataFrame([
        {"rule": "F_order_all_lines_F", "n_checked": nf_,
         "n_violations": vf_,
         "violation_rate": None if nf_ == 0 else float(np.round(
             float(vf_) / float(nf_), 6))},
        {"rule": "O_order_has_open_line", "n_checked": no_,
         "n_violations": vo_,
         "violation_rate": None if no_ == 0 else float(np.round(
             float(vo_) / float(no_), 6))}]).astype({
        "n_checked": np.int64, "n_violations": np.int64})


SQL_LIFECYCLE_AUDIT = """
WITH la AS (SELECT l_orderkey,
                   SUM(CASE WHEN l_linestatus = 'F'
                       THEN 1 ELSE 0 END) AS nf,
                   SUM(CASE WHEN l_linestatus = 'O'
                       THEN 1 ELSE 0 END) AS no,
                   COUNT(*) AS nl
            FROM lineitem GROUP BY 1),
j AS (SELECT o.o_orderstatus AS st, la.nf, la.no, la.nl
      FROM orders o JOIN la ON la.l_orderkey = o.o_orderkey),
f AS (SELECT CAST(SUM(CASE WHEN st = 'F' THEN 1 ELSE 0 END)
               AS BIGINT) AS n_f,
             CAST(SUM(CASE WHEN st = 'F' AND nf <> nl
                      THEN 1 ELSE 0 END) AS BIGINT) AS v_f,
             CAST(SUM(CASE WHEN st = 'O' THEN 1 ELSE 0 END)
               AS BIGINT) AS n_o,
             CAST(SUM(CASE WHEN st = 'O' AND no = 0
                      THEN 1 ELSE 0 END) AS BIGINT) AS v_o
      FROM j)
SELECT 'F_order_all_lines_F' AS rule, n_f AS n_checked,
       v_f AS n_violations,
       CASE WHEN n_f = 0 THEN NULL
            ELSE ROUND(CAST(v_f AS DOUBLE) / CAST(n_f AS DOUBLE), 6)
       END AS violation_rate
FROM f
UNION ALL
SELECT 'O_order_has_open_line', n_o, v_o,
       CASE WHEN n_o = 0 THEN NULL
            ELSE ROUND(CAST(v_o AS DOUBLE) / CAST(n_o AS DOUBLE), 6)
       END
FROM f
ORDER BY rule
"""


_NW_LAGS = 7


def q_newey_west_se_revenue(sf_dir: str):
    """Newey–West (HAC) standard error of the daily-revenue mean
    with Bartlett weights at lag 7 — the econometric correction a
    serially-correlated series owes its error bars: the weighted
    long-run variance multiplies through by 8 so 8·Ω = 8γ₀ +
    2Σ_l(8−l)·γ_l is an EXACT integer combination of the n²-scaled
    autocovariances (arbitrary-precision ints, HUGEINT twin); the SE
    and the naive-iid SE divide once each, and their ratio is the
    serial-correlation inflation factor."""
    dr = _daily_revenue_cents(sf_dir)
    d0, d1 = int(dr["day"].min()), int(dr["day"].max())
    nd = d1 - d0 + 1
    y = np.zeros(nd, dtype=np.int64)
    y[dr["day"].to_numpy(np.int64) - d0] = \
        dr["rev"].to_numpy(np.int64)
    n = nd
    S = int(y.sum())
    dev = [n * int(v) - S for v in y]        # n-scaled deviations
    gam = []
    for lag in range(_NW_LAGS + 1):
        g = sum(dev[i] * dev[i + lag] for i in range(n - lag))
        gam.append(g)                        # n²·n·γ_l (scaled)
    omega8 = 8 * gam[0] + 2 * sum(
        (8 - lag) * gam[lag] for lag in range(1, _NW_LAGS + 1))
    # true γ_l = gam_l/(n³); Ω = omega8/(8n³); Var(mean) = Ω/n
    se_nw = math.sqrt(float(omega8) / 8.0) \
        / (float(n) ** 2)
    se_iid = math.sqrt(float(gam[0])) / (float(n) ** 2)
    return pd.DataFrame([{
        "n_days": n,
        "se_naive": float(np.round(se_iid, 6)),
        "se_newey_west": float(np.round(se_nw, 6)),
        "inflation": float(np.round(se_nw / se_iid, 6))}]).astype({
            "n_days": np.int64})


def _sql_newey_west() -> str:
    gam_cols = ",\n       ".join(
        f"(SELECT SUM(a.d * b.d) FROM dev a JOIN dev b "
        f"ON b.day = a.day + {lag}) AS g{lag}"
        for lag in range(_NW_LAGS + 1))
    omega = "8 * g0 + 2 * (" + " + ".join(
        f"{8 - lag} * g{lag}" for lag in range(1, _NW_LAGS + 1)) \
        + ")"
    return f"""
WITH dr AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS rev
            FROM orders GROUP BY 1),
mm AS (SELECT MIN(day) AS d0, MAX(day) AS d1 FROM dr),
dense AS (SELECT g.day, COALESCE(dr.rev, 0) AS rev
          FROM (SELECT mm.d0 + s AS day
                FROM mm, generate_series(0, 4095) t(s)
                WHERE mm.d0 + s <= mm.d1) g
          LEFT JOIN dr ON dr.day = g.day),
t AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(rev) AS s
      FROM dense),
dev AS (SELECT dense.day - (SELECT d0 FROM mm) AS day,
               t.n * dense.rev - t.s AS d
        FROM dense, t),
g AS (SELECT
       {gam_cols}
      FROM (SELECT 1)),
f AS (SELECT t.n, {omega} AS om8, g.g0 FROM g, t)
SELECT CAST(n AS BIGINT) AS n_days,
       ROUND(SQRT(CAST(g0 AS DOUBLE)) / (CAST(n AS DOUBLE)
             * CAST(n AS DOUBLE)), 6) AS se_naive,
       ROUND(SQRT(CAST(om8 AS DOUBLE) / 8.0)
             / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE)), 6)
         AS se_newey_west,
       ROUND((SQRT(CAST(om8 AS DOUBLE) / 8.0)
              / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE)))
             / (SQRT(CAST(g0 AS DOUBLE)) / (CAST(n AS DOUBLE)
                * CAST(n AS DOUBLE))), 6) AS inflation
FROM f
"""


_MI_PAIRS = (("o_orderpriority", "o_orderstatus"),
             ("o_orderpriority", "month"),
             ("o_orderstatus", "month"))


def q_mi_matrix_orders(sf_dir: str):
    """Mutual-information matrix over the orders categorical columns
    — the feature-redundancy screen a feature store runs before
    model training: for each column pair, I(X;Y) = Σ p·ln(p·N/
    (a·b)) with every entropy term NANO-QUANTIZED before summation
    (the registry's integer-entropy convention — SQL's unordered SUM
    cannot drift).  One bounded (x, y) reduce per pair; exact counts
    everywhere."""
    import math as _m
    from ray.data.aggregate import Sum
    rows = []
    for ca, cb in _MI_PAIRS:
        cols = [c for c in (ca, cb) if c != "month"]
        if "month" in (ca, cb):
            cols.append("o_orderdate")
        ds = _read(sf_dir, "orders", cols)

        def col(t, name):
            if name == "month":
                us = t["o_orderdate"].to_numpy(
                    zero_copy_only=False).astype("datetime64[us]")
                m = (us.astype("datetime64[M]").astype(np.int64)
                     % 12) + 1
                return m.astype(str)
            return t[name].to_numpy(zero_copy_only=False) \
                .astype(str)

        def partial(t: pa.Table, a=ca, b=cb) -> pa.Table:
            g = pd.DataFrame({
                "x": col(t, a), "y": col(t, b),
                "c": 1}).groupby(["x", "y"], sort=False) \
                .sum().reset_index()
            return pa.Table.from_pandas(g, preserve_index=False)

        xy = relational.ds_to_table(
            ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["x", "y"]).aggregate(
                Sum("c", alias_name="c"))
        ).to_pandas()
        N = int(xy["c"].sum())
        am = xy.groupby("x")["c"].sum().to_dict()
        bm = xy.groupby("y")["c"].sum().to_dict()
        minano = sum(
            int(_m.floor((int(r.c) / N)
                         * _m.log(int(r.c) * N
                                  / (int(am[r.x]) * int(bm[r.y])))
                         * 1e9 + 0.5))
            for r in xy.itertuples(index=False))
        rows.append({
            "col_a": ca, "col_b": cb, "n_cells": len(xy),
            "mi_nano": minano,
            "mi_nats": float(np.round(minano / 1e9, 6))})
    return pd.DataFrame(rows).sort_values(["col_a", "col_b"]) \
        .reset_index(drop=True).astype({
            "n_cells": np.int64, "mi_nano": np.int64})


def _sql_mi_matrix() -> str:
    parts = []
    for ca0, cb0 in _MI_PAIRS:
        mexpr = ("CAST(date_part('month', o_orderdate) AS VARCHAR)")
        ca = mexpr if ca0 == "month" else ca0
        cb = mexpr if cb0 == "month" else cb0
        parts.append(f"""
  SELECT '{ca0}' AS col_a, '{cb0}' AS col_b,
         CAST(COUNT(*) AS BIGINT) AS n_cells,
         CAST(SUM(CAST(FLOOR((CAST(c AS DOUBLE) / nn)
                  * LN(CAST(c AS DOUBLE) * nn
                       / (CAST(a AS DOUBLE) * CAST(b AS DOUBLE)))
                  * 1000000000.0 + 0.5) AS BIGINT)) AS BIGINT)
           AS mi_nano
  FROM (SELECT xy.c, ax.a, bx.b, t.nn
        FROM (SELECT CAST({ca} AS VARCHAR) AS x,
                     CAST({cb} AS VARCHAR) AS y,
                     CAST(COUNT(*) AS BIGINT) AS c
              FROM orders GROUP BY 1, 2) xy
        JOIN (SELECT CAST({ca} AS VARCHAR) AS x,
                     CAST(COUNT(*) AS BIGINT) AS a
              FROM orders GROUP BY 1) ax USING (x)
        JOIN (SELECT CAST({cb} AS VARCHAR) AS y,
                     CAST(COUNT(*) AS BIGINT) AS b
              FROM orders GROUP BY 1) bx USING (y)
        CROSS JOIN (SELECT CAST(COUNT(*) AS BIGINT) AS nn
                    FROM orders) t)""")
    body = "\nUNION ALL\n".join(parts)
    return f"""
WITH a AS ({body})
SELECT col_a, col_b, n_cells, mi_nano,
       ROUND(CAST(mi_nano AS DOUBLE) / 1e9, 6) AS mi_nats
FROM a ORDER BY col_a, col_b
"""


def q_carrying_cost_orders(sf_dir: str):
    """Time-weighted open-order value (inventory carrying cost) —
    the finance number behind working-capital planning: each order
    carries its value from order date to its LAST lineitem ship date
    (exact day spans through one bucketed orderkey join), and the
    corpus-wide carrying cost is Σ value·days — an exact integer in
    cent-days — with the average open value per calendar day as the
    mirrored division."""
    from ray.data.aggregate import Max, Sum
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_totalprice"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"]) \
        .map_batches(lambda t: pa.Table.from_pandas(
            pd.DataFrame({
                "o_orderkey": t["l_orderkey"].to_numpy(
                    zero_copy_only=False).astype(np.int64),
                "sday": t["l_shipdate"].to_numpy(
                    zero_copy_only=False).astype("datetime64[us]")
                .astype(np.int64) // 86_400_000_000})
            .groupby("o_orderkey", sort=False).max().reset_index(),
            preserve_index=False), batch_format="pyarrow") \
        .groupby("o_orderkey").aggregate(Max("sday",
                                             alias_name="sday"))

    def combine(t: pa.Table) -> pa.Table:
        oday = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        sday = t["sday"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cents = np.floor(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        dur = np.maximum(sday - oday, 0) + 1
        return pa.table({
            "_g": pa.array([0]),
            "n": pa.array([t.num_rows]),
            "cd": pa.array([int((cents * dur).sum())]),
            "dmin": pa.array([int(oday.min())]),
            "dmax": pa.array([int(sday.max())])})

    from ray.data.aggregate import Min
    agg = relational.ds_to_table(
        relational.bucketed_hash_join(orders, li, on="o_orderkey",
                                      combine=combine)
        .groupby("_g").aggregate(
            Sum("n", alias_name="n"), Sum("cd", alias_name="cd"),
            Min("dmin", alias_name="dmin"),
            Max("dmax", alias_name="dmax"))
    ).to_pandas()
    n = int(agg["n"].iloc[0])
    cd = int(agg["cd"].iloc[0])
    days = int(agg["dmax"].iloc[0]) - int(agg["dmin"].iloc[0]) + 1
    return pd.DataFrame([{
        "n_orders": n, "cent_days": cd, "window_days": days,
        "avg_open_value_cents": float(np.round(
            float(cd) / float(days), 6))}]).astype({
            "n_orders": np.int64, "cent_days": np.int64,
            "window_days": np.int64})


SQL_CARRYING_COST = """
WITH ls AS (SELECT l_orderkey,
                   MAX(epoch_us(l_shipdate) // 86400000000)
                     AS sday
            FROM lineitem GROUP BY 1),
j AS (SELECT epoch_us(o.o_orderdate) // 86400000000 AS oday,
             ls.sday,
             CAST(FLOOR(o.o_totalprice * 100 + 0.5) AS BIGINT)
               AS cents
      FROM orders o JOIN ls ON ls.l_orderkey = o.o_orderkey),
a AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             SUM(CAST(cents AS HUGEINT)
                 * (GREATEST(sday - oday, 0) + 1)) AS cd,
             MIN(oday) AS dmin, MAX(sday) AS dmax
      FROM j)
SELECT n AS n_orders, CAST(cd AS BIGINT) AS cent_days,
       CAST(dmax - dmin + 1 AS BIGINT) AS window_days,
       ROUND(CAST(cd AS DOUBLE) / CAST(dmax - dmin + 1 AS DOUBLE),
             6) AS avg_open_value_cents
FROM a
"""


def q_sign_test_weekly(sf_dir: str):
    """Paired sign test of week-over-week revenue growth — the
    assumption-free is-revenue-growing check (no normality, no
    symmetry, just signs): pairs (day, day−7) over the gap-filled
    calendar, S⁺ = #positive differences among nonzero ones (exact
    ints), and the continuity-corrected normal statistic
    z = (2S⁺ − m ∓ 1)/√m is the one mirrored expression."""
    dr = _daily_revenue_cents(sf_dir)
    d0, d1 = int(dr["day"].min()), int(dr["day"].max())
    nd = d1 - d0 + 1
    y = np.zeros(nd, dtype=np.int64)
    y[dr["day"].to_numpy(np.int64) - d0] = \
        dr["rev"].to_numpy(np.int64)
    diffs = y[7:] - y[:-7]
    m = int((diffs != 0).sum())
    sp = int((diffs > 0).sum())
    if m == 0:
        z = None
    else:
        num = 2.0 * float(sp) - float(m)
        num = num - 1.0 if num > 0 else \
            (num + 1.0 if num < 0 else 0.0)
        z = float(np.round(num / math.sqrt(float(m)), 6))
    return pd.DataFrame([{
        "n_pairs": len(diffs), "n_nonzero": m, "n_positive": sp,
        "z_sign": z}]).astype({
            "n_pairs": np.int64, "n_nonzero": np.int64,
            "n_positive": np.int64})


SQL_SIGN_TEST = """
WITH dr AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS rev
            FROM orders GROUP BY 1),
mm AS (SELECT MIN(day) AS d0, MAX(day) AS d1 FROM dr),
dense AS (SELECT g.day, COALESCE(dr.rev, 0) AS rev, g.idx
          FROM (SELECT mm.d0 + s AS day, s AS idx
                FROM mm, generate_series(0, 4095) t(s)
                WHERE mm.d0 + s <= mm.d1) g
          LEFT JOIN dr ON dr.day = g.day),
d AS (SELECT a.rev - b.rev AS diff
      FROM dense a JOIN dense b ON b.idx = a.idx - 7),
agg AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_pairs,
               CAST(SUM(CASE WHEN diff <> 0 THEN 1 ELSE 0 END)
                    AS BIGINT) AS m,
               CAST(SUM(CASE WHEN diff > 0 THEN 1 ELSE 0 END)
                    AS BIGINT) AS sp
        FROM d),
f AS (SELECT n_pairs, m, sp,
             2.0 * CAST(sp AS DOUBLE) - CAST(m AS DOUBLE) AS num
      FROM agg)
SELECT n_pairs, m AS n_nonzero, sp AS n_positive,
       CASE WHEN m = 0 THEN NULL
            ELSE ROUND((CASE WHEN num > 0 THEN num - 1.0
                             WHEN num < 0 THEN num + 1.0
                             ELSE 0.0 END)
                       / SQRT(CAST(m AS DOUBLE)), 6) END AS z_sign
FROM f
"""


def q_von_neumann_ratio_revenue(sf_dir: str):
    """Von Neumann ratio (mean-square successive difference test) on
    daily revenue — the classic is-the-series-random screen (η ≈ 2
    for white noise, → 0 under trend, → 4 under alternation),
    Durbin–Watson's ancestor applied to the RAW series: with
    n-scaling both Σ(xᵢ₊₁−xᵢ)² (already integral) and the variance
    denominator D = Σ(n·x−S)² are ARBITRARY-PRECISION integers and
    η = n²·(n·SSD)/( (n−1)·D )… the exact identity used is
    η = n³·SSD/((n−1)·D) — one mirrored division."""
    dr = _daily_revenue_cents(sf_dir)
    d0, d1 = int(dr["day"].min()), int(dr["day"].max())
    nd = d1 - d0 + 1
    y = np.zeros(nd, dtype=np.int64)
    y[dr["day"].to_numpy(np.int64) - d0] = \
        dr["rev"].to_numpy(np.int64)
    n = nd
    S = int(y.sum())
    ssd = sum((int(y[i + 1]) - int(y[i])) ** 2
              for i in range(n - 1))
    D = sum((n * int(v) - S) ** 2 for v in y)
    eta = float(n * n * n) * float(ssd) / (float(n - 1) * float(D))
    # ssd exceeds int64 at sf0.01 (65 bits) — the ratio carries it
    return pd.DataFrame([{
        "n_days": n,
        "von_neumann_eta": float(np.round(eta, 6)),
        "trending": eta < 1.0}]).astype({"n_days": np.int64})


SQL_VON_NEUMANN = """
WITH dr AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS rev
            FROM orders GROUP BY 1),
mm AS (SELECT MIN(day) AS d0, MAX(day) AS d1 FROM dr),
dense AS (SELECT g.day, COALESCE(dr.rev, 0) AS rev, g.idx
          FROM (SELECT mm.d0 + s AS day, s AS idx
                FROM mm, generate_series(0, 4095) t(s)
                WHERE mm.d0 + s <= mm.d1) g
          LEFT JOIN dr ON dr.day = g.day),
t AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(rev) AS s
      FROM dense),
sd AS (SELECT SUM(CAST(a.rev - b.rev AS HUGEINT)
                  * (a.rev - b.rev)) AS ssd
       FROM dense a JOIN dense b ON b.idx = a.idx + 1),
dd AS (SELECT SUM((t.n * rev - t.s) * (t.n * rev - t.s)) AS d
       FROM dense, t)
SELECT CAST(t.n AS BIGINT) AS n_days,
       ROUND(CAST(t.n * t.n * t.n AS DOUBLE) * CAST(sd.ssd
             AS DOUBLE)
             / (CAST(t.n - 1 AS DOUBLE) * CAST(dd.d AS DOUBLE)), 6)
         AS von_neumann_eta,
       CAST(t.n * t.n * t.n AS DOUBLE) * CAST(sd.ssd AS DOUBLE)
       / (CAST(t.n - 1 AS DOUBLE) * CAST(dd.d AS DOUBLE)) < 1.0
         AS trending
FROM t, sd, dd
"""


def _granger_lag1(y, x):
    """Lag-1 Granger F from two aligned integer series: restricted
    y_t ~ y_{t-1} vs unrestricted y_t ~ y_{t-1} + x_{t-1}.  Every
    centered moment C_ab = n·S_ab − S_a·S_b is an exact python int
    (HUGEINT in the twin); R² and F are the SAME double expressions on
    both sides (each C converts to double exactly once, all products
    run in double so nothing outgrows HUGEINT at any scale)."""
    yv = [int(v) for v in y[1:]]
    av = [int(v) for v in y[:-1]]
    bv = [int(v) for v in x[:-1]]
    n = len(yv)
    sy, sa, sb = sum(yv), sum(av), sum(bv)
    syy = sum(v * v for v in yv)
    saa = sum(v * v for v in av)
    sbb = sum(v * v for v in bv)
    say = sum(a * v for a, v in zip(av, yv))
    sby = sum(b * v for b, v in zip(bv, yv))
    sab = sum(a * b for a, b in zip(av, bv))
    cyy = n * syy - sy * sy
    caa = n * saa - sa * sa
    cbb = n * sbb - sb * sb
    cay = n * say - sa * sy
    cby = n * sby - sb * sy
    cab = n * sab - sa * sb
    r2r = float(cay) * cay / (float(caa) * cyy)
    r2u = (float(cay) * cay * cbb + float(cby) * cby * caa
           - 2.0 * float(cay) * cby * cab) \
        / (float(cyy) * (float(caa) * cbb - float(cab) * cab))
    f = (r2u - r2r) * (n - 3.0) / (1.0 - r2u)
    return {"n": n, "r2_restricted": round(r2r, 6),
            "r2_unrestricted": round(r2u, 6), "f_lag1": round(f, 6)}


def q_granger_orders_revenue(sf_dir: str):
    """Lag-1 Granger causality test: does yesterday's ORDER COUNT
    predict today's revenue beyond revenue's own momentum?  The
    econometric does-the-leading-indicator-help gate (F-test of the
    unrestricted AR(1)+exogenous-lag model against plain AR(1)).  The
    distributed part is ONE daily (Σ cents, count) reduce; the finish
    runs on the days-bounded gap-filled series with exact-int centered
    moments and mirrored double R²/F expressions (`_granger_lag1`).
    Adding a regressor can only grow R², so F ≥ 0 up to float echo."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) // 86_400_000_000
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"day": day, "pc_": cents, "pk_": 1}) \
            .groupby("day", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    d = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("pc_", alias_name="rev"),
                                  Sum("pk_", alias_name="cnt"))
    ).to_pandas().sort_values("day").reset_index(drop=True)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    rev = np.zeros(hi - lo + 1, dtype=np.int64)
    cnt = np.zeros(hi - lo + 1, dtype=np.int64)
    rev[days - lo] = d["rev"].to_numpy(np.int64)
    cnt[days - lo] = d["cnt"].to_numpy(np.int64)
    res = _granger_lag1(rev.tolist(), cnt.tolist())
    return pd.DataFrame([res]).astype({"n": np.int64})


SQL_GRANGER = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS rev,
                  CAST(COUNT(*) AS HUGEINT) AS cnt
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day, COALESCE(d.rev, 0) AS rev,
             COALESCE(d.cnt, 0) AS cnt
      FROM cal LEFT JOIN d USING (day)),
p AS (SELECT b.rev AS yv, a.rev AS av, a.cnt AS bv
      FROM s a JOIN s b ON b.day = a.day + 1),
m AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(yv) AS sy, SUM(av) AS sa, SUM(bv) AS sb,
             SUM(yv * yv) AS syy, SUM(av * av) AS saa,
             SUM(bv * bv) AS sbb, SUM(av * yv) AS say,
             SUM(bv * yv) AS sby, SUM(av * bv) AS sab
      FROM p),
c AS (SELECT n, n * syy - sy * sy AS cyy, n * saa - sa * sa AS caa,
             n * sbb - sb * sb AS cbb, n * say - sa * sy AS cay,
             n * sby - sb * sy AS cby, n * sab - sa * sb AS cab
      FROM m),
r AS (SELECT n,
        CAST(cay AS DOUBLE) * cay / (CAST(caa AS DOUBLE) * cyy) AS r2r,
        (CAST(cay AS DOUBLE) * cay * cbb + CAST(cby AS DOUBLE) * cby * caa
         - 2.0 * CAST(cay AS DOUBLE) * cby * cab)
        / (CAST(cyy AS DOUBLE) * (CAST(caa AS DOUBLE) * cbb
           - CAST(cab AS DOUBLE) * cab)) AS r2u
      FROM c)
SELECT CAST(n AS BIGINT) AS n, ROUND(r2r, 6) AS r2_restricted,
       ROUND(r2u, 6) AS r2_unrestricted,
       ROUND((r2u - r2r) * (n - 3.0) / (1.0 - r2u), 6) AS f_lag1
FROM r
"""


def q_durbin_watson_revenue(sf_dir: str):
    """Durbin–Watson serial-correlation test on the residuals of the
    daily-revenue-vs-time OLS line — the did-the-trend-model-miss-
    autocorrelation diagnostic read before trusting any regression
    forecast (DW≈2 independent, →0 positive, →4 negative serial
    correlation).  The distributed part is the shared daily cents
    reduce; the finish fits the line from EXACT integer centered
    moments (b = cxy/cxx, one double division), evaluates per-day
    residuals as mirrored doubles on the days-bounded series, and
    DW = Σ(Δe)²/Σe² rounds at 6 dp (a scale-free ratio near 0..4, so
    the summation-order echo is ~1e-12 absolute)."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    series = np.zeros(hi - lo + 1, dtype=np.int64)
    series[days - lo] = d["rev"].to_numpy(np.int64)
    ys = [int(v) for v in series]
    n = len(ys)
    sx = n * (n - 1) // 2
    sxx = sum(t * t for t in range(n))
    sy = sum(ys)
    sxy = sum(t * v for t, v in enumerate(ys))
    cxx = n * sxx - sx * sx
    cxy = n * sxy - sx * sy
    b = float(cxy) / cxx
    a = (float(sy) - b * sx) / n
    t = np.arange(n, dtype=np.float64)
    e = series.astype(np.float64) - a - b * t
    dw = float(np.sum(np.diff(e) ** 2)) / float(np.sum(e * e))
    return pd.DataFrame({"n": pd.array([n], dtype=np.int64),
                         "dw": [round(dw, 6)]})


SQL_DURBIN_WATSON = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day - (SELECT lo FROM bounds) AS t,
             COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d ON d.day = cal.day),
m AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(CAST(t AS HUGEINT)) AS sx,
             SUM(CAST(t AS HUGEINT) * t) AS sxx,
             SUM(rev) AS sy, SUM(CAST(t AS HUGEINT) * rev) AS sxy
      FROM s),
coef AS (SELECT n,
           CAST(n * sxy - sx * sy AS DOUBLE)
             / (n * sxx - sx * sx) AS b,
           (CAST(sy AS DOUBLE)
            - CAST(n * sxy - sx * sy AS DOUBLE)
              / (n * sxx - sx * sx) * sx) / n AS a
         FROM m),
e AS (SELECT s.t, s.rev - coef.a - coef.b * s.t AS e FROM s, coef),
l AS (SELECT e, LAG(e) OVER (ORDER BY t) AS pe FROM e)
SELECT (SELECT CAST(n AS BIGINT) FROM m) AS n,
       ROUND(SUM(CASE WHEN pe IS NOT NULL
                      THEN (e - pe) * (e - pe) END)
             / SUM(e * e), 6) AS dw
FROM l
"""


def q_runs_test_revenue(sf_dir: str):
    """Wald–Wolfowitz runs test of the gap-filled daily revenue
    series against its own median — the distribution-free
    is-the-sequence-random check (too FEW runs ⇒ positive serial
    dependence/trend, too MANY ⇒ oscillation) that complements the
    parametric Durbin–Watson.  The median is the exact (n+1)//2-th
    smallest cents value (an integer order statistic, no
    interpolation), signs and the run count R are exact ints, and
    μ/σ/z are mirrored float expressions of (n, n1, n0, R)."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    series = np.zeros(hi - lo + 1, dtype=np.int64)
    series[days - lo] = d["rev"].to_numpy(np.int64)
    n = len(series)
    med = int(np.sort(series)[(n - 1) // 2])
    sgn = (series > med).astype(np.int64)
    r = 1 + int(np.sum(sgn[1:] != sgn[:-1]))
    n1 = int(sgn.sum())
    n0 = n - n1
    mu = 1.0 + 2.0 * n1 * n0 / n
    var = (2.0 * n1 * n0) * ((2.0 * n1 * n0) - n) \
        / (float(n) * n * (n - 1.0))
    z = (r - mu) / math.sqrt(var)
    return pd.DataFrame({"n": pd.array([n], dtype=np.int64),
                         "n_above": pd.array([n1], dtype=np.int64),
                         "runs": pd.array([r], dtype=np.int64),
                         "mu": [round(mu, 6)], "z": [round(z, 6)]})


SQL_RUNS_TEST = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day, COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d USING (day)),
med AS (SELECT rev AS m
        FROM (SELECT rev, ROW_NUMBER() OVER (ORDER BY rev) AS rn,
                     COUNT(*) OVER () AS nn FROM s)
        WHERE rn = (nn + 1) // 2),
sg AS (SELECT day, CASE WHEN rev > (SELECT m FROM med)
                        THEN 1 ELSE 0 END AS sgn FROM s),
rr AS (SELECT SUM(CASE WHEN pe IS NULL OR sgn <> pe
                       THEN 1 ELSE 0 END) AS r
       FROM (SELECT sgn, LAG(sgn) OVER (ORDER BY day) AS pe FROM sg)),
c AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(sgn) AS BIGINT) AS n1,
             CAST(SUM(1 - sgn) AS BIGINT) AS n0 FROM sg)
SELECT c.n, c.n1 AS n_above, CAST(rr.r AS BIGINT) AS runs,
       ROUND(1.0 + 2.0 * c.n1 * c.n0 / c.n, 6) AS mu,
       ROUND((rr.r - (1.0 + 2.0 * c.n1 * c.n0 / c.n))
             / SQRT((2.0 * c.n1 * c.n0) * ((2.0 * c.n1 * c.n0) - c.n)
                    / (CAST(c.n AS DOUBLE) * c.n * (c.n - 1.0))), 6)
         AS z
FROM c, rr
"""


def q_cooks_distance_days(sf_dir: str):
    """Top-10 most influential days in the daily-revenue-vs-time OLS
    fit by Cook's distance — the which-points-own-my-regression
    diagnostic beside Durbin–Watson.  Residuals and leverages
    h = 1/n + (t−x̄)²/(Sxx/n) derive from exact-int moments through
    IDENTICAL float ops on both sides, so the ranking key
    r = e²·h/(1−h)² is bit-identical and the top-10 under
    (r DESC, day) can never flip; the common factor 1/(p·s²) —
    the only summation-order-sensitive quantity — scales every row
    equally and only appears in the displayed 6-dp value."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    series = np.zeros(hi - lo + 1, dtype=np.int64)
    series[days - lo] = d["rev"].to_numpy(np.int64)
    ys = [int(v) for v in series]
    n = len(ys)
    sx = n * (n - 1) // 2
    sxx = sum(t * t for t in range(n))
    sy = sum(ys)
    sxy = sum(t * v for t, v in enumerate(ys))
    cxx = n * sxx - sx * sx
    cxy = n * sxy - sx * sy
    b = float(cxy) / cxx
    a = (float(sy) - b * sx) / n
    t = np.arange(n, dtype=np.float64)
    y = series.astype(np.float64)
    e = y - a - b * t
    h = 1.0 / n + (t - float(sx) / n) * (t - float(sx) / n) \
        / (float(cxx) / n)
    r = e * e * h / ((1.0 - h) * (1.0 - h))
    s2 = float(np.sum(e * e)) / (n - 2)
    top = sorted(range(n), key=lambda i: (-r[i], i))[:10]
    return pd.DataFrame({
        "day": pd.array([lo + i for i in top], dtype=np.int64),
        "leverage": [round(h[i], 6) for i in top],
        "d_cook": [round(r[i] / (2.0 * s2), 6) for i in top]})


SQL_COOKS_DISTANCE = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day, cal.day - (SELECT lo FROM bounds) AS t,
             COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d ON d.day = cal.day),
m AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(CAST(t AS HUGEINT)) AS sx,
             SUM(CAST(t AS HUGEINT) * t) AS sxx,
             SUM(rev) AS sy, SUM(CAST(t AS HUGEINT) * rev) AS sxy
      FROM s),
coef AS (SELECT n, sx,
           n * sxx - sx * sx AS cxx,
           CAST(n * sxy - sx * sy AS DOUBLE)
             / (n * sxx - sx * sx) AS b,
           (CAST(sy AS DOUBLE)
            - CAST(n * sxy - sx * sy AS DOUBLE)
              / (n * sxx - sx * sx) * sx) / n AS a
         FROM m),
eh AS (SELECT s.day,
              s.rev - coef.a - coef.b * s.t AS e,
              1.0 / coef.n
                + (s.t - CAST(coef.sx AS DOUBLE) / coef.n)
                  * (s.t - CAST(coef.sx AS DOUBLE) / coef.n)
                  / (CAST(coef.cxx AS DOUBLE) / coef.n) AS h
       FROM s, coef),
rk AS (SELECT day, h,
              e * e * h / ((1.0 - h) * (1.0 - h)) AS r
       FROM eh),
s2 AS (SELECT SUM(e * e) / (MAX(coef.n) - 2) AS v
       FROM eh, coef)
SELECT day, ROUND(h, 6) AS leverage,
       ROUND(r / (2.0 * (SELECT v FROM s2)), 6) AS d_cook
FROM rk
QUALIFY ROW_NUMBER() OVER (ORDER BY r DESC, day) <= 10
ORDER BY r DESC, day
"""


def _pacf_phi(r: list[float], max_lag: int = 5) -> list[float]:
    """Durbin–Levinson recursion on common-mean autocorrelations:
    returns [φ11, φ22, …].  Every arithmetic step is a left-associated
    chain of the SAME subtract/multiply/divide ops the generated SQL
    expressions evaluate, so the two sides agree bit-for-bit."""
    phi = {(1, 1): r[1]}
    out = [r[1]]
    for k in range(2, max_lag + 1):
        num = r[k]
        for j in range(1, k):
            num = num - phi[(k - 1, j)] * r[k - j]
        den = 1.0
        for j in range(1, k):
            den = den - phi[(k - 1, j)] * r[j]
        pkk = num / den
        for j in range(1, k):
            phi[(k, j)] = phi[(k - 1, j)] - pkk * phi[(k - 1, k - j)]
        phi[(k, k)] = pkk
        out.append(pkk)
    return out


def q_pacf_daily_revenue(sf_dir: str):
    """Partial autocorrelation (lags 1–5, Durbin–Levinson) of the
    gap-filled daily revenue — the AR-order-selection diagnostic the
    plain ACF can't give (PACF cuts off at the true AR order; ACF only
    decays).  Autocorrelations use the common-mean scaled series
    Xₜ = n·xₜ − S so every ρ_k is a ratio of EXACT integers
    (Σ XₜXₜ₊ₖ / Σ Xₜ², python int / HUGEINT); the recursion then runs
    identical left-associated double chains on both sides
    (`_pacf_phi` ↔ the generated SQL expression tree)."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    series = np.zeros(hi - lo + 1, dtype=np.int64)
    series[days - lo] = d["rev"].to_numpy(np.int64)
    xs = [int(v) for v in series]
    n = len(xs)
    S = sum(xs)
    X = [n * v - S for v in xs]
    den = sum(v * v for v in X)
    r = [1.0]
    for k in range(1, 6):
        num = sum(X[t] * X[t + k] for t in range(n - k))
        r.append(float(num) / den)
    phis = _pacf_phi(r, 5)
    return pd.DataFrame({"k": pd.array(range(1, 6), dtype=np.int64),
                         "pacf": [round(v, 6) for v in phis]})


def _sql_pacf() -> str:
    """Generated Durbin–Levinson twin: CTE `r` carries ρ₁..ρ₅ as exact
    integer ratios; one CTE pair per order k adds φ_kk then the
    updated φ_kj row, with left-associated expression text matching
    `_pacf_phi` term for term."""
    stages = []
    prev = "p1"
    cols = {(1, 1): "f1_1"}
    for k in range(2, 6):
        num = f"r{k}"
        for j in range(1, k):
            num += f" - {cols[(k - 1, j)]} * r{k - j}"
        den = "1.0"
        for j in range(1, k):
            den += f" - {cols[(k - 1, j)]} * r{j}"
        stages.append(
            f"p{k}a AS (SELECT *, ({num}) / ({den}) AS f{k}_{k}"
            f" FROM {prev})")
        upd = ", ".join(
            f"{cols[(k - 1, j)]} - f{k}_{k} * {cols[(k - 1, k - j)]}"
            f" AS f{k}_{j}" for j in range(1, k))
        stages.append(f"p{k} AS (SELECT *, {upd} FROM p{k}a)")
        for j in range(1, k):
            cols[(k, j)] = f"f{k}_{j}"
        cols[(k, k)] = f"f{k}_{k}"
        prev = f"p{k}"
    chain = ",\n".join(stages)
    un = " UNION ALL ".join(
        f"SELECT {k} AS k, ROUND(f{k}_{k}, 6) AS pacf FROM p5"
        for k in range(1, 6))
    return f"""
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day - (SELECT lo FROM bounds) AS t,
             COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d ON d.day = cal.day),
g AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(rev) AS sv FROM s),
x AS (SELECT s.t, g.n * s.rev - g.sv AS xc FROM s, g),
den AS (SELECT SUM(xc * xc) AS d0 FROM x),
r AS (SELECT
        (SELECT CAST(SUM(a.xc * b.xc) AS DOUBLE) FROM x a
         JOIN x b ON b.t = a.t + 1) / (SELECT d0 FROM den) AS r1,
        (SELECT CAST(SUM(a.xc * b.xc) AS DOUBLE) FROM x a
         JOIN x b ON b.t = a.t + 2) / (SELECT d0 FROM den) AS r2,
        (SELECT CAST(SUM(a.xc * b.xc) AS DOUBLE) FROM x a
         JOIN x b ON b.t = a.t + 3) / (SELECT d0 FROM den) AS r3,
        (SELECT CAST(SUM(a.xc * b.xc) AS DOUBLE) FROM x a
         JOIN x b ON b.t = a.t + 4) / (SELECT d0 FROM den) AS r4,
        (SELECT CAST(SUM(a.xc * b.xc) AS DOUBLE) FROM x a
         JOIN x b ON b.t = a.t + 5) / (SELECT d0 FROM den) AS r5),
p1 AS (SELECT *, r1 AS f1_1 FROM r),
{chain}
SELECT k, pacf FROM ({un}) ORDER BY k
"""


def q_friedman_priority_months(sf_dir: str):
    """Friedman rank test of order-priority revenue across months —
    the distribution-free repeated-measures ANOVA: does some priority
    consistently out-earn the others month after month?  Blocks =
    months carrying ALL 5 priorities, treatments = priorities, value
    = exact revenue cents from one (month, priority) reduce (bounded
    by months×5).  Within-block average ranks are kept as DOUBLED
    integers (a tie group's 2·avg-rank = 2·RANK + ties − 1 is always
    an int), so rank sums and Σ R² fold exactly; the χ² statistic
    3·ΣR2²/(n·k(k+1)) − 3n(k+1) with R = R2/2 becomes ONE mirrored
    double expression of exact ints."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders",
                   ["o_orderdate", "o_orderpriority", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        us = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]")
        mon = us.astype("datetime64[M]").astype(np.int64) + 1970 * 12
        cents = np.floor(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({
            "mon": mon,
            "prio": t["o_orderpriority"].to_numpy(
                zero_copy_only=False),
            "v": cents}).groupby(["mon", "prio"], sort=False) \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    mv = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby(["mon", "prio"]).aggregate(Sum("v", alias_name="v"))
    ).to_pandas()
    k = 5
    full = mv.groupby("mon")["prio"].transform("size") == k
    mv = mv[full].copy()
    n_blocks = mv["mon"].nunique()
    # doubled average ranks stay integral under ties
    mv["r2"] = (mv.groupby("mon")["v"]
                .rank(method="average") * 2).astype(np.int64)
    r2 = mv.groupby("prio")["r2"].sum().sort_index()
    s2 = sum(int(x) * int(x) for x in r2)
    chi2 = float(3 * s2) / float(n_blocks * k * (k + 1)) \
        - 3.0 * float(n_blocks * (k + 1))
    out = pd.DataFrame([{
        "n_months": n_blocks, "k_treatments": k,
        "sum_r2_sq": s2,
        "chi2": float(np.round(chi2, 6))}]).astype({
            "n_months": np.int64, "k_treatments": np.int64,
            "sum_r2_sq": np.int64})
    return out


SQL_FRIEDMAN = """
WITH mv AS (SELECT date_part('year', o_orderdate) * 12
                   + date_part('month', o_orderdate) - 1 AS mon,
                   o_orderpriority AS prio,
                   SUM(CAST(FLOOR(o_totalprice * 100 + 0.5)
                            AS HUGEINT)) AS v
            FROM orders GROUP BY 1, 2),
fullb AS (SELECT mon FROM mv GROUP BY 1 HAVING COUNT(*) = 5),
r AS (SELECT mv.mon, mv.prio,
             2 * RANK() OVER (PARTITION BY mv.mon ORDER BY mv.v)
             + COUNT(*) OVER (PARTITION BY mv.mon, mv.v) - 1 AS r2
      FROM mv JOIN fullb USING (mon)),
rs AS (SELECT prio, SUM(r2) AS r2s FROM r GROUP BY 1),
agg AS (SELECT (SELECT COUNT(*) FROM fullb) AS n,
               (SELECT SUM(r2s * r2s) FROM rs) AS s2)
SELECT CAST(n AS BIGINT) AS n_months, CAST(5 AS BIGINT)
         AS k_treatments,
       CAST(s2 AS BIGINT) AS sum_r2_sq,
       ROUND(CAST(3 * s2 AS DOUBLE) / CAST(n * 5 * 6 AS DOUBLE)
             - 3.0 * CAST(n * 6 AS DOUBLE), 6) AS chi2
FROM agg
"""


def q_jonckheere_terpstra_priority(sf_dir: str):
    """Jonckheere–Terpstra ordered-alternative test: does order value
    INCREASE along the priority ladder 1-URGENT → 5-LOW?  The right
    test when the alternative is monotone (Kruskal–Wallis wastes power
    ignoring the order).  JT = Σ_{i<j} U_ij over the 10 ordered group
    pairs; carrying 2U keeps the ½-tie exact: 2U_ij = Σ_v 2·c_j(v)·
    cum_i(<v) + c_j(v)·c_i(v), all arbitrary-precision integers from
    ONE bounded (priority, cents)-distinct reduce.  Null moments use
    the standard no-tie JT variance 72·V = N²(2N+3) − Σnᵢ²(2nᵢ+3)
    (prices are distinct to the cent here); z spends the mirrored
    float ops (u2−e2)/(2·√(var/72)).  At 100× the |V|-sized reduce
    swaps for the rank-bucketed prefix fold the AUC op uses."""
    from ray.data.aggregate import Sum
    o = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        grp = np.array([int(s[0]) for s in
                        t["o_orderpriority"].to_pylist()],
                       dtype=np.int64)
        v = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"grp": grp, "v": v, "c": 1}) \
            .groupby(["grp", "v"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        o.map_batches(partial, batch_format="pyarrow")
        .groupby(["grp", "v"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    piv = g.pivot_table(index="v", columns="grp", values="c",
                        fill_value=0, aggfunc="sum").sort_index()
    for k in range(1, 6):
        if k not in piv.columns:
            piv[k] = 0
    counts = piv[[1, 2, 3, 4, 5]].to_numpy(np.int64).astype(object)
    cumlt = np.cumsum(counts, axis=0) - counts
    u2 = 0
    for i in range(5):
        for j in range(i + 1, 5):
            u2 += int((2 * counts[:, j] * cumlt[:, i]
                       + counts[:, j] * counts[:, i]).sum())
    ni = [int(c) for c in counts.sum(axis=0)]
    N = sum(ni)
    e2 = sum(ni[i] * ni[j] for i in range(5) for j in range(i + 1, 5))
    var_num = N * N * (2 * N + 3) - sum(x * x * (2 * x + 3)
                                        for x in ni)
    z = (float(u2) - float(e2)) \
        / (2.0 * float(np.sqrt(float(var_num) / 72.0)))
    return pd.DataFrame([{
        "n_total": N, "u_doubled": u2, "e_doubled": e2,
        "var72_num": var_num, "z_jt": np.round(z, 6)}]).astype({
            "n_total": np.int64, "u_doubled": np.int64,
            "e_doubled": np.int64, "var72_num": np.int64})


SQL_JONCKHEERE = """
WITH o AS (SELECT CAST(substr(o_orderpriority, 1, 1) AS INT) AS grp,
                  CAST(ROUND(o_totalprice * 100) AS BIGINT) AS v
           FROM orders),
g AS (SELECT grp, v, CAST(COUNT(*) AS BIGINT) AS c
      FROM o GROUP BY 1, 2),
u AS (SELECT SUM(CASE WHEN a.v < b.v
                      THEN 2 * CAST(a.c AS HUGEINT) * b.c
                      WHEN a.v = b.v THEN CAST(a.c AS HUGEINT) * b.c
                      ELSE 0 END) AS u2
      FROM g a JOIN g b ON a.grp < b.grp),
n AS (SELECT grp, CAST(COUNT(*) AS HUGEINT) AS ni FROM o GROUP BY 1),
e AS (SELECT SUM(a.ni * b.ni) AS e2
      FROM n a JOIN n b ON a.grp < b.grp),
t AS (SELECT SUM(ni) AS nn,
             SUM(ni * ni * (2 * ni + 3)) AS corr FROM n)
SELECT CAST(t.nn AS BIGINT) AS n_total,
       CAST(u.u2 AS BIGINT) AS u_doubled,
       CAST(e.e2 AS BIGINT) AS e_doubled,
       CAST(t.nn * t.nn * (2 * t.nn + 3) - t.corr AS BIGINT)
         AS var72_num,
       ROUND((CAST(u.u2 AS DOUBLE) - CAST(e.e2 AS DOUBLE))
             / (2 * SQRT(CAST(t.nn * t.nn * (2 * t.nn + 3) - t.corr
                              AS DOUBLE) / 72.0)), 6) AS z_jt
FROM u, e, t
"""


SQL_DAILY_SPARSE = """
dr AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
              SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS rev
       FROM orders GROUP BY 1)
"""


def q_permutation_entropy_revenue(sf_dir: str):
    """Bandt–Pompe permutation entropy (order m = 3) of the daily
    revenue series — the complexity-of-a-time-series number that sees
    dynamics where value histograms can't (a shuffled and a sorted
    series share a histogram but not their ordinal patterns).  Each
    consecutive day triple classifies into one of 6 ordinal patterns
    via STABLE-argsort tie policy (earlier position wins ties ⇒ the
    three pairwise ≤ comparisons decide everything — pure integer
    compares on exact cents).  Pattern counts are exact; entropy uses
    the repo's nano-quantized c·ln c fold so SQL's unordered SUM
    cannot drift, and Σc ln c enters H = ln N − Σ/1e9/N through
    mirrored divisions.  h_norm = H/ln 6 ∈ [0, 1]."""
    d = _daily_revenue_cents(sf_dir)
    r = d["rev"].to_numpy(np.int64)
    a, b, c = r[:-2], r[1:-1], r[2:]
    ab, ac, bc = a <= b, a <= c, b <= c
    pat = np.where(
        ab & bc, "012",
        np.where(ab & ~bc & ac, "021",
                 np.where(ab & ~bc & ~ac, "201",
                          np.where(~ab & ac, "102",
                                   np.where(~ab & ~ac & bc, "120",
                                            "210")))))
    nw = len(pat)
    counts = {p: int((pat == p).sum())
              for p in ["012", "021", "102", "120", "201", "210"]}
    s9 = sum(int(np.floor(cnt * np.log(float(cnt)) * 1e9 + 0.5))
             for cnt in counts.values() if cnt > 0)
    h = float(np.log(float(nw))) - s9 / 1e9 / nw
    h_norm = h / float(np.log(6.0))
    row = {"n_windows": nw}
    row.update({f"c{p}": counts[p] for p in sorted(counts)})
    row["h_nat"] = np.round(h, 6)
    row["h_norm"] = np.round(h_norm, 6)
    out = pd.DataFrame([row])
    return out.astype({k: np.int64 for k in out.columns
                       if k.startswith(("n_", "c"))})


SQL_PERM_ENTROPY = f"""
WITH {SQL_DAILY_SPARSE.strip()},
w AS (SELECT rev AS a,
             LEAD(rev, 1) OVER (ORDER BY day) AS b,
             LEAD(rev, 2) OVER (ORDER BY day) AS c
      FROM dr),
p AS (SELECT CASE
        WHEN a <= b AND b <= c THEN '012'
        WHEN a <= b AND NOT b <= c AND a <= c THEN '021'
        WHEN a <= b AND NOT b <= c AND NOT a <= c THEN '201'
        WHEN NOT a <= b AND a <= c THEN '102'
        WHEN NOT a <= b AND NOT a <= c AND b <= c THEN '120'
        ELSE '210' END AS pat
      FROM w WHERE c IS NOT NULL),
g AS (SELECT pat, CAST(COUNT(*) AS BIGINT) AS c FROM p GROUP BY 1),
t AS (SELECT SUM(c) AS nw,
             SUM(CAST(FLOOR(c * LN(CAST(c AS DOUBLE)) * 1e9 + 0.5)
                      AS BIGINT)) AS s9
      FROM g),
f AS (SELECT nw, LN(CAST(nw AS DOUBLE)) - s9 / 1e9 / nw AS h FROM t)
SELECT CAST(f.nw AS BIGINT) AS n_windows,
       COALESCE((SELECT c FROM g WHERE pat = '012'), 0) AS c012,
       COALESCE((SELECT c FROM g WHERE pat = '021'), 0) AS c021,
       COALESCE((SELECT c FROM g WHERE pat = '102'), 0) AS c102,
       COALESCE((SELECT c FROM g WHERE pat = '120'), 0) AS c120,
       COALESCE((SELECT c FROM g WHERE pat = '201'), 0) AS c201,
       COALESCE((SELECT c FROM g WHERE pat = '210'), 0) AS c210,
       ROUND(f.h, 6) AS h_nat, ROUND(f.h / LN(6), 6) AS h_norm
FROM f
"""


def q_turning_points_revenue(sf_dir: str):
    """Turning-points randomness test on daily revenue — the oldest
    is-this-series-iid screen: count STRICT local peaks and troughs
    (ties kill a turning point, mirrored by strict <‌/> compares on
    exact cents); under iid E[T] = 2(n−2)/3 and V = (16n−29)/90, so
    the cleared numerator 3T − 2(n−2) stays integer and
    z = num/(3·√((16n−29)/90)) spends the mirrored float ops.  Too
    FEW turning points ⇒ trending; too many ⇒ oscillating faster
    than chance."""
    d = _daily_revenue_cents(sf_dir)
    r = d["rev"].to_numpy(np.int64)
    n = len(r)
    a, b, c = r[:-2], r[1:-1], r[2:]
    t_cnt = int((((a < b) & (b > c)) | ((a > b) & (b < c))).sum())
    num = 3 * t_cnt - 2 * (n - 2)
    z = float(num) / (3.0 * float(np.sqrt((16 * n - 29) / 90.0)))
    return pd.DataFrame([{
        "n_days": n, "n_turning": t_cnt, "num3": num,
        "z_turning": np.round(z, 6)}]).astype({
            "n_days": np.int64, "n_turning": np.int64,
            "num3": np.int64})


SQL_TURNING_POINTS = f"""
WITH {SQL_DAILY_SPARSE.strip()},
w AS (SELECT rev AS b,
             LAG(rev) OVER (ORDER BY day) AS a,
             LEAD(rev) OVER (ORDER BY day) AS c
      FROM dr),
t AS (SELECT CAST((SELECT COUNT(*) FROM dr) AS BIGINT) AS n,
             CAST(SUM(CASE WHEN (a < b AND b > c)
                             OR (a > b AND b < c)
                           THEN 1 ELSE 0 END) AS BIGINT) AS tc
      FROM w WHERE a IS NOT NULL AND c IS NOT NULL)
SELECT n AS n_days, tc AS n_turning,
       3 * tc - 2 * (n - 2) AS num3,
       ROUND(CAST(3 * tc - 2 * (n - 2) AS DOUBLE)
             / (3 * SQRT((16 * n - 29) / 90.0)), 6) AS z_turning
FROM t
"""


def q_foster_stuart_records(sf_dir: str):
    """Foster–Stuart records test on daily revenue — trend detection
    from RECORD events alone (upper records U = strict new maxima
    after day 1, lower records L = strict new minima): D = U − L has
    E[D] = 0 under iid and Var(D) = 2·Σ_{k=2..n} 1/k.  The harmonic
    sum is folded as Σ⌊10¹²/k⌋ — INTEGER division, so both engines
    hold the identical integer and the single √ is mirrored:
    z = D/√(2·h2/1e12).  Records scream 'trend' long before means
    move; the classic pre-CUSUM change screen."""
    d = _daily_revenue_cents(sf_dir)
    r = d["rev"].to_numpy(np.int64)
    n = len(r)
    run_max = np.maximum.accumulate(r)[:-1]
    run_min = np.minimum.accumulate(r)[:-1]
    u = int((r[1:] > run_max).sum())
    lo = int((r[1:] < run_min).sum())
    h2 = sum(10 ** 12 // k for k in range(2, n + 1))
    z = float(u - lo) / float(np.sqrt(2.0 * h2 / 1e12))
    return pd.DataFrame([{
        "n_days": n, "n_up_records": u, "n_down_records": lo,
        "d_stat": u - lo, "z_records": np.round(z, 6)}]).astype({
            "n_days": np.int64, "n_up_records": np.int64,
            "n_down_records": np.int64, "d_stat": np.int64})


SQL_FOSTER_STUART = f"""
WITH {SQL_DAILY_SPARSE.strip()},
w AS (SELECT rev,
             MAX(rev) OVER (ORDER BY day
                            ROWS BETWEEN UNBOUNDED PRECEDING
                            AND 1 PRECEDING) AS pmax,
             MIN(rev) OVER (ORDER BY day
                            ROWS BETWEEN UNBOUNDED PRECEDING
                            AND 1 PRECEDING) AS pmin
      FROM dr),
t AS (SELECT CAST((SELECT COUNT(*) FROM dr) AS BIGINT) AS n,
             CAST(SUM(CASE WHEN rev > pmax THEN 1 ELSE 0 END)
                  AS BIGINT) AS u,
             CAST(SUM(CASE WHEN rev < pmin THEN 1 ELSE 0 END)
                  AS BIGINT) AS lo
      FROM w WHERE pmax IS NOT NULL),
h AS (SELECT SUM(1000000000000 // k) AS h2
      FROM (SELECT unnest(generate_series(2, (SELECT CAST(n AS INT)
                                              FROM t))) AS k))
SELECT t.n AS n_days, t.u AS n_up_records, t.lo AS n_down_records,
       t.u - t.lo AS d_stat,
       ROUND(CAST(t.u - t.lo AS DOUBLE)
             / SQRT(2.0 * h.h2 / 1e12), 6) AS z_records
FROM t, h
"""


def q_chain_ladder_orders(sf_dir: str):
    """Chain-ladder run-off projection — actuarial reserving's
    workhorse — on the order→ship development stream: origin = order
    month, development lag = calendar-month difference to the ship
    month (window 0..4), 'paid' = revenue cents.  A deterministic
    diagonal cut at D* = max-origin − 3 censors the recent origins
    (the genuine triangle); volume-weighted factors
    f_l = Σ cum_{o,l+1} / Σ cum_{o,l} over origins observed at BOTH
    lags are single divisions of exact cent integers, and each
    censored origin's ultimate = latest × (f_{l}·f_{l+1}·…) with the
    factor product folded ascending and multiplied once — the float
    op ORDER is part of the contract and the twin mirrors it.  IBNR =
    ultimate − latest."""
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
        rev = ep * (100 - db)          # exact 1e-4 dollars
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
        # no origin developed to l+1 (or zero volume): flat factor —
        # the standard no-evidence convention, mirrored via COALESCE
        fac[l] = float(num) / float(den) if den else 1.0
    rows = []
    for o in sorted(lmax):
        latest = cum[(o, lmax[o])]
        p = 1.0
        for l in range(lmax[o], L):
            p = p * fac[l]
        ult = float(latest) * p
        rows.append({"origin_month": o, "dev_observed": lmax[o],
                     "latest_e4": latest,
                     "ultimate_e4": np.round(ult, 4),
                     "ibnr_e4": np.round(ult - float(latest), 4)})
    return pd.DataFrame(rows).astype({
        "origin_month": np.int64, "dev_observed": np.int64,
        "latest_e4": np.int64})


SQL_CHAIN_LADDER = """
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
u AS (SELECT lm.om, lm.lmax, c.cum AS latest,
             CAST(c.cum AS DOUBLE)
             * (CASE lm.lmax WHEN 4 THEN 1.0
                WHEN 3 THEN fp.f3
                WHEN 2 THEN fp.f2 * fp.f3
                WHEN 1 THEN fp.f1 * fp.f2 * fp.f3
                ELSE fp.f0 * fp.f1 * fp.f2 * fp.f3 END) AS ult
      FROM lm JOIN cum c ON c.om = lm.om AND c.lag = lm.lmax, fp)
SELECT om AS origin_month, CAST(lmax AS BIGINT) AS dev_observed,
       CAST(latest AS BIGINT) AS latest_e4,
       ROUND(ult, 4) AS ultimate_e4,
       ROUND(ult - CAST(latest AS DOUBLE), 4) AS ibnr_e4
FROM u ORDER BY om
"""


def q_western_electric_rules(sf_dir: str):
    """Western Electric run rules over the daily-revenue Shewhart
    chart — the four classic pattern alarms beyond the bare 3σ rule:
    (1) one point outside 3σ, (2) ≥2 of the last 3 beyond 2σ on the
    same side, (3) ≥4 of the last 5 beyond 1σ same side, (4) all of
    the last 8 strictly the same side of μ.  Zone membership compares
    identical doubles (μ, σ from exact power sums, the control-chart
    contract); run counts are integer window sums over truncated
    leading windows, mirrored by SQL's ROWS BETWEEN frames.  Output:
    the days where ANY rule fires, with per-rule flags."""
    d = _daily_revenue_cents(sf_dir).sort_values("day") \
        .reset_index(drop=True)
    rev = [int(v) for v in d["rev"]]
    n = len(rev)
    s1 = sum(rev)
    s2 = sum(v * v for v in rev)
    mu = float(s1) / float(n)
    sigma = float(np.sqrt(float(s2) / float(n) - mu * mu))
    x = d["rev"].to_numpy(np.float64)

    def roll(v: np.ndarray, w: int) -> np.ndarray:
        c = np.cumsum(np.concatenate(([0], v)))
        out = np.empty(len(v), dtype=np.int64)
        for i in range(len(v)):
            out[i] = c[i + 1] - c[max(0, i + 1 - w)]
        return out

    up3 = (x > mu + 3.0 * sigma).astype(np.int64)
    dn3 = (x < mu - 3.0 * sigma).astype(np.int64)
    up2 = (x > mu + 2.0 * sigma).astype(np.int64)
    dn2 = (x < mu - 2.0 * sigma).astype(np.int64)
    up1 = (x > mu + 1.0 * sigma).astype(np.int64)
    dn1 = (x < mu - 1.0 * sigma).astype(np.int64)
    upm = (x > mu).astype(np.int64)
    dnm = (x < mu).astype(np.int64)
    r1 = (up3 + dn3) > 0
    r2 = (roll(up2, 3) >= 2) | (roll(dn2, 3) >= 2)
    r3 = (roll(up1, 5) >= 4) | (roll(dn1, 5) >= 4)
    r4 = (roll(upm, 8) >= 8) | (roll(dnm, 8) >= 8)
    any_ = r1 | r2 | r3 | r4
    out = pd.DataFrame({
        "day": d["day"].astype(np.int64),
        "rev_c": d["rev"].astype(np.int64),
        "rule1": r1, "rule2": r2, "rule3": r3, "rule4": r4})
    return out[any_].reset_index(drop=True)


SQL_WESTERN_ELECTRIC = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  CAST(SUM(CAST(ROUND(o_totalprice * 100)
                                AS HUGEINT)) AS BIGINT) AS rev_c
           FROM orders GROUP BY 1),
s AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(CAST(rev_c AS HUGEINT)) AS s1,
             SUM(CAST(rev_c AS HUGEINT) * rev_c) AS s2 FROM d),
b AS (SELECT CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE) AS mu,
             SQRT(CAST(s2 AS DOUBLE) / CAST(n AS DOUBLE)
                  - (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE))
                    * (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE)))
               AS sigma
      FROM s),
z AS (SELECT day, rev_c,
             CASE WHEN CAST(rev_c AS DOUBLE) > mu + 3.0 * sigma
                    OR CAST(rev_c AS DOUBLE) < mu - 3.0 * sigma
                  THEN 1 ELSE 0 END AS o3,
             CASE WHEN CAST(rev_c AS DOUBLE) > mu + 2.0 * sigma
                  THEN 1 ELSE 0 END AS u2,
             CASE WHEN CAST(rev_c AS DOUBLE) < mu - 2.0 * sigma
                  THEN 1 ELSE 0 END AS d2,
             CASE WHEN CAST(rev_c AS DOUBLE) > mu + 1.0 * sigma
                  THEN 1 ELSE 0 END AS u1,
             CASE WHEN CAST(rev_c AS DOUBLE) < mu - 1.0 * sigma
                  THEN 1 ELSE 0 END AS d1,
             CASE WHEN CAST(rev_c AS DOUBLE) > mu THEN 1 ELSE 0 END
               AS um,
             CASE WHEN CAST(rev_c AS DOUBLE) < mu THEN 1 ELSE 0 END
               AS dm
      FROM d, b),
w AS (SELECT day, rev_c,
             o3 > 0 AS rule1,
             SUM(u2) OVER (ORDER BY day ROWS BETWEEN 2 PRECEDING
                           AND CURRENT ROW) >= 2
             OR SUM(d2) OVER (ORDER BY day ROWS BETWEEN 2 PRECEDING
                              AND CURRENT ROW) >= 2 AS rule2,
             SUM(u1) OVER (ORDER BY day ROWS BETWEEN 4 PRECEDING
                           AND CURRENT ROW) >= 4
             OR SUM(d1) OVER (ORDER BY day ROWS BETWEEN 4 PRECEDING
                              AND CURRENT ROW) >= 4 AS rule3,
             SUM(um) OVER (ORDER BY day ROWS BETWEEN 7 PRECEDING
                           AND CURRENT ROW) >= 8
             OR SUM(dm) OVER (ORDER BY day ROWS BETWEEN 7 PRECEDING
                              AND CURRENT ROW) >= 8 AS rule4
      FROM z)
SELECT * FROM w
WHERE rule1 OR rule2 OR rule3 OR rule4
ORDER BY day
"""


def q_cpk_daily_revenue(sf_dir: str):
    """Process-capability indices Cp / Cpk of daily revenue against
    the engineering band [0.6μ, 1.5μ] — the is-the-process-capable
    pair (Cp ignores centering, Cpk pays for it; an asymmetric band
    keeps them from being trivially proportional).  μ, σ from exact
    power sums; Cp = 0.9μ/(6σ) and Cpk = 0.4μ/(3σ) are mirrored
    float chains, and the out-of-spec day counts are INTEGER facts
    from identical double comparisons."""
    d = _daily_revenue_cents(sf_dir)
    rev = [int(v) for v in d["rev"]]
    n = len(rev)
    s1 = sum(rev)
    s2 = sum(v * v for v in rev)
    mu = float(s1) / float(n)
    sigma = float(np.sqrt(float(s2) / float(n) - mu * mu))
    lsl, usl = 0.6 * mu, 1.5 * mu
    x = d["rev"].to_numpy(np.float64)
    below = int((x < lsl).sum())
    above = int((x > usl).sum())
    cp = (usl - lsl) / (6.0 * sigma)
    cpk = min(usl - mu, mu - lsl) / (3.0 * sigma)
    return pd.DataFrame([{
        "n_days": n, "mu": np.round(mu, 6),
        "sigma": np.round(sigma, 6), "cp": np.round(cp, 6),
        "cpk": np.round(cpk, 6), "n_below_lsl": below,
        "n_above_usl": above}]).astype({
            "n_days": np.int64, "n_below_lsl": np.int64,
            "n_above_usl": np.int64})


SQL_CPK = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  CAST(SUM(CAST(ROUND(o_totalprice * 100)
                                AS HUGEINT)) AS BIGINT) AS rev_c
           FROM orders GROUP BY 1),
s AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(CAST(rev_c AS HUGEINT)) AS s1,
             SUM(CAST(rev_c AS HUGEINT) * rev_c) AS s2 FROM d),
b AS (SELECT n, CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE) AS mu,
             SQRT(CAST(s2 AS DOUBLE) / CAST(n AS DOUBLE)
                  - (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE))
                    * (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE)))
               AS sigma
      FROM s)
SELECT CAST(b.n AS BIGINT) AS n_days, ROUND(b.mu, 6) AS mu,
       ROUND(b.sigma, 6) AS sigma,
       ROUND((1.5 * b.mu - 0.6 * b.mu) / (6.0 * b.sigma), 6) AS cp,
       ROUND(LEAST(1.5 * b.mu - b.mu, b.mu - 0.6 * b.mu)
             / (3.0 * b.sigma), 6) AS cpk,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM d, b
        WHERE CAST(rev_c AS DOUBLE) < 0.6 * b.mu) AS n_below_lsl,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM d, b
        WHERE CAST(rev_c AS DOUBLE) > 1.5 * b.mu) AS n_above_usl
FROM b
"""


def q_page_hinkley_revenue(sf_dir: str):
    """Page–Hinkley drift detector on daily revenue, kept EXACT by
    n-clearing: with δ = 0 the cumulative deviation n·m_t =
    n·prefix_t − t·S is an integer, PH_t·n = n·m_t − min_{i≤t}(n·m_i)
    folds through integer prefix window sums (association-free), and
    the alarm compare PH_t·n > 5σ·n spends the only floats.  Reports
    the first alarm day, alarm count, and the scaled max excursion —
    the streaming-drift screen next to CUSUM (PH tracks deviation
    from the GLOBAL mean; CUSUM from a target)."""
    d = _daily_revenue_cents(sf_dir).sort_values("day") \
        .reset_index(drop=True)
    rev = [int(v) for v in d["rev"]]
    n = len(rev)
    s1 = sum(rev)
    s2 = sum(v * v for v in rev)
    sigma = float(np.sqrt(float(s2) / float(n)
                          - (float(s1) / float(n))
                          * (float(s1) / float(n))))
    thr = 5.0 * sigma * float(n)
    pref = 0
    mn = 0
    n_alarms = 0
    first_day = -1
    max_phn = 0
    for t, v in enumerate(rev, start=1):
        pref += v
        mt = n * pref - t * s1
        mn = min(mn, mt)
        phn = mt - mn
        if phn > max_phn:
            max_phn = phn
        if float(phn) > thr:
            n_alarms += 1
            if first_day < 0:
                first_day = int(d["day"].iloc[t - 1])
    return pd.DataFrame([{
        "n_days": n, "n_alarms": n_alarms,
        "first_alarm_day": first_day, "max_phn": max_phn,
        "threshold": np.round(thr, 6)}]).astype({
            "n_days": np.int64, "n_alarms": np.int64,
            "first_alarm_day": np.int64, "max_phn": np.int64})


SQL_PAGE_HINKLEY = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  CAST(SUM(CAST(ROUND(o_totalprice * 100)
                                AS HUGEINT)) AS BIGINT) AS rev_c
           FROM orders GROUP BY 1),
s AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(CAST(rev_c AS HUGEINT)) AS s1,
             SUM(CAST(rev_c AS HUGEINT) * rev_c) AS s2 FROM d),
p AS (SELECT day, rev_c,
             SUM(CAST(rev_c AS HUGEINT)) OVER (ORDER BY day)
               AS pref,
             ROW_NUMBER() OVER (ORDER BY day) AS t
      FROM d),
m AS (SELECT day, s.n * pref - t * s.s1 AS mt FROM p, s),
ph AS (SELECT day, mt,
              mt - LEAST(MIN(mt) OVER (ORDER BY day), 0) AS phn
       FROM m),
b AS (SELECT 5.0 * SQRT(CAST(s2 AS DOUBLE) / CAST(n AS DOUBLE)
                        - (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE))
                          * (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE)))
             * CAST(n AS DOUBLE) AS thr,
             CAST(n AS BIGINT) AS n
      FROM s),
a AS (SELECT COALESCE(CAST(COUNT(CASE WHEN CAST(phn AS DOUBLE)
                                      > b.thr THEN 1 END) AS BIGINT),
                      0) AS n_alarms,
             MIN(CASE WHEN CAST(phn AS DOUBLE) > b.thr THEN day END)
               AS first_day,
             CAST(MAX(phn) AS BIGINT) AS max_phn
      FROM ph, b GROUP BY b.thr)
SELECT b.n AS n_days, a.n_alarms,
       CAST(COALESCE(a.first_day, -1) AS BIGINT) AS first_alarm_day,
       a.max_phn, ROUND(b.thr, 6) AS threshold
FROM a, b
"""


def q_rsi14_daily_revenue(sf_dir: str):
    """14-day RSI (Cutler's SMA variant — Wilder's EWMA recursion is
    deliberately NOT used so the whole indicator stays an exact
    rational): per day, G = Σ gains and L = Σ losses over the
    trailing 14 day-over-day cent changes are INTEGER window sums,
    and RSI = 100·G/(G+L) is one mirrored division (flat window →
    50 by convention, decided on integers).  Emits every day with a
    full window — the overbought/oversold screen beside the
    drawdown/CUSUM family."""
    d = _daily_revenue_cents(sf_dir).sort_values("day") \
        .reset_index(drop=True)
    rev = d["rev"].to_numpy(np.int64)
    day = d["day"].to_numpy(np.int64)
    chg = np.diff(rev)
    gains = np.where(chg > 0, chg, 0)
    losses = np.where(chg < 0, -chg, 0)
    cg = np.concatenate(([0], np.cumsum(gains)))
    cl = np.concatenate(([0], np.cumsum(losses)))
    # change index t covers day t+1; window of 14 changes ending at
    # change t spans changes [t-13, t] → needs t ≥ 13
    g14 = cg[14:] - cg[:-14]
    l14 = cl[14:] - cl[:-14]
    tot = g14 + l14
    rsi = np.where(tot > 0,
                   100.0 * g14.astype(np.float64)
                   / tot.astype(np.float64), 50.0)
    return pd.DataFrame({
        "day": day[14:], "gain14": g14, "loss14": l14,
        "rsi": np.round(rsi, 6)}).astype({
            "day": np.int64, "gain14": np.int64,
            "loss14": np.int64})


SQL_RSI14 = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  CAST(SUM(CAST(ROUND(o_totalprice * 100)
                                AS HUGEINT)) AS BIGINT) AS rev
           FROM orders GROUP BY 1),
c AS (SELECT day, rev - LAG(rev) OVER (ORDER BY day) AS chg,
             ROW_NUMBER() OVER (ORDER BY day) AS t
      FROM d),
g AS (SELECT day, t,
             SUM(CASE WHEN chg > 0 THEN chg ELSE 0 END)
               OVER (ORDER BY day ROWS BETWEEN 13 PRECEDING
                     AND CURRENT ROW) AS g14,
             SUM(CASE WHEN chg < 0 THEN -chg ELSE 0 END)
               OVER (ORDER BY day ROWS BETWEEN 13 PRECEDING
                     AND CURRENT ROW) AS l14
      FROM c WHERE chg IS NOT NULL)
SELECT day, CAST(g14 AS BIGINT) AS gain14,
       CAST(l14 AS BIGINT) AS loss14,
       CASE WHEN g14 + l14 > 0
            THEN ROUND(100.0 * CAST(g14 AS DOUBLE)
                       / CAST(g14 + l14 AS DOUBLE), 6)
            ELSE 50.0 END AS rsi
FROM g WHERE t >= 15 ORDER BY day
"""


def q_sharpe_sortino_revenue(sf_dir: str):
    """Sharpe and Sortino ratios of the daily revenue CHANGES (cent
    units, zero target) — the symmetric-vs-downside risk pair: σ uses
    all changes, the Sortino denominator only the downside
    (√(Σmin(Δ,0)²/n)), so a series that only ever jumps UP has
    infinite Sortino but modest Sharpe.  All power sums are exact
    integers; each ratio is a mirrored float chain.  Zero-downside
    series report sortino = -1 (the sentinel, decided on an integer
    compare)."""
    d = _daily_revenue_cents(sf_dir).sort_values("day") \
        .reset_index(drop=True)
    rev = [int(v) for v in d["rev"]]
    chg = [b - a for a, b in zip(rev, rev[1:])]
    n = len(chg)
    s1 = sum(chg)
    s2 = sum(c * c for c in chg)
    sd2 = sum(c * c for c in chg if c < 0)
    mean = float(s1) / float(n)
    sig = float(np.sqrt(float(s2) / float(n) - mean * mean))
    sharpe = mean / sig
    if sd2 > 0:
        sortino = mean / float(np.sqrt(float(sd2) / float(n)))
    else:
        sortino = -1.0
    return pd.DataFrame([{
        "n_changes": n, "sum_change": s1,
        "sharpe": np.round(sharpe, 6),
        "sortino": np.round(sortino, 6)}]).astype({
            "n_changes": np.int64, "sum_change": np.int64})


SQL_SHARPE_SORTINO = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  CAST(SUM(CAST(ROUND(o_totalprice * 100)
                                AS HUGEINT)) AS BIGINT) AS rev
           FROM orders GROUP BY 1),
c AS (SELECT rev - LAG(rev) OVER (ORDER BY day) AS chg FROM d),
s AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(CAST(chg AS HUGEINT)) AS s1,
             SUM(CAST(chg AS HUGEINT) * chg) AS s2,
             SUM(CASE WHEN chg < 0
                 THEN CAST(chg AS HUGEINT) * chg ELSE 0 END) AS sd2
      FROM c WHERE chg IS NOT NULL),
f AS (SELECT n, s1, sd2,
             CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE) AS mean,
             SQRT(CAST(s2 AS DOUBLE) / CAST(n AS DOUBLE)
                  - (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE))
                    * (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE)))
               AS sig
      FROM s)
SELECT CAST(n AS BIGINT) AS n_changes, CAST(s1 AS BIGINT)
         AS sum_change,
       ROUND(mean / sig, 6) AS sharpe,
       CASE WHEN sd2 > 0
            THEN ROUND(mean / SQRT(CAST(sd2 AS DOUBLE)
                                   / CAST(n AS DOUBLE)), 6)
            ELSE -1.0 END AS sortino
FROM f
"""


def q_ulcer_index_revenue(sf_dir: str):
    """Ulcer index of daily revenue — the drawdown-DEPTH risk metric
    (σ punishes upside wiggles; UI only hurts when you're under
    water): per-day percentage drawdown from the running peak,
    root-mean-squared.  The running peak is an exact integer window
    max; each day's dd² is nano-quantized (⌊dd²·10⁹+½⌋) BEFORE the
    sum so SQL's unordered SUM can't drift, and
    UI = √(Σ/1e9/n) spends the mirrored ops.  max_dd is an
    association-free float MAX."""
    d = _daily_revenue_cents(sf_dir).sort_values("day") \
        .reset_index(drop=True)
    rev = d["rev"].to_numpy(np.int64)
    peak = np.maximum.accumulate(rev)
    dd = 100.0 * (peak - rev).astype(np.float64) \
        / peak.astype(np.float64)
    q9 = np.floor(dd * dd * 1e9 + 0.5).astype(np.int64)
    n = len(rev)
    s = int(q9.sum())
    ui = float(np.sqrt(s / 1e9 / n))
    return pd.DataFrame([{
        "n_days": n, "dd2_sum_e9": s,
        "max_dd_pct": np.round(float(dd.max()), 6),
        "ulcer_index": np.round(ui, 6)}]).astype({
            "n_days": np.int64, "dd2_sum_e9": np.int64})


SQL_ULCER = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  CAST(SUM(CAST(ROUND(o_totalprice * 100)
                                AS HUGEINT)) AS BIGINT) AS rev
           FROM orders GROUP BY 1),
p AS (SELECT day, rev,
             MAX(rev) OVER (ORDER BY day) AS peak
      FROM d),
q AS (SELECT day,
             100.0 * CAST(peak - rev AS DOUBLE)
             / CAST(peak AS DOUBLE) AS dd
      FROM p),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(CAST(FLOOR(dd * dd * 1e9 + 0.5) AS BIGINT))
                  AS BIGINT) AS s9,
             MAX(dd) AS mx
      FROM q)
SELECT n AS n_days, s9 AS dd2_sum_e9, ROUND(mx, 6) AS max_dd_pct,
       ROUND(SQRT(s9 / 1e9 / n), 6) AS ulcer_index
FROM s
"""


def q_kish_neff_customers(sf_dir: str):
    """Kish effective sample size under frequency weights (per-
    customer order counts): n_eff = (Σw)²/Σw² and the weighting
    design effect deff = n·Σw²/(Σw)² — the survey-sampling penalty
    number that says how many 'equal' respondents your unequal
    weights are really worth.  Both are single mirrored divisions of
    exact integer power sums folded through the bucketed per-customer
    count."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_custkey"])

    def partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({"ck": t["o_custkey"].to_numpy(
            zero_copy_only=False).astype(np.int64), "w": 1}) \
            .groupby("ck", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    per = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("ck").aggregate(Sum("w", alias_name="w"))
    ).to_pandas()
    w = per["w"].to_numpy(np.int64)
    n = len(w)
    sw = int(w.sum())
    sw2 = int((w * w).sum())
    neff = float(sw * sw) / float(sw2)
    deff = float(n * sw2) / float(sw * sw)
    return pd.DataFrame([{
        "n_customers": n, "sum_w": sw, "sum_w2": sw2,
        "n_eff": np.round(neff, 6),
        "deff": np.round(deff, 6)}]).astype({
            "n_customers": np.int64, "sum_w": np.int64,
            "sum_w2": np.int64})


SQL_KISH = """
WITH w AS (SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS w
           FROM orders GROUP BY 1),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(w) AS BIGINT) AS sw,
             CAST(SUM(w * w) AS BIGINT) AS sw2
      FROM w)
SELECT n AS n_customers, sw AS sum_w, sw2 AS sum_w2,
       ROUND(CAST(sw * sw AS DOUBLE) / CAST(sw2 AS DOUBLE), 6)
         AS n_eff,
       ROUND(CAST(n * sw2 AS DOUBLE) / CAST(sw * sw AS DOUBLE), 6)
         AS deff
FROM s
"""


def q_wilcoxon_signed_rank_weekly(sf_dir: str):
    """Wilcoxon signed-rank test on week-over-week revenue growth —
    the magnitude-aware upgrade of the registry's sign test (signs
    ignore HOW MUCH revenue moved; ranks of |Δ| weigh it): over the
    gap-filled calendar diffs, doubled midranks 2r = 2·lo + c + 1 are
    integers even under ties, so 2W⁺ folds exactly from the
    (|Δ|, sign) counts, the tie-corrected variance clears to
    V₄₈ = 2m(m+1)(2m+1) − Σ(t³−t), and
    z = (2W⁺ − m(m+1)/2)/(2√(V₄₈/48)) spends the mirrored float
    ops."""
    dr = _daily_revenue_cents(sf_dir)
    d0, d1 = int(dr["day"].min()), int(dr["day"].max())
    nd = d1 - d0 + 1
    y = np.zeros(nd, dtype=np.int64)
    y[dr["day"].to_numpy(np.int64) - d0] = \
        dr["rev"].to_numpy(np.int64)
    diffs = y[7:] - y[:-7]
    nz = diffs[diffs != 0]
    m = len(nz)
    av = np.abs(nz)
    piv = pd.DataFrame({"a": av, "pos": (nz > 0).astype(np.int64),
                        "c": 1}) \
        .groupby("a").agg(c=("c", "sum"), pc=("pos", "sum")) \
        .sort_index()
    c = piv["c"].to_numpy(np.int64)
    pcnt = piv["pc"].to_numpy(np.int64)
    lo = np.concatenate(([0], np.cumsum(c)[:-1]))
    w2 = int((pcnt.astype(object)
              * (2 * lo.astype(object) + c.astype(object) + 1))
             .sum())
    tcorr = int((c.astype(object) ** 3 - c.astype(object)).sum())
    e2 = m * (m + 1) // 2
    v48 = 2 * m * (m + 1) * (2 * m + 1) - tcorr
    z = float(w2 - e2) / (2.0 * float(np.sqrt(v48 / 48.0)))
    return pd.DataFrame([{
        "n_nonzero": m, "w2_plus": w2, "e2_null": e2,
        "v48_num": v48, "z_wilcoxon": np.round(z, 6)}]).astype({
            "n_nonzero": np.int64, "w2_plus": np.int64,
            "e2_null": np.int64, "v48_num": np.int64})


SQL_WILCOXON_WEEKLY = """
WITH dr AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS rev
            FROM orders GROUP BY 1),
mm AS (SELECT MIN(day) AS d0, MAX(day) AS d1 FROM dr),
dense AS (SELECT g.day, COALESCE(dr.rev, 0) AS rev, g.idx
          FROM (SELECT mm.d0 + s AS day, s AS idx
                FROM mm, generate_series(0, 4095) t(s)
                WHERE mm.d0 + s <= mm.d1) g
          LEFT JOIN dr ON dr.day = g.day),
d AS (SELECT a.rev - b.rev AS diff
      FROM dense a JOIN dense b ON b.idx = a.idx - 7),
nz AS (SELECT ABS(diff) AS a,
              CASE WHEN diff > 0 THEN 1 ELSE 0 END AS pos
       FROM d WHERE diff <> 0),
g AS (SELECT a, CAST(COUNT(*) AS BIGINT) AS c,
             CAST(SUM(pos) AS BIGINT) AS pc
      FROM nz GROUP BY 1),
r AS (SELECT a, c, pc,
             COALESCE(SUM(c) OVER (ORDER BY a
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
               0) AS lo
      FROM g),
s AS (SELECT CAST(SUM(c) AS BIGINT) AS m,
             CAST(SUM(CAST(pc AS HUGEINT)
                      * (2 * lo + c + 1)) AS BIGINT) AS w2,
             CAST(SUM(CAST(c AS HUGEINT) * c * c - c) AS BIGINT)
               AS tcorr
      FROM r)
SELECT m AS n_nonzero, w2 AS w2_plus,
       CAST(m * (m + 1) // 2 AS BIGINT) AS e2_null,
       CAST(2 * CAST(m AS HUGEINT) * (m + 1) * (2 * m + 1) - tcorr
            AS BIGINT) AS v48_num,
       ROUND(CAST(w2 - m * (m + 1) // 2 AS DOUBLE)
             / (2.0 * SQRT(CAST(2 * CAST(m AS HUGEINT) * (m + 1)
                                * (2 * m + 1) - tcorr AS DOUBLE)
                           / 48.0)), 6) AS z_wilcoxon
FROM s
"""


def q_benford_second_digit(sf_dir: str):
    """Benford SECOND-digit test on order totals — the forensic
    screen that catches rounding/threshold manipulation the leading
    digit misses (fabricators get digit 1 right and the second digit
    wrong): expected p_k = Σ_{j=1..9} log₁₀(1+1/(10j+k)) computed in
    the identical 9-term fixed-order chain both engines, observed
    counts exact integers from one digit-keyed reduce, and the χ²
    adds per-digit (O−NE p)²/(N p) terms nano-quantized before the
    fold."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        # digit count via exact power-of-ten searchsorted (a float
        # log10 can land 1 ulp under an exact power); second digit
        # = (v // 10^(digits−2)) % 10, fully vectorized
        p10 = 10 ** np.arange(1, 16, dtype=np.int64)
        digits = np.searchsorted(p10, cents, side="right") + 1
        keep = digits >= 2
        second = (cents[keep]
                  // p10[digits[keep] - 2 - 1]) % 10
        g = pd.DataFrame({"d": second, "c": 1}) \
            .groupby("d", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("d").aggregate(Sum("c", alias_name="c"))
    ).to_pandas().set_index("d")["c"] \
        .reindex(range(10), fill_value=0)
    n = int(g.sum())
    rows = []
    chi9 = 0
    for k in range(10):
        p = 0.0
        for j in range(1, 10):
            p = p + np.log10(1.0 + 1.0 / (10 * j + k))
        o = int(g.loc[k])
        e = n * p
        term = (o - e) * (o - e) / e
        chi9 += int(np.floor(term * 1e9 + 0.5))
        rows.append({"digit": k, "observed": o,
                     "expected": np.round(e, 6)})
    out = pd.DataFrame(rows)
    out["chi2"] = np.round(chi9 / 1e9, 6)
    return out.astype({"digit": np.int64, "observed": np.int64})


SQL_BENFORD_SECOND = """
WITH c AS (SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT) AS v
           FROM orders),
d AS (SELECT CAST(substr(CAST(v AS VARCHAR), 2, 1) AS BIGINT) AS d
      FROM c WHERE len(CAST(v AS VARCHAR)) >= 2),
o AS (SELECT dk.k AS digit,
             CAST(COALESCE(cnt.c, 0) AS BIGINT) AS observed
      FROM (SELECT unnest(generate_series(0, 9)) AS k) dk
      LEFT JOIN (SELECT d, COUNT(*) AS c FROM d GROUP BY 1) cnt
        ON cnt.d = dk.k),
n AS (SELECT SUM(observed) AS n FROM o),
e AS (SELECT digit, observed,
             n.n * (log10(1.0 + 1.0 / (10 * 1 + digit))
                    + log10(1.0 + 1.0 / (10 * 2 + digit))
                    + log10(1.0 + 1.0 / (10 * 3 + digit))
                    + log10(1.0 + 1.0 / (10 * 4 + digit))
                    + log10(1.0 + 1.0 / (10 * 5 + digit))
                    + log10(1.0 + 1.0 / (10 * 6 + digit))
                    + log10(1.0 + 1.0 / (10 * 7 + digit))
                    + log10(1.0 + 1.0 / (10 * 8 + digit))
                    + log10(1.0 + 1.0 / (10 * 9 + digit))) AS ev
      FROM o, n),
x AS (SELECT SUM(CAST(FLOOR((observed - ev) * (observed - ev) / ev
                            * 1e9 + 0.5) AS BIGINT)) AS chi9
      FROM e)
SELECT digit, observed, ROUND(ev, 6) AS expected,
       ROUND(x.chi9 / 1e9, 6) AS chi2
FROM e, x ORDER BY digit
"""


def q_hurst_rs_revenue(sf_dir: str):
    """Hurst exponent by rescaled-range (R/S) analysis of daily
    revenue — long-memory detection (H > ½ trending, < ½ mean-
    reverting, the ACF can't separate these at long lags): for
    window sizes 8/16/32/64, each non-overlapping window's
    R/S = (max−min of cumulative deviations)/σ is computed in the
    identical float chain, the per-size MEAN log(R/S) is nano-
    quantized, and H is the INTEGER-OLS slope over the quantized
    (ln n, mean ln R/S) lattice — the Heaps-fit pattern applied to
    fractal range statistics."""
    d = _daily_revenue_cents(sf_dir).sort_values("day") \
        .reset_index(drop=True)
    rev = d["rev"].to_numpy(np.int64)
    pts = []
    for w in (8, 16, 32, 64):
        k = len(rev) // w
        if k == 0:
            continue
        s9 = 0
        cnt = 0
        for b in range(k):
            seg = rev[b * w:(b + 1) * w]
            s1 = int(seg.sum())
            s2 = int((seg.astype(object) ** 2).sum())
            mu = float(s1) / float(w)
            # dev_j = exact-integer prefix − (j+1)·mu: one multiply
            # and subtract per term, association-free (a raw cumsum
            # of float (rev−mu) would drift vs SQL's window order)
            pref = np.cumsum(seg)
            dev = pref.astype(np.float64) \
                - np.arange(1, w + 1, dtype=np.float64) * mu
            r = float(dev.max()) - float(dev.min())
            sd = float(np.sqrt(float(s2) / w - mu * mu))
            if sd > 0 and r > 0:
                s9 += int(np.floor(np.log(r / sd) * 1e9 + 0.5))
                cnt += 1
        if cnt:
            qx = int(np.floor(np.log(float(w)) * 1e9 + 0.5))
            pts.append((qx, s9 // cnt, cnt))
    n = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    h = float(n * sxy - sx * sy) / float(n * sxx - sx * sx)
    return pd.DataFrame([{
        "n_sizes": n, "n_windows": sum(p[2] for p in pts),
        "hurst": np.round(h, 6)}]).astype({
            "n_sizes": np.int64, "n_windows": np.int64})


SQL_HURST_RS = """
WITH dr AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS rev
            FROM orders GROUP BY 1),
idx AS (SELECT rev, ROW_NUMBER() OVER (ORDER BY day) - 1 AS i
        FROM dr),
win AS (SELECT w.w, i.i // w.w AS b, i.i % w.w AS j, i.rev
        FROM idx i, (SELECT unnest([8, 16, 32, 64]) AS w) w
        WHERE i.i < (SELECT COUNT(*) FROM idx) // w.w * w.w),
st AS (SELECT w, b, CAST(SUM(rev) AS DOUBLE) / w AS mu,
              SQRT(CAST(SUM(CAST(rev AS HUGEINT) * rev) AS DOUBLE)
                   / w - (CAST(SUM(rev) AS DOUBLE) / w)
                         * (CAST(SUM(rev) AS DOUBLE) / w)) AS sd
       FROM win GROUP BY 1, 2),
cumdev AS (SELECT win.w, win.b, win.j,
                  CAST(SUM(win.rev) OVER (
                    PARTITION BY win.w, win.b ORDER BY win.j)
                    AS DOUBLE)
                  - (win.j + 1) * st.mu AS c
           FROM win JOIN st ON st.w = win.w AND st.b = win.b),
rr AS (SELECT w, b, MAX(c) - MIN(c) AS r FROM cumdev GROUP BY 1, 2),
q AS (SELECT rr.w,
             CAST(FLOOR(LN(rr.r / st.sd) * 1e9 + 0.5) AS BIGINT)
               AS q9
      FROM rr JOIN st ON st.w = rr.w AND st.b = rr.b
      WHERE st.sd > 0 AND rr.r > 0),
pt AS (SELECT w, CAST(FLOOR(LN(CAST(w AS DOUBLE)) * 1e9 + 0.5)
                      AS HUGEINT) AS qx,
              CAST(SUM(q9) // COUNT(*) AS HUGEINT) AS qy,
              CAST(COUNT(*) AS BIGINT) AS cnt
       FROM q GROUP BY w),
s AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(qx) AS sx,
             SUM(qy) AS sy, SUM(qx * qx) AS sxx,
             SUM(qx * qy) AS sxy, SUM(cnt) AS nw
      FROM pt)
SELECT CAST(n AS BIGINT) AS n_sizes, CAST(nw AS BIGINT)
         AS n_windows,
       ROUND(CAST(n * sxy - sx * sy AS DOUBLE)
             / CAST(n * sxx - sx * sx AS DOUBLE), 6) AS hurst
FROM s
"""


_LIFETIMES_MEMO: dict = {}


def _customer_lifetimes(sf_dir: str) -> pd.DataFrame:
    """Shared per-customer (lifetime days, churned flag, n_orders)
    reduce for the survival family — the KM op's contract (censored
    = last order within 90 days of the horizon) extended with the
    order count so competing-risk causes can split.  Memoized per
    input fingerprint (round-4 deferred #2): the three survival ops
    in a combined sweep/dashboard run now share ONE orders pass
    instead of re-reducing per op."""
    memo_key = _fingerprint_cache_dir(sf_dir, "orders", "lifetimes")
    hit = _LIFETIMES_MEMO.get(memo_key)
    if hit is not None:
        return hit.copy()
    from ray.data.aggregate import Max, Min, Sum
    ev = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64)
        g = pd.DataFrame({"o_custkey": t["o_custkey"].to_numpy(
            zero_copy_only=False), "pf": day, "pl": day, "pn": 1}) \
            .groupby("o_custkey", sort=False) \
            .agg(pf=("pf", "min"), pl=("pl", "max"),
                 pn=("pn", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    per = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("o_custkey").aggregate(
            Min("pf", alias_name="f"), Max("pl", alias_name="l"),
            Sum("pn", alias_name="n"))).to_pandas()
    mx = int(per["l"].max())
    out = pd.DataFrame({
        "t": per["l"].astype(np.int64) - per["f"].astype(np.int64),
        "churned": ((mx - per["l"].astype(np.int64)) >= 90)
        .astype(np.int64),
        "n_orders": per["n"].astype(np.int64)})
    _LIFETIMES_MEMO.clear()            # one entry: bounded memory
    _LIFETIMES_MEMO[memo_key] = out.copy()
    return out


SQL_LIFETIMES_CTE = """
u AS (SELECT o_custkey, MIN(CAST(o_orderdate AS DATE)) AS f,
             MAX(CAST(o_orderdate AS DATE)) AS l,
             CAST(COUNT(*) AS BIGINT) AS n
      FROM orders GROUP BY 1),
m AS (SELECT MAX(l) AS mx FROM u),
lt AS (SELECT date_diff('day', f, l) AS t,
              CASE WHEN date_diff('day', l, mx) >= 90
                   THEN 1 ELSE 0 END AS churned, n
       FROM u, m)
"""


def q_aalen_johansen_cif(sf_dir: str):
    """Aalen–Johansen cumulative incidence for COMPETING churn causes
    (cause 1 = low-engagement churn ≤3 orders, cause 2 = engaged
    churn) — the estimator that fixes the classic mistake of running
    1−KM per cause (which overstates every risk because it treats
    the competitor as censoring): CIFₖ(t) = Σ_{s≤t} Ŝ(s⁻)·dₖ(s)/n(s)
    with Ŝ the all-cause KM.  The survival product mirrors the
    window-PRODUCT order; each increment is NANO-QUANTIZED so the
    cumulative is an exact integer window sum — and CIF₁+CIF₂ ≤ 1
    by construction at every t."""
    lt = _customer_lifetimes(sf_dir)
    lt["d1"] = ((lt["churned"] == 1)
                & (lt["n_orders"] <= 3)).astype(np.int64)
    lt["d2"] = ((lt["churned"] == 1)
                & (lt["n_orders"] > 3)).astype(np.int64)
    g = lt.groupby("t").agg(d1=("d1", "sum"), d2=("d2", "sum"),
                            c=("t", "size")).reset_index() \
        .sort_values("t").reset_index(drop=True)
    n_tot = int(g["c"].sum())
    removed = g["c"].cumsum().shift(fill_value=0)
    g["r"] = n_tot - removed
    surv = 1.0
    rows = []
    cif1_9 = 0
    cif2_9 = 0
    for rec in g.itertuples():
        r = int(rec.r)
        d1, d2 = int(rec.d1), int(rec.d2)
        d_all = d1 + d2
        if d_all > 0:
            cif1_9 += int(np.floor(surv * d1 / r * 1e9 + 0.5))
            cif2_9 += int(np.floor(surv * d2 / r * 1e9 + 0.5))
            rows.append({"t_days": int(rec.t), "at_risk": r,
                         "d_low": d1, "d_engaged": d2,
                         "cif_low": (cif1_9 + 500) // 1000 / 1e6,
                         "cif_engaged":
                             (cif2_9 + 500) // 1000 / 1e6})
        surv = surv * (1.0 - float(d_all) / float(r))
    return pd.DataFrame(rows).astype({
        "t_days": np.int64, "at_risk": np.int64, "d_low": np.int64,
        "d_engaged": np.int64})


SQL_AALEN_JOHANSEN = f"""
WITH {SQL_LIFETIMES_CTE.strip()},
d AS (SELECT t,
             CASE WHEN churned = 1 AND n <= 3 THEN 1 ELSE 0 END
               AS d1,
             CASE WHEN churned = 1 AND n > 3 THEN 1 ELSE 0 END
               AS d2
      FROM lt),
tot AS (SELECT COUNT(*) AS n FROM d),
g AS (SELECT t, SUM(d1) AS d1, SUM(d2) AS d2, COUNT(*) AS c
      FROM d GROUP BY t),
k AS (SELECT t, d1, d2,
             tot.n - (SUM(c) OVER (ORDER BY t
                                   ROWS UNBOUNDED PRECEDING) - c)
               AS r
      FROM g, tot),
s AS (SELECT t, d1, d2, r,
             COALESCE(PRODUCT(1.0 - CAST(d1 + d2 AS DOUBLE) / r)
               OVER (ORDER BY t ROWS BETWEEN UNBOUNDED PRECEDING
                     AND 1 PRECEDING), 1.0) AS sprev
      FROM k),
q AS (SELECT t, d1, d2, r,
             SUM(CAST(FLOOR(sprev * d1 / r * 1e9 + 0.5) AS BIGINT))
               OVER (ORDER BY t ROWS UNBOUNDED PRECEDING) AS c1_9,
             SUM(CAST(FLOOR(sprev * d2 / r * 1e9 + 0.5) AS BIGINT))
               OVER (ORDER BY t ROWS UNBOUNDED PRECEDING) AS c2_9
      FROM s)
SELECT CAST(t AS BIGINT) AS t_days, CAST(r AS BIGINT) AS at_risk,
       CAST(d1 AS BIGINT) AS d_low, CAST(d2 AS BIGINT) AS d_engaged,
       ((c1_9 + 500) // 1000) / 1e6 AS cif_low,
       ((c2_9 + 500) // 1000) / 1e6 AS cif_engaged
FROM q WHERE d1 + d2 > 0 ORDER BY t
"""


def q_rmst_retention(sf_dir: str):
    """Restricted mean survival time at τ = 180 days — the honest
    'average lifetime within half a year' summary (the plain mean is
    undefined under censoring; the median can sit past the horizon):
    RMST = ∫₀^τ Ŝ(t)dt, the area under the KM curve, accumulated as
    NANO-QUANTIZED step areas Ŝᵢ·Δᵢ so the fold is exact int64.
    Survival products mirror the window-PRODUCT order."""
    lt = _customer_lifetimes(sf_dir)
    g = lt.groupby("t").agg(d=("churned", "sum"),
                            c=("t", "size")).reset_index() \
        .sort_values("t").reset_index(drop=True)
    n_tot = int(g["c"].sum())
    removed = g["c"].cumsum().shift(fill_value=0)
    g["r"] = n_tot - removed
    tau = 180
    surv = 1.0
    prev_t = 0
    area9 = 0
    for rec in g.itertuples():
        t = int(rec.t)
        if t > tau:
            break
        if t > prev_t:
            area9 += int(np.floor(surv * (t - prev_t) * 1e9 + 0.5))
            prev_t = t
        d = int(rec.d)
        if d > 0:
            surv = surv * (1.0 - float(d) / float(int(rec.r)))
    if prev_t < tau:
        area9 += int(np.floor(surv * (tau - prev_t) * 1e9 + 0.5))
    return pd.DataFrame([{
        "tau_days": tau, "n_customers": n_tot,
        "area9": area9,
        "rmst_days": (area9 + 500) // 1000 / 1e6}]).astype({
            "tau_days": np.int64, "n_customers": np.int64,
            "area9": np.int64})


SQL_RMST = f"""
WITH {SQL_LIFETIMES_CTE.strip()},
tot AS (SELECT COUNT(*) AS n FROM lt),
g AS (SELECT t, SUM(churned) AS d, COUNT(*) AS c
      FROM lt GROUP BY t),
k AS (SELECT t, d,
             tot.n - (SUM(c) OVER (ORDER BY t
                                   ROWS UNBOUNDED PRECEDING) - c)
               AS r
      FROM g, tot),
s AS (SELECT t, d, r,
             COALESCE(PRODUCT(1.0 - CAST(d AS DOUBLE) / r)
               OVER (ORDER BY t ROWS BETWEEN UNBOUNDED PRECEDING
                     AND 1 PRECEDING), 1.0) AS sprev,
             COALESCE(LAG(t) OVER (ORDER BY t), 0) AS pt
      FROM k),
seg AS (SELECT CASE WHEN t > 180 THEN 180 ELSE t END AS t2, pt,
               sprev
        FROM s WHERE pt < 180),
a AS (SELECT CAST(SUM(CAST(FLOOR(sprev * (t2 - pt) * 1e9 + 0.5)
                           AS BIGINT)) AS BIGINT) AS a9
      FROM seg WHERE t2 > pt),
-- the clamped seg row already covers (last-event, 180] whenever an
-- event lies PAST tau; the explicit tail only applies when the whole
-- series ends before tau
tail AS (SELECT CASE WHEN COALESCE(MAX(t), 0) < 180 THEN
                  CAST(FLOOR((SELECT COALESCE(
                    PRODUCT(1.0 - CAST(d AS DOUBLE) / r), 1.0)
                    FROM k)
                    * (180 - COALESCE(MAX(t), 0)) * 1e9 + 0.5)
                    AS BIGINT)
                ELSE 0 END AS t9
         FROM k)
SELECT CAST(180 AS BIGINT) AS tau_days,
       (SELECT CAST(n AS BIGINT) FROM tot) AS n_customers,
       a.a9 + tail.t9 AS area9,
       ((a.a9 + tail.t9 + 500) // 1000) / 1e6 AS rmst_days
FROM a, tail
"""


def q_life_table_retention(sf_dir: str):
    """Actuarial life table in 30-day bands — demography's grouped-
    interval survival with the classic half-censoring adjustment
    (censored customers count half an interval of exposure):
    qᵢ = 2dᵢ/(2nᵢ − cᵢ) is exact-integer-cleared, the table's
    survivorship column multiplies (1 − qᵢ) in ascending-interval
    order (window PRODUCT mirror), and exposure/hazard per band are
    the numbers a retention team actually reads."""
    lt = _customer_lifetimes(sf_dir)
    band = (lt["t"] // 30).astype(np.int64)
    g = pd.DataFrame({"band": band, "d": lt["churned"],
                      "cen": 1 - lt["churned"]}) \
        .groupby("band").agg(d=("d", "sum"),
                             cen=("cen", "sum")).reset_index() \
        .sort_values("band").reset_index(drop=True)
    total = int((g["d"] + g["cen"]).sum())
    entered = total - (g["d"] + g["cen"]).cumsum() \
        .shift(fill_value=0)
    g["n_enter"] = entered.astype(np.int64)
    surv = 1.0
    rows = []
    for rec in g.itertuples():
        n_i, d_i, c_i = int(rec.n_enter), int(rec.d), int(rec.cen)
        denom = 2 * n_i - c_i
        q = float(2 * d_i) / float(denom) if denom > 0 else 0.0
        rows.append({"band": int(rec.band), "n_enter": n_i,
                     "d_churn": d_i, "n_censored": c_i,
                     "q_hazard": np.floor(q * 1e6 + 0.5) / 1e6,
                     "survivorship":
                         np.floor(surv * 1e6 + 0.5) / 1e6})
        surv = surv * (1.0 - q)
    return pd.DataFrame(rows).astype({
        "band": np.int64, "n_enter": np.int64, "d_churn": np.int64,
        "n_censored": np.int64})


SQL_LIFE_TABLE = f"""
WITH {SQL_LIFETIMES_CTE.strip()},
b AS (SELECT t // 30 AS band, churned FROM lt),
g AS (SELECT band, CAST(SUM(churned) AS BIGINT) AS d,
             CAST(SUM(1 - churned) AS BIGINT) AS cen
      FROM b GROUP BY 1),
tot AS (SELECT SUM(d + cen) AS n FROM g),
k AS (SELECT band, d, cen,
             tot.n - (SUM(d + cen) OVER (ORDER BY band
                        ROWS UNBOUNDED PRECEDING) - (d + cen))
               AS n_enter
      FROM g, tot),
q AS (SELECT band, n_enter, d, cen,
             CASE WHEN 2 * n_enter - cen > 0
                  THEN CAST(2 * d AS DOUBLE) / (2 * n_enter - cen)
                  ELSE 0.0 END AS qh
      FROM k)
SELECT CAST(band AS BIGINT) AS band,
       CAST(n_enter AS BIGINT) AS n_enter,
       d AS d_churn, cen AS n_censored,
       FLOOR(qh * 1e6 + 0.5) / 1e6 AS q_hazard,
       FLOOR(COALESCE(PRODUCT(1.0 - qh) OVER (ORDER BY band
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
               1.0) * 1e6 + 0.5) / 1e6 AS survivorship
FROM q ORDER BY band
"""


SQL_TREND_RESID_CTE = """
dr AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
              SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS rev
       FROM orders GROUP BY 1),
ix AS (SELECT rev, ROW_NUMBER() OVER (ORDER BY day) - 1 AS x
       FROM dr),
mo AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(x) AS sx,
              SUM(CAST(rev AS HUGEINT)) AS sy,
              SUM(CAST(x AS HUGEINT) * x) AS sxx,
              SUM(CAST(x AS HUGEINT) * rev) AS sxy
       FROM ix),
ab AS (SELECT n,
              CAST(sy * sxx - sx * sxy AS DOUBLE)
                / CAST(n * sxx - sx * sx AS DOUBLE) AS a,
              CAST(n * sxy - sx * sy AS DOUBLE)
                / CAST(n * sxx - sx * sx AS DOUBLE) AS b
       FROM mo),
res AS (SELECT ix.x, ix.rev,
               CAST(FLOOR((rev - (a + b * x)) * (rev - (a + b * x))
                          / 1e6 + 0.5) AS BIGINT) AS u
        FROM ix, ab)
"""


def _trend_residual_panel(sf_dir: str):
    """Shared day-index trend regression residual panel: exact-integer
    moments → mirrored (a, b) → per-day squared residuals QUANTIZED
    to mega-cents² units (⌊e²/10⁶+½⌋ — int64-safe where raw e²
    sums overflow even HUGEINT).  Feeds the Chow / Breusch–Pagan /
    CUSUMSQ diagnostics."""
    d = _daily_revenue_cents(sf_dir).sort_values("day") \
        .reset_index(drop=True)
    y = d["rev"].to_numpy(np.int64)
    n = len(y)
    x = np.arange(n, dtype=np.int64)
    sx, sy = int(x.sum()), int(y.sum())
    sxx = int((x * x).sum())
    sxy = int((x.astype(object) * y.astype(object)).sum())
    den = n * sxx - sx * sx
    a = float(sy * sxx - sx * sxy) / float(den)
    b = float(n * sxy - sx * sy) / float(den)
    e = y.astype(np.float64) - (a + b * x.astype(np.float64))
    u = np.floor(e * e / 1e6 + 0.5).astype(np.int64)
    return x, y, u


def q_chow_test_revenue(sf_dir: str):
    """Chow structural-break F-test of the revenue trend at the
    mid-sample split — 'did the data-generating line CHANGE half way
    through': F = [(SSR_p − SSR₁ − SSR₂)/2]/[(SSR₁+SSR₂)/(n−4)].
    Each SSR = Syy − Sxy²/Sxx evaluates from EXACT integer segment
    moments through mirrored float divisions (no quantization needed
    — the only floats are three divisions and the F ratio)."""
    d = _daily_revenue_cents(sf_dir).sort_values("day") \
        .reset_index(drop=True)
    y = d["rev"].to_numpy(np.int64)
    n = len(y)
    x = np.arange(n, dtype=np.int64)

    def ssr(xs, ys) -> float:
        m = len(xs)
        sx, sy = int(xs.sum()), int(ys.sum())
        sxx = int((xs * xs).sum())
        syy = int((ys.astype(object) ** 2).sum())
        sxy = int((xs.astype(object) * ys.astype(object)).sum())
        cxx = m * sxx - sx * sx
        cxy = m * sxy - sx * sy
        cyy = m * syy - sy * sy
        # m-cleared: SSR·m = cyy/m − cxy²/(m·cxx): mirror as floats
        return (float(cyy) - float(cxy) * float(cxy) / float(cxx)) \
            / float(m)

    h = n // 2
    ssr_p = ssr(x, y)
    ssr_1 = ssr(x[:h], y[:h])
    ssr_2 = ssr(x[h:], y[h:])
    # a perfect segment fit has SSR 0 → F is 0/0; report 0 (no break
    # detectable on an exact line), mirrored by the twin's CASE
    if ssr_1 + ssr_2 == 0.0:
        f = 0.0
    else:
        f = ((ssr_p - ssr_1 - ssr_2) / 2.0) \
            / ((ssr_1 + ssr_2) / float(n - 4))
    return pd.DataFrame([{
        "n_days": n, "split_at": h,
        "ssr_pooled": np.round(ssr_p, 4),
        "ssr_split": np.round(ssr_1 + ssr_2, 4),
        "f_chow": np.round(f, 6)}]).astype({
            "n_days": np.int64, "split_at": np.int64})


SQL_CHOW = """
WITH dr AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS rev
            FROM orders GROUP BY 1),
ix AS (SELECT rev, ROW_NUMBER() OVER (ORDER BY day) - 1 AS x
       FROM dr),
nn AS (SELECT COUNT(*) AS n, COUNT(*) // 2 AS h FROM ix),
seg AS (SELECT CASE WHEN x < nn.h THEN 1 ELSE 2 END AS s, x, rev
        FROM ix, nn),
mo AS (SELECT s, CAST(COUNT(*) AS HUGEINT) AS m, SUM(x) AS sx,
              SUM(CAST(rev AS HUGEINT)) AS sy,
              SUM(CAST(x AS HUGEINT) * x) AS sxx,
              SUM(CAST(rev AS HUGEINT) * rev) AS syy,
              SUM(CAST(x AS HUGEINT) * rev) AS sxy
       FROM seg GROUP BY 1
       UNION ALL
       SELECT 0, CAST(COUNT(*) AS HUGEINT), SUM(x),
              SUM(CAST(rev AS HUGEINT)),
              SUM(CAST(x AS HUGEINT) * x),
              SUM(CAST(rev AS HUGEINT) * rev),
              SUM(CAST(x AS HUGEINT) * rev)
       FROM ix),
ss AS (SELECT s,
              (CAST(m * syy - sy * sy AS DOUBLE)
               - CAST(m * sxy - sx * sy AS DOUBLE)
                 * CAST(m * sxy - sx * sy AS DOUBLE)
                 / CAST(m * sxx - sx * sx AS DOUBLE))
              / CAST(m AS DOUBLE) AS ssr
       FROM mo),
f AS (SELECT (SELECT ssr FROM ss WHERE s = 0) AS sp,
             (SELECT ssr FROM ss WHERE s = 1) AS s1,
             (SELECT ssr FROM ss WHERE s = 2) AS s2,
             nn.n, nn.h
      FROM nn)
SELECT CAST(n AS BIGINT) AS n_days, CAST(h AS BIGINT) AS split_at,
       ROUND(sp, 4) AS ssr_pooled, ROUND(s1 + s2, 4) AS ssr_split,
       CASE WHEN s1 + s2 = 0.0 THEN 0.0
            ELSE ROUND(((sp - s1 - s2) / 2.0)
                       / ((s1 + s2) / CAST(n - 4 AS DOUBLE)), 6)
       END AS f_chow
FROM f
"""


def q_breusch_pagan_revenue(sf_dir: str):
    """Breusch–Pagan heteroskedasticity test on the revenue trend —
    does residual VARIANCE grow along the sample (the OLS standard
    errors' silent killer)?  LM = n·R²_aux of the e²-on-x auxiliary
    regression; with the shared quantized u panel the auxiliary
    moments are exact integers and LM = n·Cxu²/(Cxx·Cuu) is ONE
    mirrored division of arbitrary-precision products."""
    x, _, u = _trend_residual_panel(sf_dir)
    n = len(x)
    sx = int(x.sum())
    su = int(u.astype(object).sum())
    sxx = int((x * x).sum())
    suu = int((u.astype(object) ** 2).sum())
    sxu = int((x.astype(object) * u.astype(object)).sum())
    cxx = n * sxx - sx * sx
    cuu = n * suu - su * su
    cxu = n * sxu - sx * su
    # homoskedastic-to-zero residuals (cuu = 0) → LM defined as 0
    lm = 0.0 if cuu == 0 else \
        float(n) * float(cxu) * float(cxu) \
        / (float(cxx) * float(cuu))
    return pd.DataFrame([{
        "n_days": n, "lm_stat": np.round(lm, 6),
        "variance_grows": cxu > 0}]).astype({"n_days": np.int64})


SQL_BREUSCH_PAGAN = f"""
WITH {SQL_TREND_RESID_CTE.strip()},
am AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(x) AS sx,
              SUM(CAST(u AS HUGEINT)) AS su,
              SUM(CAST(x AS HUGEINT) * x) AS sxx,
              SUM(CAST(u AS HUGEINT) * u) AS suu,
              SUM(CAST(x AS HUGEINT) * u) AS sxu
       FROM res)
SELECT CAST(n AS BIGINT) AS n_days,
       CASE WHEN n * suu - su * su = 0 THEN 0.0
            ELSE ROUND(CAST(n AS DOUBLE)
                 * CAST(n * sxu - sx * su AS DOUBLE)
                 * CAST(n * sxu - sx * su AS DOUBLE)
                 / (CAST(n * sxx - sx * sx AS DOUBLE)
                    * CAST(n * suu - su * su AS DOUBLE)), 6)
       END AS lm_stat,
       n * sxu - sx * su > 0 AS variance_grows
FROM am
"""


def q_cusum_squares_revenue(sf_dir: str):
    """Brown–Durbin–Evans CUSUM-of-squares stability screen on the
    trend residuals: s_t = Σ_{i≤t}u_i / Σu should track t/n under
    stability; the max excursion and its location are found by EXACT
    integer cross-multiplication |n·P_t − t·U| (P = quantized-u
    prefix, U = total) — no float enters until the single reported
    division.  A variance burst shows as an early bulge the mean-
    based CUSUM misses."""
    _, _, u = _trend_residual_panel(sf_dir)
    n = len(u)
    pref = np.cumsum(u.astype(object))
    tot = int(pref[-1])
    t_idx = np.arange(1, n + 1, dtype=np.int64)
    dev = np.abs(n * pref - t_idx.astype(object) * tot)
    k = int(np.argmax(dev))          # first max
    max_dev = int(dev[k])
    return pd.DataFrame([{
        "n_days": n, "argmax_t": k + 1, "max_dev_num": max_dev,
        "max_excursion": 0.0 if tot == 0 else np.round(
            float(max_dev) / float(n * tot), 6)}]).astype({
            "n_days": np.int64, "argmax_t": np.int64,
            "max_dev_num": np.int64})


SQL_CUSUMSQ = f"""
WITH {SQL_TREND_RESID_CTE.strip()},
p AS (SELECT x, SUM(CAST(u AS HUGEINT)) OVER (ORDER BY x) AS pref,
             ROW_NUMBER() OVER (ORDER BY x) AS t
      FROM res),
tt AS (SELECT MAX(pref) AS tot, CAST(COUNT(*) AS HUGEINT) AS n
       FROM p),
d AS (SELECT t, ABS(tt.n * pref - t * tt.tot) AS dev
      FROM p, tt),
mx AS (SELECT t, dev FROM d
       ORDER BY dev DESC, t LIMIT 1)
SELECT CAST(tt.n AS BIGINT) AS n_days,
       CAST(mx.t AS BIGINT) AS argmax_t,
       CAST(mx.dev AS BIGINT) AS max_dev_num,
       CASE WHEN tt.tot = 0 THEN 0.0
            ELSE ROUND(CAST(mx.dev AS DOUBLE)
                       / CAST(tt.n * tt.tot AS DOUBLE), 6)
       END AS max_excursion
FROM mx, tt
"""


def q_delta_varint_estimate(sf_dir: str):
    """Delta + LEB128-varint size estimate for the sorted orderkey
    column — the integer-column sibling of the Gorilla float op:
    deltas of the sorted keys varint-encode in ⌈bits/7⌉ bytes each
    (an EXACT integer per delta via threshold compares at 2⁷ᵏ), so
    the whole plan — raw 8 B/key vs delta-varint bytes and the
    compression ratio — is integer arithmetic with one mirrored
    division.  Distributed shape: per-block sorted deltas + boundary
    stitching via the global sort."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_orderkey"])

    def partial(t: pa.Table) -> pa.Table:
        k = np.sort(t["o_orderkey"].to_numpy(zero_copy_only=False)
                    .astype(np.int64))
        return pa.table({"kmin": pa.array([int(k.min())]),
                         "kmax": pa.array([int(k.max())]),
                         "n": pa.array([len(k)])})

    # exact global result needs the true sorted deltas: one
    # distributed sort, then per-block delta bytes + block-boundary
    # stitching on the driver (bounded by #blocks)
    ds = orders.sort("o_orderkey")
    tables = ray.get(ds.to_arrow_refs())

    def varint_bytes(d: np.ndarray):
        b = np.ones(len(d), dtype=np.int64)
        for k in range(1, 10):
            b += (d >= (1 << (7 * k))).astype(np.int64)
        return int(b.sum())

    total = 0
    n = 0
    prev_last = None
    for t in tables:
        if t.num_rows == 0:
            continue
        k = t["o_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        d = np.diff(k)
        total += varint_bytes(d)
        if prev_last is not None:
            total += varint_bytes(np.array([k[0] - prev_last],
                                           dtype=np.int64))
        else:
            total += varint_bytes(np.array([k[0]], dtype=np.int64))
        prev_last = int(k[-1])
        n += len(k)
    raw = 8 * n
    return pd.DataFrame([{
        "n_keys": n, "raw_bytes": raw, "varint_bytes": total,
        "ratio": np.round(float(raw) / float(total), 6)}]).astype({
            "n_keys": np.int64, "raw_bytes": np.int64,
            "varint_bytes": np.int64})


SQL_DELTA_VARINT = """
WITH s AS (SELECT o_orderkey AS k,
                  LAG(o_orderkey) OVER (ORDER BY o_orderkey) AS pk
           FROM orders),
d AS (SELECT COALESCE(k - pk, k) AS dv FROM s),
b AS (SELECT dv,
             1 + CASE WHEN dv >= 128 THEN 1 ELSE 0 END
               + CASE WHEN dv >= 16384 THEN 1 ELSE 0 END
               + CASE WHEN dv >= 2097152 THEN 1 ELSE 0 END
               + CASE WHEN dv >= 268435456 THEN 1 ELSE 0 END
               + CASE WHEN dv >= 34359738368 THEN 1 ELSE 0 END
               + CASE WHEN dv >= 4398046511104 THEN 1 ELSE 0 END
               + CASE WHEN dv >= 562949953421312 THEN 1 ELSE 0 END
               + CASE WHEN dv >= 72057594037927936 THEN 1 ELSE 0
                 END AS nb
      FROM d)
SELECT CAST(COUNT(*) AS BIGINT) AS n_keys,
       CAST(8 * COUNT(*) AS BIGINT) AS raw_bytes,
       CAST(SUM(nb) AS BIGINT) AS varint_bytes,
       ROUND(CAST(8 * COUNT(*) AS DOUBLE)
             / CAST(SUM(nb) AS DOUBLE), 6) AS ratio
FROM b
"""


def q_priority_sampling_total(sf_dir: str):
    """Duffield–Lund–Thorup priority sampling of order revenue —
    the weighted-sample-with-unbiased-subset-sums sketch: priority
    qᵢ = wᵢ/uᵢ with the DETERMINISTIC Knuth-hash uniform
    uᵢ = ((key·2654435761) mod 2³² + 1)/2³², keep the top k = 100
    priorities, τ = the (k+1)-th, and Σ max(wᵢ, τ) over the sample
    estimates the total.  Every per-row float is the identical
    2-op chain; the top-k cut ranks by the mirrored (q DESC, key)
    and the true total rides along as exact cents, so the estimate's
    relative error is an auditable column."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def pri(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        w = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        u = ((k * 2654435761) % 4294967296 + 1) / 4294967296.0
        q = w.astype(np.float64) / u
        df = pd.DataFrame({"k": k, "w": w, "q": q})
        df = df.sort_values(["q", "k"],
                            ascending=[False, True]).head(101)
        part = pa.Table.from_pandas(df, preserve_index=False)
        tot = pa.table({"k": pa.array([-1], type=pa.int64()),
                        "w": pa.array([int(w.sum())]),
                        "q": pa.array([np.inf])})
        return pa.concat_tables([part.cast(tot.schema), tot])

    rows = relational.ds_to_table(
        orders.map_batches(pri, batch_format="pyarrow")
    ).to_pandas()
    true_total = int(rows.loc[rows["k"] == -1, "w"].sum())
    cand = rows[rows["k"] >= 0].sort_values(
        ["q", "k"], ascending=[False, True]).head(101)
    kk = 100
    tau = float(cand["q"].iloc[kk]) if len(cand) > kk else 0.0
    top = cand.head(kk)
    # per-term milli-cent quantize BEFORE the sum: 100 doubles summed
    # in different orders drift in the last ulp at 1e10 magnitude
    e3 = int(np.floor(np.maximum(top["w"].to_numpy(np.float64),
                                 tau) * 1000.0 + 0.5)
             .astype(np.int64).sum())
    est = e3 / 1000.0
    return pd.DataFrame([{
        "k_sample": kk, "true_total_c": true_total,
        "estimate_e3": e3,
        "rel_error": np.round(abs(est - true_total)
                              / float(true_total), 6)}]).astype({
            "k_sample": np.int64, "true_total_c": np.int64,
            "estimate_e3": np.int64})


SQL_PRIORITY_SAMPLE = """
WITH o AS (SELECT o_orderkey AS k,
                  CAST(ROUND(o_totalprice * 100) AS BIGINT) AS w,
                  CAST(ROUND(o_totalprice * 100) AS BIGINT)
                  / (((o_orderkey * 2654435761) % 4294967296 + 1)
                     / 4294967296.0) AS q
           FROM orders),
r AS (SELECT k, w, q, ROW_NUMBER() OVER (ORDER BY q DESC, k) AS rn
      FROM o),
tau AS (SELECT q AS tau FROM r WHERE rn = 101),
t AS (SELECT SUM(w) AS total FROM o),
e AS (SELECT CAST(SUM(CAST(FLOOR(
            GREATEST(CAST(w AS DOUBLE),
                     (SELECT COALESCE(MAX(tau), 0) FROM tau))
            * 1000.0 + 0.5) AS BIGINT)) AS BIGINT) AS e3
      FROM r WHERE rn <= 100)
SELECT CAST(100 AS BIGINT) AS k_sample,
       CAST(t.total AS BIGINT) AS true_total_c,
       e.e3 AS estimate_e3,
       ROUND(ABS(e.e3 / 1000.0 - CAST(t.total AS DOUBLE))
             / CAST(t.total AS DOUBLE), 6) AS rel_error
FROM t, e
"""


def q_german_tank_orderkeys(sf_dir: str):
    """The German tank estimator on a deterministic 5% serial-number
    sample of orderkeys — WWII's serial-number lesson as an engine
    op: from k observed serials with maximum m, N̂ = m + m/k − 1
    (the UMVU estimate of the population maximum).  The sample is
    the Knuth-hash bucket (hash % 20 = 0, deterministic both
    engines); m, k are exact integers, N̂ spends one mirrored
    division, and the TRUE maximum rides along so the estimator's
    miss is an auditable integer."""
    from ray.data.aggregate import Max, Sum
    orders = _read(sf_dir, "orders", ["o_orderkey"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        samp = ((k * 2654435761) % 4294967296) % 20 == 0
        ks = k[samp]
        return pa.table({
            "_g": pa.array([0]),
            "k": pa.array([len(ks)]),
            "m": pa.array([int(ks.max()) if len(ks) else 0]),
            "truemax": pa.array([int(k.max())])})

    m = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("_g").aggregate(Sum("k", alias_name="k"),
                                 Max("m", alias_name="m"),
                                 Max("truemax",
                                     alias_name="truemax"))
    ).to_pandas().iloc[0]
    kk, mm, tm = int(m["k"]), int(m["m"]), int(m["truemax"])
    est = float(mm) + float(mm) / float(kk) - 1.0
    return pd.DataFrame([{
        "k_observed": kk, "sample_max": mm, "true_max": tm,
        "n_hat": np.round(est, 6)}]).astype({
            "k_observed": np.int64, "sample_max": np.int64,
            "true_max": np.int64})


SQL_GERMAN_TANK = """
WITH s AS (SELECT o_orderkey AS k FROM orders
           WHERE ((o_orderkey * 2654435761) % 4294967296) % 20 = 0),
a AS (SELECT CAST(COUNT(*) AS BIGINT) AS k,
             CAST(MAX(k) AS BIGINT) AS m FROM s),
t AS (SELECT CAST(MAX(o_orderkey) AS BIGINT) AS tm FROM orders)
SELECT a.k AS k_observed, a.m AS sample_max, t.tm AS true_max,
       ROUND(CAST(a.m AS DOUBLE) + CAST(a.m AS DOUBLE)
             / CAST(a.k AS DOUBLE) - 1.0, 6) AS n_hat
FROM a, t
"""


SQL_NAIVE_ERRORS_CTE = """
dr AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
              SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS rev
       FROM orders GROUP BY 1),
er AS (SELECT day, rev,
              rev - LAG(rev) OVER (ORDER BY day) AS e1,
              rev - LAG(rev, 7) OVER (ORDER BY day) AS e7
       FROM dr)
"""


def q_diebold_mariano_naive(sf_dir: str):
    """Diebold–Mariano forecast-comparison test: is the 7-lag
    seasonal-naive forecast of daily revenue actually BETTER than the
    1-lag naive (the only honest way to call a forecasting bake-off;
    RMSE tables alone can't say 'significantly')?  Loss differential
    dₜ = e₁² − e₇² per day is quantized to mega-cents² (the BP
    contract — raw squares overflow), its mean and variance are then
    exact-integer power sums, and DM = d̄/√(V/n) spends the mirrored
    float ops.  DM < 0 ⇒ the 1-lag naive wins."""
    d = _daily_revenue_cents(sf_dir).sort_values("day") \
        .reset_index(drop=True)
    rev = d["rev"].to_numpy(np.int64)
    # both-defined region: t ≥ 7 (in observation order)
    e1 = (rev[7:] - rev[6:-1]).astype(np.float64)
    e7 = (rev[7:] - rev[:-7]).astype(np.float64)
    dq = np.floor((e1 * e1 - e7 * e7) / 1e6 + 0.5).astype(np.int64)
    n = len(dq)
    s1 = int(dq.astype(object).sum())
    s2 = int((dq.astype(object) ** 2).sum())
    mean = float(s1) / float(n)
    var = float(s2) / float(n) - mean * mean
    dm = mean / float(np.sqrt(var / float(n)))
    return pd.DataFrame([{
        "n_days": n, "d_sum_m": s1,
        "dm_stat": np.round(dm, 6),
        "naive1_wins": s1 < 0}]).astype({
            "n_days": np.int64, "d_sum_m": np.int64})


SQL_DIEBOLD_MARIANO = f"""
WITH {SQL_NAIVE_ERRORS_CTE.strip()},
dd AS (SELECT CAST(FLOOR((CAST(e1 AS DOUBLE) * e1
                          - CAST(e7 AS DOUBLE) * e7) / 1e6 + 0.5)
              AS BIGINT) AS d
       FROM er WHERE e7 IS NOT NULL),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(d) AS BIGINT) AS s1,
             SUM(CAST(d AS HUGEINT) * d) AS s2
      FROM dd),
f AS (SELECT n, s1,
             CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE) AS mean,
             CAST(s2 AS DOUBLE) / CAST(n AS DOUBLE)
             - (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE))
               * (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE)) AS var
      FROM s)
SELECT n AS n_days, s1 AS d_sum_m,
       ROUND(mean / SQRT(var / CAST(n AS DOUBLE)), 6) AS dm_stat,
       s1 < 0 AS naive1_wins
FROM f
"""


def q_theil_u_revenue(sf_dir: str):
    """Theil's U₂ — the is-your-model-better-than-doing-nothing
    ratio: RMSE of the day-index trend forecast over RMSE of the
    1-lag naive (U < 1 earns the model its keep; U > 1 means the
    naive embarrasses it).  Trend residual squares ride the shared
    mega-cents² panel; naive squares come from exact integer diffs
    quantized identically; ONE mirrored √-of-ratio."""
    x, y, u = _trend_residual_panel(sf_dir)
    n = len(y)
    s_model = int(u[1:].astype(object).sum())   # align to naive span
    e_naive = (y[1:] - y[:-1]).astype(np.float64)
    qn = np.floor(e_naive * e_naive / 1e6 + 0.5).astype(np.int64)
    s_naive = int(qn.astype(object).sum())
    u2 = float(np.sqrt(float(s_model) / float(s_naive)))
    return pd.DataFrame([{
        "n_days": n, "sse_model_m": s_model, "sse_naive_m": s_naive,
        "theil_u2": np.round(u2, 6),
        "model_earns_keep": s_model < s_naive}]).astype({
            "n_days": np.int64, "sse_model_m": np.int64,
            "sse_naive_m": np.int64})


SQL_THEIL_U = f"""
WITH {SQL_TREND_RESID_CTE.strip()},
nv AS (SELECT rev - LAG(rev) OVER (ORDER BY x) AS e
       FROM ix),
sn AS (SELECT CAST(SUM(CAST(FLOOR(CAST(e AS DOUBLE) * e / 1e6
                                  + 0.5) AS BIGINT)) AS BIGINT)
         AS s_naive
       FROM nv WHERE e IS NOT NULL),
sm AS (SELECT CAST(SUM(u) AS BIGINT) AS s_model,
              CAST(COUNT(*) + 0 AS BIGINT) AS n
       FROM res WHERE x >= 1)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM ix) AS n_days,
       sm.s_model AS sse_model_m, sn.s_naive AS sse_naive_m,
       ROUND(SQRT(CAST(sm.s_model AS DOUBLE)
                  / CAST(sn.s_naive AS DOUBLE)), 6) AS theil_u2,
       sm.s_model < sn.s_naive AS model_earns_keep
FROM sm, sn
"""


def q_tracking_signal_naive(sf_dir: str):
    """Forecast tracking signal of the 1-lag naive on daily revenue —
    the ops-dashboard bias alarm (|TS| > 4 says the forecast is
    systematically off, rebuild it): TS = Σe / (Σ|e|/n), where the
    naive errors are EXACT integer day-over-day diffs — bias and MAD
    numerators never float, and the signal spends two mirrored
    divisions.  The sign says over- vs under-forecasting."""
    d = _daily_revenue_cents(sf_dir).sort_values("day") \
        .reset_index(drop=True)
    rev = d["rev"].to_numpy(np.int64)
    e = rev[1:] - rev[:-1]
    n = len(e)
    se = int(e.astype(object).sum())
    sae = int(np.abs(e).astype(object).sum())
    ts = float(se) / (float(sae) / float(n))
    return pd.DataFrame([{
        "n_errors": n, "bias_sum_c": se, "abs_sum_c": sae,
        "tracking_signal": np.round(ts, 6),
        "alarm": abs(se) * n > 4 * sae}]).astype({
            "n_errors": np.int64, "bias_sum_c": np.int64,
            "abs_sum_c": np.int64})


SQL_TRACKING_SIGNAL = f"""
WITH {SQL_NAIVE_ERRORS_CTE.strip()},
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(e1) AS BIGINT) AS se,
             CAST(SUM(ABS(e1)) AS BIGINT) AS sae
      FROM er WHERE e1 IS NOT NULL)
SELECT n AS n_errors, se AS bias_sum_c, sae AS abs_sum_c,
       ROUND(CAST(se AS DOUBLE)
             / (CAST(sae AS DOUBLE) / CAST(n AS DOUBLE)), 6)
         AS tracking_signal,
       ABS(se) * n > 4 * sae AS alarm
FROM s
"""


def q_gpd_pot_fit(sf_dir: str):
    """Peaks-over-threshold GPD fit of daily revenue by probability-
    weighted moments (Hosking–Wallis) — EVT's workhorse for 'how bad
    can a day get beyond what we've seen': threshold u = the exact
    p90 order statistic, exceedances y₍ᵢ₎ sorted, and the PWM sums
    k·b₀ = Σy and k(k−1)·b₁ = Σ(i−1)y₍ᵢ₎ are EXACT integers — shape
    ξ = 2 − b₀/(b₀−2b₁) and scale σ = 2b₀b₁/(b₀−2b₁) spend mirrored
    float chains, and the 100-day return level closes the loop
    (POWER is the one library call, shared round-6 guarded)."""
    d = _daily_revenue_cents(sf_dir)
    v = np.sort(d["rev"].to_numpy(np.int64))
    n = len(v)
    u = int(v[(9 * n + 9) // 10 - 1])
    y = np.sort(v[v > u] - u).astype(object)
    k = len(y)
    s0 = int(y.sum())
    s1 = int((np.arange(k, dtype=np.int64).astype(object)
              * y).sum())
    b0 = float(s0) / float(k)
    b1 = float(s1) / float(k * (k - 1))
    xi = 2.0 - b0 / (b0 - 2.0 * b1)
    sig = 2.0 * b0 * b1 / (b0 - 2.0 * b1)
    lam = float(k) / float(n)
    rl = float(u) + sig / xi * (float(np.power(100.0 * lam, xi))
                                - 1.0)
    # POWER differs by 1 ulp between numpy and DuckDB at this
    # magnitude: report the level in WHOLE cents via mirrored floor
    return pd.DataFrame([{
        "n_days": n, "threshold_c": u, "n_exceed": k,
        "xi_shape": np.round(xi, 6), "sigma_scale": np.round(sig, 6),
        "return_level_100d_c": int(np.floor(rl + 0.5))}]).astype({
            "n_days": np.int64, "threshold_c": np.int64,
            "n_exceed": np.int64, "return_level_100d_c": np.int64})


SQL_GPD_POT = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                    AS rev
           FROM orders GROUP BY 1),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM d),
u AS (SELECT rev AS u FROM (
        SELECT rev, ROW_NUMBER() OVER (ORDER BY rev) AS rn FROM d),
        n
      WHERE rn = (9 * n.n + 9) // 10),
y AS (SELECT rev - u.u AS y,
             ROW_NUMBER() OVER (ORDER BY rev - u.u) - 1 AS i
      FROM d, u WHERE rev > u.u),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS k,
             CAST(SUM(y) AS BIGINT) AS s0,
             CAST(SUM(CAST(i AS HUGEINT) * y) AS BIGINT) AS s1
      FROM y),
f AS (SELECT n.n, u.u, s.k,
             CAST(s.s0 AS DOUBLE) / CAST(s.k AS DOUBLE) AS b0,
             CAST(s.s1 AS DOUBLE)
               / CAST(s.k * (s.k - 1) AS DOUBLE) AS b1
      FROM n, u, s),
g AS (SELECT n, u, k, b0, b1,
             2.0 - b0 / (b0 - 2.0 * b1) AS xi,
             2.0 * b0 * b1 / (b0 - 2.0 * b1) AS sig
      FROM f)
SELECT n AS n_days, CAST(u AS BIGINT) AS threshold_c,
       k AS n_exceed, ROUND(xi, 6) AS xi_shape,
       ROUND(sig, 6) AS sigma_scale,
       CAST(FLOOR(CAST(u AS DOUBLE) + sig / xi
             * (POWER(100.0 * CAST(k AS DOUBLE) / CAST(n AS DOUBLE),
                      xi) - 1.0) + 0.5) AS BIGINT)
         AS return_level_100d_c
FROM g
"""


def q_gumbel_block_maxima(sf_dir: str):
    """Gumbel fit of YEARLY maximum daily revenue by L-moments — the
    block-maxima side of EVT (POT sees the tail; block maxima see the
    annual-peak law design codes are written against):
    n·λ₁ = Σm and n(n−1)·(λ₂-part) = Σ(i)·m₍ᵢ₎ are exact integers
    over the handful of yearly maxima, β = λ₂/ln2,
    μ = λ₁ − γ·β (Euler–Mascheroni as a shared literal), and the
    100-block return level μ − β·ln(−ln(0.99)) closes it."""
    from ray.data.aggregate import Max, Sum
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        yr = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[Y]").astype(np.int64) + 1970
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"yr": yr, "day": day, "pc_": cents}) \
            .groupby(["yr", "day"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    daily = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby(["yr", "day"]).aggregate(
            Sum("pc_", alias_name="rev"))).to_pandas()
    ym = daily.groupby("yr")["rev"].max().sort_values()
    m = np.sort(ym.to_numpy(np.int64)).astype(object)
    n = len(m)
    s0 = int(m.sum())
    s1 = int((np.arange(n, dtype=np.int64).astype(object)
              * m).sum())
    lam1 = float(s0) / float(n)
    b1 = float(s1) / float(n * (n - 1))
    lam2 = 2.0 * b1 - lam1
    beta = lam2 / float(np.log(2.0))
    mu = lam1 - 0.5772156649015329 * beta
    rl = mu - beta * float(np.log(-np.log(0.99)))
    return pd.DataFrame([{
        "n_blocks": n, "max_sum_c": s0,
        "beta_scale": np.round(beta, 6), "mu_location":
        np.round(mu, 6),
        "return_level_100y_c": np.round(rl, 6)}]).astype({
            "n_blocks": np.int64, "max_sum_c": np.int64})


SQL_GUMBEL_BLOCKS = """
WITH d AS (SELECT CAST(date_part('year', o_orderdate) AS BIGINT)
             AS yr,
                  epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                    AS rev
           FROM orders GROUP BY 1, 2),
ym AS (SELECT yr, CAST(MAX(rev) AS BIGINT) AS m FROM d GROUP BY 1),
r AS (SELECT m, ROW_NUMBER() OVER (ORDER BY m) - 1 AS i FROM ym),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(m) AS BIGINT) AS s0,
             CAST(SUM(CAST(i AS HUGEINT) * m) AS BIGINT) AS s1
      FROM r),
f AS (SELECT n, s0,
             CAST(s0 AS DOUBLE) / CAST(n AS DOUBLE) AS lam1,
             2.0 * (CAST(s1 AS DOUBLE)
                    / CAST(n * (n - 1) AS DOUBLE))
             - CAST(s0 AS DOUBLE) / CAST(n AS DOUBLE) AS lam2
      FROM s),
g AS (SELECT n, s0, lam1, lam2 / LN(2.0) AS beta FROM f)
SELECT n AS n_blocks, s0 AS max_sum_c,
       ROUND(beta, 6) AS beta_scale,
       ROUND(lam1 - 0.5772156649015329 * beta, 6) AS mu_location,
       ROUND(lam1 - 0.5772156649015329 * beta
             - beta * LN(-LN(0.99)), 6) AS return_level_100y_c
FROM g
"""


def q_es_backtest_z2(sf_dir: str):
    """Acerbi–Székely Z₂ backtest of Expected Shortfall on daily
    revenue DRAWDOWNS (losses = negative day-over-day changes) — the
    regulator-era question 'was our tail model honest', asked of the
    empirical 5% ES itself: VaR = exact order statistic of losses,
    ES = exact integer mean beyond it, and
    Z₂ = Σ(Lₜ·Iₜ)/(N·α·ES) − 1 spends two mirrored divisions (0
    under a perfectly calibrated model by construction when tested
    in-sample — the sanity anchor the golden pins near)."""
    d = _daily_revenue_cents(sf_dir).sort_values("day") \
        .reset_index(drop=True)
    rev = d["rev"].to_numpy(np.int64)
    loss = (rev[:-1] - rev[1:])          # positive = revenue drop
    n = len(loss)
    sl = np.sort(loss)
    k = (95 * n + 99) // 100             # ceil(0.95 n)
    var = int(sl[k - 1])
    # ≥-tail: under heavy ties a >-tail can be EMPTY (the order stat
    # is attained); the discrete-ES convention includes the VaR atom
    tail = loss[loss >= var]
    n_exc = len(tail)
    s_tail = int(tail.astype(object).sum())
    es = float(s_tail) / float(n_exc)
    # zero tail mass (var at 0 with no positive drops): sentinel −1
    z2 = -1.0 if s_tail == 0 else \
        float(s_tail) / (float(n) * 0.05 * es) - 1.0
    return pd.DataFrame([{
        "n_losses": n, "var95_c": var, "n_exceed": n_exc,
        "tail_sum_c": s_tail, "es95_c": np.round(es, 6),
        "z2_stat": np.round(z2, 6)}]).astype({
            "n_losses": np.int64, "var95_c": np.int64,
            "n_exceed": np.int64, "tail_sum_c": np.int64})


SQL_ES_BACKTEST = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                    AS rev
           FROM orders GROUP BY 1),
l AS (SELECT rev - LEAD(rev) OVER (ORDER BY day) AS loss FROM d),
ll AS (SELECT loss FROM l WHERE loss IS NOT NULL),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM ll),
v AS (SELECT loss AS var FROM (
        SELECT loss, ROW_NUMBER() OVER (ORDER BY loss) AS rn
        FROM ll), n
      WHERE rn = (95 * n.n + 99) // 100),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_exc,
             CAST(SUM(loss) AS BIGINT) AS s_tail
      FROM ll, v WHERE loss >= v.var),
f AS (SELECT n.n, v.var, t.n_exc, t.s_tail,
             CAST(t.s_tail AS DOUBLE) / CAST(t.n_exc AS DOUBLE)
               AS es
      FROM n, v, t)
SELECT n AS n_losses, CAST(var AS BIGINT) AS var95_c,
       n_exc AS n_exceed, s_tail AS tail_sum_c,
       ROUND(es, 6) AS es95_c,
       CASE WHEN s_tail = 0 THEN -1.0
            ELSE ROUND(CAST(s_tail AS DOUBLE)
                       / (CAST(n AS DOUBLE) * 0.05 * es) - 1.0, 6)
       END AS z2_stat
FROM f
"""


def _customer_revenue_sorted(sf_dir: str) -> np.ndarray:
    """Shared per-customer order-revenue reduce (exact cents, sorted
    ascending) for the inequality-ratio family."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"ck": t["o_custkey"].to_numpy(
            zero_copy_only=False).astype(np.int64), "c": cents}) \
            .groupby("ck", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    per = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("ck").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    return np.sort(per["c"].to_numpy(np.int64))


SQL_CUST_REVENUE_CTE = """
per AS (SELECT o_custkey,
               SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS c
        FROM orders GROUP BY 1),
r AS (SELECT c, ROW_NUMBER() OVER (ORDER BY c) AS rn FROM per),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(c) AS BIGINT) AS s FROM per)
"""


def q_pietra_index_revenue(sf_dir: str):
    """Pietra (Hoover/Robin Hood) index of customer revenue — the
    share of total revenue that would have to MOVE to equalize
    everyone, the single most interpretable inequality number:
    P = Σ|n·cᵢ − S| / (2nS), the numerator an exact arbitrary-
    precision integer, one mirrored division.  Also the maximum
    vertical gap of the Lorenz curve — the geometric reading the
    deciles op draws."""
    v = _customer_revenue_sorted(sf_dir).astype(object)
    n = len(v)
    s = int(v.sum())
    num = int(np.abs(n * v - s).sum())
    return pd.DataFrame([{
        "n_customers": n, "abs_dev_num": num,
        "pietra": np.round(float(num) / float(2 * n * s), 6)}]) \
        .astype({"n_customers": np.int64, "abs_dev_num": np.int64})


def _sql_pietra() -> str:
    return f"""
WITH {SQL_CUST_REVENUE_CTE.strip()},
d AS (SELECT SUM(ABS(n.n * CAST(per.c AS HUGEINT) - n.s)) AS num
      FROM per, n)
SELECT n.n AS n_customers, CAST(d.num AS BIGINT) AS abs_dev_num,
       ROUND(CAST(d.num AS DOUBLE)
             / CAST(2 * CAST(n.n AS HUGEINT) * n.s AS DOUBLE), 6)
         AS pietra
FROM d, n
"""


def q_palma_ratio_revenue(sf_dir: str):
    """Palma ratio of customer revenue — top-10% share over
    bottom-40% share, the inequality headline that replaced Gini in
    development economics (Gini is numb exactly where action happens,
    at the tails): both tail sums are exact integer partial sums over
    the sorted panel (⌊n/10⌋ top, ⌊2n/5⌋ bottom counts — integer
    cuts), ONE mirrored division."""
    v = _customer_revenue_sorted(sf_dir).astype(object)
    n = len(v)
    k_top = n // 10
    k_bot = 2 * n // 5
    top = int(v[n - k_top:].sum())
    bot = int(v[:k_bot].sum())
    return pd.DataFrame([{
        "n_customers": n, "k_top10": k_top, "k_bottom40": k_bot,
        "top_sum_c": top, "bottom_sum_c": bot,
        "palma": np.round(float(top) / float(bot), 6)}]).astype({
            "n_customers": np.int64, "k_top10": np.int64,
            "k_bottom40": np.int64, "top_sum_c": np.int64,
            "bottom_sum_c": np.int64})


def _sql_palma() -> str:
    return f"""
WITH {SQL_CUST_REVENUE_CTE.strip()},
t AS (SELECT
        (SELECT CAST(SUM(c) AS BIGINT) FROM r, n
         WHERE rn > n.n - n.n // 10) AS top_,
        (SELECT CAST(SUM(c) AS BIGINT) FROM r, n
         WHERE rn <= 2 * n.n // 5) AS bot)
SELECT n.n AS n_customers, CAST(n.n // 10 AS BIGINT) AS k_top10,
       CAST(2 * n.n // 5 AS BIGINT) AS k_bottom40,
       t.top_ AS top_sum_c, t.bot AS bottom_sum_c,
       ROUND(CAST(t.top_ AS DOUBLE) / CAST(t.bot AS DOUBLE), 6)
         AS palma
FROM t, n
"""


def q_s80_s20_revenue(sf_dir: str):
    """Eurostat's S80/S20 quintile share ratio on customer revenue —
    the official EU at-risk-of-inequality headline: the top and
    bottom QUINTILE sums over the sorted panel (⌊n/5⌋ cuts), exact
    integers, one mirrored division — carried beside Palma/Pietra/
    Gini so a user can watch the four disagree on the same data
    (they famously do)."""
    v = _customer_revenue_sorted(sf_dir).astype(object)
    n = len(v)
    k = n // 5
    top = int(v[n - k:].sum())
    bot = int(v[:k].sum())
    return pd.DataFrame([{
        "n_customers": n, "k_quintile": k, "s80_sum_c": top,
        "s20_sum_c": bot,
        "s80_s20": np.round(float(top) / float(bot), 6)}]).astype({
            "n_customers": np.int64, "k_quintile": np.int64,
            "s80_sum_c": np.int64, "s20_sum_c": np.int64})


def _sql_s80s20() -> str:
    return f"""
WITH {SQL_CUST_REVENUE_CTE.strip()},
t AS (SELECT
        (SELECT CAST(SUM(c) AS BIGINT) FROM r, n
         WHERE rn > n.n - n.n // 5) AS top_,
        (SELECT CAST(SUM(c) AS BIGINT) FROM r, n
         WHERE rn <= n.n // 5) AS bot)
SELECT n.n AS n_customers, CAST(n.n // 5 AS BIGINT) AS k_quintile,
       t.top_ AS s80_sum_c, t.bot AS s20_sum_c,
       ROUND(CAST(t.top_ AS DOUBLE) / CAST(t.bot AS DOUBLE), 6)
         AS s80_s20
FROM t, n
"""


def q_pages_trend_test(sf_dir: str):
    """Page's L trend test on monthly priority revenue — the ORDERED
    alternative the registry's Friedman op can't see: Friedman asks
    'do priorities differ at all?', Page asks 'does revenue rise
    MONOTONICALLY with urgency month after month?' and buys real
    power when the order is pre-specified (here: the natural
    1-URGENT < … < 5-LOW string order).  Rides Friedman's exact
    (month, priority) cents panel and its doubled-midrank discipline:
    L2 = Σ_j w_j·R2_j is a pure integer (w = 1..5 in priority order),
    the null moments 2E[L] = b·k(k+1)²/2 and 4·Var[L] =
    b·k²(k+1)²(k−1)/36 clear against the doubled statistic, and
    z = (L2 − 2E)/√(4Var) spends the one mirrored float chain."""
    import math
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders",
                   ["o_orderdate", "o_orderpriority", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        us = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]")
        mon = us.astype("datetime64[M]").astype(np.int64) + 1970 * 12
        cents = np.floor(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({
            "mon": mon,
            "prio": t["o_orderpriority"].to_numpy(
                zero_copy_only=False),
            "v": cents}).groupby(["mon", "prio"], sort=False) \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    mv = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby(["mon", "prio"]).aggregate(Sum("v", alias_name="v"))
    ).to_pandas()
    k = 5
    full = mv.groupby("mon")["prio"].transform("size") == k
    mv = mv[full].copy()
    b = mv["mon"].nunique()
    mv["r2"] = (mv.groupby("mon")["v"]
                .rank(method="average") * 2).astype(np.int64)
    r2 = mv.groupby("prio")["r2"].sum().sort_index()
    # weight 1 for 1-URGENT … 5 for 5-LOW: trend = urgent earns LEAST
    # under w ascending; a NEGATIVE z then reads 'urgency pays'
    l2 = sum((j + 1) * int(v) for j, v in enumerate(r2))
    e2 = b * k * (k + 1) * (k + 1) // 2
    var4 = b * k * k * (k + 1) * (k + 1) * (k - 1) // 36
    z = float(l2 - e2) / math.sqrt(float(var4))
    return pd.DataFrame([{
        "n_months": b, "k_treatments": k, "page_l2": l2,
        "z": np.round(z, 6)}]).astype({
            "n_months": np.int64, "k_treatments": np.int64,
            "page_l2": np.int64})


SQL_PAGES_TREND = """
WITH mv AS (SELECT date_part('year', o_orderdate) * 12
                   + date_part('month', o_orderdate) - 1 AS mon,
                   o_orderpriority AS prio,
                   SUM(CAST(FLOOR(o_totalprice * 100 + 0.5)
                            AS HUGEINT)) AS v
            FROM orders GROUP BY 1, 2),
fullb AS (SELECT mon FROM mv GROUP BY 1 HAVING COUNT(*) = 5),
r AS (SELECT mv.mon, mv.prio,
             2 * RANK() OVER (PARTITION BY mv.mon ORDER BY mv.v)
             + COUNT(*) OVER (PARTITION BY mv.mon, mv.v) - 1 AS r2
      FROM mv JOIN fullb USING (mon)),
rs AS (SELECT prio, SUM(r2) AS r2s,
             ROW_NUMBER() OVER (ORDER BY prio) AS w
      FROM r GROUP BY 1),
agg AS (SELECT (SELECT COUNT(*) FROM fullb) AS b,
               (SELECT SUM(w * r2s) FROM rs) AS l2)
SELECT CAST(b AS BIGINT) AS n_months, CAST(5 AS BIGINT)
         AS k_treatments,
       CAST(l2 AS BIGINT) AS page_l2,
       ROUND(CAST(l2 - b * 5 * 6 * 6 // 2 AS DOUBLE)
             / SQRT(CAST(b * 25 * 36 * 4 // 36 AS DOUBLE)), 6) AS z
FROM agg
"""


def q_littlewood_protection(sf_dir: str):
    """Littlewood's rule for the two-fare seat-protection problem —
    revenue management's founding result: protect y* units for the
    high fare where y* = F_D⁻¹(1 − p₂/p₁) over the HIGH-fare demand
    distribution (sell the marginal unit cheap only when the chance
    of a full-fare sale drops below the fare ratio).  Fares = mean
    order cents of 1-URGENT vs 5-LOW; demand = zero-filled daily
    URGENT order counts; the quantile condition clears to the pure
    integer comparison cum·S₁·n₂ ≥ D·(S₁·n₂ − S₂·n₁), so the
    protection level is exact."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders",
                   ["o_orderdate", "o_orderpriority", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        pr = t["o_orderpriority"].to_numpy(zero_copy_only=False)
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        urg = pr == "1-URGENT"
        low = pr == "5-LOW"
        g = pd.DataFrame({"day": day, "u": urg.astype(np.int64),
                          "s1": np.where(urg, cents, 0),
                          "n2": low.astype(np.int64),
                          "s2": np.where(low, cents, 0)}) \
            .groupby("day", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    d = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("day").aggregate(
            Sum("u", alias_name="u"), Sum("s1", alias_name="s1"),
            Sum("n2", alias_name="n2"), Sum("s2", alias_name="s2"))
    ).to_pandas().sort_values("day").reset_index(drop=True)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    urg = np.zeros(hi - lo + 1, dtype=np.int64)
    urg[days - lo] = d["u"].to_numpy(np.int64)
    n1 = int(d["u"].sum())
    s1 = int(d["s1"].sum())
    n2 = int(d["n2"].sum())
    s2 = int(d["s2"].sum())
    dd = len(urg)
    ys, cs = np.unique(urg, return_counts=True)
    cum = np.cumsum(cs)
    lhs_k = s1 * n2                    # exact python ints
    rhs = dd * (s1 * n2 - s2 * n1)
    y_star = int(ys[-1])
    for y, c in zip(ys, cum):
        if int(c) * lhs_k >= rhs:
            y_star = int(y)
            break
    return pd.DataFrame([{
        "n_days": dd, "n_urgent": n1, "n_low": n2,
        "p1_cents": np.round(s1 / n1, 6),
        "p2_cents": np.round(s2 / n2, 6),
        "critical_ratio": np.round(
            1.0 - (s2 * n1) / (s1 * n2), 6),
        "protection_level": y_star}]).astype({
            "n_days": np.int64, "n_urgent": np.int64,
            "n_low": np.int64, "protection_level": np.int64})


SQL_LITTLEWOOD = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CASE WHEN o_orderpriority = '1-URGENT'
                      THEN 1 ELSE 0 END) AS u
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day, COALESCE(d.u, 0) AS u
      FROM cal LEFT JOIN d USING (day)),
m AS (SELECT
        CAST(SUM(CASE WHEN o_orderpriority = '1-URGENT' THEN 1
                 ELSE 0 END) AS HUGEINT) AS n1,
        CAST(SUM(CASE WHEN o_orderpriority = '1-URGENT'
                 THEN CAST(ROUND(o_totalprice * 100) AS BIGINT)
                 ELSE 0 END) AS HUGEINT) AS s1,
        CAST(SUM(CASE WHEN o_orderpriority = '5-LOW' THEN 1
                 ELSE 0 END) AS HUGEINT) AS n2,
        CAST(SUM(CASE WHEN o_orderpriority = '5-LOW'
                 THEN CAST(ROUND(o_totalprice * 100) AS BIGINT)
                 ELSE 0 END) AS HUGEINT) AS s2
      FROM orders),
dist AS (SELECT u AS y, CAST(COUNT(*) AS HUGEINT) AS c
         FROM s GROUP BY 1),
cw AS (SELECT y, SUM(c) OVER (ORDER BY y) AS cum,
              SUM(c) OVER () AS dd
       FROM dist),
pick AS (SELECT COALESCE(
           (SELECT MIN(y) FROM cw, m
            WHERE cum * m.s1 * m.n2
                  >= cw.dd * (m.s1 * m.n2 - m.s2 * m.n1)),
           (SELECT MAX(y) FROM cw)) AS y_star)
SELECT CAST((SELECT MAX(dd) FROM cw) AS BIGINT) AS n_days,
       CAST(m.n1 AS BIGINT) AS n_urgent,
       CAST(m.n2 AS BIGINT) AS n_low,
       ROUND(CAST(m.s1 AS DOUBLE) / CAST(m.n1 AS DOUBLE), 6)
         AS p1_cents,
       ROUND(CAST(m.s2 AS DOUBLE) / CAST(m.n2 AS DOUBLE), 6)
         AS p2_cents,
       ROUND(1.0 - CAST(m.s2 * m.n1 AS DOUBLE)
             / CAST(m.s1 * m.n2 AS DOUBLE), 6) AS critical_ratio,
       CAST(pick.y_star AS BIGINT) AS protection_level
FROM m, pick
"""


def q_bass_diffusion_users(sf_dir: str):
    """Discrete-time Bass diffusion fit on user adoption — marketing
    science's canonical S-curve: daily NEW users S(t) regressed on
    prior cumulative adopters, S(t) = a + b·C(t−1) + c·C(t−1)², and
    the structural parameters recovered as m = (−b − √(b²−4ac))/2c,
    p = a/m (innovation), q = −c·m (imitation).  Adoption day = each
    CUSTOMER's first order date (the events table's users all arrive
    on day one — no curve there); the regression rows are the
    zero-filled
    daily span, every normal-equation moment an EXACT integer
    (C ≤ users, all folds order-free), the Cramer 3×3 solve one
    mirrored double chain; a negative discriminant returns NULL
    structural parameters by stated convention."""
    import math
    from ray.data.aggregate import Min, Sum
    ev = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def pfirst(t: pa.Table) -> pa.Table:
        us = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        g = pd.DataFrame({"k": t["o_custkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "f": us // 86_400_000_000}) \
            .groupby("k", sort=False).min().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    def pday(t: pa.Table) -> pa.Table:
        u, c = np.unique(t["f"].to_numpy(zero_copy_only=False)
                         .astype(np.int64), return_counts=True)
        return pa.table({"day": pa.array(u),
                         "s": pa.array(c.astype(np.int64))})

    g = relational.ds_to_table(
        ev.map_batches(pfirst, batch_format="pyarrow")
        .groupby("k").aggregate(Min("f", alias_name="f"))
        .map_batches(pday, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("s", alias_name="s"))
    ).to_pandas().sort_values("day").reset_index(drop=True)
    days = g["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    s = np.zeros(hi - lo + 1, dtype=np.int64)
    s[days - lo] = g["s"].to_numpy(np.int64)
    cprev = np.concatenate([[0], np.cumsum(s)[:-1]]).astype(object)
    sv = s.astype(object)
    x2 = cprev * cprev
    nn = len(sv)
    m_ = {"s1": int(cprev.sum()), "s2": int(x2.sum()),
          "s11": int((cprev * cprev).sum()),
          "s12": int((cprev * x2).sum()),
          "s22": int((x2 * x2).sum()), "sy": int(sv.sum()),
          "sy1": int((sv * cprev).sum()),
          "sy2": int((sv * x2).sum())}
    f = {k: float(v) for k, v in m_.items()}
    fn = float(nn)

    def det3(a1, b1, c1, a2, b2, c2, a3, b3, c3):
        return a1 * (b2 * c3 - c2 * b3) - b1 * (a2 * c3 - c2 * a3) \
            + c1 * (a2 * b3 - b2 * a3)

    dd = det3(fn, f["s1"], f["s2"],
              f["s1"], f["s11"], f["s12"],
              f["s2"], f["s12"], f["s22"])
    da = det3(f["sy"], f["s1"], f["s2"],
              f["sy1"], f["s11"], f["s12"],
              f["sy2"], f["s12"], f["s22"])
    db = det3(fn, f["sy"], f["s2"],
              f["s1"], f["sy1"], f["s12"],
              f["s2"], f["sy2"], f["s22"])
    dc = det3(fn, f["s1"], f["sy"],
              f["s1"], f["s11"], f["sy1"],
              f["s2"], f["s12"], f["sy2"])
    ca, cb, cc = da / dd, db / dd, dc / dd
    disc = cb * cb - 4.0 * ca * cc
    if disc >= 0 and cc != 0:
        mp = (-cb - math.sqrt(disc)) / (2.0 * cc)
        p = ca / mp
        q = -cc * mp
        mp_r, p_r, q_r = (np.round(mp, 6), np.round(p, 6),
                          np.round(q, 6))
    else:
        mp_r = p_r = q_r = np.nan
    return pd.DataFrame([{
        "n_days": nn, "n_adopters": int(np.cumsum(s)[-1]),
        "coef_a": np.round(ca, 6), "coef_b": np.round(cb, 6),
        "coef_c": np.round(cc, 6), "m_potential": mp_r,
        "p_innovation": p_r, "q_imitation": q_r}]).astype({
            "n_days": np.int64, "n_adopters": np.int64})


SQL_BASS_DIFFUSION = """
WITH fu AS (SELECT o_custkey,
                   MIN(CAST(epoch_us(o_orderdate) // 86400000000
                            AS BIGINT)) AS f
            FROM orders GROUP BY 1),
d AS (SELECT f AS day, CAST(COUNT(*) AS BIGINT) AS s
      FROM fu GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
z AS (SELECT cal.day, COALESCE(d.s, 0) AS s
      FROM cal LEFT JOIN d USING (day)),
w AS (SELECT s,
             CAST(COALESCE(SUM(s) OVER (ORDER BY day
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                 0) AS HUGEINT) AS cp
      FROM z),
t AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(cp) AS s1,
             SUM(cp * cp) AS s11, SUM(cp * cp) AS s2,
             SUM(cp * cp * cp) AS s12,
             SUM(cp * cp * cp * cp) AS s22,
             SUM(CAST(s AS HUGEINT)) AS sy,
             SUM(s * cp) AS sy1, SUM(s * cp * cp) AS sy2
      FROM w),
fl AS (SELECT CAST(n AS DOUBLE) AS n, CAST(s1 AS DOUBLE) AS s1,
              CAST(s2 AS DOUBLE) AS s2, CAST(s11 AS DOUBLE) AS s11,
              CAST(s12 AS DOUBLE) AS s12,
              CAST(s22 AS DOUBLE) AS s22,
              CAST(sy AS DOUBLE) AS sy, CAST(sy1 AS DOUBLE) AS sy1,
              CAST(sy2 AS DOUBLE) AS sy2,
              CAST(n AS BIGINT) AS nb, CAST(sy AS BIGINT) AS syb
       FROM t),
co AS (SELECT nb, syb,
         (n * (s11 * s22 - s12 * s12) - s1 * (s1 * s22 - s12 * s2)
          + s2 * (s1 * s12 - s11 * s2)) AS dd,
         (sy * (s11 * s22 - s12 * s12)
          - s1 * (sy1 * s22 - s12 * sy2)
          + s2 * (sy1 * s12 - s11 * sy2)) AS da,
         (n * (sy1 * s22 - s12 * sy2) - sy * (s1 * s22 - s12 * s2)
          + s2 * (s1 * sy2 - sy1 * s2)) AS db,
         (n * (s11 * sy2 - sy1 * s12) - s1 * (s1 * sy2 - sy1 * s2)
          + sy * (s1 * s12 - s11 * s2)) AS dc
       FROM fl),
ab AS (SELECT nb, syb, da / dd AS ca, db / dd AS cb, dc / dd AS cc
       FROM co),
fin AS (SELECT nb, syb, ca, cb, cc,
               cb * cb - 4.0 * ca * cc AS disc
        FROM ab)
SELECT nb AS n_days, syb AS n_adopters,
       ROUND(ca, 6) AS coef_a, ROUND(cb, 6) AS coef_b,
       ROUND(cc, 6) AS coef_c,
       CASE WHEN disc >= 0 AND cc <> 0
            THEN ROUND((-cb - SQRT(disc)) / (2.0 * cc), 6)
            ELSE NULL END AS m_potential,
       CASE WHEN disc >= 0 AND cc <> 0
            THEN ROUND(ca / ((-cb - SQRT(disc)) / (2.0 * cc)), 6)
            ELSE NULL END AS p_innovation,
       CASE WHEN disc >= 0 AND cc <> 0
            THEN ROUND(-cc * ((-cb - SQRT(disc)) / (2.0 * cc)), 6)
            ELSE NULL END AS q_imitation
FROM fin
"""


def q_sample_entropy_revenue(sf_dir: str):
    """Sample entropy (SampEn, m = 2) of gap-filled daily revenue —
    the regularity statistic of physiology/finance (Richman–Moorman):
    −ln(A/B) where B counts template pairs of length 2 within
    Chebyshev tolerance r and A the same at length 3; LOW SampEn =
    repetitive, predictable days.  Tolerance r = ⌊0.2·σ⌋ integer
    cents from exact population moments, so every match decision is
    an integer comparison and A, B are exact counts; the single
    −ln(A/B) is mirrored.  A or B = 0 → NULL by convention."""
    import math
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    x = np.zeros(hi - lo + 1, dtype=np.int64)
    x[days - lo] = d["rev"].to_numpy(np.int64)
    n = len(x)
    s = int(x.sum())
    s2 = int((x.astype(object) * x.astype(object)).sum())
    sigma = math.sqrt(float(n * s2 - s * s)) / n
    r = int(np.floor(0.2 * sigma))
    d0 = np.abs(x[:, None] - x[None, :]) <= r
    iu = np.triu_indices(n, k=1)
    m2 = d0[:-1, :-1] & d0[1:, 1:]
    b_cnt = int(m2[np.triu_indices(n - 1, k=1)].sum())
    m3 = m2[:-1, :-1] & d0[2:, 2:]
    a_cnt = int(m3[np.triu_indices(n - 2, k=1)].sum())
    del d0, m2, m3, iu
    se = np.nan if a_cnt == 0 or b_cnt == 0 else \
        -math.log(a_cnt / b_cnt)
    return pd.DataFrame([{
        "n_days": n, "r_cents": r, "b_pairs": b_cnt,
        "a_pairs": a_cnt, "sampen": np.round(se, 6)}]).astype({
            "n_days": np.int64, "r_cents": np.int64,
            "b_pairs": np.int64, "a_pairs": np.int64})


SQL_SAMPEN = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day - (SELECT lo FROM bounds) AS t,
             COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d ON d.day = cal.day),
g AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(rev) AS sv,
             SUM(rev * rev) AS s2
      FROM s),
rr AS (SELECT CAST(n AS BIGINT) AS n,
              CAST(FLOOR(0.2 * (SQRT(CAST(n * s2 - sv * sv
                                          AS DOUBLE)) / n))
                   AS BIGINT) AS r
       FROM g),
le AS (SELECT t, rev, LEAD(rev, 1) OVER (ORDER BY t) AS r1,
              LEAD(rev, 2) OVER (ORDER BY t) AS r2
       FROM s),
bc AS (SELECT CAST(COUNT(*) AS BIGINT) AS b
       FROM le a JOIN le b ON b.t > a.t, rr
       WHERE a.r1 IS NOT NULL AND b.r1 IS NOT NULL
         AND ABS(a.rev - b.rev) <= rr.r
         AND ABS(a.r1 - b.r1) <= rr.r),
ac AS (SELECT CAST(COUNT(*) AS BIGINT) AS a
       FROM le a JOIN le b ON b.t > a.t, rr
       WHERE a.r2 IS NOT NULL AND b.r2 IS NOT NULL
         AND ABS(a.rev - b.rev) <= rr.r
         AND ABS(a.r1 - b.r1) <= rr.r
         AND ABS(a.r2 - b.r2) <= rr.r)
SELECT rr.n AS n_days, rr.r AS r_cents, bc.b AS b_pairs,
       ac.a AS a_pairs,
       CASE WHEN ac.a = 0 OR bc.b = 0 THEN NULL
            ELSE ROUND(-LN(CAST(ac.a AS DOUBLE)
                           / CAST(bc.b AS DOUBLE)), 6) END
         AS sampen
FROM rr, bc, ac
"""


def q_spectral_entropy_revenue(sf_dir: str):
    """Spectral entropy of daily revenue over the periodogram op's
    13 trial periods — ONE number for 'is the energy concentrated in
    a single cycle or smeared flat?' (0 = pure tone, 1 = white):
    powers sc² + ss² are EXACT integers off the same milli-quantized
    trig table, the shares p_k exact rationals, each −p·ln p term
    nano-quantized before the fold, H normalized by ln 13."""
    import math
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    series = np.zeros(hi - lo + 1, dtype=np.int64)
    series[days - lo] = d["rev"].to_numpy(np.int64)
    xs = [int(v) for v in series]
    n = len(xs)
    s = sum(xs)
    X = [n * v - s for v in xs]
    powers = []
    for p in range(2, 15):
        sc = sum(x * _PERIODOGRAM_TRIG[(p, t % p)][0]
                 for t, x in enumerate(X))
        ss = sum(x * _PERIODOGRAM_TRIG[(p, t % p)][1]
                 for t, x in enumerate(X))
        powers.append(sc * sc + ss * ss)
    tot = sum(powers)
    h9 = 0
    for pw in powers:
        if pw > 0:
            pk = float(pw) / float(tot)   # double/double, the twin's chain
            h9 += int(np.floor(-pk * math.log(pk) * 1e9 + 0.5))
    h = h9 / 1e9 / math.log(13.0)
    return pd.DataFrame([{
        "n_days": n, "n_periods": 13,
        "spectral_entropy": np.round(h, 6)}]).astype({
            "n_days": np.int64, "n_periods": np.int64})


def _sql_spectral_entropy() -> str:
    vals = ", ".join(f"({p}, {ph}, {c}, {s})"
                     for (p, ph), (c, s) in
                     sorted(_PERIODOGRAM_TRIG.items()))
    return f"""
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day - (SELECT lo FROM bounds) AS t,
             COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d ON d.day = cal.day),
g AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(rev) AS sv FROM s),
x AS (SELECT s.t, g.n * s.rev - g.sv AS xc, g.n FROM s, g),
trig(p, ph, c, sn) AS (VALUES {vals}),
f AS (SELECT trig.p AS period, SUM(x.xc * trig.c) AS sc,
             SUM(x.xc * trig.sn) AS ss, MAX(x.n) AS n
      FROM x JOIN trig ON trig.ph = x.t % trig.p
      GROUP BY 1),
pw AS (SELECT period, sc * sc + ss * ss AS p, MAX(n) OVER () AS n
       FROM f),
tt AS (SELECT SUM(p) AS tot FROM pw),
h AS (SELECT SUM(CASE WHEN pw.p > 0 THEN
         CAST(FLOOR(-(CAST(pw.p AS DOUBLE) / CAST(tt.tot AS DOUBLE))
                    * LN(CAST(pw.p AS DOUBLE)
                         / CAST(tt.tot AS DOUBLE)) * 1e9 + 0.5)
              AS BIGINT) ELSE 0 END) AS h9,
             MAX(pw.n) AS n
      FROM pw, tt)
SELECT CAST(n AS BIGINT) AS n_days, CAST(13 AS BIGINT) AS n_periods,
       ROUND(h9 / 1e9 / LN(13.0), 6) AS spectral_entropy
FROM h
"""


def q_higuchi_fd_revenue(sf_dir: str):
    """Higuchi fractal dimension of daily revenue (kmax = 8) — the
    roughness exponent beside the registry's Hurst R/S (FD ≈ 2 − H
    for self-affine series; the two disagreeing flags a regime the
    model family can't fit): curve lengths L(k) at strides 1..8,
    FD = −slope of ln L(k) on ln k.  Per-(k, phase) lengths are
    exact-integer numerators through one identical double division
    then nano-quantization; the 8-point OLS is mirrored."""
    import math
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    x = np.zeros(hi - lo + 1, dtype=np.int64)
    x[days - lo] = d["rev"].to_numpy(np.int64)
    n = len(x)
    kmax = 8
    sx9 = sy9 = sxy9 = sxx9 = 0
    for k in range(1, kmax + 1):
        l9 = 0
        for ph in range(k):
            idx = np.arange(ph, n, k)
            if len(idx) < 2:
                continue
            num = int(np.abs(np.diff(x[idx].astype(object))).sum())
            nn = len(idx) - 1
            # UNIT quantization: lengths are ~1e10 cents, so +-0.5
            # is 5e-11 relative - nano here would overflow int64
            l9 += int(np.floor(float(num * (n - 1))
                               / float(nn * k * k) + 0.5))
        xk = math.log(float(k))
        yk = math.log(l9 / (k * 1.0))
        sx9 += int(np.floor(xk * 1e9 + 0.5))
        sy9 += int(np.floor(yk * 1e9 + 0.5))
        sxy9 += int(np.floor(xk * yk * 1e9 + 0.5))
        sxx9 += int(np.floor(xk * xk * 1e9 + 0.5))
    sx, sy = sx9 / 1e9, sy9 / 1e9
    sxy, sxx = sxy9 / 1e9, sxx9 / 1e9
    slope = (kmax * sxy - sx * sy) / (kmax * sxx - sx * sx)
    return pd.DataFrame([{
        "n_days": n, "kmax": kmax,
        "higuchi_fd": np.round(-slope, 6)}]).astype({
            "n_days": np.int64, "kmax": np.int64})


SQL_HIGUCHI = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day - (SELECT lo FROM bounds) AS t,
             COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d ON d.day = cal.day),
nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM s),
ks AS (SELECT unnest(generate_series(1, 8)) AS k),
pr AS (SELECT ks.k, a.t % ks.k AS ph,
              SUM(ABS(b.rev - a.rev)) AS num,
              CAST(COUNT(*) AS BIGINT) AS c
       FROM s a JOIN ks ON TRUE
       JOIN s b ON b.t = a.t + ks.k
       GROUP BY 1, 2),
lk AS (SELECT pr.k,
              SUM(CAST(FLOOR(CAST(pr.num * (nn.n - 1) AS DOUBLE)
                             / CAST(pr.c * pr.k * pr.k AS DOUBLE)
                             + 0.5) AS HUGEINT)) AS l9
       FROM pr, nn GROUP BY pr.k),
q AS (SELECT LN(CAST(k AS DOUBLE)) AS xk,
             LN(l9 / (k * 1.0)) AS yk
      FROM lk),
m AS (SELECT CAST(COUNT(*) AS BIGINT) AS km,
             SUM(CAST(FLOOR(xk * 1e9 + 0.5) AS BIGINT)) / 1e9 AS sx,
             SUM(CAST(FLOOR(yk * 1e9 + 0.5) AS BIGINT)) / 1e9 AS sy,
             SUM(CAST(FLOOR(xk * yk * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS sxy,
             SUM(CAST(FLOOR(xk * xk * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS sxx
      FROM q)
SELECT nn.n AS n_days, m.km AS kmax,
       ROUND(-((m.km * m.sxy - m.sx * m.sy)
               / (m.km * m.sxx - m.sx * m.sx)), 6) AS higuchi_fd
FROM m, nn
"""


def q_gibrat_law_customers(sf_dir: str):
    """Gibrat's law test on customer revenue — is growth independent
    of size?  The law that makes firm sizes lognormal: regress
    g = ln(rev₂/rev₁) on ln rev₁ across customers active in BOTH
    halves of the calendar (split at the integer midpoint day);
    slope ≈ 0 is Gibrat, negative slope = small customers grow
    faster (mean reversion).  Exact cents from one split reduce;
    per-customer log terms nano-quantized; OLS slope + Pearson r
    mirrored."""
    import math
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_totalprice"])
    from ray.data.aggregate import Max, Min
    mm = _read(sf_dir, "orders", ["o_orderdate"]).map_batches(
        lambda t: pa.table({"d": pa.array(
            t["o_orderdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
            // 86_400_000_000)}),
        batch_format="pyarrow") \
        .aggregate(Min("d"), Max("d"))
    mid = (int(mm["min(d)"]) + int(mm["max(d)"])) // 2

    def partial(t: pa.Table) -> pa.Table:
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        h1 = day <= mid
        g = pd.DataFrame({"k": t["o_custkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "r1": np.where(h1, cents, 0),
            "r2": np.where(h1, 0, cents)}) \
            .groupby("k", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("k").aggregate(Sum("r1", alias_name="r1"),
                                Sum("r2", alias_name="r2"))
    ).to_pandas()
    g = g[(g["r1"] > 0) & (g["r2"] > 0)]
    n = len(g)
    sx9 = sy9 = sxy9 = sxx9 = syy9 = 0
    for r in g.itertuples(index=False):
        x = math.log(float(int(r.r1)))
        y = math.log(float(int(r.r2))) - x
        sx9 += int(np.floor(x * 1e9 + 0.5))
        sy9 += int(np.floor(y * 1e9 + 0.5))
        sxy9 += int(np.floor(x * y * 1e9 + 0.5))
        sxx9 += int(np.floor(x * x * 1e9 + 0.5))
        syy9 += int(np.floor(y * y * 1e9 + 0.5))
    sx, sy = sx9 / 1e9, sy9 / 1e9
    sxy, sxx, syy = sxy9 / 1e9, sxx9 / 1e9, syy9 / 1e9
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    den2 = n * syy - sy * sy
    r_p = np.nan if den2 <= 0 else \
        (n * sxy - sx * sy) / (math.sqrt(n * sxx - sx * sx)
                               * math.sqrt(den2))
    return pd.DataFrame([{
        "n_customers": n, "mid_day": mid,
        "slope": np.round(slope, 6),
        "pearson_r": np.round(r_p, 6)}]).astype({
            "n_customers": np.int64, "mid_day": np.int64})


SQL_GIBRAT = """
WITH b AS (SELECT (MIN(CAST(epoch_us(o_orderdate) // 86400000000
                            AS BIGINT))
                   + MAX(CAST(epoch_us(o_orderdate) // 86400000000
                              AS BIGINT))) // 2 AS mid
           FROM orders),
cr AS (SELECT o_custkey,
              SUM(CASE WHEN CAST(epoch_us(o_orderdate)
                            // 86400000000 AS BIGINT) <= b.mid
                  THEN CAST(ROUND(o_totalprice * 100) AS BIGINT)
                  ELSE 0 END) AS r1,
              SUM(CASE WHEN CAST(epoch_us(o_orderdate)
                            // 86400000000 AS BIGINT) > b.mid
                  THEN CAST(ROUND(o_totalprice * 100) AS BIGINT)
                  ELSE 0 END) AS r2
       FROM orders, b GROUP BY 1, b.mid),
q AS (SELECT LN(CAST(r1 AS DOUBLE)) AS x,
             LN(CAST(r2 AS DOUBLE)) - LN(CAST(r1 AS DOUBLE)) AS y
      FROM cr WHERE r1 > 0 AND r2 > 0),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             SUM(CAST(FLOOR(x * 1e9 + 0.5) AS BIGINT)) / 1e9 AS sx,
             SUM(CAST(FLOOR(y * 1e9 + 0.5) AS BIGINT)) / 1e9 AS sy,
             SUM(CAST(FLOOR(x * y * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS sxy,
             SUM(CAST(FLOOR(x * x * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS sxx,
             SUM(CAST(FLOOR(y * y * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS syy
      FROM q)
SELECT n AS n_customers, (SELECT CAST(mid AS BIGINT) FROM b)
         AS mid_day,
       ROUND((n * sxy - sx * sy) / (n * sxx - sx * sx), 6) AS slope,
       CASE WHEN n * syy - sy * sy <= 0 THEN NULL
            ELSE ROUND((n * sxy - sx * sy)
                       / (SQRT(n * sxx - sx * sx)
                          * SQRT(n * syy - sy * sy)), 6) END
         AS pearson_r
FROM s
"""


def q_bloom_size_advisor(sf_dir: str):
    """Bloom-filter sizing advisor for the distinct order keys — the
    closed-form m = −n·ln p/(ln 2)², k = round(m/n·ln 2) every
    engine's build-side planner runs before the `semi_customers_
    bloom` op's filter is worth shipping: exact distinct count n
    from one reduce, then the bits / bits-per-key / hash-count /
    MB ladder at target FPRs 1e-1…1e-4.  All libm chains identical;
    the integer k is decided on the ROUNDED double (stated)."""
    import math
    from ray.data.aggregate import Sum
    ok = _read(sf_dir, "orders", ["o_custkey"])

    def pk(t: pa.Table) -> pa.Table:
        u = np.unique(t["o_custkey"].to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        return pa.table({"k": pa.array(u),
                         "c": pa.array(np.ones(len(u), np.int64))})

    n = relational.ds_to_table(
        ok.map_batches(pk, batch_format="pyarrow")
        .groupby("k").aggregate(Sum("c", alias_name="c"))
    ).num_rows
    ln2 = math.log(2.0)
    rows = []
    for p in (0.1, 0.01, 0.001, 0.0001):
        m = -n * math.log(p) / (ln2 * ln2)
        k = int(np.floor(m / n * ln2 + 0.5))
        rows.append({
            "target_fpr": p, "n_keys": n,
            "bits": int(np.floor(m + 0.5)),
            "bits_per_key": np.round(m / n, 6),
            "n_hashes": k,
            "mbytes": np.round(m / 8.0 / 1048576.0, 6)})
    return pd.DataFrame(rows).astype({
        "n_keys": np.int64, "bits": np.int64, "n_hashes": np.int64})


SQL_BLOOM_ADVISOR = """
WITH n AS (SELECT CAST(COUNT(DISTINCT o_custkey) AS BIGINT) AS n
           FROM orders),
p AS (SELECT p FROM (VALUES (0.1), (0.01), (0.001), (0.0001)) v(p)),
m AS (SELECT p.p, n.n,
             -(n.n) * LN(p.p) / (LN(2.0) * LN(2.0)) AS m
      FROM p, n)
SELECT p AS target_fpr, n AS n_keys,
       CAST(FLOOR(m + 0.5) AS BIGINT) AS bits,
       ROUND(m / n, 6) AS bits_per_key,
       CAST(FLOOR(m / n * LN(2.0) + 0.5) AS BIGINT) AS n_hashes,
       ROUND(m / 8.0 / 1048576.0, 6) AS mbytes
FROM m ORDER BY target_fpr DESC
"""


def q_imr_chart_revenue(sf_dir: str):
    """Individuals/moving-range (I-MR) control chart on daily revenue
    — the SPC chart for n = 1 subgroups that completes the p/c/CUSUM
    /EWMA family: MR_t = |x_t − x_{t−1}| exact integer cents, limits
    x̄ ± 2.66·M̄R and D₄·M̄R = 3.267·M̄R (the standard d₂-based
    constants as literals), out-of-control counts by integer-vs-
    limit compares identical in both engines."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    x = np.zeros(hi - lo + 1, dtype=np.int64)
    x[days - lo] = d["rev"].to_numpy(np.int64)
    n = len(x)
    s = int(x.sum())
    mr = np.abs(np.diff(x.astype(object)))
    smr = int(mr.sum())
    xbar = float(s) / n
    mrbar = float(smr) / (n - 1)
    ucl_x = xbar + 2.66 * mrbar
    lcl_x = xbar - 2.66 * mrbar
    ucl_mr = 3.267 * mrbar
    n_x = int(((x > ucl_x) | (x < lcl_x)).sum())
    n_mr = int((mr.astype(np.float64) > ucl_mr).sum())
    return pd.DataFrame([{
        "n_days": n, "xbar_c": np.round(xbar, 6),
        "mrbar_c": np.round(mrbar, 6),
        "ucl_x_c": np.round(ucl_x, 6),
        "lcl_x_c": np.round(lcl_x, 6),
        "ucl_mr_c": np.round(ucl_mr, 6),
        "n_x_ooc": n_x, "n_mr_ooc": n_mr}]).astype({
            "n_days": np.int64, "n_x_ooc": np.int64,
            "n_mr_ooc": np.int64})


SQL_IMR_CHART = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day, COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d USING (day)),
m AS (SELECT rev, ABS(rev - LAG(rev) OVER (ORDER BY day)) AS mr
      FROM s),
g AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(rev) AS DOUBLE) / COUNT(*) AS xbar,
             CAST(SUM(mr) AS DOUBLE) / (COUNT(*) - 1) AS mrbar
      FROM m),
f AS (SELECT n, xbar, mrbar, xbar + 2.66 * mrbar AS ux,
             xbar - 2.66 * mrbar AS lx, 3.267 * mrbar AS umr
      FROM g)
SELECT f.n AS n_days, ROUND(f.xbar, 6) AS xbar_c,
       ROUND(f.mrbar, 6) AS mrbar_c, ROUND(f.ux, 6) AS ucl_x_c,
       ROUND(f.lx, 6) AS lcl_x_c, ROUND(f.umr, 6) AS ucl_mr_c,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM m, f
        WHERE m.rev > f.ux OR m.rev < f.lx) AS n_x_ooc,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM m, f
        WHERE m.mr > f.umr) AS n_mr_ooc
FROM f
"""


def q_pps_systematic_customers(sf_dir: str):
    """Probability-proportional-to-size SYSTEMATIC sampling of
    customers by revenue — the survey workhorse (one random start,
    fixed skip; here the deterministic mid-step start, stated):
    cumulate exact revenue cents in custkey order, step = T/k
    (k = 20), select the unit whose cumulative interval contains
    each skip point (2i+1)·T/(2k) — the containment test clears to
    the pure integer comparison 2k·cum > (2i+1)·T ≥ 2k·(cum−size).
    Exact end to end; big units can win multiple points (reported),
    which is PPS working as designed."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"k": t["o_custkey"].to_numpy(
            zero_copy_only=False).astype(np.int64), "v": cents}) \
            .groupby("k", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("k").aggregate(Sum("v", alias_name="v"))
    ).to_pandas().sort_values("k").reset_index(drop=True)
    v = g["v"].to_numpy(np.int64).astype(object)
    cum = np.cumsum(v)
    t_tot = int(cum[-1])
    kk = 20
    sel = {}
    j = 0
    for i in range(kk):
        pt_ = (2 * i + 1) * t_tot
        while 2 * kk * int(cum[j]) <= pt_:
            j += 1
        key = int(g["k"].iloc[j])
        sel[key] = sel.get(key, 0) + 1
    rows = [{"c_custkey": k_, "n_hits": h,
             "revenue_cents": int(g.set_index("k").loc[k_, "v"])}
            for k_, h in sel.items()]
    return pd.DataFrame(rows).sort_values("c_custkey") \
        .reset_index(drop=True).astype({
            "c_custkey": np.int64, "n_hits": np.int64,
            "revenue_cents": np.int64})


SQL_PPS_SYSTEMATIC = """
WITH cr AS (SELECT o_custkey AS k,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS v
            FROM orders GROUP BY 1),
w AS (SELECT k, v, SUM(v) OVER (ORDER BY k) AS cum,
             SUM(v) OVER () AS t
      FROM cr),
pts AS (SELECT unnest(generate_series(0, 19)) AS i),
hit AS (SELECT pts.i, MIN(w.k) AS k
        FROM pts JOIN w
          ON 2 * 20 * CAST(w.cum AS HUGEINT)
             > (2 * pts.i + 1) * CAST(w.t AS HUGEINT)
         AND (2 * pts.i + 1) * CAST(w.t AS HUGEINT)
             >= 2 * 20 * CAST(w.cum - w.v AS HUGEINT)
        GROUP BY 1)
SELECT w.k AS c_custkey, CAST(COUNT(*) AS BIGINT) AS n_hits,
       CAST(MAX(w.v) AS BIGINT) AS revenue_cents
FROM hit JOIN w ON w.k = hit.k
GROUP BY 1 ORDER BY 1
"""


def q_holt_winters_additive(sf_dir: str):
    """Holt–Winters ADDITIVE triple smoothing (α = β = 0.5, γ = 0.3,
    weekly period 7) over zero-filled daily revenue — the seasonal
    completion of the registry's Holt op (level+trend alone aliases
    the day-of-week cycle into trend noise): classic init from the
    first week (level = its mean, trend = 0, seasonals = deviations),
    then the textbook three-equation recursion in EXACTLY the float
    order the twin's recursive CTE evaluates (level, trend, seasonal
    — the seasonal vector rotating through seven columns); h = 1..7
    forecasts level + h·trend + the matching seasonal, 4 dp."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    x = np.zeros(hi - lo + 1, dtype=np.int64)
    x[days - lo] = d["rev"].to_numpy(np.int64)
    xs = x.astype(np.float64)
    m = (xs[0] + xs[1] + xs[2] + xs[3] + xs[4] + xs[5] + xs[6]) \
        / 7.0
    lvl = m
    trd = 0.0
    s = [xs[i] - m for i in range(7)]
    for t in range(7, len(xs)):
        new_lvl = 0.5 * (xs[t] - s[0]) + 0.5 * (lvl + trd)
        trd = 0.5 * (new_lvl - lvl) + 0.5 * trd
        new_s = 0.3 * (xs[t] - new_lvl) + 0.7 * s[0]
        lvl = new_lvl
        s = s[1:] + [new_s]
    rows = [{"h": h,
             "forecast": np.round(lvl + h * trd + s[(h - 1) % 7], 4)}
            for h in range(1, 8)]
    return pd.DataFrame(rows).astype({"h": np.int64})


SQL_HOLT_WINTERS = """
WITH RECURSIVE
d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
             SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS rev
      FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day - (SELECT lo FROM bounds) + 1 AS rn,
             CAST(COALESCE(d.rev, 0) AS DOUBLE) AS x
      FROM cal LEFT JOIN d USING (day)),
n AS (SELECT MAX(rn) AS n FROM s),
i AS (SELECT ((SELECT x FROM s WHERE rn = 1)
              + (SELECT x FROM s WHERE rn = 2)
              + (SELECT x FROM s WHERE rn = 3)
              + (SELECT x FROM s WHERE rn = 4)
              + (SELECT x FROM s WHERE rn = 5)
              + (SELECT x FROM s WHERE rn = 6)
              + (SELECT x FROM s WHERE rn = 7)) / 7.0 AS m),
rec(rn, lvl, trd, s1, s2, s3, s4, s5, s6, s7) AS (
  SELECT 7, i.m, CAST(0.0 AS DOUBLE),
         (SELECT x FROM s WHERE rn = 1) - i.m,
         (SELECT x FROM s WHERE rn = 2) - i.m,
         (SELECT x FROM s WHERE rn = 3) - i.m,
         (SELECT x FROM s WHERE rn = 4) - i.m,
         (SELECT x FROM s WHERE rn = 5) - i.m,
         (SELECT x FROM s WHERE rn = 6) - i.m,
         (SELECT x FROM s WHERE rn = 7) - i.m
  FROM i
  UNION ALL
  SELECT r.rn + 1,
         0.5 * (s.x - r.s1) + 0.5 * (r.lvl + r.trd),
         0.5 * ((0.5 * (s.x - r.s1) + 0.5 * (r.lvl + r.trd))
                - r.lvl) + 0.5 * r.trd,
         r.s2, r.s3, r.s4, r.s5, r.s6, r.s7,
         0.3 * (s.x - (0.5 * (s.x - r.s1)
                       + 0.5 * (r.lvl + r.trd))) + 0.7 * r.s1
  FROM rec r JOIN s ON s.rn = r.rn + 1, n
  WHERE r.rn < n.n),
fin AS (SELECT * FROM rec, n WHERE rn = n.n),
h AS (SELECT unnest(generate_series(1, 7)) AS h)
SELECT h.h,
       ROUND(fin.lvl + h.h * fin.trd
             + CASE (h.h - 1) % 7
               WHEN 0 THEN fin.s1 WHEN 1 THEN fin.s2
               WHEN 2 THEN fin.s3 WHEN 3 THEN fin.s4
               WHEN 4 THEN fin.s5 WHEN 5 THEN fin.s6
               ELSE fin.s7 END, 4) AS forecast
FROM fin, h ORDER BY h.h
"""


def q_theta_method_forecast(sf_dir: str):
    """Theta-method forecast (θ = 0/2 decomposition, the
    M3-competition winner that out-forecast far fancier models for a
    decade): OLS linear trend from EXACT integer moments, the
    double-curvature theta line Z_t = 2x_t − (a + b·t), SES with
    α = 0.5 on Z in the twin's recursive-CTE float order, and
    forecast_h = ½·(trend at n+h) + ½·SES level — the stated
    standard combination, 4 dp, h = 1..7."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    x = np.zeros(hi - lo + 1, dtype=np.int64)
    x[days - lo] = d["rev"].to_numpy(np.int64)
    n = len(x)
    ts = np.arange(1, n + 1, dtype=object)
    xv = x.astype(object)
    st = int(ts.sum())
    sx = int(xv.sum())
    stt = int((ts * ts).sum())
    stx = int((ts * xv).sum())
    b = float(n * stx - st * sx) / float(n * stt - st * st)
    a = (float(sx) - b * float(st)) / n
    lvl = 2.0 * float(x[0]) - (a + b * 1.0)
    for t in range(1, n):
        z = 2.0 * float(x[t]) - (a + b * (t + 1.0))
        lvl = 0.5 * z + 0.5 * lvl
    rows = [{"h": h,
             "forecast": np.round(
                 0.5 * (a + b * (n + h)) + 0.5 * lvl, 4)}
            for h in range(1, 8)]
    return pd.DataFrame(rows).astype({"h": np.int64})


SQL_THETA_METHOD = """
WITH RECURSIVE
d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
             SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT)) AS rev
      FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day - (SELECT lo FROM bounds) + 1 AS rn,
             CAST(COALESCE(d.rev, 0) AS HUGEINT) AS xi
      FROM cal LEFT JOIN d USING (day)),
m AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(CAST(rn AS HUGEINT)) AS st, SUM(xi) AS sx,
             SUM(CAST(rn AS HUGEINT) * rn) AS stt,
             SUM(CAST(rn AS HUGEINT) * xi) AS stx
      FROM s),
ab AS (SELECT CAST(n AS BIGINT) AS n,
              CAST(n * stx - st * sx AS DOUBLE)
                / CAST(n * stt - st * st AS DOUBLE) AS b,
              (CAST(sx AS DOUBLE)
               - (CAST(n * stx - st * sx AS DOUBLE)
                  / CAST(n * stt - st * st AS DOUBLE))
               * CAST(st AS DOUBLE)) / CAST(n AS DOUBLE) AS a
       FROM m),
rec(rn, lvl) AS (
  SELECT 1, 2.0 * CAST((SELECT xi FROM s WHERE rn = 1) AS DOUBLE)
            - (ab.a + ab.b * 1.0)
  FROM ab
  UNION ALL
  SELECT r.rn + 1,
         0.5 * (2.0 * CAST(s.xi AS DOUBLE)
                - (ab.a + ab.b * (r.rn + 1.0))) + 0.5 * r.lvl
  FROM rec r JOIN s ON s.rn = r.rn + 1, ab, m
  WHERE r.rn < m.n),
fin AS (SELECT lvl FROM rec, m WHERE rn = m.n),
h AS (SELECT unnest(generate_series(1, 7)) AS h)
SELECT h.h,
       ROUND(0.5 * (ab.a + ab.b * (ab.n + h.h)) + 0.5 * fin.lvl, 4)
         AS forecast
FROM fin, ab, h ORDER BY h.h
"""


def q_variance_ratio_revenue(sf_dir: str):
    """Lo–MacKinlay variance-ratio test on daily revenue changes —
    the canonical random-walk test (VR(q) = 1 under iid increments;
    VR < 1 mean reversion, VR > 1 momentum): for q ∈ {2, 4, 8},
    VR(q) = Var(q-period sums)/(q·Var(1-period)), every variance
    from EXACT integer moments of the differenced cents series
    (overlapping q-sums via prefix differences), the homoskedastic
    z = √n·(VR−1)/√(2(2q−1)(q−1)/(3q)) mirrored."""
    import math
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    x = np.zeros(hi - lo + 1, dtype=np.int64)
    x[days - lo] = d["rev"].to_numpy(np.int64)
    dx = np.diff(x.astype(object))
    n = len(dx)
    s1 = int(dx.sum())
    s2 = int((dx * dx).sum())
    var1 = float(n * s2 - s1 * s1) / (float(n) * n)
    cum = np.concatenate([[0], np.cumsum(dx)])
    rows = []
    for q in (2, 4, 8):
        qs = cum[q:] - cum[:-q]
        nq = len(qs)
        sq1 = int(qs.sum())
        sq2 = int((qs * qs).sum())
        varq = float(nq * sq2 - sq1 * sq1) / (float(nq) * nq)
        vr = varq / (q * var1)
        z = math.sqrt(float(n)) * (vr - 1.0) \
            / math.sqrt(2.0 * (2 * q - 1) * (q - 1) / (3.0 * q))
        rows.append({"q": q, "vr": np.round(vr, 6),
                     "z_homo": np.round(z, 6)})
    return pd.DataFrame(rows).astype({"q": np.int64})


SQL_VARIANCE_RATIO = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day, COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d USING (day)),
dx AS (SELECT day, rev - LAG(rev) OVER (ORDER BY day) AS dx
       FROM s QUALIFY dx IS NOT NULL),
m1 AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(dx) AS s1,
              SUM(dx * dx) AS s2
       FROM dx),
qq AS (SELECT q FROM (VALUES (2), (4), (8)) v(q)),
qs AS (SELECT qq.q, a.day,
              SUM(b.dx) AS sq
       FROM dx a JOIN qq ON TRUE
       JOIN dx b ON b.day > a.day - qq.q AND b.day <= a.day
       GROUP BY 1, 2 HAVING COUNT(*) = qq.q),
mq AS (SELECT q, CAST(COUNT(*) AS HUGEINT) AS nq,
              SUM(CAST(sq AS HUGEINT)) AS sq1,
              SUM(CAST(sq AS HUGEINT) * sq) AS sq2
       FROM qs GROUP BY 1),
f AS (SELECT mq.q,
             (CAST(mq.nq * mq.sq2 - mq.sq1 * mq.sq1 AS DOUBLE)
              / (CAST(mq.nq AS DOUBLE) * CAST(mq.nq AS BIGINT)))
             / (mq.q * (CAST(m1.n * m1.s2 - m1.s1 * m1.s1
                             AS DOUBLE)
                        / (CAST(m1.n AS DOUBLE)
                           * CAST(m1.n AS BIGINT)))) AS vr,
             CAST(m1.n AS BIGINT) AS n
      FROM mq, m1)
SELECT q, ROUND(vr, 6) AS vr,
       ROUND(SQRT(CAST(n AS DOUBLE)) * (vr - 1.0)
             / SQRT(2.0 * (2 * q - 1) * (q - 1) / (3.0 * q)), 6)
         AS z_homo
FROM f ORDER BY q
"""


def q_mean_residual_life(sf_dir: str):
    """Mean residual life MRL(t) = E[T − t | T > t] of customer
    lifetimes at the observed deciles — reliability's aging
    fingerprint (DECREASING MRL = wear-out, increasing = infant
    mortality burn-in; the exponential's constant MRL is the
    dividing line): thresholds are exact type-1 decile order
    statistics, the conditional sums exact integers over the
    (lifetime-day → count) distribution, one division per row.
    Rides the memoized survival lifetimes panel."""
    lt = _customer_lifetimes(sf_dir)
    t_ = np.sort(lt["t"].to_numpy(np.int64))
    n = len(t_)
    rows = []
    for d_ in range(0, 10):
        thr = int(t_[(n - 1) * d_ // 10])
        tail = t_[t_ > thr].astype(object)
        if len(tail) == 0:
            continue
        s = int(tail.sum())
        k = len(tail)
        rows.append({
            "decile": d_, "t_days": thr, "n_at_risk": k,
            "mrl_days": np.round(
                (float(s) - float(k) * thr) / float(k), 6)})
    return pd.DataFrame(rows).astype({
        "decile": np.int64, "t_days": np.int64,
        "n_at_risk": np.int64})


def _sql_mrl() -> str:
    return f"""
WITH {SQL_LIFETIMES_CTE.strip()},
o_ AS (SELECT t, ROW_NUMBER() OVER (ORDER BY t) AS rn,
              COUNT(*) OVER () AS n
       FROM lt),
dec AS (SELECT d, (SELECT t FROM o_
                   WHERE rn = (o2.n - 1) * d // 10 + 1 LIMIT 1)
          AS thr
        FROM (SELECT unnest(generate_series(0, 9)) AS d) dd,
             (SELECT MAX(n) AS n FROM o_) o2),
f AS (SELECT dec.d, dec.thr,
             CAST(COUNT(*) AS BIGINT) AS k,
             CAST(SUM(lt.t) AS BIGINT) AS s
      FROM dec JOIN lt ON lt.t > dec.thr
      GROUP BY 1, 2)
SELECT d AS decile, CAST(thr AS BIGINT) AS t_days,
       k AS n_at_risk,
       ROUND((CAST(s AS DOUBLE) - CAST(k AS DOUBLE) * thr)
             / CAST(k AS DOUBLE), 6) AS mrl_days
FROM f ORDER BY d
"""


def q_ttt_transform_lifetimes(sf_dir: str):
    """Scaled total-time-on-test (TTT) transform of customer
    lifetimes at the deciles — Barlow's aging diagnostic (the curve
    above the diagonal = IFR/wear-out, below = DFR; the diagonal IS
    the exponential): TTT(k) = Σᵢ≤k T₍ᵢ₎ + (n−k)·T₍ₖ₎, every value
    an EXACT integer day-sum off the sorted lifetimes, the scaled
    φ(k/n) = TTT(k)/TTT(n) one division per row.  The MRL op's
    integral twin — the two must tell the same aging story."""
    lt = _customer_lifetimes(sf_dir)
    t_ = np.sort(lt["t"].to_numpy(np.int64)).astype(object)
    n = len(t_)
    cum = np.cumsum(t_)
    total = int(cum[-1])
    rows = []
    for d_ in range(1, 11):
        k = (n * d_) // 10
        ttt = int(cum[k - 1]) + (n - k) * int(t_[k - 1])
        rows.append({
            "decile": d_, "k": k, "t_k_days": int(t_[k - 1]),
            "ttt_days": ttt,
            "phi": np.round(float(ttt) / float(total), 6)})
    return pd.DataFrame(rows).astype({
        "decile": np.int64, "k": np.int64, "t_k_days": np.int64,
        "ttt_days": np.int64})


def _sql_ttt() -> str:
    return f"""
WITH {SQL_LIFETIMES_CTE.strip()},
o_ AS (SELECT t, ROW_NUMBER() OVER (ORDER BY t) AS rn,
              SUM(t) OVER (ORDER BY t ROWS UNBOUNDED PRECEDING)
                AS cum,
              COUNT(*) OVER () AS n
       FROM lt),
tot AS (SELECT MAX(cum) AS total, MAX(n) AS n FROM o_),
dec AS (SELECT d, (tot.n * d) // 10 AS k, tot.n, tot.total
        FROM (SELECT unnest(generate_series(1, 10)) AS d) dd, tot),
f AS (SELECT dec.d, dec.k, o_.t AS tk,
             o_.cum + (dec.n - dec.k) * o_.t AS ttt, dec.total
      FROM dec JOIN o_ ON o_.rn = dec.k)
SELECT d AS decile, CAST(k AS BIGINT) AS k,
       CAST(tk AS BIGINT) AS t_k_days,
       CAST(ttt AS BIGINT) AS ttt_days,
       ROUND(CAST(ttt AS DOUBLE) / CAST(total AS DOUBLE), 6) AS phi
FROM f ORDER BY d
"""


def q_seasonal_mann_kendall(sf_dir: str):
    """Seasonal Mann–Kendall trend test (Hirsch–Slack) on daily
    revenue, seasons = the seven weekdays — the fix for the plain MK
    op when a day-of-week cycle masquerades as (or masks) a trend:
    compute S and the tie-corrected variance WITHIN each weekday's
    subseries, then sum — S' = ΣS_g, Var' = ΣVar_g, all exact
    integers; the continuity-corrected z mirrors the MK op's chain.
    MK and SMK disagreeing is the day-of-week contamination signal."""
    import math
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    series = np.zeros(hi - lo + 1, dtype=np.int64)
    series[days - lo] = d["rev"].to_numpy(np.int64)
    idx = np.arange(lo, hi + 1)
    s_tot = 0
    var18 = 0
    for wd in range(7):
        sub = series[idx % 7 == wd]
        n = len(sub)
        if n < 2:
            continue
        diff = sub[None, :] - sub[:, None]
        iu = np.triu_indices(n, k=1)
        s_tot += int(np.sign(diff[iu]).sum())
        _, tc = np.unique(sub, return_counts=True)
        t = tc.astype(object)
        var18 += n * (n - 1) * (2 * n + 5) \
            - int(np.sum(t * (t - 1) * (2 * t + 5)))
    if s_tot == 0 or var18 == 0:
        z = 0.0
    elif s_tot > 0:
        z = (s_tot - 1) / math.sqrt(var18 / 18.0)
    else:
        z = (s_tot + 1) / math.sqrt(var18 / 18.0)
    return pd.DataFrame([{
        "n_days": hi - lo + 1, "s_stat": s_tot, "var18": var18,
        "z": np.round(z, 6)}]).astype({
            "n_days": np.int64, "s_stat": np.int64,
            "var18": np.int64})


SQL_SEASONAL_MK = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day, cal.day % 7 AS wd, COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d USING (day)),
ss AS (SELECT CAST(SUM(CASE WHEN b.rev > a.rev THEN 1
                       WHEN b.rev < a.rev THEN -1 ELSE 0 END)
               AS BIGINT) AS s_tot
       FROM s a JOIN s b ON a.wd = b.wd AND b.day > a.day),
vv AS (SELECT CAST(SUM(n * (n - 1) * (2 * n + 5)) AS BIGINT) AS v1
       FROM (SELECT wd, CAST(COUNT(*) AS HUGEINT) AS n FROM s
             GROUP BY 1)),
tt AS (SELECT CAST(COALESCE(SUM(t * (t - 1) * (2 * t + 5)), 0)
               AS BIGINT) AS v2
       FROM (SELECT wd, rev, CAST(COUNT(*) AS HUGEINT) AS t
             FROM s GROUP BY 1, 2 HAVING COUNT(*) > 1)),
f AS (SELECT ss.s_tot, vv.v1 - tt.v2 AS var18,
             (SELECT CAST(hi - lo + 1 AS BIGINT) FROM bounds)
               AS n_days
      FROM ss, vv, tt)
SELECT n_days, s_tot AS s_stat, var18,
       CASE WHEN s_tot = 0 OR var18 = 0 THEN 0.0
            WHEN s_tot > 0
              THEN ROUND((s_tot - 1)
                         / SQRT(CAST(var18 AS DOUBLE) / 18.0), 6)
            ELSE ROUND((s_tot + 1)
                       / SQRT(CAST(var18 AS DOUBLE) / 18.0), 6) END
         AS z
FROM f
"""


def q_pettitt_changepoint(sf_dir: str):
    """Pettitt rank changepoint test on daily revenue — the
    nonparametric single-breakpoint locator beside the registry's
    CUSUM/Page–Hinkley (those assume a known scale; Pettitt is
    rank-based and scale-free): U_t = Σ_{i≤t} Σ_{j>t} sign(x_i−x_j),
    K = max|U_t|, the break at the argmax (first, on ties) — all
    exact integers via the O(n²) sign matrix on the bounded daily
    panel; the approximate p = 2exp(−6K²/(n³+n²)) mirrors."""
    import math
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    series = np.zeros(hi - lo + 1, dtype=np.int64)
    series[days - lo] = d["rev"].to_numpy(np.int64)
    n = len(series)
    sgn = np.sign(series[:, None] - series[None, :]).astype(np.int64)
    row = sgn.sum(axis=1)                # Σ_j sign(x_t − x_j)
    # recurrence: U_t = U_{t−1} + row_t (the full-row sums telescope
    # the inner anti-symmetric terms) — O(n²) for the matrix, O(n)
    # for the scan, vs the naive O(n³)
    u = np.cumsum(row)[:n - 1]
    k = int(np.abs(u).max())
    t_star = int(np.argmax(np.abs(u)))
    p = 2.0 * math.exp(-6.0 * float(k) * k
                       / (float(n) ** 3 + float(n) ** 2))
    return pd.DataFrame([{
        "n_days": n, "k_stat": k, "break_day_idx": t_star,
        "p_approx": np.round(min(p, 1.0), 6)}]).astype({
            "n_days": np.int64, "k_stat": np.int64,
            "break_day_idx": np.int64})


SQL_PETTITT = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day - (SELECT lo FROM bounds) AS t,
             COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d USING (day)),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM s),
rw AS (SELECT a.t,
              CAST(SUM(CASE WHEN a.rev > b.rev THEN 1
                       WHEN a.rev < b.rev THEN -1 ELSE 0 END)
                   AS BIGINT) AS row
       FROM s a JOIN s b ON b.t <> a.t
       GROUP BY 1),
u AS (SELECT t, SUM(row) OVER (ORDER BY t
                               ROWS UNBOUNDED PRECEDING) AS u
      FROM rw QUALIFY t < (SELECT n - 1 FROM n)),
k AS (SELECT ABS(u) AS k, t
      FROM u ORDER BY ABS(u) DESC, t LIMIT 1)
SELECT n.n AS n_days, k.k AS k_stat, k.t AS break_day_idx,
       ROUND(LEAST(2.0 * EXP(-6.0 * CAST(k.k AS DOUBLE) * k.k
                             / (POWER(CAST(n.n AS DOUBLE), 3)
                                + POWER(CAST(n.n AS DOUBLE), 2))),
                   1.0), 6) AS p_approx
FROM n, k
"""


def q_buishand_range_revenue(sf_dir: str):
    """Buishand range test on daily revenue — the cumulative-
    deviation homogeneity check completing the changepoint trio
    (CUSUM parametric, Pettitt rank, Buishand the rescaled-range
    middle ground): partial sums S_t = Σ(xᵢ − x̄) are exact in
    n-scaled integers (n·xᵢ − Σx), R = (max S − min S), and the
    rescaled R/(s√n) spends one mirrored chain on exact moments."""
    import math
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    x = np.zeros(hi - lo + 1, dtype=np.int64)
    x[days - lo] = d["rev"].to_numpy(np.int64)
    n = len(x)
    s1 = int(x.sum())
    s2 = int((x.astype(object) * x.astype(object)).sum())
    dev = n * x.astype(object) - s1      # n-scaled deviations
    ps = np.cumsum(dev)
    smax = int(ps.max())
    smin = int(ps.min())
    r_n = smax - smin                    # n-scaled range, exact
    sd = math.sqrt(float(n * s2 - s1 * s1)) / n
    # a constant series has zero variance AND zero range: 0 by the
    # stated convention (homogeneous)
    rr = 0.0 if sd == 0 else \
        (float(r_n) / n) / (sd * math.sqrt(float(n)))
    return pd.DataFrame([{
        "n_days": n, "range_nscaled": r_n,
        "rescaled_range": np.round(rr, 6)}]).astype({
            "n_days": np.int64, "range_nscaled": np.int64})


SQL_BUISHAND = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day, COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d USING (day)),
m AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(rev) AS s1,
             SUM(rev * rev) AS s2
      FROM s),
ps AS (SELECT day, SUM(m.n * s.rev - m.s1)
                   OVER (ORDER BY day ROWS UNBOUNDED PRECEDING)
                     AS p
       FROM s, m),
r AS (SELECT MAX(p) - MIN(p) AS rng FROM ps)
SELECT CAST(m.n AS BIGINT) AS n_days,
       CAST(r.rng AS BIGINT) AS range_nscaled,
       CASE WHEN m.n * m.s2 - m.s1 * m.s1 = 0 THEN 0.0
            ELSE ROUND((CAST(r.rng AS DOUBLE) / CAST(m.n AS BIGINT))
                       / ((SQRT(CAST(m.n * m.s2 - m.s1 * m.s1
                                     AS DOUBLE))
                           / CAST(m.n AS BIGINT))
                          * SQRT(CAST(m.n AS DOUBLE))), 6) END
         AS rescaled_range
FROM m, r
"""


def q_quade_priority_months(sf_dir: str):
    """Quade's test on the month × priority revenue panel — the
    Friedman upgrade that WEIGHTS blocks by how much is at stake
    (a month where priorities differ by millions should count more
    than a flat one; Friedman treats them equally): within-block
    doubled midranks r2, block weights = doubled midranks q2 of the
    block RANGES, the products q2·(r2 − (k+1)) all exact integers,
    and F = (b−1)·B/(A − B) with A, B folded from exact integer
    squares (the /16 scale cancels)."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders",
                   ["o_orderdate", "o_orderpriority", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        us = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]")
        mon = us.astype("datetime64[M]").astype(np.int64) + 1970 * 12
        cents = np.floor(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({
            "mon": mon,
            "prio": t["o_orderpriority"].to_numpy(
                zero_copy_only=False),
            "v": cents}).groupby(["mon", "prio"], sort=False) \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    mv = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby(["mon", "prio"]).aggregate(Sum("v", alias_name="v"))
    ).to_pandas()
    k = 5
    full = mv.groupby("mon")["prio"].transform("size") == k
    mv = mv[full].copy()
    b = mv["mon"].nunique()
    mv["r2"] = (mv.groupby("mon")["v"]
                .rank(method="average") * 2).astype(np.int64)
    rng = mv.groupby("mon")["v"].agg(lambda s: int(s.max())
                                     - int(s.min()))
    q2 = (rng.rank(method="average") * 2).astype(np.int64)
    mv["q2"] = mv["mon"].map(q2)
    mv["s4"] = mv["q2"].astype(object) \
        * (mv["r2"].astype(object) - (k + 1))
    s_j = mv.groupby("prio")["s4"].sum().sort_index()
    a16 = int((mv["s4"].astype(object) ** 2).sum())
    b16_num = sum(int(x) * int(x) for x in s_j)
    bb = float(b16_num) / b
    f = (b - 1) * bb / (float(a16) - bb)
    return pd.DataFrame([{
        "n_months": b, "k_treatments": k,
        "quade_f": np.round(f, 6)}]).astype({
            "n_months": np.int64, "k_treatments": np.int64})


SQL_QUADE = """
WITH mv AS (SELECT date_part('year', o_orderdate) * 12
                   + date_part('month', o_orderdate) - 1 AS mon,
                   o_orderpriority AS prio,
                   SUM(CAST(FLOOR(o_totalprice * 100 + 0.5)
                            AS HUGEINT)) AS v
            FROM orders GROUP BY 1, 2),
fullb AS (SELECT mon FROM mv GROUP BY 1 HAVING COUNT(*) = 5),
r AS (SELECT mv.mon, mv.prio, mv.v,
             2 * RANK() OVER (PARTITION BY mv.mon ORDER BY mv.v)
             + COUNT(*) OVER (PARTITION BY mv.mon, mv.v) - 1 AS r2
      FROM mv JOIN fullb USING (mon)),
rg AS (SELECT mon, MAX(v) - MIN(v) AS rng FROM r GROUP BY 1),
q AS (SELECT mon,
             2 * RANK() OVER (ORDER BY rng)
             + COUNT(*) OVER (PARTITION BY rng) - 1 AS q2
      FROM rg),
s AS (SELECT r.prio, r.mon,
             CAST(q.q2 AS HUGEINT) * (r.r2 - 6) AS s4
      FROM r JOIN q USING (mon)),
sj AS (SELECT prio, CAST(SUM(s4) AS HUGEINT) AS sj
       FROM s GROUP BY 1),
agg AS (SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM fullb) AS b,
               (SELECT SUM(s4 * s4) FROM s) AS a16,
               (SELECT SUM(sj * sj) FROM sj) AS b16n)
SELECT b AS n_months, CAST(5 AS BIGINT) AS k_treatments,
       ROUND((b - 1) * (CAST(b16n AS DOUBLE) / b)
             / (CAST(a16 AS DOUBLE)
                - CAST(b16n AS DOUBLE) / b), 6) AS quade_f
FROM agg
"""


def _weighted_logrank(sf_dir: str, weight: str):
    """Shared weighted-log-rank machinery (the logrank op's at-risk
    suffix sums with a per-event-time weight): weight='gehan' uses
    w = n_t (early differences count more — the Gehan–Breslow
    statistic's numerator n_t·d₁ − n₁·d_t is a PURE integer), and
    'tarone' uses w = √n_t (the middle ground).  Weighted variance
    terms quantized milli; Z² is the one mirrored ratio."""
    import math
    from ray.data.aggregate import Max, Min, Sum
    ev = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64)
        g = pd.DataFrame({"o_custkey": t["o_custkey"].to_numpy(
            zero_copy_only=False), "pf": day, "pl": day}) \
            .groupby("o_custkey", sort=False) \
            .agg(pf=("pf", "min"), pl=("pl", "max")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    per_cust = ev.map_batches(partial, batch_format="pyarrow") \
        .groupby("o_custkey").aggregate(Min("pf", alias_name="f"),
                                        Max("pl", alias_name="l"))
    mx = int(_read(sf_dir, "orders", ["o_orderdate"]).map_batches(
        lambda t: pa.table({"d": pa.array(
            t["o_orderdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[D]").astype(np.int64))}),
        batch_format="pyarrow").aggregate(
            Max("d", alias_name="m"))["m"])

    def to_counts(t: pa.Table) -> pa.Table:
        f = t["f"].to_numpy(zero_copy_only=False).astype(np.int64)
        l = t["l"].to_numpy(zero_copy_only=False).astype(np.int64)
        arm = (t["o_custkey"].to_numpy(zero_copy_only=False)
               % 2).astype(np.int64)
        g = pd.DataFrame({"t": l - f, "arm": arm,
                          "pd_": ((mx - l) >= 90).astype(np.int64),
                          "pc_": 1}) \
            .groupby(["t", "arm"], sort=False) \
            .agg(pd_=("pd_", "sum"),
                 pc_=("pc_", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cnt = relational.ds_to_table(
        per_cust.map_batches(to_counts, batch_format="pyarrow")
        .groupby(["t", "arm"]).aggregate(
            Sum("pd_", alias_name="d"), Sum("pc_", alias_name="c"))
    ).to_pandas()
    ts = np.sort(cnt["t"].unique())
    piv_d = cnt.pivot_table(index="t", columns="arm", values="d",
                            fill_value=0, aggfunc="sum") \
        .reindex(ts, fill_value=0) \
        .reindex(columns=[0, 1], fill_value=0)
    piv_c = cnt.pivot_table(index="t", columns="arm", values="c",
                            fill_value=0, aggfunc="sum") \
        .reindex(ts, fill_value=0) \
        .reindex(columns=[0, 1], fill_value=0)
    n0 = piv_c[0].to_numpy(np.int64)[::-1].cumsum()[::-1]
    n1 = piv_c[1].to_numpy(np.int64)[::-1].cumsum()[::-1]
    d0 = piv_d[0].to_numpy(np.int64)
    d1 = piv_d[1].to_numpy(np.int64)
    num = 0.0
    num_i = 0
    var9 = 0
    for a0, a1, b0, b1 in zip(n0, n1, d0, d1):
        dt = int(b0) + int(b1)
        nt = int(a0) + int(a1)
        if dt == 0 or nt <= 1:
            continue
        if weight == "gehan":
            num_i += nt * int(b1) - int(a1) * dt
            wv = float(int(a0) * int(a1) * dt * (nt - dt)) \
                / float(nt - 1)
        else:
            w = math.sqrt(float(nt))
            num += int(np.floor(
                w * (int(b1) - float(int(a1) * dt) / nt) * 1e9
                + 0.5)) / 1e9
            wv = float(int(a0) * int(a1) * dt * (nt - dt)) \
                / float(nt * (nt - 1))
        var9 += int(np.floor(wv * 1e3 + 0.5))
    var = var9 / 1e3
    z_num = float(num_i) if weight == "gehan" else num
    chi2 = z_num * z_num / var if var > 0 else 0.0
    return {"n0": int(piv_c[0].sum()), "n1": int(piv_c[1].sum()),
            "num": z_num, "var": var, "chi2": chi2}


def q_gehan_breslow_retention(sf_dir: str):
    """Gehan–Breslow weighted log-rank between the custkey-parity
    arms — EARLY retention differences count more (the plain
    logrank op weighs every event time equally; when curves cross,
    the two tests famously disagree): weight = n_t makes the
    numerator Σ(n_t·d₁ − n₁·d_t) a pure integer; variance terms
    milli-quantized; χ² mirrored."""
    r = _weighted_logrank(sf_dir, "gehan")
    return pd.DataFrame([{
        "n_arm0": r["n0"], "n_arm1": r["n1"],
        "num": int(r["num"]), "var": np.round(r["var"], 6),
        "chi2": np.round(r["chi2"], 6)}]).astype({
            "n_arm0": np.int64, "n_arm1": np.int64,
            "num": np.int64})


def q_tarone_ware_retention(sf_dir: str):
    """Tarone–Ware weighted log-rank (w = √n_t) — the compromise the
    textbooks recommend when you can't pre-commit between logrank
    (late-weighted) and Gehan (early-weighted): per-event-time
    weighted O−E terms nano-quantized, variance milli-quantized,
    χ² mirrored.  All three weightings now ship, which is the whole
    sensitivity analysis."""
    r = _weighted_logrank(sf_dir, "tarone")
    # re-fold the float numerator through a quantized chain for the
    # cross-engine compare
    return pd.DataFrame([{
        "n_arm0": r["n0"], "n_arm1": r["n1"],
        "num": np.round(r["num"], 6),
        "var": np.round(r["var"], 6),
        "chi2": np.round(r["chi2"], 6)}]).astype({
            "n_arm0": np.int64, "n_arm1": np.int64})


_SQL_WLOGRANK_BASE = """
pc AS (SELECT o_custkey,
              MIN(epoch_us(o_orderdate) // 86400000000) AS f,
              MAX(epoch_us(o_orderdate) // 86400000000) AS l
       FROM orders GROUP BY 1),
hz AS (SELECT MAX(l) AS mx FROM pc),
obs AS (SELECT l - f AS t, o_custkey % 2 AS arm,
               CASE WHEN hz.mx - l >= 90 THEN 1 ELSE 0 END AS d
        FROM pc, hz),
g AS (SELECT t, arm, CAST(SUM(d) AS BIGINT) AS d,
             CAST(COUNT(*) AS BIGINT) AS c
      FROM obs GROUP BY 1, 2),
ts AS (SELECT DISTINCT t FROM g),
cells AS (SELECT ts.t, a.arm,
                 COALESCE(g.d, 0) AS d, COALESCE(g.c, 0) AS c
          FROM ts CROSS JOIN (SELECT unnest([0, 1]) AS arm) a
          LEFT JOIN g ON g.t = ts.t AND g.arm = a.arm),
ar AS (SELECT t, arm, d,
              SUM(c) OVER (PARTITION BY arm ORDER BY t DESC
                           ROWS UNBOUNDED PRECEDING) AS n
       FROM cells),
w AS (SELECT a0.t, a0.d AS d0, a1.d AS d1, a0.n AS n0, a1.n AS n1,
             a0.d + a1.d AS dt, a0.n + a1.n AS nt
      FROM (SELECT * FROM ar WHERE arm = 0) a0
      JOIN (SELECT * FROM ar WHERE arm = 1) a1 USING (t)
      WHERE a0.d + a1.d > 0 AND a0.n + a1.n > 1),
tot AS (SELECT
          (SELECT CAST(SUM(c) AS BIGINT) FROM cells WHERE arm = 0)
            AS n_arm0,
          (SELECT CAST(SUM(c) AS BIGINT) FROM cells WHERE arm = 1)
            AS n_arm1)
"""

SQL_GEHAN_BRESLOW = f"""
WITH {_SQL_WLOGRANK_BASE.strip()},
s AS (SELECT CAST(SUM(nt * d1 - n1 * dt) AS BIGINT) AS num,
             SUM(CAST(FLOOR(CAST(n0 * n1 * dt * (nt - dt)
                                 AS DOUBLE) / (nt - 1) * 1e3 + 0.5)
                      AS BIGINT)) / 1e3 AS var
      FROM w)
SELECT tot.n_arm0, tot.n_arm1, s.num, ROUND(s.var, 6) AS var,
       CASE WHEN s.var > 0
            THEN ROUND(CAST(s.num AS DOUBLE) * s.num / s.var, 6)
            ELSE 0.0 END AS chi2
FROM s, tot
"""

SQL_TARONE_WARE = f"""
WITH {_SQL_WLOGRANK_BASE.strip()},
s AS (SELECT SUM(CAST(FLOOR(SQRT(CAST(nt AS DOUBLE))
                 * (d1 - CAST(n1 * dt AS DOUBLE) / nt) * 1e9
                 + 0.5) AS BIGINT)) / 1e9 AS num,
             SUM(CAST(FLOOR(CAST(n0 * n1 * dt * (nt - dt)
                                 AS DOUBLE) / (nt * (nt - 1))
                            * 1e3 + 0.5) AS BIGINT)) / 1e3 AS var
      FROM w)
SELECT tot.n_arm0, tot.n_arm1, ROUND(s.num, 6) AS num,
       ROUND(s.var, 6) AS var,
       CASE WHEN s.var > 0 THEN ROUND(s.num * s.num / s.var, 6)
            ELSE 0.0 END AS chi2
FROM s, tot
"""


def q_box_cox_scan_revenue(sf_dir: str):
    """Box–Cox transformation scan on daily revenue — WHICH power
    makes the series most Gaussian (the 1964 answer to 'should I
    log it?'): profile log-likelihood LL(λ) = −n/2·ln σ̂²(λ) +
    (λ−1)·Σln y over the λ grid {−1, −½, 0, ½, 1}, zero days
    dropped (positivity, stated); per-day transformed values and
    ln y are nano-quantized so every moment folds order-free; the
    argmax λ is the recommendation."""
    import math
    d = _daily_revenue_cents(sf_dir)
    y = d["rev"].to_numpy(np.int64)
    y = y[y > 0].astype(np.float64)
    n = len(y)
    slny9 = int(np.floor(np.log(y) * 1e9 + 0.5)
                .astype(np.int64).sum())
    slny = slny9 / 1e9
    rows = []
    best = None
    # z spans (0,1) at λ=−1 but ~1e9 cents at λ=1: a single quantum
    # either zeroes the small-λ variance (the sf0.01 gate hit
    # ln(0)) or overflows the big-λ squares — per-λ scales, stated
    scales = {-1.0: 1e12, -0.5: 1e12, 0.0: 1e12, 0.5: 1e6,
              1.0: 1e3}
    ymin = float(y.min())
    for lam in (-1.0, -0.5, 0.0, 0.5, 1.0):
        if lam == 0.0:
            z = np.log(y) - math.log(ymin)
        else:
            z = (np.power(y, lam) - 1.0) / lam \
                - (math.pow(ymin, lam) - 1.0) / lam
        # centered at z(y_min): at λ = −1 the raw z hugs 1 with a
        # ~1e-10 spread and the s2 − s1²/n cancellation wiped the
        # variance to ≤ 0 in doubles (the sf0.01 gate's ln domain
        # error) — the shift costs nothing, var is shift-invariant
        sc = scales[lam]
        s1 = int(np.floor(z * sc + 0.5).astype(object).sum())
        s2 = int((np.floor(z * sc + 0.5).astype(object) ** 2)
                 .sum())
        var = (float(s2) - float(s1) * s1 / n) / n / (sc * sc)
        ll = -n / 2.0 * math.log(var) + (lam - 1.0) * slny
        rows.append({"lam": lam, "ll": ll})
        if best is None or ll > best[1]:
            best = (lam, ll)
    out = pd.DataFrame([{
        "n_days": n, "lambda_grid": r["lam"],
        "profile_ll": np.round(r["ll"], 6),
        "is_best": r["lam"] == best[0]} for r in rows])
    return out.astype({"n_days": np.int64})


SQL_BOX_COX = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
y AS (SELECT CAST(rev AS DOUBLE) AS y FROM d WHERE rev > 0),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             SUM(CAST(FLOOR(LN(y) * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS slny
      FROM y),
ls AS (SELECT lam, sc FROM (VALUES (-1.0, 1e12), (-0.5, 1e12),
                                   (0.0, 1e12), (0.5, 1e6),
                                   (1.0, 1e3)) v(lam, sc)),
ym AS (SELECT MIN(y) AS ymin FROM y),
z AS (SELECT ls.lam, ls.sc,
             CASE WHEN ls.lam = 0.0 THEN LN(y.y) - LN(ym.ymin)
                  ELSE (POWER(y.y, ls.lam) - 1.0) / ls.lam
                       - (POWER(ym.ymin, ls.lam) - 1.0) / ls.lam
             END AS z
      FROM y, ls, ym),
m AS (SELECT lam, MAX(sc) AS sc,
             SUM(CAST(FLOOR(z * sc + 0.5) AS HUGEINT)) AS s1,
             SUM(CAST(FLOOR(z * sc + 0.5) AS HUGEINT)
                 * CAST(FLOOR(z * sc + 0.5) AS HUGEINT)) AS s2
      FROM z GROUP BY 1),
ll AS (SELECT m.lam,
              -CAST(n.n AS DOUBLE) / 2.0
              * LN((CAST(m.s2 AS DOUBLE)
                    - CAST(m.s1 AS DOUBLE)
                      * CAST(m.s1 AS BIGINT) / n.n)
                   / n.n / (m.sc * m.sc))
              + (m.lam - 1.0) * n.slny AS ll
       FROM m, n),
b AS (SELECT MAX(ll) AS best FROM ll)
SELECT n.n AS n_days, ll.lam AS lambda_grid,
       ROUND(ll.ll, 6) AS profile_ll,
       ll.ll = b.best AS is_best
FROM ll, n, b ORDER BY ll.lam
"""


def q_distance_correlation_daily(sf_dir: str):
    """Distance correlation between daily revenue and daily order
    count (Székely 2007) — the modern dependence measure that is
    ZERO iff independent (Pearson misses every nonlinear relation;
    dCor doesn't): on integer series the double-centering identity
    dCov² = S₁/n² − 2S₂/n³ + S₃/n⁴ makes EVERY term an exact
    integer (S₁ = Σ|Δx||Δy| over pairs, S₂ = Σᵢ rowsumₓ·rowsum_y,
    S₃ = totₓ·tot_y) — an exact-arithmetic dCor, which almost no
    implementation can claim; the three sqrt ratios are the only
    floats."""
    import math
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    x = np.zeros(hi - lo + 1, dtype=np.int64)
    x[days - lo] = d["rev"].to_numpy(np.int64)
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_orderdate"])

    def pc_(t: pa.Table) -> pa.Table:
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        u, c = np.unique(day, return_counts=True)
        return pa.table({"day": pa.array(u.astype(np.int64)),
                         "c": pa.array(c.astype(np.int64))})

    cnt = relational.ds_to_table(
        orders.map_batches(pc_, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    y = np.zeros(hi - lo + 1, dtype=np.int64)
    y[cnt["day"].to_numpy(np.int64) - lo] = \
        cnt["c"].to_numpy(np.int64)
    n = len(x)
    xo = x.astype(object)
    yo = y.astype(object)
    dx = np.abs(xo[:, None] - xo[None, :])
    dy = np.abs(yo[:, None] - yo[None, :])
    s1xy = int((dx * dy).sum())
    s1xx = int((dx * dx).sum())
    s1yy = int((dy * dy).sum())
    rx = dx.sum(axis=1)
    ry = dy.sum(axis=1)
    s2xy = int((rx * ry).sum())
    s2xx = int((rx * rx).sum())
    s2yy = int((ry * ry).sum())
    tx = int(rx.sum())
    ty = int(ry.sum())
    n2, n3, n4 = float(n) ** 2, float(n) ** 3, float(n) ** 4

    def dcov2(s1, s2, t1, t2):
        return float(s1) / n2 - 2.0 * float(s2) / n3 \
            + float(t1) * t2 / n4

    vxy = dcov2(s1xy, s2xy, tx, ty)
    vxx = dcov2(s1xx, s2xx, tx, tx)
    vyy = dcov2(s1yy, s2yy, ty, ty)
    # a constant marginal zeroes its dVar: NULL by convention
    dcor = np.nan if vxx <= 0 or vyy <= 0 else \
        math.sqrt(max(0.0, vxy)) \
        / math.sqrt(math.sqrt(vxx) * math.sqrt(vyy))
    return pd.DataFrame([{
        "n_days": n, "s1_xy": s1xy,
        "dcov2_xy": np.round(vxy, 6),
        "dcor": np.round(dcor, 6)}]).astype({
            "n_days": np.int64, "s1_xy": np.int64})


SQL_DISTANCE_CORR = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev,
                  CAST(COUNT(*) AS HUGEINT) AS c
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day, COALESCE(d.rev, 0) AS x,
             COALESCE(d.c, 0) AS y
      FROM cal LEFT JOIN d USING (day)),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM s),
pr AS (SELECT SUM(ABS(a.x - b.x) * ABS(a.y - b.y)) AS s1xy,
              SUM(ABS(a.x - b.x) * ABS(a.x - b.x)) AS s1xx,
              SUM(ABS(a.y - b.y) * ABS(a.y - b.y)) AS s1yy
       FROM s a, s b),
rw AS (SELECT a.day, SUM(ABS(a.x - b.x)) AS rx,
              SUM(ABS(a.y - b.y)) AS ry
       FROM s a, s b GROUP BY 1),
r2 AS (SELECT SUM(rx * ry) AS s2xy, SUM(rx * rx) AS s2xx,
              SUM(ry * ry) AS s2yy,
              CAST(SUM(rx) AS HUGEINT) AS tx,
              CAST(SUM(ry) AS HUGEINT) AS ty
       FROM rw),
f AS (SELECT n.n,
        CAST(pr.s1xy AS DOUBLE) / (CAST(n.n AS DOUBLE) * n.n)
        - 2.0 * CAST(r2.s2xy AS DOUBLE)
          / (CAST(n.n AS DOUBLE) * n.n * n.n)
        + CAST(r2.tx AS DOUBLE) * CAST(r2.ty AS DOUBLE)
          / (CAST(n.n AS DOUBLE) * n.n * n.n * n.n) AS vxy,
        CAST(pr.s1xx AS DOUBLE) / (CAST(n.n AS DOUBLE) * n.n)
        - 2.0 * CAST(r2.s2xx AS DOUBLE)
          / (CAST(n.n AS DOUBLE) * n.n * n.n)
        + CAST(r2.tx AS DOUBLE) * CAST(r2.tx AS DOUBLE)
          / (CAST(n.n AS DOUBLE) * n.n * n.n * n.n) AS vxx,
        CAST(pr.s1yy AS DOUBLE) / (CAST(n.n AS DOUBLE) * n.n)
        - 2.0 * CAST(r2.s2yy AS DOUBLE)
          / (CAST(n.n AS DOUBLE) * n.n * n.n)
        + CAST(r2.ty AS DOUBLE) * CAST(r2.ty AS DOUBLE)
          / (CAST(n.n AS DOUBLE) * n.n * n.n * n.n) AS vyy,
        CAST(pr.s1xy AS BIGINT) AS s1xy
      FROM n, pr, r2)
SELECT n AS n_days, s1xy AS s1_xy, ROUND(vxy, 6) AS dcov2_xy,
       CASE WHEN vxx <= 0 OR vyy <= 0 THEN NULL
            ELSE ROUND(SQRT(GREATEST(0.0, vxy))
                       / SQRT(SQRT(vxx) * SQRT(vyy)), 6) END
         AS dcor
FROM f
"""


def q_cox_stuart_revenue(sf_dir: str):
    """Cox–Stuart trend test on daily revenue — the sign-test trend
    check (pair day t with day t + n/2; count rises): zero
    machinery, zero distributional assumptions, the sanity
    cross-check for the Mann–Kendall family (MK uses all O(n²)
    pairs; Cox–Stuart uses n/2 INDEPENDENT ones and a binomial
    null): exact integer plus/minus/tie counts over the zero-filled
    calendar, z with continuity correction mirrored."""
    import math
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    x = np.zeros(hi - lo + 1, dtype=np.int64)
    x[days - lo] = d["rev"].to_numpy(np.int64)
    n = len(x)
    half = n // 2
    a = x[:half]
    b = x[n - half:]
    plus = int((b > a).sum())
    minus = int((b < a).sum())
    ties = half - plus - minus
    m = plus + minus
    if m == 0:
        z = 0.0
    else:
        diff = plus - minus
        cc = -1.0 if diff > 0 else (1.0 if diff < 0 else 0.0)
        z = (float(diff) + cc) / math.sqrt(float(m))
    return pd.DataFrame([{
        "n_days": n, "n_pairs": half, "n_plus": plus,
        "n_minus": minus, "n_ties": ties,
        "z": np.round(z, 6)}]).astype({
            "n_days": np.int64, "n_pairs": np.int64,
            "n_plus": np.int64, "n_minus": np.int64,
            "n_ties": np.int64})


SQL_COX_STUART = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi,
                  MAX(day) - MIN(day) + 1 AS n
           FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day - (SELECT lo FROM bounds) AS t,
             COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d USING (day)),
pr AS (SELECT a.rev AS ra, b.rev AS rb
       FROM s a JOIN s b
         ON b.t = a.t + (SELECT n - n // 2 FROM bounds)
       WHERE a.t < (SELECT n // 2 FROM bounds)),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS pairs,
             CAST(SUM(CASE WHEN rb > ra THEN 1 ELSE 0 END)
                  AS BIGINT) AS plus,
             CAST(SUM(CASE WHEN rb < ra THEN 1 ELSE 0 END)
                  AS BIGINT) AS minus
      FROM pr)
SELECT (SELECT CAST(n AS BIGINT) FROM bounds) AS n_days,
       t.pairs AS n_pairs, t.plus AS n_plus, t.minus AS n_minus,
       t.pairs - t.plus - t.minus AS n_ties,
       CASE WHEN t.plus + t.minus = 0 THEN 0.0
            ELSE ROUND((CAST(t.plus - t.minus AS DOUBLE)
                        + CASE WHEN t.plus > t.minus THEN -1.0
                               WHEN t.plus < t.minus THEN 1.0
                               ELSE 0.0 END)
                       / SQRT(CAST(t.plus + t.minus AS DOUBLE)),
                       6) END AS z
FROM t
"""


def q_longest_run_above_median(sf_dir: str):
    """Longest run of above-median revenue days — the LONGEST-run
    complement to the registry's Wald–Wolfowitz runs COUNT (the
    count misses one long momentum stretch in otherwise-alternating
    data; the longest run is exactly that stretch): exact type-1
    median over the zero-filled calendar, runs of the strict
    above-median indicator via the gaps-and-islands scan, longest
    run + its start day + the total above count all exact
    integers."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    x = np.zeros(hi - lo + 1, dtype=np.int64)
    x[days - lo] = d["rev"].to_numpy(np.int64)
    n = len(x)
    srt = np.sort(x)
    med = int(srt[(n - 1) // 2])
    above = x > med
    best = cur = 0
    best_start = start = -1
    for i in range(n):
        if above[i]:
            if cur == 0:
                start = i
            cur += 1
            if cur > best:
                best = cur
                best_start = start
        else:
            cur = 0
    return pd.DataFrame([{
        "n_days": n, "median_cents": med,
        "n_above": int(above.sum()),
        "longest_run": best,
        "run_start_day_idx": best_start}]).astype({
            "n_days": np.int64, "median_cents": np.int64,
            "n_above": np.int64, "longest_run": np.int64,
            "run_start_day_idx": np.int64})


SQL_LONGEST_RUN_ABOVE_MEDIAN = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day - (SELECT lo FROM bounds) AS t,
             COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d USING (day)),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM s),
md AS (SELECT rev AS m FROM (
         SELECT rev, ROW_NUMBER() OVER (ORDER BY rev) AS rn FROM s),
         n
       WHERE rn = (n.n - 1) // 2 + 1),
ab AS (SELECT t, CASE WHEN rev > md.m THEN 1 ELSE 0 END AS a
       FROM s, md),
isl AS (SELECT t, a,
               t - ROW_NUMBER() OVER (ORDER BY t) AS grp
        FROM ab WHERE a = 1),
runs AS (SELECT grp, CAST(COUNT(*) AS BIGINT) AS len,
                CAST(MIN(t) AS BIGINT) AS start
         FROM isl GROUP BY 1),
best AS (SELECT len, start FROM runs
         ORDER BY len DESC, start LIMIT 1)
SELECT n.n AS n_days,
       (SELECT CAST(m AS BIGINT) FROM md) AS median_cents,
       (SELECT CAST(COALESCE(SUM(a), 0) AS BIGINT) FROM ab)
         AS n_above,
       COALESCE((SELECT len FROM best), 0) AS longest_run,
       COALESCE((SELECT start FROM best), -1)
         AS run_start_day_idx
FROM n
"""


def q_theta_forecast_revenue(sf_dir: str):
    """Theta-method forecast of daily revenue — the M3-competition
    winner in its Hyndman–Billah 2003 reduction: simple exponential
    smoothing PLUS half the linear-trend slope (the average of the
    θ=0 regression line and the θ=2 SES line).  Stated conventions:
    α = ½ fixed, SES initialized at y₀, forecasts ŷ_h = ℓ + (b/2)·h.
    α = ½ makes every SES weight a DYADIC float, so each y·2⁻ᵏ term
    is exact and the NANO-QUANTIZED per-day terms fold order-free
    (weights below nano vanish identically in both engines); the
    OLS slope over the zero-filled calendar is exact integer sums
    end-to-end."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    y = np.zeros(hi - lo + 1, dtype=np.int64)
    y[days - lo] = d["rev"].to_numpy(np.int64)
    n = len(y)
    t = np.arange(n, dtype=np.int64).astype(object)
    yo = y.astype(object)
    st = int(t.sum())
    sy = int(yo.sum())
    sty = int((t * yo).sum())
    stt = int((t * t).sum())
    b = float(n * sty - st * sy) / float(n * stt - st * st)
    idx = np.arange(n)
    w = np.where(idx == 0, 0.5 ** (n - 1), 0.5 ** (n - idx))
    l9 = int(np.floor(y.astype(np.float64) * w * 1e9 + 0.5)
             .astype(np.int64).sum())
    lvl = l9 / 1e9
    return pd.DataFrame([{
        "n_days": n,
        "slope_cents_per_day": np.round(b, 6),
        "ses_level_cents": np.round(lvl, 6),
        "f1": np.round(lvl + (b / 2.0) * 1.0, 6),
        "f4": np.round(lvl + (b / 2.0) * 4.0, 6),
        "f7": np.round(lvl + (b / 2.0) * 7.0, 6)}]).astype({
            "n_days": np.int64})


SQL_THETA_FORECAST = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day - (SELECT lo FROM bounds) AS t,
             COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d USING (day)),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM s),
mo AS (SELECT SUM(CAST(t AS HUGEINT)) AS st,
              SUM(rev) AS sy,
              SUM(CAST(t AS HUGEINT) * rev) AS sty,
              SUM(CAST(t AS HUGEINT) * t) AS stt
       FROM s),
b AS (SELECT CAST(n.n * mo.sty - mo.st * mo.sy AS DOUBLE)
             / CAST(n.n * mo.stt - mo.st * mo.st AS DOUBLE) AS b
      FROM n, mo),
ses AS (SELECT SUM(CAST(FLOOR(
            CASE WHEN t = 0
                 THEN CAST(rev AS DOUBLE) * POWER(0.5, n.n - 1)
                 ELSE CAST(rev AS DOUBLE) * POWER(0.5, n.n - t)
            END * 1e9 + 0.5) AS HUGEINT)) AS l9
        FROM s, n GROUP BY n.n)
SELECT n.n AS n_days,
       ROUND(b.b, 6) AS slope_cents_per_day,
       ROUND(CAST(l9 AS DOUBLE) / 1e9, 6) AS ses_level_cents,
       ROUND(CAST(l9 AS DOUBLE) / 1e9 + (b.b / 2.0) * 1.0, 6) AS f1,
       ROUND(CAST(l9 AS DOUBLE) / 1e9 + (b.b / 2.0) * 4.0, 6) AS f4,
       ROUND(CAST(l9 AS DOUBLE) / 1e9 + (b.b / 2.0) * 7.0, 6) AS f7
FROM n, b, ses
"""


def q_yule_walker_ar2_revenue(sf_dir: str):
    """Yule–Walker AR(2) fit of the daily revenue series — the
    autoregressive-model completion of the registry's ACF/PACF panel
    (ACF describes; Yule–Walker FITS): lagged autocovariances on the
    zero-filled calendar cleared to EXACT INTEGERS by the n²-scaling
    identity n²·c_k = n²Σx_t x_{t+k} − n·s·(head_k + tail_k) +
    (n−k)·s² (the scale cancels in every ratio), then ρ₁, ρ₂ and the
    closed-form φ₁ = ρ₁(1−ρ₂)/(1−ρ₁²), φ₂ = (ρ₂−ρ₁²)/(1−ρ₁²) as one
    mirrored float chain.  A constant series (c₀ = 0) reports NULLs
    by stated convention."""
    d = _daily_revenue_cents(sf_dir)
    days = d["day"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    x = np.zeros(hi - lo + 1, dtype=np.int64)
    x[days - lo] = d["rev"].to_numpy(np.int64)
    n = len(x)
    xo = x.astype(object)
    s = int(xo.sum())

    def c_scaled(k: int) -> int:
        sxx = int((xo[:-k] * xo[k:]).sum()) if k else \
            int((xo * xo).sum())
        head = int(xo[:n - k].sum())
        tail = int(xo[k:].sum())
        return n * n * sxx - n * s * (head + tail) + (n - k) * s * s

    c0 = c_scaled(0)
    c1 = c_scaled(1)
    c2 = c_scaled(2)
    if c0 == 0:
        rho1 = rho2 = phi1 = phi2 = np.nan
    else:
        rho1 = float(c1) / float(c0)
        rho2 = float(c2) / float(c0)
        den = 1.0 - rho1 * rho1
        phi1 = rho1 * (1.0 - rho2) / den
        phi2 = (rho2 - rho1 * rho1) / den
    return pd.DataFrame([{
        "n_days": n,
        "rho1": np.round(rho1, 6), "rho2": np.round(rho2, 6),
        "phi1": np.round(phi1, 6),
        "phi2": np.round(phi2, 6)}]).astype({"n_days": np.int64})


SQL_YULE_WALKER = """
WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                  SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                    AS rev
           FROM orders GROUP BY 1),
bounds AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
cal AS (SELECT UNNEST(generate_series(lo, hi)) AS day FROM bounds),
s AS (SELECT cal.day - (SELECT lo FROM bounds) AS t,
             COALESCE(d.rev, 0) AS rev
      FROM cal LEFT JOIN d USING (day)),
w AS (SELECT t, rev,
             LEAD(rev, 1) OVER (ORDER BY t) AS r1,
             LEAD(rev, 2) OVER (ORDER BY t) AS r2
      FROM s),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             SUM(rev) AS sall FROM s),
mo AS (SELECT
    SUM(rev * rev) AS sxx0,
    SUM(CASE WHEN r1 IS NOT NULL THEN rev * r1 END) AS sxx1,
    SUM(CASE WHEN r2 IS NOT NULL THEN rev * r2 END) AS sxx2,
    SUM(CASE WHEN r1 IS NOT NULL THEN rev END) AS head1,
    SUM(CASE WHEN r2 IS NOT NULL THEN rev END) AS head2,
    SUM(CASE WHEN t >= 1 THEN rev END) AS tail1,
    SUM(CASE WHEN t >= 2 THEN rev END) AS tail2
  FROM w),
c AS (SELECT
    n.n * n.n * mo.sxx0 - n.n * n.sall * (n.sall + n.sall)
      + n.n * n.sall * n.sall AS c0,
    n.n * n.n * mo.sxx1 - n.n * n.sall * (mo.head1 + mo.tail1)
      + (n.n - 1) * n.sall * n.sall AS c1,
    n.n * n.n * mo.sxx2 - n.n * n.sall * (mo.head2 + mo.tail2)
      + (n.n - 2) * n.sall * n.sall AS c2,
    n.n AS n
  FROM mo, n),
f AS (SELECT n,
             CAST(c1 AS DOUBLE) / CAST(c0 AS DOUBLE) AS rho1,
             CAST(c2 AS DOUBLE) / CAST(c0 AS DOUBLE) AS rho2,
             c0
      FROM c)
SELECT n AS n_days,
       CASE WHEN c0 = 0 THEN NULL ELSE ROUND(rho1, 6) END AS rho1,
       CASE WHEN c0 = 0 THEN NULL ELSE ROUND(rho2, 6) END AS rho2,
       CASE WHEN c0 = 0 THEN NULL ELSE
         ROUND(rho1 * (1.0 - rho2) / (1.0 - rho1 * rho1), 6)
       END AS phi1,
       CASE WHEN c0 = 0 THEN NULL ELSE
         ROUND((rho2 - rho1 * rho1) / (1.0 - rho1 * rho1), 6)
       END AS phi2
FROM f
"""


def q_point_biserial_status_price(sf_dir: str):
    """Point-biserial correlation between order finality (the binary
    o_orderstatus = 'F' indicator) and order value — the
    binary-vs-continuous member completing the correlation family
    (Pearson = continuous², tau/rho = ranks, Cramér's V =
    categorical²; r_pb IS Pearson applied to a 0/1 column, computed
    here in its group-means form): exact integer group counts / cent
    sums / the pooled Σx² 128-bit split, then
    r_pb = (M₁−M₀)/s_n · √(n₁n₀/n²) as one mirrored float chain.
    One-group degenerate data reports NULL (stated)."""
    import math
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_orderstatus", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        f = (t["o_orderstatus"].to_numpy(zero_copy_only=False)
             == "F").astype(np.int64)
        v2 = cents * cents
        g = pd.DataFrame({"f": f, "ps": cents,
                          "ph": v2 >> 32, "pl": v2 & 0xFFFFFFFF,
                          "pn": 1}).groupby("f", sort=False) \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("f").aggregate(
            Sum("ps", alias_name="s"), Sum("ph", alias_name="h"),
            Sum("pl", alias_name="l"), Sum("pn", alias_name="n"))
    ).to_pandas().set_index("f")
    if 1 not in agg.index or 0 not in agg.index:
        return pd.DataFrame([{
            "n_final": int(agg["n"].sum()) if 1 in agg.index else 0,
            "n_other": int(agg["n"].sum()) if 0 in agg.index else 0,
            "r_pb": np.nan}]).astype({
                "n_final": np.int64, "n_other": np.int64})
    n1 = int(agg.loc[1, "n"])
    n0 = int(agg.loc[0, "n"])
    s1 = int(agg.loc[1, "s"])
    s0 = int(agg.loc[0, "s"])
    q_all = ((int(agg.loc[1, "h"]) + int(agg.loc[0, "h"])) << 32) \
        + int(agg.loc[1, "l"]) + int(agg.loc[0, "l"])
    n = n1 + n0
    s = s1 + s0
    var_n = (float(n) * q_all - float(s) * s) \
        / (float(n) * n)                       # population variance
    if var_n <= 0:
        rpb = np.nan
    else:
        rpb = (float(s1) / n1 - float(s0) / n0) / math.sqrt(var_n) \
            * math.sqrt(float(n1) * n0 / (float(n) * n))
    return pd.DataFrame([{
        "n_final": n1, "n_other": n0,
        "r_pb": np.round(rpb, 6)}]).astype({
            "n_final": np.int64, "n_other": np.int64})


SQL_POINT_BISERIAL = """
WITH d AS (SELECT CASE WHEN o_orderstatus = 'F' THEN 1 ELSE 0 END
             AS f,
           CAST(ROUND(o_totalprice * 100) AS BIGINT) AS v
           FROM orders),
g AS (SELECT f, CAST(COUNT(*) AS BIGINT) AS n,
             SUM(CAST(v AS HUGEINT)) AS s,
             SUM(CAST(v AS HUGEINT) * v) AS q
      FROM d GROUP BY 1),
t AS (SELECT
        MAX(CASE WHEN f = 1 THEN n END) AS n1,
        MAX(CASE WHEN f = 0 THEN n END) AS n0,
        MAX(CASE WHEN f = 1 THEN s END) AS s1,
        MAX(CASE WHEN f = 0 THEN s END) AS s0,
        SUM(n) AS n, SUM(s) AS s, SUM(q) AS q
      FROM g),
e AS (SELECT n1, n0,
             (CAST(n AS DOUBLE) * q - CAST(s AS DOUBLE) * s)
             / (CAST(n AS DOUBLE) * n) AS var_n,
             CAST(s1 AS DOUBLE) / n1 - CAST(s0 AS DOUBLE) / n0
               AS mdiff,
             CAST(n1 AS DOUBLE) * n0
               / (CAST(n AS DOUBLE) * n) AS pq
      FROM t)
SELECT CAST(n1 AS BIGINT) AS n_final, CAST(n0 AS BIGINT) AS n_other,
       CASE WHEN n1 IS NULL OR n0 IS NULL OR var_n <= 0 THEN NULL
            ELSE ROUND(mdiff / SQRT(var_n) * SQRT(pq), 6)
       END AS r_pb
FROM e
"""


def _orders_2x2_strata(sf_dir: str) -> pd.DataFrame:
    """Shared per-year 2×2 reduce for the epidemiology family:
    exposure = urgent priority (1-URGENT / 2-HIGH), outcome = order
    finalized (status 'F'); strata = order year.  Exact integer
    (year, a, b, c, d) cells from one narrow keyed groupby."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders",
                   ["o_orderdate", "o_orderpriority", "o_orderstatus"])

    def partial(t: pa.Table) -> pa.Table:
        yr = (t["o_orderdate"].to_numpy(zero_copy_only=False)
              .astype("datetime64[Y]").astype(np.int64) + 1970)
        pr = t["o_orderpriority"].to_numpy(zero_copy_only=False)
        exp_ = np.isin(pr, ["1-URGENT", "2-HIGH"])
        out_ = (t["o_orderstatus"].to_numpy(zero_copy_only=False)
                == "F")
        g = pd.DataFrame({
            "yr": yr,
            "a": (exp_ & out_).astype(np.int64),
            "b": (exp_ & ~out_).astype(np.int64),
            "c": (~exp_ & out_).astype(np.int64),
            "d": (~exp_ & ~out_).astype(np.int64)}) \
            .groupby("yr", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    return relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("yr").aggregate(
            Sum("a", alias_name="a"), Sum("b", alias_name="b"),
            Sum("c", alias_name="c"), Sum("d", alias_name="d"))
    ).to_pandas().sort_values("yr").reset_index(drop=True)


_EPI_SQL_CELLS = """
cells AS (SELECT CAST(YEAR(o_orderdate) AS BIGINT) AS yr,
    CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
             AND o_orderstatus = 'F' THEN 1 ELSE 0 END) AS BIGINT)
      AS a,
    CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
             AND o_orderstatus <> 'F' THEN 1 ELSE 0 END) AS BIGINT)
      AS b,
    CAST(SUM(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
             AND o_orderstatus = 'F' THEN 1 ELSE 0 END) AS BIGINT)
      AS c,
    CAST(SUM(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
             AND o_orderstatus <> 'F' THEN 1 ELSE 0 END) AS BIGINT)
      AS d
  FROM orders GROUP BY 1)
"""


def q_epi_2x2_orders(sf_dir: str):
    """The epidemiology 2×2 effect-measure panel on the pooled
    urgent-priority × finalized-status table — odds ratio with the
    Woolf log CI, relative risk with the Katz log CI, and the risk
    difference with the Wald CI, the trio every cohort/case-control
    readout quotes: exact integer cells (pooled over years), the
    Haldane–Anscombe +0.5 applied to ALL cells iff any cell is zero
    (stated), and each estimate + CI one mirrored exp/ln float
    chain."""
    import math
    s = _orders_2x2_strata(sf_dir)
    a = int(s["a"].sum())
    b = int(s["b"].sum())
    c = int(s["c"].sum())
    d = int(s["d"].sum())
    z = 1.959964
    if min(a, b, c, d) == 0:
        af, bf, cf, df = a + 0.5, b + 0.5, c + 0.5, d + 0.5
    else:
        af, bf, cf, df = float(a), float(b), float(c), float(d)
    or_ = af * df / (bf * cf)
    se_or = math.sqrt(1.0 / af + 1.0 / bf + 1.0 / cf + 1.0 / df)
    p1 = af / (af + bf)
    p0 = cf / (cf + df)
    rr = p1 / p0
    se_rr = math.sqrt(1.0 / af - 1.0 / (af + bf)
                      + 1.0 / cf - 1.0 / (cf + df))
    rd = p1 - p0
    se_rd = math.sqrt(p1 * (1.0 - p1) / (af + bf)
                      + p0 * (1.0 - p0) / (cf + df))
    return pd.DataFrame([{
        "a": a, "b": b, "c": c, "d": d,
        "odds_ratio": np.round(or_, 6),
        "or_lo": np.round(math.exp(math.log(or_) - z * se_or), 6),
        "or_hi": np.round(math.exp(math.log(or_) + z * se_or), 6),
        "relative_risk": np.round(rr, 6),
        "rr_lo": np.round(math.exp(math.log(rr) - z * se_rr), 6),
        "rr_hi": np.round(math.exp(math.log(rr) + z * se_rr), 6),
        "risk_diff": np.round(rd, 6),
        "rd_lo": np.round(rd - z * se_rd, 6),
        "rd_hi": np.round(rd + z * se_rd, 6)}]).astype({
            "a": np.int64, "b": np.int64,
            "c": np.int64, "d": np.int64})


SQL_EPI_2X2 = f"""
WITH {_EPI_SQL_CELLS.strip()},
p AS (SELECT CAST(SUM(a) AS BIGINT) AS a,
             CAST(SUM(b) AS BIGINT) AS b,
             CAST(SUM(c) AS BIGINT) AS c,
             CAST(SUM(d) AS BIGINT) AS d
      FROM cells),
f AS (SELECT a, b, c, d,
        CASE WHEN LEAST(a, b, c, d) = 0
             THEN a + 0.5 ELSE CAST(a AS DOUBLE) END AS af,
        CASE WHEN LEAST(a, b, c, d) = 0
             THEN b + 0.5 ELSE CAST(b AS DOUBLE) END AS bf,
        CASE WHEN LEAST(a, b, c, d) = 0
             THEN c + 0.5 ELSE CAST(c AS DOUBLE) END AS cf,
        CASE WHEN LEAST(a, b, c, d) = 0
             THEN d + 0.5 ELSE CAST(d AS DOUBLE) END AS df
      FROM p),
e AS (SELECT a, b, c, d,
        af * df / (bf * cf) AS orr,
        SQRT(1.0 / af + 1.0 / bf + 1.0 / cf + 1.0 / df) AS se_or,
        af / (af + bf) AS p1, cf / (cf + df) AS p0,
        SQRT(1.0 / af - 1.0 / (af + bf)
             + 1.0 / cf - 1.0 / (cf + df)) AS se_rr,
        SQRT(af / (af + bf) * (1.0 - af / (af + bf)) / (af + bf)
             + cf / (cf + df) * (1.0 - cf / (cf + df)) / (cf + df))
          AS se_rd
      FROM f)
SELECT a, b, c, d,
       ROUND(orr, 6) AS odds_ratio,
       ROUND(EXP(LN(orr) - 1.959964 * se_or), 6) AS or_lo,
       ROUND(EXP(LN(orr) + 1.959964 * se_or), 6) AS or_hi,
       ROUND(p1 / p0, 6) AS relative_risk,
       ROUND(EXP(LN(p1 / p0) - 1.959964 * se_rr), 6) AS rr_lo,
       ROUND(EXP(LN(p1 / p0) + 1.959964 * se_rr), 6) AS rr_hi,
       ROUND(p1 - p0, 6) AS risk_diff,
       ROUND(p1 - p0 - 1.959964 * se_rd, 6) AS rd_lo,
       ROUND(p1 - p0 + 1.959964 * se_rd, 6) AS rd_hi
FROM e
"""


def q_breslow_day_orders(sf_dir: str):
    """Breslow–Day homogeneity test of the odds ratio across order
    years — the diagnostic that must accompany any pooled /
    Mantel–Haenszel OR (CMH answers "is there an effect, pooling
    strata"; Breslow–Day answers "is ONE pooled number even
    legitimate"): the MH common OR from milli-quantized per-stratum
    a·d/n and b·c/n folds, per-stratum expected cells as the
    in-range root of the BD quadratic (identical float chains pick
    identical roots), variances from the 4-cell harmonic form, and
    the χ² fold NANO-QUANTIZED per stratum.  Degenerate strata
    (any margin 0) are skipped and counted (stated)."""
    import math
    s = _orders_2x2_strata(sf_dir)
    num3 = den3 = 0
    for r in s.itertuples():
        n = int(r.a + r.b + r.c + r.d)
        if n == 0:
            continue
        num3 += int(np.floor(float(int(r.a) * int(r.d)) / n
                             * 1e3 + 0.5))
        den3 += int(np.floor(float(int(r.b) * int(r.c)) / n
                             * 1e3 + 0.5))
    if den3 == 0 or num3 == 0:
        psi = np.nan
    else:
        psi = float(num3) / den3
    chi9 = 0
    k_used = 0
    k_skipped = 0
    for r in s.itertuples():
        a, b, c, d = int(r.a), int(r.b), int(r.c), int(r.d)
        n = a + b + c + d
        r1 = a + b
        c1 = a + c
        if min(r1, n - r1, c1, n - c1) == 0 or not psi == psi:
            k_skipped += 1
            continue
        if abs(psi - 1.0) < 1e-12:
            e = float(r1) * c1 / n
        else:
            qa = psi - 1.0
            qb = -(psi * (r1 + c1) + (n - r1 - c1))
            qc = psi * float(r1) * c1
            disc = math.sqrt(qb * qb - 4.0 * qa * qc)
            e1 = (-qb - disc) / (2.0 * qa)
            e2 = (-qb + disc) / (2.0 * qa)
            lo = max(0.0, float(r1 + c1 - n))
            hi = min(float(r1), float(c1))
            e = e1 if lo <= e1 <= hi else e2
        v = 1.0 / (1.0 / e + 1.0 / (r1 - e) + 1.0 / (c1 - e)
                   + 1.0 / (n - r1 - c1 + e))
        chi9 += int(np.floor((a - e) * (a - e) / v * 1e9 + 0.5))
        k_used += 1
    return pd.DataFrame([{
        "k_strata": k_used, "k_skipped": k_skipped,
        "or_mh": np.round(psi, 6),
        "bd_chi2": np.round(chi9 / 1e9, 6)}]).astype({
            "k_strata": np.int64, "k_skipped": np.int64})


SQL_BRESLOW_DAY = f"""
WITH {_EPI_SQL_CELLS.strip()},
mh AS (SELECT
    SUM(CASE WHEN a + b + c + d > 0 THEN
        CAST(FLOOR(CAST(a AS DOUBLE) * d / (a + b + c + d)
                   * 1e3 + 0.5) AS HUGEINT) ELSE 0 END) AS num3,
    SUM(CASE WHEN a + b + c + d > 0 THEN
        CAST(FLOOR(CAST(b AS DOUBLE) * c / (a + b + c + d)
                   * 1e3 + 0.5) AS HUGEINT) ELSE 0 END) AS den3
  FROM cells),
psi AS (SELECT CASE WHEN den3 = 0 OR num3 = 0 THEN NULL
                    ELSE CAST(num3 AS DOUBLE) / den3 END AS psi
        FROM mh),
st AS (SELECT a, b, c, d, a + b + c + d AS n,
              a + b AS r1, a + c AS c1
       FROM cells),
ok AS (SELECT *, LEAST(r1, n - r1, c1, n - c1) > 0 AS usable
       FROM st),
ev AS (SELECT a, n, r1, c1, usable,
         CASE WHEN NOT usable OR psi.psi IS NULL THEN NULL
              WHEN ABS(psi.psi - 1.0) < 1e-12
                THEN CAST(r1 AS DOUBLE) * c1 / n
              ELSE (
                CASE WHEN
                  ((psi.psi * (r1 + c1) + (n - r1 - c1))
                   - SQRT((-(psi.psi * (r1 + c1) + (n - r1 - c1)))
                          * (-(psi.psi * (r1 + c1) + (n - r1 - c1)))
                          - 4.0 * (psi.psi - 1.0)
                            * (psi.psi * CAST(r1 AS DOUBLE) * c1)))
                  / (2.0 * (psi.psi - 1.0))
                  BETWEEN GREATEST(0.0, CAST(r1 + c1 - n AS DOUBLE))
                      AND LEAST(CAST(r1 AS DOUBLE), CAST(c1 AS DOUBLE))
                THEN
                  ((psi.psi * (r1 + c1) + (n - r1 - c1))
                   - SQRT((-(psi.psi * (r1 + c1) + (n - r1 - c1)))
                          * (-(psi.psi * (r1 + c1) + (n - r1 - c1)))
                          - 4.0 * (psi.psi - 1.0)
                            * (psi.psi * CAST(r1 AS DOUBLE) * c1)))
                  / (2.0 * (psi.psi - 1.0))
                ELSE
                  ((psi.psi * (r1 + c1) + (n - r1 - c1))
                   + SQRT((-(psi.psi * (r1 + c1) + (n - r1 - c1)))
                          * (-(psi.psi * (r1 + c1) + (n - r1 - c1)))
                          - 4.0 * (psi.psi - 1.0)
                            * (psi.psi * CAST(r1 AS DOUBLE) * c1)))
                  / (2.0 * (psi.psi - 1.0))
                END)
         END AS e
       FROM ok, psi),
t AS (SELECT
    CAST(SUM(CASE WHEN e IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT)
      AS k_used,
    CAST(SUM(CASE WHEN e IS NULL THEN 1 ELSE 0 END) AS BIGINT)
      AS k_skipped,
    SUM(CASE WHEN e IS NOT NULL THEN
        CAST(FLOOR((a - e) * (a - e)
             / (1.0 / (1.0 / e + 1.0 / (r1 - e) + 1.0 / (c1 - e)
                       + 1.0 / (n - r1 - c1 + e)))
             * 1e9 + 0.5) AS HUGEINT) ELSE 0 END) AS chi9
  FROM ev)
SELECT t.k_used AS k_strata, t.k_skipped,
       ROUND(psi.psi, 6) AS or_mh,
       ROUND(CAST(t.chi9 AS DOUBLE) / 1e9, 6) AS bd_chi2
FROM t, psi
"""


def q_peto_log_odds_orders(sf_dir: str):
    """Peto one-step log-odds estimator across order years — the
    meta-analysis sibling of Mantel–Haenszel built from the SAME
    O−E machinery as the registry's log-rank tests: per stratum
    O = a, E = r1·c1/n, V = r1·r0·c1·c0/(n²(n−1)), ψ̂_Peto =
    exp(Σ(O−E)/ΣV); the O−E and V folds are milli/nano-quantized
    exact integers, the exp one mirrored float."""
    import math
    s = _orders_2x2_strata(sf_dir)
    oe3 = 0
    v9 = 0
    for r in s.itertuples():
        a, b, c, d = int(r.a), int(r.b), int(r.c), int(r.d)
        n = a + b + c + d
        r1, r0 = a + b, c + d
        c1, c0 = a + c, b + d
        if n < 2 or min(r1, r0, c1, c0) == 0:
            continue
        e = float(r1) * c1 / n
        v = float(r1) * r0 * c1 * c0 / (float(n) * n * (n - 1))
        oe3 += int(np.floor((a - e) * 1e3 + 0.5))
        v9 += int(np.floor(v * 1e9 + 0.5))
    if v9 == 0:
        psi = np.nan
        lnp = np.nan
    else:
        lnp = (oe3 / 1e3) / (v9 / 1e9)
        psi = math.exp(lnp)
    return pd.DataFrame([{
        "sum_o_minus_e": np.round(oe3 / 1e3, 6),
        "sum_v": np.round(v9 / 1e9, 6),
        "peto_log_or": np.round(lnp, 6),
        "peto_or": np.round(psi, 6)}])


SQL_PETO = f"""
WITH {_EPI_SQL_CELLS.strip()},
st AS (SELECT a, b, c, d, a + b + c + d AS n,
              a + b AS r1, c + d AS r0, a + c AS c1, b + d AS c0
       FROM cells),
t AS (SELECT
    SUM(CASE WHEN n >= 2 AND LEAST(r1, r0, c1, c0) > 0 THEN
        CAST(FLOOR((a - CAST(r1 AS DOUBLE) * c1 / n) * 1e3 + 0.5)
             AS HUGEINT) ELSE 0 END) AS oe3,
    SUM(CASE WHEN n >= 2 AND LEAST(r1, r0, c1, c0) > 0 THEN
        CAST(FLOOR(CAST(r1 AS DOUBLE) * r0 * c1 * c0
                   / (CAST(n AS DOUBLE) * n * (n - 1))
                   * 1e9 + 0.5) AS HUGEINT) ELSE 0 END) AS v9
  FROM st)
SELECT ROUND(CAST(oe3 AS DOUBLE) / 1e3, 6) AS sum_o_minus_e,
       ROUND(CAST(v9 AS DOUBLE) / 1e9, 6) AS sum_v,
       CASE WHEN v9 = 0 THEN NULL ELSE
         ROUND((CAST(oe3 AS DOUBLE) / 1e3)
               / (CAST(v9 AS DOUBLE) / 1e9), 6) END AS peto_log_or,
       CASE WHEN v9 = 0 THEN NULL ELSE
         ROUND(EXP((CAST(oe3 AS DOUBLE) / 1e3)
                   / (CAST(v9 AS DOUBLE) / 1e9)), 6) END AS peto_or
FROM t
"""
