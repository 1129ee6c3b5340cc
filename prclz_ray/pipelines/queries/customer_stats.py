"""Statistics demos over customers and their orders: inequality,
spatial autocorrelation, apportionment and causal-inference
estimators."""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ...stages import dedup as dd
from ...stages import relational
from .common import (
    _RIPLEY_RADII, _fingerprint_cache_dir, _morton_interleave,
    _points_batch, _read, _read_table)


def q_trimmed_mean_acctbal(sf_dir: str):
    """Per-nation 10 % two-sided trimmed mean of account balance — the
    outlier-robust location estimate (drop the lowest and highest
    floor(0.1·n) rows by (cents, custkey) rank, average the rest).
    All-int: cents in, round-half-up micro-dollar mean out — bit-exact
    at any partitioning.  One nation-bucket shuffle; per bucket a
    vectorized sort (nations are bounded, each group fits a task)."""
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = np.round(t["c_acctbal"].to_numpy(zero_copy_only=False)
                         * 100.0).astype(np.int64)
        return pa.table({"c_nationkey": t["c_nationkey"],
                         "c_custkey": t["c_custkey"],
                         "cents": pa.array(cents)})

    def per_nation(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["cents", "c_custkey"])
        n = len(df)
        cut = int(0.1 * n)
        kept = df["cents"].to_numpy(dtype=np.int64)[cut:n - cut]
        s, c = int(kept.sum()), len(kept)
        micro = (2 * s * 100 + c) // (2 * c) if c else 0
        return pa.table({
            "c_nationkey": pa.array([int(df["c_nationkey"].iloc[0])],
                                    type=pa.int32()),
            "n_kept": pa.array([c], type=pa.int64()),
            "trimmed_mean_micro": pa.array([micro], type=pa.int64())})

    return cust.map_batches(to_cents, batch_format="pyarrow") \
        .groupby("c_nationkey").map_groups(per_nation,
                                           batch_format="pandas")


SQL_TRIMMED_MEAN = """
WITH c AS (SELECT c_nationkey, c_custkey,
                  CAST(ROUND(c_acctbal * 100) AS BIGINT) AS cents
           FROM customer),
r AS (SELECT c_nationkey, cents,
             ROW_NUMBER() OVER (PARTITION BY c_nationkey
                                ORDER BY cents, c_custkey) AS rn,
             COUNT(*) OVER (PARTITION BY c_nationkey) AS n
      FROM c)
SELECT c_nationkey, CAST(COUNT(*) AS BIGINT) AS n_kept,
       CAST((2 * SUM(CAST(cents AS HUGEINT)) * 100 + COUNT(*))
            // (2 * COUNT(*)) AS BIGINT) AS trimmed_mean_micro
FROM r
WHERE rn > CAST(FLOOR(0.1 * n) AS BIGINT)
  AND rn <= n - CAST(FLOOR(0.1 * n) AS BIGINT)
GROUP BY c_nationkey
"""


def q_hhi_nation_revenue(sf_dir: str):
    """Market-concentration audit: per-nation Herfindahl–Hirschman index
    of customer revenue shares, HHI = Σrᵢ² / (Σrᵢ)² over each nation's
    customers.  Revenue squares overflow int64 under batch summation at
    100× (r ≤ ~5·10⁸ cents ⇒ r² ≤ 2.5·10¹⁷ per element), so partials
    carry 128-bit sums as (hi, lo) = (r² >> 32, r² & 0xFFFFFFFF) int64
    column pairs — exact at any scale — recombined as python ints on
    the 25-row driver finish.  The per-nation reduce rides the join's
    combine hook (customer key lands in exactly one bucket), so the
    downstream exchange moves ≤ buckets × 25 rows."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def per_cust(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(zero_copy_only=False)
                         * 100.0).astype(np.int64)
        g = pd.DataFrame({"o_custkey":
                          t["o_custkey"].to_numpy(zero_copy_only=False),
                          "pr": cents}) \
            .groupby("o_custkey", sort=False)["pr"].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    rev = orders.map_batches(per_cust, batch_format="pyarrow") \
        .groupby("o_custkey").aggregate(Sum("pr", alias_name="r"))
    cust2 = cust.map_batches(
        lambda t: t.rename_columns(["o_custkey", "c_nationkey"]),
        batch_format="pyarrow")

    def combine(tbl: pa.Table) -> pa.Table:
        r = tbl["r"].to_numpy(zero_copy_only=False).astype(np.int64)
        rr = r * r
        df = pd.DataFrame({
            "c_nationkey": tbl["c_nationkey"].to_numpy(
                zero_copy_only=False).astype(np.int64),
            "psr": r, "phi": rr >> 32, "plo": rr & 0xFFFFFFFF,
            "pnc": np.ones(len(r), dtype=np.int64)})
        g = df.groupby("c_nationkey", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    j = relational.bucketed_hash_join(rev, cust2, on="o_custkey",
                                      combine=combine)
    agg = relational.ds_to_table(
        j.groupby("c_nationkey").aggregate(
            Sum("psr", alias_name="sr"), Sum("phi", alias_name="hi"),
            Sum("plo", alias_name="lo"), Sum("pnc", alias_name="nc"))
    ).to_pandas().sort_values("c_nationkey").reset_index(drop=True)
    hhi = []
    for _, row in agg.iterrows():
        s2 = int(row["hi"]) * (1 << 32) + int(row["lo"])   # exact 128-bit
        sr = int(row["sr"])
        hhi.append(int(round(float(s2) / (float(sr) * float(sr)) * 1e9)))
    return pd.DataFrame({
        "c_nationkey": agg["c_nationkey"].to_numpy(dtype=np.int64),
        "n_customers": agg["nc"].to_numpy(dtype=np.int64),
        "hhi_nano": np.array(hhi, dtype=np.int64)})


SQL_HHI = """
WITH rev AS (SELECT o_custkey,
                    SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS r
             FROM orders GROUP BY 1),
j AS (SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey, r
      FROM rev JOIN customer ON c_custkey = o_custkey),
s AS (SELECT c_nationkey, SUM(CAST(r AS HUGEINT) * r) AS s2,
             SUM(CAST(r AS HUGEINT)) AS sr,
             CAST(COUNT(*) AS BIGINT) AS n_customers
      FROM j GROUP BY 1)
SELECT c_nationkey, n_customers,
       CAST(ROUND(CAST(s2 AS DOUBLE)
                  / (CAST(sr AS DOUBLE) * CAST(sr AS DOUBLE))
                  * 1000000000) AS BIGINT) AS hhi_nano
FROM s ORDER BY c_nationkey
"""


def q_nation_revenue_share_in_region(sf_dir: str):
    """Percent-of-parent rollup: each nation's share of its REGION's
    order revenue.  The 25-row nation⋈region dimension broadcasts onto
    customer; the customer⋈orders join pre-aggregates per (region,
    nation) inside the bucket tasks (≤ buckets × 25 rows exchanged);
    cents stay exact ints until the single share division on the
    25-row driver finish."""
    from ray.data.aggregate import Sum
    nation = _read_table(sf_dir, "nation",
                         ["n_nationkey", "n_name", "n_regionkey"])
    region = _read_table(sf_dir, "region", ["r_regionkey", "r_name"])
    dim = nation.to_pandas().merge(
        region.to_pandas(), left_on="n_regionkey",
        right_on="r_regionkey")[["n_nationkey", "n_name", "r_name"]]
    dim = pa.Table.from_pandas(
        dim.rename(columns={"n_nationkey": "c_nationkey"}),
        preserve_index=False)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    enriched = relational.broadcast_join(cust, dim, on="c_nationkey") \
        .map_batches(lambda t: t.select(["c_custkey", "n_name", "r_name"])
                     .rename_columns(["o_custkey", "n_name", "r_name"]),
                     batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def combine(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(zero_copy_only=False)
                         * 100.0).astype(np.int64)
        g = pd.DataFrame({"n_name": t["n_name"].to_numpy(
            zero_copy_only=False),
            "r_name": t["r_name"].to_numpy(zero_copy_only=False),
            "pc_": cents}) \
            .groupby(["r_name", "n_name"], sort=False)["pc_"] \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        relational.bucketed_hash_join(orders, enriched, on="o_custkey",
                                      combine=combine)
        .groupby(["r_name", "n_name"])
        .aggregate(Sum("pc_", alias_name="cents"))).to_pandas()
    reg = agg.groupby("r_name")["cents"].transform("sum")
    out = pd.DataFrame({
        "r_name": agg["r_name"], "n_name": agg["n_name"],
        "revenue": np.round(agg["cents"].to_numpy(np.int64) / 100.0, 2),
        "share_pct": np.round(agg["cents"].to_numpy(np.float64)
                              / reg.to_numpy(np.float64) * 100.0, 6)})
    return out.sort_values(["r_name", "n_name"]).reset_index(drop=True)


SQL_NATION_SHARE = """
WITH a AS (SELECT r_name, n_name,
                  SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS cents
           FROM orders
           JOIN customer ON c_custkey = o_custkey
           JOIN nation ON n_nationkey = c_nationkey
           JOIN region ON r_regionkey = n_regionkey
           GROUP BY 1, 2),
r AS (SELECT r_name, SUM(cents) AS rc FROM a GROUP BY 1)
SELECT a.r_name, a.n_name,
       ROUND(CAST(a.cents AS DOUBLE) / 100.0, 2) AS revenue,
       ROUND(CAST(a.cents AS DOUBLE) / CAST(r.rc AS DOUBLE) * 100.0, 6)
         AS share_pct
FROM a JOIN r ON a.r_name = r.r_name
ORDER BY a.r_name, a.n_name
"""


def q_winsorized_mean_acctbal(sf_dir: str):
    """Winsorized mean — the robust-statistics clip at exact p5/p95
    (outlier-resistant pipelines clip, they don't drop): both bounds
    come from the value-distribution table under the pure-integer rule
    20·cum ≥ k·N (k = 1, 19), then one streaming pass clips and
    reduces per-nation micro-int sums.  Mean stays exact ints until the
    single division."""
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def vparts(t: pa.Table) -> pa.Table:
        v = np.round(t["c_acctbal"].to_numpy(zero_copy_only=False)
                     * 100.0).astype(np.int64)
        u, c = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(u),
                         "pc_": pa.array(c.astype(np.int64))})

    vc = relational.ds_to_table(
        cust.map_batches(vparts, batch_format="pyarrow")
        .groupby("v").aggregate(Sum("pc_", alias_name="c"))
    ).to_pandas().sort_values("v").reset_index(drop=True)
    cum = np.cumsum(vc["c"].to_numpy(np.int64))
    v = vc["v"].to_numpy(np.int64)
    lo_b = int(v[relational.exact_quantile_idx(cum, 1, 20)])
    hi_b = int(v[relational.exact_quantile_idx(cum, 19, 20)])

    def clipped(t: pa.Table) -> pa.Table:
        x = np.round(t["c_acctbal"].to_numpy(zero_copy_only=False)
                     * 100.0).astype(np.int64)
        x = np.clip(x, lo_b, hi_b)
        g = pd.DataFrame({"c_nationkey":
                          t["c_nationkey"].to_numpy(zero_copy_only=False)
                          .astype(np.int64),
                          "ps": x, "pn": 1}) \
            .groupby("c_nationkey", sort=False) \
            .agg(ps=("ps", "sum"), pn=("pn", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        cust.map_batches(clipped, batch_format="pyarrow")
        .groupby("c_nationkey").aggregate(Sum("ps", alias_name="s"),
                                          Sum("pn", alias_name="n"))
    ).to_pandas().sort_values("c_nationkey").reset_index(drop=True)
    return pd.DataFrame({
        "c_nationkey": agg["c_nationkey"].to_numpy(np.int64),
        "n_customers": agg["n"].to_numpy(np.int64),
        "lo_cents": np.full(len(agg), lo_b, dtype=np.int64),
        "hi_cents": np.full(len(agg), hi_b, dtype=np.int64),
        "winsorized_mean": np.round(
            agg["s"].to_numpy(np.float64) / agg["n"].to_numpy(np.float64)
            / 100.0, 4)})


SQL_WINSORIZED = """
WITH vc AS (SELECT CAST(ROUND(c_acctbal * 100) AS BIGINT) AS v,
                   CAST(COUNT(*) AS BIGINT) AS c
            FROM customer GROUP BY 1),
w AS (SELECT v, SUM(c) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING)
               AS cum, SUM(c) OVER () AS n
      FROM vc),
b AS (SELECT (SELECT MIN(v) FROM w WHERE 20 * cum >= 1 * n) AS lo,
             (SELECT MIN(v) FROM w WHERE 20 * cum >= 19 * n) AS hi),
cl AS (SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
              LEAST(GREATEST(CAST(ROUND(c_acctbal * 100) AS BIGINT),
                             b.lo), b.hi) AS x, b.lo, b.hi
       FROM customer, b)
SELECT c_nationkey, CAST(COUNT(*) AS BIGINT) AS n_customers,
       CAST(MIN(lo) AS BIGINT) AS lo_cents,
       CAST(MIN(hi) AS BIGINT) AS hi_cents,
       ROUND(CAST(SUM(x) AS DOUBLE) / COUNT(*) / 100.0, 4)
         AS winsorized_mean
FROM cl GROUP BY 1 ORDER BY 1
"""


def q_skewness_acctbal_nation(sf_dir: str):
    """Per-nation distribution skewness from EXACT integer power sums —
    the third-moment member of the power-sum family (variance/Fano/
    assortativity are second-moment).  Cubes of cents reach ~1.3·10¹⁸
    (per element inside int64, but NOT under batch summation), so Σx³
    rides the (hi, lo) 128-bit split; x can be negative (acctbal), and
    the arithmetic->floor shift / nonneg mask decomposition stays exact
    for negatives (p = (p>>32)·2³² + (p & 2³²−1) is the floor/mod
    identity).  The final skew evaluates the identical double
    expression as the SQL twin."""
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        x = np.round(t["c_acctbal"].to_numpy(zero_copy_only=False)
                     * 100.0).astype(np.int64)
        x2 = x * x
        x3 = x2 * x                      # |x| ≤ ~1.1e6 → |x³| ≤ 1.4e18
        g = pd.DataFrame({"c_nationkey":
                          t["c_nationkey"].to_numpy(zero_copy_only=False)
                          .astype(np.int64),
                          "ps1": x, "ps2": x2,
                          "ph3": x3 >> 32, "pl3": x3 & 0xFFFFFFFF,
                          "pn": 1}) \
            .groupby("c_nationkey", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby("c_nationkey").aggregate(
            Sum("ps1", alias_name="s1"), Sum("ps2", alias_name="s2"),
            Sum("ph3", alias_name="h3"), Sum("pl3", alias_name="l3"),
            Sum("pn", alias_name="n"))
    ).to_pandas().sort_values("c_nationkey").reset_index(drop=True)
    rows = []
    for _, r in agg.iterrows():
        n = float(int(r["n"]))
        s1 = float(int(r["s1"]))
        s2 = float(int(r["s2"]))
        s3 = float(int(r["h3"]) * (1 << 32) + int(r["l3"]))
        mu = s1 / n
        m2 = s2 / n - mu * mu
        # association mirrors the SQL text exactly (3·μ·(s2/n), not
        # (3·μ·s2)/n) so the doubles are bit-identical, not 1-ulp off
        m3 = s3 / n - 3.0 * mu * (s2 / n) + 2.0 * mu * mu * mu
        # zero variance (single customer / all-equal balances): the
        # SQL twin's x/0.0 is NULL in DuckDB, not a crash — mirror it
        sk = None if m2 == 0.0 else round(m3 / m2 ** 1.5, 6)
        rows.append({"c_nationkey": int(r["c_nationkey"]),
                     "n_customers": int(r["n"]),
                     "skewness": sk})
    return pd.DataFrame(rows).astype({"c_nationkey": np.int64,
                                      "n_customers": np.int64})


SQL_SKEWNESS = """
WITH x AS (SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
                  CAST(ROUND(c_acctbal * 100) AS BIGINT) AS v
           FROM customer),
s AS (SELECT c_nationkey, CAST(COUNT(*) AS BIGINT) AS n,
             SUM(CAST(v AS HUGEINT)) AS s1,
             SUM(CAST(v AS HUGEINT) * v) AS s2,
             SUM(CAST(v AS HUGEINT) * v * v) AS s3
      FROM x GROUP BY 1)
SELECT c_nationkey, n AS n_customers,
       ROUND((CAST(s3 AS DOUBLE) / n
              - 3.0 * (CAST(s1 AS DOUBLE) / n)
                * (CAST(s2 AS DOUBLE) / n)
              + 2.0 * (CAST(s1 AS DOUBLE) / n)
                * (CAST(s1 AS DOUBLE) / n)
                * (CAST(s1 AS DOUBLE) / n))
             / POWER(CAST(s2 AS DOUBLE) / n
                     - (CAST(s1 AS DOUBLE) / n)
                       * (CAST(s1 AS DOUBLE) / n), 1.5), 6)
         AS skewness
FROM s ORDER BY c_nationkey
"""


def q_border_distance_nation(sf_dir: str):
    """Geo QC: per nation, the mean distance from its customer points
    to the nearest nation border — edge-hugging points flag geocoding
    snap artifacts.  The 5×5 rect grid makes the border distance PURE
    ARITHMETIC (min of the four edge offsets inside the containing
    cell — no polygon join at all), and half-open-cell placement makes
    every distance an exact half-integer: doubled distances are ints,
    so the sums are exact and only the final mean divides."""
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_custkey"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        px2 = (k * 7919) % 1000 * 2 + 1        # doubled coords: ints
        py2 = (k * 104729) % 1000 * 2 + 1
        cx2 = px2 // 400 * 400                 # cell origin, doubled
        cy2 = py2 // 400 * 400
        nation = (py2 // 400) * 5 + (px2 // 400)
        d2 = np.minimum.reduce([px2 - cx2, cx2 + 400 - px2,
                                py2 - cy2, cy2 + 400 - py2])
        g = pd.DataFrame({"n_nationkey": nation, "pd2": d2, "pn": 1}) \
            .groupby("n_nationkey", sort=False) \
            .agg(pd2=("pd2", "sum"), pn=("pn", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby("n_nationkey").aggregate(Sum("pd2", alias_name="s2"),
                                          Sum("pn", alias_name="n"))
    ).to_pandas().sort_values("n_nationkey").reset_index(drop=True)
    return pd.DataFrame({
        "n_nationkey": agg["n_nationkey"].to_numpy(np.int64),
        "n_points": agg["n"].to_numpy(np.int64),
        "mean_border_dist": np.round(
            agg["s2"].to_numpy(np.float64)
            / agg["n"].to_numpy(np.float64) / 2.0, 4)})


SQL_BORDER_DIST = """
WITH p AS (SELECT (c_custkey * 7919) % 1000 * 2 + 1 AS px2,
                  (c_custkey * 104729) % 1000 * 2 + 1 AS py2
           FROM customer),
c AS (SELECT px2, py2, px2 // 400 * 400 AS cx2, py2 // 400 * 400 AS cy2,
             (py2 // 400) * 5 + (px2 // 400) AS n_nationkey
      FROM p),
d AS (SELECT n_nationkey,
             LEAST(px2 - cx2, cx2 + 400 - px2,
                   py2 - cy2, cy2 + 400 - py2) AS d2
      FROM c)
SELECT n_nationkey, CAST(COUNT(*) AS BIGINT) AS n_points,
       ROUND(CAST(SUM(d2) AS DOUBLE) / COUNT(*) / 2.0, 4)
         AS mean_border_dist
FROM d GROUP BY 1 ORDER BY 1
"""


def q_target_encoding_loo(sf_dir: str):
    """Leave-one-out target encoding of c_nationkey against the
    positive-balance label — the ML-prep categorical encoder that
    avoids self-leakage: te_i = (pos_g − y_i) / (n_g − 1).  Per-batch
    partials → 25-row stats groupby → broadcast dict → one streaming
    encode pass; exact integers until the single division (NULL for
    singleton groups, matching SQL's x/0)."""
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey",
                                      "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        y = (t["c_acctbal"].to_numpy(zero_copy_only=False) > 0) \
            .astype(np.int64)
        g = pd.DataFrame({"c_nationkey": nk, "ppos": y, "pn": 1}) \
            .groupby("c_nationkey", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    stats = relational.ds_to_table(
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby("c_nationkey").aggregate(Sum("ppos", alias_name="pos"),
                                          Sum("pn", alias_name="n"))
    ).to_pandas()
    pos_map = dict(zip(stats["c_nationkey"].astype(np.int64),
                       stats["pos"].astype(np.int64)))
    n_map = dict(zip(stats["c_nationkey"].astype(np.int64),
                     stats["n"].astype(np.int64)))

    def encode(t: pa.Table) -> pa.Table:
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        y = (t["c_acctbal"].to_numpy(zero_copy_only=False) > 0) \
            .astype(np.int64)
        pos = np.array([pos_map[x] for x in nk], dtype=np.int64)
        n = np.array([n_map[x] for x in nk], dtype=np.int64)
        ok = n > 1
        te = np.where(ok, np.round(
            (pos - y).astype(np.float64)
            / np.where(ok, n - 1, 1).astype(np.float64), 6), 0.0)
        return pa.table({"c_custkey": t["c_custkey"],
                         "te": pa.array(te, mask=~ok)})

    out = cust.map_batches(encode, batch_format="pyarrow")
    return relational.ds_to_table(out).to_pandas() \
        .sort_values("c_custkey").reset_index(drop=True)


SQL_TARGET_ENC = """
SELECT c_custkey,
       ROUND(CAST(SUM(y) OVER w - y AS DOUBLE)
             / (COUNT(*) OVER w - 1), 6) AS te
FROM (SELECT c_custkey, c_nationkey,
             CASE WHEN c_acctbal > 0 THEN 1 ELSE 0 END AS y
      FROM customer)
WINDOW w AS (PARTITION BY c_nationkey)
ORDER BY c_custkey
"""


def q_percent_rank_acctbal(sf_dir: str):
    """Per-customer PERCENT_RANK of account balance within its nation —
    the window-function rank normalized to [0, 1]: (rank−1)/(n−1) with
    min-rank ties.  Nation is a natural ≤25-way partition key, so the
    shape is ONE small groupby with a per-nation vectorized searchsorted
    rank — no broadcast CDF, no driver loop."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey",
                                      "c_acctbal"])

    def per_nation(g: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(g["c_acctbal"].to_numpy(np.float64)
                         * 100.0).astype(np.int64)
        sc = np.sort(cents)
        rank = np.searchsorted(sc, cents, side="left") + 1
        n = len(g)
        pr = np.zeros(n, dtype=np.float64) if n == 1 else \
            (rank - 1).astype(np.float64) / float(n - 1)
        return pd.DataFrame({"c_custkey": g["c_custkey"].to_numpy(),
                             "pr": np.round(pr, 6)})

    out = cust.groupby("c_nationkey").map_groups(
        per_nation, batch_format="pandas")
    return relational.ds_to_table(out).to_pandas() \
        .sort_values("c_custkey").reset_index(drop=True)


SQL_PERCENT_RANK = """
SELECT c_custkey,
       ROUND(PERCENT_RANK() OVER (
           PARTITION BY c_nationkey
           ORDER BY CAST(ROUND(c_acctbal * 100) AS BIGINT)), 6) AS pr
FROM customer ORDER BY c_custkey
"""


def q_grouped_percentile_cont(sf_dir: str):
    """Per-nation continuous-interpolation quartiles of account balance
    — grouped ``quantile_cont`` semantics.  The distribution table
    (nation, cents) is bounded by the VALUE DOMAIN × 25 nations, never
    by the row count; the per-nation exact (n−1)·q rank/remainder
    finish runs inside a 25-group map_groups, not on the driver."""
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cents = np.round(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"c_nationkey": nk, "v": cents, "pn": 1}) \
            .groupby(["c_nationkey", "v"], sort=False).sum() \
            .reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    dist = cust.map_batches(partial, batch_format="pyarrow") \
        .groupby(["c_nationkey", "v"]).aggregate(
            Sum("pn", alias_name="c"))

    def per_nation(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("v")
        cum = np.cumsum(g["c"].to_numpy(np.int64))
        v = g["v"].to_numpy(np.int64)
        n = int(cum[-1])
        row = {"c_nationkey": int(g["c_nationkey"].iloc[0])}
        for name, k in (("p25", 25), ("p50", 50), ("p75", 75)):
            h_lo, rem = divmod((n - 1) * k, 100)
            lo_c = int(v[np.searchsorted(cum, h_lo + 1, side="left")])
            hi_c = lo_c if rem == 0 else \
                int(v[np.searchsorted(cum, h_lo + 2, side="left")])
            row[name] = round(
                (lo_c + (rem / 100.0) * (hi_c - lo_c)) / 100.0, 6)
        return pd.DataFrame([row])

    out = dist.groupby("c_nationkey").map_groups(
        per_nation, batch_format="pandas")
    return relational.ds_to_table(out).to_pandas() \
        .sort_values("c_nationkey").reset_index(drop=True) \
        .astype({"c_nationkey": np.int64})


SQL_GROUPED_PCTL = """
SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
       ROUND(quantile_cont(c_acctbal, 0.25), 6) AS p25,
       ROUND(quantile_cont(c_acctbal, 0.50), 6) AS p50,
       ROUND(quantile_cont(c_acctbal, 0.75), 6) AS p75
FROM customer GROUP BY 1 ORDER BY 1
"""


def q_cume_dist_acctbal(sf_dir: str):
    """CUME_DIST within nation — the ≤-fraction sibling of
    PERCENT_RANK: cd = |{rows with value ≤ v}| / n, max-rank ties.
    Same natural ≤25-way partition shape: per-nation vectorized
    searchsorted(side='right'), one division mirrored against SQL."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey",
                                      "c_acctbal"])

    def per_nation(g: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(g["c_acctbal"].to_numpy(np.float64)
                         * 100.0).astype(np.int64)
        sc = np.sort(cents)
        le = np.searchsorted(sc, cents, side="right")
        cd = le.astype(np.float64) / float(len(g))
        return pd.DataFrame({"c_custkey": g["c_custkey"].to_numpy(),
                             "cd": np.round(cd, 6)})

    out = cust.groupby("c_nationkey").map_groups(
        per_nation, batch_format="pandas")
    return relational.ds_to_table(out).to_pandas() \
        .sort_values("c_custkey").reset_index(drop=True)


SQL_CUME_DIST = """
SELECT c_custkey,
       ROUND(CUME_DIST() OVER (
           PARTITION BY c_nationkey
           ORDER BY CAST(ROUND(c_acctbal * 100) AS BIGINT)), 6) AS cd
FROM customer ORDER BY c_custkey
"""


def q_median_order_by_segment(sf_dir: str):
    """Exact median order value per market segment — the join ×
    grouped-quantile combination: the (custkey→segment) dim side
    attaches via a broadcast map, per-(segment, cents) distribution
    reduces once, and each segment's lower median reads off the shared
    ``exact_quantile_idx`` integer rule (K=2) inside a 5-group
    map_groups.  SQL twin uses quantile_disc(0.5) — the same
    lower-median convention."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = relational.ds_to_table(
        _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]))
    seg_series = pd.Series(
        cust["c_mktsegment"].to_pylist(),
        index=cust["c_custkey"].to_numpy(
            zero_copy_only=False).astype(np.int64))
    import ray
    ref = ray.put(seg_series)

    def partial(t: pa.Table) -> pa.Table:
        from ...stages.relational import worker_cached
        m = worker_cached(("seg_of", ref), lambda: ray.get(ref))
        c = t["o_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        # vectorized reindex attach (no per-row dict lookups); an
        # orphan custkey reindexes to NaN and drops — the SQL twin's
        # inner-join semantics, not a KeyError
        seg = m.reindex(c).to_numpy()
        ok = pd.notna(seg)
        g = pd.DataFrame({"seg": seg[ok], "v": cents[ok], "pn": 1}) \
            .groupby(["seg", "v"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    dist = orders.map_batches(partial, batch_format="pyarrow") \
        .groupby(["seg", "v"]).aggregate(Sum("pn", alias_name="c"))

    def per_seg(g: pd.DataFrame) -> pd.DataFrame:
        from ...stages.relational import exact_quantile_idx
        g = g.sort_values("v")
        cum = np.cumsum(g["c"].to_numpy(np.int64))
        i = exact_quantile_idx(cum, 1, 2)
        return pd.DataFrame([{
            "c_mktsegment": g["seg"].iloc[0],
            "n_orders": int(cum[-1]),
            "median_c": int(g["v"].to_numpy(np.int64)[i])}])

    out = dist.groupby("seg").map_groups(per_seg,
                                         batch_format="pandas")
    return relational.ds_to_table(out).to_pandas() \
        .sort_values("c_mktsegment").reset_index(drop=True) \
        .astype({"n_orders": np.int64, "median_c": np.int64})


SQL_MEDIAN_SEGMENT = """
SELECT c_mktsegment, CAST(COUNT(*) AS BIGINT) AS n_orders,
       quantile_disc(CAST(ROUND(o_totalprice * 100) AS BIGINT), 0.5)
         AS median_c
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY 1 ORDER BY 1
"""


def q_grid_dbscan_clusters(sf_dir: str):
    """Grid-DBSCAN spatial clustering (the distributed approximation
    every geo engine ships: density per fixed cell, core cells =
    count ≥ minPts, clusters = 8-connected components of core cells):
    cell counts reduce distributedly to a GRID-bounded table, the
    component pass is a union-find on ≤ grid² nodes (driver-trivial by
    construction — the whole point of trading eps-balls for cells),
    labels are the component's min cell id.  The oracle replays the
    same integer cell arithmetic and closes connectivity with a
    recursive min-label CTE."""
    from ray.data.aggregate import Sum

    G, CELL, MINPTS = 10, 100, 3
    cust = _read(sf_dir, "customer", ["c_custkey"])

    def cells(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cx = ((k * 7919) % 1000) // CELL
        cy = ((k * 104729) % 1000) // CELL
        g = pd.DataFrame({"cell": cx * G + cy, "pn": 1}) \
            .groupby("cell", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = relational.ds_to_table(
        cust.map_batches(cells, batch_format="pyarrow")
        .groupby("cell").aggregate(Sum("pn", alias_name="n"))
    ).to_pandas()
    core = counts[counts["n"] >= MINPTS]
    cell_ids = core["cell"].to_numpy(np.int64)
    n_pts = dict(zip(cell_ids, core["n"].to_numpy(np.int64)))
    parent = {int(c): int(c) for c in cell_ids}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cset = set(parent)
    for c in cell_ids:
        cx, cy = int(c) // G, int(c) % G
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                nb = (cx + dx) * G + (cy + dy)
                if 0 <= cx + dx < G and 0 <= cy + dy < G \
                        and nb in cset:
                    ra, rb = find(int(c)), find(nb)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
    rows: dict[int, list[int]] = {}
    for c in cell_ids:
        lab = find(int(c))
        agg = rows.setdefault(lab, [0, 0])
        agg[0] += 1
        agg[1] += int(n_pts[c])
    out = pd.DataFrame(
        [{"cluster": lab, "n_cells": v[0], "n_points": v[1]}
         for lab, v in sorted(rows.items())])
    return out.astype({"cluster": np.int64, "n_cells": np.int64,
                       "n_points": np.int64})


SQL_GRID_DBSCAN = """
WITH RECURSIVE
c AS (SELECT ((c_custkey * 7919) % 1000) // 100 AS cx,
             ((c_custkey * 104729) % 1000) // 100 AS cy,
             COUNT(*) AS n
      FROM customer GROUP BY 1, 2),
core AS (SELECT cx * 10 + cy AS cell, cx, cy, n FROM c WHERE n >= 3),
e AS (SELECT a.cell AS src, b.cell AS dst
      FROM core a JOIN core b
      ON abs(a.cx - b.cx) <= 1 AND abs(a.cy - b.cy) <= 1),
reach(src, dst) AS (
  SELECT cell, cell FROM core
  UNION
  SELECT r.src, e.dst FROM reach r JOIN e ON e.src = r.dst),
lbl AS (SELECT src AS cell, MIN(dst) AS lab FROM reach GROUP BY 1)
SELECT l.lab AS cluster, CAST(COUNT(*) AS BIGINT) AS n_cells,
       CAST(SUM(core.n) AS BIGINT) AS n_points
FROM core JOIN lbl l ON core.cell = l.cell
GROUP BY 1 ORDER BY 1
"""


def q_tile_pyramid_counts(sf_dir: str):
    """Tile-pyramid rollup (the zoom-level aggregation a map-tile
    service precomputes): point counts at zoom 3/2/1 (64/16/4 morton
    cells), ALL levels derived from ONE finest-level distributed pass —
    parents are prefix truncations (z >> 2 per zoom step), so the
    rollup is a 64-row driver fold, never a rescan.  The twin
    recomputes each level's cell id arithmetically and stacks them
    with UNION ALL."""
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_custkey"])

    def finest(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = ((k * 7919) % 1000) // 125          # 3-bit x (0..7)
        y = ((k * 104729) % 1000) // 125        # 3-bit y
        z = _morton_interleave(x, y, bits=3)
        u, n = np.unique(z, return_counts=True)
        return pa.table({"z": pa.array(u),
                         "pn": pa.array(n.astype(np.int64))})

    z3 = relational.ds_to_table(
        cust.map_batches(finest, batch_format="pyarrow")
        .groupby("z").aggregate(Sum("pn", alias_name="n"))
    ).to_pandas()
    z3["n"] = z3["n"].astype(np.int64)
    frames = []
    cur = z3.rename(columns={"z": "cell"})
    for zoom in (3, 2, 1):
        g = cur.groupby("cell", sort=True)["n"].sum().reset_index()
        g.insert(0, "zoom", zoom)
        frames.append(g)
        cur = pd.DataFrame({"cell": g["cell"] // 4, "n": g["n"]})
    out = pd.concat(frames).sort_values(["zoom", "cell"]) \
        .reset_index(drop=True)
    return out.astype({"zoom": np.int64, "cell": np.int64,
                       "n": np.int64})


def _sql_tile_pyramid() -> str:
    x = "((c_custkey * 7919) % 1000) // 125"
    y = "((c_custkey * 104729) % 1000) // 125"
    z = " + ".join(f"(({x} >> {i}) & 1) * {1 << (2 * i)}"
                   f" + (({y} >> {i}) & 1) * {1 << (2 * i + 1)}"
                   for i in range(3))
    return f"""
WITH f AS (SELECT {z} AS z3 FROM customer)
SELECT 3 AS zoom, z3 AS cell, CAST(COUNT(*) AS BIGINT) AS n
FROM f GROUP BY 2
UNION ALL
SELECT 2, z3 // 4, CAST(COUNT(*) AS BIGINT) FROM f GROUP BY 2
UNION ALL
SELECT 1, z3 // 16, CAST(COUNT(*) AS BIGINT) FROM f GROUP BY 2
ORDER BY zoom, cell
"""


def q_expectations_audit(sf_dir: str):
    """Data-contract expectations suite (the Great-Expectations-style
    validation gate an ingest runs before publishing): six rules over
    orders — key uniqueness, positivity, a categorical domain, an FK
    into customer, and two business flags — each answered with ONE
    flagged-row count.  Scan rules fold per batch; uniqueness rides an
    exact key-bucket distinct (count − distinct, shuffle on hashes
    only); the FK is a size-guarded broadcast of the customer key set.
    Rules whose count is 0 prove cleanliness; the two business flags
    fire on real rows so the suite's plumbing is visibly exercised."""
    from ray.data.aggregate import Sum

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderstatus",
                    "o_totalprice", "o_orderdate"])
    cust_keys = set(relational.ds_to_table(
        _read(sf_dir, "customer", ["c_custkey"]))["c_custkey"]
        .to_pylist())
    ck_ref = ray.put(np.array(sorted(cust_keys), dtype=np.int64))
    cutoff = int(pd.Timestamp("1996-01-01").value // 1000)

    def scan(t: pa.Table) -> pa.Table:
        price = t["o_totalprice"].to_numpy(zero_copy_only=False)
        status = t["o_orderstatus"].to_numpy(zero_copy_only=False)
        ts = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keys = ray.get(ck_ref)
        pos = np.searchsorted(keys, ck)
        pos_ok = (pos < len(keys))
        fk_bad = ~pos_ok
        fk_bad[pos_ok] = keys[pos[pos_ok]] != ck[pos_ok]
        return pa.table({
            "p_nonpos": pa.array([int((price <= 0).sum())]),
            "p_status": pa.array([int(
                (~np.isin(status, ["O", "F", "P"])).sum())]),
            "p_fk": pa.array([int(fk_bad.sum())]),
            "p_50k": pa.array([int((price > 50_000.0).sum())]),
            "p_date": pa.array([int((ts < cutoff).sum())]),
            "p_n": pa.array([t.num_rows])})

    agg = orders.map_batches(scan, batch_format="pyarrow").aggregate(
        *[Sum(c, alias_name=c) for c in
          ("p_nonpos", "p_status", "p_fk", "p_50k", "p_date", "p_n")])

    def key_partial(t: pa.Table) -> pa.Table:
        u = np.unique(t["o_orderkey"].to_numpy())
        return pa.table({"k": pa.array(u)})

    # exact distinct: per-batch distinct → one hash groupby → count
    n_distinct = orders.map_batches(key_partial,
                                    batch_format="pyarrow") \
        .groupby("k").count().count()
    rows = [
        ("orderkey_unique_dup_rows", int(agg["p_n"]) - int(n_distinct)),
        ("price_nonpositive", int(agg["p_nonpos"])),
        ("status_outside_domain", int(agg["p_status"])),
        ("custkey_fk_orphans", int(agg["p_fk"])),
        ("price_above_50k", int(agg["p_50k"])),
        ("date_before_1996", int(agg["p_date"])),
    ]
    return pd.DataFrame(rows, columns=["rule", "n_flagged"]) \
        .sort_values("rule").reset_index(drop=True) \
        .astype({"n_flagged": np.int64})


SQL_EXPECTATIONS = """
WITH r AS (
  SELECT 'orderkey_unique_dup_rows' AS rule,
         COUNT(*) - COUNT(DISTINCT o_orderkey) AS n FROM orders
  UNION ALL
  SELECT 'price_nonpositive', COUNT(*) FILTER (o_totalprice <= 0)
  FROM orders
  UNION ALL
  SELECT 'status_outside_domain',
         COUNT(*) FILTER (o_orderstatus NOT IN ('O', 'F', 'P'))
  FROM orders
  UNION ALL
  SELECT 'custkey_fk_orphans', COUNT(*)
  FROM orders WHERE o_custkey NOT IN (SELECT c_custkey FROM customer)
  UNION ALL
  SELECT 'price_above_50k', COUNT(*) FILTER (o_totalprice > 50000.0)
  FROM orders
  UNION ALL
  SELECT 'date_before_1996',
         COUNT(*) FILTER (o_orderdate < TIMESTAMP '1996-01-01')
  FROM orders)
SELECT rule, CAST(n AS BIGINT) AS n_flagged FROM r ORDER BY rule
"""


def q_k_anon_generalize(sf_dir: str):
    """k-anonymity GENERALIZATION (the transform, not just the audit):
    walk a fixed coarsening ladder over the quasi-identifiers
    (nation, acctbal band) — L0 $100 bands, L1 $1000 bands, L2 synth-
    region × $1000, L3 region × sign — and publish at the FIRST level
    where every equivalence class holds ≥ 5 rows.  Each level is one
    bounded count groupby; negative balances shift before the band
    division (DuckDB // truncates toward zero where numpy floors — the
    shift keeps both sides in positive territory).  Output: chosen
    level + its class stats."""
    from ray.data.aggregate import Sum

    K = 5
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def level_stats(level: int):
        def partial(t: pa.Table) -> pa.Table:
            nk = t["c_nationkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            cents = np.round(t["c_acctbal"].to_numpy(
                zero_copy_only=False) * 100.0).astype(np.int64)
            shifted = cents + 100_000
            if level == 0:
                g1, g2 = nk, shifted // 10_000
            elif level == 1:
                g1, g2 = nk, shifted // 100_000
            elif level == 2:
                g1, g2 = nk // 5, shifted // 100_000
            else:
                g1, g2 = nk // 5, (shifted >= 100_000).astype(np.int64)
            g = pd.DataFrame({"g1": g1, "g2": g2, "pn": 1}) \
                .groupby(["g1", "g2"], sort=False).sum().reset_index()
            return pa.Table.from_pandas(g, preserve_index=False)

        t = relational.ds_to_table(
            cust.map_batches(partial, batch_format="pyarrow")
            .groupby(["g1", "g2"]).aggregate(Sum("pn",
                                                 alias_name="n"))
        ).to_pandas()
        return len(t), int(t["n"].min())

    for level in (0, 1, 2, 3):
        n_groups, min_size = level_stats(level)
        if min_size >= K:
            break
    return pd.DataFrame([{"chosen_level": level,
                          "n_groups": n_groups,
                          "min_group_size": min_size}]) \
        .astype(np.int64)


SQL_K_ANON = """
WITH c AS (SELECT c_nationkey AS nk,
                  CAST(ROUND(c_acctbal * 100) AS BIGINT) + 100000
                    AS sc
           FROM customer),
l0 AS (SELECT COUNT(*) AS gs FROM c GROUP BY nk, sc // 10000),
l1 AS (SELECT COUNT(*) AS gs FROM c GROUP BY nk, sc // 100000),
l2 AS (SELECT COUNT(*) AS gs FROM c
       GROUP BY nk // 5, sc // 100000),
l3 AS (SELECT COUNT(*) AS gs FROM c
       GROUP BY nk // 5, CASE WHEN sc >= 100000 THEN 1 ELSE 0 END),
s AS (SELECT 0 AS lvl, COUNT(*) AS n_groups, MIN(gs) AS mn FROM l0
      UNION ALL SELECT 1, COUNT(*), MIN(gs) FROM l1
      UNION ALL SELECT 2, COUNT(*), MIN(gs) FROM l2
      UNION ALL SELECT 3, COUNT(*), MIN(gs) FROM l3)
SELECT CAST(lvl AS BIGINT) AS chosen_level,
       CAST(n_groups AS BIGINT) AS n_groups,
       CAST(mn AS BIGINT) AS min_group_size
FROM s WHERE mn >= 5 OR lvl = 3
ORDER BY lvl LIMIT 1
"""


def _monotone_chain_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the strictly-convex hull (Andrew monotone chain,
    collinear points dropped) in counter-clockwise order over integer
    coordinates — exact cross products, no floats anywhere."""
    pts = np.unique(np.stack([x, y], axis=1), axis=0)
    n = len(pts)
    if n <= 2:
        return pts
    def half(p):
        out = []
        for q in p:
            while len(out) >= 2:
                ax, ay = out[-2]
                bx, by = out[-1]
                if (int(bx) - ax) * (int(q[1]) - ay) \
                        - (int(by) - ay) * (int(q[0]) - ax) <= 0:
                    out.pop()
                else:
                    break
            out.append((int(q[0]), int(q[1])))
        return out
    lower = half(pts)
    upper = half(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    return np.array(hull, dtype=np.int64)


def q_convex_hull_nations(sf_dir: str):
    """Per-nation convex hull of the customer points — the geo
    aggregate behind coverage footprints and service areas.  Hull is a
    SUPERSET-reduction like the skyline: hull(S) = hull(∪ hull(Sᵢ)),
    so each batch emits only its local hull vertices per nation and
    the exact finish runs on the candidates-bounded union (25 nations
    × O(hull) points).  Integer cross products throughout — no float
    orientation tests; doubled shoelace area stays an exact int.
    Geometry has no SQL twin; correctness is pinned by the brute-force
    hull cross-check and the all-points-inside property test."""
    from ray.data.aggregate import Sum  # noqa: F401 (symmetry)

    pts = _read(sf_dir, "customer", ["c_custkey"])

    def local(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = (k * 7919) % 1000
        y = (k * 104729) % 1000
        nat = (x // 200) + 5 * (y // 200)
        out_n, out_x, out_y = [], [], []
        for n in np.unique(nat):
            m = nat == n
            hull = _monotone_chain_hull(x[m], y[m])
            out_n.extend([int(n)] * len(hull))
            out_x.extend(hull[:, 0].tolist())
            out_y.extend(hull[:, 1].tolist())
        return pa.table({"nat": pa.array(out_n, type=pa.int64()),
                         "hx": pa.array(out_x, type=pa.int64()),
                         "hy": pa.array(out_y, type=pa.int64())})

    cand = relational.ds_to_table(
        pts.map_batches(local, batch_format="pyarrow")).to_pandas()
    rows = []
    for n, g in cand.groupby("nat"):
        hull = _monotone_chain_hull(g["hx"].to_numpy(np.int64),
                                    g["hy"].to_numpy(np.int64))
        hx, hy = hull[:, 0], hull[:, 1]
        area2 = int(np.dot(hx, np.roll(hy, -1))
                    - np.dot(hy, np.roll(hx, -1))) if len(hull) >= 3 \
            else 0
        rows.append({"n_nationkey": int(n),
                     "n_vertices": len(hull),
                     "area2": abs(area2)})
    q_convex_hull_nations._last_hulls = {
        r["n_nationkey"]: r for r in rows}
    return pd.DataFrame(rows).sort_values("n_nationkey") \
        .reset_index(drop=True).astype(np.int64)


def _customer_nn_d2(sf_dir: str) -> np.ndarray:
    """Exact nearest-OTHER-point squared distance for every synthetic
    customer point, grid-accelerated: a 3×3 cell neighborhood
    (cell = 50 units) resolves a point only when the best candidate is
    PROVABLY nearest (d ≤ cell size, so no closer point can hide
    outside the ring); the unresolved minority falls back to an exact
    pass against the full point set.  Shared kernel behind the NN
    histogram and the Clark–Evans index; the per-cell candidate index
    is grid-bounded (≤ 400 cells) and the scale path shards the 3×3
    probe by cell."""
    pts_tbl = relational.ds_to_table(
        _read(sf_dir, "customer", ["c_custkey"]).map_batches(
            lambda t: pa.table({
                "k": t["c_custkey"],
                "x": pa.array((t["c_custkey"].to_numpy(
                    zero_copy_only=False).astype(np.int64) * 7919)
                    % 1000),
                "y": pa.array((t["c_custkey"].to_numpy(
                    zero_copy_only=False).astype(np.int64) * 104729)
                    % 1000)}),
            batch_format="pyarrow"))
    allx = pts_tbl["x"].to_numpy(zero_copy_only=False)
    ally = pts_tbl["y"].to_numpy(zero_copy_only=False)
    allk = pts_tbl["k"].to_numpy(zero_copy_only=False)
    CELL = 50
    cells: dict[tuple[int, int], np.ndarray] = {}
    cid = np.stack([allx // CELL, ally // CELL], axis=1)
    for c in np.unique(cid, axis=0):
        m = (cid[:, 0] == c[0]) & (cid[:, 1] == c[1])
        cells[(int(c[0]), int(c[1]))] = np.where(m)[0]

    best = np.full(len(allx), np.iinfo(np.int64).max, dtype=np.int64)
    for i in range(len(allx)):
        cx, cy = int(allx[i]) // CELL, int(ally[i]) // CELL
        cand = np.concatenate([
            cells.get((cx + dx, cy + dy), np.empty(0, np.int64))
            for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
        cand = cand[allk[cand] != allk[i]]
        if len(cand):
            d2 = (allx[cand] - allx[i]) ** 2 \
                + (ally[cand] - ally[i]) ** 2
            best[i] = int(d2.min())
        if best[i] > CELL * CELL:            # ring can't prove it
            d2 = (allx - allx[i]) ** 2 + (ally - ally[i]) ** 2
            d2 = d2[allk != allk[i]]
            best[i] = int(d2.min())
    return best


def q_nn_distance_histogram(sf_dir: str):
    """Exact all-points nearest-neighbor distance histogram (the
    spatial-statistics primitive behind clustering diagnostics and
    Ripley-style tests): each customer point's distance to its nearest
    OTHER point, bucketed by 10 units.  Grid-accelerated exactly: a
    3×3 cell neighborhood (cell = 50 units) resolves a point only when
    the best candidate is PROVABLY nearest (d ≤ cell size, so no
    closer point can hide outside the ring); the unresolved minority
    falls back to an exact pass against the full (broadcast) point
    set.  Integer squared distances throughout; the oracle brute-
    forces the |N|² join."""
    d2 = _customer_nn_d2(sf_dir)
    bucket = (np.floor(np.sqrt(d2.astype(np.float64)))
              .astype(np.int64)) // 10
    u, n = np.unique(bucket, return_counts=True)
    return pd.DataFrame({"bucket": u.astype(np.int64),
                         "n_points": n.astype(np.int64)})


SQL_NN_HISTOGRAM = """
WITH p AS (SELECT c_custkey AS k,
                  (c_custkey * 7919) % 1000 AS x,
                  (c_custkey * 104729) % 1000 AS y
           FROM customer),
nn AS (SELECT a.k,
              MIN((a.x - b.x) * (a.x - b.x)
                  + (a.y - b.y) * (a.y - b.y)) AS d2
       FROM p a JOIN p b ON a.k <> b.k GROUP BY a.k)
SELECT CAST(FLOOR(SQRT(CAST(d2 AS DOUBLE))) AS BIGINT) // 10
         AS bucket,
       CAST(COUNT(*) AS BIGINT) AS n_points
FROM nn GROUP BY 1 ORDER BY 1
"""


def q_dp_noisy_counts(sf_dir: str):
    """Differentially-private count release (Laplace mechanism,
    ε = 1): per-nation customer counts plus Laplace(1/ε) noise drawn
    by INVERSE-CDF from the nation's own golden-ratio hash uniform —
    fully deterministic, so the release is reproducible and the twin
    reproduces it bit-for-bit (the repo's no-RNG-state convention,
    same as the weighted sampler).  True counts never leave in the
    output; the noise formula −b·sign(u−½)·ln(1−2|u−½|) is mirrored
    verbatim."""
    from ray.data.aggregate import Sum

    cust = _read(sf_dir, "customer", ["c_nationkey"])

    def partial(t: pa.Table) -> pa.Table:
        u, n = np.unique(t["c_nationkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            return_counts=True)
        return pa.table({"nk": pa.array(u),
                         "pn": pa.array(n.astype(np.int64))})

    agg = relational.ds_to_table(
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby("nk").aggregate(Sum("pn", alias_name="n"))
    ).to_pandas()
    nk = agg["nk"].to_numpy(np.int64)
    n = agg["n"].to_numpy(np.int64)
    with np.errstate(over="ignore"):
        hv = (nk.astype(np.uint64) + np.uint64(1)) \
            * np.uint64(11400714819323198485)
    u = hv.astype(np.float64) / 18446744073709551616.0
    sign = np.where(u >= 0.5, 1.0, -1.0)
    noise = -1.0 * sign * np.log(1.0 - 2.0 * np.abs(u - 0.5))
    out = pd.DataFrame({"n_nationkey": nk,
                        "noisy_count": np.round(n + noise, 4)})
    return out.sort_values("n_nationkey").reset_index(drop=True) \
        .astype({"n_nationkey": np.int64})


SQL_DP_COUNTS = """
WITH c AS (SELECT c_nationkey AS nk, COUNT(*) AS n
           FROM customer GROUP BY 1),
h AS (SELECT nk, n,
             CAST(((CAST(nk + 1 AS HUGEINT) * 11400714819323198485)
                   % 18446744073709551616) AS DOUBLE)
               / 18446744073709551616.0 AS u
      FROM c)
SELECT nk AS n_nationkey,
       ROUND(n + (-1.0) * (CASE WHEN u >= 0.5 THEN 1.0 ELSE -1.0 END)
                 * ln(1.0 - 2.0 * abs(u - 0.5)), 4) AS noisy_count
FROM h ORDER BY nk
"""


def q_occupied_cell_perimeter(sf_dir: str):
    """Raster morphology: per-nation boundary length of the OCCUPIED
    cell region (10-unit cells inside each nation's 200×200 rect) —
    the erosion-boundary measure behind coverage and coastline
    statistics.  Perimeter = 4·cells − 2·within-nation 4-adjacent
    pairs, all from one distributed (nation, cell) count reduce
    (grid-bounded: ≤ 25 × 400 rows); set arithmetic on the driver."""
    from ray.data.aggregate import Sum

    cust = _read(sf_dir, "customer", ["c_custkey"])

    def cells(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = (k * 7919) % 1000
        y = (k * 104729) % 1000
        nat = (x // 200) + 5 * (y // 200)
        cx, cy = x // 10, y // 10
        g = pd.DataFrame({"nat": nat, "cell": cx * 100 + cy,
                          "pn": 1}) \
            .groupby(["nat", "cell"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    occ = relational.ds_to_table(
        cust.map_batches(cells, batch_format="pyarrow")
        .groupby(["nat", "cell"]).aggregate(Sum("pn",
                                                alias_name="n"))
    ).to_pandas()
    rows = []
    for nat, g in occ.groupby("nat"):
        cs = set(g["cell"].astype(int))
        adj = 0
        for c in cs:
            cx, cy = c // 100, c % 100
            # count each pair once (right + up neighbors only)
            if (cx + 1) * 100 + cy in cs \
                    and (cx + 1) // 20 == cx // 20:
                adj += 1
            if cx * 100 + cy + 1 in cs and (cy + 1) // 20 == cy // 20:
                adj += 1
        rows.append({"n_nationkey": int(nat), "n_cells": len(cs),
                     "perimeter": 4 * len(cs) - 2 * adj})
    return pd.DataFrame(rows).sort_values("n_nationkey") \
        .reset_index(drop=True).astype(np.int64)


SQL_CELL_PERIMETER = """
WITH p AS (SELECT (c_custkey * 7919) % 1000 AS x,
                  (c_custkey * 104729) % 1000 AS y
           FROM customer),
o AS (SELECT DISTINCT (x // 200) + 5 * (y // 200) AS nat,
                      x // 10 AS cx, y // 10 AS cy
      FROM p),
n AS (SELECT nat, CAST(COUNT(*) AS BIGINT) AS n_cells FROM o
      GROUP BY 1),
a AS (SELECT o.nat, CAST(COUNT(*) AS BIGINT) AS n_adj
      FROM o JOIN o q
        ON o.nat = q.nat
       AND ((q.cx = o.cx + 1 AND q.cy = o.cy
             AND q.cx // 20 = o.cx // 20)
            OR (q.cx = o.cx AND q.cy = o.cy + 1
                AND q.cy // 20 = o.cy // 20))
      GROUP BY 1)
SELECT n.nat AS n_nationkey, n.n_cells,
       4 * n.n_cells - 2 * COALESCE(a.n_adj, 0) AS perimeter
FROM n LEFT JOIN a ON a.nat = n.nat
ORDER BY n_nationkey
"""


def q_anti_join_null_semantics(sf_dir: str):
    """The NOT IN / NOT EXISTS null trap as an executable contract:
    against a key list that CONTAINS A NULL (negative-balance
    customers ∪ {NULL}), NOT EXISTS returns the true anti-join while
    NOT IN returns ZERO rows (three-valued logic: x <> NULL is
    unknown, so no row ever passes).  The engine implements both
    semantics explicitly — the broadcast anti-set for NOT EXISTS, the
    SQL null rule for NOT IN — and the twin executes the literal SQL,
    so an engine that silently treats them alike breaks the hash."""
    from ray.data.aggregate import Sum

    neg = relational.ds_to_table(
        _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
        .filter(expr="c_acctbal < 0")
        .map_batches(lambda t: t.select(["c_custkey"]),
                     batch_format="pyarrow"))
    neg_keys = np.sort(neg["c_custkey"].to_numpy(
        zero_copy_only=False).astype(np.int64))
    keys_ref = ray.put(neg_keys)
    orders = _read(sf_dir, "orders", ["o_custkey"])

    def count_not_exists(t: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pos = np.searchsorted(ks, ck)
        hit = pos < len(ks)
        hit[hit] = ks[pos[hit]] == ck[hit]
        return pa.table({"pn": pa.array([int((~hit).sum())])})

    n_ne = int(orders.map_batches(count_not_exists,
                                  batch_format="pyarrow")
               .aggregate(Sum("pn", alias_name="n"))["n"])
    # NOT IN against a list containing NULL: three-valued logic makes
    # every membership test UNKNOWN-or-TRUE, never TRUE for the NOT —
    # zero rows by rule, no scan needed (the list provably has a NULL)
    n_ni = 0
    return pd.DataFrame([
        {"semantics": "not_exists", "n_rows": n_ne},
        {"semantics": "not_in_with_null", "n_rows": n_ni}]) \
        .astype({"n_rows": np.int64})


SQL_ANTI_NULL = """
WITH keys AS (SELECT c_custkey FROM customer WHERE c_acctbal < 0
              UNION ALL SELECT NULL)
SELECT 'not_exists' AS semantics,
       CAST(COUNT(*) AS BIGINT) AS n_rows
FROM orders o
WHERE NOT EXISTS (SELECT 1 FROM keys k
                  WHERE k.c_custkey = o.o_custkey)
UNION ALL
SELECT 'not_in_with_null', CAST(COUNT(*) AS BIGINT)
FROM orders WHERE o_custkey NOT IN (SELECT c_custkey FROM keys)
ORDER BY semantics
"""


def q_morans_i_nation_revenue(sf_dir: str):
    """Moran's I spatial autocorrelation of nation revenue on the 5×5
    nation grid (rook adjacency) — THE do-rich-nations-border-rich-
    nations statistic.  Revenue reduces through one bucketed
    customer⋈orders join with per-bucket cents pre-aggregation; the
    25-node finish uses the scale-cancelling identity
    I = (n/S₀)·Σw(nxᵢ−S)(nxⱼ−S) / Σ(nxᵢ−S)² with arbitrary-precision
    INTEGER numerator and denominator — no float enters until the one
    mirrored division, so SQL's unordered SUM cannot drift the hash."""
    from ray.data.aggregate import Sum

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda t: pa.table({
            "o_custkey": t["c_custkey"],
            "nk": t["c_nationkey"].cast(pa.int64())}),
            batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def combine(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"nk": t["nk"].to_numpy(
            zero_copy_only=False), "pc_": cents}) \
            .groupby("nk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        relational.bucketed_hash_join(orders, cust, on="o_custkey",
                                      combine=combine)
        .groupby("nk").aggregate(Sum("pc_", alias_name="cents"))
    ).to_pandas()
    x = {int(r.nk): int(r.cents) for r in agg.itertuples()}
    xs = [x.get(nk, 0) for nk in range(25)]
    n = 25
    S = sum(xs)
    dev = [n * v - S for v in xs]          # exact ints, scale cancels
    edges = []
    for nk in range(25):
        c, r = nk % 5, nk // 5
        if c + 1 < 5:
            edges.append((nk, nk + 1))
        if r + 1 < 5:
            edges.append((nk, nk + 5))
    s0 = 2 * len(edges)                    # symmetric weight sum
    num = sum(dev[a] * dev[b] for a, b in edges) * 2
    den = sum(d * d for d in dev)
    morans_i = float(n * num) / float(s0 * den)
    return pd.DataFrame([{"n_nations": n, "s0": s0,
                          "morans_i": np.round(morans_i, 6)}]) \
        .astype({"n_nations": np.int64, "s0": np.int64})


SQL_MORANS_I = """
WITH rev AS (SELECT c_nationkey AS nk,
                    SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                      AS cents
             FROM orders JOIN customer ON o_custkey = c_custkey
             GROUP BY 1),
grid AS (SELECT nk, COALESCE(rev.cents, 0) AS x
         FROM (SELECT unnest(generate_series(0, 24)) AS nk)
         LEFT JOIN rev USING (nk)),
s AS (SELECT SUM(x) AS sx FROM grid),
d AS (SELECT nk, 25 * x - s.sx AS dev FROM grid, s),
e AS (SELECT a.dev AS da, b.dev AS db
      FROM d a JOIN d b
        ON (b.nk = a.nk + 1 AND a.nk % 5 < 4)
        OR (b.nk = a.nk + 5 AND a.nk // 5 < 4)),
agg AS (SELECT (SELECT 2 * COUNT(*) FROM e) AS s0,
               (SELECT 2 * SUM(da * db) FROM e) AS num,
               (SELECT SUM(dev * dev) FROM d) AS den)
SELECT CAST(25 AS BIGINT) AS n_nations, CAST(s0 AS BIGINT) AS s0,
       ROUND(CAST(25 * num AS DOUBLE) / CAST(s0 * den AS DOUBLE), 6)
         AS morans_i
FROM agg
"""


def q_tsp_nn_tour(sf_dir: str):
    """Nearest-neighbor TSP tour per nation — the routing baseline a
    delivery planner starts from: from each nation's min-key point,
    repeatedly hop to the nearest unvisited point (ties to the smaller
    key), then close the loop.  Per-nation work is bounded by the
    nation's point count (O(k²) vectorized hops); nations run in
    parallel via one grid-bucket shuffle.  An iterative heuristic has
    no SQL twin — correctness is pinned by the unit-square golden and
    the tour ≥ 2·diameter lower bound."""
    ns = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda b: _points_batch(b, "c_custkey"),
        batch_format="pyarrow")

    def tag(t: pa.Table) -> pa.Table:
        x = t["px"].to_numpy(zero_copy_only=False)
        y = t["py"].to_numpy(zero_copy_only=False)
        nat = (x // 200).astype(np.int64) \
            + 5 * (y // 200).astype(np.int64)
        return pa.table({"k": t["c_custkey"], "x": t["px"],
                         "y": t["py"], "nat": pa.array(nat)})

    def per_nation(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("k")
        x = g["x"].to_numpy(np.float64)
        y = g["y"].to_numpy(np.float64)
        n = len(g)
        if n == 1:
            return pd.DataFrame([{"n_nationkey": int(g["nat"].iloc[0]),
                                  "n_points": 1, "tour_len": 0.0}])
        visited = np.zeros(n, dtype=bool)
        cur = 0                              # min-key start
        visited[0] = True
        total = 0.0
        for _ in range(n - 1):
            d2 = (x - x[cur]) ** 2 + (y - y[cur]) ** 2
            d2[visited] = np.inf
            nxt = int(np.argmin(d2))         # ties → smallest index
            total += float(np.sqrt(d2[nxt]))
            visited[nxt] = True
            cur = nxt
        total += float(np.hypot(x[cur] - x[0], y[cur] - y[0]))
        return pd.DataFrame([{"n_nationkey": int(g["nat"].iloc[0]),
                              "n_points": n,
                              "tour_len": round(total, 4)}])

    out = relational.ds_to_table(
        ns.map_batches(tag, batch_format="pyarrow")
        .groupby("nat").map_groups(per_nation, batch_format="pandas")
    ).to_pandas().sort_values("n_nationkey").reset_index(drop=True)
    return out.astype({"n_nationkey": np.int64,
                       "n_points": np.int64})


def q_l_diversity_audit(sf_dir: str):
    """l-diversity audit — the privacy check k-anonymity misses: a
    quasi-identifier class can be k-large yet expose everyone in it if
    the SENSITIVE attribute (mktsegment) is homogeneous.  Classes are
    (nation, $1000 balance band); the band uses the shift-then-divide
    trick ((cents + 1 000 000) // 100 000) so numpy floor division and
    SQL // agree on negative balances.  One (class × segment)-bounded
    count reduce; per class the distinct-sensitive count and the l ≥ 3
    verdict are exact ints."""
    from ray.data.aggregate import Sum

    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal",
                                      "c_mktsegment"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        band = (cents + 1_000_000) // 100_000
        g = pd.DataFrame({
            "nation": t["c_nationkey"].to_numpy(
                zero_copy_only=False).astype(np.int64),
            "band": band,
            "seg": t["c_mktsegment"].to_numpy(zero_copy_only=False),
            "n": 1}).groupby(["nation", "band", "seg"],
                             sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cnt = relational.ds_to_table(
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby(["nation", "band", "seg"]).aggregate(
            Sum("n", alias_name="n"))
    ).to_pandas()
    cls = cnt.groupby(["nation", "band"]) \
        .agg(n_rows=("n", "sum"), l_count=("seg", "nunique")) \
        .reset_index().sort_values(["nation", "band"]) \
        .reset_index(drop=True)
    cls["meets_l3"] = (cls["l_count"] >= 3).astype(np.int64)
    return cls.astype({"nation": np.int64, "band": np.int64,
                       "n_rows": np.int64, "l_count": np.int64})


SQL_L_DIVERSITY = """
WITH c AS (SELECT c_nationkey AS nation,
                  (CAST(ROUND(c_acctbal * 100) AS BIGINT) + 1000000)
                    // 100000 AS band,
                  c_mktsegment AS seg
           FROM customer)
SELECT nation, band, CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(COUNT(DISTINCT seg) AS BIGINT) AS l_count,
       CAST(CASE WHEN COUNT(DISTINCT seg) >= 3 THEN 1 ELSE 0 END
            AS BIGINT) AS meets_l3
FROM c GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_lorenz_deciles_nation(sf_dir: str):
    """Lorenz concentration deciles per nation: customers ranked by
    order revenue (ties by custkey), split with SQL NTILE's
    front-loaded-remainder rule (first n%10 deciles take the extra
    row — the arithmetic pinned by the RFM op), exact cents per
    decile, share = the one mirrored division.  One bucketed
    orders⋈customer join with per-bucket custkey pre-aggregation,
    then a nation-bucket shuffle where each nation's decile split is
    a single vectorized sort."""
    from ray.data.aggregate import Sum

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda t: pa.table({
            "o_custkey": t["c_custkey"],
            "nation": t["c_nationkey"].cast(pa.int64())}),
            batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def combine(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"ck": t["o_custkey"].to_numpy(
            zero_copy_only=False), "nation": t["nation"].to_numpy(
            zero_copy_only=False), "cents": cents}) \
            .groupby(["ck", "nation"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    rc = relational.bucketed_hash_join(orders, cust, on="o_custkey",
                                       combine=combine) \
        .groupby(["ck", "nation"]).aggregate(Sum("cents",
                                                 alias_name="cents"))

    def deciles(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cents", "ck"]).reset_index(drop=True)
        n = len(g)
        q, r = divmod(n, 10)
        sizes = [q + 1] * r + [q] * (10 - r)   # NTILE front-loading
        dec = np.repeat(np.arange(1, 11), sizes)
        tot = int(g["cents"].sum())
        out = g.assign(decile=dec).groupby("decile") \
            .agg(n_cust=("ck", "size"), cents=("cents", "sum")) \
            .reset_index()
        out = out[out["n_cust"] > 0]
        out["nation"] = int(g["nation"].iloc[0])
        out["share"] = np.round(
            out["cents"].astype(np.float64) / float(tot), 6)
        return out[["nation", "decile", "n_cust", "cents", "share"]]

    out = relational.ds_to_table(
        rc.groupby("nation").map_groups(deciles,
                                        batch_format="pandas")
    ).to_pandas().sort_values(["nation", "decile"]) \
        .reset_index(drop=True)
    return out.astype({"nation": np.int64, "decile": np.int64,
                       "n_cust": np.int64, "cents": np.int64})


SQL_LORENZ = """
WITH rc AS (SELECT o_custkey AS ck,
                   CAST(c_nationkey AS BIGINT) AS nation,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS cents
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY 1, 2),
d AS (SELECT nation, cents,
             NTILE(10) OVER (PARTITION BY nation
                             ORDER BY cents, ck) AS decile
      FROM rc),
t AS (SELECT nation, SUM(cents) AS tot FROM rc GROUP BY 1)
SELECT d.nation, CAST(d.decile AS BIGINT) AS decile,
       CAST(COUNT(*) AS BIGINT) AS n_cust,
       CAST(SUM(d.cents) AS BIGINT) AS cents,
       ROUND(CAST(SUM(d.cents) AS DOUBLE) / t.tot, 6) AS share
FROM d JOIN t USING (nation) GROUP BY 1, 2, t.tot ORDER BY 1, 2
"""


def q_getis_ord_hotspots(sf_dir: str):
    """Getis-Ord Gi* hotspot statistic over the 10×10 customer grid —
    THE local spatial statistic behind every 'crime/demand hotspot'
    map (Moran's I says clustering exists; Gi* says WHERE).  Cell
    counts reduce distributedly to the grid-bounded table (empties
    count as 0 over the fixed n = 100 study area); the per-cell 3×3
    neighborhood sums, W, T = Σx and SS = Σx² are exact ints, and Gi*
    is ONE mirrored float expression of them.  Hotspots flag at the
    one-sided 5 % normal critical value 1.645."""
    from ray.data.aggregate import Sum

    G, CELL = 10, 100
    cust = _read(sf_dir, "customer", ["c_custkey"])

    def cells(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cx = ((k * 7919) % 1000) // CELL
        cy = ((k * 104729) % 1000) // CELL
        g = pd.DataFrame({"cell": cx * G + cy, "pn": 1}) \
            .groupby("cell", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cnt = relational.ds_to_table(
        cust.map_batches(cells, batch_format="pyarrow")
        .groupby("cell").aggregate(Sum("pn", alias_name="c"))
    ).to_pandas()
    dense = np.zeros(G * G, dtype=np.int64)
    dense[cnt["cell"].to_numpy(np.int64)] = cnt["c"].to_numpy(np.int64)
    x = dense.reshape(G, G)
    T, SS, n = int(dense.sum()), int((dense ** 2).sum()), G * G
    rows = []
    for cx in range(G):
        for cy in range(G):
            x0, x1 = max(0, cx - 1), min(G, cx + 2)
            y0, y1 = max(0, cy - 1), min(G, cy + 2)
            sn = int(x[x0:x1, y0:y1].sum())
            w = (x1 - x0) * (y1 - y0)
            gi = (sn - w * T / 100.0) / (
                np.sqrt(SS / 100.0 - (T / 100.0) * (T / 100.0))
                * np.sqrt((100.0 * w - w * w) / 99.0))
            rows.append({"cell": cx * G + cy, "cnt": int(x[cx, cy]),
                         "w": w, "sum_nbhd": sn,
                         "gi": np.round(gi, 6),
                         "is_hotspot": bool(gi > 1.645)})
    return pd.DataFrame(rows).astype({
        "cell": np.int64, "cnt": np.int64, "w": np.int64,
        "sum_nbhd": np.int64})


SQL_GETIS_ORD = """
WITH pts AS (SELECT ((c_custkey * 7919) % 1000) // 100 AS cx,
                    ((c_custkey * 104729) % 1000) // 100 AS cy
             FROM customer),
cc AS (SELECT cx, cy, CAST(COUNT(*) AS BIGINT) AS c
       FROM pts GROUP BY 1, 2),
grid AS (SELECT gx.i AS cx, gy.i AS cy
         FROM (SELECT unnest(generate_series(0, 9)) AS i) gx,
              (SELECT unnest(generate_series(0, 9)) AS i) gy),
dense AS (SELECT g.cx, g.cy, COALESCE(cc.c, 0) AS c
          FROM grid g LEFT JOIN cc USING (cx, cy)),
tot AS (SELECT SUM(c) AS t, SUM(c * c) AS ss FROM dense),
nb AS (SELECT a.cx, a.cy, a.c,
              CAST(SUM(b.c) AS BIGINT) AS sn,
              CAST(COUNT(*) AS BIGINT) AS w
       FROM dense a JOIN dense b
         ON abs(a.cx - b.cx) <= 1 AND abs(a.cy - b.cy) <= 1
       GROUP BY 1, 2, 3)
SELECT CAST(cx * 10 + cy AS BIGINT) AS cell, c AS cnt, w,
       sn AS sum_nbhd,
       ROUND((sn - w * tot.t / 100.0)
             / (sqrt(tot.ss / 100.0 - (tot.t / 100.0) * (tot.t / 100.0))
                * sqrt((100.0 * w - w * w) / 99.0)), 6) AS gi,
       (sn - w * tot.t / 100.0)
         / (sqrt(tot.ss / 100.0 - (tot.t / 100.0) * (tot.t / 100.0))
            * sqrt((100.0 * w - w * w) / 99.0)) > 1.645 AS is_hotspot
FROM nb, tot ORDER BY cell
"""


def q_ivm_join_view_nation(sf_dir: str):
    """Incremental maintenance of a JOIN view — the step past
    aggregate-only IVM: V = Γ_nation(orders ⋈ customer) maintained as
    base-aggregate ⊕ delta-aggregate, where the 'overnight base' is
    even orderkeys and the 'morning inserts' are odd ones.  Each side
    runs its own bucketed join with per-bucket cents pre-aggregation
    (the delta leg joins ONLY the delta fact rows against the
    dimension — the whole point: maintenance cost scales with the
    delta, not the base); the merge is one exact-int add.  The oracle
    recomputes the full join, proving merge ≡ recompute."""
    from ray.data.aggregate import Sum

    import pyarrow.dataset as pads

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda t: pa.table({
            "o_custkey": t["c_custkey"],
            "nation": t["c_nationkey"].cast(pa.int64())}),
            batch_format="pyarrow")

    def leg(parity: int):
        def par(t: pa.Table) -> pa.Table:     # vectorized: Ray's
            ok = t["o_orderkey"].to_numpy(    # filter-expr can't do %
                zero_copy_only=False) % 2 == parity
            return t.filter(pa.array(ok))

        orders = _read(sf_dir, "orders",
                       ["o_orderkey", "o_custkey", "o_totalprice"]) \
            .map_batches(par, batch_format="pyarrow")

        def combine(t: pa.Table) -> pa.Table:
            cents = np.round(t["o_totalprice"].to_numpy(
                zero_copy_only=False) * 100.0).astype(np.int64)
            g = pd.DataFrame({
                "nation": t["nation"].to_numpy(zero_copy_only=False),
                "n": 1, "cents": cents}) \
                .groupby("nation", sort=False).sum().reset_index()
            return pa.Table.from_pandas(g, preserve_index=False)

        return relational.ds_to_table(
            relational.bucketed_hash_join(
                orders, cust, on="o_custkey", combine=combine)
            .groupby("nation").aggregate(
                Sum("n", alias_name="n"),
                Sum("cents", alias_name="cents"))
        ).to_pandas().set_index("nation")

    base, delta = leg(0), leg(1)
    merged = base.add(delta, fill_value=0).reset_index() \
        .sort_values("nation").reset_index(drop=True)
    return merged.astype({"nation": np.int64, "n": np.int64,
                          "cents": np.int64})


SQL_IVM_JOIN = """
SELECT CAST(c_nationkey AS BIGINT) AS nation,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
         AS cents
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY 1 ORDER BY 1
"""


def q_distance_band_pairs(sf_dir: str):
    """Distance-band spatial self-join: every customer-point pair
    within 15 units (the fixed-radius neighbor query behind Ripley's
    K, DBSCAN's eps-neighborhood and spatial-weights matrices),
    answered WITHOUT the |N|² join the oracle runs.  Each point is
    replicated to its 3×3 neighborhood of 15-unit grid cells (9×
    fan-out, cell edge = band radius so no qualifying pair can span
    farther); inside a cell group only HOME points pair against the
    group (h.k < other.k dedups across cells exactly once).  Work is
    Σ density² per cell, not n² — the 100-TB path just shards the
    same cell key.  Integer squared distances end to end."""
    D2 = 225
    pts = _read(sf_dir, "customer", ["c_custkey"])

    def fan_out(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = (k * 7919) % 1000
        y = (k * 104729) % 1000
        off = np.array([(dx, dy) for dx in (-1, 0, 1)
                        for dy in (-1, 0, 1)], dtype=np.int64)
        n = len(k)
        kk = np.repeat(k, 9)
        xx, yy = np.repeat(x, 9), np.repeat(y, 9)
        cx = xx // 15 + np.tile(off[:, 0], n)
        cy = yy // 15 + np.tile(off[:, 1], n)
        home = (np.tile(off[:, 0], n) == 0) \
            & (np.tile(off[:, 1], n) == 0)
        return pa.table({
            "cell": pa.array(cx * 1000 + cy),
            "k": pa.array(kk), "x": pa.array(xx), "y": pa.array(yy),
            "home": pa.array(home.astype(np.int8))})

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        hm = g[g["home"] == 1]
        if not len(hm):
            return pd.DataFrame({"k_a": pd.Series([], dtype=np.int64),
                                 "k_b": pd.Series([], dtype=np.int64),
                                 "d2": pd.Series([], dtype=np.int64)})
        hx = hm["x"].to_numpy(np.int64)
        hy = hm["y"].to_numpy(np.int64)
        hk = hm["k"].to_numpy(np.int64)
        ax = g["x"].to_numpy(np.int64)
        ay = g["y"].to_numpy(np.int64)
        ak = g["k"].to_numpy(np.int64)
        d2 = (hx[:, None] - ax[None, :]) ** 2 \
            + (hy[:, None] - ay[None, :]) ** 2
        m = (d2 <= D2) & (hk[:, None] < ak[None, :])
        i, j = np.nonzero(m)
        return pd.DataFrame({"k_a": hk[i], "k_b": ak[j],
                             "d2": d2[i, j]})

    res = relational.ds_to_table(
        pts.map_batches(fan_out, batch_format="pyarrow")
        .groupby("cell").map_groups(pairs, batch_format="pandas")
    ).to_pandas()
    return res.sort_values(["k_a", "k_b"]).reset_index(drop=True)


SQL_DISTANCE_BAND = """
WITH p AS (SELECT c_custkey AS k,
                  (c_custkey * 7919) % 1000 AS x,
                  (c_custkey * 104729) % 1000 AS y
           FROM customer)
SELECT a.k AS k_a, b.k AS k_b,
       (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y) AS d2
FROM p a JOIN p b ON a.k < b.k
WHERE (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y) <= 225
ORDER BY k_a, k_b
"""


def q_theil_index_nation(sf_dir: str):
    """Theil T inequality index of customer revenue per nation — the
    decomposable entropy-based concentration measure (unlike Gini it
    splits exactly into within/between terms, which is why national
    statistics offices report it).  Per-customer revenue folds as
    exact cents in one orders reduce; the nation finish groups ≤
    |customer|/25 rows and evaluates Σ (x/X)·ln(x·n/X) with the same
    double expression the twin uses.  T = 0 iff all customers in the
    nation earn identically."""
    from ray.data.aggregate import Sum

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": t["o_custkey"],
            "cents": pa.array(np.round(
                t["o_totalprice"].to_numpy(zero_copy_only=False)
                * 100.0).astype(np.int64))})

    per_cust = orders.map_batches(cents, batch_format="pyarrow") \
        .groupby("o_custkey").aggregate(Sum("cents",
                                            alias_name="x"))
    cust = _read_table(sf_dir, "customer",
                       ["c_custkey", "c_nationkey"])
    nk = pd.Series(cust["c_nationkey"].to_numpy(
        zero_copy_only=False).astype(np.int64),
        index=cust["c_custkey"].to_numpy(zero_copy_only=False))
    nk_ref = ray.put(nk)

    def attach(t: pa.Table) -> pa.Table:
        m = ray.get(nk_ref)
        nat = m.reindex(t["o_custkey"].to_numpy(
            zero_copy_only=False)).to_numpy()
        return pa.table({"n_nationkey": pa.array(
            nat.astype(np.int64)), "x": t["x"]})

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        x = g["x"].to_numpy(np.int64)
        n = len(x)
        xt = int(x.sum())
        xf = x.astype(np.float64)
        t = float(((xf / float(xt))
                   * np.log(xf * float(n) / float(xt))).sum())
        return pd.DataFrame({
            "n_nationkey": [int(g["n_nationkey"].iloc[0])],
            "n_customers": [n], "revenue_cents": [xt],
            "theil_t": [round(t, 6)]})

    res = relational.ds_to_table(
        per_cust.map_batches(attach, batch_format="pyarrow")
        .groupby("n_nationkey").map_groups(finish,
                                           batch_format="pandas")
    ).to_pandas()
    return res.sort_values("n_nationkey").reset_index(drop=True)


SQL_THEIL = """
WITH cr AS (SELECT o_custkey,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS x
            FROM orders GROUP BY 1),
j AS (SELECT c_nationkey AS n_nationkey, x
      FROM cr JOIN customer ON c_custkey = o_custkey),
t AS (SELECT n_nationkey, CAST(COUNT(*) AS BIGINT) AS n_customers,
             CAST(SUM(x) AS BIGINT) AS revenue_cents
      FROM j GROUP BY 1)
SELECT t.n_nationkey, n_customers, revenue_cents,
       ROUND(SUM((CAST(x AS DOUBLE) / CAST(revenue_cents AS DOUBLE))
                 * LN(CAST(x AS DOUBLE) * n_customers
                      / CAST(revenue_cents AS DOUBLE))), 6)
         AS theil_t
FROM j JOIN t USING (n_nationkey)
GROUP BY t.n_nationkey, n_customers, revenue_cents
ORDER BY 1
"""


def q_t_closeness_audit(sf_dir: str):
    """t-closeness privacy audit over the (segment, nation)
    quasi-identifier groups: ordered EMD between each group's
    account-balance band distribution and the global one — the
    post-l-diversity re-identification risk measure (a group whose
    sensitive-value distribution matches the corpus leaks nothing
    even at k=1).  Bands are exact cents integer division (0..9);
    one bounded count reduce, the ≤ |groups|·10-row EMD finish is
    driver-side."""
    from ray.data.aggregate import Sum

    cust = _read(sf_dir, "customer",
                 ["c_mktsegment", "c_nationkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        band = (cents + 100_000) // 110_000
        g = pd.DataFrame({
            "c_mktsegment": t["c_mktsegment"].to_pandas(),
            "c_nationkey": t["c_nationkey"].to_numpy(
                zero_copy_only=False).astype(np.int64),
            "band": band, "c": 1}) \
            .groupby(["c_mktsegment", "c_nationkey", "band"],
                     sort=False)["c"].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = relational.ds_to_table(
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby(["c_mktsegment", "c_nationkey", "band"])
        .aggregate(Sum("c", alias_name="c"))).to_pandas()
    qc = counts.groupby("band")["c"].sum() \
        .reindex(range(10), fill_value=0).to_numpy(np.int64)
    nt = int(qc.sum())
    cq = np.cumsum(qc).astype(np.float64) / float(nt)
    rows = []
    for (seg, nat), g in counts.groupby(
            ["c_mktsegment", "c_nationkey"]):
        p = g.set_index("band")["c"] \
            .reindex(range(10), fill_value=0).to_numpy(np.int64)
        n = int(p.sum())
        cp = np.cumsum(p).astype(np.float64) / float(n)
        rows.append({"c_mktsegment": seg,
                     "c_nationkey": int(nat), "n_rows": n,
                     "t_emd": round(float(np.abs(cp - cq).sum())
                                    / 9.0, 6)})
    return pd.DataFrame(rows).sort_values(
        ["c_mktsegment", "c_nationkey"]).reset_index(drop=True)


SQL_T_CLOSENESS = """
WITH b AS (SELECT c_mktsegment, c_nationkey,
                  (CAST(ROUND(c_acctbal * 100) AS BIGINT) + 100000)
                    // 110000 AS band
           FROM customer),
g AS (SELECT c_mktsegment, c_nationkey,
             CAST(COUNT(*) AS BIGINT) AS n
      FROM b GROUP BY 1, 2),
gb AS (SELECT c_mktsegment, c_nationkey, band, COUNT(*) AS c
       FROM b GROUP BY 1, 2, 3),
q AS (SELECT band, COUNT(*) AS qc FROM b GROUP BY 1),
tot AS (SELECT COUNT(*) AS nt FROM b),
grid AS (SELECT g.c_mktsegment, g.c_nationkey, s.band FROM g
         CROSS JOIN (SELECT UNNEST(generate_series(0, 9)) AS band) s),
f AS (SELECT grid.c_mktsegment, grid.c_nationkey, grid.band,
             COALESCE(gb.c, 0) AS c, COALESCE(q.qc, 0) AS qc
      FROM grid
      LEFT JOIN gb USING (c_mktsegment, c_nationkey, band)
      LEFT JOIN q USING (band)),
cum AS (SELECT c_mktsegment, c_nationkey, band,
               SUM(c) OVER (PARTITION BY c_mktsegment, c_nationkey
                            ORDER BY band) AS cp,
               SUM(qc) OVER (PARTITION BY c_mktsegment, c_nationkey
                             ORDER BY band) AS cq
        FROM f)
SELECT cum.c_mktsegment, CAST(cum.c_nationkey AS BIGINT)
         AS c_nationkey,
       g.n AS n_rows,
       ROUND(SUM(ABS(CAST(cp AS DOUBLE) / g.n
                     - CAST(cq AS DOUBLE) / nt)) / 9, 6) AS t_emd
FROM cum JOIN g USING (c_mktsegment, c_nationkey), tot
GROUP BY 1, 2, 3, nt ORDER BY 1, 2
"""


def q_dhondt_apportionment(sf_dir: str):
    """D'Hondt highest-averages apportionment: allocate 100 seats
    across nations proportionally to exact order-revenue cents — the
    divisor method parliaments (and pro-rata quota splitters) use,
    with its known slight large-party favour.  The revenue reduce is
    the only distributed work (orders → broadcast custkey→nation map
    → 25-row table); the quotient ranking is nations×100 rows on the
    driver, ordered by the same (rev/k DESC, nation, k) triple as the
    twin so ties can't diverge."""
    from ray.data.aggregate import Sum

    cust = _read_table(sf_dir, "customer",
                       ["c_custkey", "c_nationkey"])
    nk = pd.Series(cust["c_nationkey"].to_numpy(
        zero_copy_only=False).astype(np.int64),
        index=cust["c_custkey"].to_numpy(zero_copy_only=False))
    nk_ref = ray.put(nk)

    def attach(t: pa.Table) -> pa.Table:
        m = ray.get(nk_ref)
        nat = m.reindex(t["o_custkey"].to_numpy(
            zero_copy_only=False)).to_numpy().astype(np.int64)
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        return pa.table({"n_nationkey": pa.array(nat),
                         "cents": pa.array(cents)})

    nr = relational.ds_to_table(
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(attach, batch_format="pyarrow")
        .groupby("n_nationkey").aggregate(
            Sum("cents", alias_name="revenue_cents"))
    ).to_pandas().sort_values("n_nationkey").reset_index(drop=True)
    nat = nr["n_nationkey"].to_numpy(np.int64)
    rev = nr["revenue_cents"].to_numpy(np.int64)
    k = np.arange(1, 101, dtype=np.int64)
    q = rev[:, None].astype(np.float64) / k[None, :].astype(np.float64)
    flat = pd.DataFrame({
        "n": np.repeat(nat, 100), "k": np.tile(k, len(nat)),
        "q": q.ravel()})
    top = flat.sort_values(["q", "n", "k"],
                           ascending=[False, True, True]).head(100)
    seats = top.groupby("n").size()
    nr["seats"] = seats.reindex(nat, fill_value=0) \
        .to_numpy(np.int64)
    return nr[["n_nationkey", "revenue_cents", "seats"]]


SQL_DHONDT = """
WITH nr AS (SELECT c_nationkey AS n_nationkey,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS revenue_cents
            FROM orders JOIN customer ON c_custkey = o_custkey
            GROUP BY 1),
q AS (SELECT n_nationkey, revenue_cents,
             UNNEST(generate_series(1, 100)) AS k FROM nr),
r AS (SELECT n_nationkey, k,
             ROW_NUMBER() OVER (
               ORDER BY CAST(revenue_cents AS DOUBLE) / k DESC,
                        n_nationkey, k) AS rn
      FROM q),
s AS (SELECT n_nationkey, CAST(COUNT(*) AS BIGINT) AS seats
      FROM r WHERE rn <= 100 GROUP BY 1)
SELECT nr.n_nationkey, nr.revenue_cents,
       COALESCE(s.seats, 0) AS seats
FROM nr LEFT JOIN s USING (n_nationkey) ORDER BY 1
"""


def q_lof_outliers(sf_dir: str):
    """Local Outlier Factor (k=5) over the first 1000 customer points
    — THE density-ratio outlier score: a point is anomalous when its
    local reachability density is low relative to its neighbors',
    which flags isolated points next to tight clusters that a global
    z-score misses.  Neighborhood = exactly the 5 nearest under the
    deterministic (d2, key) order (ties broken by key, mirrored in
    the twin's ROW_NUMBER).  The kNN search runs distributed (per-
    batch vectorized distance matrix against the broadcast ≤1000-
    point set — the scale path swaps in the cell-ring index); reach
    sums are exact ints, so lrd and LOF are pure mirrored double
    expressions.  Keys capped at 1000 because coordinates repeat
    mod-1000 by construction (coincident points ⇒ infinite lrd).
    Top 20 by (rounded LOF DESC, key)."""
    import pyarrow.dataset as pads

    pts_tbl = relational.ds_to_table(_read(
        sf_dir, "customer", ["c_custkey"],
        filter=pads.field("c_custkey") <= 1000))
    allk = pts_tbl["c_custkey"].to_numpy(
        zero_copy_only=False).astype(np.int64)
    allx = (allk * 7919) % 1000
    ally = (allk * 104729) % 1000
    ref = ray.put((allk, allx, ally))

    def knn5(t: pa.Table) -> pa.Table:
        ak, ax, ay = ray.get(ref)
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x, y = (k * 7919) % 1000, (k * 104729) % 1000
        d2 = (x[:, None] - ax[None, :]) ** 2 \
            + (y[:, None] - ay[None, :]) ** 2
        comp = d2 * 2048 + ak[None, :]       # (d2, key) tiebreak
        comp[k[:, None] == ak[None, :]] = np.iinfo(np.int64).max
        idx = np.argpartition(comp, 5, axis=1)[:, :5]
        rows = np.repeat(k, 5)
        cols = ak[idx].ravel()
        dd = np.take_along_axis(d2, idx, axis=1).ravel()
        return pa.table({"ka": pa.array(rows), "kb": pa.array(cols),
                         "d2": pa.array(dd)})

    n5 = relational.ds_to_table(
        _read(sf_dir, "customer", ["c_custkey"],
              filter=pads.field("c_custkey") <= 1000)
        .map_batches(knn5, batch_format="pyarrow")).to_pandas()
    kdist = n5.groupby("ka")["d2"].max()
    n5["rd"] = np.maximum(
        kdist.reindex(n5["kb"]).to_numpy(np.int64),
        n5["d2"].to_numpy(np.int64))
    lrd = 5.0 / n5.groupby("ka")["rd"].sum().astype(np.float64)
    n5["lo"] = lrd.reindex(n5["kb"]).to_numpy()
    s = n5.groupby("ka")["lo"].sum()
    out = pd.DataFrame({
        "c_custkey": s.index.to_numpy(np.int64),
        "lof": np.round(s.to_numpy() / 5.0
                        / lrd.reindex(s.index).to_numpy(), 6)})
    return out.sort_values(["lof", "c_custkey"],
                           ascending=[False, True]).head(20) \
        .reset_index(drop=True)


SQL_LOF = """
WITH p AS (SELECT c_custkey AS k,
                  (c_custkey * 7919) % 1000 AS x,
                  (c_custkey * 104729) % 1000 AS y
           FROM customer WHERE c_custkey <= 1000),
d AS (SELECT a.k AS ka, b.k AS kb,
             (a.x - b.x) * (a.x - b.x)
               + (a.y - b.y) * (a.y - b.y) AS d2
      FROM p a JOIN p b ON a.k <> b.k),
nn AS (SELECT ka, kb, d2,
              ROW_NUMBER() OVER (PARTITION BY ka
                                 ORDER BY d2, kb) AS rn
       FROM d),
n5 AS (SELECT ka, kb, d2 FROM nn WHERE rn <= 5),
kd AS (SELECT ka, MAX(d2) AS kdist FROM n5 GROUP BY 1),
reach AS (SELECT n5.ka, n5.kb, GREATEST(kd.kdist, n5.d2) AS rd
          FROM n5 JOIN kd ON kd.ka = n5.kb),
lrd AS (SELECT ka, 5.0 / SUM(CAST(rd AS DOUBLE)) AS lrd
        FROM reach GROUP BY 1),
lof AS (SELECT n5.ka, SUM(lo.lrd) / 5.0 / lp.lrd AS lof
        FROM n5 JOIN lrd lo ON lo.ka = n5.kb
                 JOIN lrd lp ON lp.ka = n5.ka
        GROUP BY n5.ka, lp.lrd)
SELECT ka AS c_custkey, ROUND(lof, 6) AS lof
FROM lof ORDER BY ROUND(lof, 6) DESC, ka LIMIT 20
"""


def q_ripleys_k(sf_dir: str):
    """Ripley's K function at radii 5..25 over the customer points —
    the multi-scale clustering diagnostic (K̂(r) above πr² ⇒ clustered
    at that scale, below ⇒ dispersed) that generalizes the single-
    radius band join.  ONE cell-replicated pass (cell edge = max
    radius) histograms exact integer pair distances into every radius
    at once; the oracle burns the |N|² join.  K̂(r) = A·pairs/(n(n−1))
    with A the 1000×1000 frame, L̂(r) = √(K̂/π) linearizes it."""
    from ray.data.aggregate import Sum

    RMAX = _RIPLEY_RADII[-1]
    pts = _read(sf_dir, "customer", ["c_custkey"])

    def fan_out(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = (k * 7919) % 1000
        y = (k * 104729) % 1000
        off = np.array([(dx, dy) for dx in (-1, 0, 1)
                        for dy in (-1, 0, 1)], dtype=np.int64)
        n = len(k)
        kk = np.repeat(k, 9)
        xx, yy = np.repeat(x, 9), np.repeat(y, 9)
        cx = xx // RMAX + np.tile(off[:, 0], n)
        cy = yy // RMAX + np.tile(off[:, 1], n)
        home = (np.tile(off[:, 0], n) == 0) \
            & (np.tile(off[:, 1], n) == 0)
        return pa.table({
            "cell": pa.array(cx * 1000 + cy),
            "k": pa.array(kk), "x": pa.array(xx), "y": pa.array(yy),
            "home": pa.array(home.astype(np.int8))})

    def hist(g: pd.DataFrame) -> pd.DataFrame:
        hm = g[g["home"] == 1]
        if not len(hm):
            return pd.DataFrame({"r": pd.Series([], dtype=np.int64),
                                 "c": pd.Series([], dtype=np.int64)})
        hx, hy = hm["x"].to_numpy(np.int64), hm["y"].to_numpy(np.int64)
        hk = hm["k"].to_numpy(np.int64)
        ax, ay = g["x"].to_numpy(np.int64), g["y"].to_numpy(np.int64)
        ak = g["k"].to_numpy(np.int64)
        d2 = (hx[:, None] - ax[None, :]) ** 2 \
            + (hy[:, None] - ay[None, :]) ** 2
        lt = hk[:, None] < ak[None, :]
        rows = [{"r": r, "c": int(((d2 <= r * r) & lt).sum())}
                for r in _RIPLEY_RADII]
        return pd.DataFrame(rows)

    agg = relational.ds_to_table(
        pts.map_batches(fan_out, batch_format="pyarrow")
        .groupby("cell").map_groups(hist, batch_format="pandas")
        .groupby("r").aggregate(Sum("c", alias_name="c"))
    ).to_pandas().set_index("r")["c"] \
        .reindex(_RIPLEY_RADII, fill_value=0)
    n = _read(sf_dir, "customer", ["c_custkey"]).count()
    pairs = 2 * agg.to_numpy(np.int64)          # ordered pairs
    k_raw = 1000000.0 * pairs.astype(np.float64) \
        / (float(n) * (n - 1))
    return pd.DataFrame({
        "r": np.array(_RIPLEY_RADII, dtype=np.int64),
        "n_pairs": pairs,
        "k_hat": np.round(k_raw, 6),
        "l_hat": np.round(np.sqrt(k_raw / np.pi), 6)})


SQL_RIPLEYS_K = """
WITH p AS (SELECT c_custkey AS k,
                  (c_custkey * 7919) % 1000 AS x,
                  (c_custkey * 104729) % 1000 AS y
           FROM customer),
t AS (SELECT COUNT(*) AS n FROM p),
d AS (SELECT (a.x - b.x) * (a.x - b.x)
               + (a.y - b.y) * (a.y - b.y) AS d2
      FROM p a JOIN p b ON a.k <> b.k),
h AS (SELECT r, CAST(COUNT(*) FILTER (WHERE d2 <= r * r) AS BIGINT)
               AS n_pairs
      FROM d CROSS JOIN
           (SELECT UNNEST([5, 10, 15, 20, 25]) AS r) radii
      GROUP BY r)
SELECT r, n_pairs,
       ROUND(1000000.0 * n_pairs / (CAST(n AS DOUBLE) * (n - 1)), 6)
         AS k_hat,
       ROUND(SQRT(1000000.0 * n_pairs
                  / (CAST(n AS DOUBLE) * (n - 1)) / PI()), 6)
         AS l_hat
FROM h, t ORDER BY r
"""


def q_boxplot_stats_nation(sf_dir: str):
    """Five-number boxplot summary of account balance per nation —
    Q1/median/Q3 by exact cents divmod interpolation (the
    quantile_cont rule), Tukey 1.5·IQR fences, whiskers = extreme
    values INSIDE the fences, outlier count beyond them.  The
    distribution table is value-domain-bounded (nation × distinct
    cents), one reduce; fences derive from the 6-dp-ROUNDED quartiles
    on both sides so the inside/outside comparison can never sit on
    an unmirrored 1e-13 knife edge."""
    from ray.data.aggregate import Sum

    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"n_nationkey": t["c_nationkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "v": cents, "c": 1}) \
            .groupby(["n_nationkey", "v"], sort=False).sum() \
            .reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    dist = relational.ds_to_table(
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby(["n_nationkey", "v"]).aggregate(
            Sum("c", alias_name="c"))).to_pandas()
    rows = []
    for nat, g in dist.groupby("n_nationkey"):
        g = g.sort_values("v")
        v = g["v"].to_numpy(np.int64)
        cum = np.cumsum(g["c"].to_numpy(np.int64))
        n = int(cum[-1])
        q = {}
        for k in (25, 50, 75):
            h_lo, rem = divmod((n - 1) * k, 100)
            lo_c = int(v[np.searchsorted(cum, h_lo + 1, "left")])
            hi_c = lo_c if rem == 0 else \
                int(v[np.searchsorted(cum, h_lo + 2, "left")])
            q[k] = round((lo_c + (rem / 100.0) * (hi_c - lo_c))
                         / 100.0, 6)
        iqr = q[75] - q[25]
        lo_f, hi_f = q[25] - 1.5 * iqr, q[75] + 1.5 * iqr
        vd = v.astype(np.float64) / 100.0
        inside = (vd >= lo_f) & (vd <= hi_f)
        cnt = g["c"].to_numpy(np.int64)
        rows.append({
            "n_nationkey": int(nat), "n_rows": n,
            "q1": q[25], "median": q[50], "q3": q[75],
            "whisker_lo": round(float(vd[inside].min()), 6),
            "whisker_hi": round(float(vd[inside].max()), 6),
            "n_outliers": int(cnt[~inside].sum())})
    return pd.DataFrame(rows).sort_values("n_nationkey") \
        .reset_index(drop=True)


SQL_BOXPLOT = """
WITH q AS (SELECT c_nationkey AS n_nationkey,
                  CAST(COUNT(*) AS BIGINT) AS n_rows,
                  ROUND(quantile_cont(c_acctbal, 0.25), 6) AS q1,
                  ROUND(quantile_cont(c_acctbal, 0.50), 6) AS median,
                  ROUND(quantile_cont(c_acctbal, 0.75), 6) AS q3
           FROM customer GROUP BY 1),
f AS (SELECT n_nationkey, n_rows, q1, median, q3,
             q1 - 1.5 * (q3 - q1) AS lo_f,
             q3 + 1.5 * (q3 - q1) AS hi_f
      FROM q)
SELECT f.n_nationkey, f.n_rows, f.q1, f.median, f.q3,
       ROUND(MIN(c_acctbal) FILTER (
         WHERE c_acctbal >= lo_f AND c_acctbal <= hi_f), 6)
         AS whisker_lo,
       ROUND(MAX(c_acctbal) FILTER (
         WHERE c_acctbal >= lo_f AND c_acctbal <= hi_f), 6)
         AS whisker_hi,
       CAST(COUNT(*) FILTER (
         WHERE c_acctbal < lo_f OR c_acctbal > hi_f) AS BIGINT)
         AS n_outliers
FROM f JOIN customer ON c_nationkey = f.n_nationkey
GROUP BY 1, 2, 3, 4, 5 ORDER BY 1
"""


def q_point_diameter_nation(sf_dir: str):
    """Farthest point pair (diameter) of each nation's customer
    points — the bounding-extent statistic behind viewport fitting
    and cluster-spread QA.  Per nation the group computes its convex
    hull first (integer monotone chain — diameter endpoints provably
    lie on the hull) and brute-forces only the O(h²) hull pairs, not
    the O(n²) the twin burns.  Exact integer d²; ties broken by the
    twin's (d2 DESC, ka, kb) order."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def pts(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "n_nationkey": pa.array(t["c_nationkey"].to_numpy(
                zero_copy_only=False).astype(np.int64)),
            "k": pa.array(k),
            "x": pa.array((k * 7919) % 1000),
            "y": pa.array((k * 104729) % 1000)})

    def hull_diameter(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame({
                "n_nationkey": pd.Series([], dtype=np.int64),
                "ka": pd.Series([], dtype=np.int64),
                "kb": pd.Series([], dtype=np.int64),
                "d2": pd.Series([], dtype=np.int64)})
        pts_ = g[["x", "y", "k"]].drop_duplicates(["x", "y"]) \
            .sort_values(["x", "y"]).to_numpy(np.int64)

        def chain(p):                     # monotone-chain half hull
            out = []
            for row in p:
                while len(out) >= 2:
                    (x1, y1, _), (x2, y2, _) = out[-2], out[-1]
                    if (x2 - x1) * (row[1] - y1) \
                            - (y2 - y1) * (row[0] - x1) <= 0:
                        out.pop()
                    else:
                        break
                out.append(tuple(row))
            return out

        hull = chain(pts_) + chain(pts_[::-1])
        hx = np.array([h[0] for h in hull], dtype=np.int64)
        hy = np.array([h[1] for h in hull], dtype=np.int64)
        d2 = (hx[:, None] - hx[None, :]) ** 2 \
            + (hy[:, None] - hy[None, :]) ** 2
        best = int(d2.max())
        # recover ALL point pairs at the max distance, then apply the
        # twin's (ka, kb) tiebreak over the original keys
        gx = g["x"].to_numpy(np.int64)
        gy = g["y"].to_numpy(np.int64)
        gk = g["k"].to_numpy(np.int64)
        cand = []
        hi, hj = np.nonzero(d2 == best)
        for a, b in zip(hi, hj):
            ia = np.nonzero((gx == hx[a]) & (gy == hy[a]))[0]
            ib = np.nonzero((gx == hx[b]) & (gy == hy[b]))[0]
            for i in ia:
                for j in ib:
                    if gk[i] < gk[j]:
                        cand.append((int(gk[i]), int(gk[j])))
        ka, kb = min(cand)
        return pd.DataFrame({
            "n_nationkey": [int(g["n_nationkey"].iloc[0])],
            "ka": [ka], "kb": [kb], "d2": [best]})

    res = relational.ds_to_table(
        cust.map_batches(pts, batch_format="pyarrow")
        .groupby("n_nationkey").map_groups(hull_diameter,
                                           batch_format="pandas")
    ).to_pandas().sort_values("n_nationkey").reset_index(drop=True)
    res["dist"] = np.round(np.sqrt(res["d2"].astype(np.float64)), 6)
    return res


SQL_POINT_DIAMETER = """
WITH p AS (SELECT c_nationkey AS n_nationkey, c_custkey AS k,
                  (c_custkey * 7919) % 1000 AS x,
                  (c_custkey * 104729) % 1000 AS y
           FROM customer),
d AS (SELECT a.n_nationkey, a.k AS ka, b.k AS kb,
             (a.x - b.x) * (a.x - b.x)
               + (a.y - b.y) * (a.y - b.y) AS d2
      FROM p a JOIN p b
        ON a.n_nationkey = b.n_nationkey AND a.k < b.k),
r AS (SELECT n_nationkey, ka, kb, d2,
             ROW_NUMBER() OVER (PARTITION BY n_nationkey
                                ORDER BY d2 DESC, ka, kb) AS rn
      FROM d)
SELECT n_nationkey, ka, kb, d2,
       ROUND(SQRT(CAST(d2 AS DOUBLE)), 6) AS dist
FROM r WHERE rn = 1 ORDER BY n_nationkey
"""


def q_unique_prefix_lengths(sf_dir: str):
    """Shortest-unique-prefix histogram over customer names — the
    autocomplete/short-id question: how many characters until a name
    is unambiguous?  UPL(x) = min(len(x), 1 + max(lcp(prev), lcp
    (next))) over the lexicographic order, so only ADJACENT names
    matter.  Distributed without a global sort: prefix buckets (first
    15 chars) are lexicographically contiguous; a tiny per-bucket
    (min, max) pass stitches the cross-bucket edges, then each bucket
    resolves its own rows with one vectorized byte-matrix LCP."""
    from ray.data.aggregate import Max, Min, Sum

    cust = _read(sf_dir, "customer", ["c_name"])

    def tag(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_name": t["c_name"],
            "b": pc.utf8_slice_codeunits(t["c_name"], 0, 15)})

    tagged = cust.map_batches(tag, batch_format="pyarrow")
    bounds = relational.ds_to_table(
        tagged.groupby("b").aggregate(
            Min("c_name", alias_name="lo"),
            Max("c_name", alias_name="hi"))
    ).to_pandas().sort_values("b").reset_index(drop=True)

    def lcp(a: str, b: str) -> int:
        i = 0
        while i < min(len(a), len(b)) and a[i] == b[i]:
            i += 1
        return i

    ext = {}
    for i, row in bounds.iterrows():
        before = lcp(row["lo"], bounds["hi"].iloc[i - 1]) \
            if i > 0 else 0
        after = lcp(row["hi"], bounds["lo"].iloc[i + 1]) \
            if i < len(bounds) - 1 else 0
        ext[row["b"]] = (before, after)
    ext_ref = ray.put(ext)

    def upl_hist(g: pd.DataFrame) -> pd.DataFrame:
        before, after = ray.get(ext_ref)[g["b"].iloc[0]]
        names = np.sort(g["c_name"].to_numpy())
        L = max(len(s) for s in names)
        m = np.zeros((len(names), L), dtype=np.uint8)
        for i, s in enumerate(names):          # names are dimension-
            bts = s.encode()                   # scale; the corpus
            m[i, :len(bts)] = np.frombuffer(bts, dtype=np.uint8)
        lens = np.array([len(s) for s in names], dtype=np.int64)
        if len(names) > 1:
            neq = m[1:] != m[:-1]
            anyq = neq.any(axis=1)
            adj = np.where(anyq, neq.argmax(axis=1),
                           np.minimum(lens[1:], lens[:-1]))
        else:
            adj = np.zeros(0, dtype=np.int64)
        lp = np.concatenate([[before], adj])
        ln = np.concatenate([adj, [after]])
        upl = np.minimum(lens, 1 + np.maximum(lp, ln))
        u, c = np.unique(upl, return_counts=True)
        return pd.DataFrame({"upl": u.astype(np.int64),
                             "n": c.astype(np.int64)})

    res = relational.ds_to_table(
        tagged.groupby("b").map_groups(upl_hist,
                                       batch_format="pandas")
        .groupby("upl").aggregate(Sum("n", alias_name="n"))
    ).to_pandas()
    return res.sort_values("upl").reset_index(drop=True) \
        .astype({"upl": np.int64, "n": np.int64})


SQL_UNIQUE_PREFIX = """
WITH s AS (SELECT c_name,
                  LAG(c_name) OVER (ORDER BY c_name) AS pv,
                  LEAD(c_name) OVER (ORDER BY c_name) AS nx
           FROM customer),
ser AS (SELECT UNNEST(generate_series(1, 64)) AS i),
lp AS (SELECT c_name, COALESCE(MAX(i), 0) AS lp
       FROM s LEFT JOIN ser ON i <= LENGTH(c_name)
         AND pv IS NOT NULL AND substr(c_name, 1, i) = substr(pv, 1, i)
       GROUP BY c_name),
ln AS (SELECT c_name, COALESCE(MAX(i), 0) AS ln
       FROM s LEFT JOIN ser ON i <= LENGTH(c_name)
         AND nx IS NOT NULL AND substr(c_name, 1, i) = substr(nx, 1, i)
       GROUP BY c_name),
u AS (SELECT lp.c_name,
             LEAST(LENGTH(lp.c_name),
                   1 + GREATEST(lp.lp, ln.ln)) AS upl
      FROM lp JOIN ln USING (c_name))
SELECT upl, CAST(COUNT(*) AS BIGINT) AS n
FROM u GROUP BY 1 ORDER BY 1
"""


def q_sortmerge_join_nation(sf_dir: str):
    """Nation order totals through a SORT-MERGE-JOIN physical path —
    the hash join's disk-friendly sibling: both sides co-partition by
    custkey RANGE, each range sorts locally and merges with
    np.searchsorted (customer keys are unique, so the probe is one
    binary-search gather, no hash table).  Same logical result as the
    bucketed hash join ops; this registers the second physical join
    strategy an engine needs when inputs arrive pre-sorted or memory
    is tight."""
    from ray.data.aggregate import Max, Sum

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    mx = int(cust.aggregate(Max("c_custkey", alias_name="m"))["m"])
    B = mx // 63 + 1

    o = orders.map_batches(
        lambda t: pa.table({
            "k": t["o_custkey"].cast(pa.int64()),
            "cents": pa.array(np.round(
                t["o_totalprice"].to_numpy(zero_copy_only=False)
                * 100.0).astype(np.int64)),
            "side": pa.array(np.zeros(t.num_rows, dtype=np.int8))}),
        batch_format="pyarrow")
    c = cust.map_batches(
        lambda t: pa.table({
            "k": t["c_custkey"].cast(pa.int64()),
            "cents": pa.array(t["c_nationkey"].to_numpy(
                zero_copy_only=False).astype(np.int64)),
            "side": pa.array(np.ones(t.num_rows, dtype=np.int8))}),
        batch_format="pyarrow")

    def add_rng(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        return t.append_column("rng", pa.array(k // B))

    both = o.union(c).map_batches(add_rng, batch_format="pyarrow")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        co = g[g["side"] == 1].sort_values("k")
        od = g[g["side"] == 0].sort_values("k")
        ck = co["k"].to_numpy(np.int64)
        nat = co["cents"].to_numpy(np.int64)   # nationkey payload
        ok = od["k"].to_numpy(np.int64)
        cents = od["cents"].to_numpy(np.int64)
        pos = np.searchsorted(ck, ok)          # unique build keys
        if len(ck):
            pos2 = np.minimum(pos, len(ck) - 1)
            hit = (pos < len(ck)) & (ck[pos2] == ok)
        else:
            pos2 = pos
            hit = np.zeros(len(ok), dtype=bool)
        out = pd.DataFrame({"n_nationkey": nat[pos2[hit]],
                            "pn": 1, "pc_": cents[hit]})
        return out.groupby("n_nationkey", sort=False).sum() \
            .reset_index()

    res = relational.ds_to_table(
        both.groupby("rng").map_groups(merge, batch_format="pandas")
        .groupby("n_nationkey").aggregate(
            Sum("pn", alias_name="n_orders"),
            Sum("pc_", alias_name="revenue_c"))
    ).to_pandas().sort_values("n_nationkey").reset_index(drop=True)
    return res.astype({"n_nationkey": np.int64,
                       "n_orders": np.int64, "revenue_c": np.int64})


SQL_SORTMERGE_JOIN = """
SELECT c_nationkey AS n_nationkey,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS revenue_c
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY 1 ORDER BY 1
"""


def q_histogram_join_estimate(sf_dir: str):
    """Planner-style join-cardinality estimate from 64-bucket
    equi-width histograms vs the exact answer — the uniformity
    assumption every cost model starts with: |A ⋈ B| ≈ Σ_b
    n_A(b)·n_B(b)/width.  Both the two histograms and the exact
    per-key product fold in bounded reduces; the report row is
    (estimate, actual, ratio) — how wrong uniformity is on THIS key
    distribution is exactly what a learned-cardinality module would
    train on."""
    from ray.data.aggregate import Max, Sum

    orders = _read(sf_dir, "orders", ["o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey"])
    mx = int(cust.aggregate(Max("c_custkey", alias_name="m"))["m"])
    width = mx // 64 + 1

    def hist(col):
        def f(t: pa.Table) -> pa.Table:
            k = t[col].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            g = pd.DataFrame({"b": k // width, "c": 1}) \
                .groupby("b", sort=False).sum().reset_index()
            return pa.Table.from_pandas(g, preserve_index=False)
        return f

    ho = relational.ds_to_table(
        orders.map_batches(hist("o_custkey"), batch_format="pyarrow")
        .groupby("b").aggregate(Sum("c", alias_name="c"))
    ).to_pandas().set_index("b")["c"]
    hc = relational.ds_to_table(
        cust.map_batches(hist("c_custkey"), batch_format="pyarrow")
        .groupby("b").aggregate(Sum("c", alias_name="c"))
    ).to_pandas().set_index("b")["c"]
    bs = sorted(set(ho.index) | set(hc.index))
    est = float(sum(
        float(int(ho.get(b, 0)) * int(hc.get(b, 0))) / width
        for b in bs))
    # exact: customer keys unique -> actual = orders whose custkey
    # exists; membership via the broadcast sorted dimension keys
    ck = np.sort(_read_table(sf_dir, "customer", ["c_custkey"])
                 ["c_custkey"].to_numpy(zero_copy_only=False)
                 .astype(np.int64))
    ck_ref = ray.put(ck)

    def member(t: pa.Table) -> pa.Table:
        a = ray.get(ck_ref)
        k = t["o_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pos = np.searchsorted(a, k)
        pos2 = np.minimum(pos, len(a) - 1)
        hit = (pos < len(a)) & (a[pos2] == k)
        return pa.table({"c": pa.array(
            np.array([int(hit.sum())], dtype=np.int64))})

    actual = int(orders.map_batches(
        member, batch_format="pyarrow").aggregate(
        Sum("c", alias_name="c"))["c"])
    return pd.DataFrame({
        "est_rows": [round(est, 6)], "actual_rows": [actual],
        "ratio": [round(est / actual, 6)]})


SQL_HISTOGRAM_JOIN_EST = """
WITH m AS (SELECT MAX(c_custkey) // 64 + 1 AS width FROM customer),
ho AS (SELECT o_custkey // width AS b, CAST(COUNT(*) AS BIGINT)
              AS c
       FROM orders, m GROUP BY 1),
hc AS (SELECT c_custkey // width AS b, CAST(COUNT(*) AS BIGINT)
              AS c
       FROM customer, m GROUP BY 1),
e AS (SELECT SUM(CAST(ho.c * hc.c AS DOUBLE) / m.width) AS est
      FROM ho JOIN hc USING (b), m),
a AS (SELECT CAST(COUNT(*) AS BIGINT) AS actual
      FROM orders JOIN customer ON o_custkey = c_custkey)
SELECT ROUND(est, 6) AS est_rows, actual AS actual_rows,
       ROUND(est / actual, 6) AS ratio
FROM e, a
"""


def q_shift_share_nation(sf_dir: str):
    """Shift-share decomposition of each nation's revenue growth
    between the first and last order year: NATIONAL effect (the
    nation rode the overall tide), industry-MIX effect (it was
    over/under-weighted in fast segments), and COMPETITIVE effect
    (it out/under-performed within its segments) — the regional-
    economics standard for 'why did this region grow'.  Base cells
    fold as exact cents in one (nation, segment, year) reduce; the
    three effects are mirrored double expressions per cell summed
    over ≤ 5 segments."""
    from ray.data.aggregate import Sum

    cust = _read_table(sf_dir, "customer",
                       ["c_custkey", "c_nationkey", "c_mktsegment"])
    nk = pd.DataFrame({
        "nat": cust["c_nationkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
        "seg": cust["c_mktsegment"].to_pandas()},
        index=cust["c_custkey"].to_numpy(zero_copy_only=False))
    nk_ref = ray.put(nk)

    def attach(t: pa.Table) -> pa.Table:
        m = ray.get(nk_ref)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        yr = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[Y]").astype(np.int64) + 1970
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        sel = m.reindex(ck)
        g = pd.DataFrame({"nat": sel["nat"].to_numpy(np.int64),
                          "seg": sel["seg"].to_numpy(),
                          "yr": yr, "c": cents}) \
            .groupby(["nat", "seg", "yr"], sort=False).sum() \
            .reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cells = relational.ds_to_table(
        _read(sf_dir, "orders",
              ["o_custkey", "o_orderdate", "o_totalprice"])
        .map_batches(attach, batch_format="pyarrow")
        .groupby(["nat", "seg", "yr"]).aggregate(
            Sum("c", alias_name="c"))).to_pandas()
    y0, y1 = int(cells["yr"].min()), int(cells["yr"].max())
    f = pd.merge(
        cells[cells["yr"] == y0][["nat", "seg", "c"]]
        .rename(columns={"c": "r0"}),
        cells[cells["yr"] == y1][["nat", "seg", "c"]]
        .rename(columns={"c": "r1"}),
        on=["nat", "seg"], how="outer").fillna(0) \
        .astype({"r0": np.int64, "r1": np.int64})
    T0, T1 = int(f["r0"].sum()), int(f["r1"].sum())
    G = (float(T1) - T0) / T0
    sg = f.groupby("seg").agg(s0=("r0", "sum"), s1=("r1", "sum"))
    gs = {s: ((float(row["s1"]) - int(row["s0"])) / int(row["s0"])
              if int(row["s0"]) > 0 else 0.0)
          for s, row in sg.iterrows()}
    r0 = f["r0"].to_numpy(np.int64).astype(np.float64)
    r1 = f["r1"].to_numpy(np.int64).astype(np.float64)
    gsv = f["seg"].map(gs).to_numpy(np.float64)
    f["nse"] = r0 * G
    f["mix"] = r0 * (gsv - G)
    f["comp"] = (r1 - f["r0"].to_numpy(np.int64)) - r0 * gsv
    per = f.groupby("nat").agg(
        r0_cents=("r0", "sum"), r1_cents=("r1", "sum"),
        nse=("nse", "sum"), mix=("mix", "sum"),
        comp=("comp", "sum")).reset_index()
    return pd.DataFrame({
        "n_nationkey": per["nat"].astype(np.int64),
        "r0_cents": per["r0_cents"].astype(np.int64),
        "r1_cents": per["r1_cents"].astype(np.int64),
        "national": np.round(per["nse"].to_numpy() / 100.0, 2),
        "mix": np.round(per["mix"].to_numpy() / 100.0, 2),
        "competitive": np.round(per["comp"].to_numpy() / 100.0, 2),
    }).sort_values("n_nationkey").reset_index(drop=True)


SQL_SHIFT_SHARE = """
WITH cm AS (SELECT c_nationkey AS nat, c_mktsegment AS seg,
                   EXTRACT(year FROM o_orderdate) AS yr,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS c
            FROM orders JOIN customer ON c_custkey = o_custkey
            GROUP BY 1, 2, 3),
yy AS (SELECT MIN(yr) AS y0, MAX(yr) AS y1 FROM cm),
c0 AS (SELECT nat, seg, c FROM cm, yy WHERE yr = y0),
c1 AS (SELECT nat, seg, c FROM cm, yy WHERE yr = y1),
grid AS (SELECT DISTINCT nat, seg FROM
           (SELECT nat, seg FROM c0
            UNION ALL SELECT nat, seg FROM c1)),
f AS (SELECT grid.nat, grid.seg, COALESCE(c0.c, 0) AS r0,
             COALESCE(c1.c, 0) AS r1
      FROM grid LEFT JOIN c0 USING (nat, seg)
                LEFT JOIN c1 USING (nat, seg)),
t AS (SELECT CAST(SUM(r0) AS BIGINT) AS t0,
             CAST(SUM(r1) AS BIGINT) AS t1 FROM f),
sg AS (SELECT seg, CAST(SUM(r0) AS BIGINT) AS s0,
              CAST(SUM(r1) AS BIGINT) AS s1 FROM f GROUP BY 1),
gsx AS (SELECT seg, CASE WHEN s0 > 0
                         THEN (CAST(s1 AS DOUBLE) - s0) / s0
                         ELSE 0.0 END AS gs FROM sg),
per AS (SELECT f.nat,
               CAST(SUM(f.r0) AS BIGINT) AS r0_cents,
               CAST(SUM(f.r1) AS BIGINT) AS r1_cents,
               SUM(CAST(f.r0 AS DOUBLE)
                   * ((CAST(t.t1 AS DOUBLE) - t.t0) / t.t0))
                 AS nse,
               SUM(CAST(f.r0 AS DOUBLE)
                   * (gsx.gs
                      - (CAST(t.t1 AS DOUBLE) - t.t0) / t.t0))
                 AS mix,
               SUM((CAST(f.r1 AS DOUBLE) - f.r0)
                   - CAST(f.r0 AS DOUBLE) * gsx.gs) AS comp
        FROM f JOIN gsx USING (seg), t GROUP BY 1)
SELECT nat AS n_nationkey, r0_cents, r1_cents,
       ROUND(nse / 100.0, 2) AS national,
       ROUND(mix / 100.0, 2) AS mix,
       ROUND(comp / 100.0, 2) AS competitive
FROM per ORDER BY 1
"""


def q_raster_focal_smooth(sf_dir: str):
    """Raster FOCAL operation: 3×3 Gaussian-kernel (1-2-1)² smoothing
    of the 50-unit customer-density grid with zero padding — the
    map-algebra neighborhood primitive (focal mean/blur) that sits
    beside the existing rasterize and zonal ops.  The cell-count
    reduce is the only distributed work (grid is 20×20 bounded); the
    convolution is exact integer numerators over 16ths."""
    from ray.data.aggregate import Sum

    cust = _read(sf_dir, "customer", ["c_custkey"])

    def cellc(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        g = pd.DataFrame({"px": ((k * 7919) % 1000) // 50,
                          "py": ((k * 104729) % 1000) // 50,
                          "n": 1}) \
            .groupby(["px", "py"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cnt = relational.ds_to_table(
        cust.map_batches(cellc, batch_format="pyarrow")
        .groupby(["px", "py"]).aggregate(Sum("n", alias_name="n"))
    ).to_pandas()
    grid = np.zeros((20, 20), dtype=np.int64)
    grid[cnt["px"].to_numpy(np.int64),
         cnt["py"].to_numpy(np.int64)] = cnt["n"].to_numpy(np.int64)
    pad = np.pad(grid, 1)
    w = np.array([1, 2, 1], dtype=np.int64)
    num = np.zeros((20, 20), dtype=np.int64)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            num += w[dx + 1] * w[dy + 1] \
                * pad[1 + dx:21 + dx, 1 + dy:21 + dy]
    px, py = np.meshgrid(np.arange(20), np.arange(20),
                         indexing="ij")
    return pd.DataFrame({
        "px": px.ravel().astype(np.int64),
        "py": py.ravel().astype(np.int64),
        "num": num.ravel(),
        "smooth": np.round(num.ravel() / 16.0, 6)})


SQL_RASTER_FOCAL = """
WITH c AS (SELECT ((c_custkey * 7919) % 1000) // 50 AS px,
                  ((c_custkey * 104729) % 1000) // 50 AS py,
                  CAST(COUNT(*) AS BIGINT) AS n
           FROM customer GROUP BY 1, 2),
g AS (SELECT a.i AS px, b.i AS py
      FROM (SELECT UNNEST(generate_series(0, 19)) AS i) a,
           (SELECT UNNEST(generate_series(0, 19)) AS i) b),
s AS (SELECT g.px, g.py,
             CAST(COALESCE(SUM(c.n * (2 - ABS(g.px - c.px))
                                 * (2 - ABS(g.py - c.py))), 0)
                  AS BIGINT) AS num
      FROM g LEFT JOIN c ON ABS(g.px - c.px) <= 1
                        AND ABS(g.py - c.py) <= 1
      GROUP BY 1, 2)
SELECT px, py, num, ROUND(num / 16.0, 6) AS smooth
FROM s ORDER BY px, py
"""


def q_line_rasterize_dda(sf_dir: str):
    """Vector line rasterization: 100 segments (point(k) → point(k+1)
    for custkey 0..99) traced onto the 50-unit grid with an exact
    integer DDA — cell(t) = ⌊(x₀·n + Δx·t)/(50·n)⌋ for t = 0..n,
    n = max(|Δx|, |Δy|, 1), so every arithmetic step is nonnegative
    integer division and the twin's UNNEST trace visits bit-identical
    cells.  The line-draw primitive beside rasterize/focal/zonal;
    per-cell output is DISTINCT segments through the cell."""
    import pyarrow.dataset as pads
    from ray.data.aggregate import Sum

    pts = _read(sf_dir, "customer", ["c_custkey"],
                filter=pads.field("c_custkey") <= 99)

    def trace(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x0, y0 = (k * 7919) % 1000, (k * 104729) % 1000
        k1 = k + 1
        x1, y1 = (k1 * 7919) % 1000, (k1 * 104729) % 1000
        dx, dy = x1 - x0, y1 - y0
        n = np.maximum(np.maximum(np.abs(dx), np.abs(dy)), 1)
        rows = []
        for i in range(len(k)):
            tt = np.arange(n[i] + 1, dtype=np.int64)
            px = (x0[i] * n[i] + dx[i] * tt) // (50 * n[i])
            py = (y0[i] * n[i] + dy[i] * tt) // (50 * n[i])
            cells = np.unique(px * 100 + py)
            rows.append(pd.DataFrame({
                "seg": k[i], "px": cells // 100, "py": cells % 100}))
        out = pd.concat(rows) if rows else \
            pd.DataFrame({"seg": [], "px": [], "py": []})
        g = out.groupby(["px", "py"], sort=False).size() \
            .rename("pn").reset_index()
        return pa.Table.from_pandas(g.astype(np.int64),
                                    preserve_index=False)

    res = relational.ds_to_table(
        pts.map_batches(trace, batch_format="pyarrow")
        .groupby(["px", "py"]).aggregate(
            Sum("pn", alias_name="n_segments"))
    ).to_pandas().sort_values(["px", "py"]).reset_index(drop=True)
    return res.astype({"px": np.int64, "py": np.int64,
                       "n_segments": np.int64})


SQL_LINE_DDA = """
WITH s AS (SELECT c_custkey AS k,
                  (c_custkey * 7919) % 1000 AS x0,
                  (c_custkey * 104729) % 1000 AS y0,
                  ((c_custkey + 1) * 7919) % 1000 AS x1,
                  ((c_custkey + 1) * 104729) % 1000 AS y1
           FROM customer WHERE c_custkey <= 99),
d AS (SELECT k, x0, y0, x1 - x0 AS dx, y1 - y0 AS dy,
             GREATEST(ABS(x1 - x0), ABS(y1 - y0), 1) AS n
      FROM s),
ser AS (SELECT UNNEST(generate_series(0, 999)) AS t),
cells AS (SELECT DISTINCT k,
                 (x0 * n + dx * t) // (50 * n) AS px,
                 (y0 * n + dy * t) // (50 * n) AS py
          FROM d JOIN ser ON t <= n)
SELECT px, py, CAST(COUNT(*) AS BIGINT) AS n_segments
FROM cells GROUP BY 1, 2 ORDER BY 1, 2
"""


def _hexbin_assign(x: np.ndarray, y: np.ndarray):
    """Dual-lattice nearest-center binning in DOUBLED integer
    coordinates — the hexbin assignment primitive (matplotlib's
    hexbin is exactly this: two interleaved rectangular lattices,
    each point to the nearer center).  Cells are 50×86 units
    (86/50 = 1.72 ≈ √3, near-regular pointy-top hexagons); grid B is
    offset by a half cell.  Inputs are doubled coords (2·coord + 1
    for the repo's +0.5 point convention), so centers, offsets and
    squared distances are ALL exact integers — no float enters the
    assignment and ties resolve to grid A deterministically.
    Returns (grid, i, j) arrays."""
    # grid A: nearest lattice center = center of the containing cell
    ia = x // 100
    ja = y // 172
    d2a = (x - (ia * 100 + 50)) ** 2 + (y - (ja * 172 + 86)) ** 2
    # grid B: offset (+50, +86); dividends shifted nonnegative so
    # numpy floor-division and SQL // (truncation) agree
    ib = (x + 50) // 100 - 1
    jb = (y + 86) // 172 - 1
    d2b = (x - (ib * 100 + 100)) ** 2 + (y - (jb * 172 + 172)) ** 2
    use_a = d2a <= d2b
    grid = np.where(use_a, "A", "B")
    return grid, np.where(use_a, ia, ib), np.where(use_a, ja, jb)


def q_hexbin_points(sf_dir: str):
    """Hexagonal binning of the customer points: counts + exact-cents
    acctbal per hex cell under the dual-lattice nearest-center
    assignment (see ``_hexbin_assign``) — the density-surface
    primitive beside the square-grid rasterize family, preferred when
    bin-edge artifacts matter.  Embarrassingly parallel per batch;
    the (grid, i, j) cell domain is bounded, so the groupby payload
    never scales with rows."""
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = 2 * ((k * 7919) % 1000) + 1       # doubled coords: +0.5
        y = 2 * ((k * 104729) % 1000) + 1
        grid, i, j = _hexbin_assign(x, y)
        cents = np.round(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"grid": grid, "i": i, "j": j,
                          "pn": 1, "pc_": cents}) \
            .groupby(["grid", "i", "j"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    res = relational.ds_to_table(
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby(["grid", "i", "j"]).aggregate(
            Sum("pn", alias_name="n_points"),
            Sum("pc_", alias_name="cents"))
    ).to_pandas().sort_values(["grid", "i", "j"]).reset_index(drop=True)
    res["sum_acctbal"] = res["cents"].to_numpy(np.int64) / 100.0
    return res[["grid", "i", "j", "n_points", "sum_acctbal"]].astype(
        {"i": np.int64, "j": np.int64, "n_points": np.int64})


SQL_HEXBIN = """
WITH p AS (SELECT 2 * ((c_custkey * 7919) % 1000) + 1 AS x,
                  2 * ((c_custkey * 104729) % 1000) + 1 AS y,
                  CAST(ROUND(c_acctbal * 100) AS BIGINT) AS cents
           FROM customer),
d AS (SELECT x, y, cents,
             x // 100 AS ia, y // 172 AS ja,
             (x + 50) // 100 - 1 AS ib, (y + 86) // 172 - 1 AS jb
      FROM p),
e AS (SELECT cents, ia, ja, ib, jb,
             (x - (ia * 100 + 50)) * (x - (ia * 100 + 50))
               + (y - (ja * 172 + 86)) * (y - (ja * 172 + 86)) AS d2a,
             (x - (ib * 100 + 100)) * (x - (ib * 100 + 100))
               + (y - (jb * 172 + 172)) * (y - (jb * 172 + 172)) AS d2b
      FROM d),
cell AS (SELECT CASE WHEN d2a <= d2b THEN 'A' ELSE 'B' END AS grid,
                CASE WHEN d2a <= d2b THEN ia ELSE ib END AS i,
                CASE WHEN d2a <= d2b THEN ja ELSE jb END AS j,
                cents
         FROM e)
SELECT grid, CAST(i AS BIGINT) AS i, CAST(j AS BIGINT) AS j,
       CAST(COUNT(*) AS BIGINT) AS n_points,
       CAST(SUM(cents) AS BIGINT) / 100.0 AS sum_acctbal
FROM cell GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
"""


def q_idw_surface_acctbal(sf_dir: str):
    """Inverse-distance-weighted interpolation surface: predicted
    acctbal at the 25 zonal-cell centers from ALL customer points —
    the geostatistical gridding primitive (the deterministic cousin
    of kriging).  Weights are integer-quantized 10¹²//d² so numerator
    and denominator fold as EXACT integers (per-term hi/lo int64
    split survives batch summation; the SQL twin sums HUGEINT) and
    the surface value is ONE mirrored division per target.  Targets
    sit on even doubled coordinates while points sit on odd ones, so
    d² = 0 is structurally impossible — no exact-hit guard needed."""
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    ts = np.arange(5, dtype=np.int64)
    ta, tb = np.meshgrid(ts, ts, indexing="ij")
    ta, tb = ta.ravel(), tb.ravel()
    tx = 200 + 400 * ta                    # doubled coords
    ty = 200 + 400 * tb

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = 2 * ((k * 7919) % 1000) + 1
        y = 2 * ((k * 104729) % 1000) + 1
        cents = np.round(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        d2 = (x[None, :] - tx[:, None]) ** 2 \
            + (y[None, :] - ty[:, None]) ** 2          # (25, rows)
        w = 1_000_000_000_000 // d2
        num = cents[None, :] * w                       # ≤ ~5e17/term
        hi = (num >> 32).sum(axis=1)
        lo = (num & 0xFFFFFFFF).sum(axis=1)
        return pa.table({"a": pa.array(ta), "b": pa.array(tb),
                         "hi": pa.array(hi), "lo": pa.array(lo),
                         "den": pa.array(w.sum(axis=1))})

    agg = relational.ds_to_table(
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby(["a", "b"]).aggregate(
            Sum("hi", alias_name="hi"), Sum("lo", alias_name="lo"),
            Sum("den", alias_name="den"))
    ).to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    num = [int(h) * (1 << 32) + int(lu)
           for h, lu in zip(agg["hi"], agg["lo"])]
    idw = [round(float(nu) / float(int(dn)) / 100.0, 6)
           for nu, dn in zip(num, agg["den"])]
    return pd.DataFrame({
        "a": agg["a"].to_numpy(np.int64),
        "b": agg["b"].to_numpy(np.int64),
        "den": agg["den"].to_numpy(np.int64),
        "idw_acctbal": idw})


SQL_IDW = """
WITH p AS (SELECT 2 * ((c_custkey * 7919) % 1000) + 1 AS x,
                  2 * ((c_custkey * 104729) % 1000) + 1 AS y,
                  CAST(ROUND(c_acctbal * 100) AS BIGINT) AS cents
           FROM customer),
t AS (SELECT ra.range AS a, rb.range AS b,
             200 + 400 * ra.range AS tx, 200 + 400 * rb.range AS ty
      FROM range(5) ra, range(5) rb),
w AS (SELECT t.a, t.b, p.cents,
             1000000000000
               // ((p.x - t.tx) * (p.x - t.tx)
                   + (p.y - t.ty) * (p.y - t.ty)) AS w
      FROM p, t)
SELECT a, b, CAST(SUM(w) AS BIGINT) AS den,
       ROUND(CAST(SUM(CAST(cents AS HUGEINT) * w) AS DOUBLE)
             / CAST(CAST(SUM(w) AS HUGEINT) AS DOUBLE) / 100.0, 6)
         AS idw_acctbal
FROM w GROUP BY 1, 2 ORDER BY 1, 2
"""


def _hilbert_d(x: np.ndarray, y: np.ndarray, n: int = 32) -> np.ndarray:
    """Vectorized Hilbert xy→d at grid size ``n`` (power of two).  The
    classic per-level rotate/flip runs on MASKED low bits (x % s) so
    every intermediate stays a nonnegative integer — the exact same
    floor-division/modulo arithmetic the SQL twin's unrolled CTE chain
    evaluates (no two's-complement '&' on negatives to diverge on).
    Certified by the bijection + consecutive-cells-Manhattan-adjacent
    pytest over the full n×n domain."""
    x = x.astype(np.int64).copy()
    y = y.astype(np.int64).copy()
    d = np.zeros_like(x)
    s = n // 2
    while s > 0:
        rx = (x // s) % 2
        ry = (y // s) % 2
        d += s * s * np.where(rx == 1, 3 - ry, ry)
        xl = x % s
        yl = y % s
        flip = (ry == 0) & (rx == 1)
        nx = np.where(ry == 0, np.where(flip, s - 1 - yl, yl), xl)
        ny = np.where(ry == 0, np.where(flip, s - 1 - xl, xl), yl)
        x, y = nx, ny
        s //= 2
    return d


def q_hilbert_index_points(sf_dir: str):
    """Hilbert-curve cell index of the synthetic customer points at
    32×32 — the better-locality sibling of `morton_index_points` (a
    Hilbert sort keeps EVERY consecutive pair of cells grid-adjacent,
    where Z-order jumps; it is the stronger clustering key a lakehouse
    layout optimizer offers).  Coordinates scale to 0..31 by integer
    multiply-then-floor-divide, the 5-level rotate/flip transform runs
    masked (see `_hilbert_d`), and the output is the bounded ≤1024-row
    (cell, count) histogram.  Per-batch unique partials, one tiny
    groupby."""
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_custkey"])

    def hil(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        x = ((k * 7919) % 1000) * 32 // 1000
        y = ((k * 104729) % 1000) * 32 // 1000
        d = _hilbert_d(x, y, 32)
        u, n = np.unique(d, return_counts=True)
        return pa.table({"hcell": pa.array(u),
                         "pn": pa.array(n.astype(np.int64))})

    return cust.map_batches(hil, batch_format="pyarrow") \
        .groupby("hcell").aggregate(Sum("pn", alias_name="cnt"))


def _sql_hilbert() -> str:
    """Unrolled 5-level Hilbert twin of q_hilbert_index_points: one CTE
    per level, each deriving (d, x, y) for the next sub-square from the
    same nonnegative //-and-% arithmetic the numpy kernel runs."""
    stages = []
    prev = "p"
    for i, s in enumerate((16, 8, 4, 2, 1)):
        rx = f"((x // {s}) % 2)"
        ry = f"((y // {s}) % 2)"
        stages.append(f"""l{i} AS (SELECT
  d + {s * s} * (CASE WHEN {rx} = 1 THEN 3 - {ry} ELSE {ry} END) AS d,
  CASE WHEN {ry} = 0 THEN
       CASE WHEN {rx} = 1 THEN {s - 1} - (y % {s}) ELSE y % {s} END
       ELSE x % {s} END AS x,
  CASE WHEN {ry} = 0 THEN
       CASE WHEN {rx} = 1 THEN {s - 1} - (x % {s}) ELSE x % {s} END
       ELSE y % {s} END AS y
 FROM {prev})""")
        prev = f"l{i}"
    chain = ",\n".join(stages)
    return f"""
WITH p AS (SELECT 0 AS d,
                  ((c_custkey * 7919) % 1000) * 32 // 1000 AS x,
                  ((c_custkey * 104729) % 1000) * 32 // 1000 AS y
           FROM customer),
{chain}
SELECT d AS hcell, CAST(COUNT(*) AS BIGINT) AS cnt
FROM {prev} GROUP BY 1
"""


def q_curve_locality_audit(sf_dir: str):
    """Space-filling-curve locality audit on the REAL point
    distribution — which clustering key (row-major, Z-order/Morton,
    Hilbert) keeps this workload's consecutive file blocks
    spatially adjacent?  The metric is the exact integer sum of
    squared cell-to-cell jumps between CONSECUTIVE OCCUPIED cells in
    each curve order (occupied cells from one bounded reduce of the
    32×32 customer grid) — the data-driven version of the curves'
    theoretical locality bounds, and the number a lakehouse should
    check before committing to a Z-order layout.  Hilbert cell
    indices come from the certified `_hilbert_d` kernel; the twin
    carries (cx, cy) through the same unrolled 5-level chain."""
    from ray.data.aggregate import Count
    cu = _read(sf_dir, "customer", ["c_custkey"])

    def cells(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cx = ((k * 7919) % 1000) * 32 // 1000
        cy = ((k * 104729) % 1000) * 32 // 1000
        g = pd.DataFrame({"cx": cx, "cy": cy}).drop_duplicates()
        return pa.Table.from_pandas(g, preserve_index=False)

    occ = relational.ds_to_table(
        cu.map_batches(cells, batch_format="pyarrow")
        .groupby(["cx", "cy"]).aggregate(Count(alias_name="_n"))
    ).to_pandas()
    cx = occ["cx"].to_numpy(np.int64)
    cy = occ["cy"].to_numpy(np.int64)
    curves = {
        "rowmajor": cy * 32 + cx,
        "morton": _morton_interleave(cx, cy, 5),
        "hilbert": _hilbert_d(cx, cy, 32)}
    rows = []
    for name in sorted(curves):
        o = np.argsort(curves[name], kind="stable")
        dx = np.diff(cx[o])
        dy = np.diff(cy[o])
        s = int((dx * dx + dy * dy).sum())
        rows.append({
            "curve": name, "n_cells": len(cx),
            "sum_jump_d2": s,
            "mean_jump_d2": float(np.round(
                float(s) / float(len(cx) - 1), 6))})
    return pd.DataFrame(rows).astype({
        "n_cells": np.int64, "sum_jump_d2": np.int64})


def _sql_curve_locality() -> str:
    # hilbert chain carrying the ORIGINAL (cx, cy) through the levels
    stages = []
    prev = "p0"
    for i, s in enumerate((16, 8, 4, 2, 1)):
        rx = f"((x // {s}) % 2)"
        ry = f"((y // {s}) % 2)"
        stages.append(f"""h{i} AS (SELECT cx, cy,
  d + {s * s} * (CASE WHEN {rx} = 1 THEN 3 - {ry} ELSE {ry} END) AS d,
  CASE WHEN {ry} = 0 THEN
       CASE WHEN {rx} = 1 THEN {s - 1} - (y % {s}) ELSE y % {s} END
       ELSE x % {s} END AS x,
  CASE WHEN {ry} = 0 THEN
       CASE WHEN {rx} = 1 THEN {s - 1} - (x % {s}) ELSE x % {s} END
       ELSE y % {s} END AS y
 FROM {prev})""")
        prev = f"h{i}"
    chain = ",\n".join(stages)
    morton = " + ".join(
        f"((cx // {1 << b}) % 2) * {4 ** b}"
        f" + 2 * ((cy // {1 << b}) % 2) * {4 ** b}"
        for b in range(5))
    return f"""
WITH occ AS (SELECT DISTINCT
                ((c_custkey * 7919) % 1000) * 32 // 1000 AS cx,
                ((c_custkey * 104729) % 1000) * 32 // 1000 AS cy
             FROM customer),
p0 AS (SELECT cx, cy, 0 AS d, cx AS x, cy AS y FROM occ),
{chain},
idx AS (SELECT cx, cy, 'rowmajor' AS curve, cy * 32 + cx AS i
        FROM occ
        UNION ALL
        SELECT cx, cy, 'morton', {morton} FROM occ
        UNION ALL
        SELECT cx, cy, 'hilbert', d FROM {prev}),
j AS (SELECT curve, cx, cy,
             LAG(cx) OVER (PARTITION BY curve ORDER BY i) AS px,
             LAG(cy) OVER (PARTITION BY curve ORDER BY i) AS py
      FROM idx),
a AS (SELECT curve, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(CASE WHEN px IS NULL THEN 0
                      ELSE (cx - px) * (cx - px)
                           + (cy - py) * (cy - py) END) AS BIGINT)
               AS s
      FROM j GROUP BY 1)
SELECT curve, n AS n_cells, s AS sum_jump_d2,
       ROUND(CAST(s AS DOUBLE) / CAST(n - 1 AS DOUBLE), 6)
         AS mean_jump_d2
FROM a ORDER BY curve
"""


_SEL_BUCKETS = 16
_SEL_PREDICATES = 8


def q_selectivity_histogram_audit(sf_dir: str):
    """Selectivity-estimation audit of the 16-bucket equi-width
    histogram on acctbal — the planner-quality number behind every
    cost-based range-scan decision: for 8 fixed range predicates
    spanning the domain, the histogram's uniform-within-bucket
    estimate next to the TRUE count.  The estimate is quantized
    per-bucket to micro-units with INTEGER division (count·overlap·
    10⁶ // width summed as exact ints — no float summation anywhere),
    so est_micro is hash-stable; the relative error is the one
    mirrored double.  One value-domain cents reduce feeds the
    histogram, the predicates and the truth."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({"v": cents, "c": 1}) \
            .groupby("v", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    vd = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("v").aggregate(Sum("c", alias_name="c"))
    ).to_pandas().sort_values("v").reset_index(drop=True)
    v = vd["v"].to_numpy(np.int64)
    c = vd["c"].to_numpy(np.int64)
    vmin, vmax = int(v.min()), int(v.max())
    span = vmax - vmin + 1
    B = _SEL_BUCKETS
    # bucket b covers [lo_b, lo_{b+1}) with lo_b = vmin + b*span//B
    lob = [vmin + b * span // B for b in range(B + 1)]
    bidx = np.searchsorted(np.array(lob[1:]), v, side="right")
    bcnt = np.zeros(B, dtype=np.int64)
    np.add.at(bcnt, bidx, c)
    rows = []
    for p in range(_SEL_PREDICATES):
        plo = vmin + p * span // _SEL_PREDICATES
        phi = vmin + (p + 2) * span // _SEL_PREDICATES
        true_n = int(c[(v >= plo) & (v < phi)].sum())
        est = 0
        for b in range(B):
            w = lob[b + 1] - lob[b]
            if w <= 0:
                continue
            ov = min(lob[b + 1], phi) - max(lob[b], plo)
            if ov > 0:
                est += int(bcnt[b]) * ov * 10 ** 6 // w
        rows.append({
            "predicate": p, "lo_cents": plo, "hi_cents": phi,
            "true_n": true_n, "est_micro": est,
            "rel_err": None if true_n == 0 else float(np.round(
                abs(est / 1e6 - float(true_n)) / float(true_n), 6))})
    return pd.DataFrame(rows).astype({
        "predicate": np.int64, "lo_cents": np.int64,
        "hi_cents": np.int64, "true_n": np.int64,
        "est_micro": np.int64})


SQL_SELECTIVITY_AUDIT = f"""
WITH vals AS (SELECT CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT)
                AS v
              FROM customer),
mm AS (SELECT MIN(v) AS vmin, MAX(v) - MIN(v) + 1 AS span
       FROM vals),
bs AS (SELECT b, mm.vmin + b * mm.span // {_SEL_BUCKETS} AS lo,
              mm.vmin + (b + 1) * mm.span // {_SEL_BUCKETS} AS hi
       FROM generate_series(0, {_SEL_BUCKETS - 1}) t(b), mm),
bc AS (SELECT bs.b, bs.lo, bs.hi,
              CAST(COUNT(vals.v) AS BIGINT) AS c
       FROM bs LEFT JOIN vals
         ON vals.v >= bs.lo AND vals.v < bs.hi
       GROUP BY 1, 2, 3),
pr AS (SELECT p, mm.vmin + p * mm.span // {_SEL_PREDICATES} AS plo,
              mm.vmin + (p + 2) * mm.span // {_SEL_PREDICATES}
                AS phi
       FROM generate_series(0, {_SEL_PREDICATES - 1}) t(p), mm),
est AS (SELECT pr.p, pr.plo, pr.phi,
               SUM(CASE WHEN LEAST(bc.hi, pr.phi)
                             - GREATEST(bc.lo, pr.plo) > 0
                        AND bc.hi - bc.lo > 0
                   THEN bc.c * (LEAST(bc.hi, pr.phi)
                                - GREATEST(bc.lo, pr.plo))
                        * 1000000 // (bc.hi - bc.lo)
                   ELSE 0 END) AS e
        FROM pr, bc GROUP BY 1, 2, 3),
tr AS (SELECT pr.p, CAST(COUNT(vals.v) AS BIGINT) AS t
       FROM pr LEFT JOIN vals
         ON vals.v >= pr.plo AND vals.v < pr.phi
       GROUP BY 1)
SELECT est.p AS predicate, est.plo AS lo_cents,
       est.phi AS hi_cents, tr.t AS true_n,
       CAST(est.e AS BIGINT) AS est_micro,
       CASE WHEN tr.t = 0 THEN NULL
            ELSE ROUND(ABS(CAST(est.e AS DOUBLE) / 1e6
                           - CAST(tr.t AS DOUBLE))
                       / CAST(tr.t AS DOUBLE), 6) END AS rel_err
FROM est JOIN tr ON tr.p = est.p ORDER BY predicate
"""


def q_quadrat_test_csr(sf_dir: str):
    """Quadrat-count test of complete spatial randomness over the
    5×5 grid — the classic first screen of a point pattern (before
    Ripley/Clark-Evans): χ² = Σ(o−e)²/e against the uniform
    expectation e = n/25.  The statistic is kept exact by the
    scaling identity Σ(25·oᵢ−n)² / (25·n) — an arbitrary-precision
    INTEGER numerator over one integer denominator, one mirrored
    division; quadrat counts come from a single bounded reduce.
    The index of dispersion χ²/(k−1) rides along."""
    from ray.data.aggregate import Sum
    pts = _read(sf_dir, "customer", ["c_custkey"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = (k * 7919) % 1000
        y = (k * 104729) % 1000
        q = (x // 200) + 5 * (y // 200)
        g = pd.DataFrame({"q": q, "c": 1}) \
            .groupby("q", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        pts.map_batches(partial, batch_format="pyarrow")
        .groupby("q").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    cnt = {int(r.q): int(r.c) for r in agg.itertuples()}
    o = [cnt.get(q, 0) for q in range(25)]
    n = sum(o)
    num = sum((25 * oi - n) ** 2 for oi in o)
    chi2 = float(num) / float(25 * n)
    return pd.DataFrame([{
        "n_points": n, "n_quadrats": 25,
        "chi2_num": num,
        "chi2": float(np.round(chi2, 6)),
        "dispersion_index": float(np.round(chi2 / 24.0, 6))}]) \
        .astype({"n_points": np.int64, "n_quadrats": np.int64,
                 "chi2_num": np.int64})


SQL_QUADRAT = """
WITH p AS (SELECT ((c_custkey * 7919) % 1000) // 200
                  + 5 * (((c_custkey * 104729) % 1000) // 200) AS q
           FROM customer),
o AS (SELECT g.q, CAST(COUNT(p.q) AS BIGINT) AS c
      FROM (SELECT unnest(generate_series(0, 24)) AS q) g
      LEFT JOIN p ON p.q = g.q GROUP BY 1),
t AS (SELECT SUM(c) AS n FROM o),
s AS (SELECT SUM(CAST(25 * c - t.n AS HUGEINT)
                 * (25 * c - t.n)) AS num, MAX(t.n) AS n
      FROM o, t)
SELECT CAST(n AS BIGINT) AS n_points, CAST(25 AS BIGINT)
         AS n_quadrats,
       CAST(num AS BIGINT) AS chi2_num,
       ROUND(CAST(num AS DOUBLE) / CAST(25 * n AS DOUBLE), 6)
         AS chi2,
       ROUND(CAST(num AS DOUBLE) / CAST(25 * n AS DOUBLE) / 24.0, 6)
         AS dispersion_index
FROM s
"""


def q_design_effect_nations(sf_dir: str):
    """Survey design effect of nation-clustered sampling on acctbal —
    the DEFF = 1 + (b̄−1)·ICC calculation (Kish) that tells a survey
    or eval-sampling designer how much cluster sampling inflates
    variance over SRS.  The one-way ANOVA decomposition runs on
    EXACT integers via per-group floor identities (Σ S_g²//n_g and
    S²//N — both sides floor identically, HUGEINT twin), so
    SSB/SSW/ICC can never drift; MSB, MSW, ICC and DEFF are the
    mirrored doubles."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({
            "nk": t["c_nationkey"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "n": 1, "s": cents, "q": cents * cents}) \
            .groupby("nk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("nk").aggregate(Sum("n", alias_name="n"),
                                 Sum("s", alias_name="s"),
                                 Sum("q", alias_name="q"))
    ).to_pandas()
    k = len(agg)
    N = int(agg["n"].sum())
    S = int(agg["s"].sum())
    Q = int(agg["q"].sum())
    sgterm = sum(int(r.s) * int(r.s) // int(r.n)
                 for r in agg.itertuples(index=False))
    ssb = sgterm - S * S // N
    ssw = Q - sgterm
    msb = float(ssb) / float(k - 1)
    msw = float(ssw) / float(N - k)
    bbar = float(N) / float(k)
    icc = (msb - msw) / (msb + (bbar - 1.0) * msw)
    deff = 1.0 + (bbar - 1.0) * icc
    return pd.DataFrame([{
        "n_customers": N, "n_clusters": k,
        "ssb": ssb, "ssw": ssw,
        "icc": float(np.round(icc, 6)),
        "deff": float(np.round(deff, 6))}]).astype({
            "n_customers": np.int64, "n_clusters": np.int64,
            "ssb": np.int64, "ssw": np.int64})


SQL_DESIGN_EFFECT = """
WITH g AS (SELECT c_nationkey AS nk, CAST(COUNT(*) AS BIGINT) AS n,
                  SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS HUGEINT))
                    AS s,
                  SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS HUGEINT)
                      * CAST(FLOOR(c_acctbal * 100 + 0.5)
                             AS HUGEINT)) AS q
           FROM customer GROUP BY 1),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS k, SUM(n) AS nn,
             SUM(s) AS ss, SUM(q) AS qq,
             SUM(s * s // n) AS sgterm
      FROM g),
e AS (SELECT nn, k, sgterm - ss * ss // nn AS ssb,
             qq - sgterm AS ssw
      FROM t),
f AS (SELECT nn, k, ssb, ssw,
             CAST(ssb AS DOUBLE) / CAST(k - 1 AS DOUBLE) AS msb,
             CAST(ssw AS DOUBLE) / CAST(nn - k AS DOUBLE) AS msw,
             CAST(nn AS DOUBLE) / CAST(k AS DOUBLE) AS bbar
      FROM e)
SELECT CAST(nn AS BIGINT) AS n_customers, k AS n_clusters,
       CAST(ssb AS BIGINT) AS ssb, CAST(ssw AS BIGINT) AS ssw,
       ROUND((msb - msw) / (msb + (bbar - 1.0) * msw), 6) AS icc,
       ROUND(1.0 + (bbar - 1.0)
             * ((msb - msw) / (msb + (bbar - 1.0) * msw)), 6)
         AS deff
FROM f
"""


_SUPER_BOUNDS = (0, 334, 667, 1000)


def q_areal_interpolation_supergrid(sf_dir: str):
    """Areal-weighted interpolation of nation acctbal totals onto a
    misaligned 3×3 supergrid — THE GIS zone-transfer operator
    (census tracts → service areas): each 200×200 nation rect
    contributes to each target cell in proportion to their EXACT
    integer overlap area, and because every source zone has the same
    40000-unit area the transferred value is one exact integer sum
    divided once at the end — no float enters until the single
    mirrored division per cell.  The per-cell Σ overlap = cell area
    identity rides along as a built-in mass-conservation audit."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({
            "nk": t["c_nationkey"].to_numpy(zero_copy_only=False)
            .astype(np.int64), "v": cents}) \
            .groupby("nk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("nk").aggregate(Sum("v", alias_name="v"))
    ).to_pandas()
    val = {int(r.nk): int(r.v) for r in agg.itertuples()}
    B = _SUPER_BOUNDS
    rows = []
    for ty in range(3):
        for tx in range(3):
            num = 0
            ovsum = 0
            for nk in range(25):
                x0, y0 = 200 * (nk % 5), 200 * (nk // 5)
                ox = max(0, min(x0 + 200, B[tx + 1]) - max(x0, B[tx]))
                oy = max(0, min(y0 + 200, B[ty + 1]) - max(y0, B[ty]))
                ov = ox * oy
                num += val.get(nk, 0) * ov
                ovsum += ov
            rows.append({
                "cell": ty * 3 + tx,
                "overlap_area": ovsum,
                "value_num": num,
                "value": float(np.round(
                    float(num) / 40000.0, 6))})
    return pd.DataFrame(rows).astype({
        "cell": np.int64, "overlap_area": np.int64,
        "value_num": np.int64})


def _sql_areal_interpolation() -> str:
    B = _SUPER_BOUNDS
    cells = ", ".join(
        f"({ty * 3 + tx}, {B[tx]}, {B[tx + 1]}, {B[ty]}, {B[ty + 1]})"
        for ty in range(3) for tx in range(3))
    return f"""
WITH nv AS (SELECT n.nk,
                   COALESCE(SUM(CAST(FLOOR(c.c_acctbal * 100 + 0.5)
                                     AS HUGEINT)), 0) AS v
            FROM (SELECT unnest(generate_series(0, 24)) AS nk) n
            LEFT JOIN customer c ON c.c_nationkey = n.nk
            GROUP BY 1),
tc AS (SELECT * FROM (VALUES {cells}) t(cell, x0, x1, y0, y1)),
ov AS (SELECT tc.cell,
              GREATEST(0, LEAST(200 * (nv.nk % 5) + 200, tc.x1)
                          - GREATEST(200 * (nv.nk % 5), tc.x0))
              * GREATEST(0, LEAST(200 * (nv.nk // 5) + 200, tc.y1)
                            - GREATEST(200 * (nv.nk // 5), tc.y0))
                AS a,
              nv.v
       FROM tc, nv),
agg AS (SELECT cell, CAST(SUM(a) AS BIGINT) AS overlap_area,
               SUM(v * a) AS num
        FROM ov GROUP BY 1)
SELECT cell, overlap_area, CAST(num AS BIGINT) AS value_num,
       ROUND(CAST(num AS DOUBLE) / 40000.0, 6) AS value
FROM agg ORDER BY cell
"""


def q_slope_aspect_grid(sf_dir: str):
    """Slope and aspect terrain derivatives over the 32×32 acctbal
    DEM — the raster pair every hydrology/viewshed stack computes
    first: central-difference gradients (dzx, dzy) are exact
    integers, slope² = dzx²+dzy² never leaves the integers, and the
    aspect compass octant of the DOWNHILL direction is a pure
    sign/|·| comparison ladder (ties to the axis, 'flat' when both
    gradients vanish) mirrored clause-for-clause by the twin's CASE.
    Border cells report NULL like the twin's missing neighbors."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cx = ((k * 7919) % 1000) // 32
        cy = ((k * 104729) % 1000) // 32
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({"cell": cy * 32 + cx, "e": cents}) \
            .groupby("cell", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    et = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("cell").aggregate(Sum("e", alias_name="e"))
    ).to_pandas()
    e = np.zeros(1024, dtype=np.int64)
    e[et["cell"].to_numpy(np.int64)] = et["e"].to_numpy(np.int64)
    rows = []
    for c in range(1024):
        cx, cy = c % 32, c // 32
        if cx == 0 or cx == 31 or cy == 0 or cy == 31:
            rows.append({"cell": c, "slope2": None, "aspect": None})
            continue
        dzx = int(e[c + 1]) - int(e[c - 1])
        dzy = int(e[c + 32]) - int(e[c - 32])
        gx, gy = -dzx, -dzy
        if gx == 0 and gy == 0:
            asp = "flat"
        elif abs(gx) > abs(gy):
            asp = "E" if gx > 0 else "W"
        elif abs(gy) > abs(gx):
            asp = "N" if gy > 0 else "S"
        elif gx > 0:
            asp = "NE" if gy > 0 else "SE"
        else:
            asp = "NW" if gy > 0 else "SW"
        rows.append({"cell": c, "slope2": dzx * dzx + dzy * dzy,
                     "aspect": asp})
    return pd.DataFrame(rows).astype({"cell": np.int64})


SQL_SLOPE_ASPECT = """
WITH ev AS (SELECT (((c_custkey * 104729) % 1000) // 32) * 32
                   + ((c_custkey * 7919) % 1000) // 32 AS cell,
                   SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT))
                     AS e
            FROM customer GROUP BY 1),
grid AS (SELECT g.cell, COALESCE(ev.e, 0) AS e
         FROM (SELECT unnest(generate_series(0, 1023)) AS cell) g
         LEFT JOIN ev USING (cell)),
d AS (SELECT g.cell,
             ge.e - gw.e AS dzx, gn.e - gs.e AS dzy
      FROM grid g
      JOIN grid ge ON ge.cell = g.cell + 1
      JOIN grid gw ON gw.cell = g.cell - 1
      JOIN grid gn ON gn.cell = g.cell + 32
      JOIN grid gs ON gs.cell = g.cell - 32
      WHERE g.cell % 32 NOT IN (0, 31)
        AND g.cell // 32 NOT IN (0, 31))
SELECT g.cell,
       CAST(d.dzx * d.dzx + d.dzy * d.dzy AS BIGINT) AS slope2,
       CASE WHEN d.cell IS NULL THEN NULL
            WHEN -d.dzx = 0 AND -d.dzy = 0 THEN 'flat'
            WHEN ABS(-d.dzx) > ABS(-d.dzy)
              THEN CASE WHEN -d.dzx > 0 THEN 'E' ELSE 'W' END
            WHEN ABS(-d.dzy) > ABS(-d.dzx)
              THEN CASE WHEN -d.dzy > 0 THEN 'N' ELSE 'S' END
            WHEN -d.dzx > 0
              THEN CASE WHEN -d.dzy > 0 THEN 'NE' ELSE 'SE' END
            ELSE CASE WHEN -d.dzy > 0 THEN 'NW' ELSE 'SW' END
       END AS aspect
FROM grid g LEFT JOIN d ON d.cell = g.cell
ORDER BY g.cell
"""


_PERC_THRESH = (20000, 50000, 80000)


def q_percolation_components_scan(sf_dir: str):
    """Site-percolation scan over the 32×32 acctbal raster — how the
    largest connected cluster of "active" cells grows as the
    activation threshold drops (the connectivity-phase-transition
    lens on coverage maps: below the percolation threshold the map
    is fragments, above it one giant component spans).  For each
    cents threshold, cells with elevation ≥ T are active; rook
    components resolve by exact min-label union-find on the driver
    (≤1024 cells from one bounded reduce), and the twin replays them
    with a recursive min-label CTE.  Largest-cluster share is the
    only mirrored double."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cx = ((k * 7919) % 1000) // 32
        cy = ((k * 104729) % 1000) // 32
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({"cell": cy * 32 + cx, "e": cents}) \
            .groupby("cell", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    et = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("cell").aggregate(Sum("e", alias_name="e"))
    ).to_pandas()
    e = np.zeros(1024, dtype=np.int64)
    e[et["cell"].to_numpy(np.int64)] = et["e"].to_numpy(np.int64)
    rows = []
    for T in _PERC_THRESH:
        act = np.nonzero(e >= T)[0]
        aset = set(act.tolist())
        parent = {c: c for c in aset}

        def find(c):
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            return c

        for c in aset:
            cx, cy = c % 32, c // 32
            for nb_ in ((c + 1) if cx < 31 else None,
                        (c + 32) if cy < 31 else None):
                if nb_ is not None and nb_ in aset:
                    ra, rb = find(c), find(nb_)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
        sizes: dict = {}
        for c in aset:
            r = find(c)
            sizes[r] = sizes.get(r, 0) + 1
        if sizes:
            big = max(sizes.values())
            ncomp = len(sizes)
        else:
            big, ncomp = 0, 0
        na = len(aset)
        rows.append({
            "threshold_cents": T, "n_active": na,
            "n_components": ncomp, "largest_cluster": big,
            "largest_share": None if na == 0 else float(np.round(
                float(big) / float(na), 6))})
    return pd.DataFrame(rows).astype({
        "threshold_cents": np.int64, "n_active": np.int64,
        "n_components": np.int64, "largest_cluster": np.int64})


def _sql_percolation() -> str:
    thr = ", ".join(f"({t})" for t in _PERC_THRESH)
    return f"""
WITH RECURSIVE
ev AS (SELECT (((c_custkey * 104729) % 1000) // 32) * 32
              + ((c_custkey * 7919) % 1000) // 32 AS cell,
              SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT)) AS e
       FROM customer GROUP BY 1),
th AS (SELECT * FROM (VALUES {thr}) t(thr)),
act AS (SELECT th.thr, ev.cell FROM th JOIN ev ON ev.e >= th.thr),
ed0 AS (SELECT a.thr, a.cell AS u, b.cell AS v
        FROM act a JOIN act b ON b.thr = a.thr
         AND ((b.cell = a.cell + 1 AND a.cell % 32 < 31)
              OR (b.cell = a.cell + 32 AND a.cell // 32 < 31))),
ed AS (SELECT thr, u, v FROM ed0
       UNION ALL SELECT thr, v, u FROM ed0),
reach AS (SELECT thr, cell, cell AS lab FROM act
          UNION
          SELECT r.thr, e.v AS cell, r.lab FROM reach r
          JOIN ed e ON e.thr = r.thr AND e.u = r.cell),
comp AS (SELECT thr, cell, MIN(lab) AS root
         FROM reach GROUP BY 1, 2),
cs AS (SELECT thr, root, CAST(COUNT(*) AS BIGINT) AS sz
       FROM comp GROUP BY 1, 2),
agg AS (SELECT thr, CAST(SUM(sz) AS BIGINT) AS na,
               CAST(COUNT(*) AS BIGINT) AS ncomp,
               CAST(MAX(sz) AS BIGINT) AS big
        FROM cs GROUP BY 1)
SELECT th.thr AS threshold_cents,
       COALESCE(agg.na, 0) AS n_active,
       COALESCE(agg.ncomp, 0) AS n_components,
       COALESCE(agg.big, 0) AS largest_cluster,
       CASE WHEN COALESCE(agg.na, 0) = 0 THEN NULL
            ELSE ROUND(CAST(agg.big AS DOUBLE)
                       / CAST(agg.na AS DOUBLE), 6) END
         AS largest_share
FROM th LEFT JOIN agg ON agg.thr = th.thr
ORDER BY threshold_cents
"""


def q_nn_matching_att(sf_dir: str):
    """Nearest-neighbor matching estimate of the BUILDING-segment
    'treatment effect' on order activity — the covariate-matching
    workhorse of observational causal inference: treated = BUILDING
    customers, controls = the rest, covariate = acctbal cents
    (exact), outcome = order count.  Each treated customer matches
    the control with the closest covariate (ties: the smaller
    control value, then the smaller custkey — mirrored by the twin's
    argmin ordering), and ATT = mean(outcomeₜ − outcome_matched),
    one mirrored division over an exact integer sum.  Order counts
    attach through one bucketed join; matching scans the broadcast
    sorted control arrays."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_custkey"]) \
        .map_batches(lambda t: pa.Table.from_pandas(
            pd.DataFrame({
                "o_custkey": t["o_custkey"].to_numpy(
                    zero_copy_only=False), "nord": 1})
            .groupby("o_custkey", sort=False).sum().reset_index(),
            preserve_index=False), batch_format="pyarrow") \
        .groupby("o_custkey").aggregate(Sum("nord",
                                            alias_name="nord"))
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_mktsegment", "c_acctbal"]) \
        .map_batches(lambda t: pa.table({
            "o_custkey": t["c_custkey"],
            "seg": t["c_mktsegment"],
            "v": pa.array(np.floor(t["c_acctbal"].to_numpy(
                zero_copy_only=False) * 100 + 0.5)
                .astype(np.int64))}), batch_format="pyarrow")
    us = relational.ds_to_table(
        relational.bucketed_hash_join(cust, orders, on="o_custkey",
                                      how="left")
    ).to_pandas()
    us["n"] = us["nord"].fillna(0).astype(np.int64)
    us["u"] = us["o_custkey"].astype(np.int64)
    us["treated"] = us["seg"] == "BUILDING"
    ctrl = us[~us["treated"]].sort_values(["v", "u"]) \
        .reset_index(drop=True)
    tre = us[us["treated"]]
    if not len(ctrl) or not len(tre):
        return pd.DataFrame([{
            "n_treated": int(len(tre)), "n_control": int(len(ctrl)),
            "att_num": 0, "att": None}]).astype({
                "n_treated": np.int64, "n_control": np.int64,
                "att_num": np.int64})
    cv = ctrl["v"].to_numpy(np.int64)
    cn = ctrl["n"].to_numpy(np.int64)
    cu = ctrl["u"].to_numpy(np.int64)
    att_num = 0
    for r in tre.itertuples(index=False):
        tv, tn = int(r.v), int(r.n)
        i = np.searchsorted(cv, tv)
        cand = []
        if i > 0:
            cand.append(i - 1)
        if i < len(cv):
            cand.append(i)
        # (|diff|, control value, control id) lexicographic min;
        # within equal value the sorted order already puts the
        # smallest id first, and searchsorted edges point at the
        # boundary entries of each value run
        best = min(cand, key=lambda j: (abs(int(cv[j]) - tv),
                                        int(cv[j]), int(cu[j])))
        # expand to the first index of the chosen value run (min id)
        j0 = np.searchsorted(cv, cv[best])
        att_num += tn - int(cn[j0])
    att = float(att_num) / float(len(tre))
    return pd.DataFrame([{
        "n_treated": int(len(tre)), "n_control": int(len(ctrl)),
        "att_num": att_num,
        "att": float(np.round(att, 6))}]).astype({
            "n_treated": np.int64, "n_control": np.int64,
            "att_num": np.int64})


SQL_NN_MATCHING = """
WITH oc AS (SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS n
            FROM orders GROUP BY 1),
u AS (SELECT c.c_custkey AS u, COALESCE(oc.n, 0) AS n,
             CAST(FLOOR(c.c_acctbal * 100 + 0.5) AS BIGINT) AS v,
             CASE WHEN c.c_mktsegment = 'BUILDING'
                  THEN 1 ELSE 0 END AS p
      FROM customer c LEFT JOIN oc ON oc.o_custkey = c.c_custkey),
tr AS (SELECT * FROM u WHERE p = 1),
ct AS (SELECT * FROM u WHERE p = 0),
m AS (SELECT tr.u, tr.n AS tn, ct.n AS cn,
             ROW_NUMBER() OVER (
               PARTITION BY tr.u
               ORDER BY ABS(ct.v - tr.v), ct.v, ct.u) AS rn
      FROM tr, ct),
best AS (SELECT u, tn, cn FROM m WHERE rn = 1),
agg AS (SELECT CAST(COUNT(*) AS BIGINT) AS nt,
               CAST(SUM(tn - cn) AS BIGINT) AS num
        FROM best)
SELECT agg.nt AS n_treated,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM ct) AS n_control,
       agg.num AS att_num,
       ROUND(CAST(agg.num AS DOUBLE) / CAST(agg.nt AS DOUBLE), 6)
         AS att
FROM agg
"""


def q_gw_mean_acctbal_cells(sf_dir: str):
    """Geographically weighted mean surface of acctbal at the 25
    cell centers — GWR's simplest output (the spatially smoothed
    intercept map): every customer contributes to every center with
    the integer decay weight w = 10⁶ // (1 + d²), so Σw and Σw·v
    fold as EXACT integers in one pass (≤25×2 partial rows per
    batch, HUGEINT twin) and each center's mean is one mirrored
    division.  The registry's IDW op interpolates at point sites;
    this is the kernel-smoothed summary statistic on the cell
    lattice."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    centers = np.array(
        [(100 + 200 * (c % 5), 100 + 200 * (c // 5))
         for c in range(25)], dtype=np.int64)

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = (k * 7919) % 1000
        y = (k * 104729) % 1000
        v = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        cells, sw, swv = [], [], []
        for c in range(25):
            d2 = (x - centers[c, 0]) ** 2 + (y - centers[c, 1]) ** 2
            w = 10 ** 6 // (1 + d2)
            cells.append(c)
            sw.append(int(w.sum()))
            swv.append(int((w * v).sum()))
        return pa.table({"cell": pa.array(cells, type=pa.int64()),
                         "sw": pa.array(sw), "swv": pa.array(swv)})

    agg = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("cell").aggregate(Sum("sw", alias_name="sw"),
                                   Sum("swv", alias_name="swv"))
    ).to_pandas().sort_values("cell").reset_index(drop=True)
    return pd.DataFrame({
        "cell": agg["cell"].astype(np.int64),
        "sum_w": agg["sw"].astype(np.int64),
        "gw_mean_cents": np.round(
            agg["swv"].to_numpy(np.int64).astype(np.float64)
            / agg["sw"].to_numpy(np.int64), 6)})


SQL_GW_MEAN = """
WITH cc AS (SELECT c AS cell, 100 + 200 * (c % 5) AS cx,
                   100 + 200 * (c // 5) AS cy
            FROM (SELECT unnest(generate_series(0, 24)) AS c)),
p AS (SELECT (c_custkey * 7919) % 1000 AS x,
             (c_custkey * 104729) % 1000 AS y,
             CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT) AS v
      FROM customer),
w AS (SELECT cc.cell,
             1000000 // (1 + (p.x - cc.cx) * (p.x - cc.cx)
                         + (p.y - cc.cy) * (p.y - cc.cy)) AS w,
             p.v
      FROM p, cc),
agg AS (SELECT cell, SUM(CAST(w AS HUGEINT)) AS sw,
               SUM(CAST(w AS HUGEINT) * v) AS swv
        FROM w GROUP BY 1)
SELECT cell, CAST(sw AS BIGINT) AS sum_w,
       ROUND(CAST(swv AS DOUBLE) / CAST(sw AS DOUBLE), 6)
         AS gw_mean_cents
FROM agg ORDER BY cell
"""


def q_trend_surface_plane(sf_dir: str):
    """First-order trend surface z = a + b·x + c·y over the 32×32
    acctbal DEM — geostatistics' drift estimate (the step before
    kriging residuals): the 3×3 normal equations solve by CRAMER
    with every determinant an exact integer (coordinates ≤ 31,
    HUGEINT twin), so the coefficients are integer ratios and R²
    closes with the n-scaled integer identity — only the reported
    doubles divide.  One bounded cell reduce feeds everything."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cx = ((k * 7919) % 1000) // 32
        cy = ((k * 104729) % 1000) // 32
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({"cell": cy * 32 + cx, "e": cents}) \
            .groupby("cell", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    et = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("cell").aggregate(Sum("e", alias_name="e"))
    ).to_pandas()
    z = np.zeros(1024, dtype=np.int64)
    z[et["cell"].to_numpy(np.int64)] = et["e"].to_numpy(np.int64)
    xs = np.arange(1024) % 32
    ys = np.arange(1024) // 32
    n = 1024
    sx, sy = int(xs.sum()), int(ys.sum())
    sxx = int((xs * xs).sum())
    syy = int((ys * ys).sum())
    sxy = int((xs * ys).sum())
    sz = int(z.sum())
    sxz = int((xs * z).sum())
    syz = int((ys * z).sum())
    # Cramer on [[n,sx,sy],[sx,sxx,sxy],[sy,sxy,syy]]
    det = (n * (sxx * syy - sxy * sxy) - sx * (sx * syy - sxy * sy)
           + sy * (sx * sxy - sxx * sy))
    det_a = (sz * (sxx * syy - sxy * sxy)
             - sx * (sxz * syy - sxy * syz)
             + sy * (sxz * sxy - sxx * syz))
    det_b = (n * (sxz * syy - sxy * syz)
             - sz * (sx * syy - sxy * sy)
             + sy * (sx * syz - sxz * sy))
    det_c = (n * (sxx * syz - sxz * sxy)
             - sx * (sx * syz - sxz * sy)
             + sz * (sx * sxy - sxx * sy))
    a = float(det_a) / float(det)
    b = float(det_b) / float(det)
    c = float(det_c) / float(det)
    # residuals quantized to integer cents by trunc division (det of
    # a Gram matrix is positive; DuckDB // truncates identically) —
    # keeps the SSE inside HUGEINT on the twin
    zo = z.astype(object)
    r = det * zo - det_a - det_b * xs.astype(object) \
        - det_c * ys.astype(object)
    rq = [(1 if int(v) >= 0 else -1) * (abs(int(v)) // det)
          for v in r]
    sseq = sum(v * v for v in rq)
    sst_scaled = n * int((z.astype(object) ** 2).sum()) - sz * sz
    r2 = 1.0 - float(sseq) / (float(sst_scaled) / float(n))
    return pd.DataFrame([{
        "n_cells": n,
        "intercept": float(np.round(a, 6)),
        "slope_x": float(np.round(b, 6)),
        "slope_y": float(np.round(c, 6)),
        "r2": float(np.round(r2, 6))}]).astype({
            "n_cells": np.int64})


SQL_TREND_SURFACE = """
WITH ev AS (SELECT (((c_custkey * 104729) % 1000) // 32) * 32
                   + ((c_custkey * 7919) % 1000) // 32 AS cell,
                   SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT))
                     AS e
            FROM customer GROUP BY 1),
grid AS (SELECT g.cell, g.cell % 32 AS x, g.cell // 32 AS y,
                CAST(COALESCE(ev.e, 0) AS HUGEINT) AS z
         FROM (SELECT unnest(generate_series(0, 1023)) AS cell) g
         LEFT JOIN ev USING (cell)),
m AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             CAST(SUM(x) AS HUGEINT) AS sx,
             CAST(SUM(y) AS HUGEINT) AS sy,
             CAST(SUM(x * x) AS HUGEINT) AS sxx,
             CAST(SUM(y * y) AS HUGEINT) AS syy,
             CAST(SUM(x * y) AS HUGEINT) AS sxy,
             SUM(z) AS sz, SUM(x * z) AS sxz, SUM(y * z) AS syz
      FROM grid),
d AS (SELECT *,
        n * (sxx * syy - sxy * sxy) - sx * (sx * syy - sxy * sy)
          + sy * (sx * sxy - sxx * sy) AS det,
        sz * (sxx * syy - sxy * sxy) - sx * (sxz * syy - sxy * syz)
          + sy * (sxz * sxy - sxx * syz) AS det_a,
        n * (sxz * syy - sxy * syz) - sz * (sx * syy - sxy * sy)
          + sy * (sx * syz - sxz * sy) AS det_b,
        n * (sxx * syz - sxz * sxy) - sx * (sx * syz - sxz * sy)
          + sz * (sx * sxy - sxx * sy) AS det_c
      FROM m),
sse AS (SELECT SUM(((d.det * g.z - d.det_a - d.det_b * g.x
                     - d.det_c * g.y) // d.det)
                   * ((d.det * g.z - d.det_a - d.det_b * g.x
                       - d.det_c * g.y) // d.det)) AS s
        FROM grid g, d),
sst AS (SELECT d.n * SUM(g.z * g.z) - d.sz * d.sz AS s
        FROM grid g, d GROUP BY d.n, d.sz)
SELECT CAST(d.n AS BIGINT) AS n_cells,
       ROUND(CAST(d.det_a AS DOUBLE) / CAST(d.det AS DOUBLE), 6)
         AS intercept,
       ROUND(CAST(d.det_b AS DOUBLE) / CAST(d.det AS DOUBLE), 6)
         AS slope_x,
       ROUND(CAST(d.det_c AS DOUBLE) / CAST(d.det AS DOUBLE), 6)
         AS slope_y,
       ROUND(1.0 - CAST(sse.s AS DOUBLE)
             / (CAST(sst.s AS DOUBLE) / CAST(d.n AS DOUBLE)), 6)
         AS r2
FROM d, sse, sst
"""


_DISSIM_SEGS = ("AUTOMOBILE", "BUILDING")


def q_dissimilarity_index_segments(sf_dir: str):
    """Duncan dissimilarity index D between the AUTOMOBILE and
    BUILDING customer populations across the 25 cells — sociology's
    canonical segregation measure ("what share of group A would
    have to move to equalize the spatial distribution"), plus the
    A→B interaction/exposure index P*: D's numerator
    Σ|aᵢ·B − bᵢ·A| is an ARBITRARY-PRECISION integer (one bounded
    reduce; HUGEINT twin) over the single denominator 2·A·B, and
    the exposure terms nano-quantize with integer division before
    summing — nothing drifts."""
    from ray.data.aggregate import Sum
    pts = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    s1, s2 = _DISSIM_SEGS

    def partial(t: pa.Table) -> pa.Table:
        seg = t["c_mktsegment"].to_numpy(zero_copy_only=False)
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = (k * 7919) % 1000
        y = (k * 104729) % 1000
        cell = (x // 200) + 5 * (y // 200)
        g = pd.DataFrame({
            "cell": cell, "t": 1,
            "a": (seg == s1).astype(np.int64),
            "b": (seg == s2).astype(np.int64)}) \
            .groupby("cell", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        pts.map_batches(partial, batch_format="pyarrow")
        .groupby("cell").aggregate(Sum("t", alias_name="t"),
                                   Sum("a", alias_name="a"),
                                   Sum("b", alias_name="b"))
    ).to_pandas()
    A = int(agg["a"].sum())
    B = int(agg["b"].sum())
    dnum = sum(abs(int(r.a) * B - int(r.b) * A)
               for r in agg.itertuples(index=False))
    inter_nano = sum((int(r.a) * int(r.b) * 10 ** 9) // int(r.t)
                     for r in agg.itertuples(index=False)
                     if int(r.t) > 0)
    d_idx = float(dnum) / (2.0 * float(A) * float(B))
    p_star = float(inter_nano) / (float(A) * 1e9)
    return pd.DataFrame([{
        "n_a": A, "n_b": B, "d_num": dnum,
        "dissimilarity": float(np.round(d_idx, 6)),
        "interaction_ab": float(np.round(p_star, 6))}]).astype({
            "n_a": np.int64, "n_b": np.int64, "d_num": np.int64})


SQL_DISSIMILARITY = """
WITH p AS (SELECT ((c_custkey * 7919) % 1000) // 200
                  + 5 * (((c_custkey * 104729) % 1000) // 200)
                    AS cell,
                  CASE WHEN c_mktsegment = 'AUTOMOBILE'
                       THEN 1 ELSE 0 END AS a,
                  CASE WHEN c_mktsegment = 'BUILDING'
                       THEN 1 ELSE 0 END AS b
           FROM customer),
c AS (SELECT cell, CAST(COUNT(*) AS BIGINT) AS t,
             CAST(SUM(a) AS BIGINT) AS a,
             CAST(SUM(b) AS BIGINT) AS b
      FROM p GROUP BY 1),
tt AS (SELECT SUM(a) AS aa, SUM(b) AS bb FROM c),
s AS (SELECT SUM(ABS(CAST(c.a AS HUGEINT) * tt.bb
                     - CAST(c.b AS HUGEINT) * tt.aa)) AS dnum,
             SUM(CASE WHEN c.t > 0
                 THEN (CAST(c.a AS HUGEINT) * c.b * 1000000000)
                      // c.t ELSE 0 END) AS inano
      FROM c, tt)
SELECT CAST(tt.aa AS BIGINT) AS n_a, CAST(tt.bb AS BIGINT) AS n_b,
       CAST(s.dnum AS BIGINT) AS d_num,
       ROUND(CAST(s.dnum AS DOUBLE)
             / (2.0 * CAST(tt.aa AS DOUBLE)
                * CAST(tt.bb AS DOUBLE)), 6) AS dissimilarity,
       ROUND(CAST(s.inano AS DOUBLE)
             / (CAST(tt.aa AS DOUBLE) * 1e9), 6) AS interaction_ab
FROM tt, s
"""


def q_join_count_statistics(sf_dir: str):
    """Join-count statistics (Cliff & Ord) for binary spatial
    autocorrelation on the 5×5 revenue grid — the categorical
    sibling of Moran's I: cells color Black when revenue exceeds the
    all-cell mean (the exact cross-multiplication 25·v > S), and the
    BB / BW / WW rook-join counts compare against their nonfree-
    sampling expectations E[BB] = J·n_b(n_b−1)/(n(n−1)) — exact
    integer numerators over one denominator each.  Revenue reduces
    through the same bucketed customer⋈orders join as the Moran
    op."""
    from ray.data.aggregate import Sum

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda t: pa.table({
            "o_custkey": t["c_custkey"],
            "nk": t["c_nationkey"].cast(pa.int64())}),
            batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def combine(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"nk": t["nk"].to_numpy(
            zero_copy_only=False), "pc_": cents}) \
            .groupby("nk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        relational.bucketed_hash_join(orders, cust, on="o_custkey",
                                      combine=combine)
        .groupby("nk").aggregate(Sum("pc_", alias_name="cents"))
    ).to_pandas()
    x = {int(r.nk): int(r.cents) for r in agg.itertuples()}
    v = [x.get(nk, 0) for nk in range(25)]
    S = sum(v)
    black = [25 * vi > S for vi in v]
    nb = sum(black)
    nw = 25 - nb
    bb = bw = ww = 0
    for nk in range(25):
        c, r = nk % 5, nk // 5
        for nbr in ((nk + 1) if c < 4 else None,
                    (nk + 5) if r < 4 else None):
            if nbr is None:
                continue
            if black[nk] and black[nbr]:
                bb += 1
            elif not black[nk] and not black[nbr]:
                ww += 1
            else:
                bw += 1
    J = bb + bw + ww                     # 40 rook joins
    e_bb = float(J * nb * (nb - 1)) / float(25 * 24)
    e_ww = float(J * nw * (nw - 1)) / float(25 * 24)
    e_bw = float(J * 2 * nb * nw) / float(25 * 24)
    return pd.DataFrame([{
        "n_black": nb, "n_white": nw, "bb": bb, "bw": bw, "ww": ww,
        "e_bb": float(np.round(e_bb, 6)),
        "e_bw": float(np.round(e_bw, 6)),
        "e_ww": float(np.round(e_ww, 6))}]).astype({
            "n_black": np.int64, "n_white": np.int64,
            "bb": np.int64, "bw": np.int64, "ww": np.int64})


SQL_JOIN_COUNTS = """
WITH rev AS (SELECT c_nationkey AS nk,
                    SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                      AS cents
             FROM orders JOIN customer ON o_custkey = c_custkey
             GROUP BY 1),
grid AS (SELECT nk, COALESCE(rev.cents, 0) AS v
         FROM (SELECT unnest(generate_series(0, 24)) AS nk)
         LEFT JOIN rev USING (nk)),
t AS (SELECT SUM(v) AS s FROM grid),
col AS (SELECT nk, CASE WHEN 25 * v > t.s THEN 1 ELSE 0 END AS blk
        FROM grid, t),
jn AS (SELECT a.blk AS ba, b.blk AS bb_
       FROM col a JOIN col b
         ON (b.nk = a.nk + 1 AND a.nk % 5 < 4)
         OR (b.nk = a.nk + 5 AND a.nk // 5 < 4)),
agg AS (SELECT CAST(SUM(CASE WHEN ba = 1 AND bb_ = 1
                        THEN 1 ELSE 0 END) AS BIGINT) AS bb,
               CAST(SUM(CASE WHEN ba = 0 AND bb_ = 0
                        THEN 1 ELSE 0 END) AS BIGINT) AS ww,
               CAST(SUM(CASE WHEN ba <> bb_ THEN 1 ELSE 0 END)
                    AS BIGINT) AS bw
        FROM jn),
nbc AS (SELECT CAST(SUM(blk) AS BIGINT) AS nb,
               CAST(25 - SUM(blk) AS BIGINT) AS nw
        FROM col)
SELECT nbc.nb AS n_black, nbc.nw AS n_white,
       agg.bb, agg.bw, agg.ww,
       ROUND(CAST((agg.bb + agg.bw + agg.ww) * nbc.nb
                  * (nbc.nb - 1) AS DOUBLE) / CAST(25 * 24
                  AS DOUBLE), 6) AS e_bb,
       ROUND(CAST((agg.bb + agg.bw + agg.ww) * 2 * nbc.nb
                  * nbc.nw AS DOUBLE) / CAST(25 * 24 AS DOUBLE), 6)
         AS e_bw,
       ROUND(CAST((agg.bb + agg.bw + agg.ww) * nbc.nw
                  * (nbc.nw - 1) AS DOUBLE) / CAST(25 * 24
                  AS DOUBLE), 6) AS e_ww
FROM nbc, agg
"""


_CROSS_NN_SEGS = ("AUTOMOBILE", "BUILDING")


def q_cross_nn_median_d2(sf_dir: str):
    """Median nearest-neighbor squared distance from each AUTOMOBILE
    point to the BUILDING point set (and the reverse) — the
    bivariate proximity summary (competitor-distance analysis) the
    cross-K curve integrates away: per A-point the exact integer
    min-d² against the broadcast B array (Hausdorff family budget;
    grid-sharded at scale), then the exact lower-median order
    statistic per direction via a (direction, d²) value-domain
    reduce.  The twin burns both n₁×n₂ joins."""
    from ray.data.aggregate import Sum
    s1, s2 = _CROSS_NN_SEGS
    pts = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    ref = relational.ds_to_table(pts).to_pandas()
    arrs = {}
    for s in (s1, s2):
        k = ref.loc[ref["c_mktsegment"] == s, "c_custkey"] \
            .to_numpy(np.int64)
        arrs[s] = ((k * 7919) % 1000, (k * 104729) % 1000)
    bref = ray.put(arrs)

    def nn(t: pa.Table) -> pa.Table:
        ar = relational.worker_cached(("cross_nn", bref),
                                      lambda: ray.get(bref))
        seg = t["c_mktsegment"].to_numpy(zero_copy_only=False)
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = (k * 7919) % 1000
        y = (k * 104729) % 1000
        outs = []
        for src, dst in ((s1, s2), (s2, s1)):
            m = seg == src
            if not m.any() or not len(ar[dst][0]):
                continue
            dx = x[m][:, None] - ar[dst][0][None, :]
            dy = y[m][:, None] - ar[dst][1][None, :]
            d2 = (dx * dx + dy * dy).min(axis=1)
            g = pd.DataFrame({"dir": f"{src}->{dst}", "d2": d2,
                              "c": 1}) \
                .groupby(["dir", "d2"], sort=False).sum() \
                .reset_index()
            outs.append(g)
        if not outs:
            return pa.table({
                "dir": pa.array([], type=pa.string()),
                "d2": pa.array([], type=pa.int64()),
                "c": pa.array([], type=pa.int64())})
        return pa.Table.from_pandas(pd.concat(outs),
                                    preserve_index=False)

    vd = relational.ds_to_table(
        pts.map_batches(nn, batch_format="pyarrow")
        .groupby(["dir", "d2"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    rows = []
    for dname, g in vd.groupby("dir"):
        g = g.sort_values("d2").reset_index(drop=True)
        n = int(g["c"].sum())
        kk = (n - 1) // 2 + 1
        cum = g["c"].cumsum()
        med = int(g.loc[cum >= kk, "d2"].iloc[0])
        rows.append({"direction": dname, "n_points": n,
                     "median_nn_d2": med})
    return pd.DataFrame(rows).sort_values("direction") \
        .reset_index(drop=True).astype({
            "n_points": np.int64, "median_nn_d2": np.int64})


SQL_CROSS_NN = """
WITH p AS (SELECT c_custkey AS ck, c_mktsegment AS seg,
                  (c_custkey * 7919) % 1000 AS x,
                  (c_custkey * 104729) % 1000 AS y
           FROM customer
           WHERE c_mktsegment IN ('AUTOMOBILE', 'BUILDING')),
nn AS (SELECT a.seg || '->' ||
              CASE WHEN a.seg = 'AUTOMOBILE' THEN 'BUILDING'
                   ELSE 'AUTOMOBILE' END AS dir,
              MIN((a.x - b.x) * (a.x - b.x)
                  + (a.y - b.y) * (a.y - b.y)) AS d2
       FROM p a JOIN p b ON b.seg <> a.seg
       GROUP BY a.seg, a.ck),
r AS (SELECT dir, d2, ROW_NUMBER() OVER (PARTITION BY dir
                                         ORDER BY d2) AS rn,
             COUNT(*) OVER (PARTITION BY dir) AS n
      FROM nn)
SELECT dir AS direction, CAST(MAX(n) AS BIGINT) AS n_points,
       CAST(MAX(CASE WHEN rn = (n - 1) // 2 + 1 THEN d2 END)
            AS BIGINT) AS median_nn_d2
FROM r GROUP BY dir ORDER BY dir
"""


def q_mean_center_shift_segments(sf_dir: str):
    """Mean-center shift between the AUTOMOBILE and BUILDING point
    populations — centrography's simplest two-sample comparison (did
    the customer base move?): each segment's centroid is an exact
    integer-sum ratio, the squared shift scales to the exact integer
    (Σxₐ·n_b − Σx_b·nₐ)² + (…y…)² over (nₐ·n_b)², and only the
    reported distance takes a square root."""
    from ray.data.aggregate import Sum
    pts = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def partial(t: pa.Table) -> pa.Table:
        seg = t["c_mktsegment"].to_numpy(zero_copy_only=False)
        keep = (seg == "AUTOMOBILE") | (seg == "BUILDING")
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[keep]
        s = seg[keep]
        x = (k * 7919) % 1000
        y = (k * 104729) % 1000
        g = pd.DataFrame({"seg": s, "n": 1, "sx": x, "sy": y}) \
            .groupby("seg", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        pts.map_batches(partial, batch_format="pyarrow")
        .groupby("seg").aggregate(Sum("n", alias_name="n"),
                                  Sum("sx", alias_name="sx"),
                                  Sum("sy", alias_name="sy"))
    ).to_pandas().set_index("seg")
    na, nb = int(agg.loc["AUTOMOBILE", "n"]), \
        int(agg.loc["BUILDING", "n"])
    sxa, sya = int(agg.loc["AUTOMOBILE", "sx"]), \
        int(agg.loc["AUTOMOBILE", "sy"])
    sxb, syb = int(agg.loc["BUILDING", "sx"]), \
        int(agg.loc["BUILDING", "sy"])
    num = (sxa * nb - sxb * na) ** 2 + (sya * nb - syb * na) ** 2
    shift = math.sqrt(float(num)) / (float(na) * float(nb))
    return pd.DataFrame([{
        "n_a": na, "n_b": nb, "shift_num": num,
        "center_shift": float(np.round(shift, 6))}]).astype({
            "n_a": np.int64, "n_b": np.int64,
            "shift_num": np.int64})


SQL_MEAN_CENTER_SHIFT = """
WITH p AS (SELECT c_mktsegment AS seg,
                  (c_custkey * 7919) % 1000 AS x,
                  (c_custkey * 104729) % 1000 AS y
           FROM customer
           WHERE c_mktsegment IN ('AUTOMOBILE', 'BUILDING')),
a AS (SELECT seg, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(x) AS HUGEINT) AS sx,
             CAST(SUM(y) AS HUGEINT) AS sy
      FROM p GROUP BY 1),
f AS (SELECT aa.n AS na, bb.n AS nb,
             (aa.sx * bb.n - bb.sx * aa.n)
             * (aa.sx * bb.n - bb.sx * aa.n)
             + (aa.sy * bb.n - bb.sy * aa.n)
               * (aa.sy * bb.n - bb.sy * aa.n) AS num
      FROM a aa, a bb
      WHERE aa.seg = 'AUTOMOBILE' AND bb.seg = 'BUILDING')
SELECT na AS n_a, nb AS n_b, CAST(num AS BIGINT) AS shift_num,
       ROUND(SQRT(CAST(num AS DOUBLE))
             / (CAST(na AS DOUBLE) * CAST(nb AS DOUBLE)), 6)
         AS center_shift
FROM f
"""


_NEYMAN_BUDGET = 1000


def q_neyman_allocation_nations(sf_dir: str):
    """Neyman optimal allocation of a 1000-unit sample across nation
    strata — the survey-design companion of the DEFF op: n_h ∝
    N_h·σ_h minimizes the stratified-mean variance, with σ_h from
    exact acctbal-cents moments.  Weights quantize ONCE to integer
    micro-units (floor of the identical double √), and the integer
    budget splits by LARGEST-REMAINDER apportionment — floor shares
    plus one extra seat to the biggest remainders (remainder ties to
    the smaller nation) — so every allocation is an exact integer
    decision both sides replay."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({
            "nk": t["c_nationkey"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "n": 1, "s": cents, "q": cents * cents}) \
            .groupby("nk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("nk").aggregate(Sum("n", alias_name="n"),
                                 Sum("s", alias_name="s"),
                                 Sum("q", alias_name="q"))
    ).to_pandas().sort_values("nk").reset_index(drop=True)
    ws = []
    for r in agg.itertuples(index=False):
        n, s, q = int(r.n), int(r.s), int(r.q)
        sig = math.sqrt(float(n * q - s * s)) / float(n)
        w = int(math.floor(float(n) * sig * 1e6))
        ws.append((int(r.nk), n, w))
    W = sum(w for _, _, w in ws)
    B = _NEYMAN_BUDGET
    floors = [(nk, n, w, (B * w) // W, (B * w) % W)
              for nk, n, w in ws]
    used = sum(f[3] for f in floors)
    extra = B - used
    by_rem = sorted(floors, key=lambda f: (-f[4], f[0]))
    bonus = {f[0] for f in by_rem[:extra]}
    rows = []
    for nk, n, w, fl, rem in floors:
        rows.append({
            "nationkey": nk, "stratum_size": n,
            "weight_micro": w,
            "allocation": fl + (1 if nk in bonus else 0)})
    out = pd.DataFrame(rows).astype({
        "nationkey": np.int64, "stratum_size": np.int64,
        "weight_micro": np.int64, "allocation": np.int64})
    assert int(out["allocation"].sum()) == B
    return out


SQL_NEYMAN = f"""
WITH a AS (SELECT c_nationkey AS nk, CAST(COUNT(*) AS BIGINT) AS n,
                  SUM(CAST(FLOOR(c_acctbal * 100 + 0.5)
                           AS HUGEINT)) AS s,
                  SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS HUGEINT)
                      * CAST(FLOOR(c_acctbal * 100 + 0.5)
                             AS HUGEINT)) AS q
           FROM customer GROUP BY 1),
w AS (SELECT nk, n,
             CAST(FLOOR(CAST(n AS DOUBLE)
                  * (SQRT(CAST(n * q - s * s AS DOUBLE))
                     / CAST(n AS DOUBLE)) * 1e6) AS HUGEINT) AS wm
      FROM a),
t AS (SELECT SUM(wm) AS ww FROM w),
f AS (SELECT w.nk, w.n, w.wm,
             ({_NEYMAN_BUDGET} * w.wm) // t.ww AS fl,
             ({_NEYMAN_BUDGET} * w.wm) % t.ww AS rem
      FROM w, t),
u AS (SELECT SUM(fl) AS used FROM f),
rk AS (SELECT nk, ROW_NUMBER() OVER (ORDER BY rem DESC, nk) AS r
       FROM f)
SELECT f.nk AS nationkey, f.n AS stratum_size,
       CAST(f.wm AS BIGINT) AS weight_micro,
       CAST(f.fl + CASE WHEN rk.r <= {_NEYMAN_BUDGET} - u.used
                        THEN 1 ELSE 0 END AS BIGINT) AS allocation
FROM f JOIN rk USING (nk), u
ORDER BY f.nk
"""


def q_gearys_c_nation_revenue(sf_dir: str):
    """Geary's C spatial autocorrelation of nation revenue on the
    5×5 rook grid — Moran's I's locally-sensitive sibling (C < 1
    clustered, > 1 dispersed; C reacts to local differences where I
    reacts to global covariance): with the n-scaling identity
    C = (n−1)·n²·Σ_edges(xᵢ−xⱼ)² / (2·S₀·D), numerator and
    denominator are ARBITRARY-PRECISION integers (D = Σ(n·x−S)²),
    one mirrored division.  Same bucketed revenue reduce as the
    Moran op."""
    from ray.data.aggregate import Sum

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda t: pa.table({
            "o_custkey": t["c_custkey"],
            "nk": t["c_nationkey"].cast(pa.int64())}),
            batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def combine(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"nk": t["nk"].to_numpy(
            zero_copy_only=False), "pc_": cents}) \
            .groupby("nk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        relational.bucketed_hash_join(orders, cust, on="o_custkey",
                                      combine=combine)
        .groupby("nk").aggregate(Sum("pc_", alias_name="cents"))
    ).to_pandas()
    x = {int(r.nk): int(r.cents) for r in agg.itertuples()}
    xs = [x.get(nk, 0) for nk in range(25)]
    n = 25
    S = sum(xs)
    D = sum((n * v - S) ** 2 for v in xs)
    E = 0
    ne = 0
    for nk in range(25):
        c, r = nk % 5, nk // 5
        if c + 1 < 5:
            E += (xs[nk] - xs[nk + 1]) ** 2
            ne += 1
        if r + 1 < 5:
            E += (xs[nk] - xs[nk + 5]) ** 2
            ne += 1
    s0 = 2 * ne
    cg = float((n - 1) * n * n * E) / float(2 * s0 * D)
    return pd.DataFrame([{
        "n_nations": n, "s0": s0,
        "gearys_c": float(np.round(cg, 6))}]).astype({
            "n_nations": np.int64, "s0": np.int64})


SQL_GEARYS_C = """
WITH rev AS (SELECT c_nationkey AS nk,
                    SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                      AS cents
             FROM orders JOIN customer ON o_custkey = c_custkey
             GROUP BY 1),
grid AS (SELECT nk, COALESCE(rev.cents, 0) AS x
         FROM (SELECT unnest(generate_series(0, 24)) AS nk)
         LEFT JOIN rev USING (nk)),
s AS (SELECT SUM(x) AS sx FROM grid),
d AS (SELECT SUM((25 * x - s.sx) * (25 * x - s.sx)) AS dd
      FROM grid, s),
e AS (SELECT SUM((a.x - b.x) * (a.x - b.x)) AS ee,
             CAST(COUNT(*) AS BIGINT) AS ne
      FROM grid a JOIN grid b
        ON (b.nk = a.nk + 1 AND a.nk % 5 < 4)
        OR (b.nk = a.nk + 5 AND a.nk // 5 < 4))
SELECT CAST(25 AS BIGINT) AS n_nations,
       CAST(2 * e.ne AS BIGINT) AS s0,
       ROUND(CAST(24 * 25 * 25 * e.ee AS DOUBLE)
             / CAST(2 * (2 * e.ne) * d.dd AS DOUBLE), 6)
         AS gearys_c
FROM e, d
"""


def q_qn_scale_by_nation(sf_dir: str):
    """Rousseeuw–Croux Qn robust scale per nation — the modern
    50 %-breakdown spread estimator that, unlike MAD, needs no
    location and keeps 82 % efficiency: the k-th smallest pairwise
    absolute difference with k = C(h,2), h = ⌊n/2⌋+1.  Every
    pairwise |difference| is an exact integer cent and the order
    statistic is an exact selection (vectorized n² enumeration
    inside the nation-bucket shuffle — nations are bounded); the
    twin replays the pair join with ROW_NUMBER.  The 2.2219
    consistency constant multiplies once, mirrored."""
    from ray.data.aggregate import Max
    cu = _read(sf_dir, "customer", ["c_custkey", "c_nationkey",
                                    "c_acctbal"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for nk, gn in g.groupby("c_nationkey", sort=False):
            v = np.sort(np.floor(gn["c_acctbal"].to_numpy()
                                 * 100 + 0.5).astype(np.int64))
            n = len(v)
            if n < 2:
                continue
            h = n // 2 + 1
            k = h * (h - 1) // 2
            d = np.abs(v[:, None] - v[None, :])
            iu = np.triu_indices(n, 1)
            diffs = np.sort(d[iu])
            qn_raw = int(diffs[k - 1])
            out.append({"nk": int(nk), "n": n, "qn_raw": qn_raw})
        return pd.DataFrame(out, columns=["nk", "n", "qn_raw"])

    agg = relational.ds_to_table(
        cu.map_batches(lambda t: t.append_column(
            "_b", pa.array(relational.stable_bucket(
                t["c_nationkey"], 32))), batch_format="pyarrow")
        .groupby("_b").map_groups(per_bucket, batch_format="pandas")
        .groupby("nk").aggregate(Max("n", alias_name="n"),
                                 Max("qn_raw", alias_name="qn_raw"))
    ).to_pandas().sort_values("nk").reset_index(drop=True)
    return pd.DataFrame({
        "nationkey": agg["nk"].astype(np.int64),
        "n_customers": agg["n"].astype(np.int64),
        "qn_raw_cents": agg["qn_raw"].astype(np.int64),
        "qn_scale": np.round(
            2.2219 * agg["qn_raw"].to_numpy(np.int64)
            .astype(np.float64), 6)})


SQL_QN_SCALE = """
WITH p AS (SELECT c_nationkey AS nk, c_custkey AS ck,
                  CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT) AS v
           FROM customer),
n AS (SELECT nk, CAST(COUNT(*) AS BIGINT) AS n FROM p GROUP BY 1),
d AS (SELECT a.nk, ABS(a.v - b.v) AS ad,
             ROW_NUMBER() OVER (PARTITION BY a.nk
                                ORDER BY ABS(a.v - b.v)) AS rn
      FROM p a JOIN p b ON b.nk = a.nk AND b.ck > a.ck),
k AS (SELECT nk, n, (n // 2 + 1) * (n // 2) // 2 AS kk
      FROM n WHERE n >= 2)
SELECT k.nk AS nationkey, k.n AS n_customers,
       CAST(d.ad AS BIGINT) AS qn_raw_cents,
       ROUND(2.2219 * CAST(d.ad AS DOUBLE), 6) AS qn_scale
FROM k JOIN d ON d.nk = k.nk AND d.rn = k.kk
ORDER BY nationkey
"""


def q_hodges_lehmann_acctbal(sf_dir: str):
    """Hodges–Lehmann pseudo-median of acctbal per nation — the
    rank-based location estimator (the point estimate behind the
    Wilcoxon test, 96 % efficient yet 29 %-breakdown robust): the
    lower median of all n(n+1)/2 Walsh averages (vᵢ+vⱼ)/2, i ≤ j.
    Walsh SUMS stay exact integer cents (the /2 happens once,
    mirrored), the median is an exact selection inside the
    nation-bucket shuffle, and the twin replays the i ≤ j pair join
    with ROW_NUMBER."""
    from ray.data.aggregate import Max
    cu = _read(sf_dir, "customer", ["c_custkey", "c_nationkey",
                                    "c_acctbal"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for nk, gn in g.groupby("c_nationkey", sort=False):
            v = np.sort(np.floor(gn["c_acctbal"].to_numpy()
                                 * 100 + 0.5).astype(np.int64))
            n = len(v)
            s = (v[:, None] + v[None, :])
            iu = np.triu_indices(n, 0)
            ws = np.sort(s[iu])
            m = len(ws)
            med2 = int(ws[(m - 1) // 2])
            out.append({"nk": int(nk), "n": n, "hl2": med2})
        return pd.DataFrame(out, columns=["nk", "n", "hl2"])

    agg = relational.ds_to_table(
        cu.map_batches(lambda t: t.append_column(
            "_b", pa.array(relational.stable_bucket(
                t["c_nationkey"], 32))), batch_format="pyarrow")
        .groupby("_b").map_groups(per_bucket, batch_format="pandas")
        .groupby("nk").aggregate(Max("n", alias_name="n"),
                                 Max("hl2", alias_name="hl2"))
    ).to_pandas().sort_values("nk").reset_index(drop=True)
    return pd.DataFrame({
        "nationkey": agg["nk"].astype(np.int64),
        "n_customers": agg["n"].astype(np.int64),
        "walsh_median2_cents": agg["hl2"].astype(np.int64),
        "hodges_lehmann": np.round(
            agg["hl2"].to_numpy(np.int64).astype(np.float64)
            / 2.0, 6)})


SQL_HODGES_LEHMANN = """
WITH p AS (SELECT c_nationkey AS nk, c_custkey AS ck,
                  CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT) AS v
           FROM customer),
w AS (SELECT a.nk, a.v + b.v AS s,
             ROW_NUMBER() OVER (PARTITION BY a.nk
                                ORDER BY a.v + b.v) AS rn,
             COUNT(*) OVER (PARTITION BY a.nk) AS m
      FROM p a JOIN p b ON b.nk = a.nk AND b.ck >= a.ck)
SELECT nk AS nationkey,
       CAST((SELECT COUNT(*) FROM p x WHERE x.nk = w.nk)
            AS BIGINT) AS n_customers,
       CAST(MAX(CASE WHEN rn = (m - 1) // 2 + 1 THEN s END)
            AS BIGINT) AS walsh_median2_cents,
       ROUND(CAST(MAX(CASE WHEN rn = (m - 1) // 2 + 1 THEN s END)
                  AS DOUBLE) / 2.0, 6) AS hodges_lehmann
FROM w GROUP BY nk ORDER BY nationkey
"""


def q_segment_mix_entropy_cells(sf_dir: str):
    """Land-use-mix entropy per 200-unit cell — urban planning's
    diversity index (a cell hosting one segment is a monoculture,
    ln 5 means perfectly mixed): Shannon entropy of the segment
    composition per nation cell, with every term NANO-QUANTIZED
    before summation (the registry's integer-entropy convention).
    One bounded (cell × segment) reduce; the normalized mix share
    divides once."""
    import math as _m
    from ray.data.aggregate import Sum
    pts = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = (k * 7919) % 1000
        y = (k * 104729) % 1000
        cell = (x // 200) + 5 * (y // 200)
        g = pd.DataFrame({
            "cell": cell,
            "seg": t["c_mktsegment"].to_numpy(zero_copy_only=False),
            "c": 1}).groupby(["cell", "seg"], sort=False) \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        pts.map_batches(partial, batch_format="pyarrow")
        .groupby(["cell", "seg"]).aggregate(
            Sum("c", alias_name="c"))
    ).to_pandas()
    rows = []
    for cell, g in agg.groupby("cell"):
        n = int(g["c"].sum())
        hn = sum(int(_m.floor((int(c) / n) * _m.log(int(c) / n)
                              * 1e9 + 0.5))
                 for c in g["c"])
        ent = -(float(hn) / 1e9)
        rows.append({
            "cell": int(cell), "n_customers": n,
            "n_segments": len(g), "entropy_nano": -hn,
            "mix_share": float(np.round(
                ent / _m.log(5.0), 6))})
    return pd.DataFrame(rows).sort_values("cell") \
        .reset_index(drop=True).astype({
            "cell": np.int64, "n_customers": np.int64,
            "n_segments": np.int64, "entropy_nano": np.int64})


SQL_SEGMENT_MIX = """
WITH p AS (SELECT ((c_custkey * 7919) % 1000) // 200
                  + 5 * (((c_custkey * 104729) % 1000) // 200)
                    AS cell,
                  c_mktsegment AS seg
           FROM customer),
c AS (SELECT cell, seg, CAST(COUNT(*) AS BIGINT) AS c
      FROM p GROUP BY 1, 2),
n AS (SELECT cell, SUM(c) AS n, CAST(COUNT(*) AS BIGINT) AS k
      FROM c GROUP BY 1),
h AS (SELECT c.cell,
             SUM(CAST(FLOOR((CAST(c.c AS DOUBLE) / n.n)
                 * LN(CAST(c.c AS DOUBLE) / n.n)
                 * 1000000000.0 + 0.5) AS BIGINT)) AS hn
      FROM c JOIN n USING (cell) GROUP BY 1)
SELECT n.cell, CAST(n.n AS BIGINT) AS n_customers,
       n.k AS n_segments,
       CAST(-h.hn AS BIGINT) AS entropy_nano,
       ROUND(-(CAST(h.hn AS DOUBLE) / 1e9) / LN(5.0), 6)
         AS mix_share
FROM n JOIN h USING (cell) ORDER BY n.cell
"""


def q_colocation_quotient_segments(sf_dir: str):
    """Colocation quotient CLQ(A→B) between the AUTOMOBILE and
    BUILDING point populations — the modern categorical colocation
    measure (Leslie & Kronenfeld): of A's nearest neighbors (over
    the combined pattern, self excluded, exact integer d² with
    smaller-custkey ties), what fraction are B, relative to B's
    global share (N_B/(N−1))?  NN counts are exact via the
    broadcast combined arrays (Hausdorff-family budget); the CLQ is
    one mirrored ratio each way."""
    from ray.data.aggregate import Sum
    pts = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    ref = relational.ds_to_table(pts).to_pandas()
    ref = ref[ref["c_mktsegment"].isin(["AUTOMOBILE", "BUILDING"])]
    rk = ref["c_custkey"].to_numpy(np.int64)
    order = np.argsort(rk, kind="stable")
    rk = rk[order]
    rseg = ref["c_mktsegment"].to_numpy()[order]
    rx = (rk * 7919) % 1000
    ry = (rk * 104729) % 1000
    bref = ray.put((rk, rx, ry, rseg == "BUILDING"))

    def nn(t: pa.Table) -> pa.Table:
        k_, x_, y_, isb = relational.worker_cached(
            ("clq_ref", bref), lambda: ray.get(bref))
        seg = t["c_mktsegment"].to_numpy(zero_copy_only=False)
        keep = (seg == "AUTOMOBILE") | (seg == "BUILDING")
        pk = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[keep]
        ps = seg[keep]
        px = (pk * 7919) % 1000
        py = (pk * 104729) % 1000
        d2 = (px[:, None] - x_[None, :]) ** 2 \
            + (py[:, None] - y_[None, :]) ** 2
        comp = d2 * (1 << 20) + k_[None, :]
        comp[pk[:, None] == k_[None, :]] = np.iinfo(np.int64).max
        nn_idx = np.argmin(comp, axis=1)
        nn_is_b = isb[nn_idx]
        g = pd.DataFrame({
            "src": np.where(ps == "AUTOMOBILE", "A", "B"),
            "n": 1, "to_b": nn_is_b.astype(np.int64)}) \
            .groupby("src", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        pts.map_batches(nn, batch_format="pyarrow")
        .groupby("src").aggregate(Sum("n", alias_name="n"),
                                  Sum("to_b", alias_name="to_b"))
    ).to_pandas().set_index("src")
    na, nb = int(agg.loc["A", "n"]), int(agg.loc["B", "n"])
    ntot = na + nb
    a_to_b = int(agg.loc["A", "to_b"])
    b_to_a = int(agg.loc["B", "n"]) - int(agg.loc["B", "to_b"])
    clq_ab = (float(a_to_b) / float(na)) \
        / (float(nb) / float(ntot - 1))
    clq_ba = (float(b_to_a) / float(nb)) \
        / (float(na) / float(ntot - 1))
    return pd.DataFrame([{
        "n_a": na, "n_b": nb, "a_nn_in_b": a_to_b,
        "b_nn_in_a": b_to_a,
        "clq_ab": float(np.round(clq_ab, 6)),
        "clq_ba": float(np.round(clq_ba, 6))}]).astype({
            "n_a": np.int64, "n_b": np.int64,
            "a_nn_in_b": np.int64, "b_nn_in_a": np.int64})


SQL_COLOCATION = """
WITH p AS (SELECT c_custkey AS ck, c_mktsegment AS seg,
                  (c_custkey * 7919) % 1000 AS x,
                  (c_custkey * 104729) % 1000 AS y
           FROM customer
           WHERE c_mktsegment IN ('AUTOMOBILE', 'BUILDING')),
nn AS (SELECT ck, seg, bseg FROM (
         SELECT a.ck, a.seg, b.seg AS bseg,
                ROW_NUMBER() OVER (
                  PARTITION BY a.ck
                  ORDER BY (a.x - b.x) * (a.x - b.x)
                           + (a.y - b.y) * (a.y - b.y), b.ck) AS rn
         FROM p a JOIN p b ON b.ck <> a.ck) WHERE rn = 1),
agg AS (SELECT
          CAST(SUM(CASE WHEN seg = 'AUTOMOBILE' THEN 1 ELSE 0 END)
               AS BIGINT) AS na,
          CAST(SUM(CASE WHEN seg = 'BUILDING' THEN 1 ELSE 0 END)
               AS BIGINT) AS nb,
          CAST(SUM(CASE WHEN seg = 'AUTOMOBILE'
                        AND bseg = 'BUILDING' THEN 1 ELSE 0 END)
               AS BIGINT) AS ab,
          CAST(SUM(CASE WHEN seg = 'BUILDING'
                        AND bseg = 'AUTOMOBILE' THEN 1 ELSE 0 END)
               AS BIGINT) AS ba
        FROM nn)
SELECT na AS n_a, nb AS n_b, ab AS a_nn_in_b, ba AS b_nn_in_a,
       ROUND((CAST(ab AS DOUBLE) / CAST(na AS DOUBLE))
             / (CAST(nb AS DOUBLE)
                / CAST(na + nb - 1 AS DOUBLE)), 6) AS clq_ab,
       ROUND((CAST(ba AS DOUBLE) / CAST(nb AS DOUBLE))
             / (CAST(na AS DOUBLE)
                / CAST(na + nb - 1 AS DOUBLE)), 6) AS clq_ba
FROM agg
"""


def q_join_order_cost_compare(sf_dir: str):
    """Planner join-order audit: the System-R cardinality estimate
    |R⋈S| = |R|·|S| / max(ndv_R(k), ndv_S(k)) evaluated for BOTH
    orders of the filtered 3-way chain  σ(customer) ⋈ σ(orders) ⋈
    σ(lineitem)  against the EXACT intermediate cardinalities — the
    q-error table a cost model is judged by (and the decision the
    join-order optimizer gets right or wrong).  Counts and distinct
    counts are distributed (semi-join + per-batch-unique groupbys);
    estimates use integer floor division so both sides agree exactly;
    q-error = max(est/act, act/est) is one mirrored double pair."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_discount"])
    lo = np.datetime64("1996-01-01T00:00:00")
    hi = np.datetime64("1998-01-01T00:00:00")

    cf = cust.filter(expr="c_mktsegment == 'BUILDING'") \
        .map_batches(lambda t: t.select(["c_custkey"]),
                     batch_format="pyarrow")
    of = orders.map_batches(
        lambda t: t.filter(pc.and_(
            pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
            pc.less(t["o_orderdate"], pa.scalar(hi))))
        .select(["o_orderkey", "o_custkey"]), batch_format="pyarrow")
    lf = li.map_batches(
        lambda t: t.filter(pc.greater(t["l_discount"], 0.05))
        .select(["l_orderkey"]), batch_format="pyarrow")

    def ndv(ds, col: str) -> int:
        def part(t: pa.Table) -> pa.Table:
            u = pc.unique(t[col])
            return pa.table({col: u})
        return ds.map_batches(part, batch_format="pyarrow") \
            .groupby(col).count().count()

    of = of.materialize()
    lf = lf.materialize()
    n_c = cf.count()
    n_o = of.count()
    n_l = lf.count()
    d_ck_o = ndv(of, "o_custkey")
    d_ok_l = ndv(lf, "l_orderkey")

    co = relational.bucketed_semi_join(
        of, cf.map_batches(
            lambda t: t.rename_columns(["o_custkey"]),
            batch_format="pyarrow"), on="o_custkey").materialize()
    act_co = co.count()
    ol_orders = relational.bucketed_semi_join(
        of, lf.map_batches(
            lambda t: pa.table({"o_orderkey": pc.unique(t["l_orderkey"])}),
            batch_format="pyarrow"), on="o_orderkey").materialize()
    act_ol = relational.bucketed_semi_join(
        lf, of.map_batches(
            lambda t: t.select(["o_orderkey"]).rename_columns(
                ["l_orderkey"]), batch_format="pyarrow"),
        on="l_orderkey").count()
    d_ck_ol = ndv(ol_orders, "o_custkey")
    act_col = relational.bucketed_semi_join(
        lf, co.map_batches(
            lambda t: t.select(["o_orderkey"]).rename_columns(
                ["l_orderkey"]), batch_format="pyarrow"),
        on="l_orderkey").count()

    def row(plan: str, est: int, act: int) -> dict:
        qe = max(float(est) / act, float(act) / est)
        return {"plan": plan, "est_rows": est, "act_rows": act,
                "q_err": round(qe, 6)}

    est_co = n_c * n_o // max(n_c, d_ck_o)
    est_ol = n_o * n_l // max(n_o, d_ok_l)
    est_co_l = act_co * n_l // max(act_co, d_ok_l)
    est_c_ol = n_c * act_ol // max(n_c, d_ck_ol)
    out = pd.DataFrame([row("co", est_co, act_co),
                        row("ol", est_ol, act_ol),
                        row("co_then_l", est_co_l, act_col),
                        row("c_then_ol", est_c_ol, act_col)])
    return out.astype({"est_rows": np.int64, "act_rows": np.int64})


SQL_JOIN_ORDER_COST = """
WITH cf AS (SELECT c_custkey FROM customer
            WHERE c_mktsegment = 'BUILDING'),
of AS (SELECT o_orderkey, o_custkey FROM orders
       WHERE o_orderdate >= TIMESTAMP '1996-01-01'
         AND o_orderdate < TIMESTAMP '1998-01-01'),
lf AS (SELECT l_orderkey FROM lineitem WHERE l_discount > 0.05),
base AS (SELECT (SELECT COUNT(*) FROM cf) AS n_c,
                (SELECT COUNT(*) FROM of) AS n_o,
                (SELECT COUNT(*) FROM lf) AS n_l,
                (SELECT COUNT(DISTINCT o_custkey) FROM of) AS d_ck_o,
                (SELECT COUNT(DISTINCT l_orderkey) FROM lf) AS d_ok_l),
co AS (SELECT o_orderkey, o_custkey FROM of
       WHERE o_custkey IN (SELECT c_custkey FROM cf)),
olo AS (SELECT o_orderkey, o_custkey FROM of
        WHERE o_orderkey IN (SELECT l_orderkey FROM lf)),
acts AS (SELECT (SELECT COUNT(*) FROM co) AS act_co,
                (SELECT COUNT(*) FROM lf
                 WHERE l_orderkey IN (SELECT o_orderkey FROM of))
                  AS act_ol,
                (SELECT COUNT(DISTINCT o_custkey) FROM olo) AS d_ck_ol,
                (SELECT COUNT(*) FROM lf
                 WHERE l_orderkey IN (SELECT o_orderkey FROM co))
                  AS act_col),
r AS (SELECT 'co' AS plan,
             n_c * n_o // GREATEST(n_c, d_ck_o) AS est_rows,
             act_co AS act_rows
      FROM base, acts
      UNION ALL
      SELECT 'ol', n_o * n_l // GREATEST(n_o, d_ok_l), act_ol
      FROM base, acts
      UNION ALL
      SELECT 'co_then_l',
             act_co * n_l // GREATEST(act_co, d_ok_l), act_col
      FROM base, acts
      UNION ALL
      SELECT 'c_then_ol',
             n_c * act_ol // GREATEST(n_c, d_ck_ol), act_col
      FROM base, acts)
SELECT plan, CAST(est_rows AS BIGINT) AS est_rows,
       CAST(act_rows AS BIGINT) AS act_rows,
       ROUND(GREATEST(CAST(est_rows AS DOUBLE) / act_rows,
                      CAST(act_rows AS DOUBLE) / est_rows), 6) AS q_err
FROM r
"""


def q_clark_evans_index(sf_dir: str):
    """Clark–Evans aggregation index R over the synthetic customer
    points — the classic is-this-point-pattern-clustered test (R < 1
    clustered, = 1 Poisson-random, → 2.149 perfectly dispersed) that
    turns the NN-distance primitive into a decision statistic.
    Reuses the shared grid-accelerated exact-NN kernel
    (`_customer_nn_d2`); observed mean NN distance sums per-point
    SQRT doubles (scale-free ratio, 6-dp round), the expected distance
    0.5/√(n/A) and the z-score use the domain area A = 1000² with
    float expressions mirrored verbatim in the twin."""
    d2 = _customer_nn_d2(sf_dir)
    n = len(d2)
    d_obs = float(np.sum(np.sqrt(d2.astype(np.float64)))) / n
    d_exp = 0.5 / math.sqrt(n / 1000000.0)
    r_ce = d_obs / d_exp
    z = (d_obs - d_exp) / (0.26136 / math.sqrt(n * n / 1000000.0))
    return pd.DataFrame({"n": pd.array([n], dtype=np.int64),
                         "d_obs": [round(d_obs, 6)],
                         "d_exp": [round(d_exp, 6)],
                         "r_ce": [round(r_ce, 6)],
                         "z": [round(z, 6)]})


SQL_CLARK_EVANS = """
WITH p AS (SELECT c_custkey AS k,
                  (c_custkey * 7919) % 1000 AS x,
                  (c_custkey * 104729) % 1000 AS y
           FROM customer),
nn AS (SELECT a.k,
              MIN((a.x - b.x) * (a.x - b.x)
                  + (a.y - b.y) * (a.y - b.y)) AS d2
       FROM p a JOIN p b ON a.k <> b.k GROUP BY a.k),
m AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             SUM(SQRT(CAST(d2 AS DOUBLE))) / COUNT(*) AS d_obs
      FROM nn)
SELECT n, ROUND(d_obs, 6) AS d_obs,
       ROUND(0.5 / SQRT(n / 1000000.0), 6) AS d_exp,
       ROUND(d_obs / (0.5 / SQRT(n / 1000000.0)), 6) AS r_ce,
       ROUND((d_obs - 0.5 / SQRT(n / 1000000.0))
             / (0.26136 / SQRT(n * n / 1000000.0)), 6) AS z
FROM m
"""


def q_woe_encoding_segment(sf_dir: str):
    """Weight-of-evidence encoding of customer market segment against
    the positive-balance label — the credit-scoring categorical
    encoder (and its per-level information-value terms) every risk
    model card reports.  One bounded (segment × label) reduce gives
    exact counts; WoE = ln(((pos+0.5)/POS)/((neg+0.5)/NEG)) with the
    standard 0.5 adjustment and the IV term
    ((pos+0.5)/POS − (neg+0.5)/NEG)·WoE are mirrored float
    expressions.  A segment whose class mix equals the global mix
    lands at exactly WoE 0 only when the ratios agree exactly —
    pinned by the crafted golden."""
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_mktsegment", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        pos = (t["c_acctbal"].to_numpy(zero_copy_only=False)
               > 0.0).astype(np.int64)
        g = pd.DataFrame({"segment": t["c_mktsegment"].to_numpy(
            zero_copy_only=False), "pp": pos, "pn": 1 - pos}) \
            .groupby("segment", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby("segment").aggregate(Sum("pp", alias_name="n_pos"),
                                      Sum("pn", alias_name="n_neg"))
    ).to_pandas().sort_values("segment").reset_index(drop=True)
    tp = int(agg["n_pos"].sum())
    tn = int(agg["n_neg"].sum())
    rows = []
    for _, r in agg.iterrows():
        p, q = int(r["n_pos"]), int(r["n_neg"])
        woe = math.log(((p + 0.5) / tp) / ((q + 0.5) / tn))
        iv = ((p + 0.5) / tp - (q + 0.5) / tn) * woe
        rows.append({"segment": r["segment"], "n_pos": p, "n_neg": q,
                     "woe": round(woe, 6), "iv_term": round(iv, 6)})
    return pd.DataFrame(rows).astype({"n_pos": np.int64,
                                      "n_neg": np.int64})


SQL_WOE = """
WITH c AS (SELECT c_mktsegment AS segment,
                  CAST(SUM(CASE WHEN c_acctbal > 0.0
                                THEN 1 ELSE 0 END) AS BIGINT) AS n_pos,
                  CAST(SUM(CASE WHEN c_acctbal > 0.0
                                THEN 0 ELSE 1 END) AS BIGINT) AS n_neg
           FROM customer GROUP BY 1),
t AS (SELECT SUM(n_pos) AS tp, SUM(n_neg) AS tn FROM c)
SELECT segment, n_pos, n_neg,
       ROUND(ln(((n_pos + 0.5) / tp) / ((n_neg + 0.5) / tn)), 6)
         AS woe,
       ROUND(((n_pos + 0.5) / tp - (n_neg + 0.5) / tn)
             * ln(((n_pos + 0.5) / tp) / ((n_neg + 0.5) / tn)), 6)
         AS iv_term
FROM c, t ORDER BY segment
"""


def q_footprint_compactness_nation(sf_dir: str):
    """Polsby–Popper compactness 4πA/P² of each nation's RASTERIZED
    customer footprint (union of occupied 20-unit grid cells) — the
    shape-quality measure (gerrymandering compactness, service-area
    sprawl) computed on the region the raster family already builds.
    Area = 400·cells and perimeter = 20·(4·cells − 2·adjacent pairs)
    are exact integers from one bounded (nation × cell) distinct
    reduce + a neighbor self-join on the ≤2500-cell table; the PP
    ratio is one mirrored float expression.  A single-cell footprint
    lands exactly on the square's π/4."""
    from ray.data.aggregate import Sum
    pts = _read(sf_dir, "customer", ["c_custkey"])

    def cells(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = (k * 7919) % 1000
        y = (k * 104729) % 1000
        nat = (x // 200) + 5 * (y // 200)
        g = pd.DataFrame({"nat": nat, "cx": x // 20, "cy": y // 20}) \
            .drop_duplicates()
        g["pn"] = 1
        return pa.Table.from_pandas(g, preserve_index=False)

    occ = relational.ds_to_table(
        pts.map_batches(cells, batch_format="pyarrow")
        .groupby(["nat", "cx", "cy"]).aggregate(
            Sum("pn", alias_name="m"))).to_pandas()
    rows = []
    for n, g in occ.groupby("nat"):
        cs = set(zip(g["cx"].astype(int), g["cy"].astype(int)))
        nc = len(cs)
        adj = sum(1 for (cx, cy) in cs
                  if (cx + 1, cy) in cs) \
            + sum(1 for (cx, cy) in cs if (cx, cy + 1) in cs)
        area = 400 * nc
        perim = 20 * (4 * nc - 2 * adj)
        pp = 4.0 * 3.141592653589793 * area / (float(perim) * perim)
        rows.append({"n_nationkey": int(n), "n_cells": nc,
                     "perimeter": perim, "pp": round(pp, 6)})
    return pd.DataFrame(rows).sort_values("n_nationkey") \
        .reset_index(drop=True) \
        .astype({"n_nationkey": np.int64, "n_cells": np.int64,
                 "perimeter": np.int64})


SQL_FOOTPRINT_COMPACT = """
WITH p AS (SELECT DISTINCT
             ((c_custkey * 7919) % 1000) // 200
               + 5 * (((c_custkey * 104729) % 1000) // 200) AS nat,
             ((c_custkey * 7919) % 1000) // 20 AS cx,
             ((c_custkey * 104729) % 1000) // 20 AS cy
           FROM customer),
a AS (SELECT nat, CAST(COUNT(*) AS BIGINT) AS nc FROM p GROUP BY 1),
adj AS (SELECT x.nat, CAST(COUNT(*) AS BIGINT) AS na
        FROM p x JOIN p y ON y.nat = x.nat
         AND ((y.cx = x.cx + 1 AND y.cy = x.cy)
              OR (y.cx = x.cx AND y.cy = x.cy + 1))
        GROUP BY 1)
SELECT a.nat AS n_nationkey, a.nc AS n_cells,
       20 * (4 * a.nc - 2 * COALESCE(adj.na, 0)) AS perimeter,
       ROUND(4.0 * 3.141592653589793 * (400 * a.nc)
             / (CAST(20 * (4 * a.nc - 2 * COALESCE(adj.na, 0))
                     AS DOUBLE)
                * (20 * (4 * a.nc - 2 * COALESCE(adj.na, 0)))), 6)
         AS pp
FROM a LEFT JOIN adj ON adj.nat = a.nat
ORDER BY a.nat
"""


def q_weiszfeld_median_nation(sf_dir: str):
    """Geometric median (1-median / Weber point) of each nation's
    customer points via 3 smoothed Weiszfeld iterations from the
    centroid — the facility-location center that, unlike the mean, is
    robust to outliers.  Each iteration is ONE distributed pass:
    per-batch partial Σx/d, Σy/d, Σ1/d against the broadcast 25-row
    center table (d = √(d²+1e-9), the standard singularity smoothing),
    then a ≤25-row combine; centers re-quantize to 9 dp after every
    iteration so both sides re-synchronize instead of letting float
    echo compound.  The centroid start is an exact-int mean."""
    from ray.data.aggregate import Sum
    pts = _read(sf_dir, "customer", ["c_custkey"])

    def xy(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = (k * 7919) % 1000
        y = (k * 104729) % 1000
        nat = (x // 200) + 5 * (y // 200)
        return pa.table({"nat": pa.array(nat), "x": pa.array(x),
                         "y": pa.array(y)})

    pxy = pts.map_batches(xy, batch_format="pyarrow").materialize()
    c0 = relational.ds_to_table(
        pxy.groupby("nat").aggregate(Sum("x", alias_name="sx"),
                                     Sum("y", alias_name="sy"))
    ).to_pandas()
    cnt = relational.ds_to_table(pxy.groupby("nat").count()) \
        .to_pandas().rename(columns={"count()": "n"})
    c0 = c0.merge(cnt, on="nat").sort_values("nat")
    centers = {int(r.nat): (float(r.sx) / r.n, float(r.sy) / r.n)
               for r in c0.itertuples()}
    for _ in range(3):
        cref = ray.put(centers)

        def part(t: pa.Table, _c=cref) -> pa.Table:
            cc = relational.worker_cached(("weisz", _c),
                                          lambda: ray.get(_c))
            nat = t["nat"].to_numpy(zero_copy_only=False)
            x = t["x"].to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            y = t["y"].to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            gx = np.array([cc[int(n)][0] for n in nat])
            gy = np.array([cc[int(n)][1] for n in nat])
            d = np.sqrt((x - gx) * (x - gx) + (y - gy) * (y - gy)
                        + 1e-9)
            g = pd.DataFrame({"nat": nat, "wx": x / d, "wy": y / d,
                              "w": 1.0 / d}) \
                .groupby("nat", sort=False).sum().reset_index()
            return pa.Table.from_pandas(g, preserve_index=False)

        agg = relational.ds_to_table(
            pxy.map_batches(part, batch_format="pyarrow")
            .groupby("nat").aggregate(Sum("wx", alias_name="wx"),
                                      Sum("wy", alias_name="wy"),
                                      Sum("w", alias_name="w"))
        ).to_pandas()
        centers = {int(r.nat): (round(r.wx / r.w, 9),
                                round(r.wy / r.w, 9))
                   for r in agg.itertuples()}
    rows = [{"n_nationkey": n, "gx": round(c[0], 6),
             "gy": round(c[1], 6)}
            for n, c in sorted(centers.items())]
    return pd.DataFrame(rows).astype({"n_nationkey": np.int64})


def _sql_weiszfeld() -> str:
    it = """
g{K} AS (SELECT p.nat,
           ROUND(SUM(p.x / SQRT((p.x - g{P}.gx) * (p.x - g{P}.gx)
                       + (p.y - g{P}.gy) * (p.y - g{P}.gy) + 1e-9))
                 / SUM(1.0 / SQRT((p.x - g{P}.gx) * (p.x - g{P}.gx)
                       + (p.y - g{P}.gy) * (p.y - g{P}.gy) + 1e-9)),
                 9) AS gx,
           ROUND(SUM(p.y / SQRT((p.x - g{P}.gx) * (p.x - g{P}.gx)
                       + (p.y - g{P}.gy) * (p.y - g{P}.gy) + 1e-9))
                 / SUM(1.0 / SQRT((p.x - g{P}.gx) * (p.x - g{P}.gx)
                       + (p.y - g{P}.gy) * (p.y - g{P}.gy) + 1e-9)),
                 9) AS gy
         FROM p JOIN g{P} ON g{P}.nat = p.nat
         GROUP BY p.nat)"""
    its = ",".join(it.format(K=k, P=k - 1) for k in (1, 2, 3))
    return f"""
WITH p AS (SELECT (c_custkey * 7919) % 1000 AS x,
                  (c_custkey * 104729) % 1000 AS y,
                  ((c_custkey * 7919) % 1000) // 200
                    + 5 * (((c_custkey * 104729) % 1000) // 200) AS nat
           FROM customer),
g0 AS (SELECT nat, CAST(SUM(x) AS DOUBLE) / COUNT(*) AS gx,
              CAST(SUM(y) AS DOUBLE) / COUNT(*) AS gy
       FROM p GROUP BY nat),
{its}
SELECT nat AS n_nationkey, ROUND(gx, 6) AS gx, ROUND(gy, 6) AS gy
FROM g3 ORDER BY nat
"""


def q_kdtree_cell_counts(sf_dir: str):
    """2-level k-d tree partition of the customer points (median x
    split, then a median y split per side) — the ADAPTIVE spatial
    partitioner that, unlike the fixed grid, balances row counts under
    skew (what a spatial engine uses to assign balanced shards).
    Medians are exact (n+1)//2-th-smallest order statistics read from
    the BOUNDED coordinate histogram (domain ≤1000 values — no global
    sort); the cell assignment x≤medx / y≤medy_side is pure integer
    comparison on both sides."""
    from ray.data.aggregate import Sum
    pts = _read(sf_dir, "customer", ["c_custkey"])

    def hist(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = (k * 7919) % 1000
        y = (k * 104729) % 1000
        g = pd.DataFrame({"x": x, "y": y, "pn": 1}) \
            .groupby(["x", "y"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    h = relational.ds_to_table(
        pts.map_batches(hist, batch_format="pyarrow")
        .groupby(["x", "y"]).aggregate(Sum("pn", alias_name="n"))
    ).to_pandas()

    def med_of(df: pd.DataFrame, col: str) -> int:
        g = df.groupby(col)["n"].sum().sort_index()
        n = int(g.sum())
        target = (n + 1) // 2
        cum = g.cumsum()
        return int(cum.index[np.searchsorted(cum.to_numpy(), target)])

    medx = med_of(h, "x")
    left = h[h["x"] <= medx]
    right = h[h["x"] > medx]
    medy_l = med_of(left, "y")
    medy_r = med_of(right, "y")
    rows = [
        {"cell": "lx_ly", "x_split": medx, "y_split": medy_l,
         "n": int(left.loc[left["y"] <= medy_l, "n"].sum())},
        {"cell": "lx_hy", "x_split": medx, "y_split": medy_l,
         "n": int(left.loc[left["y"] > medy_l, "n"].sum())},
        {"cell": "hx_ly", "x_split": medx, "y_split": medy_r,
         "n": int(right.loc[right["y"] <= medy_r, "n"].sum())},
        {"cell": "hx_hy", "x_split": medx, "y_split": medy_r,
         "n": int(right.loc[right["y"] > medy_r, "n"].sum())}]
    return pd.DataFrame(rows).astype({"x_split": np.int64,
                                      "y_split": np.int64,
                                      "n": np.int64})


SQL_KDTREE = """
WITH p AS (SELECT (c_custkey * 7919) % 1000 AS x,
                  (c_custkey * 104729) % 1000 AS y
           FROM customer),
mx AS (SELECT x AS medx
       FROM (SELECT x, ROW_NUMBER() OVER (ORDER BY x) AS rn,
                    COUNT(*) OVER () AS n FROM p)
       WHERE rn = (n + 1) // 2),
sides AS (SELECT p.x, p.y,
                 CASE WHEN p.x <= mx.medx THEN 0 ELSE 1 END AS side
          FROM p, mx),
my AS (SELECT side, y AS medy
       FROM (SELECT side, y,
                    ROW_NUMBER() OVER (PARTITION BY side
                                       ORDER BY y) AS rn,
                    COUNT(*) OVER (PARTITION BY side) AS n
             FROM sides)
       WHERE rn = (n + 1) // 2),
cells AS (SELECT s.side, my.medy,
                 CASE WHEN s.y <= my.medy THEN 0 ELSE 1 END AS ys
          FROM sides s JOIN my ON my.side = s.side)
SELECT CASE WHEN side = 0 AND ys = 0 THEN 'lx_ly'
            WHEN side = 0 THEN 'lx_hy'
            WHEN ys = 0 THEN 'hx_ly'
            ELSE 'hx_hy' END AS cell,
       (SELECT CAST(medx AS BIGINT) FROM mx) AS x_split,
       CAST(MAX(medy) AS BIGINT) AS y_split,
       CAST(COUNT(*) AS BIGINT) AS n
FROM cells GROUP BY side, ys
"""


def q_std_ellipse_nation(sf_dir: str):
    """Standard deviational ellipse per nation over the synthetic
    customer point field — the centrographic summary (mean center,
    orientation, major/minor dispersion axes) every point-pattern
    atlas prints before any model: direction of a cloud's elongation
    from the covariance eigenstructure.  Per-nation power sums
    (n, Σx, Σy, Σx², Σy², Σxy) fold as EXACT ints in one bounded
    reduce (HUGEINT twin); the ≤25-row finish runs per nation with
    ``math`` libm calls whose COS/SIN/ATAN/SQRT bit-match DuckDB's on
    this host, every double expression mirrored term-for-term.
    dxy = 0 resolves orientation by the variance comparison (0 or
    π/2) exactly like the twin's CASE."""
    import math
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = (k * 7919) % 1000
        y = (k * 104729) % 1000
        g = pd.DataFrame({
            "nat": t["c_nationkey"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "pn": 1, "sx": x, "sy": y, "sxx": x * x, "syy": y * y,
            "sxy": x * y}).groupby("nat", sort=False).sum() \
            .reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("nat").aggregate(
            Sum("pn", alias_name="n"), Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"), Sum("sxx", alias_name="sxx"),
            Sum("syy", alias_name="syy"), Sum("sxy", alias_name="sxy"))
    ).to_pandas().sort_values("nat").reset_index(drop=True)

    rows = []
    for r in agg.itertuples(index=False):
        n = int(r.n)
        mx = float(int(r.sx)) / float(n)
        my = float(int(r.sy)) / float(n)
        dxx = float(int(r.sxx)) / float(n) - mx * mx
        dyy = float(int(r.syy)) / float(n) - my * my
        dxy = float(int(r.sxy)) / float(n) - mx * my
        aa = dxx - dyy
        bb = math.sqrt(aa * aa + 4.0 * dxy * dxy)
        if dxy == 0.0:
            theta = 0.0 if dxx >= dyy else math.pi / 2.0
        else:
            # eigenvector angle of the larger eigenvalue:
            # tan θ = (λmax − dxx)/dxy = ((dyy − dxx) + B)/(2·dxy),
            # so v1 below IS λmax and v2 IS λmin
            theta = math.atan(((dyy - dxx) + bb) / (2.0 * dxy))
        ct, st = math.cos(theta), math.sin(theta)
        v1 = ct * ct * dxx + 2.0 * st * ct * dxy + st * st * dyy
        v2 = st * st * dxx - 2.0 * st * ct * dxy + ct * ct * dyy
        rows.append({
            "nationkey": int(r.nat), "n_pts": n,
            "mean_x": float(np.round(mx, 6)),
            "mean_y": float(np.round(my, 6)),
            "theta_rad": float(np.round(theta, 6)),
            "sigma_major": float(np.round(
                math.sqrt(max(max(v1, v2), 0.0)), 6)),
            "sigma_minor": float(np.round(
                math.sqrt(max(min(v1, v2), 0.0)), 6))})
    return pd.DataFrame(rows).astype({"nationkey": np.int64,
                                      "n_pts": np.int64})


SQL_STD_ELLIPSE = """
WITH p AS (SELECT c_nationkey AS nat,
                  CAST((c_custkey * 7919) % 1000 AS HUGEINT) AS x,
                  CAST((c_custkey * 104729) % 1000 AS HUGEINT) AS y
           FROM customer),
a AS (SELECT nat, CAST(COUNT(*) AS BIGINT) AS n,
             SUM(x) AS sx, SUM(y) AS sy, SUM(x * x) AS sxx,
             SUM(y * y) AS syy, SUM(x * y) AS sxy
      FROM p GROUP BY 1),
m AS (SELECT nat, n, CAST(sx AS DOUBLE) / n AS mx,
             CAST(sy AS DOUBLE) / n AS my, sxx, syy, sxy
      FROM a),
c AS (SELECT nat, n, mx, my,
             CAST(sxx AS DOUBLE) / n - mx * mx AS dxx,
             CAST(syy AS DOUBLE) / n - my * my AS dyy,
             CAST(sxy AS DOUBLE) / n - mx * my AS dxy
      FROM m),
t AS (SELECT *, CASE WHEN dxy = 0.0
                     THEN CASE WHEN dxx >= dyy THEN 0.0
                               ELSE PI() / 2.0 END
                     ELSE ATAN(((dyy - dxx)
                                + SQRT((dxx - dyy) * (dxx - dyy)
                                       + 4.0 * dxy * dxy))
                               / (2.0 * dxy)) END AS theta
      FROM c),
v AS (SELECT *, COS(theta) AS ct, SIN(theta) AS st FROM t),
w AS (SELECT nat, n, mx, my, theta,
             ct * ct * dxx + 2.0 * st * ct * dxy + st * st * dyy AS v1,
             st * st * dxx - 2.0 * st * ct * dxy + ct * ct * dyy AS v2
      FROM v)
SELECT nat AS nationkey, n AS n_pts, ROUND(mx, 6) AS mean_x,
       ROUND(my, 6) AS mean_y, ROUND(theta, 6) AS theta_rad,
       ROUND(SQRT(GREATEST(GREATEST(v1, v2), 0.0)), 6) AS sigma_major,
       ROUND(SQRT(GREATEST(LEAST(v1, v2), 0.0)), 6) AS sigma_minor
FROM w ORDER BY nationkey
"""


def q_atkinson_index_nation(sf_dir: str):
    """Atkinson inequality index (ε = 2) of per-customer revenue by
    nation — the welfare-economics inequality measure with an explicit
    aversion parameter, the third canon next to the registry's Gini
    and Theil: A₂ = 1 − harmonic_mean/mean.  The reciprocal is
    quantized to atto-units as q = 10¹⁸ // v (INTEGER division on
    both sides — no float enters until the final expression), so the
    whole statistic is three exact integer folds (n, Σv, Σq) through
    one per-customer reduce and one bucketed customer join with a
    per-nation combine (≤25 rows leave each bucket), finished by ONE
    mirrored double expression.  HUGEINT twin; Σq bounds int64 up to
    ~10⁵ customers/nation at these revenue scales — the 100-TB path
    splits q into (hi, lo) like the registry's other 128-bit folds."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": t["o_custkey"],
            "v": pa.array(np.floor(t["o_totalprice"].to_numpy(
                zero_copy_only=False) * 100 + 0.5).astype(np.int64))})

    rev = orders.map_batches(cents, batch_format="pyarrow") \
        .groupby("o_custkey").aggregate(Sum("v", alias_name="v"))
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda t: t.rename_columns(
            ["o_custkey", "c_nationkey"]), batch_format="pyarrow")

    def combine(t: pa.Table) -> pa.Table:
        v = t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({
            "nat": t["c_nationkey"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "pn": 1, "sv": v, "sq": (10 ** 18) // v}) \
            .groupby("nat", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        relational.bucketed_hash_join(rev, cust, on="o_custkey",
                                      num_buckets=16, combine=combine)
        .groupby("nat").aggregate(Sum("pn", alias_name="n"),
                                  Sum("sv", alias_name="sv"),
                                  Sum("sq", alias_name="sq"))
    ).to_pandas().sort_values("nat").reset_index(drop=True)
    n = agg["n"].to_numpy(np.int64)
    sv = agg["sv"].to_numpy(np.int64)
    sq = agg["sq"].to_numpy(np.int64)
    atk = [float(np.round(
        1.0 - (float(nn) * float(nn) * 1e18)
        / (float(q) * float(s)), 6))
        for nn, s, q in zip(n, sv, sq)]
    return pd.DataFrame({
        "nationkey": agg["nat"].astype(np.int64),
        "n_customers": n, "revenue_cents": sv, "recip_atto": sq,
        "atkinson2": atk})


SQL_ATKINSON = """
WITH rev AS (SELECT o_custkey,
                    SUM(CAST(FLOOR(o_totalprice * 100 + 0.5)
                             AS HUGEINT)) AS v
             FROM orders GROUP BY 1),
j AS (SELECT c.c_nationkey AS nat, rev.v,
             CAST(1000000000000000000 AS HUGEINT) // rev.v AS q
      FROM rev JOIN customer c ON c.c_custkey = rev.o_custkey),
a AS (SELECT nat, CAST(COUNT(*) AS BIGINT) AS n, SUM(v) AS sv,
             SUM(q) AS sq
      FROM j GROUP BY 1)
SELECT nat AS nationkey, n AS n_customers,
       CAST(sv AS BIGINT) AS revenue_cents,
       CAST(sq AS BIGINT) AS recip_atto,
       ROUND(1.0 - (CAST(n AS DOUBLE) * CAST(n AS DOUBLE) * 1e18)
             / (CAST(sq AS DOUBLE) * CAST(sv AS DOUBLE)), 6)
         AS atkinson2
FROM a ORDER BY nationkey
"""


def q_semivariogram_nation_revenue(sf_dir: str):
    """Empirical semivariogram of nation revenue on the 5×5 nation
    grid — geostatistics' kriging input γ(h) = Σ(vᵢ−vⱼ)²/(2·n_pairs)
    at every exact squared lag d², the how-far-does-spatial-
    correlation-reach curve next to the registry's Moran's I scalar.
    Revenue reduces through the same bucketed customer⋈orders join
    with per-bucket cents pre-aggregation; the 25-cell / 300-pair
    finish is driver-side arbitrary-precision INTEGER arithmetic
    (revenue-cents squares exceed int64 — python ints and the twin's
    HUGEINT both carry them exactly), one mirrored division per
    lag."""
    from ray.data.aggregate import Sum

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda t: pa.table({
            "o_custkey": t["c_custkey"],
            "nk": t["c_nationkey"].cast(pa.int64())}),
            batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def combine(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"nk": t["nk"].to_numpy(
            zero_copy_only=False), "pc_": cents}) \
            .groupby("nk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        relational.bucketed_hash_join(orders, cust, on="o_custkey",
                                      combine=combine)
        .groupby("nk").aggregate(Sum("pc_", alias_name="cents"))
    ).to_pandas()
    x = {int(r.nk): int(r.cents) for r in agg.itertuples()}
    xs = [x.get(nk, 0) for nk in range(25)]
    acc: dict = {}
    for i in range(25):
        for j in range(i + 1, 25):
            d2 = (i % 5 - j % 5) ** 2 + (i // 5 - j // 5) ** 2
            cnt, num = acc.get(d2, (0, 0))
            acc[d2] = (cnt + 1, num + (xs[i] - xs[j]) ** 2)
    rows = [{"d2": d2, "n_pairs": cnt,
             "gamma": float(np.round(
                 float(num) / float(2 * cnt), 6))}
            for d2, (cnt, num) in sorted(acc.items())]
    return pd.DataFrame(rows).astype({"d2": np.int64,
                                      "n_pairs": np.int64})


SQL_SEMIVARIOGRAM = """
WITH rev AS (SELECT c_nationkey AS nk,
                    SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                      AS cents
             FROM orders JOIN customer ON o_custkey = c_custkey
             GROUP BY 1),
grid AS (SELECT nk, COALESCE(rev.cents, 0) AS x
         FROM (SELECT unnest(generate_series(0, 24)) AS nk)
         LEFT JOIN rev USING (nk)),
pr AS (SELECT (a.nk % 5 - b.nk % 5) * (a.nk % 5 - b.nk % 5)
              + (a.nk // 5 - b.nk // 5) * (a.nk // 5 - b.nk // 5)
                AS d2,
              (a.x - b.x) * (a.x - b.x) AS sq
       FROM grid a JOIN grid b ON a.nk < b.nk),
agg AS (SELECT d2, CAST(COUNT(*) AS BIGINT) AS n_pairs,
               SUM(sq) AS num
        FROM pr GROUP BY 1)
SELECT CAST(d2 AS BIGINT) AS d2, n_pairs,
       ROUND(CAST(num AS DOUBLE) / CAST(2 * n_pairs AS DOUBLE), 6)
         AS gamma
FROM agg ORDER BY d2
"""


_D8_NEIGHBORS = [(-1, -1), (0, -1), (1, -1), (-1, 0),
                 (1, 0), (-1, 1), (0, 1), (1, 1)]


def q_flow_accumulation_grid(sf_dir: str):
    """D8 flow accumulation over a 32×32 synthetic elevation raster —
    raster hydrology's contributing-area operator (the basis of
    stream extraction and drainage audits): every cell flows to its
    steepest strictly-lower 8-neighbor (max integer drop, first-in-
    neighbor-order tiebreak), and accumulation counts the cells whose
    unique flow path passes through, self included.  Elevation =
    per-cell acctbal-cents sums from one bounded reduce (the only
    distributed pass — cells ≤ 1024); the driver finish processes
    cells in descending elevation (strictly-decreasing flow makes
    that a topological order) with a single integer accumulate; the
    twin replays the same paths with a recursive CTE.  All-integer
    end to end."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cx = ((k * 7919) % 1000) // 32
        cy = ((k * 104729) % 1000) // 32
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({"cell": cy * 32 + cx, "e": cents}) \
            .groupby("cell", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    et = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("cell").aggregate(Sum("e", alias_name="e"))
    ).to_pandas()
    e = np.zeros(1024, dtype=np.int64)
    e[et["cell"].to_numpy(np.int64)] = et["e"].to_numpy(np.int64)

    down = np.full(1024, -1, dtype=np.int64)
    for c in range(1024):
        cx, cy = c % 32, c // 32
        best_drop, best = 0, -1
        for dx, dy in _D8_NEIGHBORS:
            nx, ny = cx + dx, cy + dy
            if 0 <= nx < 32 and 0 <= ny < 32:
                drop = int(e[c]) - int(e[ny * 32 + nx])
                if drop > best_drop:
                    best_drop, best = drop, ny * 32 + nx
        down[c] = best
    acc = np.ones(1024, dtype=np.int64)
    for c in np.argsort(-e, kind="stable"):
        if down[c] >= 0:
            acc[down[c]] += acc[c]
    return pd.DataFrame({
        "cell": np.arange(1024, dtype=np.int64),
        "elevation": e,
        "down_cell": [int(d) if d >= 0 else None for d in down],
        "flow_acc": acc}).astype({"flow_acc": np.int64})


def q_emerging_hotspots(sf_dir: str):
    """Neighborhood-smoothed Mann-Kendall trend map over the monthly
    nation grid — the integer-exact core of an emerging-hot-spot
    analysis (ESRI's space-time workflow): per (cell, month) revenue
    cents fold in one bounded reduce, each cell's series is smoothed
    by its rook neighborhood + self (the Gi*-style local sum, still
    an exact integer), months densify to the full observed range
    (gap months = 0 like the twin's generate_series), and the
    Mann-Kendall S per cell — pairwise sign sums over the smoothed
    series — classifies rising/falling/flat.  No float anywhere."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_custkey",
                                      "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda t: pa.table({
            "o_custkey": t["c_custkey"],
            "nk": t["c_nationkey"].cast(pa.int64())}),
            batch_format="pyarrow")

    def combine(t: pa.Table) -> pa.Table:
        us = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]")
        mon = us.astype("datetime64[M]").astype(np.int64) + 1970 * 12
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"nk": t["nk"].to_numpy(
            zero_copy_only=False), "mon": mon, "v": cents}) \
            .groupby(["nk", "mon"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    mv = relational.ds_to_table(
        relational.bucketed_hash_join(orders, cust, on="o_custkey",
                                      combine=combine)
        .groupby(["nk", "mon"]).aggregate(Sum("v", alias_name="v"))
    ).to_pandas()
    m0, m1 = int(mv["mon"].min()), int(mv["mon"].max())
    nm = m1 - m0 + 1
    x = np.zeros((25, nm), dtype=np.int64)
    x[mv["nk"].to_numpy(np.int64),
      mv["mon"].to_numpy(np.int64) - m0] = mv["v"].to_numpy(np.int64)
    rows = []
    for c in range(25):
        cx, cy = c % 5, c // 5
        nbrs = [c]
        if cx > 0:
            nbrs.append(c - 1)
        if cx < 4:
            nbrs.append(c + 1)
        if cy > 0:
            nbrs.append(c - 5)
        if cy < 4:
            nbrs.append(c + 5)
        loc = x[nbrs].sum(axis=0)
        d = np.sign(loc[None, :] - loc[:, None])
        s = int(np.triu(d, 1).sum())
        rows.append({
            "cell": c, "n_months": nm, "n_neighbors": len(nbrs) - 1,
            "mk_s": s,
            "trend": "rising" if s > 0 else
            ("falling" if s < 0 else "flat")})
    return pd.DataFrame(rows).astype({
        "cell": np.int64, "n_months": np.int64,
        "n_neighbors": np.int64, "mk_s": np.int64})


SQL_EMERGING_HOTSPOTS = """
WITH mv AS (SELECT c.c_nationkey AS nk,
                   date_part('year', o.o_orderdate) * 12
                   + date_part('month', o.o_orderdate) - 1 AS mon,
                   SUM(CAST(ROUND(o.o_totalprice * 100) AS HUGEINT))
                     AS v
            FROM orders o JOIN customer c
              ON o.o_custkey = c.c_custkey
            GROUP BY 1, 2),
mr AS (SELECT MIN(mon) AS m0, MAX(mon) AS m1 FROM mv),
mons AS (SELECT m0 + s AS mon FROM mr,
         generate_series(0, 4095) t(s) WHERE m0 + s <= m1),
cells AS (SELECT unnest(generate_series(0, 24)) AS cell),
dense AS (SELECT cells.cell, mons.mon, COALESCE(mv.v, 0) AS v
          FROM cells CROSS JOIN mons
          LEFT JOIN mv ON mv.nk = cells.cell AND mv.mon = mons.mon),
nb AS (SELECT a.cell, b.cell AS nbr
       FROM cells a JOIN cells b
         ON b.cell = a.cell
         OR (b.cell = a.cell - 1 AND a.cell % 5 > 0)
         OR (b.cell = a.cell + 1 AND a.cell % 5 < 4)
         OR (b.cell = a.cell - 5 AND a.cell // 5 > 0)
         OR (b.cell = a.cell + 5 AND a.cell // 5 < 4)),
loc AS (SELECT nb.cell, d.mon, SUM(d.v) AS lv
        FROM nb JOIN dense d ON d.cell = nb.nbr
        GROUP BY 1, 2),
mk AS (SELECT a.cell,
              CAST(SUM(CASE WHEN b.lv > a.lv THEN 1
                            WHEN b.lv < a.lv THEN -1
                            ELSE 0 END) AS BIGINT) AS s
       FROM loc a JOIN loc b
         ON b.cell = a.cell AND b.mon > a.mon
       GROUP BY 1),
deg AS (SELECT cell, CAST(COUNT(*) - 1 AS BIGINT) AS nn
        FROM nb GROUP BY 1)
SELECT mk.cell, (SELECT CAST(m1 - m0 + 1 AS BIGINT) FROM mr)
         AS n_months,
       deg.nn AS n_neighbors, mk.s AS mk_s,
       CASE WHEN mk.s > 0 THEN 'rising'
            WHEN mk.s < 0 THEN 'falling' ELSE 'flat' END AS trend
FROM mk JOIN deg USING (cell) ORDER BY mk.cell
"""


_HEADTAIL_MAX_LEVELS = 6


def q_headtail_breaks_acctbal(sf_dir: str):
    """Head/tail breaks classification of customer acctbal (Jiang
    2013) — the natural classing scheme for heavy-tailed data that
    cartographers use where equal-interval and quantile classes fail:
    split at the mean, keep the head (> mean), repeat while the head
    stays a minority (< 40 %, the canonical rule) up to 6 levels.
    Every split decision is the EXACT integer cross-multiplication
    v·n > S (no mean is ever materialized as a float), the
    distributed part is one value-domain (cents, count) reduce, and
    the per-level means are the only mirrored doubles.  The twin
    unrolls the same ≤6 levels as chained CTEs with identical
    integer guards."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({"v": cents, "c": 1}) \
            .groupby("v", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    vd = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("v").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    v = vd["v"].to_numpy(np.int64)
    c = vd["c"].to_numpy(np.int64)
    rows = []
    lvl = 0
    mask = np.ones(len(v), dtype=bool)
    while True:
        n = int(c[mask].sum())
        s = int((v[mask] * c[mask]).sum())
        rows.append({
            "level": lvl, "n_values": n, "sum_cents": s,
            "mean_cents": float(np.round(float(s) / float(n), 6))})
        head = mask & (v * n > s)          # v > mean, exact
        nh = int(c[head].sum())
        # continue while the head is a strict minority (< 40 %)
        if nh == 0 or 5 * nh >= 2 * n \
                or lvl + 1 >= _HEADTAIL_MAX_LEVELS:
            break
        mask = head
        lvl += 1
    return pd.DataFrame(rows).astype({
        "level": np.int64, "n_values": np.int64,
        "sum_cents": np.int64})


def _sql_headtail() -> str:
    parts = ["l0 AS (SELECT CAST(COUNT(*) AS BIGINT) AS n, "
             "SUM(v) AS s FROM vals)"]
    for k in range(1, _HEADTAIL_MAX_LEVELS):
        prev = f"l{k - 1}"
        chain = " AND ".join(
            f"vals.v * l{j}.n > l{j}.s" for j in range(k))
        froms = ", ".join(f"l{j}" for j in range(k))
        parts.append(
            f"l{k} AS (SELECT CAST(COUNT(*) AS BIGINT) AS n, "
            f"SUM(v) AS s FROM vals, {froms} WHERE {chain})")
    selects = ["SELECT 0 AS level, l0.n AS n_values, "
               "CAST(l0.s AS BIGINT) AS sum_cents, "
               "ROUND(CAST(l0.s AS DOUBLE) / CAST(l0.n AS DOUBLE), 6)"
               " AS mean_cents FROM l0"]
    for k in range(1, _HEADTAIL_MAX_LEVELS):
        # include level k iff every ancestor head was a nonempty
        # strict minority of its parent
        guards = " AND ".join(
            f"(SELECT l{j + 1}.n > 0 AND 5 * l{j + 1}.n < 2 * l{j}.n"
            f" FROM l{j}, l{j + 1})" for j in range(k))
        selects.append(
            f"SELECT {k} AS level, l{k}.n, CAST(l{k}.s AS BIGINT), "
            f"ROUND(CAST(l{k}.s AS DOUBLE) / CAST(l{k}.n AS DOUBLE),"
            f" 6) FROM l{k} WHERE {guards}")
    return ("WITH vals AS (SELECT CAST(FLOOR(c_acctbal * 100 + 0.5) "
            "AS BIGINT) AS v FROM customer),\n"
            + ",\n".join(parts) + "\n"
            + "\nUNION ALL\n".join(selects) + "\nORDER BY level")


def q_mbr_nations(sf_dir: str):
    """Minimum-area oriented bounding rectangle per nation (rotating
    calipers over the convex hull) — the tight-footprint geometry a
    map renderer or collision filter wants where the axis-aligned
    bbox over-covers: the optimal rectangle is edge-aligned, so the
    argmin scans hull edges comparing EXACT RATIONAL areas
    Δdot·Δcross/(dx²+dy²) by integer cross-multiplication — no float
    enters the comparison; only the reported area divides.  Hull
    candidates reduce batch-locally exactly like `convex_hull
    _nations` (superset reduction).  Geometry has no SQL twin;
    pinned by the contains-all-points and ≤-axis-aligned-bbox
    properties plus a rectangle golden."""
    pts = _read(sf_dir, "customer", ["c_custkey"])

    def local(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = (k * 7919) % 1000
        y = (k * 104729) % 1000
        nat = (x // 200) + 5 * (y // 200)
        out_n, out_x, out_y = [], [], []
        for n in np.unique(nat):
            m = nat == n
            hull = _monotone_chain_hull(x[m], y[m])
            out_n.extend([int(n)] * len(hull))
            out_x.extend(hull[:, 0].tolist())
            out_y.extend(hull[:, 1].tolist())
        return pa.table({"nat": pa.array(out_n, type=pa.int64()),
                         "hx": pa.array(out_x, type=pa.int64()),
                         "hy": pa.array(out_y, type=pa.int64())})

    cand = relational.ds_to_table(
        pts.map_batches(local, batch_format="pyarrow")).to_pandas()
    rows = []
    for n, g in cand.groupby("nat"):
        hull = _monotone_chain_hull(g["hx"].to_numpy(np.int64),
                                    g["hy"].to_numpy(np.int64))
        hx = hull[:, 0].astype(object)   # python ints: no overflow
        hy = hull[:, 1].astype(object)
        if len(hull) < 3:
            w = int(hx.max() - hx.min()) if len(hull) else 0
            h = int(hy.max() - hy.min()) if len(hull) else 0
            rows.append({"nationkey": int(n),
                         "n_hull": len(hull),
                         "area_num": w * h, "area_den": 1,
                         "mbr_area": float(w * h)})
            continue
        best = None
        for i in range(len(hull)):
            dx = int(hx[(i + 1) % len(hull)] - hx[i])
            dy = int(hy[(i + 1) % len(hull)] - hy[i])
            if dx == 0 and dy == 0:
                continue
            dots = hx * dx + hy * dy
            crs = hx * (-dy) + hy * dx
            num = int(dots.max() - dots.min()) \
                * int(crs.max() - crs.min())
            den = dx * dx + dy * dy
            if best is None or num * best[1] < best[0] * den:
                best = (num, den)
        rows.append({"nationkey": int(n), "n_hull": len(hull),
                     "area_num": best[0], "area_den": best[1],
                     "mbr_area": float(np.round(
                         float(best[0]) / float(best[1]), 6))})
    return pd.DataFrame(rows).astype({"nationkey": np.int64,
                                      "n_hull": np.int64})


_PMEDIAN_STEPS = 3


def q_greedy_pmedian_cells(sf_dir: str):
    """Greedy p-median facility location over the 25 cell centers —
    the warehouse/depot siting heuristic with the classic (1−1/e)
    guarantee: pick, one at a time, the center that most reduces the
    total squared distance from every customer point to its nearest
    chosen facility.  Each of the 3 greedy rounds is ONE streaming
    pass: every batch scores all remaining candidates against the
    broadcast chosen-set (Σ min(best_d², d²_c) per candidate — ≤25
    partial rows per batch), the argmin resolves on the driver with
    smallest-cell ties.  All distances and costs are exact integers
    (HUGEINT twin); the twin unrolls the same 3 rounds."""
    from ray.data.aggregate import Sum
    pts = _read(sf_dir, "customer", ["c_custkey"])
    centers = [(100 + 200 * (c % 5), 100 + 200 * (c // 5))
               for c in range(25)]

    def pass_fn(chosen):
        ch = list(chosen)

        def score(t: pa.Table) -> pa.Table:
            k = t["c_custkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            x = (k * 7919) % 1000
            y = (k * 104729) % 1000
            if ch:
                best = np.min(np.stack([
                    (x - centers[c][0]) ** 2 + (y - centers[c][1]) ** 2
                    for c in ch]), axis=0)
            else:
                best = np.full(len(k), np.iinfo(np.int64).max // 2)
            cells, costs = [], []
            for c in range(25):
                if c in ch:
                    continue
                d2 = (x - centers[c][0]) ** 2 \
                    + (y - centers[c][1]) ** 2
                cells.append(c)
                costs.append(int(np.minimum(best, d2).sum()))
            return pa.table({"cell": pa.array(cells,
                                              type=pa.int64()),
                             "cost": pa.array(costs,
                                              type=pa.int64())})
        return score

    chosen: list = []
    rows = []
    for step in range(1, _PMEDIAN_STEPS + 1):
        sc = relational.ds_to_table(
            pts.map_batches(pass_fn(chosen), batch_format="pyarrow")
            .groupby("cell").aggregate(Sum("cost",
                                           alias_name="cost"))
        ).to_pandas().sort_values(["cost", "cell"]) \
            .reset_index(drop=True)
        c = int(sc["cell"].iloc[0])
        rows.append({"step": step, "chosen_cell": c,
                     "total_cost": int(sc["cost"].iloc[0])})
        chosen.append(c)
    return pd.DataFrame(rows).astype({
        "step": np.int64, "chosen_cell": np.int64,
        "total_cost": np.int64})


def _sql_pmedian() -> str:
    ctrs = ", ".join(
        f"({c}, {100 + 200 * (c % 5)}, {100 + 200 * (c // 5)})"
        for c in range(25))
    big = (np.iinfo(np.int64).max // 2)
    steps = []
    prev_best = f"CAST({big} AS HUGEINT)"
    prev_chosen = "SELECT CAST(NULL AS BIGINT) AS cell WHERE FALSE"
    for s in range(1, _PMEDIAN_STEPS + 1):
        steps.append(f"""cost{s} AS (
  SELECT cc.cell,
         SUM(LEAST({prev_best},
                   (p.x - cc.cx) * (p.x - cc.cx)
                   + (p.y - cc.cy) * (p.y - cc.cy))) AS cost
  FROM p, cc
  WHERE cc.cell NOT IN (SELECT cell FROM chosen{s - 1})
  GROUP BY 1),
pick{s} AS (SELECT cell, cost FROM cost{s}
            ORDER BY cost, cell LIMIT 1),
chosen{s} AS (SELECT cell FROM chosen{s - 1}
              UNION ALL SELECT cell FROM pick{s}),
best{s} AS (
  SELECT p.k, MIN((p.x - cc.cx) * (p.x - cc.cx)
                  + (p.y - cc.cy) * (p.y - cc.cy)) AS bd
  FROM p, cc WHERE cc.cell IN (SELECT cell FROM chosen{s})
  GROUP BY 1)""")
        prev_best = f"(SELECT bd FROM best{s - 1} b WHERE b.k = p.k)" \
            if s > 1 else prev_best
        # recompute prev_best for the NEXT step (s+1): best{s}
        prev_best = f"(SELECT bd FROM best{s} b WHERE b.k = p.k)"
    selects = "\nUNION ALL\n".join(
        f"SELECT {s} AS step, cell AS chosen_cell, "
        f"CAST(cost AS BIGINT) AS total_cost FROM pick{s}"
        for s in range(1, _PMEDIAN_STEPS + 1))
    return f"""
WITH p AS (SELECT c_custkey AS k,
                  CAST((c_custkey * 7919) % 1000 AS HUGEINT) AS x,
                  CAST((c_custkey * 104729) % 1000 AS HUGEINT) AS y
           FROM customer),
cc AS (SELECT * FROM (VALUES {ctrs}) c(cell, cx, cy)),
chosen0 AS ({prev_chosen}),
{",".join(steps)}
{selects}
ORDER BY step
"""


def _sql_flow_accumulation() -> str:
    nbrs = ", ".join(f"({i}, {dx}, {dy})" for i, (dx, dy)
                     in enumerate(_D8_NEIGHBORS))
    return f"""
WITH RECURSIVE
ev AS (SELECT (((c_custkey * 104729) % 1000) // 32) * 32
              + ((c_custkey * 7919) % 1000) // 32 AS cell,
              SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT)) AS e
       FROM customer GROUP BY 1),
grid AS (SELECT g.cell, COALESCE(ev.e, 0) AS e
         FROM (SELECT unnest(generate_series(0, 1023)) AS cell) g
         LEFT JOIN ev USING (cell)),
nb AS (SELECT * FROM (VALUES {nbrs}) n(i, dx, dy)),
cand AS (SELECT a.cell, b.cell AS down, a.e - b.e AS drop_, nb.i
         FROM grid a, nb, grid b
         WHERE b.cell = (a.cell // 32 + nb.dy) * 32
                        + (a.cell % 32 + nb.dx)
           AND a.cell % 32 + nb.dx BETWEEN 0 AND 31
           AND a.cell // 32 + nb.dy BETWEEN 0 AND 31
           AND a.e - b.e > 0),
flow AS (SELECT cell, down FROM (
           SELECT cell, down,
                  ROW_NUMBER() OVER (PARTITION BY cell
                                     ORDER BY drop_ DESC, i) AS rn
           FROM cand) WHERE rn = 1),
reach AS (SELECT cell AS src, down AS cur FROM flow
          UNION ALL
          SELECT r.src, f.down FROM reach r
          JOIN flow f ON f.cell = r.cur),
acc AS (SELECT cur AS cell, CAST(COUNT(*) AS BIGINT) AS up
        FROM reach GROUP BY 1)
SELECT g.cell, g.e AS elevation, f.down AS down_cell,
       CAST(1 + COALESCE(acc.up, 0) AS BIGINT) AS flow_acc
FROM grid g LEFT JOIN flow f ON f.cell = g.cell
LEFT JOIN acc ON acc.cell = g.cell
ORDER BY g.cell
"""


def q_local_morans_i_cells(sf_dir: str):
    """Local Moran's Iᵢ (Anselin's LISA) per nation cell on the 5×5
    rook grid — WHERE the spatial autocorrelation lives, the per-cell
    decomposition of the global Moran's I: Iᵢ = n·devᵢ·Lᵢ / Σdev²
    with devᵢ = n·xᵢ−S (the n-scaled deviation, exact integer) and
    Lᵢ = Σ_{j∼i} devⱼ the rook-neighbour deviation sum.  Everything
    is arbitrary-precision INTEGER until the one mirrored division
    per cell; the HH/HL/LH/LL cluster quadrant is a pure sign pair
    (devᵢ, Lᵢ) — no float ever decides it.  Revenue reduces through
    the same bucketed customer⋈orders cents join as the global
    Moran's I twin."""
    from ray.data.aggregate import Sum

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda t: pa.table({
            "o_custkey": t["c_custkey"],
            "nk": t["c_nationkey"].cast(pa.int64())}),
            batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def combine(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"nk": t["nk"].to_numpy(
            zero_copy_only=False), "pc_": cents}) \
            .groupby("nk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        relational.bucketed_hash_join(orders, cust, on="o_custkey",
                                      combine=combine)
        .groupby("nk").aggregate(Sum("pc_", alias_name="cents"))
    ).to_pandas()
    x = {int(r.nk): int(r.cents) for r in agg.itertuples()}
    xs = [x.get(nk, 0) for nk in range(25)]
    n = 25
    S = sum(xs)
    dev = [n * v - S for v in xs]
    den = sum(d * d for d in dev)
    rows = []
    for nk in range(25):
        c, r = nk % 5, nk // 5
        nbrs = []
        if c > 0:
            nbrs.append(nk - 1)
        if c < 4:
            nbrs.append(nk + 1)
        if r > 0:
            nbrs.append(nk - 5)
        if r < 4:
            nbrs.append(nk + 5)
        L = sum(dev[j] for j in nbrs)
        quad = (("HH" if L >= 0 else "HL") if dev[nk] >= 0
                else ("LH" if L >= 0 else "LL"))
        rows.append({"nk": nk, "n_neighbors": len(nbrs),
                     "lisa": np.round(float(n * dev[nk] * L)
                                      / float(den), 6),
                     "quadrant": quad})
    return pd.DataFrame(rows).astype({"nk": np.int64,
                                      "n_neighbors": np.int64})


SQL_LOCAL_MORANS = """
WITH rev AS (SELECT c_nationkey AS nk,
                    SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                      AS cents
             FROM orders JOIN customer ON o_custkey = c_custkey
             GROUP BY 1),
grid AS (SELECT nk, COALESCE(rev.cents, 0) AS x
         FROM (SELECT unnest(generate_series(0, 24)) AS nk)
         LEFT JOIN rev USING (nk)),
s AS (SELECT SUM(x) AS sx, SUM((25 * x - (SELECT SUM(x) FROM grid))
                               * (25 * x - (SELECT SUM(x) FROM grid)))
               AS den
      FROM grid),
d AS (SELECT nk, 25 * x - s.sx AS dev FROM grid, s),
l AS (SELECT a.nk, COUNT(*) AS n_neighbors, SUM(b.dev) AS lsum
      FROM d a JOIN d b
        ON (b.nk = a.nk - 1 AND a.nk % 5 > 0)
        OR (b.nk = a.nk + 1 AND a.nk % 5 < 4)
        OR (b.nk = a.nk - 5 AND a.nk // 5 > 0)
        OR (b.nk = a.nk + 5 AND a.nk // 5 < 4)
      GROUP BY 1)
SELECT d.nk, CAST(l.n_neighbors AS BIGINT) AS n_neighbors,
       ROUND(CAST(25 * d.dev * l.lsum AS DOUBLE)
             / CAST(s.den AS DOUBLE), 6) AS lisa,
       CASE WHEN d.dev >= 0 AND l.lsum >= 0 THEN 'HH'
            WHEN d.dev >= 0 THEN 'HL'
            WHEN l.lsum >= 0 THEN 'LH' ELSE 'LL' END AS quadrant
FROM d JOIN l USING (nk), s
ORDER BY d.nk
"""


def q_huff_model_stores(sf_dir: str):
    """Huff gravity model of retail capture — the store-siting
    workhorse: customer at point p chooses store j with probability
    (Aⱼ/d²ⱼ)/Σₖ(Aₖ/d²ₖ), attractiveness Aⱼ = supplier count of
    region j (a tiny exact reduce), 5 stores on the grid diagonal.
    4·d² is an exact integer per (customer, store); each of the five
    gravity terms is ONE float division (4Aⱼ/q ⱼ), the denominator is
    the fixed-order chain (((t₀+t₁)+t₂)+t₃)+t₄ mirrored verbatim in
    SQL's left-associative +, and each share is nano-quantized
    (⌊s·1e9+½⌋) BEFORE the distributed sum so the fleet-wide fold is
    pure int64.  Output: expected captured customers + market share
    per store, two mirrored divisions."""
    from ray.data.aggregate import Sum

    sup = _read_table(sf_dir, "supplier", ["s_suppkey"])
    sk = sup["s_suppkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    attr = [int((sk % 5 == j).sum()) for j in range(5)]
    stores_xy = [(100 + 200 * j, 100 + 200 * j) for j in range(5)]

    def shares(t: pa.Table) -> pa.Table:
        u = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        px2 = 2 * ((u * 7919) % 1000) + 1      # 2·(px+0.5) integer
        py2 = 2 * ((u * 104729) % 1000) + 1
        terms = []
        for j in range(5):
            q4 = (px2 - 2 * stores_xy[j][0]) ** 2 \
                + (py2 - 2 * stores_xy[j][1]) ** 2   # = 4·d², exact
            terms.append((4.0 * attr[j]) / q4.astype(np.float64))
        tot = (((terms[0] + terms[1]) + terms[2])
               + terms[3]) + terms[4]
        out = {"store": [], "share_e9": [], "nc": []}
        for j in range(5):
            s9 = np.floor(terms[j] / tot * 1e9 + 0.5) \
                .astype(np.int64)
            out["store"].append(j)
            out["share_e9"].append(int(s9.sum()))
            out["nc"].append(len(u))
        return pa.table({"store": pa.array(out["store"],
                                           type=pa.int64()),
                         "share_e9": pa.array(out["share_e9"],
                                              type=pa.int64()),
                         "nc": pa.array(out["nc"], type=pa.int64())})

    agg = relational.ds_to_table(
        _read(sf_dir, "customer", ["c_custkey"])
        .map_batches(shares, batch_format="pyarrow")
        .groupby("store").aggregate(
            Sum("share_e9", alias_name="s9"),
            Sum("nc", alias_name="n"))
    ).to_pandas().sort_values("store").reset_index(drop=True)
    return pd.DataFrame({
        "store": agg["store"].astype(np.int64),
        "attractiveness": pd.Series(attr, dtype=np.int64),
        "expected_customers": (agg["s9"] / 1e9).round(6),
        "market_share": (agg["s9"] / (agg["n"] * 1_000_000_000.0))
        .round(6)})


SQL_HUFF = """
WITH a AS (SELECT
             CAST(SUM(CASE WHEN s_suppkey % 5 = 0 THEN 1 ELSE 0 END)
                  AS BIGINT) AS a0,
             CAST(SUM(CASE WHEN s_suppkey % 5 = 1 THEN 1 ELSE 0 END)
                  AS BIGINT) AS a1,
             CAST(SUM(CASE WHEN s_suppkey % 5 = 2 THEN 1 ELSE 0 END)
                  AS BIGINT) AS a2,
             CAST(SUM(CASE WHEN s_suppkey % 5 = 3 THEN 1 ELSE 0 END)
                  AS BIGINT) AS a3,
             CAST(SUM(CASE WHEN s_suppkey % 5 = 4 THEN 1 ELSE 0 END)
                  AS BIGINT) AS a4
           FROM supplier),
p AS (SELECT 2 * ((c_custkey * 7919) % 1000) + 1 AS x2,
             2 * ((c_custkey * 104729) % 1000) + 1 AS y2
      FROM customer),
t AS (SELECT
        4.0 * a.a0 / ((x2 - 200) * (x2 - 200)
                      + (y2 - 200) * (y2 - 200)) AS t0,
        4.0 * a.a1 / ((x2 - 600) * (x2 - 600)
                      + (y2 - 600) * (y2 - 600)) AS t1,
        4.0 * a.a2 / ((x2 - 1000) * (x2 - 1000)
                      + (y2 - 1000) * (y2 - 1000)) AS t2,
        4.0 * a.a3 / ((x2 - 1400) * (x2 - 1400)
                      + (y2 - 1400) * (y2 - 1400)) AS t3,
        4.0 * a.a4 / ((x2 - 1800) * (x2 - 1800)
                      + (y2 - 1800) * (y2 - 1800)) AS t4
      FROM p, a),
s AS (SELECT t0 + t1 + t2 + t3 + t4 AS tot, * FROM t),
q AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             SUM(CAST(FLOOR(t0 / tot * 1e9 + 0.5) AS BIGINT)) AS s0,
             SUM(CAST(FLOOR(t1 / tot * 1e9 + 0.5) AS BIGINT)) AS s1,
             SUM(CAST(FLOOR(t2 / tot * 1e9 + 0.5) AS BIGINT)) AS s2,
             SUM(CAST(FLOOR(t3 / tot * 1e9 + 0.5) AS BIGINT)) AS s3,
             SUM(CAST(FLOOR(t4 / tot * 1e9 + 0.5) AS BIGINT)) AS s4
      FROM s)
SELECT u.store, u.attractiveness, u.expected_customers,
       u.market_share
FROM (
  SELECT 0 AS store, a.a0 AS attractiveness,
         ROUND(q.s0 / 1e9, 6) AS expected_customers,
         ROUND(q.s0 / (q.n * 1e9), 6) AS market_share FROM q, a
  UNION ALL SELECT 1, a.a1, ROUND(q.s1 / 1e9, 6),
         ROUND(q.s1 / (q.n * 1e9), 6) FROM q, a
  UNION ALL SELECT 2, a.a2, ROUND(q.s2 / 1e9, 6),
         ROUND(q.s2 / (q.n * 1e9), 6) FROM q, a
  UNION ALL SELECT 3, a.a3, ROUND(q.s3 / 1e9, 6),
         ROUND(q.s3 / (q.n * 1e9), 6) FROM q, a
  UNION ALL SELECT 4, a.a4, ROUND(q.s4 / 1e9, 6),
         ROUND(q.s4 / (q.n * 1e9), 6) FROM q, a) u
ORDER BY u.store
"""


def q_oaxaca_value_by_segment(sf_dir: str):
    """Oaxaca–Blinder decomposition of the BUILDING-vs-AUTOMOBILE
    order-value gap with the priority rung (1..5) as the single
    covariate — labor economics' how-much-of-the-gap-is-composition
    tool.  gap = ȳ_A − ȳ_B splits into explained = (x̄_A − x̄_B)·β_B
    (the B-coefficients-weighted endowment difference) and the
    unexplained remainder.  Every mean and slope is one mirrored
    division of cleared integer moments from a segment-keyed fold
    through the bucketed customer⋈orders join; explained/unexplained
    compose float ops in the identical order as the twin."""
    from ray.data.aggregate import Sum
    def pick_segs(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["c_mktsegment"],
                        value_set=pa.array(["BUILDING", "AUTOMOBILE"]))
        t = t.filter(keep)
        return pa.table({"o_custkey": t["c_custkey"],
                         "seg": t["c_mktsegment"]})

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]) \
        .map_batches(pick_segs, batch_format="pyarrow")
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_totalprice", "o_orderpriority"])

    def combine(t: pa.Table) -> pa.Table:
        x = np.array([int(s[0]) for s in
                      t["o_orderpriority"].to_pylist()],
                     dtype=np.int64)
        y = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"seg": t["seg"].to_pylist(), "n": 1,
                          "sx": x, "sy": y, "sxx": x * x,
                          "sxy": x * y}) \
            .groupby("seg", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    m = relational.ds_to_table(
        relational.bucketed_hash_join(orders, cust, on="o_custkey",
                                      combine=combine)
        .groupby("seg").aggregate(
            *[Sum(c, alias_name=c) for c in
              ["n", "sx", "sy", "sxx", "sxy"]])
    ).to_pandas().set_index("seg")

    def side(seg: str):
        r = m.loc[seg]
        n, sx, sy = int(r["n"]), int(r["sx"]), int(r["sy"])
        sxx, sxy = int(r["sxx"]), int(r["sxy"])
        ybar = float(sy) / float(n)
        xbar = float(sx) / float(n)
        beta = float(n * sxy - sx * sy) / float(n * sxx - sx * sx)
        return n, ybar, xbar, beta

    n_a, ya, xa, _ = side("BUILDING")
    n_b, yb, xb, bb = side("AUTOMOBILE")
    gap = ya - yb
    explained = (xa - xb) * bb
    return pd.DataFrame([{
        "n_building": n_a, "n_automobile": n_b,
        "gap_cents": np.round(gap, 6),
        "explained": np.round(explained, 6),
        "unexplained": np.round(gap - explained, 6)}]).astype({
            "n_building": np.int64, "n_automobile": np.int64})


SQL_OAXACA = """
WITH b AS (SELECT c_mktsegment AS seg,
                  CAST(substr(o_orderpriority, 1, 1) AS HUGEINT) AS x,
                  CAST(ROUND(o_totalprice * 100) AS HUGEINT) AS y
           FROM orders JOIN customer ON o_custkey = c_custkey
           WHERE c_mktsegment IN ('BUILDING', 'AUTOMOBILE')),
m AS (SELECT seg, CAST(COUNT(*) AS HUGEINT) AS n, SUM(x) AS sx,
             SUM(y) AS sy, SUM(x * x) AS sxx, SUM(x * y) AS sxy
      FROM b GROUP BY 1),
f AS (SELECT seg, n, CAST(sy AS DOUBLE) / CAST(n AS DOUBLE) AS ybar,
             CAST(sx AS DOUBLE) / CAST(n AS DOUBLE) AS xbar,
             CAST(n * sxy - sx * sy AS DOUBLE)
               / CAST(n * sxx - sx * sx AS DOUBLE) AS beta
      FROM m)
SELECT CAST(a.n AS BIGINT) AS n_building,
       CAST(z.n AS BIGINT) AS n_automobile,
       ROUND(a.ybar - z.ybar, 6) AS gap_cents,
       ROUND((a.xbar - z.xbar) * z.beta, 6) AS explained,
       ROUND(a.ybar - z.ybar - (a.xbar - z.xbar) * z.beta, 6)
         AS unexplained
FROM (SELECT * FROM f WHERE seg = 'BUILDING') a,
     (SELECT * FROM f WHERE seg = 'AUTOMOBILE') z
"""


def _nation_revenue_for_seats(sf_dir: str) -> pd.DataFrame:
    """Shared nation→exact-cents revenue reduce for the apportionment
    family (same broadcast-map shape as the D'Hondt op)."""
    from ray.data.aggregate import Sum
    cust = _read_table(sf_dir, "customer",
                       ["c_custkey", "c_nationkey"])
    nk = pd.Series(cust["c_nationkey"].to_numpy(
        zero_copy_only=False).astype(np.int64),
        index=cust["c_custkey"].to_numpy(zero_copy_only=False))
    nk_ref = ray.put(nk)

    def attach(t: pa.Table) -> pa.Table:
        from ...stages.relational import worker_cached
        m = worker_cached(("seat_nk", nk_ref),
                          lambda: ray.get(nk_ref))
        nat = m.reindex(t["o_custkey"].to_numpy(
            zero_copy_only=False)).to_numpy().astype(np.int64)
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        return pa.table({"n_nationkey": pa.array(nat),
                         "cents": pa.array(cents)})

    return relational.ds_to_table(
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(attach, batch_format="pyarrow")
        .groupby("n_nationkey").aggregate(
            Sum("cents", alias_name="revenue_cents"))
    ).to_pandas().sort_values("n_nationkey").reset_index(drop=True)


SQL_NATION_REV_CTE = """
nr AS (SELECT c_nationkey AS n_nationkey,
              SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                AS revenue_cents
       FROM orders JOIN customer ON c_custkey = o_custkey
       GROUP BY 1)
"""


def q_sainte_lague_apportionment(sf_dir: str):
    """Sainte-Laguë / Webster apportionment of 100 seats by nation
    revenue — the odd-divisor (1, 3, 5, …) highest-averages method
    that removes D'Hondt's large-party bias; carrying BOTH methods
    lets a user diff the seat maps and see exactly which nations the
    divisor choice flips.  Identical distributed shape to the
    D'Hondt op; quotients rank by the mirrored (rev/(2k−1) DESC,
    nation, k) triple."""
    nr = _nation_revenue_for_seats(sf_dir)
    nat = nr["n_nationkey"].to_numpy(np.int64)
    rev = nr["revenue_cents"].to_numpy(np.int64)
    k = np.arange(1, 101, dtype=np.int64)
    div = 2 * k - 1
    q = rev[:, None].astype(np.float64) \
        / div[None, :].astype(np.float64)
    flat = pd.DataFrame({
        "n": np.repeat(nat, 100), "k": np.tile(k, len(nat)),
        "q": q.ravel()})
    top = flat.sort_values(["q", "n", "k"],
                           ascending=[False, True, True]).head(100)
    seats = top.groupby("n").size()
    nr["seats"] = seats.reindex(nat, fill_value=0) \
        .to_numpy(np.int64)
    return nr[["n_nationkey", "revenue_cents", "seats"]]


SQL_SAINTE_LAGUE = f"""
WITH {SQL_NATION_REV_CTE.strip()},
q AS (SELECT n_nationkey, revenue_cents,
             UNNEST(generate_series(1, 100)) AS k FROM nr),
r AS (SELECT n_nationkey, revenue_cents, k,
             CAST(revenue_cents AS DOUBLE) / (2 * k - 1) AS q,
             ROW_NUMBER() OVER (
               ORDER BY CAST(revenue_cents AS DOUBLE) / (2 * k - 1)
                        DESC, n_nationkey, k) AS rn
      FROM q)
SELECT nr.n_nationkey, nr.revenue_cents,
       CAST(COALESCE(s.seats, 0) AS BIGINT) AS seats
FROM nr LEFT JOIN (SELECT n_nationkey, COUNT(*) AS seats
                   FROM r WHERE rn <= 100 GROUP BY 1) s
  USING (n_nationkey)
ORDER BY nr.n_nationkey
"""


def q_huntington_hill_apportionment(sf_dir: str):
    """Huntington–Hill apportionment (the US House method): every
    nation seats one representative first, then the remaining 75 go
    by the geometric-mean priority rev/√(k(k+1)) — the equal-
    proportions divisor that minimizes relative seat-share
    inequality.  √(k(k+1)) of an exact integer is the only float
    besides the division; ordering mirrors (priority DESC, nation,
    k)."""
    nr = _nation_revenue_for_seats(sf_dir)
    nat = nr["n_nationkey"].to_numpy(np.int64)
    rev = nr["revenue_cents"].to_numpy(np.int64)
    n_parties = len(nat)
    extra = 100 - n_parties
    k = np.arange(1, extra + 1, dtype=np.int64)
    pri = rev[:, None].astype(np.float64) \
        / np.sqrt((k * (k + 1))[None, :].astype(np.float64))
    flat = pd.DataFrame({
        "n": np.repeat(nat, extra), "k": np.tile(k, n_parties),
        "q": pri.ravel()})
    top = flat.sort_values(["q", "n", "k"],
                           ascending=[False, True, True]).head(extra)
    seats = top.groupby("n").size()
    nr["seats"] = 1 + seats.reindex(nat, fill_value=0) \
        .to_numpy(np.int64)
    return nr[["n_nationkey", "revenue_cents", "seats"]]


SQL_HUNTINGTON_HILL = f"""
WITH {SQL_NATION_REV_CTE.strip()},
np_ AS (SELECT CAST(COUNT(*) AS BIGINT) AS np FROM nr),
q AS (SELECT n_nationkey, revenue_cents,
             UNNEST(generate_series(1, 100)) AS k FROM nr),
r AS (SELECT n_nationkey, revenue_cents, k,
             ROW_NUMBER() OVER (
               ORDER BY CAST(revenue_cents AS DOUBLE)
                        / SQRT(CAST(k * (k + 1) AS DOUBLE)) DESC,
                        n_nationkey, k) AS rn
      FROM q, np_ WHERE k <= 100 - np),
s AS (SELECT n_nationkey, COUNT(*) AS extra
      FROM r, np_ WHERE rn <= 100 - np GROUP BY 1)
SELECT nr.n_nationkey, nr.revenue_cents,
       CAST(1 + COALESCE(s.extra, 0) AS BIGINT) AS seats
FROM nr LEFT JOIN s USING (n_nationkey)
ORDER BY nr.n_nationkey
"""


def q_hamilton_alabama_paradox(sf_dir: str):
    """Hamilton largest-remainder apportionment at house sizes 100 AND
    101, flagging the Alabama paradox (a nation LOSING a seat when
    the house grows — the defect that killed the method in 1901).
    Fully INTEGER: base seats are ⌊rev·H/T⌋ by exact integer
    division, remainders rev·H mod T rank exactly (remainder DESC,
    nation ASC), no float anywhere — the paradox flag is pure
    arithmetic fact, not a rounding artifact."""
    nr = _nation_revenue_for_seats(sf_dir)
    nat = nr["n_nationkey"].to_numpy(np.int64)
    rev = [int(v) for v in nr["revenue_cents"]]
    total = sum(rev)

    def hamilton(h: int) -> np.ndarray:
        base = [r * h // total for r in rev]
        rem = [r * h % total for r in rev]
        left = h - sum(base)
        order = sorted(range(len(rev)),
                       key=lambda i: (-rem[i], nat[i]))
        seats = list(base)
        for i in order[:left]:
            seats[i] += 1
        return np.array(seats, dtype=np.int64)

    s100 = hamilton(100)
    s101 = hamilton(101)
    return pd.DataFrame({
        "n_nationkey": nat,
        "revenue_cents": nr["revenue_cents"].astype(np.int64),
        "seats_100": s100, "seats_101": s101,
        "alabama_paradox": s101 < s100})


SQL_HAMILTON = f"""
WITH {SQL_NATION_REV_CTE.strip()},
t AS (SELECT SUM(CAST(revenue_cents AS HUGEINT)) AS total FROM nr),
h AS (SELECT n_nationkey, revenue_cents, hs.h,
             CAST(CAST(revenue_cents AS HUGEINT) * hs.h // t.total
                  AS BIGINT) AS base,
             CAST(CAST(revenue_cents AS HUGEINT) * hs.h % t.total
                  AS BIGINT) AS rem
      FROM nr, t, (SELECT UNNEST([100, 101]) AS h) hs),
l AS (SELECT h, CAST(h - SUM(base) AS BIGINT) AS left_
      FROM h GROUP BY h),
rk AS (SELECT h.*, ROW_NUMBER() OVER (
         PARTITION BY h.h ORDER BY rem DESC, n_nationkey) AS rn
       FROM h),
s AS (SELECT rk.h, n_nationkey, revenue_cents,
             base + CASE WHEN rn <= l.left_ THEN 1 ELSE 0 END
               AS seats
      FROM rk JOIN l ON l.h = rk.h)
SELECT a.n_nationkey, a.revenue_cents,
       CAST(a.seats AS BIGINT) AS seats_100,
       CAST(b.seats AS BIGINT) AS seats_101,
       b.seats < a.seats AS alabama_paradox
FROM (SELECT * FROM s WHERE h = 100) a
JOIN (SELECT * FROM s WHERE h = 101) b USING (n_nationkey)
ORDER BY a.n_nationkey
"""


def _dem32(sf_dir: str) -> np.ndarray:
    """The shared 32×32 acctbal-cents DEM reduce (same kernel as the
    slope/flow/viewshed family — one bounded distributed pass)."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cx = ((k * 7919) % 1000) // 32
        cy = ((k * 104729) % 1000) // 32
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({"cell": cy * 32 + cx, "e": cents}) \
            .groupby("cell", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    et = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("cell").aggregate(Sum("e", alias_name="e"))
    ).to_pandas()
    e = np.zeros(1024, dtype=np.int64)
    e[et["cell"].to_numpy(np.int64)] = et["e"].to_numpy(np.int64)
    return e


def _d8_down(e: np.ndarray) -> np.ndarray:
    """D8 steepest strictly-lower descent pointer (max integer drop,
    first-in-neighbor-order tiebreak — the flow_accumulation
    contract)."""
    down = np.full(1024, -1, dtype=np.int64)
    for c in range(1024):
        cx, cy = c % 32, c // 32
        best_drop, best = 0, -1
        for dx, dy in _D8_NEIGHBORS:
            nx, ny = cx + dx, cy + dy
            if 0 <= nx < 32 and 0 <= ny < 32:
                drop = int(e[c]) - int(e[ny * 32 + nx])
                if drop > best_drop:
                    best_drop, best = drop, ny * 32 + nx
        down[c] = best
    return down


def _sql_dem_flow_prefix() -> str:
    """ev/grid/nb/cand/flow CTE text shared with the flow-accumulation
    twin (identical D8 semantics by construction)."""
    nbrs = ", ".join(f"({i}, {dx}, {dy})" for i, (dx, dy)
                     in enumerate(_D8_NEIGHBORS))
    return f"""
ev AS (SELECT (((c_custkey * 104729) % 1000) // 32) * 32
              + ((c_custkey * 7919) % 1000) // 32 AS cell,
              SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT)) AS e
       FROM customer GROUP BY 1),
grid AS (SELECT g.cell, COALESCE(ev.e, 0) AS e
         FROM (SELECT unnest(generate_series(0, 1023)) AS cell) g
         LEFT JOIN ev USING (cell)),
nb AS (SELECT * FROM (VALUES {nbrs}) n(i, dx, dy)),
cand AS (SELECT a.cell, b.cell AS down, a.e - b.e AS drop_, nb.i
         FROM grid a, nb, grid b
         WHERE b.cell = (a.cell // 32 + nb.dy) * 32
                        + (a.cell % 32 + nb.dx)
           AND a.cell % 32 + nb.dx BETWEEN 0 AND 31
           AND a.cell // 32 + nb.dy BETWEEN 0 AND 31
           AND a.e - b.e > 0),
flow AS (SELECT cell, down FROM (
           SELECT cell, down,
                  ROW_NUMBER() OVER (PARTITION BY cell
                                     ORDER BY drop_ DESC, i) AS rn
           FROM cand) WHERE rn = 1)"""


def q_hillshade_grid(sf_dir: str):
    """Hillshade over the 32×32 DEM — rendered EXACTLY: instead of
    the trig formula (whose cos/sin/atan2 1-ulp library differences
    could flip a 6dp hash), the shade is the signed SQUARED cosine
    between the surface normal N = (−dzx, −dzy, 16) and the NW light
    L = (−1, 1, 1), a pure rational:
    shade_e6 = sign(N·L)·(N·L)²·10⁶ ÷ (3·|N|²) by INTEGER division.
    Monotone in the true illumination angle, so ranking/thresholding
    behaves identically to the float version.  Border cells NULL
    like the slope op."""
    e = _dem32(sf_dir)
    rows = []
    for c in range(1024):
        cx, cy = c % 32, c // 32
        if cx == 0 or cx == 31 or cy == 0 or cy == 31:
            rows.append({"cell": c, "ndotl": None, "shade_e6": None})
            continue
        dzx = int(e[c + 1]) - int(e[c - 1])
        dzy = int(e[c + 32]) - int(e[c - 32])
        ndotl = dzx - dzy + 16
        n2 = dzx * dzx + dzy * dzy + 256
        mag = (ndotl * ndotl * 1_000_000) // (3 * n2)
        rows.append({"cell": c, "ndotl": ndotl,
                     "shade_e6": mag if ndotl >= 0 else -mag})
    return pd.DataFrame(rows).astype({"cell": np.int64})


SQL_HILLSHADE = """
WITH ev AS (SELECT (((c_custkey * 104729) % 1000) // 32) * 32
                   + ((c_custkey * 7919) % 1000) // 32 AS cell,
                   SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT))
                     AS e
            FROM customer GROUP BY 1),
grid AS (SELECT g.cell, COALESCE(ev.e, 0) AS e
         FROM (SELECT unnest(generate_series(0, 1023)) AS cell) g
         LEFT JOIN ev USING (cell)),
d AS (SELECT g.cell,
             CASE WHEN g.cell % 32 IN (0, 31)
                    OR g.cell // 32 IN (0, 31) THEN NULL
                  ELSE (SELECT e FROM grid x
                        WHERE x.cell = g.cell + 1)
                     - (SELECT e FROM grid x
                        WHERE x.cell = g.cell - 1) END AS dzx,
             CASE WHEN g.cell % 32 IN (0, 31)
                    OR g.cell // 32 IN (0, 31) THEN NULL
                  ELSE (SELECT e FROM grid x
                        WHERE x.cell = g.cell + 32)
                     - (SELECT e FROM grid x
                        WHERE x.cell = g.cell - 32) END AS dzy
      FROM grid g)
SELECT cell, ndotl,
       CAST(CASE WHEN ndotl >= 0 THEN mag ELSE -mag END AS BIGINT)
         AS shade_e6
FROM (SELECT cell, CAST(dzx - dzy + 16 AS BIGINT) AS ndotl,
             (CAST(dzx - dzy + 16 AS HUGEINT)
              * (dzx - dzy + 16) * 1000000)
             // (3 * (CAST(dzx AS HUGEINT) * dzx
                      + CAST(dzy AS HUGEINT) * dzy + 256)) AS mag
      FROM d)
ORDER BY cell
"""


def q_twi_grid(sf_dir: str):
    """Topographic wetness index ln(a/tan β) over the DEM — hydrology's
    where-does-water-pond composite of the flow-accumulation op's
    contributing area a and the slope op's gradient:
    TWI = ln(8a) − 0.5·ln(dzx²+dzy²), both logs of EXACT integers
    (a from the same descending-elevation D8 replay, slope² from
    central differences).  Flat or border cells report NULL — the
    classic TWI singularity, surfaced honestly instead of an epsilon
    fudge."""
    e = _dem32(sf_dir)
    down = _d8_down(e)
    acc = np.ones(1024, dtype=np.int64)
    for c in np.argsort(-e, kind="stable"):
        if down[c] >= 0:
            acc[down[c]] += acc[c]
    rows = []
    for c in range(1024):
        cx, cy = c % 32, c // 32
        if cx == 0 or cx == 31 or cy == 0 or cy == 31:
            rows.append({"cell": c, "flow_acc": int(acc[c]),
                         "slope2": None, "twi": None})
            continue
        dzx = int(e[c + 1]) - int(e[c - 1])
        dzy = int(e[c + 32]) - int(e[c - 32])
        s2 = dzx * dzx + dzy * dzy
        twi = (np.round(float(np.log(8.0 * acc[c])
                              - 0.5 * np.log(float(s2))), 6)
               if s2 > 0 else None)
        rows.append({"cell": c, "flow_acc": int(acc[c]),
                     "slope2": s2, "twi": twi})
    return pd.DataFrame(rows).astype({"cell": np.int64,
                                      "flow_acc": np.int64})


def _sql_twi() -> str:
    return f"""
WITH RECURSIVE {_sql_dem_flow_prefix().lstrip()},
reach AS (SELECT cell AS src, down AS cur FROM flow
          UNION ALL
          SELECT r.src, f.down FROM reach r
          JOIN flow f ON f.cell = r.cur),
acc AS (SELECT cur AS cell, CAST(COUNT(*) AS BIGINT) AS up
        FROM reach GROUP BY 1),
fa AS (SELECT g.cell, CAST(1 + COALESCE(acc.up, 0) AS BIGINT) AS a
       FROM grid g LEFT JOIN acc ON acc.cell = g.cell),
d AS (SELECT g.cell, fa.a,
             CASE WHEN g.cell % 32 IN (0, 31)
                    OR g.cell // 32 IN (0, 31) THEN NULL
                  ELSE (SELECT e FROM grid x
                        WHERE x.cell = g.cell + 1)
                     - (SELECT e FROM grid x
                        WHERE x.cell = g.cell - 1) END AS dzx,
             CASE WHEN g.cell % 32 IN (0, 31)
                    OR g.cell // 32 IN (0, 31) THEN NULL
                  ELSE (SELECT e FROM grid x
                        WHERE x.cell = g.cell + 32)
                     - (SELECT e FROM grid x
                        WHERE x.cell = g.cell - 32) END AS dzy
      FROM grid g JOIN fa ON fa.cell = g.cell)
SELECT cell, a AS flow_acc,
       CAST(dzx * dzx + dzy * dzy AS BIGINT) AS slope2,
       CASE WHEN dzx * dzx + dzy * dzy > 0
            THEN ROUND(LN(8.0 * a)
                       - 0.5 * LN(CAST(dzx * dzx + dzy * dzy
                                       AS DOUBLE)), 6)
            ELSE NULL END AS twi
FROM d ORDER BY cell
"""


def q_d8_basin_sizes(sf_dir: str):
    """Watershed delineation from the D8 pointer forest: every cell
    drains along steepest descent to a terminal SINK (local minimum /
    flat), and the basins are the connected components of that
    forest — labeled here by vectorized pointer-jumping (log-depth
    doubling, no per-cell walks).  Output: each sink with its basin
    size and elevation — the drainage decomposition downstream tools
    (stream orders, spill routing) start from.  All integers; the
    twin replays paths with the shared recursive CTE."""
    e = _dem32(sf_dir)
    down = _d8_down(e)
    sink = np.where(down < 0, np.arange(1024), down)
    while True:
        nxt = np.where(down[sink] < 0, sink, down[sink])
        if np.array_equal(nxt, sink):
            break
        sink = nxt
    lab, cnt = np.unique(sink, return_counts=True)
    return pd.DataFrame({
        "sink_cell": lab.astype(np.int64),
        "n_cells": cnt.astype(np.int64),
        "sink_elevation": e[lab].astype(np.int64)})


def _sql_d8_basins() -> str:
    return f"""
WITH RECURSIVE {_sql_dem_flow_prefix().lstrip()},
reach AS (SELECT cell AS src, down AS cur FROM flow
          UNION ALL
          SELECT r.src, f.down FROM reach r
          JOIN flow f ON f.cell = r.cur),
term AS (SELECT r.src, r.cur AS sink
         FROM reach r LEFT JOIN flow f ON f.cell = r.cur
         WHERE f.cell IS NULL),
self_sink AS (SELECT g.cell AS sink FROM grid g
              LEFT JOIN flow f ON f.cell = g.cell
              WHERE f.cell IS NULL),
members AS (SELECT sink FROM term
            UNION ALL SELECT sink FROM self_sink)
SELECT m.sink AS sink_cell,
       CAST(COUNT(*) AS BIGINT) AS n_cells,
       g.e AS sink_elevation
FROM members m JOIN grid g ON g.cell = m.sink
GROUP BY 1, 3 ORDER BY 1
"""


def q_pair_correlation_function(sf_dir: str):
    """Pair correlation function ĝ(r) over the customer points — the
    NON-cumulative sibling of Ripley's K (K says 'clustered somewhere
    below r'; PCF says 'clustered AT r'): ring pair counts are exact
    integer DIFFERENCES of the same cell-replicated histogram the K
    op folds (the third K-family consumer — the kernel is shared, per
    the round-4 deferred note), normalized by the annulus area:
    ĝ = A·ring/(n(n−1))/π/(r²−r'²).  One float chain per ring,
    mirrored verbatim."""
    kdf = q_ripleys_k(sf_dir)
    radii = kdf["r"].to_numpy(np.int64)
    cum = kdf["n_pairs"].to_numpy(np.int64)
    prev_r = np.concatenate(([0], radii[:-1]))
    ring = cum - np.concatenate(([0], cum[:-1]))
    n = _read(sf_dir, "customer", ["c_custkey"]).count()
    g = 1000000.0 * ring.astype(np.float64) \
        / (float(n) * (n - 1)) / np.pi \
        / (radii * radii - prev_r * prev_r).astype(np.float64)
    return pd.DataFrame({
        "r": radii, "ring_pairs": ring,
        "g_hat": np.round(g, 6)}).astype({
            "r": np.int64, "ring_pairs": np.int64})


SQL_PCF = """
WITH p AS (SELECT c_custkey AS k,
                  (c_custkey * 7919) % 1000 AS x,
                  (c_custkey * 104729) % 1000 AS y
           FROM customer),
t AS (SELECT COUNT(*) AS n FROM p),
d AS (SELECT (a.x - b.x) * (a.x - b.x)
               + (a.y - b.y) * (a.y - b.y) AS d2
      FROM p a JOIN p b ON a.k <> b.k),
h AS (SELECT r, rp,
             -- first ring keeps coincident points (d2 = 0): the
             -- lattice wraps at n > 1000 so exact co-location is real
             CAST(COUNT(*) FILTER (WHERE d2 <= r * r
                                     AND (rp = 0 OR d2 > rp * rp))
                  AS BIGINT) AS ring
      FROM d CROSS JOIN
           (SELECT UNNEST([5, 10, 15, 20, 25]) AS r,
                   UNNEST([0, 5, 10, 15, 20]) AS rp) radii
      GROUP BY r, rp)
SELECT r, ring AS ring_pairs,
       ROUND(1000000.0 * ring / (CAST(n AS DOUBLE) * (n - 1))
             / PI() / (r * r - rp * rp), 6) AS g_hat
FROM h, t ORDER BY r
"""


def q_morisita_index(sf_dir: str):
    """Morisita's index of dispersion over the 5×5 quadrat grid —
    ecology's density-invariant clumping number (1 = random, > 1 =
    clumped, < 1 = even — and unlike variance/mean it doesn't move
    under random thinning): I_M = Q·Σn_q(n_q−1)/(N(N−1)), every term
    an exact integer from ONE quadrat-count reduce, one mirrored
    division.  Reported with the raw quadrat occupancy stats."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_custkey"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        qx = ((k * 7919) % 1000) // 200
        qy = ((k * 104729) % 1000) // 200
        g = pd.DataFrame({"q": qy * 5 + qx, "c": 1}) \
            .groupby("q", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    qc = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("q").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    counts = np.zeros(25, dtype=np.int64)
    counts[qc["q"].to_numpy(np.int64)] = qc["c"].to_numpy(np.int64)
    n_tot = int(counts.sum())
    s_pair = int((counts.astype(object)
                  * (counts.astype(object) - 1)).sum())
    im = float(25 * s_pair) / float(n_tot * (n_tot - 1))
    return pd.DataFrame([{
        "n_points": n_tot, "n_quadrats": 25,
        "occupied": int((counts > 0).sum()),
        "max_quadrat": int(counts.max()), "sum_nn1": s_pair,
        "morisita": np.round(im, 6)}]).astype({
            "n_points": np.int64, "n_quadrats": np.int64,
            "occupied": np.int64, "max_quadrat": np.int64,
            "sum_nn1": np.int64})


SQL_MORISITA = """
WITH q AS (SELECT (((c_custkey * 104729) % 1000) // 200) * 5
                  + ((c_custkey * 7919) % 1000) // 200 AS q,
                  CAST(COUNT(*) AS BIGINT) AS c
           FROM customer GROUP BY 1),
s AS (SELECT CAST(SUM(c) AS BIGINT) AS n,
             CAST(COUNT(*) AS BIGINT) AS occ,
             CAST(MAX(c) AS BIGINT) AS mx,
             CAST(SUM(CAST(c AS HUGEINT) * (c - 1)) AS BIGINT)
               AS s_pair
      FROM q)
SELECT n AS n_points, CAST(25 AS BIGINT) AS n_quadrats,
       occ AS occupied, mx AS max_quadrat, s_pair AS sum_nn1,
       ROUND(CAST(25 * CAST(s_pair AS HUGEINT) AS DOUBLE)
             / CAST(CAST(n AS HUGEINT) * (n - 1) AS DOUBLE), 6)
         AS morisita
FROM s
"""


def q_general_g_nation_revenue(sf_dir: str):
    """Getis–Ord General G over nation revenue on the 5×5 rook grid —
    the global HIGH-value clustering statistic that Moran's I can't
    substitute (I sees covariation of deviations; G asks whether the
    LARGE values themselves sit together): G = Σw·xᵢxⱼ / Σxᵢxⱼ (i≠j)
    with E[G] = S₀/(n(n−1)).  Revenue cents are exact integers, both
    quotients are single mirrored divisions of arbitrary-precision
    products, and clustered-highs show as G > E[G] — a pure integer
    cross-multiplication flag."""
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda t: pa.table({
            "o_custkey": t["c_custkey"],
            "nk": t["c_nationkey"].cast(pa.int64())}),
            batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def combine(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"nk": t["nk"].to_numpy(
            zero_copy_only=False), "pc_": cents}) \
            .groupby("nk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        relational.bucketed_hash_join(orders, cust, on="o_custkey",
                                      combine=combine)
        .groupby("nk").aggregate(Sum("pc_", alias_name="cents"))
    ).to_pandas()
    x = [0] * 25
    for r in agg.itertuples():
        x[int(r.nk)] = int(r.cents)
    num = 0
    s0 = 0
    for nk in range(25):
        c, r = nk % 5, nk // 5
        if c + 1 < 5:
            num += 2 * x[nk] * x[nk + 1]
            s0 += 2
        if r + 1 < 5:
            num += 2 * x[nk] * x[nk + 5]
            s0 += 2
    tot = sum(x)
    den = tot * tot - sum(v * v for v in x)
    g = float(num) / float(den)
    e_g = float(s0) / float(25 * 24)
    return pd.DataFrame([{
        "s0": s0, "g_stat": np.round(g, 6),
        "e_g": np.round(e_g, 6),
        "high_clustered": num * 25 * 24 > s0 * den}]).astype({
            "s0": np.int64})


SQL_GENERAL_G = """
WITH rev AS (SELECT c_nationkey AS nk,
                    SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                      AS cents
             FROM orders JOIN customer ON o_custkey = c_custkey
             GROUP BY 1),
grid AS (SELECT nk, COALESCE(rev.cents, 0) AS x
         FROM (SELECT unnest(generate_series(0, 24)) AS nk)
         LEFT JOIN rev USING (nk)),
e AS (SELECT SUM(2 * a.x * b.x) AS num2_
      FROM grid a JOIN grid b
        ON (b.nk = a.nk + 1 AND a.nk % 5 < 4)
        OR (b.nk = a.nk + 5 AND a.nk // 5 < 4)),
t AS (SELECT SUM(x) AS tot, SUM(x * x) AS ssq,
             (SELECT 2 * COUNT(*) FROM grid a JOIN grid b
              ON (b.nk = a.nk + 1 AND a.nk % 5 < 4)
              OR (b.nk = a.nk + 5 AND a.nk // 5 < 4)) AS s0
      FROM grid)
SELECT CAST(t.s0 AS BIGINT) AS s0,
       ROUND(CAST(e.num2_ AS DOUBLE)
             / CAST(t.tot * t.tot - t.ssq AS DOUBLE), 6) AS g_stat,
       ROUND(CAST(t.s0 AS DOUBLE) / 600.0, 6) AS e_g,
       e.num2_ * 600 > t.s0 * (t.tot * t.tot - t.ssq)
         AS high_clustered
FROM e, t
"""


def _nation_z_pvalues(sf_dir: str) -> pd.DataFrame:
    """Shared per-nation two-sided z-test panel (mean acctbal vs the
    global mean, population σ) for the multiple-testing family.  The
    sufficient statistics are exact cent integers from ONE nation-
    keyed reduce; z is a mirrored float chain, and the normal tail
    p = 1 − erf(|z|/√2) uses the Abramowitz–Stegun 7.1.26 rational
    approximation evaluated in IDENTICAL Horner order on both engines
    (DuckDB has no erf — the approximation IS the op contract, ≤1.5e-7
    absolute error)."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({"nk": nk, "n": 1, "s": cents,
                          "s2": cents * cents}) \
            .groupby("nk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("nk").aggregate(Sum("n", alias_name="n"),
                                 Sum("s", alias_name="s"),
                                 Sum("s2", alias_name="s2"))
    ).to_pandas().sort_values("nk").reset_index(drop=True)
    n_tot = int(g["n"].sum())
    s_tot = int(g["s"].sum())
    s2_tot = int(g["s2"].sum())
    mu = float(s_tot) / float(n_tot)
    sd = float(np.sqrt(float(s2_tot) / float(n_tot) - mu * mu))
    z = (g["s"].to_numpy(np.int64).astype(np.float64)
         / g["n"].to_numpy(np.int64).astype(np.float64) - mu) \
        * np.sqrt(g["n"].to_numpy(np.int64).astype(np.float64)) / sd
    x = np.abs(z) / np.sqrt(2.0)
    t_ = 1.0 / (1.0 + 0.3275911 * x)
    poly = ((((1.061405429 * t_ - 1.453152027) * t_
              + 1.421413741) * t_ - 0.284496736) * t_
            + 0.254829592) * t_
    p = poly * np.exp(-(x * x))          # = 1 − erf(x) = 2-sided p
    return pd.DataFrame({"nk": g["nk"].astype(np.int64),
                         "z": z, "p": p})


SQL_NATION_PVALUES_CTE = """
g AS (SELECT c_nationkey AS nk, CAST(COUNT(*) AS BIGINT) AS n,
             SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS HUGEINT))
               AS s,
             SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS HUGEINT)
                 * CAST(FLOOR(c_acctbal * 100 + 0.5) AS HUGEINT))
               AS s2
      FROM customer GROUP BY 1),
tt AS (SELECT SUM(n) AS n, SUM(s) AS s, SUM(s2) AS s2 FROM g),
mm AS (SELECT CAST(s AS DOUBLE) / CAST(n AS DOUBLE) AS mu,
              SQRT(CAST(s2 AS DOUBLE) / CAST(n AS DOUBLE)
                   - (CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
                     * (CAST(s AS DOUBLE) / CAST(n AS DOUBLE)))
                AS sd
       FROM tt),
zz AS (SELECT nk,
              (CAST(s AS DOUBLE) / CAST(n AS DOUBLE) - mm.mu)
              * SQRT(CAST(n AS DOUBLE)) / mm.sd AS z
       FROM g, mm),
pv AS (SELECT nk, z,
              ((((1.061405429 * tv - 1.453152027) * tv
                 + 1.421413741) * tv - 0.284496736) * tv
               + 0.254829592) * tv * EXP(-(xv * xv)) AS p
       FROM (SELECT nk, z, ABS(z) / SQRT(2.0) AS xv,
                    1.0 / (1.0 + 0.3275911 * (ABS(z) / SQRT(2.0)))
                      AS tv
             FROM zz))
"""


def q_bh_fdr_nations(sf_dir: str):
    """Benjamini–Hochberg FDR control (q = 0.10) over the 25 nation
    mean tests — the multiple-testing correction every screening
    pipeline needs before calling 25 'significant' nations: rank the
    p-values ascending (nation tiebreak), find the largest k with
    p₍ₖ₎ ≤ k·q/m, reject ranks ≤ k.  Step-UP: one late small p can
    rescue earlier ones — the behavior Bonferroni can't express."""
    pv = _nation_z_pvalues(sf_dir)
    pv = pv.sort_values(["p", "nk"]).reset_index(drop=True)
    m = len(pv)
    ranks = np.arange(1, m + 1)
    ok = pv["p"].to_numpy() <= ranks * 0.10 / m
    kmax = int(ranks[ok].max()) if ok.any() else 0
    pv["rank"] = ranks
    pv["bh_reject"] = ranks <= kmax
    out = pv.sort_values("nk").reset_index(drop=True)
    return pd.DataFrame({
        "nk": out["nk"], "z": np.round(out["z"], 6),
        "p": np.round(out["p"], 6),
        "p_rank": out["rank"].astype(np.int64),
        "bh_reject": out["bh_reject"]})


def _sql_bh_fdr() -> str:
    return f"""
WITH {SQL_NATION_PVALUES_CTE.strip()},
r AS (SELECT nk, z, p,
             ROW_NUMBER() OVER (ORDER BY p, nk) AS rk
      FROM pv),
k AS (SELECT COALESCE(MAX(rk), 0) AS kmax
      FROM r, (SELECT COUNT(*) AS m FROM r) m
      WHERE p <= rk * 0.10 / m.m)
SELECT nk, ROUND(z, 6) AS z, ROUND(p, 6) AS p,
       CAST(rk AS BIGINT) AS p_rank, rk <= k.kmax AS bh_reject
FROM r, k ORDER BY nk
"""


def q_holm_bonferroni_nations(sf_dir: str):
    """Holm's step-DOWN procedure (α = 0.10) beside plain Bonferroni
    on the same nation panel: walk the sorted p-values rejecting
    while p₍ₖ₎ ≤ α/(m−k+1), stop at the first failure — uniformly
    more powerful than Bonferroni at the same family-wise error, and
    the holm⊇bonferroni containment is a per-row boolean fact the
    hash verifies."""
    pv = _nation_z_pvalues(sf_dir)
    pv = pv.sort_values(["p", "nk"]).reset_index(drop=True)
    m = len(pv)
    ranks = np.arange(1, m + 1)
    thresh = 0.10 / (m - ranks + 1)
    fail = pv["p"].to_numpy() > thresh
    first_fail = int(ranks[fail].min()) if fail.any() else m + 1
    pv["rank"] = ranks
    pv["holm_reject"] = ranks < first_fail
    pv["bonf_reject"] = pv["p"].to_numpy() <= 0.10 / m
    out = pv.sort_values("nk").reset_index(drop=True)
    return pd.DataFrame({
        "nk": out["nk"], "p": np.round(out["p"], 6),
        "p_rank": out["rank"].astype(np.int64),
        "holm_reject": out["holm_reject"],
        "bonf_reject": out["bonf_reject"]})


def _sql_holm() -> str:
    return f"""
WITH {SQL_NATION_PVALUES_CTE.strip()},
r AS (SELECT nk, p, ROW_NUMBER() OVER (ORDER BY p, nk) AS rk,
             (SELECT COUNT(*) FROM pv) AS m
      FROM pv),
ff AS (SELECT COALESCE(MIN(rk), (SELECT MAX(m) + 1 FROM r))
         AS first_fail
       FROM r WHERE p > 0.10 / (m - rk + 1))
SELECT nk, ROUND(p, 6) AS p, CAST(rk AS BIGINT) AS p_rank,
       rk < ff.first_fail AS holm_reject,
       p <= 0.10 / m AS bonf_reject
FROM r, ff ORDER BY nk
"""


def q_fisher_combined_nations(sf_dir: str):
    """Fisher's combined probability over the 25 nation tests —
    'is ANYTHING going on' from the whole p-value panel:
    X = −2Σ ln p ~ χ²(2m) under the global null.  Each ln p is
    NANO-QUANTIZED before the fold (the registry's unordered-SUM
    armor); reported with the small-p count — the cheap screen run
    before the per-test corrections."""
    pv = _nation_z_pvalues(sf_dir)
    q9 = np.floor(np.log(pv["p"].to_numpy()) * 1e9 + 0.5) \
        .astype(np.int64)
    s9 = int(q9.sum())
    x = -2.0 * (s9 / 1e9)
    return pd.DataFrame([{
        "m_tests": len(pv), "df": 2 * len(pv),
        "lnp_sum_e9": s9, "fisher_x": np.round(x, 6),
        "n_p_below_05": int((pv["p"].to_numpy() < 0.05).sum())}]) \
        .astype({"m_tests": np.int64, "df": np.int64,
                 "lnp_sum_e9": np.int64, "n_p_below_05": np.int64})


def _sql_fisher_combined() -> str:
    return f"""
WITH {SQL_NATION_PVALUES_CTE.strip()},
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS m,
             CAST(SUM(CAST(FLOOR(LN(p) * 1e9 + 0.5) AS BIGINT))
                  AS BIGINT) AS s9,
             CAST(SUM(CASE WHEN p < 0.05 THEN 1 ELSE 0 END)
                  AS BIGINT) AS nb
      FROM pv)
SELECT m AS m_tests, 2 * m AS df, s9 AS lnp_sum_e9,
       ROUND(-2.0 * (s9 / 1e9), 6) AS fisher_x,
       nb AS n_p_below_05
FROM t
"""


def _facility_sites(sf_dir: str):
    """Supplier facility panel for the accessibility family: site =
    the shared synthetic point, capacity = 1 + suppkey % 3 (toy
    units).  Small side — broadcast once."""
    sup = _read_table(sf_dir, "supplier", ["s_suppkey"])
    sk = sup["s_suppkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    return pd.DataFrame({
        "sk": sk, "x": (sk * 7919) % 1000,
        "y": (sk * 104729) % 1000, "cap": 1 + sk % 3}) \
        .sort_values("sk").reset_index(drop=True)


def q_nearest_facility_distance(sf_dir: str):
    """Spatial accessibility, first cut: every customer's exact
    squared distance to the nearest supplier facility (broadcast
    small side, vectorized min over the site matrix — the kNN-join
    shape at k=1), summarized as the exact lower-median d², the
    nano-robust p90 (exact order statistic), and the UNDERSERVED
    count beyond the 200-unit catchment — an integer planning fact."""
    fac = _facility_sites(sf_dir)
    fx = fac["x"].to_numpy(np.int64)
    fy = fac["y"].to_numpy(np.int64)
    ref = ray.put((fx, fy))

    def mind2(t: pa.Table) -> pa.Table:
        from ...stages.relational import worker_cached
        xx, yy = worker_cached(("fac_sites", ref),
                               lambda: ray.get(ref))
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        px = (k * 7919) % 1000
        py = (k * 104729) % 1000
        d2 = ((px[:, None] - xx[None, :]) ** 2
              + (py[:, None] - yy[None, :]) ** 2).min(axis=1)
        return pa.table({"d2": pa.array(d2)})

    d2 = relational.ds_to_table(
        _read(sf_dir, "customer", ["c_custkey"])
        .map_batches(mind2, batch_format="pyarrow")
    ).to_pandas()["d2"].to_numpy(np.int64)
    v = np.sort(d2)
    n = len(v)
    med = int(v[(n + 1) // 2 - 1])
    p90 = int(v[(9 * n + 9) // 10 - 1])
    return pd.DataFrame([{
        "n_customers": n, "median_d2": med, "p90_d2": p90,
        "n_underserved": int((d2 > 40000).sum())}]).astype(np.int64)


SQL_NEAREST_FACILITY = """
WITH f AS (SELECT (s_suppkey * 7919) % 1000 AS x,
                  (s_suppkey * 104729) % 1000 AS y
           FROM supplier),
c AS (SELECT c_custkey AS k, (c_custkey * 7919) % 1000 AS x,
             (c_custkey * 104729) % 1000 AS y
      FROM customer),
nd AS (SELECT c.k, MIN((c.x - f.x) * (c.x - f.x)
                       + (c.y - f.y) * (c.y - f.y)) AS d2
       FROM c, f GROUP BY 1),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM nd),
r AS (SELECT d2, ROW_NUMBER() OVER (ORDER BY d2) AS rn FROM nd)
SELECT n.n AS n_customers,
       (SELECT CAST(d2 AS BIGINT) FROM r, n
        WHERE rn = (n.n + 1) // 2) AS median_d2,
       (SELECT CAST(d2 AS BIGINT) FROM r, n
        WHERE rn = (9 * n.n + 9) // 10) AS p90_d2,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM nd
        WHERE d2 > 40000) AS n_underserved
FROM n
"""


def q_two_step_fca(sf_dir: str):
    """Two-step floating catchment area (2SFCA) — THE healthcare/
    service accessibility method: step 1 gives each facility a
    capacity-to-demand ratio over customers within the 200-unit
    catchment; step 2 sums those ratios over the facilities serving
    each customer.  The ratios are NANO-QUANTIZED ONCE per facility
    (⌊cap·10⁹/demand⌋ — integer division of exact counts), so step 2
    is a pure int64 fold regardless of how many catchments overlap a
    customer, and the per-nation mean accessibility spends one
    mirrored division.  Two broadcast passes, no shuffle joins."""
    from ray.data.aggregate import Sum
    fac = _facility_sites(sf_dir)
    fx = fac["x"].to_numpy(np.int64)
    fy = fac["y"].to_numpy(np.int64)
    cap = fac["cap"].to_numpy(np.int64)
    ref = ray.put((fx, fy))

    def demand(t: pa.Table) -> pa.Table:
        from ...stages.relational import worker_cached
        xx, yy = worker_cached(("fca_sites", ref),
                               lambda: ray.get(ref))
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        px = (k * 7919) % 1000
        py = (k * 104729) % 1000
        within = ((px[:, None] - xx[None, :]) ** 2
                  + (py[:, None] - yy[None, :]) ** 2) <= 40000
        return pa.table({
            "fi": pa.array(np.arange(len(xx), dtype=np.int64)),
            "dem": pa.array(within.sum(axis=0).astype(np.int64))})

    dem = relational.ds_to_table(
        _read(sf_dir, "customer", ["c_custkey"])
        .map_batches(demand, batch_format="pyarrow")
        .groupby("fi").aggregate(Sum("dem", alias_name="dem"))
    ).to_pandas().sort_values("fi")
    dv = np.zeros(len(fx), dtype=np.int64)
    dv[dem["fi"].to_numpy(np.int64)] = dem["dem"].to_numpy(np.int64)
    r9 = np.where(dv > 0, cap * 1_000_000_000 // np.maximum(dv, 1),
                  0).astype(np.int64)
    r9_ref = ray.put((fx, fy, r9))

    def access(t: pa.Table) -> pa.Table:
        from ...stages.relational import worker_cached
        xx, yy, rr = worker_cached(("fca_r9", r9_ref),
                                   lambda: ray.get(r9_ref))
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        px = (k * 7919) % 1000
        py = (k * 104729) % 1000
        within = ((px[:, None] - xx[None, :]) ** 2
                  + (py[:, None] - yy[None, :]) ** 2) <= 40000
        a9 = (within * rr[None, :]).sum(axis=1)
        g = pd.DataFrame({"nk": nk, "n": 1, "a9": a9}) \
            .groupby("nk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = relational.ds_to_table(
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
        .map_batches(access, batch_format="pyarrow")
        .groupby("nk").aggregate(Sum("n", alias_name="n"),
                                 Sum("a9", alias_name="a9"))
    ).to_pandas().sort_values("nk").reset_index(drop=True)
    return pd.DataFrame({
        "nk": out["nk"].astype(np.int64),
        "n_customers": out["n"].astype(np.int64),
        "a9_sum": out["a9"].astype(np.int64),
        "mean_access": ((out["a9"] / out["n"]) / 1e9).round(6)})


SQL_TWO_STEP_FCA = """
WITH f AS (SELECT s_suppkey AS sk, (s_suppkey * 7919) % 1000 AS x,
                  (s_suppkey * 104729) % 1000 AS y,
                  1 + s_suppkey % 3 AS cap
           FROM supplier),
c AS (SELECT c_custkey AS k, c_nationkey AS nk,
             (c_custkey * 7919) % 1000 AS x,
             (c_custkey * 104729) % 1000 AS y
      FROM customer),
dem AS (SELECT f.sk, f.cap, CAST(COUNT(c.k) AS BIGINT) AS d
        FROM f LEFT JOIN c
          ON (c.x - f.x) * (c.x - f.x)
             + (c.y - f.y) * (c.y - f.y) <= 40000
        GROUP BY 1, 2),
r9 AS (SELECT sk, CASE WHEN d > 0
                       THEN CAST(cap AS BIGINT) * 1000000000 // d
                       ELSE 0 END AS r9,
              (SELECT x FROM f WHERE f.sk = dem.sk) AS x,
              (SELECT y FROM f WHERE f.sk = dem.sk) AS y
       FROM dem),
a AS (SELECT c.nk, c.k,
             CAST(COALESCE(SUM(r9.r9), 0) AS BIGINT) AS a9
      FROM c LEFT JOIN r9
        ON (c.x - r9.x) * (c.x - r9.x)
           + (c.y - r9.y) * (c.y - r9.y) <= 40000
      GROUP BY 1, 2)
SELECT nk, CAST(COUNT(*) AS BIGINT) AS n_customers,
       CAST(SUM(a9) AS BIGINT) AS a9_sum,
       ROUND(CAST(SUM(a9) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE)
             / 1e9, 6) AS mean_access
FROM a GROUP BY 1 ORDER BY 1
"""


def q_voronoi_service_population(sf_dir: str):
    """Voronoi service areas of the supplier facilities: each customer
    assigns to its NEAREST facility (exact integer d², suppkey
    tiebreak — a deterministic discrete Voronoi tessellation), and
    the facility's service population is the count.  The load-balance
    readout siting tools iterate on; capacity-weighted pressure
    (population per capacity unit) is one mirrored division per
    facility."""
    from ray.data.aggregate import Sum
    fac = _facility_sites(sf_dir)
    fx = fac["x"].to_numpy(np.int64)
    fy = fac["y"].to_numpy(np.int64)
    sk = fac["sk"].to_numpy(np.int64)
    cap = fac["cap"].to_numpy(np.int64)
    ref = ray.put((fx, fy, sk))

    def assign(t: pa.Table) -> pa.Table:
        from ...stages.relational import worker_cached
        xx, yy, ss = worker_cached(("vor_sites", ref),
                                   lambda: ray.get(ref))
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        px = (k * 7919) % 1000
        py = (k * 104729) % 1000
        d2 = ((px[:, None] - xx[None, :]) ** 2
              + (py[:, None] - yy[None, :]) ** 2)
        # nearest with suppkey tiebreak: lexicographic (d2, sk)
        order = np.argsort(ss, kind="stable")
        d2o = d2[:, order]
        best = d2o.argmin(axis=1)          # first min → smallest sk
        win = ss[order][best]
        g = pd.DataFrame({"sk": win, "c": 1}) \
            .groupby("sk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = relational.ds_to_table(
        _read(sf_dir, "customer", ["c_custkey"])
        .map_batches(assign, batch_format="pyarrow")
        .groupby("sk").aggregate(Sum("c", alias_name="pop"))
    ).to_pandas().set_index("sk")
    res = fac.copy()
    res["service_pop"] = out["pop"].reindex(res["sk"]) \
        .fillna(0).to_numpy(np.int64)
    res["pressure"] = (res["service_pop"]
                       / res["cap"].astype(np.float64)).round(6)
    return res[["sk", "cap", "service_pop", "pressure"]].astype({
        "sk": np.int64, "cap": np.int64, "service_pop": np.int64})


SQL_VORONOI_SERVICE = """
WITH f AS (SELECT s_suppkey AS sk, (s_suppkey * 7919) % 1000 AS x,
                  (s_suppkey * 104729) % 1000 AS y,
                  CAST(1 + s_suppkey % 3 AS BIGINT) AS cap
           FROM supplier),
c AS (SELECT c_custkey AS k, (c_custkey * 7919) % 1000 AS x,
             (c_custkey * 104729) % 1000 AS y
      FROM customer),
d AS (SELECT c.k, f.sk,
             (c.x - f.x) * (c.x - f.x) + (c.y - f.y) * (c.y - f.y)
               AS d2
      FROM c, f),
w AS (SELECT k, sk FROM (
        SELECT k, sk, ROW_NUMBER() OVER (
          PARTITION BY k ORDER BY d2, sk) AS rn
        FROM d) WHERE rn = 1),
pop AS (SELECT sk, CAST(COUNT(*) AS BIGINT) AS service_pop
        FROM w GROUP BY 1)
SELECT f.sk, f.cap, COALESCE(pop.service_pop, 0) AS service_pop,
       ROUND(CAST(COALESCE(pop.service_pop, 0) AS DOUBLE)
             / CAST(f.cap AS DOUBLE), 6) AS pressure
FROM f LEFT JOIN pop USING (sk) ORDER BY f.sk
"""


def q_shapley_shubik_power(sf_dir: str):
    """Shapley–Shubik power index of the top-3 revenue nations in a
    weighted vote with quota = half the TOTAL revenue (all 25
    nations' cents; the remaining 22 abstain) — the voting-power
    number that routinely embarrasses raw weight shares: power =
    share of the 6 orderings in which the nation is PIVOTAL (its
    arrival pushes the running total past quota).  Every pivot
    decision is an exact integer comparison; each index is k/6."""
    nr = _nation_revenue_for_seats(sf_dir)
    top = nr.sort_values(["revenue_cents", "n_nationkey"],
                         ascending=[False, True]).head(3)
    nk = [int(v) for v in top["n_nationkey"]]
    w = [int(v) for v in top["revenue_cents"]]
    quota2 = sum(w)                    # 2·quota = Σw (quota = Σw/2)
    from itertools import permutations
    pivots = {k: 0 for k in nk}
    for perm in permutations(range(3)):
        run = 0
        for i in perm:
            run += w[i]
            if 2 * run >= quota2:       # run ≥ T/2, integer-cleared
                pivots[nk[i]] += 1
                break
    return pd.DataFrame({
        "n_nationkey": nk,
        "weight_cents": w,
        "n_pivotal": [pivots[k] for k in nk],
        "ss_power": [np.round(pivots[k] / 6.0, 6) for k in nk]}) \
        .astype({"n_nationkey": np.int64, "weight_cents": np.int64,
                 "n_pivotal": np.int64})


SQL_SHAPLEY_SHUBIK = """
WITH nr AS (SELECT c_nationkey AS nk,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS w
            FROM orders JOIN customer ON c_custkey = o_custkey
            GROUP BY 1),
top3 AS (SELECT nk, w, ROW_NUMBER() OVER (ORDER BY w DESC, nk)
           AS r
         FROM nr QUALIFY r <= 3),
tot AS (SELECT SUM(w) AS t FROM top3),
perms AS (SELECT * FROM (VALUES (1,2,3),(1,3,2),(2,1,3),(2,3,1),
                                (3,1,2),(3,2,1)) p(a, b, c)),
pv AS (SELECT p.a, p.b, p.c,
              wa.w AS w1, wb.w AS w2, wc.w AS w3,
              wa.nk AS n1, wb.nk AS n2, wc.nk AS n3
       FROM perms p
       JOIN top3 wa ON wa.r = p.a
       JOIN top3 wb ON wb.r = p.b
       JOIN top3 wc ON wc.r = p.c),
piv AS (SELECT CASE WHEN 2 * w1 >= tot.t THEN n1
                    WHEN 2 * (w1 + w2) >= tot.t THEN n2
                    ELSE n3 END AS pnk
        FROM pv, tot),
cnt AS (SELECT pnk, CAST(COUNT(*) AS BIGINT) AS k
        FROM piv GROUP BY 1)
SELECT t3.nk AS n_nationkey, t3.w AS weight_cents,
       COALESCE(cnt.k, 0) AS n_pivotal,
       ROUND(COALESCE(cnt.k, 0) / 6.0, 6) AS ss_power
FROM top3 t3 LEFT JOIN cnt ON cnt.pnk = t3.nk
ORDER BY t3.w DESC, t3.nk
"""


def q_grubbs_acctbal(sf_dir: str):
    """Grubbs' test statistic for the single most extreme customer
    balance — G = max|x−μ|/σ, the one-outlier screen that reads off
    how many σ the worst point sits out: the ARGMAX is decided by the
    exact integer cross-multiplication |n·x − S| (no float ever picks
    the suspect; ties break to the smaller custkey), and only G
    itself spends the mirrored float chain."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def moments(t: pa.Table) -> pa.Table:
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        return pa.table({
            "_g": pa.array([0]), "n": pa.array([len(cents)]),
            "s": pa.array([int(cents.sum())]),
            "s2": pa.array([int((cents.astype(object) ** 2)
                                .sum())])})

    m = relational.ds_to_table(
        cu.map_batches(moments, batch_format="pyarrow")
        .groupby("_g").aggregate(Sum("n", alias_name="n"),
                                 Sum("s", alias_name="s"),
                                 Sum("s2", alias_name="s2"))
    ).to_pandas().iloc[0]
    n, s, s2 = int(m["n"]), int(m["s"]), int(m["s2"])

    def extreme(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        dev = np.abs(n * cents.astype(object) - s)
        order = np.lexsort((k, -dev.astype(np.float64)))
        i = order[0]
        return pa.table({"k": pa.array([int(k[i])]),
                         "v": pa.array([int(cents[i])]),
                         "dev_hi": pa.array([int(dev[i] >> 62)]),
                         "dev_lo": pa.array(
                             [int(dev[i] & ((1 << 62) - 1))])})

    cand = relational.ds_to_table(
        cu.map_batches(extreme, batch_format="pyarrow")
    ).to_pandas()
    cand["dev"] = cand["dev_hi"].map(int) * (1 << 62) \
        + cand["dev_lo"].map(int)
    cand = cand.sort_values(["dev", "k"],
                            ascending=[False, True]).iloc[0]
    mu = float(s) / float(n)
    sd = float(np.sqrt(float(s2) / float(n) - mu * mu))
    g = abs(float(int(cand["v"])) - mu) / sd
    return pd.DataFrame([{
        "n_customers": n, "outlier_custkey": int(cand["k"]),
        "outlier_cents": int(cand["v"]),
        "g_stat": np.round(g, 6)}]).astype({
            "n_customers": np.int64, "outlier_custkey": np.int64,
            "outlier_cents": np.int64})


SQL_GRUBBS = """
WITH c AS (SELECT c_custkey AS k,
                  CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT) AS v
           FROM customer),
s AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(CAST(v AS HUGEINT)) AS s,
             SUM(CAST(v AS HUGEINT) * v) AS s2
      FROM c),
x AS (SELECT k, v, ABS(s.n * v - s.s) AS dev FROM c, s
      ORDER BY dev DESC, k LIMIT 1),
f AS (SELECT CAST(s.s AS DOUBLE) / CAST(s.n AS DOUBLE) AS mu,
             SQRT(CAST(s.s2 AS DOUBLE) / CAST(s.n AS DOUBLE)
                  - (CAST(s.s AS DOUBLE) / CAST(s.n AS DOUBLE))
                    * (CAST(s.s AS DOUBLE) / CAST(s.n AS DOUBLE)))
               AS sd,
             s.n, x.k, x.v
      FROM s, x)
SELECT CAST(n AS BIGINT) AS n_customers,
       CAST(k AS BIGINT) AS outlier_custkey,
       CAST(v AS BIGINT) AS outlier_cents,
       ROUND(ABS(CAST(v AS DOUBLE) - mu) / sd, 6) AS g_stat
FROM f
"""


def q_dixon_q_acctbal(sf_dir: str):
    """Dixon's Q test at the TOP of the balance distribution —
    small-sample chemistry's favorite reject-this-reading rule:
    Q = gap/range = (x₍ₙ₎−x₍ₙ₋₁₎)/(x₍ₙ₎−x₍₁₎), an EXACT rational of
    order-statistic cents (one mirrored division); the bottom-end
    twin Q' comes free.  Reported with the three defining order
    statistics so the suspect is auditable."""
    from ray.data.aggregate import Max, Min
    cu = _read(sf_dir, "customer", ["c_acctbal"])

    def cents_col(t: pa.Table) -> pa.Table:
        return pa.table({"v": pa.array(np.floor(
            t["c_acctbal"].to_numpy(zero_copy_only=False) * 100
            + 0.5).astype(np.int64))})

    vds = cu.map_batches(cents_col, batch_format="pyarrow")
    # the four needed order stats via two tiny per-block prunes
    tbl = relational.ds_to_table(
        vds.map_batches(
            lambda t: pa.Table.from_pandas(pd.DataFrame({
                "v": np.sort(t["v"].to_numpy(
                    zero_copy_only=False))[sorted(
                        set(range(min(2, t.num_rows)))
                        | set(range(max(0, t.num_rows - 2),
                                    t.num_rows)))]}),
                preserve_index=False),
            batch_format="pyarrow")).to_pandas()
    v = np.sort(tbl["v"].to_numpy(np.int64))
    x1, x2 = int(v[0]), int(v[1])
    xn1, xn = int(v[-2]), int(v[-1])
    q_top = float(xn - xn1) / float(xn - x1)
    q_bot = float(x2 - x1) / float(xn - x1)
    return pd.DataFrame([{
        "x_min_c": x1, "x_2nd_c": x2, "x_penult_c": xn1,
        "x_max_c": xn, "q_top": np.round(q_top, 6),
        "q_bottom": np.round(q_bot, 6)}]).astype({
            "x_min_c": np.int64, "x_2nd_c": np.int64,
            "x_penult_c": np.int64, "x_max_c": np.int64})


SQL_DIXON_Q = """
WITH c AS (SELECT CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT) AS v
           FROM customer),
r AS (SELECT v, ROW_NUMBER() OVER (ORDER BY v) AS a,
             ROW_NUMBER() OVER (ORDER BY v DESC) AS d
      FROM c),
s AS (SELECT (SELECT v FROM r WHERE a = 1) AS x1,
             (SELECT v FROM r WHERE a = 2) AS x2,
             (SELECT v FROM r WHERE d = 2) AS xn1,
             (SELECT v FROM r WHERE d = 1) AS xn)
SELECT x1 AS x_min_c, x2 AS x_2nd_c, xn1 AS x_penult_c,
       xn AS x_max_c,
       ROUND(CAST(xn - xn1 AS DOUBLE) / CAST(xn - x1 AS DOUBLE), 6)
         AS q_top,
       ROUND(CAST(x2 - x1 AS DOUBLE) / CAST(xn - x1 AS DOUBLE), 6)
         AS q_bottom
FROM s
"""


def q_tukey_fences_acctbal(sf_dir: str):
    """Tukey's boxplot fences on customer balances with FULLY INTEGER
    membership: with exact lower-median quartiles (type-1 order
    statistics at ⌈n/4⌉ and ⌈3n/4⌉), the inner/outer fence compares
    clear to 2x ≷ 2Q₃+3·IQR and 2x ≷ 2Q₃+6·IQR — no float ever
    classifies a point, so the mild/extreme outlier counts are
    arithmetic facts.  The op Tukey actually specified, beside the
    registry's z-score and MAD screens."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_acctbal"])

    def cents_col(t: pa.Table) -> pa.Table:
        v = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({"v": v, "c": 1}) \
            .groupby("v", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        cu.map_batches(cents_col, batch_format="pyarrow")
        .groupby("v").aggregate(Sum("c", alias_name="c"))
    ).to_pandas().sort_values("v").reset_index(drop=True)
    c = g["c"].to_numpy(np.int64)
    v = g["v"].to_numpy(np.int64)
    n = int(c.sum())
    cum = np.cumsum(c)

    def orderstat(k: int) -> int:
        return int(v[np.searchsorted(cum, k)])

    q1 = orderstat((n + 3) // 4)
    q3 = orderstat((3 * n + 3) // 4)
    iqr = q3 - q1
    mild_hi = int((c[2 * v > 2 * q3 + 3 * iqr]).sum())
    mild_lo = int((c[2 * v < 2 * q1 - 3 * iqr]).sum())
    ext_hi = int((c[2 * v > 2 * q3 + 6 * iqr]).sum())
    ext_lo = int((c[2 * v < 2 * q1 - 6 * iqr]).sum())
    return pd.DataFrame([{
        "n_customers": n, "q1_c": q1, "q3_c": q3, "iqr_c": iqr,
        "n_mild_out": mild_hi + mild_lo,
        "n_extreme_out": ext_hi + ext_lo}]).astype(np.int64)


SQL_TUKEY_FENCES = """
WITH c AS (SELECT CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT) AS v
           FROM customer),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM c),
r AS (SELECT v, ROW_NUMBER() OVER (ORDER BY v) AS rn FROM c),
q AS (SELECT
        (SELECT v FROM r, n WHERE rn = (n.n + 3) // 4) AS q1,
        (SELECT v FROM r, n WHERE rn = (3 * n.n + 3) // 4) AS q3),
f AS (SELECT q.q1, q.q3, q.q3 - q.q1 AS iqr FROM q)
SELECT n.n AS n_customers, f.q1 AS q1_c, f.q3 AS q3_c,
       f.iqr AS iqr_c,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM c, f
        WHERE 2 * c.v > 2 * f.q3 + 3 * f.iqr
           OR 2 * c.v < 2 * f.q1 - 3 * f.iqr) AS n_mild_out,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM c, f
        WHERE 2 * c.v > 2 * f.q3 + 6 * f.iqr
           OR 2 * c.v < 2 * f.q1 - 6 * f.iqr) AS n_extreme_out
FROM n, f
"""


def q_kde_hotspots_grid(sf_dir: str):
    """Crime-mapping style KDE hotspots on the 32×32 customer-count
    grid with a DISCRETE quartic-shaped kernel (weights 6/4/1 at
    d² = 0/1..2/4..8, zero beyond) — the integer-weight choice makes
    the whole smoothed surface EXACT (a float bandwidth kernel would
    hash-drift), and the top-10 hotspot ranking is an integer sort
    with (cell) tiebreak.  One bounded count reduce + a 5×5
    neighborhood fold per cell."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_custkey"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cx = ((k * 7919) % 1000) // 32
        cy = ((k * 104729) % 1000) // 32
        g = pd.DataFrame({"cell": cy * 32 + cx, "c": 1}) \
            .groupby("cell", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    et = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("cell").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    cnt = np.zeros((32, 32), dtype=np.int64)
    for r in et.itertuples():
        cnt[int(r.cell) // 32, int(r.cell) % 32] = int(r.c)
    dens = np.zeros((32, 32), dtype=np.int64)
    for dy in range(-2, 3):
        for dx in range(-2, 3):
            d2 = dx * dx + dy * dy
            w = 6 if d2 == 0 else (4 if d2 <= 2 else
                                   (1 if d2 <= 8 else 0))
            if w == 0:
                continue
            src = cnt[max(0, -dy):32 - max(0, dy),
                      max(0, -dx):32 - max(0, dx)]
            dens[max(0, dy):32 - max(0, -dy),
                 max(0, dx):32 - max(0, -dx)] += w * src
    flat = dens.ravel()
    order = np.lexsort((np.arange(1024), -flat))[:10]
    return pd.DataFrame({
        "cell": order.astype(np.int64),
        "raw_count": cnt.ravel()[order],
        "kde_density": flat[order]}).astype(np.int64)


SQL_KDE_HOTSPOTS = """
WITH cc AS (SELECT (((c_custkey * 104729) % 1000) // 32) * 32
                   + ((c_custkey * 7919) % 1000) // 32 AS cell,
                   CAST(COUNT(*) AS BIGINT) AS c
            FROM customer GROUP BY 1),
grid AS (SELECT g.cell, COALESCE(cc.c, 0) AS c
         FROM (SELECT unnest(generate_series(0, 1023)) AS cell) g
         LEFT JOIN cc USING (cell)),
nb AS (SELECT dx, dy,
              CASE WHEN dx * dx + dy * dy = 0 THEN 6
                   WHEN dx * dx + dy * dy <= 2 THEN 4
                   WHEN dx * dx + dy * dy <= 8 THEN 1
                   ELSE 0 END AS w
       FROM (SELECT unnest(generate_series(-2, 2)) AS dx),
            (SELECT unnest(generate_series(-2, 2)) AS dy)
       WHERE dx * dx + dy * dy <= 8),
d AS (SELECT a.cell,
             CAST(SUM(nb.w * b.c) AS BIGINT) AS dens,
             MAX(a.c) AS raw
      FROM grid a JOIN nb ON TRUE
      JOIN grid b
        ON b.cell = (a.cell // 32 + nb.dy) * 32
                    + (a.cell % 32 + nb.dx)
       AND a.cell % 32 + nb.dx BETWEEN 0 AND 31
       AND a.cell // 32 + nb.dy BETWEEN 0 AND 31
      GROUP BY 1)
SELECT cell, CAST(raw AS BIGINT) AS raw_count,
       dens AS kde_density
FROM d ORDER BY dens DESC, cell LIMIT 10
"""


def q_spatial_lag_cells(sf_dir: str):
    """Spatial-lag variable Wx on the 5×5 nation revenue grid — the
    constructed regressor every spatial-autoregressive (SAR) model
    starts from: lag_i = mean of rook neighbors' revenue, an exact
    cents-sum over an integer neighbor count (one mirrored division
    per cell), emitted beside the cell's own value so the Moran
    scatterplot (x vs Wx) can be drawn downstream."""
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda t: pa.table({
            "o_custkey": t["c_custkey"],
            "nk": t["c_nationkey"].cast(pa.int64())}),
            batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def combine(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"nk": t["nk"].to_numpy(
            zero_copy_only=False), "pc_": cents}) \
            .groupby("nk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        relational.bucketed_hash_join(orders, cust, on="o_custkey",
                                      combine=combine)
        .groupby("nk").aggregate(Sum("pc_", alias_name="cents"))
    ).to_pandas()
    x = [0] * 25
    for r in agg.itertuples():
        x[int(r.nk)] = int(r.cents)
    rows = []
    for nk in range(25):
        c, r = nk % 5, nk // 5
        nbrs = [j for j in (nk - 1, nk + 1, nk - 5, nk + 5)
                if (j == nk - 1 and c > 0) or (j == nk + 1 and c < 4)
                or (j == nk - 5 and r > 0)
                or (j == nk + 5 and r < 4)]
        s = sum(x[j] for j in nbrs)
        rows.append({"nk": nk, "x_cents": x[nk],
                     "lag_sum_c": s, "n_neighbors": len(nbrs),
                     "wx": np.round(float(s) / float(len(nbrs)),
                                    6)})
    return pd.DataFrame(rows).astype({
        "nk": np.int64, "x_cents": np.int64, "lag_sum_c": np.int64,
        "n_neighbors": np.int64})


SQL_SPATIAL_LAG = """
WITH rev AS (SELECT c_nationkey AS nk,
                    SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                      AS cents
             FROM orders JOIN customer ON o_custkey = c_custkey
             GROUP BY 1),
grid AS (SELECT nk, COALESCE(rev.cents, 0) AS x
         FROM (SELECT unnest(generate_series(0, 24)) AS nk)
         LEFT JOIN rev USING (nk)),
l AS (SELECT a.nk, CAST(SUM(b.x) AS BIGINT) AS s,
             CAST(COUNT(*) AS BIGINT) AS nn
      FROM grid a JOIN grid b
        ON (b.nk = a.nk - 1 AND a.nk % 5 > 0)
        OR (b.nk = a.nk + 1 AND a.nk % 5 < 4)
        OR (b.nk = a.nk - 5 AND a.nk // 5 > 0)
        OR (b.nk = a.nk + 5 AND a.nk // 5 < 4)
      GROUP BY 1)
SELECT g.nk, CAST(g.x AS BIGINT) AS x_cents, l.s AS lag_sum_c,
       l.nn AS n_neighbors,
       ROUND(CAST(l.s AS DOUBLE) / CAST(l.nn AS DOUBLE), 6) AS wx
FROM grid g JOIN l USING (nk) ORDER BY g.nk
"""


def q_bivariate_morans_i(sf_dir: str):
    """Bivariate Moran's I between nation REVENUE and nation CUSTOMER
    COUNT on the rook grid — 'do rich cells neighbor populous
    cells?', the cross-variable question univariate Moran can't ask:
    I_xy = n·Σw·devx_i·devy_j / (S₀·√(Σdevx²·Σdevy²)) with both
    deviation sets n-scaled exact integers; the single √ and
    division are the only floats."""
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda t: pa.table({
            "o_custkey": t["c_custkey"],
            "nk": t["c_nationkey"].cast(pa.int64())}),
            batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def combine(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"nk": t["nk"].to_numpy(
            zero_copy_only=False), "pc_": cents}) \
            .groupby("nk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    rev = relational.ds_to_table(
        relational.bucketed_hash_join(orders, cust, on="o_custkey",
                                      combine=combine)
        .groupby("nk").aggregate(Sum("pc_", alias_name="cents"))
    ).to_pandas()
    ccount = relational.ds_to_table(
        _read(sf_dir, "customer", ["c_nationkey"])
        .map_batches(lambda t: pa.Table.from_pandas(pd.DataFrame({
            "nk": t["c_nationkey"].to_numpy(zero_copy_only=False)
            .astype(np.int64), "c": 1}).groupby(
                "nk", sort=False).sum().reset_index(),
            preserve_index=False), batch_format="pyarrow")
        .groupby("nk").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    x = [0] * 25
    y = [0] * 25
    for r in rev.itertuples():
        x[int(r.nk)] = int(r.cents)
    for r in ccount.itertuples():
        y[int(r.nk)] = int(r.c)
    n = 25
    sx_, sy_ = sum(x), sum(y)
    dx = [n * v - sx_ for v in x]
    dy = [n * v - sy_ for v in y]
    num = 0
    s0 = 0
    for nk in range(n):
        c, r = nk % 5, nk // 5
        if c + 1 < 5:
            num += dx[nk] * dy[nk + 1] + dx[nk + 1] * dy[nk]
            s0 += 2
        if r + 1 < 5:
            num += dx[nk] * dy[nk + 5] + dx[nk + 5] * dy[nk]
            s0 += 2
    sxx = sum(d * d for d in dx)
    syy = sum(d * d for d in dy)
    i_xy = float(n * num) \
        / (float(s0) * float(np.sqrt(float(sxx) * float(syy))))
    return pd.DataFrame([{
        "s0": s0, "bivariate_i": np.round(i_xy, 6),
        "positive_cross": num > 0}]).astype({"s0": np.int64})


SQL_BIVARIATE_MORAN = """
WITH rev AS (SELECT c_nationkey AS nk,
                    SUM(CAST(ROUND(o_totalprice * 100) AS HUGEINT))
                      AS cents
             FROM orders JOIN customer ON o_custkey = c_custkey
             GROUP BY 1),
cc AS (SELECT c_nationkey AS nk, CAST(COUNT(*) AS HUGEINT) AS c
       FROM customer GROUP BY 1),
grid AS (SELECT g.nk, COALESCE(rev.cents, 0) AS x,
                COALESCE(cc.c, 0) AS y
         FROM (SELECT unnest(generate_series(0, 24)) AS nk) g
         LEFT JOIN rev USING (nk) LEFT JOIN cc USING (nk)),
t AS (SELECT SUM(x) AS sx, SUM(y) AS sy FROM grid),
d AS (SELECT nk, 25 * x - t.sx AS dx, 25 * y - t.sy AS dy
      FROM grid, t),
e AS (SELECT SUM(a.dx * b.dy + b.dx * a.dy) AS num,
             2 * COUNT(*) AS s0
      FROM d a JOIN d b
        ON (b.nk = a.nk + 1 AND a.nk % 5 < 4)
        OR (b.nk = a.nk + 5 AND a.nk // 5 < 4)),
s AS (SELECT SUM(dx * dx) AS sxx, SUM(dy * dy) AS syy FROM d)
SELECT CAST(e.s0 AS BIGINT) AS s0,
       ROUND(CAST(25 * e.num AS DOUBLE)
             / (CAST(e.s0 AS DOUBLE)
                * SQRT(CAST(s.sxx AS DOUBLE)
                       * CAST(s.syy AS DOUBLE))), 6)
         AS bivariate_i,
       e.num > 0 AS positive_cross
FROM e, s
"""


def q_power_voronoi_assignment(sf_dir: str):
    """Power-diagram (additively weighted Voronoi) assignment:
    customers choose the facility minimizing the POWER distance
    d² − 40000·cap — capacity buys catchment, the weighting plain
    Voronoi can't express (a big store pulls customers past a closer
    kiosk).  Power distances are exact integers (suppkey tiebreak);
    reports each facility's population under both diagrams so the
    capacity-pull is an integer diff column."""
    from ray.data.aggregate import Sum
    fac = _facility_sites(sf_dir)
    fx = fac["x"].to_numpy(np.int64)
    fy = fac["y"].to_numpy(np.int64)
    sk = fac["sk"].to_numpy(np.int64)
    cap = fac["cap"].to_numpy(np.int64)
    ref = ray.put((fx, fy, sk, cap))

    def assign(t: pa.Table) -> pa.Table:
        from ...stages.relational import worker_cached
        xx, yy, ss, cc = worker_cached(("pvor_sites", ref),
                                       lambda: ray.get(ref))
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        px = (k * 7919) % 1000
        py = (k * 104729) % 1000
        d2 = ((px[:, None] - xx[None, :]) ** 2
              + (py[:, None] - yy[None, :]) ** 2)
        order = np.argsort(ss, kind="stable")
        plain = ss[order][d2[:, order].argmin(axis=1)]
        pw = d2 - 40000 * cc[None, :]
        power = ss[order][pw[:, order].argmin(axis=1)]
        g = pd.DataFrame({"sk": np.concatenate([plain, power]),
                          "pp": np.concatenate(
                              [np.ones(len(k), dtype=np.int64),
                               np.zeros(len(k), dtype=np.int64)]),
                          "pw": np.concatenate(
                              [np.zeros(len(k), dtype=np.int64),
                               np.ones(len(k), dtype=np.int64)])}) \
            .groupby("sk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = relational.ds_to_table(
        _read(sf_dir, "customer", ["c_custkey"])
        .map_batches(assign, batch_format="pyarrow")
        .groupby("sk").aggregate(Sum("pp", alias_name="plain_pop"),
                                 Sum("pw", alias_name="power_pop"))
    ).to_pandas().set_index("sk")
    res = fac.copy()
    res["plain_pop"] = out["plain_pop"].reindex(res["sk"]) \
        .fillna(0).to_numpy(np.int64)
    res["power_pop"] = out["power_pop"].reindex(res["sk"]) \
        .fillna(0).to_numpy(np.int64)
    res["capacity_pull"] = res["power_pop"] - res["plain_pop"]
    return res[["sk", "cap", "plain_pop", "power_pop",
                "capacity_pull"]].astype(np.int64)


SQL_POWER_VORONOI = """
WITH f AS (SELECT s_suppkey AS sk, (s_suppkey * 7919) % 1000 AS x,
                  (s_suppkey * 104729) % 1000 AS y,
                  CAST(1 + s_suppkey % 3 AS BIGINT) AS cap
           FROM supplier),
c AS (SELECT c_custkey AS k, (c_custkey * 7919) % 1000 AS x,
             (c_custkey * 104729) % 1000 AS y
      FROM customer),
d AS (SELECT c.k, f.sk,
             (c.x - f.x) * (c.x - f.x) + (c.y - f.y) * (c.y - f.y)
               AS d2,
             (c.x - f.x) * (c.x - f.x) + (c.y - f.y) * (c.y - f.y)
               - 40000 * f.cap AS pd
      FROM c, f),
wp AS (SELECT k, sk FROM (SELECT k, sk, ROW_NUMBER() OVER (
         PARTITION BY k ORDER BY d2, sk) AS rn FROM d)
       WHERE rn = 1),
ww AS (SELECT k, sk FROM (SELECT k, sk, ROW_NUMBER() OVER (
         PARTITION BY k ORDER BY pd, sk) AS rn FROM d)
       WHERE rn = 1),
pp AS (SELECT sk, CAST(COUNT(*) AS BIGINT) AS plain_pop
       FROM wp GROUP BY 1),
pw AS (SELECT sk, CAST(COUNT(*) AS BIGINT) AS power_pop
       FROM ww GROUP BY 1)
SELECT f.sk, f.cap, COALESCE(pp.plain_pop, 0) AS plain_pop,
       COALESCE(pw.power_pop, 0) AS power_pop,
       COALESCE(pw.power_pop, 0) - COALESCE(pp.plain_pop, 0)
         AS capacity_pull
FROM f LEFT JOIN pp USING (sk) LEFT JOIN pw USING (sk)
ORDER BY f.sk
"""


def q_maup_sensitivity_audit(sf_dir: str):
    """Modifiable-areal-unit-problem audit: the customer count
    surface aggregated at 32×32 / 16×16 / 8×8 resolutions, with
    per-level mean and variance from EXACT integer power sums — the
    controlled demonstration that variance (and every statistic
    built on it) is an artifact of the zoning, which is why every
    spatial result in this registry pins its grid.  The
    variance-inflation column is one mirrored division per level."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_custkey"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cx = ((k * 7919) % 1000) // 32
        cy = ((k * 104729) % 1000) // 32
        g = pd.DataFrame({"cell": cy * 32 + cx, "c": 1}) \
            .groupby("cell", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    et = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("cell").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    base = np.zeros((32, 32), dtype=np.int64)
    for r in et.itertuples():
        base[int(r.cell) // 32, int(r.cell) % 32] = int(r.c)
    rows = []
    var32 = None
    for res in (32, 16, 8):
        f = 32 // res
        agg = base.reshape(res, f, res, f).sum(axis=(1, 3))
        flat = agg.ravel().astype(object)
        n = res * res
        s1 = int(flat.sum())
        s2 = int((flat * flat).sum())
        mean = float(s1) / float(n)
        var = float(s2) / float(n) - mean * mean
        if var32 is None:
            var32 = var
        rows.append({"resolution": res, "n_cells": n,
                     "total": s1, "sumsq": s2,
                     "variance": np.round(var, 6),
                     "var_inflation": np.round(var / var32, 6)})
    return pd.DataFrame(rows).astype({
        "resolution": np.int64, "n_cells": np.int64,
        "total": np.int64, "sumsq": np.int64})


SQL_MAUP = """
WITH p AS (SELECT ((c_custkey * 7919) % 1000) // 32 AS cx,
                  ((c_custkey * 104729) % 1000) // 32 AS cy
           FROM customer),
lv AS (SELECT unnest([32, 16, 8]) AS res),
g AS (SELECT lv.res,
             (p.cy // (32 // lv.res)) * lv.res
             + p.cx // (32 // lv.res) AS cell,
             CAST(COUNT(*) AS BIGINT) AS c
      FROM p, lv GROUP BY 1, 2),
s AS (SELECT res, CAST(SUM(c) AS BIGINT) AS s1,
             SUM(CAST(c AS HUGEINT) * c) AS s2
      FROM g GROUP BY 1),
f AS (SELECT res, res * res AS n, s1, CAST(s2 AS BIGINT) AS s2,
             CAST(s2 AS DOUBLE) / (res * res)
             - (CAST(s1 AS DOUBLE) / (res * res))
               * (CAST(s1 AS DOUBLE) / (res * res)) AS var
      FROM s),
b AS (SELECT var AS var32 FROM f WHERE res = 32)
SELECT CAST(f.res AS BIGINT) AS resolution,
       CAST(f.n AS BIGINT) AS n_cells, f.s1 AS total,
       f.s2 AS sumsq, ROUND(f.var, 6) AS variance,
       ROUND(f.var / b.var32, 6) AS var_inflation
FROM f, b ORDER BY f.res DESC
"""


def _nation_acctbal_components(sf_dir: str):
    """Shared one-way variance-components reduce (nation groups on
    acctbal cents): per-group n, Σ, Σ² — everything the ICC/effect-
    size family folds from, all exact integers."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({"nk": nk, "n": 1, "s": cents,
                          "s2": cents * cents}) \
            .groupby("nk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    return relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("nk").aggregate(Sum("n", alias_name="n"),
                                 Sum("s", alias_name="s"),
                                 Sum("s2", alias_name="s2"))
    ).to_pandas()


SQL_NATION_COMPONENTS_CTE = """
g AS (SELECT c_nationkey AS nk, CAST(COUNT(*) AS BIGINT) AS n,
             SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS HUGEINT))
               AS s,
             SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS HUGEINT)
                 * CAST(FLOOR(c_acctbal * 100 + 0.5) AS HUGEINT))
               AS s2
      FROM customer GROUP BY 1)
"""


def q_icc_acctbal_nation(sf_dir: str):
    """Intraclass correlation ICC(1) of customer balances within
    nations — THE how-clustered-is-my-data number that justifies (or
    dismisses) clustered standard errors and drives the design
    effect: from one-way ANOVA mean squares,
    ICC = (MSB − MSW)/(MSB + (n̄₀−1)·MSW) with the ANOVA-balanced
    n̄₀ = (N − Σnᵢ²/N)/(k−1).  Every sum of squares is exact-integer
    derived; the mean squares and ICC spend mirrored float chains."""
    g = _nation_acctbal_components(sf_dir)
    k = len(g)
    n_tot = int(g["n"].sum())
    s_tot = int(g["s"].sum())
    s2_tot = int(g["s2"].sum())
    # per-group s²/n milli-quantized before the fold: a float sum in
    # dataframe order vs SQL's unordered SUM drifts in the last ulp
    ssb_q = sum(int(np.floor(int(r.s) * int(r.s)
                             / float(int(r.n)) * 1000.0 + 0.5))
                for r in g.itertuples())
    ssb_n = float(ssb_q) / 1000.0
    ssb = ssb_n - float(s_tot) * float(s_tot) / float(n_tot)
    ssw = float(s2_tot) - ssb_n
    msb = ssb / float(k - 1)
    msw = ssw / float(n_tot - k)
    sn2 = sum(int(r.n) * int(r.n) for r in g.itertuples())
    n0 = (float(n_tot) - float(sn2) / float(n_tot)) / float(k - 1)
    icc = (msb - msw) / (msb + (n0 - 1.0) * msw)
    return pd.DataFrame([{
        "k_groups": k, "n_total": n_tot,
        "msb": np.floor(msb * 1e4 + 0.5) / 1e4,
        "msw": np.floor(msw * 1e4 + 0.5) / 1e4,
        "n0_anova": np.round(n0, 6),
        "icc1": np.round(icc, 6)}]).astype({
            "k_groups": np.int64, "n_total": np.int64})


def _sql_icc() -> str:
    return f"""
WITH {SQL_NATION_COMPONENTS_CTE.strip()},
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS k, SUM(n) AS nt,
             SUM(s) AS st, SUM(s2) AS s2t,
             SUM(CAST(FLOOR(CAST(s * s AS DOUBLE)
                            / CAST(n AS DOUBLE) * 1000.0 + 0.5)
                      AS HUGEINT)) / 1000.0 AS ssb_n,
             SUM(CAST(n AS HUGEINT) * n) AS sn2
      FROM g),
f AS (SELECT k, nt,
             (ssb_n - CAST(st AS DOUBLE) * CAST(st AS DOUBLE)
              / CAST(nt AS DOUBLE)) / CAST(k - 1 AS DOUBLE) AS msb,
             (CAST(s2t AS DOUBLE) - ssb_n)
               / CAST(nt - k AS DOUBLE) AS msw,
             (CAST(nt AS DOUBLE) - CAST(sn2 AS DOUBLE)
              / CAST(nt AS DOUBLE)) / CAST(k - 1 AS DOUBLE) AS n0
      FROM t)
SELECT k AS k_groups, CAST(nt AS BIGINT) AS n_total,
       FLOOR(msb * 1e4 + 0.5) / 1e4 AS msb,
       FLOOR(msw * 1e4 + 0.5) / 1e4 AS msw,
       ROUND(n0, 6) AS n0_anova,
       ROUND((msb - msw) / (msb + (n0 - 1.0) * msw), 6) AS icc1
FROM f
"""


def q_anova_effect_sizes_nation(sf_dir: str):
    """η² and the less-biased ω² for the nation→balance one-way
    ANOVA — the EFFECT SIZES the F-test omits ('significant' says
    nothing about 'large'): η² = SSB/SST and
    ω² = (SSB − (k−1)·MSW)/(SST + MSW), both from the same
    exact-integer sums as the ICC, mirrored float finishes."""
    g = _nation_acctbal_components(sf_dir)
    k = len(g)
    n_tot = int(g["n"].sum())
    s_tot = int(g["s"].sum())
    s2_tot = int(g["s2"].sum())
    ssb_q = sum(int(np.floor(int(r.s) * int(r.s)
                             / float(int(r.n)) * 1000.0 + 0.5))
                for r in g.itertuples())
    ssb_n = float(ssb_q) / 1000.0
    ssb = ssb_n - float(s_tot) * float(s_tot) / float(n_tot)
    sst = float(s2_tot) - float(s_tot) * float(s_tot) / float(n_tot)
    ssw = float(s2_tot) - ssb_n
    msw = ssw / float(n_tot - k)
    eta2 = ssb / sst
    om2 = (ssb - float(k - 1) * msw) / (sst + msw)
    return pd.DataFrame([{
        "k_groups": k, "n_total": n_tot,
        "eta_sq": np.round(eta2, 6),
        "omega_sq": np.round(om2, 6),
        "eta_exceeds_omega": eta2 > om2}]).astype({
            "k_groups": np.int64, "n_total": np.int64})


def _sql_effect_sizes() -> str:
    return f"""
WITH {SQL_NATION_COMPONENTS_CTE.strip()},
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS k, SUM(n) AS nt,
             SUM(s) AS st, SUM(s2) AS s2t,
             SUM(CAST(FLOOR(CAST(s * s AS DOUBLE)
                            / CAST(n AS DOUBLE) * 1000.0 + 0.5)
                      AS HUGEINT)) / 1000.0 AS ssb_n
      FROM g),
f AS (SELECT k, nt,
             ssb_n - CAST(st AS DOUBLE) * CAST(st AS DOUBLE)
               / CAST(nt AS DOUBLE) AS ssb,
             CAST(s2t AS DOUBLE) - CAST(st AS DOUBLE)
               * CAST(st AS DOUBLE) / CAST(nt AS DOUBLE) AS sst,
             (CAST(s2t AS DOUBLE) - ssb_n)
               / CAST(nt - k AS DOUBLE) AS msw
      FROM t)
SELECT k AS k_groups, CAST(nt AS BIGINT) AS n_total,
       ROUND(ssb / sst, 6) AS eta_sq,
       ROUND((ssb - CAST(k - 1 AS DOUBLE) * msw) / (sst + msw), 6)
         AS omega_sq,
       ssb / sst > (ssb - CAST(k - 1 AS DOUBLE) * msw)
                   / (sst + msw) AS eta_exceeds_omega
FROM f
"""


def q_brown_forsythe_nations(sf_dir: str):
    """Brown–Forsythe robust variance-homogeneity test across nations
    on account balance — Levene's test with the MEDIAN center, the
    spread analogue of the registry's one-way ANOVA family (ANOVA
    assumes equal variances; this op is the check, and the median
    center is what keeps it honest under the skew the skewness op
    measures).  DOUBLED group medians m2_i = v_(⌈n/2⌉) + v_(⌊n/2⌋+1)
    keep the absolute deviations z2_ij = |2v_ij − m2_i| exact
    integers (W is scale-invariant, so testing on z2 IS testing on
    z); per-group Σz2 / Σz2² fold from the (nation, cents) counts
    reduce, the between-group term reuses the ICC op's
    milli-quantized S²/n discipline, and
    W = ((N−k)/(k−1))·BSS/WSS spends one mirrored float chain."""
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"nk": t["c_nationkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "v": cents, "c": 1}) \
            .groupby(["nk", "v"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    dist = relational.ds_to_table(
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby(["nk", "v"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    k = 0
    n_tot = 0
    s_all = 0
    ssb_q = 0
    wss = 0
    for nk, g in dist.groupby("nk"):
        g = g.sort_values("v")
        v = g["v"].to_numpy(np.int64)
        c = g["c"].to_numpy(np.int64)
        cum = np.cumsum(c)
        n = int(cum[-1])
        lo = int(v[np.searchsorted(cum, (n + 1) // 2, "left")])
        hi = int(v[np.searchsorted(cum, n // 2 + 1, "left")])
        m2 = lo + hi
        z2 = np.abs(2 * v.astype(object) - m2)
        s = int((z2 * c).sum())
        q = int((z2 * z2 * c).sum())
        k += 1
        n_tot += n
        s_all += s
        ssb_q += int(np.floor(s * s / float(n) * 1000.0 + 0.5))
        wss += q
    wss_f = float(wss) - ssb_q / 1000.0
    bss = ssb_q / 1000.0 - float(s_all) * float(s_all) / float(n_tot)
    w = (float(n_tot - k) / float(k - 1)) * bss / wss_f
    return pd.DataFrame([{
        "k_groups": k, "n_total": n_tot,
        "bf_w": np.round(w, 6)}]).astype({
            "k_groups": np.int64, "n_total": np.int64})


SQL_BROWN_FORSYTHE = """
WITH d AS (SELECT c_nationkey AS nk,
                  CAST(ROUND(c_acctbal * 100) AS BIGINT) AS v,
                  CAST(COUNT(*) AS BIGINT) AS c
           FROM customer GROUP BY 1, 2),
o AS (SELECT nk, v, c, SUM(c) OVER (PARTITION BY nk ORDER BY v)
        AS cum, SUM(c) OVER (PARTITION BY nk) AS n
      FROM d),
med AS (SELECT nk,
          MIN(CASE WHEN cum >= (n + 1) // 2 THEN v END)
          + MIN(CASE WHEN cum >= n // 2 + 1 THEN v END) AS m2
        FROM o GROUP BY nk),
z AS (SELECT d.nk, ABS(2 * CAST(d.v AS HUGEINT) - med.m2) AS z2,
             d.c
      FROM d JOIN med USING (nk)),
g AS (SELECT nk, SUM(CAST(c AS HUGEINT)) AS n, SUM(z2 * c) AS s,
             SUM(z2 * z2 * c) AS q
      FROM z GROUP BY 1),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS k, SUM(n) AS nt,
             SUM(s) AS st, SUM(q) AS qt,
             SUM(CAST(FLOOR(CAST(s * s AS DOUBLE)
                            / CAST(n AS DOUBLE) * 1000.0 + 0.5)
                      AS HUGEINT)) / 1000.0 AS ssb_n
      FROM g)
SELECT k AS k_groups, CAST(nt AS BIGINT) AS n_total,
       ROUND((CAST(nt - k AS DOUBLE) / CAST(k - 1 AS DOUBLE))
             * (ssb_n - CAST(st AS DOUBLE) * CAST(st AS DOUBLE)
                / CAST(nt AS DOUBLE))
             / (CAST(qt AS DOUBLE) - ssb_n), 6) AS bf_w
FROM t
"""


_NSO_PANEL_MEMO: dict = {}


def _nation_segment_outcome_panel(sf_dir: str) -> pd.DataFrame:
    """Shared (nation, segment, positive-balance, frequent-buyer)
    count panel for the stratified-epidemiology family: ONE bucketed
    customer⋈order-count left join whose per-bucket combine collapses
    straight to flag counts (≤ nations×segments×4 rows ever cross the
    wire), memoized per input fingerprint.  The outcome is
    ≥ 12 lifetime orders — 'has any order' is degenerate on this
    corpus (every customer ordered), so the frequent-buyer cut is
    what gives the 2×2s real margins at every scale."""
    from ray.data.aggregate import Sum
    memo_key = _fingerprint_cache_dir(sf_dir, "customer", "nsopanel")
    hit = _NSO_PANEL_MEMO.get(memo_key)
    if hit is not None:
        return hit.copy()
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_mktsegment",
                  "c_acctbal"])
    ok = _read(sf_dir, "orders", ["o_custkey"])

    def pk(t: pa.Table) -> pa.Table:
        u, c = np.unique(t["o_custkey"].to_numpy(zero_copy_only=False)
                         .astype(np.int64), return_counts=True)
        return pa.table({"c_custkey": pa.array(u),
                         "oc": pa.array(c.astype(np.int64))})

    keys = ok.map_batches(pk, batch_format="pyarrow") \
        .groupby("c_custkey").aggregate(Sum("oc", alias_name="oc"))

    def comb(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        cents = np.floor(df["c_acctbal"].to_numpy() * 100
                         + 0.5).astype(np.int64)
        g = pd.DataFrame({
            "g": df["c_nationkey"].to_numpy(dtype=np.int64),
            "s": df["c_mktsegment"].to_numpy(dtype=object),
            "pos": (cents > 0).astype(np.int64),
            "ordered": (df["oc"].fillna(0).to_numpy(
                dtype=np.int64) >= 12).astype(np.int64), "c": 1}) \
            .groupby(["g", "s", "pos", "ordered"], sort=False) \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    j = relational.bucketed_hash_join(cust, keys, on="c_custkey",
                                      how="left", combine=comb)
    out = relational.ds_to_table(j).to_pandas() \
        .groupby(["g", "s", "pos", "ordered"], as_index=False)["c"] \
        .sum()
    _NSO_PANEL_MEMO.clear()
    _NSO_PANEL_MEMO[memo_key] = out.copy()
    return out


SQL_NSO_CTE = """
pn AS (SELECT c_nationkey AS g, c_mktsegment AS s,
              CASE WHEN FLOOR(c_acctbal * 100 + 0.5) > 0
                   THEN 1 ELSE 0 END AS pos,
              CASE WHEN (SELECT COUNT(*) FROM orders o
                         WHERE o.o_custkey = c.c_custkey) >= 12
                   THEN 1 ELSE 0 END AS ordered,
              CAST(COUNT(*) AS BIGINT) AS c
       FROM customer c GROUP BY 1, 2, 3, 4)
"""


def q_cmh_test_segments(sf_dir: str):
    """Cochran–Mantel–Haenszel stratified test + Mantel–Haenszel
    pooled odds ratio — epidemiology's guard against Simpson-paradox
    confounding: does a positive balance associate with FREQUENT
    buying (≥12 orders) AFTER controlling for market segment (each segment its own 2×2,
    pooled with inverse-variance weights)?  Per-stratum a−E, the
    hypergeometric variance and both MH OR legs are exact-integer
    ratios cast through ONE identical double division then
    NANO-QUANTIZED (FLOOR(x·1e9 + 0.5), sign-safe), so the
    cross-stratum folds are order-free integer sums; χ² and OR spend
    one mirrored division each.  Rides the shared panel."""
    p = _nation_segment_outcome_panel(sf_dir)
    num9 = 0
    var9 = 0
    orn9 = 0
    ord9 = 0
    k = 0
    n_tot = 0
    for s, g in p.groupby("s"):
        a = int(g.loc[(g.pos == 1) & (g.ordered == 1), "c"].sum())
        b = int(g.loc[(g.pos == 1) & (g.ordered == 0), "c"].sum())
        c_ = int(g.loc[(g.pos == 0) & (g.ordered == 1), "c"].sum())
        d = int(g.loc[(g.pos == 0) & (g.ordered == 0), "c"].sum())
        nn = a + b + c_ + d
        if nn < 2:
            continue
        k += 1
        n_tot += nn
        num9 += int(np.floor(float(a * nn - (a + b) * (a + c_))
                             / nn * 1e9 + 0.5))
        var9 += int(np.floor(
            float((a + b) * (c_ + d) * (a + c_) * (b + d))
            / float(nn * nn * (nn - 1)) * 1e9 + 0.5))
        orn9 += int(np.floor(float(a * d) / nn * 1e9 + 0.5))
        ord9 += int(np.floor(float(b * c_) / nn * 1e9 + 0.5))
    chi2 = (num9 / 1e9) * (num9 / 1e9) / (var9 / 1e9)
    return pd.DataFrame([{
        "k_strata": k, "n_total": n_tot,
        "chi2_cmh": np.round(chi2, 6),
        "or_mh": np.round(float(orn9) / float(ord9), 6)}]).astype({
            "k_strata": np.int64, "n_total": np.int64})


def _sql_cmh() -> str:
    return f"""
WITH {SQL_NSO_CTE.strip()},
st AS (SELECT s,
         SUM(CASE WHEN pos = 1 AND ordered = 1 THEN c ELSE 0 END)
           AS a,
         SUM(CASE WHEN pos = 1 AND ordered = 0 THEN c ELSE 0 END)
           AS b,
         SUM(CASE WHEN pos = 0 AND ordered = 1 THEN c ELSE 0 END)
           AS c_,
         SUM(CASE WHEN pos = 0 AND ordered = 0 THEN c ELSE 0 END)
           AS d
       FROM pn GROUP BY 1),
q AS (SELECT s, a, b, c_, d, a + b + c_ + d AS nn FROM st
      WHERE a + b + c_ + d >= 2),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS k,
             CAST(SUM(nn) AS BIGINT) AS n_tot,
             SUM(CAST(FLOOR(CAST(a * nn - (a + b) * (a + c_)
                                 AS DOUBLE) / nn * 1e9 + 0.5)
                      AS BIGINT)) AS num9,
             SUM(CAST(FLOOR(CAST((a + b) * (c_ + d) * (a + c_)
                                 * (b + d) AS DOUBLE)
                            / CAST(nn * nn * (nn - 1) AS DOUBLE)
                            * 1e9 + 0.5) AS BIGINT)) AS var9,
             SUM(CAST(FLOOR(CAST(a * d AS DOUBLE) / nn * 1e9 + 0.5)
                      AS BIGINT)) AS orn9,
             SUM(CAST(FLOOR(CAST(b * c_ AS DOUBLE) / nn * 1e9 + 0.5)
                      AS BIGINT)) AS ord9
      FROM q)
SELECT k AS k_strata, n_tot AS n_total,
       ROUND((num9 / 1e9) * (num9 / 1e9) / (var9 / 1e9), 6)
         AS chi2_cmh,
       ROUND(CAST(orn9 AS DOUBLE) / CAST(ord9 AS DOUBLE), 6)
         AS or_mh
FROM t
"""


def q_smr_nation_ordering(sf_dir: str):
    """Indirectly standardized frequent-buyer ratio per nation (the
    SMR of epidemiology): observed frequent buyers over the count
    EXPECTED if each nation's segment mix experienced the GLOBAL
    per-segment frequent-buyer rates — the classic small-area answer when per-(nation, segment)
    rates are too noisy to trust directly.  Expected terms
    n_gs·(O_s/n_s) go through one identical double division then
    nano-quantization, so E_g folds order-free; SMR is one mirrored
    division.  Rides the shared panel."""
    p = _nation_segment_outcome_panel(sf_dir)
    seg = pd.DataFrame({
        "ns": p.groupby("s")["c"].sum(),
        "os": p[p.ordered == 1].groupby("s")["c"].sum()}) \
        .fillna(0).astype(np.int64)
    rows = []
    for gk, g in p.groupby("g"):
        obs = int(g.loc[g.ordered == 1, "c"].sum())
        e9 = 0
        for s, gs in g.groupby("s"):
            n_gs = int(gs["c"].sum())
            e9 += int(np.floor(
                float(n_gs * int(seg.loc[s, "os"]))
                / float(int(seg.loc[s, "ns"])) * 1e9 + 0.5))
        rows.append({"g": int(gk), "observed": obs,
                     "expected": np.round(e9 / 1e9, 6),
                     "smr": np.round(obs / (e9 / 1e9), 6)})
    return pd.DataFrame(rows).sort_values("g") \
        .reset_index(drop=True).astype({"g": np.int64,
                                        "observed": np.int64})


def _sql_smr() -> str:
    return f"""
WITH {SQL_NSO_CTE.strip()},
seg AS (SELECT s, SUM(c) AS ns,
               SUM(CASE WHEN ordered = 1 THEN c ELSE 0 END) AS os
        FROM pn GROUP BY 1),
gs AS (SELECT g, pn.s, SUM(c) AS n_gs,
              SUM(CASE WHEN ordered = 1 THEN c ELSE 0 END) AS o_gs
       FROM pn GROUP BY 1, 2),
f AS (SELECT gs.g,
             CAST(SUM(gs.o_gs) AS BIGINT) AS obs,
             SUM(CAST(FLOOR(CAST(gs.n_gs * seg.os AS DOUBLE)
                            / CAST(seg.ns AS DOUBLE) * 1e9 + 0.5)
                      AS BIGINT)) AS e9
      FROM gs JOIN seg USING (s) GROUP BY 1)
SELECT g, obs AS observed, ROUND(e9 / 1e9, 6) AS expected,
       ROUND(CAST(obs AS DOUBLE) / (e9 / 1e9), 6) AS smr
FROM f ORDER BY g
"""


def q_direct_std_rates_nation(sf_dir: str):
    """Directly standardized frequent-buyer rate per nation — the
    other half of the standardization pair (indirect borrows global
    RATES, direct borrows the global POPULATION): Σ_s (n_s/N)·r_gs
    with the global segment mix as the standard, so nations become
    comparable even when their segment compositions differ (the
    age-adjusted-rate construction).  Per-(nation, segment) terms
    n_s·O_gs/(N·n_gs) take one identical double division then
    nano-quantization; empty (g, s) cells contribute zero by the
    stated convention.  Rides the shared panel."""
    p = _nation_segment_outcome_panel(sf_dir)
    n_all = int(p["c"].sum())
    seg_n = p.groupby("s")["c"].sum()
    rows = []
    for gk, g in p.groupby("g"):
        n_g = int(g["c"].sum())
        obs = int(g.loc[g.ordered == 1, "c"].sum())
        s9 = 0
        for s, gs in g.groupby("s"):
            n_gs = int(gs["c"].sum())
            o_gs = int(gs.loc[gs.ordered == 1, "c"].sum())
            s9 += int(np.floor(
                float(int(seg_n.loc[s]) * o_gs)
                / float(n_all * n_gs) * 1e9 + 0.5))
        rows.append({"g": int(gk), "n_customers": n_g,
                     "crude_rate": np.round(obs / n_g, 6),
                     "std_rate": np.round(s9 / 1e9, 6)})
    return pd.DataFrame(rows).sort_values("g") \
        .reset_index(drop=True).astype({"g": np.int64,
                                        "n_customers": np.int64})


def _sql_direct_std() -> str:
    return f"""
WITH {SQL_NSO_CTE.strip()},
tot AS (SELECT SUM(c) AS n_all FROM pn),
seg AS (SELECT s, SUM(c) AS ns FROM pn GROUP BY 1),
gs AS (SELECT g, pn.s, SUM(c) AS n_gs,
              SUM(CASE WHEN ordered = 1 THEN c ELSE 0 END) AS o_gs
       FROM pn GROUP BY 1, 2),
f AS (SELECT gs.g, CAST(SUM(gs.n_gs) AS BIGINT) AS n_g,
             CAST(SUM(gs.o_gs) AS BIGINT) AS obs,
             SUM(CAST(FLOOR(CAST(seg.ns * gs.o_gs AS DOUBLE)
                            / CAST(tot.n_all * gs.n_gs AS DOUBLE)
                            * 1e9 + 0.5) AS BIGINT)) AS s9
      FROM gs JOIN seg USING (s), tot GROUP BY 1)
SELECT g, n_g AS n_customers,
       ROUND(CAST(obs AS DOUBLE) / CAST(n_g AS DOUBLE), 6)
         AS crude_rate,
       ROUND(s9 / 1e9, 6) AS std_rate
FROM f ORDER BY g
"""


def q_banzhaf_power_nations(sf_dir: str):
    """Banzhaf power index of the top-4 revenue nations (quota =
    half the four weights' total, the Shapley–Shubik op's ≥
    convention) — the OTHER canonical voting-power measure: count
    the coalitions where a player is CRITICAL (the coalition wins
    with it, loses without), normalize by total criticality.
    Shapley–Shubik weighs orderings, Banzhaf weighs coalitions —
    they famously rank players differently, which is why both ship.
    All 16 subsets enumerated with exact integer comparisons."""
    from itertools import product
    nr = _nation_revenue_for_seats(sf_dir)
    top = nr.sort_values(["revenue_cents", "n_nationkey"],
                         ascending=[False, True]).head(4)
    nk = [int(v) for v in top["n_nationkey"]]
    w = [int(v) for v in top["revenue_cents"]]
    tot = sum(w)
    eta = {k: 0 for k in nk}
    for bits in product((0, 1), repeat=4):
        ws = sum(b * wi for b, wi in zip(bits, w))
        if 2 * ws < tot:
            continue                    # S not winning
        for i in range(4):
            if bits[i] and 2 * (ws - w[i]) < tot:
                eta[nk[i]] += 1         # critical in S
    tot_eta = sum(eta.values())
    return pd.DataFrame({
        "n_nationkey": nk, "weight_cents": w,
        "n_critical": [eta[k] for k in nk],
        "banzhaf": [np.round(eta[k] / tot_eta, 6) for k in nk]}) \
        .astype({"n_nationkey": np.int64, "weight_cents": np.int64,
                 "n_critical": np.int64})


SQL_BANZHAF = """
WITH nr AS (SELECT c_nationkey AS nk,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS w
            FROM orders JOIN customer ON c_custkey = o_custkey
            GROUP BY 1),
top4 AS (SELECT nk, w, ROW_NUMBER() OVER (ORDER BY w DESC, nk)
           AS r
         FROM nr QUALIFY r <= 4),
tot AS (SELECT SUM(w) AS t FROM top4),
bits AS (SELECT a, b, c, d
         FROM (VALUES (0), (1)) x(a), (VALUES (0), (1)) y(b),
              (VALUES (0), (1)) z(c), (VALUES (0), (1)) u(d)),
subs AS (SELECT bits.a, bits.b, bits.c, bits.d,
                bits.a * w1.w + bits.b * w2.w + bits.c * w3.w
                + bits.d * w4.w AS ws,
                w1.w AS v1, w2.w AS v2, w3.w AS v3, w4.w AS v4,
                w1.nk AS n1, w2.nk AS n2, w3.nk AS n3, w4.nk AS n4
         FROM bits,
              (SELECT nk, w FROM top4 WHERE r = 1) w1,
              (SELECT nk, w FROM top4 WHERE r = 2) w2,
              (SELECT nk, w FROM top4 WHERE r = 3) w3,
              (SELECT nk, w FROM top4 WHERE r = 4) w4),
crit AS (SELECT n1 AS nk, CAST(SUM(CASE WHEN a = 1
                AND 2 * ws >= tot.t
                AND 2 * (ws - v1) < tot.t THEN 1 ELSE 0 END)
                AS BIGINT) AS eta
         FROM subs, tot GROUP BY 1
         UNION ALL
         SELECT n2, CAST(SUM(CASE WHEN b = 1 AND 2 * ws >= tot.t
                AND 2 * (ws - v2) < tot.t THEN 1 ELSE 0 END)
                AS BIGINT)
         FROM subs, tot GROUP BY 1
         UNION ALL
         SELECT n3, CAST(SUM(CASE WHEN c = 1 AND 2 * ws >= tot.t
                AND 2 * (ws - v3) < tot.t THEN 1 ELSE 0 END)
                AS BIGINT)
         FROM subs, tot GROUP BY 1
         UNION ALL
         SELECT n4, CAST(SUM(CASE WHEN d = 1 AND 2 * ws >= tot.t
                AND 2 * (ws - v4) < tot.t THEN 1 ELSE 0 END)
                AS BIGINT)
         FROM subs, tot GROUP BY 1),
te AS (SELECT SUM(eta) AS s FROM crit)
SELECT t4.nk AS n_nationkey, t4.w AS weight_cents,
       crit.eta AS n_critical,
       ROUND(CAST(crit.eta AS DOUBLE) / CAST(te.s AS DOUBLE), 6)
         AS banzhaf
FROM top4 t4 JOIN crit ON crit.nk = t4.nk, te
ORDER BY t4.w DESC, t4.nk
"""


def _acctbal_dem(sf_dir: str) -> np.ndarray:
    """Shared 32×32 synthetic acctbal DEM (the slope/flow ops' exact
    construction): cell from the custkey hash, elevation = exact
    cents sums, dense int64 length-1024 array."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cx = ((k * 7919) % 1000) // 32
        cy = ((k * 104729) % 1000) // 32
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({"cell": cy * 32 + cx, "e": cents}) \
            .groupby("cell", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    et = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("cell").aggregate(Sum("e", alias_name="e"))
    ).to_pandas()
    e = np.zeros(1024, dtype=np.int64)
    e[et["cell"].to_numpy(np.int64)] = et["e"].to_numpy(np.int64)
    return e


SQL_DEM_CTE = """
ev AS (SELECT (((c_custkey * 104729) % 1000) // 32) * 32
              + ((c_custkey * 7919) % 1000) // 32 AS cell,
              SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT)) AS e
       FROM customer GROUP BY 1),
grid AS (SELECT g.cell, COALESCE(ev.e, 0) AS e
         FROM (SELECT unnest(generate_series(0, 1023)) AS cell) g
         LEFT JOIN ev USING (cell))
"""


def q_curvature_grid(sf_dir: str):
    """Second-derivative curvature raster over the acctbal DEM —
    the convexity layer that completes the slope/aspect pair
    (slope says how steep, curvature says whether flow converges):
    central-difference z_xx, z_yy, the cross term as the INTEGER
    4·z_xy, the Laplacian z_xx + z_yy, and the Zevenbergen–Thorne
    sign classes (laplacian < 0 convex/peak-ward, > 0 concave/
    hollow-ward, 0 flat).  All exact integers; border cells NULL
    like the slope op."""
    e = _acctbal_dem(sf_dir)
    rows = []
    for c in range(1024):
        cx, cy = c % 32, c // 32
        if cx == 0 or cx == 31 or cy == 0 or cy == 31:
            rows.append({"cell": c, "zxx": None, "zyy": None,
                         "zxy4": None, "laplacian": None,
                         "curv_class": None})
            continue
        zxx = int(e[c + 1]) - 2 * int(e[c]) + int(e[c - 1])
        zyy = int(e[c + 32]) - 2 * int(e[c]) + int(e[c - 32])
        zxy4 = int(e[c + 33]) - int(e[c + 31]) - int(e[c - 31]) \
            + int(e[c - 33])
        lap = zxx + zyy
        cls = "flat" if lap == 0 else \
            ("concave" if lap > 0 else "convex")
        rows.append({"cell": c, "zxx": zxx, "zyy": zyy,
                     "zxy4": zxy4, "laplacian": lap,
                     "curv_class": cls})
    return pd.DataFrame(rows).astype({"cell": np.int64})


SQL_CURVATURE = f"""
WITH {SQL_DEM_CTE.strip()},
d AS (SELECT g.cell,
             ge.e - 2 * g.e + gw.e AS zxx,
             gn.e - 2 * g.e + gs.e AS zyy,
             gne.e - gnw.e - gse.e + gsw.e AS zxy4
      FROM grid g
      JOIN grid ge ON ge.cell = g.cell + 1
      JOIN grid gw ON gw.cell = g.cell - 1
      JOIN grid gn ON gn.cell = g.cell + 32
      JOIN grid gs ON gs.cell = g.cell - 32
      JOIN grid gne ON gne.cell = g.cell + 33
      JOIN grid gnw ON gnw.cell = g.cell + 31
      JOIN grid gse ON gse.cell = g.cell - 31
      JOIN grid gsw ON gsw.cell = g.cell - 33
      WHERE g.cell % 32 NOT IN (0, 31)
        AND g.cell // 32 NOT IN (0, 31))
SELECT g.cell, CAST(d.zxx AS BIGINT) AS zxx,
       CAST(d.zyy AS BIGINT) AS zyy,
       CAST(d.zxy4 AS BIGINT) AS zxy4,
       CAST(d.zxx + d.zyy AS BIGINT) AS laplacian,
       CASE WHEN d.cell IS NULL THEN NULL
            WHEN d.zxx + d.zyy = 0 THEN 'flat'
            WHEN d.zxx + d.zyy > 0 THEN 'concave'
            ELSE 'convex' END AS curv_class
FROM grid g LEFT JOIN d ON d.cell = g.cell
ORDER BY g.cell
"""


def q_tri_grid(sf_dir: str):
    """Terrain Ruggedness Index (Riley 1999) over the acctbal DEM —
    the roughness layer: TRI = √Σ(z_n − z_c)² over the 8 neighbors.
    tri2 stays an exact integer (the only float is the final IEEE
    sqrt, identical across engines); border NULL."""
    import math
    e = _acctbal_dem(sf_dir)
    rows = []
    for c in range(1024):
        cx, cy = c % 32, c // 32
        if cx == 0 or cx == 31 or cy == 0 or cy == 31:
            rows.append({"cell": c, "tri2": None, "tri": None})
            continue
        t2 = 0
        for off in (-33, -32, -31, -1, 1, 31, 32, 33):
            dd_ = int(e[c + off]) - int(e[c])
            t2 += dd_ * dd_
        rows.append({"cell": c, "tri2": t2,
                     "tri": np.round(math.sqrt(float(t2)), 6)})
    return pd.DataFrame(rows).astype({"cell": np.int64})


SQL_TRI = f"""
WITH {SQL_DEM_CTE.strip()},
d AS (SELECT g.cell,
             (gne.e - g.e) * (gne.e - g.e)
             + (gn.e - g.e) * (gn.e - g.e)
             + (gnw.e - g.e) * (gnw.e - g.e)
             + (gw.e - g.e) * (gw.e - g.e)
             + (ge.e - g.e) * (ge.e - g.e)
             + (gse.e - g.e) * (gse.e - g.e)
             + (gs.e - g.e) * (gs.e - g.e)
             + (gsw.e - g.e) * (gsw.e - g.e) AS t2
      FROM grid g
      JOIN grid ge ON ge.cell = g.cell + 1
      JOIN grid gw ON gw.cell = g.cell - 1
      JOIN grid gn ON gn.cell = g.cell + 32
      JOIN grid gs ON gs.cell = g.cell - 32
      JOIN grid gne ON gne.cell = g.cell + 33
      JOIN grid gnw ON gnw.cell = g.cell + 31
      JOIN grid gse ON gse.cell = g.cell - 31
      JOIN grid gsw ON gsw.cell = g.cell - 33
      WHERE g.cell % 32 NOT IN (0, 31)
        AND g.cell // 32 NOT IN (0, 31))
SELECT g.cell, CAST(d.t2 AS BIGINT) AS tri2,
       ROUND(SQRT(CAST(d.t2 AS DOUBLE)), 6) AS tri
FROM grid g LEFT JOIN d ON d.cell = g.cell
ORDER BY g.cell
"""


def q_tpi_landforms(sf_dir: str):
    """Topographic Position Index landform classes over the acctbal
    DEM — where does each cell sit RELATIVE to its neighborhood:
    tpi8 = 8·z_c − Σz_n stays exact integer (positive = above the
    neighbor mean = ridge-ward, negative = valley-ward), classified
    ridge/slope/valley with the stated integer threshold ±8·σ_unit
    (here ±800 cents·8 = one dollar per neighbor); border NULL."""
    e = _acctbal_dem(sf_dir)
    thr = 800 * 8
    rows = []
    for c in range(1024):
        cx, cy = c % 32, c // 32
        if cx == 0 or cx == 31 or cy == 0 or cy == 31:
            rows.append({"cell": c, "tpi8": None, "landform": None})
            continue
        s = 0
        for off in (-33, -32, -31, -1, 1, 31, 32, 33):
            s += int(e[c + off])
        t = 8 * int(e[c]) - s
        lf = "ridge" if t > thr else \
            ("valley" if t < -thr else "slope")
        rows.append({"cell": c, "tpi8": t, "landform": lf})
    return pd.DataFrame(rows).astype({"cell": np.int64})


SQL_TPI = f"""
WITH {SQL_DEM_CTE.strip()},
d AS (SELECT g.cell,
             8 * g.e - (gne.e + gn.e + gnw.e + gw.e + ge.e
                        + gse.e + gs.e + gsw.e) AS t
      FROM grid g
      JOIN grid ge ON ge.cell = g.cell + 1
      JOIN grid gw ON gw.cell = g.cell - 1
      JOIN grid gn ON gn.cell = g.cell + 32
      JOIN grid gs ON gs.cell = g.cell - 32
      JOIN grid gne ON gne.cell = g.cell + 33
      JOIN grid gnw ON gnw.cell = g.cell + 31
      JOIN grid gse ON gse.cell = g.cell - 31
      JOIN grid gsw ON gsw.cell = g.cell - 33
      WHERE g.cell % 32 NOT IN (0, 31)
        AND g.cell // 32 NOT IN (0, 31))
SELECT g.cell, CAST(d.t AS BIGINT) AS tpi8,
       CASE WHEN d.cell IS NULL THEN NULL
            WHEN d.t > 6400 THEN 'ridge'
            WHEN d.t < -6400 THEN 'valley'
            ELSE 'slope' END AS landform
FROM grid g LEFT JOIN d ON d.cell = g.cell
ORDER BY g.cell
"""


def q_james_stein_nations(sf_dir: str):
    """James–Stein shrinkage of per-nation mean balances toward the
    grand mean — the estimator that PROVABLY beats the raw group
    means at k ≥ 4 (the 1961 result that shook classical
    statistics): θ̂_i = x̄ + c·(x̄_i − x̄) with the positive-part
    factor c = max(0, 1 − (k−3)·v̄/S), v̄ the average sampling
    variance of the group means (MSW·mean(1/nᵢ)) and
    S = Σ(x̄_i − x̄)².  Rides the ICC op's exact component panel and
    its milli-quantized S²/n fold; the 1/nᵢ and squared-deviation
    folds are nano-quantized the same way."""
    g = _nation_acctbal_components(sf_dir)
    k = len(g)
    nt = int(g["n"].sum())
    st = int(g["s"].sum())
    s2t = int(g["s2"].sum())
    ssb_q = sum(int(np.floor(int(r.s) * int(r.s)
                             / float(int(r.n)) * 1000.0 + 0.5))
                for r in g.itertuples())
    msw = (float(s2t) - ssb_q / 1000.0) / float(nt - k)
    inv9 = sum(int(np.floor(1e9 / float(int(r.n)) + 0.5))
               for r in g.itertuples())
    vbar = msw * (inv9 / 1e9) / k
    gm = float(st) / nt
    s_dev9 = sum(int(np.floor(
        (float(int(r.s)) / int(r.n) - gm) ** 2 * 1e3 + 0.5))
        for r in g.itertuples())
    s_dev = s_dev9 / 1e3
    c = max(0.0, 1.0 - (k - 3) * vbar / s_dev)
    rows = []
    for r in g.itertuples():
        raw = float(int(r.s)) / int(r.n)
        rows.append({"nk": int(r.nk), "n": int(r.n),
                     "raw_mean": np.round(raw / 100.0, 6),
                     "js_mean": np.round(
                         (gm + c * (raw - gm)) / 100.0, 6)})
    return pd.DataFrame(rows).sort_values("nk") \
        .reset_index(drop=True).astype({"nk": np.int64,
                                        "n": np.int64})


def _sql_james_stein() -> str:
    return f"""
WITH {SQL_NATION_COMPONENTS_CTE.strip()},
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS k, SUM(n) AS nt,
             SUM(s) AS st, SUM(s2) AS s2t,
             SUM(CAST(FLOOR(CAST(s * s AS DOUBLE)
                            / CAST(n AS DOUBLE) * 1000.0 + 0.5)
                      AS HUGEINT)) / 1000.0 AS ssb_n,
             SUM(CAST(FLOOR(1e9 / CAST(n AS DOUBLE) + 0.5)
                      AS BIGINT)) AS inv9
      FROM g),
f AS (SELECT k, CAST(st AS DOUBLE) / CAST(nt AS DOUBLE) AS gm,
             (CAST(s2t AS DOUBLE) - ssb_n) / CAST(nt - k AS DOUBLE)
               * (inv9 / 1e9) / k AS vbar
      FROM t),
sd AS (SELECT SUM(CAST(FLOOR(
          (CAST(g.s AS DOUBLE) / g.n - f.gm)
          * (CAST(g.s AS DOUBLE) / g.n - f.gm) * 1e3 + 0.5)
          AS BIGINT)) / 1e3 AS s_dev
       FROM g, f),
cc AS (SELECT f.k, f.gm,
              GREATEST(0.0, 1.0 - (f.k - 3) * f.vbar / sd.s_dev)
                AS c
       FROM f, sd)
SELECT g.nk, g.n AS n,
       ROUND((CAST(g.s AS DOUBLE) / g.n) / 100.0, 6) AS raw_mean,
       ROUND((cc.gm + cc.c * (CAST(g.s AS DOUBLE) / g.n - cc.gm))
             / 100.0, 6) AS js_mean
FROM g, cc ORDER BY g.nk
"""


def _customer_cell_counts(sf_dir: str) -> np.ndarray:
    """Shared 32×32 customer-occupancy counts (the DEM ops' hash
    cells, counts instead of cents) as a dense int64 array."""
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_custkey"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cx = ((k * 7919) % 1000) // 32
        cy = ((k * 104729) % 1000) // 32
        g = pd.DataFrame({"cell": cy * 32 + cx, "c": 1}) \
            .groupby("cell", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    et = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("cell").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    m = np.zeros(1024, dtype=np.int64)
    m[et["cell"].to_numpy(np.int64)] = et["c"].to_numpy(np.int64)
    return m


SQL_CELL_COUNTS_CTE = """
cc AS (SELECT (((c_custkey * 104729) % 1000) // 32) * 32
              + ((c_custkey * 7919) % 1000) // 32 AS cell,
              CAST(COUNT(*) AS BIGINT) AS c
       FROM customer GROUP BY 1)
"""


def q_boxcount_fd_cells(sf_dir: str):
    """Box-counting fractal dimension of the occupied customer cells
    — THE fractal-geography measurement (how does the settled area
    fill space as resolution coarsens?): N(s) = occupied s×s boxes
    at s ∈ {1, 2, 4, 8, 16}, FD = −slope of ln N on ln s.  Box
    counts are exact integers; the 5 log points are nano-quantized
    into the mirrored OLS.  FD → 2 means area-filling, → 0 isolated
    points."""
    import math
    m = _customer_cell_counts(sf_dir).reshape(32, 32)
    sx9 = sy9 = sxy9 = sxx9 = 0
    counts = {}
    for s_ in (1, 2, 4, 8, 16):
        b = m.reshape(32 // s_, s_, 32 // s_, s_).sum(axis=(1, 3))
        nb = int((b > 0).sum())
        counts[s_] = nb
        x = math.log(float(s_))
        y = math.log(float(nb))
        sx9 += int(np.floor(x * 1e9 + 0.5))
        sy9 += int(np.floor(y * 1e9 + 0.5))
        sxy9 += int(np.floor(x * y * 1e9 + 0.5))
        sxx9 += int(np.floor(x * x * 1e9 + 0.5))
    k = 5
    sx, sy = sx9 / 1e9, sy9 / 1e9
    sxy, sxx = sxy9 / 1e9, sxx9 / 1e9
    slope = (k * sxy - sx * sy) / (k * sxx - sx * sx)
    return pd.DataFrame([{
        "n1": counts[1], "n2": counts[2], "n4": counts[4],
        "n8": counts[8], "n16": counts[16],
        "boxcount_fd": np.round(-slope, 6)}]).astype({
            "n1": np.int64, "n2": np.int64, "n4": np.int64,
            "n8": np.int64, "n16": np.int64})


def _sql_boxcount() -> str:
    return f"""
WITH {SQL_CELL_COUNTS_CTE.strip()},
sc AS (SELECT s FROM (VALUES (1), (2), (4), (8), (16)) v(s)),
bx AS (SELECT sc.s,
              ((cc.cell // 32) // sc.s) * (32 // sc.s)
              + (cc.cell % 32) // sc.s AS box
       FROM cc, sc GROUP BY 1, 2),
nb AS (SELECT s, CAST(COUNT(*) AS BIGINT) AS n FROM bx GROUP BY 1),
q AS (SELECT LN(CAST(s AS DOUBLE)) AS x,
             LN(CAST(n AS DOUBLE)) AS y
      FROM nb),
m AS (SELECT CAST(COUNT(*) AS BIGINT) AS k,
             SUM(CAST(FLOOR(x * 1e9 + 0.5) AS BIGINT)) / 1e9 AS sx,
             SUM(CAST(FLOOR(y * 1e9 + 0.5) AS BIGINT)) / 1e9 AS sy,
             SUM(CAST(FLOOR(x * y * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS sxy,
             SUM(CAST(FLOOR(x * x * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS sxx
      FROM q)
SELECT (SELECT n FROM nb WHERE s = 1) AS n1,
       (SELECT n FROM nb WHERE s = 2) AS n2,
       (SELECT n FROM nb WHERE s = 4) AS n4,
       (SELECT n FROM nb WHERE s = 8) AS n8,
       (SELECT n FROM nb WHERE s = 16) AS n16,
       ROUND(-((m.k * m.sxy - m.sx * m.sy)
               / (m.k * m.sxx - m.sx * m.sx)), 6) AS boxcount_fd
FROM m
"""


def q_lacunarity_cells(sf_dir: str):
    """Lacunarity of the customer-count raster at box sizes 1/2/4/8
    — the 'texture of the gaps' companion to fractal dimension (two
    patterns can share FD yet differ wildly in gappiness):
    Λ(r) = B·Σm²/(Σm)² over non-overlapping r×r box masses, an
    EXACT integer ratio per size (one division); translation-
    invariant patterns pin Λ = 1."""
    m = _customer_cell_counts(sf_dir).reshape(32, 32)
    rows = []
    for r_ in (1, 2, 4, 8):
        b = m.reshape(32 // r_, r_, 32 // r_, r_).sum(axis=(1, 3))
        bb = (32 // r_) ** 2
        sm = int(b.sum())
        sm2 = int((b.astype(object) ** 2).sum())
        rows.append({
            "box_size": r_, "n_boxes": bb, "sum_mass": sm,
            "sum_mass_sq": sm2,
            "lacunarity": np.round(
                float(bb * sm2) / float(sm * sm), 6)})
    return pd.DataFrame(rows).astype({
        "box_size": np.int64, "n_boxes": np.int64,
        "sum_mass": np.int64, "sum_mass_sq": np.int64})


def _sql_lacunarity() -> str:
    return f"""
WITH {SQL_CELL_COUNTS_CTE.strip()},
sc AS (SELECT s FROM (VALUES (1), (2), (4), (8)) v(s)),
bx AS (SELECT sc.s,
              ((cc.cell // 32) // sc.s) * (32 // sc.s)
              + (cc.cell % 32) // sc.s AS box,
              SUM(cc.c) AS mass
       FROM cc, sc GROUP BY 1, 2),
ag AS (SELECT s, (32 // s) * (32 // s) AS bb,
              CAST(SUM(mass) AS HUGEINT) AS sm,
              SUM(CAST(mass AS HUGEINT) * mass) AS sm2
       FROM bx GROUP BY 1)
SELECT CAST(s AS BIGINT) AS box_size, CAST(bb AS BIGINT) AS n_boxes,
       CAST(sm AS BIGINT) AS sum_mass,
       CAST(sm2 AS BIGINT) AS sum_mass_sq,
       ROUND(CAST(bb * sm2 AS DOUBLE) / CAST(sm * sm AS DOUBLE), 6)
         AS lacunarity
FROM ag ORDER BY box_size
"""


def q_mantel_cells_revenue(sf_dir: str):
    """Mantel statistic between nations' spatial separation and their
    revenue gaps — 'do nearby nations earn alike?' asked the
    matrix-correlation way (the classic ecology/epidemiology test
    for distance–attribute association): nation centroids from the
    customer hash-cell coordinates (exact sums, one identical
    division), pairwise Euclidean centroid distances vs |revenue
    difference| cents, Pearson r over the 300 unordered pairs with
    per-pair terms nano-quantized."""
    import math
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cx = ((k * 7919) % 1000) // 32
        cy = ((k * 104729) % 1000) // 32
        g = pd.DataFrame({"nk": t["c_nationkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "sx": cx, "sy": cy, "n": 1}) \
            .groupby("nk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cen = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("nk").aggregate(Sum("sx", alias_name="sx"),
                                 Sum("sy", alias_name="sy"),
                                 Sum("n", alias_name="n"))
    ).to_pandas().sort_values("nk").reset_index(drop=True)
    rev = _nation_revenue_for_seats(sf_dir).set_index("n_nationkey")
    cen["cx"] = cen["sx"].to_numpy(np.float64) \
        / cen["n"].to_numpy(np.float64)
    cen["cy"] = cen["sy"].to_numpy(np.float64) \
        / cen["n"].to_numpy(np.float64)
    cen["rv"] = cen["nk"].map(rev["revenue_cents"]).astype(np.int64)
    k = len(cen)
    sx9 = sy9 = sxy9 = sxx9 = syy9 = 0
    npair = 0
    for i in range(k):
        for j in range(i + 1, k):
            dx = float(cen["cx"].iloc[i]) - float(cen["cx"].iloc[j])
            dy = float(cen["cy"].iloc[i]) - float(cen["cy"].iloc[j])
            x = math.sqrt(dx * dx + dy * dy)
            y = float(abs(int(cen["rv"].iloc[i])
                          - int(cen["rv"].iloc[j])))
            npair += 1
            sx9 += int(np.floor(x * 1e9 + 0.5))
            sy9 += int(np.floor(y * 1e3 + 0.5))
            sxy9 += int(np.floor(x * y * 1e3 + 0.5))
            sxx9 += int(np.floor(x * x * 1e9 + 0.5))
            syy9 += int(np.floor(y * y / 1e6 + 0.5))
    sx, sy = sx9 / 1e9, sy9 / 1e3
    sxy, sxx = sxy9 / 1e3, sxx9 / 1e9
    syy = syy9 * 1e6
    num = npair * sxy - sx * sy
    den = math.sqrt(npair * sxx - sx * sx) \
        * math.sqrt(npair * syy - sy * sy)
    return pd.DataFrame([{
        "n_groups": k, "n_pairs": npair,
        "mantel_r": np.round(num / den, 6)}]).astype({
            "n_groups": np.int64, "n_pairs": np.int64})


def _sql_mantel() -> str:
    return f"""
WITH {SQL_NATION_REV_CTE.strip()},
cen AS (SELECT c_nationkey AS nk,
               SUM(((c_custkey * 7919) % 1000) // 32) AS sx,
               SUM(((c_custkey * 104729) % 1000) // 32) AS sy,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM customer GROUP BY 1),
pt AS (SELECT cen.nk, CAST(cen.sx AS DOUBLE) / cen.n AS cx,
              CAST(cen.sy AS DOUBLE) / cen.n AS cy,
              nr.revenue_cents AS rv
       FROM cen JOIN nr ON nr.n_nationkey = cen.nk),
pr AS (SELECT SQRT((a.cx - b.cx) * (a.cx - b.cx)
                   + (a.cy - b.cy) * (a.cy - b.cy)) AS x,
              CAST(ABS(a.rv - b.rv) AS DOUBLE) AS y
       FROM pt a JOIN pt b ON a.nk < b.nk),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS np_,
             SUM(CAST(FLOOR(x * 1e9 + 0.5) AS BIGINT)) / 1e9 AS sx,
             SUM(CAST(FLOOR(y * 1e3 + 0.5) AS BIGINT)) / 1e3 AS sy,
             SUM(CAST(FLOOR(x * y * 1e3 + 0.5) AS BIGINT)) / 1e3
               AS sxy,
             SUM(CAST(FLOOR(x * x * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS sxx,
             SUM(CAST(FLOOR(y * y / 1e6 + 0.5) AS BIGINT)) * 1e6
               AS syy
      FROM pr),
g AS (SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM pt) AS k FROM s)
SELECT g.k AS n_groups, s.np_ AS n_pairs,
       ROUND((s.np_ * s.sxy - s.sx * s.sy)
             / (SQRT(s.np_ * s.sxx - s.sx * s.sx)
                * SQRT(s.np_ * s.syy - s.sy * s.sy)), 6)
         AS mantel_r
FROM s, g
"""


def q_raking_ipf_weights(sf_dir: str):
    """Two-dimensional raking (iterative proportional fitting) of the
    nation × segment customer table to UNIFORM target margins —
    survey statistics' weight calibration (the registry's
    poststratification op is the 1-D special case): three unrolled
    IPF rounds (row-scale then column-scale, the stated fixed
    schedule) starting from weight 1, every chain a mirrored float
    on exact integer cell counts.  Output per cell: count, weight,
    and the achieved row margin after round 3 (convergence is
    visible in how far it sits from 1/k)."""
    p = _nation_segment_outcome_panel(sf_dir)
    cell = p.groupby(["g", "s"], as_index=False)["c"].sum()
    n_tot = int(cell["c"].sum())
    gs = sorted(cell["g"].unique())
    ss = sorted(cell["s"].unique())
    tgt_row = 1.0 / len(gs)
    tgt_col = 1.0 / len(ss)
    w = {(int(r.g), r.s): float(int(r.c)) / n_tot
         for r in cell.itertuples(index=False)}
    for _ in range(3):
        for g in gs:
            m = sum(w.get((g, s), 0.0) for s in ss)
            if m > 0:
                for s in ss:
                    if (g, s) in w:
                        w[(g, s)] = w[(g, s)] * (tgt_row / m)
        for s in ss:
            m = sum(w.get((g, s), 0.0) for g in gs)
            if m > 0:
                for g in gs:
                    if (g, s) in w:
                        w[(g, s)] = w[(g, s)] * (tgt_col / m)
    rows = []
    for r in cell.itertuples(index=False):
        g = int(r.g)
        rm = sum(w.get((g, s), 0.0) for s in ss)
        rows.append({"g": g, "s": r.s, "n": int(r.c),
                     "weight": np.round(
                         w[(g, r.s)] * n_tot / int(r.c), 6),
                     "row_margin": np.round(rm, 6)})
    return pd.DataFrame(rows).sort_values(["g", "s"]) \
        .reset_index(drop=True).astype({"g": np.int64,
                                        "n": np.int64})


def _sql_raking() -> str:
    return f"""
WITH {SQL_NSO_CTE.strip()},
cell AS (SELECT g, s, CAST(SUM(c) AS BIGINT) AS c
         FROM pn GROUP BY 1, 2),
kk AS (SELECT CAST(COUNT(DISTINCT g) AS BIGINT) AS kg,
              CAST(COUNT(DISTINCT s) AS BIGINT) AS ks,
              CAST(SUM(c) AS BIGINT) AS nt
       FROM cell),
w0 AS (SELECT g, s, c, CAST(c AS DOUBLE) / kk.nt AS w
       FROM cell, kk),
r1 AS (SELECT g, s, c, w * ((1.0 / kk.kg)
         / SUM(w) OVER (PARTITION BY g)) AS w FROM w0, kk),
c1 AS (SELECT g, s, c, w * ((1.0 / kk.ks)
         / SUM(w) OVER (PARTITION BY s)) AS w FROM r1, kk),
r2 AS (SELECT g, s, c, w * ((1.0 / kk.kg)
         / SUM(w) OVER (PARTITION BY g)) AS w FROM c1, kk),
c2 AS (SELECT g, s, c, w * ((1.0 / kk.ks)
         / SUM(w) OVER (PARTITION BY s)) AS w FROM r2, kk),
r3 AS (SELECT g, s, c, w * ((1.0 / kk.kg)
         / SUM(w) OVER (PARTITION BY g)) AS w FROM c2, kk),
c3 AS (SELECT g, s, c, w * ((1.0 / kk.ks)
         / SUM(w) OVER (PARTITION BY s)) AS w FROM r3, kk)
SELECT g, s, c AS n,
       ROUND(w * kk.nt / c, 6) AS weight,
       ROUND(SUM(w) OVER (PARTITION BY g), 6) AS row_margin
FROM c3, kk ORDER BY g, s
"""


def q_stratified_att_segments(sf_dir: str):
    """Stratified (subclassification) treatment-effect estimate —
    Cochran's classic observational-causal design beside the
    registry's NN-matching and diff-in-diff ops: treatment =
    positive balance, outcome = frequent-buyer rate, strata = market
    segment; ATT = Σ_s (n₁s/n₁)·(ȳ₁s − ȳ₀s), each stratum term one
    identical double chain on exact counts then nano-quantized so
    the fold is order-free; strata missing a control arm are
    dropped with their treated count reported (the overlap
    diagnostic)."""
    p = _nation_segment_outcome_panel(sf_dir)
    st = p.groupby("s")
    n1_tot = 0
    terms = []
    dropped = 0
    for s, g in st:
        n1 = int(g.loc[g.pos == 1, "c"].sum())
        n0 = int(g.loc[g.pos == 0, "c"].sum())
        y1 = int(g.loc[(g.pos == 1) & (g.ordered == 1), "c"].sum())
        y0 = int(g.loc[(g.pos == 0) & (g.ordered == 1), "c"].sum())
        if n1 == 0 or n0 == 0:
            dropped += n1
            continue
        n1_tot += n1
        terms.append((n1, y1, n0, y0))
    att9 = 0
    for n1, y1, n0, y0 in terms:
        att9 += int(np.floor(
            float(n1) / n1_tot
            * (float(y1) / n1 - float(y0) / n0) * 1e9 + 0.5))
    return pd.DataFrame([{
        "n_treated": n1_tot, "n_strata": len(terms),
        "n_treated_unsupported": dropped,
        "att": np.round(att9 / 1e9, 6)}]).astype({
            "n_treated": np.int64, "n_strata": np.int64,
            "n_treated_unsupported": np.int64})


def _sql_stratified_att() -> str:
    return f"""
WITH {SQL_NSO_CTE.strip()},
st AS (SELECT s,
         SUM(CASE WHEN pos = 1 THEN c ELSE 0 END) AS n1,
         SUM(CASE WHEN pos = 0 THEN c ELSE 0 END) AS n0,
         SUM(CASE WHEN pos = 1 AND ordered = 1 THEN c ELSE 0 END)
           AS y1,
         SUM(CASE WHEN pos = 0 AND ordered = 1 THEN c ELSE 0 END)
           AS y0
       FROM pn GROUP BY 1),
ok AS (SELECT * FROM st WHERE n1 > 0 AND n0 > 0),
tot AS (SELECT CAST(SUM(n1) AS BIGINT) AS n1t,
               CAST(COUNT(*) AS BIGINT) AS k
        FROM ok),
dr AS (SELECT CAST(COALESCE(SUM(n1), 0) AS BIGINT) AS d
       FROM st WHERE n1 = 0 OR n0 = 0),
f AS (SELECT SUM(CAST(FLOOR(
         CAST(ok.n1 AS DOUBLE) / tot.n1t
         * (CAST(ok.y1 AS DOUBLE) / ok.n1
            - CAST(ok.y0 AS DOUBLE) / ok.n0) * 1e9 + 0.5)
         AS BIGINT)) AS att9
      FROM ok, tot)
SELECT tot.n1t AS n_treated, tot.k AS n_strata,
       dr.d AS n_treated_unsupported,
       ROUND(f.att9 / 1e9, 6) AS att
FROM tot, dr, f
"""


def q_aitchison_variation_segments(sf_dir: str):
    """Aitchison total variance of the monthly market-segment revenue
    COMPOSITION — compositional data analysis' headline number
    (shares live on a simplex; ordinary variances of percentages are
    statistically wrong, the 1982 lesson): totvar = (1/k²)·
    Σ_{i<j} Var_m(ln(x_mi/x_mj)) over months where every segment
    traded (stated drop rule).  Each ln(x_mi) is NANO-QUANTIZED once
    per (month, segment); the pairwise log-ratio variances then fold
    from pure integer differences — order-free and exact to the
    quantization."""
    from ray.data.aggregate import Sum
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_totalprice"])
    cu = _read_table(sf_dir, "customer",
                     ["c_custkey", "c_mktsegment"]).to_pandas()
    seg_map = pd.Series(cu["c_mktsegment"].to_numpy(),
                        index=cu["c_custkey"].to_numpy())
    sref = ray.put(seg_map)

    def partial(t: pa.Table) -> pa.Table:
        m = relational.worker_cached(("aitch_seg", sref),
                                     lambda: ray.get(sref))
        seg = m.reindex(t["o_custkey"].to_numpy(
            zero_copy_only=False)).to_numpy(dtype=object)
        mon = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[M]").astype(np.int64)
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"mon": mon, "s": seg, "v": cents}) \
            .groupby(["mon", "s"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby(["mon", "s"]).aggregate(Sum("v", alias_name="v"))
    ).to_pandas()
    import math
    segs = sorted(g["s"].unique())
    k = len(segs)
    piv = g.pivot_table(index="mon", columns="s", values="v",
                        fill_value=0, aggfunc="sum")
    full = piv[(piv > 0).all(axis=1)]
    mm = len(full)
    q9 = {}
    for s_ in segs:
        q9[s_] = np.array([int(np.floor(
            math.log(float(int(v))) * 1e9 + 0.5))
            for v in full[s_]], dtype=object)
    tot9 = 0
    for i in range(k):
        for j in range(i + 1, k):
            dif = q9[segs[i]] - q9[segs[j]]
            sd = int(dif.sum())
            sd2 = int((dif * dif).sum())
            tot9 += mm * sd2 - sd * sd
    totvar = float(tot9) / 1e18 / float(mm * mm) / float(k * k)
    return pd.DataFrame([{
        "n_months": mm, "k_segments": k,
        "total_variance": np.round(totvar, 6)}]).astype({
            "n_months": np.int64, "k_segments": np.int64})


SQL_AITCHISON = """
WITH ms AS (SELECT CAST(date_part('year', o_orderdate) * 12
                        + date_part('month', o_orderdate) - 1
                        AS BIGINT) AS mon,
                   c_mktsegment AS s,
                   SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                     AS v
            FROM orders JOIN customer ON c_custkey = o_custkey
            GROUP BY 1, 2),
k AS (SELECT CAST(COUNT(DISTINCT s) AS BIGINT) AS k FROM ms),
full_m AS (SELECT mon FROM ms, k GROUP BY mon, k.k
           HAVING COUNT(*) = MAX(k.k) AND MIN(v) > 0),
q AS (SELECT ms.mon, ms.s,
             CAST(FLOOR(LN(CAST(ms.v AS DOUBLE)) * 1e9 + 0.5)
                  AS BIGINT) AS q9
      FROM ms JOIN full_m USING (mon)),
mm AS (SELECT CAST(COUNT(*) AS BIGINT) AS m FROM full_m),
pr AS (SELECT a.s AS si, b.s AS sj,
              CAST(SUM(CAST(a.q9 - b.q9 AS HUGEINT)) AS HUGEINT)
                AS sd,
              SUM(CAST(a.q9 - b.q9 AS HUGEINT) * (a.q9 - b.q9))
                AS sd2
       FROM q a JOIN q b ON a.mon = b.mon AND a.s < b.s
       GROUP BY 1, 2),
t AS (SELECT SUM(mm.m * pr.sd2 - pr.sd * pr.sd) AS tot9
      FROM pr, mm)
SELECT mm.m AS n_months, k.k AS k_segments,
       ROUND(CAST(t.tot9 AS DOUBLE) / 1e18
             / CAST(mm.m * mm.m AS DOUBLE)
             / CAST(k.k * k.k AS DOUBLE), 6) AS total_variance
FROM t, mm, k
"""


def q_mediation_sobel_customers(sf_dir: str):
    """Baron–Kenny mediation with the Sobel test on the customer
    panel — does balance (X) drive revenue (Y) THROUGH order count
    (M)?  The three classical regressions (Y~X total effect c, M~X
    path a, Y~X+M paths c′ and b) all fold from ONE pass of exact
    integer moments (X = balance cents, M = orders, Y = revenue
    cents); the 2-regressor solve is a Cramer 2×2 on n-scaled
    centered moments, the standard errors use the textbook
    closed forms, and Sobel z = ab/√(b²s_a² + a²s_b²) is one
    mirrored chain."""
    import math
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    ords = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def po(t: pa.Table) -> pa.Table:
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"c_custkey": t["o_custkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "m_": 1, "y_": cents}) \
            .groupby("c_custkey", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    keys = ords.map_batches(po, batch_format="pyarrow") \
        .groupby("c_custkey").aggregate(Sum("m_", alias_name="m_"),
                                        Sum("y_", alias_name="y_"))

    def comb(t: pa.Table) -> pa.Table:
        # all moments EXACT integers; y² exceeds int64 totals, so it
        # ships as 2^31 limbs (lo sums stay far below 2^63)
        df = t.to_pandas()
        x = np.floor(df["c_acctbal"].to_numpy() * 100
                     + 0.5).astype(np.int64).astype(object)
        m_ = df["m_"].fillna(0).to_numpy(dtype=np.int64) \
            .astype(object)
        y = df["y_"].fillna(0).to_numpy(dtype=np.int64) \
            .astype(object)
        syy = int((y * y).sum())
        return pa.table({
            "_g": pa.array([0]), "n": pa.array([len(df)]),
            "sx": pa.array([int(x.sum())]),
            "sm": pa.array([int(m_.sum())]),
            "sy": pa.array([int(y.sum())]),
            "sxx": pa.array([int((x * x).sum())]),
            "smm": pa.array([int((m_ * m_).sum())]),
            "syyh": pa.array([syy >> 31]),
            "syyl": pa.array([syy & 0x7FFFFFFF]),
            "sxm": pa.array([int((x * m_).sum())]),
            "sxy": pa.array([int((x * y).sum())]),
            "smy": pa.array([int((m_ * y).sum())])})

    j = relational.bucketed_hash_join(cust, keys, on="c_custkey",
                                      how="left", combine=comb)
    cols = ["n", "sx", "sm", "sy", "sxx", "smm", "syyh", "syyl",
            "sxm", "sxy", "smy"]
    agg = relational.ds_to_table(
        j.groupby("_g").aggregate(
            *[Sum(c, alias_name=c) for c in cols])).to_pandas()
    n = int(agg["n"].iloc[0])
    sx, sm_, sy = (int(agg["sx"].iloc[0]), int(agg["sm"].iloc[0]),
                   int(agg["sy"].iloc[0]))
    sxx = int(agg["sxx"].iloc[0])
    smm = int(agg["smm"].iloc[0])
    syy = (int(agg["syyh"].iloc[0]) << 31) \
        + int(agg["syyl"].iloc[0])
    sxm = int(agg["sxm"].iloc[0])
    sxy = int(agg["sxy"].iloc[0])
    smy = int(agg["smy"].iloc[0])
    cxx = n * sxx - sx * sx              # exact python ints
    cmm = n * smm - sm_ * sm_
    cyy = n * syy - sy * sy
    cxm = n * sxm - sx * sm_
    cxy = n * sxy - sx * sy
    cmy = n * smy - sm_ * sy
    det = cxx * cmm - cxm * cxm
    c_tot = float(cxy) / float(cxx)
    a = float(cxm) / float(cxx)
    c_pr = float(cxy * cmm - cmy * cxm) / float(det)
    b = float(cmy * cxx - cxy * cxm) / float(det)
    # standard errors on DOUBLE after the exact integer moments
    cxxf, cmmf, cyyf = float(cxx), float(cmm), float(cyy)
    cxmf, cxyf, cmyf = float(cxm), float(cxy), float(cmy)
    s_a2 = ((cmmf - a * cxmf) / n / (n - 2)) / (cxxf / n)
    s_b2 = ((cyyf - c_pr * cxyf - b * cmyf) / n / (n - 3)) \
        / ((cmmf / n) * (1.0 - cxmf * cxmf / (cxxf * cmmf)))
    sobel = (a * b) / math.sqrt(b * b * s_a2 + a * a * s_b2)
    return pd.DataFrame([{
        "n_customers": n, "c_total": np.round(c_tot, 6),
        "a_path": np.round(a, 6), "b_path": np.round(b, 6),
        "c_prime": np.round(c_pr, 6),
        "indirect_ab": np.round(a * b, 6),
        "sobel_z": np.round(sobel, 6)}]).astype({
            "n_customers": np.int64})


SQL_MEDIATION_SOBEL = """
WITH per AS (SELECT c.c_custkey,
                    CAST(FLOOR(c.c_acctbal * 100 + 0.5) AS HUGEINT)
                      AS x,
                    CAST(COALESCE(o.m_, 0) AS HUGEINT) AS m,
                    CAST(COALESCE(o.y_, 0) AS HUGEINT) AS y
             FROM customer c LEFT JOIN (
               SELECT o_custkey, COUNT(*) AS m_,
                      SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                        AS y_
               FROM orders GROUP BY 1) o
               ON o.o_custkey = c.c_custkey),
t AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(x) AS sx,
             SUM(m) AS sm, SUM(y) AS sy, SUM(x * x) AS sxx,
             SUM(m * m) AS smm, SUM(y * y) AS syy,
             SUM(x * m) AS sxm, SUM(x * y) AS sxy,
             SUM(m * y) AS smy
      FROM per),
c AS (SELECT CAST(n AS BIGINT) AS n,
             n * sxx - sx * sx AS cxx, n * smm - sm * sm AS cmm,
             n * syy - sy * sy AS cyy, n * sxm - sx * sm AS cxm,
             n * sxy - sx * sy AS cxy, n * smy - sm * sy AS cmy
      FROM t),
f AS (SELECT n,
             CAST(cxy AS DOUBLE) / CAST(cxx AS DOUBLE) AS c_tot,
             CAST(cxm AS DOUBLE) / CAST(cxx AS DOUBLE) AS a,
             CAST(cxy * cmm - cmy * cxm AS DOUBLE)
               / CAST(cxx * cmm - cxm * cxm AS DOUBLE) AS c_pr,
             CAST(cmy * cxx - cxy * cxm AS DOUBLE)
               / CAST(cxx * cmm - cxm * cxm AS DOUBLE) AS b,
             CAST(cxx AS DOUBLE) AS cxx, CAST(cmm AS DOUBLE) AS cmm,
             CAST(cyy AS DOUBLE) AS cyy, CAST(cxm AS DOUBLE) AS cxm,
             CAST(cxy AS DOUBLE) AS cxy, CAST(cmy AS DOUBLE) AS cmy
      FROM c),
se AS (SELECT n, c_tot, a, b, c_pr,
              ((cmm - a * cxm) / n / (n - 2)) / (cxx / n) AS s_a2,
              ((cyy - c_pr * cxy - b * cmy) / n / (n - 3))
                / ((cmm / n) * (1.0 - cxm * cxm / (cxx * cmm)))
                AS s_b2
       FROM f)
SELECT n AS n_customers, ROUND(c_tot, 6) AS c_total,
       ROUND(a, 6) AS a_path, ROUND(b, 6) AS b_path,
       ROUND(c_pr, 6) AS c_prime, ROUND(a * b, 6) AS indirect_ab,
       ROUND((a * b) / SQRT(b * b * s_a2 + a * a * s_b2), 6)
         AS sobel_z
FROM se
"""


def q_smd_balance_segments(sf_dir: str):
    """Standardized-mean-difference balance table for the stratified
    ATT design — the diagnostic every matching paper prints first
    (|SMD| < 0.1 is the conventional 'balanced'): covariate = order
    count, treated = positive balance, SMD = (x̄_t − x̄_c)/
    √((s_t² + s_c²)/2) per segment plus the pooled row.  Exact
    integer order-count moments per (segment, arm) from ONE
    bucketed-join reduce; every SMD is a mirrored chain."""
    import math
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_mktsegment", "c_acctbal"])
    ok = _read(sf_dir, "orders", ["o_custkey"])

    def pk(t: pa.Table) -> pa.Table:
        u, c = np.unique(t["o_custkey"].to_numpy(zero_copy_only=False)
                         .astype(np.int64), return_counts=True)
        return pa.table({"c_custkey": pa.array(u),
                         "oc": pa.array(c.astype(np.int64))})

    keys = ok.map_batches(pk, batch_format="pyarrow") \
        .groupby("c_custkey").aggregate(Sum("oc", alias_name="oc"))

    def comb(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        cents = np.floor(df["c_acctbal"].to_numpy() * 100
                         + 0.5).astype(np.int64)
        oc = df["oc"].fillna(0).to_numpy(dtype=np.int64)
        g = pd.DataFrame({
            "s": df["c_mktsegment"].to_numpy(dtype=object),
            "pos": (cents > 0).astype(np.int64),
            "n": 1, "so": oc, "so2": oc * oc}) \
            .groupby(["s", "pos"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    j = relational.bucketed_hash_join(cust, keys, on="c_custkey",
                                      how="left", combine=comb)
    g = relational.ds_to_table(
        j.groupby(["s", "pos"]).aggregate(
            Sum("n", alias_name="n"), Sum("so", alias_name="so"),
            Sum("so2", alias_name="so2"))).to_pandas()

    def smd(gt, gc):
        nt, st_, st2 = (int(gt["n"]), int(gt["so"]),
                        int(gt["so2"]))
        nc, sc_, sc2 = (int(gc["n"]), int(gc["so"]),
                        int(gc["so2"]))
        mt = float(st_) / nt
        mc = float(sc_) / nc
        vt = (float(st2) - float(st_) * st_ / nt) / (nt - 1)
        vc = (float(sc2) - float(sc_) * sc_ / nc) / (nc - 1)
        return (mt - mc) / math.sqrt((vt + vc) / 2.0)

    rows = []
    for s_, gg in g.groupby("s"):
        gt = gg[gg.pos == 1]
        gc = gg[gg.pos == 0]
        # arms need >= 2 members for a variance (stated drop rule)
        if len(gt) == 0 or len(gc) == 0 \
                or int(gt["n"].iloc[0]) < 2 \
                or int(gc["n"].iloc[0]) < 2:
            continue
        rows.append({
            "segment": s_, "n_treated": int(gt["n"].iloc[0]),
            "n_control": int(gc["n"].iloc[0]),
            "smd": np.round(smd(gt.iloc[0], gc.iloc[0]), 6)})
    tot = g.groupby("pos")[["n", "so", "so2"]].sum()
    rows.append({
        "segment": "__overall__",
        "n_treated": int(tot.loc[1, "n"]),
        "n_control": int(tot.loc[0, "n"]),
        "smd": np.round(smd(tot.loc[1], tot.loc[0]), 6)})
    return pd.DataFrame(rows).sort_values("segment") \
        .reset_index(drop=True).astype({
            "n_treated": np.int64, "n_control": np.int64})


SQL_SMD_BALANCE = """
WITH per AS (SELECT c.c_mktsegment AS s,
                    CASE WHEN FLOOR(c.c_acctbal * 100 + 0.5) > 0
                         THEN 1 ELSE 0 END AS pos,
                    CAST(COALESCE(o.oc, 0) AS BIGINT) AS oc
             FROM customer c LEFT JOIN (
               SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS oc
               FROM orders GROUP BY 1) o
               ON o.o_custkey = c.c_custkey),
g AS (SELECT s, pos, CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(oc) AS BIGINT) AS so,
             CAST(SUM(oc * oc) AS BIGINT) AS so2
      FROM per GROUP BY 1, 2),
seg AS (SELECT t.s AS segment, t.n AS n_treated, c.n AS n_control,
               (CAST(t.so AS DOUBLE) / t.n
                - CAST(c.so AS DOUBLE) / c.n)
               / SQRT(((CAST(t.so2 AS DOUBLE)
                        - CAST(t.so AS DOUBLE) * t.so / t.n)
                       / (t.n - 1)
                       + (CAST(c.so2 AS DOUBLE)
                          - CAST(c.so AS DOUBLE) * c.so / c.n)
                       / (c.n - 1)) / 2.0) AS smd
        FROM (SELECT * FROM g WHERE pos = 1 AND n >= 2) t
        JOIN (SELECT * FROM g WHERE pos = 0 AND n >= 2) c
          USING (s)),
tot AS (SELECT '__overall__' AS segment,
               MAX(CASE WHEN pos = 1 THEN n END) AS n_treated,
               MAX(CASE WHEN pos = 0 THEN n END) AS n_control,
               (MAX(CASE WHEN pos = 1 THEN CAST(so AS DOUBLE) / n
                    END)
                - MAX(CASE WHEN pos = 0 THEN CAST(so AS DOUBLE) / n
                      END))
               / SQRT((MAX(CASE WHEN pos = 1 THEN
                           (CAST(so2 AS DOUBLE)
                            - CAST(so AS DOUBLE) * so / n) / (n - 1)
                           END)
                       + MAX(CASE WHEN pos = 0 THEN
                             (CAST(so2 AS DOUBLE)
                              - CAST(so AS DOUBLE) * so / n)
                             / (n - 1) END)) / 2.0) AS smd
        FROM (SELECT pos, SUM(n) AS n, SUM(so) AS so,
                     SUM(so2) AS so2
              FROM g GROUP BY 1))
SELECT segment, n_treated, n_control, ROUND(smd, 6) AS smd
FROM (SELECT * FROM seg UNION ALL SELECT * FROM tot)
ORDER BY segment
"""


_SEG_BALLOTS_MEMO: dict = {}


def _segment_ballots(sf_dir: str) -> pd.DataFrame:
    """Shared social-choice panel: each nation ranks the market
    segments by its OWN revenue in them (desc, segment-name
    tiebreak) — 25 ballots over ≤5 candidates, from one bounded
    (nation, segment) cents reduce.  Memoized per fingerprint."""
    from ray.data.aggregate import Sum
    memo_key = _fingerprint_cache_dir(sf_dir, "orders", "ballots")
    hit = _SEG_BALLOTS_MEMO.get(memo_key)
    if hit is not None:
        return hit.copy()
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cu = _read_table(sf_dir, "customer",
                     ["c_custkey", "c_nationkey",
                      "c_mktsegment"]).to_pandas()
    nk = pd.Series(cu["c_nationkey"].to_numpy(np.int64),
                   index=cu["c_custkey"].to_numpy())
    sg = pd.Series(cu["c_mktsegment"].to_numpy(dtype=object),
                   index=cu["c_custkey"].to_numpy())
    nref, sref = ray.put(nk), ray.put(sg)

    def partial(t: pa.Table) -> pa.Table:
        nm = relational.worker_cached(("ball_n", nref),
                                      lambda: ray.get(nref))
        sm = relational.worker_cached(("ball_s", sref),
                                      lambda: ray.get(sref))
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"g": nm.reindex(ck).to_numpy(np.int64),
                          "s": sm.reindex(ck).to_numpy(dtype=object),
                          "v": cents}) \
            .groupby(["g", "s"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby(["g", "s"]).aggregate(Sum("v", alias_name="v"))
    ).to_pandas()
    # rank per nation by (v desc, s asc)
    out = []
    for nk_, gg in g.groupby("g"):
        gg = gg.sort_values(["v", "s"], ascending=[False, True])
        for r_, (_, row) in enumerate(gg.iterrows(), start=1):
            out.append({"g": int(nk_), "s": row["s"],
                        "v": int(row["v"]), "rank": r_})
    res = pd.DataFrame(out)
    _SEG_BALLOTS_MEMO.clear()
    _SEG_BALLOTS_MEMO[memo_key] = res.copy()
    return res


SQL_BALLOTS_CTE = """
ns AS (SELECT c_nationkey AS g, c_mktsegment AS s,
              SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS v
       FROM orders JOIN customer ON c_custkey = o_custkey
       GROUP BY 1, 2),
ball AS (SELECT g, s, v,
                ROW_NUMBER() OVER (PARTITION BY g
                                   ORDER BY v DESC, s) AS rank
         FROM ns)
"""


def q_borda_condorcet_segments(sf_dir: str):
    """Borda count + Condorcet analysis of the nations' segment
    rankings — the two classical aggregation answers that can
    DISAGREE (Borda rewards broad support, Condorcet head-to-head
    wins), carried beside the registry's apportionment and power-
    index ops: ballots = each nation's revenue ranking of the
    segments, Borda score = Σ(k − rank), pairwise win matrix exact
    integer majorities, condorcet_winner = beats EVERY rival
    head-to-head (may not exist — the paradox is the point)."""
    b = _segment_ballots(sf_dir)
    k = b["s"].nunique()
    segs = sorted(b["s"].unique())
    borda = {s_: 0 for s_ in segs}
    for _, r in b.iterrows():
        borda[r["s"]] += k - int(r["rank"])
    piv = b.pivot_table(index="g", columns="s", values="rank",
                        aggfunc="first")
    wins = {s_: 0 for s_ in segs}
    beats_all = {s_: True for s_ in segs}
    for i_s in segs:
        for j_s in segs:
            if i_s == j_s:
                continue
            better = int((piv[i_s] < piv[j_s]).sum())
            worse = int((piv[i_s] > piv[j_s]).sum())
            if better > worse:
                wins[i_s] += 1
            else:
                beats_all[i_s] = False
    rows = [{"segment": s_, "borda": borda[s_],
             "pairwise_wins": wins[s_],
             "condorcet_winner": bool(beats_all[s_])}
            for s_ in segs]
    return pd.DataFrame(rows).astype({
        "borda": np.int64, "pairwise_wins": np.int64})


def _sql_borda() -> str:
    return f"""
WITH {SQL_BALLOTS_CTE.strip()},
k AS (SELECT CAST(COUNT(DISTINCT s) AS BIGINT) AS k FROM ball),
bo AS (SELECT s, CAST(SUM(k.k - rank) AS BIGINT) AS borda
       FROM ball, k GROUP BY 1),
pw AS (SELECT a.s AS si, b.s AS sj,
              SUM(CASE WHEN a.rank < b.rank THEN 1 ELSE 0 END)
                AS better,
              SUM(CASE WHEN a.rank > b.rank THEN 1 ELSE 0 END)
                AS worse
       FROM ball a JOIN ball b ON a.g = b.g AND a.s <> b.s
       GROUP BY 1, 2),
wn AS (SELECT si AS s,
              CAST(SUM(CASE WHEN better > worse THEN 1 ELSE 0 END)
                   AS BIGINT) AS pairwise_wins,
              BOOL_AND(better > worse) AS condorcet_winner
       FROM pw GROUP BY 1)
SELECT bo.s AS segment, bo.borda, wn.pairwise_wins,
       wn.condorcet_winner
FROM bo JOIN wn USING (s) ORDER BY bo.s
"""


def q_kemeny_rank_segments(sf_dir: str):
    """EXACT Kemeny-optimal ranking of the segments — the rank
    aggregation that minimizes total pairwise disagreement with the
    ballots (NP-hard in general; at k = 5 the 120 permutations are
    enumerable EXACTLY, which is the whole trick): cost(π) =
    Σ_{i before j in π} #ballots preferring j over i, all integer,
    ties broken to the lexicographically smallest permutation.
    The registry's Borda op is the O(n) heuristic; this is the
    ground truth it approximates."""
    from itertools import permutations
    b = _segment_ballots(sf_dir)
    segs = sorted(b["s"].unique())
    piv = b.pivot_table(index="g", columns="s", values="rank",
                        aggfunc="first")
    pref = {}
    for i_s in segs:
        for j_s in segs:
            if i_s != j_s:
                pref[(i_s, j_s)] = int((piv[i_s] < piv[j_s]).sum())
    best = None
    for perm in permutations(segs):
        cost = 0
        for a_i in range(len(perm)):
            for b_i in range(a_i + 1, len(perm)):
                cost += pref[(perm[b_i], perm[a_i])]
        key = (cost, perm)
        if best is None or key < best:
            best = key
    rows = [{"position": p_ + 1, "segment": s_,
             "kemeny_cost": best[0]}
            for p_, s_ in enumerate(best[1])]
    return pd.DataFrame(rows).astype({
        "position": np.int64, "kemeny_cost": np.int64})


def _sql_kemeny() -> str:
    return f"""
WITH {SQL_BALLOTS_CTE.strip()},
segs AS (SELECT s, ROW_NUMBER() OVER (ORDER BY s) AS id
         FROM (SELECT DISTINCT s FROM ball)),
pref AS (SELECT sa.id AS i, sb.id AS j,
                CAST(SUM(CASE WHEN a.rank < b.rank THEN 1 ELSE 0
                         END) AS BIGINT) AS w
         FROM ball a JOIN ball b ON a.g = b.g AND a.s <> b.s
         JOIN segs sa ON sa.s = a.s JOIN segs sb ON sb.s = b.s
         GROUP BY 1, 2),
perm AS (SELECT p1.id AS a, p2.id AS b, p3.id AS c, p4.id AS d,
                p5.id AS e
         FROM segs p1, segs p2, segs p3, segs p4, segs p5
         WHERE p2.id <> p1.id AND p3.id NOT IN (p1.id, p2.id)
           AND p4.id NOT IN (p1.id, p2.id, p3.id)
           AND p5.id NOT IN (p1.id, p2.id, p3.id, p4.id)),
cost AS (SELECT perm.a, perm.b, perm.c, perm.d, perm.e,
           (SELECT w FROM pref WHERE i = perm.b AND j = perm.a)
           + (SELECT w FROM pref WHERE i = perm.c AND j = perm.a)
           + (SELECT w FROM pref WHERE i = perm.d AND j = perm.a)
           + (SELECT w FROM pref WHERE i = perm.e AND j = perm.a)
           + (SELECT w FROM pref WHERE i = perm.c AND j = perm.b)
           + (SELECT w FROM pref WHERE i = perm.d AND j = perm.b)
           + (SELECT w FROM pref WHERE i = perm.e AND j = perm.b)
           + (SELECT w FROM pref WHERE i = perm.d AND j = perm.c)
           + (SELECT w FROM pref WHERE i = perm.e AND j = perm.c)
           + (SELECT w FROM pref WHERE i = perm.e AND j = perm.d)
             AS cost
         FROM perm),
best AS (SELECT * FROM cost
         ORDER BY cost, a, b, c, d, e LIMIT 1),
pos AS (SELECT 1 AS position, a AS id FROM best
        UNION ALL SELECT 2, b FROM best
        UNION ALL SELECT 3, c FROM best
        UNION ALL SELECT 4, d FROM best
        UNION ALL SELECT 5, e FROM best)
SELECT CAST(pos.position AS BIGINT) AS position, segs.s AS segment,
       (SELECT CAST(cost AS BIGINT) FROM best) AS kemeny_cost
FROM pos JOIN segs ON segs.id = pos.id ORDER BY pos.position
"""


def q_gale_shapley_matching(sf_dir: str):
    """Gale–Shapley deferred acceptance (the 1962 algorithm behind
    residency matching and the 2012 Nobel) between nations and their
    top suppliers: nations propose in ascending-key order, each
    preferring suppliers whose account balance sits CLOSEST to the
    nation's mean customer balance (|s − n̄| asc, suppkey tiebreak);
    suppliers prefer richer nations (revenue desc, key tiebreak).
    Iterative and not SQL-expressible — no oracle by design; the
    test suite verifies the defining property instead: the result
    admits NO BLOCKING PAIR, and proposer-optimality holds on a
    crafted instance."""
    from ray.data.aggregate import Sum
    nr = _nation_revenue_for_seats(sf_dir)
    g = _nation_acctbal_components(sf_dir)
    sup = _read_table(sf_dir, "supplier",
                      ["s_suppkey", "s_acctbal"]).to_pandas() \
        .sort_values("s_suppkey")
    k = min(len(g), len(sup), 25)
    nations = sorted(g["nk"].to_numpy(np.int64).tolist())[:k]
    nmean = {int(r.nk): float(int(r.s)) / int(r.n)
             for r in g.itertuples()}
    rev = nr.set_index("n_nationkey")["revenue_cents"]
    sups = sup.head(k)
    skeys = sups["s_suppkey"].to_numpy(np.int64).tolist()
    sbal = {int(r.s_suppkey): float(np.floor(
        r.s_acctbal * 100 + 0.5)) for r in sups.itertuples()}
    nprefs = {n_: sorted(skeys,
                         key=lambda s_: (abs(sbal[s_]
                                             - nmean[n_]), s_))
              for n_ in nations}
    srank = {}
    nat_by_pref = sorted(nations,
                         key=lambda n_: (-int(rev.get(n_, 0)), n_))
    for s_ in skeys:
        srank[s_] = {n_: i for i, n_ in enumerate(nat_by_pref)}
    nxt = {n_: 0 for n_ in nations}
    match_s = {}
    free = sorted(nations)
    while free:
        n_ = free.pop(0)
        while nxt[n_] < len(nprefs[n_]):
            s_ = nprefs[n_][nxt[n_]]
            nxt[n_] += 1
            cur = match_s.get(s_)
            if cur is None:
                match_s[s_] = n_
                break
            if srank[s_][n_] < srank[s_][cur]:
                match_s[s_] = n_
                free.insert(0, cur)
                break
        else:
            continue
    rows = [{"n_nationkey": n_, "s_suppkey": s_,
             "pref_rank_nation": nprefs[n_].index(s_) + 1}
            for s_, n_ in match_s.items()]
    return pd.DataFrame(rows).sort_values("n_nationkey") \
        .reset_index(drop=True).astype({
            "n_nationkey": np.int64, "s_suppkey": np.int64,
            "pref_rank_nation": np.int64})


def q_win_ratio_customers(sf_dir: str):
    """Pocock's win ratio (2012) for the hierarchical composite
    endpoint — the clinical-trials statistic that fixed composite
    outcomes double-counting: every treated×control pair is compared
    on the HIERARCHY (frequent-buyer first, then order count);
    wins/losses/ties are exact integer counts folded from the joint
    (arm, frequent, order-count) DISTRIBUTION cells (≤ value-domain²
    cell pairs — pairs never materialize), WR = wins/losses one
    mirrored division.  Treated = positive balance, the shared
    panel's arms."""
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    ok = _read(sf_dir, "orders", ["o_custkey"])

    def pk(t: pa.Table) -> pa.Table:
        u, c = np.unique(t["o_custkey"].to_numpy(zero_copy_only=False)
                         .astype(np.int64), return_counts=True)
        return pa.table({"c_custkey": pa.array(u),
                         "oc": pa.array(c.astype(np.int64))})

    keys = ok.map_batches(pk, batch_format="pyarrow") \
        .groupby("c_custkey").aggregate(Sum("oc", alias_name="oc"))

    def comb(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        cents = np.floor(df["c_acctbal"].to_numpy() * 100
                         + 0.5).astype(np.int64)
        oc = df["oc"].fillna(0).to_numpy(dtype=np.int64)
        g = pd.DataFrame({
            "arm": (cents > 0).astype(np.int64),
            "f": (oc >= 12).astype(np.int64), "oc": oc, "c": 1}) \
            .groupby(["arm", "f", "oc"], sort=False).sum() \
            .reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    j = relational.bucketed_hash_join(cust, keys, on="c_custkey",
                                      how="left", combine=comb)
    g = relational.ds_to_table(
        j.groupby(["arm", "f", "oc"]).aggregate(
            Sum("c", alias_name="c"))).to_pandas()
    tr = g[g.arm == 1]
    co = g[g.arm == 0]
    wins = losses = ties = 0
    for rt in tr.itertuples(index=False):
        for rc in co.itertuples(index=False):
            prod = int(rt.c) * int(rc.c)
            kt = (int(rt.f), int(rt.oc))
            kc = (int(rc.f), int(rc.oc))
            if kt > kc:
                wins += prod
            elif kt < kc:
                losses += prod
            else:
                ties += prod
    return pd.DataFrame([{
        "n_treated": int(tr["c"].sum()),
        "n_control": int(co["c"].sum()),
        "wins": wins, "losses": losses, "ties": ties,
        "win_ratio": np.round(float(wins) / float(losses), 6)}]) \
        .astype({"n_treated": np.int64, "n_control": np.int64,
                 "wins": np.int64, "losses": np.int64,
                 "ties": np.int64})


SQL_WIN_RATIO = """
WITH per AS (SELECT CASE WHEN FLOOR(c.c_acctbal * 100 + 0.5) > 0
                         THEN 1 ELSE 0 END AS arm,
                    CASE WHEN COALESCE(o.oc, 0) >= 12
                         THEN 1 ELSE 0 END AS f,
                    CAST(COALESCE(o.oc, 0) AS BIGINT) AS oc
             FROM customer c LEFT JOIN (
               SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS oc
               FROM orders GROUP BY 1) o
               ON o.o_custkey = c.c_custkey),
cells AS (SELECT arm, f, oc, CAST(COUNT(*) AS HUGEINT) AS c
          FROM per GROUP BY 1, 2, 3),
cmp AS (SELECT
          SUM(CASE WHEN t.f > c_.f OR (t.f = c_.f AND t.oc > c_.oc)
              THEN t.c * c_.c ELSE 0 END) AS wins,
          SUM(CASE WHEN t.f < c_.f OR (t.f = c_.f AND t.oc < c_.oc)
              THEN t.c * c_.c ELSE 0 END) AS losses,
          SUM(CASE WHEN t.f = c_.f AND t.oc = c_.oc
              THEN t.c * c_.c ELSE 0 END) AS ties
        FROM (SELECT * FROM cells WHERE arm = 1) t,
             (SELECT * FROM cells WHERE arm = 0) c_),
nn AS (SELECT
         (SELECT CAST(SUM(c) AS BIGINT) FROM cells WHERE arm = 1)
           AS nt,
         (SELECT CAST(SUM(c) AS BIGINT) FROM cells WHERE arm = 0)
           AS nc)
SELECT nn.nt AS n_treated, nn.nc AS n_control,
       CAST(cmp.wins AS BIGINT) AS wins,
       CAST(cmp.losses AS BIGINT) AS losses,
       CAST(cmp.ties AS BIGINT) AS ties,
       ROUND(CAST(cmp.wins AS DOUBLE)
             / CAST(cmp.losses AS DOUBLE), 6) AS win_ratio
FROM cmp, nn
"""


def q_rank_size_rule_nations(sf_dir: str):
    """Rank-size rule (Zipf for cities) on nation revenues — urban
    economics' 200-year-old regularity (the r-th largest is 1/r^q of
    the largest; q = 1 is Zipf's law): ln size on ln rank OLS over
    the revenue-sorted nations, exact cents in, per-point terms
    nano-quantized, mirrored slope/intercept.  The registry's word
    zipf_slope is the linguistic sibling; this is the spatial one."""
    import math
    nr = _nation_revenue_for_seats(sf_dir)
    v = np.sort(nr["revenue_cents"].to_numpy(np.int64))[::-1]
    n = len(v)
    sx9 = sy9 = sxy9 = sxx9 = 0
    for r_ in range(n):
        x = math.log(float(r_ + 1))
        y = math.log(float(int(v[r_])))
        sx9 += int(np.floor(x * 1e9 + 0.5))
        sy9 += int(np.floor(y * 1e9 + 0.5))
        sxy9 += int(np.floor(x * y * 1e9 + 0.5))
        sxx9 += int(np.floor(x * x * 1e9 + 0.5))
    sx, sy = sx9 / 1e9, sy9 / 1e9
    sxy, sxx = sxy9 / 1e9, sxx9 / 1e9
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    a = sy / n - slope * (sx / n)
    return pd.DataFrame([{
        "n_nations": n, "zipf_q": np.round(-slope, 6),
        "ln_leader": np.round(a, 6)}]).astype({
            "n_nations": np.int64})


def _sql_rank_size() -> str:
    return f"""
WITH {SQL_NATION_REV_CTE.strip()},
o_ AS (SELECT revenue_cents AS v,
              ROW_NUMBER() OVER (ORDER BY revenue_cents DESC,
                                 n_nationkey) AS r
       FROM nr),
q AS (SELECT LN(CAST(r AS DOUBLE)) AS x,
             LN(CAST(v AS DOUBLE)) AS y
      FROM o_),
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
SELECT n AS n_nations, ROUND(-sl, 6) AS zipf_q,
       ROUND(sy / n - sl * (sx / n), 6) AS ln_leader
FROM b
"""


_NATSEG_REV_MEMO: dict = {}


def _nation_segment_revenue(sf_dir: str) -> pd.DataFrame:
    """Shared (nation, segment) exact-cents revenue panel for the
    regional-economics pair; memoized per fingerprint."""
    from ray.data.aggregate import Sum
    memo_key = _fingerprint_cache_dir(sf_dir, "orders", "natsegrev")
    hit = _NATSEG_REV_MEMO.get(memo_key)
    if hit is not None:
        return hit.copy()
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cu = _read_table(sf_dir, "customer",
                     ["c_custkey", "c_nationkey",
                      "c_mktsegment"]).to_pandas()
    nk = pd.Series(cu["c_nationkey"].to_numpy(np.int64),
                   index=cu["c_custkey"].to_numpy())
    sg = pd.Series(cu["c_mktsegment"].to_numpy(dtype=object),
                   index=cu["c_custkey"].to_numpy())
    nref, sref = ray.put(nk), ray.put(sg)

    def partial(t: pa.Table) -> pa.Table:
        nm = relational.worker_cached(("lq_n", nref),
                                      lambda: ray.get(nref))
        sm = relational.worker_cached(("lq_s", sref),
                                      lambda: ray.get(sref))
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        cents = np.round(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"g": nm.reindex(ck).to_numpy(np.int64),
                          "s": sm.reindex(ck).to_numpy(dtype=object),
                          "v": cents}) \
            .groupby(["g", "s"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = relational.ds_to_table(
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby(["g", "s"]).aggregate(Sum("v", alias_name="v"))
    ).to_pandas()
    _NATSEG_REV_MEMO.clear()
    _NATSEG_REV_MEMO[memo_key] = out.copy()
    return out


SQL_NATSEG_REV_CTE = """
ns AS (SELECT c_nationkey AS g, c_mktsegment AS s,
              SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS v
       FROM orders JOIN customer ON c_custkey = o_custkey
       GROUP BY 1, 2)
"""


def q_location_quotient_segments(sf_dir: str):
    """Location quotients — regional economics' specialization map
    (LQ > 1: the nation is OVER-represented in that segment relative
    to the whole economy; the export-base number every development
    agency quotes): LQ = (v_gs/v_g)/(v_s/V), an exact integer cross
    ratio v_gs·V/(v_g·v_s) — one division per cell, top 15 by
    (LQ desc, nation, segment)."""
    p = _nation_segment_revenue(sf_dir)
    vg = p.groupby("g")["v"].sum()
    vs = p.groupby("s")["v"].sum()
    vtot = int(p["v"].sum())
    rows = []
    for r in p.itertuples(index=False):
        num = int(r.v) * vtot
        den = int(vg.loc[r.g]) * int(vs.loc[r.s])
        rows.append({"g": int(r.g), "s": r.s,
                     "v_cents": int(r.v),
                     "lq": np.round(float(num) / float(den), 6),
                     "_num": num, "_den": den})
    df = pd.DataFrame(rows)
    df["_key"] = df["_num"] / df["_den"]
    df = df.sort_values(["_key", "g", "s"],
                        ascending=[False, True, True]).head(15)
    return df[["g", "s", "v_cents", "lq"]].reset_index(drop=True) \
        .astype({"g": np.int64, "v_cents": np.int64})


def _sql_location_quotient() -> str:
    return f"""
WITH {SQL_NATSEG_REV_CTE.strip()},
vg AS (SELECT g, CAST(SUM(v) AS HUGEINT) AS vg FROM ns GROUP BY 1),
vs AS (SELECT s, CAST(SUM(v) AS HUGEINT) AS vs FROM ns GROUP BY 1),
vt AS (SELECT CAST(SUM(v) AS HUGEINT) AS vt FROM ns)
SELECT ns.g, ns.s, CAST(ns.v AS BIGINT) AS v_cents,
       ROUND(CAST(ns.v * vt.vt AS DOUBLE)
             / CAST(vg.vg * vs.vs AS DOUBLE), 6) AS lq
FROM ns JOIN vg USING (g) JOIN vs USING (s), vt
ORDER BY CAST(ns.v * vt.vt AS DOUBLE)
         / CAST(vg.vg * vs.vs AS DOUBLE) DESC, ns.g, ns.s
LIMIT 15
"""


def q_krugman_specialization(sf_dir: str):
    """Krugman specialization index per nation — how DIFFERENT is a
    nation's segment mix from everyone else's: K_g = Σ_s |share_gs −
    share_s^rest| with the comparator the rest-of-economy mix (the
    standard form), cleared to exact integers via the common
    denominator |v_gs·(V−v_g)·... folded as per-segment cross
    products — K = Σ|v_gs·Vr − vr_s·v_g|/(v_g·Vr), one division per
    nation.  0 = identical mix, 2 = completely disjoint."""
    p = _nation_segment_revenue(sf_dir)
    vg = p.groupby("g")["v"].sum()
    vs = p.groupby("s")["v"].sum()
    vtot = int(p["v"].sum())
    segs = sorted(p["s"].unique())
    cell = {(int(r.g), r.s): int(r.v)
            for r in p.itertuples(index=False)}
    rows = []
    for g_ in sorted(vg.index):
        v_g = int(vg.loc[g_])
        v_rest = vtot - v_g
        num = 0
        for s_ in segs:
            v_gs = cell.get((int(g_), s_), 0)
            vr_s = int(vs.loc[s_]) - v_gs
            num += abs(v_gs * v_rest - vr_s * v_g)
        rows.append({"g": int(g_), "v_cents": v_g,
                     "krugman_k": np.round(
                         float(num) / float(v_g * v_rest), 6)})
    return pd.DataFrame(rows).sort_values("g") \
        .reset_index(drop=True).astype({"g": np.int64,
                                        "v_cents": np.int64})


def _sql_krugman() -> str:
    return f"""
WITH {SQL_NATSEG_REV_CTE.strip()},
segs AS (SELECT DISTINCT s FROM ns),
gs AS (SELECT g, CAST(SUM(v) AS HUGEINT) AS vg FROM ns
       GROUP BY 1),
ss AS (SELECT s, CAST(SUM(v) AS HUGEINT) AS vs FROM ns
       GROUP BY 1),
vt AS (SELECT CAST(SUM(v) AS HUGEINT) AS vt FROM ns),
cells AS (SELECT gs.g, segs.s, gs.vg,
                 CAST(COALESCE(ns.v, 0) AS HUGEINT) AS vgs
          FROM gs CROSS JOIN segs
          LEFT JOIN ns ON ns.g = gs.g AND ns.s = segs.s),
t AS (SELECT c.g, MAX(c.vg) AS vg,
             SUM(ABS(c.vgs * (vt.vt - c.vg)
                     - (ss.vs - c.vgs) * c.vg)) AS num
      FROM cells c JOIN ss USING (s), vt
      GROUP BY 1),
f AS (SELECT t.g, t.vg, t.num, vt.vt - t.vg AS vr FROM t, vt)
SELECT g, CAST(vg AS BIGINT) AS v_cents,
       ROUND(CAST(num AS DOUBLE) / CAST(vg * vr AS DOUBLE), 6)
         AS krugman_k
FROM f ORDER BY g
"""


def q_one_rule_classifier(sf_dir: str):
    """Holte's 1R (1993) — the single-feature rule that embarrassed
    decision trees on most UCI datasets and remains THE baseline any
    classifier must beat: for each feature (nation, segment,
    balance-sign) predict the majority frequent-buyer class per
    value; accuracy = Σ_v max(n_v1, n_v0)/n, all exact integer
    counts off the shared outcome panel (no new reduce); best
    feature by (accuracy, name) — the integer-cleared compare
    n_correct·1 against ties."""
    p = _nation_segment_outcome_panel(sf_dir)
    n = int(p["c"].sum())
    rows = []
    for feat, col in (("nation", "g"), ("segment", "s"),
                      ("balance_sign", "pos")):
        m = p.groupby([col, "ordered"])["c"].sum().unstack(
            fill_value=0)
        for cl in (0, 1):
            if cl not in m.columns:
                m[cl] = 0
        correct = int(np.maximum(m[0].to_numpy(np.int64),
                                 m[1].to_numpy(np.int64)).sum())
        rows.append({"feature": feat, "n_values": len(m),
                     "n_correct": correct,
                     "accuracy": np.round(correct / n, 6)})
    df = pd.DataFrame(rows)
    best = df.sort_values(["n_correct", "feature"],
                          ascending=[False, True]).iloc[0]["feature"]
    df["is_best"] = df["feature"] == best
    return df.sort_values("feature").reset_index(drop=True) \
        .astype({"n_values": np.int64, "n_correct": np.int64})


def _sql_one_rule() -> str:
    return f"""
WITH {SQL_NSO_CTE.strip()},
n AS (SELECT CAST(SUM(c) AS BIGINT) AS n FROM pn),
feats AS (
  SELECT 'nation' AS feature, CAST(g AS VARCHAR) AS v, ordered,
         c FROM pn
  UNION ALL
  SELECT 'segment', s, ordered, c FROM pn
  UNION ALL
  SELECT 'balance_sign', CAST(pos AS VARCHAR), ordered, c FROM pn),
vals AS (SELECT feature, v,
                SUM(CASE WHEN ordered = 1 THEN c ELSE 0 END) AS c1,
                SUM(CASE WHEN ordered = 0 THEN c ELSE 0 END) AS c0
         FROM feats GROUP BY 1, 2),
acc AS (SELECT feature, CAST(COUNT(*) AS BIGINT) AS n_values,
               CAST(SUM(GREATEST(c1, c0)) AS BIGINT) AS n_correct
        FROM vals GROUP BY 1),
best AS (SELECT feature FROM acc
         ORDER BY n_correct DESC, feature LIMIT 1)
SELECT acc.feature, acc.n_values, acc.n_correct,
       ROUND(CAST(acc.n_correct AS DOUBLE)
             / (SELECT CAST(n AS DOUBLE) FROM n), 6) AS accuracy,
       acc.feature = (SELECT feature FROM best) AS is_best
FROM acc ORDER BY acc.feature
"""


def q_benjamini_yekutieli_nations(sf_dir: str):
    """Benjamini–Yekutieli FDR (q = 0.10) on the nation p-value panel
    — the correction that stays valid under ARBITRARY dependence
    (the nation tests share the pooled mean, so BH's independence
    assumption is genuinely violated here; BY pays the harmonic
    penalty c(m) = Σ1/i for the guarantee): same step-up as the BH
    op with thresholds k·q/(m·c(m)), rejections a strict subset of
    BH's — the containment is a per-row boolean fact the hash
    verifies."""
    pv = _nation_z_pvalues(sf_dir)
    pv = pv.sort_values(["p", "nk"]).reset_index(drop=True)
    m = len(pv)
    cm9 = sum(int(np.floor(1e9 / float(i) + 0.5))
              for i in range(1, m + 1))
    cm = cm9 / 1e9
    ranks = np.arange(1, m + 1)
    ok = pv["p"].to_numpy() <= ranks * 0.10 / (m * cm)
    kmax = int(ranks[ok].max()) if ok.any() else 0
    okb = pv["p"].to_numpy() <= ranks * 0.10 / m
    kb = int(ranks[okb].max()) if okb.any() else 0
    pv["rank"] = ranks
    pv["by_reject"] = ranks <= kmax
    pv["bh_reject"] = ranks <= kb
    out = pv.sort_values("nk").reset_index(drop=True)
    return pd.DataFrame({
        "nk": out["nk"], "p": np.round(out["p"], 6),
        "p_rank": out["rank"].astype(np.int64),
        "by_reject": out["by_reject"],
        "bh_reject": out["bh_reject"]})


def _sql_by_fdr() -> str:
    return f"""
WITH {SQL_NATION_PVALUES_CTE.strip()},
r AS (SELECT nk, p, ROW_NUMBER() OVER (ORDER BY p, nk) AS rk,
             (SELECT COUNT(*) FROM pv) AS m
      FROM pv),
cm AS (SELECT SUM(CAST(FLOOR(1e9 / CAST(i AS DOUBLE) + 0.5)
                       AS BIGINT)) / 1e9 AS c
       FROM (SELECT unnest(generate_series(1,
               (SELECT MAX(m) FROM r))) AS i)),
kb AS (SELECT COALESCE(MAX(rk), 0) AS k FROM r
       WHERE p <= rk * 0.10 / m),
ky AS (SELECT COALESCE(MAX(rk), 0) AS k FROM r, cm
       WHERE p <= rk * 0.10 / (m * cm.c))
SELECT nk, ROUND(p, 6) AS p, CAST(rk AS BIGINT) AS p_rank,
       rk <= ky.k AS by_reject, rk <= kb.k AS bh_reject
FROM r, kb, ky ORDER BY nk
"""


def q_storey_pi0_nations(sf_dir: str):
    """Storey's π₀ estimate and q-value ceiling on the nation panel
    — the modern-FDR insight BH discards (if most nulls are TRUE,
    p-values above λ are all null; counting them estimates π₀ and
    buys power): π̂₀ = #{p > λ}/((1−λ)·m) at λ = 0.5, clamped to 1,
    and the global q-value floor π̂₀·m·p₍₁₎/1 — exact integer count
    over the mirrored p chain."""
    pv = _nation_z_pvalues(sf_dir)
    m = len(pv)
    n_big = int((pv["p"].to_numpy() > 0.5).sum())
    pi0 = min(1.0, n_big / ((1.0 - 0.5) * m))
    p1 = float(np.sort(pv["p"].to_numpy())[0])
    return pd.DataFrame([{
        "m_tests": m, "n_p_above_half": n_big,
        "pi0_hat": np.round(pi0, 6),
        "min_q_value": np.round(min(1.0, pi0 * m * p1), 6)}]) \
        .astype({"m_tests": np.int64, "n_p_above_half": np.int64})


def _sql_storey() -> str:
    return f"""
WITH {SQL_NATION_PVALUES_CTE.strip()},
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS m,
             CAST(SUM(CASE WHEN p > 0.5 THEN 1 ELSE 0 END)
                  AS BIGINT) AS nb,
             MIN(p) AS p1
      FROM pv)
SELECT m AS m_tests, nb AS n_p_above_half,
       ROUND(LEAST(1.0, CAST(nb AS DOUBLE)
                   / ((1.0 - 0.5) * m)), 6) AS pi0_hat,
       ROUND(LEAST(1.0, LEAST(1.0, CAST(nb AS DOUBLE)
                              / ((1.0 - 0.5) * m)) * m * p1), 6)
         AS min_q_value
FROM t
"""


def q_simes_global_nations(sf_dir: str):
    """Simes' global test on the nation panel — ONE p-value for 'is
    ANY nation off?' (Fisher's combination sums evidence; Simes
    takes min_k p₍ₖ₎·m/k and is valid under the same positive
    dependence BH needs — the two global tests disagree exactly when
    evidence is concentrated vs diffuse): per-rank terms
    nano-quantized for an exact min, argmin rank reported."""
    pv = _nation_z_pvalues(sf_dir)
    pv = pv.sort_values(["p", "nk"]).reset_index(drop=True)
    m = len(pv)
    ranks = np.arange(1, m + 1)
    t9 = np.floor(pv["p"].to_numpy() * m / ranks * 1e9
                  + 0.5).astype(np.int64)
    i = int(np.argmin(t9))
    return pd.DataFrame([{
        "m_tests": m, "argmin_rank": i + 1,
        "simes_p": np.round(min(1.0, t9[i] / 1e9), 6)}]).astype({
            "m_tests": np.int64, "argmin_rank": np.int64})


def _sql_simes() -> str:
    return f"""
WITH {SQL_NATION_PVALUES_CTE.strip()},
r AS (SELECT nk, p, ROW_NUMBER() OVER (ORDER BY p, nk) AS rk,
             (SELECT COUNT(*) FROM pv) AS m
      FROM pv),
q AS (SELECT rk, m,
             CAST(FLOOR(p * m / rk * 1e9 + 0.5) AS BIGINT) AS t9
      FROM r),
b AS (SELECT rk, m, t9 FROM q ORDER BY t9, rk LIMIT 1)
SELECT CAST(m AS BIGINT) AS m_tests, CAST(rk AS BIGINT)
         AS argmin_rank,
       ROUND(LEAST(1.0, t9 / 1e9), 6) AS simes_p
FROM b
"""


def _nation_meta_effects(sf_dir: str):
    """Shared meta-analysis panel: per nation the 'study effect'
    y_i = mean balance (dollars) and its sampling variance
    v_i = s_i²/n_i, both from the exact ICC component moments —
    every downstream pooled statistic folds from (y, v) pairs."""
    g = _nation_acctbal_components(sf_dir)
    rows = []
    for r in g.itertuples():
        n, s, s2 = int(r.n), int(r.s), int(r.s2)
        mean = float(s) / n / 100.0
        var_s = (float(s2) - float(s) * s / n) / (n - 1) / 10000.0
        rows.append({"nk": int(r.nk), "n": n, "y": mean,
                     "v": var_s / n})
    return pd.DataFrame(rows).sort_values("nk") \
        .reset_index(drop=True)


SQL_META_EFFECTS_CTE = f"""
{SQL_NATION_COMPONENTS_CTE.strip()},
eff AS (SELECT nk, n,
              CAST(s AS DOUBLE) / n / 100.0 AS y,
              (CAST(s2 AS DOUBLE) - CAST(s AS DOUBLE) * s / n)
              / (n - 1) / 10000.0 / n AS v
        FROM g)
"""


def q_dersimonian_laird_nations(sf_dir: str):
    """DerSimonian–Laird random-effects meta-analysis pooling the
    nation mean balances — THE default meta-analysis everywhere
    (fixed effects assumes one truth; DL lets nations genuinely
    differ and pays wider intervals): heterogeneity Q on
    fixed-effect weights, τ² = max(0, (Q − df)/(Σw − Σw²/Σw)),
    I² = (Q − df)/Q clamped, and the RE-pooled mean under weights
    1/(v + τ²).  Every per-nation term is one identical double
    chain nano-quantized before its fold, so the sums are
    order-free."""
    e = _nation_meta_effects(sf_dir)
    k = len(e)
    w = 1.0 / e["v"].to_numpy(np.float64)
    y = e["y"].to_numpy(np.float64)
    # weights are ~1e-6 (dollar-scale variances): pico/atto folds
    sw9 = int(np.floor(w * 1e12 + 0.5).astype(np.int64).sum())
    swy9 = int(np.floor(w * y * 1e12 + 0.5).astype(np.int64).sum())
    sw2_9 = int(np.floor(w * w * 1e18 + 0.5).astype(np.int64)
                .sum())
    sw = sw9 / 1e12
    swy = swy9 / 1e12
    sw2 = sw2_9 / 1e18
    ybar = swy / sw
    q9 = int(np.floor(w * (y - ybar) * (y - ybar) * 1e6
                      + 0.5).astype(np.int64).sum())
    q = q9 / 1e6
    tau2 = max(0.0, (q - (k - 1)) / (sw - sw2 / sw))
    i2 = max(0.0, (q - (k - 1)) / q) if q > 0 else 0.0
    wr = 1.0 / (e["v"].to_numpy(np.float64) + tau2)
    swr9 = int(np.floor(wr * 1e12 + 0.5).astype(np.int64).sum())
    swry9 = int(np.floor(wr * y * 1e12 + 0.5).astype(np.int64)
                .sum())
    pooled = (swry9 / 1e12) / (swr9 / 1e12)
    return pd.DataFrame([{
        "k_studies": k, "q_het": np.round(q, 6),
        "i2": np.round(i2, 6), "tau2": np.round(tau2, 6),
        "pooled_fixed": np.round(ybar, 6),
        "pooled_random": np.round(pooled, 6)}]).astype({
            "k_studies": np.int64})


def _sql_dersimonian() -> str:
    return f"""
WITH {SQL_META_EFFECTS_CTE.strip()},
s1 AS (SELECT CAST(COUNT(*) AS BIGINT) AS k,
         SUM(CAST(FLOOR(1.0 / v * 1e12 + 0.5) AS BIGINT)) / 1e12
           AS sw,
         SUM(CAST(FLOOR(1.0 / v * y * 1e12 + 0.5) AS BIGINT))
           / 1e12 AS swy,
         SUM(CAST(FLOOR((1.0 / v) * (1.0 / v) * 1e18 + 0.5)
                  AS BIGINT)) / 1e18 AS sw2
       FROM eff),
qq AS (SELECT s1.k, s1.sw, s1.sw2, s1.swy / s1.sw AS ybar,
         (SELECT SUM(CAST(FLOOR(1.0 / e.v
                   * (e.y - s1.swy / s1.sw)
                   * (e.y - s1.swy / s1.sw) * 1e6 + 0.5)
                  AS BIGINT)) FROM eff e) / 1e6 AS q
       FROM s1),
t2 AS (SELECT k, q, ybar,
         GREATEST(0.0, (q - (k - 1)) / (sw - sw2 / sw)) AS tau2,
         CASE WHEN q > 0 THEN GREATEST(0.0, (q - (k - 1)) / q)
              ELSE 0.0 END AS i2
       FROM qq),
re AS (SELECT t2.k, t2.q, t2.i2, t2.tau2, t2.ybar,
         (SELECT SUM(CAST(FLOOR(1.0 / (e.v + t2.tau2) * e.y * 1e12
                                + 0.5) AS BIGINT)) FROM eff e)
           / 1e12 AS swry,
         (SELECT SUM(CAST(FLOOR(1.0 / (e.v + t2.tau2) * 1e12
                                + 0.5) AS BIGINT)) FROM eff e)
           / 1e12 AS swr
       FROM t2)
SELECT k AS k_studies, ROUND(q, 6) AS q_het, ROUND(i2, 6) AS i2,
       ROUND(tau2, 6) AS tau2, ROUND(ybar, 6) AS pooled_fixed,
       ROUND(swry / swr, 6) AS pooled_random
FROM re
"""


def q_eggers_test_nations(sf_dir: str):
    """Egger's regression test on the nation 'studies' — the
    funnel-plot asymmetry check (small studies drifting one way =
    selection/size bias; here: do small nations systematically
    over- or under-report balances?): regress the standardized
    effect y/SE on precision 1/SE, the INTERCEPT is the bias; exact-
    moment OLS with nano-quantized points, t = b₀/SE(b₀)
    mirrored."""
    import math
    e = _nation_meta_effects(sf_dir)
    k = len(e)
    se = np.sqrt(e["v"].to_numpy(np.float64))
    x = 1.0 / se
    yy = e["y"].to_numpy(np.float64) / se
    sx9 = int(np.floor(x * 1e6 + 0.5).astype(np.int64).sum())
    sy9 = int(np.floor(yy * 1e6 + 0.5).astype(np.int64).sum())
    sxy9 = int(np.floor(x * yy * 1e6 + 0.5).astype(np.int64).sum())
    sxx9 = int(np.floor(x * x * 1e6 + 0.5).astype(np.int64).sum())
    syy9 = int(np.floor(yy * yy * 1e6 + 0.5).astype(np.int64)
               .sum())
    sx, sy = sx9 / 1e6, sy9 / 1e6
    sxy, sxx, syy = sxy9 / 1e6, sxx9 / 1e6, syy9 / 1e6
    b1 = (k * sxy - sx * sy) / (k * sxx - sx * sx)
    b0 = (sy - b1 * sx) / k
    # quantization can push a near-perfect fit's SSE a hair
    # negative: clamp, and a zero SE reports NULL t (stated)
    sse = max(0.0, syy - b0 * sy - b1 * sxy)
    se_b0 = math.sqrt(sse / (k - 2)
                      * (sxx / (k * sxx - sx * sx)))
    t_val = np.nan if se_b0 == 0 else b0 / se_b0
    return pd.DataFrame([{
        "k_studies": k, "intercept_bias": np.round(b0, 6),
        "slope": np.round(b1, 6),
        "egger_t": np.round(t_val, 6)}]).astype({
            "k_studies": np.int64})


def _sql_eggers() -> str:
    return f"""
WITH {SQL_META_EFFECTS_CTE.strip()},
p AS (SELECT 1.0 / SQRT(v) AS x, y / SQRT(v) AS yy FROM eff),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS k,
        SUM(CAST(FLOOR(x * 1e6 + 0.5) AS BIGINT)) / 1e6 AS sx,
        SUM(CAST(FLOOR(yy * 1e6 + 0.5) AS BIGINT)) / 1e6 AS sy,
        SUM(CAST(FLOOR(x * yy * 1e6 + 0.5) AS BIGINT)) / 1e6
          AS sxy,
        SUM(CAST(FLOOR(x * x * 1e6 + 0.5) AS BIGINT)) / 1e6 AS sxx,
        SUM(CAST(FLOOR(yy * yy * 1e6 + 0.5) AS BIGINT)) / 1e6
          AS syy
      FROM p),
b AS (SELECT k, sx, sy, sxy, sxx, syy,
        (k * sxy - sx * sy) / (k * sxx - sx * sx) AS b1
      FROM s),
f AS (SELECT k, b1, (sy - b1 * sx) / k AS b0, sy, sxy, syy, sxx,
             sx
      FROM b)
SELECT k AS k_studies, ROUND(b0, 6) AS intercept_bias,
       ROUND(b1, 6) AS slope,
       CASE WHEN GREATEST(0.0, syy - b0 * sy - b1 * sxy) = 0
            THEN NULL
            ELSE ROUND(b0 / SQRT(GREATEST(0.0, syy - b0 * sy
                                          - b1 * sxy) / (k - 2)
                                 * (sxx / (k * sxx - sx * sx))), 6)
       END AS egger_t
FROM f
"""


def q_loo_meta_nations(sf_dir: str):
    """Leave-one-out meta-analysis sensitivity — which single nation
    MOVES the pooled estimate (the influence diagnostic every
    meta-analysis reports): for each excluded nation the fixed-
    effect pool recomputes in closed form from the quantized weight
    sums minus that nation's terms — exact subtraction, no rerun;
    shift = pooled_without − pooled_all, top 10 by |shift|."""
    e = _nation_meta_effects(sf_dir)
    w = 1.0 / e["v"].to_numpy(np.float64)
    y = e["y"].to_numpy(np.float64)
    w9 = np.floor(w * 1e12 + 0.5).astype(np.int64)
    wy9 = np.floor(w * y * 1e12 + 0.5).astype(np.int64)
    sw9 = int(w9.sum())
    swy9 = int(wy9.sum())
    pooled = (swy9 / 1e12) / (sw9 / 1e12)
    rows = []
    for i in range(len(e)):
        pw = ((swy9 - int(wy9[i])) / 1e12) \
            / ((sw9 - int(w9[i])) / 1e12)
        rows.append({"nk": int(e["nk"].iloc[i]),
                     "pooled_without": np.round(pw, 6),
                     "shift": np.round(pw - pooled, 6),
                     "_abs": abs(pw - pooled)})
    df = pd.DataFrame(rows).sort_values(["_abs", "nk"],
                                        ascending=[False, True]) \
        .head(10)
    return df[["nk", "pooled_without", "shift"]] \
        .reset_index(drop=True).astype({"nk": np.int64})


def _sql_loo_meta() -> str:
    return f"""
WITH {SQL_META_EFFECTS_CTE.strip()},
q AS (SELECT nk,
             CAST(FLOOR(1.0 / v * 1e12 + 0.5) AS BIGINT) AS w9,
             CAST(FLOOR(1.0 / v * y * 1e12 + 0.5) AS BIGINT)
               AS wy9
      FROM eff),
t AS (SELECT CAST(SUM(w9) AS BIGINT) AS sw9,
             CAST(SUM(wy9) AS BIGINT) AS swy9
      FROM q),
f AS (SELECT q.nk,
        ((t.swy9 - q.wy9) / 1e12) / ((t.sw9 - q.w9) / 1e12) AS pw,
        (t.swy9 / 1e12) / (t.sw9 / 1e12) AS pooled
      FROM q, t)
SELECT nk, ROUND(pw, 6) AS pooled_without,
       ROUND(pw - pooled, 6) AS shift
FROM f ORDER BY ABS(pw - pooled) DESC, nk LIMIT 10
"""


def q_harrells_c_retention(sf_dir: str):
    """Harrell's concordance index of account balance as a lifetime
    predictor — THE survival-model metric (plain AUC is undefined
    under censoring; C counts only pairs the censoring pattern makes
    comparable: the earlier lifetime must be an EVENT): per-customer
    (lifetime, churn, balance-cents) panel, comparable = strict
    t_i < t_j with churn_i = 1, concordant when the score agrees,
    score ties credit ½ — all exact integer pair counts, one
    mirrored division."""
    from ray.data.aggregate import Max, Min
    ev = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64)
        g = pd.DataFrame({"o_custkey": t["o_custkey"].to_numpy(
            zero_copy_only=False), "pf": day, "pl": day}) \
            .groupby("o_custkey", sort=False) \
            .agg(pf=("pf", "min"), pl=("pl", "max")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    per = relational.ds_to_table(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("o_custkey").aggregate(
            Min("pf", alias_name="f"), Max("pl", alias_name="l"))
    ).to_pandas()
    mx = int(per["l"].max())
    cu = _read_table(sf_dir, "customer",
                     ["c_custkey", "c_acctbal"]).to_pandas()
    bal = pd.Series(np.floor(cu["c_acctbal"].to_numpy() * 100
                             + 0.5).astype(np.int64),
                    index=cu["c_custkey"].to_numpy())
    per["t"] = per["l"].astype(np.int64) - per["f"].astype(np.int64)
    per["ch"] = ((mx - per["l"].astype(np.int64)) >= 90) \
        .astype(np.int64)
    per["s"] = per["o_custkey"].map(bal).astype(np.int64)
    t_ = per["t"].to_numpy(np.int64)
    ch = per["ch"].to_numpy(np.int64)
    s_ = per["s"].to_numpy(np.int64)
    conc = ties = comp = 0
    order = np.argsort(t_, kind="stable")
    t_s, ch_s, s_s = t_[order], ch[order], s_[order]
    n = len(t_s)
    for i in range(n):
        if ch_s[i] != 1:
            continue
        later = t_s > t_s[i]
        comp += int(later.sum())
        # concordant = the longer-lived customer carries the HIGHER
        # score (balance predicts retention), matching the twin's
        # a.s < b.s with a the earlier event
        conc += int((later & (s_s > s_s[i])).sum())
        ties += int((later & (s_s == s_s[i])).sum())
    c_idx = (conc + 0.5 * ties) / comp
    return pd.DataFrame([{
        "n_customers": n, "n_comparable": comp,
        "concordant": conc, "score_ties": ties,
        "c_index": np.round(c_idx, 6)}]).astype({
            "n_customers": np.int64, "n_comparable": np.int64,
            "concordant": np.int64, "score_ties": np.int64})


SQL_HARRELLS_C = """
WITH pc AS (SELECT o_custkey,
                   MIN(epoch_us(o_orderdate) // 86400000000) AS f,
                   MAX(epoch_us(o_orderdate) // 86400000000) AS l
            FROM orders GROUP BY 1),
hz AS (SELECT MAX(l) AS mx FROM pc),
pp AS (SELECT pc.o_custkey, pc.l - pc.f AS t,
              CASE WHEN hz.mx - pc.l >= 90 THEN 1 ELSE 0 END AS ch,
              CAST(FLOOR(c.c_acctbal * 100 + 0.5) AS BIGINT) AS s
       FROM pc JOIN customer c ON c.c_custkey = pc.o_custkey, hz),
pr AS (SELECT CAST(COUNT(*) AS BIGINT) AS comp,
              CAST(SUM(CASE WHEN a.s < b.s THEN 1 ELSE 0 END)
                   AS BIGINT) AS conc,
              CAST(SUM(CASE WHEN a.s = b.s THEN 1 ELSE 0 END)
                   AS BIGINT) AS ties
       FROM pp a JOIN pp b ON a.t < b.t
       WHERE a.ch = 1),
nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM pp)
SELECT nn.n AS n_customers, pr.comp AS n_comparable,
       pr.conc AS concordant, pr.ties AS score_ties,
       ROUND((CAST(pr.conc AS DOUBLE) + 0.5 * pr.ties)
             / CAST(pr.comp AS DOUBLE), 6) AS c_index
FROM pr, nn
"""


def q_rosner_esd_acctbal(sf_dir: str):
    """Rosner's generalized ESD outlier test (k = 3 rounds) on
    account balances — the NIST-recommended fix for Grubbs' masking
    problem (one outlier hides another; ESD removes and re-tests):
    each round takes the max |x − x̄|/s, REMOVES that point and
    recomputes the moments exactly by integer subtraction — three
    unrolled rounds in both engines, argmax ties to the smallest
    custkey.  R statistics mirrored; the λ critical values need a
    t-quantile so the op reports the R ladder (the decision table's
    input), not a flag."""
    import math
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({"v": cents,
                          "k": t["c_custkey"].to_numpy(
                              zero_copy_only=False)
                          .astype(np.int64), "c": 1})
        gg = g.groupby("v", sort=False).agg(
            c=("c", "sum"), mk=("k", "min")).reset_index()
        return pa.Table.from_pandas(gg, preserve_index=False)

    from ray.data.aggregate import Min
    g = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("v").aggregate(Sum("c", alias_name="c"),
                                Min("mk", alias_name="mk"))
    ).to_pandas().sort_values("v").reset_index(drop=True)
    v = g["v"].to_numpy(np.int64).astype(object)
    c = g["c"].to_numpy(np.int64).astype(object)
    n = int(c.sum())
    s1 = int((v * c).sum())
    s2 = int((v * v * c).sum())
    removed = []
    rows = []
    for round_ in range(1, 4):
        mean = float(s1) / n
        sd = math.sqrt((float(s2) - float(s1) * s1 / n) / (n - 1))
        # candidate = the extreme value (min or max) with larger |dev|
        lo_i = 0
        while int(c[lo_i]) == 0:
            lo_i += 1
        hi_i = len(v) - 1
        while int(c[hi_i]) == 0:
            hi_i -= 1
        dev_lo = abs(float(int(v[lo_i])) - mean)
        dev_hi = abs(float(int(v[hi_i])) - mean)
        if dev_hi >= dev_lo:
            pick = hi_i
        else:
            pick = lo_i
        r = abs(float(int(v[pick])) - mean) / sd
        rows.append({"round": round_,
                     "outlier_cents": int(v[pick]),
                     "r_stat": np.round(r, 6)})
        # remove ONE occurrence exactly
        s1 -= int(v[pick])
        s2 -= int(v[pick]) * int(v[pick])
        c[pick] = int(c[pick]) - 1
        n -= 1
    return pd.DataFrame(rows).astype({
        "round": np.int64, "outlier_cents": np.int64})


SQL_ROSNER_ESD = """
WITH g AS (SELECT CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT)
             AS v, CAST(COUNT(*) AS BIGINT) AS c
           FROM customer GROUP BY 1),
m0 AS (SELECT CAST(SUM(c) AS HUGEINT) AS n, SUM(v * c) AS s1,
              SUM(CAST(v AS HUGEINT) * v * c) AS s2,
              MIN(v) AS lo, MAX(v) AS hi
       FROM g),
p1 AS (SELECT n, s1, s2, lo, hi,
         CASE WHEN ABS(CAST(hi AS DOUBLE) - CAST(s1 AS DOUBLE)
                       / CAST(n AS BIGINT))
                   >= ABS(CAST(lo AS DOUBLE) - CAST(s1 AS DOUBLE)
                          / CAST(n AS BIGINT))
              THEN hi ELSE lo END AS pick
       FROM m0),
r1 AS (SELECT pick,
         ABS(CAST(pick AS DOUBLE) - CAST(s1 AS DOUBLE)
             / CAST(n AS BIGINT))
         / SQRT((CAST(s2 AS DOUBLE) - CAST(s1 AS DOUBLE)
                 * CAST(s1 AS BIGINT) / CAST(n AS BIGINT))
                / (CAST(n AS BIGINT) - 1)) AS r,
         n - 1 AS n, s1 - pick AS s1,
         s2 - CAST(pick AS HUGEINT) * pick AS s2
       FROM p1),
g1 AS (SELECT v, c - CASE WHEN v = (SELECT pick FROM r1)
                     THEN 1 ELSE 0 END AS c
       FROM g),
b1 AS (SELECT MIN(v) AS lo, MAX(v) AS hi FROM g1 WHERE c > 0),
p2 AS (SELECT r1.n, r1.s1, r1.s2, b1.lo, b1.hi,
         CASE WHEN ABS(CAST(b1.hi AS DOUBLE)
                       - CAST(r1.s1 AS DOUBLE)
                         / CAST(r1.n AS BIGINT))
                   >= ABS(CAST(b1.lo AS DOUBLE)
                          - CAST(r1.s1 AS DOUBLE)
                            / CAST(r1.n AS BIGINT))
              THEN b1.hi ELSE b1.lo END AS pick
       FROM r1, b1),
r2 AS (SELECT pick,
         ABS(CAST(pick AS DOUBLE) - CAST(s1 AS DOUBLE)
             / CAST(n AS BIGINT))
         / SQRT((CAST(s2 AS DOUBLE) - CAST(s1 AS DOUBLE)
                 * CAST(s1 AS BIGINT) / CAST(n AS BIGINT))
                / (CAST(n AS BIGINT) - 1)) AS r,
         n - 1 AS n, s1 - pick AS s1,
         s2 - CAST(pick AS HUGEINT) * pick AS s2
       FROM p2),
g2 AS (SELECT v, c - CASE WHEN v = (SELECT pick FROM r2)
                     THEN 1 ELSE 0 END AS c
       FROM g1),
b2 AS (SELECT MIN(v) AS lo, MAX(v) AS hi FROM g2 WHERE c > 0),
p3 AS (SELECT r2.n, r2.s1, r2.s2, b2.lo, b2.hi,
         CASE WHEN ABS(CAST(b2.hi AS DOUBLE)
                       - CAST(r2.s1 AS DOUBLE)
                         / CAST(r2.n AS BIGINT))
                   >= ABS(CAST(b2.lo AS DOUBLE)
                          - CAST(r2.s1 AS DOUBLE)
                            / CAST(r2.n AS BIGINT))
              THEN b2.hi ELSE b2.lo END AS pick
       FROM r2, b2),
r3 AS (SELECT pick,
         ABS(CAST(pick AS DOUBLE) - CAST(s1 AS DOUBLE)
             / CAST(n AS BIGINT))
         / SQRT((CAST(s2 AS DOUBLE) - CAST(s1 AS DOUBLE)
                 * CAST(s1 AS BIGINT) / CAST(n AS BIGINT))
                / (CAST(n AS BIGINT) - 1)) AS r
       FROM p3)
SELECT 1 AS round, (SELECT CAST(pick AS BIGINT) FROM r1)
         AS outlier_cents,
       ROUND((SELECT r FROM r1), 6) AS r_stat
UNION ALL
SELECT 2, (SELECT CAST(pick AS BIGINT) FROM r2),
       ROUND((SELECT r FROM r2), 6)
UNION ALL
SELECT 3, (SELECT CAST(pick AS BIGINT) FROM r3),
       ROUND((SELECT r FROM r3), 6)
"""


def q_lilliefors_acctbal(sf_dir: str):
    """Lilliefors normality test on account balances — the KS test
    corrected for ESTIMATED mean and sd (plain KS against a fitted
    normal is wildly anti-conservative; Lilliefors is the honest
    version): D = sup over distinct cents of the gap between the
    empirical CDF (both step sides) and Φ((x − x̄)/s), Φ through the
    registry's A&S erfc chain, per-value gaps from exact integer
    cumulative counts.  The Jarque–Bera op tests moments; this
    tests the whole CDF."""
    import math
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        u, c = np.unique(cents, return_counts=True)
        return pa.table({"v": pa.array(u),
                         "c": pa.array(c.astype(np.int64))})

    g = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("v").aggregate(Sum("c", alias_name="c"))
    ).to_pandas().sort_values("v").reset_index(drop=True)
    v = g["v"].to_numpy(np.int64)
    c = g["c"].to_numpy(np.int64)
    n = int(c.sum())
    s1 = int((v.astype(object) * c.astype(object)).sum())
    s2 = int((v.astype(object) ** 2 * c.astype(object)).sum())
    mean = float(s1) / n
    sd = math.sqrt((float(s2) - float(s1) * s1 / n) / (n - 1))
    cum = np.cumsum(c)
    d_max = 0.0
    for i in range(len(v)):
        z = (float(int(v[i])) - mean) / sd
        xv = abs(z) / math.sqrt(2.0)
        tv = 1.0 / (1.0 + 0.3275911 * xv)
        half = ((((1.061405429 * tv - 1.453152027) * tv
                  + 1.421413741) * tv - 0.284496736) * tv
                + 0.254829592) * tv * math.exp(-(xv * xv)) / 2.0
        phi = half if z < 0 else 1.0 - half
        hi = abs(float(int(cum[i])) / n - phi)
        lo = abs(phi - float(int(cum[i]) - int(c[i])) / n)
        d_max = max(d_max, hi, lo)
    return pd.DataFrame([{
        "n_customers": n, "mean_c": np.round(mean, 6),
        "sd_c": np.round(sd, 6),
        "lilliefors_d": np.round(d_max, 6),
        "sqrt_n_d": np.round(d_max * math.sqrt(float(n)), 6)}]) \
        .astype({"n_customers": np.int64})


SQL_LILLIEFORS = """
WITH g AS (SELECT CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT)
             AS v, CAST(COUNT(*) AS BIGINT) AS c
           FROM customer GROUP BY 1),
m AS (SELECT CAST(SUM(c) AS HUGEINT) AS n, SUM(v * c) AS s1,
             SUM(CAST(v AS HUGEINT) * v * c) AS s2
      FROM g),
mm AS (SELECT CAST(n AS BIGINT) AS n,
              CAST(s1 AS DOUBLE) / CAST(n AS BIGINT) AS mean,
              SQRT((CAST(s2 AS DOUBLE) - CAST(s1 AS DOUBLE)
                    * CAST(s1 AS BIGINT) / CAST(n AS BIGINT))
                   / (CAST(n AS BIGINT) - 1)) AS sd
       FROM m),
w AS (SELECT v, c, SUM(c) OVER (ORDER BY v) AS cum FROM g),
ph AS (SELECT w.v, w.c, w.cum, mm.n,
              (CAST(w.v AS DOUBLE) - mm.mean) / mm.sd AS z
       FROM w, mm),
p2 AS (SELECT v, c, cum, n, z,
              ((((1.061405429 * tv - 1.453152027) * tv
                 + 1.421413741) * tv - 0.284496736) * tv
               + 0.254829592) * tv * EXP(-(xv * xv)) / 2.0 AS half
       FROM (SELECT *, ABS(z) / SQRT(2.0) AS xv,
                    1.0 / (1.0 + 0.3275911 * (ABS(z) / SQRT(2.0)))
                      AS tv
             FROM ph)),
dd AS (SELECT MAX(GREATEST(
         ABS(CAST(cum AS DOUBLE) / n
             - CASE WHEN z < 0 THEN half ELSE 1.0 - half END),
         ABS(CASE WHEN z < 0 THEN half ELSE 1.0 - half END
             - CAST(cum - c AS DOUBLE) / n))) AS d
       FROM p2)
SELECT mm.n AS n_customers, ROUND(mm.mean, 6) AS mean_c,
       ROUND(mm.sd, 6) AS sd_c, ROUND(dd.d, 6) AS lilliefors_d,
       ROUND(dd.d * SQRT(CAST(mm.n AS DOUBLE)), 6) AS sqrt_n_d
FROM mm, dd
"""


def q_gini_mean_difference_acctbal(sf_dir: str):
    """Gini's mean difference of account balances — the dispersion
    measure UNDER the Gini coefficient (Yitzhaki's long campaign:
    GMD responds to every pairwise gap where the sd squares the big
    ones): Δ = E|X − X'| via the sorted-cumsum identity
    Σ(2i − n − 1)·x₍ᵢ₎ — an EXACT integer from the (cents, count)
    panel with midpoint handling for tied blocks, one division; the
    sd rides along so the Δ/σ ratio (√(4/π) ≈ 1.128 under
    normality) is a shape diagnostic for free."""
    import math
    from ray.data.aggregate import Sum
    cu = _read(sf_dir, "customer", ["c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        u, c = np.unique(cents, return_counts=True)
        return pa.table({"v": pa.array(u),
                         "c": pa.array(c.astype(np.int64))})

    g = relational.ds_to_table(
        cu.map_batches(partial, batch_format="pyarrow")
        .groupby("v").aggregate(Sum("c", alias_name="c"))
    ).to_pandas().sort_values("v").reset_index(drop=True)
    v = g["v"].to_numpy(np.int64).astype(object)
    c = g["c"].to_numpy(np.int64).astype(object)
    n = int(c.sum())
    cum = np.cumsum(c)
    # Σ over occurrences i of (2i − n − 1)·x: a tied block at
    # positions (a, a+c] contributes x·Σ(2i − n − 1) = x·c·(2a + c
    # − n) with a the exclusive prefix — exact integers
    prefix = cum - c
    num = int((v * c * (2 * prefix + c - n)).sum())
    # Δ = Σ_{i<j}(x_(j) − x_(i)) / C(n,2); the ordered-position sum
    # IS the pairwise-gap sum — no extra factor
    gmd = float(num) / (float(n) * (n - 1) / 2.0)
    s1 = int((v * c).sum())
    s2 = int((v * v * c).sum())
    sd = math.sqrt(float(n * s2 - s1 * s1)
                   / (float(n) * (n - 1)))
    # the raw pairwise-gap sum grows ~O(n² · value range) and leaves
    # int64 around sf100 — it stays an exact Python int internally,
    # only the statistic ships (the q_hoeffdings_d_cells rule)
    return pd.DataFrame([{
        "n_customers": n,
        "gmd_cents": np.round(gmd, 6),
        "sd_cents": np.round(sd, 6),
        "gmd_over_sd": np.round(gmd / sd, 6)}]).astype({
            "n_customers": np.int64})


SQL_GINI_MEAN_DIFF = """
WITH g AS (SELECT CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT)
             AS v, CAST(COUNT(*) AS BIGINT) AS c
           FROM customer GROUP BY 1),
w AS (SELECT v, c, SUM(c) OVER (ORDER BY v) - c AS a,
             SUM(c) OVER () AS n
      FROM g),
t AS (SELECT CAST(MAX(n) AS BIGINT) AS n,
             SUM(CAST(v AS HUGEINT) * c * (2 * a + c - n)) AS num,
             CAST(SUM(CAST(v AS HUGEINT) * c) AS HUGEINT) AS s1,
             SUM(CAST(v AS HUGEINT) * v * c) AS s2
      FROM w),
f AS (SELECT n,
             CAST(num AS DOUBLE)
               / (CAST(n AS DOUBLE) * (n - 1) / 2.0) AS gmd,
             SQRT(CAST(n * s2 - s1 * s1 AS DOUBLE)
                  / (CAST(n AS DOUBLE) * (n - 1))) AS sd
      FROM t)
SELECT n AS n_customers, ROUND(gmd, 6) AS gmd_cents,
       ROUND(sd, 6) AS sd_cents, ROUND(gmd / sd, 6) AS gmd_over_sd
FROM f
"""


def q_bartlett_nations(sf_dir: str):
    """Bartlett's variance-homogeneity test across nations on account
    balance — the NORMAL-THEORY k-sample scale test the registry's
    Brown–Forsythe robustifies (the pair is the textbook
    sensitivity-vs-power tradeoff: Bartlett is sharper under
    normality, BF survives the skew): per-nation n / Σv / Σv² exact
    integer moments, group SS on the BF milli-quantized S²/n
    discipline so WSS is an exact integer fold, per-group
    (nᵢ−1)·ln sᵢ² terms NANO-QUANTIZED for an order-free sum, and
    the χ² = [(N−k)ln Sp² − Σ(nᵢ−1)ln sᵢ²]/C chain with Bartlett's
    correction C mirrored term-for-term.  A zero-variance group
    reports NULL by stated convention."""
    import math
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"nk": t["c_nationkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "v": cents, "c": 1}) \
            .groupby(["nk", "v"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    dist = relational.ds_to_table(
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby(["nk", "v"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    k = n_tot = ssw_m = term9 = inv9 = 0
    min_ssm = None
    for nk, g in dist.groupby("nk"):
        v = g["v"].to_numpy(np.int64).astype(object)
        c = g["c"].to_numpy(np.int64).astype(object)
        n = int(c.sum())
        s = int((v * c).sum())
        q = int((v * v * c).sum())
        ssm = 1000 * q - int(np.floor(
            float(s) * float(s) / float(n) * 1000.0 + 0.5))
        k += 1
        n_tot += n
        ssw_m += ssm
        min_ssm = ssm if min_ssm is None else min(min_ssm, ssm)
        if ssm > 0:
            term9 += int(np.floor(
                (float(n) - 1) * math.log(
                    float(ssm) / 1000.0 / (float(n) - 1))
                * 1e9 + 0.5))
        inv9 += int(np.floor(1e9 / (float(n) - 1) + 0.5))
    corr_c = 1.0 + (inv9 / 1e9 - 1.0 / (float(n_tot) - k)) \
        / (3.0 * (k - 1))
    if min_ssm <= 0:
        chi2 = np.nan
    else:
        chi2 = ((float(n_tot) - k) * math.log(
            float(ssw_m) / 1000.0 / (float(n_tot) - k))
            - term9 / 1e9) / corr_c
    return pd.DataFrame([{
        "k_groups": k, "n_total": n_tot,
        "bartlett_chi2": np.round(chi2, 6),
        "correction_c": np.round(corr_c, 6)}]).astype({
            "k_groups": np.int64, "n_total": np.int64})


SQL_BARTLETT = """
WITH d AS (SELECT c_nationkey AS nk,
                  CAST(ROUND(c_acctbal * 100) AS BIGINT) AS v,
                  CAST(COUNT(*) AS BIGINT) AS c
           FROM customer GROUP BY 1, 2),
g AS (SELECT nk, SUM(CAST(c AS HUGEINT)) AS n,
             SUM(CAST(v AS HUGEINT) * c) AS s,
             SUM(CAST(v AS HUGEINT) * v * c) AS q
      FROM d GROUP BY 1),
m AS (SELECT nk, n,
             1000 * q - CAST(FLOOR(CAST(s AS DOUBLE)
                 * CAST(s AS DOUBLE) / CAST(n AS DOUBLE)
                 * 1000.0 + 0.5) AS HUGEINT) AS ssm
      FROM g),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS k,
             CAST(SUM(n) AS BIGINT) AS nt,
             SUM(ssm) AS ssw_m,
             SUM(CASE WHEN ssm > 0 THEN
                 CAST(FLOOR((CAST(n AS DOUBLE) - 1)
                      * LN(CAST(ssm AS DOUBLE) / 1000.0
                           / (CAST(n AS DOUBLE) - 1))
                      * 1e9 + 0.5) AS HUGEINT)
                 ELSE 0 END) AS term9,
             SUM(CAST(FLOOR(1e9 / (CAST(n AS DOUBLE) - 1) + 0.5)
                      AS HUGEINT)) AS inv9,
             MIN(ssm) AS min_ssm
      FROM m)
SELECT k AS k_groups, nt AS n_total,
       CASE WHEN min_ssm <= 0 THEN NULL ELSE
         ROUND(((CAST(nt AS DOUBLE) - k)
                * LN(CAST(ssw_m AS DOUBLE) / 1000.0
                     / (CAST(nt AS DOUBLE) - k))
                - CAST(term9 AS DOUBLE) / 1e9)
               / (1.0 + (CAST(inv9 AS DOUBLE) / 1e9
                         - 1.0 / (CAST(nt AS DOUBLE) - k))
                  / (3.0 * (k - 1))), 6) END AS bartlett_chi2,
       ROUND(1.0 + (CAST(inv9 AS DOUBLE) / 1e9
                    - 1.0 / (CAST(nt AS DOUBLE) - k))
             / (3.0 * (k - 1)), 6) AS correction_c
FROM t
"""


def q_fligner_killeen_nations(sf_dir: str):
    """Fligner–Killeen variance-homogeneity test across nations — the
    RANK-based member completing the scale-test triple (Bartlett =
    normal theory, Brown–Forsythe = robust center, FK = the
    most-robust normal-scores rank test recommended when normality
    is truly gone): absolute deviations from the group median as
    DOUBLED integers (monotone in |x−med|, so pooled midranks are
    unchanged), doubled midranks exact from the pooled (z2, count)
    panel, normal scores a = Φ⁻¹(½ + R/(2(N+1))) through the A&S
    26.2.23 rational inverse (pure arithmetic + LN/SQRT — mirrored
    literal-for-literal in the twin), per-value a and a² NANO-
    QUANTIZED so every group sum is an exact integer fold, and
    X² = Σ nₖ(Āₖ − ā)²/V² with per-group terms nano-quantized for an
    order-free final sum.  All-tied data (V² = 0) reports NULL."""
    import math
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"nk": t["c_nationkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "v": cents, "c": 1}) \
            .groupby(["nk", "v"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    dist = relational.ds_to_table(
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby(["nk", "v"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    zrows = []
    for nk, g in dist.groupby("nk"):
        g = g.sort_values("v")
        v = g["v"].to_numpy(np.int64)
        c = g["c"].to_numpy(np.int64)
        cum = np.cumsum(c)
        n = int(cum[-1])
        lo = int(v[np.searchsorted(cum, (n + 1) // 2, "left")])
        hi = int(v[np.searchsorted(cum, n // 2 + 1, "left")])
        m2 = lo + hi
        for vv, cc in zip(v.tolist(), c.tolist()):
            zrows.append((int(nk), abs(2 * vv - m2), int(cc)))
    z = pd.DataFrame(zrows, columns=["nk", "z2", "c"])
    pooled = z.groupby("z2")["c"].sum().sort_index()
    N = int(pooled.sum())
    cumb = pooled.cumsum() - pooled
    r2 = (2 * cumb + pooled + 1).astype(np.int64)   # doubled midrank
    a9 = {}
    aa9 = {}
    for z2v, rr in r2.items():
        p = 0.5 + float(rr) / (4.0 * (N + 1))
        t = math.sqrt(-2.0 * math.log(1.0 - p))
        a = t - (2.515517 + 0.802853 * t + 0.010328 * t * t) \
            / (1.0 + 1.432788 * t + 0.189269 * t * t
               + 0.001308 * t * t * t)
        a9[z2v] = int(np.floor(a * 1e9 + 0.5))
        aa9[z2v] = int(np.floor(a * a * 1e9 + 0.5))
    saa9 = int(sum(int(cv) * aa9[z2v]
                   for z2v, cv in pooled.items()))
    abar = float(sum(int(r.c) * a9[r.z2]
                     for r in z.itertuples())) / 1e9 / N
    v2 = (saa9 / 1e9 - N * abar * abar) / (float(N) - 1)
    term9 = 0
    k = 0
    for nk, g in z.groupby("nk"):
        nkn = int(g["c"].sum())
        s9 = int(sum(int(r.c) * a9[r.z2] for r in g.itertuples()))
        dev = s9 / 1e9 / nkn - abar
        term9 += int(np.floor(nkn * dev * dev * 1e9 + 0.5))
        k += 1
    x2 = np.nan if v2 <= 0 else (term9 / 1e9) / v2
    return pd.DataFrame([{
        "k_groups": k, "n_total": N,
        "fk_x2": np.round(x2, 6)}]).astype({
            "k_groups": np.int64, "n_total": np.int64})


SQL_FLIGNER_KILLEEN = """
WITH d AS (SELECT c_nationkey AS nk,
                  CAST(ROUND(c_acctbal * 100) AS BIGINT) AS v,
                  CAST(COUNT(*) AS BIGINT) AS c
           FROM customer GROUP BY 1, 2),
o AS (SELECT nk, v, c, SUM(c) OVER (PARTITION BY nk ORDER BY v)
        AS cum, SUM(c) OVER (PARTITION BY nk) AS n
      FROM d),
med AS (SELECT nk,
          MIN(CASE WHEN cum >= (n + 1) // 2 THEN v END)
          + MIN(CASE WHEN cum >= n // 2 + 1 THEN v END) AS m2
        FROM o GROUP BY nk),
z AS (SELECT d.nk, ABS(2 * CAST(d.v AS HUGEINT) - med.m2) AS z2,
             d.c
      FROM d JOIN med USING (nk)),
nn AS (SELECT CAST(SUM(c) AS BIGINT) AS n FROM z),
pv AS (SELECT z2, CAST(SUM(c) AS BIGINT) AS cv FROM z GROUP BY 1),
w AS (SELECT z2, cv,
             2 * (SUM(cv) OVER (ORDER BY z2) - cv) + cv + 1 AS r2
      FROM pv),
sc AS (SELECT z2, cv,
              SQRT(-2.0 * LN(1.0 - (0.5 + CAST(r2 AS DOUBLE)
                   / (4.0 * (nn.n + 1))))) AS t
       FROM w, nn),
av AS (SELECT z2, cv,
              t - (2.515517 + 0.802853 * t + 0.010328 * t * t)
                / (1.0 + 1.432788 * t + 0.189269 * t * t
                   + 0.001308 * t * t * t) AS a
       FROM sc),
aq AS (SELECT z2, cv,
              CAST(FLOOR(a * 1e9 + 0.5) AS HUGEINT) AS a9,
              CAST(FLOOR(a * a * 1e9 + 0.5) AS HUGEINT) AS aa9
       FROM av),
tot AS (SELECT SUM(cv * aa9) AS saa9, SUM(cv * a9) AS sa9
        FROM aq),
ab AS (SELECT CAST(sa9 AS DOUBLE) / 1e9 / nn.n AS abar,
              (CAST(saa9 AS DOUBLE) / 1e9
               - nn.n * (CAST(sa9 AS DOUBLE) / 1e9 / nn.n)
                      * (CAST(sa9 AS DOUBLE) / 1e9 / nn.n))
              / (CAST(nn.n AS DOUBLE) - 1) AS v2
        FROM tot, nn),
gs AS (SELECT z.nk, CAST(SUM(z.c) AS BIGINT) AS nkn,
              SUM(CAST(z.c AS HUGEINT) * aq.a9) AS s9
       FROM z JOIN aq USING (z2) GROUP BY 1),
tm AS (SELECT CAST(COUNT(*) AS BIGINT) AS k,
              SUM(CAST(FLOOR(nkn
                  * (CAST(s9 AS DOUBLE) / 1e9 / nkn - ab.abar)
                  * (CAST(s9 AS DOUBLE) / 1e9 / nkn - ab.abar)
                  * 1e9 + 0.5) AS HUGEINT)) AS term9
       FROM gs, ab GROUP BY ab.abar)
SELECT tm.k AS k_groups, nn.n AS n_total,
       CASE WHEN ab.v2 <= 0 THEN NULL
            ELSE ROUND((CAST(term9 AS DOUBLE) / 1e9) / ab.v2, 6)
       END AS fk_x2
FROM tm, ab, nn
"""


def q_tukey_hsd_nations(sf_dir: str):
    """Tukey HSD studentized-range statistics for the nation
    account-balance means — the post-hoc that belongs to the
    registry's one-way ANOVA exactly as Dunn belongs to its
    Kruskal–Wallis: pooled within-group MSW from the Bartlett milli-
    quantized SS discipline, pairwise
    q = |ȳᵢ − ȳⱼ| / √(MSW/2 · (1/nᵢ + 1/nⱼ)) (the Tukey–Kramer
    unequal-n form), top-10 pairs by (q DESC, nation_a, nation_b) —
    a strict total order since both engines run the identical float
    chain on identical exact integer moments."""
    import math
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        v2 = cents * cents
        g = pd.DataFrame({"nk": t["c_nationkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "ps": cents, "ph": v2 >> 32, "pl": v2 & 0xFFFFFFFF,
            "pn": 1}).groupby("nk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby("nk").aggregate(
            Sum("ps", alias_name="s"), Sum("ph", alias_name="h"),
            Sum("pl", alias_name="l"), Sum("pn", alias_name="n"))
    ).to_pandas().sort_values("nk")
    rows = []
    ssw_m = 0
    n_tot = 0
    k = 0
    for r in agg.itertuples():
        n = int(r.n)
        s = int(r.s)
        q = (int(r.h) << 32) + int(r.l)
        ssm = 1000 * q - int(np.floor(
            float(s) * float(s) / float(n) * 1000.0 + 0.5))
        rows.append((int(r.nk), n, s))
        ssw_m += ssm
        n_tot += n
        k += 1
    msw = float(ssw_m) / 1000.0 / (float(n_tot) - k)
    out = []
    for i in range(k):
        for j in range(i + 1, k):
            na, nn1, s1 = rows[i]
            nb, nn2, s2 = rows[j]
            diff = abs(float(s1) / nn1 - float(s2) / nn2)
            se = math.sqrt(msw / 2.0 * (1.0 / nn1 + 1.0 / nn2))
            out.append({"nation_a": na, "nation_b": nb,
                        "n_a": nn1, "n_b": nn2,
                        "q_stat": diff / se})
    res = pd.DataFrame(out).sort_values(
        ["q_stat", "nation_a", "nation_b"],
        ascending=[False, True, True]).head(10).reset_index(drop=True)
    res["q_stat"] = np.round(res["q_stat"], 6)
    return res.astype({"nation_a": np.int64, "nation_b": np.int64,
                       "n_a": np.int64, "n_b": np.int64})


SQL_TUKEY_HSD = """
WITH d AS (SELECT c_nationkey AS nk,
                  CAST(ROUND(c_acctbal * 100) AS BIGINT) AS v
           FROM customer),
g AS (SELECT nk, CAST(COUNT(*) AS BIGINT) AS n,
             SUM(CAST(v AS HUGEINT)) AS s,
             SUM(CAST(v AS HUGEINT) * v) AS q
      FROM d GROUP BY 1),
m AS (SELECT nk, n, s,
             1000 * q - CAST(FLOOR(CAST(s AS DOUBLE)
                 * CAST(s AS DOUBLE) / CAST(n AS DOUBLE)
                 * 1000.0 + 0.5) AS HUGEINT) AS ssm
      FROM g),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS k,
             CAST(SUM(n) AS BIGINT) AS nt,
             CAST(SUM(ssm) AS DOUBLE) / 1000.0 AS ssw
      FROM m),
pairs AS (SELECT a.nk AS nation_a, b.nk AS nation_b,
                 a.n AS n_a, b.n AS n_b,
                 ABS(CAST(a.s AS DOUBLE) / a.n
                     - CAST(b.s AS DOUBLE) / b.n)
                 / SQRT((t.ssw / (CAST(t.nt AS DOUBLE) - t.k)) / 2.0
                        * (1.0 / a.n + 1.0 / b.n)) AS q_stat
          FROM m a JOIN m b ON a.nk < b.nk, t)
SELECT nation_a, nation_b, n_a, n_b, ROUND(q_stat, 6) AS q_stat
FROM pairs ORDER BY q_stat DESC, nation_a, nation_b LIMIT 10
"""


def q_g_test_nation_segment(sf_dir: str):
    """G-test of independence on the nation × market-segment
    contingency table — the likelihood-ratio twin of Pearson's χ²
    (G = 2ΣO·ln(O/E) is additive under table collapse, which χ²
    is not; both share the (r−1)(c−1) null): exact integer cell /
    margin counts from one narrow keyed reduce, each cell's
    2·O·ln(O/E) NANO-QUANTIZED for an order-free fold (E =
    row·col/N spends the only divisions), empty cells contribute 0
    by the 0·ln 0 convention."""
    import math
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_mktsegment"])

    def partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({
            "nk": t["c_nationkey"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "seg": t["c_mktsegment"].to_numpy(zero_copy_only=False),
            "c": 1}).groupby(["nk", "seg"], sort=False) \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cells = relational.ds_to_table(
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby(["nk", "seg"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    n = int(cells["c"].sum())
    row = cells.groupby("nk")["c"].sum()
    col = cells.groupby("seg")["c"].sum()
    g9 = 0
    for r in cells.itertuples():
        o = int(r.c)
        e = float(int(row[r.nk])) * int(col[r.seg]) / float(n)
        g9 += int(np.floor(2.0 * o * math.log(o / e) * 1e9 + 0.5))
    dof = (len(row) - 1) * (len(col) - 1)
    return pd.DataFrame([{
        "n_rows": n, "n_nations": len(row),
        "n_segments": len(col), "dof": dof,
        "g_stat": np.round(g9 / 1e9, 6)}]).astype({
            "n_rows": np.int64, "n_nations": np.int64,
            "n_segments": np.int64, "dof": np.int64})


SQL_G_TEST = """
WITH cells AS (SELECT c_nationkey AS nk, c_mktsegment AS seg,
                      CAST(COUNT(*) AS BIGINT) AS c
               FROM customer GROUP BY 1, 2),
n AS (SELECT CAST(SUM(c) AS BIGINT) AS n FROM cells),
rw AS (SELECT nk, CAST(SUM(c) AS BIGINT) AS r FROM cells
       GROUP BY 1),
cl AS (SELECT seg, CAST(SUM(c) AS BIGINT) AS cc FROM cells
       GROUP BY 1),
t AS (SELECT SUM(CAST(FLOOR(2.0 * cells.c
              * LN(cells.c / (CAST(rw.r AS DOUBLE) * cl.cc
                              / CAST(n.n AS DOUBLE)))
              * 1e9 + 0.5) AS HUGEINT)) AS g9
      FROM cells JOIN rw USING (nk) JOIN cl USING (seg), n)
SELECT n.n AS n_rows,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM rw) AS n_nations,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM cl) AS n_segments,
       ((SELECT COUNT(*) FROM rw) - 1)
         * ((SELECT COUNT(*) FROM cl) - 1) AS dof,
       ROUND(CAST(g9 AS DOUBLE) / 1e9, 6) AS g_stat
FROM t, n
"""


def q_huber_location_acctbal(sf_dir: str):
    """Huber M-estimator of the account-balance location — the
    robust-statistics workhorse between the mean (efficient, fragile)
    and the median (robust, noisy): ψ-weighted IRLS with tuning
    c = 1.345·MAD, THREE unrolled rounds from the exact type-1 median
    (the Rosner-op convention for fixed-round iterative statistics in
    both engines), per-distinct-value weights NANO-QUANTIZED so each
    round's Σwv / Σw are exact integer folds and the only floats are
    the round-boundary means.  MAD = 0 (majority-tied data) reports
    the median itself by stated convention."""
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_acctbal"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.floor(t["c_acctbal"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        u, c = np.unique(cents, return_counts=True)
        return pa.table({"v": pa.array(u),
                         "c": pa.array(c.astype(np.int64))})

    g = relational.ds_to_table(
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby("v").aggregate(Sum("c", alias_name="c"))
    ).to_pandas().sort_values("v").reset_index(drop=True)
    v = g["v"].to_numpy(np.int64)
    c = g["c"].to_numpy(np.int64)
    cum = np.cumsum(c)
    n = int(cum[-1])
    med = int(v[np.searchsorted(cum, (n + 1) // 2, "left")])
    dev = np.abs(v - med)
    dv = pd.DataFrame({"d": dev, "c": c}).groupby("d")["c"].sum() \
        .sort_index()
    dcum = dv.cumsum()
    mad = int(dv.index[np.searchsorted(dcum.to_numpy(),
                                       (n + 1) // 2, "left")])
    if mad == 0:
        mu = float(med)
    else:
        ch = 1.345 * float(mad)
        mu = float(med)
        for _ in range(3):
            ad = np.abs(v.astype(np.float64) - mu)
            w = np.where(ad <= ch, 1.0, ch / np.where(ad > 0, ad, 1.0))
            w9 = np.floor(w * 1e9 + 0.5).astype(np.int64) \
                .astype(object)
            num = int((c.astype(object) * w9 * v.astype(object))
                      .sum())
            den = int((c.astype(object) * w9).sum())
            mu = float(num) / float(den)
    return pd.DataFrame([{
        "n_customers": n, "median_cents": med, "mad_cents": mad,
        "huber_mu_cents": np.round(mu, 6)}]).astype({
            "n_customers": np.int64, "median_cents": np.int64,
            "mad_cents": np.int64})


SQL_HUBER = """
WITH g AS (SELECT CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT)
             AS v, CAST(COUNT(*) AS BIGINT) AS c
           FROM customer GROUP BY 1),
o AS (SELECT v, c, SUM(c) OVER (ORDER BY v) AS cum,
             SUM(c) OVER () AS n FROM g),
md AS (SELECT MIN(v) AS med, MAX(n) AS n FROM o
       WHERE cum >= (n + 1) // 2),
dv AS (SELECT ABS(g.v - md.med) AS d, SUM(g.c) AS c
       FROM g, md GROUP BY 1),
do_ AS (SELECT d, SUM(c) OVER (ORDER BY d) AS cum FROM dv),
mad AS (SELECT MIN(d) AS mad FROM do_, md
        WHERE cum >= (md.n + 1) // 2),
p AS (SELECT md.med, md.n, mad.mad, 1.345 * mad.mad AS ch
      FROM md, mad),
r1 AS (SELECT SUM(CAST(g.c AS HUGEINT)
           * CAST(FLOOR(CASE WHEN ABS(CAST(g.v AS DOUBLE) - p.med)
                             <= p.ch THEN 1.0
                        WHEN ABS(CAST(g.v AS DOUBLE) - p.med) > 0
                        THEN p.ch / ABS(CAST(g.v AS DOUBLE) - p.med)
                        ELSE 1.0 END * 1e9 + 0.5) AS HUGEINT)
           * g.v) AS num,
             SUM(CAST(g.c AS HUGEINT)
           * CAST(FLOOR(CASE WHEN ABS(CAST(g.v AS DOUBLE) - p.med)
                             <= p.ch THEN 1.0
                        WHEN ABS(CAST(g.v AS DOUBLE) - p.med) > 0
                        THEN p.ch / ABS(CAST(g.v AS DOUBLE) - p.med)
                        ELSE 1.0 END * 1e9 + 0.5) AS HUGEINT))
             AS den
       FROM g, p),
m1 AS (SELECT CAST(num AS DOUBLE) / CAST(den AS DOUBLE) AS mu
       FROM r1),
r2 AS (SELECT SUM(CAST(g.c AS HUGEINT)
           * CAST(FLOOR(CASE WHEN ABS(CAST(g.v AS DOUBLE) - m1.mu)
                             <= p.ch THEN 1.0
                        WHEN ABS(CAST(g.v AS DOUBLE) - m1.mu) > 0
                        THEN p.ch / ABS(CAST(g.v AS DOUBLE) - m1.mu)
                        ELSE 1.0 END * 1e9 + 0.5) AS HUGEINT)
           * g.v) AS num,
             SUM(CAST(g.c AS HUGEINT)
           * CAST(FLOOR(CASE WHEN ABS(CAST(g.v AS DOUBLE) - m1.mu)
                             <= p.ch THEN 1.0
                        WHEN ABS(CAST(g.v AS DOUBLE) - m1.mu) > 0
                        THEN p.ch / ABS(CAST(g.v AS DOUBLE) - m1.mu)
                        ELSE 1.0 END * 1e9 + 0.5) AS HUGEINT))
             AS den
       FROM g, p, m1),
m2 AS (SELECT CAST(num AS DOUBLE) / CAST(den AS DOUBLE) AS mu
       FROM r2),
r3 AS (SELECT SUM(CAST(g.c AS HUGEINT)
           * CAST(FLOOR(CASE WHEN ABS(CAST(g.v AS DOUBLE) - m2.mu)
                             <= p.ch THEN 1.0
                        WHEN ABS(CAST(g.v AS DOUBLE) - m2.mu) > 0
                        THEN p.ch / ABS(CAST(g.v AS DOUBLE) - m2.mu)
                        ELSE 1.0 END * 1e9 + 0.5) AS HUGEINT)
           * g.v) AS num,
             SUM(CAST(g.c AS HUGEINT)
           * CAST(FLOOR(CASE WHEN ABS(CAST(g.v AS DOUBLE) - m2.mu)
                             <= p.ch THEN 1.0
                        WHEN ABS(CAST(g.v AS DOUBLE) - m2.mu) > 0
                        THEN p.ch / ABS(CAST(g.v AS DOUBLE) - m2.mu)
                        ELSE 1.0 END * 1e9 + 0.5) AS HUGEINT))
             AS den
       FROM g, p, m2),
m3 AS (SELECT CAST(num AS DOUBLE) / CAST(den AS DOUBLE) AS mu
       FROM r3)
SELECT p.n AS n_customers, p.med AS median_cents,
       p.mad AS mad_cents,
       ROUND(CASE WHEN p.mad = 0 THEN CAST(p.med AS DOUBLE)
                  ELSE m3.mu END, 6) AS huber_mu_cents
FROM p, m3
"""


def q_weiszfeld_spatial_median(sf_dir: str):
    """Geometric (spatial) median of the customer point cloud by
    Weiszfeld iteration — facility location's 1-median and the 2-D
    analogue of the registry's Huber location (same IRLS skeleton,
    weights 1/distance instead of the ψ-cap): start at the centroid
    (exact integer coordinate sums), THREE unrolled rounds with the
    per-point weights NANO-QUANTIZED so each round's Σwx / Σwy / Σw
    are exact integer folds and only the round-boundary divisions
    are float; coincident points (distance 0 to the current
    estimate) take weight 0 with the estimate-stationary convention
    (stated).  Reports the centroid and the round-3 median with the
    total-distance objective at both, which the median must not
    exceed."""
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_custkey"])

    def pts(t: pa.Table) -> pa.Table:
        return _points_batch(t, "c_custkey")

    base = cust.map_batches(pts, batch_format="pyarrow") \
        .materialize()

    def cent_part(t: pa.Table) -> pa.Table:
        x = np.floor(t["px"].to_numpy(zero_copy_only=False)
                     * 1e3 + 0.5).astype(np.int64)
        y = np.floor(t["py"].to_numpy(zero_copy_only=False)
                     * 1e3 + 0.5).astype(np.int64)
        return pa.table({"_g": pa.array([0]),
                         "sx": pa.array([int(x.astype(object).sum())]),
                         "sy": pa.array([int(y.astype(object).sum())]),
                         "pn": pa.array([len(x)])})

    a = relational.ds_to_table(
        base.map_batches(cent_part, batch_format="pyarrow")
        .groupby("_g").aggregate(
            Sum("sx", alias_name="sx"), Sum("sy", alias_name="sy"),
            Sum("pn", alias_name="n"))).to_pandas().iloc[0]
    n = int(a["n"])
    cx = float(int(a["sx"])) / 1e3 / n
    cy = float(int(a["sy"])) / 1e3 / n

    def round_fold(mx: float, my: float):
        def part(t: pa.Table, _mx=mx, _my=my) -> pa.Table:
            x = t["px"].to_numpy(zero_copy_only=False)
            y = t["py"].to_numpy(zero_copy_only=False)
            d = np.sqrt((x - _mx) * (x - _mx)
                        + (y - _my) * (y - _my))
            w9 = np.where(d > 0,
                          np.floor(1.0 / np.where(d > 0, d, 1.0)
                                   * 1e9 + 0.5), 0.0) \
                .astype(np.int64).astype(object)
            xw = np.floor(x * 1e3 + 0.5).astype(np.int64) \
                .astype(object)
            yw = np.floor(y * 1e3 + 0.5).astype(np.int64) \
                .astype(object)
            d6 = np.floor(d * 1e6 + 0.5).astype(np.int64) \
                .astype(object)
            return pa.table({
                "_g": pa.array([0]),
                "wx": pa.array([int((w9 * xw).sum())]),
                "wy": pa.array([int((w9 * yw).sum())]),
                "w": pa.array([int(w9.sum())]),
                "td": pa.array([int(d6.sum())])})

        r = relational.ds_to_table(
            base.map_batches(part, batch_format="pyarrow")
            .groupby("_g").aggregate(
                Sum("wx", alias_name="wx"),
                Sum("wy", alias_name="wy"),
                Sum("w", alias_name="w"),
                Sum("td", alias_name="td"))).to_pandas().iloc[0]
        w = int(r["w"])
        if w == 0:
            return mx, my, int(r["td"]) / 1e6
        return (float(int(r["wx"])) / 1e3 / w,
                float(int(r["wy"])) / 1e3 / w,
                int(r["td"]) / 1e6)

    mx, my = cx, cy
    obj_centroid = None
    for i in range(3):
        nx, ny, td = round_fold(mx, my)
        if i == 0:
            obj_centroid = td
        mx, my = nx, ny
    _, _, obj_median = round_fold(mx, my)
    return pd.DataFrame([{
        "n_points": n,
        "centroid_x": np.round(cx, 6), "centroid_y": np.round(cy, 6),
        "median_x": np.round(mx, 6), "median_y": np.round(my, 6),
        "objective_centroid": np.round(obj_centroid, 6),
        "objective_median": np.round(obj_median, 6)}]).astype({
            "n_points": np.int64})


SQL_WEISZFELD = """
WITH p AS (SELECT ((c_custkey * 7919) % 1000) + 0.5 AS x,
                  ((c_custkey * 104729) % 1000) + 0.5 AS y
           FROM customer),
c0 AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
              SUM(CAST(FLOOR(x * 1e3 + 0.5) AS HUGEINT)) AS sx,
              SUM(CAST(FLOOR(y * 1e3 + 0.5) AS HUGEINT)) AS sy
       FROM p),
m0 AS (SELECT n, CAST(sx AS DOUBLE) / 1e3 / n AS mx,
              CAST(sy AS DOUBLE) / 1e3 / n AS my
       FROM c0),
r1 AS (SELECT
    SUM(CASE WHEN SQRT((x - m0.mx) * (x - m0.mx)
                       + (y - m0.my) * (y - m0.my)) > 0 THEN
        CAST(FLOOR(1.0 / SQRT((x - m0.mx) * (x - m0.mx)
                              + (y - m0.my) * (y - m0.my))
                   * 1e9 + 0.5) AS HUGEINT)
          * CAST(FLOOR(x * 1e3 + 0.5) AS HUGEINT)
        ELSE 0 END) AS wx,
    SUM(CASE WHEN SQRT((x - m0.mx) * (x - m0.mx)
                       + (y - m0.my) * (y - m0.my)) > 0 THEN
        CAST(FLOOR(1.0 / SQRT((x - m0.mx) * (x - m0.mx)
                              + (y - m0.my) * (y - m0.my))
                   * 1e9 + 0.5) AS HUGEINT)
          * CAST(FLOOR(y * 1e3 + 0.5) AS HUGEINT)
        ELSE 0 END) AS wy,
    SUM(CASE WHEN SQRT((x - m0.mx) * (x - m0.mx)
                       + (y - m0.my) * (y - m0.my)) > 0 THEN
        CAST(FLOOR(1.0 / SQRT((x - m0.mx) * (x - m0.mx)
                              + (y - m0.my) * (y - m0.my))
                   * 1e9 + 0.5) AS HUGEINT)
        ELSE 0 END) AS w,
    SUM(CAST(FLOOR(SQRT((x - m0.mx) * (x - m0.mx)
                        + (y - m0.my) * (y - m0.my))
                   * 1e6 + 0.5) AS HUGEINT)) AS td
  FROM p, m0),
m1 AS (SELECT CAST(wx AS DOUBLE) / 1e3 / w AS mx,
              CAST(wy AS DOUBLE) / 1e3 / w AS my,
              CAST(td AS DOUBLE) / 1e6 AS obj0
       FROM r1),
r2 AS (SELECT
    SUM(CASE WHEN SQRT((x - m1.mx) * (x - m1.mx)
                       + (y - m1.my) * (y - m1.my)) > 0 THEN
        CAST(FLOOR(1.0 / SQRT((x - m1.mx) * (x - m1.mx)
                              + (y - m1.my) * (y - m1.my))
                   * 1e9 + 0.5) AS HUGEINT)
          * CAST(FLOOR(x * 1e3 + 0.5) AS HUGEINT)
        ELSE 0 END) AS wx,
    SUM(CASE WHEN SQRT((x - m1.mx) * (x - m1.mx)
                       + (y - m1.my) * (y - m1.my)) > 0 THEN
        CAST(FLOOR(1.0 / SQRT((x - m1.mx) * (x - m1.mx)
                              + (y - m1.my) * (y - m1.my))
                   * 1e9 + 0.5) AS HUGEINT)
          * CAST(FLOOR(y * 1e3 + 0.5) AS HUGEINT)
        ELSE 0 END) AS wy,
    SUM(CASE WHEN SQRT((x - m1.mx) * (x - m1.mx)
                       + (y - m1.my) * (y - m1.my)) > 0 THEN
        CAST(FLOOR(1.0 / SQRT((x - m1.mx) * (x - m1.mx)
                              + (y - m1.my) * (y - m1.my))
                   * 1e9 + 0.5) AS HUGEINT)
        ELSE 0 END) AS w
  FROM p, m1),
m2 AS (SELECT CAST(wx AS DOUBLE) / 1e3 / w AS mx,
              CAST(wy AS DOUBLE) / 1e3 / w AS my
       FROM r2),
r3 AS (SELECT
    SUM(CASE WHEN SQRT((x - m2.mx) * (x - m2.mx)
                       + (y - m2.my) * (y - m2.my)) > 0 THEN
        CAST(FLOOR(1.0 / SQRT((x - m2.mx) * (x - m2.mx)
                              + (y - m2.my) * (y - m2.my))
                   * 1e9 + 0.5) AS HUGEINT)
          * CAST(FLOOR(x * 1e3 + 0.5) AS HUGEINT)
        ELSE 0 END) AS wx,
    SUM(CASE WHEN SQRT((x - m2.mx) * (x - m2.mx)
                       + (y - m2.my) * (y - m2.my)) > 0 THEN
        CAST(FLOOR(1.0 / SQRT((x - m2.mx) * (x - m2.mx)
                              + (y - m2.my) * (y - m2.my))
                   * 1e9 + 0.5) AS HUGEINT)
          * CAST(FLOOR(y * 1e3 + 0.5) AS HUGEINT)
        ELSE 0 END) AS wy,
    SUM(CASE WHEN SQRT((x - m2.mx) * (x - m2.mx)
                       + (y - m2.my) * (y - m2.my)) > 0 THEN
        CAST(FLOOR(1.0 / SQRT((x - m2.mx) * (x - m2.mx)
                              + (y - m2.my) * (y - m2.my))
                   * 1e9 + 0.5) AS HUGEINT)
        ELSE 0 END) AS w
  FROM p, m2),
m3 AS (SELECT CAST(wx AS DOUBLE) / 1e3 / w AS mx,
              CAST(wy AS DOUBLE) / 1e3 / w AS my
       FROM r3),
r4 AS (SELECT
    SUM(CAST(FLOOR(SQRT((x - m3.mx) * (x - m3.mx)
                        + (y - m3.my) * (y - m3.my))
                   * 1e6 + 0.5) AS HUGEINT)) AS td
  FROM p, m3)
SELECT m0.n AS n_points,
       ROUND(m0.mx, 6) AS centroid_x, ROUND(m0.my, 6) AS centroid_y,
       ROUND(m3.mx, 6) AS median_x, ROUND(m3.my, 6) AS median_y,
       ROUND(m1.obj0, 6) AS objective_centroid,
       ROUND(CAST(r4.td AS DOUBLE) / 1e6, 6) AS objective_median
FROM m0, m1, m3, r4
"""


def q_procrustes_nation_centers(sf_dir: str):
    """2-D orthogonal Procrustes alignment between the per-nation
    mean centers of two deterministic customer half-populations
    (even vs odd custkeys) — shape analysis' answer to "did the
    spatial CONFIGURATION change, net of rotation and scale" (the
    mean-center-shift op sees any drift; Procrustes removes the
    rigid part first): per-(nation, half) exact milli-quantized
    coordinate sums → the 25-point configurations, both centered,
    the optimal rotation θ = atan2(Σ(x₁y₂ − y₁x₂), Σ(x₁x₂ + y₁y₂))
    in closed form (Kabsch in 2-D, DuckDB ATAN2 mirrored), optimal
    scale from the same cross terms, and the normalized Procrustes
    statistic d² = 1 − (num² ) /(S₁S₂) with every cross term a
    nano-quantized order-free fold."""
    import math
    from ray.data.aggregate import Sum
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x3 = ((k * 7919) % 1000) * 1000 + 500     # milli-units exact
        y3 = ((k * 104729) % 1000) * 1000 + 500
        g = pd.DataFrame({"nk": nk, "h": k % 2, "sx": x3, "sy": y3,
                          "c": 1}).groupby(["nk", "h"], sort=False) \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cells = relational.ds_to_table(
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby(["nk", "h"]).aggregate(
            Sum("sx", alias_name="sx"), Sum("sy", alias_name="sy"),
            Sum("c", alias_name="c"))
    ).to_pandas()
    conf = {}
    for h in (0, 1):
        g = cells[cells["h"] == h].sort_values("nk")
        conf[h] = (g["nk"].to_numpy(np.int64),
                   g["sx"].to_numpy(np.int64),
                   g["sy"].to_numpy(np.int64),
                   g["c"].to_numpy(np.int64))
    common = sorted(set(conf[0][0]) & set(conf[1][0]))
    pts = {}
    for h in (0, 1):
        nk, sx, sy, c = conf[h]
        idx = {int(n): i for i, n in enumerate(nk)}
        xs = np.array([sx[idx[n]] / 1e3 / c[idx[n]]
                       for n in common])
        ys = np.array([sy[idx[n]] / 1e3 / c[idx[n]]
                       for n in common])
        pts[h] = (xs, ys)
    k = len(common)
    x1 = pts[0][0] - np.sum(
        np.floor(pts[0][0] * 1e6 + 0.5).astype(np.int64)) / 1e6 / k
    y1 = pts[0][1] - np.sum(
        np.floor(pts[0][1] * 1e6 + 0.5).astype(np.int64)) / 1e6 / k
    x2 = pts[1][0] - np.sum(
        np.floor(pts[1][0] * 1e6 + 0.5).astype(np.int64)) / 1e6 / k
    y2 = pts[1][1] - np.sum(
        np.floor(pts[1][1] * 1e6 + 0.5).astype(np.int64)) / 1e6 / k

    def q9(a: np.ndarray) -> float:
        return float(int(np.floor(a * 1e9 + 0.5).astype(np.int64)
                         .astype(object).sum())) / 1e9

    num_rot = q9(x1 * y2 - y1 * x2)
    num_dot = q9(x1 * x2 + y1 * y2)
    s1 = q9(x1 * x1 + y1 * y1)
    s2 = q9(x2 * x2 + y2 * y2)
    theta = math.atan2(num_rot, num_dot)
    num2 = num_rot * num_rot + num_dot * num_dot
    if s1 <= 0 or s2 <= 0:
        d2 = np.nan
        scale = np.nan
    else:
        d2 = 1.0 - num2 / (s1 * s2)
        scale = math.sqrt(num2) / s1
    return pd.DataFrame([{
        "k_nations": k,
        "rotation_rad": np.round(theta, 6),
        "scale": np.round(scale, 6),
        "procrustes_d2": np.round(d2, 6)}]).astype({
            "k_nations": np.int64})


SQL_PROCRUSTES = """
WITH cc AS (SELECT c_nationkey AS nk, c_custkey % 2 AS h,
                   SUM(((c_custkey * 7919) % 1000) * 1000 + 500)
                     AS sx,
                   SUM(((c_custkey * 104729) % 1000) * 1000 + 500)
                     AS sy,
                   CAST(COUNT(*) AS BIGINT) AS c
            FROM customer GROUP BY 1, 2),
common AS (SELECT nk FROM cc GROUP BY nk HAVING COUNT(*) = 2),
pts AS (SELECT cc.nk, cc.h,
               CAST(cc.sx AS DOUBLE) / 1e3 / cc.c AS x,
               CAST(cc.sy AS DOUBLE) / 1e3 / cc.c AS y
        FROM cc JOIN common USING (nk)),
kk AS (SELECT CAST(COUNT(*) AS BIGINT) AS k FROM common),
mn AS (SELECT h,
          SUM(CAST(FLOOR(x * 1e6 + 0.5) AS HUGEINT)) AS mx6,
          SUM(CAST(FLOOR(y * 1e6 + 0.5) AS HUGEINT)) AS my6
       FROM pts GROUP BY 1),
cen AS (SELECT pts.nk, pts.h,
               pts.x - CAST(mn.mx6 AS DOUBLE) / 1e6 / kk.k AS x,
               pts.y - CAST(mn.my6 AS DOUBLE) / 1e6 / kk.k AS y
        FROM pts JOIN mn USING (h), kk),
pair AS (SELECT a.nk, a.x AS x1, a.y AS y1, b.x AS x2, b.y AS y2
         FROM cen a JOIN cen b ON a.nk = b.nk
         WHERE a.h = 0 AND b.h = 1),
t AS (SELECT
    SUM(CAST(FLOOR((x1 * y2 - y1 * x2) * 1e9 + 0.5) AS HUGEINT))
      AS rot9,
    SUM(CAST(FLOOR((x1 * x2 + y1 * y2) * 1e9 + 0.5) AS HUGEINT))
      AS dot9,
    SUM(CAST(FLOOR((x1 * x1 + y1 * y1) * 1e9 + 0.5) AS HUGEINT))
      AS s19,
    SUM(CAST(FLOOR((x2 * x2 + y2 * y2) * 1e9 + 0.5) AS HUGEINT))
      AS s29
  FROM pair),
e AS (SELECT
        CAST(rot9 AS DOUBLE) / 1e9 AS nr,
        CAST(dot9 AS DOUBLE) / 1e9 AS nd,
        CAST(s19 AS DOUBLE) / 1e9 AS s1,
        CAST(s29 AS DOUBLE) / 1e9 AS s2
      FROM t)
SELECT kk.k AS k_nations,
       ROUND(ATAN2(nr, nd), 6) AS rotation_rad,
       CASE WHEN s1 <= 0 OR s2 <= 0 THEN NULL ELSE
         ROUND(SQRT(nr * nr + nd * nd) / s1, 6) END AS scale,
       CASE WHEN s1 <= 0 OR s2 <= 0 THEN NULL ELSE
         ROUND(1.0 - (nr * nr + nd * nd) / (s1 * s2), 6)
       END AS procrustes_d2
FROM e, kk
"""
