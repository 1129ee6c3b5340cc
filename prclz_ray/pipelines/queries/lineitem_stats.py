"""Statistics demos over lineitems, parts and suppliers."""
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
    SQL_FUZZY_BASE, SQL_FUZZY_CLUSTERS, _fuzzy_cluster_labels,
    _fuzzy_sides, _read, _read_table, q_fuzzy_match_pairs)


def q_weighted_median_price(sf_dir: str):
    """Weighted median (quantity-weighted) of line-item price per
    return flag — EXACT at any scale via the value-distribution trick:
    per-batch (flag, cents) weight partials reduce to a table bounded
    by the VALUE DOMAIN (distinct prices × 3 flags, independent of row
    count); the driver finds the smallest value whose doubled running
    weight reaches the total.  No global sort, no quantile sketch
    approximation."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_extendedprice", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        w = np.round(t["l_quantity"].to_numpy(
            zero_copy_only=False)).astype(np.int64)
        g = pd.DataFrame({"l_returnflag":
                          t["l_returnflag"].to_numpy(zero_copy_only=False),
                          "cents": cents, "pw": w}) \
            .groupby(["l_returnflag", "cents"], sort=False)["pw"] \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    vw = li.map_batches(partial, batch_format="pyarrow") \
        .groupby(["l_returnflag", "cents"]) \
        .aggregate(Sum("pw", alias_name="w"))
    df = relational.ds_to_table(vw).to_pandas() \
        .sort_values(["l_returnflag", "cents"])
    rows = []
    for flag, g in df.groupby("l_returnflag", sort=True):
        w = g["w"].to_numpy(dtype=np.int64)
        v = g["cents"].to_numpy(dtype=np.int64)
        cum = np.cumsum(w)
        tot = int(cum[-1])
        med = int(v[relational.exact_quantile_idx(cum, 1, 2)])
        rows.append({"l_returnflag": flag, "total_w": tot,
                     "wmedian_cents": med})
    return pd.DataFrame(rows)


SQL_WEIGHTED_MEDIAN = """
WITH vw AS (SELECT l_returnflag,
                   CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS cents,
                   SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS w
            FROM lineitem GROUP BY 1, 2),
c AS (SELECT l_returnflag, cents, w,
             SUM(w) OVER (PARTITION BY l_returnflag ORDER BY cents
                          ROWS UNBOUNDED PRECEDING) AS cum,
             SUM(w) OVER (PARTITION BY l_returnflag) AS tot
      FROM vw)
SELECT l_returnflag, CAST(MAX(tot) AS BIGINT) AS total_w,
       CAST(MIN(CASE WHEN 2 * cum >= tot THEN cents END) AS BIGINT)
         AS wmedian_cents
FROM c GROUP BY 1 ORDER BY 1
"""


def q_equidepth_deciles_price(sf_dir: str):
    """Equi-depth (equal-count) decile histogram of line-item price —
    the query-planner statistics primitive equi-WIDTH histograms can't
    replace on skewed data.  Boundaries come EXACTLY from the value-
    distribution table (bounded by the value domain, independent of row
    count) under the pure-integer rule 10·cum ≥ decile·N (no float
    quantile ambiguity); per-bin counts are differences of the same
    running counts.  No sort, no sketch."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        u, c = np.unique(cents, return_counts=True)
        return pa.table({"v": pa.array(u),
                         "pc_": pa.array(c.astype(np.int64))})

    vc = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("v").aggregate(Sum("pc_", alias_name="c"))
    ).to_pandas().sort_values("v").reset_index(drop=True)
    cum = np.cumsum(vc["c"].to_numpy(np.int64))
    v = vc["v"].to_numpy(np.int64)
    rows = []
    prev_cum = 0
    for d in range(1, 11):
        i = relational.exact_quantile_idx(cum, d, 10)
        rows.append({"decile": d, "hi_cents": int(v[i]),
                     "n": int(cum[i] - prev_cum)})
        prev_cum = int(cum[i])
    return pd.DataFrame(rows).astype(
        {"decile": np.int64, "hi_cents": np.int64, "n": np.int64})


SQL_EQUIDEPTH = """
WITH vc AS (SELECT CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS v,
                   CAST(COUNT(*) AS BIGINT) AS c
            FROM lineitem GROUP BY 1),
w AS (SELECT v, c,
             SUM(c) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING) AS cum,
             SUM(c) OVER () AS n
      FROM vc),
q AS (SELECT unnest(generate_series(1, 10)) AS decile),
b AS (SELECT q.decile, MIN(w.v) AS hi_cents
      FROM q JOIN w ON 10 * w.cum >= q.decile * w.n GROUP BY 1),
cb AS (SELECT b.decile, b.hi_cents, w.cum
       FROM b JOIN w ON w.v = b.hi_cents)
SELECT decile, hi_cents,
       CAST(cum - COALESCE(LAG(cum) OVER (ORDER BY decile), 0)
            AS BIGINT) AS n
FROM cb ORDER BY decile
"""


def q_percentile_cont_price(sf_dir: str):
    """Continuous-interpolation percentiles (p25/p50/p75/p90) of
    l_extendedprice — ``quantile_cont`` semantics: position
    h = (n−1)·q over the sorted multiset, linear interpolation between
    the straddling elements.  Ranks and the interpolation fraction are
    EXACT rationals from the value-distribution table ((n−1)·k // 100
    and its remainder); only the final interpolated value is a float,
    rounded 6dp against the oracle's double path."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        u, c = np.unique(cents, return_counts=True)
        return pa.table({"v": pa.array(u),
                         "pc_": pa.array(c.astype(np.int64))})

    vc = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("v").aggregate(Sum("pc_", alias_name="c"))
    ).to_pandas().sort_values("v").reset_index(drop=True)
    cum = np.cumsum(vc["c"].to_numpy(np.int64))
    v = vc["v"].to_numpy(np.int64)
    n = int(cum[-1])
    rows = []
    for k in (25, 50, 75, 90):
        h_lo, rem = divmod((n - 1) * k, 100)
        lo_c = int(v[np.searchsorted(cum, h_lo + 1, side="left")])
        hi_c = lo_c if rem == 0 else \
            int(v[np.searchsorted(cum, h_lo + 2, side="left")])
        val = (lo_c + (rem / 100.0) * (hi_c - lo_c)) / 100.0
        rows.append({"pct": k, "price": round(val, 6)})
    return pd.DataFrame(rows).astype({"pct": np.int64})


SQL_PERCENTILE_CONT = """
SELECT 25 AS pct, ROUND(quantile_cont(l_extendedprice, 0.25), 6)
         AS price FROM lineitem
UNION ALL SELECT 50, ROUND(quantile_cont(l_extendedprice, 0.50), 6)
         FROM lineitem
UNION ALL SELECT 75, ROUND(quantile_cont(l_extendedprice, 0.75), 6)
         FROM lineitem
UNION ALL SELECT 90, ROUND(quantile_cont(l_extendedprice, 0.90), 6)
         FROM lineitem
ORDER BY 1
"""


def q_spearman_qty_discount(sf_dir: str):
    """Spearman rank correlation between l_quantity and l_discount with
    EXACT average-tie ranks — Pearson over doubled midranks
    2r(v) = 2·cum<(v) + n(v) + 1 (always integer), computed from the
    DOMAIN-bounded joint distribution (50 qty × 11 discount ≤ 550
    cells): the shuffle moves cells, never rows, and every power sum is
    a python int until the one mirrored float expression."""
    import math

    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_quantity", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        q = np.round(t["l_quantity"].to_numpy(
            zero_copy_only=False)).astype(np.int64)
        d = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"q": q, "d": d, "pn": 1}) \
            .groupby(["q", "d"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cells = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby(["q", "d"]).aggregate(Sum("pn", alias_name="n"))
    ).to_pandas()
    qv = cells["q"].to_numpy(np.int64)
    dv = cells["d"].to_numpy(np.int64)
    nc = cells["n"].to_numpy(np.int64)

    def doubled_midranks(vals, counts):
        # per distinct value: 2r = 2·cum< + n + 1
        order = np.argsort(vals)
        u, inv = np.unique(vals, return_inverse=True)
        marg = np.zeros(len(u), dtype=np.int64)
        np.add.at(marg, inv, counts)
        cumlt = np.cumsum(marg) - marg
        return (2 * cumlt + marg + 1)[inv]

    x = doubled_midranks(qv, nc)          # doubled midrank per cell
    y = doubled_midranks(dv, nc)
    N = int(nc.sum())
    sx = sum(int(n) * int(a) for n, a in zip(nc, x))
    sy = sum(int(n) * int(b) for n, b in zip(nc, y))
    sxy = sum(int(n) * int(a) * int(b) for n, a, b in zip(nc, x, y))
    sxx = sum(int(n) * int(a) * int(a) for n, a in zip(nc, x))
    syy = sum(int(n) * int(b) * int(b) for n, b in zip(nc, y))
    num = float(N * sxy - sx * sy)
    den = math.sqrt(float(N * sxx - sx * sx)) \
        * math.sqrt(float(N * syy - sy * sy))
    return pd.DataFrame([{"n": N, "rho": round(num / den, 6)}]) \
        .astype({"n": np.int64})


SQL_SPEARMAN = """
WITH cells AS (SELECT CAST(ROUND(l_quantity) AS BIGINT) AS q,
                      CAST(ROUND(l_discount * 100) AS BIGINT) AS d,
                      CAST(COUNT(*) AS HUGEINT) AS n
               FROM lineitem GROUP BY 1, 2),
mq AS (SELECT q, SUM(n) AS nq FROM cells GROUP BY 1),
rq AS (SELECT q, 2 * (SUM(nq) OVER (ORDER BY q
                      ROWS UNBOUNDED PRECEDING) - nq) + nq + 1 AS r2
       FROM mq),
md AS (SELECT d, SUM(n) AS nd FROM cells GROUP BY 1),
rd AS (SELECT d, 2 * (SUM(nd) OVER (ORDER BY d
                      ROWS UNBOUNDED PRECEDING) - nd) + nd + 1 AS r2
       FROM md),
s AS (SELECT SUM(c.n) AS nn,
             SUM(c.n * rq.r2) AS sx, SUM(c.n * rd.r2) AS sy,
             SUM(c.n * rq.r2 * rd.r2) AS sxy,
             SUM(c.n * rq.r2 * rq.r2) AS sxx,
             SUM(c.n * rd.r2 * rd.r2) AS syy
      FROM cells c JOIN rq USING (q) JOIN rd USING (d))
SELECT CAST(nn AS BIGINT) AS n,
       ROUND(CAST(nn * sxy - sx * sy AS DOUBLE)
             / (SQRT(CAST(nn * sxx - sx * sx AS DOUBLE))
                * SQRT(CAST(nn * syy - sy * sy AS DOUBLE))), 6) AS rho
FROM s
"""


def q_kendall_tau_discount_tax(sf_dir: str):
    """Kendall tau-b between l_discount and l_tax — EXACT from the
    domain-bounded joint distribution (11 × 9 ≤ 99 cells): concordant /
    discordant pair counts by an O(cells²) dominance broadcast, tie
    terms from the marginals, all python-int; tau's two square roots
    mirror the SQL text."""
    import math

    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_discount", "l_tax"])

    def partial(t: pa.Table) -> pa.Table:
        d = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        x = np.round(t["l_tax"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"d": d, "t": x, "pn": 1}) \
            .groupby(["d", "t"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cells = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby(["d", "t"]).aggregate(Sum("pn", alias_name="n"))
    ).to_pandas()
    d = cells["d"].to_numpy(np.int64)
    t_ = cells["t"].to_numpy(np.int64)
    n = cells["n"].to_numpy(np.int64)
    # ordered-pair strict dominance counts each unordered concordant /
    # discordant pair exactly once (object dtype → python-int sums)
    no = n.astype(object)
    conc = int(np.sum(no[:, None] * no[None, :]
                      * ((d[:, None] > d[None, :])
                         & (t_[:, None] > t_[None, :]))))
    disc = int(np.sum(no[:, None] * no[None, :]
                      * ((d[:, None] > d[None, :])
                         & (t_[:, None] < t_[None, :]))))
    N = int(n.sum())
    n0 = N * (N - 1) // 2
    n1 = 0
    for _, grp in pd.DataFrame({"d": d, "n": n}).groupby("d"):
        s = int(grp["n"].sum())
        n1 += s * (s - 1) // 2
    n2 = 0
    for _, grp in pd.DataFrame({"t": t_, "n": n}).groupby("t"):
        s = int(grp["n"].sum())
        n2 += s * (s - 1) // 2
    tau = float(conc - disc) / (math.sqrt(float(n0 - n1))
                                * math.sqrt(float(n0 - n2)))
    return pd.DataFrame([{"n": N, "conc": conc, "disc": disc,
                          "tau_b": round(tau, 6)}]) \
        .astype({"n": np.int64, "conc": np.int64, "disc": np.int64})


SQL_KENDALL = """
WITH cells AS (SELECT CAST(ROUND(l_discount * 100) AS BIGINT) AS d,
                      CAST(ROUND(l_tax * 100) AS BIGINT) AS t,
                      CAST(COUNT(*) AS HUGEINT) AS n
               FROM lineitem GROUP BY 1, 2),
pairs AS (SELECT SUM(CASE WHEN b.d < a.d AND b.t < a.t
                     THEN a.n * b.n ELSE 0 END) AS conc,
                 SUM(CASE WHEN b.d < a.d AND b.t > a.t
                     THEN a.n * b.n ELSE 0 END) AS disc
          FROM cells a CROSS JOIN cells b),
tot AS (SELECT SUM(n) AS nn,
               SUM(n * (n - 1)) // 2 AS cellt FROM cells),
t1 AS (SELECT SUM(s * (s - 1)) // 2 AS n1
       FROM (SELECT SUM(n) AS s FROM cells GROUP BY d)),
t2 AS (SELECT SUM(s * (s - 1)) // 2 AS n2
       FROM (SELECT SUM(n) AS s FROM cells GROUP BY t))
SELECT CAST(nn AS BIGINT) AS n, CAST(conc AS BIGINT) AS conc,
       CAST(disc AS BIGINT) AS disc,
       ROUND(CAST(conc - disc AS DOUBLE)
             / (SQRT(CAST(nn * (nn - 1) // 2 - n1 AS DOUBLE))
                * SQRT(CAST(nn * (nn - 1) // 2 - n2 AS DOUBLE))), 6)
         AS tau_b
FROM pairs, tot, t1, t2
"""


def q_jarque_bera_discount(sf_dir: str):
    """Jarque–Bera normality test of the l_discount distribution —
    the 4th-moment member of the power-sum family.  The domain is tiny
    (11 discount levels), so Σv⁴ stays minuscule and every raw moment
    is an exact python int from the DOMAIN-bounded distribution table;
    central moments expand via raw moments with the float association
    mirroring the SQL text term by term."""
    import math

    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        d = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        u, c = np.unique(d, return_counts=True)
        return pa.table({"v": pa.array(u),
                         "pn": pa.array(c.astype(np.int64))})

    vc = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("v").aggregate(Sum("pn", alias_name="n"))
    ).to_pandas()
    v = vc["v"].to_numpy(np.int64)
    n_ = vc["n"].to_numpy(np.int64)
    N = int(n_.sum())
    s1 = sum(int(c) * int(x) for c, x in zip(n_, v))
    s2 = sum(int(c) * int(x) ** 2 for c, x in zip(n_, v))
    s3 = sum(int(c) * int(x) ** 3 for c, x in zip(n_, v))
    s4 = sum(int(c) * int(x) ** 4 for c, x in zip(n_, v))
    n = float(N)
    mu = s1 / n
    m2 = s2 / n - mu * mu
    m3 = s3 / n - 3.0 * mu * (s2 / n) + 2.0 * mu * mu * mu
    m4 = s4 / n - 4.0 * mu * (s3 / n) \
        + 6.0 * mu * mu * (s2 / n) - 3.0 * mu * mu * mu * mu
    skew = m3 / m2 ** 1.5
    kurt = m4 / (m2 * m2)
    jb = n / 6.0 * (skew * skew + (kurt - 3.0) * (kurt - 3.0) / 4.0)
    return pd.DataFrame([{"n": N, "skew": round(skew, 6),
                          "kurtosis": round(kurt, 6),
                          "jb_stat": round(jb, 6)}]) \
        .astype({"n": np.int64})


SQL_JARQUE_BERA = """
WITH x AS (SELECT CAST(ROUND(l_discount * 100) AS BIGINT) AS v,
                  CAST(COUNT(*) AS HUGEINT) AS c
           FROM lineitem GROUP BY 1),
s AS (SELECT CAST(SUM(c) AS BIGINT) AS nn,
             SUM(c * v) AS s1, SUM(c * v * v) AS s2,
             SUM(c * v * v * v) AS s3,
             SUM(c * v * v * v * v) AS s4
      FROM x),
m AS (SELECT nn, CAST(nn AS DOUBLE) AS n,
             CAST(s1 AS DOUBLE) / nn AS mu,
             CAST(s2 AS DOUBLE) AS s2d, CAST(s3 AS DOUBLE) AS s3d,
             CAST(s4 AS DOUBLE) AS s4d
      FROM s),
cm AS (SELECT nn, n, s2d / n - mu * mu AS m2,
              s3d / n - 3.0 * mu * (s2d / n)
                + 2.0 * mu * mu * mu AS m3,
              s4d / n - 4.0 * mu * (s3d / n)
                + 6.0 * mu * mu * (s2d / n)
                - 3.0 * mu * mu * mu * mu AS m4
       FROM m),
f AS (SELECT nn, n, m3 / POWER(m2, 1.5) AS skew,
             m4 / (m2 * m2) AS kurt
      FROM cm)
SELECT nn AS n, ROUND(skew, 6) AS skew, ROUND(kurt, 6) AS kurtosis,
       ROUND(n / 6.0 * (skew * skew
             + (kurt - 3.0) * (kurt - 3.0) / 4.0), 6) AS jb_stat
FROM f
"""


def q_shuffle_skew_report(sf_dir: str):
    """Join-key skew introspection — the report the adaptive join
    planner acts on: per-key counts for l_orderkey reduce to
    DISTRIBUTION-OF-COUNTS form (how many keys have multiplicity m),
    plus max/mean ratio per bucket — all exact ints, bounded by the
    multiplicity domain (≤ 7 for TPC-H lineitem), never by keys."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_orderkey"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["l_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        u, c = np.unique(k, return_counts=True)
        g = pd.DataFrame({"l_orderkey": u, "pm": c.astype(np.int64)})
        return pa.Table.from_pandas(g, preserve_index=False)

    mult = li.map_batches(partial, batch_format="pyarrow") \
        .groupby("l_orderkey").aggregate(Sum("pm", alias_name="m"))

    def hist_partial(t: pa.Table) -> pa.Table:
        m = t["m"].to_numpy(zero_copy_only=False).astype(np.int64)
        u, c = np.unique(m, return_counts=True)
        return pa.table({"multiplicity": pa.array(u),
                         "pk": pa.array(c.astype(np.int64))})

    o = relational.ds_to_table(
        mult.map_batches(hist_partial, batch_format="pyarrow")
        .groupby("multiplicity").aggregate(Sum("pk",
                                               alias_name="n_keys"))
    ).to_pandas().sort_values("multiplicity").reset_index(drop=True)
    return o.astype({"multiplicity": np.int64, "n_keys": np.int64})


SQL_SKEW_REPORT = """
WITH m AS (SELECT l_orderkey, CAST(COUNT(*) AS BIGINT) AS mult
           FROM lineitem GROUP BY 1)
SELECT mult AS multiplicity, CAST(COUNT(*) AS BIGINT) AS n_keys
FROM m GROUP BY 1 ORDER BY 1
"""


def q_abc_analysis_parts(sf_dir: str):
    """ABC / Pareto inventory classification: parts ranked by exact
    lineitem revenue (cents), class A = the head reaching 80 % of
    cumulative revenue, B to 95 %, C the tail — thresholds applied as
    the pure-integer rule 20·cum ≤ 16·total / 20·cum ≤ 19·total (no
    float shares).  Rank order is the deterministic (revenue DESC,
    partkey ASC); the running total comes from ``global_prefix_sum``
    over the order-preserving composite (maxrev−rev)·2³² + partkey —
    no global sort.  Output: per-class part counts + revenue."""
    from ray.data.aggregate import Max, Sum
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"p": t["l_partkey"].to_numpy(
            zero_copy_only=False).astype(np.int64), "pc_": cents}) \
            .groupby("p", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    rev = li.map_batches(partial, batch_format="pyarrow") \
        .groupby("p").aggregate(Sum("pc_", alias_name="rev")) \
        .materialize()
    mx = int(rev.aggregate(Max("rev", alias_name="m"))["m"])
    total = int(rev.aggregate(Sum("rev", alias_name="s"))["s"])

    def with_key(t: pa.Table) -> pa.Table:
        from ...stages.relational import pack_desc_rank_key
        r = t["rev"].to_numpy(zero_copy_only=False).astype(np.int64)
        p = t["p"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = pack_desc_rank_key(r, mx, p)  # revenue DESC, partkey ASC
        return pa.table({"rev": pa.array(r), "key": pa.array(key)})

    ranked = relational.global_prefix_sum(
        rev.map_batches(with_key, batch_format="pyarrow"),
        order_col="key", value_col="rev", out_col="cum")

    def classify(t: pa.Table) -> pa.Table:
        cum = t["cum"].to_numpy(zero_copy_only=False).astype(np.int64)
        r = t["rev"].to_numpy(zero_copy_only=False).astype(np.int64)
        cls = np.where(20 * cum <= 16 * total, "A",
                       np.where(20 * cum <= 19 * total, "B", "C"))
        g = pd.DataFrame({"abc_class": cls, "pn": 1, "pc_": r}) \
            .groupby("abc_class", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    o = relational.ds_to_table(
        ranked.map_batches(classify, batch_format="pyarrow")
        .groupby("abc_class").aggregate(
            Sum("pn", alias_name="n_parts"),
            Sum("pc_", alias_name="revenue_c"))
    ).to_pandas().sort_values("abc_class").reset_index(drop=True)
    return o.astype({"n_parts": np.int64, "revenue_c": np.int64})


SQL_ABC = """
WITH rev AS (SELECT l_partkey AS p,
                    CAST(SUM(CAST(ROUND(l_extendedprice * 100)
                                  AS HUGEINT)) AS BIGINT) AS rev
             FROM lineitem GROUP BY 1),
r AS (SELECT rev, SUM(rev) OVER (ORDER BY rev DESC, p
                                 ROWS UNBOUNDED PRECEDING) AS cum,
             (SELECT SUM(rev) FROM rev) AS total
      FROM rev)
SELECT CASE WHEN 20 * cum <= 16 * total THEN 'A'
            WHEN 20 * cum <= 19 * total THEN 'B'
            ELSE 'C' END AS abc_class,
       CAST(COUNT(*) AS BIGINT) AS n_parts,
       CAST(SUM(rev) AS BIGINT) AS revenue_c
FROM r GROUP BY 1 ORDER BY 1
"""


# Cramer expansion for the 3×3 normal equations of
# y ~ b0 + b1·q + b2·d, written ONCE: the Ray side eval()s these over
# exact python-int power sums, the SQL twin substitutes the same text
# over HUGEINT sums — the two sides cannot drift.
_OLS2_DETS = {
    "det": ("n*(sqq*sdd - sqd*sqd) - sq*(sq*sdd - sqd*sd)"
            " + sd*(sq*sqd - sqq*sd)"),
    "det0": ("sp*(sqq*sdd - sqd*sqd) - sq*(sqp*sdd - sqd*sdp)"
             " + sd*(sqp*sqd - sqq*sdp)"),
    "det1": ("n*(sqp*sdd - sqd*sdp) - sp*(sq*sdd - sqd*sd)"
             " + sd*(sq*sdp - sqp*sd)"),
    "det2": ("n*(sqq*sdp - sqd*sqp) - sq*(sq*sdp - sqp*sd)"
             " + sp*(sq*sqd - sqq*sd)"),
}


def q_ols2_price_model(sf_dir: str):
    """Two-feature exact OLS (multiple linear regression):
    extendedprice-cents ~ quantity + discount-pct over lineitem, by the
    normal equations with EXACT integer power sums — per-batch int64
    partials (bounded: the largest term is qty·cents ≤ 5·10⁸/row, so
    int64 holds ~10¹⁰ rows), Cramer determinants in arbitrary-precision
    python ints, and ONE float division per coefficient at the end,
    mirrored as CAST(det AS DOUBLE)/CAST(det AS DOUBLE) in the twin.
    Bit-identical at any partitioning — the grouped-Gram sibling of the
    single-feature regr kernel and the PCA Gram pass."""
    from ray.data.aggregate import Sum

    li = _read(sf_dir, "lineitem",
               ["l_quantity", "l_discount", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        q = np.round(t["l_quantity"].to_numpy(
            zero_copy_only=False)).astype(np.int64)
        d = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        p = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        return pa.table({
            "n": pa.array([len(q)]), "sq": pa.array([int(q.sum())]),
            "sd": pa.array([int(d.sum())]),
            "sp": pa.array([int(p.sum())]),
            "sqq": pa.array([int((q * q).sum())]),
            "sdd": pa.array([int((d * d).sum())]),
            "sqd": pa.array([int((q * d).sum())]),
            "sqp": pa.array([int((q * p).sum())]),
            "sdp": pa.array([int((d * p).sum())])})

    agg = li.map_batches(partial, batch_format="pyarrow").aggregate(
        *[Sum(c, alias_name=c) for c in
          ("n", "sq", "sd", "sp", "sqq", "sdd", "sqd", "sqp", "sdp")])
    sums = {k: int(v) for k, v in agg.items()}
    dets = {name: eval(expr, {}, sums)          # exact python ints
            for name, expr in _OLS2_DETS.items()}
    det = float(dets["det"])
    return pd.DataFrame([{
        "n": sums["n"],
        "intercept": np.round(float(dets["det0"]) / det, 6),
        "b_qty": np.round(float(dets["det1"]) / det, 6),
        "b_disc": np.round(float(dets["det2"]) / det, 6)}]) \
        .astype({"n": np.int64})


def _sql_ols2() -> str:
    e = {k: v for k, v in _OLS2_DETS.items()}
    return f"""
WITH s AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
    SUM(CAST(ROUND(l_quantity) AS HUGEINT)) AS sq,
    SUM(CAST(ROUND(l_discount * 100) AS HUGEINT)) AS sd,
    SUM(CAST(ROUND(l_extendedprice * 100) AS HUGEINT)) AS sp,
    SUM(CAST(ROUND(l_quantity) AS HUGEINT)
        * CAST(ROUND(l_quantity) AS HUGEINT)) AS sqq,
    SUM(CAST(ROUND(l_discount * 100) AS HUGEINT)
        * CAST(ROUND(l_discount * 100) AS HUGEINT)) AS sdd,
    SUM(CAST(ROUND(l_quantity) AS HUGEINT)
        * CAST(ROUND(l_discount * 100) AS HUGEINT)) AS sqd,
    SUM(CAST(ROUND(l_quantity) AS HUGEINT)
        * CAST(ROUND(l_extendedprice * 100) AS HUGEINT)) AS sqp,
    SUM(CAST(ROUND(l_discount * 100) AS HUGEINT)
        * CAST(ROUND(l_extendedprice * 100) AS HUGEINT)) AS sdp
  FROM lineitem),
d AS (SELECT n, {e["det"]} AS det, {e["det0"]} AS det0,
             {e["det1"]} AS det1, {e["det2"]} AS det2 FROM s)
SELECT CAST(n AS BIGINT) AS n,
       ROUND(CAST(det0 AS DOUBLE) / CAST(det AS DOUBLE), 6)
         AS intercept,
       ROUND(CAST(det1 AS DOUBLE) / CAST(det AS DOUBLE), 6) AS b_qty,
       ROUND(CAST(det2 AS DOUBLE) / CAST(det AS DOUBLE), 6) AS b_disc
FROM d
"""


def _skyline_2d(cents: np.ndarray, size: np.ndarray,
                keys: np.ndarray) -> np.ndarray:
    """Row mask of the 2D Pareto frontier (minimize cents, maximize
    size; a point survives iff no other has cents ≤ AND size ≥ with at
    least one strict).  Vectorized sweep: per ascending-cents group the
    survivors are the rows at the group max size, and only when that
    max strictly beats every cheaper group's best."""
    order = np.lexsort((keys, -size, cents))
    c, s = cents[order], size[order]
    grp_start = np.ones(len(c), dtype=bool)
    grp_start[1:] = c[1:] != c[:-1]
    gid = np.cumsum(grp_start) - 1
    gmax = np.zeros(gid[-1] + 1 if len(gid) else 0, dtype=np.int64)
    np.maximum.at(gmax, gid, s)
    best_before = np.concatenate(
        ([np.iinfo(np.int64).min],
         np.maximum.accumulate(gmax)[:-1]))
    keep_sorted = (s == gmax[gid]) & (gmax[gid] > best_before[gid])
    mask = np.zeros(len(c), dtype=bool)
    mask[order] = keep_sorted
    return mask


def q_skyline_parts(sf_dir: str):
    """Skyline (Pareto-frontier) operator over parts: the cheapest-for-
    their-size set, minimizing price-cents and maximizing size.  The
    classic distributed decomposition: each block computes its LOCAL
    skyline (a global survivor is non-dominated in its block, so the
    union of local skylines is a provable superset), then one exact
    pass on the candidates-bounded union — dominance is transitive, so
    any global dominator is represented in the union.  Equal (price,
    size) duplicates are mutually non-dominating and all kept, exactly
    like the twin's strict NOT EXISTS."""
    parts = _read(sf_dir, "part", ["p_partkey", "p_size",
                                   "p_retailprice"])

    def local(t: pa.Table) -> pa.Table:
        k = t["p_partkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cents = np.round(t["p_retailprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        size = t["p_size"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        m = _skyline_2d(cents, size, k)
        return pa.table({"p_partkey": pa.array(k[m]),
                         "cents": pa.array(cents[m]),
                         "p_size": pa.array(size[m])})

    cand = relational.ds_to_table(
        parts.map_batches(local, batch_format="pyarrow")).to_pandas()
    m = _skyline_2d(cand["cents"].to_numpy(np.int64),
                    cand["p_size"].to_numpy(np.int64),
                    cand["p_partkey"].to_numpy(np.int64))
    out = cand[m].sort_values("p_partkey").reset_index(drop=True)
    return out.astype({"p_partkey": np.int64, "cents": np.int64,
                       "p_size": np.int64})


SQL_SKYLINE = """
WITH p AS (SELECT p_partkey,
                  CAST(ROUND(p_retailprice * 100) AS BIGINT) AS cents,
                  CAST(p_size AS BIGINT) AS p_size
           FROM part)
SELECT p_partkey, cents, p_size FROM p a
WHERE NOT EXISTS (
  SELECT 1 FROM p b
  WHERE b.cents <= a.cents AND b.p_size >= a.p_size
    AND (b.cents < a.cents OR b.p_size > a.p_size))
ORDER BY p_partkey
"""


def q_grouped_ols_by_flag(sf_dir: str):
    """The GROUPED variant of the exact 2-feature OLS: one price ~
    quantity + discount fit PER returnflag — same int64 power-sum
    partials keyed by the group, same shared Cramer expansion
    (``_OLS2_DETS``), a groups-bounded driver finish.  Shows the Gram
    kernel generalizes to grouped models with one extra groupby key
    and zero new math."""
    from ray.data.aggregate import Sum

    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_discount",
                "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        q = np.round(t["l_quantity"].to_numpy(
            zero_copy_only=False)).astype(np.int64)
        d = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        p = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        df = pd.DataFrame({
            "flag": t["l_returnflag"].to_numpy(zero_copy_only=False),
            "n": 1, "sq": q, "sd": d, "sp": p, "sqq": q * q,
            "sdd": d * d, "sqd": q * d, "sqp": q * p, "sdp": d * p})
        g = df.groupby("flag", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cols = ["n", "sq", "sd", "sp", "sqq", "sdd", "sqd", "sqp", "sdp"]
    agg = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("flag").aggregate(
            *[Sum(c, alias_name=c) for c in cols])).to_pandas()
    rows = []
    for r in agg.itertuples():
        sums = {c: int(getattr(r, c)) for c in cols}
        dets = {name: eval(expr, {}, sums)
                for name, expr in _OLS2_DETS.items()}
        det = float(dets["det"])
        rows.append({
            "l_returnflag": r.flag, "n": sums["n"],
            "intercept": np.round(float(dets["det0"]) / det, 6),
            "b_qty": np.round(float(dets["det1"]) / det, 6),
            "b_disc": np.round(float(dets["det2"]) / det, 6)})
    return pd.DataFrame(rows).sort_values("l_returnflag") \
        .reset_index(drop=True).astype({"n": np.int64})


def _sql_grouped_ols() -> str:
    e = _OLS2_DETS
    return f"""
WITH s AS (SELECT l_returnflag, CAST(COUNT(*) AS HUGEINT) AS n,
    SUM(CAST(ROUND(l_quantity) AS HUGEINT)) AS sq,
    SUM(CAST(ROUND(l_discount * 100) AS HUGEINT)) AS sd,
    SUM(CAST(ROUND(l_extendedprice * 100) AS HUGEINT)) AS sp,
    SUM(CAST(ROUND(l_quantity) AS HUGEINT)
        * CAST(ROUND(l_quantity) AS HUGEINT)) AS sqq,
    SUM(CAST(ROUND(l_discount * 100) AS HUGEINT)
        * CAST(ROUND(l_discount * 100) AS HUGEINT)) AS sdd,
    SUM(CAST(ROUND(l_quantity) AS HUGEINT)
        * CAST(ROUND(l_discount * 100) AS HUGEINT)) AS sqd,
    SUM(CAST(ROUND(l_quantity) AS HUGEINT)
        * CAST(ROUND(l_extendedprice * 100) AS HUGEINT)) AS sqp,
    SUM(CAST(ROUND(l_discount * 100) AS HUGEINT)
        * CAST(ROUND(l_extendedprice * 100) AS HUGEINT)) AS sdp
  FROM lineitem GROUP BY 1),
d AS (SELECT l_returnflag, n, {e["det"]} AS det, {e["det0"]} AS det0,
             {e["det1"]} AS det1, {e["det2"]} AS det2 FROM s)
SELECT l_returnflag, CAST(n AS BIGINT) AS n,
       ROUND(CAST(det0 AS DOUBLE) / CAST(det AS DOUBLE), 6)
         AS intercept,
       ROUND(CAST(det1 AS DOUBLE) / CAST(det AS DOUBLE), 6) AS b_qty,
       ROUND(CAST(det2 AS DOUBLE) / CAST(det AS DOUBLE), 6) AS b_disc
FROM d ORDER BY l_returnflag
"""


def q_bom_explosion(sf_dir: str):
    """Bill-of-materials explosion — the manufacturing transitive
    closure: every part's total unit requirement at its root assembly
    is the PRODUCT of the child-edge quantities along its ancestor
    chain.  The hierarchy is a deterministic formula over p_partkey
    (parent = k // 8, edge qty = k % 3 + 1 for k ≥ 8; parts < 8 are
    roots), so the chase needs NO edge shuffle at all: each batch
    pointer-walks its own keys vectorized in O(depth) = O(log₈ N)
    numpy passes, then a roots-bounded groupby folds the partials —
    the whole explosion is one streaming scan regardless of corpus
    size.  The twin runs the literal WITH RECURSIVE climb."""
    from ray.data.aggregate import Max, Sum

    parts = _read(sf_dir, "part", ["p_partkey"])

    def chase(t: pa.Table) -> pa.Table:
        node = t["p_partkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64).copy()
        qty = np.ones(len(node), dtype=np.int64)
        while True:
            m = node >= 8
            if not m.any():
                break
            qty[m] *= node[m] % 3 + 1
            node[m] //= 8
        g = pd.DataFrame({"root": node, "q": qty, "pn": 1}) \
            .groupby("root", sort=False) \
            .agg(n_parts=("pn", "sum"), total_units=("q", "sum"),
                 max_units=("q", "max")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = relational.ds_to_table(
        parts.map_batches(chase, batch_format="pyarrow")
        .groupby("root").aggregate(
            Sum("n_parts", alias_name="n_parts"),
            Sum("total_units", alias_name="total_units"),
            Max("max_units", alias_name="max_units"))
    ).to_pandas().sort_values("root").reset_index(drop=True)
    return out.astype({"root": np.int64, "n_parts": np.int64,
                       "total_units": np.int64,
                       "max_units": np.int64})


SQL_BOM = """
WITH RECURSIVE climb AS (
  SELECT p_partkey AS node, CAST(1 AS HUGEINT) AS qty FROM part
  UNION ALL
  SELECT node // 8, qty * (node % 3 + 1) FROM climb WHERE node >= 8
)
SELECT node AS root, CAST(COUNT(*) AS BIGINT) AS n_parts,
       CAST(SUM(qty) AS BIGINT) AS total_units,
       CAST(MAX(qty) AS BIGINT) AS max_units
FROM climb WHERE node < 8 GROUP BY 1 ORDER BY 1
"""


def q_stump_candidates_discount(sf_dir: str):
    """Decision-stump split evaluation — the inner loop of every tree
    learner: for each candidate threshold on l_discount (cents), the
    exact left/right class-count power sums and the weighted Gini
    impurity of the split on l_returnflag.  The distributed part is a
    (value × class)-bounded count reduce (11 × 3 here — the feature's
    distinct values, NOT the row count); the cumulative scan and Gini
    finish run on that tiny table with Python-int exactness, one
    mirrored float division chain per row.  The argmin (the trained
    stump) is pytest-pinned against a brute-force split evaluator;
    the hash-checked surface is the exact candidate table, so float
    near-ties can never flip the comparison."""
    from ray.data.aggregate import Sum

    li = _read(sf_dir, "lineitem", ["l_discount", "l_returnflag"])

    def partial(t: pa.Table) -> pa.Table:
        d = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"d": d, "f": t["l_returnflag"].to_numpy(
            zero_copy_only=False), "n": 1}) \
            .groupby(["d", "f"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cnt = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby(["d", "f"]).aggregate(Sum("n", alias_name="n"))
    ).to_pandas()
    grid = cnt.pivot_table(index="d", columns="f", values="n",
                           aggfunc="sum", fill_value=0).sort_index()
    cum = grid.cumsum()
    tot = grid.sum()
    N = int(tot.sum())
    rows = []
    for thr in cum.index[:-1]:             # max value → empty right
        cl = [int(v) for v in cum.loc[thr]]
        nt = [int(v) for v in tot]
        n_l = sum(cl)
        n_r = N - n_l
        ssl = sum(v * v for v in cl)
        ssr = sum((t - v) * (t - v) for t, v in zip(nt, cl))
        gnl = n_l * n_l - ssl
        gnr = n_r * n_r - ssr
        wg = (float(gnl) / n_l + float(gnr) / n_r) / N
        rows.append({"thr_cents": int(thr), "n_left": n_l,
                     "n_right": n_r, "gini_num_left": gnl,
                     "gini_num_right": gnr,
                     "wgini": np.round(wg, 6)})
    return pd.DataFrame(rows).astype({
        "thr_cents": np.int64, "n_left": np.int64,
        "n_right": np.int64, "gini_num_left": np.int64,
        "gini_num_right": np.int64})


SQL_STUMP = """
WITH pts AS (SELECT CAST(ROUND(l_discount * 100) AS BIGINT) AS d,
                    l_returnflag AS f FROM lineitem),
cnt AS (SELECT d, f, CAST(COUNT(*) AS HUGEINT) AS n
        FROM pts GROUP BY 1, 2),
grid AS (SELECT ds.d, fs.f, COALESCE(cnt.n, 0) AS n
         FROM (SELECT DISTINCT d FROM cnt) ds
         CROSS JOIN (SELECT DISTINCT f FROM cnt) fs
         LEFT JOIN cnt ON cnt.d = ds.d AND cnt.f = fs.f),
cum AS (SELECT d, f, SUM(n) OVER (PARTITION BY f ORDER BY d) AS cl
        FROM grid),
tot AS (SELECT f, SUM(n) AS nt FROM grid GROUP BY 1),
per AS (SELECT c.d, SUM(c.cl) AS n_l, SUM(c.cl * c.cl) AS ssl,
               SUM(t.nt - c.cl) AS n_r,
               SUM((t.nt - c.cl) * (t.nt - c.cl)) AS ssr
        FROM cum c JOIN tot t ON c.f = t.f GROUP BY 1),
nn AS (SELECT SUM(nt) AS n FROM tot)
SELECT d AS thr_cents,
       CAST(n_l AS BIGINT) AS n_left, CAST(n_r AS BIGINT) AS n_right,
       CAST(n_l * n_l - ssl AS BIGINT) AS gini_num_left,
       CAST(n_r * n_r - ssr AS BIGINT) AS gini_num_right,
       ROUND((CAST(n_l * n_l - ssl AS DOUBLE) / n_l
              + CAST(n_r * n_r - ssr AS DOUBLE) / n_r) / nn.n, 6)
         AS wgini
FROM per, nn WHERE n_r > 0 ORDER BY 1
"""


def q_mutual_info_discount_flag(sf_dir: str):
    """Mutual information (nats) between l_discount and l_returnflag —
    the model-free feature-relevance screen that catches what a linear
    correlation misses.  One (feature-values × classes)-bounded count
    reduce (11 × 3 here), exact-int marginals, then MI and the two
    entropies finish on the tiny joint table with per-cell float terms
    mirroring the SQL text (33 cells → double-rounding-safe at 6 dp)."""
    import math

    from ray.data.aggregate import Sum

    li = _read(sf_dir, "lineitem", ["l_discount", "l_returnflag"])

    def partial(t: pa.Table) -> pa.Table:
        d = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"d": d, "f": t["l_returnflag"].to_numpy(
            zero_copy_only=False), "n": 1}) \
            .groupby(["d", "f"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cnt = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby(["d", "f"]).aggregate(Sum("n", alias_name="n"))
    ).to_pandas()
    N = int(cnt["n"].sum())
    r = cnt.groupby("d")["n"].sum()
    cl = cnt.groupby("f")["n"].sum()
    mi = sum((int(row.n) / N)
             * math.log(int(row.n) * N
                        / (int(r[row.d]) * int(cl[row.f])))
             for row in cnt.itertuples())
    hx = -sum((int(v) / N) * math.log(int(v) / N) for v in r)
    hy = -sum((int(v) / N) * math.log(int(v) / N) for v in cl)
    return pd.DataFrame([{
        "n": N, "mi_nats": np.round(mi, 6),
        "h_discount": np.round(hx, 6),
        "h_flag": np.round(hy, 6)}]).astype({"n": np.int64})


SQL_MUTUAL_INFO = """
WITH pts AS (SELECT CAST(ROUND(l_discount * 100) AS BIGINT) AS d,
                    l_returnflag AS f FROM lineitem),
cnt AS (SELECT d, f, CAST(COUNT(*) AS BIGINT) AS n
        FROM pts GROUP BY 1, 2),
nn AS (SELECT SUM(n) AS n FROM cnt),
r AS (SELECT d, SUM(n) AS rn FROM cnt GROUP BY 1),
c AS (SELECT f, SUM(n) AS cn FROM cnt GROUP BY 1)
SELECT CAST(nn.n AS BIGINT) AS n,
       ROUND((SELECT SUM((CAST(cnt.n AS DOUBLE) / nn.n)
                         * ln(CAST(cnt.n AS DOUBLE) * nn.n
                              / (CAST(r.rn AS DOUBLE) * c.cn)))
              FROM cnt JOIN r ON cnt.d = r.d
                       JOIN c ON cnt.f = c.f), 6) AS mi_nats,
       ROUND((SELECT -SUM((CAST(rn AS DOUBLE) / nn.n)
                          * ln(CAST(rn AS DOUBLE) / nn.n))
              FROM r), 6) AS h_discount,
       ROUND((SELECT -SUM((CAST(cn AS DOUBLE) / nn.n)
                          * ln(CAST(cn AS DOUBLE) / nn.n))
              FROM c), 6) AS h_flag
FROM nn
"""


def q_sorted_neighborhood_pairs(sf_dir: str):
    """Sorted-neighborhood record linkage over the clean∪dirty part
    catalog — THE alternative blocking strategy to SymSpell deletion
    variants: sort everything by name, compare only records within a
    sliding rank window (w = 4 ⇒ rank gaps 1–3), verify with the
    shared vectorized Levenshtein.  Distribution: range-partition by
    the 2-char sort-key prefix (prefix order IS global name order),
    window pairs emitted per partition; pairs that CROSS a partition
    edge involve only each partition's first/last 3 rows, so those
    strips (plus exact partition sizes for global-rank reconstruction)
    stitch on the driver — partitions-bounded, never corpus-bounded."""
    from ...stages import fuzzy

    W = 3                                     # max rank gap
    clean, dirty = _fuzzy_sides(sf_dir)

    def pfx(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_pfx", pc.utf8_slice_codeunits(t["nm"], 0, 2))

    grouped = clean.union(dirty) \
        .map_batches(pfx, batch_format="pyarrow").groupby("_pfx")

    def window_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["nm", "id"]).reset_index(drop=True)
        ids = g["id"].to_numpy(np.int64)
        nms = g["nm"].tolist()
        a, b, d = [], [], []
        for gap in range(1, W + 1):
            if len(g) <= gap:
                break
            dist = fuzzy.batch_edit_distance(nms[:-gap], nms[gap:])
            ok = dist <= 1
            a.append(ids[:-gap][ok])
            b.append(ids[gap:][ok])
            d.append(dist[ok].astype(np.int64))
        if not a:
            return pd.DataFrame({"a": pd.Series([], dtype=np.int64),
                                 "b": pd.Series([], dtype=np.int64),
                                 "dist": pd.Series([], dtype=np.int64)})
        aa, bb = np.concatenate(a), np.concatenate(b)
        return pd.DataFrame({"a": np.minimum(aa, bb),
                             "b": np.maximum(aa, bb),
                             "dist": np.concatenate(d)})

    def strips(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["nm", "id"]).reset_index(drop=True)
        n = len(g)
        keep = sorted(set(range(min(W, n)))
                      | set(range(max(0, n - W), n)))
        return pd.DataFrame({
            "pfx": g["_pfx"].iloc[keep].to_numpy(),
            "id": g["id"].iloc[keep].to_numpy(np.int64),
            "nm": g["nm"].iloc[keep].to_numpy(),
            "rk": np.asarray(keep, dtype=np.int64),
            "bn": np.full(len(keep), n, dtype=np.int64)})

    inner = grouped.map_groups(window_pairs, batch_format="pandas")
    st = relational.ds_to_table(
        grouped.map_groups(strips, batch_format="pandas")).to_pandas()
    # reconstruct global ranks: offsets = prefix-ordered partition sizes
    sizes = st.groupby("pfx")["bn"].first().sort_index()
    offs = sizes.cumsum().shift(1, fill_value=0)
    st["grk"] = st["pfx"].map(offs).astype(np.int64) + st["rk"]
    st = st.sort_values("grk").reset_index(drop=True)
    cross = []
    for gap in range(1, W + 1):
        if len(st) <= gap:
            break
        lo, hi = st.iloc[:-gap], st.iloc[gap:]
        m = ((hi["grk"].to_numpy() - lo["grk"].to_numpy() == gap)
             & (hi["pfx"].to_numpy() != lo["pfx"].to_numpy()))
        if not m.any():
            continue
        from ...stages import fuzzy as _f
        dist = _f.batch_edit_distance(
            lo["nm"].to_numpy()[m].tolist(),
            hi["nm"].to_numpy()[m].tolist())
        ok = dist <= 1
        la = lo["id"].to_numpy(np.int64)[m][ok]
        lb = hi["id"].to_numpy(np.int64)[m][ok]
        cross.append(pd.DataFrame({"a": np.minimum(la, lb),
                                   "b": np.maximum(la, lb),
                                   "dist": dist[ok].astype(np.int64)}))
    out = pd.concat([relational.ds_to_table(inner).to_pandas()]
                    + cross, ignore_index=True) \
        .sort_values(["a", "b"]).reset_index(drop=True)
    return out.astype({"a": np.int64, "b": np.int64,
                       "dist": np.int64})


SQL_SNM_PAIRS = SQL_FUZZY_BASE + """,
u AS (SELECT id, nm FROM clean UNION ALL SELECT id, nm FROM dirty),
r AS (SELECT id, nm, ROW_NUMBER() OVER (ORDER BY nm, id) AS rn FROM u),
cand AS (
  SELECT r1.id AS ia, r2.id AS ib, r1.nm AS na, r2.nm AS nb
  FROM r r1 JOIN r r2 ON r2.rn - r1.rn BETWEEN 1 AND 3)
SELECT LEAST(ia, ib) AS a, GREATEST(ia, ib) AS b,
       CAST(levenshtein(na, nb) AS BIGINT) AS dist
FROM cand WHERE levenshtein(na, nb) <= 1 ORDER BY 1, 2
"""


def q_item_item_recs(sf_dir: str):
    """Item-item collaborative filtering: top-3 recommendations for 5
    target parts by co-purchase cosine c/√(nᵢ·nⱼ) over order baskets —
    the classic Amazon-style recommender expressed as counts.  The
    distinct (order, part) reduce runs once; only orders containing a
    TARGET join back (targets broadcast as a 5-key filter, never a
    parts×parts blow-up); nᵢ·nⱼ stays an exact int < 2⁵³ so the one
    mirrored sqrt-division orders identically on both sides."""
    from ray.data.aggregate import Count, Sum

    TGT = (1, 2, 3, 4, 5)
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def dpair(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "o": t["l_orderkey"].to_numpy(zero_copy_only=False),
            "p": t["l_partkey"].to_numpy(zero_copy_only=False)}) \
            .drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    op = li.map_batches(dpair, batch_format="pyarrow") \
        .groupby(["o", "p"]).aggregate(Count()) \
        .select_columns(["o", "p"]).materialize()
    ni = relational.ds_to_table(
        op.groupby("p").aggregate(Count())).to_pandas() \
        .rename(columns={"count()": "n"})
    tgt_orders = op.filter(
        expr=f"p in {list(TGT)}").map_batches(
        lambda t: pa.table({"o": t["o"], "tgt": t["p"]}),
        batch_format="pyarrow")
    j = relational.bucketed_hash_join(tgt_orders, op, on="o")

    def cc_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "tgt": t["tgt"].to_numpy(zero_copy_only=False),
            "rec": t["p"].to_numpy(zero_copy_only=False), "c": 1})
        df = df[df["tgt"] != df["rec"]]
        g = df.groupby(["tgt", "rec"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cc = relational.ds_to_table(
        j.map_batches(cc_partial, batch_format="pyarrow")
        .groupby(["tgt", "rec"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    nmap = ni.set_index("p")["n"]
    cc["sim"] = cc["c"].to_numpy(np.int64) / np.sqrt(
        (cc["tgt"].map(nmap).to_numpy(np.int64)
         * cc["rec"].map(nmap).to_numpy(np.int64)).astype(np.float64))
    out_rows = []
    for tgt, g in cc.groupby("tgt"):
        g = g.sort_values(["sim", "rec"],
                          ascending=[False, True]).head(3)
        for i, r in enumerate(g.itertuples(), start=1):
            out_rows.append({"part": int(tgt), "rnk": i,
                             "rec": int(r.rec), "n_cooc": int(r.c),
                             "sim": round(float(r.sim), 6)})
    return pd.DataFrame(out_rows).astype({
        "part": np.int64, "rnk": np.int64, "rec": np.int64,
        "n_cooc": np.int64})


SQL_ITEM_RECS = """
WITH op AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p
            FROM lineitem),
ni AS (SELECT p, CAST(COUNT(*) AS BIGINT) AS n FROM op GROUP BY 1),
t AS (SELECT o, p AS tgt FROM op WHERE p IN (1, 2, 3, 4, 5)),
cc AS (SELECT t.tgt, op.p AS rec, CAST(COUNT(*) AS BIGINT) AS c
       FROM t JOIN op USING (o) WHERE op.p <> t.tgt GROUP BY 1, 2),
s AS (SELECT cc.tgt, cc.rec, cc.c,
             cc.c / sqrt(CAST(a.n * b.n AS DOUBLE)) AS sim
      FROM cc JOIN ni a ON a.p = cc.tgt JOIN ni b ON b.p = cc.rec),
r AS (SELECT tgt, rec, c, sim,
             ROW_NUMBER() OVER (PARTITION BY tgt
                                ORDER BY sim DESC, rec) AS rnk
      FROM s)
SELECT tgt AS part, CAST(rnk AS BIGINT) AS rnk, rec,
       c AS n_cooc, ROUND(sim, 6) AS sim
FROM r WHERE rnk <= 3 ORDER BY 1, 2
"""


def q_blocking_recall_compare(sf_dir: str):
    """Head-to-head blocking-strategy evaluation: SymSpell
    deletion-variant blocking vs sorted-neighborhood, measured on the
    KNOWN ground truth (every clean record k has a ≤1-edit dirty twin
    k+10⁶ by construction) — candidate volume vs true-match recall,
    the tradeoff every entity-resolution deployment tunes.  Reuses
    both pipelines verbatim; counts are exact, recall the one
    mirrored division."""
    fuzzy_pairs = relational.ds_to_table(
        q_fuzzy_match_pairs(sf_dir)).to_pandas()
    snm = q_sorted_neighborhood_pairs(sf_dir)
    import pyarrow.parquet as pqt
    n_true = pqt.read_metadata(
        f"{sf_dir}/part.parquet").num_rows
    rows = []
    for method, df in (("fuzzy_block", fuzzy_pairs),
                       ("sorted_neighborhood", snm)):
        found = int((df["b"].to_numpy(np.int64)
                     == df["a"].to_numpy(np.int64) + 1000000).sum())
        rows.append({"method": method, "n_pairs": len(df),
                     "n_true_found": found, "n_true_total": n_true,
                     "recall": round(found / float(n_true), 6)})
    return pd.DataFrame(rows).astype({
        "n_pairs": np.int64, "n_true_found": np.int64,
        "n_true_total": np.int64})


SQL_BLOCKING_RECALL = SQL_FUZZY_BASE + """,
u AS (SELECT id, nm FROM clean UNION ALL SELECT id, nm FROM dirty),
r AS (SELECT id, nm, ROW_NUMBER() OVER (ORDER BY nm, id) AS rn FROM u),
cand AS (SELECT r1.id AS ia, r2.id AS ib, r1.nm AS na, r2.nm AS nb
         FROM r r1 JOIN r r2 ON r2.rn - r1.rn BETWEEN 1 AND 3),
snm AS (SELECT LEAST(ia, ib) AS a, GREATEST(ia, ib) AS b FROM cand
        WHERE levenshtein(na, nb) <= 1),
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM clean)
SELECT 'fuzzy_block' AS method,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM pairs) AS n_pairs,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM pairs
        WHERE b = a + 1000000) AS n_true_found,
       tot.n AS n_true_total,
       ROUND((SELECT COUNT(*) FROM pairs WHERE b = a + 1000000)
             / CAST(tot.n AS DOUBLE), 6) AS recall
FROM tot
UNION ALL
SELECT 'sorted_neighborhood',
       (SELECT CAST(COUNT(*) AS BIGINT) FROM snm),
       (SELECT CAST(COUNT(*) AS BIGINT) FROM snm
        WHERE b = a + 1000000),
       tot.n,
       ROUND((SELECT COUNT(*) FROM snm WHERE b = a + 1000000)
             / CAST(tot.n AS DOUBLE), 6)
FROM tot
ORDER BY 1
"""


def q_selectivity_independence_audit(sf_dir: str):
    """Query-optimizer cardinality audit: for every
    (l_returnflag × l_linestatus) conjunction, the ACTUAL row count
    vs the independence-assumption estimate n·p(a)·p(b) — the error a
    learned-cardinality model exists to fix; ratio > 1 means the
    optimizer under-estimates the conjunction.  One (flag × status)
    bounded count reduce gives actuals AND both marginals; expected
    and ratio are the mirrored float expressions."""
    from ray.data.aggregate import Sum

    li = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus"])

    def partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({
            "flag": t["l_returnflag"].to_numpy(zero_copy_only=False),
            "status": t["l_linestatus"].to_numpy(
                zero_copy_only=False), "n": 1}) \
            .groupby(["flag", "status"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cnt = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby(["flag", "status"]).aggregate(Sum("n",
                                                   alias_name="n"))
    ).to_pandas()
    N = int(cnt["n"].sum())
    mf = cnt.groupby("flag")["n"].sum()
    ms = cnt.groupby("status")["n"].sum()
    cnt["expected"] = np.round(
        cnt["flag"].map(mf).to_numpy(np.float64)
        * cnt["status"].map(ms).to_numpy(np.int64) / N, 4)
    cnt["ratio"] = np.round(
        cnt["n"].to_numpy(np.int64)
        / (cnt["flag"].map(mf).to_numpy(np.float64)
           * cnt["status"].map(ms).to_numpy(np.int64) / N), 6)
    out = cnt.sort_values(["flag", "status"]).reset_index(drop=True) \
        .rename(columns={"n": "actual"})
    return out.astype({"actual": np.int64})


SQL_SELECTIVITY = """
WITH c AS (SELECT l_returnflag AS flag, l_linestatus AS status,
                  CAST(COUNT(*) AS BIGINT) AS actual
           FROM lineitem GROUP BY 1, 2),
nn AS (SELECT SUM(actual) AS n FROM c),
mf AS (SELECT flag, SUM(actual) AS n FROM c GROUP BY 1),
ms AS (SELECT status, SUM(actual) AS n FROM c GROUP BY 1)
SELECT c.flag, c.status, c.actual,
       ROUND(CAST(mf.n AS DOUBLE) * ms.n / nn.n, 4) AS expected,
       ROUND(c.actual / (CAST(mf.n AS DOUBLE) * ms.n / nn.n), 6)
         AS ratio
FROM c JOIN mf USING (flag) JOIN ms USING (status), nn
ORDER BY 1, 2
"""


def q_er_transitivity_audit(sf_dir: str):
    """Entity-resolution transitivity audit: inside each fuzzy
    cluster, how many record pairs are IMPLIED by the clustering
    (ΣC(size,2)) vs DIRECTLY verified (edit distance ≤ 1)?  The gap
    is the chain-merge risk every ER deployment monitors — a cluster
    glued by A~B~C with A≁C may be an over-merge.  Reuses the
    memoized cluster labels and the pair pipeline; the twin composes
    the identical recursive closure."""
    lbl = _fuzzy_cluster_labels(sf_dir)
    sizes = lbl.groupby("label")["node"].size()
    implied = int((sizes * (sizes - 1) // 2).sum())
    n_clusters = int((sizes > 1).sum())
    direct = int(relational.ds_to_table(
        q_fuzzy_match_pairs(sf_dir)).num_rows)
    return pd.DataFrame([{
        "n_clusters": n_clusters, "implied_pairs": implied,
        "direct_pairs": direct,
        "transitive_only": implied - direct,
        "violation_ratio": round((implied - direct) / float(implied),
                                 6)}]).astype({
            "n_clusters": np.int64, "implied_pairs": np.int64,
            "direct_pairs": np.int64, "transitive_only": np.int64})


SQL_ER_TRANSITIVITY = SQL_FUZZY_CLUSTERS.replace(
    "SELECT node, MIN(lbl) AS label FROM (", """, labels AS (
SELECT node, MIN(lbl) AS label FROM (""") + """
),
sz AS (SELECT label, CAST(COUNT(*) AS BIGINT) AS s
       FROM labels GROUP BY label)
SELECT CAST(SUM(CASE WHEN s > 1 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_clusters,
       CAST(SUM(s * (s - 1) // 2) AS BIGINT) AS implied_pairs,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM pairs) AS direct_pairs,
       CAST(SUM(s * (s - 1) // 2)
            - (SELECT COUNT(*) FROM pairs) AS BIGINT)
         AS transitive_only,
       ROUND((SUM(s * (s - 1) // 2)
              - (SELECT COUNT(*) FROM pairs))
             / CAST(SUM(s * (s - 1) // 2) AS DOUBLE), 6)
         AS violation_ratio
FROM sz
"""


def q_ransac_price_line(sf_dir: str):
    """Deterministic RANSAC line fit of extended price on quantity:
    candidate lines come from 5 DATA-DRIVEN point pairs (the first 10
    rows with l_orderkey % 100 = 1 ∧ l_linenumber = 1 in orderkey
    order, paired consecutively — reproducible, no RNG), the winner
    maximizes inliers |resid| ≤ $5 over the WHOLE table.  Slopes and
    residuals derive from exact cents ints through identical float
    ops on both sides, so the inlier comparisons cannot flip; one
    streaming inlier-count pass scores all candidates at once."""
    from ray.data.aggregate import Sum

    import pyarrow.dataset as pads

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity",
                "l_extendedprice"])
    seed_t = relational.ds_to_table(
        _read(sf_dir, "lineitem",
              ["l_orderkey", "l_linenumber", "l_quantity",
               "l_extendedprice"],
              filter=(pads.field("l_linenumber") == 1))
    ).to_pandas()
    seed_t = seed_t[seed_t["l_orderkey"] % 100 == 1] \
        .sort_values("l_orderkey").head(10).reset_index(drop=True)
    cands = []
    for c in range(len(seed_t) // 2):
        p1, p2 = seed_t.iloc[2 * c], seed_t.iloc[2 * c + 1]
        x1, y1 = float(p1["l_quantity"]), round(
            float(p1["l_extendedprice"]) * 100.0)
        x2, y2 = float(p2["l_quantity"]), round(
            float(p2["l_extendedprice"]) * 100.0)
        if x1 == x2:
            continue
        cands.append((c + 1, x1, y1, (y2 - y1) / (x2 - x1)))

    def count_inliers(t: pa.Table) -> pa.Table:
        x = t["l_quantity"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        y = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0)
        rows = {"cand": [], "inl": []}
        for cid, x1, y1, slope in cands:
            resid = y - (y1 + slope * (x - x1))
            rows["cand"].append(cid)
            rows["inl"].append(int((np.abs(resid) <= 500.0).sum()))
        return pa.table({"cand": pa.array(rows["cand"],
                                          type=pa.int64()),
                         "inl": pa.array(rows["inl"],
                                         type=pa.int64())})

    inl = relational.ds_to_table(
        li.map_batches(count_inliers, batch_format="pyarrow")
        .groupby("cand").aggregate(Sum("inl", alias_name="inliers"))
    ).to_pandas().set_index("cand")["inliers"]
    best = max(cands, key=lambda c: (int(inl[c[0]]), -c[0]))[0]
    out = pd.DataFrame([{
        "cand": cid, "slope": np.round(slope, 6),
        "inliers": int(inl[cid]), "is_best": bool(cid == best)}
        for cid, x1, y1, slope in cands])
    return out.astype({"cand": np.int64, "inliers": np.int64})


SQL_RANSAC = """
WITH seed AS (
  SELECT l_quantity AS x,
         CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS y,
         ROW_NUMBER() OVER (ORDER BY l_orderkey) AS rn
  FROM lineitem
  WHERE l_orderkey % 100 = 1 AND l_linenumber = 1
  QUALIFY rn <= 10),
cand AS (
  SELECT CAST((a.rn + 1) // 2 AS BIGINT) AS cand,
         a.x AS x1, a.y AS y1,
         (b.y - a.y) / (b.x - a.x) AS slope
  FROM seed a JOIN seed b ON b.rn = a.rn + 1
  WHERE a.rn % 2 = 1 AND a.x <> b.x),
inl AS (
  SELECT c.cand, c.slope,
         CAST(SUM(CASE WHEN ABS(
             CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
             - (c.y1 + c.slope * (l.l_quantity - c.x1)))
             <= 500.0 THEN 1 ELSE 0 END) AS BIGINT) AS inliers
  FROM cand c CROSS JOIN lineitem l GROUP BY 1, 2),
best AS (SELECT cand FROM inl ORDER BY inliers DESC, cand LIMIT 1)
SELECT i.cand, ROUND(i.slope, 6) AS slope, i.inliers,
       i.cand = (SELECT cand FROM best) AS is_best
FROM inl i ORDER BY i.cand
"""


def q_corr_matrix_lineitem(sf_dir: str):
    """Full Pearson correlation matrix of four line-item measures
    (quantity, dollar price, discount %, tax %) from ONE streaming
    pass: every power sum and all six cross sums fold as exact ints
    (dollar quantization bounds Σprice² under int64 to ~10⁹ rows; the
    twin's HUGEINT has no bound), the finish evaluates each r with
    arbitrary-precision numerators cast to double exactly once —
    computing 6 correlations for the price of one table scan is the
    point."""
    from ray.data.aggregate import Sum

    COLS = ("qty", "price", "disc", "tax")
    li = _read(sf_dir, "lineitem",
               ["l_quantity", "l_extendedprice", "l_discount",
                "l_tax"])

    def partial(t: pa.Table) -> pa.Table:
        v = {"qty": np.round(t["l_quantity"].to_numpy(
                zero_copy_only=False)).astype(np.int64),
             "price": np.round(t["l_extendedprice"].to_numpy(
                 zero_copy_only=False)).astype(np.int64),
             "disc": np.round(t["l_discount"].to_numpy(
                 zero_copy_only=False) * 100.0).astype(np.int64),
             "tax": np.round(t["l_tax"].to_numpy(
                 zero_copy_only=False) * 100.0).astype(np.int64)}
        row = {"n": np.array([len(v["qty"])], dtype=np.int64)}
        for i, a in enumerate(COLS):
            row[f"s_{a}"] = np.array([v[a].sum()])
            for b in COLS[i:]:
                row[f"s_{a}_{b}"] = np.array([(v[a] * v[b]).sum()])
        return pa.table({k: pa.array(x) for k, x in row.items()})

    aggs = [Sum("n", alias_name="n")]
    for i, a in enumerate(COLS):
        aggs.append(Sum(f"s_{a}", alias_name=f"s_{a}"))
        for b in COLS[i:]:
            aggs.append(Sum(f"s_{a}_{b}", alias_name=f"s_{a}_{b}"))
    tot = li.map_batches(partial, batch_format="pyarrow") \
        .aggregate(*aggs)
    n = int(tot["n"])
    s = {a: int(tot[f"s_{a}"]) for a in COLS}
    ss = {}
    for i, a in enumerate(COLS):
        for b in COLS[i:]:
            ss[(a, b)] = int(tot[f"s_{a}_{b}"])
    rows = []
    for i, a in enumerate(COLS):
        for b in COLS[i + 1:]:
            num = n * ss[(a, b)] - s[a] * s[b]
            va = n * ss[(a, a)] - s[a] * s[a]
            vb = n * ss[(b, b)] - s[b] * s[b]
            rows.append({
                "x": a, "y": b,
                "r": np.round(float(num)
                              / (np.sqrt(float(va))
                                 * np.sqrt(float(vb))), 6)})
    return pd.DataFrame(rows).sort_values(["x", "y"]) \
        .reset_index(drop=True)


SQL_CORR_MATRIX = """
WITH q AS (SELECT CAST(ROUND(l_quantity) AS HUGEINT) AS qty,
                  CAST(ROUND(l_extendedprice) AS HUGEINT) AS price,
                  CAST(ROUND(l_discount * 100) AS HUGEINT) AS disc,
                  CAST(ROUND(l_tax * 100) AS HUGEINT) AS tax
           FROM lineitem),
t AS (SELECT COUNT(*) AS n,
             SUM(qty) AS s_qty, SUM(price) AS s_price,
             SUM(disc) AS s_disc, SUM(tax) AS s_tax,
             SUM(qty * qty) AS s_qty_qty,
             SUM(qty * price) AS s_qty_price,
             SUM(qty * disc) AS s_qty_disc,
             SUM(qty * tax) AS s_qty_tax,
             SUM(price * price) AS s_price_price,
             SUM(price * disc) AS s_price_disc,
             SUM(price * tax) AS s_price_tax,
             SUM(disc * disc) AS s_disc_disc,
             SUM(disc * tax) AS s_disc_tax,
             SUM(tax * tax) AS s_tax_tax
      FROM q)
SELECT x, y, ROUND(CAST(num AS DOUBLE)
                   / (sqrt(CAST(va AS DOUBLE))
                      * sqrt(CAST(vb AS DOUBLE))), 6) AS r
FROM (
  SELECT 'qty' AS x, 'disc' AS y,
         n * s_qty_disc - s_qty * s_disc AS num,
         n * s_qty_qty - s_qty * s_qty AS va,
         n * s_disc_disc - s_disc * s_disc AS vb FROM t
  UNION ALL SELECT 'disc', 'tax',
         n * s_disc_tax - s_disc * s_tax,
         n * s_disc_disc - s_disc * s_disc,
         n * s_tax_tax - s_tax * s_tax FROM t
  UNION ALL SELECT 'price', 'disc',
         n * s_price_disc - s_price * s_disc,
         n * s_price_price - s_price * s_price,
         n * s_disc_disc - s_disc * s_disc FROM t
  UNION ALL SELECT 'price', 'tax',
         n * s_price_tax - s_price * s_tax,
         n * s_price_price - s_price * s_price,
         n * s_tax_tax - s_tax * s_tax FROM t
  UNION ALL SELECT 'qty', 'price',
         n * s_qty_price - s_qty * s_price,
         n * s_qty_qty - s_qty * s_qty,
         n * s_price_price - s_price * s_price FROM t
  UNION ALL SELECT 'qty', 'tax',
         n * s_qty_tax - s_qty * s_tax,
         n * s_qty_qty - s_qty * s_qty,
         n * s_tax_tax - s_tax * s_tax FROM t)
ORDER BY x, y
"""


def q_abc_xyz_matrix(sf_dir: str):
    """ABC×XYZ inventory matrix — the two-axis classification every
    supply planner keeps: revenue importance (A/B/C by the
    abc-analysis integer rule on cumulative cents) crossed with
    demand REGULARITY (X/Y/Z by the coefficient of variation of
    weekly quantity, zero-weeks included).  The cv thresholds ½ and 1
    apply as pure-integer comparisons — X: 4·(W·SS−S²) ≤ S², Y:
    (W·SS−S²) ≤ S² — so no float ever decides a class.  The two
    per-part tables meet in a bucketed hash join whose combine hook
    fuses the final matrix groupby into the join's own shuffle."""
    from ray.data.aggregate import Max, Sum

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_quantity",
                "l_shipdate"])

    def rev_partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"p": t["l_partkey"].to_numpy(
            zero_copy_only=False).astype(np.int64), "pc_": cents}) \
            .groupby("p", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    rev = li.map_batches(rev_partial, batch_format="pyarrow") \
        .groupby("p").aggregate(Sum("pc_", alias_name="rev")) \
        .materialize()
    mx = int(rev.aggregate(Max("rev", alias_name="m"))["m"])
    total = int(rev.aggregate(Sum("rev", alias_name="s"))["s"])

    def with_key(t: pa.Table) -> pa.Table:
        from ...stages.relational import pack_desc_rank_key
        r = t["rev"].to_numpy(zero_copy_only=False).astype(np.int64)
        p = t["p"].to_numpy(zero_copy_only=False).astype(np.int64)
        key = pack_desc_rank_key(r, mx, p)
        return pa.table({"p": pa.array(p), "rev": pa.array(r),
                         "key": pa.array(key)})

    ranked = relational.global_prefix_sum(
        rev.map_batches(with_key, batch_format="pyarrow"),
        order_col="key", value_col="rev", out_col="cum")

    def abc(t: pa.Table) -> pa.Table:
        cum = t["cum"].to_numpy(zero_copy_only=False).astype(np.int64)
        cls = np.where(20 * cum <= 16 * total, "A",
                       np.where(20 * cum <= 19 * total, "B", "C"))
        return pa.table({"p": t["p"], "rev": t["rev"],
                         "abc_class": pa.array(cls)})

    abc_ds = ranked.map_batches(abc, batch_format="pyarrow")

    def wk_partial(t: pa.Table) -> pa.Table:
        wk = t["l_shipdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64) // 7
        q = np.round(t["l_quantity"].to_numpy(
            zero_copy_only=False)).astype(np.int64)
        g = pd.DataFrame({"p": t["l_partkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "wk": wk, "q": q}) \
            .groupby(["p", "wk"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    pw = li.map_batches(wk_partial, batch_format="pyarrow") \
        .groupby(["p", "wk"]).aggregate(Sum("q", alias_name="q")) \
        .materialize()
    W = len(pw.map_batches(lambda t: pa.table({"wk": t["wk"]}),
                           batch_format="pyarrow").unique("wk"))

    def xyz_partial(t: pa.Table) -> pa.Table:
        q = t["q"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = pd.DataFrame({"p": t["p"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "s": q, "ss": q * q}) \
            .groupby("p", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    def xyz(t: pa.Table) -> pa.Table:
        s = t["s"].to_numpy(zero_copy_only=False).astype(np.int64)
        ss = t["ss"].to_numpy(zero_copy_only=False).astype(np.int64)
        num = W * ss - s * s                  # W² · var · (S/W)² scale
        cls = np.where(4 * num <= s * s, "X",
                       np.where(num <= s * s, "Y", "Z"))
        return pa.table({"p": t["p"], "xyz_class": pa.array(cls)})

    xyz_ds = pw.map_batches(xyz_partial, batch_format="pyarrow") \
        .groupby("p").aggregate(Sum("s", alias_name="s"),
                                Sum("ss", alias_name="ss")) \
        .map_batches(xyz, batch_format="pyarrow")

    def combine(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({
            "abc_class": t["abc_class"].to_pandas(),
            "xyz_class": t["xyz_class"].to_pandas(),
            "pn": 1,
            "pc_": t["rev"].to_numpy(zero_copy_only=False)}) \
            .groupby(["abc_class", "xyz_class"], sort=False) \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    res = relational.ds_to_table(
        relational.bucketed_hash_join(abc_ds, xyz_ds, on="p",
                                      combine=combine)
        .groupby(["abc_class", "xyz_class"]).aggregate(
            Sum("pn", alias_name="n_parts"),
            Sum("pc_", alias_name="revenue_c"))
    ).to_pandas().sort_values(["abc_class", "xyz_class"]) \
        .reset_index(drop=True)
    return res.astype({"n_parts": np.int64, "revenue_c": np.int64})


SQL_ABC_XYZ = """
WITH pr AS (SELECT l_partkey AS p,
                   SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT))
                     AS rev
            FROM lineitem GROUP BY 1),
tot AS (SELECT SUM(rev) AS total FROM pr),
rk AS (SELECT p, rev,
              SUM(rev) OVER (ORDER BY rev DESC, p
                             ROWS UNBOUNDED PRECEDING) AS cum
       FROM pr),
ac AS (SELECT p, rev,
              CASE WHEN 20 * cum <= 16 * total THEN 'A'
                   WHEN 20 * cum <= 19 * total THEN 'B'
                   ELSE 'C' END AS abc_class
       FROM rk, tot),
pwk AS (SELECT l_partkey AS p,
               DATEDIFF('day', DATE '1970-01-01',
                        CAST(l_shipdate AS DATE)) // 7 AS wk,
               SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS q
        FROM lineitem GROUP BY 1, 2),
wt AS (SELECT CAST(COUNT(DISTINCT wk) AS BIGINT) AS w FROM pwk),
st AS (SELECT p, SUM(q) AS s, SUM(q * q) AS ss FROM pwk GROUP BY 1),
xc AS (SELECT p,
              CASE WHEN 4 * (w * ss - s * s) <= s * s THEN 'X'
                   WHEN (w * ss - s * s) <= s * s THEN 'Y'
                   ELSE 'Z' END AS xyz_class
       FROM st, wt)
SELECT abc_class, xyz_class,
       CAST(COUNT(*) AS BIGINT) AS n_parts,
       CAST(SUM(rev) AS BIGINT) AS revenue_c
FROM ac JOIN xc USING (p)
GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_fisher_price_index(sf_dir: str):
    """Laspeyres / Paasche / Fisher price indices between the first
    and last shipment year over parts traded in BOTH — the national-
    accounts deflator math: base-weighted vs current-weighted price
    relatives and their geometric compromise.  Unit prices derive
    from exact (cents, qty) integer pairs per part-year folded in one
    reduce; the index sums run over the bounded per-part table with
    the twin's double expression term by term."""
    from ray.data.aggregate import Max, Min, Sum

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_quantity",
                "l_shipdate"])

    def partial(t: pa.Table) -> pa.Table:
        yr = t["l_shipdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[Y]").astype(np.int64) + 1970
        cents = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        q = np.round(t["l_quantity"].to_numpy(
            zero_copy_only=False)).astype(np.int64)
        g = pd.DataFrame({"p": t["l_partkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "yr": yr, "c": cents, "q": q}) \
            .groupby(["p", "yr"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    py = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby(["p", "yr"]).aggregate(Sum("c", alias_name="c"),
                                        Sum("q", alias_name="q"))
    ).to_pandas()
    y0, y1 = int(py["yr"].min()), int(py["yr"].max())
    a = py[py["yr"] == y0].set_index("p")
    b = py[py["yr"] == y1].set_index("p")
    common = a.index.intersection(b.index)
    a, b = a.loc[common], b.loc[common]
    keep = (a["q"] > 0).to_numpy() & (b["q"] > 0).to_numpy()
    c0 = a["c"].to_numpy(np.int64)[keep].astype(np.float64)
    q0 = a["q"].to_numpy(np.int64)[keep].astype(np.float64)
    c1 = b["c"].to_numpy(np.int64)[keep].astype(np.float64)
    q1 = b["q"].to_numpy(np.int64)[keep].astype(np.float64)
    p0, p1 = c0 / q0, c1 / q1
    lasp = float(np.sum(p1 * q0)) / float(np.sum(p0 * q0))
    paas = float(np.sum(p1 * q1)) / float(np.sum(p0 * q1))
    return pd.DataFrame({
        "year0": [y0], "year1": [y1],
        "n_parts": [int(keep.sum())],
        "laspeyres": [round(lasp, 6)], "paasche": [round(paas, 6)],
        "fisher": [round(float(np.sqrt(lasp * paas)), 6)]})


SQL_FISHER = """
WITH py AS (SELECT l_partkey AS p,
                   EXTRACT(year FROM l_shipdate) AS yr,
                   SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT))
                     AS c,
                   SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS q
            FROM lineitem GROUP BY 1, 2),
yy AS (SELECT MIN(yr) AS y0, MAX(yr) AS y1 FROM py),
j AS (SELECT a.p,
             CAST(a.c AS DOUBLE) / a.q AS p0,
             CAST(a.q AS DOUBLE) AS q0,
             CAST(b.c AS DOUBLE) / b.q AS p1,
             CAST(b.q AS DOUBLE) AS q1
      FROM py a JOIN py b ON a.p = b.p, yy
      WHERE a.yr = yy.y0 AND b.yr = yy.y1
        AND a.q > 0 AND b.q > 0),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_parts,
             SUM(p1 * q0) / SUM(p0 * q0) AS lasp,
             SUM(p1 * q1) / SUM(p0 * q1) AS paas
      FROM j)
SELECT yy.y0 AS year0, yy.y1 AS year1, s.n_parts,
       ROUND(lasp, 6) AS laspeyres, ROUND(paas, 6) AS paasche,
       ROUND(SQRT(lasp * paas), 6) AS fisher
FROM s, yy
"""


def q_mahalanobis_outliers(sf_dir: str):
    """Top-20 multivariate outlier line items by diagonal-covariance
    Mahalanobis distance over (qty, price, discount, tax) — the
    4-axis generalization of the z-score that flags rows unusual in
    COMBINATION (cheap-but-huge-quantity) that no single-column
    screen sees.  Moments fold as exact ints (HUGEINT twin); the
    scoring pass re-reads with per-batch top-20 prune under the total
    (rounded d² DESC, orderkey, linenumber) order."""
    from ray.data.aggregate import Sum

    COLS = ("qty", "price", "disc", "tax")
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity",
                "l_extendedprice", "l_discount", "l_tax"])

    def ints(t: pa.Table):
        # floor(x+0.5): DuckDB ROUND is half-AWAY; np.round is half-
        # even, and whole-dollar prices DO land exactly on .5 ties
        return {
            "qty": np.floor(t["l_quantity"].to_numpy(
                zero_copy_only=False) + 0.5).astype(np.int64),
            "price": np.floor(t["l_extendedprice"].to_numpy(
                zero_copy_only=False) + 0.5).astype(np.int64),
            "disc": np.floor(t["l_discount"].to_numpy(
                zero_copy_only=False) * 100.0 + 0.5).astype(np.int64),
            "tax": np.floor(t["l_tax"].to_numpy(
                zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)}

    def stats(t: pa.Table) -> pa.Table:
        v = ints(t)
        row = {"n": np.array([t.num_rows], dtype=np.int64)}
        for c in COLS:
            row[f"s_{c}"] = np.array([v[c].sum()])
            row[f"ss_{c}"] = np.array([(v[c] * v[c]).sum()])
        return pa.table({k: pa.array(x) for k, x in row.items()})

    aggs = [Sum("n", alias_name="n")]
    for c in COLS:
        aggs += [Sum(f"s_{c}", alias_name=f"s_{c}"),
                 Sum(f"ss_{c}", alias_name=f"ss_{c}")]
    tot = li.map_batches(stats, batch_format="pyarrow") \
        .aggregate(*aggs)
    N = int(tot["n"])
    mu = {c: float(tot[f"s_{c}"]) / N for c in COLS}
    sd = {c: float(np.sqrt(float(tot[f"ss_{c}"]) / N
                           - mu[c] * mu[c])) for c in COLS}

    def score(t: pa.Table) -> pa.Table:
        v = ints(t)
        d2 = np.zeros(t.num_rows, dtype=np.float64)
        for c in COLS:
            z = (v[c].astype(np.float64) - mu[c]) / sd[c]
            d2 = d2 + z * z
        out = pd.DataFrame({
            "l_orderkey": t["l_orderkey"].to_numpy(
                zero_copy_only=False),
            "l_linenumber": t["l_linenumber"].to_numpy(
                zero_copy_only=False).astype(np.int64),
            "d2": np.round(d2, 6)})
        return pa.Table.from_pandas(
            out.sort_values(["d2", "l_orderkey", "l_linenumber"],
                            ascending=[False, True, True]).head(20),
            preserve_index=False)

    res = relational.ds_to_table(
        li.map_batches(score, batch_format="pyarrow")).to_pandas()
    return res.sort_values(["d2", "l_orderkey", "l_linenumber"],
                           ascending=[False, True, True]).head(20) \
        .reset_index(drop=True)


SQL_MAHALANOBIS = """
WITH v AS (SELECT l_orderkey, l_linenumber,
                  CAST(ROUND(l_quantity) AS HUGEINT) AS qty,
                  CAST(ROUND(l_extendedprice) AS HUGEINT) AS price,
                  CAST(ROUND(l_discount * 100) AS HUGEINT) AS disc,
                  CAST(ROUND(l_tax * 100) AS HUGEINT) AS tax
           FROM lineitem),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(qty) AS DOUBLE) / COUNT(*) AS m_qty,
             CAST(SUM(price) AS DOUBLE) / COUNT(*) AS m_price,
             CAST(SUM(disc) AS DOUBLE) / COUNT(*) AS m_disc,
             CAST(SUM(tax) AS DOUBLE) / COUNT(*) AS m_tax,
             SQRT(CAST(SUM(qty * qty) AS DOUBLE) / COUNT(*)
                  - (CAST(SUM(qty) AS DOUBLE) / COUNT(*))
                    * (CAST(SUM(qty) AS DOUBLE) / COUNT(*)))
               AS s_qty,
             SQRT(CAST(SUM(price * price) AS DOUBLE) / COUNT(*)
                  - (CAST(SUM(price) AS DOUBLE) / COUNT(*))
                    * (CAST(SUM(price) AS DOUBLE) / COUNT(*)))
               AS s_price,
             SQRT(CAST(SUM(disc * disc) AS DOUBLE) / COUNT(*)
                  - (CAST(SUM(disc) AS DOUBLE) / COUNT(*))
                    * (CAST(SUM(disc) AS DOUBLE) / COUNT(*)))
               AS s_disc,
             SQRT(CAST(SUM(tax * tax) AS DOUBLE) / COUNT(*)
                  - (CAST(SUM(tax) AS DOUBLE) / COUNT(*))
                    * (CAST(SUM(tax) AS DOUBLE) / COUNT(*)))
               AS s_tax
      FROM v),
d AS (SELECT l_orderkey, l_linenumber,
             ROUND(((CAST(qty AS DOUBLE) - m_qty) / s_qty)
                   * ((CAST(qty AS DOUBLE) - m_qty) / s_qty)
                 + ((CAST(price AS DOUBLE) - m_price) / s_price)
                   * ((CAST(price AS DOUBLE) - m_price) / s_price)
                 + ((CAST(disc AS DOUBLE) - m_disc) / s_disc)
                   * ((CAST(disc AS DOUBLE) - m_disc) / s_disc)
                 + ((CAST(tax AS DOUBLE) - m_tax) / s_tax)
                   * ((CAST(tax AS DOUBLE) - m_tax) / s_tax), 6)
               AS d2
      FROM v, t)
SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber, d2
FROM d ORDER BY d2 DESC, l_orderkey, l_linenumber LIMIT 20
"""


def q_partial_correlation(sf_dir: str):
    """Partial correlation of quantity and dollar price CONTROLLING
    for discount — r_xy·z = (r_xy − r_xz·r_yz)/√((1−r_xz²)(1−r_yz²)),
    the 'is the raw correlation just the confounder' test.  All three
    pairwise r's come from the SAME one-pass exact-int moment fold as
    the correlation matrix (HUGEINT twin); the partial is one more
    mirrored double expression."""
    from ray.data.aggregate import Sum

    COLS = ("qty", "price", "disc")
    li = _read(sf_dir, "lineitem",
               ["l_quantity", "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        v = {"qty": np.floor(t["l_quantity"].to_numpy(
                zero_copy_only=False) + 0.5).astype(np.int64),
             "price": np.floor(t["l_extendedprice"].to_numpy(
                 zero_copy_only=False) + 0.5).astype(np.int64),
             "disc": np.floor(t["l_discount"].to_numpy(
                 zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)}
        row = {"n": np.array([t.num_rows], dtype=np.int64)}
        for i, a in enumerate(COLS):
            row[f"s_{a}"] = np.array([v[a].sum()])
            for b in COLS[i:]:
                row[f"s_{a}_{b}"] = np.array([(v[a] * v[b]).sum()])
        return pa.table({k: pa.array(x) for k, x in row.items()})

    aggs = [Sum("n", alias_name="n")]
    for i, a in enumerate(COLS):
        aggs.append(Sum(f"s_{a}", alias_name=f"s_{a}"))
        for b in COLS[i:]:
            aggs.append(Sum(f"s_{a}_{b}", alias_name=f"s_{a}_{b}"))
    tot = li.map_batches(partial, batch_format="pyarrow") \
        .aggregate(*aggs)
    n = int(tot["n"])
    s = {a: int(tot[f"s_{a}"]) for a in COLS}
    ss = {}
    for i, a in enumerate(COLS):
        for b in COLS[i:]:
            ss[(a, b)] = int(tot[f"s_{a}_{b}"])

    def r(a, b):
        key = (a, b) if (a, b) in ss else (b, a)
        num = n * ss[key] - s[a] * s[b]
        va = n * ss[(a, a)] - s[a] * s[a]
        vb = n * ss[(b, b)] - s[b] * s[b]
        return float(num) / (np.sqrt(float(va)) * np.sqrt(float(vb)))

    rxy = r("qty", "price")
    rxz = r("qty", "disc")
    ryz = r("price", "disc")
    pr = (rxy - rxz * ryz) / np.sqrt((1 - rxz * rxz)
                                     * (1 - ryz * ryz))
    return pd.DataFrame({
        "r_qty_price": [round(rxy, 6)], "r_qty_disc": [round(rxz, 6)],
        "r_price_disc": [round(ryz, 6)],
        "partial_r": [round(float(pr), 6)]})


SQL_PARTIAL_CORR = """
WITH v AS (SELECT CAST(ROUND(l_quantity) AS HUGEINT) AS x,
                  CAST(ROUND(l_extendedprice) AS HUGEINT) AS y,
                  CAST(ROUND(l_discount * 100) AS HUGEINT) AS z
           FROM lineitem),
t AS (SELECT COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
             SUM(z) AS sz, SUM(x * x) AS sxx, SUM(y * y) AS syy,
             SUM(z * z) AS szz, SUM(x * y) AS sxy,
             SUM(x * z) AS sxz, SUM(y * z) AS syz
      FROM v),
rr AS (SELECT
         CAST(n * sxy - sx * sy AS DOUBLE)
           / (SQRT(CAST(n * sxx - sx * sx AS DOUBLE))
              * SQRT(CAST(n * syy - sy * sy AS DOUBLE))) AS rxy,
         CAST(n * sxz - sx * sz AS DOUBLE)
           / (SQRT(CAST(n * sxx - sx * sx AS DOUBLE))
              * SQRT(CAST(n * szz - sz * sz AS DOUBLE))) AS rxz,
         CAST(n * syz - sy * sz AS DOUBLE)
           / (SQRT(CAST(n * syy - sy * sy AS DOUBLE))
              * SQRT(CAST(n * szz - sz * sz AS DOUBLE))) AS ryz
       FROM t)
SELECT ROUND(rxy, 6) AS r_qty_price, ROUND(rxz, 6) AS r_qty_disc,
       ROUND(ryz, 6) AS r_price_disc,
       ROUND((rxy - rxz * ryz)
             / SQRT((1 - rxz * rxz) * (1 - ryz * ryz)), 6)
         AS partial_r
FROM rr
"""


_POP_CUTOFF_FRAC = (4, 5)       # train on the first 4/5 of days


def q_popularity_baseline_hitrate(sf_dir: str):
    """Popularity-baseline recommender evaluation — the sanity floor
    every recommender must beat: the global top-10 parts from the
    TRAIN period (first 4/5 of shipping days, count ties by smaller
    partkey) are 'recommended' to everyone, and the hit rate is the
    share of TEST-period lineitems falling in that set.  The time
    split, top-10 selection and hit counts are exact integers from
    two passes; the hit rate is the one mirrored division."""
    from ray.data.aggregate import Max, Min, Sum
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_shipdate"])

    def tag(t: pa.Table) -> pa.Table:
        us = t["l_shipdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        return pa.table({"pk": t["l_partkey"],
                         "day": pa.array(us // 86_400_000_000)})

    tagged = li.map_batches(tag, batch_format="pyarrow") \
        .materialize()
    mm = relational.ds_to_table(
        tagged.map_batches(lambda t: pa.table({
            "_g": pa.array([0]),
            "d0": pa.array([int(pc.min(t["day"]).as_py())]),
            "d1": pa.array([int(pc.max(t["day"]).as_py())])}),
            batch_format="pyarrow")
        .groupby("_g").aggregate(Min("d0", alias_name="d0"),
                                 Max("d1", alias_name="d1"))
    ).to_pandas()
    d0, d1 = int(mm["d0"].iloc[0]), int(mm["d1"].iloc[0])
    a, b = _POP_CUTOFF_FRAC
    cut = d0 + (d1 - d0 + 1) * a // b        # train: day < cut

    def counts(t: pa.Table) -> pa.Table:
        day = t["day"].to_numpy(zero_copy_only=False)
        pk = t["pk"].to_numpy(zero_copy_only=False)
        tr = day < cut
        g = pd.DataFrame({"pk": pk, "ctr": tr.astype(np.int64),
                          "cte": (~tr).astype(np.int64)}) \
            .groupby("pk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        tagged.map_batches(counts, batch_format="pyarrow")
        .groupby("pk").aggregate(Sum("ctr", alias_name="ctr"),
                                 Sum("cte", alias_name="cte"))
    ).to_pandas()
    top = agg.sort_values(["ctr", "pk"],
                          ascending=[False, True]).head(10)
    topset = set(top["pk"].astype(int))
    n_test = int(agg["cte"].sum())
    hits = int(agg.loc[agg["pk"].isin(topset), "cte"].sum())
    return pd.DataFrame([{
        "cutoff_day": cut, "n_train": int(agg["ctr"].sum()),
        "n_test": n_test, "n_hits": hits,
        "hit_rate": None if n_test == 0 else float(np.round(
            float(hits) / float(n_test), 6))}]).astype({
            "cutoff_day": np.int64, "n_train": np.int64,
            "n_test": np.int64, "n_hits": np.int64})


SQL_POP_BASELINE = """
WITH t AS (SELECT l_partkey AS pk,
                  epoch_us(l_shipdate) // 86400000000 AS day
           FROM lineitem),
mm AS (SELECT MIN(day) AS d0,
              MIN(day) + (MAX(day) - MIN(day) + 1) * 4 // 5 AS cut
       FROM t),
c AS (SELECT pk,
             SUM(CASE WHEN day < mm.cut THEN 1 ELSE 0 END) AS ctr,
             SUM(CASE WHEN day >= mm.cut THEN 1 ELSE 0 END) AS cte
      FROM t, mm GROUP BY 1),
top AS (SELECT pk FROM c ORDER BY ctr DESC, pk LIMIT 10),
agg AS (SELECT (SELECT SUM(ctr) FROM c) AS n_train,
               (SELECT SUM(cte) FROM c) AS n_test,
               (SELECT SUM(cte) FROM c WHERE pk IN
                  (SELECT pk FROM top)) AS hits)
SELECT (SELECT CAST(cut AS BIGINT) FROM mm) AS cutoff_day,
       CAST(n_train AS BIGINT) AS n_train,
       CAST(n_test AS BIGINT) AS n_test,
       CAST(COALESCE(hits, 0) AS BIGINT) AS n_hits,
       CASE WHEN n_test = 0 THEN NULL
            ELSE ROUND(CAST(COALESCE(hits, 0) AS DOUBLE)
                       / CAST(n_test AS DOUBLE), 6) END AS hit_rate
FROM agg
"""


def q_conformal_regression_interval(sf_dir: str):
    """Split-conformal prediction interval for the price~quantity
    regression — the distribution-free coverage guarantee
    (Vovk/Lei): fit OLS on the even-orderkey half, take the
    ⌈(n+1)·0.9⌉-th smallest absolute calibration residual on the odd
    half as the interval half-width, and 90 % coverage holds by
    exchangeability alone.  The fit stays exact by n-scaling — slope
    and intercept are integer ratios (B/D, A/D) and each calibration
    residual scales to the exact integer |D·y − A − B·x|, so the
    order statistic is an integer compare; the reported width and
    realized coverage divide once each.  Two passes, both bounded
    reduces."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_quantity", "l_extendedprice"])

    def moments(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64)
        y = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        tr = ok % 2 == 0
        return pa.table({
            "_g": pa.array([0]),
            "n": pa.array([int(tr.sum())]),
            "sx": pa.array([int(x[tr].sum())]),
            "sy": pa.array([int(y[tr].sum())]),
            "sxx": pa.array([int((x[tr] * x[tr]).sum())]),
            "sxy": pa.array([int((x[tr] * y[tr]).sum())])})

    m = relational.ds_to_table(
        li.map_batches(moments, batch_format="pyarrow")
        .groupby("_g").aggregate(
            Sum("n", alias_name="n"), Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"), Sum("sxx", alias_name="sxx"),
            Sum("sxy", alias_name="sxy"))
    ).to_pandas()
    n = int(m["n"].iloc[0])
    sx, sy = int(m["sx"].iloc[0]), int(m["sy"].iloc[0])
    sxx, sxy = int(m["sxx"].iloc[0]), int(m["sxy"].iloc[0])
    D = n * sxx - sx * sx                 # scale denominator
    B = n * sxy - sx * sy                 # slope numerator
    A = sy * sxx - sx * sxy               # intercept numerator

    def resid(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64)
        y = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        cal = ok % 2 == 1
        # |D·y − A − B·x| exceeds int64 (D ~ 1e13, y ~ 1e7) — carry
        # as vectorized object-int arithmetic, then ship the exchange
        # as TWO int64 limbs (hi = r // 2^62, lo = r % 2^62) instead of
        # a stringified big-int: fixed 16 bytes/row through the shuffle
        # and lexicographic (hi, lo) order IS numeric order
        xv = x[cal].astype(object)
        yv = y[cal].astype(object)
        r = np.abs(D * yv - A - B * xv)
        g = pd.DataFrame({"r": r, "c": 1}) \
            .groupby("r", sort=False).sum().reset_index()
        sh = 1 << 62
        return pa.Table.from_pandas(
            pd.DataFrame({"r_hi": (g["r"] // sh).astype(np.int64),
                          "r_lo": (g["r"] % sh).astype(np.int64),
                          "c": g["c"].astype(np.int64)}),
            preserve_index=False)

    rt = relational.ds_to_table(
        li.map_batches(resid, batch_format="pyarrow")
        .groupby(["r_hi", "r_lo"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    rt["ri"] = rt["r_hi"].map(int) * (1 << 62) + rt["r_lo"].map(int)
    rt = rt.sort_values(["r_hi", "r_lo"]).reset_index(drop=True)
    nc = int(rt["c"].sum())
    k = ((nc + 1) * 9 + 9) // 10          # ceil((n+1)*0.9), floor-safe
    k = min(k, nc)
    cum = rt["c"].cumsum()
    qi = int(rt.loc[cum >= k, "ri"].iloc[0])
    width = float(qi) / float(abs(D))
    cover = int(rt.loc[rt["ri"] <= qi, "c"].sum())
    return pd.DataFrame([{
        "n_train": n, "n_calib": nc, "k_rank": k,
        "width_cents": float(np.round(width, 6)),
        "calib_coverage": float(np.round(
            float(cover) / float(nc), 6))}]).astype({
            "n_train": np.int64, "n_calib": np.int64,
            "k_rank": np.int64})


SQL_CONFORMAL_REG = """
WITH b AS (SELECT l_orderkey AS ok,
                  CAST(FLOOR(l_quantity + 0.5) AS HUGEINT) AS x,
                  CAST(FLOOR(l_extendedprice * 100 + 0.5)
                       AS HUGEINT) AS y
           FROM lineitem),
m AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(x) AS sx,
             SUM(y) AS sy, SUM(x * x) AS sxx, SUM(x * y) AS sxy
      FROM b WHERE ok % 2 = 0),
co AS (SELECT n, n * sxx - sx * sx AS d,
              n * sxy - sx * sy AS bb,
              sy * sxx - sx * sxy AS aa
       FROM m),
r AS (SELECT ABS(co.d * b.y - co.aa - co.bb * b.x) AS r
      FROM b, co WHERE b.ok % 2 = 1),
o AS (SELECT r, ROW_NUMBER() OVER (ORDER BY r) AS rn,
             COUNT(*) OVER () AS nc
      FROM r),
k AS (SELECT MAX(nc) AS nc,
             LEAST(((MAX(nc) + 1) * 9 + 9) // 10, MAX(nc)) AS kk
      FROM o),
q AS (SELECT o.r AS qi FROM o, k WHERE o.rn = k.kk)
SELECT CAST(co.n AS BIGINT) AS n_train,
       CAST(k.nc AS BIGINT) AS n_calib,
       CAST(k.kk AS BIGINT) AS k_rank,
       ROUND(CAST(q.qi AS DOUBLE) / CAST(ABS(co.d) AS DOUBLE), 6)
         AS width_cents,
       ROUND(CAST((SELECT COUNT(*) FROM o, q
                   WHERE o.r <= q.qi) AS DOUBLE)
             / CAST(k.nc AS DOUBLE), 6) AS calib_coverage
FROM co, k, q
"""


def q_clustered_se_slope(sf_dir: str):
    """Cluster-robust (Liang–Zeger CR0) standard error of the
    price~quantity slope with suppliers%25 as clusters — the
    econometric correction naive OLS owes any data with group
    structure: scores Σᵢ∈g x̃ᵢêᵢ fold per cluster as exact integers
    (centered x as n·x−Σx, residuals floored to integer cents with
    DuckDB's toward-zero // reproduced as sign·(|a|//|b|)), and the
    scale-cancelling identity SE = n·√(ΣS_g²)/U finishes in one
    mirrored expression.  HUGEINT twin; ≤25 score rows leave the
    reduce."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_quantity", "l_extendedprice"])

    def moments(t: pa.Table) -> pa.Table:
        x = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64)
        y = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        return pa.table({
            "_g": pa.array([0]), "n": pa.array([len(x)]),
            "sx": pa.array([int(x.sum())]),
            "sy": pa.array([int(y.sum())]),
            "sxx": pa.array([int((x * x).sum())]),
            "sxy": pa.array([int((x * y).sum())])})

    m = relational.ds_to_table(
        li.map_batches(moments, batch_format="pyarrow")
        .groupby("_g").aggregate(
            Sum("n", alias_name="n"), Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"), Sum("sxx", alias_name="sxx"),
            Sum("sxy", alias_name="sxy"))
    ).to_pandas()
    n = int(m["n"].iloc[0])
    sx, sy = int(m["sx"].iloc[0]), int(m["sy"].iloc[0])
    sxx, sxy = int(m["sxx"].iloc[0]), int(m["sxy"].iloc[0])
    D = n * sxx - sx * sx
    B = n * sxy - sx * sy
    A = sy * sxx - sx * sxy

    def scores(t: pa.Table) -> pa.Table:
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64) % 25
        x = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64)
        y = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        xo = x.astype(object)
        yo = y.astype(object)
        enum = D * yo - A - B * xo
        sgn = np.where([int(v) < 0 for v in enum], -1, 1)
        e = sgn * (np.abs(enum) // D)        # trunc like DuckDB //
        u = n * xo - sx
        s = u * e
        g = pd.DataFrame({"g": sk, "s": s}) \
            .groupby("g", sort=False)["s"].sum().reset_index()
        g["s"] = g["s"].astype(str)          # object ints → string
        return pa.Table.from_pandas(g, preserve_index=False)

    st = relational.ds_to_table(
        li.map_batches(scores, batch_format="pyarrow")
    ).to_pandas()
    st["si"] = st["s"].map(int)
    sg = st.groupby("g")["si"].sum()
    ssum = sum(int(v) * int(v) for v in sg)
    # Σu² = Σ(n·x−Sx)² = n·(n·Σx²−Sx²) = n·D exactly
    U = n * D
    se = float(n) * math.sqrt(float(ssum)) / float(U)
    slope = float(B) / float(D)
    return pd.DataFrame([{
        "n_rows": n, "n_clusters": int(sg.shape[0]),
        "slope": float(np.round(slope, 6)),
        "clustered_se": float(np.round(se, 6)),
        "t_stat": None if se == 0.0 else
        float(np.round(slope / se, 6))}]).astype({
            "n_rows": np.int64, "n_clusters": np.int64})


SQL_CLUSTERED_SE = """
WITH b AS (SELECT l_suppkey % 25 AS g,
                  CAST(FLOOR(l_quantity + 0.5) AS HUGEINT) AS x,
                  CAST(FLOOR(l_extendedprice * 100 + 0.5)
                       AS HUGEINT) AS y
           FROM lineitem),
m AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(x) AS sx,
             SUM(y) AS sy, SUM(x * x) AS sxx, SUM(x * y) AS sxy
      FROM b),
co AS (SELECT n, sx, n * sxx - sx * sx AS d,
              n * sxy - sx * sy AS bb, sy * sxx - sx * sxy AS aa
       FROM m),
sc AS (SELECT b.g,
              SUM((co.n * b.x - co.sx)
                  * ((co.d * b.y - co.aa - co.bb * b.x) // co.d))
                AS s
       FROM b, co GROUP BY 1),
agg AS (SELECT CAST(COUNT(*) AS BIGINT) AS ng, SUM(s * s) AS ss
        FROM sc)
SELECT CAST(co.n AS BIGINT) AS n_rows, agg.ng AS n_clusters,
       ROUND(CAST(co.bb AS DOUBLE) / CAST(co.d AS DOUBLE), 6)
         AS slope,
       ROUND(CAST(co.n AS DOUBLE) * SQRT(CAST(agg.ss AS DOUBLE))
             / CAST(co.n * co.d AS DOUBLE), 6) AS clustered_se,
       CASE WHEN agg.ss = 0 THEN NULL
            ELSE ROUND((CAST(co.bb AS DOUBLE) / CAST(co.d AS DOUBLE))
                 / (CAST(co.n AS DOUBLE)
                    * SQRT(CAST(agg.ss AS DOUBLE))
                    / CAST(co.n * co.d AS DOUBLE)), 6)
       END AS t_stat
FROM co, agg
"""


def q_price_dispersion_parts(sf_dir: str):
    """Law-of-one-price dispersion audit per part — the economics-of-
    search measure (identical goods should trade near one price):
    per part, the coefficient of variation of its lineitem prices
    from exact cents moments, and a violation flag CV > 10 % decided
    by the EXACT integer cross-multiplication 100·(n·q−s²) > s² so
    the flag can never float-flip.  The summary row appends the
    exact violation share.  One bounded (part) reduce."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        g = pd.DataFrame({
            "pk": t["l_partkey"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "n": 1, "s": cents, "q": cents * cents}) \
            .groupby("pk", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("pk").aggregate(Sum("n", alias_name="n"),
                                 Sum("s", alias_name="s"),
                                 Sum("q", alias_name="q"))
    ).to_pandas().sort_values("pk").reset_index(drop=True)
    n = agg["n"].to_numpy(np.int64)
    s = agg["s"].to_numpy(np.int64)
    q = agg["q"].to_numpy(np.int64)
    var_num = n * q - s * s                  # fits int64 at cents
    # np.sqrt on float64 is exact IEEE (no SIMD divergence risk,
    # unlike np.log) — columnar over the part-bounded table
    cv = np.sqrt(var_num.astype(np.float64)) / s.astype(np.float64)
    return pd.DataFrame({
        "p_partkey": agg["pk"].astype(np.int64),
        "n_prices": n,
        "cv": np.round(cv, 6),
        "violates_lop": 100 * var_num > s * s})


SQL_PRICE_DISPERSION = """
WITH a AS (SELECT l_partkey AS pk, CAST(COUNT(*) AS BIGINT) AS n,
                  SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5)
                           AS HUGEINT)) AS s,
                  SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5)
                           AS HUGEINT)
                      * CAST(FLOOR(l_extendedprice * 100 + 0.5)
                             AS HUGEINT)) AS q
           FROM lineitem GROUP BY 1)
SELECT pk AS p_partkey, n AS n_prices,
       ROUND(SQRT(CAST(n * q - s * s AS DOUBLE))
             / CAST(s AS DOUBLE), 6) AS cv,
       100 * (n * q - s * s) > s * s AS violates_lop
FROM a ORDER BY p_partkey
"""


def q_rank_aggregation_parts(sf_dir: str):
    """Borda-count rank aggregation of three part orderings (retail
    price, size, name length — each DESC with partkey ties) plus the
    Condorcet check — social choice's consensus-ranking toolkit
    applied to multi-criteria catalog ranking: Borda scores are
    exact integer rank sums, the top-10 report their per-criterion
    ranks, and the winner row records whether it beats every other
    part in pairwise majority (a Condorcet winner) — all integer
    comparisons.  One bounded part reduce; ranks via three sorts of
    the part-bounded table."""
    parts = relational.ds_to_table(
        _read(sf_dir, "part",
              ["p_partkey", "p_name", "p_size", "p_retailprice"])
    ).to_pandas()
    pk = parts["p_partkey"].to_numpy(np.int64)
    price = np.floor(parts["p_retailprice"].to_numpy()
                     * 100 + 0.5).astype(np.int64)
    size = parts["p_size"].to_numpy(np.int64)
    nlen = parts["p_name"].str.len().to_numpy(np.int64)
    n = len(pk)

    def ranks(key):
        o = np.lexsort((pk, -key))
        r = np.empty(n, dtype=np.int64)
        r[o] = np.arange(1, n + 1)
        return r

    r1, r2, r3 = ranks(price), ranks(size), ranks(nlen)
    borda = r1 + r2 + r3
    o = np.lexsort((pk, borda))
    rows = []
    win = o[0]
    # Condorcet: the Borda winner beats x iff it ranks better on a
    # strict majority (>=2) of the 3 criteria
    is_cond = True
    for j in range(n):
        if j == win:
            continue
        wins = (int(r1[win] < r1[j]) + int(r2[win] < r2[j])
                + int(r3[win] < r3[j]))
        if wins < 2:
            is_cond = False
            break
    for i in o[:10]:
        rows.append({
            "p_partkey": int(pk[i]), "borda_score": int(borda[i]),
            "rank_price": int(r1[i]), "rank_size": int(r2[i]),
            "rank_namelen": int(r3[i]),
            "winner_is_condorcet": bool(is_cond)})
    return pd.DataFrame(rows).astype({
        "p_partkey": np.int64, "borda_score": np.int64,
        "rank_price": np.int64, "rank_size": np.int64,
        "rank_namelen": np.int64})


SQL_RANK_AGGREGATION = """
WITH p AS (SELECT p_partkey AS pk,
                  CAST(FLOOR(p_retailprice * 100 + 0.5) AS BIGINT)
                    AS price,
                  CAST(p_size AS BIGINT) AS sz,
                  CAST(length(p_name) AS BIGINT) AS nl
           FROM part),
r AS (SELECT pk,
             ROW_NUMBER() OVER (ORDER BY price DESC, pk) AS r1,
             ROW_NUMBER() OVER (ORDER BY sz DESC, pk) AS r2,
             ROW_NUMBER() OVER (ORDER BY nl DESC, pk) AS r3
      FROM p),
b AS (SELECT pk, r1, r2, r3, r1 + r2 + r3 AS borda FROM r),
w AS (SELECT pk, r1, r2, r3 FROM b ORDER BY borda, pk LIMIT 1),
cond AS (SELECT CASE WHEN EXISTS (
           SELECT 1 FROM b, w WHERE b.pk <> w.pk
           AND (CASE WHEN w.r1 < b.r1 THEN 1 ELSE 0 END
                + CASE WHEN w.r2 < b.r2 THEN 1 ELSE 0 END
                + CASE WHEN w.r3 < b.r3 THEN 1 ELSE 0 END) < 2)
           THEN FALSE ELSE TRUE END AS is_cond)
SELECT b.pk AS p_partkey, CAST(b.borda AS BIGINT) AS borda_score,
       b.r1 AS rank_price, b.r2 AS rank_size, b.r3 AS rank_namelen,
       cond.is_cond AS winner_is_condorcet
FROM b, cond ORDER BY b.borda, b.pk LIMIT 10
"""


def q_quadrant_correlation_qty_price(sf_dir: str):
    """Quadrant (sign) correlation of quantity vs price — the
    maximally robust correlation (50 % breakdown; Blomqvist's β):
    center both margins at their EXACT lower-median order statistics
    (value-domain reduces), then r = (n₊₊₊₋-agreement − disagreement)
    / n_offmedian from pure sign counts.  Every decision is an
    integer comparison; the coefficient is one mirrored division."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"])

    def vd(col_expr):
        def f(t: pa.Table) -> pa.Table:
            v = col_expr(t)
            g = pd.DataFrame({"v": v, "c": 1}) \
                .groupby("v", sort=False).sum().reset_index()
            return pa.Table.from_pandas(g, preserve_index=False)
        return f

    def qty(t):
        return np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64)

    def price(t):
        return np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)

    meds = {}
    for name, fn in (("q", qty), ("p", price)):
        tbl = relational.ds_to_table(
            li.map_batches(vd(fn), batch_format="pyarrow")
            .groupby("v").aggregate(Sum("c", alias_name="c"))
        ).to_pandas().sort_values("v").reset_index(drop=True)
        n = int(tbl["c"].sum())
        k = (n - 1) // 2 + 1
        cum = tbl["c"].cumsum()
        meds[name] = int(tbl.loc[cum >= k, "v"].iloc[0])
    mq, mp = meds["q"], meds["p"]

    def signs(t: pa.Table) -> pa.Table:
        x = qty(t) - mq
        y = price(t) - mp
        off = (x != 0) & (y != 0)
        agree = (np.sign(x[off]) == np.sign(y[off])).astype(np.int64)
        return pa.table({
            "_g": pa.array([0]),
            "n_off": pa.array([int(off.sum())]),
            "agree": pa.array([int(agree.sum())])})

    agg = relational.ds_to_table(
        li.map_batches(signs, batch_format="pyarrow")
        .groupby("_g").aggregate(Sum("n_off", alias_name="n_off"),
                                 Sum("agree", alias_name="agree"))
    ).to_pandas()
    noff = int(agg["n_off"].iloc[0])
    ag = int(agg["agree"].iloc[0])
    beta = float(2 * ag - noff) / float(noff)
    return pd.DataFrame([{
        "median_qty": mq, "median_price_cents": mp,
        "n_offmedian": noff, "n_agree": ag,
        "blomqvist_beta": float(np.round(beta, 6))}]).astype({
            "median_qty": np.int64, "median_price_cents": np.int64,
            "n_offmedian": np.int64, "n_agree": np.int64})


SQL_QUADRANT_CORR = """
WITH b AS (SELECT CAST(FLOOR(l_quantity + 0.5) AS BIGINT) AS q,
                  CAST(FLOOR(l_extendedprice * 100 + 0.5)
                       AS BIGINT) AS p
           FROM lineitem),
mq AS (SELECT q AS m FROM (
         SELECT q, ROW_NUMBER() OVER (ORDER BY q) AS rn,
                COUNT(*) OVER () AS n FROM b)
       WHERE rn = (n - 1) // 2 + 1),
mp AS (SELECT p AS m FROM (
         SELECT p, ROW_NUMBER() OVER (ORDER BY p) AS rn,
                COUNT(*) OVER () AS n FROM b)
       WHERE rn = (n - 1) // 2 + 1),
s AS (SELECT CAST(SUM(CASE WHEN b.q <> mq.m AND b.p <> mp.m
                      THEN 1 ELSE 0 END) AS BIGINT) AS n_off,
             CAST(SUM(CASE WHEN b.q <> mq.m AND b.p <> mp.m
                      AND SIGN(b.q - mq.m) = SIGN(b.p - mp.m)
                      THEN 1 ELSE 0 END) AS BIGINT) AS agree,
             MAX(mq.m) AS mqv, MAX(mp.m) AS mpv
      FROM b, mq, mp)
SELECT mqv AS median_qty, mpv AS median_price_cents,
       n_off AS n_offmedian, agree AS n_agree,
       ROUND(CAST(2 * agree - n_off AS DOUBLE)
             / CAST(n_off AS DOUBLE), 6) AS blomqvist_beta
FROM s
"""


_SORTKEY_BLOCKS = 16


def q_sortkey_advisor_lineitem(sf_dir: str):
    """Sort-key advisor over four lineitem measures — which column's
    zonemaps would prune best if the table stays laid out in
    l_orderkey ranges?  For each candidate the score is the mean
    per-block value range over the global range in exact ppm
    (Σ(max−min)·10⁶ // (16·grange), pure integer — the fraction of
    the domain a block's zonemap cannot exclude; low = clustered =
    prunable).  Two passes: a min/max probe of the blocking key, then
    one per-batch (block × column) min/max partial — ≤64 rows into
    the final reduce.  The registry's encoding-advisor sibling for
    SORT keys."""
    from ray.data.aggregate import Max, Min
    cols = ["l_orderkey", "l_partkey", "l_suppkey",
            "l_extendedprice"]
    li = _read(sf_dir, "lineitem", cols)
    okmin, okmax = relational.ds_to_table(
        li.map_batches(lambda t: pa.table({
            "mn": pa.array([pc.min(t["l_orderkey"]).as_py()]),
            "mx": pa.array([pc.max(t["l_orderkey"]).as_py()])}),
            batch_format="pyarrow")
        .map_batches(lambda t: t.append_column(
            "_g", pa.array(np.zeros(len(t), dtype=np.int64))),
            batch_format="pyarrow")
        .groupby("_g").aggregate(Min("mn", alias_name="mn"),
                                 Max("mx", alias_name="mx"))
    ).to_pandas().iloc[0][["mn", "mx"]].astype(int)

    B = _SORTKEY_BLOCKS
    span = int(okmax) - int(okmin) + 1

    def partial(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        blk = ((ok - int(okmin)) * B) // span
        vals = {
            "v_l_orderkey": ok,
            "v_l_partkey": t["l_partkey"].to_numpy(
                zero_copy_only=False).astype(np.int64),
            "v_l_suppkey": t["l_suppkey"].to_numpy(
                zero_copy_only=False).astype(np.int64),
            "v_l_extendedprice": np.floor(
                t["l_extendedprice"].to_numpy(zero_copy_only=False)
                * 100 + 0.5).astype(np.int64)}
        df = pd.DataFrame({"blk": blk, **vals})
        g = df.groupby("blk", sort=False).agg(["min", "max"])
        g.columns = [f"{a}_{b}" for a, b in g.columns]
        return pa.Table.from_pandas(g.reset_index(),
                                    preserve_index=False)

    aggs = []
    for c in cols:
        aggs += [Min(f"v_{c}_min", alias_name=f"{c}_mn"),
                 Max(f"v_{c}_max", alias_name=f"{c}_mx")]
    bt = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("blk").aggregate(*aggs)
    ).to_pandas()
    rows = []
    for c in cols:
        mn = bt[f"{c}_mn"].astype(int)
        mx = bt[f"{c}_mx"].astype(int)
        srange = int((mx - mn).sum())
        grange = int(mx.max()) - int(mn.min())
        rows.append({
            "column": c, "sum_block_range": srange,
            "global_range": grange,
            "score_ppm": (srange * 10 ** 6) // (B * grange)})
    return pd.DataFrame(rows).sort_values("column") \
        .reset_index(drop=True).astype({
            "sum_block_range": np.int64, "global_range": np.int64,
            "score_ppm": np.int64})


SQL_SORTKEY_ADVISOR = """
WITH ok AS (SELECT MIN(l_orderkey) AS mn,
                   MAX(l_orderkey) - MIN(l_orderkey) + 1 AS span
            FROM lineitem),
v AS (SELECT ((l_orderkey - ok.mn) * 16) // ok.span AS blk,
             l_orderkey AS c1, l_partkey AS c2, l_suppkey AS c3,
             CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)
               AS c4
      FROM lineitem, ok),
b AS (SELECT blk, MIN(c1) AS n1, MAX(c1) AS x1, MIN(c2) AS n2,
             MAX(c2) AS x2, MIN(c3) AS n3, MAX(c3) AS x3,
             MIN(c4) AS n4, MAX(c4) AS x4
      FROM v GROUP BY 1),
s AS (SELECT 'l_orderkey' AS col, SUM(x1 - n1) AS sr,
             MAX(x1) - MIN(n1) AS gr FROM b
      UNION ALL
      SELECT 'l_partkey', SUM(x2 - n2), MAX(x2) - MIN(n2) FROM b
      UNION ALL
      SELECT 'l_suppkey', SUM(x3 - n3), MAX(x3) - MIN(n3) FROM b
      UNION ALL
      SELECT 'l_extendedprice', SUM(x4 - n4), MAX(x4) - MIN(n4)
      FROM b)
SELECT col AS "column", CAST(sr AS BIGINT) AS sum_block_range,
       CAST(gr AS BIGINT) AS global_range,
       CAST((sr * 1000000) // (16 * gr) AS BIGINT) AS score_ppm
FROM s ORDER BY col
"""


def q_demand_classification_parts(sf_dir: str):
    """Syntetos–Boylan demand-pattern classification per part — the
    quadrant chart (smooth / intermittent / erratic / lumpy on the
    ADI = 1.32 and CV² = 0.49 cutoffs) that tells a planner WHICH
    forecast method (Croston vs SES vs SBA) each SKU needs; the
    registry's Croston op is the method this op routes to.  Both
    cutoff comparisons are EXACT integer cross-multiplications
    (100·Σgaps vs 132·n_gaps; 100·(n·Σd²−(Σd)²) vs 49·(Σd)²) from
    the same (part, day) demand reduce, so the labels can never
    float-flip; ADI and CV² are the only mirrored doubles.  Parts
    with one demand day have no interval ⇒ NULL ADI, 'insufficient'
    like the twin."""
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

    dd_ = li.map_batches(tag, batch_format="pyarrow") \
        .groupby(["pk", "day"]).aggregate(Sum("d", alias_name="d"))

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["pk", "day"]).reset_index(drop=True)
        pk = g["pk"].to_numpy(np.int64)
        day = g["day"].to_numpy(np.int64)
        d = g["d"].to_numpy(np.int64)
        df = pd.DataFrame({"pk": pk, "n": 1, "sd": d, "sd2": d * d})
        # "next row is same part" WITHOUT np.roll: a wrap-around
        # would mark a single-part frame as its own successor
        nxt_same = np.zeros(len(pk), dtype=bool)
        nxt_same[:-1] = pk[1:] == pk[:-1]
        gaps = np.zeros(len(pk), dtype=np.int64)
        gaps[:-1] = np.where(nxt_same[:-1], day[1:] - day[:-1], 0)
        df["sg"] = gaps
        df["ng"] = nxt_same.astype(np.int64)
        a = df.groupby("pk", sort=False).sum().reset_index()
        return a

    agg = relational.ds_to_table(
        dd_.map_batches(lambda t: t.append_column(
            "_b", pa.array(relational.stable_bucket(t["pk"], 64))),
            batch_format="pyarrow")
        .groupby("_b").map_groups(per_part, batch_format="pandas")
        .groupby("pk").aggregate(
            Sum("n", alias_name="n"), Sum("sd", alias_name="sd"),
            Sum("sd2", alias_name="sd2"), Sum("sg", alias_name="sg"),
            Sum("ng", alias_name="ng"))
    ).to_pandas().sort_values("pk").reset_index(drop=True)
    n = agg["n"].to_numpy(np.int64)
    sd = agg["sd"].to_numpy(np.int64)
    sd2 = agg["sd2"].to_numpy(np.int64)
    sg = agg["sg"].to_numpy(np.int64)
    ng = agg["ng"].to_numpy(np.int64)
    var_num = n * sd2 - sd * sd                # n²·variance, exact
    has = ng > 0
    slow = 100 * sg >= 132 * ng                # ADI >= 1.32
    erratic = 100 * var_num >= 49 * sd * sd    # CV² >= 0.49
    pattern = np.select(
        [~has, slow & erratic, slow, erratic],
        ["insufficient", "lumpy", "intermittent", "erratic"],
        default="smooth")
    adi = np.where(has, np.round(sg.astype(np.float64)
                                 / np.maximum(ng, 1), 6), np.nan)
    return pd.DataFrame({
        "p_partkey": agg["pk"].astype(np.int64),
        "n_demand_days": n,
        "adi": adi,
        "cv2": np.round(var_num.astype(np.float64)
                        / (sd * sd).astype(np.float64), 6),
        "pattern": pattern})


SQL_DEMAND_CLASS = """
WITH dd AS (SELECT l_partkey AS pk,
                   epoch_us(l_shipdate) // 86400000000 AS day,
                   SUM(CAST(FLOOR(l_quantity + 0.5) AS BIGINT)) AS d
            FROM lineitem GROUP BY 1, 2),
g AS (SELECT pk, day, d,
             LEAD(day) OVER (PARTITION BY pk ORDER BY day) - day
               AS gap
      FROM dd),
a AS (SELECT pk, CAST(COUNT(*) AS BIGINT) AS n,
             SUM(CAST(d AS HUGEINT)) AS sd,
             SUM(CAST(d AS HUGEINT) * d) AS sd2,
             CAST(SUM(COALESCE(gap, 0)) AS HUGEINT) AS sg,
             CAST(COUNT(gap) AS BIGINT) AS ng
      FROM g GROUP BY 1)
SELECT pk AS p_partkey, n AS n_demand_days,
       CASE WHEN ng = 0 THEN NULL
            ELSE ROUND(CAST(sg AS DOUBLE) / CAST(ng AS DOUBLE), 6)
       END AS adi,
       ROUND(CAST(n * sd2 - sd * sd AS DOUBLE)
             / CAST(sd * sd AS DOUBLE), 6) AS cv2,
       CASE WHEN ng = 0 THEN 'insufficient'
            WHEN 100 * sg >= 132 * ng
                 AND 100 * (n * sd2 - sd * sd) >= 49 * sd * sd
              THEN 'lumpy'
            WHEN 100 * sg >= 132 * ng THEN 'intermittent'
            WHEN 100 * (n * sd2 - sd * sd) >= 49 * sd * sd
              THEN 'erratic'
            ELSE 'smooth' END AS pattern
FROM a ORDER BY p_partkey
"""


_KNAPSACK_BUDGET = 500


def q_fractional_knapsack_parts(sf_dir: str):
    """Fractional-knapsack assortment under a size budget — the
    LP-relaxation greedy (optimal for the continuous case, the
    upper bound every branch-and-bound uses): parts ordered by
    QUANTIZED density (retail-cents·10⁶ // size, partkey ties) —
    a deterministic integer sort key both sides share, sidestepping
    rational-order-by — then the prefix fills the budget and the
    boundary part enters fractionally.  Cumulative weights/values
    are exact ints; the boundary fraction and the total value are
    the mirrored doubles."""
    from ray.data.aggregate import Sum  # noqa: F401 (symmetry)
    parts = _read(sf_dir, "part",
                  ["p_partkey", "p_size", "p_retailprice"])
    tbl = relational.ds_to_table(
        parts.map_batches(lambda t: pa.table({
            "pk": t["p_partkey"],
            "w": t["p_size"].cast(pa.int64()),
            "v": pa.array(np.floor(t["p_retailprice"].to_numpy(
                zero_copy_only=False) * 100 + 0.5)
                .astype(np.int64))}),
            batch_format="pyarrow")).to_pandas()
    tbl["dens"] = (tbl["v"] * 10 ** 6) // tbl["w"]
    tbl = tbl.sort_values(["dens", "pk"],
                          ascending=[False, True]) \
        .reset_index(drop=True)
    cumw = tbl["w"].cumsum()
    full = cumw <= _KNAPSACK_BUDGET
    nf = int(full.sum())
    wsum = int(cumw.iloc[nf - 1]) if nf else 0
    vsum = int(tbl["v"].iloc[:nf].sum())
    if nf < len(tbl) and wsum < _KNAPSACK_BUDGET:
        bp = tbl.iloc[nf]
        frac = float(_KNAPSACK_BUDGET - wsum) / float(int(bp["w"]))
        bpk = int(bp["pk"])
        total = float(vsum) + frac * float(int(bp["v"]))
    else:
        frac, bpk, total = 0.0, None, float(vsum)
    return pd.DataFrame([{
        "n_full_parts": nf, "weight_full": wsum,
        "value_full_cents": vsum, "boundary_part": bpk,
        "boundary_fraction": float(np.round(frac, 6)),
        "total_value": float(np.round(total, 6))}]).astype({
            "n_full_parts": np.int64, "weight_full": np.int64,
            "value_full_cents": np.int64})


SQL_FRACTIONAL_KNAPSACK = f"""
WITH p AS (SELECT p_partkey AS pk, CAST(p_size AS BIGINT) AS w,
                  CAST(FLOOR(p_retailprice * 100 + 0.5) AS BIGINT)
                    AS v
           FROM part),
d AS (SELECT pk, w, v, (v * 1000000) // w AS dens FROM p),
o AS (SELECT pk, w, v,
             SUM(w) OVER (ORDER BY dens DESC, pk) AS cumw
      FROM d),
f AS (SELECT CAST(COUNT(*) AS BIGINT) AS nf,
             CAST(COALESCE(MAX(cumw), 0) AS BIGINT) AS wsum,
             CAST(COALESCE(SUM(v), 0) AS BIGINT) AS vsum
      FROM o WHERE cumw <= {_KNAPSACK_BUDGET}),
b AS (SELECT pk, w, v FROM o, f
      WHERE o.cumw > {_KNAPSACK_BUDGET}
      ORDER BY o.cumw LIMIT 1)
SELECT f.nf AS n_full_parts, f.wsum AS weight_full,
       f.vsum AS value_full_cents,
       CASE WHEN f.wsum >= {_KNAPSACK_BUDGET} THEN NULL
            ELSE b.pk END AS boundary_part,
       ROUND(CASE WHEN b.pk IS NULL OR f.wsum >= {_KNAPSACK_BUDGET}
                  THEN 0.0
                  ELSE CAST({_KNAPSACK_BUDGET} - f.wsum AS DOUBLE)
                       / CAST(b.w AS DOUBLE) END, 6)
         AS boundary_fraction,
       ROUND(CASE WHEN b.pk IS NULL OR f.wsum >= {_KNAPSACK_BUDGET}
                  THEN CAST(f.vsum AS DOUBLE)
                  ELSE CAST(f.vsum AS DOUBLE)
                       + (CAST({_KNAPSACK_BUDGET} - f.wsum AS DOUBLE)
                          / CAST(b.w AS DOUBLE))
                         * CAST(b.v AS DOUBLE) END, 6)
         AS total_value
FROM f LEFT JOIN b ON TRUE
"""


def q_iv_2sls_quantity(sf_dir: str):
    """Just-identified instrumental-variables (2SLS) estimate of the
    price–quantity slope using the discount (basis points) as the
    instrument — the textbook one-instrument case where
    β_IV = cov(z,y)/cov(z,x) collapses to ONE mirrored division of
    cleared integer covariances Szy = nΣzy − ΣzΣy over
    Szx = nΣzx − ΣzΣx.  Reported beside the OLS slope (the
    endogeneity gap IS the point of IV) and the first-stage strength
    F = (n−2)·Szx²/(SzzSxx − Szx²) — the weak-instrument screen —
    which is ALSO a single division of exact integers.  One
    distributed moment fold, six counters."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem",
               ["l_quantity", "l_extendedprice", "l_discount"])

    def moments(t: pa.Table) -> pa.Table:
        x = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64)
        y = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        z = np.floor(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        return pa.table({
            "_g": pa.array([0]), "n": pa.array([len(x)]),
            "sx": pa.array([int(x.sum())]),
            "sy": pa.array([int(y.sum())]),
            "sz": pa.array([int(z.sum())]),
            "sxx": pa.array([int((x * x).sum())]),
            "szz": pa.array([int((z * z).sum())]),
            "szx": pa.array([int((z * x).sum())]),
            "szy": pa.array([int((z * y).sum())]),
            "sxy": pa.array([int((x * y).sum())])})

    m = relational.ds_to_table(
        li.map_batches(moments, batch_format="pyarrow")
        .groupby("_g").aggregate(
            *[Sum(c, alias_name=c) for c in
              ["n", "sx", "sy", "sz", "sxx", "szz", "szx", "szy",
               "sxy"]])).to_pandas().iloc[0]
    n = int(m["n"])
    sx, sy, sz = int(m["sx"]), int(m["sy"]), int(m["sz"])
    sxx, szz = int(m["sxx"]), int(m["szz"])
    szx, szy, sxy = int(m["szx"]), int(m["szy"]), int(m["sxy"])
    c_zy = n * szy - sz * sy
    c_zx = n * szx - sz * sx
    c_xy = n * sxy - sx * sy
    c_xx = n * sxx - sx * sx
    c_zz = n * szz - sz * sz
    beta_iv = float(c_zy) / float(c_zx)
    beta_ols = float(c_xy) / float(c_xx)
    f1 = float((n - 2) * c_zx * c_zx) \
        / float(c_zz * c_xx - c_zx * c_zx)
    return pd.DataFrame([{
        "n": n, "beta_iv": np.round(beta_iv, 6),
        "beta_ols": np.round(beta_ols, 6),
        "first_stage_f": np.round(f1, 6)}]).astype({"n": np.int64})


SQL_IV_2SLS = """
WITH b AS (SELECT CAST(FLOOR(l_quantity + 0.5) AS HUGEINT) AS x,
                  CAST(FLOOR(l_extendedprice * 100 + 0.5) AS HUGEINT)
                    AS y,
                  CAST(FLOOR(l_discount * 100 + 0.5) AS HUGEINT) AS z
           FROM lineitem),
m AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n, SUM(x) AS sx,
             SUM(y) AS sy, SUM(z) AS sz, SUM(x * x) AS sxx,
             SUM(z * z) AS szz, SUM(z * x) AS szx,
             SUM(z * y) AS szy, SUM(x * y) AS sxy
      FROM b),
c AS (SELECT n, n * szy - sz * sy AS czy, n * szx - sz * sx AS czx,
             n * sxy - sx * sy AS cxy, n * sxx - sx * sx AS cxx,
             n * szz - sz * sz AS czz
      FROM m)
SELECT CAST(n AS BIGINT) AS n,
       ROUND(CAST(czy AS DOUBLE) / CAST(czx AS DOUBLE), 6)
         AS beta_iv,
       ROUND(CAST(cxy AS DOUBLE) / CAST(cxx AS DOUBLE), 6)
         AS beta_ols,
       ROUND(CAST((n - 2) * czx * czx AS DOUBLE)
             / CAST(czz * cxx - czx * czx AS DOUBLE), 6)
         AS first_stage_f
FROM c
"""


def q_rdd_quantity_cutoff(sf_dir: str):
    """Sharp regression-discontinuity at the bulk threshold: local
    linear fits of discount (bp) on quantity on each side of the
    qty = 25 cutoff (bandwidth 10, i.e. [15, 24] vs [25, 34]), jump
    τ = fit_right(25) − fit_left(25).  Each side's fitted value at
    the cutoff is ONE mirrored division — (A + 25·B)/D with
    A = SyΣx² − SxΣxy, B = nΣxy − SxSy, D = nΣx² − Sx² all exact
    integers from a side-keyed two-row fold — and τ is the float
    difference of the two.  The honest causal jump readout when
    treatment switches deterministically at a threshold."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_quantity", "l_discount"])

    def moments(t: pa.Table) -> pa.Table:
        x = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64)
        y = np.floor(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        keep = (x >= 15) & (x <= 34)
        x, y = x[keep], y[keep]
        side = (x >= 25).astype(np.int64)
        g = pd.DataFrame({"side": side, "n": 1, "sx": x, "sy": y,
                          "sxx": x * x, "sxy": x * y}) \
            .groupby("side", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    m = relational.ds_to_table(
        li.map_batches(moments, batch_format="pyarrow")
        .groupby("side").aggregate(
            *[Sum(c, alias_name=c) for c in
              ["n", "sx", "sy", "sxx", "sxy"]])
    ).to_pandas().set_index("side")

    def fit_at(side: int) -> tuple[int, float]:
        r = m.loc[side]
        n, sx, sy = int(r["n"]), int(r["sx"]), int(r["sy"])
        sxx, sxy = int(r["sxx"]), int(r["sxy"])
        d = n * sxx - sx * sx
        a = sy * sxx - sx * sxy
        b = n * sxy - sx * sy
        return n, float(a + 25 * b) / float(d)

    n_l, v_l = fit_at(0)
    n_r, v_r = fit_at(1)
    return pd.DataFrame([{
        "n_left": n_l, "n_right": n_r,
        "fit_left": np.round(v_l, 6), "fit_right": np.round(v_r, 6),
        "tau": np.round(v_r - v_l, 6)}]).astype({
            "n_left": np.int64, "n_right": np.int64})


SQL_RDD = """
WITH b AS (SELECT * FROM (
             SELECT CAST(FLOOR(l_quantity + 0.5) AS HUGEINT) AS x,
                    CAST(FLOOR(l_discount * 100 + 0.5) AS HUGEINT)
                      AS y
             FROM lineitem) WHERE x BETWEEN 15 AND 34),
m AS (SELECT CASE WHEN x >= 25 THEN 1 ELSE 0 END AS side,
             CAST(COUNT(*) AS HUGEINT) AS n, SUM(x) AS sx,
             SUM(y) AS sy, SUM(x * x) AS sxx, SUM(x * y) AS sxy
      FROM b GROUP BY 1),
f AS (SELECT side, n,
             CAST(sy * sxx - sx * sxy + 25 * (n * sxy - sx * sy)
                  AS DOUBLE)
             / CAST(n * sxx - sx * sx AS DOUBLE) AS v
      FROM m)
SELECT CAST(l.n AS BIGINT) AS n_left, CAST(r.n AS BIGINT) AS n_right,
       ROUND(l.v, 6) AS fit_left, ROUND(r.v, 6) AS fit_right,
       ROUND(r.v - l.v, 6) AS tau
FROM (SELECT * FROM f WHERE side = 0) l,
     (SELECT * FROM f WHERE side = 1) r
"""


def q_eoq_parts_by_brand(sf_dir: str):
    """Economic Order Quantity per brand — the Wilson lot-size formula
    EOQ = √(2DS/H) with D = total demanded quantity (exact int from a
    broadcast brand-attach + one groupby), S = 10 000¢ fixed order
    cost and H = a tenth of the brand's MEAN retail price in cents.
    Substituting the mean keeps everything rational:
    EOQ = √(2·D·S·10·n_parts / Σprice_cents) — ONE mirrored division
    under ONE mirrored √ of exact integers.  The small part side
    ships once via ray.put, never per batch."""
    from ray.data.aggregate import Sum
    part = _read_table(sf_dir, "part",
                       ["p_partkey", "p_brand", "p_retailprice"])
    brand_of = dict(zip(part["p_partkey"].to_pylist(),
                        part["p_brand"].to_pylist()))
    ref = ray.put(brand_of)
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity"])

    def attach(t: pa.Table) -> pa.Table:
        from ...stages.relational import worker_cached
        bmap = worker_cached(("eoq_brand", ref), lambda: ray.get(ref))
        pk = t["l_partkey"].to_pylist()
        q = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64)
        g = pd.DataFrame({"brand": [bmap[k] for k in pk], "d": q}) \
            .groupby("brand", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    dem = relational.ds_to_table(
        li.map_batches(attach, batch_format="pyarrow")
        .groupby("brand").aggregate(Sum("d", alias_name="d"))
    ).to_pandas().set_index("brand")

    pb = pd.DataFrame({
        "brand": part["p_brand"].to_pylist(),
        "pc": np.round(part["p_retailprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)}) \
        .groupby("brand").agg(n_parts=("pc", "size"),
                              price_sum=("pc", "sum"))
    rows = []
    for brand in sorted(pb.index):
        d = int(dem.loc[brand, "d"]) if brand in dem.index else 0
        np_, ps = int(pb.loc[brand, "n_parts"]), \
            int(pb.loc[brand, "price_sum"])
        eoq = float(np.sqrt(float(2 * d * 10000 * 10 * np_)
                            / float(ps)))
        rows.append({"brand": brand, "annual_demand": d,
                     "n_parts": np_, "price_sum_cents": ps,
                     "eoq_units": np.round(eoq, 6)})
    return pd.DataFrame(rows).astype({
        "annual_demand": np.int64, "n_parts": np.int64,
        "price_sum_cents": np.int64})


SQL_EOQ = """
WITH d AS (SELECT p_brand AS brand,
                  CAST(SUM(CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                       AS BIGINT) AS d
           FROM lineitem JOIN part ON l_partkey = p_partkey
           GROUP BY 1),
p AS (SELECT p_brand AS brand, CAST(COUNT(*) AS BIGINT) AS n_parts,
             CAST(SUM(CAST(ROUND(p_retailprice * 100) AS BIGINT))
                  AS BIGINT) AS ps
      FROM part GROUP BY 1)
SELECT p.brand, COALESCE(d.d, 0) AS annual_demand, p.n_parts,
       p.ps AS price_sum_cents,
       ROUND(SQRT(CAST(2 * COALESCE(d.d, 0) * 10000 * 10
                       * CAST(p.n_parts AS HUGEINT) AS DOUBLE)
                  / CAST(p.ps AS DOUBLE)), 6) AS eoq_units
FROM p LEFT JOIN d USING (brand)
ORDER BY p.brand
"""


def q_newsvendor_daily_demand(sf_dir: str):
    """Newsvendor critical-fractile stocking level for total daily
    demand: with underage cost 3 and overage cost 1 the optimal stock
    is the cu/(cu+co) = 0.75 quantile of the demand distribution —
    taken as the EXACT ⌈0.75·n⌉-th smallest daily total (type-1
    order statistic, integer arithmetic k = ⌈3n/4⌉ = (3n+3)//4), so
    the answer is a value the data actually contains, not an
    interpolation.  Daily totals reduce exactly like the revenue
    series; the driver finish is one sorted pick on the bounded day
    table."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_shipdate", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["l_shipdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        q = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64)
        g = pd.DataFrame({"day": day, "q": q}) \
            .groupby("day", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    d = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("q", alias_name="q"))
    ).to_pandas()
    v = np.sort(d["q"].to_numpy(np.int64))
    n = len(v)
    k = (3 * n + 3) // 4
    q_star = int(v[k - 1])
    return pd.DataFrame([{
        "n_days": n, "k_rank": k, "critical_ratio": 0.75,
        "q_star": q_star}]).astype({
            "n_days": np.int64, "k_rank": np.int64,
            "q_star": np.int64})


SQL_NEWSVENDOR = """
WITH d AS (SELECT epoch_us(l_shipdate) // 86400000000 AS day,
                  CAST(SUM(CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                       AS BIGINT) AS q
           FROM lineitem GROUP BY 1),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM d),
k AS (SELECT n, (3 * n + 3) // 4 AS k FROM n)
SELECT k.n AS n_days, k.k AS k_rank, 0.75 AS critical_ratio,
       (SELECT q FROM (SELECT q, ROW_NUMBER() OVER (ORDER BY q)
                         AS rn FROM d)
        WHERE rn = (SELECT k FROM k)) AS q_star
FROM k
"""


def _jaro_winkler(s1: str, s2: str) -> float:
    """Classic Jaro–Winkler (window ⌊max/2⌋−1, half-transpositions,
    prefix ≤ 4 · 0.1 boost above the 0.7 threshold) — float-op order
    matches DuckDB's builtin bit-for-bit (verified 0/1000 mismatches
    at 6 dp on the part-name corpus)."""
    l1, l2 = len(s1), len(s2)
    if l1 == 0 or l2 == 0:
        return 0.0
    win = max(l1, l2) // 2 - 1
    if win < 0:
        win = 0
    m1 = [False] * l1
    m2 = [False] * l2
    m = 0
    for i, ch in enumerate(s1):
        lo, hi = max(0, i - win), min(l2, i + win + 1)
        for j in range(lo, hi):
            if not m2[j] and s2[j] == ch:
                m1[i] = m2[j] = True
                m += 1
                break
    if m == 0:
        return 0.0
    t = 0
    k = 0
    for i in range(l1):
        if m1[i]:
            while not m2[k]:
                k += 1
            if s1[i] != s2[k]:
                t += 1
            k += 1
    t //= 2
    j = (m / l1 + m / l2 + (m - t) / m) / 3.0
    if j > 0.7:
        p = 0
        for a, b in zip(s1[:4], s2[:4]):
            if a != b:
                break
            p += 1
        j = j + 0.1 * p * (1.0 - j)
    return j


def q_jaro_winkler_part_pairs(sf_dir: str):
    """Jaro–Winkler similarity over the deterministic part-name pair
    sample (half-split: k ↔ k + ⌈keys/2⌉) — the record-linkage string metric
    the Damerau-Levenshtein op doesn't cover (position-weighted,
    prefix-boosted).  Same shape as the sampled n-gram-Jaccard op: a
    VERIFY kernel applied to a blocked candidate set; at 100× the
    pairs come from the sorted-neighborhood / blocking ops and this
    stage is unchanged.  The small name side broadcasts once via
    ray.put; per-pair scoring is the O(len²) classic algorithm on
    ≤ 55-char names inside the batch."""
    part = _read_table(sf_dir, "part", ["p_partkey", "p_name"])
    names = dict(zip(part["p_partkey"].to_pylist(),
                     part["p_name"].to_pylist()))
    half = (max(names) + 1) // 2    # scale-robust half-split pairing
    ref = ray.put(names)

    def score(t: pa.Table) -> pa.Table:
        from ...stages.relational import worker_cached
        nm = worker_cached(("jw_names", ref), lambda: ray.get(ref))
        a = t["p_partkey"].to_pylist()
        rows = {"a": [], "b": [], "jw_sim": []}
        for k in a:
            if k < half and k + half in nm:
                rows["a"].append(k)
                rows["b"].append(k + half)
                rows["jw_sim"].append(
                    np.round(_jaro_winkler(nm[k], nm[k + half]), 6))
        return pa.table({"a": pa.array(rows["a"], type=pa.int64()),
                         "b": pa.array(rows["b"], type=pa.int64()),
                         "jw_sim": pa.array(rows["jw_sim"],
                                            type=pa.float64())})

    out = _read(sf_dir, "part", ["p_partkey"]) \
        .map_batches(score, batch_format="pyarrow")
    return relational.ds_to_table(out).to_pandas() \
        .sort_values("a").reset_index(drop=True)


SQL_JARO_WINKLER = """
WITH h AS (SELECT (MAX(p_partkey) + 1) // 2 AS half FROM part)
SELECT a.p_partkey AS a, b.p_partkey AS b,
       ROUND(jaro_winkler_similarity(a.p_name, b.p_name), 6)
         AS jw_sim
FROM part a, h
JOIN part b ON b.p_partkey = a.p_partkey + h.half
WHERE a.p_partkey < h.half
ORDER BY a.p_partkey
"""


def q_tornqvist_price_index(sf_dir: str):
    """Törnqvist price index between the first and last shipment year
    — the superlative index national accounts moved to (exact for a
    translog cost function, unlike Laspeyres/Paasche's fixed
    baskets): ln P_T = Σ ½(w₀+w₁)·ln(p₁/p₀) with expenditure-share
    weights.  Rides the same per-part (cents, qty) reduce as the
    Fisher op; each part's term is computed in the identical float
    chain then NANO-QUANTIZED before the sum, so the cross-engine
    fold is pure int64 and exp(Σ/1e9) lands the index through
    mirrored ops."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_quantity",
                "l_shipdate"])

    def partial(t: pa.Table) -> pa.Table:
        yr = t["l_shipdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[Y]").astype(np.int64) + 1970
        cents = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        q = np.round(t["l_quantity"].to_numpy(
            zero_copy_only=False)).astype(np.int64)
        g = pd.DataFrame({"p": t["l_partkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "yr": yr, "c": cents, "q": q}) \
            .groupby(["p", "yr"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    py = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby(["p", "yr"]).aggregate(Sum("c", alias_name="c"),
                                        Sum("q", alias_name="q"))
    ).to_pandas()
    y0, y1 = int(py["yr"].min()), int(py["yr"].max())
    a = py[py["yr"] == y0].set_index("p")
    b = py[py["yr"] == y1].set_index("p")
    common = a.index.intersection(b.index)
    a, b = a.loc[common], b.loc[common]
    keep = (a["q"] > 0).to_numpy() & (b["q"] > 0).to_numpy()
    c0 = a["c"].to_numpy(np.int64)[keep]
    q0 = a["q"].to_numpy(np.int64)[keep]
    c1 = b["c"].to_numpy(np.int64)[keep]
    q1 = b["q"].to_numpy(np.int64)[keep]
    e0, e1 = int(c0.sum()), int(c1.sum())
    w0 = c0.astype(np.float64) / float(e0)
    w1 = c1.astype(np.float64) / float(e1)
    p0 = c0.astype(np.float64) / q0.astype(np.float64)
    p1 = c1.astype(np.float64) / q1.astype(np.float64)
    term = 0.5 * (w0 + w1) * np.log(p1 / p0)
    s9 = int(np.floor(term * 1e9 + 0.5).astype(np.int64).sum())
    idx = float(np.exp(s9 / 1e9))
    return pd.DataFrame([{
        "year0": y0, "year1": y1, "n_parts": int(keep.sum()),
        "logsum_e9": s9,
        "tornqvist": np.round(idx, 6)}]).astype({
            "year0": np.int64, "year1": np.int64,
            "n_parts": np.int64, "logsum_e9": np.int64})


SQL_TORNQVIST = """
WITH py AS (SELECT l_partkey AS p,
                   CAST(date_part('year', l_shipdate) AS BIGINT)
                     AS yr,
                   SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT))
                     AS c,
                   SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS q
            FROM lineitem GROUP BY 1, 2),
yy AS (SELECT MIN(yr) AS y0, MAX(yr) AS y1 FROM py),
j AS (SELECT a.p, a.c AS c0, a.q AS q0, b.c AS c1, b.q AS q1
      FROM py a JOIN py b ON a.p = b.p, yy
      WHERE a.yr = yy.y0 AND b.yr = yy.y1
        AND a.q > 0 AND b.q > 0),
e AS (SELECT SUM(c0) AS e0, SUM(c1) AS e1,
             CAST(COUNT(*) AS BIGINT) AS np FROM j),
t AS (SELECT SUM(CAST(FLOOR(
               0.5 * (CAST(c0 AS DOUBLE) / CAST(e.e0 AS DOUBLE)
                      + CAST(c1 AS DOUBLE) / CAST(e.e1 AS DOUBLE))
               * LN((CAST(c1 AS DOUBLE) / CAST(q1 AS DOUBLE))
                    / (CAST(c0 AS DOUBLE) / CAST(q0 AS DOUBLE)))
               * 1e9 + 0.5) AS BIGINT)) AS s9
      FROM j, e)
SELECT yy.y0 AS year0, yy.y1 AS year1, e.np AS n_parts,
       t.s9 AS logsum_e9, ROUND(EXP(t.s9 / 1e9), 6) AS tornqvist
FROM yy, e, t
"""


def _part_three_rankings(sf_dir: str) -> pd.DataFrame:
    """Shared per-part (price cents, size, demanded qty) panel for the
    ranking-agreement ops — the qty side folds through the lineitem
    reduce, the part attributes ride the small table."""
    from ray.data.aggregate import Sum
    part = _read_table(sf_dir, "part",
                       ["p_partkey", "p_retailprice", "p_size"])
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({"p": t["l_partkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "q": np.floor(t["l_quantity"].to_numpy(
                zero_copy_only=False) + 0.5).astype(np.int64)}) \
            .groupby("p", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    dem = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("p").aggregate(Sum("q", alias_name="q"))
    ).to_pandas().set_index("p")["q"]
    pk = part["p_partkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    return pd.DataFrame({
        "pk": pk,
        "price": np.round(part["p_retailprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64),
        "size": part["p_size"].to_numpy(zero_copy_only=False)
        .astype(np.int64),
        "qty": dem.reindex(pk).fillna(0).to_numpy(np.int64)})


def q_kendalls_w_parts(sf_dir: str):
    """Kendall's W — do three independent part rankings (price, size,
    demand) agree at all?  The concordance coefficient behind every
    multi-judge shootout: with doubled midranks the tie-corrected
    W = (3Σ(2Rᵢ)² − 3m²n(n+1)²) / (m²(n³−n) − m·ΣT) is ONE mirrored
    division of arbitrary-precision integers (T = per-judge Σt³−t).
    W = 1 ⇔ identical rankings; W ≈ 0 ⇔ judges orthogonal."""
    pan = _part_three_rankings(sf_dir)
    n = len(pan)
    m = 3
    r2 = np.zeros(n, dtype=object)
    tcorr = 0
    for col in ("price", "size", "qty"):
        v = pan[col].to_numpy(np.int64)
        order = np.argsort(v, kind="stable")
        sv = v[order]
        uniq, start, cnt = np.unique(sv, return_index=True,
                                     return_counts=True)
        rank2 = np.empty(n, dtype=np.int64)
        rank2[order] = np.repeat(2 * start + cnt + 1, cnt)
        r2 = r2 + rank2.astype(object)
        tcorr += int((cnt.astype(object) ** 3
                      - cnt.astype(object)).sum())
    s_r2 = int((r2 * r2).sum())
    num = 3 * s_r2 - 3 * m * m * n * (n + 1) * (n + 1)
    den = m * m * (n ** 3 - n) - m * tcorr
    return pd.DataFrame([{
        "n_parts": n, "m_judges": m, "num": num, "den": den,
        "kendalls_w": np.round(float(num) / float(den), 6)}]) \
        .astype({"n_parts": np.int64, "m_judges": np.int64,
                 "num": np.int64, "den": np.int64})


SQL_KENDALLS_W = """
WITH dem AS (SELECT l_partkey AS pk,
                    CAST(SUM(CAST(FLOOR(l_quantity + 0.5)
                                  AS BIGINT)) AS BIGINT) AS q
             FROM lineitem GROUP BY 1),
pan AS (SELECT p_partkey AS pk,
               CAST(ROUND(p_retailprice * 100) AS BIGINT) AS price,
               CAST(p_size AS BIGINT) AS sz,
               COALESCE(dem.q, 0) AS qty
        FROM part LEFT JOIN dem ON dem.pk = p_partkey),
rp AS (SELECT pk, 2 * (RANK() OVER (ORDER BY price) - 1)
                  + COUNT(*) OVER (PARTITION BY price) + 1 AS r2
       FROM pan),
rs AS (SELECT pk, 2 * (RANK() OVER (ORDER BY sz) - 1)
                  + COUNT(*) OVER (PARTITION BY sz) + 1 AS r2
       FROM pan),
rq AS (SELECT pk, 2 * (RANK() OVER (ORDER BY qty) - 1)
                  + COUNT(*) OVER (PARTITION BY qty) + 1 AS r2
       FROM pan),
rr AS (SELECT rp.pk, rp.r2 + rs.r2 + rq.r2 AS r2
       FROM rp JOIN rs USING (pk) JOIN rq USING (pk)),
tc AS (SELECT
         (SELECT SUM(CAST(c AS HUGEINT) * c * c - c) FROM
          (SELECT COUNT(*) AS c FROM pan GROUP BY price))
         + (SELECT SUM(CAST(c AS HUGEINT) * c * c - c) FROM
            (SELECT COUNT(*) AS c FROM pan GROUP BY sz))
         + (SELECT SUM(CAST(c AS HUGEINT) * c * c - c) FROM
            (SELECT COUNT(*) AS c FROM pan GROUP BY qty)) AS t),
s AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(CAST(r2 AS HUGEINT) * r2) AS sr2
      FROM rr)
SELECT CAST(n AS BIGINT) AS n_parts, CAST(3 AS BIGINT) AS m_judges,
       CAST(3 * sr2 - 27 * n * (n + 1) * (n + 1) AS BIGINT) AS num,
       CAST(9 * (n * n * n - n) - 3 * tc.t AS BIGINT) AS den,
       ROUND(CAST(3 * sr2 - 27 * n * (n + 1) * (n + 1) AS DOUBLE)
             / CAST(9 * (n * n * n - n) - 3 * tc.t AS DOUBLE), 6)
         AS kendalls_w
FROM s, tc
"""


def q_spearman_footrule_parts(sf_dir: str):
    """Spearman's footrule between the price and demand rankings of
    parts — the L1 permutation distance (the metric behind rank-
    aggregation guarantees; Diaconis–Graham bounds it within 2× of
    Kendall's τ distance): strict ranks via the deterministic
    (value, partkey) order make D = Σ|r_price − r_qty| a pure
    integer, max D = ⌊n²/2⌋, similarity = 1 − D/max one mirrored
    division."""
    pan = _part_three_rankings(sf_dir)
    n = len(pan)

    def strict_rank(col: str) -> np.ndarray:
        order = np.lexsort((pan["pk"].to_numpy(np.int64),
                            pan[col].to_numpy(np.int64)))
        r = np.empty(n, dtype=np.int64)
        r[order] = np.arange(1, n + 1)
        return r

    d = int(np.abs(strict_rank("price")
                   - strict_rank("qty")).sum())
    mx = n * n // 2
    return pd.DataFrame([{
        "n_parts": n, "footrule_d": d, "max_d": mx,
        "similarity": np.round(1.0 - float(d) / float(mx), 6)}]) \
        .astype({"n_parts": np.int64, "footrule_d": np.int64,
                 "max_d": np.int64})


SQL_FOOTRULE = """
WITH dem AS (SELECT l_partkey AS pk,
                    CAST(SUM(CAST(FLOOR(l_quantity + 0.5)
                                  AS BIGINT)) AS BIGINT) AS q
             FROM lineitem GROUP BY 1),
pan AS (SELECT p_partkey AS pk,
               CAST(ROUND(p_retailprice * 100) AS BIGINT) AS price,
               COALESCE(dem.q, 0) AS qty
        FROM part LEFT JOIN dem ON dem.pk = p_partkey),
r AS (SELECT pk,
             ROW_NUMBER() OVER (ORDER BY price, pk) AS rp,
             ROW_NUMBER() OVER (ORDER BY qty, pk) AS rq
      FROM pan),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(ABS(rp - rq)) AS BIGINT) AS d
      FROM r)
SELECT n AS n_parts, d AS footrule_d,
       CAST(n * n // 2 AS BIGINT) AS max_d,
       ROUND(1.0 - CAST(d AS DOUBLE)
             / CAST(n * n // 2 AS DOUBLE), 6) AS similarity
FROM s
"""


def q_uniform_price_auction(sf_dir: str):
    """Uniform-price multi-unit auction for K = 100 identical units
    with parts bidding their retail price (cents) — the treasury-
    auction clearing rule beside the registry's second-price op: the
    market-clearing price is the (K+1)-th highest bid (every winner
    pays it; unit-demand bidders make this the VCG payment too),
    winners are the top-K by (bid DESC, partkey) — an exact ordered
    pick — and revenue = K·price is pure integer."""
    part = _read_table(sf_dir, "part",
                       ["p_partkey", "p_retailprice"])
    bids = np.round(part["p_retailprice"].to_numpy(
        zero_copy_only=False) * 100.0).astype(np.int64)
    pk = part["p_partkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    order = np.lexsort((pk, -bids))
    k = 100
    n = len(bids)
    price = int(bids[order][k]) if n > k else 0
    kth_winner_bid = int(bids[order][k - 1]) if n >= k else \
        (int(bids[order][-1]) if n else 0)
    return pd.DataFrame([{
        "n_bidders": n, "k_units": k,
        "clearing_price_c": price,
        "lowest_winning_bid_c": kth_winner_bid,
        "revenue_c": k * price}]).astype(np.int64)


SQL_UNIFORM_AUCTION = """
WITH b AS (SELECT p_partkey,
                  CAST(ROUND(p_retailprice * 100) AS BIGINT) AS bid,
                  ROW_NUMBER() OVER (
                    ORDER BY CAST(ROUND(p_retailprice * 100)
                                  AS BIGINT) DESC, p_partkey) AS rn
           FROM part),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM b)
SELECT n.n AS n_bidders, CAST(100 AS BIGINT) AS k_units,
       COALESCE((SELECT bid FROM b WHERE rn = 101), 0)
         AS clearing_price_c,
       COALESCE((SELECT bid FROM b WHERE rn = 100),
                (SELECT bid FROM b ORDER BY rn DESC LIMIT 1))
         AS lowest_winning_bid_c,
       100 * COALESCE((SELECT bid FROM b WHERE rn = 101), 0)
         AS revenue_c
FROM n
"""


def q_charm_pricing_audit(sf_dir: str):
    """Charm-pricing audit of the part catalog — retail's .99 tell:
    the cents-ending histogram over {**.99, **.00, **.50, other} per
    brand plus the catalog-wide 99-ending lift vs the 1% uniform
    expectation — integer counts throughout, the lift one mirrored
    division.  A synthetic catalog SHOULDN'T charm-price; a real one
    does — the audit quantifies which."""
    from ray.data.aggregate import Sum
    part = _read(sf_dir, "part", ["p_brand", "p_retailprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["p_retailprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64) % 100
        ending = np.where(cents == 99, "p99",
                          np.where(cents == 0, "p00",
                                   np.where(cents == 50, "p50",
                                            "other")))
        g = pd.DataFrame({"brand": t["p_brand"].to_pylist(),
                          "ending": ending, "c": 1}) \
            .groupby(["brand", "ending"], sort=False).sum() \
            .reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        part.map_batches(partial, batch_format="pyarrow")
        .groupby(["brand", "ending"]).aggregate(
            Sum("c", alias_name="c"))
    ).to_pandas()
    piv = g.pivot_table(index="brand", columns="ending", values="c",
                        fill_value=0, aggfunc="sum")
    for col in ("p99", "p00", "p50", "other"):
        if col not in piv.columns:
            piv[col] = 0
    piv = piv.sort_index().reset_index()
    n_tot = int(g["c"].sum())
    n99 = int(piv["p99"].sum())
    out = pd.DataFrame({
        "brand": piv["brand"],
        "n_p99": piv["p99"].astype(np.int64),
        "n_p00": piv["p00"].astype(np.int64),
        "n_p50": piv["p50"].astype(np.int64),
        "n_other": piv["other"].astype(np.int64)})
    out["lift99"] = np.round(float(100 * n99) / float(n_tot), 6)
    return out


SQL_CHARM_PRICING = """
WITH p AS (SELECT p_brand AS brand,
                  CAST(ROUND(p_retailprice * 100) AS BIGINT) % 100
                    AS cents
           FROM part),
e AS (SELECT brand,
             CASE WHEN cents = 99 THEN 'p99'
                  WHEN cents = 0 THEN 'p00'
                  WHEN cents = 50 THEN 'p50'
                  ELSE 'other' END AS ending
      FROM p),
g AS (SELECT brand,
             CAST(SUM(CASE WHEN ending = 'p99' THEN 1 ELSE 0 END)
                  AS BIGINT) AS n_p99,
             CAST(SUM(CASE WHEN ending = 'p00' THEN 1 ELSE 0 END)
                  AS BIGINT) AS n_p00,
             CAST(SUM(CASE WHEN ending = 'p50' THEN 1 ELSE 0 END)
                  AS BIGINT) AS n_p50,
             CAST(SUM(CASE WHEN ending NOT IN ('p99', 'p00', 'p50')
                      THEN 1 ELSE 0 END) AS BIGINT) AS n_other
      FROM e GROUP BY 1),
t AS (SELECT SUM(n_p99) AS n99,
             SUM(n_p99 + n_p00 + n_p50 + n_other) AS n FROM g)
SELECT g.brand, g.n_p99, g.n_p00, g.n_p50, g.n_other,
       ROUND(CAST(100 * t.n99 AS DOUBLE) / CAST(t.n AS DOUBLE), 6)
         AS lift99
FROM g, t ORDER BY g.brand
"""


def q_cronbach_alpha_parts(sf_dir: str):
    """Cronbach's α over the three part 'items' (price rank, size
    rank, demand rank — midrank-standardized so scales are
    commensurate): psychometrics' internal-consistency workhorse,
    α = k/(k−1)·(1 − Σσ²ᵢ/σ²_sum).  Using the doubled midranks from
    the Kendall's-W panel keeps every variance an exact-integer
    power-sum derivation; α spends one mirrored chain.  α → 1 when
    the three rankings move together — the scalar twin of W."""
    pan = _part_three_rankings(sf_dir)
    n = len(pan)
    r2s = []
    for col in ("price", "size", "qty"):
        v = pan[col].to_numpy(np.int64)
        order = np.argsort(v, kind="stable")
        sv = v[order]
        uniq, start, cnt = np.unique(sv, return_index=True,
                                     return_counts=True)
        rank2 = np.empty(n, dtype=np.int64)
        rank2[order] = np.repeat(2 * start + cnt + 1, cnt)
        r2s.append(rank2.astype(object))
    tot = r2s[0] + r2s[1] + r2s[2]

    def var_terms(arr):
        s = int(arr.sum())
        s2 = int((arr * arr).sum())
        return s, s2

    item_var = 0.0
    for arr in r2s:
        s, s2 = var_terms(arr)
        item_var += float(s2) / n - (float(s) / n) * (float(s) / n)
    st, st2 = var_terms(tot)
    tot_var = float(st2) / n - (float(st) / n) * (float(st) / n)
    alpha = 3.0 / 2.0 * (1.0 - item_var / tot_var)
    return pd.DataFrame([{
        "n_parts": n, "k_items": 3,
        "item_var_sum": np.round(item_var, 4),
        "total_var": np.round(tot_var, 4),
        "cronbach_alpha": np.round(alpha, 6)}]).astype({
            "n_parts": np.int64, "k_items": np.int64})


SQL_CRONBACH = """
WITH dem AS (SELECT l_partkey AS pk,
                    CAST(SUM(CAST(FLOOR(l_quantity + 0.5)
                                  AS BIGINT)) AS BIGINT) AS q
             FROM lineitem GROUP BY 1),
pan AS (SELECT p_partkey AS pk,
               CAST(ROUND(p_retailprice * 100) AS BIGINT) AS price,
               CAST(p_size AS BIGINT) AS sz,
               COALESCE(dem.q, 0) AS qty
        FROM part LEFT JOIN dem ON dem.pk = p_partkey),
rp AS (SELECT pk, 2 * (RANK() OVER (ORDER BY price) - 1)
                  + COUNT(*) OVER (PARTITION BY price) + 1 AS r2
       FROM pan),
rs AS (SELECT pk, 2 * (RANK() OVER (ORDER BY sz) - 1)
                  + COUNT(*) OVER (PARTITION BY sz) + 1 AS r2
       FROM pan),
rq AS (SELECT pk, 2 * (RANK() OVER (ORDER BY qty) - 1)
                  + COUNT(*) OVER (PARTITION BY qty) + 1 AS r2
       FROM pan),
j AS (SELECT rp.pk, rp.r2 AS a, rs.r2 AS b, rq.r2 AS c
      FROM rp JOIN rs USING (pk) JOIN rq USING (pk)),
m AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             SUM(CAST(a AS HUGEINT)) AS sa,
             SUM(CAST(a AS HUGEINT) * a) AS sa2,
             SUM(CAST(b AS HUGEINT)) AS sb,
             SUM(CAST(b AS HUGEINT) * b) AS sb2,
             SUM(CAST(c AS HUGEINT)) AS sc,
             SUM(CAST(c AS HUGEINT) * c) AS sc2,
             SUM(CAST(a + b + c AS HUGEINT)) AS st,
             SUM(CAST(a + b + c AS HUGEINT) * (a + b + c)) AS st2
      FROM j),
f AS (SELECT n,
             (CAST(sa2 AS DOUBLE) / n - (CAST(sa AS DOUBLE) / n)
              * (CAST(sa AS DOUBLE) / n))
             + (CAST(sb2 AS DOUBLE) / n - (CAST(sb AS DOUBLE) / n)
                * (CAST(sb AS DOUBLE) / n))
             + (CAST(sc2 AS DOUBLE) / n - (CAST(sc AS DOUBLE) / n)
                * (CAST(sc AS DOUBLE) / n)) AS iv,
             CAST(st2 AS DOUBLE) / n - (CAST(st AS DOUBLE) / n)
               * (CAST(st AS DOUBLE) / n) AS tv
      FROM m)
SELECT n AS n_parts, CAST(3 AS BIGINT) AS k_items,
       ROUND(iv, 4) AS item_var_sum, ROUND(tv, 4) AS total_var,
       ROUND(3.0 / 2.0 * (1.0 - iv / tv), 6) AS cronbach_alpha
FROM f
"""


def q_inventory_policy_replay(sf_dir: str):
    """(s, S) inventory policy replay against the daily demand stream
    (total lineitem quantity/day): start at S = 2× mean daily demand
    (integer-cleared), reorder up to S whenever the position falls
    below s = S/2, orders arrive next day — the textbook policy
    priced on real demand: stockout days, orders placed, total
    shortfall, and the closing position are all INTEGER state walked
    day by day (the twin replays the identical recursion in a
    recursive CTE over the dense calendar)."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_shipdate", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["l_shipdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        q = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64)
        g = pd.DataFrame({"day": day, "q": q}) \
            .groupby("day", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    d = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("q", alias_name="q"))
    ).to_pandas().sort_values("day").reset_index(drop=True)
    d0, d1 = int(d["day"].min()), int(d["day"].max())
    nd = d1 - d0 + 1
    dem = np.zeros(nd, dtype=np.int64)
    dem[d["day"].to_numpy(np.int64) - d0] = d["q"].to_numpy(np.int64)
    total = int(dem.sum())
    s_up = 2 * total // nd              # S = 2·mean (floor)
    s_lo = s_up // 2
    inv = s_up
    pending = 0
    stockouts = 0
    orders = 0
    shortfall = 0
    for t in range(nd):
        inv += pending                   # yesterday's order arrives
        pending = 0
        demand = int(dem[t])
        served = min(inv, demand)
        if served < demand:
            stockouts += 1
            shortfall += demand - served
        inv -= served
        if inv < s_lo:
            pending = s_up - inv
            orders += 1
    return pd.DataFrame([{
        "n_days": nd, "s_reorder": s_lo, "s_upto": s_up,
        "n_orders": orders, "n_stockout_days": stockouts,
        "total_shortfall": shortfall,
        "closing_inventory": inv}]).astype(np.int64)


SQL_INVENTORY_REPLAY = """
WITH RECURSIVE dd AS (SELECT epoch_us(l_shipdate) // 86400000000
                        AS day,
                      CAST(SUM(CAST(FLOOR(l_quantity + 0.5)
                                    AS BIGINT)) AS BIGINT) AS q
               FROM lineitem GROUP BY 1),
mm AS (SELECT MIN(day) AS d0, MAX(day) AS d1,
              CAST(MAX(day) - MIN(day) + 1 AS BIGINT) AS nd
       FROM dd),
cal AS (SELECT mm.d0 + s AS day, s AS t
        FROM mm, generate_series(0, 4095) g(s)
        WHERE mm.d0 + s <= mm.d1),
dem AS (SELECT cal.t, COALESCE(dd.q, 0) AS q
        FROM cal LEFT JOIN dd ON dd.day = cal.day),
par AS (SELECT CAST(2 * SUM(q) // MAX(nd2) AS BIGINT) AS s_up
        FROM (SELECT q, (SELECT nd FROM mm) AS nd2 FROM dem)),
r AS (SELECT -1 AS t, (SELECT s_up FROM par) AS inv,
             CAST(0 AS BIGINT) AS pending,
             CAST(0 AS BIGINT) AS stockouts,
             CAST(0 AS BIGINT) AS orders,
             CAST(0 AS BIGINT) AS shortfall
      UNION ALL
      SELECT d.t,
             CASE WHEN r.inv + r.pending
                       - LEAST(r.inv + r.pending, d.q)
                       < (SELECT s_up // 2 FROM par)
                  THEN r.inv + r.pending
                       - LEAST(r.inv + r.pending, d.q)
                  ELSE r.inv + r.pending
                       - LEAST(r.inv + r.pending, d.q) END AS inv,
             CASE WHEN r.inv + r.pending
                       - LEAST(r.inv + r.pending, d.q)
                       < (SELECT s_up // 2 FROM par)
                  THEN (SELECT s_up FROM par)
                       - (r.inv + r.pending
                          - LEAST(r.inv + r.pending, d.q))
                  ELSE 0 END AS pending,
             r.stockouts + CASE WHEN r.inv + r.pending < d.q
                                THEN 1 ELSE 0 END,
             r.orders + CASE WHEN r.inv + r.pending
                                  - LEAST(r.inv + r.pending, d.q)
                                  < (SELECT s_up // 2 FROM par)
                             THEN 1 ELSE 0 END,
             r.shortfall + GREATEST(d.q - (r.inv + r.pending), 0)
      FROM r JOIN dem d ON d.t = r.t + 1),
fin AS (SELECT * FROM r ORDER BY t DESC LIMIT 1)
SELECT (SELECT CAST(nd AS BIGINT) FROM mm) AS n_days,
       (SELECT CAST(s_up // 2 AS BIGINT) FROM par) AS s_reorder,
       (SELECT CAST(s_up AS BIGINT) FROM par) AS s_upto,
       fin.orders AS n_orders,
       fin.stockouts AS n_stockout_days,
       fin.shortfall AS total_shortfall,
       CAST(fin.inv AS BIGINT) AS closing_inventory
FROM fin
"""


def q_safety_stock_ladder(sf_dir: str):
    """Safety-stock ladder from the EMPIRICAL daily-demand quantiles
    at cycle service levels 90/95/99% — the distribution-free
    alternative to the z·σ normal formula (real demand is skewed;
    the quantile IS the answer): each level's stock is the exact
    type-1 order statistic minus the mean (mirrored division once),
    so the ladder is auditable integers + one float per rung."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_shipdate", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["l_shipdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        q = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64)
        g = pd.DataFrame({"day": day, "q": q}) \
            .groupby("day", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    d = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("q", alias_name="q"))
    ).to_pandas()
    v = np.sort(d["q"].to_numpy(np.int64))
    n = len(v)
    s = int(v.astype(object).sum())
    mean = float(s) / float(n)
    rows = []
    for pct in (90, 95, 99):
        k = (pct * n + 99) // 100
        qv = int(v[k - 1])
        rows.append({"service_level": pct, "demand_q": qv,
                     "mean_demand": np.round(mean, 6),
                     "safety_stock": np.round(qv - mean, 6)})
    return pd.DataFrame(rows).astype({
        "service_level": np.int64, "demand_q": np.int64})


SQL_SAFETY_STOCK = """
WITH dd AS (SELECT epoch_us(l_shipdate) // 86400000000 AS day,
                   CAST(SUM(CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                        AS BIGINT) AS q
            FROM lineitem GROUP BY 1),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(q) AS BIGINT) AS s FROM dd),
r AS (SELECT q, ROW_NUMBER() OVER (ORDER BY q) AS rn FROM dd),
lv AS (SELECT unnest([90, 95, 99]) AS pct)
SELECT CAST(lv.pct AS BIGINT) AS service_level,
       (SELECT CAST(q AS BIGINT) FROM r, n
        WHERE rn = (lv.pct * n.n + 99) // 100) AS demand_q,
       ROUND((SELECT CAST(s AS DOUBLE) / CAST(n AS DOUBLE) FROM n),
             6) AS mean_demand,
       ROUND((SELECT q FROM r, n
              WHERE rn = (lv.pct * n.n + 99) // 100)
             - (SELECT CAST(s AS DOUBLE) / CAST(n AS DOUBLE)
                FROM n), 6) AS safety_stock
FROM lv ORDER BY lv.pct
"""


def q_myerson_reserve_brands(sf_dir: str):
    """Empirical monopoly (Myerson) reserve price per brand — the
    argmax of r·(1 − F̂(r⁻)) over the observed retail-price bid
    distribution, i.e. the posted price that maximizes revenue
    against the brand's own empirical demand curve (Myerson's optimal
    reserve evaluated on the empirical distribution).  revenue(r) =
    r·#{v ≥ r} is exact integer cents×count; ties break to the
    LOWEST reserve (sell more at equal revenue), stated in both
    engines.  One value-domain-bounded (brand, cents) reduce, per-
    brand argmax finish."""
    from ray.data.aggregate import Sum
    pt = _read(sf_dir, "part", ["p_brand", "p_retailprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(t["p_retailprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"b": t["p_brand"].to_numpy(
            zero_copy_only=False), "v": cents, "c": 1}) \
            .groupby(["b", "v"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    dist = relational.ds_to_table(
        pt.map_batches(partial, batch_format="pyarrow")
        .groupby(["b", "v"]).aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    rows = []
    for b, g in dist.groupby("b"):
        g = g.sort_values("v", ascending=False)
        ge = g["c"].cumsum().to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        rev = v.astype(object) * ge.astype(object)
        best = None
        for i in range(len(v)):
            if best is None or int(rev[i]) > best[0] or \
                    (int(rev[i]) == best[0] and int(v[i]) < best[1]):
                best = (int(rev[i]), int(v[i]), int(ge[i]))
        rows.append({"p_brand": b, "n_parts": int(ge[-1]),
                     "reserve_cents": best[1], "n_sold": best[2],
                     "revenue_cents": best[0]})
    return pd.DataFrame(rows).sort_values("p_brand") \
        .reset_index(drop=True).astype({
            "n_parts": np.int64, "reserve_cents": np.int64,
            "n_sold": np.int64, "revenue_cents": np.int64})


SQL_MYERSON_RESERVE = """
WITH bd AS (SELECT p_brand,
                   CAST(ROUND(p_retailprice * 100) AS BIGINT) AS v,
                   CAST(COUNT(*) AS BIGINT) AS c
            FROM part GROUP BY 1, 2),
w AS (SELECT p_brand, v,
             SUM(c) OVER (PARTITION BY p_brand ORDER BY v DESC)
               AS ge,
             SUM(c) OVER (PARTITION BY p_brand) AS n
      FROM bd),
r AS (SELECT p_brand, v, ge, n, CAST(v AS HUGEINT) * ge AS rev,
             ROW_NUMBER() OVER (PARTITION BY p_brand
                                ORDER BY CAST(v AS HUGEINT) * ge
                                         DESC, v ASC) AS rn
      FROM w)
SELECT p_brand, CAST(n AS BIGINT) AS n_parts,
       v AS reserve_cents, CAST(ge AS BIGINT) AS n_sold,
       CAST(rev AS BIGINT) AS revenue_cents
FROM r WHERE rn = 1 ORDER BY p_brand
"""


def q_jain_fairness_buckets(sf_dir: str):
    """Jain's fairness index of a 64-way hash-bucket layout over
    lineitem orderkeys — THE systems number for 'is my partitioning
    balanced?' (1 = perfectly even, 1/B = everything on one shard):
    bucket = high bits of the Knuth multiplicative hash
    (k·2654435761 mod 2³², then ·64 >> 32 — stated, exact in both
    engines), J = (Σn)²/(B·Σn²) an exact integer ratio, plus the
    min/max envelope and coefficient of variation."""
    import math
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_orderkey"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["l_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        h = (k * 2654435761) % (1 << 32)
        b = (h * 64) >> 32
        u, c = np.unique(b, return_counts=True)
        return pa.table({"b": pa.array(u.astype(np.int64)),
                         "c": pa.array(c.astype(np.int64))})

    g = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("b").aggregate(Sum("c", alias_name="c"))
    ).to_pandas()
    cnt = np.zeros(64, dtype=np.int64)
    cnt[g["b"].to_numpy(np.int64)] = g["c"].to_numpy(np.int64)
    s = int(cnt.sum())
    s2 = int((cnt.astype(object) ** 2).sum())
    jain = float(s * s) / float(64 * s2)
    cv = math.sqrt(float(64 * s2 - s * s)) / float(s)
    return pd.DataFrame([{
        "n_rows": s, "n_buckets": 64,
        "min_bucket": int(cnt.min()), "max_bucket": int(cnt.max()),
        "jain_index": np.round(jain, 6),
        "cv": np.round(cv, 6)}]).astype({
            "n_rows": np.int64, "n_buckets": np.int64,
            "min_bucket": np.int64, "max_bucket": np.int64})


SQL_JAIN_FAIRNESS = """
WITH b AS (SELECT (((l_orderkey * 2654435761) % 4294967296) * 64)
                  // 4294967296 AS b
           FROM lineitem),
g AS (SELECT gg.b, CAST(COALESCE(cnt.c, 0) AS BIGINT) AS c
      FROM (SELECT unnest(generate_series(0, 63)) AS b) gg
      LEFT JOIN (SELECT b, CAST(COUNT(*) AS BIGINT) AS c
                 FROM b GROUP BY 1) cnt USING (b)),
t AS (SELECT CAST(SUM(c) AS HUGEINT) AS s,
             SUM(CAST(c AS HUGEINT) * c) AS s2,
             MIN(c) AS mn, MAX(c) AS mx
      FROM g)
SELECT CAST(s AS BIGINT) AS n_rows, CAST(64 AS BIGINT) AS n_buckets,
       mn AS min_bucket, mx AS max_bucket,
       ROUND(CAST(s * s AS DOUBLE) / CAST(64 * s2 AS DOUBLE), 6)
         AS jain_index,
       ROUND(SQRT(CAST(64 * s2 - s * s AS DOUBLE))
             / CAST(s AS DOUBLE), 6) AS cv
FROM t
"""


def q_vwap_daily_lineitem(sf_dir: str):
    """Daily volume-weighted average price over lineitem — market
    microstructure's benchmark execution price applied to the order
    book: VWAP_d = Σ extendedprice / Σ quantity (extendedprice IS
    price×qty), an exact integer-cents over integer-units ratio per
    day, one bounded reduce.  Power-of-two quantities make exact
    x.xxxxxx5 binary doubles, so the 6-dp display is MIRROR-FLOORED
    (np half-even vs DuckDB half-away caught by the gate).  Rows
    ordered by day."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem",
               ["l_shipdate", "l_extendedprice", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["l_shipdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64) \
            // 86_400_000_000
        cents = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        q = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64)
        g = pd.DataFrame({"day": day, "pc_": cents, "q": q}) \
            .groupby("day", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("day").aggregate(Sum("pc_", alias_name="pc_"),
                                  Sum("q", alias_name="q"))
    ).to_pandas().sort_values("day").reset_index(drop=True)
    return pd.DataFrame({
        "day": g["day"].astype(np.int64),
        "total_qty": g["q"].astype(np.int64),
        "notional_cents": g["pc_"].astype(np.int64),
        "vwap": np.floor(g["pc_"].to_numpy(np.float64)
                         / g["q"].to_numpy(np.float64) / 100.0
                         * 1e6 + 0.5) / 1e6})


SQL_VWAP_DAILY = """
SELECT CAST(epoch_us(l_shipdate) // 86400000000 AS BIGINT) AS day,
       CAST(SUM(CAST(FLOOR(l_quantity + 0.5) AS BIGINT)) AS BIGINT)
         AS total_qty,
       CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT))
            AS BIGINT) AS notional_cents,
       FLOOR(CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5)
                           AS BIGINT)) AS DOUBLE)
             / CAST(SUM(CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                    AS DOUBLE) / 100.0 * 1e6 + 0.5) / 1e6 AS vwap
FROM lineitem GROUP BY 1 ORDER BY 1
"""


def q_price_elasticity_parts(sf_dir: str):
    """Cross-sectional price elasticity of demand across parts —
    the log-log regression every pricing team runs first:
    ln(total qty) on ln(mean unit price) per part, slope =
    elasticity (ε < −1 elastic, −1 < ε < 0 inelastic).  Unit price
    = exact notional cents / exact units per part from one bounded
    reduce; per-part log terms nano-quantized; OLS slope +
    intercept mirrored."""
    import math
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        q = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64)
        g = pd.DataFrame({"p": t["l_partkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "pc_": cents, "q": q}) \
            .groupby("p", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("p").aggregate(Sum("pc_", alias_name="pc_"),
                                Sum("q", alias_name="q"))
    ).to_pandas()
    g = g[(g["q"] > 0) & (g["pc_"] > 0)]
    n = len(g)
    sx9 = sy9 = sxy9 = sxx9 = 0
    for r in g.itertuples(index=False):
        x = math.log(float(int(r.pc_)) / float(int(r.q)) / 100.0)
        y = math.log(float(int(r.q)))
        sx9 += int(np.floor(x * 1e9 + 0.5))
        sy9 += int(np.floor(y * 1e9 + 0.5))
        sxy9 += int(np.floor(x * y * 1e9 + 0.5))
        sxx9 += int(np.floor(x * x * 1e9 + 0.5))
    sx, sy = sx9 / 1e9, sy9 / 1e9
    sxy, sxx = sxy9 / 1e9, sxx9 / 1e9
    el = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    a = sy / n - el * (sx / n)
    return pd.DataFrame([{
        "n_parts": n, "elasticity": np.round(el, 6),
        "intercept_ln_q": np.round(a, 6)}]).astype({
            "n_parts": np.int64})


SQL_PRICE_ELASTICITY = """
WITH pp AS (SELECT l_partkey,
                   SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5)
                            AS BIGINT)) AS pc_,
                   SUM(CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                     AS q
            FROM lineitem GROUP BY 1),
q AS (SELECT LN(CAST(pc_ AS DOUBLE) / CAST(q AS DOUBLE) / 100.0)
               AS x,
             LN(CAST(q AS DOUBLE)) AS y
      FROM pp WHERE q > 0 AND pc_ > 0),
s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             SUM(CAST(FLOOR(x * 1e9 + 0.5) AS BIGINT)) / 1e9 AS sx,
             SUM(CAST(FLOOR(y * 1e9 + 0.5) AS BIGINT)) / 1e9 AS sy,
             SUM(CAST(FLOOR(x * y * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS sxy,
             SUM(CAST(FLOOR(x * x * 1e9 + 0.5) AS BIGINT)) / 1e9
               AS sxx
      FROM q),
b AS (SELECT n, (n * sxy - sx * sy) / (n * sxx - sx * sx) AS el,
             sx, sy
      FROM s)
SELECT n AS n_parts, ROUND(el, 6) AS elasticity,
       ROUND(sy / n - el * (sx / n), 6) AS intercept_ln_q
FROM b
"""


def _discount_tax_dominance(sf_dir: str):
    """Shared concordance panel for the ordinal-association family:
    the ≤99-cell (discount, tax) joint distribution with exact
    concordant/discordant ordered-dominance counts and the tie
    marginals — the Kendall op's machinery factored for γ and
    Somers' D."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_discount", "l_tax"])

    def partial(t: pa.Table) -> pa.Table:
        d = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        x = np.round(t["l_tax"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"d": d, "t": x, "pn": 1}) \
            .groupby(["d", "t"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cells = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby(["d", "t"]).aggregate(Sum("pn", alias_name="n"))
    ).to_pandas()
    d = cells["d"].to_numpy(np.int64)
    t_ = cells["t"].to_numpy(np.int64)
    n = cells["n"].to_numpy(np.int64)
    no = n.astype(object)
    conc = int(np.sum(no[:, None] * no[None, :]
                      * ((d[:, None] > d[None, :])
                         & (t_[:, None] > t_[None, :]))))
    disc = int(np.sum(no[:, None] * no[None, :]
                      * ((d[:, None] > d[None, :])
                         & (t_[:, None] < t_[None, :]))))
    N = int(n.sum())
    n0 = N * (N - 1) // 2
    n1 = sum(int(s) * (int(s) - 1) // 2
             for s in pd.DataFrame({"d": d, "n": n})
             .groupby("d")["n"].sum())
    n2 = sum(int(s) * (int(s) - 1) // 2
             for s in pd.DataFrame({"t": t_, "n": n})
             .groupby("t")["n"].sum())
    return N, conc, disc, n0, n1, n2


SQL_DOMINANCE_CTE = """
cells AS (SELECT CAST(ROUND(l_discount * 100) AS BIGINT) AS d,
                 CAST(ROUND(l_tax * 100) AS BIGINT) AS t,
                 CAST(COUNT(*) AS HUGEINT) AS n
          FROM lineitem GROUP BY 1, 2),
pairs AS (SELECT SUM(CASE WHEN b.d < a.d AND b.t < a.t
                     THEN a.n * b.n ELSE 0 END) AS conc,
                 SUM(CASE WHEN b.d < a.d AND b.t > a.t
                     THEN a.n * b.n ELSE 0 END) AS disc
          FROM cells a, cells b),
nn AS (SELECT CAST(SUM(n) AS HUGEINT) AS nt FROM cells),
tx AS (SELECT SUM(s * (s - 1) // 2) AS n1 FROM (
         SELECT SUM(n) AS s FROM cells GROUP BY d)),
ty AS (SELECT SUM(s * (s - 1) // 2) AS n2 FROM (
         SELECT SUM(n) AS s FROM cells GROUP BY t))
"""


def q_goodman_kruskal_gamma(sf_dir: str):
    """Goodman–Kruskal γ between discount and tax — the
    ties-ignoring ordinal association ((C−D)/(C+D)) that completes
    the concordance family beside tau-b (which PENALIZES ties) and
    Somers' D (which penalizes one side): on heavily-tied percent
    grids the three famously disagree, and γ is the one survey
    methodology reports.  Exact integer pair counts, one mirrored
    division."""
    N, conc, disc, n0, n1, n2 = _discount_tax_dominance(sf_dir)
    return pd.DataFrame([{
        "n": N, "conc": conc, "disc": disc,
        "gamma": np.round(float(conc - disc)
                          / float(conc + disc), 6)}]).astype({
            "n": np.int64, "conc": np.int64, "disc": np.int64})


def _sql_gamma() -> str:
    return f"""
WITH {SQL_DOMINANCE_CTE.strip()}
SELECT CAST(nn.nt AS BIGINT) AS n, CAST(pairs.conc AS BIGINT)
         AS conc,
       CAST(pairs.disc AS BIGINT) AS disc,
       ROUND(CAST(pairs.conc - pairs.disc AS DOUBLE)
             / CAST(pairs.conc + pairs.disc AS DOUBLE), 6) AS gamma
FROM pairs, nn
"""


def q_somers_d_discount_tax(sf_dir: str):
    """Somers' D between discount and tax, BOTH directions —
    the asymmetric concordance measure regression people actually
    want (D_yx conditions on the independent variable's untied
    pairs; it is also the Gini coefficient of the ROC world):
    D_yx = (C−D)/(n₀−n₁), D_xy = (C−D)/(n₀−n₂), exact integers
    into two mirrored divisions."""
    N, conc, disc, n0, n1, n2 = _discount_tax_dominance(sf_dir)
    return pd.DataFrame([{
        "n": N, "conc": conc, "disc": disc,
        "somers_d_yx": np.round(float(conc - disc)
                                / float(n0 - n1), 6),
        "somers_d_xy": np.round(float(conc - disc)
                                / float(n0 - n2), 6)}]).astype({
            "n": np.int64, "conc": np.int64, "disc": np.int64})


def _sql_somers() -> str:
    return f"""
WITH {SQL_DOMINANCE_CTE.strip()}
SELECT CAST(nn.nt AS BIGINT) AS n, CAST(pairs.conc AS BIGINT)
         AS conc,
       CAST(pairs.disc AS BIGINT) AS disc,
       ROUND(CAST(pairs.conc - pairs.disc AS DOUBLE)
             / CAST(nn.nt * (nn.nt - 1) // 2 - tx.n1 AS DOUBLE), 6)
         AS somers_d_yx,
       ROUND(CAST(pairs.conc - pairs.disc AS DOUBLE)
             / CAST(nn.nt * (nn.nt - 1) // 2 - ty.n2 AS DOUBLE), 6)
         AS somers_d_xy
FROM pairs, nn, tx, ty
"""


def q_fellegi_sunter_weights(sf_dir: str):
    """Fellegi–Sunter record-linkage weight census over brand-blocked
    part pairs — the 1969 decision theory under every probabilistic
    linkage system: fields = (p_type, p_size), m-probabilities the
    stated 0.9 literals, u-probabilities ESTIMATED from the data as
    the chance-agreement rates Σf_v² (exact integer rationals), and
    every blocked pair scores Σ ln(m/u) on agreements plus
    ln((1−m)/(1−u)) on disagreements — four possible patterns, so
    the output is the exact pattern census with its mirrored weight.
    One (brand, type, size) cell reduce; pair counts fold from cell
    products, never materializing pairs."""
    import math
    from ray.data.aggregate import Sum
    pt = _read(sf_dir, "part", ["p_brand", "p_type", "p_size"])

    def partial(t: pa.Table) -> pa.Table:
        g = pd.DataFrame({
            "b": t["p_brand"].to_numpy(zero_copy_only=False),
            "ty": t["p_type"].to_numpy(zero_copy_only=False),
            "sz": t["p_size"].to_numpy(zero_copy_only=False)
            .astype(np.int64), "c": 1}) \
            .groupby(["b", "ty", "sz"], sort=False).sum() \
            .reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cells = relational.ds_to_table(
        pt.map_batches(partial, batch_format="pyarrow")
        .groupby(["b", "ty", "sz"]).aggregate(
            Sum("c", alias_name="c"))).to_pandas()
    n_tot = int(cells["c"].sum())
    # u per field: global chance-agreement Σ f_v², exact integers
    u_t_num = sum(int(s) * int(s) for s in
                  cells.groupby("ty")["c"].sum())
    u_s_num = sum(int(s) * int(s) for s in
                  cells.groupby("sz")["c"].sum())
    # clamp u below 1 (an all-identical field otherwise zeroes the
    # disagreement odds): u <= (n^2 - 1)/n^2, mirrored via LEAST
    u_t = float(min(u_t_num, n_tot * n_tot - 1)) \
        / float(n_tot * n_tot)
    u_s = float(min(u_s_num, n_tot * n_tot - 1)) \
        / float(n_tot * n_tot)
    m = 0.9
    # pattern pair counts within brand blocks, from cell products:
    # all = C(nb,2) summed; type-agree pairs; size-agree; both-agree
    pat = {"tt": 0, "t_": 0, "_t": 0, "__": 0}
    allp = tboth = tagree = sagree = 0
    for b, g in cells.groupby("b"):
        nb = int(g["c"].sum())
        allp += nb * (nb - 1) // 2
        for _, gg in g.groupby("ty"):
            s = int(gg["c"].sum())
            tagree += s * (s - 1) // 2
        for _, gg in g.groupby("sz"):
            s = int(gg["c"].sum())
            sagree += s * (s - 1) // 2
        for _, gg in g.groupby(["ty", "sz"]):
            s = int(gg["c"].sum())
            tboth += s * (s - 1) // 2
    pat["tt"] = tboth
    pat["t_"] = tagree - tboth
    pat["_t"] = sagree - tboth
    pat["__"] = allp - tagree - sagree + tboth
    wa_t = math.log(m / u_t)
    wd_t = math.log((1.0 - m) / (1.0 - u_t))
    wa_s = math.log(m / u_s)
    wd_s = math.log((1.0 - m) / (1.0 - u_s))
    rows = [
        {"pattern": "both_agree", "n_pairs": pat["tt"],
         "weight": np.round(wa_t + wa_s, 6)},
        {"pattern": "type_only", "n_pairs": pat["t_"],
         "weight": np.round(wa_t + wd_s, 6)},
        {"pattern": "size_only", "n_pairs": pat["_t"],
         "weight": np.round(wd_t + wa_s, 6)},
        {"pattern": "neither", "n_pairs": pat["__"],
         "weight": np.round(wd_t + wd_s, 6)}]
    return pd.DataFrame(rows).astype({"n_pairs": np.int64})


SQL_FELLEGI_SUNTER = """
WITH cells AS (SELECT p_brand AS b, p_type AS ty, p_size AS sz,
                      CAST(COUNT(*) AS BIGINT) AS c
               FROM part GROUP BY 1, 2, 3),
n AS (SELECT CAST(SUM(c) AS HUGEINT) AS nt FROM cells),
ut AS (SELECT SUM(s * s) AS num FROM (
         SELECT CAST(SUM(c) AS HUGEINT) AS s FROM cells
         GROUP BY ty)),
us AS (SELECT SUM(s * s) AS num FROM (
         SELECT CAST(SUM(c) AS HUGEINT) AS s FROM cells
         GROUP BY sz)),
uu AS (SELECT CAST(LEAST(ut.num, n.nt * n.nt - 1) AS DOUBLE)
              / CAST(n.nt * n.nt AS DOUBLE) AS u_t,
              CAST(LEAST(us.num, n.nt * n.nt - 1) AS DOUBLE)
              / CAST(n.nt * n.nt AS DOUBLE) AS u_s
       FROM ut, us, n),
blk AS (SELECT b, CAST(SUM(c) AS HUGEINT) AS nb FROM cells
        GROUP BY 1),
allp AS (SELECT SUM(nb * (nb - 1) // 2) AS p FROM blk),
ta AS (SELECT SUM(s * (s - 1) // 2) AS p FROM (
         SELECT CAST(SUM(c) AS HUGEINT) AS s FROM cells
         GROUP BY b, ty)),
sa AS (SELECT SUM(s * (s - 1) // 2) AS p FROM (
         SELECT CAST(SUM(c) AS HUGEINT) AS s FROM cells
         GROUP BY b, sz)),
bo AS (SELECT SUM(s * (s - 1) // 2) AS p FROM (
         SELECT CAST(SUM(c) AS HUGEINT) AS s FROM cells
         GROUP BY b, ty, sz)),
pat AS (SELECT 'both_agree' AS pattern,
               CAST(bo.p AS BIGINT) AS n_pairs,
               LN(0.9 / u_t) + LN(0.9 / u_s) AS w
        FROM bo, uu
        UNION ALL
        SELECT 'type_only', CAST(ta.p - bo.p AS BIGINT),
               LN(0.9 / u_t) + LN(0.1 / (1.0 - u_s))
        FROM ta, bo, uu
        UNION ALL
        SELECT 'size_only', CAST(sa.p - bo.p AS BIGINT),
               LN(0.1 / (1.0 - u_t)) + LN(0.9 / u_s)
        FROM sa, bo, uu
        UNION ALL
        SELECT 'neither',
               CAST(allp.p - ta.p - sa.p + bo.p AS BIGINT),
               LN(0.1 / (1.0 - u_t)) + LN(0.1 / (1.0 - u_s))
        FROM allp, ta, sa, bo, uu)
SELECT pattern, n_pairs, ROUND(w, 6) AS weight FROM pat
"""


def q_ridge_price_model(sf_dir: str):
    """Ridge regression of lineitem price on (quantity, discount)
    with λ = 1000 — the closed-form shrinkage companion to the
    registry's OLS2 op (collinearity-proof where OLS blows up):
    center by means via n-scaling so every Gram entry is an EXACT
    integer, solve (C + nλ·diag) via a Cramer 2×2 of exact integer
    determinants (the intercept is unpenalized, the standard
    convention), two float divisions total."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem",
               ["l_quantity", "l_discount", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        q = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64) \
            .astype(object)
        d = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64) \
            .astype(object)
        y = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64) \
            .astype(object)
        return pa.table({
            "_g": pa.array([0]), "n": pa.array([len(q)]),
            "s1": pa.array([int(q.sum())]),
            "s2": pa.array([int(d.sum())]),
            "sy": pa.array([int(y.sum())]),
            "s11": pa.array([int((q * q).sum())]),
            "s22": pa.array([int((d * d).sum())]),
            "s12": pa.array([int((q * d).sum())]),
            "s1y": pa.array([int((q * y).sum())]),
            "s2y": pa.array([int((d * y).sum())])})

    cols = ["n", "s1", "s2", "sy", "s11", "s22", "s12", "s1y",
            "s2y"]
    m = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("_g").aggregate(
            *[Sum(c, alias_name=c) for c in cols])).to_pandas()
    v = {c: int(m[c].iloc[0]) for c in cols}
    n = v["n"]
    lam = 1000
    c11 = n * v["s11"] - v["s1"] * v["s1"] + n * n * lam
    c22 = n * v["s22"] - v["s2"] * v["s2"] + n * n * lam
    c12 = n * v["s12"] - v["s1"] * v["s2"]
    c1y = n * v["s1y"] - v["s1"] * v["sy"]
    c2y = n * v["s2y"] - v["s2"] * v["sy"]
    det = c11 * c22 - c12 * c12
    b1 = float(c1y * c22 - c2y * c12) / float(det)
    b2 = float(c2y * c11 - c1y * c12) / float(det)
    b0 = (float(v["sy"]) - b1 * v["s1"] - b2 * v["s2"]) / n
    return pd.DataFrame([{
        "n_rows": n, "beta_qty": np.round(b1, 6),
        "beta_disc": np.round(b2, 6),
        "intercept_c": np.round(b0, 6)}]).astype({
            "n_rows": np.int64})


SQL_RIDGE_PRICE = """
WITH t AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             CAST(SUM(CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                  AS HUGEINT) AS s1,
             CAST(SUM(CAST(ROUND(l_discount * 100) AS BIGINT))
                  AS HUGEINT) AS s2,
             CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5)
                           AS BIGINT)) AS HUGEINT) AS sy,
             SUM(CAST(FLOOR(l_quantity + 0.5) AS HUGEINT)
                 * CAST(FLOOR(l_quantity + 0.5) AS BIGINT)) AS s11,
             SUM(CAST(ROUND(l_discount * 100) AS HUGEINT)
                 * CAST(ROUND(l_discount * 100) AS BIGINT)) AS s22,
             SUM(CAST(FLOOR(l_quantity + 0.5) AS HUGEINT)
                 * CAST(ROUND(l_discount * 100) AS BIGINT)) AS s12,
             SUM(CAST(FLOOR(l_quantity + 0.5) AS HUGEINT)
                 * CAST(FLOOR(l_extendedprice * 100 + 0.5)
                        AS BIGINT)) AS s1y,
             SUM(CAST(ROUND(l_discount * 100) AS HUGEINT)
                 * CAST(FLOOR(l_extendedprice * 100 + 0.5)
                        AS BIGINT)) AS s2y
      FROM lineitem),
c AS (SELECT n, n * s11 - s1 * s1 + n * n * 1000 AS c11,
             n * s22 - s2 * s2 + n * n * 1000 AS c22,
             n * s12 - s1 * s2 AS c12,
             n * s1y - s1 * sy AS c1y,
             n * s2y - s2 * sy AS c2y, s1, s2, sy
      FROM t),
f AS (SELECT n, s1, s2, sy,
             CAST(c1y * c22 - c2y * c12 AS DOUBLE)
               / CAST(c11 * c22 - c12 * c12 AS DOUBLE) AS b1,
             CAST(c2y * c11 - c1y * c12 AS DOUBLE)
               / CAST(c11 * c22 - c12 * c12 AS DOUBLE) AS b2
      FROM c)
SELECT CAST(n AS BIGINT) AS n_rows, ROUND(b1, 6) AS beta_qty,
       ROUND(b2, 6) AS beta_disc,
       ROUND((CAST(sy AS DOUBLE) - b1 * CAST(s1 AS DOUBLE)
              - b2 * CAST(s2 AS DOUBLE)) / CAST(n AS DOUBLE), 6)
         AS intercept_c
FROM f
"""


def q_walsh_price_index(sf_dir: str):
    """Walsh price index between the first and last shipment year —
    the geometric-mean-weighted superlative that completes the
    Laspeyres/Paasche/Fisher/Törnqvist ladder (Walsh weights
    √(q₀q₁) treat the two baskets symmetrically WITHIN each item,
    where Fisher symmetrizes only at the end): same exact per-part
    (cents, qty) year panel as the Fisher op, per-part numerator and
    denominator terms NANO-QUANTIZED so the folds are order-free,
    one mirrored division."""
    import math
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_quantity",
                "l_shipdate"])

    def partial(t: pa.Table) -> pa.Table:
        yr = t["l_shipdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[Y]").astype(np.int64) + 1970
        cents = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        q = np.round(t["l_quantity"].to_numpy(
            zero_copy_only=False)).astype(np.int64)
        g = pd.DataFrame({"p": t["l_partkey"].to_numpy(
            zero_copy_only=False).astype(np.int64),
            "yr": yr, "c": cents, "q": q}) \
            .groupby(["p", "yr"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    py = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby(["p", "yr"]).aggregate(Sum("c", alias_name="c"),
                                        Sum("q", alias_name="q"))
    ).to_pandas()
    y0, y1 = int(py["yr"].min()), int(py["yr"].max())
    a = py[py["yr"] == y0].set_index("p")
    b = py[py["yr"] == y1].set_index("p")
    common = a.index.intersection(b.index)
    a, b = a.loc[common], b.loc[common]
    num9 = 0
    den9 = 0
    k = 0
    for p_ in common:
        c0, q0 = int(a.loc[p_, "c"]), int(a.loc[p_, "q"])
        c1, q1 = int(b.loc[p_, "c"]), int(b.loc[p_, "q"])
        if q0 <= 0 or q1 <= 0:
            continue
        k += 1
        w = math.sqrt(float(q0) * q1)
        num9 += int(np.floor(float(c1) / q1 * w * 1e9 + 0.5))
        den9 += int(np.floor(float(c0) / q0 * w * 1e9 + 0.5))
    return pd.DataFrame([{
        "year0": y0, "year1": y1, "n_parts": k,
        "walsh": np.round(float(num9) / float(den9), 6)}]).astype({
            "year0": np.int64, "year1": np.int64,
            "n_parts": np.int64})


SQL_WALSH = """
WITH py AS (SELECT l_partkey AS p,
                   CAST(EXTRACT(year FROM l_shipdate) AS BIGINT)
                     AS yr,
                   SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT))
                     AS c,
                   SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS q
            FROM lineitem GROUP BY 1, 2),
yy AS (SELECT MIN(yr) AS y0, MAX(yr) AS y1 FROM py),
j AS (SELECT a.p, a.c AS c0, a.q AS q0, b.c AS c1, b.q AS q1
      FROM py a JOIN py b ON a.p = b.p, yy
      WHERE a.yr = yy.y0 AND b.yr = yy.y1
        AND a.q > 0 AND b.q > 0),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS k,
             SUM(CAST(FLOOR(CAST(c1 AS DOUBLE) / q1
                            * SQRT(CAST(q0 AS DOUBLE) * q1)
                            * 1e9 + 0.5) AS BIGINT)) AS num9,
             SUM(CAST(FLOOR(CAST(c0 AS DOUBLE) / q0
                            * SQRT(CAST(q0 AS DOUBLE) * q1)
                            * 1e9 + 0.5) AS BIGINT)) AS den9
      FROM j)
SELECT yy.y0 AS year0, yy.y1 AS year1, t.k AS n_parts,
       ROUND(CAST(t.num9 AS DOUBLE) / CAST(t.den9 AS DOUBLE), 6)
         AS walsh
FROM t, yy
"""


def q_vif_price_regressors(sf_dir: str):
    """Variance inflation factors for the (quantity, discount) price
    model — the collinearity diagnostic that says whether the ridge
    op's shrinkage was even needed (VIF = 1/(1 − R²) of one
    regressor on the other; > 10 is the folk alarm): with two
    regressors both VIFs coincide and R² = corr², so the whole
    diagnostic clears to EXACT integer moments and two mirrored
    divisions."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_quantity", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        q = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64) \
            .astype(object)
        d = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64) \
            .astype(object)
        return pa.table({
            "_g": pa.array([0]), "n": pa.array([len(q)]),
            "s1": pa.array([int(q.sum())]),
            "s2": pa.array([int(d.sum())]),
            "s11": pa.array([int((q * q).sum())]),
            "s22": pa.array([int((d * d).sum())]),
            "s12": pa.array([int((q * d).sum())])})

    cols = ["n", "s1", "s2", "s11", "s22", "s12"]
    m = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("_g").aggregate(
            *[Sum(c, alias_name=c) for c in cols])).to_pandas()
    v = {c: int(m[c].iloc[0]) for c in cols}
    n = v["n"]
    c11 = n * v["s11"] - v["s1"] * v["s1"]
    c22 = n * v["s22"] - v["s2"] * v["s2"]
    c12 = n * v["s12"] - v["s1"] * v["s2"]
    r2 = float(c12) * float(c12) / (float(c11) * float(c22))
    # exact collinearity: r² = 1 → infinite VIF, reported NULL with
    # the alarm raised (stated)
    vif = np.nan if r2 >= 1.0 else 1.0 / (1.0 - r2)
    alarm = True if r2 >= 1.0 else bool(np.round(vif, 6) > 10.0)
    return pd.DataFrame([{
        "n_rows": n, "r2_between": np.round(r2, 6),
        "vif": np.round(vif, 6),
        "collinear_alarm": alarm}]).astype({
            "n_rows": np.int64})


SQL_VIF_PRICE = """
WITH t AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             CAST(SUM(CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                  AS HUGEINT) AS s1,
             CAST(SUM(CAST(ROUND(l_discount * 100) AS BIGINT))
                  AS HUGEINT) AS s2,
             SUM(CAST(FLOOR(l_quantity + 0.5) AS HUGEINT)
                 * CAST(FLOOR(l_quantity + 0.5) AS BIGINT)) AS s11,
             SUM(CAST(ROUND(l_discount * 100) AS HUGEINT)
                 * CAST(ROUND(l_discount * 100) AS BIGINT)) AS s22,
             SUM(CAST(FLOOR(l_quantity + 0.5) AS HUGEINT)
                 * CAST(ROUND(l_discount * 100) AS BIGINT)) AS s12
      FROM lineitem),
c AS (SELECT CAST(n AS BIGINT) AS n,
             CAST(n * s12 - s1 * s2 AS DOUBLE) AS c12,
             CAST(n * s11 - s1 * s1 AS DOUBLE) AS c11,
             CAST(n * s22 - s2 * s2 AS DOUBLE) AS c22
      FROM t),
f AS (SELECT n, c12 * c12 / (c11 * c22) AS r2 FROM c)
SELECT n AS n_rows, ROUND(r2, 6) AS r2_between,
       CASE WHEN r2 >= 1.0 THEN NULL
            ELSE ROUND(1.0 / (1.0 - r2), 6) END AS vif,
       CASE WHEN r2 >= 1.0 THEN TRUE
            ELSE ROUND(1.0 / (1.0 - r2), 6) > 10.0 END
         AS collinear_alarm
FROM f
"""


def q_ramsey_reset_price(sf_dir: str):
    """Ramsey RESET specification test for price ~ quantity — 'is
    the LINEAR form even right?' (the test every intro-econometrics
    course runs after OLS): stage 1 fits y = a + b·x from exact
    moments; stage 2 adds ŷ² as a regressor, each per-row
    z = (a + b·x)² MICRO-QUANTIZED in the distributed partials so
    the auxiliary moments are exact integer folds; the F statistic
    for the added term is one mirrored Cramer/R² chain."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem",
               ["l_quantity", "l_extendedprice"])

    def m1(t: pa.Table) -> pa.Table:
        x = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64) \
            .astype(object)
        y = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64) \
            .astype(object)
        return pa.table({
            "_g": pa.array([0]), "n": pa.array([len(x)]),
            "sx": pa.array([int(x.sum())]),
            "sy": pa.array([int(y.sum())]),
            "sxx": pa.array([int((x * x).sum())]),
            "sxy": pa.array([int((x * y).sum())])})

    cols1 = ["n", "sx", "sy", "sxx", "sxy"]
    a1 = relational.ds_to_table(
        li.map_batches(m1, batch_format="pyarrow")
        .groupby("_g").aggregate(
            *[Sum(c, alias_name=c) for c in cols1])).to_pandas()
    v1 = {c: int(a1[c].iloc[0]) for c in cols1}
    n = v1["n"]
    b = float(n * v1["sxy"] - v1["sx"] * v1["sy"]) \
        / float(n * v1["sxx"] - v1["sx"] * v1["sx"])
    a = (float(v1["sy"]) - b * float(v1["sx"])) / n

    def m2(t: pa.Table) -> pa.Table:
        x = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64)
        y = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64) \
            .astype(object)
        yh = a + b * x.astype(np.float64)
        # ŷ² in DOLLAR² units (cents²/1e4), quantized per row; the
        # z² and z·y moments exceed int64 so they ship as 2³¹ limbs
        z = np.floor(yh * yh / 1e4 + 0.5).astype(object)
        z = np.array([int(v_) for v_ in z], dtype=object)
        xo = x.astype(object)
        szz = int((z * z).sum())
        szy = int((z * y).sum())
        return pa.table({
            "_g": pa.array([0]),
            "sz": pa.array([int(z.sum())]),
            "szzh": pa.array([szz >> 31]),
            "szzl": pa.array([szz & 0x7FFFFFFF]),
            "sxz": pa.array([int((xo * z).sum())]),
            "szyh": pa.array([szy >> 31]),
            "szyl": pa.array([szy & 0x7FFFFFFF]),
            "syyh": pa.array([int((y * y).sum()) >> 31]),
            "syyl": pa.array([int((y * y).sum()) & 0x7FFFFFFF])})

    cols2 = ["sz", "szzh", "szzl", "sxz", "szyh", "szyl", "syyh",
             "syyl"]
    a2 = relational.ds_to_table(
        li.map_batches(m2, batch_format="pyarrow")
        .groupby("_g").aggregate(
            *[Sum(c, alias_name=c) for c in cols2])).to_pandas()
    v2 = {c: int(a2[c].iloc[0]) for c in cols2}
    v2["szz"] = (v2["szzh"] << 31) + v2["szzl"]
    v2["szy"] = (v2["szyh"] << 31) + v2["szyl"]
    v2["syy"] = (v2["syyh"] << 31) + v2["syyl"]
    cxx = float(n * v1["sxx"] - v1["sx"] * v1["sx"])
    czz = float(n * v2["szz"] - v2["sz"] * v2["sz"])
    cxz = float(n * v2["sxz"] - v1["sx"] * v2["sz"])
    cxy = float(n * v1["sxy"] - v1["sx"] * v1["sy"])
    czy = float(n * v2["szy"] - v2["sz"] * v1["sy"])
    cyy = float(n * v1["syy"] if False else
                n * v2["syy"] - v1["sy"] * v1["sy"])
    det = cxx * czz - cxz * cxz
    b1 = (cxy * czz - czy * cxz) / det
    b2 = (czy * cxx - cxy * cxz) / det
    sse1 = cyy - cxy * cxy / cxx
    sse2 = cyy - b1 * cxy - b2 * czy
    # an exactly-linear fit zeroes both SSEs: F = 0 by convention
    f = 0.0 if sse2 <= 0 else \
        max(0.0, (sse1 - sse2)) / (sse2 / (n - 3))
    return pd.DataFrame([{
        "n_rows": n, "b_quadratic_milli": np.round(b2, 6),
        "reset_f": np.round(f, 6)}]).astype({"n_rows": np.int64})


SQL_RAMSEY_RESET = """
WITH m1 AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
              CAST(SUM(CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                   AS HUGEINT) AS sx,
              CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5)
                            AS BIGINT)) AS HUGEINT) AS sy,
              SUM(CAST(FLOOR(l_quantity + 0.5) AS HUGEINT)
                  * CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                AS sxx,
              SUM(CAST(FLOOR(l_quantity + 0.5) AS HUGEINT)
                  * CAST(FLOOR(l_extendedprice * 100 + 0.5)
                         AS BIGINT)) AS sxy
            FROM lineitem),
ab AS (SELECT CAST(n AS BIGINT) AS n,
              CAST(n * sxy - sx * sy AS DOUBLE)
                / CAST(n * sxx - sx * sx AS DOUBLE) AS b,
              (CAST(sy AS DOUBLE)
               - (CAST(n * sxy - sx * sy AS DOUBLE)
                  / CAST(n * sxx - sx * sx AS DOUBLE))
                 * CAST(sx AS DOUBLE)) / CAST(n AS DOUBLE) AS a,
              sx, sy, sxx, sxy
       FROM m1),
m2 AS (SELECT
         CAST(SUM(CAST(FLOOR((ab.a + ab.b
                  * CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                 * (ab.a + ab.b
                    * CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                 / 1e4 + 0.5) AS BIGINT)) AS HUGEINT) AS sz,
         SUM(CAST(FLOOR((ab.a + ab.b
                  * CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                 * (ab.a + ab.b
                    * CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                 / 1e4 + 0.5) AS HUGEINT)
             * CAST(FLOOR((ab.a + ab.b
                  * CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                 * (ab.a + ab.b
                    * CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                 / 1e4 + 0.5) AS BIGINT)) AS szz,
         SUM(CAST(FLOOR(l_quantity + 0.5) AS HUGEINT)
             * CAST(FLOOR((ab.a + ab.b
                  * CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                 * (ab.a + ab.b
                    * CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                 / 1e4 + 0.5) AS BIGINT)) AS sxz,
         SUM(CAST(FLOOR((ab.a + ab.b
                  * CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                 * (ab.a + ab.b
                    * CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                 / 1e4 + 0.5) AS HUGEINT)
             * CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT))
           AS szy,
         SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS HUGEINT)
             * CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT))
           AS syy
       FROM lineitem, ab),
c AS (SELECT ab.n,
        CAST(ab.n * ab.sxx - ab.sx * ab.sx AS DOUBLE) AS cxx,
        CAST(ab.n * m2.szz - m2.sz * m2.sz AS DOUBLE) AS czz,
        CAST(ab.n * m2.sxz - ab.sx * m2.sz AS DOUBLE) AS cxz,
        CAST(ab.n * ab.sxy - ab.sx * ab.sy AS DOUBLE) AS cxy,
        CAST(ab.n * m2.szy - m2.sz * ab.sy AS DOUBLE) AS czy,
        CAST(ab.n * m2.syy - ab.sy * ab.sy AS DOUBLE) AS cyy
      FROM ab, m2),
f AS (SELECT n, cxy, czy, cyy, cxx,
        (cxy * czz - czy * cxz) / (cxx * czz - cxz * cxz) AS b1,
        (czy * cxx - cxy * cxz) / (cxx * czz - cxz * cxz) AS b2
      FROM c)
SELECT n AS n_rows, ROUND(b2, 6) AS b_quadratic_milli,
       CASE WHEN cyy - b1 * cxy - b2 * czy <= 0 THEN 0.0
            ELSE ROUND(GREATEST(0.0, (cyy - cxy * cxy / cxx)
                           - (cyy - b1 * cxy - b2 * czy))
                       / ((cyy - b1 * cxy - b2 * czy) / (n - 3)),
                       6) END AS reset_f
FROM f
"""


def q_goldfeld_quandt_price(sf_dir: str):
    """Goldfeld–Quandt heteroskedasticity test for price ~ quantity
    — the split-sample rival of the registry's Breusch–Pagan (BP
    needs a variance MODEL; GQ just asks 'are residuals bigger at
    big x?'): tails = the smallest whole-x-value prefix and suffix
    covering ≥ 40 % of rows each (whole groups only — the stated
    convention that keeps every tail moment an exact integer fold),
    OLS per tail, F = (SSE_hi/df)/(SSE_lo/df) mirrored."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem",
               ["l_quantity", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        x = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) + 0.5).astype(np.int64)
        y = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        g = pd.DataFrame({"x": x, "n_": 1, "sy": y,
                          "syy": y.astype(object) * y,
                          "sxy": x.astype(object) * y,
                          "sxx": x.astype(object) * x}) \
            .groupby("x", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("x").aggregate(
            Sum("n_", alias_name="n_"), Sum("sy", alias_name="sy"),
            Sum("syy", alias_name="syy"),
            Sum("sxy", alias_name="sxy"),
            Sum("sxx", alias_name="sxx"))
    ).to_pandas().sort_values("x").reset_index(drop=True)
    n_tot = int(g["n_"].sum())
    k_tail = (2 * n_tot) // 5
    cum = g["n_"].cumsum().to_numpy(np.int64)
    cum_prev = cum - g["n_"].to_numpy(np.int64)
    rcum = cum[-1] - cum_prev            # rows at or above each x
    lo_mask = cum_prev < k_tail          # whole-group prefix
    hi_mask = (cum[-1] - cum) < k_tail   # whole-group suffix

    def tail_sse(mask):
        gg = g[mask]
        n = int(gg["n_"].sum())
        sx = int((gg["n_"].astype(object)
                  * gg["x"].astype(object)).sum())
        sxx = int((gg["n_"].astype(object)
                   * gg["x"].astype(object)
                   * gg["x"].astype(object)).sum())
        sy = int(gg["sy"].astype(object).sum())
        syy = int(gg["syy"].astype(object).sum())
        sxy = int(gg["sxy"].astype(object).sum())
        cxx = n * sxx - sx * sx
        cxy = n * sxy - sx * sy
        cyy = n * syy - sy * sy
        sse = (float(cyy) - float(cxy) * cxy / float(cxx)) / n
        return n, sse

    n_lo, sse_lo = tail_sse(lo_mask)
    n_hi, sse_hi = tail_sse(hi_mask)
    f = (sse_hi / (n_hi - 2)) / (sse_lo / (n_lo - 2))
    return pd.DataFrame([{
        "n_rows": n_tot, "n_tail": k_tail,
        "gq_f": np.round(f, 6),
        "hetero_increasing": bool(np.round(f, 6) > 1.0)}]).astype({
            "n_rows": np.int64, "n_tail": np.int64})


SQL_GOLDFELD_QUANDT = """
WITH g AS (SELECT CAST(FLOOR(l_quantity + 0.5) AS BIGINT) AS x,
                  CAST(COUNT(*) AS BIGINT) AS n_,
                  CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5)
                                AS BIGINT)) AS HUGEINT) AS sy,
                  SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5)
                           AS HUGEINT)
                      * CAST(FLOOR(l_extendedprice * 100 + 0.5)
                             AS BIGINT)) AS syy,
                  SUM(CAST(FLOOR(l_quantity + 0.5) AS HUGEINT)
                      * CAST(FLOOR(l_extendedprice * 100 + 0.5)
                             AS BIGINT)) AS sxy
           FROM lineitem GROUP BY 1),
w AS (SELECT g.*, SUM(n_) OVER (ORDER BY x) AS cum,
             SUM(n_) OVER () AS nt
      FROM g),
k AS (SELECT (2 * MAX(nt)) // 5 AS kt, MAX(nt) AS nt FROM w),
lo AS (SELECT CAST(SUM(n_) AS HUGEINT) AS n,
              SUM(CAST(n_ AS HUGEINT) * x) AS sx,
              SUM(CAST(n_ AS HUGEINT) * x * x) AS sxx,
              SUM(sy) AS sy, SUM(syy) AS syy, SUM(sxy) AS sxy
       FROM w, k WHERE cum - n_ < k.kt),
hi AS (SELECT CAST(SUM(n_) AS HUGEINT) AS n,
              SUM(CAST(n_ AS HUGEINT) * x) AS sx,
              SUM(CAST(n_ AS HUGEINT) * x * x) AS sxx,
              SUM(sy) AS sy, SUM(syy) AS syy, SUM(sxy) AS sxy
       FROM w, k WHERE w.nt - cum < k.kt),
f AS (SELECT
        (CAST(lo.n * lo.syy - lo.sy * lo.sy AS DOUBLE)
         - CAST(lo.n * lo.sxy - lo.sx * lo.sy AS DOUBLE)
           * CAST(lo.n * lo.sxy - lo.sx * lo.sy AS DOUBLE)
           / CAST(lo.n * lo.sxx - lo.sx * lo.sx AS DOUBLE))
          / CAST(lo.n AS DOUBLE) AS sse_lo,
        (CAST(hi.n * hi.syy - hi.sy * hi.sy AS DOUBLE)
         - CAST(hi.n * hi.sxy - hi.sx * hi.sy AS DOUBLE)
           * CAST(hi.n * hi.sxy - hi.sx * hi.sy AS DOUBLE)
           / CAST(hi.n * hi.sxx - hi.sx * hi.sx AS DOUBLE))
          / CAST(hi.n AS DOUBLE) AS sse_hi,
        CAST(lo.n AS BIGINT) AS n_lo, CAST(hi.n AS BIGINT) AS n_hi
      FROM lo, hi)
SELECT (SELECT CAST(nt AS BIGINT) FROM k) AS n_rows,
       (SELECT CAST(kt AS BIGINT) FROM k) AS n_tail,
       ROUND((sse_hi / (n_hi - 2)) / (sse_lo / (n_lo - 2)), 6)
         AS gq_f,
       (ROUND((sse_hi / (n_hi - 2)) / (sse_lo / (n_lo - 2)), 6)
        > 1.0) AS hetero_increasing
FROM f
"""


def q_blomqvist_beta_cells(sf_dir: str):
    """Blomqvist's β (the medial/quadrant correlation) between
    discount and tax — the bluntest dependence check (which
    QUADRANT around the two medians does a point fall in?), and the
    one whose sample medians make it robust to anything: exact
    type-1 medians from the cell panel, quadrant counts pure
    integers with on-median points EXCLUDED (stated), β =
    (n₁₊₃ − n₂₊₄)/total one mirrored division."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_discount", "l_tax"])

    def partial(t: pa.Table) -> pa.Table:
        d = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        x = np.round(t["l_tax"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"d": d, "t": x, "pn": 1}) \
            .groupby(["d", "t"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cells = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby(["d", "t"]).aggregate(Sum("pn", alias_name="n"))
    ).to_pandas()
    n_tot = int(cells["n"].sum())

    def med(col):
        m = cells.groupby(col)["n"].sum().sort_index()
        cum = m.cumsum()
        k = (n_tot + 1) // 2
        return int(m.index[np.searchsorted(cum.to_numpy(), k)])

    md = med("d")
    mt = med("t")
    q13 = int(cells.loc[((cells.d > md) & (cells.t > mt))
                        | ((cells.d < md) & (cells.t < mt)),
                        "n"].sum())
    q24 = int(cells.loc[((cells.d > md) & (cells.t < mt))
                        | ((cells.d < md) & (cells.t > mt)),
                        "n"].sum())
    # every point on one of the two medians → off-median count 0;
    # mirror the twin's NULLIF with NaN instead of raising
    beta = np.nan if q13 + q24 == 0 else np.round(
        float(q13 - q24) / float(q13 + q24), 6)
    return pd.DataFrame([{
        "n_rows": n_tot, "median_d": md, "median_t": mt,
        "n_concordant_quad": q13, "n_discordant_quad": q24,
        "blomqvist_beta": beta}]).astype({
            "n_rows": np.int64, "median_d": np.int64,
            "median_t": np.int64, "n_concordant_quad": np.int64,
            "n_discordant_quad": np.int64})


SQL_BLOMQVIST = """
WITH cells AS (SELECT CAST(ROUND(l_discount * 100) AS BIGINT) AS d,
                      CAST(ROUND(l_tax * 100) AS BIGINT) AS t,
                      CAST(COUNT(*) AS BIGINT) AS n
               FROM lineitem GROUP BY 1, 2),
nt AS (SELECT CAST(SUM(n) AS BIGINT) AS n FROM cells),
md AS (SELECT MIN(d) AS m FROM (
         SELECT d, SUM(SUM(n)) OVER (ORDER BY d) AS cum
         FROM cells GROUP BY d), nt
       WHERE cum >= (nt.n + 1) // 2),
mt AS (SELECT MIN(t) AS m FROM (
         SELECT t, SUM(SUM(n)) OVER (ORDER BY t) AS cum
         FROM cells GROUP BY t), nt
       WHERE cum >= (nt.n + 1) // 2),
q AS (SELECT
        CAST(SUM(CASE WHEN (d > md.m AND t > mt.m)
                 OR (d < md.m AND t < mt.m) THEN n ELSE 0 END)
             AS BIGINT) AS q13,
        CAST(SUM(CASE WHEN (d > md.m AND t < mt.m)
                 OR (d < md.m AND t > mt.m) THEN n ELSE 0 END)
             AS BIGINT) AS q24
      FROM cells, md, mt)
SELECT nt.n AS n_rows, md.m AS median_d, mt.m AS median_t,
       q.q13 AS n_concordant_quad, q.q24 AS n_discordant_quad,
       ROUND(CAST(q.q13 - q.q24 AS DOUBLE)
             / CAST(NULLIF(q.q13 + q.q24, 0) AS DOUBLE), 6)
         AS blomqvist_beta
FROM nt, md, mt, q
"""


def q_hoeffdings_d_cells(sf_dir: str):
    """Hoeffding's D between discount and tax — the 1948 rank test
    consistent against ALL dependence alternatives (tau and rho can
    sit at 0 under real dependence; D cannot): the STRICT-dominance
    convention (stated) keeps Q_i = #{both coords strictly less}
    an exact integer from cell dominance products, doubled midranks
    clear (R−1)(R−2)(S−1)(S−2) to quarter-integer-free folds
    (16·D₂ and 4·D₃ are integers), and the 30·(…) combination is
    one mirrored float chain on exact integers.  Caveat (stated):
    under the HEAVY ties of a percent grid the strict/midrank mix
    is not centered at 0 under independence — compare values
    BETWEEN datasets, not against the continuous-case null."""
    from ray.data.aggregate import Sum
    li = _read(sf_dir, "lineitem", ["l_discount", "l_tax"])

    def partial(t: pa.Table) -> pa.Table:
        d = np.round(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        x = np.round(t["l_tax"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        g = pd.DataFrame({"d": d, "t": x, "pn": 1}) \
            .groupby(["d", "t"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    cells = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby(["d", "t"]).aggregate(Sum("pn", alias_name="n"))
    ).to_pandas()
    dv = cells["d"].to_numpy(np.int64)
    tv = cells["t"].to_numpy(np.int64)
    nv = cells["n"].to_numpy(np.int64).astype(object)
    n = int(nv.sum())
    # doubled midranks per cell along each margin
    dm = cells.groupby("d")["n"].sum().sort_index()
    dcum = dm.cumsum() - dm
    r2 = cells["d"].map(2 * dcum + dm + 1).astype(object)
    tm = cells.groupby("t")["n"].sum().sort_index()
    tcum = tm.cumsum() - tm
    s2 = cells["t"].map(2 * tcum + tm + 1).astype(object)
    # strict dominance count per cell
    q = np.zeros(len(cells), dtype=object)
    for i in range(len(cells)):
        q[i] = int(nv[(dv < dv[i]) & (tv < tv[i])].sum())
    d1 = int((nv * q * (q - 1)).sum())
    # (R−1)(R−2)(S−1)(S−2) with R = r2/2: 16× clears it
    d2_16 = int((nv * (r2 - 2) * (r2 - 4)
                 * (s2 - 2) * (s2 - 4)).sum())
    d3_4 = int((nv * (r2 - 4) * (s2 - 4) * q).sum())
    d2 = d2_16 / 16.0
    d3 = d3_4 / 4.0
    num = (n - 2) * (n - 3) * d1 + d2 - 2.0 * (n - 2) * d3
    den = float(n) * (n - 1) * (n - 2) * (n - 3) * (n - 4)
    dd = 30.0 * num / den
    # the exact D1/D2/D3 intermediates exceed int64 output columns
    # at scale — only the statistic ships
    return pd.DataFrame([{
        "n_rows": n,
        "hoeffding_d": np.round(dd, 6)}]).astype({
            "n_rows": np.int64})


SQL_HOEFFDINGS_D = """
WITH cells AS (SELECT CAST(ROUND(l_discount * 100) AS BIGINT) AS d,
                      CAST(ROUND(l_tax * 100) AS BIGINT) AS t,
                      CAST(COUNT(*) AS HUGEINT) AS n
               FROM lineitem GROUP BY 1, 2),
dm AS (SELECT d, SUM(n) AS c FROM cells GROUP BY 1),
dr AS (SELECT d, 2 * (SUM(c) OVER (ORDER BY d) - c) + c + 1 AS r2
       FROM dm),
tm AS (SELECT t, SUM(n) AS c FROM cells GROUP BY 1),
tr AS (SELECT t, 2 * (SUM(c) OVER (ORDER BY t) - c) + c + 1 AS s2
       FROM tm),
qq AS (SELECT a.d, a.t, a.n,
              COALESCE((SELECT SUM(b.n) FROM cells b
                        WHERE b.d < a.d AND b.t < a.t), 0) AS q
       FROM cells a),
j AS (SELECT qq.d, qq.t, qq.n, qq.q, dr.r2, tr.s2
      FROM qq JOIN dr USING (d) JOIN tr USING (t)),
agg AS (SELECT CAST(SUM(n) AS BIGINT) AS nt,
          CAST(SUM(n * q * (q - 1)) AS HUGEINT) AS d1,
          CAST(SUM(n * (r2 - 2) * (r2 - 4) * (s2 - 2) * (s2 - 4))
               AS HUGEINT) AS d2_16,
          CAST(SUM(n * (r2 - 4) * (s2 - 4) * q) AS HUGEINT) AS d3_4
        FROM j)
SELECT nt AS n_rows,
       ROUND(30.0 * (CAST(nt - 2 AS DOUBLE) * (nt - 3)
                     * CAST(d1 AS DOUBLE)
                     + CAST(d2_16 AS DOUBLE) / 16.0
                     - 2.0 * (nt - 2)
                       * (CAST(d3_4 AS DOUBLE) / 4.0))
             / (CAST(nt AS DOUBLE) * (nt - 1) * (nt - 2) * (nt - 3)
                * (nt - 4)), 6) AS hoeffding_d
FROM agg
"""


def q_horvitz_thompson_lineitem(sf_dir: str):
    """Horvitz–Thompson estimator of total extended price from an
    UNEQUAL-probability deterministic sample — the design-based
    foundation every survey weight descends from: row i enters the
    sample iff hash(8·orderkey + linenumber) % 1000 < 10·quantity
    (DuckDB's integer hash, bit-replicated in numpy, so the design
    is reproducible in BOTH engines), giving known inclusion
    probability πᵢ = qᵢ/100 exactly; the estimator Σ yᵢ/πᵢ is folded
    as MILLI-QUANTIZED per-row terms (yᵢ·100/qᵢ is rational, not
    integer) so the sum is order-free, and the row reports the exact
    true total beside the estimate and realized relative error —
    the sketch-fidelity pattern for a sampling design."""
    from ray.data.aggregate import Sum
    from ...stages.sketches import _hash_u64_duckdb
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity",
                "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ln = t["l_linenumber"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        q = t["l_quantity"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        y = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        h = _hash_u64_duckdb(pa.array(ok * 8 + ln)) \
            % np.uint64(1000)
        keep = h.astype(np.int64) < 10 * q
        term3 = np.floor(y[keep].astype(np.float64) * 100.0
                         / q[keep] * 1e3 + 0.5).astype(np.int64)
        return pa.table({
            "_g": pa.array([0]),
            "pt": pa.array([int(y.astype(object).sum())]),
            "pn": pa.array([len(y)]),
            "ps": pa.array([int(keep.sum())]),
            "ph": pa.array([int(term3.astype(object).sum())])})

    agg = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("_g").aggregate(
            Sum("pt", alias_name="true_t"),
            Sum("pn", alias_name="n"),
            Sum("ps", alias_name="n_s"),
            Sum("ph", alias_name="ht3"))
    ).to_pandas().iloc[0]
    true_t = int(agg["true_t"])
    ht = int(agg["ht3"]) / 1e3
    return pd.DataFrame([{
        "n_rows": int(agg["n"]), "n_sampled": int(agg["n_s"]),
        "true_total_cents": true_t,
        "ht_estimate_cents": np.round(ht, 6),
        "rel_err": np.round(abs(ht - true_t) / true_t, 6)}]).astype({
            "n_rows": np.int64, "n_sampled": np.int64,
            "true_total_cents": np.int64})


SQL_HORVITZ_THOMPSON = """
WITH d AS (SELECT CAST(l_quantity AS BIGINT) AS q,
                  CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS y,
                  hash(l_orderkey * 8 + l_linenumber) % 1000 AS h
           FROM lineitem),
t AS (SELECT CAST(SUM(y) AS BIGINT) AS true_t,
             CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(CASE WHEN h < 10 * q THEN 1 ELSE 0 END)
                  AS BIGINT) AS n_s,
             SUM(CASE WHEN h < 10 * q THEN
                 CAST(FLOOR(CAST(y AS DOUBLE) * 100.0 / q * 1e3
                            + 0.5) AS HUGEINT)
                 ELSE 0 END) AS ht3
      FROM d)
SELECT n AS n_rows, n_s AS n_sampled,
       true_t AS true_total_cents,
       ROUND(CAST(ht3 AS DOUBLE) / 1e3, 6) AS ht_estimate_cents,
       ROUND(ABS(CAST(ht3 AS DOUBLE) / 1e3 - true_t) / true_t, 6)
         AS rel_err
FROM t
"""


def q_ratio_regression_estimators(sf_dir: str):
    """Ratio and regression (GREG) estimators of total extended price
    from an equal-probability deterministic 10 % sample, with
    quantity as the auxiliary whose population total is known — the
    classical pair showing how an auxiliary shrinks design variance
    (ratio assumes y ∝ x through the origin; GREG fits the line):
    the sample enters iff hash(8·orderkey + linenumber) % 10 = 0
    (same DuckDB-hash design as the HT op), every sample and
    population moment is an exact integer (Σx² on the 128-bit
    split), and both estimators are one mirrored float chain —
    t̂_ratio = X·(Σy/Σx), t̂_greg = N·(ȳ + b·(X̄ − x̄)).  The exact
    true total rides along with both realized errors."""
    from ray.data.aggregate import Sum
    from ...stages.sketches import _hash_u64_duckdb
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity",
                "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ln = t["l_linenumber"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = t["l_quantity"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        y = np.round(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        keep = (_hash_u64_duckdb(pa.array(ok * 8 + ln))
                % np.uint64(10)).astype(np.int64) == 0
        xs = x[keep].astype(object)
        ys = y[keep].astype(object)
        xx = (x[keep] * x[keep]).astype(object)
        xy = (x[keep] * y[keep]).astype(object)
        return pa.table({
            "_g": pa.array([0]),
            "pn": pa.array([len(y)]),
            "px": pa.array([int(x.astype(object).sum())]),
            "pt": pa.array([int(y.astype(object).sum())]),
            "pm": pa.array([int(keep.sum())]),
            "psx": pa.array([int(xs.sum())]),
            "psy": pa.array([int(ys.sum())]),
            "psxx": pa.array([int(xx.sum())]),
            "psxy": pa.array([int(xy.sum())])})

    a = relational.ds_to_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("_g").aggregate(
            Sum("pn", alias_name="n"), Sum("px", alias_name="x_tot"),
            Sum("pt", alias_name="true_t"),
            Sum("pm", alias_name="m"), Sum("psx", alias_name="sx"),
            Sum("psy", alias_name="sy"),
            Sum("psxx", alias_name="sxx"),
            Sum("psxy", alias_name="sxy"))
    ).to_pandas().iloc[0]
    n = int(a["n"])
    m = int(a["m"])
    x_tot = int(a["x_tot"])
    true_t = int(a["true_t"])
    sx = int(a["sx"])
    sy = int(a["sy"])
    sxx = int(a["sxx"])
    sxy = int(a["sxy"])
    t_ratio = float(x_tot) * sy / sx
    b = (float(m) * sxy - float(sx) * sy) \
        / (float(m) * sxx - float(sx) * sx)
    t_greg = float(n) * (float(sy) / m
                         + b * (float(x_tot) / n - float(sx) / m))
    return pd.DataFrame([{
        "n_rows": n, "n_sampled": m,
        "true_total_cents": true_t,
        "ratio_estimate_cents": np.round(t_ratio, 6),
        "greg_estimate_cents": np.round(t_greg, 6),
        "ratio_rel_err": np.round(
            abs(t_ratio - true_t) / true_t, 6),
        "greg_rel_err": np.round(
            abs(t_greg - true_t) / true_t, 6)}]).astype({
            "n_rows": np.int64, "n_sampled": np.int64,
            "true_total_cents": np.int64})


SQL_RATIO_REGRESSION = """
WITH d AS (SELECT CAST(l_quantity AS BIGINT) AS x,
                  CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS y,
                  CASE WHEN hash(l_orderkey * 8 + l_linenumber)
                            % 10 = 0 THEN 1 ELSE 0 END AS s
           FROM lineitem),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
             SUM(CAST(x AS HUGEINT)) AS x_tot,
             CAST(SUM(y) AS BIGINT) AS true_t,
             CAST(SUM(s) AS BIGINT) AS m,
             SUM(CASE WHEN s = 1 THEN CAST(x AS HUGEINT) END) AS sx,
             SUM(CASE WHEN s = 1 THEN CAST(y AS HUGEINT) END) AS sy,
             SUM(CASE WHEN s = 1 THEN CAST(x AS HUGEINT) * x END)
               AS sxx,
             SUM(CASE WHEN s = 1 THEN CAST(x AS HUGEINT) * y END)
               AS sxy
      FROM d),
e AS (SELECT n, m, true_t,
             CAST(x_tot AS DOUBLE) * CAST(sy AS DOUBLE)
               / CAST(sx AS DOUBLE) AS t_ratio,
             (CAST(m AS DOUBLE) * CAST(sxy AS DOUBLE)
              - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
             / (CAST(m AS DOUBLE) * CAST(sxx AS DOUBLE)
                - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)) AS b,
             x_tot, sx, sy
      FROM t),
f AS (SELECT n, m, true_t, t_ratio,
             CAST(n AS DOUBLE)
             * (CAST(sy AS DOUBLE) / m
                + b * (CAST(x_tot AS DOUBLE) / n
                       - CAST(sx AS DOUBLE) / m)) AS t_greg
      FROM e)
SELECT n AS n_rows, m AS n_sampled, true_t AS true_total_cents,
       ROUND(t_ratio, 6) AS ratio_estimate_cents,
       ROUND(t_greg, 6) AS greg_estimate_cents,
       ROUND(ABS(t_ratio - true_t) / true_t, 6) AS ratio_rel_err,
       ROUND(ABS(t_greg - true_t) / true_t, 6) AS greg_rel_err
FROM f
"""


def q_rbo_part_rankings(sf_dir: str):
    """Rank-biased overlap (Webber 2010) between two part rankings —
    the top-weighted ranking-similarity measure tau can't give
    (tau weights all positions equally; RBO geometrically discounts
    depth, which is how search people actually compare result
    lists): ranking A = parts by (retailprice DESC, partkey),
    ranking B = parts by (size DESC, partkey), truncated RBO at
    depth 100 with persistence p = 1/2 (stated) so every weight
    p^{d−1}/d is a DYADIC rational; an item joins the prefix
    intersection at depth max(rank_A, rank_B), making overlap(d) an
    exact integer prefix count and the fold a nano-quantized
    order-free sum."""
    part = _read_table(sf_dir, "part",
                       ["p_partkey", "p_retailprice", "p_size"])
    df = part.to_pandas()
    df["price_c"] = np.round(df["p_retailprice"] * 100) \
        .astype(np.int64)
    ra = df.sort_values(["price_c", "p_partkey"],
                        ascending=[False, True]) \
        .reset_index(drop=True)
    ra["rank_a"] = np.arange(1, len(ra) + 1)
    rb = df.sort_values(["p_size", "p_partkey"],
                        ascending=[False, True]) \
        .reset_index(drop=True)
    rb["rank_b"] = np.arange(1, len(rb) + 1)
    m = ra[["p_partkey", "rank_a"]].merge(
        rb[["p_partkey", "rank_b"]], on="p_partkey")
    entry = np.maximum(m["rank_a"].to_numpy(np.int64),
                       m["rank_b"].to_numpy(np.int64))
    k = 100
    counts = np.bincount(np.clip(entry, 0, k + 1),
                         minlength=k + 2)[:k + 1]
    overlap = np.cumsum(counts)          # overlap(d) for d=0..k
    rbo9 = 0
    for d in range(1, k + 1):
        w = (0.5 ** (d - 1)) * 0.5 / d   # (1-p)·p^{d-1}/d, p=1/2
        rbo9 += int(np.floor(int(overlap[d]) * w * 1e9 + 0.5))
    return pd.DataFrame([{
        "depth": k, "overlap_at_depth": int(overlap[k]),
        "rbo": np.round(rbo9 / 1e9, 6)}]).astype({
            "depth": np.int64, "overlap_at_depth": np.int64})


SQL_RBO = """
WITH ra AS (SELECT p_partkey,
              ROW_NUMBER() OVER (
                ORDER BY CAST(ROUND(p_retailprice * 100) AS BIGINT)
                  DESC, p_partkey) AS rank_a
            FROM part),
rb AS (SELECT p_partkey,
              ROW_NUMBER() OVER (ORDER BY p_size DESC, p_partkey)
                AS rank_b
       FROM part),
m AS (SELECT GREATEST(ra.rank_a, rb.rank_b) AS entry
      FROM ra JOIN rb USING (p_partkey)),
ds AS (SELECT UNNEST(generate_series(1, 100)) AS d),
ov AS (SELECT ds.d,
              (SELECT CAST(COUNT(*) AS BIGINT) FROM m
               WHERE m.entry <= ds.d) AS o
       FROM ds),
t AS (SELECT
    SUM(CAST(FLOOR(o * (POWER(0.5, d - 1) * 0.5 / d) * 1e9 + 0.5)
             AS HUGEINT)) AS rbo9,
    MAX(CASE WHEN d = 100 THEN o END) AS o100
  FROM ov)
SELECT CAST(100 AS BIGINT) AS depth,
       CAST(o100 AS BIGINT) AS overlap_at_depth,
       ROUND(CAST(rbo9 AS DOUBLE) / 1e9, 6) AS rbo
FROM t
"""
